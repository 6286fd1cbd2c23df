//! Run options, the result of a run, and the pieces every workload's `run`
//! is assembled from.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use zerber_protocol::{IndexServer, ServerStats};

use crate::bed::{disk_bytes, latencies, ops_per_s, tally_of, Caller, DataRoot, Phase, Sizing};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::samples::median;
use crate::spans::{SelfTotals, Tracer};

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// Closed-loop callers: one per hardware thread.
    pub callers: usize,
}

impl Options {
    /// Traced runs spend this share of `seconds` on the untraced
    /// single-caller baseline and the rest on the ladder.
    const BASELINE_SHARE: f64 = 0.3;

    pub fn baseline_duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * Self::BASELINE_SHARE)
    }

    pub fn ladder_duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * (1.0 - Self::BASELINE_SHARE))
    }
}

/// A built workload with the directory it owns.  Fields drop in order: the
/// bench (and the stores it holds) first, its directory after.
pub struct Built<B> {
    pub bench: B,
    pub root: DataRoot,
    pub setup_s: f64,
}

/// Sets the workload up `setup_repeats` times, each in a fresh directory,
/// and keeps the last; `setup_s` is the median.  A traced run does not
/// report set-up time and sets up once.
pub fn timed_setups<B>(opts: &Options, build: impl Fn(&DataRoot) -> B) -> Built<B> {
    let repeats = if opts.trace {
        1
    } else {
        opts.sizing.setup_repeats
    };
    let mut seconds = Vec::with_capacity(repeats);
    let mut last = None;
    for i in 0..repeats {
        drop(last.take());
        let root = DataRoot::create(&format!("{}-{i}", opts.workload));
        let start = Instant::now();
        let bench = build(&root);
        seconds.push(start.elapsed().as_secs_f64());
        last = Some((bench, root));
    }
    let (bench, root) = last.expect("at least one set-up");
    Built {
        bench,
        root,
        setup_s: median(seconds),
    }
}

/// How big the served index is at one moment: the gauges behind
/// `resident_bytes_per_element` and `footprint_bytes_per_element`.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    pub elements: u64,
    pub resident_bytes: u64,
    /// Bytes of every file of the store's directory.
    pub disk_bytes: u64,
}

impl Footprint {
    pub fn read(server: &IndexServer, store_dir: &Path) -> Footprint {
        Footprint {
            elements: server.num_elements() as u64,
            resident_bytes: server.stats().resident_bytes,
            disk_bytes: disk_bytes(store_dir),
        }
    }
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run checks that did not hold (open cursors, ordering, ...).
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a whole-run check.
    pub fn require(&mut self, holds: bool, what: &str) {
        if !holds {
            self.violations.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Sets one metric; its name must be on the benchmark's lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known =
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name);
        assert!(known, "metric {name} is not in the benchmark's metric list");
        assert!(
            self.metrics.insert(name, value).is_none(),
            "metric {name} was set twice"
        );
    }

    /// Derives the end-to-end metrics from a measured phase.  `ops` are the
    /// callers whose ops the workload counts; `reads` the callers doing read
    /// ops (the same callers where every op is a read).  Percentiles are
    /// exact over every sample of the phase.
    pub fn end_to_end(
        &mut self,
        phase: &Phase,
        ops: std::ops::Range<usize>,
        reads: std::ops::Range<usize>,
        footprint: Footprint,
    ) {
        let all = phase.tally();
        self.attempted += all.ops;
        self.failed += all.failed;
        let (ops, reads) = (&phase.callers[ops], &phase.callers[reads]);
        let (mut op, mut read) = (latencies(ops), latencies(reads));
        let (Some(p50), Some(op_tail), Some(read_tail)) =
            (op.percentile_ns(0.5), op.tail_ns(), read.tail_ns())
        else {
            self.violations
                .push("no op finished inside the measured phase".to_string());
            return;
        };
        for (what, samples, tail) in [("op", &mut op, op_tail), ("read", &mut read, read_tail)] {
            let p99 = samples.percentile_ns(0.99).unwrap_or(0) as f64 / 1e3;
            self.note(format!(
                "{} {what} samples: the reported tail is p{}; p99 {p99:.1} us (for information: \
                 it does not repeat within the bound)",
                samples.len(),
                tail.0 * 100.0,
            ));
        }
        let tally = tally_of(ops);
        let elements = footprint.elements.max(1) as f64;
        let resident = footprint.resident_bytes as f64;
        self.set("setup_s", self.setup_s);
        self.set("ops_per_s", ops_per_s(ops));
        self.set("op_p50_us", p50 as f64 / 1e3);
        self.set("op_p95_us", op_tail.1 as f64 / 1e3);
        self.set("read_p95_us", read_tail.1 as f64 / 1e3);
        self.set(
            "wire_bytes_per_op",
            tally.per_op(tally.bytes_sent + tally.bytes_received),
        );
        self.set("requests_per_op", tally.per_op(tally.requests));
        self.set("elements_per_op", tally.per_op(tally.elements));
        self.set("resident_bytes_per_element", resident / elements);
        self.set(
            "footprint_bytes_per_element",
            (resident + footprint.disk_bytes as f64) / elements,
        );
    }

    /// Share of parents whose replayed children fit inside them.
    pub fn tree_check(&mut self, parents: &[SelfTotals]) {
        let n: u64 = parents.iter().map(|p| p.parents).sum();
        let overruns: u64 = parents.iter().map(|p| p.overruns).sum();
        let within = if n == 0 {
            0.0
        } else {
            (n - overruns) as f64 / n as f64
        };
        self.note(format!(
            "{overruns} of {n} traced ops had replayed children longer than the parent span"
        ));
        self.set("trace.children_within_parent", within);
    }

    /// Ends a traced run: the ladder's cost (untraced single-caller
    /// throughput over ladder throughput) and the span file.
    pub fn finish_trace(
        &mut self,
        opts: &Options,
        tracer: &Tracer,
        baseline_ops_per_s: f64,
        ladder_s: f64,
        ladder_ops: u64,
    ) {
        let ladder = ladder_ops as f64 / ladder_s.max(f64::MIN_POSITIVE);
        let overhead = if ladder > 0.0 {
            baseline_ops_per_s / ladder
        } else {
            0.0
        };
        self.set("trace.baseline_ops_per_s", baseline_ops_per_s);
        self.set("trace.overhead", overhead);
        self.set(
            "trace.spans_per_op",
            tracer.spans().len() as f64 / ladder_ops.max(1) as f64,
        );
        self.note(format!(
            "trace_overhead {overhead:.3} = {baseline_ops_per_s:.1} untraced op/s / {ladder:.1} traced op/s \
             ({ladder_ops} traced ops, {} spans, one caller)",
            tracer.spans().len()
        ));
        let path = crate::bed::trace_path(&opts.workload, opts.seed);
        match tracer.write_json(&path, &opts.workload, opts.seed) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self
                .violations
                .push(format!("could not write {}: {e}", path.display())),
        }
    }
}

/// Per-layer counts read off `IndexServer::stats()` over a phase of real
/// (not replayed) calls.
pub fn layer_counts(out: &mut Outcome, stats: &ServerStats, ops: u64) {
    let requests = (stats.requests_served + stats.inserts_accepted).max(1) as f64;
    let ops = ops.max(1) as f64;
    let reads = stats.page_cache_hits + stats.page_faults;
    out.set(
        "store.lock_acquisitions_per_request",
        stats.lock_acquisitions as f64 / requests,
    );
    out.set(
        "store.visibility_scan_per_request",
        stats.visibility_scan_cost as f64 / requests,
    );
    out.set("store.page_faults_per_op", stats.page_faults as f64 / ops);
    out.set(
        "store.page_cache_hit_rate",
        if reads == 0 {
            0.0
        } else {
            stats.page_cache_hits as f64 / reads as f64
        },
    );
    out.set(
        "store.page_evictions_per_op",
        stats.page_evictions as f64 / ops,
    );
    out.set(
        "protocol.auth_checks_per_request",
        stats.auth_checks as f64 / requests,
    );
    out.set("protocol.bytes_out_per_query", stats.bytes_out as f64 / ops);
    out.set("protocol.bytes_in_per_query", stats.bytes_in as f64 / ops);
}

/// Mean time of one `AccessControl::authenticate` (an HMAC over the user
/// name plus the membership lookup).
pub fn hmac_token_ns(server: &IndexServer, caller: &Caller) -> f64 {
    const ROUNDS: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let groups = server.acl().authenticate(&caller.user, &caller.token);
        std::hint::black_box(groups.is_ok());
    }
    start.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
}
