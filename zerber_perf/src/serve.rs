//! `serve_warm` and `serve_cold`: the server half of a query with the client
//! removed.  Set-up runs each term once through the full client and keeps
//! its request script; the timed phase replays scripts through
//! `IndexServer::handle_query` + `close_cursor`.
//!
//! * warm — Segment engine, everything resident, terms drawn by query-log
//!   frequency: `acl`, `server` and `store::segment` do all the work.
//! * cold — Spill engine with no resident budget and a small page cache,
//!   lists drawn uniformly: page read, CRC, `Segment::from_bytes` validation
//!   and eviction dominate.

use std::collections::HashMap;
use std::time::Instant;

use zerber_base::MergedListId;
use zerber_corpus::TermId;
use zerber_protocol::{IndexServer, QueryResponse};
use zerber_store::{SegmentConfig, SpillConfig, SpillStore};

use crate::bed::{
    checksum_responses, ops_per_s, run_phase, run_session, session_bytes, warm_then_measure,
    Caller, DataRoot, Deployment, OpReport, Picks, Script, Tally, PICKS_PER_CALLER, SHARDS,
};
use crate::harness::{hmac_token_ns, layer_counts, timed_setups, Footprint, Options, Outcome};
use crate::spans::Tracer;
use crate::store_rung::{self, Rung};
use crate::stream::{self, StreamHash};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Warm,
    Cold,
}

pub struct ServeCaller {
    pub caller: Caller,
    pub picks: Picks,
    pub responses: Vec<QueryResponse>,
}

/// The scripts of a deployment and how a pick selects one.
pub struct Scripts {
    pub scripts: Vec<Script>,
    /// Pick → script.  Warm: one entry per term occurrence of the pool, so a
    /// uniform pick draws terms by query frequency.  Cold: the identity over
    /// one script per merged list.
    pub by_pick: Vec<u32>,
}

impl Scripts {
    pub fn pick(&self, pick: usize) -> &Script {
        &self.scripts[self.by_pick[pick] as usize]
    }

    /// One script per distinct pool term, picked by query frequency.
    pub fn by_frequency(dep: &Deployment, server: &IndexServer) -> Scripts {
        let client = dep.client(server, 0);
        let mut index: HashMap<TermId, u32> = HashMap::new();
        let mut scripts = Vec::new();
        let mut by_pick = Vec::new();
        for term in dep.pool_terms() {
            let id = *index.entry(term).or_insert_with(|| {
                let script = Script::record(dep, &client, server, term)
                    .expect("a pool term's query is served");
                scripts.push(script);
                scripts.len() as u32 - 1
            });
            by_pick.push(id);
        }
        Scripts { scripts, by_pick }
    }

    /// One script per merged list — that of the list's most queried term,
    /// or of its first term when the log never asks for the list.
    fn by_list(dep: &Deployment, server: &IndexServer) -> Scripts {
        let client = dep.client(server, 0);
        let plan = &dep.bed.plan;
        let mut asked: HashMap<MergedListId, TermId> = HashMap::new();
        // Most frequent first, so the first term seen per list wins.
        for &(term, _) in dep.log.term_frequencies() {
            if let Ok(list) = plan.list_of(term) {
                asked.entry(list).or_insert(term);
            }
        }
        let scripts: Vec<Script> = (0..plan.num_lists() as u64)
            .filter_map(|l| {
                let list = MergedListId(l);
                let term = asked
                    .get(&list)
                    .copied()
                    .or_else(|| plan.list_terms(list).ok()?.first().copied())?;
                Script::record(dep, &client, server, term).ok()
            })
            .collect();
        let by_pick = (0..scripts.len() as u32).collect();
        Scripts { scripts, by_pick }
    }
}

struct Bench {
    dep: Deployment,
    server: IndexServer,
    scripts: Scripts,
    stream_hash: u64,
}

impl Bench {
    fn set_up(opts: &Options, engine: Engine, root: &DataRoot) -> (Bench, Vec<ServeCaller>) {
        let dep = Deployment::build(&opts.sizing);
        let server = match engine {
            Engine::Warm => dep.bed.build_segment_server(SHARDS, opts.callers),
            Engine::Cold => {
                let config = SpillConfig {
                    resident_budget_bytes: 0,
                    page_cache_pages: opts.sizing.cold_cache_pages,
                    ..SpillConfig::default()
                };
                let store = SpillStore::with_configs(
                    dep.bed.index.clone(),
                    SHARDS,
                    root.path().join("spill"),
                    config,
                    SegmentConfig::default(),
                )
                .expect("the spill store builds in the benchmark's directory");
                IndexServer::with_store(Box::new(store), dep.acl(opts.callers))
            }
        };
        let scripts = match engine {
            Engine::Warm => Scripts::by_frequency(&dep, &server),
            Engine::Cold => Scripts::by_list(&dep, &server),
        };
        let mut hash = StreamHash::default();
        let callers = (0..opts.callers)
            .map(|i| {
                let picks =
                    stream::picks(opts.seed, i as u64, scripts.by_pick.len(), PICKS_PER_CALLER);
                hash.picks(&picks);
                ServeCaller {
                    caller: Caller::new(&server, i),
                    picks: Picks::new(picks),
                    responses: Vec::new(),
                }
            })
            .collect();
        let bench = Bench {
            dep,
            server,
            scripts,
            stream_hash: hash.value(),
        };
        (bench, callers)
    }
}

/// One session: timed around the requests alone, checked against the
/// script's checksum afterwards.
pub fn session_op(
    server: &IndexServer,
    s: &mut ServeCaller,
    script: &Script,
    check: impl Fn(&[QueryResponse]) -> bool,
) -> (u64, OpReport) {
    let start = Instant::now();
    let served = run_session(server, &s.caller, script, &mut s.responses);
    let ns = start.elapsed().as_nanos() as u64;
    let (bytes_sent, bytes_received) = session_bytes(&s.caller, script, &s.responses);
    let report = OpReport {
        failed: served.is_err() || !check(&s.responses),
        requests: script.counts.len() as u64,
        elements: s.responses.iter().map(|r| r.elements.len() as u64).sum(),
        bytes_sent,
        bytes_received,
    };
    (ns, report)
}

fn checked_session(bench: &Bench, s: &mut ServeCaller) -> (u64, OpReport) {
    let script = bench.scripts.pick(s.picks.next());
    session_op(&bench.server, s, script, |responses| {
        checksum_responses(responses) == script.checksum
    })
}

pub fn run(opts: &Options, engine: Engine, out: &mut Outcome) {
    let built = timed_setups(opts, |root| Bench::set_up(opts, engine, root));
    out.setup_s = built.setup_s;
    let (bench, mut callers) = built.bench;
    out.note(format!(
        "op stream hash {:016x}, {} scripts",
        bench.stream_hash,
        bench.scripts.scripts.len()
    ));
    if opts.trace {
        callers.truncate(1);
        traced(&bench, engine, &mut callers, opts, out);
    } else {
        let (phase, stats) = warm_then_measure(&bench.server, &mut callers, opts.seconds, |s| {
            checked_session(&bench, s)
        });
        let all = 0..phase.callers.len();
        out.end_to_end(
            &phase,
            all.clone(),
            all,
            Footprint::read(&bench.server, built.root.path()),
        );
        out.note(format!(
            "server counters: {} requests, {} page faults, {} page-cache hits, {} evictions",
            stats.requests_served, stats.page_faults, stats.page_cache_hits, stats.page_evictions
        ));
        if engine == Engine::Warm {
            out.require(stats.page_faults == 0, "serve_warm must not fault pages");
        }
    }
    out.require(
        bench.server.open_cursors() == 0,
        "open cursors after the run",
    );
}

fn traced(
    bench: &Bench,
    engine: Engine,
    callers: &mut [ServeCaller],
    opts: &Options,
    out: &mut Outcome,
) {
    bench.server.reset_stats();
    let base = run_phase(callers, opts.baseline_duration(), |s| {
        checked_session(bench, s)
    });
    let base_stats = bench.server.stats();
    let base_tally = base.tally();

    // The ladder.  Even ops: the session first, its store calls replayed
    // under it (cache-warm: they bound the session from below).  Odd ops:
    // the store calls first, so they meet the page cache cold like the real
    // call; those give the store's own times.
    let first = Rung {
        classify: engine == Engine::Cold,
        ..store_rung::FIRST
    };
    let s = &mut callers[0];
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let (mut first_ops, mut session_ops, mut session_requests) = (0u64, 0u64, 0u64);
    let ladder_start = Instant::now();
    let mut op_id = 0u64;
    while ladder_start.elapsed() < opts.ladder_duration() {
        let script = bench.scripts.pick(s.picks.next());
        let store_first = op_id % 2 == 1;
        if store_first {
            store_rung::replay(
                &mut tracer,
                &bench.server,
                &bench.dep.groups,
                script,
                None,
                op_id,
                &first,
            );
            first_ops += 1;
        }
        let start_ns = tracer.now_ns();
        let (ns, report) = session_op(&bench.server, s, script, |responses| {
            checksum_responses(responses) == script.checksum
        });
        tally.add(&report);
        let name = if store_first {
            "server.session.after"
        } else {
            "server.session"
        };
        let session = tracer.record_root(name, start_ns, ns, op_id, report.requests);
        if !store_first {
            session_ops += 1;
            session_requests += report.requests;
            store_rung::replay(
                &mut tracer,
                &bench.server,
                &bench.dep.groups,
                script,
                Some(session),
                op_id,
                &store_rung::REPLAY,
            );
        }
        op_id += 1;
    }
    let ladder_s = ladder_start.elapsed().as_secs_f64();

    out.attempted = base_tally.ops + tally.ops;
    out.failed = base_tally.failed + tally.failed;
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (hit, fault, cursor) = (get(first.fetch), get(first.fault), get(first.cursor));
    let fetches = (hit.spans + fault.spans).max(1) as f64;
    let store_per_op = (hit.ns + fault.ns + cursor.ns) as f64 / first_ops.max(1) as f64;
    let session_per_op = get("server.session").ns as f64 / session_ops.max(1) as f64;
    let requests_per_op = session_requests as f64 / session_ops.max(1) as f64;
    out.tree_check(&[tracer.self_totals("server.session")]);
    out.set(
        "crypto.hmac_token_ns",
        hmac_token_ns(&bench.server, &s.caller),
    );
    out.set("store.fetch_us", (hit.ns + fault.ns) as f64 / fetches / 1e3);
    out.set("store.fetch_hit_us", hit.ns_per_span() / 1e3);
    out.set("store.fetch_fault_us", fault.ns_per_span() / 1e3);
    out.set("store.fetch_share", store_per_op / session_per_op.max(1.0));
    out.set(
        "protocol.server_self_us",
        (session_per_op - store_per_op) / requests_per_op.max(1.0) / 1e3,
    );
    layer_counts(out, &base_stats, base_tally.ops);
    out.set(
        "protocol.open_cursors_after",
        bench.server.open_cursors() as f64,
    );
    out.finish_trace(opts, &tracer, ops_per_s(&base.callers), ladder_s, op_id);
}
