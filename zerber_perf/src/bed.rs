//! What every workload shares: the fixed deployment, the benchmark-owned
//! directories, request scripts, the closed-loop phase driver and the
//! tallies the end-to-end metrics are derived from.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use zerber_corpus::{DatasetProfile, GroupId, TermId};
use zerber_protocol::{
    AccessControl, AuthToken, Client, IndexServer, ProtocolError, QueryRequest, QueryResponse,
    ServerStats, WireElement,
};
use zerber_r::{OrderedElement, RetrievalConfig};
use zerber_workload::{QueryLog, QueryLogConfig, TestBed, TestBedConfig};

use crate::samples::Samples;

/// Results wanted per query, and the initial response size (`b = k`).
pub const K: usize = 10;
/// Storage shards of every server the benchmark builds.
pub const SHARDS: usize = 8;
/// Seed of the corpus, the index and the query-log popularity ranking.  The
/// deployment is the same on every run; `--seed` decides the traffic.
const DEPLOYMENT_SEED: u64 = 42;

/// How big a run is.  Two sizes exist: the measured one and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Corpus scale relative to the paper's StudIP collection.
    pub scale: f64,
    /// Concrete queries materialized from the query log.
    pub pool_queries: usize,
    /// Distinct query terms of the log.
    pub distinct_terms: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// `SpillStore::open` repeats; `store.recovery_s` is their median.
    pub recovery_repeats: usize,
    /// Inserts streamed to the replica as WAL frames.
    pub replica_tail_inserts: usize,
    /// Pages each shard's page cache keeps on `serve_cold`.
    pub cold_cache_pages: usize,
    /// Stored postings at which `ingest_mixed` reads its size gauges: about
    /// half of what a run stores.
    pub gauge_postings: usize,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        scale: 0.25,
        pool_queries: 20_000,
        distinct_terms: 2_000,
        setup_repeats: 3,
        recovery_repeats: 5,
        replica_tail_inserts: 500,
        cold_cache_pages: 16,
        gauge_postings: 8_000,
    };
    pub const SMOKE: Sizing = Sizing {
        scale: 0.02,
        pool_queries: 400,
        distinct_terms: 200,
        setup_repeats: 1,
        recovery_repeats: 2,
        replica_tail_inserts: 100,
        cold_cache_pages: 2,
        gauge_postings: 100,
    };
}

/// The corpus, its indexes and the query log, built the same way every run.
pub struct Deployment {
    pub bed: TestBed,
    pub log: QueryLog,
    pub groups: Vec<GroupId>,
    pub config: RetrievalConfig,
}

impl Deployment {
    pub fn build(sizing: &Sizing) -> Deployment {
        let bed = TestBed::build(TestBedConfig {
            scale: sizing.scale,
            seed: DEPLOYMENT_SEED,
            ..TestBedConfig::small(DatasetProfile::StudIp)
        })
        .expect("the StudIP test bed builds");
        let log = bed
            .query_log(&QueryLogConfig {
                distinct_terms: sizing.distinct_terms,
                sample_queries: sizing.pool_queries,
                seed: DEPLOYMENT_SEED,
                ..QueryLogConfig::default()
            })
            .expect("the query log generates");
        let groups = (0..bed.corpus.num_groups() as u32).map(GroupId).collect();
        Deployment {
            bed,
            log,
            groups,
            config: RetrievalConfig::for_k(K),
        }
    }

    /// The user directory: `callers` all-group members, named as
    /// `TestBed::build_segment_server` names its users.
    pub fn acl(&self, callers: usize) -> AccessControl {
        let mut acl = AccessControl::new(b"zerber-perf");
        for name in TestBed::server_users(callers) {
            acl.register_user(&name, &self.groups);
        }
        acl
    }

    /// Caller `i`'s client: an all-group member holding every group key.
    pub fn client(&self, server: &IndexServer, i: usize) -> Client {
        let Caller { user, token } = Caller::new(server, i);
        Client::new(user, token, self.bed.all_memberships.clone())
    }

    /// Every term occurrence of the pool, in pool order: drawing uniformly
    /// from it draws terms by query-log frequency.
    pub fn pool_terms(&self) -> Vec<TermId> {
        self.log
            .sampled_queries()
            .iter()
            .flatten()
            .copied()
            .collect()
    }
}

/// Callers of the closed loop: one per hardware thread.
pub fn callers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Benchmark-owned directories.
// ---------------------------------------------------------------------------

/// Where the benchmark may write: beside its own executable, which cargo
/// puts inside the target directory of the checkout.
fn output_base() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    exe.parent()
        .expect("an executable lives in a directory")
        .to_path_buf()
}

/// Path of the span file a traced run writes.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    output_base()
        .join("perf")
        .join(format!("trace-{workload}-{seed}.json"))
}

/// A directory removed when the guard drops: on success, on a failed check
/// and while a panic unwinds.
#[derive(Debug)]
pub struct DataRoot(PathBuf);

impl DataRoot {
    /// `<target>/<profile>/zerber-perf/<pid>-<label>`, created empty.
    pub fn create(label: &str) -> DataRoot {
        let dir = output_base()
            .join("zerber-perf")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the benchmark can create its data directory");
        DataRoot(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

/// Bytes of every regular file below `dir`.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Drop for DataRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// Request scripts: the server half of a query, with the client removed.
// ---------------------------------------------------------------------------

/// The requests of one query session and what the model says they return.
#[derive(Debug, Clone)]
pub struct Script {
    pub list: u64,
    /// Size of each request, in order.
    pub counts: Vec<u32>,
    /// Checksum of the elements `OrderedIndex::fetch` returns for the script.
    pub checksum: u64,
}

/// Order-sensitive checksum of served elements: TRS, group, ciphertext
/// length and the first eight ciphertext bytes of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0x9e37_79b9_7f4a_7c15)
    }
}

impl Checksum {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(29);
    }

    fn element(&mut self, trs: f64, group: GroupId, ciphertext: &[u8]) {
        let mut head = [0u8; 8];
        let n = ciphertext.len().min(8);
        head[..n].copy_from_slice(&ciphertext[..n]);
        self.mix(trs.to_bits());
        self.mix(u64::from(group.0) << 32 | ciphertext.len() as u64);
        self.mix(u64::from_le_bytes(head));
    }

    pub fn wire(&mut self, e: &WireElement) {
        self.element(e.trs, e.group, &e.ciphertext);
    }

    pub fn stored(&mut self, e: &OrderedElement) {
        self.element(e.trs, e.group, &e.sealed.ciphertext);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

pub fn checksum_responses(responses: &[QueryResponse]) -> u64 {
    let mut sum = Checksum::default();
    for e in responses.iter().flat_map(|r| &r.elements) {
        sum.wire(e);
    }
    sum.value()
}

impl Script {
    /// Runs `term` once through the full client and records what it asked
    /// the server: the round count comes from the outcome, the request sizes
    /// from the retrieval configuration, the expected answer from the model
    /// index.
    pub fn record(
        dep: &Deployment,
        client: &Client,
        server: &IndexServer,
        term: TermId,
    ) -> Result<Script, ProtocolError> {
        let outcome = client.query(server, &dep.bed.plan, term, &dep.config)?;
        let list = dep
            .bed
            .plan
            .list_of(term)
            .map_err(|e| ProtocolError::InvalidRequest(e.to_string()))?;
        let counts: Vec<u32> = (0..outcome.requests)
            .map(|i| dep.config.request_size(i) as u32)
            .collect();
        let mut sum = Checksum::default();
        let mut offset = 0usize;
        for &count in &counts {
            let batch = dep
                .bed
                .index
                // The callers belong to every group: no filter.
                .fetch(list, offset, count as usize, None)
                .map_err(|e| ProtocolError::Core(e.to_string()))?;
            offset += batch.len();
            for e in batch {
                sum.stored(e);
            }
        }
        Ok(Script {
            list: list.0,
            counts,
            checksum: sum.value(),
        })
    }
}

/// One caller's identity at the server.
#[derive(Debug, Clone)]
pub struct Caller {
    pub user: String,
    pub token: AuthToken,
}

impl Caller {
    /// Caller `i` under the name `TestBed::server_users` gives it.
    pub fn new(server: &IndexServer, i: usize) -> Caller {
        let user = format!("user-{i}");
        let token = server.acl().issue_token(&user);
        Caller { user, token }
    }
}

/// Replays a script through `IndexServer::handle_query`, resuming the cursor
/// the way the client does, and closes the session.  Responses land in
/// `responses` (cleared first) so the caller can check them after timing.
pub fn run_session(
    server: &IndexServer,
    caller: &Caller,
    script: &Script,
    responses: &mut Vec<QueryResponse>,
) -> Result<(), ProtocolError> {
    responses.clear();
    let mut request = QueryRequest {
        user: caller.user.clone(),
        list: script.list,
        offset: 0,
        cursor: 0,
        count: 0,
        k: K as u32,
    };
    let mut result = Ok(());
    for &count in &script.counts {
        request.count = count;
        match server.handle_query(&request, &caller.token) {
            Ok(response) => {
                request.offset += response.elements.len() as u64;
                request.cursor = response.cursor;
                responses.push(response);
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    if request.cursor != 0 {
        server.close_cursor(request.cursor, &caller.user);
    }
    result
}

/// Wire bytes of a finished session: `(sent, received)`.
pub fn session_bytes(caller: &Caller, script: &Script, responses: &[QueryResponse]) -> (u64, u64) {
    let request = QueryRequest {
        user: caller.user.clone(),
        list: script.list,
        offset: 0,
        cursor: 0,
        count: 1,
        k: K as u32,
    };
    let sent = (request.encoded_bytes() * script.counts.len()) as u64;
    let received = responses.iter().map(|r| r.encoded_bytes() as u64).sum();
    (sent, received)
}

/// Whether a session's elements arrived in descending TRS order.
pub fn descending(responses: &[QueryResponse]) -> bool {
    let mut last = f64::INFINITY;
    responses.iter().flat_map(|r| &r.elements).all(|e| {
        let ok = e.trs <= last;
        last = e.trs;
        ok
    })
}

// ---------------------------------------------------------------------------
// Tallies and the closed-loop phase driver.
// ---------------------------------------------------------------------------

/// What one finished op reports besides its latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpReport {
    pub failed: bool,
    pub requests: u64,
    pub elements: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

/// Sums over the ops of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub requests: u64,
    pub elements: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl Tally {
    pub fn add(&mut self, op: &OpReport) {
        self.ops += 1;
        self.failed += u64::from(op.failed);
        self.requests += op.requests;
        self.elements += op.elements;
        self.bytes_sent += op.bytes_sent;
        self.bytes_received += op.bytes_received;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.requests += other.requests;
        self.elements += other.elements;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
    }

    pub fn per_op(&self, total: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total as f64 / self.ops as f64
        }
    }
}

/// What one caller did in one phase.
#[derive(Debug, Default)]
pub struct CallerPhase {
    /// Latency of every op, in nanoseconds.
    pub latencies: Vec<u64>,
    pub tally: Tally,
    /// From the caller's first op to the end of its last: the phase's
    /// duration plus the overhang of the op that was running when it ended.
    pub elapsed: Duration,
}

/// One phase of the closed loop.
#[derive(Debug)]
pub struct Phase {
    pub callers: Vec<CallerPhase>,
}

impl Phase {
    pub fn tally(&self) -> Tally {
        tally_of(&self.callers)
    }
}

pub fn tally_of(callers: &[CallerPhase]) -> Tally {
    let mut all = Tally::default();
    for c in callers {
        all.merge(&c.tally);
    }
    all
}

/// Ops per second of a set of callers: each caller's ops over its own
/// elapsed time, summed.
pub fn ops_per_s(callers: &[CallerPhase]) -> f64 {
    callers
        .iter()
        .map(|c| c.tally.ops as f64 / c.elapsed.as_secs_f64().max(f64::MIN_POSITIVE))
        .sum()
}

/// Every latency sample of a set of callers.
pub fn latencies(callers: &[CallerPhase]) -> Samples {
    let mut samples = Samples::default();
    for &ns in callers.iter().flat_map(|c| &c.latencies) {
        samples.push(ns);
    }
    samples
}

/// Runs a closed loop for `duration`: one thread per state, each sending its
/// next op only after the previous one returned.  `op` times the call
/// itself and returns `(latency_ns, report)`, so its output check stays
/// outside the latency sample.
pub fn run_phase<S: Send>(
    states: &mut [S],
    duration: Duration,
    op: impl Fn(&mut S) -> (u64, OpReport) + Sync,
) -> Phase {
    let barrier = Barrier::new(states.len());
    let op = &op;
    let barrier = &barrier;
    let callers: Vec<CallerPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut out = CallerPhase {
                        latencies: Vec::with_capacity(1 << 16),
                        ..CallerPhase::default()
                    };
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < duration {
                        let (ns, report) = op(state);
                        out.latencies.push(ns);
                        out.tally.add(&report);
                    }
                    out.elapsed = start.elapsed();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread panicked"))
            .collect()
    });
    Phase { callers }
}

/// Warm-up share of the measured duration; its results are discarded.
pub const WARMUP_SHARE: f64 = 0.05;

/// Warm-up, `reset_stats`, then the measured phase; returns the phase and
/// the server counters it moved.
pub fn warm_then_measure<S: Send>(
    server: &IndexServer,
    states: &mut [S],
    seconds: f64,
    op: impl Fn(&mut S) -> (u64, OpReport) + Sync,
) -> (Phase, ServerStats) {
    run_phase(states, Duration::from_secs_f64(seconds * WARMUP_SHARE), &op);
    server.reset_stats();
    let phase = run_phase(states, Duration::from_secs_f64(seconds), &op);
    (phase, server.stats())
}

/// A caller's cursor into its pre-generated picks; wraps if a phase outruns
/// the stream.
#[derive(Debug)]
pub struct Picks {
    picks: Vec<u32>,
    next: usize,
}

impl Picks {
    pub fn new(picks: Vec<u32>) -> Picks {
        assert!(!picks.is_empty(), "an op stream needs ops");
        Picks { picks, next: 0 }
    }

    pub fn next(&mut self) -> usize {
        let pick = self.picks[self.next % self.picks.len()];
        self.next += 1;
        pick as usize
    }
}

/// Picks generated per caller.  A caller that outruns them starts over,
/// which repeats traffic of the same distribution.
pub const PICKS_PER_CALLER: usize = 1 << 18;
