//! Network and presentation model for the bandwidth analysis of Section 6.6,
//! plus the thread-pool load generator that drives the index server for the
//! serving-engine throughput experiments.
//!
//! The paper's intranet setup: "users connect over a mobile device with a
//! 56 Kb/s modem, while servers use 100 Mb/s LAN connections"; document
//! snippets are delivered as XML, "on average, each snippet contains about
//! 250 B including XML formatting"; Google/Altavista/Yahoo top-10 responses
//! are quoted at 15 KB / 37 KB / 59 KB for comparison.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use zerber_corpus::{GroupId, TermId};
use zerber_crypto::GroupKeys;
use zerber_r::RetrievalConfig;

use crate::acl::AuthToken;
use crate::client::Client;
use crate::error::ProtocolError;
use crate::message::QueryRequest;
use crate::server::IndexServer;

/// Average size of one result snippet including XML framing (bytes).
pub const SNIPPET_BYTES: usize = 250;
/// Google's top-10 response size quoted in the paper (bytes).
pub const GOOGLE_TOP10_BYTES: usize = 15 * 1024;
/// Altavista's top-10 response size quoted in the paper (bytes).
pub const ALTAVISTA_TOP10_BYTES: usize = 37 * 1024;
/// Yahoo's top-10 response size quoted in the paper (bytes).
pub const YAHOO_TOP10_BYTES: usize = 59 * 1024;
/// The 64-bit posting-element encoding assumed by the paper's arithmetic.
pub const PAPER_POSTING_BITS: usize = 64;

/// Link and latency parameters of the simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Downstream bandwidth of the client link in bits per second.
    pub client_down_bps: f64,
    /// Upstream bandwidth of the client link in bits per second.
    pub client_up_bps: f64,
    /// Server LAN bandwidth in bits per second.
    pub server_bps: f64,
    /// Round-trip time between client and server in seconds.
    pub rtt_seconds: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::paper_intranet()
    }
}

impl NetworkModel {
    /// The setup of Section 6.6: 56 Kb/s modem client, 100 Mb/s LAN server,
    /// a GPRS-ish 300 ms round trip.
    pub fn paper_intranet() -> Self {
        NetworkModel {
            client_down_bps: 56_000.0,
            client_up_bps: 33_600.0,
            server_bps: 100_000_000.0,
            rtt_seconds: 0.3,
        }
    }

    /// Seconds needed to move `bytes` over a link of `bps` bits per second.
    pub fn transfer_seconds(bytes: usize, bps: f64) -> f64 {
        if bps <= 0.0 {
            return f64::INFINITY;
        }
        (bytes as f64) * 8.0 / bps
    }

    /// Client-perceived latency of a query exchange: one round trip per
    /// request plus upstream request bytes plus downstream response bytes.
    pub fn query_latency_seconds(
        &self,
        requests: usize,
        bytes_sent: usize,
        bytes_received: usize,
    ) -> f64 {
        self.rtt_seconds * requests as f64
            + Self::transfer_seconds(bytes_sent, self.client_up_bps)
            + Self::transfer_seconds(bytes_received, self.client_down_bps)
    }

    /// How many queries per second one server link can sustain given the
    /// average response size in bytes (the paper estimates ~750 queries/s for
    /// its ODP workload).
    pub fn server_queries_per_second(&self, avg_response_bytes: f64) -> f64 {
        if avg_response_bytes <= 0.0 {
            return f64::INFINITY;
        }
        self.server_bps / (avg_response_bytes * 8.0)
    }
}

/// Breakdown of a complete top-k answer delivered to the user, following the
/// accounting of Section 6.6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseBreakdown {
    /// Bytes of encrypted posting elements shipped for the query.
    pub posting_bytes: usize,
    /// Bytes of result snippets for the final top-k documents.
    pub snippet_bytes: usize,
}

impl ResponseBreakdown {
    /// Builds the breakdown from element count, per-element wire size and k.
    pub fn new(elements: usize, bytes_per_element: usize, k: usize) -> Self {
        ResponseBreakdown {
            posting_bytes: elements * bytes_per_element,
            snippet_bytes: k * SNIPPET_BYTES,
        }
    }

    /// Breakdown using the paper's 64-bit element encoding.
    pub fn with_paper_elements(elements: usize, k: usize) -> Self {
        Self::new(elements, PAPER_POSTING_BITS / 8, k)
    }

    /// Total response size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.posting_bytes + self.snippet_bytes
    }

    /// Ratio of this response to a competitor's quoted top-10 size.
    pub fn ratio_to(&self, competitor_bytes: usize) -> f64 {
        if competitor_bytes == 0 {
            return f64::INFINITY;
        }
        self.total_bytes() as f64 / competitor_bytes as f64
    }
}

/// Configuration of one load-generation run against an [`IndexServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadConfig {
    /// Number of worker threads in the pool.
    pub threads: usize,
    /// Queries each worker issues.
    pub queries_per_thread: usize,
    /// The `k` of every query (also used as the initial response size `b`).
    pub k: usize,
}

impl LoadConfig {
    /// A load of `threads` workers with paper-default `k = b = 10`.
    pub fn for_threads(threads: usize) -> Self {
        LoadConfig {
            threads: threads.max(1),
            queries_per_thread: 100,
            k: 10,
        }
    }
}

/// Aggregate outcome of one load-generation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Worker threads used.
    pub threads: usize,
    /// Total queries completed across all workers.
    pub queries: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_seconds: f64,
    /// Wall-clock seconds the scheduler spent blocked waiting for
    /// submissions (0 for the per-query drivers, which have no scheduler).
    /// Producer-bound pipelined runs rack this up without serving anything.
    pub scheduler_wait_seconds: f64,
    /// Completed queries per second of *serving* time — elapsed time minus
    /// the scheduler's idle wait, so a pipelined measurement reports how
    /// fast the server drains rounds, not how fast workers produce them.
    /// For the per-query drivers this is plain wall-clock throughput.
    pub queries_per_second: f64,
    /// Posting elements shipped by the server during the run.
    pub elements_sent: u64,
}

fn report(
    threads: usize,
    queries: u64,
    elapsed_seconds: f64,
    scheduler_wait_seconds: f64,
    elements_sent: u64,
) -> ThroughputReport {
    // The wait is a sub-measurement of the same clock interval, so it can
    // only exceed `elapsed` by timer noise; clamp rather than divide by a
    // negative sliver.
    let serving_seconds = (elapsed_seconds - scheduler_wait_seconds).max(0.0);
    ThroughputReport {
        threads,
        queries,
        elapsed_seconds,
        scheduler_wait_seconds,
        queries_per_second: if serving_seconds > 0.0 {
            queries as f64 / serving_seconds
        } else {
            f64::INFINITY
        },
        elements_sent,
    }
}

/// Drives raw ranged queries against the server from a pool of
/// `config.threads` worker threads, measuring server-side serving throughput
/// (no client-side decryption).  Every worker authenticates as one of
/// `users` (which must be registered in the server's ACL) and rotates
/// through `lists`.
pub fn drive_raw_queries(
    server: &IndexServer,
    users: &[String],
    lists: &[u64],
    config: &LoadConfig,
) -> Result<ThroughputReport, ProtocolError> {
    if users.is_empty() || lists.is_empty() {
        return Err(ProtocolError::InvalidRequest(
            "load generation needs at least one user and one list".into(),
        ));
    }
    let elements_before = server.stats().elements_sent;
    let start = Instant::now();
    let queries: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|w| {
                scope.spawn(move || -> Result<u64, ProtocolError> {
                    let user = &users[w % users.len()];
                    let token = server.acl().issue_token(user);
                    let mut served = 0u64;
                    for i in 0..config.queries_per_thread {
                        // Unit stride with a per-worker offset: every worker
                        // cycles through all lists regardless of their count
                        // (a fixed non-unit stride degenerates whenever it
                        // divides `lists.len()`).
                        let list = lists[(w.wrapping_mul(31) + i) % lists.len()];
                        let request = QueryRequest {
                            user: user.clone(),
                            list,
                            offset: 0,
                            cursor: 0,
                            count: config.k as u32,
                            k: config.k as u32,
                        };
                        let response = server.handle_query(&request, &token)?;
                        server.close_cursor(response.cursor, user);
                        served += 1;
                    }
                    Ok(served)
                })
            })
            .collect();
        workers
            .into_iter()
            // analyze::allow(panic): join fails only if the worker already
            // panicked; re-panicking the load harness preserves that bug
            // instead of reporting a bogus throughput number
            .map(|w| w.join().expect("load worker must not panic"))
            .sum::<Result<u64, ProtocolError>>()
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let elements = server.stats().elements_sent - elements_before;
    Ok(report(config.threads, queries, elapsed, 0.0, elements))
}

/// Configuration of one pipelined load-generation run: worker threads
/// enqueue initial requests into a bounded submission queue and a scheduler
/// thread drains it in rounds of up to `batch_size` requests, serving each
/// round through [`IndexServer::handle_query_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Submitting worker threads.
    pub workers: usize,
    /// Queries each worker submits.
    pub queries_per_worker: usize,
    /// Maximum requests the scheduler drains per round (1 = no batching:
    /// every request is its own round, reproducing the per-query path).
    pub batch_size: usize,
    /// Capacity of the bounded submission queue; workers block when full so
    /// the scheduler can never fall arbitrarily behind.
    pub queue_capacity: usize,
    /// The `k` of every query (also the response size `b`).
    pub k: usize,
}

impl PipelineConfig {
    /// A 240-query pipelined load at the given batch size with paper-default
    /// `k = b = 10`.  The queue holds several rounds so workers run ahead of
    /// the scheduler instead of handing off once per request.
    pub fn for_batch(batch_size: usize) -> Self {
        let batch_size = batch_size.max(1);
        PipelineConfig {
            workers: 4,
            queries_per_worker: 60,
            batch_size,
            queue_capacity: (4 * batch_size).max(64),
            k: 10,
        }
    }
}

/// The bounded submission queue shared by the pipeline's workers and its
/// scheduler thread.
struct Submissions {
    items: VecDeque<(QueryRequest, AuthToken)>,
    /// Workers still producing; the scheduler drains until this hits zero
    /// and the queue is empty.
    producers: usize,
    /// Set when the scheduler aborts on a serving error, so blocked workers
    /// stop submitting into a queue nobody drains.
    aborted: bool,
}

/// Decrements the producer count when a pipeline worker exits — including
/// by panic — so the scheduler can never wait forever on a producer that
/// died between submissions.
struct ProducerExit<'a> {
    queue: &'a Mutex<Submissions>,
    not_empty: &'a Condvar,
}

impl Drop for ProducerExit<'_> {
    fn drop(&mut self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.producers -= 1;
        if q.producers == 0 {
            // Wake the scheduler so it can observe the shutdown.
            self.not_empty.notify_all();
        }
    }
}

/// Drives raw ranged queries through the **pipelined** serving path: workers
/// enqueue initial requests (rotating through `users` and `lists` exactly
/// like [`drive_raw_queries`]) into a bounded submission queue; a scheduler
/// thread drains the queue in rounds of up to `batch_size` requests and
/// serves each round through [`IndexServer::handle_query_stream`], so locks,
/// authentication and shard routing amortize across the whole cross-user
/// request stream.  With `batch_size = 1` every request is its own round and
/// the measurement degenerates to the per-query serving path.
pub fn drive_pipelined_queries(
    server: &IndexServer,
    users: &[String],
    lists: &[u64],
    config: &PipelineConfig,
) -> Result<ThroughputReport, ProtocolError> {
    if users.is_empty() || lists.is_empty() {
        return Err(ProtocolError::InvalidRequest(
            "load generation needs at least one user and one list".into(),
        ));
    }
    let workers = config.workers.max(1);
    let batch_size = config.batch_size.max(1);
    let capacity = config.queue_capacity.max(1);
    let queue = Mutex::new(Submissions {
        items: VecDeque::with_capacity(capacity),
        producers: workers,
        aborted: false,
    });
    let not_empty = Condvar::new();
    let not_full = Condvar::new();
    let elements_before = server.stats().elements_sent;
    let start = Instant::now();
    let served: (u64, f64) = std::thread::scope(|scope| {
        for w in 0..workers {
            let queue = &queue;
            let not_empty = &not_empty;
            let not_full = &not_full;
            scope.spawn(move || {
                let _exit = ProducerExit { queue, not_empty };
                let user = &users[w % users.len()];
                let token = server.acl().issue_token(user);
                for i in 0..config.queries_per_worker {
                    // Unit stride with a per-worker offset, matching the
                    // raw driver's workload shape.
                    let list = lists[(w.wrapping_mul(31) + i) % lists.len()];
                    let request = QueryRequest {
                        user: user.clone(),
                        list,
                        offset: 0,
                        cursor: 0,
                        count: config.k as u32,
                        k: config.k as u32,
                    };
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    while q.items.len() >= capacity && !q.aborted {
                        q = not_full.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    if q.aborted {
                        break;
                    }
                    q.items.push_back((request, token.clone()));
                    drop(q);
                    not_empty.notify_one();
                }
            });
        }
        let scheduler = scope.spawn(|| -> Result<(u64, f64), ProtocolError> {
            let mut served = 0u64;
            let mut waited = std::time::Duration::ZERO;
            // The scheduler swaps the whole queue into a local backlog in
            // one gulp (one lock + one wake-up per queue-full of requests,
            // whatever the batch size) and slices the backlog into rounds
            // of `batch_size` locally.
            let mut backlog: VecDeque<(QueryRequest, AuthToken)> = VecDeque::new();
            let mut round: Vec<(QueryRequest, AuthToken)> = Vec::with_capacity(batch_size);
            loop {
                if backlog.is_empty() {
                    {
                        let refill = Instant::now();
                        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                        // Also bail on `aborted`: if anything flags the run
                        // as dead while we sit here, producers stop
                        // submitting and this wait would never end.
                        while q.items.is_empty() && q.producers > 0 && !q.aborted {
                            q = not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
                        }
                        waited += refill.elapsed();
                        if q.aborted || q.items.is_empty() {
                            return Ok((served, waited.as_secs_f64()));
                        }
                        std::mem::swap(&mut q.items, &mut backlog);
                    }
                    not_full.notify_all();
                }
                let take = backlog.len().min(batch_size);
                round.extend(backlog.drain(..take));
                let results = server.handle_query_stream(&round);
                for (result, (request, _)) in results.into_iter().zip(&round) {
                    match result {
                        Ok(response) => {
                            server.close_cursor(response.cursor, &request.user);
                            served += 1;
                        }
                        Err(e) => {
                            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                            q.aborted = true;
                            drop(q);
                            not_full.notify_all();
                            return Err(e);
                        }
                    }
                }
                round.clear();
            }
        });
        // analyze::allow(panic): join fails only if the scheduler already
        // panicked; re-panicking the load harness preserves that bug
        scheduler.join().expect("scheduler must not panic")
    })?;
    let (served, waited) = served;
    let elapsed = start.elapsed().as_secs_f64();
    let elements = server.stats().elements_sent - elements_before;
    Ok(report(workers, served, elapsed, waited, elements))
}

/// Drives complete client-side retrievals (decryption included) from a pool
/// of worker threads.  Worker `w` authenticates as `users[w % len]` with the
/// shared `keyring` and executes top-k queries over `terms` via the full
/// follow-up protocol.
pub fn drive_client_queries(
    server: &IndexServer,
    plan: &zerber_base::MergePlan,
    users: &[String],
    keyring: &HashMap<GroupId, GroupKeys>,
    terms: &[TermId],
    config: &LoadConfig,
) -> Result<ThroughputReport, ProtocolError> {
    if users.is_empty() || terms.is_empty() {
        return Err(ProtocolError::InvalidRequest(
            "load generation needs at least one user and one term".into(),
        ));
    }
    let elements_before = server.stats().elements_sent;
    let start = Instant::now();
    let queries: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.threads)
            .map(|w| {
                scope.spawn(move || -> Result<u64, ProtocolError> {
                    let user = &users[w % users.len()];
                    let token = server.acl().issue_token(user);
                    let client = Client::new(user.clone(), token, keyring.clone());
                    let retrieval = RetrievalConfig::for_k(config.k);
                    let mut served = 0u64;
                    for i in 0..config.queries_per_thread {
                        let term = terms[(w.wrapping_mul(31) + i) % terms.len()];
                        client.query(server, plan, term, &retrieval)?;
                        served += 1;
                    }
                    Ok(served)
                })
            })
            .collect();
        workers
            .into_iter()
            // analyze::allow(panic): join fails only if the worker already
            // panicked; re-panicking the load harness preserves that bug
            // instead of reporting a bogus throughput number
            .map(|w| w.join().expect("load worker must not panic"))
            .sum::<Result<u64, ProtocolError>>()
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let elements = server.stats().elements_sent - elements_before;
    Ok(report(config.threads, queries, elapsed, 0.0, elements))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arithmetic_for_85_elements_reproduces_0_7_kb() {
        // Section 6.6: "about 85 posting elements are returned ... per query
        // term on average. Assuming that each posting element is encoded
        // using 64 bits, this is approximately 5.3 Kb (0.7 KB)".
        let breakdown = ResponseBreakdown::with_paper_elements(85, 0);
        assert_eq!(breakdown.posting_bytes, 85 * 8);
        assert!((breakdown.posting_bytes as f64 / 1024.0 - 0.66).abs() < 0.05);
    }

    #[test]
    fn top_10_with_snippets_is_about_3_5_kb_per_paper() {
        // 2.4 terms per query * ~0.7 KB postings + 2.5 KB snippets; the paper
        // rounds the sum to "about 3.5 KB" (the exact arithmetic gives ~4 KB).
        let per_term = ResponseBreakdown::with_paper_elements(85, 0).posting_bytes;
        let total = (2.4 * per_term as f64) + (10 * SNIPPET_BYTES) as f64;
        assert!(
            (total / 1024.0 - 3.5).abs() < 0.75,
            "total {} KB",
            total / 1024.0
        );
        // And it is far below the quoted competitor responses.
        assert!(total < GOOGLE_TOP10_BYTES as f64);
        assert!(total < ALTAVISTA_TOP10_BYTES as f64);
        assert!(total < YAHOO_TOP10_BYTES as f64);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let t1 = NetworkModel::transfer_seconds(7_000, 56_000.0);
        let t2 = NetworkModel::transfer_seconds(14_000, 56_000.0);
        assert!((t1 - 1.0).abs() < 1e-9);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
        assert!(NetworkModel::transfer_seconds(100, 0.0).is_infinite());
    }

    #[test]
    fn query_latency_accounts_for_round_trips() {
        let net = NetworkModel::paper_intranet();
        let one = net.query_latency_seconds(1, 30, 700);
        let two = net.query_latency_seconds(2, 60, 700);
        assert!(two > one);
        assert!(
            (two - one - 0.3 - NetworkModel::transfer_seconds(30, net.client_up_bps)).abs() < 1e-9
        );
    }

    #[test]
    fn server_capacity_is_in_the_papers_ballpark() {
        // ~0.7 KB * 2.4 terms ≈ 1.7 KB per query over a 100 Mb/s LAN gives
        // roughly 700-800 queries per second, matching the paper's ~750.
        let net = NetworkModel::paper_intranet();
        let per_query_bytes = 2.4 * 85.0 * 8.0 + 10.0 * SNIPPET_BYTES as f64;
        let qps = net.server_queries_per_second(per_query_bytes);
        assert!(qps > 2_000.0, "raw LAN capacity {qps}");
        // The paper's 750 q/s figure also accounts for processing; our model
        // exposes the bandwidth-only bound, which must be above it.
        assert!(qps > 750.0);
        assert!(net.server_queries_per_second(0.0).is_infinite());
    }

    #[test]
    fn breakdown_totals_and_ratios() {
        let b = ResponseBreakdown::new(30, 58, 10);
        assert_eq!(b.total_bytes(), 30 * 58 + 2_500);
        assert!(b.ratio_to(GOOGLE_TOP10_BYTES) < 1.0);
        assert!(b.ratio_to(0).is_infinite());
    }

    #[test]
    fn default_model_is_the_paper_intranet() {
        assert_eq!(NetworkModel::default(), NetworkModel::paper_intranet());
    }
}
