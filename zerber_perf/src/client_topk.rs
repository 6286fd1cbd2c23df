//! `client_topk`: the user-visible path.  Full `Client::query` (one-term
//! queries of the pool) and `Client::query_multi` (the rest) against a
//! Segment-engine server with everything resident — the only workload where
//! `crypto`, `zerber`, `index` and the client half of `protocol` do work.

use std::collections::HashMap;
use std::time::Instant;

use zerber_base::{EncryptedElement, MergedListId};
use zerber_corpus::{DocId, TermId};
use zerber_index::{Posting, ScoredDoc, TopK};
use zerber_protocol::{Client, ClientQueryOutcome, IndexServer, NetworkModel, QueryResponse};
use zerber_r::retrieve_topk;

use crate::bed::{
    ops_per_s, run_phase, run_session, warm_then_measure, Caller, Deployment, OpReport, Picks,
    Script, Tally, K, PICKS_PER_CALLER, SHARDS,
};
use crate::harness::{hmac_token_ns, layer_counts, timed_setups, Footprint, Options, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::store_rung;
use crate::stream::{self, StreamHash};

/// What the plaintext model says a one-term query may return.
///
/// The client keeps the first `K` postings of its term that it meets in
/// descending TRS order, so the answer is the term's top `K` *by TRS*.  Where
/// the RSTF is strictly increasing that is the plaintext top `K`; where it
/// saturates (many high scores all map to TRS 1.0) every choice among the
/// tied postings is a correct answer of the implemented protocol, and only
/// [`Expect::exact`] tells whether it is also the plaintext ranking.
struct Expect {
    /// `min(K, postings of the term)`.
    len: usize,
    /// Relevance of every posting whose TRS reaches the `len`-th best TRS.
    eligible: HashMap<DocId, f64>,
    /// The plaintext top-`K` score sequence.
    plain: Vec<f64>,
}

impl Expect {
    fn of(dep: &Deployment, term: TermId) -> Expect {
        let bed = &dep.bed;
        let postings = bed
            .plain_index
            .posting_list(term)
            .expect("query-log terms are indexed")
            .postings();
        let len = postings.len().min(K);
        let trs = |p: &Posting| bed.model.transform(term, p.doc, p.score);
        let eligible = if len == 0 {
            HashMap::new()
        } else if bed.model.rstf(term).is_some() {
            // A trained RSTF never decreases with the score, so the postings
            // that reach the threshold are a prefix of the score order.
            let threshold = trs(&postings[len - 1]);
            postings
                .iter()
                .enumerate()
                .take_while(|&(i, p)| i < len || trs(p) >= threshold)
                .map(|(_, p)| (p.doc, p.score))
                .collect()
        } else {
            // Unseen in training: the TRS is a hash of (term, doc).
            let mut all: Vec<f64> = postings.iter().map(trs).collect();
            all.sort_by(|a, b| b.total_cmp(a));
            let threshold = all[len - 1];
            postings
                .iter()
                .filter(|p| trs(p) >= threshold)
                .map(|p| (p.doc, p.score))
                .collect()
        };
        Expect {
            len,
            eligible,
            plain: postings[..len].iter().map(|p| p.score).collect(),
        }
    }

    /// `len` distinct eligible postings, each with its true relevance.
    fn holds(&self, results: &[(DocId, f64)]) -> bool {
        results.len() == self.len
            && results.iter().enumerate().all(|(i, (doc, relevance))| {
                self.eligible
                    .get(doc)
                    .is_some_and(|want| (relevance - want).abs() < 1e-9)
                    && results[..i].iter().all(|(earlier, _)| earlier != doc)
            })
    }

    /// Whether the results are also the plaintext ranking.
    fn exact(&self, results: &[(DocId, f64)]) -> bool {
        results.len() == self.plain.len()
            && results
                .iter()
                .zip(&self.plain)
                .all(|(got, want)| (got.1 - want).abs() < 1e-9)
    }
}

struct CallerState {
    client: Client,
    picks: Picks,
}

struct Bench {
    dep: Deployment,
    server: IndexServer,
    expect: HashMap<TermId, Expect>,
    stream_hash: u64,
}

impl Bench {
    fn set_up(opts: &Options) -> (Bench, Vec<CallerState>) {
        let dep = Deployment::build(&opts.sizing);
        let server = dep.bed.build_segment_server(SHARDS, opts.callers);
        let expect = dep
            .log
            .term_frequencies()
            .iter()
            .map(|&(term, _)| (term, Expect::of(&dep, term)))
            .collect();
        let pool_len = dep.log.sampled_queries().len();
        let mut hash = StreamHash::default();
        let callers = (0..opts.callers)
            .map(|i| {
                let picks = stream::picks(opts.seed, i as u64, pool_len, PICKS_PER_CALLER);
                hash.picks(&picks);
                CallerState {
                    client: dep.client(&server, i),
                    picks: Picks::new(picks),
                }
            })
            .collect();
        let bench = Bench {
            dep,
            server,
            expect,
            stream_hash: hash.value(),
        };
        (bench, callers)
    }

    fn term_holds(&self, term: TermId, outcome: &ClientQueryOutcome) -> bool {
        self.expect[&term].holds(&outcome.results)
    }

    /// The merged ranking must be what summing the per-term results gives.
    fn merged_holds(merged: &[(DocId, f64)], per_term: &[ClientQueryOutcome]) -> bool {
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        for &(doc, rel) in per_term.iter().flat_map(|o| &o.results) {
            *acc.entry(doc).or_insert(0.0) += rel;
        }
        let mut want: Vec<(DocId, f64)> = acc.into_iter().collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        want.truncate(K);
        merged.len() == want.len()
            && merged
                .iter()
                .zip(&want)
                .all(|(g, w)| g.0 == w.0 && (g.1 - w.1).abs() < 1e-9)
    }

    /// One client query, timed around the call alone; the check follows.
    fn op(&self, client: &Client, terms: &[TermId]) -> (u64, OpReport, Vec<ClientQueryOutcome>) {
        let plan = &self.dep.bed.plan;
        let start = Instant::now();
        let (ns, outcomes, ok) = if let [term] = terms {
            let result = client.query(&self.server, plan, *term, &self.dep.config);
            let ns = start.elapsed().as_nanos() as u64;
            match result {
                Ok(outcome) => (ns, vec![outcome], true),
                Err(_) => (ns, Vec::new(), false),
            }
        } else {
            let result = client.query_multi(&self.server, plan, terms, &self.dep.config);
            let ns = start.elapsed().as_nanos() as u64;
            match result {
                Ok((merged, per_term)) => {
                    let ok = Self::merged_holds(&merged, &per_term);
                    (ns, per_term, ok)
                }
                Err(_) => (ns, Vec::new(), false),
            }
        };
        let ok = ok
            && outcomes.len() == terms.len()
            && terms
                .iter()
                .zip(&outcomes)
                .all(|(&term, outcome)| self.term_holds(term, outcome));
        let mut report = OpReport {
            failed: !ok,
            ..OpReport::default()
        };
        for o in &outcomes {
            report.requests += o.requests as u64;
            report.elements += o.elements_received as u64;
            report.bytes_sent += o.bytes_sent as u64;
            report.bytes_received += o.bytes_received as u64;
        }
        (ns, report, outcomes)
    }
}

pub fn run(opts: &Options, out: &mut Outcome) {
    let built = timed_setups(opts, |_root| Bench::set_up(opts));
    out.setup_s = built.setup_s;
    let (bench, mut callers) = built.bench;
    out.note(format!("op stream hash {:016x}", bench.stream_hash));
    if opts.trace {
        callers.truncate(1);
        traced(&bench, &mut callers, opts, out);
    } else {
        let pool = bench.dep.log.sampled_queries();
        let (phase, stats) = warm_then_measure(&bench.server, &mut callers, opts.seconds, |s| {
            let (ns, report, _) = bench.op(&s.client, &pool[s.picks.next()]);
            (ns, report)
        });
        let all = 0..phase.callers.len();
        out.end_to_end(
            &phase,
            all.clone(),
            all,
            Footprint::read(&bench.server, built.root.path()),
        );
        out.note(format!(
            "server counters: {} requests, {} batches, {} page faults",
            stats.requests_served, stats.batches, stats.page_faults
        ));
    }
    out.require(
        bench.server.open_cursors() == 0,
        "open cursors after the run",
    );
}

/// Replays one term's requests as a `handle_query` session, child of
/// `parent`.  Returns the session's span, its script and the responses.
fn replay_server(
    bench: &Bench,
    tracer: &mut Tracer,
    caller: &Caller,
    parent: SpanId,
    op_id: u64,
    list: MergedListId,
    requests: usize,
) -> (SpanId, Script, Vec<QueryResponse>) {
    let script = Script {
        list: list.0,
        counts: (0..requests)
            .map(|i| bench.dep.config.request_size(i) as u32)
            .collect(),
        checksum: 0,
    };
    let mut responses = Vec::with_capacity(requests);
    let (session, _) = tracer.time("server.session", Some(parent), op_id, || {
        let _ = run_session(&bench.server, caller, &script, &mut responses);
        ((), script.counts.len() as u64)
    });
    (session, script, responses)
}

/// Replays the client's decrypt-and-filter over `responses`: opens elements
/// until `K` of them belong to `term`, exactly like `Client::query`, then
/// pushes the matches through `TopK`.  Returns `(opened, matched)`.
fn replay_client(
    bench: &Bench,
    tracer: &mut Tracer,
    parent: SpanId,
    op_id: u64,
    term: TermId,
    list: MergedListId,
    responses: &[QueryResponse],
) -> (u64, u64) {
    let keys = &bench.dep.bed.all_memberships;
    let mut matched: Vec<ScoredDoc> = Vec::with_capacity(K);
    let mut opened = 0u64;
    for response in responses {
        if matched.len() == K {
            break;
        }
        tracer.time("zerber.open_batch", Some(parent), op_id, || {
            let mut n = 0u64;
            for wire in &response.elements {
                let sealed = EncryptedElement {
                    group: wire.group,
                    ciphertext: wire.ciphertext.clone(),
                };
                let Ok(payload) = sealed.open(&keys[&wire.group], list) else {
                    continue;
                };
                n += 1;
                if payload.term == term {
                    matched.push(ScoredDoc::new(payload.doc, payload.relevance()));
                    if matched.len() == K {
                        break;
                    }
                }
            }
            opened += n;
            ((), n)
        });
    }
    let useful = matched.len() as u64;
    tracer.time("index.topk_push", Some(parent), op_id, || {
        let mut top = TopK::new(K);
        for entry in matched {
            top.push(entry);
        }
        (std::hint::black_box(top.len()), useful)
    });
    (opened, useful)
}

fn traced(bench: &Bench, state: &mut [CallerState], opts: &Options, out: &mut Outcome) {
    let caller = Caller::new(&bench.server, 0);
    let pool = bench.dep.log.sampled_queries();

    // Untraced single-caller baseline: clean server counters and the
    // throughput the ladder is compared with.
    bench.server.reset_stats();
    let base = run_phase(state, opts.baseline_duration(), |s| {
        let (ns, report, _) = bench.op(&s.client, &pool[s.picks.next()]);
        (ns, report)
    });
    let base_stats = bench.server.stats();
    let base_tally = base.tally();

    // The ladder: the real query, then its requests again through the
    // server, their store calls, the opens and the top-k pushes.
    let s = &mut state[0];
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let (mut opened, mut useful) = (0u64, 0u64);
    let (mut efficiency, mut exact, mut term_queries) = (0.0f64, 0u64, 0u64);
    // Not part of the tree: the same one-term query without server or wire
    // accounting, and without confidentiality at all.
    let mut beside = Tracer::default();
    let ladder_start = Instant::now();
    let mut op_id = 0u64;
    while ladder_start.elapsed() < opts.ladder_duration() {
        let terms = &pool[s.picks.next()];
        let start_ns = tracer.now_ns();
        let (ns, report, outcomes) = bench.op(&s.client, terms);
        let name = if terms.len() == 1 {
            "client.query"
        } else {
            "client.query_multi"
        };
        let parent = tracer.record_root(name, start_ns, ns, op_id, terms.len() as u64);
        tally.add(&report);
        for (&term, outcome) in terms.iter().zip(&outcomes) {
            let list = bench
                .dep
                .bed
                .plan
                .list_of(term)
                .expect("pool terms are planned");
            let (session, script, responses) = replay_server(
                bench,
                &mut tracer,
                &caller,
                parent,
                op_id,
                list,
                outcome.requests,
            );
            // The opens follow the responses directly, as in the client;
            // the session's store calls come last.
            let (o, u) = replay_client(bench, &mut tracer, parent, op_id, term, list, &responses);
            store_rung::replay(
                &mut tracer,
                &bench.server,
                &bench.dep.groups,
                &script,
                Some(session),
                op_id,
                &store_rung::REPLAY,
            );
            opened += o;
            useful += u;
            efficiency += outcome.efficiency(K);
            exact += u64::from(bench.expect[&term].exact(&outcome.results));
            term_queries += 1;
        }
        if let [term] = terms[..] {
            beside.time("zerber_r.retrieve_topk", None, op_id, || {
                let r = retrieve_topk(
                    &bench.dep.bed.index,
                    term,
                    &bench.dep.bed.all_memberships,
                    &bench.dep.config,
                );
                (std::hint::black_box(r.is_ok()), 1)
            });
            beside.time("index.plain_topk", None, op_id, || {
                let r = bench.dep.bed.plain_index.query_term(term, K);
                (std::hint::black_box(r.is_ok()), 1)
            });
        }
        op_id += 1;
    }
    let ladder_s = ladder_start.elapsed().as_secs_f64();

    out.attempted = base_tally.ops + tally.ops;
    out.failed = base_tally.failed + tally.failed;
    let (totals, beside) = (tracer.totals(), beside.totals());
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let single = tracer.self_totals("client.query");
    let multi = tracer.self_totals("client.query_multi");
    let sessions = tracer.self_totals("server.session");
    let ops = (single.parents + multi.parents).max(1) as f64;
    let requests = get("server.session").items.max(1) as f64;
    out.tree_check(&[single, multi]);
    out.set(
        "crypto.aead_open_ns",
        get("zerber.open_batch").ns_per_item(),
    );
    out.set(
        "crypto.hmac_token_ns",
        hmac_token_ns(&bench.server, &caller),
    );
    out.set("zerber.elements_opened_per_query", opened as f64 / ops);
    out.set(
        "zerber.useful_open_ratio",
        useful as f64 / opened.max(1) as f64,
    );
    out.set(
        "zerber_r.retrieve_topk_us",
        beside
            .get("zerber_r.retrieve_topk")
            .map_or(0.0, |t| t.ns_per_span())
            / 1e3,
    );
    out.set(
        "zerber_r.query_efficiency",
        efficiency / term_queries.max(1) as f64,
    );
    out.set(
        "zerber_r.exact_topk_ratio",
        exact as f64 / term_queries.max(1) as f64,
    );
    out.set("index.topk_push_ns", get("index.topk_push").ns_per_item());
    out.set(
        "index.plain_topk_us",
        beside
            .get("index.plain_topk")
            .map_or(0.0, |t| t.ns_per_span())
            / 1e3,
    );
    out.set("store.fetch_us", get("store.fetch").ns_per_span() / 1e3);
    out.set("store.fetch_hit_us", get("store.fetch").ns_per_span() / 1e3);
    out.set(
        "store.fetch_share",
        sessions.children_ns as f64 / sessions.duration_ns.max(1) as f64,
    );
    out.set(
        "protocol.server_self_us",
        (sessions.duration_ns as f64 - sessions.children_ns as f64) / requests / 1e3,
    );
    out.set(
        "protocol.client_self_us",
        ((single.duration_ns + multi.duration_ns) as f64
            - (single.children_ns + multi.children_ns) as f64)
            / ops
            / 1e3,
    );
    out.set(
        "protocol.client_single_us",
        get("client.query").ns_per_span() / 1e3,
    );
    out.set(
        "protocol.client_multi_us",
        get("client.query_multi").ns_per_span() / 1e3,
    );
    out.set(
        "protocol.modelled_56k_latency_ms",
        NetworkModel::paper_intranet().query_latency_seconds(
            base_tally.requests as usize,
            base_tally.bytes_sent as usize,
            base_tally.bytes_received as usize,
        ) / base_tally.ops.max(1) as f64
            * 1e3,
    );
    layer_counts(out, &base_stats, base_tally.ops);
    out.set(
        "protocol.open_cursors_after",
        bench.server.open_cursors() as f64,
    );
    out.finish_trace(opts, &tracer, ops_per_s(&base.callers), ladder_s, op_id);
}
