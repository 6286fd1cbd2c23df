//! `ingest_mixed`: writes beside reads on the durable engine.  One caller
//! inserts documents through `Client::insert_document`; the others replay
//! query sessions on the same server until the phase ends.  The only
//! workload that exercises WAL append/fsync, checkpoints, interior-insert
//! rebuilds, compaction, retiering — and, in the traced run, recovery and
//! replication.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use zerber_base::{EncryptedElement, MergedListId, PostingPayload};
use zerber_corpus::{DocId, GroupId};
use zerber_crypto::DeterministicRng;
use zerber_protocol::{Client, IndexServer, InsertRequest};
use zerber_r::OrderedElement;
use zerber_store::{
    DurableConfig, InProcessTransport, ListStore, Replica, ReplicaConfig, ReplicaTransport,
    ReplicationSource, SpillConfig, SpillStore, SyncPolicy,
};

use crate::bed::{
    descending, warm_then_measure, Caller, DataRoot, Deployment, OpReport, Picks, Tally,
    PICKS_PER_CALLER, SHARDS,
};
use crate::harness::{hmac_token_ns, layer_counts, timed_setups, Footprint, Options, Outcome};
use crate::samples::median;
use crate::serve::{session_op, Scripts, ServeCaller};
use crate::spans::{Span, Tracer};
use crate::stream::{self, DocOp, StreamHash, FIRST_INSERTED_DOC, POSTINGS_PER_DOC};

/// WAL fsync policy of the workload: the store's default, stated in the
/// output and the same on both sides of any comparison.
const SYNC: SyncPolicy = SyncPolicy::EveryN(32);
/// WAL bytes per shard that trigger an automatic checkpoint.  At this scale a
/// shard's page file reaches the compaction threshold about every 35 inserts
/// (3 KiB of WAL), and the compaction swap resets the WAL; the threshold
/// sits below that, so checkpoints of their own fire between the swaps.
const CHECKPOINT_WAL_BYTES: u64 = 2 << 10;
/// Documents generated per run; the writer reuses their content under new
/// document ids if it outruns them.
const DOCS: usize = 1 << 14;
/// Document ids of the ladder's sibling inserts and of the replica tail.
const SIBLING_DOC: u32 = FIRST_INSERTED_DOC + (1 << 28);
const TAIL_DOC: u32 = FIRST_INSERTED_DOC + (1 << 29);

/// One posting the store acknowledged: enough to find and open it again.
#[derive(Debug, Clone, Copy)]
struct Acked {
    payload: PostingPayload,
    group: GroupId,
}

/// The store's size once it has taken `Sizing::gauge_postings` postings.
/// Read at a fixed count, not at the end of the timed phase: a faster insert
/// path stores more in the same time and must not read as a bigger store.
#[derive(Debug, Clone, Copy)]
struct Gauge {
    footprint: Footprint,
    page_file_bytes: u64,
    dead_page_bytes: u64,
}

struct Writer {
    client: Client,
    docs: Vec<DocOp>,
    next: usize,
    acked: Vec<Acked>,
    /// Postings the traced run stored beside the writer's own: the ladder's
    /// sibling inserts.
    siblings: Vec<Acked>,
    gauge: Option<Gauge>,
}

fn postings(doc: DocId, op: &DocOp) -> impl Iterator<Item = Acked> + '_ {
    let doc_len: u32 = op.term_counts.iter().map(|&(_, tf)| tf).sum();
    op.term_counts.iter().map(move |&(term, tf)| Acked {
        payload: PostingPayload {
            term,
            doc,
            tf,
            doc_len,
        },
        group: op.group,
    })
}

/// One caller of the mixed phase.
enum State<'a> {
    Writer(&'a mut Writer),
    Reader(&'a mut ServeCaller),
}

struct Bench {
    dep: Deployment,
    /// `None` once the server was dropped for recovery.
    server: Option<IndexServer>,
    scripts: Scripts,
    dir: PathBuf,
    spill: SpillConfig,
    durable: DurableConfig,
    /// Wire bytes of one `InsertRequest` of the writer.
    insert_bytes: u64,
    gauge_postings: usize,
    stream_hash: u64,
}

impl Bench {
    fn set_up(opts: &Options, root: &DataRoot) -> (Bench, Writer, Vec<ServeCaller>) {
        let dep = Deployment::build(&opts.sizing);
        let spill = SpillConfig {
            resident_budget_bytes: dep.bed.index.stored_bytes() / 8 / SHARDS,
            page_cache_pages: 8,
            ..SpillConfig::default()
        };
        let durable = DurableConfig {
            sync: SYNC,
            checkpoint_wal_bytes: CHECKPOINT_WAL_BYTES,
        };
        let dir = root.path().join("primary");
        let store = SpillStore::create_durable(dep.bed.index.clone(), &dir, SHARDS, spill, durable)
            .expect("the durable store builds in the benchmark's directory");
        // One writer plus at least one reader, whatever the machine.
        let callers = opts.callers.max(2);
        let server = IndexServer::with_store(Box::new(store), dep.acl(callers));
        let scripts = Scripts::by_frequency(&dep, &server);
        let mut hash = StreamHash::default();
        let docs = stream::documents(
            opts.seed,
            0,
            &dep.pool_terms(),
            dep.groups.len() as u32,
            FIRST_INSERTED_DOC,
            DOCS,
        );
        hash.documents(&docs);
        let writer = Writer {
            client: dep.client(&server, 0),
            docs,
            next: 0,
            acked: Vec::new(),
            siblings: Vec::new(),
            gauge: None,
        };
        let insert_bytes = InsertRequest {
            user: writer.client.user().to_string(),
            list: 0,
            group: GroupId(0),
            trs: 0.0,
            ciphertext: vec![0; zerber_base::SEALED_PAYLOAD_BYTES],
        }
        .encoded_bytes() as u64;
        let readers = (1..callers)
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
            server: Some(server),
            scripts,
            dir,
            spill,
            durable,
            insert_bytes,
            gauge_postings: opts.sizing.gauge_postings,
            stream_hash: hash.value(),
        };
        (bench, writer, readers)
    }

    fn server(&self) -> &IndexServer {
        self.server.as_ref().expect("the server is still up")
    }

    /// One document insert, timed around `Client::insert_document` alone.
    fn insert_op(&self, w: &mut Writer) -> (u64, OpReport) {
        let bed = &self.dep.bed;
        let server = self.server();
        // Stream content under a fresh document id.
        let doc = DocId(FIRST_INSERTED_DOC + w.next as u32);
        let op = &w.docs[w.next % w.docs.len()];
        w.next += 1;
        let start = Instant::now();
        let inserted = w.client.insert_document(
            server,
            &bed.plan,
            &bed.model,
            doc,
            op.group,
            &op.term_counts,
        );
        let ns = start.elapsed().as_nanos() as u64;
        let ok = matches!(inserted, Ok(n) if n == op.term_counts.len());
        if ok {
            w.acked.extend(postings(doc, op));
        }
        let n = op.term_counts.len() as u64;
        let report = OpReport {
            failed: !ok,
            requests: n,
            elements: n,
            bytes_sent: n * self.insert_bytes,
            bytes_received: 0,
        };
        self.gauge_when_due(w);
        (ns, report)
    }

    fn read_gauge(&self) -> Gauge {
        let stats = self.server().stats();
        Gauge {
            footprint: Footprint::read(self.server(), &self.dir),
            page_file_bytes: stats.page_file_bytes,
            dead_page_bytes: stats.dead_page_bytes,
        }
    }

    fn gauge_when_due(&self, w: &mut Writer) {
        if w.gauge.is_none() && w.acked.len() + w.siblings.len() >= self.gauge_postings {
            w.gauge = Some(self.read_gauge());
        }
    }

    /// The gauge; when the phase ended before it was due, the writer goes on
    /// inserting, untimed, until it is.
    fn gauge_after(&self, w: &mut Writer, tally: &mut Tally) -> Gauge {
        loop {
            if let Some(gauge) = w.gauge {
                return gauge;
            }
            let (_, report) = self.insert_op(w);
            tally.add(&report);
            if report.failed {
                // The run is incorrect already; do not insert forever.
                w.gauge = Some(self.read_gauge());
            }
        }
    }

    /// A reader's session beside the writer.  The lists move under it, so
    /// the check is the order of what came back, not a fixed checksum.
    fn read_op(&self, s: &mut ServeCaller) -> (u64, OpReport) {
        let script = self.scripts.pick(s.picks.next());
        session_op(self.server(), s, script, descending)
    }

    fn op(&self, state: &mut State) -> (u64, OpReport) {
        match state {
            State::Writer(w) => self.insert_op(w),
            State::Reader(s) => self.read_op(s),
        }
    }

    /// The TRS the inserting client computed for a posting.
    fn trs(&self, p: &PostingPayload) -> f64 {
        self.dep.bed.model.transform(p.term, p.doc, p.relevance())
    }

    /// Acknowledged postings that cannot be found and opened in `store`.
    fn unreadable(&self, store: &dyn ListStore, acked: &[Acked]) -> u64 {
        let bed = &self.dep.bed;
        let mut by_list: HashMap<MergedListId, Vec<&Acked>> = HashMap::new();
        for a in acked {
            if let Ok(list) = bed.plan.list_of(a.payload.term) {
                by_list.entry(list).or_default().push(a);
            }
        }
        let mut missing = 0u64;
        for (list, wanted) in by_list {
            let Ok(elements) = store.snapshot_list(list) else {
                missing += wanted.len() as u64;
                continue;
            };
            for a in wanted {
                let trs = self.trs(&a.payload);
                // Lists are in descending TRS order.
                let from = elements.partition_point(|e| e.trs > trs);
                let found = elements[from..]
                    .iter()
                    .take_while(|e| e.trs == trs)
                    .filter(|e| e.group == a.group)
                    .any(|e| {
                        let keys = &bed.all_memberships[&a.group];
                        e.sealed.open(keys, list).is_ok_and(|p| p == a.payload)
                    });
                missing += u64::from(!found);
            }
        }
        missing
    }

    fn reopen(&self) -> SpillStore {
        SpillStore::open(&self.dir, self.spill, self.durable)
            .expect("the durable store reopens from its directory")
    }

    /// Reopens with every WAL-resetting pass off (compaction, retiering,
    /// automatic checkpoints), so a WAL tail streams to a replica whole
    /// instead of ending in a re-snapshot.
    fn reopen_quiet(&self) -> SpillStore {
        let durable = DurableConfig {
            checkpoint_wal_bytes: 0,
            ..self.durable
        };
        SpillStore::open(&self.dir, self.spill.without_tiering(), durable)
            .expect("the durable store reopens from its directory")
    }
}

pub fn run(opts: &Options, out: &mut Outcome) {
    let built = timed_setups(opts, |root| Bench::set_up(opts, root));
    out.setup_s = built.setup_s;
    let (mut bench, mut writer, mut readers) = built.bench;
    out.note(format!(
        "op stream hash {:016x}; WAL sync {SYNC:?}, checkpoint every {CHECKPOINT_WAL_BYTES} WAL bytes per shard",
        bench.stream_hash
    ));
    if opts.trace {
        traced(&mut bench, &mut writer, &built.root, opts, out);
        return;
    }
    // The writer is caller 0.
    let mut states: Vec<State> = std::iter::once(State::Writer(&mut writer))
        .chain(readers.iter_mut().map(State::Reader))
        .collect();
    let (phase, stats) =
        warm_then_measure(bench.server(), &mut states, opts.seconds, |s| bench.op(s));
    drop(states);
    let mut after = Tally::default();
    let gauge = bench.gauge_after(&mut writer, &mut after);
    out.attempted += after.ops;
    out.failed += after.failed;
    out.note(format!(
        "size gauges read at {} stored postings ({} inserts after the phase to get there)",
        bench.gauge_postings, after.ops
    ));
    // The writer's inserts are the ops; the other callers' sessions the reads.
    out.end_to_end(&phase, 0..1, 1..phase.callers.len(), gauge.footprint);
    out.note(format!(
        "server counters: {} inserts, {} read requests, {} WAL appends, {} compactions, {} page faults",
        stats.inserts_accepted,
        stats.requests_served,
        stats.wal_appends,
        stats.compactions,
        stats.page_faults
    ));
    out.require(
        bench.server().store().verify_ordering(),
        "lists stay in TRS order",
    );
    out.require(
        bench.server().open_cursors() == 0,
        "open cursors after the run",
    );
    // Every acknowledged insert must be readable after a reopen.
    bench.server = None;
    let reopened = bench.reopen();
    let unreadable = bench.unreadable(&reopened, &writer.acked);
    out.failed += unreadable.div_ceil(POSTINGS_PER_DOC as u64);
    out.require(
        reopened.verify_ordering(),
        "reopened lists stay in TRS order",
    );
}

/// Lengths of the shards' WAL files.  Every manifest commit — an automatic
/// checkpoint or the swap that ends a compaction — resets its shard's WAL,
/// so a length that went down between two looks is one commit.  The store
/// counts its compactions; the other commits are the automatic checkpoints.
fn wal_lengths(dir: &Path) -> Vec<u64> {
    (0..SHARDS)
        .map(|shard| {
            std::fs::metadata(dir.join(format!("shard-{shard:03}.wal"))).map_or(0, |m| m.len())
        })
        .collect()
}

fn count_wal_resets(dir: &Path, last: &mut Vec<u64>) -> u64 {
    let now = wal_lengths(dir);
    let shrunk = now.iter().zip(last.iter()).filter(|(n, l)| n < l).count() as u64;
    *last = now;
    shrunk
}

/// Seals a posting for its merged list, as the inserting client does.
fn seal(bench: &Bench, rng: &mut DeterministicRng, a: &Acked) -> (MergedListId, EncryptedElement) {
    let bed = &bench.dep.bed;
    let list = bed
        .plan
        .list_of(a.payload.term)
        .expect("pool terms are planned");
    let keys = &bed.all_memberships[&a.group];
    let sealed = EncryptedElement::seal(&a.payload, a.group, keys, list, rng)
        .expect("a 16-byte payload seals");
    (list, sealed)
}

fn traced(
    bench: &mut Bench,
    writer: &mut Writer,
    root: &DataRoot,
    opts: &Options,
    out: &mut Outcome,
) {
    let bench_ref = &*bench;
    let server = bench_ref.server();
    let dir = bench_ref.dir.clone();
    let caller = Caller::new(server, 0);
    server.reset_stats();
    let stored_before = server.stored_bytes();
    let page_file_before = server.stats().page_file_bytes;
    let mut wal = wal_lengths(&dir);
    let mut wal_resets = 0u64;

    // Untraced single-writer baseline.
    let mut tally = Tally::default();
    let base_start = Instant::now();
    while base_start.elapsed() < opts.baseline_duration() {
        let (_, report) = bench_ref.insert_op(writer);
        tally.add(&report);
        wal_resets += count_wal_resets(&dir, &mut wal);
    }
    let base_s = base_start.elapsed().as_secs_f64();
    let base_ops = tally.ops;

    // The ladder: the real insert, then its parts again — the RSTF
    // transforms, the seals, and one `ListStore::insert` per posting.  The
    // replayed inserts are real too: they store sibling postings (same
    // terms, another document id), so they move the lists like the parent.
    let mut tracer = Tracer::default();
    let mut rng = DeterministicRng::from_u64(opts.seed);
    let mut op_id = 0u64;
    let ladder_start = Instant::now();
    while ladder_start.elapsed() < opts.ladder_duration() {
        let start_ns = tracer.now_ns();
        let (ns, report) = bench_ref.insert_op(writer);
        tally.add(&report);
        let parent = tracer.record(Span {
            name: "client.insert_document",
            start_ns,
            end_ns: start_ns + ns,
            parent: None,
            op_id,
            items: report.elements,
        });
        let op = &writer.docs[(writer.next - 1) % writer.docs.len()];
        let twins: Vec<Acked> = postings(DocId(SIBLING_DOC + op_id as u32), op).collect();
        let n = twins.len() as u64;
        let (_, trs) = tracer.time("zerber_r.rstf_transform", Some(parent), op_id, || {
            let trs: Vec<f64> = twins.iter().map(|a| bench_ref.trs(&a.payload)).collect();
            (trs, n)
        });
        let (_, sealed) = tracer.time("crypto.seal", Some(parent), op_id, || {
            let sealed: Vec<_> = twins.iter().map(|a| seal(bench_ref, &mut rng, a)).collect();
            (sealed, n)
        });
        for (((list, sealed), trs), a) in sealed.into_iter().zip(trs).zip(&twins) {
            let element = OrderedElement {
                trs,
                group: a.group,
                sealed,
            };
            let (_, stored) = tracer.time("store.insert", Some(parent), op_id, || {
                (server.store().insert(list, element).is_ok(), 1)
            });
            if stored {
                writer.siblings.push(*a);
            } else {
                tally.failed += 1;
            }
        }
        bench_ref.gauge_when_due(writer);
        wal_resets += count_wal_resets(&dir, &mut wal);
        op_id += 1;
    }
    let ladder_s = ladder_start.elapsed().as_secs_f64();
    let stats = server.stats();

    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let parents = tracer.self_totals("client.insert_document");
    out.tree_check(&[parents]);
    let inserts = (stats.inserts_accepted + writer.siblings.len() as u64).max(1) as f64;
    let logical = (server.stored_bytes() - stored_before).max(1) as f64;
    let checkpoints = wal_resets.saturating_sub(stats.compactions);
    out.note(format!(
        "{inserts} posting inserts: {wal_resets} WAL resets = {} compactions + {checkpoints} automatic checkpoints; \
         {} promotions, {} demotions",
        stats.compactions, stats.promotions, stats.demotions
    ));
    out.set("crypto.hmac_token_ns", hmac_token_ns(server, &caller));
    out.set("crypto.aead_seal_ns", get("crypto.seal").ns_per_item());
    out.set(
        "zerber_r.rstf_transform_ns",
        get("zerber_r.rstf_transform").ns_per_item(),
    );
    out.set("store.insert_us", get("store.insert").ns_per_span() / 1e3);
    out.set(
        "protocol.insert_self_us",
        parents.mean_self_ns() / POSTINGS_PER_DOC as f64 / 1e3,
    );
    out.set(
        "store.wal_bytes_per_insert",
        stats.wal_bytes as f64 / inserts,
    );
    out.set(
        "store.wal_appends_per_insert",
        stats.wal_appends as f64 / inserts,
    );
    // Counts of a time-bounded phase grow with the insert rate: per insert.
    out.set("store.checkpoints_per_insert", checkpoints as f64 / inserts);
    out.set(
        "store.compactions_per_insert",
        stats.compactions as f64 / inserts,
    );
    out.set(
        "store.promotions_per_insert",
        stats.promotions as f64 / inserts,
    );
    out.set(
        "store.demotions_per_insert",
        stats.demotions as f64 / inserts,
    );
    out.set(
        "store.write_amp",
        (stats.page_file_bytes as f64 - page_file_before as f64 + stats.wal_bytes as f64) / logical,
    );
    layer_counts(out, &stats, tally.ops);
    out.finish_trace(opts, &tracer, base_ops as f64 / base_s, ladder_s, op_id);
    let gauge = bench_ref.gauge_after(writer, &mut tally);
    out.set(
        "store.dead_page_ratio",
        gauge.dead_page_bytes as f64 / gauge.page_file_bytes.max(1) as f64,
    );
    out.set(
        "store.disk_bytes_per_element",
        gauge.footprint.disk_bytes as f64 / gauge.footprint.elements.max(1) as f64,
    );
    out.set("protocol.open_cursors_after", server.open_cursors() as f64);
    out.require(server.store().verify_ordering(), "lists stay in TRS order");
    out.attempted = tally.ops;
    out.failed = tally.failed;

    // Recovery: drop the server, reopen the directory a few times.
    bench.server = None;
    let bench = &*bench;
    let mut acked = writer.acked.clone();
    acked.extend(&writer.siblings);
    let mut recovery = Vec::new();
    for _ in 0..opts.sizing.recovery_repeats {
        let start = Instant::now();
        let store = bench.reopen();
        recovery.push(start.elapsed().as_secs_f64());
        drop(store);
    }
    let recovery_s = median(recovery);
    let recovered = IndexServer::with_store(Box::new(bench.reopen()), bench.dep.acl(1));
    let recovered_elements = recovered.num_elements() as f64;
    out.set("store.recovery_s", recovery_s);
    out.set(
        "store.recovered_pages",
        recovered.stats().recovered_pages as f64,
    );
    out.set(
        "store.recovery_elements_per_s",
        recovered_elements / recovery_s,
    );
    let unreadable = bench.unreadable(recovered.store(), &acked);
    out.failed += unreadable.div_ceil(POSTINGS_PER_DOC as u64);
    out.require(
        recovered.store().verify_ordering(),
        "reopened lists stay in TRS order",
    );
    drop(recovered);

    // Replication: snapshot bootstrap, then a WAL tail of fresh inserts.
    let primary = Arc::new(bench.reopen_quiet());
    let source = ReplicationSource::new(Arc::clone(&primary)).expect("a durable primary");
    let transport = InProcessTransport::new(source);
    let config = ReplicaConfig {
        spill: bench.spill,
        durable: bench.durable,
        ..ReplicaConfig::default()
    };
    let start = Instant::now();
    let mut replica = Replica::bootstrap(
        transport as Arc<dyn ReplicaTransport>,
        root.path().join("replica"),
        config,
    )
    .expect("the replica bootstraps from a snapshot");
    let snapshot_s = start.elapsed().as_secs_f64();
    let tail: Vec<Acked> = (0..opts.sizing.replica_tail_inserts)
        .map(|i| {
            let op = &writer.docs[i / POSTINGS_PER_DOC % writer.docs.len()];
            let doc = DocId(TAIL_DOC + (i / POSTINGS_PER_DOC) as u32);
            postings(doc, op)
                .nth(i % POSTINGS_PER_DOC)
                .expect("a document has POSTINGS_PER_DOC postings")
        })
        .collect();
    for a in &tail {
        let (list, sealed) = seal(bench, &mut rng, a);
        let element = OrderedElement {
            trs: bench.trs(&a.payload),
            group: a.group,
            sealed,
        };
        primary
            .insert(list, element)
            .expect("the primary accepts tail inserts");
    }
    let start = Instant::now();
    replica
        .catch_up(100_000)
        .expect("the replica catches up with the WAL tail");
    let tail_s = start.elapsed().as_secs_f64();
    let replica_stats = replica.stats();
    let start = Instant::now();
    primary.checkpoint().expect("an explicit checkpoint");
    let checkpoint_s = start.elapsed().as_secs_f64();
    out.set("store.replica_snapshot_s", snapshot_s);
    out.set("store.replica_catchup_s", snapshot_s + tail_s);
    out.set(
        "store.replica_tail_frames_per_s",
        replica_stats.frames_streamed as f64 / tail_s,
    );
    out.set(
        "store.replica_frames_skipped",
        replica_stats.frames_skipped as f64,
    );
    out.set("store.checkpoint_s", checkpoint_s);
    let copy = replica.store();
    let same = (0..primary.num_lists() as u64).all(|l| {
        let list = MergedListId(l);
        primary.snapshot_list(list).ok() == copy.snapshot_list(list).ok()
    });
    out.require(same, "the replica holds the primary's lists");
    out.require(
        replica_stats.frames_streamed == tail.len() as u64,
        "the replica applied every tail frame",
    );
}
