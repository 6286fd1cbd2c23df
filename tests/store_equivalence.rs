//! Engine-vs-oracle equivalence property test: random interleavings of
//! position-preserving inserts, ranged queries and cursor sessions must be
//! answered element-for-element identically by the oracle
//! (`common/oracle.rs`: plain `Vec` lists, sessions as the contract states
//! them) and by the one serving engine (`SpillStore`: stacks of compressed
//! block-encoded segments) in each of its
//! lifecycles — resident; spilled with cold segments
//! living in on-disk page files behind an LRU page cache, once statically
//! placed and once tiering-tuned (with maintenance — promotion, demotion,
//! page-file compaction — forced on every operation); and durable
//! (write-ahead logging plus aggressive checkpointing live during the
//! workload).
//!
//! The oracle shares no code with the engine, its session table included,
//! so this is a refinement check of every layer at once: the physical list
//! representation (scan, visibility counting, block skipping, insert
//! placement, segment rebuilds and compaction in the segment stack) and the
//! sessions on top of it (resume points, stale opens, the cursor shift an
//! insert applies, owner checks).  Inserts aimed exactly at an open cursor
//! pin the shift: a cursor at the insertion point delivers the new element
//! next.  The insert generation is the engine's own bookkeeping, so it is
//! compared between the engine's configurations but not with the oracle.
//!
//! Every count, ranged fetch and undisturbed cursor walk is also held
//! against `OrderedIndex::{visible_len, fetch}`, which filters the plain
//! `Vec` with a linear `contains` on the caller's filter exactly as given —
//! unsorted, duplicated, empty or naming absent groups.

mod common;
#[path = "common/oracle.rs"]
mod oracle;

use common::TempRoot;
use oracle::Oracle;
use proptest::prelude::*;
use zerber_suite::corpus::{GroupId, TermId};
use zerber_suite::protocol::{AccessControl, IndexServer, QueryRequest, ServerStats};
use zerber_suite::store::{
    CursorId, DurableConfig, ListStore, RangedBatch, RangedFetch, RealIo, SegmentConfig,
    SpillConfig, SpillStore, SyncPolicy,
};
use zerber_suite::zerber::{EncryptedElement, MergePlan, MergedListId};
use zerber_suite::zerber_r::{OrderedElement, OrderedIndex};

const NUM_GROUPS: u32 = 4;

/// One step of the interleaved workload, applied to every engine.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a sealed element at its TRS position.
    Insert {
        list: usize,
        trs: f64,
        group: u32,
        ct: Vec<u8>,
    },
    /// A ranged fetch; when `open` is set, a cursor session is opened from
    /// the returned batch (the follow-up path of the protocol).  When
    /// `stale` is set too, one element `(trs, group)` is inserted into the
    /// list between the fetch and the open, so the open sees a batch from
    /// an older generation.
    Fetch {
        list: usize,
        offset: usize,
        count: usize,
        mask: u8,
        open: bool,
        stale: Option<(f64, u32)>,
        owner: u64,
    },
    /// Resume one of the previously opened sessions.
    CursorFetch { session: usize, count: usize },
    /// Insert exactly where one of the sessions resumes — its TRS strictly
    /// between the session's last delivered element and the next element
    /// of the list, or tied with that next element — then resume it.
    InsertAtCursor {
        session: usize,
        tie: bool,
        group: u32,
        count: usize,
    },
    /// Close one of the sessions — with the right or a foreign owner tag.
    CursorClose { session: usize, foreign: bool },
}

/// A caller's filter from a mask.  The low four bits pick the groups (mask
/// 0 = unrestricted); the high bits bend its shape the way a caller other
/// than the index server may: descending instead of ascending, every group
/// named twice, group ids no element carries (one of them `u32::MAX`).  A
/// mask with only high bits set is an empty or absent-only filter.
fn groups_from_mask(mask: u8) -> Option<Vec<GroupId>> {
    if mask == 0 {
        return None;
    }
    let mut groups: Vec<GroupId> = (0..NUM_GROUPS)
        .filter(|g| mask & (1 << g) != 0)
        .map(GroupId)
        .collect();
    if mask & 0x10 != 0 {
        groups.reverse();
    }
    if mask & 0x20 != 0 {
        groups.extend(groups.clone());
    }
    if mask & 0x40 != 0 {
        groups.insert(0, GroupId(u32::MAX));
        groups.push(GroupId(NUM_GROUPS + 3));
    }
    Some(groups)
}

/// Masks the terminal audits count under: unrestricted, ascending subsets,
/// every group, an empty filter, a reversed + duplicated one and one mixing
/// real groups with absent ids.
const AUDIT_MASKS: [u8; 7] = [0, 1, 5, 0b1111, 0x10, 0x35, 0x4a];

fn element(trs: f64, group: u32, ct: Vec<u8>) -> OrderedElement {
    let group = GroupId(group % NUM_GROUPS);
    OrderedElement {
        trs,
        group,
        sealed: EncryptedElement {
            group,
            ciphertext: ct.into(),
        },
    }
}

/// The fabricated index every engine is built over — and, kept as is, the
/// naive model the engines' answers are held against.
fn fixture_index(lists: &[Vec<OrderedElement>]) -> OrderedIndex {
    let plan = MergePlan::from_term_lists(
        (0..lists.len()).map(|i| vec![TermId(i as u32)]).collect(),
        "equivalence-fixture",
        2.0,
    );
    OrderedIndex::from_parts(lists.to_vec(), plan)
}

/// Stores under comparison: the oracle first, then the engine's lifecycles.
const STORES: usize = 5;

/// The engine's configurations, in the order [`engines`] builds them, and
/// the root the paging ones live in (declared last, so it drops last).
struct Engine {
    resident: SpillStore,
    spilled: SpillStore,
    tiering: SpillStore,
    durable: SpillStore,
    root: TempRoot,
}

impl Engine {
    /// The oracle and every configuration of the engine as trait objects.
    fn with<'a>(&'a self, oracle: &'a Oracle) -> [&'a dyn ListStore; STORES] {
        [
            oracle,
            &self.resident,
            &self.spilled,
            &self.tiering,
            &self.durable,
        ]
    }
}

/// Builds the oracle and the engine's four configurations over identical
/// fabricated indexes.
fn engines(lists: &[Vec<OrderedElement>]) -> (Oracle, Engine) {
    // Tiny blocks and segments so every case crosses block boundaries and
    // splits segments, the last one included.
    let segment_config = SegmentConfig {
        block_len: 3,
        max_segment_elems: 12,
    };
    let index = fixture_index(lists);
    let oracle = Oracle::new(index.clone());
    let root = TempRoot::new("equivalence");
    let engine = Engine {
        resident: SpillStore::resident(index.clone(), 2, segment_config).unwrap(),
        // Zero resident budget + a tiny page cache: every sealed segment
        // round-trips through the on-disk page format under this workload.
        spilled: SpillStore::with_configs(
            index.clone(),
            2,
            root.join("spilled"),
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 2,
                ..SpillConfig::default().without_tiering()
            },
            segment_config,
        )
        .unwrap(),
        // Tiering-tuned spill engine: a tiny nonzero budget plus the most
        // aggressive maintenance knobs, so every operation can trigger a
        // retier pass and a page-file compaction mid-workload.  Promotion,
        // demotion and live-page rewrites must all stay answer-invisible.
        tiering: SpillStore::with_configs(
            index.clone(),
            2,
            root.join("tiering"),
            SpillConfig {
                resident_budget_bytes: 512,
                page_cache_pages: 1,
                compact_dead_percent: 1,
                compact_min_dead_bytes: 1,
                retier_interval: 1,
            },
            segment_config,
        )
        .unwrap(),
        // The durable engine with the full WAL/checkpoint machinery live:
        // every insert is write-ahead logged, a tiny checkpoint threshold
        // forces manifest commits and WAL resets mid-workload, and none of
        // it may be visible in any answer.
        durable: SpillStore::create_durable_with(
            index,
            root.join("durable"),
            2,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 2,
                ..SpillConfig::default().without_tiering()
            },
            segment_config,
            DurableConfig {
                sync: SyncPolicy::Never,
                checkpoint_wal_bytes: 256,
            },
            RealIo::shared(),
        )
        .unwrap(),
        root,
    };
    (oracle, engine)
}

/// Index servers over the oracle and the engine's four configurations
/// (oracle first), sharing one user directory with
/// deliberately different group views per user (so the users' rounds run
/// under different visibility filters): `user-0` sees everything, `user-3`
/// nothing.  The root the paging stores live in comes first, so a caller
/// that binds the pair drops it last.
fn servers(lists: &[Vec<OrderedElement>]) -> (TempRoot, Vec<IndexServer>) {
    let (oracle, engine) = engines(lists);
    let mut acl = AccessControl::new(b"batch-oracle");
    acl.register_user("user-0", &[GroupId(0), GroupId(1), GroupId(2), GroupId(3)]);
    acl.register_user("user-1", &[GroupId(0), GroupId(1)]);
    acl.register_user("user-2", &[GroupId(2)]);
    acl.register_user("user-3", &[]);
    let stores: [Box<dyn ListStore>; STORES] = [
        Box::new(oracle),
        Box::new(engine.resident),
        Box::new(engine.spilled),
        Box::new(engine.tiering),
        Box::new(engine.durable),
    ];
    let servers = stores
        .into_iter()
        .map(|store| IndexServer::with_store(store, acl.clone()))
        .collect();
    (engine.root, servers)
}

/// A session as each store sees it: the store-local cursor id plus the
/// shared (list, owner, groups) context it was opened with.
struct Session {
    cursors: [CursorId; STORES],
    owner: u64,
    groups: Option<Vec<GroupId>>,
    list: MergedListId,
    /// Visible elements the session has received so far — where the naive
    /// model resumes it by offset.
    delivered: usize,
    /// Whether an insert has moved the session's list since it was opened.
    /// A cursor is a physical position, so after that it no longer equals
    /// an offset scan of the current list (by design: it neither repeats
    /// nor skips); its visibility total stays comparable throughout.
    moved: bool,
}

/// Inserts `element` into `list` on the model and on every store, marking
/// the sessions open on the list as moved; every store must place it where
/// the oracle does.
fn insert_everywhere(
    stores: &[&dyn ListStore],
    model: &mut OrderedIndex,
    sessions: &mut [Session],
    list: MergedListId,
    element: &OrderedElement,
) {
    model.insert_sealed(list, element.clone()).unwrap();
    for session in sessions.iter_mut().filter(|s| s.list == list) {
        session.moved = true;
    }
    let positions: Vec<_> = stores
        .iter()
        .map(|s| s.insert(list, element.clone()).unwrap())
        .collect();
    for position in &positions[1..] {
        assert_eq!(positions[0], *position);
    }
}

/// The oracle's batch first, then the engine configurations': the engine
/// answers identically in every configuration, generation included, and
/// the oracle the same but for the generation, which it does not keep.
fn assert_agree(batches: &[&RangedBatch]) {
    for batch in &batches[2..] {
        assert_eq!(batches[1], *batch);
    }
    let modelled = RangedBatch {
        generation: 0,
        ..batches[1].clone()
    };
    assert_eq!(batches[0], &modelled);
}

/// Resumes `session` on every store: one outcome everywhere, agreeing
/// batches, the current visible total and — while no insert moved the
/// list — the model's offset scan.
fn follow_up(stores: &[&dyn ListStore], model: &OrderedIndex, session: &mut Session, count: usize) {
    let groups = session.groups.as_deref();
    let results: Vec<_> = stores
        .iter()
        .enumerate()
        .map(|(i, s)| s.cursor_fetch(session.cursors[i], session.owner, count, groups))
        .collect();
    // Error payloads carry store-local cursor ids, so compare outcomes,
    // then batches.
    for result in &results[1..] {
        assert_eq!(results[0].is_ok(), result.is_ok());
    }
    let Ok(a) = &results[0] else {
        return;
    };
    assert_agree(&results.iter().flatten().collect::<Vec<_>>());
    assert_eq!(
        a.visible_total,
        model.visible_len(session.list, groups).unwrap()
    );
    if !session.moved {
        let naive = model
            .fetch(session.list, session.delivered, count, groups)
            .unwrap();
        assert_eq!(a.elements.iter().collect::<Vec<_>>(), naive);
    }
    session.delivered += a.elements.len();
}

/// A TRS that lands exactly where an undisturbed session resumes (just past
/// the `delivered`-th element its filter sees): strictly between the
/// neighbours there or, with `tie`, equal to the next one.  `None` when
/// equal TRS across that point leave no such value.
fn trs_at_cursor(
    list: &[OrderedElement],
    groups: Option<&[GroupId]>,
    delivered: usize,
    tie: bool,
) -> Option<f64> {
    let position = match delivered.checked_sub(1) {
        None => 0,
        Some(last) => (0..list.len())
            .filter(|&i| groups.is_none_or(|g| g.contains(&list[i].group)))
            .nth(last)
            .map_or(list.len(), |i| i + 1),
    };
    let above = position.checked_sub(1).map(|i| list[i].trs);
    let trs = match (above, list.get(position).map(|e| e.trs)) {
        (_, Some(next)) if tie => next,
        (Some(a), Some(b)) => (a + b) / 2.0,
        (None, Some(b)) => b + 1.0,
        (Some(a), None) => a - 1.0,
        (None, None) => 0.5,
    };
    // After every strictly greater TRS, before equal ones.
    (list.partition_point(|e| e.trs > trs) == position).then_some(trs)
}

fn sorted(mut items: Vec<(f64, u32, Vec<u8>)>) -> Vec<OrderedElement> {
    items.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite TRS"));
    items
        .into_iter()
        .map(|(t, g, c)| element(t, g, c))
        .collect()
}

fn trs_strategy() -> impl Strategy<Value = f64> {
    // Coarse granularity produces plenty of exact TRS ties, which is where
    // insert placement and order-exact decoding can silently diverge.
    (0u32..64).prop_map(|q| q as f64 / 64.0)
}

fn op_strategy(num_lists: usize) -> impl Strategy<Value = Op> {
    let ct = proptest::collection::vec(any::<u8>(), 0..10);
    prop_oneof![
        3 => (0..num_lists, trs_strategy(), 0..NUM_GROUPS, ct)
            .prop_map(|(list, trs, group, ct)| Op::Insert { list, trs, group, ct }),
        4 => (
            (0..num_lists, 0usize..40, 1usize..8, any::<u8>()),
            (any::<bool>(), any::<bool>(), trs_strategy(), 0..NUM_GROUPS, 1u64..4),
        )
            .prop_map(|((list, offset, count, mask), (open, stale, trs, group, owner))| {
                let stale = stale.then_some((trs, group));
                Op::Fetch { list, offset, count, mask, open, stale, owner }
            }),
        3 => (any::<usize>(), 1usize..8)
            .prop_map(|(session, count)| Op::CursorFetch { session, count }),
        2 => (any::<usize>(), any::<bool>(), 0..NUM_GROUPS, 1usize..8)
            .prop_map(|(session, tie, group, count)| {
                Op::InsertAtCursor { session, tie, group, count }
            }),
        1 => (any::<usize>(), any::<bool>())
            .prop_map(|(session, foreign)| Op::CursorClose { session, foreign }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_answer_interleaved_workloads_identically(
        lists in proptest::collection::vec(
            proptest::collection::vec(
                (trs_strategy(), 0..NUM_GROUPS, proptest::collection::vec(any::<u8>(), 0..10)),
                0..40,
            ).prop_map(sorted),
            1..4,
        ),
        ops in proptest::collection::vec(op_strategy(3), 1..50),
    ) {
        let (oracle, engine) = engines(&lists);
        let stores = engine.with(&oracle);
        let mut model = fixture_index(&lists);
        let mut sessions: Vec<Session> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { list, trs, group, ct } => {
                    let list = MergedListId((list % lists.len()) as u64);
                    let e = element(trs, group, ct);
                    insert_everywhere(&stores, &mut model, &mut sessions, list, &e);
                }
                Op::Fetch { list, offset, count, mask, open, stale, owner } => {
                    let list = MergedListId((list % lists.len()) as u64);
                    let groups = groups_from_mask(mask);
                    let fetch = RangedFetch { list, offset, count };
                    let batches: Vec<_> = stores
                        .iter()
                        .map(|s| s.fetch_ranged(&fetch, groups.as_deref()).unwrap())
                        .collect();
                    assert_agree(&batches.iter().collect::<Vec<_>>());
                    let naive = model.fetch(list, offset, count, groups.as_deref()).unwrap();
                    prop_assert_eq!(batches[0].elements.iter().collect::<Vec<_>>(), naive);
                    prop_assert_eq!(
                        batches[0].visible_total,
                        model.visible_len(list, groups.as_deref()).unwrap()
                    );
                    if open && !batches[0].exhausted {
                        let delivered = offset + batches[0].elements.len();
                        if let Some((trs, group)) = stale {
                            // The writer slips in between the fetch and the
                            // open: every store must re-derive the position
                            // from `delivered`, so the session's follow-ups
                            // still equal an offset scan of the current list.
                            let e = element(trs, group, vec![0x5a; 3]);
                            insert_everywhere(&stores, &mut model, &mut sessions, list, &e);
                        }
                        let mut cursors = [CursorId::NONE; STORES];
                        for (i, store) in stores.iter().enumerate() {
                            cursors[i] = store
                                .open_cursor(list, owner, &batches[i], delivered, groups.as_deref())
                                .unwrap();
                        }
                        sessions.push(Session {
                            cursors,
                            owner,
                            groups,
                            list,
                            delivered,
                            moved: false,
                        });
                    }
                }
                Op::CursorFetch { session, count } => {
                    if sessions.is_empty() {
                        continue;
                    }
                    let at = session % sessions.len();
                    follow_up(&stores, &model, &mut sessions[at], count);
                }
                Op::InsertAtCursor { session, tie, group, count } => {
                    if sessions.is_empty() {
                        continue;
                    }
                    let at = session % sessions.len();
                    let (list, delivered) = (sessions[at].list, sessions[at].delivered);
                    let groups = sessions[at].groups.clone();
                    let elements = model.list(list).unwrap();
                    if let Some(trs) = trs_at_cursor(elements, groups.as_deref(), delivered, tie) {
                        let e = element(trs, group, vec![0xc5; 2]);
                        insert_everywhere(&stores, &mut model, &mut sessions, list, &e);
                    }
                    follow_up(&stores, &model, &mut sessions[at], count);
                }
                Op::CursorClose { session, foreign } => {
                    if sessions.is_empty() {
                        continue;
                    }
                    let session = &sessions[session % sessions.len()];
                    let owner = if foreign { session.owner ^ 0xdead } else { session.owner };
                    for (i, store) in stores.iter().enumerate() {
                        store.close_cursor(session.cursors[i], owner);
                    }
                }
            }
        }
        // Terminal audit: identical logical state, sessions and sizes.
        for l in 0..lists.len() as u64 {
            let id = MergedListId(l);
            let reference = oracle.snapshot_list(id).unwrap();
            prop_assert_eq!(model.list(id).unwrap(), &reference[..]);
            for store in &stores[1..] {
                prop_assert_eq!(&store.snapshot_list(id).unwrap(), &reference);
            }
            for mask in AUDIT_MASKS {
                let groups = groups_from_mask(mask);
                // The running totals stay exact through inserts, rebuilds,
                // splits and compactions: every store's count is
                // the naive recount of the final list.
                let expected = model.visible_len(id, groups.as_deref()).unwrap();
                for store in stores {
                    prop_assert_eq!(store.visible_len(id, groups.as_deref()).unwrap(), expected);
                }
            }
        }
        for store in stores {
            prop_assert!(store.verify_ordering());
            prop_assert_eq!(store.num_elements(), oracle.num_elements());
            prop_assert_eq!(store.stored_bytes(), oracle.stored_bytes());
            prop_assert_eq!(store.session_stats().open, oracle.session_stats().open);
        }
        // The self-managing configuration's exact budget accounting must
        // survive any interleaving of serving traffic with its maintenance
        // passes,
        prop_assert!(engine.tiering.resident_bytes_within_budget());
        // and the same invariant WAL appends, checkpoints and WAL resets.
        prop_assert!(engine.durable.resident_bytes_within_budget());
        // The resident lifecycle never paged, logged or maintained anything.
        let idle = engine.resident.metrics();
        prop_assert_eq!(
            (idle.spilled_bytes, idle.page_faults, idle.compactions, idle.wal_appends),
            (0, 0, 0, 0)
        );
        prop_assert!(engine.resident.page_file_paths().is_empty());
    }

    /// The batched-vs-sequential oracle: one user's round through
    /// `handle_query_batch` — each registered user's share of the generated
    /// requests (stale cursors and unknown lists mixed in), plus one request
    /// resuming a live session of her own and one presenting another user's
    /// cursor — answers and meters like the same requests issued one at a
    /// time through `handle_query` on a twin server, every `ServerStats`
    /// field equal but the one authentication and the batch count, on the
    /// oracle and on every configuration of the engine.  A failing request
    /// (unknown list) degrades alone; the rest of the batch stays correct.
    /// And every configuration's batched answers equal the oracle's.
    #[test]
    fn batches_equal_sequential_queries_across_engines(
        lists in proptest::collection::vec(
            proptest::collection::vec(
                (trs_strategy(), 0..NUM_GROUPS, proptest::collection::vec(any::<u8>(), 0..10)),
                0..40,
            ).prop_map(sorted),
            1..4,
        ),
        reqs in proptest::collection::vec(
            // (user, list incl. unknown ids, offset, count, stale cursor?)
            (0usize..4, 0u64..5, 0u64..30, 1u32..8, any::<bool>()),
            1..40,
        ),
    ) {
        let (_root, servers) = servers(&lists);
        let (_twin_root, twins) = self::servers(&lists);
        // One user's round through `handle_query_batch`, against the
        // sequential replay on a twin with the identical history.
        let mut per_engine: Vec<Vec<_>> = Vec::with_capacity(servers.len());
        for (batching, sequential) in servers.iter().zip(&twins) {
            let mut answers = Vec::new();
            for u in 0..4usize {
                let user = format!("user-{u}");
                let other = format!("user-{}", (u + 1) % 4);
                let token = batching.acl().issue_token(&user);
                let sub_round = |server: &IndexServer| {
                    // A follow-up at offset 1 opens a session (unless it
                    // exhausts the list): one of the user's own, one of
                    // somebody else's.
                    let open = |name: &str| {
                        let follow_up = QueryRequest {
                            user: name.into(),
                            list: 0,
                            offset: 1,
                            cursor: 0,
                            count: 1,
                            k: 1,
                        };
                        let response = server
                            .handle_query(&follow_up, &server.acl().issue_token(name))
                            .unwrap();
                        response.cursor
                    };
                    let (live, foreign) = (open(&user), open(&other));
                    let request = |list, offset, cursor, count| QueryRequest {
                        user: user.clone(),
                        list,
                        offset,
                        cursor,
                        count,
                        k: count,
                    };
                    let mut round = vec![request(0, 2, live, 2)];
                    round.extend(
                        reqs.iter()
                            .filter(|r| r.0 == u)
                            .map(|&(_, list, offset, count, stale)| {
                                // A cursor id no engine ever issued: the
                                // round must fall back to the stateless
                                // offset scan, like the sequential path.
                                let evicted = if stale { 0x0bad_c0de << 8 } else { 0 };
                                request(list, offset, evicted, count)
                            }),
                    );
                    round.push(request(0, 0, foreign, 3));
                    round
                };
                let round = sub_round(batching);
                prop_assert_eq!(&round, &sub_round(sequential), "twin histories diverged");
                batching.reset_stats();
                sequential.reset_stats();
                let batched = batching.handle_query_batch(&round, &token).unwrap();
                let replayed: Vec<_> = round
                    .iter()
                    .map(|request| sequential.handle_query(request, &token))
                    .collect();
                prop_assert_eq!(&batched, &replayed);
                // The batch meters exactly like the sequential replay, but
                // for its one token check and the batch count.
                let (b, s) = (batching.stats(), sequential.stats());
                prop_assert_eq!((b.batches, s.batches), (1, 0));
                prop_assert_eq!((b.auth_checks, s.auth_checks), (1, round.len() as u64));
                prop_assert_eq!(ServerStats { auth_checks: s.auth_checks, batches: 0, ..b }, s);
                // Session ids are engine-local; the payload is not.
                answers.extend(
                    batched
                        .into_iter()
                        .map(|r| r.map(|resp| (resp.elements, resp.visible_total))),
                );
            }
            per_engine.push(answers);
        }
        // And every configuration of the engine agrees with the oracle,
        // request for request.
        for answers in &per_engine[1..] {
            prop_assert_eq!(&per_engine[0], answers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A caught-up read replica is just another engine: bootstrapped from a
    /// durable primary's snapshot and fed its WAL tail, it must answer
    /// every ranged fetch and visibility count element-for-element
    /// identically to the in-memory oracle — across offsets, counts and
    /// group-mask filters — while refusing writes.
    #[test]
    fn replica_reads_match_the_oracle(
        lists in proptest::collection::vec(
            proptest::collection::vec(
                (trs_strategy(), 0..NUM_GROUPS, proptest::collection::vec(any::<u8>(), 0..6)),
                0..24,
            ).prop_map(sorted),
            1..4,
        ),
        streamed in proptest::collection::vec(
            (0usize..4, trs_strategy(), 0..NUM_GROUPS, proptest::collection::vec(any::<u8>(), 0..6)),
            1..24,
        ),
        fetches in proptest::collection::vec(
            (0usize..4, 0usize..30, 1usize..8, any::<u8>()),
            1..16,
        ),
    ) {
        use std::sync::Arc;
        use zerber_suite::store::{
            InProcessTransport, Replica, ReplicaConfig, ReplicaTransport,
            ReplicationSource,
        };

        let plan = MergePlan::from_term_lists(
            (0..lists.len()).map(|i| vec![TermId(i as u32)]).collect(),
            "replica-equivalence-fixture",
            2.0,
        );
        let segment_config = SegmentConfig {
            block_len: 3,
            max_segment_elems: 12,
        };
        let spill_config = SpillConfig {
            resident_budget_bytes: 0,
            page_cache_pages: 2,
            ..SpillConfig::default().without_tiering()
        };
        let durable_config = DurableConfig {
            sync: SyncPolicy::Never,
            checkpoint_wal_bytes: 1 << 30,
        };
        let index = OrderedIndex::from_parts(lists.to_vec(), plan);
        let oracle = Oracle::new(index.clone());
        let root = TempRoot::new("replica-equivalence");
        let primary = Arc::new(
            SpillStore::create_durable_with(
                index,
                root.join("primary"),
                2,
                spill_config,
                segment_config,
                durable_config,
                RealIo::shared(),
            )
            .unwrap(),
        );

        let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
        let transport = InProcessTransport::new(source);
        let mut replica = Replica::bootstrap(
            transport as Arc<dyn ReplicaTransport>,
            root.join("replica"),
            ReplicaConfig {
                spill: spill_config,
                durable: durable_config,
                batch_frames: 4,
                ..ReplicaConfig::default()
            },
        )
        .unwrap();

        // The streamed phase: primary and oracle advance together, the
        // replica follows over the wire.
        let num_lists = lists.len();
        for (list, trs, group, ct) in streamed {
            let id = MergedListId((list % num_lists) as u64);
            let el = element(trs, group, ct);
            oracle.insert(id, el.clone()).unwrap();
            primary.insert(id, el).unwrap();
        }
        replica.catch_up(500).unwrap();
        prop_assert_eq!(replica.lag(), 0);

        let serving = replica.serving_store();
        for (list, offset, count, mask) in fetches {
            let fetch = RangedFetch {
                list: MergedListId((list % num_lists) as u64),
                offset,
                count,
            };
            let groups = groups_from_mask(mask);
            let want = oracle.fetch_ranged(&fetch, groups.as_deref());
            let got = serving.fetch_ranged(&fetch, groups.as_deref());
            match (want, got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.elements, &b.elements);
                    prop_assert_eq!(a.visible_total, b.visible_total);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "oracle and replica disagree: {:?} vs {:?}", a, b),
            }
            prop_assert_eq!(
                oracle.visible_len(fetch.list, groups.as_deref()).unwrap(),
                serving.visible_len(fetch.list, groups.as_deref()).unwrap()
            );
        }
        // Reads only: inserts are routed to the primary.
        prop_assert!(serving.insert(MergedListId(0), element(0.5, 0, b"w".to_vec())).is_err());
        drop(replica);
        drop(serving);
    }
}

/// Production IO whose page files refuse writes while armed — the injected
/// `write_page` failure of the test below.  WALs, manifests and reads go
/// through untouched.
mod failing_io {
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use zerber_suite::store::{FileIo, PageIo};

    #[derive(Debug)]
    pub struct FailingPages {
        pub inner: Arc<dyn PageIo>,
        pub armed: Arc<AtomicBool>,
    }

    #[derive(Debug)]
    struct FailingPageFile {
        inner: Box<dyn FileIo>,
        armed: Arc<AtomicBool>,
    }

    impl FileIo for FailingPageFile {
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
            self.inner.read_at(offset, buf)
        }

        fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
            if self.armed.load(Ordering::Relaxed) {
                return Err(io::Error::other("injected page write failure"));
            }
            self.inner.write_at(offset, buf)
        }

        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }

        fn len(&mut self) -> io::Result<u64> {
            self.inner.len()
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.inner.set_len(len)
        }
    }

    impl PageIo for FailingPages {
        fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn FileIo>> {
            let inner = self.inner.open(path, truncate)?;
            Ok(if path.extension().is_some_and(|ext| ext == "pages") {
                Box::new(FailingPageFile {
                    inner,
                    armed: Arc::clone(&self.armed),
                })
            } else {
                inner
            })
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.inner.sync_dir(dir)
        }

        fn remove(&self, path: &Path) -> io::Result<()> {
            self.inner.remove(path)
        }

        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }
}

/// With every sealed segment on disk (budget 0), a group-filtered count is
/// still one merge pass over the list's running totals: no page is
/// faulted, and the count is the naive recount — through interior and
/// bottom inserts into cold slots, inserts that fail and roll back (an
/// element the store refuses, a page write the disk refuses, for an
/// interior and for a bottom insert) and a crash recovery that rebuilds
/// the totals from checkpoint pages plus the replayed WAL tail.
#[test]
fn spilled_counts_come_from_running_totals_through_failures_and_recovery() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use zerber_suite::store::{StoreError, MAX_CIPHERTEXT_BYTES};

    let segment_config = SegmentConfig {
        block_len: 3,
        max_segment_elems: 12,
    };
    let spill_config = SpillConfig {
        resident_budget_bytes: 0,
        page_cache_pages: 2,
        ..SpillConfig::default().without_tiering()
    };
    let durable_config = DurableConfig {
        sync: SyncPolicy::Never,
        checkpoint_wal_bytes: 0,
    };
    let lists: Vec<Vec<OrderedElement>> = (0..2u32)
        .map(|l| {
            sorted(
                (0..30u32)
                    .map(|i| (f64::from(i * 2 + l) / 64.0, i + l, vec![i as u8; 6]))
                    .collect(),
            )
        })
        .collect();
    let mut model = fixture_index(&lists);
    let root = TempRoot::new("failed-page-write");
    let armed = Arc::new(AtomicBool::new(false));
    let io = Arc::new(failing_io::FailingPages {
        inner: RealIo::shared(),
        armed: Arc::clone(&armed),
    });
    let store = SpillStore::create_durable_with(
        model.clone(),
        root.join("store"),
        2,
        spill_config,
        segment_config,
        durable_config,
        io,
    )
    .unwrap();

    // Counts and first fetches under every filter shape, against the model;
    // the counts may not fault a page.
    let audit = |store: &SpillStore, model: &OrderedIndex| {
        let masks = AUDIT_MASKS.iter().copied().chain([2, 0x2f, 0x40, 0x7f]);
        for mask in masks {
            let groups = groups_from_mask(mask);
            for l in 0..lists.len() as u64 {
                let id = MergedListId(l);
                let expected = model.visible_len(id, groups.as_deref()).unwrap();
                let faults = store.metrics().page_faults;
                assert_eq!(
                    store.visible_len(id, groups.as_deref()).unwrap(),
                    expected,
                    "list {l} mask {mask:#x}"
                );
                assert_eq!(store.metrics().page_faults, faults);
                let fetch = RangedFetch {
                    list: id,
                    offset: 0,
                    count: 3,
                };
                let batch = store.fetch_ranged(&fetch, groups.as_deref()).unwrap();
                assert_eq!(batch.visible_total, expected);
                assert_eq!(
                    batch.elements.iter().collect::<Vec<_>>(),
                    model.fetch(id, 0, 3, groups.as_deref()).unwrap()
                );
            }
        }
    };
    audit(&store, &model);

    // Interior inserts rebuild cold slots; the inserts below every element
    // rebuild the cold last slot of their list.
    let mut apply = |store: &SpillStore, list: u64, trs: f64, group: u32| {
        let id = MergedListId(list);
        let e = element(trs, group, vec![0xee; 6]);
        let pos = store.insert(id, e.clone()).unwrap();
        assert_eq!(
            pos,
            model.list(id).unwrap().partition_point(|m| m.trs > trs)
        );
        model.insert_sealed(id, e).unwrap();
    };
    let inserts = [
        (0, 0.99),
        (1, 0.5),
        (0, 0.31),
        (0, -1.0),
        (1, -1.0),
        (1, 0.75),
        (0, 0.0),
        (1, -1.0),
    ];
    for (i, (list, trs)) in inserts.into_iter().enumerate() {
        apply(&store, list, trs, i as u32);
    }
    audit(&store, &model);

    // Failed inserts leave the totals where they were.
    let huge = element(0.5, 1, vec![7; MAX_CIPHERTEXT_BYTES + 1]);
    assert!(matches!(
        store.insert(MergedListId(0), huge),
        Err(StoreError::InvalidElement(_))
    ));
    armed.store(true, Ordering::Relaxed);
    // The rebuild of a cold slot cannot write its pages...
    assert!(matches!(
        store.insert(MergedListId(0), element(0.6, 2, vec![1; 6])),
        Err(StoreError::Io(_))
    ));
    // ...and neither can the rebuild of the last slot a bottom insert
    // lands in.
    assert!(matches!(
        store.insert(MergedListId(1), element(-2.0, 3, vec![2; 6])),
        Err(StoreError::Io(_))
    ));
    armed.store(false, Ordering::Relaxed);
    audit(&store, &model);

    // Crash: no checkpoint since the build, so recovery adopts the built
    // pages and replays every acknowledged insert from the WAL; its audit
    // recounts the totals it rebuilt.
    drop(store);
    let reopened = SpillStore::open(root.join("store"), spill_config, durable_config).unwrap();
    assert!(reopened.metrics().recovered_pages > 0);
    audit(&reopened, &model);
    for l in 0..lists.len() as u64 {
        let id = MergedListId(l);
        assert_eq!(reopened.snapshot_list(id).unwrap(), model.list(id).unwrap());
    }
    drop(reopened);
}

/// The two inserts the generated workloads reach only by chance, pinned:
/// one below every element of a non-empty list, which the last segment
/// absorbs at its end (splitting once it passes the bound), and the first
/// element of an empty list.  Every configuration places and serves them
/// like the oracle, and the durable root reopens to the same lists.
#[test]
fn bottom_inserts_and_inserts_into_an_empty_list_answer_like_the_oracle() {
    let lists = vec![
        sorted(
            (0..30u32)
                .map(|i| (0.5 + f64::from(i) / 64.0, i, vec![i as u8; 4]))
                .collect(),
        ),
        Vec::new(),
    ];
    let (oracle, engine) = engines(&lists);
    let stores = engine.with(&oracle);
    let mut model = fixture_index(&lists);
    let audit = |model: &OrderedIndex| {
        for l in 0..lists.len() as u64 {
            let id = MergedListId(l);
            let reference = model.list(id).unwrap();
            for store in stores {
                assert_eq!(store.snapshot_list(id).unwrap(), reference, "list {l}");
            }
            for mask in AUDIT_MASKS {
                let groups = groups_from_mask(mask);
                for offset in [0, reference.len() / 2, reference.len().saturating_sub(3)] {
                    let fetch = RangedFetch {
                        list: id,
                        offset,
                        count: 5,
                    };
                    let batches: Vec<_> = stores
                        .iter()
                        .map(|s| s.fetch_ranged(&fetch, groups.as_deref()).unwrap())
                        .collect();
                    assert_agree(&batches.iter().collect::<Vec<_>>());
                    assert_eq!(
                        batches[0].elements.iter().collect::<Vec<_>>(),
                        model.fetch(id, offset, 5, groups.as_deref()).unwrap()
                    );
                }
            }
        }
    };
    // List 0: thirty inserts at its bottom, in pairs of equal TRS — the
    // first of a pair below every element, the second tied with it.
    for i in 0..30u32 {
        let trs = 0.5 - f64::from(1 + i / 2) / 128.0;
        let e = element(trs, i, vec![0xb0 ^ i as u8; 3]);
        insert_everywhere(&stores, &mut model, &mut [], MergedListId(0), &e);
        audit(&model);
    }
    // List 1 starts empty: its first element, then one below it, one above,
    // a tie, an interior one and a run below everything.
    let trs = [0.25, 0.125, 0.75, 0.25, 0.5]
        .into_iter()
        .chain((0..15).map(|i| 0.1 - f64::from(i) / 256.0));
    for (i, trs) in trs.enumerate() {
        let e = element(trs, i as u32, vec![i as u8; 2]);
        insert_everywhere(&stores, &mut model, &mut [], MergedListId(1), &e);
        audit(&model);
    }
    let Engine { durable, root, .. } = engine;
    drop(durable);
    let reopened = SpillStore::open(
        root.join("durable"),
        SpillConfig::default(),
        DurableConfig::default(),
    )
    .unwrap();
    for l in 0..lists.len() as u64 {
        let id = MergedListId(l);
        assert_eq!(reopened.snapshot_list(id).unwrap(), model.list(id).unwrap());
    }
    assert!(reopened.resident_bytes_within_budget());
}
