//! Crash-recovery torture tests for the durable `SpillStore`.
//!
//! The deterministic fault-injection shim (`FaultIo`) turns "what happens
//! if the process dies here?" into an enumerable question: a probe run
//! records the cumulative IO budget after every write / rename / remove /
//! truncate / fsync, and the kill loop then replays the identical workload
//! once per recorded boundary (and one unit before it, to land *inside*
//! multi-byte writes), crashing the store at that exact point.  After each
//! simulated crash the directory must reopen with the production IO path —
//! never panicking, never refusing — and serve a state that is exactly a
//! prefix of the insert history, with the byte-budget accounting still
//! exact.
//!
//! Alongside the exhaustive loop: a kill-at-every-byte WAL truncation
//! property (any prefix of the log recovers exactly the fully-fitting
//! frames), lying-fsync and buffered-power-loss scenarios, deterministic
//! bit-flip corruption of both the WAL and checkpointed pages, and a
//! crash *during* recovery itself.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;

use common::TempRoot;
use proptest::prelude::*;
use zerber_suite::corpus::{GroupId, TermId};
use zerber_suite::store::{
    crc32, DurableConfig, FaultIo, FaultMode, ListStore, PageIo, SegmentConfig, SingleMutexStore,
    SpillConfig, SpillStore, StoreError, SyncPolicy,
};
use zerber_suite::zerber::{EncryptedElement, MergePlan, MergedListId};
use zerber_suite::zerber_r::{OrderedElement, OrderedIndex};

const NUM_LISTS: usize = 4;
const NUM_SHARDS: usize = 2;

fn element(trs: f64, group: u32, ct: &[u8]) -> OrderedElement {
    let group = GroupId(group % 4);
    OrderedElement {
        trs,
        group,
        sealed: EncryptedElement {
            group,
            ciphertext: ct.to_vec(),
        },
    }
}

fn fixture_index(num_lists: usize, seeded: bool) -> OrderedIndex {
    let plan = MergePlan::from_term_lists(
        (0..num_lists).map(|i| vec![TermId(i as u32)]).collect(),
        "durable-recovery-fixture",
        2.0,
    );
    let lists = (0..num_lists)
        .map(|l| {
            if !seeded {
                return Vec::new();
            }
            (0..3)
                .map(|i| element(90.0 - 10.0 * i as f64 - l as f64, (l + i) as u32, b"seed"))
                .collect()
        })
        .collect();
    OrderedIndex::from_parts(lists, plan)
}

/// Tiny segments + zero resident budget: every sealed segment round-trips
/// through the page files, so checkpoints and compaction actually move
/// bytes.
fn segment_config() -> SegmentConfig {
    SegmentConfig {
        block_len: 3,
        tail_threshold: 2,
        max_segment_elems: 12,
        max_segments: 2,
        max_payload_bytes: u32::MAX as usize,
    }
}

fn spill_config() -> SpillConfig {
    SpillConfig {
        resident_budget_bytes: 0,
        page_cache_pages: 2,
        ..SpillConfig::default().without_tiering()
    }
}

fn durable_config(sync: SyncPolicy) -> DurableConfig {
    DurableConfig {
        sync,
        // Checkpoints in these tests are explicit, not WAL-size driven, so
        // every crash point is placed by the workload itself.
        checkpoint_wal_bytes: 1 << 30,
    }
}

/// Flat copy of a store root (the layout has no subdirectories).
fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The deterministic insert history the kill loop replays: interleaved
/// across all lists, TRS values landing above, between and below the
/// seeded elements so inserts hit heads, middles and tails.
fn insert_history() -> Vec<(usize, OrderedElement)> {
    let mut history = Vec::new();
    for i in 0..18usize {
        let list = i % NUM_LISTS;
        let trs = 95.0 - 6.0 * i as f64;
        history.push((list, element(trs, i as u32, format!("w{i:02}").as_bytes())));
    }
    history
}

/// Replays the workload: a third of the inserts, an explicit checkpoint, a
/// third more, forced compaction of every shard, then the rest.  Errors are
/// ignored — after the injected crash point the shim silently no-ops, and a
/// real crashed process would not observe results either.
fn run_workload(store: &SpillStore) {
    let history = insert_history();
    let third = history.len() / 3;
    for (list, el) in &history[..third] {
        let _ = store.insert(MergedListId(*list as u64), el.clone());
    }
    let _ = store.checkpoint();
    for (list, el) in &history[third..2 * third] {
        let _ = store.insert(MergedListId(*list as u64), el.clone());
    }
    for shard in 0..NUM_SHARDS {
        let _ = store.compact_shard(shard);
    }
    for (list, el) in &history[2 * third..] {
        let _ = store.insert(MergedListId(*list as u64), el.clone());
    }
}

/// Per-list oracle states: `states[l][k]` is list `l` after its first `k`
/// inserts from the history.  WAL replay preserves per-shard apply order,
/// so any recovered list must equal one of these prefixes exactly.
fn oracle_states(index: &OrderedIndex) -> Vec<Vec<Vec<OrderedElement>>> {
    let oracle = SingleMutexStore::new(index.clone());
    let mut states: Vec<Vec<Vec<OrderedElement>>> = (0..NUM_LISTS)
        .map(|l| vec![oracle.snapshot_list(MergedListId(l as u64)).unwrap()])
        .collect();
    for (list, el) in insert_history() {
        let id = MergedListId(list as u64);
        oracle.insert(id, el).unwrap();
        states[list].push(oracle.snapshot_list(id).unwrap());
    }
    states
}

/// Opens `dir` with the production IO path and audits it against the
/// oracle: ordering holds, budget accounting is exact, every list is some
/// prefix of its insert history, and the visibility summaries rebuilt by
/// recovery count — under a filter given unsorted, with a duplicate and an
/// absent id — what a recount of the recovered elements does.
fn audit_recovered(dir: &Path, states: &[Vec<Vec<OrderedElement>>], at: u64) -> SpillStore {
    let recovered = SpillStore::open(dir, spill_config(), durable_config(SyncPolicy::Always))
        .unwrap_or_else(|e| panic!("open after crash at budget {at} failed: {e}"));
    assert!(
        recovered.verify_ordering(),
        "ordering violated after crash at budget {at}"
    );
    assert!(
        recovered.budget_accounting_is_exact(),
        "budget accounting drifted after crash at budget {at}"
    );
    for (l, list_states) in states.iter().enumerate() {
        let got = recovered.snapshot_list(MergedListId(l as u64)).unwrap();
        assert!(
            list_states.contains(&got),
            "list {l} after crash at budget {at} is not a prefix of its history: \
             {} elements recovered",
            got.len()
        );
        let filter = [GroupId(3), GroupId(1), GroupId(3), GroupId(u32::MAX)];
        assert_eq!(
            recovered
                .visible_len(MergedListId(l as u64), Some(&filter))
                .unwrap(),
            got.iter().filter(|e| filter.contains(&e.group)).count(),
            "list {l} visibility after crash at budget {at}"
        );
    }
    recovered
}

/// The tentpole acceptance loop: crash at every recorded IO boundary (and
/// one budget unit before it, to tear multi-byte writes mid-way), then
/// recover with the production IO path and audit the result.
#[test]
fn kill_at_every_injection_point_recovers_a_prefix_of_history() {
    let index = fixture_index(NUM_LISTS, true);
    let states = oracle_states(&index);

    // Baseline directory: a cleanly created store, dropped intact.
    let root = TempRoot::new("kill-loop");
    let baseline = root.join("baseline");
    drop(
        SpillStore::create_durable_with(
            index.clone(),
            &baseline,
            NUM_SHARDS,
            spill_config(),
            segment_config(),
            durable_config(SyncPolicy::Always),
            FaultIo::new(FaultMode::KillAfter(u64::MAX)) as Arc<dyn PageIo>,
        )
        .unwrap(),
    );

    // Probe run: unlimited budget, identical workload, boundaries recorded.
    let probe_dir = root.join("probe");
    copy_dir(&baseline, &probe_dir);
    let probe_io = FaultIo::new(FaultMode::KillAfter(u64::MAX));
    let probe = SpillStore::open_with_io(
        &probe_dir,
        spill_config(),
        durable_config(SyncPolicy::Always),
        probe_io.clone() as Arc<dyn PageIo>,
    )
    .unwrap();
    run_workload(&probe);
    drop(probe);
    let mut points: Vec<u64> = probe_io.op_boundaries();
    points.extend(
        probe_io
            .op_boundaries()
            .iter()
            .filter_map(|b| b.checked_sub(1)),
    );
    points.sort_unstable();
    points.dedup();
    assert!(
        points.len() > 40,
        "probe recorded suspiciously few injection points: {}",
        points.len()
    );

    let crash_dir = root.join("crash");
    for &at in &points {
        copy_dir(&baseline, &crash_dir);
        let io = FaultIo::new(FaultMode::KillAfter(at));
        // The store may refuse to open only by returning an error — a crash
        // mid-workload (or mid-open) must never poison the directory.
        if let Ok(store) = SpillStore::open_with_io(
            &crash_dir,
            spill_config(),
            durable_config(SyncPolicy::Always),
            io.clone() as Arc<dyn PageIo>,
        ) {
            run_workload(&store);
            drop(store);
        }
        let recovered = audit_recovered(&crash_dir, &states, at);
        // The survivor keeps serving: a fresh insert round-trips through
        // another shutdown and reopen.
        let probe_el = element(1.5, 0, b"post-crash");
        recovered.insert(MergedListId(0), probe_el.clone()).unwrap();
        drop(recovered);
        let reopened = SpillStore::open(
            &crash_dir,
            spill_config(),
            durable_config(SyncPolicy::Always),
        )
        .unwrap();
        assert!(reopened
            .snapshot_list(MergedListId(0))
            .unwrap()
            .iter()
            .any(|e| e.sealed.ciphertext == b"post-crash"));
    }
}

/// A crash in the middle of recovery itself (while truncating a torn WAL
/// tail) must leave the directory recoverable by the next attempt.
#[test]
fn crash_during_recovery_truncation_is_itself_recoverable() {
    let index = fixture_index(NUM_LISTS, true);
    let states = oracle_states(&index);
    let root = TempRoot::new("crash-in-recovery");
    let baseline = root.join("baseline");
    let store = SpillStore::create_durable(
        index,
        &baseline,
        NUM_SHARDS,
        spill_config(),
        durable_config(SyncPolicy::Never),
    )
    .unwrap();
    for (list, el) in insert_history() {
        store.insert(MergedListId(list as u64), el).unwrap();
    }
    drop(store);

    // Tear both WAL tails mid-frame so recovery has truncation work to do.
    for shard in 0..NUM_SHARDS {
        let wal = baseline.join(format!("shard-{shard:03}.wal"));
        let len = fs::metadata(&wal).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
    }

    let crash_dir = root.join("crash");
    for at in 0..8u64 {
        copy_dir(&baseline, &crash_dir);
        let io = FaultIo::new(FaultMode::KillAfter(at));
        // Recovery under a dying process: the result (even Ok) is void.
        let _ = SpillStore::open_with_io(
            &crash_dir,
            spill_config(),
            durable_config(SyncPolicy::Always),
            io as Arc<dyn PageIo>,
        );
        let recovered = audit_recovered(&crash_dir, &states, at);
        assert!(recovered.metrics().truncated_wal_records <= NUM_SHARDS as u64);
    }
}

/// A lying fsync (`DropSyncs`: buffered writes, `sync` silently dropped)
/// across inserts *and* a checkpoint loses the un-synced work but must
/// never lose the store: recovery falls back to the previous manifest and
/// serves the last durable state.
#[test]
fn dropped_fsyncs_recover_to_the_last_durable_state() {
    let index = fixture_index(NUM_LISTS, true);
    let root = TempRoot::new("drop-syncs");
    let dir = root.join("store");
    let store = SpillStore::create_durable(
        index,
        &dir,
        NUM_SHARDS,
        spill_config(),
        durable_config(SyncPolicy::Always),
    )
    .unwrap();
    let history = insert_history();
    let (durable_half, lost_half) = history.split_at(history.len() / 2);
    for (list, el) in durable_half {
        store
            .insert(MergedListId(*list as u64), el.clone())
            .unwrap();
    }
    store.checkpoint().unwrap();
    drop(store);
    let baseline = {
        let s = SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always)).unwrap();
        let snap: Vec<_> = (0..NUM_LISTS)
            .map(|l| s.snapshot_list(MergedListId(l as u64)).unwrap())
            .collect();
        snap
    };

    let liar = SpillStore::open_with_io(
        &dir,
        spill_config(),
        durable_config(SyncPolicy::Always),
        FaultIo::new(FaultMode::DropSyncs) as Arc<dyn PageIo>,
    )
    .unwrap();
    for (list, el) in lost_half {
        liar.insert(MergedListId(*list as u64), el.clone()).unwrap();
    }
    // The checkpoint "succeeds" in memory, but nothing it wrote is durable:
    // the manifest commit publishes a hollow file over the current slot.
    liar.checkpoint().unwrap();
    drop(liar);

    let recovered =
        SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always)).unwrap();
    assert!(recovered.verify_ordering());
    assert!(recovered.budget_accounting_is_exact());
    for (l, expected) in baseline.iter().enumerate() {
        assert_eq!(
            &recovered.snapshot_list(MergedListId(l as u64)).unwrap(),
            expected,
            "list {l} does not match the last durable state"
        );
    }
}

/// Under `SyncPolicy::Always` every acknowledged insert survives a
/// buffered power loss: each append is fsynced before `insert` returns, so
/// the `Buffered` shim (which drops whatever was not synced) loses nothing.
#[test]
fn buffered_power_loss_keeps_every_acknowledged_insert() {
    let index = fixture_index(NUM_LISTS, true);
    let root = TempRoot::new("buffered-always");
    let dir = root.join("store");
    drop(
        SpillStore::create_durable(
            index.clone(),
            &dir,
            NUM_SHARDS,
            spill_config(),
            durable_config(SyncPolicy::Always),
        )
        .unwrap(),
    );

    let store = SpillStore::open_with_io(
        &dir,
        spill_config(),
        durable_config(SyncPolicy::Always),
        FaultIo::new(FaultMode::Buffered) as Arc<dyn PageIo>,
    )
    .unwrap();
    for (list, el) in insert_history() {
        store.insert(MergedListId(list as u64), el).unwrap();
    }
    drop(store);

    let oracle = oracle_states(&index);
    let recovered =
        SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always)).unwrap();
    for (l, list_states) in oracle.iter().enumerate() {
        assert_eq!(
            &recovered.snapshot_list(MergedListId(l as u64)).unwrap(),
            list_states.last().unwrap(),
            "list {l} lost acknowledged inserts"
        );
    }
}

/// Under `SyncPolicy::EveryN` a *clean* shutdown must still keep every
/// acknowledged insert: batched fsync is allowed to lose the unsynced tail
/// on a crash, never on an orderly drop.  The drop path flushes and syncs
/// the WAL tails; the `Buffered` shim (which discards whatever was never
/// synced) proves it — without the drop-time sync, up to N-1 acknowledged
/// appends would evaporate here.
#[test]
fn clean_drop_under_batched_sync_keeps_every_acknowledged_insert() {
    let index = fixture_index(NUM_LISTS, true);
    let root = TempRoot::new("buffered-everyn-drop");
    let dir = root.join("store");
    let durable = durable_config(SyncPolicy::EveryN(1000));
    drop(
        SpillStore::create_durable(index.clone(), &dir, NUM_SHARDS, spill_config(), durable)
            .unwrap(),
    );

    let store = SpillStore::open_with_io(
        &dir,
        spill_config(),
        durable,
        FaultIo::new(FaultMode::Buffered) as Arc<dyn PageIo>,
    )
    .unwrap();
    for (list, el) in insert_history() {
        store.insert(MergedListId(list as u64), el).unwrap();
    }
    // With N = 1000 nothing hit the sync threshold: only the drop-path
    // flush stands between the acknowledged inserts and the bit bucket.
    drop(store);

    let oracle = oracle_states(&index);
    let recovered = SpillStore::open(&dir, spill_config(), durable).unwrap();
    for (l, list_states) in oracle.iter().enumerate() {
        assert_eq!(
            &recovered.snapshot_list(MergedListId(l as u64)).unwrap(),
            list_states.last().unwrap(),
            "list {l} lost acknowledged inserts across a clean shutdown"
        );
    }
}

/// A bit-flip inside the WAL truncates the log at the corrupt frame and
/// keeps serving everything before it — corruption never panics and never
/// bricks the store.
#[test]
fn bit_flip_in_wal_truncates_at_the_corrupt_frame_and_serves() {
    let index = fixture_index(1, false);
    let root = TempRoot::new("wal-flip");
    let dir = root.join("store");
    let store = SpillStore::create_durable(
        index,
        &dir,
        1,
        spill_config(),
        durable_config(SyncPolicy::Never),
    )
    .unwrap();
    for i in 0..6u32 {
        store
            .insert(MergedListId(0), element(60.0 - i as f64, i, b"flip"))
            .unwrap();
    }
    drop(store);

    // Flip one byte in the fourth frame's payload: frames are
    // 8 (header) + 8 (seq) + 8 (list) + 14 + 4 (element) = 42 bytes.
    let wal = dir.join("shard-000.wal");
    let mut bytes = fs::read(&wal).unwrap();
    assert_eq!(bytes.len(), 6 * 42);
    bytes[3 * 42 + 20] ^= 0x10;
    fs::write(&wal, &bytes).unwrap();

    let recovered =
        SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Never)).unwrap();
    assert_eq!(recovered.num_elements(), 3);
    assert_eq!(recovered.metrics().truncated_wal_records, 1);
    assert!(recovered.verify_ordering());
    recovered
        .insert(MergedListId(0), element(1.0, 0, b"after"))
        .unwrap();
    drop(recovered);
    let reopened =
        SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Never)).unwrap();
    assert_eq!(reopened.num_elements(), 4);
}

/// A bit-flip inside a checkpointed page referenced by the manifest is
/// detected by full segment validation: `open` reports a clean error, it
/// does not panic and does not serve corrupt data.
#[test]
fn bit_flip_in_a_checkpointed_page_fails_recovery_cleanly() {
    let index = fixture_index(2, true);
    let root = TempRoot::new("page-flip");
    let dir = root.join("store");
    let store = SpillStore::create_durable_with(
        index,
        &dir,
        1,
        spill_config(),
        segment_config(),
        durable_config(SyncPolicy::Always),
        FaultIo::new(FaultMode::KillAfter(u64::MAX)) as Arc<dyn PageIo>,
    )
    .unwrap();
    for i in 0..8u32 {
        store
            .insert(MergedListId(0), element(80.0 - i as f64, i, b"pageload"))
            .unwrap();
    }
    store.checkpoint().unwrap();
    drop(store);

    // The file ends with the last page the checkpoint sealed, so the final
    // bytes are always manifest-referenced state (earlier regions may be
    // dead pages superseded by insert rewrites).
    let pages = dir.join("shard-000.g0.pages");
    let mut bytes = fs::read(&pages).unwrap();
    assert!(bytes.len() > 16, "checkpoint produced no page data");
    let target = bytes.len() - 3;
    bytes[target] ^= 0x5A;
    fs::write(&pages, &bytes).unwrap();

    let result = SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always));
    assert!(
        result.is_err(),
        "recovery accepted a corrupted checkpointed page"
    );
}

/// Recovery metering: reopening a checkpointed store reports the pages it
/// loaded from the manifest.
#[test]
fn reopening_a_checkpointed_store_meters_recovered_pages() {
    let index = fixture_index(2, true);
    let root = TempRoot::new("recovered-pages");
    let dir = root.join("store");
    let store = SpillStore::create_durable_with(
        index,
        &dir,
        1,
        spill_config(),
        segment_config(),
        durable_config(SyncPolicy::Always),
        FaultIo::new(FaultMode::KillAfter(u64::MAX)) as Arc<dyn PageIo>,
    )
    .unwrap();
    for i in 0..8u32 {
        store
            .insert(MergedListId(0), element(80.0 - i as f64, i, b"meter"))
            .unwrap();
    }
    store.checkpoint().unwrap();
    let elements = store.num_elements();
    drop(store);

    let recovered =
        SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always)).unwrap();
    assert_eq!(recovered.num_elements(), elements);
    assert!(
        recovered.metrics().recovered_pages > 0,
        "checkpointed segments were not recovered from pages"
    );
    assert_eq!(recovered.metrics().truncated_wal_records, 0);
}

/// Fixed-size WAL frames for the truncation property:
/// 8 (header) + 8 (seq) + 8 (list) + (8 + 4 + 2 + 4 ciphertext) = 42 bytes.
const FRAME: u64 = 42;
const PREFIX_INSERTS: usize = 8;

/// One case of the kill-at-every-byte WAL truncation property: builds a
/// store whose log holds `PREFIX_INSERTS` equal-sized frames, cuts the log
/// at `cut`, and checks that recovery serves exactly the fully-fitting
/// frames, counts one truncated tail iff the cut lands mid-frame, and
/// still accepts and round-trips new inserts.
fn wal_prefix_case(cut: u64) {
    let index = fixture_index(1, false);
    let root = TempRoot::new("wal-prefix");
    let dir = root.join("store");
    let store = SpillStore::create_durable(
        index.clone(),
        &dir,
        1,
        spill_config(),
        durable_config(SyncPolicy::Never),
    )
    .unwrap();
    let oracle = SingleMutexStore::new(index);
    let mut states = vec![oracle.snapshot_list(MergedListId(0)).unwrap()];
    for i in 0..PREFIX_INSERTS as u32 {
        let el = element(50.0 - 3.0 * i as f64, i, &i.to_le_bytes());
        store.insert(MergedListId(0), el.clone()).unwrap();
        oracle.insert(MergedListId(0), el).unwrap();
        states.push(oracle.snapshot_list(MergedListId(0)).unwrap());
    }
    drop(store);
    let wal = dir.join("shard-000.wal");
    assert_eq!(
        fs::metadata(&wal).unwrap().len(),
        PREFIX_INSERTS as u64 * FRAME
    );

    fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(cut)
        .unwrap();

    let recovered = SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Never))
        .unwrap_or_else(|e| panic!("open after cut at byte {cut} failed: {e}"));
    let fitting = (cut / FRAME) as usize;
    let torn = !cut.is_multiple_of(FRAME);
    assert_eq!(
        recovered.snapshot_list(MergedListId(0)).unwrap(),
        states[fitting],
        "cut at byte {cut}"
    );
    assert_eq!(recovered.metrics().truncated_wal_records, u64::from(torn));
    assert!(recovered.verify_ordering());
    assert!(recovered.budget_accounting_is_exact());

    // The truncated store keeps accepting writes durably.
    recovered
        .insert(MergedListId(0), element(0.5, 1, b"tail"))
        .unwrap();
    drop(recovered);
    let reopened =
        SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Never)).unwrap();
    assert_eq!(reopened.num_elements(), fitting + 1);
}

/// A one-shard durable store in `root/store` with checkpointed pages and
/// one logged insert past the checkpoint, dropped cleanly.
fn checkpointed_store_with_a_logged_insert(root: &Path) -> PathBuf {
    let dir = root.join("store");
    let store = SpillStore::create_durable_with(
        fixture_index(2, true),
        &dir,
        1,
        spill_config(),
        segment_config(),
        durable_config(SyncPolicy::Always),
        FaultIo::new(FaultMode::KillAfter(u64::MAX)) as Arc<dyn PageIo>,
    )
    .unwrap();
    store
        .insert(MergedListId(0), element(50.0, 1, b"logged"))
        .unwrap();
    drop(store);
    dir
}

/// Rewrites the trailing CRC32 of a manifest after a field was patched: the
/// value stays CRC-valid, as a deliberate or unlucky corruption can be.
fn patch_manifest(path: &Path, at: usize, value: u64) {
    let mut bytes = fs::read(path).unwrap();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    fs::write(path, bytes).unwrap();
}

/// Manifest layout: magic, version, generation, applied seq, list count
/// (8 bytes each), then list 0's page count and its first page's offset.
const MANIFEST_GENERATION: usize = 16;
const MANIFEST_FIRST_PAGE_OFFSET: usize = 48;

/// A CRC-valid manifest whose page extent `offset + len` passes `u64::MAX`
/// is refused with a typed error, not computed with an overflow.
#[test]
fn a_manifest_page_extent_past_u64_max_fails_open_cleanly() {
    let root = TempRoot::new("manifest-extent-overflow");
    let dir = checkpointed_store_with_a_logged_insert(&root);
    patch_manifest(
        &dir.join("shard-000.manifest"),
        MANIFEST_FIRST_PAGE_OFFSET,
        u64::MAX - 1,
    );
    let result = SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always));
    assert!(
        matches!(result, Err(StoreError::CorruptSegment(_))),
        "{result:?}"
    );
}

/// A CRC-valid WAL frame carrying sequence number `u64::MAX` leaves no
/// successor for the next append: `open` refuses the log with a typed error.
#[test]
fn a_wal_frame_with_the_last_sequence_number_fails_open_cleanly() {
    let root = TempRoot::new("wal-seq-overflow");
    let dir = checkpointed_store_with_a_logged_insert(&root);
    // Frame layout: payload length, payload CRC32, then the payload, whose
    // first field is the sequence number.
    let wal = dir.join("shard-000.wal");
    let mut bytes = fs::read(&wal).unwrap();
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    assert_eq!(bytes.len(), 8 + len, "exactly one logged frame");
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let crc = crc32(&bytes[8..8 + len]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    fs::write(&wal, bytes).unwrap();
    let result = SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always));
    assert!(
        matches!(result, Err(StoreError::CorruptSegment(_))),
        "{result:?}"
    );
}

/// A store recovered at page-file generation `u64::MAX` serves, but has no
/// next generation to compact into: compaction fails with a typed error
/// and the store keeps serving.
#[test]
fn compaction_at_the_last_page_file_generation_fails_cleanly() {
    let root = TempRoot::new("generation-overflow");
    let dir = checkpointed_store_with_a_logged_insert(&root);
    patch_manifest(
        &dir.join("shard-000.manifest"),
        MANIFEST_GENERATION,
        u64::MAX,
    );
    fs::rename(
        dir.join("shard-000.g0.pages"),
        dir.join(format!("shard-000.g{}.pages", u64::MAX)),
    )
    .unwrap();
    let store = SpillStore::open(&dir, spill_config(), durable_config(SyncPolicy::Always)).unwrap();
    let before = store.snapshot_list(MergedListId(0)).unwrap();
    assert!(matches!(
        store.compact_shard(0),
        Err(StoreError::CorruptSegment(_))
    ));
    assert_eq!(store.snapshot_list(MergedListId(0)).unwrap(), before);
}

/// Every cut point is a distinct crash: exhaustively sweep the frame
/// boundaries and their neighbours, then sample the rest randomly.
#[test]
fn wal_truncated_at_frame_boundaries_recovers_fitting_frames() {
    for frame in 0..=PREFIX_INSERTS as u64 {
        let boundary = frame * FRAME;
        wal_prefix_case(boundary);
        if frame > 0 {
            wal_prefix_case(boundary - 1);
            wal_prefix_case(boundary - FRAME / 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite 3 — any byte prefix of the WAL recovers exactly the
    /// fully-fitting frames.
    #[test]
    fn wal_truncated_at_any_byte_recovers_fitting_frames(
        cut in 0u64..(PREFIX_INSERTS as u64 * FRAME + 1)
    ) {
        wal_prefix_case(cut);
    }
}
