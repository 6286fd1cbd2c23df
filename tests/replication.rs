//! Fault-injected primary→replica replication tests.
//!
//! The acceptance bar for the replication stream is the same one the
//! durable store holds for crashes, extended across the wire: **every
//! observable replica state is an exact per-list prefix of the primary's
//! insert history** (verified against an in-memory `SingleMutexStore`
//! oracle), catch-up converges to element-for-element equality at
//! quiescence, and a replica lagging past its staleness bound returns the
//! typed `Degraded` error instead of stale answers.
//!
//! Faults come from two deterministic shims composed freely:
//! `FaultTransport` tears, bit-flips, duplicates and reorders frames,
//! drops connections and kills the stream after a budget; `FaultIo` (the
//! durable layer's crash shim) freezes the replica's *own disk* at an
//! exact IO boundary, modelling a replica process death mid-bootstrap or
//! mid-apply.  The kill-at-every-boundary loop sweeps the latter over
//! every recorded injection point, reopens the frozen directory with the
//! production IO path, re-subscribes and requires convergence.

mod common;

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use common::TempRoot;
use zerber_suite::corpus::{GroupId, TermId};
use zerber_suite::protocol::{AccessControl, IndexServer, ProtocolError, QueryRequest};
use zerber_suite::store::{
    DurableConfig, FaultIo, FaultMode, FaultPlan, FaultTransport, InProcessTransport, ListStore,
    PageIo, PumpOutcome, RangedFetch, RealIo, Replica, ReplicaConfig, ReplicaTransport,
    ReplicationSource, SegmentConfig, SingleMutexStore, SpillConfig, SpillStore, StoreError,
    SyncPolicy,
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

fn fixture_index(seeded: bool) -> OrderedIndex {
    let plan = MergePlan::from_term_lists(
        (0..NUM_LISTS).map(|i| vec![TermId(i as u32)]).collect(),
        "replication-fixture",
        2.0,
    );
    let lists = (0..NUM_LISTS)
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

fn durable_config() -> DurableConfig {
    DurableConfig {
        sync: SyncPolicy::Always,
        // Checkpoints in these tests are explicit, so every WAL reset (and
        // therefore every forced re-snapshot) is placed by the test itself.
        checkpoint_wal_bytes: 1 << 30,
    }
}

/// Zero-delay backoff (deterministic tests never sleep), small batches so
/// catch-up takes several polls.
fn replica_config() -> ReplicaConfig {
    ReplicaConfig {
        spill: spill_config(),
        durable: durable_config(),
        max_lag: 1 << 20,
        batch_frames: 5,
        backoff_base: Duration::ZERO,
        backoff_cap: Duration::ZERO,
        max_attempts: 64,
    }
}

fn create_primary(dir: &Path, index: OrderedIndex) -> Arc<SpillStore> {
    Arc::new(
        SpillStore::create_durable_with(
            index,
            dir,
            NUM_SHARDS,
            spill_config(),
            segment_config(),
            durable_config(),
            RealIo::shared(),
        )
        .unwrap(),
    )
}

/// The deterministic insert history: interleaved across all lists, TRS
/// values landing above, between and below the seeded elements.
fn insert_history() -> Vec<(usize, OrderedElement)> {
    (0..18usize)
        .map(|i| {
            let list = i % NUM_LISTS;
            let trs = 95.0 - 6.0 * i as f64;
            (list, element(trs, i as u32, format!("r{i:02}").as_bytes()))
        })
        .collect()
}

/// Per-list oracle states: `states[l][k]` is list `l` after its first `k`
/// inserts from the history.  Replication applies per-shard WAL order, and
/// a list lives in exactly one shard, so any observable replica list must
/// equal one of these prefixes exactly.
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

/// Every list of `store` must be an exact prefix of its insert history.
fn assert_prefix(store: &SpillStore, states: &[Vec<Vec<OrderedElement>>], ctx: &str) {
    for (l, list_states) in states.iter().enumerate() {
        let got = store.snapshot_list(MergedListId(l as u64)).unwrap();
        assert!(
            list_states.contains(&got),
            "{ctx}: list {l} is not a prefix of its history ({} elements)",
            got.len()
        );
    }
}

/// Every list of `store` must equal the final oracle state exactly.
fn assert_converged(store: &SpillStore, states: &[Vec<Vec<OrderedElement>>], ctx: &str) {
    for (l, list_states) in states.iter().enumerate() {
        assert_eq!(
            &store.snapshot_list(MergedListId(l as u64)).unwrap(),
            list_states.last().unwrap(),
            "{ctx}: list {l} did not converge to the primary's state"
        );
    }
}

/// Baseline: bootstrap from a snapshot mid-history, stream the rest over a
/// clean in-process transport, converge to element-for-element equality.
#[test]
fn replica_bootstraps_streams_and_matches_the_oracle() {
    let index = fixture_index(true);
    let states = oracle_states(&index);
    let root = TempRoot::new("baseline");
    let primary = create_primary(&root.join("primary"), index);
    let history = insert_history();
    let (before, after) = history.split_at(history.len() / 2);
    for (list, el) in before {
        primary
            .insert(MergedListId(*list as u64), el.clone())
            .unwrap();
    }

    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    let transport = InProcessTransport::new(source);
    let mut replica = Replica::bootstrap(
        transport as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        replica_config(),
    )
    .unwrap();
    // The snapshot alone carries the primary's exact mid-history state.
    assert_prefix(&replica.store(), &states, "post-bootstrap");
    assert_eq!(replica.lag(), 0);
    assert_eq!(replica.applied_seqs().len(), NUM_SHARDS);

    for (list, el) in after {
        primary
            .insert(MergedListId(*list as u64), el.clone())
            .unwrap();
    }
    replica.catch_up(200).unwrap();
    assert_converged(&replica.store(), &states, "post-catch-up");
    assert_eq!(replica.lag(), 0);
    let stats = replica.stats();
    assert_eq!(stats.frames_streamed, after.len() as u64);
    assert_eq!(stats.frames_skipped, 0);
    assert_eq!(stats.resnapshots, 0);

    // The serving wrapper answers like the store it fronts and refuses
    // writes.
    let serving = replica.serving_store();
    let list = MergedListId(0);
    let fetch = RangedFetch {
        list,
        offset: 0,
        count: 5,
    };
    assert_eq!(
        serving.fetch_ranged(&fetch, None).unwrap(),
        primary.fetch_ranged(&fetch, None).unwrap()
    );
    assert!(serving.insert(list, element(0.1, 0, b"nope")).is_err());
    // Replica-side durable metrics pass through: streamed frames were
    // re-logged into the replica's own WAL.
    assert!(serving.metrics().wal_appends >= after.len() as u64);
}

/// The full transport fault matrix — torn frames, bit flips, duplicates,
/// reordering and disconnects all active at once.  After *every* pump the
/// replica must be an exact per-list prefix of the history; at quiescence
/// it must equal the primary exactly, with duplicates metered as skips and
/// disconnects metered as reconnects.
#[test]
fn fault_matrix_keeps_every_replica_state_a_prefix_of_history() {
    let index = fixture_index(true);
    let states = oracle_states(&index);
    let root = TempRoot::new("fault-matrix");
    let primary = create_primary(&root.join("primary"), index);
    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    let faults = FaultTransport::new(
        InProcessTransport::new(source) as Arc<dyn ReplicaTransport>,
        FaultPlan {
            tear_every: 3,
            flip_every: 5,
            duplicate_every: 4,
            reorder_every: 2,
            disconnect_every: 3,
            ..FaultPlan::default()
        },
    );
    let mut replica = Replica::bootstrap(
        Arc::clone(&faults) as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        replica_config(),
    )
    .unwrap();

    for (list, el) in insert_history() {
        primary.insert(MergedListId(list as u64), el).unwrap();
        match replica.pump().unwrap() {
            PumpOutcome::Resnapshotted => panic!("clean history must never need a re-snapshot"),
            PumpOutcome::Progress { .. }
            | PumpOutcome::Disconnected { .. }
            | PumpOutcome::CaughtUp => {}
        }
        assert_prefix(&replica.store(), &states, "mid-stream");
    }
    // Quiescence: the primary stops writing, the replica must converge.
    for _ in 0..500 {
        if matches!(replica.pump().unwrap(), PumpOutcome::CaughtUp) {
            break;
        }
    }
    assert_converged(&replica.store(), &states, "quiescence");
    let stats = replica.stats();
    assert_eq!(stats.lag, 0);
    assert_eq!(stats.resnapshots, 0, "no history gap, no re-snapshot");
    assert!(stats.frames_skipped > 0, "duplicates must be metered");
    assert!(stats.reconnects > 0, "disconnects must be metered");
    assert!(
        faults.frames_delivered() > 18,
        "faults forced retransmission"
    );

    // The replica's own durable root survives all of it: reopen from disk
    // and verify the converged state again through the full recovery path.
    drop(replica);
    let reopened = Replica::reopen(
        faults as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        replica_config(),
    )
    .unwrap();
    assert_converged(&reopened.store(), &states, "reopened");
}

/// A checkpoint on the primary resets its WAL; a replica whose position
/// predates the reset can no longer be served a tail and must be told to
/// re-snapshot — never silently skipped past the gap.
#[test]
fn checkpoint_gap_forces_a_resnapshot_instead_of_divergence() {
    let index = fixture_index(true);
    let states = oracle_states(&index);
    let root = TempRoot::new("resnapshot");
    let primary = create_primary(&root.join("primary"), index);
    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    let transport = InProcessTransport::new(source);
    let mut replica = Replica::bootstrap(
        transport as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        replica_config(),
    )
    .unwrap();

    // The primary advances AND checkpoints: the WAL records the replica
    // needs are folded into the checkpoint and gone from the log.
    for (list, el) in insert_history() {
        primary.insert(MergedListId(list as u64), el).unwrap();
    }
    primary.checkpoint().unwrap();

    let outcome = replica.pump().unwrap();
    assert_eq!(outcome, PumpOutcome::Resnapshotted);
    assert_converged(&replica.store(), &states, "post-resnapshot");
    let stats = replica.stats();
    assert_eq!(stats.resnapshots, 1);
    assert_eq!(stats.lag, 0);
    // The superseded generation directory was cleaned up.
    assert!(
        !root.join("replica").join("gen-0").exists(),
        "stale generation left behind"
    );
    assert!(root.join("replica").join("gen-1").exists());
}

/// Bounded staleness: a replica that cannot apply (every frame torn) sees
/// the primary's head advance past `max_lag` and must answer reads with
/// the typed `Degraded` error — through the store trait AND the protocol
/// server — until it catches up again.
#[test]
fn lagging_replica_degrades_reads_until_it_catches_up() {
    let index = fixture_index(true);
    let states = oracle_states(&index);
    let root = TempRoot::new("degraded");
    let primary = create_primary(&root.join("primary"), index);
    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    let faults = FaultTransport::new(
        InProcessTransport::new(Arc::clone(&source)) as Arc<dyn ReplicaTransport>,
        FaultPlan {
            tear_every: 1, // every frame torn: heads advance, apply cannot
            ..FaultPlan::default()
        },
    );
    let mut config = replica_config();
    config.max_lag = 2;
    let mut replica = Replica::bootstrap(
        faults as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        config.clone(),
    )
    .unwrap();

    let history = insert_history();
    for (list, el) in &history {
        primary
            .insert(MergedListId(*list as u64), el.clone())
            .unwrap();
    }
    assert!(matches!(
        replica.pump().unwrap(),
        PumpOutcome::Disconnected { .. }
    ));
    let lag = replica.lag();
    assert!(lag > 2, "torn stream must leave the replica lagging: {lag}");

    // Store-level guard: typed error, not stale data.
    let serving = replica.serving_store();
    let fetch = RangedFetch {
        list: MergedListId(0),
        offset: 0,
        count: 3,
    };
    match serving.fetch_ranged(&fetch, None) {
        Err(StoreError::Degraded { lag: l, max_lag }) => {
            assert_eq!(l, lag);
            assert_eq!(max_lag, 2);
        }
        other => panic!("expected Degraded, got {other:?}"),
    }

    // Protocol-level guard: the server fronting the replica returns the
    // typed Degraded response and reports the lag gauge in its stats.
    let mut acl = AccessControl::new(b"replica-degraded");
    acl.register_user("reader", &[GroupId(0), GroupId(1), GroupId(2), GroupId(3)]);
    let server = IndexServer::with_store(Box::new(replica.serving_store()), acl);
    let token = server.acl().issue_token("reader");
    let request = QueryRequest {
        user: "reader".into(),
        list: 0,
        offset: 0,
        cursor: 0,
        count: 3,
        k: 3,
    };
    match server.handle_query(&request, &token) {
        Err(ProtocolError::Degraded { lag: l, max_lag }) => {
            assert_eq!(l, lag);
            assert_eq!(max_lag, 2);
        }
        other => panic!("expected protocol Degraded, got {other:?}"),
    }
    assert_eq!(server.stats().replica_lag, lag);

    // Recovery: reopen the same root behind a clean transport, catch up,
    // and the exact same read serves — fresh data, not an error.
    drop(replica);
    let clean = InProcessTransport::new(source);
    let mut healed = Replica::reopen(
        clean as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        config,
    )
    .unwrap();
    healed.catch_up(500).unwrap();
    assert_converged(&healed.store(), &states, "healed");
    let serving = healed.serving_store();
    assert_eq!(
        serving.fetch_ranged(&fetch, None).unwrap(),
        primary.fetch_ranged(&fetch, None).unwrap()
    );
    assert_eq!(serving.metrics().replica_lag, 0);
}

/// One run of the replication workload with the replica's own disk frozen
/// at IO budget `at` (`u64::MAX` = never): bootstrap mid-history, stream
/// the rest in chunks.  Returns the probe IO shim so the caller can read
/// the recorded boundaries.
fn run_replica_until_frozen(root: &Path, at: u64) -> Arc<FaultIo> {
    let primary_dir = root.join("primary");
    let replica_dir = root.join("replica");
    let _ = fs::remove_dir_all(&primary_dir);
    let _ = fs::remove_dir_all(&replica_dir);
    let primary = create_primary(&primary_dir, fixture_index(true));
    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    let transport = InProcessTransport::new(source);
    let io = FaultIo::new(FaultMode::KillAfter(at));
    // A bootstrap refused because the disk died mid-write is a legal
    // outcome; the recovery phase below must cope with whatever is on disk.
    let mut replica = Replica::bootstrap_with(
        transport as Arc<dyn ReplicaTransport>,
        &replica_dir,
        replica_config(),
        io.clone() as Arc<dyn PageIo>,
    )
    .ok();
    // Stream in chunks; the frozen disk silently swallows the replica's own
    // writes (exactly like a crashed process), the in-memory side keeps
    // going — whatever made it to disk before the freeze is what recovery
    // gets.
    for chunk in insert_history().chunks(6) {
        for (list, el) in chunk {
            primary
                .insert(MergedListId(*list as u64), el.clone())
                .unwrap();
        }
        if let Some(r) = replica.as_mut() {
            let _ = r.catch_up(500);
        }
    }
    io
}

/// Satellite acceptance loop: crash the replica's disk at every recorded
/// IO boundary (and one unit before it, to land inside multi-byte writes),
/// reopen the frozen directory with the production IO path, audit the
/// recovered state against the oracle prefix property, re-subscribe and
/// require element-for-element convergence — including a post-recovery
/// write round-tripping primary → replica.
#[test]
fn kill_at_every_boundary_replica_recovers_and_catches_up() {
    let index = fixture_index(true);
    let states = oracle_states(&index);
    let root = TempRoot::new("kill-loop");

    // Probe run: unlimited budget records every IO boundary of the replica's
    // own disk (snapshot install, WAL appends from applied frames, page
    // spills).
    let probe_io = run_replica_until_frozen(&root, u64::MAX);
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

    for &at in &points {
        let io = run_replica_until_frozen(&root, at);
        assert!(at == u64::MAX || io.crashed() || io.spent() <= at);
        let replica_dir = root.join("replica");

        // Reopen whatever survived with the production IO path.  A root
        // with no recoverable generation (the freeze hit before the first
        // durable byte) bootstraps from scratch instead — either way the
        // replica must come back.
        let primary = Arc::new(
            SpillStore::open_with_io(
                root.join("primary"),
                spill_config(),
                durable_config(),
                RealIo::shared(),
            )
            .unwrap(),
        );
        let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
        let transport = InProcessTransport::new(source);
        let mut replica = match Replica::reopen(
            Arc::clone(&transport) as Arc<dyn ReplicaTransport>,
            &replica_dir,
            replica_config(),
        ) {
            Ok(replica) => {
                // The recovered (pre-catch-up) state must already be an
                // exact prefix of the history.
                assert_prefix(&replica.store(), &states, &format!("recovered at {at}"));
                replica
            }
            Err(_) => Replica::bootstrap(
                transport as Arc<dyn ReplicaTransport>,
                &replica_dir,
                replica_config(),
            )
            .unwrap_or_else(|e| panic!("re-bootstrap after freeze at {at} failed: {e}")),
        };
        replica
            .catch_up(1000)
            .unwrap_or_else(|e| panic!("catch-up after freeze at {at} failed: {e}"));
        assert_converged(&replica.store(), &states, &format!("caught up at {at}"));

        // The recovered replica keeps following: a fresh primary write
        // round-trips.
        let probe_el = element(1.5, 0, b"post-crash");
        primary.insert(MergedListId(0), probe_el.clone()).unwrap();
        replica.catch_up(100).unwrap();
        assert!(replica
            .store()
            .snapshot_list(MergedListId(0))
            .unwrap()
            .iter()
            .any(|e| e.sealed.ciphertext == b"post-crash"));
    }
}

/// The disconnect-storm stress case verify.sh loops 5× under `--release`:
/// rounds of primary writes against a transport that disconnects every
/// other poll and duplicates/reorders what it does deliver, with a
/// transport kill (process death) and reopen in the middle.
#[test]
fn disconnect_storm_replication_converges() {
    let root = TempRoot::new("disconnect-storm");
    let primary = create_primary(&root.join("primary"), fixture_index(true));
    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    let plan = FaultPlan {
        tear_every: 7,
        duplicate_every: 3,
        reorder_every: 2,
        disconnect_every: 2,
        kill_after: Some(40),
        ..FaultPlan::default()
    };
    let faults = FaultTransport::new(
        InProcessTransport::new(source) as Arc<dyn ReplicaTransport>,
        plan,
    );
    let mut replica = Replica::bootstrap(
        Arc::clone(&faults) as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        replica_config(),
    )
    .unwrap();

    let history = insert_history();
    let mut killed = false;
    for round in 0..6 {
        for (list, el) in &history {
            let mut el = el.clone();
            el.trs -= round as f64 * 0.001; // distinct elements per round
            primary.insert(MergedListId(*list as u64), el).unwrap();
        }
        // Pump through the storm until this round is fully replicated; a
        // transport kill models the replica process dying mid-storm — the
        // harness revives the transport and reopens the replica from its
        // own durable root.
        loop {
            match replica.pump() {
                Ok(PumpOutcome::CaughtUp) => break,
                Ok(_) => {}
                Err(_) => {
                    assert!(faults.killed(), "only the injected kill may error");
                    assert!(!killed, "the kill budget fires once");
                    killed = true;
                    faults.revive();
                    replica = Replica::reopen(
                        Arc::clone(&faults) as Arc<dyn ReplicaTransport>,
                        root.join("replica"),
                        replica_config(),
                    )
                    .unwrap();
                }
            }
        }
        // Converged mid-storm: every list equals the primary exactly.
        for l in 0..NUM_LISTS as u64 {
            let id = MergedListId(l);
            assert_eq!(
                replica.store().snapshot_list(id).unwrap(),
                primary.snapshot_list(id).unwrap(),
                "round {round}: list {l} diverged"
            );
        }
    }
    assert!(killed, "the kill budget must have fired");
    assert!(replica.stats().reconnects > 0);
    assert!(replica.stats().frames_skipped > 0);
}

/// Graceful-shutdown durability companion (the satellite fix lives in the
/// store's drop path): a replica shut down cleanly mid-stream loses
/// nothing it acknowledged, even under `SyncPolicy::EveryN` batching.
#[test]
fn clean_replica_shutdown_keeps_every_applied_frame() {
    let index = fixture_index(true);
    let states = oracle_states(&index);
    let root = TempRoot::new("clean-shutdown");
    let primary = create_primary(&root.join("primary"), index);
    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    let transport = InProcessTransport::new(source);
    let mut config = replica_config();
    // Batched fsync: without the drop-path flush, up to 999 applied frames
    // would evaporate on a clean shutdown.
    config.durable = DurableConfig {
        sync: SyncPolicy::EveryN(1000),
        checkpoint_wal_bytes: 1 << 30,
    };
    let mut replica = Replica::bootstrap(
        Arc::clone(&transport) as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        config.clone(),
    )
    .unwrap();
    for (list, el) in insert_history() {
        primary.insert(MergedListId(list as u64), el).unwrap();
    }
    replica.catch_up(500).unwrap();
    assert_converged(&replica.store(), &states, "pre-shutdown");
    drop(replica);

    let reopened = Replica::reopen(
        transport as Arc<dyn ReplicaTransport>,
        root.join("replica"),
        config,
    )
    .unwrap();
    assert_converged(&reopened.store(), &states, "post-clean-shutdown");
    assert_eq!(reopened.lag(), 0);
}

/// A subscriber position of `u64::MAX` — anything the transport hands
/// over — never panics the source: past the end of every shard's log it
/// simply yields no frames, even once the primary's WAL holds records.
#[test]
fn frames_after_the_last_sequence_number_yield_nothing() {
    let root = TempRoot::new("frames-after-max");
    let primary = create_primary(&root.join("primary"), fixture_index(true));
    let source = ReplicationSource::new(Arc::clone(&primary)).unwrap();
    for l in 0..NUM_LISTS as u64 {
        primary
            .insert(MergedListId(l), element(0.5, l as u32, b"logged"))
            .unwrap();
    }
    let batch = source
        .frames_after(&[u64::MAX; NUM_SHARDS], 16)
        .expect("a position past the log is an answer, not an error");
    assert!(batch.frames.is_empty());
    assert!(!batch.need_snapshot);
    assert_eq!(batch.heads.len(), NUM_SHARDS);
    assert!(batch.heads.iter().all(|&head| head > 0));
}

/// Replication refuses a non-durable primary: without a WAL and manifests
/// there is nothing to snapshot or stream.
#[test]
fn ephemeral_primary_is_refused() {
    let root = TempRoot::new("spill-primary");
    let store = SpillStore::with_configs(
        fixture_index(true),
        NUM_SHARDS,
        &root,
        spill_config(),
        segment_config(),
    )
    .unwrap();
    assert!(ReplicationSource::new(Arc::new(store)).is_err());
}
