//! Primary→replica index replication: checkpoint/WAL streaming with
//! fault-injected catch-up, retry/backoff and bounded-staleness reads.
//!
//! The durable [`SpillStore`] already mints everything a replication stream
//! needs: CRC-framed `(seq, list, element)` WAL records (the live tail) and
//! the generational checkpoint manifest + page files (the snapshot).  This
//! module turns those into a replication protocol:
//!
//! * [`ReplicationSource`] — the primary side.  Serves a **snapshot** (the
//!   `store.meta` identity block plus, per shard, the current manifest, the
//!   page file of the generation it references and the live WAL tail — every
//!   byte CRC-carried) and a **WAL tail subscription**: wire-ready frames
//!   with `seq > from`, per shard, straight out of the live log.  When a
//!   checkpoint has already reset the records a subscriber needs, the source
//!   says so (`need_snapshot`) instead of silently skipping history.
//! * [`Replica`] — bootstraps by writing the snapshot into its own root and
//!   opening it through the existing *fully validating* recovery path
//!   (`SpillStore::assemble`, per-page CRC, WAL replay, post-recovery
//!   audit), then applies streamed frames through the normal logged-insert
//!   path — so the replica's own WAL/checkpoint state tracks the primary's
//!   sequence space exactly and a crashed replica recovers like any durable
//!   store.  Apply is idempotent: `seq <= applied` frames are skipped and
//!   metered; out-of-order frames are dropped and re-polled (the transport
//!   resumes from the last applied sequence); a true history gap — the
//!   source can no longer supply the tail — triggers a full re-snapshot
//!   rather than silent divergence.
//! * [`ReplicaTransport`] — the fallible seam between them.  The in-process
//!   implementation ([`InProcessTransport`]) calls the source directly but
//!   ships the same wire-shaped bytes a socket implementation would, and the
//!   deterministic [`FaultTransport`] shim tears, bit-flips, duplicates and
//!   reorders frames, drops connections and kills the stream after a budget
//!   — every fault the reconnect loop (capped exponential [`Backoff`] with
//!   jitter, resume-from-last-applied) must absorb.
//! * [`ReplicaReadStore`] — the serving wrapper: a [`ListStore`] over the
//!   replica that an `IndexServer` serves from like any engine, but guards
//!   every read with a bounded-staleness check — a replica lagging the
//!   primary's last known head past `max_lag` returns the typed
//!   [`StoreError::Degraded`] (retry on the primary) instead of stale data.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use zerber_base::{MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::OrderedElement;

use crate::convert::{u64_of, usize_of};
use crate::durable::{crc32, io_err, scan_wal, PageIo, RealIo, WalRecord};
use crate::error::StoreError;
use crate::lockrank::{self, LockClass, Mode};
use crate::sharded::SpillStore;
use crate::spill::WalTail;
use crate::store::{CursorId, ListStore, RangedBatch, RangedFetch, SessionStats, StoreMetrics};

// ---------------------------------------------------------------------------
// Backoff: the reusable reconnect-delay policy.
// ---------------------------------------------------------------------------

/// Capped exponential backoff with deterministic jitter: delay doubles from
/// `base` up to `cap`, each draw jittered uniformly into `[delay/2, delay]`
/// so a fleet of replicas reconnecting after the same outage spreads out.
/// `reset` (called on any successful exchange) returns to `base`.  The
/// jitter source is a seeded xorshift, so a fixed seed replays the exact
/// same delay sequence — the unit tests (and any future socket ingress
/// reusing this helper) get reproducible schedules.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A backoff from `base` doubling up to `cap`, with the default seed.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff::with_seed(base, cap, 0x9e37_79b9_7f4a_7c15)
    }

    /// Like [`Backoff::new`] with an explicit jitter seed (tests).
    pub fn with_seed(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            // Xorshift needs a non-zero state.
            rng: seed | 1,
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The next reconnect delay: `min(cap, base * 2^attempts)` jittered
    /// into `[delay/2, delay]`.  Advances the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        // Cap the shift so the multiplier cannot overflow; the duration
        // itself saturates at `cap` anyway.
        let factor = 1u32 << self.attempt.min(20);
        self.attempt = self.attempt.saturating_add(1);
        let full = self.base.saturating_mul(factor).min(self.cap);
        let half = full / 2;
        let jitter_nanos = full.saturating_sub(half).as_nanos();
        if jitter_nanos == 0 {
            return full;
        }
        let draw = self.next_rand() as u128 % (jitter_nanos + 1);
        // Saturating narrow: a draw past u64 nanoseconds (itself centuries)
        // can only shorten the jitter, never panic or wrap.
        half + Duration::from_nanos(u64::try_from(draw).unwrap_or(u64::MAX))
    }

    /// Reconnect attempts since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Returns to the base delay (called after any successful exchange).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

// ---------------------------------------------------------------------------
// The wire shapes and the transport seam.
// ---------------------------------------------------------------------------

/// Transport-level failures the catch-up loop must absorb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Connection-level failure — reconnect with backoff and resume from
    /// the last applied sequence.
    Disconnected(String),
    /// Simulated death of the replica process (fault injection): the
    /// harness tears the replica down and recovers it from its own root.
    Killed,
}

/// One file of a snapshot, CRC-carried so a corrupted transfer is detected
/// before anything touches the replica's root.
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    /// File name relative to the store root (`store.meta`,
    /// `shard-000.manifest`, `shard-000.g3.pages`, `shard-000.wal`, ...).
    pub name: String,
    /// CRC32 over `bytes`.
    pub crc: u32,
    pub bytes: Vec<u8>,
}

/// A full snapshot: the file set a replica writes into an empty root and
/// opens through the ordinary recovery path, plus the primary's per-shard
/// head sequences at snapshot time.
#[derive(Debug, Clone)]
pub struct SnapshotPayload {
    pub files: Vec<SnapshotFile>,
    pub heads: Vec<u64>,
}

/// One streamed WAL frame: the shard it belongs to and the raw bytes in the
/// WAL wire format (`[len][crc][seq][list][element]`) — exactly what a
/// socket implementation would ship, so the replica CRC-validates every
/// frame regardless of transport.
#[derive(Debug, Clone)]
pub struct WireFrame {
    pub shard: u32,
    pub bytes: Vec<u8>,
}

/// One poll of the tail subscription.
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    pub frames: Vec<WireFrame>,
    /// The primary's per-shard head (last applied) sequences at poll time —
    /// what the replica measures its lag against.
    pub heads: Vec<u64>,
    /// Set when some shard's tail past the subscriber's position was
    /// checkpointed out of the primary's WAL: the subscriber must
    /// re-snapshot instead of silently skipping history.
    pub need_snapshot: bool,
}

/// The fallible replica-side transport seam.  The in-process implementation
/// wraps a [`ReplicationSource`] directly; a socket implementation drops in
/// by shipping the same wire-shaped payloads.
pub trait ReplicaTransport: Send + Sync + std::fmt::Debug {
    /// Fetches a full snapshot of the primary.
    fn fetch_snapshot(&self) -> Result<SnapshotPayload, TransportError>;

    /// Polls the live WAL tail: frames with `seq > from[shard]` for every
    /// shard, at most `max_frames` total.
    fn poll_frames(&self, from: &[u64], max_frames: usize) -> Result<FrameBatch, TransportError>;
}

// ---------------------------------------------------------------------------
// The primary side.
// ---------------------------------------------------------------------------

/// The primary side of replication: serves snapshots and WAL tail reads off
/// a durable [`SpillStore`] without disturbing it (snapshot reads take the
/// shard read lock; tail reads take only the WAL append mutex).
#[derive(Debug)]
pub struct ReplicationSource {
    primary: Arc<SpillStore>,
}

impl ReplicationSource {
    /// Wraps a durable primary.  Refuses non-durable stores: without a WAL
    /// and manifests there is nothing to stream.
    pub fn new(primary: Arc<SpillStore>) -> Result<Arc<ReplicationSource>, StoreError> {
        if !primary.is_durable() {
            return Err(StoreError::Io(
                "replication requires a durable primary store".to_string(),
            ));
        }
        Ok(Arc::new(ReplicationSource { primary }))
    }

    /// The primary store this source streams from.
    pub fn primary(&self) -> &Arc<SpillStore> {
        &self.primary
    }

    /// A full snapshot: `store.meta` plus every shard's manifest, the page
    /// file its generation references and the live WAL tail, each file
    /// CRC-stamped.
    pub fn snapshot(&self) -> Result<SnapshotPayload, StoreError> {
        let mut raw = vec![("store.meta".to_string(), self.primary.replication_meta()?)];
        for shard in 0..self.primary.num_shards() {
            raw.extend(self.primary.shard_snapshot_files(shard)?);
        }
        let files = raw
            .into_iter()
            .map(|(name, bytes)| SnapshotFile {
                name,
                crc: crc32(&bytes),
                bytes,
            })
            .collect();
        Ok(SnapshotPayload {
            files,
            heads: self.primary.wal_applied_seqs(),
        })
    }

    /// The live tail past `from` (one position per shard), at most
    /// `max_frames` frames.  Reports `need_snapshot` when some shard's
    /// records past `from` were already folded into a checkpoint.
    pub fn frames_after(&self, from: &[u64], max_frames: usize) -> Result<FrameBatch, StoreError> {
        let num_shards = self.primary.num_shards();
        if from.len() != num_shards {
            return Err(StoreError::Io(format!(
                "subscription carries {} positions, primary has {num_shards} shards",
                from.len()
            )));
        }
        let mut batch = FrameBatch::default();
        let mut budget = max_frames.max(1);
        for (shard, &pos) in from.iter().enumerate() {
            let wire_shard = u32::try_from(shard)
                .map_err(|_| StoreError::Invariant("shard index exceeds the u32 wire field"))?;
            match self.primary.wal_frames_after(shard, pos, budget)? {
                WalTail::Frames { frames, head } => {
                    budget = budget.saturating_sub(frames.len());
                    batch
                        .frames
                        .extend(frames.into_iter().map(|bytes| WireFrame {
                            shard: wire_shard,
                            bytes,
                        }));
                    batch.heads.push(head);
                }
                WalTail::Gap { head } => {
                    batch.need_snapshot = true;
                    batch.heads.push(head);
                }
            }
        }
        Ok(batch)
    }
}

/// The in-process transport: calls the source directly, ships the same
/// wire-shaped payloads a socket would.
#[derive(Debug)]
pub struct InProcessTransport {
    source: Arc<ReplicationSource>,
}

impl InProcessTransport {
    pub fn new(source: Arc<ReplicationSource>) -> Arc<InProcessTransport> {
        Arc::new(InProcessTransport { source })
    }
}

impl ReplicaTransport for InProcessTransport {
    fn fetch_snapshot(&self) -> Result<SnapshotPayload, TransportError> {
        self.source
            .snapshot()
            .map_err(|e| TransportError::Disconnected(e.to_string()))
    }

    fn poll_frames(&self, from: &[u64], max_frames: usize) -> Result<FrameBatch, TransportError> {
        self.source
            .frames_after(from, max_frames)
            .map_err(|e| TransportError::Disconnected(e.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Deterministic transport fault injection.
// ---------------------------------------------------------------------------

/// What the fault shim does to the stream.  All schedules are counter-based
/// (`every`-style, 0 disables) so a fixed plan replays the exact same fault
/// sequence; the only randomness — which byte a flip hits — comes from a
/// seeded xorshift.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Jitter seed for flip positions.
    pub seed: u64,
    /// Every k-th delivered frame is truncated mid-frame (a torn frame).
    pub tear_every: u64,
    /// Every k-th delivered frame has one byte XORed with `0x5A`.
    pub flip_every: u64,
    /// Every k-th delivered frame is delivered twice.
    pub duplicate_every: u64,
    /// Every k-th batch is delivered in reversed frame order.
    pub reorder_every: u64,
    /// Every k-th poll fails with [`TransportError::Disconnected`].
    pub disconnect_every: u64,
    /// Every k-th snapshot fetch is corrupted (one file's bytes flipped).
    pub corrupt_snapshot_every: u64,
    /// After this many frames have been delivered, every call returns
    /// [`TransportError::Killed`] until [`FaultTransport::revive`].
    pub kill_after: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0x5eed,
            tear_every: 0,
            flip_every: 0,
            duplicate_every: 0,
            reorder_every: 0,
            disconnect_every: 0,
            corrupt_snapshot_every: 0,
            kill_after: None,
        }
    }
}

#[derive(Debug)]
struct FaultState {
    frames_delivered: u64,
    polls: u64,
    snapshots: u64,
    rng: u64,
    kill_after: Option<u64>,
    killed: bool,
}

/// The deterministic transport fault shim: wraps any [`ReplicaTransport`]
/// and injects torn/bit-flipped frames, duplicates, reordering, disconnects
/// and kill-after-N according to a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultTransport {
    inner: Arc<dyn ReplicaTransport>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultTransport {
    pub fn new(inner: Arc<dyn ReplicaTransport>, plan: FaultPlan) -> Arc<FaultTransport> {
        Arc::new(FaultTransport {
            inner,
            plan,
            state: Mutex::new(FaultState {
                frames_delivered: 0,
                polls: 0,
                snapshots: 0,
                rng: plan.seed | 1,
                kill_after: plan.kill_after,
                killed: false,
            }),
        })
    }

    /// Total frames delivered so far (duplicates count twice, torn and
    /// flipped deliveries count too — the counter is the fault schedule).
    pub fn frames_delivered(&self) -> u64 {
        self.state.lock().frames_delivered
    }

    /// Whether the kill budget has fired.
    pub fn killed(&self) -> bool {
        self.state.lock().killed
    }

    /// Clears a fired kill (and its budget): the transport the recovered
    /// replica reconnects through.
    pub fn revive(&self) {
        let mut state = self.state.lock();
        state.killed = false;
        state.kill_after = None;
    }

    fn next_rand(state: &mut FaultState) -> u64 {
        let mut x = state.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.rng = x;
        x
    }

    fn hits(n: u64, every: u64) -> bool {
        every > 0 && n.is_multiple_of(every)
    }
}

impl ReplicaTransport for FaultTransport {
    fn fetch_snapshot(&self) -> Result<SnapshotPayload, TransportError> {
        {
            let mut state = self.state.lock();
            if state.killed {
                return Err(TransportError::Killed);
            }
            state.snapshots += 1;
        }
        let mut payload = self.inner.fetch_snapshot()?;
        let mut state = self.state.lock();
        if Self::hits(state.snapshots, self.plan.corrupt_snapshot_every) {
            // Flip one byte of one file; the CRC check must reject it.
            let file =
                usize::try_from(Self::next_rand(&mut state) % u64_of(payload.files.len().max(1)))
                    .unwrap_or(0);
            if let Some(f) = payload.files.get_mut(file) {
                if !f.bytes.is_empty() {
                    let at = usize::try_from(Self::next_rand(&mut state) % u64_of(f.bytes.len()))
                        .unwrap_or(0);
                    if let Some(byte) = f.bytes.get_mut(at) {
                        *byte ^= 0x5A;
                    }
                }
            }
        }
        Ok(payload)
    }

    fn poll_frames(&self, from: &[u64], max_frames: usize) -> Result<FrameBatch, TransportError> {
        {
            let mut state = self.state.lock();
            if state.killed {
                return Err(TransportError::Killed);
            }
            state.polls += 1;
            if Self::hits(state.polls, self.plan.disconnect_every) {
                return Err(TransportError::Disconnected(
                    "injected disconnect".to_string(),
                ));
            }
        }
        let batch = self.inner.poll_frames(from, max_frames)?;
        let mut state = self.state.lock();
        let mut frames = Vec::with_capacity(batch.frames.len());
        for frame in batch.frames {
            if let Some(budget) = state.kill_after {
                if state.frames_delivered >= budget {
                    state.killed = true;
                    return Err(TransportError::Killed);
                }
            }
            state.frames_delivered += 1;
            let n = state.frames_delivered;
            let mut delivered = frame.clone();
            if Self::hits(n, self.plan.tear_every) {
                delivered.bytes.truncate(delivered.bytes.len() / 2);
            } else if Self::hits(n, self.plan.flip_every) && !delivered.bytes.is_empty() {
                let at =
                    usize::try_from(Self::next_rand(&mut state) % u64_of(delivered.bytes.len()))
                        .unwrap_or(0);
                if let Some(byte) = delivered.bytes.get_mut(at) {
                    *byte ^= 0x5A;
                }
            }
            frames.push(delivered);
            if Self::hits(n, self.plan.duplicate_every) {
                state.frames_delivered += 1;
                frames.push(frame);
            }
        }
        if Self::hits(state.polls, self.plan.reorder_every) {
            frames.reverse();
        }
        Ok(FrameBatch {
            frames,
            heads: batch.heads,
            need_snapshot: batch.need_snapshot,
        })
    }
}

// ---------------------------------------------------------------------------
// The replica.
// ---------------------------------------------------------------------------

/// Replica tuning.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Spill tuning of the replica's own store.
    pub spill: crate::spill::SpillConfig,
    /// Durability tuning of the replica's own store (the replica re-logs
    /// every applied frame, so it recovers like any durable store).
    pub durable: crate::durable::DurableConfig,
    /// Bounded-staleness guard: a read served while the replica lags the
    /// primary's last known head by more than this many sequence numbers
    /// returns the typed [`StoreError::Degraded`] instead of stale data.
    pub max_lag: u64,
    /// Most frames one transport poll requests.
    pub batch_frames: usize,
    /// Reconnect backoff: initial delay.
    pub backoff_base: Duration,
    /// Reconnect backoff: delay cap.
    pub backoff_cap: Duration,
    /// Most consecutive transport attempts a bootstrap or re-snapshot makes
    /// before giving up.
    pub max_attempts: u32,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            spill: crate::spill::SpillConfig::default(),
            durable: crate::durable::DurableConfig::default(),
            max_lag: 1024,
            batch_frames: 256,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(5),
            max_attempts: 16,
        }
    }
}

/// State shared between the replica's apply loop and its serving wrapper.
#[derive(Debug)]
struct ReplicaShared {
    /// The replica's current store; swapped wholesale by a re-snapshot.
    store: RwLock<Arc<SpillStore>>,
    /// Per-shard applied sequence (mirrors the store's WAL positions; kept
    /// in atomics so the staleness guard never takes a lock).
    applied: Vec<AtomicU64>,
    /// Per-shard primary head as of the last successful exchange.
    heads: Vec<AtomicU64>,
    frames_streamed: AtomicU64,
    frames_skipped: AtomicU64,
    resnapshots: AtomicU64,
    reconnects: AtomicU64,
}

impl ReplicaShared {
    /// Largest per-shard gap between the primary's last known head and the
    /// applied sequence.
    fn lag(&self) -> u64 {
        self.applied
            .iter()
            .zip(&self.heads)
            .map(|(a, h)| {
                h.load(Ordering::Relaxed)
                    .saturating_sub(a.load(Ordering::Relaxed))
            })
            .max()
            .unwrap_or(0)
    }

    fn adopt(&self, store: Arc<SpillStore>) {
        let seqs = store.wal_applied_seqs();
        *self.store_write() = store;
        for (atomic, seq) in self.applied.iter().zip(seqs) {
            atomic.store(seq, Ordering::Relaxed);
        }
    }

    /// Acquires the store-slot read lock under the lock-rank discipline:
    /// the slot ranks *above* pool state and *below* every shard lock, so a
    /// serving path may hold the slot guard across the store calls it makes
    /// (see [`crate::lockrank`]).
    fn store_read(&self) -> StoreSlotRead<'_> {
        let rank = lockrank::acquire(LockClass::Store, 0, Mode::Read);
        StoreSlotRead {
            guard: self.store.read(),
            _rank: rank,
        }
    }

    /// Acquires the store-slot write lock (re-snapshot swap only); same
    /// rank as [`Self::store_read`].
    fn store_write(&self) -> StoreSlotWrite<'_> {
        let rank = lockrank::acquire(LockClass::Store, 0, Mode::Write);
        StoreSlotWrite {
            guard: self.store.write(),
            _rank: rank,
        }
    }
}

/// Ranked read guard over the replica's store slot (lock guard declared
/// first so it drops before the rank pops).
struct StoreSlotRead<'a> {
    guard: parking_lot::RwLockReadGuard<'a, Arc<SpillStore>>,
    _rank: lockrank::RankGuard,
}

impl std::ops::Deref for StoreSlotRead<'_> {
    type Target = Arc<SpillStore>;

    fn deref(&self) -> &Arc<SpillStore> {
        &self.guard
    }
}

/// Ranked write guard over the replica's store slot; see [`StoreSlotRead`].
struct StoreSlotWrite<'a> {
    guard: parking_lot::RwLockWriteGuard<'a, Arc<SpillStore>>,
    _rank: lockrank::RankGuard,
}

impl std::ops::Deref for StoreSlotWrite<'_> {
    type Target = Arc<SpillStore>;

    fn deref(&self) -> &Arc<SpillStore> {
        &self.guard
    }
}

impl std::ops::DerefMut for StoreSlotWrite<'_> {
    fn deref_mut(&mut self) -> &mut Arc<SpillStore> {
        &mut self.guard
    }
}

/// Counters of one replica (also surfaced through the serving store's
/// [`ListStore`] metrics and the protocol layer's `ServerStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    pub frames_streamed: u64,
    pub frames_skipped: u64,
    pub resnapshots: u64,
    pub reconnects: u64,
    pub lag: u64,
}

/// What one [`Replica::pump`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpOutcome {
    /// A batch was delivered; `applied` frames advanced the replica,
    /// `skipped` were duplicates the idempotent apply discarded.
    Progress { applied: usize, skipped: usize },
    /// The transport failed (or delivered a corrupt frame); the reconnect
    /// will resume from the last applied sequence after `retry_in`.
    Disconnected { retry_in: Duration },
    /// A history gap forced a full snapshot re-bootstrap.
    Resnapshotted,
    /// The replica is at the primary's head.
    CaughtUp,
}

/// A read replica: a durable [`SpillStore`] of its own, bootstrapped from a
/// primary snapshot and kept current by applying streamed WAL frames
/// through the normal logged-insert path.
#[derive(Debug)]
pub struct Replica {
    transport: Arc<dyn ReplicaTransport>,
    root: PathBuf,
    backend: Arc<dyn PageIo>,
    config: ReplicaConfig,
    shared: Arc<ReplicaShared>,
    backoff: Backoff,
    generation: u64,
}

impl Replica {
    /// Bootstraps a fresh replica under `root` (production IO): fetch a
    /// snapshot (retrying with backoff up to `max_attempts`), write it into
    /// `root/gen-0`, open it through the validating recovery path and
    /// subscribe from the recovered position.
    pub fn bootstrap(
        transport: Arc<dyn ReplicaTransport>,
        root: impl Into<PathBuf>,
        config: ReplicaConfig,
    ) -> Result<Replica, StoreError> {
        Self::bootstrap_with(transport, root, config, RealIo::shared())
    }

    /// [`Replica::bootstrap`] with an explicit IO backend (the crash tests
    /// substitute [`crate::durable::FaultIo`] for the replica's own disk).
    pub fn bootstrap_with(
        transport: Arc<dyn ReplicaTransport>,
        root: impl Into<PathBuf>,
        config: ReplicaConfig,
        backend: Arc<dyn PageIo>,
    ) -> Result<Replica, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_err)?;
        let mut backoff = Backoff::new(config.backoff_base, config.backoff_cap);
        let mut retries = 0u64;
        let (store, heads) = fetch_and_open(
            &*transport,
            &root.join("gen-0"),
            &config,
            &backend,
            &mut backoff,
            &mut retries,
        )?;
        let num_shards = store.num_shards();
        let applied = store.wal_applied_seqs();
        let shared = Arc::new(ReplicaShared {
            store: RwLock::new(Arc::new(store)),
            applied: applied.into_iter().map(AtomicU64::new).collect(),
            heads: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            frames_streamed: AtomicU64::new(0),
            frames_skipped: AtomicU64::new(0),
            resnapshots: AtomicU64::new(0),
            reconnects: AtomicU64::new(retries),
        });
        store_heads(&shared, &heads);
        Ok(Replica {
            transport,
            root,
            backend,
            config,
            shared,
            backoff,
            generation: 0,
        })
    }

    /// Reopens a crashed or cleanly shut down replica from its root
    /// (production IO): recover the newest generation directory that passes
    /// the full recovery audit, discard half-written newer ones, and
    /// re-subscribe from the recovered position.
    pub fn reopen(
        transport: Arc<dyn ReplicaTransport>,
        root: impl Into<PathBuf>,
        config: ReplicaConfig,
    ) -> Result<Replica, StoreError> {
        let backend = RealIo::shared();
        let root = root.into();
        let mut gens: Vec<u64> = fs::read_dir(&root)
            .map_err(io_err)?
            .flatten()
            .filter_map(|e| {
                e.file_name()
                    .to_str()
                    .and_then(|n| n.strip_prefix("gen-").and_then(|g| g.parse().ok()))
            })
            .collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        let mut adopted = None;
        for gen in gens {
            let dir = root.join(format!("gen-{gen}"));
            if adopted.is_some() {
                // An older generation a completed re-snapshot superseded.
                let _ = fs::remove_dir_all(&dir);
                continue;
            }
            match SpillStore::open_with_io(&dir, config.spill, config.durable, Arc::clone(&backend))
            {
                Ok(store) => adopted = Some((gen, store)),
                Err(_) => {
                    // A half-written re-snapshot a crash interrupted.
                    let _ = fs::remove_dir_all(&dir);
                }
            }
        }
        let (generation, store) = adopted.ok_or_else(|| {
            StoreError::RecoveryFailed(format!(
                "no recoverable replica generation under {}",
                root.display()
            ))
        })?;
        let applied = store.wal_applied_seqs();
        let backoff = Backoff::new(config.backoff_base, config.backoff_cap);
        let shared = Arc::new(ReplicaShared {
            store: RwLock::new(Arc::new(store)),
            applied: applied.iter().copied().map(AtomicU64::new).collect(),
            // Until the first poll the primary's head is unknown; start at
            // the local position (lag reads 0, the first exchange corrects
            // it).
            heads: applied.into_iter().map(AtomicU64::new).collect(),
            frames_streamed: AtomicU64::new(0),
            frames_skipped: AtomicU64::new(0),
            resnapshots: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        });
        Ok(Replica {
            transport,
            root,
            backend,
            config,
            shared,
            backoff,
            generation,
        })
    }

    /// The replica's current store (tests and audits; serving goes through
    /// [`Replica::serving_store`]).
    pub fn store(&self) -> Arc<SpillStore> {
        self.shared.store_read().clone()
    }

    /// The replica root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Per-shard applied sequences.
    pub fn applied_seqs(&self) -> Vec<u64> {
        self.shared
            .applied
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Current lag (largest per-shard head − applied gap).
    pub fn lag(&self) -> u64 {
        self.shared.lag()
    }

    /// Replication counters.
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            frames_streamed: self.shared.frames_streamed.load(Ordering::Relaxed),
            frames_skipped: self.shared.frames_skipped.load(Ordering::Relaxed),
            resnapshots: self.shared.resnapshots.load(Ordering::Relaxed),
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
            lag: self.shared.lag(),
        }
    }

    /// The bounded-staleness serving wrapper: a [`ListStore`] the protocol
    /// server fronts like any other engine, degrading reads typed-ly once
    /// the replica lags past `max_lag`.
    pub fn serving_store(&self) -> ReplicaReadStore {
        ReplicaReadStore {
            shared: Arc::clone(&self.shared),
            plan: self.shared.store_read().plan().clone(),
            max_lag: self.config.max_lag,
        }
    }

    /// One transport exchange: poll the tail from the last applied
    /// position, validate and apply what arrived.  Never sleeps — a
    /// [`PumpOutcome::Disconnected`] returns the delay the backoff chose
    /// and the caller decides ([`Replica::catch_up`] sleeps it).
    pub fn pump(&mut self) -> Result<PumpOutcome, StoreError> {
        let from = self.applied_seqs();
        let batch = match self.transport.poll_frames(&from, self.config.batch_frames) {
            Ok(batch) => batch,
            Err(TransportError::Killed) => {
                return Err(StoreError::Io(
                    "replica transport killed (injected fault)".to_string(),
                ))
            }
            Err(TransportError::Disconnected(_)) => return Ok(self.disconnected()),
        };
        if batch.heads.len() == self.shared.heads.len() {
            store_heads(&self.shared, &batch.heads);
        } else {
            return Ok(self.disconnected());
        }
        if batch.need_snapshot {
            self.resnapshot()?;
            return Ok(PumpOutcome::Resnapshotted);
        }
        // Per-frame CRC validation: a torn or bit-flipped frame is counted
        // and discarded, the clean frames of the same batch still apply.
        // Rejecting the whole batch would never converge against a
        // corruption period smaller than the batch size — the retry
        // redelivers a batch with a fresh fault in it every time.
        let mut records = Vec::with_capacity(batch.frames.len());
        let mut corrupt = 0usize;
        for frame in &batch.frames {
            let shard = usize_of(frame.shard);
            match (decode_wire_frame(frame), self.shared.applied.get(shard)) {
                (Some(record), Some(applied_at)) => records.push((shard, applied_at, record)),
                _ => corrupt += 1,
            }
        }
        // Arrival order within a batch is transport detail (the fault shim
        // reorders it on purpose); per-shard sequence order is what apply
        // needs.
        records.sort_by_key(|(shard, _, r)| (*shard, r.seq));
        let store = self.store();
        let mut applied_count = 0usize;
        let mut skipped = 0usize;
        for (shard, applied_at, record) in records {
            let list = MergedListId(record.list);
            if store.shard_of(list) != shard {
                // A frame routed to the wrong shard is corruption the CRC
                // cannot see (the sender lied); never apply it.
                corrupt += 1;
                continue;
            }
            let applied = applied_at.load(Ordering::Relaxed);
            if record.seq <= applied {
                // Duplicate / retransmission: idempotent apply skips it.
                skipped += 1;
                self.shared.frames_skipped.fetch_add(1, Ordering::Relaxed);
            } else if record.seq == applied + 1 {
                // The normal logged-insert path: the replica's own WAL
                // assigns exactly this sequence, so its durable state
                // tracks the primary's sequence space.
                store.insert(list, record.element)?;
                applied_at.store(record.seq, Ordering::Relaxed);
                self.shared.frames_streamed.fetch_add(1, Ordering::Relaxed);
                applied_count += 1;
            }
            // record.seq > applied + 1: an out-of-order frame whose
            // predecessors were lost (or corrupted) in flight.  Drop it —
            // the next poll resumes from the applied position and refetches
            // the run.
        }
        if applied_count > 0 || skipped > 0 {
            self.backoff.reset();
        }
        if corrupt > 0 {
            // Corruption on the wire is transport trouble: back off and
            // re-poll; the applied position already reflects the clean
            // prefix, so retransmission heals the stream.
            return Ok(self.disconnected());
        }
        if applied_count == 0 && skipped == 0 && self.shared.lag() == 0 {
            return Ok(PumpOutcome::CaughtUp);
        }
        Ok(PumpOutcome::Progress {
            applied: applied_count,
            skipped,
        })
    }

    /// Pumps until caught up, sleeping reconnect delays, giving up after
    /// `max_pumps` exchanges.
    pub fn catch_up(&mut self, max_pumps: usize) -> Result<(), StoreError> {
        for _ in 0..max_pumps {
            match self.pump()? {
                PumpOutcome::CaughtUp => return Ok(()),
                PumpOutcome::Disconnected { retry_in } => {
                    if !retry_in.is_zero() {
                        std::thread::sleep(retry_in);
                    }
                }
                PumpOutcome::Progress { .. } | PumpOutcome::Resnapshotted => {}
            }
        }
        Err(StoreError::Io(format!(
            "replica failed to catch up within {max_pumps} exchanges"
        )))
    }

    fn disconnected(&mut self) -> PumpOutcome {
        self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
        PumpOutcome::Disconnected {
            retry_in: self.backoff.next_delay(),
        }
    }

    /// Full snapshot re-bootstrap into a fresh generation directory; the
    /// serving store is swapped atomically and the superseded generation
    /// removed.
    fn resnapshot(&mut self) -> Result<(), StoreError> {
        self.shared.resnapshots.fetch_add(1, Ordering::Relaxed);
        let old_dir = self.root.join(format!("gen-{}", self.generation));
        let gen = self.generation + 1;
        let mut retries = 0u64;
        let (store, heads) = fetch_and_open(
            &*self.transport,
            &self.root.join(format!("gen-{gen}")),
            &self.config,
            &self.backend,
            &mut self.backoff,
            &mut retries,
        )?;
        self.shared.reconnects.fetch_add(retries, Ordering::Relaxed);
        self.shared.adopt(Arc::new(store));
        store_heads(&self.shared, &heads);
        self.generation = gen;
        let _ = fs::remove_dir_all(&old_dir);
        Ok(())
    }
}

fn store_heads(shared: &ReplicaShared, heads: &[u64]) {
    for (atomic, &head) in shared.heads.iter().zip(heads) {
        atomic.store(head, Ordering::Relaxed);
    }
}

/// Decodes and CRC-validates one wire frame; `None` for torn, flipped or
/// trailing-garbage bytes.
fn decode_wire_frame(frame: &WireFrame) -> Option<WalRecord> {
    let scan = scan_wal(&frame.bytes);
    if scan.torn || scan.records.len() != 1 || scan.valid_len != u64_of(frame.bytes.len()) {
        return None;
    }
    scan.records.into_iter().next()
}

/// Fetches a snapshot (retrying transport failures and CRC mismatches with
/// backoff), writes it into `dir` and opens it through the fully validating
/// recovery path.
fn fetch_and_open(
    transport: &dyn ReplicaTransport,
    dir: &Path,
    config: &ReplicaConfig,
    backend: &Arc<dyn PageIo>,
    backoff: &mut Backoff,
    retries: &mut u64,
) -> Result<(SpillStore, Vec<u64>), StoreError> {
    let mut last_error = String::new();
    for _ in 0..config.max_attempts.max(1) {
        let payload = match transport.fetch_snapshot() {
            Ok(payload) => payload,
            Err(TransportError::Killed) => {
                return Err(StoreError::Io(
                    "replica transport killed (injected fault)".to_string(),
                ))
            }
            Err(TransportError::Disconnected(reason)) => {
                last_error = reason;
                *retries += 1;
                let delay = backoff.next_delay();
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                continue;
            }
        };
        if let Err(reason) = verify_snapshot(&payload) {
            last_error = reason;
            *retries += 1;
            let delay = backoff.next_delay();
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            continue;
        }
        write_snapshot(dir, &payload, backend)?;
        let store =
            SpillStore::open_with_io(dir, config.spill, config.durable, Arc::clone(backend))?;
        if payload.heads.len() != store.num_shards() {
            return Err(StoreError::Io(format!(
                "snapshot carries {} heads, store has {} shards",
                payload.heads.len(),
                store.num_shards()
            )));
        }
        backoff.reset();
        return Ok((store, payload.heads));
    }
    Err(StoreError::Io(format!(
        "snapshot fetch failed after {} attempts: {last_error}",
        config.max_attempts.max(1)
    )))
}

fn verify_snapshot(payload: &SnapshotPayload) -> Result<(), String> {
    if !payload.files.iter().any(|f| f.name == "store.meta") {
        return Err("snapshot is missing store.meta".to_string());
    }
    for file in &payload.files {
        if crc32(&file.bytes) != file.crc {
            return Err(format!("snapshot file {} failed its CRC", file.name));
        }
        // File names come off the wire; refuse anything that could escape
        // the replica root.
        if file.name.contains('/') || file.name.contains('\\') || file.name.contains("..") {
            return Err(format!("snapshot file name {:?} is not flat", file.name));
        }
    }
    Ok(())
}

fn write_snapshot(
    dir: &Path,
    payload: &SnapshotPayload,
    backend: &Arc<dyn PageIo>,
) -> Result<(), StoreError> {
    fs::create_dir_all(dir).map_err(io_err)?;
    for file in &payload.files {
        let mut out = backend.open(&dir.join(&file.name), true).map_err(io_err)?;
        out.write_at(0, &file.bytes).map_err(io_err)?;
        out.sync().map_err(io_err)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The bounded-staleness serving wrapper.
// ---------------------------------------------------------------------------

/// A [`ListStore`] over a replica: delegates every read to the replica's
/// current store (following re-snapshot swaps), guards serving reads with
/// the bounded-staleness check, refuses writes, and surfaces the
/// replication counters through the standard metric methods.
#[derive(Debug)]
pub struct ReplicaReadStore {
    shared: Arc<ReplicaShared>,
    /// The merge plan is identical across snapshot swaps (same primary), so
    /// the wrapper owns a copy — `plan()` returns a reference.
    plan: MergePlan,
    max_lag: u64,
}

impl ReplicaReadStore {
    /// The store currently backing this replica, borrowed for one call.
    /// Returning the read guard instead of cloning the `Arc` keeps the
    /// per-query overhead to a single uncontended lock acquisition; the
    /// write side only appears on a re-snapshot swap.
    fn store(&self) -> impl std::ops::Deref<Target = Arc<SpillStore>> + '_ {
        self.shared.store_read()
    }

    /// The staleness guard: refuse to serve rather than answer from a
    /// replica lagging past the bound.
    fn guard(&self) -> Result<(), StoreError> {
        let lag = self.shared.lag();
        if lag > self.max_lag {
            Err(StoreError::Degraded {
                lag,
                max_lag: self.max_lag,
            })
        } else {
            Ok(())
        }
    }
}

impl ListStore for ReplicaReadStore {
    fn plan(&self) -> &MergePlan {
        &self.plan
    }

    fn num_shards(&self) -> usize {
        self.store().num_shards()
    }

    fn shard_of(&self, list: MergedListId) -> usize {
        self.store().shard_of(list)
    }

    fn num_elements(&self) -> usize {
        self.store().num_elements()
    }

    fn stored_bytes(&self) -> usize {
        self.store().stored_bytes()
    }

    fn ciphertext_bytes(&self) -> usize {
        self.store().ciphertext_bytes()
    }

    fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            frames_streamed: self.shared.frames_streamed.load(Ordering::Relaxed),
            frames_skipped: self.shared.frames_skipped.load(Ordering::Relaxed),
            resnapshots: self.shared.resnapshots.load(Ordering::Relaxed),
            reconnects: self.shared.reconnects.load(Ordering::Relaxed),
            replica_lag: self.shared.lag(),
            ..self.store().metrics()
        }
    }

    fn list_len(&self, list: MergedListId) -> Result<usize, StoreError> {
        self.store().list_len(list)
    }

    fn visible_len(
        &self,
        list: MergedListId,
        accessible: Option<&[GroupId]>,
    ) -> Result<usize, StoreError> {
        self.store().visible_len(list, accessible)
    }

    fn snapshot_list(&self, list: MergedListId) -> Result<Vec<OrderedElement>, StoreError> {
        self.store().snapshot_list(list)
    }

    fn fetch_ranged(
        &self,
        fetch: &RangedFetch,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        self.guard()?;
        self.store().fetch_ranged(fetch, accessible)
    }

    fn open_cursor(
        &self,
        list: MergedListId,
        owner: u64,
        batch: &RangedBatch,
        delivered: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<CursorId, StoreError> {
        self.guard()?;
        self.store()
            .open_cursor(list, owner, batch, delivered, accessible)
    }

    fn cursor_fetch(
        &self,
        cursor: CursorId,
        owner: u64,
        count: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        self.guard()?;
        self.store().cursor_fetch(cursor, owner, count, accessible)
    }

    fn close_cursor(&self, cursor: CursorId, owner: u64) {
        self.store().close_cursor(cursor, owner)
    }

    fn session_stats(&self) -> SessionStats {
        self.store().session_stats()
    }

    fn insert(&self, _list: MergedListId, _element: OrderedElement) -> Result<usize, StoreError> {
        Err(StoreError::Io(
            "replica serves reads only; route inserts to the primary".to_string(),
        ))
    }

    fn verify_ordering(&self) -> bool {
        self.store().verify_ordering()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::encode_wal_frame;
    use zerber_base::EncryptedElement;

    fn element(trs: f64) -> OrderedElement {
        let group = GroupId(1);
        OrderedElement {
            trs,
            group,
            sealed: EncryptedElement {
                group,
                ciphertext: vec![0xAB; 4],
            },
        }
    }

    #[test]
    fn backoff_doubles_to_the_cap_with_bounded_jitter() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        let mut b = Backoff::with_seed(base, cap, 7);
        let mut expected_full = base;
        for _ in 0..8 {
            let d = b.next_delay();
            assert!(d >= expected_full / 2, "jitter fell below half: {d:?}");
            assert!(d <= expected_full, "jitter exceeded the full delay: {d:?}");
            expected_full = (expected_full * 2).min(cap);
        }
        // Saturated at the cap: the draw stays within [cap/2, cap].
        let d = b.next_delay();
        assert!(d >= cap / 2 && d <= cap);
        assert_eq!(b.attempts(), 9);
    }

    #[test]
    fn backoff_reset_returns_to_the_base_and_replays_deterministically() {
        let base = Duration::from_millis(4);
        let cap = Duration::from_secs(1);
        let mut a = Backoff::with_seed(base, cap, 99);
        let first: Vec<Duration> = (0..5).map(|_| a.next_delay()).collect();
        a.reset();
        assert_eq!(a.attempts(), 0);
        // After reset the *schedule* restarts at the base even though the
        // jitter stream continues.
        let after_reset = a.next_delay();
        assert!(after_reset <= base);
        // A fresh backoff with the same seed replays the same sequence.
        let mut b = Backoff::with_seed(base, cap, 99);
        let replay: Vec<Duration> = (0..5).map(|_| b.next_delay()).collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO);
        for _ in 0..40 {
            assert_eq!(b.next_delay(), Duration::ZERO);
        }
    }

    #[test]
    fn wire_frame_validation_rejects_torn_flipped_and_padded_frames() {
        let bytes = encode_wal_frame(3, 1, &element(0.5)).unwrap();
        let good = WireFrame {
            shard: 0,
            bytes: bytes.clone(),
        };
        let record = decode_wire_frame(&good).expect("clean frame decodes");
        assert_eq!(record.seq, 3);
        assert_eq!(record.list, 1);

        let torn = WireFrame {
            shard: 0,
            bytes: bytes[..bytes.len() / 2].to_vec(),
        };
        assert!(decode_wire_frame(&torn).is_none());

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x5A;
        assert!(decode_wire_frame(&WireFrame {
            shard: 0,
            bytes: flipped
        })
        .is_none());

        let mut padded = bytes;
        padded.extend_from_slice(&[0u8; 3]);
        assert!(decode_wire_frame(&WireFrame {
            shard: 0,
            bytes: padded
        })
        .is_none());
    }

    /// A stub transport for fault-shim unit tests: serves a fixed frame
    /// stream.
    #[derive(Debug)]
    struct StubTransport {
        frames: Vec<WireFrame>,
    }

    impl ReplicaTransport for StubTransport {
        fn fetch_snapshot(&self) -> Result<SnapshotPayload, TransportError> {
            Ok(SnapshotPayload {
                files: vec![SnapshotFile {
                    name: "store.meta".to_string(),
                    crc: crc32(b"meta"),
                    bytes: b"meta".to_vec(),
                }],
                heads: vec![0],
            })
        }

        fn poll_frames(
            &self,
            _from: &[u64],
            _max_frames: usize,
        ) -> Result<FrameBatch, TransportError> {
            Ok(FrameBatch {
                frames: self.frames.clone(),
                heads: vec![self.frames.len() as u64],
                need_snapshot: false,
            })
        }
    }

    fn stub_frames(n: usize) -> Vec<WireFrame> {
        (0..n)
            .map(|i| WireFrame {
                shard: 0,
                bytes: encode_wal_frame(i as u64 + 1, 0, &element(1.0 - i as f64 / 100.0)).unwrap(),
            })
            .collect()
    }

    #[test]
    fn fault_transport_schedules_are_deterministic() {
        let run = || {
            let inner = Arc::new(StubTransport {
                frames: stub_frames(6),
            });
            let faults = FaultTransport::new(
                inner,
                FaultPlan {
                    tear_every: 3,
                    flip_every: 4,
                    duplicate_every: 5,
                    reorder_every: 2,
                    disconnect_every: 3,
                    ..FaultPlan::default()
                },
            );
            let mut log = Vec::new();
            for _ in 0..6 {
                match faults.poll_frames(&[0], 64) {
                    Ok(batch) => log.push(
                        batch
                            .frames
                            .iter()
                            .map(|f| f.bytes.len())
                            .collect::<Vec<_>>(),
                    ),
                    Err(e) => log.push(vec![match e {
                        TransportError::Disconnected(_) => 0,
                        TransportError::Killed => 1,
                    }]),
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_transport_kills_after_the_frame_budget_and_revives() {
        let inner = Arc::new(StubTransport {
            frames: stub_frames(4),
        });
        let faults = FaultTransport::new(
            inner,
            FaultPlan {
                kill_after: Some(2),
                ..FaultPlan::default()
            },
        );
        assert_eq!(
            faults.poll_frames(&[0], 64).unwrap_err(),
            TransportError::Killed,
            "the budget fires mid-batch"
        );
        assert!(faults.killed());
        assert_eq!(faults.frames_delivered(), 2);
        assert_eq!(
            faults.fetch_snapshot().unwrap_err(),
            TransportError::Killed,
            "a killed transport stays dead"
        );
        faults.revive();
        assert!(!faults.killed());
        assert!(faults.poll_frames(&[0], 64).is_ok());
    }

    #[test]
    fn snapshot_verification_rejects_crc_mismatch_and_path_escapes() {
        let good = SnapshotPayload {
            files: vec![SnapshotFile {
                name: "store.meta".to_string(),
                crc: crc32(b"abc"),
                bytes: b"abc".to_vec(),
            }],
            heads: vec![0],
        };
        assert!(verify_snapshot(&good).is_ok());

        let mut flipped = good.clone();
        flipped.files[0].bytes[0] ^= 0x5A;
        assert!(verify_snapshot(&flipped).is_err());

        let mut escaping = good.clone();
        escaping.files.push(SnapshotFile {
            name: "../evil".to_string(),
            crc: crc32(b"x"),
            bytes: b"x".to_vec(),
        });
        assert!(verify_snapshot(&escaping).is_err());

        let empty = SnapshotPayload {
            files: Vec::new(),
            heads: Vec::new(),
        };
        assert!(verify_snapshot(&empty).is_err());
    }
}
