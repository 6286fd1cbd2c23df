//! Primary→replica index replication: checkpoint/WAL streaming with
//! fault-tolerant catch-up and bounded-staleness reads.
//!
//! The durable [`SpillStore`] already mints everything a replication stream
//! needs: CRC-framed `(seq, list, element)` WAL records (the live tail) and
//! the generational checkpoint manifest + page files (the snapshot).  This
//! module turns those into a replication protocol:
//!
//! * [`ReplicationSource`] — the primary side.  Serves a **snapshot** (the
//!   `store.meta` identity block plus, per shard, the newest manifest, the
//!   page file of the generation it references and the live WAL tail — every
//!   byte CRC-carried) and a **WAL tail subscription**: the logged frames
//!   with `seq > from`, per shard, sliced out of the live log.  When a
//!   checkpoint has already reset the records a subscriber needs, the source
//!   says so (`need_snapshot`) instead of silently skipping history.
//! * [`Replica`] — starts one way ([`Replica::bootstrap`]): it recovers the
//!   newest generation directory under its root through the *fully
//!   validating* recovery path (`SpillStore::open`: per-page CRC, WAL
//!   replay, post-recovery audit), and only when none recovers installs one
//!   fetched snapshot as `gen-0`.  It then applies streamed frames through
//!   the normal logged-insert path — so the replica's own WAL/checkpoint
//!   state tracks the primary's sequence space exactly and a crashed replica
//!   restarts like any durable store.  Apply is idempotent: `seq <= applied`
//!   frames are skipped and metered; out-of-order frames are dropped and
//!   re-polled (the transport resumes from the last applied sequence); a
//!   true history gap — the source can no longer supply the tail — installs
//!   the next snapshot as `gen-N+1` the same way, rather than diverging.
//! * [`ReplicaTransport`] — the fallible seam between them.  The in-process
//!   implementation ([`InProcessTransport`]) calls the source directly but
//!   ships the same wire-shaped bytes a socket implementation would, and the
//!   replication suite's deterministic fault shim
//!   (`tests/common/fault_transport.rs`) tears, bit-flips, duplicates and
//!   reorders frames, corrupts snapshots, drops connections and kills the
//!   stream after a budget.  Every such failure is one
//!   [`PumpOutcome::Disconnected`]: [`Replica::pump`] never sleeps or
//!   retries, and [`Replica::catch_up`] — the one retry loop — sleeps a
//!   capped exponential backoff, jittered per replica root, between pumps.
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

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use zerber_base::{MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::OrderedElement;

use crate::convert::{u64_of, usize_of};
use crate::durable::{check_element, crc32, io_err, scan_wal, PageIo, RealIo, WalRecord};
use crate::error::StoreError;
use crate::lockrank::{self, LockClass, Mode, Ranked};
use crate::sharded::SpillStore;
use crate::spill::{WalTail, STORE_META_NAME};
use crate::store::{CursorId, ListStore, RangedBatch, RangedFetch, SessionStats, StoreMetrics};

// ---------------------------------------------------------------------------
// Backoff: the reconnect-delay policy of `Replica::catch_up`.
// ---------------------------------------------------------------------------

/// Capped exponential backoff with deterministic jitter: the delay doubles
/// from [`Backoff::BASE`] up to [`Backoff::CAP`], each draw jittered
/// uniformly into `[delay/2, delay]`.  `reset` (called on any successful
/// exchange) returns to the base.  The jitter source is a xorshift seeded
/// per replica root, so replicas reconnecting after the same outage spread
/// out, and one root replays the same delay sequence.
#[derive(Debug, Clone)]
struct Backoff {
    attempt: u32,
    rng: u64,
}

impl Backoff {
    const BASE: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_secs(5);

    fn new(seed: u64) -> Backoff {
        Backoff {
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

    /// The next reconnect delay: `min(CAP, BASE * 2^attempts)` jittered
    /// into `[delay/2, delay]`.  Advances the attempt counter.
    fn next_delay(&mut self) -> Duration {
        // Cap the shift so the multiplier cannot overflow; the duration
        // itself saturates at `CAP` anyway.
        let factor = 1u32 << self.attempt.min(20);
        self.attempt = self.attempt.saturating_add(1);
        let full = Self::BASE.saturating_mul(factor).min(Self::CAP);
        let half = full / 2;
        let jitter = u64::try_from(full.saturating_sub(half).as_nanos()).unwrap_or(u64::MAX);
        half + Duration::from_nanos(self.next_rand() % jitter.saturating_add(1))
    }

    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// FNV-1a over a replica root's path: the seed of its backoff jitter.
fn root_seed(root: &Path) -> u64 {
    root.as_os_str()
        .as_encoded_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

// ---------------------------------------------------------------------------
// The wire shapes and the transport seam.
// ---------------------------------------------------------------------------

/// A transport failure: the pump reports it as
/// [`PumpOutcome::Disconnected`], and the next pump resumes from the last
/// applied sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    Disconnected(String),
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

    /// A full snapshot: `store.meta` plus every shard's manifest, the page
    /// file its generation references and the live WAL tail, each file
    /// CRC-stamped.
    pub fn snapshot(&self) -> Result<SnapshotPayload, StoreError> {
        let mut raw = vec![(
            STORE_META_NAME.to_string(),
            self.primary.replication_meta()?,
        )];
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
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            spill: crate::spill::SpillConfig::default(),
            durable: crate::durable::DurableConfig::default(),
            max_lag: 1024,
            batch_frames: 256,
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
    fn store_read(&self) -> Ranked<RwLockReadGuard<'_, Arc<SpillStore>>> {
        lockrank::ranked(LockClass::Store, 0, Mode::Read, || self.store.read())
    }

    /// Acquires the store-slot write lock (re-snapshot swap only); same
    /// rank as [`Self::store_read`].
    fn store_write(&self) -> Ranked<RwLockWriteGuard<'_, Arc<SpillStore>>> {
        lockrank::ranked(LockClass::Store, 0, Mode::Write, || self.store.write())
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
    /// The transport failed, or delivered a corrupt frame or snapshot; the
    /// next pump, due after `retry_in`, resumes from the last applied
    /// sequence.
    Disconnected { retry_in: Duration },
    /// A history gap was closed by installing a fresh snapshot.
    Resnapshotted,
    /// The replica is at the primary's head.
    CaughtUp,
}

/// A read replica: a durable [`SpillStore`] of its own, recovered from its
/// root or installed from a primary snapshot, and kept current by applying
/// streamed WAL frames through the normal logged-insert path.
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
    /// Starts a replica under `root` (production IO): recover the newest
    /// generation directory that passes the full recovery audit, removing
    /// every other one, or — when none recovers — fetch one snapshot and
    /// install it as `root/gen-0`; then subscribe from the local position.
    /// A failed or corrupt fetch is an error: there is nothing to serve.
    pub fn bootstrap(
        transport: Arc<dyn ReplicaTransport>,
        root: impl Into<PathBuf>,
        config: ReplicaConfig,
    ) -> Result<Replica, StoreError> {
        Self::bootstrap_with(transport, root, config, RealIo::shared())
    }

    /// [`Replica::bootstrap`] with an explicit IO backend (the crash tests
    /// substitute a fault-injecting IO for the replica's own disk).
    pub fn bootstrap_with(
        transport: Arc<dyn ReplicaTransport>,
        root: impl Into<PathBuf>,
        config: ReplicaConfig,
        backend: Arc<dyn PageIo>,
    ) -> Result<Replica, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_err)?;
        let (generation, store, heads) = match recover(&root, &config, &backend)? {
            Some((generation, store)) => {
                // Until the first poll the primary's head is unknown; start
                // at the local position (lag reads 0, the first exchange
                // corrects it).
                let heads = store.wal_applied_seqs();
                (generation, store, heads)
            }
            None => {
                let payload = fetch_snapshot(&*transport).map_err(
                    |TransportError::Disconnected(reason)| {
                        StoreError::Io(format!("replica bootstrap: {reason}"))
                    },
                )?;
                let store = install(&root.join("gen-0"), &payload, &config, &backend)?;
                (0, store, payload.heads)
            }
        };
        let shared = Arc::new(ReplicaShared {
            applied: store
                .wal_applied_seqs()
                .into_iter()
                .map(AtomicU64::new)
                .collect(),
            heads: heads.into_iter().map(AtomicU64::new).collect(),
            store: RwLock::new(Arc::new(store)),
            frames_streamed: AtomicU64::new(0),
            frames_skipped: AtomicU64::new(0),
            resnapshots: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        });
        Ok(Replica {
            transport,
            backoff: Backoff::new(root_seed(&root)),
            root,
            backend,
            config,
            shared,
            generation,
        })
    }

    /// The replica's current store (tests and audits; serving goes through
    /// [`Replica::serving_store`]).
    pub fn store(&self) -> Arc<SpillStore> {
        self.shared.store_read().clone()
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
    /// position, validate and apply what arrived — or, past a history gap,
    /// fetch and install one snapshot.  Never sleeps and never retries: a
    /// transport failure is a [`PumpOutcome::Disconnected`] carrying the
    /// delay the backoff chose, and the caller decides
    /// ([`Replica::catch_up`] sleeps it).  `Err` is the replica's own
    /// store failing.
    pub fn pump(&mut self) -> Result<PumpOutcome, StoreError> {
        let from = self.applied_seqs();
        let batch = match self.transport.poll_frames(&from, self.config.batch_frames) {
            Ok(batch) if batch.heads.len() == self.shared.heads.len() => batch,
            _ => return Ok(self.disconnected()),
        };
        store_heads(&self.shared, &batch.heads);
        if batch.need_snapshot {
            return self.resnapshot();
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
        for (shard, applied_at, mut record) in records {
            let list = MergedListId(record.list);
            if record.list >= u64_of(store.num_lists())
                || store.shard_of(list) != shard
                || check_element(&mut record.element).is_err()
            {
                // A frame naming no list, routed to the wrong shard or
                // carrying an element the store refuses is corruption the
                // CRC cannot see (the sender lied); never apply it.  `Err`
                // stays the replica's own store failing.
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
                PumpOutcome::Disconnected { retry_in } => std::thread::sleep(retry_in),
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

    /// Closes a history gap: fetch one snapshot and install it as the next
    /// generation, swap the serving store atomically and remove the
    /// superseded generation.  A failed or corrupt fetch leaves the current
    /// generation serving and reports a disconnect.
    fn resnapshot(&mut self) -> Result<PumpOutcome, StoreError> {
        let Ok(payload) = fetch_snapshot(&*self.transport) else {
            return Ok(self.disconnected());
        };
        let gen = self.generation + 1;
        let store = install(
            &self.root.join(format!("gen-{gen}")),
            &payload,
            &self.config,
            &self.backend,
        )?;
        self.shared.adopt(Arc::new(store));
        store_heads(&self.shared, &payload.heads);
        let _ = fs::remove_dir_all(self.root.join(format!("gen-{}", self.generation)));
        self.generation = gen;
        self.shared.resnapshots.fetch_add(1, Ordering::Relaxed);
        self.backoff.reset();
        Ok(PumpOutcome::Resnapshotted)
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

/// Recovers the newest `gen-*` directory under `root` that opens through
/// the full recovery audit, and removes every other one: older generations
/// a completed re-snapshot superseded, and newer ones a crash left
/// half-written.  `None` when no generation recovers.
fn recover(
    root: &Path,
    config: &ReplicaConfig,
    backend: &Arc<dyn PageIo>,
) -> Result<Option<(u64, SpillStore)>, StoreError> {
    let mut gens: Vec<u64> = fs::read_dir(root)
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
        if adopted.is_none() {
            if let Ok(store) =
                SpillStore::open_with_io(&dir, config.spill, config.durable, Arc::clone(backend))
            {
                adopted = Some((gen, store));
                continue;
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
    Ok(adopted)
}

/// Fetches one snapshot and checks it before anything touches the root.
fn fetch_snapshot(transport: &dyn ReplicaTransport) -> Result<SnapshotPayload, TransportError> {
    let payload = transport.fetch_snapshot()?;
    verify_snapshot(&payload).map_err(TransportError::Disconnected)?;
    Ok(payload)
}

fn verify_snapshot(payload: &SnapshotPayload) -> Result<(), String> {
    if !payload.files.iter().any(|f| f.name == STORE_META_NAME) {
        return Err(format!("snapshot is missing {STORE_META_NAME}"));
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

/// Writes a verified snapshot into `dir` and opens it through the fully
/// validating recovery path; the snapshot must carry one head per shard.
fn install(
    dir: &Path,
    payload: &SnapshotPayload,
    config: &ReplicaConfig,
    backend: &Arc<dyn PageIo>,
) -> Result<SpillStore, StoreError> {
    fs::create_dir_all(dir).map_err(io_err)?;
    for file in &payload.files {
        let mut out = backend.open(&dir.join(&file.name), true).map_err(io_err)?;
        out.write_at(0, &file.bytes).map_err(io_err)?;
        out.sync().map_err(io_err)?;
    }
    let store = SpillStore::open_with_io(dir, config.spill, config.durable, Arc::clone(backend))?;
    if payload.heads.len() != store.num_shards() {
        return Err(StoreError::Io(format!(
            "snapshot carries {} heads, store has {} shards",
            payload.heads.len(),
            store.num_shards()
        )));
    }
    Ok(store)
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
    use crate::durable::{encode_wal_frame, DurableConfig};
    use crate::spill::SpillConfig;
    use crate::tests::TempRoot;
    use zerber_base::EncryptedElement;
    use zerber_corpus::TermId;
    use zerber_r::OrderedIndex;

    fn element(trs: f64) -> OrderedElement {
        let group = GroupId(1);
        OrderedElement {
            trs,
            group,
            sealed: EncryptedElement {
                group,
                ciphertext: vec![0xAB; 4].into(),
            },
        }
    }

    #[test]
    fn backoff_doubles_to_the_cap_with_bounded_jitter() {
        let mut b = Backoff::new(7);
        let mut expected_full = Backoff::BASE;
        // 10 ms doubles past the 5 s cap on the tenth draw.
        for _ in 0..12 {
            let d = b.next_delay();
            assert!(d >= expected_full / 2, "jitter fell below half: {d:?}");
            assert!(d <= expected_full, "jitter exceeded the full delay: {d:?}");
            expected_full = (expected_full * 2).min(Backoff::CAP);
        }
        assert_eq!(expected_full, Backoff::CAP);
        assert_eq!(b.attempt, 12);
    }

    #[test]
    fn backoff_reset_returns_to_the_base_and_replays_deterministically() {
        let mut a = Backoff::new(99);
        let first: Vec<Duration> = (0..5).map(|_| a.next_delay()).collect();
        a.reset();
        assert_eq!(a.attempt, 0);
        // After reset the *schedule* restarts at the base even though the
        // jitter stream continues.
        assert!(a.next_delay() <= Backoff::BASE);
        // A fresh backoff with the same seed replays the same sequence.
        let mut b = Backoff::new(99);
        let replay: Vec<Duration> = (0..5).map(|_| b.next_delay()).collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn replicas_in_different_roots_draw_different_jitter() {
        let draws = |root: &str| {
            let mut b = Backoff::new(root_seed(Path::new(root)));
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(draws("/srv/replica-a"), draws("/srv/replica-a"));
        assert_ne!(draws("/srv/replica-a"), draws("/srv/replica-b"));
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

    /// Serves the primary's real snapshot, but answers every poll with the
    /// frames it was built with.
    #[derive(Debug)]
    struct ForgedTail {
        primary: Arc<InProcessTransport>,
        frames: Vec<WireFrame>,
    }

    impl ReplicaTransport for ForgedTail {
        fn fetch_snapshot(&self) -> Result<SnapshotPayload, TransportError> {
            self.primary.fetch_snapshot()
        }

        fn poll_frames(&self, from: &[u64], _max: usize) -> Result<FrameBatch, TransportError> {
            Ok(FrameBatch {
                frames: self.frames.clone(),
                heads: from.iter().map(|&seq| seq + 1).collect(),
                need_snapshot: false,
            })
        }
    }

    #[test]
    fn a_crc_valid_frame_the_store_would_refuse_is_a_disconnect() {
        // One list on one shard.  Each forged frame is CRC-valid, on the
        // right shard and next in sequence, yet names no list or carries
        // an element outside the contract: the replica drops it as
        // corrupt, exactly like a wrong-shard frame, and stays as it was.
        let root = TempRoot::new("forged-frame");
        let plan = MergePlan::from_term_lists(vec![vec![TermId(0)]], "forged-fixture", 2.0);
        let index = OrderedIndex::from_parts(vec![vec![element(0.9)]], plan);
        let primary = SpillStore::create_durable(
            index,
            root.join("primary"),
            1,
            SpillConfig::default(),
            DurableConfig::default(),
        )
        .unwrap();
        let source = InProcessTransport::new(ReplicationSource::new(Arc::new(primary)).unwrap());
        let forged = [
            ("a list past num_lists", 1, element(0.5)),
            ("a NaN TRS", 0, element(f64::NAN)),
            ("an infinite TRS", 0, element(f64::INFINITY)),
        ];
        for (i, (what, list, forged)) in forged.into_iter().enumerate() {
            let transport = Arc::new(ForgedTail {
                primary: Arc::clone(&source),
                frames: vec![WireFrame {
                    shard: 0,
                    bytes: encode_wal_frame(1, list, &forged).unwrap(),
                }],
            });
            let mut replica = Replica::bootstrap(
                transport,
                root.join(format!("replica-{i}")),
                ReplicaConfig::default(),
            )
            .unwrap();
            let outcome = replica.pump();
            assert!(
                matches!(outcome, Ok(PumpOutcome::Disconnected { .. })),
                "{what}: {outcome:?}"
            );
            assert_eq!(replica.applied_seqs(), [0], "{what}");
            let stats = replica.stats();
            assert_eq!((stats.frames_streamed, stats.reconnects), (0, 1), "{what}");
            let store = replica.store();
            assert_eq!(store.metrics().wal_appends, 0, "{what}");
            assert_eq!(
                store.snapshot_list(MergedListId(0)).unwrap(),
                [element(0.9)],
                "{what}"
            );
        }
    }
}
