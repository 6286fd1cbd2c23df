//! The concurrent sharded store, generic over the physical list layout.
//!
//! Merged posting lists are partitioned across N shards by `MergedListId`
//! (lists are dense `0..num_lists`, so `id % N` is a perfect hash).  Each
//! shard is a [`ListTable`] behind its own `RwLock`: queries on different
//! lists never contend, concurrent queries on the same shard share a read
//! lock, and an insert write-locks exactly one shard.
//!
//! Cursor sessions live *inside* the shard that owns their list, so the
//! position adjustment an insert must apply to open cursors happens under
//! the same write lock as the insert itself — no separate session lock, no
//! position races.
//!
//! [`ShardedCore`] carries all of that machinery once, generic over an
//! [`OrderedList`]; the two public engines are instantiations:
//!
//! * [`ShardedStore`] — the reference `Vec<OrderedElement>` layout,
//! * [`SegmentStore`] — the compressed segment layout of
//!   [`crate::segment`].
//!
//! Because the session, generation and locking logic is shared, the engines
//! answer element-for-element identically by construction; only the physical
//! representation (and its byte footprint / scan cost) differs.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use zerber_base::{MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::{OrderedElement, OrderedIndex};

use crate::convert::u64_of;
use crate::error::StoreError;
use crate::lockrank::{self, LockClass};
use crate::segment::{SegmentConfig, SegmentList};
use crate::store::{
    CursorId, ListStore, ListTable, OrderedList, RangedBatch, RangedFetch, SessionStats, StoreJob,
    StoreMetrics, VecList,
};

/// Upper bound on shards: cursor ids embed the shard index in their low byte.
pub const MAX_SHARDS: usize = 256;

/// The sharded, concurrently accessible store over an arbitrary physical
/// list layout.
#[derive(Debug)]
pub struct ShardedCore<L: OrderedList> {
    shards: Vec<RwLock<ListTable<L>>>,
    plan: MergePlan,
    next_cursor: AtomicU64,
    /// Shard-lock acquisitions by the serving paths (see
    /// [`StoreMetrics::lock_acquisitions`]).
    lock_meter: AtomicU64,
}

/// The sharded store over the reference `Vec<OrderedElement>` layout.
pub type ShardedStore = ShardedCore<VecList>;

/// The sharded store over the compressed segment layout: immutable
/// block-encoded segments with per-block skip entries plus a mutable tail.
pub type SegmentStore = ShardedCore<SegmentList>;

/// A ranked shard read guard: the lock rank is registered *before* blocking
/// on the lock and released after the guard drops (field order: the lock
/// guard is declared first, so it drops before the rank pops).
pub(crate) struct ShardRead<'a, L: OrderedList> {
    guard: RwLockReadGuard<'a, ListTable<L>>,
    _rank: lockrank::RankGuard,
}

impl<L: OrderedList> Deref for ShardRead<'_, L> {
    type Target = ListTable<L>;

    fn deref(&self) -> &ListTable<L> {
        &self.guard
    }
}

/// A ranked shard write guard; see [`ShardRead`].
pub(crate) struct ShardWrite<'a, L: OrderedList> {
    guard: RwLockWriteGuard<'a, ListTable<L>>,
    _rank: lockrank::RankGuard,
}

impl<L: OrderedList> Deref for ShardWrite<'_, L> {
    type Target = ListTable<L>;

    fn deref(&self) -> &ListTable<L> {
        &self.guard
    }
}

impl<L: OrderedList> DerefMut for ShardWrite<'_, L> {
    fn deref_mut(&mut self) -> &mut ListTable<L> {
        &mut self.guard
    }
}

/// The shard count matched to the machine (`available_parallelism`, clamped
/// to `[1, 64]`).
pub(crate) fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 64)
}

impl<L: OrderedList> ShardedCore<L> {
    /// Builds a store partitioned across `num_shards` shards, materializing
    /// each list through `make` (which receives the shard index the list
    /// lands in, so layouts with per-shard backing state — the on-disk spill
    /// engine's page files — attach to the right shard).
    pub(crate) fn build(
        index: OrderedIndex,
        num_shards: usize,
        mut make: impl FnMut(usize, Vec<OrderedElement>) -> Result<L, StoreError>,
    ) -> Result<Self, StoreError> {
        let num_shards = num_shards.clamp(1, MAX_SHARDS);
        let (lists, plan) = index.into_parts();
        let mut shards: Vec<ListTable<L>> = (0..num_shards).map(|_| ListTable::default()).collect();
        for (id, list) in lists.into_iter().enumerate() {
            let shard = id % num_shards;
            shards[shard].push_list(make(shard, list)?);
        }
        Ok(ShardedCore {
            shards: shards.into_iter().map(RwLock::new).collect(),
            plan,
            next_cursor: AtomicU64::new(1),
            lock_meter: AtomicU64::new(0),
        })
    }

    /// Meters one shard-lock acquisition (called just before a serving-path
    /// `read()`/`write()`; audit accessors stay unmetered).
    fn meter_lock(&self) {
        self.lock_meter.fetch_add(1, Ordering::Relaxed);
    }

    fn slot(&self, list: MergedListId) -> (usize, usize) {
        let id = list.0 as usize;
        (id % self.shards.len(), id / self.shards.len())
    }

    fn known(&self, list: MergedListId) -> Result<(usize, usize), StoreError> {
        if (list.0 as usize) < self.plan.num_lists() {
            Ok(self.slot(list))
        } else {
            Err(StoreError::UnknownList(list.0))
        }
    }

    pub(crate) fn cursor_shard(&self, cursor: CursorId) -> Result<usize, StoreError> {
        let shard = (cursor.0 & 0xff) as usize;
        if cursor.is_some() && shard < self.shards.len() {
            Ok(shard)
        } else {
            Err(StoreError::UnknownCursor(cursor.0))
        }
    }

    /// Acquires one shard's read lock under the lock-rank discipline.
    ///
    /// **Lock order** (enforced at runtime in debug builds by
    /// [`crate::lockrank`]): a replica's store-slot lock, then shard locks
    /// in *ascending shard-index* order.  Cursor sessions live inside the
    /// shard that owns their list, so there is no separate session lock to
    /// order — the store slot always ranks before any shard ("store before
    /// session").  Every shard acquisition in this module funnels through
    /// here or [`Self::shard_write`].
    pub(crate) fn shard_read(&self, shard: usize) -> ShardRead<'_, L> {
        let rank = lockrank::acquire(LockClass::Shard, shard);
        ShardRead {
            guard: self.shards[shard].read(),
            _rank: rank,
        }
    }

    /// Acquires one shard's write lock under the lock-rank discipline; see
    /// [`Self::shard_read`] for the global order.
    pub(crate) fn shard_write(&self, shard: usize) -> ShardWrite<'_, L> {
        let rank = lockrank::acquire(LockClass::Shard, shard);
        ShardWrite {
            guard: self.shards[shard].write(),
            _rank: rank,
        }
    }

    /// Runs `f` under one shard's read lock (maintenance passes; unmetered —
    /// the lock meter counts serving-path acquisitions only).
    pub(crate) fn with_shard_read<R>(&self, shard: usize, f: impl FnOnce(&ListTable<L>) -> R) -> R {
        let guard = self.shard_read(shard);
        f(&guard)
    }

    /// Runs `f` under one shard's write lock (maintenance passes; unmetered).
    pub(crate) fn with_shard_write<R>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut ListTable<L>) -> R,
    ) -> R {
        let mut guard = self.shard_write(shard);
        f(&mut guard)
    }

    /// Resolves a list id to its `(shard, slot)` coordinates, rejecting
    /// unknown lists (recovery replay routes WAL records through this).
    pub(crate) fn locate(&self, list: MergedListId) -> Result<(usize, usize), StoreError> {
        self.known(list)
    }

    /// Reassembles a store from already-materialized per-shard lists (the
    /// durable recovery path).  `tables[s]` holds shard `s`'s lists in slot
    /// order, i.e. `tables[s][j]` is merged list `j * num_shards + s` —
    /// the same arrangement [`Self::build`] produces.
    pub(crate) fn assemble(plan: MergePlan, tables: Vec<Vec<L>>) -> Result<Self, StoreError> {
        let total: usize = tables.iter().map(Vec::len).sum();
        if total != plan.num_lists() || tables.is_empty() || tables.len() > MAX_SHARDS {
            return Err(StoreError::RecoveryFailed(format!(
                "recovered {} lists across {} shards, plan expects {}",
                total,
                tables.len(),
                plan.num_lists()
            )));
        }
        let mut shards = Vec::with_capacity(tables.len());
        for lists in tables {
            let mut table = ListTable::default();
            for list in lists {
                table.push_list(list);
            }
            shards.push(RwLock::new(table));
        }
        Ok(ShardedCore {
            shards,
            plan,
            next_cursor: AtomicU64::new(1),
            lock_meter: AtomicU64::new(0),
        })
    }

    /// The batch round behind [`ListStore::execute_shard_batch`].
    /// `after_shard` runs off-lock once per touched shard, right after that
    /// shard's jobs were served (the spill engine's maintenance hook).
    pub(crate) fn execute_batch(
        &self,
        jobs: &[StoreJob<'_>],
        mut after_shard: impl FnMut(usize),
    ) -> Vec<Result<RangedBatch, StoreError>> {
        let mut results = vec![Err(StoreError::Invariant("job was never routed")); jobs.len()];
        // Group job indices by shard — ranged jobs route by list id, cursor
        // jobs by the shard index embedded in the cursor.  Jobs no shard
        // can serve fail on their own without touching a lock.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, job) in jobs.iter().enumerate() {
            let routed = if job.cursor.is_some() {
                self.cursor_shard(job.cursor)
            } else {
                self.known(job.fetch.list).map(|(shard, _)| shard)
            };
            match routed {
                Ok(shard) => by_shard[shard].push(i),
                Err(e) => results[i] = Err(e),
            }
        }
        for (shard, mut indices) in by_shard.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            // Within the shard, serve ranged jobs grouped by list and
            // cursor resumptions grouped by session (stable, so same-cursor
            // resumptions keep their input order and answer exactly like a
            // sequential run): a layout that pages cold state in from disk
            // then faults each touched page at most once per round of
            // ranged jobs, and same-session follow-ups share their faults
            // too.  (A resume job's `fetch.list` is a placeholder — the
            // session knows its own list — so cursors group by id, not
            // list.)
            indices.sort_by_key(|&i| {
                let job = &jobs[i];
                if job.cursor.is_some() {
                    (1u8, job.cursor.0)
                } else {
                    (0u8, job.fetch.list.0)
                }
            });
            self.meter_lock();
            let sweep_due = {
                let guard = self.shard_read(shard);
                for i in indices {
                    let job = &jobs[i];
                    results[i] = if job.cursor.is_some() {
                        guard.cursor_fetch(job.cursor.0, job.owner, job.fetch.count, job.accessible)
                    } else {
                        let (_, slot) = self.slot(job.fetch.list);
                        guard.fetch(slot, job.fetch.offset, job.fetch.count, job.accessible)
                    };
                }
                guard.ttl_sweep_due()
            };
            if sweep_due {
                self.meter_lock();
                self.shard_write(shard).sweep_expired();
            }
            after_shard(shard);
        }
        results
    }

    /// Inserts like [`ListStore::insert`], additionally invoking `log` with
    /// the element's shard *after* the in-memory apply but under the same
    /// shard write lock — so the write-ahead log's record order is exactly
    /// the apply order and an acknowledged insert is always logged.  A `log`
    /// failure surfaces as the insert's error.
    pub(crate) fn insert_logged(
        &self,
        list: MergedListId,
        element: OrderedElement,
        log: impl FnOnce(usize, &OrderedElement) -> Result<(), StoreError>,
    ) -> Result<usize, StoreError> {
        let (shard, slot) = self.known(list)?;
        self.meter_lock();
        let mut guard = self.shard_write(shard);
        let pos = guard.insert(slot, element.clone())?;
        log(shard, &element)?;
        Ok(pos)
    }
}

impl ShardedStore {
    /// Builds a store from an ordered index with a machine-matched shard
    /// count.
    pub fn new(index: OrderedIndex) -> Self {
        Self::with_shards(index, default_shards())
    }

    /// Builds a store partitioned across exactly `num_shards` shards.
    pub fn with_shards(index: OrderedIndex, num_shards: usize) -> Self {
        Self::build(index, num_shards, |_, list| {
            Ok(VecList::from_elements(list))
        })
        // analyze::allow(panic): build only fails when the builder closure
        // does, and this closure always returns Ok
        .expect("the Vec layout builds infallibly")
    }
}

impl SegmentStore {
    /// Builds a compressed-segment store with a machine-matched shard count.
    pub fn new(index: OrderedIndex) -> Result<Self, StoreError> {
        Self::with_shards(index, default_shards())
    }

    /// Builds a compressed-segment store across exactly `num_shards` shards
    /// with the default segment layout.
    pub fn with_shards(index: OrderedIndex, num_shards: usize) -> Result<Self, StoreError> {
        Self::with_config(index, num_shards, SegmentConfig::default())
    }

    /// Builds a compressed-segment store with explicit layout tuning (block
    /// length, tail threshold, compaction and payload bounds).  Fails with
    /// [`StoreError::SegmentOverflow`] only if a single element cannot be
    /// encoded under the payload bound.
    pub fn with_config(
        index: OrderedIndex,
        num_shards: usize,
        config: SegmentConfig,
    ) -> Result<Self, StoreError> {
        Self::build(index, num_shards, move |_, list| {
            SegmentList::with_config(list, config)
        })
    }
}

impl<L: OrderedList> ListStore for ShardedCore<L> {
    fn plan(&self) -> &MergePlan {
        &self.plan
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, list: MergedListId) -> usize {
        self.slot(list).0
    }

    fn num_elements(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.shard_read(s).num_elements())
            .sum()
    }

    fn stored_bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.shard_read(s).stored_bytes())
            .sum()
    }

    fn ciphertext_bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.shard_read(s).ciphertext_bytes())
            .sum()
    }

    fn metrics(&self) -> StoreMetrics {
        let mut metrics = StoreMetrics {
            lock_acquisitions: self.lock_meter.load(Ordering::Relaxed),
            ..StoreMetrics::default()
        };
        for s in 0..self.shards.len() {
            let guard = self.shard_read(s);
            metrics.resident_bytes += u64_of(guard.resident_bytes());
            metrics.visibility_scan_cost += guard.visibility_scan_cost();
        }
        metrics
    }

    fn list_len(&self, list: MergedListId) -> Result<usize, StoreError> {
        let (shard, slot) = self.known(list)?;
        Ok(self.shard_read(shard).list(slot).len())
    }

    fn visible_len(
        &self,
        list: MergedListId,
        accessible: Option<&[GroupId]>,
    ) -> Result<usize, StoreError> {
        let (shard, slot) = self.known(list)?;
        Ok(self.shard_read(shard).visible_total(slot, accessible))
    }

    fn snapshot_list(&self, list: MergedListId) -> Result<Vec<OrderedElement>, StoreError> {
        let (shard, slot) = self.known(list)?;
        self.shard_read(shard).list(slot).snapshot()
    }

    fn fetch_ranged(
        &self,
        fetch: &RangedFetch,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        let (shard, slot) = self.known(fetch.list)?;
        self.meter_lock();
        self.shard_read(shard)
            .fetch(slot, fetch.offset, fetch.count, accessible)
    }

    fn execute_shard_batch(&self, jobs: &[StoreJob<'_>]) -> Vec<Result<RangedBatch, StoreError>> {
        self.execute_batch(jobs, |_| {})
    }

    fn open_cursor(
        &self,
        list: MergedListId,
        owner: u64,
        batch: &RangedBatch,
        delivered: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<CursorId, StoreError> {
        let (shard, slot) = self.known(list)?;
        let seq = self.next_cursor.fetch_add(1, Ordering::Relaxed);
        let raw = (seq << 8) | shard as u64;
        self.meter_lock();
        self.shard_write(shard)
            .open_cursor(raw, slot, owner, batch, delivered, accessible)?;
        Ok(CursorId(raw))
    }

    fn cursor_fetch(
        &self,
        cursor: CursorId,
        owner: u64,
        count: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        let shard = self.cursor_shard(cursor)?;
        self.meter_lock();
        let (result, sweep_due) = {
            let guard = self.shard_read(shard);
            let result = guard.cursor_fetch(cursor.0, owner, count, accessible);
            (result, guard.ttl_sweep_due())
        };
        if sweep_due {
            // A TTL sweep is due (at most once per TTL window): upgrade to
            // the write lock so a read-heavy workload with stable cursors
            // still reclaims idle sessions.
            self.meter_lock();
            self.shard_write(shard).sweep_expired();
        }
        result
    }

    fn close_cursor(&self, cursor: CursorId, owner: u64) {
        if let Ok(shard) = self.cursor_shard(cursor) {
            self.meter_lock();
            self.shard_write(shard).close_cursor(cursor.0, owner);
        }
    }

    fn open_cursors(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.shard_read(s).open_cursors())
            .sum()
    }

    fn session_stats(&self) -> SessionStats {
        SessionStats::aggregate((0..self.shards.len()).map(|s| self.shard_read(s).session_stats()))
    }

    fn insert(&self, list: MergedListId, element: OrderedElement) -> Result<usize, StoreError> {
        let (shard, slot) = self.known(list)?;
        self.meter_lock();
        self.shard_write(shard).insert(slot, element)
    }

    fn verify_ordering(&self) -> bool {
        (0..self.shards.len()).all(|s| self.shard_read(s).ordering_ok())
    }
}
