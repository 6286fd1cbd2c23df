//! The single-global-mutex store: the pre-sharding serving architecture,
//! kept as the contention baseline for the throughput experiments.
//!
//! Every operation — including read-only fetches — serializes on one
//! `Mutex` around a single [`ListTable`], exactly like the original server
//! that wrapped the whole `OrderedIndex` in a global lock.  Results are
//! element-for-element identical to [`crate::ShardedStore`] (both delegate
//! to the same table logic); only the concurrency model differs.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use zerber_base::{MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::{OrderedElement, OrderedIndex};

use crate::convert::u64_of;
use crate::error::StoreError;
use crate::lockrank::{self, LockClass};
use crate::store::{
    CursorId, ListStore, ListTable, OrderedList, RangedBatch, RangedFetch, SessionStats, StoreJob,
    StoreMetrics, VecList,
};

/// A store serializing every operation on one global mutex.
#[derive(Debug)]
pub struct SingleMutexStore {
    inner: Mutex<ListTable<VecList>>,
    plan: MergePlan,
    next_cursor: AtomicU64,
    /// Global-mutex acquisitions by the serving paths (see
    /// [`StoreMetrics::lock_acquisitions`]).
    lock_meter: AtomicU64,
}

impl SingleMutexStore {
    /// Builds the store from an ordered index.
    pub fn new(index: OrderedIndex) -> Self {
        let (lists, plan) = index.into_parts();
        let mut table = ListTable::default();
        for list in lists {
            table.push_list(VecList::from_elements(list));
        }
        SingleMutexStore {
            inner: Mutex::new(table),
            plan,
            next_cursor: AtomicU64::new(1),
            lock_meter: AtomicU64::new(0),
        }
    }

    /// Meters one mutex acquisition (called just before a serving-path
    /// `lock()`; audit accessors stay unmetered).
    fn meter_lock(&self) {
        self.lock_meter.fetch_add(1, Ordering::Relaxed);
    }

    /// Acquires the global mutex under the lock-rank discipline.  The
    /// single-mutex engine is one lock domain, ranked like shard 0 of a
    /// sharded core (see [`crate::lockrank`] for the global order).
    fn locked(&self) -> LockedTable<'_> {
        let rank = lockrank::acquire(LockClass::Shard, 0);
        LockedTable {
            guard: self.inner.lock(),
            _rank: rank,
        }
    }

    fn check(&self, list: MergedListId) -> Result<usize, StoreError> {
        let slot = list.0 as usize;
        if slot < self.plan.num_lists() {
            Ok(slot)
        } else {
            Err(StoreError::UnknownList(list.0))
        }
    }
}

/// The ranked guard over the global table mutex (lock guard declared first
/// so it drops before the rank pops).
struct LockedTable<'a> {
    guard: MutexGuard<'a, ListTable<VecList>>,
    _rank: lockrank::RankGuard,
}

impl std::ops::Deref for LockedTable<'_> {
    type Target = ListTable<VecList>;

    fn deref(&self) -> &ListTable<VecList> {
        &self.guard
    }
}

impl std::ops::DerefMut for LockedTable<'_> {
    fn deref_mut(&mut self) -> &mut ListTable<VecList> {
        &mut self.guard
    }
}

impl ListStore for SingleMutexStore {
    fn plan(&self) -> &MergePlan {
        &self.plan
    }

    fn num_shards(&self) -> usize {
        1
    }

    fn shard_of(&self, _list: MergedListId) -> usize {
        0
    }

    fn num_elements(&self) -> usize {
        self.locked().num_elements()
    }

    fn stored_bytes(&self) -> usize {
        self.locked().stored_bytes()
    }

    fn ciphertext_bytes(&self) -> usize {
        self.locked().ciphertext_bytes()
    }

    fn metrics(&self) -> StoreMetrics {
        let guard = self.locked();
        StoreMetrics {
            resident_bytes: u64_of(guard.resident_bytes()),
            lock_acquisitions: self.lock_meter.load(Ordering::Relaxed),
            visibility_scan_cost: guard.visibility_scan_cost(),
            ..StoreMetrics::default()
        }
    }

    fn list_len(&self, list: MergedListId) -> Result<usize, StoreError> {
        let slot = self.check(list)?;
        Ok(self.locked().list(slot).len())
    }

    fn visible_len(
        &self,
        list: MergedListId,
        accessible: Option<&[GroupId]>,
    ) -> Result<usize, StoreError> {
        let slot = self.check(list)?;
        Ok(self.locked().visible_total(slot, accessible))
    }

    fn snapshot_list(&self, list: MergedListId) -> Result<Vec<OrderedElement>, StoreError> {
        let slot = self.check(list)?;
        self.locked().list(slot).snapshot()
    }

    fn fetch_ranged(
        &self,
        fetch: &RangedFetch,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError> {
        let slot = self.check(fetch.list)?;
        self.meter_lock();
        self.locked()
            .fetch(slot, fetch.offset, fetch.count, accessible)
    }

    fn execute_shard_batch(&self, jobs: &[StoreJob<'_>]) -> Vec<Result<RangedBatch, StoreError>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // One lock domain: the whole cross-user round is served under a
        // single mutex acquisition, however many requests it carries.
        self.meter_lock();
        let mut guard = self.locked();
        let results = jobs
            .iter()
            .map(|job| {
                if job.cursor.is_some() {
                    guard.cursor_fetch(job.cursor.0, job.owner, job.fetch.count, job.accessible)
                } else {
                    let slot = self.check(job.fetch.list)?;
                    guard.fetch(slot, job.fetch.offset, job.fetch.count, job.accessible)
                }
            })
            .collect();
        // Sweep AFTER serving, matching the sharded engine's ordering, so a
        // session resumed in this very round refreshes its last_used before
        // the TTL check can see it.
        if guard.ttl_sweep_due() {
            guard.sweep_expired();
        }
        results
    }

    fn open_cursor(
        &self,
        list: MergedListId,
        owner: u64,
        batch: &RangedBatch,
        delivered: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<CursorId, StoreError> {
        let slot = self.check(list)?;
        let raw = self.next_cursor.fetch_add(1, Ordering::Relaxed) << 8;
        self.meter_lock();
        self.locked()
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
        if !cursor.is_some() {
            return Err(StoreError::UnknownCursor(cursor.0));
        }
        self.meter_lock();
        let mut guard = self.locked();
        // The global mutex is already exclusive: sweep idle sessions inline
        // when due, so read-heavy workloads reclaim them too — but only
        // after serving, matching the sharded engine's ordering (a resumed
        // session refreshes last_used before the sweep can expire it).
        let result = guard.cursor_fetch(cursor.0, owner, count, accessible);
        if guard.ttl_sweep_due() {
            guard.sweep_expired();
        }
        result
    }

    fn close_cursor(&self, cursor: CursorId, owner: u64) {
        self.meter_lock();
        self.locked().close_cursor(cursor.0, owner);
    }

    fn open_cursors(&self) -> usize {
        self.locked().open_cursors()
    }

    fn session_stats(&self) -> SessionStats {
        self.locked().session_stats()
    }

    fn insert(&self, list: MergedListId, element: OrderedElement) -> Result<usize, StoreError> {
        let slot = self.check(list)?;
        self.meter_lock();
        self.locked().insert(slot, element)
    }

    fn verify_ordering(&self) -> bool {
        self.locked().ordering_ok()
    }
}
