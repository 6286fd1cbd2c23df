//! The serving store: merged lists partitioned across shards, each shard a
//! session table of segment stacks behind its own `RwLock`.
//!
//! Merged posting lists are partitioned across N shards by `MergedListId`
//! (lists are dense `0..num_lists`, so `id % N` is a perfect hash).  Each
//! shard is a [`ListTable`] behind its own `RwLock`: queries on different
//! lists never contend, concurrent queries on the same shard share a read
//! lock, and an insert write-locks exactly one shard and rebuilds one
//! segment of one list (see [`crate::spill`]).
//!
//! Cursor sessions live *inside* the shard that owns their list, so the
//! position adjustment an insert must apply to open cursors happens under
//! the same write lock as the insert itself — no separate session lock, no
//! position races.  A follow-up advances its session under the shard read
//! lock; the write lock is taken to open or close a session, or to insert.
//!
//! There is one store, [`SpillStore`], and it runs in three lifecycles that
//! differ only in where the sealed bytes live:
//!
//! * **resident** ([`SpillStore::resident`]) — every segment stays in
//!   memory: no pager, no budget, no page file, no directory, no
//!   maintenance pass;
//! * **spill** ([`SpillStore::with_configs`]) — cold segments page out to
//!   per-shard files that are cache state, deleted on drop;
//! * **durable** ([`SpillStore::create_durable`] / [`SpillStore::open`]) —
//!   the page files are checkpoint state next to a write-ahead log.
//!
//! Every store is built in a directory its caller names (none at all for
//! a resident one), and one fact decides what differs between the two
//! paging lifecycles: whether the store has durable state (`durable` below,
//! [`SpillStore::is_durable`]).
//!
//! This module holds what the three share — shard locks, routing, sessions
//! and the [`ListStore`] implementation; the segment stack, the pager and
//! the paging lifecycles' constructors and maintenance live in
//! [`crate::spill`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use zerber_base::{MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::{OrderedElement, OrderedIndex};

use crate::convert::u64_of;
use crate::error::StoreError;
use crate::lockrank::{self, LockClass, Mode, Ranked};
use crate::segment::SegmentConfig;
use crate::spill::{DurableState, Pager, SpillList};
use crate::store::{
    CursorId, GroupFilter, ListStore, ListTable, RangedBatch, RangedFetch, SessionStats,
    StoreMetrics,
};

/// Upper bound on shards: cursor ids embed the shard index in their low byte.
pub const MAX_SHARDS: usize = 256;

/// The sharded, concurrently accessible store of segment stacks.
///
/// `resident_bytes`, `spilled_bytes`, `page_faults` and `page_evictions`
/// (see [`StoreMetrics`]) make the memory/disk split observable; on the
/// resident lifecycle everything but `resident_bytes` and
/// `lock_acquisitions` reads 0.
#[derive(Debug)]
pub struct SpillStore {
    shards: Vec<RwLock<ListTable>>,
    plan: MergePlan,
    next_cursor: AtomicU64,
    /// Shard-lock acquisitions by the serving paths (see
    /// [`StoreMetrics::lock_acquisitions`]).
    lock_meter: AtomicU64,
    /// One pager per shard; empty on the resident lifecycle.
    pub(crate) pagers: Vec<Arc<Pager>>,
    /// WAL/manifest machinery; `None` unless the store is durable.  The
    /// one lifecycle switch of a paging store: page-file fsyncs, manifests
    /// and persistence across drops follow from it, nothing else.
    pub(crate) durable: Option<DurableState>,
}

/// A ranked shard read guard (see [`lockrank::ranked`]).
pub(crate) type ShardRead<'a> = Ranked<RwLockReadGuard<'a, ListTable>>;
/// A ranked shard write guard.
pub(crate) type ShardWrite<'a> = Ranked<RwLockWriteGuard<'a, ListTable>>;

/// The shard count matched to the machine (`available_parallelism`, clamped
/// to `[1, 64]`).
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 64)
}

impl SpillStore {
    /// Builds a resident store across exactly `num_shards` shards: every
    /// segment stays in memory, nothing is created on disk and no
    /// maintenance ever runs.  Fails with [`StoreError::InvalidElement`]
    /// if an element of `index` breaks the contract of [`ListStore::insert`].
    pub fn resident(
        index: OrderedIndex,
        num_shards: usize,
        segment: SegmentConfig,
    ) -> Result<Self, StoreError> {
        Self::build(index, num_shards, segment, Vec::new())
    }

    /// Partitions `index` across `num_shards` shards (list `id` lands in
    /// shard `id % num_shards`), building each list against its shard's
    /// pager — `pagers` holds one per shard, or none for a resident store —
    /// and the budget the shard's earlier lists left spare.
    pub(crate) fn build(
        index: OrderedIndex,
        num_shards: usize,
        segment: SegmentConfig,
        pagers: Vec<Arc<Pager>>,
    ) -> Result<Self, StoreError> {
        let num_shards = num_shards.clamp(1, MAX_SHARDS);
        let (lists, plan) = index.into_parts();
        let mut tables: Vec<Vec<SpillList>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut spare: Vec<usize> = (0..num_shards)
            .map(|shard| pagers.get(shard).map_or(0, |pager| pager.resident_budget))
            .collect();
        for (id, list) in lists.into_iter().enumerate() {
            let shard = id % num_shards;
            let pager = pagers.get(shard).cloned();
            tables[shard].push(SpillList::build(list, segment, pager, &mut spare[shard])?);
        }
        Self::assemble(plan, tables, pagers)
    }

    /// Assembles a store from already-materialized per-shard lists (fresh
    /// builds and the durable recovery path).  `tables[s]` holds shard
    /// `s`'s lists in slot order, i.e. `tables[s][j]` is merged list
    /// `j * num_shards + s`.
    pub(crate) fn assemble(
        plan: MergePlan,
        tables: Vec<Vec<SpillList>>,
        pagers: Vec<Arc<Pager>>,
    ) -> Result<Self, StoreError> {
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
        Ok(SpillStore {
            shards,
            plan,
            next_cursor: AtomicU64::new(1),
            lock_meter: AtomicU64::new(0),
            pagers,
            durable: None,
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

    /// Resolves a list id to its `(shard, slot)` coordinates, rejecting
    /// unknown lists.
    pub(crate) fn known(&self, list: MergedListId) -> Result<(usize, usize), StoreError> {
        if (list.0 as usize) < self.plan.num_lists() {
            Ok(self.slot(list))
        } else {
            Err(StoreError::UnknownList(list.0))
        }
    }

    fn cursor_shard(&self, cursor: CursorId) -> Result<usize, StoreError> {
        let shard = (cursor.0 & 0xff) as usize;
        if cursor.is_some() && shard < self.shards.len() {
            Ok(shard)
        } else {
            Err(StoreError::UnknownCursor(cursor.0))
        }
    }

    /// Acquires one shard's read lock under the lock-rank discipline
    /// (unmetered — the lock meter counts serving-path acquisitions only).
    ///
    /// **Lock order** (enforced at runtime in debug builds by
    /// [`crate::lockrank`]): a replica's store-slot lock, then at most one
    /// shard lock at a time.  Cursor sessions live inside the
    /// shard that owns their list, so there is no separate session lock to
    /// order — the store slot always ranks before any shard ("store before
    /// session").  Every shard acquisition funnels through here or
    /// [`Self::shard_write`].
    pub(crate) fn shard_read(&self, shard: usize) -> ShardRead<'_> {
        lockrank::ranked(LockClass::Shard, shard, Mode::Read, || {
            self.shards[shard].read()
        })
    }

    /// Acquires one shard's write lock under the lock-rank discipline; see
    /// [`Self::shard_read`] for the global order.
    pub(crate) fn shard_write(&self, shard: usize) -> ShardWrite<'_> {
        lockrank::ranked(LockClass::Shard, shard, Mode::Write, || {
            self.shards[shard].write()
        })
    }
}

impl ListStore for SpillStore {
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

    fn metrics(&self) -> StoreMetrics {
        let mut metrics = StoreMetrics {
            lock_acquisitions: self.lock_meter.load(Ordering::Relaxed),
            ..StoreMetrics::default()
        };
        for s in 0..self.shards.len() {
            metrics.resident_bytes += u64_of(self.shard_read(s).resident_bytes());
        }
        self.add_paging_metrics(&mut metrics);
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
        let filter = GroupFilter::normalise(accessible);
        self.meter_lock();
        let batch = self
            .shard_read(shard)
            .fetch(slot, fetch.offset, fetch.count, &filter)?;
        self.tier_maintenance(shard);
        Ok(batch)
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
        let filter = GroupFilter::normalise(accessible);
        self.meter_lock();
        let batch = self
            .shard_read(shard)
            .cursor_fetch(cursor.0, owner, count, &filter)?;
        self.tier_maintenance(shard);
        Ok(batch)
    }

    fn close_cursor(&self, cursor: CursorId, owner: u64) {
        if let Ok(shard) = self.cursor_shard(cursor) {
            self.meter_lock();
            self.shard_write(shard).close_cursor(cursor.0, owner);
        }
    }

    fn session_stats(&self) -> SessionStats {
        SessionStats::aggregate((0..self.shards.len()).map(|s| self.shard_read(s).session_stats()))
    }

    fn insert(&self, list: MergedListId, mut element: OrderedElement) -> Result<usize, StoreError> {
        let (shard, slot) = self.known(list)?;
        self.meter_lock();
        let pos = {
            let mut guard = self.shard_write(shard);
            match &self.durable {
                None => guard.insert(slot, element)?,
                // Log and apply under the same shard write lock: log order
                // is apply order, an insert is only acknowledged once its
                // WAL record is written (and fsynced per the policy), and
                // one that fails is neither served nor logged.  Checked
                // first, so the log holds the element as stored.
                Some(durable) => {
                    crate::durable::check_element(&mut element)?;
                    let _io = lockrank::sanctioned_io("log order is apply order");
                    durable.append_and_apply(shard, list.0, &element, || {
                        guard.insert(slot, element.clone())
                    })?
                }
            }
        };
        self.tier_maintenance(shard);
        Ok(pos)
    }

    fn verify_ordering(&self) -> bool {
        (0..self.shards.len()).all(|s| self.shard_read(s).ordering_ok())
    }
}
