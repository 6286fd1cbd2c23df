//! The oracle: the naive model every answer of the serving store is checked
//! against — [`VecList`], a plain per-element `Vec` layout, behind
//! [`SingleMutexStore`], one global mutex around one session table.
//!
//! Nothing serves from this module.  It exists so that the one segment-stack
//! engine ([`crate::SpillStore`], in any of its three lifecycles) has an
//! independent implementation of the same contract to agree with, element
//! for element: `tests/store_equivalence.rs`, the crash-recovery and
//! replication suites and the unit tests of [`crate::segment`] and
//! [`crate::spill`] all hold their results against it (and against
//! `OrderedIndex::{fetch, visible_len}`).  It is deliberately naive about
//! visibility — every count, a cursor follow-up's included, walks the whole
//! list and every membership test is a linear `contains` — and deliberately
//! shares only the session table ([`ListTable`]) with the engine it checks,
//! so cursor, generation and TTL behaviour cannot diverge while everything
//! physical can.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use zerber_base::{EncryptedElement, MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::{OrderedElement, OrderedIndex, TRS_BYTES};

use crate::convert::u64_of;
use crate::error::StoreError;
use crate::lockrank::{self, LockClass, Mode, Ranked};
use crate::store::{
    CursorId, GroupFilter, ListStore, ListTable, OrderedList, RangedBatch, RangedFetch,
    SessionStats, StoreMetrics,
};

/// Per-element metadata of the arena layout: the fields scans inspect, plus
/// the span of the element's ciphertext inside the list arena.
#[derive(Debug, Clone, Copy)]
struct ElemMeta {
    trs: f64,
    group: GroupId,
    sealed_group: GroupId,
    offset: usize,
    len: usize,
}

/// The reference layout: per-element metadata in one dense vec plus a single
/// bump arena holding every sealed ciphertext back to back (one arena per
/// list rather than one heap `Vec<u8>` per element, so the resident-bytes
/// comparison against the compressed segments is a fair one).
///
/// Deliberately naive about visibility — every count walks the whole list
/// and every membership test is a linear `contains` — because it is what
/// the segment stack is checked against.
#[derive(Debug, Default)]
pub struct VecList {
    meta: Vec<ElemMeta>,
    arena: Vec<u8>,
}

impl VecList {
    /// Builds the list from its ordered (descending-TRS) elements.
    pub fn from_elements(elements: Vec<OrderedElement>) -> Self {
        let total: usize = elements.iter().map(|e| e.sealed.ciphertext.len()).sum();
        let mut arena = Vec::with_capacity(total);
        let mut meta = Vec::with_capacity(elements.len());
        for e in elements {
            let offset = arena.len();
            arena.extend_from_slice(&e.sealed.ciphertext);
            meta.push(ElemMeta {
                trs: e.trs,
                group: e.group,
                sealed_group: e.sealed.group,
                offset,
                len: e.sealed.ciphertext.len(),
            });
        }
        VecList { meta, arena }
    }

    /// Rebuilds the full `OrderedElement` at physical index `i`.
    fn materialize(&self, i: usize) -> OrderedElement {
        let m = &self.meta[i];
        OrderedElement {
            trs: m.trs,
            group: m.group,
            sealed: EncryptedElement {
                group: m.sealed_group,
                ciphertext: self.arena[m.offset..m.offset + m.len].to_vec(),
            },
        }
    }
}

impl OrderedList for VecList {
    fn len(&self) -> usize {
        self.meta.len()
    }

    fn snapshot(&self) -> Result<Vec<OrderedElement>, StoreError> {
        Ok((0..self.meta.len()).map(|i| self.materialize(i)).collect())
    }

    fn visible_total(&self, filter: &GroupFilter<'_>) -> usize {
        let accessible = filter.groups();
        self.meta
            .iter()
            .filter(|m| is_visible_group(m.group, accessible))
            .count()
    }

    fn scan(
        &self,
        start: usize,
        skip: usize,
        count: usize,
        filter: &GroupFilter<'_>,
    ) -> Result<(Vec<OrderedElement>, usize), StoreError> {
        let accessible = filter.groups();
        let mut elements = Vec::with_capacity(count.min(self.meta.len().saturating_sub(start)));
        let mut skipped = 0usize;
        let mut next = self.meta.len().max(start);
        for i in start..self.meta.len() {
            if !is_visible_group(self.meta[i].group, accessible) {
                continue;
            }
            if skipped < skip {
                skipped += 1;
                continue;
            }
            elements.push(self.materialize(i));
            if elements.len() == count {
                next = i + 1;
                break;
            }
        }
        Ok((elements, next))
    }

    fn insert(&mut self, element: OrderedElement) -> Result<usize, StoreError> {
        // After every element with a strictly larger TRS, before equal ones
        // (the binary search of Section 5, identical to
        // `OrderedIndex::insert_sealed`).
        let pos = self.meta.partition_point(|m| m.trs > element.trs);
        let offset = self
            .meta
            .get(pos)
            .map_or(self.arena.len(), |next| next.offset);
        let len = element.sealed.ciphertext.len();
        u32::try_from(len).map_err(|_| StoreError::SegmentOverflow)?;
        self.arena.splice(offset..offset, element.sealed.ciphertext);
        for m in &mut self.meta[pos..] {
            m.offset += len;
        }
        self.meta.insert(
            pos,
            ElemMeta {
                trs: element.trs,
                group: element.group,
                sealed_group: element.sealed.group,
                offset,
                len,
            },
        );
        Ok(pos)
    }

    fn stored_bytes(&self) -> usize {
        // `EncryptedElement::stored_bytes` is ciphertext + 4-byte group tag.
        self.arena.len() + self.meta.len() * (4 + TRS_BYTES)
    }

    fn ciphertext_bytes(&self) -> usize {
        self.arena.len()
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.meta.capacity() * std::mem::size_of::<ElemMeta>()
            + self.arena.capacity()
    }

    fn ordering_ok(&self) -> bool {
        self.meta.windows(2).all(|w| w[0].trs >= w[1].trs)
    }
}

/// The reference layout's visibility check: a linear `contains`, on purpose
/// (see [`VecList`]).
fn is_visible_group(group: GroupId, accessible: Option<&[GroupId]>) -> bool {
    match accessible {
        None => true,
        Some(groups) => groups.contains(&group),
    }
}

/// The oracle store: every operation — read-only fetches included —
/// serializes on one `Mutex` around a single [`ListTable`] of [`VecList`]s.
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
    /// oracle is one lock domain, ranked like shard 0 of the sharded store
    /// (see [`crate::lockrank`] for the global order).
    fn locked(&self) -> Ranked<MutexGuard<'_, ListTable<VecList>>> {
        lockrank::ranked(LockClass::Shard, 0, Mode::Write, || self.inner.lock())
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
        let filter = GroupFilter::normalise(accessible);
        self.meter_lock();
        self.locked()
            .fetch(slot, fetch.offset, fetch.count, &filter)
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
        let filter = GroupFilter::normalise(accessible);
        self.meter_lock();
        let mut guard = self.locked();
        // The global mutex is already exclusive: sweep idle sessions inline
        // when due, so read-heavy workloads reclaim them too — but only
        // after serving, matching the sharded store's ordering (a resumed
        // session refreshes last_used before the sweep can expire it).
        let result = guard.cursor_fetch(cursor.0, owner, count, &filter);
        if guard.ttl_sweep_due() {
            guard.sweep_expired();
        }
        result
    }

    fn close_cursor(&self, cursor: CursorId, owner: u64) {
        self.meter_lock();
        self.locked().close_cursor(cursor.0, owner);
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
