//! The `ListStore` trait: the seam between the query protocol and the
//! physical representation of the ordered merged posting lists.
//!
//! The untrusted server of the paper answers two operations: ranged top-k
//! fetches in TRS order (Section 5.2) and position-preserving inserts of
//! sealed elements (Section 5).  Both are per-merged-list operations, and
//! merged lists are independent by construction — which is exactly what makes
//! the index shardable.  This trait captures the contract: a query reaches
//! the store only as a ranged fetch or a cursor operation, one request at a
//! time.  Two things implement it: the serving store ([`crate::SpillStore`],
//! sharded, over the segment stack of [`crate::spill`]) and the oracle it is
//! checked against ([`crate::oracle`]).  The cursor-session table in this module
//! ([`ListTable`]) is generic over an [`OrderedList`] — the per-list physical
//! representation — so both share one cursor-session, generation and TTL
//! implementation and cannot diverge there.  A session keeps no visibility
//! state: every `visible_total`, a follow-up's included, is counted by the
//! list itself ([`OrderedList::visible_total`]), and a session opened from
//! an outdated batch finds its resume point with the list's own
//! [`OrderedList::scan`].

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use zerber_base::{MergePlan, MergedListId};
use zerber_corpus::GroupId;
use zerber_r::OrderedElement;

use crate::convert::usize_of;
use crate::error::StoreError;

/// Identifier of an open cursor session.  `CursorId(0)` means "no cursor".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CursorId(pub u64);

impl CursorId {
    /// The sentinel "no cursor" value.
    pub const NONE: CursorId = CursorId(0);

    /// Whether this is a real cursor (non-zero id).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One ranged fetch request against a merged list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangedFetch {
    /// The merged posting list to read.
    pub list: MergedListId,
    /// Number of *visible* elements to skip from the top of the list.
    pub offset: usize,
    /// Maximum number of visible elements to return.
    pub count: usize,
}

/// Result of one ranged or cursor fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct RangedBatch {
    /// Up to `count` accessible elements in descending TRS order.
    pub elements: Vec<OrderedElement>,
    /// Physical list position just past the last scanned element; a cursor
    /// resuming here continues the scan without re-walking the prefix.
    pub next_physical: usize,
    /// Total number of elements of the list visible to the caller.
    pub visible_total: usize,
    /// Whether the scan reached the physical end of the list.
    pub exhausted: bool,
    /// Insert generation of the list when the batch was served.  Opening a
    /// cursor from this batch compares generations: if an insert moved the
    /// list in between, the position is re-derived instead of trusted.
    pub generation: u64,
}

/// Every counter and gauge a storage engine exposes, read in one call
/// ([`ListStore::metrics`]).  Counters run since the store was built or
/// opened; the five gauges (`resident_bytes`, `spilled_bytes`,
/// `page_file_bytes`, `dead_page_bytes`, `replica_lag`) are point-in-time.
/// Fields a store has no notion of stay 0: the resident lifecycle and the
/// oracle fill `resident_bytes` and `lock_acquisitions` only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Estimated bytes of memory the engine's physical representation
    /// occupies — what the compressed-segment engine is measured against.
    pub resident_bytes: u64,
    /// Live page bytes in the on-disk page files: the pages of spilled
    /// slots plus the kept pages of promoted (resident) slots, so it
    /// overlaps `resident_bytes` once a slot has been promoted.
    pub spilled_bytes: u64,
    /// Pages read back (and re-validated) from secondary storage.
    pub page_faults: u64,
    /// Pages evicted from the page cache.
    pub page_evictions: u64,
    /// Page-cache hits.  `hits / (hits + faults)` is the cache hit rate of
    /// the serving workload.
    pub page_cache_hits: u64,
    /// Physical length of the on-disk page files backing the spilled state.
    /// Exceeds `spilled_bytes` by the dead bytes interior rebuilds strand in
    /// the append-only files.
    pub page_file_bytes: u64,
    /// Dead (stranded) bytes in the on-disk page files: space held by pages
    /// that were superseded by rebuilds and await compaction.
    pub dead_page_bytes: u64,
    /// Page-file compactions completed.
    pub compactions: u64,
    /// Sealed segments promoted from disk to the resident tier by the
    /// access-driven retier pass.
    pub promotions: u64,
    /// Sealed segments demoted from the resident tier to disk by the
    /// access-driven retier pass.
    pub demotions: u64,
    /// Write-ahead-log records appended (durable engines only).
    pub wal_appends: u64,
    /// Write-ahead-log bytes appended (durable engines only).
    pub wal_bytes: u64,
    /// Checkpoint pages read back, validated and adopted during recovery.
    pub recovered_pages: u64,
    /// Torn or corrupt WAL tail records discarded during recovery — the log
    /// was truncated at the last valid record.
    pub truncated_wal_records: u64,
    /// Replication frames received and applied (replicas only).
    pub frames_streamed: u64,
    /// Replication frames skipped as already applied — duplicates and
    /// retransmissions the idempotent apply discarded (replicas only).
    pub frames_skipped: u64,
    /// Full snapshot re-bootstraps a replica performed because the WAL tail
    /// it needed was no longer available.
    pub resnapshots: u64,
    /// Transport reconnects the replica's catch-up loop performed.
    pub reconnects: u64,
    /// Current replication lag in sequence numbers — the largest per-shard
    /// gap between the primary's last known head and this store's applied
    /// sequence.
    pub replica_lag: u64,
    /// Shard-lock acquisitions performed by the serving paths (fetches,
    /// cursor operations and inserts).  Audit accessors
    /// (element/byte totals, ordering checks) are not metered, so the
    /// counter reflects request-serving lock traffic.
    pub lock_acquisitions: u64,
}

/// Counters of one session table (aggregated across shards by
/// [`ListStore::session_stats`]): occupancy and eviction pressure of the
/// cursor-session machinery under a query workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently open.
    pub open: usize,
    /// Sessions opened since the store was built.
    pub opened_total: u64,
    /// Sessions evicted because the table hit [`MAX_CURSORS_PER_TABLE`].
    pub capacity_evictions: u64,
    /// Sessions expired because they sat idle for more than
    /// [`SESSION_TTL_TICKS`] logical clock ticks.
    pub ttl_evictions: u64,
    /// Current logical clock (requests served by the table(s)).
    pub clock: u64,
}

impl SessionStats {
    fn absorb(&mut self, other: SessionStats) {
        self.open += other.open;
        self.opened_total += other.opened_total;
        self.capacity_evictions += other.capacity_evictions;
        self.ttl_evictions += other.ttl_evictions;
        self.clock += other.clock;
    }

    /// Sums per-shard stats into one table-wide view (clocks add up, so the
    /// aggregate clock counts requests across all shards).
    pub fn aggregate(stats: impl IntoIterator<Item = SessionStats>) -> SessionStats {
        let mut total = SessionStats::default();
        for s in stats {
            total.absorb(s);
        }
        total
    }
}

/// Storage engine interface of the untrusted index server.
///
/// All methods take `&self`: implementations provide interior mutability and
/// are safe to share across server worker threads.
pub trait ListStore: Send + Sync + std::fmt::Debug {
    /// The merge plan (term → merged list) underlying the stored index.
    fn plan(&self) -> &MergePlan;

    /// Number of independent shards (1 for unsharded implementations).
    fn num_shards(&self) -> usize;

    /// The shard a merged list is assigned to.
    fn shard_of(&self, list: MergedListId) -> usize;

    /// Number of merged posting lists hosted.
    fn num_lists(&self) -> usize {
        self.plan().num_lists()
    }

    /// Total number of posting elements hosted.
    fn num_elements(&self) -> usize;

    /// Total bytes stored for the index (sealed payloads + TRS).  This is
    /// the *logical* byte accounting of the experiments and is identical
    /// across engines.
    fn stored_bytes(&self) -> usize;

    /// Total ciphertext bytes across all elements (for wire-size accounting).
    fn ciphertext_bytes(&self) -> usize;

    /// Every counter and gauge of the engine, read together.
    fn metrics(&self) -> StoreMetrics;

    /// Physical length of one merged list.
    fn list_len(&self, list: MergedListId) -> Result<usize, StoreError>;

    /// Number of elements of the list visible to a user with access to
    /// `accessible` groups (`None` = unrestricted).
    fn visible_len(
        &self,
        list: MergedListId,
        accessible: Option<&[GroupId]>,
    ) -> Result<usize, StoreError>;

    /// A full copy of one ordered list (audits and tests only).
    fn snapshot_list(&self, list: MergedListId) -> Result<Vec<OrderedElement>, StoreError>;

    /// Serves one ranged fetch: skips `offset` visible elements from the top
    /// of the list, then returns up to `count` visible elements.
    fn fetch_ranged(
        &self,
        fetch: &RangedFetch,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError>;

    /// Opens a cursor session continuing after `batch` (previously obtained
    /// from a ranged fetch on `list`).  `owner` is an opaque session tag;
    /// subsequent [`ListStore::cursor_fetch`] calls must present the same
    /// tag.  `delivered` is the number of visible elements (under
    /// `accessible`) the session has received so far: if inserts moved the
    /// list between the fetch and this call (detected via
    /// [`RangedBatch::generation`]), the implementation re-derives the
    /// position from `delivered` instead of trusting the stale
    /// `next_physical`, so follow-ups neither skip nor repeat elements.
    fn open_cursor(
        &self,
        list: MergedListId,
        owner: u64,
        batch: &RangedBatch,
        delivered: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<CursorId, StoreError>;

    /// Resumes a cursor: scans from the stored physical position, returns up
    /// to `count` visible elements and advances the cursor past the scanned
    /// range.  [`CursorId::NONE`] names no session:
    /// [`StoreError::UnknownCursor`]`(0)`.
    fn cursor_fetch(
        &self,
        cursor: CursorId,
        owner: u64,
        count: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<RangedBatch, StoreError>;

    /// Closes a cursor session (idempotent).  The caller must present the
    /// session's `owner` tag: a foreign tag leaves the session untouched, so
    /// one user cannot tear down another user's session by guessing its id.
    fn close_cursor(&self, cursor: CursorId, owner: u64);

    /// Occupancy and eviction pressure of the cursor-session tables.
    fn session_stats(&self) -> SessionStats;

    /// Inserts a sealed element at its TRS position, returning the physical
    /// insertion index.  Open cursors on the list positioned after the
    /// insertion point are shifted so they neither skip nor repeat elements.
    fn insert(&self, list: MergedListId, element: OrderedElement) -> Result<usize, StoreError>;

    /// Checks the descending-TRS invariant of every list.
    fn verify_ordering(&self) -> bool;
}

/// A caller's group filter in normal form: the groups strictly ascending
/// (sorted, no duplicates), or unrestricted.
///
/// [`ListTable`] — which every engine's [`ListStore`] entry points funnel
/// through — builds one per call and hands it to the [`OrderedList`]
/// layouts, so a request pays `O(groups)` once instead of a linear
/// `contains` per element or per skip entry: a single membership test is a
/// binary search, and a per-block / per-slot / per-list count is one merge
/// pass over two ascending sequences.  Only this crate can construct one,
/// which is what lets the layouts rely on the order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupFilter<'a>(Option<Cow<'a, [GroupId]>>);

impl<'a> GroupFilter<'a> {
    /// Normalises a caller-supplied filter (`None` = unrestricted): borrows
    /// the slice when it already is strictly ascending — the form the
    /// server's ACL hands out — and sorts + deduplicates a copy otherwise.
    pub(crate) fn normalise(accessible: Option<&'a [GroupId]>) -> Self {
        GroupFilter(accessible.map(|groups| {
            if groups.windows(2).all(|w| w[0] < w[1]) {
                Cow::Borrowed(groups)
            } else {
                let mut owned = groups.to_vec();
                owned.sort_unstable();
                owned.dedup();
                Cow::Owned(owned)
            }
        }))
    }

    /// The normalised groups (`None` = unrestricted).
    pub(crate) fn groups(&self) -> Option<&[GroupId]> {
        self.0.as_deref()
    }

    /// Whether an element of `group` is visible under the filter.
    pub(crate) fn admits(&self, group: GroupId) -> bool {
        self.groups()
            .is_none_or(|groups| groups.binary_search(&group).is_ok())
    }

    /// How many of `total` elements are visible, given their per-group
    /// breakdown `counts` (ascending by group id, summing to `total`): the
    /// one merge pass every skip entry, slot summary and running list total
    /// is counted by.
    pub(crate) fn visible_in(&self, total: usize, counts: &[(GroupId, u32)]) -> usize {
        let Some(groups) = self.groups() else {
            return total;
        };
        let mut visible = 0usize;
        let mut next = 0usize;
        for &(group, n) in counts {
            while groups.get(next).is_some_and(|g| *g < group) {
                next += 1;
            }
            match groups.get(next) {
                None => break,
                Some(g) if *g == group => visible += usize_of(n),
                Some(_) => {}
            }
        }
        visible
    }
}

/// The physical representation of one ordered merged list.
///
/// The cursor-session table ([`ListTable`]) is generic over this trait, so
/// the segment stack and the oracle's `Vec` layout inherit identical
/// session, generation and eviction behaviour.  All positions are *physical*
/// indices in the logical descending-TRS sequence; the segment stack must
/// agree element-for-element with the oracle.
pub trait OrderedList: Send + Sync + std::fmt::Debug {
    /// Number of elements held.
    fn len(&self) -> usize;

    /// Whether the list holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A full ordered copy of the list (audits and tests only).  Layouts
    /// backed by spilled pages may fail here if a page no longer decodes.
    fn snapshot(&self) -> Result<Vec<OrderedElement>, StoreError>;

    /// Number of elements visible under `filter`.
    fn visible_total(&self, filter: &GroupFilter<'_>) -> usize;

    /// Scans from physical index `start`, skipping `skip` visible elements,
    /// then collecting up to `count` visible elements.  Returns the
    /// collected elements and the physical index just past the last scanned
    /// element (`max(len, start)` if the scan ran off the end).  Fallible:
    /// a layout reading spilled pages surfaces corrupt or unreadable pages
    /// as a [`StoreError`] instead of panicking.
    fn scan(
        &self,
        start: usize,
        skip: usize,
        count: usize,
        filter: &GroupFilter<'_>,
    ) -> Result<(Vec<OrderedElement>, usize), StoreError>;

    /// Inserts an element at its TRS position (after strictly greater,
    /// before equal), returning the physical insertion index.  Fails —
    /// without corrupting the list — if the element cannot be encoded
    /// ([`StoreError::SegmentOverflow`]) or a spilled page it must touch
    /// cannot be read back.
    fn insert(&mut self, element: OrderedElement) -> Result<usize, StoreError>;

    /// Logical bytes stored (sealed payloads + TRS) — identical across
    /// layouts, used by the byte-budget experiments.
    fn stored_bytes(&self) -> usize;

    /// Total ciphertext bytes across the elements.
    fn ciphertext_bytes(&self) -> usize;

    /// Estimated bytes of memory the representation actually occupies
    /// (structs, heap buffers, metadata) — what the compression experiments
    /// compare across engines.
    fn resident_bytes(&self) -> usize;

    /// Checks the descending-TRS invariant.
    fn ordering_ok(&self) -> bool;
}

/// Open cursors a session table holds before the oldest is evicted
/// (abandoned sessions must not grow the table without bound).  Applied per
/// shard by the sharded store and to the whole table by the oracle.
pub(crate) const MAX_CURSORS_PER_TABLE: usize = 1024;

/// Idle sessions older than this many logical clock ticks (one tick per
/// request the table serves) are expired the next time the session table is
/// written.  Large enough that any live client walking a list keeps its
/// session; small enough that a table of abandoned sessions drains under
/// ongoing traffic instead of waiting for capacity pressure.
pub const SESSION_TTL_TICKS: u64 = 1 << 14;

/// One cursor session: the local slot of its list, its owner's tag and the
/// physical position of the next element to scan.  The position is atomic
/// so a follow-up can advance it under a shared read lock; inserts shift it
/// under the exclusive lock.
#[derive(Debug)]
struct Cursor {
    slot: usize,
    owner: u64,
    position: AtomicUsize,
    /// Logical clock value of the session's last use (for TTL expiry).
    last_used: AtomicU64,
}

/// The storage state owned by one lock domain — a shard of the sharded
/// store, or the whole oracle: the ordered lists, their insert
/// generations, and the cursor sessions bound to them.  Keeping cursors in
/// the same lock domain as their lists means the position shifts an insert
/// must apply happen under the same exclusive lock as the insert.
#[derive(Debug)]
pub(crate) struct ListTable<L> {
    lists: Vec<L>,
    generations: Vec<u64>,
    cursors: std::collections::HashMap<u64, Cursor>,
    /// Logical clock: ticks once per request served by this table.
    clock: AtomicU64,
    /// Clock value of the last TTL sweep.  Read paths use it to decide when
    /// a sweep is due, so a read-heavy workload still reclaims idle
    /// sessions (writes always sweep).
    last_sweep: AtomicU64,
    opened: u64,
    capacity_evictions: u64,
    ttl_evictions: u64,
}

impl<L> Default for ListTable<L> {
    fn default() -> Self {
        ListTable {
            lists: Vec::new(),
            generations: Vec::new(),
            cursors: std::collections::HashMap::new(),
            clock: AtomicU64::new(0),
            last_sweep: AtomicU64::new(0),
            opened: 0,
            capacity_evictions: 0,
            ttl_evictions: 0,
        }
    }
}

impl<L: OrderedList> ListTable<L> {
    /// Appends one list (used while partitioning an index into tables).
    pub fn push_list(&mut self, list: L) {
        self.lists.push(list);
        self.generations.push(0);
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The list stored at a local slot.
    pub fn list(&self, slot: usize) -> &L {
        &self.lists[slot]
    }

    /// All lists of the table (tiering/compaction maintenance passes).
    pub fn lists(&self) -> &[L] {
        &self.lists
    }

    /// Mutable access to all lists of the table (tiering/compaction
    /// maintenance passes run under the owning shard's write lock).
    pub fn lists_mut(&mut self) -> &mut [L] {
        &mut self.lists
    }

    /// Total elements across the table's lists.
    pub fn num_elements(&self) -> usize {
        self.lists.iter().map(L::len).sum()
    }

    /// Logical stored bytes across the table's lists.
    pub fn stored_bytes(&self) -> usize {
        self.lists.iter().map(L::stored_bytes).sum()
    }

    /// Ciphertext bytes across the table's lists.
    pub fn ciphertext_bytes(&self) -> usize {
        self.lists.iter().map(L::ciphertext_bytes).sum()
    }

    /// Estimated resident bytes of the physical representation.
    pub fn resident_bytes(&self) -> usize {
        self.lists.iter().map(L::resident_bytes).sum()
    }

    /// Number of elements of a slot visible under `accessible`.
    pub fn visible_total(&self, slot: usize, accessible: Option<&[GroupId]>) -> usize {
        self.lists[slot].visible_total(&GroupFilter::normalise(accessible))
    }

    /// Session-table pressure counters.
    pub fn session_stats(&self) -> SessionStats {
        SessionStats {
            open: self.cursors.len(),
            opened_total: self.opened,
            capacity_evictions: self.capacity_evictions,
            ttl_evictions: self.ttl_evictions,
            clock: self.clock.load(Ordering::Relaxed),
        }
    }

    /// Serves one ranged fetch against a slot.
    pub fn fetch(
        &self,
        slot: usize,
        offset: usize,
        count: usize,
        filter: &GroupFilter<'_>,
    ) -> Result<RangedBatch, StoreError> {
        self.tick();
        let list = &self.lists[slot];
        let visible_total = list.visible_total(filter);
        let (elements, next_physical) = list.scan(0, offset, count, filter)?;
        Ok(RangedBatch {
            elements,
            exhausted: next_physical >= list.len(),
            next_physical,
            visible_total,
            generation: self.generations[slot],
        })
    }

    /// Whether a TTL sweep is due: at most one sweep per
    /// [`SESSION_TTL_TICKS`] window, and only while sessions exist.  Cursor
    /// advances check this under the shared lock and upgrade to
    /// [`ListTable::sweep_expired`] when true, so a read-only workload with
    /// stable cursors still drains idle sessions.
    pub fn ttl_sweep_due(&self) -> bool {
        !self.cursors.is_empty()
            && self
                .clock
                .load(Ordering::Relaxed)
                .saturating_sub(self.last_sweep.load(Ordering::Relaxed))
                >= SESSION_TTL_TICKS
    }

    /// Expires every session idle for more than [`SESSION_TTL_TICKS`] ticks.
    pub fn sweep_expired(&mut self) {
        let now = self.clock.load(Ordering::Relaxed);
        let before = self.cursors.len();
        self.cursors.retain(|_, c| {
            now.saturating_sub(c.last_used.load(Ordering::Relaxed)) <= SESSION_TTL_TICKS
        });
        self.ttl_evictions += (before - self.cursors.len()) as u64;
        self.last_sweep.store(now, Ordering::Relaxed);
    }

    /// Opens a cursor session with the caller-allocated id `raw`, continuing
    /// after `batch`.  If inserts moved the list since the batch was served
    /// (generation mismatch), the session resumes just past the
    /// `delivered`-th visible element of the current list (the list length
    /// when it holds fewer), found by the same scan a fetch runs.
    /// Before inserting, idle sessions past [`SESSION_TTL_TICKS`] are
    /// expired, then capacity pressure evicts the oldest session.
    pub fn open_cursor(
        &mut self,
        raw: u64,
        slot: usize,
        owner: u64,
        batch: &RangedBatch,
        delivered: usize,
        accessible: Option<&[GroupId]>,
    ) -> Result<(), StoreError> {
        let now = self.tick();
        self.sweep_expired();
        if self.cursors.len() >= MAX_CURSORS_PER_TABLE {
            // Evict the oldest (smallest-id) abandoned session.
            if let Some(&oldest) = self.cursors.keys().min() {
                self.cursors.remove(&oldest);
                self.capacity_evictions += 1;
            }
        }
        let list = &self.lists[slot];
        let position = if batch.generation == self.generations[slot] {
            batch.next_physical.min(list.len())
        } else if delivered == 0 {
            0
        } else {
            let filter = GroupFilter::normalise(accessible);
            list.scan(0, delivered - 1, 1, &filter)?.1
        };
        self.opened += 1;
        self.cursors.insert(
            raw,
            Cursor {
                slot,
                owner,
                position: AtomicUsize::new(position),
                last_used: AtomicU64::new(now),
            },
        );
        Ok(())
    }

    /// Resumes a cursor: scans from its stored physical position and
    /// advances it past the scanned range.  A compare-exchange loop makes a
    /// concurrent fetch of the same cursor (a retried follow-up) re-scan
    /// from the freshly observed position instead of rewinding or
    /// duplicating elements.
    pub fn cursor_fetch(
        &self,
        raw: u64,
        owner: u64,
        count: usize,
        filter: &GroupFilter<'_>,
    ) -> Result<RangedBatch, StoreError> {
        let now = self.tick();
        let cursor = self
            .cursors
            .get(&raw)
            .filter(|c| c.owner == owner)
            .ok_or(StoreError::UnknownCursor(raw))?;
        cursor.last_used.store(now, Ordering::Relaxed);
        let list = &self.lists[cursor.slot];
        let generation = self.generations[cursor.slot];
        let visible_total = list.visible_total(filter);
        let mut start = cursor.position.load(Ordering::Acquire);
        loop {
            let (elements, next_physical) = list.scan(start, 0, count, filter)?;
            match cursor.position.compare_exchange(
                start,
                next_physical,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(RangedBatch {
                        elements,
                        exhausted: next_physical >= list.len(),
                        next_physical,
                        visible_total,
                        generation,
                    })
                }
                Err(current) => start = current,
            }
        }
    }

    /// Closes a session if `owner` matches its tag (idempotent; a foreign
    /// tag is a no-op).
    pub fn close_cursor(&mut self, raw: u64, owner: u64) {
        if self.cursors.get(&raw).is_some_and(|c| c.owner == owner) {
            self.cursors.remove(&raw);
        }
    }

    /// Inserts an element at its TRS position, bumps the list generation and
    /// shifts cursors that already scanned past the insertion point so they
    /// neither repeat the shifted element nor skip one.  A cursor exactly at
    /// the insertion point stays: the new element is its next in TRS order.
    pub fn insert(&mut self, slot: usize, element: OrderedElement) -> Result<usize, StoreError> {
        let pos = self.lists[slot].insert(element)?;
        self.generations[slot] += 1;
        for cursor in self.cursors.values() {
            if cursor.slot == slot && cursor.position.load(Ordering::Relaxed) > pos {
                cursor.position.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(pos)
    }

    /// Descending-TRS invariant over every list of the table.
    pub fn ordering_ok(&self) -> bool {
        self.lists.iter().all(|l| l.ordering_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::VecList;
    use zerber_base::EncryptedElement;

    /// The unrestricted group filter.
    const ALL: GroupFilter<'static> = GroupFilter(None);

    fn element(trs: f64, group: u32) -> OrderedElement {
        OrderedElement {
            trs,
            group: GroupId(group),
            sealed: EncryptedElement {
                group: GroupId(group),
                ciphertext: vec![0u8; 4],
            },
        }
    }

    fn list() -> Vec<OrderedElement> {
        vec![
            element(0.9, 0),
            element(0.8, 1),
            element(0.7, 0),
            element(0.6, 1),
            element(0.5, 0),
        ]
    }

    fn table() -> ListTable<VecList> {
        let mut table = ListTable::default();
        table.push_list(VecList::from_elements(list()));
        table
    }

    #[test]
    fn scan_skips_visible_elements_only() {
        let l = VecList::from_elements(list());
        let only_g0 = [GroupId(0)];
        let only_g0 = GroupFilter::normalise(Some(&only_g0));
        let (elements, next) = l.scan(0, 1, 1, &only_g0).unwrap();
        // Skips the first group-0 element (0.9), returns the second (0.7).
        assert_eq!(elements.len(), 1);
        assert!((elements[0].trs - 0.7).abs() < 1e-12);
        assert_eq!(next, 3);
    }

    #[test]
    fn scan_from_start_resumes_mid_list() {
        let l = VecList::from_elements(list());
        let all = GroupFilter::normalise(None);
        let (elements, next) = l.scan(2, 0, 2, &all).unwrap();
        assert_eq!(elements.len(), 2);
        assert!((elements[0].trs - 0.7).abs() < 1e-12);
        assert_eq!(next, 4);
        // Past the end: empty batch, next clamps to the list length.
        let (rest, end) = l.scan(next, 0, 10, &all).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(end, l.len());
    }

    #[test]
    fn arena_layout_round_trips_and_splices_inserts() {
        let mut l = VecList::from_elements(list());
        assert_eq!(l.snapshot().unwrap(), list());
        assert_eq!(l.ciphertext_bytes(), 5 * 4);
        // An interior insert splices its ciphertext into the arena and
        // shifts the spans of everything after it.
        let e = element(0.65, 1);
        assert_eq!(l.insert(e.clone()).unwrap(), 3);
        let mut expected = list();
        expected.insert(3, e);
        assert_eq!(l.snapshot().unwrap(), expected);
        assert!(l.ordering_ok());
        assert_eq!(l.ciphertext_bytes(), 6 * 4);
        // Resident accounting covers exactly the meta vec and the arena.
        assert!(l.resident_bytes() >= std::mem::size_of::<VecList>() + 6 * 4);
    }

    #[test]
    fn batch_reports_visibility_and_exhaustion() {
        let table = table();
        let only_g1 = [GroupId(1)];
        let batch = table
            .fetch(0, 0, 10, &GroupFilter::normalise(Some(&only_g1)))
            .unwrap();
        assert_eq!(batch.visible_total, 2);
        assert_eq!(batch.elements.len(), 2);
        assert!(batch.exhausted);
        assert_eq!(batch.generation, 0);
        let partial = table.fetch(0, 0, 2, &ALL).unwrap();
        assert!(!partial.exhausted);
        assert_eq!(partial.next_physical, 2);
    }

    #[test]
    fn stale_batches_rederive_the_cursor_position() {
        // A table with one list; serve a batch, then let an insert land
        // before the cursor is opened — the TOCTOU the generation guards.
        let mut table = table();
        let batch = table.fetch(0, 0, 2, &ALL).unwrap();
        assert_eq!(batch.generation, 0);
        // Insert at the head (TRS 1.0): every physical index shifts by one.
        assert_eq!(table.insert(0, element(1.0, 0)).unwrap(), 0);
        // Opening from the stale batch re-derives offset semantics: with 2
        // elements delivered the session resumes after the first 2 visible
        // elements of the *current* list ([1.0, 0.9, 0.8, ...] -> index 2).
        table.open_cursor(42, 0, 9, &batch, 2, None).unwrap();
        let resumed = table.cursor_fetch(42, 9, 1, &ALL).unwrap();
        assert!((resumed.elements[0].trs - 0.8).abs() < 1e-12);
        // A fresh batch (matching generation) is trusted as-is: it delivered
        // [1.0, 0.9] and resumes exactly at 0.8.
        let fresh = table.fetch(0, 0, 2, &ALL).unwrap();
        assert_eq!(fresh.generation, 1);
        table.open_cursor(43, 0, 9, &fresh, 2, None).unwrap();
        let resumed = table.cursor_fetch(43, 9, 1, &ALL).unwrap();
        assert!((resumed.elements[0].trs - 0.8).abs() < 1e-12);
        assert_eq!(table.session_stats().open, 2);
        // A foreign owner tag cannot close the session; the real one can.
        table.close_cursor(42, 1234);
        assert_eq!(table.session_stats().open, 2);
        table.close_cursor(42, 9);
        table.close_cursor(43, 9);
        assert_eq!(table.session_stats().open, 0);
    }

    #[test]
    fn stale_opens_resume_past_the_delivered_visible_elements() {
        // Serve a group-0 batch, then insert a group-1 element at the head
        // (TRS 1.0) so every open from the batch is stale.  The list is now
        // [1.0/g1, 0.9/g0, 0.8/g1, 0.7/g0, 0.6/g1, 0.5/g0].
        let mut table = table();
        let only_g0 = [GroupId(0)];
        let g0 = GroupFilter::normalise(Some(&only_g0));
        let batch = table.fetch(0, 0, 1, &g0).unwrap();
        table.insert(0, element(1.0, 1)).unwrap();
        // A session that received `delivered` group-0 elements resumes just
        // past the `delivered`-th of them: the next follow-up yields the
        // group-0 elements after it, or nothing once they ran out.
        let g0_trs = [0.9, 0.7, 0.5];
        for delivered in 0..=4 {
            let raw = 100 + delivered as u64;
            table
                .open_cursor(raw, 0, 9, &batch, delivered, Some(&only_g0))
                .unwrap();
            let rest = table.cursor_fetch(raw, 9, 10, &g0).unwrap();
            let trs: Vec<f64> = rest.elements.iter().map(|e| e.trs).collect();
            assert_eq!(trs, g0_trs[delivered.min(3)..], "delivered {delivered}");
            assert!(rest.exhausted);
            assert_eq!(rest.visible_total, 3);
        }
    }

    #[test]
    fn group_filters_normalise_and_count_by_one_merge_pass() {
        let g = |ids: &[u32]| ids.iter().map(|&i| GroupId(i)).collect::<Vec<_>>();
        // Already ascending: borrowed as is.  Anything else: a sorted,
        // deduplicated copy.
        let ascending = g(&[1, 4, 9]);
        let filter = GroupFilter::normalise(Some(&ascending));
        assert!(matches!(filter.0, Some(Cow::Borrowed(_))));
        let messy = g(&[9, 1, u32::MAX, 4, 9, 1]);
        let filter = GroupFilter::normalise(Some(&messy));
        assert_eq!(filter.groups(), Some(&g(&[1, 4, 9, u32::MAX])[..]));
        assert!(filter.admits(GroupId(4)) && filter.admits(GroupId(u32::MAX)));
        assert!(!filter.admits(GroupId(0)) && !filter.admits(GroupId(5)));
        // Counts ascending by group; the filter's groups interleave with
        // them, start below them and end above them.
        let counts = [
            (GroupId(0), 5),
            (GroupId(4), 7),
            (GroupId(8), 11),
            (GroupId(9), 13),
        ];
        assert_eq!(filter.visible_in(36, &counts), 7 + 13);
        assert_eq!(filter.visible_in(0, &[]), 0);
        let none = GroupFilter::normalise(Some(&[]));
        assert_eq!(none.visible_in(36, &counts), 0);
        assert!(!none.admits(GroupId(0)));
        let all = GroupFilter::normalise(None);
        assert_eq!(all.visible_in(36, &counts), 36);
        assert!(all.admits(GroupId(123)));
    }

    #[test]
    fn insertion_point_is_stable_for_ties() {
        // Equal TRS inserts before the existing element.
        for (trs, want) in [(0.7, 2), (0.95, 0), (0.1, 5)] {
            let mut l = VecList::from_elements(list());
            assert_eq!(l.insert(element(trs, 0)).unwrap(), want, "trs {trs}");
        }
    }

    #[test]
    fn cursor_follow_ups_count_what_their_filter_sees_now() {
        let mut table = table();
        let only_g0 = [GroupId(0)];
        let batch = table
            .fetch(0, 0, 1, &GroupFilter::normalise(Some(&only_g0)))
            .unwrap();
        assert_eq!(batch.visible_total, 3);
        table
            .open_cursor(7, 0, 1, &batch, 1, Some(&only_g0))
            .unwrap();
        for _ in 0..3 {
            let b = table
                .cursor_fetch(7, 1, 1, &GroupFilter::normalise(Some(&only_g0)))
                .unwrap();
            assert_eq!(b.visible_total, 3);
        }
        // Inserts mid-session are counted: a new group-0 element raises the
        // count, a group-1 one does not.
        table.insert(0, element(0.95, 0)).unwrap();
        table.insert(0, element(0.94, 1)).unwrap();
        let b = table
            .cursor_fetch(7, 1, 1, &GroupFilter::normalise(Some(&only_g0)))
            .unwrap();
        assert_eq!(b.visible_total, 4);
        // The same groups named twice are the same filter.
        let g0_again = [GroupId(0), GroupId(0)];
        let b = table
            .cursor_fetch(7, 1, 1, &GroupFilter::normalise(Some(&g0_again)))
            .unwrap();
        assert_eq!(b.visible_total, 4);
        assert_eq!(table.visible_total(0, Some(&only_g0)), 4);
        // Another filter gets its own count.
        let only_g1 = [GroupId(1)];
        let b = table
            .cursor_fetch(7, 1, 1, &GroupFilter::normalise(Some(&only_g1)))
            .unwrap();
        assert_eq!(b.visible_total, 3);
    }

    #[test]
    fn idle_sessions_expire_after_the_ttl() {
        let mut table = table();
        let batch = table.fetch(0, 0, 1, &ALL).unwrap();
        table.open_cursor(11, 0, 1, &batch, 1, None).unwrap();
        // Tick the logical clock past the TTL with plain requests.
        for _ in 0..=SESSION_TTL_TICKS {
            table.fetch(0, 0, 1, &ALL).unwrap();
        }
        // A session used recently survives the sweep; the idle one expires
        // when the table is next written.
        table.open_cursor(12, 0, 1, &batch, 1, None).unwrap();
        assert_eq!(table.session_stats().open, 1);
        assert!(matches!(
            table.cursor_fetch(11, 1, 1, &ALL),
            Err(StoreError::UnknownCursor(11))
        ));
        assert!(table.cursor_fetch(12, 1, 1, &ALL).is_ok());
        let stats = table.session_stats();
        assert_eq!(stats.ttl_evictions, 1);
        assert_eq!(stats.opened_total, 2);
        assert_eq!(stats.open, 1);
        assert_eq!(stats.capacity_evictions, 0);
        assert!(stats.clock > SESSION_TTL_TICKS);
    }

    #[test]
    fn a_full_table_evicts_its_oldest_session() {
        let mut table = table();
        let batch = table.fetch(0, 0, 1, &ALL).unwrap();
        let newest = MAX_CURSORS_PER_TABLE as u64 + 1;
        for id in 1..=newest {
            table.open_cursor(id, 0, 1, &batch, 1, None).unwrap();
        }
        let stats = table.session_stats();
        assert_eq!(stats.open, MAX_CURSORS_PER_TABLE);
        assert_eq!(stats.opened_total, newest);
        assert_eq!(stats.capacity_evictions, 1);
        assert_eq!(stats.ttl_evictions, 0);
        // The smallest id went; the newest resumes where its batch stopped.
        assert!(matches!(
            table.cursor_fetch(1, 1, 1, &ALL),
            Err(StoreError::UnknownCursor(1))
        ));
        assert!(table.cursor_fetch(2, 1, 1, &ALL).is_ok());
        let resumed = table.cursor_fetch(newest, 1, 1, &ALL).unwrap();
        assert_eq!(
            resumed.elements,
            table.fetch(0, 1, 1, &ALL).unwrap().elements
        );
    }

    #[test]
    fn session_stats_aggregate_across_tables() {
        let a = SessionStats {
            open: 1,
            opened_total: 4,
            capacity_evictions: 2,
            ttl_evictions: 1,
            clock: 10,
        };
        let b = SessionStats {
            open: 2,
            opened_total: 3,
            capacity_evictions: 0,
            ttl_evictions: 2,
            clock: 5,
        };
        let total = SessionStats::aggregate([a, b]);
        assert_eq!(total.open, 3);
        assert_eq!(total.opened_total, 7);
        assert_eq!(total.capacity_evictions, 2);
        assert_eq!(total.ttl_evictions, 3);
        assert_eq!(total.clock, 15);
    }

    #[test]
    fn cursor_id_sentinel() {
        assert!(!CursorId::NONE.is_some());
        assert!(CursorId(3).is_some());
    }
}
