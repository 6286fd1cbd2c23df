//! The segment stack and its pager: each merged list is a stack of sealed
//! segments plus a small mutable tail; where the sealed bytes live is the
//! store's lifecycle.
//!
//! [`SpillList`] is the one physical list representation that serves: the
//! logical sequence is `slots[0] ++ slots[1] ++ ... ++ tail`, descending in
//! TRS.  Position-preserving inserts land in the uncompressed tail when
//! their TRS sorts below every sealed element; interior inserts rebuild the
//! one segment they hit (bounded by [`SegmentConfig::max_segment_elems`]).
//! When the tail outgrows [`SegmentConfig::tail_threshold`] it is sealed
//! into a new slot and an insert-amortized compaction merges adjacent
//! resident segments (pure block concatenation — no re-encode) to keep the
//! stack shallow.  Every slot keeps a tiny summary (element count, TRS
//! bounds, byte totals — and, while it is cold, per-group visible counts)
//! and the list keeps running per-group totals bumped by each successful
//! insert, so `visible_total` is one merge pass of the caller's
//! [`GroupFilter`] and deep-offset skip-scans pass over cold slots without
//! faulting them.
//!
//! On the **resident** lifecycle ([`SpillStore::resident`]) that is all
//! there is: the list has no pager, every slot is resident, nothing is
//! budgeted, stamped or written.
//!
//! The paper's untrusted server must hold merged, sealed posting lists for
//! millions of users — a footprint that does not fit in RAM.  Like the
//! ontological-database systems that answer from a small hot working set
//! while the bulk of the extensional data lives on secondary storage, the
//! paging lifecycles give each shard a [`Pager`]: **cold sealed segments**
//! are serialized through the validated segment wire format
//! ([`Segment::to_bytes`]) into a per-shard page file and dropped from
//! memory, leaving only their summary behind.
//!
//! Reads that do need a cold segment pull the page back through the fully
//! validating [`Segment::from_bytes`] — a torn, truncated or bit-flipped
//! page surfaces as [`StoreError`] for that one request, never a panic and
//! never a wrong answer — and park it in a per-shard LRU **page cache**
//! ([`SpillConfig::page_cache_pages`]).  [`SpillConfig::resident_budget_bytes`]
//! bounds the sealed bytes each shard keeps resident: segments charge the
//! budget greedily in build order (within a list, hot end first) and spill
//! once it is exhausted.
//!
//! Two maintenance passes make the tiering **self-managing**:
//!
//! - **Access-driven retier** ([`SpillConfig::retier_interval`]): every
//!   sealed slot carries an access-clock stamp, touched whenever a scan or
//!   fault actually reads its segment.  Every `retier_interval` serving
//!   operations on a shard, a pass re-grants the shard's resident budget to
//!   the hottest slots — a segment that cooled demotes to disk, a cold list
//!   that started seeing traffic promotes its touched slots, and the
//!   seal-time placement is only the starting point, not a life sentence.
//!   A never-touched slot is never promoted.
//! - **Page-file compaction** ([`SpillConfig::compact_dead_percent`] /
//!   [`SpillConfig::compact_min_dead_bytes`]): the page files are
//!   append-only, so a rebuild of a spilled segment (interior insert) or a
//!   merge of paged resident neighbours strands the superseded page as
//!   dead bytes.  Once dead bytes clear both thresholds, the live pages are
//!   copied into a fresh `.pages.compact` file and re-validated **off the
//!   shard lock**; only the final swap (straggler copy, rename to the next
//!   generation, slot/cache remap) runs under the shard write lock.  A
//!   failed or torn rewrite is discarded and the old file keeps serving.
//!
//! Every paging store names its page files by generation
//! (`shard-NNN.g<generation>.pages`), keeps a slot's page when the slot is
//! promoted (it still matches the segment byte for byte, so a later
//! demotion writes nothing), and commits a compaction by renaming the
//! rewrite to the next generation, unlinking the old one only past the
//! swap's commit point.  One fact tells the two paging lifecycles apart —
//! whether the store has durable state ([`SpillStore::is_durable`]):
//!
//! - **Spill** ([`SpillStore::with_configs`]): no durable state.  The page
//!   files are cache state, deleted on drop; the compaction's commit point
//!   is the rename.
//! - **Durable** ([`SpillStore::create_durable`] / [`SpillStore::open`]):
//!   the root directory is persistent state.  Page files are immutable
//!   checkpoint pages referenced by an atomically-committed, checksummed
//!   per-shard **manifest**; tail inserts append to a CRC-framed per-shard
//!   **write-ahead log** ([`crate::durable`]); a compaction's rewrite is
//!   fsynced and commits with the manifest that references it; and
//!   [`SpillStore::open`] recovers by replaying manifest pages through the
//!   fully validating [`Segment::from_bytes`] and the WAL tail through the
//!   ordinary insert path, truncating a torn or corrupt log at the last
//!   valid record.  A recovered store is only accepted after
//!   `budget_accounting_is_exact` and a full ordering/visibility audit
//!   pass.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use zerber_corpus::{GroupId, TermId};
use zerber_index::compress::from_sortable_bits;
use zerber_r::{OrderedElement, OrderedIndex};

use crate::convert::{u64_of, usize_of};
use crate::durable::{
    crc32, decode_manifest, decode_store_meta, encode_manifest, encode_store_meta,
    encode_wal_frame, io_err, scan_wal, DurableConfig, FileIo, Manifest, ManifestList, PageIo,
    RealIo, StoreMeta, SyncPolicy,
};
use crate::error::StoreError;
use crate::lockrank;
use crate::segment::{
    add_count, encode_chunk_split, encode_rebuilt, encode_segments, Segment, SegmentConfig,
};
use crate::sharded::{SpillStore, MAX_SHARDS};
use crate::store::{GroupFilter, ListStore, ListTable, OrderedList, StoreMetrics};

/// Tuning knobs of the paging lifecycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillConfig {
    /// Sealed-segment bytes each shard may keep resident; segments beyond
    /// the budget are written to the shard's page file and dropped from
    /// memory.  `0` spills every sealed segment (the tails and summaries
    /// always stay resident).
    pub resident_budget_bytes: usize,
    /// Pages the per-shard LRU page cache retains after a fault.  `0`
    /// disables caching: every cold read goes to disk.
    pub page_cache_pages: usize,
    /// Dead-byte share of a shard's page file (percent) above which the
    /// file is compacted: live pages are rewritten into a fresh file and
    /// swapped in.  `100` (with a large floor) effectively disables
    /// compaction.
    pub compact_dead_percent: u8,
    /// Absolute dead-byte floor below which compaction never triggers, so
    /// tiny files are not rewritten over a few stranded bytes.
    pub compact_min_dead_bytes: usize,
    /// Serving operations per shard between access-driven retier passes
    /// (promotion/demotion of sealed slots by access recency).  `0`
    /// disables retiering: residency stays as placed at seal time.
    pub retier_interval: u64,
    /// Access-clock distance after which a slot's heat is considered
    /// decayed: a slot last read more than this many ticks ago counts as
    /// cold in the retier pass — it no longer outranks never-read slots and
    /// its residency is up for grabs by currently-hot ones.  Closes the
    /// "access clock is a high-water mark" gap: a burst a million ops ago
    /// eventually cools.  `0` disables decay (heat never expires).
    pub heat_decay_window: u64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            resident_budget_bytes: 8 << 20,
            page_cache_pages: 64,
            compact_dead_percent: 40,
            compact_min_dead_bytes: 64 << 10,
            retier_interval: 1024,
            heat_decay_window: 1 << 20,
        }
    }
}

impl SpillConfig {
    /// Disables both maintenance passes (compaction and retiering): the
    /// engine behaves like the static seal-time placement — the baseline
    /// the tiering benchmarks compare against.
    pub fn without_tiering(self) -> Self {
        SpillConfig {
            compact_dead_percent: 100,
            compact_min_dead_bytes: usize::MAX,
            retier_interval: 0,
            ..self
        }
    }
}

/// Location of one spilled page inside its shard's page file, plus the
/// CRC32 of its encoded bytes.  Every read path re-checks the CRC before
/// decoding: segment structure validation alone cannot notice a flipped
/// ciphertext byte, the checksum can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PageId {
    offset: u64,
    len: u32,
    crc: u32,
}

impl PageId {
    /// The one way page bytes leave a file: `read_at` fills the buffer from
    /// this page's offset and the bytes are returned only once they match
    /// the CRC recorded at write time.  Callers pass the read as a closure
    /// so each decides how long its file lock is held — the checksum runs
    /// after the closure returns.
    fn read_verified(
        self,
        read_at: impl FnOnce(u64, &mut [u8]) -> std::io::Result<()>,
    ) -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0u8; usize_of(self.len)];
        read_at(self.offset, &mut buf).map_err(io_err)?;
        if crc32(&buf) != self.crc {
            return Err(StoreError::CorruptSegment(format!(
                "page at offset {} ({} bytes) fails its checksum",
                self.offset, self.len
            )));
        }
        Ok(buf)
    }
}

/// The directory of a spill store, removed (best effort, and only once
/// empty) when the last pager drops.  Durable roots have none: they are
/// persistent state, and stray-scratch cleanup happens on
/// [`SpillStore::open`] instead.
#[derive(Debug)]
struct SpillRoot {
    dir: PathBuf,
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir(&self.dir);
    }
}

#[derive(Debug)]
struct PageFile {
    file: Box<dyn FileIo>,
    append: u64,
}

#[derive(Debug)]
struct CacheSlot {
    segment: Arc<Segment>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct PageCache {
    entries: HashMap<u64, CacheSlot>,
    clock: u64,
    bytes: usize,
}

/// One shard's spill state: the append-only page file, the LRU page cache
/// and the residency-budget accounting, shared by every list of the shard.
#[derive(Debug)]
pub(crate) struct Pager {
    io: Mutex<PageFile>,
    cache: Mutex<PageCache>,
    cache_capacity: usize,
    resident_budget: usize,
    resident_charge: AtomicUsize,
    spilled: AtomicUsize,
    faults: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    /// Physical length of the page file — mirrors `io.append` so stats and
    /// the compaction trigger never take the file lock.
    file_len: AtomicU64,
    compactions: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
    /// Logical access clock, ticked on every sealed-slot read; slot
    /// summaries stamp it so the retier pass can rank slots by recency.
    access_clock: AtomicU64,
    /// Serving operations since the last retier pass of this shard.
    ops_since_retier: AtomicU64,
    /// Single-flight guard: at most one compaction per shard at a time.
    compacting: AtomicBool,
    compact_dead_percent: u8,
    compact_min_dead_bytes: usize,
    retier_interval: u64,
    heat_decay_window: u64,
    /// Generation of the page file serving now
    /// (`shard-NNN.g<generation>.pages`); a compaction moves to the next.
    generation: AtomicU64,
    dir: PathBuf,
    shard: usize,
    backend: Arc<dyn PageIo>,
    /// The spill root, whose page files are cache state; `None` on a
    /// durable store, whose page files are checkpoint state.
    root: Option<Arc<SpillRoot>>,
}

impl Drop for Pager {
    fn drop(&mut self) {
        // Spill page files are cache state: leave nothing behind (an
        // aborted compaction's file is removed by its `Rewrite`, and the
        // previous generation goes too in case a compaction's unlink of it
        // failed).  Durable page files are referenced by the shard manifest
        // — never removed on drop; a stray compaction file from an unclean
        // shutdown is cleaned up by the next `open`.
        if self.root.is_some() {
            let generation = self.generation.load(Ordering::Relaxed);
            let _ = fs::remove_file(self.path_for(generation));
            if let Some(previous) = generation.checked_sub(1) {
                let _ = fs::remove_file(self.path_for(previous));
            }
        }
    }
}

impl Pager {
    fn create(
        backend: Arc<dyn PageIo>,
        dir: &Path,
        shard: usize,
        config: &SpillConfig,
        root: Option<Arc<SpillRoot>>,
        generation: u64,
        append: u64,
    ) -> Result<Arc<Pager>, StoreError> {
        let path = dir.join(format!("shard-{shard:03}.g{generation}.pages"));
        let fresh = append == 0;
        let mut file = backend.open(&path, fresh).map_err(io_err)?;
        if !fresh {
            // Recovery adopts exactly the manifest-referenced prefix; any
            // bytes past it (a torn page write mid-crash) are garbage and
            // are trimmed away.  A file *shorter* than the manifest extent
            // is zero-extended here and then rejected by the per-page
            // validation — either way, never served.
            file.set_len(append).map_err(io_err)?;
        }
        let pager = Pager {
            io: Mutex::new(PageFile { file, append }),
            cache: Mutex::new(PageCache::default()),
            cache_capacity: config.page_cache_pages,
            resident_budget: config.resident_budget_bytes,
            resident_charge: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
            faults: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            file_len: AtomicU64::new(append),
            compactions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            access_clock: AtomicU64::new(0),
            ops_since_retier: AtomicU64::new(0),
            compacting: AtomicBool::new(false),
            compact_dead_percent: config.compact_dead_percent,
            compact_min_dead_bytes: config.compact_min_dead_bytes,
            retier_interval: config.retier_interval,
            heat_decay_window: config.heat_decay_window,
            generation: AtomicU64::new(generation),
            dir: dir.to_path_buf(),
            shard,
            backend,
            root,
        };
        Ok(Arc::new(pager))
    }

    /// Page-file path of `generation`.
    fn path_for(&self, generation: u64) -> PathBuf {
        self.dir
            .join(format!("shard-{:03}.g{generation}.pages", self.shard))
    }

    /// Path of the page file currently serving.
    fn current_path(&self) -> PathBuf {
        self.path_for(self.generation.load(Ordering::Relaxed))
    }

    /// Fsyncs the page file (checkpoints call this before committing a
    /// manifest that references its pages).
    fn sync_file(&self) -> Result<(), StoreError> {
        self.io.lock().file.sync().map_err(io_err)
    }

    /// Charges `bytes` against the shard's resident budget; `false` (and no
    /// charge) if the budget cannot cover them.
    fn try_charge(&self, bytes: usize) -> bool {
        let mut current = self.resident_charge.load(Ordering::Relaxed);
        loop {
            if current.saturating_add(bytes) > self.resident_budget {
                return false;
            }
            match self.resident_charge.compare_exchange(
                current,
                current + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    /// Charges unconditionally (compaction's keep-resident fallback).
    fn force_charge(&self, bytes: usize) {
        self.resident_charge.fetch_add(bytes, Ordering::Relaxed);
    }

    fn uncharge(&self, bytes: usize) {
        self.resident_charge.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Serializes a segment into the page file, returning its page id.
    fn write_page(&self, segment: &Segment) -> Result<PageId, StoreError> {
        let bytes = segment.to_bytes();
        let len = u32::try_from(bytes.len()).map_err(|_| StoreError::SegmentOverflow)?;
        let crc = crc32(&bytes);
        let offset = {
            let mut io = self.io.lock();
            let offset = io.append;
            io.file.write_at(offset, &bytes).map_err(io_err)?;
            io.append += u64::from(len);
            self.file_len.store(io.append, Ordering::Relaxed);
            offset
        };
        self.spilled.fetch_add(bytes.len(), Ordering::Relaxed);
        Ok(PageId { offset, len, crc })
    }

    /// Adopts an existing page (recovery): counts its bytes as live without
    /// writing anything.
    fn note_live_page(&self, len: u32) {
        self.spilled.fetch_add(usize_of(len), Ordering::Relaxed);
    }

    /// Drops a page from the live-byte accounting and the cache (the bytes
    /// in the file become garbage until background compaction).
    fn release_page(&self, page: PageId) {
        self.spilled
            .fetch_sub(usize_of(page.len), Ordering::Relaxed);
        let mut cache = self.cache.lock();
        if let Some(slot) = cache.entries.remove(&page.offset) {
            cache.bytes -= slot.bytes;
        }
    }

    /// Reads one page back, through the cache: a hit bumps recency, a miss
    /// reads the file and re-validates the bytes with `Segment::from_bytes`
    /// (counted as a page fault), inserting the decoded segment and
    /// LRU-evicting past `cache_capacity`.  Concurrent misses on one page
    /// single-flight: the file lock is held across read, decode and cache
    /// insertion, and latecomers re-probe the cache under it instead of
    /// reading the page a second time.  The lock is per shard, so this
    /// also serializes cold misses on *different* pages of one shard — a
    /// deliberate simplicity/accuracy tradeoff (faults are designed to be
    /// rare once the cache holds the hot set); a per-page in-flight map
    /// would restore miss parallelism if profiles ever show contention.
    fn fetch(&self, page: PageId) -> Result<Arc<Segment>, StoreError> {
        {
            let mut cache = self.cache.lock();
            cache.clock += 1;
            let now = cache.clock;
            if let Some(slot) = cache.entries.get_mut(&page.offset) {
                slot.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.segment));
            }
        }
        let mut io = self.io.lock();
        // Re-probe under the file lock: a racing fault may have populated
        // the cache while this thread waited.
        if self.cache_capacity > 0 {
            let mut cache = self.cache.lock();
            cache.clock += 1;
            let now = cache.clock;
            if let Some(slot) = cache.entries.get_mut(&page.offset) {
                slot.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.segment));
            }
        }
        // The page crossed a trust boundary (the disk): checksum plus full
        // validation, so a torn or tampered page is an error for this
        // request, never a panic or a silently wrong answer.
        let buf = page.read_verified(|offset, buf| io.file.read_at(offset, buf))?;
        let segment = Arc::new(Segment::from_bytes(&buf)?);
        self.faults.fetch_add(1, Ordering::Relaxed);
        if self.cache_capacity > 0 {
            let bytes = segment.resident_bytes();
            let mut cache = self.cache.lock();
            cache.clock += 1;
            let now = cache.clock;
            while cache.entries.len() >= self.cache_capacity {
                let Some((&oldest, _)) = cache.entries.iter().min_by_key(|(_, s)| s.last_used)
                else {
                    break;
                };
                if let Some(slot) = cache.entries.remove(&oldest) {
                    cache.bytes -= slot.bytes;
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            cache.bytes += bytes;
            cache.entries.insert(
                page.offset,
                CacheSlot {
                    segment: Arc::clone(&segment),
                    bytes,
                    last_used: now,
                },
            );
        }
        drop(io);
        Ok(segment)
    }

    fn cache_bytes(&self) -> usize {
        self.cache.lock().bytes
    }

    /// Reads and validates one page without touching the cache or the fault
    /// counter — the promotion path, which immediately owns the segment
    /// instead of sharing a cached copy.
    fn read_page_uncached(&self, page: PageId) -> Result<Segment, StoreError> {
        let buf = page.read_verified(|offset, buf| self.io.lock().file.read_at(offset, buf))?;
        Segment::from_bytes(&buf)
    }

    /// Next access-clock tick (stamped onto the slot a read touched).
    fn touch_tick(&self) -> u64 {
        self.access_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts one serving operation; `true` when a retier pass is due (the
    /// counter re-arms, so exactly one caller gets the `true`).
    fn take_retier_due(&self) -> bool {
        if self.retier_interval == 0 {
            return false;
        }
        if self.ops_since_retier.fetch_add(1, Ordering::Relaxed) + 1 >= self.retier_interval {
            self.ops_since_retier.store(0, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Bytes stranded in the page file by superseded pages.
    fn dead_bytes(&self) -> usize {
        usize::try_from(self.file_len.load(Ordering::Relaxed))
            .unwrap_or(usize::MAX)
            .saturating_sub(self.spilled.load(Ordering::Relaxed))
    }

    /// Whether the dead-byte share of the page file clears both compaction
    /// thresholds (ratio and absolute floor).
    fn compaction_due(&self) -> bool {
        let dead = self.dead_bytes();
        dead > 0
            && dead >= self.compact_min_dead_bytes
            && dead.saturating_mul(100)
                >= usize::from(self.compact_dead_percent).saturating_mul(
                    usize::try_from(self.file_len.load(Ordering::Relaxed)).unwrap_or(usize::MAX),
                )
    }

    /// The generation a committed rewrite renames to.  The old generation
    /// survives until the swap's commit point (on a durable store, the
    /// manifest referencing the new one — a crash at any point recovers to
    /// old or new, never a mix).  A recovered generation is whatever the
    /// manifest said, so the successor is checked, not assumed.
    fn next_generation(&self) -> Result<u64, StoreError> {
        self.generation
            .load(Ordering::Relaxed)
            .checked_add(1)
            .ok_or_else(|| {
                StoreError::CorruptSegment("page-file generation space exhausted".to_string())
            })
    }

    /// Opens a fresh (truncated) compaction file for a page-file rewrite,
    /// next to the page file under the next generation's name.
    fn begin_rewrite(&self) -> Result<Rewrite, StoreError> {
        let path = self
            .path_for(self.next_generation()?)
            .with_extension("pages.compact");
        let file = self.backend.open(&path, true).map_err(io_err)?;
        Ok(Rewrite {
            file,
            path,
            append: 0,
            map: HashMap::new(),
            committed: false,
            backend: Arc::clone(&self.backend),
        })
    }

    /// Copies one live page of the main file onto the rewrite (raw bytes;
    /// [`Pager::verify_rewrite`] validates the copies before they can ever
    /// serve), recording the old → new offset remap.  Idempotent per page.
    fn copy_page(&self, rw: &mut Rewrite, page: PageId) -> Result<(), StoreError> {
        if rw.map.contains_key(&page.offset) {
            return Ok(());
        }
        // Refuse to propagate corruption into the rewrite: the copied page
        // must still match the checksum recorded when it was written.
        let buf = page.read_verified(|offset, buf| self.io.lock().file.read_at(offset, buf))?;
        rw.file.write_at(rw.append, &buf).map_err(io_err)?;
        rw.map.insert(
            page.offset,
            PageId {
                offset: rw.append,
                len: page.len,
                crc: page.crc,
            },
        );
        rw.append += u64::from(page.len);
        Ok(())
    }

    /// Like [`Pager::copy_page`] but validates the fresh copy immediately —
    /// the straggler path, which runs under the shard write lock after the
    /// bulk of the rewrite was already verified off-lock.
    fn copy_page_verified(&self, rw: &mut Rewrite, page: PageId) -> Result<(), StoreError> {
        self.copy_page(rw, page)?;
        if let Some(new) = rw.map.get(&page.offset).copied() {
            rw.read_back(new)?;
        }
        Ok(())
    }

    /// Re-validates every page copied onto the rewrite by reading it back
    /// from the fresh file and decoding it through `Segment::from_bytes`.
    /// A torn or bit-flipped rewrite fails here and never swaps in.
    fn verify_rewrite(&self, rw: &mut Rewrite) -> Result<(), StoreError> {
        let pages: Vec<PageId> = rw.map.values().copied().collect();
        for page in pages {
            rw.read_back(page)?;
        }
        Ok(())
    }

    /// Swaps a fully-copied rewrite in as the shard's page file: rename to
    /// the next generation, the io handle and append cursor move to the
    /// fresh file, and surviving cache entries are re-keyed through the
    /// offset remap.  The old generation stays on disk for the caller to
    /// unlink past the commit point.  Must run under the shard write lock
    /// (the caller remaps the slots with the returned map under the same
    /// lock).  On error the rewrite is discarded and the old file keeps
    /// serving.
    fn commit_rewrite(&self, mut rw: Rewrite) -> Result<HashMap<u64, PageId>, StoreError> {
        let next = self.next_generation()?;
        let target = self.path_for(next);
        self.backend.rename(&rw.path, &target).map_err(io_err)?;
        rw.committed = true;
        let map = std::mem::take(&mut rw.map);
        {
            let mut io = self.io.lock();
            // Re-open rather than stealing `rw.file`: same inode after the
            // rename, and `rw` keeps its Drop impl.
            io.file = self.backend.open(&target, false).map_err(io_err)?;
            io.append = rw.append;
            self.file_len.store(rw.append, Ordering::Relaxed);
        }
        self.generation.store(next, Ordering::Relaxed);
        let mut cache = self.cache.lock();
        let old_entries = std::mem::take(&mut cache.entries);
        cache.bytes = 0;
        for (offset, slot) in old_entries {
            if let Some(new) = map.get(&offset) {
                cache.bytes += slot.bytes;
                cache.entries.insert(new.offset, slot);
            }
        }
        drop(cache);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(map)
    }
}

/// An in-progress page-file rewrite: live pages copied into a fresh
/// `.pages.compact` file, swapped in atomically by
/// [`Pager::commit_rewrite`].  Dropping an uncommitted rewrite removes the
/// fresh file, so an aborted compaction leaves only the old file serving
/// and no stray compaction files on disk.
struct Rewrite {
    file: Box<dyn FileIo>,
    path: PathBuf,
    append: u64,
    /// Old page-file offset → page location in the fresh file.
    map: HashMap<u64, PageId>,
    committed: bool,
    backend: Arc<dyn PageIo>,
}

impl Rewrite {
    /// Reads one copied page back from the fresh file and validates it.
    fn read_back(&mut self, page: PageId) -> Result<(), StoreError> {
        let buf = page.read_verified(|offset, buf| self.file.read_at(offset, buf))?;
        Segment::from_bytes(&buf)?;
        Ok(())
    }
}

impl Drop for Rewrite {
    fn drop(&mut self) {
        if !self.committed {
            let _ = self.backend.remove(&self.path);
        }
    }
}

/// Resident summary of one sealed segment — what byte accounting, slot
/// skipping by position and insert routing need without touching the
/// segment or the page file.
#[derive(Debug)]
struct SlotMeta {
    elems: usize,
    /// Sortable bits of the segment's smallest (last) TRS.
    last_bits: u64,
    stored_bytes: usize,
    ciphertext_bytes: usize,
    /// Exact memory charge of the decoded segment — what residency costs
    /// against the shard budget.  Updated on promotion (decoded capacities
    /// can differ from the pre-spill encode).
    resident_cost: usize,
    /// Access-clock stamp of the last scan/fault that actually read this
    /// slot's segment (0 = never read; summary-only answers don't stamp).
    /// The retier pass ranks slots by it.
    last_access: AtomicU64,
}

impl SlotMeta {
    fn of(segment: &Segment) -> SlotMeta {
        SlotMeta {
            elems: segment.num_elements(),
            last_bits: segment.last_bits(),
            stored_bytes: segment.stored_bytes(),
            ciphertext_bytes: segment.ciphertext_bytes(),
            resident_cost: segment.resident_bytes(),
            last_access: AtomicU64::new(0),
        }
    }

    fn min_trs(&self) -> f64 {
        from_sortable_bits(self.last_bits)
    }
}

/// A decoded segment held in memory, with its budget charge.
#[derive(Debug)]
struct ResidentSeg {
    segment: Segment,
    charged: usize,
}

/// One sealed segment of a list.  Residency and on-disk presence are
/// independent, and a slot can have both: promotion keeps the page (still
/// byte-identical to the segment), and a durable store materializes a page
/// for a pageless resident slot at the next checkpoint.  At least one of
/// the two is always present.
#[derive(Debug)]
struct Slot {
    meta: SlotMeta,
    /// Hot copy, charged against the shard's resident budget.
    resident: Option<ResidentSeg>,
    /// Location of the sealed page in the shard's page file.
    page: Option<PageId>,
    /// Per-group element counts, ascending by group id: what a segment
    /// leaves behind when it leaves memory, so a skip-scan passes over a
    /// cold slot without faulting its page.  `None` exactly while the slot
    /// is resident — there the segment's own skip entries answer, and a
    /// resident store pays for no second copy of them.
    cold_counts: Option<Box<[(GroupId, u32)]>>,
}

impl Slot {
    /// A resident slot, its charge the segment's exact resident cost.
    fn hot(segment: Segment, page: Option<PageId>) -> Slot {
        let meta = SlotMeta::of(&segment);
        let charged = meta.resident_cost;
        Slot {
            meta,
            resident: Some(ResidentSeg { segment, charged }),
            page,
            cold_counts: None,
        }
    }

    /// A cold slot: `segment` already sits on disk as `page`.
    fn cold(segment: &Segment, page: PageId) -> Slot {
        Slot {
            meta: SlotMeta::of(segment),
            resident: None,
            page: Some(page),
            cold_counts: Some(segment.group_counts().into_boxed_slice()),
        }
    }

    fn is_resident(&self) -> bool {
        self.resident.is_some()
    }

    /// Visible elements of a cold slot under `filter`, from its summary;
    /// `None` for a resident slot (scan its blocks' skip entries instead).
    fn cold_visible(&self, filter: &GroupFilter<'_>) -> Option<usize> {
        let counts = self.cold_counts.as_deref()?;
        Some(filter.visible_in(self.meta.elems, counts))
    }
}

/// A segment either borrowed from a resident slot or faulted in from disk.
enum SegRef<'a> {
    Resident(&'a Segment),
    Paged(Arc<Segment>),
}

impl std::ops::Deref for SegRef<'_> {
    type Target = Segment;

    fn deref(&self) -> &Segment {
        match self {
            SegRef::Resident(segment) => segment,
            SegRef::Paged(segment) => segment,
        }
    }
}

/// A merged list stored as a stack of sealed segments plus a mutable
/// uncompressed tail.  The logical sequence is
/// `slots[0] ++ slots[1] ++ ... ++ tail`, descending in TRS — positionally
/// identical to the oracle's `Vec` layout.
#[derive(Debug)]
pub struct SpillList {
    slots: Vec<Slot>,
    tail: Vec<OrderedElement>,
    config: SegmentConfig,
    /// The shard's pager; `None` on the resident lifecycle, where every slot
    /// stays in memory and nothing is budgeted, stamped or written.
    pager: Option<Arc<Pager>>,
    /// Cached sum of slot element counts (the tail adds `tail.len()`).
    seg_elems: usize,
    /// Running per-group element totals of the whole list — slots *and*
    /// tail — ascending by group id: built from the slot summaries and
    /// bumped by each insert that succeeds (a rolled-back insert never
    /// touches them), so `visible_total` neither walks the slots nor
    /// examines the tail.
    totals: Vec<(GroupId, u32)>,
}

impl SpillList {
    /// Builds the list against its shard's pager — or, with `None`, for the
    /// resident lifecycle: every segment in memory, nothing on disk.
    pub(crate) fn build(
        elements: Vec<OrderedElement>,
        config: SegmentConfig,
        pager: Option<Arc<Pager>>,
    ) -> Result<Self, StoreError> {
        let seg_elems = elements.len();
        let segments = encode_segments(&elements, &config)?;
        let mut list = SpillList {
            slots: Vec::new(),
            tail: Vec::new(),
            config,
            pager,
            seg_elems,
            totals: Vec::new(),
        };
        // Greedy budget charging in build order: within this list the hot
        // end (what top-k queries touch) charges before the cold depths,
        // but the shard budget is shared first-come across its lists — a
        // partial budget favours lists built earlier, until the retier
        // pass re-grants it by access recency.
        list.slots = list.place_segments(segments, false)?;
        list.totals = running_totals(&list.slots, &list.tail);
        Ok(list)
    }

    /// The running per-group totals (the list tests recount them).
    #[cfg(test)]
    pub(crate) fn totals(&self) -> &[(GroupId, u32)] {
        &self.totals
    }

    /// Current tail length (elements not yet sealed).
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Number of sealed slots (resident + spilled).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Places freshly encoded segments: resident while the shard budget
    /// covers them (never, when `keep_cold` — the rebuild of a spilled
    /// slot), spilled otherwise.  On any failure the pages written so far
    /// are released, leaving the accounting consistent and the list
    /// untouched.
    fn place_segments(
        &self,
        segments: Vec<Segment>,
        keep_cold: bool,
    ) -> Result<Vec<Slot>, StoreError> {
        let mut slots = Vec::with_capacity(segments.len());
        for segment in segments {
            match self.place(segment, keep_cold) {
                Ok(slot) => slots.push(slot),
                Err(e) => {
                    for slot in slots {
                        self.release_slot(&slot);
                    }
                    return Err(e);
                }
            }
        }
        Ok(slots)
    }

    fn place(&self, segment: Segment, keep_cold: bool) -> Result<Slot, StoreError> {
        // Charge exactly the slot's metered resident cost: the budget
        // invariant (`resident_charge` == Σ charged == Σ exact resident
        // bytes) holds by construction on every placement path.
        match &self.pager {
            Some(pager) if keep_cold || !pager.try_charge(segment.resident_bytes()) => {
                Ok(Slot::cold(&segment, pager.write_page(&segment)?))
            }
            // No pager, or the budget covers it.  The slot has no page
            // until a demotion or (durable) the next checkpoint writes one;
            // the WAL covers the window in between.
            _ => Ok(Slot::hot(segment, None)),
        }
    }

    /// The pager behind a paging-only operation (checkpoint, retier).
    fn pager(&self) -> Result<&Pager, StoreError> {
        self.pager
            .as_deref()
            .ok_or(StoreError::Invariant("a resident list has no pager"))
    }

    /// Returns `bytes` to the shard's resident budget (no-op without one).
    fn uncharge(&self, bytes: usize) {
        if let Some(pager) = &self.pager {
            pager.uncharge(bytes);
        }
    }

    /// Charges `bytes` even past the budget (no-op without one).
    fn force_charge(&self, bytes: usize) {
        if let Some(pager) = &self.pager {
            pager.force_charge(bytes);
        }
    }

    /// Drops a superseded page from the live accounting.  Pages only exist
    /// where a pager wrote them.
    fn release_page(&self, page: Option<PageId>) {
        if let (Some(pager), Some(page)) = (&self.pager, page) {
            pager.release_page(page);
        }
    }

    fn release_slot(&self, slot: &Slot) {
        if let Some(resident) = &slot.resident {
            self.uncharge(resident.charged);
        }
        self.release_page(slot.page);
    }

    /// Resolves slot `k` to a readable segment, faulting its page in from
    /// disk when spilled.  Stamps the slot's access clock: this is the one
    /// place every actual segment read (scan, deep fetch, insert partition,
    /// snapshot) funnels through, so recency here is recency of real use —
    /// summary-only answers deliberately leave the stamp cold.
    fn segment(&self, k: usize) -> Result<SegRef<'_>, StoreError> {
        let slot = &self.slots[k];
        if let Some(pager) = &self.pager {
            slot.meta
                .last_access
                .store(pager.touch_tick(), Ordering::Relaxed);
        }
        match (&slot.resident, slot.page) {
            (Some(resident), _) => Ok(SegRef::Resident(&resident.segment)),
            (None, Some(page)) => Ok(SegRef::Paged(self.pager()?.fetch(page)?)),
            (None, None) => Err(StoreError::Invariant("a slot is resident or paged")),
        }
    }

    /// Seals the tail into new slot(s) and compacts resident neighbours.
    /// The tail is only cleared once every piece is placed, so a failed
    /// seal leaves the list untouched.
    fn seal_tail(&mut self) -> Result<(), StoreError> {
        if self.tail.is_empty() {
            return Ok(());
        }
        let mut sealed = Vec::new();
        encode_chunk_split(&self.tail, &self.config, &mut sealed)?;
        let slots = self.place_segments(sealed, false)?;
        self.seg_elems += self.tail.len();
        self.slots.extend(slots);
        self.tail.clear();
        self.compact()?;
        Ok(())
    }

    /// Insert-amortized compaction: while the stack is deeper than
    /// `max_segments`, merge the adjacent **resident** pair with the
    /// smallest combined size (pure block concatenation), as long as the
    /// merged segment stays under `max_segment_elems` elements and the
    /// payload bound.  Spilled segments are immutable cold storage —
    /// merging them would mean paying page faults on the write path — so a
    /// stack held deep by spilled slots is tolerated.
    fn compact(&mut self) -> Result<(), StoreError> {
        let byte_bound = self.config.payload_bound();
        while self.slots.len() > self.config.max_segments {
            let mut best: Option<(usize, usize)> = None;
            for i in 0..self.slots.len() - 1 {
                let (Some(a), Some(b)) = (&self.slots[i].resident, &self.slots[i + 1].resident)
                else {
                    continue;
                };
                let combined = self.slots[i].meta.elems + self.slots[i + 1].meta.elems;
                if combined <= self.config.max_segment_elems
                    && a.segment.payload_len() + b.segment.payload_len() <= byte_bound
                    && best.is_none_or(|(_, c)| combined < c)
                {
                    best = Some((i, combined));
                }
            }
            let Some((i, _)) = best else { break };
            let right = self.slots.remove(i + 1);
            let left = self.slots.remove(i);
            let (Some(left_res), Some(right_res)) = (left.resident, right.resident) else {
                return Err(StoreError::Invariant(
                    "compaction only selects resident pairs",
                ));
            };
            let mut merged = left_res.segment;
            match merged.absorb(right_res.segment) {
                Ok(()) => {
                    self.uncharge(left_res.charged + right_res.charged);
                    // The merged segment supersedes both slots' checkpoint
                    // pages (if any): release them, the next checkpoint
                    // writes the merged page.
                    self.release_page(left.page);
                    self.release_page(right.page);
                    // The merged segment stays resident: compaction must not
                    // turn a hot pair cold.  If the budget cannot cover the
                    // (small) delta, charge it anyway; tail seals will spill
                    // against the deficit, and the next retier pass settles
                    // it.  The charge is still the exact resident cost, so
                    // the budget invariant never drifts.
                    let slot = Slot::hot(merged, None);
                    self.force_charge(slot.meta.resident_cost);
                    self.slots.insert(i, slot);
                }
                Err(right_seg) => {
                    // Unreachable given the byte-bound pre-check; reattach
                    // both (untouched, so at their old charges) and stop
                    // compacting.
                    self.slots.insert(i, Slot::hot(right_seg, right.page));
                    self.slots.insert(i, Slot::hot(merged, left.page));
                    break;
                }
            }
        }
        Ok(())
    }

    /// Rebuilds slot `k` as `decoded` (already containing the inserted
    /// element).  The old slot is only replaced after every new piece is
    /// placed; a spilled slot's rebuild appends fresh pages and strands the
    /// old page as file garbage.
    fn rebuild_slot(&mut self, k: usize, decoded: Vec<OrderedElement>) -> Result<(), StoreError> {
        let rebuilt = encode_rebuilt(&decoded, &self.config)?;
        let was_cold = !self.slots[k].is_resident();
        // Free the old slot's budget charge up front so the rebuilt
        // segments compete for the bytes the slot itself was holding —
        // otherwise a near-full budget would demote a hot resident head to
        // disk on every interior insert.  Restored if placement fails.
        let old_charge = self.slots[k]
            .resident
            .as_ref()
            .map_or(0, |resident| resident.charged);
        self.uncharge(old_charge);
        // A cold slot stays cold: the segment was not worth resident bytes
        // before the insert and one insert does not make it hot.
        let new_slots = match self.place_segments(rebuilt, was_cold) {
            Ok(slots) => slots,
            Err(e) => {
                self.force_charge(old_charge);
                return Err(e);
            }
        };
        // The rebuilt slots inherit the old slot's access recency: an
        // interior insert must not make a hot slot look cold to the next
        // retier pass.
        let heat = self.slots[k].meta.last_access.load(Ordering::Relaxed);
        for slot in &new_slots {
            slot.meta.last_access.store(heat, Ordering::Relaxed);
        }
        self.seg_elems += 1;
        let old: Vec<Slot> = self.slots.splice(k..=k, new_slots).collect();
        for slot in old {
            // The budget charge was already released above; only the
            // superseded page (now file garbage) remains to account for.
            self.release_page(slot.page);
        }
        if self.slots.len() > self.config.max_segments {
            self.compact()?;
        }
        Ok(())
    }

    /// Appends the live pages of the list's slots onto `out` (the
    /// compaction snapshot), resident slots' pages included.
    fn live_pages(&self, out: &mut Vec<PageId>) {
        for slot in &self.slots {
            if let Some(page) = slot.page {
                out.push(page);
            }
        }
    }

    /// Rewrites every paged slot's page location through the compaction
    /// offset map.  Runs under the shard write lock right after the swap;
    /// the straggler pass under the same lock guarantees coverage.
    fn remap_pages(&mut self, map: &HashMap<u64, PageId>) -> Result<(), StoreError> {
        for slot in &mut self.slots {
            if let Some(page) = &mut slot.page {
                *page = *map.get(&page.offset).ok_or(StoreError::Invariant(
                    "compaction copied every live page before the swap",
                ))?;
            }
        }
        Ok(())
    }

    /// Ensures slot `k` has an on-disk page (checkpoint materialization for
    /// resident slots placed since the last checkpoint), returning it.
    fn ensure_page(&mut self, k: usize) -> Result<PageId, StoreError> {
        if let Some(page) = self.slots[k].page {
            return Ok(page);
        }
        let resident = self.slots[k]
            .resident
            .as_ref()
            .ok_or(StoreError::Invariant("a pageless slot is resident"))?;
        let page = self.pager()?.write_page(&resident.segment)?;
        self.slots[k].page = Some(page);
        Ok(page)
    }

    /// Checkpoint view of this list: every sealed slot's page (materialized
    /// on demand) plus the current tail.  Runs under the shard write lock.
    fn manifest_list(&mut self) -> Result<ManifestList, StoreError> {
        let mut pages = Vec::with_capacity(self.slots.len());
        for k in 0..self.slots.len() {
            let page = self.ensure_page(k)?;
            pages.push((page.offset, page.len, page.crc));
        }
        Ok(ManifestList {
            pages,
            tail: self.tail.clone(),
        })
    }

    /// Rebuilds a list from checkpoint state: every manifest page is read
    /// and fully validated (`Segment::from_bytes`), kept resident while the
    /// shard budget lasts (the page is retained either way — it is
    /// checkpoint state), and the manifest's tail is adopted as the mutable
    /// tail.  Returns the list and the number of pages recovered.
    fn from_recovered(
        manifest: &ManifestList,
        config: SegmentConfig,
        pager: Arc<Pager>,
    ) -> Result<(Self, u64), StoreError> {
        let mut slots = Vec::with_capacity(manifest.pages.len());
        let mut seg_elems = 0usize;
        for &(offset, len, crc) in &manifest.pages {
            let page = PageId { offset, len, crc };
            let segment = pager.read_page_uncached(page)?;
            seg_elems += segment.num_elements();
            pager.note_live_page(len);
            slots.push(if pager.try_charge(segment.resident_bytes()) {
                Slot::hot(segment, Some(page))
            } else {
                Slot::cold(&segment, page)
            });
        }
        let recovered = u64_of(manifest.pages.len());
        let list = SpillList {
            totals: running_totals(&slots, &manifest.tail),
            slots,
            tail: manifest.tail.clone(),
            config,
            pager: Some(pager),
            seg_elems,
        };
        Ok((list, recovered))
    }

    /// Appends the list's sealed slots as retier candidates onto `out`.
    fn tier_candidates(&self, list: usize, out: &mut Vec<TierSlot>) {
        for (k, slot) in self.slots.iter().enumerate() {
            let (resident, cost) = match &slot.resident {
                Some(res) => (true, res.charged),
                None => (false, slot.meta.resident_cost),
            };
            out.push(TierSlot {
                list,
                slot: k,
                heat: slot.meta.last_access.load(Ordering::Relaxed),
                cost,
                resident,
                decayed: false,
            });
        }
    }

    /// Demotes resident slot `k` to the shard's page file (no-op if it is
    /// already cold).  A slot that still carries its page (from before a
    /// promotion, or a checkpoint) skips the write — the page is already
    /// byte-identical.  On write failure the slot stays resident.
    fn demote_slot(&mut self, k: usize) -> Result<(), StoreError> {
        if !self.slots[k].is_resident() {
            return Ok(());
        }
        if self.slots[k].page.is_none() {
            let resident = self.slots[k]
                .resident
                .as_ref()
                .ok_or(StoreError::Invariant("demotion checked the slot resident"))?;
            let page = self.pager()?.write_page(&resident.segment)?;
            self.slots[k].page = Some(page);
        }
        let resident = self.slots[k]
            .resident
            .take()
            .ok_or(StoreError::Invariant("demotion checked the slot resident"))?;
        self.slots[k].cold_counts = Some(resident.segment.group_counts().into_boxed_slice());
        let pager = self.pager()?;
        pager.uncharge(resident.charged);
        pager.demotions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Promotes cold slot `k` back to the resident tier; `Ok(false)` when
    /// the budget cannot cover its exact decoded size.  The slot keeps its
    /// page: it still matches the segment byte for byte, so a later
    /// demotion writes nothing and strands no dead bytes.
    fn promote_slot(&mut self, k: usize) -> Result<bool, StoreError> {
        if self.slots[k].is_resident() {
            return Ok(false);
        }
        let page = self.slots[k]
            .page
            .ok_or(StoreError::Invariant("a cold slot has a page"))?;
        let pager = self.pager()?;
        let segment = pager.read_page_uncached(page)?;
        // The decoded capacities can differ from the cost metered at the
        // pre-spill encode: re-meter so the charge stays exact.
        let charge = segment.resident_bytes();
        if !pager.try_charge(charge) {
            return Ok(false);
        }
        pager.promotions.fetch_add(1, Ordering::Relaxed);
        self.slots[k].meta.resident_cost = charge;
        self.slots[k].cold_counts = None;
        self.slots[k].resident = Some(ResidentSeg {
            segment,
            charged: charge,
        });
        Ok(true)
    }

    /// Sum of the budget charges of the list's resident slots.
    fn charged_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|slot| slot.resident.as_ref().map(|res| res.charged))
            .sum()
    }

    /// Whether every resident slot's charge equals both its segment's exact
    /// resident bytes and its metered `resident_cost` (the per-slot half of
    /// the budget invariant).
    fn charges_exact(&self) -> bool {
        self.slots.iter().all(|slot| match &slot.resident {
            Some(res) => {
                res.charged == res.segment.resident_bytes()
                    && res.charged == slot.meta.resident_cost
            }
            None => true,
        })
    }
}

/// Per-group element counts of a whole list — slot summaries plus tail —
/// ascending by group id and exact-sized.
fn running_totals(slots: &[Slot], tail: &[OrderedElement]) -> Vec<(GroupId, u32)> {
    let mut totals = Vec::new();
    let mut add = |counts: &[(GroupId, u32)]| {
        for &(group, n) in counts {
            add_count(&mut totals, group, n);
        }
    };
    for slot in slots {
        match (&slot.resident, &slot.cold_counts) {
            (Some(resident), _) => add(&resident.segment.group_counts()),
            (None, Some(counts)) => add(counts),
            (None, None) => {}
        }
    }
    for element in tail {
        add_count(&mut totals, element.group, 1);
    }
    totals.shrink_to_fit();
    totals
}

/// One sealed slot as the retier pass sees it: where it lives, what
/// residency costs, and how recently it was actually read.
struct TierSlot {
    list: usize,
    slot: usize,
    heat: u64,
    cost: usize,
    resident: bool,
    /// Set by the retier pass when the slot's heat fell outside the decay
    /// window: treated as never-read, including for the resident-keep rule.
    decayed: bool,
}

impl OrderedList for SpillList {
    fn len(&self) -> usize {
        self.seg_elems + self.tail.len()
    }

    fn snapshot(&self) -> Result<Vec<OrderedElement>, StoreError> {
        let mut out = Vec::with_capacity(self.len());
        for k in 0..self.slots.len() {
            out.extend(self.segment(k)?.decode_all());
        }
        out.extend(self.tail.iter().cloned());
        Ok(out)
    }

    fn visible_total(&self, filter: &GroupFilter<'_>) -> usize {
        // The running totals answer for slots and tail alike: no page is
        // faulted and no element examined.
        filter.visible_in(self.len(), &self.totals)
    }

    fn scan(
        &self,
        start: usize,
        skip: usize,
        count: usize,
        filter: &GroupFilter<'_>,
    ) -> Result<(Vec<OrderedElement>, usize), StoreError> {
        let total = self.len();
        let mut elements = Vec::with_capacity(count.min(total.saturating_sub(start)));
        let mut skipped = 0usize;
        let mut pos = 0usize;
        for k in 0..self.slots.len() {
            let elems = self.slots[k].meta.elems;
            if pos + elems <= start {
                pos += elems;
                continue;
            }
            // Wholesale visible-skip from the summary: a cold slot whose
            // visible elements would all be skipped is passed over without
            // paying a page fault (a resident one skips block by block).
            if pos >= start && skipped < skip {
                if let Some(visible) = self.slots[k].cold_visible(filter) {
                    if skipped + visible <= skip {
                        skipped += visible;
                        pos += elems;
                        continue;
                    }
                }
            }
            let segment = self.segment(k)?;
            if let Some(next) =
                segment.scan_part(pos, start, skip, &mut skipped, count, &mut elements, filter)
            {
                return Ok((elements, next));
            }
            pos += elems;
        }
        for (j, element) in self.tail.iter().enumerate() {
            let idx = self.seg_elems + j;
            if idx < start || !filter.admits(element.group) {
                continue;
            }
            if skipped < skip {
                skipped += 1;
                continue;
            }
            elements.push(element.clone());
            if elements.len() == count {
                return Ok((elements, idx + 1));
            }
        }
        Ok((elements, total.max(start)))
    }

    fn insert(&mut self, element: OrderedElement) -> Result<usize, StoreError> {
        if !self.config.element_fits(&element) {
            return Err(StoreError::SegmentOverflow);
        }
        let trs = element.trs;
        let group = element.group;
        let mut base = 0usize;
        for k in 0..self.slots.len() {
            if self.slots[k].meta.min_trs() > trs {
                // Every element of this slot sorts strictly before the new
                // one (summary-only check): the partition point is further
                // down.
                base += self.slots[k].meta.elems;
                continue;
            }
            // The partition point lies inside this slot: fault it (if
            // cold), locate the exact position and rebuild.
            let (local, mut decoded) = {
                let segment = self.segment(k)?;
                (segment.insert_pos(trs), segment.decode_all())
            };
            decoded.insert(local, element);
            let pos = base + local;
            self.rebuild_slot(k, decoded)?;
            add_count(&mut self.totals, group, 1);
            return Ok(pos);
        }
        // Every sealed element sorts strictly before the new one: the tail
        // absorbs the insert.
        let local = self.tail.partition_point(|e| e.trs > trs);
        self.tail.insert(local, element);
        let pos = base + local;
        if self.tail.len() > self.config.tail_threshold {
            if let Err(e) = self.seal_tail() {
                // A failed seal leaves the tail intact: take the new element
                // back out so an errored insert never half-applies (the
                // caller skips the generation bump and cursor shifts).
                self.tail.remove(local);
                return Err(e);
            }
        }
        add_count(&mut self.totals, group, 1);
        Ok(pos)
    }

    fn stored_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.meta.stored_bytes)
            .sum::<usize>()
            + self
                .tail
                .iter()
                .map(|e| e.sealed.stored_bytes() + zerber_r::TRS_BYTES)
                .sum::<usize>()
    }

    fn ciphertext_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.meta.ciphertext_bytes)
            .sum::<usize>()
            + self
                .tail
                .iter()
                .map(|e| e.sealed.ciphertext.len())
                .sum::<usize>()
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .slots
                .iter()
                .map(|s| {
                    std::mem::size_of::<Slot>()
                        + s.cold_counts.as_ref().map_or(0, |counts| {
                            counts.len() * std::mem::size_of::<(GroupId, u32)>()
                        })
                        + s.resident
                            .as_ref()
                            .map_or(0, |res| res.segment.resident_bytes())
                })
                .sum::<usize>()
            + self.tail.capacity() * std::mem::size_of::<OrderedElement>()
            + self
                .tail
                .iter()
                .map(|e| e.sealed.ciphertext.capacity())
                .sum::<usize>()
            + self.totals.capacity() * std::mem::size_of::<(GroupId, u32)>()
    }

    fn ordering_ok(&self) -> bool {
        self.snapshot()
            .map(|s| s.windows(2).all(|w| w[0].trs >= w[1].trs))
            .unwrap_or(false)
    }
}

/// Per-shard write-ahead-log handle.
#[derive(Debug)]
struct WalFile {
    file: Box<dyn FileIo>,
    /// Current log length (the append cursor).
    len: u64,
    /// Sequence number the next append will take (per-shard, monotonic,
    /// survives WAL resets).
    next_seq: u64,
    /// Appends since the last fsync (the `EveryN` policy counter).
    appends_since_sync: u32,
}

/// The WAL sequence number after `seq`.  Sequence numbers come back from
/// disk and wire, where a CRC-valid `u64::MAX` is possible: running out is
/// an error, not an overflow.
fn successor_seq(seq: u64) -> Result<u64, StoreError> {
    seq.checked_add(1)
        .ok_or_else(|| StoreError::CorruptSegment("WAL sequence space exhausted".to_string()))
}

/// The durability side of a [`SpillStore`]: per-shard WALs, manifest
/// commits, and the durability meters.
#[derive(Debug)]
pub(crate) struct DurableState {
    backend: Arc<dyn PageIo>,
    dir: PathBuf,
    config: DurableConfig,
    wals: Vec<Mutex<WalFile>>,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    recovered_pages: AtomicU64,
    truncated_wal: AtomicU64,
}

impl Drop for DurableState {
    fn drop(&mut self) {
        // Graceful-shutdown durability: under `SyncPolicy::EveryN` (or
        // `Never`) up to N-1 acknowledged appends can sit in the WAL tail
        // without an fsync.  A clean drop flushes them, so only a real
        // crash or power loss can lose acknowledged work.  Best-effort: a
        // crashed fault backend swallows the sync, which *is* the crash
        // the recovery suite models.
        for wal in &self.wals {
            let _ = wal.lock().file.sync();
        }
    }
}

const STORE_META_NAME: &str = "store.meta";

fn manifest_tmp_path(manifest: &Path) -> PathBuf {
    manifest.with_extension("manifest.tmp")
}

fn manifest_prev_path(manifest: &Path) -> PathBuf {
    manifest.with_extension("manifest.prev")
}

impl DurableState {
    fn wal_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:03}.wal"))
    }

    fn manifest_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:03}.manifest"))
    }

    /// Appends one insert to the shard's WAL, applying the configured fsync
    /// policy.  Called under the shard write lock, immediately after the
    /// in-memory apply — log order is apply order.
    pub(crate) fn append(
        &self,
        shard: usize,
        list: u64,
        element: &OrderedElement,
    ) -> Result<(), StoreError> {
        let mut wal = self.wals[shard].lock();
        let next_seq = successor_seq(wal.next_seq)?;
        let frame = encode_wal_frame(wal.next_seq, list, element)?;
        let at = wal.len;
        wal.file.write_at(at, &frame).map_err(io_err)?;
        wal.len += u64_of(frame.len());
        wal.next_seq = next_seq;
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes
            .fetch_add(u64_of(frame.len()), Ordering::Relaxed);
        match self.config.sync {
            SyncPolicy::Always => wal.file.sync().map_err(io_err)?,
            SyncPolicy::EveryN(n) => {
                wal.appends_since_sync += 1;
                if n > 0 && wal.appends_since_sync >= n {
                    wal.file.sync().map_err(io_err)?;
                    wal.appends_since_sync = 0;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Sequence number of the last record applied (and logged) on `shard`.
    /// Stable while the shard write lock is held.
    fn applied_seq(&self, shard: usize) -> u64 {
        self.wals[shard].lock().next_seq - 1
    }

    /// Whether the shard's WAL has grown past the checkpoint threshold.
    fn checkpoint_due(&self, shard: usize) -> bool {
        self.config.checkpoint_wal_bytes > 0
            && self.wals[shard].lock().len >= self.config.checkpoint_wal_bytes
    }

    /// The durable commit of one shard's state as `table` holds it — the
    /// caller passes the target of its shard write guard, so nothing moves
    /// underneath: materializes a page for every sealed slot that lacks
    /// one, fsyncs the page file, commits a manifest enumerating every
    /// sealed page plus the in-memory tails, then truncates the WAL.
    fn commit_checkpoint(
        &self,
        shard: usize,
        pager: &Pager,
        table: &mut ListTable<SpillList>,
    ) -> Result<(), StoreError> {
        let _io = lockrank::sanctioned_io("the manifest must match the locked shard state");
        let mut lists = Vec::new();
        for list in table.lists_mut() {
            lists.push(list.manifest_list()?);
        }
        let manifest = Manifest {
            generation: pager.generation.load(Ordering::Relaxed),
            applied_seq: self.applied_seq(shard),
            lists,
        };
        pager.sync_file()?;
        self.commit_manifest(shard, &manifest)?;
        self.reset_wal(shard)
    }

    /// Commits `manifest` for `shard`: write tmp, fsync, atomic rename.
    /// Crash before the rename leaves the old manifest authoritative; the
    /// tmp file is swept by the next `open`.
    fn commit_manifest(&self, shard: usize, manifest: &Manifest) -> Result<(), StoreError> {
        let bytes = encode_manifest(manifest)?;
        let path = self.manifest_path(shard);
        let tmp = manifest_tmp_path(&path);
        {
            let mut file = self.backend.open(&tmp, true).map_err(io_err)?;
            file.write_at(0, &bytes).map_err(io_err)?;
            file.sync().map_err(io_err)?;
        }
        // Demote the live manifest to the fallback slot before renaming the
        // fresh one in.  Recovery prefers the current manifest and falls
        // back to `.manifest.prev`, so a crash between the renames — or a
        // lying fsync publishing a half-written current manifest — still
        // leaves a valid checkpoint to recover from (the WAL it covers is
        // only truncated after this commit returns).
        if self.backend.exists(&path) {
            self.backend
                .rename(&path, &manifest_prev_path(&path))
                .map_err(io_err)?;
        }
        self.backend.rename(&tmp, &path).map_err(io_err)
    }

    /// Truncates the shard's WAL after a successful checkpoint.  The
    /// sequence counter keeps running — manifests record the applied
    /// sequence, so a crash between the manifest rename and this truncate
    /// merely leaves stale records the next replay skips.
    fn reset_wal(&self, shard: usize) -> Result<(), StoreError> {
        let mut wal = self.wals[shard].lock();
        wal.file.set_len(0).map_err(io_err)?;
        wal.file.sync().map_err(io_err)?;
        wal.len = 0;
        wal.appends_since_sync = 0;
        Ok(())
    }
}

impl SpillStore {
    /// Builds a spill store rooted at `dir` with explicit spill *and*
    /// segment-layout tuning (tests use tiny blocks/segments to cross page
    /// boundaries cheaply).  The page files are cache state, removed on
    /// drop.
    pub fn with_configs(
        index: OrderedIndex,
        num_shards: usize,
        dir: impl Into<PathBuf>,
        config: SpillConfig,
        segment: SegmentConfig,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        // Refuse a directory another store is already using: page files are
        // opened with truncate and deleted on drop, so sharing a root would
        // silently clobber the other store's cold data.
        refuse_occupied_root(&dir)?;
        let root = Arc::new(SpillRoot { dir: dir.clone() });
        let num_shards = num_shards.clamp(1, MAX_SHARDS);
        let backend = RealIo::shared();
        let pagers: Vec<Arc<Pager>> = (0..num_shards)
            .map(|shard| {
                let root = Some(Arc::clone(&root));
                Pager::create(Arc::clone(&backend), &dir, shard, &config, root, 0, 0)
            })
            .collect::<Result<_, _>>()?;
        SpillStore::build(index, num_shards, segment, pagers)
    }

    /// Creates a **durable** store rooted at `dir` with default segment
    /// tuning: page files become checkpoint state, tail inserts are
    /// write-ahead logged, and the directory survives drop —
    /// [`SpillStore::open`] brings the store back.
    pub fn create_durable(
        index: OrderedIndex,
        dir: impl Into<PathBuf>,
        num_shards: usize,
        config: SpillConfig,
        durable: DurableConfig,
    ) -> Result<Self, StoreError> {
        Self::create_durable_with(
            index,
            dir,
            num_shards,
            config,
            SegmentConfig::default(),
            durable,
            RealIo::shared(),
        )
    }

    /// Full-control durable creation: explicit segment tuning and IO
    /// backend (the fault-injection tests substitute
    /// [`crate::durable::FaultIo`]).
    pub fn create_durable_with(
        index: OrderedIndex,
        dir: impl Into<PathBuf>,
        num_shards: usize,
        config: SpillConfig,
        segment: SegmentConfig,
        durable: DurableConfig,
        backend: Arc<dyn PageIo>,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        if backend.exists(&dir.join(STORE_META_NAME)) {
            return Err(StoreError::Io(format!(
                "directory {} already holds a durable store; open it instead of re-creating",
                dir.display(),
            )));
        }
        refuse_occupied_root(&dir)?;
        let num_shards = num_shards.clamp(1, MAX_SHARDS);
        // Persist the store's identity first: shard count, segment layout
        // and the merge plan, everything `open` needs before it can touch a
        // shard.  Committed via tmp + fsync + rename like the manifests.
        let plan = index.plan().clone();
        let meta = StoreMeta {
            num_shards: u64_of(num_shards),
            segment,
            scheme: plan.scheme().to_string(),
            r: plan.r(),
            term_lists: (0..plan.num_lists())
                .map(|l| {
                    plan.list_terms(zerber_base::MergedListId(u64_of(l)))
                        .map(|terms| terms.iter().map(|t| t.0).collect())
                })
                .collect::<Result<Vec<Vec<u32>>, _>>()
                .map_err(|_| StoreError::Io("merge plan enumeration failed".to_string()))?,
        };
        let meta_path = dir.join(STORE_META_NAME);
        let meta_tmp = dir.join("store.meta.tmp");
        {
            let mut file = backend.open(&meta_tmp, true).map_err(io_err)?;
            file.write_at(0, &encode_store_meta(&meta))
                .map_err(io_err)?;
            file.sync().map_err(io_err)?;
        }
        backend.rename(&meta_tmp, &meta_path).map_err(io_err)?;
        let pagers: Vec<Arc<Pager>> = (0..num_shards)
            .map(|shard| Pager::create(Arc::clone(&backend), &dir, shard, &config, None, 0, 0))
            .collect::<Result<_, _>>()?;
        let mut store = SpillStore::build(index, num_shards, segment, pagers)?;
        let wals = (0..num_shards)
            .map(|shard| {
                let path = dir.join(format!("shard-{shard:03}.wal"));
                let file = backend.open(&path, true).map_err(io_err)?;
                Ok(Mutex::new(WalFile {
                    file,
                    len: 0,
                    next_seq: 1,
                    appends_since_sync: 0,
                }))
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        store.durable = Some(DurableState {
            backend,
            dir,
            config: durable,
            wals,
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            recovered_pages: AtomicU64::new(0),
            truncated_wal: AtomicU64::new(0),
        });
        // The initial checkpoint makes the store openable from the first
        // moment: every shard gets a manifest covering the built state.
        store.checkpoint()?;
        Ok(store)
    }

    /// Recovers a durable store from `dir` (production IO): reads the
    /// checkpoint manifests, replays the WAL tails, truncates torn logs and
    /// audits the result.  See [`SpillStore::open_with_io`].
    pub fn open(
        dir: impl Into<PathBuf>,
        config: SpillConfig,
        durable: DurableConfig,
    ) -> Result<Self, StoreError> {
        Self::open_with_io(dir, config, durable, RealIo::shared())
    }

    /// Crash recovery.  For every shard: load + CRC-validate the manifest,
    /// adopt exactly the pages it references (each decoded through the
    /// fully validating `Segment::from_bytes`), sweep stray scratch files
    /// (compaction leftovers, superseded page-file generations, manifest
    /// temp files), then replay the WAL tail through the ordinary insert
    /// path — a torn or corrupt tail truncates at the last valid record and
    /// the store keeps serving.  Before the store is returned it must pass
    /// `budget_accounting_is_exact` plus a full ordering/visibility audit;
    /// a store that cannot satisfy its own invariants is refused, never
    /// served.
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        config: SpillConfig,
        durable: DurableConfig,
        backend: Arc<dyn PageIo>,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        let meta_bytes = read_all(&*backend, &dir.join(STORE_META_NAME))?;
        let meta = decode_store_meta(&meta_bytes)?;
        let num_shards = usize::try_from(meta.num_shards)
            .ok()
            .filter(|&n| (1..=MAX_SHARDS).contains(&n))
            .ok_or_else(|| {
                StoreError::CorruptSegment("implausible shard count in store metadata".to_string())
            })?;
        let plan = zerber_base::MergePlan::from_term_lists(
            meta.term_lists
                .iter()
                .map(|terms| terms.iter().map(|&t| TermId(t)).collect())
                .collect(),
            &meta.scheme,
            meta.r,
        );
        let mut manifests = Vec::with_capacity(num_shards);
        let mut pagers = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let manifest_path = dir.join(format!("shard-{shard:03}.manifest"));
            // Prefer the current manifest; if it is missing or corrupt (a
            // crash between the commit renames, or a lying fsync that
            // published a hollow file) fall back to the previous one.  The
            // WAL covering the previous checkpoint is only truncated after
            // the new manifest commits, so the fallback plus replay still
            // reconstructs a consistent prefix of history.
            let manifest = match read_all(&*backend, &manifest_path)
                .and_then(|bytes| decode_manifest(&bytes))
            {
                Ok(manifest) => manifest,
                Err(primary) => {
                    let prev_path = manifest_prev_path(&manifest_path);
                    match read_all(&*backend, &prev_path).and_then(|bytes| decode_manifest(&bytes))
                    {
                        Ok(manifest) => {
                            // Promote the fallback back into the current
                            // slot so a later checkpoint cannot demote the
                            // corrupt current manifest over it.
                            backend.rename(&prev_path, &manifest_path).map_err(io_err)?;
                            manifest
                        }
                        Err(_) => return Err(primary),
                    }
                }
            };
            // The append cursor resumes exactly past the manifest extent;
            // anything beyond it in the file is a torn page write.
            // A CRC only catches accidents: an extent past `u64::MAX` is
            // refused, not computed.
            let append = manifest
                .lists
                .iter()
                .flat_map(|l| l.pages.iter())
                .try_fold(0u64, |end, &(offset, len, _crc)| {
                    Some(end.max(offset.checked_add(u64::from(len))?))
                })
                .ok_or_else(|| {
                    StoreError::CorruptSegment(format!(
                        "shard {shard} manifest references a page past the end of the address space"
                    ))
                })?;
            pagers.push(Pager::create(
                Arc::clone(&backend),
                &dir,
                shard,
                &config,
                None,
                manifest.generation,
                append,
            )?);
            manifests.push(manifest);
        }
        sweep_stray_files(&*backend, &dir, num_shards, &manifests);
        let mut recovered_pages = 0u64;
        let mut tables = Vec::with_capacity(num_shards);
        for (shard, manifest) in manifests.iter().enumerate() {
            let mut lists = Vec::with_capacity(manifest.lists.len());
            for manifest_list in &manifest.lists {
                let (list, recovered) = SpillList::from_recovered(
                    manifest_list,
                    meta.segment,
                    Arc::clone(&pagers[shard]),
                )?;
                recovered_pages += recovered;
                lists.push(list);
            }
            tables.push(lists);
        }
        let mut store = SpillStore::assemble(plan, tables, pagers)?;
        // WAL tails: scan, truncate at the last valid record, remember what
        // must replay.
        let mut wals = Vec::with_capacity(num_shards);
        let mut replays = Vec::with_capacity(num_shards);
        let mut truncated = 0u64;
        for (shard, manifest) in manifests.iter().enumerate() {
            let path = dir.join(format!("shard-{shard:03}.wal"));
            let image = if backend.exists(&path) {
                read_all(&*backend, &path)?
            } else {
                Vec::new()
            };
            let scan = scan_wal(&image);
            let mut file = backend.open(&path, false).map_err(io_err)?;
            if scan.torn {
                // Keep-serving truncation: everything after the last valid
                // frame is discarded, on disk and in memory.
                file.set_len(scan.valid_len).map_err(io_err)?;
                file.sync().map_err(io_err)?;
                truncated += 1;
            }
            let last_seq = scan.records.last().map_or(0, |r| r.seq);
            wals.push(Mutex::new(WalFile {
                file,
                len: scan.valid_len,
                next_seq: successor_seq(last_seq.max(manifest.applied_seq))?,
                appends_since_sync: 0,
            }));
            // A crash between a manifest commit and its WAL reset leaves
            // records the checkpoint already folded in: skip them.
            replays.push(
                scan.records
                    .into_iter()
                    .filter(|r| r.seq > manifest.applied_seq)
                    .collect::<Vec<_>>(),
            );
        }
        store.durable = Some(DurableState {
            backend,
            dir,
            config: durable,
            wals,
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            recovered_pages: AtomicU64::new(recovered_pages),
            truncated_wal: AtomicU64::new(truncated),
        });
        for (shard, records) in replays.into_iter().enumerate() {
            for record in records {
                store.replay_insert(shard, record.list, record.element)?;
            }
        }
        store.recovery_audit()?;
        Ok(store)
    }

    /// Applies one WAL record through the ordinary list insert path —
    /// without re-logging and without maintenance (recovery wants the
    /// checkpoint state plus exactly the logged tail, nothing else).
    fn replay_insert(
        &self,
        shard: usize,
        list: u64,
        element: OrderedElement,
    ) -> Result<(), StoreError> {
        let list = zerber_base::MergedListId(list);
        let (record_shard, slot) = self.known(list)?;
        if record_shard != shard {
            return Err(StoreError::CorruptSegment(format!(
                "WAL record for list {} landed in shard {shard}, expected {record_shard}",
                list.0
            )));
        }
        self.shard_write(shard).insert(slot, element).map(|_| ())
    }

    /// Post-recovery acceptance audit: the byte-exact budget invariant, the
    /// descending-TRS ordering of every list, and a full visibility audit
    /// (per-group summary counts must agree with a brute-force recount of
    /// the decoded elements).  A recovered state is *checked against the
    /// store's invariants, not trusted*.
    fn recovery_audit(&self) -> Result<(), StoreError> {
        if !self.budget_accounting_is_exact() {
            return Err(StoreError::RecoveryFailed(
                "budget accounting inconsistent after recovery".to_string(),
            ));
        }
        for l in 0..self.num_lists() {
            let list = zerber_base::MergedListId(u64_of(l));
            let elements = self.snapshot_list(list)?;
            if elements.windows(2).any(|w| w[0].trs < w[1].trs) {
                return Err(StoreError::RecoveryFailed(format!(
                    "list {l} violates descending-TRS order after recovery"
                )));
            }
            if self.list_len(list)? != elements.len() {
                return Err(StoreError::RecoveryFailed(format!(
                    "list {l} length disagrees with its snapshot after recovery"
                )));
            }
            let mut groups: Vec<GroupId> = elements.iter().map(|e| e.group).collect();
            groups.sort_unstable_by_key(|g| g.0);
            groups.dedup();
            for group in groups {
                let expect = elements.iter().filter(|e| e.group == group).count();
                let got = self.visible_len(list, Some(&[group]))?;
                if got != expect {
                    return Err(StoreError::RecoveryFailed(format!(
                        "list {l} visibility for group {} is {got}, recount says {expect}",
                        group.0
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checkpoints every shard: page-file fsync, manifest commit, WAL
    /// reset.  No-op unless the store is durable.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        for shard in 0..self.pagers.len() {
            self.checkpoint_shard(shard)?;
        }
        Ok(())
    }

    /// Checkpoints one shard under its write lock: materializes pages for
    /// resident slots sealed since the last checkpoint, fsyncs the page
    /// file, commits a manifest enumerating every sealed page plus the
    /// in-memory tails, then truncates the WAL.  Crash-safe at every step:
    /// until the manifest rename lands, the old checkpoint plus the old WAL
    /// stay authoritative.  `Ok(false)` unless the store is durable.
    pub fn checkpoint_shard(&self, shard: usize) -> Result<bool, StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(false);
        };
        let pager = &self.pagers[shard];
        let mut table = self.shard_write(shard);
        durable.commit_checkpoint(shard, pager, &mut table)?;
        debug_assert!(charges_consistent(&table, pager));
        Ok(true)
    }

    /// Whether this store persists across drops: the one fact that tells
    /// the durable lifecycle from the spill one.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The serialized `store.meta` identity block.  Replication snapshots
    /// ship it first: a replica can open nothing without it.
    pub(crate) fn replication_meta(&self) -> Result<Vec<u8>, StoreError> {
        let durable = self.replication_durable()?;
        read_all(&*durable.backend, &durable.dir.join(STORE_META_NAME))
    }

    /// One shard's snapshot file set — `(file name, bytes)` for the current
    /// manifest, the page file of the generation it references, and the live
    /// WAL tail — read under the shard read lock so no checkpoint,
    /// compaction or insert can shear the set.  A replica that writes these
    /// files into an empty root and runs [`SpillStore::open`] lands on
    /// exactly this shard's state, fully re-validated (manifest CRC,
    /// per-page CRC, WAL frame CRCs).
    pub(crate) fn shard_snapshot_files(
        &self,
        shard: usize,
    ) -> Result<Vec<(String, Vec<u8>)>, StoreError> {
        let durable = self.replication_durable()?;
        let _table = self.shard_read(shard);
        let manifest_name = format!("shard-{shard:03}.manifest");
        let manifest_bytes = read_all(&*durable.backend, &durable.dir.join(&manifest_name))?;
        let manifest = decode_manifest(&manifest_bytes)?;
        let pages_name = format!("shard-{shard:03}.g{}.pages", manifest.generation);
        let pages_path = durable.dir.join(&pages_name);
        let pages_bytes = if durable.backend.exists(&pages_path) {
            read_all(&*durable.backend, &pages_path)?
        } else {
            Vec::new()
        };
        let wal_name = format!("shard-{shard:03}.wal");
        let wal_bytes = {
            let mut wal = durable.wals[shard].lock();
            let len = usize::try_from(wal.len)
                .map_err(|_| StoreError::Io("WAL too large to snapshot".to_string()))?;
            let mut buf = vec![0u8; len];
            wal.file.read_at(0, &mut buf).map_err(io_err)?;
            buf
        };
        Ok(vec![
            (manifest_name, manifest_bytes),
            (pages_name, pages_bytes),
            (wal_name, wal_bytes),
        ])
    }

    /// The live WAL tail of one shard past `from`, as wire-ready frames.
    /// Returns [`WalTail::Gap`] when a checkpoint already reset the records
    /// the subscriber needs — the caller must re-snapshot rather than
    /// silently diverge.
    pub(crate) fn wal_frames_after(
        &self,
        shard: usize,
        from: u64,
        max: usize,
    ) -> Result<WalTail, StoreError> {
        let durable = self.replication_durable()?;
        let image = {
            let mut wal = durable.wals[shard].lock();
            let len = usize::try_from(wal.len)
                .map_err(|_| StoreError::Io("WAL too large to stream".to_string()))?;
            let mut buf = vec![0u8; len];
            wal.file.read_at(0, &mut buf).map_err(io_err)?;
            buf
        };
        let head = durable.applied_seq(shard);
        // The image is read under the append mutex against the
        // acknowledged length, so it scans clean — every frame in it is
        // complete and CRC-valid.
        let scan = scan_wal(&image);
        match scan.records.first() {
            Some(first) if from.saturating_add(1) < first.seq => return Ok(WalTail::Gap { head }),
            None if from < head => return Ok(WalTail::Gap { head }),
            _ => {}
        }
        let mut frames = Vec::new();
        for record in scan.records.into_iter().filter(|r| r.seq > from) {
            if frames.len() >= max {
                break;
            }
            frames.push(encode_wal_frame(record.seq, record.list, &record.element)?);
        }
        Ok(WalTail::Frames { frames, head })
    }

    /// Per-shard applied (last logged) sequence numbers; empty for
    /// non-durable stores.
    pub(crate) fn wal_applied_seqs(&self) -> Vec<u64> {
        match &self.durable {
            Some(d) => (0..self.pagers.len()).map(|s| d.applied_seq(s)).collect(),
            None => Vec::new(),
        }
    }

    fn replication_durable(&self) -> Result<&DurableState, StoreError> {
        self.durable
            .as_ref()
            .ok_or_else(|| StoreError::Io("replication requires a durable store".to_string()))
    }

    /// The per-shard WAL paths (tests and tooling).
    pub fn wal_paths(&self) -> Vec<PathBuf> {
        match &self.durable {
            Some(d) => (0..self.pagers.len()).map(|s| d.wal_path(s)).collect(),
            None => Vec::new(),
        }
    }

    /// The per-shard page files backing the spilled segments.
    pub fn page_file_paths(&self) -> Vec<PathBuf> {
        self.pagers.iter().map(|p| p.current_path()).collect()
    }

    /// Bytes currently held by the LRU page caches (part of
    /// [`StoreMetrics::resident_bytes`]).
    pub fn page_cache_bytes(&self) -> usize {
        self.pagers.iter().map(|p| p.cache_bytes()).sum()
    }

    /// Bytes of sealed segments currently charged against the per-shard
    /// resident budgets (the budget-side view of what stayed hot).
    pub fn resident_charge_bytes(&self) -> usize {
        self.pagers
            .iter()
            .map(|p| p.resident_charge.load(Ordering::Relaxed))
            .sum()
    }

    /// Budget-accounting invariant: on every shard, the pager's
    /// `resident_charge` equals the sum of the resident slots' charges, and
    /// each charge equals that slot's exact resident bytes.  Debug builds
    /// assert this after every maintenance pass; tests call it directly.
    pub fn budget_accounting_is_exact(&self) -> bool {
        self.pagers
            .iter()
            .enumerate()
            .all(|(shard, pager)| charges_consistent(&self.shard_read(shard), pager))
    }

    /// Compacts one shard's page file: snapshots the live pages under the
    /// shard read lock, copies them into a fresh `.pages.compact` file and
    /// re-validates every copy off the lock, then takes the shard write
    /// lock only for the finish — copy the few straggler pages written
    /// since the snapshot, rename the fresh file in as the next generation,
    /// remap the slots and the page cache — and unlinks the old generation
    /// once the swap has committed.  `Ok(false)` when the shard has no page
    /// file (a resident store) or another compaction of it is already
    /// running; on any failure the fresh file is removed and the old file
    /// keeps serving untouched.
    pub fn compact_shard(&self, shard: usize) -> Result<bool, StoreError> {
        let Some(pager) = self.pagers.get(shard) else {
            return Ok(false);
        };
        if pager.compacting.swap(true, Ordering::Acquire) {
            return Ok(false);
        }
        let result = self
            .start_compaction(shard)
            .and_then(|rw| self.finish_compaction(shard, rw));
        pager.compacting.store(false, Ordering::Release);
        result.map(|()| true)
    }

    /// Phase 1 of a compaction: snapshot + bulk copy, entirely off the
    /// shard write lock (serving continues against the old file).
    fn start_compaction(&self, shard: usize) -> Result<Rewrite, StoreError> {
        let pager = &self.pagers[shard];
        let mut live = Vec::new();
        for list in self.shard_read(shard).lists() {
            list.live_pages(&mut live);
        }
        let mut rw = pager.begin_rewrite()?;
        for page in live {
            pager.copy_page(&mut rw, page)?;
        }
        Ok(rw)
    }

    /// Phase 2 of a compaction: verify the rewrite (still off-lock — a
    /// bit-flipped or torn fresh file rejects the swap here), then swap it
    /// in under the shard write lock.
    fn finish_compaction(&self, shard: usize, mut rw: Rewrite) -> Result<(), StoreError> {
        let pager = &self.pagers[shard];
        pager.verify_rewrite(&mut rw)?;
        let mut table = self.shard_write(shard);
        // Stragglers: pages written between the snapshot and this lock
        // (rebuilds, demotions).  Copied and validated here, so the map
        // covers every live page before anything is remapped.
        let mut pages = Vec::new();
        for list in table.lists() {
            list.live_pages(&mut pages);
        }
        for page in pages {
            if !rw.map.contains_key(&page.offset) {
                pager.copy_page_verified(&mut rw, page)?;
            }
        }
        let old_path = pager.current_path();
        let sanction = lockrank::sanctioned_io("the swap must cover the locked pages");
        if self.durable.is_some() {
            // Durable rewrites sync before publishing: once the manifest
            // references the new generation, its pages must be on disk,
            // not in a write-back cache a crash could lose.
            rw.file.sync().map_err(io_err)?;
        }
        let map = pager.commit_rewrite(rw)?;
        drop(sanction);
        for list in table.lists_mut() {
            list.remap_pages(&map)?;
        }
        if let Some(durable) = &self.durable {
            // The manifest rename is the durable commit point of the swap:
            // until it lands, the old generation (still on disk — the
            // rename targeted a new name) plus the old manifest stay
            // authoritative, so a crash at any step recovers to
            // entirely-old or entirely-new, never a mix.  The rewrite
            // folded in every applied insert, so this doubles as a full
            // checkpoint (WAL resets too).
            durable.commit_checkpoint(shard, pager, &mut table)?;
        }
        debug_assert!(charges_consistent(&table, pager));
        drop(table);
        // Only now is the old generation unreferenced (on a spill store the
        // rename was the commit point).  It is unlinked off the lock; if
        // that fails, the stray is swept by the next `open` (durable) or by
        // the pager's drop (spill).
        let _ = pager.backend.remove(&old_path);
        Ok(())
    }

    /// One access-driven retier pass over a shard: ranks every sealed slot
    /// by access recency, re-grants the shard's resident budget hottest
    /// first (a never-read slot keeps residency only while spare budget
    /// lasts, and is never *promoted*), then demotes the losers and
    /// promotes the winners.  Runs under the shard write lock with the
    /// number of tier moves capped per pass, so the lock hold stays
    /// bounded; the next pass continues where this one stopped.  Returns
    /// `(promoted, demoted)` — `(0, 0)` on a resident store, which has no
    /// tiers.
    pub fn retier_shard(&self, shard: usize) -> Result<(usize, usize), StoreError> {
        /// Tier moves (demotions + promotions) one pass may perform.
        const MAX_TIER_MOVES: usize = 32;
        let Some(pager) = self.pagers.get(shard) else {
            return Ok((0, 0));
        };
        let mut table = self.shard_write(shard);
        let mut candidates = Vec::new();
        for (list, l) in table.lists().iter().enumerate() {
            l.tier_candidates(list, &mut candidates);
        }
        // Heat decay: a stamp further than the decay window behind the
        // current access clock is treated as cold — the access clock is
        // otherwise a high-water mark, and a burst long ago would hold
        // residency forever against currently-warm slots.
        let now = pager.access_clock.load(Ordering::Relaxed);
        let window = pager.heat_decay_window;
        for c in &mut candidates {
            if window > 0 && c.heat > 0 && now.saturating_sub(c.heat) >= window {
                c.heat = 0;
                c.decayed = true;
            }
        }
        // Hottest first; equal heat prefers the current resident (no
        // churn between equally-warm slots), then slot order.
        candidates.sort_by(|a, b| {
            b.heat
                .cmp(&a.heat)
                .then_with(|| b.resident.cmp(&a.resident))
                .then_with(|| (a.list, a.slot).cmp(&(b.list, b.slot)))
        });
        let mut spare = pager.resident_budget;
        let desired: Vec<bool> = candidates
            .iter()
            .map(|c| {
                // A decayed slot relinquishes residency outright: unlike
                // a never-read resident (kept while spare budget lasts),
                // its stale burst no longer buys anything — the freed
                // budget goes to currently-warm slots or stays spare.
                let granted = (c.heat > 0 || (c.resident && !c.decayed)) && c.cost <= spare;
                if granted {
                    spare -= c.cost;
                }
                granted
            })
            .collect();
        let mut moves = 0usize;
        let mut demoted = 0usize;
        let mut promoted = 0usize;
        // Demotions first: they free the budget the promotions charge.
        for (c, &keep) in candidates.iter().zip(&desired) {
            if c.resident && !keep && moves < MAX_TIER_MOVES {
                table.lists_mut()[c.list].demote_slot(c.slot)?;
                demoted += 1;
                moves += 1;
            }
        }
        for (c, &keep) in candidates.iter().zip(&desired) {
            if !c.resident && keep && moves < MAX_TIER_MOVES {
                if table.lists_mut()[c.list].promote_slot(c.slot)? {
                    promoted += 1;
                }
                moves += 1;
            }
        }
        debug_assert!(charges_consistent(&table, pager));
        Ok((promoted, demoted))
    }

    /// Post-serving maintenance, called off the serving lock after every
    /// operation that touched `shard`: runs a due retier pass, page-file
    /// compaction and/or checkpoint.  Failures are swallowed — the old
    /// state keeps serving and the pass retries once its trigger re-arms.
    /// A resident store has no pager and nothing to maintain.
    pub(crate) fn tier_maintenance(&self, shard: usize) {
        let Some(pager) = self.pagers.get(shard) else {
            return;
        };
        if pager.take_retier_due() {
            let _ = self.retier_shard(shard);
        }
        if pager.compaction_due() {
            let _ = self.compact_shard(shard);
        }
        if let Some(durable) = &self.durable {
            if durable.checkpoint_due(shard) {
                let _ = self.checkpoint_shard(shard);
            }
        }
    }
}

/// What one [`SpillStore::wal_frames_after`] poll of a shard's WAL tail
/// yields: the frames past the subscriber's position, or the fact that a
/// checkpoint already discarded them.
#[derive(Debug)]
pub(crate) enum WalTail {
    /// Frames with `seq > from`, re-encoded in the WAL wire format, plus
    /// the shard's current head (last applied) sequence.
    Frames { frames: Vec<Vec<u8>>, head: u64 },
    /// The records past `from` were folded into a checkpoint and reset out
    /// of the WAL — the subscriber must re-snapshot.
    Gap { head: u64 },
}

/// Refuses to root a new store in a directory already holding page files.
fn refuse_occupied_root(dir: &Path) -> Result<(), StoreError> {
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let name = entry.map_err(io_err)?.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".pages") || name.ends_with(".pages.compact") {
            return Err(StoreError::Io(format!(
                "spill directory {} already holds page files ({name}); \
                 every store needs its own root",
                dir.display(),
            )));
        }
    }
    Ok(())
}

/// Reads a whole file through the IO backend.
fn read_all(backend: &dyn PageIo, path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut file = backend.open(path, false).map_err(io_err)?;
    let len = usize::try_from(file.len().map_err(io_err)?)
        .map_err(|_| StoreError::Io(format!("{} is too large to read", path.display())))?;
    let mut buf = vec![0u8; len];
    file.read_at(0, &mut buf).map_err(io_err)?;
    Ok(buf)
}

/// Open-time stray-scratch sweep: removes every file in a durable root that
/// the recovered state does not reference — compaction scratch
/// (`*.pages.compact`), superseded page-file generations, manifest/meta
/// temp files, and anything else an unclean shutdown left behind.  Failures
/// are ignored (a stray file is a hygiene matter, not a correctness one).
fn sweep_stray_files(backend: &dyn PageIo, dir: &Path, num_shards: usize, manifests: &[Manifest]) {
    let mut keep: Vec<PathBuf> = vec![dir.join(STORE_META_NAME)];
    for (shard, manifest) in manifests.iter().enumerate().take(num_shards) {
        let manifest_path = dir.join(format!("shard-{shard:03}.manifest"));
        keep.push(dir.join(format!("shard-{shard:03}.wal")));
        keep.push(manifest_prev_path(&manifest_path));
        keep.push(manifest_path);
        keep.push(dir.join(format!("shard-{shard:03}.g{}.pages", manifest.generation)));
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_file() && !keep.contains(&path) {
            let _ = backend.remove(&path);
        }
    }
}

/// The shard-local budget invariant (see
/// [`SpillStore::budget_accounting_is_exact`]), checkable while already
/// holding the shard lock.
fn charges_consistent(table: &ListTable<SpillList>, pager: &Pager) -> bool {
    table.lists().iter().all(SpillList::charges_exact)
        && table
            .lists()
            .iter()
            .map(SpillList::charged_bytes)
            .sum::<usize>()
            == pager.resident_charge.load(Ordering::Relaxed)
}

impl SpillStore {
    /// Adds what the pagers and the WAL meter to `metrics` (nothing on a
    /// resident store).  The shared page caches are shard state, not
    /// per-list state: they come on top of the per-list summaries, tails
    /// and resident segments already counted.
    pub(crate) fn add_paging_metrics(&self, metrics: &mut StoreMetrics) {
        metrics.resident_bytes += u64_of(self.page_cache_bytes());
        for p in &self.pagers {
            metrics.spilled_bytes += u64_of(p.spilled.load(Ordering::Relaxed));
            metrics.page_faults += p.faults.load(Ordering::Relaxed);
            metrics.page_evictions += p.evictions.load(Ordering::Relaxed);
            metrics.page_cache_hits += p.hits.load(Ordering::Relaxed);
            metrics.page_file_bytes += p.file_len.load(Ordering::Relaxed);
            metrics.dead_page_bytes += u64_of(p.dead_bytes());
            metrics.compactions += p.compactions.load(Ordering::Relaxed);
            metrics.promotions += p.promotions.load(Ordering::Relaxed);
            metrics.demotions += p.demotions.load(Ordering::Relaxed);
        }
        if let Some(d) = &self.durable {
            metrics.wal_appends = d.wal_appends.load(Ordering::Relaxed);
            metrics.wal_bytes = d.wal_bytes.load(Ordering::Relaxed);
            metrics.recovered_pages = d.recovered_pages.load(Ordering::Relaxed);
            metrics.truncated_wal_records = d.truncated_wal.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::VecList;
    use crate::store::RangedFetch;
    use crate::tests::{Rooted, TempRoot};
    use zerber_base::{EncryptedElement, MergePlan, MergedListId};
    use zerber_corpus::TermId;

    fn element(trs: f64, group: u32, ct: &[u8]) -> OrderedElement {
        OrderedElement {
            trs,
            group: GroupId(group),
            sealed: EncryptedElement {
                group: GroupId(group),
                ciphertext: ct.to_vec(),
            },
        }
    }

    fn sorted_elements(n: usize, seed: u8) -> Vec<OrderedElement> {
        (0..n)
            .map(|i| {
                element(
                    1.0 - i as f64 / n as f64,
                    (i % 3) as u32,
                    &[seed.wrapping_add(i as u8); 8],
                )
            })
            .collect()
    }

    fn index(lists: Vec<Vec<OrderedElement>>) -> OrderedIndex {
        let plan = MergePlan::from_term_lists(
            (0..lists.len()).map(|i| vec![TermId(i as u32)]).collect(),
            "spill-fixture",
            2.0,
        );
        OrderedIndex::from_parts(lists, plan)
    }

    fn small_segment_config() -> SegmentConfig {
        SegmentConfig {
            block_len: 4,
            tail_threshold: 3,
            max_segment_elems: 16,
            max_segments: 3,
            max_payload_bytes: u32::MAX as usize,
        }
    }

    fn store_with(lists: Vec<Vec<OrderedElement>>, shards: usize, config: SpillConfig) -> Rooted {
        Rooted::new("spill", |dir| {
            let segment = small_segment_config();
            SpillStore::with_configs(index(lists), shards, dir, config, segment).unwrap()
        })
    }

    /// The `*.pages` and `*.pages.compact` files in `dir`, sorted.
    fn page_files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".pages") || name.ends_with(".pages.compact"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn spill_engine_matches_the_vec_layout_through_inserts_and_cursors() {
        let elements = sorted_elements(30, 0);
        let store = store_with(
            vec![elements.clone()],
            1,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 2,
                ..SpillConfig::default().without_tiering()
            },
        );
        let mut reference = VecList::from_elements(elements);
        let list = MergedListId(0);
        assert_eq!(
            store.snapshot_list(list).unwrap(),
            reference.snapshot().unwrap()
        );
        // Interleave inserts across the whole TRS range with fetches.
        for (i, trs) in [0.95, 0.5, 0.005, 0.5, 0.31, 0.0].into_iter().enumerate() {
            let e = element(trs, (i % 3) as u32, &[0xAB; 8]);
            assert_eq!(
                store.insert(list, e.clone()).unwrap(),
                reference.insert(e).unwrap(),
                "probe {trs}"
            );
            let groups = [GroupId(0), GroupId(2)];
            for offset in [0usize, 5, 17] {
                let fetch = RangedFetch {
                    list,
                    offset,
                    count: 4,
                };
                let got = store.fetch_ranged(&fetch, Some(&groups)).unwrap();
                let filter = GroupFilter::normalise(Some(&groups));
                let (expected, _) = reference.scan(0, offset, 4, &filter).unwrap();
                assert_eq!(got.elements, expected);
            }
        }
        assert_eq!(
            store.snapshot_list(list).unwrap(),
            reference.snapshot().unwrap()
        );
        assert!(store.verify_ordering());
        // A cursor walk over the spilled list equals the reference order.
        let head = store
            .fetch_ranged(
                &RangedFetch {
                    list,
                    offset: 0,
                    count: 3,
                },
                None,
            )
            .unwrap();
        let cursor = store.open_cursor(list, 5, &head, 3, None).unwrap();
        let mut walked = head.elements.clone();
        loop {
            let batch = store.cursor_fetch(cursor, 5, 3, None).unwrap();
            walked.extend(batch.elements.iter().cloned());
            if batch.exhausted {
                break;
            }
        }
        assert_eq!(walked, reference.snapshot().unwrap());
    }

    #[test]
    fn budgeted_heads_stay_resident_and_cold_depths_spill() {
        // Two segments per list (32 elems / max 16): with a budget covering
        // roughly one segment per list, the hot head stays resident and the
        // cold depth spills.
        let store = store_with(
            vec![sorted_elements(32, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: 600,
                page_cache_pages: 4,
                ..SpillConfig::default().without_tiering()
            },
        );
        assert!(
            store.metrics().spilled_bytes > 0,
            "cold segments must spill"
        );
        let faults_before = store.metrics().page_faults;
        // A top-of-list read is served from the resident head: no faults.
        store
            .fetch_ranged(
                &RangedFetch {
                    list: MergedListId(0),
                    offset: 0,
                    count: 4,
                },
                None,
            )
            .unwrap();
        assert_eq!(store.metrics().page_faults, faults_before);
        // A deep read faults the cold page in.
        store
            .fetch_ranged(
                &RangedFetch {
                    list: MergedListId(0),
                    offset: 28,
                    count: 4,
                },
                None,
            )
            .unwrap();
        assert!(store.metrics().page_faults > faults_before);

        // And with an unbounded budget nothing spills at all.
        let all_hot = store_with(
            vec![sorted_elements(32, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: usize::MAX,
                page_cache_pages: 4,
                ..SpillConfig::default().without_tiering()
            },
        );
        assert_eq!(all_hot.metrics().spilled_bytes, 0);
        all_hot.snapshot_list(MergedListId(0)).unwrap();
        assert_eq!(all_hot.metrics().page_faults, 0);
    }

    #[test]
    fn corrupt_pages_error_per_request_and_spare_the_rest_of_the_shard() {
        // No page cache: every cold read goes to the (corruptible) disk.
        let store = store_with(
            vec![sorted_elements(12, 0), sorted_elements(12, 100)],
            1,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        let paths = store.page_file_paths();
        assert_eq!(paths.len(), 1);
        let reference = store.snapshot_list(MergedListId(1)).unwrap();

        // Flip bytes inside list 0's page (written first, at offset 0).
        let mut bytes = fs::read(&paths[0]).unwrap();
        for b in bytes.iter_mut().take(24) {
            *b ^= 0x5A;
        }
        fs::write(&paths[0], &bytes).unwrap();
        let fetch = |l: u64| RangedFetch {
            list: MergedListId(l),
            offset: 0,
            count: 12,
        };
        // The corrupt page surfaces as a StoreError for list 0 alone...
        assert!(matches!(
            store.fetch_ranged(&fetch(0), None),
            Err(StoreError::CorruptSegment(_) | StoreError::Io(_))
        ));
        // ...while the same shard keeps serving its other list, summaries
        // included, and accepts writes.
        let batch = store.fetch_ranged(&fetch(1), None).unwrap();
        assert_eq!(batch.elements, reference);
        assert_eq!(
            store
                .visible_len(MergedListId(0), Some(&[GroupId(0)]))
                .unwrap(),
            4,
            "summaries answer without touching the corrupt page"
        );
        store
            .insert(MergedListId(1), element(0.0001, 0, &[1, 2, 3]))
            .unwrap();
        // The write left the isolation as it was.
        assert!(store.fetch_ranged(&fetch(0), None).is_err());
        assert!(store.fetch_ranged(&fetch(1), None).is_ok());

        // Truncation (a torn write) is surfaced too, as an I/O or
        // validation error, never a panic.
        fs::write(&paths[0], &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.fetch_ranged(&fetch(1), None).is_err());
        assert!(store.fetch_ranged(&fetch(0), None).is_err());
    }

    #[test]
    fn interior_inserts_keep_the_hot_head_resident_under_a_tight_budget() {
        // Probe the fully-resident charge, then rebuild the store with that
        // budget plus a sliver of headroom: everything fits, but there is
        // far less spare room than one whole segment.  An interior insert
        // must re-use the charge of the slot it rebuilds instead of
        // competing for fresh budget — otherwise the hot head would be
        // demoted to disk by its own rebuild.
        let probe = store_with(
            vec![sorted_elements(32, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: usize::MAX,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        let charge = probe.resident_charge_bytes();
        assert!(charge > 0);
        drop(probe);
        let store = store_with(
            vec![sorted_elements(32, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: charge + 256,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        assert_eq!(
            store.metrics().spilled_bytes,
            0,
            "everything starts resident"
        );
        // An interior insert near the top of the list rebuilds the head
        // segment in place.
        store
            .insert(MergedListId(0), element(0.99, 0, &[7u8; 8]))
            .unwrap();
        assert_eq!(
            store.metrics().spilled_bytes,
            0,
            "the rebuilt head segment must stay resident"
        );
        let faults = store.metrics().page_faults;
        store
            .fetch_ranged(
                &RangedFetch {
                    list: MergedListId(0),
                    offset: 0,
                    count: 4,
                },
                None,
            )
            .unwrap();
        assert_eq!(
            store.metrics().page_faults,
            faults,
            "head reads stay fault-free"
        );
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_preserves_answers() {
        let store = store_with(
            vec![sorted_elements(32, 0), sorted_elements(32, 50)],
            1,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 2,
                ..SpillConfig::default().without_tiering()
            },
        );
        // Interior inserts rebuild spilled segments, stranding their old
        // pages as dead bytes in the append-only file.
        for i in 0..6u64 {
            let trs = 0.4 + 0.05 * i as f64;
            store
                .insert(MergedListId(i % 2), element(trs, 0, &[9u8; 8]))
                .unwrap();
        }
        assert!(
            store.metrics().dead_page_bytes > 0,
            "rebuilds must strand bytes"
        );
        assert!(store.metrics().page_file_bytes > store.metrics().spilled_bytes);
        let reference: Vec<_> = (0..2u64)
            .map(|l| store.snapshot_list(MergedListId(l)).unwrap())
            .collect();
        assert!(store.compact_shard(0).unwrap());
        assert_eq!(store.metrics().compactions, 1);
        assert_eq!(
            store.metrics().dead_page_bytes,
            0,
            "compaction reclaims all dead"
        );
        assert_eq!(
            store.metrics().page_file_bytes,
            store.metrics().spilled_bytes
        );
        for (l, want) in reference.iter().enumerate() {
            assert_eq!(
                &store.snapshot_list(MergedListId(l as u64)).unwrap(),
                want,
                "list {l} must read identically from the compacted file"
            );
        }
        assert!(store.budget_accounting_is_exact());
        // The swap committed to the next generation and unlinked the old
        // one: the root holds exactly one page file and no rewrite scratch.
        let current = store.page_file_paths()[0].clone();
        assert_eq!(
            page_files_in(current.parent().unwrap()),
            ["shard-000.g1.pages"]
        );
        assert!(current.ends_with("shard-000.g1.pages"));
    }

    #[test]
    fn a_promoted_slot_keeps_its_page_so_its_demotion_writes_nothing() {
        let store = store_with(
            vec![sorted_elements(32, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: usize::MAX,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        assert_eq!(
            store.metrics().page_file_bytes,
            0,
            "everything starts resident"
        );
        let reference = store.snapshot_list(MergedListId(0)).unwrap();
        let tier = |demote: bool| {
            let mut table = store.shard_write(0);
            let list = &mut table.lists_mut()[0];
            if demote {
                list.demote_slot(0).unwrap();
            } else {
                assert!(list.promote_slot(0).unwrap());
            }
        };
        // The first demotion writes the slot's page...
        tier(true);
        let written = store.metrics();
        assert!(written.page_file_bytes > 0);
        // ...which a promotion keeps, so the next demotion writes nothing
        // and strands no dead bytes.
        tier(false);
        tier(true);
        let after = store.metrics();
        assert_eq!((after.promotions, after.demotions), (1, 2));
        assert_eq!(after.page_file_bytes, written.page_file_bytes);
        assert_eq!(after.spilled_bytes, written.spilled_bytes);
        assert_eq!(after.dead_page_bytes, 0);
        assert_eq!(store.snapshot_list(MergedListId(0)).unwrap(), reference);
        assert!(store.budget_accounting_is_exact());
    }

    #[test]
    fn dropping_a_spill_store_sweeps_an_old_generation_its_compaction_stranded() {
        let root = TempRoot::new("spill-stray-generation");
        let dir = root.join("spill");
        let store = SpillStore::with_configs(
            index(vec![sorted_elements(32, 0)]),
            1,
            &dir,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 2,
                ..SpillConfig::default().without_tiering()
            },
            small_segment_config(),
        )
        .unwrap();
        for i in 0..3u64 {
            let trs = 0.4 + 0.05 * i as f64;
            store
                .insert(MergedListId(0), element(trs, 0, &[9u8; 8]))
                .unwrap();
        }
        assert!(store.compact_shard(0).unwrap());
        assert_eq!(page_files_in(&dir), ["shard-000.g1.pages"]);
        // Stand-in for a failed unlink of the superseded generation: the
        // pager's drop removes it too, so the root is left empty and goes.
        fs::write(dir.join("shard-000.g0.pages"), b"stale").unwrap();
        drop(store);
        assert!(!dir.exists(), "a spill store leaves nothing behind");
    }

    #[test]
    fn aggressive_tiering_compacts_automatically_during_serving() {
        let store = store_with(
            vec![sorted_elements(32, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 2,
                compact_dead_percent: 1,
                compact_min_dead_bytes: 1,
                retier_interval: 0,
                heat_decay_window: 0,
            },
        );
        for i in 0..8u64 {
            store
                .insert(
                    MergedListId(0),
                    element(0.3 + 0.05 * i as f64, 0, &[3u8; 8]),
                )
                .unwrap();
        }
        assert!(
            store.metrics().compactions > 0,
            "the maintenance hook must trigger compaction on its own"
        );
        assert_eq!(store.metrics().dead_page_bytes, 0);
        assert!(store.verify_ordering());
    }

    #[test]
    fn torn_down_rewrite_leaves_the_old_file_serving_and_no_stray_file() {
        let store = store_with(
            vec![sorted_elements(24, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        store
            .insert(MergedListId(0), element(0.5, 0, &[7u8; 8]))
            .unwrap();
        assert!(store.metrics().dead_page_bytes > 0);
        let reference = store.snapshot_list(MergedListId(0)).unwrap();
        // Tear the compaction down mid-rewrite: live pages copied, swap
        // never reached.
        let rw = store.start_compaction(0).unwrap();
        let fresh = rw.path.clone();
        assert!(fresh.exists());
        assert!(rw.append > 0);
        drop(rw);
        assert!(!fresh.exists(), "an aborted rewrite removes its fresh file");
        assert_eq!(store.snapshot_list(MergedListId(0)).unwrap(), reference);
        // A later, uninterrupted pass still reclaims the dead bytes.
        assert!(store.compact_shard(0).unwrap());
        assert_eq!(store.metrics().dead_page_bytes, 0);
        assert_eq!(store.snapshot_list(MergedListId(0)).unwrap(), reference);
    }

    #[test]
    fn bit_flipped_rewrites_are_rejected_before_the_swap() {
        let store = store_with(
            vec![sorted_elements(24, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        store
            .insert(MergedListId(0), element(0.5, 0, &[7u8; 8]))
            .unwrap();
        let reference = store.snapshot_list(MergedListId(0)).unwrap();
        let rw = store.start_compaction(0).unwrap();
        // Flip a header byte of the first copied page before the swap.
        {
            use std::io::{Read, Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&rw.path)
                .unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(0)).unwrap();
            f.write_all(&[b[0] ^ 0x5A]).unwrap();
        }
        let fresh = rw.path.clone();
        assert!(matches!(
            store.finish_compaction(0, rw),
            Err(StoreError::CorruptSegment(_) | StoreError::Io(_))
        ));
        assert!(!fresh.exists(), "a rejected rewrite removes its fresh file");
        assert_eq!(
            store.snapshot_list(MergedListId(0)).unwrap(),
            reference,
            "the old file keeps serving after a rejected swap"
        );
        // The corruption was confined to the discarded fresh file: a clean
        // retry compacts successfully.
        assert!(store.compact_shard(0).unwrap());
        assert_eq!(store.metrics().dead_page_bytes, 0);
        assert_eq!(store.snapshot_list(MergedListId(0)).unwrap(), reference);
    }

    #[test]
    fn retier_promotes_hot_cold_lists_and_demotes_cold_resident_ones() {
        // Probe the fully-resident charge of one list, then give the shard
        // a budget that covers roughly one list: build order hands it to
        // list 0, while all the traffic goes to list 1.
        let probe = store_with(
            vec![sorted_elements(32, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: usize::MAX,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        let charge = probe.resident_charge_bytes();
        drop(probe);
        let store = store_with(
            vec![sorted_elements(32, 0), sorted_elements(32, 80)],
            1,
            SpillConfig {
                resident_budget_bytes: charge + 64,
                page_cache_pages: 0,
                ..SpillConfig::default().without_tiering()
            },
        );
        assert!(store.metrics().spilled_bytes > 0, "list 1 must start cold");
        let hot = |offset| RangedFetch {
            list: MergedListId(1),
            offset,
            count: 4,
        };
        for _ in 0..4 {
            for offset in [0usize, 12, 24] {
                store.fetch_ranged(&hot(offset), None).unwrap();
            }
        }
        let (promoted, demoted) = store.retier_shard(0).unwrap();
        assert!(promoted > 0, "touched cold slots must promote");
        assert!(demoted > 0, "never-read resident slots must yield budget");
        assert_eq!(store.metrics().promotions, promoted as u64);
        assert_eq!(store.metrics().demotions, demoted as u64);
        assert!(store.budget_accounting_is_exact());
        // The hot list now serves without faulting (no cache configured, so
        // fault-free means resident).
        let faults = store.metrics().page_faults;
        for offset in [0usize, 12, 24] {
            store.fetch_ranged(&hot(offset), None).unwrap();
        }
        assert_eq!(
            store.metrics().page_faults,
            faults,
            "promoted slots serve hot"
        );
        // With unchanged traffic a second pass moves nothing: no ping-pong,
        // and an untouched spilled slot is never promoted.
        assert_eq!(store.retier_shard(0).unwrap(), (0, 0));
        assert!(store.verify_ordering());
    }

    #[test]
    fn resident_budget_charges_stay_exact_through_every_path() {
        let store = store_with(
            vec![sorted_elements(32, 0), sorted_elements(20, 40)],
            2,
            SpillConfig {
                resident_budget_bytes: 2048,
                page_cache_pages: 2,
                compact_dead_percent: 1,
                compact_min_dead_bytes: 1,
                retier_interval: 4,
                heat_decay_window: 0,
            },
        );
        assert!(store.budget_accounting_is_exact());
        for i in 0..24u64 {
            let trs = (i as f64 * 0.37) % 1.0;
            store
                .insert(
                    MergedListId(i % 2),
                    element(trs, (i % 3) as u32, &[i as u8; 8]),
                )
                .unwrap();
            assert!(store.budget_accounting_is_exact(), "after insert {i}");
        }
        for offset in [0usize, 8, 16] {
            store
                .fetch_ranged(
                    &RangedFetch {
                        list: MergedListId(0),
                        offset,
                        count: 4,
                    },
                    None,
                )
                .unwrap();
        }
        for shard in 0..2 {
            store.retier_shard(shard).unwrap();
            store.compact_shard(shard).unwrap();
        }
        assert!(store.budget_accounting_is_exact());
        assert!(store.verify_ordering());
    }

    #[test]
    fn page_cache_hits_are_counted() {
        let store = store_with(
            vec![sorted_elements(16, 0)],
            1,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 2,
                ..SpillConfig::default().without_tiering()
            },
        );
        assert_eq!(store.metrics().page_cache_hits, 0);
        let fetch = RangedFetch {
            list: MergedListId(0),
            offset: 0,
            count: 4,
        };
        store.fetch_ranged(&fetch, None).unwrap();
        let faults = store.metrics().page_faults;
        assert!(faults > 0);
        store.fetch_ranged(&fetch, None).unwrap();
        assert_eq!(
            store.metrics().page_faults,
            faults,
            "the warm read hits the cache"
        );
        assert!(store.metrics().page_cache_hits >= 1);
    }

    #[test]
    fn explicit_spill_roots_are_cleaned_up_too() {
        let root = TempRoot::new("explicit-spill");
        let dir = root.join("spill");
        let store = SpillStore::with_configs(
            index(vec![sorted_elements(8, 0)]),
            2,
            &dir,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 1,
                ..SpillConfig::default().without_tiering()
            },
            SegmentConfig::default(),
        )
        .unwrap();
        assert!(dir.exists());
        assert_eq!(store.page_file_paths().len(), 2);
        drop(store);
        assert!(
            !dir.exists(),
            "spill root {} must be removed",
            dir.display()
        );
    }

    fn durable_store_at(
        dir: &Path,
        lists: Vec<Vec<OrderedElement>>,
        shards: usize,
        config: SpillConfig,
        durable: DurableConfig,
    ) -> SpillStore {
        SpillStore::create_durable_with(
            index(lists),
            dir,
            shards,
            config,
            small_segment_config(),
            durable,
            RealIo::shared(),
        )
        .unwrap()
    }

    fn snapshot_all(store: &SpillStore) -> Vec<Vec<OrderedElement>> {
        (0..store.num_lists() as u64)
            .map(|l| store.snapshot_list(MergedListId(l)).unwrap())
            .collect()
    }

    #[test]
    fn durable_store_round_trips_through_drop_and_open() {
        let dir = TempRoot::new("durable-round-trip");
        let spill_config = SpillConfig {
            resident_budget_bytes: 0,
            page_cache_pages: 2,
            ..SpillConfig::default().without_tiering()
        };
        let store = durable_store_at(
            &dir,
            vec![sorted_elements(24, 0), sorted_elements(16, 90)],
            2,
            spill_config,
            DurableConfig::default(),
        );
        assert!(store.is_durable());
        for (i, trs) in [0.95, 0.41, 0.03].into_iter().enumerate() {
            store
                .insert(MergedListId((i % 2) as u64), element(trs, 1, &[9u8; 8]))
                .unwrap();
        }
        assert!(store.metrics().wal_appends >= 3);
        assert!(store.metrics().wal_bytes > 0);
        let want = snapshot_all(&store);
        let pages = store.page_file_paths();
        drop(store);
        for page in &pages {
            assert!(
                page.exists(),
                "durable page {} survives drop",
                page.display()
            );
        }
        let reopened = SpillStore::open(&dir, spill_config, DurableConfig::default()).unwrap();
        assert_eq!(snapshot_all(&reopened), want);
        assert!(
            reopened.metrics().recovered_pages > 0,
            "checkpoint pages re-read"
        );
        assert_eq!(reopened.metrics().truncated_wal_records, 0);
        assert!(reopened.budget_accounting_is_exact());
        assert!(reopened.verify_ordering());
        // A second generation of inserts keeps round-tripping.
        reopened
            .insert(MergedListId(1), element(0.77, 2, &[4u8; 8]))
            .unwrap();
        let want = snapshot_all(&reopened);
        drop(reopened);
        let again = SpillStore::open(&dir, spill_config, DurableConfig::default()).unwrap();
        assert_eq!(snapshot_all(&again), want);
    }

    #[test]
    fn creating_over_an_existing_durable_store_is_refused() {
        let dir = TempRoot::new("durable-recreate");
        let config = SpillConfig::default().without_tiering();
        let store = durable_store_at(
            &dir,
            vec![sorted_elements(8, 0)],
            1,
            config,
            DurableConfig::default(),
        );
        drop(store);
        assert!(matches!(
            SpillStore::create_durable(
                index(vec![sorted_elements(8, 0)]),
                &dir,
                1,
                config,
                DurableConfig::default(),
            ),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn open_sweeps_stray_scratch_files_left_by_an_unclean_drop() {
        let dir = TempRoot::new("durable-sweep");
        let spill_config = SpillConfig {
            resident_budget_bytes: 0,
            page_cache_pages: 1,
            ..SpillConfig::default().without_tiering()
        };
        let store = durable_store_at(
            &dir,
            vec![sorted_elements(16, 0)],
            1,
            spill_config,
            DurableConfig::default(),
        );
        let want = snapshot_all(&store);
        drop(store);
        // Plant the scratch an unclean shutdown could leave behind: a
        // half-written compaction rewrite, a manifest temp file and a page
        // file from a superseded generation.
        let strays = [
            dir.join("shard-000.g1.pages.compact"),
            dir.join("shard-000.manifest.tmp"),
            dir.join("shard-000.g9.pages"),
        ];
        for stray in &strays {
            fs::write(stray, b"scratch").unwrap();
        }
        let reopened = SpillStore::open(&dir, spill_config, DurableConfig::default()).unwrap();
        for stray in &strays {
            assert!(!stray.exists(), "stray {} must be swept", stray.display());
        }
        assert_eq!(snapshot_all(&reopened), want);
    }

    #[test]
    fn heat_decay_demotes_an_old_burst_in_favour_of_current_traffic() {
        let build = || vec![sorted_elements(32, 0), sorted_elements(32, 80)];
        let fetch = |l: u64, offset: usize| RangedFetch {
            list: MergedListId(l),
            offset,
            count: 4,
        };
        // Both lists fit the budget; manual retier passes only.
        let config = |window: u64| SpillConfig {
            resident_budget_bytes: usize::MAX,
            page_cache_pages: 0,
            heat_decay_window: window,
            ..SpillConfig::default().without_tiering()
        };
        let run = |window: u64| {
            let store = store_with(build(), 1, config(window));
            assert_eq!(
                store.metrics().spilled_bytes,
                0,
                "everything starts resident"
            );
            // An old burst on list 0...
            for offset in [0usize, 12, 24] {
                store.fetch_ranged(&fetch(0, offset), None).unwrap();
            }
            // ...then sustained traffic on list 1 only, pushing the access
            // clock well past the burst.
            for _ in 0..16 {
                for offset in [0usize, 12, 24] {
                    store.fetch_ranged(&fetch(1, offset), None).unwrap();
                }
            }
            let moves = store.retier_shard(0).unwrap();
            assert!(store.budget_accounting_is_exact());
            assert!(store.verify_ordering());
            (store, moves)
        };
        // Decay on: the burst decayed, list 0 loses residency to disk even
        // though the budget could hold it — its heat no longer buys
        // anything.  List 1, currently hot, stays resident and fault-free.
        let (store, (promoted, demoted)) = run(4);
        assert_eq!(promoted, 0);
        assert!(demoted > 0, "the old burst must cool and demote");
        assert!(store.metrics().spilled_bytes > 0);
        let faults = store.metrics().page_faults;
        for offset in [0usize, 12, 24] {
            store.fetch_ranged(&fetch(1, offset), None).unwrap();
        }
        assert_eq!(
            store.metrics().page_faults,
            faults,
            "current traffic stays hot"
        );
        store.fetch_ranged(&fetch(0, 12), None).unwrap();
        assert!(
            store.metrics().page_faults > faults,
            "the demoted burst faults"
        );
        // Control: decay off (window 0), identical traffic — the burst's
        // high-water stamp holds residency forever.
        let (_store, moves) = run(0);
        assert_eq!(moves, (0, 0), "without decay the old burst keeps its seat");
    }
}
