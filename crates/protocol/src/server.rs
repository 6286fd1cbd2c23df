//! The untrusted index server.
//!
//! The server hosts the ordered confidential index behind a pluggable
//! [`ListStore`] storage engine, authenticates users, enforces group-level
//! access control and answers ranged top-k requests by TRS order
//! (Section 5.2).  It never holds decryption keys.  All traffic is metered so
//! the bandwidth experiments can read exact byte counts.
//!
//! Serving architecture (this layer, on top of the storage engine):
//!
//! * **Sharded storage** — the default engine is a
//!   [`ShardedStore`](zerber_store::ShardedStore): merged lists partitioned
//!   across per-`RwLock` shards, so queries on different lists never contend
//!   and an insert write-locks a single shard.  Traffic counters are
//!   lock-free atomics.
//! * **Cursor sessions** — the first ranged request of a query opens a
//!   per-list cursor (a physical position in TRS order).  Follow-up requests
//!   (Section 5.2's doubling protocol) resume from the cursor instead of
//!   re-scanning the list from the top; the server closes the session when
//!   the list is exhausted.  Evicted or foreign cursors fall back to the
//!   stateless offset scan, so the responses are element-for-element
//!   identical either way.
//! * **Batched multi-term queries** — [`IndexServer::handle_query_batch`]
//!   authenticates once and serves all sub-requests through
//!   [`ListStore::fetch_ranged_many`], which visits each shard exactly once.
//! * **Cross-user batched scheduler** — [`IndexServer::handle_query_stream`]
//!   serves a whole round of requests from *different* users: each distinct
//!   user authenticates once per round, all fetches are bucketed by shard,
//!   and every shard bucket executes under a single lock acquisition
//!   (`ListStore::execute_shard_batch`).  `ServerStats` meters `batches`,
//!   `lock_acquisitions` and `auth_checks` so the amortization is visible.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use zerber_base::MergedListId;
use zerber_corpus::GroupId;
use zerber_r::{OrderedElement, OrderedIndex};
use zerber_store::{
    CursorId, DurableConfig, ListStore, RangedBatch, RangedFetch, SegmentStore, ShardedStore,
    SingleMutexStore, SpillConfig, SpillStore, StoreError, StoreJob,
};

use crate::acl::{AccessControl, AuthToken};
use crate::error::ProtocolError;
use crate::message::{QueryRequest, QueryResponse, WireElement, ELEMENT_HEADER_BYTES};
use crate::pool::{RoundStats, ShardWorkerPool};

/// Cumulative traffic and request counters (a point-in-time snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Number of query requests served (including follow-ups).
    pub requests_served: u64,
    /// Number of posting elements shipped to clients.
    pub elements_sent: u64,
    /// Bytes received from clients (requests + inserts).
    pub bytes_in: u64,
    /// Bytes sent to clients (responses).
    pub bytes_out: u64,
    /// Number of insert operations accepted.
    pub inserts_accepted: u64,
    /// Batch rounds served ([`IndexServer::handle_query_batch`] and
    /// [`IndexServer::handle_query_stream`] calls).
    pub batches: u64,
    /// Shard-lock acquisitions the storage engine performed on the serving
    /// paths (fetches, cursor operations, inserts and batch rounds); audit
    /// accessors are not metered.  This is what batching amortizes: a
    /// cross-user round takes one acquisition per touched shard instead of
    /// one per request.
    pub lock_acquisitions: u64,
    /// Token verifications the ACL performed: a directory lookup plus one
    /// constant-time compare against the user's stored token each (the HMAC
    /// behind that token is computed when the user is registered, not per
    /// check).  The batched scheduler authenticates each distinct user once
    /// per round, so this grows by at most #distinct-users per batch instead
    /// of per request.
    pub auth_checks: u64,
    /// Pages the storage engine read back (and re-validated) from disk —
    /// non-zero only for the spill engine, where it measures how often the
    /// working set missed the resident budget and page cache.
    pub page_faults: u64,
    /// Pages the storage engine's page cache evicted.
    pub page_evictions: u64,
    /// Page reads the storage engine's page cache absorbed (no disk read).
    /// `page_cache_hits / (page_cache_hits + page_faults)` is the cache hit
    /// rate over this stats window.
    pub page_cache_hits: u64,
    /// Page-file compaction passes the storage engine completed: each one
    /// rewrote a shard's live pages into a fresh file and reclaimed the dead
    /// bytes stranded by rebuilds.
    pub compactions: u64,
    /// Spilled segments the storage engine promoted back into the resident
    /// tier because recent accesses earned them budget.
    pub promotions: u64,
    /// Resident segments the storage engine demoted to the page file because
    /// hotter segments claimed their budget.
    pub demotions: u64,
    /// Write-ahead-log records the durable engine appended for accepted
    /// inserts (0 for non-durable engines).
    pub wal_appends: u64,
    /// Write-ahead-log bytes the durable engine appended.
    pub wal_bytes: u64,
    /// Checkpoint pages the durable engine read back, re-validated and
    /// adopted when the store was recovered from disk.
    pub recovered_pages: u64,
    /// Torn or corrupt WAL tail records recovery discarded (the log was
    /// truncated at the last valid record and the store kept serving).
    pub truncated_wal_records: u64,
    /// Batch rounds executed on the shard worker pool (0 when the server
    /// runs the sequential in-thread scheduler).
    pub worker_rounds: u64,
    /// Pool buckets executed by a worker other than their home worker — how
    /// often work-stealing rebalanced a skewed round.
    pub stolen_buckets: u64,
    /// Jobs routed into executable buckets across all pool rounds (the
    /// numerator of [`ServerStats::mean_bucket_occupancy`]).
    pub round_jobs: u64,
    /// Buckets produced across all pool rounds (the denominator of
    /// [`ServerStats::mean_bucket_occupancy`]).
    pub round_buckets: u64,
    /// Largest bucket any pool round produced: how skewed the worst round
    /// was relative to the mean occupancy.
    pub max_bucket_jobs: u64,
    /// Replication frames the store received and applied (non-zero only
    /// when the server fronts a replica).
    pub frames_streamed: u64,
    /// Replication frames the replica's idempotent apply skipped as already
    /// applied — duplicates and post-reconnect retransmissions.
    pub frames_skipped: u64,
    /// Full snapshot re-bootstraps the replica performed because the WAL
    /// tail it needed was checkpointed away on the primary.
    pub resnapshots: u64,
    /// Transport reconnects the replica's catch-up loop performed (each one
    /// resumed from the last applied sequence after a backoff delay).
    pub reconnects: u64,
    /// Current replication lag in sequence numbers — the largest per-shard
    /// gap between the primary's last known head and the replica's applied
    /// sequence.  A gauge (point-in-time), not a delta-windowed counter.
    pub replica_lag: u64,
    /// Elements the storage engine individually examined for visibility
    /// accounting — the r-confidentiality filter work the scan-cost
    /// assertions bound (cached cursor follow-ups leave it untouched).
    pub visibility_scan_cost: u64,
    /// Estimated bytes of the engine's in-memory physical representation.
    /// A gauge (point-in-time), like the other byte footprints below.
    pub resident_bytes: u64,
    /// Bytes of index state spilled to secondary storage (0 for the
    /// in-memory engines).  A gauge.
    pub spilled_bytes: u64,
    /// Physical length of the on-disk page files backing the spilled state;
    /// exceeds [`ServerStats::spilled_bytes`] by the dead bytes interior
    /// rebuilds strand in the append-only files.  A gauge.
    pub page_file_bytes: u64,
    /// Dead (stranded) page-file bytes awaiting compaction.  A gauge.
    pub dead_page_bytes: u64,
}

impl ServerStats {
    /// Mean jobs per pool bucket across all worker rounds (0 when the pool
    /// never ran).  Together with [`ServerStats::max_bucket_jobs`] this
    /// describes round skew: a mean far below the max means most buckets
    /// were small while one shard soaked up the round.
    pub fn mean_bucket_occupancy(&self) -> f64 {
        if self.round_buckets == 0 {
            0.0
        } else {
            self.round_jobs as f64 / self.round_buckets as f64
        }
    }
}

/// Lock-free counters behind [`ServerStats`]: every worker thread bumps them
/// without serializing on a stats mutex.
#[derive(Debug, Default)]
struct AtomicStats {
    requests_served: AtomicU64,
    elements_sent: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    inserts_accepted: AtomicU64,
    batches: AtomicU64,
    auth_checks: AtomicU64,
    worker_rounds: AtomicU64,
    stolen_buckets: AtomicU64,
    round_jobs: AtomicU64,
    round_buckets: AtomicU64,
    max_bucket_jobs: AtomicU64,
    /// The store's lock meter at the last [`AtomicStats::reset`]; snapshots
    /// report the delta so `reset_stats` zeroes the whole struct.
    lock_baseline: AtomicU64,
    /// The store's page-fault meter at the last reset.
    fault_baseline: AtomicU64,
    /// The store's page-eviction meter at the last reset.
    eviction_baseline: AtomicU64,
    /// The store's page-cache-hit meter at the last reset.
    hit_baseline: AtomicU64,
    /// The store's compaction meter at the last reset.
    compaction_baseline: AtomicU64,
    /// The store's promotion meter at the last reset.
    promotion_baseline: AtomicU64,
    /// The store's demotion meter at the last reset.
    demotion_baseline: AtomicU64,
    /// The store's WAL-append meter at the last reset.
    wal_append_baseline: AtomicU64,
    /// The store's WAL-byte meter at the last reset.
    wal_byte_baseline: AtomicU64,
    /// The store's recovered-page meter at the last reset.
    recovered_page_baseline: AtomicU64,
    /// The store's truncated-WAL-record meter at the last reset.
    truncated_wal_baseline: AtomicU64,
    /// The store's streamed-frame meter at the last reset.
    frames_streamed_baseline: AtomicU64,
    /// The store's skipped-frame meter at the last reset.
    frames_skipped_baseline: AtomicU64,
    /// The store's re-snapshot meter at the last reset.
    resnapshot_baseline: AtomicU64,
    /// The store's reconnect meter at the last reset.
    reconnect_baseline: AtomicU64,
    /// The store's visibility-scan meter at the last reset.
    visibility_scan_baseline: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self, store: &dyn ListStore) -> ServerStats {
        ServerStats {
            requests_served: self.requests_served.load(Ordering::Relaxed),
            elements_sent: self.elements_sent.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            inserts_accepted: self.inserts_accepted.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            lock_acquisitions: store
                .lock_acquisitions()
                .saturating_sub(self.lock_baseline.load(Ordering::Relaxed)),
            auth_checks: self.auth_checks.load(Ordering::Relaxed),
            page_faults: store
                .page_faults()
                .saturating_sub(self.fault_baseline.load(Ordering::Relaxed)),
            page_evictions: store
                .page_evictions()
                .saturating_sub(self.eviction_baseline.load(Ordering::Relaxed)),
            page_cache_hits: store
                .page_cache_hits()
                .saturating_sub(self.hit_baseline.load(Ordering::Relaxed)),
            compactions: store
                .compactions()
                .saturating_sub(self.compaction_baseline.load(Ordering::Relaxed)),
            promotions: store
                .promotions()
                .saturating_sub(self.promotion_baseline.load(Ordering::Relaxed)),
            demotions: store
                .demotions()
                .saturating_sub(self.demotion_baseline.load(Ordering::Relaxed)),
            wal_appends: store
                .wal_appends()
                .saturating_sub(self.wal_append_baseline.load(Ordering::Relaxed)),
            wal_bytes: store
                .wal_bytes()
                .saturating_sub(self.wal_byte_baseline.load(Ordering::Relaxed)),
            recovered_pages: store
                .recovered_pages()
                .saturating_sub(self.recovered_page_baseline.load(Ordering::Relaxed)),
            truncated_wal_records: store
                .truncated_wal_records()
                .saturating_sub(self.truncated_wal_baseline.load(Ordering::Relaxed)),
            worker_rounds: self.worker_rounds.load(Ordering::Relaxed),
            stolen_buckets: self.stolen_buckets.load(Ordering::Relaxed),
            round_jobs: self.round_jobs.load(Ordering::Relaxed),
            round_buckets: self.round_buckets.load(Ordering::Relaxed),
            max_bucket_jobs: self.max_bucket_jobs.load(Ordering::Relaxed),
            frames_streamed: store
                .frames_streamed()
                .saturating_sub(self.frames_streamed_baseline.load(Ordering::Relaxed)),
            frames_skipped: store
                .frames_skipped()
                .saturating_sub(self.frames_skipped_baseline.load(Ordering::Relaxed)),
            resnapshots: store
                .resnapshots()
                .saturating_sub(self.resnapshot_baseline.load(Ordering::Relaxed)),
            reconnects: store
                .reconnects()
                .saturating_sub(self.reconnect_baseline.load(Ordering::Relaxed)),
            // Lag is a gauge: report the live value, not a reset-windowed
            // delta.
            replica_lag: store.replica_lag(),
            visibility_scan_cost: store
                .visibility_scan_cost()
                .saturating_sub(self.visibility_scan_baseline.load(Ordering::Relaxed)),
            // Byte footprints are gauges too: live values, never windowed.
            resident_bytes: store.resident_bytes() as u64,
            spilled_bytes: store.spilled_bytes() as u64,
            page_file_bytes: store.page_file_bytes() as u64,
            dead_page_bytes: store.dead_page_bytes() as u64,
        }
    }

    fn reset(&self, store: &dyn ListStore) {
        self.requests_served.store(0, Ordering::Relaxed);
        self.elements_sent.store(0, Ordering::Relaxed);
        self.bytes_in.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
        self.inserts_accepted.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.auth_checks.store(0, Ordering::Relaxed);
        self.worker_rounds.store(0, Ordering::Relaxed);
        self.stolen_buckets.store(0, Ordering::Relaxed);
        self.round_jobs.store(0, Ordering::Relaxed);
        self.round_buckets.store(0, Ordering::Relaxed);
        self.max_bucket_jobs.store(0, Ordering::Relaxed);
        self.lock_baseline
            .store(store.lock_acquisitions(), Ordering::Relaxed);
        self.fault_baseline
            .store(store.page_faults(), Ordering::Relaxed);
        self.eviction_baseline
            .store(store.page_evictions(), Ordering::Relaxed);
        self.hit_baseline
            .store(store.page_cache_hits(), Ordering::Relaxed);
        self.compaction_baseline
            .store(store.compactions(), Ordering::Relaxed);
        self.promotion_baseline
            .store(store.promotions(), Ordering::Relaxed);
        self.demotion_baseline
            .store(store.demotions(), Ordering::Relaxed);
        self.wal_append_baseline
            .store(store.wal_appends(), Ordering::Relaxed);
        self.wal_byte_baseline
            .store(store.wal_bytes(), Ordering::Relaxed);
        self.recovered_page_baseline
            .store(store.recovered_pages(), Ordering::Relaxed);
        self.truncated_wal_baseline
            .store(store.truncated_wal_records(), Ordering::Relaxed);
        self.frames_streamed_baseline
            .store(store.frames_streamed(), Ordering::Relaxed);
        self.frames_skipped_baseline
            .store(store.frames_skipped(), Ordering::Relaxed);
        self.resnapshot_baseline
            .store(store.resnapshots(), Ordering::Relaxed);
        self.reconnect_baseline
            .store(store.reconnects(), Ordering::Relaxed);
        self.visibility_scan_baseline
            .store(store.visibility_scan_cost(), Ordering::Relaxed);
    }

    fn record_worker_round(&self, round: &RoundStats) {
        self.worker_rounds.fetch_add(1, Ordering::Relaxed);
        self.stolen_buckets
            .fetch_add(round.stolen_buckets, Ordering::Relaxed);
        self.round_jobs.fetch_add(round.jobs, Ordering::Relaxed);
        self.round_buckets
            .fetch_add(round.buckets, Ordering::Relaxed);
        self.max_bucket_jobs
            .fetch_max(round.max_bucket_jobs, Ordering::Relaxed);
    }

    fn record_query(&self, request: &QueryRequest, response: &QueryResponse) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        self.elements_sent
            .fetch_add(response.elements.len() as u64, Ordering::Relaxed);
        self.bytes_in
            .fetch_add(request.encoded_bytes() as u64, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(response.encoded_bytes() as u64, Ordering::Relaxed);
    }
}

/// An insert request: the client has already sealed the payload and computed
/// the TRS with the published RSTF.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertRequest {
    /// The inserting user.
    pub user: String,
    /// Target merged posting list.
    pub list: u64,
    /// Group of the underlying document.
    pub group: GroupId,
    /// Transformed relevance score computed by the client.
    pub trs: f64,
    /// Sealed posting payload.
    pub ciphertext: Vec<u8>,
}

impl InsertRequest {
    /// Encoded size in bytes: user-name length + fixed header (8 list + 4
    /// group + 8 trs + 2 length prefix + 2 name prefix) + ciphertext.
    pub fn encoded_bytes(&self) -> usize {
        self.user.len() + 24 + self.ciphertext.len()
    }
}

/// Which storage engine a server is built on.
///
/// All engines answer element-for-element identically (they share one
/// cursor-session implementation); they differ in concurrency model and
/// physical layout, which is what the serving experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreEngine {
    /// Lists sharded across per-`RwLock` tables, plain `Vec` layout (the
    /// default).
    Sharded,
    /// One global mutex around a single table (the contention baseline).
    SingleMutex,
    /// Sharded tables over compressed block-encoded segments with per-block
    /// skip entries (the memory-footprint engine).
    Segment,
    /// Sharded segment tables whose cold sealed segments spill to per-shard
    /// page files behind an LRU page cache (the beyond-RAM engine; page
    /// files live in a fresh temp directory removed when the server drops).
    Spill,
    /// The spill engine with the full durability machinery engaged:
    /// checkpoint manifests, per-shard write-ahead logging of inserts and
    /// crash recovery.  Rooted in a fresh temp directory (removed when the
    /// server drops); long-lived deployments build their store with
    /// [`SpillStore::create_durable`] and pass it to
    /// [`IndexServer::with_store`].
    Durable,
}

/// The index server.
#[derive(Debug)]
pub struct IndexServer {
    /// `Arc` (not `Box`) so batch rounds can hand the engine to the
    /// persistent shard workers without borrowing from the server.
    store: Arc<dyn ListStore>,
    acl: AccessControl,
    stats: AtomicStats,
    /// The shard worker pool executing batch rounds, when parallel serving
    /// is enabled ([`IndexServer::set_shard_workers`]); `None` runs rounds
    /// sequentially on the calling thread, exactly as before.
    pool: RwLock<Option<ShardWorkerPool>>,
}

/// Opaque per-user session tag binding cursors to the user who opened them
/// (FNV-1a over the user name; never 0 so it cannot collide with "no owner").
fn owner_tag(user: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in user.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash.max(1)
}

impl IndexServer {
    /// Creates a server from a built index and a user directory, using the
    /// default sharded storage engine.
    pub fn new(index: OrderedIndex, acl: AccessControl) -> Self {
        Self::with_store(Box::new(ShardedStore::new(index)), acl)
    }

    /// Creates a server over an explicit storage engine.
    pub fn with_store(store: Box<dyn ListStore>, acl: AccessControl) -> Self {
        IndexServer {
            store: Arc::from(store),
            acl,
            stats: AtomicStats::default(),
            pool: RwLock::new(None),
        }
    }

    /// Sets how many persistent shard workers execute batch rounds
    /// ([`IndexServer::handle_query_stream`]): `0` disables the pool and
    /// runs rounds sequentially on the calling thread (the default), `n > 0`
    /// spawns a pool of `n` workers with shard-affine queues and
    /// work-stealing.  Idempotent when the count is unchanged; otherwise the
    /// old pool (if any) is shut down and joined before the call returns.
    pub fn set_shard_workers(&self, workers: usize) {
        let mut slot = self.pool.write();
        match workers {
            0 => *slot = None,
            n if slot.as_ref().map(ShardWorkerPool::workers) == Some(n) => {}
            n => *slot = Some(ShardWorkerPool::new(n)),
        }
    }

    /// Number of shard workers batch rounds currently execute on (0 =
    /// sequential in-thread scheduling).
    pub fn shard_workers(&self) -> usize {
        self.pool
            .read()
            .as_ref()
            .map_or(0, ShardWorkerPool::workers)
    }

    /// Creates a server serializing every operation on one global mutex —
    /// the pre-sharding architecture, kept as the contention baseline.
    pub fn single_mutex(index: OrderedIndex, acl: AccessControl) -> Self {
        Self::with_store(Box::new(SingleMutexStore::new(index)), acl)
    }

    /// Creates a server over the compressed segment engine.
    pub fn segmented(index: OrderedIndex, acl: AccessControl) -> Result<Self, ProtocolError> {
        let store = SegmentStore::new(index).map_err(map_store_error)?;
        Ok(Self::with_store(Box::new(store), acl))
    }

    /// Creates a server over the selected engine, sharded across
    /// `num_shards` storage shards where the engine supports sharding.
    /// Fails only when the engine itself cannot be built (a segment payload
    /// overflow, or the spill engine's page files cannot be created).
    pub fn with_engine(
        index: OrderedIndex,
        acl: AccessControl,
        engine: StoreEngine,
        num_shards: usize,
    ) -> Result<Self, ProtocolError> {
        let store: Box<dyn ListStore> = match engine {
            StoreEngine::Sharded => Box::new(ShardedStore::with_shards(index, num_shards)),
            StoreEngine::SingleMutex => Box::new(SingleMutexStore::new(index)),
            StoreEngine::Segment => {
                Box::new(SegmentStore::with_shards(index, num_shards).map_err(map_store_error)?)
            }
            StoreEngine::Spill => Box::new(
                SpillStore::in_temp_dir(index, num_shards, SpillConfig::default())
                    .map_err(map_store_error)?,
            ),
            StoreEngine::Durable => Box::new(
                SpillStore::durable_in_temp_dir(
                    index,
                    num_shards,
                    SpillConfig::default(),
                    DurableConfig::default(),
                )
                .map_err(map_store_error)?,
            ),
        };
        Ok(Self::with_store(store, acl))
    }

    /// The storage engine serving this server.
    pub fn store(&self) -> &dyn ListStore {
        self.store.as_ref()
    }

    /// The merge plan of the hosted index.
    pub fn plan(&self) -> &zerber_base::MergePlan {
        self.store.plan()
    }

    /// Read-only access to the user directory.
    pub fn acl(&self) -> &AccessControl {
        &self.acl
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot(self.store.as_ref())
    }

    /// Resets the traffic counters (used between experiment phases).
    pub fn reset_stats(&self) {
        self.stats.reset(self.store.as_ref());
    }

    /// Verifies a token through the ACL, metering the check: the batched
    /// scheduler routes every authentication through here so `auth_checks`
    /// counts token verifications (lookup + constant-time compare), not
    /// requests.  The groups come back as the ACL's own shared slice.
    fn authenticate(&self, user: &str, token: &AuthToken) -> Result<Arc<[GroupId]>, ProtocolError> {
        self.stats.auth_checks.fetch_add(1, Ordering::Relaxed);
        self.acl.authenticate(user, token)
    }

    /// Number of merged posting lists hosted.
    pub fn num_lists(&self) -> usize {
        self.store.num_lists()
    }

    /// Total number of posting elements hosted.
    pub fn num_elements(&self) -> usize {
        self.store.num_elements()
    }

    /// Total bytes the server stores for the index.
    pub fn stored_bytes(&self) -> usize {
        self.store.stored_bytes()
    }

    /// Number of currently open cursor sessions.
    pub fn open_cursors(&self) -> usize {
        self.store.open_cursors()
    }

    fn validate(request: &QueryRequest) -> Result<(), ProtocolError> {
        if request.count == 0 || request.k == 0 {
            return Err(ProtocolError::InvalidRequest(
                "count and k must be greater than 0".into(),
            ));
        }
        Ok(())
    }

    /// Serves one validated, authenticated request against the store.
    /// `try_resume` is false only on the stream scheduler's stale-cursor
    /// fallback, where the shard round already proved the cursor dead —
    /// retrying it here would pay a second lock for a guaranteed failure.
    fn serve(
        &self,
        request: &QueryRequest,
        groups: &[GroupId],
        prefetched: Option<RangedBatch>,
        try_resume: bool,
    ) -> Result<QueryResponse, ProtocolError> {
        let list = MergedListId(request.list);
        let owner = owner_tag(&request.user);
        let count = request.count as usize;

        // Resume the cursor session if the client presents a live one;
        // unknown / evicted / foreign cursors fall back to the offset scan.
        let resumed = if try_resume && request.cursor != 0 && prefetched.is_none() {
            self.store
                .cursor_fetch(CursorId(request.cursor), owner, count, Some(groups))
                .ok()
        } else {
            None
        };

        let (batch, session) = match resumed {
            Some(batch) => (batch, CursorId(request.cursor)),
            None => {
                let batch = match prefetched {
                    Some(batch) => batch,
                    None => self
                        .store
                        .fetch_ranged(
                            &RangedFetch {
                                list,
                                offset: request.offset as usize,
                                count,
                            },
                            Some(groups),
                        )
                        .map_err(map_store_error)?,
                };
                // Sessions open lazily, on the first follow-up (a non-zero
                // offset, or a cursor the store evicted): one-shot initial
                // queries — the common case — stay entirely on the shard
                // read lock and never touch the session table.
                let follow_up = request.offset > 0 || request.cursor != 0;
                let session = if batch.exhausted || !follow_up {
                    CursorId::NONE
                } else {
                    // `delivered` lets the store re-derive the position if a
                    // concurrent insert moved the list between the fetch and
                    // this open (generation mismatch).
                    let delivered = request.offset as usize + batch.elements.len();
                    self.store
                        .open_cursor(list, owner, &batch, delivered, Some(groups))
                        .unwrap_or(CursorId::NONE)
                };
                (batch, session)
            }
        };

        Ok(self.finish(request, owner, batch, session))
    }

    /// Builds and meters the response for a served batch, closing the
    /// session when the scan exhausted the list.
    fn finish(
        &self,
        request: &QueryRequest,
        owner: u64,
        batch: RangedBatch,
        session: CursorId,
    ) -> QueryResponse {
        let cursor = if batch.exhausted {
            if session.is_some() {
                self.store.close_cursor(session, owner);
            }
            0
        } else {
            session.0
        };
        let elements: Vec<WireElement> =
            batch.elements.into_iter().map(WireElement::from).collect();
        let response = QueryResponse {
            elements,
            visible_total: batch.visible_total as u64,
            cursor,
        };
        self.stats.record_query(request, &response);
        response
    }

    /// Handles one (initial or follow-up) query request.
    ///
    /// The response contains up to `request.count` elements of the list in
    /// descending TRS order, restricted to the groups the user belongs to,
    /// starting at the cursor position (if a session is presented) or at
    /// `request.offset`.
    pub fn handle_query(
        &self,
        request: &QueryRequest,
        token: &AuthToken,
    ) -> Result<QueryResponse, ProtocolError> {
        Self::validate(request)?;
        let groups = self.authenticate(&request.user, token)?;
        self.serve(request, &groups, None, true)
    }

    /// Handles a batch of query requests from one user (the initial round of
    /// a multi-term query).  Authentication happens once and the storage
    /// engine visits each shard exactly once for the whole batch.
    ///
    /// The outer `Result` covers whole-batch failures (empty or mixed-user
    /// batches, malformed parameters, authentication); the inner results
    /// align with the input order and carry per-request errors, so one stale
    /// list id degrades that request alone — exactly as if every request had
    /// been served (and metered) individually.
    pub fn handle_query_batch(
        &self,
        requests: &[QueryRequest],
        token: &AuthToken,
    ) -> Result<Vec<Result<QueryResponse, ProtocolError>>, ProtocolError> {
        let first = requests
            .first()
            .ok_or_else(|| ProtocolError::InvalidRequest("empty batch".into()))?;
        for request in requests {
            Self::validate(request)?;
            if request.user != first.user {
                return Err(ProtocolError::InvalidRequest(
                    "batch requests must come from one user".into(),
                ));
            }
        }
        let groups = self.authenticate(&first.user, token)?;
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        // Cursor-less requests go through the shard-batched path; resumptions
        // (unusual inside a batch) are served individually.
        let plain: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].cursor == 0)
            .collect();
        let plain_fetches: Vec<RangedFetch> = plain
            .iter()
            .map(|&i| RangedFetch {
                list: MergedListId(requests[i].list),
                offset: requests[i].offset as usize,
                count: requests[i].count as usize,
            })
            .collect();
        let mut prefetched: Vec<Option<Result<RangedBatch, StoreError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (&i, result) in plain
            .iter()
            .zip(self.store.fetch_ranged_many(&plain_fetches, Some(&groups)))
        {
            prefetched[i] = Some(result);
        }
        Ok(requests
            .iter()
            .zip(prefetched)
            .map(|(request, prefetched)| match prefetched {
                Some(Ok(batch)) => self.serve(request, &groups, Some(batch), true),
                Some(Err(e)) => Err(map_store_error(e)),
                None => self.serve(request, &groups, None, true),
            })
            .collect())
    }

    /// Serves a cross-user batch of requests — the batched shard scheduler.
    ///
    /// Unlike [`IndexServer::handle_query_batch`] (one user's multi-term
    /// round), a stream round mixes requests from arbitrary users, so each
    /// entry carries its own token.  The scheduler
    ///
    /// 1. authenticates each distinct `(user, token)` pair **once** per
    ///    round instead of once per request,
    /// 2. buckets all fetches — across users — by storage shard,
    /// 3. executes each shard bucket under a **single** lock acquisition
    ///    (`ListStore::execute_shard_batch`; the single-mutex engine
    ///    degenerates to one lock for the whole round) — sequentially on
    ///    the calling thread by default, or concurrently on the persistent
    ///    shard worker pool when [`IndexServer::set_shard_workers`] enabled
    ///    one — and
    /// 4. reassembles responses in input order with per-request error
    ///    isolation: a stale cursor, failed authentication or unknown list
    ///    degrades that request alone, never the batch.
    ///
    /// Live cursor sessions are resumed inside the shard round; a cursor the
    /// store evicted falls back to the stateless offset scan, exactly like
    /// [`IndexServer::handle_query`].  Responses and metering are
    /// request-for-request identical to serving the stream sequentially.
    pub fn handle_query_stream(
        &self,
        requests: &[(QueryRequest, AuthToken)],
    ) -> Vec<Result<QueryResponse, ProtocolError>> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        // A round of one is the request itself: serve it on the per-query
        // fast path so an unbatched stream costs exactly what
        // `handle_query` costs.
        if let [(request, token)] = requests {
            return vec![Self::validate(request)
                .and_then(|()| self.authenticate(&request.user, token))
                .and_then(|groups| self.serve(request, &groups, None, true))];
        }
        // Authenticate each distinct (user, token) once.  `arena` holds the
        // ACL's own `Arc`'d group sets so the shard jobs below can share
        // them with the worker pool without copying per request.
        let mut arena: Vec<Arc<[GroupId]>> = Vec::new();
        let mut cache: HashMap<(&str, &AuthToken), Result<usize, ProtocolError>> = HashMap::new();
        let mut prepared: Vec<Result<usize, ProtocolError>> = Vec::with_capacity(requests.len());
        for (request, token) in requests {
            // Validate before authenticating, like the sequential path: a
            // malformed request is rejected without paying a token check.
            prepared.push(Self::validate(request).and_then(|()| {
                cache
                    .entry((request.user.as_str(), token))
                    .or_insert_with(|| {
                        self.authenticate(&request.user, token).map(|groups| {
                            arena.push(groups);
                            arena.len() - 1
                        })
                    })
                    .clone()
            }));
        }
        // One shard job per authenticated request: live cursors resume
        // inside the round, everything else is a fresh ranged fetch.
        let jobs: Vec<StoreJob> = requests
            .iter()
            .zip(&prepared)
            .filter_map(|((request, _), auth)| {
                let groups = Some(Arc::clone(&arena[*auth.as_ref().ok()?]));
                Some(if request.cursor != 0 {
                    StoreJob::resume_shared(
                        CursorId(request.cursor),
                        owner_tag(&request.user),
                        request.count as usize,
                        groups,
                    )
                } else {
                    StoreJob::ranged_shared(
                        RangedFetch {
                            list: MergedListId(request.list),
                            offset: request.offset as usize,
                            count: request.count as usize,
                        },
                        groups,
                    )
                })
            })
            .collect();
        // With a worker pool, the round's buckets execute concurrently on
        // the persistent shard workers; without one, sequentially right
        // here.  Either way results come back aligned with the job order
        // and metering is identical.
        let output = {
            let pool = self.pool.read();
            match pool.as_ref() {
                Some(pool) => {
                    let (output, round) = pool.execute(&self.store, jobs);
                    self.stats.record_worker_round(&round);
                    output
                }
                None => self.store.execute_shard_batch(&jobs),
            }
        };
        let mut outcomes = output.results.into_iter();
        requests
            .iter()
            .zip(prepared)
            .map(|((request, _), auth)| {
                let groups = &arena[auth?];
                let outcome = outcomes.next().ok_or_else(|| {
                    ProtocolError::Core(
                        "internal invariant: every prepared request has a job".into(),
                    )
                })?;
                match outcome {
                    Ok(batch) if request.cursor != 0 => {
                        // The round resumed a live session.
                        Ok(self.finish(
                            request,
                            owner_tag(&request.user),
                            batch,
                            CursorId(request.cursor),
                        ))
                    }
                    Ok(batch) => self.serve(request, groups, Some(batch), true),
                    Err(StoreError::UnknownCursor(_)) if request.cursor != 0 => {
                        // Evicted or foreign cursor: fall back to the
                        // stateless offset scan, like the single-query path
                        // (without retrying the resume the round just saw
                        // fail).
                        self.serve(request, groups, None, false)
                    }
                    Err(e) => Err(map_store_error(e)),
                }
            })
            .collect()
    }

    /// Closes a cursor session early (a client that got its `k` results
    /// before exhausting the list releases the session).  Only the session's
    /// own user can close it — cursor ids are sequential and guessable, so
    /// the owner check stops one user from tearing down another's session.
    pub fn close_cursor(&self, cursor: u64, user: &str) {
        if cursor != 0 {
            self.store.close_cursor(CursorId(cursor), owner_tag(user));
        }
    }

    /// Handles an insert: checks the user may write to the document's group,
    /// then places the sealed element at its TRS position.  Open cursors on
    /// the list are shifted so follow-ups neither skip nor repeat elements.
    pub fn handle_insert(
        &self,
        request: &InsertRequest,
        token: &AuthToken,
    ) -> Result<(), ProtocolError> {
        self.stats.auth_checks.fetch_add(1, Ordering::Relaxed);
        self.acl.check_member(&request.user, token, request.group)?;
        if !(0.0..=1.0).contains(&request.trs) || !request.trs.is_finite() {
            return Err(ProtocolError::InvalidRequest(format!(
                "TRS must lie in [0,1], got {}",
                request.trs
            )));
        }
        let element = OrderedElement {
            trs: request.trs,
            group: request.group,
            sealed: zerber_base::EncryptedElement {
                group: request.group,
                ciphertext: request.ciphertext.clone(),
            },
        };
        self.store
            .insert(MergedListId(request.list), element)
            .map_err(map_store_error)?;
        self.stats.inserts_accepted.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_in
            .fetch_add(request.encoded_bytes() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Average bytes per element on the wire (header + sealed payload);
    /// useful for the Section 6.6 style bandwidth table.
    pub fn avg_wire_element_bytes(&self) -> f64 {
        let n = self.store.num_elements();
        if n == 0 {
            return 0.0;
        }
        let total = n * ELEMENT_HEADER_BYTES + self.store.ciphertext_bytes();
        total as f64 / n as f64
    }
}

fn map_store_error(e: StoreError) -> ProtocolError {
    match e {
        StoreError::UnknownList(id) => ProtocolError::UnknownList(id),
        StoreError::UnknownCursor(id) => {
            ProtocolError::InvalidRequest(format!("unknown cursor {id}"))
        }
        // A segment failing validation is a server-side integrity fault,
        // not client misuse.
        StoreError::CorruptSegment(reason) => {
            ProtocolError::Core(format!("corrupt segment: {reason}"))
        }
        StoreError::SegmentOverflow => {
            ProtocolError::Core("segment payload exceeds the u32 offset bound".into())
        }
        StoreError::Io(reason) => ProtocolError::Core(format!("spill storage I/O: {reason}")),
        StoreError::RecoveryFailed(reason) => {
            ProtocolError::Core(format!("store recovery refused: {reason}"))
        }
        // A broken internal invariant degrades the one request instead of
        // the whole process.
        StoreError::Invariant(what) => {
            ProtocolError::Core(format!("internal invariant violated: {what}"))
        }
        // The typed retry-on-primary signal: a replica past its staleness
        // bound degrades the request instead of serving stale data.
        StoreError::Degraded { lag, max_lag } => ProtocolError::Degraded { lag, max_lag },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_base::{BfmMerge, ConfidentialityParam, MergeScheme, PostingPayload};
    use zerber_corpus::{sample_split, Corpus, CorpusBuilder, CorpusStats, Document, SplitConfig};
    use zerber_crypto::{DeterministicRng, GroupKeys, MasterKey};
    use zerber_r::{RstfConfig, RstfModel};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        for i in 0..60 {
            let group = GroupId((i % 2) as u32);
            b.add_document(Document::new(
                format!("d{i}"),
                group,
                format!(
                    "shared term{} report imclone {} filler words here",
                    i % 9,
                    "data ".repeat(i % 5 + 1)
                ),
            ))
            .unwrap();
        }
        b.build()
    }

    fn server_fixture() -> (Corpus, IndexServer, MasterKey, RstfModel) {
        let c = corpus();
        let stats = CorpusStats::compute(&c);
        let split = sample_split(&c, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&c, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([5u8; 32]);
        let index = zerber_r::OrderedIndex::build(&c, plan, &model, &master, 7).unwrap();
        let mut acl = AccessControl::new(b"srv");
        acl.register_user("john", &[GroupId(0), GroupId(1)]);
        acl.register_user("alice", &[GroupId(1)]);
        (c, IndexServer::new(index, acl), master, model)
    }

    fn list_for(c: &Corpus, server: &IndexServer, term_name: &str) -> u64 {
        let term = c.dictionary().get(term_name).unwrap();
        server.plan().list_of(term).unwrap().0
    }

    fn request(user: &str, list: u64, offset: u64, count: u32, k: u32) -> QueryRequest {
        QueryRequest {
            user: user.into(),
            list,
            offset,
            cursor: 0,
            count,
            k,
        }
    }

    #[test]
    fn authenticated_query_returns_ordered_accessible_elements() {
        let (c, server, _, _) = server_fixture();
        let token = server.acl().issue_token("john");
        let list = list_for(&c, &server, "imclone");
        let resp = server
            .handle_query(&request("john", list, 0, 10, 10), &token)
            .unwrap();
        assert!(!resp.elements.is_empty());
        assert!(resp.elements.windows(2).all(|w| w[0].trs >= w[1].trs));
        let stats = server.stats();
        assert_eq!(stats.requests_served, 1);
        assert_eq!(stats.elements_sent, resp.elements.len() as u64);
        assert!(stats.bytes_out > 0);
    }

    #[test]
    fn acl_restricts_which_groups_are_returned() {
        let (c, server, _, _) = server_fixture();
        let token = server.acl().issue_token("alice");
        let list = list_for(&c, &server, "imclone");
        let resp = server
            .handle_query(&request("alice", list, 0, 1000, 10), &token)
            .unwrap();
        assert!(resp.elements.iter().all(|e| e.group == GroupId(1)));
    }

    #[test]
    fn bad_tokens_and_bad_requests_are_rejected() {
        let (c, server, _, _) = server_fixture();
        let list = list_for(&c, &server, "imclone");
        let forged = AuthToken([9u8; 32]);
        let req = request("john", list, 0, 10, 10);
        assert!(server.handle_query(&req, &forged).is_err());
        let token = server.acl().issue_token("john");
        assert!(server
            .handle_query(
                &QueryRequest {
                    count: 0,
                    ..req.clone()
                },
                &token
            )
            .is_err());
        assert!(server
            .handle_query(
                &QueryRequest {
                    list: 99_999,
                    ..req
                },
                &token
            )
            .is_err());
        assert_eq!(server.stats().requests_served, 0);
    }

    #[test]
    fn cursor_sessions_resume_follow_ups_and_close_on_exhaustion() {
        let (c, server, _, _) = server_fixture();
        let token = server.acl().issue_token("john");
        let list = list_for(&c, &server, "imclone");
        // Stateless reference: scan the whole list by offsets.
        let all = server
            .handle_query(&request("john", list, 0, 10_000, 10), &token)
            .unwrap();
        assert_eq!(all.cursor, 0, "an exhausting response carries no cursor");
        // Cursor walk in steps of 3 must deliver the same sequence.  The
        // session opens lazily on the first follow-up; once open it keeps
        // its id until exhaustion closes it.
        let mut collected = Vec::new();
        let mut cursor = 0u64;
        let mut visible = u64::MAX;
        let mut session_seen = 0u64;
        while (collected.len() as u64) < visible {
            let req = QueryRequest {
                cursor,
                ..request("john", list, collected.len() as u64, 3, 10)
            };
            let resp = server.handle_query(&req, &token).unwrap();
            visible = resp.visible_total;
            if collected.is_empty() {
                assert_eq!(resp.cursor, 0, "initial requests open no session");
            }
            if cursor != 0 && resp.cursor != 0 {
                assert_eq!(resp.cursor, cursor, "sessions keep their id");
            }
            if resp.cursor != 0 {
                session_seen = resp.cursor;
            }
            if resp.elements.is_empty() {
                break;
            }
            collected.extend(resp.elements.iter().cloned());
            cursor = resp.cursor;
        }
        assert_eq!(collected, all.elements);
        assert_ne!(session_seen, 0, "follow-ups open a session");
        assert_eq!(server.open_cursors(), 0, "exhausted sessions are closed");
    }

    #[test]
    fn foreign_cursors_fall_back_to_the_offset_scan() {
        let (c, server, _, _) = server_fixture();
        let john = server.acl().issue_token("john");
        let list = list_for(&c, &server, "imclone");
        let initial = server
            .handle_query(&request("john", list, 0, 2, 10), &john)
            .unwrap();
        assert_eq!(initial.cursor, 0, "sessions open lazily");
        let follow = server
            .handle_query(&request("john", list, 2, 2, 10), &john)
            .unwrap();
        assert_ne!(follow.cursor, 0, "the first follow-up opens the session");
        // Alice presents John's cursor: the server must not resume his
        // session, but serve her offset scan (with her ACL view).
        let alice = server.acl().issue_token("alice");
        let resp = server
            .handle_query(
                &QueryRequest {
                    cursor: follow.cursor,
                    ..request("alice", list, 0, 2, 10)
                },
                &alice,
            )
            .unwrap();
        assert!(resp.elements.iter().all(|e| e.group == GroupId(1)));
        // The fallback opened a session of Alice's own; release it.
        server.close_cursor(resp.cursor, "alice");
        // Alice cannot close John's session either.
        server.close_cursor(follow.cursor, "alice");
        assert_eq!(server.open_cursors(), 1);
        server.close_cursor(follow.cursor, "john");
        assert_eq!(server.open_cursors(), 0);
        // Closing is idempotent and unknown cursors are ignored.
        server.close_cursor(follow.cursor, "john");
        server.close_cursor(0, "john");
    }

    #[test]
    fn batch_queries_match_individual_queries_and_meter_identically() {
        let (_c, server, _, _) = server_fixture();
        let token = server.acl().issue_token("john");
        let lists: Vec<u64> = (0..server.num_lists() as u64).take(5).collect();
        let requests: Vec<QueryRequest> =
            lists.iter().map(|&l| request("john", l, 0, 4, 4)).collect();
        let batched: Vec<QueryResponse> = server
            .handle_query_batch(&requests, &token)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let batched_stats = server.stats();
        server.reset_stats();
        let individual: Vec<QueryResponse> = requests
            .iter()
            .map(|r| server.handle_query(r, &token).unwrap())
            .collect();
        for (a, b) in batched.iter().zip(&individual) {
            assert_eq!(a.elements, b.elements);
            assert_eq!(a.visible_total, b.visible_total);
        }
        // Traffic metering is identical; the amortization counters are where
        // the batch is cheaper (one auth, at most one lock per shard).
        let sequential_stats = server.stats();
        assert_eq!(
            batched_stats.requests_served,
            sequential_stats.requests_served
        );
        assert_eq!(batched_stats.elements_sent, sequential_stats.elements_sent);
        assert_eq!(batched_stats.bytes_in, sequential_stats.bytes_in);
        assert_eq!(batched_stats.bytes_out, sequential_stats.bytes_out);
        assert_eq!(batched_stats.batches, 1);
        assert_eq!(sequential_stats.batches, 0);
        assert_eq!(batched_stats.auth_checks, 1);
        assert_eq!(sequential_stats.auth_checks, requests.len() as u64);
        // At most one lock per touched shard, never more than sequential.
        assert!(batched_stats.lock_acquisitions <= sequential_stats.lock_acquisitions);
        // Error paths: empty batches and mixed users are rejected outright.
        assert!(server.handle_query_batch(&[], &token).is_err());
        let mixed = vec![
            request("john", lists[0], 0, 4, 4),
            request("alice", lists[0], 0, 4, 4),
        ];
        assert!(server.handle_query_batch(&mixed, &token).is_err());
        // A stale list id degrades only its own sub-request.
        let partial = vec![
            request("john", lists[0], 0, 4, 4),
            request("john", 99_999, 0, 4, 4),
        ];
        let results = server.handle_query_batch(&partial, &token).unwrap();
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ProtocolError::UnknownList(_))));
    }

    #[test]
    fn stream_batch_takes_one_lock_and_one_auth_per_user() {
        let c = corpus();
        let stats = CorpusStats::compute(&c);
        let split = sample_split(&c, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&c, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([5u8; 32]);
        let index = zerber_r::OrderedIndex::build(&c, plan, &model, &master, 7).unwrap();
        let mut acl = AccessControl::new(b"srv");
        let users: Vec<String> = (0..4).map(|i| format!("u{i}")).collect();
        for u in &users {
            acl.register_user(u, &[GroupId(0), GroupId(1)]);
        }
        for engine in [
            StoreEngine::Sharded,
            StoreEngine::SingleMutex,
            StoreEngine::Segment,
            StoreEngine::Spill,
            StoreEngine::Durable,
        ] {
            let server = IndexServer::with_engine(index.clone(), acl.clone(), engine, 4).unwrap();
            let list = list_for(&c, &server, "imclone");
            // 64 requests, 4 distinct users, all against one merged list —
            // a single-shard round.
            let round: Vec<(QueryRequest, AuthToken)> = (0..64)
                .map(|i| {
                    let user = &users[i % users.len()];
                    (request(user, list, 0, 4, 4), server.acl().issue_token(user))
                })
                .collect();
            server.reset_stats();
            let results = server.handle_query_stream(&round);
            assert!(results.iter().all(|r| r.is_ok()), "engine {engine:?}");
            let stats = server.stats();
            assert_eq!(stats.requests_served, 64);
            assert_eq!(stats.batches, 1);
            // One list => one shard => exactly one lock for all 64 requests.
            assert_eq!(stats.lock_acquisitions, 1, "engine {engine:?}");
            // One token verification per distinct user, not per request.
            assert_eq!(stats.auth_checks, users.len() as u64);
        }
    }

    #[test]
    fn durable_engine_meters_wal_activity_through_server_stats() {
        let c = corpus();
        let stats = CorpusStats::compute(&c);
        let split = sample_split(&c, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&c, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([5u8; 32]);
        let index = zerber_r::OrderedIndex::build(&c, plan, &model, &master, 7).unwrap();
        let mut acl = AccessControl::new(b"srv");
        acl.register_user("alice", &[GroupId(1)]);
        let server = IndexServer::with_engine(index, acl, StoreEngine::Durable, 2).unwrap();
        assert_eq!(server.stats().wal_appends, 0);
        assert_eq!(server.stats().truncated_wal_records, 0);
        let term = c.dictionary().get("imclone").unwrap();
        let list = list_for(&c, &server, "imclone");
        let payload = PostingPayload {
            term,
            doc: zerber_corpus::DocId(7_000),
            tf: 5,
            doc_len: 10,
        };
        let keys: GroupKeys = master.group_keys(1);
        let mut rng = DeterministicRng::from_u64(3);
        let sealed = zerber_base::EncryptedElement::seal(
            &payload,
            GroupId(1),
            &keys,
            MergedListId(list),
            &mut rng,
        )
        .unwrap();
        let req = InsertRequest {
            user: "alice".into(),
            list,
            group: GroupId(1),
            trs: model.transform(term, payload.doc, payload.relevance()),
            ciphertext: sealed.ciphertext,
        };
        let alice = server.acl().issue_token("alice");
        server.handle_insert(&req, &alice).unwrap();
        let stats = server.stats();
        assert_eq!(stats.inserts_accepted, 1);
        assert_eq!(stats.wal_appends, 1, "each accepted insert is logged");
        assert!(stats.wal_bytes > 0);
        // Stats windows reset like every other storage meter.
        server.reset_stats();
        assert_eq!(server.stats().wal_appends, 0);
        assert_eq!(server.stats().wal_bytes, 0);
    }

    #[test]
    fn stream_responses_match_sequential_queries_with_error_isolation() {
        let (c, server, _, _) = server_fixture();
        let list = list_for(&c, &server, "imclone");
        let john = server.acl().issue_token("john");
        let alice = server.acl().issue_token("alice");
        // Open a live session for john, then resume it inside the round.
        server
            .handle_query(&request("john", list, 0, 2, 10), &john)
            .unwrap();
        let follow = server
            .handle_query(&request("john", list, 2, 2, 10), &john)
            .unwrap();
        assert_ne!(follow.cursor, 0);
        let round = vec![
            (request("john", list, 0, 3, 10), john.clone()),
            (request("alice", list, 0, 3, 10), alice.clone()),
            (
                QueryRequest {
                    cursor: follow.cursor,
                    ..request("john", list, 4, 2, 10)
                },
                john.clone(),
            ),
            (request("john", 99_999, 0, 3, 10), john.clone()),
            (
                QueryRequest {
                    cursor: 0xdead_beef << 8,
                    ..request("alice", list, 0, 2, 10)
                },
                alice.clone(),
            ),
            (request("john", list, 0, 3, 10), AuthToken([9u8; 32])),
            (
                QueryRequest {
                    count: 0,
                    ..request("alice", list, 0, 1, 1)
                },
                alice.clone(),
            ),
        ];
        let results = server.handle_query_stream(&round);
        assert_eq!(results.len(), round.len());
        // Fresh ranged requests answer exactly like the sequential path,
        // each under its own user's ACL view.
        let expect_john = server
            .handle_query(&request("john", list, 0, 3, 10), &john)
            .unwrap();
        let expect_alice = server
            .handle_query(&request("alice", list, 0, 3, 10), &alice)
            .unwrap();
        let r0 = results[0].as_ref().unwrap();
        assert_eq!(r0.elements, expect_john.elements);
        assert_eq!(r0.visible_total, expect_john.visible_total);
        let r1 = results[1].as_ref().unwrap();
        assert_eq!(r1.elements, expect_alice.elements);
        assert_eq!(r1.visible_total, expect_alice.visible_total);
        // The live cursor resumed from its position (4 delivered elements).
        let r2 = results[2].as_ref().unwrap();
        let expect_resume = server
            .handle_query(&request("john", list, 4, 2, 10), &john)
            .unwrap();
        assert_eq!(r2.elements, expect_resume.elements);
        // Errors stay contained to their own request.
        assert!(matches!(results[3], Err(ProtocolError::UnknownList(_))));
        // A bogus cursor falls back to the stateless offset scan.
        let r4 = results[4].as_ref().unwrap();
        let expect_fallback = server
            .handle_query(&request("alice", list, 0, 2, 10), &alice)
            .unwrap();
        assert_eq!(r4.elements, expect_fallback.elements);
        assert!(matches!(
            results[5],
            Err(ProtocolError::AuthenticationFailed(_))
        ));
        assert!(matches!(results[6], Err(ProtocolError::InvalidRequest(_))));
        // An empty round is a no-op, not an error.
        assert!(server.handle_query_stream(&[]).is_empty());
    }

    #[test]
    fn insert_requires_group_membership_and_valid_trs() {
        let (c, server, master, model) = server_fixture();
        let term = c.dictionary().get("imclone").unwrap();
        let list = list_for(&c, &server, "imclone");
        let payload = PostingPayload {
            term,
            doc: zerber_corpus::DocId(7_000),
            tf: 5,
            doc_len: 10,
        };
        let keys: GroupKeys = master.group_keys(1);
        let mut rng = DeterministicRng::from_u64(3);
        let sealed = zerber_base::EncryptedElement::seal(
            &payload,
            GroupId(1),
            &keys,
            MergedListId(list),
            &mut rng,
        )
        .unwrap();
        let trs = model.transform(term, payload.doc, payload.relevance());
        let req = InsertRequest {
            user: "alice".into(),
            list,
            group: GroupId(1),
            trs,
            ciphertext: sealed.ciphertext.clone(),
        };
        let alice = server.acl().issue_token("alice");
        let before = server.num_elements();
        server.handle_insert(&req, &alice).unwrap();
        assert_eq!(server.num_elements(), before + 1);
        assert_eq!(server.stats().inserts_accepted, 1);

        // Alice is not in group 0: inserting there must fail.
        let denied = InsertRequest {
            group: GroupId(0),
            ..req.clone()
        };
        assert!(matches!(
            server.handle_insert(&denied, &alice),
            Err(ProtocolError::AccessDenied { .. })
        ));
        // Out-of-range TRS is rejected.
        let bad_trs = InsertRequest { trs: 1.5, ..req };
        assert!(server.handle_insert(&bad_trs, &alice).is_err());
    }

    #[test]
    fn inserted_elements_are_visible_to_subsequent_queries() {
        let (c, server, master, model) = server_fixture();
        let term = c.dictionary().get("imclone").unwrap();
        let list = list_for(&c, &server, "imclone");
        let keys = master.group_keys(0);
        let mut rng = DeterministicRng::from_u64(4);
        let payload = PostingPayload {
            term,
            doc: zerber_corpus::DocId(8_000),
            tf: 9,
            doc_len: 10,
        };
        let sealed = zerber_base::EncryptedElement::seal(
            &payload,
            GroupId(0),
            &keys,
            MergedListId(list),
            &mut rng,
        )
        .unwrap();
        let trs = model.transform(term, payload.doc, payload.relevance());
        let john = server.acl().issue_token("john");
        server
            .handle_insert(
                &InsertRequest {
                    user: "john".into(),
                    list,
                    group: GroupId(0),
                    trs,
                    ciphertext: sealed.ciphertext,
                },
                &john,
            )
            .unwrap();
        // A very high relevance (0.9) should appear in the head of the list.
        let resp = server
            .handle_query(&request("john", list, 0, 5, 5), &john)
            .unwrap();
        let mut found = false;
        for e in &resp.elements {
            if e.group == GroupId(0) {
                let opened = zerber_base::EncryptedElement {
                    group: e.group,
                    ciphertext: e.ciphertext.clone(),
                }
                .open(&keys, MergedListId(list));
                if let Ok(p) = opened {
                    if p.doc == zerber_corpus::DocId(8_000) {
                        found = true;
                    }
                }
            }
        }
        assert!(
            found,
            "freshly inserted high-score element should be in the top-5"
        );
    }

    #[test]
    fn stats_reset_and_size_accessors_work() {
        let (c, server, _, _) = server_fixture();
        let token = server.acl().issue_token("john");
        let list = list_for(&c, &server, "imclone");
        server
            .handle_query(&request("john", list, 0, 3, 3), &token)
            .unwrap();
        assert!(server.stats().bytes_out > 0);
        server.reset_stats();
        // Counters rewind to zero; the byte-footprint gauges keep reporting
        // the live store state and are exempt from the window reset.
        let after = server.stats();
        let gauges = ServerStats {
            resident_bytes: after.resident_bytes,
            spilled_bytes: after.spilled_bytes,
            page_file_bytes: after.page_file_bytes,
            dead_page_bytes: after.dead_page_bytes,
            ..ServerStats::default()
        };
        assert_eq!(after, gauges);
        assert!(after.resident_bytes > 0, "live footprint survives reset");
        assert!(server.num_lists() > 0);
        assert!(server.stored_bytes() > 0);
        assert!(server.avg_wire_element_bytes() > 40.0);
    }

    #[test]
    fn sharded_and_single_mutex_servers_answer_identically() {
        let c = corpus();
        let stats = CorpusStats::compute(&c);
        let split = sample_split(&c, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&c, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([5u8; 32]);
        let index = zerber_r::OrderedIndex::build(&c, plan, &model, &master, 7).unwrap();
        let mut acl = AccessControl::new(b"srv");
        acl.register_user("john", &[GroupId(0), GroupId(1)]);
        let sharded = IndexServer::with_store(
            Box::new(ShardedStore::with_shards(index.clone(), 4)),
            acl.clone(),
        );
        let single = IndexServer::single_mutex(index, acl);
        let token = sharded.acl().issue_token("john");
        for list in 0..sharded.num_lists() as u64 {
            for offset in [0u64, 2, 7] {
                let req = request("john", list, offset, 5, 5);
                let a = sharded.handle_query(&req, &token).unwrap();
                let b = single.handle_query(&req, &token).unwrap();
                // Session ids may differ; the payload must not.
                assert_eq!(a.elements, b.elements);
                assert_eq!(a.visible_total, b.visible_total);
            }
        }
        assert_eq!(sharded.stats(), single.stats());
    }
}
