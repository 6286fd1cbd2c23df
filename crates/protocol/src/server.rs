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
//! * **Sharded storage** — the engine is a
//!   [`SpillStore`]: merged lists partitioned across per-`RwLock` shards, so
//!   queries on different lists never contend and an insert write-locks a
//!   single shard.  [`IndexServer::new`] serves the resident lifecycle; a
//!   spill or durable store is built by its owner, in a directory the
//!   owner names, and handed to [`IndexServer::with_store`].
//!   Traffic counters are lock-free atomics.
//! * **Cursor sessions** — the first ranged request of a query opens a
//!   per-list cursor (a physical position in TRS order).  Follow-up requests
//!   (Section 5.2's doubling protocol) resume from the cursor instead of
//!   re-scanning the list from the top; the server closes the session when
//!   the list is exhausted.  Evicted or foreign cursors fall back to the
//!   stateless offset scan, so the responses are element-for-element
//!   identical either way.
//! * **One read path** — [`IndexServer::handle_query`] and
//!   [`IndexServer::handle_query_batch`] (one user's multi-term round) are
//!   two fronts over one per-request path to the store: a live cursor
//!   resumes, anything else is a ranged fetch.  A batch is validated and
//!   authenticated once, then each request is served as `handle_query`
//!   serves it, and the responses come back in input order with
//!   per-request error isolation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use zerber_base::MergedListId;
use zerber_corpus::GroupId;
use zerber_r::{OrderedElement, OrderedIndex};
use zerber_store::{
    default_shards, CursorId, ListStore, RangedFetch, SegmentConfig, SpillStore, StoreError,
    StoreMetrics,
};

use crate::acl::{AccessControl, AuthToken};
use crate::error::ProtocolError;
use crate::message::{QueryRequest, QueryResponse, WireElement};

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
    /// Batches served: [`IndexServer::handle_query_batch`] calls that
    /// passed validation and authentication, so their requests reached the
    /// store.
    pub batches: u64,
    /// Shard-lock acquisitions the storage engine performed on the serving
    /// paths (fetches, cursor operations and inserts); audit accessors are
    /// not metered.  A batch takes exactly the acquisitions of its requests
    /// served one by one.
    pub lock_acquisitions: u64,
    /// Token verifications the ACL performed: a directory lookup plus one
    /// constant-time compare against the user's stored token each (the HMAC
    /// behind that token is computed when the user is registered, not per
    /// check).  A batch authenticates its one user once, so this grows by
    /// one per batch instead of one per request.
    pub auth_checks: u64,
    /// Pages the storage engine read back (and re-validated) from disk —
    /// non-zero only on the paging lifecycles, where it measures how often
    /// the working set missed the resident budget and page cache.
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
    /// Write-ahead-log records a durable store appended for accepted
    /// inserts (0 otherwise).
    pub wal_appends: u64,
    /// Write-ahead-log bytes a durable store appended.
    pub wal_bytes: u64,
    /// Checkpoint pages a durable store read back, re-validated and
    /// adopted when the store was recovered from disk.
    pub recovered_pages: u64,
    /// Torn or corrupt WAL tail records recovery discarded (the log was
    /// truncated at the last valid record and the store kept serving).
    pub truncated_wal_records: u64,
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
    /// Always 0: every store answers a visibility count from its running
    /// per-group totals without examining an element.  Kept only because
    /// the benchmark package still reads it.
    pub visibility_scan_cost: u64,
    /// Estimated bytes of the engine's in-memory physical representation.
    /// A gauge (point-in-time), like the other byte footprints below.
    pub resident_bytes: u64,
    /// Live page bytes in the on-disk page files, including the kept pages
    /// of promoted (resident) slots (0 on the resident lifecycle).  A gauge.
    pub spilled_bytes: u64,
    /// Physical length of the on-disk page files backing the spilled state;
    /// exceeds [`ServerStats::spilled_bytes`] by the dead bytes interior
    /// rebuilds strand in the append-only files.  A gauge.
    pub page_file_bytes: u64,
    /// Dead (stranded) page-file bytes awaiting compaction.  A gauge.
    pub dead_page_bytes: u64,
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
    /// The store's metrics at the last [`AtomicStats::reset`]; snapshots
    /// report its counters as the delta so `reset_stats` zeroes the whole
    /// struct.  Touched only by `stats()` / `reset_stats()`, never by a
    /// request.
    baseline: Mutex<StoreMetrics>,
}

impl AtomicStats {
    /// The one place a store counter becomes a [`ServerStats`] field.
    fn snapshot(&self, store: &dyn ListStore) -> ServerStats {
        let base = *self.baseline.lock();
        // Exhaustive on purpose (no `..`): a field added to `StoreMetrics`
        // and not surfaced below fails to compile.
        let StoreMetrics {
            resident_bytes,
            spilled_bytes,
            page_faults,
            page_evictions,
            page_cache_hits,
            page_file_bytes,
            dead_page_bytes,
            compactions,
            promotions,
            demotions,
            wal_appends,
            wal_bytes,
            recovered_pages,
            truncated_wal_records,
            frames_streamed,
            frames_skipped,
            resnapshots,
            reconnects,
            replica_lag,
            lock_acquisitions,
        } = store.metrics();
        ServerStats {
            requests_served: self.requests_served.load(Ordering::Relaxed),
            elements_sent: self.elements_sent.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            inserts_accepted: self.inserts_accepted.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            auth_checks: self.auth_checks.load(Ordering::Relaxed),
            // Store counters: the delta since the last reset.
            lock_acquisitions: lock_acquisitions.saturating_sub(base.lock_acquisitions),
            page_faults: page_faults.saturating_sub(base.page_faults),
            page_evictions: page_evictions.saturating_sub(base.page_evictions),
            page_cache_hits: page_cache_hits.saturating_sub(base.page_cache_hits),
            compactions: compactions.saturating_sub(base.compactions),
            promotions: promotions.saturating_sub(base.promotions),
            demotions: demotions.saturating_sub(base.demotions),
            wal_appends: wal_appends.saturating_sub(base.wal_appends),
            wal_bytes: wal_bytes.saturating_sub(base.wal_bytes),
            recovered_pages: recovered_pages.saturating_sub(base.recovered_pages),
            truncated_wal_records: truncated_wal_records.saturating_sub(base.truncated_wal_records),
            frames_streamed: frames_streamed.saturating_sub(base.frames_streamed),
            frames_skipped: frames_skipped.saturating_sub(base.frames_skipped),
            resnapshots: resnapshots.saturating_sub(base.resnapshots),
            reconnects: reconnects.saturating_sub(base.reconnects),
            visibility_scan_cost: 0,
            // Store gauges: live values, never windowed.
            replica_lag,
            resident_bytes,
            spilled_bytes,
            page_file_bytes,
            dead_page_bytes,
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
        *self.baseline.lock() = store.metrics();
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

/// The index server.
#[derive(Debug)]
pub struct IndexServer {
    store: Box<dyn ListStore>,
    acl: AccessControl,
    stats: AtomicStats,
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
    /// Creates a server from a built index and a user directory on the
    /// resident lifecycle, with a machine-matched shard count.  Fails only
    /// when a single element cannot be encoded under the segment payload
    /// bound.
    pub fn new(index: OrderedIndex, acl: AccessControl) -> Result<Self, ProtocolError> {
        let store = SpillStore::resident(index, default_shards(), SegmentConfig::default())
            .map_err(map_store_error)?;
        Ok(Self::with_store(Box::new(store), acl))
    }

    /// Creates a server over an explicit store.
    pub fn with_store(store: Box<dyn ListStore>, acl: AccessControl) -> Self {
        IndexServer {
            store,
            acl,
            stats: AtomicStats::default(),
        }
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

    /// Verifies a token through the ACL, metering the check: every query
    /// front routes its authentication through here so `auth_checks`
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
        self.store.session_stats().open
    }

    fn validate(request: &QueryRequest) -> Result<(), ProtocolError> {
        if request.count == 0 || request.k == 0 {
            return Err(ProtocolError::InvalidRequest(
                "count and k must be greater than 0".into(),
            ));
        }
        Ok(())
    }

    /// Serves one validated, authenticated request against the store: the
    /// one read path of both query fronts.
    fn serve(
        &self,
        request: &QueryRequest,
        groups: &[GroupId],
    ) -> Result<QueryResponse, ProtocolError> {
        let list = MergedListId(request.list);
        let owner = owner_tag(&request.user);
        let count = request.count as usize;

        // Resume the cursor session if the client presents a live one;
        // unknown / evicted / foreign cursors fall back to the offset scan.
        let resumed = if request.cursor != 0 {
            self.store
                .cursor_fetch(CursorId(request.cursor), owner, count, Some(groups))
                .ok()
        } else {
            None
        };

        let (batch, session) = match resumed {
            Some(batch) => (batch, CursorId(request.cursor)),
            None => {
                let batch = self
                    .store
                    .fetch_ranged(
                        &RangedFetch {
                            list,
                            offset: request.offset as usize,
                            count,
                        },
                        Some(groups),
                    )
                    .map_err(map_store_error)?;
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

        // A scan that exhausted the list closes its session.
        let cursor = if batch.exhausted {
            if session.is_some() {
                self.store.close_cursor(session, owner);
            }
            0
        } else {
            session.0
        };
        let response = QueryResponse {
            elements: batch.elements.into_iter().map(WireElement::from).collect(),
            visible_total: batch.visible_total as u64,
            cursor,
        };
        self.stats.record_query(request, &response);
        Ok(response)
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
        self.serve(request, &groups)
    }

    /// Handles a batch of query requests from one user (the initial round of
    /// a multi-term query).  The batch is validated and authenticated once;
    /// each request is then served exactly as [`IndexServer::handle_query`]
    /// serves it, so the batch costs and meters what its requests cost one
    /// by one, except for the one token check and the `batches` count.
    ///
    /// The outer `Result` covers whole-batch failures (empty or mixed-user
    /// batches, malformed parameters, authentication); the inner results
    /// align with the input order and carry per-request errors, so one stale
    /// list id degrades that request alone.
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
        Ok(requests.iter().map(|r| self.serve(r, &groups)).collect())
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
        // The wire format carries a 2-byte payload length; a longer payload
        // could be stored but never shipped back intact.
        if request.ciphertext.len() > usize::from(u16::MAX) {
            return Err(ProtocolError::InvalidRequest(format!(
                "ciphertext of {} bytes exceeds the 2-byte wire length prefix",
                request.ciphertext.len()
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
    use zerber_store::{DurableConfig, SingleMutexStore, SpillConfig};

    /// A fresh directory under `$TMPDIR/zerber-test` (the staging dir the
    /// hygiene guard watches), removed with its contents on drop.  Declare
    /// it before the server it holds, so it outlives the store.
    struct TempRoot(std::path::PathBuf);

    impl TempRoot {
        fn new(name: &str) -> TempRoot {
            let dir = std::env::temp_dir()
                .join("zerber-test")
                .join(format!("{}-protocol-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempRoot(dir)
        }

        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A server on a durable store of default tuning in `root`.
    fn durable_server(index: OrderedIndex, acl: AccessControl, root: &TempRoot) -> IndexServer {
        let (spill, durable) = (SpillConfig::default(), DurableConfig::default());
        let store = SpillStore::create_durable(index, root.join("durable"), 2, spill, durable);
        IndexServer::with_store(Box::new(store.unwrap()), acl)
    }

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
        (c, IndexServer::new(index, acl).unwrap(), master, model)
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
    fn the_default_server_counts_visibility_without_examining_elements() {
        // `IndexServer::new` serves from the engine's resident lifecycle: a
        // group-filtered count is one merge pass over the list's running
        // totals, and it counts only the caller's groups.
        let (c, server, _, _) = server_fixture();
        let token = server.acl().issue_token("alice");
        let list = list_for(&c, &server, "imclone");
        let resp = server
            .handle_query(&request("alice", list, 0, 3, 3), &token)
            .unwrap();
        let len = server.store().list_len(MergedListId(list)).unwrap();
        assert!(resp.visible_total > 0 && (resp.visible_total as usize) < len);
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
    fn cursors_evicted_under_capacity_pressure_fall_back_to_the_offset_scan() {
        let (c, server, _, _) = server_fixture();
        let john = server.acl().issue_token("john");
        let list = list_for(&c, &server, "imclone");
        // Every follow-up without a cursor opens a session; abandon them all
        // until the list's session table is full and evicts its oldest.
        let mut sessions = Vec::new();
        while server.store().session_stats().capacity_evictions == 0 {
            let follow = server
                .handle_query(&request("john", list, 2, 2, 10), &john)
                .unwrap();
            sessions.push(follow.cursor);
            assert!(sessions.len() < 1 << 16, "the session table never filled");
        }
        let stats = server.store().session_stats();
        assert_eq!(stats.capacity_evictions, 1);
        assert_eq!(stats.open + 1, sessions.len());
        let scan = server
            .handle_query(&request("john", list, 4, 2, 10), &john)
            .unwrap();
        // The evicted session's owner is served the plain offset scan (and
        // a fresh session); the newest session still resumes in place.
        let next = |cursor: u64| {
            let follow_up = QueryRequest {
                cursor,
                ..request("john", list, 4, 2, 10)
            };
            server.handle_query(&follow_up, &john).unwrap()
        };
        let (oldest, newest) = (sessions[0], sessions[sessions.len() - 1]);
        let fallback = next(oldest);
        assert_eq!(fallback.elements, scan.elements);
        assert_ne!(fallback.cursor, oldest);
        let resumed = next(newest);
        assert_eq!(resumed.elements, scan.elements);
        assert_eq!(resumed.cursor, newest);
    }

    #[test]
    fn batch_queries_match_individual_queries_and_meter_identically() {
        let (c, server, _, _) = server_fixture();
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
        // The batch meters exactly what its requests cost one by one, but
        // for the one token check and the batch count.
        let sequential_stats = server.stats();
        assert_eq!(
            ServerStats {
                auth_checks: requests.len() as u64,
                batches: 0,
                ..batched_stats
            },
            sequential_stats
        );
        assert_eq!((batched_stats.auth_checks, batched_stats.batches), (1, 1));
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
        // A batch of one answers and meters exactly like `handle_query` of
        // that request on a twin server: a fresh fetch, a live-cursor resume
        // and a foreign cursor (Alice presenting John's session).
        let (_, twin, _, _) = server_fixture();
        let list = list_for(&c, &server, "imclone");
        let alice = server.acl().issue_token("alice");
        let open_session = |s: &IndexServer| {
            let initial = request("john", list, 0, 2, 10);
            s.handle_query(&initial, &token).unwrap();
            let follow = request("john", list, 2, 2, 10);
            s.handle_query(&follow, &token).unwrap().cursor
        };
        let session = open_session(&server);
        assert_ne!(session, 0);
        assert_eq!(session, open_session(&twin));
        let resume = QueryRequest {
            cursor: session,
            ..request("john", list, 4, 2, 10)
        };
        let foreign = QueryRequest {
            cursor: session,
            ..request("alice", list, 0, 2, 10)
        };
        let cases = [
            (request("john", list, 0, 4, 4), &token),
            (resume, &token),
            (foreign, &alice),
        ];
        for (req, tok) in &cases {
            server.reset_stats();
            twin.reset_stats();
            let batched = server
                .handle_query_batch(std::slice::from_ref(req), tok)
                .unwrap();
            let single = twin.handle_query(req, tok);
            assert_eq!(batched, [single]);
            let (a, b) = (server.stats(), twin.stats());
            assert_eq!(a.requests_served, 1);
            assert_eq!(
                ServerStats { batches: 0, ..a },
                b,
                "a batch of one costs what the per-query path costs"
            );
            assert_eq!((a.batches, b.batches), (1, 0));
            assert_eq!((a.auth_checks, b.auth_checks), (1, 1));
        }
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
        acl.register_user("john", &[GroupId(0), GroupId(1)]);
        // The three lifecycles of the engine, and the oracle.
        let root = TempRoot::new("stream-batch");
        let (spill, segment) = (SpillConfig::default(), SegmentConfig::default());
        let stores: Vec<(&str, Box<dyn ListStore>)> = vec![
            (
                "resident",
                Box::new(SpillStore::resident(index.clone(), 4, segment).unwrap()),
            ),
            (
                "spill",
                Box::new(
                    SpillStore::with_configs(index.clone(), 4, root.join("spill"), spill, segment)
                        .unwrap(),
                ),
            ),
            (
                "durable",
                Box::new(
                    SpillStore::create_durable(
                        index.clone(),
                        root.join("durable"),
                        4,
                        spill,
                        DurableConfig::default(),
                    )
                    .unwrap(),
                ),
            ),
            ("oracle", Box::new(SingleMutexStore::new(index))),
        ];
        let servers: Vec<(&str, IndexServer)> = stores
            .into_iter()
            .map(|(engine, store)| (engine, IndexServer::with_store(store, acl.clone())))
            .collect();
        for (engine, server) in &servers {
            let list = list_for(&c, server, "imclone");
            let token = server.acl().issue_token("john");
            // 64 requests of one user, all against one merged list.
            let round = vec![request("john", list, 0, 4, 4); 64];
            server.reset_stats();
            let results = server.handle_query_batch(&round, &token).unwrap();
            assert!(results.iter().all(|r| r.is_ok()), "engine {engine:?}");
            let stats = server.stats();
            assert_eq!(stats.requests_served, 64);
            assert_eq!(stats.batches, 1);
            // One token verification for the batch, not one per request.
            assert_eq!(stats.auth_checks, 1);
            // One lock per request: exactly what the sequential run takes.
            server.reset_stats();
            for r in &round {
                server.handle_query(r, &token).unwrap();
            }
            let sequential = server.stats().lock_acquisitions;
            assert_eq!(stats.lock_acquisitions, sequential, "engine {engine:?}");
            assert_eq!(sequential, 64, "engine {engine:?}");
            // A batch that never reaches the store is not a served batch:
            // neither one that fails validation (rejected before the token
            // is even checked) nor one that fails authentication.
            server.reset_stats();
            let mut malformed = round.clone();
            malformed[63].count = 0;
            assert!(matches!(
                server.handle_query_batch(&malformed, &token),
                Err(ProtocolError::InvalidRequest(_))
            ));
            assert_eq!(server.stats().auth_checks, 0);
            assert!(matches!(
                server.handle_query_batch(&round, &AuthToken([9u8; 32])),
                Err(ProtocolError::AuthenticationFailed(_))
            ));
            let stats = server.stats();
            assert_eq!(stats.batches, 0, "engine {engine:?}");
            assert_eq!(stats.lock_acquisitions, 0, "engine {engine:?}");
            assert_eq!(stats.requests_served, 0);
            assert_eq!(stats.auth_checks, 1, "the forged token is checked once");
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
        let root = TempRoot::new("wal-meters");
        let server = durable_server(index, acl, &root);
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
    fn inserts_longer_than_the_wire_length_prefix_are_refused() {
        let (c, resident, _, _) = server_fixture();
        let list = list_for(&c, &resident, "imclone");
        let snapshot = |l| resident.store().snapshot_list(MergedListId(l)).unwrap();
        let lists = (0..resident.num_lists() as u64).map(snapshot).collect();
        let index = OrderedIndex::from_parts(lists, resident.plan().clone());
        let root = TempRoot::new("long-insert");
        let server = durable_server(index, resident.acl().clone(), &root);
        let alice = server.acl().issue_token("alice");
        let insert = |len: usize| InsertRequest {
            user: "alice".into(),
            list,
            group: GroupId(1),
            // Above every built element, so it is the first one served.
            trs: 1.0,
            ciphertext: vec![0xa5; len],
        };
        let before = (server.stats(), server.num_elements());
        assert!(matches!(
            server.handle_insert(&insert(65_536), &alice),
            Err(ProtocolError::InvalidRequest(_))
        ));
        let after = server.stats();
        assert_eq!(after.inserts_accepted, before.0.inserts_accepted);
        assert_eq!(after.wal_appends, before.0.wal_appends);
        assert_eq!(server.num_elements(), before.1);
        // The largest payload the 2-byte length prefix can carry is accepted
        // and the response that ships it is a faithful encoding.
        server.handle_insert(&insert(65_535), &alice).unwrap();
        assert_eq!(server.stats().inserts_accepted, 1);
        assert_eq!(server.stats().wal_appends, 1);
        assert_eq!(server.num_elements(), before.1 + 1);
        let response = server
            .handle_query(&request("alice", list, 0, 2, 2), &alice)
            .unwrap();
        assert_eq!(response.elements[0].ciphertext.len(), 65_535);
        let bytes = response.encode();
        assert_eq!(bytes.len(), response.encoded_bytes());
        assert_eq!(QueryResponse::decode(&bytes).unwrap(), response);
    }

    #[test]
    fn stream_responses_match_sequential_queries_with_error_isolation() {
        let (c, server, _, _) = server_fixture();
        let list = list_for(&c, &server, "imclone");
        let john = server.acl().issue_token("john");
        // Open a live session for john, then resume it inside the round.
        server
            .handle_query(&request("john", list, 0, 2, 10), &john)
            .unwrap();
        let follow = server
            .handle_query(&request("john", list, 2, 2, 10), &john)
            .unwrap();
        assert_ne!(follow.cursor, 0);
        let round = vec![
            request("john", list, 0, 3, 10),
            QueryRequest {
                cursor: follow.cursor,
                ..request("john", list, 4, 2, 10)
            },
            request("john", 99_999, 0, 3, 10),
            QueryRequest {
                cursor: 0xdead_beef << 8,
                ..request("john", list, 0, 2, 10)
            },
        ];
        let results = server.handle_query_batch(&round, &john).unwrap();
        assert_eq!(results.len(), round.len());
        // A fresh ranged request answers exactly like the sequential path.
        let expect_fresh = server
            .handle_query(&request("john", list, 0, 3, 10), &john)
            .unwrap();
        let r0 = results[0].as_ref().unwrap();
        assert_eq!(r0.elements, expect_fresh.elements);
        assert_eq!(r0.visible_total, expect_fresh.visible_total);
        // The live cursor resumed from its position (4 delivered elements)
        // and kept its session id.
        let r1 = results[1].as_ref().unwrap();
        let expect_resume = server
            .handle_query(&request("john", list, 4, 2, 10), &john)
            .unwrap();
        assert_eq!(r1.elements, expect_resume.elements);
        assert_eq!(r1.cursor, follow.cursor);
        // Errors stay contained to their own request.
        assert!(matches!(results[2], Err(ProtocolError::UnknownList(_))));
        // A bogus cursor falls back to the stateless offset scan.
        let r3 = results[3].as_ref().unwrap();
        let expect_fallback = server
            .handle_query(&request("john", list, 0, 2, 10), &john)
            .unwrap();
        assert_eq!(r3.elements, expect_fallback.elements);
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

    /// Serves a little traffic, resets the window and requires every counter
    /// of [`ServerStats`] back at zero while the five gauges keep reporting
    /// the live store state.
    fn assert_reset_zeroes_counters_and_keeps_gauges(server: &IndexServer, user: &str, list: u64) {
        let token = server.acl().issue_token(user);
        server
            .handle_query(&request(user, list, 0, 3, 3), &token)
            .unwrap();
        let before = server.stats();
        assert!(before.bytes_out > 0 && before.lock_acquisitions > 0);
        server.reset_stats();
        let after = server.stats();
        let gauges = ServerStats {
            resident_bytes: after.resident_bytes,
            spilled_bytes: after.spilled_bytes,
            page_file_bytes: after.page_file_bytes,
            dead_page_bytes: after.dead_page_bytes,
            replica_lag: after.replica_lag,
            ..ServerStats::default()
        };
        assert_eq!(after, gauges);
        assert!(after.resident_bytes > 0, "live footprint survives reset");
        assert_eq!(after.replica_lag, before.replica_lag);
    }

    #[test]
    fn stats_reset_and_size_accessors_work() {
        let (c, server, _, _) = server_fixture();
        let list = list_for(&c, &server, "imclone");
        assert_reset_zeroes_counters_and_keeps_gauges(&server, "john", list);
        assert!(server.num_lists() > 0);
        assert!(server.stored_bytes() > 0);

        // The durable engine: WAL counters are windowed like the rest.
        let snapshot = |l| server.store().snapshot_list(MergedListId(l)).unwrap();
        let lists = (0..server.num_lists() as u64).map(snapshot).collect();
        let index = OrderedIndex::from_parts(lists, server.plan().clone());
        let filler = |trs: f64| OrderedElement {
            trs,
            group: GroupId(1),
            sealed: zerber_base::EncryptedElement {
                group: GroupId(1),
                ciphertext: vec![7u8; 40],
            },
        };
        let root = TempRoot::new("server-stats-reset");
        let durable = durable_server(index.clone(), server.acl().clone(), &root);
        durable
            .store()
            .insert(MergedListId(list), filler(0.5))
            .unwrap();
        assert_eq!(durable.stats().wal_appends, 1);
        assert_reset_zeroes_counters_and_keeps_gauges(&durable, "john", list);

        // A replica: the replication counters are windowed, the lag gauge
        // is not.  Three primary inserts and one single-frame poll leave the
        // replica one frame in and two behind.
        let primary = std::sync::Arc::new(
            SpillStore::create_durable(
                index,
                root.join("primary"),
                2,
                SpillConfig::default(),
                DurableConfig::default(),
            )
            .unwrap(),
        );
        let source = zerber_store::ReplicationSource::new(primary.clone()).unwrap();
        let mut replica = zerber_store::Replica::bootstrap(
            zerber_store::InProcessTransport::new(source),
            root.join("replica"),
            zerber_store::ReplicaConfig {
                batch_frames: 1,
                ..zerber_store::ReplicaConfig::default()
            },
        )
        .unwrap();
        for trs in [0.5, 0.4, 0.3] {
            primary.insert(MergedListId(list), filler(trs)).unwrap();
        }
        replica.pump().unwrap();
        let fronting =
            IndexServer::with_store(Box::new(replica.serving_store()), server.acl().clone());
        let stats = fronting.stats();
        assert_eq!(stats.frames_streamed, 1);
        assert_eq!(stats.replica_lag, 2);
        assert_reset_zeroes_counters_and_keeps_gauges(&fronting, "john", list);
        drop((fronting, replica, primary));
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
            Box::new(SpillStore::resident(index.clone(), 4, SegmentConfig::default()).unwrap()),
            acl.clone(),
        );
        let single = IndexServer::with_store(Box::new(SingleMutexStore::new(index)), acl);
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
        // Same traffic, byte for byte; what differs is physical — resident
        // bytes and the elements the oracle examines to count visibility.
        let (a, b) = (sharded.stats(), single.stats());
        assert_eq!(
            (a.requests_served, a.elements_sent, a.bytes_in, a.bytes_out),
            (b.requests_served, b.elements_sent, b.bytes_in, b.bytes_out)
        );
        assert_eq!(a.lock_acquisitions, b.lock_acquisitions);
    }
}
