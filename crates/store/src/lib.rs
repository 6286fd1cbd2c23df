//! # Storage engine for the untrusted index server
//!
//! The layer between the query protocol (`zerber_protocol`) and the ordered
//! confidential index (`zerber_r`).  The paper's server keeps one structure:
//! merged posting lists in descending TRS order, answering ranged top-k
//! fetches (Section 5.2).  The lists are independent by construction (BFM),
//! so the index is embarrassingly shardable by `MergedListId`.
//!
//! * [`ListStore`] — the storage contract: ranged fetches in TRS order,
//!   resumable cursor sessions for follow-up requests (Section 4.1/5.2),
//!   position-preserving inserts, and one [`ListStore::metrics`] call
//!   returning every counter and gauge
//!   the store keeps as a plain [`StoreMetrics`].
//! * [`SpillStore`] — the one engine that serves ([`sharded`]): lists
//!   partitioned across N shards, each behind its own `RwLock` (queries on
//!   different lists never contend, an insert write-locks exactly one
//!   shard), each list a stack of compressed [`segment`]s plus a small
//!   mutable tail ([`spill`]).  It runs in three lifecycles that differ only
//!   in where the sealed bytes live — a deployment setting, not a different
//!   engine:
//!   - *resident* ([`SpillStore::resident`]): everything in memory, nothing
//!     on disk, no maintenance;
//!   - *spill* ([`SpillStore::with_configs`]): cold segments page out to
//!     generation-named per-shard files (the segment wire format is the
//!     page format) behind a byte-budgeted LRU page cache, with
//!     access-driven retiering and page-file compaction; the files are
//!     cache state, deleted on drop;
//!   - *durable* ([`SpillStore::create_durable`] / [`SpillStore::open`]):
//!     the same pager, plus a persistent root holding a checksummed
//!     checkpoint manifest and a per-shard CRC-framed write-ahead log
//!     ([`durable`]); `open` recovers after a crash — replaying pages
//!     through full segment validation and the WAL tail through the insert
//!     path, then re-auditing byte-exact budget accounting and visibility
//!     before serving.
//!
//!   A paging store lives in the directory its caller names, and it is
//!   durable iff it carries durable state ([`SpillStore::is_durable`]); no
//!   constructor invents a directory.
//! * [`oracle`] — [`SingleMutexStore`] over [`VecList`]: the naive model
//!   the engine is checked against.  Nothing serves from it.
//!
//! The durable layout doubles as the replication substrate ([`replication`]):
//! a [`ReplicationSource`] streams checkpoint snapshots and the live WAL
//! tail to [`Replica`]s, which bootstrap through the same validating
//! recovery path, apply frames through the normal logged-insert path and
//! serve bounded-staleness reads behind a [`ReplicaReadStore`].
//!
//! Engine and oracle share one generic cursor-session table
//! ([`store::OrderedList`]), so sessions, insert generations, owner checks,
//! TTL expiry and eviction behave identically; everything physical is
//! implemented twice and must answer element-for-element the same.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod convert;
pub mod durable;
pub mod error;
pub mod lockrank;
pub mod oracle;
pub mod replication;
pub mod segment;
pub mod sharded;
pub mod spill;
pub mod store;

pub use durable::{crc32, DurableConfig, FaultIo, FaultMode, FileIo, PageIo, RealIo, SyncPolicy};
pub use error::StoreError;
pub use lockrank::{LockClass, RankGuard};
pub use oracle::{SingleMutexStore, VecList};
pub use replication::{
    Backoff, FaultPlan, FaultTransport, FrameBatch, InProcessTransport, PumpOutcome, Replica,
    ReplicaConfig, ReplicaReadStore, ReplicaStats, ReplicaTransport, ReplicationSource,
    SnapshotFile, SnapshotPayload, TransportError, WireFrame,
};
pub use segment::{Segment, SegmentConfig};
pub use sharded::{default_shards, SpillStore, MAX_SHARDS};
pub use spill::{SpillConfig, SpillList};
pub use store::{
    CursorId, GroupFilter, ListStore, OrderedList, RangedBatch, RangedFetch, SessionStats,
    StoreMetrics, SESSION_TTL_TICKS,
};

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_base::{BfmMerge, ConfidentialityParam, MergeScheme, MergedListId};
    use zerber_corpus::{
        sample_split, Corpus, CorpusGenerator, CorpusStats, CustomProfile, DatasetProfile, GroupId,
        SplitConfig, SynthConfig,
    };
    use zerber_crypto::MasterKey;
    use zerber_r::{OrderedElement, OrderedIndex, RstfConfig, RstfModel};

    use std::ops::Deref;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh directory under `$TMPDIR/zerber-test` (the one staging dir
    /// the hygiene guard watches), removed with its contents on drop.
    /// Declare it before the store it holds, so it outlives the store.
    pub(crate) struct TempRoot(PathBuf);

    impl TempRoot {
        pub(crate) fn new(name: &str) -> TempRoot {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join("zerber-test").join(format!(
                "{}-store-{name}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempRoot(dir)
        }
    }

    impl Deref for TempRoot {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    /// So `&root` passes wherever a store takes `impl Into<PathBuf>`.
    impl AsRef<std::ffi::OsStr> for TempRoot {
        fn as_ref(&self) -> &std::ffi::OsStr {
            self.0.as_os_str()
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A store together with the root it lives in; fields drop in order,
    /// so the store goes first.
    pub(crate) struct Rooted {
        store: SpillStore,
        _root: TempRoot,
    }

    impl Rooted {
        /// Builds a store with `build` in a fresh root named `name`.
        pub(crate) fn new(name: &str, build: impl FnOnce(&Path) -> SpillStore) -> Rooted {
            let root = TempRoot::new(name);
            Rooted {
                store: build(&root),
                _root: root,
            }
        }
    }

    impl Deref for Rooted {
        type Target = SpillStore;

        fn deref(&self) -> &SpillStore {
            &self.store
        }
    }

    fn index() -> OrderedIndex {
        let config = SynthConfig {
            profile: DatasetProfile::Custom(CustomProfile {
                num_docs: 200,
                num_groups: 3,
                vocab_size: 500,
                general_vocab_fraction: 0.5,
                topic_mix: 0.3,
                zipf_exponent: 1.0,
                doc_length_median: 50.0,
                doc_length_sigma: 0.6,
                min_doc_length: 10,
                max_doc_length: 200,
            }),
            scale: 1.0,
            seed: 4242,
        };
        let corpus: Corpus = CorpusGenerator::new(config).generate().unwrap();
        let stats = CorpusStats::compute(&corpus);
        let split = sample_split(&corpus, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&corpus, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([3u8; 32]);
        OrderedIndex::build(&corpus, plan, &model, &master, 11).unwrap()
    }

    /// The engine on its resident lifecycle and the oracle, over one index.
    fn stores() -> (SpillStore, SingleMutexStore) {
        let idx = index();
        (
            SpillStore::resident(idx.clone(), 4, small_segment_config()).unwrap(),
            SingleMutexStore::new(idx),
        )
    }

    fn small_segment_config() -> SegmentConfig {
        // Small blocks/tail so the fixtures exercise block and segment
        // boundaries, sealing and compaction.
        SegmentConfig {
            block_len: 4,
            tail_threshold: 3,
            max_segment_elems: 64,
            max_segments: 4,
            max_payload_bytes: u32::MAX as usize,
        }
    }

    fn spill_store() -> Rooted {
        Rooted::new("spill", spill_store_in)
    }

    fn spill_store_in(dir: &Path) -> SpillStore {
        // Budget 0: every sealed segment spills; a small page cache keeps
        // reads honest about faulting.
        SpillStore::with_configs(
            index(),
            4,
            dir,
            SpillConfig {
                resident_budget_bytes: 0,
                page_cache_pages: 4,
                ..SpillConfig::default().without_tiering()
            },
            small_segment_config(),
        )
        .unwrap()
    }

    fn busiest_list(store: &dyn ListStore) -> MergedListId {
        (0..store.num_lists() as u64)
            .map(MergedListId)
            .max_by_key(|&l| store.list_len(l).unwrap())
            .unwrap()
    }

    #[test]
    fn sharded_partitions_preserve_every_element() {
        let idx = index();
        let expected = idx.num_elements();
        let by_plan: Vec<usize> = (0..idx.num_lists() as u64)
            .map(|l| idx.list_len(MergedListId(l)).unwrap())
            .collect();
        let store = SpillStore::resident(idx, 5, SegmentConfig::default()).unwrap();
        assert_eq!(store.num_elements(), expected);
        assert_eq!(store.num_shards(), 5);
        for (l, &len) in by_plan.iter().enumerate() {
            let id = MergedListId(l as u64);
            assert_eq!(store.list_len(id).unwrap(), len);
            assert_eq!(store.shard_of(id), l % 5);
        }
        assert!(store.verify_ordering());
    }

    #[test]
    fn all_stores_serve_identical_ranged_batches() {
        let (resident, oracle) = stores();
        let spilled = spill_store();
        let list = busiest_list(&oracle);
        let groups = [GroupId(0), GroupId(2)];
        for offset in [0usize, 3, 10] {
            let fetch = RangedFetch {
                list,
                offset,
                count: 7,
            };
            let want = oracle.fetch_ranged(&fetch, Some(&groups)).unwrap();
            assert_eq!(resident.fetch_ranged(&fetch, Some(&groups)).unwrap(), want);
            assert_eq!(spilled.fetch_ranged(&fetch, Some(&groups)).unwrap(), want);
        }
        // The spill engine served from disk: cold pages were faulted in.
        assert!(spilled.metrics().page_faults > 0);
    }

    #[test]
    fn segment_store_matches_snapshots_and_compresses_the_index() {
        let (segmented, oracle) = stores();
        for l in 0..oracle.num_lists() as u64 {
            let id = MergedListId(l);
            assert_eq!(
                oracle.snapshot_list(id).unwrap(),
                segmented.snapshot_list(id).unwrap()
            );
            assert_eq!(
                oracle.visible_len(id, Some(&[GroupId(1)])).unwrap(),
                segmented.visible_len(id, Some(&[GroupId(1)])).unwrap()
            );
        }
        assert!(segmented.verify_ordering());
        assert_eq!(segmented.num_elements(), oracle.num_elements());
        assert_eq!(segmented.stored_bytes(), oracle.stored_bytes());
        assert_eq!(segmented.ciphertext_bytes(), oracle.ciphertext_bytes());
        let ratio =
            segmented.metrics().resident_bytes as f64 / oracle.metrics().resident_bytes as f64;
        assert!(
            ratio < 1.0,
            "segments must be smaller than the vec layout, got {ratio:.3}"
        );
    }

    #[test]
    fn cursor_follow_ups_report_the_current_visible_total() {
        let (resident, oracle) = stores();
        for store in [
            Box::new(resident) as Box<dyn ListStore>,
            Box::new(oracle) as Box<dyn ListStore>,
        ] {
            let list = busiest_list(store.as_ref());
            let groups = [GroupId(0), GroupId(2)];
            let first = store
                .fetch_ranged(
                    &RangedFetch {
                        list,
                        offset: 0,
                        count: 2,
                    },
                    Some(&groups),
                )
                .unwrap();
            let cursor = store
                .open_cursor(list, 5, &first, first.elements.len(), Some(&groups))
                .unwrap();
            for _ in 0..2 {
                let batch = store.cursor_fetch(cursor, 5, 2, Some(&groups)).unwrap();
                assert_eq!(batch.visible_total, first.visible_total);
            }
            // An element the session can see, inserted mid-session, counts
            // on the very next follow-up, whatever the engine.
            store.insert(list, first.elements[0].clone()).unwrap();
            let batch = store.cursor_fetch(cursor, 5, 2, Some(&groups)).unwrap();
            assert_eq!(batch.visible_total, first.visible_total + 1);
            store.close_cursor(cursor, 5);
        }
    }

    #[test]
    fn session_stats_track_openings() {
        let (sharded, _) = stores();
        let list = busiest_list(&sharded);
        let head = sharded
            .fetch_ranged(
                &RangedFetch {
                    list,
                    offset: 0,
                    count: 1,
                },
                None,
            )
            .unwrap();
        let cursor = sharded.open_cursor(list, 3, &head, 1, None).unwrap();
        let stats = sharded.session_stats();
        assert_eq!(stats.open, 1);
        assert_eq!(stats.opened_total, 1);
        assert_eq!(stats.capacity_evictions + stats.ttl_evictions, 0);
        assert!(stats.clock > 0);
        sharded.close_cursor(cursor, 3);
        assert_eq!(sharded.session_stats().open, 0);
    }

    #[test]
    fn resuming_no_cursor_names_no_session() {
        // `CursorId::NONE` is "no cursor": every store refuses to resume it,
        // never serving it as a ranged fetch of list 0 at offset 0.
        let (resident, oracle) = stores();
        let root = TempRoot::new("resume-no-cursor");
        let primary = std::sync::Arc::new(
            SpillStore::create_durable(
                index(),
                root.join("primary"),
                2,
                SpillConfig::default(),
                DurableConfig::default(),
            )
            .unwrap(),
        );
        let source = ReplicationSource::new(primary.clone()).unwrap();
        let replica = Replica::bootstrap(
            InProcessTransport::new(source),
            root.join("replica"),
            ReplicaConfig::default(),
        )
        .unwrap();
        let replica_store = replica.serving_store();
        for store in [&resident as &dyn ListStore, &oracle, &replica_store] {
            let out = store.cursor_fetch(CursorId::NONE, 1, 2, None);
            assert!(matches!(out, Err(StoreError::UnknownCursor(0))), "{out:?}");
        }
        drop((replica_store, replica, primary));
    }

    #[test]
    fn cursor_resumes_exactly_where_the_scan_stopped() {
        let (sharded, _) = stores();
        let list = busiest_list(&sharded);
        let len = sharded.list_len(list).unwrap();
        assert!(len > 6, "busiest list must be non-trivial");
        let whole = sharded.snapshot_list(list).unwrap();

        let first = sharded
            .fetch_ranged(
                &RangedFetch {
                    list,
                    offset: 0,
                    count: 3,
                },
                None,
            )
            .unwrap();
        let cursor = sharded
            .open_cursor(list, 77, &first, first.elements.len(), None)
            .unwrap();
        let mut collected = first.elements.clone();
        loop {
            let batch = sharded.cursor_fetch(cursor, 77, 3, None).unwrap();
            collected.extend(batch.elements.iter().cloned());
            if batch.exhausted {
                break;
            }
        }
        assert_eq!(collected, whole);
        // A foreign owner cannot close the session.
        sharded.close_cursor(cursor, 78);
        assert_eq!(sharded.session_stats().open, 1);
        sharded.close_cursor(cursor, 77);
        assert_eq!(sharded.session_stats().open, 0);
    }

    #[test]
    fn cursor_owner_mismatch_and_unknown_cursor_are_rejected() {
        let (sharded, _) = stores();
        let list = busiest_list(&sharded);
        let head = sharded
            .fetch_ranged(
                &RangedFetch {
                    list,
                    offset: 0,
                    count: 1,
                },
                None,
            )
            .unwrap();
        let cursor = sharded.open_cursor(list, 1, &head, 1, None).unwrap();
        assert!(matches!(
            sharded.cursor_fetch(cursor, 2, 3, None),
            Err(StoreError::UnknownCursor(_))
        ));
        assert!(matches!(
            sharded.cursor_fetch(CursorId(0), 1, 3, None),
            Err(StoreError::UnknownCursor(_))
        ));
        assert!(sharded.cursor_fetch(cursor, 1, 3, None).is_ok());
    }

    #[test]
    fn insert_shifts_cursors_past_the_insertion_point() {
        let (sharded, _) = stores();
        let list = busiest_list(&sharded);
        let before = sharded.snapshot_list(list).unwrap();
        // Cursor positioned after the first 4 elements.
        let four = sharded
            .fetch_ranged(
                &RangedFetch {
                    list,
                    offset: 0,
                    count: 4,
                },
                None,
            )
            .unwrap();
        let cursor = sharded.open_cursor(list, 9, &four, 4, None).unwrap();
        // Insert an element with the highest possible TRS: lands at 0.
        let mut element = before[0].clone();
        element.trs = 2.0;
        let pos = sharded.insert(list, element).unwrap();
        assert_eq!(pos, 0);
        // The cursor must now deliver the same element it would have next.
        let batch = sharded.cursor_fetch(cursor, 9, 1, None).unwrap();
        assert_eq!(batch.elements[0], before[4]);
        // A tail insert does not disturb a cursor at the front.  The list
        // now starts with the freshly inserted 2.0 element, so a cursor
        // opened after one delivered element points at the original head.
        let one = sharded
            .fetch_ranged(
                &RangedFetch {
                    list,
                    offset: 0,
                    count: 1,
                },
                None,
            )
            .unwrap();
        let front = sharded.open_cursor(list, 9, &one, 1, None).unwrap();
        let mut low = before[0].clone();
        low.trs = -1.0;
        sharded.insert(list, low).unwrap();
        let batch = sharded.cursor_fetch(front, 9, 1, None).unwrap();
        assert_eq!(batch.elements[0], before[0]);
    }

    #[test]
    fn unknown_lists_error_on_every_accessor() {
        let (resident, oracle) = stores();
        let spilled = spill_store();
        let bad = MergedListId(10_000_000);
        for store in [
            &resident as &dyn ListStore,
            &oracle as &dyn ListStore,
            &*spilled as &dyn ListStore,
        ] {
            assert!(store.list_len(bad).is_err());
            assert!(store.visible_len(bad, None).is_err());
            assert!(store.snapshot_list(bad).is_err());
            assert!(store
                .fetch_ranged(
                    &RangedFetch {
                        list: bad,
                        offset: 0,
                        count: 1
                    },
                    None
                )
                .is_err());
            let dummy = RangedBatch {
                elements: Vec::new(),
                next_physical: 0,
                visible_total: 0,
                exhausted: false,
                generation: 0,
            };
            assert!(store.open_cursor(bad, 1, &dummy, 0, None).is_err());
            assert!(store
                .insert(
                    bad,
                    OrderedElement {
                        trs: 0.5,
                        group: GroupId(0),
                        sealed: zerber_base::EncryptedElement {
                            group: GroupId(0),
                            ciphertext: vec![1, 2, 3],
                        },
                    }
                )
                .is_err());
        }
    }

    #[test]
    fn stores_agree_on_sizes() {
        let (resident, oracle) = stores();
        assert_eq!(resident.num_elements(), oracle.num_elements());
        assert_eq!(resident.stored_bytes(), oracle.stored_bytes());
        assert_eq!(resident.ciphertext_bytes(), oracle.ciphertext_bytes());
        assert_eq!(resident.num_lists(), oracle.num_lists());
        assert_eq!((resident.num_shards(), oracle.num_shards()), (4, 1));
        // The resident lifecycle never spills or faults.
        assert_eq!(resident.metrics().spilled_bytes, 0);
        assert_eq!(resident.metrics().page_faults, 0);
        assert_eq!(resident.metrics().page_evictions, 0);
    }

    #[test]
    fn spill_store_moves_cold_bytes_to_disk_and_keeps_answers_identical() {
        let (segmented, oracle) = stores();
        let spilled = spill_store();
        // Logical accounting is lifecycle-independent.
        assert_eq!(spilled.num_elements(), oracle.num_elements());
        assert_eq!(spilled.stored_bytes(), oracle.stored_bytes());
        assert_eq!(spilled.ciphertext_bytes(), oracle.ciphertext_bytes());
        for l in 0..oracle.num_lists() as u64 {
            let id = MergedListId(l);
            assert_eq!(
                oracle.snapshot_list(id).unwrap(),
                spilled.snapshot_list(id).unwrap()
            );
            assert_eq!(
                oracle.visible_len(id, Some(&[GroupId(1)])).unwrap(),
                spilled.visible_len(id, Some(&[GroupId(1)])).unwrap()
            );
        }
        assert!(spilled.verify_ordering());
        // With a zero resident budget, the sealed payload lives on disk:
        // spilled bytes are substantial and the resident footprint sits well
        // under the resident lifecycle (summaries + tails + whatever the
        // small page cache holds).
        assert!(spilled.metrics().spilled_bytes > 0);
        assert!(
            spilled.metrics().resident_bytes < segmented.metrics().resident_bytes,
            "resident {} vs segment {}",
            spilled.metrics().resident_bytes,
            segmented.metrics().resident_bytes
        );
        // The snapshot audit above faulted pages through the cache.
        assert!(spilled.metrics().page_faults > 0);
    }

    #[test]
    fn spill_store_cleans_its_page_files_up_on_drop() {
        let root = TempRoot::new("spill-drop");
        let dir = root.join("spill");
        let spilled = spill_store_in(&dir);
        let paths = spilled.page_file_paths();
        assert!(!paths.is_empty());
        for path in &paths {
            assert!(path.exists(), "page file {} must exist", path.display());
            assert_eq!(path.parent(), Some(dir.as_path()));
        }
        drop(spilled);
        for path in &paths {
            assert!(!path.exists(), "stray page file {}", path.display());
        }
        assert!(!dir.exists(), "stray spill dir {}", dir.display());
    }

    #[test]
    fn read_only_cursor_traffic_sweeps_idle_sessions() {
        // Regression: TTL expiry used to run only on session-table writes,
        // so a read-heavy workload with stable cursors never reclaimed idle
        // sessions.  Cursor advances now upgrade to a sweep once per TTL
        // window.
        let (sharded, _) = stores();
        let list = busiest_list(&sharded);
        let head = sharded
            .fetch_ranged(
                &RangedFetch {
                    list,
                    offset: 0,
                    count: 1,
                },
                None,
            )
            .unwrap();
        let idle = sharded.open_cursor(list, 1, &head, 1, None).unwrap();
        let active = sharded.open_cursor(list, 2, &head, 1, None).unwrap();
        assert_eq!(sharded.session_stats().open, 2);
        // Only cursor advances from here on — no fetches, no opens, no
        // inserts.  The active session's follow-ups tick the logical clock
        // past the TTL; the idle session must be reclaimed by the read-path
        // sweep.
        for _ in 0..=(SESSION_TTL_TICKS + 1) {
            sharded.cursor_fetch(active, 2, 1, None).unwrap();
        }
        let stats = sharded.session_stats();
        assert_eq!(stats.ttl_evictions, 1, "idle session must expire");
        assert_eq!(stats.open, 1);
        assert!(matches!(
            sharded.cursor_fetch(idle, 1, 1, None),
            Err(StoreError::UnknownCursor(_))
        ));
        assert!(sharded.cursor_fetch(active, 2, 1, None).is_ok());
    }
}
