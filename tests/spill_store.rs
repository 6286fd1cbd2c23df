//! Server-level integration tests for the on-disk spill engine: the spill
//! server must answer byte-identically to the in-memory engines while most
//! of the sealed index lives in page files, and a corrupted or torn page on
//! disk must degrade exactly one request — the same per-request error
//! isolation contract a batch gives stale cursors.

mod common;

use common::TempRoot;
use zerber_suite::corpus::{DatasetProfile, GroupId};
use zerber_suite::protocol::{IndexServer, ProtocolError, QueryRequest};
use zerber_suite::store::{ListStore, RangedFetch, SegmentConfig, SpillConfig, SpillStore};
use zerber_suite::workload::{TestBed, TestBedConfig};
use zerber_suite::zerber::{EncryptedElement, MergedListId};
use zerber_suite::zerber_r::OrderedElement;

fn request(user: &str, list: u64, count: u32) -> QueryRequest {
    QueryRequest {
        user: user.into(),
        list,
        offset: 0,
        cursor: 0,
        count,
        k: count,
    }
}

#[test]
fn spill_server_matches_the_sharded_server_and_meters_faults() {
    let bed = TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).expect("bed builds");
    let sharded = bed.build_segment_server(4, 2);
    let root = TempRoot::new("spill-server");
    let (spill, segment) = (SpillConfig::default(), SegmentConfig::default());
    let store = SpillStore::with_configs(bed.index.clone(), 4, &root, spill, segment)
        .expect("spill store builds");
    let acl = sharded.acl().clone();
    let spilled = IndexServer::with_store(Box::new(store), acl);
    let token_a = sharded.acl().issue_token("user-0");
    let token_b = spilled.acl().issue_token("user-0");
    for list in 0..sharded.num_lists() as u64 {
        for offset in [0u64, 2, 7] {
            let req = QueryRequest {
                offset,
                ..request("user-0", list, 5)
            };
            let a = sharded.handle_query(&req, &token_a).unwrap();
            let b = spilled.handle_query(&req, &token_b).unwrap();
            assert_eq!(a.elements, b.elements, "list {list} offset {offset}");
            assert_eq!(a.visible_total, b.visible_total);
        }
    }
    // The default spill budget comfortably holds this small fixture: no
    // faults.  The interesting accounting lives in the tight-budget test
    // below; here we only pin that the counters exist end to end.
    let stats = spilled.stats();
    assert_eq!(stats.page_faults, spilled.store().metrics().page_faults);
    assert_eq!(
        stats.page_evictions,
        spilled.store().metrics().page_evictions
    );
}

#[test]
fn corrupt_pages_degrade_one_request_and_the_stream_round_isolates_it() {
    let bed = TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).expect("bed builds");
    // Build the spill store by hand so the page-file paths stay reachable
    // for corruption; zero budget + no cache forces every sealed read
    // through the (corruptible) disk.
    let root = TempRoot::new("corrupt-pages");
    let store = SpillStore::with_configs(
        bed.index.clone(),
        1,
        &root,
        SpillConfig {
            resident_budget_bytes: 0,
            page_cache_pages: 0,
            ..SpillConfig::default().without_tiering()
        },
        SegmentConfig::default(),
    )
    .expect("spill store builds");
    assert!(store.metrics().spilled_bytes > 0);
    let paths = store.page_file_paths();
    assert_eq!(paths.len(), 1);

    // The page file is append-only in list order, so its first page belongs
    // to the first non-empty list: that is the victim.  Any later non-empty
    // list's pages sit past it and must survive.
    let non_empty: Vec<u64> = (0..store.num_lists() as u64)
        .filter(|&l| store.list_len(MergedListId(l)).unwrap() > 0)
        .collect();
    let (victim, survivor) = (non_empty[0], *non_empty.last().unwrap());
    assert_ne!(victim, survivor);
    let survivor_reference = store.snapshot_list(MergedListId(survivor)).unwrap();

    let mut acl = zerber_suite::protocol::AccessControl::new(b"spill-crash");
    let all_groups: Vec<_> = (0..bed.corpus.num_groups() as u32)
        .map(zerber_suite::corpus::GroupId)
        .collect();
    acl.register_user("user-0", &all_groups);
    let server = IndexServer::with_store(Box::new(store), acl);
    let token = server.acl().issue_token("user-0");

    // Flip bits inside the first page only: the victim's head segment is
    // now torn, every later page is untouched.
    let mut bytes = std::fs::read(&paths[0]).unwrap();
    for b in bytes.iter_mut().take(40).skip(4) {
        *b ^= 0xA5;
    }
    std::fs::write(&paths[0], &bytes).unwrap();

    // A batch mixing the poisoned list with healthy requests: the
    // corrupt page fails its own request as a server-side integrity error,
    // everything else still answers.
    let round = [
        request("user-0", victim, 5),
        request("user-0", survivor, 5),
        request("user-0", 999_999, 5),
    ];
    let results = server
        .handle_query_batch(&round, &token)
        .expect("the batch itself is well-formed");
    assert!(
        matches!(results[0], Err(ProtocolError::Core(_))),
        "corrupt page must surface as a server-side integrity error, got {:?}",
        results[0]
    );
    let ok = results[1].as_ref().expect("healthy list keeps serving");
    assert_eq!(
        ok.elements.len(),
        survivor_reference.len().min(5),
        "survivor list answers from its intact page"
    );
    assert!(matches!(results[2], Err(ProtocolError::UnknownList(_))));
    // Sequential queries see exactly the same isolation.
    assert!(server
        .handle_query(&request("user-0", victim, 5), &token)
        .is_err());
    assert!(server
        .handle_query(&request("user-0", survivor, 5), &token)
        .is_ok());
}

/// Compaction-under-load stress: reader threads hammer every list while the
/// writer interleaves interior inserts (which strand dead bytes) with
/// explicit page-file compaction passes — on top of the aggressive
/// automatic maintenance the tight tiering config already triggers.  Every
/// read must keep succeeding (pages are validated on the way in, so a torn
/// swap would surface as an error), and the final state must be ordered,
/// exactly charged and fully compacted.
#[test]
fn compaction_under_concurrent_load_never_tears_an_answer() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let bed = TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).expect("bed builds");
    const SHARDS: usize = 2;
    let root = TempRoot::new("compaction-under-load");
    let store = Arc::new(
        SpillStore::with_configs(
            bed.index.clone(),
            SHARDS,
            &root,
            SpillConfig {
                resident_budget_bytes: 4096,
                page_cache_pages: 2,
                compact_dead_percent: 5,
                compact_min_dead_bytes: 512,
                retier_interval: 16,
                heat_decay_window: 0,
            },
            SegmentConfig {
                block_len: 8,
                max_segment_elems: 32,
                ..SegmentConfig::default()
            },
        )
        .expect("spill store builds"),
    );
    let lists: Vec<u64> = (0..store.num_lists() as u64)
        .filter(|&l| store.list_len(MergedListId(l)).unwrap() > 0)
        .collect();
    assert!(!lists.is_empty());

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let lists = lists.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for &l in &lists {
                        let fetch = RangedFetch {
                            list: MergedListId(l),
                            offset: (reads % 7) as usize,
                            count: 5,
                        };
                        store
                            .fetch_ranged(&fetch, None)
                            .expect("reads must survive concurrent compaction");
                        reads += 1;
                    }
                }
                reads
            })
        })
        .collect();

    for i in 0..60u64 {
        let list = lists[i as usize % lists.len()];
        let trs = (i.wrapping_mul(2_654_435_761) % 997) as f64 / 997.0;
        let element = OrderedElement {
            trs,
            group: GroupId(0),
            sealed: EncryptedElement {
                group: GroupId(0),
                ciphertext: vec![0xB7; 16],
            },
        };
        store.insert(MergedListId(list), element).unwrap();
        if i % 5 == 4 {
            for shard in 0..SHARDS {
                store.compact_shard(shard).unwrap();
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let reads = reader.join().expect("reader thread panicked");
        assert!(reads > 0, "readers must have made progress");
    }

    assert!(store.verify_ordering());
    assert!(store.budget_accounting_is_exact());
    for shard in 0..SHARDS {
        store.compact_shard(shard).unwrap();
    }
    assert_eq!(
        store.metrics().dead_page_bytes,
        0,
        "a final pass reclaims everything"
    );
    assert_eq!(
        store.metrics().page_file_bytes,
        store.metrics().spilled_bytes
    );
    // Every pass committed to the next generation and unlinked the old one:
    // the root holds exactly the current page file of each shard — no
    // rewrite scratch (`*.pages.compact`), no superseded generation.
    let mut on_disk: Vec<String> = std::fs::read_dir(&*root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut current: Vec<String> = store
        .page_file_paths()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    current.sort();
    assert_eq!(current.len(), SHARDS);
    assert!(current.iter().all(|n| n.ends_with(".pages")));
    assert_eq!(
        on_disk, current,
        "no compaction scratch file or old generation may outlive its pass"
    );
}
