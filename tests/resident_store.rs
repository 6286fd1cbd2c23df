//! The resident lifecycle of the storage engine keeps everything in memory:
//! it creates nothing on disk and none of the paging, tiering or durability
//! machinery ever runs.  (No store constructor invents a directory, so a
//! resident one, which is given none, has nowhere to write.)

use zerber_suite::corpus::{GroupId, TermId};
use zerber_suite::store::{ListStore, RangedFetch, SegmentConfig, SingleMutexStore, SpillStore};
use zerber_suite::zerber::{EncryptedElement, MergePlan, MergedListId};
use zerber_suite::zerber_r::{OrderedElement, OrderedIndex};

const NUM_LISTS: u64 = 3;

/// xorshift64: the seeded stream behind the insert + query mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self, below: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % below
    }
}

fn element(rng: &mut Rng) -> OrderedElement {
    let group = GroupId(rng.next(4) as u32);
    OrderedElement {
        trs: rng.next(1 << 20) as f64 / (1 << 20) as f64,
        group,
        sealed: EncryptedElement {
            group,
            ciphertext: vec![rng.next(256) as u8; 12],
        },
    }
}

fn index(rng: &mut Rng) -> OrderedIndex {
    let lists = (0..NUM_LISTS)
        .map(|_| {
            let mut list: Vec<OrderedElement> = (0..60).map(|_| element(rng)).collect();
            list.sort_by(|a, b| b.trs.partial_cmp(&a.trs).expect("finite TRS"));
            list
        })
        .collect();
    let plan = MergePlan::from_term_lists(
        (0..NUM_LISTS).map(|i| vec![TermId(i as u32)]).collect(),
        "resident-fixture",
        2.0,
    );
    OrderedIndex::from_parts(lists, plan)
}

#[test]
fn a_resident_store_creates_nothing_on_disk_and_runs_no_paging_machinery() {
    let mut rng = Rng(0x5eed_cafe);
    let index = index(&mut rng);
    // Tiny segments: the mix seals tails, rebuilds interior segments and
    // compacts the stack many times over.
    let config = SegmentConfig {
        block_len: 3,
        tail_threshold: 2,
        max_segment_elems: 12,
        max_segments: 2,
        max_payload_bytes: u32::MAX as usize,
    };
    let oracle = SingleMutexStore::new(index.clone());
    let store = SpillStore::resident(index, 2, config).unwrap();
    assert!(store.page_file_paths().is_empty());
    assert!(store.wal_paths().is_empty());
    assert!(!store.is_durable());

    for _ in 0..400 {
        let list = MergedListId(rng.next(NUM_LISTS));
        if rng.next(3) == 0 {
            let e = element(&mut rng);
            assert_eq!(
                store.insert(list, e.clone()).unwrap(),
                oracle.insert(list, e).unwrap()
            );
            continue;
        }
        let groups: Vec<GroupId> = (0..4).filter(|_| rng.next(2) == 0).map(GroupId).collect();
        let fetch = RangedFetch {
            list,
            offset: rng.next(30) as usize,
            count: 1 + rng.next(6) as usize,
        };
        let batch = store.fetch_ranged(&fetch, Some(&groups)).unwrap();
        assert_eq!(batch, oracle.fetch_ranged(&fetch, Some(&groups)).unwrap());
        if !batch.exhausted {
            let delivered = fetch.offset + batch.elements.len();
            let cursor = store
                .open_cursor(list, 7, &batch, delivered, Some(&groups))
                .unwrap();
            let more = store.cursor_fetch(cursor, 7, 4, Some(&groups)).unwrap();
            assert_eq!(more.visible_total, batch.visible_total);
            store.close_cursor(cursor, 7);
        }
    }
    // Maintenance entry points are no-ops, not errors.
    store.checkpoint().unwrap();
    assert!(!store.compact_shard(0).unwrap());
    assert_eq!(store.retier_shard(0).unwrap(), (0, 0));
    assert!(store.budget_accounting_is_exact());

    let m = store.metrics();
    assert!(m.resident_bytes > 0 && m.lock_acquisitions > 0);
    assert_eq!(
        (m.spilled_bytes, m.page_faults, m.page_cache_hits),
        (0, 0, 0)
    );
    assert_eq!((m.page_file_bytes, m.dead_page_bytes), (0, 0));
    assert_eq!((m.promotions, m.demotions, m.compactions), (0, 0, 0));
    assert_eq!((m.wal_appends, m.wal_bytes, m.recovered_pages), (0, 0, 0));
    assert!(store.page_file_paths().is_empty());
    for l in 0..NUM_LISTS {
        let id = MergedListId(l);
        assert_eq!(
            store.snapshot_list(id).unwrap(),
            oracle.snapshot_list(id).unwrap()
        );
    }
}
