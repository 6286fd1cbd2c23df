//! Seeded op streams.
//!
//! The deployment (corpus, index, query-log popularity) is fixed; `--seed`
//! decides the traffic: which pool entry each caller sends next and which
//! documents the writer inserts.  Streams are generated in set-up, one per
//! caller (`lane`), and the program under test only ever sees their content.

use zerber_corpus::{DocId, GroupId, TermId};
use zerber_crypto::{DeterministicRng, Sha256};

/// Postings per inserted document.
pub const POSTINGS_PER_DOC: usize = 4;

/// Document ids of inserted documents start here, far above the corpus.
pub const FIRST_INSERTED_DOC: u32 = 1 << 30;

/// An independent generator for one `(seed, lane)` pair.
pub fn rng(seed: u64, lane: u64) -> DeterministicRng {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..].copy_from_slice(&lane.to_le_bytes());
    DeterministicRng::from_seed(Sha256::digest(&bytes))
}

/// `count` uniform draws from `0..choices`.  Drawing uniformly from a pool
/// that was itself sampled from the query-log distribution reproduces that
/// distribution.
pub fn picks(seed: u64, lane: u64, choices: usize, count: usize) -> Vec<u32> {
    let mut rng = rng(seed, lane);
    (0..count)
        .map(|_| rng.next_below(choices as u64) as u32)
        .collect()
}

/// One document the writer inserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocOp {
    pub doc: DocId,
    pub group: GroupId,
    /// Distinct terms with their term frequencies.
    pub term_counts: Vec<(TermId, u32)>,
}

/// `count` documents of [`POSTINGS_PER_DOC`] distinct terms each, the terms
/// drawn from `term_pool` (query-log distribution), ids from `first_doc` up.
pub fn documents(
    seed: u64,
    lane: u64,
    term_pool: &[TermId],
    num_groups: u32,
    first_doc: u32,
    count: usize,
) -> Vec<DocOp> {
    let mut rng = rng(seed, lane);
    (0..count)
        .map(|i| {
            let mut term_counts: Vec<(TermId, u32)> = Vec::with_capacity(POSTINGS_PER_DOC);
            while term_counts.len() < POSTINGS_PER_DOC {
                let term = term_pool[rng.next_below(term_pool.len() as u64) as usize];
                if term_counts.iter().all(|&(t, _)| t != term) {
                    term_counts.push((term, 1 + rng.next_below(5) as u32));
                }
            }
            DocOp {
                doc: DocId(first_doc + i as u32),
                group: GroupId(rng.next_below(u64::from(num_groups)) as u32),
                term_counts,
            }
        })
        .collect()
}

/// FNV-1a over a stream of words; identifies an op stream in the output.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn picks(&mut self, picks: &[u32]) {
        for &p in picks {
            self.word(u64::from(p));
        }
    }

    pub fn documents(&mut self, docs: &[DocOp]) {
        for d in docs {
            self.word(u64::from(d.doc.0));
            self.word(u64::from(d.group.0));
            for &(t, tf) in &d.term_counts {
                self.word(u64::from(t.0) << 32 | u64::from(tf));
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_hash(seed: u64) -> u64 {
        let pool: Vec<TermId> = (0..500).map(TermId).collect();
        let mut h = StreamHash::default();
        for lane in 0..2 {
            h.picks(&picks(seed, lane, 4_000, 2_000));
        }
        h.documents(&documents(seed, 9, &pool, 7, FIRST_INSERTED_DOC, 300));
        h.value()
    }

    #[test]
    fn same_seed_gives_the_same_op_stream() {
        assert_eq!(stream_hash(42), stream_hash(42));
        assert_eq!(picks(1, 0, 10, 50), picks(1, 0, 10, 50));
    }

    #[test]
    fn another_seed_or_lane_gives_another_stream() {
        assert_ne!(stream_hash(42), stream_hash(43));
        assert_ne!(picks(1, 0, 1_000, 50), picks(1, 1, 1_000, 50));
    }

    #[test]
    fn documents_have_distinct_terms_and_valid_fields() {
        let pool: Vec<TermId> = (0..40).map(TermId).collect();
        for d in documents(3, 0, &pool, 5, 100, 200) {
            assert_eq!(d.term_counts.len(), POSTINGS_PER_DOC);
            let mut terms: Vec<u32> = d.term_counts.iter().map(|t| t.0 .0).collect();
            terms.sort_unstable();
            terms.dedup();
            assert_eq!(terms.len(), POSTINGS_PER_DOC);
            assert!(d.group.0 < 5);
            assert!(d.doc.0 >= 100);
            assert!(d.term_counts.iter().all(|&(_, tf)| (1..=5).contains(&tf)));
        }
        assert!(picks(3, 0, 17, 1_000).iter().all(|&p| p < 17));
    }
}
