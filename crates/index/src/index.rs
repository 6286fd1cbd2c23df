//! The ordinary inverted index (the paper's non-confidential baseline).
//!
//! This is the index of Figure 1: one posting list per term, every posting
//! element carries the relevance score in the clear, lists are sorted by
//! descending score so the server can answer a top-k query by returning the
//! first `k` elements.  It provides the "ordinary inverted index" reference
//! point used throughout Section 6 (storage overhead, bandwidth, response
//! sizes).

use std::collections::{BTreeMap, HashMap};

use zerber_corpus::{Corpus, DocId, TermId};

use crate::error::IndexError;
use crate::posting::{Posting, PostingList};
use crate::score::normalized_tf;
use crate::size::IndexSizeReport;
use crate::topk::{ScoredDoc, TopK};

/// An immutable-by-default, updatable inverted index.
///
/// Posting lists are kept in a `BTreeMap` so every iteration — size reports,
/// [`InvertedIndex::lists`], storage-overhead tables — visits terms in
/// ascending `TermId` order and the reported output is identical across runs
/// (a `HashMap` here leaked its random iteration order into the harness
/// output).
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    lists: BTreeMap<TermId, PostingList>,
    doc_lengths: HashMap<DocId, u32>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Builds the index from a corpus using normalized-TF scoring
    /// (Equation 4), the model Zerber+R assumes.
    pub fn build(corpus: &Corpus) -> Self {
        let mut index = InvertedIndex::new();
        for (doc_id, doc) in corpus.docs() {
            index.doc_lengths.insert(doc_id, doc.length);
            for &(term, tf) in &doc.term_counts {
                let score = normalized_tf(tf, doc.length);
                index
                    .lists
                    .entry(term)
                    .or_default()
                    .insert(Posting::new(doc_id, tf, score));
            }
        }
        index
    }

    /// Number of terms with a non-empty posting list.
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Total number of posting elements.
    pub fn num_postings(&self) -> usize {
        self.lists.values().map(PostingList::len).sum()
    }

    /// Document frequency `n_d(t)` of a term (0 if not indexed).
    pub fn doc_freq(&self, term: TermId) -> usize {
        self.lists.get(&term).map_or(0, PostingList::len)
    }

    /// The posting list of a term.
    pub fn posting_list(&self, term: TermId) -> Option<&PostingList> {
        self.lists.get(&term)
    }

    /// Iterates over `(TermId, &PostingList)` pairs in ascending term order.
    pub fn lists(&self) -> impl Iterator<Item = (TermId, &PostingList)> {
        self.lists.iter().map(|(&t, l)| (t, l))
    }

    /// Known length of a document (terms with multiplicity).
    pub fn doc_length(&self, doc: DocId) -> Option<u32> {
        self.doc_lengths.get(&doc).copied()
    }

    /// Adds a single document given its term counts.  Models the incremental
    /// inserts of the collaborative scenario.
    pub fn insert_document(&mut self, doc: DocId, term_counts: &[(TermId, u32)]) {
        let length: u32 = term_counts.iter().map(|&(_, c)| c).sum();
        self.doc_lengths.insert(doc, length);
        for &(term, tf) in term_counts {
            let score = normalized_tf(tf, length);
            self.lists
                .entry(term)
                .or_default()
                .insert(Posting::new(doc, tf, score));
        }
    }

    /// Answers a single-term top-k query: the `k` highest-scored posting
    /// elements of the term's list.
    pub fn query_term(&self, term: TermId, k: usize) -> Result<Vec<Posting>, IndexError> {
        if k == 0 {
            return Err(IndexError::InvalidQuery("k must be greater than 0".into()));
        }
        let list = self
            .lists
            .get(&term)
            .ok_or_else(|| IndexError::TermNotIndexed(format!("{term}")))?;
        Ok(list.top_k(k).to_vec())
    }

    /// Answers a multi-term query by summing per-term scores
    /// (term-at-a-time accumulation), returning the top-k documents.
    ///
    /// This is what an ordinary search engine does with Equation 3; the
    /// confidential index instead executes a sequence of single-term queries
    /// (Section 3.2), which is compared against this exact result in the
    /// accuracy experiments.
    pub fn query_multi(&self, terms: &[TermId], k: usize) -> Result<Vec<ScoredDoc>, IndexError> {
        if k == 0 {
            return Err(IndexError::InvalidQuery("k must be greater than 0".into()));
        }
        if terms.is_empty() {
            return Err(IndexError::InvalidQuery("empty query".into()));
        }
        // Accumulate in doc-id order: pushing ties into the top-k heap in
        // HashMap order made equal-score results flip between runs.
        let mut acc: BTreeMap<DocId, f64> = BTreeMap::new();
        for &term in terms {
            if let Some(list) = self.lists.get(&term) {
                for p in list.iter() {
                    *acc.entry(p.doc).or_insert(0.0) += p.score;
                }
            }
        }
        let mut topk = TopK::new(k);
        for (doc, score) in acc {
            topk.push(ScoredDoc::new(doc, score));
        }
        Ok(topk.into_sorted())
    }

    /// Computes the storage-size report used by the Section 6.3 experiment.
    pub fn size_report(&self) -> IndexSizeReport {
        IndexSizeReport::measure(self.lists.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_corpus::{CorpusBuilder, Document, GroupId};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        // Mirrors the example of Figures 1-3: "and" is frequent, "imclone" rare.
        b.add_document(Document::new(
            "1.txt",
            GroupId(0),
            "imclone and imclone and no",
        ))
        .unwrap();
        b.add_document(Document::new(
            "2.doc",
            GroupId(0),
            "and and and and process",
        ))
        .unwrap();
        b.add_document(Document::new(
            "3.txt",
            GroupId(1),
            "process imclone process",
        ))
        .unwrap();
        b.build()
    }

    #[test]
    fn build_indexes_every_posting_once() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let expected: usize = c.docs().map(|(_, d)| d.distinct_terms()).sum();
        assert_eq!(idx.num_postings(), expected);
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.num_terms(), c.num_terms());
    }

    #[test]
    fn single_term_query_returns_descending_scores() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let and = c.dictionary().get("and").unwrap();
        let res = idx.query_term(and, 2).unwrap();
        assert_eq!(res.len(), 2);
        assert!(res[0].score >= res[1].score);
        // 2.doc has 4/5 = 0.8, 1.txt has 2/5 = 0.4.
        assert_eq!(res[0].doc, DocId(1));
        assert!((res[0].score - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unknown_term_or_zero_k_is_an_error() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let and = c.dictionary().get("and").unwrap();
        assert!(matches!(
            idx.query_term(TermId(4242), 5),
            Err(IndexError::TermNotIndexed(_))
        ));
        assert!(matches!(
            idx.query_term(and, 0),
            Err(IndexError::InvalidQuery(_))
        ));
    }

    #[test]
    fn multi_term_query_accumulates_scores() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let and = c.dictionary().get("and").unwrap();
        let imclone = c.dictionary().get("imclone").unwrap();
        let res = idx.query_multi(&[and, imclone], 3).unwrap();
        // 1.txt: 0.4 + 0.4 = 0.8 ; 2.doc: 0.8 ; 3.txt: 1/3.
        assert_eq!(res.len(), 3);
        assert!((res[0].score - 0.8).abs() < 1e-12);
        assert!(res[2].score < res[1].score);
    }

    #[test]
    fn multi_term_query_with_unknown_terms_ignores_them() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let and = c.dictionary().get("and").unwrap();
        let res = idx.query_multi(&[and, TermId(999)], 10).unwrap();
        assert_eq!(res.len(), idx.doc_freq(and));
    }

    #[test]
    fn insert_document_updates_lists() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        let imclone = c.dictionary().get("imclone").unwrap();
        let before = idx.doc_freq(imclone);
        idx.insert_document(DocId(100), &[(imclone, 3)]);
        assert_eq!(idx.doc_freq(imclone), before + 1);
        assert_eq!(idx.doc_length(DocId(100)), Some(3));
        // New doc has relevance 1.0 and must rank first.
        let top = idx.query_term(imclone, 1).unwrap();
        assert_eq!(top[0].doc, DocId(100));
    }

    #[test]
    fn lists_iterate_in_ascending_term_order() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let order: Vec<TermId> = idx.lists().map(|(t, _)| t).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(
            order, sorted,
            "size reports must visit terms in a fixed order"
        );
        // Rebuilding yields the identical traversal (no hash-order leakage).
        let again: Vec<TermId> = InvertedIndex::build(&c).lists().map(|(t, _)| t).collect();
        assert_eq!(order, again);
    }

    #[test]
    fn size_report_counts_postings() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let report = idx.size_report();
        assert_eq!(report.num_postings, idx.num_postings());
        assert!(report.plain_bytes > 0);
        assert!(report.compressed_bytes > 0);
    }
}
