//! Posting elements and posting lists of the ordinary inverted index.
//!
//! Figure 1 of the paper: an inverted index is a sequence of posting lists;
//! every posting element represents one document containing the term and
//! carries the relevance score used for ranking.  Elements are kept sorted by
//! descending score so that top-k queries can prune low-scored elements.

use serde::{Deserialize, Serialize};
use zerber_corpus::DocId;

/// One posting element: a document reference plus ranking information.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Posting {
    /// The referenced document.
    pub doc: DocId,
    /// Raw term frequency `TF` of the term in the document.
    pub tf: u32,
    /// Relevance score used for ranking (normalized TF by default,
    /// Equation 4 of the paper).
    pub score: f64,
}

impl Posting {
    /// Creates a posting element.
    pub fn new(doc: DocId, tf: u32, score: f64) -> Self {
        Posting { doc, tf, score }
    }
}

/// A posting list sorted by descending relevance score.
///
/// Ties are broken by ascending document id so that ordering is total and
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PostingList {
    postings: Vec<Posting>,
}

impl PostingList {
    /// Creates an empty posting list.
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Creates a posting list from unsorted elements.
    pub fn from_postings(mut postings: Vec<Posting>) -> Self {
        sort_by_score(&mut postings);
        PostingList { postings }
    }

    /// Creates a posting list from elements already in descending-score
    /// order, preserving their exact sequence (ties keep the given order).
    ///
    /// Used by the order-exact codec in [`crate::compress`], where re-sorting
    /// could reshuffle postings whose scores became equal under quantization.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the elements are not score-descending.
    pub fn from_sorted_postings(postings: Vec<Posting>) -> Self {
        debug_assert!(
            postings.windows(2).all(|w| w[0].score >= w[1].score),
            "postings must be in descending-score order"
        );
        PostingList { postings }
    }

    /// Number of posting elements (the document frequency of the term).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Returns `true` if the list has no elements.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// The elements in descending-score order.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// The `k` highest-scored elements (fewer if the list is shorter).
    pub fn top_k(&self, k: usize) -> &[Posting] {
        &self.postings[..k.min(self.postings.len())]
    }

    /// Inserts one element, keeping the descending-score order.
    ///
    /// Insertion is `O(n)`; it models the incremental index updates of the
    /// collaborative scenario (Section 5 of the paper) where single posting
    /// elements arrive as documents are added.
    pub fn insert(&mut self, p: Posting) {
        let pos = self.postings.partition_point(|q| {
            (q.score, std::cmp::Reverse(q.doc)) > (p.score, std::cmp::Reverse(p.doc))
        });
        self.postings.insert(pos, p);
    }

    /// Looks up the posting for `doc`, if present.
    pub fn find(&self, doc: DocId) -> Option<&Posting> {
        self.postings.iter().find(|p| p.doc == doc)
    }

    /// Iterates over the elements in descending-score order.
    pub fn iter(&self) -> impl Iterator<Item = &Posting> {
        self.postings.iter()
    }
}

/// Sorts postings by `(score desc, doc id asc)`.
pub(crate) fn sort_by_score(postings: &mut [Posting]) {
    postings.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(doc: u32, tf: u32, score: f64) -> Posting {
        Posting::new(DocId(doc), tf, score)
    }

    #[test]
    fn from_postings_sorts_by_descending_score() {
        let list = PostingList::from_postings(vec![p(1, 3, 0.3), p(2, 5, 0.5), p(3, 2, 0.2)]);
        let scores: Vec<f64> = list.iter().map(|q| q.score).collect();
        assert_eq!(scores, vec![0.5, 0.3, 0.2]);
    }

    #[test]
    fn ties_are_broken_by_doc_id() {
        let list = PostingList::from_postings(vec![p(9, 1, 0.4), p(2, 1, 0.4), p(5, 1, 0.4)]);
        let docs: Vec<u32> = list.iter().map(|q| q.doc.0).collect();
        assert_eq!(docs, vec![2, 5, 9]);
    }

    #[test]
    fn top_k_returns_at_most_k_elements() {
        let list = PostingList::from_postings(vec![p(1, 1, 0.1), p(2, 2, 0.2), p(3, 3, 0.3)]);
        assert_eq!(list.top_k(2).len(), 2);
        assert_eq!(list.top_k(2)[0].doc, DocId(3));
        assert_eq!(list.top_k(10).len(), 3);
        assert!(list.top_k(0).is_empty());
    }

    #[test]
    fn insert_keeps_the_order_invariant() {
        let mut list = PostingList::new();
        for (i, s) in [0.2, 0.9, 0.5, 0.7, 0.1].iter().enumerate() {
            list.insert(p(i as u32, 1, *s));
        }
        let scores: Vec<f64> = list.iter().map(|q| q.score).collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.5, 0.2, 0.1]);
        assert_eq!(list.len(), 5);
    }

    #[test]
    fn find_locates_postings_by_doc() {
        let list = PostingList::from_postings(vec![p(1, 1, 0.1), p(2, 2, 0.2)]);
        assert_eq!(list.find(DocId(2)).map(|q| q.tf), Some(2));
        assert!(list.find(DocId(3)).is_none());
    }

    #[test]
    fn empty_list_behaves() {
        let list = PostingList::new();
        assert!(list.is_empty());
        assert!(list.top_k(5).is_empty());
        assert!(list.find(DocId(0)).is_none());
    }
}
