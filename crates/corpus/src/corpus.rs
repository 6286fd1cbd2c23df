//! In-memory corpus: tokenized documents plus the shared term dictionary.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::dictionary::{TermDictionary, TermId};
use crate::doc::{DocId, Document, GroupId};
use crate::error::CorpusError;
use crate::tokenize::Tokenizer;

/// A tokenized document stored inside a [`Corpus`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DocumentEntry {
    /// External name of the document (unique within the corpus).
    pub name: String,
    /// Access-control group.
    pub group: GroupId,
    /// Document length `|d|` in terms (with multiplicity), the denominator of
    /// Equation 4 in the paper.
    pub length: u32,
    /// Term frequencies `TF_t(d)`, sorted by term id.
    pub term_counts: Vec<(TermId, u32)>,
}

impl DocumentEntry {
    /// Term frequency of `term` in this document (0 if absent).
    pub fn tf(&self, term: TermId) -> u32 {
        self.term_counts
            .binary_search_by_key(&term, |&(t, _)| t)
            .map(|i| self.term_counts[i].1)
            .unwrap_or(0)
    }

    /// Relevance score of `term` for this document, `TF / |d|` (Equation 4).
    pub fn relevance(&self, term: TermId) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        f64::from(self.tf(term)) / f64::from(self.length)
    }

    /// Number of distinct terms in the document.
    pub fn distinct_terms(&self) -> usize {
        self.term_counts.len()
    }
}

/// A fully built, immutable corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    dictionary: TermDictionary,
    docs: Vec<DocumentEntry>,
    num_groups: u32,
}

impl Corpus {
    /// Number of documents `|D|`.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of distinct terms in the corpus.
    pub fn num_terms(&self) -> usize {
        self.dictionary.len()
    }

    /// Number of access-control groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups as usize
    }

    /// The shared term dictionary.
    pub fn dictionary(&self) -> &TermDictionary {
        &self.dictionary
    }

    /// Returns a document by id.
    pub fn doc(&self, id: DocId) -> Result<&DocumentEntry, CorpusError> {
        self.docs
            .get(id.index())
            .ok_or(CorpusError::UnknownDocument(id.0))
    }

    /// Iterates over `(DocId, &DocumentEntry)` pairs in id order.
    pub fn docs(&self) -> impl Iterator<Item = (DocId, &DocumentEntry)> {
        self.docs
            .iter()
            .enumerate()
            .map(|(i, d)| (DocId(i as u32), d))
    }

    /// All document ids.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        (0..self.docs.len() as u32).map(DocId)
    }

    /// Total number of term occurrences (sum of document lengths).
    pub fn total_tokens(&self) -> u64 {
        self.docs.iter().map(|d| u64::from(d.length)).sum()
    }

    /// Relevance score (Equation 4) of a `(term, doc)` pair.
    pub fn relevance(&self, term: TermId, doc: DocId) -> Result<f64, CorpusError> {
        Ok(self.doc(doc)?.relevance(term))
    }

    /// Returns the documents belonging to `group`.
    pub fn docs_in_group(&self, group: GroupId) -> Vec<DocId> {
        self.docs()
            .filter(|(_, d)| d.group == group)
            .map(|(id, _)| id)
            .collect()
    }
}

/// Incremental corpus builder.
///
/// ```
/// use zerber_corpus::{CorpusBuilder, Document, GroupId};
///
/// let mut b = CorpusBuilder::new();
/// b.add_document(Document::new("1.txt", GroupId(0), "imclone and synthesis and")).unwrap();
/// b.add_document(Document::new("2.doc", GroupId(0), "and and and process")).unwrap();
/// let corpus = b.build();
/// assert_eq!(corpus.num_docs(), 2);
/// let and = corpus.dictionary().get("and").unwrap();
/// assert_eq!(corpus.doc(zerber_corpus::DocId(1)).unwrap().tf(and), 3);
/// ```
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    tokenizer: Tokenizer,
    dictionary: TermDictionary,
    docs: Vec<DocumentEntry>,
    names: HashMap<String, DocId>,
    max_group: u32,
}

impl CorpusBuilder {
    /// Creates a builder with the default tokenizer.
    pub fn new() -> Self {
        CorpusBuilder::default()
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Returns `true` if no documents were added yet.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Tokenizes and adds a raw document, returning its id.
    ///
    /// Fails with [`CorpusError::DuplicateDocument`] if the name was already
    /// used and with [`CorpusError::EmptyDocument`] if tokenization produced
    /// no terms.
    pub fn add_document(&mut self, doc: Document) -> Result<DocId, CorpusError> {
        if self.names.contains_key(&doc.name) {
            return Err(CorpusError::DuplicateDocument(doc.name));
        }
        let counts = self.tokenizer.term_counts(&doc.body);
        if counts.is_empty() {
            return Err(CorpusError::EmptyDocument(doc.name));
        }
        let mut term_counts: Vec<(TermId, u32)> = counts
            .into_iter()
            .map(|(term, c)| (self.dictionary.intern(&term), c))
            .collect();
        term_counts.sort_unstable_by_key(|&(t, _)| t);
        let length = term_counts.iter().map(|&(_, c)| c).sum();
        let id = DocId(self.docs.len() as u32);
        self.max_group = self.max_group.max(doc.group.0 + 1);
        self.names.insert(doc.name.clone(), id);
        self.docs.push(DocumentEntry {
            name: doc.name,
            group: doc.group,
            length,
            term_counts,
        });
        Ok(id)
    }

    /// Adds a pre-tokenized document given as `(term, count)` pairs.
    ///
    /// Used by the synthetic generators, which produce term counts directly
    /// without materializing a text body.
    pub fn add_counted_document(
        &mut self,
        name: impl Into<String>,
        group: GroupId,
        counts: &[(String, u32)],
    ) -> Result<DocId, CorpusError> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(CorpusError::DuplicateDocument(name));
        }
        if counts.iter().all(|&(_, c)| c == 0) || counts.is_empty() {
            return Err(CorpusError::EmptyDocument(name));
        }
        let mut merged: HashMap<TermId, u32> = HashMap::with_capacity(counts.len());
        for (term, c) in counts {
            if *c == 0 {
                continue;
            }
            *merged.entry(self.dictionary.intern(term)).or_insert(0) += c;
        }
        let mut term_counts: Vec<(TermId, u32)> = merged.into_iter().collect();
        term_counts.sort_unstable_by_key(|&(t, _)| t);
        let length = term_counts.iter().map(|&(_, c)| c).sum();
        let id = DocId(self.docs.len() as u32);
        self.max_group = self.max_group.max(group.0 + 1);
        self.names.insert(name.clone(), id);
        self.docs.push(DocumentEntry {
            name,
            group,
            length,
            term_counts,
        });
        Ok(id)
    }

    /// Finishes building and returns the immutable corpus.
    pub fn build(self) -> Corpus {
        Corpus {
            dictionary: self.dictionary,
            docs: self.docs,
            num_groups: self.max_group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_document(Document::new(
            "1.txt",
            GroupId(0),
            "imclone and imclone synthesis and",
        ))
        .unwrap();
        b.add_document(Document::new(
            "2.doc",
            GroupId(1),
            "and and and and process",
        ))
        .unwrap();
        b.add_document(Document::new("3.txt", GroupId(0), "management synthesis"))
            .unwrap();
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_doc_ids() {
        let mut b = CorpusBuilder::new();
        let a = b
            .add_document(Document::new("a", GroupId(0), "x y"))
            .unwrap();
        let c = b.add_document(Document::new("b", GroupId(0), "z")).unwrap();
        assert_eq!(a, DocId(0));
        assert_eq!(c, DocId(1));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = CorpusBuilder::new();
        b.add_document(Document::new("a", GroupId(0), "x")).unwrap();
        let err = b
            .add_document(Document::new("a", GroupId(0), "y"))
            .unwrap_err();
        assert_eq!(err, CorpusError::DuplicateDocument("a".into()));
    }

    #[test]
    fn empty_documents_are_rejected() {
        let mut b = CorpusBuilder::new();
        let err = b
            .add_document(Document::new("e", GroupId(0), "  .,  "))
            .unwrap_err();
        assert_eq!(err, CorpusError::EmptyDocument("e".into()));
    }

    #[test]
    fn term_frequencies_and_lengths_match_the_text() {
        let c = small_corpus();
        let imclone = c.dictionary().get("imclone").unwrap();
        let and = c.dictionary().get("and").unwrap();
        let d0 = c.doc(DocId(0)).unwrap();
        let d1 = c.doc(DocId(1)).unwrap();
        assert_eq!(d0.tf(imclone), 2);
        assert_eq!(d0.tf(and), 2);
        assert_eq!(d0.length, 5);
        assert_eq!(d1.tf(and), 4);
        assert_eq!(d1.tf(imclone), 0);
        assert_eq!(d1.length, 5);
    }

    #[test]
    fn relevance_is_tf_over_length() {
        let c = small_corpus();
        let and = c.dictionary().get("and").unwrap();
        assert!((c.relevance(and, DocId(0)).unwrap() - 2.0 / 5.0).abs() < 1e-12);
        assert!((c.relevance(and, DocId(1)).unwrap() - 4.0 / 5.0).abs() < 1e-12);
        // Figure 3 of the paper: "and" in 2.doc has the higher TF, so sorting
        // by raw relevance would put 2.doc ahead of 1.txt.
        assert!(c.relevance(and, DocId(1)).unwrap() > c.relevance(and, DocId(0)).unwrap());
    }

    #[test]
    fn unknown_document_lookup_fails() {
        let c = small_corpus();
        assert!(matches!(
            c.doc(DocId(99)),
            Err(CorpusError::UnknownDocument(99))
        ));
    }

    #[test]
    fn groups_are_counted_and_filterable() {
        let c = small_corpus();
        assert_eq!(c.num_groups(), 2);
        assert_eq!(c.docs_in_group(GroupId(0)), vec![DocId(0), DocId(2)]);
        assert_eq!(c.docs_in_group(GroupId(1)), vec![DocId(1)]);
    }

    #[test]
    fn counted_documents_merge_duplicate_terms() {
        let mut b = CorpusBuilder::new();
        let id = b
            .add_counted_document(
                "synth-0",
                GroupId(0),
                &[("alpha".into(), 2), ("alpha".into(), 3), ("beta".into(), 1)],
            )
            .unwrap();
        let c = b.build();
        let alpha = c.dictionary().get("alpha").unwrap();
        assert_eq!(c.doc(id).unwrap().tf(alpha), 5);
        assert_eq!(c.doc(id).unwrap().length, 6);
    }

    #[test]
    fn counted_documents_reject_all_zero_counts() {
        let mut b = CorpusBuilder::new();
        let err = b
            .add_counted_document("z", GroupId(0), &[("alpha".into(), 0)])
            .unwrap_err();
        assert!(matches!(err, CorpusError::EmptyDocument(_)));
    }

    #[test]
    fn total_tokens_sums_document_lengths() {
        let c = small_corpus();
        assert_eq!(c.total_tokens(), 5 + 5 + 2);
    }
}
