//! Top-k query answering (Section 5.2).
//!
//! The client asks the server for the merged posting list containing the
//! queried term together with `k`.  The server returns the `b` highest-TRS
//! elements the user may access (initial response size).  The client decrypts
//! them, keeps those matching the queried term, and — if it still has fewer
//! than `k` — issues follow-up requests.  Zerber+R doubles the response size
//! with every follow-up so the number of round trips stays small and leaks
//! little about the queried term's rarity.
//!
//! [`RetrievalRun`] is that client half for one term, written once:
//! [`retrieve_topk`] drives it over an in-memory [`OrderedIndex`],
//! `zerber_protocol`'s `Client` over the wire, and both merge multi-term
//! rankings with [`merge_rankings`].

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use zerber_base::{EncryptedElement, MergePlan, MergedListId};
use zerber_corpus::{DocId, GroupId, TermId};
use zerber_crypto::GroupKeys;

use crate::error::ZerberRError;
use crate::index::OrderedIndex;

/// Parameters of a top-k retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrievalConfig {
    /// Number of results the user wants.
    pub k: usize,
    /// Initial response size `b` (the paper's sweet spot is `b = k`,
    /// Section 6.4).
    pub initial_response: usize,
}

impl RetrievalConfig {
    /// Creates a configuration with the paper's default `b = k` and doubling
    /// follow-ups.
    pub fn for_k(k: usize) -> Self {
        RetrievalConfig {
            k,
            initial_response: k,
        }
    }

    /// Size of the `i`-th request (0 = initial request): `b`, then `2b`,
    /// then `4b`, ... (Equation 12), saturating at `usize::MAX` once
    /// doubling outgrows the word.
    pub fn request_size(&self, i: usize) -> usize {
        u32::try_from(i)
            .ok()
            .and_then(|i| 1usize.checked_shl(i))
            .map_or(usize::MAX, |factor| {
                self.initial_response.saturating_mul(factor)
            })
    }
}

/// Outcome of one top-k retrieval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrievalOutcome {
    /// Ranked `(doc, raw relevance)` results of the queried term, best first,
    /// at most `k` entries.
    pub results: Vec<(DocId, f64)>,
    /// Total number of requests sent (initial + follow-ups).
    pub requests: usize,
    /// Total number of posting elements transferred to the client
    /// (`TRes` of Equation 12).
    pub elements_transferred: usize,
    /// Whether the full `k` results were found before the list was exhausted.
    pub satisfied: bool,
}

/// The client half of one single-term retrieval: the caller fetches, the
/// run decides what to ask for next and when to stop.  The first request is
/// always sent; the run is done once it holds `k` results, has received
/// every element visible to the user, or got an empty response.
#[derive(Debug)]
pub struct RetrievalRun {
    term: TermId,
    list: MergedListId,
    config: RetrievalConfig,
    results: Vec<(DocId, f64)>,
    requests: usize,
    received: usize,
    done: bool,
}

impl RetrievalRun {
    /// Starts a run for `term`, addressed to its merged list under `plan`.
    pub fn new(
        plan: &MergePlan,
        term: TermId,
        config: &RetrievalConfig,
    ) -> Result<Self, ZerberRError> {
        if config.k == 0 || config.initial_response == 0 {
            let message = "k and the initial response size b must be greater than 0";
            return Err(ZerberRError::InvalidParameter(message.into()));
        }
        Ok(RetrievalRun {
            term,
            list: plan.list_of(term)?,
            config: *config,
            results: Vec::new(),
            requests: 0,
            received: 0,
            done: false,
        })
    }

    /// The merged list every request of the run addresses.
    pub fn list(&self) -> MergedListId {
        self.list
    }

    /// The configuration the run follows.
    pub fn config(&self) -> &RetrievalConfig {
        &self.config
    }

    /// Elements received so far: the offset of the next request.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Size of the next request.
    pub fn next_size(&self) -> usize {
        self.config.request_size(self.requests)
    }

    /// Whether the run needs no further request.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Absorbs one response: the user's visible element count and the
    /// `(group, ciphertext)` pairs, in TRS order, opened until `k` match the
    /// term.  A group `keys` lacks is skipped: the server should not send it.
    pub fn absorb<'a>(
        &mut self,
        visible_total: usize,
        elements: impl ExactSizeIterator<Item = (GroupId, &'a [u8])>,
        keys: &HashMap<GroupId, GroupKeys>,
    ) -> Result<(), ZerberRError> {
        self.requests += 1;
        self.received += elements.len();
        self.done = elements.len() == 0 || self.received >= visible_total;
        for (group, ciphertext) in elements {
            let Some(keys) = keys.get(&group) else {
                continue;
            };
            let payload = EncryptedElement::open_ciphertext(ciphertext, keys, self.list)?;
            if payload.term == self.term {
                self.results.push((payload.doc, payload.relevance()));
                if self.results.len() == self.config.k {
                    self.done = true;
                    break;
                }
            }
        }
        Ok(())
    }

    /// The run's outcome, results best first (elements of one term arrive
    /// in TRS order, which is relevance order, but the contract is explicit).
    pub fn finish(mut self) -> RetrievalOutcome {
        rank(&mut self.results);
        RetrievalOutcome {
            satisfied: self.results.len() >= self.config.k,
            results: self.results,
            requests: self.requests,
            elements_transferred: self.received,
        }
    }
}

/// Sorts `(doc, score)` pairs best first, ties by ascending doc id.
fn rank(results: &mut [(DocId, f64)]) {
    results.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
}

/// Merges per-term rankings into the top `k` of a multi-term query by
/// summed relevance (Section 3.2: Zerber+R deliberately omits IDF, trading a
/// little multi-term accuracy for confidentiality of collection statistics).
pub fn merge_rankings<'a>(
    rankings: impl IntoIterator<Item = &'a [(DocId, f64)]>,
    k: usize,
) -> Vec<(DocId, f64)> {
    let mut acc: HashMap<DocId, f64> = HashMap::new();
    for &(doc, rel) in rankings.into_iter().flatten() {
        *acc.entry(doc).or_insert(0.0) += rel;
    }
    let mut merged: Vec<(DocId, f64)> = acc.into_iter().collect();
    rank(&mut merged);
    merged.truncate(k);
    merged
}

/// A single-term top-k query as a [`RetrievalRun`] over
/// [`OrderedIndex::fetch`], restricted to (and decrypted with) the groups of
/// `memberships`.
pub fn retrieve_topk(
    index: &OrderedIndex,
    term: TermId,
    memberships: &HashMap<GroupId, GroupKeys>,
    config: &RetrievalConfig,
) -> Result<RetrievalOutcome, ZerberRError> {
    let mut run = RetrievalRun::new(index.plan(), term, config)?;
    let accessible: Vec<GroupId> = memberships.keys().copied().collect();
    let (list, groups) = (run.list(), Some(accessible.as_slice()));
    let visible_total = index.visible_len(list, groups)?;
    while !run.is_done() {
        let batch = index.fetch(list, run.received(), run.next_size(), groups)?;
        let elements = batch
            .iter()
            .map(|e| (e.group, e.sealed.ciphertext.as_slice()));
        run.absorb(visible_total, elements, memberships)?;
    }
    Ok(run.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::OrderedIndex;
    use crate::train::{RstfConfig, RstfModel};
    use zerber_base::{BfmMerge, ConfidentialityParam, MergeScheme};
    use zerber_corpus::{
        sample_split, Corpus, CorpusGenerator, CorpusStats, CustomProfile, DatasetProfile,
        SplitConfig, SynthConfig,
    };
    use zerber_crypto::MasterKey;
    use zerber_index::InvertedIndex;

    struct Fixture {
        corpus: Corpus,
        stats: CorpusStats,
        index: OrderedIndex,
        plain: InvertedIndex,
        memberships: HashMap<GroupId, GroupKeys>,
    }

    fn fixture() -> Fixture {
        let config = SynthConfig {
            profile: DatasetProfile::Custom(CustomProfile {
                num_docs: 300,
                num_groups: 3,
                vocab_size: 700,
                general_vocab_fraction: 0.5,
                topic_mix: 0.3,
                zipf_exponent: 1.0,
                doc_length_median: 70.0,
                doc_length_sigma: 0.6,
                min_doc_length: 15,
                max_doc_length: 350,
            }),
            scale: 1.0,
            seed: 1234,
        };
        let corpus = CorpusGenerator::new(config).generate().unwrap();
        let stats = CorpusStats::compute(&corpus);
        let split = sample_split(&corpus, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&corpus, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([8u8; 32]);
        let index = OrderedIndex::build(&corpus, plan, &model, &master, 55).unwrap();
        let plain = InvertedIndex::build(&corpus);
        let memberships: HashMap<GroupId, GroupKeys> = (0..corpus.num_groups() as u32)
            .map(|g| (GroupId(g), master.group_keys(g)))
            .collect();
        Fixture {
            corpus,
            stats,
            index,
            plain,
            memberships,
        }
    }

    #[test]
    fn retrieval_matches_the_plaintext_ranking() {
        let f = fixture();
        let k = 10;
        let config = RetrievalConfig::for_k(k);
        for &term in f.stats.terms_by_doc_freq().iter().take(20) {
            let outcome = retrieve_topk(&f.index, term, &f.memberships, &config).unwrap();
            let reference = f.plain.query_term(term, k).unwrap();
            assert_eq!(outcome.results.len(), reference.len().min(k), "term {term}");
            // Scores must match pairwise (document ties may reorder equal
            // scores, so compare the score multiset).
            let got: Vec<f64> = outcome.results.iter().map(|r| r.1).collect();
            let want: Vec<f64> = reference.iter().map(|p| p.score).collect();
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-9, "term {term}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn frequent_terms_are_satisfied_by_the_initial_response() {
        let f = fixture();
        let config = RetrievalConfig::for_k(10);
        let frequent = f.stats.terms_by_doc_freq()[0];
        let outcome = retrieve_topk(&f.index, frequent, &f.memberships, &config).unwrap();
        assert!(outcome.satisfied);
        assert!(
            outcome.requests <= 3,
            "a very frequent term should need few requests, got {}",
            outcome.requests
        );
    }

    #[test]
    fn rare_terms_need_more_requests_but_terminate() {
        let f = fixture();
        let config = RetrievalConfig::for_k(10);
        let order = f.stats.terms_by_doc_freq();
        let rare = *order.last().unwrap();
        let outcome = retrieve_topk(&f.index, rare, &f.memberships, &config).unwrap();
        // The rare term has fewer than k postings: the retrieval must stop
        // after exhausting the visible list without looping forever.
        assert!(!outcome.results.is_empty() || outcome.elements_transferred > 0);
        assert!(outcome.results.len() <= 10);
        if (f.stats.doc_freq(rare).unwrap() as usize) < 10 {
            assert!(!outcome.satisfied);
        }
    }

    #[test]
    fn runs_send_the_first_request_and_skip_groups_without_a_key() {
        let f = fixture();
        let config = RetrievalConfig::for_k(10);
        let term = f.stats.terms_by_doc_freq()[0];
        // An empty first response ends the run after exactly one request.
        let mut run = RetrievalRun::new(f.index.plan(), term, &config).unwrap();
        assert!(!run.is_done());
        assert_eq!(run.next_size(), 10);
        run.absorb(0, std::iter::empty(), &f.memberships).unwrap();
        assert!(run.is_done());
        let outcome = run.finish();
        assert_eq!((outcome.requests, outcome.elements_transferred), (1, 0));
        assert!(!outcome.satisfied);
        // Elements of a group the user holds no key for are skipped, not an
        // error: only group-0 documents make it into the results.
        let only_g0: HashMap<GroupId, GroupKeys> = f
            .memberships
            .iter()
            .filter(|(g, _)| g.0 == 0)
            .map(|(g, k)| (*g, k.clone()))
            .collect();
        let mut run = RetrievalRun::new(f.index.plan(), term, &config).unwrap();
        let list = run.list();
        let batch = f.index.fetch(list, 0, 200, None).unwrap();
        let elements = batch
            .iter()
            .map(|e| (e.group, e.sealed.ciphertext.as_slice()));
        run.absorb(batch.len(), elements, &only_g0).unwrap();
        assert_eq!(run.received(), batch.len());
        let outcome = run.finish();
        assert!(!outcome.results.is_empty());
        for &(doc, _) in &outcome.results {
            assert_eq!(f.corpus.doc(doc).unwrap().group, GroupId(0));
        }
    }

    #[test]
    fn membership_restriction_limits_results() {
        let f = fixture();
        let config = RetrievalConfig::for_k(10);
        let term = f.stats.terms_by_doc_freq()[0];
        let only_g0: HashMap<GroupId, GroupKeys> = f
            .memberships
            .iter()
            .filter(|(g, _)| g.0 == 0)
            .map(|(g, k)| (*g, k.clone()))
            .collect();
        let all = retrieve_topk(&f.index, term, &f.memberships, &config).unwrap();
        let restricted = retrieve_topk(&f.index, term, &only_g0, &config).unwrap();
        assert!(restricted.elements_transferred <= all.elements_transferred + 20);
        // Every restricted result must come from a group-0 document.
        for &(doc, _) in &restricted.results {
            assert_eq!(f.corpus.doc(doc).unwrap().group, GroupId(0));
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let f = fixture();
        let term = f.stats.terms_by_doc_freq()[0];
        assert!(retrieve_topk(
            &f.index,
            term,
            &f.memberships,
            &RetrievalConfig {
                k: 0,
                initial_response: 5,
            }
        )
        .is_err());
        assert!(retrieve_topk(
            &f.index,
            term,
            &f.memberships,
            &RetrievalConfig {
                k: 5,
                initial_response: 0,
            }
        )
        .is_err());
    }

    #[test]
    fn multi_term_queries_merge_single_term_results() {
        let f = fixture();
        let order = f.stats.terms_by_doc_freq();
        let config = RetrievalConfig::for_k(10);
        let per_term: Vec<RetrievalOutcome> = [order[0], order[1]]
            .iter()
            .map(|&t| retrieve_topk(&f.index, t, &f.memberships, &config).unwrap())
            .collect();
        let merged = merge_rankings(per_term.iter().map(|o| o.results.as_slice()), 10);
        assert!(merged.len() <= 10);
        assert!(merged.windows(2).all(|w| w[0].1 >= w[1].1));
        // A document found by both terms scores the sum of its relevances.
        for &(doc, score) in &merged {
            let found = per_term.iter().flat_map(|o| &o.results);
            let sum: f64 = found.filter(|r| r.0 == doc).map(|r| r.1).sum();
            assert!((score - sum).abs() < 1e-12, "doc {doc}");
        }
        assert!(merge_rankings([], 10).is_empty());
    }

    #[test]
    fn request_sizes_saturate_instead_of_dropping_high_bits() {
        let wide = RetrievalConfig {
            k: 1,
            initial_response: 1 << 32,
        };
        assert_eq!(wide.request_size(31), 1 << 63);
        assert_eq!(wide.request_size(32), usize::MAX);
        assert_eq!(wide.request_size(40), usize::MAX);
        assert_eq!(RetrievalConfig::for_k(1).request_size(63), 1 << 63);
        assert_eq!(RetrievalConfig::for_k(3).request_size(63), usize::MAX);
        assert_eq!(RetrievalConfig::for_k(1).request_size(200), usize::MAX);
    }

    #[test]
    fn request_size_grows_as_configured() {
        let c = RetrievalConfig {
            k: 10,
            initial_response: 10,
        };
        assert_eq!(c.request_size(0), 10);
        assert_eq!(c.request_size(1), 20);
        assert_eq!(c.request_size(2), 40);
        assert_eq!(RetrievalConfig::for_k(7).initial_response, 7);
    }
}
