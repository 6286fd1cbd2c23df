//! Score-distribution fingerprinting attack (Section 4.1, attack 1).
//!
//! "An adversary Alice could use relevance score distribution statistics to
//! extract specific features like score ranges, or score distribution
//! patterns for each particular term.  Alice could compare extracted features
//! with the relevance score distribution in the posting lists to find
//! correlations."
//!
//! The attack implemented here gives Alice generous background knowledge: the
//! true per-term relevance-score distribution of the corpus (e.g. from a
//! public crawl with similar language statistics, Section 3.1).  She then
//! observes the score values attached to posting elements — raw normalized
//! TF in an ordinary index, TRS in Zerber+R — and tries to identify which
//! candidate term produced them by minimising the two-sample
//! Kolmogorov–Smirnov distance.  The Zerber+R claim is that the TRS
//! distributions of different terms are indistinguishable, so her accuracy
//! collapses to random guessing.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zerber_corpus::{CorpusStats, TermId};
use zerber_r::math::ks_two_sample;

/// Alice's background knowledge: per-term reference score distributions.
#[derive(Debug, Clone, Default)]
pub struct Background {
    profiles: HashMap<TermId, Vec<f64>>,
}

impl Background {
    /// Builds background knowledge from corpus statistics (raw relevance
    /// scores per term).
    pub fn from_stats(stats: &CorpusStats) -> Self {
        let mut profiles = HashMap::with_capacity(stats.num_terms());
        for t in stats.terms() {
            profiles.insert(t.term, t.relevance_scores());
        }
        Background { profiles }
    }

    /// Builds background knowledge from arbitrary per-term observations
    /// (e.g. TRS values, for a strongest-case adversary who even knows the
    /// transformed distributions).
    pub fn from_observations(observations: &HashMap<TermId, Vec<f64>>) -> Self {
        Background {
            profiles: observations.clone(),
        }
    }

    /// Number of profiled terms.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` if no terms are profiled.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The reference distribution of a term.
    pub fn profile(&self, term: TermId) -> Option<&[f64]> {
        self.profiles.get(&term).map(Vec::as_slice)
    }

    /// Identifies which of `candidates` most likely produced `observed`
    /// (smallest KS distance).  Returns `None` when no candidate has a
    /// profile.
    pub fn identify(&self, observed: &[f64], candidates: &[TermId]) -> Option<TermId> {
        let mut best: Option<(TermId, f64)> = None;
        for &c in candidates {
            let Some(profile) = self.profiles.get(&c) else {
                continue;
            };
            let d = ks_two_sample(observed, profile);
            let better = match best {
                None => true,
                Some((_, bd)) => d < bd,
            };
            if better {
                best = Some((c, d));
            }
        }
        best.map(|(t, _)| t)
    }
}

/// Outcome of an identification experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintReport {
    /// Number of identification trials.
    pub trials: usize,
    /// Number of trials where the adversary named the correct term.
    pub correct: usize,
    /// Number of candidates per trial (the prior success probability is
    /// `1 / candidates`).
    pub candidates_per_trial: usize,
}

impl FingerprintReport {
    /// Identification accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.correct as f64 / self.trials as f64
    }

    /// The accuracy of blind guessing.
    pub fn chance_level(&self) -> f64 {
        if self.candidates_per_trial == 0 {
            return 0.0;
        }
        1.0 / self.candidates_per_trial as f64
    }

    /// How much better than guessing the adversary did (1.0 = no advantage).
    pub fn advantage(&self) -> f64 {
        let chance = self.chance_level();
        if chance == 0.0 {
            return 0.0;
        }
        self.accuracy() / chance
    }
}

/// Runs the identification experiment.
///
/// For every term in `observations` (the values Alice can read off the
/// index — raw scores or TRS), the adversary is shown the observed values and
/// a candidate set consisting of the true term plus `num_distractors`
/// randomly drawn other terms; she answers with [`Background::identify`].
pub fn identification_experiment(
    background: &Background,
    observations: &HashMap<TermId, Vec<f64>>,
    num_distractors: usize,
    min_observations: usize,
    seed: u64,
) -> FingerprintReport {
    let mut rng = StdRng::seed_from_u64(seed);
    // Sorted: the distractor pool below is shuffled from this order, and a
    // `HashMap`'s key order would make the drawn candidates differ run to run.
    let mut ordered: Vec<TermId> = observations.keys().copied().collect();
    ordered.sort();
    let mut trials = 0usize;
    let mut correct = 0usize;
    for &term in &ordered {
        let observed = &observations[&term];
        if observed.len() < min_observations {
            continue;
        }
        let mut candidates = vec![term];
        let mut pool: Vec<TermId> = ordered.iter().copied().filter(|&t| t != term).collect();
        pool.shuffle(&mut rng);
        candidates.extend(pool.into_iter().take(num_distractors));
        candidates.shuffle(&mut rng);
        if let Some(guess) = background.identify(observed, &candidates) {
            trials += 1;
            if guess == term {
                correct += 1;
            }
        }
    }
    FingerprintReport {
        trials,
        correct,
        candidates_per_trial: num_distractors + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_corpus::{sample_split, SplitConfig};
    use zerber_corpus::{CorpusGenerator, CustomProfile, DatasetProfile, SynthConfig};
    use zerber_r::{RstfConfig, RstfModel};

    fn stats() -> (zerber_corpus::Corpus, CorpusStats) {
        let config = SynthConfig {
            profile: DatasetProfile::Custom(CustomProfile {
                num_docs: 500,
                num_groups: 2,
                vocab_size: 400,
                general_vocab_fraction: 1.0,
                topic_mix: 0.0,
                zipf_exponent: 0.9,
                doc_length_median: 100.0,
                doc_length_sigma: 0.8,
                min_doc_length: 30,
                max_doc_length: 600,
            }),
            scale: 1.0,
            seed: 2_024,
        };
        let corpus = CorpusGenerator::new(config).generate().unwrap();
        let stats = CorpusStats::compute(&corpus);
        (corpus, stats)
    }

    fn raw_observations(stats: &CorpusStats, min_df: u32) -> HashMap<TermId, Vec<f64>> {
        stats
            .terms()
            .filter(|t| t.doc_freq >= min_df)
            .map(|t| (t.term, t.relevance_scores()))
            .collect()
    }

    #[test]
    fn raw_scores_let_the_adversary_identify_terms() {
        let (_, stats) = stats();
        let background = Background::from_stats(&stats);
        let observations = raw_observations(&stats, 20);
        assert!(observations.len() >= 20);
        let report = identification_experiment(&background, &observations, 4, 20, 1);
        // Observing the exact raw distribution the background was built from
        // makes identification near-perfect.
        assert!(report.trials > 10);
        assert!(
            report.accuracy() > 0.9,
            "raw-score identification accuracy {}",
            report.accuracy()
        );
        assert!(report.advantage() > 3.0);
    }

    #[test]
    fn trs_scores_reduce_the_adversary_to_chance_level() {
        let (corpus, stats) = stats();
        let split = sample_split(&corpus, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&corpus, &split, &RstfConfig::default()).unwrap();
        // Alice's background: the *raw* per-term distributions (what she can
        // learn from public corpora).  Observations: the TRS values actually
        // stored on the server.
        let background = Background::from_stats(&stats);
        let mut trs_observations: HashMap<TermId, Vec<f64>> = HashMap::new();
        for t in stats.terms() {
            if t.doc_freq < 20 {
                continue;
            }
            let values: Vec<f64> = t
                .postings
                .iter()
                .map(|&(doc, _, rel)| model.transform(t.term, doc, rel))
                .collect();
            trs_observations.insert(t.term, values);
        }
        let report = identification_experiment(&background, &trs_observations, 4, 20, 2);
        assert!(report.trials > 10);
        // With 5 candidates chance is 0.2; the TRS should leave the adversary
        // within a small factor of chance (paper Section 6.2).
        assert!(
            report.accuracy() < 0.45,
            "TRS identification accuracy {} should be near chance 0.2",
            report.accuracy()
        );
    }

    #[test]
    fn even_trs_background_gives_little_advantage() {
        // Strongest adversary: she somehow knows every term's true TRS
        // distribution.  Because all of them are ~uniform, matching still
        // fails.
        let (corpus, stats) = stats();
        let split = sample_split(&corpus, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&corpus, &split, &RstfConfig::default()).unwrap();
        let mut trs_observations: HashMap<TermId, Vec<f64>> = HashMap::new();
        for t in stats.terms() {
            if t.doc_freq < 30 {
                continue;
            }
            let values: Vec<f64> = t
                .postings
                .iter()
                .map(|&(doc, _, rel)| model.transform(t.term, doc, rel))
                .collect();
            trs_observations.insert(t.term, values);
        }
        // Split each term's TRS values into two disjoint halves: the
        // adversary's background knowledge comes from one half, her
        // observations from the other (she cannot observe the very elements
        // she profiled).
        let background_half: HashMap<TermId, Vec<f64>> = trs_observations
            .iter()
            .map(|(&t, v)| (t, v.iter().copied().skip(1).step_by(2).collect()))
            .collect();
        let observed_half: HashMap<TermId, Vec<f64>> = trs_observations
            .iter()
            .map(|(&t, v)| (t, v.iter().copied().step_by(2).collect()))
            .collect();
        let background = Background::from_observations(&background_half);
        let report = identification_experiment(&background, &observed_half, 4, 15, 3);
        assert!(report.trials > 5);
        assert!(
            report.accuracy() < 0.6,
            "TRS-vs-TRS matching on disjoint samples should stay near chance, got {}",
            report.accuracy()
        );
    }

    #[test]
    fn background_accessors_and_empty_cases() {
        let (_, stats) = stats();
        let background = Background::from_stats(&stats);
        assert!(!background.is_empty());
        assert_eq!(background.len(), stats.num_terms());
        let term = stats.terms_by_doc_freq()[0];
        assert!(background.profile(term).is_some());
        assert!(background.profile(TermId(10_000_000)).is_none());
        assert!(background.identify(&[0.5], &[TermId(10_000_000)]).is_none());
        let empty = identification_experiment(&background, &HashMap::new(), 3, 1, 0);
        assert_eq!(empty.trials, 0);
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!(empty.chance_level(), 0.25);
    }
}
