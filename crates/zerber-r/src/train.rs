//! Offline pre-computing phase: fitting one RSTF per term (Section 5).
//!
//! "In the pre-computing phase, Zerber+R initializes and publishes the RSTF
//! for each term in the training document set, such that in the online
//! insertion phase this function can be used by an inserting client."
//!
//! Terms that never occur in the training documents are assumed rare and are
//! assigned a *random* TRS (Section 5.1.1); the randomness is derived
//! deterministically from the `(term, document)` pair so repeated index runs
//! are reproducible and the same posting element always receives the same
//! TRS.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};
use zerber_corpus::{Corpus, DocId, TermId, TrainControlSplit};
use zerber_crypto::Sha256;

use crate::error::ZerberRError;
use crate::rstf::{Rstf, RstfKernel};
use crate::sigma::{cross_validate, default_sigma_grid, SigmaSelection};

/// How σ is chosen during training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SigmaStrategy {
    /// Use the same fixed σ for every term (cheapest; useful in benches).
    Fixed(f64),
    /// Run one cross-validation over the pooled relevance scores of the most
    /// frequent terms and use the winning σ for every term (the default; a
    /// practical middle ground the paper's "future work" on direct σ
    /// selection hints at).
    GlobalCrossValidation {
        /// How many of the most frequent terms contribute scores to the pool.
        pool_terms: usize,
    },
    /// Cross-validate σ separately for every term with at least
    /// `min_scores` training values; other terms fall back to the global
    /// choice.  This matches the per-term procedure of Section 5.1.3 and is
    /// the most expensive option.
    PerTerm {
        /// Minimum number of training scores required for a per-term sweep.
        min_scores: usize,
    },
}

impl Default for SigmaStrategy {
    fn default() -> Self {
        SigmaStrategy::GlobalCrossValidation { pool_terms: 64 }
    }
}

/// Configuration of the training phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RstfConfig {
    /// CDF kernel (Equation 8 logistic by default).
    pub kernel: RstfKernel,
    /// σ selection strategy.
    pub sigma: SigmaStrategy,
    /// Candidate grid for cross-validation (defaults to
    /// [`default_sigma_grid`]).
    pub sigma_grid: Vec<f64>,
    /// Seed for the random TRS assigned to terms unseen during training.
    pub unseen_seed: u64,
}

impl Default for RstfConfig {
    fn default() -> Self {
        RstfConfig {
            kernel: RstfKernel::Logistic,
            sigma: SigmaStrategy::default(),
            sigma_grid: default_sigma_grid(),
            unseen_seed: 0x2e5b,
        }
    }
}

/// The published per-term transformation model.
#[derive(Debug, Clone)]
pub struct RstfModel {
    per_term: HashMap<TermId, Rstf>,
    kernel: RstfKernel,
    global_sigma: f64,
    global_selection: Option<SigmaSelection>,
    unseen_seed: u64,
}

impl RstfModel {
    /// Trains the model from the corpus and a training/control split.
    pub fn train(
        corpus: &Corpus,
        split: &TrainControlSplit,
        config: &RstfConfig,
    ) -> Result<Self, ZerberRError> {
        if split.training.is_empty() {
            return Err(ZerberRError::InvalidSigmaSearch(
                "the training split contains no documents".into(),
            ));
        }
        let training_docs: HashSet<DocId> = split.training.iter().copied().collect();
        let control_docs: HashSet<DocId> = split.control.iter().copied().collect();

        // Collect per-term relevance scores from the training and control docs.
        let mut train_scores: HashMap<TermId, Vec<f64>> = HashMap::new();
        let mut control_scores: HashMap<TermId, Vec<f64>> = HashMap::new();
        for (doc_id, doc) in corpus.docs() {
            let bucket = if training_docs.contains(&doc_id) {
                Some(&mut train_scores)
            } else if control_docs.contains(&doc_id) {
                Some(&mut control_scores)
            } else {
                None
            };
            if let Some(map) = bucket {
                for &(term, tf) in &doc.term_counts {
                    let rel = if doc.length == 0 {
                        0.0
                    } else {
                        f64::from(tf) / f64::from(doc.length)
                    };
                    map.entry(term).or_default().push(rel);
                }
            }
        }

        // Choose the global σ.
        let (global_sigma, global_selection) = match &config.sigma {
            SigmaStrategy::Fixed(sigma) => {
                if !(sigma.is_finite() && *sigma > 0.0) {
                    return Err(ZerberRError::InvalidParameter(format!(
                        "fixed sigma must be positive, got {sigma}"
                    )));
                }
                (*sigma, None)
            }
            SigmaStrategy::GlobalCrossValidation { .. } | SigmaStrategy::PerTerm { .. } => {
                let pool_terms = match &config.sigma {
                    SigmaStrategy::GlobalCrossValidation { pool_terms } => *pool_terms,
                    _ => 64,
                };
                let selection = Self::global_cross_validation(
                    &train_scores,
                    &control_scores,
                    pool_terms.max(1),
                    &config.sigma_grid,
                    config.kernel,
                )?;
                (selection.best_sigma, Some(selection))
            }
        };

        // Fit per-term RSTFs.
        let mut per_term = HashMap::with_capacity(train_scores.len());
        for (term, scores) in &train_scores {
            let sigma = match &config.sigma {
                SigmaStrategy::PerTerm { min_scores } => {
                    let control = control_scores.get(term);
                    match control {
                        Some(ctrl) if scores.len() >= *min_scores && !ctrl.is_empty() => {
                            cross_validate(scores, ctrl, &config.sigma_grid, config.kernel)
                                .map(|s| s.best_sigma)
                                .unwrap_or(global_sigma)
                        }
                        _ => global_sigma,
                    }
                }
                _ => global_sigma,
            };
            per_term.insert(*term, Rstf::fit(scores, sigma, config.kernel)?);
        }
        Ok(RstfModel {
            per_term,
            kernel: config.kernel,
            global_sigma,
            global_selection,
            unseen_seed: config.unseen_seed,
        })
    }

    fn global_cross_validation(
        train_scores: &HashMap<TermId, Vec<f64>>,
        control_scores: &HashMap<TermId, Vec<f64>>,
        pool_terms: usize,
        grid: &[f64],
        kernel: RstfKernel,
    ) -> Result<SigmaSelection, ZerberRError> {
        // Pool the most frequent terms (by training score count) that also
        // appear in the control set.
        let mut candidates: Vec<(&TermId, usize)> = train_scores
            .iter()
            .filter(|(t, _)| control_scores.contains_key(t))
            .map(|(t, v)| (t, v.len()))
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        candidates.truncate(pool_terms);
        if candidates.is_empty() {
            // No term appears in both splits (tiny corpora): fall back to the
            // most frequent training term validated against itself.
            let mut by_count: Vec<(&TermId, usize)> =
                train_scores.iter().map(|(t, v)| (t, v.len())).collect();
            by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let Some((term, _)) = by_count.first() else {
                return Err(ZerberRError::InvalidSigmaSearch(
                    "no training scores available".into(),
                ));
            };
            let scores = &train_scores[term];
            return cross_validate(scores, scores, grid, kernel);
        }
        // Average the per-term variance curves, weighting each term by its
        // control-score count (inverse-variance weighting): a uniformity
        // variance measured on a handful of control values is mostly noise,
        // and giving such terms the same weight as well-measured frequent
        // terms biases the pooled minimum towards under-smoothed σ.
        let mut sums = vec![0.0f64; grid.len()];
        let mut total_weight = 0.0f64;
        for (term, _) in &candidates {
            let train = &train_scores[*term];
            let control = &control_scores[*term];
            let sel = cross_validate(train, control, grid, kernel)?;
            let weight = control.len() as f64;
            for (i, p) in sel.curve.iter().enumerate() {
                sums[i] += weight * p.variance;
            }
            total_weight += weight;
        }
        let total_weight = if total_weight > 0.0 {
            total_weight
        } else {
            1.0
        };
        let curve: Vec<crate::sigma::SigmaPoint> = grid
            .iter()
            .zip(sums.iter())
            .map(|(&sigma, &s)| crate::sigma::SigmaPoint {
                sigma,
                variance: s / total_weight,
            })
            .collect();
        let best = curve
            .iter()
            .copied()
            .min_by(|a, b| {
                a.variance
                    .partial_cmp(&b.variance)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or_else(|| ZerberRError::InvalidSigmaSearch("empty sigma grid".into()))?;
        Ok(SigmaSelection {
            best_sigma: best.sigma,
            best_variance: best.variance,
            curve,
        })
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> RstfKernel {
        self.kernel
    }

    /// The globally selected σ.
    pub fn global_sigma(&self) -> f64 {
        self.global_sigma
    }

    /// The global cross-validation sweep, if one was run (the data of
    /// Figure 9).
    pub fn global_selection(&self) -> Option<&SigmaSelection> {
        self.global_selection.as_ref()
    }

    /// Number of terms with a fitted RSTF.
    pub fn num_trained_terms(&self) -> usize {
        self.per_term.len()
    }

    /// The RSTF of a term, if it was seen during training.
    pub fn rstf(&self, term: TermId) -> Option<&Rstf> {
        self.per_term.get(&term)
    }

    /// Transforms a raw relevance score of `(term, doc)` into its TRS.
    ///
    /// Terms unseen during training receive a deterministic pseudo-random TRS
    /// (uniform in `[0, 1]`), as prescribed in Section 5.1.1.
    pub fn transform(&self, term: TermId, doc: DocId, raw_score: f64) -> f64 {
        match self.per_term.get(&term) {
            Some(rstf) => rstf.transform(raw_score),
            None => self.random_trs(term, doc),
        }
    }

    /// The deterministic fallback TRS for unseen terms.
    pub fn random_trs(&self, term: TermId, doc: DocId) -> f64 {
        let mut data = [0u8; 16];
        data[0..8].copy_from_slice(&self.unseen_seed.to_le_bytes());
        data[8..12].copy_from_slice(&term.0.to_le_bytes());
        data[12..16].copy_from_slice(&doc.0.to_le_bytes());
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = Sha256::digest(&data);
        let v = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        // Map to [0, 1) with 53-bit precision.
        (v >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigma::uniformity_variance;
    use zerber_corpus::{
        sample_split, CorpusGenerator, CustomProfile, DatasetProfile, SplitConfig, SynthConfig,
    };

    fn corpus() -> Corpus {
        let config = SynthConfig {
            profile: DatasetProfile::Custom(CustomProfile {
                num_docs: 400,
                num_groups: 4,
                vocab_size: 800,
                general_vocab_fraction: 0.5,
                topic_mix: 0.3,
                zipf_exponent: 1.0,
                doc_length_median: 80.0,
                doc_length_sigma: 0.7,
                min_doc_length: 20,
                max_doc_length: 500,
            }),
            scale: 1.0,
            seed: 500,
        };
        CorpusGenerator::new(config).generate().unwrap()
    }

    fn split(corpus: &Corpus) -> TrainControlSplit {
        sample_split(corpus, SplitConfig::default()).unwrap()
    }

    #[test]
    fn training_produces_rstfs_for_training_terms() {
        let c = corpus();
        let s = split(&c);
        let model = RstfModel::train(&c, &s, &RstfConfig::default()).unwrap();
        assert!(model.num_trained_terms() > 50);
        assert!(model.global_sigma() > 0.0);
        assert!(model.global_selection().is_some());
        assert_eq!(model.kernel(), RstfKernel::Logistic);
    }

    #[test]
    fn fixed_sigma_strategy_skips_cross_validation() {
        let c = corpus();
        let s = split(&c);
        let config = RstfConfig {
            sigma: SigmaStrategy::Fixed(120.0),
            ..RstfConfig::default()
        };
        let model = RstfModel::train(&c, &s, &config).unwrap();
        assert!((model.global_sigma() - 120.0).abs() < 1e-12);
        assert!(model.global_selection().is_none());
        let bad = RstfConfig {
            sigma: SigmaStrategy::Fixed(0.0),
            ..RstfConfig::default()
        };
        assert!(RstfModel::train(&c, &s, &bad).is_err());
    }

    #[test]
    fn transform_is_uniform_on_unseen_documents() {
        // The core claim of the paper: TRS values of a term over the corpus
        // (including documents outside the training sample) are close to
        // uniform, so the index server cannot tell terms apart.
        let c = corpus();
        let s = split(&c);
        let model = RstfModel::train(&c, &s, &RstfConfig::default()).unwrap();
        let stats = zerber_corpus::CorpusStats::compute(&c);
        let frequent = stats.terms_by_doc_freq()[0];
        let term_stats = stats.term(frequent).unwrap();
        let trs: Vec<f64> = term_stats
            .postings
            .iter()
            .map(|&(doc, _, rel)| model.transform(frequent, doc, rel))
            .collect();
        let var = uniformity_variance(&trs);
        assert!(
            var < 5e-3,
            "TRS of a frequent term should be close to uniform (variance {var})"
        );
    }

    #[test]
    fn unseen_terms_get_deterministic_random_trs() {
        let c = corpus();
        let s = split(&c);
        let model = RstfModel::train(&c, &s, &RstfConfig::default()).unwrap();
        let unseen = TermId(999_999);
        let a = model.transform(unseen, DocId(1), 0.5);
        let b = model.transform(unseen, DocId(1), 0.9);
        let c2 = model.transform(unseen, DocId(2), 0.5);
        assert!((0.0..1.0).contains(&a));
        assert_eq!(a, b, "fallback ignores the raw score");
        assert_ne!(a, c2, "different documents get different TRS");
        assert!(model.rstf(unseen).is_none());
    }

    #[test]
    fn per_term_strategy_trains_successfully() {
        let c = corpus();
        let s = split(&c);
        let config = RstfConfig {
            sigma: SigmaStrategy::PerTerm { min_scores: 30 },
            sigma_grid: vec![10.0, 40.0, 160.0, 640.0],
            ..RstfConfig::default()
        };
        let model = RstfModel::train(&c, &s, &config).unwrap();
        assert!(model.num_trained_terms() > 0);
    }

    #[test]
    fn empty_training_split_is_rejected() {
        let c = corpus();
        let empty = TrainControlSplit {
            training: vec![],
            control: vec![],
            remainder: c.doc_ids().collect(),
        };
        assert!(RstfModel::train(&c, &empty, &RstfConfig::default()).is_err());
    }

    #[test]
    fn order_preservation_survives_training() {
        let c = corpus();
        let s = split(&c);
        let model = RstfModel::train(&c, &s, &RstfConfig::default()).unwrap();
        let stats = zerber_corpus::CorpusStats::compute(&c);
        let term = stats.terms_by_doc_freq()[1];
        let ts = stats.term(term).unwrap();
        if model.rstf(term).is_some() {
            let mut pairs: Vec<(f64, f64)> = ts
                .postings
                .iter()
                .map(|&(doc, _, rel)| (rel, model.transform(term, doc, rel)))
                .collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in pairs.windows(2) {
                assert!(w[1].1 >= w[0].1, "TRS must preserve raw-score order");
            }
        }
    }
}
