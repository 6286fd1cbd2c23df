//! Synthetic web-search query log (Section 6.1.3).
//!
//! The paper's workload is a commercial search-engine log: 7 million queries,
//! 2.4 terms per query on average, 135,000 distinct query terms, with query
//! frequencies following a power law and correlating with document
//! frequencies ("though some frequent terms are rarely queried", Section 5.2).
//! The generator reproduces those properties over the synthetic corpora:
//! query popularity ranks are a noisy blend of the document-frequency ranking
//! and a random permutation, and frequencies follow a Zipf law over the
//! popularity ranks.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use zerber_corpus::{CorpusStats, TermId};

use crate::error::WorkloadError;

/// Configuration of the query-log generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryLogConfig {
    /// Number of distinct query terms (paper: 135,000; capped by the corpus
    /// vocabulary).
    pub distinct_terms: usize,
    /// Total number of queries represented by the log (paper: 7 million).
    pub total_queries: u64,
    /// Average number of terms per query (paper: 2.4).
    pub terms_per_query: f64,
    /// Zipf exponent of query frequencies over popularity ranks.
    pub zipf_exponent: f64,
    /// Correlation knob in `[0, 1]`: 1 = query popularity follows document
    /// frequency exactly, 0 = unrelated.
    pub df_correlation: f64,
    /// Number of concrete multi-term query instances to materialize for
    /// protocol-level replay (the aggregated term frequencies cover the rest).
    pub sample_queries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryLogConfig {
    fn default() -> Self {
        QueryLogConfig {
            distinct_terms: 2_000,
            total_queries: 1_000_000,
            terms_per_query: 2.4,
            zipf_exponent: 1.0,
            df_correlation: 0.7,
            sample_queries: 2_000,
            seed: 0x9e7,
        }
    }
}

/// A generated query log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryLog {
    term_freqs: Vec<(TermId, u64)>,
    sampled_queries: Vec<Vec<TermId>>,
    total_queries: u64,
}

impl QueryLog {
    /// Generates the log for a corpus.
    pub fn generate(stats: &CorpusStats, config: &QueryLogConfig) -> Result<Self, WorkloadError> {
        if config.distinct_terms == 0 || config.total_queries == 0 {
            return Err(WorkloadError::InvalidConfig(
                "distinct_terms and total_queries must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&config.df_correlation) {
            return Err(WorkloadError::InvalidConfig(format!(
                "df_correlation must be in [0,1], got {}",
                config.df_correlation
            )));
        }
        if config.terms_per_query < 1.0 {
            return Err(WorkloadError::InvalidConfig(
                "terms_per_query must be at least 1".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Popularity ranking: blend document-frequency rank with a random
        // permutation.
        let by_df = stats.terms_by_doc_freq();
        if by_df.is_empty() {
            return Err(WorkloadError::InvalidConfig("corpus has no terms".into()));
        }
        let n = by_df.len();
        let mut random_rank: Vec<usize> = (0..n).collect();
        random_rank.shuffle(&mut rng);
        let mut blended: Vec<(TermId, f64)> = by_df
            .iter()
            .enumerate()
            .map(|(df_rank, &term)| {
                let blend = config.df_correlation * df_rank as f64
                    + (1.0 - config.df_correlation) * random_rank[df_rank] as f64;
                (term, blend)
            })
            .collect();
        blended.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        let distinct = config.distinct_terms.min(n);
        let chosen: Vec<TermId> = blended.iter().take(distinct).map(|&(t, _)| t).collect();

        // Zipf frequencies over popularity ranks, scaled to total_queries
        // term occurrences (each query contributes ~terms_per_query terms).
        let total_term_draws =
            (config.total_queries as f64 * config.terms_per_query).round() as u64;
        let weights: Vec<f64> = (1..=distinct)
            .map(|i| 1.0 / (i as f64).powf(config.zipf_exponent))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let mut term_freqs: Vec<(TermId, u64)> = chosen
            .iter()
            .zip(weights.iter())
            .map(|(&t, &w)| {
                let f = ((w / weight_sum) * total_term_draws as f64).round() as u64;
                (t, f.max(1))
            })
            .collect();
        term_freqs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // Materialize a sample of concrete multi-term queries.
        let cdf: Vec<f64> = {
            let mut acc = 0.0;
            let total: f64 = term_freqs.iter().map(|&(_, f)| f as f64).sum();
            term_freqs
                .iter()
                .map(|&(_, f)| {
                    acc += f as f64 / total;
                    acc
                })
                .collect()
        };
        let sample_len = |rng: &mut StdRng| -> usize {
            // Geometric-like length with mean terms_per_query, at least 1.
            let p = 1.0 / config.terms_per_query;
            let mut len = 1usize;
            while rng.gen::<f64>() > p && len < 10 {
                len += 1;
            }
            len
        };
        let mut sampled_queries = Vec::with_capacity(config.sample_queries);
        for _ in 0..config.sample_queries {
            let len = sample_len(&mut rng);
            let mut q = Vec::with_capacity(len);
            for _ in 0..len {
                let u: f64 = rng.gen();
                let idx = cdf.partition_point(|&c| c < u).min(term_freqs.len() - 1);
                q.push(term_freqs[idx].0);
            }
            sampled_queries.push(q);
        }
        Ok(QueryLog {
            term_freqs,
            sampled_queries,
            total_queries: config.total_queries,
        })
    }

    /// Distinct query terms with their frequencies, most frequent first.
    pub fn term_frequencies(&self) -> &[(TermId, u64)] {
        &self.term_freqs
    }

    /// Number of distinct query terms.
    pub fn distinct_terms(&self) -> usize {
        self.term_freqs.len()
    }

    /// Total number of queries the log represents.
    pub fn total_queries(&self) -> u64 {
        self.total_queries
    }

    /// Concrete multi-term query instances for protocol replay.
    pub fn sampled_queries(&self) -> &[Vec<TermId>] {
        &self.sampled_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_corpus::{CorpusGenerator, CorpusStats, CustomProfile, DatasetProfile, SynthConfig};

    fn stats() -> CorpusStats {
        let config = SynthConfig {
            profile: DatasetProfile::Custom(CustomProfile {
                num_docs: 400,
                num_groups: 4,
                vocab_size: 3_000,
                general_vocab_fraction: 0.5,
                topic_mix: 0.3,
                zipf_exponent: 1.0,
                doc_length_median: 80.0,
                doc_length_sigma: 0.7,
                min_doc_length: 20,
                max_doc_length: 400,
            }),
            scale: 1.0,
            seed: 42,
        };
        CorpusStats::compute(&CorpusGenerator::new(config).generate().unwrap())
    }

    #[test]
    fn generation_respects_configuration() {
        let s = stats();
        let config = QueryLogConfig {
            distinct_terms: 500,
            total_queries: 100_000,
            sample_queries: 300,
            ..QueryLogConfig::default()
        };
        let log = QueryLog::generate(&s, &config).unwrap();
        assert_eq!(log.distinct_terms(), 500);
        assert_eq!(log.total_queries(), 100_000);
        let queries = log.sampled_queries();
        assert_eq!(queries.len(), 300);
        let terms = queries.iter().map(Vec::len).sum::<usize>();
        assert!((terms as f64 / 300.0 - 2.4).abs() < 0.6);
    }

    #[test]
    fn frequencies_follow_a_heavy_tail() {
        let s = stats();
        let log = QueryLog::generate(&s, &QueryLogConfig::default()).unwrap();
        let freqs = log.term_frequencies();
        assert!(
            freqs.windows(2).all(|w| w[0].1 >= w[1].1),
            "sorted descending"
        );
        let top = freqs[0].1 as f64;
        let mid = freqs[freqs.len() / 2].1 as f64;
        assert!(
            top > 20.0 * mid,
            "head {top} should dominate the median {mid}"
        );
    }

    #[test]
    fn correlation_with_document_frequency_is_positive_but_imperfect() {
        let s = stats();
        let log = QueryLog::generate(
            &s,
            &QueryLogConfig {
                df_correlation: 0.7,
                ..QueryLogConfig::default()
            },
        )
        .unwrap();
        // Spearman-style check: compute the mean document-frequency rank of
        // the 50 most queried terms; it should be far better (smaller) than
        // the corpus average but not exactly 0..50.
        let by_df = s.terms_by_doc_freq();
        let rank_of: std::collections::HashMap<TermId, usize> =
            by_df.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let top50: Vec<usize> = log
            .term_frequencies()
            .iter()
            .take(50)
            .map(|&(t, _)| rank_of[&t])
            .collect();
        let mean_rank = top50.iter().sum::<usize>() as f64 / 50.0;
        assert!(
            mean_rank < by_df.len() as f64 / 4.0,
            "top queried terms should be frequent in documents (mean rank {mean_rank})"
        );
        let perfectly_sorted = top50.windows(2).all(|w| w[0] < w[1]);
        assert!(!perfectly_sorted, "correlation should not be perfect");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = stats();
        let a = QueryLog::generate(&s, &QueryLogConfig::default()).unwrap();
        let b = QueryLog::generate(&s, &QueryLogConfig::default()).unwrap();
        assert_eq!(a.term_frequencies(), b.term_frequencies());
        assert_eq!(a.sampled_queries(), b.sampled_queries());
        let c = QueryLog::generate(
            &s,
            &QueryLogConfig {
                seed: 1,
                ..QueryLogConfig::default()
            },
        )
        .unwrap();
        assert_ne!(a.sampled_queries(), c.sampled_queries());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let s = stats();
        for bad in [
            QueryLogConfig {
                distinct_terms: 0,
                ..QueryLogConfig::default()
            },
            QueryLogConfig {
                total_queries: 0,
                ..QueryLogConfig::default()
            },
            QueryLogConfig {
                df_correlation: 1.5,
                ..QueryLogConfig::default()
            },
            QueryLogConfig {
                terms_per_query: 0.5,
                ..QueryLogConfig::default()
            },
        ] {
            assert!(QueryLog::generate(&s, &bad).is_err());
        }
    }

    #[test]
    fn frequency_lookup_and_distinct_cap() {
        let s = stats();
        let log = QueryLog::generate(
            &s,
            &QueryLogConfig {
                distinct_terms: 10_000_000,
                ..QueryLogConfig::default()
            },
        )
        .unwrap();
        // Capped by the vocabulary size.
        assert!(log.distinct_terms() <= s.num_terms());
        let terms: std::collections::HashSet<TermId> =
            log.term_frequencies().iter().map(|&(t, _)| t).collect();
        assert_eq!(terms.len(), log.distinct_terms(), "each term listed once");
    }
}
