//! Evaluation metrics of Sections 6.4–6.6: average bandwidth overhead
//! (Equation 13), average request counts, query-efficiency distribution
//! (Equation 14, Figure 13) and the cumulative workload curve (Figure 10).

use serde::{Deserialize, Serialize};
use zerber_corpus::TermId;

use crate::cost::TermCost;

/// Result of executing the retrieval protocol for one distinct query term.
///
/// The workload is evaluated per *distinct* term and weighted by the term's
/// query frequency, which is equivalent to replaying every one of the log's
/// queries individually (the protocol is deterministic per term).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuerySample {
    /// The query term.
    pub term: TermId,
    /// Number of log queries that contain the term.
    pub query_freq: u64,
    /// Requests needed (initial + follow-ups).
    pub requests: usize,
    /// Posting elements transferred (`TRes` of Equation 12).
    pub elements_transferred: usize,
    /// Whether the desired `k` results were obtained.
    pub satisfied: bool,
}

impl QuerySample {
    /// Query efficiency `QRatio_eff = k / TRes` (Equation 14), clamped to 1.
    pub fn efficiency(&self, k: usize) -> f64 {
        if self.elements_transferred == 0 {
            return 1.0;
        }
        (k as f64 / self.elements_transferred as f64).min(1.0)
    }

    /// Per-query bandwidth overhead `TRes / k` (the summand of Equation 13).
    pub fn bandwidth_overhead(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        (self.elements_transferred as f64 / k as f64).max(0.0)
    }
}

fn total_weight(samples: &[QuerySample]) -> f64 {
    samples.iter().map(|s| s.query_freq as f64).sum()
}

/// Average bandwidth overhead `AvBO` over the workload (Equation 13):
/// the query-frequency-weighted mean of `TRes / k`.
pub fn average_bandwidth_overhead(samples: &[QuerySample], k: usize) -> f64 {
    let w = total_weight(samples);
    if w == 0.0 {
        return 0.0;
    }
    samples
        .iter()
        .map(|s| s.bandwidth_overhead(k) * s.query_freq as f64)
        .sum::<f64>()
        / w
}

/// Average number of requests per query over the workload (Figure 12).
pub fn average_requests(samples: &[QuerySample]) -> f64 {
    let w = total_weight(samples);
    if w == 0.0 {
        return 0.0;
    }
    samples
        .iter()
        .map(|s| s.requests as f64 * s.query_freq as f64)
        .sum::<f64>()
        / w
}

/// Fraction of the workload satisfied within a single request.
pub fn single_request_fraction(samples: &[QuerySample]) -> f64 {
    let w = total_weight(samples);
    if w == 0.0 {
        return 0.0;
    }
    samples
        .iter()
        .filter(|s| s.requests <= 1 && s.satisfied)
        .map(|s| s.query_freq as f64)
        .sum::<f64>()
        / w
}

/// One point of the query-efficiency distribution of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyPoint {
    /// Cumulative share of the query workload (0–100 %), ordered by
    /// efficiency (best queries first — the paper orders by `QRatio_eff`).
    pub workload_percent: f64,
    /// The efficiency of queries at this position.
    pub efficiency: f64,
}

/// Computes the efficiency distribution: queries ordered by `QRatio_eff`
/// descending, x-axis = cumulative percentage of the workload.
pub fn efficiency_curve(samples: &[QuerySample], k: usize) -> Vec<EfficiencyPoint> {
    let w = total_weight(samples);
    if w == 0.0 {
        return Vec::new();
    }
    let mut ordered: Vec<(f64, f64)> = samples
        .iter()
        .map(|s| (s.efficiency(k), s.query_freq as f64))
        .collect();
    ordered.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut acc = 0.0;
    ordered
        .into_iter()
        .map(|(eff, weight)| {
            acc += weight;
            EfficiencyPoint {
                workload_percent: 100.0 * acc / w,
                efficiency: eff,
            }
        })
        .collect()
}

/// Samples the efficiency curve at fixed workload percentiles (for compact
/// reporting of Figure 13).
pub fn efficiency_at_percentiles(
    samples: &[QuerySample],
    k: usize,
    percentiles: &[f64],
) -> Vec<(f64, f64)> {
    let curve = efficiency_curve(samples, k);
    if curve.is_empty() {
        return Vec::new();
    }
    percentiles
        .iter()
        .map(|&p| {
            let eff = curve
                .iter()
                .find(|pt| pt.workload_percent >= p)
                .map(|pt| pt.efficiency)
                .unwrap_or_else(|| curve.last().unwrap().efficiency);
            (p, eff)
        })
        .collect()
}

/// One point of the cumulative workload curve of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPoint {
    /// 1-based rank of the query term by query frequency (log-scale x axis in
    /// the paper).
    pub rank: usize,
    /// The term's query frequency.
    pub query_freq: u64,
    /// Cumulative fraction (0–1) of the total workload cost covered by the
    /// terms up to this rank.
    pub cumulative_cost_fraction: f64,
}

/// Computes the Figure 10 curve from analytical per-term costs: terms ordered
/// by query frequency, cumulative share of the total workload cost.
pub fn cumulative_workload_curve(per_term: &[TermCost]) -> Vec<WorkloadPoint> {
    let total: f64 = per_term.iter().map(|t| t.weighted_cost).sum();
    if total == 0.0 {
        return Vec::new();
    }
    let mut ordered: Vec<&TermCost> = per_term.iter().collect();
    ordered.sort_by(|a, b| b.query_freq.cmp(&a.query_freq).then(a.term.cmp(&b.term)));
    let mut acc = 0.0;
    ordered
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            acc += t.weighted_cost;
            WorkloadPoint {
                rank: i + 1,
                query_freq: t.query_freq,
                cumulative_cost_fraction: acc / total,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(
        term: u32,
        freq: u64,
        requests: usize,
        elements: usize,
        satisfied: bool,
    ) -> QuerySample {
        QuerySample {
            term: TermId(term),
            query_freq: freq,
            requests,
            elements_transferred: elements,
            satisfied,
        }
    }

    #[test]
    fn efficiency_and_overhead_are_reciprocal_when_overloaded() {
        let s = sample(0, 1, 2, 30, true);
        assert!((s.efficiency(10) - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.bandwidth_overhead(10) - 3.0).abs() < 1e-12);
        // A query that transferred fewer than k elements caps efficiency at 1.
        let s = sample(0, 1, 1, 5, false);
        assert_eq!(s.efficiency(10), 1.0);
    }

    #[test]
    fn averages_are_query_frequency_weighted() {
        let samples = vec![
            sample(0, 90, 1, 10, true), // cheap and frequent
            sample(1, 10, 3, 70, true), // expensive and rare
        ];
        let avbo = average_bandwidth_overhead(&samples, 10);
        // 0.9 * 1.0 + 0.1 * 7.0 = 1.6
        assert!((avbo - 1.6).abs() < 1e-9);
        let reqs = average_requests(&samples);
        assert!((reqs - (0.9 + 0.3 * 1.0 + 0.0)).abs() < 1.0); // 0.9*1 + 0.1*3 = 1.2
        assert!((reqs - 1.2).abs() < 1e-9);
        assert!((single_request_fraction(&samples) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_sets_return_zero() {
        assert_eq!(average_bandwidth_overhead(&[], 10), 0.0);
        assert_eq!(average_requests(&[]), 0.0);
        assert_eq!(single_request_fraction(&[]), 0.0);
        assert!(efficiency_curve(&[], 10).is_empty());
        assert!(cumulative_workload_curve(&[]).is_empty());
    }

    #[test]
    fn efficiency_curve_is_ordered_and_covers_the_workload() {
        let samples = vec![
            sample(0, 60, 1, 10, true),
            sample(1, 30, 2, 30, true),
            sample(2, 10, 3, 100, true),
        ];
        let curve = efficiency_curve(&samples, 10);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0].efficiency >= w[1].efficiency));
        assert!((curve.last().unwrap().workload_percent - 100.0).abs() < 1e-9);
        // 60% of the workload has efficiency 1.0.
        assert!((curve[0].workload_percent - 60.0).abs() < 1e-9);
        assert!((curve[0].efficiency - 1.0).abs() < 1e-9);
        let pts = efficiency_at_percentiles(&samples, 10, &[50.0, 90.0, 100.0]);
        assert_eq!(pts.len(), 3);
        assert!((pts[0].1 - 1.0).abs() < 1e-9);
        assert!(pts[2].1 <= pts[0].1);
    }

    #[test]
    fn workload_curve_is_monotone_and_reaches_one() {
        let per_term = vec![
            TermCost {
                term: TermId(0),
                query_freq: 100,
                elements_per_query: 20.0,
                weighted_cost: 2_000.0,
            },
            TermCost {
                term: TermId(1),
                query_freq: 10,
                elements_per_query: 30.0,
                weighted_cost: 300.0,
            },
            TermCost {
                term: TermId(2),
                query_freq: 1,
                elements_per_query: 40.0,
                weighted_cost: 40.0,
            },
        ];
        let curve = cumulative_workload_curve(&per_term);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].rank, 1);
        assert!(curve.windows(2).all(|w| {
            w[1].cumulative_cost_fraction >= w[0].cumulative_cost_fraction
                && w[0].query_freq >= w[1].query_freq
        }));
        assert!((curve.last().unwrap().cumulative_cost_fraction - 1.0).abs() < 1e-12);
        // The most frequent term dominates the workload.
        assert!(curve[0].cumulative_cost_fraction > 0.8);
    }
}
