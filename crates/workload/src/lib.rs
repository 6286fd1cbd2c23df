//! Workload generation, cost models and evaluation metrics for the Zerber+R
//! reproduction.
//!
//! * [`querylog`] — a synthetic web-search query log calibrated to the
//!   paper's workload (power-law query frequencies, 2.4 terms/query,
//!   correlation with document frequency; Section 6.1.3),
//! * [`cost`] — the analytical workload-cost model of Equations 9–12,
//! * [`metrics`] — AvBO (Equation 13), average requests, the
//!   query-efficiency distribution (Equation 14 / Figure 13) and the
//!   cumulative workload curve (Figure 10),
//! * [`experiment`] — the [`experiment::TestBed`] that assembles corpus,
//!   RSTF model, merge plan, ordered index and baselines from one
//!   configuration and replays query workloads against them.

pub mod cost;
pub mod error;
pub mod experiment;
pub mod metrics;
pub mod querylog;

pub use cost::{
    expected_first_position, expected_retrieval_count, requests_for, total_response_size,
    workload_cost, TermCost,
};
pub use error::WorkloadError;
pub use experiment::{MergeKind, TestBed, TestBedConfig};
pub use metrics::{
    average_bandwidth_overhead, average_requests, cumulative_workload_curve,
    efficiency_at_percentiles, efficiency_curve, single_request_fraction, EfficiencyPoint,
    QuerySample, WorkloadPoint,
};
pub use querylog::{QueryLog, QueryLogConfig};
