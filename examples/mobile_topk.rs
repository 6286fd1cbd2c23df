//! Mobile top-k retrieval — the bandwidth story of Sections 2 and 6.4–6.6.
//!
//! John queries the enterprise index from a PDA over a 56 Kb/s link.  This
//! example sweeps the initial response size `b` for top-10 queries over a
//! StudIP-like collection and reports average bandwidth overhead, request
//! counts and the latency perceived over the mobile link, reproducing the
//! b = k sweet spot of Figure 11/12 at example scale.
//!
//! Run with:
//! ```text
//! cargo run --release --example mobile_topk
//! ```

use zerber_suite::corpus::DatasetProfile;
use zerber_suite::protocol::{NetworkModel, ResponseBreakdown, GOOGLE_TOP10_BYTES, SNIPPET_BYTES};
use zerber_suite::workload::{
    average_bandwidth_overhead, average_requests, single_request_fraction, MergeKind,
    QueryLogConfig, TestBed, TestBedConfig,
};

fn main() {
    let k = 10usize;
    // A laptop-scale StudIP stand-in (see DESIGN.md §3 for the calibration).
    let bed = TestBed::build(TestBedConfig {
        scale: 0.04,
        ..TestBedConfig::small(DatasetProfile::StudIp)
    })
    .expect("test bed builds");
    println!(
        "corpus: {} docs, {} terms; index: {} merged lists, {} elements",
        bed.corpus.num_docs(),
        bed.corpus.num_terms(),
        bed.index.num_lists(),
        bed.index.num_elements()
    );

    let log = bed
        .query_log(&QueryLogConfig {
            distinct_terms: 400,
            total_queries: 100_000,
            sample_queries: 200,
            ..QueryLogConfig::default()
        })
        .expect("query log");
    println!(
        "workload: {} distinct query terms representing {} queries\n",
        log.distinct_terms(),
        log.total_queries()
    );

    let net = NetworkModel::paper_intranet();
    println!(
        "{:>4} | {:>8} | {:>9} | {:>12} | {:>12}",
        "b", "AvBO", "requests", "1-req share", "latency (s)"
    );
    println!("{}", "-".repeat(58));
    for b in [1usize, 5, 10, 20, 50, 100] {
        let samples = bed.run_workload(&log, k, b).expect("workload runs");
        let avbo = average_bandwidth_overhead(&samples, k);
        let reqs = average_requests(&samples);
        let one = single_request_fraction(&samples);
        // Latency over the mobile link for an average query: element bytes
        // plus the top-k snippets (AvBO at k = 1 is the mean element count).
        let avg_elements = average_bandwidth_overhead(&samples, 1);
        let breakdown = ResponseBreakdown::new(avg_elements.round() as usize, 58, k);
        let latency = net.query_latency_seconds(reqs.ceil() as usize, 64, breakdown.total_bytes());
        println!(
            "{:>4} | {:>8.2} | {:>9.2} | {:>11.0}% | {:>12.2}",
            b,
            avbo,
            reqs,
            one * 100.0,
            latency
        );
    }

    println!(
        "\nwith b = k = {k}: a Zerber+R answer with snippets is {} bytes vs {} bytes for a\n\
         conventional engine's top-10 page ({}x smaller), at {} B per snippet",
        ResponseBreakdown::new((k as f64 * 2.0) as usize, 58, k).total_bytes(),
        GOOGLE_TOP10_BYTES,
        GOOGLE_TOP10_BYTES / ResponseBreakdown::new(k * 2, 58, k).total_bytes().max(1),
        SNIPPET_BYTES
    );
    println!("(the b = k row should show the smallest bandwidth overhead — Figure 11)");

    // Ablation: BFM vs mixed merging request spread, the security angle of §6.2.
    let mixed = TestBed::build(TestBedConfig {
        merge: MergeKind::Mixed,
        scale: 0.04,
        ..TestBedConfig::small(DatasetProfile::StudIp)
    })
    .expect("mixed bed");
    let samples_bfm = bed.run_workload(&log, k, k).unwrap();
    let samples_mixed = mixed.run_workload(&log, k, k).unwrap();
    println!(
        "\nmerge-scheme ablation (b = k): avg requests BFM = {:.2}, mixed = {:.2}",
        average_requests(&samples_bfm),
        average_requests(&samples_mixed)
    );
}
