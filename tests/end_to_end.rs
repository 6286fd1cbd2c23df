//! End-to-end integration test: the complete Zerber+R pipeline (synthetic
//! corpus → RSTF training → BFM merge → encrypted ordered index → untrusted
//! server → client retrieval) must return exactly the documents an ordinary
//! plaintext inverted index would return for single-term top-k queries, while
//! keeping the confidentiality invariants.  Every query here goes through
//! `Client` and `IndexServer`, the system that serves.

use std::collections::HashMap;

use zerber_suite::corpus::{DatasetProfile, GroupId};
use zerber_suite::protocol::{AccessControl, Client, IndexServer};
use zerber_suite::workload::{TestBed, TestBedConfig};
use zerber_suite::zerber_r::RetrievalConfig;

fn bed() -> &'static TestBed {
    use std::sync::OnceLock;
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| {
        TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).expect("test bed builds")
    })
}

/// The bed's index behind a resident server, and an all-group member of it.
fn served(bed: &TestBed) -> (IndexServer, Client) {
    let server = bed.build_server(4, 1);
    let token = server.acl().issue_token("user-0");
    let client = Client::new("user-0", token, bed.all_memberships.clone());
    (server, client)
}

#[test]
fn confidential_topk_matches_plaintext_topk_for_many_terms() {
    let bed = bed();
    let k = 10usize;
    let order = bed.stats.terms_by_doc_freq();
    // Frequent, mid-frequency and rare terms.
    let picks: Vec<_> = order
        .iter()
        .step_by((order.len() / 60).max(1))
        .copied()
        .take(60)
        .collect();
    let (server, client) = served(bed);
    let mut trained_terms = 0usize;
    for term in picks {
        let confidential = client
            .query(&server, &bed.plan, term, &RetrievalConfig::for_k(k))
            .expect("retrieval succeeds");
        let plaintext = bed.plain_index.query_term(term, k).expect("term indexed");
        assert_eq!(
            confidential.results.len(),
            plaintext.len().min(k),
            "result count for term {term}"
        );
        if bed.model.rstf(term).is_some() {
            // Terms seen during RSTF training: the monotone transformation
            // preserves the exact plaintext ranking.
            trained_terms += 1;
            for (got, want) in confidential.results.iter().zip(plaintext.iter()) {
                assert!(
                    (got.1 - want.score).abs() < 1e-9,
                    "score mismatch for term {term}: {} vs {}",
                    got.1,
                    want.score
                );
            }
        } else {
            // Terms unseen during training carry a random TRS (Section 5.1.1:
            // "assumed to be rare"): every returned result must still be a
            // genuine posting of the term.
            let valid: std::collections::HashSet<_> = bed
                .plain_index
                .posting_list(term)
                .unwrap()
                .iter()
                .map(|p| p.doc)
                .collect();
            for &(doc, _) in &confidential.results {
                assert!(
                    valid.contains(&doc),
                    "spurious result for untrained term {term}"
                );
            }
        }
    }
    assert!(
        trained_terms >= 20,
        "most sampled terms should have a trained RSTF, got {trained_terms}"
    );
    assert_eq!(server.open_cursors(), 0);
}

#[test]
fn index_storage_matches_one_score_per_element_budget() {
    let bed = bed();
    let plain_report = bed.plain_index.size_report();
    let ordered_report = bed.index.size_report();
    // Section 6.3: Zerber+R stores exactly one ranking value (the TRS) per
    // posting element, like the ordinary index — same element counts, zero
    // overhead in the paper's 64-bit-per-element accounting.
    assert_eq!(plain_report.num_postings, ordered_report.num_postings);
    assert_eq!(plain_report.plain_bytes, ordered_report.plain_bytes);
    assert!((ordered_report.overhead_vs(&plain_report)).abs() < 1e-12);
}

#[test]
fn ordering_and_confidentiality_invariants_hold_after_build() {
    let bed = bed();
    assert!(bed.index.verify_ordering(), "lists must stay TRS-sorted");
    let r = zerber_suite::zerber::ConfidentialityParam::new(bed.config.r).unwrap();
    let reports = bed
        .plan
        .verify(&bed.stats, r)
        .expect("plan is r-confidential");
    assert_eq!(reports.len(), bed.plan.num_lists());
    for report in reports {
        assert!(report.satisfied);
        assert!(report.mass + 1e-12 >= report.required);
    }
}

#[test]
fn server_protocol_preserves_results_and_access_control() {
    let bed = bed();
    let mut acl = AccessControl::new(b"it-dept");
    let all_groups: Vec<GroupId> = (0..bed.corpus.num_groups() as u32).map(GroupId).collect();
    acl.register_user("john", &all_groups);
    acl.register_user("intern", &[GroupId(0)]);
    let server = IndexServer::new(bed.index.clone(), acl).expect("server builds");

    let john = Client::new(
        "john",
        server.acl().issue_token("john"),
        bed.all_memberships.clone(),
    );
    let intern_keys: HashMap<GroupId, _> = [(GroupId(0), bed.master.group_keys(0))].into();
    let intern = Client::new("intern", server.acl().issue_token("intern"), intern_keys);

    let term = bed.stats.terms_by_doc_freq()[1];
    let config = RetrievalConfig::for_k(10);
    let john_out = john
        .query(&server, &bed.plan, term, &config)
        .expect("john queries");
    let intern_out = intern
        .query(&server, &bed.plan, term, &config)
        .expect("intern queries");

    // John sees the plaintext ranking.
    let reference = bed.plain_index.query_term(term, 10).unwrap();
    assert_eq!(john_out.results.len(), reference.len().min(10));
    for (got, want) in john_out.results.iter().zip(&reference) {
        assert!((got.1 - want.score).abs() < 1e-9, "term {term}");
    }

    // The intern only ever receives group-0 documents.
    for &(doc, _) in &intern_out.results {
        assert_eq!(bed.corpus.doc(doc).unwrap().group, GroupId(0));
    }
    // And the server's byte counters reflect both sessions.
    let stats = server.stats();
    assert_eq!(
        stats.requests_served as usize,
        john_out.requests + intern_out.requests
    );
    assert_eq!(
        stats.bytes_out as usize,
        john_out.bytes_received + intern_out.bytes_received
    );
}

#[test]
fn workload_replay_reproduces_the_b_equals_k_sweet_spot_shape() {
    // Figures 11/12 at integration-test scale, read off the grid the
    // `zerber_repro` experiments share: the average number of requests falls
    // as b grows, while the bandwidth overhead grows once b exceeds k.
    let config = TestBedConfig::small(DatasetProfile::StudIp);
    let beds = zerber_bench::Beds::new(config.scale, config.seed, vec![config.dataset.clone()]);
    let k = 10;
    let mut avbo = Vec::new();
    let mut requests = Vec::new();
    for b in [k, 5 * k, 10 * k] {
        let samples = beds.cell(&config.dataset, k, b);
        avbo.push(zerber_suite::workload::average_bandwidth_overhead(
            &samples, k,
        ));
        requests.push(zerber_suite::workload::average_requests(&samples));
    }
    assert!(
        avbo[0] < avbo[1] && avbo[1] < avbo[2],
        "bandwidth overhead must grow once b exceeds k: {avbo:?}"
    );
    assert!(
        requests[0] >= requests[1] && requests[1] >= requests[2],
        "request counts must not increase with larger b: {requests:?}"
    );
}

#[test]
fn multi_term_queries_split_into_single_term_queries() {
    let bed = bed();
    let order = bed.stats.terms_by_doc_freq();
    let terms = [order[0], order[2], order[4]];
    let (server, client) = served(bed);
    let config = RetrievalConfig::for_k(10);
    let (merged, per_term) = client
        .query_multi(&server, &bed.plan, &terms, &config)
        .expect("multi-term query");
    assert_eq!(per_term.len(), 3);
    assert!(merged.len() <= 10);
    assert!(merged.windows(2).all(|w| w[0].1 >= w[1].1));
    // Each per-term ranking is the single-term query's, and every merged
    // result scores the sum of its per-term relevances.
    for (&term, outcome) in terms.iter().zip(&per_term) {
        let single = client.query(&server, &bed.plan, term, &config).unwrap();
        assert_eq!(single.results, outcome.results, "term {term}");
    }
    for &(doc, score) in &merged {
        let found = per_term.iter().flat_map(|o| &o.results);
        let sum: f64 = found.filter(|r| r.0 == doc).map(|r| r.1).sum();
        assert!(sum > 0.0 && (score - sum).abs() < 1e-12, "doc {doc}");
    }
    assert_eq!(server.open_cursors(), 0);
}
