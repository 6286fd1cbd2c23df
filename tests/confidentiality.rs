//! Cross-crate confidentiality tests: the TRS stored on the untrusted server
//! must be statistically silent about which term a posting element belongs
//! to, while the raw scores of an ordinary index are not.

use zerber_suite::corpus::{DatasetProfile, TermId};
use zerber_suite::workload::{TestBed, TestBedConfig};
use zerber_suite::zerber_r::{uniformity_variance, RstfKernel};

fn bed() -> &'static TestBed {
    use std::sync::OnceLock;
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| {
        TestBed::build(TestBedConfig {
            scale: 0.01,
            ..TestBedConfig::small(DatasetProfile::OdpWeb)
        })
        .expect("test bed builds")
    })
}

fn trs_values(bed: &TestBed, term: TermId) -> Vec<f64> {
    bed.stats
        .term(term)
        .expect("term exists")
        .postings
        .iter()
        .map(|&(doc, _, rel)| bed.model.transform(term, doc, rel))
        .collect()
}

#[test]
fn trs_distributions_are_far_more_uniform_than_raw_scores() {
    let bed = bed();
    let order = bed.stats.terms_by_doc_freq();
    let mut improved = 0usize;
    let mut tested = 0usize;
    for &term in order.iter().take(40) {
        let stats = bed.stats.term(term).unwrap();
        if stats.doc_freq < 30 {
            continue;
        }
        let raw: Vec<f64> = stats.relevance_scores();
        let trs = trs_values(bed, term);
        let raw_var = uniformity_variance(&raw);
        let trs_var = uniformity_variance(&trs);
        tested += 1;
        if trs_var < raw_var {
            improved += 1;
        }
    }
    assert!(tested >= 10, "need enough frequent terms to test");
    assert!(
        improved as f64 / tested as f64 > 0.9,
        "RSTF should uniformize nearly every frequent term ({improved}/{tested})"
    );
}

#[test]
fn trs_distributions_of_different_terms_are_mutually_indistinguishable() {
    // Pairwise two-sample KS distances between the TRS distributions of
    // different frequent terms must be small — this is the operational
    // meaning of "relevance scores of different terms are indistinguishable".
    let bed = bed();
    let order = bed.stats.terms_by_doc_freq();
    let frequent: Vec<TermId> = order
        .iter()
        .copied()
        .filter(|&t| bed.stats.doc_freq(t).unwrap_or(0) >= 50)
        .take(8)
        .collect();
    assert!(frequent.len() >= 4);
    let mut max_trs_distance: f64 = 0.0;
    let mut max_raw_distance: f64 = 0.0;
    for i in 0..frequent.len() {
        for j in (i + 1)..frequent.len() {
            let a_trs = trs_values(bed, frequent[i]);
            let b_trs = trs_values(bed, frequent[j]);
            let a_raw = bed.stats.term(frequent[i]).unwrap().relevance_scores();
            let b_raw = bed.stats.term(frequent[j]).unwrap().relevance_scores();
            max_trs_distance =
                max_trs_distance.max(zerber_suite::zerber_r::math::ks_two_sample(&a_trs, &b_trs));
            max_raw_distance =
                max_raw_distance.max(zerber_suite::zerber_r::math::ks_two_sample(&a_raw, &b_raw));
        }
    }
    assert!(
        max_trs_distance < max_raw_distance,
        "TRS distances ({max_trs_distance}) must be below raw distances ({max_raw_distance})"
    );
    assert!(
        max_trs_distance < 0.35,
        "pairwise TRS KS distance should stay small, got {max_trs_distance}"
    );
}

#[test]
fn fingerprinting_accuracy_collapses_from_raw_to_trs() {
    // Attack 1 of `zerber_repro security`, on this file's ODP bed.
    let [raw_report, trs_report] = zerber_bench::fingerprint_audit(bed(), 25, 11);
    assert!(raw_report.trials >= 20);
    assert!(
        raw_report.accuracy() > 0.9,
        "raw accuracy {}",
        raw_report.accuracy()
    );
    assert!(
        trs_report.accuracy() < raw_report.accuracy() / 2.0,
        "TRS accuracy {} should collapse relative to raw {}",
        trs_report.accuracy(),
        raw_report.accuracy()
    );
    assert!(
        trs_report.accuracy() < 0.5,
        "TRS accuracy {} should approach the 0.2 chance level",
        trs_report.accuracy()
    );
}

#[test]
fn both_rstf_kernels_preserve_per_term_ranking() {
    // Whatever kernel is used, the per-term ordering must be identical to the
    // raw relevance ordering — otherwise retrieval accuracy would suffer.
    let bed = bed();
    let term = bed.stats.terms_by_doc_freq()[0];
    let stats = bed.stats.term(term).unwrap();
    for kernel in [RstfKernel::Logistic, RstfKernel::Erf] {
        let scores: Vec<f64> = stats.relevance_scores();
        let rstf = zerber_suite::zerber_r::Rstf::fit(&scores, 200.0, kernel).unwrap();
        let mut pairs: Vec<(f64, f64)> = scores.iter().map(|&s| (s, rstf.transform(s))).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            assert!(w[1].1 >= w[0].1, "kernel {kernel:?} broke the ordering");
        }
    }
}

#[test]
fn unseen_term_fallback_is_uniform_and_deterministic() {
    let bed = bed();
    let unseen = TermId(3_000_000);
    let values: Vec<f64> = (0..500)
        .map(|i| {
            bed.model
                .transform(unseen, zerber_suite::corpus::DocId(i), 0.3)
        })
        .collect();
    // Deterministic per (term, doc).
    let again: Vec<f64> = (0..500)
        .map(|i| {
            bed.model
                .transform(unseen, zerber_suite::corpus::DocId(i), 0.9)
        })
        .collect();
    assert_eq!(
        values, again,
        "fallback TRS ignores the raw score and is stable"
    );
    // And the fallback population is spread over [0,1) rather than clustered.
    let var = uniformity_variance(&values);
    assert!(
        var < 5e-3,
        "fallback TRS should look uniform, variance {var}"
    );
    assert!(values.iter().all(|v| (0.0..1.0).contains(v)));
}
