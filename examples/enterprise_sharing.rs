//! Enterprise document sharing — the PCC scenario of Section 2.
//!
//! John leads several customer projects and belongs to multiple collaboration
//! groups; a subcontractor only belongs to one.  Both search the same
//! outsourced index through the untrusted server, which enforces access
//! control and ranks by TRS without ever decrypting a posting element.  John
//! also indexes a new document from the road, exercising the online insert
//! path.
//!
//! Run with:
//! ```text
//! cargo run --release --example enterprise_sharing
//! ```

use std::collections::HashMap;

use zerber_suite::corpus::CorpusGenerator;
use zerber_suite::corpus::{
    sample_split, CorpusStats, CustomProfile, DatasetProfile, DocId, GroupId, SplitConfig,
    SynthConfig,
};
use zerber_suite::crypto::{GroupKeys, MasterKey};
use zerber_suite::protocol::{AccessControl, Client, IndexServer};
use zerber_suite::zerber::{BfmMerge, ConfidentialityParam, MergeScheme};
use zerber_suite::zerber_r::{OrderedIndex, RetrievalConfig, RstfConfig, RstfModel};

fn keyring(master: &MasterKey, groups: &[u32]) -> HashMap<GroupId, GroupKeys> {
    groups
        .iter()
        .map(|&g| (GroupId(g), master.group_keys(g)))
        .collect()
}

fn main() {
    // 1. PCC's shared document base: three customer projects, synthetic but
    //    statistically realistic (Zipfian vocabulary, log-normal lengths).
    let synth = SynthConfig {
        profile: DatasetProfile::Custom(CustomProfile {
            num_docs: 600,
            num_groups: 3,
            vocab_size: 2_000,
            general_vocab_fraction: 0.5,
            topic_mix: 0.35,
            zipf_exponent: 1.05,
            doc_length_median: 90.0,
            doc_length_sigma: 0.8,
            min_doc_length: 20,
            max_doc_length: 600,
        }),
        scale: 1.0,
        seed: 2_009,
    };
    let corpus = CorpusGenerator::new(synth)
        .generate()
        .expect("generation succeeds");
    let stats = CorpusStats::compute(&corpus);
    println!(
        "PCC document base: {} documents in {} project groups, {} distinct terms",
        corpus.num_docs(),
        corpus.num_groups(),
        corpus.num_terms()
    );

    // 2. The advisory board initializes Zerber+R: RSTF training, BFM merge
    //    plan with r = 3, encrypted ordered index, and the index server run
    //    by the (untrusted) hosting provider.
    let split = sample_split(&corpus, SplitConfig::default()).expect("split");
    let model = RstfModel::train(&corpus, &split, &RstfConfig::default()).expect("training");
    let plan = BfmMerge
        .plan(&stats, ConfidentialityParam::new(3.0).expect("r > 1"))
        .expect("merge plan");
    let master = MasterKey::from_passphrase("pcc master secret", b"enterprise-salt");
    let index = OrderedIndex::build(&corpus, plan.clone(), &model, &master, 7).expect("index");
    let mut acl = AccessControl::new(b"hosting-provider-secret");
    acl.register_user("john", &[GroupId(0), GroupId(1), GroupId(2)]);
    acl.register_user("subcontractor", &[GroupId(1)]);
    let server = IndexServer::new(index, acl).expect("server builds");
    println!(
        "index server hosts {} merged posting lists / {} encrypted elements ({} KiB)",
        server.num_lists(),
        server.num_elements(),
        server.stored_bytes() / 1024
    );

    // 3. Both users search for the same frequent project term.
    let term = stats.terms_by_doc_freq()[3];
    let term_name = corpus
        .dictionary()
        .term(term)
        .unwrap_or("<unknown>")
        .to_string();
    let john = Client::new(
        "john",
        server.acl().issue_token("john"),
        keyring(&master, &[0, 1, 2]),
    );
    let sub = Client::new(
        "subcontractor",
        server.acl().issue_token("subcontractor"),
        keyring(&master, &[1]),
    );
    let config = RetrievalConfig::for_k(10);
    let john_results = john
        .query(&server, &plan, term, &config)
        .expect("john's query succeeds");
    let sub_results = sub
        .query(&server, &plan, term, &config)
        .expect("subcontractor's query succeeds");
    println!("\nquery term: {term_name:?} (top-10)");
    println!(
        "  john          : {} results from groups {:?}, {} request(s), {} bytes down",
        john_results.results.len(),
        john_results
            .results
            .iter()
            .map(|&(d, _)| corpus.doc(d).unwrap().group.0)
            .collect::<std::collections::BTreeSet<_>>(),
        john_results.requests,
        john_results.bytes_received
    );
    println!(
        "  subcontractor : {} results, all from group 1: {}",
        sub_results.results.len(),
        sub_results
            .results
            .iter()
            .all(|&(d, _)| corpus.doc(d).unwrap().group == GroupId(1))
    );

    // 4. John indexes a fresh trip report for project 0 from his PDA.
    let mut john = john;
    let trip_terms: Vec<(zerber_suite::corpus::TermId, u32)> =
        vec![(term, 6), (stats.terms_by_doc_freq()[10], 2)];
    let inserted = john
        .insert_document(
            &server,
            &plan,
            &model,
            DocId(1_000_000),
            GroupId(0),
            &trip_terms,
        )
        .expect("insert succeeds");
    println!("\njohn inserted a new trip report: {inserted} posting elements added");
    let after = john
        .query(&server, &plan, term, &RetrievalConfig::for_k(3))
        .expect("query after insert");
    let found = after.results.iter().any(|&(d, _)| d == DocId(1_000_000));
    println!("new document already ranks in john's top-3: {found}");

    // 5. The subcontractor cannot write into project 0.
    let mut sub = sub;
    let denied = sub.insert_document(
        &server,
        &plan,
        &model,
        DocId(1_000_001),
        GroupId(0),
        &trip_terms,
    );
    println!(
        "subcontractor insert into project 0 denied: {}",
        denied.is_err()
    );
    println!("\nserver-side traffic counters: {:?}", server.stats());
}
