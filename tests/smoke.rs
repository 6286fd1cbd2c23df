//! Workspace smoke test: the fastest possible end-to-end canary.
//!
//! Builds a small test bed, runs a single query through the full
//! client → untrusted server → decrypt → rank pipeline, and checks that the
//! results are non-empty and entitlement-filtered (a client holding keys for
//! one group must only ever see that group's documents).  Future refactors
//! should keep this test fast — it exists to fail early and cheaply.

use std::collections::HashMap;

use zerber_suite::corpus::{DatasetProfile, GroupId};
use zerber_suite::protocol::{AccessControl, Client, IndexServer};
use zerber_suite::workload::{TestBed, TestBedConfig};
use zerber_suite::zerber_r::RetrievalConfig;

#[test]
fn single_query_roundtrip_returns_entitled_results() {
    let bed = TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).expect("bed builds");
    assert!(
        bed.corpus.num_groups() >= 2,
        "need a second group to test filtering"
    );

    let member_group = GroupId(0);
    let mut acl = AccessControl::new(b"smoke-secret");
    acl.register_user("smoke-user", &[member_group]);
    let server = IndexServer::new(bed.index.clone(), acl).expect("server builds");

    let token = server.acl().issue_token("smoke-user");
    let memberships: HashMap<GroupId, _> = bed
        .all_memberships
        .iter()
        .filter(|(g, _)| **g == member_group)
        .map(|(g, k)| (*g, k.clone()))
        .collect();
    assert_eq!(
        memberships.len(),
        1,
        "client holds keys for exactly one group"
    );
    let client = Client::new("smoke-user", token, memberships);

    // The most frequent term occurs in documents of every group, so the
    // entitlement filter is actually exercised.
    let term = bed.stats.terms_by_doc_freq()[0];
    let outcome = client
        .query(&server, &bed.plan, term, &RetrievalConfig::for_k(10))
        .expect("query succeeds");

    assert!(
        !outcome.results.is_empty(),
        "frequent term must return results"
    );
    assert!(outcome.results.len() <= 10);
    assert!(outcome.requests >= 1);
    assert!(outcome.bytes_received > 0);
    for &(doc, score) in &outcome.results {
        assert!(score >= 0.0, "relevance scores are non-negative");
        let entry = bed
            .corpus
            .doc(doc)
            .expect("result references a corpus document");
        assert_eq!(
            entry.group, member_group,
            "doc {doc:?} from group {:?} leaked to a client entitled only to {member_group:?}",
            entry.group
        );
    }
}
