//! Concurrency integration test: several group members query and insert
//! against one shared index server at the same time (the collaborative
//! setting of Section 2).  The server's internal locking must keep the
//! ordered-index invariant intact and every client must still receive exactly
//! the results it is entitled to.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use zerber_suite::corpus::{DatasetProfile, DocId, GroupId};
use zerber_suite::protocol::{AccessControl, Client, IndexServer, QueryRequest, WireElement};
use zerber_suite::workload::{TestBed, TestBedConfig};
use zerber_suite::zerber::MergedListId;
use zerber_suite::zerber_r::RetrievalConfig;

#[test]
fn concurrent_queries_and_inserts_preserve_invariants() {
    let bed = TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).expect("bed builds");
    let mut acl = AccessControl::new(b"concurrency-secret");
    let all_groups: Vec<GroupId> = (0..bed.corpus.num_groups() as u32).map(GroupId).collect();
    for i in 0..4 {
        acl.register_user(&format!("user-{i}"), &all_groups);
    }
    let elements_before = bed.index.num_elements();
    let server = Arc::new(IndexServer::new(bed.index.clone(), acl).expect("server builds"));
    let plan = Arc::new(bed.plan.clone());
    let model = Arc::new(bed.model.clone());
    let order = bed.stats.terms_by_doc_freq();
    let query_terms: Vec<_> = order.iter().copied().take(12).collect();
    let insert_term = order[0];

    let mut handles = Vec::new();
    for worker in 0..4u32 {
        let server = Arc::clone(&server);
        let plan = Arc::clone(&plan);
        let model = Arc::clone(&model);
        let memberships: HashMap<GroupId, _> = bed
            .all_memberships
            .iter()
            .map(|(g, k)| (*g, k.clone()))
            .collect();
        let query_terms = query_terms.clone();
        handles.push(std::thread::spawn(move || {
            let user = format!("user-{worker}");
            let token = server.acl().issue_token(&user);
            let mut client = Client::new(user, token, memberships);
            let mut total_results = 0usize;
            let mut inserted = 0usize;
            for round in 0..5usize {
                // Query a rotating subset of terms.
                for (i, &term) in query_terms.iter().enumerate() {
                    if (i + round) % 3 == worker as usize % 3 {
                        let outcome = client
                            .query(&server, &plan, term, &RetrievalConfig::for_k(5))
                            .expect("query succeeds");
                        total_results += outcome.results.len();
                    }
                }
                // Insert one small document per round into the worker's group.
                let group = GroupId(worker % 2);
                let doc = DocId(500_000 + worker * 1_000 + round as u32);
                inserted += client
                    .insert_document(
                        &server,
                        &plan,
                        &model,
                        doc,
                        group,
                        &[
                            (term_for_round(&query_terms, round), 2),
                            (insert_term_copy(insert_term), 1),
                        ],
                    )
                    .expect("insert succeeds");
            }
            (total_results, inserted)
        }));
    }
    let mut total_results = 0usize;
    let mut total_inserted = 0usize;
    for h in handles {
        let (results, inserted) = h.join().expect("worker thread did not panic");
        total_results += results;
        total_inserted += inserted;
    }
    assert!(total_results > 0, "queries must return results");
    assert_eq!(
        total_inserted,
        4 * 5 * 2,
        "every insert round adds two posting elements"
    );
    assert_eq!(
        server.num_elements(),
        elements_before + total_inserted,
        "server must hold exactly the original plus the inserted elements"
    );
    let stats = server.stats();
    assert_eq!(stats.inserts_accepted as usize, total_inserted);
    assert!(stats.requests_served > 0);
    assert!(stats.bytes_out > 0);

    // After the concurrent phase, a fresh query must still see a consistent,
    // TRS-ordered view: results of the insert term include the new documents.
    let token = server.acl().issue_token("user-0");
    let auditor = Client::new("user-0", token, bed.all_memberships.clone());
    let outcome = auditor
        .query(&server, &plan, insert_term, &RetrievalConfig::for_k(50))
        .expect("audit query succeeds");
    assert!(outcome.results.len() >= 20);
    // Ranked output must be non-increasing in relevance.
    assert!(outcome.results.windows(2).all(|w| w[0].1 >= w[1].1 - 1e-12));
}

fn term_for_round(
    terms: &[zerber_suite::corpus::TermId],
    round: usize,
) -> zerber_suite::corpus::TermId {
    terms[round % terms.len()]
}

fn insert_term_copy(t: zerber_suite::corpus::TermId) -> zerber_suite::corpus::TermId {
    t
}

/// Walks one merged list to exhaustion as `user` via cursor follow-ups of
/// size `step`, returning the exact element sequence received.
fn cursor_walk(server: &IndexServer, user: &str, list: u64, step: u32) -> Vec<WireElement> {
    let token = server.acl().issue_token(user);
    let mut elements = Vec::new();
    let mut cursor = 0u64;
    let mut visible = u64::MAX;
    while (elements.len() as u64) < visible {
        let response = server
            .handle_query(
                &QueryRequest {
                    user: user.to_string(),
                    list,
                    offset: elements.len() as u64,
                    cursor,
                    count: step,
                    k: step,
                },
                &token,
            )
            .expect("cursor walk request succeeds");
        cursor = response.cursor;
        visible = response.visible_total;
        if response.elements.is_empty() {
            break;
        }
        elements.extend(response.elements);
    }
    elements
}

fn busiest_list(server: &IndexServer) -> u64 {
    (0..server.num_lists() as u64)
        .max_by_key(|&l| server.store().list_len(MergedListId(l)).unwrap())
        .unwrap()
}

/// Satellite check for the cursor-session engine: two clients interleave
/// follow-up requests on the *same* merged list — concurrently and in strict
/// alternation — and each must receive exactly the element sequence a
/// sequential, single-client run produces.  Sessions are per-client, so
/// neither walk may disturb the other's position.
#[test]
fn interleaved_cursor_follow_ups_match_a_sequential_run() {
    let bed = TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).expect("bed builds");
    let server = Arc::new(bed.build_server(4, 2));
    let list = busiest_list(&server);
    let list_len = server.store().list_len(MergedListId(list)).unwrap();
    assert!(list_len > 10, "need a non-trivial list, got {list_len}");

    // Sequential references (queries do not mutate, so the same server can
    // serve them): one walk per step size.
    let reference_a = cursor_walk(&server, "user-0", list, 3);
    let reference_b = cursor_walk(&server, "user-1", list, 5);
    assert_eq!(reference_a.len(), list_len);
    assert_eq!(reference_b.len(), list_len);

    // Concurrent interleaving: both clients start together on the same list.
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [("user-0", 3u32), ("user-1", 5u32)]
        .into_iter()
        .map(|(user, step)| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cursor_walk(&server, user, list, step)
            })
        })
        .collect();
    let concurrent: Vec<Vec<WireElement>> = handles
        .into_iter()
        .map(|h| h.join().expect("walker did not panic"))
        .collect();
    assert_eq!(concurrent[0], reference_a);
    assert_eq!(concurrent[1], reference_b);

    // Deterministic strict alternation: one request for A, one for B, ...
    let token_a = server.acl().issue_token("user-0");
    let token_b = server.acl().issue_token("user-1");
    let mut walks = [
        ("user-0", &token_a, 3u32, Vec::new(), 0u64, false),
        ("user-1", &token_b, 5u32, Vec::new(), 0u64, false),
    ];
    while walks.iter().any(|w| !w.5) {
        for (user, token, step, elements, cursor, done) in walks.iter_mut() {
            if *done {
                continue;
            }
            let response = server
                .handle_query(
                    &QueryRequest {
                        user: user.to_string(),
                        list,
                        offset: elements.len() as u64,
                        cursor: *cursor,
                        count: *step,
                        k: *step,
                    },
                    token,
                )
                .expect("alternating request succeeds");
            *cursor = response.cursor;
            let received = elements.len() + response.elements.len();
            *done = response.elements.is_empty() || received as u64 >= response.visible_total;
            elements.extend(response.elements);
        }
    }
    assert_eq!(walks[0].3, reference_a);
    assert_eq!(walks[1].3, reference_b);
    assert_eq!(
        server.open_cursors(),
        0,
        "exhausted walks close their sessions"
    );
}
