//! The querying / inserting client.
//!
//! A client holds the group keys of the groups she belongs to, the published
//! merge plan (term → merged list) and the published RSTF model.  For a
//! query she addresses the merged list of her term, asks for the top-`b`
//! elements, decrypts and filters locally, and sends doubling follow-up
//! requests until she has `k` results (Section 5.2): `zerber_r`'s
//! [`RetrievalRun`], which this module carries over the wire.  Follow-ups
//! resume the server-side cursor session; multi-term queries send their
//! initial round as one batch, authenticated once.  All exchanged bytes are
//! accounted so the harness can reproduce the bandwidth figures.

use std::collections::HashMap;

use zerber_base::{EncryptedElement, MergePlan, PostingPayload};
use zerber_corpus::{DocId, GroupId, TermId};
use zerber_crypto::{DeterministicRng, GroupKeys};
use zerber_r::{merge_rankings, RetrievalConfig, RetrievalRun, RstfModel};

use crate::acl::AuthToken;
use crate::error::ProtocolError;
use crate::message::{QueryRequest, QueryResponse};
use crate::server::{IndexServer, InsertRequest};

/// Byte/traffic outcome of one client-side query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientQueryOutcome {
    /// Ranked `(doc, raw relevance)` results, best first, at most `k`.
    pub results: Vec<(DocId, f64)>,
    /// Requests sent (initial + follow-ups).
    pub requests: usize,
    /// Posting elements received.
    pub elements_received: usize,
    /// Bytes sent to the server.
    pub bytes_sent: usize,
    /// Bytes received from the server.
    pub bytes_received: usize,
    /// Whether `k` results were collected before the list was exhausted.
    pub satisfied: bool,
}

/// Merged multi-term ranking plus the per-term query outcomes behind it.
pub type MultiQueryOutcome = (Vec<(DocId, f64)>, Vec<ClientQueryOutcome>);

impl ClientQueryOutcome {
    /// Query efficiency `k / TRes` (Equation 14).
    pub fn efficiency(&self, k: usize) -> f64 {
        if self.elements_received == 0 {
            return 1.0;
        }
        (k as f64 / self.elements_received as f64).min(1.0)
    }
}

/// One term's retrieval on the wire: the shared [`RetrievalRun`] plus the
/// cursor session it resumes and the bytes it exchanged.
#[derive(Debug)]
struct TermRun {
    run: RetrievalRun,
    cursor: u64,
    bytes_sent: usize,
    bytes_received: usize,
}

impl TermRun {
    fn new(
        plan: &MergePlan,
        term: TermId,
        config: &RetrievalConfig,
    ) -> Result<Self, ProtocolError> {
        Ok(TermRun {
            run: RetrievalRun::new(plan, term, config)
                .map_err(|e| ProtocolError::InvalidRequest(e.to_string()))?,
            cursor: 0,
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// The run's next request.  Sizes past the wire's 32 bits saturate: a
    /// request can ask for no more than the list holds anyway.
    fn next_request(&self, user: &str) -> QueryRequest {
        QueryRequest {
            user: user.to_string(),
            list: self.run.list().0,
            offset: self.run.received() as u64,
            cursor: self.cursor,
            count: u32::try_from(self.run.next_size()).unwrap_or(u32::MAX),
            k: u32::try_from(self.run.config().k).unwrap_or(u32::MAX),
        }
    }

    /// Accounts one request/response exchange and hands the response to the
    /// run.
    fn absorb(
        &mut self,
        request: &QueryRequest,
        response: &QueryResponse,
        keys: &HashMap<GroupId, GroupKeys>,
    ) -> Result<(), ProtocolError> {
        self.bytes_sent += request.encoded_bytes();
        self.bytes_received += response.encoded_bytes();
        self.cursor = response.cursor;
        let visible_total = usize::try_from(response.visible_total).unwrap_or(usize::MAX);
        let elements = response.elements.iter();
        let elements = elements.map(|wire| (wire.group, &*wire.ciphertext));
        Ok(self.run.absorb(visible_total, elements, keys)?)
    }

    /// Releases the server-side session if the run stopped before the list
    /// was exhausted.
    fn release(&mut self, server: &IndexServer, user: &str) {
        if self.cursor != 0 {
            server.close_cursor(self.cursor, user);
            self.cursor = 0;
        }
    }

    fn finish(self) -> ClientQueryOutcome {
        let outcome = self.run.finish();
        ClientQueryOutcome {
            results: outcome.results,
            requests: outcome.requests,
            elements_received: outcome.elements_transferred,
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
            satisfied: outcome.satisfied,
        }
    }
}

/// A collaboration-group member interacting with the index server.
#[derive(Debug)]
pub struct Client {
    user: String,
    token: AuthToken,
    keys: HashMap<GroupId, GroupKeys>,
    rng: DeterministicRng,
}

impl Client {
    /// Creates a client for `user` holding keys for `keys` groups.
    pub fn new(
        user: impl Into<String>,
        token: AuthToken,
        keys: HashMap<GroupId, GroupKeys>,
    ) -> Self {
        let user = user.into();
        Client {
            // Clients share their group's key: never a nonce stream.
            rng: DeterministicRng::unique(&[user.as_bytes(), &token.0].concat()),
            user,
            token,
            keys,
        }
    }

    /// The user name.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The groups this client can decrypt.
    pub fn groups(&self) -> Vec<GroupId> {
        let mut g: Vec<GroupId> = self.keys.keys().copied().collect();
        g.sort();
        g
    }

    /// Drives one term run to completion with individual requests.  The
    /// server-side session is released on every exit path — a failed
    /// follow-up must not leak an open cursor.
    fn drive(&self, server: &IndexServer, run: &mut TermRun) -> Result<(), ProtocolError> {
        let result = (|| {
            while !run.run.is_done() {
                let request = run.next_request(&self.user);
                let response = server.handle_query(&request, &self.token)?;
                run.absorb(&request, &response, &self.keys)?;
            }
            Ok(())
        })();
        run.release(server, &self.user);
        result
    }

    /// Executes a single-term top-k query against `server`.
    pub fn query(
        &self,
        server: &IndexServer,
        plan: &MergePlan,
        term: TermId,
        config: &RetrievalConfig,
    ) -> Result<ClientQueryOutcome, ProtocolError> {
        let mut run = TermRun::new(plan, term, config)?;
        self.drive(server, &mut run)?;
        Ok(run.finish())
    }

    /// Executes a multi-term query (Section 3.2) and merges rankings by
    /// summed relevance.  The initial round of all terms is sent as one
    /// batch, which the server authenticates once, and each term then
    /// continues with its own follow-up requests.
    pub fn query_multi(
        &self,
        server: &IndexServer,
        plan: &MergePlan,
        terms: &[TermId],
        config: &RetrievalConfig,
    ) -> Result<MultiQueryOutcome, ProtocolError> {
        if terms.is_empty() {
            return Err(ProtocolError::InvalidRequest("empty query".into()));
        }
        let mut runs = terms
            .iter()
            .map(|&t| TermRun::new(plan, t, config))
            .collect::<Result<Vec<_>, _>>()?;
        let initial: Vec<QueryRequest> = runs
            .iter()
            .map(|run| run.next_request(&self.user))
            .collect();
        let responses = server.handle_query_batch(&initial, &self.token)?;
        let mut error = None;
        for ((run, request), response) in runs.iter_mut().zip(&initial).zip(responses) {
            let absorbed = response.and_then(|response| {
                // Record the session id even after an earlier error: the
                // release pass below must still close its cursor.
                run.cursor = response.cursor;
                match error {
                    None => run.absorb(request, &response, &self.keys),
                    Some(_) => Ok(()),
                }
            });
            if let Err(e) = absorbed {
                error.get_or_insert(e);
            }
        }
        let mut per_term = Vec::with_capacity(terms.len());
        for mut run in runs {
            // After a failure, only release the sessions of the remaining
            // runs instead of abandoning them server-side.
            if error.is_none() {
                match self.drive(server, &mut run) {
                    Ok(()) => per_term.push(run.finish()),
                    Err(e) => error = Some(e),
                }
            } else {
                run.release(server, &self.user);
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        let merged = merge_rankings(per_term.iter().map(|o| o.results.as_slice()), config.k);
        Ok((merged, per_term))
    }

    /// Indexes one document the way Section 5 describes: for every term the
    /// owner builds the posting element, seals it, computes the TRS with the
    /// published RSTF and sends everything to the server.
    ///
    /// Returns the number of posting elements inserted.
    pub fn insert_document(
        &mut self,
        server: &IndexServer,
        plan: &MergePlan,
        model: &RstfModel,
        doc: DocId,
        group: GroupId,
        term_counts: &[(TermId, u32)],
    ) -> Result<usize, ProtocolError> {
        let keys = self.keys.get(&group).ok_or(ProtocolError::AccessDenied {
            user: self.user.clone(),
            group: group.0,
        })?;
        let doc_len: u32 = term_counts.iter().map(|&(_, c)| c).sum();
        let mut inserted = 0usize;
        for &(term, tf) in term_counts {
            let list = plan
                .list_of(term)
                .map_err(|e| ProtocolError::InvalidRequest(e.to_string()))?;
            let payload = PostingPayload {
                term,
                doc,
                tf,
                doc_len,
            };
            let sealed = EncryptedElement::seal(&payload, group, keys, list, &mut self.rng)
                .map_err(|e| ProtocolError::Core(e.to_string()))?;
            let trs = model.transform(term, doc, payload.relevance());
            server.handle_insert(
                &InsertRequest {
                    user: self.user.clone(),
                    list: list.0,
                    group,
                    trs,
                    ciphertext: sealed.ciphertext.to_vec(),
                },
                &self.token,
            )?;
            inserted += 1;
        }
        Ok(inserted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::AccessControl;
    use crate::server::ServerStats;
    use zerber_base::{BfmMerge, ConfidentialityParam, MergeScheme, MergedListId};
    use zerber_corpus::{
        sample_split, Corpus, CorpusGenerator, CorpusStats, CustomProfile, DatasetProfile,
        SplitConfig, SynthConfig,
    };
    use zerber_crypto::MasterKey;
    use zerber_index::InvertedIndex;
    use zerber_r::{retrieve_topk, OrderedIndex, RstfConfig};

    struct Fixture {
        corpus: Corpus,
        stats: CorpusStats,
        plan: MergePlan,
        model: RstfModel,
        server: IndexServer,
        master: MasterKey,
    }

    fn fixture() -> Fixture {
        let config = SynthConfig {
            profile: DatasetProfile::Custom(CustomProfile {
                num_docs: 200,
                num_groups: 2,
                vocab_size: 500,
                general_vocab_fraction: 0.6,
                topic_mix: 0.25,
                zipf_exponent: 1.0,
                doc_length_median: 60.0,
                doc_length_sigma: 0.6,
                min_doc_length: 15,
                max_doc_length: 250,
            }),
            scale: 1.0,
            seed: 321,
        };
        let corpus = CorpusGenerator::new(config).generate().unwrap();
        let stats = CorpusStats::compute(&corpus);
        let split = sample_split(&corpus, SplitConfig::default()).unwrap();
        let model = RstfModel::train(&corpus, &split, &RstfConfig::default()).unwrap();
        let plan = BfmMerge
            .plan(&stats, ConfidentialityParam::new(3.0).unwrap())
            .unwrap();
        let master = MasterKey::new([6u8; 32]);
        let index = OrderedIndex::build(&corpus, plan.clone(), &model, &master, 9).unwrap();
        let mut acl = AccessControl::new(b"s3");
        acl.register_user("john", &[GroupId(0), GroupId(1)]);
        acl.register_user("alice", &[GroupId(1)]);
        let server = IndexServer::new(index, acl).unwrap();
        Fixture {
            corpus,
            stats,
            plan,
            model,
            server,
            master,
        }
    }

    fn client(f: &Fixture, user: &str, groups: &[u32]) -> Client {
        let token = f.server.acl().issue_token(user);
        let keys: HashMap<GroupId, GroupKeys> = groups
            .iter()
            .map(|&g| (GroupId(g), f.master.group_keys(g)))
            .collect();
        Client::new(user, token, keys)
    }

    #[test]
    fn full_member_query_matches_plaintext_ranking() {
        let f = fixture();
        let john = client(&f, "john", &[0, 1]);
        let plain = InvertedIndex::build(&f.corpus);
        let k = 10;
        for &term in f.stats.terms_by_doc_freq().iter().take(10) {
            let outcome = john
                .query(&f.server, &f.plan, term, &RetrievalConfig::for_k(k))
                .unwrap();
            let reference = plain.query_term(term, k).unwrap();
            let got: Vec<f64> = outcome.results.iter().map(|r| r.1).collect();
            let want: Vec<f64> = reference.iter().map(|p| p.score).collect();
            assert_eq!(got.len(), want.len().min(k));
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-9);
            }
            assert!(outcome.bytes_received > 0);
            assert!(outcome.bytes_sent > 0);
            assert!(outcome.requests >= 1);
        }
    }

    #[test]
    fn restricted_member_only_sees_her_groups() {
        let f = fixture();
        let alice = client(&f, "alice", &[1]);
        let term = f.stats.terms_by_doc_freq()[0];
        let outcome = alice
            .query(&f.server, &f.plan, term, &RetrievalConfig::for_k(10))
            .unwrap();
        for &(doc, _) in &outcome.results {
            assert_eq!(f.corpus.doc(doc).unwrap().group, GroupId(1));
        }
        assert_eq!(alice.groups(), vec![GroupId(1)]);
        assert_eq!(alice.user(), "alice");
    }

    #[test]
    fn frequent_term_top_10_needs_few_requests_with_b_10() {
        // Section 6.4: with b = k = 10, most frequent query terms finish
        // within two requests.
        let f = fixture();
        let john = client(&f, "john", &[0, 1]);
        let term = f.stats.terms_by_doc_freq()[0];
        let outcome = john
            .query(&f.server, &f.plan, term, &RetrievalConfig::for_k(10))
            .unwrap();
        assert!(outcome.satisfied);
        assert!(outcome.requests <= 2, "got {} requests", outcome.requests);
    }

    #[test]
    fn server_traffic_counters_match_client_accounting() {
        let f = fixture();
        f.server.reset_stats();
        let john = client(&f, "john", &[0, 1]);
        let term = f.stats.terms_by_doc_freq()[3];
        let outcome = john
            .query(&f.server, &f.plan, term, &RetrievalConfig::for_k(5))
            .unwrap();
        let stats = f.server.stats();
        assert_eq!(stats.requests_served as usize, outcome.requests);
        assert_eq!(stats.elements_sent as usize, outcome.elements_received);
        assert_eq!(stats.bytes_out as usize, outcome.bytes_received);
        assert_eq!(stats.bytes_in as usize, outcome.bytes_sent);
    }

    #[test]
    fn queries_release_their_cursor_sessions() {
        let f = fixture();
        let john = client(&f, "john", &[0, 1]);
        // A mid-frequency term needs follow-ups (cursor opened) and a rare
        // term exhausts its list (cursor closed by the server).
        let order = f.stats.terms_by_doc_freq();
        for &term in [order[0], order[order.len() / 2], *order.last().unwrap()].iter() {
            john.query(&f.server, &f.plan, term, &RetrievalConfig::for_k(7))
                .unwrap();
            assert_eq!(f.server.open_cursors(), 0, "term {term} leaked a session");
        }
    }

    #[test]
    fn client_insert_roundtrips_through_a_query() {
        let f = fixture();
        let mut john = client(&f, "john", &[0, 1]);
        let term = f.stats.terms_by_doc_freq()[0];
        // A short new document where the term dominates: relevance 0.8.
        let new_doc = DocId(90_000);
        let inserted = john
            .insert_document(
                &f.server,
                &f.plan,
                &f.model,
                new_doc,
                GroupId(0),
                &[(term, 8), (f.stats.terms_by_doc_freq()[1], 2)],
            )
            .unwrap();
        assert_eq!(inserted, 2);
        let outcome = john
            .query(&f.server, &f.plan, term, &RetrievalConfig::for_k(3))
            .unwrap();
        assert!(
            outcome.results.iter().any(|&(d, _)| d == new_doc),
            "newly inserted high-relevance document should reach the top-3"
        );
    }

    #[test]
    fn two_clients_of_one_group_never_share_a_nonce() {
        // At a shared nonce under the group key the server would see the XOR
        // of the two plaintexts and could forge tags.
        let f = fixture();
        let term = f.stats.terms_by_doc_freq()[0];
        let doc = DocId(92_000);
        for _ in 0..2 {
            client(&f, "john", &[0])
                .insert_document(&f.server, &f.plan, &f.model, doc, GroupId(0), &[(term, 3)])
                .unwrap();
        }
        let list = f.plan.list_of(term).unwrap();
        let request = QueryRequest {
            user: "john".into(),
            list: list.0,
            offset: 0,
            cursor: 0,
            count: f.server.store().list_len(list).unwrap() as u32,
            k: 1,
        };
        let token = f.server.acl().issue_token("john");
        let response = f.server.handle_query(&request, &token).unwrap();
        let keys = f.master.group_keys(0);
        let sealed: Vec<&[u8]> = response
            .elements
            .iter()
            .map(|w| &w.ciphertext[..])
            .filter(|c| {
                EncryptedElement::open_ciphertext(c, &keys, list).is_ok_and(|p| p.doc == doc)
            })
            .collect();
        assert_eq!(sealed.len(), 2);
        assert_ne!(
            sealed[0][..12],
            sealed[1][..12],
            "the two inserts share a nonce"
        );
    }

    #[test]
    fn insert_into_foreign_group_is_denied() {
        let f = fixture();
        let mut alice = client(&f, "alice", &[1]);
        let term = f.stats.terms_by_doc_freq()[0];
        let err = alice.insert_document(
            &f.server,
            &f.plan,
            &f.model,
            DocId(91_000),
            GroupId(0),
            &[(term, 1)],
        );
        assert!(matches!(err, Err(ProtocolError::AccessDenied { .. })));
    }

    #[test]
    fn multi_term_queries_and_invalid_parameters() {
        let f = fixture();
        let john = client(&f, "john", &[0, 1]);
        let terms = [
            f.stats.terms_by_doc_freq()[0],
            f.stats.terms_by_doc_freq()[1],
        ];
        let (merged, per_term) = john
            .query_multi(&f.server, &f.plan, &terms, &RetrievalConfig::for_k(5))
            .unwrap();
        assert_eq!(per_term.len(), 2);
        assert!(merged.len() <= 5);
        assert!(john
            .query_multi(&f.server, &f.plan, &[], &RetrievalConfig::for_k(5))
            .is_err());
        assert!(john
            .query(
                &f.server,
                &f.plan,
                terms[0],
                &RetrievalConfig {
                    k: 0,
                    initial_response: 1,
                }
            )
            .is_err());
    }

    #[test]
    fn batched_multi_term_query_equals_sequential_single_term_queries() {
        let f = fixture();
        let john = client(&f, "john", &[0, 1]);
        let order = f.stats.terms_by_doc_freq();
        let terms = [order[0], order[3], order[order.len() / 4]];
        let config = RetrievalConfig::for_k(8);
        f.server.reset_stats();
        let (_, per_term) = john
            .query_multi(&f.server, &f.plan, &terms, &config)
            .unwrap();
        let multi_stats = f.server.stats();
        f.server.reset_stats();
        for (term, batched) in terms.iter().zip(&per_term) {
            let single = john.query(&f.server, &f.plan, *term, &config).unwrap();
            assert_eq!(&single, batched, "term {term}");
        }
        // The server meters both runs identically, but for the initial
        // round's one token check and its batch count.
        let sequential_stats = f.server.stats();
        let initial_round = terms.len() as u64;
        assert_eq!(
            ServerStats {
                auth_checks: multi_stats.auth_checks + initial_round - 1,
                batches: 0,
                ..multi_stats
            },
            sequential_stats
        );
        assert_eq!(multi_stats.batches, 1);
    }

    #[test]
    fn request_sizes_past_the_wire_width_saturate_instead_of_wrapping() {
        // `b` and `k` are 32 bits on the wire.  Truncated, b = 2^32 became a
        // count of 0 and k = 2^32 a k of 0, and the server refused both.
        let f = fixture();
        let john = client(&f, "john", &[0, 1]);
        let keys = john.keys.clone();
        let index = OrderedIndex::from_parts(
            (0..f.server.num_lists() as u64)
                .map(|l| f.server.store().snapshot_list(MergedListId(l)).unwrap())
                .collect(),
            f.plan.clone(),
        );
        let term = f.stats.terms_by_doc_freq()[0];
        let wide = |k: usize, initial_response: usize| RetrievalConfig {
            k,
            initial_response,
        };
        for config in [wide(1, 1 << 32), wide(1 << 32, 10)] {
            let served = john.query(&f.server, &f.plan, term, &config).unwrap();
            let model = retrieve_topk(&index, term, &keys, &config).unwrap();
            assert_eq!(served.results, model.results);
            assert_eq!(served.requests, model.requests);
            assert_eq!(served.elements_received, model.elements_transferred);
            assert_eq!(f.server.open_cursors(), 0);
        }
        let everything = john
            .query(&f.server, &f.plan, term, &wide(1 << 32, 10))
            .unwrap();
        assert!(!everything.satisfied);
        assert_eq!(
            everything.results.len(),
            f.stats.doc_freq(term).unwrap() as usize
        );
    }

    #[test]
    fn efficiency_metric_is_bounded() {
        let f = fixture();
        let john = client(&f, "john", &[0, 1]);
        let term = f.stats.terms_by_doc_freq()[2];
        let outcome = john
            .query(&f.server, &f.plan, term, &RetrievalConfig::for_k(10))
            .unwrap();
        let eff = outcome.efficiency(10);
        assert!((0.0..=1.0).contains(&eff));
    }
}
