//! Experiment orchestration: builds the complete Zerber+R deployment
//! (corpus → split → RSTF model → merge plan → ordered index → server) from a
//! single configuration and runs query workloads against it.
//!
//! `zerber_repro`'s experiments, the benchmark and several integration tests
//! use this test bed so that experiment setup is defined exactly once.
//! Workloads replay on the served system (`Client::query` against a resident
//! `IndexServer` built on first use), checked against the server's counters.

use std::collections::HashMap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use zerber_base::{
    BfmMerge, ConfidentialityParam, MergePlan, MergeScheme, MixedMerge, RandomMerge,
};
use zerber_corpus::{
    sample_split, Corpus, CorpusGenerator, CorpusStats, DatasetProfile, GroupId, SplitConfig,
    SynthConfig, TermId, TrainControlSplit,
};
use zerber_crypto::{GroupKeys, MasterKey};
use zerber_index::InvertedIndex;
use zerber_protocol::{AccessControl, Client, IndexServer};
use zerber_r::{OrderedIndex, RetrievalConfig, RstfConfig, RstfModel};
use zerber_store::{SegmentConfig, SpillStore};

use crate::error::WorkloadError;
use crate::metrics::QuerySample;
use crate::querylog::{QueryLog, QueryLogConfig};

/// Which merging scheme the test bed uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeKind {
    /// Breadth-first merging (the paper's scheme).
    #[default]
    Bfm,
    /// Frequency-spanning ablation.
    Mixed,
    /// Random grouping ablation.
    Random,
}

/// Configuration of a complete experiment deployment.
#[derive(Debug, Clone)]
pub struct TestBedConfig {
    /// Which dataset profile to synthesize.
    pub dataset: DatasetProfile,
    /// Scale factor relative to the paper's corpus sizes.
    pub scale: f64,
    /// r-confidentiality parameter.
    pub r: f64,
    /// Merging scheme.
    pub merge: MergeKind,
    /// RSTF training configuration.
    pub rstf: RstfConfig,
    /// Training/control split configuration.
    pub split: SplitConfig,
    /// Master RNG seed (corpus, index placement, keys derive from it).
    pub seed: u64,
}

impl TestBedConfig {
    /// A small, fast configuration for the given dataset (used by tests and
    /// `zerber_repro`'s default scale).
    pub fn small(dataset: DatasetProfile) -> Self {
        TestBedConfig {
            dataset,
            scale: 0.02,
            r: 3.0,
            merge: MergeKind::Bfm,
            rstf: RstfConfig::default(),
            split: SplitConfig::default(),
            seed: 0xbed,
        }
    }
}

/// A fully built experiment deployment.
pub struct TestBed {
    /// The synthetic corpus.
    pub corpus: Corpus,
    /// Its term statistics.
    pub stats: CorpusStats,
    /// The training/control split used for the RSTF.
    pub split: TrainControlSplit,
    /// The trained RSTF model.
    pub model: RstfModel,
    /// The merge plan.
    pub plan: MergePlan,
    /// The Zerber+R ordered confidential index.
    pub index: OrderedIndex,
    /// An ordinary plaintext index over the same corpus (baseline).
    pub plain_index: InvertedIndex,
    /// The deployment master key.
    pub master: MasterKey,
    /// Group keys for every group (an all-groups member's key ring).
    pub all_memberships: HashMap<GroupId, GroupKeys>,
    /// The configuration the bed was built from.
    pub config: TestBedConfig,
    /// The served system workloads replay on; the lock keeps concurrent
    /// replays from mixing their counter deltas.
    served: Mutex<Option<(IndexServer, Client)>>,
}

impl TestBed {
    /// Builds the full deployment.
    pub fn build(config: TestBedConfig) -> Result<Self, WorkloadError> {
        let synth = SynthConfig {
            profile: config.dataset.clone(),
            scale: config.scale,
            seed: config.seed,
        };
        let corpus = CorpusGenerator::new(synth).generate()?;
        let stats = CorpusStats::compute(&corpus);
        let split = sample_split(&corpus, config.split)?;
        let model = RstfModel::train(&corpus, &split, &config.rstf)?;
        let r = ConfidentialityParam::new(config.r)?;
        let plan = match config.merge {
            MergeKind::Bfm => BfmMerge.plan(&stats, r)?,
            MergeKind::Mixed => MixedMerge.plan(&stats, r)?,
            MergeKind::Random => RandomMerge { seed: config.seed }.plan(&stats, r)?,
        };
        let master = MasterKey::new(master_key_bytes(config.seed));
        let index =
            OrderedIndex::build(&corpus, plan.clone(), &model, &master, config.seed ^ 0xabc)?;
        let plain_index = InvertedIndex::build(&corpus);
        let all_memberships: HashMap<GroupId, GroupKeys> = (0..corpus.num_groups() as u32)
            .map(|g| (GroupId(g), master.group_keys(g)))
            .collect();
        Ok(TestBed {
            corpus,
            stats,
            split,
            model,
            plan,
            index,
            plain_index,
            master,
            all_memberships,
            config,
            served: Mutex::new(None),
        })
    }

    /// Generates a query log matched to this corpus.
    pub fn query_log(&self, config: &QueryLogConfig) -> Result<QueryLog, WorkloadError> {
        QueryLog::generate(&self.stats, config)
    }

    /// The user directory used by [`TestBed::build_segment_server`]: `num_users`
    /// all-group members named `user-0`, `user-1`, ...
    fn server_acl(&self, num_users: usize) -> AccessControl {
        let mut acl = AccessControl::new(b"testbed-server");
        let groups: Vec<GroupId> = (0..self.corpus.num_groups() as u32).map(GroupId).collect();
        for i in 0..num_users.max(1) {
            acl.register_user(&format!("user-{i}"), &groups);
        }
        acl
    }

    /// Builds an index server over a copy of the ordered index on the
    /// engine's resident lifecycle, partitioned across `num_shards` storage
    /// shards, with `num_users` registered all-group users (`user-0`, ...).
    pub fn build_segment_server(&self, num_shards: usize, num_users: usize) -> IndexServer {
        let store = SpillStore::resident(self.index.clone(), num_shards, SegmentConfig::default())
            .expect("resident server builds");
        IndexServer::with_store(Box::new(store), self.server_acl(num_users))
    }

    /// The names registered by [`TestBed::build_segment_server`], in registration
    /// order (the benchmark's callers query as these users).
    pub fn server_users(num_users: usize) -> Vec<String> {
        (0..num_users.max(1)).map(|i| format!("user-{i}")).collect()
    }

    /// Queries the bed's server for top-`k` once per distinct term of the
    /// log, as a member of all groups, with initial response size `b` and
    /// doubling follow-ups; the per-term samples, weighted by query
    /// frequency, feed the Section 6.4–6.6 metrics.
    pub fn run_workload(
        &self,
        log: &QueryLog,
        k: usize,
        b: usize,
    ) -> Result<Vec<QuerySample>, WorkloadError> {
        let config = RetrievalConfig {
            initial_response: b,
            ..RetrievalConfig::for_k(k)
        };
        self.replay(log.term_frequencies(), &config)
    }

    /// Replays `(term, query frequency)` pairs on the served system; fails if
    /// the server's counters disagree with the client's or a session leaks.
    fn replay(
        &self,
        terms: &[(TermId, u64)],
        config: &RetrievalConfig,
    ) -> Result<Vec<QuerySample>, WorkloadError> {
        let mut served = self.served.lock().map_err(|_| {
            WorkloadError::Protocol("an earlier replay on this bed panicked".into())
        })?;
        let (server, client) = served.get_or_insert_with(|| {
            let server = self.build_segment_server(1, 1);
            let token = server.acl().issue_token("user-0");
            let client = Client::new("user-0", token, self.all_memberships.clone());
            (server, client)
        });
        let before = server.stats();
        let mut sent = (0, 0);
        let mut samples = Vec::with_capacity(terms.len());
        for &(term, query_freq) in terms {
            // Terms that never made it into the corpus vocabulary (possible at
            // small scales) address no list: one empty round trip that never
            // reaches the server.
            let (requests, elements_transferred, satisfied) = match self.plan.list_of(term) {
                Err(_) => (1, 0, false),
                Ok(_) => {
                    let o = client.query(server, &self.plan, term, config)?;
                    sent = (sent.0 + o.requests, sent.1 + o.elements_received);
                    (o.requests, o.elements_received, o.satisfied)
                }
            };
            samples.push(QuerySample {
                term,
                query_freq,
                requests,
                elements_transferred,
                satisfied,
            });
        }
        let after = server.stats();
        let requests = after.requests_served.saturating_sub(before.requests_served);
        let elements = after.elements_sent.saturating_sub(before.elements_sent);
        let open = server.open_cursors();
        if (requests, elements, open) != (sent.0 as u64, sent.1 as u64, 0) {
            return Err(WorkloadError::Protocol(format!(
                "the replay sent {sent:?} requests and elements, the server served \
                 ({requests}, {elements}) and kept {open} cursor sessions open"
            )));
        }
        Ok(samples)
    }
}

fn master_key_bytes(seed: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    for (i, chunk) in key.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&(seed.wrapping_mul(i as u64 + 1).wrapping_add(17)).to_le_bytes());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{average_bandwidth_overhead, average_requests};
    use zerber_store::SingleMutexStore;

    fn bed() -> TestBed {
        TestBed::build(TestBedConfig::small(DatasetProfile::StudIp)).unwrap()
    }

    #[test]
    fn small_studip_bed_builds_consistently() {
        let bed = bed();
        assert!(bed.corpus.num_docs() > 100);
        assert_eq!(bed.index.num_lists(), bed.plan.num_lists());
        assert!(bed.index.verify_ordering());
        assert_eq!(
            bed.index.num_elements(),
            bed.corpus
                .docs()
                .map(|(_, d)| d.distinct_terms())
                .sum::<usize>()
        );
        assert_eq!(bed.all_memberships.len(), bed.corpus.num_groups());
    }

    #[test]
    fn workload_execution_produces_weighted_samples() {
        let bed = bed();
        let log = bed
            .query_log(&QueryLogConfig {
                distinct_terms: 100,
                total_queries: 10_000,
                sample_queries: 50,
                ..QueryLogConfig::default()
            })
            .unwrap();
        let samples = bed.run_workload(&log, 10, 10).unwrap();
        assert_eq!(samples.len(), log.distinct_terms());
        let avbo = average_bandwidth_overhead(&samples, 10);
        let reqs = average_requests(&samples);
        assert!(avbo >= 0.5, "AvBO {avbo}");
        assert!(reqs >= 1.0, "requests {reqs}");
        // With b = k most of the (frequency-weighted) workload should be
        // satisfied quickly (Section 6.5).
        assert!(reqs < 6.0, "requests {reqs}");
    }

    #[test]
    fn workload_replays_run_on_the_served_system() {
        let bed = bed();
        let log = bed
            .query_log(&QueryLogConfig {
                distinct_terms: 60,
                total_queries: 10_000,
                sample_queries: 0,
                ..QueryLogConfig::default()
            })
            .unwrap();
        let absent = TermId(u32::MAX);
        assert!(bed.plan.list_of(absent).is_err());
        let mut terms = log.term_frequencies().to_vec();
        terms.push((absent, 3));
        let config = RetrievalConfig::for_k(10);
        let stats = || bed.served.lock().unwrap().as_ref().unwrap().0.stats();
        // The first replay builds the server; the second is measured.
        bed.replay(&terms, &config).unwrap();
        let before = stats();
        let samples = bed.replay(&terms, &config).unwrap();
        let after = stats();
        let (synthetic, served) = samples.split_last().unwrap();
        assert_eq!(
            (
                synthetic.term,
                synthetic.requests,
                synthetic.elements_transferred
            ),
            (absent, 1, 0)
        );
        let sum = |f: fn(&QuerySample) -> usize| served.iter().map(f).sum::<usize>() as u64;
        assert_eq!(
            sum(|s| s.requests),
            after.requests_served - before.requests_served
        );
        assert_eq!(
            sum(|s| s.elements_transferred),
            after.elements_sent - before.elements_sent
        );
        assert_eq!(
            bed.served
                .lock()
                .unwrap()
                .as_ref()
                .unwrap()
                .0
                .open_cursors(),
            0
        );
        // The served client answers every term exactly as the model does.
        for sample in served {
            let model =
                zerber_r::retrieve_topk(&bed.index, sample.term, &bed.all_memberships, &config)
                    .unwrap();
            assert_eq!(
                (
                    sample.requests,
                    sample.elements_transferred,
                    sample.satisfied
                ),
                (model.requests, model.elements_transferred, model.satisfied),
                "term {}",
                sample.term
            );
        }
        // A session the replay did not close is an error, not a panic.
        let served = bed.served.lock().unwrap();
        let (server, client) = served.as_ref().unwrap();
        let list = bed.plan.list_of(terms[0].0).unwrap().0;
        let follow_up = zerber_protocol::QueryRequest {
            user: client.user().to_string(),
            list,
            offset: 1,
            cursor: 0,
            count: 1,
            k: 1,
        };
        let token = server.acl().issue_token(client.user());
        let leaked = server.handle_query(&follow_up, &token).unwrap().cursor;
        assert_ne!(leaked, 0);
        drop(served);
        assert!(matches!(
            bed.replay(&terms, &config),
            Err(WorkloadError::Protocol(_))
        ));
    }

    #[test]
    fn built_servers_serve_the_workload_from_a_thread_pool() {
        let bed = bed();
        let sharded = bed.build_segment_server(4, 2);
        let single = IndexServer::with_store(
            Box::new(SingleMutexStore::new(bed.index.clone())),
            bed.server_acl(2),
        );
        assert_eq!(sharded.num_elements(), bed.index.num_elements());
        assert_eq!(sharded.store().num_shards(), 4);
        assert_eq!(single.store().num_shards(), 1);
        let users = TestBed::server_users(2);
        let lists: Vec<u64> = (0..sharded.num_lists() as u64).take(8).collect();
        // Two workers, one per user, 20 top-5 requests each.
        let serve = |server: &IndexServer| {
            std::thread::scope(|scope| {
                for (w, user) in users.iter().enumerate() {
                    let lists = &lists;
                    scope.spawn(move || {
                        let token = server.acl().issue_token(user);
                        for i in 0..20 {
                            let request = zerber_protocol::QueryRequest {
                                user: user.clone(),
                                list: lists[(w * 31 + i) % lists.len()],
                                offset: 0,
                                cursor: 0,
                                count: 5,
                                k: 5,
                            };
                            let response = server.handle_query(&request, &token).unwrap();
                            server.close_cursor(response.cursor, user);
                        }
                    });
                }
            });
            server.stats()
        };
        let (a, b) = (serve(&sharded), serve(&single));
        assert_eq!(a.requests_served, 40);
        assert_eq!(a.requests_served, b.requests_served);
        // Both engines ship identical element counts for the same workload.
        assert!(a.elements_sent > 0);
        assert_eq!(a.elements_sent, b.elements_sent);
        assert_eq!(sharded.open_cursors(), 0);
        // The compressed segments hold the index in a smaller resident
        // footprint than the oracle's `Vec` layout.
        assert!(sharded.store().metrics().resident_bytes < single.store().metrics().resident_bytes);
    }

    #[test]
    fn mixed_and_random_merges_also_build() {
        for merge in [MergeKind::Mixed, MergeKind::Random] {
            let config = TestBedConfig {
                merge,
                ..TestBedConfig::small(DatasetProfile::StudIp)
            };
            let bed = TestBed::build(config).unwrap();
            assert!(bed.index.num_lists() > 0);
        }
    }

    #[test]
    fn impossible_r_fails_to_build() {
        let config = TestBedConfig {
            r: 1.0,
            ..TestBedConfig::small(DatasetProfile::StudIp)
        };
        assert!(TestBed::build(config).is_err());
    }

    #[test]
    fn default_merge_kind_is_bfm() {
        assert_eq!(MergeKind::default(), MergeKind::Bfm);
    }
}
