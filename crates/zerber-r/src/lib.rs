//! # Zerber+R — top-k retrieval from a confidential index
//!
//! This crate is the paper's primary contribution: a ranking model that lets
//! an **untrusted** index server answer top-k queries over an r-confidential
//! merged inverted index without learning anything term-specific from the
//! ranking information it stores.
//!
//! The pipeline (Section 5 of the paper):
//!
//! 1. **Offline pre-computing phase** — from a training sample of documents,
//!    fit one [Relevance Score Transformation Function](rstf::Rstf) per term:
//!    the CDF of a [Gaussian-sum density](density::GaussianSum) over the
//!    term's observed relevance scores (Equations 5–8), with the σ parameter
//!    chosen by [cross-validation](sigma::cross_validate) so that transformed
//!    scores are as uniform as possible (Figure 9).  [`train::RstfModel`]
//!    packages this per-term table and the random fallback for unseen terms.
//! 2. **Online insertion** — a client inserts a posting element by sealing
//!    `(term, doc, tf, |d|)` under its group key, computing the TRS with the
//!    published RSTF and sending both to the server, which binary-searches the
//!    position in the [ordered merged list](index::OrderedIndex).
//! 3. **Query answering** — the server returns the top-`b` accessible
//!    elements of the requested merged list by TRS; the client decrypts,
//!    filters by the queried term and issues doubling follow-up requests until
//!    it holds `k` results ([`query::RetrievalRun`], driven over this index by
//!    [`query::retrieve_topk`] and over the wire by `zerber_protocol`).
//!
//! ```
//! use std::collections::HashMap;
//! use zerber_base::{BfmMerge, ConfidentialityParam, MergeScheme};
//! use zerber_corpus::{sample_split, CorpusBuilder, CorpusStats, Document, GroupId, SplitConfig};
//! use zerber_crypto::MasterKey;
//! use zerber_r::{OrderedIndex, RetrievalConfig, RstfConfig, RstfModel, retrieve_topk};
//!
//! // A toy corpus shared by one collaboration group.
//! let mut builder = CorpusBuilder::new();
//! for i in 0..40 {
//!     builder
//!         .add_document(Document::new(
//!             format!("doc-{i}.txt"),
//!             GroupId(0),
//!             format!("imclone report {} and process control {}", "x ".repeat(i % 7), i),
//!         ))
//!         .unwrap();
//! }
//! let corpus = builder.build();
//! let stats = CorpusStats::compute(&corpus);
//!
//! // Offline phase: train the RSTF model and build the ordered index.
//! let split = sample_split(&corpus, SplitConfig::default()).unwrap();
//! let model = RstfModel::train(&corpus, &split, &RstfConfig::default()).unwrap();
//! let plan = BfmMerge.plan(&stats, ConfidentialityParam::new(4.0).unwrap()).unwrap();
//! let master = MasterKey::new([7u8; 32]);
//! let index = OrderedIndex::build(&corpus, plan, &model, &master, 42).unwrap();
//!
//! // Online phase: a group member retrieves the top-5 documents for a term.
//! let term = corpus.dictionary().get("imclone").unwrap();
//! let memberships: HashMap<_, _> = [(GroupId(0), master.group_keys(0))].into();
//! let outcome = retrieve_topk(&index, term, &memberships, &RetrievalConfig::for_k(5)).unwrap();
//! assert!(outcome.results.len() <= 5);
//! assert!(!outcome.results.is_empty());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod density;
pub mod error;
pub mod index;
pub mod math;
pub mod query;
pub mod rstf;
pub mod sigma;
pub mod train;

pub use density::GaussianSum;
pub use error::ZerberRError;
pub use index::{OrderedElement, OrderedIndex, TRS_BYTES};
pub use query::{
    merge_rankings, retrieve_topk, GrowthPolicy, RetrievalConfig, RetrievalOutcome, RetrievalRun,
};
pub use rstf::{Rstf, RstfKernel};
pub use sigma::{
    cross_validate, default_sigma_grid, uniformity_variance, SigmaPoint, SigmaSelection,
};
pub use train::{RstfConfig, RstfModel, SigmaStrategy};
