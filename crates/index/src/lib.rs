//! Ordinary (non-confidential) inverted index substrate.
//!
//! This crate implements the baseline data structure the paper starts from
//! (Figure 1): a per-term posting list whose elements carry plaintext
//! relevance scores, sorted descending so that the server can answer a top-k
//! query by returning the head of the list.
//!
//! It provides:
//!
//! * [`posting::Posting`] / [`posting::PostingList`] — score-sorted posting
//!   lists with incremental insert/remove,
//! * [`score`] — normalized-TF scoring (Equation 4; Section 3.2: Zerber+R
//!   deliberately has no IDF),
//! * [`index::InvertedIndex`] — index construction, single-term and
//!   multi-term top-k queries,
//! * [`topk::TopK`] — a bounded best-k accumulator,
//! * [`compress`] — delta + varint posting-list compression used for byte
//!   accounting,
//! * [`size::IndexSizeReport`] — the storage measurements of Section 6.3.

pub mod compress;
pub mod error;
pub mod index;
pub mod posting;
pub mod score;
pub mod size;
pub mod topk;

pub use error::IndexError;
pub use index::InvertedIndex;
pub use posting::{Posting, PostingList};
pub use score::normalized_tf;
pub use size::{IndexSizeReport, PLAIN_POSTING_BYTES};
pub use topk::{ScoredDoc, TopK};
