//! The Zerber substrate: an r-confidential inverted index over encrypted,
//! randomly placed posting elements (Zerr et al., EDBT 2008), which the
//! Zerber+R paper extends with server-side top-k.
//!
//! Modules:
//!
//! * [`confidentiality`] — Definitions 1 and 2: the r-confidentiality
//!   parameter, per-list probability mass checks, probability amplification.
//! * [`merge`] — term-merging schemes producing r-confidential merged posting
//!   lists: the paper's BFM scheme plus two ablation baselines.
//! * [`element`] — fixed-size encrypted posting elements.

pub mod confidentiality;
pub mod element;
pub mod error;
pub mod merge;

pub use confidentiality::{
    amplification, check_merged_terms, element_term_posterior, ConfidentialityParam,
    ListConfidentiality,
};
pub use element::{
    Ciphertext, EncryptedElement, PostingPayload, PAYLOAD_BYTES, SEALED_PAYLOAD_BYTES,
};
pub use error::ZerberError;
pub use merge::{BfmMerge, MergePlan, MergeScheme, MergedListId, MixedMerge, RandomMerge};
