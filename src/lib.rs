//! Umbrella crate for the Zerber+R reproduction.
//!
//! Re-exports the public APIs of every workspace crate under one roof so
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`corpus`] — documents, tokenization, statistics, synthetic datasets,
//! * [`index`] — the ordinary (plaintext) inverted-index baseline,
//! * [`crypto`] — SHA-256 / HMAC / HKDF / ChaCha20 / AEAD / group keys,
//! * [`zerber`] — the r-confidential merged index substrate (EDBT 2008),
//! * [`zerber_r`] — the Zerber+R ranking model: RSTF, TRS, ordered index,
//!   server-side top-k (this paper's contribution),
//! * [`store`] — the serving-side storage engine: the `ListStore` trait, the
//!   sharded segment-stack store (resident, spill or durable), resumable
//!   cursor sessions and the `Vec` oracle the store is checked against,
//! * [`protocol`] — the untrusted-server / client query protocol with byte
//!   accounting and the network model of Section 6.6,
//! * [`adversary`] — the attack simulations behind the security evaluation,
//! * [`workload`] — query logs, cost models, evaluation metrics and the
//!   experiment test bed.

pub use zerber_adversary as adversary;
pub use zerber_base as zerber;
pub use zerber_corpus as corpus;
pub use zerber_crypto as crypto;
pub use zerber_index as index;
pub use zerber_protocol as protocol;
pub use zerber_r;
pub use zerber_r as core;
pub use zerber_store as store;
pub use zerber_workload as workload;
