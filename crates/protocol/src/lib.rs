//! Client / untrusted-server query protocol for the Zerber+R reproduction.
//!
//! This crate simulates the deployment of Sections 2, 4.1 and 5.2:
//!
//! * [`acl`] — user authentication (HMAC bearer tokens) and group membership
//!   checks performed by the index server,
//! * [`message`] — the wire format of query/insert requests and responses
//!   with exact byte accounting,
//! * [`server`] — the untrusted [`server::IndexServer`]: hosts the ordered
//!   confidential index behind a pluggable `zerber_store::ListStore` engine
//!   (sharded by default), serves ranged TRS-ordered fetches with resumable
//!   cursor sessions — one request or one user's multi-term batch, both
//!   through the same per-request read path — accepts inserts, and meters all
//!   traffic in lock-free counters,
//! * [`client`] — the group member: issues the initial request of size `b`,
//!   decrypts and filters, resumes the server-side cursor with doubling
//!   follow-up requests, and inserts new documents using the published RSTF,
//! * [`netsim`] — the 56 Kb/s-client / 100 Mb/s-server network model and
//!   the snippet/competitor constants of Section 6.6.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod acl;
pub mod client;
pub mod error;
pub mod message;
pub mod netsim;
pub mod server;

pub use acl::{AccessControl, AuthToken};
pub use client::{Client, ClientQueryOutcome};
pub use error::ProtocolError;
pub use message::{QueryRequest, QueryResponse, WireElement, ELEMENT_HEADER_BYTES};
pub use netsim::{
    NetworkModel, ResponseBreakdown, ALTAVISTA_TOP10_BYTES, GOOGLE_TOP10_BYTES, PAPER_POSTING_BITS,
    SNIPPET_BYTES, YAHOO_TOP10_BYTES,
};
pub use server::{IndexServer, InsertRequest, ServerStats, StoreEngine};
