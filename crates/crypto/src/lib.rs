//! Cryptographic substrate for the Zerber / Zerber+R reproduction.
//!
//! The paper treats encryption of posting elements as a black box; what the
//! systems experiments need is (a) opaque, authenticated posting-element
//! payloads and (b) per-group keys so access control can be enforced
//! cryptographically.  All primitives are implemented
//! from scratch (DESIGN.md §5) and validated against published test vectors:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104, vectors from RFC 4231),
//! * [`hkdf`] — HKDF (RFC 5869),
//! * [`chacha20`] — ChaCha20 (RFC 8439),
//! * [`poly1305`] — Poly1305 (RFC 8439),
//! * [`aead`] — ChaCha20-Poly1305 authenticated encryption (RFC 8439 §2.8);
//!   a nonce must never repeat under one group key,
//! * [`keys`] — master / group key hierarchy,
//! * [`rng`] — deterministic ChaCha20-based randomness for reproducible
//!   experiments.
//!
//! # Security disclaimer
//!
//! This code exists to reproduce the *systems* behaviour of the paper
//! (ciphertext sizes, key distribution, protocol structure).  It has not been
//! audited and must not be used to protect real data.

pub mod aead;
pub mod chacha20;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod poly1305;
pub mod rng;
pub mod sha256;

pub use aead::{AeadKey, OVERHEAD, TAG_LEN};
pub use chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
pub use error::CryptoError;
pub use hmac::HmacSha256;
pub use keys::{GroupKeys, MasterKey};
pub use rng::DeterministicRng;
pub use sha256::Sha256;
