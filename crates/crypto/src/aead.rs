//! Authenticated encryption for posting elements: ChaCha20-Poly1305 as
//! specified in RFC 8439 §2.8.
//!
//! Zerber stores term id, document id and ranking information of every
//! posting element in encrypted form (Section 3.1).  This module provides the
//! authenticated-encryption primitive used for those payloads: ChaCha20
//! keystream block 0 under the element's nonce is the one-time Poly1305 key,
//! blocks 1.. encrypt, and the tag covers `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖
//! le64(len aad) ‖ le64(len ciphertext)`.
//!
//! **A nonce must never repeat under one group key.**  Two boxes sealed with
//! the same key and nonce share a keystream (their plaintexts XOR) and a
//! Poly1305 key (from which tags can be forged).  Every sealer draws its
//! nonces from its own [`crate::DeterministicRng`] stream; see the README's
//! security notes for how a client's stream is kept apart from every other.
//!
//! Wire format of a sealed box: `nonce (12 bytes) || ciphertext || tag (16
//! bytes)`.  Associated data (e.g. the merged-posting-list id) is
//! authenticated but not encrypted.

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::error::CryptoError;
use crate::hmac::constant_time_eq;
use crate::poly1305::{self, Poly1305};

pub use crate::poly1305::TAG_LEN;
/// Total ciphertext expansion: nonce plus tag.
pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// A ChaCha20-Poly1305 key.
#[derive(Clone)]
pub struct AeadKey {
    cipher: ChaCha20,
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "AeadKey(..)")
    }
}

impl AeadKey {
    /// Creates a key from raw key material.
    pub fn new(key: [u8; KEY_LEN]) -> Self {
        AeadKey {
            cipher: ChaCha20::new(&key),
        }
    }

    /// Encrypts `plaintext` with the supplied unique `nonce`, authenticating
    /// `aad` alongside.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(OVERHEAD + plaintext.len());
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        self.cipher.apply_keystream(nonce, 1, &mut out[NONCE_LEN..]);
        let tag = self.tag(nonce, &out[NONCE_LEN..], aad);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies a sealed box produced by [`AeadKey::seal`] and decrypts it
    /// into `plaintext`, which must be exactly `sealed.len() - OVERHEAD`
    /// bytes long.  The tag is compared in constant time before any byte is
    /// decrypted; on failure `plaintext` is left untouched.
    pub fn open(&self, sealed: &[u8], aad: &[u8], plaintext: &mut [u8]) -> Result<(), CryptoError> {
        let Some((nonce, rest)) = sealed.split_first_chunk::<NONCE_LEN>() else {
            return Err(CryptoError::CiphertextLength);
        };
        let Some((ciphertext, tag)) = rest.split_last_chunk::<TAG_LEN>() else {
            return Err(CryptoError::CiphertextLength);
        };
        if ciphertext.len() != plaintext.len() {
            return Err(CryptoError::CiphertextLength);
        }
        if !constant_time_eq(&self.tag(nonce, ciphertext, aad), tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        plaintext.copy_from_slice(ciphertext);
        self.cipher.apply_keystream(nonce, 1, plaintext);
        Ok(())
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], ciphertext: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
        let mut one_time_key = [0u8; poly1305::KEY_LEN];
        one_time_key.copy_from_slice(&self.cipher.block(0, nonce)[..poly1305::KEY_LEN]);
        let mut poly = Poly1305::new(&one_time_key);
        poly.update_padded(aad);
        poly.update_padded(ciphertext);
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        poly.update_padded(&lengths);
        poly.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn key() -> AeadKey {
        AeadKey::new([0x11; 32])
    }

    fn open(k: &AeadKey, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut plaintext = vec![0u8; sealed.len().saturating_sub(OVERHEAD)];
        k.open(sealed, aad, &mut plaintext).map(|()| plaintext)
    }

    #[test]
    fn rfc8439_section_2_8_2_aead_vector() {
        let k = AeadKey::new(std::array::from_fn(|i| 0x80 + i as u8));
        let nonce = [7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47];
        let aad = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let sealed = k.seal(&nonce, plaintext, &aad);
        assert_eq!(sealed.len(), OVERHEAD + plaintext.len());
        assert_eq!(&sealed[..NONCE_LEN], &nonce);
        assert_eq!(
            to_hex(&sealed[NONCE_LEN..NONCE_LEN + 16]),
            "d31a8d34648e60db7b86afbc53ef7ec2"
        );
        assert_eq!(
            to_hex(&sealed[sealed.len() - TAG_LEN..]),
            "1ae10b594f09e26a7e902ecbd0600691"
        );
        assert_eq!(open(&k, &sealed, &aad).unwrap(), plaintext);
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let k = key();
        let sealed = k.seal(&[1u8; 12], b"term=imclone doc=7 score=0.4", b"list-3");
        let opened = open(&k, &sealed, b"list-3").unwrap();
        assert_eq!(opened, b"term=imclone doc=7 score=0.4");
        assert_eq!(sealed.len(), 28 + OVERHEAD);
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let k = key();
        let mut sealed = k.seal(&[2u8; 12], b"secret", b"");
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x01;
        assert_eq!(
            open(&k, &sealed, b"").unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn tampered_tag_is_rejected() {
        let k = key();
        let mut sealed = k.seal(&[3u8; 12], b"secret", b"");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        let mut plaintext = *b"untouched";
        assert_eq!(
            k.open(&sealed, b"", &mut plaintext[..6]).unwrap_err(),
            CryptoError::AuthenticationFailed
        );
        assert_eq!(&plaintext, b"untouched");
    }

    #[test]
    fn wrong_aad_is_rejected() {
        let k = key();
        let sealed = k.seal(&[4u8; 12], b"secret", b"list-1");
        assert!(open(&k, &sealed, b"list-2").is_err());
        assert!(open(&k, &sealed, b"list-1").is_ok());
    }

    #[test]
    fn wrong_key_is_rejected() {
        let sealed = key().seal(&[5u8; 12], b"secret", b"");
        let other = AeadKey::new([0x33; 32]);
        assert!(open(&other, &sealed, b"").is_err());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let k = key();
        assert_eq!(
            open(&k, &[0u8; 10], b"").unwrap_err(),
            CryptoError::CiphertextLength
        );
        let sealed = k.seal(&[6u8; 12], b"", b"");
        // Empty plaintext still produces a full-sized sealed box.
        assert_eq!(sealed.len(), OVERHEAD);
        assert_eq!(open(&k, &sealed, b"").unwrap(), Vec::<u8>::new());
        // A plaintext buffer of the wrong size is refused before any check.
        let sealed = k.seal(&[6u8; 12], b"secret", b"");
        assert_eq!(
            k.open(&sealed, b"", &mut [0u8; 5]).unwrap_err(),
            CryptoError::CiphertextLength
        );
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let k = key();
        let a = k.seal(&[7u8; 12], b"same message", b"");
        let b = k.seal(&[8u8; 12], b"same message", b"");
        assert_ne!(a, b);
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let k = key();
        let s = format!("{k:?}");
        assert!(!s.contains("11"));
        assert!(s.contains("AeadKey"));
    }
}
