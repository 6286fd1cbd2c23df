//! Authenticated encryption (encrypt-then-MAC) for posting elements.
//!
//! Zerber stores term id, document id and ranking information of every
//! posting element in encrypted form (Section 3.1).  This module provides the
//! authenticated-encryption primitive used for those payloads:
//! ChaCha20 for confidentiality and a truncated HMAC-SHA-256 tag for
//! integrity, composed as encrypt-then-MAC.
//!
//! Wire format of a sealed box: `nonce (12 bytes) || ciphertext || tag (16
//! bytes)`.  Associated data (e.g. the merged-posting-list id) is
//! authenticated but not encrypted.

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::error::CryptoError;
use crate::hmac::{constant_time_eq, HmacSha256};

/// Truncated tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Total ciphertext expansion: nonce plus tag.
pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// A key pair for authenticated encryption.
#[derive(Clone)]
pub struct AeadKey {
    enc_key: [u8; KEY_LEN],
    /// The HMAC context keyed with the MAC key, built once: every tag
    /// clones it instead of re-absorbing the two key blocks, which halves
    /// the SHA-256 compressions of sealing or opening a posting element.
    mac: HmacSha256,
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "AeadKey(..)")
    }
}

impl AeadKey {
    /// Creates a key pair from raw key material.
    pub fn new(enc_key: [u8; KEY_LEN], mac_key: [u8; KEY_LEN]) -> Self {
        AeadKey {
            enc_key,
            mac: HmacSha256::new(&mac_key),
        }
    }

    /// Encrypts `plaintext` with the supplied unique `nonce`, authenticating
    /// `aad` alongside.
    pub fn seal(
        &self,
        nonce: &[u8; NONCE_LEN],
        plaintext: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let cipher = ChaCha20::new(&self.enc_key)?;
        let ciphertext = cipher.encrypt(nonce, 1, plaintext)?;
        let tag = self.tag(nonce, &ciphertext, aad);
        let mut out = Vec::with_capacity(OVERHEAD + ciphertext.len());
        out.extend_from_slice(nonce);
        out.extend_from_slice(&ciphertext);
        out.extend_from_slice(&tag[..TAG_LEN]);
        Ok(out)
    }

    /// Verifies and decrypts a sealed box produced by [`AeadKey::seal`].
    pub fn open(&self, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < OVERHEAD {
            return Err(CryptoError::CiphertextTooShort);
        }
        let (nonce, rest) = sealed.split_at(NONCE_LEN);
        let (ciphertext, tag) = rest.split_at(rest.len() - TAG_LEN);
        let expected = self.tag(nonce, ciphertext, aad);
        if !constant_time_eq(&expected[..TAG_LEN], tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let cipher = ChaCha20::new(&self.enc_key)?;
        cipher.encrypt(nonce, 1, ciphertext)
    }

    fn tag(&self, nonce: &[u8], ciphertext: &[u8], aad: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(aad);
        mac.update(nonce);
        mac.update(ciphertext);
        mac.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AeadKey {
        AeadKey::new([0x11; 32], [0x22; 32])
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let k = key();
        let sealed = k
            .seal(&[1u8; 12], b"term=imclone doc=7 score=0.4", b"list-3")
            .unwrap();
        let opened = k.open(&sealed, b"list-3").unwrap();
        assert_eq!(opened, b"term=imclone doc=7 score=0.4");
        assert_eq!(sealed.len(), 28 + OVERHEAD);
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let k = key();
        let mut sealed = k.seal(&[2u8; 12], b"secret", b"").unwrap();
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x01;
        assert_eq!(
            k.open(&sealed, b"").unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn tampered_tag_is_rejected() {
        let k = key();
        let mut sealed = k.seal(&[3u8; 12], b"secret", b"").unwrap();
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(
            k.open(&sealed, b"").unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn wrong_aad_is_rejected() {
        let k = key();
        let sealed = k.seal(&[4u8; 12], b"secret", b"list-1").unwrap();
        assert!(k.open(&sealed, b"list-2").is_err());
        assert!(k.open(&sealed, b"list-1").is_ok());
    }

    #[test]
    fn wrong_key_is_rejected() {
        let sealed = key().seal(&[5u8; 12], b"secret", b"").unwrap();
        let other = AeadKey::new([0x33; 32], [0x44; 32]);
        assert!(other.open(&sealed, b"").is_err());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let k = key();
        assert_eq!(
            k.open(&[0u8; 10], b"").unwrap_err(),
            CryptoError::CiphertextTooShort
        );
        let sealed = k.seal(&[6u8; 12], b"", b"").unwrap();
        // Empty plaintext still produces a full-sized sealed box.
        assert_eq!(sealed.len(), OVERHEAD);
        assert_eq!(k.open(&sealed, b"").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let k = key();
        let a = k.seal(&[7u8; 12], b"same message", b"").unwrap();
        let b = k.seal(&[8u8; 12], b"same message", b"").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn cached_mac_state_tags_like_a_fresh_hmac() {
        use crate::rng::DeterministicRng;
        let mut rng = DeterministicRng::from_u64(0x7a67);
        for round in 0..64usize {
            let mut enc_key = [0u8; KEY_LEN];
            let mut mac_key = [0u8; KEY_LEN];
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut enc_key);
            rng.fill_bytes(&mut mac_key);
            rng.fill_bytes(&mut nonce);
            let mut aad = vec![0u8; round % 7];
            let mut ciphertext = vec![0u8; round * 3];
            rng.fill_bytes(&mut aad);
            rng.fill_bytes(&mut ciphertext);
            let k = AeadKey::new(enc_key, mac_key);
            let mut message = (aad.len() as u64).to_le_bytes().to_vec();
            message.extend_from_slice(&aad);
            message.extend_from_slice(&nonce);
            message.extend_from_slice(&ciphertext);
            let expected = HmacSha256::mac(&mac_key, &message);
            // Twice: taking a tag must leave the cached state untouched.
            assert_eq!(k.tag(&nonce, &ciphertext, &aad), expected);
            assert_eq!(k.tag(&nonce, &ciphertext, &aad), expected);
        }
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let k = key();
        let s = format!("{k:?}");
        assert!(!s.contains("11"));
        assert!(s.contains("AeadKey"));
    }
}
