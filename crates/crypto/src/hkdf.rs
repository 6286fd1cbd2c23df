//! HKDF (RFC 5869) with HMAC-SHA-256.
//!
//! The Zerber group-key hierarchy derives one AEAD key per collaboration
//! group from a master secret (see [`crate::keys`]); HKDF is the
//! extract-and-expand construction used for these derivations.

use crate::error::CryptoError;
use crate::hmac::{HmacSha256, MAC_LEN};

/// Extract step: computes the pseudorandom key `PRK = HMAC(salt, ikm)`.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; MAC_LEN] {
    HmacSha256::mac(salt, ikm)
}

/// Expand step: derives `len` output bytes from `prk` and `info`.
///
/// Fails with [`CryptoError::OutputTooLong`] if more than `255 * 32` bytes
/// are requested.
pub fn expand(prk: &[u8], info: &[u8], len: usize) -> Result<Vec<u8>, CryptoError> {
    if len > 255 * MAC_LEN {
        return Err(CryptoError::OutputTooLong);
    }
    let mut okm = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut h = HmacSha256::new(prk);
        h.update(&previous);
        h.update(info);
        h.update(&[counter]);
        let block = h.finalize();
        let take = (len - okm.len()).min(MAC_LEN);
        okm.extend_from_slice(&block[..take]);
        previous = block.to_vec();
        counter = counter.wrapping_add(1);
    }
    Ok(okm)
}

/// Combined extract-then-expand.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Result<Vec<u8>, CryptoError> {
    let prk = extract(salt, ikm);
    expand(&prk, info, len)
}

/// Derives exactly 32 bytes into a fixed-size key array.
pub fn derive_key32(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let okm = derive(salt, ikm, info, 32).expect("32 bytes is always a valid HKDF length");
    let mut key = [0u8; 32];
    key.copy_from_slice(&okm);
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn rfc5869_test_case_1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            to_hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42).unwrap();
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_test_case_3_empty_salt_and_info() {
        let ikm = [0x0bu8; 22];
        let okm = derive(&[], &ikm, &[], 42).unwrap();
        assert_eq!(
            to_hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn output_length_is_respected() {
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(derive(b"s", b"ikm", b"info", len).unwrap().len(), len);
        }
    }

    #[test]
    fn over_long_output_is_rejected() {
        assert_eq!(
            expand(&[0u8; 32], b"", 255 * 32 + 1).unwrap_err(),
            CryptoError::OutputTooLong
        );
        assert!(expand(&[0u8; 32], b"", 255 * 32).is_ok());
    }

    #[test]
    fn different_info_separates_keys() {
        let a = derive_key32(b"salt", b"master", b"group-0/enc");
        let b = derive_key32(b"salt", b"master", b"group-0/mac");
        let c = derive_key32(b"salt", b"master", b"group-1/enc");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(
            derive_key32(b"salt", b"ikm", b"info"),
            derive_key32(b"salt", b"ikm", b"info")
        );
    }
}
