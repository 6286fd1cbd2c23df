//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Computes the server's access tokens and is the PRF inside HKDF.
//! Validated against the RFC 4231 test vectors.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Output length of HMAC-SHA-256 in bytes.
pub const MAC_LEN: usize = DIGEST_LEN;

/// Incremental HMAC-SHA-256.
///
/// Holds the SHA-256 states after absorbing the ipad and the opad block.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both states are functions of the key alone: never print them.
        write!(f, "HmacSha256(..)")
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha256::digest(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; MAC_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC computation.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; MAC_LEN] {
        let mut h = HmacSha256::new(key);
        h.update(data);
        h.finalize()
    }
}

/// Constant-time equality over byte slices (false if lengths differ).
///
/// Avoids the classic early-exit timing side channel when the index server
/// (or an adversary controlling it) probes tag or token verification.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_3_long_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_test_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let key = b"group-key";
        let data = b"posting element payload bytes";
        let mut h = HmacSha256::new(key);
        for chunk in data.chunks(5) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), HmacSha256::mac(key, data));
    }

    #[test]
    fn constant_time_eq_basic_properties() {
        assert!(constant_time_eq(b"same", b"same"));
        assert!(!constant_time_eq(b"same", b"sama"));
        assert!(!constant_time_eq(b"short", b"longer"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        // The derived `Debug` printed the opad block — the key XOR 0x5c,
        // 0x41 ^ 0x5c = 29 — byte by byte.
        let h = HmacSha256::new(&[0x41u8; 32]);
        let s = format!("{h:?}");
        assert!(!s.contains("29") && !s.contains("65"), "{s}");
        assert!(s.contains("HmacSha256"));
    }

    #[test]
    fn different_keys_give_different_tags() {
        assert_ne!(HmacSha256::mac(b"k1", b"m"), HmacSha256::mac(b"k2", b"m"));
    }
}
