//! Poly1305 one-time authenticator (RFC 8439 §2.5), implemented from scratch.
//!
//! The accumulator `h` and the clamped key half `r` are held in three limbs
//! of 44, 44 and 42 bits, so every product of a multiply-and-reduce step
//! fits a `u128` and the reduction modulo `2^130 - 5` folds the bits above
//! 2^130 back in times 5.  No table and no data-dependent branch: the final
//! "subtract p if h >= p" is a mask select.

/// Key length in bytes: `r` (clamped) followed by `s`.
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// Bit 128 of a full block, as it sits in the top limb (bit 88 onward).
const HIBIT: u64 = 1 << 40;

/// An in-progress Poly1305 tag under one one-time key.
pub struct Poly1305 {
    r: [u64; 3],
    /// `r[1]` and `r[2]` times 20: a limb product landing at 2^132 or above
    /// wraps to the bottom times 5 * 2^2.
    r20: [u64; 2],
    s: [u64; 2],
    h: [u64; 3],
}

fn le64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// Splits the little-endian 128-bit number in `bytes[..16]` into
/// 44/44/42-bit limbs.
fn limbs(bytes: &[u8]) -> [u64; 3] {
    let (t0, t1) = (le64(bytes), le64(&bytes[8..]));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) & MASK42,
    ]
}

impl Poly1305 {
    /// Starts a tag under `key`, which must never authenticate a second
    /// message.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let [r0, r1, r2] = limbs(key);
        // The clamp of §2.5.1, applied limb by limb.
        let r = [
            r0 & 0xffc_0fff_ffff,
            r1 & 0xfff_ffc0_ffff,
            r2 & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            r20: [r[1] * 20, r[2] * 20],
            s: [le64(&key[16..]), le64(&key[24..])],
            h: [0; 3],
        }
    }

    /// Absorbs one 16-byte block; `hibit` is [`HIBIT`] for a full block and
    /// 0 for a short final block that already carries its `0x01` byte.
    fn block(&mut self, m: &[u8; 16], hibit: u64) {
        let [m0, m1, m2] = limbs(m);
        let h0 = u128::from(self.h[0] + m0);
        let h1 = u128::from(self.h[1] + m1);
        let h2 = u128::from(self.h[2] + (m2 | hibit));
        let [r0, r1, r2] = self.r.map(u128::from);
        let [s1, s2] = self.r20.map(u128::from);
        let d0 = h0 * r0 + h1 * s2 + h2 * s1;
        let mut d1 = h0 * r1 + h1 * r0 + h2 * s2;
        let mut d2 = h0 * r2 + h1 * r1 + h2 * r0;
        d1 += d0 >> 44;
        d2 += d1 >> 44;
        let mut h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
        h0 &= MASK44;
        self.h = [h0, h1, d2 as u64 & MASK42];
    }

    /// Absorbs `data` as whole 16-byte blocks, zero-padding a short last
    /// one: the `pad16` of the AEAD construction (RFC 8439 §2.8).
    pub fn update_padded(&mut self, data: &[u8]) {
        for chunk in data.chunks(16) {
            let mut m = [0u8; 16];
            m[..chunk.len()].copy_from_slice(chunk);
            self.block(&m, HIBIT);
        }
    }

    /// Returns the tag: `h` fully reduced modulo 2^130 - 5, plus `s`
    /// modulo 2^128.
    pub fn finalize(self) -> [u8; TAG_LEN] {
        // `block` leaves h0 < 2^44, h1 <= 2^44 + 2^7 and h2 < 2^42, so
        // h < 2^130 + 2^89 and h - p < p: one conditional subtraction of p
        // reduces h fully.  h1's possible bit 44 rides the carries of g and
        // of the s addition.
        let [mut h0, mut h1, mut h2] = self.h;
        // g = h + 5 - 2^130; keep it when it did not borrow, i.e. h >= p.
        let mut g0 = h0 + 5;
        let mut g1 = h1 + (g0 >> 44);
        g0 &= MASK44;
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        g1 &= MASK44;
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);
        // h + s, carried across the limbs and truncated to 128 bits.
        let (s0, s1) = (self.s[0], self.s[1]);
        h0 += s0 & MASK44;
        h1 += (((s0 >> 44) | (s1 << 20)) & MASK44) + (h0 >> 44);
        h2 += ((s1 >> 24) & MASK42) + (h1 >> 44);
        let lo = (h0 & MASK44) | (h1 << 44);
        let hi = ((h1 & MASK44) >> 20) | (h2 << 24);
        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    /// The bare MAC of §2.5: a short last block ends in `0x01` and has no
    /// bit 128, unlike the AEAD's zero padding.
    fn mac(key: &[u8; KEY_LEN], msg: &[u8]) -> String {
        let mut poly = Poly1305::new(key);
        for chunk in msg.chunks(16) {
            let mut m = [0u8; 16];
            m[..chunk.len()].copy_from_slice(chunk);
            if chunk.len() == 16 {
                poly.block(&m, HIBIT);
            } else {
                m[chunk.len()] = 1;
                poly.block(&m, 0);
            }
        }
        to_hex(&poly.finalize())
    }

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn key(r: &str, s: &str) -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        k[..16].copy_from_slice(&hex(r));
        k[16..].copy_from_slice(&hex(s));
        k
    }

    const ZERO: &str = "00000000000000000000000000000000";

    #[test]
    fn rfc8439_section_2_5_2_vector() {
        let k = key(
            "85d6be7857556d337f4452fe42d506a8",
            "0103808afb0db2fd4abff6af4149f51b",
        );
        assert_eq!(
            mac(&k, b"Cryptographic Forum Research Group"),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    #[test]
    fn rfc8439_appendix_a3_long_messages() {
        let ietf = b"Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made \
within the context of an IETF activity is considered an \"IETF Contribution\". Such \
statements include oral statements in IETF sessions, as well as written and \
electronic communications made at any time or place, which are addressed to";
        assert_eq!(ietf.len(), 375);
        let s = "36e5f6b5c5e06070f0efca96227a863e";
        assert_eq!(mac(&key(ZERO, ZERO), &[0u8; 64]), ZERO);
        assert_eq!(mac(&key(ZERO, s), ietf), s);
        assert_eq!(mac(&key(s, ZERO), ietf), "f3477e7cd95417af89a6b8794c310cf0");
        let jabberwocky = b"'Twas brillig, and the slithy toves\nDid gyre and gimble \
in the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
        let k = key(
            "1c9240a5eb55d38af333888604f6b5f0",
            "473917c1402b80099dca5cbc207075c0",
        );
        assert_eq!(mac(&k, jabberwocky), "4541669a7eaaee61e708dc7cbcc5eb62");
    }

    /// Vectors #5–#11: accumulators at and past 2^130 - 5, a carry through
    /// an all-ones limb, `s` overflowing 2^128, and reductions whose carry
    /// is zero — the paths of the final carry and the p-subtraction.
    #[test]
    fn rfc8439_appendix_a3_reduction_edge_cases() {
        let r2 = "02000000000000000000000000000000";
        let r1 = "01000000000000000000000000000000";
        let ones = "ffffffffffffffffffffffffffffffff";
        let cases = [
            (
                r2,
                ZERO,
                ones.to_string(),
                "03000000000000000000000000000000",
            ),
            (r2, ones, r2.to_string(), "03000000000000000000000000000000"),
            (
                r1,
                ZERO,
                format!("{ones} f0ffffffffffffffffffffffffffffff 11000000000000000000000000000000"),
                "05000000000000000000000000000000",
            ),
            (
                r1,
                ZERO,
                format!("{ones} fbfefefefefefefefefefefefefefefe 01010101010101010101010101010101"),
                ZERO,
            ),
            (
                r2,
                ZERO,
                "fdffffffffffffffffffffffffffffff".to_string(),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                "01000000000000000400000000000000",
                ZERO,
                "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
                 00000000000000000000000000000000 01000000000000000000000000000000"
                    .to_string(),
                "14000000000000005500000000000000",
            ),
            (
                "01000000000000000400000000000000",
                ZERO,
                "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
                 00000000000000000000000000000000"
                    .to_string(),
                "13000000000000000000000000000000",
            ),
        ];
        for (i, (r, s, data, tag)) in cases.iter().enumerate() {
            assert_eq!(mac(&key(r, s), &hex(data)), *tag, "vector #{}", i + 5);
        }
    }
}
