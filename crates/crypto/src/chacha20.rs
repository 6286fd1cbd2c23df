//! ChaCha20 stream cipher (RFC 8439 / RFC 7539), implemented from scratch.
//!
//! ChaCha20 produces the keystream that encrypts posting-element payloads
//! (term id, document id, raw relevance score) and the one-time Poly1305 key
//! of every sealed box (see [`crate::aead`]).  The paper only requires an
//! IND-CPA cipher that turns posting elements into opaque fixed-size blobs;
//! ChaCha20 is chosen because it is easy to implement correctly in portable
//! Rust and has published test vectors.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// A ChaCha20 cipher instance bound to a key.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key_words: [u32; 8],
}

fn words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    let mut out = [0u32; N];
    for (word, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    out
}

impl ChaCha20 {
    /// Creates a cipher from a 32-byte key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        ChaCha20 {
            key_words: words(key),
        }
    }

    /// Generates the 64-byte keystream block for `(counter, nonce)`.
    pub fn block(&self, counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        state[4..12].copy_from_slice(&self.key_words);
        state[12] = counter;
        state[13..16].copy_from_slice(&words::<3>(nonce));

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs `data` with the keystream starting at block `initial_counter`.
    ///
    /// Encryption and decryption are the same operation.
    pub fn apply_keystream(&self, nonce: &[u8; NONCE_LEN], initial_counter: u32, data: &mut [u8]) {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = self.block(counter, nonce);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn rfc_key() -> [u8; KEY_LEN] {
        std::array::from_fn(|i| i as u8)
    }

    fn encrypt(cipher: &ChaCha20, nonce: &[u8; NONCE_LEN], counter: u32, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        cipher.apply_keystream(nonce, counter, &mut out);
        out
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2.
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let block = cipher.block(1, &nonce);
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector_prefix() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext with counter 1.
        let cipher = ChaCha20::new(&rfc_key());
        let nonce = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&cipher, &nonce, 1, plaintext);
        assert_eq!(ct.len(), plaintext.len());
        assert_eq!(
            to_hex(&ct[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
    }

    #[test]
    fn decryption_inverts_encryption() {
        let cipher = ChaCha20::new(&[7u8; 32]);
        let nonce = [3u8; 12];
        let msg = b"posting element: term=imclone doc=1.txt score=0.4";
        let ct = encrypt(&cipher, &nonce, 0, msg);
        assert_ne!(&ct[..], &msg[..]);
        let pt = encrypt(&cipher, &nonce, 0, &ct);
        assert_eq!(&pt[..], &msg[..]);
    }

    #[test]
    fn keystream_differs_across_nonces_and_counters() {
        let cipher = ChaCha20::new(&[9u8; 32]);
        let b1 = cipher.block(0, &[0u8; 12]);
        let b2 = cipher.block(1, &[0u8; 12]);
        let b3 = cipher.block(0, &[1u8; 12]);
        assert_ne!(b1, b2);
        assert_ne!(b1, b3);
    }

    #[test]
    fn multi_block_messages_are_handled() {
        let cipher = ChaCha20::new(&[1u8; 32]);
        let nonce = [2u8; 12];
        let msg = vec![0xabu8; 300];
        let ct = encrypt(&cipher, &nonce, 5, &msg);
        let pt = encrypt(&cipher, &nonce, 5, &ct);
        assert_eq!(pt, msg);
        // A different starting counter must give a different ciphertext.
        let ct2 = encrypt(&cipher, &nonce, 6, &msg);
        assert_ne!(ct, ct2);
    }
}
