//! Deterministic cryptographically-styled random generator.
//!
//! Nonces and random placements (the random distribution of posting elements
//! inside a merged posting list, Definition 2) need unpredictable-looking but
//! *reproducible* randomness so experiments can be replayed bit-for-bit;
//! only [`DeterministicRng::unique`], for sealers that share a key, is not.
//! This generator runs ChaCha20 in counter mode over a seed key; it is not a
//! substitute for an OS CSPRNG in a real deployment, which is documented in
//! the README's security notes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::chacha20::{ChaCha20, BLOCK_LEN, NONCE_LEN};
use crate::sha256::Sha256;

/// Deterministic random byte stream seeded from 32 bytes.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    cipher: ChaCha20,
    counter: u32,
    buffer: [u8; BLOCK_LEN],
    used: usize,
}

impl DeterministicRng {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        DeterministicRng {
            cipher: ChaCha20::new(&seed),
            counter: 0,
            buffer: [0u8; BLOCK_LEN],
            used: BLOCK_LEN,
        }
    }

    /// Creates a generator from a 64-bit seed (expanded by hashing).
    pub fn from_u64(seed: u64) -> Self {
        let digest = Sha256::digest(&seed.to_le_bytes());
        Self::from_seed(digest)
    }

    /// Creates a generator whose stream no other generator shares, for
    /// sealers that hold one key and must never draw the same nonce: the
    /// seed hashes `context` (a client's user name and token, say) with a
    /// per-process counter, the process id and the wall clock.  Not
    /// reproducible, by design.
    pub fn unique(context: &[u8]) -> Self {
        static CREATED: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let mut h = Sha256::new();
        h.update(context);
        h.update(&CREATED.fetch_add(1, Ordering::Relaxed).to_le_bytes());
        h.update(&std::process::id().to_le_bytes());
        h.update(&nanos.to_le_bytes());
        Self::from_seed(h.finalize())
    }

    fn refill(&mut self) {
        self.buffer = self.cipher.block(self.counter, &[0u8; NONCE_LEN]);
        self.counter = self.counter.wrapping_add(1);
        self.used = 0;
    }

    /// Fills `out` with random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for byte in out.iter_mut() {
            if self.used == BLOCK_LEN {
                self.refill();
            }
            *byte = self.buffer[self.used];
            self.used += 1;
        }
    }

    /// Returns the next random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Returns a uniformly distributed value in `[0, bound)` using rejection
    /// sampling (`bound` must be non-zero).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a fresh 12-byte nonce.
    pub fn nonce(&mut self) -> [u8; NONCE_LEN] {
        let mut n = [0u8; NONCE_LEN];
        self.fill_bytes(&mut n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = DeterministicRng::from_u64(99);
        let mut b = DeterministicRng::from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = DeterministicRng::from_u64(1);
        let mut b = DeterministicRng::from_u64(2);
        let va: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unique_generators_never_share_a_stream() {
        let mut a = DeterministicRng::unique(b"john");
        let mut b = DeterministicRng::unique(b"john");
        assert_ne!(a.nonce(), b.nonce());
    }

    #[test]
    fn nonces_do_not_repeat_quickly() {
        let mut rng = DeterministicRng::from_u64(7);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(rng.nonce()), "nonce repeated");
        }
    }

    #[test]
    fn next_below_respects_the_bound_and_covers_it() {
        let mut rng = DeterministicRng::from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic]
    fn next_below_zero_panics() {
        DeterministicRng::from_u64(0).next_below(0);
    }

    #[test]
    fn fill_bytes_crosses_block_boundaries() {
        let mut rng = DeterministicRng::from_u64(5);
        let mut big = vec![0u8; 200];
        rng.fill_bytes(&mut big);
        // Not all zero and not all equal.
        assert!(big.iter().any(|&b| b != 0));
        assert!(big.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn byte_stream_is_unbiased_enough() {
        let mut rng = DeterministicRng::from_u64(11);
        let mut buf = vec![0u8; 65_536];
        rng.fill_bytes(&mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        let total_bits = (buf.len() * 8) as f64;
        let ratio = f64::from(ones) / total_bits;
        assert!((ratio - 0.5).abs() < 0.01, "bit ratio {ratio}");
    }
}
