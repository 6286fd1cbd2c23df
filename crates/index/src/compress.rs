//! Posting-list compression: impact-ordered delta + variable-byte (varint)
//! encoding.
//!
//! The evaluation of Section 6.6 reasons about the size of query responses
//! and index storage (Section 6.3).  To report realistic byte counts for the
//! ordinary-index baseline, posting lists are serialized in their canonical
//! descending-score ("impact") order — the order top-k queries consume — with
//! the non-increasing quantized scores delta-encoded, document ids stored as
//! plain varints, and all integers in LEB128-style variable-byte encoding.
//! Scores are quantized to a fixed-point `u32` before encoding.  Keeping the
//! wire order identical to the list order makes the codec order-exact: a
//! decode reproduces the posting sequence element for element even when the
//! quantization collapses near-equal scores.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use zerber_corpus::DocId;

use crate::error::IndexError;
use crate::posting::{Posting, PostingList};

/// Score quantization factor: scores in `[0, 1]` keep ~6 significant decimal
/// digits, which is far below the ranking granularity the experiments need.
const SCORE_SCALE: f64 = 1_000_000.0;

/// Widens a length or count to the varint domain.  Infallible: `usize` is
/// at most 64 bits on every supported target.
fn len_u64(n: usize) -> u64 {
    n as u64
}

/// Appends `value` in variable-byte (LEB128) encoding.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        // Masked to the low 7 bits, so the narrowing cannot truncate.
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint starting at `pos`, returning `(value, next_pos)`.
pub fn read_varint(buf: &[u8], mut pos: usize) -> Result<(u64, usize), IndexError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(pos)
            .ok_or_else(|| IndexError::CorruptPostings("truncated varint".into()))?;
        pos += 1;
        if shift >= 64 {
            return Err(IndexError::CorruptPostings("varint overflow".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, pos));
        }
        shift += 7;
    }
}

/// Quantizes a score to the fixed-point wire representation.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "clamped into [0, u32::MAX] first, and float-to-int casts saturate (NaN maps to 0)"
)]
fn quantize(score: f64) -> u64 {
    (score.clamp(0.0, u32::MAX as f64 / SCORE_SCALE) * SCORE_SCALE).round() as u64
}

/// Maps an `f64` to a `u64` whose unsigned order matches the float total
/// order (for all non-NaN values): positive floats get their sign bit set,
/// negative floats are bitwise inverted.  The mapping is a bijection, so a
/// round trip through [`from_sortable_bits`] is bit-exact — which lets
/// order-sorted float sequences be delta-encoded with non-negative varint
/// deltas *without* any quantization loss (the segment codec of the storage
/// engine needs exact TRS values back).
pub fn sortable_bits(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`sortable_bits`]: recovers the exact `f64` bit pattern.
pub fn from_sortable_bits(bits: u64) -> f64 {
    f64::from_bits(if bits >> 63 == 1 {
        bits & !(1 << 63)
    } else {
        !bits
    })
}

/// Appends a byte slice with a varint length prefix.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, len_u64(bytes.len()));
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte slice written by [`write_bytes`], returning
/// the slice and the position just past it.  Truncations are errors, and the
/// untrusted length can never address past the end of the buffer.
pub fn read_bytes(buf: &[u8], pos: usize) -> Result<(&[u8], usize), IndexError> {
    let (len, start) = read_varint(buf, pos)?;
    let len = usize::try_from(len)
        .map_err(|_| IndexError::CorruptPostings("byte-slice length overflow".into()))?;
    let end = start
        .checked_add(len)
        .ok_or_else(|| IndexError::CorruptPostings("byte-slice length overflow".into()))?;
    let slice = buf
        .get(start..end)
        .ok_or_else(|| IndexError::CorruptPostings("truncated byte slice".into()))?;
    Ok((slice, end))
}

/// Encodes a posting list into a compact byte buffer.
///
/// Layout: varint count, then for each posting in the list's descending-score
/// order: varint doc id, varint tf, varint score delta (previous quantized
/// score minus this one; the first posting stores its quantized score
/// directly).
pub fn encode_posting_list(list: &PostingList) -> Vec<u8> {
    let postings = list.postings();
    let mut out = Vec::with_capacity(postings.len() * 4 + 4);
    write_varint(&mut out, len_u64(postings.len()));
    let mut prev_q: Option<u64> = None;
    for p in postings {
        write_varint(&mut out, u64::from(p.doc.0));
        write_varint(&mut out, u64::from(p.tf));
        let q = quantize(p.score);
        match prev_q {
            None => write_varint(&mut out, q),
            // The list is score-descending, so quantized deltas are >= 0.
            Some(prev) => write_varint(&mut out, prev - q),
        }
        prev_q = Some(q);
    }
    out
}

/// Decodes a posting list produced by [`encode_posting_list`].
pub fn decode_posting_list(buf: &[u8]) -> Result<PostingList, IndexError> {
    let (count, mut pos) = read_varint(buf, 0)?;
    // Don't trust the untrusted count for allocation: every posting takes at
    // least 3 bytes, so a corrupt header can't trigger a huge pre-allocation
    // before validation fails on the truncated body.
    let plausible = usize::try_from(count)
        .unwrap_or(usize::MAX)
        .min(buf.len() / 3 + 1);
    let mut postings = Vec::with_capacity(plausible);
    let mut prev_q: Option<u64> = None;
    for _ in 0..count {
        let (doc, p1) = read_varint(buf, pos)?;
        let (tf, p2) = read_varint(buf, p1)?;
        let (raw, p3) = read_varint(buf, p2)?;
        pos = p3;
        let doc = u32::try_from(doc)
            .map_err(|_| IndexError::CorruptPostings("value out of range".into()))?;
        let tf = u32::try_from(tf)
            .map_err(|_| IndexError::CorruptPostings("value out of range".into()))?;
        let q = match prev_q {
            None => raw,
            Some(prev) => prev.checked_sub(raw).ok_or_else(|| {
                IndexError::CorruptPostings("score delta exceeds previous score".into())
            })?,
        };
        prev_q = Some(q);
        postings.push(Posting::new(DocId(doc), tf, q as f64 / SCORE_SCALE));
    }
    if pos != buf.len() {
        return Err(IndexError::CorruptPostings(format!(
            "{} trailing bytes after postings",
            buf.len() - pos
        )));
    }
    Ok(PostingList::from_sorted_postings(postings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(items: &[(u32, u32, f64)]) -> PostingList {
        PostingList::from_postings(
            items
                .iter()
                .map(|&(d, tf, s)| Posting::new(DocId(d), tf, s))
                .collect(),
        )
    }

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, pos) = read_varint(&buf, 0).unwrap();
            assert_eq!(back, v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_small_values_use_one_byte() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varint(&mut buf, 300);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn truncated_varint_is_an_error() {
        // 0x80 has the continuation bit set but nothing follows.
        assert!(read_varint(&[0x80], 0).is_err());
        assert!(read_varint(&[], 0).is_err());
    }

    #[test]
    fn posting_list_roundtrips() {
        let original = list(&[(3, 2, 0.4), (17, 5, 0.125), (4000, 1, 0.033333)]);
        let buf = encode_posting_list(&original);
        let decoded = decode_posting_list(&buf).unwrap();
        assert_eq!(decoded.len(), 3);
        for (a, b) in original.iter().zip(decoded.iter()) {
            // Same order because quantization keeps 6 decimal digits.
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.tf, b.tf);
            assert!((a.score - b.score).abs() < 2.0 / SCORE_SCALE);
        }
    }

    #[test]
    fn empty_posting_list_roundtrips() {
        let buf = encode_posting_list(&PostingList::new());
        assert_eq!(buf, vec![0]);
        assert!(decode_posting_list(&buf).unwrap().is_empty());
    }

    #[test]
    fn delta_encoding_shrinks_dense_doc_ids() {
        let dense = list(&(0..1000u32).map(|d| (d, 1, 0.5)).collect::<Vec<_>>());
        let sparse = list(
            &(0..1000u32)
                .map(|d| (d * 50_000, 1, 0.5))
                .collect::<Vec<_>>(),
        );
        let dense_bytes = encode_posting_list(&dense).len();
        let sparse_bytes = encode_posting_list(&sparse).len();
        assert!(
            dense_bytes < sparse_bytes,
            "dense {dense_bytes} should be smaller than sparse {sparse_bytes}"
        );
    }

    #[test]
    fn quantization_ties_keep_their_order() {
        // Two scores closer than the quantization step collapse to the same
        // wire value; the impact-ordered codec must reproduce the original
        // sequence regardless.
        let original = list(&[(9, 1, 0.500_000_4), (2, 1, 0.500_000_1), (5, 1, 0.25)]);
        let decoded = decode_posting_list(&encode_posting_list(&original)).unwrap();
        let docs: Vec<u32> = decoded.iter().map(|p| p.doc.0).collect();
        let original_docs: Vec<u32> = original.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, original_docs);
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut buf = encode_posting_list(&list(&[(1, 1, 0.5)]));
        buf.push(0x00);
        assert!(decode_posting_list(&buf).is_err());
    }

    #[test]
    fn corrupt_count_is_detected() {
        // Claim 5 postings but provide none.
        let buf = vec![5u8];
        assert!(decode_posting_list(&buf).is_err());
    }

    #[test]
    fn sortable_bits_preserve_order_and_roundtrip() {
        let values = [
            -f64::INFINITY,
            -1.5,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.25,
            0.2500000001,
            1.0,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                sortable_bits(w[0]) <= sortable_bits(w[1]),
                "{} should sort before {}",
                w[0],
                w[1]
            );
        }
        for v in values {
            assert_eq!(from_sortable_bits(sortable_bits(v)).to_bits(), v.to_bits());
        }
        // The mapping is a bijection even on NaN payloads.
        let nan_bits = f64::NAN.to_bits() | 7;
        assert_eq!(
            from_sortable_bits(sortable_bits(f64::from_bits(nan_bits))).to_bits(),
            nan_bits
        );
    }

    #[test]
    fn byte_slices_roundtrip_and_reject_truncation() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello");
        write_bytes(&mut buf, b"");
        let (first, pos) = read_bytes(&buf, 0).unwrap();
        assert_eq!(first, b"hello");
        let (second, end) = read_bytes(&buf, pos).unwrap();
        assert!(second.is_empty());
        assert_eq!(end, buf.len());
        // A length prefix pointing past the end is an error, not a panic.
        assert!(read_bytes(&buf[..buf.len() - 2], 0).is_err());
        let mut huge = Vec::new();
        write_varint(&mut huge, u64::MAX);
        assert!(read_bytes(&huge, 0).is_err());
    }

    #[test]
    fn huge_claimed_count_errors_without_allocating() {
        // A count varint of ~2^62 in a 10-byte buffer must come back as a
        // codec error, not a capacity-overflow abort from pre-allocation.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1u64 << 62);
        assert!(decode_posting_list(&buf).is_err());
    }
}

#[cfg(test)]
mod fuzz {
    //! Property-based round-trip and corrupt-input tests: the decoder faces
    //! untrusted bytes, so it must reject every truncation and never panic on
    //! arbitrary input.

    use proptest::prelude::*;

    use super::*;

    fn arbitrary_list(items: Vec<(u32, u32, f64)>) -> PostingList {
        let mut seen = std::collections::HashSet::new();
        PostingList::from_postings(
            items
                .into_iter()
                .filter(|(d, _, _)| seen.insert(*d))
                .map(|(d, tf, s)| Posting::new(DocId(d), tf, s))
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn roundtrip_is_order_exact(
            items in proptest::collection::vec((any::<u32>(), 1u32..5_000, 0.0f64..1.0), 0..120)
        ) {
            let list = arbitrary_list(items);
            let decoded = decode_posting_list(&encode_posting_list(&list)).unwrap();
            prop_assert_eq!(decoded.len(), list.len());
            for (a, b) in list.iter().zip(decoded.iter()) {
                // Order-exact: the decoded sequence reproduces the original
                // element for element, even across quantization ties.
                prop_assert_eq!(a.doc, b.doc);
                prop_assert_eq!(a.tf, b.tf);
                prop_assert!((a.score - b.score).abs() < 2.0 / 1_000_000.0);
            }
        }

        #[test]
        fn every_truncation_is_rejected(
            items in proptest::collection::vec((any::<u32>(), 1u32..5_000, 0.0f64..1.0), 1..40),
            cut in any::<usize>()
        ) {
            let buf = encode_posting_list(&arbitrary_list(items));
            let cut = cut % buf.len();
            // A strict prefix (including the empty one: a truncated header)
            // must decode to an error, never to a shorter list or a panic.
            prop_assert!(decode_posting_list(&buf[..cut]).is_err());
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            if let Ok(list) = decode_posting_list(&bytes) {
                // If arbitrary bytes happen to decode, the claimed element
                // count was backed by real bytes (>= 3 per posting), so a
                // corrupt header can never fabricate a huge list.
                prop_assert!(list.len() <= bytes.len() / 3);
            }
        }

        #[test]
        fn bit_flips_never_panic_the_decoder(
            items in proptest::collection::vec((any::<u32>(), 1u32..5_000, 0.0f64..1.0), 1..40),
            flip in any::<(usize, u8)>()
        ) {
            let mut buf = encode_posting_list(&arbitrary_list(items));
            let pos = flip.0 % buf.len();
            buf[pos] ^= flip.1 | 1;
            // Either a clean error or a differently-valued list; just must
            // not panic or loop.
            let _ = decode_posting_list(&buf);
        }
    }
}
