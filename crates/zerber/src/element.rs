//! Encrypted posting elements.
//!
//! Zerber stores "ranking information as well as term and document
//! identifiers within each posting element in an encrypted form"
//! (Section 3.1).  The plaintext payload is a fixed-size record so that every
//! sealed element has the same length — element sizes therefore leak nothing
//! about the term or the document.  That length is also why an element's
//! [`Ciphertext`] holds its bytes inline: materializing one allocates nothing.

use std::fmt;
use std::ops::Deref;

use serde::{Deserialize, Serialize};
use zerber_corpus::{DocId, GroupId, TermId};
use zerber_crypto::{DeterministicRng, GroupKeys, OVERHEAD};

use crate::error::ZerberError;
use crate::merge::MergedListId;

/// Plaintext size of a posting payload in bytes.
pub const PAYLOAD_BYTES: usize = 16;
/// Sealed (encrypted + authenticated) size of a posting payload in bytes.
pub const SEALED_PAYLOAD_BYTES: usize = PAYLOAD_BYTES + OVERHEAD;

/// The confidential content of one posting element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostingPayload {
    /// The term this element belongs to.
    pub term: TermId,
    /// The document containing the term.
    pub doc: DocId,
    /// Raw term frequency.
    pub tf: u32,
    /// Document length `|d|`.
    pub doc_len: u32,
}

impl PostingPayload {
    /// Relevance score `TF / |d|` (Equation 4).
    pub fn relevance(&self) -> f64 {
        if self.doc_len == 0 {
            0.0
        } else {
            f64::from(self.tf) / f64::from(self.doc_len)
        }
    }

    /// Fixed-size little-endian encoding.
    pub fn encode(&self) -> [u8; PAYLOAD_BYTES] {
        let mut out = [0u8; PAYLOAD_BYTES];
        out[0..4].copy_from_slice(&self.term.0.to_le_bytes());
        out[4..8].copy_from_slice(&self.doc.0.to_le_bytes());
        out[8..12].copy_from_slice(&self.tf.to_le_bytes());
        out[12..16].copy_from_slice(&self.doc_len.to_le_bytes());
        out
    }

    /// Decodes a payload produced by [`PostingPayload::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, ZerberError> {
        if bytes.len() != PAYLOAD_BYTES {
            return Err(ZerberError::Crypto(format!(
                "payload must be {PAYLOAD_BYTES} bytes, got {}",
                bytes.len()
            )));
        }
        let word =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        Ok(PostingPayload {
            term: TermId(word(0)),
            doc: DocId(word(4)),
            tf: word(8),
            doc_len: word(12),
        })
    }
}

/// The sealed bytes of one posting element.  Up to [`SEALED_PAYLOAD_BYTES`]
/// (every element [`EncryptedElement::seal`] makes) live inline; a longer
/// ciphertext, which the store's element contract admits up to 64 KiB, lives
/// on the heap.  The variant follows from the length and inline bytes past
/// it are zero, so the derived equality is byte equality.
#[derive(Clone, PartialEq, Eq)]
pub struct Ciphertext(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline(u8, [u8; SEALED_PAYLOAD_BYTES]),
    Heap(Box<[u8]>),
}

impl From<&[u8]> for Ciphertext {
    fn from(bytes: &[u8]) -> Self {
        let mut inline = [0u8; SEALED_PAYLOAD_BYTES];
        match (inline.get_mut(..bytes.len()), u8::try_from(bytes.len())) {
            (Some(head), Ok(len)) => {
                head.copy_from_slice(bytes);
                Ciphertext(Repr::Inline(len, inline))
            }
            _ => Ciphertext(Repr::Heap(bytes.into())),
        }
    }
}

impl From<Vec<u8>> for Ciphertext {
    fn from(bytes: Vec<u8>) -> Self {
        if bytes.len() <= SEALED_PAYLOAD_BYTES {
            bytes.as_slice().into()
        } else {
            Ciphertext(Repr::Heap(bytes.into_boxed_slice()))
        }
    }
}

impl Deref for Ciphertext {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One encrypted posting element as stored on the (untrusted) index server.
///
/// The access-control group is visible to the server — it must be, because
/// the server enforces group membership before returning elements
/// (Section 4.1) — but term, document and score are sealed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptedElement {
    /// The group whose members may decrypt the payload.
    pub group: GroupId,
    /// AEAD-sealed [`PostingPayload`], bound to the merged list id.
    pub ciphertext: Ciphertext,
}

impl EncryptedElement {
    /// Seals a payload for storage in `list` under the group's keys.
    pub fn seal(
        payload: &PostingPayload,
        group: GroupId,
        keys: &GroupKeys,
        list: MergedListId,
        rng: &mut DeterministicRng,
    ) -> Result<Self, ZerberError> {
        let nonce = rng.nonce();
        let aad = list.0.to_le_bytes();
        let ciphertext = keys.aead().seal(&nonce, &payload.encode(), &aad).into();
        Ok(EncryptedElement { group, ciphertext })
    }

    /// Opens the element with the group's keys, verifying it belongs to
    /// `list`.
    pub fn open(
        &self,
        keys: &GroupKeys,
        list: MergedListId,
    ) -> Result<PostingPayload, ZerberError> {
        Self::open_ciphertext(&self.ciphertext, keys, list)
    }

    /// Opens a sealed payload where it lies (a response buffer, say),
    /// decrypting into the stack: the tag is verified before any payload
    /// byte is read.
    pub fn open_ciphertext(
        ciphertext: &[u8],
        keys: &GroupKeys,
        list: MergedListId,
    ) -> Result<PostingPayload, ZerberError> {
        let mut plain = [0u8; PAYLOAD_BYTES];
        keys.aead()
            .open(ciphertext, &list.0.to_le_bytes(), &mut plain)?;
        PostingPayload::decode(&plain)
    }

    /// Size of the element on the wire / on disk, in bytes (ciphertext plus
    /// the 4-byte group tag).
    pub fn stored_bytes(&self) -> usize {
        self.ciphertext.len() + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_crypto::MasterKey;

    fn keys() -> GroupKeys {
        MasterKey::new([9u8; 32]).group_keys(2)
    }

    fn payload() -> PostingPayload {
        PostingPayload {
            term: TermId(7),
            doc: DocId(42),
            tf: 3,
            doc_len: 12,
        }
    }

    #[test]
    fn payload_encoding_roundtrips() {
        let p = payload();
        let enc = p.encode();
        assert_eq!(enc.len(), PAYLOAD_BYTES);
        assert_eq!(PostingPayload::decode(&enc).unwrap(), p);
    }

    #[test]
    fn payload_decode_rejects_wrong_length() {
        assert!(PostingPayload::decode(&[0u8; 15]).is_err());
        assert!(PostingPayload::decode(&[0u8; 17]).is_err());
    }

    #[test]
    fn relevance_matches_equation_4() {
        assert!((payload().relevance() - 0.25).abs() < 1e-12);
        let zero = PostingPayload {
            doc_len: 0,
            ..payload()
        };
        assert_eq!(zero.relevance(), 0.0);
    }

    #[test]
    fn seal_open_roundtrip() {
        let keys = keys();
        let mut rng = DeterministicRng::from_u64(5);
        let e = EncryptedElement::seal(&payload(), GroupId(2), &keys, MergedListId(3), &mut rng)
            .unwrap();
        assert_eq!(e.ciphertext.len(), SEALED_PAYLOAD_BYTES);
        assert_eq!(e.stored_bytes(), SEALED_PAYLOAD_BYTES + 4);
        assert_eq!(e.open(&keys, MergedListId(3)).unwrap(), payload());
    }

    #[test]
    fn opening_with_wrong_list_or_key_fails() {
        let keys = keys();
        let other_keys = MasterKey::new([9u8; 32]).group_keys(3);
        let mut rng = DeterministicRng::from_u64(6);
        let e = EncryptedElement::seal(&payload(), GroupId(2), &keys, MergedListId(3), &mut rng)
            .unwrap();
        assert!(e.open(&keys, MergedListId(4)).is_err());
        assert!(e.open(&other_keys, MergedListId(3)).is_err());
    }

    #[test]
    fn every_single_bit_flip_of_a_sealed_element_is_rejected() {
        let keys = keys();
        let mut rng = DeterministicRng::from_u64(9);
        let e = EncryptedElement::seal(&payload(), GroupId(2), &keys, MergedListId(3), &mut rng)
            .unwrap();
        assert_eq!(e.ciphertext.len() * 8, 352);
        for bit in 0..352 {
            let mut flipped = e.ciphertext.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                EncryptedElement::open_ciphertext(&flipped, &keys, MergedListId(3)).is_err(),
                "bit {bit} flipped and still opened"
            );
        }
        let other_group = MasterKey::new([9u8; 32]).group_keys(3);
        let open = |k: &GroupKeys, list: u64| {
            EncryptedElement::open_ciphertext(&e.ciphertext, k, MergedListId(list))
        };
        assert!(open(&keys, 2).is_err() && open(&keys, 1 << 32).is_err());
        assert!(open(&other_group, 3).is_err());
        assert_eq!(open(&keys, 3).unwrap(), payload());
    }

    #[test]
    fn all_sealed_elements_have_identical_size() {
        let keys = keys();
        let mut rng = DeterministicRng::from_u64(7);
        let sizes: Vec<usize> = (0..20)
            .map(|i| {
                let p = PostingPayload {
                    term: TermId(i),
                    doc: DocId(i * 17),
                    tf: i + 1,
                    doc_len: 100 + i,
                };
                EncryptedElement::seal(&p, GroupId(2), &keys, MergedListId(0), &mut rng)
                    .unwrap()
                    .ciphertext
                    .len()
            })
            .collect();
        assert!(sizes.iter().all(|&s| s == SEALED_PAYLOAD_BYTES));
    }

    fn is_inline(c: &Ciphertext) -> bool {
        matches!(c.0, Repr::Inline(..))
    }

    #[test]
    fn ciphertexts_up_to_the_sealed_size_stay_inline_and_longer_ones_go_to_the_heap() {
        for len in 0..=SEALED_PAYLOAD_BYTES + 1 {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) | 1).collect();
            let (borrowed, owned) = (
                Ciphertext::from(&bytes[..]),
                Ciphertext::from(bytes.clone()),
            );
            assert_eq!(
                is_inline(&borrowed),
                len <= SEALED_PAYLOAD_BYTES,
                "length {len}"
            );
            assert_eq!(*borrowed, bytes[..], "length {len}");
            assert_eq!(borrowed, owned, "length {len}");
        }
        let longest = vec![0xC3; 65_535];
        let heap = Ciphertext::from(&longest[..]);
        assert!(!is_inline(&heap));
        assert_eq!(*heap, longest[..]);
        assert_eq!(heap, Ciphertext::from(longest));
        assert_ne!(
            Ciphertext::from(&[1u8, 2][..]),
            Ciphertext::from(&[1u8, 2, 0][..])
        );
        assert_eq!(format!("{:?}", Ciphertext::from(&[1u8, 2][..])), "[1, 2]");
        assert!(std::mem::size_of::<Ciphertext>() <= 48);
    }

    #[test]
    fn a_freshly_sealed_posting_is_inline() {
        let mut rng = DeterministicRng::from_u64(10);
        let e = EncryptedElement::seal(&payload(), GroupId(2), &keys(), MergedListId(3), &mut rng)
            .unwrap();
        assert!(is_inline(&e.ciphertext));
    }

    #[test]
    fn ciphertexts_of_identical_payloads_differ() {
        let keys = keys();
        let mut rng = DeterministicRng::from_u64(8);
        let a = EncryptedElement::seal(&payload(), GroupId(2), &keys, MergedListId(0), &mut rng)
            .unwrap();
        let b = EncryptedElement::seal(&payload(), GroupId(2), &keys, MergedListId(0), &mut rng)
            .unwrap();
        assert_ne!(
            a.ciphertext, b.ciphertext,
            "fresh nonces must randomize ciphertexts"
        );
    }
}
