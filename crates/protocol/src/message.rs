//! Wire messages exchanged between client and index server, with exact byte
//! accounting.
//!
//! The bandwidth experiments of Sections 6.4–6.6 reason in posting elements
//! and bytes.  To report faithful numbers the protocol serializes every
//! message to a concrete byte layout; the encoded sizes are what the network
//! model charges for.

use serde::{Deserialize, Serialize};
use zerber_base::Ciphertext;
use zerber_corpus::GroupId;
use zerber_r::OrderedElement;
// The per-element header on the wire is the store's element layout: 8-byte
// TRS + 4-byte group + 2-byte payload length.
pub use zerber_store::ELEMENT_HEADER_BYTES;

use crate::error::ProtocolError;

/// Size of a query request message: list id (8) + offset (8) + cursor (8) +
/// count (4) + k (4) + user-name length prefix (2).
pub const REQUEST_FIXED_BYTES: usize = 34;

/// A top-k query request (initial or follow-up).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Authenticated user issuing the request.
    pub user: String,
    /// The merged posting list addressed by the client.
    pub list: u64,
    /// Number of already received elements (0 for the initial request).
    pub offset: u64,
    /// Cursor session to resume (0 = none; the initial request opens none,
    /// the server opens one on the first follow-up and returns its id in
    /// the response).  A server that evicted the session falls back to the
    /// stateless `offset` scan.
    pub cursor: u64,
    /// Number of elements requested in this round.
    pub count: u32,
    /// The k the client ultimately wants (the server may log it; Section 4.1
    /// assumes the adversary knows it).
    pub k: u32,
}

impl QueryRequest {
    /// Size of the encoded request in bytes.
    pub fn encoded_bytes(&self) -> usize {
        REQUEST_FIXED_BYTES + self.user.len()
    }
}

/// One posting element as shipped to the client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireElement {
    /// Transformed relevance score (visible to everyone).
    pub trs: f64,
    /// Access-control group of the element.
    pub group: GroupId,
    /// The sealed posting payload.
    pub ciphertext: Ciphertext,
}

impl From<OrderedElement> for WireElement {
    /// The wire representation of an index element.  The sealed payload
    /// moves over as it is: its bytes are inline, so this allocates nothing.
    fn from(e: OrderedElement) -> Self {
        WireElement {
            trs: e.trs,
            group: e.group,
            ciphertext: e.sealed.ciphertext,
        }
    }
}

impl WireElement {
    /// Size of the encoded element in bytes.
    pub fn encoded_bytes(&self) -> usize {
        ELEMENT_HEADER_BYTES + self.ciphertext.len()
    }
}

/// A query response (one round).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Elements in descending TRS order.
    pub elements: Vec<WireElement>,
    /// Total number of elements of the list visible to this user; lets the
    /// client know when the list is exhausted.
    pub visible_total: u64,
    /// Cursor id for follow-up requests (0 once the list is exhausted).
    pub cursor: u64,
}

impl QueryResponse {
    /// Size of the encoded response in bytes (4-byte count + 8-byte total +
    /// 8-byte cursor + the elements).
    pub fn encoded_bytes(&self) -> usize {
        20 + self
            .elements
            .iter()
            .map(WireElement::encoded_bytes)
            .sum::<usize>()
    }

    /// Serializes the response to a flat byte buffer (length-prefixed
    /// elements).  Provided so tests can confirm the byte accounting matches
    /// a real encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_bytes());
        out.extend_from_slice(&(self.elements.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.visible_total.to_le_bytes());
        out.extend_from_slice(&self.cursor.to_le_bytes());
        for e in &self.elements {
            out.extend_from_slice(&e.trs.to_le_bytes());
            out.extend_from_slice(&e.group.0.to_le_bytes());
            // Lossless: the store refuses a ciphertext longer than
            // `zerber_store::MAX_CIPHERTEXT_BYTES` (`u16::MAX`).
            out.extend_from_slice(&(e.ciphertext.len() as u16).to_le_bytes());
            out.extend_from_slice(&e.ciphertext);
        }
        out
    }

    /// Decodes a buffer produced by [`QueryResponse::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, ProtocolError> {
        // Borrows exactly `N` bytes at `pos` as an array, or reports a
        // truncated buffer — fixed-width fields decode through this so a
        // short response surfaces as a codec error, never a panic.
        fn take<const N: usize>(buf: &[u8], pos: usize) -> Result<[u8; N], ProtocolError> {
            pos.checked_add(N)
                .and_then(|end| buf.get(pos..end))
                .and_then(|s| <[u8; N]>::try_from(s).ok())
                .ok_or_else(|| ProtocolError::Codec("truncated response".into()))
        }
        let need = |cond: bool| {
            if cond {
                Ok(())
            } else {
                Err(ProtocolError::Codec("truncated response".into()))
            }
        };
        need(buf.len() >= 20)?;
        let count = u32::from_le_bytes(take(buf, 0)?) as usize;
        let visible_total = u64::from_le_bytes(take(buf, 4)?);
        let cursor = u64::from_le_bytes(take(buf, 12)?);
        let mut pos = 20usize;
        // Don't trust the untrusted count for allocation: every element
        // takes at least 14 header bytes, so a corrupt count can't trigger a
        // huge pre-allocation before the per-element bounds checks fail.
        let plausible = count.min((buf.len() - pos) / ELEMENT_HEADER_BYTES + 1);
        let mut elements = Vec::with_capacity(plausible);
        for _ in 0..count {
            need(buf.len() >= pos + 14)?;
            let trs = f64::from_le_bytes(take(buf, pos)?);
            let group = u32::from_le_bytes(take(buf, pos + 8)?);
            let len = u16::from_le_bytes(take(buf, pos + 12)?) as usize;
            pos += 14;
            need(buf.len() >= pos + len)?;
            let ciphertext = buf[pos..pos + len].into();
            pos += len;
            elements.push(WireElement {
                trs,
                group: GroupId(group),
                ciphertext,
            });
        }
        if pos != buf.len() {
            return Err(ProtocolError::Codec("trailing bytes".into()));
        }
        Ok(QueryResponse {
            elements,
            visible_total,
            cursor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn element(trs: f64, group: u32, len: usize) -> WireElement {
        WireElement {
            trs,
            group: GroupId(group),
            ciphertext: vec![0xAB; len].into(),
        }
    }

    #[test]
    fn request_size_includes_user_name() {
        let r = QueryRequest {
            user: "john".into(),
            list: 1,
            offset: 0,
            cursor: 0,
            count: 10,
            k: 10,
        };
        assert_eq!(r.encoded_bytes(), REQUEST_FIXED_BYTES + 4);
    }

    #[test]
    fn response_roundtrips_through_encode_decode() {
        let resp = QueryResponse {
            elements: vec![element(0.9, 1, 44), element(0.7, 2, 44)],
            visible_total: 123,
            cursor: 0x1f00,
        };
        let buf = resp.encode();
        assert_eq!(buf.len(), resp.encoded_bytes());
        let back = QueryResponse::decode(&buf).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn empty_response_is_valid() {
        let resp = QueryResponse {
            elements: vec![],
            visible_total: 0,
            cursor: 0,
        };
        let buf = resp.encode();
        assert_eq!(buf.len(), 20);
        assert_eq!(QueryResponse::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn huge_claimed_count_errors_without_allocating() {
        // A header claiming u32::MAX elements over an empty body must come
        // back as a codec error, not an allocation abort.
        let mut buf = vec![0u8; 20];
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QueryResponse::decode(&buf).is_err());
    }

    #[test]
    fn truncated_or_padded_buffers_are_rejected() {
        let resp = QueryResponse {
            elements: vec![element(0.5, 0, 44)],
            visible_total: 5,
            cursor: 7 << 8,
        };
        let mut buf = resp.encode();
        assert!(QueryResponse::decode(&buf[..buf.len() - 1]).is_err());
        buf.push(0);
        assert!(QueryResponse::decode(&buf).is_err());
        assert!(QueryResponse::decode(&[0u8; 3]).is_err());
    }

    #[test]
    fn encoded_bytes_matches_encode_for_various_sizes() {
        for n in [0usize, 1, 7, 50] {
            let resp = QueryResponse {
                elements: (0..n)
                    .map(|i| element(i as f64 / 10.0, i as u32, 44))
                    .collect(),
                visible_total: n as u64,
                cursor: n as u64,
            };
            assert_eq!(resp.encode().len(), resp.encoded_bytes());
        }
    }
}
