//! Wire messages of the primary→replica replication stream.
//!
//! The store layer's `ReplicaTransport` is an in-process seam today; this
//! module pins the byte layout a socket ingress ships the same exchanges
//! with, so the transport can move onto the network without touching the
//! replication logic.  Every message is length-framed, tagged and
//! CRC-guarded — a torn or bit-flipped message comes back as a typed codec
//! error, which the replica's reconnect loop treats like any other
//! transport failure.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! message  := [body_len u32][crc32 u32][tag u8][body]
//! request  := tag 0x01 (snapshot, empty body)
//!           | tag 0x02 (poll): [num_shards u32][from u64]*[max_frames u32]
//! response := tag 0x81 (snapshot): [num_files u32] file* [num_heads u32][head u64]*
//!           | tag 0x82 (frames):   [num_frames u32] frame* [num_heads u32][head u64]*
//!                                  [need_snapshot u8]
//! file     := [name_len u16][name][crc32 u32][len u32][bytes]
//! frame    := [shard u32][len u32][bytes]          (bytes = raw WAL frame)
//! ```
//!
//! The message CRC covers `[tag][body]`.  Snapshot files additionally carry
//! their own CRC end-to-end (the replica re-checks them before writing its
//! root), and WAL frame bytes carry the store's frame CRC — corruption is
//! caught at whichever layer it slips past.

use zerber_store::crc32;
use zerber_store::replication::{FrameBatch, SnapshotFile, SnapshotPayload, WireFrame};

use crate::error::ProtocolError;

const TAG_SNAPSHOT_REQUEST: u8 = 0x01;
const TAG_POLL_REQUEST: u8 = 0x02;
const TAG_SNAPSHOT_RESPONSE: u8 = 0x81;
const TAG_FRAMES_RESPONSE: u8 = 0x82;

/// A replica→primary request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationRequest {
    /// Fetch a full snapshot.
    Snapshot,
    /// Poll the live WAL tail past `from` (one position per shard).
    Poll { from: Vec<u64>, max_frames: u32 },
}

/// A primary→replica response.
#[derive(Debug, Clone)]
pub enum ReplicationResponse {
    /// The snapshot file set plus the primary's per-shard heads.
    Snapshot(SnapshotPayload),
    /// A batch of live WAL frames.
    Frames(FrameBatch),
}

fn frame_message(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(tag);
    payload.extend_from_slice(body);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Splits a framed message into its tag and body after validating length
/// and CRC.
/// Reads a little-endian `u32` at `pos`, or reports a truncated message.
fn le_u32(buf: &[u8], pos: usize) -> Result<u32, ProtocolError> {
    pos.checked_add(4)
        .and_then(|end| buf.get(pos..end))
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| ProtocolError::Codec("truncated replication message".into()))
}

fn open_message(buf: &[u8]) -> Result<(u8, &[u8]), ProtocolError> {
    if buf.len() < 9 {
        return Err(ProtocolError::Codec("truncated replication message".into()));
    }
    let body_len = le_u32(buf, 0)? as usize;
    let carried = le_u32(buf, 4)?;
    let payload = &buf[8..];
    if payload.len() != body_len + 1 {
        return Err(ProtocolError::Codec(
            "replication message length mismatch".into(),
        ));
    }
    if crc32(payload) != carried {
        return Err(ProtocolError::Codec(
            "replication message failed its CRC".into(),
        ));
    }
    Ok((payload[0], &payload[1..]))
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| ProtocolError::Codec("truncated replication body".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let bytes = <[u8; 2]>::try_from(self.take(2)?)
            .map_err(|_| ProtocolError::Codec("truncated replication body".into()))?;
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let bytes = <[u8; 4]>::try_from(self.take(4)?)
            .map_err(|_| ProtocolError::Codec("truncated replication body".into()))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let bytes = <[u8; 8]>::try_from(self.take(8)?)
            .map_err(|_| ProtocolError::Codec("truncated replication body".into()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A count field off the wire: bounded by what the remaining bytes
    /// could plausibly hold (each counted item takes at least `min_item`
    /// bytes), so a corrupt count cannot drive a huge pre-allocation.
    fn count(&mut self, min_item: usize) -> Result<(usize, usize), ProtocolError> {
        let claimed = self.u32()? as usize;
        let plausible = (self.buf.len() - self.pos) / min_item.max(1) + 1;
        Ok((claimed, claimed.min(plausible)))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Codec(
                "trailing bytes in replication body".into(),
            ))
        }
    }
}

impl ReplicationRequest {
    /// Serializes the request to its framed wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ReplicationRequest::Snapshot => frame_message(TAG_SNAPSHOT_REQUEST, &[]),
            ReplicationRequest::Poll { from, max_frames } => {
                let mut body = Vec::with_capacity(8 + from.len() * 8);
                body.extend_from_slice(&(from.len() as u32).to_le_bytes());
                for &seq in from {
                    body.extend_from_slice(&seq.to_le_bytes());
                }
                body.extend_from_slice(&max_frames.to_le_bytes());
                frame_message(TAG_POLL_REQUEST, &body)
            }
        }
    }

    /// Decodes a buffer produced by [`ReplicationRequest::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, ProtocolError> {
        let (tag, body) = open_message(buf)?;
        match tag {
            TAG_SNAPSHOT_REQUEST => {
                if body.is_empty() {
                    Ok(ReplicationRequest::Snapshot)
                } else {
                    Err(ProtocolError::Codec(
                        "snapshot request carries a body".into(),
                    ))
                }
            }
            TAG_POLL_REQUEST => {
                let mut r = Reader::new(body);
                let (claimed, plausible) = r.count(8)?;
                let mut from = Vec::with_capacity(plausible);
                for _ in 0..claimed {
                    from.push(r.u64()?);
                }
                let max_frames = r.u32()?;
                r.finish()?;
                Ok(ReplicationRequest::Poll { from, max_frames })
            }
            other => Err(ProtocolError::Codec(format!(
                "unknown replication request tag {other:#04x}"
            ))),
        }
    }
}

impl ReplicationResponse {
    /// Serializes the response to its framed wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ReplicationResponse::Snapshot(payload) => {
                let mut body = Vec::new();
                body.extend_from_slice(&(payload.files.len() as u32).to_le_bytes());
                for file in &payload.files {
                    body.extend_from_slice(&(file.name.len() as u16).to_le_bytes());
                    body.extend_from_slice(file.name.as_bytes());
                    body.extend_from_slice(&file.crc.to_le_bytes());
                    body.extend_from_slice(&(file.bytes.len() as u32).to_le_bytes());
                    body.extend_from_slice(&file.bytes);
                }
                encode_heads(&mut body, &payload.heads);
                frame_message(TAG_SNAPSHOT_RESPONSE, &body)
            }
            ReplicationResponse::Frames(batch) => {
                let mut body = Vec::new();
                body.extend_from_slice(&(batch.frames.len() as u32).to_le_bytes());
                for frame in &batch.frames {
                    body.extend_from_slice(&frame.shard.to_le_bytes());
                    body.extend_from_slice(&(frame.bytes.len() as u32).to_le_bytes());
                    body.extend_from_slice(&frame.bytes);
                }
                encode_heads(&mut body, &batch.heads);
                body.push(batch.need_snapshot as u8);
                frame_message(TAG_FRAMES_RESPONSE, &body)
            }
        }
    }

    /// Decodes a buffer produced by [`ReplicationResponse::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, ProtocolError> {
        let (tag, body) = open_message(buf)?;
        match tag {
            TAG_SNAPSHOT_RESPONSE => {
                let mut r = Reader::new(body);
                let (claimed, plausible) = r.count(11)?;
                let mut files = Vec::with_capacity(plausible);
                for _ in 0..claimed {
                    let name_len = r.u16()? as usize;
                    let name = String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| {
                        ProtocolError::Codec("snapshot file name is not UTF-8".into())
                    })?;
                    let crc = r.u32()?;
                    let len = r.u32()? as usize;
                    let bytes = r.take(len)?.to_vec();
                    files.push(SnapshotFile { name, crc, bytes });
                }
                let heads = decode_heads(&mut r)?;
                r.finish()?;
                Ok(ReplicationResponse::Snapshot(SnapshotPayload {
                    files,
                    heads,
                }))
            }
            TAG_FRAMES_RESPONSE => {
                let mut r = Reader::new(body);
                let (claimed, plausible) = r.count(8)?;
                let mut frames = Vec::with_capacity(plausible);
                for _ in 0..claimed {
                    let shard = r.u32()?;
                    let len = r.u32()? as usize;
                    let bytes = r.take(len)?.to_vec();
                    frames.push(WireFrame { shard, bytes });
                }
                let heads = decode_heads(&mut r)?;
                let need_snapshot = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(ProtocolError::Codec(format!(
                            "invalid need_snapshot flag {other}"
                        )))
                    }
                };
                r.finish()?;
                Ok(ReplicationResponse::Frames(FrameBatch {
                    frames,
                    heads,
                    need_snapshot,
                }))
            }
            other => Err(ProtocolError::Codec(format!(
                "unknown replication response tag {other:#04x}"
            ))),
        }
    }
}

fn encode_heads(body: &mut Vec<u8>, heads: &[u64]) {
    body.extend_from_slice(&(heads.len() as u32).to_le_bytes());
    for &head in heads {
        body.extend_from_slice(&head.to_le_bytes());
    }
}

fn decode_heads(r: &mut Reader<'_>) -> Result<Vec<u64>, ProtocolError> {
    let (claimed, plausible) = r.count(8)?;
    let mut heads = Vec::with_capacity(plausible);
    for _ in 0..claimed {
        heads.push(r.u64()?);
    }
    Ok(heads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> SnapshotPayload {
        let meta = b"meta-bytes".to_vec();
        let pages = vec![0xC3u8; 64];
        SnapshotPayload {
            files: vec![
                SnapshotFile {
                    name: "store.meta".into(),
                    crc: crc32(&meta),
                    bytes: meta,
                },
                SnapshotFile {
                    name: "shard-000.g2.pages".into(),
                    crc: crc32(&pages),
                    bytes: pages,
                },
                SnapshotFile {
                    name: "shard-000.wal".into(),
                    crc: crc32(&[]),
                    bytes: Vec::new(),
                },
            ],
            heads: vec![17, 0],
        }
    }

    fn sample_batch(need_snapshot: bool) -> FrameBatch {
        FrameBatch {
            frames: vec![
                WireFrame {
                    shard: 0,
                    bytes: vec![1, 2, 3, 4, 5],
                },
                WireFrame {
                    shard: 3,
                    bytes: vec![9; 40],
                },
            ],
            heads: vec![5, 0, 0, 12],
            need_snapshot,
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The replication wire is pinned byte for byte: a snapshot response
    /// (three file records, each carrying the CRC32 of its bytes) and a
    /// frames response equal what the commit before the slicing-by-8 CRC
    /// put on the wire, message checksums included — a replica of either
    /// version accepts the other's messages.
    #[test]
    fn wire_messages_are_the_bytes_the_previous_version_sent() {
        let snapshot = ReplicationResponse::Snapshot(sample_snapshot()).encode();
        assert_eq!(hex(&snapshot), GOLDEN_SNAPSHOT);
        let frames = ReplicationResponse::Frames(sample_batch(true)).encode();
        assert_eq!(hex(&frames), GOLDEN_FRAMES);
        let poll = ReplicationRequest::Poll {
            from: vec![0, 7, 123456789],
            max_frames: 256,
        }
        .encode();
        assert_eq!(hex(&poll), GOLDEN_POLL);
    }

    const GOLDEN_SNAPSHOT: &str = concat!(
        "a9000000846d632b81030000000a0073746f72652e6d6574615d5935180a0000",
        "006d6574612d6279746573120073686172642d3030302e67322e706167657328",
        "60ce2840000000c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3",
        "c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3",
        "c3c3c3c3c3c3c30d0073686172642d3030302e77616c00000000000000000200",
        "000011000000000000000000000000000000",
    );
    const GOLDEN_FRAMES: &str = concat!(
        "660000003cd943b9820200000000000000050000000102030405030000002800",
        "0000090909090909090909090909090909090909090909090909090909090909",
        "0909090909090909090904000000050000000000000000000000000000000000",
        "0000000000000c0000000000000001",
    );
    const GOLDEN_POLL: &str = concat!(
        "200000009d3413e502030000000000000000000000070000000000000015cd5b",
        "070000000000010000",
    );

    #[test]
    fn requests_roundtrip() {
        for request in [
            ReplicationRequest::Snapshot,
            ReplicationRequest::Poll {
                from: vec![0, 7, 123456789],
                max_frames: 256,
            },
            ReplicationRequest::Poll {
                from: Vec::new(),
                max_frames: 1,
            },
        ] {
            let buf = request.encode();
            assert_eq!(ReplicationRequest::decode(&buf).unwrap(), request);
        }
    }

    #[test]
    fn snapshot_response_roundtrips() {
        let payload = sample_snapshot();
        let buf = ReplicationResponse::Snapshot(payload.clone()).encode();
        match ReplicationResponse::decode(&buf).unwrap() {
            ReplicationResponse::Snapshot(back) => {
                assert_eq!(back.heads, payload.heads);
                assert_eq!(back.files.len(), payload.files.len());
                for (a, b) in back.files.iter().zip(&payload.files) {
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.crc, b.crc);
                    assert_eq!(a.bytes, b.bytes);
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn frame_batch_roundtrips_with_both_flag_values() {
        for need_snapshot in [false, true] {
            let batch = sample_batch(need_snapshot);
            let buf = ReplicationResponse::Frames(batch.clone()).encode();
            match ReplicationResponse::decode(&buf).unwrap() {
                ReplicationResponse::Frames(back) => {
                    assert_eq!(back.heads, batch.heads);
                    assert_eq!(back.need_snapshot, need_snapshot);
                    assert_eq!(back.frames.len(), batch.frames.len());
                    for (a, b) in back.frames.iter().zip(&batch.frames) {
                        assert_eq!(a.shard, b.shard);
                        assert_eq!(a.bytes, b.bytes);
                    }
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_roundtrips_clean() {
        // The message CRC makes any single-byte corruption detectable: no
        // flipped buffer may decode successfully.
        let buf = ReplicationResponse::Frames(sample_batch(false)).encode();
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x5A;
            assert!(
                ReplicationResponse::decode(&bad).is_err(),
                "flip at byte {at} went undetected"
            );
        }
        let buf = ReplicationRequest::Poll {
            from: vec![3, 9],
            max_frames: 64,
        }
        .encode();
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 0x5A;
            assert!(
                ReplicationRequest::decode(&bad).is_err(),
                "flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn truncated_and_padded_messages_are_rejected() {
        let buf = ReplicationResponse::Snapshot(sample_snapshot()).encode();
        for cut in [0, 3, 8, buf.len() / 2, buf.len() - 1] {
            assert!(ReplicationResponse::decode(&buf[..cut]).is_err());
        }
        let mut padded = buf;
        padded.push(0);
        assert!(ReplicationResponse::decode(&padded).is_err());
    }

    #[test]
    fn huge_claimed_counts_error_without_allocating() {
        // A poll request claiming u32::MAX positions over a tiny body must
        // come back as a codec error, not an allocation abort.  Build the
        // frame by hand so the CRC is valid and only the count lies.
        let mut body = Vec::new();
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        let buf = super::frame_message(super::TAG_POLL_REQUEST, &body);
        assert!(ReplicationRequest::decode(&buf).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let buf = super::frame_message(0x7f, &[]);
        assert!(ReplicationRequest::decode(&buf).is_err());
        assert!(ReplicationResponse::decode(&buf).is_err());
    }
}
