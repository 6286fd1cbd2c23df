//! The compressed segment: an immutable run of block-encoded elements, the
//! unit the segment stack of [`crate::spill`] keeps in memory, pages to disk
//! and checkpoints.
//!
//! The paper's server holds merged posting lists as sealed elements in TRS
//! order; its economics hinge on how cheaply that ordered store can be held
//! and scanned.  A plain `Vec<OrderedElement>` pays the full struct width
//! per element (72 bytes, the sealed bytes inline).  A [`Segment`] instead
//! keeps the elements in compressed **blocks**:
//!
//! * TRS values are delta-encoded through the order-preserving
//!   [`sortable_bits`] mapping — bit-exact, so decoded elements compare
//!   identically to the plain ones even across quantization-free ties;
//! * group tags and ciphertext lengths are varints (with a per-block
//!   "uniform ciphertext length" fast path, since sealed payloads have one
//!   fixed size in practice), and blocks whose elements all share one group
//!   use the **group-uniform mode**: the group is encoded once in the block
//!   header and the per-element tags are dropped entirely;
//! * every block carries a **skip entry**: element count, first/last TRS and
//!   per-group visible counts.
//!
//! The skip entries make offset skip-scans `O(#blocks)` instead of
//! `O(#elements)`, and point reads only decode the one or two blocks they
//! actually touch.
//!
//! This module also owns how a list is cut into segments ([`encode_segments`],
//! [`encode_rebuilt`]: by [`SegmentConfig::max_segment_elems`]); the stack
//! built from them — slots, the rebuild an insert runs, running per-group
//! totals — is [`crate::spill::SpillList`].
//!
//! Segments serialize to a validated byte format ([`Segment::to_bytes`] /
//! [`Segment::from_bytes`]): like the posting codec, the decoder faces
//! untrusted bytes and must reject every truncation or bit flip with an
//! error, never a panic.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use zerber_base::EncryptedElement;
use zerber_corpus::GroupId;
use zerber_index::compress::{
    from_sortable_bits, read_bytes, read_varint, sortable_bits, write_bytes, write_varint,
};
use zerber_r::{OrderedElement, TRS_BYTES};

use crate::convert::{read_bytes as payload_slice, try_u32, try_usize, u64_of, usize_of};
use crate::error::StoreError;
use crate::store::GroupFilter;

/// Magic number heading every serialized segment ("ZSEG" little-endian).
const SEGMENT_MAGIC: u64 = 0x4745_535a;
/// Version of the segment wire format.  Version 2 added the group-uniform
/// block mode (one group in the block header instead of per-element tags).
const SEGMENT_VERSION: u64 = 2;

/// Tuning knobs of the segment layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Elements per compressed block (the skip-entry granularity).
    pub block_len: usize,
    /// Most elements one segment holds.  It caps what an insert re-encodes
    /// (`SpillList::insert` → `rebuild_slot`) and what a cold fault reads,
    /// checksums and validates (`Pager::fetch`): a rebuild past it splits
    /// in half.
    pub max_segment_elems: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            // Streaming decode stops once a batch is full: big blocks only
            // amortize the skip entry.
            block_len: 128,
            // Two blocks, so an insert or a fault touches ≤ 256.
            max_segment_elems: 256,
        }
    }
}

/// Skip entry of one compressed block.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlockMeta {
    /// Byte offset of the block inside the segment payload.
    offset: u32,
    /// Encoded length of the block in bytes.
    byte_len: u32,
    /// Number of elements in the block.
    elems: u32,
    /// Sortable bits of the first (largest) TRS in the block.  This is the
    /// authoritative value: the first element carries no TRS bytes in the
    /// payload, later elements are deltas from it.
    first: u64,
    /// Sortable bits of the last (smallest) TRS in the block.
    last: u64,
    /// Per-group element counts, sorted by group id (exact-sized).
    counts: Box<[(GroupId, u32)]>,
}

impl BlockMeta {
    /// Elements of the block visible under `filter`.
    fn visible_under(&self, filter: &GroupFilter<'_>) -> usize {
        filter.visible_in(usize_of(self.elems), &self.counts)
    }
}

/// One immutable compressed segment: concatenated encoded blocks plus their
/// skip entries and pre-aggregated byte totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    payload: Vec<u8>,
    blocks: Vec<BlockMeta>,
    elems: usize,
    stored_bytes: usize,
}

fn corrupt(reason: impl std::fmt::Display) -> StoreError {
    StoreError::CorruptSegment(reason.to_string())
}

/// Adds `n` elements of `group` to a per-group count vector kept ascending
/// by group id — the order [`GroupFilter::visible_in`] merges against.
pub(crate) fn add_count(counts: &mut Vec<(GroupId, u32)>, group: GroupId, n: u32) {
    let at = counts.partition_point(|&(g, _)| g < group);
    match counts.get_mut(at) {
        Some((g, count)) if *g == group => *count += n,
        _ => counts.insert(at, (group, n)),
    }
}

/// Sums per-group counts (a segment's over its blocks, a list's over its
/// slots) into one vector, ascending by group id and exact-sized.
pub(crate) fn sum_counts<'a, I>(counts: I) -> Vec<(GroupId, u32)>
where
    I: Iterator<Item = &'a (GroupId, u32)> + Clone,
{
    let mut totals = Vec::with_capacity(counts.clone().count());
    for &(group, n) in counts {
        add_count(&mut totals, group, n);
    }
    exact(totals)
}

/// Encodes one block of ordered elements onto `out`, returning its skip
/// entry.  The chunk must be non-empty and descending in TRS (the list
/// invariant every engine maintains).  The first element's TRS lives only in
/// the skip entry; the payload carries deltas from it.  Fails with
/// [`StoreError::SegmentOverflow`] — instead of panicking — if the block
/// would push the payload past the u32 offset space.
fn encode_block(chunk: &[OrderedElement], out: &mut Vec<u8>) -> Result<BlockMeta, StoreError> {
    let [head, ..] = chunk else {
        return Err(StoreError::Invariant("segment blocks are non-empty"));
    };
    let offset = out.len();
    let uniform = chunk
        .iter()
        .all(|e| e.sealed.ciphertext.len() == head.sealed.ciphertext.len());
    write_varint(
        out,
        if uniform {
            u64_of(head.sealed.ciphertext.len()) + 1
        } else {
            0
        },
    );
    // Group-uniform mode: when every element of the block shares one routing
    // group (and seals under that same group), the group is encoded once in
    // the block header and the per-element tags are dropped entirely.
    let uniform_group = chunk
        .iter()
        .all(|e| e.group == head.group && e.sealed.group == e.group)
        .then_some(head.group);
    write_varint(
        out,
        match uniform_group {
            Some(g) => u64::from(g.0) + 1,
            None => 0,
        },
    );
    let first = sortable_bits(head.trs);
    let mut prev = first;
    let mut counts: Vec<(GroupId, u32)> = Vec::with_capacity(chunk.len());
    for (i, element) in chunk.iter().enumerate() {
        let bits = sortable_bits(element.trs);
        if i > 0 {
            let delta = prev.checked_sub(bits).ok_or(StoreError::Invariant(
                "segment blocks encode TRS-descending elements",
            ))?;
            write_varint(out, delta);
        }
        prev = bits;
        if uniform_group.is_none() {
            let same = element.sealed.group == element.group;
            write_varint(out, (u64::from(element.group.0) << 1) | u64::from(!same));
            if !same {
                write_varint(out, u64::from(element.sealed.group.0));
            }
        }
        if uniform {
            out.extend_from_slice(&element.sealed.ciphertext);
        } else {
            write_bytes(out, &element.sealed.ciphertext);
        }
        add_count(&mut counts, element.group, 1);
    }
    // Every element is at most `MAX_CIPHERTEXT_BYTES` long, so only a
    // segment of tens of thousands of elements reaches past the u32 offset
    // space: an error, never a panic.
    Ok(BlockMeta {
        offset: u32::try_from(offset).map_err(|_| StoreError::SegmentOverflow)?,
        byte_len: u32::try_from(out.len() - offset).map_err(|_| StoreError::SegmentOverflow)?,
        elems: try_u32(chunk.len())?,
        first,
        last: prev,
        counts: exact(counts).into_boxed_slice(),
    })
}

/// A buffer filled under an upper bound, kept at its exact size (sealed
/// segments are immutable).  Copied out rather than shrunk in place: an
/// in-place shrink leaves the bound's slack as a gap behind every segment
/// a list build packs, and warm scans over that sparser heap measured
/// slower; freed whole, the slack is what the next encode reuses.
fn exact<T: Copy>(buf: Vec<T>) -> Vec<T> {
    buf.as_slice().to_vec()
}

/// One element parsed from a block, borrowing its ciphertext from the
/// payload.  Scans inspect `trs`/`group` without allocating and only
/// [`RawElement::materialize`] the elements they actually return.
pub(crate) struct RawElement<'a> {
    trs: f64,
    group: GroupId,
    sealed_group: GroupId,
    ciphertext: &'a [u8],
}

impl RawElement<'_> {
    /// The element as the store hands it out: its ciphertext is copied into
    /// the element's inline bytes, so a sealed posting allocates nothing.
    fn materialize(&self) -> OrderedElement {
        OrderedElement {
            trs: self.trs,
            group: self.group,
            sealed: EncryptedElement {
                group: self.sealed_group,
                ciphertext: self.ciphertext.into(),
            },
        }
    }
}

/// Streaming decoder over one block's payload: yields elements in order
/// without materializing the ones the caller skips.
pub(crate) struct BlockReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    uniform: u64,
    /// The block's single group in group-uniform mode (`None` = per-element
    /// tags in the payload).
    uniform_group: Option<GroupId>,
    prev: u64,
    index: u32,
    elems: u32,
}

impl<'a> BlockReader<'a> {
    fn new(bytes: &'a [u8], elems: u32, first: u64) -> Result<Self, StoreError> {
        let (uniform, pos) = read_varint(bytes, 0).map_err(corrupt)?;
        let (group_mode, pos) = read_varint(bytes, pos).map_err(corrupt)?;
        let uniform_group = if group_mode == 0 {
            None
        } else {
            let g = u32::try_from(group_mode - 1)
                .map_err(|_| corrupt("uniform group id out of range"))?;
            Some(GroupId(g))
        };
        Ok(BlockReader {
            bytes,
            pos,
            uniform,
            uniform_group,
            prev: first,
            index: 0,
            elems,
        })
    }

    fn next_raw(&mut self) -> Result<RawElement<'a>, StoreError> {
        debug_assert!(self.index < self.elems, "reader driven past the block");
        let bits = if self.index == 0 {
            self.prev
        } else {
            let (delta, p) = read_varint(self.bytes, self.pos).map_err(corrupt)?;
            self.pos = p;
            self.prev
                .checked_sub(delta)
                .ok_or_else(|| corrupt("TRS delta exceeds previous TRS"))?
        };
        let trs = from_sortable_bits(bits);
        if trs.is_nan() {
            return Err(corrupt("NaN TRS"));
        }
        self.prev = bits;
        let (group, sealed_group) = match self.uniform_group {
            // Group-uniform block: no per-element tags in the payload.
            Some(g) => (g.0, g.0),
            None => {
                let (tag, p) = read_varint(self.bytes, self.pos).map_err(corrupt)?;
                self.pos = p;
                let group =
                    u32::try_from(tag >> 1).map_err(|_| corrupt("group id out of range"))?;
                let sealed_group = if tag & 1 == 1 {
                    let (g, p) = read_varint(self.bytes, self.pos).map_err(corrupt)?;
                    self.pos = p;
                    u32::try_from(g).map_err(|_| corrupt("sealed group id out of range"))?
                } else {
                    group
                };
                (group, sealed_group)
            }
        };
        let ciphertext = if self.uniform > 0 {
            let len = try_usize(self.uniform - 1)?;
            let end = self
                .pos
                .checked_add(len)
                .ok_or_else(|| corrupt("ciphertext length overflow"))?;
            let slice = self
                .bytes
                .get(self.pos..end)
                .ok_or_else(|| corrupt("truncated ciphertext"))?;
            self.pos = end;
            slice
        } else {
            let (slice, p) = read_bytes(self.bytes, self.pos).map_err(corrupt)?;
            self.pos = p;
            slice
        };
        self.index += 1;
        Ok(RawElement {
            trs,
            group: GroupId(group),
            sealed_group: GroupId(sealed_group),
            ciphertext,
        })
    }

    /// Internal (trusted) read: the payload was encoded by this module.
    #[expect(clippy::expect_used, reason = "a self-encoded block always decodes")]
    fn next_trusted(&mut self) -> RawElement<'a> {
        self.next_raw().expect("self-encoded segment blocks decode")
    }
}

/// Logical bytes [`EncryptedElement::stored_bytes`] charges per element on
/// top of its ciphertext (the 4-byte group tag).
const GROUP_TAG_BYTES: usize = 4;

/// Validates one block against its skip entry and returns the ciphertext
/// bytes it holds.  Every inconsistency is an error: the walk runs on
/// untrusted bytes.  It borrows each element from the payload and
/// materializes none; `tally` is scratch the caller reuses across blocks.
///
/// `expected` must have passed [`Segment::parse_header`]: its group counts
/// ascend strictly and sum to `expected.elems`.
fn check_block(
    bytes: &[u8],
    expected: &BlockMeta,
    tally: &mut Vec<u32>,
) -> Result<usize, StoreError> {
    let mut reader = BlockReader::new(bytes, expected.elems, expected.first)?;
    tally.clear();
    tally.resize(expected.counts.len(), 0);
    let mut ciphertext = 0usize;
    for _ in 0..expected.elems {
        let raw = reader.next_raw()?;
        ciphertext += raw.ciphertext.len();
        // An element of a group the skip entry does not list is counted
        // nowhere, which leaves a listed group short of its count: the
        // counts sum to the elements walked.
        if let Some(seen) = expected
            .counts
            .binary_search_by_key(&raw.group, |&(group, _)| group)
            .ok()
            .and_then(|i| tally.get_mut(i))
        {
            *seen += 1;
        }
    }
    if reader.pos != bytes.len() {
        return Err(corrupt("trailing bytes after block"));
    }
    if reader.prev != expected.last {
        return Err(corrupt("block TRS bounds disagree with skip entry"));
    }
    if tally
        .iter()
        .zip(expected.counts.iter())
        .any(|(&seen, &(_, want))| seen != want)
    {
        return Err(corrupt("block group counts disagree with skip entry"));
    }
    Ok(ciphertext)
}

impl Segment {
    /// Encodes a non-empty TRS-descending slice into a segment of
    /// `block_len`-element blocks.  Fails with
    /// [`StoreError::SegmentOverflow`] if the encoded payload would exceed
    /// the u32 offset space.
    pub(crate) fn from_elements(
        elements: &[OrderedElement],
        block_len: usize,
    ) -> Result<Segment, StoreError> {
        debug_assert!(!elements.is_empty(), "segments are never empty");
        let mut blocks = Vec::with_capacity(elements.len().div_ceil(block_len.max(1)));
        // Room for every varint at its widest (two per block header; delta,
        // tags and length per element), so the payload never regrows.
        let bound: usize = elements.iter().map(|e| e.sealed.ciphertext.len()).sum();
        let mut payload = Vec::with_capacity(bound + 30 * elements.len() + 20 * blocks.capacity());
        for chunk in elements.chunks(block_len.max(1)) {
            blocks.push(encode_block(chunk, &mut payload)?);
        }
        Ok(Segment {
            payload: exact(payload),
            blocks,
            elems: elements.len(),
            stored_bytes: elements
                .iter()
                .map(|e| e.sealed.stored_bytes() + TRS_BYTES)
                .sum(),
        })
    }

    /// Number of elements held.
    pub fn num_elements(&self) -> usize {
        self.elems
    }

    /// Number of compressed blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Sortable bits of the last (smallest) TRS held.
    #[expect(clippy::expect_used, reason = "encoding never yields an empty segment")]
    pub(crate) fn last_bits(&self) -> u64 {
        self.blocks.last().expect("segments are never empty").last
    }

    /// Logical stored bytes (sealed payloads + TRS) of the elements held.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.stored_bytes
    }

    /// Per-group element counts aggregated over the segment's blocks,
    /// sorted by group id — the summary a spilled segment leaves behind so
    /// visibility accounting never has to fault the page back in.
    pub(crate) fn group_counts(&self) -> Vec<(GroupId, u32)> {
        sum_counts(self.counts())
    }

    /// Every block's per-group counts, block by block.
    pub(crate) fn counts(&self) -> impl Iterator<Item = &(GroupId, u32)> + Clone + '_ {
        self.blocks.iter().flat_map(|meta| meta.counts.iter())
    }

    /// Scans this segment's slice of the logical list.  `seg_base` is the
    /// global physical index of the segment's first element; `skipped`
    /// carries the visible-skip state across segments.  Visible elements
    /// past the skip are appended to `out`; once `out` holds `count` (> 0,
    /// the caller answers 0 itself) elements the global next-physical index
    /// is returned and the scan stops.
    #[expect(clippy::too_many_arguments, reason = "state threads across segments")]
    pub(crate) fn scan_part(
        &self,
        seg_base: usize,
        start: usize,
        skip: usize,
        skipped: &mut usize,
        count: usize,
        out: &mut Vec<OrderedElement>,
        filter: &GroupFilter<'_>,
    ) -> Option<usize> {
        let mut pos = seg_base;
        for meta in &self.blocks {
            let block_end = pos + usize_of(meta.elems);
            if block_end <= start {
                pos = block_end;
                continue;
            }
            // Wholesale visible-skip: the block lies fully past `start`
            // and every visible element in it would be skipped anyway.
            if pos >= start && *skipped < skip {
                let visible = meta.visible_under(filter);
                if *skipped + visible <= skip {
                    *skipped += visible;
                    pos = block_end;
                    continue;
                }
            }
            // Stream the block: skipped or invisible elements are parsed
            // without materializing their ciphertext, and the read stops
            // as soon as the batch is full.
            let mut reader = self.block_reader(meta);
            for j in 0..usize_of(meta.elems) {
                let raw = reader.next_trusted();
                let idx = pos + j;
                if idx < start || !filter.admits(raw.group) {
                    continue;
                }
                if *skipped < skip {
                    *skipped += 1;
                    continue;
                }
                out.push(raw.materialize());
                if out.len() == count {
                    return Some(idx + 1);
                }
            }
            pos = block_end;
        }
        None
    }

    /// A streaming reader over one of this segment's blocks.
    #[expect(clippy::expect_used, reason = "a self-encoded block always decodes")]
    fn block_reader(&self, meta: &BlockMeta) -> BlockReader<'_> {
        let bytes = payload_slice(
            &self.payload,
            usize_of(meta.offset),
            usize_of(meta.byte_len),
        )
        .expect("self-encoded block offsets are in bounds");
        BlockReader::new(bytes, meta.elems, meta.first).expect("self-encoded segment blocks decode")
    }

    /// Decodes the whole segment in order onto `out` (internal, trusted
    /// path), which the caller sizes.
    pub(crate) fn decode_into(&self, out: &mut Vec<OrderedElement>) {
        for meta in &self.blocks {
            let mut reader = self.block_reader(meta);
            out.extend((0..meta.elems).map(|_| reader.next_trusted().materialize()));
        }
    }

    /// Estimated resident memory of the segment.
    pub(crate) fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Segment>()
            + self.payload.capacity()
            + self.blocks.capacity() * std::mem::size_of::<BlockMeta>()
            + self
                .blocks
                .iter()
                .map(|b| b.counts.len() * std::mem::size_of::<(GroupId, u32)>())
                .sum::<usize>()
    }

    /// Serializes the segment to its validated wire format, in one buffer
    /// of exactly its size.
    pub fn to_bytes(&self) -> Vec<u8> {
        let blocks = self.blocks.iter().flat_map(|meta| {
            let head = [
                meta.elems.into(),
                meta.first,
                meta.last,
                u64_of(meta.counts.len()),
            ];
            let counts = meta
                .counts
                .iter()
                .flat_map(|&(g, n)| [g.0, n].map(u64::from));
            head.into_iter().chain(counts).chain([meta.byte_len.into()])
        });
        let head = [
            SEGMENT_MAGIC,
            SEGMENT_VERSION,
            u64_of(self.elems),
            u64_of(self.blocks.len()),
        ];
        let header = head.into_iter().chain(blocks);
        // LEB128: seven bits a byte, one byte for zero.
        let width = |v: u64| usize_of((u64::BITS - v.leading_zeros()).max(1).div_ceil(7));
        let size = header.clone().map(width).sum::<usize>() + self.payload.len();
        let mut out = Vec::with_capacity(size);
        for field in header {
            write_varint(&mut out, field);
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses and fully validates a serialized segment.  Truncated,
    /// bit-flipped or internally inconsistent bytes come back as
    /// [`StoreError::CorruptSegment`]; the decoder never panics and never
    /// trusts an untrusted count for allocation.
    pub fn from_bytes(buf: &[u8]) -> Result<Segment, StoreError> {
        let (blocks, payload) = Segment::parse_header(buf)?;
        // Validate every block against its skip entry and the cross-block
        // ordering invariant, accumulating the byte totals.
        let mut elems = 0usize;
        let mut ciphertext_bytes = 0usize;
        let mut tally = Vec::new();
        let mut prev_last = u64::MAX;
        for meta in &blocks {
            let block_bytes =
                payload_slice(&payload, usize_of(meta.offset), usize_of(meta.byte_len))?;
            ciphertext_bytes += check_block(block_bytes, meta, &mut tally)?;
            if prev_last < meta.first {
                return Err(corrupt("blocks out of TRS order"));
            }
            prev_last = meta.last;
            elems += usize_of(meta.elems);
        }
        Ok(Segment {
            payload,
            blocks,
            elems,
            stored_bytes: ciphertext_bytes + elems * (GROUP_TAG_BYTES + TRS_BYTES),
        })
    }

    /// Parses the segment header into skip entries plus the payload they
    /// index, checking every header-level invariant (magic, version, count
    /// plausibility, group-count coverage, block lengths against the payload
    /// length, element counts against the header total).  The blocks
    /// themselves are not yet validated.
    fn parse_header(buf: &[u8]) -> Result<(Vec<BlockMeta>, Vec<u8>), StoreError> {
        let (magic, pos) = read_varint(buf, 0).map_err(corrupt)?;
        if magic != SEGMENT_MAGIC {
            return Err(corrupt("bad segment magic"));
        }
        let (version, pos) = read_varint(buf, pos).map_err(corrupt)?;
        if version != SEGMENT_VERSION {
            return Err(corrupt(format!("unsupported segment version {version}")));
        }
        let (total_elems, pos) = read_varint(buf, pos).map_err(corrupt)?;
        let (num_blocks, mut pos) = read_varint(buf, pos).map_err(corrupt)?;
        // The encoder never produces more elements than u32 block offsets
        // can index; a larger claim is corrupt, and capping here keeps the
        // `as usize` conversions below lossless on every platform.
        if total_elems > u64::from(u32::MAX) {
            return Err(corrupt("implausible total element count"));
        }
        // Every block header takes at least 6 bytes.
        if num_blocks > u64_of(buf.len() / 6 + 1) {
            return Err(corrupt("implausible block count"));
        }
        let num_blocks = try_usize(num_blocks)?;
        let mut blocks = Vec::with_capacity(num_blocks);
        let mut offset = 0u32;
        let mut elems_seen = 0u64;
        for _ in 0..num_blocks {
            let (elems, p) = read_varint(buf, pos).map_err(corrupt)?;
            let (first, p) = read_varint(buf, p).map_err(corrupt)?;
            let (last, p) = read_varint(buf, p).map_err(corrupt)?;
            let (num_counts, mut p) = read_varint(buf, p).map_err(corrupt)?;
            if elems == 0 || elems > u64::from(u32::MAX) {
                return Err(corrupt("block element count out of range"));
            }
            if first < last {
                return Err(corrupt("block TRS bounds out of order"));
            }
            if num_counts == 0 || num_counts > elems {
                return Err(corrupt("implausible group-count entries"));
            }
            let mut counts: Vec<(GroupId, u32)> =
                Vec::with_capacity(try_usize(num_counts)?.min(buf.len() / 2 + 1));
            let mut count_sum = 0u64;
            for _ in 0..num_counts {
                let (group, q) = read_varint(buf, p).map_err(corrupt)?;
                let (count, q) = read_varint(buf, q).map_err(corrupt)?;
                p = q;
                if count == 0 || count > elems {
                    return Err(corrupt("group count entry out of range"));
                }
                let group =
                    u32::try_from(group).map_err(|_| corrupt("group count entry out of range"))?;
                // In the u32 range: count <= elems, and elems was range
                // checked above.
                let count32 =
                    u32::try_from(count).map_err(|_| corrupt("group count entry out of range"))?;
                if let Some(&(prev, _)) = counts.last() {
                    if group <= prev.0 {
                        return Err(corrupt("group count entries out of order"));
                    }
                }
                counts.push((GroupId(group), count32));
                count_sum += count;
            }
            if count_sum != elems {
                return Err(corrupt("group counts do not cover the block"));
            }
            let (byte_len, p) = read_varint(buf, p).map_err(corrupt)?;
            pos = p;
            let byte_len = u32::try_from(byte_len).map_err(|_| corrupt("block length overflow"))?;
            blocks.push(BlockMeta {
                offset,
                byte_len,
                elems: u32::try_from(elems)
                    .map_err(|_| corrupt("block element count out of range"))?,
                first,
                last,
                counts: counts.into_boxed_slice(),
            });
            offset = offset
                .checked_add(byte_len)
                .ok_or_else(|| corrupt("block length overflow"))?;
            elems_seen += elems;
        }
        if elems_seen != total_elems {
            return Err(corrupt("block element counts do not sum to the header"));
        }
        let payload = buf
            .get(pos..)
            .ok_or_else(|| corrupt("truncated payload"))?
            .to_vec();
        if payload.len() != usize_of(offset) {
            return Err(corrupt("payload length disagrees with block lengths"));
        }
        Ok((blocks, payload))
    }
}

/// Encodes a full ordered list into a segment stack of at most
/// `max_segment_elems` elements per segment.
pub(crate) fn encode_segments(
    elements: &[OrderedElement],
    config: &SegmentConfig,
) -> Result<Vec<Segment>, StoreError> {
    elements
        .chunks(config.max_segment_elems.max(1))
        .map(|chunk| Segment::from_elements(chunk, config.block_len))
        .collect()
}

/// Re-encodes one rebuilt (post-insert) segment's elements, splitting in
/// half when the element bound is exceeded so rebuild cost stays bounded as
/// a list grows through its interior.
pub(crate) fn encode_rebuilt(
    decoded: &[OrderedElement],
    config: &SegmentConfig,
) -> Result<Vec<Segment>, StoreError> {
    let (lo, hi) = if decoded.len() > config.max_segment_elems {
        decoded.split_at(decoded.len() / 2)
    } else {
        (decoded, &[][..])
    };
    [lo, hi]
        .into_iter()
        .filter(|half| !half.is_empty())
        .map(|half| Segment::from_elements(half, config.block_len))
        .collect()
}

#[cfg(test)]
mod oracle {
    //! The validation `Segment::from_bytes` ran before it became a borrowed
    //! walk: every element of every block materialized, then summed.  Kept
    //! as the reference the serving decoder is held against, input by input.

    use super::*;

    impl Segment {
        /// Every element in order, in a vector of its own.
        pub(crate) fn decode_all(&self) -> Vec<OrderedElement> {
            let mut out = Vec::with_capacity(self.elems);
            self.decode_into(&mut out);
            out
        }
    }

    /// Decodes and validates one block against its skip entry.  Every
    /// inconsistency is an error: the decoder also runs on untrusted bytes.
    fn decode_block_checked(
        bytes: &[u8],
        expected: &BlockMeta,
    ) -> Result<Vec<OrderedElement>, StoreError> {
        let mut reader = BlockReader::new(bytes, expected.elems, expected.first)?;
        let elems = usize_of(expected.elems);
        // Each element takes at least 1 payload byte, so a corrupt count cannot
        // force a huge pre-allocation before validation fails.
        let mut out: Vec<OrderedElement> = Vec::with_capacity(elems.min(bytes.len() + 1));
        let mut counts: Vec<(GroupId, u32)> = Vec::new();
        for _ in 0..elems {
            let raw = reader.next_raw()?;
            add_count(&mut counts, raw.group, 1);
            out.push(raw.materialize());
        }
        if reader.pos != bytes.len() {
            return Err(corrupt("trailing bytes after block"));
        }
        if reader.prev != expected.last {
            return Err(corrupt("block TRS bounds disagree with skip entry"));
        }
        if counts.as_slice() != expected.counts.as_ref() {
            return Err(corrupt("block group counts disagree with skip entry"));
        }
        Ok(out)
    }

    fn from_bytes_reference(buf: &[u8]) -> Result<Segment, StoreError> {
        let (blocks, payload) = Segment::parse_header(buf)?;
        let mut elems = 0usize;
        let mut stored = 0usize;
        for (i, meta) in blocks.iter().enumerate() {
            let block_bytes =
                payload_slice(&payload, usize_of(meta.offset), usize_of(meta.byte_len))?;
            let decoded = decode_block_checked(block_bytes, meta)?;
            elems += decoded.len();
            stored += decoded
                .iter()
                .map(|e| e.sealed.stored_bytes() + TRS_BYTES)
                .sum::<usize>();
            if i > 0 && blocks[i - 1].last < meta.first {
                return Err(corrupt("blocks out of TRS order"));
            }
        }
        Ok(Segment {
            payload,
            blocks,
            elems,
            stored_bytes: stored,
        })
    }

    /// Runs `bytes` through the serving decoder and the reference and
    /// demands one verdict: the same error, or segments equal in every field
    /// (payload, skip entries, element and byte totals), in what they decode
    /// to and in what they charge a budget.  Returns that verdict.
    pub(super) fn same_verdict(bytes: &[u8]) -> Result<Segment, StoreError> {
        let new = Segment::from_bytes(bytes);
        match (&new, &from_bytes_reference(bytes)) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new, old);
                assert_eq!(new.decode_all(), old.decode_all());
                assert_eq!(new.stored_bytes(), old.stored_bytes());
                assert_eq!(new.resident_bytes(), old.resident_bytes());
            }
            (Err(new), Err(old)) => assert_eq!(new, old),
            (new, old) => panic!("decoder says {new:?}, reference says {old:?}"),
        }
        new
    }
}

#[cfg(test)]
mod tests {
    //! The segment codec's tests, and — under their original names — the
    //! list tests of the stack built from segments: they run against
    //! [`SpillList`] on its resident (pager-less) lifecycle, held against
    //! a sorted `Vec` ([`crate::tests::model`]).

    use super::oracle::same_verdict;
    use super::*;
    use crate::spill::SpillList;
    use crate::tests::model;

    fn element(trs: f64, group: u32, ct: &[u8]) -> OrderedElement {
        OrderedElement {
            trs,
            group: GroupId(group),
            sealed: EncryptedElement {
                group: GroupId(group),
                ciphertext: ct.into(),
            },
        }
    }

    fn sorted_elements(n: usize) -> Vec<OrderedElement> {
        (0..n)
            .map(|i| {
                element(
                    1.0 - i as f64 / n as f64,
                    (i % 3) as u32,
                    &vec![i as u8; 8 + (i % 3)],
                )
            })
            .collect()
    }

    fn small_config() -> SegmentConfig {
        SegmentConfig {
            block_len: 4,
            max_segment_elems: 16,
        }
    }

    /// The running per-group totals must equal a recount of the snapshot,
    /// and `visible_total` must answer from them.
    fn assert_totals_exact(seg: &SpillList) {
        let mut recount = std::collections::BTreeMap::new();
        for e in seg.snapshot().unwrap() {
            *recount.entry(e.group).or_insert(0u32) += 1;
        }
        assert_eq!(
            seg.totals(),
            recount.iter().map(|(&g, &n)| (g, n)).collect::<Vec<_>>()
        );
        for (&group, &n) in &recount {
            let only = [group];
            let filter = GroupFilter::normalise(Some(&only));
            assert_eq!(seg.visible_total(&filter), n as usize);
        }
    }

    #[test]
    fn segment_roundtrips_through_bytes() {
        let elements = sorted_elements(23);
        let segment = Segment::from_elements(&elements, 5).unwrap();
        assert_eq!(segment.num_elements(), 23);
        assert_eq!(segment.num_blocks(), 5);
        assert_eq!(segment.decode_all(), elements);
        let bytes = segment.to_bytes();
        let back = same_verdict(&bytes).unwrap();
        assert_eq!(back, segment);
        assert_eq!(back.decode_all(), elements);
    }

    #[test]
    fn mixed_ciphertext_lengths_and_split_group_tags_roundtrip() {
        let mut elements = sorted_elements(9);
        // One element whose sealed group differs from the routing group.
        elements[4].sealed.group = GroupId(99);
        let segment = Segment::from_elements(&elements, 4).unwrap();
        let back = same_verdict(&segment.to_bytes()).unwrap();
        assert_eq!(back.decode_all(), elements);
    }

    #[test]
    fn group_uniform_blocks_drop_the_per_element_tag() {
        let uniform: Vec<OrderedElement> = (0..64)
            .map(|i| element(1.0 - i as f64 / 64.0, 3, &[9u8; 16]))
            .collect();
        let mut mixed = uniform.clone();
        for (i, e) in mixed.iter_mut().enumerate() {
            let g = GroupId((i % 2) as u32);
            e.group = g;
            e.sealed.group = g;
        }
        let u = Segment::from_elements(&uniform, 8).unwrap();
        let m = Segment::from_elements(&mixed, 8).unwrap();
        assert_eq!(u.decode_all(), uniform);
        assert_eq!(m.decode_all(), mixed);
        // Every element of the mixed encoding pays a 1-byte group tag; the
        // uniform encoding pays 1 header byte per block instead.
        assert_eq!(m.payload.len() - u.payload.len(), 64);
        // A block whose sealed group differs from the routing group cannot
        // use the uniform mode, even if the routing groups agree.
        let mut split = uniform.clone();
        split[5].sealed.group = GroupId(99);
        let s = Segment::from_elements(&split, 8).unwrap();
        assert_eq!(s.decode_all(), split);
        assert!(s.payload.len() > u.payload.len());
        // And all three round-trip through the wire format.
        for seg in [&u, &m, &s] {
            assert_eq!(&same_verdict(&seg.to_bytes()).unwrap(), seg);
        }
    }

    #[test]
    fn truncations_and_garbage_are_rejected() {
        let bytes = Segment::from_elements(&sorted_elements(12), 4)
            .unwrap()
            .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                same_verdict(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(same_verdict(&[]).is_err());
        assert!(same_verdict(b"not a segment at all").is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(same_verdict(&trailing).is_err());
    }

    #[test]
    fn segment_list_matches_the_vec_layout_on_scans() {
        let elements = sorted_elements(37);
        let seg = SpillList::build(elements.clone(), small_config(), None, &mut 0).unwrap();
        assert_eq!(seg.len(), elements.len());
        assert_eq!(seg.snapshot().unwrap(), elements);
        // Filters as callers may hand them in — ascending, unsorted with a
        // duplicate, empty, naming only absent groups — all normalise to
        // something the skip entries can be merged against.
        let filters: [Option<&[GroupId]>; 5] = [
            None,
            Some(&[GroupId(0), GroupId(2)]),
            Some(&[GroupId(2), GroupId(1), GroupId(2), GroupId(u32::MAX)]),
            Some(&[]),
            Some(&[GroupId(7)]),
        ];
        for accessible in &filters.map(GroupFilter::normalise) {
            assert_eq!(
                seg.visible_total(accessible),
                model::visible_total(&elements, accessible)
            );
            for start in [0usize, 3, 17, 36, 37, 40] {
                for skip in [0usize, 1, 5, 30] {
                    for count in [0usize, 1, 4, 100] {
                        assert_eq!(
                            seg.scan(start, skip, count, accessible).unwrap(),
                            model::scan(&elements, start, skip, count, accessible),
                            "start {start} skip {skip} count {count}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inserts_match_the_vec_layout_at_the_head_inside_and_below() {
        let mut seg = SpillList::build(sorted_elements(20), small_config(), None, &mut 0).unwrap();
        let mut expected = sorted_elements(20);
        // Bottom inserts (below every element), interior inserts and head
        // inserts, with ties.
        let probes = [0.001, 0.002, 0.5, 0.925, 1.5, 0.5, 0.0015, 0.85, 0.0];
        for (i, &trs) in probes.iter().enumerate() {
            let e = element(trs, (i % 3) as u32, &[i as u8; 6]);
            assert_eq!(
                seg.insert(e.clone(), 0).unwrap(),
                model::insert(&mut expected, e),
                "probe {trs}"
            );
            assert_eq!(seg.len(), expected.len());
        }
        assert_eq!(seg.snapshot().unwrap(), expected);
        assert!(seg.ordering_ok());
        assert_totals_exact(&seg);
    }

    #[test]
    fn bottom_inserts_split_the_full_last_segment_in_half() {
        let config = small_config();
        let mut seg = SpillList::build(sorted_elements(16), config, None, &mut 0).unwrap();
        let mut expected = sorted_elements(16);
        // A long run of inserts below every element, each absorbed by the
        // last segment.
        for i in 0..40 {
            let trs = 1e-6 * (40 - i) as f64;
            let e = element(trs, (i % 3) as u32, &[7u8; 4]);
            assert_eq!(
                seg.insert(e.clone(), 0).unwrap(),
                model::insert(&mut expected, e)
            );
        }
        assert_eq!(seg.snapshot().unwrap(), expected);
        // The full last segment splits 17 → 8 + 9 and then absorbs seven
        // more, so the stack grows by one segment per eight inserts.
        assert_eq!(
            seg.num_slots(),
            1 + 40usize.div_ceil(config.max_segment_elems / 2)
        );
        assert_eq!(seg.stored_bytes(), model::stored_bytes(&expected));
        assert_totals_exact(&seg);
    }

    #[test]
    fn compressed_lists_are_smaller_than_the_vec_layout() {
        // The baseline is an arena layout: per element one dense metadata
        // record (TRS, both group tags, the ciphertext's offset and length)
        // plus one ciphertext arena per list — already much tighter than a
        // heap allocation per element.  Mixed groups pay a 1-byte tag per
        // element.
        let arena = |elements: &[OrderedElement]| {
            elements.len() * std::mem::size_of::<(f64, GroupId, GroupId, usize, usize)>()
                + elements
                    .iter()
                    .map(|e| e.sealed.ciphertext.len())
                    .sum::<usize>()
        };
        let elements: Vec<OrderedElement> = (0..512)
            .map(|i| element(1.0 - i as f64 / 512.0, (i % 4) as u32, &[3u8; 44]))
            .collect();
        let seg =
            SpillList::build(elements.clone(), SegmentConfig::default(), None, &mut 0).unwrap();
        let ratio = seg.resident_bytes() as f64 / arena(&elements) as f64;
        assert!(
            ratio <= 0.75,
            "segment layout should be <= 75% of the arena vec layout, got {ratio:.3}"
        );
        // Group-uniform lists drop the per-element tag entirely and must
        // compress strictly better than the mixed-group layout.
        let uniform: Vec<OrderedElement> = (0..512)
            .map(|i| element(1.0 - i as f64 / 512.0, 2, &[3u8; 44]))
            .collect();
        let useg =
            SpillList::build(uniform.clone(), SegmentConfig::default(), None, &mut 0).unwrap();
        let uratio = useg.resident_bytes() as f64 / arena(&uniform) as f64;
        assert!(
            uratio < ratio,
            "group-uniform blocks should beat mixed blocks: {uratio:.3} vs {ratio:.3}"
        );
    }

    #[test]
    fn empty_lists_behave() {
        let mut seg = SpillList::build(Vec::new(), small_config(), None, &mut 0).unwrap();
        assert_eq!(seg.len(), 0);
        let all = GroupFilter::normalise(None);
        assert_eq!(seg.scan(0, 0, 5, &all).unwrap(), (Vec::new(), 0));
        assert_eq!(seg.insert(element(0.5, 0, &[1]), 0).unwrap(), 0);
        assert_eq!(seg.len(), 1);
    }

    #[test]
    fn oversized_single_elements_error_without_corrupting_the_list() {
        let mut seg = SpillList::build(sorted_elements(8), small_config(), None, &mut 0).unwrap();
        let before = seg.snapshot().unwrap();
        // One element whose ciphertext the 2-byte element length cannot
        // state: a clean error, list untouched.
        let huge = element(0.5, 0, &vec![9u8; crate::MAX_CIPHERTEXT_BYTES + 1]);
        assert!(matches!(
            seg.insert(huge.clone(), 0),
            Err(StoreError::InvalidElement(_))
        ));
        assert_eq!(seg.snapshot().unwrap(), before);
        assert_totals_exact(&seg);
        // The same element poisons a fresh build the same way.
        let mut poisoned = sorted_elements(8);
        poisoned.insert(4, huge);
        assert!(matches!(
            SpillList::build(poisoned, small_config(), None, &mut 0),
            Err(StoreError::InvalidElement(_))
        ));
    }

    #[test]
    fn a_negative_zero_trs_is_stored_as_positive_zero() {
        // -0.0 compares equal to +0.0, so it sorts in front of them, but its
        // sortable bits are smaller: stored as it came, it would break the
        // descending block encoding at the next rebuild.
        let config = small_config();
        let mut seg = SpillList::build(sorted_elements(20), config, None, &mut 0).unwrap();
        let mut expected = sorted_elements(20);
        for i in 0..6 {
            let trs = if i % 2 == 0 { 0.0 } else { -0.0 };
            let e = element(trs, (i % 3) as u32, &[i as u8; 4]);
            let pos = seg.insert(e.clone(), 0).unwrap();
            assert_eq!(
                pos,
                model::insert(&mut expected, element(0.0, (i % 3) as u32, &[i as u8; 4]))
            );
        }
        let snapshot = seg.snapshot().unwrap();
        assert_eq!(snapshot, expected);
        assert!(snapshot
            .iter()
            .all(|e| e.trs.to_bits() != (-0.0f64).to_bits()));
        assert!(seg.ordering_ok());
        assert_totals_exact(&seg);
    }

    /// Re-encodes `bytes` with varint field `index` replaced by `value`
    /// (fields are the header varints in wire order; ciphertext payload is
    /// carried over untouched, starting where the block headers end).
    fn tamper_varint(bytes: &[u8], index: usize, value: u64, header_fields: usize) -> Vec<u8> {
        let mut fields = Vec::new();
        let mut pos = 0;
        for _ in 0..header_fields {
            let (v, p) = read_varint(bytes, pos).unwrap();
            fields.push(v);
            pos = p;
        }
        fields[index] = value;
        let mut out = Vec::new();
        for v in fields {
            write_varint(&mut out, v);
        }
        out.extend_from_slice(&bytes[pos..]);
        out
    }

    #[test]
    fn varint_consistent_header_tampering_is_rejected_as_corrupt() {
        // A single-block, single-group segment: header varints are
        // [magic, version, total_elems, num_blocks,
        //  elems, first, last, num_counts, group, count, byte_len].
        let elements: Vec<OrderedElement> = (0..4)
            .map(|i| element(1.0 - i as f64 / 8.0, 1, &[i as u8; 6]))
            .collect();
        let segment = Segment::from_elements(&elements, 8).unwrap();
        let bytes = segment.to_bytes();
        assert!(same_verdict(&bytes).is_ok());
        const FIELDS: usize = 11;
        // total_elems disagreeing with the per-block sum: rejected, not
        // mis-indexed.
        for bogus in [3u64, 5, 0, u64::from(u32::MAX) + 1] {
            let tampered = tamper_varint(&bytes, 2, bogus, FIELDS);
            assert!(
                same_verdict(&tampered).is_err(),
                "total_elems {bogus} must not decode"
            );
        }
        // Block element count drifting from the group counts / payload.
        for bogus in [3u64, 5] {
            assert!(same_verdict(&tamper_varint(&bytes, 4, bogus, FIELDS)).is_err());
        }
        // Group count no longer covering the block.
        assert!(same_verdict(&tamper_varint(&bytes, 9, 3, FIELDS)).is_err());
        // byte_len disagreeing with the actual payload length: the
        // truncated-but-varint-consistent page.
        for delta in [-1i64, 1, 7] {
            let (byte_len, _) = {
                let mut pos = 0;
                let mut value = 0;
                for _ in 0..FIELDS {
                    let (v, p) = read_varint(&bytes, pos).unwrap();
                    value = v;
                    pos = p;
                }
                (value, ())
            };
            let bogus = byte_len.checked_add_signed(delta).unwrap();
            assert!(
                same_verdict(&tamper_varint(&bytes, 10, bogus, FIELDS)).is_err(),
                "byte_len {byte_len}{delta:+} must not decode"
            );
        }
    }

    #[test]
    fn every_block_level_check_still_fires() {
        // Random flips rarely land on a skip entry that stays
        // header-consistent, so each predicate of the block walk gets its
        // own forgery here: serialize a segment whose skip entry (or
        // payload) lies in exactly one way and demand the matching error —
        // from the walk and from the reference alike.
        let elements: Vec<OrderedElement> = (0..8)
            .map(|i| element(0.5f64.powi(i as i32), [0, 2, 2, 5][i % 4], &[i as u8; 5]))
            .collect();
        let honest = Segment::from_elements(&elements, 4).unwrap();
        assert_eq!(same_verdict(&honest.to_bytes()).unwrap(), honest);
        let rejected = |forge: &dyn Fn(&mut Segment), reason: &str| {
            let mut forged = honest.clone();
            forge(&mut forged);
            match same_verdict(&forged.to_bytes()) {
                Err(StoreError::CorruptSegment(why)) => assert_eq!(why, reason),
                other => panic!("expected `{reason}`, got {other:?}"),
            }
        };
        rejected(
            &|s| s.blocks[1].last += 1,
            "block TRS bounds disagree with skip entry",
        );
        // A group the block does not hold, slotted in order: [0, 2, 5] ->
        // [0, 3, 5] with the counts (and their sum) untouched.
        rejected(
            &|s| s.blocks[0].counts[1].0 = GroupId(3),
            "block group counts disagree with skip entry",
        );
        // The right groups with one element moved between two of them.
        rejected(
            &|s| {
                s.blocks[0].counts[0].1 += 1;
                s.blocks[0].counts[1].1 -= 1;
            },
            "block group counts disagree with skip entry",
        );
        rejected(
            &|s| {
                let end = (s.blocks[0].offset + s.blocks[0].byte_len) as usize;
                s.payload.insert(end, 0);
                s.blocks[0].byte_len += 1;
            },
            "trailing bytes after block",
        );
        rejected(&|s| s.blocks[0].first = sortable_bits(f64::NAN), "NaN TRS");
        // Halving the TRS steps its sortable bits by 2^52: more than the
        // distance from -inf, the smallest non-NaN value, down to zero.
        rejected(
            &|s| {
                s.blocks[1].first = sortable_bits(f64::NEG_INFINITY);
                s.blocks[1].last = s.blocks[1].first;
            },
            "TRS delta exceeds previous TRS",
        );
        rejected(
            &|s| {
                s.blocks.swap(0, 1);
                s.payload.rotate_left(s.blocks[1].byte_len as usize);
            },
            "blocks out of TRS order",
        );
        // A block cut short inside its last ciphertext, the lost byte
        // handed to its neighbour so the header still adds up.
        rejected(
            &|s| {
                s.blocks[0].byte_len -= 1;
                s.blocks[1].byte_len += 1;
            },
            "truncated ciphertext",
        );
    }
}

#[cfg(test)]
mod fuzz {
    //! Property-based round-trip and corrupt-input tests, mirroring the
    //! posting-codec fuzz suite: the segment decoder faces untrusted bytes,
    //! so every truncation must error and arbitrary input must never panic.

    use proptest::prelude::*;

    use super::oracle::same_verdict;
    use super::*;

    fn arbitrary_elements(items: Vec<(f64, u32, Vec<u8>)>) -> Vec<OrderedElement> {
        let mut elements: Vec<OrderedElement> = items
            .into_iter()
            .map(|(trs, group, ct)| OrderedElement {
                trs,
                group: GroupId(group % 8),
                sealed: EncryptedElement {
                    group: GroupId(group % 8),
                    ciphertext: ct.into(),
                },
            })
            .collect();
        elements.sort_by(|a, b| b.trs.partial_cmp(&a.trs).expect("finite TRS"));
        elements
    }

    fn element_strategy() -> impl Strategy<Value = (f64, u32, Vec<u8>)> {
        (
            0.0f64..1.0,
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..24),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn roundtrip_is_element_exact(
            items in proptest::collection::vec(element_strategy(), 1..80),
            block_len in 1usize..9
        ) {
            let elements = arbitrary_elements(items);
            let segment =
                Segment::from_elements(&elements, block_len).unwrap();
            prop_assert_eq!(segment.decode_all(), elements.clone());
            let back = same_verdict(&segment.to_bytes()).unwrap();
            prop_assert_eq!(back.decode_all(), elements);
        }

        #[test]
        fn group_uniform_segments_roundtrip_element_exact(
            items in proptest::collection::vec(
                (0.0f64..1.0, proptest::collection::vec(any::<u8>(), 0..24)),
                1..60,
            ),
            group in 0u32..8,
            block_len in 1usize..9
        ) {
            // Every element shares one group: all blocks take the
            // group-uniform mode and must still decode element-exactly,
            // in memory and through the wire format.
            let elements = arbitrary_elements(
                items.into_iter().map(|(trs, ct)| (trs, group, ct)).collect(),
            );
            let segment =
                Segment::from_elements(&elements, block_len).unwrap();
            prop_assert_eq!(segment.decode_all(), elements.clone());
            let back = same_verdict(&segment.to_bytes()).unwrap();
            prop_assert_eq!(back.decode_all(), elements);
        }

        #[test]
        fn every_truncation_is_rejected(
            items in proptest::collection::vec(element_strategy(), 1..40),
            cut in any::<usize>()
        ) {
            let bytes = Segment::from_elements(&arbitrary_elements(items), 4).unwrap().to_bytes();
            let cut = cut % bytes.len();
            prop_assert!(same_verdict(&bytes[..cut]).is_err());
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            if let Ok(segment) = same_verdict(&bytes) {
                // If arbitrary bytes happen to decode, every claimed element
                // was backed by real bytes.
                prop_assert!(segment.num_elements() <= bytes.len());
            }
        }

        #[test]
        fn header_varint_tampering_never_panics_and_total_elems_is_validated(
            items in proptest::collection::vec(element_strategy(), 1..40),
            field in 2usize..4,
            value in any::<u64>()
        ) {
            // Rewrite one of the top-level header varints (total_elems or
            // num_blocks) with an arbitrary value while keeping the rest of
            // the page varint-consistent: the decoder must reject any claim
            // that disagrees with the per-block element counts / payload,
            // and must never panic or over-allocate.
            let bytes = Segment::from_elements(&arbitrary_elements(items), 4)
                .unwrap()
                .to_bytes();
            let mut fields = Vec::new();
            let mut pos = 0;
            for _ in 0..4 {
                let (v, p) = read_varint(&bytes, pos).unwrap();
                fields.push(v);
                pos = p;
            }
            let original = fields[field];
            fields[field] = value;
            let mut tampered = Vec::new();
            for v in fields {
                write_varint(&mut tampered, v);
            }
            tampered.extend_from_slice(&bytes[pos..]);
            let decoded = same_verdict(&tampered);
            if value != original {
                prop_assert!(decoded.is_err(), "field {field} tampered to {value} must not decode");
            } else {
                prop_assert!(decoded.is_ok());
            }
        }

        #[test]
        fn bit_flips_never_panic_the_decoder(
            items in proptest::collection::vec(element_strategy(), 1..40),
            flip in any::<(usize, u8)>()
        ) {
            let mut bytes = Segment::from_elements(&arbitrary_elements(items), 4).unwrap().to_bytes();
            let pos = flip.0 % bytes.len();
            bytes[pos] ^= flip.1 | 1;
            // Either a clean error or a differently-valued segment — the
            // reference's verdict either way; the decoder must not panic or
            // loop.
            let _ = same_verdict(&bytes);
        }

        #[test]
        fn splices_get_the_reference_verdict(
            items in proptest::collection::vec(element_strategy(), 1..40),
            donor in proptest::collection::vec(element_strategy(), 1..40),
            cut in any::<(usize, usize, usize)>()
        ) {
            // Overwrite a run of one page with a run of another: headers
            // and blocks that are each well-formed but belong to different
            // segments, the shape a misdirected write leaves behind.
            let mut bytes = Segment::from_elements(&arbitrary_elements(items), 4).unwrap().to_bytes();
            let donor = Segment::from_elements(&arbitrary_elements(donor), 3).unwrap().to_bytes();
            let len = 1 + cut.2 % bytes.len().min(donor.len());
            let at = cut.0 % (bytes.len() - len + 1);
            let from = cut.1 % (donor.len() - len + 1);
            bytes[at..at + len].copy_from_slice(&donor[from..from + len]);
            let _ = same_verdict(&bytes);
        }
    }
}
