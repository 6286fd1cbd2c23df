//! Durability primitives of the paging store: the page/file IO abstraction,
//! CRC32 framing, the per-shard
//! write-ahead log codec, the checkpoint manifest codec and the store
//! metadata codec.
//!
//! The layering mirrors classical recovery managers:
//!
//! * **Checkpoint manifest** — a checksummed file per shard enumerating
//!   the sealed pages of every list (plus the WAL sequence number the
//!   checkpoint covers), kept in two slot files: a commit overwrites the
//!   older slot in place and fsyncs it before the WAL it covers is
//!   truncated, and recovery takes the newest valid slot by content.
//!   The page files it references are immutable checkpoint state, not
//!   cache.
//! * **Write-ahead log** — length-delimited, CRC-framed insert records
//!   (reusing the element wire encoding: 8-byte TRS, 4-byte group, 2-byte
//!   ciphertext length, ciphertext).  Appends happen under the same shard
//!   write lock as the insert they record, so file order equals apply
//!   order; [`SyncPolicy`] governs how often the log is fsynced.
//! * **Recovery** — [`crate::SpillStore::open`] loads the manifest pages
//!   through the fully-validating `Segment::from_bytes` and replays the WAL
//!   tail through the ordinary insert path.  A torn or corrupt tail
//!   truncates at the last valid record and the store keeps serving; it
//!   never panics and never applies a record out of order.
//!
//! Everything talks to the disk through [`PageIo`]/[`FileIo`], so the
//! recovery suite's fault-injection shim (`tests/common/fault_io.rs`) can
//! kill writes after a byte budget, flip a byte, or drop fsyncs —
//! deterministically — and crash the store at every step of every
//! protocol.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fs::OpenOptions;
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use zerber_base::EncryptedElement;
use zerber_corpus::GroupId;
use zerber_r::OrderedElement;

use crate::convert::{
    read_bytes, read_f64, read_u16, read_u32, read_u64, try_u32, u64_of, usize_of,
};
use crate::error::StoreError;
use crate::lockrank::check_io;

pub(crate) fn io_err(e: io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), slicing-by-8, four streams at a time over long inputs.
// Hand-rolled so the store crate stays free of new dependencies; pages, WAL
// frames, both manifest codecs and the replication files use it.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes, so eight lookups — one per table — advance the register over
/// eight input bytes at once.  Table 0 is the classic bytewise table.
#[expect(clippy::indexing_slicing, reason = "the loop conditions bound indices")]
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    // The byte value as a u32, counted beside the index (no cast in const
    // context).
    let mut c = 0u32;
    while i < 256 {
        let mut reg = c;
        let mut k = 0;
        while k < 8 {
            let mut bit = 0;
            while bit < 8 {
                reg = if reg & 1 != 0 {
                    0xEDB8_8320 ^ (reg >> 1)
                } else {
                    reg >> 1
                };
                bit += 1;
            }
            tables[k][i] = reg;
            k += 1;
        }
        i += 1;
        c += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Inputs at least this long run as four streams: below ~0.7–1 KiB (measured
/// on a 2-thread Xeon) the join costs more than the streams save.
const STRIPED_MIN_LEN: usize = 1024;

/// CRC32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc_advance(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The register after `bytes`, from register `c`.  A long input is cut into
/// four equal stripes of whole words advanced side by side, four independent
/// dependency chains (the first from `c`, the others from zero), joined by
/// linearity: the register over `A‖B` is the one over `A` times `x^(8|B|)`
/// plus the zero-start one over `B`.  The tail (< 32 B) runs as one stream.
#[expect(clippy::indexing_slicing, reason = "stripes in bounds, u8 in [_; 256]")]
fn crc_advance(mut c: u32, mut bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    if bytes.len() >= STRIPED_MIN_LEN {
        let n = bytes.len() / 32 * 8;
        let (body, tail) = bytes.split_at(4 * n);
        let stripe = |k: usize| body[k * n..][..n].as_chunks::<8>().0.iter();
        let mut r = [c, 0, 0, 0];
        for (((&w0, &w1), &w2), &w3) in stripe(0).zip(stripe(1)).zip(stripe(2)).zip(stripe(3)) {
            r[0] = crc_word(r[0], w0);
            r[1] = crc_word(r[1], w1);
            r[2] = crc_word(r[2], w2);
            r[3] = crc_word(r[3], w3);
        }
        let shift = crc_shift(n);
        c = r[1..].iter().fold(r[0], |j, &x| gf2_mul(j, shift) ^ x);
        bytes = tail;
    }
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let r = c.to_le_bytes();
        c = t[7][usize::from(chunk[0] ^ r[0])]
            ^ t[6][usize::from(chunk[1] ^ r[1])]
            ^ t[5][usize::from(chunk[2] ^ r[2])]
            ^ t[4][usize::from(chunk[3] ^ r[3])]
            ^ t[3][usize::from(chunk[4])]
            ^ t[2][usize::from(chunk[5])]
            ^ t[1][usize::from(chunk[6])]
            ^ t[0][usize::from(chunk[7])];
    }
    for &b in chunks.remainder() {
        c = t[0][usize::from(b ^ c.to_le_bytes()[0])] ^ (c >> 8);
    }
    c
}

/// One slicing-by-8 step on a whole word, the form four streams run fastest
/// in (one stream is faster on bytes: half of them skip the register).
#[expect(clippy::indexing_slicing, reason = "u8 into [_; 256]")]
fn crc_word(c: u32, word: [u8; 8]) -> u32 {
    let t = &CRC_TABLES;
    let x = (u64::from_le_bytes(word) ^ u64::from(c)).to_le_bytes();
    t[7][usize::from(x[0])]
        ^ t[6][usize::from(x[1])]
        ^ t[5][usize::from(x[2])]
        ^ t[4][usize::from(x[3])]
        ^ t[3][usize::from(x[4])]
        ^ t[2][usize::from(x[5])]
        ^ t[1][usize::from(x[6])]
        ^ t[0][usize::from(x[7])]
}

/// `x^(8n)` mod P by square-and-multiply: the factor that advances a register
/// over `n` zero bytes (bit-reflected: `x^0` is the top bit, `x^8` 8 below).
fn crc_shift(mut n: usize) -> u32 {
    let (mut power, mut square) = (1u32 << 31, 1u32 << 23);
    while n != 0 {
        if n & 1 != 0 {
            power = gf2_mul(power, square);
        }
        square = gf2_mul(square, square);
        n >>= 1;
    }
    power
}

/// `a·b` mod P: the carry-less product, shifted so bit 63 is `x^0`, is
/// `l·x^32 + h` (halves `l`, `h`), and `l·x^32` is `l` after 4 zero bytes.
fn gf2_mul(a: u32, b: u32) -> u32 {
    let b = u64::from(b) << 1;
    let product = (0..32).fold(0, |p, i| {
        p ^ ((b << i) & u64::from((a >> i) & 1).wrapping_neg())
    });
    let [l0, l1, l2, l3, h0, h1, h2, h3] = product.to_le_bytes();
    u32::from_le_bytes([h0, h1, h2, h3]) ^ crc_word(0, [0, 0, 0, 0, l0, l1, l2, l3])
}

// ---------------------------------------------------------------------------
// Durability tuning.
// ---------------------------------------------------------------------------

/// How often WAL appends are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append: an acknowledged insert is on disk.
    Always,
    /// Fsync every N appends: a crash loses at most N-1 acknowledged
    /// inserts (still a prefix of the history).
    EveryN(u32),
    /// Never fsync on the append path; the log reaches disk at the next
    /// checkpoint (which always syncs) or when the OS flushes.
    Never,
}

/// Tuning knobs of the durable mode.
///
/// Checkpoints (page-file fsync + manifest commit + WAL reset) always sync,
/// regardless of [`DurableConfig::sync`] — the policy governs only the
/// per-append WAL path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Fsync policy of the write-ahead log.
    pub sync: SyncPolicy,
    /// WAL bytes per shard above which the post-serving maintenance hook
    /// checkpoints the shard.  `0` disables automatic checkpoints (explicit
    /// [`crate::SpillStore::checkpoint`] calls still work).
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            sync: SyncPolicy::EveryN(32),
            checkpoint_wal_bytes: 1 << 20,
        }
    }
}

// ---------------------------------------------------------------------------
// The IO abstraction: a page file handle and the directory-level operations
// the pager, WAL and manifest writer need.  The real implementation is std
// fs; the test suites' fault shim wraps it.
// ---------------------------------------------------------------------------

/// One open file of the durable layer (page file, WAL or manifest).
#[expect(clippy::len_without_is_empty, reason = "file length is a byte offset")]
pub trait FileIo: Send + std::fmt::Debug {
    /// Reads exactly `buf.len()` bytes at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Writes all of `buf` at `offset`.
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;
    /// Flushes the file to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Current length of the file in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// Truncates (or extends with zeroes) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// Directory-level IO: opening, renaming and removing the files of a spill
/// root.  `Arc<dyn PageIo>` is threaded through the pager, the WAL and the
/// manifest writer, so a test can substitute a fault-injecting IO for all of
/// them at once.
pub trait PageIo: Send + Sync + std::fmt::Debug {
    /// Opens (creating if missing) `path` for reading and writing,
    /// truncating it first when `truncate` is set.
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn FileIo>>;
    /// Atomically renames `from` over `to`; durable once its directory is
    /// synced ([`PageIo::sync_dir`]).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the entries of directory `dir` (its renames) to stable storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes `path` (must exist).
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The production IO: plain `std::fs`.
#[derive(Debug, Default)]
pub struct RealIo;

impl RealIo {
    /// A shared handle to the production IO.
    pub fn shared() -> Arc<dyn PageIo> {
        Arc::new(RealIo)
    }
}

#[derive(Debug)]
struct RealFile(std::fs::File);

impl FileIo for RealFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.read_exact(buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        check_io("sync");
        self.0.sync_data()
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        check_io("set_len");
        self.0.set_len(len)
    }
}

impl PageIo for RealIo {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn FileIo>> {
        check_io("open");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        check_io("rename");
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        check_io("sync");
        std::fs::File::open(dir)?.sync_all()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        check_io("remove");
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// Element contract and codec: the wire layout queries ship (8-byte TRS,
// 4-byte group, 2-byte ciphertext length, ciphertext), reused for WAL
// records and the manifest's tail section.
// ---------------------------------------------------------------------------

/// Bytes of the element header (TRS + group + ciphertext length).
pub const ELEMENT_HEADER_BYTES: usize = 14;

/// Longest ciphertext an element may carry: what its 2-byte length states.
pub const MAX_CIPHERTEXT_BYTES: usize = u16::MAX as usize;

/// The element contract, checked where an element enters the store (a
/// build, an insert, WAL replay, replica apply) before anything changes: a
/// finite TRS, at most [`MAX_CIPHERTEXT_BYTES`] of ciphertext and one group
/// (the log, the manifest tail and the wire carry one), else
/// [`StoreError::InvalidElement`].  A `-0.0` TRS is stored as `+0.0`, so the
/// `>` order inserts place by agrees with the bit order segments encode.
pub(crate) fn check_element(element: &mut OrderedElement) -> Result<(), StoreError> {
    let broken = if !element.trs.is_finite() {
        "non-finite TRS"
    } else if element.sealed.ciphertext.len() > MAX_CIPHERTEXT_BYTES {
        "ciphertext longer than MAX_CIPHERTEXT_BYTES"
    } else if element.sealed.group != element.group {
        "sealed group differs from the routing group"
    } else {
        if element.trs == 0.0 {
            element.trs = 0.0;
        }
        return Ok(());
    };
    Err(StoreError::InvalidElement(broken))
}

pub(crate) fn encode_element(e: &OrderedElement, out: &mut Vec<u8>) -> Result<(), StoreError> {
    let len = u16::try_from(e.sealed.ciphertext.len())
        .map_err(|_| StoreError::Io("element ciphertext exceeds the u16 wire bound".to_string()))?;
    out.extend_from_slice(&e.trs.to_le_bytes());
    out.extend_from_slice(&e.group.0.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&e.sealed.ciphertext);
    Ok(())
}

pub(crate) fn decode_element(buf: &[u8], pos: &mut usize) -> Result<OrderedElement, StoreError> {
    let trs = read_f64(buf, *pos)?;
    let group = GroupId(read_u32(buf, *pos + 8)?);
    let len = usize::from(read_u16(buf, *pos + 12)?);
    *pos += ELEMENT_HEADER_BYTES;
    let ciphertext = read_bytes(buf, *pos, len)?.into();
    *pos += len;
    if !trs.is_finite() {
        return Err(StoreError::CorruptSegment(
            "non-finite TRS in element record".to_string(),
        ));
    }
    Ok(OrderedElement {
        trs,
        group,
        sealed: EncryptedElement { group, ciphertext },
    })
}

// ---------------------------------------------------------------------------
// WAL framing: `[len: u32][crc32(payload): u32][payload]`, where `len`
// counts the payload and the payload is `[seq: u64][list: u64][element]`.
// ---------------------------------------------------------------------------

/// Bytes of the frame header (length + CRC).
pub(crate) const WAL_FRAME_HEADER: usize = 8;
/// Smallest possible payload: sequence + list id + element header.
const WAL_MIN_PAYLOAD: usize = 16 + ELEMENT_HEADER_BYTES;
/// Largest possible payload: `encode_element` writes no longer ciphertext,
/// so a longer length field is corruption, not data.
const WAL_MAX_PAYLOAD: usize = WAL_MIN_PAYLOAD + MAX_CIPHERTEXT_BYTES;

/// One decoded WAL record: the `seq`-th insert of its shard, and where its
/// frame sits in the scanned image.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalRecord {
    pub seq: u64,
    pub list: u64,
    pub element: OrderedElement,
    /// The frame's byte range, header included: the record as it was
    /// logged, the bytes replication ships.
    pub frame: Range<usize>,
}

/// Encodes one insert as a CRC-framed WAL record.
pub(crate) fn encode_wal_frame(
    seq: u64,
    list: u64,
    element: &OrderedElement,
) -> Result<Vec<u8>, StoreError> {
    let mut payload = Vec::with_capacity(WAL_MIN_PAYLOAD + element.sealed.ciphertext.len());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&list.to_le_bytes());
    encode_element(element, &mut payload)?;
    let mut frame = Vec::with_capacity(WAL_FRAME_HEADER + payload.len());
    frame.extend_from_slice(&try_u32(payload.len())?.to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Result of scanning a WAL image: the records whose frames fully fit and
/// validate, the byte length of that valid prefix, and whether anything
/// (a torn tail, a CRC mismatch, garbage) followed it.
#[derive(Debug)]
pub(crate) struct WalScan {
    pub records: Vec<WalRecord>,
    pub valid_len: u64,
    pub torn: bool,
}

/// Scans a WAL image front to back, stopping at the first frame that does
/// not fully fit or fails its CRC.  Everything after the first invalid frame
/// is untrusted (records must apply in order, so nothing beyond a gap can be
/// used) and reported as torn.
pub(crate) fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos + WAL_FRAME_HEADER > bytes.len() {
            return WalScan {
                records,
                valid_len: u64_of(pos),
                torn: pos < bytes.len(),
            };
        }
        let torn = |records| WalScan {
            records,
            valid_len: u64_of(pos),
            torn: true,
        };
        let (Ok(len), Ok(crc)) = (read_u32(bytes, pos), read_u32(bytes, pos + 4)) else {
            return torn(records);
        };
        let len = usize_of(len);
        if !(WAL_MIN_PAYLOAD..=WAL_MAX_PAYLOAD).contains(&len) {
            return torn(records);
        }
        let Ok(payload) = read_bytes(bytes, pos + WAL_FRAME_HEADER, len) else {
            return torn(records);
        };
        if crc32(payload) != crc {
            return torn(records);
        }
        let (Ok(seq), Ok(list)) = (read_u64(payload, 0), read_u64(payload, 8)) else {
            return torn(records);
        };
        let mut at = 16usize;
        let element = match decode_element(payload, &mut at) {
            Ok(e) if at == payload.len() => e,
            _ => return torn(records),
        };
        let end = pos + WAL_FRAME_HEADER + len;
        records.push(WalRecord {
            seq,
            list,
            element,
            frame: pos..end,
        });
        pos = end;
    }
}

// ---------------------------------------------------------------------------
// Checkpoint manifest codec.  One manifest per shard slot; committed by an
// in-place overwrite + fsync, validated end to end by a trailing CRC32.
// ---------------------------------------------------------------------------

const MANIFEST_MAGIC: u64 = 0x4e41_4d5a; // "ZMAN"
const MANIFEST_VERSION: u64 = 1;

/// Checkpoint state of one list: the sealed pages (in stack order) and a
/// tail of inline elements.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ManifestList {
    /// `(offset, len, crc32)` of each sealed page in the shard's page
    /// file.  The CRC covers the page's encoded bytes, so recovery detects
    /// payload corruption that segment structure validation alone cannot
    /// (a flipped ciphertext byte decodes fine).
    pub pages: Vec<(u64, u32, u32)>,
    /// Elements (descending TRS, below every page's) stored inline.  Lists
    /// once kept a mutable tail that checkpoints wrote here; new manifests
    /// write it empty, and recovery seals a non-empty one into segments
    /// behind the last page.
    pub tail: Vec<OrderedElement>,
}

/// Checkpoint state of one shard.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Manifest {
    /// Generation of the page file the page offsets refer to
    /// (`shard-NNN.g<generation>.pages`).
    pub generation: u64,
    /// Every WAL record with `seq <= applied_seq` is already folded into the
    /// pages/tails above; replay skips them.
    pub applied_seq: u64,
    /// Per-list checkpoint state, in shard slot order.
    pub lists: Vec<ManifestList>,
}

pub(crate) fn encode_manifest(m: &Manifest) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&m.generation.to_le_bytes());
    out.extend_from_slice(&m.applied_seq.to_le_bytes());
    out.extend_from_slice(&u64_of(m.lists.len()).to_le_bytes());
    for list in &m.lists {
        out.extend_from_slice(&u64_of(list.pages.len()).to_le_bytes());
        for &(offset, len, crc) in &list.pages {
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&crc.to_le_bytes());
        }
        out.extend_from_slice(&u64_of(list.tail.len()).to_le_bytes());
        for element in &list.tail {
            encode_element(element, &mut out)?;
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt(what: &str) -> StoreError {
        StoreError::CorruptSegment(format!("truncated {what}"))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let v = read_u64(self.buf, self.pos).map_err(|_| Self::corrupt(what))?;
        self.pos += 8;
        Ok(v)
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let v = read_u32(self.buf, self.pos).map_err(|_| Self::corrupt(what))?;
        self.pos += 4;
        Ok(v)
    }

    /// Bounds a length field before it sizes an allocation: a corrupt count
    /// cannot ask for more items than the remaining bytes could encode.
    fn counted(&self, count: u64, min_item: usize, what: &str) -> Result<usize, StoreError> {
        let count = usize::try_from(count).map_err(|_| Self::corrupt(what))?;
        let remaining = self.buf.len() - self.pos;
        if count.saturating_mul(min_item.max(1)) > remaining {
            return Err(StoreError::CorruptSegment(format!(
                "implausible {what} count {count}"
            )));
        }
        Ok(count)
    }
}

/// Validates the trailing CRC and splits it off, returning the covered body.
fn checked_body<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8], StoreError> {
    if bytes.len() < 4 {
        return Err(StoreError::CorruptSegment(format!("truncated {what}")));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let want = read_u32(crc_bytes, 0)?;
    if crc32(body) != want {
        return Err(StoreError::CorruptSegment(format!("{what} CRC mismatch")));
    }
    Ok(body)
}

pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let body = checked_body(bytes, "manifest")?;
    let mut r = Reader { buf: body, pos: 0 };
    if r.u64("manifest magic")? != MANIFEST_MAGIC {
        return Err(StoreError::CorruptSegment("bad manifest magic".to_string()));
    }
    let version = r.u64("manifest version")?;
    if version != MANIFEST_VERSION {
        return Err(StoreError::CorruptSegment(format!(
            "unsupported manifest version {version}"
        )));
    }
    let generation = r.u64("manifest generation")?;
    let applied_seq = r.u64("manifest applied seq")?;
    let num_lists = r.u64("manifest list count")?;
    let num_lists = r.counted(num_lists, 16, "manifest list")?;
    let mut lists = Vec::with_capacity(num_lists);
    for _ in 0..num_lists {
        let num_pages = r.u64("manifest page count")?;
        let num_pages = r.counted(num_pages, 16, "manifest page")?;
        let mut pages = Vec::with_capacity(num_pages);
        for _ in 0..num_pages {
            let offset = r.u64("manifest page offset")?;
            let len = r.u32("manifest page length")?;
            let crc = r.u32("manifest page checksum")?;
            pages.push((offset, len, crc));
        }
        let num_tail = r.u64("manifest tail count")?;
        let num_tail = r.counted(num_tail, ELEMENT_HEADER_BYTES, "manifest tail element")?;
        let mut tail = Vec::with_capacity(num_tail);
        for _ in 0..num_tail {
            tail.push(decode_element(body, &mut r.pos)?);
        }
        lists.push(ManifestList { pages, tail });
    }
    if r.pos != body.len() {
        return Err(StoreError::CorruptSegment(
            "trailing bytes after manifest".to_string(),
        ));
    }
    Ok(Manifest {
        generation,
        applied_seq,
        lists,
    })
}

// ---------------------------------------------------------------------------
// Store metadata codec (`store.meta`): everything `SpillStore::open` needs
// to rebuild the store that `create_durable` wrote — shard count, segment
// layout and the merge plan.  Written once at create time, never mutated.
// ---------------------------------------------------------------------------

const META_MAGIC: u64 = 0x4554_4d5a; // "ZMTE"
const META_VERSION: u64 = 1;

/// The immutable identity of a durable store.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreMeta {
    pub num_shards: u64,
    /// Segment layout knobs, persisted so reopened lists split exactly like
    /// the original store (replay determinism).
    pub segment: crate::segment::SegmentConfig,
    /// Knob slots two, four and five, which once held a tail threshold, a
    /// stack-depth and a payload bound: new stores write their old
    /// defaults, 128, 8 and `u32::MAX`, so the file reads the same to an
    /// older version; `open` never reads them.
    pub retired_knobs: [u64; 3],
    /// Merge-plan scheme name.
    pub scheme: String,
    /// Merge-plan confidentiality parameter.
    pub r: f64,
    /// Terms of each merged list, in list order.
    pub term_lists: Vec<Vec<u32>>,
}

pub(crate) fn encode_store_meta(meta: &StoreMeta) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&META_MAGIC.to_le_bytes());
    out.extend_from_slice(&META_VERSION.to_le_bytes());
    out.extend_from_slice(&meta.num_shards.to_le_bytes());
    for knob in [
        u64_of(meta.segment.block_len),
        meta.retired_knobs[0],
        u64_of(meta.segment.max_segment_elems),
        meta.retired_knobs[1],
        meta.retired_knobs[2],
    ] {
        out.extend_from_slice(&knob.to_le_bytes());
    }
    out.extend_from_slice(&meta.r.to_le_bytes());
    out.extend_from_slice(&u64_of(meta.scheme.len()).to_le_bytes());
    out.extend_from_slice(meta.scheme.as_bytes());
    out.extend_from_slice(&u64_of(meta.term_lists.len()).to_le_bytes());
    for terms in &meta.term_lists {
        out.extend_from_slice(&u64_of(terms.len()).to_le_bytes());
        for &t in terms {
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

pub(crate) fn decode_store_meta(bytes: &[u8]) -> Result<StoreMeta, StoreError> {
    let body = checked_body(bytes, "store metadata")?;
    let mut r = Reader { buf: body, pos: 0 };
    if r.u64("store metadata magic")? != META_MAGIC {
        return Err(StoreError::CorruptSegment(
            "bad store metadata magic".to_string(),
        ));
    }
    let version = r.u64("store metadata version")?;
    if version != META_VERSION {
        return Err(StoreError::CorruptSegment(format!(
            "unsupported store metadata version {version}"
        )));
    }
    let num_shards = r.u64("shard count")?;
    let mut knobs = [0u64; 5];
    for knob in &mut knobs {
        *knob = r.u64("segment knob")?;
    }
    let segment = crate::segment::SegmentConfig {
        block_len: usize::try_from(knobs[0]).map_err(|_| Reader::corrupt("segment knob"))?,
        max_segment_elems: usize::try_from(knobs[2])
            .map_err(|_| Reader::corrupt("segment knob"))?,
    };
    let r_param = f64::from_bits(r.u64("confidentiality parameter")?);
    let scheme_len = r.u64("scheme length")?;
    let scheme_len = r.counted(scheme_len, 1, "scheme byte")?;
    let scheme_bytes =
        read_bytes(body, r.pos, scheme_len).map_err(|_| Reader::corrupt("scheme name"))?;
    let scheme = String::from_utf8(scheme_bytes.to_vec())
        .map_err(|_| StoreError::CorruptSegment("scheme name is not UTF-8".to_string()))?;
    r.pos += scheme_len;
    let num_lists = r.u64("list count")?;
    let num_lists = r.counted(num_lists, 8, "term list")?;
    let mut term_lists = Vec::with_capacity(num_lists);
    for _ in 0..num_lists {
        let num_terms = r.u64("term count")?;
        let num_terms = r.counted(num_terms, 4, "term")?;
        let mut terms = Vec::with_capacity(num_terms);
        for _ in 0..num_terms {
            terms.push(r.u32("term id")?);
        }
        term_lists.push(terms);
    }
    if r.pos != body.len() {
        return Err(StoreError::CorruptSegment(
            "trailing bytes after store metadata".to_string(),
        ));
    }
    Ok(StoreMeta {
        num_shards,
        segment,
        retired_knobs: [knobs[1], knobs[3], knobs[4]],
        scheme,
        r: r_param,
        term_lists,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentConfig;

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

    /// The bytewise CRC32 the store shipped before slicing-by-8, table
    /// builder included: the oracle the serving kernel is held against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const fn crc_table() -> [u32; 256] {
            let mut table = [0u32; 256];
            let mut i = 0usize;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    k += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        }
        static CRC_TABLE: [u32; 256] = crc_table();
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic filler bytes (64-bit LCG, high byte of each state).
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        // Every length across several 8-byte strides, at every alignment of
        // the start within a stride: every split between the sliced body
        // and the bytewise remainder, from every address parity.
        let buf = seeded_bytes(42, 308);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Around the striping threshold, from every start offset: the last
        // single-stream lengths, the first striped ones, and every tail
        // length the stripes can leave.
        let buf = seeded_bytes(3, STRIPED_MIN_LEN + 72);
        for start in 0..=8 {
            for len in STRIPED_MIN_LEN - 64..=STRIPED_MIN_LEN + 64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        // Every tail length (len mod 32) at a page's size, from every start
        // offset, and at 1 MiB.
        let big = seeded_bytes(7, (1 << 20) + 40);
        for (base, starts) in [(45_000 - 45_000 % 32, 0..8), (1 << 20, 0..2)] {
            for len in base..base + 32 {
                for start in starts.clone() {
                    let slice = &big[start..start + len];
                    assert_eq!(
                        crc32(slice),
                        crc32_bytewise(slice),
                        "start {start} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn registers_join_across_any_split() {
        // The identity the stripes are joined by: the register over `A‖B`
        // is the register over `A` shifted past `|B|` zero bytes, plus the
        // zero-start register over `B`.
        let buf = seeded_bytes(11, 50_000);
        let mut x = 5u64;
        for _ in 0..64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let len = (x >> 40) as usize % buf.len();
            let split = (x >> 8) as usize % (len + 1);
            let (a, b) = buf[..len].split_at(split);
            let joined =
                gf2_mul(crc_advance(0xFFFF_FFFF, a), crc_shift(b.len())) ^ crc_advance(0, b);
            assert_eq!(
                joined ^ 0xFFFF_FFFF,
                crc32_bytewise(&buf[..len]),
                "len {len} split {split}"
            );
        }
        // Shifting by zero bytes is the identity, and by one byte is one
        // bytewise step over a zero byte.
        assert_eq!(crc_shift(0), 1 << 31);
        assert_eq!(gf2_mul(0x1234_5678, crc_shift(0)), 0x1234_5678);
        assert_eq!(
            gf2_mul(0x1234_5678, crc_shift(1)),
            crc_advance(0x1234_5678, &[0])
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The persistent formats are pinned byte for byte: for one seeded
    /// element set, the page, WAL frame, manifest and `store.meta` bytes —
    /// and the checksums inside and over them — equal what the commit
    /// before the slicing-by-8 CRC and the borrowed validation walk wrote.
    /// A root written by either version opens under the other, and a
    /// replica of either accepts the other's frames.
    #[test]
    fn disk_formats_are_the_bytes_the_previous_version_wrote() {
        let filler = seeded_bytes(19, 64);
        // Seven elements over three blocks: a mixed-group block with mixed
        // ciphertext lengths, a block with a split sealed group, and a
        // group-uniform, length-uniform block.
        let mut elements: Vec<OrderedElement> = [
            (0.96875, 1, 9),
            (0.9375, 4, 7),
            (0.75, 1, 0),
            (0.5, 2, 8),
            (0.4375, 3, 6),
            (0.25, 3, 6),
            (0.125, 2, 8),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(trs, group, len))| element(trs, group, &filler[i * 9..i * 9 + len]))
        .collect();
        elements[3].sealed.group = GroupId(77);
        let segment = crate::segment::Segment::from_elements(&elements[..6], 2).unwrap();
        let page = segment.to_bytes();
        assert_eq!(hex(&page), GOLDEN_PAGE);
        assert_eq!(crc32(&page), GOLDEN_PAGE_CRC);
        assert_eq!(crate::segment::Segment::from_bytes(&page).unwrap(), segment);

        let frame = encode_wal_frame(0x0102_0304_0506, 11, &elements[1]).unwrap();
        assert_eq!(hex(&frame), GOLDEN_WAL_FRAME);
        assert_eq!(scan_wal(&frame).records[0].element, elements[1]);

        let manifest = Manifest {
            generation: 3,
            applied_seq: 41,
            lists: vec![
                ManifestList {
                    pages: vec![(0, page.len() as u32, crc32(&page))],
                    tail: elements[6..].to_vec(),
                },
                ManifestList::default(),
            ],
        };
        let manifest_bytes = encode_manifest(&manifest).unwrap();
        assert_eq!(hex(&manifest_bytes), GOLDEN_MANIFEST);
        assert_eq!(decode_manifest(&manifest_bytes).unwrap(), manifest);

        let meta = StoreMeta {
            num_shards: 2,
            segment: SegmentConfig {
                block_len: 2,
                max_segment_elems: 16,
            },
            retired_knobs: [3, 3, 1 << 20],
            scheme: "bfm".to_string(),
            r: 2.5,
            term_lists: vec![vec![5, 9], vec![2]],
        };
        let meta_bytes = encode_store_meta(&meta);
        assert_eq!(hex(&meta_bytes), GOLDEN_STORE_META);
        assert_eq!(decode_store_meta(&meta_bytes).unwrap(), meta);
    }

    const GOLDEN_PAGE: &str = concat!(
        "daa695ba0402060302808080808080c0f7bf0180808080808080f7bf01020101",
        "04011d0280808080808080f4bf0180808080808080f0bf010201010201170280",
        "808080808080eebf0180808080808080e8bf010103021600000209a2d96c0d35",
        "6a19d543808080808080400807bbc59b034531b0000002008080808080808004",
        "054d0838f7092134372c1e0704b9ac3387d3518080808080808006684da43915",
        "54",
    );
    const GOLDEN_PAGE_CRC: u32 = 0x455D_51E3;
    const GOLDEN_WAL_FRAME: &str = concat!(
        "250000004b2bcd5b06050403020100000b00000000000000000000000000ee3f",
        "040000000700bbc59b034531b0",
    );
    const GOLDEN_MANIFEST: &str = concat!(
        "5a4d414e00000000010000000000000003000000000000002900000000000000",
        "020000000000000001000000000000000000000000000000a1000000e3515d45",
        "0100000000000000000000000000c03f020000000800213f75e732222f480000",
        "0000000000000000000000000000733d2f79",
    );
    const GOLDEN_STORE_META: &str = concat!(
        "5a4d544500000000010000000000000002000000000000000200000000000000",
        "0300000000000000100000000000000003000000000000000000100000000000",
        "0000000000000440030000000000000062666d02000000000000000200000000",
        "0000000500000009000000010000000000000002000000ecbc1475",
    );

    #[test]
    fn wal_frames_round_trip_and_reject_corruption() {
        let e = element(0.75, 3, &[1, 2, 3, 4, 5]);
        let frame = encode_wal_frame(9, 4, &e).unwrap();
        let scan = scan_wal(&frame);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 9);
        assert_eq!(scan.records[0].list, 4);
        assert_eq!(scan.records[0].element, e);
        assert_eq!(scan.valid_len, frame.len() as u64);
        assert!(!scan.torn);

        // Every strict prefix is torn and yields zero records.
        for cut in 1..frame.len() {
            let scan = scan_wal(&frame[..cut]);
            assert!(scan.records.is_empty(), "cut {cut}");
            assert_eq!(scan.valid_len, 0, "cut {cut}");
            assert!(scan.torn, "cut {cut}");
        }

        // A flipped payload byte fails the CRC; a flipped length field fails
        // the bounds check.  Neither panics, neither yields the record.
        for flip in 0..frame.len() {
            let mut bad = frame.clone();
            bad[flip] ^= 0x40;
            let scan = scan_wal(&bad);
            assert!(scan.records.is_empty(), "flip {flip}");
            assert!(scan.torn, "flip {flip}");
        }
    }

    #[test]
    fn wal_scans_stop_at_the_first_invalid_frame() {
        let mut image = Vec::new();
        for seq in 1..=3u64 {
            image.extend_from_slice(
                &encode_wal_frame(seq, 0, &element(0.5, 0, &[seq as u8; 4])).unwrap(),
            );
        }
        let frame_len = image.len() / 3;
        // Corrupt the middle frame: only the first survives (nothing beyond
        // a gap may apply).
        let mut bad = image.clone();
        bad[frame_len + WAL_FRAME_HEADER + 2] ^= 0xFF;
        let scan = scan_wal(&bad);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, frame_len as u64);
        assert!(scan.torn);
    }

    #[test]
    fn manifests_round_trip_and_reject_any_flip() {
        let m = Manifest {
            generation: 7,
            applied_seq: 42,
            lists: vec![
                ManifestList {
                    pages: vec![(0, 128, 0xdead_beef), (128, 64, 0x0bad_f00d)],
                    tail: vec![element(0.5, 1, &[9; 6]), element(0.25, 0, &[])],
                },
                ManifestList::default(),
            ],
        };
        let bytes = encode_manifest(&m).unwrap();
        assert_eq!(decode_manifest(&bytes).unwrap(), m);
        for flip in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x10;
            assert!(decode_manifest(&bad).is_err(), "flip {flip} must fail CRC");
        }
        assert!(decode_manifest(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_manifest(&[]).is_err());
    }

    #[test]
    fn store_meta_round_trips() {
        let meta = StoreMeta {
            num_shards: 4,
            segment: SegmentConfig {
                block_len: 4,
                max_segment_elems: 16,
            },
            retired_knobs: [3, 3, 1 << 20],
            scheme: "test-scheme".to_string(),
            r: 2.5,
            term_lists: vec![vec![1, 2, 3], vec![], vec![7]],
        };
        let bytes = encode_store_meta(&meta);
        assert_eq!(decode_store_meta(&bytes).unwrap(), meta);
        let mut bad = bytes.clone();
        bad[20] ^= 0x01;
        assert!(decode_store_meta(&bad).is_err());
    }
}
