//! Named integer conversions for the codec and metering paths.
//!
//! The codec files (`segment.rs`, `spill.rs`, `durable.rs`, `replication.rs`)
//! deny clippy's lossy-cast lints: a silent truncation there corrupts
//! on-disk state or wire frames.  Their conversions go through these
//! helpers instead, each either *provably widening* on the targets we build
//! for (saying so in one place) or *checked* and surfaced as a typed
//! [`StoreError`].

use crate::error::StoreError;

// The widening helpers below assume usize is between 32 and 64 bits; the
// suite does not build for 16-bit or 128-bit targets.
const _: () = assert!(
    std::mem::size_of::<usize>() >= 4 && std::mem::size_of::<usize>() <= 8,
    "widening conversions assume 32- or 64-bit usize"
);

/// Widens a length or count to the `u64` wire/metering domain.  Infallible:
/// `usize` is at most 64 bits on every supported target.
#[inline]
pub fn u64_of(x: usize) -> u64 {
    x as u64
}

/// Widens a decoded `u32` field to an in-memory index.  Infallible: `usize`
/// is at least 32 bits on every supported target.
#[inline]
pub fn usize_of(x: u32) -> usize {
    x as usize
}

/// Checked `u64` -> `usize` for decoded offsets and lengths; an on-disk
/// value that cannot index memory on this target is corrupt input, not a
/// panic.
#[inline]
pub fn try_usize(x: u64) -> Result<usize, StoreError> {
    usize::try_from(x)
        .map_err(|_| StoreError::CorruptSegment(format!("decoded size {x} exceeds usize")))
}

/// Checked `usize` -> `u32` for encoded counts and offsets; payloads are
/// split long before the u32 offset space runs out, so an overflow here is
/// an encoding bug surfaced as [`StoreError::SegmentOverflow`].
#[inline]
pub fn try_u32(x: usize) -> Result<u32, StoreError> {
    u32::try_from(x).map_err(|_| StoreError::SegmentOverflow)
}

/// Borrows exactly `N` bytes at `pos`, or reports corrupt input.  The
/// codec decoders read every fixed-width field through these helpers so a
/// truncated or overflowing record surfaces as [`StoreError::CorruptSegment`]
/// instead of a slicing panic.
#[inline]
fn take<const N: usize>(buf: &[u8], pos: usize) -> Result<[u8; N], StoreError> {
    pos.checked_add(N)
        .and_then(|end| buf.get(pos..end))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| StoreError::CorruptSegment(format!("record truncated at byte {pos}")))
}

/// Reads a little-endian `u16` at `pos`.
#[inline]
pub fn read_u16(buf: &[u8], pos: usize) -> Result<u16, StoreError> {
    Ok(u16::from_le_bytes(take(buf, pos)?))
}

/// Reads a little-endian `u32` at `pos`.
#[inline]
pub fn read_u32(buf: &[u8], pos: usize) -> Result<u32, StoreError> {
    Ok(u32::from_le_bytes(take(buf, pos)?))
}

/// Reads a little-endian `u64` at `pos`.
#[inline]
pub fn read_u64(buf: &[u8], pos: usize) -> Result<u64, StoreError> {
    Ok(u64::from_le_bytes(take(buf, pos)?))
}

/// Reads a little-endian `f64` at `pos`.
#[inline]
pub fn read_f64(buf: &[u8], pos: usize) -> Result<f64, StoreError> {
    Ok(f64::from_le_bytes(take(buf, pos)?))
}

/// Borrows `len` bytes at `pos`, or reports corrupt input.
#[inline]
pub fn read_bytes(buf: &[u8], pos: usize, len: usize) -> Result<&[u8], StoreError> {
    pos.checked_add(len)
        .and_then(|end| buf.get(pos..end))
        .ok_or_else(|| {
            StoreError::CorruptSegment(format!("record truncated at byte {pos} (want {len})"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widenings_round_trip() {
        assert_eq!(u64_of(usize::MAX) as u128, usize::MAX as u128);
        assert_eq!(usize_of(u32::MAX) as u128, u32::MAX as u128);
    }

    #[test]
    fn readers_are_bounds_checked() {
        let buf = [1u8, 0, 0, 0, 0, 0, 0, 0, 9];
        assert_eq!(read_u64(&buf, 0), Ok(1));
        assert_eq!(read_u16(&buf, 7), Ok(9 << 8));
        assert!(read_u64(&buf, 2).is_err(), "truncated read is typed");
        assert!(read_u32(&buf, usize::MAX - 1).is_err(), "overflow is typed");
        assert_eq!(read_bytes(&buf, 8, 1), Ok(&buf[8..9]));
        assert!(read_bytes(&buf, 8, 2).is_err());
    }

    #[test]
    fn narrowings_are_checked() {
        assert_eq!(try_usize(7), Ok(7));
        assert_eq!(try_u32(7), Ok(7));
        if let Ok(big) = usize::try_from(u64::from(u32::MAX) + 1) {
            assert_eq!(try_u32(big), Err(StoreError::SegmentOverflow));
        }
        assert!(matches!(
            try_usize(u64::MAX),
            Err(StoreError::CorruptSegment(_)) | Ok(_)
        ));
    }
}
