//! Error type of the storage engine.

use std::fmt;

/// Errors produced by a [`crate::ListStore`] implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The addressed merged posting list does not exist.
    UnknownList(u64),
    /// The cursor does not exist, was closed, or belongs to another session.
    UnknownCursor(u64),
    /// A serialized segment failed validation (truncated, bit-flipped or
    /// otherwise inconsistent bytes).
    CorruptSegment(String),
    /// An encoded payload would exceed the u32 offset space of the segment
    /// wire format (~4 GiB): as no element outgrows `MAX_CIPHERTEXT_BYTES`,
    /// only a `max_segment_elems` in the tens of thousands reaches it.
    SegmentOverflow,
    /// An element broke the element contract ([`crate::ListStore::insert`])
    /// and was refused before anything changed.
    InvalidElement(&'static str),
    /// An operation against the on-disk spill state failed at the I/O layer.
    Io(String),
    /// A recovered durable store failed its post-recovery audit (budget
    /// accounting, ordering, or visibility invariants) and was refused.
    RecoveryFailed(String),
    /// An internal invariant did not hold.  Never expected in correct
    /// operation; surfaced as an error instead of a panic so a serving
    /// process degrades (fails the one request) instead of dying.
    Invariant(&'static str),
    /// A replica refused to serve a read because its replication lag
    /// exceeds the configured staleness bound.  The client should retry on
    /// the primary (or another replica) rather than accept stale data.
    Degraded { lag: u64, max_lag: u64 },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownList(id) => write!(f, "unknown merged posting list {id}"),
            StoreError::UnknownCursor(id) => write!(f, "unknown cursor {id}"),
            StoreError::CorruptSegment(reason) => write!(f, "corrupt segment: {reason}"),
            StoreError::SegmentOverflow => {
                write!(f, "segment payload exceeds the u32 offset bound")
            }
            StoreError::InvalidElement(why) => write!(f, "invalid element: {why}"),
            StoreError::Io(reason) => write!(f, "spill storage I/O failure: {reason}"),
            StoreError::RecoveryFailed(reason) => {
                write!(f, "recovered store failed its audit: {reason}")
            }
            StoreError::Invariant(what) => write!(f, "internal invariant violated: {what}"),
            StoreError::Degraded { lag, max_lag } => write!(
                f,
                "replica degraded: replication lag {lag} exceeds the staleness bound {max_lag}; \
                 retry on the primary"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_id() {
        assert!(StoreError::UnknownList(7).to_string().contains('7'));
        assert!(StoreError::UnknownCursor(9).to_string().contains('9'));
        assert!(StoreError::RecoveryFailed("budget drift".into())
            .to_string()
            .contains("budget drift"));
    }
}
