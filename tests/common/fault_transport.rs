//! The deterministic transport fault shim the replication suite streams
//! through: a [`ReplicaTransport`] wrapper that tears, bit-flips,
//! duplicates and reorders frames, drops connections and kills the stream
//! after a frame budget — on a counter schedule, so a fixed plan replays
//! the same faults on every run.
//!
//! Included by path (`#[path = "common/fault_transport.rs"] mod
//! fault_transport;`) into the suite that uses it, so the store library
//! ships none of it.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use zerber_suite::store::convert::u64_of;
use zerber_suite::store::{FrameBatch, ReplicaTransport, SnapshotPayload, TransportError};

/// What the fault shim does to the stream.  All schedules are counter-based
/// (`every`-style, 0 disables) so a fixed plan replays the exact same fault
/// sequence; the only randomness — which byte a flip hits — comes from a
/// seeded xorshift.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Jitter seed for flip positions.
    pub seed: u64,
    /// Every k-th delivered frame is truncated mid-frame (a torn frame).
    pub tear_every: u64,
    /// Every k-th delivered frame has one byte XORed with `0x5A`.
    pub flip_every: u64,
    /// Every k-th delivered frame is delivered twice.
    pub duplicate_every: u64,
    /// Every k-th batch is delivered in reversed frame order.
    pub reorder_every: u64,
    /// Every k-th poll fails with [`TransportError::Disconnected`].
    pub disconnect_every: u64,
    /// Every k-th snapshot fetch is corrupted (one file's bytes flipped).
    pub corrupt_snapshot_every: u64,
    /// After this many frames have been delivered, every call fails (see
    /// [`FaultTransport::killed`]) until [`FaultTransport::revive`].
    pub kill_after: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0x5eed,
            tear_every: 0,
            flip_every: 0,
            duplicate_every: 0,
            reorder_every: 0,
            disconnect_every: 0,
            corrupt_snapshot_every: 0,
            kill_after: None,
        }
    }
}

#[derive(Debug)]
struct FaultState {
    frames_delivered: u64,
    polls: u64,
    snapshots: u64,
    rng: u64,
    kill_after: Option<u64>,
    killed: bool,
}

/// The deterministic transport fault shim: wraps any [`ReplicaTransport`]
/// and injects torn/bit-flipped frames, duplicates, reordering, disconnects
/// and kill-after-N according to a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultTransport {
    inner: Arc<dyn ReplicaTransport>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultTransport {
    pub fn new(inner: Arc<dyn ReplicaTransport>, plan: FaultPlan) -> Arc<FaultTransport> {
        Arc::new(FaultTransport {
            inner,
            plan,
            state: Mutex::new(FaultState {
                frames_delivered: 0,
                polls: 0,
                snapshots: 0,
                rng: plan.seed | 1,
                kill_after: plan.kill_after,
                killed: false,
            }),
        })
    }

    /// The schedule state behind its lock.
    fn state(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total frames delivered so far (duplicates count twice, torn and
    /// flipped deliveries count too — the counter is the fault schedule).
    pub fn frames_delivered(&self) -> u64 {
        self.state().frames_delivered
    }

    /// Whether the kill budget has fired.
    pub fn killed(&self) -> bool {
        self.state().killed
    }

    /// Clears a fired kill (and its budget): the transport the recovered
    /// replica reconnects through.
    pub fn revive(&self) {
        let mut state = self.state();
        state.killed = false;
        state.kill_after = None;
    }

    fn next_rand(state: &mut FaultState) -> u64 {
        let mut x = state.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.rng = x;
        x
    }

    fn hits(n: u64, every: u64) -> bool {
        every > 0 && n.is_multiple_of(every)
    }
}

/// What a killed transport answers: to the replica, a dead peer is a
/// disconnect like any other.
fn killed() -> TransportError {
    TransportError::Disconnected("transport killed (injected fault)".to_string())
}

impl ReplicaTransport for FaultTransport {
    fn fetch_snapshot(&self) -> Result<SnapshotPayload, TransportError> {
        {
            let mut state = self.state();
            if state.killed {
                return Err(killed());
            }
            state.snapshots += 1;
        }
        let mut payload = self.inner.fetch_snapshot()?;
        let mut state = self.state();
        if Self::hits(state.snapshots, self.plan.corrupt_snapshot_every) {
            // Flip one byte of one file; the CRC check must reject it.
            let file =
                usize::try_from(Self::next_rand(&mut state) % u64_of(payload.files.len().max(1)))
                    .unwrap_or(0);
            if let Some(f) = payload.files.get_mut(file) {
                if !f.bytes.is_empty() {
                    let at = usize::try_from(Self::next_rand(&mut state) % u64_of(f.bytes.len()))
                        .unwrap_or(0);
                    if let Some(byte) = f.bytes.get_mut(at) {
                        *byte ^= 0x5A;
                    }
                }
            }
        }
        Ok(payload)
    }

    fn poll_frames(&self, from: &[u64], max_frames: usize) -> Result<FrameBatch, TransportError> {
        {
            let mut state = self.state();
            if state.killed {
                return Err(killed());
            }
            state.polls += 1;
            if Self::hits(state.polls, self.plan.disconnect_every) {
                return Err(TransportError::Disconnected(
                    "injected disconnect".to_string(),
                ));
            }
        }
        let batch = self.inner.poll_frames(from, max_frames)?;
        let mut state = self.state();
        let mut frames = Vec::with_capacity(batch.frames.len());
        for frame in batch.frames {
            if let Some(budget) = state.kill_after {
                if state.frames_delivered >= budget {
                    state.killed = true;
                    return Err(killed());
                }
            }
            state.frames_delivered += 1;
            let n = state.frames_delivered;
            let mut delivered = frame.clone();
            if Self::hits(n, self.plan.tear_every) {
                delivered.bytes.truncate(delivered.bytes.len() / 2);
            } else if Self::hits(n, self.plan.flip_every) && !delivered.bytes.is_empty() {
                let at =
                    usize::try_from(Self::next_rand(&mut state) % u64_of(delivered.bytes.len()))
                        .unwrap_or(0);
                if let Some(byte) = delivered.bytes.get_mut(at) {
                    *byte ^= 0x5A;
                }
            }
            frames.push(delivered);
            if Self::hits(n, self.plan.duplicate_every) {
                state.frames_delivered += 1;
                frames.push(frame);
            }
        }
        if Self::hits(state.polls, self.plan.reorder_every) {
            frames.reverse();
        }
        Ok(FrameBatch {
            frames,
            heads: batch.heads,
            need_snapshot: batch.need_snapshot,
        })
    }
}

mod tests {
    use super::*;
    use zerber_suite::store::{crc32, SnapshotFile, WireFrame};

    /// A stub transport for fault-shim unit tests: serves a fixed frame
    /// stream.
    #[derive(Debug)]
    struct StubTransport {
        frames: Vec<WireFrame>,
    }

    impl ReplicaTransport for StubTransport {
        fn fetch_snapshot(&self) -> Result<SnapshotPayload, TransportError> {
            Ok(SnapshotPayload {
                files: vec![SnapshotFile {
                    name: "store.meta".to_string(),
                    crc: crc32(b"meta"),
                    bytes: b"meta".to_vec(),
                }],
                heads: vec![0],
            })
        }

        fn poll_frames(
            &self,
            _from: &[u64],
            _max_frames: usize,
        ) -> Result<FrameBatch, TransportError> {
            Ok(FrameBatch {
                frames: self.frames.clone(),
                heads: vec![self.frames.len() as u64],
                need_snapshot: false,
            })
        }
    }

    /// `n` frames of distinct lengths: the shim never decodes what it
    /// carries, so any bytes serve.
    fn stub_frames(n: usize) -> Vec<WireFrame> {
        (0..n)
            .map(|i| WireFrame {
                shard: 0,
                bytes: vec![i as u8; 40 + i],
            })
            .collect()
    }

    #[test]
    fn fault_transport_schedules_are_deterministic() {
        let run = || {
            let inner = Arc::new(StubTransport {
                frames: stub_frames(6),
            });
            let faults = FaultTransport::new(
                inner,
                FaultPlan {
                    tear_every: 3,
                    flip_every: 4,
                    duplicate_every: 5,
                    reorder_every: 2,
                    disconnect_every: 3,
                    ..FaultPlan::default()
                },
            );
            let mut log = Vec::new();
            for _ in 0..6 {
                match faults.poll_frames(&[0], 64) {
                    Ok(batch) => log.push(
                        batch
                            .frames
                            .iter()
                            .map(|f| f.bytes.len())
                            .collect::<Vec<_>>(),
                    ),
                    Err(_) => log.push(vec![0]),
                }
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_transport_kills_after_the_frame_budget_and_revives() {
        let inner = Arc::new(StubTransport {
            frames: stub_frames(4),
        });
        let faults = FaultTransport::new(
            inner,
            FaultPlan {
                kill_after: Some(2),
                ..FaultPlan::default()
            },
        );
        assert!(
            faults.poll_frames(&[0], 64).is_err(),
            "the budget fires mid-batch"
        );
        assert!(faults.killed());
        assert_eq!(faults.frames_delivered(), 2);
        assert!(
            faults.fetch_snapshot().is_err(),
            "a killed transport stays dead"
        );
        faults.revive();
        assert!(!faults.killed());
        assert!(faults.poll_frames(&[0], 64).is_ok());
    }
}
