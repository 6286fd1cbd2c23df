//! The deterministic fault-injection IO shim the durable-recovery and
//! replication suites crash stores with: a [`PageIo`] over the production
//! [`RealIo`] that kills writes after a byte budget, flips one byte,
//! buffers writes in a page cache that outlives a process crash but not a
//! power failure (which also takes back every rename and file creation
//! whose directory was not synced) and drops fsyncs, or fails the writes to one kind of file
//! — the same way on every run.
//!
//! Included by path (`#[path = "common/fault_io.rs"] mod fault_io;`) into
//! the suites that use it, so the store library ships none of it.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use zerber_suite::store::convert::u64_of;
use zerber_suite::store::{FileIo, PageIo, RealIo};

/// The ledger or a buffer behind its lock (a panicking test thread
/// poisons nothing the others care about).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A file's bytes in the buffered modes' page cache.
type Shadow = Arc<Mutex<Vec<u8>>>;

/// A rename the buffered modes have not made durable yet: from, to, and the
/// on-disk bytes `to` held before it (`None` if it did not exist).
type PendingRename = (PathBuf, PathBuf, Option<Vec<u8>>);

/// What the fault shim does to the IO stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Write-through until `n` budget units are consumed (one unit per
    /// written byte; renames, removes, truncations and syncs cost one unit
    /// each), then the process is considered dead: every later write,
    /// rename, remove, truncation and sync silently does nothing.  A write
    /// straddling the budget persists only its prefix — a torn write.
    KillAfter(u64),
    /// Write-through, but the byte at global write offset `n` is XORed with
    /// `0x5A` on its way to disk — a single deterministic bit-flip.
    FlipByteAt(u64),
    /// Buffer every write in a page cache the shim keeps per path, shared
    /// by every handle as an OS shares it; `sync` flushes the file's bytes
    /// to disk.  A store that dies without syncing (a process crash) and
    /// reopens through the same shim reads the unsynced bytes back;
    /// reopening through [`RealIo`], or after [`FaultIo::power_fail`],
    /// models a power failure that loses everything since the last fsync.
    /// A rename or a file creation is volatile too until its directory is
    /// synced: [`FaultIo::power_fail`] takes back every one made since.
    Buffered,
    /// Like [`FaultMode::Buffered`], but `sync` and `sync_dir` are silently
    /// dropped too — a lying fsync.  Nothing written through this shim ever
    /// reaches disk, and a power failure takes back every rename.
    DropSyncs,
    /// Every write to a file whose path ends in the suffix (`".wal"`,
    /// `".pages"`) fails with an error until [`FaultIo::heal`]; all other
    /// IO passes through.  Nothing crashes: the store sees the error.
    FailWritesTo(&'static str),
}

#[derive(Debug, Default)]
struct FaultLedger {
    /// Budget units consumed so far (bytes written + 1 per metadata op).
    spent: u64,
    /// Set once a [`FaultMode::KillAfter`] budget is exhausted.
    crashed: bool,
    /// Cumulative `spent` after each IO operation — the injection points a
    /// kill-at-every-step loop iterates over.
    boundaries: Vec<u64>,
    /// Set by [`FaultIo::heal`]: a [`FaultMode::FailWritesTo`] shim stops
    /// failing writes.
    healed: bool,
}

/// The deterministic fault-injection IO shim: wraps [`RealIo`] over the real
/// directory, so whatever "survives" the injected fault is exactly what a
/// later `SpillStore::open` with [`RealIo`] will find.
#[derive(Debug)]
pub struct FaultIo {
    inner: Arc<dyn PageIo>,
    mode: FaultMode,
    ledger: Arc<Mutex<FaultLedger>>,
    /// The buffered modes' page cache: each path's unsynced view.
    cache: Mutex<HashMap<PathBuf, Shadow>>,
    /// The buffered modes' renames since their directory was last synced,
    /// oldest first.
    renames: Mutex<Vec<PendingRename>>,
    /// The buffered modes' files created since their directory was last
    /// synced.
    created: Mutex<Vec<PathBuf>>,
}

impl FaultIo {
    /// A fault shim over the production IO.
    pub fn new(mode: FaultMode) -> Arc<FaultIo> {
        Arc::new(FaultIo {
            inner: RealIo::shared(),
            mode,
            ledger: Arc::default(),
            cache: Mutex::default(),
            renames: Mutex::default(),
            created: Mutex::default(),
        })
    }

    /// A power failure in the buffered modes: every byte not synced is
    /// lost, so the next open reads what the disk holds, every rename whose
    /// directory was not synced since is undone, newest first, and every
    /// file created since is removed again.  Call
    /// it with no store open on the shim (the process died with the power).
    pub fn power_fail(&self) {
        lock(&self.cache).clear();
        for (from, to, before) in lock(&self.renames).drain(..).rev() {
            std::fs::rename(&to, &from).expect("undo an unsynced rename");
            if let Some(bytes) = before {
                std::fs::write(&to, bytes).expect("restore a rename's target");
            }
        }
        for path in lock(&self.created).drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }

    fn buffered(&self) -> bool {
        matches!(self.mode, FaultMode::Buffered | FaultMode::DropSyncs)
    }

    /// Budget units consumed so far (bytes written plus one per rename /
    /// remove / truncate / sync).
    pub fn spent(&self) -> u64 {
        lock(&self.ledger).spent
    }

    /// Whether a `KillAfter` budget has been exhausted.
    pub fn crashed(&self) -> bool {
        lock(&self.ledger).crashed
    }

    /// Ends a [`FaultMode::FailWritesTo`] fault: later writes succeed.
    pub fn heal(&self) {
        lock(&self.ledger).healed = true;
    }

    /// The cumulative budget after each IO operation: every value (and its
    /// ±1 neighbours) is a distinct crash point for a kill-at-every-step
    /// recovery loop.
    pub fn op_boundaries(&self) -> Vec<u64> {
        lock(&self.ledger).boundaries.clone()
    }

    /// Consumes one metadata-op unit; `true` if the op should proceed.
    fn charge_op(&self) -> bool {
        let mut ledger = lock(&self.ledger);
        match self.mode {
            FaultMode::KillAfter(n) => {
                if ledger.crashed {
                    return false;
                }
                if ledger.spent >= n {
                    ledger.crashed = true;
                    return false;
                }
                ledger.spent += 1;
                let spent = ledger.spent;
                ledger.boundaries.push(spent);
                true
            }
            _ => {
                ledger.spent += 1;
                let spent = ledger.spent;
                ledger.boundaries.push(spent);
                true
            }
        }
    }
}

#[derive(Debug)]
struct FaultFile {
    real: Box<dyn FileIo>,
    mode: FaultMode,
    ledger: Arc<Mutex<FaultLedger>>,
    /// Full in-memory shadow of the file in the buffered modes, shared by
    /// every handle of its path; `sync` flushes it (unless dropped).
    shadow: Option<Shadow>,
    /// Whether this file's writes fail ([`FaultMode::FailWritesTo`]).
    failing: bool,
}

impl FileIo for FaultFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        match &self.shadow {
            Some(shadow) => {
                let start = usize::try_from(offset).unwrap_or(usize::MAX);
                let end = start.saturating_add(buf.len());
                let shadow = lock(shadow);
                let Some(src) = shadow.get(start..end) else {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "read past buffered length",
                    ));
                };
                buf.copy_from_slice(src);
                Ok(())
            }
            None => self.real.read_at(offset, buf),
        }
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        if self.failing && !lock(&self.ledger).healed {
            return Err(io::Error::other("injected write failure"));
        }
        if let Some(shadow) = &self.shadow {
            let start = usize::try_from(offset).unwrap_or(usize::MAX);
            let end = start.saturating_add(buf.len());
            let mut shadow = lock(shadow);
            if shadow.len() < end {
                shadow.resize(end, 0);
            }
            if let Some(dst) = shadow.get_mut(start..end) {
                dst.copy_from_slice(buf);
            }
            let mut ledger = lock(&self.ledger);
            ledger.spent += u64_of(buf.len());
            let spent = ledger.spent;
            ledger.boundaries.push(spent);
            return Ok(());
        }
        let (allow, flip) = {
            let mut ledger = lock(&self.ledger);
            let start = ledger.spent;
            ledger.spent += u64_of(buf.len());
            let spent = ledger.spent;
            ledger.boundaries.push(spent);
            match self.mode {
                FaultMode::KillAfter(n) => {
                    if ledger.crashed {
                        (0usize, None)
                    } else {
                        let allow = usize::try_from(n.saturating_sub(start))
                            .unwrap_or(usize::MAX)
                            .min(buf.len());
                        if allow < buf.len() {
                            ledger.crashed = true;
                        }
                        (allow, None)
                    }
                }
                FaultMode::FlipByteAt(n) => {
                    let flip = (start..start + u64_of(buf.len()))
                        .contains(&n)
                        .then(|| usize::try_from(n - start).ok())
                        .flatten()
                        .filter(|&i| i < buf.len());
                    (buf.len(), flip)
                }
                _ => (buf.len(), None),
            }
        };
        match flip {
            Some(i) => {
                let mut copy = buf.to_vec();
                if let Some(byte) = copy.get_mut(i) {
                    *byte ^= 0x5A;
                }
                self.real.write_at(offset, &copy)
            }
            None => match buf.get(..allow) {
                Some(prefix) if !prefix.is_empty() => self.real.write_at(offset, prefix),
                _ => Ok(()),
            },
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.mode {
            FaultMode::DropSyncs => Ok(()),
            FaultMode::Buffered => {
                let mut ledger = lock(&self.ledger);
                ledger.spent += 1;
                let spent = ledger.spent;
                ledger.boundaries.push(spent);
                drop(ledger);
                // Buffered mode always carries a shadow; a missing one is a
                // harness misconfiguration, degraded to a plain sync.
                let Some(shadow) = self.shadow.as_deref().map(|s| lock(s).clone()) else {
                    return self.real.sync();
                };
                self.real.write_at(0, &shadow)?;
                self.real.set_len(u64_of(shadow.len()))?;
                self.real.sync()
            }
            FaultMode::KillAfter(n) => {
                let mut ledger = lock(&self.ledger);
                if ledger.crashed || ledger.spent >= n {
                    ledger.crashed = true;
                    return Ok(());
                }
                ledger.spent += 1;
                let spent = ledger.spent;
                ledger.boundaries.push(spent);
                drop(ledger);
                self.real.sync()
            }
            FaultMode::FlipByteAt(_) | FaultMode::FailWritesTo(_) => self.real.sync(),
        }
    }

    fn len(&mut self) -> io::Result<u64> {
        match &self.shadow {
            Some(shadow) => Ok(u64_of(lock(shadow).len())),
            None => self.real.len(),
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if let Some(shadow) = &self.shadow {
            lock(shadow).resize(usize::try_from(len).unwrap_or(usize::MAX), 0);
            return Ok(());
        }
        match self.mode {
            FaultMode::KillAfter(n) => {
                let mut ledger = lock(&self.ledger);
                if ledger.crashed || ledger.spent >= n {
                    ledger.crashed = true;
                    return Ok(());
                }
                ledger.spent += 1;
                let spent = ledger.spent;
                ledger.boundaries.push(spent);
                drop(ledger);
                self.real.set_len(len)
            }
            _ => self.real.set_len(len),
        }
    }
}

impl PageIo for FaultIo {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn FileIo>> {
        // Opening never tears: the interesting faults live in writes and the
        // commit ops.  In the buffered modes truncation is deferred to the
        // shadow, so an unflushed truncate is lost like any other write.
        let buffered = self.buffered();
        if buffered && !self.inner.exists(path) {
            lock(&self.created).push(path.to_path_buf());
        }
        let mut real = self.inner.open(path, truncate && !buffered)?;
        let cached = lock(&self.cache).get(path).cloned();
        let shadow = if let Some(shadow) = cached {
            if truncate {
                lock(&shadow).clear();
            }
            Some(shadow)
        } else if buffered {
            let mut content = Vec::new();
            if !truncate {
                content.resize(usize::try_from(real.len()?).unwrap_or(usize::MAX), 0);
                real.read_at(0, &mut content)?;
            }
            let shadow = Arc::new(Mutex::new(content));
            lock(&self.cache).insert(path.to_path_buf(), Arc::clone(&shadow));
            Some(shadow)
        } else {
            None
        };
        let failing = match self.mode {
            FaultMode::FailWritesTo(suffix) => path.to_string_lossy().ends_with(suffix),
            _ => false,
        };
        Ok(Box::new(FaultFile {
            real,
            mode: self.mode,
            ledger: Arc::clone(&self.ledger),
            shadow,
            failing,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // Renames are atomic: they either happen or the crash dropped them.
        // In the buffered modes the rename moves the disk's bytes and the
        // cached ones alike: after a power failure the new name holds the
        // stale (possibly empty) on-disk content of an unflushed file,
        // exactly the hazard a missing fsync creates — unless the power
        // failure undoes the rename itself, because its directory was never
        // synced.
        if matches!(self.mode, FaultMode::KillAfter(_)) && !self.charge_op() {
            return Ok(());
        }
        let before = self.buffered().then(|| std::fs::read(to).ok()).flatten();
        let mut cache = lock(&self.cache);
        match cache.remove(from) {
            Some(shadow) => cache.insert(to.to_path_buf(), shadow),
            None => cache.remove(to),
        };
        self.inner.rename(from, to)?;
        if self.buffered() {
            lock(&self.renames).push((from.to_path_buf(), to.to_path_buf(), before));
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.mode {
            FaultMode::DropSyncs => return Ok(()),
            FaultMode::KillAfter(_) if !self.charge_op() => return Ok(()),
            FaultMode::Buffered => {
                lock(&self.renames).retain(|(_, to, _)| to.parent() != Some(dir));
                lock(&self.created).retain(|path| path.parent() != Some(dir));
            }
            _ => {}
        }
        self.inner.sync_dir(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        if matches!(self.mode, FaultMode::KillAfter(_)) && !self.charge_op() {
            return Ok(());
        }
        lock(&self.cache).remove(path);
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

mod tests {
    use super::*;
    use crate::common::TempRoot;

    #[test]
    fn kill_after_budget_tears_writes_and_drops_later_ops() {
        let dir = TempRoot::new("fault-kill");
        let a = dir.join("kill-a");
        let b = dir.join("kill-b");
        let io = FaultIo::new(FaultMode::KillAfter(6));
        {
            let mut f = io.open(&a, true).unwrap();
            f.write_at(0, &[1, 2, 3, 4]).unwrap();
            // This write straddles the budget: only 2 of 4 bytes land.
            f.write_at(4, &[5, 6, 7, 8]).unwrap();
        }
        assert!(io.crashed());
        // Post-crash ops silently do nothing.
        io.rename(&a, &b).unwrap();
        assert!(a.exists() && !b.exists());
        assert_eq!(std::fs::read(&a).unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn buffered_mode_loses_unsynced_writes_and_keeps_synced_ones() {
        let dir = TempRoot::new("fault-buffered");
        let path = dir.join("buffered");
        {
            let io = FaultIo::new(FaultMode::Buffered);
            let mut f = io.open(&path, true).unwrap();
            f.write_at(0, &[1, 2, 3]).unwrap();
            f.sync().unwrap();
            f.write_at(3, &[4, 5, 6]).unwrap();
            // Reads see the buffered bytes (the live process view)...
            let mut buf = [0u8; 6];
            f.read_at(0, &mut buf).unwrap();
            assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
            // ...but the crash (drop without sync) loses the unflushed tail.
        }
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2, 3]);
        {
            let io = FaultIo::new(FaultMode::DropSyncs);
            let mut f = io.open(&path, false).unwrap();
            f.write_at(3, &[9, 9]).unwrap();
            f.sync().unwrap(); // dropped
        }
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn buffered_writes_survive_a_reopen_through_the_shim_until_a_power_failure() {
        let dir = TempRoot::new("fault-page-cache");
        let (path, moved) = (dir.join("cached"), dir.join("moved"));
        let io = FaultIo::new(FaultMode::Buffered);
        let mut f = io.open(&path, true).unwrap();
        f.write_at(0, &[1, 2, 3]).unwrap();
        f.sync().unwrap();
        f.write_at(3, &[4, 5]).unwrap();
        // A crash: the handle dies unsynced, a reopen reads the cache.
        drop(f);
        let mut buf = [0u8; 5];
        io.open(&path, false).unwrap().read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5]);
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2, 3]);
        // The cache follows a rename; the power failure then loses it (and
        // keeps the rename, whose directory was synced).
        io.rename(&path, &moved).unwrap();
        io.sync_dir(&dir).unwrap();
        assert_eq!(io.open(&moved, false).unwrap().len().unwrap(), 5);
        io.power_fail();
        assert_eq!(io.open(&moved, false).unwrap().len().unwrap(), 3);
    }

    #[test]
    fn a_power_failure_undoes_the_renames_of_an_unsynced_directory() {
        let dir = TempRoot::new("fault-renames");
        let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
        std::fs::write(&a, [1]).unwrap();
        std::fs::write(&b, [2]).unwrap();
        let io = FaultIo::new(FaultMode::Buffered);
        // Synced: survives.  Unsynced, over an existing file: taken back.
        io.rename(&a, &c).unwrap();
        io.sync_dir(&dir).unwrap();
        io.rename(&b, &c).unwrap();
        io.power_fail();
        assert_eq!(std::fs::read(&b).unwrap(), vec![2]);
        assert_eq!(std::fs::read(&c).unwrap(), vec![1]);
        assert!(!a.exists());
        // A lying directory fsync keeps nothing.
        let liar = FaultIo::new(FaultMode::DropSyncs);
        liar.rename(&b, &a).unwrap();
        liar.sync_dir(&dir).unwrap();
        liar.power_fail();
        assert!(b.exists() && !a.exists());
    }

    #[test]
    fn a_power_failure_removes_the_files_created_in_an_unsynced_directory() {
        let dir = TempRoot::new("fault-created");
        let (kept, lost) = (dir.join("kept"), dir.join("lost"));
        let io = FaultIo::new(FaultMode::Buffered);
        io.open(&kept, true).unwrap().sync().unwrap();
        io.sync_dir(&dir).unwrap();
        io.open(&lost, true).unwrap().sync().unwrap();
        io.power_fail();
        assert!(kept.exists() && !lost.exists());
    }

    #[test]
    fn flip_byte_corrupts_exactly_one_byte() {
        let dir = TempRoot::new("fault-flip");
        let path = dir.join("flip");
        let io = FaultIo::new(FaultMode::FlipByteAt(2));
        {
            let mut f = io.open(&path, true).unwrap();
            f.write_at(0, &[0u8; 5]).unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 0, 0x5A, 0, 0]);
    }
}
