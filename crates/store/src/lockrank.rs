//! Debug-only runtime lock checker.  Three rules turn latent deadlocks and
//! stalls into assertion failures on every run that merely exercises the
//! code path:
//!
//! * **rank order** — `Store < Shard(0) < Shard(1) < ...` (a replica's
//!   store-slot lock, then a shard lock): acquiring a rank that is not
//!   strictly above the top of this thread's stack fires, checked *before*
//!   blocking so an inversion panics instead of deadlocking;
//! * **one shard at a time** — acquiring anything while a shard rank is held
//!   fires;
//! * **no durable IO under a shard write lock** — the production IO calls
//!   [`check_io`] on every fsync, truncate, open, rename and remove, and it
//!   fires while a shard rank is held in [`Mode::Write`] outside a
//!   [`sanctioned_io`] scope.  Page reads and writes stay unchecked: faults
//!   read under the read lock, and demotions write pages by design.
//!
//! Release builds compile the checker away: [`RankGuard`] and
//! [`IoSanction`] are zero-sized and no thread-local is touched.

use std::ops::{Deref, DerefMut};

/// Lock classes in their global acquisition order.  The numeric value is
/// the class's rank; ties within a class are broken by the `id` passed to
/// [`acquire`] (the shard index for [`LockClass::Shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// A replica's store-slot lock (the snapshot-swap `RwLock`).
    Store = 0,
    /// One shard of a sharded core, ranked by shard index.
    Shard = 1,
}

/// Whether a ranked lock is held shared or exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Read,
    Write,
}

/// RAII witness of one ranked acquisition; dropping it releases the rank.
/// Keep it alive exactly as long as the lock guard it ranks — [`Ranked`]
/// pairs the two.
#[must_use]
pub struct RankGuard {
    #[cfg(debug_assertions)]
    key: (LockClass, usize),
}

/// A lock guard paired with the rank it holds, dereferencing to what the
/// lock protects.  The lock guard is declared first, so it drops before
/// the rank pops.
#[must_use]
pub(crate) struct Ranked<G> {
    guard: G,
    _rank: RankGuard,
}

impl<G: Deref> Deref for Ranked<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Ranked<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// RAII witness of a [`sanctioned_io`] scope; dropping it ends the scope.
#[must_use]
pub struct IoSanction(());

#[cfg(debug_assertions)]
mod held {
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// The ranks this thread holds and their modes, strictly ascending
        /// (each push must exceed the top, and removals keep order).
        pub(super) static STACK: RefCell<Vec<((super::LockClass, usize), super::Mode)>> =
            const { RefCell::new(Vec::new()) };
        /// Open [`super::sanctioned_io`] scopes on this thread.
        pub(super) static SANCTIONED: Cell<usize> = const { Cell::new(0) };
    }
}

/// Records an acquisition of `(class, id)` in `mode` on this thread,
/// asserting the rank order and that no shard lock is held.  Call this
/// *before* blocking on the lock.
#[track_caller]
pub fn acquire(class: LockClass, id: usize, mode: Mode) -> RankGuard {
    #[cfg(debug_assertions)]
    {
        let key = (class, id);
        held::STACK.with_borrow_mut(|stack| {
            if let Some(&(top, _)) = stack.last() {
                debug_assert!(
                    top < key,
                    "lock-rank inversion: acquiring {class:?}({id}) while already holding \
                     rank {top:?}; the order is Store < Shard(ascending index)"
                );
                debug_assert!(
                    top.0 != LockClass::Shard,
                    "nested shard locks: acquiring {class:?}({id}) while holding {top:?}"
                );
            }
            stack.push((key, mode));
        });
        RankGuard { key }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (class, id, mode);
        RankGuard {}
    }
}

/// Takes a lock under the rank discipline: records `(class, id)` in `mode`
/// via [`acquire`], then blocks in `lock`.
#[track_caller]
pub(crate) fn ranked<G>(
    class: LockClass,
    id: usize,
    mode: Mode,
    lock: impl FnOnce() -> G,
) -> Ranked<G> {
    let rank = acquire(class, id, mode);
    Ranked {
        guard: lock(),
        _rank: rank,
    }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        // Guards may drop out of stack order (two guards in one scope drop
        // in reverse declaration order); remove the matching entry wherever
        // it sits — the stack stays sorted either way.
        #[cfg(debug_assertions)]
        held::STACK.with_borrow_mut(|stack| {
            if let Some(at) = stack.iter().rposition(|&(k, _)| k == self.key) {
                stack.remove(at);
            }
        });
    }
}

/// Opens a scope in which this thread may do durable IO under a shard
/// write lock; `reason` says why the IO must happen under the lock.
pub fn sanctioned_io(reason: &'static str) -> IoSanction {
    debug_assert!(!reason.is_empty(), "a sanction needs a reason");
    #[cfg(debug_assertions)]
    held::SANCTIONED.set(held::SANCTIONED.get() + 1);
    IoSanction(())
}

impl Drop for IoSanction {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::SANCTIONED.set(held::SANCTIONED.get() - 1);
    }
}

/// Asserts that durable IO `op` may run on this thread: no shard lock is
/// held in [`Mode::Write`], or a [`sanctioned_io`] scope is open.
#[track_caller]
pub fn check_io(op: &str) {
    #[cfg(debug_assertions)]
    debug_assert!(
        held::SANCTIONED.get() > 0
            || held::STACK.with_borrow(|stack| {
                !matches!(stack.last(), Some(((LockClass::Shard, _), Mode::Write)))
            }),
        "durable IO ({op}) under a shard write lock outside a sanctioned_io scope"
    );
    #[cfg(not(debug_assertions))]
    let _ = op;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisitions_pass() {
        let a = acquire(LockClass::Store, 0, Mode::Read);
        let b = acquire(LockClass::Shard, 0, Mode::Write);
        drop(b);
        let c = acquire(LockClass::Shard, 1, Mode::Read);
        drop(c);
        drop(a);
        // After release the same ranks are takeable again.
        let _again = acquire(LockClass::Store, 0, Mode::Write);
        let _shard = acquire(LockClass::Shard, 0, Mode::Read);
    }

    #[test]
    fn out_of_order_drops_keep_the_stack_consistent() {
        let a = acquire(LockClass::Store, 0, Mode::Read);
        let b = acquire(LockClass::Shard, 3, Mode::Write);
        drop(a);
        drop(b);
        let _reuse = acquire(LockClass::Store, 0, Mode::Read);
        let _shard = acquire(LockClass::Shard, 1, Mode::Read);
    }

    #[test]
    fn a_ranked_guard_derefs_to_the_lock_and_releases_its_rank() {
        let table = std::sync::Mutex::new(1);
        {
            let mut guard = ranked(LockClass::Shard, 2, Mode::Write, || table.lock().unwrap());
            *guard += 1;
        }
        assert_eq!(*table.lock().unwrap(), 2);
        let _again = acquire(LockClass::Shard, 2, Mode::Read);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn a_ranked_lock_records_its_rank_before_blocking() {
        let _guard = ranked(LockClass::Shard, 3, Mode::Read, || {
            acquire(LockClass::Shard, 1, Mode::Read)
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn descending_shard_acquisition_fires() {
        let _hi = acquire(LockClass::Shard, 3, Mode::Read);
        let _lo = acquire(LockClass::Shard, 1, Mode::Read);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nested shard locks")]
    fn ascending_second_shard_fires() {
        let _lo = acquire(LockClass::Shard, 1, Mode::Read);
        let _hi = acquire(LockClass::Shard, 3, Mode::Read);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn reentrant_acquisition_fires() {
        let _a = acquire(LockClass::Shard, 2, Mode::Read);
        let _b = acquire(LockClass::Shard, 2, Mode::Read);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn store_below_shard_fires() {
        let _shard = acquire(LockClass::Shard, 0, Mode::Read);
        let _store = acquire(LockClass::Store, 0, Mode::Read);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "durable IO (sync) under a shard write lock")]
    fn io_under_a_shard_write_rank_fires() {
        let _shard = acquire(LockClass::Shard, 0, Mode::Write);
        check_io("sync");
    }

    #[test]
    fn io_under_a_shard_read_rank_passes() {
        let _store = acquire(LockClass::Store, 0, Mode::Write);
        let _shard = acquire(LockClass::Shard, 0, Mode::Read);
        check_io("sync");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn sanctioned_io_passes_and_ends_with_its_guard() {
        let _shard = acquire(LockClass::Shard, 0, Mode::Write);
        {
            let _io = sanctioned_io("the commit must cover the locked state");
            check_io("rename");
        }
        let after = std::panic::catch_unwind(|| check_io("rename"));
        assert!(after.is_err(), "the sanction ended with its guard");
    }
}
