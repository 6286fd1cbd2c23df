//! Debug-only runtime lock-rank checker: turns lock-order inversions into
//! deterministic assertion failures instead of once-in-a-blue-moon
//! deadlocks.
//!
//! The global acquisition order is
//!
//! ```text
//! Store  <  Shard(0)  <  Shard(1)  <  ...
//! ```
//!
//! — a replica's store-slot lock first, then shard locks in ascending
//! shard-index order.  Each thread keeps a stack of the ranks it holds;
//! acquiring a rank that is not strictly above the top of the stack
//! (including re-acquiring a held rank) fires a `debug_assert!` naming both
//! ranks.  The check runs *before* blocking on the lock, so an inversion
//! that would deadlock under the right interleaving is reported on **every**
//! run that merely exercises the code path.  Release builds compile the whole
//! checker away: [`RankGuard`] is a zero-sized no-op and no thread-local is
//! touched.

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

/// RAII witness of one ranked acquisition; dropping it releases the rank.
/// Keep it alive exactly as long as the lock guard it ranks — in a wrapper
/// struct, declare the lock guard field *first* so it drops before the
/// rank does.
#[must_use]
pub struct RankGuard {
    #[cfg(debug_assertions)]
    key: (u8, usize),
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        /// The ranks this thread currently holds, always strictly
        /// ascending (each push must exceed the top, and removals keep
        /// order).
        pub(super) static STACK: RefCell<Vec<(u8, usize)>> = const { RefCell::new(Vec::new()) };
    }
}

/// Records an acquisition of `(class, id)` on this thread, asserting that
/// it ranks strictly above every lock already held.  Call this *before*
/// blocking on the lock so an inversion panics instead of deadlocking.
#[track_caller]
pub fn acquire(class: LockClass, id: usize) -> RankGuard {
    #[cfg(debug_assertions)]
    {
        let key = (class as u8, id);
        held::STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&top) = stack.last() {
                debug_assert!(
                    top < key,
                    "lock-rank inversion: acquiring {class:?}({id}) while already holding \
                     rank {top:?}; the order is Store < Shard(ascending index)"
                );
            }
            stack.push(key);
        });
        RankGuard { key }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (class, id);
        RankGuard {}
    }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards may drop out of stack order (two guards in one scope
            // drop in reverse declaration order); remove the matching entry
            // wherever it sits — the stack stays sorted either way.
            if let Some(at) = stack.iter().rposition(|&k| k == self.key) {
                stack.remove(at);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisitions_pass() {
        let a = acquire(LockClass::Store, 0);
        let b = acquire(LockClass::Shard, 0);
        let c = acquire(LockClass::Shard, 1);
        drop(c);
        drop(b);
        drop(a);
        // After release the same ranks are takeable again.
        let _again = acquire(LockClass::Store, 0);
    }

    #[test]
    fn out_of_order_drops_keep_the_stack_consistent() {
        let a = acquire(LockClass::Shard, 1);
        let b = acquire(LockClass::Shard, 3);
        drop(a);
        let c = acquire(LockClass::Shard, 4);
        drop(b);
        drop(c);
        let _reuse = acquire(LockClass::Shard, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn descending_shard_acquisition_fires() {
        let _hi = acquire(LockClass::Shard, 3);
        let _lo = acquire(LockClass::Shard, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn reentrant_acquisition_fires() {
        let _a = acquire(LockClass::Shard, 2);
        let _b = acquire(LockClass::Shard, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn store_below_shard_fires() {
        let _shard = acquire(LockClass::Shard, 0);
        let _store = acquire(LockClass::Store, 0);
    }
}
