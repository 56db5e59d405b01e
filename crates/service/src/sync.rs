//! Poison-recovering lock helpers shared across the service and the
//! router.
//!
//! Every mutex in this crate and in `drmap-router` guards state that
//! each code path leaves structurally valid (memo caches, counters,
//! channel receivers, semaphore counts, connection sets, the pending
//! map), so a panic on some other thread must not cascade into an abort
//! of every thread that touches the lock. All lock sites therefore
//! recover from poisoning instead of propagating it — via this one
//! helper, so the policy lives in exactly one place.

use std::sync::{Mutex, MutexGuard};

/// Lock `mutex`, recovering the guard if a panicking thread poisoned it.
pub fn lock_recovered<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}
