//! Minimal locking shims over `std::sync`.
//!
//! The engine previously used `parking_lot` for its non-poisoning mutex;
//! to keep the workspace dependency-free these wrappers recover the same
//! ergonomics on top of the standard library: `lock()` returns the guard
//! directly and a poisoned lock is recovered rather than propagated as a
//! panic. Recovery is sound everywhere the engine takes a lock: every
//! critical section only moves values in or out of collections and leaves
//! the protected data structurally valid even if interrupted.

use std::sync::PoisonError;

/// A mutex whose `lock` never panics: poisoning (a panic inside a previous
/// critical section) is absorbed and the inner data returned as-is.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps `value` in a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex and returns the inner value, recovering from
    /// poisoning.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trips_values() {
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn poisoned_lock_recovers() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A std mutex would now be poisoned; ours recovers transparently.
        assert_eq!(m.lock().len(), 3);
    }
}
