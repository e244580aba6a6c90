//! [`Shared`]: thread-safe shared state with `RefCell`-style accessors.

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard even if a holder panicked
/// (poisoning is irrelevant to the simulator's single-threaded tests).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared mutable state with the `Rc<RefCell<T>>` calling convention but
/// `Send + Sync` ownership (`Arc<Mutex<T>>` underneath), so app state
/// captured by goroutine closures can cross the fleet's worker threads.
/// Each simulated machine is driven by one thread at a time — the lock
/// is never contended; it only exists to make the sharing thread-safe.
#[derive(Debug, Default)]
pub struct Shared<T>(std::sync::Arc<Mutex<T>>);

impl<T> Shared<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Shared<T> {
        Shared(std::sync::Arc::new(Mutex::new(value)))
    }

    /// Locks for reading (named for `RefCell` drop-in compatibility).
    pub fn borrow(&self) -> MutexGuard<'_, T> {
        lock_unpoisoned(&self.0)
    }

    /// Locks for writing.
    pub fn borrow_mut(&self) -> MutexGuard<'_, T> {
        lock_unpoisoned(&self.0)
    }
}

impl<T: Copy> Shared<T> {
    /// Copies the value out (the `Cell` calling convention).
    pub fn get(&self) -> T {
        *lock_unpoisoned(&self.0)
    }

    /// Replaces the value.
    pub fn set(&self, value: T) {
        *lock_unpoisoned(&self.0) = value;
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Shared<T> {
        Shared(std::sync::Arc::clone(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_from_poison() {
        let m = std::sync::Arc::new(Mutex::new(1u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*lock_unpoisoned(&m), 1);
    }
}
