//! Poison-free locking primitives over `std::sync`.
//!
//! The workspace builds in hermetic environments with no registry access,
//! so instead of `parking_lot` we carry this thin shim: the same ergonomic
//! API surface (guards without `Result`, `Condvar::wait(&mut guard)`)
//! implemented on the standard library. A poisoned lock — a participant
//! panicking while holding it — propagates the panic to the next locker,
//! which matches the simulator's fail-fast poisoning semantics.

use std::ops::{Deref, DerefMut};
use std::sync;

/// Mutual exclusion, `parking_lot`-style: `lock()` returns the guard
/// directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(
            self.0.lock().unwrap_or_else(sync::PoisonError::into_inner),
        ))
    }
}

/// Guard for [`Mutex`]. The inner `Option` exists so [`Condvar::wait`]
/// can move the std guard out and back without re-entering the lock.
pub struct MutexGuard<'a, T>(Option<sync::MutexGuard<'a, T>>);

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
    }
}

/// Condition variable paired with [`Mutex`], waiting in place on a
/// `&mut` guard like `parking_lot::Condvar`.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(
            self.0
                .wait(inner)
                .unwrap_or_else(sync::PoisonError::into_inner),
        );
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }
}

/// Reader-writer lock with guard-returning `read()`/`write()`.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(sync::PoisonError::into_inner))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(sync::PoisonError::into_inner))
    }
}

pub struct RwLockReadGuard<'a, T>(sync::RwLockReadGuard<'a, T>);

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

pub struct RwLockWriteGuard<'a, T>(sync::RwLockWriteGuard<'a, T>);

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        h.join().unwrap();
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read()[2], 3);
    }

    #[test]
    fn poisoned_lock_recovers_value() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
