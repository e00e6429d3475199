//! The workspace's one lock policy: a lock whose holder panicked is still
//! good to use.
//!
//! Every critical section in the engine is a short container update that
//! computes first and mutates last, so a panic inside one cannot leave the
//! data half-written. The panic that poisoned the lock is re-raised on its
//! own path (`fan_out`'s `resume_unwind`, `JoinHandle::join`), so a second
//! panic from the next acquirer would add no information — and on the
//! cluster/exec spine it would turn a recoverable condition into an abort.
//! These helpers take a `std::sync` lock and recover the guard from a
//! [`PoisonError`]; non-test code acquires every lock through them.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Locks `m`.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes `l` shared.
#[inline]
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes `l` exclusive.
#[inline]
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Releases `guard`, waits on `cv` for at most `dur`, and re-takes the
/// lock. Callers re-check their condition: a wakeup may be a timeout.
#[inline]
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f`, which panics with a guard held, on its own thread: the
    /// unwind drops the guard and poisons its lock.
    fn panic_holding(f: impl FnOnce() + Send) {
        std::thread::scope(|s| assert!(s.spawn(f).join().is_err()));
    }

    #[test]
    fn a_poisoned_mutex_hands_back_its_data() {
        let m = Mutex::new(vec![1, 2]);
        panic_holding(|| {
            let mut g = lock(&m);
            g.push(3);
            panic!("holder dies");
        });
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), vec![1, 2, 3]);
        let cv = Condvar::new();
        let g = wait_timeout(&cv, lock(&m), Duration::from_millis(1));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn a_poisoned_rwlock_hands_back_its_data() {
        let l = RwLock::new(41);
        panic_holding(|| {
            let mut g = write(&l);
            *g += 1;
            panic!("writer dies");
        });
        assert!(l.is_poisoned());
        assert_eq!(*read(&l), 42);
        *write(&l) += 1;
        assert_eq!(*read(&l), 43);
    }
}
