//! Lock-doctor: rank-checked synchronization primitives.
//!
//! Every lock in the workspace is a [`Mutex`] or [`RwLock`] from this
//! module, constructed with a [`Rank`] from the canonical hierarchy in
//! [`rank`]. A thread may only acquire a lock whose rank is **strictly
//! lower** than every lock it already holds — acquisitions run "down" the
//! hierarchy, which makes cross-thread acquisition cycles (deadlocks)
//! impossible by construction.
//!
//! In debug builds (`cfg(debug_assertions)`) or with the `lock-doctor`
//! feature enabled, the wrappers are instrumented: each thread keeps a
//! stack of the locks it holds, and any rank inversion panics — before
//! blocking — with **both** acquisition sites named (the one being taken
//! and the one already held). The rank check is the whole deadlock
//! argument: every permitted nesting strictly descends in level, so the
//! acquisition order across all threads is acyclic by construction and
//! needs no global bookkeeping.
//!
//! In release builds without the feature the wrappers are transparent
//! newtypes around `std::sync` with no extra state and no `Drop` glue —
//! `size_of` is identical and guards are the std guards themselves.
//!
//! The `proteus-lint` pass enforces that no code outside this module
//! touches `std::sync::{Mutex, RwLock, Condvar}` directly.

/// A level in the canonical lock hierarchy. Locks must be acquired in
/// strictly decreasing [`Rank::level`] order within a thread.
///
/// The levels in [`rank`] are deliberately spaced so future locks can
/// slot between existing ones without renumbering the world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rank {
    level: u16,
    name: &'static str,
}

impl Rank {
    /// Define a rank. Levels must be unique per name; two distinct locks
    /// may share a rank only if they are never held simultaneously by one
    /// thread (the doctor treats same-level nesting as an inversion).
    pub const fn new(level: u16, name: &'static str) -> Rank {
        Rank { level, name }
    }

    /// Numeric level; higher acquires first.
    pub const fn level(&self) -> u16 {
        self.level
    }

    /// Human-readable name used in panic messages.
    pub const fn name(&self) -> &'static str {
        self.name
    }
}

/// The canonical lock hierarchy (acquire top-to-bottom). The table in
/// `ARCHITECTURE.md` § "Lock hierarchy & analysis tooling" documents the
/// why behind each ordering edge.
pub mod rank {
    use super::Rank;

    /// One unit of an LSM store's background work (`Mutex<()>`): held
    /// around every flush, compaction, adaptive pass and manifest edit,
    /// whichever thread runs it. Taken with nothing else held.
    pub const WORKER: Rank = Rank::new(90, "worker");
    /// The MemTable state (`RwLock<MemState>`): which tables exist.
    /// Writers serialize on it and it nests over one table's data, the
    /// WAL (append/rotate) and the manifest (a scan's `Version`).
    pub const MEMTABLE: Rank = Rank::new(80, "memtable");
    /// One MemTable's content (`Arc<RwLock<MemTable>>`, active or
    /// frozen): written under `MEMTABLE`, read by point lookups under it
    /// and by scan cursors on their own, one table at a time. Guards
    /// in-memory work only — never held across a WAL append or a block
    /// fetch.
    pub const MEMTABLE_DATA: Rank = Rank::new(75, "memtable-data");
    /// The write-ahead-log interior (segment writer + group-commit
    /// state).
    pub const WAL: Rank = Rank::new(60, "wal");
    /// The manifest (`RwLock<Arc<Version>>` of live levels).
    pub const MANIFEST: Rank = Rank::new(50, "manifest");
    /// One shard of the sharded block cache. Shards are never nested
    /// with each other (guards are dropped between shards), so a single
    /// rank covers all sixteen.
    pub const CACHE_SHARD: Rank = Rank::new(30, "cache-shard");
    /// The sample-query queue.
    pub const QUERY_QUEUE: Rank = Rank::new(20, "query-queue");
    /// The server's connection-handle registry.
    pub const SERVER_CONNS: Rank = Rank::new(15, "server-conns");
}

/// True when lock-doctor instrumentation is compiled in (debug build or
/// the `lock-doctor` feature).
pub const fn doctor_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "lock-doctor"))
}

#[cfg(any(debug_assertions, feature = "lock-doctor"))]
mod imp {
    use super::Rank;
    use std::cell::RefCell;
    use std::fmt;
    use std::mem::ManuallyDrop;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync::{LockResult, PoisonError};

    #[derive(Clone, Copy)]
    struct Held {
        token: u64,
        level: u16,
        name: &'static str,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<(u64, Vec<Held>)> = const { RefCell::new((0, Vec::new())) };
    }

    /// The acquisition check: every held lock must outrank the new one.
    /// Panics name both sites. Called *before* blocking on the lock so a
    /// would-be deadlock is reported instead of hung.
    fn check_acquire(rank: Rank, site: &'static Location<'static>) {
        HELD.with(|held| {
            let held = held.borrow();
            if let Some(lowest) = held.1.iter().min_by_key(|h| h.level) {
                if rank.level() >= lowest.level {
                    // lint: allow(no-panic): the doctor reports violations by panicking
                    panic!(
                        "lock-doctor: rank inversion: acquiring `{new_name}` \
                         (rank {new_level}) at {new_site} while holding \
                         `{held_name}` (rank {held_level}) acquired at \
                         {held_site}; locks must be taken in strictly \
                         decreasing rank order — see the lock hierarchy \
                         table in ARCHITECTURE.md",
                        new_name = rank.name(),
                        new_level = rank.level(),
                        new_site = site,
                        held_name = lowest.name,
                        held_level = lowest.level,
                        held_site = lowest.site,
                    );
                }
            }
        });
    }

    /// Push a successfully acquired lock onto the thread's held stack,
    /// returning the token its guard will pop with.
    fn push_held(rank: Rank, site: &'static Location<'static>) -> u64 {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            held.0 += 1;
            let token = held.0;
            held.1.push(Held { token, level: rank.level(), name: rank.name(), site });
            token
        })
    }

    fn pop_held(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.1.iter().rposition(|h| h.token == token) {
                held.1.remove(i);
            }
        });
    }

    /// The ranks (level, name) of locks the current thread holds,
    /// acquisition order. Test/diagnostic hook.
    pub fn held_ranks() -> Vec<(u16, &'static str)> {
        HELD.with(|held| held.borrow().1.iter().map(|h| (h.level, h.name)).collect())
    }

    /// `lock()`-style acquisition with the doctor checks around the
    /// blocking call. Returns the inner guard (or poisoned inner guard)
    /// and the held token its wrapper will pop with.
    fn acquire<R>(
        rank: Rank,
        site: &'static Location<'static>,
        lock: impl FnOnce() -> R,
    ) -> (R, u64) {
        check_acquire(rank, site);
        let res = lock();
        (res, push_held(rank, site))
    }

    /// A rank-checked [`std::sync::Mutex`].
    pub struct Mutex<T: ?Sized> {
        rank: Rank,
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// A mutex at `rank` in the lock hierarchy.
        pub fn new(rank: Rank, value: T) -> Self {
            Mutex { rank, inner: std::sync::Mutex::new(value) }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquire, checking the lock hierarchy. Mirrors
        /// [`std::sync::Mutex::lock`]: a poisoned lock still returns the
        /// (wrapped) guard inside the error.
        #[track_caller]
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let site = Location::caller();
            let (res, token) = acquire(self.rank, site, || self.inner.lock());
            let wrap =
                |inner| MutexGuard { inner: ManuallyDrop::new(inner), rank: self.rank, token };
            match res {
                Ok(g) => Ok(wrap(g)),
                Err(p) => Err(PoisonError::new(wrap(p.into_inner()))),
            }
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Guard for [`Mutex`]; pops the held-lock stack on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        inner: ManuallyDrop<std::sync::MutexGuard<'a, T>>,
        rank: Rank,
        token: u64,
    }

    impl<'a, T: ?Sized> MutexGuard<'a, T> {
        /// Close out the hold and hand back the std guard (for
        /// [`Condvar::wait`], which must pass it to the std condvar
        /// without running our `Drop`).
        fn suspend(mut self) -> (std::sync::MutexGuard<'a, T>, Rank) {
            pop_held(self.token);
            let rank = self.rank;
            // SAFETY: `self` is forgotten immediately after, so the
            // inner guard is moved out exactly once and our Drop (which
            // would drop it again) never runs.
            let inner = unsafe { ManuallyDrop::take(&mut self.inner) };
            std::mem::forget(self);
            (inner, rank)
        }

        /// Re-wrap a std guard handed back by a condvar, re-running the
        /// acquisition bookkeeping.
        fn resume(
            inner: std::sync::MutexGuard<'a, T>,
            rank: Rank,
            site: &'static Location<'static>,
        ) -> Self {
            check_acquire(rank, site);
            let token = push_held(rank, site);
            MutexGuard { inner: ManuallyDrop::new(inner), rank, token }
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            pop_held(self.token);
            // SAFETY: drop runs exactly once; `suspend` forgets `self`
            // before this could run on a moved-out guard.
            unsafe { ManuallyDrop::drop(&mut self.inner) };
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// A condition variable for [`Mutex`]. Waiting releases the hold
    /// (popping the held-lock stack, so the doctor knows the lock is
    /// free during the wait) and re-runs the acquisition checks on
    /// wake-up.
    #[derive(Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// An empty condvar.
        pub fn new() -> Self {
            Condvar { inner: std::sync::Condvar::new() }
        }

        /// Mirror of [`std::sync::Condvar::wait`].
        #[track_caller]
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let site = Location::caller();
            let (inner, rank) = guard.suspend();
            match self.inner.wait(inner) {
                Ok(g) => Ok(MutexGuard::resume(g, rank, site)),
                Err(p) => Err(PoisonError::new(MutexGuard::resume(p.into_inner(), rank, site))),
            }
        }

        /// Wake all waiters.
        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// A rank-checked [`std::sync::RwLock`]. Read and write acquisitions
    /// follow the same strictly-decreasing rule (a read lock still
    /// blocks writers, so it participates in deadlock cycles all the
    /// same).
    pub struct RwLock<T: ?Sized> {
        rank: Rank,
        inner: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// An rwlock at `rank` in the lock hierarchy.
        pub fn new(rank: Rank, value: T) -> Self {
            RwLock { rank, inner: std::sync::RwLock::new(value) }
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Shared acquisition; mirrors [`std::sync::RwLock::read`].
        #[track_caller]
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            let site = Location::caller();
            let (res, token) = acquire(self.rank, site, || self.inner.read());
            let wrap = |inner| RwLockReadGuard { inner: ManuallyDrop::new(inner), token };
            match res {
                Ok(g) => Ok(wrap(g)),
                Err(p) => Err(PoisonError::new(wrap(p.into_inner()))),
            }
        }

        /// Exclusive acquisition; mirrors [`std::sync::RwLock::write`].
        #[track_caller]
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            let site = Location::caller();
            let (res, token) = acquire(self.rank, site, || self.inner.write());
            let wrap = |inner| RwLockWriteGuard { inner: ManuallyDrop::new(inner), token };
            match res {
                Ok(g) => Ok(wrap(g)),
                Err(p) => Err(PoisonError::new(wrap(p.into_inner()))),
            }
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Shared guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T: ?Sized> {
        inner: ManuallyDrop<std::sync::RwLockReadGuard<'a, T>>,
        token: u64,
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            pop_held(self.token);
            // SAFETY: drop runs exactly once and the guard is never
            // moved out (read guards have no `suspend`).
            unsafe { ManuallyDrop::drop(&mut self.inner) };
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// Exclusive guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        inner: ManuallyDrop<std::sync::RwLockWriteGuard<'a, T>>,
        token: u64,
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            pop_held(self.token);
            // SAFETY: drop runs exactly once and the guard is never
            // moved out (write guards have no `suspend`).
            unsafe { ManuallyDrop::drop(&mut self.inner) };
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "lock-doctor")))]
mod imp {
    use super::Rank;
    use std::fmt;
    use std::sync::LockResult;

    /// The ranks of locks the current thread holds. Always empty in
    /// uninstrumented builds.
    pub fn held_ranks() -> Vec<(u16, &'static str)> {
        Vec::new()
    }

    /// Uninstrumented [`std::sync::Mutex`] newtype: the rank is checked
    /// only in instrumented builds, and guards are the std guards
    /// themselves.
    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    /// In uninstrumented builds the guard *is* the std guard — no drop
    /// glue.
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
    /// Std read guard (uninstrumented builds).
    pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
    /// Std write guard (uninstrumented builds).
    pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;
    /// Std condvar (uninstrumented builds): the guard aliases above make
    /// the std wait methods line up exactly.
    pub use std::sync::Condvar;

    impl<T> Mutex<T> {
        /// A mutex at `rank` (unchecked in this build).
        #[inline]
        pub fn new(_rank: Rank, value: T) -> Self {
            Mutex { inner: std::sync::Mutex::new(value) }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Plain [`std::sync::Mutex::lock`].
        #[inline]
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            self.inner.lock()
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Uninstrumented [`std::sync::RwLock`] newtype.
    pub struct RwLock<T: ?Sized> {
        inner: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// An rwlock at `rank` (unchecked in this build).
        #[inline]
        pub fn new(_rank: Rank, value: T) -> Self {
            RwLock { inner: std::sync::RwLock::new(value) }
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Plain [`std::sync::RwLock::read`].
        #[inline]
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            self.inner.read()
        }

        /// Plain [`std::sync::RwLock::write`].
        #[inline]
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            self.inner.write()
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }
}

pub use imp::{held_ranks, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(rank::SERVER_CONNS, 1u32);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 2);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(rank::SERVER_CONNS, vec![1, 2, 3]);
        assert_eq!(l.read().unwrap().len(), 3);
        l.write().unwrap().push(4);
        assert_eq!(l.read().unwrap().len(), 4);
    }

    #[test]
    fn descending_acquisition_is_fine() {
        let hi = Mutex::new(rank::MEMTABLE, ());
        let lo = Mutex::new(rank::WAL, ());
        let _a = hi.lock().unwrap();
        let _b = lo.lock().unwrap();
        if doctor_enabled() {
            assert_eq!(
                held_ranks(),
                vec![(rank::MEMTABLE.level(), "memtable"), (rank::WAL.level(), "wal")]
            );
        }
    }

    #[test]
    fn held_stack_pops_on_drop() {
        if !doctor_enabled() {
            return;
        }
        let m = Mutex::new(rank::WAL, ());
        {
            let _g = m.lock().unwrap();
            assert_eq!(held_ranks(), vec![(rank::WAL.level(), "wal")]);
        }
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn non_lifo_guard_drop_keeps_stack_consistent() {
        if !doctor_enabled() {
            return;
        }
        let hi = Mutex::new(rank::MEMTABLE, ());
        let lo = Mutex::new(rank::WAL, ());
        let a = hi.lock().unwrap();
        let b = lo.lock().unwrap();
        drop(a); // out of order
        assert_eq!(held_ranks(), vec![(rank::WAL.level(), "wal")]);
        drop(b);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn poisoned_lock_returns_guard_in_error() {
        let m = Arc::new(Mutex::new(rank::SERVER_CONNS, 7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(*g, 7);
        if doctor_enabled() {
            assert_eq!(held_ranks().len(), 1);
        }
    }
}
