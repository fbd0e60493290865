//! Black-box tests for the lock-doctor: the rank-inversion detector must
//! fire and name both acquisition sites, condvar waits must release the
//! held-stack entry for the duration of the wait, and uninstrumented
//! builds must add zero bytes and (within a generous bound) zero time.

use proteus_core::sync::{doctor_enabled, rank, Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Acquiring a higher (or equal) rank while holding a lower one must
/// panic, and the message must carry enough to debug it blind: both lock
/// names, both ranks, and both source locations.
#[test]
fn rank_inversion_panics_naming_both_sites() {
    if !doctor_enabled() {
        return;
    }
    // A fresh thread so the panic can't disturb this thread's held stack.
    let result = std::thread::spawn(|| {
        let wal = Mutex::new(rank::WAL, ());
        let mem = Mutex::new(rank::MEMTABLE, ());
        let _held = wal.lock().unwrap(); // first site
        let _bad = mem.lock(); // second site: 80 while holding 60
    })
    .join();
    let payload = result.expect_err("the inversion must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("rank inversion"), "unexpected message: {msg}");
    assert!(msg.contains("`memtable`") && msg.contains("`wal`"), "names both locks: {msg}");
    assert!(msg.contains("rank 80") && msg.contains("rank 60"), "names both ranks: {msg}");
    // Both acquisition sites are in this file, on different lines.
    let sites: Vec<usize> = msg.match_indices("lock_doctor.rs:").map(|(i, _)| i).collect();
    assert_eq!(sites.len(), 2, "names both acquisition sites: {msg}");
    let first = &msg[sites[0]..msg[sites[0]..].find(' ').map_or(msg.len(), |e| sites[0] + e)];
    let second = &msg[sites[1]..msg[sites[1]..].find(' ').map_or(msg.len(), |e| sites[1] + e)];
    assert_ne!(first, second, "the two sites are distinct lines: {msg}");
}

/// Taking the same rank twice is also an inversion (strictly decreasing
/// order), which is what makes self-deadlock on one mutex detectable.
#[test]
fn same_rank_reentry_panics() {
    if !doctor_enabled() {
        return;
    }
    let result = std::thread::spawn(|| {
        let a = Mutex::new(rank::CACHE_SHARD, ());
        let b = Mutex::new(rank::CACHE_SHARD, ());
        let _first = a.lock().unwrap();
        let _second = b.lock(); // would deadlock if it were the same lock
    })
    .join();
    assert!(result.is_err(), "equal-rank nesting must panic");
}

/// A condvar wait atomically releases the mutex, so the doctor must drop
/// the held-stack entry for the duration of the wait (another thread can
/// take the lock) and restore it when the wait returns.
#[test]
fn condvar_wait_releases_and_reacquires_the_held_entry() {
    let pair = Arc::new((Mutex::new(rank::WAL, false), Condvar::new()));
    let observed_free = Arc::new(AtomicBool::new(false));

    let waiter = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            let (m, cv) = &*pair;
            let mut g = m.lock().unwrap();
            while !*g {
                g = cv.wait(g).unwrap();
            }
            // Back from the wait: the guard works and, in instrumented
            // builds, the held stack shows the lock again.
            if doctor_enabled() {
                let held = proteus_core::sync::held_ranks();
                assert_eq!(held, vec![(rank::WAL.level(), "wal")], "stack restored after wait");
            }
            *g = false;
        })
    };

    // This thread CAN take the mutex while the waiter is parked — which is
    // only possible if the wait really suspended the guard (and, in
    // instrumented builds, its held-stack entry; a leaked entry would trip
    // the doctor when the waiter's own reacquisition pushes a second one).
    let (m, cv) = &*pair;
    for _ in 0..1000 {
        let mut g = m.lock().unwrap();
        if !*g {
            observed_free.store(true, Ordering::Relaxed);
            *g = true;
            cv.notify_all();
            drop(g);
            break;
        }
        drop(g);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(observed_free.load(Ordering::Relaxed), "mutex never became free during the wait");
    waiter.join().expect("waiter must not panic");
    // After everything, this thread holds nothing.
    if doctor_enabled() {
        assert!(proteus_core::sync::held_ranks().is_empty());
    }
}

/// Waiting must not unwind the *whole* stack: a wait while holding a
/// higher-rank lock keeps that outer entry (only the condvar's own mutex
/// suspends), so a lower-rank acquisition after the wait still validates.
#[test]
fn condvar_wait_keeps_outer_locks_on_the_stack() {
    if !doctor_enabled() {
        return;
    }
    let outer = Mutex::new(rank::MEMTABLE, ());
    let pair = Arc::new((Mutex::new(rank::WAL, false), Condvar::new()));
    let _o = outer.lock().unwrap();
    let mut g = pair.0.lock().unwrap();
    let notifier = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            let (m, cv) = &*pair;
            *m.lock().unwrap() = true;
            cv.notify_all();
        })
    };
    while !*g {
        g = pair.1.wait(g).unwrap();
    }
    let held = proteus_core::sync::held_ranks();
    assert_eq!(
        held,
        vec![(rank::MEMTABLE.level(), "memtable"), (rank::WAL.level(), "wal")],
        "outer lock survives the wait; inner entry is restored in order"
    );
    drop(g);
    notifier.join().expect("notifier must not panic");
    // Descending acquisition still fine after the resume.
    let lo = Mutex::new(rank::MANIFEST, ());
    let _l = lo.lock().unwrap();
}

/// Uninstrumented builds must be zero-cost: the wrappers are the std
/// types plus nothing, and guards are literally the std guards.
#[cfg(not(any(debug_assertions, feature = "lock-doctor")))]
mod no_overhead {
    use super::*;
    use proteus_core::sync::RwLock;
    use std::mem::size_of;

    #[test]
    fn wrappers_add_no_bytes() {
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<std::sync::Mutex<u64>>());
        assert_eq!(size_of::<RwLock<u64>>(), size_of::<std::sync::RwLock<u64>>());
        assert_eq!(size_of::<Condvar>(), size_of::<std::sync::Condvar>());
        assert_eq!(
            size_of::<proteus_core::sync::MutexGuard<'_, u64>>(),
            size_of::<std::sync::MutexGuard<'_, u64>>()
        );
        assert!(!doctor_enabled());
    }

    #[test]
    fn uncontended_lock_unlock_stays_cheap() {
        // A deliberately generous bound (~1µs/op uncontended would be two
        // orders of magnitude above a healthy parking-lot-free mutex):
        // catches an accidentally instrumented release build, not noise.
        let m = Mutex::new(rank::SERVER_CONNS, 0u64);
        let start = std::time::Instant::now();
        for _ in 0..100_000 {
            *m.lock().unwrap() += 1;
        }
        let per_op = start.elapsed().as_nanos() / 100_000;
        assert_eq!(*m.lock().unwrap(), 100_000);
        assert!(per_op < 1_000, "uncontended lock/unlock took {per_op} ns/op");
    }
}
