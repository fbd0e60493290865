//! A store runs one background thread: flushes, compactions and periodic
//! filter re-training share it, and barriers run on their caller. This
//! binary holds a single test so that no other test's store adds threads
//! while it counts them.

#[cfg(target_os = "linux")]
mod common;

#[cfg(target_os = "linux")]
#[test]
fn a_store_runs_exactly_one_background_thread() {
    use common::open_unfiltered;
    use proteus_lsm::DbConfig;
    use std::time::{Duration, Instant};

    /// Threads of this process named like the store's worker, once the
    /// count reaches `expected` or 5 s have passed: a new thread names
    /// itself after `spawn` returns, and the kernel drops an exited
    /// thread's task entry a moment after `join` returns.
    fn bg_threads(expected: usize) -> usize {
        let count = || {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.trim_end() == "proteus-lsm-bg")
                .count()
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while count() != expected && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        count()
    }

    let dir = std::env::temp_dir().join(format!("proteus-one-worker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(bg_threads(0), 0);
    // Periodic adaptive passes on: the same worker serves them.
    let cfg = DbConfig::builder().adapt_enabled(true).memtable_bytes(4 << 10).build().unwrap();
    let db = open_unfiltered(&dir, cfg).unwrap();
    assert_eq!(bg_threads(1), 1, "Db::open starts exactly one worker");
    // Flushes run on it; a settle and a requested pass run on this thread
    // and start no thread of their own.
    for i in 0..2_000u64 {
        db.put_u64(i, &[7u8; 32]).unwrap();
    }
    db.flush_and_settle().unwrap();
    assert_eq!(db.adapt_now().unwrap(), 0, "no filter to re-train");
    assert!(db.stats().flushes.get() > 1);
    assert_eq!(bg_threads(1), 1);
    drop(db);
    assert_eq!(bg_threads(0), 0, "dropping the Db stops its worker");
    let _ = std::fs::remove_dir_all(&dir);
}
