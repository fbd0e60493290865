//! End-to-end tests: the sharded server over real TCP sockets.
//!
//! Covers the three server-hardening scenarios from the issue checklist:
//! concurrent clients across shards with acked-write high-water marks,
//! malformed/truncated/oversized frames answered with typed protocol
//! errors (never a panic, never a hang), and kill-and-reconnect proving
//! every shard recovers acked writes through its WAL.

use proptest::prelude::*;
use proteus_lsm::{DbConfig, ProteusFactory};
use proteus_server::protocol::{write_frame, MAX_FRAME_LEN, VERB_GET, VERB_PUT};
use proteus_server::{Client, ClientError, ErrorCode, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn test_config() -> DbConfig {
    // Small MemTables so tests exercise flushes/SSTs, not just the
    // in-memory path; sync Off keeps the filesystem traffic cheap (process
    // exit loses nothing — the recovery test relies on exactly that).
    DbConfig::builder().memtable_bytes(64 << 10).build().unwrap()
}

fn start_server(dir: &std::path::Path, n_shards: usize) -> Server {
    Server::start(
        dir,
        ("127.0.0.1", 0),
        n_shards,
        test_config(),
        Arc::new(ProteusFactory::default()),
    )
    .unwrap()
}

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

#[test]
fn roundtrip_through_every_verb() {
    let dir = tempdir();
    let server = start_server(dir.path(), 2);
    let mut c = Client::connect(server.local_addr()).unwrap();

    c.ping().unwrap();
    assert_eq!(c.get(&key(1)).unwrap(), None);
    c.put(&key(1), b"one").unwrap();
    c.put(&key(2), b"two").unwrap();
    assert_eq!(c.get(&key(1)).unwrap(), Some(b"one".to_vec()));
    c.delete(&key(1)).unwrap();
    assert_eq!(c.get(&key(1)).unwrap(), None);
    assert!(c.seek(&key(0), &key(10)).unwrap());
    assert!(!c.seek(&key(100), &key(200)).unwrap());
    let (entries, more) = c.scan(&key(0), &key(10), 0).unwrap();
    assert_eq!(entries, vec![(key(2).to_vec(), b"two".to_vec())]);
    assert!(!more);
    let stats = c.stats().unwrap();
    assert_eq!(stats.len(), 2);
    assert_eq!(stats.iter().map(|s| s.commits).sum::<u64>(), 3, "2 puts + 1 delete");
}

#[test]
fn scans_across_shards_come_back_globally_sorted() {
    let dir = tempdir();
    let server = start_server(dir.path(), 4);
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Keys spread over the whole u64 space so every shard owns some.
    let stride = u64::MAX / 64;
    let keys: Vec<u64> = (0..64).map(|i| i * stride).collect();
    // Insert in shuffled order.
    for (i, &k) in keys.iter().enumerate().rev() {
        c.put(&key(k), format!("v{i}").as_bytes()).unwrap();
    }
    let stats = c.stats().unwrap();
    let per_shard: Vec<u64> = stats.iter().map(|s| s.commits).collect();
    assert!(per_shard.iter().all(|&n| n > 0), "every shard must own keys: {per_shard:?}");

    let (entries, more) = c.scan(&key(0), &key(u64::MAX), 0).unwrap();
    assert!(!more);
    let got: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
    let want: Vec<Vec<u8>> = keys.iter().map(|&k| key(k).to_vec()).collect();
    assert_eq!(got, want, "cross-shard scan must be globally sorted");

    // A limit cuts the scan short and reports `more`.
    let (entries, more) = c.scan(&key(0), &key(u64::MAX), 10).unwrap();
    assert_eq!(entries.len(), 10);
    assert!(more);

    // Seek spans shards too: probe a range owned entirely by the last
    // shard.
    assert!(c.seek(&key(63 * stride), &key(u64::MAX)).unwrap());
}

#[test]
fn concurrent_clients_acked_writes_all_readable() {
    let dir = tempdir();
    let server = start_server(dir.path(), 4);
    let addr = server.local_addr();

    // 8 writer threads, each acking a contiguous key block and recording
    // its high-water mark. Every key at or below an acked high-water mark
    // must be readable afterwards — from any connection.
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 200;
    let marks: Vec<u64> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut high = 0;
                for i in 0..PER_WRITER {
                    // Spread across the key space so all shards get load.
                    let k = (w * PER_WRITER + i) * (u64::MAX / (WRITERS * PER_WRITER));
                    c.put(&key(k), &k.to_le_bytes()).unwrap();
                    high = i; // acked: the server answered Ok
                }
                high
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    let mut c = Client::connect(addr).unwrap();
    for (w, &high) in marks.iter().enumerate() {
        for i in 0..=high {
            let k = (w as u64 * PER_WRITER + i) * (u64::MAX / (WRITERS * PER_WRITER));
            assert_eq!(
                c.get(&key(k)).unwrap(),
                Some(k.to_le_bytes().to_vec()),
                "acked write below writer {w}'s high-water mark lost (i={i})"
            );
        }
    }
    let stats = c.stats().unwrap();
    let total: u64 = stats.iter().map(|s| s.commits).sum();
    assert_eq!(total, WRITERS * PER_WRITER);
    assert!(stats.iter().all(|s| s.commits > 0), "load must reach every shard: {stats:?}");
}

#[test]
fn malformed_frames_get_typed_errors_not_panics_or_hangs() {
    let dir = tempdir();
    let server = start_server(dir.path(), 2);
    let addr = server.local_addr();

    // Out-of-bounds key lengths → BadKey, and the connection stays
    // usable. Keys are arbitrary byte strings now, so only the empty key
    // and keys over the store's 1024-byte limit are rejected.
    let mut c = Client::connect(addr).unwrap();
    match c.get(b"") {
        Err(ClientError::Remote { code: ErrorCode::BadKey, .. }) => {}
        other => panic!("expected BadKey for the empty key, got {other:?}"),
    }
    match c.get(&[7u8; 2000]) {
        Err(ClientError::Remote { code: ErrorCode::BadKey, .. }) => {}
        other => panic!("expected BadKey for an oversized key, got {other:?}"),
    }
    match c.scan(b"", &key(5), 0) {
        Err(ClientError::Remote { code: ErrorCode::BadKey, .. }) => {}
        other => panic!("expected BadKey for scan bounds, got {other:?}"),
    }
    match c.seek(&key(0), &[7u8; 2000]) {
        Err(ClientError::Remote { code: ErrorCode::BadKey, .. }) => {}
        other => panic!("expected BadKey for seek bounds, got {other:?}"),
    }
    c.put(b"short", b"legal").unwrap(); // 5-byte keys are valid now
    assert_eq!(c.get(b"short").unwrap(), Some(b"legal".to_vec()));
    c.ping().unwrap(); // same connection still serves

    // Unknown verb byte → UnknownVerb.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut raw, &[0x7F]).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::UnknownVerb.as_byte());

    // Truncated request body (a GET missing its key run) → BadFrame.
    write_frame(&mut raw, &[VERB_GET]).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::BadFrame.as_byte());

    // Trailing garbage after a well-formed body → BadFrame.
    let mut payload = vec![VERB_PUT];
    payload.extend_from_slice(&8u64.to_le_bytes());
    payload.extend_from_slice(&key(9));
    payload.extend_from_slice(&0u64.to_le_bytes()); // empty value
    payload.push(0xAB); // trailing byte
    write_frame(&mut raw, &payload).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::BadFrame.as_byte());

    // The same connection still serves after every rejection.
    write_frame(&mut raw, &[proteus_server::protocol::VERB_PING]).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), 0);

    // Oversized frame length → TooLarge, then the server closes (the
    // stream cannot be resynchronized).
    let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
    raw.write_all(&huge).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::TooLarge.as_byte());
    let mut byte = [0u8; 1];
    assert_eq!(raw.read(&mut byte).unwrap(), 0, "server must close after TooLarge");

    // A torn frame (length prefix promising more than ever arrives) must
    // not wedge the server: the connection dies quietly and new
    // connections still serve.
    let mut torn = TcpStream::connect(addr).unwrap();
    torn.write_all(&100u32.to_le_bytes()).unwrap();
    torn.write_all(&[1, 2, 3]).unwrap(); // 3 of the promised 100 bytes
    drop(torn);
    let mut c2 = Client::connect(addr).unwrap();
    c2.ping().unwrap();
}

/// Read one response frame from a raw socket and return its status byte.
fn read_status(s: &mut TcpStream) -> u8 {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut payload).unwrap();
    payload[0]
}

#[test]
fn kill_and_reconnect_recovers_every_shard_through_the_wal() {
    let dir = tempdir();
    const SHARDS: usize = 3;
    const KEYS: u64 = 300;
    let stride = u64::MAX / KEYS;

    // Write with SyncMode::Off and *small enough volume* that the active
    // MemTables never flush: every acked write lives only in WAL +
    // memory when the server dies. (Process exit loses no page-cache
    // writes; SyncMode governs power-loss durability, not process-crash
    // durability.)
    {
        let server = start_server(dir.path(), SHARDS);
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..KEYS {
            c.put(&key(i * stride), &i.to_le_bytes()).unwrap();
        }
        // Delete a few so tombstones replay too.
        for i in 0..10 {
            c.delete(&key(i * 30 * stride)).unwrap();
        }
        let stats = c.stats().unwrap();
        assert!(
            stats.iter().all(|s| s.commits > 0),
            "every shard must have taken writes: {stats:?}"
        );
        assert_eq!(stats.iter().map(|s| s.flushes).sum::<u64>(), 0, "nothing may have flushed");
        drop(server); // graceful shutdown; Db::drop seals each WAL
    }

    // Restart on the same directory with the same shard count.
    let server = start_server(dir.path(), SHARDS);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.len(), SHARDS);
    for s in &stats {
        assert!(
            s.wal_replayed > 0,
            "shard {} recovered nothing through its WAL: {stats:?}",
            s.shard
        );
    }
    let deleted: Vec<u64> = (0..10).map(|i| i * 30).collect();
    for i in 0..KEYS {
        let got = c.get(&key(i * stride)).unwrap();
        if deleted.contains(&i) {
            assert_eq!(got, None, "tombstone for key {i} lost in recovery");
        } else {
            assert_eq!(got, Some(i.to_le_bytes().to_vec()), "acked key {i} lost in recovery");
        }
    }
}

#[test]
fn a_changed_shard_count_is_refused_before_any_shard_opens() {
    let dir = tempdir();
    let keys: Vec<[u8; 8]> = (0..60u64).map(|i| key(i * (u64::MAX / 60))).collect();
    {
        let server = start_server(dir.path(), 3);
        let mut c = Client::connect(server.local_addr()).unwrap();
        for (i, k) in keys.iter().enumerate() {
            c.put(k, &i.to_le_bytes()).unwrap();
        }
    }
    let refused = Server::start(
        dir.path(),
        ("127.0.0.1", 0),
        2,
        test_config(),
        Arc::new(ProteusFactory::default()),
    );
    match refused {
        Err(proteus_server::Error::ShardCount { found: 3, requested: 2 }) => {}
        Err(other) => panic!("expected ShardCount, got {other}"),
        Ok(_) => panic!("a 3-shard directory must not start with 2 shards"),
    }
    let server = start_server(dir.path(), 3);
    let mut c = Client::connect(server.local_addr()).unwrap();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(c.get(k).unwrap(), Some(i.to_le_bytes().to_vec()), "key {i}");
    }
}

#[test]
fn shutdown_verb_drains_and_stops_the_server() {
    let dir = tempdir();
    let server = start_server(dir.path(), 2);
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.put(&key(42), b"v").unwrap();
    c.shutdown().unwrap(); // acked before the drain begins
    server.wait(); // observes the flag set by the verb

    // The verb stops the acceptor and closes its own connection; any
    // other stays open until the drop below drains it. Then the listener
    // must be gone.
    drop(server);
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can let one connect through; it must not
            // serve.
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        },
        "server still serving after shutdown"
    );

    // Reopen: the acked pre-shutdown write survived.
    let server = start_server(dir.path(), 2);
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.get(&key(42)).unwrap(), Some(b"v".to_vec()));
}

#[test]
fn shutdown_closes_idle_and_stalled_connections_at_once() {
    let dir = tempdir();
    let mut server = start_server(dir.path(), 2);
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();
    // A peer that stalls mid-frame: served once, then only the length
    // prefix of a frame promising 100 bytes.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut stalled, &[proteus_server::protocol::VERB_PING]).unwrap();
    assert_eq!(read_status(&mut stalled), 0);
    stalled.write_all(&100u32.to_le_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(20)); // let the server read it

    let start = std::time::Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown took {took:?}");

    let mut byte = [0u8; 1];
    assert_eq!(stalled.read(&mut byte).unwrap(), 0, "the stalled peer must read EOF");
    assert!(matches!(idle.ping(), Err(ClientError::Io(_))), "the idle peer must be closed");
}

#[test]
fn string_keys_scan_globally_sorted_across_shards() {
    let dir = tempdir();
    let server = start_server(dir.path(), 4);
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Variable-length keys whose first bytes span the whole space, so
    // every shard owns some; lengths range from 1 byte to ~1 KiB.
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for i in 0..128u32 {
        let first = (i * 2) as u8;
        let mut k = vec![first];
        match i % 4 {
            0 => {}
            1 => k.extend_from_slice(format!("/url/{:03}/page", i).as_bytes()),
            2 => k.extend_from_slice(&[first; 16]),
            _ => k.resize(1 + (i as usize % 900), b'x'),
        }
        keys.push(k);
    }
    keys.sort();
    keys.dedup();
    // Insert in reverse order; values echo the key for byte-exact checks.
    for k in keys.iter().rev() {
        c.put(k, k).unwrap();
    }
    let stats = c.stats().unwrap();
    let per_shard: Vec<u64> = stats.iter().map(|s| s.commits).collect();
    assert!(per_shard.iter().all(|&n| n > 0), "every shard must own keys: {per_shard:?}");

    // One cross-shard scan over everything: globally sorted, complete,
    // byte-exact — zero false negatives through each shard's filters.
    let (entries, more) = c.scan(&[0x00], &[0xFF; 1024], 0).unwrap();
    assert!(!more);
    let got: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(got, keys, "cross-shard string scan must be globally sorted and complete");
    for (k, v) in &entries {
        assert_eq!(k, v, "value served under the wrong key");
    }

    // Point ops agree on both sides of a shard boundary prefix.
    assert!(c.seek(&keys[0], keys.last().unwrap()).unwrap());
    c.delete(&keys[3]).unwrap();
    assert_eq!(c.get(&keys[3]).unwrap(), None);
    assert_eq!(c.get(&keys[4]).unwrap(), Some(keys[4].clone()));
}

#[test]
fn malformed_var_len_key_frames_get_typed_errors() {
    let dir = tempdir();
    let server = start_server(dir.path(), 2);
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // A key length prefix promising more bytes than the frame holds →
    // BadFrame (the decoder must not over-read).
    for promised in [9u64, 1 << 20, u64::MAX] {
        let mut payload = vec![VERB_GET];
        payload.extend_from_slice(&promised.to_le_bytes());
        payload.extend_from_slice(b"tiny"); // 4 actual bytes
        write_frame(&mut raw, &payload).unwrap();
        raw.flush().unwrap();
        assert_eq!(
            read_status(&mut raw),
            ErrorCode::BadFrame.as_byte(),
            "length prefix {promised} must be BadFrame"
        );
    }

    // A well-formed frame carrying an empty key → BadKey (wire-legal,
    // store-illegal).
    let mut payload = vec![VERB_GET];
    payload.extend_from_slice(&0u64.to_le_bytes());
    write_frame(&mut raw, &payload).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::BadKey.as_byte());

    // A well-formed frame carrying a key over the 1024-byte limit → BadKey.
    let mut payload = vec![VERB_PUT];
    payload.extend_from_slice(&1025u64.to_le_bytes());
    payload.extend_from_slice(&[7u8; 1025]);
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(b'v');
    write_frame(&mut raw, &payload).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::BadKey.as_byte());

    // A SCAN whose hi bound's length prefix lies → BadFrame; whose hi
    // bound is empty → BadKey.
    let mut payload = vec![proteus_server::protocol::VERB_SCAN];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(b'a');
    payload.extend_from_slice(&500u64.to_le_bytes()); // promises 500, sends 1
    payload.push(b'z');
    payload.extend_from_slice(&0u32.to_le_bytes());
    write_frame(&mut raw, &payload).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::BadFrame.as_byte());

    let mut payload = vec![proteus_server::protocol::VERB_SCAN];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(b'a');
    payload.extend_from_slice(&0u64.to_le_bytes()); // empty hi bound
    payload.extend_from_slice(&0u32.to_le_bytes());
    write_frame(&mut raw, &payload).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), ErrorCode::BadKey.as_byte());

    // After every rejection the same connection still serves valid
    // var-len traffic.
    let mut c = Client::connect(addr).unwrap();
    c.put(b"https://example.com/a", b"ok").unwrap();
    assert_eq!(c.get(b"https://example.com/a").unwrap(), Some(b"ok".to_vec()));
    write_frame(&mut raw, &[proteus_server::protocol::VERB_PING]).unwrap();
    raw.flush().unwrap();
    assert_eq!(read_status(&mut raw), 0);
}

// ------------------------------------------------- router property tests

/// Tiny xorshift for deterministic key generation inside proptest cases.
struct KeyRng(u64);

impl KeyRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x
    }

    /// An arbitrary byte-string key, 1..=64 bytes, arbitrary content.
    fn key(&mut self) -> Vec<u8> {
        let len = 1 + self.next() as usize % 64;
        (0..len).map(|_| self.next() as u8).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Router monotonicity over arbitrary byte-string keys: sorting keys
    /// must sort their shards, every shard is in bounds, and a range's
    /// shard run brackets exactly the shards its keys land in — the
    /// property that lets cross-shard SCAN concatenate per-shard results
    /// without a merge.
    #[test]
    fn router_is_monotone_over_string_keys(seed in 0u64..u64::MAX / 2, n_shards in 1u64..12) {
        let router = proteus_server::Router::new(n_shards as usize);
        let mut rng = KeyRng(seed);
        let mut keys: Vec<Vec<u8>> = (0..200).map(|_| rng.key()).collect();
        keys.sort();
        let mut prev = 0usize;
        for k in &keys {
            let s = router.shard_of(k);
            prop_assert!(s < n_shards as usize, "shard {s} out of bounds");
            prop_assert!(s >= prev, "shard order regressed at {k:?}");
            prev = s;
        }
        // Any [lo, hi] pair: the shard run is exactly shard(lo)..=shard(hi)
        // and contains the shard of every key inside the range.
        let (lo, hi) = (&keys[17], &keys[180]);
        let run = router.shards_for_range(lo, hi);
        for k in &keys[17..=180] {
            prop_assert!(run.contains(&router.shard_of(k)), "key {k:?} outside its range's run");
        }
        // Inverted bounds are an empty run.
        prop_assert_eq!(router.shards_for_range(hi, lo).count(), 0);
    }
}

// ---------------------------------------------------------------- tempdir

/// Minimal self-cleaning temp directory (no external tempfile crate).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tempdir() -> TempDir {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let pid = std::process::id();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("proteus-server-test-{pid}-{seq}"));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}
