//! Run the store as a network service: start a sharded TCP server, talk
//! to it over the wire protocol, and shut it down gracefully.
//!
//! Run: `cargo run --release --example server_roundtrip`

use proteus::lsm::{DbConfig, ProteusFactory};
use proteus::{Client, Server};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("proteus-server-example-{}", std::process::id()));

    // 1. Start 4 range shards behind one TCP listener (port 0 = pick a
    //    free port). Each shard is a full proteus-lsm store: its own WAL,
    //    MemTables, SSTs, background worker and self-designing filters.
    let server = Server::start(
        &dir,
        ("127.0.0.1", 0),
        4,
        DbConfig::default(),
        Arc::new(ProteusFactory::default()),
    )?;
    println!("serving 4 shards on {}", server.local_addr());

    // 2. Connect and issue requests. Keys are the store's fixed-width
    //    big-endian layout (8 bytes by default) — the router splits that
    //    key space contiguously across shards, so range ops stay sorted.
    let mut client = Client::connect(server.local_addr())?;
    for i in 0..1000u64 {
        // Spread keys over the whole space so every shard owns some.
        let key = (i * (u64::MAX / 1000)).to_be_bytes();
        client.put(&key, format!("value-{i}").as_bytes())?;
    }
    let probe = (500 * (u64::MAX / 1000)).to_be_bytes();
    println!("get -> {:?}", client.get(&probe)?.map(String::from_utf8));

    // 3. A scan across every shard comes back globally sorted: shard i's
    //    keys all sort before shard i+1's, so the server just concatenates.
    let lo = 0u64.to_be_bytes();
    let hi = u64::MAX.to_be_bytes();
    let (entries, more) = client.scan(&lo, &hi, 5)?;
    println!("first {} keys of the full-space scan (more={more}):", entries.len());
    for (k, v) in &entries {
        println!("  {:02x?} -> {}", &k[..4], String::from_utf8_lossy(v));
    }

    // 4. Per-shard stats over the wire: routing balance, WAL commits,
    //    flush/compaction activity.
    for s in client.stats()? {
        println!(
            "shard {}: commits={} gets={} flushes={} ssts={}",
            s.shard, s.commits, s.gets, s.flushes, s.sst_files
        );
    }

    // 5. Graceful shutdown: drain in-flight requests, join every
    //    connection thread, then drop each shard (final WAL sync) — every
    //    acked write is recoverable on the next start.
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
