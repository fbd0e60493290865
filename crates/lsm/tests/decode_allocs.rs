//! Reservation guard for the data-block decoder: nothing checksums a
//! block's codec header or its entry count yet, so a corrupt `raw_len` or
//! count must not size an allocation. Every up-front reservation is capped
//! by what the stored payload can decode to; a header claiming 4 GiB has
//! to come back as `Error::Corruption`, not as a 4 GiB request that aborts
//! the process when the allocator refuses it.
//!
//! A WAL commit record's `raw_len` is covered by its CRC, but a writer bug
//! or a crafted file can still claim 4 GiB behind a valid checksum; replay
//! decodes through the same codec and must reserve no more either.
//!
//! This file is its own test binary on purpose: the `#[global_allocator]`
//! below must not be shared with any other suite, and it holds exactly one
//! test so no concurrently running test raises the recorded maximum.

use proteus_core::codec::crc32;
use proteus_lsm::block::{Block, VarBlockBuilder};
use proteus_lsm::wal::{self, Wal, WAL_CODEC_ZERO_RLE, WAL_TAG_PUT};
use proteus_lsm::{compress, Error, SyncMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator plus the largest single request (`alloc` size or
/// `realloc` new size) seen since the last reset.
struct MaxRequestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is an atomic max.
unsafe impl GlobalAlloc for MaxRequestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: MaxRequestAlloc = MaxRequestAlloc;

/// Wrap a raw block payload in the on-disk codec header, zero-RLE
/// compressed, claiming `raw_len` decoded bytes.
fn compressed(payload: &[u8], raw_len: u32) -> Vec<u8> {
    let mut stored = Vec::new();
    assert!(compress::compress(payload, &mut stored), "half-zero values compress");
    let mut disk = vec![1u8];
    disk.extend_from_slice(&raw_len.to_le_bytes());
    disk.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    disk.extend_from_slice(&stored);
    disk
}

/// Decode `disk`, which must be rejected as corrupt, and return the largest
/// single allocation the attempt requested.
fn largest_request_rejecting(disk: &[u8]) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    let decoded = Block::decode_v3(disk);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(matches!(decoded, Err(Error::Corruption(_))), "{decoded:?}");
    largest
}

#[test]
fn corrupt_block_headers_reserve_no_more_than_the_payload_holds() {
    // A block of `u64` keys with half-zero values, as the harness writes.
    let mut b = VarBlockBuilder::new();
    for i in 0..50u64 {
        let mut value = [0u8; 64];
        value[..32].fill(i as u8 | 1);
        b.add(&(i * 7).to_be_bytes(), Some(&value));
    }
    let (disk, _, _) = b.finish();
    assert_eq!(disk[0], 1, "the block is stored compressed");
    let raw_len = u32::from_le_bytes(disk[1..5].try_into().unwrap());
    let mut payload = Vec::new();
    assert!(compress::decompress(&disk[9..], raw_len as usize, &mut payload));
    assert!(Block::decode_v3(&compressed(&payload, raw_len)).is_ok());
    // What the decoder may reserve: the payload, the keys and the entry
    // table of a block this size, with room to spare.
    let cap = 4 * payload.len();

    // The codec header claims 4 GiB of decoded payload.
    let largest = largest_request_rejecting(&compressed(&payload, u32::MAX));
    assert!(largest <= cap, "a u32::MAX raw_len reserved {largest} bytes (cap {cap})");

    // The entry count claims 4 Gi entries, behind an honest header.
    payload[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let largest = largest_request_rejecting(&compressed(&payload, raw_len));
    assert!(largest <= cap, "a u32::MAX entry count reserved {largest} bytes (cap {cap})");

    // Both at once.
    let largest = largest_request_rejecting(&compressed(&payload, u32::MAX));
    assert!(largest <= cap, "u32::MAX raw_len and count reserved {largest} bytes (cap {cap})");

    // The same count in a block stored raw.
    let mut raw = vec![0u8];
    raw.extend_from_slice(&raw_len.to_le_bytes());
    raw.extend_from_slice(&raw_len.to_le_bytes());
    raw.extend_from_slice(&payload);
    let largest = largest_request_rejecting(&raw);
    assert!(largest <= cap, "a raw block's u32::MAX count reserved {largest} bytes (cap {cap})");

    // A CRC-valid WAL record whose zero-RLE stream claims u32::MAX bytes:
    // one put of an 8-byte key and a half-zero value.
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(WAL_TAG_PUT);
    payload.extend_from_slice(&8u64.to_le_bytes());
    payload.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
    payload.extend_from_slice(&128u64.to_le_bytes());
    payload.resize(payload.len() + 64, 0);
    payload.resize(payload.len() + 64, 0xA5);
    let mut stored = vec![WAL_CODEC_ZERO_RLE];
    stored.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(compress::compress(&payload, &mut stored));
    let dir = std::env::temp_dir().join(format!("proteus-decode-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    drop(Wal::create(&dir, 1, 8, SyncMode::Off).unwrap());
    let path = wal::segment_path(&dir, 1);
    let mut segment = std::fs::read(&path).unwrap();
    segment.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    segment.extend_from_slice(&crc32(&stored).to_le_bytes());
    segment.extend_from_slice(&stored);
    std::fs::write(&path, &segment).unwrap();
    LARGEST.store(0, Ordering::Relaxed);
    let replayed = wal::replay_segment(&path, 8);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(matches!(replayed, Err(Error::Corruption(_))), "{replayed:?}");
    // The file read, its path and the error message: a page at most.
    assert!(largest <= 4096, "a u32::MAX WAL raw_len reserved {largest} bytes");
    let _ = std::fs::remove_dir_all(&dir);
}
