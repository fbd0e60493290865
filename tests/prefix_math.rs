//! Property tests for the bit-level prefix arithmetic that the whole CPFPR
//! model rests on, cross-checked against plain u64 reference computations
//! and against wide-key equivalents.

use proptest::prelude::*;
use proteus::core::key::{
    bit_slice, end_region_counts, increment_prefix, lcp_bits, mask_tail, pad_key, prefix_count,
    set_tail_ones, u64_key, ProbeBudget, RegionWalk, Walk,
};

proptest! {
    #[test]
    fn lcp_matches_xor_reference(a: u64, b: u64) {
        let want = if a == b { 64 } else { (a ^ b).leading_zeros() as usize };
        prop_assert_eq!(lcp_bits(&u64_key(a), &u64_key(b)), want);
    }

    #[test]
    fn prefix_count_matches_shift_reference(x: u64, y: u64, l in 1usize..=64) {
        let (lo, hi) = (x.min(y), x.max(y));
        let shift = 64 - l;
        let want = (hi >> shift) - (lo >> shift) + 1;
        prop_assert_eq!(prefix_count(&u64_key(lo), &u64_key(hi), l, u64::MAX), want);
    }

    #[test]
    fn prefix_count_saturates_consistently(x: u64, y: u64, l in 1usize..=64, cap in 1u64..10_000) {
        let (lo, hi) = (x.min(y), x.max(y));
        let exact = prefix_count(&u64_key(lo), &u64_key(hi), l, u64::MAX);
        let capped = prefix_count(&u64_key(lo), &u64_key(hi), l, cap);
        prop_assert_eq!(capped, exact.min(cap));
    }

    #[test]
    fn wide_keys_agree_with_u64_on_low_bits(x: u64, y: u64, l in 1usize..=64) {
        // Embed the u64s in the low 8 bytes of 24-byte keys with equal
        // high parts: all the arithmetic must agree with the u64 case at
        // shifted prefix lengths.
        let (lo, hi) = (x.min(y), x.max(y));
        let mut wlo = vec![0xABu8; 16];
        wlo.extend_from_slice(&u64_key(lo));
        let mut whi = vec![0xABu8; 16];
        whi.extend_from_slice(&u64_key(hi));
        prop_assert_eq!(
            prefix_count(&wlo, &whi, 128 + l, u64::MAX),
            prefix_count(&u64_key(lo), &u64_key(hi), l, u64::MAX)
        );
        prop_assert_eq!(lcp_bits(&wlo, &whi), 128 + lcp_bits(&u64_key(lo), &u64_key(hi)));
    }

    #[test]
    fn end_regions_match_reference(x: u64, y: u64, l1 in 1usize..63, extra in 1usize..32) {
        let (lo, hi) = (x.min(y), x.max(y));
        let l2 = (l1 + extra).min(64);
        prop_assume!(l2 > l1);
        let (gl, gr) = end_region_counts(&u64_key(lo), &u64_key(hi), l1, l2, u64::MAX);
        // Reference on u64: count l2-prefixes of [lo,hi] within the first
        // and last l1-regions.
        let s2 = 64 - l2;
        let (lo2, hi2) = (lo >> s2, hi >> s2);
        let s1 = 64 - l1;
        let (lo1, hi1) = (lo >> s1, hi >> s1);
        let q2 = hi2 - lo2 + 1;
        let (wl, wr) = if lo1 == hi1 {
            (q2, q2)
        } else {
            let region = 1u64 << (l2 - l1);
            let first_end = ((lo1 + 1) << (l2 - l1)) - 1;
            let last_start = hi1 << (l2 - l1);
            let _ = region;
            (first_end - lo2 + 1, hi2 - last_start + 1)
        };
        prop_assert_eq!((gl, gr), (wl, wr), "lo={:#x} hi={:#x} l1={} l2={}", lo, hi, l1, l2);
    }

    #[test]
    fn increment_prefix_is_addition(x: u64, l in 1usize..=64) {
        let mut k = u64_key(x);
        mask_tail(&mut k, l);
        let masked = u64::from_be_bytes(k);
        let overflow = increment_prefix(&mut k, l);
        let step = 1u64 << (64 - l);
        let expect_overflow = masked.checked_add(step).is_none();
        prop_assert_eq!(overflow, expect_overflow);
        if !overflow {
            prop_assert_eq!(u64::from_be_bytes(k), masked.wrapping_add(step));
        }
    }

    #[test]
    fn mask_and_ones_bracket_the_region(x: u64, l in 0usize..=64) {
        let mut lo = u64_key(x);
        mask_tail(&mut lo, l);
        let mut hi = u64_key(x);
        set_tail_ones(&mut hi, l);
        let lo_v = u64::from_be_bytes(lo);
        let hi_v = u64::from_be_bytes(hi);
        prop_assert!(lo_v <= x && x <= hi_v);
        if l > 0 && l < 64 {
            prop_assert_eq!(hi_v - lo_v + 1, 1u64 << (64 - l));
        } else if l == 0 {
            prop_assert_eq!((lo_v, hi_v), (0, u64::MAX));
        }
        prop_assert_eq!(lcp_bits(&lo, &hi) >= l, true);
    }

    #[test]
    fn bit_slice_matches_shift_mask(x: u64, from in 0usize..64, width in 1usize..=32) {
        let to = (from + width).min(64);
        let want = (x << from) >> (64 - (to - from)) ;
        let want = if to == from { 0 } else { want };
        prop_assert_eq!(bit_slice(&u64_key(x), from, to, u64::MAX), want);
    }

    #[test]
    fn padding_preserves_lexicographic_order(a: Vec<u8>, b: Vec<u8>) {
        let width = 40;
        let (pa, pb) = (pad_key(&a, width), pad_key(&b, width));
        let ta: &[u8] = &a[..a.len().min(width)];
        let tb: &[u8] = &b[..b.len().min(width)];
        // NUL padding preserves order except when one truncated key is a
        // NUL-extension of the other (identical semantics to §7.1).
        if ta.iter().rev().take_while(|&&c| c == 0).count() == 0
            && tb.iter().rev().take_while(|&&c| c == 0).count() == 0
        {
            prop_assert_eq!(ta.cmp(tb), pa.cmp(&pb));
        }
    }
}

/// The `l`-bit regions of `[lo, hi]` inside the `within`-bit region of
/// `anchor`, by brute force over every 2-byte key.
fn regions_by_enumeration(lo: u16, hi: u16, anchor: u16, within: usize, l: usize) -> Vec<u16> {
    let top = |k: u16, bits: usize| if bits == 0 { 0 } else { k >> (16 - bits) << (16 - bits) };
    let mut out: Vec<u16> =
        (lo..=hi).filter(|&k| top(k, within) == top(anchor, within)).map(|k| top(k, l)).collect();
    out.dedup();
    out
}

/// Walk with a visitor that draws up to `chunk` regions per call, records
/// what it sees and `Hit`s if its chunk holds region number `stop_at`.
fn walked_in_chunks(
    (lo, hi): (u16, u16),
    (anchor, within): (u16, usize),
    l: usize,
    cap: u64,
    stop_at: Option<usize>,
    chunk: usize,
) -> (Walk, Vec<u16>, u64) {
    let (lo, hi) = (lo.to_be_bytes(), hi.to_be_bytes());
    let budget = ProbeBudget::new(cap);
    let mut seen = Vec::new();
    let end = RegionWalk::new(&lo, &hi, &budget).walk(&anchor.to_be_bytes(), within, l, |run| {
        let from = seen.len();
        while seen.len() < from + chunk {
            let Some(r) = run.draw() else { break };
            seen.push(u16::from_be_bytes([r[0], r[1]]));
        }
        if stop_at.is_some_and(|at| (from..seen.len()).contains(&at)) {
            Walk::Hit
        } else {
            Walk::Clear
        }
    });
    (end, seen, budget.left())
}

/// The per-region reference walk: runs of one.
fn walked(
    window: (u16, u16),
    clamp: (u16, usize),
    l: usize,
    cap: u64,
    stop_at: Option<usize>,
) -> (Walk, Vec<u16>, u64) {
    walked_in_chunks(window, clamp, l, cap, stop_at, 1)
}

#[test]
fn region_walk_matches_brute_force_on_two_byte_keys() {
    let windows: [(u16, u16); 12] = [
        (0, 0),           // from == to at the bottom
        (0xFFFF, 0xFFFF), // from == to at the all-ones wrap
        (0x1234, 0x1234), // from == to
        (0x1230, 0x123F), // one region at every l <= 12
        (0xFFF0, 0xFFFF), // ends on the all-ones prefix: the walk must stop, not wrap
        (0x00FF, 0x0100), // straddles a carry across the byte boundary
        (0x7FFF, 0x8000), // straddles the top bit
        (0x0101, 0x0500),
        (0xABCD, 0xFFFE),
        (0x0001, 0x8001),
        (0x0000, 0xFFFF), // the whole space
        (0x8000, 0xFFFF),
    ];
    for l in 1..=16usize {
        for window in windows {
            // Unclamped, then clamped to the region of each bound, of a key
            // in the middle, and of one outside the window.
            let mid = window.0 + (window.1 - window.0) / 2;
            let mut clamps = vec![(0u16, 0usize)];
            for within in [1, l / 2, l] {
                clamps.extend([window.0, mid, window.1, !mid].map(|a| (a, within)));
            }
            for clamp in clamps {
                let want = regions_by_enumeration(window.0, window.1, clamp.0, clamp.1, l);
                let ctx = format!("l={l} window={window:x?} clamp={clamp:x?}");
                let n = want.len() as u64;
                // Exactly enough budget: every region once, ascending.
                assert_eq!(
                    walked(window, clamp, l, n, None),
                    (Walk::Clear, want.clone(), 0),
                    "{ctx}"
                );
                assert_eq!(walked(window, clamp, l, n + 3, None).2, 3, "{ctx}");
                // Every budget cut short of that is Exhausted — never Clear —
                // having visited exactly what it could pay for; a Hit ends
                // the walk where it happened.
                let cuts: Vec<usize> = if want.len() <= 40 {
                    (0..want.len()).collect()
                } else {
                    vec![0, 1, want.len() / 2, want.len() - 1]
                };
                for cut in cuts {
                    let got = walked(window, clamp, l, cut as u64, None);
                    assert_eq!(got, (Walk::Exhausted, want[..cut].to_vec(), 0), "{ctx} cut={cut}");
                    let got = walked(window, clamp, l, n, Some(cut));
                    let left = n - cut as u64 - 1;
                    assert_eq!(got, (Walk::Hit, want[..=cut].to_vec(), left), "{ctx} hit={cut}");
                }
            }
        }
    }
}

/// A visitor that draws its regions a chunk at a time sees the same regions
/// and leaves the same budget as the per-region walk, for budgets one short
/// of, equal to and one past the window, and for a hit in the first, a middle
/// and the last member of a chunk. Only after a `Hit` may the budget differ:
/// the chunk was paid for whole.
#[test]
fn region_walk_in_runs_matches_the_per_region_walk() {
    let window = (0x0101u16, 0x0500u16);
    for l in [11usize, 13, 16] {
        for clamp in [(0u16, 0usize), (0x0300, 7), (0x0400, 8)] {
            let want = regions_by_enumeration(window.0, window.1, clamp.0, clamp.1, l);
            let n = want.len() as u64;
            assert!(n >= 3, "l={l} clamp={clamp:x?}: a window worth chunking");
            for chunk in [2usize, 8] {
                let ctx = format!("l={l} clamp={clamp:x?} chunk={chunk} regions={n}");
                for cap in [n.saturating_sub(1), n, n + 1] {
                    assert_eq!(
                        walked_in_chunks(window, clamp, l, cap, None, chunk),
                        walked(window, clamp, l, cap, None),
                        "{ctx} cap={cap}"
                    );
                }
                // A budget that runs out inside a chunk: the part that could
                // be paid for is visited, and the walk is Exhausted even
                // though that part came back clear.
                let short = (n / 2) | 1;
                let got = walked_in_chunks(window, clamp, l, short, None, chunk);
                assert_eq!(got, (Walk::Exhausted, want[..short as usize].to_vec(), 0), "{ctx}");
                // ...unless the hit is in the part it could pay for.
                let got =
                    walked_in_chunks(window, clamp, l, short, Some(short as usize - 1), chunk);
                assert_eq!(got.0, Walk::Hit, "{ctx}");
                for at in [0, chunk / 2, chunk - 1, chunk, want.len() - 1] {
                    let at = at.min(want.len() - 1);
                    let (end, seen, _) = walked_in_chunks(window, clamp, l, n, Some(at), chunk);
                    let (want_end, want_seen, _) = walked(window, clamp, l, n, Some(at));
                    assert_eq!(end, want_end, "{ctx} hit={at}");
                    // The chunk holding the hit is drawn to its end.
                    let drawn = ((at / chunk + 1) * chunk).min(want.len());
                    assert_eq!(seen, want[..drawn], "{ctx} hit={at}");
                    assert_eq!(seen[..=at], want_seen[..], "{ctx} hit={at}");
                }
            }
        }
    }
}
