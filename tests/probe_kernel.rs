//! Equivalence tests for the Bloom probe kernel: the division-free
//! remainder, and the chunked run probe against one `contains_prefix_of`
//! per region. (The short-prefix hash is pinned to the reference
//! MurmurHash3 in `proteus_amq::hash`'s unit tests, the run-drawing walk to
//! a per-region walk in `tests/prefix_math.rs`.)

use proptest::prelude::*;
use proteus::amq::hash::HashFamily;
use proteus::amq::FastRem;
use proteus::core::key::{increment_prefix, prefix_count, ProbeBudget, RegionWalk, Walk};
use proteus::core::prefix_bf::PrefixBloom;
use proteus::core::KeySet;

proptest! {
    #[test]
    fn fast_rem_is_the_remainder(x: u64, m in 1u64..=u64::MAX) {
        prop_assert_eq!(FastRem::new(m).reduce(x), x % m);
    }

    #[test]
    fn fast_rem_at_the_edge_divisors(x: u64, k in 0u32..64) {
        for m in [1, 2, 1 << k, (1u64 << k).wrapping_sub(1).max(1), u64::MAX] {
            prop_assert_eq!(FastRem::new(m).reduce(x), x % m, "{} % {}", x, m);
        }
    }

    /// Over random key sets of width 8 (inline scratch, one-word prefixes),
    /// 16 (two-word prefixes) and 96 (heap scratch, the long-prefix hash
    /// path), at every kind of prefix length: a window probed in runs gives
    /// the answer of probing each of its regions alone, and — whenever the
    /// query is not over — has spent the same probes.
    #[test]
    fn probe_run_is_any_contains_prefix_of(
        seed: u64,
        width_pick in 0usize..3,
        l_pick: u64,
        regions in 1u64..40,
        cap_slack in 0u64..3,
    ) {
        let width = [8usize, 16, 96][width_pick];
        let l = 1 + (l_pick % (width as u64 * 8)) as usize;
        let mut s = seed;
        let mut rng = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Keys vary only in the bytes around the prefix boundary, so that
        // windows a few regions wide meet members and non-members alike.
        let pivot = ((l - 1) / 8).saturating_sub(1);
        let key = |r: u64| {
            let mut k = vec![0x5Au8; width];
            for (i, b) in r.to_be_bytes()[5..].iter().enumerate() {
                if pivot + i < width {
                    k[pivot + i] = *b;
                }
            }
            k
        };
        let keys = KeySet::new((0..300).map(|_| key(rng() % (1 << 14))).collect(), width);
        let family = if width == 8 { HashFamily::Murmur3 } else { HashFamily::ClHash };
        // Few bits per key: plenty of false positives to agree on, too.
        let bloom = PrefixBloom::build(&keys, l, keys.len() as u64 * 4, family, seed as u32);

        // A window of about `regions` regions: step `hi` up from `lo`.
        // Half of them start where no key lives (keys hold a zero byte at
        // `pivot`): only false positives can end those early.
        let mut lo = key(rng() % (1 << 14));
        lo[pivot] = (rng() % 2) as u8;
        let mut hi = lo.clone();
        for _ in 1..regions {
            if increment_prefix(&mut hi, l) {
                hi = vec![0xFF; width];
                break;
            }
        }
        let per_region = |cap: u64| {
            let budget = ProbeBudget::new(cap);
            let end = RegionWalk::new(&lo, &hi, &budget).walk(&[], 0, l, |run| {
                run.draw().map_or(Walk::Clear, |region| bloom.probe(region))
            });
            (end, budget.left())
        };
        let in_runs = |cap: u64| {
            let budget = ProbeBudget::new(cap);
            let end =
                RegionWalk::new(&lo, &hi, &budget).walk(&[], 0, l, |run| bloom.probe_run(run));
            (end, budget.left())
        };
        // Unlimited, then budgets one short of, equal to and one past the
        // window's region count.
        let n = prefix_count(&lo, &hi, l, 1_000);
        for cap in [1_000, (n + cap_slack).saturating_sub(1)] {
            let (want, want_left) = per_region(cap);
            let (got, got_left) = in_runs(cap);
            prop_assert_eq!(got, want, "width {} l {} cap {} of {} regions", width, l, cap, n);
            if want != Walk::Hit {
                prop_assert_eq!(got_left, want_left);
            }
        }
    }
}
