//! Filter construction helpers shared by the experiment binaries.

use proteus_core::model::proteus::ProteusModel;
use proteus_core::{KeySet, Proteus, ProteusOptions, RangeFilter, SampleQueries};
use proteus_filters::{Rosetta, RosettaOptions, Surf, SurfSuffix};

/// The filters the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    Proteus,
    /// 1PBF: Proteus at trie depth 0, the design the Eq. 1 model picks.
    BloomOnly,
    SurfBest,
    Rosetta,
}

impl FilterKind {
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::Proteus => "proteus",
            FilterKind::BloomOnly => "1pbf",
            FilterKind::SurfBest => "surf",
            FilterKind::Rosetta => "rosetta",
        }
    }
}

/// Build a trained filter of the given kind within `m_bits`. For SuRF the
/// suffix configuration with the best FPR on `eval` is chosen among those
/// fitting the budget (the paper: "The SuRF results show the lowest FPR for
/// all possible configurations of real and hash-suffix bits"). Returns
/// `None` when the filter cannot fit (SuRF's minimum memory requirement).
pub fn build_filter(
    kind: FilterKind,
    keys: &KeySet,
    samples: &SampleQueries,
    eval: &SampleQueries,
    m_bits: u64,
) -> Option<Box<dyn RangeFilter>> {
    match kind {
        FilterKind::Proteus => {
            Some(Box::new(Proteus::train(keys, samples, m_bits, &ProteusOptions::default())))
        }
        FilterKind::BloomOnly => {
            let design = ProteusModel::bloom_only(keys, samples).best_design(keys, m_bits);
            let opts = ProteusOptions::default();
            Some(Box::new(Proteus::build_with_design(keys, design, m_bits, &opts)))
        }
        FilterKind::SurfBest => surf_best_under_budget(keys, eval, m_bits)
            .map(|(s, _)| Box::new(s) as Box<dyn RangeFilter>),
        FilterKind::Rosetta => {
            Some(Box::new(Rosetta::train(keys, samples, m_bits, &RosettaOptions::default())))
        }
    }
}

/// Sweep SuRF configurations (Base, Hash(1..=16), Real(1..=16)), keep those
/// fitting `m_bits`, and return the one with the lowest observed FPR on
/// `eval` together with that FPR.
pub fn surf_best_under_budget(
    keys: &KeySet,
    eval: &SampleQueries,
    m_bits: u64,
) -> Option<(Surf, f64)> {
    let mut configs = vec![SurfSuffix::Base];
    for b in [1u32, 2, 4, 6, 8, 10, 12, 16] {
        configs.push(SurfSuffix::Hash(b));
        configs.push(SurfSuffix::Real(b));
    }
    let mut best: Option<(Surf, f64)> = None;
    for cfg in configs {
        let surf = Surf::build(keys, cfg);
        if surf.size_bits() > m_bits {
            continue;
        }
        let fpr = crate::measure::measure_fpr(&surf, eval);
        if best.as_ref().is_none_or(|(_, b)| fpr < *b) {
            best = Some((surf, fpr));
        }
    }
    best
}
