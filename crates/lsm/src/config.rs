//! Database configuration: [`DbConfig`] and its validating builder.
//!
//! Configurations are constructed through [`DbConfig::builder`], which
//! validates every knob before a [`crate::Db`] ever sees it, and read
//! through the getters; the fields themselves are private. The same
//! validation runs again inside [`crate::Db::open`] as the boundary check.

use crate::error::{Error, Result};
use crate::memtable::ARENA_LIMIT_FACTOR;
use std::time::Duration;

/// When the write-ahead log calls `fdatasync` — the durability/latency
/// trade-off of the write path (see the [`crate::wal`] module docs).
///
/// In every mode, WAL records reach the OS before a write returns, sealed
/// segments are synced at MemTable rotation, and SSTs are synced before
/// install — the modes only differ in what a *power loss* (or OS crash)
/// can take from the active segment. A plain process crash loses nothing
/// in any mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Group-commit sync before every ack: an acked write is durable
    /// against power loss. Concurrent writers share one `fdatasync` per
    /// group, so throughput scales with the writer count.
    Always,
    /// Sync at most once per interval (plus at rotation/shutdown): bounds
    /// the power-loss window to roughly the interval, at near-`Off` cost.
    Interval(Duration),
    /// Never sync the active segment on the write path (RocksDB's
    /// `sync=false` default). Power loss may drop writes still in the
    /// page cache; process crashes still lose nothing.
    #[default]
    Off,
}

/// The single declaration of the knobs: each `doc, name: type = default`
/// row expands to the private [`DbConfig`] field, its [`Default`] value, the
/// getter and the [`DbConfigBuilder`] setter of the same name (all three
/// carry the row's doc). Validation is not generated: see
/// [`DbConfig::validate`].
macro_rules! knobs {
    (
        $(#[$struct_doc:meta])*
        pub struct DbConfig { $( $(#[$doc:meta])* $name:ident: $ty:ty = $default:expr, )* }
    ) => {
        $(#[$struct_doc])*
        #[derive(Debug, Clone)]
        pub struct DbConfig { $( $(#[$doc])* $name: $ty, )* }

        impl Default for DbConfig {
            fn default() -> Self {
                DbConfig { $( $name: $default, )* }
            }
        }

        /// Read access to every knob.
        impl DbConfig {
            $( $(#[$doc])* pub fn $name(&self) -> $ty { self.$name } )*
        }

        /// One setter per knob, named after it.
        impl DbConfigBuilder {
            $( $(#[$doc])* pub fn $name(mut self, v: $ty) -> Self { self.cfg.$name = v; self } )*
        }
    };
}

/// Data block size in bytes (RocksDB's default 4 KiB).
pub const BLOCK_BYTES: usize = 4096;

/// Largest accepted key length in bytes; every WAL segment header records it.
pub const MAX_KEY_BYTES: usize = 1024;

knobs! {
    /// Tuning knobs, defaulting to a laptop-scale version of the paper's §6.2
    /// RocksDB configuration (the paper uses 256 MB SSTs and a 1 GB cache on a
    /// 50M-key database; ratios are preserved).
    ///
    /// Only what a caller sets is a knob: SST and L1 sizes follow from
    /// `memtable_bytes` ([`DbConfig::sst_target_bytes`],
    /// [`DbConfig::level_base_bytes`]); the block size, key cap, 8 MiB cache,
    /// two frozen MemTables and L0 trigger of four are constants.
    ///
    /// Build one with [`DbConfig::builder`]:
    ///
    /// ```
    /// use proteus_lsm::DbConfig;
    ///
    /// let cfg = DbConfig::builder()
    ///     .memtable_bytes(1 << 20)
    ///     .bits_per_key(12.0)
    ///     .build()?;
    /// assert_eq!(cfg.level_base_bytes(), 4 << 20);
    /// # Ok::<(), proteus_lsm::Error>(())
    /// ```
    ///
    /// [`crate::Db::open`] validates whatever configuration it is handed, so
    /// an invalid one fails the open with [`Error::Config`] instead of
    /// misbehaving later.
    pub struct DbConfig {
        /// Canonical filter-training width in bytes (1..=64): keys are
        /// NUL-padded (or truncated) to this width before feeding a range
        /// filter (§7.1's string canonicalization). Not a key length
        /// constraint — keys are variable-length, up to [`MAX_KEY_BYTES`].
        key_width: usize = 8,
        /// MemTable rotation threshold (write_buffer_size), in logical bytes;
        /// at most `u32::MAX / 8`. A table also rotates once its arena holds
        /// 8× this (see [`crate::memtable::MemTable::is_full`]).
        memtable_bytes: usize = 4 << 20,
        /// Filter memory budget per key.
        bits_per_key: f64 = 10.0,
        /// Sample query queue capacity (§6.1: 20K; at most 2^20).
        queue_capacity: usize = 20_000,
        /// Record every n-th executed empty query (§6.1: 100).
        sample_every: u64 = 100,
        /// Run the adaptive filter lifecycle periodically: every
        /// `adapt_interval` the background thread compares each SST's
        /// observed FPR with the threshold and with its filter's predicted
        /// FPR, and re-trains flagged filters in place (see the
        /// [`crate::adapt`] module docs). `Db::adapt_now` runs a pass
        /// either way.
        adapt_enabled: bool = false,
        /// Observed per-file FPR above this flags the file for re-training
        /// (only after `adapt_min_probes` probes).
        adapt_fpr_threshold: f64 = 0.05,
        /// Minimum filter probes against a file before its observed FPR is
        /// trusted (Chernoff-style: too few probes is noise).
        adapt_min_probes: u64 = 512,
        /// How often a periodic adaptive pass scans for flagged files (at
        /// most a day).
        adapt_interval: Duration = Duration::from_millis(100),
        /// When the write-ahead log syncs (durability vs latency; see
        /// [`SyncMode`]).
        sync_mode: SyncMode = SyncMode::Off,
    }
}

/// The sizes that are not knobs: fixed, or derived from `memtable_bytes`.
impl DbConfig {
    /// Data block size in bytes: [`BLOCK_BYTES`].
    pub fn block_bytes(&self) -> usize {
        BLOCK_BYTES
    }
    /// Largest accepted key length in bytes: [`MAX_KEY_BYTES`].
    pub fn max_key_bytes(&self) -> usize {
        MAX_KEY_BYTES
    }
    /// Target SST file size when splitting compaction output: `memtable_bytes`.
    pub fn sst_target_bytes(&self) -> u64 {
        self.memtable_bytes as u64
    }
    /// Total size target of L1 (max_bytes_for_level_base): 4 × `memtable_bytes`.
    pub fn level_base_bytes(&self) -> u64 {
        4 * self.memtable_bytes as u64
    }
}

/// Validating builder for [`DbConfig`]; see [`DbConfig::builder`].
///
/// Every setter mirrors the knob of the same name;
/// [`DbConfigBuilder::build`] runs [`DbConfig::validate`] and returns
/// [`Error::Config`] on the first bad knob.
#[derive(Debug, Clone)]
pub struct DbConfigBuilder {
    cfg: DbConfig,
}

impl DbConfig {
    /// Start a builder from the default configuration.
    pub fn builder() -> DbConfigBuilder {
        DbConfigBuilder { cfg: DbConfig::default() }
    }

    /// Re-open this configuration as a builder (to derive a variant).
    pub fn to_builder(&self) -> DbConfigBuilder {
        DbConfigBuilder { cfg: self.clone() }
    }

    /// Check every knob; [`DbConfigBuilder::build`] and [`crate::Db::open`]
    /// both run this.
    pub fn validate(&self) -> Result<()> {
        fn bad(what: &str) -> Result<()> {
            Err(Error::config(what.to_string()))
        }
        if self.key_width == 0 || self.key_width > 64 {
            return bad("key_width must be in 1..=64 bytes");
        }
        if self.memtable_bytes == 0 {
            return bad("memtable_bytes must be > 0");
        }
        if self.memtable_bytes > u32::MAX as usize / ARENA_LIMIT_FACTOR {
            // A MemTable's arena may grow to ARENA_LIMIT_FACTOR times the
            // threshold before it rotates, and is addressed by u32 offsets.
            return bad("memtable_bytes must be <= u32::MAX / 8 (512 MiB)");
        }
        if !self.bits_per_key.is_finite() || self.bits_per_key < 0.0 {
            return bad("bits_per_key must be finite and >= 0");
        }
        if self.queue_capacity == 0 || self.queue_capacity > 1 << 20 {
            // 50× §6.1's 20K; the queue is allocated whole at open.
            return bad("queue_capacity must be in 1..=2^20");
        }
        if self.sample_every == 0 {
            return bad("sample_every must be >= 1");
        }
        if !self.adapt_fpr_threshold.is_finite()
            || self.adapt_fpr_threshold <= 0.0
            || self.adapt_fpr_threshold > 1.0
        {
            return bad("adapt_fpr_threshold must be in (0, 1]");
        }
        if self.adapt_min_probes == 0 {
            return bad("adapt_min_probes must be >= 1");
        }
        if self.adapt_interval.is_zero() || self.adapt_interval > Duration::from_secs(86_400) {
            // The background thread adds the interval to `Instant::now()`.
            return bad("adapt_interval must be in (0, 1 day]");
        }
        if let SyncMode::Interval(period) = self.sync_mode {
            if period.is_zero() {
                return bad("sync_mode interval must be > 0 (use SyncMode::Always)");
            }
        }
        Ok(())
    }
}

impl DbConfigBuilder {
    /// Validate and return the configuration.
    pub fn build(self) -> Result<DbConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrips_and_validates() {
        let cfg = DbConfig::builder()
            .key_width(16)
            .memtable_bytes(64 << 10)
            .bits_per_key(14.0)
            .sample_every(7)
            .build()
            .unwrap();
        assert_eq!(cfg.key_width(), 16);
        assert_eq!(cfg.memtable_bytes(), 64 << 10);
        assert_eq!(cfg.bits_per_key(), 14.0);
        assert_eq!(cfg.sample_every(), 7);
        // Deriving a variant keeps the base values.
        let derived = cfg.to_builder().bits_per_key(8.0).build().unwrap();
        assert_eq!(derived.key_width(), 16);
        assert_eq!(derived.bits_per_key(), 8.0);
    }

    #[test]
    fn invalid_knobs_are_rejected_with_config_errors() {
        for (tag, res) in [
            ("width0", DbConfig::builder().key_width(0).build()),
            ("width65", DbConfig::builder().key_width(65).build()),
            ("memtable", DbConfig::builder().memtable_bytes(0).build()),
            (
                "memtable_u32",
                DbConfig::builder().memtable_bytes((u32::MAX as usize / 8) + 1).build(),
            ),
            ("bpk", DbConfig::builder().bits_per_key(f64::NAN).build()),
            ("queue0", DbConfig::builder().queue_capacity(0).build()),
            ("every", DbConfig::builder().sample_every(0).build()),
            ("fpr", DbConfig::builder().adapt_fpr_threshold(0.0).build()),
            ("probes", DbConfig::builder().adapt_min_probes(0).build()),
            ("interval", DbConfig::builder().adapt_interval(Duration::ZERO).build()),
            ("sync", DbConfig::builder().sync_mode(SyncMode::Interval(Duration::ZERO)).build()),
        ] {
            assert!(matches!(res, Err(Error::Config(_))), "{tag} must be rejected");
        }
    }

    #[test]
    fn an_adapt_interval_over_a_day_is_rejected() {
        // The background thread schedules its next pass at
        // `Instant::now() + adapt_interval`; `Duration::MAX` overflowed that
        // sum, which killed the thread without a sticky error.
        let over = DbConfig::builder().adapt_enabled(true).adapt_interval(Duration::MAX).build();
        assert!(matches!(over, Err(Error::Config(_))));
        let day = Duration::from_secs(86_400);
        let just_over = DbConfig::builder().adapt_interval(day + Duration::from_nanos(1)).build();
        assert!(matches!(just_over, Err(Error::Config(_))));
        assert_eq!(DbConfig::builder().adapt_interval(day).build().unwrap().adapt_interval(), day);
    }

    #[test]
    fn a_queue_capacity_over_2_pow_20_is_rejected() {
        // The queue is allocated whole at open: `usize::MAX` built, then
        // panicked `Db::open` with "capacity overflow".
        let over = DbConfig::builder().queue_capacity(usize::MAX).build();
        assert!(matches!(over, Err(Error::Config(_))));
        let just_over = DbConfig::builder().queue_capacity((1 << 20) + 1).build();
        assert!(matches!(just_over, Err(Error::Config(_))));
        for ok in [1, 1 << 20] {
            assert_eq!(
                DbConfig::builder().queue_capacity(ok).build().unwrap().queue_capacity(),
                ok
            );
        }
    }

    #[test]
    fn open_revalidates_a_config_that_bypassed_the_builder() {
        // Only this module can build a `DbConfig` without `build()`; the
        // boundary check inside `Db::open` must still catch it.
        for (tag, broken) in [
            ("width", DbConfig { key_width: 0, ..Default::default() }),
            ("queue", DbConfig { queue_capacity: usize::MAX, ..Default::default() }),
        ] {
            let dir =
                std::env::temp_dir().join(format!("proteus-cfg-bad-{tag}-{}", std::process::id()));
            let factory = std::sync::Arc::new(crate::ProteusFactory::default());
            let opened = crate::Db::open(&dir, broken, factory);
            assert!(matches!(opened, Err(Error::Config(_))), "{tag}");
            assert!(!dir.exists(), "a rejected open must not create the directory");
        }
    }

    #[test]
    fn default_configuration_is_valid() {
        assert!(DbConfig::default().validate().is_ok());
    }

    #[test]
    fn the_default_store_has_the_shape_the_benchmark_runs() {
        let cfg = DbConfig::default();
        assert_eq!(cfg.memtable_bytes(), 4 << 20);
        assert_eq!(cfg.sst_target_bytes(), 4 << 20);
        assert_eq!(cfg.level_base_bytes(), 16 << 20);
        assert_eq!(cfg.block_bytes(), 4096);
        assert_eq!(crate::db::BLOCK_CACHE_BYTES, 8 << 20);
        assert_eq!(crate::db::MAX_IMMUTABLE_MEMTABLES, 2);
        assert_eq!(crate::compact::L0_COMPACTION_TRIGGER, 4);
        assert_eq!(cfg.max_key_bytes(), 1024);
    }
}
