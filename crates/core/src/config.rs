//! SSD and mapping-cache configuration.
//!
//! Encodes the paper's experiment setup (Section 5.1): the Table 3 flash
//! parameters, the "SSD as large as the trace's logical address space"
//! sizing rule, and the "mapping cache as large as a block-level FTL's
//! mapping table plus the GTD" cache rule (8 KB + 512 B for the 512 MB
//! Financial configuration; 256 KB + 16 KB for the 16 GB MSR one).

use serde::{Deserialize, Serialize};
use tpftl_flash::{FlashError, FlashGeometry, FlashTopology};

use crate::{FtlError, Result};

/// Garbage-collection victim-selection policy (Section 2.3 of the paper
/// surveys GC-policy and wear-leveling work; the paper itself uses greedy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum GcPolicy {
    /// The paper's policy: the sealed block with the fewest valid pages.
    #[default]
    Greedy,
    /// Cost-benefit (Kawaguchi-style): maximize `(1 − u) / 2u · age` over
    /// the least-utilized candidates, trading reclaim efficiency against
    /// block age so cold blocks eventually turn over.
    CostBenefit,
    /// Greedy, but ties (and near-ties) broken toward the block with the
    /// fewest erase cycles; when the device's wear spread exceeds
    /// `max_wear_delta`, the least-worn sealed block is collected instead
    /// (simple static wear leveling).
    WearAware {
        /// Allowed spread between the most- and least-worn blocks.
        max_wear_delta: u64,
    },
    /// Windowed cost-benefit (Dayan & Bonnet's bounded-window cleaning):
    /// examine only the first `window` blocks of the intrusive victim
    /// index's `(valid asc, id asc)` order — the min-valid buckets — and
    /// pick the best `(1 − u) / 2u · age` score inside that window, exact
    /// score ties broken toward the block with the fewest erase cycles
    /// (cache-level wear mitigation, no separate leveling pass). The
    /// window bounds the scan to a handful of cache lines per pick while
    /// keeping greedy's reclaim efficiency; `window == 1` degenerates to
    /// exactly [`GcPolicy::Greedy`].
    Windowed {
        /// Number of least-valid candidates scored per victim pick
        /// (clamped to at least 1).
        window: u32,
    },
}

/// Number of hot/cold data streams — separate active data blocks user
/// writes are partitioned into by write temperature. Deserializes absent
/// (old configs) or `0` as the single-stream default; [`StreamCount::get`]
/// is the clamped accessor allocation paths use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamCount(pub u32);

impl Default for StreamCount {
    fn default() -> Self {
        StreamCount(1)
    }
}

impl StreamCount {
    /// The effective stream count (always at least 1).
    pub fn get(self) -> u32 {
        self.0.max(1)
    }
}

/// Full configuration of a simulated SSD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Host-visible capacity in bytes; set to the trace's address space.
    pub logical_bytes: u64,
    /// Extra physical capacity fraction (Table 3: 15 %).
    pub over_provision: f64,
    /// Total mapping-cache budget in bytes, *including* the GTD.
    pub cache_bytes: usize,
    /// GC trigger: collect when free blocks drop below this.
    pub gc_low_blocks: usize,
    /// GC target: collect until free blocks reach this.
    pub gc_high_blocks: usize,
    /// Fraction of the logical space sequentially written before the
    /// measured run (statistics are reset afterwards). The paper assumes
    /// the SSD "is in full use" for the Financial volumes; the MSR volumes
    /// are mostly empty.
    pub prefill_frac: f64,
    /// GC victim-selection policy (the paper uses greedy).
    #[serde(default)]
    pub gc_policy: GcPolicy,
    /// Hot/cold data-stream count. `1` (the default, and what absent keys
    /// in old serialized configs load as) reproduces the single-stream
    /// allocator bit for bit; with more streams, host writes are routed by
    /// write temperature and GC migrations demote to the coldest stream.
    #[serde(default)]
    pub streams: StreamCount,
    /// Channel/way parallelism of the flash array (defaults to the serial
    /// single-unit device, which reproduces the old timing bit for bit).
    #[serde(default)]
    pub topology: FlashTopology,
}

impl SsdConfig {
    /// Paper configuration for a device of `logical_bytes`, with the cache
    /// sized by the block-level-table + GTD rule.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpftl_core::SsdConfig;
    ///
    /// let fin = SsdConfig::paper_default(512 << 20);
    /// // 8 KB block-level table + 512 B GTD (Section 5.1).
    /// assert_eq!(fin.cache_bytes, 8 * 1024 + 512);
    /// let msr = SsdConfig::paper_default(16 << 30);
    /// // 256 KB + 16 KB.
    /// assert_eq!(msr.cache_bytes, 256 * 1024 + 16 * 1024);
    /// ```
    pub fn paper_default(logical_bytes: u64) -> Self {
        let mut cfg = Self {
            logical_bytes,
            over_provision: 0.15,
            cache_bytes: 0,
            gc_low_blocks: 0,
            gc_high_blocks: 0,
            prefill_frac: 0.0,
            gc_policy: GcPolicy::Greedy,
            streams: StreamCount(1),
            topology: FlashTopology::default(),
        };
        cfg.cache_bytes = cfg.paper_cache_bytes();
        // Watermarks scale with the device so that small test devices do
        // not reserve more free space than their over-provisioning allows.
        // The gap is one block: GC reclaims incrementally (one victim per
        // trigger), spreading its cost over requests the way the paper's
        // per-request GC accounting assumes, instead of stalling one
        // unlucky request behind a multi-block collection cascade.
        let blocks = cfg.geometry().num_blocks;
        cfg.gc_low_blocks = (blocks / 300).clamp(2, 8);
        cfg.gc_high_blocks = cfg.gc_low_blocks + 1;
        cfg
    }

    /// Flash geometry per Table 3, with this config's channel/way topology.
    pub fn geometry(&self) -> FlashGeometry {
        let mut geom = FlashGeometry::paper_default(self.logical_bytes, self.over_provision);
        geom.topology = self.topology;
        geom
    }

    /// Number of host-visible 4 KB pages.
    pub fn logical_pages(&self) -> u64 {
        self.logical_bytes / 4096
    }

    /// Mapping entries per translation page (4 KB page / 4 B PPN).
    pub fn entries_per_tp(&self) -> usize {
        1024
    }

    /// Number of translation pages covering the logical space.
    pub fn num_vtpns(&self) -> u64 {
        self.logical_pages().div_ceil(self.entries_per_tp() as u64)
    }

    /// Size of the global translation directory in bytes (4 B per
    /// translation page), always resident in the cache.
    pub fn gtd_bytes(&self) -> usize {
        (self.num_vtpns() * 4) as usize
    }

    /// Size of a block-level FTL's mapping table (4 B per 256 KB logical
    /// block); the paper's cache-sizing reference.
    pub fn block_table_bytes(&self) -> usize {
        ((self.logical_bytes / (256 * 1024)) * 4) as usize
    }

    /// The paper's default cache budget: block-level table + GTD.
    pub fn paper_cache_bytes(&self) -> usize {
        self.block_table_bytes() + self.gtd_bytes()
    }

    /// Size of the full page-level mapping table at 8 B per entry, the
    /// normalization base of Figures 8(c), 9 and 10.
    pub fn full_table_bytes(&self) -> usize {
        (self.logical_pages() * 8) as usize
    }

    /// Cache budget for a Figure 9-style sweep point: `frac` of the full
    /// table (entries at 8 B) plus the always-resident GTD.
    pub fn with_cache_fraction(mut self, frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "cache fraction out of range");
        self.cache_bytes = ((self.full_table_bytes() as f64) * frac) as usize + self.gtd_bytes();
        self
    }

    /// Budget available to the FTL's own structures (total minus GTD).
    pub fn usable_cache_bytes(&self) -> usize {
        self.cache_bytes.saturating_sub(self.gtd_bytes())
    }

    /// Whether the device can be partitioned into `num_shards` LPN-striped
    /// shards: the count must be a nonzero power of two (routing is a mask
    /// of the low LPN bits) and every shard must own a whole number of
    /// translation pages, so per-shard devices keep the paper's
    /// 1024-entries-per-TP layout exactly.
    pub fn supports_shards(&self, num_shards: u32) -> bool {
        num_shards.is_power_of_two()
            && self
                .logical_pages()
                .is_multiple_of(num_shards as u64 * self.entries_per_tp() as u64)
    }

    /// The configuration of one shard when this device is partitioned into
    /// `num_shards` independent LPN-striped shards (the sharded engine's
    /// per-shard geometry). Every extensive resource — logical space, cache
    /// budget, and with them the derived flash geometry, GTD and
    /// over-provisioned pool — divides by the shard count; ratios
    /// (over-provisioning, prefill fraction) and the GC policy carry over,
    /// and the GC watermarks are re-derived from the shard-sized block
    /// count with the same rule [`SsdConfig::paper_default`] uses.
    ///
    /// `num_shards == 1` returns the configuration unchanged (bit-identical
    /// single-queue behaviour, whatever the caller customized).
    ///
    /// # Panics
    ///
    /// Panics when [`SsdConfig::supports_shards`] is false; see
    /// [`SsdConfig::try_shard_config`] for the fallible form.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpftl_core::SsdConfig;
    ///
    /// let whole = SsdConfig::paper_default(512 << 20);
    /// let quarter = whole.shard_config(4);
    /// assert_eq!(quarter.logical_bytes, 128 << 20);
    /// assert_eq!(quarter.num_vtpns(), whole.num_vtpns() / 4);
    /// assert_eq!(whole.shard_config(1), whole);
    /// ```
    pub fn shard_config(&self, num_shards: u32) -> SsdConfig {
        self.try_shard_config(num_shards).unwrap_or_else(|_| {
            panic!(
                "cannot split {} logical pages into {num_shards} shards \
                 (need a power of two dividing the translation-page count)",
                self.logical_pages()
            )
        })
    }

    /// [`SsdConfig::shard_config`], failing with
    /// `FtlError::Flash(FlashError::InvalidGeometry)` when
    /// [`SsdConfig::supports_shards`] is false.
    pub fn try_shard_config(&self, num_shards: u32) -> Result<SsdConfig> {
        if !self.supports_shards(num_shards) {
            return Err(FtlError::Flash(FlashError::InvalidGeometry));
        }
        if num_shards == 1 {
            return Ok(self.clone());
        }
        let n = num_shards as u64;
        let mut cfg = SsdConfig {
            logical_bytes: self.logical_bytes / n,
            over_provision: self.over_provision,
            cache_bytes: self.cache_bytes / num_shards as usize,
            gc_low_blocks: 0,
            gc_high_blocks: 0,
            prefill_frac: self.prefill_frac,
            gc_policy: self.gc_policy,
            streams: self.streams,
            topology: self.topology,
        };
        let blocks = cfg.geometry().num_blocks;
        cfg.gc_low_blocks = (blocks / 300).clamp(2, 8);
        cfg.gc_high_blocks = cfg.gc_low_blocks + 1;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cache_sizes_match_section_5_1() {
        let fin = SsdConfig::paper_default(512 << 20);
        assert_eq!(fin.block_table_bytes(), 8 * 1024);
        assert_eq!(fin.gtd_bytes(), 512);
        assert_eq!(fin.cache_bytes, 8704);
        assert_eq!(fin.num_vtpns(), 128);

        let msr = SsdConfig::paper_default(16 << 30);
        assert_eq!(msr.block_table_bytes(), 256 * 1024);
        assert_eq!(msr.gtd_bytes(), 16 * 1024);
        assert_eq!(msr.cache_bytes, 272 * 1024);
        assert_eq!(msr.num_vtpns(), 4096);
    }

    #[test]
    fn cache_fraction_sweep() {
        let cfg = SsdConfig::paper_default(512 << 20);
        // Full table: 131072 pages * 8 B = 1 MB.
        assert_eq!(cfg.full_table_bytes(), 1 << 20);
        let c = cfg.clone().with_cache_fraction(1.0 / 128.0);
        // 1/128 of the table is exactly the paper's 8 KB block-level size.
        assert_eq!(c.cache_bytes, 8 * 1024 + 512);
        let full = cfg.with_cache_fraction(1.0);
        assert_eq!(full.usable_cache_bytes(), 1 << 20);
    }

    #[test]
    fn usable_excludes_gtd() {
        let cfg = SsdConfig::paper_default(512 << 20);
        assert_eq!(cfg.usable_cache_bytes(), 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "cache fraction")]
    fn zero_fraction_panics() {
        let _ = SsdConfig::paper_default(512 << 20).with_cache_fraction(0.0);
    }

    #[test]
    fn shard_config_divides_extensive_resources() {
        let whole = SsdConfig::paper_default(512 << 20);
        let part = whole.shard_config(4);
        assert_eq!(part.logical_bytes, whole.logical_bytes / 4);
        assert_eq!(part.cache_bytes, whole.cache_bytes / 4);
        assert_eq!(part.num_vtpns() * 4, whole.num_vtpns());
        assert_eq!(part.over_provision, whole.over_provision);
        assert_eq!(part.gc_policy, whole.gc_policy);
        assert_eq!(part.streams, whole.streams);
        assert_eq!(part.topology, whole.topology);
        // Watermarks follow the paper_default rule on the shard geometry.
        let blocks = part.geometry().num_blocks;
        assert_eq!(part.gc_low_blocks, (blocks / 300).clamp(2, 8));
        assert_eq!(part.gc_high_blocks, part.gc_low_blocks + 1);
    }

    #[test]
    fn one_shard_is_identity_even_when_customized() {
        let mut cfg = SsdConfig::paper_default(512 << 20);
        cfg.cache_bytes = 12_345;
        cfg.gc_low_blocks = 5;
        cfg.gc_high_blocks = 9;
        cfg.prefill_frac = 0.3;
        assert_eq!(cfg.shard_config(1), cfg);
    }

    #[test]
    fn supports_shards_checks_divisibility() {
        let cfg = SsdConfig::paper_default(512 << 20); // 128 VTPNs
        assert!(cfg.supports_shards(1));
        assert!(cfg.supports_shards(4));
        assert!(cfg.supports_shards(128));
        assert!(!cfg.supports_shards(3));
        assert!(!cfg.supports_shards(256));
        let tiny = SsdConfig::paper_default(4 << 20); // one VTPN
        assert!(tiny.supports_shards(1));
        assert!(!tiny.supports_shards(2));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn shard_config_rejects_unsupported_counts() {
        let _ = SsdConfig::paper_default(4 << 20).shard_config(2);
    }

    #[test]
    fn try_shard_config_returns_a_typed_error() {
        let cfg = SsdConfig::paper_default(512 << 20);
        assert_eq!(cfg.try_shard_config(4).unwrap(), cfg.shard_config(4));
        for bad in [0, 3, 256] {
            assert_eq!(
                cfg.try_shard_config(bad),
                Err(FtlError::Flash(FlashError::InvalidGeometry))
            );
        }
    }

    #[test]
    fn streams_default_and_shard_inheritance() {
        let mut cfg = SsdConfig::paper_default(512 << 20);
        assert_eq!(cfg.streams.get(), 1);
        // The degenerate zero count clamps to one stream.
        assert_eq!(StreamCount(0).get(), 1);
        cfg.streams = StreamCount(3);
        assert_eq!(cfg.shard_config(4).streams, StreamCount(3));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SsdConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.streams, StreamCount(3));
        // Old serialized configs (no streams key) load single-stream.
        let legacy = r#"{"logical_bytes":536870912,"over_provision":0.15,
            "cache_bytes":8704,"gc_low_blocks":2,"gc_high_blocks":3,
            "prefill_frac":0.0}"#;
        let back: SsdConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.streams, StreamCount(1));
        assert_eq!(back.gc_policy, GcPolicy::Greedy);
    }

    #[test]
    fn topology_threads_into_geometry_and_shards() {
        let mut cfg = SsdConfig::paper_default(512 << 20);
        assert_eq!(cfg.geometry().topology, FlashTopology::default());
        cfg.topology = FlashTopology {
            channels: 4,
            ways: 2,
            bus_us: 10.0,
        };
        assert_eq!(cfg.geometry().topology.units(), 8);
        // Shards inherit the whole device's per-shard parallelism verbatim.
        assert_eq!(cfg.shard_config(4).topology, cfg.topology);
        // Old serialized configs (no topology key) load as serial devices.
        let json = serde_json::to_string(&SsdConfig::paper_default(512 << 20)).unwrap();
        let back: SsdConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.topology, FlashTopology::default());
    }
}
