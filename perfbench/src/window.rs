//! Window accounting: counter deltas over a measured window, the window's
//! response-time distribution, and the fingerprint of its simulated
//! statistics.

use tpftl_core::env::GcStats;
use tpftl_core::FtlStats;
use tpftl_flash::{FlashStats, OpPurpose, PurposeCounts};
use tpftl_sim::{LatencyHistogram, RunReport, SimTiming};

/// Flash operation counts and busy time accumulated over a window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlashDelta {
    /// Per-purpose counts in `OpPurpose::ALL` order.
    pub per_purpose: [PurposeCounts; 4],
    /// Device busy time added over the window.
    pub busy_us: f64,
}

impl FlashDelta {
    pub fn between(before: &FlashStats, after: &FlashStats) -> Self {
        let mut per_purpose = [PurposeCounts::default(); 4];
        for (slot, p) in per_purpose.iter_mut().zip(OpPurpose::ALL) {
            let (a, b) = (before.of(p), after.of(p));
            *slot = PurposeCounts {
                reads: b.reads - a.reads,
                writes: b.writes - a.writes,
                erases: b.erases - a.erases,
            };
        }
        Self {
            per_purpose,
            busy_us: after.busy_us - before.busy_us,
        }
    }

    pub fn of(&self, purpose: OpPurpose) -> PurposeCounts {
        let idx = OpPurpose::ALL
            .iter()
            .position(|p| *p == purpose)
            .expect("OpPurpose::ALL lists every purpose");
        self.per_purpose[idx]
    }

    pub fn total_writes(&self) -> u64 {
        self.per_purpose.iter().map(|c| c.writes).sum()
    }

    pub fn total_erases(&self) -> u64 {
        self.per_purpose.iter().map(|c| c.erases).sum()
    }
}

/// Counter deltas between two snapshots; the wear moments are the
/// device state at the end of the window.
pub fn ftl_delta(a: &FtlStats, b: &FtlStats) -> FtlStats {
    FtlStats {
        lookups: b.lookups - a.lookups,
        hits: b.hits - a.hits,
        replacements: b.replacements - a.replacements,
        dirty_replacements: b.dirty_replacements - a.dirty_replacements,
        gc_updates: b.gc_updates - a.gc_updates,
        gc_hits: b.gc_hits - a.gc_hits,
        user_page_reads: b.user_page_reads - a.user_page_reads,
        user_page_writes: b.user_page_writes - a.user_page_writes,
        requests: b.requests - a.requests,
        predict_hits: b.predict_hits - a.predict_hits,
        mispredicts: b.mispredicts - a.mispredicts,
        wear_blocks: b.wear_blocks,
        wear_sum: b.wear_sum,
        wear_sq_sum: b.wear_sq_sum,
    }
}

pub fn gc_delta(a: &GcStats, b: &GcStats) -> GcStats {
    GcStats {
        data_victims: b.data_victims - a.data_victims,
        data_pages_migrated: b.data_pages_migrated - a.data_pages_migrated,
        trans_victims: b.trans_victims - a.trans_victims,
        trans_pages_migrated: b.trans_pages_migrated - a.trans_pages_migrated,
    }
}

/// Everything the simulator modelled over one measured window. Two runs
/// of the same code, seed and window produce equal values; a change that
/// only speeds up host code must leave them (and the fingerprint) alone.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    pub ftl: FtlStats,
    pub flash: FlashDelta,
    pub gc: GcStats,
    pub sim: SimTiming,
}

impl WindowStats {
    /// The window between two single-queue reports, with the response
    /// distribution recorded over the same requests.
    pub fn between(before: &RunReport, after: &RunReport, resp: &Responses) -> Self {
        Self {
            ftl: ftl_delta(&before.ftl_stats, &after.ftl_stats),
            flash: FlashDelta::between(&before.flash, &after.flash),
            gc: gc_delta(&before.gc, &after.gc),
            sim: SimTiming {
                channels: after.sim.channels,
                ways: after.sim.ways,
                device_us: after.sim.device_us - before.sim.device_us,
                makespan_us: after.sim.makespan_us - before.sim.makespan_us,
                resp_avg_us: resp.mean(),
                resp_p50_us: resp.coarse.p50(),
                resp_p99_us: resp.coarse.p99(),
                resp_p999_us: resp.coarse.p999(),
            },
        }
    }

    /// A report that covers exactly the window (a fresh device).
    pub fn whole(report: &RunReport) -> Self {
        Self {
            ftl: report.ftl_stats.clone(),
            flash: FlashDelta::between(&FlashStats::default(), &report.flash),
            gc: report.gc.clone(),
            sim: report.sim,
        }
    }

    /// FNV-1a over the canonical (`Debug`) rendering; `f64` renders
    /// round-trip exact, so equal hashes mean bit-equal statistics.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&format!("{self:?}"))
    }

    /// Flash page writes per host page write (Fig. 6f).
    pub fn write_amp(&self) -> f64 {
        ratio(self.flash.total_writes(), self.ftl.user_page_writes)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sub-buckets per binade of [`FineHist`]: 0.1 % resolution, fine enough
/// that a percentile moves smoothly with the seed instead of jumping
/// between the engine histogram's 12.5 % buckets.
const FINE_BITS: u32 = 10;
const FINE_SUBS: usize = 1 << FINE_BITS;
const FINE_BINADES: usize = 40;

/// Log-bucketed histogram of simulated response times in µs.
pub struct FineHist {
    counts: Vec<u64>,
    total: u64,
}

impl FineHist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; 2 + FINE_BINADES * FINE_SUBS],
            total: 0,
        }
    }

    fn bucket_of(v_us: f64) -> usize {
        if v_us.is_nan() || v_us < 1.0 {
            return 0;
        }
        let bits = v_us.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as usize - 1023;
        if exp >= FINE_BINADES {
            return 1 + FINE_BINADES * FINE_SUBS;
        }
        let sub = ((bits >> (52 - FINE_BITS)) as usize) & (FINE_SUBS - 1);
        1 + exp * FINE_SUBS + sub
    }

    /// Midpoint of bucket `idx`.
    fn value_of(idx: usize) -> f64 {
        if idx == 0 {
            return 0.5;
        }
        let exp = ((idx - 1) / FINE_SUBS) as i32;
        let sub = (idx - 1) % FINE_SUBS;
        2f64.powi(exp) * (1.0 + (sub as f64 + 0.5) / FINE_SUBS as f64)
    }

    pub fn record(&mut self, v_us: f64) {
        self.counts[Self::bucket_of(v_us)] += 1;
        self.total += 1;
    }

    pub fn merge_from(&mut self, other: &FineHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(idx);
            }
        }
        Self::value_of(self.counts.len() - 1)
    }
}

/// Per-request simulated responses over a window: the engine's own
/// histogram (for the fingerprint), a fine one (for the reported
/// percentiles), the sum, and the queueing delay per quarter of the
/// window (for the backlog check).
pub struct Responses {
    pub coarse: LatencyHistogram,
    pub fine: FineHist,
    sum_us: f64,
    n: u64,
    window: u64,
    prev_done_us: f64,
    queue_us: [f64; 4],
    queue_n: [u64; 4],
}

impl Responses {
    /// `device_free_us` is when the request before the window completed.
    pub fn new(window: usize, device_free_us: f64) -> Self {
        Self {
            coarse: LatencyHistogram::new(),
            fine: FineHist::new(),
            sum_us: 0.0,
            n: 0,
            window: window.max(1) as u64,
            prev_done_us: device_free_us,
            queue_us: [0.0; 4],
            queue_n: [0; 4],
        }
    }

    /// Records one request from its arrival and simulated completion, as
    /// the engine computes its response; the queueing delay is the wait
    /// for the previous request to complete.
    #[inline]
    pub fn record(&mut self, arrival_us: f64, done_us: f64) {
        let response_us = done_us - arrival_us;
        let queued_us = (self.prev_done_us - arrival_us).max(0.0);
        self.prev_done_us = done_us;
        let quarter = ((self.n * 4 / self.window) as usize).min(3);
        self.queue_us[quarter] += queued_us;
        self.queue_n[quarter] += 1;
        self.coarse.record(response_us);
        self.fine.record(response_us);
        self.sum_us += response_us;
        self.n += 1;
    }

    /// Adds `other`'s responses (not its queueing quarters).
    pub fn merge_from(&mut self, other: &Responses) {
        self.coarse.merge_from(&other.coarse);
        self.fine.merge_from(&other.fine);
        self.sum_us += other.sum_us;
        self.n += other.n;
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_us / self.n as f64
        }
    }

    /// Mean queueing delay in the first and the last quarter of the window.
    pub fn queue_first_last(&self) -> (f64, f64) {
        let mean = |i: usize| self.queue_us[i] / self.queue_n[i].max(1) as f64;
        (mean(0), mean(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_quantiles_stay_within_a_tenth_of_a_percent() {
        let mut h = FineHist::new();
        for v in 1..=10_000 {
            h.record(v as f64);
        }
        for (q, exact) in [(0.5, 5000.0), (0.99, 9900.0), (0.999, 9990.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 1e-3, "q{q}: {got}");
        }
    }

    #[test]
    fn fingerprint_sees_every_bit() {
        let base = WindowStats {
            ftl: FtlStats::default(),
            flash: FlashDelta::default(),
            gc: GcStats::default(),
            sim: SimTiming::default(),
        };
        let mut nudged = base.clone();
        nudged.sim.device_us = f64::from_bits(1);
        assert_ne!(base.fingerprint(), nudged.fingerprint());
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }
}
