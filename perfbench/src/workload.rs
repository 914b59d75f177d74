//! The three workloads: device, trace, and how much of it each run ages,
//! measures and repeats.

use std::time::Instant;

use tpftl_core::SsdConfig;
use tpftl_trace::presets::Workload as Preset;
use tpftl_trace::synth::SyntheticIter;
use tpftl_trace::{IoRequest, SyntheticSpec};

/// Shards of `msrts_sharded`: one per vCPU of the machine the benchmark
/// was sized on, next to the submitting thread.
pub const SHARDS: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPFTL(rsbc) on Financial1, 512 MB, prefilled, aged.
    Fin1Aged,
    /// TPFTL(rsbc) on MSR-ts, empty 16 GB, 4×2 units, 2 shards.
    MsrtsSharded,
    /// LearnedFTL(e4) on the semi-sequential trace, 64 MB, prefilled, aged.
    SemiseqLearned,
}

/// How a run divides its trace. Every count is fixed by the workload and
/// `--seconds`, never by elapsed time, so the simulated statistics of a
/// (seed, seconds) pair repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Requests served before measuring (part of set-up).
    pub aging: usize,
    /// Leading measured requests whose simulated statistics are reported,
    /// fingerprinted and replayed by the traced run.
    pub window: usize,
    /// Requests per timed slice; `host_req_per_s` is the slice median.
    pub slice: usize,
    /// Measured requests per repetition (window first).
    pub per_rep: usize,
    /// Repetitions, each on a freshly built and aged device.
    pub reps: usize,
}

impl Workload {
    /// The workloads `--workload all` runs (and `BENCHMARK.json` lists).
    /// `semiseq_learned` runs only when named: LearnedFTL fails it with
    /// `DeviceFull` on some seeds (see README.md).
    pub const ALL: [Workload; 2] = [Workload::Fin1Aged, Workload::MsrtsSharded];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fin1Aged => "fin1_aged",
            Workload::MsrtsSharded => "msrts_sharded",
            Workload::SemiseqLearned => "semiseq_learned",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::Fin1Aged,
            Workload::MsrtsSharded,
            Workload::SemiseqLearned,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn config(self) -> SsdConfig {
        match self {
            Workload::Fin1Aged => {
                let mut config = SsdConfig::paper_default(Preset::Financial1.address_bytes());
                config.prefill_frac = 1.0;
                config
            }
            Workload::MsrtsSharded => {
                let mut config = SsdConfig::paper_default(Preset::MsrTs.address_bytes());
                config.topology.channels = 4;
                config.topology.ways = 2;
                config
            }
            Workload::SemiseqLearned => {
                let mut config = SsdConfig::paper_default(64 << 20);
                config.cache_bytes = config.gtd_bytes() + 16 * 1024;
                config.prefill_frac = 1.0;
                config
            }
        }
    }

    /// The trace, with its own (Table 4 or scenario) arrival times.
    pub fn spec(self, config: &SsdConfig, requests: usize) -> SyntheticSpec {
        match self {
            Workload::Fin1Aged => Preset::Financial1.spec(requests),
            Workload::MsrtsSharded => Preset::MsrTs.spec(requests),
            Workload::SemiseqLearned => tpftl_bench::scenarios::semiseq_spec(config, requests),
        }
    }

    /// Sizes a run of about `seconds` of measured serving on a 2-vCPU
    /// x86-64 box (the `nominal` rates below were measured there).
    pub fn plan(self, seconds: u64) -> Plan {
        // (aging, window, slice, nominal req/s, min reps, per-rep cap)
        let (aging, window, slice, nominal, min_reps, cap) = match self {
            // Windowed write amplification levels after ~2M requests
            // (6.46 at 1M, 6.82 at 2M, 6.89 at 3M on seed 2015).
            // Short slices, each followed by a probe sample, follow the
            // neighbours' load as it changes within seconds.
            Workload::Fin1Aged => (2_000_000, 500_000, 10_000, 600_000, 3, usize::MAX),
            // No aging: the GC bypass only holds while the free pool lasts
            // (zero erases through 1.5M requests), which also caps a rep.
            // One `ShardedSsd::run` per slice; the window is the first 8.
            Workload::MsrtsSharded => (0, 400_000, 50_000, 1_500_000, 3, 1_200_000),
            // The predict-hit ratio falls from 0.39 to 0.20 over the first
            // 400k requests, then holds; write amplification levels too.
            // Six short repetitions: the per-request cost varies with the
            // seed's layout, so more seeds per run steady the median.
            Workload::SemiseqLearned => (500_000, 250_000, 50_000, 170_000, 6, usize::MAX),
        };
        let budget = seconds.max(1) as usize * nominal;
        let per_rep = (budget / min_reps / slice * slice).clamp(window, cap);
        Plan {
            aging,
            window,
            slice,
            per_rep,
            reps: (budget / per_rep).max(min_reps),
        }
    }
}

/// Pulls the trace in slices, so generation stays outside every timed
/// region and memory stays at one slice. Synthesis time is tallied for
/// `trace.synth_ns_per_req`.
pub struct Feed {
    iter: SyntheticIter,
    buf: Vec<IoRequest>,
    pub synth_ns: u128,
    pub generated: u64,
}

impl Feed {
    pub fn new(spec: &SyntheticSpec, seed: u64) -> Self {
        Self {
            iter: spec.iter(seed),
            buf: Vec::new(),
            synth_ns: 0,
            generated: 0,
        }
    }

    /// The next `n` requests.
    pub fn next(&mut self, n: usize) -> &[IoRequest] {
        let t = Instant::now();
        self.buf.clear();
        self.buf.extend(self.iter.by_ref().take(n));
        self.synth_ns += t.elapsed().as_nanos();
        self.generated += self.buf.len() as u64;
        assert_eq!(self.buf.len(), n, "trace shorter than the plan");
        &self.buf
    }
}
