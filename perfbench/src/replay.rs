//! The traced replica of `Ssd::serve`.
//!
//! `Ssd` keeps its FTL and environment private, so the benchmark cannot
//! time the calls it makes. This module drives the same public functions
//! in the same order — `gc::ensure_free`, `Ftl::translate`,
//! `SsdEnv::program_data_page`, `SsdEnv::invalidate_page`,
//! `Ftl::update_mapping`, `SsdEnv::read_data_page`, with the trait's
//! default `write_page` expanded inline (TPFTL and LearnedFTL both use
//! it) — and records a span around each. The correctness gate checks that
//! its counters and simulated timing equal the engine's bit for bit, so
//! the spans describe the code the untraced run measures.

use std::time::Instant;

use tpftl_core::env::SsdEnv;
use tpftl_core::ftl::{AccessCtx, Ftl};
use tpftl_core::{driver, gc, Lpn, Result, SsdConfig};
use tpftl_flash::OpPurpose;
use tpftl_sim::{LatencyHistogram, RunReport, SimTiming};
use tpftl_trace::IoRequest;

use crate::window::WindowStats;

const PAGE_BYTES: u64 = 4096;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One (sub-)request through the replica: the parent of the rest.
    Request = 0,
    /// `ShardSplitter::split` of one host request.
    Split = 1,
    /// `gc::ensure_free` that found the free pool above the watermark.
    GcCheck = 2,
    /// `gc::ensure_free` that collected at least one victim.
    GcCollect = 3,
    Translate = 4,
    UpdateMapping = 5,
    ProgramData = 6,
    Invalidate = 7,
    ReadData = 8,
}

pub const KINDS: usize = 9;

impl Kind {
    fn from_u8(v: u8) -> Kind {
        [
            Kind::Request,
            Kind::Split,
            Kind::GcCheck,
            Kind::GcCollect,
            Kind::Translate,
            Kind::UpdateMapping,
            Kind::ProgramData,
            Kind::Invalidate,
            Kind::ReadData,
        ][v as usize]
    }
}

/// Span sink. The untraced replica uses [`NoTrace`], which compiles to
/// nothing.
pub trait Tracer {
    /// Stamps the spans recorded next with `request`.
    fn begin(&mut self, _request: u32) {}
    fn now(&self) -> u64;
    fn record(&mut self, kind: Kind, start: u64);
}

pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn record(&mut self, _: Kind, _: u64) {}
}

/// One closed span: 16 bytes, so a window's spans stay in memory.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start in ns since the recorder's epoch.
    pub start: u64,
    pub dur: u32,
    /// Request id in the low 28 bits, [`Kind`] in the high 4.
    tag: u32,
}

impl Span {
    pub fn kind(&self) -> Kind {
        Kind::from_u8((self.tag >> 28) as u8)
    }
    pub fn request(&self) -> u32 {
        self.tag & REQ_MASK
    }
    fn end(&self) -> u64 {
        self.start + self.dur as u64
    }
}

const REQ_MASK: u32 = (1 << 28) - 1;

/// In-memory span recorder. Spans are kept until the benchmark ends and
/// summarised by [`Spans::summary`].
pub struct Spans {
    epoch: Instant,
    request: u32,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            request: 0,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Measures the recorder's own cost with empty spans: `bias` is what
    /// one span adds to its recorded duration (about one clock read),
    /// `cost` what it adds to the wall time around it (two reads and a
    /// push). Per-layer times subtract `bias` per span.
    pub fn calibrate() -> Calibration {
        const N: usize = 200_000;
        let mut probe = Spans::new(N);
        let t = Instant::now();
        for _ in 0..N {
            let s = probe.now();
            probe.record(Kind::Split, s);
        }
        let cost_ns = t.elapsed().as_nanos() as f64 / N as f64;
        let bias_ns = probe.spans.iter().map(|s| s.dur as f64).sum::<f64>() / N as f64;
        Calibration { bias_ns, cost_ns }
    }

    /// Total time per kind and the span-accounting check: every child
    /// lies inside its request span, children do not overlap, so the
    /// request's duration is exactly the children's time plus its self
    /// time. Children are recorded before the parent that closes them.
    pub fn summary(&self) -> SpanSummary {
        let mut total_ns = [0u64; KINDS];
        let mut count = [0u64; KINDS];
        let mut self_ns = 0u64;
        let mut violations = 0u64;
        let mut open: Vec<Span> = Vec::new();
        for s in &self.spans {
            let kind = s.kind();
            total_ns[kind as usize] += s.dur as u64;
            count[kind as usize] += 1;
            match kind {
                Kind::Split => {}
                Kind::Request => {
                    let mut covered = 0u64;
                    let mut cursor = s.start;
                    for c in &open {
                        if c.request() != s.request() || c.start < cursor || c.end() > s.end() {
                            violations += 1;
                        }
                        covered += c.dur as u64;
                        cursor = c.end();
                    }
                    let own = (s.dur as u64).checked_sub(covered);
                    match own {
                        Some(own) if own + covered == s.dur as u64 => self_ns += own,
                        _ => violations += 1,
                    }
                    open.clear();
                }
                _ => open.push(*s),
            }
        }
        if !open.is_empty() {
            violations += open.len() as u64;
        }
        SpanSummary {
            total_ns,
            count,
            request_self_ns: self_ns,
            violations,
        }
    }
}

impl Tracer for Spans {
    #[inline]
    fn begin(&mut self, request: u32) {
        self.request = request;
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn record(&mut self, kind: Kind, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            start,
            dur: u32::try_from(end - start).unwrap_or(u32::MAX),
            tag: ((kind as u32) << 28) | (self.request & REQ_MASK),
        });
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub bias_ns: f64,
    pub cost_ns: f64,
}

pub struct SpanSummary {
    pub total_ns: [u64; KINDS],
    pub count: [u64; KINDS],
    /// Σ over request spans of duration minus child time.
    pub request_self_ns: u64,
    /// Spans that broke the accounting identity (must be 0).
    pub violations: u64,
}

impl SpanSummary {
    /// Recorded time of `kinds`, less the recorder's bias per span.
    pub fn ns(&self, kinds: &[Kind], cal: &Calibration) -> f64 {
        kinds
            .iter()
            .map(|k| {
                let (t, c) = (self.total_ns[*k as usize], self.count[*k as usize]);
                (t as f64 - c as f64 * cal.bias_ns).max(0.0)
            })
            .sum()
    }

    /// Time covered by the children of request spans.
    pub fn child_ns(&self, cal: &Calibration) -> f64 {
        self.ns(
            &[
                Kind::GcCheck,
                Kind::GcCollect,
                Kind::Translate,
                Kind::UpdateMapping,
                Kind::ProgramData,
                Kind::Invalidate,
                Kind::ReadData,
            ],
            cal,
        )
    }
}

/// An FTL and its environment driven exactly as `Ssd::serve` drives them
/// (no write buffer, no sampler), keeping the same simulated-time
/// bookkeeping.
pub struct Replica<F: Ftl> {
    ftl: F,
    env: SsdEnv,
    sim_free_us: f64,
    sim_span_us: f64,
    sim_resp_sum_us: f64,
    responses: u64,
    hist: LatencyHistogram,
}

impl<F: Ftl> Replica<F> {
    /// Builds and bootstraps the device as `Ssd::new` does.
    pub fn new(mut ftl: F, config: SsdConfig) -> Result<Self> {
        let mut env = SsdEnv::new(config)?;
        driver::bootstrap(&mut ftl, &mut env)?;
        Ok(Self {
            ftl,
            env,
            sim_free_us: 0.0,
            sim_span_us: 0.0,
            sim_resp_sum_us: 0.0,
            responses: 0,
            hist: LatencyHistogram::new(),
        })
    }

    /// Simulated completion time of the last request served.
    pub fn sim_done_us(&self) -> f64 {
        self.sim_free_us
    }

    /// Serves one request; returns its simulated response time.
    pub fn serve<T: Tracer>(&mut self, req: &IoRequest, t: &mut T) -> Result<f64> {
        let t_req = t.now();
        self.env.stats.requests += 1;
        let sim_start = req.arrival_us.max(self.sim_free_us);
        let mut sim_done = sim_start;
        let first = (req.offset / PAGE_BYTES) as Lpn;
        let count = req.page_count(PAGE_BYTES) as u32;
        for i in 0..count {
            let ctx = AccessCtx {
                is_write: req.is_write(),
                remaining_in_request: count - 1 - i,
            };
            self.env.sim_relax_to(sim_start);
            self.serve_page(first + i, ctx, t)?;
            sim_done = sim_done.max(self.env.sim_frontier_us());
        }
        self.env.sim_relax_to(sim_done);
        self.sim_free_us = sim_done;
        let response = sim_done - req.arrival_us;
        self.sim_resp_sum_us += response;
        self.sim_span_us += sim_done - sim_start;
        self.hist.record(response);
        self.responses += 1;
        t.record(Kind::Request, t_req);
        Ok(response)
    }

    /// `driver::serve_page_access` with the default `Ftl::write_page`
    /// expanded, one span per call.
    #[inline]
    fn serve_page<T: Tracer>(&mut self, lpn: Lpn, ctx: AccessCtx, t: &mut T) -> Result<()> {
        let (ftl, env) = (&mut self.ftl, &mut self.env);
        env.check_lpn(lpn)?;
        if ftl.uses_page_level_gc() {
            let victims = env.gc_stats.data_victims + env.gc_stats.trans_victims;
            let s = t.now();
            gc::ensure_free(ftl, env)?;
            let collected = env.gc_stats.data_victims + env.gc_stats.trans_victims != victims;
            t.record(
                if collected {
                    Kind::GcCollect
                } else {
                    Kind::GcCheck
                },
                s,
            );
        }
        if ctx.is_write {
            let s = t.now();
            let old = ftl.translate(env, lpn, &ctx)?;
            t.record(Kind::Translate, s);
            env.stats.user_page_writes += 1;
            let s = t.now();
            let new = env.program_data_page(lpn, OpPurpose::HostData)?;
            t.record(Kind::ProgramData, s);
            if let Some(old_ppn) = old {
                let s = t.now();
                env.invalidate_page(old_ppn)?;
                t.record(Kind::Invalidate, s);
            }
            let s = t.now();
            ftl.update_mapping(env, lpn, new)?;
            t.record(Kind::UpdateMapping, s);
        } else {
            env.stats.user_page_reads += 1;
            let s = t.now();
            let ppn = ftl.translate(env, lpn, &ctx)?;
            t.record(Kind::Translate, s);
            if let Some(ppn) = ppn {
                let s = t.now();
                env.read_data_page(ppn, lpn)?;
                t.record(Kind::ReadData, s);
            }
        }
        Ok(())
    }

    /// The subset of `Ssd::report` the benchmark compares: counters,
    /// flash and GC statistics and simulated timing, computed the same
    /// way.
    pub fn report(&self) -> RunReport {
        let mut ftl_stats = self.env.stats.clone();
        (
            ftl_stats.wear_blocks,
            ftl_stats.wear_sum,
            ftl_stats.wear_sq_sum,
        ) = self.env.wear_summary();
        let topo = self.env.config().topology;
        RunReport {
            ftl: self.ftl.name(),
            ftl_stats,
            flash: self.env.flash().stats().clone(),
            gc: self.env.gc_stats.clone(),
            avg_response_us: 0.0,
            cached_entries: self.ftl.cached_entries(),
            cache_bytes_used: self.ftl.cache_bytes_used(),
            cache_bytes_total: self.env.config().cache_bytes,
            sim: SimTiming {
                channels: topo.channels,
                ways: topo.ways,
                device_us: self.sim_span_us,
                makespan_us: self.env.flash().sim_device_done_us(),
                resp_avg_us: if self.responses == 0 {
                    0.0
                } else {
                    self.sim_resp_sum_us / self.responses as f64
                },
                resp_p50_us: self.hist.p50(),
                resp_p99_us: self.hist.p99(),
                resp_p999_us: self.hist.p999(),
            },
        }
    }
}

/// Compares a replica's report with the engine's on everything but the
/// FIFO response average, which the replica does not model.
pub fn same_run(engine: &RunReport, replica: &RunReport) -> bool {
    WindowStats::whole(engine) == WindowStats::whole(replica)
        && engine.cached_entries == replica.cached_entries
        && engine.cache_bytes_used == replica.cache_bytes_used
}
