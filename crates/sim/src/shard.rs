//! Sharded multi-queue SSD engine: parallel trace replay across
//! LPN-partitioned shards.
//!
//! The single-queue [`Ssd`] serves one page access at a time on one core.
//! This module scales replay across cores the way real NVMe-era SSDs scale
//! across channels/dies: the logical page space is striped over `N`
//! independent shards (`N` a power of two), each shard owning a complete
//! private device — flash arena, block manager, mapping cache, GC state —
//! of `1/N`-th the geometry (see `SsdConfig::shard_config`). One worker
//! thread per shard consumes an NVMe-style queue pair (see
//! [`crate::queue`]): the host pushes request batches into the shard's
//! bounded submission queue and harvests per-batch status entries from its
//! completion queue; doorbell park/unpark on both rings means an idle
//! worker sleeps instead of burning a core. A splitter on the submitting
//! thread routes (and, for multi-page requests, splits) the incoming
//! stream by the low LPN bits (see `tpftl_trace::ShardSplitter`).
//!
//! One driver runs the worker threads; two host loops pace it:
//!
//! * [`ShardedSsd::run`] — closed-loop replay: submit as fast as the
//!   queues accept, measure deterministic counters and simulated clocks.
//! * [`ShardedSsd::run_open_loop`] — open-loop steady state: requests
//!   arrive on a fixed wall-clock schedule regardless of completion (no
//!   coordinated omission; see `tpftl_trace::fixed_rate`), excess backlog
//!   queues host-side without bound, and each completion's response time
//!   is measured against its *scheduled* arrival. Reports offered vs
//!   achieved throughput and p50/p99/p999 wall-clock latency.
//!
//! The shards are ordinary [`Ssd`]s: [`ShardedSsd::from_shards`] accepts
//! any built the way a single-queue device is (write buffer, file-backed
//! flash), and [`ShardedSsd::new`] builds plain ones.
//!
//! # Determinism
//!
//! Thread interleaving can never change the result: each shard's
//! sub-request sequence is a *projection* of the trace (same relative
//! order, fixed by the single splitter), each shard's state is private, so
//! every per-shard [`RunReport`] is a pure function of (config, trace,
//! shard index). The merge then folds the per-shard reports **in shard
//! order**, so even the floating-point sums (`busy_us`, the simulated
//! response-time average) are bit-reproducible run to run. With one
//! shard, the splitter emits exactly the original page spans into a
//! single worker, and the merged report is the shard's report verbatim —
//! bit-identical to the single-queue path (pinned by the sharded golden
//! test). Open-loop runs
//! keep all of this for the *simulated* report (the arrival schedule is a
//! pure function of the offered rate); only the wall-clock latency
//! histogram varies run to run.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tpftl_core::env::GcStats;
use tpftl_core::ftl::Ftl;
use tpftl_core::{FtlError, FtlStats, Result, SsdConfig};
use tpftl_flash::{FlashError, FlashStats};
use tpftl_trace::{fixed_rate, IoRequest, ShardSplitter};

use crate::queue::{DoorbellStats, QueuePair};
use crate::{LatencyHistogram, RunReport, SimTiming, Ssd};

/// 4 KB pages everywhere (Table 3).
const PAGE_BYTES: u64 = 4096;

/// Requests per submitted batch in closed-loop replay (the submission
/// queue's item granularity).
const BATCH_REQUESTS: usize = 64;

/// Closed-loop submission-queue depth in batches — bounds the per-shard
/// queue at `SQ_BATCHES * BATCH_REQUESTS` in-flight requests.
const SQ_BATCHES: usize = 32;

/// Closed-loop completion-queue depth in batches. Sized to hold every
/// possible outstanding completion (`SQ_BATCHES` queued + one in
/// service), so the final drain can harvest shard by shard without ever
/// wedging a worker behind a full completion ring.
const CQ_BATCHES: usize = 2 * SQ_BATCHES;

// ---- Reports ----------------------------------------------------------------

/// Per-shard load distribution of one sharded run — reported so partition
/// skew is visible instead of silently averaged away.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLoadStats {
    /// Host sub-requests routed to each shard, in shard order.
    pub requests: Vec<u64>,
    /// User page accesses served by each shard, in shard order.
    pub page_accesses: Vec<u64>,
    /// Busiest shard's page accesses over the per-shard mean (1.0 =
    /// perfectly balanced; the run's wall clock tracks the busiest shard).
    pub imbalance: f64,
}

impl ShardLoadStats {
    fn from_reports(per_shard: &[RunReport]) -> Self {
        let page_accesses: Vec<u64> = per_shard
            .iter()
            .map(|r| r.ftl_stats.user_page_accesses())
            .collect();
        let max = page_accesses.iter().copied().max().unwrap_or(0);
        let mean = page_accesses.iter().sum::<u64>() as f64 / page_accesses.len().max(1) as f64;
        Self {
            requests: per_shard.iter().map(|r| r.ftl_stats.requests).collect(),
            page_accesses,
            imbalance: if mean == 0.0 { 1.0 } else { max as f64 / mean },
        }
    }
}

/// The result of a sharded run: the per-shard [`RunReport`]s (in shard
/// order) and their deterministic merge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedRunReport {
    /// Aggregate over all shards. With one shard this is the shard's
    /// report verbatim; otherwise counters are shard-order sums and the
    /// response average is the request-weighted mean.
    pub merged: RunReport,
    /// One report per shard, in shard order.
    pub per_shard: Vec<RunReport>,
    /// Load-balance summary of the same run.
    pub load: ShardLoadStats,
}

/// Folds per-shard reports in shard order; see [`ShardedRunReport::merged`].
fn merge_reports(per_shard: &[RunReport]) -> RunReport {
    assert!(!per_shard.is_empty(), "no shard reports to merge");
    if per_shard.len() == 1 {
        return per_shard[0].clone();
    }
    let mut ftl_stats = FtlStats::default();
    let mut flash = FlashStats::default();
    let mut gc = GcStats::default();
    let mut cached_entries = 0usize;
    let mut cache_bytes_used = 0usize;
    let mut cache_bytes_total = 0usize;
    // Simulated clocks: shards are parallel devices, so the merged
    // makespan is the latest shard's (shard-order fold of `max`, still
    // deterministic), while device time — occupied device-microseconds —
    // sums like `busy_us`. Percentiles need the sample distribution, not
    // per-shard percentiles; `ShardedSsd::report` fills them from the
    // merged histograms.
    let mut sim = SimTiming {
        channels: per_shard[0].sim.channels,
        ways: per_shard[0].sim.ways,
        ..SimTiming::default()
    };
    let mut sim_resp_weighted = 0.0;
    for r in per_shard {
        ftl_stats.merge_from(&r.ftl_stats);
        flash.merge_from(&r.flash);
        gc.merge_from(&r.gc);
        cached_entries += r.cached_entries;
        cache_bytes_used += r.cache_bytes_used;
        cache_bytes_total += r.cache_bytes_total;
        sim.device_us += r.sim.device_us;
        sim.makespan_us = sim.makespan_us.max(r.sim.makespan_us);
        sim_resp_weighted += r.sim.resp_avg_us * r.ftl_stats.requests as f64;
    }
    if ftl_stats.requests > 0 {
        sim.resp_avg_us = sim_resp_weighted / ftl_stats.requests as f64;
    }
    RunReport {
        ftl: per_shard[0].ftl.clone(),
        ftl_stats,
        flash,
        gc,
        avg_response_us: sim.resp_avg_us,
        cached_entries,
        cache_bytes_used,
        cache_bytes_total,
        sim,
    }
}

// ---- Open-loop driver types -------------------------------------------------

/// Parameters for one open-loop steady-state run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopOpts {
    /// Offered arrival rate, host requests per second. Request `k` is
    /// scheduled at `k / offered_rps` on the wall clock whether or not
    /// the device has kept up.
    pub offered_rps: f64,
    /// Per-shard submission-queue depth in requests (power of two).
    /// Requests beyond it queue host-side without bound.
    pub queue_depth: usize,
}

/// What an open-loop run measured.
///
/// The wall-clock numbers (`achieved_rps`, the `resp_*` percentiles,
/// `doorbells`) vary run to run with machine load; the embedded
/// [`ShardedRunReport`] is the same deterministic, bit-reproducible
/// simulation report a closed-loop run produces.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The configured arrival rate (host requests/s).
    pub offered_rps: f64,
    /// Host requests offered (scheduled and eventually completed).
    pub requests: u64,
    /// Sub-requests after shard splitting; each is measured as its own
    /// completion.
    pub sub_requests: u64,
    /// Wall clock from the first scheduled arrival to the last harvested
    /// completion, in microseconds.
    pub wall_us: f64,
    /// `requests / wall` — equals `offered_rps` while the device keeps
    /// up and collapses to the service rate beyond saturation.
    pub achieved_rps: f64,
    /// Mean wall-clock response (completion − scheduled arrival), µs.
    pub resp_avg_us: f64,
    /// Median wall-clock response, µs.
    pub resp_p50_us: f64,
    /// 99th-percentile wall-clock response, µs.
    pub resp_p99_us: f64,
    /// 99.9th-percentile wall-clock response, µs.
    pub resp_p999_us: f64,
    /// Largest host-side backlog observed (sub-requests waiting for
    /// submission-queue space), a direct overload signal.
    pub backlog_peak: u64,
    /// Park/unpark totals across every ring in the run — idle shards
    /// show up here as parks, not burned CPU.
    pub doorbells: DoorbellStats,
    /// The deterministic simulation-side report (FTL counters, simulated
    /// clocks), merged exactly like a closed-loop run.
    pub report: ShardedRunReport,
}

// ---- The engine -------------------------------------------------------------

/// `N` independent single-queue SSDs behind an LPN-striping splitter —
/// the multi-queue execution engine.
///
/// # Examples
///
/// ```
/// use tpftl_core::ftl::{TpFtl, TpftlConfig};
/// use tpftl_core::SsdConfig;
/// use tpftl_sim::ShardedSsd;
/// use tpftl_trace::SyntheticSpec;
///
/// let config = SsdConfig::paper_default(64 << 20);
/// let mut ssd = ShardedSsd::new(&config, 4, |_, shard_cfg| {
///     TpFtl::new(shard_cfg, TpftlConfig::full())
/// })
/// .unwrap();
/// let spec = SyntheticSpec {
///     requests: 300,
///     address_bytes: 64 << 20,
///     ..SyntheticSpec::default()
/// };
/// let report = ssd.run(spec.iter(42)).unwrap();
/// // Multi-page requests split into one sub-request per shard touched.
/// assert!(report.merged.ftl_stats.requests >= 300);
/// assert_eq!(report.per_shard.len(), 4);
/// ```
pub struct ShardedSsd<F: Ftl + Send> {
    shards: Vec<Ssd<F>>,
    splitter: ShardSplitter,
    last_doorbells: DoorbellStats,
}

impl<F: Ftl + Send> ShardedSsd<F> {
    /// Builds and bootstraps one `1/num_shards`-geometry SSD per shard;
    /// `build` constructs each shard's FTL from `(shard_index, shard_config)`.
    ///
    /// Fails with `FtlError::Flash(FlashError::InvalidGeometry)` when
    /// `config` cannot be partitioned into `num_shards` shards (see
    /// `SsdConfig::supports_shards`).
    pub fn new<B>(config: &SsdConfig, num_shards: u32, build: B) -> Result<Self>
    where
        B: Fn(u32, &SsdConfig) -> Result<F>,
    {
        let shard_config = config.try_shard_config(num_shards)?;
        let shards = (0..num_shards)
            .map(|s| Ssd::new(build(s, &shard_config)?, shard_config.clone()))
            .collect::<Result<Vec<_>>>()?;
        Self::from_shards(shards)
    }

    /// Runs prebuilt SSDs as the shards, in shard order. Each must be
    /// built on the same `SsdConfig::shard_config(shards.len())`, like a
    /// single-queue [`Ssd`] (with a write buffer, on file-backed flash,
    /// ...). Fails with `FtlError::Flash(FlashError::InvalidGeometry)`
    /// unless the shard count is a power of two.
    pub fn from_shards(shards: Vec<Ssd<F>>) -> Result<Self> {
        let n = u32::try_from(shards.len())
            .ok()
            .filter(|n| n.is_power_of_two())
            .ok_or(FtlError::Flash(FlashError::InvalidGeometry))?;
        Ok(Self {
            shards,
            splitter: ShardSplitter::new(n, PAGE_BYTES),
            last_doorbells: DoorbellStats::default(),
        })
    }

    /// The shard SSDs, in shard order (to flush buffers, sync backing
    /// files, or power-cycle them).
    pub fn into_shards(self) -> Vec<Ssd<F>> {
        self.shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.splitter.shards()
    }

    /// Read-only access to one shard's SSD (tests, inspection).
    pub fn shard(&self, index: usize) -> &Ssd<F> {
        &self.shards[index]
    }

    /// Park/unpark totals across all queue-pair doorbells of the most
    /// recent `run`/`run_open_loop` — the proof that idle workers slept
    /// (parks) and were woken by doorbells (wakeups), not by polling.
    pub fn doorbell_stats(&self) -> DoorbellStats {
        self.last_doorbells
    }

    /// Serves an entire trace across the shards — one worker thread per
    /// shard fed through its queue pair in batches of `BATCH_REQUESTS`,
    /// with per-batch completion entries harvested on the submitting
    /// thread — and reports the merged measurements.
    ///
    /// The first shard error (in shard order) is returned; remaining
    /// shards drain their queues so the splitter never blocks on a dead
    /// consumer.
    pub fn run<I>(&mut self, trace: I) -> Result<ShardedRunReport>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        let splitter = self.splitter;
        self.drive(
            SQ_BATCHES,
            CQ_BATCHES,
            |_: &Vec<IoRequest>, ok| ok,
            |pairs| submit_batches(pairs, splitter, trace),
        )?;
        Ok(self.report())
    }

    /// Drives the shards at a fixed wall-clock arrival rate (open loop).
    ///
    /// The trace's payloads are kept, its arrivals rewritten to the
    /// `opts.offered_rps` schedule (see `tpftl_trace::fixed_rate`).
    /// Requests are submitted when due — late submission is *caught up*
    /// in a burst, never skipped, so a stalled device accumulates
    /// backlog and the latency distribution shows it (no coordinated
    /// omission). Each sub-request's response time is wall clock at
    /// completion minus its **scheduled** arrival.
    ///
    /// The first shard error (in shard order) is returned, as in
    /// [`run`](Self::run).
    pub fn run_open_loop<I>(&mut self, trace: I, opts: OpenLoopOpts) -> Result<OpenLoopReport>
    where
        I: IntoIterator<Item = IoRequest>,
    {
        assert!(
            opts.queue_depth.is_power_of_two(),
            "queue depth not a power of two"
        );
        let splitter = self.splitter;
        let epoch = Instant::now();
        let wall_us = move || epoch.elapsed().as_secs_f64() * 1e6;
        // Completion queues get headroom over the submission depth so a
        // worker rarely waits on the host; the host still harvests on
        // every pacing tick.
        let host = self.drive(
            opts.queue_depth,
            (opts.queue_depth * 2).max(64),
            |sub: &[IoRequest; 1], ok| ok.then(|| (wall_us() - sub[0].arrival_us).max(0.0)),
            |pairs| {
                submit_paced(
                    pairs,
                    splitter,
                    fixed_rate(trace, opts.offered_rps),
                    wall_us,
                )
            },
        )?;

        debug_assert_eq!(host.completed, host.sub_requests);
        Ok(OpenLoopReport {
            offered_rps: opts.offered_rps,
            requests: host.requests,
            sub_requests: host.sub_requests,
            wall_us: host.wall_us,
            achieved_rps: if host.wall_us > 0.0 {
                host.requests as f64 * 1e6 / host.wall_us
            } else {
                0.0
            },
            resp_avg_us: if host.completed > 0 {
                host.resp_sum_us / host.completed as f64
            } else {
                0.0
            },
            resp_p50_us: host.hist.quantile(0.5),
            resp_p99_us: host.hist.quantile(0.99),
            resp_p999_us: host.hist.p999(),
            backlog_peak: host.backlog_peak,
            doorbells: self.last_doorbells,
            report: self.report(),
        })
    }

    /// The one driver behind both loops: runs one worker thread per shard
    /// behind its own queue pair (ring depths `sq_depth`, `cq_depth`)
    /// while `host` submits and harvests on the calling thread, then
    /// takes the shards back, records the doorbell totals, and returns
    /// the first shard error in shard order, else `host`'s result. Each
    /// submission entry is a run of requests; its completion entry is
    /// `complete(entry, served_ok)`.
    fn drive<S, C, R>(
        &mut self,
        sq_depth: usize,
        cq_depth: usize,
        complete: impl Fn(&S, bool) -> C + Sync,
        host: impl FnOnce(&[QueuePair<S, C>]) -> R,
    ) -> Result<R>
    where
        S: AsRef<[IoRequest]> + Send,
        C: Send,
    {
        let pairs: Vec<QueuePair<S, C>> = self
            .shards
            .iter()
            .map(|_| QueuePair::new(sq_depth, cq_depth))
            .collect();
        let shards = std::mem::take(&mut self.shards);
        let complete = &complete;

        let (joined, out) = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .zip(&pairs)
                .enumerate()
                .map(|(i, (ssd, pair))| {
                    std::thread::Builder::new()
                        .name(format!("ftl-shard-{i}"))
                        .spawn_scoped(scope, move || shard_worker(ssd, pair, complete))
                        .expect("spawn shard worker")
                })
                .collect();
            let out = host(&pairs);
            let joined: Vec<(Ssd<F>, Result<()>)> = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect();
            (joined, out)
        });

        self.last_doorbells = pairs
            .iter()
            .map(QueuePair::doorbell_stats)
            .fold(DoorbellStats::default(), DoorbellStats::merge);
        let mut result = Ok(out);
        for (ssd, res) in joined {
            if let (Err(e), Ok(_)) = (res, &result) {
                result = Err(e);
            }
            self.shards.push(ssd);
        }
        result
    }

    /// The measurements accumulated so far, merged in shard order.
    pub fn report(&self) -> ShardedRunReport {
        let per_shard: Vec<RunReport> = self.shards.iter().map(Ssd::report).collect();
        let mut merged = merge_reports(&per_shard);
        if self.shards.len() > 1 {
            // Exact merged percentiles: histogram counts are integers, so
            // this merge is order-independent and bit-reproducible.
            let mut hist = LatencyHistogram::new();
            for shard in &self.shards {
                hist.merge_from(shard.sim_histogram());
            }
            merged.sim.resp_p50_us = hist.quantile(0.5);
            merged.sim.resp_p99_us = hist.quantile(0.99);
            merged.sim.resp_p999_us = hist.p999();
        }
        ShardedRunReport {
            merged,
            load: ShardLoadStats::from_reports(&per_shard),
            per_shard,
        }
    }
}

/// Pops every posted completion into `on`; returns whether any was posted.
fn harvest<S, C>(pairs: &[QueuePair<S, C>], mut on: impl FnMut(C)) -> bool {
    let mut progress = false;
    for pair in pairs {
        while let Some(cqe) = pair.cq.try_pop() {
            progress = true;
            on(cqe);
        }
    }
    progress
}

/// The closed-loop host: route every request, batch per shard, push full
/// batches, and harvest whatever completions have posted meanwhile
/// (`true` = batch served); stop submitting after a failure.
fn submit_batches(
    pairs: &[QueuePair<Vec<IoRequest>, bool>],
    splitter: ShardSplitter,
    trace: impl IntoIterator<Item = IoRequest>,
) {
    let mut failed = false;
    let mut pending: Vec<Vec<IoRequest>> = pairs
        .iter()
        .map(|_| Vec::with_capacity(BATCH_REQUESTS))
        .collect();
    for req in trace {
        harvest(pairs, |ok| failed |= !ok);
        if failed {
            break;
        }
        splitter.split(&req, |shard, sub| pending[shard as usize].push(sub));
        for (batch, pair) in pending.iter_mut().zip(pairs) {
            if batch.len() >= BATCH_REQUESTS {
                let full = std::mem::replace(batch, Vec::with_capacity(BATCH_REQUESTS));
                // When the submission queue is full the push keeps
                // harvesting (the worker may be parked behind a full
                // completion queue) and parks with a timeout instead of
                // spinning.
                pair.sq.push_yielding(full, || {
                    harvest(pairs, |ok| failed |= !ok);
                });
            }
        }
    }
    for (batch, pair) in pending.iter_mut().zip(pairs) {
        if !batch.is_empty() {
            pair.sq.push_yielding(std::mem::take(batch), || {
                harvest(pairs, |ok| failed |= !ok);
            });
        }
        pair.sq.close();
    }
    // Final harvest, shard by shard: `pop_blocking` returns `None`
    // exactly when a worker closed its completion queue after draining
    // its submissions, and `CQ_BATCHES` slots are enough for every
    // outstanding batch, so no worker can block while the host sleeps
    // here.
    for pair in pairs {
        while pair.cq.pop_blocking().is_some() {}
    }
}

/// What the open-loop host measured on the wall clock.
#[derive(Default)]
struct Paced {
    hist: LatencyHistogram,
    resp_sum_us: f64,
    completed: u64,
    failed: bool,
    requests: u64,
    sub_requests: u64,
    backlog_peak: u64,
    wall_us: f64,
}

/// The open-loop host: release each request no earlier than its scheduled
/// arrival (on the `now_us` clock), split it into unbounded per-shard
/// backlogs in front of the bounded submission queues, and record each
/// completion's response (`None` = the shard failed).
fn submit_paced(
    pairs: &[QueuePair<[IoRequest; 1], Option<f64>>],
    splitter: ShardSplitter,
    schedule: impl Iterator<Item = IoRequest>,
    now_us: impl Fn() -> f64,
) -> Paced {
    let mut host = Paced::default();
    let mut backlog: Vec<VecDeque<IoRequest>> = pairs.iter().map(|_| VecDeque::new()).collect();
    let harvest = |host: &mut Paced| {
        harvest(pairs, |cqe| match cqe {
            Some(resp_us) => {
                host.hist.record(resp_us);
                host.resp_sum_us += resp_us;
                host.completed += 1;
            }
            None => host.failed = true,
        })
    };
    let drain = |backlog: &mut Vec<VecDeque<IoRequest>>| {
        for (queue, pair) in backlog.iter_mut().zip(pairs) {
            while let Some(&req) = queue.front() {
                if pair.sq.try_push([req]).is_err() {
                    break;
                }
                queue.pop_front();
            }
        }
    };

    for req in schedule {
        loop {
            harvest(&mut host);
            drain(&mut backlog);
            let remaining = req.arrival_us - now_us();
            if remaining <= 0.0 {
                break;
            }
            // Sleep in bounded chunks so completions keep being
            // harvested; close to the deadline, yield instead (the OS
            // timer is ~50 µs-grained). Oversleep is harmless: late
            // requests submit in a catch-up burst and their latency is
            // still measured from the schedule.
            if remaining > 150.0 {
                std::thread::sleep(Duration::from_micros(remaining.min(500.0) as u64 - 100));
            } else {
                std::thread::yield_now();
            }
        }
        if host.failed {
            break;
        }
        splitter.split(&req, |shard, sub| {
            backlog[shard as usize].push_back(sub);
            host.sub_requests += 1;
        });
        host.requests += 1;
        drain(&mut backlog);
        let queued: u64 = backlog.iter().map(|q| q.len() as u64).sum();
        host.backlog_peak = host.backlog_peak.max(queued);
    }

    // Flush the backlog (overload tail), then close and drain.
    while !host.failed && backlog.iter().any(|q| !q.is_empty()) {
        drain(&mut backlog);
        if !harvest(&mut host) {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    for pair in pairs {
        pair.sq.close();
    }
    loop {
        harvest(&mut host);
        if pairs.iter().all(|p| p.cq.is_closed() && p.cq.is_empty()) {
            break;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    host.wall_us = now_us();
    host
}

/// One shard's worker: serve each submission entry's requests until the
/// submission queue closes, posting one completion entry per submission.
/// After a serve error the worker posts failed completions (telling the
/// host to stop submitting) and keeps draining without serving, so the
/// bounded queue never wedges the producer.
fn shard_worker<F: Ftl + Send, S: AsRef<[IoRequest]>, C>(
    mut ssd: Ssd<F>,
    pair: &QueuePair<S, C>,
    complete: &impl Fn(&S, bool) -> C,
) -> (Ssd<F>, Result<()>) {
    let mut result = Ok(());
    while let Some(entry) = pair.sq.pop_blocking() {
        if result.is_ok() {
            for req in entry.as_ref() {
                if let Err(e) = ssd.serve(req) {
                    result = Err(e);
                    break;
                }
            }
        }
        pair.cq.push_blocking(complete(&entry, result.is_ok()));
    }
    pair.cq.close();
    (ssd, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpftl_core::ftl::{OptimalFtl, TpFtl, TpftlConfig};
    use tpftl_trace::{Dir, SyntheticSpec};

    fn spec(requests: usize) -> SyntheticSpec {
        SyntheticSpec {
            requests,
            address_bytes: 64 << 20,
            write_ratio: 0.7,
            mean_req_sectors: 24.0, // multi-page requests exercise the split
            mean_interarrival_us: 300.0,
            ..SyntheticSpec::default()
        }
    }

    fn tp_config() -> SsdConfig {
        let mut config = SsdConfig::paper_default(64 << 20);
        config.cache_bytes = config.gtd_bytes() + 16 * 1024;
        config
    }

    fn build_tp(_: u32, cfg: &SsdConfig) -> Result<TpFtl> {
        TpFtl::new(cfg, TpftlConfig::full())
    }

    #[test]
    fn one_shard_matches_single_queue_bit_for_bit() {
        let config = tp_config();
        let trace: Vec<IoRequest> = spec(1_500).iter(7).collect();

        let ftl = TpFtl::new(&config, TpftlConfig::full()).unwrap();
        let mut single = Ssd::new(ftl, config.clone()).unwrap();
        let single_report = single.run(trace.iter().copied()).unwrap();

        let mut sharded = ShardedSsd::new(&config, 1, build_tp).unwrap();
        let report = sharded.run(trace).unwrap();
        assert_eq!(report.merged, single_report);
        assert_eq!(report.per_shard.len(), 1);
        assert!((report.load.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn four_shards_are_deterministic_and_conserve_accesses() {
        let config = tp_config();
        let trace: Vec<IoRequest> = spec(2_000).iter(11).collect();

        let ftl = TpFtl::new(&config, TpftlConfig::full()).unwrap();
        let mut single = Ssd::new(ftl, config.clone()).unwrap();
        let single_report = single.run(trace.iter().copied()).unwrap();

        let run = || {
            let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
            sharded.run(trace.iter().copied()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same trace must merge to identical reports");

        // The partition must conserve work: same page accesses, reads,
        // writes as the single-queue run (requests multiply when split).
        assert_eq!(
            a.merged.ftl_stats.user_page_accesses(),
            single_report.ftl_stats.user_page_accesses()
        );
        assert_eq!(
            a.merged.ftl_stats.user_page_reads,
            single_report.ftl_stats.user_page_reads
        );
        assert_eq!(
            a.merged.ftl_stats.user_page_writes,
            single_report.ftl_stats.user_page_writes
        );
        assert_eq!(
            a.load.page_accesses.iter().sum::<u64>(),
            single_report.ftl_stats.user_page_accesses()
        );
        assert!(a.load.imbalance >= 1.0);
        // Low-bit striping keeps this workload within a few percent of
        // perfectly balanced.
        assert!(a.load.imbalance < 1.1, "imbalance {}", a.load.imbalance);
    }

    #[test]
    fn merge_is_request_weighted() {
        let config = tp_config();
        let mut sharded = ShardedSsd::new(&config, 2, build_tp).unwrap();
        let report = sharded.run(spec(800).iter(3)).unwrap();
        let by_hand: f64 = report
            .per_shard
            .iter()
            .map(|r| r.avg_response_us * r.ftl_stats.requests as f64)
            .sum::<f64>()
            / report
                .per_shard
                .iter()
                .map(|r| r.ftl_stats.requests)
                .sum::<u64>() as f64;
        assert!((report.merged.avg_response_us - by_hand).abs() < 1e-9);
        assert_eq!(
            report.merged.ftl_stats.requests,
            report.per_shard.iter().map(|r| r.ftl_stats.requests).sum()
        );
    }

    #[test]
    fn sim_clocks_merge_deterministically() {
        let config = tp_config();
        let trace: Vec<IoRequest> = spec(1_200).iter(9).collect();
        let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
        let report = sharded.run(trace).unwrap();
        let m = &report.merged.sim;
        // Makespan is the latest shard; device time the sum of all shards.
        let max_makespan = report
            .per_shard
            .iter()
            .map(|r| r.sim.makespan_us)
            .fold(0.0f64, f64::max);
        let sum_device: f64 = report.per_shard.iter().map(|r| r.sim.device_us).sum();
        assert_eq!(m.makespan_us.to_bits(), max_makespan.to_bits());
        assert_eq!(m.device_us.to_bits(), sum_device.to_bits());
        // Percentiles come from the merged histogram, not a fold of
        // per-shard percentiles.
        let mut hist = LatencyHistogram::new();
        for i in 0..4 {
            hist.merge_from(sharded.shard(i).sim_histogram());
        }
        assert_eq!(m.resp_p50_us, hist.quantile(0.5));
        assert_eq!(m.resp_p99_us, hist.quantile(0.99));
        assert_eq!(m.resp_p999_us, hist.p999());
        assert!(m.resp_p999_us >= m.resp_p99_us);
        assert!(m.resp_p99_us >= m.resp_p50_us);
        assert!(hist.total() > 0);
    }

    #[test]
    fn unsplittable_shard_counts_are_typed_errors() {
        let config = tp_config();
        let invalid = Some(FtlError::Flash(FlashError::InvalidGeometry));
        for n in [0, 3, 6, 1 << 20] {
            assert_eq!(ShardedSsd::new(&config, n, build_tp).err(), invalid, "{n}");
        }
        let shard_config = config.shard_config(4);
        let shards = (0..3)
            .map(|s| Ssd::new(build_tp(s, &shard_config).unwrap(), shard_config.clone()).unwrap())
            .collect();
        assert_eq!(ShardedSsd::from_shards(shards).err(), invalid);
        assert_eq!(ShardedSsd::<TpFtl>::from_shards(Vec::new()).err(), invalid);
    }

    #[test]
    fn from_shards_runs_devices_built_like_single_queue_ones() {
        let shard_config = tp_config().shard_config(2);
        let build = || {
            Ssd::new(build_tp(0, &shard_config).unwrap(), shard_config.clone())
                .unwrap()
                .with_write_buffer(16)
        };
        let trace: Vec<IoRequest> = spec(600).iter(4).collect();
        let mut sharded = ShardedSsd::from_shards(vec![build(), build()]).unwrap();
        let report = sharded.run(trace.iter().copied()).unwrap();

        // Each shard serves its projection of the trace exactly as a
        // standalone device with the same buffer would.
        let mut alone = [build(), build()];
        let splitter = ShardSplitter::new(2, PAGE_BYTES);
        for req in &trace {
            splitter.split(req, |s, sub| {
                alone[s as usize].serve(&sub).unwrap();
            });
        }
        let shards = sharded.into_shards();
        assert_eq!(shards.len(), 2);
        for ((shard, single), r) in shards.iter().zip(&alone).zip(&report.per_shard) {
            assert_eq!(single.report(), *r);
            assert_eq!(shard.report(), *r);
            assert_eq!(shard.buffer_stats(), single.buffer_stats());
            assert!(shard.buffer_stats().unwrap().write_inserted > 0);
        }
    }

    #[test]
    fn shard_errors_surface_in_shard_order() {
        let config = SsdConfig::paper_default(64 << 20);
        let mut sharded = ShardedSsd::new(&config, 2, |_, cfg| Ok(OptimalFtl::new(cfg))).unwrap();
        // One shard owns 8192 local pages; address far beyond both shards.
        let bad = IoRequest::new(0.0, 1 << 30, 4096, Dir::Write);
        assert!(sharded.run(std::iter::once(bad)).is_err());
        // The engine survives the error: shards are back and usable.
        let ok = IoRequest::new(0.0, 0, 4096, Dir::Write);
        assert!(sharded.run(std::iter::once(ok)).is_ok());
    }

    #[test]
    fn open_loop_completes_everything_and_reports_sane_latencies() {
        let config = tp_config();
        let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
        let out = sharded
            .run_open_loop(
                spec(400).iter(21),
                OpenLoopOpts {
                    offered_rps: 100_000.0,
                    queue_depth: 64,
                },
            )
            .unwrap();
        assert_eq!(out.requests, 400);
        assert!(out.sub_requests >= out.requests);
        assert_eq!(
            out.report.merged.ftl_stats.requests, out.sub_requests,
            "every offered sub-request must be served exactly once"
        );
        assert!(out.wall_us > 0.0 && out.achieved_rps > 0.0);
        assert!(
            out.achieved_rps <= out.offered_rps * 1.05,
            "cannot serve faster than offered"
        );
        assert!(out.resp_p50_us <= out.resp_p99_us);
        assert!(out.resp_p99_us <= out.resp_p999_us);
        assert!(out.resp_avg_us >= 0.0);
    }

    #[test]
    fn open_loop_simulation_report_is_deterministic() {
        // Wall-clock latencies vary run to run; the embedded simulation
        // report must not (fixed arrival schedule, shard-order merge).
        let config = tp_config();
        let run = || {
            let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
            sharded
                .run_open_loop(
                    spec(600).iter(5),
                    OpenLoopOpts {
                        offered_rps: 500_000.0,
                        queue_depth: 64,
                    },
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!((a.requests, a.sub_requests), (b.requests, b.sub_requests));
    }

    #[test]
    fn open_loop_idle_shards_park_instead_of_spinning() {
        // 2 000 req/s over 4 shards leaves every worker idle ~99% of the
        // run; parked workers are the "idle engine consumes ~0% CPU"
        // guarantee. Each worker parks after nearly every request, so
        // parks track the request count, not the spin budget.
        let config = tp_config();
        let mut sharded = ShardedSsd::new(&config, 4, build_tp).unwrap();
        let out = sharded
            .run_open_loop(
                spec(60).iter(13),
                OpenLoopOpts {
                    offered_rps: 2_000.0,
                    queue_depth: 64,
                },
            )
            .unwrap();
        let db = out.doorbells;
        assert!(
            db.parks >= out.requests / 4,
            "workers spun instead of parking: {} parks for {} requests",
            db.parks,
            out.requests
        );
        assert!(db.wakeups >= 1, "doorbells never rang");
        assert_eq!(sharded.doorbell_stats(), db);
    }

    #[test]
    fn open_loop_shard_errors_surface() {
        let config = SsdConfig::paper_default(64 << 20);
        let mut sharded = ShardedSsd::new(&config, 2, |_, cfg| Ok(OptimalFtl::new(cfg))).unwrap();
        let bad = IoRequest::new(0.0, 1 << 30, 4096, Dir::Write);
        let res = sharded.run_open_loop(
            std::iter::once(bad),
            OpenLoopOpts {
                offered_rps: 10_000.0,
                queue_depth: 16,
            },
        );
        assert!(res.is_err());
        let ok = IoRequest::new(0.0, 0, 4096, Dir::Write);
        assert!(sharded
            .run_open_loop(
                std::iter::once(ok),
                OpenLoopOpts {
                    offered_rps: 10_000.0,
                    queue_depth: 16,
                },
            )
            .is_ok());
    }
}
