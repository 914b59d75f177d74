//! Steady-state, layer-attributed benchmark of the TPFTL simulator.
//!
//! ```text
//! tpftl-perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` builds and ages the workload's device several times and
//! times measured windows through the engine (`Ssd::serve`,
//! `ShardedSsd::run`); it prints the end-to-end metrics. `--trace 1`
//! replays the same window once more through the benchmark's replica of
//! the engine with a span around every call into the FTL, GC and flash
//! layers; it prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object, and every correctness check that
//! fails is named and makes the exit code non-zero. `--workload all` runs
//! every benchmark workload untraced and traced, each in its own process.
//! See the package's README.md.

mod probe;
mod replay;
mod window;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Instant;

use tpftl_core::ftl::{Ftl, LearnedFtl, TpFtl, TpftlConfig};
use tpftl_core::{Result, SsdConfig};
use tpftl_flash::OpPurpose;
use tpftl_sim::{RunReport, ShardedSsd, Ssd};
use tpftl_trace::{IoRequest, ShardSplitter};

use probe::Probe;
use replay::{same_run, Calibration, Kind, NoTrace, Replica, Spans, Tracer};
use window::{ratio, Responses, WindowStats};
use workload::{Feed, Plan, Workload, SHARDS};

const PAGE_BYTES: u64 = 4096;
const DEFAULT_SEED: u64 = 2015;
/// A seed the benchmark was not tuned on; a claimed gain must also hold
/// on it.
const HELD_OUT_SEED: u64 = 7;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tpftl-perfbench [--workload fin1_aged|msrts_sharded|semiseq_learned|all] \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    print_machine();
    match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    }
}

fn print_machine() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!(
        "machine: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" default_seed={DEFAULT_SEED} held_out_seed={HELD_OUT_SEED}",
        env!("PERFBENCH_RUSTC")
    );
}

/// Runs every workload untraced, then traced, each in a child process so
/// each has its own peak-RSS figure.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} --trace {trace} failed: {s}", w.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{} --trace {trace} did not start: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metrics, checks and request counts of one run.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<(&'static str, bool, String)>,
    attempted: u64,
    served: u64,
}

impl Outcome {
    fn new() -> Self {
        Self {
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            served: 0,
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push((name, ok, detail));
    }
}

fn run_workload(w: Workload, args: &Args) -> ExitCode {
    populate_file_mappings();
    let plan = w.plan(args.seconds);
    println!(
        "workload {} seed={} seconds={} trace={} plan: aging={} window={} slice={} per_rep={} reps={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        plan.aging,
        plan.window,
        plan.slice,
        plan.per_rep,
        plan.reps
    );
    let mut out = Outcome::new();
    let res = match (w, args.trace) {
        (Workload::Fin1Aged, false) => untraced_single(w, &plan, args.seed, tpftl, &mut out),
        (Workload::SemiseqLearned, false) => {
            untraced_single(w, &plan, args.seed, learned, &mut out)
        }
        (Workload::MsrtsSharded, false) => untraced_sharded(w, &plan, args.seed, &mut out),
        (Workload::Fin1Aged, true) => traced_single(w, &plan, args.seed, tpftl, &mut out),
        (Workload::SemiseqLearned, true) => traced_single(w, &plan, args.seed, learned, &mut out),
        (Workload::MsrtsSharded, true) => traced_sharded(w, &plan, args.seed, &mut out),
    };
    if let Err(e) = res {
        out.check("serve_errors", false, format!("engine error: {e}"));
    }
    finish(out)
}

fn tpftl(config: &SsdConfig) -> Result<TpFtl> {
    TpFtl::new(config, TpftlConfig::full())
}

fn learned(config: &SsdConfig) -> Result<LearnedFtl> {
    LearnedFtl::new(config)
}

/// Prints metrics and checks, then the one-line JSON result.
fn finish(mut out: Outcome) -> ExitCode {
    let failed = out.attempted - out.served.min(out.attempted);
    for &(name, value, _) in &out.metrics {
        if !value.is_finite() {
            out.checks
                .push(("finite_metrics", false, format!("{name} = {value}")));
        }
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<28} {value:>18.6} {unit}");
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "  check {name:<24} {} {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    let correct = failed == 0 && out.checks.iter().all(|c| c.1);
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- Shared measurement pieces --------------------------------------------

/// What the benchmark needs from a single-queue device: the engine's
/// `Ssd` in untraced runs, the replica for the traced run's aging.
trait Device {
    fn serve(&mut self, req: &IoRequest) -> Result<()>;
    /// Simulated completion time of the last request served.
    fn done_us(&self) -> f64;
    /// (host page writes, flash page writes) so far.
    fn writes(&self) -> (u64, u64);
}

impl<F: Ftl> Device for Ssd<F> {
    #[inline]
    fn serve(&mut self, req: &IoRequest) -> Result<()> {
        Ssd::serve(self, req).map(|_| ())
    }
    #[inline]
    fn done_us(&self) -> f64 {
        self.env().sim_frontier_us()
    }
    fn writes(&self) -> (u64, u64) {
        let env = self.env();
        (
            env.stats.user_page_writes,
            env.flash().stats().total_writes(),
        )
    }
}

impl<F: Ftl> Device for Replica<F> {
    #[inline]
    fn serve(&mut self, req: &IoRequest) -> Result<()> {
        Replica::serve(self, req, &mut NoTrace).map(|_| ())
    }
    #[inline]
    fn done_us(&self) -> f64 {
        self.sim_done_us()
    }
    fn writes(&self) -> (u64, u64) {
        let r = Replica::report(self);
        (r.ftl_stats.user_page_writes, r.flash.total_writes())
    }
}

/// CPU seconds consumed so far by every thread of this process, live or
/// exited. The kernel accounts time the hypervisor steals from a vCPU as
/// steal, not as CPU time, so this clock does not run while the process
/// is runnable but not running.
fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux), and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock and process CPU time of one timed region.
struct Timer {
    wall: Instant,
    cpu_s: f64,
}

impl Timer {
    fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// (wall seconds, CPU seconds) since `start`.
    fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// Reference seconds of a region timed since `t`: its process CPU time
/// divided by the probe's scale, sampled now and at the previous call.
/// Set-up is timed this way so that neighbours' load cancels from
/// `setup_s` as it does from the throughput.
fn ref_secs(t: &Timer, probe: &mut Probe) -> f64 {
    t.stop().1 / probe.scale()
}

/// Serves `reqs`, recording responses if asked; returns the (wall, CPU)
/// seconds spent serving.
fn serve_timed<D: Device>(
    dev: &mut D,
    reqs: &[IoRequest],
    mut resp: Option<&mut Responses>,
    served: &mut u64,
) -> Result<(f64, f64)> {
    let t = Timer::start();
    for r in reqs {
        dev.serve(r)?;
        *served += 1;
        if let Some(resp) = resp.as_deref_mut() {
            resp.record(r.arrival_us, dev.done_us());
        }
    }
    Ok(t.stop())
}

/// Ages a device, timing only the serving. Returns the reference seconds
/// spent and the write amplification of each quarter of the aging stream.
fn age<D: Device>(
    dev: &mut D,
    feed: &mut Feed,
    plan: &Plan,
    probe: &mut Probe,
) -> Result<(f64, [f64; 4])> {
    let mut secs = 0.0;
    let mut wa = [0.0; 4];
    let quarter = plan.aging / 4;
    let mut ignored = 0;
    for q in &mut wa {
        let (u0, f0) = dev.writes();
        let mut left = quarter;
        while left > 0 {
            let n = left.min(plan.slice);
            secs += serve_timed(dev, feed.next(n), None, &mut ignored)?.1 / probe.scale();
            left -= n;
        }
        let (u1, f1) = dev.writes();
        *q = ratio(f1 - f0, u1 - u0);
    }
    Ok((secs, wa))
}

/// Upper bound on the timed slices of one `age`.
fn aging_slices(plan: &Plan) -> usize {
    plan.aging / plan.slice + 4
}

/// Host requests and page accesses of a window trace.
#[derive(Debug, Default, PartialEq, Clone, Copy)]
struct TraceCounts {
    requests: u64,
    read_pages: u64,
    write_pages: u64,
}

impl TraceCounts {
    fn add<'a>(&mut self, reqs: impl IntoIterator<Item = &'a IoRequest>) {
        for r in reqs {
            self.requests += 1;
            let pages = r.page_count(PAGE_BYTES) as u64;
            if r.is_write() {
                self.write_pages += pages;
            } else {
                self.read_pages += pages;
            }
        }
    }

    fn matches(&self, w: &WindowStats) -> bool {
        self.requests == w.ftl.requests
            && self.read_pages == w.ftl.user_page_reads
            && self.write_pages == w.ftl.user_page_writes
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn spread(name: &str, v: &mut [f64]) {
    let m = median(v);
    println!(
        "  {name} over {} samples: min {:.6} median {m:.6} max {:.6}",
        v.len(),
        v.first().copied().unwrap_or(0.0),
        v.last().copied().unwrap_or(0.0)
    );
}

/// Maps in every page of the process's file-backed mappings (the binary
/// and its shared libraries) before anything runs. Left to demand paging,
/// how many of them a run maps depends on what the host's page cache holds
/// (fault-around maps only cached neighbours), which moved `peak_rss_mb`
/// by a few hundred KB between identical runs; populated up front, the
/// file-backed part of the peak is the fixed size of the mappings.
fn populate_file_mappings() {
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_POPULATE_READ: c_int = 22;
    let Ok(maps) = std::fs::read_to_string("/proc/self/maps") else {
        return;
    };
    for line in maps.lines() {
        // start-end perms offset dev inode [path]
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(range), Some(perms), Some(path)) = (fields.first(), fields.get(1), fields.get(5))
        else {
            continue;
        };
        if !perms.starts_with('r') || !path.starts_with('/') {
            continue;
        }
        let Some((start, end)) = range.split_once('-') else {
            continue;
        };
        let (Ok(start), Ok(end)) = (
            usize::from_str_radix(start, 16),
            usize::from_str_radix(end, 16),
        ) else {
            continue;
        };
        // SAFETY: the range is a live, readable mapping of this process;
        // MADV_POPULATE_READ only fills page tables as reads would, changes
        // no memory, and reports failure (e.g. pages past the end of the
        // file) as an error return, which is ignored, instead of SIGBUS.
        unsafe { madvise(start as *mut c_void, end - start, MADV_POPULATE_READ) };
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn check_levelled(out: &mut Outcome, reps: &[[f64; 4]]) {
    let mut worst = 0.0f64;
    let mut detail = String::from("aging WA by quarter:");
    for wa in reps {
        worst = worst.max((wa[3] / wa[2] - 1.0).abs());
        detail += &format!(" [{:.3} {:.3} {:.3} {:.3}]", wa[0], wa[1], wa[2], wa[3]);
    }
    out.check(
        "wa_levelled",
        worst <= 0.05,
        format!(
            "{detail}; last two quarters differ by up to {:.2}% (limit 5%)",
            worst * 100.0
        ),
    );
}

fn check_backlog(out: &mut Outcome, resp: &[&Responses]) {
    let mut ok = true;
    let mut detail = String::from("mean queueing first→last quarter of window (µs):");
    for r in resp {
        let (first, last) = r.queue_first_last();
        ok &= last <= 1.5 * first + 1000.0;
        detail += &format!(" {first:.1}→{last:.1}");
    }
    out.check("backlog_flat", ok, detail + " (limit 1.5x + 1 ms)");
}

/// Per-slice serving rates against both clocks, and the CPU rate scaled
/// by the calibration probe sampled around the slice.
struct Rates {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    norm: Vec<f64>,
    probe: Probe,
}

impl Rates {
    /// Room for every slice and probe sample of `plan`, taken up front:
    /// grown slice by slice between the shard workers' allocations, these
    /// vectors left the peak RSS of `msrts_sharded` ~25 MB higher and its
    /// spread over seeds ten times wider (1.6 % against 0.15 %).
    fn new(plan: &Plan) -> Self {
        let slices = plan.reps * plan.per_rep / plan.slice;
        let aging = plan.reps * aging_slices(plan);
        Self {
            wall: Vec::with_capacity(slices),
            cpu: Vec::with_capacity(slices),
            norm: Vec::with_capacity(slices),
            probe: Probe::new(slices + aging + 3 * plan.reps),
        }
    }

    fn push(&mut self, requests: usize, (wall_s, cpu_s): (f64, f64)) {
        self.wall.push(requests as f64 / wall_s);
        self.cpu.push(requests as f64 / cpu_s);
        self.norm.push(requests as f64 / cpu_s * self.probe.scale());
    }
}

fn e2e_metrics(
    out: &mut Outcome,
    rates: &mut Rates,
    setups: &mut [f64],
    write_amp: f64,
    resp_mean: f64,
    p99: f64,
    p999: f64,
) {
    // Wall-clock and raw CPU rates are printed for reference only: on a
    // shared VM they swing with steal time and with the neighbours' load.
    spread("host_req_per_s (wall clock)", &mut rates.wall);
    spread("host_req_per_cpu_s (process CPU clock)", &mut rates.cpu);
    spread("probe elements/cpu_s", &mut rates.probe.samples);
    spread("host_req_per_ref_s", &mut rates.norm);
    spread("setup_s", setups);
    out.metric("host_req_per_ref_s", median(&mut rates.norm), "req/ref_s");
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let served_frac = ratio(out.served, out.attempted);
    println!("  failed_frac {:.6}", 1.0 - served_frac);
    out.metric("served_frac", served_frac, "ratio");
    out.metric("sim_resp_mean_us", resp_mean, "sim_us");
    out.metric("sim_resp_p99_us", p99, "sim_us");
    out.metric("sim_resp_p999_us", p999, "sim_us");
    out.metric("write_amp", write_amp, "ratio");
}

/// One hash over the windows' simulated statistics.
fn print_fingerprint(wins: &[WindowStats]) {
    let hash = window::fnv1a(&format!("{wins:?}"));
    println!("  fingerprint 0x{hash:016x} (window FtlStats/FlashStats/GcStats/SimTiming of {} window(s))", wins.len());
}

// ---- Untraced runs ----------------------------------------------------------

/// The trace seed of repetition `rep`: the run's seed first (the one the
/// traced run replays), then distinct derived seeds, so the windows'
/// union samples more of the workload than one window repeated.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_add(rep as u64 * 0x9E37_79B9_7F4A_7C15)
}

fn untraced_single<F: Ftl>(
    w: Workload,
    plan: &Plan,
    seed: u64,
    build: fn(&SsdConfig) -> Result<F>,
    out: &mut Outcome,
) -> Result<()> {
    let config = w.config();
    let spec = w.spec(&config, plan.aging + plan.per_rep);
    out.attempted = (plan.reps * plan.per_rep) as u64;
    let (mut rates, mut setups) = (Rates::new(plan), Vec::with_capacity(plan.reps));
    let mut wins = Vec::new();
    let mut reps_wa = Vec::new();
    let mut resps = Vec::new();
    for rep in 0..plan.reps {
        let mut feed = Feed::new(&spec, rep_seed(seed, rep));
        rates.probe.scale();
        let t = Timer::start();
        let mut ssd = Ssd::new(build(&config)?, config.clone())?;
        let bootstrap = ref_secs(&t, &mut rates.probe);
        let (aging, wa) = age(&mut ssd, &mut feed, plan, &mut rates.probe)?;
        setups.push(bootstrap + aging);
        reps_wa.push(wa);

        let before = ssd.report();
        let mut resp = Responses::new(plan.window, ssd.done_us());
        let mut counts = TraceCounts::default();
        let mut done = 0;
        rates.probe.scale();
        while done < plan.per_rep {
            let reqs = feed.next(plan.slice);
            let in_window = done < plan.window;
            if in_window {
                counts.add(reqs);
            }
            let secs = serve_timed(
                &mut ssd,
                reqs,
                in_window.then_some(&mut resp),
                &mut out.served,
            )?;
            rates.push(plan.slice, secs);
            done += plan.slice;
            if done == plan.window {
                let after = ssd.report();
                let win = WindowStats::between(&before, &after, &resp);
                // The engine's running response sum over the window must
                // match the per-request responses recorded here.
                let engine_sum = after.sim.resp_avg_us * after.ftl_stats.requests as f64
                    - before.sim.resp_avg_us * before.ftl_stats.requests as f64;
                let engine_mean = engine_sum / plan.window as f64;
                out.check(
                    "engine_response_match",
                    (engine_mean / resp.mean() - 1.0).abs() < 1e-6,
                    format!(
                        "rep {rep}: window mean {:.3} µs vs engine {engine_mean:.3} µs",
                        resp.mean()
                    ),
                );
                out.check(
                    "window_accounting",
                    counts.matches(&win),
                    format!(
                        "rep {rep}: trace {counts:?} vs served requests={} reads={} writes={}",
                        win.ftl.requests, win.ftl.user_page_reads, win.ftl.user_page_writes
                    ),
                );
                println!(
                    "  rep {rep} seed {} window fingerprint 0x{:016x}",
                    rep_seed(seed, rep),
                    win.fingerprint()
                );
                wins.push(win);
            }
        }
        resps.push(resp);
    }
    let mut all = Responses::new(plan.window, 0.0);
    for r in &resps {
        all.merge_from(r);
    }
    check_levelled(out, &reps_wa);
    check_backlog(out, &resps.iter().collect::<Vec<_>>());
    print_fingerprint(&wins);
    let writes: u64 = wins.iter().map(|w| w.flash.total_writes()).sum();
    let host_writes: u64 = wins.iter().map(|w| w.ftl.user_page_writes).sum();
    let (p99, p999) = (all.fine.quantile(0.99), all.fine.quantile(0.999));
    e2e_metrics(
        out,
        &mut rates,
        &mut setups,
        ratio(writes, host_writes),
        all.mean(),
        p99,
        p999,
    );
    Ok(())
}

/// Splits a window across shards; each sub-request keeps its host
/// request's index.
fn split_window<T: Tracer>(reqs: &[IoRequest], t: &mut T) -> Vec<Vec<(u32, IoRequest)>> {
    let splitter = ShardSplitter::new(SHARDS, PAGE_BYTES);
    // Sized up front (a request yields at most one sub-request per shard)
    // so the vectors never reallocate: peak RSS must not depend on where
    // a seed's sub-request count falls between powers of two.
    let mut subs: Vec<Vec<(u32, IoRequest)>> = (0..SHARDS)
        .map(|_| Vec::with_capacity(reqs.len()))
        .collect();
    for (i, r) in reqs.iter().enumerate() {
        t.begin(i as u32);
        let s = t.now();
        splitter.split(r, |shard, sub| subs[shard as usize].push((i as u32, sub)));
        t.record(Kind::Split, s);
    }
    subs
}

fn untraced_sharded(w: Workload, plan: &Plan, seed: u64, out: &mut Outcome) -> Result<()> {
    let config = w.config();
    let spec = w.spec(&config, plan.per_rep);
    out.attempted = (plan.reps * plan.per_rep) as u64;
    let (mut rates, mut setups) = (Rates::new(plan), Vec::with_capacity(plan.reps));
    let mut first: Option<(WindowStats, RunReport, Vec<IoRequest>, Vec<RunReport>)> = None;
    let mut identical = true;
    let mut erases = 0;
    for _ in 0..plan.reps {
        let mut feed = Feed::new(&spec, seed);
        rates.probe.scale();
        let t = Timer::start();
        let mut ssd = ShardedSsd::new(&config, SHARDS, |_, c| tpftl(c))?;
        setups.push(ref_secs(&t, &mut rates.probe));
        let mut done = 0;
        let mut window = Vec::with_capacity(if first.is_none() { plan.window } else { 0 });
        rates.probe.scale();
        while done < plan.per_rep {
            let reqs = feed.next(plan.slice);
            if first.is_none() && done < plan.window {
                window.extend_from_slice(reqs);
            }
            let t = Timer::start();
            let report = ssd.run(reqs.iter().copied())?;
            rates.push(plan.slice, t.stop());
            out.served += plan.slice as u64;
            done += plan.slice;
            if done == plan.window {
                // A fresh device: the cumulative report is the window's.
                let win = WindowStats::whole(&report.merged);
                match &first {
                    None => {
                        first = Some((
                            win,
                            report.merged,
                            std::mem::take(&mut window),
                            report.per_shard,
                        ))
                    }
                    Some((w0, ..)) => identical &= *w0 == win,
                }
            }
        }
        erases += ssd.report().merged.flash.total_erases();
    }
    let (win, merged, window, per_shard) = first.expect("at least one rep");
    out.check(
        "reps_identical",
        identical,
        format!("{} reps, same window statistics", plan.reps),
    );
    out.check(
        "zero_erases",
        erases == 0,
        format!("{erases} erases over all reps: the GC path must stay bypassed"),
    );

    // Replay each shard's projection of the window on its own device:
    // it must reproduce the sharded engine's per-shard reports exactly,
    // and it yields the exact per-sub-request responses.
    let subs = split_window(&window, &mut NoTrace);
    let shard_config = config.shard_config(SHARDS);
    let mut fine = window::FineHist::new();
    let mut equal = true;
    let mut resps = Vec::new();
    let mut counts = TraceCounts::default();
    for (shard, sub) in subs.iter().enumerate() {
        let mut replica = Replica::new(tpftl(&shard_config)?, shard_config.clone())?;
        let mut resp = Responses::new(sub.len(), 0.0);
        for (_, r) in sub {
            replica.serve(r, &mut NoTrace)?;
            resp.record(r.arrival_us, replica.sim_done_us());
        }
        counts.add(sub.iter().map(|(_, r)| r));
        equal &= same_run(&per_shard[shard], &replica.report());
        fine.merge_from(&resp.fine);
        resps.push(resp);
    }
    out.check(
        "shard_replay_equal",
        equal,
        format!("{SHARDS} per-shard replays vs ShardedSsd::run per_shard"),
    );
    out.check(
        "window_accounting",
        counts.matches(&win),
        format!(
            "split trace {counts:?} vs served requests={} reads={} writes={}",
            win.ftl.requests, win.ftl.user_page_reads, win.ftl.user_page_writes
        ),
    );
    check_backlog(out, &resps.iter().collect::<Vec<_>>());
    print_fingerprint(std::slice::from_ref(&win));
    let (p99, p999) = (fine.quantile(0.99), fine.quantile(0.999));
    e2e_metrics(
        out,
        &mut rates,
        &mut setups,
        win.write_amp(),
        merged.sim.resp_avg_us,
        p99,
        p999,
    );
    Ok(())
}

// ---- Traced runs --------------------------------------------------------------

/// Inputs to the per-layer metrics, shared by both engines.
struct LayerRun {
    host_requests: u64,
    win: WindowStats,
    spans: replay::SpanSummary,
    cal: Calibration,
    /// Untraced serving time of the window (single queue: the engine;
    /// sharded: the per-shard `Ssd::run`s, summed).
    untraced_ns: f64,
    /// The same window through the traced replica.
    traced_ns: f64,
    /// Sharded wall time minus split and slowest-shard serve time.
    shard_overhead_ns: f64,
    imbalance: f64,
    parks: u64,
    wakeups: u64,
    bootstrap_s: f64,
    warmup_s: f64,
    synth_ns_per_req: f64,
}

fn layer_metrics(out: &mut Outcome, l: &LayerRun) {
    let n = l.host_requests as f64;
    let pages = (l.win.ftl.user_page_reads + l.win.ftl.user_page_writes) as f64;
    let s = &l.spans;
    let ns = |kinds: &[Kind]| s.ns(kinds, &l.cal);
    let f = &l.win.ftl;
    let gc = &l.win.gc;
    let flash = &l.win.flash;
    let per_req = |c: u64| c as f64 / n;
    out.check(
        "span_accounting",
        s.violations == 0,
        format!(
            "{} request spans = children + self ({} violations)",
            s.count[Kind::Request as usize],
            s.violations
        ),
    );
    println!(
        "  traced: {} spans, recorder bias {:.1} ns/span, cost {:.1} ns/span; request self {:.1} ns/req \
         (raw), children {:.1} ns/req (bias removed); untraced {:.1} ns/req, traced {:.1} ns/req",
        s.count.iter().sum::<u64>(),
        l.cal.bias_ns,
        l.cal.cost_ns,
        s.request_self_ns as f64 / n,
        s.child_ns(&l.cal) / n,
        l.untraced_ns / n,
        l.traced_ns / n
    );
    out.metric("trace.synth_ns_per_req", l.synth_ns_per_req, "ns/req");
    out.metric("shard.split_ns_per_req", ns(&[Kind::Split]) / n, "ns/req");
    out.metric("shard.fanout", per_req(f.requests), "count");
    out.metric("shard.load_imbalance", l.imbalance, "count");
    out.metric("shard.parks_per_kreq", per_req(l.parks) * 1000.0, "1/kreq");
    out.metric(
        "shard.wakeups_per_kreq",
        per_req(l.wakeups) * 1000.0,
        "1/kreq",
    );
    out.metric(
        "shard.overhead_ns_per_req",
        l.shard_overhead_ns / n,
        "ns/req",
    );
    out.metric(
        "ssd.self_ns_per_req",
        (l.untraced_ns - s.child_ns(&l.cal)) / n,
        "ns/req",
    );
    out.metric(
        "ftl.translate_ns_per_page",
        ns(&[Kind::Translate, Kind::UpdateMapping]) / pages,
        "ns/page",
    );
    out.metric("ftl.hit_ratio", f.hit_ratio(), "ratio");
    out.metric("ftl.dirty_repl_prob", f.dirty_replacement_prob(), "ratio");
    let trans = flash.of(OpPurpose::Translation);
    out.metric("ftl.trans_reads_per_req", per_req(trans.reads), "count");
    out.metric("ftl.trans_writes_per_req", per_req(trans.writes), "count");
    out.metric("ftl.predict_hit_ratio", f.predict_hit_ratio(), "ratio");
    out.metric("ftl.mispredict_ratio", f.mispredict_ratio(), "ratio");
    out.metric("gc.ns_per_req", ns(&[Kind::GcCollect]) / n, "ns/req");
    out.metric("gc.check_ns_per_req", ns(&[Kind::GcCheck]) / n, "ns/req");
    out.metric(
        "gc.victims_per_kreq",
        per_req(gc.data_victims + gc.trans_victims) * 1000.0,
        "1/kreq",
    );
    out.metric("gc.valid_per_victim", gc.vd_mean(), "count");
    out.metric(
        "gc.copy_amp",
        ratio(
            gc.data_pages_migrated + gc.trans_pages_migrated,
            f.user_page_writes,
        ),
        "ratio",
    );
    let gct = flash.of(OpPurpose::GcTranslation);
    out.metric(
        "gc.trans_ops_per_req",
        per_req(gct.reads + gct.writes),
        "count",
    );
    out.metric("gc.hit_ratio", f.gc_hit_ratio(), "ratio");
    out.metric("gc.erase_cv", f.erase_cv(), "ratio");
    out.metric(
        "flash.data_ns_per_page",
        ns(&[Kind::ProgramData, Kind::Invalidate, Kind::ReadData]) / pages,
        "ns/page",
    );
    out.metric(
        "flash.service_us_per_req",
        l.win.sim.device_us / n,
        "sim_us",
    );
    out.metric("setup.bootstrap_s", l.bootstrap_s, "s");
    out.metric("setup.warmup_s", l.warmup_s, "s");
    out.metric(
        "bench.trace_overhead_frac",
        (l.traced_ns - l.untraced_ns) / l.untraced_ns,
        "ratio",
    );
    println!("  erases in window: {}", flash.total_erases());
}

fn traced_single<F: Ftl>(
    w: Workload,
    plan: &Plan,
    seed: u64,
    build: fn(&SsdConfig) -> Result<F>,
    out: &mut Outcome,
) -> Result<()> {
    let config = w.config();
    let spec = w.spec(&config, plan.aging + plan.window);
    out.attempted = 2 * plan.window as u64;

    // The engine (untraced) and the replica (traced) are aged on the same
    // stream, then serve the window slice by slice in turn, so both
    // timings see the same machine conditions.
    let mut feed = Feed::new(&spec, seed);
    let mut probe = Probe::new(2 * aging_slices(plan) + 1);
    let t = Timer::start();
    let mut ssd = Ssd::new(build(&config)?, config.clone())?;
    let bootstrap_s = ref_secs(&t, &mut probe);
    let (warmup_s, wa) = age(&mut ssd, &mut feed, plan, &mut probe)?;
    let mut replica = Replica::new(build(&config)?, config.clone())?;
    age(&mut replica, &mut Feed::new(&spec, seed), plan, &mut probe)?;

    let (before, before_replica) = (ssd.report(), replica.report());
    let mut resp = Responses::new(plan.window, ssd.done_us());
    let mut replica_resp = Responses::new(plan.window, replica.sim_done_us());
    let cal = Spans::calibrate();
    let mut spans = Spans::new(plan.window * 8);
    let (mut untraced, mut traced) = (0.0, 0.0);
    let mut id = 0u32;
    for _ in 0..plan.window / plan.slice {
        let reqs = feed.next(plan.slice);
        untraced += serve_timed(&mut ssd, reqs, Some(&mut resp), &mut out.served)?.0;
        let t = Instant::now();
        for r in reqs {
            spans.begin(id);
            replica.serve(r, &mut spans)?;
            replica_resp.record(r.arrival_us, replica.sim_done_us());
            id += 1;
            out.served += 1;
        }
        traced += t.elapsed().as_secs_f64();
    }
    let engine = WindowStats::between(&before, &ssd.report(), &resp);
    let synth_ns_per_req = feed.synth_ns as f64 / feed.generated as f64;
    let replayed = WindowStats::between(&before_replica, &replica.report(), &replica_resp);
    out.check(
        "traced_equals_untraced",
        replayed == engine,
        format!(
            "fingerprints engine 0x{:016x} replica 0x{:016x}",
            engine.fingerprint(),
            replayed.fingerprint()
        ),
    );
    check_levelled(out, &[wa]);
    println!(
        "  rep 0 seed {seed} window fingerprint 0x{:016x}",
        engine.fingerprint()
    );
    layer_metrics(
        out,
        &LayerRun {
            host_requests: plan.window as u64,
            win: engine,
            spans: spans.summary(),
            cal,
            untraced_ns: untraced * 1e9,
            traced_ns: traced * 1e9,
            shard_overhead_ns: 0.0,
            imbalance: 1.0,
            parks: 0,
            wakeups: 0,
            bootstrap_s,
            warmup_s,
            synth_ns_per_req,
        },
    );
    Ok(())
}

fn traced_sharded(w: Workload, plan: &Plan, seed: u64, out: &mut Outcome) -> Result<()> {
    let config = w.config();
    let spec = w.spec(&config, plan.window);
    out.attempted = 2 * plan.window as u64;
    let mut feed = Feed::new(&spec, seed);
    let window = feed.next(plan.window).to_vec();
    let synth_ns_per_req = feed.synth_ns as f64 / feed.generated as f64;

    // Untraced: the sharded engine.
    let mut probe = Probe::new(2 * aging_slices(plan) + 1);
    let t = Timer::start();
    let mut ssd = ShardedSsd::new(&config, SHARDS, |_, c| tpftl(c))?;
    let bootstrap_s = ref_secs(&t, &mut probe);
    let t = Instant::now();
    let report = ssd.run(window.iter().copied())?;
    let sharded_ns = t.elapsed().as_secs_f64() * 1e9;
    out.served += plan.window as u64;
    let doorbells = ssd.doorbell_stats();
    drop(ssd);

    let cal = Spans::calibrate();
    let mut spans = Spans::new(plan.window * 16);
    let subs = split_window(&window, &mut spans);
    let split_ns = spans.summary().ns(&[Kind::Split], &cal);
    let shard_config = config.shard_config(SHARDS);

    // Per shard, in turn: its projection through the engine on one thread
    // (untraced serve time), then through the traced replica.
    let (mut shard_ns, mut traced_ns) = (Vec::new(), 0.0);
    let mut equal = true;
    for (shard, sub) in subs.iter().enumerate() {
        let mut ssd = Ssd::new(tpftl(&shard_config)?, shard_config.clone())?;
        let reqs: Vec<IoRequest> = sub.iter().map(|(_, r)| *r).collect();
        let t = Instant::now();
        ssd.run(reqs)?;
        shard_ns.push(t.elapsed().as_secs_f64() * 1e9);
        drop(ssd);

        let mut replica = Replica::new(tpftl(&shard_config)?, shard_config.clone())?;
        let t = Instant::now();
        for (id, r) in sub {
            spans.begin(*id);
            replica.serve(r, &mut spans)?;
        }
        traced_ns += t.elapsed().as_secs_f64() * 1e9;
        equal &= same_run(&report.per_shard[shard], &replica.report());
    }
    out.served += plan.window as u64;
    out.check(
        "shard_replay_equal",
        equal,
        format!("{SHARDS} traced per-shard replays vs ShardedSsd::run per_shard"),
    );
    let win = WindowStats::whole(&report.merged);
    out.check(
        "zero_erases",
        win.flash.total_erases() == 0,
        format!("{} erases", win.flash.total_erases()),
    );
    print_fingerprint(std::slice::from_ref(&win));
    let slowest = shard_ns.iter().copied().fold(0.0, f64::max);
    layer_metrics(
        out,
        &LayerRun {
            host_requests: plan.window as u64,
            win,
            spans: spans.summary(),
            cal,
            untraced_ns: shard_ns.iter().sum(),
            traced_ns,
            shard_overhead_ns: sharded_ns - split_ns - slowest,
            imbalance: report.load.imbalance,
            parks: doorbells.parks,
            wakeups: doorbells.wakeups,
            bootstrap_s,
            warmup_s: 0.0,
            synth_ns_per_req,
        },
    );
    Ok(())
}
