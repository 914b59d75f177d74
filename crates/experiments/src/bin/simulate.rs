//! `simulate` — run one ad-hoc SSD simulation and print its report.
//!
//! ```text
//! simulate [options]
//!   --ftl NAME          dftl | tpftl | tpftl:FLAGS | sftl | cdftl | zftl |
//!                       fast | blocklevel | optimal | learned (default tpftl)
//!   --workload NAME     financial1|financial2|msr-ts|msr-src (default financial1)
//!   --trace FILE        replay an SPC/MSR trace file instead of a preset
//!   --requests N        synthetic request count              (default 200000)
//!   --seed N            generator seed                       (default 2015)
//!   --cache-bytes N     total mapping-cache budget incl. GTD
//!   --cache-frac F      budget as a fraction of the full table
//!   --prefill F         pre-written fraction of the logical space
//!   --gc POLICY         greedy | cost-benefit | wear-aware:N | windowed:N
//!                       (default greedy)
//!   --streams N         hot/cold data streams for GC data separation
//!                       (default 1 = no separation)
//!   --buffer PAGES      host write buffer size, split evenly over the
//!                       shards (default none)
//!   --shards N          stripe the LPN space over N shards, each with its
//!                       own worker thread and device (power of two
//!                       dividing the translation-page count, default 1)
//!   --channels N        flash channels for the unit-clock timing model
//!                       (default 1; ops on distinct channels overlap)
//!   --ways N            ways (dies) per channel                (default 1)
//!   --bus-us F          channel bus transfer time per page in µs
//!                       (default 0 = bus not modeled)
//!   --backing PATH      mirror the flash array to a persistent device
//!                       file at PATH, or PATH.{i} per shard when N > 1
//!                       (created/truncated; fsynced after the run)
//!   --open-loop RATE    drive the trace open-loop at RATE requests per
//!                       second of wall-clock time through the shards'
//!                       NVMe-style queue pairs and report offered vs
//!                       achieved throughput with response percentiles
//!                       measured against the arrival schedule (no
//!                       coordinated omission)
//!   --qd N              per-shard submission-queue depth for --open-loop
//!                       (power of two, default 64)
//!   --json              emit the ShardedRunReport as JSON (under
//!                       --open-loop, wrapped with the wall-clock numbers)
//! ```
//!
//! Every flag composes with every other: each run builds N shards (each
//! with its share of the buffer and its own backing file), replays the
//! trace closed- or open-loop, then flushes every buffer and syncs every
//! backing file.

use std::process::ExitCode;
use std::time::Instant;

use tpftl_core::config::GcPolicy;
use tpftl_core::ftl::{FastFtl, Ftl, TpftlConfig, Zftl};
use tpftl_core::SsdConfig;
use tpftl_experiments::runner::FtlKind;
use tpftl_sim::{BufferStats, OpenLoopOpts, ShardedSsd, Ssd};
use tpftl_trace::presets::Workload;
use tpftl_trace::{parse, IoRequest};

const USAGE: &str = "usage: simulate [--ftl NAME] [--workload NAME | --trace FILE]
                [--requests N] [--seed N] [--cache-bytes N | --cache-frac F]
                [--prefill F] [--gc POLICY] [--streams N] [--buffer PAGES] [--shards N]
                [--channels N] [--ways N] [--bus-us F] [--backing PATH]
                [--open-loop RATE] [--qd N] [--json]
run `simulate --help` for details";

struct Options {
    ftl: String,
    workload: Workload,
    trace: Option<String>,
    requests: usize,
    seed: u64,
    cache_bytes: Option<usize>,
    cache_frac: Option<f64>,
    prefill: Option<f64>,
    gc: GcPolicy,
    streams: u32,
    buffer: usize,
    shards: u32,
    channels: u32,
    ways: u32,
    bus_us: f64,
    backing: Option<String>,
    open_loop: Option<f64>,
    qd: usize,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        ftl: "tpftl".into(),
        workload: Workload::Financial1,
        trace: None,
        requests: 200_000,
        seed: 2015,
        cache_bytes: None,
        cache_frac: None,
        prefill: None,
        gc: GcPolicy::Greedy,
        streams: 1,
        buffer: 0,
        shards: 1,
        channels: 1,
        ways: 1,
        bus_us: 0.0,
        backing: None,
        open_loop: None,
        qd: 64,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--ftl" => o.ftl = value("--ftl")?,
            "--workload" => {
                o.workload = match value("--workload")?.as_str() {
                    "financial1" => Workload::Financial1,
                    "financial2" => Workload::Financial2,
                    "msr-ts" => Workload::MsrTs,
                    "msr-src" => Workload::MsrSrc,
                    other => return Err(format!("unknown workload {other}")),
                }
            }
            "--trace" => o.trace = Some(value("--trace")?),
            "--requests" => {
                o.requests = value("--requests")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--cache-bytes" => {
                o.cache_bytes = Some(
                    value("--cache-bytes")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--cache-frac" => {
                o.cache_frac = Some(value("--cache-frac")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--prefill" => {
                o.prefill = Some(value("--prefill")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--gc" => {
                let v = value("--gc")?;
                o.gc = match v.as_str() {
                    "greedy" => GcPolicy::Greedy,
                    "cost-benefit" => GcPolicy::CostBenefit,
                    s if s.starts_with("wear-aware:") => GcPolicy::WearAware {
                        max_wear_delta: s["wear-aware:".len()..]
                            .parse()
                            .map_err(|e| format!("{e}"))?,
                    },
                    s if s.starts_with("windowed:") => GcPolicy::Windowed {
                        window: s["windowed:".len()..].parse().map_err(|e| format!("{e}"))?,
                    },
                    other => return Err(format!("unknown GC policy {other}")),
                }
            }
            "--streams" => {
                o.streams = value("--streams")?.parse().map_err(|e| format!("{e}"))?;
                if o.streams == 0 {
                    return Err("--streams must be at least 1".to_string());
                }
            }
            "--buffer" => o.buffer = value("--buffer")?.parse().map_err(|e| format!("{e}"))?,
            "--shards" => o.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--channels" => {
                o.channels = value("--channels")?.parse().map_err(|e| format!("{e}"))?
            }
            "--ways" => o.ways = value("--ways")?.parse().map_err(|e| format!("{e}"))?,
            "--bus-us" => o.bus_us = value("--bus-us")?.parse().map_err(|e| format!("{e}"))?,
            "--backing" => o.backing = Some(value("--backing")?),
            "--open-loop" => {
                let rate: f64 = value("--open-loop")?.parse().map_err(|e| format!("{e}"))?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("--open-loop rate must be positive, got {rate}"));
                }
                o.open_loop = Some(rate);
            }
            "--qd" => {
                o.qd = value("--qd")?.parse().map_err(|e| format!("{e}"))?;
                if !o.qd.is_power_of_two() {
                    return Err(format!("--qd must be a power of two, got {}", o.qd));
                }
            }
            "--json" => o.json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

/// A validated `--ftl` name, buildable any number of times (once per shard).
enum FtlSpec {
    Kind(FtlKind),
    Fast,
    Zftl,
    TpftlCfg(TpftlConfig),
}

fn parse_ftl(name: &str) -> Result<FtlSpec, String> {
    Ok(match name {
        "dftl" => FtlSpec::Kind(FtlKind::Dftl),
        "tpftl" => FtlSpec::Kind(FtlKind::Tpftl),
        "sftl" => FtlSpec::Kind(FtlKind::Sftl),
        "cdftl" => FtlSpec::Kind(FtlKind::Cdftl),
        "optimal" => FtlSpec::Kind(FtlKind::Optimal),
        "blocklevel" => FtlSpec::Kind(FtlKind::BlockLevel),
        "learned" => FtlSpec::Kind(FtlKind::Learned),
        "fast" => FtlSpec::Fast,
        "zftl" => FtlSpec::Zftl,
        s if s.starts_with("tpftl:") => {
            let flags = &s["tpftl:".len()..];
            FtlSpec::TpftlCfg(TpftlConfig::from_flags(if flags == "-" {
                ""
            } else {
                flags
            }))
        }
        other => return Err(format!("unknown FTL {other}")),
    })
}

impl FtlSpec {
    fn build(&self, config: &SsdConfig) -> tpftl_core::Result<Box<dyn Ftl + Send>> {
        Ok(match self {
            FtlSpec::Kind(kind) => kind.build(config)?,
            FtlSpec::Fast => Box::new(FastFtl::with_defaults(config)),
            FtlSpec::Zftl => Box::new(Zftl::with_defaults(config)?),
            FtlSpec::TpftlCfg(cfg) => Box::new(tpftl_core::ftl::TpFtl::new(config, *cfg)?),
        })
    }
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match simulate(&o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn simulate(o: &Options) -> Result<(), String> {
    // Trace first (it determines the address space when present).
    let trace: Vec<IoRequest> = match &o.trace {
        Some(path) => {
            let content =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse::parse_auto(&content).map_err(|e| format!("cannot parse {path}: {e}"))?
        }
        None => o.workload.spec(o.requests).generate(o.seed),
    };

    let logical = match &o.trace {
        Some(_) => {
            let max_end = trace.iter().map(IoRequest::end).max().unwrap_or(1);
            max_end.div_ceil(256 * 1024).max(16) * 256 * 1024
        }
        None => o.workload.address_bytes(),
    };
    let mut config = SsdConfig::paper_default(logical);
    if let Some(f) = o.cache_frac {
        config = config.with_cache_fraction(f);
    }
    if let Some(b) = o.cache_bytes {
        config.cache_bytes = b;
    }
    config.prefill_frac = o.prefill.unwrap_or(match (o.ftl.as_str(), o.workload) {
        ("blocklevel" | "fast", _) => 0.0,
        (_, Workload::Financial1 | Workload::Financial2) if o.trace.is_none() => 1.0,
        _ => 0.0,
    });
    config.gc_policy = o.gc;
    config.streams = tpftl_core::config::StreamCount(o.streams);
    config.topology.channels = o.channels;
    config.topology.ways = o.ways;
    config.topology.bus_us = o.bus_us;
    config
        .topology
        .validate()
        .map_err(|e| format!("invalid topology: {e}"))?;

    let spec = parse_ftl(&o.ftl)?;
    let shard_config = config.try_shard_config(o.shards).map_err(|e| {
        format!(
            "cannot split {} logical pages into {} shards: {e}",
            config.logical_pages(),
            o.shards
        )
    })?;
    let shards = (0..o.shards)
        .map(|i| build_shard(o, &spec, &shard_config, i))
        .collect::<Result<Vec<_>, _>>()?;
    let mut ssd = ShardedSsd::from_shards(shards).map_err(|e| format!("cannot build SSD: {e}"))?;

    let started = Instant::now();
    let failed = |e| format!("simulation failed: {e}");
    let (report, open) = match o.open_loop {
        None => (ssd.run(trace).map_err(failed)?, None),
        Some(rate) => {
            let opts = OpenLoopOpts {
                offered_rps: rate,
                queue_depth: o.qd,
            };
            let out = ssd.run_open_loop(trace, opts).map_err(failed)?;
            (out.report.clone(), Some(out))
        }
    };

    // Unmount: flush every write buffer, then make each backing image
    // durable on real media before reporting.
    let mut buffered: Option<BufferStats> = None;
    for mut shard in ssd.into_shards() {
        if let Err(e) = shard.flush_buffer() {
            eprintln!("warning: buffer flush failed: {e}");
        }
        if let Some(b) = shard.buffer_stats() {
            let sum = buffered.get_or_insert_with(BufferStats::default);
            sum.write_absorbed += b.write_absorbed;
            sum.write_inserted += b.write_inserted;
            sum.read_hits += b.read_hits;
        }
        if o.backing.is_some() {
            if let Err(e) = shard.into_env().into_flash().sync_backing() {
                eprintln!("warning: backing sync failed: {e}");
            }
        }
    }

    if o.json {
        let json = match &open {
            None => serde_json::to_string_pretty(&report),
            Some(out) => {
                use serde_json::Value;
                let doc = Value::Object(vec![
                    ("offered_rps".to_string(), Value::Float(out.offered_rps)),
                    ("achieved_rps".to_string(), Value::Float(out.achieved_rps)),
                    ("requests".to_string(), Value::UInt(out.requests)),
                    ("sub_requests".to_string(), Value::UInt(out.sub_requests)),
                    ("wall_us".to_string(), Value::Float(out.wall_us)),
                    ("resp_avg_us".to_string(), Value::Float(out.resp_avg_us)),
                    ("resp_p50_us".to_string(), Value::Float(out.resp_p50_us)),
                    ("resp_p99_us".to_string(), Value::Float(out.resp_p99_us)),
                    ("resp_p999_us".to_string(), Value::Float(out.resp_p999_us)),
                    ("backlog_peak".to_string(), Value::UInt(out.backlog_peak)),
                    ("parks".to_string(), Value::UInt(out.doorbells.parks)),
                    ("wakeups".to_string(), Value::UInt(out.doorbells.wakeups)),
                    (
                        "report".to_string(),
                        serde_json::to_value(&report).expect("serializable"),
                    ),
                ]);
                serde_json::to_string_pretty(&doc)
            }
        };
        println!("{}", json.expect("serializable"));
        return Ok(());
    }
    print_report(&report.merged, &config);
    println!(
        "shards:              {} (per-shard requests {:?}, imbalance {:.3})",
        o.shards, report.load.requests, report.load.imbalance
    );
    if let Some(out) = &open {
        println!(
            "open loop:           offered {:.0} req/s, achieved {:.0} req/s (qd {})",
            out.offered_rps, out.achieved_rps, o.qd
        );
        println!(
            "wall response:       avg {:.1} / p50 {:.1} / p99 {:.1} / p999 {:.1} us",
            out.resp_avg_us, out.resp_p50_us, out.resp_p99_us, out.resp_p999_us
        );
        println!(
            "queueing:            backlog peak {}, {} parks / {} wakeups",
            out.backlog_peak, out.doorbells.parks, out.doorbells.wakeups
        );
    }
    if let Some(b) = buffered {
        println!(
            "write buffer:        {} absorbed, {} inserted, {} read hits",
            b.write_absorbed, b.write_inserted, b.read_hits
        );
    }
    if o.backing.is_some() {
        let files: Vec<String> = (0..o.shards).filter_map(|i| backing_path(o, i)).collect();
        println!("backing file:        {} (synced)", files.join(", "));
    }
    println!("wall clock:          {:.2?}", started.elapsed());
    Ok(())
}

/// Builds shard `index` of `o.shards` on its `1/N` configuration, exactly
/// as a single-queue device: its own backing file and its share of the
/// write buffer (integer division, like the cache budget; a share of
/// zero pages means no buffer).
fn build_shard(
    o: &Options,
    spec: &FtlSpec,
    config: &SsdConfig,
    index: u32,
) -> Result<Ssd<Box<dyn Ftl + Send>>, String> {
    let ftl = spec
        .build(config)
        .map_err(|e| format!("cannot build FTL: {e}"))?;
    let built = match backing_path(o, index) {
        None => Ssd::new(ftl, config.clone()),
        Some(path) => {
            let flash = tpftl_flash::Flash::create_file(config.geometry(), &path)
                .map_err(|e| format!("cannot create backing file {path}: {e}"))?;
            Ssd::with_flash(ftl, config.clone(), flash)
        }
    };
    let ssd = built.map_err(|e| format!("cannot build SSD: {e}"))?;
    let pages = o.buffer / o.shards as usize;
    Ok(if pages > 0 {
        ssd.with_write_buffer(pages)
    } else {
        ssd
    })
}

/// Shard `index`'s backing file: `--backing PATH` itself for one shard,
/// `PATH.{index}` otherwise.
fn backing_path(o: &Options, index: u32) -> Option<String> {
    let path = o.backing.as_ref()?;
    Some(if o.shards == 1 {
        path.clone()
    } else {
        format!("{path}.{index}")
    })
}

fn print_report(report: &tpftl_sim::RunReport, config: &SsdConfig) {
    println!("ftl:                 {}", report.ftl);
    println!(
        "device:              {} MB, cache {} B",
        config.logical_bytes >> 20,
        config.cache_bytes
    );
    println!("requests:            {}", report.ftl_stats.requests);
    println!(
        "page accesses:       {}",
        report.ftl_stats.user_page_accesses()
    );
    println!("hit ratio:           {:.2}%", report.hit_ratio() * 100.0);
    println!(
        "P(replace dirty):    {:.2}%",
        report.dirty_replacement_prob() * 100.0
    );
    println!(
        "translation R/W:     {} / {}",
        report.translation_reads(),
        report.translation_writes()
    );
    println!("write amplification: {:.3}", report.write_amplification());
    println!(
        "gc copy amp:         {:.3} (erase-count CV {:.3})",
        report.write_amp(),
        report.erase_cv()
    );
    println!("block erases:        {}", report.erase_count());
    println!("avg response:        {:.1} us", report.avg_response_us);
    let sim = &report.sim;
    println!(
        "topology:            {} channel(s) x {} way(s)",
        sim.channels, sim.ways
    );
    println!(
        "sim device time:     {:.1} us busy, makespan {:.1} us",
        sim.device_us, sim.makespan_us
    );
    println!(
        "sim response:        avg {:.1} / p50 {:.1} / p99 {:.1} / p999 {:.1} us",
        sim.resp_avg_us, sim.resp_p50_us, sim.resp_p99_us, sim.resp_p999_us
    );
}
