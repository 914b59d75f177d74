//! The `simulate` flag matrix: shards × write buffer × backing file ×
//! closed/open loop all compose. Each combination replays a tiny trace
//! file, must exit 0, print a parseable `--json` report, and serve every
//! request and page access of the trace.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;
use tpftl_experiments::runner::{device_config, run_one, FtlKind, Scale};
use tpftl_sim::{ShardedRunReport, WriteBuffer};
use tpftl_trace::presets::Workload;
use tpftl_trace::{parse, Dir, IoRequest, ShardSplitter};

const PAGE_BYTES: u64 = 4096;

/// Runs the `simulate` binary and parses its `--json` output.
fn simulate(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .arg("--json")
        .output()
        .expect("simulate starts");
    assert!(
        out.status.success(),
        "simulate {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(&String::from_utf8(out.stdout).expect("utf-8 output"))
        .unwrap_or_else(|e| panic!("simulate {args:?} printed unparseable JSON: {e}"))
}

/// 400 requests of 1–4 pages over an 8 MB volume (two whole translation
/// pages' worth of entries per shard at two shards), with rewrites and
/// reads of written pages so a write buffer both absorbs and hits.
fn write_tiny_trace(path: &Path) -> Vec<IoRequest> {
    let volume_pages = (8 << 20) / PAGE_BYTES;
    let mut trace: Vec<IoRequest> = (0..400u64)
        .map(|k| {
            let pages = 1 + k % 4;
            let page = (k * 7919) % (volume_pages - pages) % 600;
            let dir = if k % 3 == 0 { Dir::Read } else { Dir::Write };
            IoRequest::new(
                k as f64 * 100.0,
                page * PAGE_BYTES,
                (pages * PAGE_BYTES) as u32,
                dir,
            )
        })
        .collect();
    // The last page sizes the device at exactly 8 MB.
    trace.push(IoRequest::new(
        40_000.0,
        (volume_pages - 1) * PAGE_BYTES,
        PAGE_BYTES as u32,
        Dir::Write,
    ));
    let file = std::fs::File::create(path).expect("trace file");
    parse::write_spc(std::io::BufWriter::new(file), &trace).expect("trace written");
    // What `simulate` reads back (timestamps are normalized on parse).
    parse::parse_auto(&std::fs::read_to_string(path).expect("trace read")).expect("trace parses")
}

/// (sub-requests, page accesses that reach the FTL) when `trace` is split
/// over `shards` shards, each behind a `buffer / shards`-page write buffer
/// (none when that share is zero).
fn expected_service(trace: &[IoRequest], shards: u32, buffer: usize) -> (u64, u64) {
    let splitter = ShardSplitter::new(shards, PAGE_BYTES);
    let share = buffer / shards as usize;
    let mut buffers: Vec<Option<WriteBuffer>> = (0..shards)
        .map(|_| (share > 0).then(|| WriteBuffer::new(share)))
        .collect();
    let (mut requests, mut pages) = (0, 0);
    for req in trace {
        splitter.split(req, |shard, sub| {
            requests += 1;
            for lpn in sub.pages(PAGE_BYTES) {
                pages += match &mut buffers[shard as usize] {
                    None => 1,
                    Some(b) if sub.is_write() => u64::from(b.write(lpn as u32).is_some()),
                    Some(b) => u64::from(!b.read_hit(lpn as u32)),
                };
            }
        });
    }
    (requests, pages)
}

#[test]
fn every_flag_combination_runs_and_serves_the_whole_trace() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("simulate_cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace_path = dir.join("tiny.spc");
    let trace = write_tiny_trace(&trace_path);
    let trace_arg = trace_path.to_str().expect("utf-8 path");

    for shards in [1u32, 2] {
        for buffer in [0usize, 64] {
            for backing in [false, true] {
                for open_loop in [false, true] {
                    let image = dir.join(format!("img-s{shards}-b{buffer}-o{open_loop}"));
                    let (shards_arg, buffer_arg) = (shards.to_string(), buffer.to_string());
                    let mut args = vec![
                        "--trace",
                        trace_arg,
                        "--shards",
                        &shards_arg,
                        "--buffer",
                        &buffer_arg,
                    ];
                    if backing {
                        args.extend(["--backing", image.to_str().expect("utf-8 path")]);
                    }
                    if open_loop {
                        args.extend(["--open-loop", "200000"]);
                    }
                    let doc = simulate(&args);

                    let report = if open_loop {
                        assert_eq!(
                            doc.get("requests").and_then(Value::as_u64),
                            Some(trace.len() as u64)
                        );
                        doc.get("report").expect("open-loop report").clone()
                    } else {
                        doc
                    };
                    let report: ShardedRunReport =
                        serde_json::from_value(report).expect("a ShardedRunReport");
                    assert_eq!(report.per_shard.len(), shards as usize, "{args:?}");
                    let (requests, pages) = expected_service(&trace, shards, buffer);
                    let stats = &report.merged.ftl_stats;
                    assert_eq!(stats.requests, requests, "{args:?}");
                    assert_eq!(stats.user_page_accesses(), pages, "{args:?}");

                    if backing {
                        for i in 0..shards {
                            let file = if shards == 1 {
                                image.clone()
                            } else {
                                image.with_extension(i.to_string())
                            };
                            assert!(file.is_file(), "{args:?}: no backing file {file:?}");
                            std::fs::remove_file(file).expect("backing file removed");
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

#[test]
fn one_shard_closed_loop_report_equals_run_one() {
    let workload = Workload::Financial1;
    let doc = simulate(&["--workload", "financial1", "--requests", "1000"]);
    let report: ShardedRunReport = serde_json::from_value(doc).expect("a ShardedRunReport");
    let single = run_one(
        FtlKind::Tpftl,
        workload,
        Scale(0.0005),
        &device_config(workload),
    )
    .expect("run");
    assert_eq!(single.ftl_stats.requests, 1000);
    assert_eq!(report.merged, single);
    assert_eq!(report.per_shard, vec![single]);
}
