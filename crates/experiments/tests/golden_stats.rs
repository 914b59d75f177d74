//! Golden-statistics regression test: fixed-seed synthetic runs must keep
//! producing bit-identical simulation statistics across refactors of the
//! mapping-cache internals (slab layout, hashers, index structures). The
//! goldens were recorded from the implementation at the time this test was
//! introduced; a diff here means a change is NOT behavior-preserving.
//!
//! If an *intentional* simulation-behaviour change lands (new policy, trace
//! generator change), re-record by running with `UPDATE_GOLDENS=1` printed
//! output: `cargo test -p tpftl-experiments --test golden_stats -- --nocapture`.

use tpftl_experiments::runner::{device_config, run_one, run_one_sharded, FtlKind, Scale};
use tpftl_sim::RunReport;
use tpftl_trace::presets::Workload;

/// The TPFTL/Financial1 golden, shared with the sharded-engine test below.
const TPFTL_FIN1_GOLDEN: &str = "TPFTL(rsbc) req=10000 lk=14046 hit=11654 rep=2137 drep=259 gcu=0 gch=0 upr=3012 upw=11034 tr=2651 tw=259 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1212 cb=8192 resp=406f722c24b700d2";

/// The GC-heavy TPFTL/Financial1 golden (scale large enough that writes
/// exhaust the free pool), shared with the windowed-degeneracy pin below.
const TPFTL_FIN1_GC_GOLDEN: &str = "TPFTL(rsbc) req=40000 lk=56827 hit=48099 rep=11321 drep=762 gcu=3874 gch=424 upr=12056 upw=44771 tr=12534 tw=3806 er=522 gcd=465 gcm=3874 gct=57 gctm=422 ce=1213 cb=8190 resp=4078ec24c4dd0d60";

/// Unit-clock sim-timing goldens for the TPFTL/Financial1 case: the
/// 1-channel row pins the serial device bit for bit; the 4x2 row pins the
/// multi-unit overlap arithmetic.
const SERIAL_SIM_GOLDEN: &str =
    "ch=1 way=1 dev=41424fd780000000 mk=4181eeb3f03e2cd0 ravg=406f722c24b700d2 p50=192 p99=832";
const WIDE_SIM_GOLDEN: &str =
    "ch=4 way=2 dev=4141dc2b00000000 mk=4181eeb3f03e2cd0 ravg=406ea171c76b31ff p50=192 p99=768";

/// A compact, exact fingerprint of everything the paper's figures measure.
/// Response time is an f64 accumulation; its bits are captured exactly so
/// even a reordering of floating-point adds is caught.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "{} req={} lk={} hit={} rep={} drep={} gcu={} gch={} upr={} upw={} \
         tr={} tw={} er={} gcd={} gcm={} gct={} gctm={} ce={} cb={} resp={:016x}",
        r.ftl,
        r.ftl_stats.requests,
        r.ftl_stats.lookups,
        r.ftl_stats.hits,
        r.ftl_stats.replacements,
        r.ftl_stats.dirty_replacements,
        r.ftl_stats.gc_updates,
        r.ftl_stats.gc_hits,
        r.ftl_stats.user_page_reads,
        r.ftl_stats.user_page_writes,
        r.translation_reads(),
        r.translation_writes(),
        r.erase_count(),
        r.gc.data_victims,
        r.gc.data_pages_migrated,
        r.gc.trans_victims,
        r.gc.trans_pages_migrated,
        r.cached_entries,
        r.cache_bytes_used,
        r.avg_response_us.to_bits(),
    )
}

fn run(kind: FtlKind, workload: Workload, scale: f64) -> String {
    let config = device_config(workload);
    let report = run_one(kind, workload, Scale(scale), &config).expect("run");
    fingerprint(&report)
}

/// (kind, workload, scale, golden fingerprint), recorded pre-refactor.
fn cases() -> Vec<(FtlKind, Workload, f64, &'static str)> {
    vec![
        (
            FtlKind::Tpftl,
            Workload::Financial1,
            0.005,
            TPFTL_FIN1_GOLDEN,
        ),
        (
            FtlKind::variant(""),
            Workload::Financial1,
            0.005,
            "TPFTL(–) req=10000 lk=14046 hit=10887 rep=1947 drep=1556 gcu=0 gch=0 upr=3012 upw=11034 tr=4715 tw=1556 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1212 cb=8192 resp=4071f536e8f56c5e",
        ),
        (FtlKind::Tpftl, Workload::MsrTs, 0.004, "TPFTL(rsbc) req=10000 lk=27773 hit=23466 rep=0 drep=0 gcu=0 gch=0 upr=5008 upw=22765 tr=4307 tw=0 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=10539 cb=65858 resp=409b321d1ade8ee0"),
        // Large enough that writes exhaust the over-provisioned free pool
        // on the prefilled device, pinning the GC paths too.
        (
            FtlKind::Tpftl,
            Workload::Financial1,
            0.02,
            TPFTL_FIN1_GC_GOLDEN,
        ),
        // The same GC-heavy scale for the other demand-paging FTLs, so
        // cache-core refactors can't silently drift their GC behaviour.
        (
            FtlKind::Sftl,
            Workload::Financial1,
            0.02,
            "S-FTL req=40000 lk=56827 hit=45879 rep=14549 drep=4558 gcu=3951 gch=473 upr=12056 upw=44771 tr=18060 tw=8059 er=589 gcd=465 gcm=3951 gct=124 gctm=858 ce=10338 cb=8104 resp=407c03bdd8f53cd3",
        ),
        (
            FtlKind::Cdftl,
            Workload::Financial1,
            0.02,
            "CDFTL req=40000 lk=56827 hit=42516 rep=33733 drep=27750 gcu=3988 gch=121 upr=12056 upw=44771 tr=18755 tw=16571 er=722 gcd=467 gcm=3988 gct=255 gctm=1482 ce=1535 cb=8192 resp=40804d6ab4824f51",
        ),
        (FtlKind::Dftl, Workload::Financial1, 0.005, "DFTL req=10000 lk=14046 hit=10815 rep=2207 drep=1716 gcu=0 gch=0 upr=3012 upw=11034 tr=4947 tw=1716 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1024 cb=8192 resp=407230cbccc6fd99"),
        // LearnedFTL on the prefilled Financial1 volume: warm-up learns
        // the sequential prefill table, the trace's overwrites then split
        // segments, so the fingerprint pins fitter, validator, and
        // split-invalidation behaviour together.
        (FtlKind::Learned, Workload::Financial1, 0.005, "LearnedFTL(e4) req=10000 lk=14046 hit=11539 rep=3283 drep=2947 gcu=0 gch=0 upr=3012 upw=11034 tr=5454 tw=2947 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=512 cb=8192 resp=40734b4df8f9ffa3"),
        (FtlKind::Sftl, Workload::Financial1, 0.005, "S-FTL req=10000 lk=14046 hit=12567 rep=1983 drep=675 gcu=0 gch=0 upr=3012 upw=11034 tr=2013 tw=675 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=30816 cb=8040 resp=40701de0b42a7b8c"),
        (FtlKind::Cdftl, Workload::Financial1, 0.005, "CDFTL req=10000 lk=14046 hit=10556 rep=7677 drep=5892 gcu=0 gch=0 upr=3012 upw=11034 tr=3490 tw=2635 er=0 gcd=0 gcm=0 gct=0 gctm=0 ce=1535 cb=8192 resp=40731bbedb14f735"),
    ]
}

/// Exact fingerprint of the unit-clock simulated timing: device time,
/// makespan and mean response as f64 bits, percentiles as bucket edges.
fn sim_fingerprint(r: &RunReport) -> String {
    format!(
        "ch={} way={} dev={:016x} mk={:016x} ravg={:016x} p50={} p99={}",
        r.sim.channels,
        r.sim.ways,
        r.sim.device_us.to_bits(),
        r.sim.makespan_us.to_bits(),
        r.sim.resp_avg_us.to_bits(),
        r.sim.resp_p50_us,
        r.sim.resp_p99_us,
    )
}

/// The 1-channel unit-clock timing is pinned bit-exactly, and a
/// multi-unit topology must change *only* the simulated timing — never the
/// op counters — while improving device time. The response metric is the
/// unit clock's on both.
#[test]
fn unit_clock_sim_timing_is_pinned_and_topology_neutral() {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let serial = run_one(FtlKind::Tpftl, workload, Scale(0.005), &config).expect("run");
    assert_eq!(fingerprint(&serial), TPFTL_FIN1_GOLDEN);
    assert_eq!(
        sim_fingerprint(&serial),
        SERIAL_SIM_GOLDEN,
        "1-channel unit-clock timing drifted from the recorded golden"
    );

    let mut wide_config = config.clone();
    wide_config.topology.channels = 4;
    wide_config.topology.ways = 2;
    let wide = run_one(FtlKind::Tpftl, workload, Scale(0.005), &wide_config).expect("run");
    let wide_counters = RunReport {
        avg_response_us: serial.avg_response_us,
        ..wide.clone()
    };
    assert_eq!(
        fingerprint(&wide_counters),
        TPFTL_FIN1_GOLDEN,
        "topology must not change op counts"
    );
    for r in [&serial, &wide] {
        assert_eq!(r.avg_response_us.to_bits(), r.sim.resp_avg_us.to_bits());
    }
    assert_eq!(
        sim_fingerprint(&wide),
        WIDE_SIM_GOLDEN,
        "4x2 unit-clock timing drifted from the recorded golden"
    );
    assert!(wide.sim.device_us < serial.sim.device_us);
    assert!(wide.sim.makespan_us <= serial.sim.makespan_us);
}

/// The sharded engine with one shard must be indistinguishable from the
/// single-queue simulator: same counters, same float bits — so `--shards 1`
/// anywhere in the tree is pinned to the recorded golden above.
#[test]
fn one_shard_replay_reproduces_the_golden_bit_for_bit() {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let report =
        run_one_sharded(FtlKind::Tpftl, workload, Scale(0.005), &config, 1).expect("sharded run");
    assert_eq!(
        fingerprint(&report.merged),
        TPFTL_FIN1_GOLDEN,
        "sharded engine with --shards 1 drifted from the single-queue golden"
    );
    assert_eq!(report.per_shard.len(), 1);
    assert_eq!(fingerprint(&report.per_shard[0]), TPFTL_FIN1_GOLDEN);
}

/// Sharded replay is deterministic across runs: the merge folds per-shard
/// reports in shard order, so even the float accumulations are stable
/// regardless of worker interleaving.
#[test]
fn four_shard_replay_is_run_to_run_deterministic() {
    let workload = Workload::Financial1;
    let config = device_config(workload);
    let run = || {
        run_one_sharded(FtlKind::Tpftl, workload, Scale(0.005), &config, 4).expect("sharded run")
    };
    let (a, b) = (run(), run());
    assert_eq!(fingerprint(&a.merged), fingerprint(&b.merged));
    assert_eq!(a, b);
}

/// The multi-stream degeneracy pin: a window of one selects the head of
/// the min-valid candidate order — exactly greedy — and a single stream
/// routes every write through the same active block as before, so
/// `streams=1` + `windowed:1` on the GC-heavy case must reproduce the
/// greedy golden bit for bit (float accumulations included). This is the
/// contract that lets the multi-stream data plane ship without perturbing
/// any recorded baseline.
#[test]
fn one_stream_window_one_is_bit_identical_to_greedy() {
    use tpftl_core::config::{GcPolicy, StreamCount};
    let workload = Workload::Financial1;
    let mut config = device_config(workload);
    config.gc_policy = GcPolicy::Windowed { window: 1 };
    config.streams = StreamCount(1);
    let report = run_one(FtlKind::Tpftl, workload, Scale(0.02), &config).expect("run");
    assert_eq!(
        fingerprint(&report),
        TPFTL_FIN1_GC_GOLDEN,
        "windowed:1 with one stream must degenerate to greedy exactly"
    );
}

#[test]
fn fixed_seed_statistics_are_stable() {
    let mut failures = Vec::new();
    for (kind, workload, scale, golden) in cases() {
        let actual = run(kind, workload, scale);
        if actual != golden {
            failures.push(format!(
                "{kind:?}/{workload:?}:\n  golden: {golden}\n  actual: {actual}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "simulation statistics drifted from the recorded goldens \
         (the change is not behavior-preserving):\n{}",
        failures.join("\n")
    );
}
