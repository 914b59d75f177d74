//! The 1×1 bound of the one simulated clock, for every FTL.
//!
//! On a 1-channel/1-way device with no bus cost, a serial device would
//! finish request `k` at `F_k = max(arrival_k, F_{k-1}) + service_k`, where
//! `service_k` is the flash busy time the request induced. The unit clock
//! never exceeds that reference: it runs the same ops in the same order,
//! but a fire-and-forget translation writeback holds the unit without
//! holding the request that triggered it (DESIGN.md §11). On these
//! 20 000-request traces only S-FTL and LearnedFTL end a request with
//! such a writeback; every other FTL matches the reference bit for bit.

use tpftl_core::ftl::{FastFtl, Ftl, Zftl};
use tpftl_core::SsdConfig;
use tpftl_experiments::runner::{device_config, FtlKind};
use tpftl_sim::Ssd;
use tpftl_trace::presets::Workload;
use tpftl_trace::IoRequest;

type Build = Box<dyn Fn(&SsdConfig) -> Box<dyn Ftl + Send>>;

/// Every FTL in the tree, with whether its responses must equal the
/// serial reference exactly and whether it supports a pre-filled device.
fn ftls() -> Vec<(Build, bool, bool)> {
    let kind = |k: FtlKind, exact, prefill| -> (Build, bool, bool) {
        (
            Box::new(move |c| k.build(c).expect("FTL builds")),
            exact,
            prefill,
        )
    };
    vec![
        kind(FtlKind::Tpftl, true, true),
        kind(FtlKind::Dftl, true, true),
        kind(FtlKind::Cdftl, true, true),
        kind(FtlKind::Optimal, true, true),
        kind(FtlKind::variant(""), true, true),
        kind(FtlKind::Sftl, false, true),
        kind(FtlKind::Learned, false, true),
        kind(FtlKind::BlockLevel, true, false),
        (
            Box::new(|c| Box::new(FastFtl::with_defaults(c))),
            true,
            false,
        ),
        (
            Box::new(|c| Box::new(Zftl::with_defaults(c).expect("ZFTL builds"))),
            true,
            true,
        ),
    ]
}

#[test]
fn unit_clock_never_exceeds_the_serial_reference_at_1x1() {
    for (workload, requests) in [(Workload::Financial1, 20_000), (Workload::MsrTs, 20_000)] {
        let trace: Vec<IoRequest> = workload.spec(requests).iter(1).collect();
        for (build, exact, prefill) in ftls() {
            let mut config = device_config(workload);
            assert_eq!(config.topology.units(), 1);
            assert_eq!(config.topology.bus_us, 0.0);
            if !prefill {
                config.prefill_frac = 0.0;
            }
            let mut ssd = Ssd::new(build(&config), config.clone()).expect("SSD builds");
            let name = ssd.ftl().name();
            let (mut reference_done, mut below) = (0.0f64, 0usize);
            for req in &trace {
                let busy_before = ssd.env().flash().stats().busy_us;
                let response = ssd.serve(req).expect("serve");
                let service = ssd.env().flash().stats().busy_us - busy_before;
                reference_done = req.arrival_us.max(reference_done) + service;
                let reference = reference_done - req.arrival_us;
                assert!(
                    response <= reference,
                    "{name}/{workload:?}: response {response} above serial {reference}"
                );
                below += usize::from(response < reference);
            }
            eprintln!("{name}/{workload:?}: {below} responses below the serial reference");
            assert!(
                !exact || below == 0,
                "{name}/{workload:?}: {below} responses differ from the serial reference"
            );
            let report = ssd.report();
            let busy = report.flash.busy_us;
            assert!(
                report.sim.device_us <= busy * (1.0 + 1e-9),
                "{name}/{workload:?}: device time {} above busy time {busy}",
                report.sim.device_us
            );
            assert_eq!(
                report.avg_response_us.to_bits(),
                report.sim.resp_avg_us.to_bits()
            );
        }
    }
}
