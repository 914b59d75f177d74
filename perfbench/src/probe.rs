//! Calibration probe: a fixed sort timed between measured slices.
//!
//! The benchmark's machine shares its cores with other tenants, and their
//! load slows the simulator by up to ~40 % for seconds at a time; the
//! process CPU clock keeps running through it, so CPU time alone does not
//! remove it. A short, branchy, L1-resident sort slows by about the same
//! factor under that load (measured on `fin1_aged`: the log-log slope of
//! simulator rate against probe rate is 1.1–1.3 over 0.7 s windows, where
//! a dependent ALU chain or a DRAM pointer chase barely move). Scaling
//! each slice's rate by `REF_RATE` over the probe rate measured around it
//! therefore cancels most of the neighbours' load while leaving every
//! change to the simulator's own code in the figure.

use crate::process_cpu_s;

/// Elements per sort: 32 KiB of `u32`, inside L1D, so the probe evicts
/// little of the simulator's state.
const LEN: usize = 8192;

/// Probe rate (elements sorted per CPU-second) taken as the reference:
/// about the rate on the quiet 2-vCPU Xeon the benchmark was sized on.
/// A fixed constant, so normalised rates compare across runs and commits.
pub const REF_RATE: f64 = 75e6;

pub struct Probe {
    buf: Vec<u32>,
    round: u32,
    /// Rate of the most recent sample.
    last: f64,
    /// Every sample taken, for the printed spread.
    pub samples: Vec<f64>,
}

impl Probe {
    /// A probe with room for `samples` samples (see `Rates::new`).
    pub fn new(samples: usize) -> Self {
        let mut p = Self {
            buf: vec![0; LEN],
            round: 0,
            last: 0.0,
            samples: Vec::with_capacity(samples + 2),
        };
        // Fault the buffer in and warm the code before the first sample.
        p.sample();
        p.last = p.sample();
        p
    }

    /// Sorts a fresh pseudo-random array; returns elements per CPU-second.
    fn sample(&mut self) -> f64 {
        self.round = self.round.wrapping_add(1);
        let mut x = self.round.wrapping_mul(0x9E37_79B9) | 1;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *v = x;
        }
        let t = process_cpu_s();
        self.buf.sort_unstable();
        let secs = process_cpu_s() - t;
        std::hint::black_box(&self.buf);
        let rate = LEN as f64 / secs;
        self.samples.push(rate);
        rate
    }

    /// Samples the probe and returns the factor that scales a rate
    /// measured since the previous call to the reference machine:
    /// `REF_RATE` over the geometric mean of the samples before and after.
    pub fn scale(&mut self) -> f64 {
        let now = self.sample();
        let scale = REF_RATE / (self.last * now).sqrt();
        self.last = now;
        scale
    }
}
