//! Channel/way unit-clock timing model.
//!
//! [`UnitClocks`] replaces the implicit "one serial unit" timing of
//! `FlashStats::busy_us` with a per-unit next-free-time clock: every flash
//! op is dispatched to the unit owning its block, starts no earlier than
//! both (a) the dependency frontier of the command stream issuing it and
//! (b) the instant its unit is free, and completes after its cell latency
//! plus — for page transfers — a channel bus slot. The whole model is a
//! fixed pair of `f64` arrays and pure arithmetic per op: no heap traffic,
//! no event queue, nothing allocated on the hot path.
//!
//! Dependencies are expressed with a single *frontier* clock: ops issued
//! back to back chain (each op leaves the frontier at its completion
//! time), and callers that know two op chains are independent — pages of
//! one host request, GC migrations of distinct pages, a fire-and-forget
//! translation-page writeback — rewind the frontier with
//! [`UnitClocks::relax_to`] before issuing the second chain. Per-unit
//! serialization still applies after a relax, so independent chains only
//! overlap where the geometry really allows it.
//!
//! With 1 channel, 1 way, no bus cost and no relaxation, every op starts
//! exactly when the previous op finished, so the device clock accumulates
//! `t += l` in the same order `FlashStats::busy_us` does — bit-identical
//! to a serial device (a property test in `tests/timing_props.rs` pins
//! this). A relaxation can make even one unit finish a command stream
//! earlier than the serial sum: the stream stops waiting for an
//! independent chain it issued (a fire-and-forget writeback), though the
//! unit still serializes the chain's ops.
//!
//! These clocks are the simulator's only timing model: request response
//! times (`tpftl_sim::Ssd`) are read off them.

use crate::geometry::FlashTopology;

/// Per-unit next-free-time clocks for the channel/way timing model.
///
/// All times are simulated microseconds since the device clock's origin
/// (reset by [`UnitClocks::reset`], typically after bootstrap/prefill).
#[derive(Debug, Clone)]
pub struct UnitClocks {
    /// When each (channel, way) unit finishes its last accepted op.
    unit_free_us: Box<[f64]>,
    /// When each channel's bus finishes its last page transfer.
    chan_free_us: Box<[f64]>,
    /// Dependency frontier: earliest start time of the next issued op.
    frontier_us: f64,
    /// Device makespan: completion time of the latest op accepted so far.
    done_us: f64,
    /// Number of channels (for unit -> channel mapping).
    channels: usize,
    /// Bus transfer time of one page in microseconds.
    bus_us: f64,
}

impl UnitClocks {
    /// Builds clocks for `topology`, all starting at time zero.
    pub fn new(topology: &FlashTopology) -> Self {
        let units = topology.units().max(1);
        let channels = (topology.channels as usize).max(1);
        UnitClocks {
            unit_free_us: vec![0.0; units].into_boxed_slice(),
            chan_free_us: vec![0.0; channels].into_boxed_slice(),
            frontier_us: 0.0,
            done_us: 0.0,
            channels,
            bus_us: topology.bus_us,
        }
    }

    /// Rewinds every clock to time zero (measurement restart).
    pub fn reset(&mut self) {
        self.unit_free_us.fill(0.0);
        self.chan_free_us.fill(0.0);
        self.frontier_us = 0.0;
        self.done_us = 0.0;
    }

    /// Number of independent units being modeled.
    #[inline]
    pub fn units(&self) -> usize {
        self.unit_free_us.len()
    }

    /// Current dependency frontier (completion time of the last issued
    /// op chain).
    #[inline]
    pub fn frontier_us(&self) -> f64 {
        self.frontier_us
    }

    /// Sets the dependency frontier, letting the next op chain start at
    /// `t` (subject to unit availability). Callers use this to declare
    /// that upcoming ops do not depend on the ops issued since `t`.
    #[inline]
    pub fn relax_to(&mut self, t: f64) {
        self.frontier_us = t;
    }

    /// Completion time of the latest op accepted so far (device makespan).
    #[inline]
    pub fn done_us(&self) -> f64 {
        self.done_us
    }

    /// Accounts a page read on `unit`: cell sense, then a bus transfer on
    /// the unit's channel. Returns the completion time.
    #[inline]
    pub fn read(&mut self, unit: usize, cell_us: f64) -> f64 {
        let start = self.frontier_us.max(self.unit_free_us[unit]);
        let cell_done = start + cell_us;
        let done = if self.bus_us == 0.0 {
            cell_done
        } else {
            // Data leaves the cell register over the channel bus; the die
            // stays busy until its register drains.
            let ch = unit % self.channels;
            let bus_start = cell_done.max(self.chan_free_us[ch]);
            let bus_done = bus_start + self.bus_us;
            self.chan_free_us[ch] = bus_done;
            bus_done
        };
        self.finish(unit, done)
    }

    /// Accounts a page program on `unit`: a bus transfer on the unit's
    /// channel, then the cell program. Returns the completion time.
    #[inline]
    pub fn write(&mut self, unit: usize, cell_us: f64) -> f64 {
        let start = self.frontier_us.max(self.unit_free_us[unit]);
        let cell_start = if self.bus_us == 0.0 {
            start
        } else {
            // The page is shipped to the die's register before programming.
            let ch = unit % self.channels;
            let bus_start = start.max(self.chan_free_us[ch]);
            let bus_done = bus_start + self.bus_us;
            self.chan_free_us[ch] = bus_done;
            bus_done
        };
        let done = cell_start + cell_us;
        self.finish(unit, done)
    }

    /// Accounts a block erase on `unit` (no bus traffic). Returns the
    /// completion time.
    #[inline]
    pub fn erase(&mut self, unit: usize, cell_us: f64) -> f64 {
        let start = self.frontier_us.max(self.unit_free_us[unit]);
        self.finish(unit, start + cell_us)
    }

    #[inline]
    fn finish(&mut self, unit: usize, done: f64) -> f64 {
        self.unit_free_us[unit] = done;
        self.frontier_us = done;
        if done > self.done_us {
            self.done_us = done;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(channels: u32, ways: u32, bus_us: f64) -> FlashTopology {
        FlashTopology {
            channels,
            ways,
            bus_us,
        }
    }

    #[test]
    fn serial_unit_chains_ops() {
        let mut c = UnitClocks::new(&topo(1, 1, 0.0));
        assert_eq!(c.read(0, 25.0), 25.0);
        assert_eq!(c.write(0, 200.0), 225.0);
        assert_eq!(c.erase(0, 1500.0), 1725.0);
        assert_eq!(c.done_us(), 1725.0);
        assert_eq!(c.frontier_us(), 1725.0);
    }

    #[test]
    fn independent_units_overlap_after_relax() {
        let mut c = UnitClocks::new(&topo(2, 1, 0.0));
        let a = c.write(0, 200.0);
        c.relax_to(0.0); // The second write does not depend on the first.
        let b = c.write(1, 200.0);
        assert_eq!(a, 200.0);
        assert_eq!(b, 200.0); // Fully overlapped on the other unit.
        assert_eq!(c.done_us(), 200.0);
    }

    #[test]
    fn same_unit_serializes_even_after_relax() {
        let mut c = UnitClocks::new(&topo(2, 1, 0.0));
        let a = c.write(0, 200.0);
        c.relax_to(0.0);
        let b = c.write(0, 200.0); // Same unit: must wait for the die.
        assert_eq!(a, 200.0);
        assert_eq!(b, 400.0);
    }

    #[test]
    fn read_bus_follows_cell_and_contends_per_channel() {
        // Two ways on one channel: cells overlap, the shared bus serializes.
        let mut c = UnitClocks::new(&topo(1, 2, 10.0));
        let a = c.read(0, 25.0);
        c.relax_to(0.0);
        let b = c.read(1, 25.0);
        // Unit 0: cell 0..25, bus 25..35.
        assert_eq!(a, 35.0);
        // Unit 1: cell 0..25, bus waits for the channel until 35, done 45.
        assert_eq!(b, 45.0);
        assert_eq!(c.done_us(), 45.0);
    }

    #[test]
    fn write_bus_precedes_cell() {
        // One way: transfer 0..10, program 10..210.
        let mut c = UnitClocks::new(&topo(1, 1, 10.0));
        assert_eq!(c.write(0, 200.0), 210.0);
        // A second write to the same die cannot start its transfer until
        // the die is ready to accept it: transfer 210..220, cell 220..420.
        c.relax_to(0.0);
        assert_eq!(c.write(0, 200.0), 420.0);
    }

    #[test]
    fn translation_read_pipelines_behind_data_program() {
        // The FMMU-style win: while unit 0 programs a data page, unit 1
        // serves a translation-page read, overlapping all but bus time.
        let mut c = UnitClocks::new(&topo(2, 1, 10.0));
        let data = c.write(0, 200.0); // bus 0..10, cell 10..210
        c.relax_to(0.0);
        let map = c.read(1, 25.0); // cell 0..25, bus (ch 1) 25..35
        assert_eq!(data, 210.0);
        assert_eq!(map, 35.0);
        assert_eq!(c.done_us(), 210.0);
    }

    #[test]
    fn reset_restarts_the_clock() {
        let mut c = UnitClocks::new(&topo(4, 2, 5.0));
        c.write(3, 200.0);
        c.erase(5, 1500.0);
        c.reset();
        assert_eq!(c.frontier_us(), 0.0);
        assert_eq!(c.done_us(), 0.0);
        assert_eq!(c.read(3, 25.0), 30.0);
    }
}
