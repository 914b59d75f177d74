#![warn(missing_docs)]

//! Trace-driven SSD simulator for the TPFTL reproduction.
//!
//! Binds together the flash device model ([`tpftl_flash`]), the FTL
//! framework ([`tpftl_core`]) and the workloads ([`tpftl_trace`]) the way
//! FlashSim does in the paper: requests are split into 4 KB page accesses
//! and served in arrival order, each flash operation (address translation,
//! user data access, garbage collection) timed on the device's channel/way
//! unit clocks. The *system response time* therefore includes the queuing
//! delay, exactly the metric of Figure 6(e).

mod buffer;
mod crash;
mod hist;
pub mod queue;
mod report;
mod sampler;
mod shard;
mod ssd;

pub use buffer::{BufferStats, WriteBuffer};
pub use crash::{CrashHarness, CrashOutcome};
pub use hist::LatencyHistogram;
pub use queue::{DoorbellRing, DoorbellStats, QueuePair};
pub use report::{RunReport, SimTiming};
pub use sampler::{CacheSample, CacheSampler, MAX_DIRTY_BUCKET};
pub use shard::{OpenLoopOpts, OpenLoopReport, ShardLoadStats, ShardedRunReport, ShardedSsd};
pub use ssd::Ssd;

pub use tpftl_core::Result;
