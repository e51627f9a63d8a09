//! Simulated multicore testbed for the memsense reproduction.
//!
//! The paper measures real Xeon E5-2600 servers with hardware performance
//! counters; this crate is the substitute substrate: a deterministic
//! discrete-event multicore simulator whose observable surface is exactly
//! the counter set the paper's methodology needs (`CPI_eff`, `MPI`, `MP`,
//! writebacks, bandwidth, utilization) and whose knobs are the ones the
//! paper turns (core clock, memory speed, core count, prefetcher).
//!
//! * [`config`] — machine description ([`SimConfig`]) and knobs.
//! * [`trace`] — the [`trace::InstructionStream`] contract workloads
//!   implement, built from [`trace::Op`]s.
//! * [`cache`] — set-associative write-back caches, three-level hierarchy.
//! * [`prefetch`] — stream prefetcher.
//! * [`mem`] — channel/bank DDR-style memory controller; queueing delay
//!   emerges from contention here.
//! * [`counters`] — performance counters and derived [`counters::Measurement`]s.
//! * [`engine`] — the [`Machine`] that ties it all together.
//!
//! # Examples
//!
//! Measure the CPI of a tiny load/compute kernel:
//!
//! ```
//! use memsense_sim::config::SimConfig;
//! use memsense_sim::engine::Machine;
//! use memsense_sim::trace::{Op, PatternStream};
//!
//! let config = SimConfig::xeon_like(1);
//! let stream = PatternStream::new(vec![Op::compute(), Op::load(0)]);
//! let mut machine = Machine::new(config, vec![Box::new(stream)])?;
//! machine.run_ops(10_000);
//! let counters = machine.total_counters();
//! assert!(counters.instructions >= 10_000);
//! # Ok::<(), memsense_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod counters;
pub mod engine;
pub mod mem;
pub mod prefetch;
pub mod record;
pub mod telemetry;
pub mod tlb;
pub mod trace;

pub use config::SimConfig;
pub use counters::{Measurement, Sample};
pub use engine::Machine;
pub use trace::{AccessKind, InstructionStream, Op};

/// Error type for the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration constraint was violated.
    InvalidConfig(&'static str),
    /// The number of instruction streams did not match the core count.
    StreamCountMismatch {
        /// Configured hardware threads.
        cores: u32,
        /// Streams supplied.
        streams: usize,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            SimError::StreamCountMismatch { cores, streams } => write!(
                f,
                "stream count mismatch: {cores} cores but {streams} streams"
            ),
        }
    }
}

impl std::error::Error for SimError {}
