//! Experiment harness: reproduces every table and figure of the paper.
//!
//! The pipeline mirrors the paper's methodology end to end:
//!
//! 1. [`timeseries`] — counter sampling of each workload
//!    (Figs. 2/4/5).
//! 2. [`calibrate`] — frequency × memory-speed sweeps and the
//!    `CPI_eff` vs `MPI × MP` line fits (Fig. 3, Tabs. 2/4/5).
//! 3. [`validate`] — computed-vs-measured CPI (Tab. 3).
//! 4. [`classify`] — the bandwidth-demand vs latency-sensitivity plane,
//!    class means, and the core-bound cluster (Fig. 6, Tab. 6).
//! 5. [`figures`] — queueing calibration with the simulated MLC (Fig. 7)
//!    and the bandwidth/latency sensitivity application (Figs. 8–11,
//!    Tab. 7), plus the Fig. 1 trend backdrop and the Sec. VII hierarchy
//!    demo.
//! 6. [`ablation`] — the design-choice ablations called out in DESIGN.md.
//!
//! Beyond the paper's own artifacts:
//!
//! * [`sweeps`] — the concrete channel/speed/frequency variations behind
//!   Fig. 8's x-axis.
//! * [`tornado`] — one-at-a-time input sensitivity of the model.
//! * [`io_pressure`] — workload CPI under background DMA traffic.
//! * [`scorecard`] — every paper claim verified programmatically.
//! * [`plot`] — terminal line charts of the figures.
//! * [`json`] — the shared escaping-correct JSON value/parser/serializer
//!   used by the `--report` writer and the `memsense-serve` daemon.
//! * [`executor`] — the parallel experiment executor: every independent
//!   cell/stage above runs on a work-stealing thread pool with
//!   deterministic (serial-equivalent) output ordering, feeding the
//!   `--report` run telemetry.
//! * [`simbench`] — the sim-heavy stage set whose walls
//!   `memsense-bench sim-baseline` records in `BENCH_sim.json`.
//!
//! Each experiment returns a [`render::Table`] (ASCII + CSV) so results are
//! regenerable; the `repro` binary drives them from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod calibrate;
pub mod classify;
pub mod executor;
pub mod figures;
pub mod io_pressure;
pub mod json;
pub mod plot;
pub mod render;
pub mod scorecard;
pub mod simbench;
pub mod sweeps;
pub mod tables;
pub mod timeseries;
pub mod tornado;
pub mod validate;

/// Error type for the experiment harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The simulator rejected a configuration.
    Sim(memsense_sim::SimError),
    /// The analytic model rejected a parameter or failed to converge.
    Model(memsense_model::ModelError),
    /// A measurement window produced no data.
    NoData,
    /// A regression could not be fit for the named workload.
    FitFailed(&'static str),
    /// Output files could not be written.
    Io(std::io::Error),
}

impl core::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExperimentError::Sim(e) => write!(f, "simulator error: {e}"),
            ExperimentError::Model(e) => write!(f, "model error: {e}"),
            ExperimentError::NoData => write!(f, "measurement window produced no data"),
            ExperimentError::FitFailed(w) => write!(f, "regression failed for {w}"),
            ExperimentError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Sim(e) => Some(e),
            ExperimentError::Model(e) => Some(e),
            ExperimentError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<memsense_model::ModelError> for ExperimentError {
    fn from(e: memsense_model::ModelError) -> Self {
        ExperimentError::Model(e)
    }
}

impl From<memsense_sim::SimError> for ExperimentError {
    fn from(e: memsense_sim::SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<std::io::Error> for ExperimentError {
    fn from(e: std::io::Error) -> Self {
        ExperimentError::Io(e)
    }
}
