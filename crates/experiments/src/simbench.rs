//! The simulator perf-baseline stage set.
//!
//! Sweep cells, calibrations, characterization series, and I/O-pressure
//! tables all re-execute the `crates/sim` engine, so simulator throughput
//! bounds how many design points a repro run can explore. [`STAGES`] names
//! the sim-heavy repro stages (reduced budgets) whose walls
//! `memsense-bench sim-baseline` records in `BENCH_sim.json` and gates in
//! CI; [`run_stage`] runs one of them.

use memsense_workloads::{Class, Workload};

use crate::calibrate::{calibrate, CalibrationBudget};
use crate::io_pressure::io_pressure_table;
use crate::timeseries::{class_series, SeriesBudget};

/// The measured stage set: the sim-heavy repro stages on reduced budgets.
/// Order is the report order.
pub const STAGES: [&str; 7] = [
    "timeseries/bigdata",
    "timeseries/enterprise",
    "timeseries/hpc",
    "calibrate/oltp",
    "calibrate/spark",
    "calibrate/bwaves",
    "io_pressure",
];

/// Runs one stage of [`STAGES`], discarding its output. Each stage fans its
/// inner jobs (sweep points, series workloads, pressure cells) out through
/// the executor, so the simulated numbers are byte-identical at any
/// `MEMSENSE_THREADS`.
///
/// # Errors
///
/// Returns a message naming the stage when it is unknown or fails.
pub fn run_stage(name: &str) -> Result<(), String> {
    let result = match name {
        "timeseries/bigdata" => class_series(Class::BigData, &SeriesBudget::quick()).map(drop),
        "timeseries/enterprise" => {
            class_series(Class::Enterprise, &SeriesBudget::quick()).map(drop)
        }
        "timeseries/hpc" => class_series(Class::Hpc, &SeriesBudget::quick()).map(drop),
        "calibrate/oltp" => calibrate(Workload::Oltp, &CalibrationBudget::quick()).map(drop),
        "calibrate/spark" => calibrate(Workload::Spark, &CalibrationBudget::quick()).map(drop),
        "calibrate/bwaves" => calibrate(Workload::Bwaves, &CalibrationBudget::quick()).map(drop),
        "io_pressure" => io_pressure_table(4, 40_000, 60_000.0).map(drop),
        other => return Err(format!("unknown stage {other:?}")),
    };
    result.map_err(|e| format!("{name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_stage_is_an_error() {
        let err = run_stage("timeseries/none").unwrap_err();
        assert!(err.contains("unknown stage"), "{err}");
    }
}
