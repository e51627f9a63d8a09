//! `sim-baseline`: best-of-N walls of the sim-heavy repro stages.
//!
//! Stages run one at a time, so each wall is undiluted by co-running
//! stages; the executor's worker pool serves the stage's inner jobs (sweep
//! points, series workloads, pressure cells) instead. The simulator work
//! counters of each stage's first repeat are printed as the profile table.

use std::time::Instant;

use memsense_experiments::json::Json;
use memsense_experiments::render::{f, Table};
use memsense_experiments::simbench::{run_stage, STAGES};
use memsense_sim::telemetry::{self, TelemetrySnapshot};

use crate::baseline::{Baseline, Metric, Scenario};

/// Times every stage of [`STAGES`] `repeats` times, keeping each stage's
/// minimum wall, and prints the per-stage profile table.
pub fn measure(repeats: usize) -> Result<Baseline, String> {
    let mut best = [f64::INFINITY; STAGES.len()];
    let mut work = [TelemetrySnapshot::default(); STAGES.len()];
    for rep in 0..repeats.max(1) {
        for (i, stage) in STAGES.iter().enumerate() {
            let before = telemetry::snapshot();
            let start = Instant::now();
            run_stage(stage)?;
            best[i] = best[i].min(start.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                // Machines built by the stage drop inside it and stages never
                // co-run, so the delta is exactly this stage's work.
                work[i] = telemetry::snapshot().delta_since(&before);
            }
        }
    }

    let mut profile = Table::new(
        "Sim stage profile: wall clock and simulator work per stage",
        &[
            "stage",
            "wall_ms",
            "ops",
            "cache_accesses",
            "tlb_accesses",
            "prefetch_fills",
        ],
    );
    for ((stage, ms), w) in STAGES.iter().zip(best).zip(work) {
        profile.row(vec![
            stage.to_string(),
            f(ms, 1),
            w.ops.to_string(),
            w.cache_accesses.to_string(),
            w.tlb_accesses.to_string(),
            w.prefetch_fills.to_string(),
        ]);
    }
    print!("{}", profile.to_ascii());

    let mut metrics: Vec<Metric> = STAGES
        .iter()
        .zip(best)
        .map(|(stage, ms)| Metric::lower(format!("wall_ms[{stage}]"), ms))
        .collect();
    metrics.push(Metric::lower("total_ms", best.iter().sum()));
    let params = Json::obj(vec![("repeats", Json::num(repeats as f64))]);
    Ok(Baseline::measured(Scenario::Sim, params, metrics))
}
