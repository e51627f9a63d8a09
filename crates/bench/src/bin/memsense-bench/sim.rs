//! `sim-baseline`: best-of-N walls of the sim-heavy repro stages.
//!
//! Stages run one at a time, so each wall is undiluted by co-running
//! stages; the executor's worker pool serves the stage's inner jobs (sweep
//! points, series workloads, pressure cells) instead. The simulator work
//! counters of each stage's first repeat are printed as the profile table,
//! followed by one informational (ungated) line of generator cost.

use std::time::Instant;

use memsense_experiments::json::Json;
use memsense_experiments::render::{f, Table};
use memsense_experiments::simbench::{run_stage, STAGES};
use memsense_sim::telemetry::{self, TelemetrySnapshot};
use memsense_sim::trace::OpBlock;
use memsense_workloads::Workload;

use crate::baseline::{Baseline, Metric, Scenario};

/// Ops the generator probe drains from each stream.
const GEN_OPS_PER_STREAM: usize = 60_000;

/// Ops per `fill_block` call in the generator probe: the engine's
/// scheduling quantum.
const GEN_BLOCK_OPS: usize = 32;

/// Generator cost in ns per op: every workload's `streams(4, ..)` drained
/// through `fill_block` alone, stream construction excluded. Best of
/// `repeats`.
fn generator_ns_per_op(repeats: usize) -> f64 {
    let mut block = OpBlock::new();
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let (mut ns, mut ops) = (0.0, 0usize);
        for w in Workload::all() {
            for mut stream in w.streams(4, 0x5e71e5) {
                let start = Instant::now();
                for _ in 0..GEN_OPS_PER_STREAM / GEN_BLOCK_OPS {
                    stream.fill_block(&mut block, GEN_BLOCK_OPS);
                    ops += std::hint::black_box(block.ops.len());
                }
                ns += start.elapsed().as_nanos() as f64;
            }
        }
        best = best.min(ns / ops.max(1) as f64);
    }
    best
}

/// Times every stage of [`STAGES`] `repeats` times, keeping each stage's
/// minimum wall, and prints the per-stage profile table and the generator
/// cost line.
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
    println!(
        "generator: {} ns/op (fill_block only, construction excluded; informational, not gated)",
        f(generator_ns_per_op(repeats), 2)
    );

    let mut metrics: Vec<Metric> = STAGES
        .iter()
        .zip(best)
        .map(|(stage, ms)| Metric::lower(format!("wall_ms[{stage}]"), ms))
        .collect();
    metrics.push(Metric::lower("total_ms", best.iter().sum()));
    let params = Json::obj(vec![("repeats", Json::num(repeats as f64))]);
    Ok(Baseline::measured(Scenario::Sim, params, metrics))
}
