//! `model-baseline`: the cost of one `solve_cpi` fixed point.
//!
//! A fixed grid — the three Tab. 6 classes × the eight Fig. 8 bandwidth
//! deltas × {the composite curve, an M/M/1 curve} on the paper baseline,
//! 48 solves — is solved `rounds` times by `solve_cpi` and by the plain
//! bisection it replays (`solve_cpi_by_bisection`), interleaved. The gated
//! numbers are `solve_ns` and `evals_per_solve` (residual evaluations, from
//! the solver telemetry) for `solve_cpi`, and its speedup over the plain
//! bisection, which must stay at least [`MIN_SPEEDUP`].

use std::time::Instant;

use memsense_experiments::json::Json;
use memsense_experiments::render::{f, Table};
use memsense_model::queueing::QueueingCurve;
use memsense_model::sensitivity::default_bandwidth_deltas;
use memsense_model::solver::{solve_cpi, solve_cpi_by_bisection, telemetry, SolvedCpi};
use memsense_model::system::SystemConfig;
use memsense_model::units::{GigabytesPerSecond, Nanoseconds};
use memsense_model::workload::WorkloadParams;
use memsense_model::ModelError;

use crate::baseline::{Baseline, Metric, Scenario};

/// Passes over the grid per timed repeat a recording uses.
pub const ROUNDS: usize = 2000;

/// Least speedup of `solve_cpi` over the plain bisection the gate accepts.
pub const MIN_SPEEDUP: f64 = 4.0;

/// Most residual evaluations per solve the gate accepts (the plain
/// bisection needs 36 on this grid).
pub const MAX_EVALS_PER_SOLVE: f64 = 4.0;

/// M/M/1 service time of the second curve, as in the queueing ablation.
const MM1_SERVICE_NS: f64 = 12.0;

type Case = (WorkloadParams, SystemConfig, QueueingCurve);
type Solver = fn(&WorkloadParams, &SystemConfig, &QueueingCurve) -> Result<SolvedCpi, ModelError>;

fn grid() -> Result<Vec<Case>, String> {
    let curves = [
        QueueingCurve::composite_default(),
        QueueingCurve::mm1(Nanoseconds(MM1_SERVICE_NS)).map_err(|e| e.to_string())?,
    ];
    let mut cases = Vec::new();
    for curve in &curves {
        for workload in WorkloadParams::all_classes() {
            for delta in default_bandwidth_deltas() {
                let system = SystemConfig::paper_baseline()
                    .with_bandwidth_per_core_delta(GigabytesPerSecond(delta))
                    .map_err(|e| e.to_string())?;
                cases.push((workload.clone(), system, curve.clone()));
            }
        }
    }
    Ok(cases)
}

/// One pass of `solver` over `cases`: its wall in ns and the solver
/// telemetry it produced.
fn pass(
    solver: Solver,
    cases: &[Case],
    rounds: usize,
) -> Result<(f64, telemetry::SolverStats), String> {
    let before = telemetry::snapshot();
    let start = Instant::now();
    for _ in 0..rounds {
        for (w, s, c) in cases {
            std::hint::black_box(solver(w, s, c).map_err(|e| e.to_string())?);
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    Ok((ns, telemetry::snapshot().since(&before)))
}

/// Times both solvers over the grid (best of `repeats`), prints the
/// comparison table, and checks the two agree bit for bit on the grid.
pub fn measure(rounds: usize, repeats: usize) -> Result<Baseline, String> {
    let cases = grid()?;
    for (w, s, c) in &cases {
        let fast = solve_cpi(w, s, c).map_err(|e| e.to_string())?;
        let plain = solve_cpi_by_bisection(w, s, c).map_err(|e| e.to_string())?;
        if format!("{fast:?}") != format!("{plain:?}") {
            return Err(format!(
                "{}: replay {fast:?} != bisection {plain:?}",
                w.name
            ));
        }
    }
    let solves = (rounds * cases.len()) as f64;
    let mut best = [f64::INFINITY; 2];
    let mut stats = [telemetry::SolverStats::default(); 2];
    for _ in 0..repeats.max(1) {
        for (i, solver) in [solve_cpi as Solver, solve_cpi_by_bisection]
            .into_iter()
            .enumerate()
        {
            let (ns, work) = pass(solver, &cases, rounds)?;
            best[i] = best[i].min(ns / solves);
            stats[i] = work;
        }
    }
    let per_solve = |n: u64, s: &telemetry::SolverStats| n as f64 / s.solves.max(1) as f64;

    let mut table = Table::new(
        format!(
            "Fixed-point cost: {} solves x {rounds} rounds, best of {repeats}",
            cases.len()
        ),
        &["solver", "ns/solve", "evals/solve", "iterations/solve"],
    );
    for (name, ns, s) in [
        ("solve_cpi (replay)", best[0], &stats[0]),
        ("plain bisection", best[1], &stats[1]),
    ] {
        table.row(vec![
            name.to_string(),
            f(ns, 1),
            f(per_solve(s.residual_evals, s), 2),
            f(per_solve(s.iterations, s), 2),
        ]);
    }
    print!("{}", table.to_ascii());

    let metrics = vec![
        Metric::lower("solve_ns", best[0]),
        Metric {
            bound: Some(MAX_EVALS_PER_SOLVE),
            ..Metric::lower(
                "evals_per_solve",
                per_solve(stats[0].residual_evals, &stats[0]),
            )
        },
        Metric {
            bound: Some(MIN_SPEEDUP),
            ..Metric::higher("speedup_vs_bisection", best[1] / best[0])
        },
    ];
    let params = Json::obj(vec![("rounds", Json::num(rounds as f64))]);
    Ok(Baseline::measured(Scenario::Model, params, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_smoke_meets_the_evaluation_bound() {
        let baseline = measure(2, 1).expect("measure");
        let names: Vec<&str> = baseline.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["solve_ns", "evals_per_solve", "speedup_vs_bisection"]
        );
        assert!(baseline.metrics[1].value <= MAX_EVALS_PER_SOLVE);
        assert!(baseline.metrics[1].value >= 1.0);
    }
}
