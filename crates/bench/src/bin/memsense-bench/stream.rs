//! `stream-baseline`: the throughput-vs-batch-size table of the incremental
//! sweep engine, plus its headline win.
//!
//! A fixed deterministic delta stream ([`delta_stream`]) is replayed into a
//! fresh default-grid [`Session`] once per batch size. Larger batches
//! amortize per-batch overhead (spec snapshot, dirty-cell derivation from
//! the axes, render diff, update emission, executor dispatch) across more
//! deltas, the logical/physical batching trade-off
//! the tpchlike exemplar measures. The headline win is gated absolutely: a
//! single-point delta on the default grid must re-solve at most
//! [`MAX_SINGLE_POINT_FRACTION`] of the cells.

use std::collections::VecDeque;
use std::time::Instant;

use memsense_experiments::json::Json;
use memsense_experiments::render::{f, Table};
use memsense_model::system::SystemConfig;
use memsense_model::units::Nanoseconds;
use memsense_stream::grid::GridSpec;
use memsense_stream::session::{Delta, Session};

use crate::baseline::{Baseline, Metric, Scenario};

/// Batch sizes the table sweeps (deltas per applied batch).
pub const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];

/// Length of the replayed delta stream a recording uses.
pub const DELTAS: usize = 512;

/// Ceiling on the fraction of grid cells a single-point delta may re-solve
/// on the default grid (the incremental acceptance criterion).
pub const MAX_SINGLE_POINT_FRACTION: f64 = 0.2;

/// A fixed, deterministic delta stream: interleaves bandwidth/latency point
/// add+remove pairs (new points outside the default axes, removed a few
/// ops after they appear), mix-weight tweaks cycling the three default
/// workloads, and a sparse `SetSystem` (~1% of ops) that dirties the whole
/// grid. The op sequence is valid under any batch size because batching
/// never reorders ops.
pub fn delta_stream(n: usize) -> Vec<Delta> {
    let mut ops = Vec::with_capacity(n);
    let mut bw_pending = VecDeque::new();
    let mut lat_pending = VecDeque::new();
    for i in 0..n {
        let cycle = i / 8;
        let op = match i % 8 {
            0 => {
                // 15 distinct positive points, disjoint from the default
                // (non-positive) bandwidth axis; each is removed at slot 4
                // of its own cycle, long before the cycle index wraps.
                let p = 0.25 * (1.0 + (cycle % 15) as f64);
                bw_pending.push_back(p);
                Delta::AddBandwidth(p)
            }
            2 => {
                // 7 distinct points above the default 0..60 ns axis.
                let q = 65.0 + 5.0 * (cycle % 7) as f64;
                lat_pending.push_back(q);
                Delta::AddLatency(q)
            }
            4 => bw_pending
                .pop_front()
                .map_or(Delta::Flush, Delta::RemoveBandwidth),
            6 => lat_pending
                .pop_front()
                .map_or(Delta::Flush, Delta::RemoveLatency),
            7 if i % 96 == 7 => {
                let latency = if (i / 96) % 2 == 0 { 90.0 } else { 75.0 };
                Delta::SetSystem(
                    SystemConfig::paper_baseline()
                        .with_unloaded_latency(Nanoseconds(latency))
                        .expect("fixed latencies are valid"),
                )
            }
            odd => Delta::SetWeight {
                workload: (i + odd) % 3,
                weight: 0.5 + 0.25 * ((i / 3) % 8) as f64,
            },
        };
        ops.push(op);
    }
    ops
}

/// One replay of a delta stream at one batch size.
struct Replay {
    wall_ms: f64,
    updates: usize,
    cells_resolved: u64,
    cells_skipped: u64,
}

fn replay(ops: &[Delta], batch: usize) -> Result<Replay, String> {
    let mut session = Session::open(GridSpec::default_grid(), batch)
        .map_err(|e| format!("batch {batch}: {e}"))?;
    session.take_updates();
    let start = Instant::now();
    let (mut resolved, mut skipped) = (0, 0);
    for op in ops.iter().chain([&Delta::Flush]) {
        let ack = session
            .submit(std::slice::from_ref(op))
            .map_err(|e| format!("batch {batch}: {e}"))?;
        resolved += ack.cells_resolved;
        skipped += ack.cells_skipped;
    }
    Ok(Replay {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        updates: session.take_updates().len(),
        cells_resolved: resolved,
        cells_skipped: skipped,
    })
}

/// Replays [`delta_stream`]`(deltas)` once per batch size (best wall of
/// `repeats`), prints the batch table, and probes the single-point
/// re-solve fraction.
pub fn measure(deltas: usize, repeats: usize) -> Result<Baseline, String> {
    let ops = delta_stream(deltas);
    let mut table = Table::new(
        format!("Stream replay: {deltas} deltas per batch size, best of {repeats}"),
        &[
            "batch",
            "wall_ms",
            "deltas/s",
            "updates",
            "cells_resolved",
            "cells_skipped",
        ],
    );
    let mut rates = Vec::with_capacity(BATCH_SIZES.len());
    for batch in BATCH_SIZES {
        let mut best = replay(&ops, batch)?;
        for _ in 1..repeats {
            let run = replay(&ops, batch)?;
            if run.wall_ms < best.wall_ms {
                best = run;
            }
        }
        let rate = deltas as f64 / (best.wall_ms / 1e3).max(1e-9);
        table.row(vec![
            batch.to_string(),
            f(best.wall_ms, 3),
            f(rate, 1),
            best.updates.to_string(),
            best.cells_resolved.to_string(),
            best.cells_skipped.to_string(),
        ]);
        rates.push(Metric::higher(format!("deltas_per_s[batch={batch}]"), rate));
    }
    print!("{}", table.to_ascii());

    // The headline probe: one new bandwidth point on the fresh default grid.
    let mut session =
        Session::open(GridSpec::default_grid(), 1).map_err(|e| format!("probe: {e}"))?;
    let ack = session
        .submit(&[Delta::AddBandwidth(0.25)])
        .map_err(|e| format!("probe: {e}"))?;
    let fraction = ack.cells_resolved as f64 / session.grid_cells().max(1) as f64;

    let mut metrics = vec![Metric {
        bound: Some(MAX_SINGLE_POINT_FRACTION),
        ..Metric::lower("single_point_fraction", fraction)
    }];
    metrics.extend(rates);
    let params = Json::obj(vec![("deltas", Json::num(deltas as f64))]);
    Ok(Baseline::measured(Scenario::Stream, params, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_stream_is_deterministic_and_valid() {
        assert_eq!(delta_stream(512), delta_stream(512));
        // Replaying the stream at two batch sizes yields identical end
        // states (the batching knob is performance-only).
        let ops = delta_stream(96);
        let mut a = Session::open(GridSpec::default_grid(), 1).unwrap();
        let mut b = Session::open(GridSpec::default_grid(), 64).unwrap();
        for op in &ops {
            a.submit(std::slice::from_ref(op)).unwrap();
            b.submit(std::slice::from_ref(op)).unwrap();
        }
        a.submit(&[Delta::Flush]).unwrap();
        b.submit(&[Delta::Flush]).unwrap();
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn measure_smoke_meets_the_incremental_contract() {
        // A tiny stream keeps this test fast while still exercising every
        // op kind (96 ops covers one full SetSystem cycle).
        let baseline = measure(96, 1).expect("measure");
        assert_eq!(baseline.metrics.len(), 1 + BATCH_SIZES.len());
        // 21 of the 189 cells after the probe adds a bandwidth point.
        let fraction = &baseline.metrics[0];
        assert_eq!(fraction.name, "single_point_fraction");
        assert!((fraction.value - 21.0 / 189.0).abs() < 1e-12);
        for rate in &baseline.metrics[1..] {
            assert!(rate.value > 0.0, "{}", rate.name);
        }
        // Fine-grained batches realize the incremental win: at batch=1 the
        // weight-only and single-point batches dominate, so far more cells
        // are skipped than re-solved. (At batch=512 the whole stream lands
        // in one batch whose SetSystem dirties the full grid, so no such
        // ratio holds there: that is the batching trade-off the table
        // documents.)
        let run = replay(&delta_stream(96), 1).unwrap();
        assert!(run.cells_skipped > run.cells_resolved);
    }
}
