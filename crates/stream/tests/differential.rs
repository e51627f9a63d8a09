//! Differential property: incremental equals from-scratch, byte for byte.
//!
//! The whole value proposition of memsense-stream is that re-solving only
//! the dirty cells is *invisible*: after any sequence of valid deltas, the
//! session's snapshot must be byte-identical to a brand-new session opened
//! on the evolved spec (which solves every cell from scratch). These tests
//! drive random delta sequences — generated against the session's *current*
//! spec so removals always name live points — at random batch sizes and
//! compare the canonical snapshots. A third property checks the update
//! stream itself: folding every emitted update from seq 0 rebuilds the
//! snapshot's cells.

use std::collections::{BTreeMap, BTreeSet};

use memsense_experiments::json::Json;
use memsense_model::system::SystemConfig;
use memsense_model::units::Nanoseconds;
use memsense_model::workload::WorkloadParams;
use memsense_stream::grid::{GridSpec, MixEntry};
use memsense_stream::session::{Delta, Session};
use proptest::prelude::*;

/// A small grid keeps each case fast: 2 workloads × 3 bandwidth points ×
/// 2 latency points = 12 cells.
fn small_spec() -> GridSpec {
    let workloads = WorkloadParams::all_classes()
        .into_iter()
        .take(2)
        .map(|workload| MixEntry {
            workload,
            weight: 1.0,
        })
        .collect();
    GridSpec::validated(
        workloads,
        vec![0.0, -1.0, -2.0],
        vec![0.0, 30.0],
        SystemConfig::paper_baseline(),
    )
    .expect("small spec is valid")
}

/// The generator's eager mirror of the grid axes. The session only folds
/// pending ops into its spec when a batch applies, so at batch sizes > 1
/// the *committed* spec lags the op stream; generating against this shadow
/// (which applies every op immediately) keeps removals pointed at points
/// that will still be live when their batch runs.
struct Shadow {
    bandwidth: Vec<f64>,
    latency: Vec<f64>,
    weights: Vec<f64>,
    system: SystemConfig,
}

impl Shadow {
    fn of(spec: &GridSpec) -> Shadow {
        Shadow {
            bandwidth: spec.bandwidth_deltas.clone(),
            latency: spec.latency_steps_ns.clone(),
            weights: spec.workloads.iter().map(|entry| entry.weight).collect(),
            system: spec.system.clone(),
        }
    }

    fn add(points: &mut Vec<f64>, value: f64) {
        if !points.iter().any(|p| p.to_bits() == value.to_bits()) {
            points.push(value);
        }
    }

    fn remove(points: &mut Vec<f64>, rng: &mut TestRng) -> Option<f64> {
        if points.len() > 1 {
            let i = rng.below(points.len() as u64) as usize;
            Some(points.remove(i))
        } else {
            None
        }
    }
}

/// Draws one delta valid against the shadow, applying it to the shadow in
/// the same step. Axis points come from a 0.25-step lattice so adds
/// sometimes collide with existing points (exercising the no-op path).
fn draw_delta(rng: &mut TestRng, shadow: &mut Shadow) -> Delta {
    match rng.below(12) {
        // Bandwidth adds stay in a feasible window: the paper baseline has
        // ~5.2 GB/s per core, so deltas in [-3.0, +3.0] always solve.
        0 | 1 => {
            let p = -3.0 + 0.25 * rng.below(25) as f64 + 0.0;
            Shadow::add(&mut shadow.bandwidth, p);
            Delta::AddBandwidth(p)
        }
        2 | 3 => match Shadow::remove(&mut shadow.bandwidth, rng) {
            Some(p) => Delta::RemoveBandwidth(p),
            None => Delta::Flush,
        },
        4 | 5 => {
            let q = 5.0 * rng.below(25) as f64;
            Shadow::add(&mut shadow.latency, q);
            Delta::AddLatency(q)
        }
        6 | 7 => match Shadow::remove(&mut shadow.latency, rng) {
            Some(q) => Delta::RemoveLatency(q),
            None => Delta::Flush,
        },
        8 | 9 => {
            let workload = rng.below(shadow.weights.len() as u64) as usize;
            let weight = 0.25 * (1 + rng.below(16)) as f64;
            shadow.weights[workload] = weight;
            Delta::SetWeight { workload, weight }
        }
        10 => {
            let latency = [60.0, 75.0, 90.0][rng.below(3) as usize];
            let speed = [1333.0, 1866.7][rng.below(2) as usize];
            shadow.system = SystemConfig::paper_baseline()
                .with_unloaded_latency(Nanoseconds(latency))
                .and_then(|s| s.with_channel_speed(speed))
                .expect("paper-baseline variations are valid");
            Delta::SetSystem(shadow.system.clone())
        }
        _ => Delta::Flush,
    }
}

/// Draws one submit call's ops, biased towards the pairs that cancel out
/// within a batch, which per-parameter dirtiness must get right: a live
/// point removed and re-added, a new point added and removed, a weight set
/// and reset, the system changed and changed back. Otherwise one
/// [`draw_delta`].
fn draw_ops(rng: &mut TestRng, shadow: &mut Shadow) -> Vec<Delta> {
    match rng.below(8) {
        0 => match Shadow::remove(&mut shadow.bandwidth, rng) {
            Some(p) => {
                shadow.bandwidth.push(p);
                vec![Delta::RemoveBandwidth(p), Delta::AddBandwidth(p)]
            }
            None => vec![Delta::Flush],
        },
        1 => match Shadow::remove(&mut shadow.latency, rng) {
            Some(q) => {
                shadow.latency.push(q);
                vec![Delta::RemoveLatency(q), Delta::AddLatency(q)]
            }
            None => vec![Delta::Flush],
        },
        2 => {
            // Off the 0.25-step lattice, so the point is always new.
            let p = -2.875 + 0.25 * rng.below(20) as f64;
            vec![Delta::AddBandwidth(p), Delta::RemoveBandwidth(p)]
        }
        3 => {
            let workload = rng.below(shadow.weights.len() as u64) as usize;
            let old = shadow.weights[workload];
            vec![
                Delta::SetWeight {
                    workload,
                    weight: old + 0.5,
                },
                Delta::SetWeight {
                    workload,
                    weight: old,
                },
            ]
        }
        4 => {
            let other = shadow
                .system
                .clone()
                .with_unloaded_latency(Nanoseconds(82.5))
                .expect("82.5 ns is a valid latency");
            vec![
                Delta::SetSystem(other),
                Delta::SetSystem(shadow.system.clone()),
            ]
        }
        _ => vec![draw_delta(rng, shadow)],
    }
}

/// A cell's identity as canonical JSON, from a changed cell or a removed
/// key alike.
fn identity(cell: &Json) -> String {
    let field = |name: &str| cell.get(name).cloned().unwrap_or(Json::Null);
    Json::obj(vec![
        ("bandwidth_delta_gbps", field("bandwidth_delta_gbps")),
        ("latency_step_ns", field("latency_step_ns")),
        ("workload_index", field("workload_index")),
    ])
    .canonical()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After an arbitrary valid delta sequence at an arbitrary batch size,
    /// the incremental session snapshot is byte-identical to a from-scratch
    /// session opened on the evolved spec.
    #[test]
    fn incremental_matches_from_scratch(
        seed in 0u64..u64::MAX,
        n in 1usize..33,
        batch in 1usize..9,
    ) {
        let mut rng = TestRng::new(seed);
        let mut session = Session::open(small_spec(), batch)
            .expect("open small session");
        let mut shadow = Shadow::of(session.spec());
        for _ in 0..n {
            let delta = draw_delta(&mut rng, &mut shadow);
            session.submit(std::slice::from_ref(&delta))
                .expect("generated deltas are valid");
        }
        session.submit(&[Delta::Flush]).expect("flush");
        prop_assert_eq!(session.pending(), 0);

        let fresh = Session::open(session.spec().clone(), batch)
            .expect("open from-scratch session");
        prop_assert_eq!(
            session.snapshot(),
            fresh.snapshot(),
            "incremental state diverged from a from-scratch solve \
             (seed {}, {} deltas, batch {})",
            seed, n, batch
        );
    }

    /// The batching knob is performance-only: the same op stream applied at
    /// two different batch sizes converges to the same bytes and the same
    /// number of applied deltas.
    #[test]
    fn batch_size_never_changes_the_result(
        seed in 0u64..u64::MAX,
        n in 1usize..25,
    ) {
        let mut a = Session::open(small_spec(), 1).expect("open");
        let mut b = Session::open(small_spec(), 7).expect("open");
        let mut rng = TestRng::new(seed);
        let mut shadow = Shadow::of(a.spec());
        for _ in 0..n {
            // Both sessions see the identical op stream, so their specs
            // stay in lockstep with the shadow.
            let delta = draw_delta(&mut rng, &mut shadow);
            a.submit(std::slice::from_ref(&delta)).expect("apply to a");
            b.submit(std::slice::from_ref(&delta)).expect("apply to b");
        }
        a.submit(&[Delta::Flush]).expect("flush a");
        b.submit(&[Delta::Flush]).expect("flush b");
        prop_assert_eq!(a.snapshot(), b.snapshot());
        let (deltas_a, ..) = a.counters();
        let (deltas_b, ..) = b.counters();
        prop_assert_eq!(deltas_a, deltas_b);
    }
    /// The update stream is complete: folding every emitted update from
    /// the seq-0 one (`changed` upserts, `removed` deletes) rebuilds the
    /// snapshot's cells. A removal names only a cell the client holds, an
    /// update never removes a cell it also lists as changed (a point removed
    /// and re-added in one batch stays), and a changed cell's bytes really
    /// moved.
    #[test]
    fn folded_updates_equal_the_snapshot(
        seed in 0u64..u64::MAX,
        n in 1usize..25,
        batch in 1usize..9,
    ) {
        let mut rng = TestRng::new(seed);
        let mut session = Session::open(small_spec(), batch).expect("open");
        let mut shadow = Shadow::of(session.spec());
        let mut updates = session.take_updates();
        for _ in 0..n {
            let ops = draw_ops(&mut rng, &mut shadow);
            session.submit(&ops).expect("generated deltas are valid");
            updates.extend(session.take_updates());
        }
        session.submit(&[Delta::Flush]).expect("flush");
        updates.extend(session.take_updates());
        prop_assert_eq!(updates[0].seq, 0);

        let mut folded: BTreeMap<String, String> = BTreeMap::new();
        for update in &updates {
            let body = Json::parse(&update.body).expect("updates are JSON");
            let list = |name: &str| body.get(name).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
            let mut removed = BTreeSet::new();
            for key in list("removed") {
                prop_assert!(
                    folded.remove(&identity(&key)).is_some(),
                    "seq {} removed a cell the client never held (seed {})",
                    update.seq, seed
                );
                removed.insert(identity(&key));
            }
            for cell in list("changed") {
                let render = cell.canonical();
                prop_assert!(
                    !removed.contains(&identity(&cell)),
                    "seq {} removed and re-listed a cell whose points stayed (seed {})",
                    update.seq, seed
                );
                let previous = folded.insert(identity(&cell), render.clone());
                prop_assert!(
                    previous.as_ref() != Some(&render),
                    "seq {} reported an unchanged cell (seed {})",
                    update.seq, seed
                );
            }
        }

        let snapshot = Json::parse(&session.snapshot()).expect("snapshot is JSON");
        let cells: BTreeMap<String, String> = snapshot
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|cell| (identity(cell), cell.canonical()))
            .collect();
        prop_assert_eq!(
            folded,
            cells,
            "folded updates diverged from the snapshot (seed {}, {} calls, batch {})",
            seed, n, batch
        );
    }
}
