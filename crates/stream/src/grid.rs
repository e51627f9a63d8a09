//! The materialized sweep grid a session evolves: a workload mix crossed
//! with a bandwidth-delta axis and a latency-step axis over one hardware
//! configuration.
//!
//! A grid **cell** is one `(workload, bandwidth delta, latency step)`
//! triple; its value is the converged Eq. 1–5 operating point for the
//! baseline system with that per-core bandwidth delta and that much added
//! compulsory latency (the same transforms `bandwidth_sweep` and
//! `latency_sweep` apply, composed). Cells are keyed by [`CellKey`], which
//! orders workloads by mix index and axis points numerically, so every
//! iteration over the grid is deterministic.
//!
//! Axis values are **normalized** on entry: `-0.0` is folded to `+0.0`
//! (IEEE `v + 0.0`), NaN/infinity are rejected, and each axis is kept
//! sorted and duplicate-free. Two grids that describe the same sweep
//! therefore compare — and render — byte-identically.

use std::cmp::Ordering;

use memsense_experiments::json::{escape_str, write_f64, Json};
use memsense_model::queueing::QueueingCurve;
use memsense_model::sensitivity::{default_bandwidth_deltas, default_latency_steps};
use memsense_model::solver::{solve_cpi, SolvedCpi};
use memsense_model::system::SystemConfig;
use memsense_model::units::{GigabytesPerSecond, Nanoseconds};
use memsense_model::workload::WorkloadParams;

use crate::StreamError;

/// Most points either grid axis accepts, and the most workloads in a mix.
pub const MAX_AXIS_POINTS: usize = 4096;

/// Most cells a grid may materialize (workloads × bandwidth × latency).
/// The per-axis cap alone still admits a ~10¹¹-cell product, whose
/// `cell_keys` allocation alone would abort the process — untrusted specs
/// must be bounded by the *product*, not just each factor. Delta ops that
/// would grow a session past this cap are rejected the same way.
pub const MAX_GRID_CELLS: usize = 1_000_000;

/// An axis value with a total order: finite, `-0.0`-free `f64` compared by
/// `total_cmp`. The normalization invariant makes `Eq` agree with `Ord`.
#[derive(Debug, Clone, Copy)]
pub struct Ordered(f64);

impl Ordered {
    /// Wraps a normalized axis value. Callers must have run
    /// [`normalize_axis_value`] first (the constructor does not re-check).
    pub(crate) fn wrap(v: f64) -> Ordered {
        Ordered(v)
    }

    /// The wrapped value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl PartialEq for Ordered {
    fn eq(&self, other: &Ordered) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Ordered {}

impl PartialOrd for Ordered {
    fn partial_cmp(&self, other: &Ordered) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ordered {
    fn cmp(&self, other: &Ordered) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Validates and normalizes one axis value: must be finite; `-0.0` folds to
/// `+0.0` so it can never split two otherwise-identical grids.
///
/// # Errors
///
/// [`StreamError::InvalidDelta`] for NaN or infinite values.
pub fn normalize_axis_value(v: f64) -> Result<f64, StreamError> {
    if !v.is_finite() {
        return Err(StreamError::invalid("axis values must be finite"));
    }
    Ok(v + 0.0)
}

/// One workload of the mix, with the weight its cells carry in aggregated
/// views. The weight scales `weighted_cpi` at render time only — it is not
/// a solver input, which is why weight tweaks never re-solve a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEntry {
    /// The workload parameters (fixed for the session's lifetime).
    pub workload: WorkloadParams,
    /// Mix weight; finite and positive.
    pub weight: f64,
}

/// The full grid description: workload mix × bandwidth axis × latency axis
/// over one system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Workload mix; index identity is stable for a session's lifetime.
    pub workloads: Vec<MixEntry>,
    /// Per-core bandwidth deltas (GB/s, negative = reduction); sorted,
    /// deduplicated, normalized.
    pub bandwidth_deltas: Vec<f64>,
    /// Added compulsory latency steps (ns); sorted, deduplicated,
    /// normalized.
    pub latency_steps_ns: Vec<f64>,
    /// The hardware configuration every cell starts from.
    pub system: SystemConfig,
}

impl GridSpec {
    /// Builds a validated spec: normalizes both axes (finite, `+0.0`,
    /// sorted, deduplicated), and checks the mix weights.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidDelta`] for empty inputs, non-finite or
    /// non-positive weights, non-finite axis values, oversized axes, or a
    /// grid whose total cell count exceeds [`MAX_GRID_CELLS`].
    pub fn validated(
        workloads: Vec<MixEntry>,
        bandwidth_deltas: Vec<f64>,
        latency_steps_ns: Vec<f64>,
        system: SystemConfig,
    ) -> Result<GridSpec, StreamError> {
        if workloads.is_empty() {
            return Err(StreamError::invalid("workload mix must not be empty"));
        }
        if workloads.len() > MAX_AXIS_POINTS {
            return Err(StreamError::invalid("too many workloads in the mix"));
        }
        for entry in &workloads {
            check_weight(entry.weight)?;
        }
        let spec = GridSpec {
            workloads,
            bandwidth_deltas: normalize_axis(bandwidth_deltas, "bandwidth")?,
            latency_steps_ns: normalize_axis(latency_steps_ns, "latency")?,
            system,
        };
        check_cell_cap(&spec)?;
        Ok(spec)
    }

    /// The default grid: the three Tab. 6 workload classes at weight 1.0,
    /// the Fig. 8 bandwidth axis, the Fig. 10 latency axis, and the paper
    /// baseline system (3 × 8 × 7 = 168 cells).
    pub fn default_grid() -> GridSpec {
        let workloads = WorkloadParams::all_classes()
            .into_iter()
            .map(|workload| MixEntry {
                workload,
                weight: 1.0,
            })
            .collect();
        // The defaults are already normalized, finite, and sorted-unique, so
        // validation cannot fail.
        // memsense-lint: allow(no-panic-in-lib) — fixed valid inputs
        GridSpec::validated(
            workloads,
            default_bandwidth_deltas(),
            default_latency_steps(),
            SystemConfig::paper_baseline(),
        )
        .expect("default grid is valid")
    }

    /// Number of cells the grid materializes.
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.bandwidth_deltas.len() * self.latency_steps_ns.len()
    }

    /// Every cell key of the grid, in deterministic (workload, bandwidth,
    /// latency) order — key order, since both axes are sorted.
    pub fn cell_keys(&self) -> Vec<CellKey> {
        let mut keys = Vec::with_capacity(self.cell_count());
        for workload in 0..self.workloads.len() {
            for &bw in &self.bandwidth_deltas {
                for &lat in &self.latency_steps_ns {
                    keys.push(CellKey::new(workload, bw, lat));
                }
            }
        }
        keys
    }
}

/// Checks a spec against [`MAX_GRID_CELLS`]. Run on every spec entering a
/// session — at open *and* after each axis-growing delta — so no path can
/// materialize an unbounded grid. The factors are each ≤
/// [`MAX_AXIS_POINTS`] = 2¹², so the product (≤ 2³⁶) cannot overflow.
///
/// # Errors
///
/// [`StreamError::InvalidDelta`] naming the count and the cap.
pub fn check_cell_cap(spec: &GridSpec) -> Result<(), StreamError> {
    let count = spec.cell_count();
    if count > MAX_GRID_CELLS {
        return Err(StreamError::InvalidDelta(format!(
            "grid would materialize {count} cells; the cap is {MAX_GRID_CELLS}"
        )));
    }
    Ok(())
}

/// Validates a mix weight: finite and positive.
///
/// # Errors
///
/// [`StreamError::InvalidDelta`] otherwise.
pub fn check_weight(weight: f64) -> Result<(), StreamError> {
    if !weight.is_finite() || weight <= 0.0 {
        return Err(StreamError::invalid("weights must be finite and positive"));
    }
    Ok(())
}

fn normalize_axis(values: Vec<f64>, which: &'static str) -> Result<Vec<f64>, StreamError> {
    if values.is_empty() {
        return Err(StreamError::InvalidDelta(format!(
            "{which} axis must not be empty"
        )));
    }
    if values.len() > MAX_AXIS_POINTS {
        return Err(StreamError::InvalidDelta(format!(
            "{which} axis accepts at most {MAX_AXIS_POINTS} points"
        )));
    }
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        out.push(normalize_axis_value(v)?);
    }
    out.sort_by(f64::total_cmp);
    out.dedup_by(|a, b| a.to_bits() == b.to_bits());
    Ok(out)
}

/// Identity of one grid cell: workload mix index plus the two axis values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// Index into the spec's workload mix.
    pub workload: usize,
    /// Per-core bandwidth delta (GB/s), normalized.
    pub bandwidth_delta: Ordered,
    /// Added compulsory latency (ns), normalized.
    pub latency_step: Ordered,
}

impl CellKey {
    /// Creates a key from already-normalized axis values.
    pub fn new(workload: usize, bandwidth_delta: f64, latency_step: f64) -> CellKey {
        CellKey {
            workload,
            bandwidth_delta: Ordered::wrap(bandwidth_delta),
            latency_step: Ordered::wrap(latency_step),
        }
    }

    /// Appends the cell identity as canonical JSON (the `removed` lists).
    pub fn render(&self, out: &mut String) {
        let bw = self.bandwidth_delta.value();
        push_num(out, "{\"bandwidth_delta_gbps\":", bw);
        push_num(out, ",\"latency_step_ns\":", self.latency_step.value());
        push_num(out, ",\"workload_index\":", self.workload as f64);
        out.push('}');
    }
}

/// The solved value of one cell, with the derived system quantities the
/// render needs (recomputing them would re-derive the per-cell system).
#[derive(Debug, Clone, PartialEq)]
pub struct CellState {
    /// Converged operating point.
    pub solved: SolvedCpi,
    /// Per-core effective bandwidth (GB/s) at this cell.
    pub bandwidth_per_core: f64,
    /// Compulsory latency (ns) at this cell.
    pub unloaded_latency_ns: f64,
}

/// Solves one cell: the spec's system with the cell's per-core bandwidth
/// delta and added compulsory latency, solved for the cell's workload.
///
/// # Errors
///
/// Propagates [`memsense_model::ModelError`] from infeasible deltas or a
/// non-converging solve.
pub fn solve_cell(
    spec: &GridSpec,
    key: CellKey,
    curve: &QueueingCurve,
) -> Result<CellState, memsense_model::ModelError> {
    let sys = spec
        .system
        .clone()
        .with_bandwidth_per_core_delta(GigabytesPerSecond(key.bandwidth_delta.value()))?;
    let sys = sys.clone().with_unloaded_latency(Nanoseconds(
        sys.unloaded_latency().value() + key.latency_step.value(),
    ))?;
    let solved = solve_cpi(&spec.workloads[key.workload].workload, &sys, curve)?;
    Ok(CellState {
        solved,
        bandwidth_per_core: sys.bandwidth_per_core().value(),
        unloaded_latency_ns: sys.unloaded_latency().value(),
    })
}

/// Appends one cell's canonical render (identity + solved value + weighted
/// CPI) to `out`: keys in bytewise order, numbers through [`write_f64`],
/// strings through [`escape_str`] — the bytes `Json::canonical` writes for
/// the same object, without building it.
pub fn render_cell(spec: &GridSpec, key: CellKey, state: &CellState, out: &mut String) {
    let entry = &spec.workloads[key.workload];
    let (bw, lat) = (key.bandwidth_delta.value(), key.latency_step.value());
    let (per_core, cpi) = (state.bandwidth_per_core, state.solved.cpi_eff);
    push_num(out, "{\"bandwidth_delta_gbps\":", bw);
    push_num(out, ",\"bandwidth_per_core_gbps\":", per_core);
    push_num(out, ",\"cpi\":", cpi);
    push_num(out, ",\"latency_step_ns\":", lat);
    out.push_str(",\"regime\":");
    escape_str(state.solved.regime.token(), out);
    push_num(out, ",\"unloaded_latency_ns\":", state.unloaded_latency_ns);
    push_num(out, ",\"utilization\":", state.solved.utilization);
    push_num(out, ",\"weight\":", entry.weight);
    push_num(out, ",\"weighted_cpi\":", entry.weight * cpi);
    out.push_str(",\"workload\":");
    escape_str(&entry.workload.name, out);
    push_num(out, ",\"workload_index\":", key.workload as f64);
    out.push('}');
}

/// Appends `prefix` and `v` as a canonical JSON number.
pub(crate) fn push_num(out: &mut String, prefix: &str, v: f64) {
    out.push_str(prefix);
    write_f64(v, out);
}

/// Renders the system configuration for snapshots.
pub fn system_json(system: &SystemConfig) -> Json {
    Json::obj(vec![
        ("sockets", Json::num(system.sockets() as f64)),
        ("cores", Json::num(system.cores() as f64)),
        (
            "hardware_threads",
            Json::num(system.hardware_threads() as f64),
        ),
        ("core_clock_ghz", Json::num(system.core_clock().value())),
        ("channels", Json::num(system.channels() as f64)),
        (
            "channel_mega_transfers",
            Json::num(system.channel_mega_transfers()),
        ),
        ("efficiency", Json::num(system.efficiency())),
        (
            "unloaded_latency_ns",
            Json::num(system.unloaded_latency().value()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_has_the_paper_axes() {
        let spec = GridSpec::default_grid();
        assert_eq!(spec.workloads.len(), 3);
        assert_eq!(spec.bandwidth_deltas.len(), 8);
        assert_eq!(spec.latency_steps_ns.len(), 7);
        assert_eq!(spec.cell_count(), 168);
        assert_eq!(spec.cell_keys().len(), 168);
    }

    #[test]
    fn axes_are_normalized_sorted_and_deduplicated() {
        let spec = GridSpec::validated(
            GridSpec::default_grid().workloads,
            vec![-0.5, 0.0, -0.0, -0.5],
            vec![10.0, 0.0, 10.0],
            SystemConfig::paper_baseline(),
        )
        .unwrap();
        assert_eq!(spec.bandwidth_deltas, vec![-0.5, 0.0]);
        // -0.0 folded away: the surviving zero is +0.0.
        assert_eq!(spec.bandwidth_deltas[1].to_bits(), 0.0f64.to_bits());
        assert_eq!(spec.latency_steps_ns, vec![0.0, 10.0]);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let base = GridSpec::default_grid();
        assert!(GridSpec::validated(
            Vec::new(),
            vec![0.0],
            vec![0.0],
            SystemConfig::paper_baseline()
        )
        .is_err());
        assert!(GridSpec::validated(
            base.workloads.clone(),
            vec![f64::NAN],
            vec![0.0],
            SystemConfig::paper_baseline()
        )
        .is_err());
        let mut bad_weight = base.workloads.clone();
        bad_weight[0].weight = 0.0;
        assert!(GridSpec::validated(
            bad_weight,
            vec![0.0],
            vec![0.0],
            SystemConfig::paper_baseline()
        )
        .is_err());
    }

    #[test]
    fn oversized_cell_products_are_rejected() {
        // Each axis is individually under MAX_AXIS_POINTS, but the product
        // (3 × 2048 × 2048 ≈ 12.6M) blows the total-cell cap: exactly the
        // small-request/huge-allocation shape the cap exists to stop.
        let axis: Vec<f64> = (0..2048).map(f64::from).collect();
        let err = GridSpec::validated(
            GridSpec::default_grid().workloads,
            axis.clone(),
            axis,
            SystemConfig::paper_baseline(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::InvalidDelta(m) if m.contains("cap")),
            "{err:?}"
        );

        // At the cap exactly: accepted (1 workload × 1000 × 1000).
        let axis: Vec<f64> = (0..1000).map(f64::from).collect();
        let workloads = GridSpec::default_grid().workloads.into_iter().take(1);
        let spec = GridSpec::validated(
            workloads.collect(),
            axis.clone(),
            axis,
            SystemConfig::paper_baseline(),
        )
        .unwrap();
        assert_eq!(spec.cell_count(), MAX_GRID_CELLS);
    }

    /// Reference render: the `Json` tree whose canonical bytes `render_cell`
    /// must equal.
    fn cell_json(spec: &GridSpec, key: CellKey, state: &CellState) -> Json {
        let entry = &spec.workloads[key.workload];
        Json::obj(vec![
            (
                "bandwidth_delta_gbps",
                Json::num(key.bandwidth_delta.value()),
            ),
            (
                "bandwidth_per_core_gbps",
                Json::num(state.bandwidth_per_core),
            ),
            ("cpi", Json::num(state.solved.cpi_eff)),
            ("latency_step_ns", Json::num(key.latency_step.value())),
            ("regime", Json::str(state.solved.regime.token())),
            ("unloaded_latency_ns", Json::num(state.unloaded_latency_ns)),
            ("utilization", Json::num(state.solved.utilization)),
            ("weight", Json::num(entry.weight)),
            (
                "weighted_cpi",
                Json::num(entry.weight * state.solved.cpi_eff),
            ),
            ("workload", Json::str(&entry.workload.name)),
            ("workload_index", Json::num(key.workload as f64)),
        ])
    }

    #[test]
    fn renders_list_their_keys_in_canonical_order() {
        let spec = GridSpec::default_grid();
        let key = CellKey::new(2, -1.5, 30.0);
        let state = solve_cell(&spec, key, &QueueingCurve::composite_default()).unwrap();
        let mut cell = String::new();
        render_cell(&spec, key, &state, &mut cell);
        let mut identity = String::new();
        key.render(&mut identity);
        for render in [cell, identity] {
            // A canonical document re-canonicalizes to itself.
            assert_eq!(Json::parse(&render).unwrap().canonical(), render);
        }
    }

    #[test]
    fn direct_renders_equal_the_json_tree_renders() {
        let curve = QueueingCurve::composite_default();
        let mut spec = GridSpec::default_grid();
        // Quote, backslash, control characters and non-ASCII all escape.
        spec.workloads[1].workload.name = "a\"b\\c\u{1}\n\u{1f} é ∑ 🙂".to_string();
        spec.workloads[2].weight = f64::MAX;
        let base = solve_cell(&spec, CellKey::new(0, 0.0, 0.0), &curve).unwrap();
        let extremes = [
            -0.0,
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -1e-300,
            1.0 / 3.0,
        ];
        for (i, &x) in extremes.iter().enumerate() {
            let y = extremes[(i + 3) % extremes.len()];
            let state = CellState {
                solved: SolvedCpi {
                    cpi_eff: x,
                    utilization: y,
                    ..base.solved.clone()
                },
                bandwidth_per_core: y,
                unloaded_latency_ns: x,
            };
            for key in [
                CellKey::new(i % 3, x, y),
                CellKey::new(1, -0.0, -0.0),
                CellKey::new(2, f64::MAX, 5e-324),
            ] {
                let mut cell = String::new();
                render_cell(&spec, key, &state, &mut cell);
                assert_eq!(cell, cell_json(&spec, key, &state).canonical());
                let mut identity = String::new();
                key.render(&mut identity);
                let reference = Json::obj(vec![
                    (
                        "bandwidth_delta_gbps",
                        Json::num(key.bandwidth_delta.value()),
                    ),
                    ("latency_step_ns", Json::num(key.latency_step.value())),
                    ("workload_index", Json::num(key.workload as f64)),
                ]);
                assert_eq!(identity, reference.canonical());
            }
        }
    }

    #[test]
    fn cell_keys_are_totally_ordered_and_deterministic() {
        let spec = GridSpec::default_grid();
        let keys = spec.cell_keys();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cell_keys iterates in key order");
    }

    #[test]
    fn solve_cell_matches_the_sweep_transforms() {
        use memsense_model::sensitivity::{bandwidth_sweep, latency_sweep};
        let spec = GridSpec::default_grid();
        let curve = QueueingCurve::composite_default();
        let workload = &spec.workloads[0].workload;

        let bw = bandwidth_sweep(workload, &spec.system, &curve, &[-1.5]).unwrap();
        let cell = solve_cell(&spec, CellKey::new(0, -1.5, 0.0), &curve).unwrap();
        assert_eq!(cell.solved.cpi_eff, bw[0].solved.cpi_eff);

        let lat = latency_sweep(workload, &spec.system, &curve, &[30.0]).unwrap();
        let cell = solve_cell(&spec, CellKey::new(0, 0.0, 30.0), &curve).unwrap();
        assert_eq!(cell.solved.cpi_eff, lat[0].solved.cpi_eff);
    }
}
