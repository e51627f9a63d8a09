//! Delta-solve sessions: batched incremental evaluation over a grid.
//!
//! A [`Session`] owns one validated [`GridSpec`], the solved state of every
//! cell, and each cell's canonical JSON render. Submitted [`Delta`] ops
//! accumulate in a pending buffer until the batching knob fires (or an
//! explicit [`Delta::Flush`] arrives); a batch is applied by classifying
//! every touched cell as *re-solve* (solver inputs moved), *revalue*
//! (render-only inputs like mix weights moved), or *removed*, re-solving
//! only the first class through `executor::par_map`, and emitting one
//! [`Update`] per batch carrying the cells whose canonical rendering
//! actually changed.
//!
//! **Dirty cells are derived from the axes.** A grid is always the full
//! cross product of its workload mix and its two axes, so the cells one op
//! touches are that product with one axis narrowed to the op's point
//! ([`cross_keys`]): a weight touches its workload's cells, an axis point
//! the cells on that point, `SetSystem` every cell. No index is kept.
//!
//! Each cell is rendered once per change: the render is stored, compared
//! with the previous one to decide whether the cell changed, and spliced
//! as-is into the update body.
//!
//! Batch application is **transactional**: all mutation happens on scratch
//! copies and commits only if every dirty cell solves. On failure the
//! session keeps its previous state byte-for-byte (the failed batch's ops
//! are dropped, and the error tells the client why).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use memsense_experiments::executor;
use memsense_experiments::json::{write_f64, Json};
use memsense_model::queueing::QueueingCurve;
use memsense_model::system::SystemConfig;

use crate::grid::{
    cell_json, check_cell_cap, check_weight, cross_keys, normalize_axis_value, solve_cell,
    system_json, CellKey, CellState, GridSpec, MAX_AXIS_POINTS,
};
use crate::StreamError;

/// Most updates buffered per session before the oldest are dropped; a
/// consumer further behind than this has effectively abandoned the stream.
pub const MAX_BUFFERED_UPDATES: usize = 1024;

/// One client-submitted mutation of the session's grid.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Add a per-core bandwidth delta point (GB/s). Adding a point already
    /// on the axis is a no-op.
    AddBandwidth(f64),
    /// Remove a bandwidth point. The point must exist and must not be the
    /// axis's last.
    RemoveBandwidth(f64),
    /// Add a latency step point (ns). Adding an existing point is a no-op.
    AddLatency(f64),
    /// Remove a latency point. The point must exist and must not be the
    /// axis's last.
    RemoveLatency(f64),
    /// Set one workload's mix weight (render-only: no cell re-solves).
    SetWeight {
        /// Index into the session's workload mix.
        workload: usize,
        /// New weight; finite and positive.
        weight: f64,
    },
    /// Replace the hardware configuration (re-solves every cell).
    SetSystem(SystemConfig),
    /// Apply all pending deltas now, regardless of the batching knob.
    Flush,
}

/// One per-batch output record: the canonical JSON body plus its sequence
/// number (also embedded in the body).
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Monotone per-session sequence number (0 = the opening full solve).
    pub seq: u64,
    /// Canonical JSON: `{cells_resolved, cells_skipped, changed, deltas,
    /// grid_cells, removed, seq}`.
    pub body: String,
}

/// What one `submit` call did, for the delta-POST acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitAck {
    /// Ops accepted by this call (including any `Flush`).
    pub accepted: usize,
    /// Batches the call caused to apply.
    pub applied_batches: usize,
    /// Delta ops actually applied (committed) across those batches.
    pub applied_deltas: u64,
    /// Cells re-solved across those batches.
    pub cells_resolved: u64,
    /// Cells those batches did not need to re-solve.
    pub cells_skipped: u64,
    /// Ops still pending (below the batching knob) after the call.
    pub pending: usize,
    /// Latest emitted update sequence number.
    pub seq: u64,
}

/// A failed `submit` call. Only the *offending batch* rolled back; batches
/// applied earlier in the same call stay applied, and `ack` records them —
/// callers surfacing the error must also surface (and account for) the
/// partial ack, or the client cannot tell that session state moved.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitError {
    /// What the call committed before failing (the failed batch's ops are
    /// dropped and are not counted).
    pub ack: SubmitAck,
    /// Why the offending batch rolled back.
    pub error: StreamError,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for StreamError {
    fn from(err: SubmitError) -> StreamError {
        err.error
    }
}

/// A sessionful incremental sweep evaluation (see module docs).
#[derive(Debug)]
pub struct Session {
    spec: GridSpec,
    cells: BTreeMap<CellKey, CellState>,
    /// Each cell's canonical render, kept in step with `cells`.
    rendered: BTreeMap<CellKey, String>,
    curve: QueueingCurve,
    batch: usize,
    pending: Vec<Delta>,
    next_seq: u64,
    updates: VecDeque<Update>,
    deltas_applied: u64,
    total_resolved: u64,
    total_skipped: u64,
}

impl Session {
    /// Opens a session: solves and renders the full grid once (the seq-0
    /// update). `batch` is the batching knob: pending deltas apply once at
    /// least that many have accumulated.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidDelta`] for a zero or oversized batch knob;
    /// [`StreamError::Model`] if any cell of the opening solve fails.
    pub fn open(spec: GridSpec, batch: usize) -> Result<Session, StreamError> {
        if batch == 0 || batch > MAX_AXIS_POINTS {
            return Err(StreamError::invalid("batch must be in 1..=4096"));
        }
        let curve = QueueingCurve::composite_default();
        let keys = spec.cell_keys();
        let states = executor::par_map("stream.open", keys.clone(), |key| {
            solve_cell(&spec, key, &curve)
        })?;

        let mut cells = BTreeMap::new();
        let mut rendered = BTreeMap::new();
        for (key, state) in keys.iter().copied().zip(states) {
            rendered.insert(key, cell_json(&spec, key, &state).canonical());
            cells.insert(key, state);
        }

        let resolved = cells.len() as u64;
        let mut session = Session {
            spec,
            cells,
            rendered,
            curve,
            batch,
            pending: Vec::new(),
            next_seq: 0,
            updates: VecDeque::new(),
            deltas_applied: 0,
            total_resolved: 0,
            total_skipped: 0,
        };
        let changed: Vec<CellKey> = session.cells.keys().copied().collect();
        session.emit_update(&changed, &BTreeSet::new(), resolved, 0, 0);
        session.total_resolved = resolved;
        Ok(session)
    }

    /// Submits a slice of deltas. Non-`Flush` ops join the pending buffer;
    /// whenever the buffer reaches the batching knob — or a `Flush`
    /// arrives with anything pending — the buffer applies as one batch.
    ///
    /// # Errors
    ///
    /// On an invalid op or a failed solve the offending batch rolls back
    /// (its ops are dropped, session state untouched); batches already
    /// applied by this call stay applied, and the returned [`SubmitError`]
    /// carries the partial ack describing them.
    pub fn submit(&mut self, ops: &[Delta]) -> Result<SubmitAck, SubmitError> {
        let mut ack = SubmitAck {
            accepted: 0,
            applied_batches: 0,
            applied_deltas: 0,
            cells_resolved: 0,
            cells_skipped: 0,
            pending: 0,
            seq: self.seq(),
        };
        for op in ops {
            ack.accepted += 1;
            let apply = match op {
                Delta::Flush => !self.pending.is_empty(),
                other => {
                    self.pending.push(other.clone());
                    self.pending.len() >= self.batch
                }
            };
            if apply {
                if let Err(error) = self.apply_pending(&mut ack) {
                    ack.pending = self.pending.len();
                    ack.seq = self.seq();
                    return Err(SubmitError { ack, error });
                }
            }
        }
        ack.pending = self.pending.len();
        ack.seq = self.seq();
        Ok(ack)
    }

    fn apply_pending(&mut self, ack: &mut SubmitAck) -> Result<(), StreamError> {
        let ops = std::mem::take(&mut self.pending);
        let deltas = ops.len() as u64;

        // All mutation below happens on scratch copies; `self` commits only
        // after every dirty cell has solved.
        let mut spec = self.spec.clone();
        let mut need_solve: BTreeSet<CellKey> = BTreeSet::new();
        let mut revalued: BTreeSet<CellKey> = BTreeSet::new();
        let mut removed: BTreeSet<CellKey> = BTreeSet::new();

        for op in &ops {
            match op {
                Delta::AddBandwidth(v) => add_axis_point(
                    Axis::Bandwidth,
                    *v,
                    &mut spec,
                    &mut need_solve,
                    &mut removed,
                )?,
                Delta::RemoveBandwidth(v) => remove_axis_point(
                    Axis::Bandwidth,
                    *v,
                    &mut spec,
                    &mut need_solve,
                    &mut revalued,
                    &mut removed,
                )?,
                Delta::AddLatency(v) => {
                    add_axis_point(Axis::Latency, *v, &mut spec, &mut need_solve, &mut removed)?
                }
                Delta::RemoveLatency(v) => remove_axis_point(
                    Axis::Latency,
                    *v,
                    &mut spec,
                    &mut need_solve,
                    &mut revalued,
                    &mut removed,
                )?,
                Delta::SetWeight { workload, weight } => {
                    let Some(entry) = spec.workloads.get_mut(*workload) else {
                        return Err(StreamError::invalid("workload index out of range"));
                    };
                    check_weight(*weight)?;
                    let weight = *weight + 0.0;
                    if entry.weight.to_bits() != weight.to_bits() {
                        entry.weight = weight;
                        // Weight is render-only: the workload's cells
                        // revalue, none re-solves.
                        revalued.extend(cross_keys(
                            *workload..*workload + 1,
                            &spec.bandwidth_deltas,
                            &spec.latency_steps_ns,
                        ));
                    }
                }
                Delta::SetSystem(system) => {
                    if spec.system != *system {
                        spec.system = system.clone();
                        need_solve.extend(spec.cell_keys());
                    }
                }
                // Flush never enters the pending buffer.
                // memsense-lint: allow(no-panic-in-lib) — submit() filters Flush out
                Delta::Flush => unreachable!("Flush is handled at submit time"),
            }
        }

        // Re-solve only the dirty cells; this is where the incremental win
        // materializes as cells_skipped.
        revalued.retain(|key| !need_solve.contains(key));
        let dirty: Vec<CellKey> = need_solve.iter().copied().collect();
        let solved = {
            let spec_ref = &spec;
            let curve = &self.curve;
            executor::par_map("stream.delta", dirty.clone(), |key| {
                solve_cell(spec_ref, key, curve)
            })?
        };

        // A point added and removed within this same batch never reached
        // the committed grid; reporting it as removed would tell the
        // client about cells it never saw. Filter before the commit below
        // erases the evidence of what was committed.
        removed.retain(|key| self.cells.contains_key(key));

        // Commit.
        self.spec = spec;
        for key in &removed {
            self.cells.remove(key);
            self.rendered.remove(key);
        }
        for (key, state) in dirty.iter().zip(solved) {
            self.cells.insert(*key, state);
        }

        // A cell counts as changed only if its canonical rendering moved.
        let mut changed = Vec::new();
        for key in need_solve.iter().chain(revalued.iter()) {
            // memsense-lint: allow(no-panic-in-lib) — need_solve/revalued cells survive removal by construction
            let state = self.cells.get(key).expect("dirty cell exists");
            let body = cell_json(&self.spec, *key, state).canonical();
            if self.rendered.get(key) != Some(&body) {
                self.rendered.insert(*key, body);
                changed.push(*key);
            }
        }
        changed.sort();

        let resolved = dirty.len() as u64;
        let skipped = self.cells.len() as u64 - resolved.min(self.cells.len() as u64);
        self.emit_update(&changed, &removed, resolved, skipped, deltas);
        self.deltas_applied += deltas;
        self.total_resolved += resolved;
        self.total_skipped += skipped;
        ack.applied_batches += 1;
        ack.applied_deltas += deltas;
        ack.cells_resolved += resolved;
        ack.cells_skipped += skipped;
        Ok(())
    }

    /// Emits one update. The body is canonical JSON written directly, keys
    /// in bytewise order, with each changed cell's stored canonical render
    /// spliced in as-is (a canonical document re-canonicalizes to itself,
    /// so this equals rendering the whole body as one tree).
    fn emit_update(
        &mut self,
        changed: &[CellKey],
        removed: &BTreeSet<CellKey>,
        resolved: u64,
        skipped: u64,
        deltas: u64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let changed: Vec<&str> = changed
            .iter()
            .filter_map(|key| self.rendered.get(key).map(String::as_str))
            .collect();
        let removed: Vec<String> = removed
            .iter()
            .map(|key| key.to_json().canonical())
            .collect();
        let capacity = changed.iter().map(|s| s.len() + 1).sum::<usize>()
            + removed.iter().map(|s| s.len() + 1).sum::<usize>()
            + 128;
        let mut body = String::with_capacity(capacity);
        push_count(&mut body, "{\"cells_resolved\":", resolved);
        push_count(&mut body, ",\"cells_skipped\":", skipped);
        push_array(&mut body, ",\"changed\":", &changed);
        push_count(&mut body, ",\"deltas\":", deltas);
        push_count(&mut body, ",\"grid_cells\":", self.cells.len() as u64);
        push_array(&mut body, ",\"removed\":", &removed);
        push_count(&mut body, ",\"seq\":", seq);
        body.push('}');
        if self.updates.len() == MAX_BUFFERED_UPDATES {
            self.updates.pop_front();
        }
        self.updates.push_back(Update { seq, body });
    }

    /// Drains the buffered per-batch updates, oldest first.
    pub fn take_updates(&mut self) -> Vec<Update> {
        self.updates.drain(..).collect()
    }

    /// The canonical JSON of the full current state — spec plus every cell
    /// — excluding sequence numbers. Two sessions whose grids evolved to
    /// the same spec render byte-identical snapshots, which is the
    /// incremental-equals-from-scratch contract the differential test
    /// pins.
    pub fn snapshot(&self) -> String {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|(key, state)| cell_json(&self.spec, *key, state))
            .collect();
        let workloads: Vec<Json> = self
            .spec
            .workloads
            .iter()
            .map(|entry| {
                Json::obj(vec![
                    ("name", Json::str(&entry.workload.name)),
                    ("weight", Json::num(entry.weight)),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "bandwidth_deltas",
                Json::Arr(
                    self.spec
                        .bandwidth_deltas
                        .iter()
                        .map(|&v| Json::num(v))
                        .collect(),
                ),
            ),
            ("cells", Json::Arr(cells)),
            (
                "latency_steps_ns",
                Json::Arr(
                    self.spec
                        .latency_steps_ns
                        .iter()
                        .map(|&v| Json::num(v))
                        .collect(),
                ),
            ),
            ("system", system_json(&self.spec.system)),
            ("workloads", Json::Arr(workloads)),
        ])
        .canonical()
    }

    /// The session's current (evolved) grid spec.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Latest emitted update sequence number.
    pub fn seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// The batching knob.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Cells currently materialized.
    pub fn grid_cells(&self) -> usize {
        self.cells.len()
    }

    /// Ops accepted but not yet applied.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime counters: (deltas applied, cells re-solved, cells skipped).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.deltas_applied, self.total_resolved, self.total_skipped)
    }
}

#[derive(Clone, Copy)]
enum Axis {
    Bandwidth,
    Latency,
}

/// Appends `prefix` and a count as a canonical JSON number.
fn push_count(body: &mut String, prefix: &str, count: u64) {
    body.push_str(prefix);
    write_f64(count as f64, body);
}

/// Appends `prefix` and a JSON array of already-rendered items.
fn push_array(body: &mut String, prefix: &str, items: &[impl AsRef<str>]) {
    body.push_str(prefix);
    body.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(item.as_ref());
    }
    body.push(']');
}

fn add_axis_point(
    axis: Axis,
    value: f64,
    spec: &mut GridSpec,
    need_solve: &mut BTreeSet<CellKey>,
    removed: &mut BTreeSet<CellKey>,
) -> Result<(), StreamError> {
    let value = normalize_axis_value(value)?;
    let points = match axis {
        Axis::Bandwidth => &mut spec.bandwidth_deltas,
        Axis::Latency => &mut spec.latency_steps_ns,
    };
    if points.iter().any(|p| p.to_bits() == value.to_bits()) {
        return Ok(());
    }
    if points.len() >= MAX_AXIS_POINTS {
        return Err(StreamError::invalid("axis is at its point cap"));
    }
    let pos = points.partition_point(|p| p.total_cmp(&value).is_lt());
    points.insert(pos, value);
    // `GridSpec::validated` bounds the total cell count at open; deltas
    // must not be a back door past it. `spec` is a scratch copy, so an
    // error here rolls the whole batch back.
    check_cell_cap(spec)?;

    for key in point_cells(axis, &value, spec) {
        removed.remove(&key);
        need_solve.insert(key);
    }
    Ok(())
}

fn remove_axis_point(
    axis: Axis,
    value: f64,
    spec: &mut GridSpec,
    need_solve: &mut BTreeSet<CellKey>,
    revalued: &mut BTreeSet<CellKey>,
    removed: &mut BTreeSet<CellKey>,
) -> Result<(), StreamError> {
    let value = normalize_axis_value(value)?;
    let points = match axis {
        Axis::Bandwidth => &mut spec.bandwidth_deltas,
        Axis::Latency => &mut spec.latency_steps_ns,
    };
    let Some(pos) = points.iter().position(|p| p.to_bits() == value.to_bits()) else {
        return Err(StreamError::invalid("axis point not in the grid"));
    };
    if points.len() == 1 {
        return Err(StreamError::invalid("cannot remove the last axis point"));
    }
    points.remove(pos);

    for key in point_cells(axis, &value, spec) {
        need_solve.remove(&key);
        revalued.remove(&key);
        removed.insert(key);
    }
    Ok(())
}

/// The cells on one axis point: every workload, the point itself, and every
/// point of the other axis.
fn point_cells<'a>(
    axis: Axis,
    value: &'a f64,
    spec: &'a GridSpec,
) -> impl Iterator<Item = CellKey> + 'a {
    let point = std::slice::from_ref(value);
    let workloads = 0..spec.workloads.len();
    match axis {
        Axis::Bandwidth => cross_keys(workloads, point, &spec.latency_steps_ns),
        Axis::Latency => cross_keys(workloads, &spec.bandwidth_deltas, point),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsense_model::workload::WorkloadParams;

    fn small_spec() -> GridSpec {
        let workloads = WorkloadParams::all_classes()
            .into_iter()
            .take(2)
            .map(|workload| crate::grid::MixEntry {
                workload,
                weight: 1.0,
            })
            .collect();
        GridSpec::validated(
            workloads,
            vec![0.0, -1.0],
            vec![0.0, 20.0],
            SystemConfig::paper_baseline(),
        )
        .unwrap()
    }

    #[test]
    fn open_emits_a_full_seq0_update() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        assert_eq!(session.grid_cells(), 8);
        let updates = session.take_updates();
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].seq, 0);
        let body = Json::parse(&updates[0].body).unwrap();
        // The spliced body is canonical: it re-canonicalizes to itself.
        assert_eq!(body.canonical(), updates[0].body);
        assert_eq!(body.get("cells_resolved").and_then(Json::as_u64), Some(8));
        assert_eq!(body.get("cells_skipped").and_then(Json::as_u64), Some(0));
        assert_eq!(
            body.get("changed")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(8)
        );
        assert!(session.take_updates().is_empty(), "drain empties the queue");
    }

    #[test]
    fn single_point_delta_resolves_only_its_row() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        session.take_updates();
        let ack = session.submit(&[Delta::AddBandwidth(-0.5)]).unwrap();
        // 2 workloads x 1 new bandwidth point x 2 latency steps = 4 cells.
        assert_eq!(ack.cells_resolved, 4);
        assert_eq!(ack.cells_skipped, 8);
        assert_eq!(session.grid_cells(), 12);
        assert_eq!(ack.seq, 1);
    }

    #[test]
    fn weight_tweak_revalues_without_resolving() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        session.take_updates();
        let ack = session
            .submit(&[Delta::SetWeight {
                workload: 0,
                weight: 2.5,
            }])
            .unwrap();
        assert_eq!(ack.cells_resolved, 0, "weights are render-only");
        assert_eq!(ack.cells_skipped, 8);
        let updates = session.take_updates();
        let body = Json::parse(&updates[0].body).unwrap();
        let changed = body.get("changed").and_then(Json::as_arr).unwrap();
        assert_eq!(changed.len(), 4, "only workload 0's cells change");
        for cell in changed {
            assert_eq!(cell.get("weight").and_then(Json::as_f64), Some(2.5));
        }
    }

    #[test]
    fn batching_knob_defers_until_full_and_flush_forces() {
        let mut session = Session::open(small_spec(), 3).unwrap();
        session.take_updates();
        let ack = session
            .submit(&[Delta::AddBandwidth(-0.5), Delta::AddBandwidth(-1.5)])
            .unwrap();
        assert_eq!(ack.applied_batches, 0);
        assert_eq!(ack.pending, 2);
        assert!(session.take_updates().is_empty());

        let ack = session.submit(&[Delta::Flush]).unwrap();
        assert_eq!(ack.applied_batches, 1);
        assert_eq!(ack.pending, 0);
        assert_eq!(ack.cells_resolved, 8, "both points solve in one batch");
        assert_eq!(session.take_updates().len(), 1);
    }

    #[test]
    fn add_then_remove_in_one_batch_is_a_wash() {
        // Batch knob 8: both ops pend until the flush applies them together.
        let mut session = Session::open(small_spec(), 8).unwrap();
        session.take_updates();
        let before = session.snapshot();
        let ack = session
            .submit(&[
                Delta::AddBandwidth(-0.5),
                Delta::RemoveBandwidth(-0.5),
                Delta::Flush,
            ])
            .unwrap();
        assert_eq!(session.snapshot(), before);
        assert_eq!(ack.cells_resolved, 0);
        // The washed point's cells never existed in the committed grid, so
        // the update must not report them as removed.
        let updates = session.take_updates();
        let body = Json::parse(&updates[0].body).unwrap();
        assert_eq!(
            body.get("removed")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0),
            "phantom removals leaked: {}",
            updates[0].body
        );
    }

    #[test]
    fn committed_point_removal_reports_its_cells() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        session.take_updates();
        session.submit(&[Delta::RemoveBandwidth(-1.0)]).unwrap();
        let updates = session.take_updates();
        let body = Json::parse(&updates[0].body).unwrap();
        assert_eq!(body.canonical(), updates[0].body);
        // 2 workloads × the removed bandwidth point × 2 latency steps.
        assert_eq!(
            body.get("removed")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(4),
            "{}",
            updates[0].body
        );
        assert_eq!(session.grid_cells(), 4);
    }

    #[test]
    fn failed_batch_rolls_back() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        session.take_updates();
        let before = session.snapshot();
        let err = session
            .submit(&[Delta::RemoveBandwidth(123.0)])
            .unwrap_err();
        assert!(matches!(err.error, StreamError::InvalidDelta(_)));
        assert_eq!(err.ack.applied_batches, 0, "nothing committed");
        assert_eq!(err.ack.applied_deltas, 0);
        assert_eq!(session.snapshot(), before, "state is untouched");
        assert_eq!(session.pending(), 0, "the failed batch's ops are dropped");
        assert!(session.take_updates().is_empty());
    }

    #[test]
    fn partial_failure_reports_the_batches_that_did_apply() {
        // Batch knob 1: the first op commits before the second one fails.
        let mut session = Session::open(small_spec(), 1).unwrap();
        session.take_updates();
        let err = session
            .submit(&[Delta::AddBandwidth(-0.5), Delta::RemoveBandwidth(42.0)])
            .unwrap_err();
        assert_eq!(err.ack.applied_batches, 1);
        assert_eq!(err.ack.applied_deltas, 1);
        assert_eq!(err.ack.cells_resolved, 4, "the committed add's cells");
        assert_eq!(err.ack.seq, 1, "the committed batch's update seq");
        assert_eq!(session.grid_cells(), 12, "the first op's cells persist");
        // The emitted update for the committed batch is still drainable.
        assert_eq!(session.take_updates().len(), 1);
    }

    #[test]
    fn axis_growth_past_the_cell_cap_is_rejected() {
        // Exercise `add_axis_point` directly on scratch structures: a spec
        // at exactly the cap (1 workload × 1000 × 1000) must reject one
        // more point without ever enumerating cells.
        let axis: Vec<f64> = (0..1000).map(f64::from).collect();
        let workloads = small_spec().workloads.into_iter().take(1).collect();
        let mut spec = GridSpec::validated(
            workloads,
            axis.clone(),
            axis,
            SystemConfig::paper_baseline(),
        )
        .unwrap();
        let mut need_solve = BTreeSet::new();
        let mut removed = BTreeSet::new();
        let err = add_axis_point(
            Axis::Bandwidth,
            -1.0,
            &mut spec,
            &mut need_solve,
            &mut removed,
        )
        .unwrap_err();
        assert!(
            matches!(&err, StreamError::InvalidDelta(m) if m.contains("cap")),
            "{err:?}"
        );
        assert!(need_solve.is_empty(), "no cells dirtied past the cap");
    }

    #[test]
    fn set_system_resolves_every_cell() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        session.take_updates();
        let system = SystemConfig::paper_baseline()
            .with_unloaded_latency(memsense_model::units::Nanoseconds(90.0))
            .unwrap();
        let ack = session.submit(&[Delta::SetSystem(system)]).unwrap();
        assert_eq!(ack.cells_resolved, 8);
        assert_eq!(ack.cells_skipped, 0);
    }

    #[test]
    fn noop_deltas_change_nothing() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        session.take_updates();
        let before = session.snapshot();
        // Existing point, identical weight, identical system: all no-ops.
        session.submit(&[Delta::AddBandwidth(0.0)]).unwrap();
        session
            .submit(&[Delta::SetWeight {
                workload: 1,
                weight: 1.0,
            }])
            .unwrap();
        session
            .submit(&[Delta::SetSystem(SystemConfig::paper_baseline())])
            .unwrap();
        assert_eq!(session.snapshot(), before);
        for update in session.take_updates() {
            let body = Json::parse(&update.body).unwrap();
            assert_eq!(body.get("cells_resolved").and_then(Json::as_u64), Some(0));
            assert_eq!(
                body.get("changed")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::len),
                Some(0)
            );
        }
    }

    #[test]
    fn removing_the_last_axis_point_is_rejected() {
        let spec = GridSpec::validated(
            small_spec().workloads,
            vec![0.0],
            vec![0.0, 20.0],
            SystemConfig::paper_baseline(),
        )
        .unwrap();
        let mut session = Session::open(spec, 1).unwrap();
        assert!(session.submit(&[Delta::RemoveBandwidth(0.0)]).is_err());
    }

    #[test]
    fn update_buffer_is_bounded() {
        let mut session = Session::open(small_spec(), 1).unwrap();
        for i in 0..(MAX_BUFFERED_UPDATES + 8) {
            // Alternate a weight between two values: every batch is real.
            let weight = if i % 2 == 0 { 2.0 } else { 3.0 };
            session
                .submit(&[Delta::SetWeight {
                    workload: 0,
                    weight,
                }])
                .unwrap();
        }
        let updates = session.take_updates();
        assert_eq!(updates.len(), MAX_BUFFERED_UPDATES);
        // Oldest dropped: the drained run still ends at the latest seq.
        assert_eq!(updates.last().unwrap().seq, session.seq());
    }
}
