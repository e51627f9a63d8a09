//! Delta-solve sessions: batched incremental evaluation over a grid.
//!
//! A [`Session`] owns one validated [`GridSpec`] and, per cell, its solved
//! state next to its canonical JSON render. Submitted [`Delta`] ops
//! accumulate in a pending buffer until the batching knob fires (or an
//! explicit [`Delta::Flush`] arrives). Applying a batch emits one
//! [`Update`] carrying the cells whose canonical render actually changed.
//!
//! **Dirtiness is recorded per parameter.** The ops apply in order to a
//! scratch spec and note only which parameters moved: bandwidth and latency
//! points they added, workloads whose weight they changed, and whether they
//! replaced the system. A grid is always the full cross product of its mix
//! and its two axes, so one pass over the final spec's cells in key order
//! reads off the two dirty lists: a cell *re-solves* (on the calling
//! thread) if the system moved or its bandwidth or latency point was added,
//! and otherwise *revalues* (re-renders from its stored state) if its
//! workload's weight moved. Committed cells whose points left the axes are
//! *removed*.
//!
//! Each cell is rendered straight to canonical bytes ([`render_cell`])
//! once per change. The render is stored beside the state, compared with
//! the previous one to decide whether the cell changed, and spliced as-is
//! into update and snapshot bodies.
//!
//! Batch application is **transactional**: all mutation happens on a
//! scratch spec and commits only if every dirty cell solves. On failure the
//! session keeps its previous state byte-for-byte (the failed batch's ops
//! are dropped, and the error tells the client why).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use memsense_experiments::json::{escape_str, write_f64};
use memsense_model::queueing::QueueingCurve;
use memsense_model::system::SystemConfig;

use crate::grid::{
    check_cell_cap, check_weight, normalize_axis_value, push_num, render_cell, solve_cell,
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
    /// Each cell's solved state and its canonical render.
    cells: BTreeMap<CellKey, (CellState, String)>,
    curve: QueueingCurve,
    batch: usize,
    pending: Vec<Edit>,
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
        let mut session = Session {
            spec,
            cells: BTreeMap::new(),
            curve: QueueingCurve::composite_default(),
            batch,
            pending: Vec::new(),
            next_seq: 0,
            updates: VecDeque::new(),
            deltas_applied: 0,
            total_resolved: 0,
            total_skipped: 0,
        };
        let keys = session.spec.cell_keys();
        let solved = session.solve(&session.spec, keys)?;
        let changed = session.commit(solved, Vec::new());
        let resolved = session.cells.len() as u64;
        session.emit_update(&changed, &[], resolved, 0, 0);
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
            let apply = match Edit::of(op) {
                Some(edit) => {
                    self.pending.push(edit);
                    self.pending.len() >= self.batch
                }
                None => !self.pending.is_empty(),
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
        let edits = std::mem::take(&mut self.pending);
        let deltas = edits.len() as u64;

        // The ops mutate a scratch spec and record only which parameters
        // moved; `self` commits after every dirty cell has solved.
        let mut spec = self.spec.clone();
        let mut added_bandwidth = Vec::new();
        let mut added_latency = Vec::new();
        let mut reweighted = vec![false; spec.workloads.len()];
        let mut system_moved = false;
        for edit in edits {
            match edit {
                Edit::Add(axis, value) => {
                    if let Some(point) = add_axis_point(axis, value, &mut spec)? {
                        match axis {
                            Axis::Bandwidth => added_bandwidth.push(point),
                            Axis::Latency => added_latency.push(point),
                        }
                    }
                }
                Edit::Remove(axis, value) => remove_axis_point(axis, value, &mut spec)?,
                Edit::Weight(workload, weight) => {
                    let Some(entry) = spec.workloads.get_mut(workload) else {
                        return Err(StreamError::invalid("workload index out of range"));
                    };
                    check_weight(weight)?;
                    let weight = weight + 0.0;
                    if entry.weight.to_bits() != weight.to_bits() {
                        entry.weight = weight;
                        reweighted[workload] = true;
                    }
                }
                Edit::System(system) => {
                    if spec.system != system {
                        spec.system = system;
                        system_moved = true;
                    }
                }
            }
        }

        // One pass over the final grid in key order: a cell re-solves if a
        // solver input moved (the system, or its own axis point is new) and
        // revalues if only its workload's render-only weight moved.
        let fresh_bandwidth = flags(&spec.bandwidth_deltas, |p| added_bandwidth.contains(&p));
        let fresh_latency = flags(&spec.latency_steps_ns, |p| added_latency.contains(&p));
        let mut resolve = Vec::new();
        let mut revalue = Vec::new();
        for (key, fresh) in flagged_cells(&spec, &fresh_bandwidth, &fresh_latency) {
            if system_moved || fresh {
                resolve.push(key);
            } else if reweighted[key.workload] {
                revalue.push(key);
            }
        }
        let resolved = resolve.len() as u64;
        let solved = self.solve(&spec, resolve)?;

        // Committed cells whose point left an axis. A point added and
        // removed within this batch never reached the committed grid, so
        // its cells are not reported.
        let gone = |old: &[f64], new: &[f64]| flags(old, |p| find(new, p).is_err());
        let gone_bandwidth = gone(&self.spec.bandwidth_deltas, &spec.bandwidth_deltas);
        let gone_latency = gone(&self.spec.latency_steps_ns, &spec.latency_steps_ns);
        let removed: Vec<CellKey> = flagged_cells(&self.spec, &gone_bandwidth, &gone_latency)
            .filter_map(|(key, flagged)| flagged.then_some(key))
            .collect();

        self.spec = spec;
        for key in &removed {
            self.cells.remove(key);
        }
        let changed = self.commit(solved, revalue);

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

    /// Solves `keys` against `spec` on the calling thread, pairing each key
    /// with its state; returns the first error in key order. Sessions run in
    /// parallel with each other on the server's worker pool, and a typical
    /// dirty set (tens to hundreds of cells) solves in less time than an
    /// executor dispatch would take to spread it.
    fn solve(
        &self,
        spec: &GridSpec,
        keys: Vec<CellKey>,
    ) -> Result<Vec<(CellKey, CellState)>, StreamError> {
        let curve = &self.curve;
        Ok(keys
            .into_iter()
            .map(|key| solve_cell(spec, key, curve).map(|state| (key, state)))
            .collect::<Result<_, _>>()?)
    }

    /// Stores the solved cells and re-renders them and the `revalue` cells
    /// against the committed spec. Returns the cells whose render moved (new
    /// cells included), in key order.
    fn commit(&mut self, solved: Vec<(CellKey, CellState)>, revalue: Vec<CellKey>) -> Vec<CellKey> {
        let mut changed = Vec::new();
        let mut scratch = String::new();
        let mut rerender = |key: CellKey, (state, render): &mut (CellState, String)| {
            scratch.clear();
            render_cell(&self.spec, key, state, &mut scratch);
            if *render != scratch {
                std::mem::swap(render, &mut scratch);
                changed.push(key);
            }
        };
        for (key, state) in solved {
            match self.cells.entry(key) {
                Entry::Vacant(slot) => rerender(key, slot.insert((state, String::new()))),
                Entry::Occupied(slot) => {
                    let cell = slot.into_mut();
                    cell.0 = state;
                    rerender(key, cell);
                }
            }
        }
        for key in revalue {
            if let Some(cell) = self.cells.get_mut(&key) {
                rerender(key, cell);
            }
        }
        // Re-solved and revalued cells are each in key order; `sort` merges
        // the two runs.
        changed.sort();
        changed
    }

    /// Emits one update. The body is canonical JSON written directly, keys
    /// in bytewise order, with each changed cell's stored canonical render
    /// spliced in as-is (a canonical document re-canonicalizes to itself,
    /// so this equals rendering the whole body as one tree).
    fn emit_update(
        &mut self,
        changed: &[CellKey],
        removed: &[CellKey],
        resolved: u64,
        skipped: u64,
        deltas: u64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let changed: Vec<&str> = changed
            .iter()
            .filter_map(|key| self.cells.get(key).map(|(_, render)| render.as_str()))
            .collect();
        let capacity =
            changed.iter().map(|s| s.len() + 1).sum::<usize>() + removed.len() * 96 + 128;
        let mut body = String::with_capacity(capacity);
        push_num(&mut body, "{\"cells_resolved\":", resolved as f64);
        push_num(&mut body, ",\"cells_skipped\":", skipped as f64);
        push_array(&mut body, ",\"changed\":", changed, |render, out| {
            out.push_str(render)
        });
        push_num(&mut body, ",\"deltas\":", deltas as f64);
        push_num(&mut body, ",\"grid_cells\":", self.cells.len() as f64);
        push_array(&mut body, ",\"removed\":", removed, CellKey::render);
        push_num(&mut body, ",\"seq\":", seq as f64);
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
    /// pins. Like an update, it is written directly with the stored cell
    /// renders spliced in.
    pub fn snapshot(&self) -> String {
        let spec = &self.spec;
        let capacity = self.cells.values().map(|(_, r)| r.len() + 1).sum::<usize>() + 1024;
        let mut out = String::with_capacity(capacity);
        let number = |v: &f64, out: &mut String| write_f64(*v, out);
        push_array(
            &mut out,
            "{\"bandwidth_deltas\":",
            &spec.bandwidth_deltas,
            number,
        );
        push_array(
            &mut out,
            ",\"cells\":",
            self.cells.values(),
            |(_, render), out| out.push_str(render),
        );
        push_array(
            &mut out,
            ",\"latency_steps_ns\":",
            &spec.latency_steps_ns,
            number,
        );
        out.push_str(",\"system\":");
        out.push_str(&system_json(&spec.system).canonical());
        push_array(
            &mut out,
            ",\"workloads\":",
            &spec.workloads,
            |entry, out| {
                out.push_str("{\"name\":");
                escape_str(&entry.workload.name, out);
                push_num(out, ",\"weight\":", entry.weight);
                out.push('}');
            },
        );
        out.push('}');
        out
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

/// A buffered op: every [`Delta`] but `Flush`, which never buffers.
#[derive(Debug)]
enum Edit {
    Add(Axis, f64),
    Remove(Axis, f64),
    Weight(usize, f64),
    System(SystemConfig),
}

impl Edit {
    /// The edit `delta` makes; `None` for `Flush`.
    fn of(delta: &Delta) -> Option<Edit> {
        Some(match delta {
            Delta::AddBandwidth(v) => Edit::Add(Axis::Bandwidth, *v),
            Delta::RemoveBandwidth(v) => Edit::Remove(Axis::Bandwidth, *v),
            Delta::AddLatency(v) => Edit::Add(Axis::Latency, *v),
            Delta::RemoveLatency(v) => Edit::Remove(Axis::Latency, *v),
            Delta::SetWeight { workload, weight } => Edit::Weight(*workload, *weight),
            Delta::SetSystem(system) => Edit::System(system.clone()),
            Delta::Flush => return None,
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum Axis {
    Bandwidth,
    Latency,
}

impl Axis {
    fn points(self, spec: &mut GridSpec) -> &mut Vec<f64> {
        match self {
            Axis::Bandwidth => &mut spec.bandwidth_deltas,
            Axis::Latency => &mut spec.latency_steps_ns,
        }
    }
}

/// Where `value` is, or would be inserted, on the sorted axis `points`.
fn find(points: &[f64], value: f64) -> Result<usize, usize> {
    points.binary_search_by(|p| p.total_cmp(&value))
}

/// One flag per point of `points`: whether `flagged` holds for it.
fn flags(points: &[f64], flagged: impl Fn(f64) -> bool) -> Vec<bool> {
    points.iter().map(|&p| flagged(p)).collect()
}

/// Every cell key of `spec` in key order, paired with whether its bandwidth
/// or its latency point is flagged (`bandwidth` and `latency` run parallel
/// to the spec's axes).
fn flagged_cells<'a>(
    spec: &'a GridSpec,
    bandwidth: &'a [bool],
    latency: &'a [bool],
) -> impl Iterator<Item = (CellKey, bool)> + 'a {
    let (bw_axis, lat_axis) = (&spec.bandwidth_deltas, &spec.latency_steps_ns);
    (0..spec.workloads.len()).flat_map(move |workload| {
        (0..bw_axis.len()).flat_map(move |i| {
            (0..lat_axis.len()).map(move |j| {
                let key = CellKey::new(workload, bw_axis[i], lat_axis[j]);
                (key, bandwidth[i] || latency[j])
            })
        })
    })
}

/// Appends `prefix` and a JSON array of `items`, each written by `write`.
fn push_array<T>(
    body: &mut String,
    prefix: &str,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(T, &mut String),
) {
    body.push_str(prefix);
    body.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write(item, body);
    }
    body.push(']');
}

/// Inserts `value` into its axis; the normalized point, or `None` if it was
/// already there.
fn add_axis_point(axis: Axis, value: f64, spec: &mut GridSpec) -> Result<Option<f64>, StreamError> {
    let value = normalize_axis_value(value)?;
    let points = axis.points(spec);
    let Err(pos) = find(points, value) else {
        return Ok(None);
    };
    if points.len() >= MAX_AXIS_POINTS {
        return Err(StreamError::invalid("axis is at its point cap"));
    }
    points.insert(pos, value);
    // `GridSpec::validated` bounds the total cell count at open; deltas
    // must not be a back door past it. `spec` is a scratch copy, so an
    // error here rolls the whole batch back.
    check_cell_cap(spec)?;
    Ok(Some(value))
}

fn remove_axis_point(axis: Axis, value: f64, spec: &mut GridSpec) -> Result<(), StreamError> {
    let value = normalize_axis_value(value)?;
    let points = axis.points(spec);
    let Ok(pos) = find(points, value) else {
        return Err(StreamError::invalid("axis point not in the grid"));
    };
    if points.len() == 1 {
        return Err(StreamError::invalid("cannot remove the last axis point"));
    }
    points.remove(pos);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsense_experiments::json::Json;
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
        let err = add_axis_point(Axis::Bandwidth, -1.0, &mut spec).unwrap_err();
        assert!(
            matches!(&err, StreamError::InvalidDelta(m) if m.contains("cap")),
            "{err:?}"
        );
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
