//! JSON request/response conversion over the calibrated model.
//!
//! Each handler takes a parsed request body ([`Json`]) and returns either a
//! response [`Json`] or an [`ApiError`] carrying an HTTP status. All numeric
//! output goes through the shared canonical float formatter
//! (`memsense_experiments::json`), so responses are reproducible
//! byte-for-byte and never contain NaN/infinity literals.
//!
//! Request schemas (all fields optional unless noted):
//!
//! * `workload` — a name (`"big data"`, `"spark"`, …, resolved by
//!   [`WorkloadParams::by_name`]) or an object
//!   `{name, segment, cpi_cache*, bf*, mpki*, wbr*, iopi, iosz}` (`*` =
//!   required). Defaults to the big data class.
//! * `workloads` — an array of the above. Defaults to the three Tab. 6
//!   workload classes.
//! * `system` — overrides on the paper baseline:
//!   `{sockets, cores_per_socket, threads_per_core, core_clock_ghz,
//!   channels_per_socket, channel_mega_transfers, efficiency,
//!   unloaded_latency_ns}`.
//! * `deltas` (bandwidth sweep) / `steps_ns` (latency sweep) — the sweep
//!   axis; defaults to the paper's Fig. 8 / Fig. 10 axes.
//! * `tag` — opaque client value, echoed nowhere but part of the cache key
//!   (use a unique tag to force a cold solve).
//!
//! Unknown fields are rejected with a 400 so typos cannot silently fall
//! back to defaults.

use memsense_experiments::executor;
use memsense_experiments::json::Json;
use memsense_model::queueing::QueueingCurve;
use memsense_model::sensitivity::{
    bandwidth_sweep, default_bandwidth_deltas, default_latency_steps, equivalence, latency_sweep,
    SweepPoint,
};
use memsense_model::solver::{solve_cpi, Regime, SolvedCpi};
use memsense_model::system::SystemConfig;
use memsense_model::units::{GigaHertz, Nanoseconds};
use memsense_model::workload::{Segment, WorkloadParams};
use memsense_model::ModelError;
use memsense_plan::spec::PlanSpec;
use memsense_plan::PlanError;
use memsense_stream::grid::{GridSpec, MixEntry};
use memsense_stream::session::Delta;
use memsense_stream::StreamError;

/// Most workloads accepted in one sweep/equivalence request.
pub const MAX_WORKLOADS: usize = 256;

/// Most points accepted on one sweep axis.
pub const MAX_AXIS_POINTS: usize = 4096;

/// A request that could not be served, with the HTTP status to report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (4xx for caller mistakes, 5xx otherwise).
    pub status: u16,
    /// Human-readable explanation, returned as `{"error": …}`.
    pub message: String,
    /// Dotted path of the offending request field, when one is known
    /// (plan-spec validation); rendered as a `"field"` key in the body.
    pub field: Option<String>,
}

impl ApiError {
    /// A 400 Bad Request.
    pub fn bad(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
            field: None,
        }
    }

    /// A 400 Bad Request that names the offending field.
    pub fn bad_field(field: impl Into<String>, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
            field: Some(field.into()),
        }
    }

    /// Renders the JSON error body for this error.
    pub fn body(&self) -> String {
        match &self.field {
            None => error_body(&self.message),
            Some(field) => Json::obj(vec![
                ("error", Json::str(&self.message)),
                ("field", Json::str(field)),
            ])
            .to_string(),
        }
    }
}

/// The JSON error body used for every non-2xx response.
pub fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::str(message))]).to_string()
}

fn model_err(e: ModelError) -> ApiError {
    ApiError::bad(format!("model error: {e}"))
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// Rejects bodies that are not objects and object keys outside `allowed`.
fn check_keys(body: &Json, allowed: &[&str]) -> Result<(), ApiError> {
    let Json::Obj(fields) = body else {
        return Err(ApiError::bad("request body must be a JSON object"));
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::bad(format!(
                "unknown field {key:?} (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn need_f64(obj: &Json, key: &str) -> Result<f64, ApiError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::bad(format!("field {key:?} must be a number")))
}

fn opt_f64(obj: &Json, key: &str, default: f64) -> Result<f64, ApiError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ApiError::bad(format!("field {key:?} must be a number"))),
    }
}

fn opt_u32(obj: &Json, key: &str, default: u32) -> Result<u32, ApiError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| ApiError::bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

fn parse_workload_value(value: &Json) -> Result<WorkloadParams, ApiError> {
    match value {
        Json::Str(name) => WorkloadParams::by_name(name)
            .ok_or_else(|| ApiError::bad(format!("unknown workload {name:?}"))),
        Json::Obj(_) => {
            check_keys(
                value,
                &[
                    "name",
                    "segment",
                    "cpi_cache",
                    "bf",
                    "mpki",
                    "wbr",
                    "iopi",
                    "iosz",
                ],
            )?;
            let name = match value.get("name") {
                None => "custom",
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| ApiError::bad("field \"name\" must be a string"))?,
            };
            let segment = match value.get("segment") {
                None => Segment::BigData,
                Some(v) => v.as_str().and_then(Segment::from_token).ok_or_else(|| {
                    ApiError::bad(
                        "field \"segment\" must be \"big_data\", \"enterprise\", or \"hpc\"",
                    )
                })?,
            };
            let workload = WorkloadParams::new(
                name,
                segment,
                need_f64(value, "cpi_cache")?,
                need_f64(value, "bf")?,
                need_f64(value, "mpki")?,
                need_f64(value, "wbr")?,
            )
            .map_err(model_err)?;
            if value.get("iopi").is_some() || value.get("iosz").is_some() {
                workload
                    .with_io(opt_f64(value, "iopi", 0.0)?, opt_f64(value, "iosz", 0.0)?)
                    .map_err(model_err)
            } else {
                Ok(workload)
            }
        }
        _ => Err(ApiError::bad(
            "\"workload\" must be a workload name or a parameter object",
        )),
    }
}

fn parse_workload(body: &Json) -> Result<WorkloadParams, ApiError> {
    match body.get("workload") {
        None => Ok(WorkloadParams::big_data_class()),
        Some(v) => parse_workload_value(v),
    }
}

fn parse_workloads(body: &Json) -> Result<Vec<WorkloadParams>, ApiError> {
    match body.get("workloads") {
        None => Ok(WorkloadParams::all_classes()),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| ApiError::bad("field \"workloads\" must be an array"))?;
            if items.is_empty() {
                return Err(ApiError::bad("field \"workloads\" must not be empty"));
            }
            if items.len() > MAX_WORKLOADS {
                return Err(ApiError::bad(format!(
                    "field \"workloads\" accepts at most {MAX_WORKLOADS} entries"
                )));
            }
            items.iter().map(parse_workload_value).collect()
        }
    }
}

fn parse_system(body: &Json) -> Result<SystemConfig, ApiError> {
    let base = SystemConfig::paper_baseline();
    let overrides = match body.get("system") {
        None => return Ok(base),
        Some(v) => v,
    };
    check_keys(
        overrides,
        &[
            "sockets",
            "cores_per_socket",
            "threads_per_core",
            "core_clock_ghz",
            "channels_per_socket",
            "channel_mega_transfers",
            "efficiency",
            "unloaded_latency_ns",
        ],
    )?;
    SystemConfig::new(
        opt_u32(overrides, "sockets", base.sockets())?,
        opt_u32(overrides, "cores_per_socket", base.cores() / base.sockets())?,
        opt_u32(
            overrides,
            "threads_per_core",
            base.hardware_threads() / base.cores(),
        )?,
        GigaHertz(opt_f64(
            overrides,
            "core_clock_ghz",
            base.core_clock().value(),
        )?),
        opt_u32(
            overrides,
            "channels_per_socket",
            base.channels() / base.sockets(),
        )?,
        opt_f64(
            overrides,
            "channel_mega_transfers",
            base.channel_mega_transfers(),
        )?,
        opt_f64(overrides, "efficiency", base.efficiency())?,
        Nanoseconds(opt_f64(
            overrides,
            "unloaded_latency_ns",
            base.unloaded_latency().value(),
        )?),
    )
    .map_err(model_err)
}

fn parse_axis(body: &Json, key: &str, default: Vec<f64>) -> Result<Vec<f64>, ApiError> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => {
            let items = v.as_arr().ok_or_else(|| {
                ApiError::bad(format!("field {key:?} must be an array of numbers"))
            })?;
            if items.is_empty() {
                return Err(ApiError::bad(format!("field {key:?} must not be empty")));
            }
            if items.len() > MAX_AXIS_POINTS {
                return Err(ApiError::bad(format!(
                    "field {key:?} accepts at most {MAX_AXIS_POINTS} points"
                )));
            }
            items
                .iter()
                .map(|p| {
                    p.as_f64().ok_or_else(|| {
                        ApiError::bad(format!("field {key:?} must contain only numbers"))
                    })
                })
                .collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn system_json(system: &SystemConfig) -> Json {
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
        (
            "peak_bandwidth_gbps",
            Json::num(system.peak_bandwidth().value()),
        ),
        (
            "effective_bandwidth_gbps",
            Json::num(system.effective_bandwidth().value()),
        ),
        (
            "bandwidth_per_core_gbps",
            Json::num(system.bandwidth_per_core().value()),
        ),
    ])
}

fn solved_json(workload: &WorkloadParams, system: &SystemConfig, solved: &SolvedCpi) -> Json {
    let stack = solved.cpi_stack(workload, system);
    Json::obj(vec![
        ("cpi_eff", Json::num(solved.cpi_eff)),
        ("miss_penalty_ns", Json::num(solved.miss_penalty.value())),
        (
            "miss_penalty_cycles",
            Json::num(solved.miss_penalty_cycles.value()),
        ),
        (
            "queueing_delay_ns",
            Json::num(solved.queueing_delay.value()),
        ),
        (
            "bandwidth_demand_gbps",
            Json::num(solved.bandwidth_demand.value()),
        ),
        ("utilization", Json::num(solved.utilization)),
        ("regime", Json::str(solved.regime.token())),
        ("iterations", Json::num(solved.iterations as f64)),
        (
            "cpi_stack",
            Json::obj(vec![
                ("cpi_cache", Json::num(stack.cpi_cache)),
                ("compulsory_stall", Json::num(stack.compulsory_stall)),
                ("queueing_stall", Json::num(stack.queueing_stall)),
                ("bandwidth_residual", Json::num(stack.bandwidth_residual)),
                ("total", Json::num(stack.total())),
                ("memory_fraction", Json::num(stack.memory_fraction())),
            ]),
        ),
    ])
}

fn point_json(point: &SweepPoint) -> Json {
    Json::obj(vec![
        ("delta", Json::num(point.delta)),
        (
            "bandwidth_per_core_gbps",
            Json::num(point.bandwidth_per_core),
        ),
        ("unloaded_latency_ns", Json::num(point.unloaded_latency_ns)),
        ("cpi", Json::num(point.solved.cpi_eff)),
        ("cpi_ratio", Json::num(point.cpi_ratio)),
        ("cpi_increase_pct", Json::num(point.cpi_increase_pct())),
        ("utilization", Json::num(point.solved.utilization)),
        ("regime", Json::str(point.solved.regime.token())),
    ])
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

/// `POST /v1/solve` — one fixed-point solve with regime and CPI stack.
///
/// # Errors
///
/// [`ApiError`] (400) for malformed requests or infeasible parameters.
pub fn solve(body: &Json) -> Result<Json, ApiError> {
    check_keys(body, &["workload", "system", "tag"])?;
    let workload = parse_workload(body)?;
    let system = parse_system(body)?;
    let curve = QueueingCurve::composite_default();
    let solved = solve_cpi(&workload, &system, &curve).map_err(model_err)?;
    Ok(Json::obj(vec![
        ("workload", Json::str(&workload.name)),
        ("segment", Json::str(workload.segment.token())),
        ("system", system_json(&system)),
        ("solved", solved_json(&workload, &system, &solved)),
    ]))
}

/// Which axis a sweep request walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Fig. 8: per-core bandwidth deltas (GB/s, negative = reduction).
    Bandwidth,
    /// Fig. 10: added compulsory latency (ns).
    Latency,
}

/// `POST /v1/sweep/{bandwidth,latency}` — Fig. 8 / Fig. 10-style sweeps,
/// fanned over the requested workloads through the shared parallel executor.
///
/// # Errors
///
/// [`ApiError`] (400) for malformed requests or infeasible sweep points.
pub fn sweep(kind: SweepKind, body: &Json) -> Result<Json, ApiError> {
    let (axis_key, axis_default, label, kind_name) = match kind {
        SweepKind::Bandwidth => (
            "deltas",
            default_bandwidth_deltas(),
            "serve.sweep.bandwidth",
            "bandwidth",
        ),
        SweepKind::Latency => (
            "steps_ns",
            default_latency_steps(),
            "serve.sweep.latency",
            "latency",
        ),
    };
    check_keys(body, &["workloads", "system", axis_key, "tag"])?;
    let workloads = parse_workloads(body)?;
    let system = parse_system(body)?;
    let axis = parse_axis(body, axis_key, axis_default)?;
    let curve = QueueingCurve::composite_default();

    let results = executor::par_map(label, workloads, |workload| {
        let baseline = solve_cpi(&workload, &system, &curve)?;
        let points = match kind {
            SweepKind::Bandwidth => bandwidth_sweep(&workload, &system, &curve, &axis),
            SweepKind::Latency => latency_sweep(&workload, &system, &curve, &axis),
        }?;
        Ok::<_, ModelError>((workload, baseline, points))
    })
    .map_err(model_err)?;

    let workloads_json: Vec<Json> = results
        .iter()
        .map(|(workload, baseline, points)| {
            Json::obj(vec![
                ("workload", Json::str(&workload.name)),
                ("segment", Json::str(workload.segment.token())),
                ("baseline_cpi", Json::num(baseline.cpi_eff)),
                ("points", Json::Arr(points.iter().map(point_json).collect())),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("sweep", Json::str(kind_name)),
        ("system", system_json(&system)),
        (
            axis_key,
            Json::Arr(axis.iter().map(|&v| Json::num(v)).collect()),
        ),
        ("workloads", Json::Arr(workloads_json)),
    ]))
}

/// `POST /v1/equivalence` — Tab. 7 latency ⇄ bandwidth equivalences.
///
/// # Errors
///
/// [`ApiError`] (400) for malformed requests or solver failures.
pub fn equivalence_endpoint(body: &Json) -> Result<Json, ApiError> {
    check_keys(body, &["workloads", "system", "tag"])?;
    let workloads = parse_workloads(body)?;
    let system = parse_system(body)?;
    let curve = QueueingCurve::composite_default();

    let results = executor::par_map("serve.equivalence", workloads, |workload| {
        equivalence(&workload, &system, &curve).map(|eq| (workload, eq))
    })
    .map_err(model_err)?;

    let rows: Vec<Json> = results
        .iter()
        .map(|(workload, eq)| {
            let opt = |v: Option<f64>| v.map(Json::num).unwrap_or(Json::Null);
            Json::obj(vec![
                ("workload", Json::str(&workload.name)),
                ("segment", Json::str(workload.segment.token())),
                (
                    "benefit_of_bandwidth_pct",
                    Json::num(eq.benefit_of_bandwidth_pct),
                ),
                (
                    "benefit_of_latency_pct",
                    Json::num(eq.benefit_of_latency_pct),
                ),
                (
                    "bandwidth_equivalent_of_10ns_gbps",
                    opt(eq.bandwidth_equivalent_of_10ns),
                ),
                (
                    "latency_equivalent_of_bandwidth_ns",
                    opt(eq.latency_equivalent_of_bandwidth),
                ),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("system", system_json(&system)),
        ("workloads", Json::Arr(rows)),
    ]))
}

struct CapacityOption {
    label: String,
    channels: u32,
    mega_transfers: f64,
    relative_cost: f64,
}

fn default_capacity_options() -> Vec<CapacityOption> {
    let mk = |label: &str, channels, mega_transfers, relative_cost| CapacityOption {
        label: label.to_string(),
        channels,
        mega_transfers,
        relative_cost,
    };
    vec![
        mk("2ch DDR3-1333", 2, 1333.0, 0.6),
        mk("2ch DDR3-1867", 2, 1866.7, 0.7),
        mk("4ch DDR3-1333", 4, 1333.0, 0.85),
        mk("4ch DDR3-1867", 4, 1866.7, 1.0),
        mk("6ch DDR3-1867", 6, 1866.7, 1.25),
        mk("8ch DDR3-1867", 8, 1866.7, 1.5),
    ]
}

fn parse_capacity_options(body: &Json) -> Result<Vec<CapacityOption>, ApiError> {
    let Some(value) = body.get("options") else {
        return Ok(default_capacity_options());
    };
    let items = value
        .as_arr()
        .ok_or_else(|| ApiError::bad("field \"options\" must be an array"))?;
    if items.is_empty() {
        return Err(ApiError::bad("field \"options\" must not be empty"));
    }
    if items.len() > MAX_WORKLOADS {
        return Err(ApiError::bad(format!(
            "field \"options\" accepts at most {MAX_WORKLOADS} entries"
        )));
    }
    items
        .iter()
        .map(|item| {
            check_keys(
                item,
                &["label", "channels", "mega_transfers", "relative_cost"],
            )?;
            let channels = opt_u32(item, "channels", 0)?;
            if channels == 0 {
                return Err(ApiError::bad(
                    "each option needs a positive \"channels\" count",
                ));
            }
            let mega_transfers = need_f64(item, "mega_transfers")?;
            let label = match item.get("label") {
                // The default label reaches response bodies (and thus cache
                // keys), so the float must go through the canonical
                // formatter: a bare `{}` would render -0.0 and 0.0
                // differently and split otherwise-identical requests.
                None => {
                    let mts = memsense_experiments::json::fmt_f64(mega_transfers);
                    format!("{channels}ch @{mts} MT/s")
                }
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| ApiError::bad("field \"label\" must be a string"))?
                    .to_string(),
            };
            Ok(CapacityOption {
                label,
                channels,
                mega_transfers,
                relative_cost: opt_f64(item, "relative_cost", 1.0)?,
            })
        })
        .collect()
}

/// `POST /v1/capacity` — capacity planning: solve each candidate memory
/// configuration for the workload, report throughput, the knee where the
/// bandwidth wall lifts, and the cheapest option within `within_pct` of peak.
///
/// # Errors
///
/// [`ApiError`] (400) for malformed requests or infeasible configurations.
pub fn capacity(body: &Json) -> Result<Json, ApiError> {
    check_keys(
        body,
        &["workload", "system", "options", "within_pct", "tag"],
    )?;
    let workload = parse_workload(body)?;
    let system = parse_system(body)?;
    let options = parse_capacity_options(body)?;
    let within_pct = opt_f64(body, "within_pct", 5.0)?;
    if !(0.0..=100.0).contains(&within_pct) {
        return Err(ApiError::bad(
            "field \"within_pct\" must be between 0 and 100",
        ));
    }
    let curve = QueueingCurve::composite_default();

    let results = executor::par_map("serve.capacity", options, |opt| {
        let sys = system
            .clone()
            .with_channels(opt.channels)?
            .with_channel_speed(opt.mega_transfers)?;
        let solved = solve_cpi(&workload, &sys, &curve)?;
        // Relative throughput in G instructions/s across hardware threads.
        let throughput = sys.hardware_threads() as f64 * sys.core_clock().value() / solved.cpi_eff;
        Ok::<_, ModelError>((opt, sys, solved, throughput))
    })
    .map_err(model_err)?;

    let best = results
        .iter()
        .map(|(_, _, _, t)| *t)
        .fold(f64::MIN, f64::max);
    let knee = results
        .iter()
        .find(|(_, _, solved, _)| solved.regime != Regime::BandwidthBound)
        .map(|(opt, _, _, _)| Json::str(&opt.label))
        .unwrap_or(Json::Null);
    let pick = results
        .iter()
        .filter(|(_, _, _, t)| *t >= (1.0 - within_pct / 100.0) * best)
        .min_by(|a, b| a.0.relative_cost.total_cmp(&b.0.relative_cost));

    let options_json: Vec<Json> = results
        .iter()
        .map(|(opt, sys, solved, throughput)| {
            Json::obj(vec![
                ("label", Json::str(&opt.label)),
                ("channels", Json::num(opt.channels as f64)),
                ("mega_transfers", Json::num(opt.mega_transfers)),
                ("relative_cost", Json::num(opt.relative_cost)),
                (
                    "effective_bandwidth_gbps",
                    Json::num(sys.effective_bandwidth().value()),
                ),
                (
                    "bandwidth_demand_gbps",
                    Json::num(solved.bandwidth_demand.value()),
                ),
                ("cpi", Json::num(solved.cpi_eff)),
                ("utilization", Json::num(solved.utilization)),
                ("regime", Json::str(solved.regime.token())),
                ("throughput_gips", Json::num(*throughput)),
                (
                    "perf_per_cost",
                    Json::num(throughput / best / opt.relative_cost),
                ),
            ])
        })
        .collect();

    Ok(Json::obj(vec![
        ("workload", Json::str(&workload.name)),
        ("segment", Json::str(workload.segment.token())),
        ("system", system_json(&system)),
        ("within_pct", Json::num(within_pct)),
        ("best_throughput_gips", Json::num(best)),
        ("options", Json::Arr(options_json)),
        ("knee", knee),
        (
            "recommendation",
            pick.map(|(opt, _, _, throughput)| {
                Json::obj(vec![
                    ("label", Json::str(&opt.label)),
                    ("relative_cost", Json::num(opt.relative_cost)),
                    ("throughput_gips", Json::num(*throughput)),
                ])
            })
            .unwrap_or(Json::Null),
        ),
    ]))
}

/// `POST /v1/plan` — fleet-scale capacity planning: design-space search
/// over a hardware menu against a traffic mix and per-class SLAs, returning
/// the cost-ranked plan body from `memsense-plan` (`report::plan_json`).
///
/// The request body is a plan spec (`traffic`, `sla`, `hardware`,
/// `colocate`, `node`) plus the usual opaque `tag`; an empty body plans the
/// worked example mix. Spec-validation failures carry the offending field
/// path in the error body: `{"error": …, "field": …}`.
///
/// # Errors
///
/// [`ApiError`] (400) for malformed requests, invalid specs, or candidate
/// evaluations the model rejects.
pub fn plan_endpoint(body: &Json) -> Result<Json, ApiError> {
    check_keys(
        body,
        &["traffic", "sla", "hardware", "colocate", "node", "tag"],
    )?;
    // `tag` is serve-level (a cache-key salt); the spec parser does not know
    // it, so strip it before handing the object over.
    let spec_body = match body {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(key, _)| key != "tag")
                .cloned()
                .collect(),
        ),
        _ => body.clone(),
    };
    let spec = if matches!(&spec_body, Json::Obj(fields) if fields.is_empty()) {
        PlanSpec::example()
    } else {
        PlanSpec::from_json(&spec_body).map_err(plan_err)?
    };
    let plan = memsense_plan::planner::plan(&spec).map_err(plan_err)?;
    let body = memsense_plan::report::plan_json(&plan);
    // The wire writes `Json::to_string` (insertion order); re-parse the
    // canonical form so the served bytes equal the `memsense-plan --out`
    // and repro-stage plan.json bodies exactly, not just semantically.
    Json::parse(&body.canonical()).map_err(|e| ApiError {
        status: 500,
        message: format!("plan body failed to round-trip: {e}"),
        field: None,
    })
}

fn plan_err(e: PlanError) -> ApiError {
    match e {
        PlanError::Spec { field, message } => ApiError::bad_field(field, message),
        PlanError::Model(e) => model_err(e),
    }
}

// ---------------------------------------------------------------------------
// Stream sessions
// ---------------------------------------------------------------------------

fn stream_err(e: StreamError) -> ApiError {
    match e {
        StreamError::InvalidDelta(message) => ApiError::bad(message),
        StreamError::Model(e) => model_err(e),
    }
}

/// Parses `POST /v1/stream/open`: the initial grid spec plus the batching
/// knob. Fields: `workloads` (default: the three Tab. 6 classes),
/// `weights` (parallel array, default all 1.0), `deltas`/`steps_ns` (the
/// two sweep axes, paper defaults), `system` (paper-baseline overrides),
/// `batch` (default 1).
///
/// # Errors
///
/// [`ApiError`] (400) for malformed bodies or invalid grid specs —
/// including grids whose *total* cell count (workloads × bandwidth ×
/// latency) exceeds [`memsense_stream::grid::MAX_GRID_CELLS`]; the
/// per-axis caps alone would admit products large enough to abort the
/// daemon on allocation.
pub fn stream_open(body: &Json) -> Result<(GridSpec, usize), ApiError> {
    check_keys(
        body,
        &[
            "workloads",
            "weights",
            "deltas",
            "steps_ns",
            "system",
            "batch",
        ],
    )?;
    let workloads = parse_workloads(body)?;
    let weights = match body.get("weights") {
        None => vec![1.0; workloads.len()],
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| ApiError::bad("field \"weights\" must be an array of numbers"))?;
            if items.len() != workloads.len() {
                return Err(ApiError::bad(format!(
                    "field \"weights\" must have one entry per workload ({} != {})",
                    items.len(),
                    workloads.len()
                )));
            }
            items
                .iter()
                .map(|w| {
                    w.as_f64()
                        .ok_or_else(|| ApiError::bad("field \"weights\" must contain only numbers"))
                })
                .collect::<Result<Vec<f64>, ApiError>>()?
        }
    };
    let mix = workloads
        .into_iter()
        .zip(weights)
        .map(|(workload, weight)| MixEntry { workload, weight })
        .collect();
    let deltas = parse_axis(body, "deltas", default_bandwidth_deltas())?;
    let steps = parse_axis(body, "steps_ns", default_latency_steps())?;
    let system = parse_system(body)?;
    let batch = opt_u32(body, "batch", 1)? as usize;
    if batch == 0 || batch > MAX_AXIS_POINTS {
        return Err(ApiError::bad(format!(
            "field \"batch\" must be in 1..={MAX_AXIS_POINTS}"
        )));
    }
    let spec = GridSpec::validated(mix, deltas, steps, system).map_err(stream_err)?;
    Ok((spec, batch))
}

/// Parses `POST /v1/stream/{id}/delta`: `{"deltas": [op, …]}` where each op
/// is an object tagged by `"op"`:
///
/// * `{"op": "add_bandwidth", "delta": x}` / `{"op": "remove_bandwidth",
///   "delta": x}` — per-core GB/s points on the bandwidth axis,
/// * `{"op": "add_latency", "step_ns": x}` / `{"op": "remove_latency",
///   "step_ns": x}` — added-latency points,
/// * `{"op": "set_weight", "workload": i, "weight": w}` — one mix weight,
/// * `{"op": "set_system", "system": {…}}` — paper-baseline overrides (the
///   same shape as every other endpoint's `system` field),
/// * `{"op": "flush"}` — apply pending deltas regardless of the batch knob.
///
/// # Errors
///
/// [`ApiError`] (400) for malformed bodies or unknown ops.
pub fn stream_deltas(body: &Json) -> Result<Vec<Delta>, ApiError> {
    check_keys(body, &["deltas"])?;
    let items = body
        .get("deltas")
        .and_then(Json::as_arr)
        .ok_or_else(|| ApiError::bad("field \"deltas\" must be an array of delta ops"))?;
    if items.is_empty() {
        return Err(ApiError::bad("field \"deltas\" must not be empty"));
    }
    if items.len() > MAX_AXIS_POINTS {
        return Err(ApiError::bad(format!(
            "field \"deltas\" accepts at most {MAX_AXIS_POINTS} ops"
        )));
    }
    items.iter().map(parse_delta).collect()
}

fn parse_delta(op: &Json) -> Result<Delta, ApiError> {
    let kind = op
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad("each delta op needs a string \"op\" field"))?;
    match kind {
        "add_bandwidth" => {
            check_keys(op, &["op", "delta"])?;
            Ok(Delta::AddBandwidth(need_f64(op, "delta")?))
        }
        "remove_bandwidth" => {
            check_keys(op, &["op", "delta"])?;
            Ok(Delta::RemoveBandwidth(need_f64(op, "delta")?))
        }
        "add_latency" => {
            check_keys(op, &["op", "step_ns"])?;
            Ok(Delta::AddLatency(need_f64(op, "step_ns")?))
        }
        "remove_latency" => {
            check_keys(op, &["op", "step_ns"])?;
            Ok(Delta::RemoveLatency(need_f64(op, "step_ns")?))
        }
        "set_weight" => {
            check_keys(op, &["op", "workload", "weight"])?;
            let workload = op
                .get("workload")
                .and_then(Json::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| {
                    ApiError::bad("field \"workload\" must be a non-negative integer index")
                })?;
            Ok(Delta::SetWeight {
                workload,
                weight: need_f64(op, "weight")?,
            })
        }
        "set_system" => {
            check_keys(op, &["op", "system"])?;
            // `parse_system` reads the `system` key of the object it is
            // given, which is exactly this op's shape.
            Ok(Delta::SetSystem(parse_system(op)?))
        }
        "flush" => {
            check_keys(op, &["op"])?;
            Ok(Delta::Flush)
        }
        other => Err(ApiError::bad(format!(
            "unknown delta op {other:?} (expected add_bandwidth, remove_bandwidth, \
             add_latency, remove_latency, set_weight, set_system, or flush)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(raw: &str) -> Json {
        Json::parse(raw).expect("test body parses")
    }

    #[test]
    fn solve_matches_direct_library_call() {
        let response = solve(&body("{}")).unwrap();
        let direct = solve_cpi(
            &WorkloadParams::big_data_class(),
            &SystemConfig::paper_baseline(),
            &QueueingCurve::composite_default(),
        )
        .unwrap();
        let solved = response.get("solved").unwrap();
        assert_eq!(
            solved.get("cpi_eff").and_then(Json::as_f64),
            Some(direct.cpi_eff)
        );
        assert_eq!(
            solved.get("regime").and_then(Json::as_str),
            Some(direct.regime.token())
        );
        assert_eq!(
            response.get("workload").and_then(Json::as_str),
            Some("Big Data class")
        );
    }

    #[test]
    fn solve_accepts_named_workload_and_system_overrides() {
        let response = solve(&body(
            r#"{"workload": "hpc", "system": {"unloaded_latency_ns": 135, "channels_per_socket": 2}}"#,
        ))
        .unwrap();
        let system = response.get("system").unwrap();
        assert_eq!(
            system.get("unloaded_latency_ns").and_then(Json::as_f64),
            Some(135.0)
        );
        assert_eq!(system.get("channels").and_then(Json::as_u64), Some(2));
        assert_eq!(response.get("segment").and_then(Json::as_str), Some("hpc"));
    }

    #[test]
    fn solve_accepts_custom_workload_object() {
        let response = solve(&body(
            r#"{"workload": {"name": "mine", "segment": "enterprise",
                "cpi_cache": 1.0, "bf": 0.4, "mpki": 5.0, "wbr": 0.3}}"#,
        ))
        .unwrap();
        assert_eq!(
            response.get("workload").and_then(Json::as_str),
            Some("mine")
        );
        let cpi = response
            .get("solved")
            .and_then(|s| s.get("cpi_eff"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(cpi > 1.0);
    }

    #[test]
    fn unknown_fields_and_workloads_are_rejected() {
        assert_eq!(
            solve(&body(r#"{"wrkload": "hpc"}"#)).unwrap_err().status,
            400
        );
        assert_eq!(
            solve(&body(r#"{"workload": "no-such-thing"}"#))
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(solve(&body("[1,2,3]")).unwrap_err().status, 400);
    }

    #[test]
    fn bandwidth_sweep_matches_direct_library_call() {
        let response = sweep(SweepKind::Bandwidth, &body("{}")).unwrap();
        let direct = bandwidth_sweep(
            &WorkloadParams::big_data_class(),
            &SystemConfig::paper_baseline(),
            &QueueingCurve::composite_default(),
            &default_bandwidth_deltas(),
        )
        .unwrap();
        let classes = response.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(classes.len(), 3, "defaults to the three Tab. 6 classes");
        let big_data = classes
            .iter()
            .find(|c| c.get("segment").and_then(Json::as_str) == Some("big_data"))
            .unwrap();
        let points = big_data.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), direct.len());
        for (got, want) in points.iter().zip(&direct) {
            assert_eq!(
                got.get("cpi").and_then(Json::as_f64),
                Some(want.solved.cpi_eff)
            );
            assert_eq!(
                got.get("cpi_ratio").and_then(Json::as_f64),
                Some(want.cpi_ratio)
            );
        }
    }

    #[test]
    fn latency_sweep_uses_steps_axis() {
        let response = sweep(
            SweepKind::Latency,
            &body(r#"{"workloads": ["enterprise"], "steps_ns": [0, 25, 50]}"#),
        )
        .unwrap();
        assert_eq!(
            response.get("sweep").and_then(Json::as_str),
            Some("latency")
        );
        let classes = response.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(classes.len(), 1);
        let points = classes[0].get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(
            points[2].get("unloaded_latency_ns").and_then(Json::as_f64),
            Some(125.0)
        );
    }

    #[test]
    fn equivalence_matches_direct_library_call() {
        let response = equivalence_endpoint(&body(r#"{"workloads": ["hpc"]}"#)).unwrap();
        let direct = equivalence(
            &WorkloadParams::hpc_class(),
            &SystemConfig::paper_baseline(),
            &QueueingCurve::composite_default(),
        )
        .unwrap();
        let row = &response.get("workloads").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            row.get("benefit_of_bandwidth_pct").and_then(Json::as_f64),
            Some(direct.benefit_of_bandwidth_pct)
        );
        // HPC: no latency reduction compensates for bandwidth (Sec. VI.D).
        assert!(row
            .get("latency_equivalent_of_bandwidth_ns")
            .is_some_and(Json::is_null));
    }

    #[test]
    fn capacity_reports_knee_and_recommendation() {
        let response = capacity(&body("{}")).unwrap();
        let options = response.get("options").and_then(Json::as_arr).unwrap();
        assert_eq!(options.len(), 6);
        assert!(response.get("knee").is_some());
        let recommendation = response.get("recommendation").unwrap();
        assert!(
            recommendation.get("label").is_some(),
            "default scenario has a recommendation"
        );
        let best = response
            .get("best_throughput_gips")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(best > 0.0);
    }

    #[test]
    fn plan_matches_direct_library_call() {
        let response = plan_endpoint(&body("{}")).unwrap();
        let direct = memsense_plan::planner::plan(&PlanSpec::example()).unwrap();
        let direct_json = memsense_plan::report::plan_json(&direct);
        assert_eq!(response.canonical(), direct_json.canonical());
        // The opaque tag changes nothing but the cache key.
        let tagged = plan_endpoint(&body(r#"{"tag": "t1"}"#)).unwrap();
        assert_eq!(tagged.canonical(), direct_json.canonical());
    }

    #[test]
    fn plan_accepts_a_full_spec() {
        let spec = PlanSpec::example_json().canonical();
        let response = plan_endpoint(&body(&spec)).unwrap();
        assert_eq!(
            response.get("schema").and_then(Json::as_str),
            Some(memsense_plan::report::SCHEMA)
        );
        assert!(response
            .get("recommendation")
            .and_then(Json::as_str)
            .is_some());
    }

    #[test]
    fn plan_spec_errors_carry_the_field_path() {
        let err = plan_endpoint(&body(
            r#"{"traffic": [{"workload": "big data", "mreq_per_s": -1}]}"#,
        ))
        .unwrap_err();
        assert_eq!(err.status, 400);
        let rendered = Json::parse(&err.body()).unwrap();
        assert_eq!(
            rendered.get("field").and_then(Json::as_str),
            Some("traffic[0].mreq_per_s")
        );
        assert!(rendered.get("error").and_then(Json::as_str).is_some());
        // Unknown top-level fields are still the generic serve 400.
        let err = plan_endpoint(&body(r#"{"trafic": []}"#)).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.field.is_none());
    }

    #[test]
    fn infeasible_parameters_surface_as_400() {
        let err = sweep(SweepKind::Bandwidth, &body(r#"{"deltas": [-1000.0]}"#)).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("model error"), "{}", err.message);
    }

    #[test]
    fn stream_open_rejects_oversized_cell_products() {
        // Each axis respects the per-axis cap, but the product (3 default
        // workloads × 2048 × 2048 ≈ 12.6M cells) must be a 400 — not a
        // multi-terabyte allocation on a worker thread.
        let axis: Vec<Json> = (0..2048).map(|i| Json::num(f64::from(i))).collect();
        let spec = Json::obj(vec![
            ("deltas", Json::Arr(axis.clone())),
            ("steps_ns", Json::Arr(axis)),
        ]);
        let err = stream_open(&spec).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("cap"), "{}", err.message);
    }
}
