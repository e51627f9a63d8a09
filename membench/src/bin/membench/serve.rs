//! `serve_mix`: the model-query mix against the shipped `memsense-serve`
//! binary — an open loop of seeded Poisson arrivals at [`RATE`], then a
//! closed-loop saturation phase on `nproc` connections.
//!
//! Hot requests are a Zipf-popular set warmed during set-up, so they hit
//! the result cache. Cold requests (a fixed [`COLD_SHARE`]) carry fresh
//! real parameters — custom workloads, system overrides, axes of 8 to 512
//! points, capacity menus, plan specs — so each one misses and reaches a
//! worker. Every distinct response body is checked byte for byte against
//! the in-process `api::*` handler for the same body.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memsense_experiments::executor::par_map_full;
use memsense_experiments::json::Json;
use memsense_model::solver::telemetry as solver_telemetry;
use memsense_model::WorkloadParams;
use memsense_plan::spec::PlanSpec;
use memsense_serve::api::{self, ApiError, SweepKind};
use memsense_serve::cache::{CacheStats, ResultCache, DEFAULT_BUDGET_BYTES};
use memsense_serve::http::{parse_request, Parse};

use crate::proc::Server;
use crate::trace::Recorder;
use crate::util::{fnv1a, mean, median, nearest_rank, ratio, sorted, tail, Outcome, Rng, Zipf};
use crate::wire::{self, Record};

/// The model endpoints the mix exercises.
pub const ENDPOINTS: [&str; 6] = [
    "/v1/solve",
    "/v1/sweep/bandwidth",
    "/v1/sweep/latency",
    "/v1/equivalence",
    "/v1/capacity",
    "/v1/plan",
];

/// Share of each endpoint in the mix (hot set and cold draws alike).
const ENDPOINT_WEIGHTS: [f64; 6] = [0.30, 0.15, 0.15, 0.10, 0.15, 0.15];

/// Offered open-loop rate, requests per second.
pub const RATE: f64 = 1000.0;

/// Share of open-loop and saturation requests that must miss the cache.
pub const COLD_SHARE: f64 = 0.10;

/// Distinct hot request bodies, warmed during set-up.
pub const HOT_SET: usize = 48;

/// Zipf exponent of hot-set popularity.
pub const ZIPF_S: f64 = 1.0;

/// A run is short rounds of an open-loop phase then a saturation phase;
/// the metrics come from the quieter half of the rounds, so a burst of
/// hypervisor steal moves the rounds it hit, not the result.
const ROUND_OPEN_S: f64 = 1.0;
const ROUND_SATURATION_S: f64 = 0.4;

/// Requests each saturating connection keeps outstanding: enough that the
/// server always has the next request parsed and waiting.
const SATURATION_WINDOW: usize = 32;

/// Requests generated per connection-second of saturation; a phase that
/// exhausts them ends early rather than re-sending a cold body.
const SATURATION_PER_S: f64 = 20_000.0;

const SETUP_SAMPLES: usize = 7;

/// One distinct request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub path: &'static str,
    pub body: String,
    pub cold: bool,
}

/// Every request a run sends, derived from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Hot set first (`0..HOT_SET`), then every cold request.
    pub requests: Vec<Request>,
    /// Open loop, per round: `(due offset, request index)`.
    pub open: Vec<Vec<(Duration, u32)>>,
    /// Saturation phase, per round, in send order.
    pub saturation: Vec<Vec<u32>>,
}

fn num(v: f64) -> Json {
    Json::num(v)
}

fn workload_names() -> Vec<String> {
    WorkloadParams::all_classes()
        .into_iter()
        .chain(WorkloadParams::all_workloads())
        .map(|w| w.name.to_lowercase())
        .collect()
}

/// A custom workload object with fresh parameters.
fn custom_workload(rng: &mut Rng, tag: usize) -> Json {
    let segment = *rng.pick(&["big_data", "enterprise", "hpc"]);
    let mut fields = vec![
        ("name", Json::str(format!("w{tag}"))),
        ("segment", Json::str(segment)),
        ("cpi_cache", num(rng.range(0.4, 2.5, 4))),
        ("bf", num(rng.range(0.02, 0.6, 4))),
        ("mpki", num(rng.range(0.2, 25.0, 3))),
        ("wbr", num(rng.range(0.0, 0.6, 3))),
    ];
    if rng.unit() < 0.3 {
        fields.push(("iopi", num(rng.range(0.0, 0.002, 6))));
        fields.push(("iosz", num(rng.range(512.0, 8192.0, 0))));
    }
    Json::obj(fields)
}

/// System overrides with fresh parameters; returns the per-core
/// effective bandwidth (GB/s) so bandwidth axes stay feasible.
fn custom_system(rng: &mut Rng) -> (Json, f64) {
    let cores = *rng.pick(&[4u32, 6, 8, 10, 12]);
    let channels = *rng.pick(&[2u32, 3, 4, 6]);
    let mts = *rng.pick(&[1333.0, 1600.0, 1866.7, 2133.0, 2400.0]);
    let efficiency = rng.range(0.6, 0.8, 2);
    let system = Json::obj(vec![
        ("cores_per_socket", num(f64::from(cores))),
        ("channels_per_socket", num(f64::from(channels))),
        ("channel_mega_transfers", num(mts)),
        ("core_clock_ghz", num(rng.range(2.0, 3.4, 2))),
        ("efficiency", num(efficiency)),
        ("unloaded_latency_ns", num(rng.range(60.0, 110.0, 1))),
    ]);
    let per_core = f64::from(channels) * mts * 8.0 / 1000.0 * efficiency / f64::from(cores);
    (system, per_core)
}

/// Axis length, log-uniform over 8..=512 points.
fn axis_len(rng: &mut Rng) -> usize {
    (8.0 * 64f64.powf(rng.unit())).round().clamp(8.0, 512.0) as usize
}

fn workload_list(rng: &mut Rng, names: &[String], cold: bool, tag: usize) -> Json {
    let n = if cold { rng.between(1, 3) } else { 2 };
    Json::Arr(
        (0..n)
            .map(|i| {
                if cold {
                    custom_workload(rng, tag * 4 + i)
                } else {
                    Json::str(rng.pick(names).as_str())
                }
            })
            .collect(),
    )
}

/// Builds one request body for `endpoint`. Cold bodies draw every
/// parameter fresh; hot bodies have a fixed shape per endpoint (two named
/// workloads, 12-point axes, four capacity options), so the cost of a hit
/// does not depend on the seed.
fn body(rng: &mut Rng, endpoint: usize, cold: bool, tag: usize, names: &[String]) -> Json {
    let (system, per_core) = if cold {
        custom_system(rng)
    } else {
        (Json::Null, 5.2)
    };
    let with_system = |mut fields: Vec<(&'static str, Json)>| {
        if !system.is_null() {
            fields.push(("system", system.clone()));
        }
        Json::obj(fields)
    };
    let workload = |rng: &mut Rng| {
        if cold {
            custom_workload(rng, tag)
        } else {
            Json::str(rng.pick(names).as_str())
        }
    };
    match endpoint {
        0 => with_system(vec![("workload", workload(rng))]),
        1 | 2 => {
            let n = if cold { axis_len(rng) } else { 12 };
            let axis: Vec<Json> = (0..n)
                .map(|_| {
                    if endpoint == 1 {
                        num(rng.range(-0.85 * per_core, 2.0, 3))
                    } else {
                        num(rng.range(0.0, 200.0, 1))
                    }
                })
                .collect();
            let key = if endpoint == 1 { "deltas" } else { "steps_ns" };
            with_system(vec![
                ("workloads", workload_list(rng, names, cold, tag)),
                (key, Json::Arr(axis)),
            ])
        }
        3 => with_system(vec![("workloads", workload_list(rng, names, cold, tag))]),
        4 => {
            let n = if cold { rng.between(2, 8) } else { 4 };
            let options: Vec<Json> = (0..n)
                .map(|_| {
                    Json::obj(vec![
                        ("channels", num(rng.between(1, 8) as f64)),
                        (
                            "mega_transfers",
                            num(*rng.pick(&[1333.0, 1600.0, 1866.7, 2400.0, 3200.0])),
                        ),
                        ("relative_cost", num(rng.range(0.3, 2.0, 2))),
                    ])
                })
                .collect();
            with_system(vec![
                ("workload", workload(rng)),
                ("options", Json::Arr(options)),
                ("within_pct", num(rng.range(1.0, 20.0, 1))),
            ])
        }
        _ => plan_body(rng, cold),
    }
}

/// A plan spec: the worked example with its traffic, SLAs and hardware
/// prices re-drawn.
fn plan_body(rng: &mut Rng, cold: bool) -> Json {
    let Json::Obj(fields) = PlanSpec::example_json() else {
        return Json::obj(vec![]);
    };
    let spread = if cold { 0.6 } else { 0.0 };
    let scale = |v: f64, rng: &mut Rng| {
        if cold {
            v * rng.range(1.0 - spread, 1.0 + spread, 3)
        } else {
            v * (1.0 + 0.25 * rng.below(4) as f64)
        }
    };
    let fields = fields
        .into_iter()
        .map(|(key, value)| {
            let value = match (key.as_str(), value) {
                ("traffic", Json::Arr(classes)) => Json::Arr(
                    classes
                        .into_iter()
                        .map(|c| match c {
                            Json::Obj(cf) => Json::Obj(
                                cf.into_iter()
                                    .map(|(k, v)| match (k.as_str(), v.as_f64()) {
                                        ("mreq_per_s" | "instructions_per_request", Some(x)) => {
                                            let x = scale(x, rng);
                                            (k, num(x))
                                        }
                                        _ => (k, v),
                                    })
                                    .collect(),
                            ),
                            other => other,
                        })
                        .collect(),
                ),
                ("hardware", Json::Arr(items)) => Json::Arr(
                    items
                        .into_iter()
                        .map(|h| match h {
                            Json::Obj(hf) => Json::Obj(
                                hf.into_iter()
                                    .map(|(k, v)| match (k.as_str(), v.as_f64()) {
                                        ("cost", Some(x)) if cold => {
                                            (k, num(x * rng.range(0.7, 1.3, 3)))
                                        }
                                        _ => (k, v),
                                    })
                                    .collect(),
                            ),
                            other => other,
                        })
                        .collect(),
                ),
                (_, v) => v,
            };
            (key, value)
        })
        .collect();
    Json::Obj(fields)
}

/// Endpoint of hot-set rank `k` is `HOT_ORDER[k % 6]`: the most popular
/// ranks cover every endpoint whatever the seed.
const HOT_ORDER: [usize; 6] = [0, 1, 4, 5, 2, 3];

/// Generates the whole mix from the seed: per round, an open-loop
/// schedule of `open_secs` and a saturation list for `saturation_secs`.
pub fn generate(
    seed: u64,
    rounds: usize,
    open_secs: f64,
    saturation_secs: f64,
    conns: usize,
) -> Mix {
    let names = workload_names();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut requests: Vec<Request> = Vec::new();
    let mut draw =
        |rng: &mut Rng, endpoint: usize, cold: bool, requests: &mut Vec<Request>| -> u32 {
            loop {
                let json = body(rng, endpoint, cold, requests.len(), &names);
                // Distinct canonical bodies: a cold request may never hit.
                if seen.insert(format!("{}#{}", ENDPOINTS[endpoint], json.canonical())) {
                    requests.push(Request {
                        path: ENDPOINTS[endpoint],
                        body: json.to_string(),
                        cold,
                    });
                    return (requests.len() - 1) as u32;
                }
            }
        };
    let mut hot_rng = Rng::fork(seed, "serve-hot");
    for k in 0..HOT_SET {
        draw(
            &mut hot_rng,
            HOT_ORDER[k % HOT_ORDER.len()],
            false,
            &mut requests,
        );
    }
    let zipf = Zipf::new(HOT_SET, ZIPF_S);
    let mut pick = |rng: &mut Rng, requests: &mut Vec<Request>| -> u32 {
        if rng.unit() < COLD_SHARE {
            let endpoint = rng.weighted(&ENDPOINT_WEIGHTS);
            draw(rng, endpoint, true, requests)
        } else {
            zipf.sample(rng) as u32
        }
    };
    let mut open_rng = Rng::fork(seed, "serve-open");
    let mut sat_rng = Rng::fork(seed, "serve-saturation");
    let per_round = (saturation_secs * SATURATION_PER_S * conns as f64).ceil() as usize;
    let mut open = Vec::new();
    let mut saturation = Vec::new();
    for _ in 0..rounds {
        let mut round = Vec::new();
        let mut t = open_rng.exp_gap(RATE);
        while t < open_secs {
            let idx = pick(&mut open_rng, &mut requests);
            round.push((Duration::from_secs_f64(t), idx));
            t += open_rng.exp_gap(RATE);
        }
        open.push(round);
        saturation.push(
            (0..per_round)
                .map(|_| pick(&mut sat_rng, &mut requests))
                .collect(),
        );
    }
    Mix {
        requests,
        open,
        saturation,
    }
}

/// Runs an endpoint's handler in-process, as the server's workers do.
pub fn handle(path: &str, body: &Json) -> Result<Json, ApiError> {
    match path {
        "/v1/solve" => api::solve(body),
        "/v1/sweep/bandwidth" => api::sweep(SweepKind::Bandwidth, body),
        "/v1/sweep/latency" => api::sweep(SweepKind::Latency, body),
        "/v1/equivalence" => api::equivalence_endpoint(body),
        "/v1/capacity" => api::capacity(body),
        "/v1/plan" => api::plan_endpoint(body),
        other => Err(ApiError::bad(format!("not a model endpoint: {other}"))),
    }
}

/// The body the server must answer for `req`, as `(status, hash, len)`.
fn expected(req: &Request) -> (u16, u64, usize) {
    let parsed = Json::parse(&req.body);
    let (status, text) = match parsed {
        Ok(body) => match handle(req.path, &body) {
            Ok(json) => (200, json.to_string()),
            Err(e) => (e.status, e.body()),
        },
        Err(e) => (400, format!("unparseable request body: {e}")),
    };
    (status, fnv1a(text.as_bytes()), text.len())
}

/// Runs the saturation phase: `conns` closed-loop connections with
/// [`SATURATION_WINDOW`] requests outstanding, each taking every
/// `conns`-th request, for `duration`. Returns the records,
/// errors and the phase's wall time.
fn saturate(
    server: &Server,
    rendered: &[Vec<u8>],
    order: &[u32],
    conns: usize,
    duration: Duration,
) -> (Vec<Record>, Vec<String>, f64) {
    let start = Instant::now();
    let stop = start + duration;
    let results: Vec<(Vec<Record>, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<u32> = order.iter().skip(c).step_by(conns).copied().collect();
                let addr = server.addr.as_str();
                scope.spawn(move || {
                    wire::closed_loop(addr, rendered, &mine, SATURATION_WINDOW, start, stop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| (Vec::new(), Some("load thread panicked".into())))
            })
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (r, e) in results {
        records.extend(r);
        errors.extend(e);
    }
    (records, errors, elapsed)
}

/// Warms the hot set (each body once) on one connection.
fn warm(server: &Server, mix: &Mix) -> Result<(), String> {
    let mut client = server.client()?;
    for req in &mix.requests[..HOT_SET] {
        let (status, _) = client
            .request("POST", req.path, &req.body)
            .map_err(|e| format!("warm-up {}: {e}", req.path))?;
        if status != 200 {
            return Err(format!("warm-up {} answered {status}", req.path));
        }
    }
    Ok(())
}

/// Starts the daemon and warms it, returning it with the set-up time.
fn set_up(bin: &std::path::Path, nproc: usize, mix: &Mix) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::start(bin, nproc)?;
    warm(&server, mix)?;
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Cache and single-flight counters from a `/metrics` body.
fn counter(metrics: &Json, group: &str, key: &str) -> f64 {
    metrics
        .get(group)
        .and_then(|g| g.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Request-weighted server-side latency statistics over `endpoints`:
/// `(mean, p50, p99, requests)`.
pub fn server_latency(metrics: &Json, endpoints: &[&str]) -> (f64, f64, f64, f64) {
    let mut acc = (0.0, 0.0, 0.0, 0.0);
    for e in metrics
        .get("endpoints")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let name = e.get("endpoint").and_then(Json::as_str).unwrap_or("");
        if !endpoints.contains(&name) {
            continue;
        }
        let n = e.get("requests").and_then(Json::as_f64).unwrap_or(0.0);
        let get = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        acc.0 += n * get("latency_ms_mean");
        acc.1 += n * get("latency_ms_p50");
        acc.2 += n * get("latency_ms_p99");
        acc.3 += n;
    }
    (
        ratio(acc.0, acc.3),
        ratio(acc.1, acc.3),
        ratio(acc.2, acc.3),
        acc.3,
    )
}

/// Checks every answered record against the in-process handler.
fn verify(mix: &Mix, records: &[Record], out: &mut Outcome) {
    let ids: BTreeSet<u32> = records.iter().map(|r| r.req).collect();
    let ids: Vec<u32> = ids.into_iter().collect();
    let expect: BTreeMap<u32, (u16, u64, usize)> = ids
        .iter()
        .copied()
        .zip(
            par_map_full(
                ids.clone(),
                |_, _| "membench.verify".into(),
                |id| Ok::<_, ()>(expected(&mix.requests[id as usize])),
            )
            .into_iter()
            .map(|r| r.unwrap_or((0, 0, 0))),
        )
        .collect();
    memsense_experiments::executor::drain_job_log();
    for r in records {
        let req = &mix.requests[r.req as usize];
        if !r.answered() {
            out.fail(format!("{} (request {}) got no response", req.path, r.seq));
            continue;
        }
        let (status, hash, len) = expect[&r.req];
        if status != 200 {
            out.fail(format!(
                "{} body {} fails in-process with {status}",
                req.path, req.body
            ));
        } else if r.status != 200 {
            out.fail(format!("{} answered {}", req.path, r.status));
        } else if (r.hash, r.len) != (hash, len) {
            out.fail(format!(
                "{} response differs from the in-process handler",
                req.path
            ));
        }
    }
}

/// Per-layer timings of the serial in-process replay.
#[derive(Default)]
struct Replay {
    parse_ns: Vec<f64>,
    key_ns: Vec<f64>,
    get_ns: Vec<f64>,
    /// Per endpoint: handler ns on misses.
    handler_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Per open-loop position: handler + serialize + put ns on a miss.
    miss_ns: BTreeMap<u32, f64>,
    attributed_ns: Vec<f64>,
    solves: u64,
    iterations: u64,
    misses: u64,
    /// The replay cache's counters over the open-loop requests (the
    /// warm-up excluded).
    cache: CacheStats,
}

/// Replays the open-loop requests serially through the layers a request
/// crosses inside the server: HTTP parse, JSON parse and canonical key,
/// result-cache lookup, handler, serialization and cache insert.
fn replay(mix: &Mix, rendered: &[Vec<u8>], rec: &mut Recorder) -> Result<Replay, String> {
    let cache = ResultCache::new(DEFAULT_BUDGET_BYTES);
    let mut r = Replay::default();
    let mut warmed = CacheStats::default();
    // The server warmed the hot set before the open loop; so does the replay.
    let warm: Vec<(Duration, u32)> = (0..HOT_SET as u32).map(|i| (Duration::ZERO, i)).collect();
    for (pos, &(_, idx)) in warm.iter().chain(mix.open.iter().flatten()).enumerate() {
        let warming = pos < HOT_SET;
        if pos == HOT_SET {
            warmed = cache.stats();
        }
        let seq = (pos as u64).wrapping_sub(HOT_SET as u64);
        let raw = &rendered[idx as usize];
        let t0 = Instant::now();
        let Parse::Complete(request, _) = parse_request(raw) else {
            return Err(format!("request {idx} does not parse"));
        };
        let t1 = Instant::now();
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let body = Json::parse(text).map_err(|e| e.to_string())?;
        let key = format!("{} {}#{}", request.method, request.path, body.canonical());
        let t2 = Instant::now();
        let hit = cache.get(&key);
        let t3 = Instant::now();
        let mut end = t3;
        let mut spans = vec![
            ("replay.http_parse", t0, t1),
            ("replay.json_key", t1, t2),
            ("replay.cache_get", t2, t3),
        ];
        if hit.is_none() {
            let before = solver_telemetry::snapshot();
            let path = mix.requests[idx as usize].path;
            let json = handle(path, &body).map_err(|e| format!("{path}: {}", e.message))?;
            let t4 = Instant::now();
            let solved = solver_telemetry::snapshot().since(&before);
            let text: Arc<str> = Arc::from(json.to_string());
            let t5 = Instant::now();
            cache.put(&key, &text);
            end = Instant::now();
            spans.push(("replay.handler", t3, t4));
            spans.push(("replay.serialize", t4, t5));
            spans.push(("replay.cache_put", t5, end));
            if !warming {
                r.handler_ns
                    .entry(path)
                    .or_default()
                    .push(t4.duration_since(t3).as_nanos() as f64);
                r.miss_ns
                    .insert(seq as u32, end.duration_since(t3).as_nanos() as f64);
                r.solves += solved.solves;
                r.iterations += solved.iterations;
                r.misses += 1;
            }
        }
        if warming {
            continue;
        }
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
        r.parse_ns.push(ns(t0, t1));
        r.key_ns.push(ns(t1, t2));
        r.get_ns.push(ns(t2, t3));
        r.attributed_ns.push(ns(t0, end));
        let trace = 1_000_000 + seq;
        let root = rec.reserve();
        for (name, a, b) in spans {
            rec.record(trace, Some(root), name, a, b, vec![]);
        }
        rec.record_as(root, trace, None, "replay.request", t0, end, vec![]);
    }
    memsense_experiments::executor::drain_job_log();
    let end = cache.stats();
    r.cache = CacheStats {
        hits: end.hits - warmed.hits,
        misses: end.misses - warmed.misses,
        evictions: end.evictions - warmed.evictions,
        ..end
    };
    Ok(r)
}

/// The request-path layers of a replay: HTTP parse, canonical key, cache
/// lookup, and the `api::*` handlers on the cold bodies.
fn request_path_layers(replayed: &Replay, out: &mut Outcome) {
    let us = |v: &[f64]| mean(v) / 1e3;
    let handler = |path: &str| replayed.handler_ns.get(path).map_or(0.0, |v| us(v));
    let sweeps: Vec<f64> = replayed
        .handler_ns
        .iter()
        .filter(|(k, _)| k.starts_with("/v1/sweep"))
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    out.layer("http.parse_us", us(&replayed.parse_ns));
    out.layer("json.key_us", us(&replayed.key_ns));
    out.layer("cache.get_us", us(&replayed.get_ns));
    out.layer("api.solve_us", handler("/v1/solve"));
    out.layer("api.sweep_us", us(&sweeps));
    out.layer("api.equivalence_us", handler("/v1/equivalence"));
    out.layer("api.capacity_us", handler("/v1/capacity"));
    out.layer("api.plan_us", handler("/v1/plan"));
}

/// The request-path layers of the seed's model-query mix, from the serial
/// in-process replay alone. `stream_whatif`'s traced run reports them, so
/// the workloads in `BENCHMARK.json` measure every layer even though
/// `serve_mix` is not among them.
pub fn replay_request_path(
    seed: u64,
    seconds: f64,
    nproc: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let rounds = ((seconds / (ROUND_OPEN_S + ROUND_SATURATION_S)).floor() as usize).max(1);
    let mix = generate(seed, rounds, ROUND_OPEN_S, ROUND_SATURATION_S, nproc);
    let rendered: Vec<Vec<u8>> = mix
        .requests
        .iter()
        .map(|r| wire::post(r.path, &r.body))
        .collect();
    match replay(&mix, &rendered, rec) {
        Ok(replayed) => {
            request_path_layers(&replayed, out);
            let c = &replayed.cache;
            out.layer(
                "serve.hit_ratio",
                ratio(c.hits as f64, (c.hits + c.misses) as f64),
            );
            out.layer("serve.evictions", c.evictions as f64);
            out.note(format!(
                "request-path replay: {} requests, cache {} hits, {} misses, {} evictions, {} entries, {} bytes",
                replayed.parse_ns.len(),
                c.hits,
                c.misses,
                c.evictions,
                c.entries,
                c.bytes
            ));
        }
        Err(e) => out.fail(format!("request-path replay: {e}")),
    }
}

/// One round's numbers.
struct Round {
    /// Share of machine CPU time stolen by the hypervisor in the round.
    steal: f64,
    /// Open-loop latencies from the due time, ms.
    latencies: Vec<f64>,
    /// Saturation requests answered per second.
    rps: f64,
}

/// The quieter half of `rounds` (see [`crate::util::quieter_half`]):
/// their open-loop latencies pooled and sorted, the median saturation
/// rate, and how many rounds were kept.
fn summarize(rounds: &[Round]) -> (Vec<f64>, f64, usize) {
    let kept = crate::util::quieter_half(&rounds.iter().map(|r| r.steal).collect::<Vec<_>>());
    let lat = sorted(
        kept.iter()
            .flat_map(|&i| rounds[i].latencies.iter().copied())
            .collect(),
    );
    let rps = median(&kept.iter().map(|&i| rounds[i].rps).collect::<Vec<_>>());
    (lat, rps, kept.len())
}

pub fn run(
    bin: &std::path::Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    nproc: usize,
    out: &mut Outcome,
) {
    let epoch = Instant::now();
    let rounds = ((seconds / (ROUND_OPEN_S + ROUND_SATURATION_S)).floor() as usize).max(1);
    let mix = generate(seed, rounds, ROUND_OPEN_S, ROUND_SATURATION_S, nproc);
    let rendered: Vec<Vec<u8>> = mix
        .requests
        .iter()
        .map(|r| wire::post(r.path, &r.body))
        .collect();

    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_SAMPLES {
        if let Some(old) = server.take() {
            if let Err(e) = Server::shutdown(old) {
                out.fail(e);
            }
        }
        match set_up(bin, nproc, &mix) {
            Ok((s, t)) => {
                setup.push(t);
                server = Some(s);
            }
            Err(e) => out.fail(e),
        }
    }
    let Some(server) = server else {
        return;
    };
    out.attempted += HOT_SET as u64;
    let before = server.metrics().unwrap_or(Json::Null);

    // A traced run records spans in its second half of rounds; the first
    // half is its untraced reference for the tracing overhead.
    let traced_from = if traced { rounds.div_ceil(2) } else { rounds };
    let mut open_records: Vec<Record> = Vec::new();
    let mut all: Vec<Record> = Vec::new();
    let mut per_round: Vec<Round> = Vec::new();
    let mut recorders = Vec::new();
    let mut offset = 0u32;
    let mut scrape = None;
    for r in 0..rounds {
        let ticks = crate::util::cpu_ticks();
        let schedule = &mix.open[r];
        let start = Instant::now();
        let span = schedule.last().map_or(Duration::ZERO, |s| s.0);
        let rec = (r >= traced_from).then(|| Recorder::new(epoch, 10 + r as u64));
        let (mut records, errors, rec) = wire::open_loop(
            &server.addr,
            &rendered,
            schedule,
            nproc,
            start,
            start + span + Duration::from_secs(20),
            rec,
        );
        out.failed += errors.len() as u64;
        out.failures.extend(errors);
        recorders.extend(rec);
        for rec in &mut records {
            rec.seq += offset;
        }
        offset += schedule.len() as u32;
        if r + 1 == rounds {
            let t0 = Instant::now();
            scrape = Some((server.metrics().unwrap_or(Json::Null), t0, Instant::now()));
        }
        let (sat, errors, elapsed) = saturate(
            &server,
            &rendered,
            &mix.saturation[r],
            nproc,
            Duration::from_secs_f64(ROUND_SATURATION_S),
        );
        out.failed += errors.len() as u64;
        out.failures.extend(errors);
        if sat.len() >= mix.saturation[r].len() {
            out.note(format!(
                "round {r}: saturation exhausted its generated requests"
            ));
        }
        per_round.push(Round {
            steal: crate::util::steal_share(ticks, crate::util::cpu_ticks()),
            latencies: records
                .iter()
                .filter(|x| x.answered())
                .map(Record::due_latency_ms)
                .collect(),
            rps: sat.iter().filter(|x| x.answered()).count() as f64 / elapsed,
        });
        all.extend(records.iter().copied());
        all.extend(sat);
        open_records.extend(records);
    }
    let rss = server.peak_rss_mb();
    if let Err(e) = server.shutdown() {
        out.fail(e);
    }
    out.attempted += all.len() as u64;
    verify(&mix, &all, out);

    let measured = &per_round[..traced_from];
    let (lat, peak_rps, kept) = summarize(measured);
    let t = tail(&lat);
    let cold = open_records
        .iter()
        .filter(|r| mix.requests[r.req as usize].cold)
        .count();
    out.note(format!(
        "open loop: {} requests at {RATE} req/s offered over {rounds} rounds of {ROUND_OPEN_S} s ({cold} cold = {:.1}%)",
        open_records.len(),
        100.0 * ratio(cold as f64, open_records.len() as f64),
    ));
    out.note(format!(
        "metrics from the {kept} of {} rounds with the least hypervisor steal (steal per round: {:?})",
        measured.len(),
        measured
            .iter()
            .map(|r| (r.steal * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    out.note(format!(
        "open-loop latency from the due time: p50 {:.4} ms, p{:.2} {:.4} ms over {} samples",
        nearest_rank(&lat, 50.0),
        t.percentile,
        t.value,
        t.samples
    ));
    out.note(format!(
        "peak_rps = {peak_rps:.1} requests/s on {nproc} closed-loop connections, {SATURATION_WINDOW} in flight each (median over rounds of {ROUND_SATURATION_S} s)"
    ));
    out.note(format!("setup samples: {setup:?}"));
    out.push("setup_s", "s", median(&setup));
    out.push("throughput", "1/s", peak_rps);
    out.push("p50_ms", "ms", nearest_rank(&lat, 50.0));
    out.push("p99_ms", "ms", t.value);
    out.push("peak_rss_mb", "MB", rss);

    if !traced {
        return;
    }
    // Per-layer numbers.
    let Some((after_open, scrape_start, scrape_end)) = scrape else {
        return;
    };
    let mut rec = Recorder::new(epoch, 2);
    rec.record(
        0,
        None,
        "client.metrics_scrape",
        scrape_start,
        scrape_end,
        vec![],
    );
    let replayed = match replay(&mix, &rendered, &mut rec) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("replay: {e}"));
            return;
        }
    };
    let hits = counter(&after_open, "cache", "hits") - counter(&before, "cache", "hits");
    let misses = counter(&after_open, "cache", "misses") - counter(&before, "cache", "misses");
    let (server_mean, server_p50, server_p99, _) = server_latency(&after_open, &ENDPOINTS);
    let answered: Vec<&Record> = all.iter().filter(|r| r.answered()).collect();
    let client_mean = mean(&answered.iter().map(|r| r.service_ms()).collect::<Vec<_>>());
    // Server-side wait of a miss: client time from send to answer, minus
    // the in-process handler time for the same body.
    let queue: Vec<f64> = open_records
        .iter()
        .filter(|r| r.answered())
        .filter_map(|r| {
            replayed
                .miss_ns
                .get(&r.seq)
                .map(|&ns| r.service_ms() - ns / 1e6)
        })
        .collect();
    let attributed_ms = mean(&replayed.attributed_ns) / 1e6;
    let diff =
        |group: &str, key: &str| counter(&after_open, group, key) - counter(&before, group, key);
    out.layer("serve.hit_ratio", ratio(hits, hits + misses));
    out.layer("serve.coalesced", diff("single_flight", "coalesced"));
    out.layer("serve.evictions", diff("cache", "evictions"));
    out.layer("serve.server_p50_ms", server_p50);
    out.layer("serve.server_p99_ms", server_p99);
    out.layer("serve.outside_ms", client_mean - server_mean);
    out.layer("serve.queue_ms", median(&queue));
    request_path_layers(&replayed, out);
    out.layer(
        "model.solves_per_request",
        ratio(replayed.solves as f64, replayed.misses as f64),
    );
    out.layer(
        "model.iterations_per_solve",
        ratio(replayed.iterations as f64, replayed.solves as f64),
    );
    let late = sorted(open_records.iter().map(Record::late_ms).collect());
    out.layer("bench.gen_late_p99_ms", tail(&late).value);
    let p50 = |rs: &[Round]| nearest_rank(&summarize(rs).0, 50.0);
    out.layer(
        "bench.trace_overhead",
        ratio(p50(&per_round[traced_from..]), p50(measured)) - 1.0,
    );
    out.layer(
        "bench.unattributed_share",
        ratio(server_mean - attributed_ms, client_mean),
    );
    out.note(format!(
        "replay: {} requests, {} misses, {} solves; server mean {server_mean:.4} ms vs replay-attributed {attributed_ms:.4} ms",
        replayed.parse_ns.len(),
        replayed.misses,
        replayed.solves
    ));
    recorders.push(rec);
    let spans: Vec<_> = recorders.into_iter().flat_map(|r| r.spans).collect();
    let path = crate::trace::trace_path("serve_mix", seed);
    match crate::trace::write(&path, &spans) {
        Ok(()) => out.note(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        let a = generate(11, 2, 1.0, 0.5, 2);
        let b = generate(11, 2, 1.0, 0.5, 2);
        assert_eq!(a, b);
        let c = generate(12, 2, 1.0, 0.5, 2);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn hot_and_cold_shares_and_zipf_skew_land_within_tolerance() {
        let mix = generate(5, 1, 20.0, 0.0, 2);
        let open = &mix.open[0];
        let n = open.len() as f64;
        // Poisson arrivals at RATE over 20 s.
        assert!((n / 20.0 - RATE).abs() < 0.05 * RATE, "{n} arrivals");
        let cold = open
            .iter()
            .filter(|(_, i)| mix.requests[*i as usize].cold)
            .count() as f64;
        assert!(
            (cold / n - COLD_SHARE).abs() < 0.01,
            "cold share {}",
            cold / n
        );
        // Every cold request is its own distinct body; hot ones repeat.
        let cold_ids: BTreeSet<u32> = open
            .iter()
            .filter(|(_, i)| *i as usize >= HOT_SET)
            .map(|(_, i)| *i)
            .collect();
        assert_eq!(cold_ids.len() as f64, cold);
        let zipf = Zipf::new(HOT_SET, ZIPF_S);
        let hot = n - cold;
        for rank in [0usize, 1, 4] {
            let count = open.iter().filter(|(_, i)| *i as usize == rank).count() as f64;
            let expected = zipf.probability(rank) * hot;
            assert!(
                (count - expected).abs() < 0.1 * expected,
                "rank {rank}: {count} vs {expected}"
            );
        }
    }

    #[test]
    fn every_generated_request_is_served_in_process() {
        let mix = generate(3, 1, 1.0, 0.05, 2);
        let mut lens = BTreeSet::new();
        for req in &mix.requests {
            let body = Json::parse(&req.body).expect("generated bodies parse");
            if let Err(e) = handle(req.path, &body) {
                panic!("{} {}: {}", req.path, req.body, e.message);
            }
            if let Some(axis) = body.get("deltas").or_else(|| body.get("steps_ns")) {
                if req.cold {
                    lens.insert(axis.as_arr().map_or(0, <[Json]>::len));
                }
            }
        }
        assert!(lens.iter().all(|&l| (8..=512).contains(&l)));
        assert!(lens.len() > 5, "axis lengths vary: {lens:?}");
    }
}
