//! `stream_whatif`: `nproc` closed-loop clients, each with its own
//! `memsense-stream` session on the default 168-cell grid, batching 8 or
//! 64 deltas. Each client repeatedly POSTs a seeded delta batch (axis
//! points added and removed, weight changes, a rare `set_system`) and then
//! drains `/updates`.
//!
//! Deltas mutate session state, so they bypass the result cache and
//! single-flight. The check: every delta acknowledgement equals an
//! in-process replay of the same bodies through `Session::submit`, the
//! cells folded from the streamed updates equal the replayed session, and
//! that session equals a from-scratch `Session::open` of its final spec.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use memsense_experiments::executor::{drain_job_log, par_map};
use memsense_experiments::json::Json;
use memsense_model::queueing::QueueingCurve;
use memsense_model::sensitivity::{default_bandwidth_deltas, default_latency_steps};
use memsense_model::solver::telemetry as solver_telemetry;
use memsense_serve::api;
use memsense_stream::grid::{solve_cell, CellKey, GridSpec};
use memsense_stream::session::{Session, SubmitAck};

use crate::proc::Server;
use crate::trace::Recorder;
use crate::util::{mean, median, nearest_rank, ratio, sorted, tail, Outcome, Rng};
use crate::wire::PollClient;

/// The batching knob of client `i` is `BATCHES[i % 2]`.
pub const BATCHES: [usize; 2] = [8, 64];

/// Delta batches generated per client; a run stops at `--seconds` first.
const POSTS_PER_CLIENT: usize = 60_000;

/// POSTs per client replayed by the traced run's per-layer measurement
/// (a fixed prefix, so its counts repeat exactly).
const TRACE_POSTS: usize = 400;

/// Measurement window, seconds. The metrics come from the quieter half of
/// the windows (ranked by hypervisor steal), so a burst of steal moves the
/// windows it hit, not the result.
const WINDOW_S: f64 = 1.0;

/// How far an axis may move from its default length. The generator adds
/// with probability `0.5 + (default - len) / (2 * AXIS_SWING)`, so adds and
/// removes balance at the default length and each axis stays within
/// `default ± AXIS_SWING` points: sessions hover around the default
/// 3 × 8 × 7 = 168-cell grid instead of drifting to a size of the
/// generator's choosing.
const AXIS_SWING: usize = 4;

const SETUP_SAMPLES: usize = 21;

/// Whether the next edit of an axis of `len` points (default `home`) adds.
fn adds(rng: &mut Rng, len: usize, home: usize) -> bool {
    let p = 0.5 + (home as f64 - len as f64) / (2 * AXIS_SWING) as f64;
    rng.unit() < p
}

/// Generates one client's delta batches: 40% bandwidth-axis edits, 40%
/// latency-axis edits, 18.5% weight changes and 1.5% `set_system`, 1 to 12
/// ops a POST. The shares are the benchmark's choice; the workload names
/// only the op kinds. The generator tracks both axes so every removal
/// names a point that exists, and every bandwidth point stays feasible
/// under every `set_system` it may pick.
pub fn delta_posts(seed: u64, client: usize, count: usize) -> Vec<String> {
    let mut rng = Rng::fork(seed, &format!("stream-client-{client}"));
    let mut bw: Vec<f64> = default_bandwidth_deltas();
    let mut lat: Vec<f64> = default_latency_steps();
    let (bw_home, lat_home) = (bw.len(), lat.len());
    let has = |axis: &[f64], v: f64| axis.iter().any(|x| x.to_bits() == v.to_bits());
    (0..count)
        .map(|_| {
            let n = rng.between(1, 12);
            let ops: Vec<Json> = (0..n)
                .map(|_| {
                    let r = rng.unit();
                    if r < 0.40 {
                        if adds(&mut rng, bw.len(), bw_home) {
                            // Per-core deltas in -3.4..=1.5 GB/s: feasible on
                            // every system below (≥ 5.2 GB/s per core).
                            let v = rng.between(0, 98) as f64 * 0.05 - 3.4 + 0.0;
                            if !has(&bw, v) {
                                bw.push(v);
                            }
                            return Json::obj(vec![
                                ("op", Json::str("add_bandwidth")),
                                ("delta", Json::num(v)),
                            ]);
                        }
                        let v = bw.swap_remove(rng.below(bw.len()));
                        return Json::obj(vec![
                            ("op", Json::str("remove_bandwidth")),
                            ("delta", Json::num(v)),
                        ]);
                    }
                    if r < 0.80 {
                        if adds(&mut rng, lat.len(), lat_home) {
                            let v = rng.between(0, 60) as f64 * 2.5;
                            if !has(&lat, v) {
                                lat.push(v);
                            }
                            return Json::obj(vec![
                                ("op", Json::str("add_latency")),
                                ("step_ns", Json::num(v)),
                            ]);
                        }
                        let v = lat.swap_remove(rng.below(lat.len()));
                        return Json::obj(vec![
                            ("op", Json::str("remove_latency")),
                            ("step_ns", Json::num(v)),
                        ]);
                    }
                    if r < 0.985 {
                        return Json::obj(vec![
                            ("op", Json::str("set_weight")),
                            ("workload", Json::num(rng.below(3) as f64)),
                            ("weight", Json::num(rng.range(0.1, 4.0, 2))),
                        ]);
                    }
                    let system = Json::obj(vec![
                        (
                            "channels_per_socket",
                            Json::num(*rng.pick(&[4.0, 6.0, 8.0])),
                        ),
                        (
                            "channel_mega_transfers",
                            Json::num(*rng.pick(&[1866.7, 2133.0, 2400.0])),
                        ),
                        ("core_clock_ghz", Json::num(rng.range(2.2, 3.2, 2))),
                        ("unloaded_latency_ns", Json::num(rng.range(65.0, 90.0, 1))),
                    ]);
                    Json::obj(vec![("op", Json::str("set_system")), ("system", system)])
                })
                .collect();
            Json::obj(vec![("deltas", Json::Arr(ops))]).to_string()
        })
        .collect()
}

const FLUSH: &str = "{\"deltas\":[{\"op\":\"flush\"}]}";

/// An acknowledgement's checked fields.
type Ack = [u64; 6];

fn wire_ack(body: &Json) -> Ack {
    let get = |k: &str| body.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    [
        get("accepted"),
        get("applied_deltas"),
        get("cells_resolved"),
        get("cells_skipped"),
        get("pending"),
        get("seq"),
    ]
}

fn local_ack(ack: &SubmitAck) -> Ack {
    [
        ack.accepted as u64,
        ack.applied_deltas,
        ack.cells_resolved,
        ack.cells_skipped,
        ack.pending as u64,
        ack.seq,
    ]
}

/// Cell identity from a rendered cell.
fn cell_id(cell: &Json) -> (u64, u64, u64) {
    let bits = |k: &str| {
        cell.get(k)
            .and_then(Json::as_f64)
            .map_or(u64::MAX, |v| (v + 0.0).to_bits())
    };
    (
        cell.get("workload_index")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX),
        bits("bandwidth_delta_gbps"),
        bits("latency_step_ns"),
    )
}

/// The grid a client has folded from its update stream.
type Folded = BTreeMap<(u64, u64, u64), Json>;

/// Folds an NDJSON `/updates` body into `cells`; returns updates folded.
fn fold(cells: &mut Folded, ndjson: &str) -> Result<usize, String> {
    let mut n = 0;
    for line in ndjson.lines().filter(|l| !l.is_empty()) {
        let update = Json::parse(line).map_err(|e| format!("update: {e}"))?;
        for key in update.get("removed").and_then(Json::as_arr).unwrap_or(&[]) {
            cells.remove(&cell_id(key));
        }
        for cell in update.get("changed").and_then(Json::as_arr).unwrap_or(&[]) {
            cells.insert(cell_id(cell), cell.clone());
        }
        n += 1;
    }
    Ok(n)
}

/// One client's wire run.
#[derive(Default)]
struct ClientRun {
    /// POST → updates drained, ms.
    /// `(seconds since the loop started at its end, POST → drained ms)`.
    iterations: Vec<(f64, f64)>,
    post_ms: Vec<f64>,
    get_ms: Vec<f64>,
    acks: Vec<Ack>,
    /// `(seconds since the loop started, deltas applied)` per POST.
    applied_at: Vec<(f64, u64)>,
    folded: Folded,
    errors: Vec<String>,
    /// Iterations run before the traced half started.
    untraced: usize,
}

/// GETs `/updates` until the session answers (it may be mid-delta),
/// returning the NDJSON body.
fn drain(client: &mut PollClient, path: &str, run: &mut ClientRun) -> Result<String, String> {
    loop {
        let started = Instant::now();
        let (status, text) = client
            .request("GET", path, "")
            .map_err(|e| format!("GET updates: {e}"))?;
        run.get_ms.push(started.elapsed().as_secs_f64() * 1e3);
        match status {
            200 => return Ok(text),
            // The session is mid-delta: poll again.
            503 => continue,
            s => return Err(format!("GET updates answered {s}")),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    server: &Server,
    session: u64,
    posts: &[String],
    start: Instant,
    stop: Instant,
    trace_from: Option<Instant>,
    rec: &mut Recorder,
    c: usize,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = match PollClient::connect(&server.addr) {
        Ok(c) => c,
        Err(e) => {
            run.errors.push(e);
            return run;
        }
    };
    let delta_path = format!("/v1/stream/{session}/delta");
    let updates_path = format!("/v1/stream/{session}/updates");
    // Seq-0 update: the opening full solve.
    if let Err(e) =
        drain(&mut client, &updates_path, &mut run).and_then(|t| fold(&mut run.folded, &t))
    {
        run.errors.push(e);
        return run;
    }
    run.get_ms.clear();
    for body in posts {
        let t0 = Instant::now();
        if t0 >= stop {
            break;
        }
        let traced = trace_from.is_some_and(|t| t0 >= t);
        if !traced {
            run.untraced += 1;
        }
        let result = client.request("POST", &delta_path, body);
        let t1 = Instant::now();
        let (status, text) = match result {
            Ok(r) => r,
            Err(e) => {
                run.errors.push(format!("POST delta: {e}"));
                break;
            }
        };
        run.post_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
        if status != 200 {
            run.errors
                .push(format!("POST delta answered {status}: {text}"));
            break;
        }
        let ack = Json::parse(&text)
            .map(|j| wire_ack(&j))
            .unwrap_or([u64::MAX; 6]);
        // An unreadable ack (u64::MAX fields) fails the ack check later.
        let applied = if ack[1] == u64::MAX { 0 } else { ack[1] };
        run.applied_at
            .push((t1.duration_since(start).as_secs_f64(), applied));
        run.acks.push(ack);
        let updates = match drain(&mut client, &updates_path, &mut run) {
            Ok(text) => text,
            Err(e) => {
                run.errors.push(e);
                break;
            }
        };
        let t2 = Instant::now();
        // Folded outside the timed window: it is the checker's work.
        if let Err(e) = fold(&mut run.folded, &updates) {
            run.errors.push(e);
            break;
        }
        run.iterations.push((
            t2.duration_since(start).as_secs_f64(),
            t2.duration_since(t0).as_secs_f64() * 1e3,
        ));
        if traced {
            let trace = ((c as u64) << 32) | run.acks.len() as u64;
            let root = rec.reserve();
            rec.record(trace, Some(root), "client.delta_post", t0, t1, vec![]);
            rec.record(trace, Some(root), "client.updates_drain", t1, t2, vec![]);
            rec.record_as(root, trace, None, "client.iteration", t0, t2, vec![]);
        }
    }
    // Apply whatever is pending so the final state is comparable.
    match client.request("POST", &delta_path, FLUSH) {
        Ok((200, text)) => {
            let ack = Json::parse(&text)
                .map(|j| wire_ack(&j))
                .unwrap_or([u64::MAX; 6]);
            run.acks.push(ack);
            if let Err(e) =
                drain(&mut client, &updates_path, &mut run).and_then(|t| fold(&mut run.folded, &t))
            {
                run.errors.push(e);
            }
        }
        Ok((s, t)) => run.errors.push(format!("flush answered {s}: {t}")),
        Err(e) => run.errors.push(format!("flush: {e}")),
    }
    run
}

/// Replays what a client sent through an in-process session and checks
/// acks, folded cells and the from-scratch equivalence.
fn verify(posts: &[String], batch: usize, run: &ClientRun, out: &mut Outcome) {
    let mut session = match Session::open(GridSpec::default_grid(), batch) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("Session::open: {e}"));
            return;
        }
    };
    let sent = run.acks.len().saturating_sub(1);
    let mut cells = Vec::with_capacity(sent + 1);
    for (i, body) in posts[..sent]
        .iter()
        .map(String::as_str)
        .chain([FLUSH])
        .enumerate()
    {
        let ops = match Json::parse(body)
            .map_err(|e| e.to_string())
            .and_then(|j| api::stream_deltas(&j).map_err(|e| e.message))
        {
            Ok(ops) => ops,
            Err(e) => {
                out.fail(format!("delta body {i} does not parse: {e}"));
                return;
            }
        };
        match session.submit(&ops) {
            Ok(ack) => {
                cells.push(session.spec().cell_count() as f64);
                if local_ack(&ack) != run.acks[i] {
                    out.fail(format!(
                        "ack {i} differs: wire {:?} vs in-process {:?}",
                        run.acks[i],
                        local_ack(&ack)
                    ));
                }
            }
            Err(e) => out.fail(format!("in-process submit {i} failed: {e}")),
        }
    }
    drain_job_log();
    out.note(format!(
        "batch {batch} session: committed grid {} cells on average over {} POSTs (range {}..={})",
        mean(&cells).round(),
        cells.len(),
        cells.iter().copied().fold(f64::INFINITY, f64::min),
        cells.iter().copied().fold(0.0, f64::max)
    ));
    let snapshot = session.snapshot();
    match Session::open(session.spec().clone(), batch) {
        Ok(scratch) if scratch.snapshot() == snapshot => {}
        Ok(_) => out.fail("incremental session differs from a from-scratch open".into()),
        Err(e) => out.fail(format!("from-scratch open: {e}")),
    }
    drain_job_log();
    let Ok(parsed) = Json::parse(&snapshot) else {
        out.fail("snapshot does not parse".into());
        return;
    };
    let expected: Folded = parsed
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|c| (cell_id(c), c.clone()))
        .collect();
    if expected != run.folded {
        out.fail(format!(
            "cells folded from /updates ({}) differ from the session ({})",
            run.folded.len(),
            expected.len()
        ));
    }
}

/// Per-layer sums of the fixed-length traced replay.
#[derive(Default)]
struct Replay {
    submit_ms: Vec<f64>,
    resolved: u64,
    skipped: u64,
    applied: u64,
    update_bytes: u64,
    dirty_widths: Vec<f64>,
    solve_cell_ns: Vec<f64>,
    solves: u64,
    iterations: u64,
}

fn replay(
    posts: &[String],
    batch: usize,
    client: usize,
    rec: &mut Recorder,
    r: &mut Replay,
) -> Result<(), String> {
    let mut session = Session::open(GridSpec::default_grid(), batch).map_err(|e| e.to_string())?;
    session.take_updates();
    let curve = QueueingCurve::composite_default();
    for (i, body) in posts.iter().take(TRACE_POSTS).enumerate() {
        let json = Json::parse(body).map_err(|e| e.to_string())?;
        let ops = api::stream_deltas(&json).map_err(|e| e.message)?;
        let trace = (1u64 << 48) | ((client as u64) << 32) | i as u64;
        let root = rec.reserve();
        let before = solver_telemetry::snapshot();
        let t0 = Instant::now();
        let ack = session.submit(&ops).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let solved = solver_telemetry::snapshot().since(&before);
        let updates = session.take_updates();
        let t2 = Instant::now();
        r.submit_ms.push(t1.duration_since(t0).as_secs_f64() * 1e3);
        r.resolved += ack.cells_resolved;
        r.skipped += ack.cells_skipped;
        r.applied += ack.applied_deltas;
        r.solves += solved.solves;
        r.iterations += solved.iterations;
        rec.record(
            trace,
            Some(root),
            "replay.submit",
            t0,
            t1,
            vec![
                ("cells_resolved", ack.cells_resolved as f64),
                ("cells_skipped", ack.cells_skipped as f64),
                ("applied_deltas", ack.applied_deltas as f64),
            ],
        );
        rec.record(trace, Some(root), "replay.take_updates", t1, t2, vec![]);
        if ack.applied_batches > 0 {
            r.dirty_widths
                .push(ack.cells_resolved as f64 / ack.applied_batches as f64);
        }
        // Re-solve the changed cells one by one through grid::solve_cell to
        // price a single solve; done after the submit it belongs to.
        let mut end = t2;
        for u in &updates {
            r.update_bytes += u.body.len() as u64;
            let parsed = Json::parse(&u.body).map_err(|e| e.to_string())?;
            for cell in parsed.get("changed").and_then(Json::as_arr).unwrap_or(&[]) {
                let (w, b, l) = cell_id(cell);
                let key = CellKey::new(w as usize, f64::from_bits(b), f64::from_bits(l));
                let s = Instant::now();
                solve_cell(session.spec(), key, &curve).map_err(|e| e.to_string())?;
                end = Instant::now();
                r.solve_cell_ns
                    .push(end.duration_since(s).as_nanos() as f64);
                rec.record(trace, Some(root), "replay.solve_cell", s, end, vec![]);
            }
        }
        rec.record_as(root, trace, None, "replay.post", t0, end, vec![]);
    }
    drain_job_log();
    Ok(())
}

/// One `par_map` of trivial jobs `width` wide, in microseconds (median of
/// repeated calls).
fn dispatch_us(width: usize) -> f64 {
    let items: Vec<usize> = (0..width.max(1)).collect();
    let samples: Vec<f64> = (0..300)
        .map(|_| {
            let started = Instant::now();
            let out = par_map("membench.dispatch", items.clone(), |x| {
                Ok::<_, ()>(std::hint::black_box(x))
            });
            std::hint::black_box(out.ok());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drain_job_log();
    median(&samples)
}

fn open_sessions(server: &Server, clients: usize) -> Result<Vec<u64>, String> {
    let mut client = PollClient::connect(&server.addr)?;
    (0..clients)
        .map(|c| {
            let body = format!("{{\"batch\":{}}}", BATCHES[c % BATCHES.len()]);
            let (status, text) = client
                .request("POST", "/v1/stream/open", &body)
                .map_err(|e| format!("open: {e}"))?;
            if status != 200 {
                return Err(format!("open answered {status}: {text}"));
            }
            Json::parse(&text)
                .ok()
                .and_then(|j| j.get("session").and_then(Json::as_u64))
                .ok_or_else(|| format!("open response without a session: {text}"))
        })
        .collect()
}

/// Starts the daemon and opens every client's session: the set-up of a
/// run, returned with its time in seconds.
fn set_up(bin: &std::path::Path, nproc: usize) -> Result<(Server, Vec<u64>, f64), String> {
    let started = Instant::now();
    let server = Server::start(bin, nproc)?;
    let sessions = open_sessions(&server, nproc)?;
    Ok((server, sessions, started.elapsed().as_secs_f64()))
}

/// Times `n` set-ups that are shut down again at once.
fn setup_probes(
    bin: &std::path::Path,
    nproc: usize,
    n: usize,
    setup: &mut Vec<f64>,
    out: &mut Outcome,
) {
    for _ in 0..n {
        match set_up(bin, nproc) {
            Ok((server, _, s)) => {
                setup.push(s);
                if let Err(e) = server.shutdown() {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(e),
        }
    }
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
    let posts: Vec<Vec<String>> = (0..nproc)
        .map(|c| delta_posts(seed, c, POSTS_PER_CLIENT))
        .collect();
    // One set-up sample is the measured run's own; the others are taken
    // after the measurement, when the CPUs are as busy as in the run
    // (set-ups right after an idle spell read slower).
    let mut setup = Vec::new();
    let (server, sessions) = match set_up(bin, nproc) {
        Ok((server, sessions, s)) => {
            setup.push(s);
            (server, sessions)
        }
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let trace_from = traced.then(|| start + Duration::from_secs_f64(seconds / 2.0));
    let windows = ((seconds / WINDOW_S).floor() as usize).max(1);
    let mut ticks = vec![crate::util::cpu_ticks()];
    let (runs, mut recorders): (Vec<ClientRun>, Vec<Recorder>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc)
            .map(|c| {
                let server = &server;
                let posts = &posts[c];
                let session = sessions[c];
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, 20 + c as u64);
                    let run =
                        client_loop(server, session, posts, start, stop, trace_from, &mut rec, c);
                    (run, rec)
                })
            })
            .collect();
        // Hypervisor steal per window, read at each window boundary.
        for w in 1..=windows {
            let at = start + Duration::from_secs_f64(WINDOW_S * w as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            ticks.push(crate::util::cpu_ticks());
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut run = ClientRun::default();
                    run.errors.push("client thread panicked".into());
                    (run, Recorder::new(epoch, 0))
                })
            })
            .unzip()
    });
    let elapsed = start.elapsed().as_secs_f64().min(seconds.max(1e-9));
    let after = server.metrics().unwrap_or(Json::Null);
    let rss = server.peak_rss_mb();
    if let Err(e) = server.shutdown() {
        out.fail(e);
    }
    setup_probes(bin, nproc, SETUP_SAMPLES - 1, &mut setup, out);

    for (c, run) in runs.iter().enumerate() {
        out.attempted += run.acks.len() as u64;
        for e in &run.errors {
            out.fail(format!("client {c}: {e}"));
        }
    }
    std::thread::scope(|scope| {
        let checks: Vec<_> = runs
            .iter()
            .enumerate()
            .map(|(c, run)| {
                let posts = &posts[c];
                scope.spawn(move || {
                    let mut check = Outcome::default();
                    verify(posts, BATCHES[c % BATCHES.len()], run, &mut check);
                    check
                })
            })
            .collect();
        for h in checks {
            match h.join() {
                Ok(check) => {
                    out.failed += check.failed;
                    out.failures.extend(check.failures);
                    out.notes.extend(check.notes);
                }
                Err(_) => out.fail("verification thread panicked".into()),
            }
        }
    });

    let steal: Vec<f64> = ticks
        .windows(2)
        .map(|w| crate::util::steal_share(w[0], w[1]))
        .collect();
    let kept = crate::util::quieter_half(&steal);
    let window_of = |at: f64| (at / WINDOW_S) as usize;
    let mut per_window = vec![0u64; windows];
    for (at, n) in runs.iter().flat_map(|r| r.applied_at.iter()) {
        if let Some(w) = per_window.get_mut(window_of(*at)) {
            *w += n;
        }
    }
    // The mean rate over the kept windows: the cost of a delta depends on
    // the cells it dirties, so single windows vary with their deltas and a
    // mean uses all of them.
    let deltas_per_s = ratio(
        kept.iter().map(|&w| per_window[w] as f64).sum(),
        kept.len() as f64 * WINDOW_S,
    );
    let applied: u64 = per_window.iter().sum();
    let lat = sorted(
        runs.iter()
            .flat_map(|r| r.iterations.iter())
            .filter(|(at, _)| kept.contains(&window_of(*at)))
            .map(|&(_, ms)| ms)
            .collect(),
    );
    let t = tail(&lat);
    out.note(format!(
        "metrics from the {} of {windows} windows of {WINDOW_S} s with the least hypervisor steal (steal per window: {:?})",
        kept.len(),
        steal.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    out.note(format!(
        "deltas_per_s = {deltas_per_s:.1} (mean over those windows; {applied} deltas applied by {nproc} clients, batches {:?}, in {elapsed:.3} s; per window: {per_window:?})",
        &BATCHES[..nproc.min(BATCHES.len())]
    ));
    out.note(format!(
        "POST→drained: p50 {:.3} ms, p{:.2} {:.3} ms over {} iterations",
        nearest_rank(&lat, 50.0),
        t.percentile,
        t.value,
        t.samples
    ));
    out.note(format!("setup samples: {setup:?}"));
    out.push("setup_s", "s", median(&setup));
    out.push("throughput", "1/s", deltas_per_s);
    out.push("p50_ms", "ms", nearest_rank(&lat, 50.0));
    out.push("p99_ms", "ms", t.value);
    out.push("peak_rss_mb", "MB", rss);

    if !traced {
        return;
    }
    let mut rec = Recorder::new(epoch, 3);
    let mut r = Replay::default();
    for c in 0..nproc {
        if let Err(e) = replay(&posts[c], BATCHES[c % BATCHES.len()], c, &mut rec, &mut r) {
            out.fail(format!("replay: {e}"));
        }
    }
    let width = median(&r.dirty_widths).round() as usize;
    let submit_total: f64 = r.submit_ms.iter().sum();
    let solve_total_ms = mean(&r.solve_cell_ns) / 1e6 * r.resolved as f64;
    let stream_endpoints = ["/v1/stream/delta", "/v1/stream/updates"];
    let (server_mean, server_p50, server_p99, _) =
        crate::serve::server_latency(&after, &stream_endpoints);
    let client_mean = mean(
        &runs
            .iter()
            .flat_map(|r| r.post_ms.iter().chain(&r.get_ms).copied())
            .collect::<Vec<_>>(),
    );
    // Server-side wait per POST: wire time minus the same POST's in-process
    // submit time (same bodies, same order, so the same work).
    let queue: Vec<f64> = runs
        .iter()
        .enumerate()
        .flat_map(|(c, run)| {
            let offset = c * TRACE_POSTS;
            let submit = &r.submit_ms;
            run.post_ms
                .iter()
                .take(TRACE_POSTS)
                .enumerate()
                .filter_map(move |(i, p)| submit.get(offset + i).map(|s| p - s))
        })
        .collect();
    let untraced: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.iterations.iter().take(r.untraced).map(|&(_, ms)| ms))
        .collect();
    let traced_lat: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.iterations.iter().skip(r.untraced).map(|&(_, ms)| ms))
        .collect();
    let iteration_mean = mean(&lat);
    let replay_mean = ratio(submit_total, r.submit_ms.len() as f64);
    out.layer("executor.dispatch_us", dispatch_us(width));
    out.layer("serve.server_p50_ms", server_p50);
    out.layer("serve.server_p99_ms", server_p99);
    out.layer("serve.outside_ms", client_mean - server_mean);
    out.layer("serve.queue_ms", median(&queue));
    out.layer(
        "model.solves_per_request",
        ratio(r.solves as f64, r.submit_ms.len() as f64),
    );
    out.layer(
        "model.iterations_per_solve",
        ratio(r.iterations as f64, r.solves as f64),
    );
    out.layer("stream.submit_ms", replay_mean);
    out.layer("stream.cells_resolved", r.resolved as f64);
    out.layer("stream.cells_skipped", r.skipped as f64);
    out.layer(
        "stream.skip_ratio",
        ratio(r.skipped as f64, (r.resolved + r.skipped) as f64),
    );
    out.layer("stream.solve_share", ratio(solve_total_ms, submit_total));
    out.layer(
        "stream.update_bytes_per_delta",
        ratio(r.update_bytes as f64, r.applied as f64),
    );
    out.layer(
        "bench.trace_overhead",
        ratio(median(&traced_lat), median(&untraced)) - 1.0,
    );
    out.layer(
        "bench.unattributed_share",
        1.0 - ratio(replay_mean, iteration_mean),
    );
    out.note(format!(
        "replay: {} POSTs, {} cells re-solved, {} skipped, dirty-set width {width}",
        r.submit_ms.len(),
        r.resolved,
        r.skipped
    ));
    // The request-path layers the deltas bypass (result cache, model
    // handlers), from an in-process replay of the seed's model-query mix;
    // `serve.hit_ratio` and `serve.evictions` come from its result cache.
    crate::serve::replay_request_path(seed, seconds, nproc, &mut rec, out);
    recorders.push(rec);
    let spans: Vec<_> = recorders.into_iter().flat_map(|r| r.spans).collect();
    let path = crate::trace::trace_path("stream_whatif", seed);
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
    fn same_seed_gives_byte_identical_delta_lists() {
        assert_eq!(delta_posts(9, 0, 200), delta_posts(9, 0, 200));
        assert_ne!(delta_posts(9, 0, 50), delta_posts(9, 1, 50));
        assert_ne!(delta_posts(9, 0, 50), delta_posts(10, 0, 50));
    }

    #[test]
    fn generated_deltas_never_fail_and_match_a_from_scratch_open() {
        for (client, batch) in [(0usize, 8usize), (1, 64)] {
            let posts = delta_posts(4, client, 600);
            let mut session = Session::open(GridSpec::default_grid(), batch).unwrap();
            let mut set_system = 0;
            for body in &posts {
                let ops = api::stream_deltas(&Json::parse(body).unwrap()).unwrap();
                set_system += body.matches("set_system").count();
                session.submit(&ops).unwrap();
            }
            session
                .submit(&[memsense_stream::session::Delta::Flush])
                .unwrap();
            let spec = session.spec().clone();
            assert!(set_system > 0, "set_system is rare but present");
            let scratch = Session::open(spec, batch).unwrap();
            assert_eq!(scratch.snapshot(), session.snapshot());
        }
    }

    #[test]
    fn sessions_stay_around_the_default_grid() {
        let home = GridSpec::default_grid();
        let (bw, lat) = (home.bandwidth_deltas.len(), home.latency_steps_ns.len());
        assert_eq!(home.cell_count(), 168);
        for seed in [1u64, 2, 3] {
            let mut session = Session::open(GridSpec::default_grid(), 1).unwrap();
            let mut cells = Vec::new();
            for body in delta_posts(seed, 0, 2_000) {
                let ops = api::stream_deltas(&Json::parse(&body).unwrap()).unwrap();
                session.submit(&ops).unwrap();
                let spec = session.spec();
                assert!(spec.bandwidth_deltas.len().abs_diff(bw) <= AXIS_SWING);
                assert!(spec.latency_steps_ns.len().abs_diff(lat) <= AXIS_SWING);
                cells.push(spec.cell_count() as f64);
            }
            let m = mean(&cells);
            assert!(
                (140.0..=200.0).contains(&m),
                "seed {seed}: mean grid {m} cells"
            );
        }
    }

    #[test]
    fn folding_updates_reproduces_the_session_cells() {
        let mut session = Session::open(GridSpec::default_grid(), 8).unwrap();
        let mut folded = Folded::new();
        let render = |updates: Vec<memsense_stream::session::Update>| {
            updates
                .iter()
                .map(|u| format!("{}\n", u.body))
                .collect::<String>()
        };
        fold(&mut folded, &render(session.take_updates())).unwrap();
        for body in delta_posts(1, 0, 100) {
            let ops = api::stream_deltas(&Json::parse(&body).unwrap()).unwrap();
            session.submit(&ops).unwrap();
            fold(&mut folded, &render(session.take_updates())).unwrap();
        }
        let snapshot = Json::parse(&session.snapshot()).unwrap();
        let expected: Folded = snapshot
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| (cell_id(c), c.clone()))
            .collect();
        assert_eq!(folded, expected);
    }
}
