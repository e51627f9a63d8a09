//! `sim_characterize`: the paper's characterization and calibration
//! pipeline on the simulator — the seven `simbench` stages, run pass
//! after pass in a worker process at `MEMSENSE_THREADS = nproc`.
//!
//! The stages seed their own machines, so every pass simulates exactly
//! the same ops; `--seed` only shuffles the stage order of each pass. The
//! digest of the stage results is therefore a constant: it must equal
//! [`RECORDED_DIGEST`] at `nproc` threads and again at one thread.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use memsense_experiments::calibrate::{
    calibrate, fit_from_samples, measure_at, CalibrationBudget, CORE_SPEEDS_GHZ,
};
use memsense_experiments::executor::{drain_job_log, par_map_full, thread_count};
use memsense_experiments::io_pressure::{io_pressure, io_pressure_table, IoPressurePoint};
use memsense_experiments::json::Json;
use memsense_experiments::render::f;
use memsense_experiments::simbench::STAGES;
use memsense_experiments::timeseries::{characterize, class_series, SeriesBudget};
use memsense_sim::config::MemoryConfig;
use memsense_sim::telemetry::{self, TelemetrySnapshot};
use memsense_sim::trace::OpBlock;
use memsense_workloads::{Class, Workload};

use crate::proc::Proc;
use crate::trace::Recorder;
use crate::util::{fnv1a, median, ratio, sorted, Outcome, Rng};

/// Digest of the seven stage results (see [`combined_digest`]), recorded
/// from a serial run. A simulator change that moves any simulated number
/// changes it.
pub const RECORDED_DIGEST: &str = "a700bb28723a784b";

/// `io_pressure_table` arguments, as `simbench` runs the stage (its stage
/// runner is private, so the benchmark dispatches the stage names itself
/// and fails on a name it does not know).
const IO_THREADS: u32 = 4;
const IO_WARMUP_OPS: u64 = 40_000;
const IO_WINDOW_NS: f64 = 60_000.0;

/// Setup samples per run: the measuring worker plus probe workers.
const SETUP_SAMPLES: usize = 21;

/// Ops drained per generator stream by the `workloads.gen_ns_per_op` probe.
const GEN_OPS_PER_STREAM: usize = 60_000;

fn class_of(stage: &str) -> Option<Class> {
    match stage {
        "timeseries/bigdata" => Some(Class::BigData),
        "timeseries/enterprise" => Some(Class::Enterprise),
        "timeseries/hpc" => Some(Class::Hpc),
        _ => None,
    }
}

fn calibrated_workload(stage: &str) -> Option<Workload> {
    match stage {
        "calibrate/oltp" => Some(Workload::Oltp),
        "calibrate/spark" => Some(Workload::Spark),
        "calibrate/bwaves" => Some(Workload::Bwaves),
        _ => None,
    }
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Digest over per-stage digests, in [`STAGES`] order.
pub fn combined_digest(stage_digests: &BTreeMap<String, String>) -> String {
    let mut text = String::new();
    for stage in STAGES {
        let d = stage_digests.get(stage).map_or("missing", String::as_str);
        text.push_str(&format!("{stage}={d};"));
    }
    hex(fnv1a(text.as_bytes()))
}

/// One stage run: result digest, stage wall and instance walls.
struct StageRun {
    digest: String,
    wall: Duration,
    /// Instance walls (traced runs only).
    instances: Vec<Duration>,
    work: TelemetrySnapshot,
    /// The rendered I/O-pressure table (untraced `io_pressure` only).
    io_csv: Option<String>,
}

/// Runs one stage through the program's own stage function.
fn run_stage(stage: &str) -> Result<StageRun, String> {
    let before = telemetry::snapshot();
    let started = Instant::now();
    let fail = |e: memsense_experiments::ExperimentError| format!("{stage}: {e}");
    let mut io_csv = None;
    let text = if let Some(class) = class_of(stage) {
        format!(
            "{:?}",
            class_series(class, &SeriesBudget::quick()).map_err(fail)?
        )
    } else if let Some(w) = calibrated_workload(stage) {
        format!(
            "{:?}",
            calibrate(w, &CalibrationBudget::quick()).map_err(fail)?
        )
    } else if stage == "io_pressure" {
        let csv = io_pressure_table(IO_THREADS, IO_WARMUP_OPS, IO_WINDOW_NS)
            .map_err(fail)?
            .to_csv();
        io_csv = Some(csv.clone());
        csv
    } else {
        return Err(format!("unknown simbench stage {stage:?}"));
    };
    let wall = started.elapsed();
    let work = telemetry::snapshot().delta_since(&before);
    // The executor logs every instance; the log only grows until drained.
    drain_job_log();
    Ok(StageRun {
        digest: hex(fnv1a(text.as_bytes())),
        wall,
        instances: Vec::new(),
        work,
        io_csv,
    })
}

/// Runs one instance function on the executor, timing each call.
fn timed_instances<I, T, F>(
    items: Vec<I>,
    label: impl Fn(&I) -> String + Sync,
    f: F,
) -> Vec<(String, Instant, Instant, Result<T, String>)>
where
    I: Send,
    T: Send,
    F: Fn(I) -> Result<T, memsense_experiments::ExperimentError> + Sync,
{
    let out = par_map_full(
        items,
        |_, item| label(item),
        |item| {
            let name = label(&item);
            let start = Instant::now();
            let result = f(item).map_err(|e| format!("{name}: {e}"));
            Ok::<_, ()>((name, start, Instant::now(), result))
        },
    );
    drain_job_log();
    out.into_iter().flatten().collect()
}

/// Runs one stage instance by instance (`characterize`, `measure_at`,
/// `io_pressure`), recording a span per call under a stage span.
/// Telemetry deltas are recorded on the stage span only: the counters are
/// process-wide and co-running instances flush into them concurrently, so
/// they cannot be split per instance.
fn run_stage_traced(
    stage: &str,
    trace_id: u64,
    rec: &mut Recorder,
    io_table: Option<&str>,
) -> Result<StageRun, String> {
    let before = telemetry::snapshot();
    let started = Instant::now();
    let stage_span = rec.reserve();
    let mut spans: Vec<(String, Instant, Instant)> = Vec::new();
    let mut keep = |name: String, s: Instant, e: Instant| spans.push((name, s, e));
    let text = if let Some(class) = class_of(stage) {
        let workloads: Vec<Workload> = Workload::all()
            .into_iter()
            .filter(|w| w.class() == class)
            .collect();
        let runs = timed_instances(
            workloads,
            |w| format!("characterize/{}", w.name()),
            |w| characterize(w, &SeriesBudget::quick()),
        );
        let mut series = Vec::new();
        for (name, s, e, r) in runs {
            keep(name, s, e);
            series.push(r?);
        }
        format!("{series:?}")
    } else if let Some(w) = calibrated_workload(stage) {
        let mut points = Vec::new();
        for memory in [MemoryConfig::ddr3_1867(), MemoryConfig::ddr3_1333()] {
            for ghz in CORE_SPEEDS_GHZ {
                points.push((memory, ghz));
            }
        }
        let budget = CalibrationBudget::quick();
        let runs = timed_instances(
            points,
            |(m, ghz)| {
                format!(
                    "measure_at/{} @ {ghz:.1} GHz {:.0} MT/s",
                    w.name(),
                    m.mega_transfers
                )
            },
            |(m, ghz)| measure_at(w, ghz, m, &budget),
        );
        let mut samples = Vec::new();
        for (name, s, e, r) in runs {
            keep(name, s, e);
            samples.push(r?);
        }
        let fit = fit_from_samples(w, samples).map_err(|e| format!("{stage}: {e}"))?;
        format!("{fit:?}")
    } else if stage != "io_pressure" {
        return Err(format!("unknown simbench stage {stage:?}"));
    } else {
        let workloads: Vec<Workload> = Workload::all()
            .into_iter()
            .filter(|w| w.class() == Class::BigData)
            .collect();
        let runs = timed_instances(
            workloads.clone(),
            |w| format!("io_pressure/{}", w.name()),
            |w| io_pressure(w, IO_THREADS, IO_WARMUP_OPS, IO_WINDOW_NS),
        );
        let mut points: Vec<(Workload, Vec<IoPressurePoint>)> = Vec::new();
        for ((name, s, e, r), w) in runs.into_iter().zip(workloads) {
            keep(name, s, e);
            points.push((w, r?));
        }
        // The traced calls return points, the stage function a rendered
        // table: check that the points render to the table's cells.
        let table = io_table.ok_or("io_pressure traced before any untraced pass")?;
        if !points_match_table(&points, table) {
            return Err("traced io_pressure points differ from the stage table".into());
        }
        table.to_string()
    };
    let end = Instant::now();
    let work = telemetry::snapshot().delta_since(&before);
    let mut instances = Vec::new();
    for (name, s, e) in spans {
        instances.push(e.duration_since(s));
        rec.record(trace_id, Some(stage_span), name, s, e, vec![]);
    }
    rec.record_as(
        stage_span,
        trace_id,
        None,
        stage,
        started,
        end,
        vec![
            ("ops", work.ops as f64),
            ("cache_accesses", work.cache_accesses as f64),
            ("tlb_accesses", work.tlb_accesses as f64),
            ("prefetch_fills", work.prefetch_fills as f64),
        ],
    );
    Ok(StageRun {
        digest: hex(fnv1a(text.as_bytes())),
        wall: end.duration_since(started),
        instances,
        work,
        io_csv: None,
    })
}

/// Whether every point's DMA rate, CPI and bandwidth cells appear, in
/// order, in the CSV the stage function rendered.
fn points_match_table(points: &[(Workload, Vec<IoPressurePoint>)], csv: &str) -> bool {
    let rows: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let expected: Vec<(String, String, String, String)> = points
        .iter()
        .flat_map(|(w, ps)| {
            ps.iter().map(move |p| {
                (
                    w.name().to_string(),
                    f(p.dma_gbps, 0),
                    f(p.cpi, 3),
                    f(p.total_bandwidth_gbps, 1),
                )
            })
        })
        .collect();
    rows.len() == expected.len()
        && rows.iter().zip(&expected).all(|(row, (w, dma, cpi, bw))| {
            row.len() == 5 && row[0] == w && row[1] == dma && row[2] == cpi && row[4] == bw
        })
}

/// Drains the stages' generators through `fill_block` alone, returning
/// host nanoseconds per generated op.
fn generator_ns_per_op() -> f64 {
    let mut block = OpBlock::new();
    let mut samples = Vec::new();
    for _ in 0..3 {
        let mut ops = 0usize;
        let started = Instant::now();
        for w in Workload::all() {
            // `characterize` at the quick budget runs every class on 4 threads.
            for mut stream in w.streams(4, 0x5e71e5) {
                let mut left = GEN_OPS_PER_STREAM;
                while left > 0 {
                    let n = left.min(32);
                    stream.fill_block(&mut block, n);
                    ops += std::hint::black_box(block.ops.len());
                    left -= n;
                }
            }
        }
        samples.push(started.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples)
}

fn warm_up() -> Result<(), String> {
    let tiny = CalibrationBudget {
        warmup_ops: 2_000,
        window_ns: 2_000.0,
        threads: 2,
        hpc_threads: 2,
    };
    measure_at(Workload::Oltp, 2.7, MemoryConfig::ddr3_1867(), &tiny)
        .map(drop)
        .map_err(|e| format!("warm-up: {e}"))
}

/// The worker process: `membench sim-worker <setup|digest|run> <seconds>
/// <seed> <trace>`. Prints `ready` once set up, then one line per pass.
pub fn worker(args: &[String]) -> ExitCode {
    let arg = |i: usize| args.get(i).map(String::as_str).unwrap_or("");
    let mode = arg(0);
    let seconds: f64 = arg(1).parse().unwrap_or(1.0);
    let seed: u64 = arg(2).parse().unwrap_or(0);
    let traced = arg(3) == "1";
    if let Err(e) = warm_up() {
        println!("error {e}");
        return ExitCode::FAILURE;
    }
    drain_job_log();
    println!("ready");
    match mode {
        "setup" => ExitCode::SUCCESS,
        "digest" => {
            let mut digests = BTreeMap::new();
            for stage in STAGES {
                match run_stage(stage) {
                    Ok(run) => digests.insert(stage.to_string(), run.digest),
                    Err(e) => {
                        println!("error {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            println!("digest {}", combined_digest(&digests));
            ExitCode::SUCCESS
        }
        "run" => run_passes(seconds, seed, traced),
        other => {
            println!("error unknown worker mode {other:?}");
            ExitCode::FAILURE
        }
    }
}

fn run_passes(seconds: f64, seed: u64, traced: bool) -> ExitCode {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1);
    let mut order_rng = Rng::fork(seed, "sim-order");
    let untraced_budget = if traced { seconds / 2.0 } else { seconds };
    let mut io_table: Option<String> = None;
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer = LayerTotals::default();
    let threads = thread_count();
    let mut pass = 0u64;
    loop {
        let elapsed = epoch.elapsed().as_secs_f64();
        let trace_pass = traced && (elapsed >= untraced_budget && !untraced_walls.is_empty());
        if elapsed >= seconds && pass >= 2 && (!traced || !traced_walls.is_empty()) {
            break;
        }
        let mut order = STAGES.to_vec();
        order_rng.shuffle(&mut order);
        let ticks = crate::util::cpu_ticks();
        let started = Instant::now();
        let mut digests = BTreeMap::new();
        let mut stages = Vec::new();
        let mut work = TelemetrySnapshot::default();
        let mut errors = Vec::new();
        for (i, stage) in order.iter().enumerate() {
            let run = if trace_pass {
                run_stage_traced(stage, pass * 8 + i as u64, &mut rec, io_table.as_deref())
            } else {
                run_stage(stage)
            };
            match run {
                Ok(run) => {
                    if let Some(csv) = &run.io_csv {
                        io_table.get_or_insert_with(|| csv.clone());
                    }
                    work = TelemetrySnapshot {
                        ops: work.ops + run.work.ops,
                        cache_accesses: work.cache_accesses + run.work.cache_accesses,
                        tlb_accesses: work.tlb_accesses + run.work.tlb_accesses,
                        prefetch_fills: work.prefetch_fills + run.work.prefetch_fills,
                    };
                    if trace_pass {
                        layer.add_stage(stage, &run, threads);
                    }
                    digests.insert(stage.to_string(), run.digest.clone());
                    stages.push((stage.to_string(), run));
                }
                Err(e) => errors.push(e),
            }
        }
        let wall = started.elapsed();
        if trace_pass {
            traced_walls.push(wall.as_secs_f64());
            if layer.work.is_none() {
                layer.work = Some(work);
            }
        } else {
            untraced_walls.push(wall.as_secs_f64());
        }
        let stage_json: Vec<Json> = stages
            .iter()
            .map(|(name, run)| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("digest", Json::str(&run.digest)),
                    ("ms", Json::num(run.wall.as_secs_f64() * 1e3)),
                ])
            })
            .collect();
        let line = Json::obj(vec![
            ("traced", Json::Bool(trace_pass)),
            ("wall_s", Json::num(wall.as_secs_f64())),
            (
                "steal",
                Json::num(crate::util::steal_share(ticks, crate::util::cpu_ticks())),
            ),
            ("ops", Json::num(work.ops as f64)),
            ("digest", Json::str(combined_digest(&digests))),
            ("stages", Json::Arr(stage_json)),
            ("errors", Json::Arr(errors.iter().map(Json::str).collect())),
        ]);
        println!("pass {}", line.to_string());
        pass += 1;
    }
    if traced {
        let gen = generator_ns_per_op();
        let metrics = layer.metrics(gen, &untraced_walls, &traced_walls);
        let fields = metrics.iter().map(|(k, v)| (*k, Json::num(*v))).collect();
        println!("layers {}", Json::obj(fields).to_string());
        let path = crate::trace::trace_path("sim_characterize", seed);
        if let Err(e) = crate::trace::write(&path, &rec.spans) {
            println!("error cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "note spans: {} written to {}",
            rec.spans.len(),
            path.display()
        );
    }
    println!("rss {}", crate::util::peak_rss_mb(None));
    ExitCode::SUCCESS
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct LayerTotals {
    kind_ms: BTreeMap<&'static str, Vec<f64>>,
    instance_ns: f64,
    stage_thread_ns: f64,
    imbalance: Vec<f64>,
    work: Option<TelemetrySnapshot>,
    ops_all: f64,
}

impl LayerTotals {
    fn add_stage(&mut self, stage: &str, run: &StageRun, threads: usize) {
        let kind = if stage.starts_with("timeseries") {
            "timeseries"
        } else if stage.starts_with("calibrate") {
            "calibrate"
        } else {
            "io_pressure"
        };
        self.kind_ms
            .entry(kind)
            .or_default()
            .push(run.wall.as_secs_f64() * 1e3);
        let walls: Vec<f64> = run.instances.iter().map(|d| d.as_nanos() as f64).collect();
        let sum: f64 = walls.iter().sum();
        self.instance_ns += sum;
        self.stage_thread_ns += run.wall.as_nanos() as f64 * threads as f64;
        let mean = sum / walls.len().max(1) as f64;
        let max = walls.iter().copied().fold(0.0, f64::max);
        self.imbalance.push(ratio(max, mean));
        self.ops_all += run.work.ops as f64;
    }

    fn metrics(
        &self,
        gen_ns_per_op: f64,
        untraced: &[f64],
        traced: &[f64],
    ) -> Vec<(&'static str, f64)> {
        let passes = traced.len().max(1) as f64;
        // Stage walls summed per kind, per pass.
        let kind = |k: &str| {
            self.kind_ms
                .get(k)
                .map_or(0.0, |v| v.iter().sum::<f64>() / passes)
        };
        let work = self.work.unwrap_or_default();
        let eff = ratio(self.instance_ns, self.stage_thread_ns);
        vec![
            ("experiments.timeseries_ms", kind("timeseries")),
            ("experiments.calibrate_ms", kind("calibrate")),
            ("experiments.io_pressure_ms", kind("io_pressure")),
            ("executor.parallel_eff", eff),
            (
                "executor.instance_imbalance",
                crate::util::mean(&self.imbalance),
            ),
            ("sim.ops", work.ops as f64),
            ("sim.cache_accesses", work.cache_accesses as f64),
            ("sim.tlb_accesses", work.tlb_accesses as f64),
            ("sim.prefetch_fills", work.prefetch_fills as f64),
            ("sim.ns_per_op", ratio(self.instance_ns, self.ops_all)),
            ("workloads.gen_ns_per_op", gen_ns_per_op),
            (
                "bench.trace_overhead",
                ratio(median(traced), median(untraced)) - 1.0,
            ),
            ("bench.unattributed_share", 1.0 - eff),
        ]
    }
}

fn spawn_worker(
    mode: &str,
    threads: usize,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Result<Proc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "sim-worker",
        mode,
        &seconds.to_string(),
        &seed.to_string(),
        if traced { "1" } else { "0" },
    ])
    .env("MEMSENSE_THREADS", threads.to_string());
    Proc::spawn(cmd)
}

/// Spawns a worker and waits for its `ready` line, returning the set-up
/// time with it.
fn start_worker(
    mode: &str,
    threads: usize,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Result<(Proc, f64), String> {
    let started = Instant::now();
    let mut proc = spawn_worker(mode, threads, seconds, seed, traced)?;
    match proc.line_awake() {
        Some(l) if l == "ready" => Ok((proc, started.elapsed().as_secs_f64())),
        other => Err(format!("sim worker did not get ready: {other:?}")),
    }
}

/// Times `n` worker set-ups (spawn and warm-up) that exit at once.
fn setup_probes(nproc: usize, n: usize, setup: &mut Vec<f64>, out: &mut Outcome) {
    for _ in 0..n {
        match start_worker("setup", nproc, 0.0, 0, false) {
            Ok((proc, s)) => {
                setup.push(s);
                if !proc.finish(Duration::from_secs(30)) {
                    out.fail("setup worker exited unsuccessfully".into());
                }
            }
            Err(e) => out.fail(e),
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, nproc: usize, out: &mut Outcome) {
    // One set-up sample is the measured run's own; the others are taken
    // after the measurement, when the CPUs are as busy as in the run
    // (set-ups right after an idle spell read slower).
    let mut setup = Vec::new();
    let (mut worker, s) = match start_worker("run", nproc, seconds, seed, traced) {
        Ok(w) => w,
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    setup.push(s);

    // Per untraced pass: (hypervisor steal share, ops, wall ms).
    let mut passes_seen: Vec<(f64, f64, f64)> = Vec::new();
    let mut untraced_digest: BTreeMap<String, String> = BTreeMap::new();
    let mut rss = 0.0;
    let mut total_ops = 0.0;
    let mut passes = 0;
    while let Some(line) = worker.line() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match tag {
            "pass" => {
                let Ok(pass) = Json::parse(rest) else {
                    out.fail(format!("bad pass line {rest:?}"));
                    continue;
                };
                let traced_pass = pass.get("traced").and_then(Json::as_bool).unwrap_or(false);
                let wall = pass.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
                let ops = pass.get("ops").and_then(Json::as_f64).unwrap_or(0.0);
                let digest = pass.get("digest").and_then(Json::as_str).unwrap_or("");
                let stages = pass.get("stages").and_then(Json::as_arr).unwrap_or(&[]);
                for e in pass.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
                    out.fail(format!("stage failed: {}", e.as_str().unwrap_or("?")));
                }
                out.attempted += STAGES.len() as u64;
                passes += 1;
                if traced_pass {
                    // The traced pass must reproduce every untraced stage result.
                    for s in stages {
                        let name = s.get("name").and_then(Json::as_str).unwrap_or("");
                        let d = s.get("digest").and_then(Json::as_str).unwrap_or("");
                        if untraced_digest.get(name).map(String::as_str) != Some(d) {
                            out.fail(format!("traced {name} result differs from untraced"));
                        }
                    }
                    continue;
                }
                if digest != RECORDED_DIGEST {
                    out.fail(format!(
                        "stage digest {digest} != recorded {RECORDED_DIGEST}"
                    ));
                }
                for s in stages {
                    let name = s.get("name").and_then(Json::as_str).unwrap_or("");
                    let d = s.get("digest").and_then(Json::as_str).unwrap_or("");
                    untraced_digest.insert(name.to_string(), d.to_string());
                }
                total_ops = ops;
                let steal = pass.get("steal").and_then(Json::as_f64).unwrap_or(0.0);
                passes_seen.push((steal, ops, wall * 1e3));
            }
            "layers" => {
                if let Ok(Json::Obj(fields)) = Json::parse(rest) {
                    for (k, v) in fields {
                        out.layer(&k, v.as_f64().unwrap_or(0.0));
                    }
                }
            }
            "rss" => rss = rest.parse().unwrap_or(0.0),
            "note" => out.note(rest.to_string()),
            "error" => out.fail(rest.to_string()),
            _ => out.note(format!("worker: {line}")),
        }
    }
    if !worker.finish(Duration::from_secs(30)) {
        out.fail("sim worker exited unsuccessfully".into());
    }
    setup_probes(nproc, SETUP_SAMPLES - 1, &mut setup, out);

    // Serial-equivalence check: one pass at MEMSENSE_THREADS=1.
    out.attempted += 1;
    match start_worker("digest", 1, seconds, seed, false) {
        Ok((mut proc, _)) => {
            let line = proc.line().unwrap_or_default();
            let serial = line.strip_prefix("digest ").unwrap_or("").to_string();
            if !proc.finish(Duration::from_secs(60)) || serial.is_empty() {
                out.fail(format!("serial digest run failed: {line:?}"));
            } else if serial != RECORDED_DIGEST {
                out.fail(format!(
                    "digest at MEMSENSE_THREADS=1 is {serial}, recorded {RECORDED_DIGEST}"
                ));
            }
            out.note(format!("digest at MEMSENSE_THREADS=1: {serial}"));
        }
        Err(e) => out.fail(e),
    }

    // The quieter half of the passes, ranked by hypervisor steal.
    let kept = crate::util::quieter_half(&passes_seen.iter().map(|p| p.0).collect::<Vec<_>>());
    // The mean rate over the kept passes: their ops over their walls.
    let sim_ips = ratio(
        kept.iter().map(|&i| passes_seen[i].1).sum(),
        kept.iter().map(|&i| passes_seen[i].2 / 1e3).sum(),
    );
    // Latency of the batch job: the wall of one whole pass of the stages,
    // so a change in any stage moves it by that stage's share. A run keeps
    // about a dozen passes, too few for a percentile above the median with
    // ten samples beyond it, so the tail is the slowest kept pass.
    let lat = sorted(kept.iter().map(|&i| passes_seen[i].2).collect());
    let slowest = lat.last().copied().unwrap_or(0.0);
    out.note(format!(
        "sim_mips = {:.3} M simulated instructions per host second (over the {} of {} passes with the least hypervisor steal, {} ops each, MEMSENSE_THREADS={nproc}; steal per pass: {:?})",
        sim_ips / 1e6,
        kept.len(),
        passes_seen.len(),
        total_ops,
        passes_seen.iter().map(|p| (p.0 * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    out.note(format!(
        "pass latency (all {} stages): p50 {:.3} ms, slowest {slowest:.3} ms over {} passes",
        STAGES.len(),
        crate::util::nearest_rank(&lat, 50.0),
        lat.len()
    ));
    out.note(format!("passes: {passes}, setup samples: {setup:?}"));
    out.push("setup_s", "s", median(&setup));
    out.push("throughput", "1/s", sim_ips);
    out.push("p50_ms", "ms", crate::util::nearest_rank(&lat, 50.0));
    out.push("p99_ms", "ms", slowest);
    out.push("peak_rss_mb", "MB", rss);
}
