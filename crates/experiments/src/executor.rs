//! Parallel experiment executor with run-report telemetry.
//!
//! Every independent experiment unit — a (workload × system-config) cell of
//! a sweep, a per-class sensitivity run, a calibration, a characterization
//! series, a whole `repro` stage — is an embarrassingly parallel job, the
//! same shape as the paper's own methodology grid. This module runs those
//! jobs across a pool of `std::thread::scope` workers pulling from a shared
//! queue, while guaranteeing **serial equivalence**: jobs are tagged with
//! their submission index and results are reassembled in submission order,
//! so every rendered table and figure is byte-identical to the serial
//! output regardless of thread count.
//!
//! Concurrency is bounded globally, not per call site: a process-wide permit
//! pool holds `thread_count() − 1` permits, and each [`par_map`] borrows as
//! many as are free (the calling thread always works too). Nested calls —
//! a parallel stage whose body runs a parallel sweep — therefore never
//! oversubscribe the machine; inner calls simply run serially when the
//! outer level has consumed the pool.
//!
//! The thread count comes from the `MEMSENSE_THREADS` environment variable
//! (`1` forces fully serial execution; unset or `0` means "all available
//! cores"), read once per process.
//!
//! Telemetry: a caller that wants per-job records wraps its work in
//! [`record_jobs`], which collects the label, wall-clock time, and outcome
//! of every job dispatched inside it, nested [`par_map`] calls included, on
//! any thread. Jobs run outside such a scope record nothing. `repro` wraps
//! each stage this way and [`RunReport::from_run`] turns the per-stage
//! records — together with the solver's iteration/regime counters — into
//! the `--report` table/JSON.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use memsense_model::solver::telemetry::SolverStats;

use crate::json::Json;
use crate::render::{f, Table};

// ---------------------------------------------------------------------------
// Thread budget
// ---------------------------------------------------------------------------

/// Worker threads the executor may use, resolved once per process from
/// `MEMSENSE_THREADS` (unset or `0` → all available cores, minimum 1).
///
/// A set-but-unparseable value (`abc`, `-2`, `1.5`) is a configuration
/// error; silently falling back to a default would hide it, so the process
/// exits with a one-line diagnostic instead.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        let all_cores = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        match std::env::var("MEMSENSE_THREADS") {
            Err(_) => all_cores(),
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(0) => all_cores(),
                Ok(n) => n,
                Err(_) => {
                    eprintln!(
                        "error: invalid MEMSENSE_THREADS value {raw:?} \
                         (expected a non-negative integer; 0 or unset = all cores)"
                    );
                    // memsense-lint: allow(no-process-exit-in-lib) — documented exit-2 contract for malformed MEMSENSE_THREADS, pinned by the seed tests
                    std::process::exit(2);
                }
            },
        }
    })
}

/// Process-wide pool of *extra* worker permits (the calling thread is free).
fn permit_pool() -> &'static AtomicUsize {
    static POOL: OnceLock<AtomicUsize> = OnceLock::new();
    POOL.get_or_init(|| AtomicUsize::new(thread_count().saturating_sub(1)))
}

/// Takes up to `want` permits from the pool, returning how many were taken.
fn acquire_permits(want: usize) -> usize {
    let pool = permit_pool();
    let mut available = pool.load(Ordering::Relaxed);
    loop {
        let take = want.min(available);
        if take == 0 {
            return 0;
        }
        match pool.compare_exchange_weak(
            available,
            available - take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return take,
            Err(now) => available = now,
        }
    }
}

fn release_permits(n: usize) {
    if n > 0 {
        permit_pool().fetch_add(n, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Job recording
// ---------------------------------------------------------------------------

/// One completed job: its label, wall-clock time, and outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Human-readable job identity, e.g. `fig8/Enterprise class`.
    pub label: String,
    /// Wall-clock time the job took.
    pub wall: Duration,
    /// Whether the job returned `Ok`.
    pub ok: bool,
}

thread_local! {
    /// Where this thread's jobs send their records; `None` outside any
    /// [`record_jobs`] scope.
    static SINK: RefCell<Option<Sender<JobRecord>>> = const { RefCell::new(None) };
}

/// Runs `f` and returns its result together with a record of every job
/// dispatched while it ran — on this thread or on any executor worker that
/// ran on its behalf, however deeply nested — in completion order. A scope
/// nested inside another takes its jobs for itself.
pub fn record_jobs<R>(f: impl FnOnce() -> R) -> (R, Vec<JobRecord>) {
    let (tx, rx) = mpsc::channel();
    let outer = SINK.replace(Some(tx));
    let result = f();
    SINK.set(outer);
    // Every worker sent its records before its `par_map_full` scope joined.
    (result, rx.try_iter().collect())
}

/// Always empty: jobs are recorded only inside [`record_jobs`]. Kept only
/// because the `membench` harness still calls it.
pub fn drain_job_log() -> Vec<JobRecord> {
    Vec::new()
}

// ---------------------------------------------------------------------------
// Core executor
// ---------------------------------------------------------------------------

/// Runs `f` over `items` on the worker pool and returns every outcome in
/// submission order. `label` names each job for an enclosing
/// [`record_jobs`] scope and is called only inside one; it is not used for
/// scheduling.
///
/// Jobs are pulled from a shared queue by idle workers (the calling thread
/// included), so long jobs don't convoy behind a static partition. Results
/// carry their submission index and are reassembled in order: the returned
/// vector is identical to what a serial `items.map(f)` would produce.
pub fn par_map_full<I, T, E, F, L>(items: Vec<I>, label: L, f: F) -> Vec<Result<T, E>>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(I) -> Result<T, E> + Sync,
    L: Fn(usize, &I) -> String + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let extra = if n > 1 { acquire_permits(n - 1) } else { 0 };

    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let mut slots: Vec<Option<Result<T, E>>> = (0..n).map(|_| None).collect();

    // Workers report to the caller's recording scope, if any, and inherit
    // it so that jobs nested inside `f` report there too.
    let sink = SINK.with_borrow(Option::clone);
    let work = |tx: &Sender<(usize, Result<T, E>)>| loop {
        // memsense-lint: allow(no-panic-in-lib) — pop_front cannot panic mid-hold, so the queue lock cannot poison
        let job = queue.lock().expect("job queue poisoned").pop_front();
        let Some((index, item)) = job else { break };
        let timed = sink
            .as_ref()
            .map(|sink| (sink, label(index, &item), Instant::now()));
        let result = f(item);
        if let Some((sink, label, started)) = timed {
            // A scope that already returned has nothing left to record.
            let _ = sink.send(JobRecord {
                label,
                wall: started.elapsed(),
                ok: result.is_ok(),
            });
        }
        // Receiver outlives all senders within the scope below.
        let _ = tx.send((index, result));
    };

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..extra {
            let tx = tx.clone();
            let (work, sink) = (&work, &sink);
            scope.spawn(move || {
                SINK.set(sink.clone());
                work(&tx);
            });
        }
        // The calling thread is a worker too; with zero permits this is
        // exactly the serial execution path.
        work(&tx);
        drop(tx);
        for (index, result) in rx {
            slots[index] = Some(result);
        }
    });
    release_permits(extra);

    slots
        .into_iter()
        // memsense-lint: allow(no-panic-in-lib) — every queued index sends exactly one result before the scope joins
        .map(|slot| slot.expect("executor lost a job result"))
        .collect()
}

/// [`par_map_full`] with short-circuit semantics matching a serial loop: on
/// failure, the error of the **earliest-submitted** failing job is returned,
/// so the error a caller sees is independent of thread interleaving.
///
/// # Errors
///
/// Returns the first (by submission order) job error.
pub fn par_map<I, T, E, F>(label: &str, items: Vec<I>, f: F) -> Result<Vec<T>, E>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(I) -> Result<T, E> + Sync,
{
    let outcomes = par_map_full(items, |i, _| format!("{label}[{i}]"), f);
    outcomes.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

/// Telemetry for one pipeline stage (one `repro` target).
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (the `repro` target).
    pub name: String,
    /// Wall-clock time of the stage.
    pub wall: Duration,
    /// Jobs the stage dispatched through the executor, nested ones included.
    pub jobs: usize,
    /// Jobs (or the stage itself) that returned an error.
    pub failures: usize,
}

/// One stage as run: its name, wall-clock time, whether it succeeded, and
/// the jobs [`record_jobs`] recorded for it.
pub type StageRun = (String, Duration, bool, Vec<JobRecord>);

/// The full run report behind `repro --report`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Worker threads the executor was allowed.
    pub threads: usize,
    /// End-to-end wall-clock time of the run.
    pub total_wall: Duration,
    /// Per-stage telemetry, in deterministic (submission) order.
    pub stages: Vec<StageReport>,
    /// Every job, grouped by stage in stage order.
    pub jobs: Vec<JobRecord>,
    /// Solver activity during the run (snapshot delta).
    pub solver: SolverStats,
}

impl RunReport {
    /// Builds a report from the stages in the order they should be listed.
    pub fn from_run(
        threads: usize,
        total_wall: Duration,
        runs: Vec<StageRun>,
        solver: SolverStats,
    ) -> RunReport {
        let mut stages = Vec::with_capacity(runs.len());
        let mut jobs = Vec::new();
        for (name, wall, ok, records) in runs {
            stages.push(StageReport {
                name,
                wall,
                jobs: records.len(),
                failures: records.iter().filter(|j| !j.ok).count() + usize::from(!ok),
            });
            jobs.extend(records);
        }
        RunReport {
            threads,
            total_wall,
            stages,
            jobs,
            solver,
        }
    }

    /// Total job failures across all stages.
    pub fn failures(&self) -> usize {
        self.stages.iter().map(|s| s.failures).sum()
    }

    /// Renders the per-stage table (what `--report` prints).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Run report: {} stages on {} thread{} in {:.1} ms \
                 ({} solves, {} iterations, {} residual evals; \
                 regimes: {} core / {} latency / {} bandwidth)",
                self.stages.len(),
                self.threads,
                if self.threads == 1 { "" } else { "s" },
                self.total_wall.as_secs_f64() * 1e3,
                self.solver.solves,
                self.solver.iterations,
                self.solver.residual_evals,
                self.solver.core_bound,
                self.solver.latency_limited,
                self.solver.bandwidth_bound,
            ),
            &["stage", "wall_ms", "jobs", "failures"],
        );
        for s in &self.stages {
            t.row(vec![
                s.name.clone(),
                f(s.wall.as_secs_f64() * 1e3, 1),
                s.jobs.to_string(),
                s.failures.to_string(),
            ]);
        }
        t
    }

    /// The report as a [`Json`] value (schema:
    /// `{threads, total_wall_ms, stages[], jobs[], solver{}}`).
    pub fn to_json_value(&self) -> Json {
        let wall_ms = |d: &Duration| {
            // Keep the historical 3-decimal precision of the report file.
            Json::num((d.as_secs_f64() * 1e6).round() / 1e3)
        };
        Json::obj(vec![
            ("threads", Json::num(self.threads as f64)),
            ("total_wall_ms", wall_ms(&self.total_wall)),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(s.name.clone())),
                                ("wall_ms", wall_ms(&s.wall)),
                                ("jobs", Json::num(s.jobs as f64)),
                                ("failures", Json::num(s.failures as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|j| {
                            Json::obj(vec![
                                ("label", Json::str(j.label.clone())),
                                ("wall_ms", wall_ms(&j.wall)),
                                ("ok", Json::Bool(j.ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "solver",
                Json::obj(vec![
                    ("solves", Json::num(self.solver.solves as f64)),
                    ("iterations", Json::num(self.solver.iterations as f64)),
                    (
                        "residual_evals",
                        Json::num(self.solver.residual_evals as f64),
                    ),
                    ("core_bound", Json::num(self.solver.core_bound as f64)),
                    (
                        "latency_limited",
                        Json::num(self.solver.latency_limited as f64),
                    ),
                    (
                        "bandwidth_bound",
                        Json::num(self.solver.bandwidth_bound as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Machine-readable form (documented in EXPERIMENTS.md), rendered
    /// through the shared escaping-correct [`crate::json`] module.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_submission_order() {
        // Jobs finish out of order (later jobs are quicker), but results
        // must come back in submission order.
        let items: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = par_map("order", items.clone(), |i| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok::<u64, ()>(i * 3)
        })
        .unwrap();
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_returns_earliest_error() {
        let out: Result<Vec<u32>, String> = par_map("err", (0u32..32).collect(), |i| {
            if i == 5 || i == 20 {
                Err(format!("boom {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out.unwrap_err(), "boom 5");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Result<Vec<u32>, ()> = par_map("none", Vec::<u32>::new(), Ok);
        assert_eq!(out.unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn job_log_records_labels_and_outcomes() {
        let (_, mut log) = record_jobs(|| {
            par_map_full(
                vec![1u32, 2],
                |_, item| format!("logged/{item}"),
                |i| if i == 2 { Err(()) } else { Ok(i) },
            )
        });
        log.sort_by(|a, b| a.label.cmp(&b.label));
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].label, "logged/1");
        assert!(log[0].ok);
        assert_eq!(log[1].label, "logged/2");
        assert!(!log[1].ok);
    }

    #[test]
    fn concurrent_scopes_see_only_their_own_jobs() {
        // An outer par_map whose jobs each run an inner par_map: the scope
        // must collect the 4 outer and 4 × 3 inner records, whichever
        // thread ran them.
        fn outer_and_inner(tag: &str) -> Vec<String> {
            let (_, log) = record_jobs(|| {
                par_map(&format!("{tag}.outer"), (0u32..4).collect(), |i| {
                    // Slow enough that spawned workers take outer jobs too.
                    std::thread::sleep(Duration::from_millis(1));
                    par_map(
                        &format!("{tag}.inner{i}"),
                        (0u32..3).collect(),
                        Ok::<u32, ()>,
                    )
                })
            });
            let mut labels: Vec<String> = log.into_iter().map(|r| r.label).collect();
            labels.sort();
            labels
        }
        fn expected(tag: &str) -> Vec<String> {
            let mut labels: Vec<String> = (0..4).map(|i| format!("{tag}.outer[{i}]")).collect();
            for i in 0..4 {
                labels.extend((0..3).map(|j| format!("{tag}.inner{i}[{j}]")));
            }
            labels.sort();
            labels
        }
        for _ in 0..50 {
            let (a, b) = std::thread::scope(|scope| {
                let a = scope.spawn(|| outer_and_inner("a"));
                let b = scope.spawn(|| outer_and_inner("b"));
                // Unscoped jobs running alongside must land in neither.
                let _: Vec<u32> = par_map("unscoped", (0u32..8).collect(), Ok::<u32, ()>).unwrap();
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(a, expected("a"));
            assert_eq!(b, expected("b"));
        }
    }

    #[test]
    fn nested_par_map_completes_and_is_ordered() {
        let out: Vec<Vec<u32>> = par_map("outer", (0u32..8).collect(), |i| {
            par_map("inner", (0u32..8).collect(), move |j| {
                Ok::<u32, ()>(i * 10 + j)
            })
        })
        .unwrap();
        for (i, inner) in out.iter().enumerate() {
            let want: Vec<u32> = (0..8).map(|j| i as u32 * 10 + j).collect();
            assert_eq!(inner, &want);
        }
    }

    #[test]
    fn permits_are_returned_after_use() {
        let before = permit_pool().load(Ordering::Relaxed);
        let _: Vec<u32> = par_map("permits", (0u32..32).collect(), Ok::<u32, ()>).unwrap();
        // Other tests run concurrently, so poll briefly for the pool to
        // settle back to its pre-call level.
        for _ in 0..100 {
            if permit_pool().load(Ordering::Relaxed) >= before {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(permit_pool().load(Ordering::Relaxed) >= before);
    }

    #[test]
    fn run_report_groups_stages_and_jobs() {
        let job = |label: &str, ms: u64, ok: bool| JobRecord {
            label: label.into(),
            wall: Duration::from_millis(ms),
            ok,
        };
        let runs = vec![
            (
                "fig8".to_string(),
                Duration::from_millis(10),
                true,
                vec![job("Enterprise class", 4, true), job("HPC class", 5, false)],
            ),
            ("tab7".to_string(), Duration::from_millis(2), false, vec![]),
        ];
        let report =
            RunReport::from_run(4, Duration::from_millis(12), runs, SolverStats::default());
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].name, "fig8");
        assert_eq!(report.stages[0].jobs, 2);
        assert_eq!(report.stages[0].failures, 1);
        assert_eq!(report.stages[1].jobs, 0);
        assert_eq!(report.stages[1].failures, 1);
        assert_eq!(report.failures(), 2);
        assert_eq!(report.jobs.len(), 2);
        let table = report.to_table().to_ascii();
        assert!(table.contains("fig8") && table.contains("tab7"));
        let json = report.to_json();
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"name\": \"fig8\""));
        assert!(json.contains("\"label\": \"Enterprise class\""));
        assert!(json.contains("\"solver\""));
        // The report is valid JSON by construction (shared json module).
        let parsed = Json::parse(&json).expect("report parses");
        assert_eq!(parsed.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(
            parsed.get("stages").unwrap().as_arr().unwrap()[0]
                .get("jobs")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn report_json_escapes_label_content() {
        let job = JobRecord {
            label: "weird/\"quoted\"\nlabel\\path".into(),
            wall: Duration::from_millis(1),
            ok: true,
        };
        let report = RunReport::from_run(
            1,
            Duration::from_millis(1),
            vec![("s".to_string(), Duration::from_millis(1), true, vec![job])],
            SolverStats::default(),
        );
        let json = report.to_json();
        let parsed = Json::parse(&json).expect("escaped report parses");
        let label = parsed.get("jobs").unwrap().as_arr().unwrap()[0]
            .get("label")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(label, "weird/\"quoted\"\nlabel\\path");
    }
}
