//! The one baseline schema, its gate, and the gate's report.
//!
//! Every scenario (`sim`, `serve`, `stream`, `model`) records a [`Baseline`]: the
//! host it ran on, the load parameters it used, and a list of named
//! [`Metric`]s, each with a direction and an optional absolute bound.
//! [`compare`] gates a fresh measurement against a recorded one with the
//! scenario's tolerance; the result renders as a table (one row per metric,
//! plus the current/baseline ratio) and as a `memsense-baseline-check/v1`
//! JSON report.

use std::path::Path;
use std::process::Command;

use memsense_experiments::executor::thread_count;
use memsense_experiments::json::Json;
use memsense_experiments::render::{f, Table};

/// Schema tag written into every `BENCH_*.json`.
pub const SCHEMA: &str = "memsense-baseline/v2";

/// Schema tag of the `--report` artifact.
pub const CHECK_SCHEMA: &str = "memsense-baseline-check/v1";

/// A recorded workload: one subcommand, one `BENCH_<name>.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    Sim,
    Serve,
    Stream,
    Model,
}

impl Scenario {
    pub const ALL: [Scenario; 4] = [
        Scenario::Sim,
        Scenario::Serve,
        Scenario::Stream,
        Scenario::Model,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scenario::Sim => "sim",
            Scenario::Serve => "serve",
            Scenario::Stream => "stream",
            Scenario::Model => "model",
        }
    }

    fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Gate tolerance: a lower-is-better metric may reach
    /// `baseline × (1 + tolerance)`, a higher-is-better one may drop to
    /// `baseline / (1 + tolerance)`. Sim walls and model solves are
    /// CPU-bound and steady, so 0.5; serve and stream mix in scheduler, TCP
    /// and allocator noise on small shared runners, so 1.0 (down to half the
    /// recorded rate).
    pub fn tolerance(self) -> f64 {
        match self {
            Scenario::Sim | Scenario::Model => 0.5,
            Scenario::Serve | Scenario::Stream => 1.0,
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether `value` is no worse than `limit` in this direction.
    fn within(self, value: f64, limit: f64) -> bool {
        match self {
            Better::Higher => value >= limit,
            Better::Lower => value <= limit,
        }
    }
}

/// One gated number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub better: Better,
    /// Absolute limit that replaces the tolerance gate for this metric: the
    /// value must stay on the `better` side of it whatever was recorded.
    pub bound: Option<f64>,
}

impl Metric {
    pub fn lower(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
            better: Better::Lower,
            bound: None,
        }
    }

    pub fn higher(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            better: Better::Higher,
            ..Metric::lower(name, value)
        }
    }
}

/// The machine a baseline was measured on. Walls are only comparable at
/// equal `threads`; `nproc` is recorded so numbers from different hosts are
/// never mistaken for like-for-like. `rustc` and `git_sha` are
/// informational: the gate never compares them, and files recorded before
/// they existed omit them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub nproc: usize,
    pub threads: usize,
    /// `rustc --version` on the recording host.
    pub rustc: Option<String>,
    /// The checked-out commit, suffixed `-dirty` when tracked files differ
    /// from it.
    pub git_sha: Option<String>,
}

impl Host {
    pub fn current() -> Host {
        let dirty = command_output("git", &["status", "--porcelain", "--untracked-files=no"])
            .is_some_and(|changes| !changes.is_empty());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: thread_count(),
            rustc: command_output("rustc", &["--version"]),
            git_sha: command_output("git", &["rev-parse", "HEAD"]).map(|sha| {
                if dirty {
                    sha + "-dirty"
                } else {
                    sha
                }
            }),
        }
    }
}

/// The trimmed stdout of a successful command run in the current
/// directory; `None` if it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A recorded (or freshly measured) baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    pub scenario: Scenario,
    pub host: Host,
    /// The load the scenario ran (a JSON object); check mode replays it.
    pub params: Json,
    pub metrics: Vec<Metric>,
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

impl Baseline {
    /// A measurement on this host.
    pub fn measured(scenario: Scenario, params: Json, metrics: Vec<Metric>) -> Baseline {
        Baseline {
            scenario,
            host: Host::current(),
            params,
            metrics,
        }
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// A recorded load parameter.
    pub fn param(&self, key: &str) -> Result<&Json, String> {
        self.params
            .get(key)
            .ok_or_else(|| format!("baseline params have no {key:?}"))
    }

    /// Serializes to the canonical `BENCH_*.json` form.
    pub fn to_json(&self) -> String {
        let metric = |m: &Metric| {
            let mut pairs = vec![
                ("name", Json::str(&m.name)),
                ("value", Json::num(round3(m.value))),
                ("better", Json::str(m.better.name())),
            ];
            if let Some(bound) = m.bound {
                pairs.push(("bound", Json::num(bound)));
            }
            Json::obj(pairs)
        };
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("scenario", Json::str(self.scenario.name())),
            ("host", host_json(&self.host)),
            ("params", self.params.clone()),
            (
                "metrics",
                Json::Arr(self.metrics.iter().map(metric).collect()),
            ),
        ])
        .to_string_pretty()
    }

    /// Parses [`Baseline::to_json`] output.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a schema tag other than [`SCHEMA`], an unknown
    /// scenario or direction, or a missing field.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        fn field<'a>(node: &'a Json, key: &str) -> Result<&'a Json, String> {
            node.get(key).ok_or_else(|| format!("missing {key}"))
        }
        fn num(node: &Json, key: &str) -> Result<f64, String> {
            field(node, key)?
                .as_f64()
                .ok_or_else(|| format!("{key} is not a number"))
        }
        fn string<'a>(node: &'a Json, key: &str) -> Result<&'a str, String> {
            field(node, key)?
                .as_str()
                .ok_or_else(|| format!("{key} is not a string"))
        }
        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = string(&root, "schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let scenario = string(&root, "scenario")?;
        let scenario =
            Scenario::parse(scenario).ok_or_else(|| format!("unknown scenario {scenario:?}"))?;
        let host = field(&root, "host")?;
        let optional = |key: &str| host.get(key).and_then(Json::as_str).map(str::to_string);
        let host = Host {
            nproc: num(host, "nproc")? as usize,
            threads: num(host, "threads")? as usize,
            rustc: optional("rustc"),
            git_sha: optional("git_sha"),
        };
        let params = field(&root, "params")?.clone();
        let metrics = field(&root, "metrics")?
            .as_arr()
            .ok_or("metrics is not an array")?
            .iter()
            .map(|m| {
                let better = match string(m, "better")? {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("better {other:?}, expected higher|lower")),
                };
                Ok(Metric {
                    name: string(m, "name")?.to_string(),
                    value: num(m, "value")?,
                    better,
                    bound: m.get("bound").map(|_| num(m, "bound")).transpose()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if metrics.is_empty() {
            return Err("baseline has no metrics".to_string());
        }
        Ok(Baseline {
            scenario,
            host,
            params,
            metrics,
        })
    }

    /// Reads a recorded baseline and checks it belongs to `scenario`.
    pub fn read(path: &Path, scenario: Scenario) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let baseline = Baseline::from_json(&text)
            .map_err(|e| format!("invalid baseline {}: {e}", path.display()))?;
        if baseline.scenario != scenario {
            return Err(format!(
                "{} records scenario {:?}, not {:?}",
                path.display(),
                baseline.scenario.name(),
                scenario.name()
            ));
        }
        Ok(baseline)
    }

    /// The recorded metrics as a table (record mode's summary).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "{} baseline ({} cpu, {} thread(s))",
                self.scenario.name(),
                self.host.nproc,
                self.host.threads
            ),
            &["metric", "better", "value", "bound"],
        );
        for m in &self.metrics {
            t.row(vec![
                m.name.clone(),
                m.better.name().to_string(),
                f(m.value, 3),
                m.bound.map_or("-".to_string(), |b| f(b, 3)),
            ]);
        }
        t
    }
}

fn host_json(host: &Host) -> Json {
    let mut pairs = vec![
        ("nproc", Json::num(host.nproc as f64)),
        ("threads", Json::num(host.threads as f64)),
    ];
    if let Some(rustc) = &host.rustc {
        pairs.push(("rustc", Json::str(rustc)));
    }
    if let Some(sha) = &host.git_sha {
        pairs.push(("git_sha", Json::str(sha)));
    }
    Json::obj(pairs)
}

/// One metric of a comparison. `baseline` or `current` is `None` when the
/// metric is on one side only, which always fails.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub better: Better,
    pub baseline: Option<f64>,
    pub current: Option<f64>,
    /// The value the current measurement had to stay within.
    pub limit: Option<f64>,
    pub ok: bool,
}

/// A fresh measurement gated against a recorded baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub scenario: Scenario,
    pub tolerance: f64,
    pub baseline_host: Host,
    pub current_host: Host,
    /// Current metrics in measurement order, then baseline-only ones.
    pub rows: Vec<Row>,
}

/// Gates `current` against `baseline`. A metric with a `bound` must stay on
/// its `better` side of the bound whatever the tolerance; every other metric
/// must stay within `tolerance` of its recorded value in its `better`
/// direction. A metric on one side only fails, and so does the whole
/// comparison when the two ran at different executor thread counts.
pub fn compare(current: &Baseline, baseline: &Baseline, tolerance: f64) -> Comparison {
    let scale = 1.0 + tolerance;
    let mut rows: Vec<Row> = current
        .metrics
        .iter()
        .map(|m| {
            let recorded = baseline.metric(&m.name).map(|b| b.value);
            let limit = m.bound.or(recorded.map(|b| match m.better {
                Better::Higher => b / scale,
                Better::Lower => b * scale,
            }));
            Row {
                name: m.name.clone(),
                better: m.better,
                baseline: recorded,
                current: Some(m.value),
                limit,
                ok: recorded.is_some() && limit.is_some_and(|l| m.better.within(m.value, l)),
            }
        })
        .collect();
    rows.extend(
        baseline
            .metrics
            .iter()
            .filter(|b| current.metric(&b.name).is_none())
            .map(|b| Row {
                name: b.name.clone(),
                better: b.better,
                baseline: Some(b.value),
                current: None,
                limit: None,
                ok: false,
            }),
    );
    Comparison {
        scenario: current.scenario,
        tolerance,
        baseline_host: baseline.host.clone(),
        current_host: current.host.clone(),
        rows,
    }
}

impl Comparison {
    pub fn threads_ok(&self) -> bool {
        self.baseline_host.threads == self.current_host.threads
    }

    pub fn passed(&self) -> bool {
        self.threads_ok() && self.rows.iter().all(|r| r.ok)
    }

    /// One-line explanations for the failures a ratio cannot express.
    pub fn diagnostics(&self) -> Vec<String> {
        let mut msgs = Vec::new();
        let one_sided: Vec<&str> = self
            .rows
            .iter()
            .filter(|r| r.baseline.is_none() || r.current.is_none())
            .map(|r| r.name.as_str())
            .collect();
        if !one_sided.is_empty() {
            msgs.push(format!(
                "metric(s) {one_sided:?} are in only one of the baseline and the current \
                 measurement; re-record the baseline (memsense-bench {0}-baseline \
                 --out BENCH_{0}.json)",
                self.scenario.name()
            ));
        }
        if !self.threads_ok() {
            msgs.push(format!(
                "baseline was recorded at {} executor thread(s) but the current \
                 measurement used {} — walls are not comparable; re-measure with \
                 MEMSENSE_THREADS={} or re-record the baseline",
                self.baseline_host.threads, self.current_host.threads, self.baseline_host.threads
            ));
        }
        msgs
    }

    /// The gate table: one row per metric, plus the current/baseline ratio.
    pub fn to_table(&self) -> Table {
        let host = |h: &Host| format!("{} cpu/{} thr", h.nproc, h.threads);
        let mut t = Table::new(
            format!(
                "{} perf gate: tolerance {:.0}%, baseline {}, current {} -> {}",
                self.scenario.name(),
                self.tolerance * 100.0,
                host(&self.baseline_host),
                host(&self.current_host),
                if self.passed() { "PASS" } else { "FAIL" }
            ),
            &[
                "metric", "better", "baseline", "current", "ratio", "limit", "status",
            ],
        );
        let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| f(v, 3));
        for r in &self.rows {
            let ratio = match (r.baseline, r.current) {
                (Some(b), Some(c)) if b > 0.0 => f(c / b, 2),
                _ => "-".to_string(),
            };
            let status = match (r.baseline, r.current, r.ok) {
                (None, _, _) => "UNRECORDED",
                (_, None, _) => "STALE",
                (_, _, true) => "ok",
                (_, _, false) => "REGRESSED",
            };
            t.row(vec![
                r.name.clone(),
                r.better.name().to_string(),
                cell(r.baseline),
                cell(r.current),
                ratio,
                cell(r.limit),
                status.to_string(),
            ]);
        }
        t
    }

    /// The `memsense-baseline-check/v1` report.
    pub fn to_json(&self) -> String {
        let num = |v: Option<f64>| v.map_or(Json::Null, |v| Json::num(round3(v)));
        let rows = self.rows.iter().map(|r| {
            Json::obj(vec![
                ("name", Json::str(&r.name)),
                ("better", Json::str(r.better.name())),
                ("baseline", num(r.baseline)),
                ("current", num(r.current)),
                ("limit", num(r.limit)),
                ("ok", Json::Bool(r.ok)),
            ])
        });
        Json::obj(vec![
            ("schema", Json::str(CHECK_SCHEMA)),
            ("scenario", Json::str(self.scenario.name())),
            ("tolerance", Json::num(self.tolerance)),
            ("passed", Json::Bool(self.passed())),
            ("baseline_host", host_json(&self.baseline_host)),
            ("current_host", host_json(&self.current_host)),
            ("metrics", Json::Arr(rows.collect())),
            (
                "diagnostics",
                Json::Arr(self.diagnostics().into_iter().map(Json::str).collect()),
            ),
        ])
        .to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scenario: Scenario, threads: usize, metrics: Vec<Metric>) -> Baseline {
        let params = match scenario {
            Scenario::Sim => Json::obj(vec![("repeats", Json::num(3.0))]),
            Scenario::Serve => Json::obj(vec![
                ("connections", Json::num(512.0)),
                ("duration_s", Json::num(3.0)),
                ("path", Json::str("/v1/sweep/bandwidth")),
            ]),
            Scenario::Stream => Json::obj(vec![("deltas", Json::num(512.0))]),
            Scenario::Model => Json::obj(vec![("rounds", Json::num(2000.0))]),
        };
        Baseline {
            scenario,
            host: Host {
                nproc: 2,
                threads,
                rustc: None,
                git_sha: None,
            },
            params,
            metrics,
        }
    }

    fn sim(walls: &[(&str, f64)]) -> Baseline {
        let mut metrics: Vec<Metric> = walls
            .iter()
            .map(|(stage, ms)| Metric::lower(format!("wall_ms[{stage}]"), *ms))
            .collect();
        metrics.push(Metric::lower("total_ms", walls.iter().map(|w| w.1).sum()));
        sample(Scenario::Sim, 8, metrics)
    }

    fn serve(rps: f64, p50: f64, p99: f64) -> Baseline {
        let metrics = vec![
            Metric::higher("throughput_rps", rps),
            Metric::lower("warm_p50_ms", p50),
            Metric::lower("warm_p99_ms", p99),
        ];
        sample(Scenario::Serve, 1, metrics)
    }

    fn stream(fraction: f64, rates: &[f64]) -> Baseline {
        let mut metrics = vec![Metric {
            bound: Some(0.2),
            ..Metric::lower("single_point_fraction", fraction)
        }];
        for (batch, rate) in [1, 8, 64, 512].iter().zip(rates) {
            metrics.push(Metric::higher(
                format!("deltas_per_s[batch={batch}]"),
                *rate,
            ));
        }
        sample(Scenario::Stream, 1, metrics)
    }

    fn row<'a>(c: &'a Comparison, name: &str) -> &'a Row {
        c.rows.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn json_round_trips_every_scenario() {
        for b in [
            sim(&[("timeseries/bigdata", 104.5), ("io_pressure", 244.25)]),
            serve(28_899.547, 17.114, 27.338),
            stream(0.111, &[3152.809, 6554.725, 28_716.17, 111_400.152]),
        ] {
            let text = b.to_json();
            assert_eq!(Baseline::from_json(&text).unwrap(), b, "{text}");
        }
    }

    #[test]
    fn host_toolchain_and_commit_are_optional_and_never_gated() {
        let mut b = stream(0.111, &[1.0; 4]);
        b.host.rustc = Some("rustc 1.0.0 (abc 2015-05-15)".to_string());
        b.host.git_sha = Some("0123abcd-dirty".to_string());
        let text = b.to_json();
        assert!(text.contains("\"git_sha\": \"0123abcd-dirty\""), "{text}");
        assert_eq!(Baseline::from_json(&text).unwrap(), b);
        // A file without them (as recorded before they existed) still
        // parses, and a toolchain or commit difference alone passes.
        let plain = stream(0.111, &[1.0; 4]);
        assert!(!plain.to_json().contains("rustc"));
        assert!(compare(&b, &plain, 0.0).passed());
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_missing_fields() {
        assert!(Baseline::from_json("not json").is_err());
        let v1 = r#"{"schema": "memsense-sim-baseline/v1", "threads": 8, "stages": []}"#;
        assert!(Baseline::from_json(v1).unwrap_err().contains("schema"));
        let good = serve(1.0, 1.0, 1.0).to_json();
        for field in ["scenario", "host", "params", "metrics", "threads", "better"] {
            let broken = good.replacen(&format!("\"{field}\""), "\"renamed\"", 1);
            let err = Baseline::from_json(&broken).unwrap_err();
            assert!(err.contains(&format!("missing {field}")), "{field}: {err}");
        }
        let bad_dir = good.replacen("\"higher\"", "\"sideways\"", 1);
        assert!(Baseline::from_json(&bad_dir)
            .unwrap_err()
            .contains("sideways"));
    }

    #[test]
    fn metric_on_one_side_only_fails_with_a_re_record_diagnostic() {
        let base = sim(&[("a", 100.0), ("renamed-away", 50.0)]);
        let current = sim(&[("a", 100.0), ("new-stage", 50.0)]);
        let c = compare(&current, &base, 0.5);
        assert!(row(&c, "wall_ms[a]").ok && row(&c, "total_ms").ok);
        assert_eq!(row(&c, "wall_ms[new-stage]").baseline, None);
        assert_eq!(row(&c, "wall_ms[renamed-away]").current, None);
        assert!(!c.passed());
        let msgs = c.diagnostics();
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("new-stage") && msgs[0].contains("renamed-away"));
        assert!(msgs[0].contains("re-record"), "{msgs:?}");
        let table = c.to_table().to_ascii();
        assert!(table.contains("STALE") && table.contains("UNRECORDED"));
        let report = Json::parse(&c.to_json()).unwrap();
        assert_eq!(report.get("passed").and_then(Json::as_bool), Some(false));
        assert!(c.to_json().contains("\"current\": null"));
    }

    #[test]
    fn thread_count_mismatch_fails() {
        let base = stream(0.1, &[1.0; 4]);
        let mut current = base.clone();
        current.host.threads = 8;
        let c = compare(&current, &base, 1.0);
        assert!(c.rows.iter().all(|r| r.ok));
        assert!(!c.passed());
        let msgs = c.diagnostics();
        assert!(
            msgs.iter().any(|m| m.contains("MEMSENSE_THREADS=1")),
            "{msgs:?}"
        );
        assert!(compare(&base, &base, 1.0).diagnostics().is_empty());
    }

    #[test]
    fn gate_is_directional_for_both_directions() {
        let base = serve(1000.0, 10.0, 50.0);
        assert!(compare(&serve(3000.0, 3.0, 10.0), &base, 0.5).passed());
        assert!(compare(&serve(1000.0 / 1.4, 14.0, 70.0), &base, 0.5).passed());
        let slow = compare(&serve(1000.0 / 1.6, 10.0, 50.0), &base, 0.5);
        assert!(!row(&slow, "throughput_rps").ok && row(&slow, "warm_p50_ms").ok);
        let laggy = compare(&serve(1000.0, 10.0, 80.0), &base, 0.5);
        assert!(row(&laggy, "throughput_rps").ok && !row(&laggy, "warm_p99_ms").ok);
        assert!(!slow.passed() && !laggy.passed());
    }

    #[test]
    fn bound_fails_whatever_the_tolerance() {
        let base = stream(0.5, &[1.0; 4]);
        let c = compare(&stream(0.3, &[1.0; 4]), &base, 100.0);
        assert!(!row(&c, "single_point_fraction").ok);
        assert_eq!(row(&c, "single_point_fraction").limit, Some(0.2));
        assert!(!c.passed());
        // Within the bound passes even far above the recorded value.
        let c = compare(&stream(0.19, &[1.0; 4]), &stream(0.01, &[1.0; 4]), 0.0);
        assert!(c.passed());
    }

    #[test]
    fn injected_regressions_fail_each_gate() {
        // Sim: one stage 1.6x slower than recorded breaks the 0.5 tolerance.
        let base = sim(&[("calibrate/oltp", 160.0), ("io_pressure", 245.0)]);
        let slower = sim(&[("calibrate/oltp", 160.0 * 1.6), ("io_pressure", 245.0)]);
        let c = compare(&slower, &base, Scenario::Sim.tolerance());
        assert!(!row(&c, "wall_ms[calibrate/oltp]").ok && !c.passed());

        // Serve: tolerance 1.0 allows down to exactly half the recorded
        // throughput; anything below fails.
        let base = serve(28_899.5, 17.1, 27.3);
        let tol = Scenario::Serve.tolerance();
        assert!(compare(&serve(28_899.5 * 0.5, 17.1, 27.3), &base, tol).passed());
        let c = compare(&serve(28_899.5 * 0.49, 17.1, 27.3), &base, tol);
        assert!(!row(&c, "throughput_rps").ok && !c.passed());

        // Stream: a dirty-cell regression that makes a point edit re-solve
        // half the grid fails even at full speed.
        let base = stream(0.111, &[3152.8, 6554.7, 28_716.2, 111_400.2]);
        let mut regressed = base.clone();
        regressed.metrics[0].value = 0.5;
        let c = compare(&regressed, &base, Scenario::Stream.tolerance());
        assert!(!row(&c, "single_point_fraction").ok && !c.passed());
    }

    #[test]
    fn committed_baselines_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for scenario in Scenario::ALL {
            let path = root.join(format!("BENCH_{}.json", scenario.name()));
            let b = Baseline::read(&path, scenario).unwrap();
            let threads = if scenario == Scenario::Sim { 8 } else { 1 };
            assert_eq!(b.host.threads, threads, "{}", path.display());
            assert!(compare(&b, &b, scenario.tolerance()).passed());
        }
    }
}
