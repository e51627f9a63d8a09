//! membench: one benchmark for memsense.
//!
//! ```sh
//! cargo run --release --manifest-path membench/Cargo.toml -- \
//!     --workload stream_whatif --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `sim_characterize`, `serve_mix`, `stream_whatif` (see
//! `membench/README.md`). The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Any
//! correctness mismatch makes the exit code non-zero.

mod proc;
mod serve;
mod sim;
mod stream;
mod trace;
mod util;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use util::{metric, result_line, Outcome};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A layer the
/// workload does not exercise reports 0: it did no work. Each is measured
/// on at least one listed workload. Four layers no listed workload can
/// move are printed as `#` lines only: `sim.tlb_accesses` (the default
/// machine models no TLB), `serve.evictions` (the default 64 MiB result
/// cache holds every body of a run), and `serve.coalesced` and
/// `bench.gen_late_p99_ms` (set by `serve_mix` alone).
pub const PER_LAYER: [(&str, &str); 34] = [
    ("experiments.timeseries_ms", "ms"),
    ("experiments.calibrate_ms", "ms"),
    ("experiments.io_pressure_ms", "ms"),
    ("executor.parallel_eff", "ratio"),
    ("executor.instance_imbalance", "ratio"),
    ("executor.dispatch_us", "us"),
    ("sim.ops", "count"),
    ("sim.cache_accesses", "count"),
    ("sim.prefetch_fills", "count"),
    ("sim.ns_per_op", "ns"),
    ("workloads.gen_ns_per_op", "ns"),
    ("serve.hit_ratio", "ratio"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("http.parse_us", "us"),
    ("json.key_us", "us"),
    ("cache.get_us", "us"),
    ("api.solve_us", "us"),
    ("api.sweep_us", "us"),
    ("api.equivalence_us", "us"),
    ("api.capacity_us", "us"),
    ("api.plan_us", "us"),
    ("model.solves_per_request", "count"),
    ("model.iterations_per_solve", "count"),
    ("stream.submit_ms", "ms"),
    ("stream.cells_resolved", "count"),
    ("stream.cells_skipped", "count"),
    ("stream.skip_ratio", "ratio"),
    ("stream.solve_share", "ratio"),
    ("stream.update_bytes_per_delta", "bytes"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["sim_characterize", "serve_mix", "stream_whatif"];

/// The workloads `BENCHMARK.json` lists. `serve_mix` runs by hand only: on
/// a small shared virtual machine its sub-millisecond latencies follow the
/// hypervisor, not the program (see README.md).
pub const LISTED: [&str; 2] = ["sim_characterize", "stream_whatif"];

/// The build directory: `CARGO_TARGET_DIR` when set, else `target/` of
/// the checkout.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir().unwrap_or_default().join(dir)
            }
        }
        None => proc::repo_root().join("target"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block: what a number must be read against.
fn host_line(nproc: usize) -> String {
    let root = proc::repo_root();
    let fields = [
        ("nproc", nproc.to_string()),
        ("memsense_threads", nproc.to_string()),
        ("rustc", command_line("rustc", &["--version"], &root)),
        (
            "git_sha",
            command_line("git", &["rev-parse", "HEAD"], &root),
        ),
        ("profile", "release".to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", memsense_experiments::json::quote(v)))
        .collect();
    format!("host {{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("membench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("sim-worker") {
        return sim::worker(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("membench: {e}");
            eprintln!(
                "usage: membench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("{}", host_line(nproc));

    let mut out = Outcome::default();
    match args.workload.as_str() {
        "sim_characterize" => sim::run(args.seed, args.seconds, args.trace, nproc, &mut out),
        workload => match proc::build_server() {
            Err(e) => {
                eprintln!("membench: {e}");
                return ExitCode::from(2);
            }
            Ok(bin) if workload == "serve_mix" => {
                serve::run(&bin, args.seed, args.seconds, args.trace, nproc, &mut out)
            }
            Ok(bin) => stream::run(&bin, args.seed, args.seconds, args.trace, nproc, &mut out),
        },
    }

    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("# FAILED: {failure}");
    }
    let metrics = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, unit, out.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
                if value.is_none() {
                    out.fail(format!("metric {name} was not measured"));
                }
                metric(name, unit, value.unwrap_or(0.0))
            })
            .collect::<Vec<_>>()
    };
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        for (name, value) in &out.layers {
            if !PER_LAYER.iter().any(|&(n, _)| n == name) {
                println!("# {name} = {value} (not in BENCHMARK.json)");
            }
        }
    }
    let attempted = out.attempted.max(1);
    println!(
        "# error_rate = {} ({} failed of {attempted} attempted)",
        out.failed as f64 / attempted as f64,
        out.failed
    );
    let correct = out.failed == 0;
    println!("{}", result_line(correct, attempted, out.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsense_experiments::json::Json;

    /// `BENCHMARK.json` and the metric tables above must agree.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = proc::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, LISTED);
        assert!(LISTED.iter().all(|w| WORKLOADS.contains(w)));
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload serve_mix --seed 4 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve_mix", 4, 2.5, true)
        );
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload serve_mix --trace 2")).is_err());
        assert!(parse_args(&a("--workload serve_mix --seconds -1")).is_err());
        assert!(parse_args(&a("--workload serve_mix --seed")).is_err());
    }
}
