//! End-to-end tests of the `repro` command-line binary.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn repro_with_threads(threads: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("MEMSENSE_THREADS", threads)
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn help_lists_targets() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    for target in ["fig1", "fig11", "tab7", "hierarchy", "scorecard", "design"] {
        assert!(err.contains(target), "help mentions {target}: {err}");
    }
}

#[test]
fn unknown_target_fails() {
    let out = repro(&["nonsense"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown target"));
}

#[test]
fn fig1_prints_and_writes_csv() {
    let out = repro(&["fig1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fig. 1"));
    assert!(stdout.contains("cpu_capability"));
    assert!(stdout.contains("[wrote "));
}

#[test]
fn model_only_targets_run_quickly() {
    // These need no calibration, so they must run fast and cleanly.
    for target in [
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "tab7",
        "hierarchy",
        "numa",
        "futuretech",
        "tornado",
        "cpistack",
        "design",
    ] {
        let out = repro(&[target]);
        assert!(
            out.status.success(),
            "{target}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{target} produced output");
    }
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    // The executor's serial-equivalence guarantee: tables and figures
    // rendered with 1 thread and with 8 threads must match byte for byte,
    // including stage ordering (the model-only targets cover solver-backed
    // tables, sweeps, and multi-table stages).
    let targets = [
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "tab7",
        "hierarchy",
        "numa",
        "futuretech",
        "tornado",
        "cpistack",
        "design",
        "channels",
    ];
    let serial = repro_with_threads("1", &targets);
    let parallel = repro_with_threads("8", &targets);
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert!(
        parallel.status.success(),
        "{}",
        String::from_utf8_lossy(&parallel.stderr)
    );
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "1-thread and 8-thread stdout must be byte-identical"
    );
}

#[test]
fn report_flag_prints_telemetry_and_writes_json() {
    let out = repro_with_threads("4", &["--report", "fig8", "tornado"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Run report: 2 stages on 4 threads"),
        "{stdout}"
    );
    for column in ["stage", "wall_ms", "jobs", "failures"] {
        assert!(stdout.contains(column), "report table has {column}");
    }
    assert!(stdout.contains("solves"), "solver tallies included");
    let json_line = stdout
        .lines()
        .find(|l| l.contains("run_report.json"))
        .expect("JSON path echoed");
    let path = json_line
        .trim_start_matches("[wrote ")
        .trim_end_matches(']');
    let json = std::fs::read_to_string(path).expect("run_report.json written");
    for key in [
        "\"threads\": 4",
        "\"stages\"",
        "\"jobs\"",
        "\"solver\"",
        "\"total_wall_ms\"",
    ] {
        assert!(json.contains(key), "JSON has {key}: {json}");
    }
    assert!(json.contains("\"name\": \"fig8\""));
    assert!(json.contains("\"name\": \"tornado\""));
}

/// `(name, jobs, failures)` of every stage in a `--report` run's JSON. Each
/// thread count runs in its own directory, so concurrent tests cannot
/// overwrite its `run_report.json`.
fn stage_job_counts(threads: &str, targets: &[&str]) -> Vec<(String, u64, u64)> {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("report-{threads}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .env("MEMSENSE_THREADS", threads)
        .arg("--report")
        .args(targets)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("target/repro/run_report.json"))
        .expect("run_report.json written");
    let report = memsense_experiments::json::Json::parse(&json).expect("report parses");
    report
        .get("stages")
        .and_then(|s| s.as_arr())
        .expect("stages array")
        .iter()
        .map(|stage| {
            let count = |key| stage.get(key).and_then(|v| v.as_u64()).expect(key);
            let name = stage.get("name").and_then(|v| v.as_str()).expect("name");
            (name.to_string(), count("jobs"), count("failures"))
        })
        .collect()
}

#[test]
fn report_attributes_every_stage_job_at_any_thread_count() {
    // Job counts follow the call structure, not label prefixes, so they
    // are the same serially and in parallel. These stages do not share
    // the one-time calibration, which counts under whichever stage runs
    // it first.
    let targets = ["fig8", "tornado", "io", "channels"];
    let serial = stage_job_counts("1", &targets);
    let parallel = stage_job_counts("4", &targets);
    assert_eq!(serial, parallel, "per-stage counts differ by thread count");
    for stage in ["io", "channels"] {
        let (_, jobs, _) = serial
            .iter()
            .find(|(name, _, _)| name == stage)
            .expect("stage reported");
        assert!(*jobs > 0, "{stage} dispatched no recorded jobs: {serial:?}");
    }
}

#[test]
fn invalid_thread_count_is_a_one_line_diagnostic() {
    for bad in ["abc", "-2", "1.5", ""] {
        let out = repro_with_threads(bad, &["fig1"]);
        assert_eq!(out.status.code(), Some(2), "MEMSENSE_THREADS={bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("invalid MEMSENSE_THREADS value"),
            "MEMSENSE_THREADS={bad:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn failing_stage_exits_via_error_path_not_panic() {
    // An unknown target must produce the one-line diagnostic and a failure
    // exit code — never a panic backtrace.
    let out = repro(&["fig8", "zzz"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error running zzz"), "{err}");
    assert!(!err.contains("panicked"), "no panic on bad target: {err}");
}

#[test]
fn fig10_includes_ascii_plot() {
    let out = repro(&["fig10"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fig. 10 (shape)"));
    assert!(stdout.contains("Enterprise class"));
    assert!(stdout.contains("[x: compulsory latency ns]"));
}
