//! A session solves every dirty set on the calling thread, so its output
//! is the same bytes at any `MEMSENSE_THREADS`, on a grid large enough that
//! an open and a `SetSystem` batch each re-solve over a thousand cells.

use std::process::Command;

use memsense_model::system::SystemConfig;
use memsense_model::units::Nanoseconds;
use memsense_model::workload::WorkloadParams;
use memsense_stream::grid::{GridSpec, MixEntry};
use memsense_stream::session::{Delta, Session};

/// The three Tab. 6 classes on a 20 × 20 bandwidth × latency grid: 1200
/// cells.
fn large_grid() -> GridSpec {
    let workloads = WorkloadParams::all_classes()
        .into_iter()
        .map(|workload| MixEntry {
            workload,
            weight: 1.0,
        })
        .collect();
    let bandwidth = (0..20).map(|i| -0.2 * f64::from(i)).collect();
    let latency = (0..20).map(|i| 5.0 * f64::from(i)).collect();
    GridSpec::validated(
        workloads,
        bandwidth,
        latency,
        SystemConfig::paper_baseline(),
    )
    .unwrap()
}

/// FNV-1a over every update body, ack and the closing snapshot of a
/// session on [`large_grid`].
fn output_digest() -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes.iter().chain(&[0xff]) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut session = Session::open(large_grid(), 2).unwrap();
    let system = |ns: f64| {
        SystemConfig::paper_baseline()
            .with_unloaded_latency(Nanoseconds(ns))
            .unwrap()
    };
    let calls = [
        vec![Delta::AddBandwidth(0.5), Delta::AddLatency(120.0)],
        vec![Delta::SetWeight {
            workload: 1,
            weight: 2.0,
        }],
        vec![Delta::SetSystem(system(90.0)), Delta::Flush],
        vec![Delta::RemoveLatency(120.0), Delta::AddBandwidth(-10.0)],
        vec![Delta::SetSystem(system(60.0)), Delta::RemoveBandwidth(0.5)],
    ];
    for call in &calls {
        write(format!("{:?}", session.submit(call)).as_bytes());
        for update in session.take_updates() {
            write(update.body.as_bytes());
        }
    }
    write(session.snapshot().as_bytes());
    hash
}

const CHILD: &str = "MEMSENSE_INLINE_SOLVE_CHILD";

/// Runs [`output_digest`] in a child process of this test binary at each
/// thread count (the executor reads `MEMSENSE_THREADS` once per process).
#[test]
fn output_is_identical_at_1_2_and_8_threads() {
    if std::env::var_os(CHILD).is_some() {
        println!("digest={:016x}", output_digest());
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let digests: Vec<String> = ["1", "2", "8"]
        .iter()
        .map(|threads| {
            let out = Command::new(&exe)
                .args([
                    "--exact",
                    "output_is_identical_at_1_2_and_8_threads",
                    "--nocapture",
                    "--test-threads=1",
                ])
                .env(CHILD, "1")
                .env("MEMSENSE_THREADS", threads)
                .output()
                .unwrap();
            assert!(out.status.success(), "child at {threads} threads failed");
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .find_map(|line| line.split("digest=").nth(1))
                .unwrap_or_else(|| panic!("no digest at {threads} threads: {stdout}"))
                .to_string()
        })
        .collect();
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
    assert_eq!(digests[0], format!("{:016x}", output_digest()));
}
