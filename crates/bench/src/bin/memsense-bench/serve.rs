//! `serve-baseline`: sustained warm throughput and nearest-rank p50/p99 of
//! the `memsense-serve` load generator against a dedicated in-process
//! server (epoll reactor + worker pool).

use std::time::Duration;

use memsense_experiments::json::Json;
use memsense_serve::bench::{self, BenchConfig};
use memsense_serve::server::{Server, ServerConfig};

use crate::baseline::{Baseline, Metric, Scenario};

/// Concurrent keep-alive connections a recording uses.
pub const CONNECTIONS: usize = 512;

/// Warm-phase seconds a recording uses.
pub const DURATION_S: f64 = 3.0;

/// Endpoint a recording hammers: the dense bandwidth sweep, one heavy solve
/// and then pure cache traffic.
pub const PATH: &str = "/v1/sweep/bandwidth";

/// Drives `connections` keep-alive clients at `path` for `duration_s`
/// seconds. The server's connection cap leaves slack so the generator
/// itself is never 503'd.
pub fn measure(connections: usize, duration_s: f64, path: &str) -> Result<Baseline, String> {
    let connections = connections.max(1);
    let mut server = Server::start(&ServerConfig {
        max_connections: connections + 64,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    let result = bench::run(&BenchConfig {
        addr: Some(server.addr().to_string()),
        connections,
        duration: Duration::from_secs_f64(duration_s),
        path: path.to_string(),
        ..BenchConfig::default()
    });
    server.stop();
    server.join();
    let report = result.map_err(|e| format!("load generator failed: {e}"))?;
    let params = Json::obj(vec![
        ("connections", Json::num(connections as f64)),
        ("duration_s", Json::num(duration_s)),
        ("path", Json::str(path)),
    ]);
    let metrics = vec![
        Metric::higher("throughput_rps", report.throughput_rps),
        Metric::lower("warm_p50_ms", report.warm_p50_ms),
        Metric::lower("warm_p99_ms", report.warm_p99_ms),
    ];
    Ok(Baseline::measured(Scenario::Serve, params, metrics))
}
