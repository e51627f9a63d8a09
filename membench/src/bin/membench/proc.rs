//! The processes under test: building and running the shipped
//! `memsense-serve` binary, and the benchmark's own simulator worker.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use memsense_serve::http::Client;

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Builds the shipped server binary (a no-op once it is up to date) and
/// returns its path.
pub fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let target = crate::target_dir();
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "memsense-serve",
            "--bin",
            "memsense-serve",
        ])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building memsense-serve failed ({status})"));
    }
    Ok(target.join("release").join("memsense-serve"))
}

/// A child process whose stdout is read line by line. The pipe stays open
/// for the child's whole life so its last prints never hit a closed pipe.
pub struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Proc {
    pub fn spawn(mut cmd: Command) -> Result<Proc, String> {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| "child has no stdout".to_string())?;
        Ok(Proc {
            child,
            stdout: BufReader::new(stdout),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Next stdout line without its newline; `None` at end of stream.
    pub fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_string()),
        }
    }

    /// [`Proc::line`], read on a helper thread while this one polls and
    /// yields: the CPU stays awake, so the line is seen as soon as it is
    /// written instead of after a hypervisor wake-up (see `wire`). Used
    /// where the wait is measured.
    pub fn line_awake(&mut self) -> Option<String> {
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| self.line());
            while !reader.is_finished() {
                std::thread::yield_now();
            }
            reader.join().ok().flatten()
        })
    }

    /// Waits up to `grace` for a clean exit, then kills. Returns whether
    /// the child exited successfully on its own.
    pub fn finish(mut self, grace: Duration) -> bool {
        // Drain whatever is left so the child never blocks on a full pipe.
        while self.line().is_some() {}
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A running `memsense-serve` daemon on an ephemeral port.
pub struct Server {
    proc: Proc,
    pub addr: String,
}

impl Server {
    /// Starts the daemon and waits until it is listening.
    pub fn start(bin: &Path, threads: usize) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .env("MEMSENSE_THREADS", threads.to_string());
        let mut proc = Proc::spawn(cmd)?;
        let first = proc
            .line_awake()
            .ok_or_else(|| "memsense-serve exited before listening".to_string())?;
        let addr = first
            .strip_prefix("memsense-serve listening on ")
            .ok_or_else(|| format!("unexpected server banner {first:?}"))?
            .to_string();
        Ok(Server { proc, addr })
    }

    pub fn peak_rss_mb(&self) -> f64 {
        crate::util::peak_rss_mb(Some(self.proc.pid()))
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// GET /metrics, parsed.
    pub fn metrics(&self) -> Result<memsense_experiments::json::Json, String> {
        let (status, body) = self
            .client()?
            .request("GET", "/metrics", "")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        memsense_experiments::json::Json::parse(&body).map_err(|e| format!("/metrics: {e}"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| {
                c.request("POST", "/v1/admin/shutdown", "")
                    .map_err(|e| e.to_string())
            })
            .map(|(status, _)| status == 200)
            .unwrap_or(false);
        let clean = self.proc.finish(Duration::from_secs(10));
        if asked && clean {
            Ok(())
        } else {
            Err("memsense-serve did not shut down cleanly".to_string())
        }
    }
}
