//! The stream-session registry: serve's stateful layer over
//! `memsense-stream`.
//!
//! Every other endpoint is stateless — identical bytes in, identical bytes
//! out, which is why the result cache and single-flight table work. Stream
//! sessions are the opposite: a `POST /v1/stream/{id}/delta` *mutates*
//! session state, so these endpoints bypass the cache entirely (see
//! [`crate::server`]'s bypass predicate) and live here, keyed by a numeric
//! session id.
//!
//! Locking: the registry map lock is only ever held for id lookup and
//! insert/remove — never across a solve. Each session sits behind its own
//! `Mutex` inside an `Arc`, so concurrent deltas to *different* sessions
//! solve in parallel on the worker pool while deltas to the *same* session
//! serialize (the session API is sequential by design).
//!
//! The reactor thread never takes a blocking lock here (the
//! `reactor-no-blocking-call` invariant): reactor-inline paths —
//! [`StreamRegistry::take_updates`] and [`StreamRegistry::evict_idle`] —
//! acquire both the map lock and session locks via `try_lock` only,
//! surfacing contention as [`UpdatesPoll::Busy`] or a skipped sweep round.
//! The open-session count is mirrored into an atomic so
//! [`StreamRegistry::sessions`] and [`StreamRegistry::snapshot`] (the
//! `/metrics` path) are lock-free. Worker-side paths ([`StreamRegistry::open`],
//! [`StreamRegistry::delta`]) may block on the map lock; its critical
//! sections are bounded id lookups and inserts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use memsense_experiments::executor;
use memsense_experiments::json::Json;
use memsense_stream::session::{Session, SubmitAck, Update};

use crate::api::{self, ApiError};

/// Most concurrently open sessions; opens beyond this get a 503.
pub const MAX_SESSIONS: usize = 64;

/// How long a session may go without a delta or updates poll before the
/// reactor's sweep evicts it.
pub const SESSION_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Counters for the `/metrics` `stream` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// Sessions currently open.
    pub sessions: u64,
    /// Delta ops applied (committed to a session) over the registry's
    /// lifetime; pending and rolled-back ops do not count.
    pub deltas: u64,
    /// Cells re-solved (including opening full solves).
    pub cells_resolved: u64,
    /// Cells the sessions did not need to re-solve.
    pub cells_skipped: u64,
}

struct SessionState {
    session: Session,
    last_used: Instant,
}

/// What an updates poll found. The reactor serves this endpoint inline, so
/// it must never wait on a session lock — a busy session is reported as
/// such instead of blocking.
#[derive(Debug)]
pub enum UpdatesPoll {
    /// The session's buffered updates, drained (possibly empty).
    Drained(Vec<Update>),
    /// The session is mid-delta on a worker; poll again shortly.
    Busy,
    /// No such session.
    Unknown,
}

/// The registry: session id → session, plus lifetime counters.
#[derive(Default)]
pub struct StreamRegistry {
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<SessionState>>>>,
    /// Mirror of `sessions.len()`, maintained at insert/evict, so the
    /// count is readable without touching the map lock.
    session_count: AtomicU64,
    next_id: AtomicU64,
    deltas: AtomicU64,
    cells_resolved: AtomicU64,
    cells_skipped: AtomicU64,
}

type SessionMap = BTreeMap<u64, Arc<Mutex<SessionState>>>;

impl StreamRegistry {
    /// Creates an empty registry.
    pub fn new() -> StreamRegistry {
        StreamRegistry::default()
    }

    /// The registry map, worker-side: blocks until the lock is free. Never
    /// called on the reactor thread — reactor paths go through
    /// [`StreamRegistry::try_locked`]. Poisoning means a panic
    /// mid-insert/lookup; session bookkeeping is no longer trustworthy, so
    /// fail loud.
    fn locked(&self) -> std::sync::MutexGuard<'_, SessionMap> {
        // memsense-lint: allow(no-panic-in-lib) — poisoned registry = corrupted session table
        self.sessions.lock().expect("stream registry lock poisoned")
    }

    /// The registry map, reactor-side: `try_lock` only, `None` on
    /// contention (a worker is mid-insert; the caller reports Busy or
    /// skips the round and retries on the next tick).
    fn try_locked(&self) -> Option<std::sync::MutexGuard<'_, SessionMap>> {
        match self.sessions.try_lock() {
            Ok(map) => Some(map),
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(_)) => {
                // memsense-lint: allow(no-panic-in-lib) — poisoned registry = corrupted session table
                panic!("stream registry lock poisoned")
            }
        }
    }

    fn slot(&self, id: u64) -> Option<Arc<Mutex<SessionState>>> {
        self.locked().get(&id).cloned()
    }

    /// `POST /v1/stream/open` (worker-pool side): validates the spec,
    /// solves the full grid, and registers the session. Returns the
    /// response status and body.
    pub fn open(&self, body: &Json) -> (u16, String) {
        let (spec, batch) = match api::stream_open(body) {
            Ok(parsed) => parsed,
            Err(e) => return (e.status, e.body()),
        };
        // Optimistic cap check before paying for the full-grid solve; the
        // authoritative check happens again at insert.
        if self.sessions() >= MAX_SESSIONS {
            return session_cap_response();
        }
        let session = match Session::open(spec, batch) {
            Ok(session) => session,
            Err(e) => {
                let e = stream_api_error(e);
                return (e.status, e.body());
            }
        };
        // The opening solve fans out through the shared executor; a
        // long-lived daemon must drain its job log.
        executor::drain_job_log();
        let (_, resolved, skipped) = session.counters();
        self.cells_resolved.fetch_add(resolved, Ordering::Relaxed);
        self.cells_skipped.fetch_add(skipped, Ordering::Relaxed);

        let response = Json::obj(vec![
            ("batch", Json::num(session.batch() as f64)),
            (
                "bandwidth_points",
                Json::num(session.spec().bandwidth_deltas.len() as f64),
            ),
            ("grid_cells", Json::num(session.grid_cells() as f64)),
            (
                "latency_points",
                Json::num(session.spec().latency_steps_ns.len() as f64),
            ),
            ("seq", Json::num(session.seq() as f64)),
            (
                "workloads",
                Json::num(session.spec().workloads.len() as f64),
            ),
        ]);
        let slot = Arc::new(Mutex::new(SessionState {
            session,
            last_used: Instant::now(),
        }));
        let id = {
            let mut map = self.locked();
            if map.len() >= MAX_SESSIONS {
                return session_cap_response();
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            map.insert(id, slot);
            self.session_count.fetch_add(1, Ordering::Relaxed);
            id
        };
        let Json::Obj(mut fields) = response else {
            // memsense-lint: allow(no-panic-in-lib) — constructed as an object above
            unreachable!("open response is an object");
        };
        fields.push(("session".to_string(), Json::num(id as f64)));
        (200, Json::Obj(fields).canonical())
    }

    /// `POST /v1/stream/{id}/delta` (worker-pool side): parses and submits
    /// the ops. Returns the response status and body.
    pub fn delta(&self, id: u64, body: &Json) -> (u16, String) {
        let ops = match api::stream_deltas(body) {
            Ok(ops) => ops,
            Err(e) => return (e.status, e.body()),
        };
        let Some(slot) = self.slot(id) else {
            return unknown_session_response(id);
        };
        // memsense-lint: allow(no-panic-in-lib) — per-session lock, same poisoning rationale as the map
        let mut state = slot.lock().expect("stream session lock poisoned");
        state.last_used = Instant::now();
        let ack = match state.session.submit(&ops) {
            Ok(ack) => ack,
            Err(err) => {
                executor::drain_job_log();
                // The offending batch rolled back, but batches applied
                // earlier in the same call are committed: fold them into
                // the lifetime counters and tell the client exactly how far
                // the session moved before the failure.
                self.record_applied(&err.ack);
                let e = stream_api_error(err.error);
                let body = Json::obj(vec![
                    ("applied_batches", Json::num(err.ack.applied_batches as f64)),
                    ("applied_deltas", Json::num(err.ack.applied_deltas as f64)),
                    ("cells_resolved", Json::num(err.ack.cells_resolved as f64)),
                    ("cells_skipped", Json::num(err.ack.cells_skipped as f64)),
                    ("error", Json::str(&e.message)),
                    ("seq", Json::num(err.ack.seq as f64)),
                    ("session", Json::num(id as f64)),
                ])
                .canonical();
                return (e.status, body);
            }
        };
        executor::drain_job_log();
        self.record_applied(&ack);
        let body = Json::obj(vec![
            ("accepted", Json::num(ack.accepted as f64)),
            ("applied_batches", Json::num(ack.applied_batches as f64)),
            ("applied_deltas", Json::num(ack.applied_deltas as f64)),
            ("cells_resolved", Json::num(ack.cells_resolved as f64)),
            ("cells_skipped", Json::num(ack.cells_skipped as f64)),
            ("pending", Json::num(ack.pending as f64)),
            ("seq", Json::num(ack.seq as f64)),
            ("session", Json::num(id as f64)),
        ])
        .canonical();
        (200, body)
    }

    /// Folds one (possibly partial) ack into the lifetime counters. The
    /// `deltas` metric counts ops actually committed, so a failed call's
    /// applied prefix still counts and a fully-rolled-back call adds zero.
    fn record_applied(&self, ack: &SubmitAck) {
        self.deltas.fetch_add(ack.applied_deltas, Ordering::Relaxed);
        self.cells_resolved
            .fetch_add(ack.cells_resolved, Ordering::Relaxed);
        self.cells_skipped
            .fetch_add(ack.cells_skipped, Ordering::Relaxed);
    }

    /// `GET /v1/stream/{id}/updates` (reactor-inline): drains the session's
    /// buffered update records.
    ///
    /// This runs on the reactor thread, whose invariant is that it never
    /// blocks — a worker applying a delta to the same session holds the
    /// session lock across the whole solve (seconds on a large grid), and
    /// a blocking `lock()` here would stall every connection on the server
    /// for that long. `try_lock` only, the same discipline as
    /// [`StreamRegistry::evict_idle`]; contention surfaces as
    /// [`UpdatesPoll::Busy`].
    pub fn take_updates(&self, id: u64) -> UpdatesPoll {
        // The map lock itself follows the same discipline: a worker holds
        // it only across an id lookup or insert, but the reactor still must
        // not park on even that — report Busy and let the client re-poll.
        let Some(map) = self.try_locked() else {
            return UpdatesPoll::Busy;
        };
        let Some(slot) = map.get(&id).cloned() else {
            return UpdatesPoll::Unknown;
        };
        drop(map);
        let poll = match slot.try_lock() {
            Ok(mut state) => {
                state.last_used = Instant::now();
                UpdatesPoll::Drained(state.session.take_updates())
            }
            Err(std::sync::TryLockError::WouldBlock) => UpdatesPoll::Busy,
            Err(std::sync::TryLockError::Poisoned(_)) => {
                // memsense-lint: allow(no-panic-in-lib) — same poisoning rationale as the map
                panic!("stream session lock poisoned")
            }
        };
        poll
    }

    /// Evicts sessions idle longer than `timeout`; sessions currently
    /// mid-delta are busy by definition and skipped, and a contended map
    /// lock skips the whole round (the reactor sweeps again next tick).
    /// Returns how many were evicted.
    pub fn evict_idle(&self, timeout: Duration) -> usize {
        let Some(mut map) = self.try_locked() else {
            return 0;
        };
        let stale: Vec<u64> = map
            .iter()
            .filter(|(_, slot)| match slot.try_lock() {
                Ok(state) => state.last_used.elapsed() >= timeout,
                Err(_) => false,
            })
            .map(|(&id, _)| id)
            .collect();
        for id in &stale {
            map.remove(id);
            self.session_count.fetch_sub(1, Ordering::Relaxed);
        }
        stale.len()
    }

    /// Open-session count. Lock-free: reads the atomic mirror, so the
    /// `/metrics` path never touches the registry lock.
    pub fn sessions(&self) -> usize {
        self.session_count.load(Ordering::Relaxed) as usize
    }

    /// Counters for `/metrics`. Lock-free, same as [`StreamRegistry::sessions`].
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            sessions: self.session_count.load(Ordering::Relaxed),
            deltas: self.deltas.load(Ordering::Relaxed),
            cells_resolved: self.cells_resolved.load(Ordering::Relaxed),
            cells_skipped: self.cells_skipped.load(Ordering::Relaxed),
        }
    }
}

fn stream_api_error(e: memsense_stream::StreamError) -> ApiError {
    match e {
        memsense_stream::StreamError::InvalidDelta(message) => ApiError::bad(message),
        memsense_stream::StreamError::Model(e) => ApiError::bad(format!("model error: {e}")),
    }
}

fn session_cap_response() -> (u16, String) {
    (
        503,
        crate::api::error_body(&format!("session limit reached ({MAX_SESSIONS})")),
    )
}

fn unknown_session_response(id: u64) -> (u16, String) {
    (
        404,
        crate::api::error_body(&format!("no such session: {id}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_small(registry: &StreamRegistry) -> u64 {
        let body =
            Json::parse(r#"{"workloads": ["big data"], "deltas": [0.0], "steps_ns": [0.0, 10.0]}"#)
                .unwrap();
        let (status, response) = registry.open(&body);
        assert_eq!(status, 200, "{response}");
        Json::parse(&response)
            .unwrap()
            .get("session")
            .and_then(Json::as_u64)
            .unwrap()
    }

    fn drained(registry: &StreamRegistry, id: u64) -> Vec<Update> {
        match registry.take_updates(id) {
            UpdatesPoll::Drained(updates) => updates,
            other => panic!("expected drained updates, got {other:?}"),
        }
    }

    #[test]
    fn open_delta_updates_round_trip() {
        let registry = StreamRegistry::new();
        let id = open_small(&registry);
        assert_eq!(registry.sessions(), 1);

        // The opening snapshot is buffered as seq 0.
        let updates = drained(&registry, id);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].seq, 0);

        let ops = Json::parse(r#"{"deltas": [{"op": "add_bandwidth", "delta": -0.5}]}"#).unwrap();
        let (status, body) = registry.delta(id, &ops);
        assert_eq!(status, 200, "{body}");
        let ack = Json::parse(&body).unwrap();
        assert_eq!(ack.get("session").and_then(Json::as_u64), Some(id));
        assert_eq!(ack.get("cells_resolved").and_then(Json::as_u64), Some(2));
        assert_eq!(ack.get("seq").and_then(Json::as_u64), Some(1));

        let updates = drained(&registry, id);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].seq, 1);
        // Drained means drained.
        assert!(drained(&registry, id).is_empty());

        let snap = registry.snapshot();
        assert_eq!(snap.sessions, 1);
        assert_eq!(snap.deltas, 1);
        assert!(snap.cells_resolved >= 4, "opening solve + delta recorded");
    }

    #[test]
    fn unknown_sessions_are_404() {
        let registry = StreamRegistry::new();
        let ops = Json::parse(r#"{"deltas": [{"op": "flush"}]}"#).unwrap();
        let (status, body) = registry.delta(999, &ops);
        assert_eq!(status, 404);
        assert!(body.contains("no such session"));
        assert!(matches!(registry.take_updates(999), UpdatesPoll::Unknown));
    }

    #[test]
    fn busy_sessions_never_block_an_updates_poll() {
        // A worker mid-delta holds the session lock for the whole solve;
        // the reactor-inline poll must report Busy instead of waiting.
        let registry = StreamRegistry::new();
        let id = open_small(&registry);
        let slot = registry.slot(id).expect("session exists");
        let _mid_delta = slot.lock().unwrap();
        assert!(matches!(registry.take_updates(id), UpdatesPoll::Busy));
        drop(_mid_delta);
        assert_eq!(drained(&registry, id).len(), 1, "unlocked drains again");
    }

    #[test]
    fn contended_registry_map_reports_busy_and_skips_the_sweep() {
        // A worker mid-insert holds the map lock; reactor-inline paths must
        // not park on it. The poll reports Busy, the sweep skips the round,
        // and the session count stays readable through the atomic mirror.
        let registry = StreamRegistry::new();
        let id = open_small(&registry);
        let _mid_insert = registry.sessions.lock().unwrap();
        assert!(matches!(registry.take_updates(id), UpdatesPoll::Busy));
        assert_eq!(registry.evict_idle(Duration::ZERO), 0, "sweep skipped");
        assert_eq!(registry.sessions(), 1, "count is lock-free");
        drop(_mid_insert);
        assert_eq!(registry.evict_idle(Duration::ZERO), 1);
        assert_eq!(registry.sessions(), 0);
    }

    #[test]
    fn partial_failure_reports_and_counts_the_applied_prefix() {
        let registry = StreamRegistry::new();
        let id = open_small(&registry);
        // Batch knob 1 (open default): the add commits, then the remove of
        // a point not in the grid fails. The 400 must say how far the
        // session moved, and the committed prefix must reach /metrics.
        let ops = Json::parse(
            r#"{"deltas": [
                {"op": "add_bandwidth", "delta": -0.5},
                {"op": "remove_bandwidth", "delta": 42.0}
            ]}"#,
        )
        .unwrap();
        let (status, body) = registry.delta(id, &ops);
        assert_eq!(status, 400, "{body}");
        let err = Json::parse(&body).unwrap();
        assert_eq!(err.get("applied_batches").and_then(Json::as_u64), Some(1));
        assert_eq!(err.get("applied_deltas").and_then(Json::as_u64), Some(1));
        assert_eq!(err.get("cells_resolved").and_then(Json::as_u64), Some(2));
        assert_eq!(err.get("seq").and_then(Json::as_u64), Some(1));
        assert!(err.get("error").is_some(), "{body}");

        let snap = registry.snapshot();
        assert_eq!(snap.deltas, 1, "the committed op counts");
        assert!(snap.cells_resolved >= 4, "opening solve + committed add");
        // The committed batch's update is drainable like any other.
        let updates = drained(&registry, id);
        assert_eq!(updates.last().unwrap().seq, 1);
    }

    #[test]
    fn invalid_ops_do_not_count_as_deltas() {
        let registry = StreamRegistry::new();
        let id = open_small(&registry);
        let ops =
            Json::parse(r#"{"deltas": [{"op": "remove_bandwidth", "delta": 42.0}]}"#).unwrap();
        let (status, body) = registry.delta(id, &ops);
        assert_eq!(status, 400, "{body}");
        assert_eq!(registry.snapshot().deltas, 0);
    }

    #[test]
    fn session_cap_is_enforced_with_503() {
        let registry = StreamRegistry::new();
        for _ in 0..MAX_SESSIONS {
            open_small(&registry);
        }
        let body =
            Json::parse(r#"{"workloads": ["big data"], "deltas": [0.0], "steps_ns": [0.0]}"#)
                .unwrap();
        let (status, response) = registry.open(&body);
        assert_eq!(status, 503, "{response}");
        assert!(response.contains("session limit"));
        assert_eq!(registry.sessions(), MAX_SESSIONS);
    }

    #[test]
    fn idle_sessions_are_evicted_but_fresh_ones_stay() {
        let registry = StreamRegistry::new();
        let id = open_small(&registry);
        assert_eq!(registry.evict_idle(Duration::from_secs(3600)), 0);
        assert_eq!(registry.sessions(), 1);
        assert_eq!(registry.evict_idle(Duration::ZERO), 1);
        assert_eq!(registry.sessions(), 0);
        assert!(
            matches!(registry.take_updates(id), UpdatesPoll::Unknown),
            "evicted session is gone"
        );
    }
}
