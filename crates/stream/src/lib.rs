//! memsense-stream: sessionful incremental sweep evaluation.
//!
//! The paper's sweeps (Figs. 5–9) recompute an entire
//! bandwidth × latency × workload grid even when one parameter moves. A
//! production "what-if" service sees the opposite access pattern: a stream
//! of small deltas against a mostly-stable model state. This crate makes
//! that incremental: a [`session::Session`] holds a materialized sweep
//! grid ([`grid::GridSpec`]). Clients submit [`session::Delta`] ops; the
//! session batches them by a batching knob and records, per batch, only
//! **which parameters moved**: axis points added, workloads reweighted,
//! the hardware config replaced. The grid is always a full cross product,
//! so one pass over the final grid reads the dirty cells off those
//! parameters. The batch re-solves only them and emits a per-batch
//! [`session::Update`] record — changed cells only, canonical JSON
//! ([`grid::render_cell`] writes each cell's bytes directly), monotone
//! sequence numbers.
//!
//! The contract that makes incremental trustworthy: after any delta
//! sequence, the session state is **byte-identical** to a from-scratch
//! full-grid solve of the evolved spec (`tests/differential.rs` proves it
//! over random sequences). The win is the skip ratio: a single-point delta
//! re-solves only that point's row of cells, so `cells_skipped /
//! cells_resolved` grows with grid size (`memsense-bench stream-baseline`
//! measures it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod session;

/// Errors a stream session surfaces to callers.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A delta or spec input was malformed (message names the problem).
    InvalidDelta(String),
    /// A cell solve failed; the whole batch is rolled back.
    Model(memsense_model::ModelError),
}

impl StreamError {
    pub(crate) fn invalid(message: &str) -> StreamError {
        StreamError::InvalidDelta(message.to_string())
    }
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::InvalidDelta(message) => write!(f, "invalid delta: {message}"),
            StreamError::Model(err) => write!(f, "model error: {err}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<memsense_model::ModelError> for StreamError {
    fn from(err: memsense_model::ModelError) -> StreamError {
        StreamError::Model(err)
    }
}
