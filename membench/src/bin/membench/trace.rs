//! In-memory spans for the traced run, written out once at exit.
//!
//! A span is a name, a start and an end (nanoseconds since the run's
//! epoch), its own id and the id of the span that caused it. Spans of one
//! request (or one sim instance, or one stream POST) share a `trace` id.
//! Each recording thread owns its own [`Recorder`]; the recorders are
//! merged when the run ends, so recording never takes a lock.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded at the span's boundary (telemetry deltas, bytes).
    pub attrs: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `tag` keeps span ids unique across the recorders of one run.
    pub fn new(epoch: Instant, tag: u64) -> Recorder {
        Recorder {
            epoch,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        self.next += 1;
        let id = (self.tag << 40) | self.next;
        let span = Span {
            trace,
            id,
            parent,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs,
        };
        self.spans.push(span);
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.tag << 40) | self.next
    }

    /// Records a span under an id obtained from [`Recorder::reserve`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        trace: u64,
        parent: Option<u64>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) {
        let span = Span {
            trace,
            id,
            parent,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs,
        };
        self.spans.push(span);
    }
}

/// Where the traced run writes its spans: under the build directory, which
/// the checkout already ignores.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    crate::target_dir()
        .join("membench")
        .join(format!("trace-{workload}-seed{seed}.jsonl"))
}

/// Writes one JSON object per span.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let attrs: Vec<String> = s
            .attrs
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { 0.0 }))
            .collect();
        writeln!(
            out,
            "{{\"trace\": {}, \"span\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {{{}}}}}",
            s.trace,
            s.id,
            memsense_experiments::json::quote(&s.name),
            s.start_ns,
            s.end_ns,
            attrs.join(", ")
        )?;
    }
    out.flush()
}
