//! Process-wide simulator work telemetry.
//!
//! Machines flush their lifetime work counters — ops simulated, cache and
//! TLB accesses, prefetch fills — into a set of process-global atomics when
//! they are dropped. Harnesses (notably `memsense-bench sim-baseline`'s
//! profile table) snapshot the registry around a stage to attribute simulator
//! work to it: every machine a stage builds is also dropped inside it, so
//! per-stage deltas are exact as long as stages do not run concurrently.
//!
//! The counters only ever accumulate; readers work with snapshot deltas.

use std::sync::atomic::{AtomicU64, Ordering};

static OPS: AtomicU64 = AtomicU64::new(0);
static CACHE_ACCESSES: AtomicU64 = AtomicU64::new(0);
static TLB_ACCESSES: AtomicU64 = AtomicU64::new(0);
static PREFETCH_FILLS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-wide simulator work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Instructions retired across all dropped machines.
    pub ops: u64,
    /// Cache accesses (hits + misses, all levels).
    pub cache_accesses: u64,
    /// TLB translations (hits + misses; 0 when the TLB model is disabled).
    pub tlb_accesses: u64,
    /// Prefetch fills brought into the LLC.
    pub prefetch_fills: u64,
}

impl TelemetrySnapshot {
    /// Work performed since `earlier` (counters are monotone, so plain
    /// saturating subtraction is exact).
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            ops: self.ops.saturating_sub(earlier.ops),
            cache_accesses: self.cache_accesses.saturating_sub(earlier.cache_accesses),
            tlb_accesses: self.tlb_accesses.saturating_sub(earlier.tlb_accesses),
            prefetch_fills: self.prefetch_fills.saturating_sub(earlier.prefetch_fills),
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        ops: OPS.load(Ordering::Relaxed),
        cache_accesses: CACHE_ACCESSES.load(Ordering::Relaxed),
        tlb_accesses: TLB_ACCESSES.load(Ordering::Relaxed),
        prefetch_fills: PREFETCH_FILLS.load(Ordering::Relaxed),
    }
}

/// Adds one machine's lifetime work to the registry (called on drop).
pub(crate) fn record(delta: TelemetrySnapshot) {
    OPS.fetch_add(delta.ops, Ordering::Relaxed);
    CACHE_ACCESSES.fetch_add(delta.cache_accesses, Ordering::Relaxed);
    TLB_ACCESSES.fetch_add(delta.tlb_accesses, Ordering::Relaxed);
    PREFETCH_FILLS.fetch_add(delta.prefetch_fills, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_delta_subtracts() {
        let before = snapshot();
        record(TelemetrySnapshot {
            ops: 10,
            cache_accesses: 7,
            tlb_accesses: 3,
            prefetch_fills: 1,
        });
        record(TelemetrySnapshot {
            ops: 5,
            cache_accesses: 2,
            tlb_accesses: 0,
            prefetch_fills: 4,
        });
        let after = snapshot();
        let d = after.delta_since(&before);
        // Other tests may drop machines concurrently, so the delta is at
        // least what this test recorded.
        assert!(d.ops >= 15);
        assert!(d.cache_accesses >= 9);
        assert!(d.tlb_accesses >= 3);
        assert!(d.prefetch_fills >= 5);
    }

    #[test]
    fn delta_since_saturates() {
        let a = TelemetrySnapshot {
            ops: 1,
            ..TelemetrySnapshot::default()
        };
        let b = TelemetrySnapshot {
            ops: 5,
            ..TelemetrySnapshot::default()
        };
        assert_eq!(a.delta_since(&b).ops, 0);
    }
}
