//! Output fingerprint: every update body and every submit ack, hashed.
//!
//! The differential tests prove the incremental *state* equals a
//! from-scratch solve, but not that the *update stream* a client folds is
//! stable. This test replays one fixed deterministic delta stream into the
//! default grid at batch 1, 8, 64 and 512, and folds every `Update` body,
//! every `submit` result (`SubmitAck` / `SubmitError` in `Debug` form) and
//! the closing snapshot into one FNV-1a hash. Any change to what a session
//! emits — a byte of an update, a counter in an ack — changes the hash.
//!
//! The stream covers every op kind: axis adds and removes on both axes
//! (including `-0.0` and already-present points), an add and a remove of
//! the same point back to back (one batch at batch > 1), weight tweaks
//! (including no-op re-sets), `SetSystem` (new and unchanged), explicit
//! `Flush`es, and a rejected remove whose partial ack is hashed too.

use memsense_model::system::SystemConfig;
use memsense_model::units::Nanoseconds;
use memsense_stream::grid::GridSpec;
use memsense_stream::session::{Delta, Session};

/// The FNV-1a fingerprint of the session output for [`calls`] at every
/// batch in [`BATCHES`]. A different value means a client sees different
/// update bytes or acks.
const EXPECTED: u64 = 0x89be_0885_f206_3978;

/// Batch sizes replayed, as in `memsense-bench stream-baseline`.
const BATCHES: [usize; 4] = [1, 8, 64, 512];

/// Ops in the replayed stream (more than one 512-op batch).
const OPS: usize = 640;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so "ab"+"c" and "a"+"bc" hash differently.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn system(latency_ns: f64) -> SystemConfig {
    SystemConfig::paper_baseline()
        .with_unloaded_latency(Nanoseconds(latency_ns))
        .expect("fixed latencies are valid")
}

/// The fixed op stream, as submit calls of varying length. Most added
/// points lie off the default axes (bandwidth > 0, latency > 60 ns) and
/// each is removed a few ops later. Slots 9 and 10 add and remove a
/// negative bandwidth point, which sometimes is a default point: the add
/// is then a no-op and the remove takes a committed point away for good
/// (0, -3 and -3.5 GB/s are never touched, so the axis never empties).
/// The stream is therefore valid at any batch size.
fn calls() -> Vec<Vec<Delta>> {
    let mut ops = Vec::with_capacity(OPS);
    for i in 0..OPS {
        let cycle = i / 16;
        let bw = 0.25 * (1 + cycle % 11) as f64;
        let lat = 65.0 + 5.0 * (cycle % 9) as f64;
        let op = match i % 16 {
            0 => Delta::AddBandwidth(bw),
            1 => Delta::AddLatency(lat),
            2 => Delta::SetWeight {
                workload: cycle % 3,
                weight: 0.5 + 0.25 * (cycle % 7) as f64,
            },
            // Already on the default axes: no-ops, one spelled `-0.0`.
            3 => Delta::AddBandwidth(-0.0),
            4 => Delta::RemoveBandwidth(bw),
            5 => Delta::AddLatency(lat + 2.5),
            6 => Delta::RemoveLatency(lat + 2.5),
            7 if cycle % 6 == 0 => Delta::SetSystem(system(90.0)),
            7 if cycle % 6 == 3 => Delta::SetSystem(system(75.0)),
            7 => Delta::SetWeight {
                workload: (cycle + 1) % 3,
                weight: 1.0,
            },
            8 => Delta::RemoveLatency(lat),
            9 => Delta::AddBandwidth(-bw),
            10 => Delta::RemoveBandwidth(-bw),
            11 if cycle % 5 == 0 => Delta::Flush,
            12 => Delta::SetSystem(system(if cycle % 6 < 3 { 90.0 } else { 75.0 })),
            13 => Delta::AddLatency(0.0),
            _ => Delta::SetWeight {
                workload: i % 3,
                weight: 1.0 + 0.5 * (i % 4) as f64,
            },
        };
        ops.push(op);
    }
    // Split into submit calls of 1, 2, 3, 5, 8 ops, cycling.
    let mut calls = Vec::new();
    let mut rest = ops.as_slice();
    for len in [1usize, 2, 3, 5, 8].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(len.min(rest.len()));
        calls.push(head.to_vec());
        rest = tail;
    }
    calls.push(vec![Delta::Flush]);
    // A remove of a point that is not on the axis: the call's earlier
    // batch commits, then the bad batch rolls back with a partial ack.
    calls.push(vec![
        Delta::AddBandwidth(0.125),
        Delta::Flush,
        Delta::RemoveBandwidth(123.0),
        Delta::Flush,
    ]);
    calls.push(vec![Delta::RemoveBandwidth(0.125), Delta::Flush]);
    calls
}

fn fingerprint() -> u64 {
    let calls = calls();
    let mut hash = Fnv::new();
    for batch in BATCHES {
        let mut session = Session::open(GridSpec::default_grid(), batch).expect("open");
        for update in session.take_updates() {
            hash.write(update.body.as_bytes());
        }
        let mut failed = 0;
        for call in &calls {
            let result = session.submit(call);
            failed += usize::from(result.is_err());
            hash.write(format!("{result:?}").as_bytes());
            for update in session.take_updates() {
                hash.write(update.seq.to_string().as_bytes());
                hash.write(update.body.as_bytes());
            }
        }
        hash.write(session.snapshot().as_bytes());
        // Only the deliberate bad remove fails; any other failure would
        // silently cut the rest of its call out of the stream.
        assert_eq!(failed, 1, "batch {batch}: unexpected submit failures");
    }
    hash.0
}

#[test]
fn update_stream_fingerprint_is_pinned() {
    let got = fingerprint();
    assert_eq!(
        got, EXPECTED,
        "session output changed: fingerprint {got:#018x}, expected {EXPECTED:#018x}"
    );
}
