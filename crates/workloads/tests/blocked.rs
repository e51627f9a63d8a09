//! Block-vs-scalar differential for the workload generators.
//!
//! `MixWorkload` and `MultiPhaseStream` override
//! [`InstructionStream::fill_block`] to drain their internal buffers in
//! bulk with run-length phase/I/O attribution. The contract is strict:
//! `fill_block(n)` must be equivalent to `n` successive `next_op` calls,
//! each annotated with the `phase()` and `io_bytes_per_instruction()`
//! observable right after that `next_op` returned. These tests drive a
//! blocked stream and a per-op twin (same workload, same seed) and compare
//! the full `(op, phase, io)` sequences across awkward block sizes —
//! including boundaries that split refill buffers and phase runs.

use memsense_sim::trace::{Op, OpBlock};
use memsense_workloads::Workload;

/// Expands a filled block's run-length sidecars into one `(op, phase, io)`
/// triple per op, checking that the runs exactly cover the ops.
fn expand(block: &OpBlock) -> Vec<(Op, String, f64)> {
    let mut phases: Vec<String> = Vec::new();
    for i in 0..block.phase_run_count() {
        let (n, label) = block.phase_run(i);
        for _ in 0..n {
            phases.push(label.to_string());
        }
    }
    let mut ios: Vec<f64> = Vec::new();
    let mut i = 0;
    loop {
        let (n, rate) = block.io_run(i);
        if n == 0 {
            break;
        }
        for _ in 0..n {
            ios.push(rate);
        }
        i += 1;
    }
    assert_eq!(phases.len(), block.ops.len(), "phase runs must cover ops");
    assert_eq!(ios.len(), block.ops.len(), "io runs must cover ops");
    block
        .ops
        .iter()
        .zip(phases)
        .zip(ios)
        .map(|((&op, phase), io)| (op, phase, io))
        .collect()
}

#[test]
fn fill_block_matches_per_op_path_for_every_workload() {
    const TOTAL_OPS: usize = 6_000;
    for workload in Workload::all() {
        for block_size in [1usize, 7, 32, 33, 129] {
            let mut blocked = workload.streams(1, 0xd1ff).remove(0);
            let mut scalar = workload.streams(1, 0xd1ff).remove(0);
            let mut block = OpBlock::new();
            let mut got: Vec<(Op, String, f64)> = Vec::new();
            while got.len() < TOTAL_OPS {
                let n = block_size.min(TOTAL_OPS - got.len());
                blocked.fill_block(&mut block, n);
                assert_eq!(
                    block.ops.len(),
                    n,
                    "{}: fill_block({n}) must produce exactly n ops",
                    workload.name()
                );
                got.extend(expand(&block));
            }
            let want: Vec<(Op, String, f64)> = (0..TOTAL_OPS)
                .map(|_| {
                    let op = scalar.next_op();
                    (
                        op,
                        scalar.phase().to_string(),
                        scalar.io_bytes_per_instruction(),
                    )
                })
                .collect();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g,
                    w,
                    "{} (block size {block_size}): op {i} diverged",
                    workload.name()
                );
            }
        }
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Hashes one filled block: every op, then its phase runs and I/O runs.
fn hash_block(h: &mut Fnv, block: &OpBlock) {
    use memsense_sim::AccessKind;
    for op in &block.ops {
        h.u64(u64::from(op.extra_cycles));
        h.u64(u64::from(op.idle));
        match op.access {
            None => h.u64(0),
            Some((addr, kind)) => {
                h.u64(match kind {
                    AccessKind::Load { dependent: false } => 1,
                    AccessKind::Load { dependent: true } => 2,
                    AccessKind::Store => 3,
                    AccessKind::NonTemporalStore => 4,
                });
                h.u64(addr);
            }
        }
    }
    for i in 0..block.phase_run_count() {
        let (n, label) = block.phase_run(i);
        h.u64(u64::from(n));
        h.bytes(label.as_bytes());
    }
    let mut i = 0;
    loop {
        let (n, rate) = block.io_run(i);
        if n == 0 {
            break;
        }
        h.u64(u64::from(n));
        h.u64(rate.to_bits());
        i += 1;
    }
}

/// Pins every workload's generated stream bit for bit: an FNV-1a hash over
/// 100k ops (with phase and I/O runs) from each of the four streams that
/// `streams(4, 0x5e71e5)` builds, drained through `fill_block` in blocks
/// of 1000. Any change to what a generator emits — a reordered RNG draw, a
/// different extra-cycle pick, a different Zipf rank — changes the hash.
#[test]
fn op_stream_fingerprints_are_pinned() {
    const OPS_PER_STREAM: usize = 100_000;
    const BLOCK: usize = 1_000;
    let want: [(&str, u64); 14] = [
        ("Structured Data", 0x46425cda76ad9515),
        ("NITS", 0x219ff87bbba1792d),
        ("Spark", 0xa34cf362abf88e6a),
        ("Proximity", 0x1fa255ac14a491f0),
        ("OLTP", 0xc4f0bf8261560ca0),
        ("JVM", 0x34ff4198a1599315),
        ("Virtualization", 0x80763150f6c303c6),
        ("Web Caching", 0xf5c28634209ee075),
        ("bwaves", 0x9b20c2372b54631c),
        ("milc", 0x1ac6148dec5d103d),
        ("soplex", 0x31dd5d27dcba83bf),
        ("wrf", 0xb409ff806e0a3107),
        ("povray", 0xa855d4fadd876738),
        ("perlbench", 0x2f55d91f15e77dd1),
    ];
    let all = Workload::all();
    assert_eq!(all.len(), want.len());
    let mut got = Vec::new();
    for workload in all {
        let mut h = Fnv::new();
        let mut block = OpBlock::new();
        for mut stream in workload.streams(4, 0x5e71e5) {
            for _ in 0..OPS_PER_STREAM / BLOCK {
                stream.fill_block(&mut block, BLOCK);
                hash_block(&mut h, &block);
            }
        }
        got.push((workload.name(), h.0));
    }
    assert_eq!(got, want);
}
