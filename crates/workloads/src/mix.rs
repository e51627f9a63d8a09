//! The parametrized workload engine.
//!
//! Every paper workload decomposes into the same ingredients at different
//! ratios: sequential (prefetchable) scans, dependent pointer probes into a
//! large footprint, store traffic that produces dirty writebacks,
//! non-temporal stores, cache-resident "hot" accesses, compute with a
//! characteristic latency mix, I/O DMA, idle time, and phase modulation.
//! [`MixSpec`] captures those ratios; [`MixWorkload`] turns a spec into an
//! [`InstructionStream`] the simulator executes. The per-workload modules
//! ([`crate::bigdata`], [`crate::enterprise`], [`crate::hpc`]) provide the
//! tuned specs.

use memsense_sim::trace::{InstructionStream, Op, OpBlock};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::patterns::{
    mix_rng, PointerChase, SequentialScan, StridedScan, UniformRandom, ZipfSampler,
};

/// Probabilities of an instruction costing 0, 1, 2, 4, or 8 extra cycles.
/// Controls the workload's `CPI_cache`.
pub type ExtraCycleDist = [f64; 5];

/// Extra cycles of each [`ExtraCycleDist`] slot, plus a trailing 0 for a
/// draw past the distribution's rounded total, which falls through to a
/// plain compute op. Zipped with a distribution, the trailing 0 drops out.
const EXTRA_CYCLES: [u32; 6] = [0, 1, 2, 4, 8, 0];

/// Running sums of `dist`, accumulated left to right.
fn cumulative(dist: &ExtraCycleDist) -> ExtraCycleDist {
    let mut acc = 0.0;
    dist.map(|p| {
        acc += p;
        acc
    })
}

/// Extra cycles for a compute op drawn at `u`: the value of the first slot
/// whose running sum exceeds `u`. With non-negative probabilities the sums
/// never decrease, so the slots with `u >= cdf[i]` form a prefix whose
/// length is that first-match index. Counting them needs no branch on the
/// random `u`.
#[inline]
fn pick_extra_cycles(cdf: &ExtraCycleDist, u: f64) -> u32 {
    let slot: usize = cdf.iter().map(|&c| usize::from(u >= c)).sum();
    EXTRA_CYCLES[slot]
}

/// Per-unit-of-work ratios defining a workload. Counts may be fractional;
/// the generator carries credit across units.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Workload name (matches the paper's Tab. 2/4/5 rows).
    pub name: &'static str,
    /// Sequential scan lines consumed per unit (prefetch-friendly reads).
    pub seq_lines: f64,
    /// Loads issued per scanned line (elements per line actually touched).
    pub loads_per_line: u32,
    /// Byte stride between consecutive scan lines (64 = dense; larger for
    /// lattice sweeps). Must be a multiple of 64.
    pub seq_stride: u64,
    /// Store lines per unit into the large footprint (drives `WBR`).
    pub store_lines: f64,
    /// Dependent (pointer-chase) loads per unit into the large footprint —
    /// each exposes the full miss penalty (drives `BF`).
    pub dep_probes: f64,
    /// Dependent loads addressed by Zipf-distributed object popularity over
    /// the large footprint: hot objects stay cache resident, so the
    /// *effective* miss rate emerges from the skew (web-cache GETs, OLTP
    /// hot rows).
    pub zipf_loads: f64,
    /// Zipf exponent for [`MixSpec::zipf_loads`] (≈0.99 for web traffic).
    pub zipf_theta: f64,
    /// Independent random loads per unit into the large footprint. At the
    /// MPKI of these workloads they rarely overlap, so they also stall, but
    /// they model gather traffic distinctly.
    pub indep_loads: f64,
    /// Non-temporal store lines per unit (cache-bypassing writes; pushes
    /// `WBR` above 100% as in NITS).
    pub nt_lines: f64,
    /// Loads per unit into the cache-resident hot region (index nodes,
    /// dictionaries, metadata).
    pub hot_loads: f64,
    /// Plain compute instructions per unit.
    pub compute: u32,
    /// Extra-cycle distribution for compute instructions.
    pub extra_dist: ExtraCycleDist,
    /// Large footprint size in bytes (must dwarf the LLC slice).
    pub big_region: u64,
    /// Hot footprint size in bytes (should fit the LLC slice).
    pub hot_region: u64,
    /// DMA bytes per retired instruction (`IOPI × IOSZ`).
    pub io_bytes_per_instr: f64,
    /// Halted cycles appended per unit (models <100% CPU utilization).
    pub idle_cycles_per_unit: f64,
    /// Period (in units) of the compute-intensity modulation; 0 disables.
    pub phase_period: u64,
    /// Relative amplitude of the modulation (e.g. 0.3 → ±30% compute).
    pub phase_amplitude: f64,
}

impl MixSpec {
    /// A neutral spec: pure compute, no memory traffic. Workload modules
    /// override fields from this base.
    pub fn base(name: &'static str) -> Self {
        MixSpec {
            name,
            seq_lines: 0.0,
            loads_per_line: 4,
            seq_stride: 64,
            store_lines: 0.0,
            dep_probes: 0.0,
            zipf_loads: 0.0,
            zipf_theta: 0.99,
            indep_loads: 0.0,
            nt_lines: 0.0,
            hot_loads: 0.0,
            compute: 100,
            extra_dist: [1.0, 0.0, 0.0, 0.0, 0.0],
            big_region: 32 * 1024 * 1024,
            hot_region: 16 * 1024,
            io_bytes_per_instr: 0.0,
            idle_cycles_per_unit: 0.0,
            phase_period: 0,
            phase_amplitude: 0.0,
        }
    }

    /// Returns a copy with the memory footprints scaled by `factor`
    /// (e.g. 4.0 quadruples the working sets for a larger simulated LLC).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn scaled_footprint(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "factor must be > 0");
        self.big_region = ((self.big_region as f64 * factor) as u64).max(1024 * 1024);
        self.hot_region = ((self.hot_region as f64 * factor) as u64).max(4096);
        self
    }

    /// Fraction of Zipf-addressed loads expected to miss (the cold tail;
    /// a first-order estimate used only for spec sanity checks).
    pub const ZIPF_MISS_ESTIMATE: f64 = 0.8;

    /// Expected LLC misses per unit (scan + store + probe + gather lines +
    /// the cold tail of Zipf loads).
    pub fn expected_misses_per_unit(&self) -> f64 {
        self.seq_lines
            + self.store_lines
            + self.dep_probes
            + self.indep_loads
            + self.zipf_loads * Self::ZIPF_MISS_ESTIMATE
    }

    /// Expected instructions per unit.
    pub fn expected_instructions_per_unit(&self) -> f64 {
        self.seq_lines * self.loads_per_line as f64
            + self.store_lines * 4.0
            + self.dep_probes
            + self.zipf_loads
            + self.indep_loads
            + self.nt_lines
            + self.hot_loads
            + self.compute as f64
    }

    /// First-order MPKI prediction (misses incl. prefetch fills per 1000
    /// instructions), for spec sanity checks.
    pub fn predicted_mpki(&self) -> f64 {
        self.expected_misses_per_unit() / self.expected_instructions_per_unit() * 1000.0
    }

    /// Mean extra cycles per compute instruction.
    pub fn mean_extra_cycles(&self) -> f64 {
        self.extra_dist
            .iter()
            .zip(EXTRA_CYCLES)
            .map(|(p, v)| p * v as f64)
            .sum()
    }

    /// Validates that the distribution's entries are non-negative and finite
    /// and sum to ~1, and that counts are sane.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (these are compiled-in constants, so a bad
    /// spec is a programming error, not a runtime condition).
    pub fn assert_valid(&self) {
        assert!(
            self.extra_dist.iter().all(|p| p.is_finite() && *p >= 0.0),
            "{}: extra_dist entries must be non-negative and finite, got {:?}",
            self.name,
            self.extra_dist
        );
        let sum: f64 = self.extra_dist.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}: extra_dist must sum to 1, got {sum}",
            self.name
        );
        assert!(self.seq_stride.is_multiple_of(64) && self.seq_stride > 0);
        assert!(self.big_region >= 1024 * 1024, "big region too small");
        assert!(self.hot_region >= 4096, "hot region too small");
        assert!(self.loads_per_line >= 1);
        assert!(self.zipf_theta >= 0.0 && self.zipf_theta.is_finite());
        assert!(
            [
                self.seq_lines,
                self.store_lines,
                self.dep_probes,
                self.zipf_loads,
                self.indep_loads,
                self.nt_lines,
                self.hot_loads,
                self.io_bytes_per_instr,
                self.idle_cycles_per_unit,
                self.phase_amplitude,
            ]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0),
            "{}: negative or non-finite rate",
            self.name
        );
    }
}

/// Fractional-credit counter: turns per-unit rates into integer counts.
#[derive(Debug, Clone, Default)]
struct Credit(f64);

impl Credit {
    fn take(&mut self, rate: f64) -> u32 {
        self.0 += rate;
        let n = self.0.floor();
        self.0 -= n;
        n as u32
    }
}

/// An [`InstructionStream`] generated from a [`MixSpec`].
#[derive(Debug)]
pub struct MixWorkload {
    spec: MixSpec,
    /// Ops for the current unit; consumed from `head`, reused across
    /// refills so steady-state generation performs no allocation.
    buf: Vec<Op>,
    head: usize,
    rng: SmallRng,
    /// Running sums of `spec.extra_dist` (see [`pick_extra_cycles`]).
    extra_cdf: ExtraCycleDist,
    scan: ScanKind,
    store_scan: SequentialScan,
    nt_scan: SequentialScan,
    chase: PointerChase,
    gather: UniformRandom,
    hot: UniformRandom,
    zipf: Option<ZipfSampler>,
    seq_credit: Credit,
    store_credit: Credit,
    dep_credit: Credit,
    zipf_credit: Credit,
    indep_credit: Credit,
    nt_credit: Credit,
    hot_credit: Credit,
    idle_credit: Credit,
    unit: u64,
    phase_name: &'static str,
}

#[derive(Debug)]
enum ScanKind {
    Dense(SequentialScan),
    Strided(StridedScan),
}

impl ScanKind {
    fn next_addr(&mut self) -> u64 {
        match self {
            ScanKind::Dense(s) => s.next_addr(),
            ScanKind::Strided(s) => s.next_addr(),
        }
    }
}

/// Address-space layout: distinct, non-overlapping bases for each traffic
/// class so streams do not alias.
const SCAN_BASE: u64 = 0x1_0000_0000;
const STORE_BASE: u64 = 0x2_0000_0000;
const NT_BASE: u64 = 0x3_0000_0000;
const CHASE_BASE: u64 = 0x4_0000_0000;
const GATHER_BASE: u64 = 0x5_0000_0000;
const HOT_BASE: u64 = 0x6_0000_0000;
const ZIPF_BASE: u64 = 0x7_0000_0000;

/// Mixed into the stream seed for the Zipf sampler's RNG.
const ZIPF_SEED: u64 = 0x21bf;

impl MixWorkload {
    /// Builds the stream for `spec`, seeded deterministically.
    pub fn new(spec: MixSpec, seed: u64) -> Self {
        let zipf = (spec.zipf_loads > 0.0).then(|| {
            // One "object" per line across the large footprint, capped so
            // CDF construction stays cheap.
            let objects = (spec.big_region / 64).min(262_144) as usize;
            ZipfSampler::new(objects, spec.zipf_theta, seed ^ ZIPF_SEED)
        });
        Self::assemble(spec, seed, zipf)
    }

    /// The stream [`MixWorkload::new`] builds for this spec at `seed`, but
    /// sharing this stream's Zipf table instead of recomputing it.
    pub(crate) fn reseeded(&self, seed: u64) -> Self {
        let zipf = self.zipf.as_ref().map(|z| z.reseeded(seed ^ ZIPF_SEED));
        Self::assemble(self.spec.clone(), seed, zipf)
    }

    fn assemble(spec: MixSpec, seed: u64, zipf: Option<ZipfSampler>) -> Self {
        spec.assert_valid();
        let scan = if spec.seq_stride == 64 {
            ScanKind::Dense(SequentialScan::new(SCAN_BASE, spec.big_region, 64))
        } else {
            ScanKind::Strided(StridedScan::new(
                SCAN_BASE,
                spec.big_region,
                spec.seq_stride,
            ))
        };
        MixWorkload {
            store_scan: SequentialScan::new(STORE_BASE, spec.big_region, 64),
            nt_scan: SequentialScan::new(NT_BASE, spec.big_region, 64),
            chase: PointerChase::new(CHASE_BASE, spec.big_region, seed ^ 0xc4a5e),
            gather: UniformRandom::new(GATHER_BASE, spec.big_region, seed ^ 0x6a783),
            hot: UniformRandom::new(HOT_BASE, spec.hot_region, seed ^ 0x407),
            zipf,
            rng: mix_rng(seed),
            extra_cdf: cumulative(&spec.extra_dist),
            scan,
            spec,
            buf: Vec::new(),
            head: 0,
            seq_credit: Credit::default(),
            store_credit: Credit::default(),
            dep_credit: Credit::default(),
            zipf_credit: Credit::default(),
            indep_credit: Credit::default(),
            nt_credit: Credit::default(),
            hot_credit: Credit::default(),
            idle_credit: Credit::default(),
            unit: 0,
            phase_name: "steady",
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &MixSpec {
        &self.spec
    }

    /// Appends `n` compute ops, one extra-cycle draw each.
    fn push_compute(&mut self, n: usize) {
        let (rng, cdf) = (&mut self.rng, &self.extra_cdf);
        self.buf
            .extend((0..n).map(|_| Op::compute_heavy(pick_extra_cycles(cdf, rng.gen()))));
    }

    fn refill(&mut self) {
        self.unit += 1;

        // Phase modulation of compute intensity (Spark's variable CPI).
        let compute = if self.spec.phase_period > 0 {
            let phase = (self.unit % self.spec.phase_period) as f64 / self.spec.phase_period as f64;
            let wave = (phase * core::f64::consts::TAU).sin();
            self.phase_name = if wave >= 0.0 { "map" } else { "reduce" };
            ((self.spec.compute as f64) * (1.0 + self.spec.phase_amplitude * wave)).round() as u32
        } else {
            self.spec.compute
        };

        // This unit's memory-event counts, in a fixed schedule order. A
        // plain array (no per-refill allocation): the round-robin interleave
        // below walks it pass by pass, emitting one event of every kind with
        // remaining count per pass, so e.g. all dependent probes don't
        // cluster at the front of the unit.
        const SEQ: usize = 0;
        const STORE: usize = 1;
        const DEP: usize = 2;
        const ZIPF: usize = 3;
        const INDEP: usize = 4;
        const NT: usize = 5;
        const HOT: usize = 6;
        let mut counts: [u32; 7] = [
            self.seq_credit.take(self.spec.seq_lines),
            self.store_credit.take(self.spec.store_lines),
            self.dep_credit.take(self.spec.dep_probes),
            self.zipf_credit.take(self.spec.zipf_loads),
            self.indep_credit.take(self.spec.indep_loads),
            self.nt_credit.take(self.spec.nt_lines),
            self.hot_credit.take(self.spec.hot_loads),
        ];
        let total_events: usize = counts.iter().map(|&c| c as usize).sum();

        // Spread compute — and idle time — evenly between memory events so
        // traffic is paced rather than bursty.
        let slots = total_events.max(1);
        let per_slot = compute as usize / slots;
        let mut extra_budget = compute as usize % slots;
        let idle_total = self
            .idle_credit
            .take(self.spec.idle_cycles_per_unit / slots as f64 * slots as f64);
        let idle_chunk = idle_total / slots as u32;
        let mut idle_left = idle_total;

        let mut remaining = total_events;
        while remaining > 0 {
            // `kind` is matched against the SEQ..=HOT constants below, so the
            // index itself carries meaning; an enumerate() rewrite obscures it.
            #[allow(clippy::needless_range_loop)]
            for kind in SEQ..=HOT {
                if counts[kind] == 0 {
                    continue;
                }
                counts[kind] -= 1;
                remaining -= 1;
                match kind {
                    SEQ => {
                        let addr = self.scan.next_addr();
                        for k in 0..self.spec.loads_per_line {
                            self.buf.push(Op::load(addr + (k as u64 * 8) % 64));
                        }
                    }
                    STORE => {
                        let addr = self.store_scan.next_addr() & !63;
                        for k in 0..4u64 {
                            self.buf.push(Op::store(addr + k * 16));
                        }
                    }
                    DEP => {
                        let addr = self.chase.next_addr();
                        self.buf.push(Op::dependent_load(addr));
                    }
                    ZIPF => {
                        // memsense-lint: allow(no-panic-in-lib) — the schedule only emits a zipf event when the sampler was built
                        let rank = self
                            .zipf
                            .as_mut()
                            .expect("zipf sampler present when zipf_loads > 0")
                            .sample() as u64;
                        // Popular ranks (low numbers) map to a compact region
                        // that stays cache resident; the tail misses.
                        self.buf.push(Op::dependent_load(ZIPF_BASE + rank * 64));
                    }
                    INDEP => {
                        let addr = self.gather.next_addr();
                        self.buf.push(Op::load(addr));
                    }
                    NT => {
                        let addr = self.nt_scan.next_addr();
                        self.buf.push(Op::nt_store(addr));
                    }
                    _ => {
                        let addr = self.hot.next_addr();
                        self.buf.push(Op::load(addr));
                    }
                }
                let n = per_slot + usize::from(extra_budget > 0);
                extra_budget = extra_budget.saturating_sub(1);
                self.push_compute(n);
                if idle_chunk > 0 {
                    self.buf.push(Op::idle(idle_chunk));
                    idle_left -= idle_chunk;
                }
            }
        }
        if slots == 1 && self.buf.is_empty() {
            self.push_compute(compute as usize);
        }
        if idle_left > 0 {
            self.buf.push(Op::idle(idle_left));
        }
    }
}

impl InstructionStream for MixWorkload {
    fn next_op(&mut self) -> Op {
        loop {
            if self.head < self.buf.len() {
                let op = self.buf[self.head];
                self.head += 1;
                return op;
            }
            self.buf.clear();
            self.head = 0;
            self.refill();
        }
    }

    fn phase(&self) -> &str {
        self.phase_name
    }

    fn io_bytes_per_instruction(&self) -> f64 {
        self.spec.io_bytes_per_instr
    }

    fn fill_block(&mut self, block: &mut OpBlock, n: usize) {
        block.clear();
        let mut filled = 0;
        while filled < n {
            if self.head == self.buf.len() {
                self.buf.clear();
                self.head = 0;
                self.refill();
                continue;
            }
            // Everything buffered came from one refill, so it all carries
            // the phase label that refill chose.
            let take = (self.buf.len() - self.head).min(n - filled);
            block
                .ops
                .extend_from_slice(&self.buf[self.head..self.head + take]);
            block.note_phase_n(self.phase_name, take as u32);
            self.head += take;
            filled += take;
        }
        block.note_io_n(self.spec.io_bytes_per_instr, n as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The first-match walk `pick_extra_cycles` replaced: the reference its
    /// branchless count must equal.
    fn first_match_extra_cycles(dist: &ExtraCycleDist, u: f64) -> u32 {
        let mut acc = 0.0;
        for (p, v) in dist.iter().zip(EXTRA_CYCLES) {
            acc += p;
            if u < acc {
                return v;
            }
        }
        0
    }

    /// The neighbouring doubles of a non-negative finite `x`.
    fn neighbours(x: f64) -> [f64; 2] {
        let below = if x > 0.0 {
            f64::from_bits(x.to_bits() - 1)
        } else {
            0.0
        };
        [below, f64::from_bits(x.to_bits() + 1)]
    }

    /// A valid distribution from raw weights: entries whose `zero_mask` bit
    /// is set are zeroed, the rest are normalised, then the whole is scaled
    /// by `skew` (within `assert_valid`'s 1e-9 sum tolerance) so the running
    /// total can land just below or above 1.
    fn valid_dist(weights: [f64; 5], zero_mask: u32, skew: f64) -> ExtraCycleDist {
        let mut dist = weights;
        for (i, p) in dist.iter_mut().enumerate() {
            if zero_mask & (1 << i) != 0 {
                *p = 0.0;
            }
        }
        let total: f64 = dist.iter().sum();
        if total == 0.0 {
            dist[0] = 1.0;
        } else {
            dist = dist.map(|p| p / total);
        }
        dist.map(|p| p * skew)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn branchless_pick_matches_first_match_walk(
            weights in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            zero_mask in 0u32..32,
            skew in 1.0f64 - 4e-10..1.0 + 4e-10,
            u in 0.0f64..1.0,
        ) {
            let (a, b, c, d, e) = weights;
            let dist = valid_dist([a, b, c, d, e], zero_mask, skew);
            let mut spec = MixSpec::base("prop");
            spec.extra_dist = dist;
            spec.assert_valid();
            let cdf = cumulative(&dist);
            // A random draw, every threshold and its neighbours, and draws
            // at and past the final running sum.
            let mut draws = vec![u, 0.0, 1.0, 1.5];
            for c in cdf {
                draws.push(c);
                draws.extend(neighbours(c));
            }
            for u in draws {
                prop_assert_eq!(
                    pick_extra_cycles(&cdf, u),
                    first_match_extra_cycles(&dist, u),
                    "dist {:?}, u {}",
                    dist,
                    u
                );
            }
        }
    }

    #[test]
    fn pick_falls_through_to_plain_compute_past_the_total() {
        // Sums to 1 - 1e-12: a draw in the gap emits a plain compute op.
        let dist = [0.5, 0.25, 0.125, 0.125 - 1e-12, 0.0];
        let cdf = cumulative(&dist);
        let u = 1.0 - 5e-13;
        assert_eq!(pick_extra_cycles(&cdf, u), 0);
        assert_eq!(first_match_extra_cycles(&dist, u), 0);
        assert_eq!(pick_extra_cycles(&cdf, cdf[3] - 1e-9), 4);
    }

    #[test]
    fn reseeded_stream_matches_a_fresh_one() {
        let mut s = spec();
        s.zipf_loads = 0.5;
        let parent = MixWorkload::new(s.clone(), 3);
        let mut sibling = parent.reseeded(11);
        let mut fresh = MixWorkload::new(s, 11);
        for _ in 0..20_000 {
            assert_eq!(sibling.next_op(), fresh.next_op());
        }
    }

    fn spec() -> MixSpec {
        MixSpec {
            seq_lines: 1.0,
            store_lines: 0.5,
            dep_probes: 0.4,
            indep_loads: 0.25,
            hot_loads: 2.0,
            compute: 50,
            extra_dist: [0.5, 0.3, 0.1, 0.08, 0.02],
            ..MixSpec::base("test")
        }
    }

    #[test]
    fn op_counts_match_rates() {
        let s = spec();
        let mut w = MixWorkload::new(s.clone(), 1);
        let total_units = 400;
        let mut loads = 0u64;
        let mut dep = 0u64;
        let mut stores = 0u64;
        let n = (s.expected_instructions_per_unit() * total_units as f64) as u64;
        for _ in 0..n {
            let op = w.next_op();
            match op.access {
                Some((_, memsense_sim::AccessKind::Load { dependent: true })) => dep += 1,
                Some((_, memsense_sim::AccessKind::Load { dependent: false })) => loads += 1,
                Some((_, memsense_sim::AccessKind::Store)) => stores += 1,
                _ => {}
            }
        }
        let units = total_units as f64;
        // 0.4 dep probes per unit:
        assert!((dep as f64 / units - 0.4).abs() < 0.1, "dep {dep}");
        // 4 loads/line × 1 line + 0.25 gathers + 2 hot = 6.25 indep loads:
        assert!((loads as f64 / units - 6.25).abs() < 0.6, "loads {loads}");
        // 0.5 store lines × 4 stores:
        assert!((stores as f64 / units - 2.0).abs() < 0.4, "stores {stores}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = MixWorkload::new(spec(), 9);
        let mut b = MixWorkload::new(spec(), 9);
        for _ in 0..5_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = MixWorkload::new(spec(), 10);
        let differs = (0..5_000).any(|_| {
            let x = a.next_op();
            let y = c.next_op();
            x != y
        });
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn predicted_mpki_formula() {
        let s = spec();
        let misses = 1.0 + 0.5 + 0.4 + 0.25;
        let instrs = 4.0 + 2.0 + 0.4 + 0.25 + 2.0 + 50.0;
        assert!((s.predicted_mpki() - misses / instrs * 1000.0).abs() < 1e-9);
        assert!((s.expected_misses_per_unit() - misses).abs() < 1e-12);
    }

    #[test]
    fn mean_extra_cycles() {
        let s = spec();
        let want = 0.3 + 0.2 + 0.08 * 4.0 + 0.02 * 8.0;
        assert!((s.mean_extra_cycles() - want).abs() < 1e-9);
    }

    #[test]
    fn zipf_loads_skew_toward_hot_objects() {
        let mut s = MixSpec::base("zipfy");
        s.zipf_loads = 1.0;
        s.compute = 10;
        let mut w = MixWorkload::new(s, 5);
        let mut hot = 0u32;
        let mut total = 0u32;
        for _ in 0..20_000 {
            if let Some((addr, memsense_sim::AccessKind::Load { dependent: true })) =
                w.next_op().access
            {
                total += 1;
                // "Hot" = the first 256 objects (16 KiB of 16+ MiB).
                if addr < ZIPF_BASE + 256 * 64 {
                    hot += 1;
                }
            }
        }
        assert!(total > 1_000);
        let frac = hot as f64 / total as f64;
        assert!(frac > 0.3, "zipf head share {frac}");
    }

    #[test]
    fn scaled_footprint_scales_regions() {
        let s = MixSpec::base("x").scaled_footprint(2.0);
        assert_eq!(s.big_region, 64 * 1024 * 1024);
        assert_eq!(s.hot_region, 32 * 1024);
        // Floors apply.
        let tiny = MixSpec::base("y").scaled_footprint(1e-9);
        assert_eq!(tiny.big_region, 1024 * 1024);
        assert_eq!(tiny.hot_region, 4096);
    }

    #[test]
    #[should_panic(expected = "factor must be > 0")]
    fn scaled_footprint_rejects_zero() {
        let _ = MixSpec::base("z").scaled_footprint(0.0);
    }

    #[test]
    fn idle_credit_emits_idle_ops() {
        let mut s = MixSpec::base("idler");
        s.compute = 10;
        s.idle_cycles_per_unit = 100.0;
        let mut w = MixWorkload::new(s, 1);
        let mut idles = 0;
        for _ in 0..1000 {
            if w.next_op().idle {
                idles += 1;
            }
        }
        assert!(idles > 50, "idle ops present: {idles}");
    }

    #[test]
    fn phase_modulation_changes_label() {
        let mut s = MixSpec::base("phased");
        s.compute = 20;
        s.phase_period = 10;
        s.phase_amplitude = 0.5;
        let mut w = MixWorkload::new(s, 1);
        let mut labels = std::collections::HashSet::new();
        for _ in 0..2_000 {
            w.next_op();
            labels.insert(w.phase().to_string());
        }
        assert!(
            labels.contains("map") && labels.contains("reduce"),
            "{labels:?}"
        );
    }

    #[test]
    #[should_panic(expected = "extra_dist must sum to 1")]
    fn invalid_dist_panics() {
        let mut s = MixSpec::base("bad");
        s.extra_dist = [0.5, 0.0, 0.0, 0.0, 0.0];
        let _ = MixWorkload::new(s, 1);
    }

    #[test]
    #[should_panic(expected = "extra_dist entries must be non-negative and finite")]
    fn negative_dist_entry_panics() {
        let mut s = MixSpec::base("negative");
        // Sums to exactly 1, so only the entry check catches it.
        s.extra_dist = [1.5, -0.5, 0.0, 0.0, 0.0];
        let _ = MixWorkload::new(s, 1);
    }

    #[test]
    #[should_panic(expected = "extra_dist entries must be non-negative and finite")]
    fn non_finite_dist_entry_panics() {
        let mut s = MixSpec::base("nan");
        s.extra_dist = [f64::NAN, 1.0, 0.0, 0.0, 0.0];
        let _ = MixWorkload::new(s, 1);
    }

    #[test]
    fn addresses_partition_by_class() {
        let mut s = MixSpec::base("addrs");
        s.seq_lines = 1.0;
        s.store_lines = 1.0;
        s.dep_probes = 1.0;
        s.nt_lines = 1.0;
        s.hot_loads = 1.0;
        s.compute = 5;
        let mut w = MixWorkload::new(s, 3);
        for _ in 0..1_000 {
            let op = w.next_op();
            if let Some((addr, kind)) = op.access {
                match kind {
                    memsense_sim::AccessKind::NonTemporalStore => {
                        assert!((NT_BASE..NT_BASE + 0x1_0000_0000).contains(&addr))
                    }
                    memsense_sim::AccessKind::Store => {
                        assert!((STORE_BASE..STORE_BASE + 0x1_0000_0000).contains(&addr))
                    }
                    memsense_sim::AccessKind::Load { dependent: true } => {
                        let in_chase = (CHASE_BASE..CHASE_BASE + 0x1_0000_0000).contains(&addr);
                        let in_zipf = (ZIPF_BASE..ZIPF_BASE + 0x1_0000_0000).contains(&addr);
                        assert!(in_chase || in_zipf);
                    }
                    memsense_sim::AccessKind::Load { dependent: false } => {
                        assert!(addr >= SCAN_BASE, "scan/gather/hot ranges")
                    }
                }
            }
        }
    }
}
