//! Coupled CPI / bandwidth / queueing solver (paper Sec. VI.C.1).
//!
//! Eq. 1 needs the loaded miss penalty; the miss penalty depends on queueing
//! delay; queueing delay depends on bandwidth utilization; and utilization
//! depends (through Eq. 4) on the CPI that Eq. 1 produces. The paper resolves
//! this circularity with "an iterative calculation to find a stable solution
//! for queuing delay vs. bandwidth demand" — this module implements that
//! fixed point, plus the bandwidth-bound fallback when no stable solution
//! exists below the maximum stable utilization.

use crate::bandwidth;
use crate::cpi;
use crate::queueing::QueueingCurve;
use crate::system::SystemConfig;
use crate::units::{Cycles, GigaHertz, GigabytesPerSecond, Nanoseconds};
use crate::workload::WorkloadParams;
use crate::ModelError;

/// Which constraint determines the workload's performance on this system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Memory stalls contribute less than ~2% on top of `CPI_cache`; the
    /// workload shows essentially no sensitivity to the memory subsystem
    /// (the proximity-search case the paper excludes from Tab. 6).
    CoreBound,
    /// A stable solution exists below the maximum stable utilization; CPI is
    /// set by Eq. 1 at the loaded latency (compulsory + queueing delay).
    LatencyLimited,
    /// Demand exceeds what the channels can deliver; CPI is set by Eq. 4
    /// solved with `BW` equal to the available bandwidth.
    BandwidthBound,
}

impl core::fmt::Display for Regime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Regime::CoreBound => write!(f, "core bound"),
            Regime::LatencyLimited => write!(f, "latency limited"),
            Regime::BandwidthBound => write!(f, "bandwidth bound"),
        }
    }
}

impl Regime {
    /// Stable machine-readable token (snake_case), for wire formats that
    /// should not depend on the human-facing [`Display`](core::fmt::Display)
    /// text.
    pub fn token(&self) -> &'static str {
        match self {
            Regime::CoreBound => "core_bound",
            Regime::LatencyLimited => "latency_limited",
            Regime::BandwidthBound => "bandwidth_bound",
        }
    }

    /// Parses a regime from its [`token`](Regime::token) (or the display
    /// text), case-insensitively and tolerant of `-`/`_`/space separators.
    pub fn from_token(s: &str) -> Option<Regime> {
        match s
            .trim()
            .to_lowercase()
            .replace(['-', '_', ' '], "")
            .as_str()
        {
            "corebound" => Some(Regime::CoreBound),
            "latencylimited" => Some(Regime::LatencyLimited),
            "bandwidthbound" => Some(Regime::BandwidthBound),
            _ => None,
        }
    }
}

/// The converged operating point for a workload on a system.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedCpi {
    /// Effective cycles per instruction.
    pub cpi_eff: f64,
    /// Loaded miss penalty (compulsory + queueing) in wall-clock terms.
    pub miss_penalty: Nanoseconds,
    /// Loaded miss penalty in core cycles (what Eq. 1 consumed).
    pub miss_penalty_cycles: Cycles,
    /// Queueing-delay component of the miss penalty.
    pub queueing_delay: Nanoseconds,
    /// System-wide bandwidth demand at the converged CPI.
    pub bandwidth_demand: GigabytesPerSecond,
    /// Demand as a fraction of effective bandwidth.
    pub utilization: f64,
    /// Constraint that set the CPI.
    pub regime: Regime,
    /// Bisection steps the fixed point took (the same whether the steps
    /// were replayed or evaluated).
    pub iterations: usize,
}

impl SolvedCpi {
    /// Instruction throughput relative to another operating point
    /// (`other.cpi / self.cpi`); values above 1.0 mean `self` is faster.
    pub fn speedup_over(&self, other: &SolvedCpi) -> f64 {
        other.cpi_eff / self.cpi_eff
    }

    /// Decomposes the CPI into the Emma-style stack the paper builds on:
    /// infinite-cache CPI + compulsory-latency stall + queueing stall
    /// (+ bandwidth-wall residual when the Eq. 4 ceiling binds).
    pub fn cpi_stack(&self, workload: &WorkloadParams, system: &SystemConfig) -> CpiStack {
        let clock = system.core_clock();
        let compulsory =
            cpi::memory_cpi_component(workload, system.unloaded_latency().to_cycles(clock));
        let queueing = cpi::memory_cpi_component(workload, self.queueing_delay.to_cycles(clock));
        let explained = workload.cpi_cache + compulsory + queueing;
        CpiStack {
            cpi_cache: workload.cpi_cache,
            compulsory_stall: compulsory,
            queueing_stall: queueing,
            bandwidth_residual: (self.cpi_eff - explained).max(0.0),
        }
    }
}

/// A CPI breakdown (see [`SolvedCpi::cpi_stack`]). Components sum to the
/// effective CPI (up to the clamped bandwidth residual).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiStack {
    /// Infinite-cache CPI.
    pub cpi_cache: f64,
    /// Stall CPI attributable to the compulsory memory latency.
    pub compulsory_stall: f64,
    /// Stall CPI attributable to queueing delay.
    pub queueing_stall: f64,
    /// CPI beyond the latency-limited model when the workload is pinned to
    /// the bandwidth ceiling (zero for latency-limited workloads).
    pub bandwidth_residual: f64,
}

impl CpiStack {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.cpi_cache + self.compulsory_stall + self.queueing_stall + self.bandwidth_residual
    }

    /// Fraction of CPI spent stalled on memory (everything but `cpi_cache`).
    /// An all-zero stack has no memory component, so the fraction is 0.
    pub fn memory_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            1.0 - self.cpi_cache / total
        }
    }
}

impl core::fmt::Display for CpiStack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "core {:.3} + compulsory {:.3} + queueing {:.3} + bw-wall {:.3} = {:.3}",
            self.cpi_cache,
            self.compulsory_stall,
            self.queueing_stall,
            self.bandwidth_residual,
            self.total()
        )
    }
}

/// Process-wide solver telemetry: counts of solves, bisection iterations,
/// residual evaluations and regime outcomes, accumulated across threads
/// with relaxed atomics.
///
/// The experiment executor snapshots these around each pipeline stage to
/// build its run report; nothing in the model reads them. Counters are
/// cumulative — take [`telemetry::snapshot`] deltas to scope a window.
pub mod telemetry {
    use super::Regime;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SOLVES: AtomicU64 = AtomicU64::new(0);
    static ITERATIONS: AtomicU64 = AtomicU64::new(0);
    static RESIDUAL_EVALS: AtomicU64 = AtomicU64::new(0);
    static CORE_BOUND: AtomicU64 = AtomicU64::new(0);
    static LATENCY_LIMITED: AtomicU64 = AtomicU64::new(0);
    static BANDWIDTH_BOUND: AtomicU64 = AtomicU64::new(0);

    /// A point-in-time copy of the cumulative solver counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SolverStats {
        /// Completed `solve_cpi` calls.
        pub solves: u64,
        /// Total bisection iterations across all solves.
        pub iterations: u64,
        /// Total fixed-point residual evaluations across all solves: one per
        /// iteration for a plain bisection, a few per solve for a replay.
        pub residual_evals: u64,
        /// Solves that classified the workload core bound.
        pub core_bound: u64,
        /// Solves that classified the workload latency limited.
        pub latency_limited: u64,
        /// Solves that classified the workload bandwidth bound.
        pub bandwidth_bound: u64,
    }

    impl SolverStats {
        /// Counter-wise difference `self − earlier` (saturating).
        pub fn since(&self, earlier: &SolverStats) -> SolverStats {
            SolverStats {
                solves: self.solves.saturating_sub(earlier.solves),
                iterations: self.iterations.saturating_sub(earlier.iterations),
                residual_evals: self.residual_evals.saturating_sub(earlier.residual_evals),
                core_bound: self.core_bound.saturating_sub(earlier.core_bound),
                latency_limited: self.latency_limited.saturating_sub(earlier.latency_limited),
                bandwidth_bound: self.bandwidth_bound.saturating_sub(earlier.bandwidth_bound),
            }
        }
    }

    /// Reads the cumulative counters.
    pub fn snapshot() -> SolverStats {
        SolverStats {
            solves: SOLVES.load(Ordering::Relaxed),
            iterations: ITERATIONS.load(Ordering::Relaxed),
            residual_evals: RESIDUAL_EVALS.load(Ordering::Relaxed),
            core_bound: CORE_BOUND.load(Ordering::Relaxed),
            latency_limited: LATENCY_LIMITED.load(Ordering::Relaxed),
            bandwidth_bound: BANDWIDTH_BOUND.load(Ordering::Relaxed),
        }
    }

    pub(super) fn record(iterations: usize, residual_evals: u64, regime: Regime) {
        SOLVES.fetch_add(1, Ordering::Relaxed);
        ITERATIONS.fetch_add(iterations as u64, Ordering::Relaxed);
        RESIDUAL_EVALS.fetch_add(residual_evals, Ordering::Relaxed);
        let counter = match regime {
            Regime::CoreBound => &CORE_BOUND,
            Regime::LatencyLimited => &LATENCY_LIMITED,
            Regime::BandwidthBound => &BANDWIDTH_BOUND,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Memory-CPI share below which a workload is tagged [`Regime::CoreBound`].
const CORE_BOUND_THRESHOLD: f64 = 0.02;

const MAX_ITERATIONS: usize = 10_000;
const TOLERANCE_NS: f64 = 1e-9;

/// Half-width of the band around the closed-form root, relative to the
/// root (and to the delay slope there), inside which the replay evaluates
/// the residual instead of inferring its sign. At ~450 ulps it is over 100×
/// the worst root error seen across 200k random solves (3 ulps).
const REPLAY_BAND: f64 = 1e-13;

/// Solves for the stable CPI of `workload` on `system` with queueing
/// behaviour `curve`.
///
/// The fixed point `MP = unloaded + Q(util(CPI(MP)))` is found by bisecting
/// its residual down to 1e-9 ns. The bisection is *replayed* rather than
/// run blind: the queueing curve is piecewise linear, so the residual's root
/// has a closed form (a quadratic on one curve segment). Each halving step
/// takes its sign from that root, and the residual itself is evaluated only
/// for midpoints within a few parts in 1e13 of it. A final check evaluates
/// the residual at the last inferred lower and upper bracket ends; if either
/// disagrees (or no root was found), the plain bisection
/// ([`solve_cpi_by_bisection`]) runs instead. The result is therefore
/// bit-identical to the plain bisection, `iterations` included, at a small
/// fraction of its residual evaluations.
///
/// If the fixed point lies above the curve's maximum stable utilization, the
/// system is bandwidth bound and CPI comes from Eq. 4 with `BW` set to the
/// available bandwidth (clamped from below by Eq. 1 at the maximum stable
/// loaded latency, which dominates only in pathological configurations).
///
/// # Errors
///
/// Returns [`ModelError::DidNotConverge`] if the bisection cannot narrow its
/// bracket to the tolerance within 10 000 halvings (not observed for finite
/// inputs; defensive), and [`ModelError::InvalidParameter`] if Eq. 4 cannot
/// be inverted for a bandwidth-bound workload.
///
/// # Examples
///
/// ```
/// use memsense_model::queueing::QueueingCurve;
/// use memsense_model::solver::{solve_cpi, Regime};
/// use memsense_model::system::SystemConfig;
/// use memsense_model::workload::WorkloadParams;
///
/// let curve = QueueingCurve::composite_default();
/// let sys = SystemConfig::paper_baseline();
///
/// let ent = solve_cpi(&WorkloadParams::enterprise_class(), &sys, &curve).unwrap();
/// assert_eq!(ent.regime, Regime::LatencyLimited);
///
/// let hpc = solve_cpi(&WorkloadParams::hpc_class(), &sys, &curve).unwrap();
/// assert_eq!(hpc.regime, Regime::BandwidthBound);
/// ```
pub fn solve_cpi(
    workload: &WorkloadParams,
    system: &SystemConfig,
    curve: &QueueingCurve,
) -> Result<SolvedCpi, ModelError> {
    let problem = FixedPoint::new(workload, system, curve);
    let mut evals = 0;
    let bracket = match problem.replay(&mut evals) {
        Some(bracket) => bracket,
        None => problem.bisect(&mut evals)?,
    };
    problem.finish(bracket, evals)
}

/// [`solve_cpi`] by plain bisection: every halving step evaluates the
/// residual (~37 evaluations per solve). The result is identical to
/// [`solve_cpi`]'s; this is its fallback, and the reference the solver
/// benchmark times it against.
///
/// # Errors
///
/// As [`solve_cpi`].
pub fn solve_cpi_by_bisection(
    workload: &WorkloadParams,
    system: &SystemConfig,
    curve: &QueueingCurve,
) -> Result<SolvedCpi, ModelError> {
    let problem = FixedPoint::new(workload, system, curve);
    let mut evals = 0;
    let bracket = problem.bisect(&mut evals)?;
    problem.finish(bracket, evals)
}

/// A bisection's final `(lo, hi)` bracket and its halving count.
type Bracket = (f64, f64, usize);

/// The bisection both solve paths share. `positive(mp)` decides whether the
/// residual at `mp` is positive; the fixed point lies between the returned
/// ends. A non-positive residual at `lo` collapses the bracket to `lo` (no
/// queueing at all) without halving.
fn halve(
    mut lo: f64,
    mut hi: f64,
    mut positive: impl FnMut(f64) -> bool,
) -> Result<Bracket, ModelError> {
    if !positive(lo) {
        return Ok((lo, lo, 0));
    }
    let mut iterations = 0;
    while hi - lo > TOLERANCE_NS {
        iterations += 1;
        if iterations > MAX_ITERATIONS {
            return Err(ModelError::DidNotConverge {
                iterations: MAX_ITERATIONS,
            });
        }
        let mid = 0.5 * (lo + hi);
        if positive(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, hi, iterations))
}

/// One solve's fixed-point problem. With `U` the unloaded latency, Eq. 1's
/// CPI is `c0 + K·mp` and Eq. 4's utilization is `A / CPI`, so the residual
/// is `g(mp) = U + Q(A / (c0 + K·mp)) − mp`.
struct FixedPoint<'a> {
    workload: &'a WorkloadParams,
    curve: &'a QueueingCurve,
    clock: GigaHertz,
    threads: u32,
    available: GigabytesPerSecond,
    unloaded: Nanoseconds,
}

impl<'a> FixedPoint<'a> {
    fn new(
        workload: &'a WorkloadParams,
        system: &'a SystemConfig,
        curve: &'a QueueingCurve,
    ) -> Self {
        FixedPoint {
            workload,
            curve,
            clock: system.core_clock(),
            threads: system.hardware_threads(),
            available: system.effective_bandwidth(),
            unloaded: system.unloaded_latency(),
        }
    }

    /// `g(mp)`. It is strictly decreasing in `mp` (a longer miss penalty
    /// raises CPI, which lowers bandwidth demand, utilization and queueing
    /// delay) with slope ≤ −1, so the fixed point is unique and bisection
    /// over [`Self::bracket`] always converges — including for the
    /// near-vertical measured curves the MLC calibration can produce. These
    /// bits decide every halving step.
    fn residual(&self, mp_ns: f64) -> f64 {
        let cpi = cpi::effective_cpi(self.workload, Nanoseconds(mp_ns).to_cycles(self.clock));
        let util =
            bandwidth::utilization(self.workload, cpi, self.clock, self.threads, self.available);
        self.unloaded.value() + self.curve.delay(util).value() - mp_ns
    }

    /// The initial bracket `[U, U + max(Q_max, 1)]`.
    fn bracket(&self) -> (f64, f64) {
        let lo = self.unloaded.value();
        (lo, lo + self.curve.max_stable_delay().value().max(1.0))
    }

    /// Plain bisection: one residual evaluation per step.
    fn bisect(&self, evals: &mut u64) -> Result<Bracket, ModelError> {
        let (lo, hi) = self.bracket();
        halve(lo, hi, |mp| {
            *evals += 1;
            self.residual(mp) > 0.0
        })
    }

    /// The plain bisection's bracket, replayed from the closed-form root;
    /// `None` when there is no root or the final check fails.
    ///
    /// A midpoint outside the band around the root takes its sign from the
    /// root. The computed residual is monotone up to ulp-level rounding, so
    /// if it agrees at the last inferred `lo` (the inferred point nearest
    /// the root from below) and the last inferred `hi`, it agrees at every
    /// inferred point, and each step went the way the plain bisection goes.
    fn replay(&self, evals: &mut u64) -> Option<Bracket> {
        let (root, slope) = self.root()?;
        let band = REPLAY_BAND * (root.abs().max(1.0) + slope);
        let (mut inferred_lo, mut inferred_hi) = (None, None);
        let (lo, hi) = self.bracket();
        let bracket = halve(lo, hi, |mp| {
            if (mp - root).abs() > band {
                let positive = mp < root;
                if positive {
                    inferred_lo = Some(mp);
                } else {
                    inferred_hi = Some(mp);
                }
                positive
            } else {
                *evals += 1;
                self.residual(mp) > 0.0
            }
        })
        // A replay that runs out of halvings may have strayed; the plain
        // bisection decides whether the error is real.
        .ok()?;
        let mut agrees = |inferred: Option<f64>, positive: bool| {
            inferred.is_none_or(|mp| {
                *evals += 1;
                (self.residual(mp) > 0.0) == positive
            })
        };
        (agrees(inferred_lo, true) && agrees(inferred_hi, false)).then_some(bracket)
    }

    /// The root of `g` in closed form, with the delay slope (ns per unit of
    /// utilization) of the curve segment it lies on. `None` when the inputs
    /// leave the region where `g` is strictly decreasing.
    ///
    /// Utilization `u(mp) = A / (c0 + K·mp)` falls as `mp` grows, so the
    /// fixed point's utilization `u*` exceeds a knot `(x, y)` exactly when
    /// the miss penalty that knot's delay implies, `U + y`, still loads the
    /// channels past `x`: `x·(c0 + K·(U + y)) < A`. Bisecting the knots on
    /// that test finds `u*`'s segment `Q(u) = y0 + s·(u − x0)`; with
    /// `B = U + y0 − s·x0`, the fixed point `mp = B + s·A / (c0 + K·mp)` is
    /// the positive root of `K·mp² + (c0 − K·B)·mp − (B·c0 + s·A) = 0`, taken
    /// in its cancellation-free form. Below the first knot and above the
    /// maximum stable utilization the delay is flat (`s = 0`), and so is every
    /// segment when `K = 0` or `A = 0`: the root is then `B + s·A / c0`.
    fn root(&self) -> Option<(f64, f64)> {
        let w = self.workload;
        let f = self.clock.value();
        let c0 = w.cpi_cache;
        let k = w.mpi() * f * w.bf;
        let a = w.bytes_per_instruction().value() * f * f64::from(self.threads)
            / self.available.value();
        let u = self.unloaded.value();
        if !(c0 > 0.0 && [c0, k, a, u].iter().all(|v| v.is_finite() && *v >= 0.0)) {
            return None;
        }

        // The curve as `delay` sees it: the knots below the stability limit,
        // then the limit itself, past which the delay stays flat.
        let max_util = self.curve.max_stable_utilization();
        let max_delay = self.curve.max_stable_delay().value();
        let knots = self.curve.knots();
        let stable = knots.partition_point(|&(x, _)| x < max_util);
        let knot = |i: usize| {
            if i < stable {
                knots.get(i).copied()
            } else {
                Some((max_util, max_delay))
            }
        };
        let exceeds = |(x, y): (f64, f64)| x * (c0 + k * (u + y)) < a;
        let (mut first, mut last) = (0, stable + 1);
        while first < last {
            let mid = first + (last - first) / 2;
            if exceeds(knot(mid)?) {
                first = mid + 1;
            } else {
                last = mid;
            }
        }
        if first == 0 {
            return Some((u + knot(0)?.1, 0.0));
        }
        if first > stable {
            return Some((u + max_delay, 0.0));
        }
        let ((x0, y0), (x1, y1)) = (knot(first - 1)?, knot(first)?);
        let s = (y1 - y0) / (x1 - x0);
        let b_shift = u + y0 - s * x0;
        let c = b_shift * c0 + s * a;
        let b = c0 - k * b_shift;
        let disc = (b * b + 4.0 * k * c).max(0.0).sqrt();
        let root = if b > 0.0 {
            2.0 * c / (b + disc)
        } else {
            // b ≤ 0 < c0 implies K > 0.
            (disc - b) / (2.0 * k)
        };
        root.is_finite().then_some((root, s))
    }

    /// Builds the operating point from the converged bracket and records
    /// the solve.
    fn finish(&self, (lo, hi, iterations): Bracket, evals: u64) -> Result<SolvedCpi, ModelError> {
        let (workload, curve, clock, threads, available, unloaded) = (
            self.workload,
            self.curve,
            self.clock,
            self.threads,
            self.available,
            self.unloaded,
        );
        let mp_ns = 0.5 * (lo + hi);
        let latency_limited_cpi = cpi::effective_cpi(workload, Nanoseconds(mp_ns).to_cycles(clock));
        let util_at_fixed_point =
            bandwidth::utilization(workload, latency_limited_cpi, clock, threads, available);

        if util_at_fixed_point > curve.max_stable_utilization() {
            // Bandwidth bound: Eq. 4 solved for CPI with BW = available. The
            // loaded latency saturates at compulsory + maximum stable queueing
            // delay (paper Sec. VI.C.3: "the loaded latency is the compulsory
            // latency plus the maximum stable queuing delay from Fig. 7").
            let mp = Nanoseconds(unloaded.value() + curve.max_stable_delay().value());
            let bw_cpi = bandwidth::bandwidth_limited_cpi(workload, available, clock, threads)?;
            let lat_cpi = cpi::effective_cpi(workload, mp.to_cycles(clock));
            let cpi_eff = bw_cpi.max(lat_cpi);
            let demand = bandwidth::demand_system(workload, cpi_eff, clock, threads);
            telemetry::record(iterations, evals, Regime::BandwidthBound);
            return Ok(SolvedCpi {
                cpi_eff,
                miss_penalty: mp,
                miss_penalty_cycles: mp.to_cycles(clock),
                queueing_delay: curve.max_stable_delay(),
                bandwidth_demand: demand,
                utilization: demand.value() / available.value(),
                regime: Regime::BandwidthBound,
                iterations,
            });
        }

        let mp = Nanoseconds(mp_ns);
        let memory_share = cpi::memory_cpi_component(workload, mp.to_cycles(clock))
            / latency_limited_cpi.max(f64::MIN_POSITIVE);
        let regime = if memory_share < CORE_BOUND_THRESHOLD {
            Regime::CoreBound
        } else {
            Regime::LatencyLimited
        };
        let demand = bandwidth::demand_system(workload, latency_limited_cpi, clock, threads);
        telemetry::record(iterations, evals, regime);
        Ok(SolvedCpi {
            cpi_eff: latency_limited_cpi,
            miss_penalty: mp,
            miss_penalty_cycles: mp.to_cycles(clock),
            queueing_delay: mp - unloaded,
            bandwidth_demand: demand,
            utilization: util_at_fixed_point,
            regime,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Segment;

    fn curve() -> QueueingCurve {
        QueueingCurve::composite_default()
    }

    #[test]
    fn enterprise_is_latency_limited_at_baseline() {
        let s = solve_cpi(
            &WorkloadParams::enterprise_class(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::LatencyLimited);
        // CPI_cache 1.47 + 0.0067 × (75+q)·2.7 × 0.41 ≈ 2.03–2.08
        assert!((s.cpi_eff - 2.05).abs() < 0.1, "cpi = {}", s.cpi_eff);
        assert!(s.utilization < 0.45, "util = {}", s.utilization);
        assert!(s.queueing_delay.value() < 12.0);
    }

    #[test]
    fn big_data_is_latency_limited_with_moderate_utilization() {
        let s = solve_cpi(
            &WorkloadParams::big_data_class(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::LatencyLimited);
        assert!(
            s.utilization > 0.4 && s.utilization < 0.8,
            "util = {}",
            s.utilization
        );
        assert!(
            s.queueing_delay.value() > 1.0,
            "big data sees some queueing"
        );
    }

    #[test]
    fn hpc_is_bandwidth_bound_at_baseline() {
        let s = solve_cpi(
            &WorkloadParams::hpc_class(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::BandwidthBound);
        // Demand equals supply at the bandwidth-limited CPI.
        assert!((s.utilization - 1.0).abs() < 1e-9);
        assert!(s.cpi_eff > 2.0, "cpi = {}", s.cpi_eff);
    }

    #[test]
    fn proximity_is_core_bound() {
        let s = solve_cpi(
            &WorkloadParams::proximity(),
            &SystemConfig::paper_baseline(),
            &curve(),
        )
        .unwrap();
        assert_eq!(s.regime, Regime::CoreBound);
        assert!((s.cpi_eff - 0.93).abs() < 0.02);
    }

    #[test]
    fn more_bandwidth_helps_hpc() {
        let base = SystemConfig::paper_baseline();
        let wide = base.clone().with_channels(8).unwrap();
        let w = WorkloadParams::hpc_class();
        let s0 = solve_cpi(&w, &base, &curve()).unwrap();
        let s1 = solve_cpi(&w, &wide, &curve()).unwrap();
        assert!(s1.cpi_eff < s0.cpi_eff);
        assert!(s1.speedup_over(&s0) > 1.5);
    }

    #[test]
    fn lower_latency_helps_enterprise_not_hpc() {
        let base = SystemConfig::paper_baseline();
        let fast = base
            .clone()
            .with_unloaded_latency(Nanoseconds(45.0))
            .unwrap();
        let c = curve();
        let ent = WorkloadParams::enterprise_class();
        let hpc = WorkloadParams::hpc_class();
        let e0 = solve_cpi(&ent, &base, &c).unwrap();
        let e1 = solve_cpi(&ent, &fast, &c).unwrap();
        assert!(e1.cpi_eff < e0.cpi_eff - 0.05);
        let h0 = solve_cpi(&hpc, &base, &c).unwrap();
        let h1 = solve_cpi(&hpc, &fast, &c).unwrap();
        assert!(
            (h1.cpi_eff - h0.cpi_eff).abs() < 1e-9,
            "HPC stays bandwidth bound"
        );
    }

    #[test]
    fn frequency_scaling_raises_cpi() {
        // Faster cores make memory *relatively* slower: CPI_eff grows with
        // clock even though wall-clock performance improves (Sec. V.A).
        let c = curve();
        let w = WorkloadParams::structured_data();
        let mut last = 0.0;
        for ghz in [2.1, 2.4, 2.7, 3.1] {
            let sys = SystemConfig::paper_baseline()
                .with_core_clock(crate::units::GigaHertz(ghz))
                .unwrap();
            let s = solve_cpi(&w, &sys, &c).unwrap();
            assert!(s.cpi_eff > last, "CPI must rise with frequency");
            last = s.cpi_eff;
        }
    }

    #[test]
    fn fixed_point_self_consistent() {
        // At the solution, recomputing the chain MP → CPI → util → Q → MP
        // reproduces the same MP.
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        let w = WorkloadParams::big_data_class();
        let s = solve_cpi(&w, &sys, &c).unwrap();
        let cpi = cpi::effective_cpi(&w, s.miss_penalty.to_cycles(sys.core_clock()));
        assert!((cpi - s.cpi_eff).abs() < 1e-9);
        let util = bandwidth::utilization(
            &w,
            cpi,
            sys.core_clock(),
            sys.hardware_threads(),
            sys.effective_bandwidth(),
        );
        let q = c.delay(util).value();
        assert!((sys.unloaded_latency().value() + q - s.miss_penalty.value()).abs() < 1e-6);
    }

    #[test]
    fn zero_mpki_workload_core_bound_and_stable() {
        let w = WorkloadParams::new("noram", Segment::Hpc, 1.0, 0.5, 0.0, 0.0).unwrap();
        let s = solve_cpi(&w, &SystemConfig::paper_baseline(), &curve()).unwrap();
        assert_eq!(s.regime, Regime::CoreBound);
        assert_eq!(s.cpi_eff, 1.0);
        assert_eq!(s.bandwidth_demand.value(), 0.0);
    }

    #[test]
    fn cpi_stack_sums_to_cpi() {
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        for w in [
            WorkloadParams::enterprise_class(),
            WorkloadParams::big_data_class(),
            WorkloadParams::hpc_class(),
        ] {
            let s = solve_cpi(&w, &sys, &c).unwrap();
            let stack = s.cpi_stack(&w, &sys);
            assert!(
                (stack.total() - s.cpi_eff).abs() < 1e-9,
                "{}: stack {} vs cpi {}",
                w.name,
                stack.total(),
                s.cpi_eff
            );
            assert!(stack.memory_fraction() > 0.0 && stack.memory_fraction() < 1.0);
        }
    }

    #[test]
    fn hpc_stack_has_bandwidth_residual() {
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        let w = WorkloadParams::hpc_class();
        let s = solve_cpi(&w, &sys, &c).unwrap();
        let stack = s.cpi_stack(&w, &sys);
        assert!(stack.bandwidth_residual > 0.1, "{stack}");
        // Latency-limited classes have none.
        let e = WorkloadParams::enterprise_class();
        let se = solve_cpi(&e, &sys, &c).unwrap();
        assert_eq!(se.cpi_stack(&e, &sys).bandwidth_residual, 0.0);
    }

    #[test]
    fn cpi_stack_display() {
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        let w = WorkloadParams::big_data_class();
        let s = solve_cpi(&w, &sys, &c).unwrap();
        let text = s.cpi_stack(&w, &sys).to_string();
        assert!(text.contains("compulsory") && text.contains("queueing"));
    }

    #[test]
    fn memory_fraction_zero_stack_is_zero_not_nan() {
        let stack = CpiStack {
            cpi_cache: 0.0,
            compulsory_stall: 0.0,
            queueing_stall: 0.0,
            bandwidth_residual: 0.0,
        };
        assert_eq!(stack.total(), 0.0);
        let frac = stack.memory_fraction();
        assert!(!frac.is_nan(), "all-zero stack must not be NaN");
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn memory_fraction_pure_core_stack_is_zero() {
        let stack = CpiStack {
            cpi_cache: 1.5,
            compulsory_stall: 0.0,
            queueing_stall: 0.0,
            bandwidth_residual: 0.0,
        };
        assert_eq!(stack.memory_fraction(), 0.0);
    }

    #[test]
    fn telemetry_counts_solves_and_regimes() {
        let before = telemetry::snapshot();
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        solve_cpi(&WorkloadParams::enterprise_class(), &sys, &c).unwrap();
        solve_cpi(&WorkloadParams::hpc_class(), &sys, &c).unwrap();
        let delta = telemetry::snapshot().since(&before);
        assert!(delta.solves >= 2);
        assert!(delta.latency_limited >= 1);
        assert!(delta.bandwidth_bound >= 1);
        assert!(delta.iterations > 0, "bisection iterations recorded");
        assert!(delta.residual_evals > 0, "residual evaluations recorded");
    }

    #[test]
    fn regime_tokens_round_trip() {
        for regime in [
            Regime::CoreBound,
            Regime::LatencyLimited,
            Regime::BandwidthBound,
        ] {
            assert_eq!(Regime::from_token(regime.token()), Some(regime));
            assert_eq!(Regime::from_token(&regime.to_string()), Some(regime));
        }
        assert_eq!(
            Regime::from_token("latency_limited"),
            Some(Regime::LatencyLimited)
        );
        assert_eq!(Regime::from_token("io bound"), None);
    }

    #[test]
    fn speedup_over_is_ratio() {
        let sys = SystemConfig::paper_baseline();
        let c = curve();
        let a = solve_cpi(&WorkloadParams::enterprise_class(), &sys, &c).unwrap();
        let mut b = a.clone();
        b.cpi_eff = a.cpi_eff * 2.0;
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }
}

/// The replayed bisection against a frozen copy of the plain bisection it
/// replaces, bit for bit.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::workload::Segment;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// `solve_cpi` as it was before the replay: a blind bisection of the
    /// residual. Frozen here as the oracle; do not "fix" it.
    fn reference_solve_cpi(
        workload: &WorkloadParams,
        system: &SystemConfig,
        curve: &QueueingCurve,
    ) -> Result<SolvedCpi, ModelError> {
        let clock = system.core_clock();
        let threads = system.hardware_threads();
        let available = system.effective_bandwidth();
        let unloaded = system.unloaded_latency();
        let max_util = curve.max_stable_utilization();
        let residual = |mp_ns: f64| -> f64 {
            let cpi = cpi::effective_cpi(workload, Nanoseconds(mp_ns).to_cycles(clock));
            let util = bandwidth::utilization(workload, cpi, clock, threads, available);
            unloaded.value() + curve.delay(util).value() - mp_ns
        };
        let mut lo = unloaded.value();
        let mut hi = unloaded.value() + curve.max_stable_delay().value().max(1.0);
        let mut iterations = 0;
        if residual(lo) <= 0.0 {
            hi = lo;
        } else {
            while hi - lo > TOLERANCE_NS {
                iterations += 1;
                if iterations > MAX_ITERATIONS {
                    return Err(ModelError::DidNotConverge {
                        iterations: MAX_ITERATIONS,
                    });
                }
                let mid = 0.5 * (lo + hi);
                if residual(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        let mp_ns = 0.5 * (lo + hi);
        let latency_limited_cpi = cpi::effective_cpi(workload, Nanoseconds(mp_ns).to_cycles(clock));
        let util_at_fixed_point =
            bandwidth::utilization(workload, latency_limited_cpi, clock, threads, available);
        if util_at_fixed_point > max_util {
            let mp = Nanoseconds(unloaded.value() + curve.max_stable_delay().value());
            let bw_cpi = bandwidth::bandwidth_limited_cpi(workload, available, clock, threads)?;
            let lat_cpi = cpi::effective_cpi(workload, mp.to_cycles(clock));
            let cpi_eff = bw_cpi.max(lat_cpi);
            let demand = bandwidth::demand_system(workload, cpi_eff, clock, threads);
            return Ok(SolvedCpi {
                cpi_eff,
                miss_penalty: mp,
                miss_penalty_cycles: mp.to_cycles(clock),
                queueing_delay: curve.max_stable_delay(),
                bandwidth_demand: demand,
                utilization: demand.value() / available.value(),
                regime: Regime::BandwidthBound,
                iterations,
            });
        }
        let mp = Nanoseconds(mp_ns);
        let memory_share = cpi::memory_cpi_component(workload, mp.to_cycles(clock))
            / latency_limited_cpi.max(f64::MIN_POSITIVE);
        let regime = if memory_share < CORE_BOUND_THRESHOLD {
            Regime::CoreBound
        } else {
            Regime::LatencyLimited
        };
        let demand = bandwidth::demand_system(workload, latency_limited_cpi, clock, threads);
        Ok(SolvedCpi {
            cpi_eff: latency_limited_cpi,
            miss_penalty: mp,
            miss_penalty_cycles: mp.to_cycles(clock),
            queueing_delay: mp - unloaded,
            bandwidth_demand: demand,
            utilization: util_at_fixed_point,
            regime,
            iterations,
        })
    }

    /// Every field of a solve (or its error), floats as raw bits.
    fn fingerprint(solved: &Result<SolvedCpi, ModelError>) -> String {
        match solved {
            Ok(s) => format!(
                "{:x} {:x} {:x} {:x} {:x} {:x} {:?} {}",
                s.cpi_eff.to_bits(),
                s.miss_penalty.value().to_bits(),
                s.miss_penalty_cycles.value().to_bits(),
                s.queueing_delay.value().to_bits(),
                s.bandwidth_demand.value().to_bits(),
                s.utilization.to_bits(),
                s.regime,
                s.iterations
            ),
            Err(e) => format!("error: {e:?}"),
        }
    }

    fn uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * rng.next_f64()
    }

    fn log_uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * rng.next_f64()).exp()
    }

    /// A queueing curve of one of the shapes calibration can produce.
    fn curve(rng: &mut TestRng) -> QueueingCurve {
        let max_stable = uniform(rng, 0.85, 1.0);
        let built = match rng.below(6) {
            0 => return QueueingCurve::composite_default(),
            1 => QueueingCurve::mm1(Nanoseconds(uniform(rng, 1.0, 40.0))),
            // MLC-style: a gentle climb, then a near-vertical wall inside
            // the stable region (knots as close as the 1e-9 merge allows).
            2 => {
                let knee = uniform(rng, 0.6, 0.94);
                let gentle = uniform(rng, 5.0, 40.0);
                let width = log_uniform(rng, 1e-8, 1e-2);
                let wall = uniform(rng, 20.0, 400.0);
                QueueingCurve::from_measurements(
                    vec![
                        (0.0, 0.0),
                        (knee * 0.5, gentle * 0.4),
                        (knee, gentle),
                        ((knee + width).min(1.0), gentle + wall),
                        (1.0, gentle + wall * 1.5),
                    ],
                    max_stable,
                )
            }
            // Flat, then steep: no queueing until a threshold.
            3 => {
                let threshold = uniform(rng, 0.2, 0.9);
                QueueingCurve::from_measurements(
                    vec![
                        (0.0, 0.0),
                        (threshold, uniform(rng, 0.0, 0.5)),
                        (
                            (threshold + log_uniform(rng, 1e-6, 0.1)).min(1.0),
                            uniform(rng, 50.0, 300.0),
                        ),
                    ],
                    max_stable,
                )
            }
            // Arbitrary monotone knots: flat runs, jumps, a first knot
            // above zero utilization with a non-zero delay.
            4 => {
                let n = 2 + rng.below(20) as usize;
                let mut x = uniform(rng, 0.0, 0.3);
                let mut y = uniform(rng, 0.0, 5.0);
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push((x.min(1.0), y));
                    x += log_uniform(rng, 1e-7, 0.2);
                    y += match rng.below(4) {
                        0 => 0.0,
                        1 => uniform(rng, 50.0, 500.0),
                        _ => uniform(rng, 0.0, 10.0),
                    };
                }
                QueueingCurve::from_measurements(points, max_stable)
            }
            // A composite of two mm1 curves (knots at the union of both).
            _ => QueueingCurve::composite(&[
                QueueingCurve::mm1(Nanoseconds(uniform(rng, 1.0, 20.0))).unwrap(),
                QueueingCurve::mm1(Nanoseconds(uniform(rng, 5.0, 40.0))).unwrap(),
            ]),
        };
        built.unwrap_or_else(|_| QueueingCurve::composite_default())
    }

    fn system(rng: &mut TestRng) -> SystemConfig {
        SystemConfig::new(
            1 + rng.below(2) as u32,
            2 + rng.below(15) as u32,
            1 + rng.below(2) as u32,
            crate::units::GigaHertz(uniform(rng, 1.0, 4.0)),
            1 + rng.below(8) as u32,
            uniform(rng, 800.0, 3200.0),
            uniform(rng, 0.5, 1.0),
            Nanoseconds(uniform(rng, 0.0, 150.0)),
        )
        .unwrap()
    }

    /// A workload in one of four families: memory-bound, IO-only
    /// (`mpki = 0`), with no memory traffic at all, or tuned so the fixed
    /// point sits on a curve knot.
    fn workload(rng: &mut TestRng, sys: &SystemConfig, curve: &QueueingCurve) -> WorkloadParams {
        let cpi_cache = uniform(rng, 0.2, 3.0);
        let bf = if rng.below(10) == 0 {
            0.0
        } else {
            uniform(rng, 0.0, 1.0)
        };
        let wbr = uniform(rng, 0.0, 1.5);
        let make =
            |mpki: f64| WorkloadParams::new("diff", Segment::BigData, cpi_cache, bf, mpki, wbr);
        match rng.below(8) {
            0 => make(0.0)
                .unwrap()
                .with_io(log_uniform(rng, 1e-6, 1e-2), uniform(rng, 64.0, 65536.0))
                .unwrap(),
            1 => make(0.0).unwrap(),
            2 | 3 => {
                // Put the fixed point on a knot `(x, y)`: solve
                // `util(U + y) = x` for MPI, then nudge it by a few parts in
                // 1e9..1e15 either way. Half the time the knot is the
                // stability limit, the latency-limited / bandwidth-bound edge.
                let max_util = curve.max_stable_utilization();
                let stable: Vec<(f64, f64)> = curve
                    .knots()
                    .iter()
                    .copied()
                    .filter(|&(x, _)| x > 0.0 && x < max_util)
                    .collect();
                let (x, y) = match stable.len() {
                    0 => (max_util, curve.max_stable_delay().value()),
                    n if rng.below(2) == 0 => stable[rng.below(n as u64) as usize],
                    _ => (max_util, curve.max_stable_delay().value()),
                };
                let f = sys.core_clock().value();
                let per_mpi = (1.0 + wbr)
                    * crate::units::LINE_SIZE_BYTES
                    * f
                    * f64::from(sys.hardware_threads())
                    / sys.effective_bandwidth().value();
                let mp = sys.unloaded_latency().value() + y;
                let denom = per_mpi - x * f * bf * mp;
                let nudge =
                    log_uniform(rng, 1e-15, 1e-9) * if rng.below(2) == 0 { 1.0 } else { -1.0 };
                let mpki = if denom > 0.0 {
                    1000.0 * x * cpi_cache / denom * (1.0 + nudge)
                } else {
                    uniform(rng, 0.1, 60.0)
                };
                make(mpki).unwrap()
            }
            _ => make(log_uniform(rng, 0.01, 80.0)).unwrap(),
        }
    }

    fn case(seed: u64) -> (WorkloadParams, SystemConfig, QueueingCurve) {
        let mut rng = TestRng::new(seed);
        let curve = curve(&mut rng);
        let sys = system(&mut rng);
        let w = workload(&mut rng, &sys, &curve);
        (w, sys, curve)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn replay_is_bitwise_the_plain_bisection(seed in 0u64..=u64::MAX) {
            let (w, sys, curve) = case(seed);
            let expected = fingerprint(&reference_solve_cpi(&w, &sys, &curve));
            prop_assert_eq!(fingerprint(&solve_cpi(&w, &sys, &curve)), expected.clone());
            prop_assert_eq!(fingerprint(&solve_cpi_by_bisection(&w, &sys, &curve)), expected);
        }
    }

    #[test]
    fn fallbacks_stay_rare_and_evaluations_few() {
        const CASES: u64 = 20_000;
        let (mut fallbacks, mut evals, mut reference_evals) = (0u64, 0u64, 0u64);
        let mut regimes = [0u64; 3];
        for seed in 0..CASES {
            let (w, sys, curve) = case(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let problem = FixedPoint::new(&w, &sys, &curve);
            let mut replay_evals = 0;
            match problem.replay(&mut replay_evals) {
                Some(bracket) => {
                    let mut plain_evals = 0;
                    let plain = problem.bisect(&mut plain_evals).unwrap();
                    assert_eq!(
                        (bracket.0.to_bits(), bracket.1.to_bits(), bracket.2),
                        (plain.0.to_bits(), plain.1.to_bits(), plain.2),
                        "seed {seed}"
                    );
                    evals += replay_evals;
                    reference_evals += plain_evals;
                }
                None => fallbacks += 1,
            }
            let solved = solve_cpi(&w, &sys, &curve).unwrap();
            regimes[solved.regime as usize] += 1;
        }
        // Every regime is exercised, the edge family included.
        assert!(regimes.iter().all(|&n| n > CASES / 50), "{regimes:?}");
        assert!(
            fallbacks * 1000 <= CASES,
            "{fallbacks} fallbacks in {CASES}"
        );
        let replayed = (CASES - fallbacks) as f64;
        let (mean, reference_mean) = (evals as f64 / replayed, reference_evals as f64 / replayed);
        assert!(
            mean <= 4.0,
            "{mean} residual evaluations per replayed solve"
        );
        assert!(reference_mean > 5.0 * mean, "{reference_mean} vs {mean}");
    }

    #[test]
    fn paper_classes_replay_with_a_few_evaluations() {
        let curve = QueueingCurve::composite_default();
        let sys = SystemConfig::paper_baseline();
        for w in [
            WorkloadParams::enterprise_class(),
            WorkloadParams::big_data_class(),
            WorkloadParams::hpc_class(),
        ] {
            let solved = solve_cpi(&w, &sys, &curve).unwrap();
            assert_eq!(solved.iterations, 36, "{}", w.name);
            let mut evals = 0;
            FixedPoint::new(&w, &sys, &curve)
                .replay(&mut evals)
                .unwrap();
            assert!(evals <= 4, "{}: {evals} evaluations", w.name);
        }
    }
}
