//! Shared helpers: the seeded generator, Zipf sampling, hashing,
//! percentiles and the result line every workload prints.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed, so the same
/// `--seed` always yields byte-identical inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d65_6d73_656e_7365)
    }

    /// An independent stream derived from this seed and a label.
    pub fn fork(seed: u64, label: &str) -> Rng {
        Rng::new(seed ^ fnv1a(label.as_bytes()).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to `decimals` places so request
    /// bodies stay short and their floats round-trip exactly.
    pub fn range(&mut self, lo: f64, hi: f64, decimals: i32) -> f64 {
        let scale = 10f64.powi(decimals);
        ((lo + (hi - lo) * self.unit()) * scale).round() / scale + 0.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Exponential gap with the given rate (Poisson arrivals).
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of an ascending slice (`0 < p <= 100`): the
/// value at 1-based rank `ceil(p/100 * n)`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    sorted[rank - 1]
}

/// A tail latency: p99 when at least ten samples lie beyond it, otherwise
/// the highest percentile that still has ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let p99_rank = ((0.99 * n as f64).ceil() as usize).max(1);
    let (rank, percentile) = if n >= p99_rank + TAIL_BEYOND {
        (p99_rank, 99.0)
    } else if n > TAIL_BEYOND {
        (n - TAIL_BEYOND, 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
    } else {
        // Too few samples for any percentile with ten beyond it: report the
        // maximum, which no smaller percentile can exceed.
        (n.max(1), 100.0)
    };
    Tail {
        value: if n == 0 { 0.0 } else { sorted[rank - 1] },
        percentile,
        samples: n,
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values.to_vec()), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Machine-wide CPU ticks `(steal, total)` from `/proc/stat`: on a virtual
/// machine, steal is time the hypervisor gave this machine's CPUs to
/// someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio(
        after.0.saturating_sub(before.0) as f64,
        after.1.saturating_sub(before.1) as f64,
    )
}

/// Indices of the quieter half (rounded up) of a run's rounds, ranked by
/// the CPU time the hypervisor stole during each; ties keep run order.
/// Steal only ever slows a round down, so the rounds it touched least
/// measure the program, not its neighbours. Returned in run order.
pub fn quieter_half(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    order.truncate(steal.len().div_ceil(2));
    order.sort_unstable();
    order
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure happened (first few are printed).
    pub failures: Vec<String>,
    /// End-to-end metrics in report order.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics of a traced run, by name.
    pub layers: std::collections::BTreeMap<String, f64>,
    /// Human-readable report lines (the issue's metric names, sample
    /// counts, tail percentiles).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(metric(name, unit, value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The contract's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` on f64 prints the shortest string that round-trips: every
        // measured digit, never a rounded display value.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.5), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
        assert_eq!(big.iter().filter(|&&x| x > t.value).count(), 10);

        // 999 samples: p99's rank is 990, leaving only 9 beyond it.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 989.0);
        assert!(t.percentile < 99.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(nearest_rank(&v, t.percentile), t.value);

        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&small);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);

        let tiny = [3.0, 1.0, 2.0];
        let t = tail(&sorted(tiny.to_vec()));
        assert_eq!((t.value, t.percentile), (3.0, 100.0));
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn rng_is_deterministic_and_forks_differ() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, "x").next_u64(), Rng::fork(7, "y").next_u64());
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let x = r.range(-1.0, 1.0, 2);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn zipf_skew_follows_the_exponent() {
        let z = Zipf::new(10, 1.0);
        let total: f64 = (0..10).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((z.probability(0) / z.probability(1) - 2.0).abs() < 1e-9);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let expected = z.probability(k) * n as f64;
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected,
                "rank {k}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn quieter_half_keeps_the_least_stolen_rounds_in_run_order() {
        assert_eq!(quieter_half(&[0.3, 0.1, 0.2, 0.1]), vec![1, 3]);
        assert_eq!(quieter_half(&[0.3, 0.1, 0.2]), vec![1, 2]);
        assert_eq!(quieter_half(&[0.0; 4]), vec![0, 1]);
        assert_eq!(quieter_half(&[0.5]), vec![0]);
        assert!(quieter_half(&[]).is_empty());
        let (before, after) = ((10, 1000), (30, 1200));
        assert!((steal_share(before, after) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[metric("p50_ms", "ms", 1.25), metric("x", "s", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
