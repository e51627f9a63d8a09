//! Address-pattern building blocks shared by the workload generators.
//!
//! Each paper workload is characterized by *how* it touches memory: columnar
//! scans are sequential, OLTP probes B-trees with dependent pointer walks,
//! memcached hits a hash table with Zipf-popular keys, SPECfp kernels stride
//! through large arrays. These small samplers produce those shapes.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Aligns an address down to a 64-byte line.
pub fn line_align(addr: u64) -> u64 {
    addr & !63
}

/// A sequential scanner over a wrapping region: returns consecutive byte
/// addresses `element_size` apart, starting at `base`.
#[derive(Debug, Clone)]
pub struct SequentialScan {
    base: u64,
    region: u64,
    element: u64,
    offset: u64,
}

impl SequentialScan {
    /// Creates a scanner over `region` bytes starting at `base`, advancing
    /// `element_size` bytes per step.
    ///
    /// # Panics
    ///
    /// Panics if `region` or `element_size` is zero.
    pub fn new(base: u64, region: u64, element_size: u64) -> Self {
        assert!(
            region > 0 && element_size > 0,
            "region and element must be > 0"
        );
        SequentialScan {
            base,
            region,
            element: element_size,
            offset: 0,
        }
    }

    /// Next element address.
    pub fn next_addr(&mut self) -> u64 {
        let a = self.base + self.offset;
        self.offset = (self.offset + self.element) % self.region;
        a
    }
}

/// A strided scanner: like [`SequentialScan`] but with a configurable stride
/// between consecutive accesses (lattice/stencil sweeps).
#[derive(Debug, Clone)]
pub struct StridedScan {
    base: u64,
    region: u64,
    stride: u64,
    offset: u64,
}

impl StridedScan {
    /// Creates a strided scanner.
    ///
    /// # Panics
    ///
    /// Panics if `region` or `stride` is zero.
    pub fn new(base: u64, region: u64, stride: u64) -> Self {
        assert!(region > 0 && stride > 0, "region and stride must be > 0");
        StridedScan {
            base,
            region,
            stride,
            offset: 0,
        }
    }

    /// Next address.
    pub fn next_addr(&mut self) -> u64 {
        let a = self.base + self.offset;
        self.offset += self.stride;
        if self.offset >= self.region {
            // Restart at a shifted phase so successive sweeps touch the
            // other lines of each stride window.
            self.offset = (self.offset + 64) % self.stride.max(64);
        }
        a
    }
}

/// Uniform random line addresses within a region — the NITS bloom-filter
/// probes and MLC's random traffic.
#[derive(Debug, Clone)]
pub struct UniformRandom {
    base: u64,
    region: u64,
    rng: SmallRng,
}

impl UniformRandom {
    /// Creates a sampler over `region` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is zero.
    pub fn new(base: u64, region: u64, seed: u64) -> Self {
        assert!(region > 0, "region must be > 0");
        UniformRandom {
            base,
            region,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Next line-aligned random address.
    pub fn next_addr(&mut self) -> u64 {
        line_align(self.base + self.rng.gen_range(0..self.region))
    }
}

/// Zipf-distributed item popularity over `n` items — web-cache keys and
/// OLTP hot rows. Uses the standard inverse-CDF method over precomputed
/// cumulative weights; reseeded siblings of one sampler share its table.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Arc<[f64]>,
    rng: SmallRng,
}

impl ZipfSampler {
    /// Creates a sampler for ranks `0..n` with exponent `theta`
    /// (`theta = 0` is uniform; web workloads are typically ~0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "n must be > 0");
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler {
            cdf: cdf.into(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A sampler over the same ranks and exponent, drawing from a fresh RNG
    /// seeded with `seed`. It shares this sampler's table, so it samples
    /// exactly as `ZipfSampler::new(n, theta, seed)` would, without
    /// recomputing the table.
    pub(crate) fn reseeded(&self, seed: u64) -> Self {
        ZipfSampler {
            cdf: Arc::clone(&self.cdf),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Samples an item rank in `0..n` (0 = most popular).
    pub fn sample(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A pseudo-random pointer chase: a permutation-like walk over the lines of
/// a region where each next address is a hash of the current one — the
/// dependent-load backbone of OLTP/JVM/graph traversals.
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: u64,
    lines: u64,
    state: u64,
}

impl PointerChase {
    /// Creates a chase over `region` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is smaller than one line.
    pub fn new(base: u64, region: u64, seed: u64) -> Self {
        assert!(region >= 64, "region must hold at least one line");
        PointerChase {
            base,
            lines: region / 64,
            state: seed | 1,
        }
    }

    /// Next chased address (depends on the previous one).
    pub fn next_addr(&mut self) -> u64 {
        // SplitMix64 step: full-period, well mixed, deterministic.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.base + (z % self.lines) * 64
    }
}

/// Deterministic per-stream RNG for op-mix decisions.
pub fn mix_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_advances_and_wraps() {
        let mut s = SequentialScan::new(1000, 256, 64);
        assert_eq!(s.next_addr(), 1000);
        assert_eq!(s.next_addr(), 1064);
        assert_eq!(s.next_addr(), 1128);
        assert_eq!(s.next_addr(), 1192);
        assert_eq!(s.next_addr(), 1000, "wraps at region end");
    }

    #[test]
    fn strided_covers_with_stride() {
        let mut s = StridedScan::new(0, 4096, 1024);
        let a: Vec<u64> = (0..4).map(|_| s.next_addr()).collect();
        assert_eq!(a, vec![0, 1024, 2048, 3072]);
    }

    #[test]
    fn uniform_random_in_bounds_and_aligned() {
        let mut u = UniformRandom::new(1 << 20, 1 << 16, 42);
        for _ in 0..1000 {
            let a = u.next_addr();
            assert!((1 << 20..(1 << 20) + (1 << 16) + 64).contains(&a));
            assert_eq!(a % 64, 0);
        }
    }

    #[test]
    fn uniform_random_deterministic_per_seed() {
        let mut a = UniformRandom::new(0, 1 << 20, 7);
        let mut b = UniformRandom::new(0, 1 << 20, 7);
        for _ in 0..100 {
            assert_eq!(a.next_addr(), b.next_addr());
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut z = ZipfSampler::new(1000, 0.99, 1);
        let mut low = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample() < 10 {
                low += 1;
            }
        }
        // With theta ≈ 1, the top-10 of 1000 items draw ~39% of accesses.
        let frac = low as f64 / n as f64;
        assert!(frac > 0.25, "zipf head share {frac}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let mut z = ZipfSampler::new(100, 0.0, 2);
        let mut counts = [0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample()] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "uniform spread, got {min}..{max}");
    }

    #[test]
    fn zipf_reseeded_matches_fresh_sampler_and_shares_table() {
        let parent = ZipfSampler::new(5_000, 0.99, 1);
        let mut sibling = parent.reseeded(77);
        let mut fresh = ZipfSampler::new(5_000, 0.99, 77);
        assert!(Arc::ptr_eq(&parent.cdf, &sibling.cdf));
        for _ in 0..10_000 {
            assert_eq!(sibling.sample(), fresh.sample());
        }
    }

    #[test]
    fn zipf_in_range() {
        let mut z = ZipfSampler::new(10, 1.2, 3);
        for _ in 0..1000 {
            assert!(z.sample() < 10);
        }
    }

    #[test]
    fn chase_stays_in_region_and_varies() {
        let mut c = PointerChase::new(4096, 1 << 20, 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let a = c.next_addr();
            assert!((4096..4096 + (1 << 20)).contains(&a));
            assert_eq!(a % 64, 0);
            seen.insert(a);
        }
        assert!(
            seen.len() > 900,
            "chase must not cycle quickly: {}",
            seen.len()
        );
    }

    #[test]
    #[should_panic(expected = "region must hold at least one line")]
    fn chase_rejects_tiny_region() {
        let _ = PointerChase::new(0, 32, 1);
    }

    #[test]
    fn line_align_masks_low_bits() {
        assert_eq!(line_align(0), 0);
        assert_eq!(line_align(63), 0);
        assert_eq!(line_align(64), 64);
        assert_eq!(line_align(130), 128);
    }
}
