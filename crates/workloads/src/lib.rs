//! Synthetic workload generators for the memsense reproduction.
//!
//! The paper characterizes twelve commercial and benchmark workloads
//! (Sec. III) whose binaries and datasets are not available; each is rebuilt
//! here as a synthetic instruction stream with the same memory-behaviour
//! signature: sequential scans vs. pointer chases, store intensity,
//! non-temporal writes, cache-resident working sets, I/O DMA, idle time,
//! and phase structure. Run on the `memsense-sim` testbed, the generators
//! land in the neighbourhood of the paper's Tab. 2/4/5 calibrated
//! parameters; the calibration pipeline in `memsense-experiments` recovers
//! them exactly as the paper does (frequency sweeps + linear fits).
//!
//! * [`patterns`] — address-pattern samplers (scan, stride, Zipf, chase).
//! * [`mix`] — the parametrized generator ([`mix::MixSpec`]).
//! * [`bigdata`] / [`enterprise`] / [`hpc`] — tuned specs per workload.
//! * [`Workload`] — an enum naming all twelve, with factory methods.
//!
//! # Examples
//!
//! ```
//! use memsense_workloads::Workload;
//!
//! let all = Workload::all();
//! assert_eq!(all.len(), 14);
//! let mut stream = Workload::StructuredData.stream(42);
//! # use memsense_sim::InstructionStream;
//! let _op = stream.next_op();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigdata;
pub mod enterprise;
pub mod hpc;
pub mod mix;
pub mod multiphase;
pub mod patterns;

use memsense_sim::trace::BoxedStream;
use mix::{MixSpec, MixWorkload};

/// The paper's workloads: the twelve of Tabs. 2/4/5 plus the two
/// core-bound SPEC components Fig. 6 plots near the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// In-memory column store (big data).
    StructuredData,
    /// Needle-in-the-haystack search (big data).
    Nits,
    /// Spark graph analytics (big data).
    Spark,
    /// Proximity search (big data, core bound).
    Proximity,
    /// OLTP brokerage database (enterprise).
    Oltp,
    /// Java middle tier (enterprise).
    Jvm,
    /// Virtualized consolidation (enterprise).
    Virtualization,
    /// Memcached-like web cache (enterprise).
    WebCaching,
    /// SPECfp 410.bwaves (HPC).
    Bwaves,
    /// SPECfp 433.milc (HPC).
    Milc,
    /// SPECfp 450.soplex (HPC).
    Soplex,
    /// SPECfp 481.wrf (HPC).
    Wrf,
    /// SPEC 453.povray-like ray tracer (HPC segment, core bound — the
    /// near-origin SPEC cluster of Fig. 6).
    Povray,
    /// SPEC 400.perlbench-like interpreter (HPC segment, core bound).
    Perlbench,
}

/// Usage segment, mirroring `memsense_model::Segment` without the
/// cross-dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Big data analytics.
    BigData,
    /// Enterprise serving.
    Enterprise,
    /// High-performance computing.
    Hpc,
}

impl Workload {
    /// All workloads, in the paper's presentation order.
    pub fn all() -> Vec<Workload> {
        use Workload::*;
        vec![
            StructuredData,
            Nits,
            Spark,
            Proximity,
            Oltp,
            Jvm,
            Virtualization,
            WebCaching,
            Bwaves,
            Milc,
            Soplex,
            Wrf,
            Povray,
            Perlbench,
        ]
    }

    /// The workload's usage segment.
    pub fn class(self) -> Class {
        use Workload::*;
        match self {
            StructuredData | Nits | Spark | Proximity => Class::BigData,
            Oltp | Jvm | Virtualization | WebCaching => Class::Enterprise,
            Bwaves | Milc | Soplex | Wrf | Povray | Perlbench => Class::Hpc,
        }
    }

    /// The workload's display name (matches the paper tables).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The tuned mix specification.
    pub fn spec(self) -> MixSpec {
        use Workload::*;
        match self {
            StructuredData => bigdata::structured_data(),
            Nits => bigdata::nits(),
            Spark => bigdata::spark(),
            Proximity => bigdata::proximity(),
            Oltp => enterprise::oltp(),
            Jvm => enterprise::jvm(),
            Virtualization => enterprise::virtualization(),
            WebCaching => enterprise::web_caching(),
            Bwaves => hpc::bwaves(),
            Milc => hpc::milc(),
            Soplex => hpc::soplex(),
            Wrf => hpc::wrf(),
            Povray => hpc::povray(),
            Perlbench => hpc::perlbench(),
        }
    }

    /// Builds a seeded generator.
    pub fn workload(self, seed: u64) -> MixWorkload {
        MixWorkload::new(self.spec(), seed)
    }

    /// Builds a boxed stream for the simulator.
    pub fn stream(self, seed: u64) -> BoxedStream {
        Box::new(self.workload(seed))
    }

    /// Builds one differently-seeded stream per hardware thread, as the
    /// paper runs one software thread (or program copy) per logical
    /// processor. Thread 0's generator is built first and the others are
    /// reseeded from it, so they share its Zipf table.
    pub fn streams(self, threads: u32, base_seed: u64) -> Vec<BoxedStream> {
        let seed = |t: u32| {
            base_seed
                .wrapping_add(t as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        };
        if threads == 0 {
            return Vec::new();
        }
        let first = self.workload(seed(0));
        let rest: Vec<MixWorkload> = (1..threads).map(|t| first.reseeded(seed(t))).collect();
        std::iter::once(first)
            .chain(rest)
            .map(|w| Box::new(w) as BoxedStream)
            .collect()
    }
}

/// Error returned when parsing an unknown workload name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError(String);

impl core::fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown workload: {}", self.0)
    }
}

impl std::error::Error for ParseWorkloadError {}

impl core::str::FromStr for Workload {
    type Err = ParseWorkloadError;

    /// Parses a workload by its display name (case-insensitive, spaces or
    /// underscores): `"structured data"`, `"nits"`, `"bwaves"`, …
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_lowercase().replace('_', " ");
        Workload::all()
            .into_iter()
            .find(|w| w.name().to_lowercase() == norm)
            .ok_or_else(|| ParseWorkloadError(s.to_string()))
    }
}

impl core::fmt::Display for Workload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_workloads_with_classes() {
        let all = Workload::all();
        assert_eq!(all.len(), 14);
        assert_eq!(
            all.iter().filter(|w| w.class() == Class::BigData).count(),
            4
        );
        assert_eq!(
            all.iter()
                .filter(|w| w.class() == Class::Enterprise)
                .count(),
            4
        );
        assert_eq!(all.iter().filter(|w| w.class() == Class::Hpc).count(), 6);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Workload::StructuredData.name(), "Structured Data");
        assert_eq!(Workload::Nits.to_string(), "NITS");
        assert_eq!(Workload::Bwaves.name(), "bwaves");
    }

    #[test]
    fn streams_are_distinct_per_thread() {
        let mut streams = Workload::Oltp.streams(2, 7);
        assert_eq!(streams.len(), 2);
        let a: Vec<_> = (0..200).map(|_| streams[0].next_op()).collect();
        let b: Vec<_> = (0..200).map(|_| streams[1].next_op()).collect();
        assert_ne!(a, b, "different seeds should diverge");
    }

    #[test]
    fn zero_threads_build_no_streams() {
        assert!(Workload::WebCaching.streams(0, 7).is_empty());
    }

    #[test]
    fn parse_workload_names() {
        assert_eq!(
            "structured data".parse::<Workload>().unwrap(),
            Workload::StructuredData
        );
        assert_eq!(
            "Structured_Data".parse::<Workload>().unwrap(),
            Workload::StructuredData
        );
        assert_eq!("NITS".parse::<Workload>().unwrap(), Workload::Nits);
        assert_eq!("bwaves".parse::<Workload>().unwrap(), Workload::Bwaves);
        assert!("nonexistent".parse::<Workload>().is_err());
    }

    #[test]
    fn every_workload_produces_ops() {
        for w in Workload::all() {
            let mut s = w.stream(1);
            for _ in 0..50 {
                let _ = s.next_op();
            }
        }
    }
}
