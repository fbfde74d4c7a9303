//! The workloads: one lifecycle, one shape each.
//!
//! The traffic is the repository's own, not the benchmark's: matrices
//! come from the paper presets of `eppi_workload::presets` (n = 2m
//! owners, Zipf(1.0) frequencies from 1 to m/20, ε uniform on [0, 1]),
//! and query popularity uses the Zipf exponent of the repository's serve
//! and private load benchmarks (`eppi_bench::serve`, `eppi_bench::private`).

use eppi_workload::presets::Preset;

/// Zipf exponent of owner popularity in every query stream, as in
/// `ServeLoadConfig::paper` and `PrivateLoadConfig::paper`.
pub const QUERY_ZIPF: f64 = 1.0;

/// Share of private queries that ask for an owner the index does not
/// hold (served as null queries). The repository has no measured figure
/// for it; a small share exercises the null-query path, which must scan
/// exactly as much as a real query, without dominating the answers
/// checked.
pub const UNKNOWN_SHARE: f64 = 0.05;

/// Memberships moved per touched owner: one provider bit cleared and
/// another set, so frequencies, thresholds and λ stay put and the chain
/// head must equal a from-scratch build exactly.
pub const MOVES_PER_OWNER: usize = 2;

/// Everything that distinguishes one workload from another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// The paper preset the membership matrix is drawn from: the same
    /// for every workload, smaller in the count test.
    pub preset: Preset,
    /// Share of each round given to plaintext serving, private serving
    /// and delta commits, in that order.
    pub split: [f64; 3],
}

impl Shape {
    /// Providers `m`.
    pub fn providers(&self) -> usize {
        self.preset.providers()
    }

    /// Owners `n`.
    pub fn owners(&self) -> usize {
        self.preset.owners()
    }

    /// Owners touched per delta: one in a thousand, the smallest churn
    /// of the repository's refresh sweep (`RefreshBenchConfig::paper`),
    /// and at least one.
    pub fn owners_per_delta(&self) -> usize {
        (self.owners() / 1000).max(1)
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them. Both use the
/// dataset's smallest configuration (2,500 providers, 5,000 owners): the
/// experiments' default of 10,000 providers makes one MPC epoch build
/// too long to repeat within a run. Both serve plaintext from compressed
/// rows; the private replicas are always dense.
pub const WORKLOADS: [Shape; 2] = [
    Shape {
        name: "locate",
        preset: Preset::Small,
        split: [0.7, 0.1, 0.2],
    },
    Shape {
        name: "private",
        preset: Preset::Small,
        split: [0.2, 0.65, 0.15],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Shape> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}
