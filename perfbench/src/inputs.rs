//! Seeded input generation: the membership matrix, ε's, query streams
//! and the delta stream. The same seed gives the same inputs.

use crate::shape::{Shape, MOVES_PER_OWNER, QUERY_ZIPF, UNKNOWN_SHARE};
use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi_workload::queries::QueryWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generated inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The raw membership matrix of epoch 0.
    pub matrix: MembershipMatrix,
    /// Per-owner privacy degrees, uniform on `[0, 1]` (the paper's
    /// default, as the preset draws them).
    pub epsilons: Vec<Epsilon>,
    /// Zipf owner popularity shared by every query stream.
    pub popularity: QueryWorkload,
    /// The run seed every stream derives from.
    pub seed: u64,
}

impl Inputs {
    /// Generates the inputs of `shape` from `seed`.
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let (matrix, epsilons) = shape.preset.build_with_epsilons(&mut rng);
        let popularity = QueryWorkload::new(shape.owners(), QUERY_ZIPF, &mut rng);
        Inputs {
            matrix,
            epsilons,
            popularity,
            seed,
        }
    }

    /// An independent RNG stream for one consumer (`tag`) of this run.
    pub fn stream(&self, tag: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Draws deltas: [`Shape::owners_per_delta`] distinct owners, each with
/// [`MOVES_PER_OWNER`] memberships moved to a provider that did not hold
/// the owner. Frequencies and ε's are unchanged, so the common-identity
/// count and λ never drift and the delta chain must stay bit-identical
/// to a from-scratch construction.
#[derive(Debug)]
pub struct DeltaStream {
    rng: StdRng,
    owners_per_delta: usize,
}

impl DeltaStream {
    /// The delta stream of `inputs` under `shape`.
    pub fn new(shape: &Shape, inputs: &Inputs) -> DeltaStream {
        DeltaStream {
            rng: inputs.stream(0xde17a),
            owners_per_delta: shape.owners_per_delta(),
        }
    }

    /// Applies the next delta to `matrix` and returns it.
    pub fn next(&mut self, matrix: &mut MembershipMatrix, epsilons: &[Epsilon]) -> IndexDelta {
        let n = matrix.owners();
        let m = matrix.providers() as u32;
        let mut delta = IndexDelta::new(n);
        while delta.len() < self.owners_per_delta.min(n) {
            let owner = OwnerId(self.rng.gen_range(0..n as u32));
            if delta.contains(owner) {
                continue;
            }
            for _ in 0..MOVES_PER_OWNER {
                let held = matrix.providers_of(owner);
                if held.is_empty() || held.len() == m as usize {
                    break;
                }
                let from = held[self.rng.gen_range(0..held.len())];
                let to = loop {
                    let p = ProviderId(self.rng.gen_range(0..m));
                    if !matrix.get(p, owner) {
                        break p;
                    }
                };
                matrix.set(from, owner, false);
                matrix.set(to, owner, true);
            }
            delta.record(DeltaEntry {
                owner,
                change: ColumnChange::Changed,
                epsilon: epsilons[owner.index()],
            });
        }
        delta
    }
}

/// Draws the owners of one query stream: Zipf-popular known owners, and
/// with probability [`UNKNOWN_SHARE`] an owner beyond the index.
pub fn draw_owner(popularity: &QueryWorkload, owners: usize, rng: &mut StdRng) -> OwnerId {
    if rng.gen_bool(UNKNOWN_SHARE) {
        OwnerId(owners as u32 + rng.gen_range(0..owners as u32))
    } else {
        popularity.sample(rng)
    }
}
