//! Deterministic random-number-generator plumbing.
//!
//! Every stochastic component in the workspace accepts either an explicit
//! seed or a `&mut SldaRng`, so that each experiment in the paper can be
//! replayed bit-for-bit. We standardize on [`rand::rngs::SmallRng`]
//! (xoshiro256++ on 64-bit platforms): non-cryptographic, very fast, and
//! plenty good for MCMC.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The RNG used throughout the Source-LDA workspace.
pub type SldaRng = SmallRng;

/// Create a deterministic RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> SldaRng {
    SmallRng::seed_from_u64(seed)
}

/// Derive an independent child RNG from a parent.
///
/// Used to hand each worker thread (or each replicated experiment run) its
/// own stream while keeping the whole experiment a function of one seed.
pub fn spawn_rng(parent: &mut SldaRng) -> SldaRng {
    // Mix two draws through SplitMix64 so children of consecutive spawns are
    // decorrelated even if the parent stream has local structure.
    let raw: u64 = parent.gen::<u64>() ^ 0x9e37_79b9_7f4a_7c15;
    SmallRng::seed_from_u64(splitmix64(raw))
}

/// Snapshot an RNG's raw state for checkpointing. A generator rebuilt with
/// [`rng_from_state`] continues the exact stream, so a resumed training run
/// replays bit-for-bit.
pub fn rng_state(rng: &SldaRng) -> [u64; 4] {
    rng.state()
}

/// Rebuild an RNG from a [`rng_state`] snapshot.
pub fn rng_from_state(state: [u64; 4]) -> SldaRng {
    SmallRng::from_state(state)
}

/// One round of the SplitMix64 output function (the constants of the
/// reference implementation): a fixed, seedable 64-bit mix, deterministic
/// everywhere.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draw a uniform value in `[0, 1)`.
#[inline]
pub fn uniform01(rng: &mut SldaRng) -> f64 {
    rng.gen::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(7);
        let mut b = rng_from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn spawned_children_are_deterministic_and_distinct() {
        let mut parent1 = rng_from_seed(42);
        let mut parent2 = rng_from_seed(42);
        let mut c1 = spawn_rng(&mut parent1);
        let mut c2 = spawn_rng(&mut parent2);
        for _ in 0..50 {
            assert_eq!(c1.gen::<u64>(), c2.gen::<u64>());
        }
        // A second spawn from the same parent yields a distinct stream.
        let mut c3 = spawn_rng(&mut parent1);
        let matches = (0..64)
            .filter(|_| c3.gen::<u64>() == c2.gen::<u64>())
            .count();
        assert!(matches < 4);
    }

    #[test]
    fn uniform01_in_range() {
        let mut rng = rng_from_seed(3);
        for _ in 0..10_000 {
            let u = uniform01(&mut rng);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn state_snapshot_resumes_the_stream() {
        let mut rng = rng_from_seed(19);
        for _ in 0..37 {
            rng.gen::<u64>();
        }
        let snap = rng_state(&rng);
        let ahead: Vec<u64> = (0..64).map(|_| rng.gen::<u64>()).collect();
        let mut resumed = rng_from_state(snap);
        let resumed_ahead: Vec<u64> = (0..64).map(|_| resumed.gen::<u64>()).collect();
        assert_eq!(ahead, resumed_ahead);
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
