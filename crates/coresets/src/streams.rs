//! Per-machine deterministic RNG streams.
//!
//! Every simulated machine gets its **own** `ChaCha8Rng`, derived from the
//! run seed and the machine index *before* the parallel fan-out. Because a
//! machine's stream depends only on `(seed, machine)` — never on which OS
//! thread runs it or in what order machines finish — protocol outputs are
//! bit-identical across thread counts and schedules. This is the invariant
//! the workspace's determinism test suite (`tests/determinism.rs`) pins down.

use graph::mix64;
use rand_chacha::ChaCha8Rng;

/// Derives machine `machine`'s private RNG stream for a run with seed `seed`.
///
/// The `(seed, machine)` pair is expanded through SplitMix64 into a full
/// 32-byte ChaCha8 key, so streams are decorrelated even for adjacent seeds
/// and machine indices, and distinct from the partitioning RNG (which is
/// seeded from `seed` directly via `seed_from_u64`).
///
/// Equivalent to [`node_rng`]`(seed, 0, machine)`: the machines are level 0
/// of the composition tree, so the leaf streams of a hierarchical run are
/// bit-identical to the machine streams of a flat run.
pub fn machine_rng(seed: u64, machine: usize) -> ChaCha8Rng {
    node_rng(seed, 0, machine)
}

/// Derives the private RNG stream of tree node `(level, node)` for a run
/// with seed `seed` — the hierarchical extension of [`machine_rng`].
///
/// Level 0 is the machines (leaves); level `l ≥ 1` is the `l`-th merge round
/// of the composition tree, with `node` the merge-group index within the
/// round. The stream depends only on `(seed, level, node)` — never on thread
/// count or schedule — so tree-composed outputs stay bit-identical across
/// thread counts and under scheduler fuzzing. The level multiplier is a
/// distinct odd constant so `(level, node)` pairs cannot alias each other's
/// mixed states, and level 0 reproduces the historical `machine_rng` streams
/// exactly.
pub fn node_rng(seed: u64, level: usize, node: usize) -> ChaCha8Rng {
    use rand::SeedableRng;
    let mut state = seed
        ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (level as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    // Four draws of a SplitMix64 generator started at `state`.
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&mix64(state).to_le_bytes());
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    ChaCha8Rng::from_seed(key)
}

/// Pairs every piece with its machine index and private RNG stream.
///
/// Protocol runners call this **before** handing the pieces to the parallel
/// iterator, so all randomness is fixed ahead of the fan-out; the parallel
/// stage then only consumes pre-derived, machine-local state.
pub fn machine_jobs<G>(pieces: &[G], seed: u64) -> Vec<(usize, &G, ChaCha8Rng)> {
    pieces
        .iter()
        .enumerate()
        .map(|(i, piece)| (i, piece, machine_rng(seed, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn first_words(rng: &mut ChaCha8Rng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn streams_are_deterministic() {
        let a = first_words(&mut machine_rng(42, 3), 8);
        let b = first_words(&mut machine_rng(42, 3), 8);
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_across_machines_and_seeds() {
        let base = first_words(&mut machine_rng(42, 0), 4);
        assert_ne!(base, first_words(&mut machine_rng(42, 1), 4));
        assert_ne!(base, first_words(&mut machine_rng(43, 0), 4));
    }

    #[test]
    fn adjacent_pairs_do_not_collide() {
        // (seed, machine) pairs that xor-mix to nearby values must still give
        // distinct streams thanks to the SplitMix64 expansion.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for machine in 0..8usize {
                let words = first_words(&mut machine_rng(seed, machine), 2);
                assert!(
                    seen.insert(words),
                    "collision at seed {seed}, machine {machine}"
                );
            }
        }
    }

    #[test]
    fn level_zero_node_streams_are_the_machine_streams() {
        for seed in [0, 42, u64::MAX] {
            for machine in [0usize, 1, 7, 1000] {
                assert_eq!(
                    first_words(&mut machine_rng(seed, machine), 4),
                    first_words(&mut node_rng(seed, 0, machine), 4)
                );
            }
        }
    }

    #[test]
    fn node_streams_differ_across_levels_and_nodes() {
        let mut seen = std::collections::HashSet::new();
        for level in 0..4usize {
            for node in 0..8usize {
                let words = first_words(&mut node_rng(9, level, node), 2);
                assert!(
                    seen.insert(words),
                    "collision at level {level}, node {node}"
                );
            }
        }
    }

    #[test]
    fn jobs_enumerate_in_order() {
        let pieces = vec!["a", "b", "c"];
        let jobs = machine_jobs(&pieces, 7);
        assert_eq!(jobs.len(), 3);
        for (expect, (i, piece, _)) in jobs.into_iter().enumerate() {
            assert_eq!(i, expect);
            assert_eq!(*piece, pieces[expect]);
        }
    }
}
