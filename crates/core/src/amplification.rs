//! Distributed amplitude amplification (paper §6, Lemmas 27–28).
//!
//! The amplification iterate for a state prepared by an `R_ψ`-round
//! distributed subroutine costs `O(R_ψ + D)` rounds: the "good" reflection
//! is a local `Z` at the flag-holding node, and the reflection through
//! `|ψ⟩` needs `U_ψ†`, a distributed **all-zero check** (each node checks
//! its local registers, an AND convergecasts to the leader, the leader
//! applies `Z`, everything uncomputes), and `U_ψ` again.
//!
//! Here the subroutine is concrete: the leader draws a fresh seed and
//! broadcasts it down the tree (a *measured* `O(D + |seed|/log n)` phase);
//! all nodes then locally sample shares of a search-space element, which is
//! "good" with a known probability `p`. Each amplification iterate runs the
//! subroutine and a *measured* AND-convergecast; the iterate count follows
//! Corollary 28 (`O((1/√p)·log(1/δ))`), and the final measurement outcome
//! is sampled from the amplified distribution `sin²((2j+1)θ)` — the same
//! law the statevector tests of `qsim::amplitude` verify exactly.

use congest::aggregate::{aggregate_batch, CommOp};
use congest::bfs::{build_bfs_tree, elect_leader, BfsTree};
use congest::runtime::{Network, RoundLedger, RuntimeError};
use congest::tree_comm::{distribute_register, Register, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A distributed state-preparation subroutine: broadcasting `seed_bits` of
/// fresh randomness and locally sampling, with success (good-flag)
/// probability `p_good`.
#[derive(Debug, Clone, Copy)]
pub struct PreparationSubroutine {
    /// Qubits of shared randomness per preparation.
    pub seed_bits: u64,
    /// Probability that a preparation lands in the good subspace.
    pub p_good: f64,
}

impl PreparationSubroutine {
    /// A subroutine with the given good probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p_good <= 1`.
    pub fn new(seed_bits: u64, p_good: f64) -> Self {
        assert!(p_good > 0.0 && p_good <= 1.0);
        assert!(seed_bits >= 1);
        PreparationSubroutine { seed_bits, p_good }
    }
}

/// Result of a distributed amplitude amplification.
#[derive(Debug, Clone)]
pub struct AmplificationResult {
    /// Whether a good outcome was obtained.
    pub success: bool,
    /// Amplification iterates applied (over all boosting repetitions).
    pub iterates: usize,
    /// Measured rounds.
    pub rounds: usize,
    /// The full phase ledger.
    pub ledger: RoundLedger,
}

/// One measured amplification-iterate's network work: a preparation
/// (seed broadcast) and the all-zero AND-convergecast of the `|ψ⟩`
/// reflection (Lemma 27).
fn iterate_cost(
    net: &Network<'_>,
    tree: &BfsTree,
    sub: &PreparationSubroutine,
    rng: &mut StdRng,
    ledger: &mut RoundLedger,
) -> Result<(), RuntimeError> {
    // U_ψ: broadcast fresh seed (the preparation's communication).
    let seed_val: u64 = rng.gen::<u64>() & ((1u64 << sub.seed_bits.min(63)) - 1).max(1);
    let reg = Register::from_value(sub.seed_bits, seed_val & mask(sub.seed_bits));
    let (_copies, stats) = distribute_register(net, &tree.views, reg, Schedule::Pipelined)?;
    ledger.record("iterate/prepare-broadcast", stats);
    // Reflection through |ψ⟩: local all-zero checks AND-converge to the
    // leader (one 1-bit value per node).
    let ones: Vec<Vec<u64>> = vec![vec![1u64]; net.graph().n()];
    let agg = aggregate_batch(net, &tree.views, ones, 1, CommOp::And)?;
    ledger.record("iterate/zero-check-and", agg.stats);
    debug_assert_eq!(agg.values[0], 1);
    Ok(())
}

fn mask(bits: u64) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Distributed amplitude amplification (Corollary 28): boost the
/// subroutine's success probability to `1 − δ` in
/// `O((R_ψ + D)·(1/√p)·log(1/δ))` measured rounds.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
///
/// # Panics
///
/// Panics unless `0 < delta < 1`.
pub fn amplitude_amplification(
    net: &Network<'_>,
    sub: PreparationSubroutine,
    delta: f64,
    seed: u64,
) -> Result<AmplificationResult, RuntimeError> {
    assert!(delta > 0.0 && delta < 1.0);
    let mut ledger = RoundLedger::new();
    let mut rng = StdRng::seed_from_u64(seed);

    let (leader, stats) = elect_leader(net, seed)?;
    ledger.record("setup/leader-election", stats);
    let tree = build_bfs_tree(net, leader)?;
    ledger.record("setup/bfs-tree", tree.stats);

    let theta = sub.p_good.sqrt().min(1.0).asin();
    let j_opt = ((std::f64::consts::FRAC_PI_4) / theta).floor().max(0.0) as usize;
    let reps = (1.0 / delta).ln().max(1.0).ceil() as usize;

    let mut iterates = 0usize;
    let mut success = false;
    for _ in 0..reps {
        for _ in 0..j_opt {
            iterate_cost(net, &tree, &sub, &mut rng, &mut ledger)?;
            iterates += 1;
        }
        // Final preparation + measurement; outcome follows the sine law.
        iterate_cost(net, &tree, &sub, &mut rng, &mut ledger)?;
        iterates += 1;
        let p_amp = (((2 * j_opt + 1) as f64) * theta).sin().powi(2);
        // Verified good-check: one more AND/OR convergecast round (already
        // part of the iterate cost above).
        if rng.gen_bool(p_amp.clamp(0.0, 1.0)) {
            success = true;
            break;
        }
    }
    let rounds = ledger.total_rounds();
    Ok(AmplificationResult { success, iterates, rounds, ledger })
}

/// Lemma 28's round bound: `O((R_ψ + D)·(1/√p)·log(1/δ))`.
pub fn amplification_upper_bound(r_psi: usize, d: usize, p: f64, delta: f64) -> f64 {
    (r_psi + d) as f64 / p.sqrt() * (1.0 / delta).ln().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::generators::{grid, path};

    #[test]
    fn amplification_succeeds_whp() {
        let g = grid(4, 4);
        let net = Network::new(&g);
        let sub = PreparationSubroutine::new(16, 0.02);
        let mut ok = 0;
        for seed in 0..10 {
            let res = amplitude_amplification(&net, sub, 0.05, seed).unwrap();
            if res.success {
                ok += 1;
            }
        }
        assert!(ok >= 9, "{ok}/10 with δ = 0.05");
    }

    #[test]
    fn iterates_scale_inverse_sqrt_p() {
        let g = path(8);
        let net = Network::new(&g);
        let runs = |p: f64| -> f64 {
            let mut total = 0usize;
            for seed in 0..6 {
                total += amplitude_amplification(&net, PreparationSubroutine::new(8, p), 0.2, seed)
                    .unwrap()
                    .iterates;
            }
            total as f64 / 6.0
        };
        let i_small = runs(0.004);
        let i_large = runs(0.16);
        assert!(
            i_small / i_large > 3.0,
            "p × 40 should shrink iterates ~√40: {i_small} vs {i_large}"
        );
    }

    #[test]
    fn rounds_scale_with_diameter() {
        let sub = PreparationSubroutine::new(8, 0.1);
        let g1 = path(6);
        let n1 = Network::new(&g1);
        let r1 = amplitude_amplification(&n1, sub, 0.2, 1).unwrap();
        let g2 = path(48);
        let n2 = Network::new(&g2);
        let r2 = amplitude_amplification(&n2, sub, 0.2, 1).unwrap();
        assert!(
            r2.rounds > r1.rounds,
            "bigger D must cost more rounds: {} vs {}",
            r1.rounds,
            r2.rounds
        );
    }

    #[test]
    fn certain_subroutine_one_iterate() {
        let g = path(4);
        let net = Network::new(&g);
        let res =
            amplitude_amplification(&net, PreparationSubroutine::new(4, 1.0), 0.1, 3).unwrap();
        assert!(res.success);
        assert_eq!(res.iterates, 1, "p = 1 needs zero amplification");
    }
}
