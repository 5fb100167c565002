//! Grover search on the statevector — exact-mode ground truth for the
//! parallel-Grover emulation of `pquery` (paper Lemma 2 builds on this).

use crate::kernels;
use crate::oracle::{index_qubits, MarkedSet};
use crate::state::State;
use rand::Rng;
use std::f64::consts::PI;

/// One Grover iterate on the `q` low-order qubits: phase oracle followed by
/// the diffusion (inversion about the uniform superposition). Compiles the
/// oracle of `marked` (one call per `i < k`) for this single iterate; the
/// drivers below compile once per search instead.
pub fn grover_iterate<F: Fn(usize) -> bool>(state: &mut State, q: usize, k: usize, marked: &F) {
    iterate(state, &MarkedSet::compile(q, k, marked));
}

/// One Grover iterate with a compiled oracle on its `q` low-order qubits.
pub(crate) fn iterate(state: &mut State, oracle: &MarkedSet) {
    oracle.apply(state);
    diffusion(state, oracle.qubits());
}

/// `j` Grover iterates with a compiled oracle on a state that is exactly
/// its index register, in `j + 1` amplitude passes
/// ([`kernels::grover_iterates`]); bit-identical to `j` calls of
/// [`iterate`].
///
/// # Panics
///
/// Panics if the state is wider or narrower than the oracle's register.
pub(crate) fn iterates(state: &mut State, oracle: &MarkedSet, j: usize) {
    let n = state.num_qubits();
    assert_eq!(n, oracle.qubits(), "the diffusion block must be the whole state");
    kernels::grover_iterates(state.amplitudes_mut(), oracle.indices(), j, kernels::auto_threads(n));
}

/// The diffusion operator `2|u⟩⟨u| − I` on the `q` low-order qubits,
/// applied in closed form: `H^{⊗q} · S₀ · H^{⊗q} = I − 2|u⟩⟨u|` is an
/// inversion about the block mean, so two amplitude passes replace the
/// `2q + 1` passes of the gate cascade. The global `−1` relating this to
/// `2|u⟩⟨u| − I` is absorbed, matching the textbook `Q = −A S₀ A† S_f`
/// convention up to global phase (irrelevant uncontrolled; the controlled
/// version in `amplitude` adds it back explicitly).
pub fn diffusion(state: &mut State, q: usize) {
    state.inversion_about_mean(q);
}

/// Success probability of measuring a marked item after `j` iterations
/// starting from uniform over `2^q` states with `t` marked:
/// `sin²((2j+1)θ)`, `sin²θ = t/2^q`.
pub fn success_probability(q: usize, t: usize, j: usize) -> f64 {
    let theta = ((t as f64) / (1usize << q) as f64).sqrt().asin();
    ((2 * j + 1) as f64 * theta).sin().powi(2)
}

/// Result of a Grover run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroverResult {
    /// A marked index, if one was found and verified.
    pub found: Option<usize>,
    /// Number of oracle queries spent (iterations plus the final
    /// verification query).
    pub queries: usize,
}

/// Grover search with *known* number of marked items `t`: runs the optimal
/// `⌊(π/4)·√(N/t)⌋` iterations once and verifies the measured index.
///
/// `marked` must be pure: it is called exactly once per index `i < k`, to
/// compile the oracle, and the iterations and the verification query read
/// the compiled [`MarkedSet`].
///
/// # Panics
///
/// Panics if `k == 0` or `t == 0`.
pub fn grover_known_count<F: Fn(usize) -> bool, R: Rng>(
    k: usize,
    t: usize,
    marked: F,
    rng: &mut R,
) -> GroverResult {
    assert!(k > 0 && t > 0);
    let q = index_qubits(k);
    let big_n = 1usize << q;
    let theta = ((t as f64) / big_n as f64).sqrt().asin();
    let j = ((PI / 4.0) / theta).floor() as usize;
    let oracle = MarkedSet::compile(q, k, marked);
    let mut s = State::uniform(q, 0..q);
    iterates(&mut s, &oracle, j);
    let out = s.sample(rng);
    GroverResult { found: oracle.contains(out).then_some(out), queries: j + 1 }
}

/// BBHT search with *unknown* number of marked items: exponentially growing
/// random iteration counts. Expected `O(√(N/t))` queries; returns `None`
/// after the cutoff if nothing was found (so "no marked item" is reported
/// with one-sided error).
///
/// `marked` must be pure: it is called exactly once per index `i < k`, to
/// compile the oracle that every restart reuses.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn grover_search<F: Fn(usize) -> bool, R: Rng>(
    k: usize,
    marked: F,
    rng: &mut R,
) -> GroverResult {
    assert!(k > 0);
    let q = index_qubits(k);
    let big_n = 1usize << q;
    let mut queries = 0usize;
    let mut m = 1.0f64;
    let lambda = 6.0 / 5.0;
    // 9·√N total iterations suffice for failure probability well below 1/3.
    let cutoff = (9.0 * (big_n as f64).sqrt()).ceil() as usize;
    let oracle = MarkedSet::compile(q, k, marked);
    while queries < cutoff {
        let j = rng.gen_range(0..(m.ceil() as usize).max(1));
        let mut s = State::uniform(q, 0..q);
        iterates(&mut s, &oracle, j);
        queries += j + 1;
        let out = s.sample(rng);
        if oracle.contains(out) {
            return GroverResult { found: Some(out), queries };
        }
        m = (m * lambda).min((big_n as f64).sqrt());
    }
    GroverResult { found: None, queries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn success_probability_peaks_at_optimal_iterations() {
        let q = 8;
        let t = 1;
        let jopt = ((PI / 4.0) * ((1 << q) as f64).sqrt()).floor() as usize;
        assert!(success_probability(q, t, jopt) > 0.99);
        assert!(success_probability(q, t, 0) < 0.01);
    }

    #[test]
    fn exact_amplitudes_follow_sine_law() {
        let q = 6;
        let k = 1 << q;
        let marked = |i: usize| i == 37;
        let mut s = State::zero(q);
        s.h_all(0..q);
        for j in 0..8 {
            // After j iterations the marked probability is sin²((2j+1)θ).
            let p = s.probability_where(|i| marked(i & (k - 1)));
            let theta = (1.0 / k as f64).sqrt().asin();
            let closed = ((2 * j + 1) as f64 * theta).sin().powi(2);
            assert!((p - closed).abs() < 1e-9, "j={j}: {p} vs {closed}");
            grover_iterate(&mut s, q, k, &marked);
        }
    }

    #[test]
    fn known_count_finds_unique_item() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0;
        for trial in 0..20 {
            let target = (trial * 13) % 100;
            let r = grover_known_count(100, 1, |i| i == target, &mut rng);
            if r.found == Some(target) {
                hits += 1;
            }
        }
        assert!(hits >= 16, "only {hits}/20 successes");
    }

    #[test]
    fn bbht_finds_with_unknown_count() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = 0;
        for trial in 0..20 {
            let t = 1 + trial % 5;
            let r = grover_search(64, |i| i < t, &mut rng);
            if r.found.is_some_and(|i| i < t) {
                hits += 1;
            }
        }
        assert!(hits >= 17, "only {hits}/20 successes");
    }

    #[test]
    fn bbht_reports_empty_without_false_positive() {
        let mut rng = StdRng::seed_from_u64(5);
        let r = grover_search(32, |_| false, &mut rng);
        assert_eq!(r.found, None);
        assert!(r.queries >= 9 * 5, "must exhaust the cutoff budget");
    }

    #[test]
    fn queries_scale_like_sqrt_n() {
        let mut rng = StdRng::seed_from_u64(17);
        let avg = |k: usize, rng: &mut StdRng| -> f64 {
            let runs = 30;
            let total: usize = (0..runs).map(|_| grover_search(k, |i| i == 0, rng).queries).sum();
            total as f64 / runs as f64
        };
        let q16 = avg(16, &mut rng);
        let q256 = avg(256, &mut rng);
        // 16× the space should be ~4× the queries; allow generous slack.
        let ratio = q256 / q16;
        assert!(ratio > 1.7 && ratio < 9.0, "ratio {ratio} (q16={q16}, q256={q256})");
    }
}
