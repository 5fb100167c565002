//! Amplitude amplification and amplitude estimation (`[BHMT02]`) — the
//! exact-mode counterparts of the paper's Lemmas 27, 28 and Corollary 30.
//!
//! The good subspace is described by a predicate on basis states of the `q`
//! low-order qubits; the preparation unitary is `A = H^{⊗q}` (uniform), so
//! the initial good amplitude is `a = t/2^q`. The amplification iterate is
//! `Q = −A S₀ A† S_f`; its eigenphases `±2θ_a` (with `a = sin²θ_a`) are what
//! amplitude estimation reads out via phase estimation.

use crate::complex::C64;
use crate::grover::{iterate, iterates};
use crate::oracle::MarkedSet;
use crate::phase_estimation::phase_estimation;
use crate::state::State;
use rand::Rng;
use std::f64::consts::PI;

/// Apply the amplification iterate `Q = −A S₀ A† S_f` (uncontrolled) to the
/// `q` low-order qubits. Compiles the oracle of `good` (one call per basis
/// value of the register) for this single iterate.
pub fn amplification_iterate<F: Fn(usize) -> bool>(state: &mut State, q: usize, good: &F) {
    // S_f, then A S₀ A† = H^{⊗q} S₀ H^{⊗q} = I − 2|u⟩⟨u| as the closed-form
    // inversion about the mean: the Grover iterate over all 2^q values.
    // Global −1: irrelevant uncontrolled; kept implicit here (see the
    // controlled variant below where it matters).
    iterate(state, &MarkedSet::compile(q, 1 << q, good));
}

/// Apply `Q^{2^j}` controlled on `control`, with the data register on
/// qubits `offset..offset+q`. The global `−1` of `Q` becomes a conditional
/// phase on the control — it must be tracked for phase estimation to read
/// the correct eigenphase. Compiles the oracle of `good` (one call per
/// basis value of the register) once for all `2^j` repetitions.
pub fn controlled_iterate_power<F: Fn(usize) -> bool>(
    state: &mut State,
    control: usize,
    q: usize,
    offset: usize,
    good: &F,
    j: u32,
) {
    controlled_power(state, control, offset, &MarkedSet::compile(q, 1 << q, good), j);
}

/// [`controlled_iterate_power`] with a compiled oracle.
fn controlled_power(state: &mut State, control: usize, offset: usize, good: &MarkedSet, j: u32) {
    let q = good.qubits();
    let reps = 1u64 << j;
    let cbit = 1usize << control;
    let h = {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        [
            [C64 { re: s, im: 0.0 }, C64 { re: s, im: 0.0 }],
            [C64 { re: s, im: 0.0 }, C64 { re: -s, im: 0.0 }],
        ]
    };
    let dmask = ((1usize << q) - 1) << offset;
    for _ in 0..reps {
        // controlled S_f
        good.apply_controlled(state, cbit, offset);
        // controlled H^{⊗q}
        for d in 0..q {
            state.apply_controlled_1q(&[control], offset + d, h);
        }
        // controlled S₀
        state.phase_flip_where(|x| x & cbit != 0 && x & dmask == 0);
        // controlled H^{⊗q}
        for d in 0..q {
            state.apply_controlled_1q(&[control], offset + d, h);
        }
        // controlled global −1
        state.phase_flip_where(|x| x & cbit != 0);
    }
}

/// Good-state probability after `j` amplification iterations starting from
/// uniform: `sin²((2j+1)θ_a)`.
pub fn amplified_probability(a: f64, j: usize) -> f64 {
    let theta = a.sqrt().asin();
    ((2 * j + 1) as f64 * theta).sin().powi(2)
}

/// Amplitude amplification driver: prepare uniform, run `j` iterates,
/// sample; repeat up to `reps` times (the `log(1/δ)` boosting of
/// Corollary 28). Returns a good index if found.
///
/// `good` must be pure: it is called exactly once per basis value of the
/// `q`-qubit register, to compile the oracle that every repetition and
/// verification reuses.
pub fn amplify_and_sample<F: Fn(usize) -> bool, R: Rng>(
    q: usize,
    good: F,
    j: usize,
    reps: usize,
    rng: &mut R,
) -> Option<usize> {
    let oracle = MarkedSet::compile(q, 1 << q, good);
    for _ in 0..reps {
        let mut s = State::uniform(q, 0..q);
        iterates(&mut s, &oracle, j);
        let out = s.sample(rng);
        if oracle.contains(out) {
            return Some(out);
        }
    }
    None
}

/// Amplitude estimation (`[BHMT02]`, used by Corollary 30): estimate
/// `a = |good ∩ [2^q]| / 2^q` with `t` counting qubits. The estimate
/// satisfies `|ã − a| ≤ 2π√(a(1−a))/2^t + π²/4^t` with probability
/// ≥ 8/π².
///
/// `good` must be pure: it is called exactly once per basis value of the
/// `q`-qubit register, to compile the oracle that every controlled power
/// reuses.
pub fn estimate_amplitude<F: Fn(usize) -> bool, R: Rng>(
    q: usize,
    good: F,
    t: usize,
    rng: &mut R,
) -> f64 {
    // Layout: counting qubits 0..t, data qubits t..t+q.
    let oracle = MarkedSet::compile(q, 1 << q, good);
    let mut s = State::uniform(t + q, t..t + q);
    let u = |state: &mut State, control: usize, j: u32| {
        controlled_power(state, control, t, &oracle, j);
    };
    let m = phase_estimation(&mut s, t, &u, rng);
    let phi = m as f64 / (1usize << t) as f64;
    // Eigenphases of Q are ±2θ_a, so φ ≈ ±θ_a/π (mod 1).
    (PI * phi).sin().powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn iterate_follows_sine_law() {
        let q = 6;
        let n = 1usize << q;
        let tgood = 3usize;
        let good = |x: usize| x < tgood;
        let a = tgood as f64 / n as f64;
        let mut s = State::zero(q);
        s.h_all(0..q);
        for j in 0..6 {
            let p = s.probability_where(|x| good(x & (n - 1)));
            assert!((p - amplified_probability(a, j)).abs() < 1e-9, "j = {j}");
            amplification_iterate(&mut s, q, &good);
        }
    }

    #[test]
    fn amplification_boosts_rare_events() {
        let q = 8;
        let good = |x: usize| x == 200;
        let a: f64 = 1.0 / 256.0;
        let jopt = ((PI / 4.0) / a.sqrt().asin()).floor() as usize;
        let mut rng = StdRng::seed_from_u64(21);
        let mut hits = 0;
        for _ in 0..10 {
            if amplify_and_sample(q, good, jopt, 2, &mut rng) == Some(200) {
                hits += 1;
            }
        }
        assert!(hits >= 9, "amplified search failed {}/10", 10 - hits);
    }

    #[test]
    fn controlled_iterate_matches_uncontrolled_when_control_set() {
        let q = 4;
        let good = |x: usize| x == 5;
        // Control = qubit 0 (set to 1), data on qubits 1..5.
        let mut ctl = State::zero(q + 1);
        ctl.x(0);
        ctl.h_all(1..q + 1);
        controlled_iterate_power(&mut ctl, 0, q, 1, &good, 0);
        let mut plain = State::zero(q);
        plain.h_all(0..q);
        amplification_iterate(&mut plain, q, &good);
        for x in 0..(1 << q) {
            let a = ctl.amplitude((x << 1) | 1);
            let b = plain.amplitude(x);
            // Controlled version includes the global −1 of Q.
            assert!((a.re + b.re).abs() < 1e-9 && (a.im + b.im).abs() < 1e-9, "x = {x}");
        }
    }

    #[test]
    fn controlled_iterate_identity_when_control_clear() {
        let q = 3;
        let good = |x: usize| x == 1;
        let mut s = State::zero(q + 1);
        s.h_all(1..q + 1);
        let before = s.clone();
        controlled_iterate_power(&mut s, 0, q, 1, &good, 2);
        assert!(s.fidelity(&before) > 1.0 - 1e-9);
    }

    #[test]
    fn amplitude_estimation_accuracy() {
        let q = 5;
        let t = 6;
        let mut rng = StdRng::seed_from_u64(33);
        for tgood in [1usize, 4, 8, 16] {
            let a = tgood as f64 / 32.0;
            let good = move |x: usize| x < tgood;
            let mut ok = 0;
            for _ in 0..15 {
                let est = estimate_amplitude(q, good, t, &mut rng);
                let tol = 2.0 * PI * (a * (1.0 - a)).sqrt() / 64.0 + PI * PI / 4096.0;
                if (est - a).abs() <= tol {
                    ok += 1;
                }
            }
            assert!(ok >= 10, "a = {a}: only {ok}/15 within BHMT tolerance");
        }
    }

    #[test]
    fn amplitude_estimation_zero_and_one() {
        let mut rng = StdRng::seed_from_u64(8);
        let est0 = estimate_amplitude(4, |_| false, 5, &mut rng);
        assert!(est0 < 0.05, "a = 0 estimated as {est0}");
        let est1 = estimate_amplitude(4, |_| true, 5, &mut rng);
        assert!(est1 > 0.95, "a = 1 estimated as {est1}");
    }
}
