//! The quantum Fourier transform, used by phase estimation (paper §6).
//!
//! The transforms are built as [`Circuit`] tapes and applied through the
//! gate-fusion pass ([`Circuit::fuse`]): each Hadamard's trailing run of
//! controlled phases collapses into a single diagonal sweep, and the
//! bit-reversal swaps collapse into one swap group. The fused tape runs as
//! a stage plan (see [`FusedCircuit::apply`](crate::circuit::FusedCircuit::apply)):
//! the Hadamards and sweeps run tile by tile, one pass per two high qubits
//! (qubits `≥ 12`, at least one pass), and the swaps take one more. A QFT
//! on qubits `0..n` with `n ≥ 2` therefore makes `max(1, ⌈(n − 12)/2⌉) + 1`
//! amplitude passes, five at `n = 20`, instead of one per gate or group.

use crate::circuit::Circuit;
use crate::state::State;
use std::f64::consts::PI;

/// The QFT on the given qubits as a reusable gate tape (`qubits[0]` is the
/// least-significant bit of the transformed register).
///
/// # Panics
///
/// Panics if a qubit repeats.
pub fn qft_circuit(qubits: &[usize]) -> Circuit {
    check_distinct(qubits);
    let n = qubits.len();
    let mut c = Circuit::new(qubits.iter().max().map_or(0, |&m| m + 1));
    // Standard circuit on a big-endian ordering, then reverse with swaps.
    for i in (0..n).rev() {
        c.h(qubits[i]);
        for j in (0..i).rev() {
            let theta = PI / (1 << (i - j)) as f64;
            c.cphase(qubits[j], qubits[i], theta);
        }
    }
    push_reversal_swaps(&mut c, qubits);
    c
}

/// The inverse QFT on the given qubits as a reusable gate tape.
///
/// # Panics
///
/// Panics if a qubit repeats.
pub fn iqft_circuit(qubits: &[usize]) -> Circuit {
    check_distinct(qubits);
    let n = qubits.len();
    let mut c = Circuit::new(qubits.iter().max().map_or(0, |&m| m + 1));
    push_reversal_swaps(&mut c, qubits);
    for i in 0..n {
        for j in 0..i {
            let theta = -PI / (1 << (i - j)) as f64;
            c.cphase(qubits[j], qubits[i], theta);
        }
        c.h(qubits[i]);
    }
    c
}

/// Append the bit-reversal permutation as CNOT-decomposed swaps.
fn push_reversal_swaps(c: &mut Circuit, qubits: &[usize]) {
    let n = qubits.len();
    for i in 0..n / 2 {
        let (a, b) = (qubits[i], qubits[n - 1 - i]);
        if a != b {
            c.cnot(a, b).cnot(b, a).cnot(a, b);
        }
    }
}

/// Apply the QFT to `qubits` (treated as little-endian: `qubits[0]` is the
/// least-significant bit of the transformed register).
///
/// # Panics
///
/// Panics if a qubit repeats or is out of range.
pub fn qft(state: &mut State, qubits: &[usize]) {
    check(state, qubits);
    qft_circuit(qubits).apply_fused(state);
}

/// Apply the inverse QFT to `qubits`.
///
/// # Panics
///
/// Panics if a qubit repeats or is out of range.
pub fn iqft(state: &mut State, qubits: &[usize]) {
    check(state, qubits);
    iqft_circuit(qubits).apply_fused(state);
}

fn check_distinct(qubits: &[usize]) {
    for (i, &q) in qubits.iter().enumerate() {
        assert!(!qubits[..i].contains(&q), "repeated qubit");
    }
}

fn check(state: &State, qubits: &[usize]) {
    for (i, &q) in qubits.iter().enumerate() {
        assert!(q < state.num_qubits(), "qubit out of range");
        assert!(!qubits[..i].contains(&q), "repeated qubit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;
    use crate::state::EPS;

    #[test]
    fn qft_of_zero_is_uniform() {
        let mut s = State::zero(3);
        qft(&mut s, &[0, 1, 2]);
        for i in 0..8 {
            assert!((s.probability(i) - 0.125).abs() < EPS);
        }
    }

    #[test]
    fn qft_iqft_roundtrip() {
        for idx in 0..8 {
            let mut s = State::basis(3, idx);
            qft(&mut s, &[0, 1, 2]);
            iqft(&mut s, &[0, 1, 2]);
            assert!((s.probability(idx) - 1.0).abs() < EPS, "basis {idx}");
        }
    }

    #[test]
    fn qft_matches_dft_matrix() {
        // QFT|x⟩ = (1/√N) Σ_y e^{2πi x y / N} |y⟩.
        let n = 3usize;
        let dim = 1usize << n;
        for x in 0..dim {
            let mut s = State::basis(n, x);
            qft(&mut s, &[0, 1, 2]);
            for y in 0..dim {
                let want = C64::from_polar(
                    1.0 / (dim as f64).sqrt(),
                    2.0 * PI * (x * y) as f64 / dim as f64,
                );
                let got = s.amplitude(y);
                assert!(
                    (got.re - want.re).abs() < 1e-9 && (got.im - want.im).abs() < 1e-9,
                    "x={x} y={y}: got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn qft_on_subset_of_qubits() {
        // QFT on qubits {1, 2} of a 3-qubit state leaves qubit 0 alone.
        let mut s = State::basis(3, 0b001);
        qft(&mut s, &[1, 2]);
        assert!((s.prob_one(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn circuit_form_matches_gatewise_form() {
        // The fused tape must agree with gate-by-gate application of the
        // same ops (the seed's formulation).
        for idx in 0..16 {
            let mut fused = State::basis(4, idx);
            qft(&mut fused, &[0, 1, 2, 3]);
            let mut plain = State::basis(4, idx);
            qft_circuit(&[0, 1, 2, 3]).apply(&mut plain);
            assert!(fused.fidelity(&plain) > 1.0 - 1e-12, "basis {idx}");
        }
    }

    #[test]
    fn fused_qft_collapses_phase_runs() {
        // 6 qubits: 6 H + 15 CPhase + 9 swap-CNOTs = 30 gates; fused:
        // every H is one matrix, each inter-H phase run is one sweep, and
        // the 3 disjoint swap triples become one swap group → 6 + 5 + 1 =
        // 12 groups.
        let c = qft_circuit(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(c.len(), 30);
        assert_eq!(c.fuse().len(), 12);
    }
}
