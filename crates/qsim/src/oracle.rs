//! Standard input oracles built from classical data.
//!
//! A query problem's input `x ∈ A^k` becomes a unitary in one of two
//! interchangeable forms:
//!
//! * **phase oracle** — `|i⟩ → (−1)^{f(i)}|i⟩` for boolean `f`, or
//!   `|i⟩ → e^{iφ(i)}|i⟩` in general;
//! * **XOR oracle** — `|i⟩|y⟩ → |i⟩|y ⊕ xᵢ⟩`, a basis permutation.
//!
//! Search spaces are padded to a power of two; padding indices are never
//! marked and carry value 0.

use crate::state::State;

/// The phase oracle `|i⟩ → (−1)^{f(i)}|i⟩` of a boolean `f` on a `q`-qubit
/// index register, compiled for repeated application.
///
/// The oracle of a pure predicate is a fixed diagonal `±1` matrix, so
/// [`compile`](Self::compile) evaluates the predicate once per index and
/// keeps only the sorted marked indices (`O(t)` memory for `t` marked,
/// not a `2^q` table). Applying it negates those amplitudes in every
/// `2^q` block of the state, with no predicate call; iterative drivers
/// (Grover, BBHT, amplitude amplification and estimation) compile once
/// per call and apply the result on every iteration.
#[derive(Debug, Clone)]
pub struct MarkedSet {
    q: usize,
    marked: Vec<usize>,
}

impl MarkedSet {
    /// Evaluate `marked(i)` exactly once for each index `i < k` of the
    /// `2^q` register; padding indices `k ≤ i < 2^q` are never marked.
    ///
    /// # Panics
    ///
    /// Panics if `2^q` overflows `usize`.
    pub fn compile<F: Fn(usize) -> bool>(q: usize, k: usize, marked: F) -> Self {
        assert!(q < usize::BITS as usize, "index register too wide");
        MarkedSet { q, marked: (0..k.min(1 << q)).filter(|&i| marked(i)).collect() }
    }

    /// Width of the index register.
    pub(crate) fn qubits(&self) -> usize {
        self.q
    }

    /// The marked indices, ascending.
    pub(crate) fn indices(&self) -> &[usize] {
        &self.marked
    }

    /// Whether index `i` is marked (a binary search, no predicate call).
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.marked.binary_search(&i).is_ok()
    }

    /// Apply the oracle to the `q` low-order qubits of `state`: negate the
    /// amplitude of every basis state whose low `q` bits are a marked
    /// index. Higher (ancilla) bits are ignored but preserved.
    ///
    /// # Panics
    ///
    /// Panics if `q` exceeds the state's qubit count.
    pub fn apply(&self, state: &mut State) {
        self.apply_controlled(state, 0, 0);
    }

    /// Apply the oracle to the index register on qubits
    /// `offset..offset + q`, only where every bit of `ctrl_mask` is 1.
    /// [`apply`](Self::apply) is the `offset = 0`, no-control case.
    ///
    /// # Panics
    ///
    /// Panics if the register exceeds the state, or `ctrl_mask` addresses
    /// qubits outside the state or inside the register.
    pub(crate) fn apply_controlled(&self, state: &mut State, ctrl_mask: usize, offset: usize) {
        let n = state.num_qubits();
        assert!(offset + self.q <= n, "register exceeds the state");
        let low = (1usize << offset) - 1;
        assert!(ctrl_mask >> n == 0, "control out of range");
        assert!(ctrl_mask & (((1usize << self.q) - 1) << offset) == 0, "control inside register");
        let amps = state.amplitudes_mut();
        // `rest` enumerates the bits outside the register; each value is
        // one copy of the register's 2^q block.
        for rest in 0..1usize << (n - self.q) {
            let base = (rest & low) | ((rest & !low) << self.q);
            if base & ctrl_mask != ctrl_mask {
                continue;
            }
            for &i in &self.marked {
                let a = &mut amps[base | (i << offset)];
                *a = -*a;
            }
        }
    }
}

/// Apply the phase oracle of the boolean function `marked` to the `q`
/// low-order qubits of `state`: basis states `|i⟩` with `i < k` and
/// `marked(i)` get a `−1` phase. Higher (ancilla/padding) bits are ignored
/// for the predicate but preserved. Compiles a [`MarkedSet`] and applies
/// it once; `marked` is called once for each `i < k`.
///
/// # Panics
///
/// Panics if `q` exceeds the state's qubit count.
pub fn phase_oracle<F: Fn(usize) -> bool>(state: &mut State, q: usize, k: usize, marked: F) {
    MarkedSet::compile(q, k, marked).apply(state);
}

/// Apply the XOR oracle of the data table `values`: with the index register
/// on qubits `0..q` and the target register on qubits `q..q+t`,
/// `|i⟩|y⟩ → |i⟩|y ⊕ valuesᵢ⟩` (indices `i ≥ values.len()` act as identity).
///
/// # Panics
///
/// Panics if registers exceed the state, or a value needs more than `t`
/// bits.
pub fn xor_oracle(state: &mut State, q: usize, t: usize, values: &[u64]) {
    assert!(q + t <= state.num_qubits(), "registers exceed the state");
    for &v in values {
        assert!(t == 64 || v < (1u64 << t), "value does not fit the target register");
    }
    let imask = (1usize << q) - 1;
    state.apply_permutation(|x| {
        let i = x & imask;
        if i < values.len() {
            let v = values[i] as usize;
            x ^ (v << q)
        } else {
            x
        }
    });
}

/// Number of index qubits needed for a search space of `k` items:
/// `⌈log₂ k⌉`, at least 1.
pub fn index_qubits(k: usize) -> usize {
    assert!(k >= 1);
    ((usize::BITS - (k - 1).leading_zeros()) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EPS;

    #[test]
    fn index_qubit_counts() {
        assert_eq!(index_qubits(1), 1);
        assert_eq!(index_qubits(2), 1);
        assert_eq!(index_qubits(3), 2);
        assert_eq!(index_qubits(4), 2);
        assert_eq!(index_qubits(5), 3);
        assert_eq!(index_qubits(1024), 10);
    }

    #[test]
    fn compile_marks_only_indices_below_k() {
        let hits = |o: &MarkedSet| -> Vec<usize> {
            (0..1 << o.qubits()).filter(|&i| o.contains(i)).collect()
        };
        let o = MarkedSet::compile(4, 11, |i| i % 3 == 0);
        assert_eq!(hits(&o), vec![0, 3, 6, 9]);
        // Padding indices are never marked, even by an always-true predicate.
        assert_eq!(hits(&MarkedSet::compile(3, 5, |_| true)), vec![0, 1, 2, 3, 4]);
        // k beyond the register is clamped to 2^q.
        assert_eq!(hits(&MarkedSet::compile(2, 100, |_| true)), vec![0, 1, 2, 3]);
        assert!(hits(&MarkedSet::compile(5, 32, |_| false)).is_empty());
    }

    #[test]
    fn phase_oracle_flips_marked_only() {
        let mut s = State::zero(3);
        s.h_all(0..3);
        phase_oracle(&mut s, 3, 8, |i| i == 5);
        for i in 0..8 {
            let a = s.amplitude(i);
            let want = if i == 5 { -1.0 } else { 1.0 } / 8f64.sqrt();
            assert!((a.re - want).abs() < EPS, "amp {i}");
        }
    }

    #[test]
    fn phase_oracle_ignores_padding() {
        // k = 3 in a 2-qubit register: index 3 is padding, never marked.
        let mut s = State::zero(2);
        s.h_all(0..2);
        phase_oracle(&mut s, 2, 3, |_| true);
        assert!(s.amplitude(3).re > 0.0, "padding amplitude unflipped");
        assert!(s.amplitude(0).re < 0.0);
    }

    #[test]
    fn xor_oracle_writes_value() {
        let values = [0b00u64, 0b11, 0b10, 0b01];
        let mut s = State::basis(4, 0b10); // i = 2, y = 0
        xor_oracle(&mut s, 2, 2, &values);
        // y becomes 0b10 -> basis index 0b10_10
        assert!((s.probability(0b1010) - 1.0).abs() < EPS);
    }

    #[test]
    fn xor_oracle_is_involutive() {
        let values = [3u64, 1, 2, 0];
        let mut s = State::zero(4);
        s.h_all(0..2);
        let orig = s.clone();
        xor_oracle(&mut s, 2, 2, &values);
        xor_oracle(&mut s, 2, 2, &values);
        assert!(s.fidelity(&orig) > 1.0 - EPS);
    }
}
