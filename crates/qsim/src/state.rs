//! Dense statevector representation and elementary operations.
//!
//! The simulator stores all `2^n` amplitudes; it is intended for
//! *validation at small sizes* (`n ≤ ~22`), cross-checking the scalable
//! query-schedule emulations in the `pquery` crate against exact quantum
//! mechanics.
//!
//! Gates and reductions bottom out in the strided, optionally
//! multi-threaded loops of [`crate::kernels`]; the seed's branch-per-index
//! scans survive in [`crate::reference`] as the differential-test oracle.
//!
//! Qubit `0` is the least-significant bit of a basis-state index.

use crate::complex::{c64, C64};
use crate::kernels;
use rand::Rng;

/// Numerical tolerance for normalization checks.
pub const EPS: f64 = 1e-9;

/// A pure quantum state on `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    n: usize,
    amps: Vec<C64>,
}

impl State {
    /// The all-zeros basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 26` (memory guard).
    pub fn zero(n: usize) -> Self {
        Self::basis(n, 0)
    }

    /// The computational basis state `|idx⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 26`, or `idx >= 2^n`.
    pub fn basis(n: usize, idx: usize) -> Self {
        assert!(n > 0 && n <= 26, "statevector limited to 1..=26 qubits");
        let dim = 1usize << n;
        assert!(idx < dim, "basis index out of range");
        let mut amps = vec![C64::ZERO; dim];
        amps[idx] = C64::ONE;
        State { n, amps }
    }

    /// `H^{⊗qs}|0…0⟩` on `n` qubits: the uniform superposition over the
    /// qubits in `qs`, all others `|0⟩`. Built in one pass rather than
    /// `qs.len()` strided Hadamard passes, and bit-identical to
    /// `State::zero(n)` followed by `h_all(qs)`: each Hadamard multiplies
    /// the surviving amplitude by `1/√2` (its other terms are exact
    /// zeros), so the amplitude is that factor applied `qs.len()` times in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range (see [`basis`](Self::basis)) or `qs`
    /// is not a range of qubits of the state.
    pub fn uniform(n: usize, qs: std::ops::Range<usize>) -> Self {
        let mut s = Self::zero(n);
        assert!(qs.start <= qs.end && qs.end <= n, "qubit range out of bounds");
        let amp = qs.clone().fold(1.0, |a, _| std::f64::consts::FRAC_1_SQRT_2 * a);
        for i in 0..1usize << qs.len() {
            s.amps[i << qs.start] = c64(amp, 0.0);
        }
        s
    }

    /// A state from raw amplitudes (must be normalized).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm is not 1.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let dim = amps.len();
        assert!(dim.is_power_of_two() && dim >= 2, "length must be a power of two >= 2");
        let n = dim.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-6, "state not normalized (norm² = {norm})");
        State { n, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude of basis state `idx`.
    #[inline]
    pub fn amplitude(&self, idx: usize) -> C64 {
        self.amps[idx]
    }

    /// All amplitudes.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Mutable amplitudes, for in-crate operators that are not gates
    /// (unitarity is the caller's obligation).
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// `Σ|αᵢ|²` (should always be 1 up to rounding).
    ///
    /// Summed over fixed [`kernels::REDUCE_CHUNK`] partials, so the value
    /// is bit-identical whatever thread count the kernels pick.
    pub fn norm_sqr(&self) -> f64 {
        kernels::norm_sqr(&self.amps, kernels::auto_threads(self.n))
    }

    /// `|⟨self|other⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn fidelity(&self, other: &State) -> f64 {
        assert_eq!(self.n, other.n);
        let ip =
            self.amps.iter().zip(&other.amps).fold(C64::ZERO, |acc, (a, b)| acc + a.conj() * *b);
        ip.norm_sqr()
    }

    /// Apply a single-qubit unitary `m` (row-major `[[m00, m01], [m10, m11]]`)
    /// to qubit `q`, optionally controlled on all of `controls` being 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` or a control is out of range, or `q` appears in
    /// `controls`.
    pub fn apply_controlled_1q(&mut self, controls: &[usize], q: usize, m: [[C64; 2]; 2]) {
        assert!(q < self.n, "target out of range");
        assert!(!controls.contains(&q), "target cannot be its own control");
        for &c in controls {
            assert!(c < self.n, "control out of range");
        }
        let mask: usize = controls.iter().map(|&c| 1usize << c).sum();
        kernels::apply_controlled_1q(&mut self.amps, mask, q, m, kernels::auto_threads(self.n));
    }

    /// Apply a single-qubit unitary without controls.
    pub fn apply_1q(&mut self, q: usize, m: [[C64; 2]; 2]) {
        assert!(q < self.n, "target out of range");
        kernels::apply_1q(&mut self.amps, q, m, kernels::auto_threads(self.n));
    }

    /// [`apply_controlled_1q`](Self::apply_controlled_1q) with the control
    /// set given as a bit mask — one fused `Matrix` group as a whole-state
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if `q` or a mask bit is out of range, or the mask contains
    /// the target.
    pub fn apply_masked_1q(&mut self, ctrl_mask: usize, q: usize, m: [[C64; 2]; 2]) {
        assert!(q < self.n, "target out of range");
        assert!(ctrl_mask >> self.n == 0, "control out of range");
        assert!(ctrl_mask & (1 << q) == 0, "target cannot be its own control");
        kernels::apply_controlled_1q(
            &mut self.amps,
            ctrl_mask,
            q,
            m,
            kernels::auto_threads(self.n),
        );
    }

    /// Apply a fused run of diagonal gates in one amplitude sweep (see
    /// [`kernels::apply_diag`]).
    ///
    /// # Panics
    ///
    /// Panics if a term's mask addresses qubits outside the state.
    pub fn apply_diag_terms(&mut self, terms: &[kernels::DiagTerm]) {
        for t in terms {
            assert!(t.mask >> self.n == 0, "diagonal term out of range");
        }
        kernels::apply_diag(&mut self.amps, terms, kernels::auto_threads(self.n));
    }

    /// Multiply the amplitude of every basis state `x` by `e^{i·f(x)}` — an
    /// arbitrary diagonal unitary. Phase oracles are the `f(x) ∈ {0, π}`
    /// case.
    pub fn apply_phase_fn<F: Fn(usize) -> f64>(&mut self, f: F) {
        for (x, a) in self.amps.iter_mut().enumerate() {
            let phi = f(x);
            if phi != 0.0 {
                *a = *a * C64::from_polar(1.0, phi);
            }
        }
    }

    /// Negate the amplitude of every basis state selected by `pred` — the
    /// `f(x) ∈ {0, π}` special case of [`apply_phase_fn`](Self::apply_phase_fn)
    /// without any trigonometry. This is the phase-oracle hot path of
    /// Grover search.
    pub fn phase_flip_where<F: Fn(usize) -> bool + Sync>(&mut self, pred: F) {
        kernels::phase_flip_where(&mut self.amps, pred, kernels::auto_threads(self.n));
    }

    /// Invert every contiguous `2^q` block of amplitudes about its mean:
    /// the diffusion `I − 2|u⟩⟨u|` over the `q` low qubits, in two memory
    /// passes instead of the `2q + 1` passes of the `H^{⊗q} · S₀ · H^{⊗q}`
    /// gate cascade (see [`kernels::inversion_about_mean`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` exceeds the number of qubits.
    pub fn inversion_about_mean(&mut self, q: usize) {
        assert!(q <= self.n, "qubit range out of bounds");
        kernels::inversion_about_mean(&mut self.amps, q, kernels::auto_threads(self.n));
    }

    /// Apply the basis permutation `|x⟩ → |π(x)⟩`.
    ///
    /// One scratch vector is allocated per call (the occupancy check that
    /// used to cost a second `2^n` allocation now runs only in debug
    /// builds).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `π` is not a permutation.
    pub fn apply_permutation<F: Fn(usize) -> usize>(&mut self, pi: F) {
        let dim = self.amps.len();
        #[cfg(debug_assertions)]
        let mut hit = vec![false; dim];
        let mut out = vec![C64::ZERO; dim];
        for (x, &a) in self.amps.iter().enumerate() {
            let y = pi(x);
            debug_assert!(y < dim, "permutation image out of range");
            #[cfg(debug_assertions)]
            {
                debug_assert!(!hit[y], "not a permutation: image {y} repeated");
                hit[y] = true;
            }
            out[y] = a;
        }
        self.amps = out;
    }

    /// Probability that measuring all qubits yields basis state `idx`.
    #[inline]
    pub fn probability(&self, idx: usize) -> f64 {
        self.amps[idx].norm_sqr()
    }

    /// Probability that qubit `q` measures to 1: a strided sum over the
    /// upper half of every `2^{q+1}` block, no per-index bit test.
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n, "qubit out of range");
        kernels::prob_one(&self.amps, q, kernels::auto_threads(self.n))
    }

    /// Total probability of the basis states selected by `pred`.
    pub fn probability_where<F: Fn(usize) -> bool>(&self, pred: F) -> f64 {
        self.amps.iter().enumerate().filter(|(i, _)| pred(*i)).map(|(_, a)| a.norm_sqr()).sum()
    }

    /// Build a reusable measurement sampler: the cumulative-probability
    /// table costs one `O(2^n)` pass, after which every
    /// [`draw`](Sampler::draw) is an `O(n)` binary search. Outcomes (and
    /// the RNG stream) are identical to the seed's linear scan.
    pub fn sampler(&self) -> Sampler {
        let mut cum = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0f64;
        for a in &self.amps {
            acc += a.norm_sqr();
            cum.push(acc);
        }
        Sampler { cum }
    }

    /// Sample a full measurement of all qubits (the state is *not*
    /// collapsed; callers that need post-measurement states use
    /// [`collapse`](Self::collapse)). For repeated draws from the same
    /// state, build one [`sampler`](Self::sampler) and reuse it.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.sampler().draw(rng)
    }

    /// Measure all qubits: sample an outcome and collapse onto it.
    pub fn measure_all<R: Rng>(&mut self, rng: &mut R) -> usize {
        let out = self.sample(rng);
        self.amps.fill(C64::ZERO);
        self.amps[out] = C64::ONE;
        out
    }

    /// Collapse onto the subspace where `pred(basis index)` holds,
    /// renormalizing. Returns the pre-collapse probability of the subspace.
    ///
    /// # Panics
    ///
    /// Panics if the subspace probability is (numerically) zero.
    pub fn collapse<F: Fn(usize) -> bool>(&mut self, pred: F) -> f64 {
        let p = self.probability_where(&pred);
        assert!(p > EPS, "collapsing onto a zero-probability subspace");
        let s = 1.0 / p.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = if pred(i) { a.scale(s) } else { C64::ZERO };
        }
        p
    }

    // ---- Named gates ----

    /// Hadamard on qubit `q`.
    pub fn h(&mut self, q: usize) {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        self.apply_1q(q, [[c64(s, 0.0), c64(s, 0.0)], [c64(s, 0.0), c64(-s, 0.0)]]);
    }

    /// Hadamard on every qubit in `qs`.
    pub fn h_all(&mut self, qs: impl IntoIterator<Item = usize>) {
        for q in qs {
            self.h(q);
        }
    }

    /// Pauli X on qubit `q`.
    pub fn x(&mut self, q: usize) {
        self.apply_1q(q, [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
    }

    /// Pauli Z on qubit `q`.
    pub fn z(&mut self, q: usize) {
        self.apply_1q(q, [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]);
    }

    /// Phase gate `diag(1, e^{iθ})` on qubit `q`.
    pub fn phase(&mut self, q: usize, theta: f64) {
        self.apply_1q(q, [[C64::ONE, C64::ZERO], [C64::ZERO, C64::from_polar(1.0, theta)]]);
    }

    /// CNOT with control `c` and target `t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.apply_controlled_1q(&[c], t, [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
    }

    /// Controlled-phase `diag(1, 1, 1, e^{iθ})` on qubits `c`, `t`.
    pub fn cphase(&mut self, c: usize, t: usize, theta: f64) {
        self.apply_controlled_1q(
            &[c],
            t,
            [[C64::ONE, C64::ZERO], [C64::ZERO, C64::from_polar(1.0, theta)]],
        );
    }

    /// Multi-controlled X (Toffoli family).
    pub fn mcx(&mut self, controls: &[usize], t: usize) {
        self.apply_controlled_1q(controls, t, [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
    }

    /// Multi-controlled Z.
    pub fn mcz(&mut self, controls: &[usize], t: usize) {
        self.apply_controlled_1q(controls, t, [[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]);
    }

    /// Swap qubits `a` and `b` in one in-place pass (see
    /// [`kernels::apply_swaps`]).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "qubit out of range");
        if a == b {
            return;
        }
        kernels::apply_swaps(&mut self.amps, &[(a, b)], kernels::auto_threads(self.n));
    }
}

/// A cumulative-probability table over a state's basis outcomes, built by
/// [`State::sampler`]. Each [`draw`](Self::draw) consumes one `f64` from
/// the RNG and binary-searches the table — `O(log 2^n) = O(n)` per draw
/// after the `O(2^n)` setup, with outcomes bit-identical to the seed's
/// linear prefix scan (the table holds the very same running sums).
#[derive(Debug, Clone)]
pub struct Sampler {
    cum: Vec<f64>,
}

impl Sampler {
    /// Draw one full-measurement outcome.
    pub fn draw<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cum.last().expect("state is never empty");
        let r: f64 = rng.gen::<f64>() * total;
        // First index whose running sum exceeds r; the clamp covers the
        // rounding tail exactly like the seed's fall-through return.
        self.cum.partition_point(|&c| c <= r).min(self.cum.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state() {
        let s = State::zero(3);
        assert_eq!(s.num_qubits(), 3);
        assert!((s.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_uniform() {
        let mut s = State::zero(3);
        s.h_all(0..3);
        for i in 0..8 {
            assert!((s.probability(i) - 0.125).abs() < EPS);
        }
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn hh_is_identity() {
        let mut s = State::basis(2, 3);
        s.h(0);
        s.h(1);
        s.h(0);
        s.h(1);
        assert!((s.probability(3) - 1.0).abs() < EPS);
    }

    #[test]
    fn x_flips() {
        let mut s = State::zero(2);
        s.x(1);
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn cnot_entangles() {
        let mut s = State::zero(2);
        s.h(0);
        s.cnot(0, 1);
        assert!((s.probability(0b00) - 0.5).abs() < EPS);
        assert!((s.probability(0b11) - 0.5).abs() < EPS);
        assert!(s.probability(0b01) < EPS);
        assert!(s.probability(0b10) < EPS);
    }

    #[test]
    fn mcx_needs_all_controls() {
        let mut s = State::basis(3, 0b011);
        s.mcx(&[0, 1], 2);
        assert!((s.probability(0b111) - 1.0).abs() < EPS);
        let mut s = State::basis(3, 0b001);
        s.mcx(&[0, 1], 2);
        assert!((s.probability(0b001) - 1.0).abs() < EPS);
    }

    #[test]
    fn swap_works() {
        let mut s = State::basis(2, 0b01);
        s.swap(0, 1);
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn phase_fn_is_diagonal() {
        let mut s = State::zero(2);
        s.h_all(0..2);
        let before: Vec<f64> = (0..4).map(|i| s.probability(i)).collect();
        s.apply_phase_fn(|x| if x == 2 { std::f64::consts::PI } else { 0.0 });
        let after: Vec<f64> = (0..4).map(|i| s.probability(i)).collect();
        assert_eq!(before, after, "phases do not change probabilities");
        assert!((s.amplitude(2).re + 0.5).abs() < EPS, "sign flipped on |10⟩");
    }

    #[test]
    fn permutation_moves_amplitudes() {
        let mut s = State::basis(2, 1);
        s.apply_permutation(|x| (x + 1) % 4);
        assert!((s.probability(2) - 1.0).abs() < EPS);
    }

    #[test]
    fn sampling_follows_distribution() {
        let mut s = State::zero(1);
        s.h(0);
        let mut rng = StdRng::seed_from_u64(1);
        let ones: usize = (0..2000).map(|_| s.sample(&mut rng)).sum();
        assert!((800..1200).contains(&ones), "got {ones} ones out of 2000");
    }

    #[test]
    fn measure_collapses() {
        let mut s = State::zero(1);
        s.h(0);
        let mut rng = StdRng::seed_from_u64(7);
        let out = s.measure_all(&mut rng);
        assert!((s.probability(out) - 1.0).abs() < EPS);
    }

    #[test]
    fn collapse_renormalizes() {
        let mut s = State::zero(2);
        s.h_all(0..2);
        let p = s.collapse(|i| i & 1 == 1);
        assert!((p - 0.5).abs() < EPS);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
        assert!(s.probability(0) < EPS);
    }

    #[test]
    fn fidelity_of_orthogonal_states() {
        let a = State::basis(2, 0);
        let b = State::basis(2, 3);
        assert!(a.fidelity(&b) < EPS);
        assert!((a.fidelity(&a) - 1.0).abs() < EPS);
    }

    #[test]
    fn unitarity_preserved_by_random_circuit() {
        let mut s = State::zero(4);
        for i in 0..4 {
            s.h(i);
        }
        s.cnot(0, 1);
        s.cphase(1, 2, 0.7);
        s.mcz(&[0, 1, 2], 3);
        s.phase(3, 1.1);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }
}
