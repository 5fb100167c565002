//! The fused-tape executor ([`FusedCircuit::apply`]) against a test-local
//! reference that applies the same fused groups one whole-state pass at a
//! time (`apply_masked_1q` / `apply_diag_terms`, and each swap as its
//! three CNOT passes).
//!
//! The executor runs diagonal sweeps and uncontrolled matrices tile by
//! tile and swap groups as one permutation pass; it must not change a
//! single result bit:
//!
//! * dense random states (no zero amplitudes) match bit for bit
//!   (`to_bits`);
//! * sparse and basis states match under `==`: three X-matrix passes turn
//!   a `-0.0` into `+0.0`, while the swap pass moves it unchanged.
//!
//! Every case runs at 1, 2 and 4 threads.

use qsim::circuit::{Circuit, FusedCircuit, FusedOp};
use qsim::complex::{c64, C64};
use qsim::qft::{iqft_circuit, qft_circuit};
use qsim::state::State;

const THREADS: [usize; 3] = [1, 2, 4];
const X: [[C64; 2]; 2] = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];

/// The per-group executor the stage plan replaced.
fn apply_per_group(fused: &FusedCircuit, state: &mut State) {
    for op in fused.ops() {
        match op {
            FusedOp::Matrix { ctrl_mask, q, m } => state.apply_masked_1q(*ctrl_mask, *q, *m),
            FusedOp::Diagonal(terms) => state.apply_diag_terms(terms),
            FusedOp::Swap(pairs) => {
                for &(a, b) in pairs {
                    state.apply_masked_1q(1 << a, b, X);
                    state.apply_masked_1q(1 << b, a, X);
                    state.apply_masked_1q(1 << a, b, X);
                }
            }
        }
    }
}

/// A deterministic pseudo-random generator (64-bit LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

/// A normalized state with no zero amplitude.
fn dense(n: usize, seed: u64) -> State {
    let mut rng = Lcg(seed);
    let amps: Vec<C64> =
        (0..1usize << n).map(|_| c64(rng.unit() - 0.5 + 1e-3, rng.unit() - 0.5 + 1e-3)).collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    State::from_amplitudes(amps.into_iter().map(|a| a.scale(1.0 / norm)).collect())
}

/// A state with exact (and signed) zeros: Hadamards on a few qubits of a
/// basis state, then a Z to put `-0.0`s next to the nonzero amplitudes.
fn sparse(n: usize, seed: u64) -> State {
    let mut rng = Lcg(seed);
    let mut s = State::basis(n, rng.below(1 << n));
    for _ in 0..3 {
        s.h(rng.below(n));
    }
    s.z(rng.below(n));
    s
}

/// A random tape over every gate kind. Targets are drawn from `qubits`;
/// swap triples are mixed with lone `Cnot(a,b) Cnot(b,a)` pairs.
fn random_tape(n: usize, qubits: &[usize], len: usize, seed: u64) -> Circuit {
    let mut rng = Lcg(seed);
    let mut c = Circuit::new(n);
    let pick = |rng: &mut Lcg| qubits[rng.below(qubits.len())];
    let two = |rng: &mut Lcg| loop {
        let (a, b) = (pick(rng), pick(rng));
        if a != b {
            return (a, b);
        }
    };
    for _ in 0..len {
        let theta = rng.unit() * 6.0 - 3.0;
        match rng.below(11) {
            0 | 1 => {
                c.h(pick(&mut rng));
            }
            2 => {
                c.x(pick(&mut rng));
            }
            3 => {
                c.phase(pick(&mut rng), theta);
            }
            4 => {
                let (a, b) = two(&mut rng);
                c.cphase(a, b, theta);
            }
            5 => {
                let (a, b) = two(&mut rng);
                c.mcz(vec![a], b).global_phase(theta);
            }
            6 => {
                let (a, b) = two(&mut rng);
                c.cnot(a, b);
            }
            7 => {
                let (a, b) = two(&mut rng);
                c.cnot(a, b).cnot(b, a);
            }
            8 | 9 => {
                let (a, b) = two(&mut rng);
                c.cnot(a, b).cnot(b, a).cnot(a, b);
            }
            _ if qubits.len() >= 3 => {
                let (a, b) = two(&mut rng);
                let t = pick(&mut rng);
                if t != a && t != b {
                    c.mcx(vec![a, b], t);
                }
            }
            _ => {}
        }
    }
    c
}

fn bits(s: &State) -> Vec<(u64, u64)> {
    s.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
}

/// Run `tape` through both executors on a dense and a sparse state.
fn check(tape: &Circuit, n: usize, label: &str) {
    let fused = tape.fuse();
    let seed = (n * 131 + tape.len()) as u64;
    let dense_in = dense(n, seed);
    let mut dense_ref = dense_in.clone();
    apply_per_group(&fused, &mut dense_ref);
    let sparse_in = sparse(n, seed);
    let mut sparse_ref = sparse_in.clone();
    apply_per_group(&fused, &mut sparse_ref);
    for threads in THREADS {
        let mut s = dense_in.clone();
        fused.apply_with_threads(&mut s, threads);
        assert!(bits(&s) == bits(&dense_ref), "{label}: dense, n={n}, {threads} threads");
        let mut s = sparse_in.clone();
        fused.apply_with_threads(&mut s, threads);
        assert!(s == sparse_ref, "{label}: sparse, n={n}, {threads} threads");
    }
}

#[test]
fn qft_tapes_match_per_group() {
    for n in [3usize, 11, 12, 13, 15] {
        let all: Vec<usize> = (0..n).collect();
        check(&qft_circuit(&all), n, "qft");
        check(&iqft_circuit(&all), n, "iqft");
    }
}

#[test]
fn register_tapes_on_wider_states() {
    for n in [11usize, 13, 15] {
        let t = n / 2 + 1;
        // QPE layout: the counting register is the low `t` qubits.
        let low: Vec<usize> = (0..t).collect();
        check(&iqft_circuit(&low), n, "iqft on low qubits");
        // A register on the high qubits, listed out of order.
        let high: Vec<usize> = (n - t..n).rev().collect();
        check(&qft_circuit(&high), n, "qft on high qubits");
    }
}

#[test]
fn mixed_tapes_with_controls_and_swaps() {
    for (i, n) in [3usize, 11, 12, 13, 15].into_iter().enumerate() {
        let all: Vec<usize> = (0..n).collect();
        check(&random_tape(n, &all, 48, 7 + i as u64), n, "mixed");
    }
    // Mostly high targets: stages split once more than two high qubits
    // show up.
    for n in [13usize, 15] {
        let mut qubits: Vec<usize> = (12..n).collect();
        qubits.extend([0, 5, 11]);
        check(&random_tape(n, &qubits, 40, 99 + n as u64), n, "high targets");
    }
}

#[test]
fn swap_groups_move_amplitudes_exactly() {
    // Disjoint swaps straddling the tile boundary, as one group, next to a
    // lone CNOT pair; the swap pass moves values unchanged.
    const PAIRS: [(usize, usize); 3] = [(0, 13), (5, 12), (11, 2)];
    let n = 14;
    let mut swaps = Circuit::new(n);
    for (a, b) in PAIRS {
        swaps.cnot(a, b).cnot(b, a).cnot(a, b);
    }
    let fused = swaps.fuse();
    assert_eq!(fused.ops(), &[FusedOp::Swap(PAIRS.to_vec())]);
    let mut with_pair = swaps.clone();
    with_pair.cnot(3, 4).cnot(4, 3);
    check(&with_pair, n, "swap group");

    let input = dense(n, 5);
    let mut s = input.clone();
    fused.apply(&mut s);
    let moved = |x: usize| {
        PAIRS.iter().fold(x, |y, &(a, b)| {
            let d = ((x >> a) ^ (x >> b)) & 1;
            y ^ ((d << a) | (d << b))
        })
    };
    for x in 0..1usize << n {
        let (got, want) = (s.amplitude(moved(x)), input.amplitude(x));
        assert!(got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits());
    }
}

#[test]
fn state_swap_is_one_pass_and_exact() {
    let n = 12;
    let input = dense(n, 17);
    for (a, b) in [(0, 11), (3, 4), (7, 1)] {
        let mut fast = input.clone();
        fast.swap(a, b);
        let mut cnots = input.clone();
        cnots.cnot(a, b);
        cnots.cnot(b, a);
        cnots.cnot(a, b);
        assert!(bits(&fast) == bits(&cnots), "swap({a}, {b})");
    }
}
