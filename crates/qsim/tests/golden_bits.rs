//! Raw-bit goldens for the statevector kernels.
//!
//! Each case hashes the exact IEEE bits (`to_bits`) of a result with
//! 64-bit FNV-1a and compares the hash with a value pinned in this file.
//! The pinned values were produced by the strided kernels before their
//! cache-local rework, so any change to the arithmetic of a single
//! amplitude — a different operation order, a merged factor, a lost signed
//! zero — shows up here, even where a tolerance-based test would pass.
//!
//! Cases:
//!
//! * the fused QFT, inverse QFT and round trip on dense seeded states with
//!   planted `+0.0`/`-0.0` components, at 1, 2 and 4 threads;
//! * a QFT on the low and on the high half of a wider register;
//! * [`State::swap`], and one-pass swap groups of random disjoint pairs;
//! * phase estimation with a controlled circuit as its unitary;
//! * [`grover_known_count`]'s sampled index and query count.
//!
//! Thread counts go through [`FusedCircuit::apply_with_threads`] and the
//! kernels' `threads` arguments, never through the global thread cap that
//! other tests share. On a mismatch the panic message lists every hash the
//! case computed, in the form of the table below.

use qsim::circuit::{Circuit, FusedCircuit, FusedOp};
use qsim::complex::{c64, C64};
use qsim::grover::grover_known_count;
use qsim::kernels::apply_swaps;
use qsim::phase_estimation::phase_estimation;
use qsim::qft::{iqft_circuit, qft_circuit};
use qsim::state::State;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [1, 2, 4];

/// 64-bit FNV-1a over a stream of words, low byte first.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a of the raw bits of every amplitude, real part first.
fn hash_amps(amps: &[C64]) -> u64 {
    let mut h = Fnv::new();
    for a in amps {
        h.word(a.re.to_bits());
        h.word(a.im.to_bits());
    }
    h.0
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

/// A normalized dense state with signed zeros planted in every seventh
/// amplitude: both parts `+0.0`, both `-0.0`, or one part zero.
fn dense_with_zeros(n: usize, seed: u64) -> State {
    let mut rng = Lcg(seed);
    let mut amps: Vec<C64> =
        (0..1usize << n).map(|_| c64(rng.unit() - 0.5, rng.unit() - 0.5)).collect();
    for (i, a) in amps.iter_mut().enumerate().skip(3).step_by(7) {
        *a = match i % 4 {
            0 => c64(0.0, 0.0),
            1 => c64(-0.0, -0.0),
            2 => c64(-0.0, a.im),
            _ => c64(a.re, 0.0),
        };
    }
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    State::from_amplitudes(amps.into_iter().map(|a| a.scale(1.0 / norm)).collect())
}

/// Compare computed `(name, hash)` pairs with the pinned table.
fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let listing: String = got.iter().map(|(k, h)| format!("    (\"{k}\", {h:#018x}),\n")).collect();
    assert_eq!(got.len(), pinned.len(), "case count differs; computed:\n{listing}");
    for ((k, h), (pk, ph)) in got.iter().zip(pinned) {
        assert!(
            k == pk && h == ph,
            "{k}: {h:#018x} != pinned {pk}: {ph:#018x}; computed:\n{listing}"
        );
    }
}

/// Apply `fused` to a copy of `start` at every thread count, assert the
/// copies agree bit for bit, and return the result.
fn apply_all_threads(fused: &FusedCircuit, start: &State, what: &str) -> State {
    let mut first: Option<State> = None;
    for threads in THREADS {
        let mut s = start.clone();
        fused.apply_with_threads(&mut s, threads);
        match &first {
            None => first = Some(s),
            Some(f) => assert_eq!(
                hash_amps(f.amplitudes()),
                hash_amps(s.amplitudes()),
                "{what}: threads={threads} differs from threads=1"
            ),
        }
    }
    first.expect("at least one thread count")
}

#[test]
fn fused_qft_iqft_and_round_trip() {
    let mut got = Vec::new();
    for n in [1usize, 2, 3, 11, 12, 13, 14, 16, 20] {
        let qubits: Vec<usize> = (0..n).collect();
        let qft = qft_circuit(&qubits).fuse();
        let iqft = iqft_circuit(&qubits).fuse();
        let start = dense_with_zeros(n, 1000 + n as u64);
        let fwd = apply_all_threads(&qft, &start, &format!("qft n={n}"));
        let inv = apply_all_threads(&iqft, &start, &format!("iqft n={n}"));
        let back = apply_all_threads(&iqft, &fwd, &format!("round trip n={n}"));
        got.push((format!("qft/n{n}"), hash_amps(fwd.amplitudes())));
        got.push((format!("iqft/n{n}"), hash_amps(inv.amplitudes())));
        got.push((format!("round_trip/n{n}"), hash_amps(back.amplitudes())));
        got.push((format!("fidelity/n{n}"), back.fidelity(&start).to_bits()));
    }
    check(&got, FUSED_QFT);
}

#[test]
fn qft_on_half_registers() {
    let mut got = Vec::new();
    for n in [9usize, 16] {
        let start = dense_with_zeros(n, 2000 + n as u64);
        let halves = [("low", (0..n / 2).collect::<Vec<_>>()), ("high", (n / 2..n).collect())];
        for (half, qubits) in halves {
            let fwd = apply_all_threads(&qft_circuit(&qubits).fuse(), &start, half);
            let inv = apply_all_threads(&iqft_circuit(&qubits).fuse(), &start, half);
            got.push((format!("qft_{half}/n{n}"), hash_amps(fwd.amplitudes())));
            got.push((format!("iqft_{half}/n{n}"), hash_amps(inv.amplitudes())));
        }
    }
    check(&got, HALF_QFT);
}

/// Up to `k` random pairwise-disjoint qubit pairs of an `n`-qubit state.
fn disjoint_pairs(n: usize, k: usize, rng: &mut Lcg) -> Vec<(usize, usize)> {
    let mut free: Vec<usize> = (0..n).collect();
    let mut pairs = Vec::new();
    while pairs.len() < k && free.len() >= 2 {
        let a = free.swap_remove(rng.below(free.len()));
        let b = free.swap_remove(rng.below(free.len()));
        pairs.push((a, b));
    }
    pairs
}

#[test]
fn swaps_and_swap_groups() {
    let mut got = Vec::new();
    for (n, a, b) in [(2usize, 0usize, 1usize), (5, 4, 1), (13, 0, 12), (14, 3, 11), (16, 15, 14)] {
        let mut s = dense_with_zeros(n, 3000 + (n * 31 + a) as u64);
        s.swap(a, b);
        got.push((format!("state_swap/n{n}/{a}-{b}"), hash_amps(s.amplitudes())));
    }
    let mut rng = Lcg(77);
    for n in [2usize, 3, 7, 12, 15, 16] {
        for k in (1..=n / 2).filter(|&k| k == 1 || k == n / 2) {
            let pairs = disjoint_pairs(n, k, &mut rng);
            let start = dense_with_zeros(n, 4000 + (n * 7 + k) as u64);
            let mut hashes = THREADS.iter().map(|&threads| {
                let mut amps = start.amplitudes().to_vec();
                apply_swaps(&mut amps, &pairs, threads);
                hash_amps(&amps)
            });
            let h = hashes.next().expect("one thread count");
            assert!(hashes.all(|x| x == h), "apply_swaps n={n} {pairs:?}: threads differ");
            // The same pairs as CNOT triples fuse into one swap group.
            let mut c = Circuit::new(n);
            for &(a, b) in &pairs {
                c.cnot(a, b).cnot(b, a).cnot(a, b);
            }
            let fused = c.fuse();
            assert!(matches!(fused.ops(), [FusedOp::Swap(_)]), "n={n}: {:?}", fused.ops());
            let via_tape = apply_all_threads(&fused, &start, &format!("swap group n={n}"));
            assert_eq!(hash_amps(via_tape.amplitudes()), h, "n={n}: tape and kernel differ");
            got.push((format!("swap_group/n{n}/k{}", pairs.len()), h));
        }
    }
    check(&got, SWAPS);
}

#[test]
fn phase_estimation_with_a_controlled_circuit() {
    // U on a 3-qubit target register: phases, a controlled phase and an X,
    // so the controlled copies mix CPhase, CC-phase and CNOT groups.
    let mut u = Circuit::new(3);
    u.phase(0, 0.61).cphase(0, 1, 1.3).phase(2, -0.4).x(1).cphase(1, 2, 0.9).x(1);
    let mut got = Vec::new();
    for (t, seed) in [(3usize, 5u64), (5, 6), (6, 7)] {
        let controlled: Vec<FusedCircuit> = (0..t).map(|q| u.controlled(q, t).fuse()).collect();
        let apply_power = |state: &mut State, control: usize, j: u32| {
            for _ in 0..1u32 << j {
                controlled[control].apply(state);
            }
        };
        let mut target = State::zero(t + 3);
        target.h_all(t..t + 3);
        target.phase(t + 1, 0.25);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = phase_estimation(&mut target, t, &apply_power, &mut rng);
        got.push((format!("qpe/t{t}/m"), m as u64));
        got.push((format!("qpe/t{t}/state"), hash_amps(target.amplitudes())));
    }
    check(&got, QPE);
}

#[test]
fn grover_known_count_samples() {
    let mut got = Vec::new();
    for (k, t, seed) in
        [(1usize << 10, 1usize, 11u64), (1000, 5, 12), (1 << 14, 64, 13), (3000, 3, 14)]
    {
        let stride = k / t;
        let marked = |i: usize| i % stride == stride / 2 && i / stride < t;
        let mut rng = StdRng::seed_from_u64(seed);
        let r = grover_known_count(k, t, marked, &mut rng);
        got.push((format!("grover/k{k}/t{t}/found"), r.found.map_or(u64::MAX, |i| i as u64)));
        got.push((format!("grover/k{k}/t{t}/queries"), r.queries as u64));
    }
    check(&got, GROVER);
}

const FUSED_QFT: &[(&str, u64)] = &[
    ("qft/n1", 0x0f6144df95fa3267),
    ("iqft/n1", 0x0f6144df95fa3267),
    ("round_trip/n1", 0x7d0603a5dae0cc11),
    ("fidelity/n1", 0x3ff0000000000000),
    ("qft/n2", 0x604f3d301cfff8b9),
    ("iqft/n2", 0x07d7f7c0df04e9ec),
    ("round_trip/n2", 0xe448a3fde63f5dbc),
    ("fidelity/n2", 0x3ff0000000000002),
    ("qft/n3", 0xb7f04a219591cdee),
    ("iqft/n3", 0x245cf73545d36e5b),
    ("round_trip/n3", 0x6650e8601903757b),
    ("fidelity/n3", 0x3ff0000000000006),
    ("qft/n11", 0x7760682bfb2a853f),
    ("iqft/n11", 0xba4147047403e4ca),
    ("round_trip/n11", 0x06ed66854c6efdd7),
    ("fidelity/n11", 0x3ff0000000000002),
    ("qft/n12", 0x11593e26465c1a80),
    ("iqft/n12", 0xc1975299258edb6d),
    ("round_trip/n12", 0xe80eba6e68a024f1),
    ("fidelity/n12", 0x3ff000000000000e),
    ("qft/n13", 0x48b2911303b4ad89),
    ("iqft/n13", 0xe25805b2562c3d1d),
    ("round_trip/n13", 0x272df16adf775bff),
    ("fidelity/n13", 0x3fefffffffffffe6),
    ("qft/n14", 0x9ebef3d5922b8888),
    ("iqft/n14", 0x9f3fce9f2276b7ad),
    ("round_trip/n14", 0xd707b4973da9850b),
    ("fidelity/n14", 0x3ff0000000000012),
    ("qft/n16", 0x67fb3c5e4e91c654),
    ("iqft/n16", 0xd4113b5a582f3b69),
    ("round_trip/n16", 0x67ed64e4726ae0f4),
    ("fidelity/n16", 0x3fefffffffffffa8),
    ("qft/n20", 0x3cf7b6b5881dbba2),
    ("iqft/n20", 0xa588b99bea252994),
    ("round_trip/n20", 0x34d4cceed3b396b3),
    ("fidelity/n20", 0x3ff00000000000ac),
];

const HALF_QFT: &[(&str, u64)] = &[
    ("qft_low/n9", 0x747e828309bbcf7a),
    ("iqft_low/n9", 0xa6a414a4c97bfa39),
    ("qft_high/n9", 0x67635b03c29dd36a),
    ("iqft_high/n9", 0x443fed3856db439c),
    ("qft_low/n16", 0xb5550ec807732e02),
    ("iqft_low/n16", 0x2e0f64d8d92707e7),
    ("qft_high/n16", 0x5126e7a9761094d0),
    ("iqft_high/n16", 0x4e3a1c6676bb988a),
];

const SWAPS: &[(&str, u64)] = &[
    ("state_swap/n2/0-1", 0x8540ddc8f3198014),
    ("state_swap/n5/4-1", 0xc20bb83f96004ea2),
    ("state_swap/n13/0-12", 0x23c3a5c4c972d1b6),
    ("state_swap/n14/3-11", 0x93d48c28a7e738a5),
    ("state_swap/n16/15-14", 0x1e06f77254512826),
    ("swap_group/n2/k1", 0x9e203e9ef33520e8),
    ("swap_group/n3/k1", 0xc98468a56a4d88ad),
    ("swap_group/n7/k1", 0xdc975280b14505ca),
    ("swap_group/n7/k3", 0x201ae06e3936ac1e),
    ("swap_group/n12/k1", 0xbd8c6a103f2b2bcf),
    ("swap_group/n12/k6", 0xb3d41e8a3670100c),
    ("swap_group/n15/k1", 0x45cb76b94e84b347),
    ("swap_group/n15/k7", 0x8db53224f9c15869),
    ("swap_group/n16/k1", 0x0dfcc2b05affdfee),
    ("swap_group/n16/k8", 0xd1b111b94086bf42),
];

const QPE: &[(&str, u64)] = &[
    ("qpe/t3/m", 0x0000000000000000),
    ("qpe/t3/state", 0xa4f223d20f198942),
    ("qpe/t5/m", 0x0000000000000006),
    ("qpe/t5/state", 0x771c7e3a9f7bda3c),
    ("qpe/t6/m", 0x0000000000000000),
    ("qpe/t6/state", 0x09aa562921955eaa),
];

const GROVER: &[(&str, u64)] = &[
    ("grover/k1024/t1/found", 0x0000000000000200),
    ("grover/k1024/t1/queries", 0x000000000000001a),
    ("grover/k1000/t5/found", 0x00000000000001f4),
    ("grover/k1000/t5/queries", 0x000000000000000c),
    ("grover/k16384/t64/found", 0x0000000000000080),
    ("grover/k16384/t64/queries", 0x000000000000000d),
    ("grover/k3000/t3/found", 0x00000000000009c4),
    ("grover/k3000/t3/queries", 0x000000000000001e),
];
