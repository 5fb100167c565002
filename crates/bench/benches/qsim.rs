//! Statevector kernel benchmarks: the strided, fused fast path against the
//! seed's branch-per-index reference scans, on the two kernels the paper's
//! experiments lean on hardest — the Grover iterate (Lemma 2's sequential
//! core) and the inverse QFT (Lemma 29's phase-estimation readout).
//!
//! Cells:
//!
//! * `reference/*` — seed loops from `qsim::reference`, gate by gate;
//! * `fast/*` — strided kernels + gate fusion, thread cap 1 (isolates the
//!   single-threaded strided+fusion win);
//! * `fast_mt/*` — same with the automatic thread policy (engages only for
//!   n ≥ 18 on multi-core hosts; identical to `fast` on one core);
//! * `qsim_qft/round_trip/n20` — a fused QFT then inverse QFT on a dense
//!   20-qubit state at thread cap 1 (`round_trip_mt/n20`: automatic thread
//!   policy), the phase-estimation readout end to end, swaps included;
//! * `qsim_grover_search/known_count/n18` — a whole `grover_known_count`
//!   search at thread cap 1 with a binary-search oracle over 64 sorted
//!   marked indices, so the oracle's cost shows (the `i == target` cells
//!   above hide it).
//!
//! `BENCH_qsim.json` at the repo root records the medians; regen with:
//!
//! ```text
//! CRITERION_JSON_OUT=/tmp/qsim.json cargo bench -p dqc-bench --bench qsim
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsim::complex::C64;
use qsim::grover::{grover_iterate, grover_known_count};
use qsim::kernels::set_thread_cap;
use qsim::qft::{iqft_circuit, qft_circuit};
use qsim::reference;
use qsim::state::State;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

const SIZES: [usize; 2] = [8, 20];

/// Uniform superposition as a raw amplitude vector (reference cells).
fn uniform_amps(n: usize) -> Vec<C64> {
    let a = 1.0 / ((1usize << n) as f64).sqrt();
    vec![C64 { re: a, im: 0.0 }; 1 << n]
}

/// Uniform superposition as a [`State`] (fast cells).
fn uniform_state(n: usize) -> State {
    let mut s = State::zero(n);
    s.h_all(0..n);
    s
}

/// One Grover iterate through the seed's scans: phase oracle, H-all,
/// zero-state flip, H-all — every pass a full-scan branch-per-index loop.
fn reference_grover_iterate(amps: &mut [C64], n: usize, target: usize) {
    reference::apply_phase_fn(amps, |x| if x == target { PI } else { 0.0 });
    for q in 0..n {
        reference::h(amps, q);
    }
    reference::apply_phase_fn(amps, |x| if x == 0 { PI } else { 0.0 });
    for q in 0..n {
        reference::h(amps, q);
    }
}

/// The inverse QFT through the seed's scans, gate by gate (swaps as CNOT
/// triples, one controlled-phase pass per gate).
fn reference_iqft(amps: &mut [C64], n: usize) {
    for i in 0..n / 2 {
        let (a, b) = (i, n - 1 - i);
        reference::cnot(amps, a, b);
        reference::cnot(amps, b, a);
        reference::cnot(amps, a, b);
    }
    for i in 0..n {
        for j in 0..i {
            reference::cphase(amps, j, i, -PI / (1 << (i - j)) as f64);
        }
        reference::h(amps, i);
    }
}

fn bench_grover_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsim_grover_iteration");
    group.sample_size(10);
    for n in SIZES {
        let target = (1usize << n) - 3;
        let mut amps = uniform_amps(n);
        group.bench_with_input(BenchmarkId::new("reference", format!("n{n}")), &n, |b, &n| {
            b.iter(|| reference_grover_iterate(&mut amps, n, target))
        });
        set_thread_cap(1);
        let mut s = uniform_state(n);
        group.bench_with_input(BenchmarkId::new("fast", format!("n{n}")), &n, |b, &n| {
            b.iter(|| grover_iterate(&mut s, n, 1 << n, &|i| i == target))
        });
        set_thread_cap(usize::MAX);
        let mut s = uniform_state(n);
        group.bench_with_input(BenchmarkId::new("fast_mt", format!("n{n}")), &n, |b, &n| {
            b.iter(|| grover_iterate(&mut s, n, 1 << n, &|i| i == target))
        });
    }
    group.finish();
}

fn bench_iqft(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsim_iqft");
    group.sample_size(10);
    for n in SIZES {
        let qubits: Vec<usize> = (0..n).collect();
        let fused = iqft_circuit(&qubits).fuse();
        let mut amps = uniform_amps(n);
        group.bench_with_input(BenchmarkId::new("reference", format!("n{n}")), &n, |b, &n| {
            b.iter(|| reference_iqft(&mut amps, n))
        });
        set_thread_cap(1);
        let mut s = uniform_state(n);
        group.bench_with_input(BenchmarkId::new("fast", format!("n{n}")), &n, |b, _| {
            b.iter(|| fused.apply(&mut s))
        });
        set_thread_cap(usize::MAX);
        let mut s = uniform_state(n);
        group.bench_with_input(BenchmarkId::new("fast_mt", format!("n{n}")), &n, |b, _| {
            b.iter(|| fused.apply(&mut s))
        });
    }
    group.finish();
}

fn bench_qft_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsim_qft");
    group.sample_size(10);
    let n = 20;
    let qubits: Vec<usize> = (0..n).collect();
    let qft = qft_circuit(&qubits).fuse();
    let iqft = iqft_circuit(&qubits).fuse();
    // A dense state: a Hadamard layer and a phase per qubit, so no
    // amplitude is zero and every pass does full work.
    let mut dense = uniform_state(n);
    for q in 0..n {
        dense.phase(q, 0.1 + 0.37 * q as f64);
    }
    for (name, cap) in [("round_trip", 1), ("round_trip_mt", usize::MAX)] {
        set_thread_cap(cap);
        let mut s = dense.clone();
        group.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &n, |b, _| {
            b.iter(|| {
                qft.apply(&mut s);
                iqft.apply(&mut s);
            })
        });
    }
    set_thread_cap(usize::MAX);
    group.finish();
}

fn bench_grover_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsim_grover_search");
    group.sample_size(10);
    let n = 18;
    let mut rng = StdRng::seed_from_u64(18);
    let mut marked: Vec<usize> = Vec::new();
    while marked.len() < 64 {
        let i = rng.gen_range(0..1usize << n);
        if !marked.contains(&i) {
            marked.push(i);
        }
    }
    marked.sort_unstable();
    set_thread_cap(1);
    group.bench_with_input(BenchmarkId::new("known_count", format!("n{n}")), &n, |b, &n| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            grover_known_count(1 << n, marked.len(), |i| marked.binary_search(&i).is_ok(), &mut rng)
        })
    });
    set_thread_cap(usize::MAX);
    group.finish();
}

criterion_group!(
    benches,
    bench_grover_iteration,
    bench_iqft,
    bench_qft_round_trip,
    bench_grover_search
);
criterion_main!(benches);
