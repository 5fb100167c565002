//! Compiled phase oracles against the per-iteration predicate scans they
//! replace: amplitudes, driver outcomes and RNG streams must be
//! bit-identical, and each driver must call its predicate once per index.

use qsim::complex::C64;
use qsim::grover::{grover_iterate, grover_known_count, grover_search, GroverResult};
use qsim::oracle::{index_qubits, phase_oracle, MarkedSet};
use qsim::phase_estimation::phase_estimation;
use qsim::state::State;
use qsim::{amplitude, c64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{FRAC_1_SQRT_2, PI};
use std::sync::atomic::{AtomicUsize, Ordering};

// ---- The drivers as they were before oracle compilation ----

/// The old iterate: a full predicate scan per oracle application.
fn scan_iterate<F: Fn(usize) -> bool + Sync>(s: &mut State, q: usize, k: usize, marked: &F) {
    let mask = (1usize << q) - 1;
    s.phase_flip_where(|x| {
        let i = x & mask;
        i < k && marked(i)
    });
    s.inversion_about_mean(q);
}

fn gate_uniform(n: usize, qs: std::ops::Range<usize>) -> State {
    let mut s = State::zero(n);
    s.h_all(qs);
    s
}

fn scan_known_count<F: Fn(usize) -> bool + Sync>(
    k: usize,
    t: usize,
    marked: F,
    rng: &mut StdRng,
) -> GroverResult {
    let q = index_qubits(k);
    let theta = ((t as f64) / (1usize << q) as f64).sqrt().asin();
    let j = ((PI / 4.0) / theta).floor() as usize;
    let mut s = gate_uniform(q, 0..q);
    for _ in 0..j {
        scan_iterate(&mut s, q, k, &marked);
    }
    let out = s.sample(rng);
    let found = if out < k && marked(out) { Some(out) } else { None };
    GroverResult { found, queries: j + 1 }
}

fn scan_search<F: Fn(usize) -> bool + Sync>(k: usize, marked: F, rng: &mut StdRng) -> GroverResult {
    let q = index_qubits(k);
    let big_n = 1usize << q;
    let mut queries = 0usize;
    let mut m = 1.0f64;
    let cutoff = (9.0 * (big_n as f64).sqrt()).ceil() as usize;
    while queries < cutoff {
        let j = rng.gen_range(0..(m.ceil() as usize).max(1));
        let mut s = gate_uniform(q, 0..q);
        for _ in 0..j {
            scan_iterate(&mut s, q, k, &marked);
        }
        queries += j + 1;
        let out = s.sample(rng);
        if out < k && marked(out) {
            return GroverResult { found: Some(out), queries };
        }
        m = (m * 6.0 / 5.0).min((big_n as f64).sqrt());
    }
    GroverResult { found: None, queries }
}

fn scan_amplify<F: Fn(usize) -> bool + Sync>(
    q: usize,
    good: F,
    j: usize,
    reps: usize,
    rng: &mut StdRng,
) -> Option<usize> {
    for _ in 0..reps {
        let mut s = gate_uniform(q, 0..q);
        for _ in 0..j {
            scan_iterate(&mut s, q, 1 << q, &good);
        }
        let out = s.sample(rng) & ((1usize << q) - 1);
        if good(out) {
            return Some(out);
        }
    }
    None
}

fn scan_controlled_power<F: Fn(usize) -> bool + Sync>(
    s: &mut State,
    control: usize,
    q: usize,
    offset: usize,
    good: &F,
    j: u32,
) {
    let cbit = 1usize << control;
    let h = [
        [c64(FRAC_1_SQRT_2, 0.0), c64(FRAC_1_SQRT_2, 0.0)],
        [c64(FRAC_1_SQRT_2, 0.0), c64(-FRAC_1_SQRT_2, 0.0)],
    ];
    let dmask = ((1usize << q) - 1) << offset;
    for _ in 0..1u64 << j {
        s.phase_flip_where(|x| x & cbit != 0 && good((x & dmask) >> offset));
        for d in 0..q {
            s.apply_controlled_1q(&[control], offset + d, h);
        }
        s.phase_flip_where(|x| x & cbit != 0 && x & dmask == 0);
        for d in 0..q {
            s.apply_controlled_1q(&[control], offset + d, h);
        }
        s.phase_flip_where(|x| x & cbit != 0);
    }
}

fn scan_estimate<F: Fn(usize) -> bool + Sync>(
    q: usize,
    good: F,
    t: usize,
    rng: &mut StdRng,
) -> f64 {
    let mut s = gate_uniform(t + q, t..t + q);
    let u = |state: &mut State, control: usize, j: u32| {
        scan_controlled_power(state, control, q, t, &good, j);
    };
    let m = phase_estimation(&mut s, t, &u, rng);
    (PI * m as f64 / (1usize << t) as f64).sin().powi(2)
}

// ---- Helpers ----

fn bits(a: C64) -> (u64, u64) {
    (a.re.to_bits(), a.im.to_bits())
}

fn assert_bit_identical(a: &State, b: &State, what: &str) {
    assert_eq!(a.num_qubits(), b.num_qubits(), "{what}: widths differ");
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert_eq!(bits(*x), bits(*y), "{what}: amplitude {i}: {x:?} vs {y:?}");
    }
}

/// A dense random normalized state.
fn random_state(n: usize, rng: &mut StdRng) -> State {
    let mut amps: Vec<C64> =
        (0..1usize << n).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = a.scale(1.0 / norm);
    }
    State::from_amplitudes(amps)
}

/// A pure pseudo-random predicate marking about one index in `every`.
fn hashed(seed: u64, every: u64) -> impl Fn(usize) -> bool + Sync {
    move |i| {
        let mut z = (i as u64).wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 29)).is_multiple_of(every)
    }
}

// ---- Tests ----

#[test]
fn uniform_equals_zero_then_h_all_bit_for_bit() {
    for n in 1..=12 {
        for lo in 0..=n {
            for hi in lo..=n {
                let want = gate_uniform(n, lo..hi);
                assert_bit_identical(
                    &State::uniform(n, lo..hi),
                    &want,
                    &format!("n={n} {lo}..{hi}"),
                );
            }
        }
    }
    for n in [16, 18] {
        assert_bit_identical(&State::uniform(n, 0..n), &gate_uniform(n, 0..n), &format!("n={n}"));
    }
}

#[test]
fn compiled_iterate_matches_scan_loop_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0a11);
    for q in 1..=12usize {
        let full = 1usize << q;
        let mut ks = vec![full, (full - 1).max(1), rng.gen_range(1..=full)];
        ks.dedup();
        for k in ks {
            for (name, every) in [("empty", 0u64), ("all", 1), ("sparse", 7), ("dense", 2)] {
                let seed = rng.gen::<u64>();
                let pred = hashed(seed, every.max(1));
                let marked = move |i: usize| every != 0 && pred(i);
                for extra in [0usize, 2] {
                    let what = format!("q={q} k={k} {name} extra={extra}");
                    let start = if extra == 0 {
                        State::uniform(q, 0..q)
                    } else {
                        random_state(q + extra, &mut rng)
                    };
                    let oracle = MarkedSet::compile(q, k, &marked);
                    let mut old = start.clone();
                    let mut new = start.clone();
                    let mut wrapped = start;
                    for _ in 0..3 {
                        scan_iterate(&mut old, q, k, &marked);
                        oracle.apply(&mut new);
                        new.inversion_about_mean(q);
                        grover_iterate(&mut wrapped, q, k, &marked);
                    }
                    assert_bit_identical(&new, &old, &what);
                    assert_bit_identical(&wrapped, &old, &what);
                }
            }
        }
    }
}

#[test]
fn phase_oracle_matches_scan_on_wide_states() {
    let mut rng = StdRng::seed_from_u64(0x0a12);
    for q in 1..=8usize {
        let k = rng.gen_range(1..=1usize << q);
        let marked = hashed(rng.gen(), 3);
        let start = random_state(q + 3, &mut rng);
        let mut old = start.clone();
        let mask = (1usize << q) - 1;
        old.phase_flip_where(|x| (x & mask) < k && marked(x & mask));
        let mut new = start;
        phase_oracle(&mut new, q, k, &marked);
        assert_bit_identical(&new, &old, &format!("q={q} k={k}"));
    }
}

#[test]
fn controlled_power_matches_scan() {
    let mut rng = StdRng::seed_from_u64(0x0a13);
    // Data register on qubits offset..offset+q of a 7-qubit state, control
    // outside the register.
    for (q, offset, control) in [(3, 0, 5), (3, 2, 0), (2, 3, 6), (4, 1, 0), (4, 3, 1)] {
        let good = hashed(rng.gen(), 3);
        let start = random_state(7, &mut rng);
        for j in 0..2 {
            let mut old = start.clone();
            scan_controlled_power(&mut old, control, q, offset, &good, j);
            let mut new = start.clone();
            amplitude::controlled_iterate_power(&mut new, control, q, offset, &good, j);
            let what = format!("q={q} offset={offset} control={control} j={j}");
            assert_bit_identical(&new, &old, &what);
        }
    }
}

#[test]
fn drivers_repeat_the_scan_drivers_outcomes() {
    for seed in 0..12u64 {
        let k = [100usize, 256, 1000, 37][seed as usize % 4];
        let marked = hashed(seed, 29);
        let want = scan_known_count(k, 3, &marked, &mut StdRng::seed_from_u64(seed));
        let got = grover_known_count(k, 3, &marked, &mut StdRng::seed_from_u64(seed));
        assert_eq!(got, want, "grover_known_count seed {seed}");

        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        assert_eq!(
            grover_search(k, &marked, &mut a),
            scan_search(k, &marked, &mut b),
            "bbht {seed}"
        );
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "bbht RNG stream, seed {seed}");

        let q = 7;
        let good = hashed(seed, 40);
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        assert_eq!(
            amplitude::amplify_and_sample(q, &good, 5, 3, &mut a),
            scan_amplify(q, &good, 5, 3, &mut b),
            "amplify_and_sample seed {seed}"
        );
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "amplify RNG stream, seed {seed}");

        let est = amplitude::estimate_amplitude(4, &good, 4, &mut StdRng::seed_from_u64(seed));
        let want = scan_estimate(4, &good, 4, &mut StdRng::seed_from_u64(seed));
        assert_eq!(est.to_bits(), want.to_bits(), "estimate_amplitude seed {seed}");
    }
    // An empty search exhausts the BBHT cutoff the same way.
    let mut a = StdRng::seed_from_u64(5);
    let mut b = StdRng::seed_from_u64(5);
    assert_eq!(grover_search(32, |_| false, &mut a), scan_search(32, |_| false, &mut b));
}

#[test]
fn drivers_call_the_predicate_once_per_index() {
    let calls = AtomicUsize::new(0);
    let counted = |i: usize| {
        calls.fetch_add(1, Ordering::Relaxed);
        i % 17 == 3
    };
    let mut rng = StdRng::seed_from_u64(9);
    for k in [1usize, 5, 100, 1024] {
        calls.store(0, Ordering::Relaxed);
        let _ = grover_known_count(k, 1, counted, &mut rng);
        assert_eq!(calls.load(Ordering::Relaxed), k, "grover_known_count k={k}");
        calls.store(0, Ordering::Relaxed);
        let _ = grover_search(k, counted, &mut rng);
        assert_eq!(calls.load(Ordering::Relaxed), k, "grover_search k={k}");
    }
    calls.store(0, Ordering::Relaxed);
    let _ = amplitude::amplify_and_sample(6, counted, 3, 4, &mut rng);
    assert_eq!(calls.load(Ordering::Relaxed), 64, "amplify_and_sample");
    calls.store(0, Ordering::Relaxed);
    let _ = amplitude::estimate_amplitude(5, counted, 4, &mut rng);
    assert_eq!(calls.load(Ordering::Relaxed), 32, "estimate_amplitude");
}
