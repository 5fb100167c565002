//! The Grover drivers run their iterates in one fused amplitude pass each.
//! Their found indices, query counts and RNG streams must equal a plain
//! loop of one oracle application and one diffusion per iterate.
//! Amplitude bits of the fused kernel itself, at 1, 2 and 4 threads, are
//! checked by the unit tests in `src/kernels.rs`.

use qsim::amplitude::amplify_and_sample;
use qsim::grover::{diffusion, grover_known_count, grover_search, GroverResult};
use qsim::kernels::set_thread_cap;
use qsim::oracle::{index_qubits, MarkedSet};
use qsim::state::State;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

// ---- The drivers as a loop of single iterates ----

/// `j` iterates, each one oracle pass and one two-pass diffusion.
fn looped(q: usize, oracle: &MarkedSet, j: usize) -> State {
    let mut s = State::uniform(q, 0..q);
    for _ in 0..j {
        oracle.apply(&mut s);
        diffusion(&mut s, q);
    }
    s
}

fn known_count_iterations(q: usize, t: usize) -> usize {
    let theta = ((t as f64) / (1usize << q) as f64).sqrt().asin();
    ((PI / 4.0) / theta).floor() as usize
}

fn looped_known_count<F: Fn(usize) -> bool>(
    k: usize,
    t: usize,
    marked: F,
    rng: &mut StdRng,
) -> GroverResult {
    let q = index_qubits(k);
    let j = known_count_iterations(q, t);
    let oracle = MarkedSet::compile(q, k, &marked);
    let out = looped(q, &oracle, j).sample(rng);
    let found = (out < k && marked(out)).then_some(out);
    GroverResult { found, queries: j + 1 }
}

fn looped_search<F: Fn(usize) -> bool>(k: usize, marked: F, rng: &mut StdRng) -> GroverResult {
    let q = index_qubits(k);
    let big_n = 1usize << q;
    let oracle = MarkedSet::compile(q, k, &marked);
    let cutoff = (9.0 * (big_n as f64).sqrt()).ceil() as usize;
    let (mut queries, mut m) = (0usize, 1.0f64);
    while queries < cutoff {
        let j = rng.gen_range(0..(m.ceil() as usize).max(1));
        queries += j + 1;
        let out = looped(q, &oracle, j).sample(rng);
        if out < k && marked(out) {
            return GroverResult { found: Some(out), queries };
        }
        m = (m * 6.0 / 5.0).min((big_n as f64).sqrt());
    }
    GroverResult { found: None, queries }
}

fn looped_amplify<F: Fn(usize) -> bool>(
    q: usize,
    good: F,
    j: usize,
    reps: usize,
    rng: &mut StdRng,
) -> Option<usize> {
    let oracle = MarkedSet::compile(q, 1 << q, &good);
    for _ in 0..reps {
        let out = looped(q, &oracle, j).sample(rng);
        if good(out) {
            return Some(out);
        }
    }
    None
}

// ---- Helpers ----

/// The marked sets every case runs: one index, every index, none, and a
/// sparse pseudo-random set.
fn marked_sets(k: usize, seed: usize) -> Vec<(&'static str, Vec<usize>)> {
    vec![
        ("one", vec![(seed * 7919) % k]),
        ("all", (0..k).collect()),
        ("none", vec![]),
        ("sparse", (0..k).filter(|i| (i * 2654435761 + seed).is_multiple_of(11)).collect()),
    ]
}

/// The smallest `t ≥ 1` for which a known-count search at `q` qubits runs
/// exactly `j` iterations, if any.
fn count_for(q: usize, j: usize) -> Option<usize> {
    (1..=1usize << q).find(|&t| known_count_iterations(q, t) == j)
}

/// Both RNGs must be at the same point of the same stream.
fn assert_same_stream(a: &mut StdRng, b: &mut StdRng, what: &str) {
    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{what}: RNG streams diverged");
}

// ---- Tests ----

#[test]
fn known_count_matches_iterate_loop() {
    for q in 1..=12usize {
        // A padded search space and a full one.
        for k in [(1usize << q) - (1 << q) / 3, 1 << q] {
            let optimal = known_count_iterations(q, 1);
            for j in [0usize, 1, 2, optimal] {
                let Some(t) = count_for(q, j) else { continue };
                for (name, set) in marked_sets(k, q + j) {
                    let marked = |i: usize| set.binary_search(&i).is_ok();
                    let seed = (q * 1000 + j * 10 + k) as u64;
                    let (mut r1, mut r2) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let got = grover_known_count(k, t, marked, &mut r1);
                    let want = looped_known_count(k, t, marked, &mut r2);
                    let what = format!("q={q} k={k} j={j} {name}");
                    assert_eq!(got, want, "{what}");
                    assert_same_stream(&mut r1, &mut r2, &what);
                }
            }
        }
    }
}

#[test]
fn bbht_search_matches_iterate_loop() {
    for q in 1..=12usize {
        for k in [(1usize << q) - (1 << q) / 3, 1 << q] {
            for (name, set) in marked_sets(k, q) {
                let marked = |i: usize| set.binary_search(&i).is_ok();
                let seed = (q * 31 + k) as u64;
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = grover_search(k, marked, &mut r1);
                let want = looped_search(k, marked, &mut r2);
                let what = format!("q={q} k={k} {name}");
                assert_eq!(got, want, "{what}");
                assert_same_stream(&mut r1, &mut r2, &what);
            }
        }
    }
}

#[test]
fn amplify_matches_iterate_loop() {
    for q in 1..=12usize {
        let optimal = known_count_iterations(q, 1);
        for j in [0usize, 1, 2, optimal] {
            for (name, set) in marked_sets(1 << q, q + j) {
                let good = |i: usize| set.binary_search(&i).is_ok();
                let seed = (q * 100 + j) as u64;
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let got = amplify_and_sample(q, good, j, 3, &mut r1);
                let want = looped_amplify(q, good, j, 3, &mut r2);
                let what = format!("q={q} j={j} {name}");
                assert_eq!(got, want, "{what}");
                assert_same_stream(&mut r1, &mut r2, &what);
            }
        }
    }
}

#[test]
fn drivers_agree_across_thread_caps() {
    // At 18 qubits the kernels may use several threads; each cap must give
    // the single-threaded loop's outcome and RNG stream.
    let q = 18;
    let k = 1usize << q;
    let marked: Vec<usize> = (0..k).step_by(4099).collect();
    let is_marked = |i: usize| marked.binary_search(&i).is_ok();
    set_thread_cap(1);
    let mut base = StdRng::seed_from_u64(77);
    let want = looped_known_count(k, marked.len(), is_marked, &mut base);
    let want_amp = looped_amplify(q, is_marked, 3, 2, &mut base);
    for cap in [1usize, 2, 4] {
        set_thread_cap(cap);
        let mut rng = StdRng::seed_from_u64(77);
        assert_eq!(grover_known_count(k, marked.len(), is_marked, &mut rng), want, "cap={cap}");
        assert_eq!(amplify_and_sample(q, is_marked, 3, 2, &mut rng), want_amp, "cap={cap}");
        let mut again = base.clone();
        assert_same_stream(&mut rng, &mut again, &format!("cap={cap}"));
    }
    set_thread_cap(0);
}
