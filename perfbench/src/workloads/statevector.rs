//! `statevector`: exact-mode `qsim`. Grover search over an 18-qubit index
//! register for several marked sets, and fused QFT / inverse-QFT round
//! trips of a dense 20-qubit state (16 MiB per amplitude pass). Only the
//! statevector kernels run.
//!
//! The searches use `grover_known_count`, whose iteration count follows
//! from `k` and the number of marked indices. BBHT `grover_search` draws its
//! iteration counts at random: its query count varies by about 54% from one
//! search to the next (simulated over 20 000 searches at 2^18), so a sum
//! that repeats within a few percent across seeds needs more than 80
//! searches, about 25 s at 18 qubits.
//!
//! A pass makes eight searches with 64 marked indices each (about 50
//! iterations, 0.1 s) rather than a few long ones: `solve_s` takes each
//! operation at its fastest, and short operations meet the host's fast
//! moments more often.

use super::{mix, Size, Workload};
use crate::layers::{add, Counts};
use crate::span::{self, span};
use crate::tally::{print, Tally, Verdict};
use congest::runtime::Network;
use qsim::grover::grover_known_count;
use qsim::qft::{iqft_circuit, qft_circuit};
use qsim::{c64, metrics, State};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;

/// Round trips must keep this fidelity.
const MIN_FIDELITY: f64 = 1.0 - 1e-9;

struct Params {
    grover_qubits: usize,
    marked: usize,
    searches: usize,
    qft_qubits: usize,
    round_trips: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => {
            Params { grover_qubits: 18, marked: 64, searches: 8, qft_qubits: 20, round_trips: 1 }
        }
        Size::Tiny => {
            Params { grover_qubits: 8, marked: 2, searches: 3, qft_qubits: 6, round_trips: 1 }
        }
    }
}

/// One Grover search: its marked indices and sampling seed.
pub struct Search {
    /// Sorted, so that the oracle is a binary search.
    marked: Vec<usize>,
    seed: u64,
}

/// Inputs: the searches and the round-trip input state.
pub struct Inputs {
    grover_qubits: usize,
    searches: Vec<Search>,
    psi: State,
    round_trips: usize,
}

/// The `statevector` workload.
pub struct Statevector;

impl Workload for Statevector {
    type Inputs = Inputs;

    fn setup(seed: u64, size: Size) -> Inputs {
        let p = params(size);
        let k = 1usize << p.grover_qubits;
        let searches = (0..p.searches)
            .map(|s| {
                let seed = mix(seed, s as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut marked: Vec<usize> = Vec::new();
                while marked.len() < p.marked {
                    let i = rng.gen_range(0..k);
                    if !marked.contains(&i) {
                        marked.push(i);
                    }
                }
                marked.sort_unstable();
                Search { marked, seed }
            })
            .collect();
        // A dense random state, so that no amplitude pass can skip zeros.
        let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX));
        let mut amps: Vec<_> = (0..1usize << p.qft_qubits)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = a.scale(1.0 / norm);
        }
        Inputs {
            grover_qubits: p.grover_qubits,
            searches,
            psi: State::from_amplitudes(amps),
            round_trips: p.round_trips,
        }
    }

    fn pass(inputs: &Inputs, _nets: &[Network<'_>], traced: Option<&mut Counts>) -> Tally {
        let mut tally = Tally::default();
        let k = 1usize << inputs.grover_qubits;
        let tracing = traced.is_some();
        if tracing {
            metrics::reset();
            metrics::enable(true);
        }
        for (s, search) in inputs.searches.iter().enumerate() {
            span::set_instance(s as u32);
            let mut rng = StdRng::seed_from_u64(search.seed ^ 0x6e0f);
            let marked = |i: usize| search.marked.binary_search(&i).is_ok();
            let t = search.marked.len();
            tally.record(
                format!("s{s}/grover_known_count"),
                || {
                    let r = span("qsim.grover", || grover_known_count(k, t, marked, &mut rng));
                    Ok::<_, Infallible>(r)
                },
                |r| {
                    let pass = r.found.is_none_or(marked);
                    let v = Verdict { pass, hit: Some(r.found.is_some()), cost: r.queries as u64 };
                    (v, print(r.found.map_or(u64::MAX, |f| f as u64), 0, r.queries as u64))
                },
            );
        }
        let grover = if tracing {
            let snap = metrics::snapshot();
            metrics::reset();
            snap
        } else {
            Vec::new()
        };
        let qubits: Vec<usize> = (0..inputs.psi.num_qubits()).collect();
        for r in 0..inputs.round_trips {
            span::set_instance((inputs.searches.len() + r) as u32);
            tally.record(
                format!("r{r}/qft_round_trip"),
                || {
                    let fidelity = span("qsim.qft", || {
                        let mut state = inputs.psi.clone();
                        qft_circuit(&qubits).fuse().apply(&mut state);
                        iqft_circuit(&qubits).fuse().apply(&mut state);
                        state.fidelity(&inputs.psi)
                    });
                    Ok::<_, Infallible>(fidelity)
                },
                |&f| {
                    (
                        Verdict { pass: f >= MIN_FIDELITY, hit: None, cost: 0 },
                        print(f.to_bits(), 0, 0),
                    )
                },
            );
        }
        if let Some(counts) = traced {
            metrics::enable(false);
            let qft = metrics::snapshot();
            add_qsim_counts(counts, &grover, &qft, inputs, &tally);
        }
        tally
    }
}

fn counter(snap: &[(&'static str, u64)], name: &str) -> f64 {
    snap.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v as f64)
}

/// Kernel counters of both sections, and the computed bytes: amplitude
/// passes × 2^q amplitudes × 16 B × 2 (one read and one write per pass).
/// Grover passes are the counted kernel launches (`h_all`, one per index
/// qubit) plus three per iteration (phase flip, mean, update) plus one
/// sampling pass, per search; QFT passes are its kernel launches.
fn add_qsim_counts(
    counts: &mut Counts,
    grover: &[(&'static str, u64)],
    qft: &[(&'static str, u64)],
    inputs: &Inputs,
    tally: &Tally,
) {
    for name in [
        "qsim.kernel_launches",
        "qsim.matrix_applies",
        "qsim.diag_sweeps",
        "qsim.fuse_gates_in",
        "qsim.fuse_groups",
    ] {
        add(counts, name, counter(grover, name) + counter(qft, name));
    }
    let q = inputs.grover_qubits as f64;
    let launches = counter(grover, "qsim.kernel_launches");
    let searches = inputs.searches.len() as f64;
    // Each search spends one query on verifying the measured index.
    let iterations: f64 = tally.model_cost as f64 - searches;
    let grover_passes = launches + 3.0 * iterations + searches;
    let qft_passes = counter(qft, "qsim.kernel_launches");
    let bytes = grover_passes * 2f64.powf(q) * 32.0
        + qft_passes * 2f64.powi(inputs.psi.num_qubits() as i32) * 32.0;
    add(counts, "qsim.bytes_computed", bytes);
}
