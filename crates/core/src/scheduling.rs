//! Meeting scheduling (paper §4.1, Lemmas 10–11).
//!
//! Each of the `n` nodes holds a private availability calendar over `k`
//! time slots; the goal is the slot maximizing the number of available
//! nodes, i.e. `argmax_i Σ_v x_i^{(v)}`.
//!
//! * **Quantum**: parallel maximum finding (Lemma 3) with `p = D` through
//!   the framework — `Õ(√(kD) + D)` measured rounds.
//! * **Classical baseline**: the trivial one-batch `p = k` algorithm
//!   (stream every slot total to the leader) — `Θ(k + D)` rounds.
//! * **Lower bounds** (Lemma 11): `Ω(k/log n + D)` classical,
//!   `Ω(∛(kD²) + √k)` quantum, from two-party disjointness on the
//!   dumbbell graph.

use crate::framework::{CongestOracle, StoredValues};
use congest::aggregate::CommOp;
use congest::graph::bits_for;
use congest::runtime::{Network, RoundLedger, RuntimeError};
use pquery::minimum::{find_extremum, Extremum};
use pquery::oracle::BatchSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A meeting-scheduling instance: `availability[v][i]` = node `v` is free
/// in slot `i`.
#[derive(Debug, Clone)]
pub struct MeetingInstance {
    /// `n × k` availability matrix.
    pub availability: Vec<Vec<bool>>,
}

impl MeetingInstance {
    /// Random instance: each node is free in each slot independently with
    /// probability `p_free`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0`, or `p_free ∉ [0, 1]`.
    pub fn random(n: usize, k: usize, p_free: f64, seed: u64) -> Self {
        assert!(n > 0 && k > 0);
        assert!((0.0..=1.0).contains(&p_free));
        let mut rng = StdRng::seed_from_u64(seed);
        MeetingInstance {
            availability: (0..n).map(|_| (0..k).map(|_| rng.gen_bool(p_free)).collect()).collect(),
        }
    }

    /// Number of slots.
    pub fn k(&self) -> usize {
        self.availability[0].len()
    }

    /// Per-slot attendance totals (centralized ground truth), accumulated
    /// row by row.
    pub fn attendance(&self) -> Vec<u64> {
        let mut totals = vec![0; self.k()];
        for row in &self.availability {
            add_row(&mut totals, row);
        }
        totals
    }

    /// The maximum attendance (ground truth), taken while the last row is
    /// added.
    pub fn best_attendance(&self) -> u64 {
        let Some((last, rows)) = self.availability.split_last() else { return 0 };
        let mut totals = vec![0; self.k()];
        for row in rows {
            add_row(&mut totals, row);
        }
        totals.iter().zip(last).map(|(&t, &free)| t + u64::from(free)).max().unwrap_or(0)
    }
}

/// Add one node's calendar to the per-slot totals.
fn add_row(totals: &mut [u64], row: &[bool]) {
    for (t, &free) in totals.iter_mut().zip(row) {
        *t += u64::from(free);
    }
}

/// Result of a scheduling run.
#[derive(Debug, Clone)]
pub struct MeetingResult {
    /// The chosen slot.
    pub slot: usize,
    /// Its attendance.
    pub attendance: u64,
    /// Measured rounds (total over all phases).
    pub rounds: usize,
    /// Oracle batches used.
    pub batches: usize,
    /// The full phase ledger.
    pub ledger: RoundLedger,
}

fn provider_for(net: &Network<'_>, inst: &MeetingInstance) -> StoredValues {
    let n = net.graph().n();
    assert_eq!(inst.availability.len(), n, "instance size must match the network");
    let local: Vec<Vec<u64>> =
        inst.availability.iter().map(|row| row.iter().map(|&b| b as u64).collect()).collect();
    let q = bits_for(n as u64);
    StoredValues::new(local, q, CommOp::Sum)
}

/// Quantum meeting scheduling (Lemma 10): `Õ(√(kD) + D)` measured rounds,
/// success probability ≥ 2/3.
///
/// # Errors
///
/// Propagates [`RuntimeError`] from the network protocols.
pub fn quantum_meeting_scheduling(
    net: &Network<'_>,
    inst: &MeetingInstance,
    seed: u64,
) -> Result<MeetingResult, RuntimeError> {
    let provider = provider_for(net, inst);
    let mut oracle = CongestOracle::setup(net, provider, 1, seed)?;
    let p = oracle.suggested_p(); // p = Θ(D)
    oracle.set_p(p);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a);
    let out = find_extremum(&mut oracle, Extremum::Max, &mut rng);
    Ok(MeetingResult {
        slot: out.index,
        attendance: out.value,
        rounds: oracle.rounds(),
        batches: oracle.batches(),
        ledger: oracle.into_ledger(),
    })
}

/// Classical baseline: the trivial parallel-query algorithm — one batch of
/// `p = k` queries (every slot total streams to the leader), `Θ(k + D)`
/// measured rounds, deterministic.
///
/// # Errors
///
/// Propagates [`RuntimeError`].
pub fn classical_meeting_scheduling(
    net: &Network<'_>,
    inst: &MeetingInstance,
    seed: u64,
) -> Result<MeetingResult, RuntimeError> {
    let provider = provider_for(net, inst);
    let k = inst.k();
    let mut oracle = CongestOracle::setup(net, provider, k, seed)?;
    let all: Vec<usize> = (0..k).collect();
    let totals = oracle.query(&all);
    let (slot, &attendance) =
        totals.iter().enumerate().max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i))).expect("k >= 1");
    Ok(MeetingResult {
        slot,
        attendance,
        rounds: oracle.rounds(),
        batches: oracle.batches(),
        ledger: oracle.into_ledger(),
    })
}

/// Lemma 10's upper bound: `O((√(kD) + D)·⌈log k / log n⌉)`.
pub fn quantum_upper_bound(k: usize, d: usize, n: usize) -> f64 {
    let log_fac = (bits_for(k as u64) as f64 / bits_for(n as u64) as f64).ceil().max(1.0);
    ((k as f64 * d as f64).sqrt() + d as f64) * log_fac
}

/// Lemma 11's classical lower bound: `Ω(k/log n + D)`.
pub fn classical_lower_bound(k: usize, d: usize, n: usize) -> f64 {
    k as f64 / bits_for(n as u64) as f64 + d as f64
}

/// Lemma 11's quantum lower bound: `Ω(∛(kD²) + √k)`.
pub fn quantum_lower_bound(k: usize, d: usize) -> f64 {
    (k as f64 * (d as f64).powi(2)).cbrt() + (k as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest::generators::{dumbbell, grid, random_connected};

    #[test]
    fn attendance_ground_truth() {
        let inst = MeetingInstance {
            availability: vec![vec![true, false], vec![true, true], vec![false, true]],
        };
        assert_eq!(inst.attendance(), vec![2, 2]);
        assert_eq!(inst.best_attendance(), 2);
    }

    #[test]
    fn classical_finds_exact_best() {
        let g = grid(4, 4);
        let net = Network::new(&g);
        let inst = MeetingInstance::random(16, 24, 0.4, 3);
        let res = classical_meeting_scheduling(&net, &inst, 1).unwrap();
        assert_eq!(res.attendance, inst.best_attendance());
        assert_eq!(res.batches, 1);
        assert_eq!(inst.attendance()[res.slot], res.attendance);
    }

    #[test]
    fn quantum_finds_best_usually() {
        let g = random_connected(20, 0.1, 7);
        let net = Network::new(&g);
        let inst = MeetingInstance::random(20, 32, 0.35, 5);
        let best = inst.best_attendance();
        let mut hits = 0;
        for seed in 0..6 {
            let res = quantum_meeting_scheduling(&net, &inst, seed).unwrap();
            // The reported slot's attendance is always genuine.
            assert_eq!(inst.attendance()[res.slot], res.attendance);
            if res.attendance == best {
                hits += 1;
            }
        }
        assert!(hits >= 4, "{hits}/6");
    }

    #[test]
    fn quantum_beats_classical_for_large_k_small_d() {
        // Star-like graph (small D), many slots: √(kD) ≪ k.
        let g = random_connected(16, 0.3, 2);
        let net = Network::new(&g);
        let inst = MeetingInstance::random(16, 4000, 0.3, 9);
        let qr = quantum_meeting_scheduling(&net, &inst, 3).unwrap();
        let cr = classical_meeting_scheduling(&net, &inst, 3).unwrap();
        assert!(qr.rounds < cr.rounds, "quantum {} !< classical {}", qr.rounds, cr.rounds);
    }

    #[test]
    fn bounds_ordering_on_dumbbell() {
        let (g, _) = dumbbell(5, 5, 20);
        let d = g.diameter().unwrap() as usize;
        let k = 4000;
        let n = g.n();
        assert!(quantum_lower_bound(k, d) <= quantum_upper_bound(k, d, n) * 10.0);
        assert!(quantum_upper_bound(k, d, n) < classical_lower_bound(k, d, n) * 10.0);
    }
}
