//! Property-based tests for the framework and its applications: the
//! CONGEST oracle must agree with reference folds on arbitrary inputs, the
//! classical baselines must be exact, and quantum answers must be sound
//! (one-sided) on arbitrary instances.

use congest::aggregate::CommOp;
use congest::generators::random_connected_m;
use congest::runtime::Network;
use dqc_core::cycles::classical_cycle_detection;
use dqc_core::distinctness::{classical_distinctness, DistinctnessInstance};
use dqc_core::framework::{CongestOracle, StoredValues};
use dqc_core::scheduling::{classical_meeting_scheduling, MeetingInstance};
use pquery::oracle::BatchSource;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = congest::Graph> {
    (4usize..24, 0u64..300).prop_map(|(n, seed)| random_connected_m(n, n - 1 + n / 3, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracle_queries_equal_reference_fold(
        g in arb_graph(),
        k in 2usize..40,
        op_pick in 0usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let op = [CommOp::Sum, CommOp::Xor, CommOp::Min, CommOp::Max, CommOp::Or, CommOp::And][op_pick];
        let n = g.n();
        let q = 20u64;
        let lim = if op == CommOp::Sum { ((1u64 << q) - 1) / n as u64 } else { (1u64 << q) - 1 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let local: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..k).map(|_| rng.gen_range(0..=lim)).collect())
            .collect();
        let provider = StoredValues::new(local.clone(), q, op);
        let net = Network::new(&g);
        let p = 1 + (k / 3).min(5);
        let mut oracle = CongestOracle::setup(&net, provider, p, seed).unwrap();
        // Query a few random batches and check against the fold.
        for _ in 0..3 {
            let width = 1 + rng.gen_range(0..p);
            let batch: Vec<usize> = (0..width).map(|_| rng.gen_range(0..k)).collect();
            let got = oracle.query(&batch);
            for (slot, &j) in batch.iter().enumerate() {
                let want = op.fold(local.iter().map(|v| v[j]));
                prop_assert_eq!(got[slot], want);
            }
        }
        // peek agrees with the fold too.
        for j in 0..k {
            let want = op.fold(local.iter().map(|v| v[j]));
            prop_assert_eq!(oracle.peek(j), want);
        }
    }

    #[test]
    fn classical_scheduling_always_exact(
        g in arb_graph(),
        k in 1usize..50,
        seed in any::<u64>(),
    ) {
        let inst = MeetingInstance::random(g.n(), k, 0.4, seed);
        let net = Network::new(&g);
        let res = classical_meeting_scheduling(&net, &inst, seed).unwrap();
        prop_assert_eq!(res.attendance, inst.best_attendance());
        prop_assert_eq!(inst.attendance()[res.slot], res.attendance);
    }

    /// The row-major ground truth equals the column-wise definition
    /// `Σ_v x_i^{(v)}`, and its best slot is the column-wise maximum.
    #[test]
    fn attendance_matches_the_column_wise_definition(
        n in 1usize..30,
        k in 1usize..200,
        p_free in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let inst = MeetingInstance::random(n, k, p_free, seed);
        let column_wise: Vec<u64> = (0..k)
            .map(|i| inst.availability.iter().filter(|row| row[i]).count() as u64)
            .collect();
        prop_assert_eq!(inst.attendance(), column_wise.clone());
        prop_assert_eq!(inst.best_attendance(), column_wise.into_iter().max().unwrap());
    }

    #[test]
    fn classical_distinctness_always_exact(
        g in arb_graph(),
        k in 4usize..60,
        plant in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let plant_pair = plant.then_some((0, k - 1));
        let inst = DistinctnessInstance::random(g.n(), k, plant_pair, seed);
        let net = Network::new(&g);
        let res = classical_distinctness(&net, &inst, seed).unwrap();
        prop_assert_eq!(res.pair, inst.true_pair());
    }

    #[test]
    fn classical_cycle_detection_matches_reference(
        g in arb_graph(),
        k_pick in 0usize..3,
    ) {
        let k = [4usize, 6, 10][k_pick];
        let net = Network::new(&g);
        let res = classical_cycle_detection(&net, k, 5).unwrap();
        let want = g.girth().filter(|&gl| gl as usize <= k).map(|gl| gl as usize);
        prop_assert_eq!(res.length, want);
    }

    #[test]
    fn rounds_are_positive_and_ledger_sums(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let inst = MeetingInstance::random(g.n(), 12, 0.5, seed);
        let net = Network::new(&g);
        let res = classical_meeting_scheduling(&net, &inst, seed).unwrap();
        prop_assert!(res.rounds > 0);
        prop_assert_eq!(res.rounds, res.ledger.total_rounds());
    }
}
