//! The experiment suite: one experiment per theorem/lemma of the paper
//! (see EXPERIMENTS.md for the index and recorded results).
//!
//! Every experiment returns a [`Table`] whose *measured* columns come from
//! executing protocols on the `congest` engine (or batch ledgers of the
//! `pquery` emulations) and whose *theory* columns are the paper's bounds;
//! notes record log-log scaling fits where a power law is claimed.

use crate::harness::{cell_seed, parallel_cells};
use crate::table::{loglog_slope, Table};
use congest::generators::{
    cycle_with_body, double_star, dumbbell, grid, path, random_connected_m, random_tree,
};
use congest::graph::{Dist, Graph};
use congest::runtime::Network;
use congest::tree_comm::{distribute_register, Register, Schedule};
use dqc_core::amplification::{amplitude_amplification, PreparationSubroutine};
use dqc_core::cycles::{
    classical_cycle_detection, quantum_cycle_detection, quantum_cycle_detection_clustered,
};
use dqc_core::deutsch_jozsa::{classical_exact_dj, quantum_dj, DjInstance};
use dqc_core::distinctness::{
    classical_distinctness, quantum_distinctness, quantum_distinctness_between_nodes,
    DistinctnessInstance,
};
use dqc_core::eccentricity::{
    classical_diameter_radius, quantum_average_eccentricity, quantum_diameter, quantum_radius,
    EccExtremeResult,
};
use dqc_core::estimation::{distributed_amplitude_estimation, distributed_phase_estimation};
use dqc_core::exact::{exact_distribute_roundtrip, exact_distributed_dj};
use dqc_core::girth::{classical_girth, quantum_girth};
use dqc_core::scheduling::{
    classical_meeting_scheduling, quantum_meeting_scheduling, MeetingInstance,
};
use pquery::deutsch_jozsa::DjAnswer;
use pquery::oracle::{BatchSource, VecSource};
use qsim::complex::c64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Experiment scale: `Quick` for CI-sized runs, `Full` for the recorded
/// EXPERIMENTS.md numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale parameters.
    Quick,
    /// The parameters recorded in EXPERIMENTS.md.
    Full,
}

fn fmt_f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// A connected random graph of `n` nodes with ~3n/2 edges (keeps `D`
/// moderate and comparable across sizes).
fn sized_graph(n: usize, seed: u64) -> Graph {
    random_connected_m(n, n + n / 2, seed)
}

// ---------------------------------------------------------------------
// E1 — Lemma 7: pipelined state distribution.
// ---------------------------------------------------------------------

/// E1: distribute a `q`-qubit register over a depth-`D` path; pipelining
/// must cost `O(D + q/log n)` while store-and-forward costs
/// `O(D·q/log n)`.
pub fn e1_distribute(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1",
        "Lemma 7: register distribution with pipelining",
        "pipelined rounds ≈ D + q/log n; naive ≈ D·q/log n",
        &["D", "q", "pipelined", "naive", "theory D+q/B", "ratio naive/pipe"],
    );
    let ds: &[usize] = match scale {
        Scale::Quick => &[8, 32],
        Scale::Full => &[8, 32, 128],
    };
    let qs: &[u64] = match scale {
        Scale::Quick => &[64, 1024],
        Scale::Full => &[64, 1024, 8192],
    };
    let mut fits = Vec::new();
    for &d in ds {
        let g = path(d + 1);
        let net = Network::new(&g);
        let tree = congest::bfs::build_bfs_tree(&net, 0).expect("path is connected");
        for &q in qs {
            let reg = Register::zeros(q);
            let (_, pipe) =
                distribute_register(&net, &tree.views, reg.clone(), Schedule::Pipelined)
                    .expect("distribute");
            let (_, naive) = distribute_register(&net, &tree.views, reg, Schedule::StoreAndForward)
                .expect("distribute");
            let chunk = net.cap_bits() - 1;
            let theory = d as f64 + q as f64 / chunk as f64;
            fits.push((theory, pipe.rounds as f64));
            t.row(vec![
                d.to_string(),
                q.to_string(),
                pipe.rounds.to_string(),
                naive.rounds.to_string(),
                fmt_f(theory),
                fmt_f(naive.rounds as f64 / pipe.rounds as f64),
            ]);
        }
    }
    let slope = loglog_slope(&fits);
    t.note(format!("log-log slope of pipelined rounds vs (D + q/B): {slope:.3} (theory 1.0)"));
    t
}

// ---------------------------------------------------------------------
// E2 — Lemma 2: parallel Grover batches.
// ---------------------------------------------------------------------

/// E2: measured parallel-Grover batch counts vs `⌈√(k/(tp))⌉`.
pub fn e2_parallel_grover(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2",
        "Lemma 2: parallel Grover search",
        "find-one batches = O(⌈√(k/(tp))⌉); find-all = O(√(kt/p)+t)",
        &["k", "t", "p", "b(one) meas", "b(one) theory", "b(all) meas", "b(all) theory"],
    );
    let runs = match scale {
        Scale::Quick => 15,
        Scale::Full => 60,
    };
    let ks: &[usize] = match scale {
        Scale::Quick => &[1024, 4096],
        Scale::Full => &[1024, 4096, 16384],
    };
    let mut cells: Vec<(usize, usize, usize)> = Vec::new();
    for &k in ks {
        for &tm in &[1usize, 9] {
            for &p in &[1usize, 16] {
                cells.push((k, tm, p));
            }
        }
    }
    let measured = parallel_cells(&cells, |idx, &(k, tm, p)| {
        let mut rng = StdRng::seed_from_u64(cell_seed(2, idx));
        let mut sum_one = 0usize;
        let mut sum_all = 0usize;
        for r in 0..runs {
            let mut data = vec![0u64; k];
            for j in 0..tm {
                data[(j * 797 + r * 31) % k] = 1;
            }
            let mut src = VecSource::new(data.clone(), p);
            sum_one += pquery::grover::search_one(&mut src, &|v| v != 0, &mut rng).batches;
            let mut src = VecSource::new(data, p);
            sum_all += pquery::grover::search_all(&mut src, &|v| v != 0, &mut rng).1;
        }
        (sum_one as f64 / runs as f64, sum_all as f64 / runs as f64)
    });
    let mut fits = Vec::new();
    for (&(k, tm, p), &(mone, mall)) in cells.iter().zip(&measured) {
        let th_one = pquery::complexity::grover_one_batches(k, tm, p);
        let th_all = pquery::complexity::grover_all_batches(k, tm, p);
        fits.push((th_one, mone));
        t.row(vec![
            k.to_string(),
            tm.to_string(),
            p.to_string(),
            fmt_f(mone),
            fmt_f(th_one),
            fmt_f(mall),
            fmt_f(th_all),
        ]);
    }
    t.note(format!(
        "log-log slope of measured b(one) vs √(k/(tp)): {:.3} (theory 1.0)",
        loglog_slope(&fits)
    ));
    t
}

// ---------------------------------------------------------------------
// E3 — Lemma 3: parallel minimum finding.
// ---------------------------------------------------------------------

/// E3: measured minimum-finding batches vs `⌈√(k/(ℓp))⌉`.
pub fn e3_parallel_minimum(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3",
        "Lemma 3: parallel minimum finding (Dürr–Høyer)",
        "batches = O(⌈√(k/(ℓp))⌉) with ℓ-fold minima",
        &["k", "p", "ℓ", "b meas", "b theory", "correct%"],
    );
    let runs = match scale {
        Scale::Quick => 15,
        Scale::Full => 50,
    };
    let ks: &[usize] = match scale {
        Scale::Quick => &[1024, 8192],
        Scale::Full => &[1024, 8192, 65536],
    };
    let mut cells: Vec<(usize, usize, usize)> = Vec::new();
    for &k in ks {
        for &p in &[1usize, 16] {
            for &ell in &[1usize, 16] {
                cells.push((k, p, ell));
            }
        }
    }
    let measured = parallel_cells(&cells, |idx, &(k, p, ell)| {
        let mut rng = StdRng::seed_from_u64(cell_seed(3, idx));
        let mut sum = 0usize;
        let mut correct = 0usize;
        for r in 0..runs {
            let mut data: Vec<u64> =
                (0..k).map(|i| 100 + ((i as u64 * 48271 + r as u64) % 100_000)).collect();
            for j in 0..ell {
                data[(j * 1103 + r * 13) % k] = 1;
            }
            let mut src = VecSource::new(data, p);
            let out = pquery::minimum::find_extremum_with_multiplicity(
                &mut src,
                pquery::minimum::Extremum::Min,
                ell,
                &mut rng,
            );
            sum += out.batches;
            correct += (out.value == 1) as usize;
        }
        (sum as f64 / runs as f64, correct)
    });
    let mut fits = Vec::new();
    for (&(k, p, ell), &(meas, correct)) in cells.iter().zip(&measured) {
        let theory = pquery::complexity::minimum_multiplicity_batches(k, ell, p);
        fits.push((theory, meas));
        t.row(vec![
            k.to_string(),
            p.to_string(),
            ell.to_string(),
            fmt_f(meas),
            fmt_f(theory),
            format!("{}", correct * 100 / runs),
        ]);
    }
    t.note(format!(
        "log-log slope of measured b vs √(k/(ℓp)): {:.3} (theory 1.0)",
        loglog_slope(&fits)
    ));
    t
}

// ---------------------------------------------------------------------
// E4 — Lemma 5: parallel element distinctness.
// ---------------------------------------------------------------------

/// E4: measured distinctness batches vs `⌈(k/p)^{2/3}⌉`.
pub fn e4_parallel_distinctness(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4",
        "Lemma 5: parallel element distinctness (Johnson walk)",
        "batches = O(⌈(k/p)^{2/3}⌉)",
        &["k", "p", "b meas", "b theory", "found%"],
    );
    let runs = match scale {
        Scale::Quick => 8,
        Scale::Full => 25,
    };
    let ks: &[usize] = match scale {
        Scale::Quick => &[512, 2048],
        Scale::Full => &[512, 2048, 8192, 32768],
    };
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for &k in ks {
        for &p in &[1usize, 8, 64] {
            cells.push((k, p));
        }
    }
    let measured = parallel_cells(&cells, |idx, &(k, p)| {
        let mut rng = StdRng::seed_from_u64(cell_seed(4, idx));
        let mut sum = 0usize;
        let mut found = 0usize;
        for r in 0..runs {
            let mut data: Vec<u64> = (0..k as u64).map(|i| 10_000 + i).collect();
            let (i, j) = ((r * 37) % k, (r * 151 + k / 3) % k);
            if i != j {
                data[j] = data[i];
            }
            let mut src = VecSource::new(data, p);
            let out = pquery::distinctness::element_distinctness(&mut src, &mut rng);
            sum += out.batches;
            found += out.pair.is_some() as usize;
        }
        (sum as f64 / runs as f64, found)
    });
    let mut fits = Vec::new();
    for (&(k, p), &(meas, found)) in cells.iter().zip(&measured) {
        let theory = pquery::complexity::distinctness_batches(k, p);
        fits.push((theory, meas));
        t.row(vec![
            k.to_string(),
            p.to_string(),
            fmt_f(meas),
            fmt_f(theory),
            format!("{}", found * 100 / runs),
        ]);
    }
    t.note(format!(
        "log-log slope of measured b vs (k/p)^(2/3): {:.3} (theory 1.0)",
        loglog_slope(&fits)
    ));
    t
}

// ---------------------------------------------------------------------
// E5 — Lemma 6: parallel mean estimation.
// ---------------------------------------------------------------------

/// E5: mean-estimation batches vs `Õ(σ/(√p·ε))`, and the estimate error.
pub fn e5_parallel_mean(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5",
        "Lemma 6: parallel mean estimation",
        "batches = Õ(σ/(√p·ε)); |estimate − μ| ≤ ε w.p. 2/3",
        &["ε", "p", "b meas", "b theory", "max|err|/ε over runs"],
    );
    let runs = match scale {
        Scale::Quick => 6,
        Scale::Full => 20,
    };
    let k = 4000usize;
    let data: Vec<u64> = (0..k).map(|i| (i % 200) as u64).collect();
    let mu = data.iter().map(|&v| v as f64).sum::<f64>() / k as f64;
    let sigma = {
        let var = data.iter().map(|&v| (v as f64 - mu).powi(2)).sum::<f64>() / k as f64;
        var.sqrt()
    };
    let mut cells: Vec<(f64, usize)> = Vec::new();
    for &eps in &[8.0f64, 2.0, 0.5] {
        for &p in &[1usize, 16] {
            cells.push((eps, p));
        }
    }
    let measured = parallel_cells(&cells, |idx, &(eps, p)| {
        let mut rng = StdRng::seed_from_u64(cell_seed(5, idx));
        let mut sum = 0usize;
        let mut worst: f64 = 0.0;
        for _ in 0..runs {
            let mut src = VecSource::new(data.clone(), p);
            let out = pquery::mean::estimate_mean(&mut src, sigma, eps, &mut rng);
            sum += out.batches;
            worst = worst.max((out.estimate - mu).abs() / eps);
        }
        (sum as f64 / runs as f64, worst)
    });
    for (&(eps, p), &(meas, worst)) in cells.iter().zip(&measured) {
        t.row(vec![
            fmt_f(eps),
            p.to_string(),
            fmt_f(meas),
            fmt_f(pquery::complexity::mean_batches(sigma, eps, p)),
            fmt_f(worst),
        ]);
    }
    t.note("max|err|/ε ≤ 3 always; ≤ 1 in ≥ 2/3 of runs (Lemma 6's guarantee)".to_string());
    t
}

// ---------------------------------------------------------------------
// E6 — Lemma 10/11: meeting scheduling in CONGEST.
// ---------------------------------------------------------------------

/// E6: quantum vs classical meeting-scheduling rounds on a dumbbell of
/// hub distance `D`, sweeping `k`.
pub fn e6_meeting_scheduling(scale: Scale) -> Table {
    let mut t = Table::new(
        "E6",
        "Meeting scheduling (Lemmas 10–11)",
        "quantum Õ(√(kD)+D) vs classical Θ(k+D); classical LB Ω(k/log n + D)",
        &["k", "D", "quantum", "classical", "√(kD) bound", "classical LB", "q correct"],
    );
    let ks: &[usize] = match scale {
        Scale::Quick => &[256, 1024, 4096],
        Scale::Full => &[256, 1024, 4096, 16384],
    };
    let dlen = 12usize;
    let (g, _) = dumbbell(6, 6, dlen);
    let net = Network::new(&g);
    let d = g.diameter().unwrap() as usize;
    let n = g.n();
    let mut fits = Vec::new();
    for &k in ks {
        let inst = MeetingInstance::random(n, k, 0.3, k as u64);
        let q = quantum_meeting_scheduling(&net, &inst, 7).expect("quantum run");
        let c = classical_meeting_scheduling(&net, &inst, 7).expect("classical run");
        let ub = dqc_core::scheduling::quantum_upper_bound(k, d, n);
        let lb = dqc_core::scheduling::classical_lower_bound(k, d, n);
        fits.push((k as f64, q.rounds as f64));
        t.row(vec![
            k.to_string(),
            d.to_string(),
            q.rounds.to_string(),
            c.rounds.to_string(),
            fmt_f(ub),
            fmt_f(lb),
            (q.attendance == inst.best_attendance()).to_string(),
        ]);
    }
    t.note(format!(
        "log-log slope of quantum rounds vs k: {:.3} (theory 0.5; classical is 1.0)",
        loglog_slope(&fits)
    ));
    t
}

// ---------------------------------------------------------------------
// E7 — Lemmas 12–15: element distinctness in CONGEST.
// ---------------------------------------------------------------------

/// E7: quantum vs classical distributed-vector distinctness, sweeping `k`;
/// plus the between-nodes variant on a double star.
pub fn e7_distinctness(scale: Scale) -> Table {
    let mut t = Table::new(
        "E7",
        "Element distinctness (Lemmas 12–15)",
        "quantum Õ(k^{2/3}D^{1/3}+D) vs classical Θ(k+D)",
        &["variant", "k", "D", "quantum", "classical", "k^{2/3}D^{1/3} bound", "pair ok"],
    );
    let ks: &[usize] = match scale {
        Scale::Quick => &[256, 1024],
        Scale::Full => &[256, 1024, 4096, 16384],
    };
    let (g, _) = dumbbell(5, 5, 10);
    let net = Network::new(&g);
    let d = g.diameter().unwrap() as usize;
    let n = g.n();
    let mut fits = Vec::new();
    for &k in ks {
        let inst = DistinctnessInstance::random(n, k, Some((k / 5, 4 * k / 5)), k as u64);
        let q = quantum_distinctness(&net, &inst, 11).expect("quantum");
        let c = classical_distinctness(&net, &inst, 11).expect("classical");
        let ub = dqc_core::distinctness::quantum_upper_bound(k, d, n, inst.n_bound);
        fits.push((k as f64, q.rounds as f64));
        let pair_ok = match q.pair {
            Some(p) => p == inst.true_pair().unwrap(),
            None => false,
        };
        t.row(vec![
            "vector".into(),
            k.to_string(),
            d.to_string(),
            q.rounds.to_string(),
            c.rounds.to_string(),
            fmt_f(ub),
            pair_ok.to_string(),
        ]);
    }
    // Between-nodes variant (Corollary 14) on the Lemma 15 topology.
    let g = double_star(12, 12);
    let net = Network::new(&g);
    let mut values: Vec<u64> = (0..g.n() as u64).map(|v| 500 + v).collect();
    values[20] = values[3];
    let q = quantum_distinctness_between_nodes(&net, &values, 4).expect("between nodes");
    t.row(vec![
        "between-nodes".into(),
        g.n().to_string(),
        g.diameter().unwrap().to_string(),
        q.rounds.to_string(),
        "-".into(),
        fmt_f(dqc_core::distinctness::quantum_upper_bound(g.n(), 3, g.n(), 600)),
        q.pair.map(|(i, j)| values[i] == values[j]).unwrap_or(false).to_string(),
    ]);
    t.note(format!(
        "log-log slope of quantum rounds vs k: {:.3} (theory 2/3 ≈ 0.667; classical is 1.0)",
        loglog_slope(&fits)
    ));
    t
}

// ---------------------------------------------------------------------
// E8 — Theorems 17–18: distributed Deutsch–Jozsa.
// ---------------------------------------------------------------------

/// E8: exact quantum vs exact classical Deutsch–Jozsa rounds, sweeping `k`
/// — the exponential separation.
pub fn e8_deutsch_jozsa(scale: Scale) -> Table {
    let mut t = Table::new(
        "E8",
        "Distributed Deutsch–Jozsa (Theorems 17–18)",
        "quantum O(D·⌈log k/log n⌉) (exact!) vs classical exact Ω(k/log n + D)",
        &["k", "quantum", "classical exact", "classical LB", "both correct"],
    );
    let ks: &[usize] = match scale {
        Scale::Quick => &[64, 1024, 16384],
        Scale::Full => &[64, 1024, 16384, 131072],
    };
    let g = path(16);
    let net = Network::new(&g);
    let n = g.n();
    let d = g.diameter().unwrap() as usize;
    for &k in ks {
        let ans = if k % 2 == 0 { DjAnswer::Balanced } else { DjAnswer::Constant };
        let inst = DjInstance::random(n, k, ans, k as u64);
        let q = quantum_dj(&net, &inst, 5).expect("network").expect("promise");
        let c = classical_exact_dj(&net, &inst, 5).expect("classical");
        t.row(vec![
            k.to_string(),
            q.rounds.to_string(),
            c.rounds.to_string(),
            fmt_f(dqc_core::deutsch_jozsa::classical_lower_bound(k, d, n)),
            (q.answer == ans && c.answer == ans).to_string(),
        ]);
    }
    t.note("quantum rounds are flat in k (log-factor only): the exponential separation");
    t
}

// ---------------------------------------------------------------------
// E9 — Lemma 21: diameter and radius.
// ---------------------------------------------------------------------

/// E9: quantum `O(√(nD))` diameter/radius vs the classical `Θ(n)`
/// baseline, sweeping `n`.
pub fn e9_diameter_radius(scale: Scale) -> Table {
    let mut t = Table::new(
        "E9",
        "Diameter & radius (Lemmas 20–21)",
        "quantum O(√(nD)) vs classical Θ(n + D)",
        &["n", "D", "q-diam rounds", "classical rounds", "√(nD) bound", "diam ok", "radius ok"],
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[100, 200, 400],
        Scale::Full => &[100, 200, 400, 800, 1600, 3200],
    };
    use E9Cell::{Classical, Quantum, Truth};
    // One cell per (n, driver), largest n first so the longest cells start
    // first; every driver has a fixed seed, so the schedule cannot change
    // a row.
    let drivers: [fn(&Graph) -> E9Cell; 4] = [
        |g| {
            // One centralized APSP gives both ground truths.
            let ecc = g.eccentricities().expect("connected");
            Truth(*ecc.iter().max().expect("n >= 1"), *ecc.iter().min().expect("n >= 1"))
        },
        |g| Quantum(quantum_diameter(&Network::new(g), 9).expect("quantum diameter")),
        |g| Quantum(quantum_radius(&Network::new(g), 9).expect("quantum radius")),
        |g| {
            let (cd, cr, rounds, _) =
                classical_diameter_radius(&Network::new(g), 9).expect("classical");
            Classical(cd, cr, rounds)
        },
    ];
    let cells: Vec<_> = ns.iter().rev().flat_map(|&n| drivers.map(|run| (n, run))).collect();
    let results = parallel_cells(&cells, |_, &(n, run)| run(&sized_graph(n, n as u64)));
    let mut fits = Vec::new();
    let mut qcurve = Vec::new();
    let mut ccurve = Vec::new();
    for (&n, row) in ns.iter().zip(results.chunks_exact(drivers.len()).rev()) {
        let &[Truth(d, radius), Quantum(ref q), Quantum(ref r), Classical(cd, cr, c_rounds)] = row
        else {
            unreachable!("one result per driver, in driver order");
        };
        assert_eq!(cd, d);
        assert_eq!(cr, radius);
        let ub = dqc_core::eccentricity::quantum_upper_bound(n, d as usize);
        fits.push(((n as f64 * d as f64).sqrt(), q.rounds as f64));
        qcurve.push((n as f64, q.rounds as f64));
        ccurve.push((n as f64, c_rounds as f64));
        t.row(vec![
            n.to_string(),
            d.to_string(),
            q.rounds.to_string(),
            c_rounds.to_string(),
            fmt_f(ub),
            (q.value == d).to_string(),
            (r.value == radius).to_string(),
        ]);
    }
    t.note(format!(
        "log-log slope of quantum rounds vs √(nD): {:.3} (theory 1.0)",
        loglog_slope(&fits)
    ));
    if let Some(x) = crossover_extrapolation(&qcurve, &ccurve) {
        t.note(format!(
            "quantum slope {:.2} vs classical slope {:.2}; curves cross at n ≈ {:.0} (extrapolated)",
            loglog_slope(&qcurve),
            loglog_slope(&ccurve),
            x
        ));
    }
    t
}

/// The result of one E9 cell.
enum E9Cell {
    /// Centralized ground truth: `(diameter, radius)`.
    Truth(Dist, Dist),
    /// A quantum diameter or radius run.
    Quantum(EccExtremeResult),
    /// The classical baseline: `(diameter, radius, rounds)`.
    Classical(Dist, Dist, usize),
}

/// Extrapolate where two log-log-linear curves intersect (the crossover
/// size beyond which the flatter curve wins).
fn crossover_extrapolation(a: &[(f64, f64)], b: &[(f64, f64)]) -> Option<f64> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let sa = loglog_slope(a);
    let sb = loglog_slope(b);
    // Intercepts through the last point of each curve.
    let (xa, ya) = *a.last()?;
    let (xb, yb) = *b.last()?;
    let ia = ya.ln() - sa * xa.ln();
    let ib = yb.ln() - sb * xb.ln();
    if (sa - sb).abs() < 1e-9 {
        return None;
    }
    let lx = (ib - ia) / (sa - sb);
    let x = lx.exp();
    if x.is_finite() && x > 0.0 {
        Some(x)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// E10 — Lemma 22: average eccentricity.
// ---------------------------------------------------------------------

/// E10: `ε`-additive average eccentricity: rounds vs `D^{3/2}/ε`, error
/// within `ε`.
pub fn e10_average_eccentricity(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10",
        "Average eccentricity (Lemma 22)",
        "rounds = Õ(D^{3/2}/ε); error ≤ ε w.p. 2/3",
        &["graph", "D", "ε", "rounds", "Õ(D^{3/2}/ε) bound", "|err|", "ok"],
    );
    let graphs: Vec<(&str, Graph)> = match scale {
        Scale::Quick => vec![("grid 10×8", grid(10, 8))],
        Scale::Full => vec![("grid 10×8", grid(10, 8)), ("grid 20×12", grid(20, 12))],
    };
    for (name, g) in graphs {
        let truth = g.average_eccentricity().unwrap();
        let d = g.diameter().unwrap() as usize;
        let net = Network::new(&g);
        for &eps in &[4.0f64, 2.0, 1.0] {
            let res = quantum_average_eccentricity(&net, eps, 13).expect("avg ecc");
            let err = (res.estimate - truth).abs();
            t.row(vec![
                name.into(),
                d.to_string(),
                fmt_f(eps),
                res.rounds.to_string(),
                fmt_f(dqc_core::eccentricity::avg_ecc_upper_bound(d, eps)),
                fmt_f(err),
                (err <= 3.0 * eps).to_string(),
            ]);
        }
    }
    t.note("error ≤ 3ε always; ≤ ε with the lemma's probability");
    t
}

// ---------------------------------------------------------------------
// E11 — Lemmas 23 & 25: cycle detection.
// ---------------------------------------------------------------------

/// E11: cycle-of-length-≤k detection: Lemma 23, the clustered Lemma 25,
/// and the classical all-sources baseline, sweeping `n`.
pub fn e11_cycle_detection(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11",
        "Cycle detection (Lemmas 23, 25)",
        "quantum O(D + (Dn)^{1/2−1/(4⌈k/2⌉+2)}), clustered removes the D term",
        &["n", "girth", "k", "quantum", "clustered", "classical", "found"],
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[60, 120],
        Scale::Full => &[60, 120, 240, 480],
    };
    for &n in ns {
        let gl = 6usize;
        let g = cycle_with_body(gl, n - gl, n as u64);
        let net = Network::new(&g);
        let q = quantum_cycle_detection(&net, gl, 3).expect("lemma 23");
        let cl = quantum_cycle_detection_clustered(&net, gl, 3).expect("lemma 25");
        let c = classical_cycle_detection(&net, gl, 3).expect("classical");
        assert_eq!(c.length, Some(gl), "classical detector is exact");
        t.row(vec![
            format!("{n} (light)"),
            gl.to_string(),
            gl.to_string(),
            q.rounds.to_string(),
            cl.rounds.to_string(),
            c.rounds.to_string(),
            format!("{:?}/{:?}/{:?}", q.length, cl.length, c.length),
        ]);
    }
    // Heavy cycles: the cycle passes through a degree-Ω(n) hub, so the
    // classical truncated flood congests at the hub while the heavy-phase
    // minimum finding exploits the n^β-fold multiplicity.
    for &n in ns {
        let gl = 6usize;
        let g = congest::generators::hub_cycle(n, gl);
        let net = Network::new(&g);
        let q = quantum_cycle_detection(&net, gl, 5).expect("lemma 23 heavy");
        let c = classical_cycle_detection(&net, gl, 5).expect("classical heavy");
        t.row(vec![
            format!("{n} (heavy)"),
            gl.to_string(),
            gl.to_string(),
            q.rounds.to_string(),
            "-".into(),
            c.rounds.to_string(),
            format!("{:?}/-/{:?}", q.length, c.length),
        ]);
    }
    t.note("one-sided error: a reported length is always a real cycle length");
    t.note("heavy rows: the cycle passes through a degree-Ω(n) hub — the classical flood pays the hub congestion");
    t
}

// ---------------------------------------------------------------------
// E12 — Corollary 26: girth.
// ---------------------------------------------------------------------

/// E12: girth computation vs the classical baseline and the `Ω(√n)`
/// classical lower bound.
pub fn e12_girth(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12",
        "Girth (Corollary 26)",
        "quantum Õ(g + (gn)^{1/2−1/Θ(g)}) vs classical Ω(√n) LB / Θ(n) baseline",
        &["n", "girth", "quantum", "classical", "√n LB", "q girth", "c girth"],
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[60, 150],
        Scale::Full => &[60, 150, 400, 1000],
    };
    for &n in ns {
        let gl = 5usize;
        let g = cycle_with_body(gl, n - gl, 7 * n as u64);
        let net = Network::new(&g);
        let q = quantum_girth(&net, 0.5, 3).expect("quantum girth");
        let c = classical_girth(&net, 3).expect("classical girth");
        assert_eq!(c.girth, Some(gl));
        t.row(vec![
            n.to_string(),
            gl.to_string(),
            q.rounds.to_string(),
            c.rounds.to_string(),
            fmt_f(dqc_core::girth::classical_lower_bound(n)),
            format!("{:?}", q.girth),
            format!("{:?}", c.girth),
        ]);
    }
    t.note("quantum girth is one-sided: it never reports below the true girth");
    t
}

// ---------------------------------------------------------------------
// E13 — §6: amplitude amplification, phase & amplitude estimation.
// ---------------------------------------------------------------------

/// E13: non-oracle building blocks: measured rounds vs the §6 bounds.
pub fn e13_non_oracle(scale: Scale) -> Table {
    let mut t = Table::new(
        "E13",
        "Non-oracle techniques (§6: Lemmas 27–29, Corollary 30)",
        "AA O((R+D)/√p·log(1/δ)); QPE O(R/ε·log(1/δ)+D); AE O((R+D)√p_max/ε·log(1/δ))",
        &["technique", "params", "rounds", "bound", "outcome"],
    );
    let g = grid(6, 5);
    let net = Network::new(&g);
    let d = g.diameter().unwrap() as usize;
    let runs = match scale {
        Scale::Quick => 1,
        Scale::Full => 3,
    };
    for r in 0..runs {
        for &p in &[0.04f64, 0.01] {
            let res = amplitude_amplification(&net, PreparationSubroutine::new(16, p), 0.1, r)
                .expect("AA");
            t.row(vec![
                "amp-amplification".into(),
                format!("p={p}, δ=0.1"),
                res.rounds.to_string(),
                fmt_f(dqc_core::amplification::amplification_upper_bound(d, d, p, 0.1)),
                format!("success={}", res.success),
            ]);
        }
        for &eps in &[0.05f64, 0.01] {
            let res = distributed_phase_estimation(&net, 0.271, 3, eps, 0.1, r).expect("QPE");
            t.row(vec![
                "phase-estimation".into(),
                format!("ε={eps}, R=3"),
                res.rounds.to_string(),
                fmt_f(dqc_core::estimation::phase_estimation_upper_bound(3, d, eps, 0.1)),
                format!("|φ̂−φ|={:.4}", (res.phi - 0.271).abs()),
            ]);
        }
        let res = distributed_amplitude_estimation(&net, 0.2, 0.5, 4, 0.05, 0.1, r).expect("AE");
        t.row(vec![
            "amp-estimation".into(),
            "p=0.2, ε=0.05".into(),
            res.rounds.to_string(),
            fmt_f(dqc_core::estimation::amplitude_estimation_upper_bound(4, d, 0.5, 0.05, 0.1)),
            format!("p̂={:.3}", res.estimate),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E14 — exact-mode validation.
// ---------------------------------------------------------------------

/// E14: statevector validation of Lemma 7 and Theorem 17 — fidelities must
/// be 1 and Deutsch–Jozsa outcomes deterministic.
pub fn e14_exact_mode(_scale: Scale) -> Table {
    let mut t = Table::new(
        "E14",
        "Exact mode (statevector): Lemma 7 + Theorem 17",
        "distribute/gather fidelity = 1; distributed DJ outcome probability = 1",
        &["network", "q", "fidelity(dist)", "fidelity(roundtrip)", "DJ prob", "DJ ok"],
    );
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let cases: Vec<(&str, Graph, usize)> = vec![
        ("path(4)", path(4), 0),
        ("star(5)", congest::generators::star(5), 0),
        ("tree(2,2)", congest::generators::balanced_tree(2, 2), 0),
        ("random-tree(6)", random_tree(6, 5), 2),
    ];
    let mut rng = StdRng::seed_from_u64(14);
    for (name, g, leader) in cases {
        let amps = vec![c64(s, 0.0), c64(0.0, -s), c64(0.0, 0.0), c64(0.0, 0.0)];
        let res = exact_distribute_roundtrip(&g, leader, amps).expect("exact roundtrip");
        // Distributed DJ with k = 4 on the same network.
        let n = g.n();
        let k = 4usize;
        let balanced = rng.gen_bool(0.5);
        let mut local = vec![vec![false; k]; n];
        if balanced {
            local[n - 1] = vec![true, false, true, false];
        } else {
            local[n - 1] = vec![true, true, true, true];
        }
        let dj = exact_distributed_dj(&g, leader, &local).expect("exact DJ");
        let want = if balanced { DjAnswer::Balanced } else { DjAnswer::Constant };
        t.row(vec![
            name.into(),
            "2".into(),
            format!("{:.9}", res.distribute_fidelity),
            format!("{:.9}", res.roundtrip_fidelity),
            format!("{:.9}", dj.outcome_probability),
            (dj.answer == want).to_string(),
        ]);
    }
    t.note("nothing emulated here: the full protocol runs on a global statevector");
    t
}

/// The experiment suite: `(id, one-line description)` for every id
/// [`run_one`] accepts, in numeric order. This is what `reproduce --list`
/// prints.
pub fn catalog() -> &'static [(&'static str, &'static str)] {
    &[
        ("e1", "Lemma 7: register distribution with pipelining vs store-and-forward"),
        ("e2", "Lemma 2: parallel Grover search query/batch accounting"),
        ("e3", "Lemma 3: parallel minimum finding (Dürr–Høyer)"),
        ("e4", "Lemma 5: parallel element distinctness (Johnson walk)"),
        ("e5", "Lemma 6: parallel mean estimation"),
        ("e6", "Meeting scheduling in CONGEST (Lemmas 10–11)"),
        ("e7", "Element distinctness in CONGEST (Lemmas 12–15)"),
        ("e8", "Distributed Deutsch–Jozsa (Theorems 17–18)"),
        ("e9", "Diameter & radius (Lemmas 20–21)"),
        ("e10", "Average eccentricity (Lemma 22)"),
        ("e11", "Cycle detection (Lemmas 23, 25)"),
        ("e12", "Girth (Corollary 26)"),
        ("e13", "Non-oracle techniques (§6: Lemmas 27–29, Corollary 30)"),
        ("e14", "Exact statevector mode: Lemma 7 + Theorem 17"),
        ("e15", "Ablation: batch width p (the paper picks p = Θ(D))"),
        ("e16", "Ablation: per-edge bandwidth cap c·⌈log n⌉"),
        ("e17", "Success boosting: 2/3 → 1 − n^(−c)"),
        ("e18", "Extensions: Bernstein–Vazirani, exact even cycles, counting"),
        ("e19", "Fault tolerance: seeded drops vs the Reliable ack/retry wrapper"),
    ]
}

/// Look up an experiment by id ("e1".."e19", case-insensitive).
pub fn run_one(id: &str, scale: Scale) -> Option<Table> {
    match id.to_ascii_lowercase().as_str() {
        "e1" => Some(e1_distribute(scale)),
        "e2" => Some(e2_parallel_grover(scale)),
        "e3" => Some(e3_parallel_minimum(scale)),
        "e4" => Some(e4_parallel_distinctness(scale)),
        "e5" => Some(e5_parallel_mean(scale)),
        "e6" => Some(e6_meeting_scheduling(scale)),
        "e7" => Some(e7_distinctness(scale)),
        "e8" => Some(e8_deutsch_jozsa(scale)),
        "e9" => Some(e9_diameter_radius(scale)),
        "e10" => Some(e10_average_eccentricity(scale)),
        "e11" => Some(e11_cycle_detection(scale)),
        "e12" => Some(e12_girth(scale)),
        "e13" => Some(e13_non_oracle(scale)),
        "e14" => Some(e14_exact_mode(scale)),
        "e15" => Some(e15_batch_width_ablation(scale)),
        "e16" => Some(e16_bandwidth_ablation(scale)),
        "e17" => Some(e17_boosting(scale)),
        "e18" => Some(e18_extensions(scale)),
        "e19" => Some(e19_fault_tolerance(scale)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// E15 — ablation: the batch width p.
// ---------------------------------------------------------------------

/// E15: sweep `p` for fixed meeting-scheduling instances. The paper sets
/// `p = Θ(D)`; too-small `p` wastes the network on idle waits (the
/// Le Gall–Magniez issue the framework fixes), too-large `p` pays the
/// `p·⌈log k/log n⌉` distribution term without reducing batches.
pub fn e15_batch_width_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E15",
        "Ablation: batch width p (the paper picks p = Θ(D))",
        "rounds minimized near p = D; p = 1 degrades to sequential queries",
        &["p", "quantum rounds", "batches", "best slot ok"],
    );
    let (g, _) = dumbbell(6, 6, 12);
    let net = Network::new(&g);
    let d = g.diameter().unwrap() as usize;
    let k = match scale {
        Scale::Quick => 1024,
        Scale::Full => 4096,
    };
    let inst = MeetingInstance::random(g.n(), k, 0.3, 5);
    let best = inst.best_attendance();
    for p in [1usize, d / 2, d, 2 * d, 8 * d] {
        let p = p.max(1);
        // Re-run the Lemma 10 driver with an explicit p.
        let provider = dqc_core::framework::StoredValues::new(
            inst.availability.iter().map(|row| row.iter().map(|&b| b as u64).collect()).collect(),
            congest::graph::bits_for(g.n() as u64),
            congest::aggregate::CommOp::Sum,
        );
        let mut oracle =
            dqc_core::framework::CongestOracle::setup(&net, provider, p, 7).expect("setup");
        let mut rng = StdRng::seed_from_u64(77);
        let out =
            pquery::minimum::find_extremum(&mut oracle, pquery::minimum::Extremum::Max, &mut rng);
        t.row(vec![
            p.to_string(),
            oracle.rounds().to_string(),
            oracle.batches().to_string(),
            (out.value == best).to_string(),
        ]);
    }
    t.note(format!("D = {d}; the minimum sits near p = D, as Lemma 10 prescribes"));
    t
}

// ---------------------------------------------------------------------
// E16 — ablation: the bandwidth cap.
// ---------------------------------------------------------------------

/// E16: sweep the per-edge bandwidth factor `c` (cap = c·⌈log n⌉). The
/// model grants O(log n); halving it should roughly double register
/// streaming times, confirming the ⌈q/log n⌉ factors.
pub fn e16_bandwidth_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E16",
        "Ablation: per-edge bandwidth cap c·⌈log n⌉",
        "round counts carry the ⌈q/log n⌉ streaming factor of Lemma 7/Theorem 8",
        &["c", "cap bits", "DJ quantum rounds", "scheduling rounds"],
    );
    let g = path(16);
    let k = match scale {
        Scale::Quick => 1024,
        Scale::Full => 4096,
    };
    let dj = DjInstance::random(16, k, DjAnswer::Balanced, 3);
    let meet = MeetingInstance::random(16, 256, 0.3, 3);
    // c must cover the fixed protocol headers (a message carries up to two
    // ids plus tags), so the sweep starts at 3.
    for c in [3u64, 4, 8, 16] {
        let cap = c * congest::graph::bits_for(15);
        let net = Network::new(&g).with_bandwidth(cap);
        let djr = quantum_dj(&net, &dj, 5).expect("dj").expect("promise");
        let mr = quantum_meeting_scheduling(&net, &meet, 5).expect("scheduling");
        t.row(vec![c.to_string(), cap.to_string(), djr.rounds.to_string(), mr.rounds.to_string()]);
    }
    t.note("shrinking c inflates the streaming-dominated phases by the ⌈q/cap⌉ factor");
    t
}

// ---------------------------------------------------------------------
// E17 — boosting (the paper's conventions note).
// ---------------------------------------------------------------------

/// E17: success boosting to `1 − n^{−c}`: reliability and cost of the
/// `O(log n)`-repetition combiner.
pub fn e17_boosting(scale: Scale) -> Table {
    let mut t = Table::new(
        "E17",
        "Success boosting (conventions note: 2/3 → 1 − n^{-c})",
        "reps = ⌈c·ln n/ln 3⌉; one-sided combine never hurts soundness",
        &["c", "reps", "success rate", "rounds (vs single)"],
    );
    let g = sized_graph(80, 4);
    let truth = g.diameter().unwrap();
    let net = Network::new(&g);
    let trials = match scale {
        Scale::Quick => 4,
        Scale::Full => 10,
    };
    let single = dqc_core::eccentricity::quantum_diameter(&net, 0).expect("diameter").rounds;
    for c in [0.5f64, 1.0, 2.0] {
        let mut hits = 0;
        let mut rounds = 0;
        let mut reps = 0;
        for seed in 0..trials {
            let res = dqc_core::boosting::boosted_diameter(&net, c, seed as u64).expect("boosted");
            hits += (res.value == truth) as usize;
            rounds += res.rounds;
            reps = res.repetitions;
        }
        t.row(vec![
            format!("{c}"),
            reps.to_string(),
            format!("{hits}/{trials}"),
            format!("{} ({}x)", rounds / trials, rounds / trials / single.max(1)),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E18 — extensions: Bernstein–Vazirani, exact even cycles, counting.
// ---------------------------------------------------------------------

/// E18: the extension modules — distributed Bernstein–Vazirani (another
/// exact separation), exact even-cycle detection (§5.2 closing remark),
/// and quantum counting.
pub fn e18_extensions(scale: Scale) -> Table {
    let mut t = Table::new(
        "E18",
        "Extensions: Bernstein–Vazirani, exact even cycles, counting",
        "BV: O(D + m/log n) exact vs Θ(m) classical; C_k-exact one-sided; counting Õ(√D·k/ε)",
        &["experiment", "params", "quantum", "classical", "outcome"],
    );
    // Bernstein–Vazirani sweep over m.
    let g = path(12);
    let net = Network::new(&g);
    let ms: &[usize] = match scale {
        Scale::Quick => &[64, 1024],
        Scale::Full => &[64, 1024, 16384],
    };
    for &m in ms {
        let hidden: Vec<bool> = (0..m).map(|i| i % 7 == 0).collect();
        let inst = dqc_core::bernstein_vazirani::BvInstance::random(12, &hidden, m as u64);
        let q = dqc_core::bernstein_vazirani::quantum_bv(&net, &inst, 3).expect("bv");
        let c = dqc_core::bernstein_vazirani::classical_exact_bv(&net, &inst, 3).expect("bv");
        t.row(vec![
            "bernstein-vazirani".into(),
            format!("m={m}"),
            q.rounds.to_string(),
            c.rounds.to_string(),
            format!("exact={}", q.recovered == hidden && c.recovered == hidden),
        ]);
    }
    // Exact even cycles on grids (C4) and hypercubes (C6).
    let g = grid(6, 6);
    let net = Network::new(&g);
    let r = dqc_core::even_cycles::quantum_exact_even_cycle(&net, 4, 2).expect("C4");
    t.row(vec![
        "exact-C4".into(),
        "grid 6×6".into(),
        r.rounds.to_string(),
        "-".into(),
        format!("found={}", r.found),
    ]);
    let g = congest::generators::cycle(12);
    let net = Network::new(&g);
    let r = dqc_core::even_cycles::quantum_exact_even_cycle(&net, 6, 2).expect("C6");
    t.row(vec![
        "exact-C6".into(),
        "C12 (no C6)".into(),
        r.rounds.to_string(),
        "-".into(),
        format!("found={}", r.found),
    ]);
    // Distributed Simon: bounded-error exponential query separation.
    let g = path(8);
    let net = Network::new(&g);
    let ms: &[usize] = match scale {
        Scale::Quick => &[8, 10],
        Scale::Full => &[8, 10, 12, 14],
    };
    for &m in ms {
        let s_hidden = 1u64 << (m - 1) | 1;
        let inst = dqc_core::simon::SimonInstance::random(8, m, s_hidden, m as u64);
        let q = dqc_core::simon::quantum_simon(&net, &inst, 3).expect("simon");
        let c = dqc_core::simon::classical_birthday_simon(&net, &inst, 3).expect("simon");
        t.row(vec![
            "simon".into(),
            format!("m={m} (2^m={})", 1usize << m),
            format!("{} queries", q.queries),
            format!("{} queries", c.queries),
            format!("shift ok={}", q.shift == Some(s_hidden) && c.shift == Some(s_hidden)),
        ]);
    }
    // Quantum counting of quorum slots.
    let (g, _) = dumbbell(4, 4, 6);
    let net = Network::new(&g);
    let k = match scale {
        Scale::Quick => 1000,
        Scale::Full => 4000,
    };
    let inst = MeetingInstance::random(g.n(), k, 0.5, 11);
    let want = inst.attendance().iter().filter(|&&a| a >= 8).count() as f64;
    let eps = k as f64 / 10.0;
    let q =
        dqc_core::counting::quantum_count_quorum_slots(&net, &inst, 8, eps, 2).expect("counting");
    let c = dqc_core::counting::classical_count_quorum_slots(&net, &inst, 8, 2).expect("counting");
    t.row(vec![
        "quorum-counting".into(),
        format!("k={k}, ε={eps}"),
        q.rounds.to_string(),
        c.rounds.to_string(),
        format!(
            "err={:.0} (≤ε={eps}: {})",
            (q.estimate - want).abs(),
            (q.estimate - want).abs() <= eps
        ),
    ]);
    t
}

// ---------------------------------------------------------------------
// E19 — fault tolerance: Reliable-wrapped protocols under message loss.
// ---------------------------------------------------------------------

/// E19: the fault-injection subsystem end to end. Sweep the per-message
/// drop rate and compare each protocol's fault-free round count against
/// its `Reliable`-wrapped run under loss; correctness must hold at every
/// rate and the ack/retry overhead stay bounded. The note records the
/// conformance sweep: every cell audited and checked for correctness.
pub fn e19_fault_tolerance(scale: Scale) -> Table {
    use crate::harness::bfs_tree_is_valid;
    use congest::bfs::BfsTreeProtocol;
    use congest::conformance::FloodProtocol;
    use congest::faults::{FaultPlan, Reliable, RetryConfig};
    use congest::tree_comm::BroadcastRegisterProtocol;

    let mut t = Table::new(
        "E19",
        "Fault tolerance: seeded drops vs the Reliable ack/retry wrapper",
        "wrapped protocols stay correct at ≥10% loss; overhead = acks + retransmits",
        &[
            "protocol",
            "graph",
            "drop %",
            "clean rounds",
            "reliable rounds",
            "overhead ×",
            "dropped",
            "correct",
        ],
    );
    let rates: &[f64] = match scale {
        Scale::Quick => &[0.0, 0.1, 0.2],
        Scale::Full => &[0.0, 0.05, 0.1, 0.2, 0.3],
    };
    let topologies: Vec<(&str, Graph)> =
        vec![("grid(6x5)", grid(6, 5)), ("random(48)", sized_graph(48, 9))];
    let retry = RetryConfig::default();
    // A 48-bit register in 6-bit chunks: a Reliable data frame plus a
    // piggybacked ack fits the caps of both topologies.
    let reg = Register::from_value(48, 0x0BAD_CAFE_F00D);
    let chunk = 6u64;
    for (gname, g) in &topologies {
        let clean_net = Network::new(g);
        let views = congest::bfs::build_bfs_tree(&clean_net, 0).expect("connected").views;
        let flood_clean = clean_net.run(FloodProtocol::instances(g.n(), 0)).expect("flood");
        let bfs_clean = clean_net.run(BfsTreeProtocol::instances(g.n(), 0)).expect("bfs");
        let bcast_clean = clean_net
            .run(BroadcastRegisterProtocol::instances(
                &views,
                reg.clone(),
                chunk,
                Schedule::Pipelined,
            ))
            .expect("broadcast");
        for &rate in rates {
            let plan = FaultPlan::new(19).with_drop_rate(rate);
            let net = Network::new(g).with_faults(plan);

            let run = net
                .run(Reliable::wrap_all(FloodProtocol::instances(g.n(), 0), retry))
                .expect("reliable flood");
            let ok = run.nodes.iter().all(|r| r.inner().has_token);
            t.row(vec![
                "flood".into(),
                gname.to_string(),
                format!("{:.0}", rate * 100.0),
                flood_clean.stats.rounds.to_string(),
                run.stats.rounds.to_string(),
                fmt_f(run.stats.rounds as f64 / flood_clean.stats.rounds as f64),
                run.stats.dropped.to_string(),
                ok.to_string(),
            ]);

            let run = net
                .run(Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), retry))
                .expect("reliable bfs");
            let outcome: Vec<_> = run
                .nodes
                .iter()
                .map(|r| (r.inner().dist(), r.inner().tree_view().parent))
                .collect();
            let ok = bfs_tree_is_valid(g, 0, &outcome);
            t.row(vec![
                "bfs".into(),
                gname.to_string(),
                format!("{:.0}", rate * 100.0),
                bfs_clean.stats.rounds.to_string(),
                run.stats.rounds.to_string(),
                fmt_f(run.stats.rounds as f64 / bfs_clean.stats.rounds as f64),
                run.stats.dropped.to_string(),
                ok.to_string(),
            ]);

            let run = net
                .run(Reliable::wrap_all(
                    BroadcastRegisterProtocol::instances(
                        &views,
                        reg.clone(),
                        chunk,
                        Schedule::Pipelined,
                    ),
                    retry,
                ))
                .expect("reliable broadcast");
            let ok = run.nodes.iter().all(|r| r.inner().register() == &reg);
            t.row(vec![
                "broadcast".into(),
                gname.to_string(),
                format!("{:.0}", rate * 100.0),
                bcast_clean.stats.rounds.to_string(),
                run.stats.rounds.to_string(),
                fmt_f(run.stats.rounds as f64 / bcast_clean.stats.rounds as f64),
                run.stats.dropped.to_string(),
                ok.to_string(),
            ]);
        }
    }
    let cells = crate::harness::conformance_grid(19);
    let violations: usize = cells.iter().map(|c| c.violations).sum();
    let all_correct = cells.iter().all(|c| c.correct);
    t.note(format!(
        "conformance sweep: {} audited cells ({{flood, bfs, broadcast}} × 4 graphs × \
         {{fault-free, faulted}}), {violations} conformance violations, all correct: {all_correct}",
        cells.len()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_smoke_e1_e5() {
        for id in ["e1", "e2", "e3", "e4", "e5"] {
            let t = run_one(id, Scale::Quick).unwrap();
            assert!(!t.rows.is_empty(), "{id} produced no rows");
        }
    }

    #[test]
    fn quick_smoke_e14() {
        let t = e14_exact_mode(Scale::Quick);
        for row in &t.rows {
            assert!(row[2].starts_with("1.0") || row[2].starts_with("0.9999"));
            assert_eq!(row[5], "true");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_one("e99", Scale::Quick).is_none());
    }

    #[test]
    fn catalog_covers_the_suite_in_order() {
        let ids: Vec<String> = (1..=19).map(|i| format!("e{i}")).collect();
        assert_eq!(catalog().iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
        for (id, what) in catalog() {
            assert!(!what.is_empty(), "{id} has no description");
            assert!(!what.contains('\n'), "{id} description is not one line");
        }
    }

    #[test]
    fn every_catalog_id_has_a_telemetry_collector() {
        // `reproduce --telemetry` exits nonzero on an uncollectable id, so
        // the collector match must keep covering the whole catalog.
        for (id, _) in catalog() {
            assert!(crate::telemetry::collect(id, Scale::Quick).is_some(), "{id} uncollectable");
        }
    }
}
