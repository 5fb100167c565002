//! `diameter`: the E9 shape (Lemma 21). Each instance is a
//! `random_connected_m(n, 3n/2)` graph; it runs `quantum_diameter`,
//! `quantum_radius` and `classical_diameter_radius`. Time goes to the
//! engine (pipelined multi-source BFS waves, the classical all-sources
//! BFS) and to the centralized APSP inside each quantum call.

use super::{mix, network, traced_extremum, Size, Workload};
use crate::adapters::{OpError, TimedProvider};
use crate::layers::{add_classical_ledger, Counts};
use crate::span::{self, span};
use crate::tally::{print, Tally, Verdict};
use congest::generators::random_connected_m;
use congest::graph::{Dist, Graph};
use congest::runtime::{Network, RuntimeError};
use dqc_core::eccentricity::{
    classical_diameter_radius, quantum_diameter, quantum_radius, EccExtremeResult,
    EccentricityProvider,
};
use pquery::minimum::Extremum;

/// Graph size of each instance.
fn sizes(size: Size) -> Vec<usize> {
    match size {
        Size::Full => vec![1600],
        Size::Tiny => vec![40, 60],
    }
}

/// One graph with its ground truth.
pub struct Instance {
    graph: Graph,
    ecc: Vec<Dist>,
    seed: u64,
}

/// The `diameter` workload.
pub struct Diameter;

impl Workload for Diameter {
    type Inputs = Vec<Instance>;

    fn setup(seed: u64, size: Size) -> Vec<Instance> {
        sizes(size)
            .into_iter()
            .enumerate()
            .map(|(i, n)| {
                let seed = mix(seed, i as u64);
                let graph = span("graph.gen", || random_connected_m(n, n + n / 2, seed));
                let ecc = span("graph.truth", || graph.eccentricities().expect("connected"));
                Instance { graph, ecc, seed }
            })
            .collect()
    }

    fn networks(inputs: &Vec<Instance>) -> Vec<Network<'_>> {
        inputs.iter().map(|inst| network(&inst.graph)).collect()
    }

    fn pass(
        inputs: &Vec<Instance>,
        nets: &[Network<'_>],
        mut traced: Option<&mut Counts>,
    ) -> Tally {
        let mut tally = Tally::default();
        for (i, (inst, net)) in inputs.iter().zip(nets).enumerate() {
            span::set_instance(i as u32);
            let diameter = *inst.ecc.iter().max().expect("n >= 1");
            let radius = *inst.ecc.iter().min().expect("n >= 1");
            for (name, dir, truth) in [
                ("quantum_diameter", Extremum::Max, diameter),
                ("quantum_radius", Extremum::Min, radius),
            ] {
                tally.record(
                    format!("i{i}/{name}"),
                    || match traced.as_deref_mut() {
                        Some(counts) => traced_ecc_extremum(net, dir, inst.seed, counts),
                        None if dir == Extremum::Max => Ok(quantum_diameter(net, inst.seed)?),
                        None => Ok(quantum_radius(net, inst.seed)?),
                    },
                    |r| {
                        // The reported value must be the reported node's
                        // eccentricity (`find_extremum` reads it as ground
                        // truth, so this guards only its bookkeeping; the
                        // traced pass checks the network's values); whether
                        // it is the extremum is the bounded-error part.
                        let pass = inst.ecc.get(r.node) == Some(&r.value);
                        let v =
                            Verdict { pass, hit: Some(r.value == truth), cost: r.rounds as u64 };
                        (v, print(r.value as u64, r.rounds as u64, r.batches as u64))
                    },
                );
            }
            tally.record(
                format!("i{i}/classical_diameter_radius"),
                || {
                    let out =
                        span("engine.classical", || classical_diameter_radius(net, inst.seed))?;
                    if let Some(counts) = traced.as_deref_mut() {
                        add_classical_ledger(counts, &out.3);
                    }
                    Ok::<_, RuntimeError>(out)
                },
                |&(d, r, rounds, _)| {
                    let v = Verdict {
                        pass: d == diameter && r == radius,
                        hit: None,
                        cost: rounds as u64,
                    };
                    (v, print(u64::from(d) << 32 | u64::from(r), rounds as u64, 0))
                },
            );
        }
        tally
    }
}

/// `quantum_diameter` / `quantum_radius` rebuilt by [`traced_extremum`],
/// with the APSP of the eccentricity provider in its own span and the
/// multi-source BFS behind the value-provider adapter.
fn traced_ecc_extremum(
    net: &Network<'_>,
    dir: Extremum,
    seed: u64,
    counts: &mut Counts,
) -> Result<EccExtremeResult, OpError> {
    let provider = span("graph.apsp", || EccentricityProvider::new(net.graph()));
    // The library drivers salt their sampling stream with this.
    let r = traced_extremum(net, TimedProvider(provider), dir, seed, 0x0ecc_0ecc, counts)?;
    Ok(EccExtremeResult {
        node: r.out.index,
        value: r.out.value as Dist,
        rounds: r.rounds,
        batches: r.batches,
        ledger: r.ledger,
    })
}
