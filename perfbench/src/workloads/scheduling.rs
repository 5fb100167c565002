//! `scheduling`: the E6 shape (Lemmas 10–11) on `dumbbell(6, 6, 12)`
//! (26 nodes). Each instance is a random availability calendar with `k`
//! slots; it runs the quantum and the classical driver. The node values
//! are stored, so no protocol computes them (α = 0), and the time goes to
//! tens of thousands of rounds of pipelined tree communication on a tiny
//! network: fixed per-round costs dominate.

use super::{mix, network, traced_extremum, Size, Workload};
use crate::adapters::OpError;
use crate::layers::{add_classical_ledger, Counts};
use crate::span::{self, span};
use crate::tally::{print, Tally, Verdict};
use congest::aggregate::CommOp;
use congest::generators::dumbbell;
use congest::graph::{bits_for, Graph};
use congest::runtime::{Network, RuntimeError};
use dqc_core::framework::StoredValues;
use dqc_core::scheduling::{
    classical_meeting_scheduling, quantum_meeting_scheduling, MeetingInstance, MeetingResult,
};
use pquery::minimum::Extremum;

/// Calendar length `k` of each instance.
fn slots(size: Size) -> Vec<usize> {
    match size {
        Size::Full => [1024, 4096, 16384].repeat(8),
        Size::Tiny => vec![64, 256],
    }
}

/// One calendar with its ground truth.
pub struct Instance {
    meeting: MeetingInstance,
    attendance: Vec<u64>,
    best: u64,
    seed: u64,
}

/// Inputs: the dumbbell and the calendars.
pub struct Inputs {
    graph: Graph,
    instances: Vec<Instance>,
}

/// The `scheduling` workload.
pub struct Scheduling;

impl Workload for Scheduling {
    type Inputs = Inputs;

    fn setup(seed: u64, size: Size) -> Inputs {
        let (graph, _) = span("graph.gen", || dumbbell(6, 6, 12));
        let n = graph.n();
        let instances = slots(size)
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let seed = mix(seed, i as u64);
                let meeting = span("graph.gen", || MeetingInstance::random(n, k, 0.3, seed));
                let (attendance, best) =
                    span("graph.truth", || (meeting.attendance(), meeting.best_attendance()));
                Instance { meeting, attendance, best, seed }
            })
            .collect();
        Inputs { graph, instances }
    }

    fn networks(inputs: &Inputs) -> Vec<Network<'_>> {
        vec![network(&inputs.graph)]
    }

    fn pass(inputs: &Inputs, nets: &[Network<'_>], mut traced: Option<&mut Counts>) -> Tally {
        let net = &nets[0];
        let mut tally = Tally::default();
        for (i, inst) in inputs.instances.iter().enumerate() {
            span::set_instance(i as u32);
            tally.record(
                format!("i{i}/quantum_meeting_scheduling"),
                || match traced.as_deref_mut() {
                    Some(counts) => traced_quantum(net, &inst.meeting, inst.seed, counts),
                    None => Ok(quantum_meeting_scheduling(net, &inst.meeting, inst.seed)?),
                },
                |r| {
                    let pass = inst.attendance.get(r.slot) == Some(&r.attendance);
                    let v = Verdict {
                        pass,
                        hit: Some(r.attendance == inst.best),
                        cost: r.rounds as u64,
                    };
                    (v, print(r.attendance, r.rounds as u64, r.batches as u64))
                },
            );
            tally.record(
                format!("i{i}/classical_meeting_scheduling"),
                || {
                    let out = span("engine.classical", || {
                        classical_meeting_scheduling(net, &inst.meeting, inst.seed)
                    })?;
                    if let Some(counts) = traced.as_deref_mut() {
                        add_classical_ledger(counts, &out.ledger);
                    }
                    Ok::<_, RuntimeError>(out)
                },
                |r| {
                    let pass = r.attendance == inst.best
                        && inst.attendance.get(r.slot) == Some(&r.attendance);
                    let v = Verdict { pass, hit: None, cost: r.rounds as u64 };
                    (v, print(r.attendance, r.rounds as u64, r.batches as u64))
                },
            );
        }
        tally
    }
}

/// `quantum_meeting_scheduling` rebuilt by [`traced_extremum`]. The
/// provider is not wrapped: its values are stored, so no protocol computes
/// them and `engine.alpha` stays empty.
fn traced_quantum(
    net: &Network<'_>,
    inst: &MeetingInstance,
    seed: u64,
    counts: &mut Counts,
) -> Result<MeetingResult, OpError> {
    let provider = span("framework.setup", || {
        let local: Vec<Vec<u64>> = inst
            .availability
            .iter()
            .map(|row| row.iter().map(|&b| u64::from(b)).collect())
            .collect();
        StoredValues::new(local, bits_for(net.graph().n() as u64), CommOp::Sum)
    });
    // The library driver salts its sampling stream with this.
    let r = traced_extremum(net, provider, Extremum::Max, seed, 0xa5a5_5a5a, counts)?;
    Ok(MeetingResult {
        slot: r.out.index,
        attendance: r.out.value,
        rounds: r.rounds,
        batches: r.batches,
        ledger: r.ledger,
    })
}
