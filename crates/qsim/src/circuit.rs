//! Gate-tape circuits: a reified sequence of elementary gates that can be
//! applied, inverted, and *controlled* — the transformation needed to run
//! phase estimation on a subroutine (paper §6: QPE applies controlled
//! powers of a whole algorithm, not of a single gate).

use crate::complex::{c64, C64};
use crate::kernels::{self, DiagTerm};
use crate::metrics;
use crate::state::State;
use std::f64::consts::FRAC_1_SQRT_2;
use std::ops::Range;

/// An elementary gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Hadamard.
    H(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Z.
    Z(usize),
    /// `diag(1, e^{iθ})`.
    Phase(usize, f64),
    /// Controlled NOT.
    Cnot(usize, usize),
    /// Controlled phase.
    CPhase(usize, usize, f64),
    /// Multi-controlled X.
    Mcx(Vec<usize>, usize),
    /// Multi-controlled Z.
    Mcz(Vec<usize>, usize),
    /// A global phase `e^{iθ}` (matters once the circuit is controlled!).
    GlobalPhase(f64),
}

impl Op {
    /// The qubits this op touches.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Op::H(q) | Op::X(q) | Op::Z(q) | Op::Phase(q, _) => vec![*q],
            Op::Cnot(c, t) | Op::CPhase(c, t, _) => vec![*c, *t],
            Op::Mcx(cs, t) | Op::Mcz(cs, t) => {
                let mut v = cs.clone();
                v.push(*t);
                v
            }
            Op::GlobalPhase(_) => vec![],
        }
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Op {
        match self {
            Op::Phase(q, th) => Op::Phase(*q, -th),
            Op::CPhase(c, t, th) => Op::CPhase(*c, *t, -th),
            Op::GlobalPhase(th) => Op::GlobalPhase(-th),
            other => other.clone(), // H, X, Z, CNOT, MCX, MCZ are involutions
        }
    }
}

/// A circuit on `n` qubits: an ordered gate tape.
///
/// # Examples
///
/// ```
/// use qsim::circuit::Circuit;
/// use qsim::state::State;
///
/// // A Bell-pair preparation as a reusable tape.
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1);
/// let mut s = State::zero(2);
/// c.apply(&mut s);
/// assert!((s.probability(0b11) - 0.5).abs() < 1e-9);
/// c.inverse().apply(&mut s);
/// assert!((s.probability(0) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    n: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// An empty circuit on `n` qubits.
    pub fn new(n: usize) -> Self {
        Circuit { n, ops: Vec::new() }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The gate tape.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Gate count.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Push a raw op.
    ///
    /// # Panics
    ///
    /// Panics if the op touches a qubit `>= n`.
    pub fn push(&mut self, op: Op) -> &mut Self {
        assert!(op.qubits().iter().all(|&q| q < self.n), "op out of range");
        self.ops.push(op);
        self
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Op::H(q))
    }

    /// X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Op::X(q))
    }

    /// Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Op::Z(q))
    }

    /// Phase `θ` on `q`.
    pub fn phase(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Op::Phase(q, theta))
    }

    /// CNOT.
    pub fn cnot(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Op::Cnot(c, t))
    }

    /// Controlled phase.
    pub fn cphase(&mut self, c: usize, t: usize, theta: f64) -> &mut Self {
        self.push(Op::CPhase(c, t, theta))
    }

    /// Multi-controlled X.
    pub fn mcx(&mut self, controls: Vec<usize>, t: usize) -> &mut Self {
        self.push(Op::Mcx(controls, t))
    }

    /// Multi-controlled Z.
    pub fn mcz(&mut self, controls: Vec<usize>, t: usize) -> &mut Self {
        self.push(Op::Mcz(controls, t))
    }

    /// Global phase `e^{iθ}`.
    pub fn global_phase(&mut self, theta: f64) -> &mut Self {
        self.push(Op::GlobalPhase(theta))
    }

    /// Apply the tape to `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` has fewer qubits than the circuit.
    pub fn apply(&self, state: &mut State) {
        assert!(state.num_qubits() >= self.n, "state too small for circuit");
        let h = [
            [C64 { re: FRAC_1_SQRT_2, im: 0.0 }, C64 { re: FRAC_1_SQRT_2, im: 0.0 }],
            [C64 { re: FRAC_1_SQRT_2, im: 0.0 }, C64 { re: -FRAC_1_SQRT_2, im: 0.0 }],
        ];
        for op in &self.ops {
            match op {
                Op::H(q) => state.apply_1q(*q, h),
                Op::X(q) => state.x(*q),
                Op::Z(q) => state.z(*q),
                Op::Phase(q, th) => state.phase(*q, *th),
                Op::Cnot(c, t) => state.cnot(*c, *t),
                Op::CPhase(c, t, th) => state.cphase(*c, *t, *th),
                Op::Mcx(cs, t) => state.mcx(cs, *t),
                Op::Mcz(cs, t) => state.mcz(cs, *t),
                Op::GlobalPhase(th) => state.apply_phase_fn(|_| *th),
            }
        }
    }

    /// The inverse circuit (reversed tape of inverted gates).
    pub fn inverse(&self) -> Circuit {
        Circuit { n: self.n, ops: self.ops.iter().rev().map(Op::inverse).collect() }
    }

    /// Fuse the tape: adjacent single-qubit gates on the same qubit
    /// collapse into one 2×2 matrix, runs of diagonal gates
    /// (`Z`/`Phase`/`CPhase`/`Mcz`/`GlobalPhase`) collapse into a single
    /// diagonal sweep, and `Cnot(a,b) Cnot(b,a) Cnot(a,b)` swap triples
    /// collapse into one [`FusedOp::Swap`] group per run of disjoint swaps.
    ///
    /// Fusing also plans the execution: maximal runs of diagonal sweeps and
    /// uncontrolled matrices are grouped into cache-tiled stages (see
    /// [`FusedCircuit::apply`]), so a fused QFT/QPE tape makes a handful of
    /// amplitude passes instead of one per gate.
    pub fn fuse(&self) -> FusedCircuit {
        let mut out: Vec<FusedOp> = Vec::new();
        let mut pending = Pending::None;
        let mut rest = &self.ops[..];
        while let Some(op) = rest.first() {
            if let Some(pair) = swap_triple(rest) {
                pending = pending.absorb_swap(pair, &mut out);
                rest = &rest[3..];
            } else {
                pending = pending.absorb(op, &mut out);
                rest = &rest[1..];
            }
        }
        pending.flush(&mut out);
        metrics::bump(metrics::Counter::FuseGatesIn, self.ops.len() as u64);
        metrics::bump(metrics::Counter::FuseGroups, out.len() as u64);
        let plan = plan_stages(&out);
        FusedCircuit { n: self.n, ops: out, plan }
    }

    /// Apply the tape through the fused representation — one
    /// [`fuse`](Self::fuse) followed by [`FusedCircuit::apply`]. For
    /// repeated application, fuse once and reuse the result.
    pub fn apply_fused(&self, state: &mut State) {
        self.fuse().apply(state);
    }

    /// The circuit controlled on qubit `control` (which must be outside
    /// the circuit's qubit range after `shift` is applied): every gate
    /// gains the control, and global phases become control phases.
    ///
    /// `shift` relocates the circuit's qubits (qubit `q` → `q + shift`) so
    /// the control can live below them — the layout used by QPE.
    ///
    /// # Panics
    ///
    /// Panics if `control` collides with the shifted circuit qubits.
    pub fn controlled(&self, control: usize, shift: usize) -> Circuit {
        let mut out = Circuit::new((self.n + shift).max(control + 1));
        for op in &self.ops {
            let c = control;
            let mv = |q: usize| q + shift;
            assert!(
                !op.qubits().iter().any(|&q| mv(q) == c),
                "control collides with circuit qubit"
            );
            let controlled = match op {
                Op::H(_) => unimplemented!("controlled-H not needed; decompose first"),
                Op::X(q) => Op::Cnot(c, mv(*q)),
                Op::Z(q) => Op::Mcz(vec![c], mv(*q)),
                Op::Phase(q, th) => Op::CPhase(c, mv(*q), *th),
                Op::Cnot(cc, t) => Op::Mcx(vec![c, mv(*cc)], mv(*t)),
                Op::CPhase(cc, t, th) => {
                    // Standard CC-Phase(θ) identity:
                    // CP(b,t,θ/2) · CX(c,b) · CP(b,t,−θ/2) · CX(c,b) ·
                    // CP(c,t,θ/2), phasing exactly when c = b = t = 1.
                    let (b, t) = (mv(*cc), mv(*t));
                    out.push(Op::CPhase(b, t, th / 2.0));
                    out.push(Op::Cnot(c, b));
                    out.push(Op::CPhase(b, t, -th / 2.0));
                    out.push(Op::Cnot(c, b));
                    out.push(Op::CPhase(c, t, th / 2.0));
                    continue;
                }
                Op::Mcx(cs, t) => {
                    let mut cs2: Vec<usize> = cs.iter().map(|&q| mv(q)).collect();
                    cs2.push(c);
                    Op::Mcx(cs2, mv(*t))
                }
                Op::Mcz(cs, t) => {
                    let mut cs2: Vec<usize> = cs.iter().map(|&q| mv(q)).collect();
                    cs2.push(c);
                    Op::Mcz(cs2, mv(*t))
                }
                Op::GlobalPhase(th) => Op::Phase(c, *th),
            };
            out.push(controlled);
        }
        out
    }
}

/// One group of a fused tape (see [`Circuit::fuse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// A 2×2 unitary on qubit `q`, controlled on every set bit of
    /// `ctrl_mask` (0 = uncontrolled) — the product of a fused run of
    /// single-qubit gates, or a lone CNOT/MCX.
    Matrix {
        /// Control bit mask.
        ctrl_mask: usize,
        /// Target qubit.
        q: usize,
        /// The fused 2×2 matrix.
        m: [[C64; 2]; 2],
    },
    /// A fused run of diagonal gates, applied in one amplitude sweep.
    Diagonal(Vec<DiagTerm>),
    /// A run of qubit swaps on pairwise disjoint pairs, applied as one
    /// in-place permutation pass (see [`kernels::apply_swaps`]).
    Swap(Vec<(usize, usize)>),
}

/// One amplitude pass of a fused tape's execution plan.
#[derive(Debug, Clone, PartialEq)]
enum Stage {
    /// The groups `ops[groups]` — diagonal sweeps and uncontrolled
    /// matrices — run tile by tile; `high` holds the ascending targets of
    /// at least `TILE_LOW_BITS` the tiles must span.
    Tiled { groups: Range<usize>, high: Vec<usize> },
    /// The group `ops[i]` (a controlled matrix or a swap) as one
    /// whole-state pass.
    Whole(usize),
}

/// Split fused groups into stages: a controlled matrix or a swap is a
/// stage of its own; every other group joins the open tiled stage unless
/// its high target would make the tile span more than
/// [`kernels::TILE_MAX_HIGH`] high qubits, which starts a new one.
fn plan_stages(ops: &[FusedOp]) -> Vec<Stage> {
    let mut plan = Vec::new();
    let mut open: Option<(usize, Vec<usize>)> = None;
    for (i, op) in ops.iter().enumerate() {
        let high_target = match op {
            FusedOp::Matrix { ctrl_mask: 0, q, .. } => {
                Some(*q).filter(|&q| kernels::is_high_target(q))
            }
            FusedOp::Diagonal(_) => None,
            FusedOp::Matrix { .. } | FusedOp::Swap(_) => {
                if let Some((start, high)) = open.take() {
                    plan.push(Stage::Tiled { groups: start..i, high });
                }
                plan.push(Stage::Whole(i));
                continue;
            }
        };
        let (start, high) = open.get_or_insert_with(|| (i, Vec::new()));
        if let Some(q) = high_target.filter(|q| !high.contains(q)) {
            if high.len() == kernels::TILE_MAX_HIGH {
                plan.push(Stage::Tiled { groups: *start..i, high: std::mem::take(high) });
                *start = i;
            }
            high.push(q);
            high.sort_unstable();
        }
    }
    if let Some((start, high)) = open {
        plan.push(Stage::Tiled { groups: start..ops.len(), high });
    }
    plan
}

/// A fused gate tape: its groups (see [`Circuit::fuse`]) and the stage
/// plan that runs them, computed once by `fuse`.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedCircuit {
    n: usize,
    ops: Vec<FusedOp>,
    plan: Vec<Stage>,
}

impl FusedCircuit {
    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The fused groups.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Number of fused groups (≤ the unfused gate count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Apply the fused tape to `state`, with the kernels' automatic thread
    /// count ([`kernels::auto_threads`]).
    ///
    /// The stage plan makes one amplitude pass per stage, not per group:
    /// each run of diagonal sweeps and uncontrolled matrices runs tile by
    /// tile over cache-sized tiles of up to `2^{12 + 2}` amplitudes, and each
    /// controlled matrix or swap group is one whole-state pass. Every
    /// amplitude sees the same arithmetic, in the same order, as applying
    /// the groups one whole-state pass at a time.
    ///
    /// # Panics
    ///
    /// Panics if `state` has fewer qubits than the circuit.
    pub fn apply(&self, state: &mut State) {
        self.apply_with_threads(state, kernels::auto_threads(state.num_qubits()));
    }

    /// [`apply`](Self::apply) on an explicit number of worker threads. The
    /// result is bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `state` has fewer qubits than the circuit.
    pub fn apply_with_threads(&self, state: &mut State, threads: usize) {
        assert!(state.num_qubits() >= self.n, "state too small for circuit");
        let amps = state.amplitudes_mut();
        for stage in &self.plan {
            match stage {
                Stage::Tiled { groups, high } => {
                    let groups = &self.ops[groups.clone()];
                    groups.iter().for_each(count_group);
                    kernels::apply_tiled(amps, groups, high, threads);
                }
                Stage::Whole(i) => {
                    let op = &self.ops[*i];
                    count_group(op);
                    match op {
                        FusedOp::Matrix { ctrl_mask, q, m } => {
                            kernels::apply_controlled_1q(amps, *ctrl_mask, *q, *m, threads)
                        }
                        FusedOp::Swap(pairs) => kernels::apply_swaps(amps, pairs, threads),
                        FusedOp::Diagonal(_) => unreachable!("diagonal sweeps are tiled"),
                    }
                }
            }
        }
    }
}

/// Tally one applied group in the per-group counters.
fn count_group(op: &FusedOp) {
    match op {
        FusedOp::Matrix { .. } => metrics::bump(metrics::Counter::MatrixApplies, 1),
        FusedOp::Diagonal(terms) => {
            metrics::bump(metrics::Counter::DiagSweeps, 1);
            metrics::bump(metrics::Counter::DiagTerms, terms.len() as u64);
        }
        FusedOp::Swap(_) => {}
    }
}

/// The qubit pair of a `Cnot(a,b) Cnot(b,a) Cnot(a,b)` swap at the head of
/// `ops`.
fn swap_triple(ops: &[Op]) -> Option<(usize, usize)> {
    match ops {
        [Op::Cnot(a, b), Op::Cnot(c, d), Op::Cnot(e, f), ..]
            if a != b && (a, b) == (d, c) && (a, b) == (e, f) =>
        {
            Some((*a, *b))
        }
        _ => None,
    }
}

const MAT_H: [[C64; 2]; 2] = [
    [c64(FRAC_1_SQRT_2, 0.0), c64(FRAC_1_SQRT_2, 0.0)],
    [c64(FRAC_1_SQRT_2, 0.0), c64(-FRAC_1_SQRT_2, 0.0)],
];
const MAT_X: [[C64; 2]; 2] = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
const MAT_Z: [[C64; 2]; 2] = [[C64::ONE, C64::ZERO], [C64::ZERO, c64(-1.0, 0.0)]];

fn mat_phase(theta: f64) -> [[C64; 2]; 2] {
    [[C64::ONE, C64::ZERO], [C64::ZERO, C64::from_polar(1.0, theta)]]
}

/// `a · b` — the matrix of "apply `b`, then `a`".
fn matmul(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]
}

/// The group currently being grown by the fusion scan.
enum Pending {
    None,
    Matrix { q: usize, m: [[C64; 2]; 2] },
    Diag(Vec<DiagTerm>),
    Swap(Vec<(usize, usize)>),
}

impl Pending {
    fn flush(self, out: &mut Vec<FusedOp>) {
        match self {
            Pending::None => {}
            Pending::Matrix { q, m } => out.push(FusedOp::Matrix { ctrl_mask: 0, q, m }),
            Pending::Diag(terms) => out.push(FusedOp::Diagonal(terms)),
            Pending::Swap(pairs) => out.push(FusedOp::Swap(pairs)),
        }
    }

    /// A swap: extend a pending swap group if the pair is disjoint from
    /// it, else start a new group.
    fn absorb_swap(self, (a, b): (usize, usize), out: &mut Vec<FusedOp>) -> Pending {
        match self {
            Pending::Swap(mut pairs)
                if pairs.iter().all(|&(c, d)| ![c, d].contains(&a) && ![c, d].contains(&b)) =>
            {
                pairs.push((a, b));
                Pending::Swap(pairs)
            }
            other => {
                other.flush(out);
                Pending::Swap(vec![(a, b)])
            }
        }
    }

    /// Fold `op` into the pending group, flushing to `out` on a break.
    fn absorb(self, op: &Op, out: &mut Vec<FusedOp>) -> Pending {
        match op {
            Op::H(q) => self.merge_1q(*q, MAT_H, out),
            Op::X(q) => self.merge_1q(*q, MAT_X, out),
            Op::Z(q) => self.merge_diag_1q(
                *q,
                MAT_Z,
                DiagTerm { mask: 1 << q, factor: c64(-1.0, 0.0) },
                out,
            ),
            Op::Phase(q, th) => self.merge_diag_1q(
                *q,
                mat_phase(*th),
                DiagTerm { mask: 1 << q, factor: C64::from_polar(1.0, *th) },
                out,
            ),
            Op::Cnot(c, t) => {
                self.flush(out);
                out.push(FusedOp::Matrix { ctrl_mask: 1 << c, q: *t, m: MAT_X });
                Pending::None
            }
            Op::Mcx(cs, t) => {
                self.flush(out);
                let mask = cs.iter().map(|&c| 1usize << c).sum();
                out.push(FusedOp::Matrix { ctrl_mask: mask, q: *t, m: MAT_X });
                Pending::None
            }
            Op::CPhase(c, t, th) => self.merge_diag(
                DiagTerm { mask: (1 << c) | (1 << t), factor: C64::from_polar(1.0, *th) },
                out,
            ),
            Op::Mcz(cs, t) => {
                let mask: usize = cs.iter().map(|&c| 1usize << c).sum::<usize>() | (1 << t);
                self.merge_diag(DiagTerm { mask, factor: c64(-1.0, 0.0) }, out)
            }
            Op::GlobalPhase(th) => {
                self.merge_diag(DiagTerm { mask: 0, factor: C64::from_polar(1.0, *th) }, out)
            }
        }
    }

    /// A non-diagonal single-qubit gate: extend a same-qubit matrix run.
    fn merge_1q(self, q: usize, m: [[C64; 2]; 2], out: &mut Vec<FusedOp>) -> Pending {
        match self {
            Pending::Matrix { q: pq, m: pm } if pq == q => {
                Pending::Matrix { q, m: matmul(&m, &pm) }
            }
            other => {
                other.flush(out);
                Pending::Matrix { q, m }
            }
        }
    }

    /// A diagonal single-qubit gate: prefer a same-qubit matrix run (so
    /// `H·Z·H` fuses to one matrix), else join the diagonal run.
    fn merge_diag_1q(
        self,
        q: usize,
        m: [[C64; 2]; 2],
        term: DiagTerm,
        out: &mut Vec<FusedOp>,
    ) -> Pending {
        match self {
            Pending::Matrix { q: pq, m: pm } if pq == q => {
                Pending::Matrix { q, m: matmul(&m, &pm) }
            }
            other => other.merge_diag(term, out),
        }
    }

    /// A diagonal gate of any arity: extend the diagonal run.
    fn merge_diag(self, term: DiagTerm, out: &mut Vec<FusedOp>) -> Pending {
        match self {
            Pending::Diag(mut terms) => {
                terms.push(term);
                Pending::Diag(terms)
            }
            other => {
                other.flush(out);
                Pending::Diag(vec![term])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EPS;

    #[test]
    fn builder_and_apply() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cnot(1, 2);
        assert_eq!(c.len(), 3);
        let mut s = State::zero(3);
        c.apply(&mut s);
        assert!((s.probability(0b000) - 0.5).abs() < EPS);
        assert!((s.probability(0b111) - 0.5).abs() < EPS);
    }

    #[test]
    fn inverse_undoes_any_tape() {
        let mut c = Circuit::new(3);
        c.h(0).phase(0, 0.7).cnot(0, 1).cphase(1, 2, 1.1).mcz(vec![0, 1], 2).x(2).global_phase(0.3);
        let mut s = State::basis(3, 5);
        c.apply(&mut s);
        c.inverse().apply(&mut s);
        assert!((s.probability(5) - 1.0).abs() < EPS);
    }

    #[test]
    fn controlled_acts_only_when_control_set() {
        // Circuit: X then phase on one qubit; control lives at index 0,
        // data shifted to index 1.
        let mut c = Circuit::new(1);
        c.x(0).phase(0, 0.9).global_phase(0.4);
        let ctl = c.controlled(0, 1);

        // Control clear: identity.
        let mut s = State::zero(2);
        let orig = s.clone();
        ctl.apply(&mut s);
        assert!(s.fidelity(&orig) > 1.0 - EPS);

        // Control set: matches the plain circuit on the data qubit,
        // including the global phase (as a relative phase on the control).
        let mut s = State::zero(2);
        s.x(0); // control = 1
        ctl.apply(&mut s);
        // Data qubit should be |1⟩ with phase e^{i(0.9+0.4)}.
        let amp = s.amplitude(0b11);
        let want = C64::from_polar(1.0, 0.9 + 0.4);
        assert!((amp.re - want.re).abs() < EPS && (amp.im - want.im).abs() < EPS, "{amp}");
    }

    #[test]
    fn controlled_cphase_decomposition_correct() {
        // Compare controlled(CPhase) against direct 3-qubit construction.
        let mut c = Circuit::new(2);
        c.cphase(0, 1, 1.3);
        let ctl = c.controlled(0, 1); // control 0, data 1..3

        for basis in 0..8 {
            let mut s = State::basis(3, basis);
            ctl.apply(&mut s);
            // Expected: phase 1.3 iff all of control, cc, t are 1.
            let want_phase = basis == 0b111;
            let mut expect = State::basis(3, basis);
            if want_phase {
                expect.apply_phase_fn(|x| if x == basis { 1.3 } else { 0.0 });
            }
            assert!(s.fidelity(&expect) > 1.0 - EPS, "basis {basis:03b}");
        }
    }

    #[test]
    fn op_qubits_reported() {
        assert_eq!(Op::Mcx(vec![0, 2], 4).qubits(), vec![0, 2, 4]);
        assert_eq!(Op::GlobalPhase(0.1).qubits(), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Circuit::new(2).h(2);
    }

    #[test]
    fn fused_matches_unfused_on_rich_tape() {
        let mut c = Circuit::new(4);
        c.h(0)
            .z(0)
            .h(0) // fuses to one matrix (≈ X)
            .phase(1, 0.3)
            .cphase(0, 2, 0.7)
            .mcz(vec![0, 1], 3)
            .global_phase(0.2) // one diagonal sweep
            .cnot(1, 2)
            .x(3)
            .phase(3, 1.1)
            .mcx(vec![0, 2], 1);
        for basis in 0..16 {
            let mut plain = State::basis(4, basis);
            c.apply(&mut plain);
            let mut fused = State::basis(4, basis);
            c.apply_fused(&mut fused);
            assert!(plain.fidelity(&fused) > 1.0 - 1e-12, "basis {basis}");
        }
    }

    #[test]
    fn fusion_collapses_runs() {
        // H·Z·H on one qubit plus a diagonal run: 7 gates → 3 groups.
        let mut c = Circuit::new(3);
        c.h(0).z(0).h(0).phase(1, 0.4).cphase(1, 2, 0.9).mcz(vec![0], 2).cnot(0, 1);
        let fused = c.fuse();
        assert_eq!(c.len(), 7);
        assert_eq!(fused.len(), 3, "{:?}", fused.ops());
        assert!(matches!(fused.ops()[0], FusedOp::Matrix { ctrl_mask: 0, q: 0, .. }));
        assert!(matches!(&fused.ops()[1], FusedOp::Diagonal(terms) if terms.len() == 3));
        assert!(matches!(fused.ops()[2], FusedOp::Matrix { ctrl_mask: 1, q: 1, .. }));
    }

    #[test]
    fn fused_hzh_is_x() {
        let mut c = Circuit::new(1);
        c.h(0).z(0).h(0);
        let fused = c.fuse();
        assert_eq!(fused.len(), 1);
        let mut s = State::zero(1);
        fused.apply(&mut s);
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_empty_and_identity_edges() {
        let c = Circuit::new(2);
        let fused = c.fuse();
        assert!(fused.is_empty());
        let mut s = State::basis(2, 2);
        fused.apply(&mut s);
        assert!((s.probability(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_triples_fold_into_one_group() {
        // Three disjoint swaps → one group; the pair order is kept.
        let mut c = Circuit::new(6);
        for (a, b) in [(0, 5), (1, 4), (2, 3)] {
            c.cnot(a, b).cnot(b, a).cnot(a, b);
        }
        let fused = c.fuse();
        assert_eq!(fused.ops(), &[FusedOp::Swap(vec![(0, 5), (1, 4), (2, 3)])]);
        assert_eq!(fused.plan, vec![Stage::Whole(0)]);
    }

    #[test]
    fn lone_cnot_pair_stays_two_matrices() {
        let mut c = Circuit::new(3);
        c.cnot(0, 2).cnot(2, 0).h(1);
        let fused = c.fuse();
        assert_eq!(fused.len(), 3, "{:?}", fused.ops());
        assert!(matches!(fused.ops()[0], FusedOp::Matrix { ctrl_mask: 0b001, q: 2, .. }));
        assert!(matches!(fused.ops()[1], FusedOp::Matrix { ctrl_mask: 0b100, q: 0, .. }));
        // A triple whose third CNOT differs is not a swap either.
        let mut c = Circuit::new(3);
        c.cnot(0, 2).cnot(2, 0).cnot(2, 0);
        assert!(c.fuse().ops().iter().all(|op| matches!(op, FusedOp::Matrix { .. })));
    }

    #[test]
    fn overlapping_swap_starts_a_new_group() {
        let mut c = Circuit::new(4);
        for (a, b) in [(0, 1), (2, 3), (1, 2)] {
            c.cnot(a, b).cnot(b, a).cnot(a, b);
        }
        let fused = c.fuse();
        assert_eq!(
            fused.ops(),
            &[FusedOp::Swap(vec![(0, 1), (2, 3)]), FusedOp::Swap(vec![(1, 2)])]
        );
        for basis in 0..16 {
            let mut plain = State::basis(4, basis);
            c.apply(&mut plain);
            let mut tiled = State::basis(4, basis);
            fused.apply(&mut tiled);
            assert_eq!(plain, tiled, "basis {basis}");
        }
    }

    #[test]
    fn plan_tiles_runs_and_isolates_whole_state_groups() {
        // H on two high qubits share a tile; a third high target starts a
        // new stage; a controlled matrix is a whole-state pass of its own.
        let mut c = Circuit::new(16);
        c.h(12).phase(0, 0.3).cphase(3, 14, 0.2).h(14).h(1).h(15).cnot(0, 1).h(2);
        let fused = c.fuse();
        assert_eq!(fused.len(), 7, "{:?}", fused.ops());
        assert_eq!(
            fused.plan,
            vec![
                Stage::Tiled { groups: 0..4, high: vec![12, 14] },
                Stage::Tiled { groups: 4..5, high: vec![15] },
                Stage::Whole(5),
                Stage::Tiled { groups: 6..7, high: vec![] },
            ]
        );
    }

    #[test]
    fn qft_20_plan_makes_five_passes() {
        let qubits: Vec<usize> = (0..20).collect();
        for c in [crate::qft::qft_circuit(&qubits), crate::qft::iqft_circuit(&qubits)] {
            let fused = c.fuse();
            assert_eq!(fused.len(), 20 + 19 + 1);
            assert_eq!(fused.plan.len(), 5, "{:?}", fused.plan);
        }
    }

    #[test]
    fn fused_global_phase_alone() {
        let mut c = Circuit::new(1);
        c.global_phase(0.8);
        let mut s = State::zero(1);
        c.apply_fused(&mut s);
        let want = C64::from_polar(1.0, 0.8);
        let got = s.amplitude(0);
        assert!((got.re - want.re).abs() < 1e-12 && (got.im - want.im).abs() < 1e-12);
    }
}
