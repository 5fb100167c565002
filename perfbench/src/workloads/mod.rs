//! The four workloads. Each one generates its inputs and ground truth from
//! the seed, then runs passes over a fixed list of operations: untraced
//! passes call the library's public drivers, traced passes call the same
//! code rebuilt from the framework's public parts with spans around each
//! layer boundary.

pub mod diameter;
pub mod distinctness;
pub mod scheduling;
pub mod statevector;

use crate::adapters::{OpError, TimedSource};
use crate::layers::{add, add_framework_ledger, Counts};
use crate::span::span;
use crate::tally::Tally;
use congest::graph::Graph;
use congest::runtime::{EngineMode, Network, RoundLedger};
use dqc_core::framework::{CongestOracle, ValueProvider};
use pquery::minimum::{find_extremum, Extremum, ExtremumOutcome};
use pquery::oracle::BatchSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Problem sizes: `Full` is the benchmark, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Sized so that one pass takes seconds.
    Full,
    /// Sized so that one pass takes milliseconds.
    Tiny,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs and ground truth, built once per setup.
    type Inputs;

    /// Generate inputs and ground truth from `seed`.
    fn setup(seed: u64, size: Size) -> Self::Inputs;

    /// The networks the operations run on, part of set-up.
    fn networks(_inputs: &Self::Inputs) -> Vec<Network<'_>> {
        Vec::new()
    }

    /// Run every operation once. `traced` is `Some` in the traced run: the
    /// pass then opens spans and gathers deterministic counts into it.
    fn pass(inputs: &Self::Inputs, nets: &[Network<'_>], traced: Option<&mut Counts>) -> Tally;
}

/// The engine every benchmark network uses: single-threaded, so that the
/// timings measure the program and not the thread scheduler.
pub fn network(g: &Graph) -> Network<'_> {
    Network::new(g).with_engine(EngineMode::Sequential)
}

/// The `i`-th derived seed of `seed` (SplitMix64).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a rebuilt quantum driver returns; each workload maps it into the
/// library driver's result type.
pub struct Rebuilt {
    /// The extremum found.
    pub out: ExtremumOutcome,
    /// Measured rounds, all phases.
    pub rounds: usize,
    /// Oracle batches.
    pub batches: usize,
    /// The full phase ledger.
    pub ledger: RoundLedger,
}

/// A `find_extremum` driver (`quantum_diameter`, `quantum_radius`,
/// `quantum_meeting_scheduling`) rebuilt from the framework's public parts:
/// `CongestOracle::setup`, `suggested_p`, `set_p` and `find_extremum` on a
/// sampling stream seeded with `seed ^ salt`, as the library drivers seed
/// theirs. The oracle runs behind a [`TimedSource`], so every value the
/// network returns is checked against the provider's ground truth; a wrong
/// value fails the operation. The drift guard checks that the result equals
/// the library driver's.
pub fn traced_extremum<P: ValueProvider>(
    net: &Network<'_>,
    provider: P,
    dir: Extremum,
    seed: u64,
    salt: u64,
    counts: &mut Counts,
) -> Result<Rebuilt, OpError> {
    let mut oracle = span("framework.setup", || CongestOracle::setup(net, provider, 1, seed))?;
    let p = oracle.suggested_p();
    oracle.set_p(p);
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let mut src = TimedSource::new(&mut oracle, "framework.query");
    let out = span("pquery", || find_extremum(&mut src, dir, &mut rng));
    src.check()?;
    add(counts, "pquery.peeks", src.peeks() as f64);
    add(counts, "pquery.batches", oracle.batches() as f64);
    add(counts, "pquery.queries", oracle.queries() as f64);
    add(counts, "framework.batches", oracle.batches() as f64);
    add_framework_ledger(counts, oracle.ledger());
    Ok(Rebuilt {
        out,
        rounds: oracle.rounds(),
        batches: oracle.batches(),
        ledger: oracle.into_ledger(),
    })
}
