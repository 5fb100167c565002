//! Opt-in global counters for simulator internals.
//!
//! The statevector engine has no per-run context to thread a collector
//! through — gates are free functions over amplitude slices — so its
//! telemetry is a small set of process-global counters, **disabled by
//! default**. When disabled every instrumentation site is a single
//! `Relaxed` atomic load and an untaken branch, at most once per
//! amplitude *pass* (never per amplitude), so the kernels' measured
//! throughput is unaffected; see `BENCH_qsim.json` for the baseline.
//!
//! Enable around a workload, then snapshot:
//!
//! ```
//! use qsim::{metrics, State};
//!
//! metrics::reset();
//! metrics::enable(true);
//! let mut s = State::zero(4);
//! qsim::qft::qft_circuit(&[0, 1, 2, 3]).fuse().apply(&mut s);
//! metrics::enable(false);
//! let snap = metrics::snapshot();
//! assert!(snap.iter().any(|&(name, v)| name == "qsim.matrix_applies" && v > 0));
//! ```
//!
//! Counters are cumulative across threads (kernel workers bump them from
//! inside `std::thread::scope` regions); [`reset`] zeroes them. The
//! counts themselves are deterministic for a deterministic workload —
//! they tally *work items* (gates, sweeps, blocks, launches), never
//! timings.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What each global counter tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Gates fed into [`Circuit::fuse`](crate::circuit::Circuit::fuse).
    FuseGatesIn,
    /// Fused groups produced by `fuse` (≤ gates in; the ratio is the
    /// fusion win).
    FuseGroups,
    /// Fused 2×2-matrix groups applied to a statevector. This counts
    /// groups, not passes: a fused tape runs several groups per tiled pass
    /// (see [`KernelLaunches`](Self::KernelLaunches)). Swap groups are not
    /// matrices and are not counted here.
    MatrixApplies,
    /// Fused diagonal-sweep groups applied (groups, not passes, as for
    /// [`MatrixApplies`](Self::MatrixApplies)).
    DiagSweeps,
    /// Diagonal terms across those sweeps (terms per sweep = fusion
    /// depth).
    DiagTerms,
    /// Blocks processed by the blocked diagonal kernel, summed over the
    /// diagonal groups.
    DiagBlocks,
    /// Amplitude passes: kernel entry points taken (1q, masked 1q,
    /// diagonal, swap, and one per tiled stage of a fused tape, however
    /// many groups the stage runs).
    KernelLaunches,
    /// Worker threads summed over those launches; divide by
    /// `KernelLaunches` for mean utilization.
    KernelThreads,
}

const NAMES: [&str; 8] = [
    "qsim.fuse_gates_in",
    "qsim.fuse_groups",
    "qsim.matrix_applies",
    "qsim.diag_sweeps",
    "qsim.diag_terms",
    "qsim.diag_blocks",
    "qsim.kernel_launches",
    "qsim.kernel_threads",
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; 8] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Turn metric collection on or off (off at process start).
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric collection is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero all counters (typically right before [`enable`]).
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

/// Add `v` to `counter` if collection is enabled. The disabled path is one
/// relaxed load.
#[inline]
pub(crate) fn bump(counter: Counter, v: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNTERS[counter as usize].fetch_add(v, Ordering::Relaxed);
    }
}

/// The value of one counter.
pub fn get(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// All counters as `(name, value)` pairs, in fixed declaration order —
/// ready to feed a `telemetry::Collector` via its `add` method.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    NAMES.iter().zip(&COUNTERS).map(|(&name, c)| (name, c.load(Ordering::Relaxed))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global state is shared across the test binary's threads, so this
    // single test exercises the whole lifecycle in one sequence.
    #[test]
    fn lifecycle_gating_and_snapshot() {
        reset();
        assert!(!is_enabled());
        bump(Counter::KernelLaunches, 3);
        assert_eq!(get(Counter::KernelLaunches), 0, "disabled bump must not count");

        enable(true);
        bump(Counter::KernelLaunches, 3);
        bump(Counter::KernelThreads, 6);
        enable(false);
        bump(Counter::KernelLaunches, 99);
        assert_eq!(get(Counter::KernelLaunches), 3);

        let snap = snapshot();
        assert_eq!(snap.len(), 8);
        assert!(snap.contains(&("qsim.kernel_launches", 3)));
        assert!(snap.contains(&("qsim.kernel_threads", 6)));
        assert!(snap.iter().all(|(n, _)| n.starts_with("qsim.")));
        reset();
        assert_eq!(get(Counter::KernelLaunches), 0);
    }
}
