//! Thread fan-out for independent experiment cells.
//!
//! Several experiments run independent cells: E2–E5 average dozens of
//! trials per parameter cell, and E9 runs one cell per (size, driver).
//! [`parallel_cells`] spreads such cells across worker threads while
//! keeping the output — and every random stream — byte-identical to a
//! sequential sweep: each cell derives its own RNG seed from the
//! experiment's master seed via [`cell_seed`], so no cell ever observes
//! another cell's position in a shared stream, and results are collected
//! back in cell order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Derive the RNG seed of cell `cell` from an experiment's `master` seed.
///
/// The golden-ratio stride decorrelates neighboring cells; the same
/// `(master, cell)` pair always yields the same seed, independent of
/// thread count or scheduling.
pub fn cell_seed(master: u64, cell: usize) -> u64 {
    let mut x = master ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // SplitMix64 finalizer: avalanche so low-entropy masters still give
    // well-spread per-cell seeds.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Apply `f` to every input cell, fanning the cells out over the host's
/// cores, and return the results in cell order.
///
/// `f` receives the cell's index (for [`cell_seed`]) and its input. Idle
/// workers take the next unstarted cell in input order, so listing the
/// most expensive cells first keeps the slowest worker short. With a
/// single core, or a single cell, this degenerates to a plain sequential
/// map — the output is identical either way.
pub fn parallel_cells<I, T, F>(inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let threads =
        std::thread::available_parallelism().map_or(1, |p| p.get()).min(inputs.len().max(1));
    if threads <= 1 {
        return inputs.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    // The counter only hands out indices; results come back through
    // `join`, which orders them, so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(x) = inputs.get(i) else { return out };
                        out.push((i, f(i, x)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

// ---------------------------------------------------------------------
// Conformance grid: protocols × topologies × {fault-free, faulted}.
// ---------------------------------------------------------------------

use congest::bfs::BfsTreeProtocol;
use congest::conformance::{check_protocol, FloodProtocol};
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{grid, path, random_connected_m, star};
use congest::graph::{Dist, Graph, NodeId};
use congest::runtime::{Network, NodeProtocol};
use congest::tree_comm::{BroadcastRegisterProtocol, Register, Schedule};

/// One cell of the conformance grid: a protocol on a topology, fault-free
/// or faulted, executed with full conformance auditing.
#[derive(Debug, Clone)]
pub struct ConformanceCell {
    /// Protocol family ("flood", "bfs", "broadcast").
    pub protocol: String,
    /// Topology label.
    pub graph: String,
    /// Whether a fault plan (drops + delays) was active.
    pub faulted: bool,
    /// Measured rounds of the audited run.
    pub rounds: usize,
    /// Messages lost to injected faults.
    pub dropped: u64,
    /// Conformance violations found (model breaches and accounting
    /// inconsistencies).
    pub violations: usize,
    /// Whether the protocol's own correctness condition held.
    pub correct: bool,
}

/// Run one protocol with conformance auditing and the protocol's own
/// correctness oracle.
fn conformance_cell<P, F, C>(
    protocol: &str,
    graph: &str,
    faulted: bool,
    net: &Network<'_>,
    make: F,
    ok: C,
) -> ConformanceCell
where
    P: NodeProtocol,
    F: FnOnce() -> Vec<P>,
    C: Fn(&[P]) -> bool,
{
    let checked = check_protocol(net, make)
        .unwrap_or_else(|e| panic!("{protocol}/{graph} (faulted={faulted}): {e}"));
    ConformanceCell {
        protocol: protocol.to_string(),
        graph: graph.to_string(),
        faulted,
        rounds: checked.run.stats.rounds,
        dropped: checked.report.stats.dropped,
        violations: checked.report.violations.len(),
        correct: ok(&checked.run.nodes),
    }
}

/// Whether `(dist, parent)` per node describes a valid spanning tree of
/// `g` rooted at `root`: the root at distance 0, every other node adopted
/// by a strictly closer neighbor.
pub fn bfs_tree_is_valid(
    g: &Graph,
    root: NodeId,
    outcome: &[(Option<Dist>, Option<NodeId>)],
) -> bool {
    if outcome.len() != g.n() || outcome[root] != (Some(0), None) {
        return false;
    }
    outcome.iter().enumerate().all(|(v, &(dist, parent))| {
        if v == root {
            return true;
        }
        match (dist, parent) {
            (Some(d), Some(p)) => {
                g.neighbors(v).contains(&p) && matches!(outcome[p].0, Some(pd) if pd < d)
            }
            _ => false,
        }
    })
}

/// The conformance grid: {flood, BFS, broadcast} × four topologies ×
/// {fault-free, faulted}, every cell audited for conformance and checked
/// for correctness. `seed` drives both the random topology and the fault
/// plans.
pub fn conformance_grid(seed: u64) -> Vec<ConformanceCell> {
    let topologies: Vec<(String, Graph)> = vec![
        ("path(24)".into(), path(24)),
        ("grid(6x5)".into(), grid(6, 5)),
        ("star(24)".into(), star(24)),
        (format!("random(32,{seed})"), random_connected_m(32, 48, seed)),
    ];
    let bfs_outcome = |nodes: &[BfsTreeProtocol]| -> Vec<(Option<Dist>, Option<NodeId>)> {
        nodes.iter().map(|p| (p.dist(), p.tree_view().parent)).collect()
    };
    // 48-bit register in 6-bit chunks: small enough that a Reliable frame
    // (seq header + chunk) plus a piggybacked ack fits every cap here.
    let reg = Register::from_value(48, 0xBEEF_CAFE_F00D & ((1 << 48) - 1));
    let chunk = 6u64;
    let mut cells = Vec::new();
    for (i, (gname, g)) in topologies.iter().enumerate() {
        let clean = Network::new(g);
        let plan = FaultPlan::new(cell_seed(seed, i)).with_drop_rate(0.15).with_delay(0.05, 2);
        let faulted = Network::new(g).with_faults(plan);
        let views = congest::bfs::build_bfs_tree(&clean, 0).expect("connected").views;

        cells.push(conformance_cell(
            "flood",
            gname,
            false,
            &clean,
            || FloodProtocol::instances(g.n(), 0),
            |ns| ns.iter().all(|f| f.has_token),
        ));
        cells.push(conformance_cell(
            "flood",
            gname,
            true,
            &faulted,
            || Reliable::wrap_all(FloodProtocol::instances(g.n(), 0), RetryConfig::default()),
            |ns| ns.iter().all(|r| r.inner().has_token),
        ));

        cells.push(conformance_cell(
            "bfs",
            gname,
            false,
            &clean,
            || BfsTreeProtocol::instances(g.n(), 0),
            |ns| bfs_tree_is_valid(g, 0, &bfs_outcome(ns)),
        ));
        cells.push(conformance_cell(
            "bfs",
            gname,
            true,
            &faulted,
            || Reliable::wrap_all(BfsTreeProtocol::instances(g.n(), 0), RetryConfig::default()),
            |ns| {
                let inner: Vec<_> =
                    ns.iter().map(|r| (r.inner().dist(), r.inner().tree_view().parent)).collect();
                bfs_tree_is_valid(g, 0, &inner)
            },
        ));

        cells.push(conformance_cell(
            "broadcast",
            gname,
            false,
            &clean,
            || {
                BroadcastRegisterProtocol::instances(
                    &views,
                    reg.clone(),
                    chunk,
                    Schedule::Pipelined,
                )
            },
            |ns| ns.iter().all(|p| p.register() == &reg),
        ));
        cells.push(conformance_cell(
            "broadcast",
            gname,
            true,
            &faulted,
            || {
                Reliable::wrap_all(
                    BroadcastRegisterProtocol::instances(
                        &views,
                        reg.clone(),
                        chunk,
                        Schedule::Pipelined,
                    ),
                    RetryConfig::default(),
                )
            },
            |ns| ns.iter().all(|r| r.inner().register() == &reg),
        ));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn results_in_cell_order() {
        let inputs: Vec<usize> = (0..97).collect();
        let out = parallel_cells(&inputs, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..97).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_map_with_rng() {
        let inputs: Vec<u64> = (0..23).collect();
        let run = |i: usize, &x: &u64| {
            let mut rng = StdRng::seed_from_u64(cell_seed(42, i));
            rng.gen_range(0u64..1000) + x
        };
        let par = parallel_cells(&inputs, run);
        let seq: Vec<u64> = inputs.iter().enumerate().map(|(i, x)| run(i, x)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..256).map(|i| cell_seed(7, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "collision in the first 256 cells");
        assert_eq!(seeds, (0..256).map(|i| cell_seed(7, i)).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(parallel_cells::<u8, u8, _>(&[], |_, &x| x).is_empty());
        assert_eq!(parallel_cells(&[9u8], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn conformance_grid_is_clean_and_deterministic() {
        let cells = conformance_grid(5);
        assert_eq!(cells.len(), 4 * 3 * 2);
        for c in &cells {
            assert_eq!(
                c.violations, 0,
                "{}/{} (faulted={}) had violations",
                c.protocol, c.graph, c.faulted
            );
            assert!(c.correct, "{}/{} (faulted={}) incorrect", c.protocol, c.graph, c.faulted);
            if !c.faulted {
                assert_eq!(c.dropped, 0, "{}/{}: clean cells cannot drop", c.protocol, c.graph);
            }
        }
        assert!(cells.iter().filter(|c| c.faulted).any(|c| c.dropped > 0));
        // Replays are byte-identical.
        let replay = conformance_grid(5);
        let key =
            |cs: &[ConformanceCell]| cs.iter().map(|c| (c.rounds, c.dropped)).collect::<Vec<_>>();
        assert_eq!(key(&cells), key(&replay));
    }

    #[test]
    fn bfs_validity_oracle_rejects_broken_trees() {
        let g = super::path(4);
        let good =
            vec![(Some(0), None), (Some(1), Some(0)), (Some(2), Some(1)), (Some(3), Some(2))];
        assert!(bfs_tree_is_valid(&g, 0, &good));
        let mut bad = good.clone();
        bad[2] = (Some(2), Some(0)); // parent is not a neighbor
        assert!(!bfs_tree_is_valid(&g, 0, &bad));
        let mut bad = good.clone();
        bad[3] = (Some(1), Some(2)); // distance does not decrease
        assert!(!bfs_tree_is_valid(&g, 0, &bad));
        let mut bad = good;
        bad[1] = (None, None); // unreached node
        assert!(!bfs_tree_is_valid(&g, 0, &bad));
    }
}
