//! Engine micro-benchmarks: the round loop itself, isolated from any
//! quantum protocol logic.
//!
//! Three engine-bound workloads (token flood, repeated broadcast, BFS tree
//! construction) across four topologies (path, grid, bounded-degree random,
//! hub star) at n ∈ {64, 512, 4096}, plus the three tree-communication
//! phases of one classical meeting-scheduling batch (`p = k = 16384` on
//! `dumbbell(6, 6, 12)`), where fixed per-round costs dominate.
//! `BENCH_engine.json` at the repo root records parent-against-change
//! medians; regen with:
//!
//! ```text
//! CRITERION_JSON_OUT=/tmp/engine.json cargo bench -p dqc-bench --bench engine
//! ```

use congest::aggregate::{aggregate_batch, CommOp};
use congest::bfs::{build_bfs_tree, BfsTreeProtocol};
use congest::generators::{dumbbell, grid, path, random_connected_m, star};
use congest::graph::{bits_for, Graph, NodeId};
use congest::runtime::{Ctx, MessageSize, Network, NodeProtocol};
use congest::tree_comm::{distribute_register, gather_register, Register, Schedule};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A one-bit token flooded outward from node 0.
#[derive(Clone, Debug)]
struct Token;

impl MessageSize for Token {
    fn size_bits(&self) -> u64 {
        1
    }
}

#[derive(Debug)]
struct Flood {
    has_token: bool,
    forwarded: bool,
}

impl NodeProtocol for Flood {
    type Msg = Token;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Token>, inbox: &[(NodeId, Token)]) {
        if !inbox.is_empty() {
            self.has_token = true;
        }
        if self.has_token && !self.forwarded {
            ctx.broadcast(Token);
            self.forwarded = true;
        }
    }
    fn is_done(&self) -> bool {
        self.forwarded
    }
}

fn flood_nodes(n: usize) -> Vec<Flood> {
    (0..n).map(|v| Flood { has_token: v == 0, forwarded: false }).collect()
}

/// A 16-bit value broadcast by every node in every one of `rounds` rounds —
/// the delivery-path stress test (all cost is in routing and accounting).
#[derive(Clone, Debug)]
struct Beacon(u16);

impl MessageSize for Beacon {
    fn size_bits(&self) -> u64 {
        16
    }
}

#[derive(Debug)]
struct Chatter {
    rounds_left: usize,
    heard: u64,
}

impl NodeProtocol for Chatter {
    type Msg = Beacon;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Beacon>, inbox: &[(NodeId, Beacon)]) {
        for (_, beacon) in inbox {
            self.heard = self.heard.wrapping_add(beacon.0 as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.broadcast(Beacon(ctx.round() as u16));
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

fn chatter_nodes(n: usize, rounds: usize) -> Vec<Chatter> {
    (0..n).map(|_| Chatter { rounds_left: rounds, heard: 0 }).collect()
}

const CHATTER_ROUNDS: usize = 8;

fn topologies(n: usize) -> Vec<(&'static str, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    vec![
        ("path", path(n)),
        ("grid", grid(side, n / side)),
        ("random", random_connected_m(n, 4 * n, 0xBE ^ n as u64)),
        ("star", star(n)),
    ]
}

fn bench_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_flood");
    group.sample_size(10);
    for n in [64usize, 512, 4096] {
        for (name, g) in topologies(n) {
            // The grid rounds n to side·rows; size protocols off the graph.
            let nn = g.n();
            let net = Network::new(&g);
            group.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &nn, |b, &nn| {
                b.iter(|| net.run(flood_nodes(nn)).unwrap().stats)
            });
        }
    }
    group.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_broadcast");
    group.sample_size(10);
    for n in [64usize, 512, 4096] {
        for (name, g) in topologies(n) {
            // The star hub would exceed any per-edge cap only if a single
            // edge carried more than one beacon per round; it does not, but
            // the default cap (4⌈log n⌉) is below the 16-bit beacon on tiny
            // n, so raise the cap uniformly.
            let nn = g.n();
            let net = Network::new(&g).with_bandwidth(64);
            group.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &nn, |b, &nn| {
                b.iter(|| net.run(chatter_nodes(nn, CHATTER_ROUNDS)).unwrap().stats)
            });
        }
    }
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_bfs");
    group.sample_size(10);
    for n in [64usize, 512, 4096] {
        for (name, g) in topologies(n) {
            if name == "path" && n > 512 {
                // BFS over a length-n path is n rounds of mostly idle
                // nodes — minutes of wall-clock for no extra signal.
                continue;
            }
            let nn = g.n();
            let net = Network::new(&g);
            group.bench_with_input(BenchmarkId::new(name, format!("n{n}")), &nn, |b, &nn| {
                b.iter(|| net.run(BfsTreeProtocol::instances(nn, 0)).unwrap().stats)
            });
        }
    }
    group.finish();
}

/// The classical scheduling driver's one batch: distribute a `p·⌈log k⌉`
/// index register, aggregate `p` 5-bit attendance sums, gather the copies.
fn bench_tree_comm(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_comm");
    group.sample_size(10);
    let (g, _) = dumbbell(6, 6, 12);
    let net = Network::new(&g);
    let views = build_bfs_tree(&net, 0).expect("connected").views;
    let k = 16384usize;
    let q = bits_for(g.n() as u64);
    let indices: Vec<u64> = (0..k as u64).collect();
    let reg = Register::pack(&indices, bits_for(k as u64 - 1));
    let (copies, _) = distribute_register(&net, &views, reg.clone(), Schedule::Pipelined).unwrap();
    let values: Vec<Vec<u64>> =
        (0..g.n()).map(|v| (0..k).map(|i| ((i * 7 + v * 3) % 10 < 3) as u64).collect()).collect();
    // The drivers consume their inputs, so each timed iteration also clones
    // them: the register (26 KiB), the value rows (3.4 MB) and the copies.
    group.bench_function("distribute/dumbbell_k16384", |b| {
        b.iter(|| distribute_register(&net, &views, reg.clone(), Schedule::Pipelined).unwrap().1)
    });
    group.bench_function("aggregate/dumbbell_k16384", |b| {
        b.iter(|| aggregate_batch(&net, &views, values.clone(), q, CommOp::Sum).unwrap().stats)
    });
    group.bench_function("gather/dumbbell_k16384", |b| {
        b.iter(|| gather_register(&net, &views, copies.clone()).unwrap().1)
    });
    group.finish();
}

criterion_group!(benches, bench_flood, bench_broadcast, bench_bfs, bench_tree_comm);
criterion_main!(benches);
