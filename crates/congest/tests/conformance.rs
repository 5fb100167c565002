//! The conformance checker against deliberately broken protocols: a
//! cap-violating hog and a cross-non-edge sender must each be caught with
//! full round/edge provenance, while honest protocols report clean.

use congest::conformance::{check_protocol, FloodProtocol, Violation};
use congest::faults::{FaultPlan, Reliable, RetryConfig};
use congest::generators::{grid, path, star};
use congest::runtime::{Ctx, MessageSize, Network, NodeProtocol};

#[derive(Clone, Debug)]
struct Payload(u64);

impl MessageSize for Payload {
    fn size_bits(&self) -> u64 {
        self.0
    }
}

/// Sends `cap + 2` bits to its first neighbor in round 1 — a deliberate
/// bandwidth violation with known provenance.
#[derive(Debug)]
struct CapHog {
    done: bool,
}

impl NodeProtocol for CapHog {
    type Msg = Payload;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Payload>, _inbox: &[(usize, Payload)]) {
        if ctx.me() == 0 && ctx.round() == 1 {
            let cap = ctx.cap_bits();
            ctx.send(ctx.neighbors()[0], Payload(cap + 2));
            self.done = true;
        }
        if ctx.round() >= 1 {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// Node 0 addresses the far end of a path — a deliberate non-edge send.
#[derive(Debug)]
struct CrossSender {
    n: usize,
    done: bool,
}

impl NodeProtocol for CrossSender {
    type Msg = Payload;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Payload>, _inbox: &[(usize, Payload)]) {
        if ctx.me() == 0 && ctx.round() == 2 {
            ctx.send(self.n - 1, Payload(1));
        }
        if ctx.round() >= 2 {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

#[test]
fn cap_violation_caught_with_round_and_edge_provenance() {
    let g = star(6);
    let net = Network::new(&g);
    let cap = net.cap_bits();
    let checked =
        check_protocol(&net, || (0..6).map(|_| CapHog { done: false }).collect()).expect("run");
    assert!(!checked.report.is_clean());
    // Star center is node 0; its first neighbor is node 1.
    assert!(
        checked.report.violations.contains(&Violation::CapExceeded {
            round: 1,
            from: 0,
            to: 1,
            bits: cap + 2,
            cap
        }),
        "missing the expected provenance: {}",
        checked.report.render()
    );
}

#[test]
fn cross_non_edge_send_caught_with_provenance() {
    let n = 7;
    let g = path(n);
    let net = Network::new(&g);
    let checked = check_protocol(&net, || (0..n).map(|_| CrossSender { n, done: false }).collect())
        .expect("run");
    assert!(
        checked.report.violations.contains(&Violation::NonNeighborSend {
            round: 2,
            from: 0,
            to: n - 1
        }),
        "missing the expected provenance: {}",
        checked.report.render()
    );
    // The render carries the provenance for humans too.
    assert!(checked.report.render().contains("round 2: node 0 sent to non-neighbor 6"));
}

#[test]
fn audited_run_reports_every_breach_not_just_the_first() {
    // Three hogs on a star: each over-sends once; audit mode must record
    // all of them where the plain engine stops at the first.
    #[derive(Debug)]
    struct MultiHog {
        done: bool,
    }
    impl NodeProtocol for MultiHog {
        type Msg = Payload;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Payload>, _inbox: &[(usize, Payload)]) {
            if ctx.me() >= 1 && ctx.me() <= 3 && ctx.round() == 0 {
                ctx.send(0, Payload(ctx.cap_bits() + 1));
            }
            self.done = true;
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }
    let g = star(8);
    let net = Network::new(&g);
    let violations = net
        .exec((0..8).map(|_| MultiHog { done: false }).collect::<Vec<_>>())
        .audited()
        .run()
        .expect("audited run")
        .violations;
    let caps = violations.iter().filter(|v| matches!(v, Violation::CapExceeded { .. })).count();
    assert_eq!(caps, 3, "expected one violation per hog: {violations:?}");
    // Plain mode errors instead.
    let err = net
        .run((0..8).map(|_| MultiHog { done: false }).collect::<Vec<_>>())
        .expect_err("plain engine aborts");
    assert!(matches!(err, congest::runtime::RuntimeError::BandwidthExceeded { from: 1, .. }));
}

#[test]
fn honest_protocols_are_clean_even_under_faults() {
    let g = grid(5, 4);
    let plan = FaultPlan::new(8).with_drop_rate(0.15).with_delay(0.1, 2);
    let net = Network::new(&g).with_faults(plan);
    let checked = check_protocol(&net, || {
        Reliable::wrap_all(FloodProtocol::instances(g.n(), 0), RetryConfig::default())
    })
    .expect("faulted reliable flood");
    // Injected faults are not model violations: the run stays conformant,
    // the protocol stays correct, and the loss shows up only in `dropped`.
    assert!(checked.report.is_clean(), "{}", checked.report.render());
    assert!(checked.report.stats.dropped > 0);
    assert!(checked.run.nodes.iter().all(|r| r.inner().has_token));
}

#[test]
fn audit_findings_replay_in_round_then_sender_order() {
    // A protocol that breaches the model both ways on a schedule spread
    // over many nodes and rounds: every third node over-sends to its first
    // neighbor, every fourth sends to a deliberate non-neighbor. Audited
    // runs must report the findings in (round, sender) order, and a replay
    // must yield the *same* `Vec<Violation>` — same length, same order,
    // same round/edge provenance — fault-free or faulted.
    #[derive(Debug)]
    struct Misbehaver {
        n: usize,
        done: bool,
    }
    impl NodeProtocol for Misbehaver {
        type Msg = Payload;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Payload>, _inbox: &[(usize, Payload)]) {
            let me = ctx.me();
            if ctx.round() == me % 3 {
                if me % 3 == 0 {
                    ctx.send(ctx.neighbors()[0], Payload(ctx.cap_bits() + 1));
                }
                if me % 4 == 0 {
                    // The first node that is neither `me` nor adjacent.
                    if let Some(w) = (0..self.n).find(|w| *w != me && !ctx.neighbors().contains(w))
                    {
                        ctx.send(w, Payload(1));
                    }
                }
            }
            if ctx.round() >= 2 {
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }
    let g = grid(6, 5);
    let make = || (0..g.n()).map(|_| Misbehaver { n: g.n(), done: false }).collect::<Vec<_>>();
    let provenance = |v: &Violation| match *v {
        Violation::CapExceeded { round, from, .. }
        | Violation::NonNeighborSend { round, from, .. } => (round, from),
        ref other => panic!("unexpected finding {other:?}"),
    };
    for plan in [None, Some(FaultPlan::new(23).with_drop_rate(0.25).with_delay(0.15, 2))] {
        let net = match &plan {
            Some(p) => Network::new(&g).with_faults(p.clone()),
            None => Network::new(&g),
        };
        let first = net.exec(make()).audited().run().expect("audited run");
        assert!(!first.violations.is_empty(), "the probe protocol must actually misbehave");
        let order: Vec<_> = first.violations.iter().map(provenance).collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "findings out of order: {order:?}");
        let replay = net.exec(make()).audited().run().expect("audited replay");
        assert_eq!(replay.violations, first.violations, "faulted={}", plan.is_some());
        assert_eq!(replay.stats, first.stats);
    }
}
