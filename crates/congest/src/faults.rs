//! Deterministic, seeded fault injection for the round engine.
//!
//! A [`FaultPlan`] describes how the network misbehaves — per-round message
//! drops, link-down intervals, per-edge bandwidth degradation, and bounded
//! delivery delay — and is attached to a [`Network`](crate::runtime::Network)
//! with [`with_faults`](crate::runtime::Network::with_faults). Faults are
//! applied *at delivery time*, inside the engine's routing step, after the
//! model's own validation: a message that names a non-neighbor or overflows
//! the global bandwidth cap is still a protocol error; a message the plan
//! drops is a simulated network fault.
//!
//! # Determinism
//!
//! Every fault decision is a pure hash of
//! `(plan seed, round, from, to, outbox index)` — there is no sequential RNG
//! stream to advance — so the schedule is a function of the traffic alone,
//! and replaying a run with the same seed reproduces it exactly.
//!
//! # Loss tolerance
//!
//! Plain protocols treat the network as reliable; under a lossy plan they
//! may simply never terminate (the engine then reports
//! [`RoundLimitExceeded`](crate::runtime::RuntimeError::RoundLimitExceeded)).
//! The [`Reliable`] wrapper adds a per-link stop-and-wait acknowledgement
//! protocol with round-budgeted retransmission and exponential backoff, so
//! any [`NodeProtocol`] can opt into loss tolerance unchanged. When a link's
//! retry budget is exhausted the run aborts with
//! [`RuntimeError::RetryBudgetExhausted`] instead of hanging.

use crate::graph::{bits_for, Graph, NodeId};
use crate::runtime::{Ctx, MessageSize, NodeProtocol, RuntimeError};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform value in `[0, 1)` using the top 53 bits.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What the fault plan decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Deliver normally at the start of the next round.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver `1 + d` rounds late.
    Delay(usize),
}

/// A scheduled outage of one undirected link.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LinkDown {
    u: NodeId,
    v: NodeId,
    rounds: Range<usize>,
}

/// A deterministic, seeded description of network faults.
///
/// Plans are built with the `with_*` methods and attached to a network via
/// [`Network::with_faults`](crate::runtime::Network::with_faults). All
/// scheduling is derived from the seed by pure hashing — see the
/// [module docs](self) for the determinism contract.
///
/// # Examples
///
/// ```
/// use congest::faults::FaultPlan;
///
/// let plan = FaultPlan::new(7).with_drop_rate(0.1).with_delay(0.2, 3);
/// assert_eq!(plan.seed(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    delay_rate: f64,
    max_delay: usize,
    link_down: Vec<LinkDown>,
    degraded: Vec<(NodeId, NodeId, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 0,
            link_down: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// The seed all fault decisions are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drop each delivered message independently with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate must be in [0, 1]");
        self.drop_rate = rate;
        self
    }

    /// Delay each message independently with probability `rate`, by a
    /// uniform `1..=max_delay` extra rounds. Delayed messages still arrive
    /// (delay is bounded, not loss), merely late.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn with_delay(mut self, rate: f64, max_delay: usize) -> Self {
        assert!((0.0..=1.0).contains(&rate), "delay rate must be in [0, 1]");
        self.delay_rate = rate;
        self.max_delay = if rate > 0.0 { max_delay } else { 0 };
        self
    }

    /// Take the undirected link `{u, v}` down for the given round interval:
    /// every message crossing it in a round within `rounds` is lost.
    pub fn with_link_down(mut self, u: NodeId, v: NodeId, rounds: Range<usize>) -> Self {
        self.link_down.push(LinkDown { u, v, rounds });
        self
    }

    /// Reduce the capacity of the undirected link `{u, v}` to `cap_bits`
    /// per direction per round. Traffic beyond the degraded cap (but within
    /// the network's global cap) is tail-dropped as a fault; traffic beyond
    /// the global cap remains a protocol error.
    pub fn with_degraded_edge(mut self, u: NodeId, v: NodeId, cap_bits: u64) -> Self {
        self.degraded.push((u, v, cap_bits));
        self
    }

    /// Take `count` seed-chosen edges of `g` down for the round interval.
    /// The selection comes from [`Graph::sample_edges`] with this plan's
    /// seed, so it replays identically.
    pub fn with_random_link_down(mut self, g: &Graph, count: usize, rounds: Range<usize>) -> Self {
        for (u, v) in g.sample_edges(count, self.seed ^ 0x11_4D0) {
            self.link_down.push(LinkDown { u, v, rounds: rounds.clone() });
        }
        self
    }

    /// Whether the link `from -> to` is down in `round`.
    pub(crate) fn link_is_down(&self, round: usize, from: NodeId, to: NodeId) -> bool {
        self.link_down.iter().any(|l| {
            ((l.u == from && l.v == to) || (l.u == to && l.v == from)) && l.rounds.contains(&round)
        })
    }

    /// The degraded capacity of `from -> to`, if this plan degrades it.
    pub(crate) fn degraded_cap(&self, from: NodeId, to: NodeId) -> Option<u64> {
        self.degraded
            .iter()
            .find(|&&(u, v, _)| (u == from && v == to) || (u == to && v == from))
            .map(|&(_, _, cap)| cap)
    }

    /// One message's fate: a pure hash of the plan seed and the message's
    /// coordinates (`round`, sender, receiver, position in the sender's
    /// outbox), identical across replays.
    pub(crate) fn decide(&self, round: usize, from: NodeId, to: NodeId, idx: usize) -> Delivery {
        if self.drop_rate > 0.0 {
            let h = self.hash(0xD20B, round, from, to, idx);
            if unit(h) < self.drop_rate {
                return Delivery::Drop;
            }
        }
        if self.delay_rate > 0.0 && self.max_delay > 0 {
            let h = self.hash(0xDE1A, round, from, to, idx);
            if unit(h) < self.delay_rate {
                return Delivery::Delay(1 + (mix64(h) % self.max_delay as u64) as usize);
            }
        }
        Delivery::Deliver
    }

    /// Fold the message coordinates into the seed with a per-kind salt.
    #[inline]
    fn hash(&self, kind: u64, round: usize, from: NodeId, to: NodeId, idx: usize) -> u64 {
        let mut h = mix64(self.seed ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for field in [round as u64, from as u64, to as u64, idx as u64] {
            h = mix64(h ^ field.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        h
    }
}

/// Retransmission parameters of the [`Reliable`] wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Rounds to wait for an acknowledgement before the first retransmit.
    /// Values below 2 are treated as 2 (a data/ack round trip takes two
    /// rounds even on a fault-free link).
    pub base_timeout: usize,
    /// Total transmission attempts per message (first send included) before
    /// the link gives up and the run aborts with
    /// [`RuntimeError::RetryBudgetExhausted`].
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    /// `base_timeout: 4, max_attempts: 30`: a stop-and-wait chain fails
    /// only if *every* attempt loses its data or its ack, so at a 30%
    /// per-message drop rate one chain survives with probability
    /// `1 - 0.51^30 ≈ 1 - 2·10⁻⁹` — effectively certain even across the
    /// thousands of link-chains of a full experiment sweep.
    fn default() -> Self {
        RetryConfig { base_timeout: 4, max_attempts: 30 }
    }
}

impl RetryConfig {
    /// The timeout before retransmit number `attempt` (1-based): exponential
    /// backoff doubling up to 8× the base.
    fn timeout(&self, attempt: u32) -> usize {
        self.base_timeout.max(2) << (attempt - 1).min(3)
    }
}

/// The wire format of the [`Reliable`] wrapper: payloads carry a sequence
/// number, acknowledgements are cumulative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliableMsg<M> {
    /// An application payload with its per-link sequence number.
    Data {
        /// Per-link send sequence number, starting at 0.
        seq: u32,
        /// The wrapped protocol's message.
        payload: M,
    },
    /// Cumulative acknowledgement: every payload up to `seq` has arrived.
    Ack {
        /// Highest in-order sequence number received.
        seq: u32,
    },
}

impl<M: MessageSize> MessageSize for ReliableMsg<M> {
    fn size_bits(&self) -> u64 {
        // 1 tag bit plus the sequence number's width; Data adds its payload.
        match self {
            ReliableMsg::Data { seq, payload } => 1 + bits_for(*seq as u64) + payload.size_bits(),
            ReliableMsg::Ack { seq } => 1 + bits_for(*seq as u64),
        }
    }
}

/// One message awaiting acknowledgement on a link.
#[derive(Debug, Clone)]
struct InFlight<M> {
    seq: u32,
    msg: M,
    attempts: u32,
    retry_at: usize,
}

/// Per-neighbor stop-and-wait state.
#[derive(Debug, Clone)]
struct LinkState<M> {
    peer: NodeId,
    /// Payloads queued behind the in-flight message, FIFO.
    queue: VecDeque<M>,
    in_flight: Option<InFlight<M>>,
    next_seq: u32,
    /// Receiver side: the next sequence number expected from `peer`.
    recv_expected: u32,
    /// Whether an acknowledgement must be emitted this round.
    ack_pending: bool,
}

impl<M> LinkState<M> {
    fn new(peer: NodeId) -> Self {
        LinkState {
            peer,
            queue: VecDeque::new(),
            in_flight: None,
            next_seq: 0,
            recv_expected: 0,
            ack_pending: false,
        }
    }

    fn quiet(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_none()
    }
}

/// A loss-tolerance wrapper: runs any [`NodeProtocol`] over per-link
/// stop-and-wait acknowledged channels with round-budgeted retransmission.
///
/// Each directed link carries at most one unacknowledged payload; further
/// sends queue FIFO behind it, so the wrapped protocol observes exactly the
/// per-link message order it emitted, merely later. An unacknowledged
/// payload is retransmitted with exponential backoff; once
/// [`RetryConfig::max_attempts`] transmissions fail, the node reports
/// [`RuntimeError::RetryBudgetExhausted`] through
/// [`NodeProtocol::failure`] and the engine aborts the run.
///
/// # Examples
///
/// ```
/// use congest::faults::{FaultPlan, Reliable, RetryConfig};
/// use congest::conformance::FloodProtocol;
/// use congest::generators::grid;
/// use congest::runtime::Network;
///
/// let g = grid(4, 3);
/// let net = Network::new(&g).with_faults(FaultPlan::new(5).with_drop_rate(0.2));
/// let nodes = Reliable::wrap_all(FloodProtocol::instances(g.n(), 0), RetryConfig::default());
/// let run = net.run(nodes)?;
/// assert!(run.nodes.iter().all(|r| r.inner().has_token));
/// # Ok::<(), congest::runtime::RuntimeError>(())
/// ```
pub struct Reliable<P: NodeProtocol> {
    inner: P,
    cfg: RetryConfig,
    links: Vec<LinkState<P::Msg>>,
    delivered: Vec<(NodeId, P::Msg)>,
    inner_out: Vec<(NodeId, P::Msg)>,
    failed: Option<RuntimeError>,
}

impl<P: NodeProtocol> Reliable<P> {
    /// Wrap a single protocol instance.
    pub fn new(inner: P, cfg: RetryConfig) -> Self {
        Reliable {
            inner,
            cfg,
            links: Vec::new(),
            delivered: Vec::new(),
            inner_out: Vec::new(),
            failed: None,
        }
    }

    /// Wrap every instance of a protocol vector with the same config.
    pub fn wrap_all(inner: Vec<P>, cfg: RetryConfig) -> Vec<Self> {
        inner.into_iter().map(|p| Reliable::new(p, cfg)).collect()
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn link_mut(links: &mut [LinkState<P::Msg>], peer: NodeId) -> Option<&mut LinkState<P::Msg>> {
        links.iter_mut().find(|l| l.peer == peer)
    }
}

impl<P> fmt::Debug for Reliable<P>
where
    P: NodeProtocol + fmt::Debug,
    P::Msg: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reliable")
            .field("inner", &self.inner)
            .field("links", &self.links)
            .field("failed", &self.failed)
            .finish()
    }
}

impl<P: NodeProtocol> NodeProtocol for Reliable<P> {
    type Msg = ReliableMsg<P::Msg>;

    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[(NodeId, Self::Msg)]) {
        if self.links.is_empty() && !ctx.neighbors().is_empty() {
            self.links = ctx.neighbors().iter().map(|&p| LinkState::new(p)).collect();
        }
        if self.failed.is_some() {
            return; // quiesce; the engine surfaces the failure this round
        }
        let round = ctx.round();

        // 1. Intake: deliver in-order payloads to the inner protocol,
        // clear acknowledged in-flight messages, and note acks to emit.
        self.delivered.clear();
        for (from, msg) in inbox {
            let Some(link) = Self::link_mut(&mut self.links, *from) else { continue };
            match msg {
                ReliableMsg::Data { seq, payload } => {
                    if *seq == link.recv_expected {
                        self.delivered.push((*from, payload.clone()));
                        link.recv_expected += 1;
                    }
                    // Duplicates (a retransmit whose original arrived) are
                    // re-acknowledged so the sender stops retrying.
                    link.ack_pending = true;
                }
                ReliableMsg::Ack { seq } => {
                    if link.in_flight.as_ref().is_some_and(|f| f.seq <= *seq) {
                        link.in_flight = None;
                    }
                }
            }
        }

        // 2. The wrapped protocol's round, on the reliable view: its inbox
        // is the in-order payload stream, its sends go to the link queues.
        let mut inner_out = std::mem::take(&mut self.inner_out);
        inner_out.clear();
        {
            let neighbors = ctx.neighbors();
            let (me, n, cap) = (ctx.me(), ctx.n(), ctx.cap_bits());
            let mut inner_ctx =
                Ctx::internal(me, round, n, cap, neighbors, &mut inner_out, ctx.tel_shard());
            self.inner.on_round(&mut inner_ctx, &self.delivered);
        }
        for (to, m) in inner_out.drain(..) {
            match Self::link_mut(&mut self.links, to) {
                Some(link) => link.queue.push_back(m),
                // A non-neighbor send cannot be made reliable; forward it
                // raw so the engine reports the usual protocol error.
                None => ctx.send(to, ReliableMsg::Data { seq: 0, payload: m }),
            }
        }
        self.inner_out = inner_out;

        // 3. Emit per link, in neighbor order: pending ack, then either the
        // next queued payload or a timed-out retransmission.
        let me = ctx.me();
        for link in &mut self.links {
            if link.ack_pending {
                link.ack_pending = false;
                ctx.send(link.peer, ReliableMsg::Ack { seq: link.recv_expected.wrapping_sub(1) });
                ctx.count("reliable.acks", 1);
            }
            match &mut link.in_flight {
                None => {
                    if let Some(m) = link.queue.pop_front() {
                        let seq = link.next_seq;
                        link.next_seq += 1;
                        ctx.send(link.peer, ReliableMsg::Data { seq, payload: m.clone() });
                        ctx.count("reliable.sends", 1);
                        link.in_flight = Some(InFlight {
                            seq,
                            msg: m,
                            attempts: 1,
                            retry_at: round + self.cfg.timeout(1),
                        });
                    }
                }
                Some(f) if round >= f.retry_at => {
                    if f.attempts >= self.cfg.max_attempts {
                        self.failed = Some(RuntimeError::RetryBudgetExhausted {
                            round,
                            from: me,
                            to: link.peer,
                            attempts: f.attempts,
                        });
                        ctx.count("reliable.exhausted", 1);
                    } else {
                        f.attempts += 1;
                        ctx.send(
                            link.peer,
                            ReliableMsg::Data { seq: f.seq, payload: f.msg.clone() },
                        );
                        let backoff = self.cfg.timeout(f.attempts);
                        f.retry_at = round + backoff;
                        ctx.count("reliable.retries", 1);
                        ctx.observe("reliable.backoff", backoff as u64);
                    }
                }
                Some(_) => {}
            }
        }
    }

    fn is_done(&self) -> bool {
        self.failed.is_none() && self.inner.is_done() && self.links.iter().all(LinkState::quiet)
    }

    fn failure(&self) -> Option<RuntimeError> {
        self.failed.clone().or_else(|| self.inner.failure())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid, path};

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let plan = FaultPlan::new(42).with_drop_rate(0.5).with_delay(0.3, 4);
        for round in 0..20 {
            for idx in 0..5 {
                let a = plan.decide(round, 3, 7, idx);
                let b = plan.decide(round, 3, 7, idx);
                assert_eq!(a, b);
            }
        }
        // A different seed gives a different schedule somewhere.
        let other = FaultPlan::new(43).with_drop_rate(0.5).with_delay(0.3, 4);
        let differs = (0..200).any(|r| plan.decide(r, 0, 1, 0) != other.decide(r, 0, 1, 0));
        assert!(differs, "seeds 42 and 43 produced identical 200-round schedules");
    }

    #[test]
    fn drop_rate_extremes() {
        let never = FaultPlan::new(1);
        let always = FaultPlan::new(1).with_drop_rate(1.0);
        for r in 0..50 {
            assert_eq!(never.decide(r, 0, 1, 0), Delivery::Deliver);
            assert_eq!(always.decide(r, 0, 1, 0), Delivery::Drop);
        }
    }

    #[test]
    fn link_down_is_undirected_and_interval_bounded() {
        let plan = FaultPlan::new(0).with_link_down(2, 5, 3..7);
        assert!(!plan.link_is_down(2, 2, 5));
        assert!(plan.link_is_down(3, 2, 5));
        assert!(plan.link_is_down(6, 5, 2));
        assert!(!plan.link_is_down(7, 2, 5));
        assert!(!plan.link_is_down(4, 2, 4));
    }

    #[test]
    fn degraded_cap_is_undirected() {
        let plan = FaultPlan::new(0).with_degraded_edge(1, 2, 6);
        assert_eq!(plan.degraded_cap(1, 2), Some(6));
        assert_eq!(plan.degraded_cap(2, 1), Some(6));
        assert_eq!(plan.degraded_cap(0, 1), None);
    }

    #[test]
    fn random_selections_replay() {
        let g = grid(5, 5);
        let a = FaultPlan::new(9).with_random_link_down(&g, 4, 0..10);
        let b = FaultPlan::new(9).with_random_link_down(&g, 4, 0..10);
        assert_eq!(a, b);
        let c = FaultPlan::new(10).with_random_link_down(&g, 4, 0..10);
        assert_ne!(a.link_down, c.link_down);
    }

    #[test]
    fn reliable_message_sizes_count_header_and_payload() {
        #[derive(Clone, Debug)]
        struct Bits(u64);
        impl MessageSize for Bits {
            fn size_bits(&self) -> u64 {
                self.0
            }
        }
        let data = ReliableMsg::Data { seq: 5, payload: Bits(10) };
        assert_eq!(data.size_bits(), 1 + 3 + 10);
        let ack: ReliableMsg<Bits> = ReliableMsg::Ack { seq: 0 };
        assert_eq!(ack.size_bits(), 1 + 1);
    }

    #[test]
    fn reliable_roundtrip_on_clean_path() {
        use crate::conformance::FloodProtocol;
        use crate::runtime::Network;
        let g = path(6);
        let net = Network::new(&g);
        let run = net
            .run(Reliable::wrap_all(FloodProtocol::instances(6, 0), RetryConfig::default()))
            .expect("clean reliable flood");
        assert!(run.nodes.iter().all(|r| r.inner().has_token));
        assert_eq!(run.stats.dropped, 0);
    }
}
