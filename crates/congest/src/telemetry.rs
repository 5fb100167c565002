//! Structured, deterministic telemetry for protocol runs.
//!
//! The flat per-round [`Trace`](crate::runtime::Trace) answers *how much*
//! a run cost; this module answers *where* the cost went. A [`Collector`]
//! records
//!
//! * **spans** — a hierarchy of named intervals (protocol → phase → batch)
//!   measured on the round-index timebase, entered either by drivers
//!   ([`Collector::enter`]/[`Collector::exit`], [`Collector::record_run`],
//!   [`Collector::absorb_ledger`]) or implicitly around an instrumented
//!   engine run;
//! * **counters and histograms** — monotone sums and power-of-two-bucketed
//!   distributions, bumped by drivers or by protocols through
//!   [`Ctx::count`](crate::runtime::Ctx::count) /
//!   [`Ctx::observe`](crate::runtime::Ctx::observe);
//! * **per-round samples** — the engine's message/bit/drop accounting,
//!   subsuming [`RoundTrace`], each stamped with its absolute round index;
//! * **per-edge cumulative load** — total (qu)bits offered per directed
//!   edge, for congestion heatmaps;
//! * **marks** — instant per-node events emitted by protocols via
//!   [`Ctx::mark`](crate::runtime::Ctx::mark).
//!
//! # Determinism contract
//!
//! Everything a [`Collector`] records from the engine is **round-indexed,
//! never wall-clock-timed**, and recorded in node order: the engine calls
//! the nodes of a round in id order, and protocols and the router write
//! into one staging shard that the collector drains at the end of each
//! round, so replaying an instrumented run exports **byte-identical**
//! trace and metrics files. The single explicitly non-deterministic input is
//! [`Collector::wall_annotation`], an opt-in wall-clock note that is kept
//! in a separate section of the metrics export and never enters the trace
//! timeline.
//!
//! # Overhead when disabled
//!
//! Telemetry is off unless a run attaches a collector via
//! [`Exec::telemetry`](crate::runtime::Exec::telemetry): without one the
//! engine passes a `None` sink, so the only cost is one untaken branch per
//! routed sender and a null field in each per-round context — nothing is
//! allocated and no string is formatted.
//!
//! # Export formats
//!
//! * [`Collector::to_chrome_jsonl`] — Chrome trace-event objects, one JSON
//!   object per line (Perfetto's JSON importer accepts newline-delimited
//!   events). The `ts`/`dur` fields carry **round indices**, not
//!   microseconds.
//! * [`Collector::metrics_json`] — a compact machine-readable summary:
//!   counters, histograms, span table, per-edge loads.
//! * [`Collector::render`] — a terminal report: span tree with round
//!   attribution, counters, bucketed histograms, and a per-edge
//!   congestion heatmap.

use crate::graph::NodeId;
use crate::runtime::{RoundLedger, RoundTrace, RunStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named interval on the round timebase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span label, e.g. `"meeting-scheduling"`, `"batch"`, `"distribute"`.
    pub name: String,
    /// Nesting depth (0 = root).
    pub depth: u16,
    /// Round index at which the span opened.
    pub start: u64,
    /// Rounds covered (set when the span closes; open spans report 0).
    pub rounds: u64,
}

/// One engine round, stamped with its absolute round index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSample {
    /// Absolute round index on the collector's timebase.
    pub round: u64,
    /// The round's accounting (same shape as a traced run's entry).
    pub trace: RoundTrace,
}

/// An instant per-node event emitted by a protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mark {
    /// Absolute round index.
    pub round: u64,
    /// The emitting node.
    pub node: NodeId,
    /// Event label.
    pub label: String,
}

/// A power-of-two-bucketed histogram of `u64` observations.
///
/// Bucket `i` counts observations whose bit width is `i` (bucket 0 holds
/// the value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds 4–7,
/// …), so the bucket layout is value-independent and merges are exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        let idx = (64 - v.leading_zeros()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Mean observation (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(bucket lower bound, count)` for every non-empty bucket, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// One round's telemetry, staged by the engine before the [`Collector`]
/// folds it in.
///
/// A run owns exactly one shard. Protocols write into it through
/// [`Ctx`](crate::runtime::Ctx) and the router adds per-edge loads, all in
/// node order; the collector drains it at the end of every round.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// `(node, label)` marks, in emission (= node) order.
    pub(crate) marks: Vec<(NodeId, String)>,
    /// Counter bumps, in emission order.
    pub(crate) counts: Vec<(&'static str, u64)>,
    /// Histogram observations, in emission order.
    pub(crate) observations: Vec<(&'static str, u64)>,
    /// Per-edge offered load `(from, to, bits)` flushed by the router.
    pub(crate) edges: Vec<(NodeId, NodeId, u64)>,
}

/// The telemetry sink: spans, counters, histograms, round samples, edge
/// loads, and marks, all on one round-indexed timebase.
///
/// # Examples
///
/// ```
/// use congest::telemetry::Collector;
/// use congest::runtime::RunStats;
///
/// let mut col = Collector::new();
/// col.enter("protocol");
/// col.record_run("setup", &RunStats { rounds: 4, ..Default::default() });
/// col.record_run("query", &RunStats { rounds: 9, ..Default::default() });
/// col.exit();
/// assert_eq!(col.cursor(), 13);
/// assert_eq!(col.spans().len(), 3);
/// assert!(col.to_chrome_jsonl().lines().count() >= 3);
/// ```
#[derive(Debug, Default)]
pub struct Collector {
    spans: Vec<Span>,
    stack: Vec<usize>,
    cursor: u64,
    in_run_round: u64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    edges: BTreeMap<(NodeId, NodeId), u64>,
    rounds: Vec<RoundSample>,
    marks: Vec<Mark>,
    wall: Vec<(String, u64)>,
}

impl Collector {
    /// An empty collector at round 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current position on the round timebase.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Advance the timebase by `rounds` (used after an uninstrumented
    /// phase whose cost is known from its [`RunStats`]).
    pub fn advance(&mut self, rounds: u64) {
        self.cursor += rounds;
    }

    /// Open a span at the current cursor.
    pub fn enter(&mut self, name: &str) {
        let depth = self.stack.len() as u16;
        self.stack.push(self.spans.len());
        self.spans.push(Span { name: name.to_string(), depth, start: self.cursor, rounds: 0 });
    }

    /// Close the innermost open span; its length is the rounds elapsed
    /// since [`enter`](Self::enter).
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        let idx = self.stack.pop().expect("exit without a matching enter");
        self.spans[idx].rounds = self.cursor - self.spans[idx].start;
    }

    /// Record a completed phase as a leaf span covering `stats.rounds`
    /// rounds, and fold its message/bit/drop totals into the counters.
    pub fn record_run(&mut self, name: &str, stats: &RunStats) {
        self.enter(name);
        self.advance(stats.rounds as u64);
        self.add("engine.messages", stats.messages);
        self.add("engine.bits", stats.total_bits);
        self.add("engine.dropped", stats.dropped);
        self.exit();
    }

    /// Convert a driver's [`RoundLedger`] into a span tree rooted at
    /// `protocol`: consecutive phases sharing the same `/`-prefix (e.g.
    /// the `batch/...` triplets of the framework oracle) are grouped under
    /// one parent span, so a ledger like `setup/leader-election,
    /// setup/bfs-tree, batch/distribute, batch/aggregate, batch/gather,
    /// batch/distribute, …` becomes `protocol → {setup → …, batch → …}`.
    pub fn absorb_ledger(&mut self, protocol: &str, ledger: &RoundLedger) {
        self.enter(protocol);
        let phases = ledger.phases();
        let mut i = 0;
        while i < phases.len() {
            let (name, _) = &phases[i];
            match name.split_once('/') {
                Some((group, _)) => {
                    self.enter(group);
                    while i < phases.len() {
                        let (n, stats) = &phases[i];
                        match n.split_once('/') {
                            Some((g, rest)) if g == group => {
                                self.record_run(rest, stats);
                                i += 1;
                            }
                            _ => break,
                        }
                    }
                    self.exit();
                }
                None => {
                    let (_, stats) = &phases[i];
                    self.record_run(name, stats);
                    i += 1;
                }
            }
        }
        self.exit();
    }

    /// Add `v` to the named counter.
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Record one observation in the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Attach an explicitly non-deterministic wall-clock annotation (in
    /// microseconds). Annotations live in their own section of the metrics
    /// export, never in the trace timeline — see the module docs'
    /// determinism contract.
    pub fn wall_annotation(&mut self, name: &str, micros: u64) {
        self.wall.push((name.to_string(), micros));
    }

    /// All spans, in open (pre-)order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The named counter's value (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Per-round samples of every instrumented engine run, in order.
    pub fn round_samples(&self) -> &[RoundSample] {
        &self.rounds
    }

    /// Cumulative offered load per directed edge, sorted by `(from, to)`.
    pub fn edge_loads(&self) -> &BTreeMap<(NodeId, NodeId), u64> {
        &self.edges
    }

    /// Protocol marks, in round then node order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    // --- engine-facing interface (crate-internal) --------------------

    /// Start an instrumented engine run: local round 0 is the cursor.
    pub(crate) fn begin_engine_run(&mut self) {
        self.in_run_round = 0;
    }

    /// Fold one executed round into the collector: the round's accounting
    /// plus the (already node-ordered) shard contents.
    pub(crate) fn engine_round(&mut self, trace: RoundTrace, shard: &mut Shard) {
        let round = self.cursor + self.in_run_round;
        self.in_run_round += 1;
        self.rounds.push(RoundSample { round, trace });
        for (node, label) in shard.marks.drain(..) {
            self.marks.push(Mark { round, node, label });
        }
        for (name, v) in shard.counts.drain(..) {
            *self.counters.entry(name.to_string()).or_insert(0) += v;
        }
        for (name, v) in shard.observations.drain(..) {
            self.histograms.entry(name.to_string()).or_default().observe(v);
        }
        for (from, to, bits) in shard.edges.drain(..) {
            *self.edges.entry((from, to)).or_insert(0) += bits;
        }
    }

    /// End an instrumented engine run that measured `rounds` rounds:
    /// trailing quiet samples are truncated (mirroring
    /// [`Trace`](crate::runtime::Trace)'s truncation) and the cursor
    /// advances, folding the run's totals into the counters.
    pub(crate) fn finish_engine_run(&mut self, stats: &RunStats) {
        let end = self.cursor + stats.rounds as u64;
        self.rounds.retain(|s| s.round < end);
        self.cursor = end;
        self.in_run_round = 0;
        self.add("engine.messages", stats.messages);
        self.add("engine.bits", stats.total_bits);
        self.add("engine.dropped", stats.dropped);
    }

    // --- exporters ---------------------------------------------------

    /// Export as Chrome trace-event JSONL: one event object per line,
    /// loadable by Perfetto and `chrome://tracing` (both accept
    /// newline-delimited event objects). `ts` and `dur` are **round
    /// indices**.
    pub fn to_chrome_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"congest rounds\"}}\n",
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\"depth\":{}}}}}",
                json_escape(&s.name),
                s.start,
                s.rounds,
                s.depth
            );
        }
        for m in &self.marks {
            let _ = writeln!(
                out,
                "{{\"name\":{},\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                json_escape(&m.label),
                m.round,
                m.node + 1
            );
        }
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "{{\"name\":\"round\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"messages\":{},\"bits\":{},\"dropped\":{}}}}}",
                r.round, r.trace.messages, r.trace.bits, r.trace.dropped
            );
        }
        out
    }

    /// Export the compact metrics summary as a JSON object.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"rounds\": {},", self.cursor);
        out.push_str("  \"counters\": {");
        let items: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("{}: {}", json_escape(k), v)).collect();
        out.push_str(&items.join(", "));
        out.push_str("},\n");
        out.push_str("  \"histograms\": {");
        let items: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> =
                    h.buckets().iter().map(|(lo, c)| format!("[{lo}, {c}]")).collect();
                format!(
                    "{}: {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}",
                    json_escape(k),
                    h.count,
                    h.sum,
                    h.max,
                    buckets.join(", ")
                )
            })
            .collect();
        out.push_str(&items.join(", "));
        out.push_str("},\n");
        out.push_str("  \"spans\": [");
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"depth\": {}, \"start\": {}, \"rounds\": {}}}",
                    json_escape(&s.name),
                    s.depth,
                    s.start,
                    s.rounds
                )
            })
            .collect();
        out.push_str(&items.join(", "));
        out.push_str("],\n");
        out.push_str("  \"edges\": [");
        let items: Vec<String> =
            self.edges.iter().map(|(&(f, t), &bits)| format!("[{f}, {t}, {bits}]")).collect();
        out.push_str(&items.join(", "));
        out.push_str("],\n");
        out.push_str("  \"wall_annotations\": [");
        let items: Vec<String> =
            self.wall.iter().map(|(k, us)| format!("[{}, {}]", json_escape(k), us)).collect();
        out.push_str(&items.join(", "));
        out.push_str("]\n}\n");
        out
    }

    /// Render a terminal report: span tree with round attribution,
    /// counters, bucketed histograms, and the per-edge congestion heatmap
    /// (`width` bounds both bar width and the number of heatmap rows).
    pub fn render(&self, width: usize) -> String {
        let width = width.max(8);
        let mut out = String::new();
        let total = self.cursor.max(1);
        out.push_str("phase breakdown (rounds):\n");
        for s in &self.spans {
            let bar = ((s.rounds * width as u64) / total) as usize;
            let _ = writeln!(
                out,
                "  {:indent$}{:<24} {:>7} | {}",
                "",
                s.name,
                s.rounds,
                "#".repeat(bar),
                indent = 2 * s.depth as usize
            );
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<32} {v:>12}");
            }
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {k} (count {}, mean {:.1}, max {}):",
                h.count,
                h.mean(),
                h.max
            );
            let peak = h.buckets().iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
            for (lo, c) in h.buckets() {
                let bar = ((c * width as u64) / peak) as usize;
                let _ = writeln!(out, "  >= {lo:>10} | {:<width$} {c}", "#".repeat(bar));
            }
        }
        if !self.edges.is_empty() {
            let _ = writeln!(
                out,
                "edge load heatmap (top {width} of {} edges, bits):",
                self.edges.len()
            );
            let mut loads: Vec<(NodeId, NodeId, u64)> =
                self.edges.iter().map(|(&(f, t), &b)| (f, t, b)).collect();
            // Hottest first; ties broken by (from, to) so the report is
            // stable across replays.
            loads.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
            let peak = loads.first().map_or(1, |l| l.2).max(1);
            const RAMP: &[u8] = b" .:-=+*#%@";
            for &(f, t, bits) in loads.iter().take(width) {
                let bar = ((bits * width as u64) / peak) as usize;
                let shade = RAMP[(bits * (RAMP.len() as u64 - 1) / peak) as usize] as char;
                let _ =
                    writeln!(out, "  {f:>5} -> {t:<5} {shade} {:<width$} {bits}", "#".repeat(bar));
            }
        }
        out
    }
}

/// A JSON string literal for `s`: quotes, backslashes, and control bytes
/// escaped per RFC 8259 (non-ASCII passes through as UTF-8).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_nesting_and_cursor() {
        let mut col = Collector::new();
        col.enter("protocol");
        col.enter("setup");
        col.advance(5);
        col.exit();
        col.enter("batch");
        col.record_run("distribute", &RunStats { rounds: 3, messages: 7, ..Default::default() });
        col.record_run("gather", &RunStats { rounds: 2, ..Default::default() });
        col.exit();
        col.exit();
        assert_eq!(col.cursor(), 10);
        let spans = col.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0], Span { name: "protocol".into(), depth: 0, start: 0, rounds: 10 });
        assert_eq!(spans[2].name, "batch");
        assert_eq!(spans[2].start, 5);
        assert_eq!(spans[2].rounds, 5);
        assert_eq!(spans[3].depth, 2);
        assert_eq!(col.counter("engine.messages"), 7);
    }

    #[test]
    fn absorb_ledger_groups_prefixes() {
        let mut ledger = RoundLedger::new();
        ledger.record("setup/leader", RunStats { rounds: 2, ..Default::default() });
        ledger.record("setup/bfs", RunStats { rounds: 3, ..Default::default() });
        ledger.record("batch/distribute", RunStats { rounds: 4, ..Default::default() });
        ledger.record("batch/gather", RunStats { rounds: 1, ..Default::default() });
        ledger.record("certify", RunStats { rounds: 6, ..Default::default() });
        let mut col = Collector::new();
        col.absorb_ledger("meeting", &ledger);
        let names: Vec<(&str, u16, u64)> =
            col.spans().iter().map(|s| (s.name.as_str(), s.depth, s.rounds)).collect();
        assert_eq!(
            names,
            vec![
                ("meeting", 0, 16),
                ("setup", 1, 5),
                ("leader", 2, 2),
                ("bfs", 2, 3),
                ("batch", 1, 5),
                ("distribute", 2, 4),
                ("gather", 2, 1),
                ("certify", 1, 6),
            ]
        );
        assert_eq!(col.cursor(), 16);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 1000);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (4, 2), (8, 1), (512, 1)]);
    }

    #[test]
    fn engine_round_merges_shard_in_order() {
        let mut col = Collector::new();
        col.advance(10); // a prior phase
        col.begin_engine_run();
        let mut shard = Shard::default();
        shard.marks.push((3, "probe".into()));
        shard.counts.push(("reliable.retries", 2));
        shard.observations.push(("reliable.backoff", 4));
        shard.edges.push((0, 1, 8));
        shard.edges.push((0, 1, 8));
        col.engine_round(RoundTrace { messages: 2, bits: 16, ..Default::default() }, &mut shard);
        col.engine_round(RoundTrace::default(), &mut shard);
        col.finish_engine_run(&RunStats {
            rounds: 1,
            messages: 2,
            total_bits: 16,
            ..Default::default()
        });
        assert_eq!(col.cursor(), 11);
        // The trailing quiet round was truncated.
        assert_eq!(col.round_samples().len(), 1);
        assert_eq!(col.round_samples()[0].round, 10);
        assert_eq!(col.marks(), &[Mark { round: 10, node: 3, label: "probe".into() }]);
        assert_eq!(col.counter("reliable.retries"), 2);
        assert_eq!(col.edge_loads()[&(0, 1)], 16);
        assert_eq!(col.histogram("reliable.backoff").unwrap().count, 1);
    }

    #[test]
    fn chrome_jsonl_lines_are_json_objects() {
        let mut col = Collector::new();
        col.enter("a \"quoted\" span\n");
        col.advance(3);
        col.exit();
        let out = col.to_chrome_jsonl();
        assert!(out.lines().count() >= 2);
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
        assert!(out.contains("\\\"quoted\\\""));
        assert!(out.contains("\"ph\":\"X\""));
    }

    #[test]
    fn metrics_json_shape() {
        let mut col = Collector::new();
        col.enter("p");
        col.advance(2);
        col.exit();
        col.add("c", 5);
        col.observe("h", 3);
        col.wall_annotation("build", 1234);
        let json = col.metrics_json();
        assert!(json.contains("\"rounds\": 2"));
        assert!(json.contains("\"c\": 5"));
        assert!(json.contains("\"buckets\": [[2, 1]]"));
        assert!(json.contains("\"wall_annotations\": [[\"build\", 1234]]"));
    }

    #[test]
    fn json_escape_adversarial() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_escape("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(json_escape("tab\tnl\ncr\r"), "\"tab\\tnl\\ncr\\r\"");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        // Non-ASCII passes through unescaped (valid UTF-8 JSON).
        assert_eq!(json_escape("héllo ∞ 日本"), "\"héllo ∞ 日本\"");
        assert_eq!(json_escape(""), "\"\"");
    }

    #[test]
    fn render_contains_sections() {
        let mut col = Collector::new();
        col.enter("proto");
        col.advance(4);
        col.exit();
        col.add("engine.bits", 40);
        col.observe("batch.width", 3);
        let mut shard = Shard::default();
        shard.edges.push((0, 1, 30));
        shard.edges.push((1, 2, 10));
        col.begin_engine_run();
        col.engine_round(RoundTrace::default(), &mut shard);
        col.finish_engine_run(&RunStats { rounds: 1, ..Default::default() });
        let r = col.render(16);
        assert!(r.contains("phase breakdown"));
        assert!(r.contains("proto"));
        assert!(r.contains("counters:"));
        assert!(r.contains("histogram batch.width"));
        assert!(r.contains("edge load heatmap"));
        assert!(r.contains("0 -> 1"));
    }
}
