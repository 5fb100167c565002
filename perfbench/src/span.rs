//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer. Spans
//! live in a thread-local buffer (the benchmark is single-threaded) and are
//! written out when the run ends. With recording off, [`span`] is one
//! thread-local flag check around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since recording started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `framework.query`.
    pub name: &'static str,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// The workload instance the span belongs to.
    pub instance: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    instance: u32,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording into an empty buffer.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            instance: 0,
        })
    });
}

/// Stop recording and return the spans, in opening order.
pub fn stop() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Tag spans opened from now on with `instance`.
pub fn set_instance(instance: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.instance = instance;
        }
    });
}

/// Run `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = Guard::open(name);
    f()
}

/// Closes its span on drop, so a panic caught further up leaves the buffer
/// consistent.
struct Guard(Option<usize>);

impl Guard {
    fn open(name: &'static str) -> Self {
        Guard(REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut()?;
            let idx = rec.spans.len();
            let now = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: rec.open.last().copied(),
                instance: rec.instance,
            });
            rec.open.push(idx);
            Some(idx)
        }))
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.retain(|&i| i != idx);
            }
        });
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: number of spans, total seconds and self seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, s.
    pub total_s: f64,
    /// Summed self time, s.
    pub self_s: f64,
}

/// Fold spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
    }
    out
}

/// Spans as JSON lines: name, start, end, parent, instance.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"instance\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.instance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, instance: 0 }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,100) ⊃ mid [10,60) ⊃ leaf [20,30)
        let spans =
            [sp("root", 0, 100, None), sp("mid", 10, 60, Some(0)), sp("leaf", 20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_sum_and_overlaps_count_once() {
        // Disjoint siblings [10,20) and [30,50); overlapping pair [60,80), [70,90).
        let spans = [
            sp("root", 0, 100, None),
            sp("a", 10, 20, Some(0)),
            sp("b", 30, 50, Some(0)),
            sp("c", 60, 80, Some(0)),
            sp("d", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 10 - 20 - 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [sp("root", 10, 20, None), sp("kid", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn totals_fold_by_name() {
        let spans =
            [sp("query", 0, 40, None), sp("alpha", 10, 30, Some(0)), sp("query", 50, 60, None)];
        let t = totals(&spans);
        assert_eq!(t["query"].count, 2);
        assert!((t["query"].total_s - 50e-9).abs() < 1e-15);
        assert!((t["query"].self_s - 30e-9).abs() < 1e-15);
        assert!((t["alpha"].self_s - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_links_parents_and_survives_panics() {
        start();
        set_instance(7);
        span("outer", || {
            span("inner", || ());
            let caught = std::panic::catch_unwind(|| span("boom", || panic!("expected")));
            assert!(caught.is_err());
            span("after", || ());
        });
        let spans = stop();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("boom", Some(0)), ("after", Some(0))]
        );
        assert!(spans.iter().all(|s| s.instance == 7 && s.end_ns >= s.start_ns));
        // Off: no spans, the call still runs.
        assert_eq!(span("off", || 3), 3);
        assert!(stop().is_empty());
    }
}
