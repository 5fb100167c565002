//! Operation accounting: every call into the library is one attempted
//! operation. It succeeds when it returns without error or panic and passes
//! its deterministic checks; bounded-error quantum outcomes are counted
//! separately, as hits against attempts.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the checks concluded about one returned operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The deterministic checks passed.
    pub pass: bool,
    /// For a bounded-error quantum outcome: whether it was correct.
    pub hit: Option<bool>,
    /// The operation's cost in the paper's own measure.
    pub cost: u64,
}

/// One operation's identity and result, compared across passes (every
/// pass must repeat them) and between the library drivers and their traced
/// rebuilds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Instance and operation, e.g. `i3/quantum_radius`.
    pub id: String,
    /// The answer.
    pub answer: u64,
    /// CONGEST rounds, or 0 where no network runs.
    pub rounds: u64,
    /// Oracle batches (or Grover queries).
    pub batches: u64,
}

/// Counts over a set of operations; two passes over the same inputs must
/// give the same results ([`Tally::same_results`]).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned and passed their checks.
    pub ok: u64,
    /// Quantum outcomes observed.
    pub outcomes: u64,
    /// Quantum outcomes that were correct.
    pub hits: u64,
    /// Summed cost of returned operations.
    pub model_cost: u64,
    /// Fingerprints of returned operations, in order.
    pub prints: Vec<Fingerprint>,
    /// Wall time of each attempted operation's call, s, in order. Not a
    /// result: passes differ here.
    pub op_s: Vec<f64>,
}

impl Tally {
    /// Run one operation: `f` produces the result, `judge` checks it. A
    /// returned error, a panic in either, or a failed check counts as a
    /// failed operation and does not stop the caller.
    pub fn record<T, E: Debug>(
        &mut self,
        id: String,
        f: impl FnOnce() -> Result<T, E>,
        judge: impl FnOnce(&T) -> (Verdict, Fingerprint),
    ) {
        self.attempted += 1;
        let t0 = Instant::now();
        let mut call = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let returned = f();
            call = Some(t0.elapsed());
            returned.map(|v| judge(&v))
        }));
        // A call that panicked is timed up to the catch.
        self.op_s.push(call.unwrap_or_else(|| t0.elapsed()).as_secs_f64());
        match outcome {
            Ok(Ok((v, print))) => {
                self.model_cost += v.cost;
                if let Some(hit) = v.hit {
                    self.outcomes += 1;
                    self.hits += u64::from(hit);
                }
                if v.pass {
                    self.ok += 1;
                } else {
                    eprintln!("check failed: {id}");
                }
                self.prints.push(Fingerprint { id, ..print });
            }
            Ok(Err(e)) => eprintln!("error in {id}: {e:?}"),
            Err(_) => eprintln!("panic in {id}"),
        }
    }

    /// Whether `other` returned exactly what this tally did: counts,
    /// answers, rounds and batches, but not times.
    pub fn same_results(&self, other: &Tally) -> bool {
        let key = |t: &Tally| (t.attempted, t.ok, t.outcomes, t.hits, t.model_cost);
        key(self) == key(other) && self.prints == other.prints
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Share of quantum outcomes that were correct.
    pub fn success_rate(&self) -> f64 {
        ratio(self.hits, self.outcomes)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// A fingerprint for an operation whose id the tally fills in.
pub fn print(answer: u64, rounds: u64, batches: u64) -> Fingerprint {
    Fingerprint { id: String::new(), answer, rounds, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pass: bool, hit: Option<bool>, cost: u64) -> (Verdict, Fingerprint) {
        (Verdict { pass, hit, cost }, print(0, 0, 0))
    }

    #[test]
    fn counts_checks_and_outcomes_separately() {
        let mut t = Tally::default();
        t.record("a".into(), || Ok::<_, ()>(1), |_| v(true, Some(true), 5));
        t.record("b".into(), || Ok::<_, ()>(2), |_| v(true, Some(false), 7));
        t.record("c".into(), || Ok::<_, ()>(3), |_| v(false, None, 1));
        assert_eq!((t.attempted, t.ok, t.failed()), (3, 2, 1));
        assert_eq!((t.outcomes, t.hits, t.model_cost), (2, 1, 13));
        assert!((t.success_rate() - 0.5).abs() < 1e-12);
        let ids: Vec<_> = t.prints.iter().map(|p| p.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c"]);
    }

    #[test]
    fn errors_and_panics_are_failed_operations_not_aborts() {
        let mut t = Tally::default();
        t.record("err".into(), || Err::<u8, _>("runtime error"), |_| v(true, Some(true), 1));
        t.record(
            "panic".into(),
            || -> Result<u8, ()> { panic!("expected in test") },
            |_| v(true, Some(true), 1),
        );
        t.record(
            "judge-panic".into(),
            || Ok::<_, ()>(0usize),
            |&i| {
                let empty: [u8; 0] = [];
                v(empty[i] == 0, None, 0)
            },
        );
        t.record("fine".into(), || Ok::<_, ()>(0), |_| v(true, Some(true), 2));
        assert_eq!((t.attempted, t.ok, t.failed()), (4, 1, 3));
        assert_eq!((t.outcomes, t.hits, t.model_cost), (1, 1, 2));
        assert_eq!(t.success_rate(), 1.0);
        assert_eq!(t.prints.len(), 1);
        assert_eq!(t.op_s.len(), 4);
    }

    #[test]
    fn every_operation_is_timed_and_times_are_not_results() {
        let mut a = Tally::default();
        a.record("a".into(), || Ok::<_, ()>(1), |_| v(true, None, 5));
        a.record("b".into(), || Ok::<_, ()>(2), |_| v(true, Some(true), 7));
        assert_eq!(a.op_s.len(), 2);
        assert!(a.op_s.iter().all(|&s| s >= 0.0));
        let mut b = a.clone();
        b.op_s = vec![1.0, 2.0];
        assert!(a.same_results(&b));
        b.prints[1].rounds = 3;
        assert!(!a.same_results(&b));
    }
}
