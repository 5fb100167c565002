//! Thin delegating adapters that time the two framework boundaries in the
//! traced run: `BatchSource::query` (the oracle) and
//! `ValueProvider::values_for` (Corollary 9's value protocol). The oracle
//! adapter also checks every value a query returns against ground truth.

use crate::span::span;
use congest::aggregate::CommOp;
use congest::runtime::{Network, RoundLedger, RuntimeError};
use dqc_core::framework::ValueProvider;
use pquery::oracle::BatchSource;
use std::cell::Cell;

/// Why an operation failed.
#[derive(Debug)]
pub enum OpError {
    /// The library returned an error.
    Runtime(RuntimeError),
    /// Oracle queries returned this many values that differ from the
    /// source's ground truth.
    WrongValues(u64),
}

impl From<RuntimeError> for OpError {
    fn from(e: RuntimeError) -> Self {
        OpError::Runtime(e)
    }
}

/// Wraps a [`BatchSource`]: each `query` runs in a span named `name` and
/// its returned values are compared, outside the span, with the source's
/// uncharged ground truth (`peek`); `peek` calls made by the caller are
/// counted.
///
/// Over a `CongestOracle` this checks what the network computed: the values
/// come from the tree aggregation (and, for eccentricities, the
/// multi-source BFS), the ground truth from centralized APSP.
#[derive(Debug)]
pub struct TimedSource<'a, S: ?Sized> {
    inner: &'a mut S,
    name: &'static str,
    peeks: Cell<u64>,
    wrong: u64,
}

impl<'a, S: BatchSource + ?Sized> TimedSource<'a, S> {
    /// Wrap `inner`; its queries are recorded as `name` spans.
    pub fn new(inner: &'a mut S, name: &'static str) -> Self {
        TimedSource { inner, name, peeks: Cell::new(0), wrong: 0 }
    }

    /// Peeks made through the wrapper so far.
    pub fn peeks(&self) -> u64 {
        self.peeks.get()
    }

    /// `Ok` if every query so far returned exactly the ground truth of the
    /// indices it was asked for.
    pub fn check(&self) -> Result<(), OpError> {
        match self.wrong {
            0 => Ok(()),
            n => Err(OpError::WrongValues(n)),
        }
    }
}

impl<S: BatchSource + ?Sized> BatchSource for TimedSource<'_, S> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn p(&self) -> usize {
        self.inner.p()
    }

    fn query(&mut self, indices: &[usize]) -> Vec<u64> {
        let values = span(self.name, || self.inner.query(indices));
        let inner = &*self.inner;
        let differ = indices.iter().zip(&values).filter(|&(&i, &v)| v != inner.peek(i)).count();
        self.wrong += (differ + indices.len().abs_diff(values.len())) as u64;
        values
    }

    fn peek(&self, i: usize) -> u64 {
        self.peeks.set(self.peeks.get() + 1);
        self.inner.peek(i)
    }

    fn batches(&self) -> usize {
        self.inner.batches()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// Wraps a [`ValueProvider`]: each `values_for` runs in an `engine.alpha`
/// span.
#[derive(Debug)]
pub struct TimedProvider<P>(pub P);

impl<P: ValueProvider> ValueProvider for TimedProvider<P> {
    fn k(&self) -> usize {
        self.0.k()
    }

    fn q(&self) -> u64 {
        self.0.q()
    }

    fn op(&self) -> CommOp {
        self.0.op()
    }

    fn values_for(
        &mut self,
        net: &Network<'_>,
        indices: &[usize],
        ledger: &mut RoundLedger,
    ) -> Result<Vec<Vec<u64>>, RuntimeError> {
        span("engine.alpha", || self.0.values_for(net, indices, ledger))
    }

    fn truth(&self, i: usize) -> u64 {
        self.0.truth(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pquery::oracle::VecSource;

    /// A source whose queries return a wrong value at one index.
    struct Corrupt(VecSource, usize);

    impl BatchSource for Corrupt {
        fn k(&self) -> usize {
            self.0.k()
        }
        fn p(&self) -> usize {
            self.0.p()
        }
        fn query(&mut self, indices: &[usize]) -> Vec<u64> {
            let bad = self.1;
            let values = self.0.query(indices);
            indices.iter().zip(values).map(|(&i, v)| if i == bad { v + 1 } else { v }).collect()
        }
        fn peek(&self, i: usize) -> u64 {
            self.0.peek(i)
        }
        fn batches(&self) -> usize {
            self.0.batches()
        }
        fn queries(&self) -> u64 {
            self.0.queries()
        }
    }

    #[test]
    fn query_values_are_checked_against_ground_truth() {
        let mut src = Corrupt(VecSource::new(vec![5, 7, 9, 11], 2), 3);
        let mut timed = TimedSource::new(&mut src, "t");
        assert_eq!(timed.query(&[0, 1]), [5, 7]);
        assert!(timed.check().is_ok());
        assert_eq!(timed.query(&[2, 3]), [9, 12]);
        assert_eq!(timed.query(&[3]), [12]);
        assert!(matches!(timed.check(), Err(OpError::WrongValues(2))));
        // The check's own ground-truth reads are not counted as peeks.
        assert_eq!(timed.peeks(), 0);
    }
}
