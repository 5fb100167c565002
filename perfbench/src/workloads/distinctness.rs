//! `distinctness`: the E4 shape (Lemma 5). `element_distinctness` over a
//! `VecSource` with large `k`, `p ∈ {1, 8, 64}` and one planted collision.
//! Only the query emulation runs; no network is built, so an engine change
//! should move nothing here.

use super::{mix, Size, Workload};
use crate::adapters::{OpError, TimedSource};
use crate::layers::{add, Counts};
use crate::span::{self, span};
use crate::tally::{print, Tally, Verdict};
use congest::runtime::Network;
use pquery::distinctness::element_distinctness;
use pquery::oracle::{BatchSource, VecSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Input lengths, batch widths and runs per `(k, p)` cell.
fn cells(size: Size) -> (Vec<usize>, usize) {
    match size {
        Size::Full => (vec![8192, 16384], 25),
        Size::Tiny => (vec![256], 2),
    }
}

const WIDTHS: [usize; 3] = [1, 8, 64];

/// One input vector with its walk seed.
pub struct Instance {
    src: RefCell<VecSource>,
    seed: u64,
}

/// The `distinctness` workload.
pub struct Distinctness;

impl Workload for Distinctness {
    type Inputs = Vec<Instance>;

    fn setup(seed: u64, size: Size) -> Vec<Instance> {
        let (ks, runs) = cells(size);
        let mut out = Vec::new();
        for k in ks {
            for p in WIDTHS {
                for _ in 0..runs {
                    let seed = mix(seed, out.len() as u64);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut data: Vec<u64> = (0..k as u64).map(|v| 10_000 + v).collect();
                    let i = rng.gen_range(0..k);
                    let j = (i + rng.gen_range(1..k)) % k;
                    data[j] = data[i];
                    out.push(Instance { src: RefCell::new(VecSource::new(data, p)), seed });
                }
            }
        }
        out
    }

    fn pass(
        inputs: &Vec<Instance>,
        _nets: &[Network<'_>],
        mut traced: Option<&mut Counts>,
    ) -> Tally {
        let mut tally = Tally::default();
        for (i, inst) in inputs.iter().enumerate() {
            span::set_instance(i as u32);
            let mut rng = StdRng::seed_from_u64(inst.seed ^ 0x0d15_71c7);
            let p = inst.src.borrow().p();
            tally.record(
                format!("i{i}/element_distinctness/p{p}"),
                || {
                    let mut src = inst.src.borrow_mut();
                    src.reset_ledger();
                    let out = match traced.as_deref_mut() {
                        Some(counts) => {
                            let mut timed = TimedSource::new(&mut *src, "pquery.oracle");
                            let out = span("pquery", || element_distinctness(&mut timed, &mut rng));
                            timed.check()?;
                            add(counts, "pquery.peeks", timed.peeks() as f64);
                            add(counts, "pquery.batches", src.batches() as f64);
                            add(counts, "pquery.queries", src.queries() as f64);
                            out
                        }
                        None => element_distinctness(&mut *src, &mut rng),
                    };
                    Ok::<_, OpError>(out)
                },
                |out| {
                    // One-sided: a reported pair must be a genuine collision.
                    let src = inst.src.borrow();
                    let data = src.data();
                    let pass = out.pair.is_none_or(|(a, b)| a < b && data[a] == data[b]);
                    let v =
                        Verdict { pass, hit: Some(out.pair.is_some()), cost: out.batches as u64 };
                    let answer = out.pair.map_or(u64::MAX, |(a, b)| (a as u64) << 32 | b as u64);
                    (v, print(answer, 0, out.batches as u64))
                },
            );
        }
        tally
    }
}
