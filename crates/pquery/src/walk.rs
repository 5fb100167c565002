//! The MNRS quantum-walk framework over Johnson graphs — the machinery
//! behind Lemma 5, exposed for reuse.
//!
//! A walk over `J(k, z)` (vertices = `z`-subsets of `[k]`) searching for
//! *marked* subsets costs
//!
//! ```text
//!   S  +  (1/√ε) · ( C  +  (1/√δ_p) · U )
//! ```
//!
//! where `S = ⌈z/p⌉` setup batches, `U = 1` batch per `p`-fold walk step
//! (`δ_p = Ω(p/z)` is the spectral gap of the p-th-power walk — the
//! paper's key rebalancing), `C` check batches, and `ε` the marked
//! fraction. [`WalkSchedule`] computes the prescribed iteration counts and
//! [`JohnsonWalk`] maintains the charged walk state (subset, tracked
//! values, honest oracle traffic) that `distinctness` and custom walk
//! algorithms drive.

use crate::oracle::BatchSource;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// The MNRS iteration counts for a Johnson-graph walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkSchedule {
    /// Subset size `z`.
    pub z: usize,
    /// Setup batches `⌈z/p⌉`.
    pub setup_batches: usize,
    /// Outer (amplification) iterations `⌈c₁/√ε⌉`.
    pub outer: usize,
    /// Inner (walk-step) iterations per outer round `⌈c₂·√(z/p)⌉`.
    pub inner: usize,
}

impl WalkSchedule {
    /// Build the schedule for input size `k`, batch width `p`, subset size
    /// `z`, and marked-subset fraction `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `p < z ≤ k/2` (the proof's requirements) and
    /// `0 < eps ≤ 1`.
    pub fn new(k: usize, p: usize, z: usize, eps: f64) -> Self {
        assert!(p < z && z <= k / 2, "need p < z <= k/2 (Lemma 5)");
        assert!(eps > 0.0 && eps <= 1.0);
        WalkSchedule {
            z,
            setup_batches: z.div_ceil(p),
            outer: (1.5 / eps.sqrt()).ceil() as usize,
            inner: ((z as f64 / p as f64).sqrt()).ceil() as usize,
        }
    }

    /// Total batches the schedule charges: `S + outer·inner·U`.
    pub fn total_batches(&self) -> usize {
        self.setup_batches + self.outer * self.inner
    }
}

/// Charged walk state over `J(k, z)`: the current subset, its (honestly
/// queried) values, and the complement pool.
///
/// The values are kept in index order, so everything read from them is
/// independent of hashing. A multiset of the values, with a count of the
/// values held more than once, is kept up to date by every step.
#[derive(Debug, Clone)]
pub struct JohnsonWalk {
    subset: Vec<usize>,
    outside: Vec<usize>,
    values: BTreeMap<usize, u64>,
    /// How many subset members hold each value.
    multiplicity: HashMap<u64, usize>,
    /// How many values are held by two or more subset members.
    repeated: usize,
}

impl JohnsonWalk {
    /// Set up the walk: sample a uniform `z`-subset and query it through
    /// the charged oracle (`⌈z/p⌉` batches).
    pub fn setup<S, R>(src: &mut S, z: usize, rng: &mut R) -> Self
    where
        S: BatchSource + ?Sized,
        R: Rng,
    {
        let k = src.k();
        let p = src.p().min(k);
        assert!(z <= k, "subset larger than the input");
        let mut indices: Vec<usize> = (0..k).collect();
        indices.shuffle(rng);
        let subset: Vec<usize> = indices[..z].to_vec();
        let outside: Vec<usize> = indices[z..].to_vec();
        let mut walk = JohnsonWalk {
            subset: Vec::new(),
            outside,
            values: BTreeMap::new(),
            multiplicity: HashMap::with_capacity(z),
            repeated: 0,
        };
        for chunk in subset.chunks(p) {
            for (&i, v) in chunk.iter().zip(src.query(chunk)) {
                walk.track(i, v);
            }
        }
        walk.subset = subset;
        walk
    }

    /// Start tracking value `v` of index `i`.
    fn track(&mut self, i: usize, v: u64) {
        self.values.insert(i, v);
        let m = self.multiplicity.entry(v).or_insert(0);
        *m += 1;
        if *m == 2 {
            self.repeated += 1;
        }
    }

    /// Stop tracking index `i`.
    fn untrack(&mut self, i: usize) {
        let v = self.values.remove(&i).expect("index is tracked");
        let m = self.multiplicity.get_mut(&v).expect("value is counted");
        *m -= 1;
        match *m {
            0 => {
                self.multiplicity.remove(&v);
            }
            1 => self.repeated -= 1,
            _ => {}
        }
    }

    /// The current subset.
    pub fn subset(&self) -> &[usize] {
        &self.subset
    }

    /// The tracked value of index `i`, if it is in the subset.
    pub fn value(&self, i: usize) -> Option<u64> {
        self.values.get(&i).copied()
    }

    /// Iterate over `(index, value)` pairs of the current subset, in
    /// ascending index order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.values.iter().map(|(&i, &v)| (i, v))
    }

    /// One `p`-th-power walk step: replace up to `p` subset members with
    /// fresh outside indices and query the newcomers (one charged batch) —
    /// the paper's "p classical random-walk steps = one quantum step".
    pub fn step<S, R>(&mut self, src: &mut S, rng: &mut R)
    where
        S: BatchSource + ?Sized,
        R: Rng,
    {
        let p = src.p().min(src.k());
        let swaps = p.min(self.outside.len()).min(self.subset.len());
        let mut newcomers = Vec::with_capacity(swaps);
        // Newcomers still in the subset: one may leave again in the same
        // step, before its value is known.
        let mut staying = Vec::with_capacity(swaps);
        for _ in 0..swaps {
            let oi = rng.gen_range(0..self.outside.len());
            let si = rng.gen_range(0..self.subset.len());
            let leaving = self.subset[si];
            let entering = self.outside.swap_remove(oi);
            self.subset[si] = entering;
            self.outside.push(leaving);
            match staying.iter().position(|&i| i == leaving) {
                Some(pos) => {
                    staying.swap_remove(pos);
                }
                None => self.untrack(leaving),
            }
            newcomers.push(entering);
            staying.push(entering);
        }
        if !newcomers.is_empty() {
            for (&i, v) in newcomers.iter().zip(src.query(&newcomers)) {
                if let Some(pos) = staying.iter().position(|&s| s == i) {
                    staying.swap_remove(pos);
                    self.track(i, v);
                }
            }
        }
    }

    /// Check the current subset with a free predicate over the tracked
    /// values (the `C = 0` of Lemma 5): returns the first witness the
    /// predicate extracts.
    pub fn check<T, F: Fn(&JohnsonWalk) -> Option<T>>(&self, pred: F) -> Option<T> {
        pred(self)
    }
}

/// Convenience: find a collision pair among the tracked values — the
/// distinctness check. Scans the subset in index order and returns the first
/// index whose value an earlier index already holds, paired with the first
/// such earlier index. With no repeated value it returns `None` at once.
pub fn collision_in(walk: &JohnsonWalk) -> Option<(usize, usize)> {
    if walk.repeated == 0 {
        return None;
    }
    let mut seen = HashMap::new();
    for (i, v) in walk.entries() {
        if let Some(&j) = seen.get(&v) {
            return Some((j, i));
        }
        seen.insert(v, i);
    }
    unreachable!("a repeated value is held by two subset members")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::VecSource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_matches_lemma5_shape() {
        // z = k^{2/3} p^{1/3}, ε = z²/k² ⇒ total = Θ((k/p)^{2/3}).
        for (k, p) in [(1000usize, 1usize), (8000, 8), (64_000, 64)] {
            let z = crate::distinctness::walk_subset_size(k, p);
            let eps = (z as f64 / k as f64).powi(2);
            let s = WalkSchedule::new(k, p, z, eps);
            let theory = (k as f64 / p as f64).powf(2.0 / 3.0);
            let ratio = s.total_batches() as f64 / theory;
            assert!(
                ratio > 0.5 && ratio < 8.0,
                "k={k} p={p}: {} vs theory {theory}",
                s.total_batches()
            );
        }
    }

    #[test]
    fn setup_charges_ceil_z_over_p() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = VecSource::new((0..1000u64).collect(), 7);
        let walk = JohnsonWalk::setup(&mut src, 100, &mut rng);
        assert_eq!(src.batches(), 100usize.div_ceil(7));
        assert_eq!(walk.subset().len(), 100);
        // All tracked values are honest.
        for (i, v) in walk.entries() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn steps_charge_one_batch_each_and_stay_consistent() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut src = VecSource::new((0..500u64).map(|i| i * 3).collect(), 5);
        let mut walk = JohnsonWalk::setup(&mut src, 50, &mut rng);
        let base = src.batches();
        for step in 1..=20 {
            walk.step(&mut src, &mut rng);
            assert_eq!(src.batches(), base + step);
            assert_eq!(walk.subset().len(), 50);
            for (i, v) in walk.entries() {
                assert_eq!(v, i as u64 * 3, "tracked value stale at step {step}");
            }
        }
    }

    #[test]
    fn collision_check_finds_planted_pair_once_in_subset() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut data: Vec<u64> = (0..100u64).map(|i| 1000 + i).collect();
        data[70] = data[20];
        let mut src = VecSource::new(data, 10);
        // Walk until the pair is in the subset (bounded tries).
        let mut walk = JohnsonWalk::setup(&mut src, 40, &mut rng);
        for _ in 0..200 {
            if walk.value(20).is_some() && walk.value(70).is_some() {
                assert_eq!(walk.check(collision_in), Some((20, 70)));
                return;
            }
            walk.step(&mut src, &mut rng);
        }
        panic!("pair never entered the subset in 200 steps");
    }

    #[test]
    fn collision_check_is_in_index_order_with_several_pairs() {
        // Pairs (3, 30), (21, 60) and (5, 90): scanning in index order, 30
        // is the first index whose value was already seen.
        let mut data: Vec<u64> = (0..100u64).map(|i| 1000 + i).collect();
        for (i, j) in [(3, 30), (21, 60), (5, 90)] {
            data[j] = data[i];
        }
        let mut src = VecSource::new(data.clone(), 100);
        let mut rng = StdRng::seed_from_u64(4);
        let walk = JohnsonWalk::setup(&mut src, 100, &mut rng);
        let order: Vec<usize> = walk.entries().map(|(i, _)| i).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
        assert_eq!(walk.check(collision_in), Some((3, 30)));
        // Walk a subset with several planted pairs: whatever it holds, the
        // answer is the index-order reference.
        let reference = |w: &JohnsonWalk| {
            let mut idx = w.subset().to_vec();
            idx.sort_unstable();
            idx.iter()
                .enumerate()
                .find_map(|(b, &j)| idx[..b].iter().find(|&&i| data[i] == data[j]).map(|&i| (i, j)))
        };
        let mut src = VecSource::new(data.clone(), 4);
        let mut walk = JohnsonWalk::setup(&mut src, 40, &mut rng);
        let mut hits = 0;
        for _ in 0..300 {
            let want = reference(&walk);
            hits += want.is_some() as usize;
            assert_eq!(walk.check(collision_in), want);
            walk.step(&mut src, &mut rng);
        }
        assert!(hits > 0, "no planted pair ever entered the subset");
    }

    #[test]
    fn multiplicities_follow_the_subset() {
        let data: Vec<u64> = (0..60u64).map(|i| i % 7).collect();
        let mut src = VecSource::new(data.clone(), 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut walk = JohnsonWalk::setup(&mut src, 20, &mut rng);
        for _ in 0..50 {
            let mut want: HashMap<u64, usize> = HashMap::new();
            for &i in walk.subset() {
                *want.entry(data[i]).or_insert(0) += 1;
            }
            assert_eq!(walk.multiplicity, want);
            assert_eq!(walk.repeated, want.values().filter(|&&m| m >= 2).count());
            let mut members = walk.subset().to_vec();
            members.sort_unstable();
            assert!(walk.entries().map(|(i, _)| i).eq(members), "entries are the subset");
            walk.step(&mut src, &mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "p < z")]
    fn schedule_rejects_bad_parameters() {
        WalkSchedule::new(100, 60, 50, 0.1);
    }
}
