//! Strided, multi-threaded statevector kernels.
//!
//! Every gate in [`crate::state::State`] bottoms out here. The kernels
//! replace the seed's branch-per-index full scans (retained in
//! [`crate::reference`] as the differential-test oracle) with **strided
//! bit-pair loops**: a single-qubit gate on qubit `q` touches the pairs
//! `(i, i | 1<<q)` with the target bit clear in `i`, so the loops iterate
//! only those `2^{n-1}` base indices — as nested block/offset loops over
//! contiguous memory — instead of scanning all `2^n` indices and branching.
//! Controls are *hoisted out of the inner loop*: the iteration space is the
//! sub-cube where every control bit is 1, enumerated by a compressed
//! counter whose bits are expanded around the fixed (control and target)
//! positions, so no per-index mask test remains.
//!
//! ## Parallelism and determinism
//!
//! Kernels fan out with `std::thread::scope` over contiguous ranges of
//! work — amplitude chunks, blocks, tiles or swap-tile rows — and join
//! before they return. Results are **bit-identical across thread counts**:
//!
//! * gate kernels are elementwise on disjoint pairs — each amplitude is
//!   written by exactly one thread with exactly the operations the
//!   sequential loop would perform, so there is nothing to merge;
//! * reductions ([`norm_sqr`], [`prob_one`]) accumulate per-chunk partial
//!   sums over *fixed* chunk boundaries ([`REDUCE_CHUNK`] amplitudes,
//!   independent of the thread count) and fold the partials in chunk
//!   order on the calling thread.
//!
//! [`auto_threads`] engages parallelism only for states of at least
//! [`PARALLEL_QUBIT_THRESHOLD`] qubits on hosts with more than one core;
//! below that the per-gate thread fan-out costs more than the scan.
//!
//! ## SIMD
//!
//! On x86-64 CPUs with AVX2 the dense complex loops — uncontrolled
//! single-qubit pairs, qubit 0's in-register pairs included, and the
//! diagonal sweep's phase multiplies, runs of one amplitude included — run
//! two amplitudes per 256-bit register. The path is picked once per kernel call
//! (`Path::detect`). Each complex product is the same four IEEE products,
//! one subtraction and one addition as `C64::mul`, with no FMA, so both
//! paths give identical bits; the scalar loops are the fallback elsewhere
//! and the reference in the tests.

use crate::circuit::FusedOp;
use crate::complex::C64;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum qubit count at which [`auto_threads`] parallelizes. A `2^18`
/// amplitude pass (4 MiB) comfortably amortizes the scoped-thread spawn;
/// smaller states run the strided loops sequentially.
pub const PARALLEL_QUBIT_THRESHOLD: usize = 18;

/// Fixed reduction-chunk size (in amplitudes). Partial sums are taken per
/// `REDUCE_CHUNK` slice regardless of the thread count, which is what makes
/// reductions bit-identical across 1, 2, … threads.
pub const REDUCE_CHUNK: usize = 1 << 12;

/// Global upper bound on kernel threads (0 = uncapped). See
/// [`set_thread_cap`].
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Cap the number of threads any kernel will use (0 removes the cap).
///
/// Intended for benchmarks that want to isolate single-threaded kernel
/// gains from multi-threading gains; thread count never changes results,
/// only scheduling.
pub fn set_thread_cap(cap: usize) {
    THREAD_CAP.store(cap, Ordering::Relaxed);
}

/// The current thread cap (0 = uncapped).
pub fn thread_cap() -> usize {
    THREAD_CAP.load(Ordering::Relaxed)
}

/// The thread count the kernels pick for an `n`-qubit state: the host's
/// available parallelism for `n ≥ PARALLEL_QUBIT_THRESHOLD`, else 1,
/// clamped by [`set_thread_cap`].
pub fn auto_threads(n_qubits: usize) -> usize {
    let auto = if n_qubits >= PARALLEL_QUBIT_THRESHOLD {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        1
    };
    match thread_cap() {
        0 => auto,
        cap => auto.min(cap),
    }
}

/// One term of a fused diagonal sweep: multiply the amplitude of every
/// basis state `x` with `x & mask == mask` by `factor` (a unit-modulus
/// phase). `mask == 0` is a global phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagTerm {
    /// Bits that must all be 1 for the term to fire.
    pub mask: usize,
    /// The phase factor `e^{iθ}`.
    pub factor: C64,
}

/// How a kernel call does its complex arithmetic. Both paths give
/// identical bits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Portable scalar loops.
    Scalar,
    /// Two amplitudes per AVX2 register. Only [`Path::detect`] picks it, on
    /// a CPU that has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Path {
    /// The fastest path this CPU supports.
    fn detect() -> Path {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Path::Avx2;
        }
        Path::Scalar
    }
}

#[inline(always)]
fn pair_update(a: &mut C64, b: &mut C64, m: &[[C64; 2]; 2]) {
    let a0 = *a;
    let a1 = *b;
    *a = m[0][0] * a0 + m[0][1] * a1;
    *b = m[1][0] * a0 + m[1][1] * a1;
}

/// Sequential strided single-qubit kernel on a block-aligned slice.
///
/// Kept out of line: inlined into the tile loop of `run_tile`, the same
/// loop ran about half as fast.
#[inline(never)]
fn apply_1q_seq(amps: &mut [C64], bit: usize, m: &[[C64; 2]; 2], path: Path) {
    match path {
        // SAFETY: `Path::Avx2` is only picked on CPUs with AVX2.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 if bit == 1 => unsafe { simd::apply_1q_q0(amps, m) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { simd::apply_1q_seq(amps, bit, m) },
        Path::Scalar => {
            for chunk in amps.chunks_exact_mut(bit << 1) {
                let (lo, hi) = chunk.split_at_mut(bit);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    pair_update(a, b, m);
                }
            }
        }
    }
}

/// Sequential single-qubit kernel on the two halves of a high-target pair:
/// pair `o` is `(lo[o], hi[o])`. Out of line like [`apply_1q_seq`].
#[inline(never)]
fn apply_1q_pair(lo: &mut [C64], hi: &mut [C64], m: &[[C64; 2]; 2], path: Path) {
    match path {
        // SAFETY: `Path::Avx2` is only picked on CPUs with AVX2.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { simd::pair_run(lo, hi, m) },
        Path::Scalar => {
            for (a, b) in lo.iter_mut().zip(hi) {
                pair_update(a, b, m);
            }
        }
    }
}

/// Multiply every amplitude of `run` by `f`.
#[inline(always)]
fn scale_run(run: &mut [C64], f: C64, path: Path) {
    match path {
        // SAFETY: `Path::Avx2` is only picked on CPUs with AVX2.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 if run.len() >= 2 => unsafe { simd::scale_run(run, f) },
        _ => {
            for a in run {
                *a = *a * f;
            }
        }
    }
}

/// The AVX2 complex loops. Two amplitudes `[re₀, im₀, re₁, im₁]` share a
/// 256-bit register, and the product with a constant `f` is
/// `addsub(a · [f.re], swap(a) · [f.im]) = [a.re·f.re − a.im·f.im,
/// a.im·f.re + a.re·f.im]`: the four products, the subtraction and the
/// addition of `C64::mul`, each rounded once, in an order that only
/// commutes operands. There is no FMA, so the bits match the scalar loops.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{pair_update, C64};
    use std::arch::x86_64::*;

    /// A constant factor broadcast as `([re; 4], [im; 4])`.
    type Splat = (__m256d, __m256d);

    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(f: C64) -> Splat {
        (_mm256_set1_pd(f.re), _mm256_set1_pd(f.im))
    }

    /// `f · a` for the two amplitudes in `a`, bit-identical to `C64::mul`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul(a: __m256d, (re, im): Splat) -> __m256d {
        _mm256_addsub_pd(_mm256_mul_pd(a, re), _mm256_mul_pd(_mm256_permute_pd::<0b0101>(a), im))
    }

    /// Load two amplitudes.
    ///
    /// # Safety
    ///
    /// `p` must point to two readable amplitudes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(p: *const C64) -> __m256d {
        // SAFETY: per the contract; `C64` is `repr(C)` `[re, im]`.
        unsafe { _mm256_loadu_pd(p.cast()) }
    }

    /// Store two amplitudes.
    ///
    /// # Safety
    ///
    /// `p` must point to two writable amplitudes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(p: *mut C64, v: __m256d) {
        // SAFETY: per the contract; `C64` is `repr(C)` `[re, im]`.
        unsafe { _mm256_storeu_pd(p.cast(), v) }
    }

    /// `super::apply_1q_pair` on pairs `(lo[o], hi[o])`, two at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn pair_run(lo: &mut [C64], hi: &mut [C64], m: &[[C64; 2]; 2]) {
        let [[m00, m01], [m10, m11]] = *m;
        let (m00, m01, m10, m11) = (splat(m00), splat(m01), splat(m10), splat(m11));
        let n = lo.len().min(hi.len());
        let (lo, hi) = (&mut lo[..n], &mut hi[..n]);
        let even = n & !1;
        for o in (0..even).step_by(2) {
            // SAFETY: `o + 1 < n`, the length of both slices.
            unsafe {
                let (pa, pb) = (lo.as_mut_ptr().add(o), hi.as_mut_ptr().add(o));
                let (a0, a1) = (load(pa), load(pb));
                store(pa, _mm256_add_pd(mul(a0, m00), mul(a1, m01)));
                store(pb, _mm256_add_pd(mul(a0, m10), mul(a1, m11)));
            }
        }
        for (a, b) in lo[even..].iter_mut().zip(&mut hi[even..]) {
            pair_update(a, b, m);
        }
    }

    /// `super::apply_1q_seq` for `bit ≥ 2`: each block's halves are runs of
    /// an even length.
    #[target_feature(enable = "avx2")]
    pub(super) fn apply_1q_seq(amps: &mut [C64], bit: usize, m: &[[C64; 2]; 2]) {
        for chunk in amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = chunk.split_at_mut(bit);
            pair_run(lo, hi, m);
        }
    }

    /// `super::apply_1q_seq` for qubit 0, where the pair `(a₀, a₁)` is one
    /// register: broadcast each half, multiply by the columns `[m00|m10]`
    /// and `[m01|m11]`, and add. Lane by lane that is `m00·a₀ + m01·a₁`
    /// and `m10·a₀ + m11·a₁`, as in `pair_update`.
    #[target_feature(enable = "avx2")]
    pub(super) fn apply_1q_q0(amps: &mut [C64], m: &[[C64; 2]; 2]) {
        let [[m00, m01], [m10, m11]] = *m;
        let column = |t: C64, b: C64| {
            (_mm256_setr_pd(t.re, t.re, b.re, b.re), _mm256_setr_pd(t.im, t.im, b.im, b.im))
        };
        let (c0, c1) = (column(m00, m10), column(m01, m11));
        for pair in amps.chunks_exact_mut(2) {
            let p = pair.as_mut_ptr();
            // SAFETY: `pair` holds two amplitudes.
            unsafe {
                let a = load(p);
                let (a0, a1) =
                    (_mm256_permute2f128_pd::<0x00>(a, a), _mm256_permute2f128_pd::<0x11>(a, a));
                store(p, _mm256_add_pd(mul(a0, c0), mul(a1, c1)));
            }
        }
    }

    /// `super::scale_masked`: `a ← a · f` on the runs `c | mask ..` of
    /// `2^{tz(mask)}` amplitudes, for every subset `c` of `free`, in one
    /// loop. A run of one amplitude is the odd half of the pair that starts
    /// one below it: multiply the pair, then blend the even amplitude back
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics unless `mask` is non-zero and `mask | free` is below
    /// `sub.len()`, which `sub`'s index bits then contain.
    #[target_feature(enable = "avx2")]
    pub(super) fn scale_masked(sub: &mut [C64], mask: usize, free: usize, f: C64) {
        let len = 1usize << mask.trailing_zeros();
        assert!(mask != 0 && (mask | free | (len - 1)) < sub.len(), "mask outside the sub-block");
        let fs = splat(f);
        let p = sub.as_mut_ptr();
        let next = |c: usize| (c != free).then(|| c.wrapping_sub(free) & free);
        let mut c = Some(0usize);
        if len == 1 {
            // `mask` has bit 0 set, so `c | mask` is odd.
            let even = mask & !1;
            while let Some(s) = c {
                // SAFETY: `s | mask < sub.len()` by the assertion, and the
                // pair starts at `s | even = (s | mask) − 1`.
                unsafe {
                    let q = p.add(s | even);
                    let v = load(q);
                    store(q, _mm256_blend_pd::<0b1100>(v, mul(v, fs)));
                }
                c = next(s);
            }
        } else {
            while let Some(s) = c {
                for o in (0..len).step_by(2) {
                    // SAFETY: the run `s | mask .. + len` ends at
                    // `s | mask | (len − 1) < sub.len()`.
                    unsafe {
                        let q = p.add((s | mask) + o);
                        store(q, mul(load(q), fs));
                    }
                }
                c = next(s);
            }
        }
    }

    /// `super::scale_run`: `a ← a · f` over `run`, two at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn scale_run(run: &mut [C64], f: C64) {
        let fs = splat(f);
        let even = run.len() & !1;
        for o in (0..even).step_by(2) {
            // SAFETY: `o + 1 < run.len()`.
            unsafe {
                let p = run.as_mut_ptr().add(o);
                store(p, mul(load(p), fs));
            }
        }
        for a in &mut run[even..] {
            *a = *a * f;
        }
    }
}

/// Apply a single-qubit unitary `m` to qubit `q` of a `2^n` statevector.
///
/// # Panics
///
/// Panics if `amps.len()` is not a multiple of `2^{q+1}`.
pub fn apply_1q(amps: &mut [C64], q: usize, m: [[C64; 2]; 2], threads: usize) {
    let bit = 1usize << q;
    let block = bit << 1;
    assert!(amps.len().is_multiple_of(block), "state too small for qubit {q}");
    let threads = threads.max(1);
    crate::metrics::bump(crate::metrics::Counter::KernelLaunches, 1);
    crate::metrics::bump(crate::metrics::Counter::KernelThreads, threads as u64);
    let path = Path::detect();
    if threads == 1 {
        apply_1q_seq(amps, bit, &m, path);
        return;
    }
    let num_blocks = amps.len() / block;
    if num_blocks >= threads {
        // Low/middle target: whole 2^{q+1} blocks are contiguous and
        // independent; hand each worker a contiguous run of blocks.
        let per = num_blocks.div_ceil(threads) * block;
        std::thread::scope(|s| {
            for chunk in amps.chunks_mut(per) {
                s.spawn(move || apply_1q_seq(chunk, bit, &m, path));
            }
        });
    } else {
        // High target: few huge blocks. Split each block at the target-bit
        // boundary and zip the halves — pair `o` is (lo[o], hi[o]) — then
        // chunk the zipped halves across workers.
        for chunk in amps.chunks_exact_mut(block) {
            let (lo, hi) = chunk.split_at_mut(bit);
            let per = bit.div_ceil(threads);
            std::thread::scope(|s| {
                for (lc, hc) in lo.chunks_mut(per).zip(hi.chunks_mut(per)) {
                    s.spawn(move || apply_1q_pair(lc, hc, &m, path));
                }
            });
        }
    }
}

/// Insert a 0 bit at each position in `fixed` (ascending), spreading the
/// compressed counter `c` over the free bit positions.
#[inline(always)]
fn expand(mut c: usize, fixed: &[usize]) -> usize {
    for &p in fixed {
        let low = c & ((1usize << p) - 1);
        c = ((c >> p) << (p + 1)) | low;
    }
    c
}

/// A raw amplitude pointer shared across scoped workers.
///
/// Soundness rests on the kernels' index discipline: workers get disjoint
/// ranges of work items, and distinct work items touch disjoint amplitudes.
/// A controlled gate's compressed counter maps (via [`expand`]) to a
/// distinct `(i, i | bit)` pair, a tile index to a distinct set of blocks,
/// and a pair of swap tiles is handled only from the tile with the smaller
/// outer pattern (see [`apply_swaps`]).
struct AmpsPtr(*mut C64);
// SAFETY: the only field is the pointer; `C64` is plain `Copy` data, and
// the index discipline above keeps threads on disjoint amplitudes.
unsafe impl Send for AmpsPtr {}
// SAFETY: as for `Send`; shared access only hands out the pointer value.
unsafe impl Sync for AmpsPtr {}

impl AmpsPtr {
    /// The base pointer (a method, so closures capture the whole wrapper).
    fn get(&self) -> *mut C64 {
        self.0
    }
}

/// Apply a single-qubit unitary to qubit `q`, conditioned on every bit of
/// `ctrl_mask` being 1. `ctrl_mask == 0` reduces to [`apply_1q`].
///
/// The control test is hoisted out of the loop entirely: the kernel
/// iterates a compressed counter over the free (non-control, non-target)
/// bits and expands it around the fixed positions, so only the
/// `2^{n-1-|controls|}` live pairs are visited.
///
/// # Panics
///
/// Panics if the target bit is inside `ctrl_mask` or the masks exceed the
/// state.
pub fn apply_controlled_1q(
    amps: &mut [C64],
    ctrl_mask: usize,
    q: usize,
    m: [[C64; 2]; 2],
    threads: usize,
) {
    if ctrl_mask == 0 {
        apply_1q(amps, q, m, threads);
        return;
    }
    let n = amps.len().trailing_zeros() as usize;
    let bit = 1usize << q;
    assert!(ctrl_mask & bit == 0, "target cannot be its own control");
    assert!(ctrl_mask | bit < amps.len(), "control/target out of range");
    let fixed_mask = ctrl_mask | bit;
    // Fixed bit positions on the stack — no per-gate allocation.
    let mut fixed_buf = [0usize; usize::BITS as usize];
    let mut nf = 0;
    for p in 0..n {
        if fixed_mask >> p & 1 == 1 {
            fixed_buf[nf] = p;
            nf += 1;
        }
    }
    let fixed = &fixed_buf[..nf];
    let free = n - nf;
    let count = 1usize << free;
    let threads = threads.max(1).min(count);
    // The ctrl_mask == 0 case already counted inside its apply_1q call.
    crate::metrics::bump(crate::metrics::Counter::KernelLaunches, 1);
    crate::metrics::bump(crate::metrics::Counter::KernelThreads, threads as u64);
    if threads == 1 {
        for c in 0..count {
            let i = expand(c, fixed) | ctrl_mask;
            let j = i | bit;
            let a0 = amps[i];
            let a1 = amps[j];
            amps[i] = m[0][0] * a0 + m[0][1] * a1;
            amps[j] = m[1][0] * a0 + m[1][1] * a1;
        }
        return;
    }
    let ptr = AmpsPtr(amps.as_mut_ptr());
    let per = count.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let lo = t * per;
            let hi = ((t + 1) * per).min(count);
            let ptr = &ptr;
            let fixed = &fixed;
            s.spawn(move || {
                for c in lo..hi {
                    let i = expand(c, fixed) | ctrl_mask;
                    let j = i | bit;
                    // SAFETY: `expand` is injective and strictly monotone
                    // in `c`, `i` has the target bit clear and `j` set, so
                    // the pairs of disjoint counter ranges are disjoint
                    // amplitude sets (see `AmpsPtr`).
                    unsafe {
                        let pa = ptr.0.add(i);
                        let pb = ptr.0.add(j);
                        let a0 = *pa;
                        let a1 = *pb;
                        *pa = m[0][0] * a0 + m[0][1] * a1;
                        *pb = m[1][0] * a0 + m[1][1] * a1;
                    }
                }
            });
        }
    });
}

/// Amplitudes per block in the blocked diagonal sweep: 2^12 · 16 B = 64 KiB.
///
/// The block size is part of the result, not just of the schedule: terms
/// are classified and merged per block, and merging multiplies factors
/// together before they reach an amplitude. Changing this constant changes
/// result bits.
///
/// A block is larger than a typical 32–48 KiB L1d, so after classifying a
/// block's terms the sweep applies them [`DIAG_SUB_BLOCK`] amplitudes at a
/// time: each sub-block takes the block prefactor and then every active
/// term, in the block's term order, before the next sub-block starts.
const DIAG_BLOCK: usize = 1 << 12;

/// Amplitudes per L1-resident sub-block of a diagonal sweep: 2^8 · 16 B =
/// 4 KiB. Sub-blocks only reorder the work between amplitudes: every
/// amplitude still gets the block prefactor and then each active term's
/// factor, in order, and no terms merge at this level. Changing this
/// constant does not change result bits, unlike [`DIAG_BLOCK`].
const DIAG_SUB_BLOCK: usize = 1 << 8;

/// Index bits every tile spans: the bits of one [`DIAG_BLOCK`].
const TILE_LOW_BITS: usize = DIAG_BLOCK.trailing_zeros() as usize;

/// Most high target qubits (`q ≥ TILE_LOW_BITS`) one tile may add. A tile
/// is `2^{12 + 2}` amplitudes (256 KiB), which stays L2-resident while a
/// stage's groups run over it.
pub(crate) const TILE_MAX_HIGH: usize = 2;

/// Whether an uncontrolled matrix on qubit `q` needs a tile's high bits.
pub(crate) fn is_high_target(q: usize) -> bool {
    q >= TILE_LOW_BITS
}

/// One contiguous run of whole blocks. For each block the high bits of the
/// index are constant, so every term is classified once per block instead of
/// once per amplitude: terms whose high mask bits are unsatisfied are dead,
/// terms whose mask lies entirely in the high bits collapse to a scalar
/// prefactor, and terms that reduce to the same block-local low mask merge
/// into one. Blocks no term touches are skipped without reading their
/// amplitudes. The block is then swept one [`DIAG_SUB_BLOCK`] at a time: the
/// prefactor first, then each surviving term on the amplitudes its mask
/// selects inside the sub-block (see [`scale_masked`]) — only the
/// `block_len / 2^{popcount}` amplitudes it fires on are visited. `active` is
/// scratch space for the per-block term list.
fn diag_sweep_run(
    run: &mut [C64],
    run_base: usize,
    terms: &[DiagTerm],
    block_len: usize,
    active: &mut Vec<DiagTerm>,
    path: Path,
) {
    let low = block_len - 1;
    for (bi, block) in run.chunks_mut(block_len).enumerate() {
        let base = run_base + bi * block_len;
        active.clear();
        let mut pre = C64::ONE;
        let mut fired = false;
        for t in terms {
            let high = t.mask & !low;
            if base & high != high {
                continue;
            }
            let lm = t.mask & low;
            if lm == 0 {
                pre = pre * t.factor;
                fired = true;
            } else if let Some(slot) = active.iter_mut().find(|s| s.mask == lm) {
                slot.factor = slot.factor * t.factor;
            } else {
                active.push(DiagTerm { mask: lm, factor: t.factor });
            }
        }
        let sub_len = DIAG_SUB_BLOCK.min(block_len);
        let sub_low = sub_len - 1;
        for (si, sub) in block.chunks_mut(sub_len).enumerate() {
            let sub_base = si * sub_len;
            if fired {
                scale_run(sub, pre, path);
            }
            for t in active.iter() {
                // Bits above the sub-block are fixed inside it, as the
                // block's high bits are inside the block.
                let high = t.mask & !sub_low;
                if sub_base & high != high {
                    continue;
                }
                match t.mask & sub_low {
                    0 => scale_run(sub, t.factor, path),
                    mask => scale_masked(sub, mask, t.factor, path),
                }
            }
        }
    }
}

/// Multiply every amplitude `x` of `sub` with `x & mask == mask` by `f`
/// (`0 < mask < sub.len()`). The mask's lowest set bit is above a contiguous
/// run of free bits, so the term fires on runs of `2^{tz(mask)}`
/// neighbours. The run starts — the patterns of the remaining free bits —
/// are enumerated in ascending order with the O(1) subset-increment.
#[inline(always)]
fn scale_masked(sub: &mut [C64], mask: usize, f: C64, path: Path) {
    let len = 1usize << mask.trailing_zeros();
    let free = (sub.len() - 1) & !mask & !(len - 1);
    match path {
        // SAFETY: `Path::Avx2` is only picked on CPUs with AVX2.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { simd::scale_masked(sub, mask, free, f) },
        Path::Scalar => {
            let mut c = 0usize;
            loop {
                scale_run(&mut sub[c | mask..][..len], f, path);
                if c == free {
                    break;
                }
                c = c.wrapping_sub(free) & free;
            }
        }
    }
}

/// Apply a fused run of diagonal gates in one blocked pass: each amplitude
/// is multiplied by the product of the [`DiagTerm`] factors whose masks it
/// satisfies. One memory sweep replaces one sweep per diagonal gate, and
/// per-block term hoisting keeps the inner loop over the (usually tiny) set
/// of terms that can still fire inside the block. Work is split at block
/// boundaries, so the per-amplitude arithmetic is identical for every thread
/// count.
pub fn apply_diag(amps: &mut [C64], terms: &[DiagTerm], threads: usize) {
    if terms.is_empty() {
        return;
    }
    let block_len = DIAG_BLOCK.min(amps.len());
    let blocks = amps.len() / block_len;
    let threads = threads.max(1).min(blocks);
    crate::metrics::bump(crate::metrics::Counter::KernelLaunches, 1);
    crate::metrics::bump(crate::metrics::Counter::KernelThreads, threads as u64);
    crate::metrics::bump(crate::metrics::Counter::DiagBlocks, blocks as u64);
    let path = Path::detect();
    if threads == 1 {
        diag_sweep_run(amps, 0, terms, block_len, &mut Vec::new(), path);
        return;
    }
    let per = blocks.div_ceil(threads) * block_len;
    std::thread::scope(|s| {
        for (t, run) in amps.chunks_mut(per).enumerate() {
            s.spawn(move || diag_sweep_run(run, t * per, terms, block_len, &mut Vec::new(), path));
        }
    });
}

/// Run a stage of fused groups — diagonal sweeps and *uncontrolled*
/// matrices — tile by tile, in one pass over the state.
///
/// A tile is the `2^{|high|}` [`DIAG_BLOCK`]-aligned blocks that share every
/// index bit outside the low block bits and the `high` target qubits
/// (ascending, at most [`TILE_MAX_HIGH`], each `≥ TILE_LOW_BITS`). Every
/// group touches only amplitudes inside one tile: a low-target matrix pairs
/// amplitudes inside one block, a high-target matrix pairs two blocks of the
/// tile element by element, and a diagonal sweep runs [`diag_sweep_run`] on
/// each block with its true base index. So every amplitude sees the groups
/// in tape order with exactly the arithmetic of one whole-state pass per
/// group, and the result is bit-identical to that, while the tile stays
/// cache-resident across the stage. Workers take contiguous ranges of
/// tiles, so the result is also bit-identical for every thread count.
///
/// # Panics
///
/// Panics if a group is a controlled matrix or a swap, or a high target is
/// missing from `high`.
pub(crate) fn apply_tiled(amps: &mut [C64], groups: &[FusedOp], high: &[usize], threads: usize) {
    let n = amps.len().trailing_zeros() as usize;
    assert!(
        high.len() <= TILE_MAX_HIGH
            && high.windows(2).all(|w| w[0] < w[1])
            && high.iter().all(|&q| is_high_target(q) && q < n),
        "tile high qubits must be ascending, in range and above the block bits"
    );
    let block_len = DIAG_BLOCK.min(amps.len());
    let tiles = amps.len() / (block_len << high.len());
    let threads = threads.max(1).min(tiles);
    crate::metrics::bump(crate::metrics::Counter::KernelLaunches, 1);
    crate::metrics::bump(crate::metrics::Counter::KernelThreads, threads as u64);
    let sweeps = groups.iter().filter(|g| matches!(g, FusedOp::Diagonal(_))).count();
    let blocks = amps.len() / block_len;
    crate::metrics::bump(crate::metrics::Counter::DiagBlocks, (sweeps * blocks) as u64);
    let ptr = AmpsPtr(amps.as_mut_ptr());
    let path = Path::detect();
    for_ranges(tiles, threads, |tiles| {
        let mut active = Vec::new();
        for t in tiles {
            // SAFETY: distinct tiles cover disjoint block sets (`expand`
            // is injective and leaves the low and high bits clear), and each
            // tile is handled by exactly one worker.
            unsafe {
                run_tile(
                    &ptr,
                    expand(t << TILE_LOW_BITS, high),
                    block_len,
                    groups,
                    high,
                    &mut active,
                    path,
                )
            };
        }
    });
}

/// Run `work` over `0..count` split into one contiguous range per worker.
fn for_ranges<F: Fn(std::ops::Range<usize>) + Sync>(count: usize, threads: usize, work: F) {
    if threads <= 1 {
        work(0..count);
        return;
    }
    let per = count.div_ceil(threads);
    std::thread::scope(|s| {
        for w in 0..threads {
            let work = &work;
            s.spawn(move || work(w * per..((w + 1) * per).min(count)));
        }
    });
}

/// Apply every group to the tile whose first block starts at `base`.
///
/// # Safety
///
/// The tile's blocks must be inside the state behind `ptr`, and no other
/// thread may touch them during the call.
unsafe fn run_tile(
    ptr: &AmpsPtr,
    base: usize,
    block_len: usize,
    groups: &[FusedOp],
    high: &[usize],
    active: &mut Vec<DiagTerm>,
    path: Path,
) {
    // Block `s` of the tile sets the high qubits picked by the bits of `s`.
    let block_base =
        |s: usize| high.iter().enumerate().fold(base, |b, (j, &q)| b | ((s >> j & 1) << q));
    // SAFETY: the caller owns the tile; callers never hold two slices of
    // the same block at once.
    let block = |s: usize| unsafe {
        std::slice::from_raw_parts_mut(ptr.get().add(block_base(s)), block_len)
    };
    let blocks = 1usize << high.len();
    for g in groups {
        match g {
            &FusedOp::Matrix { ctrl_mask: 0, q, m } if !is_high_target(q) => {
                for s in 0..blocks {
                    apply_1q_seq(block(s), 1 << q, &m, path);
                }
            }
            &FusedOp::Matrix { ctrl_mask: 0, q, m } => {
                let j = high.iter().position(|&h| h == q).expect("high target not in the tile");
                for s in (0..blocks).filter(|s| s >> j & 1 == 0) {
                    apply_1q_pair(block(s), block(s | 1 << j), &m, path);
                }
            }
            FusedOp::Diagonal(terms) => {
                for s in 0..blocks {
                    diag_sweep_run(block(s), block_base(s), terms, block_len, active, path);
                }
            }
            _ => panic!("controlled matrices and swaps are whole-state passes"),
        }
    }
}

/// Low index bits every swap tile spans (see [`apply_swaps`]): `2^3`
/// amplitudes are two 64-byte cache lines. The width only orders the swaps,
/// which move values unchanged, so changing it does not change results.
const SWAP_TILE_BITS: usize = 3;

/// Swap each qubit pair in `pairs` (pairwise disjoint) in one in-place
/// pass.
///
/// The pairs permute index bits, an involution `π` on the basis states.
/// The pass runs over tiles: a tile's *tile bits* are the low three index
/// bits (`SWAP_TILE_BITS`) together with their swap partners, and a
/// tile is every index with one fixed pattern of the other, *outer*, bits.
/// The tile bits are closed under the pairs, so `π` maps each tile `o` onto
/// the tile `π(o)`, offset by offset. Each tile is either its own image,
/// and exchanges `x` with `π(x)` for `π(x) > x` inside itself, or pairs
/// with a distinct image tile, and the tile with the smaller outer pattern
/// exchanges its whole contents with it. So every pair `{x, π(x)}` is
/// exchanged exactly once, and every cache line a tile loads is used in
/// full on both sides, since a tile and its image both contain every
/// pattern of the low bits.
///
/// Tiles are walked in Z-order: the outer bits ascend, each followed by its
/// partner, so consecutive tiles stay close on both sides. Workers take
/// contiguous ranges of tiles; a tile pair is only touched by the worker
/// owning its smaller outer pattern, and values move unchanged, so the
/// result is identical for every thread count.
///
/// # Panics
///
/// Panics if a qubit is out of range or appears in two pairs.
pub fn apply_swaps(amps: &mut [C64], pairs: &[(usize, usize)], threads: usize) {
    let n = amps.len().trailing_zeros() as usize;
    let mut partner = [0usize; usize::BITS as usize];
    partner.iter_mut().enumerate().for_each(|(p, q)| *q = p);
    for &(a, b) in pairs {
        assert!(a < n && b < n, "swap qubit out of range");
        assert!(a != b && partner[a] == a && partner[b] == b, "swap pairs must be disjoint");
        (partner[a], partner[b]) = (b, a);
    }
    let permute = |x: usize| {
        pairs.iter().fold(x, |y, &(a, b)| {
            let d = ((x >> a) ^ (x >> b)) & 1;
            y ^ ((d << a) | (d << b))
        })
    };
    let low = (1usize << SWAP_TILE_BITS.min(n)) - 1;
    let tile_mask = (0..n).fold(0usize, |m, p| m | ((low >> p | low >> partner[p]) & 1) << p);
    // Every tile offset with its image, ascending; the self-image case only
    // needs the offsets whose image is larger.
    let mut whole = Vec::with_capacity(1 << tile_mask.count_ones());
    let mut t = 0usize;
    loop {
        whole.push((t, permute(t)));
        if t == tile_mask {
            break;
        }
        t = t.wrapping_sub(tile_mask) & tile_mask;
    }
    let upper: Vec<(usize, usize)> = whole.iter().copied().filter(|&(x, y)| y > x).collect();
    // Outer bits in Z-order, each with its partner's position.
    let mut outer = [(0usize, 0usize); usize::BITS as usize];
    let (mut len, mut placed) = (0, tile_mask);
    for p in 0..n {
        for q in [p, partner[p]] {
            if placed >> q & 1 == 0 {
                outer[len] = (q, partner[q]);
                (len, placed) = (len + 1, placed | 1 << q);
            }
        }
    }
    // A tile counter's outer pattern and its image, split into a row (the
    // high counter bits) and a column (the low ones) looked up in tables.
    let (cols, rows) = outer[..len].split_at(len / 2);
    let spread = |bits: &[(usize, usize)]| -> Vec<(usize, usize)> {
        let fold = |c: usize| {
            bits.iter()
                .enumerate()
                .fold((0, 0), |(x, y), (k, &(p, q))| (x | (c >> k & 1) << p, y | (c >> k & 1) << q))
        };
        (0..1usize << bits.len()).map(fold).collect()
    };
    let (cols, rows) = (spread(cols), spread(rows));
    let threads = threads.max(1).min(rows.len());
    crate::metrics::bump(crate::metrics::Counter::KernelLaunches, 1);
    crate::metrics::bump(crate::metrics::Counter::KernelThreads, threads as u64);
    let ptr = AmpsPtr(amps.as_mut_ptr());
    for_ranges(rows.len(), threads, |range| {
        for &(xr, yr) in &rows[range] {
            for &(xc, yc) in &cols {
                let (xo, yo) = (xr | xc, yr | yc);
                let offsets = match xo.cmp(&yo) {
                    std::cmp::Ordering::Less => &whole,
                    std::cmp::Ordering::Equal => &upper,
                    std::cmp::Ordering::Greater => continue,
                };
                for &(xt, yt) in offsets {
                    // SAFETY: `xo | xt` and `yo | yt` are below `2^n` and
                    // distinct. Only the worker owning the tile pair's
                    // smaller outer pattern `xo` touches either tile (see
                    // above).
                    unsafe { std::ptr::swap(ptr.get().add(xo | xt), ptr.get().add(yo | yt)) };
                }
            }
        }
    });
}

/// Negate the amplitude of every basis state selected by `pred` — the
/// `f(x) ∈ {0, π}` phase oracle without any trigonometry.
pub fn phase_flip_where<F: Fn(usize) -> bool + Sync>(amps: &mut [C64], pred: F, threads: usize) {
    let threads = threads.max(1);
    if threads == 1 {
        for (x, a) in amps.iter_mut().enumerate() {
            if pred(x) {
                *a = -*a;
            }
        }
        return;
    }
    let per = amps.len().div_ceil(threads);
    let pred = &pred;
    std::thread::scope(|s| {
        for (t, chunk) in amps.chunks_mut(per).enumerate() {
            s.spawn(move || {
                let base = t * per;
                for (off, a) in chunk.iter_mut().enumerate() {
                    if pred(base + off) {
                        *a = -*a;
                    }
                }
            });
        }
    });
}

/// Fold per-[`REDUCE_CHUNK`] partial sums in chunk order. `partial`
/// computes one chunk's sum; chunk boundaries are fixed, so the result is
/// independent of how chunks are scheduled onto threads.
fn chunked_sum<F: Fn(&[C64], usize) -> f64 + Sync>(
    amps: &[C64],
    threads: usize,
    partial: F,
) -> f64 {
    let chunks: Vec<&[C64]> = amps.chunks(REDUCE_CHUNK).collect();
    let mut partials = vec![0.0f64; chunks.len()];
    let threads = threads.max(1).min(chunks.len().max(1));
    if threads == 1 {
        for (t, chunk) in chunks.iter().enumerate() {
            partials[t] = partial(chunk, t * REDUCE_CHUNK);
        }
    } else {
        let per = chunks.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (slot, chunk_run) in partials.chunks_mut(per).zip(chunks.chunks(per)) {
                let base = chunk_run[0].as_ptr() as usize - amps.as_ptr() as usize;
                let base = base / std::mem::size_of::<C64>();
                let partial = &partial;
                s.spawn(move || {
                    for (i, (p, chunk)) in slot.iter_mut().zip(chunk_run).enumerate() {
                        *p = partial(chunk, base + i * REDUCE_CHUNK);
                    }
                });
            }
        });
    }
    partials.iter().sum()
}

/// `Σ|αᵢ|²` with fixed-chunk partial sums (bit-identical across thread
/// counts).
pub fn norm_sqr(amps: &[C64], threads: usize) -> f64 {
    chunked_sum(amps, threads, |chunk, _| chunk.iter().map(|a| a.norm_sqr()).sum())
}

/// Probability that qubit `q` reads 1: a strided sum over the upper half
/// of every `2^{q+1}` block — no per-index bit test.
pub fn prob_one(amps: &[C64], q: usize, threads: usize) -> f64 {
    let bit = 1usize << q;
    chunked_sum(amps, threads, |chunk, base| {
        // Within a fixed REDUCE_CHUNK slice, sum the entries whose target
        // bit is set. Chunks are power-of-two sized and aligned, so either
        // the whole chunk shares one target-bit value, or it contains
        // whole blocks.
        if REDUCE_CHUNK <= bit {
            if base & bit != 0 {
                chunk.iter().map(|a| a.norm_sqr()).sum()
            } else {
                0.0
            }
        } else {
            let mut s = 0.0;
            for block in chunk.chunks(bit << 1) {
                s += block[bit.min(block.len())..].iter().map(|a| a.norm_sqr()).sum::<f64>();
            }
            s
        }
    })
}

/// Complex sum with the same fixed-[`REDUCE_CHUNK`] partial-sum folding as
/// [`chunked_sum`], so the result is bit-identical across thread counts.
fn chunked_csum(amps: &[C64], threads: usize) -> C64 {
    let chunks: Vec<&[C64]> = amps.chunks(REDUCE_CHUNK).collect();
    let mut partials = vec![C64::ZERO; chunks.len()];
    let threads = threads.max(1).min(chunks.len().max(1));
    if threads == 1 {
        for (p, chunk) in partials.iter_mut().zip(&chunks) {
            *p = chunk.iter().copied().sum();
        }
    } else {
        let per = chunks.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (slot, chunk_run) in partials.chunks_mut(per).zip(chunks.chunks(per)) {
                s.spawn(move || {
                    for (p, chunk) in slot.iter_mut().zip(chunk_run) {
                        *p = chunk.iter().copied().sum();
                    }
                });
            }
        });
    }
    partials.iter().copied().sum()
}

/// The Grover diffusion `I − 2|u⟩⟨u|` over the `q` low qubits, where `|u⟩`
/// is the uniform superposition: within every contiguous `2^q` block,
/// subtract twice the block mean from each amplitude. Two memory passes
/// replace the `H^{⊗q} · S₀ · H^{⊗q}` cascade's `2q + 1` strided passes —
/// the unitary is identical. Block means are folded from fixed
/// [`REDUCE_CHUNK`] partials, so the result is bit-identical across thread
/// counts.
pub fn inversion_about_mean(amps: &mut [C64], q: usize, threads: usize) {
    let block = 1usize << q;
    assert!(block <= amps.len(), "qubit range exceeds state size");
    let threads = threads.max(1);
    let nblocks = amps.len() / block;
    if nblocks == 1 {
        // Single block spanning the whole state: parallelize the sum and
        // the subtraction across the state itself.
        let s = chunked_csum(amps, threads);
        subtract(amps, s.scale(2.0 / block as f64), threads);
        return;
    }
    // Several blocks: hand contiguous runs of whole blocks to workers; each
    // block's mean only depends on its own amplitudes.
    let per_block = |blk: &mut [C64]| {
        let s = chunked_csum(blk, 1);
        let shift = s.scale(2.0 / block as f64);
        for a in blk.iter_mut() {
            *a = *a - shift;
        }
    };
    let threads = threads.min(nblocks);
    if threads == 1 {
        for blk in amps.chunks_exact_mut(block) {
            per_block(blk);
        }
        return;
    }
    let per = nblocks.div_ceil(threads) * block;
    std::thread::scope(|s| {
        for run in amps.chunks_mut(per) {
            let per_block = &per_block;
            s.spawn(move || {
                for blk in run.chunks_exact_mut(block) {
                    per_block(blk);
                }
            });
        }
    });
}

/// `a ← a − shift` for every amplitude.
fn subtract(amps: &mut [C64], shift: C64, threads: usize) {
    if threads == 1 {
        for a in amps.iter_mut() {
            *a = *a - shift;
        }
        return;
    }
    let per = amps.len().div_ceil(threads);
    std::thread::scope(|sc| {
        for chunk in amps.chunks_mut(per) {
            sc.spawn(move || {
                for a in chunk.iter_mut() {
                    *a = *a - shift;
                }
            });
        }
    });
}

/// Run `j` Grover iterates on a state whose diffusion block is the whole
/// register: negate the amplitudes at `marked` (ascending, each below
/// `amps.len()`), then [`inversion_about_mean`] over the whole state, `j`
/// times.
///
/// The iterates take `j + 1` amplitude passes instead of `2j`. The first
/// negates the marked amplitudes and sums the state. Each middle pass
/// subtracts the last shift `2·sum/len`, negates the marked amplitudes and
/// sums the results in the same sweep. The last pass only subtracts. Sums
/// are taken per [`REDUCE_CHUNK`] in element order from `C64::ZERO` and
/// folded in chunk order, exactly as [`chunked_csum`] does, and workers
/// take whole chunks: every sum, shift and amplitude is bit-identical to
/// the two-pass iterate at every thread count.
pub(crate) fn grover_iterates(amps: &mut [C64], marked: &[usize], j: usize, threads: usize) {
    if j == 0 {
        return;
    }
    let threads = threads.max(1);
    let scale = 2.0 / amps.len() as f64;
    for &i in marked {
        amps[i] = -amps[i];
    }
    let mut shift = chunked_csum(amps, threads).scale(scale);
    for _ in 1..j {
        shift = shift_flip_sum(amps, marked, shift, threads).scale(scale);
    }
    subtract(amps, shift, threads);
}

/// A middle pass of [`grover_iterates`]: subtract `shift` from every
/// amplitude, negate the marked ones, and return the sum of the results
/// with [`chunked_csum`]'s chunking and order.
fn shift_flip_sum(amps: &mut [C64], marked: &[usize], shift: C64, threads: usize) -> C64 {
    let chunks = amps.len().div_ceil(REDUCE_CHUNK);
    let mut partials = vec![C64::ZERO; chunks];
    let per = chunks.div_ceil(threads.min(chunks));
    let run = |first: usize, slot: &mut [C64], amps: &mut [C64]| {
        for (c, (p, chunk)) in slot.iter_mut().zip(amps.chunks_mut(REDUCE_CHUNK)).enumerate() {
            let base = (first + c) * REDUCE_CHUNK;
            let lo = marked.partition_point(|&i| i < base);
            let hi = marked.partition_point(|&i| i < base + chunk.len());
            *p = shift_flip_sum_chunk(chunk, base, &marked[lo..hi], shift);
        }
    };
    if per == chunks {
        run(0, &mut partials, amps);
    } else {
        std::thread::scope(|s| {
            let runs = partials.chunks_mut(per).zip(amps.chunks_mut(per * REDUCE_CHUNK));
            for (w, (slot, amps)) in runs.enumerate() {
                let run = &run;
                s.spawn(move || run(w * per, slot, amps));
            }
        });
    }
    partials.iter().copied().sum()
}

/// [`shift_flip_sum`] on one chunk starting at amplitude `base`, with
/// `marked` the marked indices inside it: the runs between marked indices
/// are shifted and summed without a per-amplitude test.
#[inline(always)]
fn shift_flip_sum_chunk(chunk: &mut [C64], base: usize, marked: &[usize], shift: C64) -> C64 {
    let mut acc = C64::ZERO;
    let mut start = 0;
    for end in marked.iter().map(|&i| i - base).chain([chunk.len()]) {
        for a in &mut chunk[start..end] {
            *a = *a - shift;
            acc += *a;
        }
        if let Some(a) = chunk.get_mut(end) {
            *a = -(*a - shift);
            acc += *a;
        }
        start = end + 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn haar_ish(n: usize, seed: u64) -> Vec<C64> {
        // A deterministic, unnormalized-but-nonzero amplitude vector.
        let mut v = Vec::with_capacity(1 << n);
        let mut s = seed | 1;
        for _ in 0..(1 << n) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let im = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            v.push(c64(re, im));
        }
        v
    }

    const H: [[C64; 2]; 2] = [
        [c64(std::f64::consts::FRAC_1_SQRT_2, 0.0), c64(std::f64::consts::FRAC_1_SQRT_2, 0.0)],
        [c64(std::f64::consts::FRAC_1_SQRT_2, 0.0), c64(-std::f64::consts::FRAC_1_SQRT_2, 0.0)],
    ];

    #[test]
    fn strided_matches_reference_all_targets() {
        for n in 1..=6 {
            for q in 0..n {
                let mut fast = haar_ish(n, 42 + q as u64);
                let mut refr = fast.clone();
                apply_1q(&mut fast, q, H, 1);
                crate::reference::apply_controlled_1q(&mut refr, &[], q, H);
                assert_eq!(fast, refr, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn controlled_matches_reference() {
        for n in 2..=6 {
            for q in 0..n {
                for c in 0..n {
                    if c == q {
                        continue;
                    }
                    let mut fast = haar_ish(n, 7 + (q * 31 + c) as u64);
                    let mut refr = fast.clone();
                    apply_controlled_1q(&mut fast, 1 << c, q, H, 1);
                    crate::reference::apply_controlled_1q(&mut refr, &[c], q, H);
                    assert_eq!(fast, refr, "n={n} q={q} c={c}");
                }
            }
        }
    }

    #[test]
    fn threads_are_bit_identical() {
        for q in [0usize, 3, 7] {
            let base = haar_ish(8, 5);
            let mut one = base.clone();
            apply_1q(&mut one, q, H, 1);
            for threads in [2usize, 3, 4, 8] {
                let mut many = base.clone();
                apply_1q(&mut many, q, H, threads);
                assert_eq!(one, many, "q={q} threads={threads}");
            }
            let mut one_c = base.clone();
            apply_controlled_1q(&mut one_c, 0b10 << q.min(5), q, H, 1);
            for threads in [2usize, 4] {
                let mut many = base.clone();
                apply_controlled_1q(&mut many, 0b10 << q.min(5), q, H, threads);
                assert_eq!(one_c, many, "ctrl q={q} threads={threads}");
            }
        }
    }

    #[test]
    fn reductions_bit_identical_across_threads() {
        let amps = haar_ish(10, 99);
        let one = norm_sqr(&amps, 1);
        for threads in [2usize, 3, 4] {
            assert!(norm_sqr(&amps, threads).to_bits() == one.to_bits());
        }
        for q in 0..10 {
            let one = prob_one(&amps, q, 1);
            for threads in [2usize, 4] {
                assert!(prob_one(&amps, q, threads).to_bits() == one.to_bits(), "q={q}");
            }
        }
    }

    #[test]
    fn prob_one_matches_reference() {
        let amps = haar_ish(9, 12);
        for q in 0..9 {
            let fast = prob_one(&amps, q, 1);
            let refr = crate::reference::prob_one(&amps, q);
            assert!((fast - refr).abs() < 1e-12, "q={q}: {fast} vs {refr}");
        }
    }

    #[test]
    fn diag_sweep_fires_on_masks() {
        let mut amps = haar_ish(4, 3);
        let orig = amps.clone();
        let terms = [
            DiagTerm { mask: 0b0001, factor: c64(-1.0, 0.0) },
            DiagTerm { mask: 0b0110, factor: C64::from_polar(1.0, 0.4) },
        ];
        apply_diag(&mut amps, &terms, 1);
        for x in 0..16usize {
            let mut want = orig[x];
            if x & 1 == 1 {
                want = want * c64(-1.0, 0.0);
            }
            if x & 0b0110 == 0b0110 {
                want = want * C64::from_polar(1.0, 0.4);
            }
            assert_eq!(amps[x], want, "x={x}");
        }
    }

    #[test]
    fn blocked_diag_matches_naive_across_block_boundaries() {
        // 2^14 amplitudes = four DIAG_BLOCK blocks: exercises dead-term
        // skipping, scalar prefactors (high-bit masks) and per-amplitude
        // low-bit masks at once.
        let mut amps = haar_ish(14, 21);
        let orig = amps.clone();
        let terms = [
            DiagTerm { mask: 1 << 13, factor: C64::from_polar(1.0, 0.3) },
            DiagTerm { mask: (1 << 12) | 0b10, factor: c64(-1.0, 0.0) },
            DiagTerm { mask: 0b101, factor: C64::from_polar(1.0, -0.7) },
            DiagTerm { mask: 0, factor: C64::from_polar(1.0, 0.11) },
        ];
        apply_diag(&mut amps, &terms, 1);
        for x in 0..amps.len() {
            let mut want = orig[x];
            for t in &terms {
                if x & t.mask == t.mask {
                    want = want * t.factor;
                }
            }
            assert!((amps[x] - want).norm_sqr() < 1e-24, "x={x}");
        }
        for threads in [2usize, 3, 4] {
            let mut par = orig.clone();
            apply_diag(&mut par, &terms, threads);
            assert_eq!(par, amps, "threads={threads}");
        }
    }

    #[test]
    fn inversion_about_mean_matches_h_cascade() {
        // I − 2|u⟩⟨u| == H^{⊗q} · S₀ · H^{⊗q}: check against the gate
        // cascade built from the reference kernels.
        let n = 6usize;
        let mut fast = haar_ish(n, 77);
        let mut cascade = fast.clone();
        inversion_about_mean(&mut fast, n, 1);
        for q in 0..n {
            crate::reference::h(&mut cascade, q);
        }
        for (x, a) in cascade.iter_mut().enumerate() {
            if x == 0 {
                *a = -*a;
            }
        }
        for q in 0..n {
            crate::reference::h(&mut cascade, q);
        }
        for x in 0..1usize << n {
            assert!((fast[x] - cascade[x]).norm_sqr() < 1e-24, "x={x}");
        }
    }

    #[test]
    fn inversion_about_mean_blocks_and_threads() {
        // q < n: each contiguous 2^q block is inverted about its own mean,
        // and the result is bit-identical for every thread count.
        let n = 13usize;
        let q = 5usize;
        let orig = haar_ish(n, 31);
        let mut one = orig.clone();
        inversion_about_mean(&mut one, q, 1);
        let block = 1usize << q;
        for (b, blk) in orig.chunks(block).enumerate() {
            let mut mean = C64::ZERO;
            for a in blk {
                mean += *a;
            }
            let mean = mean.scale(1.0 / block as f64);
            for (off, a) in blk.iter().enumerate() {
                let want = *a - mean.scale(2.0);
                assert!((one[b * block + off] - want).norm_sqr() < 1e-24, "b={b} off={off}");
            }
        }
        for threads in [2usize, 3, 4, 7] {
            let mut par = orig.clone();
            inversion_about_mean(&mut par, q, threads);
            assert_eq!(par, one, "threads={threads}");
        }
        // Single-block case (q == n) across thread counts.
        let mut whole = orig.clone();
        inversion_about_mean(&mut whole, n, 1);
        for threads in [2usize, 4] {
            let mut par = orig.clone();
            inversion_about_mean(&mut par, n, threads);
            assert_eq!(par, whole, "threads={threads}");
        }
    }

    #[test]
    fn phase_flip_negates_selected() {
        let mut amps = haar_ish(5, 8);
        let orig = amps.clone();
        phase_flip_where(&mut amps, |x| x % 3 == 0, 1);
        for x in 0..32usize {
            let want = if x % 3 == 0 { -orig[x] } else { orig[x] };
            assert_eq!(amps[x], want);
        }
        let mut par = orig.clone();
        phase_flip_where(&mut par, |x| x % 3 == 0, 4);
        assert_eq!(par, amps);
    }

    /// A random complex 2×2 matrix (not unitary: the kernels do not care).
    fn random_matrix(seed: u64) -> [[C64; 2]; 2] {
        let v = haar_ish(2, seed);
        [[v[0], v[1]], [v[2], v[3]]]
    }

    /// A dense random vector with signed zeros planted in some components.
    fn with_zeros(n: usize, seed: u64) -> Vec<C64> {
        let mut v = haar_ish(n, seed);
        for (i, a) in v.iter_mut().enumerate().step_by(5) {
            *a = match i % 3 {
                0 => c64(0.0, -0.0),
                1 => c64(-0.0, a.im),
                _ => c64(a.re, 0.0),
            };
        }
        v
    }

    fn assert_bits(a: &[C64], b: &[C64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let same = x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits();
            assert!(same, "{what}: amplitude {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn simd_paths_match_scalar_bit_for_bit() {
        let fast = Path::detect();
        if fast == Path::Scalar {
            return; // no SIMD path on this CPU
        }
        for n in [1usize, 2, 5, 13] {
            for q in 0..n {
                let m = random_matrix(100 + (n * 17 + q) as u64);
                let mut scalar = with_zeros(n, 3 + q as u64);
                let mut simd = scalar.clone();
                apply_1q_seq(&mut scalar, 1 << q, &m, Path::Scalar);
                apply_1q_seq(&mut simd, 1 << q, &m, fast);
                assert_bits(&simd, &scalar, &format!("apply_1q_seq n={n} q={q}"));
                // Qubit 0 has its own AVX2 kernel: call it directly too, so
                // the comparison cannot pass through a scalar fallback.
                #[cfg(target_arch = "x86_64")]
                if q == 0 {
                    let mut direct = with_zeros(n, 3);
                    // SAFETY: `fast` is `Path::Avx2`, so the CPU has AVX2.
                    unsafe { simd::apply_1q_q0(&mut direct, &m) };
                    assert_bits(&direct, &scalar, &format!("simd::apply_1q_q0 n={n}"));
                }
            }
        }
        // Masked runs of 1, 2, 4 and 128 amplitudes, directly on the AVX2
        // loop and through the dispatch, against the scalar loop.
        for (len, mask) in [
            (8usize, 0b1usize),
            (8, 0b101),
            (256, 0b11),
            (256, 0b1000_0010),
            (256, 0b100),
            (256, 0b1000_0000),
        ] {
            let f = random_matrix(60 + mask as u64)[0][1];
            let mut scalar = with_zeros(len.trailing_zeros() as usize, 14 + mask as u64);
            let (mut simd, mut direct) = (scalar.clone(), scalar.clone());
            scale_masked(&mut scalar, mask, f, Path::Scalar);
            scale_masked(&mut simd, mask, f, fast);
            assert_bits(&simd, &scalar, &format!("scale_masked len={len} mask={mask:#b}"));
            #[cfg(target_arch = "x86_64")]
            {
                let free = (len - 1) & !mask & !((1 << mask.trailing_zeros()) - 1);
                // SAFETY: `fast` is `Path::Avx2`, so the CPU has AVX2.
                unsafe { simd::scale_masked(&mut direct, mask, free, f) };
                assert_bits(
                    &direct,
                    &scalar,
                    &format!("simd::scale_masked len={len} mask={mask:#b}"),
                );
            }
        }
        for len in [0usize, 1, 2, 3, 4, 5, 4096, 4097] {
            let m = random_matrix(7 + len as u64);
            let (mut lo, mut hi) = (with_zeros(13, 11)[..len].to_vec(), haar_ish(13, 12));
            hi.truncate(len);
            let (mut lo2, mut hi2) = (lo.clone(), hi.clone());
            apply_1q_pair(&mut lo, &mut hi, &m, Path::Scalar);
            apply_1q_pair(&mut lo2, &mut hi2, &m, fast);
            assert_bits(&lo2, &lo, &format!("apply_1q_pair lo len={len}"));
            assert_bits(&hi2, &hi, &format!("apply_1q_pair hi len={len}"));
            let f = random_matrix(30 + len as u64)[1][0];
            let mut run = with_zeros(13, 13)[..len].to_vec();
            let mut run2 = run.clone();
            scale_run(&mut run, f, Path::Scalar);
            scale_run(&mut run2, f, fast);
            assert_bits(&run2, &run, &format!("scale_run len={len}"));
        }
        // Diagonal sweeps: a block prefactor (masks in the high bits and the
        // empty mask), runs of 1, 2 and 2^11 amplitudes, and merged terms,
        // over whole blocks and over one short block.
        let f = |k: u64| C64::from_polar(1.0, 0.37 * k as f64 + 0.1);
        let terms = [
            DiagTerm { mask: 1 << 13, factor: f(1) },
            DiagTerm { mask: 0, factor: f(2) },
            DiagTerm { mask: 0b1, factor: f(3) },
            DiagTerm { mask: 0b110, factor: f(4) },
            DiagTerm { mask: 1 << 11, factor: f(5) },
            DiagTerm { mask: (1 << 12) | 0b110, factor: f(6) },
        ];
        for n in [3usize, 14] {
            let block_len = DIAG_BLOCK.min(1 << n);
            let mut scalar = with_zeros(n, 40 + n as u64);
            let mut simd = scalar.clone();
            diag_sweep_run(&mut scalar, 0, &terms, block_len, &mut Vec::new(), Path::Scalar);
            diag_sweep_run(&mut simd, 0, &terms, block_len, &mut Vec::new(), fast);
            assert_bits(&simd, &scalar, &format!("diag_sweep_run n={n}"));
        }
    }

    /// The two-pass reference for [`grover_iterates`]: the oracle negation
    /// and [`inversion_about_mean`], `j` times.
    fn two_pass_iterates(amps: &mut [C64], marked: &[usize], j: usize, threads: usize) {
        let n = amps.len().trailing_zeros() as usize;
        for _ in 0..j {
            for &i in marked {
                amps[i] = -amps[i];
            }
            inversion_about_mean(amps, n, threads);
        }
    }

    #[test]
    fn grover_iterates_match_two_pass_loop_bit_for_bit() {
        for n in [1usize, 2, 7, 12, 13, 14] {
            let len = 1usize << n;
            let boundary: Vec<usize> = [0, REDUCE_CHUNK - 1, REDUCE_CHUNK, len - 1]
                .into_iter()
                .filter(|&i| i < len)
                .collect();
            let sets: [(&str, Vec<usize>); 5] = [
                ("none", vec![]),
                ("one", vec![len / 3]),
                ("all", (0..len).collect()),
                ("every third", (0..len).step_by(3).collect()),
                ("chunk edges", {
                    let mut b = boundary.clone();
                    b.dedup();
                    b
                }),
            ];
            for (name, marked) in &sets {
                for j in [0usize, 1, 2, 3, 7] {
                    let orig = with_zeros(n, (n * 10 + j) as u64);
                    let mut want = orig.clone();
                    two_pass_iterates(&mut want, marked, j, 1);
                    for threads in [1usize, 2, 4] {
                        let mut got = orig.clone();
                        grover_iterates(&mut got, marked, j, threads);
                        let what = format!("n={n} {name} j={j} threads={threads}");
                        assert_bits(&got, &want, &what);
                    }
                }
            }
        }
    }

    /// The diagonal sweep without sub-blocks: the same per-block
    /// classification and merging as [`diag_sweep_run`], then the prefactor
    /// over the whole block and one whole-block pass per active term, with
    /// one `scale_run` call per run.
    fn whole_block_diag_sweep(run: &mut [C64], terms: &[DiagTerm], block_len: usize, path: Path) {
        let low = block_len - 1;
        let mut active: Vec<DiagTerm> = Vec::new();
        for (bi, block) in run.chunks_mut(block_len).enumerate() {
            let base = bi * block_len;
            active.clear();
            let mut pre = C64::ONE;
            let mut fired = false;
            for t in terms {
                let high = t.mask & !low;
                if base & high != high {
                    continue;
                }
                let lm = t.mask & low;
                if lm == 0 {
                    pre = pre * t.factor;
                    fired = true;
                } else if let Some(slot) = active.iter_mut().find(|s| s.mask == lm) {
                    slot.factor = slot.factor * t.factor;
                } else {
                    active.push(DiagTerm { mask: lm, factor: t.factor });
                }
            }
            if fired {
                scale_run(block, pre, path);
            }
            for t in &active {
                let len = 1usize << t.mask.trailing_zeros();
                let free = low & !t.mask & !(len - 1);
                let mut c = 0usize;
                loop {
                    scale_run(&mut block[c | t.mask..][..len], t.factor, path);
                    if c == free {
                        break;
                    }
                    c = c.wrapping_sub(free) & free;
                }
            }
        }
    }

    #[test]
    fn sub_blocked_diag_sweep_matches_whole_block_loop() {
        let f = |k: usize| C64::from_polar(1.0, 0.29 * k as f64 + 0.05);
        let terms = |masks: &[usize]| -> Vec<DiagTerm> {
            masks.iter().enumerate().map(|(k, &mask)| DiagTerm { mask, factor: f(k) }).collect()
        };
        let sb = DIAG_SUB_BLOCK.trailing_zeros() as usize;
        // Low mask bits 0, 1, either side of the sub-block boundary, and 11.
        let lows = [0usize, 1, sb - 1, sb, sb + 1, 11];
        let singles: Vec<usize> = lows.iter().map(|&l| 1 << l).collect();
        let pairs: Vec<usize> = lows
            .iter()
            .flat_map(|&a| lows.iter().filter(move |&&b| b > a).map(move |&b| 1 << a | 1 << b))
            .collect();
        let with_high: Vec<usize> =
            lows.iter().flat_map(|&l| [1 << l | 1 << 12, 1 << l | 1 << 13]).collect();
        let sets: [(&str, Vec<usize>); 6] = [
            ("singles", singles),
            ("pairs", pairs),
            ("with high bits", with_high),
            // Prefactors from the empty mask and pure high masks.
            ("prefactor", vec![0, 1 << 12, 0b1, 1 << 13 | 1 << 12, 0b10, 0, 1 << sb]),
            // Equal block-local masks merge; masks equal only below the
            // sub-block boundary must not.
            (
                "merged",
                vec![
                    0b1,
                    0b1 | 1 << 12,
                    0b1 | 1 << sb,
                    0b1 | 1 << 13,
                    0b1 | 1 << sb,
                    0b11 | 1 << sb,
                ],
            ),
            // A QFT step's terms: every lower qubit with qubit 11.
            ("qft step", (0..11).map(|j| 1 << j | 1 << 11).collect()),
        ];
        let mut paths = vec![Path::Scalar];
        if Path::detect() != Path::Scalar {
            paths.push(Path::detect());
        }
        for n in [1usize, 3, sb - 1, sb, sb + 1, 12, 14] {
            let block_len = DIAG_BLOCK.min(1 << n);
            for (name, masks) in &sets {
                let terms = terms(masks);
                let orig = with_zeros(n, (n * 13 + masks.len()) as u64);
                let mut want = orig.clone();
                whole_block_diag_sweep(&mut want, &terms, block_len, Path::Scalar);
                for &path in &paths {
                    let mut reference = orig.clone();
                    whole_block_diag_sweep(&mut reference, &terms, block_len, path);
                    assert_bits(&reference, &want, &format!("reference n={n} {name} {path:?}"));
                    let mut got = orig.clone();
                    diag_sweep_run(&mut got, 0, &terms, block_len, &mut Vec::new(), path);
                    assert_bits(&got, &want, &format!("diag_sweep_run n={n} {name} {path:?}"));
                }
                for threads in [1usize, 2, 4] {
                    let mut got = orig.clone();
                    apply_diag(&mut got, &terms, threads);
                    assert_bits(&got, &want, &format!("apply_diag n={n} {name} threads={threads}"));
                }
            }
        }
    }

    /// [`apply_swaps`] as a row loop: `y = lo[x & m] | hi[x >> h]` with
    /// `h = n/2`, each pair exchanged from its smaller index.
    fn row_loop_swaps(amps: &mut [C64], pairs: &[(usize, usize)]) {
        let n = amps.len().trailing_zeros() as usize;
        let permute = |x: usize| {
            pairs.iter().fold(x, |y, &(a, b)| {
                let d = ((x >> a) ^ (x >> b)) & 1;
                y ^ ((d << a) | (d << b))
            })
        };
        let h = n / 2;
        let lo: Vec<usize> = (0..1usize << h).map(permute).collect();
        let hi: Vec<usize> = (0..1usize << (n - h)).map(|x| permute(x << h)).collect();
        for (xh, &yh) in hi.iter().enumerate() {
            for (xl, &yl) in lo.iter().enumerate() {
                let (x, y) = (xh << h | xl, yl | yh);
                if y > x {
                    amps.swap(x, y);
                }
            }
        }
    }

    #[test]
    fn tiled_swaps_match_row_loop() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut below = |k: usize| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize % k
        };
        // Up to `k` disjoint pairs, each with one qubit from `a` and one
        // from `b` (which may be the same pool).
        let mut pick = |a: &[usize], b: &[usize], k: usize| {
            let (mut a, mut b) = (a.to_vec(), b.to_vec());
            let mut pairs = Vec::new();
            while pairs.len() < k && !a.is_empty() {
                let x = a.swap_remove(below(a.len()));
                b.retain(|&q| q != x);
                if b.is_empty() {
                    break;
                }
                let y = b.swap_remove(below(b.len()));
                a.retain(|&q| q != y);
                pairs.push((x, y));
            }
            pairs
        };
        for n in 2..=16usize {
            let h = n / 2;
            let (all, low, high): (Vec<usize>, Vec<usize>, Vec<usize>) =
                ((0..n).collect(), (0..h).collect(), (h..n).collect());
            let sets = [
                ("one random", pick(&all, &all, 1)),
                ("random", pick(&all, &all, 1 + n / 4)),
                ("all random", pick(&all, &all, n / 2)),
                ("both low", pick(&low, &low, n)),
                ("both high", pick(&high, &high, n)),
                ("straddling", pick(&low, &high, n)),
                ("bit reversal", (0..h).map(|i| (i, n - 1 - i)).collect()),
            ];
            for (name, pairs) in &sets {
                let orig = with_zeros(n, (n * 7 + pairs.len()) as u64);
                let mut want = orig.clone();
                row_loop_swaps(&mut want, pairs);
                for threads in [1usize, 2, 4] {
                    let mut got = orig.clone();
                    apply_swaps(&mut got, pairs, threads);
                    assert_bits(&got, &want, &format!("n={n} {name} {pairs:?} threads={threads}"));
                }
            }
        }
    }

    #[test]
    fn expand_skips_fixed_positions() {
        // fixed = {1, 3}: counter bits land at positions 0, 2, 4, ...
        let fixed = [1usize, 3];
        let got: Vec<usize> = (0..8).map(|c| expand(c, &fixed)).collect();
        assert_eq!(
            got,
            vec![0b00000, 0b00001, 0b00100, 0b00101, 0b10000, 0b10001, 0b10100, 0b10101]
        );
    }
}
