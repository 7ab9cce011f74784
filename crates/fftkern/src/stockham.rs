//! Stockham autosort FFT for every smooth length `n = 2^a·3^b·5^c·7^d`.
//!
//! The workhorse of the kernel engine. Unlike the textbook Cooley–Tukey in
//! [`radix`](crate::radix) (kept as the legacy/reference path for powers of
//! two), the Stockham formulation folds the reordering into the butterfly
//! stages themselves: each stage reads one buffer and writes the other in
//! permuted order, so no bit-reversal pass ever touches the data. The inner
//! loop of every stage walks `s` *contiguous* elements with the twiddle
//! factors hoisted out of it entirely — they are precomputed per stage at
//! plan-build time and interned process-wide (see
//! [`twiddle::stockham_tables`]).
//!
//! Stage radices are chosen by [`radix_decomposition`]: the power-of-two
//! part first, as greedy radix-8 butterflies (3 data passes for 512, the
//! paper's production length, instead of 9 radix-2 passes) plus one radix-4
//! or radix-2 cleanup stage; then the odd radices 3, 5 and 7. Putting the
//! odd stages last keeps every power-of-two stage at a power-of-two `s`
//! and runs the odd stages at `s` divisible by `2^a`, so the SIMD kernels
//! (which need `s` to be a lane multiple) cover them whenever `a ≥ 2`.
//!
//! [`twiddle::stockham_tables`]: crate::twiddle::stockham_tables

use crate::complex::C64;
use crate::plan::Direction;
use crate::twiddle::{self, StockhamStage, StockhamTables};
use std::sync::Arc;

/// cos(π/4) = sin(π/4): the only irrational constant of the radix-8
/// butterfly (`ω₈ = (FRAC_1_SQRT_2, -FRAC_1_SQRT_2)`).
const H: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// sin(2π/3) = √3/2, the radix-3 butterfly constant (cos(2π/3) = −1/2 is
/// exact). Shared with the SIMD radix-3 kernels, which must round alike.
pub(crate) const S3: f64 = 0.866_025_403_784_438_6;

/// cos/sin(2π·k/5) for k = 1, 2, correctly rounded.
const C51: f64 = 0.309_016_994_374_947_45;
const C52: f64 = -0.809_016_994_374_947_5;
const S51: f64 = 0.951_056_516_295_153_5;
const S52: f64 = 0.587_785_252_292_473_1;

/// cos/sin(2π·k/7) for k = 1, 2, 3, correctly rounded.
const C71: f64 = 0.623_489_801_858_733_5;
const C72: f64 = -0.222_520_933_956_314_4;
const C73: f64 = -0.900_968_867_902_419_1;
const S71: f64 = 0.781_831_482_468_029_8;
const S72: f64 = 0.974_927_912_181_823_6;
const S73: f64 = 0.433_883_739_117_558_1;

/// Splits a smooth `n` into butterfly radices: greedy 8s over the
/// power-of-two part with one radix-4 or radix-2 cleanup stage, then the
/// odd factors in ascending order. Power-of-two lengths therefore keep the
/// exact stage list they have always had. `n = 1` yields no stages.
///
/// # Panics
/// If `n` has a prime factor above 7 (see [`crate::is_smooth`]).
pub fn radix_decomposition(n: usize) -> Vec<usize> {
    assert!(
        crate::is_smooth(n),
        "Stockham requires a smooth length 2^a·3^b·5^c·7^d, got {n}"
    );
    let mut k = n.trailing_zeros();
    let mut odd = n >> k;
    let mut v = Vec::new();
    while k >= 3 {
        v.push(8);
        k -= 3;
    }
    if k == 2 {
        v.push(4);
    } else if k == 1 {
        v.push(2);
    }
    for r in [3usize, 5, 7] {
        while odd.is_multiple_of(r) {
            v.push(r);
            odd /= r;
        }
    }
    v
}

/// Precomputed state for a Stockham transform of fixed smooth size.
///
/// The per-stage twiddle tables are shared process-wide: two plans of equal
/// length hold the same `Arc`, so a fresh plan build after the first costs
/// an intern-map lookup, not `O(n)` table construction.
#[derive(Debug, Clone)]
pub struct StockhamPlan {
    n: usize,
    tables: Arc<StockhamTables>,
}

impl StockhamPlan {
    /// Builds a plan for size `n`, which must be smooth
    /// ([`crate::is_smooth`]; [`radix_decomposition`] panics otherwise).
    pub fn new(n: usize) -> Self {
        StockhamPlan {
            n,
            tables: twiddle::stockham_tables(n),
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate size-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Number of butterfly stages (one per entry of [`radix_decomposition`]).
    pub fn stages(&self) -> usize {
        self.tables.stages.len()
    }

    /// Scratch elements required by [`execute_scratch`]: one ping-pong
    /// buffer of `n` elements.
    ///
    /// [`execute_scratch`]: StockhamPlan::execute_scratch
    pub fn scratch_elems(&self) -> usize {
        self.n
    }

    /// In-place unnormalized transform of `data` (length must equal `n`),
    /// ping-ponging through `work` (at least `n` elements). The result
    /// always lands back in `data`; `work` is clobbered.
    // fftlint:hot — the per-line butterfly path; allocation here multiplies
    // by every (line, axis, rank) of every distributed transform.
    pub fn execute_scratch(&self, data: &mut [C64], dir: Direction, work: &mut [C64]) {
        assert_eq!(data.len(), self.n, "buffer length does not match plan size");
        assert!(work.len() >= self.n, "work buffer smaller than n");
        if self.n <= 1 {
            return;
        }
        let inverse = matches!(dir, Direction::Inverse);
        let work = &mut work[..self.n];
        // An odd stage count would leave the result in `work`; seeding the
        // ping-pong from `work` instead makes every size end in `data`.
        let odd = self.tables.stages.len() % 2 == 1;
        let (mut src, mut dst): (&mut [C64], &mut [C64]) = if odd {
            work.copy_from_slice(data);
            (work, data)
        } else {
            (data, work)
        };
        // Resolved once per transform, not per stage: the tier is a pair of
        // atomic loads and every stage of one transform must agree with the
        // others only for speed, not correctness (all tiers are
        // bit-identical by construction — see `simd`).
        let tier = crate::simd::active_tier();
        for st in &self.tables.stages {
            let tw = &self.tables.tw[st.tw_off..];
            // Widest vector kernel the tier and stage geometry admit;
            // `run_stage` returns false (tiny stages, scalar tier, non-x86)
            // to fall through to the portable bodies below.
            if crate::simd::run_stage(tier, src, dst, st, tw, inverse) {
                std::mem::swap(&mut src, &mut dst);
                continue;
            }
            // Direction is a const generic so the butterfly bodies compile
            // branch-free (the `±i` rotations and conjugations fold away).
            match (st.radix, inverse) {
                (2, false) => stage2::<false>(src, dst, st, tw),
                (2, true) => stage2::<true>(src, dst, st, tw),
                (4, false) => stage4::<false>(src, dst, st, tw),
                (4, true) => stage4::<true>(src, dst, st, tw),
                (8, false) => stage8::<false>(src, dst, st, tw),
                (8, true) => stage8::<true>(src, dst, st, tw),
                (3, false) => stage_odd::<3, false>(src, dst, st, tw, bfly3::<false>),
                (3, true) => stage_odd::<3, true>(src, dst, st, tw, bfly3::<true>),
                (5, false) => stage_odd::<5, false>(src, dst, st, tw, bfly5::<false>),
                (5, true) => stage_odd::<5, true>(src, dst, st, tw, bfly5::<true>),
                (7, false) => stage_odd::<7, false>(src, dst, st, tw, bfly7::<false>),
                (7, true) => stage_odd::<7, true>(src, dst, st, tw, bfly7::<true>),
                (r, _) => unreachable!("unsupported Stockham radix {r}"),
            }
            std::mem::swap(&mut src, &mut dst);
        }
    }

    /// Allocating convenience wrapper around [`execute_scratch`].
    ///
    /// [`execute_scratch`]: StockhamPlan::execute_scratch
    pub fn execute(&self, data: &mut [C64], dir: Direction) {
        let mut work = vec![C64::ZERO; self.n]; // fftlint:allow(no-alloc-in-hot-path): allocating convenience wrapper; executor uses execute_scratch
        self.execute_scratch(data, dir, &mut work);
    }
}

/// `±i·z`: `-i·z` forward (the DFT's `e^{-2πi}` kernel), `+i·z` inverse.
#[inline(always)]
fn rot<const INV: bool>(z: C64) -> C64 {
    if INV {
        C64::new(-z.im, z.re)
    } else {
        C64::new(z.im, -z.re)
    }
}

#[inline(always)]
fn cj<const INV: bool>(w: C64) -> C64 {
    if INV {
        w.conj()
    } else {
        w
    }
}

/// Radix-2 Stockham stage: `dst[s(2p+j)+q] = w^{jp}·DFT₂(src[s(p+am)+q])`.
///
/// All stage bodies slice their operands to exactly `s` elements before the
/// `q` loop so the bounds checks hoist out and the loop vectorizes.
fn stage2<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let (lo, hi) = src.split_at(m * s);
    for (p, &twp) in tw.iter().enumerate().take(m) {
        let w = cj::<INV>(twp);
        let o = p * s;
        let a = &lo[o..o + s];
        let b = &hi[o..o + s];
        let (d0, d1) = dst[2 * o..2 * o + 2 * s].split_at_mut(s);
        for q in 0..s {
            let x = a[q];
            let y = b[q];
            d0[q] = x + y;
            d1[q] = (x - y) * w;
        }
    }
}

/// Radix-4 Stockham stage. Twiddles per butterfly row: `tw[3p..3p+3]` =
/// `w^p, w^{2p}, w^{3p}`.
fn stage4<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    for p in 0..m {
        let w1 = cj::<INV>(tw[3 * p]);
        let w2 = cj::<INV>(tw[3 * p + 1]);
        let w3 = cj::<INV>(tw[3 * p + 2]);
        let o = p * s;
        let x0 = &src[o..o + s];
        let x1 = &src[ms + o..ms + o + s];
        let x2 = &src[2 * ms + o..2 * ms + o + s];
        let x3 = &src[3 * ms + o..3 * ms + o + s];
        let (d01, d23) = dst[4 * o..4 * o + 4 * s].split_at_mut(2 * s);
        let (d0, d1) = d01.split_at_mut(s);
        let (d2, d3) = d23.split_at_mut(s);
        for q in 0..s {
            let a = x0[q];
            let b = x1[q];
            let c = x2[q];
            let d = x3[q];
            let apc = a + c;
            let amc = a - c;
            let bpd = b + d;
            let ibmd = rot::<INV>(b - d);
            d0[q] = apc + bpd;
            d1[q] = (amc + ibmd) * w1;
            d2[q] = (apc - bpd) * w2;
            d3[q] = (amc - ibmd) * w3;
        }
    }
}

/// Radix-8 Stockham stage: an 8-point DFT (split into two 4-point DFTs and
/// a twiddled combine with the `ω₈` constants) followed by the stage
/// twiddles `tw[7p..7p+7]` = `w^p … w^{7p}`.
fn stage8<const INV: bool>(src: &[C64], dst: &mut [C64], st: &StockhamStage, tw: &[C64]) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    // ω₈^1 and ω₈^3 (forward); ω₈^2 = ∓i is handled by `rot`.
    let (w81, w83) = if INV {
        (C64::new(H, H), C64::new(-H, H))
    } else {
        (C64::new(H, -H), C64::new(-H, -H))
    };
    if s == 1 {
        // First stage: one butterfly per `p`, contiguous 8-element writes.
        // Specialized so the per-butterfly slicing of the general form
        // doesn't dominate (its `q` loop would run a single iteration).
        for (p, d) in dst.chunks_exact_mut(8).take(m).enumerate() {
            let t = &tw[7 * p..7 * p + 7];
            let x = [
                src[p],
                src[p + ms],
                src[p + 2 * ms],
                src[p + 3 * ms],
                src[p + 4 * ms],
                src[p + 5 * ms],
                src[p + 6 * ms],
                src[p + 7 * ms],
            ];
            let e02 = x[0] + x[4];
            let e13 = x[2] + x[6];
            let em02 = x[0] - x[4];
            let iem13 = rot::<INV>(x[2] - x[6]);
            let e0 = e02 + e13;
            let e1 = em02 + iem13;
            let e2 = e02 - e13;
            let e3 = em02 - iem13;
            let o02 = x[1] + x[5];
            let o13 = x[3] + x[7];
            let om02 = x[1] - x[5];
            let iom13 = rot::<INV>(x[3] - x[7]);
            let f0 = o02 + o13;
            let f1 = (om02 + iom13) * w81;
            let f2 = rot::<INV>(o02 - o13);
            let f3 = (om02 - iom13) * w83;
            d[0] = e0 + f0;
            d[1] = (e1 + f1) * cj::<INV>(t[0]);
            d[2] = (e2 + f2) * cj::<INV>(t[1]);
            d[3] = (e3 + f3) * cj::<INV>(t[2]);
            d[4] = (e0 - f0) * cj::<INV>(t[3]);
            d[5] = (e1 - f1) * cj::<INV>(t[4]);
            d[6] = (e2 - f2) * cj::<INV>(t[5]);
            d[7] = (e3 - f3) * cj::<INV>(t[6]);
        }
        return;
    }
    for p in 0..m {
        let t = &tw[7 * p..7 * p + 7];
        let w = [
            cj::<INV>(t[0]),
            cj::<INV>(t[1]),
            cj::<INV>(t[2]),
            cj::<INV>(t[3]),
            cj::<INV>(t[4]),
            cj::<INV>(t[5]),
            cj::<INV>(t[6]),
        ];
        let o = p * s;
        let x0 = &src[o..o + s];
        let x1 = &src[ms + o..ms + o + s];
        let x2 = &src[2 * ms + o..2 * ms + o + s];
        let x3 = &src[3 * ms + o..3 * ms + o + s];
        let x4 = &src[4 * ms + o..4 * ms + o + s];
        let x5 = &src[5 * ms + o..5 * ms + o + s];
        let x6 = &src[6 * ms + o..6 * ms + o + s];
        let x7 = &src[7 * ms + o..7 * ms + o + s];
        let (dl, dh) = dst[8 * o..8 * o + 8 * s].split_at_mut(4 * s);
        let (d01, d23) = dl.split_at_mut(2 * s);
        let (d0, d1) = d01.split_at_mut(s);
        let (d2, d3) = d23.split_at_mut(s);
        let (d45, d67) = dh.split_at_mut(2 * s);
        let (d4, d5) = d45.split_at_mut(s);
        let (d6, d7) = d67.split_at_mut(s);
        for q in 0..s {
            // 4-point DFT of the even samples (x0 x2 x4 x6).
            let e02 = x0[q] + x4[q];
            let e13 = x2[q] + x6[q];
            let em02 = x0[q] - x4[q];
            let iem13 = rot::<INV>(x2[q] - x6[q]);
            let e0 = e02 + e13;
            let e1 = em02 + iem13;
            let e2 = e02 - e13;
            let e3 = em02 - iem13;

            // 4-point DFT of the odd samples (x1 x3 x5 x7).
            let o02 = x1[q] + x5[q];
            let o13 = x3[q] + x7[q];
            let om02 = x1[q] - x5[q];
            let iom13 = rot::<INV>(x3[q] - x7[q]);
            let f0 = o02 + o13;
            let f1 = (om02 + iom13) * w81;
            let f2 = rot::<INV>(o02 - o13);
            let f3 = (om02 - iom13) * w83;

            d0[q] = e0 + f0;
            d1[q] = (e1 + f1) * w[0];
            d2[q] = (e2 + f2) * w[1];
            d3[q] = (e3 + f3) * w[2];
            d4[q] = (e0 - f0) * w[3];
            d5[q] = (e1 - f1) * w[4];
            d6[q] = (e2 - f2) * w[5];
            d7[q] = (e3 - f3) * w[6];
        }
    }
}

/// Odd-radix (3, 5, 7) Stockham stage: gathers the `R` inputs
/// `src[s(p+am)+q]` of each butterfly, runs `bfly`, and writes output `j`
/// to `dst[s(Rp+j)+q]` times the stage twiddle `w^{jp}` (stored as
/// `tw[(R-1)p + j-1]`; output 0 carries no twiddle). One body serves every
/// odd radix; the SIMD radix-3 kernels mirror `bfly3` plus this twiddle
/// step operation for operation.
fn stage_odd<const R: usize, const INV: bool>(
    src: &[C64],
    dst: &mut [C64],
    st: &StockhamStage,
    tw: &[C64],
    bfly: impl Fn([C64; R]) -> [C64; R],
) {
    let (m, s) = (st.m, st.s);
    let ms = m * s;
    for (p, (t, d)) in tw
        .chunks_exact(R - 1)
        .zip(dst.chunks_exact_mut(R * s))
        .take(m)
        .enumerate()
    {
        let x = &src[p * s..];
        for q in 0..s {
            let y = bfly(std::array::from_fn(|a| x[a * ms + q]));
            d[q] = y[0];
            for j in 1..R {
                d[j * s + q] = y[j] * cj::<INV>(t[j - 1]);
            }
        }
    }
}

/// 3-point DFT: `y₀ = x₀+t₁`, `y₁,₂ = (x₀ − t₁/2) ± rot(√3/2·(x₁−x₂))`
/// with `t₁ = x₁+x₂`.
#[inline(always)]
fn bfly3<const INV: bool>([x0, x1, x2]: [C64; 3]) -> [C64; 3] {
    let t1 = x1 + x2;
    let t2 = x0 - t1.scale(0.5);
    let t3 = rot::<INV>((x1 - x2).scale(S3));
    [x0 + t1, t2 + t3, t2 - t3]
}

/// 5-point DFT over the symmetric pairs `a_k = x_k + x_{5-k}`,
/// `b_k = x_k − x_{5-k}`: `y_j = t_j + rot(u_j)`, `y_{5-j} = t_j − rot(u_j)`
/// with `t_j = x₀ + Σ cos(2πjk/5)·a_k` and `u_j = Σ sin(2πjk/5)·b_k`.
#[inline(always)]
fn bfly5<const INV: bool>([x0, x1, x2, x3, x4]: [C64; 5]) -> [C64; 5] {
    let (a1, b1) = (x1 + x4, x1 - x4);
    let (a2, b2) = (x2 + x3, x2 - x3);
    let t1 = x0 + a1.scale(C51) + a2.scale(C52);
    let t2 = x0 + a1.scale(C52) + a2.scale(C51);
    let u1 = rot::<INV>(b1.scale(S51) + b2.scale(S52));
    let u2 = rot::<INV>(b1.scale(S52) - b2.scale(S51));
    [x0 + a1 + a2, t1 + u1, t2 + u2, t2 - u2, t1 - u1]
}

/// 7-point DFT, same symmetric-pair scheme as [`bfly5`] with three pairs
/// (`cos/sin(2πjk/7)` reduced to the k = 1..3 constants).
#[inline(always)]
fn bfly7<const INV: bool>([x0, x1, x2, x3, x4, x5, x6]: [C64; 7]) -> [C64; 7] {
    let (a1, b1) = (x1 + x6, x1 - x6);
    let (a2, b2) = (x2 + x5, x2 - x5);
    let (a3, b3) = (x3 + x4, x3 - x4);
    let t1 = x0 + a1.scale(C71) + a2.scale(C72) + a3.scale(C73);
    let t2 = x0 + a1.scale(C72) + a2.scale(C73) + a3.scale(C71);
    let t3 = x0 + a1.scale(C73) + a2.scale(C71) + a3.scale(C72);
    let u1 = rot::<INV>(b1.scale(S71) + b2.scale(S72) + b3.scale(S73));
    let u2 = rot::<INV>(b1.scale(S72) - b2.scale(S73) - b3.scale(S71));
    let u3 = rot::<INV>(b1.scale(S73) - b2.scale(S71) + b3.scale(S72));
    [
        x0 + a1 + a2 + a3,
        t1 + u1,
        t2 + u2,
        t3 + u3,
        t3 - u3,
        t2 - u2,
        t1 - u1,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft_1d;

    fn ramp(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn decomposition_covers_all_exponents() {
        for k in 0..=16u32 {
            let r = radix_decomposition(1 << k);
            let prod: usize = r.iter().product::<usize>().max(1);
            assert_eq!(prod, 1usize << k, "k={k}: {r:?}");
            // At most one non-radix-8 stage, and only at the end.
            let tail: Vec<_> = r.iter().filter(|&&x| x != 8).collect();
            assert!(tail.len() <= 1, "k={k}: {r:?}");
        }
        assert_eq!(radix_decomposition(512), vec![8, 8, 8]);
        assert_eq!(radix_decomposition(16), vec![8, 2]);
        assert_eq!(radix_decomposition(4), vec![4]);
    }

    #[test]
    fn smooth_decomposition_puts_odd_radices_last() {
        assert_eq!(radix_decomposition(96), vec![8, 4, 3]);
        assert_eq!(radix_decomposition(48), vec![8, 2, 3]);
        assert_eq!(radix_decomposition(480), vec![8, 4, 3, 5]);
        assert_eq!(radix_decomposition(500), vec![4, 5, 5, 5]);
        assert_eq!(radix_decomposition(729), vec![3; 6]);
        assert_eq!(radix_decomposition(6 * 7 * 8), vec![8, 2, 3, 7]);
        assert!(radix_decomposition(1).is_empty());
        for n in [6usize, 60, 105, 210, 360, 384, 2 * 3 * 5 * 7 * 64] {
            let r = radix_decomposition(n);
            assert_eq!(r.iter().product::<usize>(), n, "n={n}: {r:?}");
            let first_odd = r.iter().position(|&x| x % 2 == 1).unwrap_or(r.len());
            assert!(r[first_odd..].iter().all(|&x| x % 2 == 1), "n={n}: {r:?}");
        }
    }

    #[test]
    fn butterfly_constants_are_the_roots() {
        use std::f64::consts::PI;
        let close = |c: f64, x: f64| (c - x).abs() <= 2.0 * f64::EPSILON;
        assert!(close(S3, (2.0 * PI / 3.0).sin()));
        for (k, c, s) in [(1.0, C51, S51), (2.0, C52, S52)] {
            assert!(close(c, (2.0 * PI * k / 5.0).cos()) && close(s, (2.0 * PI * k / 5.0).sin()));
        }
        for (k, c, s) in [(1.0, C71, S71), (2.0, C72, S72), (3.0, C73, S73)] {
            assert!(close(c, (2.0 * PI * k / 7.0).cos()) && close(s, (2.0 * PI * k / 7.0).sin()));
        }
    }

    #[test]
    fn matches_dft_for_all_pow2_up_to_1024() {
        for log in 0..=10 {
            let n = 1usize << log;
            let plan = StockhamPlan::new(n);
            let x = ramp(n);
            let mut fast = x.clone();
            plan.execute(&mut fast, Direction::Forward);
            let slow = dft_1d(&x, Direction::Forward);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-8 * n as f64,
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn inverse_matches_dft() {
        for n in [2usize, 8, 16, 64, 128, 512, 3, 5, 7, 10, 14, 45, 243] {
            let plan = StockhamPlan::new(n);
            let x = ramp(n);
            let mut fast = x.clone();
            plan.execute(&mut fast, Direction::Inverse);
            let slow = dft_1d(&x, Direction::Inverse);
            assert!(max_abs_diff(&fast, &slow) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        for n in [4usize, 32, 256, 2048] {
            let plan = StockhamPlan::new(n);
            let x = ramp(n);
            let mut y = x.clone();
            plan.execute(&mut y, Direction::Forward);
            plan.execute(&mut y, Direction::Inverse);
            let expected: Vec<C64> = x.iter().map(|v| v.scale(n as f64)).collect();
            assert!(max_abs_diff(&y, &expected) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn agrees_with_legacy_radix2() {
        use crate::radix::Radix2Plan;
        for log in 1..=12 {
            let n = 1usize << log;
            let sp = StockhamPlan::new(n);
            let rp = Radix2Plan::new(n);
            let x = ramp(n);
            let mut a = x.clone();
            let mut b = x;
            sp.execute(&mut a, Direction::Forward);
            rp.execute(&mut b, Direction::Forward);
            assert!(
                max_abs_diff(&a, &b) < 1e-9 * (log as f64) * n as f64,
                "n={n}"
            );
        }
    }

    #[test]
    fn shared_tables_between_equal_sizes() {
        let a = StockhamPlan::new(64);
        let b = StockhamPlan::new(64);
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
    }

    #[test]
    #[should_panic(expected = "smooth length")]
    fn rejects_non_smooth() {
        let _ = StockhamPlan::new(22);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = StockhamPlan::new(1);
        let mut x = vec![C64::new(3.0, -4.0)];
        plan.execute(&mut x, Direction::Forward);
        assert_eq!(x[0], C64::new(3.0, -4.0));
        assert_eq!(plan.stages(), 0);
    }
}
