//! Stockham autosort mixed-radix FFT for 2·3·5-smooth lengths.
//!
//! Every transform length whose prime factors are all 2, 3 or 5 — the
//! powers of two of the GPU-style holograms, the 40×40 focal stacks, the
//! 48×48 GSW planes and the 480×640 Objectron frames — runs through this
//! one engine. The planner ([`crate::plan`]) decides when it applies;
//! lengths with a larger prime factor go to [`crate::bluestein`], whose
//! inner convolution is itself a Stockham transform.
//!
//! # Algorithm
//!
//! Decimation in frequency, one pass per factor `r` of `n = r₁·r₂·…`
//! (radix 4 first, then at most one 2, then 3s, then 5s). A pass over
//! a sub-length `L = r·m` held as `s` interleaved sequences reads
//! `x[q + s·(p + j·m)]` for `j < r`, applies an `r`-point butterfly, scales
//! output `k` by the twiddle `e^{−2πi·pk/L}` and writes
//! `y[q + s·(r·p + k)]`. The next pass sees `r·s` interleaved sequences of
//! length `m`. The writes land in natural order, so there is no
//! bit-reversal: the passes ping-pong between the caller's buffer and a
//! per-thread scratch buffer (see [`Real::with_stockham_work`]), and an odd
//! pass count ends with one copy back.
//!
//! Twiddles are evaluated in `f64` and narrowed once at plan time
//! ([`Complex::cis_f64`]), per pass and contiguous in `p`. The final pass
//! (`m = 1`) has only unit twiddles and skips the multiply.
//!
//! Only the forward direction has kernels: the inverse is the forward
//! transform read backwards, `IDFT(x)[k] = DFT(x)[(n − k) mod n] / n`, so
//! [`StockhamPlan::inverse`] reverses bins `1..n` while it normalizes.

use crate::complex::Complex;
use crate::real::Real;

/// Whether `n > 0` has no prime factor other than 2, 3 and 5.
pub(crate) fn is_smooth(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    let mut rest = n;
    for p in [2, 3, 5] {
        while rest.is_multiple_of(p) {
            rest /= p;
        }
    }
    rest == 1
}

/// The smallest 2·3·5-smooth length `>= n` (and `>= 1`).
pub(crate) fn next_smooth(n: usize) -> usize {
    let mut m = n.max(1);
    while !is_smooth(m) {
        m += 1;
    }
    m
}

/// One pass: its radix, the number `s` of interleaved sequences it reads,
/// and where its twiddles sit in the flattened table (`m` entries, or none
/// for the final untwiddled pass).
#[derive(Debug, Clone, Copy)]
struct Pass {
    radix: usize,
    stride: usize,
    twiddle_start: usize,
    twiddle_len: usize,
}

/// The real constants of the radix-3 and radix-5 butterflies, evaluated in
/// `f64` at plan time and narrowed once.
#[derive(Debug, Clone, Copy)]
struct Rotations<T: Real> {
    /// `sin(2π/3)`.
    s3: T,
    /// `cos(2π/5)`, `cos(4π/5)`.
    c51: T,
    c52: T,
    /// `sin(2π/5)`, `sin(4π/5)`.
    s51: T,
    s52: T,
}

impl<T: Real> Rotations<T> {
    fn new() -> Self {
        let tau = 2.0 * std::f64::consts::PI;
        let w3 = Complex::<T>::cis_f64(tau / 3.0);
        let w51 = Complex::<T>::cis_f64(tau / 5.0);
        let w52 = Complex::<T>::cis_f64(2.0 * tau / 5.0);
        Rotations { s3: w3.im, c51: w51.re, c52: w52.re, s51: w51.im, s52: w52.im }
    }
}

/// Per-`p` twiddles of one pass: entry `k − 1` multiplies butterfly output
/// `k`; radices below 5 leave the tail entries at one.
type Twiddles<T> = [Complex<T>; 4];

/// Precomputed state for Stockham transforms of one fixed 2·3·5-smooth
/// length.
///
/// Generic over scalar precision; `StockhamPlan` in type positions defaults
/// to the `f64` reference precision.
#[derive(Debug, Clone)]
pub struct StockhamPlan<T: Real = f64> {
    n: usize,
    passes: Vec<Pass>,
    /// Forward twiddles, passes concatenated in execution order.
    twiddles: Vec<Twiddles<T>>,
    rot: Rotations<T>,
}

impl<T: Real> StockhamPlan<T> {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or has a prime factor larger than 5.
    pub fn new(n: usize) -> Self {
        assert!(is_smooth(n), "stockham plan requires a 2·3·5-smooth length, got {n}");
        let mut radices = Vec::new();
        let mut rest = n;
        while rest.is_multiple_of(4) {
            radices.push(4);
            rest /= 4;
        }
        for r in [2, 3, 5] {
            while rest.is_multiple_of(r) {
                radices.push(r);
                rest /= r;
            }
        }
        let mut passes = Vec::with_capacity(radices.len());
        let mut twiddles = Vec::new();
        let mut stride = 1;
        for &radix in &radices {
            let sub = n / stride; // the sub-length L = r·m this pass splits
            let m = sub / radix;
            let twiddle_start = twiddles.len();
            if m > 1 {
                for p in 0..m {
                    let mut w = [Complex::<T>::ONE; 4];
                    for (k, slot) in (1..radix).zip(w.iter_mut()) {
                        // Reduce pk mod L before forming the angle.
                        let e = (p * k) % sub;
                        *slot = Complex::cis_f64(
                            -2.0 * std::f64::consts::PI * e as f64 / sub as f64,
                        );
                    }
                    twiddles.push(w);
                }
            }
            let twiddle_len = twiddles.len() - twiddle_start;
            passes.push(Pass { radix, stride, twiddle_start, twiddle_len });
            stride *= radix;
        }
        StockhamPlan { n, passes, twiddles, rot: Rotations::new() }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward transform, in place. `buf.len()` must equal [`Self::len`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward(&self, buf: &mut [Complex<T>]) {
        let n = self.n;
        assert_eq!(buf.len(), n, "buffer length {} does not match plan length {n}", buf.len());
        if self.passes.is_empty() {
            return;
        }
        T::with_stockham_work(|work| {
            if work.len() < n {
                work.resize(n, Complex::ZERO);
            }
            let scratch = &mut work[..n];
            let mut in_buf = true;
            for pass in &self.passes {
                if in_buf {
                    self.pass(pass, buf, scratch);
                } else {
                    self.pass(pass, scratch, buf);
                }
                in_buf = !in_buf;
            }
            if !in_buf {
                buf.copy_from_slice(scratch);
            }
        });
    }

    /// Inverse transform, in place, including the `1/n` normalization.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse(&self, buf: &mut [Complex<T>]) {
        self.forward(buf);
        if let Some((_, tail)) = buf.split_first_mut() {
            tail.reverse();
        }
        let k = T::from_usize(self.n).recip();
        for v in buf.iter_mut() {
            *v = v.scale(k);
        }
    }

    fn pass(&self, pass: &Pass, src: &[Complex<T>], dst: &mut [Complex<T>]) {
        let s = pass.stride;
        let tw = &self.twiddles[pass.twiddle_start..pass.twiddle_start + pass.twiddle_len];
        match (pass.radix, tw.is_empty()) {
            (4, false) => radix4::<T, true>(src, dst, s, tw),
            (4, true) => radix4::<T, false>(src, dst, s, tw),
            (2, false) => radix2::<T, true>(src, dst, s, tw),
            (2, true) => radix2::<T, false>(src, dst, s, tw),
            (3, false) => radix3::<T, true>(src, dst, s, tw, self.rot),
            (3, true) => radix3::<T, false>(src, dst, s, tw, self.rot),
            (5, false) => radix5::<T, true>(src, dst, s, tw, self.rot),
            _ => radix5::<T, false>(src, dst, s, tw, self.rot),
        }
    }
}

/// `z · (−i)`.
#[inline(always)]
fn rotate<T: Real>(z: Complex<T>) -> Complex<T> {
    Complex::new(z.im, -z.re)
}

/// Iterates the `m` butterfly groups of a pass: for each `p`, the `s`
/// samples of input quarter/third/… `j` at `s·p` and the `r·s` outputs at
/// `r·s·p`, paired with the group's twiddles (unit twiddles when `tw` is
/// empty, i.e. `m = 1`).
fn groups<'a, T: Real>(
    dst: &'a mut [Complex<T>],
    radix: usize,
    s: usize,
    tw: &'a [Twiddles<T>],
) -> impl Iterator<Item = (usize, &'a mut [Complex<T>], Twiddles<T>)> + 'a {
    let unit = [Complex::ONE; 4];
    dst.chunks_exact_mut(radix * s)
        .enumerate()
        .map(move |(p, out)| (p * s, out, tw.get(p).copied().unwrap_or(unit)))
}

fn radix2<T: Real, const TW: bool>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    s: usize,
    tw: &[Twiddles<T>],
) {
    let (x0, x1) = src.split_at(src.len() / 2);
    for (at, out, [w1, ..]) in groups(dst, 2, s, tw) {
        let (a0, a1) = (&x0[at..at + s], &x1[at..at + s]);
        let (y0, y1) = out.split_at_mut(s);
        for (((o0, o1), &b0), &b1) in y0.iter_mut().zip(y1.iter_mut()).zip(a0).zip(a1) {
            *o0 = b0 + b1;
            *o1 = if TW { (b0 - b1) * w1 } else { b0 - b1 };
        }
    }
}

fn radix4<T: Real, const TW: bool>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    s: usize,
    tw: &[Twiddles<T>],
) {
    let sm = src.len() / 4;
    let (x0, rest) = src.split_at(sm);
    let (x1, rest) = rest.split_at(sm);
    let (x2, x3) = rest.split_at(sm);
    for (at, out, [w1, w2, w3, _]) in groups(dst, 4, s, tw) {
        let (a0, a1, a2, a3) = (&x0[at..at + s], &x1[at..at + s], &x2[at..at + s], &x3[at..at + s]);
        let (y0, rest) = out.split_at_mut(s);
        let (y1, rest) = rest.split_at_mut(s);
        let (y2, y3) = rest.split_at_mut(s);
        let y3 = &mut y3[..s];
        for q in 0..s {
            let (b0, b1, b2, b3) = (a0[q], a1[q], a2[q], a3[q]);
            let t0 = b0 + b2;
            let t1 = b0 - b2;
            let t2 = b1 + b3;
            let t3 = rotate(b1 - b3);
            y0[q] = t0 + t2;
            if TW {
                y1[q] = (t1 + t3) * w1;
                y2[q] = (t0 - t2) * w2;
                y3[q] = (t1 - t3) * w3;
            } else {
                y1[q] = t1 + t3;
                y2[q] = t0 - t2;
                y3[q] = t1 - t3;
            }
        }
    }
}

fn radix3<T: Real, const TW: bool>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    s: usize,
    tw: &[Twiddles<T>],
    rot: Rotations<T>,
) {
    let sm = src.len() / 3;
    let (x0, rest) = src.split_at(sm);
    let (x1, x2) = rest.split_at(sm);
    for (at, out, [w1, w2, ..]) in groups(dst, 3, s, tw) {
        let (a0, a1, a2) = (&x0[at..at + s], &x1[at..at + s], &x2[at..at + s]);
        let (y0, rest) = out.split_at_mut(s);
        let (y1, y2) = rest.split_at_mut(s);
        let y2 = &mut y2[..s];
        for q in 0..s {
            let (b0, b1, b2) = (a0[q], a1[q], a2[q]);
            let t1 = b1 + b2;
            let t2 = b0 - t1.scale(T::HALF);
            let t3 = rotate((b1 - b2).scale(rot.s3));
            y0[q] = b0 + t1;
            if TW {
                y1[q] = (t2 + t3) * w1;
                y2[q] = (t2 - t3) * w2;
            } else {
                y1[q] = t2 + t3;
                y2[q] = t2 - t3;
            }
        }
    }
}

fn radix5<T: Real, const TW: bool>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    s: usize,
    tw: &[Twiddles<T>],
    rot: Rotations<T>,
) {
    let sm = src.len() / 5;
    let (x0, rest) = src.split_at(sm);
    let (x1, rest) = rest.split_at(sm);
    let (x2, rest) = rest.split_at(sm);
    let (x3, x4) = rest.split_at(sm);
    for (at, out, [w1, w2, w3, w4]) in groups(dst, 5, s, tw) {
        let (a0, a1, a2) = (&x0[at..at + s], &x1[at..at + s], &x2[at..at + s]);
        let (a3, a4) = (&x3[at..at + s], &x4[at..at + s]);
        let (y0, rest) = out.split_at_mut(s);
        let (y1, rest) = rest.split_at_mut(s);
        let (y2, rest) = rest.split_at_mut(s);
        let (y3, y4) = rest.split_at_mut(s);
        let y4 = &mut y4[..s];
        for q in 0..s {
            let (b0, b1, b2, b3, b4) = (a0[q], a1[q], a2[q], a3[q], a4[q]);
            let (s14, s23) = (b1 + b4, b2 + b3);
            let (d14, d23) = (b1 - b4, b2 - b3);
            let e1 = b0 + s14.scale(rot.c51) + s23.scale(rot.c52);
            let e2 = b0 + s14.scale(rot.c52) + s23.scale(rot.c51);
            let f1 = rotate(d14.scale(rot.s51) + d23.scale(rot.s52));
            let f2 = rotate(d14.scale(rot.s52) - d23.scale(rot.s51));
            y0[q] = b0 + s14 + s23;
            if TW {
                y1[q] = (e1 + f1) * w1;
                y2[q] = (e2 + f2) * w2;
                y3[q] = (e2 - f2) * w3;
                y4[q] = (e1 - f1) * w4;
            } else {
                y1[q] = e1 + f1;
                y2[q] = e2 + f2;
                y3[q] = e2 - f2;
                y4[q] = e1 - f1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{Complex32, Complex64};
    use crate::dft;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < tol, "{x} vs {y}");
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    #[test]
    fn smoothness_and_padding() {
        let smooth: Vec<usize> = (1..=20).filter(|&n| is_smooth(n)).collect();
        assert_eq!(smooth, [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20]);
        assert!(!is_smooth(0));
        assert!(is_smooth(480) && is_smooth(640) && !is_smooth(509));
        assert_eq!(next_smooth(0), 1);
        assert_eq!(next_smooth(79), 80); // Bluestein padding for n = 40
        assert_eq!(next_smooth(1017), 1024); // ... and for the prime 509
    }

    #[test]
    fn matches_reference_dft_across_sizes() {
        // Every radix alone, every pair, and the workspace's hot lengths.
        for n in [1usize, 2, 3, 4, 5, 6, 8, 9, 10, 15, 16, 25, 27, 40, 48, 64, 120, 256, 480] {
            let x = signal(n);
            let mut fast = x.clone();
            StockhamPlan::new(n).forward(&mut fast);
            assert_close(&fast, &dft::forward(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn inverse_matches_reference() {
        for n in [32usize, 40, 45] {
            let x = signal(n);
            let mut fast = x.clone();
            StockhamPlan::new(n).inverse(&mut fast);
            assert_close(&fast, &dft::inverse(&x), 1e-10);
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        for n in [128usize, 720] {
            let plan = StockhamPlan::new(n);
            let x = signal(n);
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            assert_close(&buf, &x, 1e-10);
        }
    }

    #[test]
    fn length_one_is_identity() {
        let plan = StockhamPlan::new(1);
        let mut buf = [Complex64::new(5.0, -1.0)];
        plan.forward(&mut buf);
        assert_eq!(buf, [Complex64::new(5.0, -1.0)]);
        plan.inverse(&mut buf);
        assert_eq!(buf, [Complex64::new(5.0, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "2·3·5-smooth")]
    fn rejects_non_smooth_length() {
        StockhamPlan::<f64>::new(14);
    }

    #[test]
    #[should_panic(expected = "does not match plan length")]
    fn rejects_wrong_buffer_length() {
        let plan = StockhamPlan::new(8);
        let mut buf = vec![Complex64::ZERO; 4];
        plan.forward(&mut buf);
    }

    #[test]
    fn plan_reuse_is_consistent() {
        // Odd (40: 4·2·5) and even (48: 4·4·3) pass counts, so both the
        // copy-back and the in-place ending are exercised twice.
        for n in [40usize, 48] {
            let plan = StockhamPlan::new(n);
            let x = signal(n);
            let mut a = x.clone();
            let mut b = x.clone();
            plan.forward(&mut a);
            plan.forward(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scratch_of_a_longer_plan_is_reused() {
        // A thread that ran a long transform keeps its larger scratch; a
        // shorter one afterwards must only use its own prefix.
        let x = signal(40);
        let mut before = x.clone();
        StockhamPlan::new(40).forward(&mut before);
        let mut long = signal(960);
        StockhamPlan::new(960).forward(&mut long);
        let mut after = x.clone();
        StockhamPlan::new(40).forward(&mut after);
        assert_eq!(before, after);
    }

    #[test]
    fn f32_plan_tracks_f64_reference() {
        for n in [4usize, 16, 40, 48, 128] {
            let x = signal(n);
            let mut narrow: Vec<Complex32> = x.iter().map(|z| z.to_c32()).collect();
            StockhamPlan::new(n).forward(&mut narrow);
            let wide = dft::forward(&x);
            for (a, b) in narrow.iter().zip(&wide) {
                assert!((a.to_c64() - *b).norm() < 1e-3 * n as f64, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn f32_roundtrip_is_near_identity() {
        for n in [48usize, 64] {
            let plan: StockhamPlan<f32> = StockhamPlan::new(n);
            let x: Vec<Complex32> = signal(n).iter().map(|z| z.to_c32()).collect();
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            for (a, b) in buf.iter().zip(&x) {
                assert!((*a - *b).norm() < 1e-4);
            }
        }
    }
}
