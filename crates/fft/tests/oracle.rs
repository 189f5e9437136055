//! Exhaustive check of the planned transforms against the `O(n²)` reference
//! DFT: every length 1..=130 plus the workspace's frame lengths and a large
//! prime, both directions, both precisions. Deterministic inputs, so a
//! failure names its length and reproduces exactly.

use holoar_fft::{dft, Complex32, Complex64, FftPlanner};

fn lengths() -> impl Iterator<Item = usize> {
    (1..=130).chain([240, 480, 640, 509])
}

/// A deterministic signal with every sample in the unit square.
fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            Complex64::new((t * 0.731 + 0.2).sin(), (t * t * 0.017 - 0.4).cos())
        })
        .collect()
}

/// Largest sample error of `fast` against `slow`.
fn max_err(fast: impl Iterator<Item = Complex64>, slow: &[Complex64]) -> f64 {
    fast.zip(slow)
        .map(|(a, b)| (a - *b).norm())
        .fold(0.0, f64::max)
}

#[test]
fn f64_matches_reference_dft_in_both_directions() {
    let mut planner = FftPlanner::<f64>::new();
    for n in lengths() {
        let plan = planner.plan(n);
        let x = signal(n);
        let nf = n as f64;

        let mut fwd = x.clone();
        plan.forward(&mut fwd);
        let err = max_err(fwd.into_iter(), &dft::forward(&x));
        assert!(
            err < 2e-15 * nf * nf.log2().max(1.0),
            "forward n={n}: error {err:e}"
        );

        let mut inv = x.clone();
        plan.inverse(&mut inv);
        let err = max_err(inv.into_iter(), &dft::inverse(&x));
        assert!(
            err < 2e-15 * nf.log2().max(1.0),
            "inverse n={n}: error {err:e}"
        );
    }
}

/// The f32 bounds are those the per-algorithm unit tests have always used.
#[test]
fn f32_matches_reference_dft_in_both_directions() {
    let mut planner = FftPlanner::<f32>::new();
    for n in lengths() {
        let plan = planner.plan(n);
        let x = signal(n);
        let narrow: Vec<Complex32> = x.iter().map(|z| z.to_c32()).collect();
        let nf = n as f64;

        let mut fwd = narrow.clone();
        plan.forward(&mut fwd);
        let err = max_err(fwd.iter().map(|z| z.to_c64()), &dft::forward(&x));
        assert!(err < 1e-3 * nf, "forward n={n}: error {err:e}");

        let mut inv = narrow.clone();
        plan.inverse(&mut inv);
        let err = max_err(inv.iter().map(|z| z.to_c64()), &dft::inverse(&x));
        assert!(err < 1e-3, "inverse n={n}: error {err:e}");
    }
}
