//! Work-count contract of the shared-spectrum propagation path: a batch of
//! planes from one source runs exactly one forward FFT (none when every
//! distance is zero) and one inverse FFT per non-zero distance.
//!
//! Telemetry is process-global, so this lives in an integration-test binary
//! of its own with a single test: nothing else can add spans while it
//! counts.

use holoar_fft::{Complex64, Parallelism, Precision};
use holoar_optics::{Field, OpticalConfig, Propagator};
use holoar_telemetry::TelemetryMode;

/// Completed spans named `name` since the last `holoar_telemetry::reset`.
fn spans(name: &str) -> usize {
    holoar_telemetry::span_snapshot().iter().filter(|s| s.name == name).count()
}

/// (forward FFTs, inverse FFTs, `propagate_batch` spans) recorded by `run`.
fn count(run: impl FnOnce()) -> (usize, usize, usize) {
    holoar_telemetry::reset();
    run();
    (spans("fft.fft2d.forward"), spans("fft.fft2d.inverse"), spans("optics.propagate_batch"))
}

fn gaussian(n: usize) -> Field {
    let mut f = Field::zeros(n, n, OpticalConfig::default());
    for r in 0..n {
        for c in 0..n {
            let dr = r as f64 - n as f64 / 2.0;
            let dc = c as f64 - n as f64 / 2.0;
            f.set(r, c, Complex64::new((-(dr * dr + dc * dc) / 40.0).exp(), 0.0));
        }
    }
    f
}

#[test]
fn one_forward_fft_per_source() {
    let previous = holoar_telemetry::mode();
    holoar_telemetry::set_mode(TelemetryMode::Full);
    // 16 and 24 run the Stockham engine (24 mixes radices 4, 2 and 3);
    // 14 = 2·7 keeps the Bluestein path covered.
    for n in [16usize, 24, 14] {
        let field = gaussian(n);
        for precision in [Precision::F64, Precision::F32] {
            for workers in [1usize, 2, 7] {
                let prop = Propagator::with_parallelism(Parallelism::new(workers))
                    .with_precision(precision);
                let at = format!("n={n} {precision:?} workers={workers}");

                // Repeated and zero distances: one forward, one inverse per
                // non-zero plane.
                let zs = [0.001, 0.0, -0.002, 0.001, 0.003];
                let counted = count(|| {
                    prop.clone().propagate_batch(&field, &zs);
                });
                assert_eq!(counted, (1, 4, 1), "mixed batch, {at}");

                // Every distance zero: identity planes, no transform at all.
                let counted = count(|| {
                    prop.clone().propagate_batch(&field, &[0.0, 0.0, 0.0]);
                });
                assert_eq!(counted, (0, 0, 1), "all-zero batch, {at}");
                let counted = count(|| {
                    prop.clone().propagate_batch(&field, &[]);
                });
                assert_eq!(counted, (0, 0, 1), "empty batch, {at}");

                // `propagate` is a batch of one.
                let counted = count(|| {
                    prop.clone().propagate(&field, 0.002);
                });
                assert_eq!(counted, (1, 1, 0), "single plane, {at}");
                let counted = count(|| {
                    prop.clone().propagate(&field, 0.0);
                });
                assert_eq!(counted, (0, 0, 0), "zero-distance plane, {at}");

                // Independent sources each need their own spectrum.
                let fields = vec![field.clone(), field.clone(), field.clone()];
                let counted = count(|| {
                    prop.clone().propagate_planes(&fields, &[0.001, 0.0, 0.002]);
                });
                assert_eq!(counted, (2, 2, 0), "per-plane sources, {at}");
            }
        }
    }
    holoar_telemetry::set_mode(previous);
}
