//! Counter contract of `quality::object_psnr`'s full-budget reference
//! cache: one reference build (one miss) per distinct key on a context,
//! every later budget for that key a hit, and the shared-spectrum identity
//! (one forward FFT per focal-stack batch) along the whole quality path.
//!
//! Telemetry is process-global, so this lives in an integration-test binary
//! of its own with a single test.

use holoar_core::quality::object_psnr;
use holoar_core::{ExecutionContext, HoloArConfig};
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::objectron::ObjectAnnotation;
use holoar_telemetry::TelemetryMode;

fn obj(track_id: u64, distance: f64, size: f64) -> ObjectAnnotation {
    ObjectAnnotation { track_id, direction: AngularPoint::CENTER, distance, size }
}

fn counter(name: &str) -> u64 {
    holoar_telemetry::collector::with_registry(|r| r.counter(name))
}

fn spans(name: &str) -> u64 {
    holoar_telemetry::span_snapshot().iter().filter(|s| s.name == name).count() as u64
}

#[test]
fn each_reference_is_built_once_per_context() {
    let previous = holoar_telemetry::mode();
    holoar_telemetry::set_mode(TelemetryMode::Full);
    holoar_telemetry::reset();

    let cfg = HoloArConfig::default();
    let ctx = ExecutionContext::with_workers(2);
    let planet = obj(3, 0.6, 0.25);
    // Track 9 maps to the same virtual object as track 3 (9 % 6 == 3) at the
    // same geometry, so it shares the reference.
    let planet_again = obj(9, 0.6, 0.25);
    for planes in [8, 4, 2] {
        object_psnr(&planet, planes, &cfg, &ctx);
    }
    object_psnr(&planet_again, 6, &cfg, &ctx);
    object_psnr(&planet, 16, &cfg, &ctx); // full budget: no reference needed
    object_psnr(&obj(3, 1.2, 0.25), 8, &cfg, &ctx); // new geometry, new key
    let twelve = HoloArConfig { full_planes: 12, ..cfg };
    object_psnr(&planet, 8, &twelve, &ctx); // new full budget, new key
    object_psnr(&planet, 8, &cfg, &ExecutionContext::with_workers(2)); // fresh context

    assert_eq!(counter("core.quality.reference_cache.miss"), 4);
    assert_eq!(counter("core.quality.reference_cache.hit"), 3);
    assert_eq!(spans("core.quality.object_psnr"), 7);
    let batches = spans("optics.propagate_batch");
    assert!(batches > 0);
    assert_eq!(spans("fft.fft2d.forward"), batches, "one forward FFT per focal-stack batch");

    holoar_telemetry::set_mode(previous);
}
