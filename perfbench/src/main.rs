//! Host wall-clock benchmark of the HoloAR layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload holo-stream --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` runs every operation both untraced and traced
//! (`HOLOAR_TELEMETRY=full` plus benchmark-side spans) and reports per-layer
//! self time, the tracing overhead, exact work counters and simulated
//! statistics. Times are scaled to the reference host's speed
//! (`src/calib.rs`). The last line
//! of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! `--self-test` runs every workload's output check on short inputs, checks
//! that tampered outputs fail them, and validates the emitted metric names
//! against `BENCHMARK.json`. `--record-reference DIR` re-records the
//! reference tables. See `perfbench/README.md` for the reasoning.

#![forbid(unsafe_code)]

mod calib;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;

use holoar_telemetry::TelemetryMode;

use crate::calib::Calibration;
use crate::stats::{percentile, tail_percentile};
use crate::trace::TraceTotals;
use crate::workloads::{Size, Tally, Workload, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    report: String,
}

impl RunResult {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn seconds_since(start_ns: u64) -> f64 {
    holoar_telemetry::now_ns().saturating_sub(start_ns) as f64 / 1e9
}

/// Peak resident set size of this process, MB (0 where unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fingerprint_line(workers: usize, cal: &Calibration) -> String {
    format!(
        "host: nproc={} rustc=\"{}\" profile={} workers={} calibration={:.4} ms \
         (reference {} ms, scale x{:.4}, {} samples)\n",
        workloads::host_cores(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        workers,
        cal.median_ms(),
        calib::REFERENCE_MS,
        cal.scale(),
        cal.samples()
    )
}

/// The operations of one side of a run, with their outcomes.
#[derive(Default)]
struct Pass {
    wall_ms: Vec<f64>,
    work: u64,
    /// Pool operations whose output check failed at least once.
    failed: BTreeSet<u64>,
    first_failure: Option<String>,
    tally: Tally,
}

impl Pass {
    fn record(&mut self, pool_op: u64, op: workloads::Op) {
        self.wall_ms.push(op.wall_ns as f64 / 1e6);
        self.work += op.work;
        if let Some(f) = op.failure {
            self.failed.insert(pool_op);
            self.first_failure.get_or_insert(f);
        }
        self.tally.add(&op.tally);
    }

    fn ops(&self) -> u64 {
        self.wall_ms.len() as u64
    }

    fn wall_s(&self) -> f64 {
        self.wall_ms.iter().sum::<f64>() / 1e3
    }
}

/// `failed`, `attempted`: every pool operation ran at least once and was
/// checked on every run; it failed if any of its checks did.
fn failure_line(failed: u64, attempted: u64, first: Option<&String>) -> String {
    let mut line = format!(
        "failed pool ops: {failed} of {attempted} ({:.1}%)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    if let Some(f) = first {
        let _ = write!(line, "; first: {f}");
    }
    line.push('\n');
    line
}

/// Kernel samples before each set-up.
const SETUP_SAMPLES: usize = 20;

/// Sets the workload up [`SETUPS`] times, keeping the last, and returns it
/// with the median set-up time in reference-host seconds.
fn setup_repeatedly(name: &str, seed: u64, size: Size) -> Result<(Box<dyn Workload>, f64), String> {
    let mut cal = Calibration::default();
    let mut durations = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        for _ in 0..SETUP_SAMPLES {
            cal.sample();
        }
        let start = holoar_telemetry::now_ns();
        last = Some(workloads::setup(name, seed, size)?);
        durations.push(seconds_since(start));
    }
    let workload = last.ok_or("no set-up ran")?;
    Ok((workload, percentile(&durations, 0.5) * cal.scale()))
}

/// `--trace 0`: end-to-end metrics with telemetry off. The run makes whole
/// or partial passes over the pool until `seconds` have passed and at least
/// one whole pass is done.
fn measure(name: &str, seed: u64, seconds: f64, size: Size) -> Result<RunResult, String> {
    holoar_telemetry::set_mode(TelemetryMode::Off);
    let (mut w, setup_s) = setup_repeatedly(name, seed, size)?;
    let pool = w.pool_ops().max(1);
    let mut cal = Calibration::default();
    let mut pass = Pass::default();
    // Peak RSS is read after the first pass, which every run completes;
    // passes repeat the same work from fresh state, so later passes do not
    // raise it. The calibration buffers are not the program's and are left
    // out.
    let mut rss = 0.0;
    let start = holoar_telemetry::now_ns();
    let mut i = 0;
    while i < pool || seconds_since(start) < seconds {
        let op = w.run(i);
        cal.after_op(op.wall_ns);
        pass.record(i % pool, op);
        i += 1;
        if i == pool {
            rss = peak_rss_mb() - cal.resident_mb();
        }
    }
    let scale = cal.scale();
    let raw_p50 = percentile(&pass.wall_ms, 0.5);
    let raw_work_per_s = pass.work as f64 / pass.wall_s().max(f64::MIN_POSITIVE);
    let (p50, work_per_s) = (raw_p50 * scale, raw_work_per_s / scale);
    let mut report = fingerprint_line(w.workers(), &cal);
    let _ = writeln!(
        report,
        "{name}: {} {}s ({:.2} passes over {pool}), {} {} in {:.3} s of host op time",
        pass.ops(),
        w.op_unit(),
        pass.ops() as f64 / pool as f64,
        pass.work,
        w.work_unit(),
        pass.wall_s()
    );
    let _ = write!(report, "  {}_ms: p50={p50:.3}", w.op_unit());
    if let Some((q, v)) = tail_percentile(&pass.wall_ms, &[0.9, 0.99]) {
        let _ = write!(report, " p{}={:.3}", (q * 100.0).round(), v * scale);
    }
    let _ = writeln!(report, " (n={}; host p50={raw_p50:.3})", pass.ops());
    let _ = writeln!(
        report,
        "  {} per s: {work_per_s:.3} (host {raw_work_per_s:.3}); setup_s: {setup_s:.4} \
         (median of {SETUPS}); peak_rss_mb: {rss:.1} (after one pass)",
        w.work_unit(),
    );
    report.push_str("  ");
    report.push_str(&failure_line(
        pass.failed.len() as u64,
        pool,
        pass.first_failure.as_ref(),
    ));
    Ok(RunResult {
        correct: pass.work > 0,
        attempted: pool,
        failed: pass.failed.len() as u64,
        metrics: vec![
            Metric {
                name: "work_per_s",
                value: work_per_s,
                unit: "1/s",
            },
            Metric {
                name: "op_ms_p50",
                value: p50,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: rss,
                unit: "MB",
            },
        ],
        report,
    })
}

/// `--trace 1`: every operation runs twice, untraced on one set-up and
/// traced on a second, in alternating order, so host noise hits both sides
/// alike; per-layer self time, exact counters and simulated statistics come
/// from the traced side. Counters and statistics are totals over the first
/// pass, which are the same for every seed.
fn traced(name: &str, seed: u64, seconds: f64, size: Size) -> Result<RunResult, String> {
    // Set-up A is traced: the process-wide FFT plan builds happen here.
    holoar_telemetry::reset();
    holoar_telemetry::set_mode(TelemetryMode::Full);
    let setup_a = workloads::setup(name, seed, size);
    holoar_telemetry::set_mode(TelemetryMode::Off);
    let (setup_spans, setup_counters) = trace::capture();
    let mut plain_w = setup_a?;
    let mut setup_trace = TraceTotals::default();
    setup_trace.add_counts(&setup_spans, &setup_counters);
    let mut w = workloads::setup(name, seed, size)?;

    let pool = w.pool_ops().max(1);
    let mut cal = Calibration::default();
    let start = holoar_telemetry::now_ns();
    let mut plain = Pass::default();
    let mut pass = Pass::default();
    let mut totals = TraceTotals::default();
    let mut prefix = (TraceTotals::default(), Tally::default());
    let mut i = 0;
    while i < pool || seconds_since(start) < seconds {
        if i % 2 == 0 {
            plain.record(i % pool, plain_w.run(i));
        }
        holoar_telemetry::reset();
        holoar_telemetry::set_mode(TelemetryMode::Full);
        let op = w.run(i);
        holoar_telemetry::set_mode(TelemetryMode::Off);
        let (spans, counters) = trace::capture();
        totals.add_op(&spans, &counters, op.wall_ns);
        cal.after_op(op.wall_ns);
        pass.record(i % pool, op);
        if i % 2 == 1 {
            plain.record(i % pool, plain_w.run(i));
        }
        i += 1;
        if i == pool {
            prefix = (totals.clone(), pass.tally.clone());
        }
    }
    let overhead = pass.wall_s() / plain.wall_s().max(f64::MIN_POSITIVE);
    let metrics = layer_metrics(
        w.as_ref(),
        &totals,
        &prefix.0,
        &prefix.1,
        &setup_trace,
        overhead,
        cal.scale(),
    );
    let adds_up = totals.adds_up();
    let dropped =
        setup_trace.counter("telemetry.spans.dropped") + totals.counter("telemetry.spans.dropped");

    let mut report = fingerprint_line(w.workers(), &cal);
    let _ = writeln!(
        report,
        "{name}: {} {}s, each untraced ({:.3} s in all) and traced ({:.3} s in all), \
         overhead x{overhead:.3}; counters over the first pass ({pool})",
        plain.ops(),
        w.op_unit(),
        plain.wall_s(),
        pass.wall_s()
    );
    let attributed: f64 = trace::LAYERS.iter().map(|l| totals.layer_ms(l)).sum();
    let _ = writeln!(
        report,
        "  per-op host wall {:.3} ms = layers {attributed:.3} ms + unattributed {:.3} ms ({}); \
         spans dropped {dropped}",
        totals.wall_ns as f64 / 1e6 / totals.ops.max(1) as f64,
        totals.unattributed_ms(),
        if adds_up {
            "adds up"
        } else {
            "DOES NOT ADD UP"
        }
    );
    for layer in trace::LAYERS {
        let ms = totals.layer_ms(layer);
        if ms > 0.0 {
            let _ = writeln!(report, "  {layer:<22} {ms:>10.3} host ms/op self");
        }
    }
    let failed: BTreeSet<u64> = plain.failed.union(&pass.failed).copied().collect();
    report.push_str("  ");
    report.push_str(&failure_line(
        failed.len() as u64,
        pool,
        pass.first_failure.as_ref().or(plain.first_failure.as_ref()),
    ));
    Ok(RunResult {
        correct: adds_up && dropped == 0 && pass.ops() == plain.ops() && pass.ops() > 0,
        attempted: pool,
        failed: failed.len() as u64,
        metrics,
        report,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `per_layer` metrics. Self times are means per traced operation over
/// the whole traced side, scaled to the reference host by `scale`; counts
/// and simulated statistics are exact totals (or means) over the first
/// pass, plus set-up for the FFT plan cache.
fn layer_metrics(
    w: &dyn Workload,
    all: &TraceTotals,
    pre: &TraceTotals,
    tally: &Tally,
    setup: &TraceTotals,
    overhead: f64,
    scale: f64,
) -> Vec<Metric> {
    let forward = pre.spans("fft.fft2d.forward")
        + pre.spans("fft.fft2d.forward_real")
        + pre.spans("fft.fft2d.forward_batch");
    let inverse = pre.spans("fft.fft2d.inverse") + pre.spans("fft.fft2d.inverse_batch");
    let n = (w.fft_side() * w.fft_side()) as f64;
    let flops_per_fft = if n > 1.0 { 5.0 * n * n.log2() } else { 0.0 };
    let plan = |k: &str| setup.counter(k) + pre.counter(k);
    let plan_hits = plan("fft.plan_cache.hit") + plan("fft.plan_cache.local_hit");
    let transfer_hits = pre.counter("optics.transfer_cache.hit");
    let count = |name, value: u64| Metric {
        name,
        value: value as f64,
        unit: "count",
    };
    let self_ms = |name, layer: &str| Metric {
        name,
        value: all.layer_ms(layer) * scale,
        unit: "ms",
    };
    vec![
        self_ms("fft.self_ms", "fft"),
        Metric {
            name: "fft.worker_ms",
            value: all.worker_ms("fft") * scale,
            unit: "ms",
        },
        count("fft.forward", forward),
        count("fft.inverse", inverse),
        count(
            "fft.flops_computed",
            ((forward + inverse) as f64 * flops_per_fft).round() as u64,
        ),
        self_ms("fft.par.self_ms", "fft.par"),
        count(
            "fft.plan.builds",
            setup.spans("fft.plan.build") + pre.spans("fft.plan.build"),
        ),
        Metric {
            name: "fft.plan_cache.hit_ratio",
            value: ratio(plan_hits, plan_hits + plan("fft.plan_cache.miss")),
            unit: "ratio",
        },
        self_ms("optics.self_ms", "optics"),
        Metric {
            name: "optics.worker_ms",
            value: all.worker_ms("optics") * scale,
            unit: "ms",
        },
        count(
            "optics.propagate_batch.calls",
            pre.spans("optics.propagate_batch"),
        ),
        count("optics.transfer.builds", pre.spans("optics.transfer.build")),
        Metric {
            name: "optics.transfer_cache.hit_ratio",
            value: ratio(
                transfer_hits,
                transfer_hits + pre.counter("optics.transfer_cache.miss"),
            ),
            unit: "ratio",
        },
        self_ms("core.plan.self_ms", "core.plan"),
        count("core.plan.planes", tally.planes),
        count(
            "core.plan.objects_computed",
            pre.counter("core.plan.objects_computed"),
        ),
        self_ms("core.quality.self_ms", "core.quality"),
        count("metrics.psnr_calls", pre.spans("core.quality.object_psnr")),
        self_ms("core.self_ms", "core"),
        self_ms("gpusim.self_ms", "gpusim"),
        count("gpusim.jobs", pre.spans("core.executor.hologram_job")),
        self_ms("serve.tick.self_ms", "serve.tick"),
        self_ms("serve.quality.sample.self_ms", "serve.quality.sample"),
        self_ms("serve.self_ms", "serve"),
        count("serve.ticks", pre.spans("serve.tick")),
        self_ms("pipeline.self_ms", "pipeline"),
        self_ms("core.degrade.self_ms", "core.degrade"),
        count(
            "core.degrade.step_downs",
            pre.counter("core.degrade.step_down"),
        ),
        self_ms("fleet.self_ms", "fleet"),
        count("fleet.ticks", pre.spans("fleet.tick")),
        count("fleet.migrations", tally.migrations),
        count("fleet.migration_transitions", tally.migration_transitions),
        count("fleet.orphaned", tally.orphaned),
        self_ms("faults.self_ms", "faults"),
        self_ms("sensors.self_ms", "sensors"),
        self_ms("other.self_ms", "other"),
        Metric {
            name: "telemetry.trace_overhead_ratio",
            value: overhead,
            unit: "ratio",
        },
        Metric {
            name: "telemetry.unattributed_ms",
            value: all.unattributed_ms() * scale,
            unit: "ms",
        },
        Metric {
            name: "sim.frame_ms",
            value: tally.sim_frame_ms.mean(tally.frames),
            unit: "ms",
        },
        Metric {
            name: "sim.energy_mj",
            value: tally.sim_energy_mj.mean(tally.frames),
            unit: "mJ",
        },
        Metric {
            name: "sim.deadline_hit_rate",
            value: tally.sim_hit_rate.mean(tally.replays),
            unit: "ratio",
        },
        Metric {
            name: "sim.capacity_fps",
            value: tally.sim_capacity_fps.mean(tally.replays),
            unit: "1/s",
        },
        Metric {
            name: "sim.delivered_fps",
            value: tally.sim_delivered_fps.mean(tally.replays),
            unit: "1/s",
        },
    ]
}

// ---------------------------------------------------------------------------
// Self-test and reference recording

/// `(name, unit)` pairs listed under `key` in `BENCHMARK.json`.
fn declared_metrics(
    spec: &holoar_telemetry::jsonlite::Json,
    key: &str,
) -> Result<Vec<(String, String)>, String> {
    spec.get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{key} entry without name/unit"))
        })
        .collect()
}

fn check_names(
    result: &RunResult,
    declared: &[(String, String)],
    what: &str,
) -> Result<(), String> {
    let emitted: Vec<(String, String)> = result
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    if emitted != declared {
        return Err(format!(
            "{what} metrics {emitted:?} do not match BENCHMARK.json {declared:?}"
        ));
    }
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{what} metric {} is not finite", m.name));
    }
    Ok(())
}

fn expect_err(what: &str, r: Result<(), String>) -> Result<(), String> {
    match r {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("self-test: the check passed a tampered {what}")),
    }
}

/// Short-input self-test: every workload's output check passes on real
/// outputs and fails on tampered ones, and the emitted metric names and
/// units are exactly those `BENCHMARK.json` declares.
fn self_test() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("self-test reads BENCHMARK.json from the repository root: {e}"))?;
    let spec =
        holoar_telemetry::jsonlite::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let end_to_end = declared_metrics(&spec, "end_to_end")?;
    let per_layer = declared_metrics(&spec, "per_layer")?;
    let declared: Vec<String> = spec
        .get("workloads")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()).map(str::to_string))
        .collect();
    if declared != NAMES {
        return Err(format!(
            "BENCHMARK.json workloads {declared:?} != {NAMES:?}"
        ));
    }
    for name in NAMES {
        let plain = measure(name, 1, 0.0, Size::Short)?;
        check_names(&plain, &end_to_end, "end_to_end")?;
        let traced = traced(name, 1, 0.0, Size::Short)?;
        check_names(&traced, &per_layer, "per_layer")?;
        if !plain.correct || !traced.correct {
            return Err(format!(
                "self-test: {name} run-level checks failed:\n{}",
                traced.report
            ));
        }
        // Every workload but fleet-kill must pass its output checks; on
        // fleet-kill only the known migration double-count may fail.
        let failed = plain.failed.max(traced.failed);
        if failed > 0 && name != "fleet-kill" {
            return Err(format!(
                "self-test: {name} failed {failed} output checks:\n{}",
                traced.report
            ));
        }
        println!(
            "self-test: {name}: {} pool ops checked, {failed} failed",
            plain.attempted
        );
    }

    let ctx = holoar_core::ExecutionContext::serial();
    let table = reference::parse_holo(reference::HOLO_TABLE)?;
    let key = (2, 4, 6);
    let mut hologram = workloads::key_hologram(key, &ctx);
    workloads::check_hologram(key, &hologram, &table)?;
    hologram.scale(1.0 + 1e-6);
    expect_err(
        "hologram",
        workloads::check_hologram(key, &hologram, &table),
    )?;
    hologram.samples_mut()[7].re = f64::NAN;
    expect_err(
        "non-finite hologram",
        workloads::check_hologram(key, &hologram, &table),
    )?;

    let pool = reference::parse_pool(reference::QUALITY_TABLE)?;
    let entry = pool[0];
    expect_err("PSNR", workloads::check_psnr(&entry, entry.psnr_db + 0.05))?;
    expect_err("PSNR", workloads::check_psnr(&entry, f64::NAN))?;

    let serve_cfg = holoar_serve::ServeConfig::fleet(
        holoar_serve::DeviceSpec::edge(),
        holoar_serve::SessionSpec::fleet(4, 3),
        6,
    );
    let mut served = holoar_serve::run_serve(&serve_cfg, &ctx)?;
    workloads::check_serve(&served, 4)?;
    served.sessions[0].served += 1;
    expect_err("serve report", workloads::check_serve(&served, 4))?;

    let mut fleet = holoar_serve::run_fleet(&holoar_serve::FleetConfig::sweep(2, 6, 40, 3))?;
    workloads::check_fleet(&fleet, (usize::MAX, 0))?;
    fleet.migration_transitions = fleet.migrations + 1;
    expect_err(
        "fleet report",
        workloads::check_fleet(&fleet, (usize::MAX, 0)),
    )?;
    println!("self-test: tampered outputs fail their checks");
    println!("self-test: ok");
    Ok(())
}

/// Re-records both reference tables into `dir`.
fn record_reference(dir: &str) -> Result<(), String> {
    let ctx = holoar_core::ExecutionContext::with_workers(workloads::holo_workers());
    let mut holo = String::from(
        "# holo-stream reference: virtual object, depth bin, planes, then the hologram\n\
         # fingerprint (energy, projection re, projection im) at 128x128.\n",
    );
    for key in workloads::all_holo_keys() {
        let h = workloads::key_hologram(key, &ctx);
        let fp =
            reference::fingerprint(h.samples()).ok_or_else(|| format!("{key:?} not finite"))?;
        let _ = writeln!(
            holo,
            "{}\t{}\t{}\t{:?}\t{:?}\t{:?}",
            key.0, key.1, key.2, fp.energy, fp.proj_re, fp.proj_im
        );
    }
    let mut pool = String::from(
        "# quality-sweep pool: category index, track id, planned planes, distance m,\n\
         # size m, then the PSNR (dB) quality::object_psnr gave when recorded.\n",
    );
    for e in workloads::record_pool() {
        let _ = writeln!(
            pool,
            "{}\t{}\t{}\t{:?}\t{:?}\t{:?}",
            e.category, e.track_id, e.planes, e.distance, e.size, e.psnr_db
        );
    }
    let write = |file: &str, text: &str| {
        std::fs::write(format!("{dir}/{file}"), text).map_err(|e| format!("writing {file}: {e}"))
    };
    write("holo_stream.tsv", &holo)?;
    write("quality_sweep.tsv", &pool)
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("--self-test") => return self_test(),
        Some("--record-reference") => {
            return record_reference(args.get(1).ok_or("--record-reference needs a directory")?)
        }
        _ => {}
    }
    let args = parse_args(args)?;
    let name = args.workload.ok_or("--workload is required")?;
    if !NAMES.contains(&name.as_str()) {
        return Err(format!(
            "unknown workload {name:?} (known: {})",
            NAMES.join(", ")
        ));
    }
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(&name, args.seed, args.seconds, Size::Full)?
    } else {
        measure(&name, args.seed, args.seconds, Size::Full)?
    };
    print!("{}", result.report);
    println!("{}", result.json());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
