//! CI perf-smoke gate over the `BENCH_*.json` artifacts (parallel, serve,
//! pipeline, fleet).
//!
//! `repro parallel --json` records one timing cell per (workload,
//! worker count, precision) triple plus the f32 quality gate; `repro serve
//! --json` records the serving sweep. This module re-reads those
//! artifacts and enforces the floors, so CI fails when a change regresses
//! the fast path (or the serving acceptance row) rather than when someone
//! happens to eyeball the numbers:
//!
//! * **Hard invariants** — every cell bit-identical to its same-precision
//!   single-worker twin, the f32 quality gate passing, and the fixed
//!   worker/precision cell grid present. These hold on any host.
//! * **Speedup floors** — the design targets (≥1.3× single-thread from
//!   f32, ≥2× parallel GSW at 7 workers) multiplied by a generous noise
//!   margin, and only enforced on hosts with enough cores to express them:
//!   a single-core container cannot show a parallel speedup, and a scalar
//!   narrow-core measures f32 ≈ f64 (the f32 win is a bandwidth/SIMD
//!   effect). Skipped floors are reported as SKIPPED, never silently.

use holoar_telemetry::jsonlite::{self, Json};

/// Floors and conditioning for [`evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Design floor for the single-thread f32 speedup on the fft2d 256x256
    /// and gsw cells (reference: f64 single-thread).
    pub f32_floor: f64,
    /// Design floor for the parallel GSW speedup at 7 workers.
    pub par_floor: f64,
    /// Fraction of each floor actually enforced — generous margin for CI
    /// timer noise and shared runners.
    pub noise_margin: f64,
    /// Minimum `host_workers` before the speedup floors apply at all.
    pub min_host_workers: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { f32_floor: 1.3, par_floor: 2.0, noise_margin: 0.8, min_host_workers: 4 }
    }
}

/// What the gate concluded: hard failures (non-empty fails CI) plus a
/// human-readable line-per-check report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// One entry per violated check; empty means the gate passes.
    pub failures: Vec<String>,
    /// Line-per-check report (PASS / FAIL / SKIPPED with reasons).
    pub report: String,
}

impl GateOutcome {
    /// Whether CI should go green.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The worker counts and precisions every artifact must carry (mirrors
/// `experiments::BENCH_WORKERS` × both precisions).
const REQUIRED_WORKERS: [usize; 3] = [1, 2, 7];
const REQUIRED_PRECISIONS: [&str; 2] = ["f64", "f32"];

/// One cell pulled out of the artifact.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    label: String,
    workers: usize,
    precision: String,
    speedup: f64,
    bit_identical: bool,
}

/// Evaluates the gate over the text of a `BENCH_parallel.json` artifact.
///
/// # Errors
///
/// Returns a message when the artifact is unparseable or missing required
/// fields — CI should treat that exactly like a failed gate.
pub fn evaluate(json_text: &str, cfg: &GateConfig) -> Result<GateOutcome, String> {
    let doc = jsonlite::parse(json_text).map_err(|e| e.to_string())?;
    if doc.get("bench").and_then(Json::as_str) != Some("parallel") {
        return Err("artifact is not a parallel bench (missing \"bench\": \"parallel\")".into());
    }
    let host_workers = doc
        .get("host_workers")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"host_workers\"")? as usize;
    let gate_pass = doc
        .get("f32_quality_gate")
        .and_then(|g| g.get("pass"))
        .and_then(|p| match p {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
        .ok_or("missing \"f32_quality_gate\".\"pass\"")?;
    let cells = parse_cells(&doc)?;

    let mut failures = Vec::new();
    let mut report = String::new();
    let mut check = |line: String, failed: bool| {
        report.push_str(if failed { "FAIL " } else { "pass " });
        report.push_str(&line);
        report.push('\n');
        if failed {
            failures.push(line);
        }
    };

    // Hard invariants: hold on any host.
    check(format!("f32 quality gate pass = {gate_pass}"), !gate_pass);
    for cell in &cells {
        if !cell.bit_identical {
            check(
                format!(
                    "cell {} workers={} {} is not bit-identical to its serial twin",
                    cell.label, cell.workers, cell.precision
                ),
                true,
            );
        }
    }
    let labels: Vec<&str> = {
        let mut ls: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    };
    for label in &labels {
        for workers in REQUIRED_WORKERS {
            for precision in REQUIRED_PRECISIONS {
                let present = cells.iter().any(|c| {
                    c.label == *label && c.workers == workers && c.precision == precision
                });
                if !present {
                    check(
                        format!("missing cell {label} workers={workers} {precision}"),
                        true,
                    );
                }
            }
        }
    }

    // Speedup floors: conditioned on the host being able to express them.
    let floors_apply = host_workers >= cfg.min_host_workers;
    if !floors_apply {
        report.push_str(&format!(
            "SKIPPED speedup floors: host has {host_workers} worker(s), floors need >= {} \
             (single-core hosts cannot express parallel or bandwidth wins)\n",
            cfg.min_host_workers
        ));
    } else {
        let f32_effective = cfg.f32_floor * cfg.noise_margin;
        for label in ["fft2d 256x256", "gsw 48x48 8 planes"] {
            match find(&cells, label, 1, "f32") {
                Some(cell) => check(
                    format!(
                        "f32 single-thread {label}: {:.2}x >= {f32_effective:.2}x \
                         (floor {:.2}x, noise margin {:.2})",
                        cell.speedup, cfg.f32_floor, cfg.noise_margin
                    ),
                    cell.speedup < f32_effective,
                ),
                None => check(format!("missing f32 single-thread cell for {label}"), true),
            }
        }
        let par_effective = cfg.par_floor * cfg.noise_margin;
        // Either precision may carry the parallel win; gate the best.
        let best = REQUIRED_PRECISIONS
            .iter()
            .filter_map(|p| find(&cells, "gsw 48x48 8 planes", 7, p))
            .map(|c| c.speedup)
            .fold(f64::NEG_INFINITY, f64::max);
        if best.is_finite() {
            check(
                format!(
                    "parallel gsw at 7 workers: {best:.2}x >= {par_effective:.2}x \
                     (floor {:.2}x, noise margin {:.2})",
                    cfg.par_floor, cfg.noise_margin
                ),
                best < par_effective,
            );
        } else {
            check("missing gsw cell at 7 workers".to_string(), true);
        }
    }

    Ok(GateOutcome { failures, report })
}

/// Floors for the serve artifact's 8-session acceptance row (the serving
/// tentpole's design targets, enforced by [`evaluate_serve`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeGateConfig {
    /// Batched-over-sequential speedup floor at 8 sessions.
    pub speedup_floor: f64,
    /// Deadline-hit-rate floor at 8 sessions.
    pub hit_floor: f64,
    /// Ceiling on the worst session's PSNR drift from its single-session
    /// baseline, dB.
    pub psnr_gap_ceiling: f64,
}

impl Default for ServeGateConfig {
    fn default() -> Self {
        ServeGateConfig { speedup_floor: 1.8, hit_floor: 0.95, psnr_gap_ceiling: 0.5 }
    }
}

/// Fields every `BENCH_serve.json` sweep row must carry.
const SERVE_ROW_FIELDS: [&str; 8] = [
    "sessions",
    "admitted",
    "speedup",
    "deadline_hit_rate",
    "latency_p50_s",
    "latency_p99_s",
    "psnr_gap_db",
    "launches_saved",
];

/// Evaluates the serve gate over the text of a `BENCH_serve.json`
/// artifact: schema (every sweep row complete) plus the 8-session
/// acceptance floors. The model is closed-form, so unlike the timing
/// floors these hold on any host.
///
/// # Errors
///
/// Returns a message when the artifact is unparseable or not a serve
/// bench — CI should treat that exactly like a failed gate.
pub fn evaluate_serve(json_text: &str, cfg: &ServeGateConfig) -> Result<GateOutcome, String> {
    let doc = jsonlite::parse(json_text).map_err(|e| e.to_string())?;
    if doc.get("bench").and_then(Json::as_str) != Some("serve") {
        return Err("artifact is not a serve bench (missing \"bench\": \"serve\")".into());
    }
    let rows = doc.get("sweep").and_then(Json::as_array).ok_or("missing \"sweep\" array")?;
    if rows.is_empty() {
        return Err("serve sweep is empty".into());
    }

    let mut failures = Vec::new();
    let mut report = String::new();
    let mut check = |line: String, failed: bool| {
        report.push_str(if failed { "FAIL " } else { "pass " });
        report.push_str(&line);
        report.push('\n');
        if failed {
            failures.push(line);
        }
    };

    let mut eight: Option<&Json> = None;
    for (i, row) in rows.iter().enumerate() {
        for field in SERVE_ROW_FIELDS {
            if row.get(field).and_then(Json::as_f64).is_none() {
                check(format!("sweep row {i} missing numeric \"{field}\""), true);
            }
        }
        if row.get("sessions").and_then(Json::as_f64) == Some(8.0) {
            eight = Some(row);
        }
    }
    check(format!("sweep carries {} row(s) with a complete schema", rows.len()), false);

    match eight {
        Some(row) => {
            let num = |field: &str| row.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let speedup = num("speedup");
            let hit = num("deadline_hit_rate");
            let gap = num("psnr_gap_db");
            // NaN must fail the floor, so the violation test is "not >="
            // spelled NaN-explicitly (clippy rejects `!(a >= b)` on floats).
            check(
                format!("8-session speedup {speedup:.2}x >= {:.2}x", cfg.speedup_floor),
                speedup.is_nan() || speedup < cfg.speedup_floor,
            );
            check(
                format!("8-session deadline-hit rate {hit:.3} >= {:.3}", cfg.hit_floor),
                hit.is_nan() || hit < cfg.hit_floor,
            );
            check(
                format!("8-session PSNR gap {gap:.2} dB <= {:.2} dB", cfg.psnr_gap_ceiling),
                gap.is_nan() || gap > cfg.psnr_gap_ceiling,
            );
        }
        None => check("missing the 8-session acceptance row".to_string(), true),
    }

    Ok(GateOutcome { failures, report })
}

/// Floors for the staged-pipeline artifact (the staged-executor tentpole's
/// design targets, enforced by [`evaluate_pipeline`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineGateConfig {
    /// Staged-over-lockstep throughput floor under the standard faulted
    /// workload.
    pub speedup_floor: f64,
    /// Ceiling on `staged p99 / lockstep sustained p99` — the staged
    /// sensor-to-photon tail must be no worse than the lockstep loop's
    /// under the same sustained capture timeline.
    pub p99_ratio_ceiling: f64,
}

impl Default for PipelineGateConfig {
    fn default() -> Self {
        PipelineGateConfig { speedup_floor: 1.15, p99_ratio_ceiling: 1.0 }
    }
}

/// Numeric fields every `BENCH_pipeline.json` `staged` block must carry.
const PIPELINE_STAGED_FIELDS: [&str; 8] = [
    "throughput_fps",
    "mean_latency_s",
    "latency_p50_s",
    "latency_p99_s",
    "fresh_frames",
    "stale_frames",
    "compute_drops",
    "present_drops",
];

/// Evaluates the pipeline gate over the text of a `BENCH_pipeline.json`
/// artifact: schema, the bit-identity invariant across worker counts, the
/// no-silent-gap invariant (every frame presents, fresh or stale), and the
/// speedup / p99 floors. The executor runs on virtual time, so all of
/// these hold on any host.
///
/// # Errors
///
/// Returns a message when the artifact is unparseable or not a pipeline
/// bench — CI should treat that exactly like a failed gate.
pub fn evaluate_pipeline(
    json_text: &str,
    cfg: &PipelineGateConfig,
) -> Result<GateOutcome, String> {
    let doc = jsonlite::parse(json_text).map_err(|e| e.to_string())?;
    if doc.get("bench").and_then(Json::as_str) != Some("pipeline") {
        return Err("artifact is not a pipeline bench (missing \"bench\": \"pipeline\")".into());
    }
    let staged = doc.get("staged").ok_or("missing \"staged\" block")?;
    let lockstep = doc.get("lockstep").ok_or("missing \"lockstep\" block")?;

    let mut failures = Vec::new();
    let mut report = String::new();
    let mut check = |line: String, failed: bool| {
        report.push_str(if failed { "FAIL " } else { "pass " });
        report.push_str(&line);
        report.push('\n');
        if failed {
            failures.push(line);
        }
    };

    for field in PIPELINE_STAGED_FIELDS {
        if staged.get(field).and_then(Json::as_f64).is_none() {
            check(format!("staged block missing numeric \"{field}\""), true);
        }
    }
    for field in ["throughput_fps", "latency_p99_s", "sustained_p99_s"] {
        if lockstep.get(field).and_then(Json::as_f64).is_none() {
            check(format!("lockstep block missing numeric \"{field}\""), true);
        }
    }

    let bit_identical = match doc.get("bit_identical") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("missing boolean \"bit_identical\"".into()),
    };
    check(
        format!("staged report bit-identical across worker counts = {bit_identical}"),
        !bit_identical,
    );

    // No silent gaps: every ingested frame presents, fresh or stale.
    let num = |node: &Json, field: &str| node.get(field).and_then(Json::as_f64);
    let frames = doc.get("frames").and_then(Json::as_f64).unwrap_or(f64::NAN);
    let presented = num(staged, "fresh_frames").unwrap_or(f64::NAN)
        + num(staged, "stale_frames").unwrap_or(f64::NAN);
    check(
        format!("presented frames {presented:.0} == ingested frames {frames:.0}"),
        presented.is_nan() || frames.is_nan() || presented != frames,
    );

    let speedup = doc.get("speedup").and_then(Json::as_f64).unwrap_or(f64::NAN);
    check(
        format!("staged-over-lockstep speedup {speedup:.2}x >= {:.2}x", cfg.speedup_floor),
        speedup.is_nan() || speedup < cfg.speedup_floor,
    );
    let ratio = doc.get("p99_ratio").and_then(Json::as_f64).unwrap_or(f64::NAN);
    check(
        format!(
            "sustained p99 ratio (staged / lockstep) {ratio:.3} <= {:.3}",
            cfg.p99_ratio_ceiling
        ),
        ratio.is_nan() || ratio > cfg.p99_ratio_ceiling,
    );

    Ok(GateOutcome { failures, report })
}

/// Floors for the fleet artifact (the K-device serving tentpole's design
/// targets, enforced by [`evaluate_fleet`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetGateConfig {
    /// Weak-scaling floor per device: the gated sweep row's aggregate
    /// throughput must reach `scaling_per_device × devices` times the
    /// 1-device row.
    pub scaling_per_device: f64,
    /// Which sweep row the scaling floor gates (device count).
    pub scaling_devices: f64,
    /// Deadline-hit-rate floor for the whole kill scenario — survival
    /// through a mid-run device death, migrations included.
    pub kill_hit_floor: f64,
}

impl Default for FleetGateConfig {
    fn default() -> Self {
        FleetGateConfig { scaling_per_device: 0.8, scaling_devices: 4.0, kill_hit_floor: 0.90 }
    }
}

/// Numeric fields every `BENCH_fleet.json` sweep row must carry.
const FLEET_ROW_FIELDS: [&str; 9] = [
    "devices",
    "offered",
    "admitted",
    "aggregate_fps",
    "scaling",
    "hit_rate",
    "latency_p50_s",
    "latency_p99_s",
    "migrations",
];

/// Evaluates the fleet gate over the text of a `BENCH_fleet.json`
/// artifact: schema (every sweep row complete, kill block present), the
/// weak-scaling floor at the gated device count, and kill survival — the
/// kill scenario must actually migrate sessions (otherwise the device died
/// hosting nobody and proved nothing) while keeping the deadline-hit rate
/// above the floor. Virtual-time model: holds on any host.
///
/// # Errors
///
/// Returns a message when the artifact is unparseable or not a fleet
/// bench — CI should treat that exactly like a failed gate.
pub fn evaluate_fleet(json_text: &str, cfg: &FleetGateConfig) -> Result<GateOutcome, String> {
    let doc = jsonlite::parse(json_text).map_err(|e| e.to_string())?;
    if doc.get("bench").and_then(Json::as_str) != Some("fleet") {
        return Err("artifact is not a fleet bench (missing \"bench\": \"fleet\")".into());
    }
    let rows = doc.get("sweep").and_then(Json::as_array).ok_or("missing \"sweep\" array")?;
    if rows.is_empty() {
        return Err("fleet sweep is empty".into());
    }
    let kill = doc.get("kill").ok_or("missing \"kill\" block")?;

    let mut failures = Vec::new();
    let mut report = String::new();
    let mut check = |line: String, failed: bool| {
        report.push_str(if failed { "FAIL " } else { "pass " });
        report.push_str(&line);
        report.push('\n');
        if failed {
            failures.push(line);
        }
    };

    let mut gated: Option<&Json> = None;
    for (i, row) in rows.iter().enumerate() {
        for field in FLEET_ROW_FIELDS {
            if row.get(field).and_then(Json::as_f64).is_none() {
                check(format!("sweep row {i} missing numeric \"{field}\""), true);
            }
        }
        if row.get("devices").and_then(Json::as_f64) == Some(cfg.scaling_devices) {
            gated = Some(row);
        }
    }
    check(format!("sweep carries {} row(s) with a complete schema", rows.len()), false);

    match gated {
        Some(row) => {
            let scaling = row.get("scaling").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let floor = cfg.scaling_per_device * cfg.scaling_devices;
            // NaN must fail the floor, spelled NaN-explicitly.
            check(
                format!(
                    "{}-device aggregate-throughput scaling {scaling:.2}x >= {floor:.2}x \
                     ({:.2} per device)",
                    cfg.scaling_devices, cfg.scaling_per_device
                ),
                scaling.is_nan() || scaling < floor,
            );
        }
        None => check(
            format!("missing the {}-device scaling row", cfg.scaling_devices),
            true,
        ),
    }

    let num = |field: &str| kill.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let hit = num("hit_rate");
    check(
        format!("kill-scenario deadline-hit rate {hit:.3} >= {:.3}", cfg.kill_hit_floor),
        hit.is_nan() || hit < cfg.kill_hit_floor,
    );
    let kill_migrations = num("kill_migrations");
    check(
        format!("kill scenario exercised live migration ({kill_migrations:.0} kill-forced)"),
        kill_migrations.is_nan() || kill_migrations < 1.0,
    );

    Ok(GateOutcome { failures, report })
}

fn find<'a>(cells: &'a [Cell], label: &str, workers: usize, precision: &str) -> Option<&'a Cell> {
    cells
        .iter()
        .find(|c| c.label == label && c.workers == workers && c.precision == precision)
}

fn parse_cells(doc: &Json) -> Result<Vec<Cell>, String> {
    let raw = doc.get("cells").and_then(Json::as_array).ok_or("missing \"cells\" array")?;
    let mut cells = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let field = |key: &str| format!("cell {i} missing \"{key}\"");
        cells.push(Cell {
            label: item
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| field("label"))?
                .to_string(),
            workers: item.get("workers").and_then(Json::as_f64).ok_or_else(|| field("workers"))?
                as usize,
            precision: item
                .get("precision")
                .and_then(Json::as_str)
                .ok_or_else(|| field("precision"))?
                .to_string(),
            speedup: item.get("speedup").and_then(Json::as_f64).ok_or_else(|| field("speedup"))?,
            bit_identical: match item.get("bit_identical") {
                Some(Json::Bool(b)) => *b,
                _ => return Err(field("bit_identical")),
            },
        });
    }
    Ok(cells)
}

/// CLI driver for `repro perf-gate [FILE] [--serve FILE] [--pipeline FILE]
/// [--fleet FILE] [--f32-floor X] [--par-floor Y] [--min-workers N]`: gates
/// the parallel artifact (the positional path), the serve artifact
/// (`--serve`), the staged-pipeline artifact (`--pipeline`), and/or the
/// fleet artifact (`--fleet`), prints the reports and returns the process
/// exit code. At least one artifact is required.
pub fn cli(args: &[String]) -> i32 {
    let mut cfg = GateConfig::default();
    let serve_cfg = ServeGateConfig::default();
    let pipeline_cfg = PipelineGateConfig::default();
    let fleet_cfg = FleetGateConfig::default();
    let mut path: Option<&str> = None;
    let mut serve_path: Option<&str> = None;
    let mut pipeline_path: Option<&str> = None;
    let mut fleet_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--f32-floor" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.f32_floor = v,
                None => return usage("--f32-floor requires a number"),
            },
            "--par-floor" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.par_floor = v,
                None => return usage("--par-floor requires a number"),
            },
            "--min-workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.min_host_workers = v,
                None => return usage("--min-workers requires an integer"),
            },
            "--serve" => match it.next() {
                Some(v) => serve_path = Some(v.as_str()),
                None => return usage("--serve requires an artifact path"),
            },
            "--pipeline" => match it.next() {
                Some(v) => pipeline_path = Some(v.as_str()),
                None => return usage("--pipeline requires an artifact path"),
            },
            "--fleet" => match it.next() {
                Some(v) => fleet_path = Some(v.as_str()),
                None => return usage("--fleet requires an artifact path"),
            },
            other if path.is_none() && !other.starts_with('-') => path = Some(other),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    if path.is_none() && serve_path.is_none() && pipeline_path.is_none() && fleet_path.is_none()
    {
        return usage("missing artifact path");
    }
    let mut code = 0;
    if let Some(path) = path {
        code = code.max(run_gate(path, |text| evaluate(text, &cfg)));
    }
    if let Some(path) = serve_path {
        code = code.max(run_gate(path, |text| evaluate_serve(text, &serve_cfg)));
    }
    if let Some(path) = pipeline_path {
        code = code.max(run_gate(path, |text| evaluate_pipeline(text, &pipeline_cfg)));
    }
    if let Some(path) = fleet_path {
        code = code.max(run_gate(path, |text| evaluate_fleet(text, &fleet_cfg)));
    }
    code
}

/// Reads one artifact, runs `gate` over it, prints the outcome, and maps
/// it to an exit code (0 pass, 1 gate failure, 2 unreadable/unparseable).
fn run_gate<F>(path: &str, gate: F) -> i32
where
    F: FnOnce(&str) -> Result<GateOutcome, String>,
{
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf-gate: cannot read {path}: {e}");
            return 2;
        }
    };
    match gate(&text) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            if outcome.pass() {
                println!("perf-gate: PASS ({path})");
                0
            } else {
                println!(
                    "perf-gate: FAIL ({path}, {} violation(s))",
                    outcome.failures.len()
                );
                1
            }
        }
        Err(e) => {
            eprintln!("perf-gate: {path}: {e}");
            2
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!(
        "perf-gate: {msg}\nusage: repro perf-gate [FILE] [--serve FILE] [--pipeline FILE] \
         [--fleet FILE] [--f32-floor X] [--par-floor Y] [--min-workers N]"
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(host_workers: usize, gsw7: f64, f32_one: f64, identical: bool) -> String {
        let mut cells = String::new();
        for label in ["fft2d 128x128", "fft2d 256x256", "gsw 48x48 8 planes"] {
            for workers in REQUIRED_WORKERS {
                for precision in REQUIRED_PRECISIONS {
                    let speedup = if label == "gsw 48x48 8 planes" && workers == 7 {
                        gsw7
                    } else if precision == "f32" && workers == 1 {
                        f32_one
                    } else {
                        1.0
                    };
                    cells.push_str(&format!(
                        "{}{{\"label\": \"{label}\", \"workers\": {workers}, \
                         \"precision\": \"{precision}\", \"serial_ms\": 1.0, \
                         \"parallel_ms\": 1.0, \"speedup\": {speedup}, \
                         \"bit_identical\": {identical}}}",
                        if cells.is_empty() { "" } else { ",\n" },
                    ));
                }
            }
        }
        format!(
            "{{\"bench\": \"parallel\", \"host_workers\": {host_workers},\n\
             \"f32_quality_gate\": {{\"psnr_db\": 50.0, \"threshold_db\": 40.0, \
             \"pass\": true}},\n\"cells\": [{cells}]}}"
        )
    }

    #[test]
    fn healthy_artifact_on_a_big_host_passes() {
        let outcome =
            evaluate(&artifact(8, 3.0, 1.4, true), &GateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("parallel gsw at 7 workers"));
    }

    #[test]
    fn single_core_hosts_skip_the_speedup_floors() {
        // Speedups of 1.0 would fail the floors, but a 1-worker host skips
        // them — only the hard invariants apply.
        let outcome =
            evaluate(&artifact(1, 0.9, 0.9, true), &GateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("SKIPPED speedup floors"));
    }

    #[test]
    fn slow_parallel_gsw_fails_on_a_big_host() {
        let outcome =
            evaluate(&artifact(8, 1.1, 1.4, true), &GateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("parallel gsw")));
    }

    #[test]
    fn slow_f32_fails_on_a_big_host() {
        let outcome =
            evaluate(&artifact(8, 3.0, 0.8, true), &GateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("f32 single-thread")));
    }

    #[test]
    fn broken_bit_identity_fails_everywhere() {
        let outcome =
            evaluate(&artifact(1, 3.0, 1.4, false), &GateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("bit-identical")));
    }

    #[test]
    fn failed_quality_gate_fails_everywhere() {
        let json = artifact(1, 3.0, 1.4, true).replace("\"pass\": true", "\"pass\": false");
        let outcome = evaluate(&json, &GateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("quality gate")));
    }

    #[test]
    fn missing_cells_are_detected() {
        let thin = "{\"bench\": \"parallel\", \"host_workers\": 1,\n\
             \"f32_quality_gate\": {\"psnr_db\": 50.0, \"threshold_db\": 40.0, \"pass\": true},\n\
             \"cells\": [{\"label\": \"gsw 48x48 8 planes\", \"workers\": 1, \
             \"precision\": \"f64\", \"serial_ms\": 1.0, \"parallel_ms\": 1.0, \
             \"speedup\": 1.0, \"bit_identical\": true}]}";
        let outcome = evaluate(thin, &GateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("missing cell")));
    }

    #[test]
    fn real_artifact_round_trips_through_the_gate() {
        // The actual generator output must always clear the hard
        // invariants, whatever this host's speedups look like.
        let json = crate::experiments::parallel_bench_json();
        let outcome = evaluate(&json, &GateConfig::default()).unwrap();
        for failure in &outcome.failures {
            assert!(
                failure.contains("single-thread") || failure.contains("parallel gsw"),
                "hard invariant violated: {failure}"
            );
        }
    }

    #[test]
    fn garbage_artifacts_are_errors_not_passes() {
        assert!(evaluate("not json", &GateConfig::default()).is_err());
        assert!(evaluate("{}", &GateConfig::default()).is_err());
        assert!(
            evaluate("{\"bench\": \"serve\"}", &GateConfig::default()).is_err(),
            "wrong bench kind must not pass"
        );
    }

    fn serve_artifact(speedup: f64, hit: f64, gap: f64) -> String {
        let row = |sessions: u32, s: f64, h: f64, g: f64| {
            format!(
                "{{\"sessions\": {sessions}, \"admitted\": {sessions}, \
                 \"aggregate_fps\": 1000.0, \"sequential_fps\": 500.0, \"speedup\": {s}, \
                 \"deadline_hit_rate\": {h}, \"latency_p50_s\": 0.005, \
                 \"latency_p99_s\": 0.009, \"mean_occupancy\": 0.5, \
                 \"psnr_weighted_db\": 40.0, \"psnr_gap_db\": {g}, \
                 \"merged_launches\": 100, \"launches_saved\": 50, \
                 \"qos_step_downs\": 0, \"deferred\": 0}}"
            )
        };
        format!(
            "{{\"bench\": \"serve\", \"frames\": 120, \"seed\": 42, \
             \"frame_budget_s\": 0.011111,\n\"sweep\": [{},\n{}]}}",
            row(4, 1.2, 1.0, 0.1),
            row(8, speedup, hit, gap),
        )
    }

    #[test]
    fn healthy_serve_artifact_passes() {
        let outcome =
            evaluate_serve(&serve_artifact(2.1, 0.99, 0.2), &ServeGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("8-session speedup"));
    }

    #[test]
    fn serve_floor_violations_fail() {
        for (s, h, g, needle) in [
            (1.2, 0.99, 0.2, "speedup"),
            (2.1, 0.80, 0.2, "deadline-hit"),
            (2.1, 0.99, 1.5, "PSNR gap"),
        ] {
            let outcome =
                evaluate_serve(&serve_artifact(s, h, g), &ServeGateConfig::default()).unwrap();
            assert!(!outcome.pass(), "expected failure for {needle}");
            assert!(
                outcome.failures.iter().any(|f| f.contains(needle)),
                "missing {needle} failure: {}",
                outcome.report
            );
        }
    }

    #[test]
    fn serve_artifact_without_the_acceptance_row_fails() {
        let json = serve_artifact(2.1, 0.99, 0.2).replace("\"sessions\": 8", "\"sessions\": 9");
        let outcome = evaluate_serve(&json, &ServeGateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("8-session acceptance row")));
    }

    #[test]
    fn serve_schema_holes_are_reported() {
        let json = serve_artifact(2.1, 0.99, 0.2).replace("\"launches_saved\": 50, ", "");
        let outcome = evaluate_serve(&json, &ServeGateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("launches_saved")));
        assert!(
            evaluate_serve("{\"bench\": \"parallel\"}", &ServeGateConfig::default()).is_err(),
            "wrong bench kind must not pass"
        );
    }

    #[test]
    fn generated_serve_artifact_round_trips_through_the_gate() {
        // The acceptance fleet (8 sessions, the property-test scenario) as
        // the generator emits it must clear every serve floor.
        let cfg = crate::experiments::ExperimentConfig {
            frames: 40,
            seed: 42,
            sessions: Some(8),
        };
        let json = crate::experiments::serve_bench_json(&cfg);
        let outcome = evaluate_serve(&json, &ServeGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
    }

    fn pipeline_artifact(speedup: f64, ratio: f64, identical: bool, stale: u64) -> String {
        format!(
            "{{\"bench\": \"pipeline\", \"frames\": 150, \"seed\": 42, \
             \"workers\": [1, 2, 7], \"bit_identical\": {identical}, \
             \"present_latency_s\": 0.004, \"compute_queue\": 2, \"present_queue\": 2,\n\
             \"staged\": {{\"throughput_fps\": 17.0, \"mean_latency_s\": 0.080, \
             \"latency_p50_s\": 0.046, \"latency_p99_s\": 0.170, \
             \"fresh_frames\": {}, \"stale_frames\": {stale}, \"compute_drops\": {stale}, \
             \"present_drops\": 0, \"max_compute_depth\": 2, \"max_present_depth\": 1, \
             \"bottleneck\": \"ingest\"}},\n\
             \"lockstep\": {{\"throughput_fps\": 12.7, \"latency_p50_s\": 0.042, \
             \"latency_p99_s\": 0.168, \"sustained_p99_s\": 3.1, \
             \"deadline_hit_rate\": 0.3}},\n\
             \"speedup\": {speedup},\n\"p99_ratio\": {ratio}\n}}",
            150 - stale,
        )
    }

    #[test]
    fn healthy_pipeline_artifact_passes() {
        let outcome = evaluate_pipeline(
            &pipeline_artifact(1.35, 0.055, true, 3),
            &PipelineGateConfig::default(),
        )
        .unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("speedup"));
    }

    #[test]
    fn pipeline_floor_violations_fail() {
        for (s, r, identical, needle) in [
            (1.05, 0.055, true, "speedup"),
            (1.35, 1.2, true, "p99 ratio"),
            (1.35, 0.055, false, "bit-identical"),
        ] {
            let outcome = evaluate_pipeline(
                &pipeline_artifact(s, r, identical, 0),
                &PipelineGateConfig::default(),
            )
            .unwrap();
            assert!(!outcome.pass(), "expected failure for {needle}");
            assert!(
                outcome.failures.iter().any(|f| f.contains(needle)),
                "missing {needle} failure: {}",
                outcome.report
            );
        }
    }

    #[test]
    fn pipeline_silent_presentation_gaps_fail() {
        // fresh + stale short of the ingested frame count means a frame
        // vanished without even a stale reprojection.
        let json = pipeline_artifact(1.35, 0.055, true, 0)
            .replace("\"fresh_frames\": 150", "\"fresh_frames\": 149");
        let outcome = evaluate_pipeline(&json, &PipelineGateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("presented frames")));
    }

    #[test]
    fn pipeline_schema_holes_are_reported() {
        let json =
            pipeline_artifact(1.35, 0.055, true, 0).replace("\"compute_drops\": 0, ", "");
        let outcome = evaluate_pipeline(&json, &PipelineGateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("compute_drops")));
        assert!(
            evaluate_pipeline("{\"bench\": \"serve\"}", &PipelineGateConfig::default()).is_err(),
            "wrong bench kind must not pass"
        );
    }

    #[test]
    fn generated_pipeline_artifact_round_trips_through_the_gate() {
        let cfg = crate::experiments::ExperimentConfig { frames: 30, seed: 42, sessions: None };
        let json = crate::experiments::pipeline_bench_json(&cfg);
        let outcome = evaluate_pipeline(&json, &PipelineGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
    }

    #[test]
    fn checked_in_pipeline_artifact_clears_the_gate() {
        // `BENCH_pipeline.json` at the repo root is regenerated by `repro
        // pipeline --json BENCH_pipeline.json`; stale or hand-edited
        // copies must not sneak past the floors.
        let json = include_str!("../../../BENCH_pipeline.json");
        let outcome = evaluate_pipeline(json, &PipelineGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        // And it must match what this tree generates at the recorded
        // budget — a byte-level drift check against the generator.
        let cfg = crate::experiments::ExperimentConfig::default();
        assert_eq!(
            json,
            crate::experiments::pipeline_bench_json(&cfg),
            "BENCH_pipeline.json is stale; regenerate with \
             `repro pipeline --json BENCH_pipeline.json`"
        );
    }

    fn fleet_artifact(scaling4: f64, kill_hit: f64, kill_migrations: u64) -> String {
        let row = |k: u32, scaling: f64| {
            format!(
                "{{\"devices\": {k}, \"offered\": {}, \"admitted\": {}, \"rejected\": 0, \
                 \"fresh_frames\": 1000, \"aggregate_fps\": {:.1}, \"scaling\": {scaling}, \
                 \"hit_rate\": 0.97, \"latency_p50_s\": 0.007, \"latency_p99_s\": 0.010, \
                 \"migrations\": 0, \"reprobes\": 60}}",
                12 * k,
                12 * k,
                600.0 * scaling,
            )
        };
        format!(
            "{{\"bench\": \"fleet\", \"frames\": 150, \"seed\": 42, \
             \"sessions_per_device\": 12, \"frame_budget_s\": 0.011111,\n\
             \"sweep\": [{},\n{},\n{},\n{}],\n\
             \"kill\": {{\"devices\": 4, \"offered\": 48, \"kill_device\": 0, \
             \"kill_tick\": 75, \"migrations\": {kill_migrations}, \
             \"kill_migrations\": {kill_migrations}, \"overload_migrations\": 0, \
             \"orphaned\": 0, \"hit_rate\": {kill_hit}, \"latency_p99_s\": 0.013, \
             \"aggregate_fps\": 2300.0}},\n\
             \"scale\": {{\"devices\": 8, \"offered\": 1536, \"frames\": 30, \
             \"admitted\": 156, \"peak_active\": 119, \"rejected\": 1380, \
             \"aggregate_fps\": 8652.0, \"hit_rate\": 0.94, \"migrations\": 0}}\n}}",
            row(1, 1.0),
            row(2, 1.9),
            row(4, scaling4),
            row(8, 7.4),
        )
    }

    #[test]
    fn healthy_fleet_artifact_passes() {
        let outcome =
            evaluate_fleet(&fleet_artifact(3.9, 0.93, 9), &FleetGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        assert!(outcome.report.contains("4-device aggregate-throughput scaling"));
        assert!(outcome.report.contains("kill-scenario deadline-hit"));
    }

    #[test]
    fn fleet_floor_violations_fail() {
        for (scaling, hit, migrations, needle) in [
            (2.9, 0.93, 9, "scaling"),
            (3.9, 0.85, 9, "deadline-hit"),
            (3.9, 0.93, 0, "live migration"),
        ] {
            let outcome = evaluate_fleet(
                &fleet_artifact(scaling, hit, migrations),
                &FleetGateConfig::default(),
            )
            .unwrap();
            assert!(!outcome.pass(), "expected failure for {needle}");
            assert!(
                outcome.failures.iter().any(|f| f.contains(needle)),
                "missing {needle} failure: {}",
                outcome.report
            );
        }
    }

    #[test]
    fn fleet_schema_holes_are_reported() {
        let json = fleet_artifact(3.9, 0.93, 9).replace("\"hit_rate\": 0.97, ", "");
        let outcome = evaluate_fleet(&json, &FleetGateConfig::default()).unwrap();
        assert!(!outcome.pass());
        assert!(outcome.failures.iter().any(|f| f.contains("hit_rate")));
        assert!(
            evaluate_fleet("{\"bench\": \"serve\"}", &FleetGateConfig::default()).is_err(),
            "wrong bench kind must not pass"
        );
        let no_kill = fleet_artifact(3.9, 0.93, 9).replace("\"kill\":", "\"killed\":");
        assert!(evaluate_fleet(&no_kill, &FleetGateConfig::default()).is_err());
    }

    #[test]
    fn generated_fleet_artifact_round_trips_through_the_gate() {
        let cfg = crate::experiments::ExperimentConfig::default();
        let json = crate::experiments::fleet_bench_json(&cfg);
        let outcome = evaluate_fleet(&json, &FleetGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
    }

    #[test]
    fn checked_in_fleet_artifact_clears_the_gate() {
        // `BENCH_fleet.json` at the repo root is regenerated by `repro
        // fleet --json BENCH_fleet.json`; stale or hand-edited copies must
        // not sneak past the floors.
        let json = include_str!("../../../BENCH_fleet.json");
        let outcome = evaluate_fleet(json, &FleetGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        // And it must match what this tree generates at the recorded
        // budget — a byte-level drift check against the generator.
        let cfg = crate::experiments::ExperimentConfig::default();
        assert_eq!(
            json,
            crate::experiments::fleet_bench_json(&cfg),
            "BENCH_fleet.json is stale; regenerate with `repro fleet --json BENCH_fleet.json`"
        );
    }

    #[test]
    fn checked_in_serve_artifact_clears_the_gate() {
        // `BENCH_serve.json` at the repo root is regenerated by `repro
        // serve --frames 120 --json BENCH_serve.json`; stale or
        // hand-edited copies must not sneak past the floors.
        let json = include_str!("../../../BENCH_serve.json");
        let outcome = evaluate_serve(json, &ServeGateConfig::default()).unwrap();
        assert!(outcome.pass(), "{}", outcome.report);
        // And it must match what this tree generates at the recorded
        // budget — a byte-level drift check against the generator.
        let cfg = crate::experiments::ExperimentConfig {
            frames: 120,
            ..Default::default()
        };
        assert_eq!(
            json,
            crate::experiments::serve_bench_json(&cfg),
            "BENCH_serve.json is stale; regenerate with \
             `repro serve --frames 120 --json BENCH_serve.json`"
        );
    }

    #[test]
    fn checked_in_slo_artifact_matches_the_generator() {
        // `BENCH_slo.json` at the repo root is regenerated by `repro slo
        // --sessions 8 --json BENCH_slo.json`; it has no floors of its own,
        // so the byte-level drift check is its whole pin.
        let cfg = crate::experiments::ExperimentConfig {
            sessions: Some(8),
            ..Default::default()
        };
        assert_eq!(
            include_str!("../../../BENCH_slo.json"),
            crate::experiments::slo_bench_json(&cfg),
            "BENCH_slo.json is stale; regenerate with \
             `repro slo --sessions 8 --json BENCH_slo.json`"
        );
    }
}
