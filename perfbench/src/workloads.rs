//! The four workloads: inputs from the seed, calls into the program through
//! its public entry points, and an output check on every operation.
//!
//! Each workload is a closed loop from one client: operation `i + 1` starts
//! when operation `i` has returned and been checked. Only the calls into the
//! program are timed; generating inputs and checking outputs are not.
//!
//! Each workload has a fixed pool of distinct operations and runs passes
//! over it; `--seed` sets the order a pass visits the pool in. Every pass
//! starts from a fresh execution context (cold transfer-function cache) and
//! fresh stream state, so passes repeat the same work. A run's failure count
//! and exact work counters are therefore properties of the code, the same
//! for every seed and run length.

use std::collections::BTreeMap;

use holoar_core::quality::{virtual_object_for, OPTICAL_SCALE};
use holoar_core::{executor, quality, ExecutionContext, HoloArConfig, Planner, Scheme};
use holoar_gpusim::Device;
use holoar_optics::{algorithm1, Field, OpticalConfig};
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::objectron::{FrameGenerator, ObjectAnnotation, VideoCategory};
use holoar_sensors::pose::PoseEstimate;
use holoar_serve::{
    run_fleet, run_serve, DeviceSpec, FleetConfig, FleetReport, ServeConfig, ServeReport,
    SessionSpec,
};
use holoar_telemetry::SpanGuard;

use crate::reference::{self, Fingerprint, HoloKey, PoolEntry};
use crate::stats::{derive, permutation};
use crate::trace::ROOT_SPAN;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["holo-stream", "quality-sweep", "serve-edge", "fleet-kill"];

/// Input size: `Full` for measurement, `Short` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Small pools and short replays, so every check runs in seconds.
    Short,
}

/// Exact, deterministic outcomes of the program, summed over operations.
/// Simulated quantities are summed in fixed point ([`Nano`]), so a sum does
/// not depend on the order a seed visits the pool in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Frames planned by the benchmark (holo-stream).
    pub frames: u64,
    /// Depth planes computed across holograms.
    pub planes: u64,
    /// Simulated frame latency on the headset GPU model, summed, ms.
    pub sim_frame_ms: Nano,
    /// Simulated frame energy, summed, mJ.
    pub sim_energy_mj: Nano,
    /// Serving or fleet replays.
    pub replays: u64,
    /// Simulated deadline-hit rate, summed over replays.
    pub sim_hit_rate: Nano,
    /// Simulated capacity (frames per second of device-busy time), summed
    /// over replays.
    pub sim_capacity_fps: Nano,
    /// Simulated delivered fresh frames per second of virtual wall time,
    /// summed over replays.
    pub sim_delivered_fps: Nano,
    /// Live migrations.
    pub migrations: u64,
    /// Ladder transitions attributed to migration.
    pub migration_transitions: u64,
    /// Sessions orphaned by device deaths.
    pub orphaned: u64,
}

/// A quantity in billionths of its unit: integer sums are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Nano(i64);

impl Nano {
    /// `x`, rounded to a billionth.
    pub fn of(x: f64) -> Self {
        Nano((x * 1e9).round() as i64)
    }

    /// Mean over `n` values, in the unit; 0 when `n` is 0.
    pub fn mean(self, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.0 as f64 / 1e9 / n as f64
        }
    }
}

impl std::ops::AddAssign for Nano {
    fn add_assign(&mut self, other: Nano) {
        self.0 += other.0;
    }
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        self.frames += other.frames;
        self.planes += other.planes;
        self.sim_frame_ms += other.sim_frame_ms;
        self.sim_energy_mj += other.sim_energy_mj;
        self.replays += other.replays;
        self.sim_hit_rate += other.sim_hit_rate;
        self.sim_capacity_fps += other.sim_capacity_fps;
        self.sim_delivered_fps += other.sim_delivered_fps;
        self.migrations += other.migrations;
        self.migration_transitions += other.migration_transitions;
        self.orphaned += other.orphaned;
    }
}

/// One completed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Host time of the calls into the program, ns.
    pub wall_ns: u64,
    /// Units of work the operation completed (see [`Workload::work_unit`]).
    pub work: u64,
    /// The first output check that failed, if any.
    pub failure: Option<String>,
    /// Exact outcomes for the work counters and simulated statistics.
    pub tally: Tally,
}

/// A set-up workload, ready to run passes over its pool.
pub trait Workload {
    /// Runs the run's operation `i`, which is pool operation
    /// `i % pool_ops()`: times the calls into the program, then checks the
    /// outputs.
    fn run(&mut self, i: u64) -> Op;
    /// Distinct operations in one pass over the pool.
    fn pool_ops(&self) -> u64;
    /// What one operation is.
    fn op_unit(&self) -> &'static str;
    /// What `work_per_s` counts.
    fn work_unit(&self) -> &'static str;
    /// Worker threads the program may use.
    fn workers(&self) -> usize;
    /// Side of the square fields every FFT of this workload transforms.
    fn fft_side(&self) -> usize;
}

/// Sets up workload `name` for `seed`: builds the execution context and
/// the seeded inputs, loads the references and runs one warm-up call.
pub fn setup(name: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    match name {
        "holo-stream" => Ok(Box::new(HoloStream::new(seed, size)?)),
        "quality-sweep" => Ok(Box::new(QualitySweep::new(seed, size)?)),
        "serve-edge" => Ok(Box::new(ServeEdge::new(seed, size)?)),
        "fleet-kill" => Ok(Box::new(FleetKill::new(seed, size)?)),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            NAMES.join(", ")
        )),
    }
}

/// The host's core count.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads of holo-stream's context: every core but one, which is
/// left to the rest of the system. With every core busy, anything else that
/// runs stalls one worker and the whole fan-out waits for it: on the 2-vCPU
/// reference host, ten 25 s runs with two workers spread by 0.24 (quartile
/// distance over median of holograms per second), at the largest bound the
/// benchmark may set. On that host this makes the context serial.
pub fn holo_workers() -> usize {
    host_cores().saturating_sub(1).max(1)
}

/// Opens a benchmark-side span: the root of an operation, or one around a
/// call into `layer`. The names (`bench.op`, `<layer>.bench.<call>`) belong
/// to the benchmark, not to the program's instrumentation, so they are not
/// in the program's telemetry name registry.
fn call_span(name: &'static str, layer: &'static str) -> SpanGuard {
    holoar_telemetry::span_cat(name, layer)
}

/// Runs `f` under the operation's root span and returns its host time.
fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = holoar_telemetry::now_ns();
    let out = {
        let _root = call_span(ROOT_SPAN, "bench");
        f()
    };
    (holoar_telemetry::now_ns().saturating_sub(start), out)
}

/// Seed of the warm-up call in every set-up: fixed, so set-up does the same
/// work whatever the workload seed.
const WARM_UP_SEED: u64 = 7;

/// Seed the pools' frame streams and session mixes are generated from (the
/// quality pool's frames too, when it is recorded).
const POOL_SEED: u64 = 2021;

/// Pool operation of run operation `i`: pass `i / n` visits the pool in
/// `order`.
fn pool_index(order: &[usize], i: u64) -> usize {
    order[(i % order.len() as u64) as usize]
}

fn first_failure(failures: impl IntoIterator<Item = Result<(), String>>) -> Option<String> {
    failures.into_iter().find_map(Result::err)
}

/// Head pose and eye-tracker latency every planned frame uses (centered
/// pose, gaze on the frame's first object, as in the serving layer).
const POSE: PoseEstimate = PoseEstimate {
    orientation: AngularPoint::CENTER,
    latency: 0.01375,
};
const EYE_LATENCY_S: f64 = 0.0044;

fn gaze_of(objects: &[ObjectAnnotation]) -> AngularPoint {
    objects
        .first()
        .map_or(AngularPoint::CENTER, |o| o.direction)
}

// ---------------------------------------------------------------------------
// holo-stream

/// Display resolution of the headset holograms (power of two: radix-2 FFTs).
pub const HOLO_SIDE: usize = 128;

/// Scene depths (metres) an object's distance snaps to before it becomes an
/// optical depth. Snapping keeps the set of distinct holograms finite, so
/// the reference table covers every hologram any seed can ask for.
pub const DEPTH_BINS_M: [f64; 12] = [0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.1, 1.4, 1.8, 2.3, 3.0, 4.0];

/// Object depth extent as a fraction of its optical depth.
const EXTENT_FRACTION: f64 = 0.35;

/// Frames per stream in one pass (six streams).
const HOLO_FRAMES_PER_STREAM: u64 = 40;

/// The depth bin nearest to `distance`.
pub fn depth_bin(distance: f64) -> usize {
    let mut best = 0;
    for (i, &d) in DEPTH_BINS_M.iter().enumerate() {
        if (d - distance).abs() < (DEPTH_BINS_M[best] - distance).abs() {
            best = i;
        }
    }
    best
}

/// Computes the reference-keyed hologram `key` through the program.
pub fn key_hologram(key: HoloKey, ctx: &ExecutionContext) -> Field {
    let (vobj, bin, planes) = key;
    let z = DEPTH_BINS_M[bin] * OPTICAL_SCALE;
    let depthmap = {
        let _s = call_span("optics.bench.render", "optics");
        virtual_object_for(vobj as u64).render(HOLO_SIDE, HOLO_SIDE, z, EXTENT_FRACTION * z)
    };
    let _s = call_span("optics.bench.depthmap_hologram", "optics");
    algorithm1::depthmap_hologram(&depthmap, planes as usize, OpticalConfig::default(), ctx)
        .hologram
}

/// Checks one hologram: finite, and within tolerance of its reference.
pub fn check_hologram(
    key: HoloKey,
    hologram: &Field,
    table: &BTreeMap<HoloKey, Fingerprint>,
) -> Result<(), String> {
    let got = reference::fingerprint(hologram.samples())
        .ok_or_else(|| format!("hologram {key:?} has non-finite samples"))?;
    let want = table
        .get(&key)
        .ok_or_else(|| format!("no reference hologram for {key:?}"))?;
    reference::compare(&got, want, hologram.len()).map_err(|e| format!("{key:?}: {e}"))
}

#[derive(Clone)]
struct Stream {
    frames: FrameGenerator,
    planner: Planner,
    device: Device,
}

/// Objectron-like frames → InterIntraHolo plan → one hologram per computed
/// object at its planned plane count → the plan priced on the headset GPU
/// model. One stream per video category; a pass takes the streams in turn
/// (in a seeded order) from their first frame, with fresh planners, device
/// models and execution context.
struct HoloStream {
    ctx: ExecutionContext,
    /// The streams as a pass starts them.
    initial: Vec<Stream>,
    streams: Vec<Stream>,
    /// Stream visiting order within each turn.
    order: Vec<usize>,
    frames_per_stream: u64,
    table: BTreeMap<HoloKey, Fingerprint>,
}

impl HoloStream {
    fn new(seed: u64, size: Size) -> Result<Self, String> {
        let ctx = ExecutionContext::with_workers(holo_workers());
        let config = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
        let initial = VideoCategory::ALL
            .iter()
            .enumerate()
            .map(|(c, &video)| {
                Ok(Stream {
                    frames: FrameGenerator::new(video, derive(POOL_SEED, 1, c as u64)),
                    planner: Planner::new(config)?,
                    device: Device::xavier(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let table = reference::parse_holo(reference::HOLO_TABLE)?;
        let warm = (0, depth_bin(0.6), 4);
        check_hologram(warm, &key_hologram(warm, &ctx), &table)?;
        Ok(HoloStream {
            ctx,
            streams: initial.clone(),
            order: permutation(initial.len(), derive(seed, 1, 0)),
            initial,
            frames_per_stream: match size {
                Size::Full => HOLO_FRAMES_PER_STREAM,
                Size::Short => 2,
            },
            table,
        })
    }
}

impl Workload for HoloStream {
    fn run(&mut self, i: u64) -> Op {
        if i % self.pool_ops() == 0 {
            self.ctx = ExecutionContext::with_workers(holo_workers());
            self.streams.clone_from(&self.initial);
        }
        let ctx = &self.ctx;
        let stream = &mut self.streams[pool_index(&self.order, i)];
        let (wall_ns, (holograms, perf)) = timed(|| {
            let frame = {
                let _s = call_span("sensors.bench.next_frame", "sensors");
                stream.frames.next().unwrap_or_default()
            };
            let plan = {
                let _s = call_span("core.bench.plan_frame", "core");
                stream
                    .planner
                    .plan_frame(&frame, &POSE, gaze_of(&frame.objects), EYE_LATENCY_S)
            };
            let holograms: Vec<(HoloKey, Field)> = plan
                .items
                .iter()
                .filter(|item| item.needs_compute())
                .map(|item| {
                    let key = (
                        (item.object.track_id % 6) as usize,
                        depth_bin(item.object.distance),
                        item.planes,
                    );
                    (key, key_hologram(key, ctx))
                })
                .collect();
            let perf = {
                let _s = call_span("core.bench.execute_plan", "core");
                executor::execute_plan(&mut stream.device, &plan)
            };
            (holograms, perf)
        });
        let planes: u64 = holograms.iter().map(|(k, _)| u64::from(k.2)).sum();
        let failure = first_failure(
            holograms
                .iter()
                .map(|(key, h)| check_hologram(*key, h, &self.table))
                .chain([
                    if perf.jobs == holograms.len() && u64::from(perf.planes) == planes {
                        Ok(())
                    } else {
                        Err(format!(
                            "executor priced {} jobs / {} planes, plan computed {} / {planes}",
                            perf.jobs,
                            perf.planes,
                            holograms.len()
                        ))
                    },
                ]),
        );
        Op {
            wall_ns,
            work: holograms.len() as u64,
            failure,
            tally: Tally {
                frames: 1,
                planes,
                sim_frame_ms: Nano::of(perf.latency * 1e3),
                sim_energy_mj: Nano::of(perf.energy * 1e3),
                ..Tally::default()
            },
        }
    }
    fn op_unit(&self) -> &'static str {
        "frame"
    }
    fn work_unit(&self) -> &'static str {
        "holograms"
    }
    fn workers(&self) -> usize {
        self.ctx.workers()
    }
    fn fft_side(&self) -> usize {
        HOLO_SIDE
    }
    fn pool_ops(&self) -> u64 {
        self.frames_per_stream * self.initial.len() as u64
    }
}

// ---------------------------------------------------------------------------
// quality-sweep

/// Rounds in a pass: the first this many recorded entries of each category
/// (a pass takes about 20 s on the reference host).
const QUALITY_ROUNDS: usize = 30;

/// The planner configuration the pool was planned with and PSNR is
/// evaluated under.
fn quality_config() -> HoloArConfig {
    HoloArConfig::for_scheme(Scheme::InterIntraHolo)
}

fn pool_object(e: &PoolEntry) -> ObjectAnnotation {
    ObjectAnnotation {
        track_id: e.track_id,
        direction: AngularPoint::CENTER,
        distance: e.distance,
        size: e.size,
    }
}

/// Checks one PSNR against the pool's recorded value.
pub fn check_psnr(e: &PoolEntry, psnr: f64) -> Result<(), String> {
    if psnr.is_finite() && (psnr - e.psnr_db).abs() <= reference::PSNR_TOL_DB {
        Ok(())
    } else {
        Err(format!(
            "PSNR {psnr} dB for track {} at {} planes, reference {} dB (tolerance {} dB)",
            e.track_id,
            e.planes,
            e.psnr_db,
            reference::PSNR_TOL_DB
        ))
    }
}

/// `quality::object_psnr` over the planned, approximated objects of all six
/// categories (the recorded pool), on a serial context whose
/// transfer-function cache persists across the evaluations of a pass. One operation is a
/// round of six evaluations, one per category: single evaluations take
/// 20–240 ms in clusters set by object size, so a median over them jumps
/// between clusters from run to run, while a round's time is smooth.
struct QualitySweep {
    ctx: ExecutionContext,
    config: HoloArConfig,
    /// Pool entries by video category.
    by_category: Vec<Vec<PoolEntry>>,
    /// Per category: the seeded order its entries join rounds in.
    orders: Vec<Vec<usize>>,
    rounds: u64,
}

impl QualitySweep {
    fn new(seed: u64, size: Size) -> Result<Self, String> {
        let ctx = ExecutionContext::serial();
        let config = quality_config();
        let rounds = match size {
            Size::Full => QUALITY_ROUNDS,
            Size::Short => 2,
        };
        let pool = reference::parse_pool(reference::QUALITY_TABLE)?;
        let by_category: Vec<Vec<PoolEntry>> = (0..VideoCategory::ALL.len())
            .map(|c| {
                let entries = pool.iter().filter(|e| e.category == c);
                entries.take(rounds).copied().collect()
            })
            .collect();
        if by_category.iter().any(|entries| entries.len() < rounds) {
            return Err(format!(
                "quality-sweep pool has fewer than {rounds} entries in a category"
            ));
        }
        let warm = ObjectAnnotation {
            track_id: 0,
            direction: AngularPoint::CENTER,
            distance: 1.0,
            size: 0.2,
        };
        let psnr = quality::object_psnr(&warm, 8, &config, &ctx);
        if !psnr.is_finite() {
            return Err(format!("warm-up PSNR is {psnr}"));
        }
        let orders = (0..by_category.len())
            .map(|c| permutation(rounds, derive(seed, 2 + c as u64, 0)))
            .collect();
        Ok(QualitySweep {
            ctx,
            config,
            by_category,
            orders,
            rounds: rounds as u64,
        })
    }
}

impl Workload for QualitySweep {
    fn run(&mut self, i: u64) -> Op {
        let round = i % self.rounds;
        if round == 0 {
            self.ctx = ExecutionContext::serial();
        }
        let entries: Vec<PoolEntry> = self
            .by_category
            .iter()
            .zip(&self.orders)
            .map(|(entries, order)| entries[pool_index(order, round)])
            .collect();
        let objects: Vec<ObjectAnnotation> = entries.iter().map(pool_object).collect();
        let (ctx, config) = (&self.ctx, &self.config);
        let (wall_ns, psnrs) = timed(|| {
            entries
                .iter()
                .zip(&objects)
                .map(|(e, object)| {
                    let _s = call_span("core.bench.object_psnr", "core");
                    quality::object_psnr(object, e.planes, config, ctx)
                })
                .collect::<Vec<f64>>()
        });
        Op {
            wall_ns,
            work: entries.len() as u64,
            failure: first_failure(entries.iter().zip(&psnrs).map(|(e, &p)| check_psnr(e, p))),
            tally: Tally::default(),
        }
    }
    fn op_unit(&self) -> &'static str {
        "round"
    }
    fn work_unit(&self) -> &'static str {
        "PSNR evals"
    }
    fn workers(&self) -> usize {
        self.ctx.workers()
    }
    fn fft_side(&self) -> usize {
        quality::QUALITY_RESOLUTION
    }
    fn pool_ops(&self) -> u64 {
        self.rounds
    }
}

/// Frames generated per category for the pool, every `POOL_STRIDE`-th
/// planned frame contributing its approximated objects.
const POOL_FRAMES: u64 = 900;
const POOL_STRIDE: u64 = 15;
/// Pool entries kept per category.
const POOL_PER_CATEGORY: usize = 40;

/// Plans the quality pool from Objectron-like frames of every category and
/// records each entry's PSNR through the program (`--record-reference`).
pub fn record_pool() -> Vec<PoolEntry> {
    let config = quality_config();
    let ctx = ExecutionContext::serial();
    let mut pool = Vec::new();
    for (c, &video) in VideoCategory::ALL.iter().enumerate() {
        let mut planner = Planner::new(config).unwrap_or_else(|e| panic!("{e}"));
        let mut kept = 0;
        for (f, frame) in FrameGenerator::new(video, POOL_SEED)
            .take(POOL_FRAMES as usize)
            .enumerate()
        {
            let plan = planner.plan_frame(&frame, &POSE, gaze_of(&frame.objects), EYE_LATENCY_S);
            if !(f as u64).is_multiple_of(POOL_STRIDE) {
                continue;
            }
            for item in plan
                .items
                .iter()
                .filter(|it| it.needs_compute() && it.planes < config.full_planes)
            {
                if kept == POOL_PER_CATEGORY {
                    break;
                }
                kept += 1;
                let o = item.object;
                pool.push(PoolEntry {
                    category: c,
                    track_id: o.track_id,
                    planes: item.planes,
                    distance: o.distance,
                    size: o.size,
                    psnr_db: quality::object_psnr(&o, item.planes, &config, &ctx),
                });
            }
        }
    }
    pool
}

// ---------------------------------------------------------------------------
// serve-edge

/// Sessions offered per replay: enough to saturate the edge device, so QoS
/// step-downs (and, on heavier content, deferrals) occur.
const SERVE_SESSIONS: u32 = 24;
/// Ticks per replay.
const SERVE_FRAMES: u64 = 20;
/// Distinct session mixes in the pool.
const SERVE_POOL: usize = 16;
/// PSNR drift bound while the load fits the device, dB (the serving
/// layer's acceptance bound).
pub const SERVE_PSNR_GAP_DB: f64 = 0.5;

/// Checks one serving replay of `offered` sessions.
pub fn check_serve(r: &ServeReport, offered: usize) -> Result<(), String> {
    if r.requested != offered || r.admitted > r.requested || r.sessions.len() != r.admitted {
        return Err(format!(
            "offered {offered}, requested {}, admitted {}, reported {}",
            r.requested,
            r.admitted,
            r.sessions.len()
        ));
    }
    if let Some(s) = r
        .sessions
        .iter()
        .find(|s| s.served + s.deferred != s.frames)
    {
        return Err(format!(
            "session {}: fresh {} + stale {} != frames {}",
            s.id, s.served, s.deferred, s.frames
        ));
    }
    let fits = r
        .sessions
        .iter()
        .all(|s| s.qos_step_downs == 0 && s.deferred == 0);
    if fits {
        if let Some(s) = r.sessions.iter().find(|s| {
            let gap = (s.psnr_weighted - s.psnr_full).abs();
            gap.is_nan() || gap > SERVE_PSNR_GAP_DB
        }) {
            return Err(format!(
                "session {}: PSNR gap {:.3} dB exceeds {SERVE_PSNR_GAP_DB} dB on a fitting load",
                s.id,
                (s.psnr_weighted - s.psnr_full).abs()
            ));
        }
    }
    if !(0.0..=1.0).contains(&r.deadline_hit_rate) {
        return Err(format!(
            "deadline hit rate {} outside [0, 1]",
            r.deadline_hit_rate
        ));
    }
    Ok(())
}

/// A sequence of `run_serve` replays on one edge device, over a pool of
/// seeded session mixes, on a serial context that each pass starts afresh.
struct ServeEdge {
    ctx: ExecutionContext,
    /// Pool mix indices in visiting order.
    order: Vec<usize>,
    sessions: u32,
    frames: u64,
}

impl ServeEdge {
    fn new(seed: u64, size: Size) -> Result<Self, String> {
        let (sessions, frames, pool) = match size {
            Size::Full => (SERVE_SESSIONS, SERVE_FRAMES, SERVE_POOL),
            Size::Short => (6, 8, 2),
        };
        let ctx = ExecutionContext::serial();
        // A fixed replay long enough for objects to appear, so PSNR sampling
        // (and its FFT plans) runs once before measurement.
        let warm = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(2, WARM_UP_SEED), 24);
        check_serve(&run_serve(&warm, &ctx)?, 2)?;
        Ok(ServeEdge {
            ctx,
            order: permutation(pool, derive(seed, 3, 0)),
            sessions,
            frames,
        })
    }
}

impl Workload for ServeEdge {
    fn run(&mut self, i: u64) -> Op {
        if i % self.pool_ops() == 0 {
            self.ctx = ExecutionContext::serial();
        }
        let config = ServeConfig::fleet(
            DeviceSpec::edge(),
            SessionSpec::fleet(
                self.sessions,
                derive(POOL_SEED, 3, pool_index(&self.order, i) as u64),
            ),
            self.frames,
        );
        let ctx = &self.ctx;
        let (wall_ns, result) = timed(|| {
            let _s = call_span("serve.bench.run_serve", "serve");
            run_serve(&config, ctx)
        });
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                return Op {
                    wall_ns,
                    work: 0,
                    failure: Some(e),
                    tally: Tally::default(),
                }
            }
        };
        let sim_frames: u64 = report.sessions.iter().map(|s| s.frames).sum();
        let fresh: u64 = report.sessions.iter().map(|s| s.served).sum();
        let virtual_s = self.frames as f64 * config.frame_budget();
        Op {
            wall_ns,
            work: sim_frames,
            failure: check_serve(&report, self.sessions as usize).err(),
            tally: Tally {
                replays: 1,
                sim_hit_rate: Nano::of(report.deadline_hit_rate),
                sim_capacity_fps: Nano::of(report.aggregate_fps),
                sim_delivered_fps: Nano::of(fresh as f64 / virtual_s),
                ..Tally::default()
            },
        }
    }
    fn op_unit(&self) -> &'static str {
        "replay"
    }
    fn work_unit(&self) -> &'static str {
        "sim session-frames"
    }
    fn workers(&self) -> usize {
        self.ctx.workers()
    }
    fn fft_side(&self) -> usize {
        quality::QUALITY_RESOLUTION
    }
    fn pool_ops(&self) -> u64 {
        self.order.len() as u64
    }
}

// ---------------------------------------------------------------------------
// fleet-kill

/// Devices per fleet.
const FLEET_DEVICES: usize = 4;
/// Sessions offered per replay (12 per device, the fleet study's density).
const FLEET_SESSIONS: u32 = 48;
/// Ticks per replay; device 0 is killed at the midpoint.
const FLEET_FRAMES: u64 = 300;
/// Per-window injector kill probability.
const FLEET_KILL_PROBABILITY: f64 = 0.1;
/// Replays in the pool: fleet seeds `0..FLEET_POOL`, the seeds the orphan
/// double-count was found on. The pool does not depend on `--seed`, so the
/// failure count is the same in every run.
const FLEET_POOL: usize = 100;

/// Checks one fleet replay whose scheduled kill was `scheduled`.
pub fn check_fleet(r: &FleetReport, scheduled: (usize, u64)) -> Result<(), String> {
    if r.admitted > r.offered || r.fresh > r.presented || r.deadline_hits > r.presented {
        return Err(format!(
            "offered {} admitted {}, presented {} fresh {} hits {}",
            r.offered, r.admitted, r.presented, r.fresh, r.deadline_hits
        ));
    }
    if r.migrations != r.kill_migrations + r.overload_migrations
        || r.migration_events.len() as u64 != r.migrations
    {
        return Err(format!(
            "migrations {} != kill {} + overload {} (events {})",
            r.migrations,
            r.kill_migrations,
            r.overload_migrations,
            r.migration_events.len()
        ));
    }
    if r.migrations != r.migration_transitions {
        return Err(format!(
            "migrations {} != migration transitions {} ({} orphaned)",
            r.migrations, r.migration_transitions, r.orphaned
        ));
    }
    let injector_kill = r.killed.iter().any(|&k| k != scheduled);
    if !injector_kill && r.orphaned != 0 {
        return Err(format!(
            "{} sessions orphaned with no injector kill",
            r.orphaned
        ));
    }
    Ok(())
}

/// A sequence of `run_fleet` replays: K devices, diurnal load, device
/// faults on, a scheduled mid-run kill and injector kills.
struct FleetKill {
    /// Fleet seeds in visiting order.
    order: Vec<usize>,
    frames: u64,
}

impl FleetKill {
    fn new(seed: u64, size: Size) -> Result<Self, String> {
        let (frames, pool) = match size {
            Size::Full => (FLEET_FRAMES, FLEET_POOL),
            Size::Short => (120, 10),
        };
        let warm = run_fleet(&FleetConfig::sweep(
            FLEET_DEVICES,
            FLEET_SESSIONS,
            60,
            WARM_UP_SEED,
        ))?;
        check_fleet(&warm, (usize::MAX, 0))?;
        Ok(FleetKill {
            order: permutation(pool, derive(seed, 4, 0)),
            frames,
        })
    }
}

impl Workload for FleetKill {
    fn run(&mut self, i: u64) -> Op {
        let scheduled = (0, self.frames / 2);
        let config = FleetConfig {
            kill: Some(scheduled),
            kill_probability: FLEET_KILL_PROBABILITY,
            ..FleetConfig::sweep(
                FLEET_DEVICES,
                FLEET_SESSIONS,
                self.frames,
                pool_index(&self.order, i) as u64,
            )
        };
        let (wall_ns, result) = timed(|| {
            let _s = call_span("fleet.bench.run_fleet", "fleet");
            run_fleet(&config)
        });
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                return Op {
                    wall_ns,
                    work: 0,
                    failure: Some(e),
                    tally: Tally::default(),
                }
            }
        };
        Op {
            wall_ns,
            work: report.presented,
            failure: check_fleet(&report, scheduled).err(),
            tally: Tally {
                replays: 1,
                sim_hit_rate: Nano::of(report.hit_rate),
                sim_delivered_fps: Nano::of(report.aggregate_fps),
                migrations: report.migrations,
                migration_transitions: report.migration_transitions,
                orphaned: report.orphaned,
                ..Tally::default()
            },
        }
    }
    fn op_unit(&self) -> &'static str {
        "replay"
    }
    fn work_unit(&self) -> &'static str {
        "sim session-frames"
    }
    fn workers(&self) -> usize {
        1
    }
    fn fft_side(&self) -> usize {
        0
    }
    fn pool_ops(&self) -> u64 {
        self.order.len() as u64
    }
}

/// Every hologram key any seed can produce: all virtual objects × depth
/// bins × plane counts up to the full budget.
pub fn all_holo_keys() -> Vec<HoloKey> {
    let full = quality_config().full_planes;
    let mut keys = Vec::new();
    for vobj in 0..6 {
        for bin in 0..DEPTH_BINS_M.len() {
            for planes in 1..=full {
                keys.push((vobj, bin, planes));
            }
        }
    }
    keys
}
