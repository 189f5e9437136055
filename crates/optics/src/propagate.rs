//! Scalar diffraction between parallel planes: the angular-spectrum method.
//!
//! This is the numerical core of the depthmap hologram algorithm. A field is
//! propagated a signed distance `z` by multiplying its spatial spectrum with
//! the free-space transfer function
//!
//! ```text
//! H(fx, fy; z) = exp( i·k·z·sqrt(1 − (λ·fx)² − (λ·fy)²) )
//! ```
//!
//! with evanescent components (the root going imaginary) attenuated. The
//! paper's `HP2DP` (hologram plane → depth plane) and `DP2HP` (depth plane →
//! hologram plane) procedures are thin directional wrappers over this
//! operator.
//!
//! A [`Propagator`] caches FFT plans and transfer functions behind shared
//! thread-safe maps (clones of a propagator share one cache), because the
//! hologram pipeline propagates dozens of planes of identical shape per
//! frame. Independent planes can be propagated concurrently through the
//! batch APIs ([`Propagator::propagate_batch`] /
//! [`Propagator::propagate_planes`]); the batch results are bit-identical
//! to the equivalent serial loop for every worker count.
//!
//! Propagation runs in two steps: the source field's forward spectrum, then
//! per plane a multiply by that plane's transfer function and an inverse
//! FFT. A batch of planes from one source ([`Propagator::propagate_batch`],
//! and [`Propagator::propagate`] as a batch of one) transforms its source
//! exactly once and finishes every plane from that shared spectrum.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use holoar_fft::{
    Complex, Complex32, Complex64, ExecutionContext, Fft2d, Parallelism, Precision, Real,
};

use crate::field::{Field, OpticalConfig};

/// Cache key for a transfer function: shape plus the bit patterns of the
/// distance, wavelength and pixel pitch that define it.
type TransferKey = (usize, usize, u64, u64, u64);

/// Shared FFT-plan map at one scalar precision.
type FftMap<T> = Arc<Mutex<HashMap<(usize, usize), Fft2d<T>>>>;

/// Shared transfer-function map at one complex width.
type TransferMap<C> = Arc<Mutex<HashMap<TransferKey, Arc<Vec<C>>>>>;

/// One plane's shared transfer function at precision `T`.
type Transfer<T> = Arc<Vec<Complex<T>>>;

/// One plane of [`Propagator::propagate_planes`]: its source field, plus the
/// serial FFT and transfer function that propagate it (`None` for the
/// zero-distance identity).
type PlaneJob<'a, T> = (&'a Field, Option<(Fft2d<T>, Transfer<T>)>);

/// The [`ExecutionContext`] shared slot a context-built propagator pulls its
/// caches from: every propagator constructed from the same context (or a
/// clone of it) shares one FFT-plan map and one transfer-function map (per
/// precision).
#[derive(Debug, Default)]
struct PropagatorCaches {
    ffts: FftMap<f64>,
    transfer: TransferMap<Complex64>,
    ffts32: FftMap<f32>,
    transfer32: TransferMap<Complex32>,
}

/// One hot-loop precision's view of a propagator's caches. Implemented for
/// `f64` (the bit-identity reference) and `f32`; each entry point picks the
/// implementation from [`Propagator::precision`] once, so the propagation
/// steps below it are written once for both widths.
trait Lane: Real {
    /// The cached (or newly planned) FFT for a shape at this precision.
    fn lane_fft(prop: &Propagator, rows: usize, cols: usize) -> Fft2d<Self>;

    /// The cached (or newly built) transfer function at this precision.
    fn lane_transfer(
        prop: &Propagator,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        z: f64,
    ) -> Transfer<Self>;
}

impl Lane for f64 {
    fn lane_fft(prop: &Propagator, rows: usize, cols: usize) -> Fft2d {
        cached_fft(&prop.ffts, rows, cols, &prop.par)
    }

    fn lane_transfer(
        prop: &Propagator,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        z: f64,
    ) -> Arc<Vec<Complex64>> {
        prop.transfer_for(rows, cols, cfg, z)
    }
}

impl Lane for f32 {
    fn lane_fft(prop: &Propagator, rows: usize, cols: usize) -> Fft2d<f32> {
        cached_fft(&prop.ffts32, rows, cols, &prop.par)
    }

    fn lane_transfer(
        prop: &Propagator,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        z: f64,
    ) -> Arc<Vec<Complex32>> {
        prop.transfer32_for(rows, cols, cfg, z)
    }
}

/// Angular-spectrum propagator with cached plans and transfer functions.
///
/// The caches live behind `Arc<Mutex<…>>`, so cloning a propagator is cheap
/// and the clones *share* cached transfer functions — workers propagating
/// different depth planes of the same frame reuse one table per distance.
///
/// # Examples
///
/// ```
/// use holoar_optics::{Field, OpticalConfig, Propagator};
///
/// let cfg = OpticalConfig::default();
/// let mut field = Field::zeros(32, 32, cfg);
/// field.set(16, 16, holoar_fft::Complex64::ONE);
///
/// let mut prop = Propagator::new();
/// let away = prop.propagate(&field, 0.002);
/// let back = prop.propagate(&away, -0.002);
/// // Forward then backward recovers the point source.
/// assert!(back.intensity_at(16, 16) > 0.9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Propagator {
    ffts: FftMap<f64>,
    /// Transfer functions, `Arc`-shared so batch workers borrow them
    /// without copying.
    transfer: TransferMap<Complex64>,
    /// f32 twins of the two caches above, populated only when the
    /// propagator runs at [`Precision::F32`]. The f32 transfer tables are
    /// narrowed from the cached f64 tables, not rebuilt, so both precisions
    /// share one trigonometry pass per distance.
    ffts32: FftMap<f32>,
    transfer32: TransferMap<Complex32>,
    par: Parallelism,
    precision: Precision,
}

impl Propagator {
    /// Creates an empty serial propagator (at the default `f64` reference
    /// precision).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty propagator that fans FFT passes and batch
    /// propagation out over `par`.
    pub fn with_parallelism(par: Parallelism) -> Self {
        Propagator { par, ..Self::default() }
    }

    /// Creates a propagator bound to an [`ExecutionContext`]: it fans out
    /// over the context's worker pool, runs its hot loops at the context's
    /// [`Precision`], and shares FFT-plan and transfer-function caches with
    /// every other propagator built from the same context. This is how the
    /// serving layer lets all sessions multiplexed onto one device reuse
    /// each other's transfer functions.
    pub fn with_context(ctx: &ExecutionContext) -> Self {
        let caches = ctx.shared("optics.propagator.caches", PropagatorCaches::default);
        Propagator {
            ffts: Arc::clone(&caches.ffts),
            transfer: Arc::clone(&caches.transfer),
            ffts32: Arc::clone(&caches.ffts32),
            transfer32: Arc::clone(&caches.transfer32),
            par: ctx.parallelism().clone(),
            precision: ctx.precision(),
        }
    }

    /// This propagator with its hot-loop precision overridden (caches and
    /// pool are shared with `self`). Fields stay `f64` at the boundary
    /// either way; [`Precision::F32`] narrows the samples and transfer
    /// table around the transform and widens the result back.
    pub fn with_precision(&self, precision: Precision) -> Self {
        Propagator { precision, ..self.clone() }
    }

    /// The pool handle this propagator fans out over.
    pub fn parallelism(&self) -> &Parallelism {
        &self.par
    }

    /// The scalar precision propagation hot loops run at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Propagates `field` by a signed distance `z` (meters). Positive `z`
    /// moves away from the source plane; negative `z` back-propagates.
    ///
    /// Propagation is unitary up to the evanescent cutoff: for fields whose
    /// spectrum stays within the propagating band, energy is conserved.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    pub fn propagate(&mut self, field: &Field, z: f64) -> Field {
        let _span = holoar_telemetry::span_cat("optics.propagate", "optics");
        // A batch of one: one distance in, exactly one plane out.
        self.one_source(field, &[z]).pop().unwrap_or_else(|| field.clone())
    }

    /// Propagates one field to many distances concurrently, returning the
    /// results in `zs` order.
    ///
    /// The source is transformed once (zero times when every distance is
    /// zero); each plane then multiplies the shared spectrum by its own
    /// transfer function and inverts it on its own worker. Every output is
    /// bit-identical to the corresponding serial [`Propagator::propagate`]
    /// call, and transfer functions are built (and cached) in `zs` order.
    ///
    /// # Panics
    ///
    /// Panics if any distance is not finite.
    pub fn propagate_batch(&mut self, field: &Field, zs: &[f64]) -> Vec<Field> {
        let _span = holoar_telemetry::span_cat("optics.propagate_batch", "optics");
        self.one_source(field, zs)
    }

    /// Propagates independent `(field, z)` pairs concurrently, returning
    /// results in input order. Shapes may differ between pairs.
    ///
    /// Bit-identical to the serial loop, with the same cache-warming
    /// guarantee as [`Propagator::propagate_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `fields` and `zs` differ in length, or any distance is not
    /// finite.
    pub fn propagate_planes(&mut self, fields: &[Field], zs: &[f64]) -> Vec<Field> {
        assert_eq!(fields.len(), zs.len(), "one distance per field");
        let _span = holoar_telemetry::span_cat("optics.propagate_planes", "optics");
        match self.precision {
            Precision::F64 => self.own_sources::<f64>(fields, zs),
            Precision::F32 => self.own_sources::<f32>(fields, zs),
        }
    }

    /// Propagates one source to every distance in `zs` at this propagator's
    /// precision.
    fn one_source(&self, field: &Field, zs: &[f64]) -> Vec<Field> {
        match self.precision {
            Precision::F64 => self.shared_spectrum::<f64>(field, zs),
            Precision::F32 => self.shared_spectrum::<f32>(field, zs),
        }
    }

    /// [`Propagator::one_source`] at precision `T`: one forward FFT of the
    /// source (on the pool), then every plane is finished from that shared
    /// spectrum on its own worker.
    fn shared_spectrum<T: Lane>(&self, field: &Field, zs: &[f64]) -> Vec<Field> {
        // Warm the transfer cache serially in `zs` order, so insertion order
        // (and therefore `cached_transfer_count`) matches the serial loop.
        let transfers: Vec<Option<Transfer<T>>> =
            zs.iter().map(|&z| self.transfer_or_identity::<T>(field, z)).collect();
        if transfers.iter().all(Option::is_none) {
            return vec![field.clone(); zs.len()];
        }
        let fft = T::lane_fft(self, field.rows(), field.cols());
        let spectrum = forward_spectrum(field, &fft);
        // `par.map` runs a one-plane batch inline, so that plane keeps the
        // pool's intra-FFT fan-out; larger batches fan out across planes,
        // each with a serial transform.
        let finish = if zs.len() == 1 { fft } else { fft.serial_equivalent() };
        self.par.map(&transfers, |h| match h {
            Some(h) => finish_plane(field, spectrum.clone(), &finish, h),
            None => field.clone(),
        })
    }

    /// [`Propagator::propagate_planes`] at precision `T`: every plane has
    /// its own source, so each runs both steps on its own worker with a
    /// serial transform.
    fn own_sources<T: Lane>(&self, fields: &[Field], zs: &[f64]) -> Vec<Field> {
        // Caches are warmed serially in input order, as in `shared_spectrum`.
        let jobs: Vec<PlaneJob<'_, T>> = fields
            .iter()
            .zip(zs)
            .map(|(field, &z)| {
                let (rows, cols) = (field.rows(), field.cols());
                let serial_fft = || T::lane_fft(self, rows, cols).serial_equivalent();
                (field, self.transfer_or_identity::<T>(field, z).map(|h| (serial_fft(), h)))
            })
            .collect();
        self.par.map(&jobs, |(field, prepared)| match prepared {
            Some((fft, h)) => finish_plane(field, forward_spectrum(field, fft), fft, h),
            None => (*field).clone(),
        })
    }

    /// The transfer function that propagates `field` by `z` at precision
    /// `T`, or `None` for the zero-distance identity.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    fn transfer_or_identity<T: Lane>(&self, field: &Field, z: f64) -> Option<Transfer<T>> {
        assert!(z.is_finite(), "propagation distance must be finite");
        (z != 0.0).then(|| T::lane_transfer(self, field.rows(), field.cols(), field.config(), z))
    }

    /// `HP2DP` from Algorithm 1: hologram plane → the depth plane at distance
    /// `z` in front of it.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    pub fn hp2dp(&mut self, hologram: &Field, z: f64) -> Field {
        self.propagate(hologram, z)
    }

    /// `DP2HP` from Algorithm 1: the depth plane at distance `z` → the
    /// hologram plane.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not finite.
    pub fn dp2hp(&mut self, plane: &Field, z: f64) -> Field {
        self.propagate(plane, -z)
    }

    /// Number of cached transfer functions (exposed for cache-behaviour
    /// tests and capacity planning). Shared across clones.
    pub fn cached_transfer_count(&self) -> usize {
        holoar_fft::lock_unpoisoned(&self.transfer).len()
    }

    /// The cached (or newly built) transfer function for a shape/distance.
    fn transfer_for(
        &self,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        z: f64,
    ) -> Arc<Vec<Complex64>> {
        let key =
            (rows, cols, z.to_bits(), cfg.wavelength.to_bits(), cfg.pitch.to_bits());
        match holoar_fft::lock_unpoisoned(&self.transfer).entry(key) {
            std::collections::hash_map::Entry::Occupied(hit) => {
                holoar_telemetry::counter_add("optics.transfer_cache.hit", 1);
                hit.get().clone()
            }
            std::collections::hash_map::Entry::Vacant(miss) => {
                holoar_telemetry::counter_add("optics.transfer_cache.miss", 1);
                let _span = holoar_telemetry::span_cat("optics.transfer.build", "optics");
                miss.insert(Arc::new(transfer_function(
                    rows,
                    cols,
                    cfg.pitch,
                    cfg.wavelength,
                    z,
                )))
                .clone()
            }
        }
    }

    /// The cached f32 transfer function for a shape/distance, narrowed from
    /// the cached f64 table (one trigonometry pass serves both precisions).
    fn transfer32_for(
        &self,
        rows: usize,
        cols: usize,
        cfg: OpticalConfig,
        z: f64,
    ) -> Arc<Vec<Complex32>> {
        let key =
            (rows, cols, z.to_bits(), cfg.wavelength.to_bits(), cfg.pitch.to_bits());
        if let Some(hit) = holoar_fft::lock_unpoisoned(&self.transfer32).get(&key) {
            holoar_telemetry::counter_add("optics.transfer_cache.hit", 1);
            return Arc::clone(hit);
        }
        holoar_telemetry::counter_add("optics.transfer_cache.miss", 1);
        // Narrow outside the lock: transfer_for takes the f64 map's lock.
        let wide = self.transfer_for(rows, cols, cfg, z);
        let narrow = Arc::new(wide.iter().map(|t| t.to_c32()).collect::<Vec<Complex32>>());
        holoar_fft::lock_unpoisoned(&self.transfer32)
            .entry(key)
            .or_insert(narrow)
            .clone()
    }
}

/// The cached (or newly planned) FFT for a shape in one precision's plan map.
fn cached_fft<T: Real>(map: &FftMap<T>, rows: usize, cols: usize, par: &Parallelism) -> Fft2d<T> {
    match holoar_fft::lock_unpoisoned(map).entry((rows, cols)) {
        std::collections::hash_map::Entry::Occupied(hit) => {
            holoar_telemetry::counter_add("optics.fft_cache.hit", 1);
            hit.get().clone()
        }
        std::collections::hash_map::Entry::Vacant(miss) => {
            holoar_telemetry::counter_add("optics.fft_cache.miss", 1);
            miss.insert(Fft2d::with_parallelism(rows, cols, par.clone())).clone()
        }
    }
}

/// Propagation step one, once per source: the field's forward spectrum at
/// precision `T`. Samples narrow on the way in (the identity at `f64`);
/// purely real inputs keep exact zero imaginary parts under narrowing, so
/// the real-input FFT fast path still fires.
fn forward_spectrum<T: Real>(field: &Field, fft: &Fft2d<T>) -> Vec<Complex<T>> {
    let mut spectrum: Vec<Complex<T>> = field
        .samples()
        .iter()
        .map(|s| Complex::new(T::from_f64(s.re), T::from_f64(s.im)))
        .collect();
    fft.forward(&mut spectrum);
    spectrum
}

/// Propagation step two, once per plane: the plane's own copy of the
/// source spectrum times its transfer function `h`, inverse FFT, and widen
/// back to an `f64` [`Field`] shaped like the source.
fn finish_plane<T: Real>(
    field: &Field,
    mut plane: Vec<Complex<T>>,
    fft: &Fft2d<T>,
    h: &[Complex<T>],
) -> Field {
    for (s, t) in plane.iter_mut().zip(h) {
        *s *= *t;
    }
    fft.inverse(&mut plane);
    let wide = plane.into_iter().map(|s| Complex64::new(s.re.to_f64(), s.im.to_f64())).collect();
    Field::from_data(field.rows(), field.cols(), field.config(), wide)
}

/// Builds the (band-limited) angular-spectrum transfer function for a
/// `rows × cols` grid in FFT (DC-at-corner) index order.
fn transfer_function(rows: usize, cols: usize, pitch: f64, wavelength: f64, z: f64) -> Vec<Complex64> {
    let k = 2.0 * std::f64::consts::PI / wavelength;
    let dfx = 1.0 / (cols as f64 * pitch);
    let dfy = 1.0 / (rows as f64 * pitch);
    // Band limit after Matsushima & Shimobaba (2009): frequencies beyond
    // `1 / (λ·sqrt((2·Δf·z)² + 1))` alias for the given propagation distance
    // and aperture, so the transfer function is zeroed there.
    let fx_max = 1.0 / (wavelength * ((2.0 * dfx * z.abs()).powi(2) + 1.0).sqrt());
    let fy_max = 1.0 / (wavelength * ((2.0 * dfy * z.abs()).powi(2) + 1.0).sqrt());

    let mut h = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        // FFT bin → signed frequency.
        let fr = if r <= rows / 2 { r as f64 } else { r as f64 - rows as f64 } * dfy;
        for c in 0..cols {
            let fc = if c <= cols / 2 { c as f64 } else { c as f64 - cols as f64 } * dfx;
            let s = 1.0 - (wavelength * fc).powi(2) - (wavelength * fr).powi(2);
            let within_band = fc.abs() <= fx_max && fr.abs() <= fy_max;
            if s >= 0.0 && within_band {
                h.push(Complex64::cis(k * z * s.sqrt()));
            } else if s < 0.0 {
                // Evanescent: decays as exp(-k|z|·sqrt(-s)).
                let decay = (-k * z.abs() * (-s).sqrt()).exp();
                h.push(Complex64::from(decay));
            } else {
                h.push(Complex64::ZERO);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::OpticalConfig;

    fn point_source(n: usize) -> Field {
        let mut f = Field::zeros(n, n, OpticalConfig::default());
        f.set(n / 2, n / 2, Complex64::ONE);
        f
    }

    #[test]
    fn zero_distance_is_identity() {
        let f = point_source(16);
        let mut p = Propagator::new();
        let out = p.propagate(&f, 0.0);
        assert_eq!(out.samples(), f.samples());
    }

    #[test]
    fn forward_backward_roundtrip() {
        let f = point_source(32);
        let mut p = Propagator::new();
        let mid = p.hp2dp(&f, 0.003);
        let out = p.dp2hp(&mid, 0.003);
        // Peak should return to the center with most of its energy.
        assert!(out.intensity_at(16, 16) > 0.9);
        let off_peak: f64 = out
            .intensity()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 16 * 32 + 16)
            .map(|(_, v)| v)
            .sum();
        assert!(off_peak < 0.1);
    }

    #[test]
    fn energy_approximately_conserved_for_propagating_field() {
        // A smooth Gaussian blob has negligible evanescent content.
        let n = 64;
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(n, n, cfg);
        for r in 0..n {
            for c in 0..n {
                let dr = r as f64 - n as f64 / 2.0;
                let dc = c as f64 - n as f64 / 2.0;
                let a = (-(dr * dr + dc * dc) / 50.0).exp();
                f.set(r, c, Complex64::new(a, 0.0));
            }
        }
        let e0 = f.total_energy();
        let out = Propagator::new().propagate(&f, 0.001);
        let e1 = out.total_energy();
        assert!((e0 - e1).abs() / e0 < 0.02, "e0={e0} e1={e1}");
    }

    #[test]
    fn point_source_spreads_with_distance() {
        let f = point_source(64);
        let mut p = Propagator::new();
        let near = p.propagate(&f, 0.0005);
        let far = p.propagate(&f, 0.005);
        // Farther propagation ⇒ lower peak intensity (energy spread wider).
        let peak = |fld: &Field| fld.intensity().iter().cloned().fold(0.0, f64::max);
        assert!(peak(&far) < peak(&near));
    }

    #[test]
    fn propagation_is_reciprocal() {
        // propagate(+z) then propagate(-z) equals identity for band-limited
        // content; check sample-wise on a Gaussian.
        let n = 32;
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(n, n, cfg);
        for r in 0..n {
            for c in 0..n {
                let dr = r as f64 - 16.0;
                let dc = c as f64 - 16.0;
                f.set(r, c, Complex64::new((-(dr * dr + dc * dc) / 30.0).exp(), 0.0));
            }
        }
        let mut p = Propagator::new();
        let fwd = p.propagate(&f, 0.002);
        let back = p.propagate(&fwd, -0.002);
        for (a, b) in back.samples().iter().zip(f.samples()) {
            assert!((*a - *b).norm() < 0.05);
        }
    }

    #[test]
    fn transfer_functions_are_cached() {
        let f = point_source(16);
        let mut p = Propagator::new();
        p.propagate(&f, 0.001);
        p.propagate(&f, 0.001);
        assert_eq!(p.cached_transfer_count(), 1);
        p.propagate(&f, 0.002);
        assert_eq!(p.cached_transfer_count(), 2);
    }

    #[test]
    fn context_propagators_share_caches() {
        let ctx = ExecutionContext::serial();
        let f = point_source(16);
        let mut a = Propagator::with_context(&ctx);
        let mut b = Propagator::with_context(&ctx);
        a.propagate(&f, 0.001);
        assert_eq!(b.cached_transfer_count(), 1);
        b.propagate(&f, 0.001); // hit in the shared cache, not a rebuild
        assert_eq!(a.cached_transfer_count(), 1);
        // A different context gets its own caches.
        let other = Propagator::with_context(&ExecutionContext::serial());
        assert_eq!(other.cached_transfer_count(), 0);
    }

    #[test]
    fn clones_share_the_transfer_cache() {
        let f = point_source(16);
        let mut a = Propagator::new();
        let mut b = a.clone();
        a.propagate(&f, 0.001);
        assert_eq!(b.cached_transfer_count(), 1);
        b.propagate(&f, 0.001); // hit, not a rebuild
        assert_eq!(a.cached_transfer_count(), 1);
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let f = point_source(24);
        let zs = [0.001, 0.0, -0.002, 0.003, 0.001];
        let serial: Vec<Field> = {
            let mut p = Propagator::new();
            zs.iter().map(|&z| p.propagate(&f, z)).collect()
        };
        for workers in [1usize, 2, 7] {
            let mut p = Propagator::with_parallelism(Parallelism::new(workers));
            let batch = p.propagate_batch(&f, &zs);
            assert_eq!(batch.len(), serial.len());
            for (i, (a, b)) in batch.iter().zip(&serial).enumerate() {
                assert_eq!(a.samples(), b.samples(), "plane {i} workers {workers}");
            }
            assert_eq!(p.cached_transfer_count(), 3, "0.001 and -0.002 and 0.003");
        }
    }

    #[test]
    fn propagate_planes_handles_mixed_shapes() {
        let small = point_source(8);
        let large = point_source(16);
        let fields = vec![small.clone(), large.clone(), small.clone()];
        let zs = [0.001, 0.002, 0.0];
        let mut p = Propagator::with_parallelism(Parallelism::new(2));
        let out = p.propagate_planes(&fields, &zs);
        let mut serial = Propagator::new();
        assert_eq!(out[0].samples(), serial.propagate(&small, 0.001).samples());
        assert_eq!(out[1].samples(), serial.propagate(&large, 0.002).samples());
        assert_eq!(out[2].samples(), small.samples());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_distance_panics() {
        Propagator::new().propagate(&point_source(8), f64::NAN);
    }

    fn gaussian(n: usize) -> Field {
        let cfg = OpticalConfig::default();
        let mut f = Field::zeros(n, n, cfg);
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
    fn f32_precision_tracks_f64_within_tolerance() {
        let f = gaussian(32);
        let mut wide = Propagator::new();
        let mut narrow = wide.with_precision(Precision::F32);
        assert_eq!(narrow.precision(), Precision::F32);
        let a = wide.propagate(&f, 0.002);
        let b = narrow.propagate(&f, 0.002);
        let scale = f.total_energy().sqrt().max(1.0);
        for (x, y) in a.samples().iter().zip(b.samples()) {
            assert!((*x - *y).norm() < 1e-3 * scale, "{x} vs {y}");
        }
        // Precision is a compute policy, not a physics change: energy still
        // approximately conserved through the narrow path.
        assert!((a.total_energy() - b.total_energy()).abs() / a.total_energy() < 1e-3);
    }

    #[test]
    fn context_precision_reaches_the_propagator() {
        let ctx = holoar_fft::ExecutionContext::builder().precision(Precision::F32).build();
        let p = Propagator::with_context(&ctx);
        assert_eq!(p.precision(), Precision::F32);
        assert_eq!(Propagator::new().precision(), Precision::F64);
    }

    #[test]
    fn f32_batches_are_bit_identical_across_worker_counts() {
        let f = gaussian(24);
        let zs = [0.001, 0.0, -0.002, 0.003];
        let serial: Vec<Field> = {
            let mut p = Propagator::new().with_precision(Precision::F32);
            zs.iter().map(|&z| p.propagate(&f, z)).collect()
        };
        for workers in [2usize, 7] {
            let mut p = Propagator::with_parallelism(Parallelism::new(workers))
                .with_precision(Precision::F32);
            let batch = p.propagate_batch(&f, &zs);
            for (i, (a, b)) in batch.iter().zip(&serial).enumerate() {
                assert_eq!(a.samples(), b.samples(), "plane {i} workers {workers}");
            }
        }
    }

    #[test]
    fn f32_transfer_tables_narrow_the_cached_f64_tables() {
        let f = gaussian(16);
        let mut p = Propagator::new().with_precision(Precision::F32);
        p.propagate(&f, 0.001);
        // The narrow path warms the wide cache too (tables are narrowed,
        // not rebuilt), so the shared count reflects one distance.
        assert_eq!(p.cached_transfer_count(), 1);
        let mut wide = p.with_precision(Precision::F64);
        wide.propagate(&f, 0.001); // hit, not a rebuild
        assert_eq!(p.cached_transfer_count(), 1);
    }

    #[test]
    fn dc_component_phase_advances_with_z() {
        // A constant field is pure DC: propagation multiplies by e^{ikz}.
        let n = 8;
        let cfg = OpticalConfig::default();
        let f = Field::from_amplitude(n, n, cfg, &vec![1.0; n * n]);
        let z = 1e-6;
        let out = Propagator::new().propagate(&f, z);
        let want = Complex64::cis(cfg.wavenumber() * z);
        for s in out.samples() {
            assert!((*s - want).norm() < 1e-9);
        }
    }
}
