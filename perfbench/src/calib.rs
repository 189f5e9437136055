//! Host-speed calibration.
//!
//! The cores this benchmark runs on are shared: the same work takes up to
//! ±25% longer from one second to the next and drifts by 20–40% over
//! minutes, and fixed work slows down with it. So every run also times a
//! fixed kernel of the benchmark's own, interleaved with the operations,
//! and reports times scaled to a host on which that kernel takes
//! [`REFERENCE_MS`]:
//!
//! `scaled time = host time × REFERENCE_MS / (median kernel time of the run)`.
//!
//! What slows down depends on the work. Other tenants share the host's
//! last-level cache and memory bandwidth, and its cores' floating-point
//! units (hyperthread siblings). On the reference host, random accesses into
//! a 2 MiB buffer and vectorised complex arithmetic on an L1-resident array
//! each varied by up to ±25%, but not together, and every workload followed
//! a mix of the two. So the kernel runs both parts back to back. Scaling by
//! either part alone did better on some workloads and worse on others;
//! scaling by the sum was never the worst and usually the best.
//!
//! The kernel uses none of the program's code, so a change to the program
//! moves the scaled times exactly as it moves the host times. Its buffers
//! are read once before each timed call, so the kernel's time does not
//! depend on how much of the cache the preceding operation evicted.

use std::hint::black_box;

/// Median kernel time on the reference host (2-vCPU Intel Xeon VM), ms.
pub const REFERENCE_MS: f64 = 0.55;

/// Host time of operations per sample: long operations are followed by
/// several samples, so the kernel samples the whole run about evenly
/// (about 4% of it).
const SPACING_MS: f64 = 15.0;

/// Words in the memory part's small buffer (32 KiB).
const SMALL_WORDS: usize = 1 << 12;
/// Words in the memory part's large buffer (2 MiB: beyond a core's L2).
const LARGE_WORDS: usize = 1 << 18;
/// Memory part iterations.
const MEMORY_ITERATIONS: u32 = 20_000;

/// Complex values in the compute part's array (8 KiB).
const COMPUTE_LEN: usize = 512;
/// Rotations of the whole array per call.
const COMPUTE_ROUNDS: u32 = 300;
/// Register-only iterations per call.
const SCALAR_ITERATIONS: u32 = 20_000;

/// Interleaved timings of the calibration kernel.
pub struct Calibration {
    small: Vec<u64>,
    large: Vec<u64>,
    re: Vec<f64>,
    im: Vec<f64>,
    samples_ms: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        let words = |n: usize| (0..n as u64).map(crate::stats::splitmix).collect();
        // Values in [-1, 1) from the top 53 bits of a hash.
        let values = |from: u64| {
            (from..from + COMPUTE_LEN as u64)
                .map(|k| (crate::stats::splitmix(k) >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
                .collect()
        };
        Calibration {
            small: words(SMALL_WORDS),
            large: words(LARGE_WORDS),
            re: values(0),
            im: values(COMPUTE_LEN as u64),
            samples_ms: Vec::new(),
        }
    }
}

impl Calibration {
    /// Times one kernel call.
    pub fn sample(&mut self) {
        let touch = |b: &[u64]| b.iter().fold(0u64, |a, &w| a ^ w);
        black_box(touch(&self.small) ^ touch(&self.large));
        black_box(self.re.iter().chain(&self.im).sum::<f64>());
        let start = holoar_telemetry::now_ns();
        black_box(memory_part(&mut self.small, &mut self.large));
        black_box(compute_part(&mut self.re, &mut self.im));
        let ns = holoar_telemetry::now_ns().saturating_sub(start);
        self.samples_ms.push(ns as f64 / 1e6);
    }

    /// Samples after an operation that took `op_ns` of host time: once per
    /// [`SPACING_MS`] of it, at least once.
    pub fn after_op(&mut self, op_ns: u64) {
        let n = (op_ns as f64 / 1e6 / SPACING_MS).round().max(1.0) as usize;
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median kernel time over the samples so far, ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::percentile(&self.samples_ms, 0.5)
    }

    /// Factor that scales this run's host times to the reference host.
    pub fn scale(&self) -> f64 {
        let median = self.median_ms();
        if median > 0.0 {
            REFERENCE_MS / median
        } else {
            1.0
        }
    }

    /// Samples so far.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Resident size of the kernel's buffers, MB: they are allocated and
    /// written in full when the calibration is made and stay resident.
    pub fn resident_mb(&self) -> f64 {
        let words = self.small.len() + self.large.len() + self.re.len() + self.im.len();
        (words * 8) as f64 / 1048576.0
    }
}

/// Integer hashing, data-dependent branches and floating-point chains on
/// `small`, and a random read-modify-write into `large` per iteration.
fn memory_part(small: &mut [u64], large: &mut [u64]) -> u64 {
    let (small_mask, large_mask) = (small.len() - 1, large.len() - 1);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    let (mut re, mut im) = (1.0f64, 0.5f64);
    for _ in 0..MEMORY_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & small_mask;
        acc = acc.wrapping_add(small[k]);
        small[k] = acc.rotate_left(7) ^ x;
        let j = ((x >> 20) as usize) & large_mask;
        large[j] ^= acc;
        if acc & 1 == 0 {
            (re, im) = (re * 0.999_9 - im * 0.001, re * 0.001 + im * 0.999_9);
        } else {
            re = (re * re + 1.0).sqrt();
        }
    }
    acc ^ re.to_bits() ^ im.to_bits()
}

/// Rotates every complex value of (`re`, `im`) by a fixed small angle,
/// [`COMPUTE_ROUNDS`] times (vectorisable, like an FFT butterfly; the small
/// offset keeps the values from settling into denormals), then runs a
/// register-only hash-and-branch loop.
fn compute_part(re: &mut [f64], im: &mut [f64]) -> u64 {
    let (c, s) = (0.999_95f64, 0.009_999_8f64);
    for _ in 0..COMPUTE_ROUNDS {
        for (a, b) in re.iter_mut().zip(im.iter_mut()) {
            (*a, *b) = (*a * c - *b * s + 1e-9, *a * s + *b * c);
        }
    }
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut f = re[0] + im[COMPUTE_LEN - 1];
    for _ in 0..SCALAR_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 0 {
            f = f * 1.000_000_1 + 0.5;
        } else {
            f = f.abs().sqrt() + 1.0;
        }
    }
    x ^ f.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_median() {
        let mut cal = Calibration::default();
        assert_eq!(cal.scale(), 1.0);
        cal.samples_ms = vec![1.0, 0.25, 2.0];
        assert_eq!(cal.scale(), REFERENCE_MS / 1.0);
    }

    #[test]
    fn long_operations_get_proportionally_more_samples() {
        let mut cal = Calibration::default();
        cal.after_op(1_000_000);
        assert_eq!(cal.samples(), 1);
        cal.after_op((10.0 * SPACING_MS * 1e6) as u64);
        assert_eq!(cal.samples(), 11);
    }
}
