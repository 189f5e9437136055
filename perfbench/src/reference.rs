//! Reference outputs recorded from the program, and the tolerances the
//! output checks compare against them.
//!
//! Both tables live under `perfbench/reference/` and are compiled into the
//! binary. `--record-reference DIR` regenerates them; a change that alters
//! what the program computes (not just how fast) must re-record them and
//! say why.

use std::collections::BTreeMap;

use holoar_fft::Complex64;

use crate::stats::splitmix;

/// Relative tolerance on hologram fingerprints. Reordering floating-point
/// sums (e.g. accumulating layers in the Fourier domain) moves an `f64`
/// hologram by ~1e-14 relative and passes; computing anything different
/// does not.
pub const HOLOGRAM_RTOL: f64 = 1e-8;

/// Absolute tolerance on an object's PSNR, dB.
pub const PSNR_TOL_DB: f64 = 0.01;

/// Hologram reference table, `(virtual object, depth bin, planes)` keyed.
pub const HOLO_TABLE: &str = include_str!("../reference/holo_stream.tsv");

/// Quality-sweep input pool with the PSNR recorded for each entry.
pub const QUALITY_TABLE: &str = include_str!("../reference/quality_sweep.tsv");

/// A compact summary of a complex field: its energy and its projection onto
/// a fixed pseudo-random `±1 ± i` pattern (sensitive to where the energy
/// sits, not just how much there is).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Σ |h|².
    pub energy: f64,
    /// Re Σ h·w.
    pub proj_re: f64,
    /// Im Σ h·w.
    pub proj_im: f64,
}

/// The fingerprint of `samples`, or `None` if any sample is not finite.
pub fn fingerprint(samples: &[Complex64]) -> Option<Fingerprint> {
    let mut fp = Fingerprint {
        energy: 0.0,
        proj_re: 0.0,
        proj_im: 0.0,
    };
    for (i, h) in samples.iter().enumerate() {
        if !(h.re.is_finite() && h.im.is_finite()) {
            return None;
        }
        let bits = splitmix(i as u64);
        let wr = if bits & 1 == 0 { 1.0 } else { -1.0 };
        let wi = if bits & 2 == 0 { 1.0 } else { -1.0 };
        fp.energy += h.re * h.re + h.im * h.im;
        fp.proj_re += h.re * wr - h.im * wi;
        fp.proj_im += h.re * wi + h.im * wr;
    }
    Some(fp)
}

/// Checks `got` against `want` for a field of `len` samples: energy within
/// [`HOLOGRAM_RTOL`] relative, projection within the same fraction of its
/// Cauchy–Schwarz bound `sqrt(2·len·energy)`.
pub fn compare(got: &Fingerprint, want: &Fingerprint, len: usize) -> Result<(), String> {
    let scale = (2.0 * len as f64 * want.energy).sqrt();
    let energy_err = (got.energy - want.energy).abs() / want.energy;
    let proj_err = (got.proj_re - want.proj_re)
        .abs()
        .max((got.proj_im - want.proj_im).abs())
        / scale;
    if energy_err <= HOLOGRAM_RTOL && proj_err <= HOLOGRAM_RTOL {
        Ok(())
    } else {
        Err(format!(
            "hologram differs from reference: energy rel err {energy_err:.3e}, \
             projection rel err {proj_err:.3e} (tolerance {HOLOGRAM_RTOL:e})"
        ))
    }
}

/// Hologram reference key: (virtual object index, depth bin, planes).
pub type HoloKey = (usize, usize, u32);

fn fields(line: &str) -> Option<Vec<&str>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        None
    } else {
        Some(line.split('\t').collect())
    }
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("bad {what} {s:?} in reference table"))
}

/// Parses the hologram reference table.
pub fn parse_holo(text: &str) -> Result<BTreeMap<HoloKey, Fingerprint>, String> {
    let mut table = BTreeMap::new();
    for f in text.lines().filter_map(fields) {
        let [vobj, bin, planes, energy, re, im] = f[..] else {
            return Err(format!(
                "hologram reference row has {} fields, want 6",
                f.len()
            ));
        };
        table.insert(
            (
                num(vobj, "object")?,
                num(bin, "depth bin")?,
                num(planes, "planes")?,
            ),
            Fingerprint {
                energy: num(energy, "energy")?,
                proj_re: num(re, "projection")?,
                proj_im: num(im, "projection")?,
            },
        );
    }
    Ok(table)
}

/// One quality-sweep input with its recorded PSNR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEntry {
    /// Index into `VideoCategory::ALL` of the video it was planned from.
    pub category: usize,
    /// Object track id (selects the virtual object).
    pub track_id: u64,
    /// Planned plane budget (below the full budget).
    pub planes: u32,
    /// Camera-to-object distance, metres.
    pub distance: f64,
    /// Object depth extent, metres.
    pub size: f64,
    /// Recorded PSNR against the full-budget baseline, dB.
    pub psnr_db: f64,
}

/// Parses the quality-sweep pool.
pub fn parse_pool(text: &str) -> Result<Vec<PoolEntry>, String> {
    text.lines()
        .filter_map(fields)
        .map(|f| {
            let [category, track, planes, distance, size, psnr] = f[..] else {
                return Err(format!(
                    "quality reference row has {} fields, want 6",
                    f.len()
                ));
            };
            Ok(PoolEntry {
                category: num(category, "category")?,
                track_id: num(track, "track")?,
                planes: num(planes, "planes")?,
                distance: num(distance, "distance")?,
                size: num(size, "size")?,
                psnr_db: num(psnr, "psnr")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tolerates_rounding_but_not_change() {
        let field: Vec<Complex64> = (0..64)
            .map(|i| Complex64 {
                re: f64::from(i) * 0.5,
                im: 1.0 - f64::from(i) * 0.1,
            })
            .collect();
        let want = fingerprint(&field).unwrap();
        let nudged: Vec<Complex64> = field
            .iter()
            .map(|c| Complex64 {
                re: c.re * (1.0 + 1e-14),
                im: c.im,
            })
            .collect();
        assert!(compare(&fingerprint(&nudged).unwrap(), &want, 64).is_ok());
        let mut moved = field.clone();
        moved.swap(3, 40);
        assert!(compare(&fingerprint(&moved).unwrap(), &want, 64).is_err());
        let mut bad = field;
        bad[5].im = f64::NAN;
        assert!(fingerprint(&bad).is_none());
    }

    #[test]
    fn tables_parse() {
        assert!(!parse_holo(HOLO_TABLE).unwrap().is_empty());
        assert!(!parse_pool(QUALITY_TABLE).unwrap().is_empty());
    }
}
