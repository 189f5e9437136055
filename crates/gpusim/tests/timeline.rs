//! Pins the event-driven occupancy timeline bit for bit and checks its
//! structural invariants over random session mixes.
//!
//! The golden values are `to_bits()` of the makespan and the mean
//! occupancy, the occupancy sample count, and an FNV-1a digest of every
//! span's `(start, end)` bits in span order. They were recorded from the
//! original per-block rescanning simulator, so any change to the block
//! grant order, the retirement tolerance or the span order fails here.

use holoar_gpusim::hologram_kernels::HologramJob;
use holoar_gpusim::timeline::{plane_stream_ops, session_stream_ops, simulate, StreamOp, Timeline};
use holoar_gpusim::{DeviceConfig, DeviceSpec};
use proptest::prelude::*;

/// `(makespan bits, mean occupancy bits, occupancy samples, span digest)`.
type Pin = (u64, u64, usize, u64);

fn pin(t: &Timeline) -> Pin {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for span in &t.spans {
        for bits in [span.start.to_bits(), span.end.to_bits()] {
            for byte in bits.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (t.makespan.to_bits(), t.mean_occupancy().to_bits(), t.occupancy.len(), digest)
}

fn serialized(ops: Vec<StreamOp>) -> Vec<StreamOp> {
    ops.into_iter().map(|op| StreamOp { stream: 0, ..op }).collect()
}

/// A fixed 24-session serving mix: a spread of plane counts (including idle
/// sessions), coverages and GSW iteration counts at the serving resolution.
fn session_mix() -> Vec<HologramJob> {
    (0..24u32)
        .map(|s| HologramJob {
            pixels: 64 * 64,
            plane_count: (s * 7) % 11,
            coverage: 0.2 + 0.8 * f64::from((s * 5) % 9) / 8.0,
            gsw_iterations: 1 + s % 5,
        })
        .collect()
}

#[test]
fn plane_sweeps_match_the_recorded_timeline() {
    let cfg = DeviceConfig::default();
    let expected: [(u32, Pin, Pin); 5] = [
        (
            1,
            (4553573674143600652, 4593671619917905920, 2, 2174461332513225244),
            (4553573674143600652, 4593671619917905920, 2, 2174461332513225244),
        ),
        (
            2,
            (4553573674143600652, 4598175219545276416, 2, 12531684181394397345),
            (4558077273770971148, 4593671619917905920, 4, 4309891336959881496),
        ),
        (
            4,
            (4553573674143600652, 4602678819172646912, 2, 3674609427748684493),
            (4562580873398341644, 4593671619917905920, 8, 16945630602753714312),
        ),
        (
            8,
            (4553573674143600652, 4607182418800017408, 2, 3445981407596858709),
            (4567084473025712140, 4593671619917905920, 16, 15265020058467277832),
        ),
        (
            16,
            (4558077273770971148, 4607182418800017408, 4, 6293510787319235141),
            (4571588072653082635, 4593671619917905920, 32, 1773161861524186331),
        ),
    ];
    for (planes, parallel, serial) in expected {
        let ops = plane_stream_ops(8 * 256, planes);
        assert_eq!(pin(&simulate(&ops, &cfg)), parallel, "{planes} planes, parallel streams");
        assert_eq!(pin(&simulate(&serialized(ops), &cfg)), serial, "{planes} planes, one stream");
    }
}

#[test]
fn full_resolution_sweep_matches_the_recorded_timeline() {
    let t = simulate(&plane_stream_ops(512 * 512, 16), &DeviceConfig::default());
    assert_eq!(pin(&t), (4589602471162564660, 4607182418800017408, 512, 8885290644184690309));
}

#[test]
fn serving_mix_matches_the_recorded_timeline() {
    let ops = session_stream_ops(&session_mix());
    let edge = simulate(&ops, &DeviceSpec::edge().config());
    assert_eq!(pin(&edge), (4578869325686365451, 4599016829725641274, 260, 9667151721583543774));
    // On the 8-SM part the sessions contend for block slots, so a step's
    // free slots run out mid round-robin and the grant order shows.
    let contended = simulate(&ops, &DeviceConfig::default());
    assert_eq!(pin(&contended), (4581484860915863983, 4605252194045089369, 1170, 1105465027141852906));
}

/// Device-wide block slots, as the simulator counts them.
fn total_slots(cfg: &DeviceConfig) -> u64 {
    let per_sm = (u64::from(cfg.sm.max_resident_warps) * u64::from(cfg.sm.warp_size) / 256).max(1);
    per_sm * u64::from(cfg.sm_count)
}

fn arb_job() -> impl Strategy<Value = HologramJob> {
    (prop::sample::select(vec![32u64 * 32, 64 * 64, 128 * 128]), 0u32..8, 0.05f64..1.0, 1u32..4)
        .prop_map(|(pixels, plane_count, coverage, gsw_iterations)| HologramJob {
            pixels,
            plane_count,
            coverage,
            gsw_iterations,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every op retires, a stream runs its ops one after another, the
    /// occupancy trace tiles `[0, makespan]` without gaps, and every sample
    /// is a whole number of busy block slots.
    #[test]
    fn random_mixes_keep_timeline_invariants(
        jobs in prop::collection::vec(arb_job(), 1..24),
        sm_count in prop::sample::select(vec![3u32, 8, 32]),
    ) {
        let cfg = DeviceSpec::default().sm_count(sm_count).config();
        let ops = session_stream_ops(&jobs);
        let t = simulate(&ops, &cfg);

        prop_assert_eq!(t.spans.len(), ops.len());
        for span in &t.spans {
            prop_assert!(span.end > 0.0 && span.end >= span.start, "{} never retired", span.name);
        }
        for pair in t.spans.windows(2) {
            prop_assert!(pair[0].end <= pair[1].end, "spans out of completion order");
        }

        let mut by_stream = t.spans.clone();
        by_stream.sort_by(|a, b| a.stream.cmp(&b.stream).then(a.start.total_cmp(&b.start)));
        for pair in by_stream.windows(2).filter(|p| p[0].stream == p[1].stream) {
            prop_assert!(
                pair[1].start >= pair[0].end,
                "stream {} overlaps: {} starts at {} before {} ends at {}",
                pair[0].stream, pair[1].name, pair[1].start, pair[0].name, pair[0].end
            );
        }

        if ops.is_empty() {
            prop_assert!(t.occupancy.is_empty());
            return Ok(());
        }
        prop_assert_eq!(t.occupancy[0].start, 0.0);
        prop_assert_eq!(t.occupancy[t.occupancy.len() - 1].end, t.makespan);
        for pair in t.occupancy.windows(2) {
            prop_assert!(pair[0].end == pair[1].start, "gap in the occupancy trace");
        }
        let slots = total_slots(&cfg) as f64;
        for s in &t.occupancy {
            prop_assert!(s.end > s.start);
            let busy = s.occupancy * slots;
            prop_assert!((busy - busy.round()).abs() < 1e-9, "{busy} busy slots");
            prop_assert!((1.0..=slots).contains(&busy.round()), "{busy} of {slots} slots");
        }
    }
}
