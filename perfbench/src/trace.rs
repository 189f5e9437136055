//! Per-layer attribution of traced operations.
//!
//! Every operation runs under one root span ([`ROOT_SPAN`]) on the
//! benchmark's thread. Spans on that thread nest strictly, so their self
//! times (duration minus direct children, from
//! [`holoar_telemetry::SpanTreeAnalysis`]) partition the root's duration
//! exactly. Each span is charged to one layer by name ([`layer_of`]); the
//! root's own self time plus any wall time outside the root is
//! *unattributed* (benchmark glue and program code between spans). Spans on
//! pool worker threads have no parent on the benchmark thread: their time is
//! already inside the `fft.par.*` fan-out span that waited for them, so it
//! is reported separately as worker time and never added to the partition.

use std::collections::BTreeMap;

use holoar_telemetry::metrics::Metric;
use holoar_telemetry::span::EXTERNAL_TID_BASE;
use holoar_telemetry::{SpanRecord, SpanTreeAnalysis};

/// Root span the benchmark opens around every operation.
pub const ROOT_SPAN: &str = "bench.op";

/// Layers whose self time is reported, in output order. Together with the
/// unattributed time they partition each traced operation's wall time.
pub const LAYERS: &[&str] = &[
    "sensors",
    "core.plan",
    "core.quality",
    "core.degrade",
    "core",
    "gpusim",
    "optics",
    "fft",
    "fft.par",
    "pipeline",
    "faults",
    "serve.tick",
    "serve.quality.sample",
    "serve",
    "fleet",
    "other",
];

/// Span-name prefix → layer, most specific first. Benchmark-side spans
/// (`<layer>.bench.*`) land in the layer they call into.
const LAYER_RULES: &[(&str, &str)] = &[
    ("fft.par.", "fft.par"),
    ("fft.", "fft"),
    ("optics.", "optics"),
    ("core.planner.", "core.plan"),
    ("core.bench.plan_frame", "core.plan"),
    ("core.quality.", "core.quality"),
    ("core.bench.object_psnr", "core.quality"),
    ("core.degrade.", "core.degrade"),
    // Device pricing of one hologram job on the simulated GPU.
    ("core.executor.hologram_job", "gpusim"),
    ("core.", "core"),
    ("serve.tick", "serve.tick"),
    ("serve.quality.sample", "serve.quality.sample"),
    ("serve.", "serve"),
    ("pipeline.", "pipeline"),
    ("fleet.", "fleet"),
    ("faults.", "faults"),
    ("sensors.", "sensors"),
];

/// The layer a span's self time is charged to; `None` for the root.
pub fn layer_of(name: &str) -> Option<&'static str> {
    if name == ROOT_SPAN {
        return None;
    }
    Some(
        LAYER_RULES
            .iter()
            .find(|(prefix, _)| name.starts_with(prefix))
            .map_or("other", |r| r.1),
    )
}

/// Takes (and clears) every span and counter recorded since the last call.
pub fn capture() -> (Vec<SpanRecord>, Vec<(String, u64)>) {
    let spans = holoar_telemetry::span_snapshot();
    let counters = holoar_telemetry::collector::with_registry(|r| {
        r.iter()
            .filter_map(|(name, metric)| match metric {
                Metric::Counter(v) => Some((name.to_string(), *v)),
                _ => None,
            })
            .collect()
    });
    holoar_telemetry::reset();
    (spans, counters)
}

/// Trace aggregates over a sequence of operations.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    /// Operations folded in.
    pub ops: u64,
    /// Summed operation wall time on the benchmark's clock, ns.
    pub wall_ns: u64,
    /// Self time per layer on the benchmark thread, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self time per layer on pool worker threads, ns (overlaps `fft.par`).
    pub worker_ns: BTreeMap<&'static str, u64>,
    /// Wall time not inside any layer span, ns.
    pub unattributed_ns: u64,
    /// Summed amount by which benchmark-thread self times fail to add up to
    /// the root span's duration, ns (0 for a well-formed trace).
    pub partition_error_ns: u64,
    /// Operations whose trace had no root span or a root longer than the
    /// operation's wall time.
    pub malformed_ops: u64,
    /// Completed spans per name, all threads.
    pub span_counts: BTreeMap<String, u64>,
    /// Program counters, summed.
    pub counters: BTreeMap<String, u64>,
}

impl TraceTotals {
    /// Adds span counts and counters only (for traced code outside any
    /// operation, such as set-up).
    pub fn add_counts(&mut self, spans: &[SpanRecord], counters: &[(String, u64)]) {
        for (name, v) in counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for s in spans {
            *self.span_counts.entry(s.name.to_string()).or_default() += 1;
        }
    }

    /// Folds one traced operation.
    pub fn add_op(&mut self, spans: &[SpanRecord], counters: &[(String, u64)], wall_ns: u64) {
        self.ops += 1;
        self.wall_ns += wall_ns;
        self.add_counts(spans, counters);
        let Some(root) = spans
            .iter()
            .find(|s| s.name == ROOT_SPAN && s.parent.is_none())
        else {
            self.malformed_ops += 1;
            self.unattributed_ns += wall_ns;
            return;
        };
        if root.dur_ns > wall_ns {
            self.malformed_ops += 1;
        }
        let tree = SpanTreeAnalysis::new(spans);
        let mut attributed = 0u64;
        let mut main_self_total = 0u64;
        for s in spans.iter().filter(|s| s.tid < EXTERNAL_TID_BASE) {
            let own = tree.self_ns(s.id);
            if s.tid != root.tid {
                if let Some(layer) = layer_of(&s.name) {
                    *self.worker_ns.entry(layer).or_default() += own;
                }
                continue;
            }
            main_self_total += own;
            if let Some(layer) = layer_of(&s.name) {
                *self.self_ns.entry(layer).or_default() += own;
                attributed += own;
            }
        }
        self.partition_error_ns += main_self_total.abs_diff(root.dur_ns);
        self.unattributed_ns += wall_ns.saturating_sub(attributed);
    }

    /// Completed spans named `name` (all threads).
    pub fn spans(&self, name: &str) -> u64 {
        self.span_counts.get(name).copied().unwrap_or(0)
    }

    /// The summed counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mean self time per operation of `layer` on the benchmark thread, ms.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        per_op_ms(self.self_ns.get(layer).copied().unwrap_or(0), self.ops)
    }

    /// Mean worker-thread self time per operation of `layer`, ms.
    pub fn worker_ms(&self, layer: &str) -> f64 {
        per_op_ms(self.worker_ns.get(layer).copied().unwrap_or(0), self.ops)
    }

    /// Mean unattributed time per operation, ms.
    pub fn unattributed_ms(&self) -> f64 {
        per_op_ms(self.unattributed_ns, self.ops)
    }

    /// Whether the layer self times plus unattributed time add up to the
    /// summed wall time (within 1 µs per operation) with no malformed
    /// operation.
    pub fn adds_up(&self) -> bool {
        let attributed: u64 = self.self_ns.values().sum();
        let total = attributed + self.unattributed_ns;
        self.malformed_ops == 0
            && self.partition_error_ns <= 1_000 * self.ops
            && total.abs_diff(self.wall_ns) <= 1_000 * self.ops
    }
}

fn per_op_ms(ns: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        ns as f64 / 1e6 / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(
        id: u32,
        parent: Option<u32>,
        tid: u32,
        name: &'static str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            cat: "test",
            tid,
            id,
            parent,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn layers_partition_the_root_and_workers_stay_aside() {
        let spans = vec![
            span(1, None, 1, ROOT_SPAN, 0, 100),
            span(2, Some(1), 1, "optics.propagate_planes", 5, 60),
            span(3, Some(2), 1, "fft.par.map", 10, 50),
            span(4, None, 2, "fft.fft2d.inverse", 12, 40),
            span(5, Some(1), 1, "core.planner.plan_frame", 70, 20),
        ];
        let mut t = TraceTotals::default();
        t.add_op(&spans, &[("x.y".into(), 3)], 110);
        assert_eq!(t.self_ns["optics"], 10);
        assert_eq!(t.self_ns["fft.par"], 50);
        assert_eq!(t.self_ns["core.plan"], 20);
        assert_eq!(t.worker_ns["fft"], 40);
        assert_eq!(t.unattributed_ns, 110 - 80);
        assert_eq!(t.partition_error_ns, 0);
        assert!(t.adds_up());
        assert_eq!(t.spans("fft.fft2d.inverse"), 1);
        assert_eq!(t.counter("x.y"), 3);
    }

    #[test]
    fn every_named_layer_is_reported() {
        for (_, layer) in LAYER_RULES {
            assert!(LAYERS.contains(layer), "{layer} missing from LAYERS");
        }
        assert_eq!(layer_of("slo.unknown"), Some("other"));
        assert_eq!(layer_of(ROOT_SPAN), None);
    }
}
