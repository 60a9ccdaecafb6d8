//! Per-layer accounting of a traced run.
//!
//! The traced run wraps each call into a layer's public function in a
//! span named after the call (`kernels.cstat`, `serve.acquire`, ...).
//! A call's self time is its span minus its child spans; allocations
//! likewise come from the spans' `alloc.count` counters, which
//! `nmt-obs` attaches while allocation counting is on.

use std::collections::BTreeMap;

use nmt_obs::SpanRecord;
use nmt_sim::KernelStats;

/// Every call the per-layer metrics name, in report order. Each gets
/// `<call>.ms`, `<call>.calls` and `<call>.allocs`.
pub const CALLS: [&str; 18] = [
    "matgen.generate",
    "matgen.dense",
    "model.plan",
    "model.traffic",
    "formats.to_csc",
    "formats.dcsr",
    "formats.artifact",
    "sim.gpu_new",
    "kernels.baseline",
    "kernels.cstat",
    "kernels.bstat_online",
    "kernels.offline",
    "engine.farm",
    "core.fingerprint",
    "serve.acquire",
    "mem.recycle",
    "core.other",
    "serve.other",
];

/// Kernels whose simulated counts are reported as `sim.<kernel>.*`.
pub const KERNELS: [&str; 4] = ["baseline", "cstat", "bstat_online", "offline"];

/// Self time and allocations summed over every call of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTotals {
    pub self_ns: f64,
    pub calls: u64,
    pub allocs: f64,
}

/// Simulated work summed over every run of one kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub runs: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub warp_slots: u64,
    pub dram_bytes: u64,
}

impl SimTotals {
    pub fn add(&mut self, stats: &KernelStats) {
        self.runs += 1;
        self.l2_hits += stats.l2_hits;
        self.l2_misses += stats.l2_misses;
        self.warp_slots += stats.warp_exec.total_slots();
        self.dram_bytes += stats.dram_traffic.total();
    }

    fn lines(&self) -> u64 {
        self.l2_hits + self.l2_misses
    }
}

/// Accumulated per-layer figures of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub calls: BTreeMap<&'static str, CallTotals>,
    pub sim: BTreeMap<&'static str, SimTotals>,
    /// Elements the standalone farm calls converted.
    pub farm_elements: u64,
    /// Ops the per-op figures are divided by.
    pub ops: u64,
    /// Calls made once per input rather than once per op (generation in
    /// the audit set-up), with the input count they are divided by.
    pub per_input: BTreeMap<&'static str, u64>,
    /// Traced thread time the ops cover (op spans, or workers × the
    /// replay's wall time for serve); the layers plus `*.other` add up
    /// to it.
    pub traced_ns: f64,
    /// Structural faults in the spans (a child outside its parent, a
    /// negative self time). Reported as failed checks.
    pub problems: Vec<String>,
}

fn alloc_count(span: &SpanRecord) -> f64 {
    span.counters
        .iter()
        .find(|(k, _)| k == "alloc.count")
        .map_or(0.0, |(_, v)| *v)
}

/// Map a span name to the call it measures (`None` for structural spans).
fn call_of(name: &str) -> Option<&'static str> {
    CALLS.iter().copied().find(|c| *c == name)
}

impl Layers {
    /// Fold one batch of spans in: every span named after a call adds its
    /// self time and self allocations to that call.
    pub fn add_spans(&mut self, spans: &[SpanRecord]) {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let mut child_allocs: BTreeMap<u64, f64> = BTreeMap::new();
        let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    self.problems.push(format!(
                        "span {} lies outside its parent {}",
                        s.name, p.name
                    ));
                }
                *child_ns.entry(p.id).or_default() += s.duration_ns();
                *child_allocs.entry(p.id).or_default() += alloc_count(s);
            }
        }
        for s in spans {
            let Some(call) = call_of(&s.name) else {
                continue;
            };
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            if children > s.duration_ns() {
                self.problems
                    .push(format!("children of {} outlast it", s.name));
            }
            let t = self.calls.entry(call).or_default();
            t.self_ns += s.duration_ns() as f64 - children as f64;
            t.calls += 1;
            t.allocs += alloc_count(s) - child_allocs.get(&s.id).copied().unwrap_or(0.0);
        }
    }

    /// Take the time and allocations of the `part` spans out of `from`'s
    /// self time: `from` ran that work inside itself, and the `part` spans
    /// measured it on its own (the farm inside the online kernel).
    pub fn carve(&mut self, from: &'static str, part: &str, spans: &[SpanRecord]) {
        let parts = spans.iter().filter(|s| s.name == part);
        let ns: f64 = parts.clone().map(|s| s.duration_ns() as f64).sum();
        let allocs: f64 = parts.map(alloc_count).sum();
        let t = self.calls.entry(from).or_default();
        t.self_ns -= ns;
        t.allocs -= allocs;
        if t.self_ns < 0.0 {
            self.problems
                .push(format!("{from} self time went negative after carving"));
        }
    }

    /// Charge the part of the traced time no named call explains to
    /// `other` (`core.other` or `serve.other`), once `traced_ns` is final.
    pub fn close(&mut self, other: &'static str, other_calls: u64) {
        let named: f64 = self
            .calls
            .iter()
            .filter(|(k, _)| **k != other)
            .map(|(_, t)| t.self_ns)
            .sum();
        let t = self.calls.entry(other).or_default();
        t.self_ns = self.traced_ns - named;
        t.calls = other_calls;
    }

    /// Share of the traced time that named layer calls explain.
    pub fn coverage(&self, other: &str) -> f64 {
        let named: f64 = self
            .calls
            .iter()
            .filter(|(k, _)| **k != other)
            .map(|(_, t)| t.self_ns)
            .sum();
        named / self.traced_ns.max(1.0)
    }

    /// Self time of every call whose name starts with `prefix`, as a share
    /// of the traced time.
    pub fn share(&self, prefix: &str) -> f64 {
        let ns: f64 = self
            .calls
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum();
        ns / self.traced_ns.max(1.0)
    }

    /// The per-call and simulated-count metrics, per op, for every name in
    /// [`CALLS`] and [`KERNELS`] (0 where this workload makes no call).
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        for call in CALLS {
            let ops = self.per_input.get(call).copied().unwrap_or(self.ops).max(1) as f64;
            let t = self.calls.get(call).copied().unwrap_or_default();
            out.push((format!("{call}.ms"), t.self_ns / 1e6 / ops, "ms"));
            out.push((format!("{call}.calls"), t.calls as f64 / ops, "count"));
            let allocs = if t.calls == 0 {
                0.0
            } else {
                t.allocs / t.calls as f64
            };
            out.push((format!("{call}.allocs"), allocs, "count"));
        }
        for k in KERNELS {
            let s = self.sim.get(k).copied().unwrap_or_default();
            let runs = s.runs.max(1) as f64;
            let kernel_ns = self
                .calls
                .get(format!("kernels.{k}").as_str())
                .map_or(0.0, |t| t.self_ns);
            let lines = s.lines();
            out.push((format!("sim.{k}.lines"), lines as f64 / runs, "count"));
            let per_line = if lines == 0 {
                0.0
            } else {
                kernel_ns / lines as f64
            };
            out.push((format!("sim.{k}.ns_per_line"), per_line, "ns"));
            let hit = if lines == 0 {
                0.0
            } else {
                s.l2_hits as f64 / lines as f64
            };
            out.push((format!("sim.{k}.l2_hit_ratio"), hit, "fraction"));
            out.push((
                format!("sim.{k}.warp_slots"),
                s.warp_slots as f64 / runs,
                "count",
            ));
            out.push((
                format!("sim.{k}.dram_bytes"),
                s.dram_bytes as f64 / runs,
                "bytes",
            ));
        }
        let farm = self.calls.get("engine.farm").copied().unwrap_or_default();
        let farm_calls = farm.calls.max(1) as f64;
        out.push((
            "engine.farm.elements".into(),
            self.farm_elements as f64 / farm_calls,
            "count",
        ));
        let per_element = if self.farm_elements == 0 {
            0.0
        } else {
            farm.self_ns / self.farm_elements as f64
        };
        out.push(("engine.farm.ns_per_element".into(), per_element, "ns"));
        out
    }
}

/// Render the per-layer table: self time per op, its share, calls per op
/// and allocations per call.
pub fn table(layers: &Layers) -> String {
    let mut out = format!(
        "{:<22} {:>12} {:>7} {:>10} {:>12}\n",
        "call", "ms/op", "share", "calls/op", "allocs/call"
    );
    for call in CALLS {
        let Some(t) = layers.calls.get(call) else {
            continue;
        };
        let ops = layers
            .per_input
            .get(call)
            .copied()
            .unwrap_or(layers.ops)
            .max(1) as f64;
        let allocs = if t.calls == 0 {
            0.0
        } else {
            t.allocs / t.calls as f64
        };
        out.push_str(&format!(
            "{:<22} {:>12.4} {:>6.1}% {:>10.3} {:>12.1}\n",
            call,
            t.self_ns / 1e6 / ops,
            100.0 * t.self_ns / layers.traced_ns.max(1.0),
            t.calls as f64 / ops,
            allocs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            tid: 1,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_excludes_children_and_other_takes_the_rest() {
        let spans = vec![
            span(2, Some(1), "serve.acquire", 10, 60),
            span(3, Some(2), "model.plan", 20, 40),
            span(1, None, "serve.request", 0, 100),
        ];
        let mut l = Layers::default();
        l.add_spans(&spans);
        l.ops = 1;
        l.traced_ns = 100.0;
        l.close("serve.other", 1);
        assert_eq!(l.calls["serve.acquire"].self_ns, 30.0);
        assert_eq!(l.calls["model.plan"].self_ns, 20.0);
        assert_eq!(l.calls["serve.other"].self_ns, 50.0);
        assert!((l.coverage("serve.other") - 0.5).abs() < 1e-12);
        assert!(l.problems.is_empty());
    }

    #[test]
    fn every_named_metric_is_reported() {
        let m = Layers::default().metrics();
        assert_eq!(m.len(), CALLS.len() * 3 + KERNELS.len() * 5 + 2);
    }
}
