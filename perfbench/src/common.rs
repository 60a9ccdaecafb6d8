//! Pieces shared by every workload: the worker pool, order statistics,
//! digests, the seeded generator, host memory and the result line.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nmt_obs::Recorder;

/// The benchmark reads the clock only through a span recorder; one with
/// capacity 0 retains nothing and serves as a plain monotonic clock.
pub fn clock() -> Recorder {
    Recorder::with_capacity(0)
}

/// Run `op(i)` for every `i in 0..n` on `workers` threads that pull
/// indices from a shared counter, and return the results in index order.
pub fn par_map<T: Send>(workers: usize, n: usize, op: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    // ordering: work-claim counter; the scope's join
                    // publishes the results.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, op(i)));
                }
                done.lock().expect("result list poisoned").extend(local);
            });
        }
    });
    let mut done = done.into_inner().expect("result list poisoned");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p` in (0, 1] of a sample (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a 64 over a byte stream, for digests of simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over a matrix's f32 bit patterns: the serve response checksum.
pub fn checksum_f32(values: &[f32]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    h.0
}

/// SplitMix64: the benchmark's own seeded generator for serve traces.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Host memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("process status has no VmHWM line")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable line `{line}`"))?;
    Ok(kib / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted inside the measured window.
    pub attempted: u64,
    /// Ops that errored, were rejected, or failed an answer check.
    pub failed: u64,
    /// Human-readable findings of the answer checks (empty when all pass).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed check once, however often it recurs.
    pub fn problem(&mut self, p: String) {
        if !self.problems.contains(&p) {
            self.problems.push(p);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: one JSON object, every value with all its digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value cannot be written as JSON; `main`
                // has already turned it into a failed check.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn par_map_keeps_index_order() {
        let out = par_map(2, 50, |i| i * 3);
        assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn checksum_matches_fnv_of_le_bits() {
        let mut h = Fnv::new();
        h.bytes(&1.5f32.to_bits().to_le_bytes());
        assert_eq!(checksum_f32(&[1.5]), h.0);
    }
}
