//! Run timelines: `bench --history results/HISTORY.jsonl` appends one
//! [`HistoryRecord`] per instrumented run and `serve --history` one
//! [`ServeRunRow`] per replay; `nmt-cli history` renders either timeline
//! and scans every tracked bench series for change points.
//!
//! Both files are JSONL — one row per line — written by the one
//! [`append_history`] and read by the one [`load_history`], generic over
//! the row type. Appends are atomic-enough for CI: a torn final line is
//! skipped on load, not fatal, and the next append starts on a fresh
//! line so it is not glued onto the torn one. The history diffs cleanly
//! in git. Rows carry no wall-clock timestamps: ordering is the append
//! ordinal plus whatever commit id the caller passes (CI pins
//! `GITHUB_SHA`), which keeps the artifact deterministic for a fixed
//! sequence of runs.
//!
//! The change-point scan is a classic least-squares two-segment split:
//! for each series (geomean speedup, per-phase aggregate medians) it
//! finds the split that maximally reduces the summed squared deviation
//! versus a single-mean fit, and reports it when the reduction is both
//! large (score) and practically meaningful (relative mean shift). No
//! p-values — with a handful of CI runs the honest claim is "the level
//! moved here", not a significance test.

use crate::ledger::Ledger;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Aggregate per-phase wall-time for one run: per-matrix medians and CI
/// bounds from the ledger's perf section, summed over the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMedian {
    /// Phase name (`parse`/`plan`/`convert`/`kernel`/`reduce`/`other`).
    pub phase: String,
    /// Summed per-matrix phase medians, ns.
    pub median_ns: f64,
    /// Summed CI lower bounds, ns.
    pub ci_lo_ns: f64,
    /// Summed CI upper bounds, ns.
    pub ci_hi_ns: f64,
}

/// One run's row in the history file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Append ordinal within the file (0-based; assigned by
    /// [`append_history`]).
    pub run: u64,
    /// Commit id the run was built from (`unknown` outside CI).
    pub commit: String,
    /// Suite scale label.
    pub scale: String,
    /// Suite seed.
    pub seed: u64,
    /// Headline geomean speedup.
    pub geomean_speedup: f64,
    /// SSF accuracy.
    pub ssf_accuracy: f64,
    /// Per-phase aggregates (empty when the run had no `--perf` pass).
    pub phases: Vec<PhaseMedian>,
}

impl HistoryRecord {
    /// Build a record from a finished ledger. `run` is a placeholder
    /// until [`append_history`] assigns the real ordinal.
    pub fn from_ledger(ledger: &Ledger, commit: &str) -> Self {
        let mut phases: BTreeMap<String, PhaseMedian> = BTreeMap::new();
        if let Some(perf) = &ledger.perf {
            for m in &perf.matrices {
                for p in &m.phases {
                    let entry = phases
                        .entry(p.phase.clone())
                        .or_insert_with(|| PhaseMedian {
                            phase: p.phase.clone(),
                            median_ns: 0.0,
                            ci_lo_ns: 0.0,
                            ci_hi_ns: 0.0,
                        });
                    entry.median_ns += p.median_ns;
                    entry.ci_lo_ns += p.ci_lo_ns;
                    entry.ci_hi_ns += p.ci_hi_ns;
                }
            }
        }
        HistoryRecord {
            run: 0,
            commit: commit.to_string(),
            scale: ledger.scale.clone(),
            seed: ledger.seed,
            geomean_speedup: ledger.summary.geomean_speedup,
            ssf_accuracy: ledger.summary.ssf_accuracy,
            phases: phases.into_values().collect(),
        }
    }
}

/// One `nmt-cli serve` replay's row in the serve history file: the
/// small cross-run summary CI appends so cache behaviour (hit ratio,
/// hit-vs-miss latency gap, rejection pressure) can be tracked over time.
/// The fields are plain numbers the CLI copies out of the serve ledger,
/// so this crate does not depend on the serve crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRunRow {
    /// Append ordinal within the file (0-based; assigned by
    /// [`append_history`]).
    pub run: u64,
    /// Commit id the run was built from (`unknown` outside CI).
    pub commit: String,
    /// Requests in the replayed trace.
    pub requests: u64,
    /// Requests admitted and served.
    pub admitted: u64,
    /// Queue-full + malformed rejections.
    pub rejected: u64,
    /// Distinct plans computed (cold responses).
    pub unique_plans: u64,
    /// Responses served from a cached plan (canonical labelling).
    pub cached_responses: u64,
    /// Observed single-flight cache hits (0 without `--stats`).
    pub cache_hits: u64,
    /// Observed cache evictions (0 without `--stats`).
    pub cache_evictions: u64,
    /// Hit-path median plan-acquisition latency, ns (0 without `--stats`).
    pub hit_p50_ns: u64,
    /// Miss-path median plan-acquisition latency, ns (0 without `--stats`).
    pub miss_p50_ns: u64,
}

impl ServeRunRow {
    /// Fraction of served responses answered from cache.
    pub fn cached_frac(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.cached_responses as f64 / self.admitted as f64
        }
    }
}

/// A row of a JSONL timeline: the append ordinal is its `run` field.
pub trait HistoryRow: Serialize + DeserializeOwned {
    /// Store the ordinal [`append_history`] assigned.
    fn set_run(&mut self, run: u64);
}

impl HistoryRow for HistoryRecord {
    fn set_run(&mut self, run: u64) {
        self.run = run;
    }
}

impl HistoryRow for ServeRunRow {
    fn set_run(&mut self, run: u64) {
        self.run = run;
    }
}

/// Append one row to the JSONL timeline at `path`, creating the file
/// (and parent directory) if needed. The row's ordinal is the count of
/// rows of its type already in the file, and is returned. A torn last
/// line (a writer that died mid-row) has no trailing newline, so the new
/// row starts on a fresh line instead of being glued onto it.
pub fn append_history<R: HistoryRow>(path: &Path, mut row: R) -> Result<u64, String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let text = read_timeline(path)?;
    let run = parse_rows::<R>(&text).len() as u64;
    row.set_run(run);
    let line = serde_json::to_string(&row).map_err(|e| format!("serialize history row: {e:?}"))?;
    let fresh_line = if text.is_empty() || text.ends_with('\n') {
        ""
    } else {
        "\n"
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{fresh_line}{line}").map_err(|e| format!("append {}: {e}", path.display()))?;
    Ok(run)
}

/// Load every parseable row from the JSONL timeline. Blank and torn
/// lines (and rows of another type) are skipped, since a crashed writer
/// must not poison the timeline; a missing file is an empty timeline.
pub fn load_history<R: DeserializeOwned>(path: &Path) -> Result<Vec<R>, String> {
    Ok(parse_rows(&read_timeline(path)?))
}

/// The timeline's text; empty when the file does not exist yet.
fn read_timeline(path: &Path) -> Result<String, String> {
    match std::fs::read_to_string(path) {
        Ok(t) => Ok(t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

fn parse_rows<R: DeserializeOwned>(text: &str) -> Vec<R> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str::<R>(l).ok())
        .collect()
}

/// A detected level shift in one tracked series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChangePoint {
    /// Series name (`geomean_speedup` or `phase:<name>`).
    pub series: String,
    /// First run index of the *after* segment.
    pub index: usize,
    /// Mean of the series before the split.
    pub before_mean: f64,
    /// Mean from the split onward.
    pub after_mean: f64,
    /// Fraction of summed squared deviation removed by the split
    /// (0..1; higher = cleaner step).
    pub score: f64,
}

/// Minimum variance-reduction score for a split to be reported.
const CHANGE_SCORE_MIN: f64 = 0.5;
/// Minimum relative mean shift for a split to be reported.
const CHANGE_SHIFT_MIN: f64 = 0.05;

/// Least-squares two-segment scan over one series. Returns the best
/// split when it removes at least [`CHANGE_SCORE_MIN`] of the squared
/// deviation *and* moves the mean by at least [`CHANGE_SHIFT_MIN`]
/// relative — otherwise the series is judged level.
pub fn change_point(series: &[f64]) -> Option<ChangePoint> {
    let n = series.len();
    if n < 4 {
        return None;
    }
    let sse = |xs: &[f64]| -> f64 {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum()
    };
    let total = sse(series);
    if total <= f64::EPSILON {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for split in 1..n {
        let split_sse = sse(&series[..split]) + sse(&series[split..]);
        if best.is_none_or(|(_, b)| split_sse < b) {
            best = Some((split, split_sse));
        }
    }
    let (split, split_sse) = best?;
    let score = 1.0 - split_sse / total;
    let before_mean = series[..split].iter().sum::<f64>() / split as f64;
    let after_mean = series[split..].iter().sum::<f64>() / (n - split) as f64;
    let denom = before_mean.abs().max(f64::EPSILON);
    let shift = (after_mean - before_mean).abs() / denom;
    if score < CHANGE_SCORE_MIN || shift < CHANGE_SHIFT_MIN {
        return None;
    }
    Some(ChangePoint {
        series: String::new(),
        index: split,
        before_mean,
        after_mean,
        score,
    })
}

/// Scan every tracked series of a loaded history: the headline geomean
/// plus each phase's aggregate median (phases appearing in at least 4
/// runs). Results are named and ordered deterministically.
pub fn scan_history(records: &[HistoryRecord]) -> Vec<ChangePoint> {
    let mut found = Vec::new();
    let geo: Vec<f64> = records.iter().map(|r| r.geomean_speedup).collect();
    if let Some(mut cp) = change_point(&geo) {
        cp.series = "geomean_speedup".to_string();
        found.push(cp);
    }
    let mut phase_names: Vec<String> = records
        .iter()
        .flat_map(|r| r.phases.iter().map(|p| p.phase.clone()))
        .collect();
    phase_names.sort();
    phase_names.dedup();
    for name in phase_names {
        // Series over runs that measured this phase, preserving order.
        let series: Vec<f64> = records
            .iter()
            .flat_map(|r| r.phases.iter().filter(|p| p.phase == name))
            .map(|p| p.median_ns)
            .collect();
        if let Some(mut cp) = change_point(&series) {
            cp.series = format!("phase:{name}");
            found.push(cp);
        }
    }
    found
}

/// Render the timeline plus any change points, for `nmt-cli history`.
pub fn render_history(records: &[HistoryRecord]) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("history: no records\n");
        return out;
    }
    out.push_str(&format!(
        "{:>4}  {:<12} {:<8} {:>8} {:>9}  phases\n",
        "run", "commit", "scale", "geomean", "accuracy"
    ));
    for r in records {
        let short: String = r.commit.chars().take(10).collect();
        let phases = if r.phases.is_empty() {
            "-".to_string()
        } else {
            r.phases
                .iter()
                .map(|p| format!("{}={:.0}ns", p.phase, p.median_ns))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&format!(
            "{:>4}  {:<12} {:<8} {:>8.4} {:>9.4}  {}\n",
            r.run, short, r.scale, r.geomean_speedup, r.ssf_accuracy, phases
        ));
    }
    let points = scan_history(records);
    if points.is_empty() {
        out.push_str("change points: none\n");
    } else {
        for cp in points {
            out.push_str(&format!(
                "change point: {} at run {} — mean {:.4} -> {:.4} (score {:.2})\n",
                cp.series, cp.index, cp.before_mean, cp.after_mean, cp.score
            ));
        }
    }
    out
}

/// Render the serve timeline as a table, for `nmt-cli history`.
pub fn render_serve_history(rows: &[ServeRunRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("serve history: {} run(s)\n", rows.len()));
    out.push_str("  run  commit    reqs  served  rej  cold  cached  hit%   hit p50     miss p50\n");
    for r in rows {
        let commit_short: String = r.commit.chars().take(8).collect();
        out.push_str(&format!(
            "  {:>3}  {:<8}  {:>4}  {:>6}  {:>3}  {:>4}  {:>6}  {:>4.0}%  {:>8} ns  {:>8} ns\n",
            r.run,
            commit_short,
            r.requests,
            r.admitted,
            r.rejected,
            r.unique_plans,
            r.cached_responses,
            r.cached_frac() * 100.0,
            r.hit_p50_ns,
            r.miss_p50_ns,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(geo: f64, kernel_ns: f64) -> HistoryRecord {
        HistoryRecord {
            run: 0,
            commit: "deadbeef".to_string(),
            scale: "small".to_string(),
            seed: 1,
            geomean_speedup: geo,
            ssf_accuracy: 0.9,
            phases: vec![PhaseMedian {
                phase: "kernel".to_string(),
                median_ns: kernel_ns,
                ci_lo_ns: kernel_ns * 0.95,
                ci_hi_ns: kernel_ns * 1.05,
            }],
        }
    }

    fn serve_row(requests: u64) -> ServeRunRow {
        ServeRunRow {
            run: 0,
            commit: "abc123def".into(),
            requests,
            admitted: requests.saturating_sub(2),
            rejected: 2.min(requests),
            unique_plans: 3,
            cached_responses: requests.saturating_sub(5),
            cache_hits: requests.saturating_sub(5),
            cache_evictions: 0,
            hit_p50_ns: 1_000,
            miss_p50_ns: 50_000,
        }
    }

    /// A fresh timeline path under the temp dir, removed first.
    fn timeline(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("nmt-hist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (dir.join("nested").join("HISTORY.jsonl"), dir)
    }

    /// The shared contract, once per row type: a missing file is empty,
    /// appends create the parents and number rows 0, 1, 2, and the rows
    /// load back equal. Then a torn last line is skipped on load, and a
    /// row appended after it starts on a fresh line and is kept.
    fn check_timeline<R: HistoryRow + Clone + PartialEq + std::fmt::Debug>(
        name: &str,
        rows: [R; 4],
    ) {
        let (path, dir) = timeline(name);
        assert!(load_history::<R>(&path)
            .expect("missing file is empty")
            .is_empty());
        let mut expected = Vec::new();
        for (i, row) in rows[..3].iter().enumerate() {
            assert_eq!(
                append_history(&path, row.clone()).expect("appends"),
                i as u64
            );
            let mut stamped = row.clone();
            stamped.set_run(i as u64);
            expected.push(stamped);
        }
        assert_eq!(load_history::<R>(&path).expect("loads"), expected);

        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("opens");
        write!(file, "{{\"run\": 3, \"commit").expect("writes");
        drop(file);
        assert_eq!(load_history::<R>(&path).expect("still loads"), expected);

        assert_eq!(append_history(&path, rows[3].clone()).expect("appends"), 3);
        let mut last = rows[3].clone();
        last.set_run(3);
        expected.push(last);
        assert_eq!(
            load_history::<R>(&path).expect("loads"),
            expected,
            "the row appended after a torn line must not be lost"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_timeline_round_trips_and_survives_a_torn_line() {
        check_timeline(
            "bench",
            [0, 1, 2, 3].map(|i| record(2.0 + f64::from(i) * 0.01, 1000.0)),
        );
    }

    #[test]
    fn serve_timeline_round_trips_and_survives_a_torn_line() {
        check_timeline("serve", [48, 96, 10, 7].map(serve_row));
    }

    #[test]
    fn render_serve_history_shows_hit_ratio() {
        let text = render_serve_history(&[serve_row(48)]);
        assert!(text.contains("1 run(s)"));
        assert!(text.contains("abc123de"));
        assert!(text.contains("%"));
    }

    #[test]
    fn change_point_finds_a_clean_step_and_ignores_level_series() {
        let level = vec![2.0, 2.01, 1.99, 2.0, 2.0, 2.01];
        assert!(change_point(&level).is_none());
        let step = vec![2.0, 2.01, 1.99, 2.0, 1.5, 1.49, 1.51, 1.5];
        let cp = change_point(&step).expect("step detected");
        assert_eq!(cp.index, 4);
        assert!(cp.before_mean > 1.9 && cp.after_mean < 1.6);
        assert!(cp.score > 0.9);
        // Too short to split.
        assert!(change_point(&[1.0, 2.0, 3.0]).is_none());
        // Constant series: nothing to explain.
        assert!(change_point(&[1.0; 8]).is_none());
    }

    #[test]
    fn scan_names_series_and_from_ledger_aggregates() {
        let mut records: Vec<HistoryRecord> = Vec::new();
        for i in 0..8 {
            let kernel = if i < 4 { 1000.0 } else { 2000.0 };
            let mut r = record(2.0, kernel);
            r.run = i as u64;
            records.push(r);
        }
        let points = scan_history(&records);
        assert_eq!(points.len(), 1, "geomean level, kernel stepped");
        assert_eq!(points[0].series, "phase:kernel");
        assert_eq!(points[0].index, 4);
        let rendered = render_history(&records);
        assert!(rendered.contains("change point: phase:kernel at run 4"));
        assert!(rendered.contains("deadbeef"));
    }
}
