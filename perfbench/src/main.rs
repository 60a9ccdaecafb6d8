//! The repository benchmark: end-to-end metrics of three workloads, and a
//! traced run that attributes their time to the workspace's layers.
//!
//! ```text
//! nmt-perfbench --workload <audit-small|serve-hot|serve-churn>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! 0 only when every answer check passed. See `NOTES.md` beside this
//! package for what each workload and metric means.

mod audit;
mod common;
mod layers;
mod serve;
mod tracegen;

use std::path::Path;
use std::process::ExitCode;

use nmt_mem::PoolStats;
use nmt_obs::SpanRecord;

use common::Outcome;
use layers::Layers;

#[global_allocator]
static ALLOC: nmt_obs::CountingAlloc = nmt_obs::CountingAlloc;

/// Where the traced run writes its span trace and layer table, relative
/// to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads: the host's available parallelism.
    pub workers: usize,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: nmt_bench::EXPERIMENT_SEED,
        seconds: 10.0,
        trace: false,
        workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Share of engine-pool `take`s served from the shelf between two
/// snapshots.
pub fn pool_hit_ratio(before: &PoolStats, after: &PoolStats) -> f64 {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    hits as f64 / (hits + misses).max(1) as f64
}

/// Write the traced run's spans as a Chrome trace and its per-layer
/// table under [`OUT_DIR`].
pub fn write_trace_files(
    workload: &str,
    spans: &[SpanRecord],
    layers: &Layers,
) -> Result<(), String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let trace_path = dir.join(format!("{workload}.trace.json"));
    let file = std::fs::File::create(&trace_path)
        .map_err(|e| format!("cannot create {}: {e}", trace_path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    nmt_obs::export::write_chrome_trace(&mut w, spans)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    std::io::Write::flush(&mut w)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let table_path = dir.join(format!("{workload}.layers.txt"));
    std::fs::write(&table_path, layers::table(layers))
        .map_err(|e| format!("cannot write {}: {e}", table_path.display()))
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    // The audit workload runs ops on its own workers and keeps the
    // program's nested parallelism inline; the broker parallelises
    // replays itself, over the same number of threads.
    let program_threads = if args.workload == "audit-small" {
        1
    } else {
        args.workers
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(program_threads)
        .build_global()
        .map_err(|e| e.to_string())?;
    match (args.workload.as_str(), args.trace) {
        ("audit-small", false) => audit::run(args),
        ("audit-small", true) => audit::run_traced(args),
        ("serve-hot", false) => serve::run(args, serve::Kind::Hot),
        ("serve-hot", true) => serve::run_traced(args, serve::Kind::Hot),
        ("serve-churn", false) => serve::run(args, serve::Kind::Churn),
        ("serve-churn", true) => serve::run_traced(args, serve::Kind::Churn),
        (other, _) => Err(format!(
            "unknown workload `{other}` (audit-small, serve-hot or serve-churn)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nmt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nmt-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if out.attempted == 0 {
        out.problem("no op was attempted".into());
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "failed_ratio {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for p in out.problems.iter().take(20) {
        println!("CHECK FAILED: {p}");
    }
    if out.problems.len() > 20 {
        println!("CHECK FAILED: ... and {} more", out.problems.len() - 20);
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
