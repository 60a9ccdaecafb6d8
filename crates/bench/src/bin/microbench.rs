//! `microbench` — statistical microbenchmarks for the hot paths the
//! profiler attributes most time to: the parallel conversion farm, the
//! B-stationary online kernel, the comparator tree's frontier min-scan,
//! and the simulator's per-access path. Each target runs through the
//! harness (warmup, fixed iteration count, MAD outlier rejection,
//! bootstrap CIs) and prints one table row; CI runs the reduced
//! `--iters`/`--warmup` variant as a smoke check. `sim_access` also
//! prints its host time per simulated L2 line.
//!
//! Besides wall time, every target is measured for **steady-state
//! allocation pressure**: pools are reset, one warm iteration shelves its
//! buffers, then a second iteration's process-wide `alloc.count` /
//! `alloc.bytes` delta (all threads — the farm's workers included) lands
//! in the table. With `--budgets <file>` the measured numbers gate
//! against the committed per-target ceilings and the run fails on any
//! increase; `--write-budgets <file>` regenerates the file with headroom.
//!
//! ```text
//! microbench [--iters N] [--warmup N] [--n N] [--k N] [--tile N]
//!            [--budgets <ALLOC_BUDGETS.json>] [--write-budgets <file>]
//! ```

use nmt_bench::harness::{run, BenchConfig};
use nmt_bench::{experiment_gpu, print_table, EXPERIMENT_SEED};
use nmt_engine::{convert_matrix_farm, ComparatorTree, FarmConfig, MinScratch};
use nmt_formats::SparseMatrix;
use nmt_kernels::bstat_tiled_dcsr_online;
use nmt_matgen::{random_dense, GenKind, MatrixDesc, SuiteScale};
use nmt_sim::{Gpu, GpuConfig, TrafficClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The measured alloc numbers see every thread, so the binary must own
/// the real global allocator.
#[global_allocator]
static ALLOC: nmt_obs::CountingAlloc = nmt_obs::CountingAlloc;

/// One target's committed allocation ceiling (already includes headroom).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct AllocBudget {
    /// Max allocations per steady-state iteration.
    count: u64,
    /// Max bytes requested per steady-state iteration.
    bytes: u64,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

/// Steady-state allocation delta of one iteration of `f`, across all
/// threads: reset the engine pools to a reproducible empty state, then
/// run warm iterations until the delta stops shrinking and report the
/// last one. Several warm passes are needed because pooled buffers grow
/// toward their steady-state capacities over the first few runs (a
/// checked-out buffer smaller than its eventual need reallocs once, then
/// reshelves at the grown capacity — shelf capacities only ratchet up).
fn measure_alloc(mut f: impl FnMut()) -> (u64, u64) {
    const MAX_WARM: usize = 8;
    nmt_engine::mem::reset_pools();
    let prev = nmt_obs::alloc::enable_counting(true);
    f();
    let mut best = (u64::MAX, u64::MAX);
    for _ in 0..MAX_WARM {
        let (c0, b0) = nmt_obs::alloc::process_totals();
        f();
        let (c1, b1) = nmt_obs::alloc::process_totals();
        let delta = (c1.saturating_sub(c0), b1.saturating_sub(b0));
        if delta.0 >= best.0 {
            best = best.min(delta);
            break;
        }
        best = delta;
    }
    nmt_obs::alloc::enable_counting(prev);
    best
}

fn main() -> ExitCode {
    match run_benches() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_benches() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = BenchConfig::default();
    cfg.iters = parse_flag(&args, "--iters", cfg.iters)?;
    cfg.warmup = parse_flag(&args, "--warmup", cfg.warmup)?;
    if cfg.iters == 0 {
        return Err("--iters must be at least 1".into());
    }
    let n: usize = parse_flag(&args, "--n", 512)?;
    let k: usize = parse_flag(&args, "--k", 32)?;
    let tile: usize = parse_flag(&args, "--tile", 16)?;
    if tile == 0 || tile > 64 {
        return Err("--tile must be in 1..=64 (the engine is 64 lanes wide)".into());
    }
    let budgets_path = flag(&args, "--budgets");
    let write_budgets_path = flag(&args, "--write-budgets");

    // One deterministic operand set shared by every target.
    let a = nmt_matgen::generate(&MatrixDesc::new(
        "microbench",
        n,
        GenKind::ZipfRows {
            density: 0.01,
            exponent: 1.1,
        },
        EXPERIMENT_SEED,
    ));
    let csc = a.to_csc();
    let b = random_dense(a.shape().ncols, k, EXPERIMENT_SEED ^ 0x16);

    println!(
        "microbench: n = {n}, nnz = {}, k = {k}, tile = {tile}, {} iters after {} warmup",
        a.nnz(),
        cfg.iters,
        cfg.warmup
    );

    let mut rows = Vec::new();
    let mut measured: BTreeMap<String, AllocBudget> = BTreeMap::new();
    let mut add_row = |name: &str, stats: nmt_bench::BenchStats, alloc: (u64, u64)| {
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", stats.median_ns / 1e3),
            format!("{:.1}", stats.ci_lo_ns / 1e3),
            format!("{:.1}", stats.ci_hi_ns / 1e3),
            format!("{:.1}", stats.mad_ns / 1e3),
            format!("{}", stats.samples),
            format!("{}", stats.rejected),
            format!("{}", alloc.0),
            format!("{:.1}", alloc.1 as f64 / 1024.0),
        ]);
        measured.insert(
            name.to_string(),
            AllocBudget {
                count: alloc.0,
                bytes: alloc.1,
            },
        );
    };

    // 1. The conversion farm: CSC -> tiled DCSR across FB partitions.
    // The alloc pass recycles each run's output so the pools reach their
    // steady state — exactly how the online kernel consumes the farm.
    let farm_cfg = FarmConfig::paper_default();
    let stats = run(&cfg, || {
        let farm = convert_matrix_farm(&csc, tile, tile, farm_cfg)
            .expect("clean farm conversion cannot fail");
        std::hint::black_box(farm.stats.elements);
    });
    let alloc = measure_alloc(|| {
        let farm = convert_matrix_farm(&csc, tile, tile, farm_cfg)
            .expect("clean farm conversion cannot fail");
        std::hint::black_box(farm.stats.elements);
        nmt_engine::mem::recycle_strips(farm.strips);
    });
    add_row("farm_convert", stats, alloc);

    // 2. The B-stationary online kernel (engine + kernel pipeline).
    let stats = run(&cfg, || {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("test GPU config is valid");
        let out = bstat_tiled_dcsr_online(&mut gpu, &csc, &b, tile, tile)
            .expect("online kernel runs on a clean matrix");
        std::hint::black_box(out.run.stats.total_ns);
    });
    let alloc = measure_alloc(|| {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("test GPU config is valid");
        let out = bstat_tiled_dcsr_online(&mut gpu, &csc, &b, tile, tile)
            .expect("online kernel runs on a clean matrix");
        std::hint::black_box(out.run.stats.total_ns);
    });
    add_row("bstat_online", stats, alloc);

    // 3. The comparator tree's frontier min-scan, the engine's inner loop.
    let tree = ComparatorTree::new(tile).map_err(|e| e.to_string())?;
    let coords: Vec<Option<u32>> = (0..tile)
        .map(|i| (i % 3 != 0).then_some(((i * 37) % 101) as u32))
        .collect();
    let stats = run(&cfg, || {
        let mut scratch = MinScratch::new();
        for _ in 0..1024 {
            std::hint::black_box(tree.find_min_in(std::hint::black_box(&coords), &mut scratch));
        }
    });
    let alloc = measure_alloc(|| {
        let mut scratch = MinScratch::new();
        for _ in 0..1024 {
            std::hint::black_box(tree.find_min_in(std::hint::black_box(&coords), &mut scratch));
        }
    });
    add_row("find_min_x1024", stats, alloc);

    // 4. The simulator's per-access path: the cuSPARSE-baseline B gather
    // (column-major B, one lane per A non-zero, so scattered columns pay
    // one L2 line per lane) replayed through the small-suite GPU. The GPU
    // persists across iterations, so every iteration probes a warm L2
    // with the same fixed stream of lines.
    let mut gpu = Gpu::new(experiment_gpu(SuiteScale::Small)).map_err(|e| e.to_string())?;
    let warp = gpu.config().warp_size;
    let b_rows = a.shape().ncols as u64;
    let b_buf = gpu.alloc(b_rows * k as u64 * 4, TrafficClass::MatB);
    let mut offsets: Vec<u64> = Vec::with_capacity(warp);
    let mut gather_stream = |gpu: &mut Gpu| -> u64 {
        let stats = gpu
            .launch(0, 1, |ctx| {
                for r in 0..a.shape().nrows {
                    for chunk in a.row(r).0.chunks(warp) {
                        for kc in 0..k as u64 {
                            offsets.clear();
                            offsets.extend(chunk.iter().map(|&c| (kc * b_rows + c as u64) * 4));
                            ctx.ld_global_gather(&b_buf, &offsets, 4, true);
                        }
                    }
                }
            })
            .expect("a launch without shared memory cannot fail");
        stats.l2_hits + stats.l2_misses
    };
    let lines = gather_stream(&mut gpu);
    let stats = run(&cfg, || {
        std::hint::black_box(gather_stream(&mut gpu));
    });
    let alloc = measure_alloc(|| {
        std::hint::black_box(gather_stream(&mut gpu));
    });
    println!(
        "sim_access: {lines} simulated L2 lines per iteration, {:.1} host ns per line",
        stats.median_ns / lines.max(1) as f64
    );
    add_row("sim_access", stats, alloc);

    print_table(
        &[
            "target",
            "median_us",
            "ci_lo_us",
            "ci_hi_us",
            "mad_us",
            "kept",
            "rejected",
            "alloc_n",
            "alloc_kb",
        ],
        &rows,
    );

    if let Some(path) = write_budgets_path {
        // Headroom: 50% relative + small absolute slack, so pool shelving
        // wobble and allocator-internal variance never flake the gate. A
        // target that measured no allocation keeps a zero budget: an
        // allocation-free path has no wobble to absorb, and its first
        // allocation is the regression the gate exists to catch.
        let headroom = |m: u64, slack: u64| if m == 0 { 0 } else { m + m / 2 + slack };
        let with_headroom: BTreeMap<String, AllocBudget> = measured
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    AllocBudget {
                        count: headroom(m.count, 64),
                        bytes: headroom(m.bytes, 65_536),
                    },
                )
            })
            .collect();
        let json = serde_json::to_string_pretty(&with_headroom)
            .map_err(|e| format!("cannot serialize budgets: {e:?}"))?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("cannot write budgets to {path}: {e}"))?;
        eprintln!("wrote allocation budgets (with headroom) to {path}");
    }

    if let Some(path) = budgets_path {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read budgets from {path}: {e}"))?;
        let budgets: BTreeMap<String, AllocBudget> =
            serde_json::from_str(&json).map_err(|e| format!("malformed budgets file: {e:?}"))?;
        let mut failures = Vec::new();
        for (name, budget) in &budgets {
            let Some(m) = measured.get(name) else {
                failures.push(format!(
                    "budgeted target '{name}' was not measured — refresh the budgets file"
                ));
                continue;
            };
            if m.count > budget.count {
                failures.push(format!(
                    "{name}: allocation count {} exceeds budget {}",
                    m.count, budget.count
                ));
            }
            if m.bytes > budget.bytes {
                failures.push(format!(
                    "{name}: allocation bytes {} exceed budget {}",
                    m.bytes, budget.bytes
                ));
            }
        }
        if failures.is_empty() {
            eprintln!(
                "allocation budgets OK: {} targets within {path}",
                budgets.len()
            );
        } else {
            return Err(format!(
                "allocation budget exceeded:\n  {}",
                failures.join("\n  ")
            ));
        }
    }
    Ok(())
}
