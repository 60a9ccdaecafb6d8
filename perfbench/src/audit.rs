//! `audit-small`: every matrix of the small suite through
//! `SpmmPlanner::explain`, the paper's reproduction sweep.
//!
//! One op is one matrix audit. Ops run on the benchmark's worker threads
//! in whole passes over the suite (largest matrices first, so the pass
//! tail stays short); the program's own nested parallelism is pinned to
//! one thread so a process never runs more than `workers` threads.

use nmt::{DecisionAudit, KernelAudit, PlannerConfig, SpmmPlanner, DEFAULT_SSF_THRESHOLD};
use nmt_bench::ledger::Ledger;
use nmt_bench::{experiment_gpu, experiment_k, experiment_tile, EXPERIMENT_SEED};
use nmt_engine::{convert_matrix_farm, FarmConfig};
use nmt_formats::{Csc, Csr, Dcsr, DenseMatrix, SparseMatrix};
use nmt_kernels::{bstat_tiled_dcsr_online, csrmm_cusparse, dcsrmm_row_per_warp, host};
use nmt_matgen::{generators, random_dense, MatrixDesc, SuiteScale, SuiteSpec};
use nmt_mem::PoolStats;
use nmt_model::ssf::Choice;
use nmt_model::{Dataflow, TrafficModel};
use nmt_obs::{ObsContext, Recorder};
use nmt_sim::{Gpu, KernelStats, SimError};

use crate::common::{clock, median, par_map, percentile, Fnv, Metric, Outcome};
use crate::layers::Layers;
use crate::RunArgs;

/// Where the committed default-seed ledger lives, relative to the checkout.
const COMMITTED_LEDGER: &str = "results/BENCH_small.json";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const SCALE: SuiteScale = SuiteScale::Small;

fn planner_config() -> PlannerConfig {
    PlannerConfig {
        gpu: experiment_gpu(SCALE),
        tile_w: experiment_tile(SCALE),
        tile_h: experiment_tile(SCALE),
        threshold: DEFAULT_SSF_THRESHOLD,
        fault: None,
    }
}

/// The generated inputs: the suite, one B per matrix (seeded exactly as
/// `nmt-cli bench` seeds it) and the pass order.
struct Suite {
    descs: Vec<MatrixDesc>,
    a: Vec<Csr>,
    b: Vec<DenseMatrix>,
    /// Matrix indices by descending nnz.
    order: Vec<usize>,
}

fn build_suite(seed: u64, workers: usize, rec: &Recorder) -> Suite {
    let descs = SuiteSpec::new(SCALE, seed).descriptors();
    let k = experiment_k(SCALE);
    let built = par_map(workers, descs.len(), |i| {
        let a = {
            let _s = rec.span("matgen.generate");
            generators::generate(&descs[i])
        };
        let b = {
            let _s = rec.span("matgen.dense");
            random_dense(a.shape().ncols, k, descs[i].seed ^ 0x16)
        };
        (a, b)
    });
    let (a, b): (Vec<Csr>, Vec<DenseMatrix>) = built.into_iter().unzip();
    let mut order: Vec<usize> = (0..a.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(a[i].nnz()), i));
    Suite { descs, a, b, order }
}

/// One timed op's result.
struct Op {
    matrix: usize,
    audit: Result<DecisionAudit, String>,
    ns: f64,
}

/// One pass of `explain` over the suite; returns the ops and the pass's
/// wall time.
fn explain_pass(suite: &Suite, planner: &SpmmPlanner, workers: usize) -> (Vec<Op>, f64) {
    let clk = clock();
    let ops = par_map(workers, suite.order.len(), |j| {
        let i = suite.order[j];
        let obs = ObsContext::disabled();
        let t0 = clk.now_ns();
        let audit = planner.explain(&suite.descs[i].name, &suite.a[i], &suite.b[i], &obs);
        let ns = (clk.now_ns() - t0) as f64;
        Op {
            matrix: i,
            audit: audit.map_err(|e| e.to_string()),
            ns,
        }
    });
    (ops, clk.now_ns() as f64)
}

/// Generate the inputs and run one untimed warm-up pass; the pass's
/// audits are the reference every later op must repeat.
fn setup(
    args: &RunArgs,
    planner: &SpmmPlanner,
    rec: &Recorder,
) -> Result<(Suite, Vec<DecisionAudit>, f64), String> {
    let clk = clock();
    let suite = build_suite(args.seed, args.workers, rec);
    let audits = par_map(args.workers, suite.a.len(), |i| {
        planner.explain(
            &suite.descs[i].name,
            &suite.a[i],
            &suite.b[i],
            &ObsContext::disabled(),
        )
    });
    let secs = clk.now_ns() as f64 / 1e9;
    let audits = audits
        .into_iter()
        .zip(&suite.descs)
        .map(|(r, d)| r.map_err(|e| format!("warm-up explain of {} failed: {e}", d.name)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((suite, audits, secs))
}

/// Answer checks, outside every timed window. Each matrix also goes
/// through `execute`, whose C must match the host product; every timed
/// `explain` must report that `execute`'s baseline and chosen simulated
/// times, and must equal the warm-up audit.
struct Checker<'a> {
    suite: &'a Suite,
    reference: &'a [DecisionAudit],
    /// Per matrix: `execute`'s baseline and chosen simulated times, or
    /// why the matrix fails.
    executed: Vec<Result<(f64, f64), String>>,
}

impl<'a> Checker<'a> {
    fn new(
        workers: usize,
        suite: &'a Suite,
        planner: &SpmmPlanner,
        reference: &'a [DecisionAudit],
    ) -> Self {
        let executed = par_map(workers, suite.a.len(), |i| {
            let (a, b) = (&suite.a[i], &suite.b[i]);
            let r = planner
                .execute(a, b)
                .map_err(|e| format!("execute failed: {e}"))?;
            if !r.c.approx_eq(&host::spmm_csr(a, b), 1e-3) {
                return Err("execute's C disagrees with the host product".to_string());
            }
            Ok((r.baseline_stats.total_ns, r.stats.total_ns))
        });
        Checker {
            suite,
            reference,
            executed,
        }
    }

    /// Check one pass's ops, counting each failed op in `out`.
    fn check(&self, ops: &[Op], out: &mut Outcome) {
        let same = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(1.0);
        for op in ops {
            out.attempted += 1;
            let problem = match (&op.audit, &self.executed[op.matrix]) {
                (Err(e), _) => format!("explain failed: {e}"),
                (_, Err(e)) => e.clone(),
                (Ok(audit), Ok((base_ns, chosen_ns))) => {
                    if !same(audit.baseline_ns, *base_ns)
                        || !same(audit.chosen_audit().time_ns, *chosen_ns)
                    {
                        "explain and execute report different simulated times".to_string()
                    } else if *audit != self.reference[op.matrix] {
                        "explain did not repeat its warm-up audit".to_string()
                    } else {
                        continue;
                    }
                }
            };
            out.failed += 1;
            out.problem(format!("{}: {problem}", self.suite.descs[op.matrix].name));
        }
    }
}

fn ledger_of(seed: u64, audits: &[DecisionAudit]) -> Ledger {
    Ledger::from_audits(
        SCALE,
        seed,
        experiment_k(SCALE),
        experiment_tile(SCALE),
        audits,
    )
}

fn committed_row_mismatches(seed: u64, audits: &[DecisionAudit]) -> Vec<String> {
    let committed = match std::fs::read_to_string(COMMITTED_LEDGER)
        .map_err(|e| e.to_string())
        .and_then(|text| Ledger::from_json(&text))
    {
        Ok(l) => l,
        Err(e) => return vec![format!("cannot read {COMMITTED_LEDGER}: {e}")],
    };
    let ours = ledger_of(seed, audits);
    if ours.rows.len() != committed.rows.len() {
        return vec![format!(
            "{} rows against {} committed in {COMMITTED_LEDGER}",
            ours.rows.len(),
            committed.rows.len()
        )];
    }
    ours.rows
        .iter()
        .zip(&committed.rows)
        .filter(|(a, b)| a != b)
        .map(|(a, _)| format!("row {} differs from {COMMITTED_LEDGER}", a.matrix))
        .collect()
}

/// Digest of every simulated result of the suite: the audits' JSON.
fn digest(audits: &[DecisionAudit]) -> u64 {
    let mut h = Fnv::new();
    for a in audits {
        h.bytes(a.to_json().as_bytes());
    }
    h.0
}

/// The simulated figures every mode reports: the digest, and at the
/// default seed the committed-row check.
fn finish(seed: u64, reference: &[DecisionAudit], out: &mut Outcome) {
    if seed == EXPERIMENT_SEED {
        for p in committed_row_mismatches(seed, reference) {
            out.problem(p);
        }
    }
    out.notes
        .push(format!("sim_digest audit-small {:016x}", digest(reference)));
}

/// Untraced run: the end-to-end metrics.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let planner = SpmmPlanner::new(planner_config());
    let untraced = Recorder::with_capacity(0);
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let (suite, reference, secs) = setup(args, &planner, &untraced)?;
        setup_secs.push(secs);
        last = Some((suite, reference));
    }
    let (suite, reference) = last.ok_or("no set-up ran")?;

    let checker = Checker::new(args.workers, &suite, &planner, &reference);
    let mut out = Outcome::default();
    let clk = clock();
    let (mut lat_ms, mut passes) = (Vec::new(), Vec::new());
    while passes.is_empty() || (clk.now_ns() as f64) < args.seconds * 1e9 {
        let (pass, ns) = explain_pass(&suite, &planner, args.workers);
        passes.push(ns);
        lat_ms.extend(pass.iter().map(|o| o.ns / 1e6));
        checker.check(&pass, &mut out);
    }
    let pass_rates: Vec<f64> = passes
        .iter()
        .map(|ns| suite.a.len() as f64 / (ns / 1e9))
        .collect();

    finish(args.seed, &reference, &mut out);
    let summary = ledger_of(args.seed, &reference).summary;
    out.notes.push(format!(
        "audit-small: {} ops in {} passes of {:.3} s median on {} workers; p90 has {} samples beyond it",
        lat_ms.len(),
        passes.len(),
        median(&passes) / 1e9,
        args.workers,
        lat_ms.len() - (0.9 * lat_ms.len() as f64).ceil() as usize
    ));
    out.metrics = vec![
        Metric::new("ops_per_s", median(&pass_rates), "ops/s"),
        Metric::new("op_p50_ms", median(&lat_ms), "ms"),
        Metric::new("op_p90_ms", percentile(&lat_ms, 0.9), "ms"),
        Metric::new("setup_s", median(&setup_secs), "s"),
        Metric::new("peak_rss_mb", crate::common::peak_rss_mib()?, "MiB"),
        Metric::new("sim_geomean_speedup", summary.geomean_speedup, "x"),
        Metric::new("ssf_accuracy", summary.ssf_accuracy, "fraction"),
    ];
    Ok(out)
}

/// What one traced op hands back besides its spans.
struct Traced {
    matrix: usize,
    audit: Result<DecisionAudit, String>,
    stats: Option<[KernelStats; 3]>,
}

fn gpu_new(cfg: &PlannerConfig, rec: &Recorder) -> Result<Gpu, SimError> {
    let _s = rec.span("sim.gpu_new");
    let mut gpu = Gpu::new(cfg.gpu.clone())?;
    gpu.set_fault_plan(cfg.fault);
    Ok(gpu)
}

/// `SpmmPlanner::explain`, call for call, with a span around every call
/// into another layer. The op span's own self time is `core.other`.
fn explain_traced(
    planner: &SpmmPlanner,
    name: &str,
    a: &Csr,
    b: &DenseMatrix,
    obs: &ObsContext,
    rec: &Recorder,
) -> Result<(DecisionAudit, [KernelStats; 3]), SimError> {
    let cfg = planner.config();
    let _op = rec.span("op");
    let (profile, chosen) = {
        let _s = rec.span("model.plan");
        planner.plan(a)
    };
    let baseline = {
        let mut gpu = gpu_new(cfg, rec)?;
        let _s = rec.span("kernels.baseline");
        csrmm_cusparse(&mut gpu, a, b)?
    };
    let model = {
        let _s = rec.span("model.traffic");
        TrafficModel::measure(a, cfg.tile_w)
    };
    let k = b.ncols() as f64;
    let c_run = {
        let mut gpu = gpu_new(cfg, rec)?;
        let dcsr = {
            let _s = rec.span("formats.dcsr");
            Dcsr::from_csr(a)
        };
        let _s = rec.span("kernels.cstat");
        dcsrmm_row_per_warp(&mut gpu, &dcsr, b)?
    };
    let online = {
        let mut gpu = gpu_new(cfg, rec)?;
        let csc = {
            let _s = rec.span("formats.to_csc");
            a.to_csc()
        };
        let _s = rec.span("kernels.bstat_online");
        bstat_tiled_dcsr_online(&mut gpu, &csc, b, cfg.tile_w, cfg.tile_h)?
    };
    let b_stats = online.run.stats;
    let baseline_ns = baseline.stats.total_ns;
    let cstationary = KernelAudit::new(
        "c-stationary",
        baseline_ns,
        &c_run.stats,
        &model.estimate_with_ncols(Dataflow::CStationary, k),
    );
    let bstationary = KernelAudit::new(
        "b-stationary-online",
        baseline_ns,
        &b_stats,
        &model.estimate_online_bstationary(k),
    );
    let oracle = if b_stats.total_ns < c_run.stats.total_ns {
        Choice::BStationary
    } else {
        Choice::CStationary
    };
    let time_of = |c: Choice| match c {
        Choice::CStationary => c_run.stats.total_ns,
        Choice::BStationary => b_stats.total_ns,
    };
    let audit = DecisionAudit {
        matrix: name.to_string(),
        nrows: a.shape().nrows,
        ncols: a.shape().ncols,
        nnz: a.nnz(),
        k: b.ncols(),
        tile: cfg.tile_w,
        profile,
        threshold: cfg.threshold.threshold,
        chosen,
        oracle,
        mispick: chosen != oracle,
        mispick_cost: time_of(chosen) / time_of(oracle).max(1e-9),
        baseline_ns,
        cstationary,
        bstationary,
        fault: None,
    };
    audit.publish(obs);
    Ok((audit, [baseline.stats, c_run.stats, b_stats]))
}

/// Traced run: rounds of an untraced `explain` pass (the reference for
/// the tracing overhead), a standalone farm pass, and a pass replaying
/// `explain` call by call under spans.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let planner = SpmmPlanner::new(planner_config());
    let cfg = planner.config().clone();
    let setup_rec = Recorder::with_capacity(1 << 12);
    nmt_obs::alloc::enable_counting(true);
    let (suite, reference, _) = setup(args, &planner, &setup_rec)?;
    nmt_obs::alloc::enable_counting(false);
    let csc: Vec<Csc> = suite.a.iter().map(Csr::to_csc).collect();

    // Each round is an untraced pass, a farm pass and a traced pass, so
    // the untraced and traced passes see the same machine. Keeping the
    // standalone farm calls out of the traced pass gives it the same
    // contention as an untraced pass, so their wall times compare. The
    // farm pass runs on one worker: concurrent farms contend for the pool
    // locks, which a farm inside an op pass rarely meets.
    let checker = Checker::new(args.workers, &suite, &planner, &reference);
    let mut out = Outcome::default();
    let clk = clock();
    let mut layers = Layers::default();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut traced_passes = Vec::new();
    let mut farm_elements = 0;
    let mut last_spans = Vec::new();
    let mut pool_hits = (PoolStats::default(), PoolStats::default());
    while traced.is_empty() || (clk.now_ns() as f64) < args.seconds * 1e9 {
        let (pass, ns) = explain_pass(&suite, &planner, args.workers);
        passes.push(ns);
        checker.check(&pass, &mut out);

        nmt_obs::alloc::enable_counting(true);
        let rec = Recorder::with_capacity(1 << 16);
        let farm_cfg = FarmConfig::for_partitions(cfg.gpu.num_partitions).with_fault(cfg.fault);
        let elements = par_map(1, suite.order.len(), |j| {
            let i = suite.order[j];
            let farm = {
                let _s = rec.span("engine.farm");
                convert_matrix_farm(&csc[i], cfg.tile_w, cfg.tile_h, farm_cfg)
            };
            farm.map(|f| {
                let n = f.stats.elements;
                nmt_engine::mem::recycle_strips(f.strips);
                n
            })
        });
        for e in elements {
            farm_elements += e.map_err(|e| format!("standalone farm failed: {e}"))?;
        }
        let before = nmt_engine::mem::pool_stats();
        let start = clk.now_ns();
        let traced_pass = par_map(args.workers, suite.order.len(), |j| {
            let i = suite.order[j];
            let obs = ObsContext::disabled();
            let r = explain_traced(
                &planner,
                &suite.descs[i].name,
                &suite.a[i],
                &suite.b[i],
                &obs,
                &rec,
            );
            Traced {
                matrix: i,
                stats: r.as_ref().ok().map(|(_, s)| s.clone()),
                audit: r.map(|(a, _)| a).map_err(|e| e.to_string()),
            }
        });
        traced_passes.push((clk.now_ns() - start) as f64);
        pool_hits.0.merge(&before);
        pool_hits.1.merge(&nmt_engine::mem::pool_stats());
        nmt_obs::alloc::enable_counting(false);
        let spans = rec.snapshot();
        layers.add_spans(&spans);
        layers.traced_ns += spans
            .iter()
            .filter(|s| s.name == "op")
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>();
        layers.carve("kernels.bstat_online", "engine.farm", &spans);
        last_spans = spans;
        traced.extend(traced_pass);
    }

    layers.farm_elements = farm_elements;
    for t in &traced {
        if let Some([base, cstat, bstat]) = &t.stats {
            layers.sim.entry("baseline").or_default().add(base);
            layers.sim.entry("cstat").or_default().add(cstat);
            layers.sim.entry("bstat_online").or_default().add(bstat);
        }
    }
    layers.ops = traced.len() as u64;
    let overhead = median(&traced_passes) / median(&passes) - 1.0;
    layers.close("core.other", layers.ops);
    let coverage = layers.coverage("core.other");
    let kernel_share = layers.share("kernels.");
    // Generation happens in set-up, outside every op: one call per
    // matrix, folded in after the op accounting is closed.
    layers.add_spans(&setup_rec.snapshot());
    for call in ["matgen.generate", "matgen.dense"] {
        layers.per_input.insert(call, suite.a.len() as u64);
    }

    finish(args.seed, &reference, &mut out);
    for t in &traced {
        let name = &suite.descs[t.matrix].name;
        match &t.audit {
            Ok(a) if *a == reference[t.matrix] => {}
            Ok(_) => out.problem(format!("{name}: traced replay diverged from explain")),
            Err(e) => out.problem(format!("{name}: traced replay failed: {e}")),
        }
    }
    for p in &layers.problems {
        out.problem(p.clone());
    }
    out.notes.push(format!(
        "traced {} ops: median pass {:.3} s traced vs {:.3} s untraced; kernels.* self time is {:.1}% of traced time (workload check: at least 75%)",
        layers.ops,
        median(&traced_passes) / 1e9,
        median(&passes) / 1e9,
        100.0 * kernel_share
    ));
    let mut metrics: Vec<Metric> = layers
        .metrics()
        .into_iter()
        .map(|(n, v, u)| Metric::new(n, v, u))
        .collect();
    metrics.extend(crate::serve::absent_serve_metrics());
    metrics.push(Metric::new(
        "mem.pool.hit_ratio",
        crate::pool_hit_ratio(&pool_hits.0, &pool_hits.1),
        "fraction",
    ));
    metrics.push(Metric::new("trace.overhead", overhead, "fraction"));
    metrics.push(Metric::new("trace.coverage", coverage, "fraction"));
    out.metrics = metrics;
    crate::write_trace_files("audit-small", &last_spans, &layers)?;
    Ok(out)
}
