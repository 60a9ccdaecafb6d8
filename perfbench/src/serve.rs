//! `serve-hot` and `serve-churn`: seeded request traces replayed through
//! `nmt_serve::serve_trace`.
//!
//! One op is one admitted request. A replay is the unit of timing: the
//! broker fans a replay out over `workers` threads itself, so the
//! benchmark runs replays back to back until the window closes.

use std::collections::BTreeMap;
use std::sync::Arc;

use nmt::{MatrixFingerprint, PlannerConfig, SpmmPlanner, DEFAULT_SSF_THRESHOLD};
use nmt_bench::{experiment_gpu, experiment_tile};
use nmt_engine::ConversionArtifact;
use nmt_formats::SparseMatrix;
use nmt_kernels::{bstat_tiled_dcsr_offline, dcsrmm_row_per_warp, host};
use nmt_matgen::{generators, random_dense, SuiteScale};
use nmt_model::ssf::Choice;
use nmt_obs::{ObsContext, Recorder};
use nmt_serve::{
    serve_trace, BrokerConfig, CachedPlan, PlanCache, Request, ServeError, ServeLedger,
};
use nmt_sim::{Gpu, KernelStats};

use crate::common::{
    checksum_f32, clock, geomean, median, par_map, percentile, Fnv, Metric, Outcome,
};
use crate::layers::Layers;
use crate::tracegen::{self, TraceShape};
use crate::RunArgs;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ~2 000 requests over 16 matrices: the plan-cache read path.
    Hot,
    /// Every request a new matrix, cache budget below the working set:
    /// inserts, evictions and pool reuse.
    Churn,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve-hot",
            Kind::Churn => "serve-churn",
        }
    }

    fn shape(self) -> TraceShape {
        match self {
            Kind::Hot => TraceShape {
                requests: 2000,
                pool: Some(16),
                k: 64,
                b_variants: 4,
            },
            Kind::Churn => TraceShape {
                requests: 600,
                pool: None,
                k: 8,
                b_variants: 1,
            },
        }
    }

    fn config(self) -> BrokerConfig {
        let tile = experiment_tile(SuiteScale::Small);
        BrokerConfig {
            queue_depth: 64,
            quantum: 2,
            service_rate: tracegen::SERVICE_RATE as usize,
            // Hot: all 16 artifacts stay resident, so nothing is evicted.
            // Churn: room for about a dozen of the 600 artifacts.
            cache_budget_bytes: match self {
                Kind::Hot => 4 << 20,
                Kind::Churn => 1 << 20,
            },
            planner: PlannerConfig {
                gpu: experiment_gpu(SuiteScale::Small),
                tile_w: tile,
                tile_h: tile,
                threshold: DEFAULT_SSF_THRESHOLD,
                fault: None,
            },
        }
    }
}

/// Generate the trace and run one untimed warm-up replay, whose ledger is
/// the reference every later replay must repeat.
fn setup(kind: Kind, seed: u64) -> Result<(Vec<Request>, ServeLedger, f64), String> {
    let clk = clock();
    let trace = tracegen::build(seed, kind.shape());
    let ledger = serve_trace(&trace, &kind.config(), &ObsContext::disabled(), false)
        .map_err(|e| format!("warm-up replay failed: {e}"))?;
    let secs = clk.now_ns() as f64 / 1e9;

    // The workload is only what it claims if these hold.
    let mut keys: BTreeMap<&str, &str> = BTreeMap::new();
    for r in &ledger.responses {
        keys.insert(&r.key, &r.choice);
    }
    let bstat = keys.values().filter(|c| **c == "b-stationary").count();
    if 4 * bstat < keys.len() {
        return Err(format!(
            "only {bstat} of {} distinct matrices plan B-stationary",
            keys.len()
        ));
    }
    if kind == Kind::Churn && keys.len() != ledger.responses.len() {
        return Err("a churn trace repeated a matrix".into());
    }
    Ok((trace, ledger, secs))
}

/// A direct run of one distinct (matrix, B) pair, outside the broker.
struct Direct {
    key: String,
    choice: Choice,
    sim_ns: u64,
    checksum: u64,
    host_ok: bool,
    baseline_ns: f64,
    oracle: Choice,
}

/// The (matrix, B) pair a request names: generator, n, density and
/// exponent bits, matrix seed, k, B seed.
type Pair = (String, u64, u64, u64, u64, u64, u64);

fn pair_of(r: &Request) -> Pair {
    (
        r.gen.clone(),
        r.n,
        r.density.to_bits(),
        r.exponent.to_bits(),
        r.seed,
        r.k,
        r.b_seed,
    )
}

/// Run the planned kernel for a request on a fresh artifact, check its C
/// against the host product, and audit the matrix with `explain` for the
/// baseline time and the oracle.
fn direct(req: &Request, planner: &SpmmPlanner) -> Result<Direct, String> {
    let cfg = planner.config();
    let a = generators::generate(&req.desc()?);
    let b = random_dense(a.shape().ncols, req.k as usize, req.b_seed);
    let (_, choice) = planner.plan(&a);
    let mut gpu = Gpu::new(cfg.gpu.clone()).map_err(|e| e.to_string())?;
    let run = match choice {
        Choice::BStationary => {
            let tiled = nmt_formats::TiledDcsr::from_csr(&a, cfg.tile_w, cfg.tile_h)
                .map_err(|e| format!("{e:?}"))?;
            bstat_tiled_dcsr_offline(&mut gpu, &tiled, &b)
        }
        Choice::CStationary => dcsrmm_row_per_warp(&mut gpu, &nmt_formats::Dcsr::from_csr(&a), &b),
    }
    .map_err(|e| e.to_string())?;
    let audit = planner
        .explain("direct", &a, &b, &ObsContext::disabled())
        .map_err(|e| e.to_string())?;
    Ok(Direct {
        key: MatrixFingerprint::of(&a, cfg.tile_w).key(),
        choice,
        sim_ns: run.stats.total_ns as u64,
        checksum: checksum_f32(run.c.as_slice()),
        host_ok: run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-3),
        baseline_ns: audit.baseline_ns,
        oracle: audit.oracle,
    })
}

fn choice_label(c: Choice) -> &'static str {
    match c {
        Choice::BStationary => "b-stationary",
        Choice::CStationary => "c-stationary",
    }
}

/// Answer checks, outside every timed window. For every distinct
/// (matrix, B) pair the planned kernel runs directly on a fresh artifact;
/// its C must match the host product, and every response's key, plan,
/// simulated time and checksum must equal that run. Every replay must
/// repeat the warm-up ledger. Rejections and errors count as failures.
struct Checker<'a> {
    trace: &'a [Request],
    reference: &'a ServeLedger,
    canonical: String,
    /// Index into `directs` of each request's pair, by request id.
    direct_of: BTreeMap<u64, usize>,
    directs: Vec<Direct>,
}

impl<'a> Checker<'a> {
    fn new(
        workers: usize,
        trace: &'a [Request],
        reference: &'a ServeLedger,
        planner: &SpmmPlanner,
    ) -> Result<Self, String> {
        let mut pairs: BTreeMap<Pair, usize> = BTreeMap::new();
        let mut firsts = Vec::new();
        let mut direct_of = BTreeMap::new();
        for r in trace {
            let i = *pairs.entry(pair_of(r)).or_insert_with(|| {
                firsts.push(r);
                firsts.len() - 1
            });
            direct_of.insert(r.id, i);
        }
        let directs = par_map(workers, firsts.len(), |i| direct(firsts[i], planner))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checker {
            trace,
            reference,
            canonical: reference.canonical_json(),
            direct_of,
            directs,
        })
    }

    fn direct(&self, id: u64) -> Option<&Direct> {
        self.direct_of.get(&id).map(|&i| &self.directs[i])
    }

    /// Check one replay, counting each failed request in `out`.
    fn check(&self, ledger: &Result<ServeLedger, ServeError>, out: &mut Outcome) {
        out.attempted += self.trace.len() as u64;
        let ledger = match ledger {
            Ok(l) => l,
            Err(e) => {
                out.failed += self.trace.len() as u64;
                out.problem(format!("replay failed: {e}"));
                return;
            }
        };
        for rej in &ledger.rejections {
            out.failed += 1;
            out.problem(format!("request {} rejected: {}", rej.id, rej.reason));
        }
        for row in &ledger.responses {
            let problem = match self.direct(row.id) {
                None => "names no request of the trace",
                Some(d) if !d.host_ok => "has a C that disagrees with the host product",
                Some(d)
                    if d.key != row.key
                        || choice_label(d.choice) != row.choice
                        || d.sim_ns != row.sim_ns
                        || d.checksum != row.checksum =>
                {
                    "disagrees with a direct run of its plan"
                }
                Some(_) => continue,
            };
            out.failed += 1;
            out.problem(format!("response {} {problem}", row.id));
        }
        if ledger.canonical_json() != self.canonical {
            out.problem("a replay did not repeat the warm-up ledger".into());
        }
    }

    /// The simulated figures of the warm-up replay: geomean speed-up of
    /// the responses over the baseline, SSF accuracy over the distinct
    /// matrices, and the ledger digest.
    fn summarise(&self, name: &str, out: &mut Outcome) -> (f64, f64) {
        let speedups: Vec<f64> = self
            .reference
            .responses
            .iter()
            .filter_map(|row| {
                let d = self.direct(row.id)?;
                Some(d.baseline_ns / (row.sim_ns as f64).max(1.0))
            })
            .collect();
        let mut per_matrix: BTreeMap<&str, bool> = BTreeMap::new();
        for d in &self.directs {
            per_matrix.insert(&d.key, d.choice == d.oracle);
        }
        let accuracy =
            per_matrix.values().filter(|ok| **ok).count() as f64 / per_matrix.len().max(1) as f64;
        let mut h = Fnv::new();
        h.bytes(self.canonical.as_bytes());
        out.notes.push(format!("sim_digest {name} {:016x}", h.0));
        (geomean(&speedups), accuracy)
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run(args: &RunArgs, kind: Kind) -> Result<Outcome, String> {
    let config = kind.config();
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let (trace, reference, secs) = setup(kind, args.seed)?;
        setup_secs.push(secs);
        last = Some((trace, reference));
    }
    let (trace, reference) = last.ok_or("no set-up ran")?;

    let planner = SpmmPlanner::new(config.planner.clone());
    let checker = Checker::new(args.workers, &trace, &reference, &planner)?;
    let mut out = Outcome::default();
    let clk = clock();
    // Per-request service time of each replay (a failed replay admits
    // nothing and is counted by the checks); true per-request latency
    // needs spans inside the broker.
    let (mut replays, mut wall_ns, mut per_request_ms) = (0, 0.0, Vec::new());
    while replays == 0 || (clk.now_ns() as f64) < args.seconds * 1e9 {
        let obs = ObsContext::disabled();
        let t0 = clk.now_ns();
        let ledger = serve_trace(&trace, &config, &obs, false);
        let ns = (clk.now_ns() - t0) as f64;
        replays += 1;
        wall_ns += ns;
        if let Some(n) = ledger
            .as_ref()
            .ok()
            .map(|l| l.counts.admitted)
            .filter(|&n| n > 0)
        {
            per_request_ms.push(ns / 1e6 / n as f64);
        }
        checker.check(&ledger, &mut out);
    }
    let (speedup, accuracy) = checker.summarise(kind.name(), &mut out);
    out.notes.push(format!(
        "{}: {replays} replays of {} requests in {:.3} s on {} workers; op_p50/p90 are over per-replay service time per request",
        kind.name(),
        trace.len(),
        wall_ns / 1e9,
        args.workers
    ));
    out.metrics = vec![
        Metric::new("ops_per_s", 1e3 / median(&per_request_ms), "ops/s"),
        Metric::new("op_p50_ms", median(&per_request_ms), "ms"),
        Metric::new("op_p90_ms", percentile(&per_request_ms, 0.9), "ms"),
        Metric::new("setup_s", median(&setup_secs), "s"),
        Metric::new("peak_rss_mb", crate::common::peak_rss_mib()?, "MiB"),
        Metric::new("sim_geomean_speedup", speedup, "x"),
        Metric::new("ssf_accuracy", accuracy, "fraction"),
    ];
    Ok(out)
}

/// What the traced walk learns about one request.
struct Walked {
    id: u64,
    key: String,
    choice: Choice,
    sim_ns: u64,
    checksum: u64,
    stats: KernelStats,
    computed: bool,
}

/// The calls `execute_one` makes for one dispatched request, each under a
/// span, against the walk's own plan cache.
fn walk_one(
    req: &Request,
    planner: &SpmmPlanner,
    cache: &PlanCache<CachedPlan>,
    rec: &Recorder,
) -> Result<Walked, ServeError> {
    let cfg = planner.config();
    let _r = rec.span("serve.request");
    let desc = req.desc().map_err(ServeError::Config)?;
    let a = {
        let _s = rec.span("matgen.generate");
        generators::generate(&desc)
    };
    let key = {
        let _s = rec.span("core.fingerprint");
        MatrixFingerprint::of(&a, cfg.tile_w).key()
    };
    let mut computed = false;
    let lookup = {
        let _s = rec.span("serve.acquire");
        cache.get_or_compute(&key, || -> Result<(CachedPlan, u64), ServeError> {
            computed = true;
            let (_, choice) = {
                let _s = rec.span("model.plan");
                planner.plan(&a)
            };
            let artifact = {
                let _s = rec.span("formats.artifact");
                match choice {
                    Choice::BStationary => ConversionArtifact::tiled(&a, cfg.tile_w, cfg.tile_h)
                        .map_err(|e| ServeError::Convert(format!("{e:?}")))?,
                    Choice::CStationary => ConversionArtifact::row_major(&a),
                }
            };
            let bytes = artifact.storage_bytes() as u64;
            Ok((CachedPlan { choice, artifact }, bytes))
        })?
    };
    if !lookup.evicted.is_empty() {
        let _s = rec.span("mem.recycle");
        for victim in lookup.evicted {
            if let Ok(plan) = Arc::try_unwrap(victim) {
                plan.artifact.recycle();
            }
        }
    }
    let plan = lookup.value;
    let b = {
        let _s = rec.span("matgen.dense");
        random_dense(a.shape().ncols, req.k as usize, req.b_seed)
    };
    let mut gpu = {
        let _s = rec.span("sim.gpu_new");
        Gpu::new(cfg.gpu.clone())?
    };
    let run = {
        let _s = rec.span("kernels.offline");
        match &plan.artifact {
            ConversionArtifact::RowMajor(d) => dcsrmm_row_per_warp(&mut gpu, d, &b)?,
            ConversionArtifact::Tiled(t) => bstat_tiled_dcsr_offline(&mut gpu, t, &b)?,
        }
    };
    Ok(Walked {
        id: req.id,
        key,
        choice: plan.choice,
        sim_ns: run.stats.total_ns as u64,
        checksum: checksum_f32(run.c.as_slice()),
        stats: run.stats,
        computed,
    })
}

/// Traced run: each op replays the trace through `serve_trace` (span
/// `serve.trace`), then walks the same dispatch order call by call on
/// the same number of workers (span `serve.walk`).
pub fn run_traced(args: &RunArgs, kind: Kind) -> Result<Outcome, String> {
    let config = kind.config();
    let planner = SpmmPlanner::new(config.planner.clone());
    let (trace, reference, _) = setup(kind, args.seed)?;
    let by_id: BTreeMap<u64, &Request> = trace.iter().map(|r| (r.id, r)).collect();
    let mut dispatch: Vec<(u64, u64)> = reference
        .responses
        .iter()
        .map(|r| (r.dispatch, r.id))
        .collect();
    dispatch.sort_unstable();
    let order: Vec<&Request> = dispatch
        .iter()
        .filter_map(|(_, id)| by_id.get(id).copied())
        .collect();

    let checker = Checker::new(args.workers, &trace, &reference, &planner)?;
    let mut out = Outcome::default();
    let clk = clock();
    let mut layers = Layers::default();
    let mut replays = 0u64;
    let (mut trace_ns, mut walk_ns) = (0.0, 0.0);
    let (mut hits, mut computes, mut waits, mut evictions, mut plans) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut last_spans = Vec::new();
    let pools_before = nmt_engine::mem::pool_stats();
    while replays == 0 || (clk.now_ns() as f64) < args.seconds * 1e9 {
        let rec = Recorder::with_capacity(1 << 16);
        let ledger = {
            let _s = rec.span("serve.trace");
            serve_trace(&trace, &config, &ObsContext::disabled(), true)
        };
        let cache: PlanCache<CachedPlan> = PlanCache::new(config.cache_budget_bytes);
        nmt_obs::alloc::enable_counting(true);
        let walked = {
            let _s = rec.span("serve.walk");
            par_map(args.workers, order.len(), |d| {
                walk_one(order[d], &planner, &cache, &rec)
            })
        };
        nmt_obs::alloc::enable_counting(false);

        let spans = rec.snapshot();
        let wall = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .sum::<f64>()
        };
        trace_ns += wall("serve.trace");
        walk_ns += wall("serve.walk");
        layers.add_spans(&spans);
        if let Ok(l) = &ledger {
            let rows: BTreeMap<u64, _> = l.responses.iter().map(|r| (r.id, r)).collect();
            let diverged = walked
                .iter()
                .filter(|w| {
                    !w.as_ref().is_ok_and(|w| {
                        rows.get(&w.id).is_some_and(|r| {
                            r.key == w.key
                                && r.choice == choice_label(w.choice)
                                && r.sim_ns == w.sim_ns
                                && r.checksum == w.checksum
                        })
                    })
                })
                .count();
            if diverged > 0 {
                out.problem(format!(
                    "{diverged} walked requests diverged from serve_trace"
                ));
            }
            if let Some(s) = &l.stats {
                hits += s.cache_hits;
                computes += s.cache_computes;
                waits += s.cache_waits;
                evictions += s.cache_evictions;
            }
        }
        for w in walked.iter().flatten() {
            layers.sim.entry("offline").or_default().add(&w.stats);
            plans += u64::from(w.computed);
            layers.ops += 1;
        }
        last_spans = spans;
        checker.check(&ledger, &mut out);
        replays += 1;
    }
    let pools = nmt_engine::mem::pool_stats();
    layers.traced_ns = args.workers as f64 * trace_ns;
    layers.close("serve.other", layers.ops);
    let coverage = layers.coverage("serve.other");

    checker.summarise(kind.name(), &mut out);
    for p in &layers.problems {
        out.problem(p.clone());
    }
    let hit_ratio = hits as f64 / (hits + computes).max(1) as f64;
    // Workload checks: the traffic is what the workload claims to be.
    match kind {
        Kind::Hot if hit_ratio < 0.95 => {
            out.problem(format!("serve-hot hit ratio {hit_ratio:.4} is below 0.95"));
        }
        Kind::Churn if plans != layers.ops => out.problem(format!(
            "serve-churn planned {plans} times for {} requests",
            layers.ops
        )),
        Kind::Churn if evictions == 0 => out.problem("serve-churn evicted nothing".into()),
        _ => {}
    }
    out.notes.push(format!(
        "traced {replays} replays: walk {:.3} s vs serve_trace {:.3} s; hit ratio {hit_ratio:.4}, {} plans for {} requests, {} evictions",
        walk_ns / 1e9,
        trace_ns / 1e9,
        plans,
        layers.ops,
        evictions
    ));
    let mut metrics: Vec<Metric> = layers
        .metrics()
        .into_iter()
        .map(|(n, v, u)| Metric::new(n, v, u))
        .collect();
    metrics.push(Metric::new("serve.cache.hit_ratio", hit_ratio, "fraction"));
    metrics.push(Metric::new(
        "serve.cache.evictions",
        evictions as f64 / replays as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "serve.cache.waits",
        waits as f64 / replays as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "mem.pool.hit_ratio",
        crate::pool_hit_ratio(&pools_before, &pools),
        "fraction",
    ));
    metrics.push(Metric::new(
        "trace.overhead",
        walk_ns / trace_ns.max(1.0) - 1.0,
        "fraction",
    ));
    metrics.push(Metric::new("trace.coverage", coverage, "fraction"));
    out.metrics = metrics;
    crate::write_trace_files(kind.name(), &last_spans, &layers)?;
    Ok(out)
}

/// The serve-only per-layer metrics, read as 0 on workloads without a
/// plan cache.
pub fn absent_serve_metrics() -> Vec<Metric> {
    vec![
        Metric::new("serve.cache.hit_ratio", 0.0, "fraction"),
        Metric::new("serve.cache.evictions", 0.0, "count"),
        Metric::new("serve.cache.waits", 0.0, "count"),
    ]
}
