//! The SSF-directed SpMM planner.

use crate::audit::{DecisionAudit, KernelAudit};
use nmt_engine::{conversion_energy_pj, ConversionStats};
use nmt_fault::{FaultPlan, FaultRecord, FaultSite};
use nmt_formats::{Csr, Dcsr, DenseMatrix, SparseMatrix};
use nmt_kernels::{bstat_tiled_dcsr_online_obs, csrmm_cusparse, dcsrmm_row_per_warp, KernelRun};
use nmt_model::ssf::{classify, Choice, SsfProfile, SsfThreshold};
use nmt_model::{Dataflow, TrafficModel};
use nmt_obs::ObsContext;
use nmt_sim::{publish_kernel_stats, Gpu, GpuConfig, KernelStats, SimError};
use serde::{Deserialize, Serialize};

/// Default decision threshold, learned offline by
/// `bench/src/bin/fig04_ssf_scatter.rs` over the synthetic suite (the
/// analogue of the paper's `SSF_th` learned over ~4,000 SuiteSparse
/// matrices). Re-learn with [`nmt_model::learn_threshold`] when the
/// workload population changes.
pub const DEFAULT_SSF_THRESHOLD: SsfThreshold = SsfThreshold {
    threshold: 2.55e4,
    accuracy: 0.82,
};

/// How far a candidate's C may sit from the baseline's, per cell and
/// relative to the larger magnitude: the kernels accumulate in different
/// orders, so their sums agree to rounding, not bit for bit.
const ANSWER_TOL: f32 = 1e-3;

/// The answer check every candidate run passes before its timing counts:
/// `c` must match the baseline's output within [`ANSWER_TOL`].
fn check_answer(
    algorithm: Algorithm,
    c: &DenseMatrix,
    baseline: &DenseMatrix,
) -> Result<(), SimError> {
    let err = c.max_scaled_diff(baseline);
    if err <= ANSWER_TOL {
        return Ok(());
    }
    Err(SimError::OutputMismatch {
        detail: format!(
            "{algorithm:?} output differs from the baseline's by max scaled error {err:.3e} \
             (bound {ANSWER_TOL:e})"
        ),
    })
}

/// Which concrete kernel the planner ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// C-stationary, untiled CSR, row-per-warp (also the baseline).
    CStationaryCsr,
    /// C-stationary, untiled DCSR, row-per-warp.
    CStationaryDcsr,
    /// B-stationary, online-tiled DCSR via the near-memory engine.
    BStationaryOnline,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Simulated GPU.
    pub gpu: GpuConfig,
    /// Strip/tile width (64 in the paper).
    pub tile_w: usize,
    /// Tile height (64 in the paper).
    pub tile_h: usize,
    /// Decision threshold.
    pub threshold: SsfThreshold,
    /// Optional fault-injection plan, installed on every GPU the planner
    /// builds except the baseline reference. Engine-side escalations
    /// trigger the degraded-mode B→C-stationary fallback; memory-site
    /// faults only perturb timing.
    pub fault: Option<FaultPlan>,
}

impl PlannerConfig {
    /// The paper's configuration: GV100, 64×64 tiles, learned threshold.
    pub fn paper_default() -> Self {
        Self {
            gpu: GpuConfig::gv100(),
            tile_w: 64,
            tile_h: 64,
            threshold: DEFAULT_SSF_THRESHOLD,
            fault: None,
        }
    }

    /// Small configuration for fast tests.
    pub fn test_small() -> Self {
        Self {
            gpu: GpuConfig::test_small(),
            tile_w: 16,
            tile_h: 16,
            threshold: DEFAULT_SSF_THRESHOLD,
            fault: None,
        }
    }

    /// The same configuration with a fault plan installed.
    pub fn with_fault(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault = plan;
        self
    }
}

/// Everything the planner learned and did for one matrix.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The SSF profile (terms + value).
    pub profile: SsfProfile,
    /// Heuristic decision.
    pub choice: Choice,
    /// Kernel actually executed.
    pub algorithm: Algorithm,
    /// Stats of the chosen kernel.
    pub stats: KernelStats,
    /// Stats of the cuSPARSE-baseline stand-in on the same matrix.
    pub baseline_stats: KernelStats,
    /// `baseline_time / chosen_time` (> 1 is a win).
    pub speedup: f64,
    /// Engine activity (present when the online path ran).
    pub engine: Option<ConversionStats>,
    /// Engine conversion energy in picojoules (0 for C-stationary).
    pub engine_energy_pj: f64,
    /// The computed product `C = A × B` from the chosen (or fallback)
    /// kernel — the differential fault tests compare this bitwise.
    pub c: DenseMatrix,
    /// The escalated fault this run absorbed via the degraded-mode
    /// fallback, if any.
    pub fault: Option<FaultRecord>,
}

/// One candidate kernel's run on a fresh cold-cache GPU, as
/// [`SpmmPlanner::run_candidate`] returns it.
#[derive(Debug, Clone)]
pub struct CandidateRun {
    /// Kernel actually executed: the candidate, or the C-stationary
    /// fallback when the B-stationary attempt escalated a fault.
    pub algorithm: Algorithm,
    /// Stats of the kernel that ran.
    pub stats: KernelStats,
    /// The computed product `C = A × B`.
    pub c: DenseMatrix,
    /// Engine activity (present when the online path ran).
    pub engine: Option<ConversionStats>,
    /// The escalated fault absorbed by the degraded-mode fallback, if any.
    pub fault: Option<FaultRecord>,
    /// Injected DRAM latency spikes on the GPU that produced `c`.
    pub dram_spikes: u64,
    /// Injected prefetch-buffer overflows on the GPU that produced `c`.
    pub prefetch_overflows: u64,
}

/// The auto-tuning SpMM planner.
#[derive(Debug, Clone)]
pub struct SpmmPlanner {
    config: PlannerConfig,
}

impl SpmmPlanner {
    /// Build a planner.
    pub fn new(config: PlannerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Profile a matrix and return the heuristic decision without running
    /// anything.
    pub fn plan(&self, a: &Csr) -> (SsfProfile, Choice) {
        let profile = SsfProfile::compute(a, self.config.tile_w);
        let choice = classify(profile.ssf, &self.config.threshold);
        (profile, choice)
    }

    /// The cuSPARSE-baseline stand-in on a fresh, fault-free GPU: the
    /// reference every candidate's speedup is measured against.
    fn run_baseline(&self, a: &Csr, b: &DenseMatrix) -> Result<KernelRun, SimError> {
        let mut gpu = Gpu::new(self.config.gpu.clone())?;
        csrmm_cusparse(&mut gpu, a, b)
    }

    /// Run one candidate kernel on a fresh, cold-cache GPU carrying the
    /// configured fault plan: untiled DCSR row-per-warp for
    /// [`Choice::CStationary`], the engine's online-tiled DCSR for
    /// [`Choice::BStationary`].
    ///
    /// This is the one home of the degraded-mode policy. When the
    /// B-stationary attempt escalates an injected engine fault (it
    /// survived its strip retry), the matrix falls back to the untiled
    /// C-stationary path on another fresh GPU with the same fault plan —
    /// the paper's hybrid switch used as a fault response; memory-site
    /// faults stay active but only perturb timing. The returned
    /// [`FaultRecord`] says `fell_back: true`, because this run's output
    /// is the fallback's.
    pub fn run_candidate(
        &self,
        choice: Choice,
        a: &Csr,
        b: &DenseMatrix,
        obs: &ObsContext,
    ) -> Result<CandidateRun, SimError> {
        let fresh_gpu = || -> Result<Gpu, SimError> {
            let mut gpu = Gpu::new(self.config.gpu.clone())?;
            gpu.set_fault_plan(self.config.fault);
            Ok(gpu)
        };
        let cstationary = |gpu: &mut Gpu| {
            let dcsr = {
                let _s = obs.span("engine.convert");
                Dcsr::from_csr(a)
            };
            let _s = obs.span("kernels.launch");
            dcsrmm_row_per_warp(gpu, &dcsr, b)
        };
        let mut gpu = fresh_gpu()?;
        let mut fault = None;
        let (algorithm, run, engine) = match choice {
            Choice::CStationary => (Algorithm::CStationaryDcsr, cstationary(&mut gpu)?, None),
            Choice::BStationary => match bstat_tiled_dcsr_online_obs(
                &mut gpu,
                &a.to_csc(),
                b,
                self.config.tile_w,
                self.config.tile_h,
                obs,
            ) {
                Ok(online) => (
                    Algorithm::BStationaryOnline,
                    online.run,
                    Some(online.engine),
                ),
                Err(SimError::InjectedFault { site, key, detail }) => {
                    obs.flight.record(
                        nmt_obs::EventSite::PlannerFallback,
                        site.code() as u32,
                        key,
                        0,
                    );
                    fault = Some(FaultRecord {
                        retried: site == FaultSite::ConvertStrip,
                        fell_back: true,
                        site,
                        key,
                        detail,
                    });
                    gpu = fresh_gpu()?;
                    (Algorithm::CStationaryDcsr, cstationary(&mut gpu)?, None)
                }
                Err(other) => return Err(other),
            },
        };
        let mem = gpu.memory();
        Ok(CandidateRun {
            algorithm,
            stats: run.stats,
            c: run.c,
            engine,
            fault,
            dram_spikes: mem.fault_dram_spikes(),
            prefetch_overflows: mem.fault_prefetch_overflows(),
        })
    }

    /// Profile, choose, execute and compare against the baseline.
    ///
    /// Each kernel runs on a fresh, cold-cache GPU instance so timings are
    /// comparable (the paper measures isolated kernels too).
    pub fn execute(&self, a: &Csr, b: &DenseMatrix) -> Result<PlanReport, SimError> {
        self.execute_with_obs(a, b, &ObsContext::disabled())
    }

    /// [`execute`](Self::execute) with an observability context: the run is
    /// decomposed into spans (`planner.execute` → `planner.plan`,
    /// `planner.baseline`, `planner.chosen`, with the chosen kernel's
    /// `engine.convert`/`kernels.launch` nested below), per-phase wall
    /// clock lands in `planner.phase.*_ns` gauges, and both kernels'
    /// [`KernelStats`] are bridged into the registry under
    /// `kernels.baseline.*` / `kernels.chosen.*`. The chosen kernel runs
    /// through [`run_candidate`](Self::run_candidate).
    pub fn execute_with_obs(
        &self,
        a: &Csr,
        b: &DenseMatrix,
        obs: &ObsContext,
    ) -> Result<PlanReport, SimError> {
        let mut root = obs.span("planner.execute");
        root.counter("nrows", a.shape().nrows as f64);
        root.counter("nnz", a.nnz() as f64);
        let phase_event = |phase: u32| {
            obs.flight.record(
                nmt_obs::EventSite::PlannerPhase,
                phase,
                a.shape().nrows as u64,
                a.nnz() as u64,
            );
        };

        let t0 = obs.recorder.now_ns();
        let (profile, choice) = {
            let mut s = obs.span("planner.plan");
            let (profile, choice) = self.plan(a);
            s.counter("ssf", profile.ssf);
            (profile, choice)
        };
        let t_plan = obs.recorder.now_ns();
        phase_event(0);

        let baseline = {
            let _s = obs.span("planner.baseline");
            self.run_baseline(a, b)?
        };
        publish_kernel_stats(obs, "kernels.baseline", &baseline.stats);
        let t_baseline = obs.recorder.now_ns();
        phase_event(1);

        let run = {
            let _s = obs.span("planner.chosen");
            self.run_candidate(choice, a, b, obs)?
        };
        let t_chosen = obs.recorder.now_ns();
        phase_event(2);

        publish_kernel_stats(obs, "kernels.chosen", &run.stats);
        if run.fault.is_some() {
            obs.metrics.counter_add("fault.fallbacks", 1);
        }
        if run.dram_spikes > 0 {
            obs.metrics
                .counter_add("fault.dram_spikes", run.dram_spikes);
        }
        if run.prefetch_overflows > 0 {
            obs.metrics
                .counter_add("fault.prefetch_overflows", run.prefetch_overflows);
        }
        obs.metrics
            .gauge_set("planner.phase.plan_ns", (t_plan - t0) as f64);
        obs.metrics
            .gauge_set("planner.phase.baseline_ns", (t_baseline - t_plan) as f64);
        obs.metrics
            .gauge_set("planner.phase.chosen_ns", (t_chosen - t_baseline) as f64);

        check_answer(run.algorithm, &run.c, &baseline.c)?;
        let engine_energy_pj = run
            .engine
            .as_ref()
            .map_or(0.0, |e| conversion_energy_pj(e, false));
        let speedup = baseline.stats.total_ns / run.stats.total_ns.max(1e-9);
        root.counter("speedup", speedup);
        Ok(PlanReport {
            profile,
            choice,
            algorithm: run.algorithm,
            speedup,
            stats: run.stats,
            baseline_stats: baseline.stats,
            engine: run.engine,
            engine_energy_pj,
            c: run.c,
            fault: run.fault,
        })
    }

    /// Audit one matrix end to end: profile it, run the baseline **and
    /// both** candidate kernels through
    /// [`run_candidate`](Self::run_candidate), compare the heuristic's
    /// pick against the measured oracle, and cross-check each kernel's
    /// per-class DRAM bytes against the Table 1 analytical model
    /// ([`TrafficModel::estimate_with_ncols`] for C-stationary,
    /// [`TrafficModel::estimate_online_bstationary`] for the engine path).
    ///
    /// The audit is published into `obs` ([`DecisionAudit::publish`]):
    /// model relative-error gauges/histograms and mispick counters, which
    /// accumulate across calls sharing one context. Everything in the
    /// returned [`DecisionAudit`] is simulated, so two calls with the same
    /// inputs produce identical audits.
    pub fn explain(
        &self,
        name: &str,
        a: &Csr,
        b: &DenseMatrix,
        obs: &ObsContext,
    ) -> Result<DecisionAudit, SimError> {
        let mut root = obs.span("planner.explain");
        root.counter("nnz", a.nnz() as f64);
        let (profile, chosen) = self.plan(a);

        let baseline = {
            let _s = obs.span("audit.baseline");
            self.run_baseline(a, b)?
        };
        let model = TrafficModel::measure(a, self.config.tile_w);
        let k = b.ncols() as f64;
        let c_run = {
            let _s = obs.span("audit.cstationary");
            self.run_candidate(Choice::CStationary, a, b, obs)?
        };
        let b_run = {
            let _s = obs.span("audit.bstationary");
            self.run_candidate(Choice::BStationary, a, b, obs)?
        };
        check_answer(c_run.algorithm, &c_run.c, &baseline.c)?;
        check_answer(b_run.algorithm, &b_run.c, &baseline.c)?;
        // A degraded b-side ran C-stationary, so it is labelled and
        // validated as such. The fallback only stood in for the chosen
        // kernel when the heuristic picked B-stationary.
        let (b_label, b_predicted) = match b_run.algorithm {
            Algorithm::BStationaryOnline => {
                ("b-stationary-online", model.estimate_online_bstationary(k))
            }
            _ => (
                "b-stationary-fallback",
                model.estimate_with_ncols(Dataflow::CStationary, k),
            ),
        };
        let fault = b_run.fault.map(|f| FaultRecord {
            fell_back: chosen == Choice::BStationary,
            ..f
        });

        let baseline_ns = baseline.stats.total_ns;
        let cstationary = KernelAudit::new(
            "c-stationary",
            baseline_ns,
            &c_run.stats,
            &model.estimate_with_ncols(Dataflow::CStationary, k),
        );
        let bstationary = KernelAudit::new(b_label, baseline_ns, &b_run.stats, &b_predicted);

        // Oracle: measured winner; ties prefer C-stationary (no atomics).
        let oracle = if b_run.stats.total_ns < c_run.stats.total_ns {
            Choice::BStationary
        } else {
            Choice::CStationary
        };
        let time_of = |c: Choice| match c {
            Choice::CStationary => c_run.stats.total_ns,
            Choice::BStationary => b_run.stats.total_ns,
        };
        let mispick = chosen != oracle;
        let mispick_cost = time_of(chosen) / time_of(oracle).max(1e-9);
        root.counter("mispick", mispick as u64 as f64);

        let audit = DecisionAudit {
            matrix: name.to_string(),
            nrows: a.shape().nrows,
            ncols: a.shape().ncols,
            nnz: a.nnz(),
            k: b.ncols(),
            tile: self.config.tile_w,
            profile,
            threshold: self.config.threshold.threshold,
            chosen,
            oracle,
            mispick,
            mispick_cost,
            baseline_ns,
            cstationary,
            bstationary,
            fault,
        };
        audit.publish(obs);
        Ok(audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_matgen::{generators, random_dense, GenKind, MatrixDesc};

    fn planner() -> SpmmPlanner {
        SpmmPlanner::new(PlannerConfig::test_small())
    }

    #[test]
    fn plan_is_deterministic() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::Uniform { density: 0.01 },
            1,
        ));
        let p = planner();
        let (prof1, c1) = p.plan(&a);
        let (prof2, c2) = p.plan(&a);
        assert_eq!(prof1, prof2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn execute_produces_correct_output_and_speedup() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::ZipfRows {
                density: 0.01,
                exponent: 1.2,
            },
            2,
        ));
        let b = random_dense(128, 16, 3);
        let report = planner().execute(&a, &b).unwrap();
        assert!(report.speedup > 0.0);
        assert!(report.baseline_stats.total_ns > 0.0);
        match report.algorithm {
            Algorithm::BStationaryOnline => {
                assert!(report.engine.is_some());
                assert!(report.engine_energy_pj > 0.0);
            }
            _ => assert!(report.engine.is_none()),
        }
    }

    #[test]
    fn forced_thresholds_select_each_branch() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::Uniform { density: 0.02 },
            4,
        ));
        let b = random_dense(128, 16, 5);
        let mut cfg = PlannerConfig::test_small();
        cfg.threshold = SsfThreshold {
            threshold: f64::INFINITY,
            accuracy: 1.0,
        };
        let rep = SpmmPlanner::new(cfg.clone()).execute(&a, &b).unwrap();
        assert_eq!(rep.algorithm, Algorithm::CStationaryDcsr);
        cfg.threshold = SsfThreshold {
            threshold: -1.0,
            accuracy: 1.0,
        };
        let rep = SpmmPlanner::new(cfg).execute(&a, &b).unwrap();
        assert_eq!(rep.algorithm, Algorithm::BStationaryOnline);
        assert_eq!(rep.engine.as_ref().unwrap().elements as usize, a.nnz());
    }

    #[test]
    fn execute_with_obs_builds_nested_plan_convert_kernel_spans() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::Uniform { density: 0.02 },
            8,
        ));
        let b = random_dense(128, 16, 9);
        let mut cfg = PlannerConfig::test_small();
        cfg.threshold = SsfThreshold {
            threshold: -1.0,
            accuracy: 1.0,
        };
        let obs = ObsContext::enabled();
        let rep = SpmmPlanner::new(cfg)
            .execute_with_obs(&a, &b, &obs)
            .unwrap();
        assert_eq!(rep.algorithm, Algorithm::BStationaryOnline);

        let spans = obs.recorder.snapshot();
        let by_name = |n: &str| {
            spans
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("missing span {n}"))
        };
        let root = by_name("planner.execute");
        assert_eq!(root.parent, None);
        for child in ["planner.plan", "planner.baseline", "planner.chosen"] {
            assert_eq!(by_name(child).parent, Some(root.id), "{child}");
        }
        let chosen = by_name("planner.chosen");
        assert_eq!(by_name("engine.convert").parent, Some(chosen.id));
        assert_eq!(by_name("kernels.launch").parent, Some(chosen.id));

        // Per-phase wall clock and both kernel-stat bridges landed.
        for g in [
            "planner.phase.plan_ns",
            "planner.phase.baseline_ns",
            "planner.phase.chosen_ns",
        ] {
            assert!(obs.metrics.gauge(g).is_some(), "missing gauge {g}");
        }
        assert!(obs.metrics.counter("kernels.baseline.dram_bytes.mat_a") > 0);
        assert!(obs.metrics.counter("kernels.chosen.dram_bytes.mat_a") > 0);
        assert!(obs
            .metrics
            .gauge("engine.pipeline.prefetch_hit_rate")
            .is_some());
        assert!(obs.metrics.gauge("engine.comparator.occupancy").is_some());
    }

    #[test]
    fn execute_and_execute_with_obs_agree() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            96,
            GenKind::Uniform { density: 0.02 },
            10,
        ));
        let b = random_dense(96, 8, 11);
        let p = planner();
        let plain = p.execute(&a, &b).unwrap();
        let obs = ObsContext::enabled();
        let observed = p.execute_with_obs(&a, &b, &obs).unwrap();
        assert_eq!(plain.algorithm, observed.algorithm);
        assert_eq!(plain.choice, observed.choice);
        assert!((plain.speedup - observed.speedup).abs() < 1e-9);
    }

    #[test]
    fn explain_is_deterministic_and_consistent_with_execute() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::ZipfRows {
                density: 0.02,
                exponent: 1.2,
            },
            12,
        ));
        let b = random_dense(128, 16, 13);
        let p = planner();
        let audit1 = p.explain("t", &a, &b, &ObsContext::disabled()).unwrap();
        let audit2 = p.explain("t", &a, &b, &ObsContext::disabled()).unwrap();
        assert_eq!(audit1, audit2, "explain must be reproducible");
        assert_eq!(audit1.to_json(), audit2.to_json());

        // The audit's chosen side matches what execute actually runs.
        let report = p.execute(&a, &b).unwrap();
        assert_eq!(audit1.chosen, report.choice);
        assert!((audit1.baseline_ns - report.baseline_stats.total_ns).abs() < 1e-9);
        assert!((audit1.chosen_audit().time_ns - report.stats.total_ns).abs() < 1e-9);
        assert!((audit1.chosen_speedup() - report.speedup).abs() < 1e-9);

        // Oracle bookkeeping is internally consistent.
        let faster = audit1
            .cstationary
            .time_ns
            .min(audit1.bstationary.time_ns);
        assert!((audit1.oracle_audit().time_ns - faster).abs() < 1e-9);
        assert_eq!(audit1.mispick, audit1.chosen != audit1.oracle);
        assert!(audit1.mispick_cost >= 1.0 - 1e-12);
    }

    #[test]
    fn zero_tile_height_is_a_config_error_not_a_panic() {
        // The online candidate's farm rejects the geometry, so a sweep
        // records an error row for the matrix instead of aborting.
        let a = generators::generate(&MatrixDesc::new(
            "t",
            64,
            GenKind::Uniform { density: 0.05 },
            3,
        ));
        let b = random_dense(64, 8, 4);
        let p = SpmmPlanner::new(PlannerConfig {
            tile_h: 0,
            ..PlannerConfig::test_small()
        });
        let audit = p.explain("t", &a, &b, &ObsContext::disabled());
        assert!(matches!(audit, Err(SimError::BadConfig(_))), "{audit:?}");
    }

    #[test]
    fn explain_publishes_model_validation_metrics() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::Uniform { density: 0.02 },
            14,
        ));
        let b = random_dense(128, 16, 15);
        let obs = ObsContext::enabled();
        let audit = planner().explain("t", &a, &b, &obs).unwrap();
        for df in ["c_stationary", "b_stationary_online"] {
            for class in ["mat_a", "mat_b", "mat_c"] {
                let name = format!("audit.model.{df}.rel_err.{class}");
                assert!(obs.metrics.gauge(&name).is_some(), "missing {name}");
            }
            assert!(obs
                .metrics
                .gauge(&format!("audit.model.{df}.mean_abs_rel_err"))
                .is_some());
        }
        assert_eq!(obs.metrics.counter("audit.decisions"), 1);
        assert_eq!(
            obs.metrics.counter("audit.mispicks"),
            audit.mispick as u64
        );
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.histograms["audit.model.abs_rel_err_pct"].count, 6);
        // Both kernels produced per-class DRAM byte maps and validations.
        for side in [&audit.cstationary, &audit.bstationary] {
            assert_eq!(side.validation.len(), 3);
            assert!(side.dram_bytes["mat_a"] > 0);
            assert!(side.time_ns > 0.0);
        }
    }

    #[test]
    fn forced_fault_triggers_audited_fallback() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::Uniform { density: 0.02 },
            20,
        ));
        let b = random_dense(128, 16, 21);
        let mut cfg = PlannerConfig::test_small();
        cfg.threshold = SsfThreshold {
            threshold: -1.0,
            accuracy: 1.0,
        };
        // Rate 1.0 fires every site, so the B-stationary attempt escalates
        // and the planner must fall back — never panic, never Err.
        let faulted = SpmmPlanner::new(cfg.clone().with_fault(Some(FaultPlan::from_rate(1, 1.0))))
            .execute(&a, &b)
            .unwrap();
        assert_eq!(faulted.choice, Choice::BStationary, "heuristic unchanged");
        assert_eq!(faulted.algorithm, Algorithm::CStationaryDcsr, "ran fallback");
        let rec = faulted.fault.as_ref().expect("fault audited");
        assert!(rec.fell_back);
        assert!(faulted.engine.is_none());

        // The fallback output is bitwise-identical to a clean run forced
        // down the C-stationary path (memory faults are timing-only).
        cfg.threshold = SsfThreshold {
            threshold: f64::INFINITY,
            accuracy: 1.0,
        };
        let clean = SpmmPlanner::new(cfg.clone()).execute(&a, &b).unwrap();
        assert_eq!(clean.algorithm, Algorithm::CStationaryDcsr);
        assert_eq!(faulted.c, clean.c);

        // `explain` audits the same fault through the same policy: when B
        // is chosen its record equals `execute`'s, and when C is chosen
        // the b-side fault is still audited but nothing fell back.
        let plan = Some(FaultPlan::from_rate(1, 1.0));
        let obs = ObsContext::disabled();
        let mut forced_b = cfg.clone().with_fault(plan);
        forced_b.threshold.threshold = -1.0;
        let audit = SpmmPlanner::new(forced_b)
            .explain("t", &a, &b, &obs)
            .unwrap();
        assert_eq!(audit.fault, faulted.fault);
        assert_eq!(audit.bstationary.dataflow, "b-stationary-fallback");

        let forced_c = SpmmPlanner::new(cfg.with_fault(plan));
        let audit = forced_c.explain("t", &a, &b, &obs).unwrap();
        assert_eq!(audit.chosen, Choice::CStationary);
        let rec = audit.fault.as_ref().expect("b-side fault audited");
        assert!(!rec.fell_back);
        assert_eq!(audit.bstationary.dataflow, "b-stationary-fallback");
        let executed = forced_c.execute(&a, &b).unwrap();
        assert!(executed.fault.is_none(), "C-stationary never escalates");
    }

    #[test]
    fn faulted_execute_and_explain_agree() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::ZipfRows {
                density: 0.02,
                exponent: 1.2,
            },
            22,
        ));
        let b = random_dense(128, 16, 23);
        let cfg = PlannerConfig::test_small().with_fault(Some(FaultPlan::from_rate(3, 1.0)));
        let p = SpmmPlanner::new(cfg);
        let report = p.execute(&a, &b).unwrap();
        let audit = p.explain("t", &a, &b, &ObsContext::disabled()).unwrap();
        let audit2 = p.explain("t", &a, &b, &ObsContext::disabled()).unwrap();
        assert_eq!(audit, audit2, "faulted explain must be reproducible");
        assert!(audit.fault.is_some(), "explain audits the escalation");
        assert_eq!(audit.chosen, report.choice);
        assert!((audit.chosen_audit().time_ns - report.stats.total_ns).abs() < 1e-9);
        if report.choice == Choice::BStationary {
            assert_eq!(audit.bstationary.dataflow, "b-stationary-fallback");
            assert!(report.fault.is_some());
        }
    }

    #[test]
    fn zero_rate_plan_matches_unfaulted_run() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            96,
            GenKind::Uniform { density: 0.02 },
            24,
        ));
        let b = random_dense(96, 8, 25);
        let clean = planner().execute(&a, &b).unwrap();
        let planned =
            SpmmPlanner::new(PlannerConfig::test_small().with_fault(Some(FaultPlan::new(7, 0))))
                .execute(&a, &b)
                .unwrap();
        assert_eq!(clean.c, planned.c);
        assert_eq!(clean.algorithm, planned.algorithm);
        assert!((clean.speedup - planned.speedup).abs() < 1e-12);
        assert!(planned.fault.is_none());
    }

    #[test]
    fn run_candidate_runs_each_choice_on_its_own_kernel() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            96,
            GenKind::BlockDiag {
                block: 16,
                fill: 0.3,
                background: 0.001,
            },
            6,
        ));
        let b = random_dense(96, 16, 7);
        let p = planner();
        let obs = ObsContext::disabled();
        let c = p.run_candidate(Choice::CStationary, &a, &b, &obs).unwrap();
        let online = p.run_candidate(Choice::BStationary, &a, &b, &obs).unwrap();
        assert_eq!(c.algorithm, Algorithm::CStationaryDcsr);
        assert_eq!(online.algorithm, Algorithm::BStationaryOnline);
        assert!(c.engine.is_none() && c.fault.is_none());
        assert_eq!(online.engine.as_ref().unwrap().elements as usize, a.nnz());
        assert!(online.fault.is_none());
        assert!(c.stats.total_ns > 0.0 && online.stats.total_ns > 0.0);
        assert!(
            c.c.approx_eq(&online.c, 1e-3),
            "both candidates compute A × B"
        );
    }

    #[test]
    fn answer_check_passes_equal_outputs_and_names_a_wrong_one() {
        let baseline = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f32);
        assert!(check_answer(Algorithm::CStationaryDcsr, &baseline, &baseline).is_ok());
        let mut wrong = baseline.clone();
        wrong.add(2, 1, 1e-2);
        match check_answer(Algorithm::BStationaryOnline, &wrong, &baseline) {
            Err(SimError::OutputMismatch { detail }) => {
                assert!(detail.contains("BStationaryOnline"), "{detail}");
                assert!(detail.contains("max scaled error"), "{detail}");
            }
            other => panic!("a perturbed C must fail the check: {other:?}"),
        }
    }
}
