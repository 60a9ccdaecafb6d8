//! Figure 4 — performance vs. SSF value, and the learned threshold.
//!
//! For every suite matrix, run both algorithms (C-stationary untiled DCSR,
//! B-stationary online-tiled DCSR), plot `t_C / t_B` against the SSF value,
//! learn the split threshold, and report the classification accuracy
//! (paper: >93 %).

use nmt::planner::{PlannerConfig, SpmmPlanner};
use nmt_bench::{
    banner, build_suite, experiment_k, experiment_scale, experiment_tile, par_map_suite,
    print_table,
};
use nmt_formats::SparseMatrix;
use nmt_matgen::random_dense;
use nmt_model::ssf::{Choice, SsfProfile};
use nmt_model::{classify, learn_threshold};
use nmt_obs::ObsContext;

fn main() {
    banner(
        "fig04_ssf_scatter",
        "Figure 4: performance vs SSF value + learned SSF_th",
    );
    let suite = build_suite();
    let scale = experiment_scale();
    let tile = experiment_tile(scale);
    let k = experiment_k(scale);

    let points = par_map_suite(&suite, |desc, a| {
        let profile = SsfProfile::compute(a, tile);
        let b = random_dense(a.shape().ncols, k, desc.seed ^ 0x4);
        let planner = SpmmPlanner::new(PlannerConfig {
            gpu: nmt_bench::experiment_gpu(experiment_scale()),
            tile_w: tile,
            tile_h: tile,
            threshold: nmt::DEFAULT_SSF_THRESHOLD,
            fault: None,
        });
        let time_of = |choice| {
            planner
                .run_candidate(choice, a, &b, &ObsContext::disabled())
                .expect("both kernels run")
                .stats
                .total_ns
        };
        let ratio = time_of(Choice::CStationary) / time_of(Choice::BStationary);
        (desc.name.clone(), profile, ratio)
    });

    let mut rows: Vec<Vec<String>> = points
        .iter()
        .map(|(name, p, ratio)| {
            vec![
                name.clone(),
                format!("{:.3e}", p.ssf),
                format!("{:.3}", p.h_norm),
                format!("{:.3}", ratio),
                if *ratio > 1.0 { "B-stat" } else { "C-stat" }.into(),
            ]
        })
        .collect();
    rows.sort_by(|a, b| {
        let av: f64 = a[1].parse().unwrap_or(0.0);
        let bv: f64 = b[1].parse().unwrap_or(0.0);
        av.partial_cmp(&bv).expect("finite SSF")
    });
    print_table(&["matrix", "SSF", "H_norm", "t_C/t_B", "winner"], &rows);

    let samples: Vec<(f64, f64)> = points.iter().map(|(_, p, r)| (p.ssf, *r)).collect();
    let th = learn_threshold(&samples);
    let correct = samples
        .iter()
        .filter(|&&(ssf, ratio)| {
            let predicted_b = classify(ssf, &th) == Choice::BStationary;
            predicted_b == (ratio > 1.0)
        })
        .count();
    println!();
    println!("matrices profiled      : {}", samples.len());
    println!("learned SSF_th         : {:.4e}", th.threshold);
    println!(
        "classification accuracy: {:.1}% ({} / {})",
        th.accuracy * 100.0,
        correct,
        samples.len()
    );
    println!(
        "paper                  : >93% correctly categorized (Fig. 4), ~96% with online tiling"
    );
}
