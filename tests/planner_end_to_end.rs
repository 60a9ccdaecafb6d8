//! End-to-end planner tests: profile → choose → execute across every
//! structural family, plus whole-matrix engine-farm conversion and the
//! multi-GPU streaming model.

use spmm_nmt::engine::{convert_matrix_farm, FarmConfig, Layout};
use spmm_nmt::formats::{SparseMatrix, TiledDcsr};
use spmm_nmt::kernels::host;
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc};
use spmm_nmt::model::ssf::Choice;
use spmm_nmt::planner::multi_gpu::{plan_streamed_spmm, LargeSpmmProblem, MultiGpuConfig};
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};

fn planner() -> SpmmPlanner {
    SpmmPlanner::new(PlannerConfig::test_small())
}

fn families(n: usize) -> Vec<MatrixDesc> {
    vec![
        MatrixDesc::new("uniform", n, GenKind::Uniform { density: 0.01 }, 1),
        MatrixDesc::new(
            "zipf",
            n,
            GenKind::ZipfRows {
                density: 0.01,
                exponent: 1.2,
            },
            2,
        ),
        MatrixDesc::new(
            "banded",
            n,
            GenKind::Banded {
                bandwidth: 6,
                fill: 0.5,
            },
            3,
        ),
        MatrixDesc::new(
            "blockdiag",
            n,
            GenKind::BlockDiag {
                block: 24,
                fill: 0.3,
                background: 1e-4,
            },
            4,
        ),
        MatrixDesc::new(
            "rowburst",
            n,
            GenKind::RowBursts {
                density: 0.01,
                burst_len: 12,
            },
            5,
        ),
        MatrixDesc::new(
            "rmat",
            n,
            GenKind::Rmat {
                a: 0.57,
                b: 0.19,
                c: 0.19,
                edge_factor: 4,
            },
            6,
        ),
    ]
}

#[test]
fn planner_is_correct_on_every_family() {
    let p = planner();
    for desc in families(192) {
        let a = generators::generate(&desc);
        let b = random_dense(a.shape().ncols, 16, desc.seed ^ 99);
        let report = p.execute(&a, &b).unwrap_or_else(|e| {
            panic!("planner failed on {}: {e}", desc.name);
        });
        // The chosen kernel's functional output already passed the
        // debug_assert against the baseline inside execute(); check the
        // report invariants here.
        assert!(report.speedup > 0.0, "{}: non-positive speedup", desc.name);
        assert!(
            report.stats.total_ns > 0.0 && report.baseline_stats.total_ns > 0.0,
            "{}: degenerate timing",
            desc.name
        );
        match report.choice {
            Choice::BStationary => {
                let engine = report
                    .engine
                    .as_ref()
                    .expect("online path reports engine stats");
                assert_eq!(engine.elements as usize, a.nnz(), "{}", desc.name);
                assert!(report.engine_energy_pj > 0.0 || a.nnz() == 0);
            }
            Choice::CStationary => assert!(report.engine.is_none()),
        }
    }
}

#[test]
fn heuristic_separates_clustered_from_scattered() {
    let p = planner();
    let scattered = generators::generate(&MatrixDesc::new(
        "u",
        256,
        GenKind::Uniform { density: 0.01 },
        7,
    ));
    let clustered = generators::generate(&MatrixDesc::new(
        "rb",
        256,
        GenKind::RowBursts {
            density: 0.02,
            burst_len: 16,
        },
        8,
    ));
    let (ps, _) = p.plan(&scattered);
    let (pc, _) = p.plan(&clustered);
    assert!(
        pc.ssf > ps.ssf,
        "clustered SSF {} must exceed scattered SSF {}",
        pc.ssf,
        ps.ssf
    );
    // And entropy orders the other way.
    assert!(pc.h_norm < ps.h_norm);
}

#[test]
fn engine_farm_serves_a_full_matrix_correctly() {
    let a = generators::generate(&MatrixDesc::new(
        "q",
        96,
        GenKind::ZipfBoth {
            density: 0.03,
            exponent: 1.0,
        },
        11,
    ));
    let csc = a.to_csc();
    let offline = TiledDcsr::from_csc(&csc, 16, 16).expect("tiling");
    let config = FarmConfig {
        layout: Layout::TileRotated,
        ..FarmConfig::for_partitions(8)
    };
    let farm = convert_matrix_farm(&csc, 16, 16, config).expect("valid farm config");
    let ntiles = 96usize.div_ceil(16);
    assert_eq!(farm.strips.len(), offline.strips().len());
    assert_eq!(farm.stats.tiles as usize, farm.strips.len() * ntiles);
    for (s, strip) in farm.strips.iter().enumerate() {
        assert_eq!(strip.len(), ntiles);
        for (t, tile) in strip.iter().enumerate() {
            assert_eq!(tile, &offline.strips()[s][t], "strip {s} tile {t}");
        }
    }
    // Rotation over 8 partitions puts every engine to work.
    assert!(farm.per_partition.iter().all(|p| p.tiles > 0));
    assert_eq!(farm.stats.elements as usize, a.nnz());
}

#[test]
fn multi_gpu_plan_scales_and_respects_memory() {
    let p = LargeSpmmProblem {
        n: 1_000_000,
        k: 500_000,
        nnz: 20_000_000,
    };
    let one = plan_streamed_spmm(&p, &MultiGpuConfig::gv100_cluster(1)).expect("planable");
    let four = plan_streamed_spmm(&p, &MultiGpuConfig::gv100_cluster(4)).expect("planable");
    assert!(four.overlapped_s < one.overlapped_s);
    assert_eq!(four.cols_per_gpu, 125_000);
    // The dense matrices genuinely do not fit in one GPU.
    assert!(p.dense_bytes() > MultiGpuConfig::gv100_cluster(1).device_mem_bytes);
}

#[test]
fn planner_handles_empty_matrix() {
    let a = spmm_nmt::formats::Csr::new(64, 64, vec![0; 65], vec![], vec![]).expect("empty");
    let b = random_dense(64, 8, 1);
    let report = planner().execute(&a, &b).expect("empty matrix plans");
    assert_eq!(report.stats.flops, 0, "no non-zeros means no FP work");
    let reference = host::spmm_csr(&a, &b);
    assert!(reference.as_slice().iter().all(|&v| v == 0.0));
}

#[test]
fn planner_handles_zero_dimension_matrix() {
    // ncols == 0 exercises the phantom-strip convention end to end:
    // `strip_count` reports one empty strip, the engine converts it to
    // nothing, and the planner still produces a coherent report.
    let a = spmm_nmt::formats::Csr::new(0, 0, vec![0], vec![], vec![]).expect("zero-dim");
    let b = spmm_nmt::formats::DenseMatrix::zeros(0, 8);
    let report = planner().execute(&a, &b).expect("zero-dim matrix plans");
    assert_eq!(report.stats.flops, 0, "no dimensions means no FP work");

    // The engine side of the same convention: one phantom strip holding
    // one phantom (empty) tile, mirroring `strip_count`/`tile_count`.
    let csc = a.to_csc();
    let farm =
        convert_matrix_farm(&csc, 16, 16, FarmConfig::paper_default()).expect("zero-dim farm");
    assert_eq!(farm.strips.len(), 1, "zero-width matrix still owns one strip");
    assert_eq!(farm.strips[0].len(), 1, "zero-height strip still owns one tile");
    assert_eq!(farm.strips[0][0].nnz(), 0);
    assert_eq!(farm.stats.elements, 0);
}
