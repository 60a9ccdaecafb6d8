//! The engine's defining property: **online CSC→DCSR conversion is
//! bit-identical to offline tiling**, for any matrix, any tile geometry,
//! any request order, and any engine-farm partition count or layout.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spmm_nmt::engine::comparator::ComparatorTree;
use spmm_nmt::engine::{
    convert_matrix_farm, ConversionStats, EngineTiming, FarmConfig, FarmRun, Layout,
    StripConverter,
};
use spmm_nmt::formats::{Coo, Csc, Csr, SparseMatrix, TiledDcsr};

fn csr_strategy() -> impl Strategy<Value = Csr> {
    (2usize..=48, 2usize..=48).prop_flat_map(|(nrows, ncols)| {
        let entry = (0..nrows as u32, 0..ncols as u32, 1i32..100);
        proptest::collection::vec(entry, 0..150).prop_map(move |entries| {
            let mut coo = Coo::new(nrows, ncols).expect("small dims");
            for (r, c, v) in entries {
                coo.push(r, c, v as f32).expect("in bounds");
            }
            coo.canonicalize();
            Csr::from_coo(&coo)
        })
    })
}

/// A farm of 1..=8 partitions under either layout.
fn farm_strategy() -> impl Strategy<Value = FarmConfig> {
    (1usize..=8, proptest::bool::ANY).prop_map(|(partitions, rotated)| FarmConfig {
        layout: if rotated {
            Layout::TileRotated
        } else {
            Layout::StripPerPartition
        },
        ..FarmConfig::for_partitions(partitions)
    })
}

/// Convert through the farm under `config`, checking that neither the
/// partition count nor the layout changes the tiles or the total stats
/// (the reference is the paper's 64-partition rotated farm).
fn convert(
    csc: &Csc,
    tile_w: usize,
    tile_h: usize,
    config: FarmConfig,
) -> Result<FarmRun, TestCaseError> {
    let run = convert_matrix_farm(csc, tile_w, tile_h, config).expect("valid farm geometry");
    let reference = convert_matrix_farm(csc, tile_w, tile_h, FarmConfig::paper_default())
        .expect("valid farm geometry");
    prop_assert_eq!(&run.strips, &reference.strips);
    prop_assert_eq!(run.stats, reference.stats);
    Ok(run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn online_equals_offline(
        csr in csr_strategy(),
        tile_w in 1usize..=32,
        tile_h in 1usize..=32,
        farm in farm_strategy(),
    ) {
        let csc = csr.to_csc();
        let offline = TiledDcsr::from_csr(&csr, tile_w, tile_h).expect("tiling");
        let online = convert(&csc, tile_w, tile_h, farm)?;
        prop_assert_eq!(online.strips.len(), offline.strips().len());
        for (s, strip) in offline.strips().iter().enumerate() {
            prop_assert_eq!(&online.strips[s], strip);
        }
        let stats = online.stats;
        prop_assert_eq!(stats.elements as usize, csr.nnz());
        prop_assert_eq!(stats.tiles as usize, offline.num_strips() * offline.tiles_per_strip());
    }

    #[test]
    fn random_access_equals_sequential(csr in csr_strategy(), tile_h in 1usize..=16) {
        let csc = csr.to_csc();
        let tile_w = 8usize;
        if csc.shape().ncols == 0 { return Ok(()); }
        let ntiles = csc.shape().nrows.div_ceil(tile_h);
        // The farm walks every strip top to bottom: the sequential pass.
        let seq = convert_matrix_farm(&csc, tile_w, tile_h, FarmConfig::paper_default())
            .expect("valid farm geometry");
        for (s, seq_tiles) in seq.strips.iter().enumerate() {
            // Reverse-order random access via seek.
            let mut rnd = StripConverter::new(&csc, s, tile_w);
            for t in (0..ntiles).rev() {
                rnd.seek((t * tile_h) as u32);
                let tile = rnd.next_tile((t * tile_h) as u32, tile_h);
                prop_assert_eq!(&tile, &seq_tiles[t], "strip {} tile {}", s, t);
            }
        }
    }

    #[test]
    fn conversion_stats_invariants(csr in csr_strategy(), farm in farm_strategy()) {
        let csc = csr.to_csc();
        let run = convert(&csc, 8, 8, farm)?;
        let (tiles, stats) = (&run.strips, run.stats);
        // Each emitted row costs one comparator pass; each tile one more
        // concluding pass.
        prop_assert_eq!(stats.comparator_passes, stats.rows_emitted + stats.tiles);
        // 8 bytes per streamed element + 2 pointer words per lane per strip.
        let strip_lanes: u64 = tiles
            .iter()
            .map(|s| s.first().map_or(0, |t| t.width as u64))
            .sum();
        prop_assert_eq!(stats.input_bytes, 8 * stats.elements + 8 * strip_lanes);
        // Output stream is exactly the tiles' storage footprint.
        let tile_bytes: u64 = tiles
            .iter()
            .flatten()
            .map(|t| (t.metadata_bytes() + t.data_bytes()) as u64)
            .sum();
        prop_assert_eq!(stats.output_bytes, tile_bytes);
        // Rows emitted can never exceed elements (a row has >= 1 element).
        prop_assert!(stats.rows_emitted <= stats.elements);
    }

    #[test]
    fn comparator_tree_matches_min_oracle(
        coords in proptest::collection::vec(proptest::option::of(0u32..1000), 1..=64)
    ) {
        let tree = ComparatorTree::new(coords.len()).unwrap();
        let got = tree.find_min(&coords);
        let want = coords.iter().flatten().min().copied();
        match (got, want) {
            (None, None) => {}
            (Some(r), Some(m)) => {
                prop_assert_eq!(r.min, m);
                for (i, c) in coords.iter().enumerate() {
                    prop_assert_eq!(r.mask & (1 << i) != 0, *c == Some(m));
                }
            }
            other => prop_assert!(false, "mismatch: {:?}", other),
        }
    }

    #[test]
    fn engine_throughput_never_below_channel(csr in csr_strategy(), farm in farm_strategy()) {
        // §5.3's claim: the pipelined engine always keeps up with the
        // channel, even in the worst (single-element-row) case — as long
        // as there is enough work to amortize the pipeline fill.
        let csc = csr.to_csc();
        let stats = convert(&csc, 8, 8, farm)?.stats;
        if stats.elements >= 64 {
            let tree = ComparatorTree::new(8).unwrap().structure();
            let t = EngineTiming::fp32(13.6, &tree);
            // Count only streaming cycles (passes bound the row overhead).
            let gbps = t.conversion_gbps(&ConversionStats {
                comparator_passes: stats.comparator_passes - stats.tiles,
                ..stats
            });
            prop_assert!(gbps > 13.6 * 0.5, "throughput collapsed: {} GB/s", gbps);
        }
    }
}

#[test]
fn engine_width_is_bounded_at_64() {
    // The hardware is a 64-lane unit; wider strips must be rejected loudly.
    let coo = Coo::from_triplets(4, 128, &[0], &[100], &[1.0]).expect("valid");
    let csc = Csr::from_coo(&coo).to_csc();
    let result = std::panic::catch_unwind(|| StripConverter::new(&csc, 0, 128));
    assert!(result.is_err(), "65+-lane converter must panic");
}
