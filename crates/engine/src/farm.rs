//! The parallel engine farm: one conversion unit per FB partition (§6.1).
//!
//! The paper places a transform engine in *every* FB partition and spreads
//! each strip's tiles across them (tile rotation, Figure 17) so no single
//! partition camps. This module is the functional-model counterpart: the
//! strips of a matrix are converted by per-partition [`StripConverter`]s
//! running rayon-parallel, and every counter is reduced through
//! per-partition collectors in stable (partition-index) order.
//!
//! The farm is the one whole-matrix online conversion: the CLI, the
//! online kernel, the experiments and CSR → tiled-DCSC
//! ([`convert_matrix_dcsc`]) all convert through it.
//!
//! Determinism contract: the farm's outputs — the tiles, the merged
//! [`ConversionStats`], the per-partition loads, and the switch counters —
//! are **byte-identical regardless of thread count**. Workers return their
//! results keyed by strip index; the reduction then walks strips in
//! ascending order and partitions in ascending order, so the merge order
//! (and therefore every sum) never depends on scheduling.

use crate::comparator::MAX_LANES;
use crate::convert::{ConversionStats, StripConverter};
use crate::placement::{Layout, PlacementError, SwitchCost};
use nmt_fault::{FaultPlan, FaultRecord, FaultSite};
use nmt_formats::{Csc, CscView, Csr, DcsrTile, Index, SparseMatrix};
use nmt_obs::{EventSite, FlightRecorder};
use rayon::prelude::*;

/// Errors produced by a farm conversion: a tile geometry the engine cannot
/// convert, a placement misconfiguration, or an injected fault that
/// escalated past the per-strip retry policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmError {
    /// The tile is wider than the engine's lanes, or has zero width or
    /// height.
    TileGeometry {
        /// Requested strip width (the engine has 1..=64 lanes).
        tile_w: usize,
        /// Requested tile height (at least one row).
        tile_h: usize,
    },
    /// The placement configuration was invalid.
    Placement(PlacementError),
    /// An injected fault survived its retry and must escalate to the
    /// planner's degraded-mode policy.
    Fault {
        /// Site where the fault fired.
        site: FaultSite,
        /// Instance key within the site (strip id, partition id, ...).
        key: u64,
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::TileGeometry { tile_w, tile_h } => write!(
                f,
                "engine cannot convert {tile_w}x{tile_h} tiles: \
                 width must be 1..={MAX_LANES}, height at least 1"
            ),
            FarmError::Placement(e) => write!(f, "{e}"),
            FarmError::Fault { site, key, detail } => {
                write!(f, "injected fault at {site}#{key}: {detail}")
            }
        }
    }
}

impl std::error::Error for FarmError {}

impl From<PlacementError> for FarmError {
    fn from(e: PlacementError) -> Self {
        FarmError::Placement(e)
    }
}

/// Configuration of the engine farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Number of FB partitions (engines). GV100 has 64.
    pub partitions: usize,
    /// Tile → partition placement policy.
    pub layout: Layout,
    /// Optional fault-injection plan. Faults key off `(seed, site,
    /// strip/partition id)` only, so a faulted farm is as deterministic
    /// as a clean one.
    pub fault: Option<FaultPlan>,
    /// Draw converter scratch and tile buffers from the global pools
    /// ([`crate::mem`]). Pooling is output-invariant — pooled buffers
    /// are always handed out empty — so this only changes allocator
    /// traffic; `false` is the reference path the determinism proptests
    /// compare against.
    pub pool: bool,
}

impl FarmConfig {
    /// The paper's configuration: 64 FB partitions with tile rotation.
    pub fn paper_default() -> Self {
        Self {
            partitions: 64,
            layout: Layout::TileRotated,
            fault: None,
            pool: true,
        }
    }

    /// A farm sized to a simulated GPU's partition count, with rotation.
    pub fn for_partitions(partitions: usize) -> Self {
        Self {
            partitions,
            layout: Layout::TileRotated,
            fault: None,
            pool: true,
        }
    }

    /// The same farm with a fault plan installed.
    pub fn with_fault(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault = plan;
        self
    }

    /// The same farm with buffer pooling disabled (fresh allocations per
    /// strip/tile — the pre-pool reference behaviour).
    pub fn without_pool(mut self) -> Self {
        self.pool = false;
        self
    }
}

/// Work served by one FB partition's engine during a farm conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionWork {
    /// Tiles this partition's engine produced.
    pub tiles: u64,
    /// Merged converter counters for those tiles.
    pub stats: ConversionStats,
}

/// Result of a whole-matrix farm conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmRun {
    /// The converted tiles, strip-major: `strips[s][t]`.
    pub strips: Vec<Vec<DcsrTile>>,
    /// Totals across every engine.
    pub stats: ConversionStats,
    /// Merged counters per strip, index = strip id — the kernel layer's
    /// per-strip histograms read these without re-running converters.
    pub per_strip: Vec<ConversionStats>,
    /// Per-partition collectors, index = partition id (always
    /// `config.partitions` entries; idle partitions report zeros).
    pub per_partition: Vec<PartitionWork>,
    /// Partition hand-offs: consecutive tiles of a strip living in
    /// different partitions (§6.1's `next_fb_ptr` + frontier transfer).
    pub switches: u64,
    /// Bytes moved by those hand-offs, priced by [`SwitchCost`].
    pub switch_bytes: u64,
    /// Injected faults absorbed locally (retried strips, detected metadata
    /// corruption, dropped partitions), in deterministic order: dropped
    /// partitions ascending, then strip events ascending by strip id.
    pub faults: Vec<FaultRecord>,
}

impl FarmRun {
    /// Per-partition served bytes (engine output), the camping metric fed
    /// to [`crate::placement::imbalance`].
    pub fn partition_loads(&self) -> Vec<u64> {
        self.per_partition
            .iter()
            .map(|p| p.stats.output_bytes)
            .collect()
    }
}

/// Bridge a farm run's placement counters into the observability registry
/// under `engine.farm.*`.
pub fn publish_farm(obs: &nmt_obs::ObsContext, farm: &FarmRun) {
    let m = &obs.metrics;
    m.counter_add("engine.farm.switches", farm.switches);
    m.counter_add("engine.farm.switch_bytes", farm.switch_bytes);
    m.gauge_set("engine.farm.partitions", farm.per_partition.len() as f64);
    m.gauge_set(
        "engine.farm.imbalance",
        crate::placement::imbalance(&farm.partition_loads()),
    );
    if !farm.faults.is_empty() {
        m.counter_add("fault.injected", farm.faults.len() as u64);
        m.counter_add(
            "fault.retries",
            farm.faults.iter().filter(|f| f.retried).count() as u64,
        );
        m.counter_add(
            "fault.dropped_partitions",
            farm.faults
                .iter()
                .filter(|f| f.site == FaultSite::PartitionDropout)
                .count() as u64,
        );
    }
}

/// Per-strip result produced by one parallel worker: the strip's tiles
/// plus a stats delta per tile, so the reducer can attribute each tile to
/// its owning partition without re-running the converter.
struct StripOutput {
    tiles: Vec<DcsrTile>,
    per_tile: Vec<ConversionStats>,
}

/// Convert one strip, snapshotting the converter counters around every
/// tile. The converter's setup cost (the Figure 14 ❶ pointer loads) lands
/// in the first tile's delta so the per-tile deltas sum to the strip total.
fn convert_strip_tracked(
    csc: CscView<'_>,
    strip_id: usize,
    tile_w: usize,
    tile_h: usize,
    pool: bool,
) -> StripOutput {
    let nrows = csc.shape().nrows;
    let mut conv = StripConverter::with_view(csc, strip_id, tile_w, pool);
    let ntiles = nrows.max(1).div_ceil(tile_h);
    let mut tiles = crate::mem::take_tiles(pool, ntiles);
    let mut per_tile = crate::mem::take_stats(pool, ntiles);
    let mut before = ConversionStats::default();
    let mut row_start: Index = 0;
    while (row_start as usize) < nrows.max(1) {
        tiles.push(conv.next_tile(row_start, tile_h));
        let after = conv.stats();
        per_tile.push(after.delta(&before));
        before = after;
        row_start += tile_h as Index;
        if nrows == 0 {
            break;
        }
    }
    conv.recycle();
    StripOutput { tiles, per_tile }
}

/// Convert one strip under a fault plan, applying the local degraded-mode
/// policy: a `ConvertStrip` fault is retried once (a distinct deterministic
/// draw); a `MetadataCorruption` fault corrupts a *clone* of a produced
/// tile and must be rejected by [`DcsrTile::validate`] with a typed error,
/// after which the strip's (uncorrupted) output is used and the event is
/// recorded as a retry. Only a failed retry escalates to [`FarmError`].
fn convert_strip_faulted(
    csc: CscView<'_>,
    strip_id: usize,
    tile_w: usize,
    tile_h: usize,
    plan: Option<FaultPlan>,
    pool: bool,
    flight: &FlightRecorder,
) -> Result<(StripOutput, Vec<FaultRecord>), FarmError> {
    let key = strip_id as u64;
    // nmt-lint: allow(hot-alloc) — Vec::new defers allocation until a fault actually fires (cold path)
    let mut faults = Vec::new();
    if let Some(plan) = plan {
        if plan.fires(FaultSite::ConvertStrip, key) {
            if plan.retry_fires(FaultSite::ConvertStrip, key) {
                flight.record(EventSite::FaultConvertStrip, 2, key, 0);
                flight.record(EventSite::FarmStrip, 2, key, 0);
                return Err(FarmError::Fault {
                    site: FaultSite::ConvertStrip,
                    key,
                    detail: format!("strip {strip_id} conversion failed twice (retry exhausted)"),
                });
            }
            flight.record(EventSite::FaultConvertStrip, 1, key, 0);
            flight.record(EventSite::FarmStrip, 1, key, 0);
            faults.push(FaultRecord {
                site: FaultSite::ConvertStrip,
                key,
                retried: true,
                fell_back: false,
                detail: format!("strip {strip_id} conversion failed; retry succeeded"),
            });
        }
    }
    let out = convert_strip_tracked(csc, strip_id, tile_w, tile_h, pool);
    if let Some(plan) = plan {
        if plan.fires(FaultSite::MetadataCorruption, key) {
            // Corrupt a clone — never the real output — and require the
            // validator to reject it with a typed FormatError.
            let mut corrupted = out.tiles[0].clone();
            corrupted
                .rowptr
                .push(corrupted.rowptr.last().copied().unwrap_or(0) + 1);
            match corrupted.validate() {
                Err(e) => {
                    flight.record(EventSite::FaultMetadataCorruption, 1, key, 0);
                    faults.push(FaultRecord {
                        site: FaultSite::MetadataCorruption,
                        key,
                        retried: true,
                        fell_back: false,
                        detail: format!(
                            "corrupted tile metadata rejected ({e}); strip re-converted"
                        ),
                    });
                }
                Ok(()) => {
                    flight.record(EventSite::FaultMetadataCorruption, 2, key, 0);
                    return Err(FarmError::Fault {
                        site: FaultSite::MetadataCorruption,
                        key,
                        detail: format!("corrupted metadata in strip {strip_id} went undetected"),
                    });
                }
            }
        }
    }
    Ok((out, faults))
}

/// Convert an entire CSC matrix through the parallel engine farm.
///
/// Strips are converted rayon-parallel (`RAYON_NUM_THREADS` respected);
/// the reduction walks strips and partitions in ascending index order, so
/// the result is identical to a serial run. The tiles equal offline tiling
/// ([`nmt_formats::TiledDcsr::from_csc`]) whatever the partition count and
/// layout; those only change per-partition attribution and hand-offs.
pub fn convert_matrix_farm(
    csc: &Csc,
    tile_w: usize,
    tile_h: usize,
    config: FarmConfig,
) -> Result<FarmRun, FarmError> {
    convert_matrix_farm_obs(
        csc.view(),
        tile_w,
        tile_h,
        config,
        &nmt_obs::ObsContext::disabled(),
    )
}

/// CSR → tiled-**DCSC** conversion "using the same engine" (§4.1).
///
/// A CSR image of `A` is, byte for byte, a CSC image of `Aᵀ`
/// (`rowptr → colptr`, `colidx → rowidx`), so running the farm over it
/// produces DCSR tiles of `Aᵀ` — which are exactly DCSC tiles of `A` with
/// the roles of `rowidx`/`colidx` swapped. This is the escape hatch for
/// wide matrices whose CSC `colptr` would dominate storage: keep CSR in
/// memory and let SM-side DCSC kernels consume the engine's output.
///
/// The returned strips are the tiles of `Aᵀ` (strip-major over `A`'s
/// *rows*); interpret each [`DcsrTile`]'s `rowidx` as non-empty
/// **columns** of `A` and `colidx` as **rows** of `A`. The CSR arrays are
/// borrowed, never copied — exactly what the hardware would see. The farm
/// runs at [`FarmConfig::paper_default`].
pub fn convert_matrix_dcsc(csr: &Csr, tile_w: usize, tile_h: usize) -> Result<FarmRun, FarmError> {
    convert_matrix_farm_obs(
        CscView::transpose_of_csr(csr),
        tile_w,
        tile_h,
        FarmConfig::paper_default(),
        &nmt_obs::ObsContext::disabled(),
    )
}

/// [`convert_matrix_farm`] with worker-side observability: the whole farm
/// runs under an `engine.farm` span, every strip conversion records an
/// `engine.farm.strip` span **on the rayon worker that ran it** (so the
/// trace shows one lane per worker and the profiler can compute busy/idle
/// and strips-in-flight), and the index-ordered reduction is wrapped in
/// `engine.farm.reduce`. Spans never feed back into the conversion:
/// outputs stay byte-identical to [`convert_matrix_farm`] at any thread
/// count, with or without a live recorder.
pub fn convert_matrix_farm_obs(
    csc: CscView<'_>,
    tile_w: usize,
    tile_h: usize,
    config: FarmConfig,
    obs: &nmt_obs::ObsContext,
) -> Result<FarmRun, FarmError> {
    // Spans are skipped (not opened-and-dropped) on a disabled context:
    // a dead span still costs a sink lock on drop, which would serialize
    // the per-strip workers for nothing.
    let watching = obs.is_enabled();
    let _farm_span = watching.then(|| obs.span("engine.farm"));
    if !(1..=MAX_LANES).contains(&tile_w) || tile_h == 0 {
        return Err(FarmError::TileGeometry { tile_w, tile_h });
    }
    if config.partitions == 0 {
        return Err(PlacementError::NoPartitions.into());
    }
    // Partition dropout rolls once per partition id, before any strip work:
    // surviving engines absorb the dropped partitions' placements. All
    // partitions dropping is unrecoverable and escalates.
    // nmt-lint: allow(hot-alloc) — once per matrix, populated only when faults fire
    let mut faults = Vec::new();
    let mut active: Vec<usize> = Vec::with_capacity(config.partitions);
    for p in 0..config.partitions {
        if config
            .fault
            .is_some_and(|plan| plan.fires(FaultSite::PartitionDropout, p as u64))
        {
            obs.flight
                .record(EventSite::FaultPartitionDropout, 1, p as u64, 0);
            faults.push(FaultRecord {
                site: FaultSite::PartitionDropout,
                key: p as u64,
                retried: false,
                fell_back: false,
                detail: format!("partition {p} dropped; placements remapped to survivors"),
            });
        } else {
            active.push(p);
        }
    }
    if active.is_empty() {
        obs.flight
            .record(EventSite::FaultPartitionDropout, 2, 0, config.partitions as u64);
        return Err(FarmError::Fault {
            site: FaultSite::PartitionDropout,
            key: 0,
            detail: format!("all {} partitions dropped", config.partitions),
        });
    }
    let nstrips = nmt_formats::strip_count(csc.shape().ncols, tile_w);
    let outputs: Vec<Result<(StripOutput, Vec<FaultRecord>), FarmError>> = (0..nstrips)
        .into_par_iter()
        .map(|s| {
            let mut strip_span = watching.then(|| obs.span("engine.farm.strip"));
            if let Some(sp) = strip_span.as_mut() {
                sp.counter("strip", s as f64);
            }
            obs.flight.record(EventSite::FarmStrip, 0, s as u64, 0);
            convert_strip_faulted(csc, s, tile_w, tile_h, config.fault, config.pool, &obs.flight)
        })
        .collect();

    // Deterministic reduction: strips ascending, tiles ascending within a
    // strip, partition collectors indexed (not ordered by completion). A
    // failed strip surfaces as the *lowest-strip-id* error regardless of
    // which worker hit it first in wall-clock terms.
    let _reduce_span = watching.then(|| obs.span("engine.farm.reduce"));
    obs.flight
        .record(EventSite::FarmReduce, 0, nstrips as u64, active.len() as u64);
    let cost = SwitchCost { lanes: tile_w };
    // nmt-lint: allow(hot-alloc) — one partition-table allocation per matrix, size known only here
    let mut per_partition = vec![PartitionWork::default(); config.partitions];
    let mut per_strip = Vec::with_capacity(nstrips);
    let mut total = ConversionStats::default();
    let mut switches = 0u64;
    let mut strips = Vec::with_capacity(nstrips);
    for (s, res) in outputs.into_iter().enumerate() {
        let (out, strip_faults) = res?;
        faults.extend(strip_faults);
        let mut prev_partition = None;
        let mut strip_total = ConversionStats::default();
        for (t, delta) in out.per_tile.iter().enumerate() {
            // nmt-lint: allow(slice-index) — partition_index reduces modulo active.len(), so the index is always in bounds
            let p = active[config.layout.partition_index(s, t, active.len())];
            if let Some(slot) = per_partition.get_mut(p) {
                slot.tiles += 1;
                slot.stats.merge(delta);
            }
            strip_total.merge(delta);
            total.merge(delta);
            if prev_partition.is_some_and(|prev| prev != p) {
                switches += 1;
            }
            prev_partition = Some(p);
        }
        per_strip.push(strip_total);
        strips.push(out.tiles);
        crate::mem::put_stats(config.pool, out.per_tile);
    }
    Ok(FarmRun {
        strips,
        stats: total,
        per_strip,
        per_partition,
        switches,
        switch_bytes: switches * cost.bytes_per_switch(),
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::imbalance;
    use nmt_formats::{Coo, TiledDcsr};

    fn sample_csc(n: usize, seed: u64) -> Csc {
        let mut entries = Vec::new();
        let mut state = seed | 1;
        for _ in 0..n * 4 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize % n;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = (state >> 33) as usize % n;
            entries.push((r as u32, c as u32, (1 + r + c) as f32));
        }
        entries.sort_by_key(|e| (e.0, e.1));
        entries.dedup_by_key(|e| (e.0, e.1));
        let rows: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<u32> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<f32> = entries.iter().map(|e| e.2).collect();
        let coo = Coo::from_triplets(n, n, &rows, &cols, &vals).unwrap();
        Csr::from_coo(&coo).to_csc()
    }

    #[test]
    fn farm_matches_serial_conversion() {
        let csc = sample_csc(96, 7);
        let offline = TiledDcsr::from_csc(&csc, 16, 16).unwrap();
        let farm = convert_matrix_farm(&csc, 16, 16, FarmConfig::for_partitions(4)).unwrap();
        assert_eq!(farm.strips, offline.strips());
        // Every counter, not just the element count, must equal an
        // independent per-strip walk of the same converter: a per-tile
        // delta that drops or double-counts setup cost shows up here.
        let mut serial = ConversionStats::default();
        for s in 0..96usize.div_ceil(16) {
            let mut conv = StripConverter::new(&csc, s, 16);
            for row in (0..96).step_by(16) {
                conv.next_tile(row, 16);
            }
            serial.merge(&conv.stats());
        }
        assert_eq!(farm.stats, serial);
        assert_eq!(farm.stats.elements as usize, csc.nnz());
        assert_eq!(farm.stats.tiles, 36);
    }

    #[test]
    fn unconvertible_tile_geometry_is_a_typed_error() {
        // A zero height never advances a strip's row cursor, and a width
        // outside 1..=64 has no comparator lanes to map onto: both must be
        // refused before any strip work starts.
        let csc = sample_csc(8, 2);
        for (tile_w, tile_h) in [(4, 0), (0, 4), (65, 4)] {
            assert_eq!(
                convert_matrix_farm(&csc, tile_w, tile_h, FarmConfig::for_partitions(4)),
                Err(FarmError::TileGeometry { tile_w, tile_h })
            );
        }
        assert!(convert_matrix_farm(&csc, 64, 1, FarmConfig::for_partitions(4)).is_ok());
    }

    /// A `rows x cols` matrix with `per_strip[s]` entries down each column
    /// of the 8-wide strip `s` (rows `0..per_strip[s]`).
    fn strip_loaded_csc(rows: usize, per_strip: &[usize]) -> Csc {
        let mut coo = Coo::new(rows, 8 * per_strip.len()).unwrap();
        for (s, &n) in per_strip.iter().enumerate() {
            for r in 0..n {
                for c in 0..8 {
                    coo.push(r as u32, (8 * s + c) as u32, 1.0).unwrap();
                }
            }
        }
        coo.canonicalize();
        Csr::from_coo(&coo).to_csc()
    }

    fn loads(csc: &Csc, layout: Layout) -> Vec<u64> {
        let cfg = FarmConfig {
            layout,
            ..FarmConfig::for_partitions(4)
        };
        convert_matrix_farm(csc, 8, 8, cfg).unwrap().partition_loads()
    }

    #[test]
    fn naive_layout_camps_when_few_strips() {
        // 2 dense strips on 4 partitions: half the machine idles.
        let csc = strip_loaded_csc(64, &[64, 64]);
        let naive = loads(&csc, Layout::StripPerPartition);
        assert_eq!(naive[2], 0);
        assert_eq!(naive[3], 0);
        assert!(imbalance(&naive) >= 2.0);
        let rotated = loads(&csc, Layout::TileRotated);
        assert!(imbalance(&rotated) < imbalance(&naive));
        assert!(rotated.iter().all(|&l| l > 0), "rotation feeds every engine");
    }

    #[test]
    fn rotation_balances_skewed_strips() {
        // One dense strip, three nearly empty: rotation spreads the dense
        // strip's tiles over all partitions.
        let csc = strip_loaded_csc(128, &[128, 1, 1, 1]);
        let naive = imbalance(&loads(&csc, Layout::StripPerPartition));
        let rot = imbalance(&loads(&csc, Layout::TileRotated));
        assert!(naive > 3.0, "naive {naive}");
        assert!(rot < 1.05, "rotated {rot}");
    }

    fn sample_csr(n: usize, seed: u64) -> Csr {
        sample_csc(n, seed).to_csr()
    }

    #[test]
    fn dcsc_conversion_is_tiling_of_the_transpose() {
        let csr = sample_csr(48, 21);
        let run = convert_matrix_dcsc(&csr, 16, 16).unwrap();
        let expected = TiledDcsr::from_csr(&csr.transpose(), 16, 16).unwrap();
        assert_eq!(run.strips, expected.strips());
        assert_eq!(run.stats.elements as usize, csr.nnz());
        // Reassembling the tiles yields A transposed; its non-empty rows
        // are A's non-empty columns (the DCSC semantics).
        assert_eq!(expected.to_csr().transpose(), csr);
    }

    #[test]
    fn dcsc_of_wide_matrix() {
        // The §4.1 motivation: a wide matrix whose CSC colptr would be
        // large converts through its compact CSR image instead.
        let coo = Coo::from_triplets(4, 200, &[0, 1, 3], &[5, 150, 5], &[1.0, 2.0, 3.0]).unwrap();
        let csr = Csr::from_coo(&coo);
        let run = convert_matrix_dcsc(&csr, 4, 64).unwrap();
        assert_eq!(run.stats.elements, 3);
        // One strip over A's 4 rows; tiles cover A's 200 columns.
        assert_eq!(run.strips.len(), 1);
        assert_eq!(run.strips[0].len(), 200usize.div_ceil(64));
        let nnz: usize = run.strips[0].iter().map(DcsrTile::nnz).sum();
        assert_eq!(nnz, 3);
    }

    #[test]
    fn per_partition_stats_sum_to_total() {
        let csc = sample_csc(64, 3);
        let farm = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
        let mut summed = ConversionStats::default();
        let mut tiles = 0;
        for p in &farm.per_partition {
            summed.merge(&p.stats);
            tiles += p.tiles;
        }
        assert_eq!(summed, farm.stats);
        assert_eq!(tiles, farm.stats.tiles);
        let mut strip_sum = ConversionStats::default();
        for s in &farm.per_strip {
            strip_sum.merge(s);
        }
        assert_eq!(strip_sum, farm.stats, "per-strip view sums to total too");
    }

    #[test]
    fn rotation_switches_partitions_between_tiles() {
        let csc = sample_csc(64, 5);
        let rotated = convert_matrix_farm(
            &csc,
            8,
            8,
            FarmConfig {
                partitions: 4,
                layout: Layout::TileRotated,
                fault: None,
                pool: true,
            },
        )
        .unwrap();
        let naive = convert_matrix_farm(
            &csc,
            8,
            8,
            FarmConfig {
                partitions: 4,
                layout: Layout::StripPerPartition,
                fault: None,
                pool: true,
            },
        )
        .unwrap();
        // Strip-per-partition never hands off; rotation hands off on every
        // tile step of every strip.
        assert_eq!(naive.switches, 0);
        assert_eq!(naive.switch_bytes, 0);
        let tile_steps: u64 = rotated
            .strips
            .iter()
            .map(|s| (s.len() as u64).saturating_sub(1))
            .sum();
        assert_eq!(rotated.switches, tile_steps);
        assert_eq!(
            rotated.switch_bytes,
            rotated.switches * SwitchCost { lanes: 8 }.bytes_per_switch()
        );
        // Same tiles and totals either way: placement changes ownership,
        // not the conversion.
        assert_eq!(rotated.strips, naive.strips);
        assert_eq!(rotated.stats, naive.stats);
    }

    #[test]
    fn rotation_balances_loads() {
        let csc = sample_csc(128, 11);
        let cfg = FarmConfig {
            partitions: 4,
            layout: Layout::TileRotated,
            fault: None,
            pool: true,
        };
        let farm = convert_matrix_farm(&csc, 8, 8, cfg).unwrap();
        let loads = farm.partition_loads();
        assert_eq!(loads.len(), 4);
        assert!(loads.iter().all(|&l| l > 0), "rotation feeds every engine");
    }

    #[test]
    fn zero_partitions_is_an_error() {
        let csc = sample_csc(16, 1);
        assert_eq!(
            convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(0)),
            Err(FarmError::Placement(PlacementError::NoPartitions))
        );
    }

    #[test]
    fn empty_matrix_gets_one_phantom_strip() {
        let csc = Csc::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let farm = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(2)).unwrap();
        assert_eq!(farm.strips.len(), 1, "phantom strip for ncols == 0");
        assert_eq!(farm.strips[0].len(), 1, "phantom tile for nrows == 0");
        assert_eq!(farm.strips[0][0].nnz(), 0);
        assert_eq!(farm.stats.elements, 0);
        assert_eq!(farm.switches, 0);
    }

    #[test]
    fn clean_plan_with_zero_rate_changes_nothing() {
        let csc = sample_csc(64, 17);
        let clean = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
        let planned = convert_matrix_farm(
            &csc,
            8,
            8,
            FarmConfig::for_partitions(4).with_fault(Some(FaultPlan::new(9, 0))),
        )
        .unwrap();
        assert_eq!(clean, planned);
    }

    #[test]
    fn convert_strip_faults_retry_or_escalate_deterministically() {
        let csc = sample_csc(128, 23);
        let plan = FaultPlan::from_rate(77, 0.4);
        let cfg = FarmConfig::for_partitions(4).with_fault(Some(plan));
        let first = convert_matrix_farm(&csc, 8, 8, cfg);
        let second = convert_matrix_farm(&csc, 8, 8, cfg);
        assert_eq!(first, second, "faulted farm must be run-to-run identical");
        if let Ok(run) = first {
            // Every absorbed engine-side fault was retried.
            assert!(run
                .faults
                .iter()
                .filter(|f| f.site != FaultSite::PartitionDropout)
                .all(|f| f.retried));
        }
    }

    #[test]
    fn faulted_output_tiles_match_clean_run() {
        // Absorbed faults (retries, detected corruption, dropout) must not
        // change the converted tiles or totals — only attribution.
        let csc = sample_csc(96, 31);
        let clean = convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
        // A seed whose faults are all absorbed: search a few seeds for one
        // that completes, which keeps the test deterministic and meaningful.
        let mut checked = false;
        for seed in 0..32u64 {
            let cfg =
                FarmConfig::for_partitions(4).with_fault(Some(FaultPlan::from_rate(seed, 0.15)));
            if let Ok(run) = convert_matrix_farm(&csc, 8, 8, cfg) {
                assert_eq!(run.strips, clean.strips);
                assert_eq!(run.stats, clean.stats);
                assert_eq!(run.per_strip, clean.per_strip);
                if !run.faults.is_empty() {
                    checked = true;
                }
            }
        }
        assert!(checked, "no seed in 0..32 produced an absorbed fault");
    }

    #[test]
    fn dropped_partitions_serve_no_tiles() {
        let csc = sample_csc(96, 41);
        // Find a seed that drops at least one partition but not all.
        for seed in 0..64u64 {
            let plan = FaultPlan::from_rate(seed, 0.3);
            let dropped: Vec<usize> = (0..4)
                .filter(|&p| plan.fires(FaultSite::PartitionDropout, p as u64))
                .collect();
            if dropped.is_empty() || dropped.len() == 4 {
                continue;
            }
            let cfg = FarmConfig::for_partitions(4).with_fault(Some(plan));
            if let Ok(run) = convert_matrix_farm(&csc, 8, 8, cfg) {
                for &p in &dropped {
                    assert_eq!(run.per_partition[p].tiles, 0, "dropped partition {p} served");
                }
                assert_eq!(run.stats, {
                    let clean =
                        convert_matrix_farm(&csc, 8, 8, FarmConfig::for_partitions(4)).unwrap();
                    clean.stats
                });
                return;
            }
        }
        panic!("no seed in 0..64 dropped a strict subset of partitions cleanly");
    }

    #[test]
    fn all_partitions_dropped_is_typed_error() {
        let csc = sample_csc(32, 3);
        let cfg = FarmConfig::for_partitions(2).with_fault(Some(FaultPlan::from_rate(5, 1.0)));
        match convert_matrix_farm(&csc, 8, 8, cfg) {
            Err(FarmError::Fault { site, .. }) => {
                // Rate 1.0 fires every site; dropout is checked first.
                assert_eq!(site, FaultSite::PartitionDropout);
            }
            other => panic!("expected dropout escalation, got {other:?}"),
        }
    }

    #[test]
    fn farm_is_thread_count_invariant() {
        // The same conversion under 1 and 4 threads must be byte-identical
        // (ParIter preserves order; the reduction is index-driven).
        let csc = sample_csc(96, 13);
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .unwrap();
        let serial = convert_matrix_farm(&csc, 16, 16, FarmConfig::for_partitions(4)).unwrap();
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build_global()
            .unwrap();
        let parallel = convert_matrix_farm(&csc, 16, 16, FarmConfig::for_partitions(4)).unwrap();
        assert_eq!(serial, parallel);
    }
}
