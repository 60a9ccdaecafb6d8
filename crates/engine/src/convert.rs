//! Functional model of the CSC → tiled-DCSR conversion unit (Figures 13–14).
//!
//! One [`StripConverter`] models the engine state for one vertical strip:
//!
//! 1. `boundary_ptr` and `frontier_ptr` are loaded from the CSC `col_ptr`
//!    (step ① of Figure 13) — two N-element pointer arrays (Figure 14 ❶);
//! 2. each step, lanes with remaining elements present their frontier row
//!    coordinate to the comparator tree, which returns the minimum row and
//!    the set of lanes holding it (❷–❸);
//! 3. the winning lanes' elements are copied out as one DCSR row (value,
//!    col_idx; row_ptr incremented by the lane count; row_idx = the minimum
//!    row coordinate), and their frontiers advance (❹–❺);
//! 4. repeat until the lanes sweep the designated tile, then return the
//!    tile (④ of Figure 13).
//!
//! The converter is *stateful across tiles* in a strip: walking tiles
//! top-to-bottom needs no re-scanning (sequential access), and random tile
//! access repositions the frontier by binary search on the CSC columns —
//! both properties §4.1 credits to the CSC baseline format.

use crate::comparator::{ComparatorTree, MinScratch};
use crate::mem;
use nmt_formats::{Csc, CscView, DcsrTile, Index, SparseMatrix};

/// Byte cost of one streamed CSC element: a 4-byte row index plus a 4-byte
/// fp32 value ("8-byte input data", §5.3).
pub const INPUT_BYTES_PER_ELEM: u64 = 8;

/// Running hardware-activity counters for one converter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionStats {
    /// Comparator-tree passes performed (one per emitted DCSR row, plus
    /// one concluding pass that finds the tile exhausted).
    pub comparator_passes: u64,
    /// Elements converted (CSC entries consumed = DCSR entries produced).
    pub elements: u64,
    /// DCSR rows emitted (non-empty row segments).
    pub rows_emitted: u64,
    /// Tiles produced.
    pub tiles: u64,
    /// Bytes read from DRAM: column-pointer loads + streamed elements.
    pub input_bytes: u64,
    /// Bytes of tiled-DCSR stream sent to the requesting SM over the Xbar.
    pub output_bytes: u64,
    /// Comparator-lane slots offered across all passes (passes × lanes) —
    /// the denominator of [`ConversionStats::comparator_occupancy`].
    pub lane_slots: u64,
}

impl ConversionStats {
    /// Accumulate another converter's counters into this one.
    pub fn merge(&mut self, other: &ConversionStats) {
        self.comparator_passes += other.comparator_passes;
        self.elements += other.elements;
        self.rows_emitted += other.rows_emitted;
        self.tiles += other.tiles;
        self.input_bytes += other.input_bytes;
        self.output_bytes += other.output_bytes;
        self.lane_slots += other.lane_slots;
    }

    /// Counter-wise difference `self - before`, for attributing the work
    /// of one tile (or one drain step) out of a cumulative counter. All
    /// counters are monotone, so `before` must be an earlier snapshot of
    /// the same converter.
    pub fn delta(&self, before: &ConversionStats) -> ConversionStats {
        ConversionStats {
            comparator_passes: self.comparator_passes - before.comparator_passes,
            elements: self.elements - before.elements,
            rows_emitted: self.rows_emitted - before.rows_emitted,
            tiles: self.tiles - before.tiles,
            input_bytes: self.input_bytes - before.input_bytes,
            output_bytes: self.output_bytes - before.output_bytes,
            lane_slots: self.lane_slots - before.lane_slots,
        }
    }

    /// Fraction of comparator-lane slots that emitted an element — how
    /// full the tree's input registers ran (1.0 = every lane contributed
    /// on every pass; low values mean tall, sparse columns).
    pub fn comparator_occupancy(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.elements as f64 / self.lane_slots as f64
        }
    }
}

/// Bridge a conversion's [`ConversionStats`] into the observability
/// registry under `engine.convert.*` / `engine.comparator.*`.
pub fn publish_conversion(obs: &nmt_obs::ObsContext, stats: &ConversionStats) {
    let m = &obs.metrics;
    m.counter_add("engine.convert.elements", stats.elements);
    m.counter_add("engine.convert.rows_emitted", stats.rows_emitted);
    m.counter_add("engine.convert.tiles", stats.tiles);
    m.counter_add("engine.convert.input_bytes", stats.input_bytes);
    m.counter_add("engine.convert.output_bytes", stats.output_bytes);
    m.counter_add("engine.comparator.passes", stats.comparator_passes);
    m.counter_add("engine.comparator.lane_slots", stats.lane_slots);
    m.gauge_set(
        "engine.comparator.occupancy",
        stats.comparator_occupancy(),
    );
}

/// Stateful converter for one vertical strip of a CSC matrix.
#[derive(Debug, Clone)]
pub struct StripConverter<'a> {
    csc: CscView<'a>,
    strip_id: usize,
    col_start: usize,
    width: usize,
    /// Absolute index of each lane's next element in the CSC arrays.
    frontier: Vec<usize>,
    /// Absolute end index of each lane's column.
    boundary: Vec<usize>,
    /// Lane-coordinate staging reused across every comparator pass (the
    /// hot-path buffer that used to be allocated per pass).
    coords: Vec<Option<u32>>,
    /// Comparator reduction scratch (fixed-size, stack-style).
    min_scratch: MinScratch,
    /// Whether scratch and tile buffers come from the global pools
    /// ([`crate::mem`]) and go back there on [`Self::recycle`].
    pooled: bool,
    tree: ComparatorTree,
    stats: ConversionStats,
}

impl<'a> StripConverter<'a> {
    /// Position a converter at the top of strip `strip_id` (width
    /// `tile_w`). Panics if the strip is outside the matrix.
    /// Unpooled: scratch is freshly allocated and dropped with the
    /// converter (the farm's hot path uses [`Self::with_view`]).
    pub fn new(csc: &'a Csc, strip_id: usize, tile_w: usize) -> Self {
        Self::with_view(csc.view(), strip_id, tile_w, false)
    }

    /// [`Self::new`] over a borrowed [`CscView`], with scratch and tile
    /// buffers checked out of the global pools when `pooled` — return
    /// them with [`Self::recycle`] when the strip is done.
    pub fn with_view(csc: CscView<'a>, strip_id: usize, tile_w: usize, pooled: bool) -> Self {
        assert!(tile_w > 0 && tile_w <= 64, "engine width is 1..=64 columns");
        let ncols = csc.shape().ncols;
        let col_start = strip_id * tile_w;
        assert!(col_start < ncols.max(1), "strip {strip_id} beyond matrix");
        // A zero-column matrix yields a zero-lane converter that emits
        // only empty tiles (the comparator tree still needs >= 1 lane, so
        // clamp and guard the pointer loads).
        let width = tile_w
            .min(ncols.saturating_sub(col_start))
            .max(1)
            .min(ncols.max(1));
        let lanes = width.min(ncols.saturating_sub(col_start));
        let colptr = csc.colptr();
        let mut frontier = mem::take_ptr(pooled, lanes);
        frontier.extend((0..lanes).map(|i| colptr[col_start + i] as usize));
        let mut boundary = mem::take_ptr(pooled, lanes);
        boundary.extend((0..lanes).map(|i| colptr[col_start + i + 1] as usize));
        let mut stats = ConversionStats::default();
        // Loading boundary_ptr + frontier_ptr from col_ptr: 2 N-element
        // 4-byte arrays (Figure 14 ❶).
        stats.input_bytes += 2 * width as u64 * 4;
        Self {
            csc,
            strip_id,
            col_start,
            width,
            frontier,
            boundary,
            coords: mem::take_coords(pooled, lanes.max(1)),
            min_scratch: MinScratch::new(),
            pooled,
            // nmt-lint: allow(panic) — lanes is clamped to 1..=64 two lines up, within ComparatorTree's bound
            tree: ComparatorTree::new(lanes.max(1)).expect("lanes clamped to 1..=64"),
            stats,
        }
    }

    /// Return this converter's scratch buffers to the global pools (a
    /// no-op for unpooled converters). The farm calls this after each
    /// strip so the next strip's converter allocates nothing.
    pub fn recycle(self) {
        mem::put_ptr(self.pooled, self.frontier);
        mem::put_ptr(self.pooled, self.boundary);
        mem::put_coords(self.pooled, self.coords);
    }

    /// The strip index this converter serves.
    pub fn strip_id(&self) -> usize {
        self.strip_id
    }

    /// Activity counters so far.
    pub fn stats(&self) -> ConversionStats {
        self.stats
    }

    /// Reposition every lane to the first element with row ≥ `row_start`
    /// (random tile access; binary search per column, §4.1).
    pub fn seek(&mut self, row_start: Index) {
        for i in 0..self.frontier.len() {
            self.frontier[i] = self.csc.col_frontier_at(self.col_start + i, row_start);
        }
    }

    /// Convert the next `tile_h` rows starting at `row_start` into one
    /// DCSR tile (the `GetDCSRTile` operation of Figure 11, minus the
    /// request plumbing). Lanes must already be at or past `row_start`
    /// (they are, after sequential use or `seek`).
    pub fn next_tile(&mut self, row_start: Index, tile_h: usize) -> DcsrTile {
        let nrows = self.csc.shape().nrows;
        let height = tile_h.min(nrows.saturating_sub(row_start as usize)).max(1);
        let row_end = row_start + height as Index;
        // Exact capacity bounds for the pooled buffers: per lane, find the
        // end of this tile's element run (first element at or past
        // `row_end`) by binary search — the hardware analogue is the
        // boundary-pointer computation of Figure 14 ❶. The sum is exactly
        // the element count the pass loop will emit, and emitted rows are
        // bounded by `min(height, elems)`. Exact bounds mean checked-out
        // buffers never grow mid-tile, so steady-state pool reuse performs
        // zero allocations (a grown buffer would reshelve at a new
        // capacity and churn the best-fit pairing forever).
        let rowidx_all = self.csc.rowidx();
        let tile_elems: usize = self
            .frontier
            .iter()
            .zip(&self.boundary)
            .map(|(&f, &b)| rowidx_all[f..b].partition_point(|&r| r < row_end))
            .sum();
        let max_rows = height.min(tile_elems);
        let mut rowptr = mem::take_idx(self.pooled, max_rows + 1);
        rowptr.push(0);
        let mut tile = DcsrTile {
            row_start,
            col_start: self.col_start as Index,
            height,
            width: self.width,
            rowptr,
            rowidx: mem::take_idx(self.pooled, max_rows),
            colidx: mem::take_idx(self.pooled, tile_elems),
            values: mem::take_val(self.pooled, tile_elems),
        };
        let values = self.csc.values();
        loop {
            self.stats.comparator_passes += 1;
            self.stats.lane_slots += self.frontier.len() as u64;
            fill_lane_coords(
                &self.csc,
                &self.frontier,
                &self.boundary,
                row_end,
                &mut self.coords,
            );
            if self.coords.is_empty() {
                self.coords.push(None); // zero-lane converter: always exhausted
            }
            let Some(min) = self.tree.find_min_in(&self.coords, &mut self.min_scratch) else {
                break;
            };
            // Emit one DCSR row: all lanes at the minimum row coordinate,
            // in ascending lane (= column) order.
            tile.rowidx.push(min.min - row_start);
            for lane in 0..self.frontier.len() {
                if min.mask & (1 << lane) != 0 {
                    tile.colidx.push(lane as Index);
                    tile.values.push(values[self.frontier[lane]]);
                    self.frontier[lane] += 1;
                    self.stats.elements += 1;
                    self.stats.input_bytes += INPUT_BYTES_PER_ELEM;
                }
            }
            tile.rowptr.push(tile.colidx.len() as Index);
            self.stats.rows_emitted += 1;
        }
        self.stats.tiles += 1;
        self.stats.output_bytes += (tile.values.len() * 4
            + tile.colidx.len() * 4
            + tile.rowidx.len() * 4
            + tile.rowptr.len() * 4) as u64;
        debug_assert!(tile.validate().is_ok(), "engine produced an invalid tile");
        tile
    }
}

/// Stage the current lane coordinates (masked to rows below `row_end`)
/// into `coords`, reusing its capacity. A free function over disjoint
/// converter fields so the borrow checker permits in-place reuse.
fn fill_lane_coords(
    csc: &CscView<'_>,
    frontier: &[usize],
    boundary: &[usize],
    row_end: Index,
    coords: &mut Vec<Option<u32>>,
) {
    let rowidx = csc.rowidx();
    coords.clear();
    coords.extend(frontier.iter().zip(boundary).map(|(&f, &b)| {
        if f < b {
            let r = rowidx[f];
            (r < row_end).then_some(r)
        } else {
            None
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::{convert_matrix_farm, FarmConfig, FarmRun};
    use nmt_formats::{Coo, Csr, SparseMatrix, TiledDcsr};

    fn farm(csc: &Csc, tile_w: usize, tile_h: usize) -> FarmRun {
        convert_matrix_farm(csc, tile_w, tile_h, FarmConfig::paper_default()).unwrap()
    }

    /// The Figure 13 walk-through strip: 5 rows x 3 cols,
    /// col0 = {a0@0, a2@2, a4@4}, col1 = {b0@0, b1@1, b4@4},
    /// col2 = {c0@0, c2@2}.
    fn figure13_csc() -> Csc {
        Csc::new(
            5,
            3,
            vec![0, 3, 6, 8],
            vec![0, 2, 4, 0, 1, 4, 0, 2],
            vec![10.0, 12.0, 14.0, 20.0, 21.0, 24.0, 30.0, 32.0],
        )
        .unwrap()
    }

    #[test]
    fn figure13_walkthrough() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3);
        let tile = conv.next_tile(0, 5);
        // Expected DCSR (Figure 13, bottom right):
        // value  = a0 b0 c0 | b1 | a2 c2 | a4 b4
        // colidx = 0  1  2  | 1  | 0  2  | 0  1
        // rowptr = 0 3 4 6 8 ; rowidx = 0 1 2 4
        assert_eq!(
            tile.values,
            vec![10.0, 20.0, 30.0, 21.0, 12.0, 32.0, 14.0, 24.0]
        );
        assert_eq!(tile.colidx, vec![0, 1, 2, 1, 0, 2, 0, 1]);
        assert_eq!(tile.rowptr, vec![0, 3, 4, 6, 8]);
        assert_eq!(tile.rowidx, vec![0, 1, 2, 4]);
        let st = conv.stats();
        assert_eq!(st.elements, 8);
        assert_eq!(st.rows_emitted, 4);
        // 4 emitting passes + 1 concluding pass.
        assert_eq!(st.comparator_passes, 5);
        // 2 pointer arrays of 3 lanes + 8 elements x 8 bytes.
        assert_eq!(st.input_bytes, 24 + 64);
        // 5 passes x 3 lanes offered, 8 slots emitted.
        assert_eq!(st.lane_slots, 15);
        assert!((st.comparator_occupancy() - 8.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_accumulates_all_fields() {
        let csc = figure13_csc();
        let mut a = StripConverter::new(&csc, 0, 3);
        a.next_tile(0, 5);
        let st = a.stats();
        let mut merged = ConversionStats::default();
        merged.merge(&st);
        merged.merge(&st);
        assert_eq!(merged.elements, 2 * st.elements);
        assert_eq!(merged.comparator_passes, 2 * st.comparator_passes);
        assert_eq!(merged.lane_slots, 2 * st.lane_slots);
        assert_eq!(merged.input_bytes, 2 * st.input_bytes);
        assert_eq!(merged.output_bytes, 2 * st.output_bytes);
        assert_eq!(merged.rows_emitted, 2 * st.rows_emitted);
        assert_eq!(merged.tiles, 2 * st.tiles);
        // Occupancy is scale-invariant under merge of identical runs.
        assert!((merged.comparator_occupancy() - st.comparator_occupancy()).abs() < 1e-12);
        assert_eq!(ConversionStats::default().comparator_occupancy(), 0.0);
    }

    #[test]
    fn publish_conversion_bridges_to_registry() {
        let csc = figure13_csc();
        let stats = farm(&csc, 3, 5).stats;
        let obs = nmt_obs::ObsContext::disabled();
        publish_conversion(&obs, &stats);
        assert_eq!(obs.metrics.counter("engine.convert.elements"), 8);
        assert_eq!(obs.metrics.counter("engine.comparator.passes"), 5);
        assert_eq!(
            obs.metrics.gauge("engine.comparator.occupancy"),
            Some(stats.comparator_occupancy())
        );
    }

    fn random_csr(n: usize, nnz: usize, seed: u64) -> Csr {
        // Simple LCG-based deterministic scatter.
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut coo = Coo::new(n, n).unwrap();
        for _ in 0..nnz {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let r = ((state >> 33) as usize) % n;
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let c = ((state >> 33) as usize) % n;
            coo.push(r as u32, c as u32, (r * n + c) as f32 + 0.5)
                .unwrap();
        }
        coo.canonicalize();
        Csr::from_coo(&coo)
    }

    #[test]
    fn online_conversion_matches_offline_tiling() {
        // The engine's output must be bit-identical to offline tiling.
        for &(n, nnz, tile) in &[(60usize, 200usize, 16usize), (100, 50, 32), (64, 64, 64)] {
            let csr = random_csr(n, nnz, n as u64);
            let csc = csr.to_csc();
            let offline = TiledDcsr::from_csr(&csr, tile, tile).unwrap();
            let online = farm(&csc, tile, tile);
            assert_eq!(online.strips.len(), offline.strips().len());
            for (s, strip) in offline.strips().iter().enumerate() {
                assert_eq!(&online.strips[s], strip, "strip {s} differs (n={n})");
            }
            assert_eq!(online.stats.elements as usize, csr.nnz());
        }
    }

    #[test]
    fn sequential_tiles_share_frontier_state() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3);
        let t0 = conv.next_tile(0, 2); // rows 0..2
        let t1 = conv.next_tile(2, 2); // rows 2..4
        let t2 = conv.next_tile(4, 2); // row 4
        assert_eq!(t0.rowidx, vec![0, 1]);
        assert_eq!(t1.rowidx, vec![0]); // row 2 local
        assert_eq!(t2.rowidx, vec![0]); // row 4 local
        assert_eq!(
            t0.nnz() + t1.nnz() + t2.nnz(),
            csc.nnz(),
            "tiles must partition the strip"
        );
    }

    #[test]
    fn seek_supports_random_tile_access() {
        let csc = figure13_csc();
        // Jump straight to the tile at rows 2..4 without converting 0..2.
        let mut conv = StripConverter::new(&csc, 0, 3);
        conv.seek(2);
        let tile = conv.next_tile(2, 2);
        assert_eq!(tile.rowidx, vec![0]);
        assert_eq!(tile.values, vec![12.0, 32.0]); // a2, c2
                                                   // Seek back to the top reproduces the first tile.
        conv.seek(0);
        let t0 = conv.next_tile(0, 2);
        assert_eq!(t0.values, vec![10.0, 20.0, 30.0, 21.0]);
    }

    #[test]
    fn second_strip_has_local_columns() {
        let csr = random_csr(40, 120, 9);
        let csc = csr.to_csc();
        let run = farm(&csc, 16, 16);
        for t in &run.strips[1] {
            assert_eq!(t.col_start, 16);
            t.validate().unwrap();
        }
    }

    #[test]
    fn empty_strip_produces_empty_tiles() {
        // Matrix with entries only in column 0; strip 1 is empty.
        let coo = Coo::from_triplets(8, 8, &[0, 3], &[0, 0], &[1.0, 2.0]).unwrap();
        let csc = Csc::from_coo(&coo);
        let run = farm(&csc, 4, 4);
        assert_eq!(run.strips[1].len(), 2);
        assert!(run.strips[1].iter().all(nmt_formats::DcsrTile::is_empty));
        assert_eq!(run.per_strip[1].elements, 0);
        // Still pays the pointer-array load and one concluding pass/tile.
        assert_eq!(run.per_strip[1].comparator_passes, 2);
    }

    #[test]
    fn output_bytes_match_tile_footprint() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3);
        let tile = conv.next_tile(0, 5);
        let expected = tile.metadata_bytes() + tile.data_bytes();
        assert_eq!(conv.stats().output_bytes as usize, expected);
    }

    #[test]
    fn ragged_last_strip() {
        let csr = random_csr(20, 60, 3);
        let csc = csr.to_csc();
        // 20 cols with 16-wide strips: strip 1 is 4 wide.
        let run = farm(&csc, 16, 16);
        assert_eq!(run.strips.len(), 2);
        let offline = TiledDcsr::from_csr(&csr, 16, 16).unwrap();
        assert_eq!(run.strips[1], offline.strips()[1]);
    }
}

#[cfg(test)]
mod regression_tests {
    use crate::farm::{convert_matrix_farm, FarmConfig};
    use nmt_formats::Csc;

    #[test]
    fn zero_column_matrix_converts_to_empty_tiles() {
        // Review regression: a zero-column CSC used to panic initializing
        // the frontier pointers.
        let csc = Csc::new(4, 0, vec![0], vec![], vec![]).unwrap();
        let run = convert_matrix_farm(&csc, 16, 16, FarmConfig::paper_default()).unwrap();
        assert_eq!(run.strips.len(), 1);
        assert!(run.strips[0].iter().all(nmt_formats::DcsrTile::is_empty));
        assert_eq!(run.stats.elements, 0);
    }

    #[test]
    fn zero_row_matrix_converts_to_empty_tiles() {
        let csc = Csc::new(0, 8, vec![0; 9], vec![], vec![]).unwrap();
        let run = convert_matrix_farm(&csc, 4, 4, FarmConfig::paper_default()).unwrap();
        assert_eq!(run.strips.len(), 2);
        assert_eq!(run.stats.elements, 0);
    }
}
