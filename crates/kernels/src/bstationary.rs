//! B-stationary tiled kernels (§3.1.1): a 64×K tile of B lives in shared
//! memory; thread blocks walk the tiles of a vertical strip of A
//! (column-major traversal, §3.1.3) and commit partial sums of C with
//! atomics (2× channel occupancy).
//!
//! Every variant runs one row body (`process_tile_row`) and one B-tile
//! load. The DCSR variants share one launch (Figure 11's device loop) and
//! differ only in the block order ([`Traversal`]) and the tile source,
//! which charges each tile's DRAM cost:
//! * [`bstat_tiled_csr`] — strips kept in CSR, with its own rowptr walk:
//!   every tile scans a full `tile_h + 1` row-pointer window and burns a
//!   1-active-lane check per empty row (the Figure 6/7 pathology).
//! * [`bstat_tiled_dcsr_offline`] — tiles pre-converted to DCSR and stored
//!   in DRAM: compute-efficient but pays the tiled-metadata footprint of
//!   Figure 9 on every read (and, in reality, an offline conversion pass
//!   this kernel does not charge — §5.2 calls its results optimistic).
//!   [`bstat_tiled_dcsr_traversal`] runs the same tiles under either
//!   §3.1.3 order with `tile_w`-wide output-column slices.
//! * [`bstat_tiled_dcsr_online`] — the paper's proposal: DRAM holds only
//!   the compact CSC; the near-memory engine streams freshly-minted DCSR
//!   tiles to the SM over the crossbar, so the DRAM-side cost is the CSC
//!   elements themselves.

use crate::device::{CscDevice, DenseDevice, TiledDcsrDevice, WORD};
use crate::KernelRun;
use nmt_engine::{
    convert_matrix_farm_obs, publish_conversion, publish_farm, publish_pipeline, simulate_strip,
    ConversionStats, FarmConfig, PipelineConfig, PipelineResult,
};
use nmt_formats::{Csc, DcsrTile, DenseMatrix, SparseMatrix, TiledCsr, TiledDcsr};
use nmt_obs::ObsContext;
use nmt_sim::{BlockCtx, Gpu, InstrClass, KernelStats, SimError, TrafficClass};

/// What every B-stationary launch works on: B and its device image, the
/// functional C and its device image, and the per-row accumulator
/// (pooled, so it costs zero allocations across the whole launch).
struct Operands<'a> {
    b: &'a DenseMatrix,
    b_dev: DenseDevice,
    c: DenseMatrix,
    c_dev: DenseDevice,
    acc: Vec<f32>,
}

impl<'a> Operands<'a> {
    /// Upload B and an `n`-row C after A's buffers.
    fn upload(gpu: &mut Gpu, b: &'a DenseMatrix, n: usize, acc_cap: usize) -> Self {
        let c = DenseMatrix::zeros(n, b.ncols());
        Self {
            b,
            b_dev: DenseDevice::upload(gpu, b, TrafficClass::MatB),
            c_dev: DenseDevice::upload(gpu, &c, TrafficClass::MatC),
            c,
            acc: nmt_engine::mem::take_val(true, acc_cap),
        }
    }

    /// Load the strip's B tile (`rows` rows of B from `row0`, output
    /// columns `[k_lo, k_hi)`) into shared memory.
    fn load_b_tile(&self, ctx: &mut BlockCtx<'_>, row0: usize, rows: usize, k: (usize, usize)) {
        let (b_dev, k_lo, kw) = (&self.b_dev, k.0, k.1 - k.0);
        for i in 0..rows {
            let (off, bytes) = b_dev.row_segment((row0 + i) as u64, k_lo as u64, kw as u64);
            ctx.ld_global(&b_dev.buf, off, bytes, false);
            ctx.shared_op(bytes, ctx.warp_size().min(kw));
        }
    }

    /// The one B-stationary row body: FMA the row segment against the
    /// shared-memory B tile over output columns `[k_lo, k_hi)` and
    /// atomically add that slice of the partial C row. `cols` are
    /// tile-local; `col_base` rebases them to global columns in-register.
    ///
    /// Issue accounting is charged once per row: per non-zero, one index
    /// instruction, then one shared-memory read and one FMA per warp-wide
    /// chunk. These counters only add, so `nnz × full_chunks` plus the
    /// remainder chunk is exactly the per-element loop's total. The FMA
    /// stays element-outer, so C is bitwise the per-element loop's too.
    fn process_tile_row(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        row: usize,
        (cols, col_base, vals): (&[u32], u32, &[f32]),
        (k_lo, k_hi): (usize, usize),
    ) {
        let warp = ctx.warp_size();
        let (kw, nnz) = (k_hi - k_lo, cols.len() as u64);
        let (full, rem) = ((kw / warp) as u64, kw % warp);
        ctx.warp_instr(InstrClass::Integer, kw.min(warp), nnz);
        // B comes from shared memory: issue cost only, no global traffic.
        ctx.warp_instr(InstrClass::Memory, warp, nnz * full);
        ctx.fma(warp, nnz * full);
        if rem > 0 {
            ctx.warp_instr(InstrClass::Memory, rem, nnz);
            ctx.fma(rem, nnz);
        }
        let acc = &mut self.acc;
        acc.clear();
        acc.resize(kw, 0.0);
        for (&cl, &v) in cols.iter().zip(vals) {
            let brow = &self.b.row((col_base + cl) as usize)[k_lo..k_hi];
            for (a, &bv) in acc.iter_mut().zip(brow) {
                *a += v * bv;
            }
        }
        // Partial contribution: atomic adds over the C row slice (Table 1's 2x).
        let (off, bytes) = self.c_dev.row_segment(row as u64, k_lo as u64, kw as u64);
        ctx.atomic_add_global(&self.c_dev.buf, off, bytes);
        for (o, a) in self.c.row_mut(row)[k_lo..k_hi].iter_mut().zip(acc.iter()) {
            *o += a;
        }
    }

    fn finish(self, stats: KernelStats) -> KernelRun {
        nmt_engine::mem::put_val(true, self.acc);
        KernelRun { c: self.c, stats }
    }
}

fn check_dims(
    a_shape: nmt_formats::Shape,
    b: &DenseMatrix,
    tile_w: usize,
) -> Result<(), SimError> {
    crate::check_inner_dims(a_shape.ncols, b.nrows())?;
    // The B tile (tile_w rows x K columns) must be a plausible shared-
    // memory resident; the launch itself enforces the hard capacity limit.
    if tile_w == 0 {
        return Err(SimError::ShapeMismatch {
            detail: "tile width must be positive".into(),
        });
    }
    Ok(())
}

/// B-stationary over offline-tiled **CSR** strips.
pub fn bstat_tiled_csr(
    gpu: &mut Gpu,
    tiled: &TiledCsr,
    b: &DenseMatrix,
    tile_h: usize,
) -> Result<KernelRun, SimError> {
    let shape = tiled.shape();
    check_dims(shape, b, tiled.tile_width())?;
    // `TiledCsr` carries no tile height, so the caller's is checked here.
    if tile_h == 0 {
        return Err(SimError::ShapeMismatch {
            detail: "tile height must be positive".into(),
        });
    }
    let n = shape.nrows;
    let k = b.ncols();
    let tile_w = tiled.tile_width();
    // Device image: per strip, a full rowptr plus the strip's elements.
    // Strip count is known up front — reserve once instead of growing.
    let mut strip_rowptr = Vec::with_capacity(tiled.strips().len());
    let mut strip_elems = Vec::with_capacity(tiled.strips().len());
    for strip in tiled.strips() {
        strip_rowptr.push(gpu.alloc((n as u64 + 1) * WORD, TrafficClass::MatA));
        strip_elems.push(gpu.alloc((strip.nnz().max(1) as u64) * 2 * WORD, TrafficClass::MatA));
    }
    let mut ops = Operands::upload(gpu, b, n, k);
    let tiles_per_strip = nmt_formats::tile_count(n, tile_h);
    // One thread block per strip: the B tile is loaded into shared memory
    // once and every tile of the strip streams past it (§3.1.1: "a tile
    // of B is loaded into the shared memory only once").
    let num_blocks = tiled.strips().len();
    let shared = tile_w * k * WORD as usize;
    let stats = gpu.launch(shared, num_blocks, |ctx| {
        let s = ctx.block_id;
        let strip = &tiled.strips()[s];
        let b_rows = strip.width.min(b.nrows() - s * tile_w);
        ops.load_b_tile(ctx, s * tile_w, b_rows, (0, k));
        for t in 0..tiles_per_strip {
            let row0 = t * tile_h;
            let row1 = (row0 + tile_h).min(n);
            // Full rowptr window for this tile: tile_h + 1 words, present
            // for every row whether or not it has non-zeros.
            ctx.ld_global(
                &strip_rowptr[s],
                row0 as u64 * WORD,
                (row1 - row0 + 1) as u64 * WORD,
                false,
            );
            for r in row0..row1 {
                // One lane inspects rowptr[r..r+2]; empty rows waste the warp.
                ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                let (lo, hi) = (strip.rowptr[r] as usize, strip.rowptr[r + 1] as usize);
                if lo == hi {
                    ctx.warp_instr(InstrClass::Integer, 1, 1);
                    continue;
                }
                let seg = hi - lo;
                ctx.ld_global(
                    &strip_elems[s],
                    lo as u64 * 2 * WORD,
                    seg as u64 * 2 * WORD,
                    false,
                );
                let (cols, vals) = (&strip.colidx[lo..hi], &strip.values[lo..hi]);
                ops.process_tile_row(ctx, r, (cols, strip.col_start, vals), (0, k));
            }
        }
    })?;
    Ok(ops.finish(stats))
}

/// Order in which the grid of B tiles is traversed (§3.1.3).
///
/// B tiles form a grid: row index = vertical strip `s` (a block of B's
/// rows), column index = output-column tile `kc`. The traversal order
/// decides C's reuse distance: column-major (all strips for one `kc`
/// before the next) keeps one column slice of C hot in the LLC "by
/// writing back to the same tiles until all partial sums are
/// accumulated"; row-major touches the entire C once per strip, which
/// "is rather expensive".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// For each strip, sweep every output-column tile (C thrashes).
    RowMajor,
    /// For each output-column tile, sweep every strip (C slice stays hot).
    ColumnMajor,
}

impl Traversal {
    /// The (strip, output-column tile) block `id` owns in a grid of
    /// `strips × kc_tiles` B tiles.
    fn block(self, id: usize, strips: usize, kc_tiles: usize) -> (usize, usize) {
        match self {
            Self::RowMajor => (id / kc_tiles, id % kc_tiles),
            Self::ColumnMajor => (id % strips, id / strips),
        }
    }
}

/// Where a DCSR launch's tiles come from, and so what each costs in DRAM:
/// the one difference between offline and online tiles (§4, Figure 9).
enum TileSource<'a> {
    /// Offline tiles packed in DRAM.
    Packed(TiledDcsrDevice),
    /// Tiles the near-memory engine mints from the CSC (`GetDCSRTile`).
    Engine { csc: &'a Csc, dev: CscDevice },
}

impl TileSource<'_> {
    /// Once per strip, after its B tile load.
    fn begin_strip(&self, ctx: &mut BlockCtx<'_>, s: usize, tile_w: usize, first_width: usize) {
        if let Self::Engine { dev, .. } = self {
            // The engine loads boundary/frontier pointers from col_ptr
            // once per strip (Figure 14 ❶).
            let (off, len) = ((s * tile_w) as u64 * WORD, (first_width as u64 + 1) * WORD);
            ctx.ld_global(&dev.colptr, off, len, false);
        }
    }

    /// Tile `t` of strip `s`, whose earlier tiles hold `before` elements.
    fn charge_tile(
        &self,
        ctx: &mut BlockCtx<'_>,
        (s, t): (usize, usize),
        tile: &DcsrTile,
        tile_w: usize,
        before: u64,
    ) {
        match self {
            Self::Packed(dev) => {
                // Tile directory entry + the tile's packed bytes.
                let (off, len) = dev.offsets[s][t];
                let dir_bytes = 8.min(dev.data.len);
                let dir = off.min(dev.data.len - dir_bytes);
                ctx.ld_global(&dev.data, dir, dir_bytes, false);
                if len > 0 {
                    ctx.ld_global(&dev.data, off, len, false);
                }
            }
            Self::Engine { csc, dev } => {
                // GetDCSRTile request: much like a warp vector store (Fig. 11).
                ctx.warp_instr(InstrClass::Memory, ctx.warp_size(), 1);
                // The engine streams the tile's CSC elements (rowidx +
                // value) from DRAM inside the FB partition: the strip's
                // elements are contiguous, and this tile consumes the
                // next `nnz` of them (sequential frontier advance).
                if tile.nnz() > 0 {
                    let lo = (csc.colptr()[s * tile_w] as u64 + before) * WORD;
                    let bytes = tile.nnz() as u64 * WORD;
                    ctx.ld_global(&dev.rowidx, lo, bytes, false);
                    ctx.ld_global(&dev.values, lo, bytes, false);
                }
                // Converted rows arrive over the Xbar into shared memory:
                // crossbar bandwidth and issue slots, but no DRAM
                // bandwidth — the engine's whole point.
                ctx.xbar_stream((tile.metadata_bytes() + tile.data_bytes()) as u64);
            }
        }
    }
}

/// The one B-stationary DCSR launch, Figure 11's device loop: each block
/// takes a (strip, output-column tile) from `order`, loads that B tile
/// into shared memory once, then streams the strip's tiles past it, each
/// charged by `source`. Output-column tiles are `kc_w` wide.
fn launch_dcsr_tiles(
    gpu: &mut Gpu,
    strips: &[Vec<DcsrTile>],
    source: &TileSource<'_>,
    (b, n): (&DenseMatrix, usize),
    (tile_w, kc_w): (usize, usize),
    order: Traversal,
) -> Result<KernelRun, SimError> {
    let k = b.ncols();
    let mut ops = Operands::upload(gpu, b, n, kc_w);
    let nstrips = strips.len();
    let kc_tiles = k.div_ceil(kc_w.max(1)).max(1);
    let shared = tile_w * kc_w * WORD as usize;
    let stats = gpu.launch(shared, nstrips * kc_tiles, |ctx| {
        let (s, kc) = order.block(ctx.block_id, nstrips, kc_tiles);
        let k_tile = (kc * kc_w, (kc * kc_w + kc_w).min(k));
        let first_width = strips[s].first().map_or(tile_w, |t| t.width);
        let b_rows = first_width.min(b.nrows().saturating_sub(s * tile_w));
        ops.load_b_tile(ctx, s * tile_w, b_rows, k_tile);
        source.begin_strip(ctx, s, tile_w, first_width);
        let mut before = 0;
        for (t, tile) in strips[s].iter().enumerate() {
            source.charge_tile(ctx, (s, t), tile, tile_w, before);
            before += tile.nnz() as u64;
            for i in 0..tile.nnz_rows() {
                let (lo, hi) = (tile.rowptr[i] as usize, tile.rowptr[i + 1] as usize);
                ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                let row = (tile.row_start + tile.rowidx[i]) as usize;
                let (cols, vals) = (&tile.colidx[lo..hi], &tile.values[lo..hi]);
                ops.process_tile_row(ctx, row, (cols, tile.col_start, vals), k_tile);
            }
        }
    })?;
    Ok(ops.finish(stats))
}

/// Offline tiles packed in DRAM, under `order` with `kc_w`-wide
/// output-column tiles.
fn launch_packed(
    gpu: &mut Gpu,
    tiled: &TiledDcsr,
    b: &DenseMatrix,
    kc_w: usize,
    order: Traversal,
) -> Result<KernelRun, SimError> {
    let (shape, tile_w) = (tiled.shape(), tiled.tile_width());
    check_dims(shape, b, tile_w)?;
    let source = TileSource::Packed(TiledDcsrDevice::upload(gpu, tiled));
    let n = shape.nrows;
    launch_dcsr_tiles(gpu, tiled.strips(), &source, (b, n), (tile_w, kc_w), order)
}

/// B-stationary over offline-tiled **DCSR** (stored pre-tiled in DRAM):
/// one block per strip, B tile resident in shared memory across all of
/// the strip's tiles.
pub fn bstat_tiled_dcsr_offline(
    gpu: &mut Gpu,
    tiled: &TiledDcsr,
    b: &DenseMatrix,
) -> Result<KernelRun, SimError> {
    launch_packed(gpu, tiled, b, b.ncols(), Traversal::ColumnMajor)
}

/// B-stationary over offline-tiled DCSR with an explicit B-tile traversal
/// order and `K` split into `tile_w`-wide output-column tiles — the
/// experiment kernel behind §3.1.3's row- vs column-major comparison.
pub fn bstat_tiled_dcsr_traversal(
    gpu: &mut Gpu,
    tiled: &TiledDcsr,
    b: &DenseMatrix,
    traversal: Traversal,
) -> Result<KernelRun, SimError> {
    launch_packed(gpu, tiled, b, tiled.tile_width(), traversal)
}

/// Result of the online kernel: the run plus the engine activity.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// The kernel run (output + GPU-side stats).
    pub run: KernelRun,
    /// Aggregated conversion-engine counters across all strips.
    pub engine: ConversionStats,
}

/// The paper's proposal: B-stationary tiled DCSR **converted online** from
/// CSC by the near-memory engine (`GetDCSRTile`, Figure 11).
///
/// DRAM-side cost is the CSC stream the engine consumes inside the FB
/// partition (accounted as `MatA`); the produced DCSR rows ride the
/// crossbar into the SM's shared memory (accounted as issue cost and
/// [`TrafficClass::Engine`] request traffic, not DRAM).
pub fn bstat_tiled_dcsr_online(
    gpu: &mut Gpu,
    csc: &Csc,
    b: &DenseMatrix,
    tile_w: usize,
    tile_h: usize,
) -> Result<OnlineRun, SimError> {
    bstat_tiled_dcsr_online_obs(gpu, csc, b, tile_w, tile_h, &ObsContext::disabled())
}

/// [`bstat_tiled_dcsr_online`] with an observability context threaded
/// through: the conversion pre-run and the kernel launch are wrapped in
/// spans (`engine.convert` with one child per strip, `kernels.launch`),
/// per-strip FLOP/element/stream-byte histograms land in the metric
/// registry, and — when the context is enabled — each strip additionally
/// runs the cycle-level prefetch pipeline so
/// `engine.pipeline.prefetch_hit_rate` reflects this matrix.
pub fn bstat_tiled_dcsr_online_obs(
    gpu: &mut Gpu,
    csc: &Csc,
    b: &DenseMatrix,
    tile_w: usize,
    tile_h: usize,
    obs: &ObsContext,
) -> Result<OnlineRun, SimError> {
    let shape = csc.shape();
    check_dims(shape, b, tile_w)?;
    let n = shape.nrows;
    let k = b.ncols();
    let dev = CscDevice::upload(gpu, csc);

    // Pre-run the functional converters: one engine per FB partition,
    // strips sharded rayon-parallel across the farm (§6.1). The farm's
    // reduction is partition-index-ordered, so `engine` and every obs
    // counter below are byte-identical at any thread count.
    // The farm validates the tile geometry, so a zero height surfaces as
    // `BadConfig` here.
    let farm_cfg =
        FarmConfig::for_partitions(gpu.config().num_partitions).with_fault(gpu.fault_plan());
    let farm = convert_matrix_farm_obs(csc.view(), tile_w, tile_h, farm_cfg, obs).map_err(
        |e| match e {
            nmt_engine::FarmError::Fault { site, key, detail } => {
                SimError::InjectedFault { site, key, detail }
            }
            other => SimError::BadConfig(other.to_string()),
        },
    )?;
    let nstrips = nmt_formats::strip_count(shape.ncols, tile_w);
    let engine = farm.stats;
    {
        let mut convert_span = obs.span("engine.convert");
        // The discrete prefetch-pipeline model is priced per strip only
        // when someone is watching; it does not change the run. It is pure
        // per strip, so it runs in the same parallel fashion as the farm
        // and publishes serially below in strip order.
        let pipeline_runs: Vec<PipelineResult> = if obs.is_enabled() {
            use rayon::prelude::*;
            let pipe_cfg = PipelineConfig::paper_fp32(tile_w.clamp(1, 64));
            (0..nstrips)
                .into_par_iter()
                .map(|s| simulate_strip(csc, s, &pipe_cfg))
                .collect()
        } else {
            // nmt-lint: allow(hot-alloc) — cold branch, empty Vec never allocates
            Vec::new()
        };
        // Record spans and histograms serially, strips ascending: span
        // parentage and histogram contents stay identical to a serial run.
        for (s, st) in farm.per_strip.iter().enumerate() {
            let mut strip_span = obs.span("engine.convert.strip");
            strip_span.counter("strip", s as f64);
            strip_span.counter("elements", st.elements as f64);
            strip_span.counter("output_bytes", st.output_bytes as f64);
            obs.flight
                .record(nmt_obs::EventSite::KernelStrip, 0, s as u64, st.elements);
            let m = &obs.metrics;
            m.histogram_record("kernels.bstat_online.strip_elements", st.elements);
            m.histogram_record("kernels.bstat_online.strip_flops", 2 * k as u64 * st.elements);
            m.histogram_record("kernels.bstat_online.strip_stream_bytes", st.output_bytes);
            if let Some(pipe) = pipeline_runs.get(s) {
                publish_pipeline(obs, pipe);
            }
        }
        convert_span.counter("strips", nstrips as f64);
    }
    publish_conversion(obs, &engine);
    publish_farm(obs, &farm);
    let tiles = farm.strips;

    // One block per strip, exactly the device loop of Figure 11: the block
    // initializes col_frontier, loads its B tile once, then issues one
    // GetDCSRTile per DCSR_HEIGHT rows.
    let launch_span = obs.span("kernels.launch");
    obs.flight
        .record(nmt_obs::EventSite::KernelLaunch, 0, nstrips as u64, k as u64);
    let source = TileSource::Engine { csc, dev };
    let order = Traversal::ColumnMajor;
    let run = launch_dcsr_tiles(gpu, &tiles, &source, (b, n), (tile_w, k), order)?;
    // The freshly-minted tiles have been consumed; hand their buffers back
    // so the next online conversion of a similar matrix allocates nothing.
    if farm_cfg.pool {
        nmt_engine::mem::recycle_strips(tiles);
    }
    drop(launch_span);
    Ok(OnlineRun { run, engine })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host;
    use nmt_formats::Csr;
    use nmt_matgen::{generators, random_dense, GenKind, MatrixDesc};
    use nmt_sim::GpuConfig;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::test_small()).unwrap()
    }

    fn matrix(n: usize, density: f64, seed: u64) -> Csr {
        generators::generate(&MatrixDesc::new("t", n, GenKind::Uniform { density }, seed))
    }

    #[test]
    fn tiled_csr_matches_reference() {
        let a = matrix(128, 0.02, 1);
        let tiled = TiledCsr::from_csr(&a, 16).unwrap();
        let b = random_dense(128, 16, 2);
        let run = bstat_tiled_csr(&mut gpu(), &tiled, &b, 16).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
        assert!(run.stats.atomics > 0, "B-stationary must use atomics");
    }

    #[test]
    fn tiled_dcsr_offline_matches_reference() {
        let a = matrix(128, 0.02, 3);
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(128, 16, 4);
        let run = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
    }

    #[test]
    fn online_matches_reference_and_offline() {
        let a = matrix(128, 0.02, 5);
        let csc = a.to_csc();
        let b = random_dense(128, 16, 6);
        let online = bstat_tiled_dcsr_online(&mut gpu(), &csc, &b, 16, 16).unwrap();
        assert!(online.run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let offline = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
        // The same tiles through the same row loop: C agrees bit for bit,
        // and only the per-tile DRAM charge may differ.
        assert_eq!(bits(&online.run.c), bits(&offline.c));
        assert_eq!(online.run.stats.flops, offline.stats.flops);
        assert_eq!(online.run.stats.atomics, offline.stats.atomics);
        assert_eq!(online.engine.elements as usize, a.nnz());
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_csr_rejects_zero_tile_height() {
        // `TiledCsr` carries no tile height; a zero one is a typed error
        // for this matrix, not a panic in `tile_count`.
        let tiled = TiledCsr::from_csr(&matrix(32, 0.1, 5), 16).unwrap();
        let b = random_dense(32, 4, 6);
        match bstat_tiled_csr(&mut gpu(), &tiled, &b, 0) {
            Err(SimError::ShapeMismatch { .. }) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    /// One row through a one-block launch, charged per row by
    /// `process_tile_row` or per element and chunk by the loop it batches.
    fn one_row(k: usize, row_len: usize, batched: bool) -> KernelRun {
        let (n, r) = (16, 3);
        let b = random_dense(n, k, 40);
        let cols: Vec<u32> = (0..row_len as u32).map(|i| (5 * i + 3) % 16).collect();
        let vals: Vec<f32> = (0..row_len).map(|i| 0.25 + i as f32).collect();
        let mut gpu = gpu();
        let mut ops = Operands::upload(&mut gpu, &b, n, k);
        let stats = gpu.launch(0, 1, |ctx| {
            if batched {
                return ops.process_tile_row(ctx, r, (&cols, 0, &vals), (0, k));
            }
            let (warp, mut acc) = (ctx.warp_size(), vec![0.0; k]);
            for (&col, &v) in cols.iter().zip(&vals) {
                ctx.warp_instr(InstrClass::Integer, k.min(warp), 1);
                for kc in (0..k).step_by(warp) {
                    let chunk = (k - kc).min(warp);
                    ctx.shared_op(chunk as u64 * WORD, chunk);
                    ctx.fma(chunk, 1);
                    let brow = &b.row(col as usize)[kc..kc + chunk];
                    for (a, &bv) in acc[kc..kc + chunk].iter_mut().zip(brow) {
                        *a += v * bv;
                    }
                }
            }
            let (off, bytes) = ops.c_dev.row_segment(r as u64, 0, k as u64);
            ctx.atomic_add_global(&ops.c_dev.buf, off, bytes);
            for (o, a) in ops.c.row_mut(r).iter_mut().zip(&acc) {
                *o += a;
            }
        });
        ops.finish(stats.unwrap())
    }

    #[test]
    fn per_row_accounting_equals_per_element_reference() {
        let warp = GpuConfig::test_small().warp_size;
        for k in [0, 1, 31, 32, 33, 64, 100] {
            for row_len in [0, 1, 7] {
                let (got, want) = (one_row(k, row_len, true), one_row(k, row_len, false));
                let (g, w) = (&got.stats, &want.stats);
                let case = format!("k={k} row_len={row_len}");
                assert_eq!(g.warp_exec, w.warp_exec, "{case}");
                assert_eq!((g.flops, g.atomics), (w.flops, w.atomics), "{case}");
                let issued = |s: &KernelStats| s.warp_exec.warp_instructions(warp);
                assert_eq!(issued(g), issued(w), "{case}");
                assert_eq!(g.t_compute_ns, w.t_compute_ns, "{case}");
                assert_eq!(bits(&got.c), bits(&want.c), "{case}");
            }
        }
    }

    #[test]
    fn online_rejects_unconvertible_tiles_as_bad_config() {
        // Geometry the engine cannot convert is a config error for this
        // matrix, not a panic that would abort a whole sweep.
        let csc = matrix(32, 0.1, 5).to_csc();
        let b = random_dense(32, 4, 6);
        for (tile_w, tile_h) in [(16, 0), (65, 16)] {
            match bstat_tiled_dcsr_online(&mut gpu(), &csc, &b, tile_w, tile_h) {
                Err(SimError::BadConfig(_)) => {}
                other => panic!("{tile_w}x{tile_h}: expected BadConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn dcsr_reduces_inactive_slots_vs_tiled_csr() {
        // Figure 7: tiled DCSR cuts inactive thread executions ~90%.
        let a = matrix(256, 0.002, 7);
        let b = random_dense(256, 16, 8);
        let tcsr = TiledCsr::from_csr(&a, 16).unwrap();
        let tdcsr = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let csr_run = bstat_tiled_csr(&mut gpu(), &tcsr, &b, 16).unwrap();
        let dcsr_run = bstat_tiled_dcsr_offline(&mut gpu(), &tdcsr, &b).unwrap();
        let csr_inact = csr_run.stats.warp_exec.inactive_fraction();
        let dcsr_inact = dcsr_run.stats.warp_exec.inactive_fraction();
        assert!(
            dcsr_inact < csr_inact,
            "tiled DCSR should reduce inactive fraction: {dcsr_inact} vs {csr_inact}"
        );
    }

    #[test]
    fn online_reads_less_dram_metadata_than_offline() {
        // The whole point: online pays CSC-sized A traffic, offline pays
        // the tiled-DCSR footprint (Figure 9's overhead).
        let a = matrix(256, 0.002, 9);
        let csc = a.to_csc();
        let b = random_dense(256, 16, 10);
        let online = bstat_tiled_dcsr_online(&mut gpu(), &csc, &b, 16, 16).unwrap();
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let offline = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
        let online_a = online.run.stats.requested_traffic.get(TrafficClass::MatA);
        let offline_a = offline.stats.requested_traffic.get(TrafficClass::MatA);
        assert!(
            online_a < offline_a,
            "online A traffic {online_a} should undercut offline {offline_a}"
        );
    }

    #[test]
    fn traversal_kernel_matches_reference_both_orders() {
        let a = matrix(128, 0.02, 21);
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(128, 64, 22); // 4 output-column tiles
        let reference = host::spmm_csr(&a, &b);
        for order in [Traversal::RowMajor, Traversal::ColumnMajor] {
            let run = bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, order).unwrap();
            assert!(run.c.approx_eq(&reference, 1e-4), "{order:?} diverged");
        }
    }

    #[test]
    fn column_major_traversal_has_better_c_locality() {
        // §3.1.3: column-major keeps a C column slice hot across strips;
        // row-major cycles the whole C per strip. With C larger than the
        // test L2, column-major must see fewer C DRAM bytes.
        let a = matrix(256, 0.03, 23);
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(256, 64, 24);
        let row = bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, Traversal::RowMajor).unwrap();
        let col =
            bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, Traversal::ColumnMajor).unwrap();
        assert!(col.c.approx_eq(&row.c, 1e-4));
        let row_c = row.stats.dram_traffic.get(TrafficClass::MatC);
        let col_c = col.stats.dram_traffic.get(TrafficClass::MatC);
        assert!(
            col_c <= row_c,
            "column-major C traffic {col_c} should not exceed row-major {row_c}"
        );
    }

    #[test]
    fn empty_matrix_runs() {
        let a = Csr::new(32, 32, vec![0; 33], vec![], vec![]).unwrap();
        let b = random_dense(32, 8, 1);
        let online = bstat_tiled_dcsr_online(&mut gpu(), &a.to_csc(), &b, 16, 16).unwrap();
        assert!(online.run.c.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(online.engine.elements, 0);
    }

    #[test]
    fn online_obs_records_spans_and_strip_histograms() {
        let a = matrix(128, 0.02, 11);
        let csc = a.to_csc();
        let b = random_dense(128, 16, 12);
        let obs = ObsContext::enabled();
        let online = bstat_tiled_dcsr_online_obs(&mut gpu(), &csc, &b, 16, 16, &obs).unwrap();
        assert!(online.run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
        // lane_slots flows through the merge, so occupancy is computable.
        assert!(online.engine.lane_slots > 0);
        assert!(online.engine.comparator_occupancy() > 0.0);

        let spans = obs.recorder.snapshot();
        let convert = spans
            .iter()
            .find(|s| s.name == "engine.convert")
            .expect("engine.convert span");
        let nstrips = 128usize.div_ceil(16);
        let strips: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "engine.convert.strip")
            .collect();
        assert_eq!(strips.len(), nstrips);
        assert!(strips.iter().all(|s| s.parent == Some(convert.id)));
        assert!(spans.iter().any(|s| s.name == "kernels.launch"));

        let snap = obs.metrics.snapshot();
        let h = &snap.histograms["kernels.bstat_online.strip_elements"];
        assert_eq!(h.count, nstrips as u64);
        assert_eq!(h.sum, a.nnz() as u64);
        let flops = &snap.histograms["kernels.bstat_online.strip_flops"];
        assert_eq!(flops.sum, 2 * 16 * a.nnz() as u64);
        // The enabled context priced the prefetch pipeline per strip.
        assert!(obs.metrics.counter("engine.pipeline.cycles") > 0);
        let rate = obs
            .metrics
            .gauge("engine.pipeline.prefetch_hit_rate")
            .unwrap();
        assert!((0.0..=1.0).contains(&rate));
        // ...and the conversion bridge published whole-matrix totals.
        assert_eq!(
            obs.metrics.counter("engine.convert.elements"),
            a.nnz() as u64
        );
    }

    #[test]
    fn online_obs_disabled_context_skips_spans_but_keeps_results() {
        let a = matrix(64, 0.05, 13);
        let csc = a.to_csc();
        let b = random_dense(64, 8, 14);
        let with_obs =
            bstat_tiled_dcsr_online_obs(&mut gpu(), &csc, &b, 16, 16, &ObsContext::disabled())
                .unwrap();
        let plain = bstat_tiled_dcsr_online(&mut gpu(), &csc, &b, 16, 16).unwrap();
        assert!(with_obs.run.c.approx_eq(&plain.run.c, 1e-6));
        assert_eq!(with_obs.engine.elements, plain.engine.elements);
        assert_eq!(with_obs.engine.lane_slots, plain.engine.lane_slots);
    }

    /// Review regression: the offline/traversal kernels' tile-directory
    /// read used to underflow on an all-empty matrix.
    #[test]
    fn offline_kernels_handle_empty_matrix() {
        let a = Csr::new(32, 32, vec![0; 33], vec![], vec![]).unwrap();
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(32, 8, 1);
        let run = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
        assert!(run.c.as_slice().iter().all(|&v| v == 0.0));
        let order = Traversal::ColumnMajor;
        let run = bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, order).unwrap();
        assert!(run.c.as_slice().iter().all(|&v| v == 0.0));
    }
}
