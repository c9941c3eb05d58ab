//! Cache-blocked, register-tiled GEMM.
//!
//! The kernel follows the classic GotoBLAS/BLIS decomposition: the output is
//! computed in `MC x NC` macro-tiles, the `K` dimension is consumed in `KC`
//! slabs whose operands are packed into contiguous panels (`MR`-row strips of
//! A, `NR`-column strips of B), and an `MR x NR` register-tiled microkernel
//! performs the innermost multiply-accumulate with all `MR * NR` partial sums
//! held in registers.
//!
//! The microkernel dispatches onto the explicit-SIMD backend in
//! [`super::simd`]: SSE2 and AVX2 instantiations of the `MR x NR` tile, and
//! on AVX-512 hosts a widened `2*MR x NR` paired-strip kernel (eight 16-lane
//! accumulator chains, enough independent adds to saturate both 512-bit
//! vector ports). [`super::simd::active_isa`] picks the backend at runtime;
//! the scalar microkernel remains the `Isa::Scalar` fallback and the
//! reference all backends must match bit-for-bit.
//!
//! Every tile runs on that microkernel, partial ones included (BLIS-style,
//! Van Zee & van de Geijn, TOMS 2015): the packed panels are zero past `m`
//! and `n`, so a tile at the bottom or right edge computes a full
//! `MR x NR` block in a stack staging tile, of which only the valid rows
//! and columns are seeded from and stored back to the output. This matters
//! for the convolutions of small feature maps, whose `N` (3x3 or 6x6 maps,
//! `N = 9` or `36`) is not a multiple of `NR`.
//!
//! `gemm_into_blocks` stores the product column-blocked, so a convolution
//! that folds several samples into one GEMM (`weight x [ckk, g*s]`) writes
//! its result straight into NCHW.
//!
//! # Determinism contract
//!
//! Every path in this module accumulates each output element's products in
//! strictly increasing `p` (inner-dimension) order, starting from the
//! element's initial value ([`GemmInit`]): the `KC` slabs are processed in
//! ascending order and the microkernel reloads/stores the output tile at slab
//! boundaries rather than reassociating partial sums. Since Rust never
//! contracts `a * b + c` into a fused multiply-add on its own, the blocked
//! kernel, the small-problem fallback and the rayon row-parallel path are all
//! **bit-identical** to the naive `i-k-j` triple loop (see
//! [`super::naive::matmul_naive`]), which is what keeps serving results
//! byte-stable across kernel choices and thread counts.

use super::scratch::PackScratch;
use super::simd::{self, Isa};

/// Rows of the register microkernel tile. With [`NR`]` = 16` the `MR x NR`
/// accumulator block is 8 `ymm` registers (16 on the paired AVX-512 path's
/// `2*MR x NR` tile, one `zmm` per row) — small enough to leave registers
/// for the A broadcasts and B loads on every backend down to SSE2.
pub const MR: usize = 4;
/// Columns of the register microkernel tile: two 8-lane vectors per row
/// (one 16-lane vector on AVX-512), matching the widest `f32x8`/`f32x16`
/// strips the SIMD backends load per step.
pub const NR: usize = 16;
/// Rows of A packed per macro-block (multiple of [`MR`]). An
/// `MC x KC` A panel is 32 KiB — half a typical L1d — so the strip the
/// microkernel streams stays L1-resident against the L2-resident B panel.
pub const MC: usize = 64;
/// Depth consumed per packed slab (the `p`-extent of both panels). Chosen
/// so panel height amortizes the pack cost while `KC * NR` B strips
/// (8 KiB) stay comfortably cached; slabs also bound how long the
/// microkernel holds a tile before the determinism contract's
/// reload/store at slab boundaries.
pub const KC: usize = 128;
/// Columns of B packed per macro-block (multiple of [`NR`]). A `KC x NC`
/// B panel is 128 KiB — sized for L2 so every A strip of the macro-block
/// reuses it without refetching from L3/memory.
pub const NC: usize = 256;

/// Problems with fewer multiply-accumulates than this skip packing entirely
/// and run the plain `i-k-j` loop (bit-identical, lower overhead).
const SMALL_PROBLEM_MACS: usize = 32 * 1024;

/// Minimum multiply-accumulates before the row-parallel path is worthwhile.
const PAR_MIN_MACS: usize = 1 << 21;

/// How an output element starts before the `A x B` products are accumulated.
#[derive(Clone, Copy)]
pub enum GemmInit<'a> {
    /// `out = A x B`: elements start at `0.0`.
    Zero,
    /// `out += A x B`: elements keep their current value (gradient
    /// accumulation).
    Accumulate,
    /// `out[i][j]` starts at `bias[i]` — the convolution-forward convention,
    /// where the naive kernel seeds its accumulator with the output-channel
    /// bias *before* the taps.
    RowBias(&'a [f32]),
}

/// `out[m x n] <- init ⊕ a[m x k] x b[k x n]`, all row-major slices.
///
/// Dispatches between the small-problem `i-k-j` loop, the serial blocked
/// kernel and the rayon row-parallel blocked kernel; all three produce
/// bit-identical results (see the module docs). `packs` supplies the packing
/// panels for the serial blocked path; the parallel path packs into
/// per-worker buffers instead (worker threads are transient).
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
    packs: &mut PackScratch,
) {
    gemm_into_blocks(m, k, n, n, a, b, init, out, packs);
}

/// [`gemm_into`] with the result stored column-blocked: the `n` columns
/// split into `n / seg` blocks of `seg`, and block `t` is an `m x seg`
/// row-major matrix at `out[t * m * seg..]`. `seg == n` is the plain
/// row-major [`gemm_into`]. A convolution over `g` samples passes its
/// `[ckk, g * s]` im2col panel as `b` and `seg = s`, so the output lands in
/// NCHW (`[g, m, s]`) with no transpose.
///
/// Element `(i, j)` is computed exactly as by [`gemm_into`]; only its
/// address differs. A column-blocked product (`seg < n`) always runs
/// serially: its row bands are not contiguous in `out`.
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` dimensions, or
/// if `seg` does not divide `n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_into_blocks(
    m: usize,
    k: usize,
    n: usize,
    seg: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
    packs: &mut PackScratch,
) {
    assert_eq!(a.len(), m * k, "gemm: A must be m*k");
    assert_eq!(b.len(), k * n, "gemm: B must be k*n");
    assert_eq!(out.len(), m * n, "gemm: out must be m*n");
    assert!(
        n == 0 || (seg > 0 && n.is_multiple_of(seg)),
        "gemm: column blocks must divide n"
    );
    if let GemmInit::RowBias(bias) = init {
        assert_eq!(bias.len(), m, "gemm: row bias must have m entries");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        init_only(m, seg, init, out);
        return;
    }
    let macs = m * k * n;
    if macs <= SMALL_PROBLEM_MACS {
        gemm_ikj(m, k, n, seg, a, b, init, out);
        return;
    }
    // Resolve the SIMD backend once per call, so every tile of this GEMM —
    // across all row bands of the parallel path — uses the same kernel even
    // if an override flips mid-call.
    let isa = simd::active_isa();
    let threads = rayon::current_num_threads();
    // Stay serial inside an outer parallel region (sharded batch workers):
    // the batch is already parallel at that level, so splitting each
    // per-sample GEMM again would only add queueing overhead on the shared
    // worker pool.
    if seg == n
        && threads > 1
        && macs >= PAR_MIN_MACS
        && m >= 2 * MR
        && !super::scratch::in_worker_region()
    {
        gemm_parallel(isa, m, k, n, a, b, init, out, threads, packs);
    } else {
        gemm_blocked(isa, m, k, n, seg, a, b, init, out, packs);
    }
}

/// Degenerate `k == 0` case: the "product" contributes nothing, only the
/// initialization is applied.
fn init_only(m: usize, seg: usize, init: GemmInit<'_>, out: &mut [f32]) {
    match init {
        GemmInit::Zero => out.fill(0.0),
        GemmInit::Accumulate => {}
        GemmInit::RowBias(bias) => {
            for block in out.chunks_exact_mut(m * seg) {
                for (row, &bv) in block.chunks_exact_mut(seg).zip(bias.iter()) {
                    row.fill(bv);
                }
            }
        }
    }
}

/// Plain `i-k-j` loop: walks B rows and the output row contiguously, one
/// column block at a time. This is the seed kernel minus its `a == 0.0`
/// sparsity branch (which pessimized dense data and is bit-equivalent to just
/// accumulating for finite inputs).
#[allow(clippy::too_many_arguments)]
fn gemm_ikj(
    m: usize,
    k: usize,
    n: usize,
    seg: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
) {
    for (t, block) in out.chunks_exact_mut(m * seg).enumerate() {
        for (i, out_row) in block.chunks_exact_mut(seg).enumerate() {
            match init {
                GemmInit::Zero => out_row.fill(0.0),
                GemmInit::Accumulate => {}
                GemmInit::RowBias(bias) => out_row.fill(bias[i]),
            }
            for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                let b_row = &b[p * n + t * seg..p * n + (t + 1) * seg];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Splits the rows of the output across worker threads; each worker runs the
/// serial blocked kernel on its contiguous row band. Bands never overlap, so
/// no synchronization is needed and each element's accumulation order is
/// unchanged.
///
/// The first band runs on the calling thread with the caller's (reused)
/// packing scratch; each spawned band checks the [`PackScratch`] slot keyed
/// by its band index out of the shared band pool
/// ([`super::scratch::with_band_packs`]) and returns it afterwards. Band
/// `b` always reuses arena `b`, so a steady state of multi-band GEMMs
/// performs **zero** packing allocations — deterministically, regardless of
/// which persistent pool worker picks up which band (pinned by
/// `tests/hot_path_allocations.rs`).
#[allow(clippy::too_many_arguments)]
fn gemm_parallel(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
    threads: usize,
    packs: &mut PackScratch,
) {
    // Band size: a multiple of MR so microkernel tiling stays aligned.
    let bands = threads.min(m.div_ceil(MR));
    let rows_per = m.div_ceil(bands).next_multiple_of(MR);
    let mut row0 = 0usize;
    let mut jobs: Vec<(usize, usize, &mut [f32])> = Vec::with_capacity(bands);
    let mut rest = out;
    while row0 < m {
        let rows = rows_per.min(m - row0);
        let (band, tail) = rest.split_at_mut(rows * n);
        jobs.push((row0, rows, band));
        rest = tail;
        row0 += rows;
    }
    let band_slice = |band_row0: usize, rows: usize| {
        let band_a = &a[band_row0 * k..(band_row0 + rows) * k];
        let band_init = match init {
            GemmInit::RowBias(bias) => GemmInit::RowBias(&bias[band_row0..band_row0 + rows]),
            other => other,
        };
        (band_a, band_init)
    };
    let mut jobs = jobs.into_iter();
    let first = jobs.next();
    rayon::scope(|s| {
        for (band, (band_row0, rows, band_out)) in jobs.enumerate() {
            s.spawn(move |_| {
                let (band_a, band_init) = band_slice(band_row0, rows);
                super::scratch::with_band_packs(band, |packs| {
                    gemm_blocked(isa, rows, k, n, n, band_a, b, band_init, band_out, packs);
                });
            });
        }
        // The scope body runs on the calling thread: do the first band here
        // with the caller's scratch while the spawned bands proceed.
        if let Some((band_row0, rows, band_out)) = first {
            let (band_a, band_init) = band_slice(band_row0, rows);
            gemm_blocked(isa, rows, k, n, n, band_a, b, band_init, band_out, packs);
        }
    });
}

/// Serial blocked kernel: `NC`-column macro-blocks, `KC`-deep packed slabs,
/// `MC`-row packed A panels, `MR x NR` register microkernel. The output is
/// column-blocked by `seg` (see [`gemm_into_blocks`]).
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    seg: usize,
    a: &[f32],
    b: &[f32],
    init: GemmInit<'_>,
    out: &mut [f32],
    packs: &mut PackScratch,
) {
    // The backend comes resolved from `gemm_into_blocks`; the microkernel
    // dispatches branch-predictably per tile.
    let pair = simd::has_paired_microkernel(isa);
    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        let j_tiles = ncb.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            let first_slab = pc == 0;
            // Each panel is taken at the size packed, not at the `KC x NC`
            // maximum: a small GEMM keeps its scratch small.
            let b_pack = packs.b.take(j_tiles * kcb * NR);
            pack_b(b, n, pc, kcb, jc, ncb, b_pack);
            let mut ic = 0;
            while ic < m {
                let mcb = MC.min(m - ic);
                let i_tiles = mcb.div_ceil(MR);
                let a_pack = packs.a.take(i_tiles * kcb * MR);
                pack_a(a, k, ic, mcb, pc, kcb, a_pack);
                for jt in 0..j_tiles {
                    let j0 = jc + jt * NR;
                    let tile = Tile::new(j0, NR.min(n - j0), m, seg, init, first_slab);
                    let b_tile = &b_pack[jt * kcb * NR..(jt + 1) * kcb * NR];
                    let mut it = 0;
                    while it < i_tiles {
                        let i0 = ic + it * MR;
                        let a_tile = &a_pack[it * kcb * MR..(it + 1) * kcb * MR];
                        if pair && it + 1 < i_tiles && m - i0 >= 2 * MR {
                            // Two vertically adjacent full-height strips: the
                            // widened 2*MR x NR AVX-512 kernel.
                            let a_hi = &a_pack[(it + 1) * kcb * MR..(it + 2) * kcb * MR];
                            let mut acc = [[0.0f32; NR]; 2 * MR];
                            tile.seed(&mut acc, i0, out);
                            simd::microkernel_8x16(kcb, a_tile, a_hi, b_tile, &mut acc);
                            tile.store(&acc, i0, out);
                            it += 2;
                        } else {
                            // One strip, possibly partial: rows past `m` are
                            // zero in the packed panel and are neither seeded
                            // nor stored.
                            let rows = MR.min(m - i0);
                            let mut acc = [[0.0f32; NR]; MR];
                            tile.seed(&mut acc[..rows], i0, out);
                            simd::microkernel_4x16(isa, kcb, a_tile, b_tile, &mut acc);
                            tile.store(&acc[..rows], i0, out);
                            it += 1;
                        }
                    }
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// One column of output tiles (`NR` columns from `j0`) for one `KC` slab:
/// how its accumulators are seeded, and where its columns live in `out`.
///
/// The columns are kept as runs contiguous in memory: run `(c, at, len)`
/// holds tile columns `c..c + len`, which output row `i` stores at
/// `out[at + i * ldc..][..len]`. A tile has one run unless it straddles a
/// column-block boundary; columns past `n` (zero in the packed B panel)
/// belong to no run. Seeding and storing go through the same runs for the
/// single-strip and paired kernels, so the two cannot diverge.
struct Tile<'a> {
    init: GemmInit<'a>,
    first_slab: bool,
    ldc: usize,
    runs: [(usize, usize, usize); NR],
    count: usize,
}

impl<'a> Tile<'a> {
    /// The tile of `cols` valid columns at `j0` in an `m`-row output
    /// column-blocked by `seg`.
    fn new(
        j0: usize,
        cols: usize,
        m: usize,
        seg: usize,
        init: GemmInit<'a>,
        first_slab: bool,
    ) -> Self {
        let mut runs = [(0, 0, 0); NR];
        let (mut block, mut offset) = (j0 / seg, j0 % seg);
        let (mut c, mut count) = (0, 0);
        while c < cols {
            let len = (seg - offset).min(cols - c);
            runs[count] = (c, block * m * seg + offset, len);
            c += len;
            count += 1;
            block += 1;
            offset = 0;
        }
        Self {
            init,
            first_slab,
            ldc: seg,
            runs,
            count,
        }
    }

    /// Seeds the accumulator rows starting at output row `i0`: the
    /// [`GemmInit`] seed on the first `KC` slab, the current output values
    /// afterwards (or for `Accumulate`). Only valid columns are written; the
    /// rest stay zero, computed and discarded like the padded rows.
    #[inline(always)]
    fn seed(&self, acc: &mut [[f32; NR]], i0: usize, out: &[f32]) {
        match (self.first_slab, self.init) {
            (true, GemmInit::Zero) => {}
            (true, GemmInit::RowBias(bias)) => {
                for (acc_row, &bv) in acc.iter_mut().zip(&bias[i0..]) {
                    *acc_row = [bv; NR];
                }
            }
            _ => self.copy(acc.len(), i0, |r, c, at, len| {
                copy_run(&mut acc[r][c..], &out[at..], len);
            }),
        }
    }

    /// Stores the valid rows and columns of the accumulator rows back to
    /// the output, starting at output row `i0`.
    #[inline(always)]
    fn store(&self, acc: &[[f32; NR]], i0: usize, out: &mut [f32]) {
        self.copy(acc.len(), i0, |r, c, at, len| {
            copy_run(&mut out[at..], &acc[r][c..], len);
        });
    }

    /// Calls `f(r, c, at, len)` for every run of every row `r < rows`, with
    /// `at` the run's offset in `out` for output row `i0 + r`.
    #[inline(always)]
    fn copy(&self, rows: usize, i0: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
        match &self.runs[..self.count] {
            // The common full-width tile: one constant-length run per row.
            &[(0, at, NR)] => {
                for r in 0..rows {
                    f(r, 0, at + (i0 + r) * self.ldc, NR);
                }
            }
            runs => {
                for r in 0..rows {
                    let row = (i0 + r) * self.ldc;
                    for &(c, at, len) in runs {
                        f(r, c, row + at, len);
                    }
                }
            }
        }
    }
}

/// `dst[..len] = src[..len]`, with the full-width run as a constant-length
/// copy so the common full tile moves whole vectors.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32], len: usize) {
    if len == NR {
        dst[..NR].copy_from_slice(&src[..NR]);
    } else {
        dst[..len].copy_from_slice(&src[..len]);
    }
}

/// Packs `a[ic..ic+mcb, pc..pc+kcb]` into `MR`-row strips: strip `it` holds
/// `kcb` groups of `MR` consecutive-row values (rows past `m` are zero).
fn pack_a(a: &[f32], lda: usize, ic: usize, mcb: usize, pc: usize, kcb: usize, pack: &mut [f32]) {
    let i_tiles = mcb.div_ceil(MR);
    for it in 0..i_tiles {
        let strip = &mut pack[it * kcb * MR..(it + 1) * kcb * MR];
        let rows = MR.min(mcb - it * MR);
        if rows < MR {
            strip.fill(0.0);
        }
        // Read each source row contiguously, scatter into the (L1-resident)
        // strip with stride MR.
        for r in 0..rows {
            let src_row = (ic + it * MR + r) * lda + pc;
            let src = &a[src_row..src_row + kcb];
            for (p, &v) in src.iter().enumerate() {
                strip[p * MR + r] = v;
            }
        }
    }
}

/// Packs `b[pc..pc+kcb, jc..jc+ncb]` into `NR`-column strips: strip `jt`
/// holds `kcb` groups of `NR` consecutive-column values (columns past `n` are
/// zero).
fn pack_b(b: &[f32], ldb: usize, pc: usize, kcb: usize, jc: usize, ncb: usize, pack: &mut [f32]) {
    let j_tiles = ncb.div_ceil(NR);
    for jt in 0..j_tiles {
        let strip = &mut pack[jt * kcb * NR..(jt + 1) * kcb * NR];
        let cols = NR.min(ncb - jt * NR);
        for p in 0..kcb {
            let src_row = (pc + p) * ldb + jc + jt * NR;
            let dst = &mut strip[p * NR..(p + 1) * NR];
            if cols == NR {
                dst.copy_from_slice(&b[src_row..src_row + NR]);
            } else {
                dst[..cols].copy_from_slice(&b[src_row..src_row + cols]);
                dst[cols..].fill(0.0);
            }
        }
    }
}

/// `out = A x B` followed by an in-place per-column bias pass —
/// bit-identical to `matmul` + `add_row_broadcast` (the bias joins *after*
/// each element's full `K` accumulation, exactly like the two-call pair)
/// while allocating no intermediate tensor.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_cols(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
    packs: &mut PackScratch,
) {
    assert_eq!(bias.len(), n, "gemm_bias_cols: bias must have n entries");
    gemm_into(m, k, n, a, b, GemmInit::Zero, out, packs);
    super::elementwise::bias_add_rows(out, bias);
}

/// Transposes the row-major `rows x cols` matrix `src` into `dst`
/// (`cols x rows`).
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose: src must be rows*cols");
    assert_eq!(dst.len(), rows * cols, "transpose: dst must be rows*cols");
    for r in 0..rows {
        let src_row = &src[r * cols..(r + 1) * cols];
        for (c, &v) in src_row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}
