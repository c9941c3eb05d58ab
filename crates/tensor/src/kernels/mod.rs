//! The compute-kernel layer: blocked GEMM, explicit SIMD, im2col lowering
//! and scratch reuse.
//!
//! Everything expensive in this crate — dense layers, standard and depthwise
//! convolutions, their backward passes — bottoms out in the handful of
//! kernels defined here:
//!
//! * [`gemm_into`] / [`gemm_bias_cols`] — a cache-blocked, register-tiled
//!   matrix multiply (GotoBLAS-style `MC`/`KC`/`NC` macro-blocking with an
//!   `MR x NR` microkernel and packed operand panels), with a rayon
//!   row-parallel path for large problems that degrades to the serial kernel
//!   on one core.
//! * [`simd`] — the explicit-SIMD backend underneath: a portable `f32x8`
//!   abstraction with SSE2/AVX2 implementations, an AVX-512 widened
//!   microkernel, and cached runtime CPU-feature dispatch ([`active_isa`]
//!   reports the choice, [`force_isa`] / `APPEALNET_FORCE_SCALAR` pin it).
//! * [`elementwise`] — vectorized order-safe elementwise kernels (ReLU
//!   forward/backward, bias broadcast, axpy/scale, residual add) used by the
//!   hot layers and `Tensor` operations.
//! * [`im2col`](fn@im2col) / [`col2im`] — convolution-to-GEMM lowering whose
//!   column order matches the naive loop's `ic -> ky -> kx` tap order.
//! * [`KernelScratch`] / [`GrowBuf`] — high-water-mark scratch buffers so
//!   steady-state inference performs **zero** heap allocations for im2col
//!   matrices and GEMM packing panels (observable via [`scratch_stats`]).
//!   Arenas live per *thread* (see [`with_thread_scratch`]) plus a shared
//!   checkout pool for GEMM row bands, so the persistent rayon worker pool
//!   retains every high-water buffer across calls.
//!
//! # Determinism
//!
//! Every kernel follows the one numeric contract reported by
//! [`numeric_contract`],
//! [`BitIdenticalToSeed`](NumericContract::BitIdenticalToSeed) (the full
//! specification lives in `docs/DETERMINISM.md`): every optimized kernel
//! accumulates each output element's products in the same order as the seed
//! implementation it replaced (ascending inner dimension; convolution bias
//! seeded first), and multiplication and addition stay separate roundings.
//! Forward passes are therefore bit-identical to the original naive loops —
//! across blocking choices, problem sizes, thread counts and ISA backends —
//! which the equivalence suites in this module and `layers::conv` pin down
//! against the retained [`naive`] references. The one documented exception
//! is the convolution *input* gradient, where GEMM lowering sums over output
//! channels before scattering (the naive loop interleaved them); it is
//! numerically equivalent and covered by gradient checks rather than
//! bit-equality.

pub mod elementwise;
pub mod gemm;
pub mod im2col;
pub mod naive;
pub mod scratch;
pub mod simd;
pub mod tolerance;

pub(crate) use gemm::gemm_into_blocks;
pub use gemm::{gemm_bias_cols, gemm_into, transpose_into, GemmInit, KC, MC, MR, NC, NR};
pub use im2col::{col2im, im2col};
pub use scratch::{
    enter_worker_region, in_worker_region, stats as scratch_stats, with_thread_scratch, GrowBuf,
    KernelScratch, PackScratch, ScratchStats, WorkerRegionGuard,
};
pub use simd::{active_isa, force_isa, supported_isas, Isa};

/// The numeric guarantee of this kernel layer, specified in
/// `docs/DETERMINISM.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericContract {
    /// Every kernel result is bit-identical to the seed (naive reference)
    /// implementation on every ISA, thread count and blocking choice.
    BitIdenticalToSeed,
}

impl NumericContract {
    /// Short stable name, for reports and debug output
    /// (`"bit-identical-to-seed"`).
    pub fn name(self) -> &'static str {
        match self {
            NumericContract::BitIdenticalToSeed => "bit-identical-to-seed",
        }
    }
}

impl std::fmt::Display for NumericContract {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The numeric contract the kernels provide.
pub fn numeric_contract() -> NumericContract {
    NumericContract::BitIdenticalToSeed
}

#[cfg(test)]
mod tests {
    use super::tolerance::assert_bits_eq;
    use super::*;
    use crate::rng::SeededRng;

    fn random_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
    }

    /// Property suite: the blocked GEMM is bit-identical to the seed `i-k-j`
    /// loop across odd shapes, including ones that exercise every edge path
    /// (partial microkernel tiles, multiple KC slabs, the small-problem
    /// fallback).
    #[test]
    fn blocked_gemm_is_bit_identical_to_naive_across_shapes() {
        let dims = [1usize, 3, 17, 64];
        let mut rng = SeededRng::new(0x6E_44);
        let mut packs = PackScratch::new();
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    let a = random_vec(&mut rng, m * k);
                    let b = random_vec(&mut rng, k * n);
                    let expect = naive::matmul_naive(m, k, n, &a, &b);
                    let mut out = vec![f32::NAN; m * n];
                    gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
                    assert_bits_eq(&out, &expect, &format!("gemm {m}x{k}x{n}"));
                }
            }
        }
    }

    /// Shapes big enough to take the packed/blocked (and, with threads, the
    /// row-parallel) paths rather than the small-problem fallback. The
    /// 128x160x128 shape (2.6M MACs) is over `PAR_MIN_MACS`, so on a
    /// multicore host it splits into row bands.
    #[test]
    fn large_gemm_paths_match_naive_bitwise() {
        let mut rng = SeededRng::new(0x6E_45);
        let mut packs = PackScratch::new();
        for &(m, k, n) in &[
            (96usize, 160usize, 96usize),
            (130, 200, 70),
            (65, 300, 9),
            (128, 160, 128),
        ] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let expect = naive::matmul_naive(m, k, n, &a, &b);
            let mut out = vec![f32::NAN; m * n];
            gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
            assert_bits_eq(&out, &expect, &format!("large gemm {m}x{k}x{n}"));
        }
    }

    /// Regression for the removed `a == 0.0` sparsity branch: on data with
    /// exact zeros sprinkled in (as ReLU activations produce), accumulating
    /// the zero products is bit-identical to skipping them.
    #[test]
    fn zero_skip_removal_preserves_results_on_sparse_and_dense_data() {
        let mut rng = SeededRng::new(0x5A_22);
        let mut packs = PackScratch::new();
        for &(m, k, n) in &[(7usize, 33usize, 19usize), (64, 64, 64), (96, 96, 96)] {
            let mut a = random_vec(&mut rng, m * k);
            for v in a.iter_mut() {
                if rng.bernoulli(0.4) {
                    *v = 0.0;
                }
            }
            let b = random_vec(&mut rng, k * n);
            let expect = naive::matmul_naive(m, k, n, &a, &b);
            let mut out = vec![f32::NAN; m * n];
            gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
            assert_bits_eq(&out, &expect, &format!("sparse gemm {m}x{k}x{n}"));
        }
    }

    /// The SIMD microkernels are bit-identical to the naive loop on every
    /// dispatchable ISA (scalar, SSE2, AVX2, AVX-512 where supported) and on
    /// the dispatched default, over remainder-heavy shapes that exercise
    /// partial tiles on every edge.
    #[test]
    fn simd_gemm_bit_identical_across_isas_on_remainder_shapes() {
        let _lock = simd::isa_override_test_lock();
        let dims = [1usize, 5, 7, 9, 31, 33];
        let mut rng = SeededRng::new(0x51_4D);
        let mut packs = PackScratch::new();
        let mut isa_modes: Vec<Option<Isa>> = supported_isas().into_iter().map(Some).collect();
        isa_modes.push(None); // the dispatched default
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    let a = random_vec(&mut rng, m * k);
                    let b = random_vec(&mut rng, k * n);
                    let expect = naive::matmul_naive(m, k, n, &a, &b);
                    for &mode in &isa_modes {
                        let prev = force_isa(mode);
                        let mut out = vec![f32::NAN; m * n];
                        gemm_into(m, k, n, &a, &b, GemmInit::Zero, &mut out, &mut packs);
                        force_isa(prev);
                        let tag = format!("gemm {m}x{k}x{n} isa={mode:?}");
                        assert_bits_eq(&out, &expect, &tag);
                    }
                }
            }
        }
    }

    /// Shapes large enough for the blocked/packed path (multiple `KC` slabs,
    /// paired AVX-512 strips, ragged microkernel edges) stay bit-identical
    /// to the naive loop on every ISA, for every [`GemmInit`] mode.
    #[test]
    fn simd_blocked_paths_bit_identical_across_isas() {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0x51_4E);
        let mut packs = PackScratch::new();
        // The last three are the big net's late conv GEMMs (3x3 and 6x6
        // maps, one sample and a fold of five): column-partial tiles behind
        // a multi-slab K.
        for &(m, k, n) in &[
            (96usize, 160usize, 96usize),
            (130, 200, 70),
            (37, 300, 33),
            (40, 360, 9),
            (24, 216, 36),
            (40, 360, 45),
        ] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, m);
            let seed_out = random_vec(&mut rng, m * n);
            for isa in supported_isas() {
                let prev = force_isa(Some(isa));
                for mode in 0..3 {
                    let (init, mut out) = match mode {
                        0 => (GemmInit::Zero, vec![f32::NAN; m * n]),
                        1 => (GemmInit::Accumulate, seed_out.clone()),
                        _ => (GemmInit::RowBias(&bias), vec![f32::NAN; m * n]),
                    };
                    let mut expect = match mode {
                        0 => vec![0.0f32; m * n],
                        1 => seed_out.clone(),
                        _ => {
                            let mut e = vec![0.0f32; m * n];
                            for i in 0..m {
                                e[i * n..(i + 1) * n].fill(bias[i]);
                            }
                            e
                        }
                    };
                    for i in 0..m {
                        for p in 0..k {
                            let av = a[i * k + p];
                            for j in 0..n {
                                expect[i * n + j] += av * b[p * n + j];
                            }
                        }
                    }
                    gemm_into(m, k, n, &a, &b, init, &mut out, &mut packs);
                    let tag = format!("{m}x{k}x{n} mode={mode} {isa}");
                    assert_bits_eq(&out, &expect, &tag);
                }
                force_isa(prev);
            }
        }
    }

    /// A column-blocked product ([`gemm_into_blocks`]) stores the same bits
    /// as the plain one, block by block, on every ISA and for every
    /// [`GemmInit`] mode. Blocks narrower than `NR`, or not a multiple of it,
    /// make tiles straddle block boundaries; the 13x20x21 shape runs the
    /// small-problem path.
    #[test]
    fn column_blocked_store_matches_plain_gemm() {
        let _lock = simd::isa_override_test_lock();
        let mut rng = SeededRng::new(0xB1_0C);
        let mut packs = PackScratch::new();
        for &(m, k, seg, blocks) in &[
            (40usize, 360usize, 9usize, 5usize),
            (24, 216, 36, 4),
            (12, 108, 144, 2),
            (9, 150, 1, 40),
            (13, 20, 7, 3),
        ] {
            let n = seg * blocks;
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, m);
            let seed_plain = random_vec(&mut rng, m * n);
            // Element (i, j) of the plain matrix as stored column-blocked.
            let to_blocks = |plain: &[f32]| -> Vec<f32> {
                let mut out = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        out[(j / seg) * m * seg + i * seg + j % seg] = plain[i * n + j];
                    }
                }
                out
            };
            for isa in supported_isas() {
                let prev = force_isa(Some(isa));
                for mode in 0..3 {
                    let init = match mode {
                        0 => GemmInit::Zero,
                        1 => GemmInit::Accumulate,
                        _ => GemmInit::RowBias(&bias),
                    };
                    let mut plain = seed_plain.clone();
                    gemm_into(m, k, n, &a, &b, init, &mut plain, &mut packs);
                    let mut blocked = to_blocks(&seed_plain);
                    gemm_into_blocks(m, k, n, seg, &a, &b, init, &mut blocked, &mut packs);
                    let tag = format!("{m}x{k}x{n} seg={seg} mode={mode} {isa}");
                    assert_bits_eq(&blocked, &to_blocks(&plain), &tag);
                }
                force_isa(prev);
            }
        }
    }

    /// `Accumulate` keeps the existing output and adds products in `p` order
    /// — the weight-gradient convention.
    #[test]
    fn accumulate_mode_extends_existing_output() {
        let mut rng = SeededRng::new(0xAC_C0);
        let mut packs = PackScratch::new();
        for &(m, k, n) in &[(5usize, 9usize, 11usize), (70, 150, 40)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let seed_out = random_vec(&mut rng, m * n);
            // Reference: start from seed_out, accumulate naive i-k-j order.
            let mut expect = seed_out.clone();
            for i in 0..m {
                for p in 0..k {
                    let av = a[i * k + p];
                    for j in 0..n {
                        expect[i * n + j] += av * b[p * n + j];
                    }
                }
            }
            let mut out = seed_out.clone();
            gemm_into(m, k, n, &a, &b, GemmInit::Accumulate, &mut out, &mut packs);
            assert_bits_eq(&out, &expect, &format!("accumulate {m}x{k}x{n}"));
        }
    }

    /// `RowBias` seeds each row's accumulator before the products — the
    /// convolution-forward convention.
    #[test]
    fn row_bias_mode_seeds_accumulators_first() {
        let mut rng = SeededRng::new(0xB1_A5);
        let mut packs = PackScratch::new();
        for &(m, k, n) in &[(3usize, 17usize, 5usize), (80, 140, 33)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, m);
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    expect[i * n + j] = bias[i];
                }
                for p in 0..k {
                    let av = a[i * k + p];
                    for j in 0..n {
                        expect[i * n + j] += av * b[p * n + j];
                    }
                }
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_into(
                m,
                k,
                n,
                &a,
                &b,
                GemmInit::RowBias(&bias),
                &mut out,
                &mut packs,
            );
            assert_bits_eq(&out, &expect, &format!("row bias {m}x{k}x{n}"));
        }
    }

    /// The fused column-bias GEMM matches `matmul` followed by
    /// `add_row_broadcast` bit-for-bit.
    #[test]
    fn fused_col_bias_matches_unfused_pair() {
        let mut rng = SeededRng::new(0xF0_5E);
        let mut packs = PackScratch::new();
        for &(m, k, n) in &[(4usize, 6usize, 3usize), (33, 120, 65)] {
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, n);
            let mut expect = naive::matmul_naive(m, k, n, &a, &b);
            for row in expect.chunks_exact_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias.iter()) {
                    *o += bv;
                }
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_bias_cols(m, k, n, &a, &b, &bias, &mut out, &mut packs);
            assert_bits_eq(&out, &expect, &format!("fused bias {m}x{k}x{n}"));
        }
    }

    #[test]
    fn k_zero_applies_only_the_initialization() {
        let mut packs = PackScratch::new();
        let mut out = vec![3.0f32; 6];
        gemm_into(2, 0, 3, &[], &[], GemmInit::Zero, &mut out, &mut packs);
        assert_eq!(out, vec![0.0; 6]);
        let bias = [1.0f32, 2.0];
        gemm_into(
            2,
            0,
            3,
            &[],
            &[],
            GemmInit::RowBias(&bias),
            &mut out,
            &mut packs,
        );
        assert_eq!(out, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn numeric_contract_name_is_stable() {
        assert_eq!(numeric_contract().name(), "bit-identical-to-seed");
        assert_eq!(numeric_contract().to_string(), numeric_contract().name());
    }

    #[test]
    fn transpose_into_round_trips() {
        let mut rng = SeededRng::new(0x7A_01);
        let src = random_vec(&mut rng, 5 * 7);
        let mut t = vec![0.0f32; 35];
        transpose_into(&src, 5, 7, &mut t);
        let mut back = vec![0.0f32; 35];
        transpose_into(&t, 7, 5, &mut back);
        assert_eq!(src, back);
        assert_eq!(t[0], src[0]);
        assert_eq!(t[5], src[1]); // (0,1) -> (1,0)
    }
}
