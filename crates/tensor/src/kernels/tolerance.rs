//! The tolerance harness behind the `fast-kernels` numeric contract.
//!
//! The default build's equivalence suites assert **bit** equality against
//! the retained [`super::naive`] references. A `fast-kernels` build fuses
//! `a * b + c` into one rounding per accumulation step, so its results are
//! only *close* to the seed — and "close" needs a principled definition or
//! the suites degenerate into rubber stamps. This module provides it:
//!
//! * [`ulp_distance`] — order-exact distance between two floats in units in
//!   the last place, for asserting that two paths differ (or not) at the
//!   resolution where FMA contraction shows up.
//! * [`accumulation_bound`] — the worst-case absolute divergence between
//!   any two rounding schedules of the same `steps`-step `f32` dot-product
//!   accumulation, derived from the standard `γ_k = k·ε/(1 − k·ε)` forward
//!   error model: both the fused and the unfused kernel err at most
//!   `γ_k · Σ|aₚ·bₚ|` from the exact value, so they sit within twice that
//!   of each other. The bound scales with the data (`Σ|aₚ·bₚ|`, computed in
//!   `f64`), not with a hand-tuned epsilon.
//! * [`gemm_abs_scales`] — the per-output-element `Σ|aₚ·bₚ| (+ |seed|)`
//!   magnitudes for a GEMM, feeding the bound above.
//! * [`check_within`] / [`check_accumulation`] — non-panicking checkers
//!   (tests of the harness itself assert `Err` without `catch_unwind`).
//! * [`assert_matches_reference`] — the suite-facing assertion: **bit**
//!   equality on default builds, the accumulation bound under
//!   `fast-kernels`. Equivalence suites call this one helper so the
//!   guarantee they pin automatically follows the build's contract.
//!
//! The harness's own tests pin its *tightness*: seeded single-step cases
//! where FMA and mul-then-add provably differ in the last ulp must be
//! detected by [`ulp_distance`], sit within the one-step bound, and fail a
//! zero bound — a harness that silently passes everything cannot survive
//! them.

/// Asserts two `f32` slices are identical **bit for bit**, reporting the
/// first diverging element with `tag`. The single shared implementation of
/// the bit-equality check every equivalence and determinism suite uses
/// (and the default-build branch of [`assert_matches_reference`]).
///
/// # Panics
///
/// Panics with `tag` on a length mismatch or any bit-level difference.
pub fn assert_bits_eq(a: &[f32], b: &[f32], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{tag}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

/// Maps a finite `f32` onto a signed integer line where consecutive
/// representable values differ by exactly 1 (two's-complement trick; both
/// zeros map to 0).
fn ordered_key(x: f32) -> i64 {
    let bits = x.to_bits();
    if bits & 0x8000_0000 != 0 {
        -((bits & 0x7FFF_FFFF) as i64)
    } else {
        bits as i64
    }
}

/// Distance between two floats in units in the last place, counted across
/// the representable values between them (0 when bit-identical or `±0.0`
/// vs `∓0.0`; 1 for adjacent representables, crossing zero included).
///
/// Returns `u64::MAX` if either input is NaN — NaNs have no meaningful
/// neighborhood, and saturating keeps a corrupted kernel from slipping
/// through a finite bound.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    ordered_key(a).abs_diff(ordered_key(b))
}

/// Worst-case absolute divergence between any two rounding schedules (e.g.
/// fused vs mul-then-add) of one `steps`-step `f32` accumulation whose
/// per-step product magnitudes sum to `scale` (= `Σ|aₚ·bₚ| + |seed|`,
/// computed in `f64`).
///
/// Standard forward error analysis bounds each schedule within
/// `γ_k · scale` of the exact sum, `γ_k = k·ε/(1 − k·ε)`, so two schedules
/// sit within `2·γ_k · scale` of each other. One `f32::MIN_POSITIVE` of
/// absolute slack absorbs subnormal rounding at scales near zero.
pub fn accumulation_bound(steps: usize, scale: f64) -> f64 {
    let k = steps as f64;
    let eps = f64::from(f32::EPSILON);
    let gamma = (k * eps) / (1.0 - k * eps);
    2.0 * gamma * scale + f64::from(f32::MIN_POSITIVE)
}

/// Per-output-element accumulation magnitudes `Σₚ |a[i,p] · b[p,j]|`
/// (plus `|seed[i,j]|` when given) of the row-major `m·k × k·n` GEMM, in
/// `f64` — the `scale` inputs for [`accumulation_bound`].
///
/// # Panics
///
/// Panics if a slice length does not match its dimensions.
pub fn gemm_abs_scales(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    seed: Option<&[f32]>,
) -> Vec<f64> {
    assert_eq!(a.len(), m * k, "abs scales: A must be m*k");
    assert_eq!(b.len(), k * n, "abs scales: B must be k*n");
    if let Some(s) = seed {
        assert_eq!(s.len(), m * n, "abs scales: seed must be m*n");
    }
    let mut scales = match seed {
        Some(s) => s.iter().map(|&v| f64::from(v).abs()).collect(),
        None => vec![0.0f64; m * n],
    };
    for i in 0..m {
        for p in 0..k {
            let av = f64::from(a[i * k + p]).abs();
            let b_row = &b[p * n..(p + 1) * n];
            let out_row = &mut scales[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * f64::from(bv).abs();
            }
        }
    }
    scales
}

/// Checks `|got[i] − want[i]| ≤ bounds[i]` elementwise, reporting the first
/// violation (index, values, bound) instead of panicking. NaN or infinite
/// `got` values fail unless `want` is bit-identical.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn check_within(got: &[f32], want: &[f32], bounds: &[f64]) -> Result<(), String> {
    assert_eq!(got.len(), want.len(), "tolerance check: length mismatch");
    assert_eq!(got.len(), bounds.len(), "tolerance check: bounds mismatch");
    for (i, ((&g, &w), &bound)) in got.iter().zip(want.iter()).zip(bounds.iter()).enumerate() {
        if g.to_bits() == w.to_bits() {
            continue;
        }
        let diff = (f64::from(g) - f64::from(w)).abs();
        if !diff.is_finite() || diff > bound {
            return Err(format!(
                "element {i}: got {g} vs reference {w} \
                 (|diff| = {diff:.3e} > bound {bound:.3e}, ulp distance {})",
                ulp_distance(g, w)
            ));
        }
    }
    Ok(())
}

/// [`check_within`] with per-element bounds built from
/// [`accumulation_bound`]`(steps, scales[i])`.
pub fn check_accumulation(
    got: &[f32],
    want: &[f32],
    scales: &[f64],
    steps: usize,
) -> Result<(), String> {
    let bounds: Vec<f64> = scales
        .iter()
        .map(|&s| accumulation_bound(steps, s))
        .collect();
    check_within(got, want, &bounds)
}

/// The assertion the kernel equivalence suites use against the naive
/// references: on the default build this is **bit** equality (the
/// [`BitIdenticalToSeed`](super::NumericContract::BitIdenticalToSeed)
/// contract); under `fast-kernels` it is the `steps`-step accumulation
/// bound over the scales (the
/// [`DeterministicPerBuild`](super::NumericContract::DeterministicPerBuild)
/// contract). `scales`/`steps` describe the reduction that produced each
/// element — for a GEMM, [`gemm_abs_scales`] and `k` (+1 when a bias seeds
/// the accumulator). `scales` is a closure because computing `Σ|terms|`
/// typically re-runs a reference kernel on |absolute| inputs — work the
/// default build's bit-equality branch would throw away; it is only
/// invoked under `fast-kernels`.
///
/// # Panics
///
/// Panics with `tag` and the offending element when the build's contract is
/// violated, or if the slice lengths differ.
pub fn assert_matches_reference(
    got: &[f32],
    want: &[f32],
    scales: impl FnOnce() -> Vec<f64>,
    steps: usize,
    tag: &str,
) {
    assert_eq!(got.len(), want.len(), "{tag}: length mismatch");
    if cfg!(feature = "fast-kernels") {
        if let Err(e) = check_accumulation(got, want, &scales(), steps) {
            panic!("{tag}: fast-kernels contract violated: {e}");
        }
    } else {
        assert_bits_eq(got, want, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn ulp_distance_counts_representable_steps() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        // Crossing zero counts the representables in between.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(tiny, -tiny), 2);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
    }

    /// The harness must *detect* last-ulp FMA divergence: seeded single-step
    /// cases where `fma(a, b, c)` and `a*b + c` provably differ must report
    /// a nonzero ulp distance, sit inside the one-step accumulation bound,
    /// and **fail** a zero bound. A harness that silently passes everything
    /// dies here.
    #[test]
    fn single_step_fma_divergence_is_detected_and_tightly_bounded() {
        let mut rng = SeededRng::new(0xFA_57);
        let mut diverging = 0usize;
        for _ in 0..4000 {
            let a = rng.uniform(-2.0, 2.0);
            let b = rng.uniform(-2.0, 2.0);
            let c = rng.uniform(-2.0, 2.0);
            let fused = a.mul_add(b, c);
            let unfused = a * b + c;
            let scale = f64::from(a).abs() * f64::from(b).abs() + f64::from(c).abs();
            // Both schedules always sit within the one-step bound...
            check_within(&[fused], &[unfused], &[accumulation_bound(1, scale)])
                .expect("one fused step must stay within the 1-step bound");
            if fused.to_bits() != unfused.to_bits() {
                diverging += 1;
                // ...and genuinely differing cases are seen by the harness:
                // nonzero ulp distance, and a zero bound rejects them.
                assert!(ulp_distance(fused, unfused) >= 1);
                assert!(
                    check_within(&[fused], &[unfused], &[0.0]).is_err(),
                    "a zero bound must fail on {a} * {b} + {c}"
                );
                // Away from cancellation the divergence is at most a couple
                // of ulps — the bound is doing real work, not hiding slack.
                if f64::from(fused).abs() > 0.25 * scale {
                    assert!(
                        ulp_distance(fused, unfused) <= 4,
                        "non-cancelling fma divergence should be last-ulp: \
                         {a} * {b} + {c} -> {fused} vs {unfused}"
                    );
                }
            }
        }
        assert!(
            diverging > 100,
            "seeded sweep must hit many genuinely diverging cases, got {diverging}"
        );
    }

    #[test]
    fn check_accumulation_rejects_beyond_bound_values() {
        // A perturbation far beyond k*eps*scale must fail; one inside the
        // bound must pass. Guards against a harness whose bound is so loose
        // it never fires.
        let want = [1.0f32, -0.5, 2.0];
        let scales = [1.0f64, 0.5, 2.0];
        let mut got = want;
        got[1] += 1e-3;
        assert!(check_accumulation(&got, &want, &scales, 8).is_err());
        let mut close = want;
        close[1] = f32::from_bits(close[1].to_bits() + 1);
        assert!(check_accumulation(&close, &want, &scales, 8).is_ok());
        // NaN never passes a finite bound.
        let bad = [1.0f32, f32::NAN, 2.0];
        assert!(check_accumulation(&bad, &want, &scales, 8).is_err());
    }

    #[test]
    fn gemm_abs_scales_match_hand_computation() {
        // 2x2x2 hand case with a seed.
        let a = [1.0f32, -2.0, 3.0, 4.0];
        let b = [5.0f32, -6.0, 7.0, 8.0];
        let seed = [0.5f32, -0.25, 0.0, 1.0];
        let scales = gemm_abs_scales(2, 2, 2, &a, &b, Some(&seed));
        // scale[0,0] = |1*5| + |-2*7| + |0.5| = 19.5
        assert_eq!(scales[0], 19.5);
        // scale[0,1] = |1*-6| + |-2*8| + |-0.25| = 22.25
        assert_eq!(scales[1], 22.25);
        // scale[1,0] = |3*5| + |4*7| + 0 = 43
        assert_eq!(scales[2], 43.0);
        // scale[1,1] = |3*-6| + |4*8| + 1 = 51
        assert_eq!(scales[3], 51.0);
    }

    #[test]
    fn assert_matches_reference_accepts_identical_slices_under_any_contract() {
        let xs = [0.0f32, -1.5, 3.25];
        assert_matches_reference(&xs, &xs, || vec![1.0f64; 3], 4, "identity");
    }

    /// The default build's bit-equality branch must never pay for (or
    /// depend on) the scale computation.
    #[test]
    fn scales_closure_is_lazy_outside_the_fast_tier() {
        let xs = [1.0f32, 2.0];
        let mut called = false;
        assert_matches_reference(
            &xs,
            &xs,
            || {
                called = true;
                vec![1.0f64; 2]
            },
            1,
            "lazy",
        );
        assert_eq!(
            called,
            cfg!(feature = "fast-kernels"),
            "scales must be computed exactly when the tolerance branch runs"
        );
    }
}
