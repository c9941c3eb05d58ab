//! The bit-equality assertion behind the kernel layer's numeric contract.
//!
//! Every equivalence suite compares a kernel's output against the retained
//! [`super::naive`] reference **bit for bit** (see
//! [`super::numeric_contract`]); a tolerance would let a reordered or
//! contracted accumulation slip through.

/// Asserts two `f32` slices are identical **bit for bit**, reporting the
/// first diverging element with `tag`. The single shared implementation of
/// the bit-equality check every equivalence and determinism suite uses.
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
