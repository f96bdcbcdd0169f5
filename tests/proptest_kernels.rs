//! Property tests for the GEMM microkernels: the dispatched SIMD path must
//! be **bit-identical** to the forced-scalar fallback for all three variants
//! (`matmul`, `matmul_at_b`, `matmul_a_bt`) and the fused `matmul_bias`,
//! across random shapes — including 1×N, N×1 and non-multiple-of-lane-width
//! dimensions — values (with occasional exact zeros and non-finite
//! operands), and thread counts.
//!
//! Identity is checked on the raw `f32` bit patterns, not `==`, so signed
//! zeros count too. A NaN must meet a NaN, but of any payload and sign: the
//! kernels' contract (`kernels.rs`) leaves those unspecified, as Rust does.

use proptest::prelude::*;

use pythia::nn::kernels::{set_simd_override, SimdOverride};
use pythia::nn::pool::set_thread_override;
use pythia::nn::Tensor;

/// Restores the dispatch ladder and pool width even when a `prop_assert!`
/// failure unwinds mid-test.
struct RestoreDispatch;
impl Drop for RestoreDispatch {
    fn drop(&mut self) {
        set_simd_override(SimdOverride::Env);
        set_thread_override(0);
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    let mut v = Vec::with_capacity(t.rows() * t.cols());
    for r in 0..t.rows() {
        let canonical = |x: &f32| if x.is_nan() { f32::NAN } else { *x }.to_bits();
        v.extend(t.row(r).iter().map(canonical));
    }
    v
}

/// A value pool that exercises the interesting kernel cases: exact zeros
/// (the old skip bug), denormal-ish magnitudes, and non-finite operands.
fn value(cell: u32) -> f32 {
    match cell % 19 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NAN,
        _ => (cell % 2001) as f32 / 500.0 - 2.0,
    }
}

fn tensor_from(rows: usize, cols: usize, seed: u32) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        value(
            seed.wrapping_mul(2654435761)
                .wrapping_add((r * cols + c) as u32)
                .wrapping_mul(2246822519),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dispatched == forced-scalar, bit for bit, for every GEMM variant.
    #[test]
    fn dispatched_is_bit_identical_to_scalar(
        m in prop_oneof![Just(1usize), 1usize..70],
        k in prop_oneof![Just(1usize), 1usize..300],
        n in prop_oneof![Just(1usize), 1usize..70, 250usize..270],
        seed in 0u32..10_000,
        threads in prop_oneof![Just(1usize), Just(4)],
    ) {
        let _guard = RestoreDispatch;
        set_thread_override(threads);

        let a = tensor_from(m, k, seed);
        let b = tensor_from(k, n, seed ^ 0x9E37);
        let b2 = tensor_from(m, n, seed ^ 0x79B9);   // at_b's B is [m, n]
        let bt = tensor_from(n, k, seed ^ 0x85EB);   // a_bt's B is [n, k]
        let bias = tensor_from(1, n, seed ^ 0xC2B2);

        set_simd_override(SimdOverride::ForceScalar);
        let mm_s = bits(&a.matmul(&b));
        let atb_s = bits(&a.matmul_at_b(&b2));
        let abt_s = bits(&a.matmul_a_bt(&bt));
        let lin_s = bits(&a.matmul_bias(&b, &bias));

        set_simd_override(SimdOverride::ForceDetect);
        prop_assert_eq!(bits(&a.matmul(&b)), mm_s, "matmul {}x{}x{}", m, k, n);
        prop_assert_eq!(bits(&a.matmul_at_b(&b2)), atb_s, "at_b {}x{}x{}", m, k, n);
        prop_assert_eq!(bits(&a.matmul_a_bt(&bt)), abt_s, "a_bt {}x{}x{}", m, k, n);
        prop_assert_eq!(bits(&a.matmul_bias(&b, &bias)), lin_s, "linear {}x{}x{}", m, k, n);
    }

    /// The env-default dispatch (whatever `PYTHIA_SIMD` says in this test
    /// process) also matches forced-scalar — pins the whole ladder, not just
    /// the two explicit overrides.
    #[test]
    fn env_dispatch_matches_scalar(
        m in 1usize..40,
        k in 1usize..200,
        n in 1usize..40,
        seed in 0u32..10_000,
    ) {
        let _guard = RestoreDispatch;
        let a = tensor_from(m, k, seed);
        let b = tensor_from(k, n, seed ^ 0x27D4);

        set_simd_override(SimdOverride::ForceScalar);
        let want = bits(&a.matmul(&b));
        set_simd_override(SimdOverride::Env);
        prop_assert_eq!(bits(&a.matmul(&b)), want);
    }
}
