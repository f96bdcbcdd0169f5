//! Property tests for the GEMM microkernels: every SIMD arm the host has —
//! the detected rung and, on an AVX-512 host, the AVX2 one below it — must
//! be **bit-identical** to the forced-scalar fallback for all three variants
//! (`matmul`, `matmul_at_b_into`, `matmul_a_bt_into`) and the fused
//! `matmul_bias_into`, each written over a fresh zero tensor,
//! across random shapes — including 1×N, N×1 and non-multiple-of-lane-width
//! dimensions — values (with occasional exact zeros and non-finite
//! operands), and thread counts.
//!
//! Identity is checked on the raw `f32` bit patterns, not `==`, so signed
//! zeros count too. A NaN must meet a NaN, but of any payload and sign: the
//! kernels' contract (`kernels.rs`) leaves those unspecified, as Rust does.

use pythia::nn::kernels::{set_simd_override, Chain, SimdOverride};
use pythia::nn::pool::set_thread_override;
use pythia::nn::Tensor;
use pythia::sim::rng::cases;

/// `aᵀ × b` into fresh zeros.
fn at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.cols(), b.cols());
    a.matmul_at_b_into(b, &mut out, Chain::Start);
    out
}

/// `a × bᵀ` into fresh zeros.
fn a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.rows());
    a.matmul_a_bt_into(b, &mut out);
    out
}

/// `a × w + bias` into fresh zeros.
fn linear(a: &Tensor, w: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), w.cols());
    a.matmul_bias_into(w, bias, &mut out);
    out
}

/// Restores the dispatch ladder and pool width even when a failed
/// assertion unwinds mid-test.
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

/// The arms below the scalar reference: AVX2 (capped) and the detected rung.
const ARMS: [SimdOverride; 2] = [SimdOverride::CapAvx2, SimdOverride::ForceDetect];

/// Dispatched == forced-scalar, bit for bit, for every GEMM variant on
/// every arm.
#[test]
fn dispatched_is_bit_identical_to_scalar() {
    cases(24, |rng| {
        // One in two (one in three for n) dimensions is exactly 1.
        let m = if rng.gen_range(0..2) == 0 {
            1
        } else {
            rng.gen_range(1..70)
        };
        let k = if rng.gen_range(0..2) == 0 {
            1
        } else {
            rng.gen_range(1..300)
        };
        let n = match rng.gen_range(0..3) {
            0 => 1,
            1 => rng.gen_range(1..70),
            _ => rng.gen_range(250..270),
        };
        let seed = rng.gen_range(0..10_000);
        let threads = [1, 4][rng.gen_range(0..2usize)];
        let _guard = RestoreDispatch;
        set_thread_override(threads);

        let a = tensor_from(m, k, seed);
        let b = tensor_from(k, n, seed ^ 0x9E37);
        let b2 = tensor_from(m, n, seed ^ 0x79B9); // at_b's B is [m, n]
        let bt = tensor_from(n, k, seed ^ 0x85EB); // a_bt's B is [n, k]
        let bias = tensor_from(1, n, seed ^ 0xC2B2);

        set_simd_override(SimdOverride::ForceScalar);
        let mm_s = bits(&a.matmul(&b));
        let atb_s = bits(&at_b(&a, &b2));
        let abt_s = bits(&a_bt(&a, &bt));
        let lin_s = bits(&linear(&a, &b, &bias));

        for arm in ARMS {
            set_simd_override(arm);
            let what = format!("{m}x{k}x{n} {arm:?}");
            assert_eq!(bits(&a.matmul(&b)), mm_s, "matmul {what}");
            assert_eq!(bits(&at_b(&a, &b2)), atb_s, "at_b {what}");
            assert_eq!(bits(&a_bt(&a, &bt)), abt_s, "a_bt {what}");
            assert_eq!(bits(&linear(&a, &b, &bias)), lin_s, "linear {what}");
        }
    });
}

/// The env-default dispatch (whatever `PYTHIA_SIMD` says in this test
/// process) also matches forced-scalar — pins the whole ladder, not just
/// the explicit overrides — and so does every arm.
#[test]
fn env_dispatch_matches_scalar() {
    cases(24, |rng| {
        let m = rng.gen_range(1..40);
        let k = rng.gen_range(1..200);
        let n = rng.gen_range(1..40);
        let seed = rng.gen_range(0..10_000);
        let _guard = RestoreDispatch;
        let a = tensor_from(m, k, seed);
        let b = tensor_from(k, n, seed ^ 0x27D4);

        set_simd_override(SimdOverride::ForceScalar);
        let want = bits(&a.matmul(&b));
        for arm in [SimdOverride::Env].into_iter().chain(ARMS) {
            set_simd_override(arm);
            assert_eq!(bits(&a.matmul(&b)), want, "{m}x{k}x{n} {arm:?}");
        }
    });
}
