//! Cache-blocked, register-tiled f32 GEMM microkernels with runtime ISA
//! dispatch — the floor the whole NN stack stands on.
//!
//! Three band-level entry points mirror the three matmul variants on
//! [`Tensor`](crate::Tensor): [`matmul_band`] (`C += A·B`), [`at_b_band`]
//! (`C += Aᵀ·B`) and [`a_bt_band`] (`C += A·Bᵀ`). Each computes a horizontal
//! band of output rows, which is exactly the unit the threaded paths in
//! `tensor.rs` hand to one worker — so the same kernels serve the serial and
//! banded-parallel paths.
//!
//! # Dispatch ladder
//!
//! At first use the module resolves one [`Isa`]:
//!
//! 1. `PYTHIA_SIMD=off|scalar` (or a runtime [`set_simd_override`]) forces
//!    the portable scalar kernels — for testing, bisection, and as the
//!    reference the SIMD paths are pinned against.
//! 2. On `x86_64`, `is_x86_feature_detected!("avx2")` selects the 8-lane
//!    AVX2 kernels (`fma` availability is detected and reported, but fused
//!    multiply-add is deliberately **not** used — see below).
//! 3. On `aarch64`, NEON (always present, still verified via
//!    `is_aarch64_feature_detected!`) selects the 4-lane kernels.
//! 4. Everywhere else: the scalar kernels.
//!
//! # Accumulation-order contract
//!
//! Every kernel produces output **bit-identical** to the canonical scalar
//! loops on every non-NaN value, signed zeros included, across ISA, thread
//! count, and band split; and NaN where and only where the scalar reference
//! yields NaN, payload and sign unspecified. Rust specifies neither through
//! arithmetic (LLVM may commute `acc + prod`, and x86 returns its first
//! operand's NaN), so no kernel can promise them. This holds because:
//!
//! * each output element is accumulated by exactly one thread, one product
//!   at a time, in ascending reduction-index order — blocking over the
//!   reduction dimension walks blocks in ascending order, and SIMD lanes are
//!   independent output *columns*, never partial sums of one element;
//! * every accumulation step is `round(acc + round(a*b))`, the same two
//!   roundings as the scalar `*o += a * bv`. FMA would contract this to one
//!   rounding and change bits, so the kernels use explicit mul-then-add even
//!   when `fma` is available;
//! * packing the `B` panel (and the `A` panel in [`at_b_band`]) is a pure
//!   copy; the transpose-pack in [`a_bt_band`] turns the scalar path's
//!   sequential dot product into the same ascending-index
//!   multiply-accumulate sequence, starting from the same `0.0`.
//!
//! `tests/proptest_kernels.rs` pins dispatched == forced-scalar on the full
//! bit pattern, every NaN read as one pattern, across shapes and thread
//! counts.
//!
//! # Blocking scheme
//!
//! `KC × NC` panels of `B` are packed once per block and reused across every
//! row of the band (`KC*NC*4 = 128 KiB`, sized for L2; the `MR × 16`
//! register tile streams it from there). The microkernel holds an
//! `MR=4`-row by 16-column accumulator tile in registers for the whole
//! `KC` pass — 8 YMM accumulators on AVX2, 16 q-registers on NEON — cutting
//! `C` traffic by `4·KC×` versus the naive axpy loop. [`at_b_band`]
//! additionally packs the strided `A`-column tile (`MC` rows at a time) so
//! its broadcast loads are contiguous.

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use std::sync::atomic::{AtomicU8, Ordering};
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use std::sync::OnceLock;

/// Register-tile height (output rows held in registers).
const MR: usize = 4;
/// Reduction-dimension block: the packed B panel covers `KC` steps.
const KC: usize = 256;
/// Output-column block: panel is `KC × NC` = 128 KiB of f32, sized for L2.
const NC: usize = 128;
/// Output-row block for the packed A tile in `at_b` (strided-source side).
const MC: usize = 64;
/// Below this many multiply-accumulates a band skips blocking/packing and
/// runs the plain scalar loops (identical bits, less setup).
const BLOCK_THRESHOLD: usize = 4096;

/// Instruction set a band call dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar loops — the canonical accumulation order.
    Scalar,
    /// 8-lane AVX2 kernels (x86_64).
    Avx2,
    /// 4-lane NEON kernels (aarch64).
    Neon,
}

/// Runtime dispatch override, taking precedence over `PYTHIA_SIMD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdOverride {
    /// No override: honour `PYTHIA_SIMD`, else auto-detect.
    Env,
    /// Force the scalar fallback (the bit-identity reference).
    ForceScalar,
    /// Auto-detect even if `PYTHIA_SIMD=off` — benches/tests compare both
    /// arms in one process regardless of the environment.
    ForceDetect,
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force or clear the dispatch mode at runtime (mirrors
/// [`pool::set_thread_override`](crate::pool::set_thread_override)). Safe to
/// flip mid-process: every kernel produces identical bits regardless, so a
/// concurrent reader only ever changes speed, never values.
pub fn set_simd_override(mode: SimdOverride) {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    OVERRIDE.store(
        match mode {
            SimdOverride::Env => 0,
            SimdOverride::ForceScalar => 1,
            SimdOverride::ForceDetect => 2,
        },
        Ordering::SeqCst,
    );
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = mode; // no SIMD arm exists; dispatch is always scalar
}

/// `PYTHIA_SIMD` parsed once: `true` = forced off.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn env_forces_scalar() -> bool {
    static ENV_OFF: OnceLock<bool> = OnceLock::new();
    *ENV_OFF.get_or_init(|| {
        matches!(
            std::env::var("PYTHIA_SIMD").as_deref().map(str::trim),
            Ok("off") | Ok("scalar") | Ok("0")
        )
    })
}

/// CPU-feature detection, cached after the first call.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Isa::Neon;
        }
        Isa::Scalar
    })
}

/// The ISA the next band call will dispatch to: runtime override, then
/// `PYTHIA_SIMD`, then CPU-feature detection.
pub fn active_isa() -> Isa {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        match OVERRIDE.load(Ordering::SeqCst) {
            1 => Isa::Scalar,
            2 => detected_isa(),
            _ if env_forces_scalar() => Isa::Scalar,
            _ => detected_isa(),
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    Isa::Scalar
}

/// Human-readable label of the *detected* hardware arm (ignoring overrides),
/// for perf snapshots: `"avx2+fma"`, `"avx2"`, `"neon"`, or `"scalar"`.
pub fn detected_isa_label() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return if std::arch::is_x86_feature_detected!("fma") {
            "avx2+fma"
        } else {
            "avx2"
        };
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return "neon";
    }
    "scalar"
}

// ---------------------------------------------------------------------------
// Band entry points (called by `Tensor`'s serial and banded-parallel paths)
// ---------------------------------------------------------------------------

/// Accumulate rows `[start, start+rows_here)` of `A×B` into `out_band`
/// (`A: [?,k]` row-major, `B: [k,n]`; `out_band` holds exactly those rows).
/// Per element: `out[i,j] += Σ_kk a[i,kk]·b[kk,j]`, `kk` ascending.
pub fn matmul_band(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    let isa = active_isa();
    if isa == Isa::Scalar || n < lanes(isa) || rows_here * k * n < BLOCK_THRESHOLD {
        return matmul_band_scalar(a, b, out_band, k, n, start, rows_here);
    }
    let mut pack = vec![0.0f32; KC.min(k) * NC.min(n)];
    let mut jb = 0;
    while jb < n {
        let nb = NC.min(n - jb);
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            // Pack B[kb..kb+kc, jb..jb+nb] row-major into the panel.
            for c in 0..kc {
                pack[c * nb..(c + 1) * nb].copy_from_slice(&b[(kb + c) * n + jb..][..nb]);
            }
            // Reuse the packed panel across every row tile of the band.
            let mut i = 0;
            while i < rows_here {
                let mr = MR.min(rows_here - i);
                // SAFETY: alpha points at A row `start+i`, offset `kb`, and
                // the tile reads `mr` rows (stride k) × `kc` steps (stride
                // 1), all within `a`; `out` points at band row `i`, column
                // `jb`, and the tile writes `mr` rows (stride n) × `nb`
                // columns, all within `out_band`; the panel holds `kc*nb`
                // packed floats.
                unsafe {
                    tile(
                        isa,
                        Panel {
                            alpha: a.as_ptr().add((start + i) * k + kb),
                            a_rs: k,
                            a_cs: 1,
                            out: out_band.as_mut_ptr().add(i * n + jb),
                            out_rs: n,
                        },
                        pack.as_ptr(),
                        kc,
                        nb,
                        mr,
                    );
                }
                i += mr;
            }
            kb += kc;
        }
        jb += nb;
    }
}

/// Accumulate out rows `[start, start+rows_here)` of `AᵀB` into `out_band`
/// (`A: [m,k]`, `B: [m,n]`). Per element: `out[r,j] += Σ_i a[i,start+r]·b[i,j]`,
/// `i` ascending — the same order as `A.transpose().matmul(B)`.
#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
pub fn at_b_band(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    let isa = active_isa();
    if isa == Isa::Scalar || n < lanes(isa) || rows_here * m * n < BLOCK_THRESHOLD {
        return at_b_band_scalar(a, b, out_band, m, k, n, start, rows_here);
    }
    let mut pack = vec![0.0f32; KC.min(m) * NC.min(n)];
    let mut apack = vec![0.0f32; KC.min(m) * MC.min(rows_here)];
    let mut jb = 0;
    while jb < n {
        let nb = NC.min(n - jb);
        let mut ib = 0;
        // The reduction dimension is `m`; blocks must ascend so every output
        // element still sums `i` in ascending order.
        while ib < m {
            let kc = KC.min(m - ib);
            for c in 0..kc {
                pack[c * nb..(c + 1) * nb].copy_from_slice(&b[(ib + c) * n + jb..][..nb]);
            }
            let mut rb = 0;
            while rb < rows_here {
                let mc = MC.min(rows_here - rb);
                // Pack the strided A columns [start+rb, start+rb+mc) over
                // reduction rows [ib, ib+kc) so broadcasts are contiguous.
                for c in 0..kc {
                    apack[c * mc..(c + 1) * mc]
                        .copy_from_slice(&a[(ib + c) * k + start + rb..][..mc]);
                }
                let mut i = 0;
                while i < mc {
                    let mr = MR.min(mc - i);
                    // SAFETY: alpha points into the packed A tile (row
                    // stride 1, step stride `mc`, `mr`×`kc` reads in
                    // bounds); `out` points at band row `rb+i`, column `jb`
                    // (`mr` rows stride n × `nb` cols in bounds); the B
                    // panel holds `kc*nb` floats.
                    unsafe {
                        tile(
                            isa,
                            Panel {
                                alpha: apack.as_ptr().add(i),
                                a_rs: 1,
                                a_cs: mc,
                                out: out_band.as_mut_ptr().add((rb + i) * n + jb),
                                out_rs: n,
                            },
                            pack.as_ptr(),
                            kc,
                            nb,
                            mr,
                        );
                    }
                    i += mr;
                }
                rb += mc;
            }
            ib += kc;
        }
        jb += nb;
    }
}

/// Accumulate rows `[start, start+rows_here)` of `ABᵀ` into `out_band`
/// (`A: [?,k]`, `B: [n,k]`). Per element: `out[i,j] += Σ_c a[i,c]·b[j,c]`,
/// `c` ascending from a zero accumulator — the same order as the scalar dot
/// product and as `A.matmul(&B.transpose())`.
pub fn a_bt_band(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    let isa = active_isa();
    if isa == Isa::Scalar || n < lanes(isa) || rows_here * k * n < BLOCK_THRESHOLD {
        return a_bt_band_scalar(a, b, out_band, k, n, start, rows_here);
    }
    let mut pack = vec![0.0f32; KC.min(k) * NC.min(n)];
    let mut jb = 0;
    while jb < n {
        let nb = NC.min(n - jb);
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            // Transpose-pack Bᵀ[kb..kb+kc, jb..jb+nb]: after this the
            // microkernel sees the same `[kc, nb]` layout as plain matmul.
            for (j, col) in (jb..jb + nb).enumerate() {
                let brow = &b[col * k + kb..][..kc];
                for (c, &v) in brow.iter().enumerate() {
                    pack[c * nb + j] = v;
                }
            }
            let mut i = 0;
            while i < rows_here {
                let mr = MR.min(rows_here - i);
                // SAFETY: same bounds argument as `matmul_band` — alpha
                // walks A rows `start+i..start+i+mr` over steps `kb..kb+kc`,
                // out covers band rows `i..i+mr`, columns `jb..jb+nb`, and
                // the panel holds `kc*nb` packed floats.
                unsafe {
                    tile(
                        isa,
                        Panel {
                            alpha: a.as_ptr().add((start + i) * k + kb),
                            a_rs: k,
                            a_cs: 1,
                            out: out_band.as_mut_ptr().add(i * n + jb),
                            out_rs: n,
                        },
                        pack.as_ptr(),
                        kc,
                        nb,
                        mr,
                    );
                }
                i += mr;
            }
            kb += kc;
        }
        jb += nb;
    }
}

/// Vector width (in f32) of the ISA's narrowest useful tile.
fn lanes(isa: Isa) -> usize {
    match isa {
        Isa::Scalar => usize::MAX,
        Isa::Avx2 => 8,
        Isa::Neon => 4,
    }
}

// ---------------------------------------------------------------------------
// Canonical scalar kernels — the accumulation-order reference
// ---------------------------------------------------------------------------
//
// These define the exact floating-point behaviour every SIMD kernel must
// reproduce. Note there is deliberately *no* `a == 0.0` skip: skipping a
// zero multiplier would drop `0.0 * inf = NaN` / `0.0 * NaN` propagation
// (and can flip signed zeros), silently breaking the "bit-identical to
// naive" contract when an operand holds non-finite values.

fn matmul_band_scalar(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    for i in 0..rows_here {
        let a_row = &a[(start + i) * k..(start + i + 1) * k];
        let out_row = &mut out_band[i * n..(i + 1) * n];
        // Unroll the reduction by 2: each element still receives its two
        // products as separate sequential adds, preserving the order.
        let mut kk = 0;
        while kk + 2 <= k {
            let (a0, a1) = (a_row[kk], a_row[kk + 1]);
            let b0 = &b[kk * n..(kk + 1) * n];
            let b1 = &b[(kk + 1) * n..(kk + 2) * n];
            for ((o, &v0), &v1) in out_row.iter_mut().zip(b0).zip(b1) {
                *o += a0 * v0;
                *o += a1 * v1;
            }
            kk += 2;
        }
        if kk < k {
            let a0 = a_row[kk];
            let b0 = &b[kk * n..(kk + 1) * n];
            for (o, &v0) in out_row.iter_mut().zip(b0) {
                *o += a0 * v0;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
fn at_b_band_scalar(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let b_row = &b[i * n..(i + 1) * n];
        for r in 0..rows_here {
            let v = a_row[start + r];
            let out_row = &mut out_band[r * n..(r + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += v * bv;
            }
        }
    }
}

fn a_bt_band_scalar(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    for i in 0..rows_here {
        let a_row = &a[(start + i) * k..(start + i + 1) * k];
        let out_row = &mut out_band[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            // Single sequential accumulator: the same order the packed SIMD
            // path replays column-wise.
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o += acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Register-tile microkernels
// ---------------------------------------------------------------------------

/// One register tile's view of the operands: a broadcast source (`alpha`,
/// strided by output row `a_rs` and reduction step `a_cs`) and an output
/// tile (`out`, row stride `out_rs`). Raw pointers because the tiles
/// overlap slice borrows across calls; each call's bounds are argued at the
/// call site.
#[derive(Clone, Copy)]
struct Panel {
    alpha: *const f32,
    a_rs: usize,
    a_cs: usize,
    out: *mut f32,
    out_rs: usize,
}

/// Dispatch one `mr × nb` tile over the packed panel to the ISA kernel.
///
/// # Safety
/// `p.alpha` must be readable at `r*a_rs + c*a_cs` and `p.out`
/// readable+writable at `r*out_rs + j` for all `r < mr`, `c < kc`, `j < nb`;
/// `bp` must hold `kc * nb` floats; the selected ISA must be supported by
/// the running CPU (guaranteed by [`active_isa`]'s feature detection).
unsafe fn tile(isa: Isa, p: Panel, bp: *const f32, kc: usize, nb: usize, mr: usize) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            if mr == MR {
                mk4_avx2(p, bp, kc, nb);
            } else {
                for r in 0..mr {
                    mk1_avx2(row_panel(p, r), bp, kc, nb);
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            if mr == MR {
                mk4_neon(p, bp, kc, nb);
            } else {
                for r in 0..mr {
                    mk1_neon(row_panel(p, r), bp, kc, nb);
                }
            }
        }
        _ => {
            let _ = (p, bp, kc, nb, mr); // arch without a SIMD arm
            unreachable!("scalar dispatch never reaches the blocked driver")
        }
    }
}

/// `p` shifted down to its `r`-th output row (a 1-row panel).
///
/// # Safety
/// Row `r < mr` must be in bounds for both the alpha and out views.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
unsafe fn row_panel(p: Panel, r: usize) -> Panel {
    Panel {
        alpha: p.alpha.add(r * p.a_rs),
        out: p.out.add(r * p.out_rs),
        ..p
    }
}

/// Scalar remainder columns `[j0, nb)` of an `rows`-row tile: per element,
/// ascending reduction order — identical to the canonical scalar kernels.
///
/// # Safety
/// Same bounds contract as [`tile`], restricted to columns `[j0, nb)`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
unsafe fn tail_cols(p: Panel, bp: *const f32, kc: usize, nb: usize, rows: usize, j0: usize) {
    for r in 0..rows {
        for j in j0..nb {
            let o = p.out.add(r * p.out_rs + j);
            let mut v = *o;
            for c in 0..kc {
                v += *p.alpha.add(r * p.a_rs + c * p.a_cs) * *bp.add(c * nb + j);
            }
            *o = v;
        }
    }
}

/// Generates the AVX2 microkernels for a fixed register-tile height `$R`.
///
/// The accumulators stay in YMM registers for the whole `kc` pass; each
/// lane is one output element, updated as `acc = add(acc, mul(alpha, b))` —
/// explicitly *not* `fmadd`, to keep the two-rounding scalar semantics.
#[cfg(target_arch = "x86_64")]
macro_rules! avx2_microkernel {
    ($name:ident, $R:literal) => {
        /// # Safety
        /// Caller guarantees AVX2 is available and the [`tile`] bounds
        /// contract with `mr == $R`.
        #[target_feature(enable = "avx2")]
        unsafe fn $name(p: Panel, bp: *const f32, kc: usize, nb: usize) {
            use std::arch::x86_64::*;
            let mut j = 0usize;
            // 16-wide tiles: 2 vectors × $R rows of accumulators.
            while j + 2 * 8 <= nb {
                let mut acc = [[_mm256_setzero_ps(); 2]; $R];
                for r in 0..$R {
                    acc[r][0] = _mm256_loadu_ps(p.out.add(r * p.out_rs + j));
                    acc[r][1] = _mm256_loadu_ps(p.out.add(r * p.out_rs + j + 8));
                }
                for c in 0..kc {
                    let b0 = _mm256_loadu_ps(bp.add(c * nb + j));
                    let b1 = _mm256_loadu_ps(bp.add(c * nb + j + 8));
                    for r in 0..$R {
                        let al = _mm256_set1_ps(*p.alpha.add(r * p.a_rs + c * p.a_cs));
                        acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(al, b0));
                        acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(al, b1));
                    }
                }
                for r in 0..$R {
                    _mm256_storeu_ps(p.out.add(r * p.out_rs + j), acc[r][0]);
                    _mm256_storeu_ps(p.out.add(r * p.out_rs + j + 8), acc[r][1]);
                }
                j += 2 * 8;
            }
            // One remaining 8-wide tile.
            if j + 8 <= nb {
                let mut acc = [_mm256_setzero_ps(); $R];
                for r in 0..$R {
                    acc[r] = _mm256_loadu_ps(p.out.add(r * p.out_rs + j));
                }
                for c in 0..kc {
                    let b0 = _mm256_loadu_ps(bp.add(c * nb + j));
                    for r in 0..$R {
                        let al = _mm256_set1_ps(*p.alpha.add(r * p.a_rs + c * p.a_cs));
                        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(al, b0));
                    }
                }
                for r in 0..$R {
                    _mm256_storeu_ps(p.out.add(r * p.out_rs + j), acc[r]);
                }
                j += 8;
            }
            if j < nb {
                // SAFETY: narrows the caller's bounds contract to the tail.
                tail_cols(p, bp, kc, nb, $R, j);
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
avx2_microkernel!(mk4_avx2, 4);
#[cfg(target_arch = "x86_64")]
avx2_microkernel!(mk1_avx2, 1);

/// Generates the NEON microkernels for a fixed register-tile height `$R`.
///
/// Same structure as the AVX2 kernels with 4-lane vectors; `vaddq`/`vmulq`
/// rather than `vmlaq`/`vfmaq` — FMLA would fuse the rounding and break bit
/// identity with the scalar reference.
#[cfg(target_arch = "aarch64")]
macro_rules! neon_microkernel {
    ($name:ident, $R:literal) => {
        /// # Safety
        /// Caller guarantees NEON is available and the [`tile`] bounds
        /// contract with `mr == $R`.
        #[target_feature(enable = "neon")]
        unsafe fn $name(p: Panel, bp: *const f32, kc: usize, nb: usize) {
            use std::arch::aarch64::*;
            let mut j = 0usize;
            // 16-wide tiles: 4 vectors × $R rows of accumulators.
            while j + 4 * 4 <= nb {
                let mut acc = [[vdupq_n_f32(0.0); 4]; $R];
                for r in 0..$R {
                    for v in 0..4 {
                        acc[r][v] = vld1q_f32(p.out.add(r * p.out_rs + j + 4 * v));
                    }
                }
                for c in 0..kc {
                    let mut bv = [vdupq_n_f32(0.0); 4];
                    for (v, bvv) in bv.iter_mut().enumerate() {
                        *bvv = vld1q_f32(bp.add(c * nb + j + 4 * v));
                    }
                    for r in 0..$R {
                        let al = vdupq_n_f32(*p.alpha.add(r * p.a_rs + c * p.a_cs));
                        for v in 0..4 {
                            acc[r][v] = vaddq_f32(acc[r][v], vmulq_f32(al, bv[v]));
                        }
                    }
                }
                for r in 0..$R {
                    for v in 0..4 {
                        vst1q_f32(p.out.add(r * p.out_rs + j + 4 * v), acc[r][v]);
                    }
                }
                j += 4 * 4;
            }
            // Remaining 4-wide tiles.
            while j + 4 <= nb {
                let mut acc = [vdupq_n_f32(0.0); $R];
                for r in 0..$R {
                    acc[r] = vld1q_f32(p.out.add(r * p.out_rs + j));
                }
                for c in 0..kc {
                    let b0 = vld1q_f32(bp.add(c * nb + j));
                    for r in 0..$R {
                        let al = vdupq_n_f32(*p.alpha.add(r * p.a_rs + c * p.a_cs));
                        acc[r] = vaddq_f32(acc[r], vmulq_f32(al, b0));
                    }
                }
                for r in 0..$R {
                    vst1q_f32(p.out.add(r * p.out_rs + j), acc[r]);
                }
                j += 4;
            }
            if j < nb {
                // SAFETY: narrows the caller's bounds contract to the tail.
                tail_cols(p, bp, kc, nb, $R, j);
            }
        }
    };
}

#[cfg(target_arch = "aarch64")]
neon_microkernel!(mk4_neon, 4);
#[cfg(target_arch = "aarch64")]
neon_microkernel!(mk1_neon, 1);

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` with dispatch forced to `mode`, restoring `Env` even on
    /// panic (tests in one process share the override).
    fn with_override<T>(mode: SimdOverride, f: impl FnOnce() -> T) -> T {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_simd_override(SimdOverride::Env);
            }
        }
        let _g = Restore;
        set_simd_override(mode);
        f()
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((s >> 40) as i32 % 1000) as f32 / 97.0 - 4.0;
                // Sprinkle exact zeros to exercise the no-skip contract.
                if s.is_multiple_of(11) {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// All three variants, dispatched vs forced-scalar, over shapes chosen
    /// to hit every blocking boundary: lane tails (16±1), panel edges
    /// (NC±1, KC±1), row-tile remainders (MR±1, MC±1), and degenerate 1×N /
    /// N×1 bands.
    #[test]
    fn dispatched_matches_scalar_on_blocking_boundaries() {
        let shapes: &[(usize, usize, usize)] = &[
            (1, 1, 1),
            (1, 300, 1),
            (1, 1, 300),
            (3, 7, 15),
            (4, 16, 16),
            (5, 17, 17),
            (2, 255, 127),
            (2, 256, 128),
            (2, 257, 129),
            (63, 31, 24),
            (64, 32, 25),
            (65, 33, 26),
            (7, 130, 140),
        ];
        for &(m, k, n) in shapes {
            let a = fill(m * k, (m * 31 + k * 7 + n) as u64);
            let b = fill(k * n, (m + k * 13 + n * 3) as u64);
            let bt = fill(n * k, (m * 5 + k + n * 11) as u64); // B for a_bt: [n,k]
            let b2 = fill(m * n, (m * 17 + k * 3 + n * 7) as u64); // B for at_b: [m,n]

            let run = |mode| {
                with_override(mode, || {
                    let mut mm = vec![0.0f32; m * n];
                    matmul_band(&a, &b, &mut mm, k, n, 0, m);
                    let mut ab = vec![0.0f32; m * n];
                    a_bt_band(&a, &bt, &mut ab, k, n, 0, m);
                    let mut atb = vec![0.0f32; k * n];
                    at_b_band(&a, &b2, &mut atb, m, k, n, 0, k);
                    (mm, ab, atb)
                })
            };
            let scalar = run(SimdOverride::ForceScalar);
            let simd = run(SimdOverride::ForceDetect);
            assert_eq!(bits(&scalar.0), bits(&simd.0), "matmul {m}x{k}x{n}");
            assert_eq!(bits(&scalar.1), bits(&simd.1), "a_bt {m}x{k}x{n}");
            assert_eq!(bits(&scalar.2), bits(&simd.2), "at_b {m}x{k}x{n}");
        }
    }

    /// Band splits (the threaded path's unit) must agree with the full-band
    /// call bit for bit under SIMD dispatch.
    #[test]
    fn band_splits_match_full_band() {
        let (m, k, n) = (37, 65, 47);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        with_override(SimdOverride::ForceDetect, || {
            let mut full = vec![0.0f32; m * n];
            matmul_band(&a, &b, &mut full, k, n, 0, m);
            let mut banded = vec![0.0f32; m * n];
            let mut start = 0;
            for band in [5usize, 13, 19] {
                matmul_band(
                    &a,
                    &b,
                    &mut banded[start * n..(start + band) * n],
                    k,
                    n,
                    start,
                    band,
                );
                start += band;
            }
            assert_eq!(bits(&full), bits(&banded));
        });
    }

    /// A zero multiplier against inf/NaN must propagate NaN (no zero-skip)
    /// in both dispatch arms.
    #[test]
    fn zero_times_nonfinite_propagates() {
        for mode in [SimdOverride::ForceScalar, SimdOverride::ForceDetect] {
            with_override(mode, || {
                // out = [0, 1] × [inf; 2] → 0*inf + 1*2 = NaN.
                let mut out = vec![0.0f32; 1];
                matmul_band(&[0.0, 1.0], &[f32::INFINITY, 2.0], &mut out, 2, 1, 0, 1);
                assert!(out[0].is_nan(), "matmul dropped 0*inf ({mode:?})");

                let mut out = vec![0.0f32; 1];
                a_bt_band(&[0.0, 1.0], &[f32::NAN, 2.0], &mut out, 2, 1, 0, 1);
                assert!(out[0].is_nan(), "a_bt dropped 0*NaN ({mode:?})");

                // Aᵀ: a = [0; 1] (column), b rows [inf], [2].
                let mut out = vec![0.0f32; 1];
                at_b_band(&[0.0, 1.0], &[f32::INFINITY, 2.0], &mut out, 2, 1, 1, 0, 1);
                assert!(out[0].is_nan(), "at_b dropped 0*inf ({mode:?})");
            });
        }
    }

    #[test]
    fn override_forces_scalar() {
        with_override(SimdOverride::ForceScalar, || {
            assert_eq!(active_isa(), Isa::Scalar);
        });
    }

    #[test]
    fn detected_label_matches_isa() {
        let label = detected_isa_label();
        with_override(SimdOverride::ForceDetect, || match active_isa() {
            Isa::Scalar => assert_eq!(label, "scalar"),
            Isa::Avx2 => assert!(label.starts_with("avx2")),
            Isa::Neon => assert_eq!(label, "neon"),
        });
    }
}
