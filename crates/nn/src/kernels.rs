//! Cache-blocked, register-tiled f32 GEMM microkernels with runtime ISA
//! dispatch — the floor the whole NN stack stands on.
//!
//! Three band-level entry points mirror the three matmul variants on
//! [`Tensor`](crate::Tensor): [`matmul_band`] (`C = A·B`), [`at_b_band`]
//! (`C = Aᵀ·B`) and [`a_bt_band`] (`C = A·Bᵀ`). Each computes a horizontal
//! band of output rows, which is exactly the unit the threaded paths in
//! `tensor.rs` hand to one worker — so the same kernels serve the serial and
//! banded-parallel paths.
//!
//! # Operands where they lie
//!
//! Each operand is a slice plus a row stride (`rs = [A, B, C]`, in elements),
//! so a kernel reads and writes a block of a larger row-major matrix in place
//! — one attention head's columns of a packed `[rows, dim]` tensor, say —
//! and a dense caller passes its widths. `C` is **written**, not accumulated
//! into: whatever the output block held is overwritten, and nothing outside
//! the block is touched. Every entry point checks, before any pointer is
//! formed, that each slice reaches the last element its view names.
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
//!   at a time, in ascending reduction-index order, from `+0.0` — blocking
//!   over the reduction dimension walks blocks in ascending order (the first
//!   starts its accumulators at `+0.0` in registers, later ones reload `C`),
//!   and SIMD lanes are independent output *columns*, never partial sums of
//!   one element;
//! * every accumulation step is `round(acc + round(a*b))`, the same two
//!   roundings as the scalar `*o += a * bv`. FMA would contract this to one
//!   rounding and change bits, so the kernels use explicit mul-then-add even
//!   when `fma` is available;
//! * packing the `B` panel (and the `A` panel in [`at_b_band`]) is a pure
//!   copy; the transpose-pack in [`a_bt_band`] turns the scalar path's
//!   sequential dot product into the same ascending-index
//!   multiply-accumulate sequence, starting from the same `0.0`;
//! * a row's last, partial vector runs the same lane arithmetic as a full
//!   one: the panel is zero-padded to a lane multiple and only `C` is
//!   touched under a mask (AVX2; NEON finishes the row with scalar chains of
//!   the same order), so a column's bits do not depend on where in a vector
//!   it fell.
//!
//! `tests/proptest_kernels.rs` pins dispatched == forced-scalar on the full
//! bit pattern, every NaN read as one pattern, across shapes and thread
//! counts.
//!
//! # Blocking scheme
//!
//! `KC × NC` panels of `B` are packed once per block — into a per-thread
//! scratch that never exceeds `KC·NC + KC·MC` floats, not a fresh allocation
//! per call — and reused across every row of the band (`KC*NC*4 = 128 KiB`,
//! sized for L2; the `MR × 16` register tile streams it from there), each
//! panel row zero-padded to whole vectors. The microkernel holds an
//! `MR=4`-row by 16-column accumulator tile in registers for the whole
//! `KC` pass — 8 YMM accumulators on AVX2, 16 q-registers on NEON — cutting
//! `C` traffic by `4·KC×` versus the naive axpy loop. [`at_b_band`]
//! additionally packs the strided `A`-column tile (`MC` rows at a time) so
//! its broadcast loads are contiguous.

use std::cell::RefCell;
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

thread_local! {
    /// This thread's pack panels — the `B` panel and, behind it, the `A`
    /// tile of [`at_b_band`]. Grows to what the largest call so far needed:
    /// at most `KC·NC + KC·MC` floats (192 KiB).
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on `len` floats of this thread's pack scratch, contents stale.
fn with_pack<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK.with_borrow_mut(|buf| {
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// How far a `rows × cols` view of row stride `rs` reaches into its slice.
///
/// # Panics
/// Panics if a row is longer than the stride to the next.
fn reach(rows: usize, cols: usize, rs: usize) -> usize {
    if rows == 0 || cols == 0 {
        return 0;
    }
    assert!(
        cols <= rs,
        "a row of {cols} overlaps the next at stride {rs}"
    );
    (rows - 1) * rs + cols
}

/// Write rows `[start, start+rows_here)` of `A×B` over `out_band`
/// (`A: [?,k]`, `B: [k,n]`, both row-major at row strides `rs[0]`, `rs[1]`;
/// `out_band` holds exactly those rows at row stride `rs[2]`). Per element:
/// `out[i,j] = Σ_kk a[i,kk]·b[kk,j]`, `kk` ascending from `+0.0`.
///
/// # Panics
/// Panics if a slice is shorter than the view the strides describe.
#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
pub fn matmul_band(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    rs: [usize; 3],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    if rows_here == 0 || n == 0 {
        return;
    }
    let [a_rs, b_rs, c_rs] = rs;
    assert!(
        reach(start + rows_here, k, a_rs) <= a.len()
            && reach(k, n, b_rs) <= b.len()
            && reach(rows_here, n, c_rs) <= out_band.len(),
        "matmul_band: a slice ends inside its {rows_here}x{k}x{n} view"
    );
    let isa = active_isa();
    if isa == Isa::Scalar || n < lanes(isa) || rows_here * k * n < BLOCK_THRESHOLD {
        return matmul_band_scalar(a, b, out_band, rs, k, n, start, rows_here);
    }
    let pack_b = |panel: &mut [f32], ld, kb, kc, jb, nb| {
        // B[kb..kb+kc, jb..jb+nb], row for row.
        for c in 0..kc {
            panel[c * ld..][..nb].copy_from_slice(&b[(kb + c) * b_rs + jb..][..nb]);
        }
    };
    let a = &a[start * a_rs..];
    // SAFETY: the assert above; `isa` comes from `active_isa`.
    unsafe { blocked(isa, a, a_rs, out_band, c_rs, k, n, rows_here, pack_b) }
}

/// Write out rows `[start, start+rows_here)` of `AᵀB` over `out_band`
/// (`A: [m,?]`, `B: [m,n]`, strides as in [`matmul_band`]). Per element:
/// `out[r,j] = Σ_i a[i,start+r]·b[i,j]`, `i` ascending from `+0.0` — the
/// same order as `A.transpose().matmul(B)`.
///
/// # Panics
/// Panics if a slice is shorter than the view the strides describe.
#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
pub fn at_b_band(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    rs: [usize; 3],
    m: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    if rows_here == 0 || n == 0 {
        return;
    }
    let [a_rs, b_rs, c_rs] = rs;
    assert!(
        reach(m, start + rows_here, a_rs) <= a.len()
            && reach(m, n, b_rs) <= b.len()
            && reach(rows_here, n, c_rs) <= out_band.len(),
        "at_b_band: a slice ends inside its {rows_here}x{m}x{n} view"
    );
    let isa = active_isa();
    if isa == Isa::Scalar || n < lanes(isa) || rows_here * m * n < BLOCK_THRESHOLD {
        return at_b_band_scalar(a, b, out_band, rs, m, n, start, rows_here);
    }
    let (b_len, a_len) = (
        KC.min(m) * panel_stride(isa, NC.min(n)),
        KC.min(m) * MC.min(rows_here),
    );
    with_pack(b_len + a_len, |pack| {
        let (panel, apack) = pack.split_at_mut(b_len);
        let mut jb = 0;
        while jb < n {
            let nb = NC.min(n - jb);
            let ld = panel_stride(isa, nb);
            let mut ib = 0;
            // The reduction dimension is `m`; blocks must ascend so every
            // output element still sums `i` in ascending order.
            while ib < m {
                let kc = KC.min(m - ib);
                for c in 0..kc {
                    panel[c * ld..][..nb].copy_from_slice(&b[(ib + c) * b_rs + jb..][..nb]);
                }
                zero_pad(panel, ld, kc, nb);
                let mut rb = 0;
                while rb < rows_here {
                    let mc = MC.min(rows_here - rb);
                    // Pack the strided A columns [start+rb, start+rb+mc) over
                    // reduction rows [ib, ib+kc) so broadcasts are contiguous.
                    for c in 0..kc {
                        apack[c * mc..(c + 1) * mc]
                            .copy_from_slice(&a[(ib + c) * a_rs + start + rb..][..mc]);
                    }
                    let mut i = 0;
                    while i < mc {
                        let mr = MR.min(mc - i);
                        // SAFETY: alpha points into the packed A tile (row
                        // stride 1, step stride `mc`, `mr`×`kc` reads in
                        // bounds); `out` points at band row `rb+i`, column
                        // `jb` (`mr` rows stride `c_rs` × `nb` cols, inside
                        // `out_band` by the entry assert); the B panel holds
                        // `kc` rows of `ld` floats.
                        unsafe {
                            tile(
                                isa,
                                Panel {
                                    alpha: apack.as_ptr().add(i),
                                    a_rs: 1,
                                    a_cs: mc,
                                    out: out_band.as_mut_ptr().add((rb + i) * c_rs + jb),
                                    out_rs: c_rs,
                                    fresh: ib == 0,
                                },
                                panel.as_ptr(),
                                ld,
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
    });
}

/// Write rows `[start, start+rows_here)` of `ABᵀ` over `out_band`
/// (`A: [?,k]`, `B: [n,k]`, strides as in [`matmul_band`]). Per element:
/// `out[i,j] = Σ_c a[i,c]·b[j,c]`, `c` ascending from `+0.0` — the same
/// order as the scalar dot product and as `A.matmul(&B.transpose())`.
///
/// # Panics
/// Panics if a slice is shorter than the view the strides describe.
#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
pub fn a_bt_band(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    rs: [usize; 3],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    if rows_here == 0 || n == 0 {
        return;
    }
    let [a_rs, b_rs, c_rs] = rs;
    assert!(
        reach(start + rows_here, k, a_rs) <= a.len()
            && reach(n, k, b_rs) <= b.len()
            && reach(rows_here, n, c_rs) <= out_band.len(),
        "a_bt_band: a slice ends inside its {rows_here}x{k}x{n} view"
    );
    let isa = active_isa();
    if isa == Isa::Scalar || n < lanes(isa) || rows_here * k * n < BLOCK_THRESHOLD {
        return a_bt_band_scalar(a, b, out_band, rs, k, n, start, rows_here);
    }
    let pack_b = |panel: &mut [f32], ld, kb, kc, jb, nb| {
        // Bᵀ[kb..kb+kc, jb..jb+nb]: after this the microkernel sees the same
        // `[kc, nb]` layout as plain matmul.
        for j in 0..nb {
            let brow = &b[(jb + j) * b_rs + kb..][..kc];
            for (c, &v) in brow.iter().enumerate() {
                panel[c * ld + j] = v;
            }
        }
    };
    let a = &a[start * a_rs..];
    // SAFETY: the assert above; `isa` comes from `active_isa`.
    unsafe { blocked(isa, a, a_rs, out_band, c_rs, k, n, rows_here, pack_b) }
}

/// The blocked driver of [`matmul_band`] and [`a_bt_band`], which differ
/// only in how they pack: `pack_b(panel, ld, kb, kc, jb, nb)` copies the
/// `kc × nb` block of (the possibly transposed) `B` at `(kb, jb)` into
/// `panel` at row stride `ld`. `a` starts at the band's first row.
///
/// # Safety
/// `a` must reach a `rows_here × k` view at row stride `a_rs` and `out_band`
/// a `rows_here × n` view at `c_rs` (the callers' entry asserts), and `isa`
/// must be a SIMD arm the running CPU supports.
#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
unsafe fn blocked(
    isa: Isa,
    a: &[f32],
    a_rs: usize,
    out_band: &mut [f32],
    c_rs: usize,
    k: usize,
    n: usize,
    rows_here: usize,
    pack_b: impl Fn(&mut [f32], usize, usize, usize, usize, usize),
) {
    with_pack(KC.min(k) * panel_stride(isa, NC.min(n)), |panel| {
        let mut jb = 0;
        while jb < n {
            let nb = NC.min(n - jb);
            let ld = panel_stride(isa, nb);
            let mut kb = 0;
            while kb < k {
                let kc = KC.min(k - kb);
                pack_b(panel, ld, kb, kc, jb, nb);
                zero_pad(panel, ld, kc, nb);
                // Reuse the packed panel across every row tile of the band.
                let mut i = 0;
                while i < rows_here {
                    let mr = MR.min(rows_here - i);
                    // SAFETY: alpha points at band row `i` of A, offset `kb`,
                    // and the tile reads `mr` rows (stride `a_rs`) × `kc`
                    // steps (stride 1); `out` points at band row `i`, column
                    // `jb`, and the tile writes `mr` rows (stride `c_rs`) ×
                    // `nb` columns — both inside their slices by this
                    // function's contract; the panel holds `kc` rows of `ld`
                    // floats.
                    unsafe {
                        tile(
                            isa,
                            Panel {
                                alpha: a.as_ptr().add(i * a_rs + kb),
                                a_rs,
                                a_cs: 1,
                                out: out_band.as_mut_ptr().add(i * c_rs + jb),
                                out_rs: c_rs,
                                fresh: kb == 0,
                            },
                            panel.as_ptr(),
                            ld,
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
    });
}

/// Vector width (in f32) of the ISA's narrowest useful tile.
fn lanes(isa: Isa) -> usize {
    match isa {
        Isa::Scalar => usize::MAX,
        Isa::Avx2 => 8,
        Isa::Neon => 4,
    }
}

/// Row stride of a packed `B` panel `nb` columns wide: whole vectors, the
/// columns past `nb` zero ([`zero_pad`]), so a row's last vector loads like
/// any other.
fn panel_stride(isa: Isa, nb: usize) -> usize {
    nb.next_multiple_of(lanes(isa))
}

/// Clear columns `[nb, ld)` of the first `kc` panel rows: the scratch is
/// reused, and stale floats there could be denormal or NaN.
fn zero_pad(panel: &mut [f32], ld: usize, kc: usize, nb: usize) {
    if ld > nb {
        for row in panel[..kc * ld].chunks_exact_mut(ld) {
            row[nb..].fill(0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical scalar kernels — the accumulation-order reference
// ---------------------------------------------------------------------------
//
// These define the exact floating-point behaviour every SIMD kernel must
// reproduce: each output row is cleared, then accumulated into. Note there is
// deliberately *no* `a == 0.0` skip: skipping a zero multiplier would drop
// `0.0 * inf = NaN` / `0.0 * NaN` propagation (and can flip signed zeros),
// silently breaking the "bit-identical to naive" contract when an operand
// holds non-finite values.

#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
fn matmul_band_scalar(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    [a_rs, b_rs, c_rs]: [usize; 3],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    for i in 0..rows_here {
        let a_row = &a[(start + i) * a_rs..][..k];
        let out_row = &mut out_band[i * c_rs..][..n];
        out_row.fill(0.0);
        // Unroll the reduction by 2: each element still receives its two
        // products as separate sequential adds, preserving the order.
        let mut kk = 0;
        while kk + 2 <= k {
            let (a0, a1) = (a_row[kk], a_row[kk + 1]);
            let b0 = &b[kk * b_rs..][..n];
            let b1 = &b[(kk + 1) * b_rs..][..n];
            for ((o, &v0), &v1) in out_row.iter_mut().zip(b0).zip(b1) {
                *o += a0 * v0;
                *o += a1 * v1;
            }
            kk += 2;
        }
        if kk < k {
            let a0 = a_row[kk];
            let b0 = &b[kk * b_rs..][..n];
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
    [a_rs, b_rs, c_rs]: [usize; 3],
    m: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    for r in 0..rows_here {
        out_band[r * c_rs..][..n].fill(0.0);
    }
    for i in 0..m {
        let a_row = &a[i * a_rs + start..][..rows_here];
        let b_row = &b[i * b_rs..][..n];
        for (r, &v) in a_row.iter().enumerate() {
            let out_row = &mut out_band[r * c_rs..][..n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += v * bv;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // band geometry: two operands + split
fn a_bt_band_scalar(
    a: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    [a_rs, b_rs, c_rs]: [usize; 3],
    k: usize,
    n: usize,
    start: usize,
    rows_here: usize,
) {
    for i in 0..rows_here {
        let a_row = &a[(start + i) * a_rs..][..k];
        let out_row = &mut out_band[i * c_rs..][..n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * b_rs..][..k];
            // Single sequential accumulator from `+0.0`: the same chain the
            // packed SIMD path replays column-wise.
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
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
    /// The first block of the reduction: accumulators start at `+0.0` and
    /// `out` is written without being read. Later blocks resume from it.
    fresh: bool,
}

/// Dispatch one `mr × nb` tile over the packed panel (`kc` rows of `ld`
/// floats, zero past column `nb`) to the ISA kernel.
///
/// # Safety
/// `p.alpha` must be readable at `r*a_rs + c*a_cs` and `p.out`
/// readable+writable at `r*out_rs + j` for all `r < mr`, `c < kc`, `j < nb`;
/// `bp` must hold `kc * ld` floats with `ld` a lane multiple `>= nb`; the
/// selected ISA must be supported by the running CPU (guaranteed by
/// [`active_isa`]'s feature detection).
unsafe fn tile(isa: Isa, p: Panel, bp: *const f32, ld: usize, kc: usize, nb: usize, mr: usize) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            if mr == MR {
                mk4_avx2(p, bp, ld, kc, nb);
            } else {
                for r in 0..mr {
                    mk1_avx2(row_panel(p, r), bp, ld, kc, nb);
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => {
            if mr == MR {
                mk4_neon(p, bp, ld, kc, nb);
            } else {
                for r in 0..mr {
                    mk1_neon(row_panel(p, r), bp, ld, kc, nb);
                }
            }
        }
        _ => {
            let _ = (p, bp, ld, kc, nb, mr); // arch without a SIMD arm
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
/// NEON only: the AVX2 tile finishes its row with a masked vector.
///
/// # Safety
/// Same bounds contract as [`tile`], restricted to columns `[j0, nb)`.
#[cfg(target_arch = "aarch64")]
#[inline(always)]
unsafe fn tail_cols(
    p: Panel,
    bp: *const f32,
    ld: usize,
    kc: usize,
    nb: usize,
    rows: usize,
    j0: usize,
) {
    for r in 0..rows {
        for j in j0..nb {
            let o = p.out.add(r * p.out_rs + j);
            let mut v = if p.fresh { 0.0 } else { *o };
            for c in 0..kc {
                v += *p.alpha.add(r * p.a_rs + c * p.a_cs) * *bp.add(c * ld + j);
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
        unsafe fn $name(p: Panel, bp: *const f32, ld: usize, kc: usize, nb: usize) {
            use std::arch::x86_64::*;
            let mut j = 0usize;
            // 16-wide tiles: 2 vectors × $R rows of accumulators.
            while j + 2 * 8 <= nb {
                let mut acc = [[_mm256_setzero_ps(); 2]; $R];
                if !p.fresh {
                    for r in 0..$R {
                        acc[r][0] = _mm256_loadu_ps(p.out.add(r * p.out_rs + j));
                        acc[r][1] = _mm256_loadu_ps(p.out.add(r * p.out_rs + j + 8));
                    }
                }
                for c in 0..kc {
                    let b0 = _mm256_loadu_ps(bp.add(c * ld + j));
                    let b1 = _mm256_loadu_ps(bp.add(c * ld + j + 8));
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
            // What is left of the row, one vector at a time: a whole one
            // and / or a last partial one. The panel is padded, so only `C`
            // is touched under the mask (its first `nb - j` lanes), and the
            // live lanes do exactly what a full vector's do.
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            while j < nb {
                let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((nb - j).min(8) as i32), lane);
                let mut acc = [_mm256_setzero_ps(); $R];
                if !p.fresh {
                    for r in 0..$R {
                        acc[r] = _mm256_maskload_ps(p.out.add(r * p.out_rs + j), live);
                    }
                }
                for c in 0..kc {
                    let b0 = _mm256_loadu_ps(bp.add(c * ld + j));
                    for r in 0..$R {
                        let al = _mm256_set1_ps(*p.alpha.add(r * p.a_rs + c * p.a_cs));
                        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(al, b0));
                    }
                }
                for r in 0..$R {
                    _mm256_maskstore_ps(p.out.add(r * p.out_rs + j), live, acc[r]);
                }
                j += 8;
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
        unsafe fn $name(p: Panel, bp: *const f32, ld: usize, kc: usize, nb: usize) {
            use std::arch::aarch64::*;
            let mut j = 0usize;
            // 16-wide tiles: 4 vectors × $R rows of accumulators.
            while j + 4 * 4 <= nb {
                let mut acc = [[vdupq_n_f32(0.0); 4]; $R];
                if !p.fresh {
                    for r in 0..$R {
                        for v in 0..4 {
                            acc[r][v] = vld1q_f32(p.out.add(r * p.out_rs + j + 4 * v));
                        }
                    }
                }
                for c in 0..kc {
                    let mut bv = [vdupq_n_f32(0.0); 4];
                    for (v, bvv) in bv.iter_mut().enumerate() {
                        *bvv = vld1q_f32(bp.add(c * ld + j + 4 * v));
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
                if !p.fresh {
                    for r in 0..$R {
                        acc[r] = vld1q_f32(p.out.add(r * p.out_rs + j));
                    }
                }
                for c in 0..kc {
                    let b0 = vld1q_f32(bp.add(c * ld + j));
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
                tail_cols(p, bp, ld, kc, nb, $R, j);
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
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    /// Run `f` with dispatch forced to `mode`, restoring `Env` even on
    /// panic. Tests in one process share the override, so they take turns:
    /// a comparison of two modes then really ran both.
    fn with_override<T>(mode: SimdOverride, f: impl FnOnce() -> T) -> T {
        static TURN: Mutex<()> = Mutex::new(());
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_simd_override(SimdOverride::Env);
            }
        }
        let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let _g = Restore;
        set_simd_override(mode);
        f()
    }

    const MODES: [SimdOverride; 2] = [SimdOverride::ForceScalar, SimdOverride::ForceDetect];

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
                    matmul_band(&a, &b, &mut mm, [k, n, n], k, n, 0, m);
                    let mut ab = vec![0.0f32; m * n];
                    a_bt_band(&a, &bt, &mut ab, [k, k, n], k, n, 0, m);
                    let mut atb = vec![0.0f32; k * n];
                    at_b_band(&a, &b2, &mut atb, [k, n, n], m, n, 0, k);
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
            matmul_band(&a, &b, &mut full, [k, n, n], k, n, 0, m);
            let mut banded = vec![0.0f32; m * n];
            let mut start = 0;
            for band in [5usize, 13, 19] {
                matmul_band(
                    &a,
                    &b,
                    &mut banded[start * n..(start + band) * n],
                    [k, n, n],
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

    /// The three kernels as one: `m` output rows, a reduction of `k`, `n`
    /// output columns.
    #[derive(Debug, Clone, Copy)]
    enum Kernel {
        Matmul,
        AtB,
        ABt,
    }
    use Kernel::*;

    impl Kernel {
        /// `(rows, cols)` of `A`, `B` and `C`.
        fn shapes(self, (m, k, n): (usize, usize, usize)) -> [(usize, usize); 3] {
            match self {
                Matmul => [(m, k), (k, n), (m, n)],
                AtB => [(k, m), (k, n), (m, n)],
                ABt => [(m, k), (n, k), (m, n)],
            }
        }

        /// Output rows `[start, start + rows)` into `c`, which begins there.
        #[allow(clippy::too_many_arguments)]
        fn band(
            self,
            a: &[f32],
            b: &[f32],
            c: &mut [f32],
            rs: [usize; 3],
            (_, k, n): (usize, usize, usize),
            start: usize,
            rows: usize,
        ) {
            match self {
                Matmul => matmul_band(a, b, c, rs, k, n, start, rows),
                AtB => at_b_band(a, b, c, rs, k, n, start, rows),
                ABt => a_bt_band(a, b, c, rs, k, n, start, rows),
            }
        }

        /// The whole product of dense operands into `c`.
        fn dense(self, a: &[f32], b: &[f32], c: &mut [f32], size: (usize, usize, usize)) {
            let rs = self.shapes(size).map(|(_, cols)| cols);
            self.band(a, b, c, rs, size, 0, size.0);
        }
    }

    /// The defect `C += A·B` carried: into a buffer that was not zero the
    /// scalar `a_bt` added a finished dot product where the SIMD arm resumed
    /// the chain, so the arms disagreed. `C = A·B` has no such case: garbage
    /// in the output changes nothing, in either arm, for any kernel — across
    /// two reduction blocks (`k = 300`) and a masked tail (`n = 13`, `129`).
    #[test]
    fn output_is_overwritten_not_accumulated_into() {
        for kernel in [Matmul, AtB, ABt] {
            for size in [(8, 32, 129), (5, 300, 13), (3, 7, 15), (2, 0, 9)] {
                let [a, b, c] = kernel.shapes(size).map(|(rows, cols)| rows * cols);
                let (a, b) = (fill(a, 3), fill(b, 4));
                let into = |mode, mut out: Vec<f32>| {
                    with_override(mode, || kernel.dense(&a, &b, &mut out, size));
                    bits(&out)
                };
                let want = into(SimdOverride::ForceScalar, vec![0.0; c]);
                for mode in MODES {
                    assert_eq!(
                        into(mode, vec![0.0; c]),
                        want,
                        "{kernel:?} {size:?} {mode:?}"
                    );
                    let garbage = fill(c, 5).iter().map(|v| v * 1e30 - 7.0).collect();
                    assert_eq!(into(mode, garbage), want, "{kernel:?} {size:?} {mode:?}");
                    assert_eq!(into(mode, vec![f32::NAN; c]), want, "{kernel:?} {size:?}");
                }
            }
        }
    }

    /// A `rows × cols` block at `(r0, c0)` of a larger row-major matrix.
    struct Block {
        rs: usize,
        at: (usize, usize),
        shape: (usize, usize),
    }

    impl Block {
        /// `shape` set `at` rows and columns into a matrix that much larger
        /// again on the far sides.
        fn inside(shape: (usize, usize), at: (usize, usize)) -> Block {
            let rs = shape.1 + 2 * at.1 + 1;
            Block { rs, at, shape }
        }

        /// Elements of the enclosing matrix.
        fn matrix_len(&self) -> usize {
            (self.shape.0 + 2 * self.at.0 + 1) * self.rs
        }

        /// Where the block starts in the enclosing matrix.
        fn offset(&self) -> usize {
            self.at.0 * self.rs + self.at.1
        }

        fn holds(&self, i: usize) -> bool {
            let (r, c) = (i / self.rs, i % self.rs);
            (self.at.0..self.at.0 + self.shape.0).contains(&r)
                && (self.at.1..self.at.1 + self.shape.1).contains(&c)
        }

        /// A dense copy of the block out of `matrix`.
        fn copy_of(&self, matrix: &[f32]) -> Vec<f32> {
            let inside = (0..matrix.len()).filter(|&i| self.holds(i));
            inside.map(|i| matrix[i]).collect()
        }
    }

    /// Operands read and written where they lie: a block of a larger matrix
    /// through its stride equals the dense call on a copy of the block, for
    /// every width of the row's last vector, in both arms, in one band or
    /// two — and nothing outside the output block is written.
    #[test]
    fn a_block_of_a_larger_matrix_equals_the_dense_call_on_a_copy() {
        const UNTOUCHED: f32 = -77.25;
        for kernel in [Matmul, AtB, ABt] {
            for n in (1..=17).chain([77, 129]) {
                let size = (9, 70, n);
                let [a_shape, b_shape, c_shape] = kernel.shapes(size);
                let (a, b) = (
                    Block::inside(a_shape, (1, 2)),
                    Block::inside(b_shape, (2, 0)),
                );
                let c = Block::inside(c_shape, (3, 5));
                let rs = [a.rs, b.rs, c.rs];
                let (a_matrix, b_matrix) = (fill(a.matrix_len(), 11), fill(b.matrix_len(), 12));
                let mut want = vec![0.0; c_shape.0 * n];
                with_override(SimdOverride::ForceScalar, || {
                    let (a, b) = (a.copy_of(&a_matrix), b.copy_of(&b_matrix));
                    kernel.dense(&a, &b, &mut want, size);
                });
                for mode in MODES {
                    for split in [0, 4] {
                        let mut c_matrix = vec![UNTOUCHED; c.matrix_len()];
                        let (a_view, b_view) = (&a_matrix[a.offset()..], &b_matrix[b.offset()..]);
                        with_override(mode, || {
                            for (start, rows) in [(0, split), (split, size.0 - split)] {
                                let c_view = &mut c_matrix[c.offset() + start * c.rs..];
                                kernel.band(a_view, b_view, c_view, rs, size, start, rows);
                            }
                        });
                        let what = format!("{kernel:?} n={n} {mode:?} split at {split}");
                        assert_eq!(bits(&c.copy_of(&c_matrix)), bits(&want), "{what}");
                        let outside = (0..c_matrix.len()).filter(|&i| !c.holds(i));
                        for i in outside {
                            assert_eq!(c_matrix[i], UNTOUCHED, "{what}: wrote element {i}");
                        }
                    }
                }
            }
        }
    }

    /// Each kernel checks its three slices on entry: one element short of the
    /// view's last is a panic, raised before anything is written.
    #[test]
    fn a_slice_one_element_short_panics_at_the_entry_assert() {
        const UNTOUCHED: f32 = 0.5;
        let size = (8, 32, 24);
        for kernel in [Matmul, AtB, ABt] {
            let shapes = kernel.shapes(size);
            let rs = shapes.map(|(_, cols)| cols + 2);
            let lens = [0, 1, 2].map(|i| (shapes[i].0 - 1) * rs[i] + shapes[i].1);
            for mode in MODES {
                for short in [None, Some(0), Some(1), Some(2)] {
                    let mut lens = lens;
                    if let Some(i) = short {
                        lens[i] -= 1;
                    }
                    let (a, b) = (fill(lens[0], 1), fill(lens[1], 2));
                    let mut c = vec![UNTOUCHED; lens[2]];
                    let run = AssertUnwindSafe(|| kernel.band(&a, &b, &mut c, rs, size, 0, size.0));
                    let outcome = with_override(mode, || catch_unwind(run));
                    let what = format!("{kernel:?} {mode:?}, operand {short:?} short");
                    assert_eq!(outcome.is_err(), short.is_some(), "{what}");
                    if short.is_some() {
                        assert!(
                            c.iter().all(|&v| v == UNTOUCHED),
                            "{what}: wrote before panicking"
                        );
                    }
                }
            }
        }
    }

    /// A zero multiplier against inf/NaN must propagate NaN (no zero-skip)
    /// in both dispatch arms.
    #[test]
    fn zero_times_nonfinite_propagates() {
        for mode in MODES {
            with_override(mode, || {
                // out = [0, 1] × [inf; 2] → 0*inf + 1*2 = NaN.
                let mut out = vec![0.0f32; 1];
                matmul_band(
                    &[0.0, 1.0],
                    &[f32::INFINITY, 2.0],
                    &mut out,
                    [2, 1, 1],
                    2,
                    1,
                    0,
                    1,
                );
                assert!(out[0].is_nan(), "matmul dropped 0*inf ({mode:?})");

                let mut out = vec![0.0f32; 1];
                a_bt_band(
                    &[0.0, 1.0],
                    &[f32::NAN, 2.0],
                    &mut out,
                    [2, 2, 1],
                    2,
                    1,
                    0,
                    1,
                );
                assert!(out[0].is_nan(), "a_bt dropped 0*NaN ({mode:?})");

                // Aᵀ: a = [0; 1] (column), b rows [inf], [2].
                let mut out = vec![0.0f32; 1];
                at_b_band(
                    &[0.0, 1.0],
                    &[f32::INFINITY, 2.0],
                    &mut out,
                    [1, 1, 1],
                    2,
                    1,
                    0,
                    1,
                );
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
