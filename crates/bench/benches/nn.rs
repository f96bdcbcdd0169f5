//! Neural-substrate micro-benchmarks: the GEMM kernels (all three variants,
//! scalar vs dispatched SIMD), a fused Linear forward, a transformer encoder
//! forward pass (paper dimensions: 100-d, 10 heads, 2 layers), and a full
//! training step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pythia_nn::init::Initializer;
use pythia_nn::kernels::{detected_isa_label, set_simd_override, SimdOverride};
use pythia_nn::layers::{Linear, TransformerEncoder};
use pythia_nn::tape::{bce_with_logits, ParamSet, Tape};
use pythia_nn::{Adam, Tensor};

fn matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn/matmul");
    for &n in &[64usize, 128, 256] {
        let a = Initializer::new(1).uniform(n, n, 1.0);
        let b = Initializer::new(2).uniform(n, n, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b)))
        });
    }
    // The decoder's dominant shape: [batch, hidden] x [hidden, pages].
    let a = Initializer::new(3).uniform(32, 800, 1.0);
    let b = Initializer::new(4).uniform(800, 2000, 1.0);
    group.bench_function("decoder_32x800x2000", |bch| {
        bch.iter(|| black_box(a.matmul(&b)))
    });
    group.finish();
}

/// All three GEMM variants plus the fused Linear forward at the real
/// classifier shapes, each under forced-scalar and dispatched SIMD so the
/// per-variant kernel win is visible in one report. The dispatched ISA is
/// embedded in the bench id (`dispatched_avx2+fma`, ...) so runs on
/// different hardware stay distinguishable.
fn kernel_variants(c: &mut Criterion) {
    /// Runs `f` once per iteration under both dispatch arms.
    fn both(
        group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
        name: &str,
        f: impl Fn() -> Tensor,
    ) {
        for (arm, mode) in [
            ("scalar", SimdOverride::ForceScalar),
            (detected_isa_label(), SimdOverride::ForceDetect),
        ] {
            group.bench_function(format!("{name}/{arm}"), |bch| {
                set_simd_override(mode);
                bch.iter(|| black_box(f()));
                set_simd_override(SimdOverride::Env);
            });
        }
    }

    let mut group = c.benchmark_group("nn/kernel");
    // Forward decoder: [batch, hidden] x [hidden, pages].
    let x = Initializer::new(11).uniform(32, 800, 1.0);
    let w = Initializer::new(12).uniform(800, 2000, 1.0);
    let bias = Initializer::new(13).uniform(1, 2000, 1.0);
    // Backward weight grad: Xᵀ·G = [32,800]ᵀ x [32,2000].
    let g = Initializer::new(14).uniform(32, 2000, 1.0);
    // Backward input grad: G·Wᵀ = [32,2000] x [800,2000]ᵀ.
    both(&mut group, "matmul_32x800x2000", || x.matmul(&w));
    both(&mut group, "at_b_32x800x2000", || x.matmul_at_b(&g));
    both(&mut group, "a_bt_32x2000x800", || g.matmul_a_bt(&w));
    both(&mut group, "linear_fwd_32x800x2000", || {
        x.matmul_bias(&w, &bias)
    });
    group.finish();
}

fn paper_model() -> (ParamSet, TransformerEncoder, Linear, Linear) {
    let mut params = ParamSet::new();
    let mut init = Initializer::new(7);
    let enc = TransformerEncoder::new(&mut params, &mut init, "enc", 800, 100, 10, 256, 2, 128);
    let fc1 = Linear::new(&mut params, &mut init, "fc1", 100, 800);
    let fc2 = Linear::new(&mut params, &mut init, "fc2", 800, 2000);
    (params, enc, fc1, fc2)
}

fn encoder_forward(c: &mut Criterion) {
    let (params, enc, _, _) = paper_model();
    let seq: Vec<usize> = (0..80).map(|i| 2 + i % 700).collect();
    c.bench_function("nn/encode_one_plan_paper_dims", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let vars = params.inject(&mut tape);
            black_box(enc.encode(&mut tape, &vars, &seq, 1));
        })
    });
}

fn training_step(c: &mut Criterion) {
    let (mut params, enc, fc1, fc2) = paper_model();
    let seqs: Vec<Vec<usize>> = (0..32)
        .map(|s| (0..60).map(|i| 2 + (s * 31 + i * 7) % 700).collect())
        .collect();
    let targets = Tensor::from_fn(32, 2000, |r, c| {
        if (r * 97 + c).is_multiple_of(200) {
            1.0
        } else {
            0.0
        }
    });
    let mut adam = Adam::new(&params, 1e-3);
    c.bench_function("nn/train_step_batch32_paper_dims", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let vars = params.inject(&mut tape);
            let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
            let reps = enc.encode_batch(&mut tape, &vars, &refs, 1);
            let h = fc1.forward(&mut tape, &vars, reps);
            let h = tape.relu(h);
            let logits = fc2.forward(&mut tape, &vars, h);
            let loss = bce_with_logits(&mut tape, logits, targets.clone(), 2.0);
            let grads = tape.backward(loss);
            adam.step(&mut params, &vars, &grads);
            black_box(tape.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = matmul, kernel_variants, encoder_forward, training_step
}
criterion_main!(benches);
