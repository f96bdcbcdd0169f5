//! Property-based tests over the learning stack: metrics, serialization
//! stability, and optimizer behaviour on random problems.

use std::collections::BTreeSet;

use pythia::core::metrics::{f1_score, ObjPage};
use pythia::db::catalog::ObjectId;
use pythia::nn::tape::{bce_with_logits_over, Gradients, ParamSet, Tape, Var};
use pythia::nn::{Adam, Tensor};
use pythia::sim::rng::{cases, Rng};

fn page_set(pages: &[u8]) -> BTreeSet<ObjPage> {
    pages.iter().map(|&p| (ObjectId(0), p as u32)).collect()
}

/// `0..30` pages drawn from `0..40`.
fn pages(rng: &mut Rng) -> Vec<u8> {
    let n = rng.gen_range(0..30);
    (0..n).map(|_| rng.gen_range(0..40)).collect()
}

/// The mean BCE of `logits` against `targets`, as one pass over all of their
/// rows.
fn bce(tape: &mut Tape, logits: Var, targets: Tensor) -> Var {
    let rows = tape.value(logits).rows();
    bce_with_logits_over(tape, logits, targets, 1.0, rows, &mut 0.0)
}

/// Maximum absolute difference between two tensors of one shape.
fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape());
    let pairs = a.as_slice().iter().zip(b.as_slice());
    pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Twelve values in `-2..2`.
fn values(rng: &mut Rng) -> Vec<f32> {
    (0..12).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

fn f1_holds(a: &[u8], b: &[u8]) {
    let sa = page_set(a);
    let sb = page_set(b);
    let m_ab = f1_score(&sa, &sb);
    let m_ba = f1_score(&sb, &sa);
    assert!((0.0..=1.0).contains(&m_ab.f1));
    assert!((m_ab.f1 - m_ba.f1).abs() < 1e-12, "F1 symmetric");
    assert_eq!(m_ab.f1 == 1.0, sa == sb);
    // Precision/recall bounds.
    assert!((0.0..=1.0).contains(&m_ab.precision));
    assert!((0.0..=1.0).contains(&m_ab.recall));
    // F1 is the harmonic mean: bounded by min and max of its components.
    if !sa.is_empty() && !sb.is_empty() {
        let lo = m_ab.precision.min(m_ab.recall);
        let hi = m_ab.precision.max(m_ab.recall);
        assert!(m_ab.f1 >= lo - 1e-12 && m_ab.f1 <= hi + 1e-12);
    }
}

/// F1 is symmetric, bounded, and 1 iff the sets are equal.
#[test]
fn f1_properties() {
    // A case that once failed: one set inside the other.
    f1_holds(&[3], &[3, 4]);
    cases(128, |rng| {
        let a = pages(rng);
        let b = pages(rng);
        f1_holds(&a, &b);
    });
}

/// BCE-with-logits is non-negative and zero only in the saturated limit;
/// its gradient always points toward the target.
#[test]
fn bce_gradient_sign() {
    cases(128, |rng| {
        let z = rng.gen_range(-5.0f32..5.0);
        let t = rng.gen_range(0..=1) == 1;
        let target = if t { 1.0f32 } else { 0.0 };
        let mut tape = Tape::default();
        let logit = tape.leaf(Tensor::full(1, 1, z));
        let loss = bce(&mut tape, logit, Tensor::full(1, 1, target));
        assert!(tape.value(loss).get(0, 0) >= 0.0);
        let grads = tape.backward_into(loss, Gradients::default());
        let g = grads.get(logit).get(0, 0);
        // Gradient sign: positive target wants the logit to grow (negative
        // gradient), zero target wants it to shrink.
        if target == 1.0 {
            assert!(g <= 0.0, "grad {g} for positive target");
        } else {
            assert!(g >= 0.0, "grad {g} for negative target");
        }
    });
}

/// Adam monotonically drives a separable random multi-label problem's
/// loss down over training.
#[test]
fn adam_reduces_loss() {
    cases(128, |rng| {
        let n = rng.gen_range(1..8);
        let tvec: Vec<f32> = (0..n).map(|_| rng.gen_range(0..=1) as f32).collect();
        let tgt = Tensor::from_vec(1, n, tvec);
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::zeros(1, n));
        let mut adam = Adam::new(&params, 0.05);
        let loss_at = |params: &ParamSet| {
            let mut tape = Tape::default();
            let vars = params.lend(&mut tape);
            let loss = bce(&mut tape, vars[w.0], tgt.clone());
            tape.value(loss).get(0, 0)
        };
        let start = loss_at(&params);
        for _ in 0..50 {
            // Step once the tape that borrows the parameters is gone.
            let (vars, grads) = {
                let mut tape = Tape::default();
                let vars = params.lend(&mut tape);
                let loss = bce(&mut tape, vars[w.0], tgt.clone());
                (vars, tape.backward_into(loss, Gradients::default()))
            };
            adam.step(&mut params, &vars, &grads);
        }
        let end = loss_at(&params);
        assert!(end < start, "loss did not decrease: {start} -> {end}");
    });
}

/// Tensor matmul is associative with the identity and distributes over
/// addition (within float tolerance).
#[test]
fn tensor_algebra() {
    cases(128, |rng| {
        let a = Tensor::from_vec(3, 4, values(rng));
        let b = Tensor::from_vec(4, 3, values(rng));
        let c = Tensor::from_vec(4, 3, values(rng));
        // A(B + C) == AB + AC.
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert!(max_abs_diff(&left, &right) < 1e-4);
        // (A B)^T == B^T A^T.
        let t1 = a.matmul(&b).transpose();
        let t2 = b.transpose().matmul(&a.transpose());
        assert!(max_abs_diff(&t1, &t2) < 1e-4);
    });
}
