//! The optimizer: Adam, the paper's choice.

use crate::tape::{Gradients, ParamSet, Var};
use crate::tensor::Tensor;

/// Adam with bias correction (Kingma & Ba 2015), operating on a [`ParamSet`].
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the given learning rate and default betas (0.9, 0.999).
    pub fn new(params: &ParamSet, lr: f32) -> Self {
        let shapes: Vec<Tensor> = params
            .iter()
            .map(|(_, t)| Tensor::zeros(t.rows(), t.cols()))
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: shapes.clone(),
            v: shapes,
        }
    }

    /// Apply one update. `param_vars[i]` must be the tape var that
    /// `ParamId(i)` was lent as (i.e. the output of [`ParamSet::lend`]),
    /// on a tape that is gone by now. Parameters whose gradient is absent
    /// (not on the loss path this step) are left unchanged.
    #[allow(clippy::needless_range_loop)] // parallel arrays indexed together
    pub fn step(&mut self, params: &mut ParamSet, param_vars: &[Var], grads: &Gradients) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let Some(g) = grads.try_get(param_vars[i]) else {
                continue;
            };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let p = params.get_mut(crate::tape::ParamId(i));
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            for ((pv, gv), (mv, vv)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                *mv = b1 * *mv + (1.0 - b1) * gv;
                *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

/// Global L2 norm of the gradients that reached `vars` — the scalar the
/// training-telemetry epoch records carry. Accumulates in `f64` so tiny
/// per-element squares don't vanish. Not on any hot path: the classifier
/// only calls it when telemetry capture is enabled.
pub fn grad_l2_norm(grads: &Gradients, vars: &[Var]) -> f32 {
    let mut sq = 0.0f64;
    for &v in vars {
        if let Some(g) = grads.try_get(v) {
            for &x in g.as_slice() {
                sq += (x as f64) * (x as f64);
            }
        }
    }
    sq.sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::tests::{backward, bce};
    use crate::tape::{ParamId, Tape};

    /// One step's gradients of BCE of the parameter `w` against `targets`,
    /// on a tape that borrows `params` and is gone when this returns.
    fn grads_toward(params: &ParamSet, w: ParamId, targets: &Tensor) -> (Vec<Var>, Gradients) {
        let mut tape = Tape::default();
        let vars = params.lend(&mut tape);
        let loss = bce(&mut tape, vars[w.0], targets.clone(), 1.0);
        let grads = backward(&mut tape, loss);
        (vars, grads)
    }

    #[test]
    fn adam_minimizes() {
        // Minimize BCE of a single logit toward target 1: the logit must grow.
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::full(1, 1, 0.0));
        let mut adam = Adam::new(&params, 0.1);
        for _ in 0..200 {
            let (vars, grads) = grads_toward(&params, w, &Tensor::full(1, 1, 1.0));
            adam.step(&mut params, &vars, &grads);
        }
        assert!(params.get(w).get(0, 0) > 3.0);
        assert_eq!(adam.t, 200);
    }

    #[test]
    fn adam_skips_params_without_grad() {
        let mut params = ParamSet::new();
        let used = params.add("used", Tensor::full(1, 1, 0.0));
        let unused = params.add("unused", Tensor::full(1, 1, 5.0));
        let mut adam = Adam::new(&params, 0.1);
        let (vars, grads) = grads_toward(&params, used, &Tensor::full(1, 1, 1.0));
        adam.step(&mut params, &vars, &grads);
        assert_eq!(params.get(unused).get(0, 0), 5.0);
        assert_ne!(params.get(used).get(0, 0), 0.0);
    }

    #[test]
    fn grad_l2_norm_matches_hand_computation() {
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::zeros(1, 2));
        let unused = params.add("unused", Tensor::zeros(1, 3));
        // BCE-with-logits at logit 0 / target 1 has gradient sigmoid(0)-1 =
        // -0.5 per element (mean-reduced over the 2 elements → -0.25 each).
        let (vars, grads) = grads_toward(&params, w, &Tensor::full(1, 2, 1.0));
        let norm = grad_l2_norm(&grads, &vars);
        let per_elem = 0.25f32;
        let expected = (2.0 * per_elem * per_elem).sqrt();
        assert!(
            (norm - expected).abs() < 1e-5,
            "norm {norm} vs expected {expected}"
        );
        // The unused parameter has no gradient and contributes nothing.
        assert_eq!(grad_l2_norm(&grads, &[vars[unused.0]]), 0.0);
    }

    #[test]
    fn quadratic_convergence_multi_dim() {
        // Minimize BCE over a 4-logit row with mixed targets; each logit
        // should move toward the sign of its target.
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::zeros(1, 4));
        let targets = Tensor::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.0]);
        let mut adam = Adam::new(&params, 0.05);
        for _ in 0..500 {
            let (vars, grads) = grads_toward(&params, w, &targets);
            adam.step(&mut params, &vars, &grads);
        }
        let t = params.get(w);
        assert!(t.get(0, 0) > 1.0 && t.get(0, 2) > 1.0);
        assert!(t.get(0, 1) < -1.0 && t.get(0, 3) < -1.0);
    }
}
