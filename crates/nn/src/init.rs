//! Weight initialization.

use crate::rng::Rng;

use crate::tensor::Tensor;

/// A deterministic initializer (all experiments are seed-reproducible).
pub struct Initializer {
    rng: Rng,
}

impl Initializer {
    /// Seeded initializer.
    pub fn new(seed: u64) -> Self {
        Initializer {
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// Uniform in `[-a, a]`.
    pub(crate) fn uniform(&mut self, rows: usize, cols: usize, a: f32) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        for v in t.as_mut_slice() {
            *v = self.rng.gen_range(-a..=a);
        }
        t
    }

    /// Xavier/Glorot uniform for a `[fan_in, fan_out]` weight.
    pub(crate) fn xavier(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.uniform(fan_in, fan_out, a)
    }

    /// Normal(0, std) — embedding tables.
    pub(crate) fn normal(&mut self, rows: usize, cols: usize, std: f32) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        for v in t.as_mut_slice() {
            // Box-Muller.
            let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = self.rng.gen_range(0.0..1.0);
            *v = std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        }
        t
    }
}

/// Sinusoidal positional encodings (`[max_len, dim]`), as in "Attention Is
/// All You Need" — the paper appends "sequence information" to the embedded
/// tokens before the transformer encoder.
pub(crate) fn positional_encoding(max_len: usize, dim: usize) -> Tensor {
    Tensor::from_fn(max_len, dim, |pos, i| {
        let exponent = (2 * (i / 2)) as f32 / dim as f32;
        let angle = pos as f32 / 10_000f32.powf(exponent);
        if i % 2 == 0 {
            angle.sin()
        } else {
            angle.cos()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = Initializer::new(7).xavier(4, 4);
        let b = Initializer::new(7).xavier(4, 4);
        assert_eq!(a, b);
        let c = Initializer::new(8).xavier(4, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_bounds() {
        let t = Initializer::new(1).xavier(100, 100);
        let bound = (6.0f32 / 200.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
        // Not degenerate.
        assert!(t.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn normal_has_roughly_right_std() {
        let t = Initializer::new(3).normal(100, 100, 0.5);
        let n = t.len() as f32;
        let mean = t.as_slice().iter().sum::<f32>() / n;
        let var = t
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / n;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn positional_encoding_properties() {
        let pe = positional_encoding(32, 10);
        assert_eq!(pe.shape(), (32, 10));
        // Row 0: sin(0)=0 at even dims, cos(0)=1 at odd dims.
        for c in 0..10 {
            let expect = if c % 2 == 0 { 0.0 } else { 1.0 };
            assert!((pe.get(0, c) - expect).abs() < 1e-6);
        }
        // Distinct positions get distinct encodings.
        assert!(pe.row(1) != pe.row(2));
        // Bounded.
        assert!(pe.as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }
}
