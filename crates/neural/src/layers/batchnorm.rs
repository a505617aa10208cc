//! Batch normalization (the paper's CNN2 inserts one before each
//! activation to keep SLAF inputs inside the approximated interval).
//!
//! Works on 4-D NCHW inputs (per-channel statistics over N×H×W) and 2-D
//! `[n, features]` inputs (per-feature statistics). At inference the
//! running statistics are used, which lets the HE engine *fold* the
//! normalization into the preceding linear layer (an affine map per
//! channel).

use super::{Layer, Param};
use crate::tensor::Tensor;

/// Batch normalization with learnable scale `γ` and shift `β`.
pub struct BatchNorm {
    pub features: usize,
    pub eps: f32,
    pub momentum: f32,
    pub gamma: Param,
    pub beta: Param,
    pub running_mean: Tensor,
    pub running_var: Tensor,
    // training-time caches
    cache: Option<BnCache>,
}

struct BnCache {
    x_hat: Tensor,
    batch_var: Vec<f32>,
    batch_mean: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm {
    pub fn new(features: usize) -> Self {
        Self {
            features,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::full(&[features], 1.0)),
            beta: Param::new(Tensor::zeros(&[features])),
            running_mean: Tensor::zeros(&[features]),
            running_var: Tensor::full(&[features], 1.0),
            cache: None,
        }
    }

    /// Per-feature element count and an indexer: maps flat index → feature.
    fn feature_of(shape: &[usize], idx: usize) -> usize {
        match shape.len() {
            2 => idx % shape[1],
            4 => (idx / (shape[2] * shape[3])) % shape[1],
            _ => panic!("BatchNorm supports 2-D and 4-D inputs"),
        }
    }

    /// The inference-time affine form: `y = a_c·x + b_c` with
    /// `a_c = γ_c/√(σ²_c+ε)`, `b_c = β_c − a_c·μ_c`. The HE engine uses
    /// these to fold BN into convolution weights.
    pub fn affine_params(&self) -> (Vec<f32>, Vec<f32>) {
        let mut a = Vec::with_capacity(self.features);
        let mut b = Vec::with_capacity(self.features);
        for c in 0..self.features {
            let scale = self.gamma.value.data()[c] / (self.running_var.data()[c] + self.eps).sqrt();
            a.push(scale);
            b.push(self.beta.value.data()[c] - scale * self.running_mean.data()[c]);
        }
        (a, b)
    }
}

impl Layer for BatchNorm {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let shape = x.shape().to_vec();
        let f = self.features;
        let count_per_feature = x.numel() / f;
        let mut out = Tensor::zeros(&shape);

        if train {
            // batch statistics
            let mut mean = vec![0.0f32; f];
            let mut var = vec![0.0f32; f];
            for (i, &v) in x.data().iter().enumerate() {
                mean[Self::feature_of(&shape, i)] += v;
            }
            for m in mean.iter_mut() {
                *m /= count_per_feature as f32;
            }
            for (i, &v) in x.data().iter().enumerate() {
                let c = Self::feature_of(&shape, i);
                var[c] += (v - mean[c]) * (v - mean[c]);
            }
            for v in var.iter_mut() {
                *v /= count_per_feature as f32;
            }
            // update running stats
            for c in 0..f {
                self.running_mean.data_mut()[c] =
                    (1.0 - self.momentum) * self.running_mean.data()[c] + self.momentum * mean[c];
                self.running_var.data_mut()[c] =
                    (1.0 - self.momentum) * self.running_var.data()[c] + self.momentum * var[c];
            }
            let mut x_hat = Tensor::zeros(&shape);
            for (i, &v) in x.data().iter().enumerate() {
                let c = Self::feature_of(&shape, i);
                let xh = (v - mean[c]) / (var[c] + self.eps).sqrt();
                x_hat.data_mut()[i] = xh;
                out.data_mut()[i] = self.gamma.value.data()[c] * xh + self.beta.value.data()[c];
            }
            self.cache = Some(BnCache {
                x_hat,
                batch_var: var,
                batch_mean: mean,
                shape,
            });
        } else {
            for (i, &v) in x.data().iter().enumerate() {
                let c = Self::feature_of(&shape, i);
                let xh = (v - self.running_mean.data()[c])
                    / (self.running_var.data()[c] + self.eps).sqrt();
                out.data_mut()[i] = self.gamma.value.data()[c] * xh + self.beta.value.data()[c];
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let shape = cache.shape;
        let f = self.features;
        let m = grad_out.numel() / f; // elements per feature

        // parameter grads
        let mut dgamma = vec![0.0f32; f];
        let mut dbeta = vec![0.0f32; f];
        for (i, &g) in grad_out.data().iter().enumerate() {
            let c = Self::feature_of(&shape, i);
            dgamma[c] += g * cache.x_hat.data()[i];
            dbeta[c] += g;
        }
        for c in 0..f {
            self.gamma.grad.data_mut()[c] += dgamma[c];
            self.beta.grad.data_mut()[c] += dbeta[c];
        }

        // input grad (standard BN backward):
        // dx = γ/√(σ²+ε) · ( g − mean(g) − x̂·mean(g·x̂) )
        let mut dx = Tensor::zeros(&shape);
        for (i, &g) in grad_out.data().iter().enumerate() {
            let c = Self::feature_of(&shape, i);
            let inv_std = 1.0 / (cache.batch_var[c] + self.eps).sqrt();
            let term = g - dbeta[c] / m as f32 - cache.x_hat.data()[i] * dgamma[c] / m as f32;
            dx.data_mut()[i] = self.gamma.value.data()[c] * inv_std * term;
        }
        let _ = cache.batch_mean;
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "BatchNorm"
    }

    fn describe(&self) -> String {
        format!("BatchNorm({})", self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm::new(2);
        // [n=4, c=2]: feature 0 has mean 10, feature 1 mean -5
        let x = Tensor::from_vec(&[4, 2], vec![9.0, -6.0, 11.0, -4.0, 10.0, -5.0, 10.0, -5.0]);
        let y = bn.forward(&x, true);
        // per-feature mean ≈ 0, var ≈ 1 (γ=1, β=0)
        let mut m0 = 0.0;
        let mut m1 = 0.0;
        for i in 0..4 {
            m0 += y.at2(i, 0);
            m1 += y.at2(i, 1);
        }
        assert!(m0.abs() < 1e-4 && m1.abs() < 1e-4);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        let x = Tensor::from_vec(&[4, 1], vec![2.0, 4.0, 6.0, 8.0]);
        // train several times to converge the running stats
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        // running mean ≈ 5, var ≈ 5 → y ≈ (x-5)/√5
        for i in 0..4 {
            let want = (x.at2(i, 0) - 5.0) / 5.0f32.sqrt();
            assert!(
                (y.at2(i, 0) - want).abs() < 0.05,
                "{} vs {want}",
                y.at2(i, 0)
            );
        }
    }

    #[test]
    fn affine_fold_matches_eval_forward() {
        let mut bn = BatchNorm::new(3);
        let x = Tensor::from_vec(&[2, 3], vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0]);
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        bn.gamma.value = Tensor::from_vec(&[3], vec![1.5, 0.5, -1.0]);
        bn.beta.value = Tensor::from_vec(&[3], vec![0.1, -0.2, 0.3]);
        let y = bn.forward(&x, false);
        let (a, b) = bn.affine_params();
        for i in 0..2 {
            for c in 0..3 {
                let want = a[c] * x.at2(i, c) + b[c];
                assert!((y.at2(i, c) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradient_check_4d() {
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_vec(
            &[2, 2, 2, 2],
            (0..16).map(|i| ((i * 5) % 11) as f32 * 0.3 - 1.0).collect(),
        );
        let y = bn.forward(&x, true);
        // loss = Σ y² / 2 → dL/dy = y
        let g = y.clone();
        let dx = bn.backward(&g);

        let eps = 1e-2f32;
        let loss = |bn: &mut BatchNorm, x: &Tensor| -> f32 {
            let y = bn.forward(x, true);
            let _ = bn.cache.take();
            y.data().iter().map(|v| v * v * 0.5).sum()
        };
        for idx in [0usize, 7, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp = loss(&mut bn, &xp);
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm = loss(&mut bn, &xm);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 0.05,
                "idx {idx}: {numeric} vs {}",
                dx.data()[idx]
            );
        }
    }
}
