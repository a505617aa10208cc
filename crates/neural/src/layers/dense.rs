//! Fully-connected layer.

use super::{Layer, Param};
use crate::init::kaiming_dense;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rayon::prelude::*;

/// `Dense(in → out)`: `y = W·x + b`, weight shape `[out, in]`.
pub struct Dense {
    pub in_dim: usize,
    pub out_dim: usize,
    pub weight: Param,
    pub bias: Param,
    cache_input: Option<Tensor>,
}

impl Dense {
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            in_dim,
            out_dim,
            weight: Param::new(kaiming_dense(out_dim, in_dim, rng)),
            bias: Param::new(Tensor::zeros(&[out_dim])),
            cache_input: None,
        }
    }

    /// `y = W x + b` for a batch `[n, in]`.
    pub fn forward_raw(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Dense expects a 2-D input");
        let n = x.shape()[0];
        assert_eq!(x.shape()[1], self.in_dim, "input dim mismatch");
        let mut out = Tensor::zeros(&[n, self.out_dim]);
        let w = &self.weight.value;
        let b = &self.bias.value;
        out.data_mut()
            .par_chunks_mut(self.out_dim)
            .enumerate()
            .for_each(|(ni, row)| {
                let xrow = &x.data()[ni * self.in_dim..(ni + 1) * self.in_dim];
                for (o, r) in row.iter_mut().enumerate() {
                    let wrow = &w.data()[o * self.in_dim..(o + 1) * self.in_dim];
                    let mut acc = b.data()[o];
                    for (wi, xi) in wrow.iter().zip(xrow) {
                        acc += wi * xi;
                    }
                    *r = acc;
                }
            });
        out
    }
}

impl Layer for Dense {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let out = self.forward_raw(x);
        if train {
            self.cache_input = Some(x.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache_input
            .take()
            .expect("backward called before forward(train=true)");
        let n = x.shape()[0];

        // dW[o][i] = Σ_n g[n][o]·x[n][i] — parallel over output rows.
        {
            let dw = &mut self.weight.grad;
            let in_dim = self.in_dim;
            dw.data_mut()
                .par_chunks_mut(in_dim)
                .enumerate()
                .for_each(|(o, dwrow)| {
                    for ni in 0..n {
                        let g = grad_out.at2(ni, o);
                        if g == 0.0 {
                            continue;
                        }
                        let xrow = &x.data()[ni * in_dim..(ni + 1) * in_dim];
                        for (d, xi) in dwrow.iter_mut().zip(xrow) {
                            *d += g * xi;
                        }
                    }
                });
        }
        // db
        for o in 0..self.out_dim {
            let mut acc = 0.0;
            for ni in 0..n {
                acc += grad_out.at2(ni, o);
            }
            self.bias.grad.data_mut()[o] += acc;
        }
        // dX[n][i] = Σ_o g[n][o]·W[o][i] — parallel over batch.
        let mut dx = Tensor::zeros(&[n, self.in_dim]);
        let w = &self.weight.value;
        let in_dim = self.in_dim;
        let out_dim = self.out_dim;
        dx.data_mut()
            .par_chunks_mut(in_dim)
            .enumerate()
            .for_each(|(ni, dxrow)| {
                for o in 0..out_dim {
                    let g = grad_out.at2(ni, o);
                    if g == 0.0 {
                        continue;
                    }
                    let wrow = &w.data()[o * in_dim..(o + 1) * in_dim];
                    for (d, wi) in dxrow.iter_mut().zip(wrow) {
                        *d += g * wi;
                    }
                }
            });
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn describe(&self) -> String {
        format!("Dense({} → {})", self.in_dim, self.out_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2)
    }

    #[test]
    fn known_matvec() {
        let mut d = Dense::new(3, 2, &mut rng());
        d.weight.value = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]);
        d.bias.value = Tensor::from_vec(&[2], vec![0.1, -0.1]);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let y = d.forward(&x, false);
        // row0: 1-3+0.1 = -1.9 ; row1: 2+2+1.5-0.1 = 5.4
        assert!((y.at2(0, 0) + 1.9).abs() < 1e-6);
        assert!((y.at2(0, 1) - 5.4).abs() < 1e-6);
    }

    #[test]
    fn gradient_check() {
        let mut d = Dense::new(4, 3, &mut rng());
        let x = Tensor::from_vec(&[2, 4], (0..8).map(|i| i as f32 * 0.25 - 1.0).collect());
        let y = d.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = d.backward(&ones);

        let eps = 1e-3f32;
        // weights
        for idx in [0usize, 5, 11] {
            let orig = d.weight.value.data()[idx];
            d.weight.value.data_mut()[idx] = orig + eps;
            let lp: f32 = d.forward_raw(&x).data().iter().sum();
            d.weight.value.data_mut()[idx] = orig - eps;
            let lm: f32 = d.forward_raw(&x).data().iter().sum();
            d.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - d.weight.grad.data()[idx]).abs() < 1e-2);
        }
        // inputs
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp: f32 = d.forward_raw(&xp).data().iter().sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm: f32 = d.forward_raw(&xm).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - dx.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn bias_gradient_is_batch_sum() {
        let mut d = Dense::new(2, 2, &mut rng());
        let x = Tensor::from_vec(&[3, 2], vec![1.0; 6]);
        let _ = d.forward(&x, true);
        let g = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let _ = d.backward(&g);
        assert!((d.bias.grad.data()[0] - 9.0).abs() < 1e-6);
        assert!((d.bias.grad.data()[1] - 12.0).abs() < 1e-6);
    }
}
