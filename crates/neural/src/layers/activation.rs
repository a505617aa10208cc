//! Activation functions: ReLU (pre-training), the CryptoNets square, and
//! the paper's Self-Learning Activation Function — a polynomial
//! `f(x) = a₀ + a₁x + … + a_d x^d` whose coefficients are trained by
//! backpropagation together with the model weights (Eq. 2).

use super::{Layer, Param};
use crate::tensor::Tensor;

/// Rectified linear unit. Used for the initial (non-HE-compatible)
/// training phase of the SLAF protocol.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut out = x.clone();
        let mut mask = Vec::new();
        if train {
            mask.reserve(x.numel());
        }
        for v in out.data_mut() {
            let pos = *v > 0.0;
            if !pos {
                *v = 0.0;
            }
            if train {
                mask.push(pos);
            }
        }
        if train {
            self.mask = Some(mask);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward before forward");
        let mut dx = grad_out.clone();
        for (g, &m) in dx.data_mut().iter_mut().zip(&mask) {
            if !m {
                *g = 0.0;
            }
        }
        dx
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }
}

/// Self-Learning Activation Function (SLAF): a degree-`d` polynomial with
/// trainable coefficients, shared across the layer.
///
/// The paper initializes all coefficients to zero and lets SGD find the
/// shape; in the CNN-HE-SLAF protocol the model is first trained with
/// ReLU, then activations are swapped for SLAFs and the network is
/// briefly retrained.
pub struct PolyActivation {
    pub degree: usize,
    /// `coeffs.value.data()[k]` = aₖ.
    pub coeffs: Param,
    cache: Option<Tensor>,
}

impl PolyActivation {
    /// All-zero coefficients (the paper's initialization).
    pub fn new(degree: usize) -> Self {
        assert!(degree >= 1);
        Self {
            degree,
            coeffs: Param::new(Tensor::zeros(&[degree + 1])),
            cache: None,
        }
    }

    /// Starts from given coefficients (e.g. a least-squares ReLU fit used
    /// to warm-start SLAF retraining).
    pub fn with_coeffs(coeffs: &[f32]) -> Self {
        assert!(coeffs.len() >= 2);
        Self {
            degree: coeffs.len() - 1,
            coeffs: Param::new(Tensor::from_vec(&[coeffs.len()], coeffs.to_vec())),
            cache: None,
        }
    }

    /// Evaluates the polynomial on a scalar (Horner).
    pub fn eval_scalar(&self, x: f32) -> f32 {
        let c = self.coeffs.value.data();
        let mut acc = c[self.degree];
        for k in (0..self.degree).rev() {
            acc = acc * x + c[k];
        }
        acc
    }

    /// The polynomial coefficients as f64 (consumed by the HE engine).
    pub fn coeffs_f64(&self) -> Vec<f64> {
        self.coeffs.value.data().iter().map(|&c| c as f64).collect()
    }
}

impl Layer for PolyActivation {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::zeros(x.shape());
        for (o, &xi) in out.data_mut().iter_mut().zip(x.data()) {
            *o = self.eval_scalar(xi);
        }
        if train {
            self.cache = Some(x.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.take().expect("backward before forward");
        let c = self.coeffs.value.data().to_vec();
        let d = self.degree;

        // coefficient grads: dL/daₖ = Σ_i g_i · x_i^k
        let mut dc = vec![0.0f32; d + 1];
        // input grads: dL/dx_i = g_i · Σ_k k·aₖ·x^{k-1}
        let mut dx = grad_out.clone();
        for (i, (&g, &xi)) in grad_out.data().iter().zip(x.data()).enumerate() {
            let mut pow = 1.0f32;
            let mut deriv = 0.0f32;
            for (k, dck) in dc.iter_mut().enumerate() {
                *dck += g * pow;
                if k < d {
                    deriv += (k + 1) as f32 * c[k + 1] * pow;
                }
                pow *= xi;
            }
            dx.data_mut()[i] = g * deriv;
        }
        for (k, &v) in dc.iter().enumerate() {
            self.coeffs.grad.data_mut()[k] += v;
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.coeffs);
    }

    fn name(&self) -> &'static str {
        "SLAF"
    }

    fn describe(&self) -> String {
        format!("SLAF(degree {})", self.degree)
    }
}

/// Least-squares fit of a degree-`d` polynomial to ReLU on `[-r, r]` —
/// used to warm-start SLAF coefficients before retraining.
pub fn relu_poly_fit(degree: usize, radius: f32, samples: usize) -> Vec<f32> {
    // Solve the normal equations A^T A c = A^T y over `samples` points.
    let n = samples.max(degree * 4);
    let m = degree + 1;
    let mut ata = vec![0.0f64; m * m];
    let mut aty = vec![0.0f64; m];
    for i in 0..n {
        let x = -radius as f64 + 2.0 * radius as f64 * i as f64 / (n - 1) as f64;
        let y = x.max(0.0);
        let mut pows = vec![1.0f64; m];
        for k in 1..m {
            pows[k] = pows[k - 1] * x;
        }
        for r in 0..m {
            aty[r] += pows[r] * y;
            for c2 in 0..m {
                ata[r * m + c2] += pows[r] * pows[c2];
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    let mut aug = vec![0.0f64; m * (m + 1)];
    for r in 0..m {
        for c2 in 0..m {
            aug[r * (m + 1) + c2] = ata[r * m + c2];
        }
        aug[r * (m + 1) + m] = aty[r];
    }
    for col in 0..m {
        let piv = (col..m)
            .max_by(|&a, &b| {
                aug[a * (m + 1) + col]
                    .abs()
                    .partial_cmp(&aug[b * (m + 1) + col].abs())
                    .unwrap()
            })
            .unwrap();
        if piv != col {
            for k in 0..=m {
                aug.swap(col * (m + 1) + k, piv * (m + 1) + k);
            }
        }
        let p = aug[col * (m + 1) + col];
        assert!(p.abs() > 1e-12, "singular normal equations");
        for r in 0..m {
            if r == col {
                continue;
            }
            let f = aug[r * (m + 1) + col] / p;
            for k in col..=m {
                aug[r * (m + 1) + k] -= f * aug[col * (m + 1) + k];
            }
        }
    }
    (0..m)
        .map(|r| (aug[r * (m + 1) + m] / aug[r * (m + 1) + r]) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[5], vec![-2.0, -0.5, 0.0, 0.5, 2.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
        let g = Tensor::full(&[5], 1.0);
        let dx = relu.backward(&g);
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn poly_evaluates_horner() {
        // f(x) = 1 + 2x + 3x² at x = 2 → 1 + 4 + 12 = 17
        let p = PolyActivation::with_coeffs(&[1.0, 2.0, 3.0]);
        assert!((p.eval_scalar(2.0) - 17.0).abs() < 1e-6);
        assert!((p.eval_scalar(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn poly_gradient_check() {
        let mut p = PolyActivation::with_coeffs(&[0.1, -0.5, 0.3, 0.02]);
        let x = Tensor::from_vec(&[4], vec![-1.0, -0.2, 0.4, 1.3]);
        let y = p.forward(&x, true);
        let g = y.clone(); // loss = Σ y²/2
        let dx = p.backward(&g);

        let eps = 1e-3f32;
        let loss = |p: &mut PolyActivation, x: &Tensor| -> f32 {
            let y = p.forward(x, false);
            y.data().iter().map(|v| v * v * 0.5).sum()
        };
        // input grads
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (loss(&mut p, &xp) - loss(&mut p, &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 1e-2,
                "dx[{idx}]: {numeric} vs {}",
                dx.data()[idx]
            );
        }
        // coefficient grads
        for k in 0..4 {
            let orig = p.coeffs.value.data()[k];
            p.coeffs.value.data_mut()[k] = orig + eps;
            let lp = loss(&mut p, &x);
            p.coeffs.value.data_mut()[k] = orig - eps;
            let lm = loss(&mut p, &x);
            p.coeffs.value.data_mut()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - p.coeffs.grad.data()[k]).abs() < 1e-2,
                "dc[{k}]: {numeric} vs {}",
                p.coeffs.grad.data()[k]
            );
        }
    }

    #[test]
    fn zero_init_poly_is_zero_function() {
        let mut p = PolyActivation::new(3);
        let x = Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]);
        let y = p.forward(&x, false);
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn relu_fit_is_decent() {
        let c = relu_poly_fit(3, 4.0, 200);
        assert_eq!(c.len(), 4);
        let p = PolyActivation::with_coeffs(&c);
        // check approximation quality at a few points
        let mut worst: f32 = 0.0;
        for i in 0..=20 {
            let x = -4.0 + 0.4 * i as f32;
            let err = (p.eval_scalar(x) - x.max(0.0)).abs();
            worst = worst.max(err);
        }
        assert!(worst < 0.6, "degree-3 ReLU fit too loose: {worst}");
        // and that it's convex-ish around 0 (positive x² coefficient)
        assert!(c[2] > 0.0);
    }
}
