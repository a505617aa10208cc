//! 2-D convolution (NCHW), naive direct loops parallelized with rayon.

use super::{Layer, Param};
use crate::init::kaiming_conv;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rayon::prelude::*;

/// `Conv2d(in_ch → out_ch, k×k, stride, pad)` with bias.
pub struct Conv2d {
    pub in_ch: usize,
    pub out_ch: usize,
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
    pub weight: Param,
    pub bias: Param,
    cache_input: Option<Tensor>,
}

impl Conv2d {
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(k >= 1 && stride >= 1);
        let weight = kaiming_conv(out_ch, in_ch, k, rng);
        Self {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cache_input: None,
        }
    }

    /// Output spatial size for an input of size `h`.
    pub fn out_size(&self, h: usize) -> usize {
        (h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Direct-loop forward used by both training and (with frozen weights)
    /// the plaintext reference path of the HE engine.
    pub fn forward_raw(&self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.in_ch, "channel mismatch");
        let oh = self.out_size(h);
        let ow = self.out_size(w);
        let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
        let wt = &self.weight.value;
        let bias = &self.bias.value;
        let (k, s, p) = (self.k, self.stride, self.pad);
        let out_plane = oh * ow;
        let per_image = self.out_ch * out_plane;

        out.data_mut()
            .par_chunks_mut(per_image)
            .enumerate()
            .for_each(|(ni, img)| {
                for o in 0..self.out_ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = bias.data()[o];
                            for ci in 0..c {
                                for ky in 0..k {
                                    let iy = oy * s + ky;
                                    if iy < p || iy - p >= h {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = ox * s + kx;
                                        if ix < p || ix - p >= w {
                                            continue;
                                        }
                                        acc +=
                                            wt.at4(o, ci, ky, kx) * x.at4(ni, ci, iy - p, ix - p);
                                    }
                                }
                            }
                            img[o * out_plane + oy * ow + ox] = acc;
                        }
                    }
                }
            });
        out
    }
}

impl Layer for Conv2d {
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
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = self.out_size(h);
        let ow = self.out_size(w);
        let (k, s, p) = (self.k, self.stride, self.pad);

        // dW: each output channel's slice is independent → parallel over o.
        let wt_shape = self.weight.value.shape().to_vec();
        let dw_per_o = c * k * k;
        {
            let dw = &mut self.weight.grad;
            dw.data_mut()
                .par_chunks_mut(dw_per_o)
                .enumerate()
                .for_each(|(o, dwo)| {
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let mut acc = 0.0f32;
                                for ni in 0..n {
                                    for oy in 0..oh {
                                        let iy = oy * s + ky;
                                        if iy < p || iy - p >= h {
                                            continue;
                                        }
                                        for ox in 0..ow {
                                            let ix = ox * s + kx;
                                            if ix < p || ix - p >= w {
                                                continue;
                                            }
                                            acc += grad_out.at4(ni, o, oy, ox)
                                                * x.at4(ni, ci, iy - p, ix - p);
                                        }
                                    }
                                }
                                dwo[(ci * k + ky) * k + kx] += acc;
                            }
                        }
                    }
                });
        }
        let _ = wt_shape;

        // db
        for o in 0..self.out_ch {
            let mut acc = 0.0f32;
            for ni in 0..n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        acc += grad_out.at4(ni, o, oy, ox);
                    }
                }
            }
            self.bias.grad.data_mut()[o] += acc;
        }

        // dX: parallel over batch images.
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let per_image_in = c * h * w;
        let wt = &self.weight.value;
        dx.data_mut()
            .par_chunks_mut(per_image_in)
            .enumerate()
            .for_each(|(ni, dimg)| {
                for o in 0..self.out_ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let g = grad_out.at4(ni, o, oy, ox);
                            if g == 0.0 {
                                continue;
                            }
                            for ci in 0..c {
                                for ky in 0..k {
                                    let iy = oy * s + ky;
                                    if iy < p || iy - p >= h {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = ox * s + kx;
                                        if ix < p || ix - p >= w {
                                            continue;
                                        }
                                        dimg[(ci * h + (iy - p)) * w + (ix - p)] +=
                                            g * wt.at4(o, ci, ky, kx);
                                    }
                                }
                            }
                        }
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
        "Conv2d"
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}→{}, {}×{}, stride {}, pad {})",
            self.in_ch, self.out_ch, self.k, self.k, self.stride, self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1×1 kernel with weight 1 reproduces the input.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        conv.weight.value = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_convolution_value() {
        // 3×3 all-ones kernel over a 3×3 all-ones image, no pad → sums 9.
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng());
        conv.weight.value = Tensor::full(&[1, 1, 3, 3], 1.0);
        conv.bias.value = Tensor::from_vec(&[1], vec![0.5]);
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 9.5).abs() < 1e-6);
    }

    #[test]
    fn stride_and_padding_shapes() {
        let conv = Conv2d::new(1, 5, 5, 2, 1, &mut rng());
        // 28×28, k=5, s=2, p=1 → (28+2-5)/2+1 = 13
        assert_eq!(conv.out_size(28), 13);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let y = conv.forward_raw(&x);
        assert_eq!(y.shape(), &[2, 5, 13, 13]);
    }

    #[test]
    fn gradient_check_weights() {
        // finite-difference check on a tiny conv
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng());
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            (0..16).map(|i| (i as f32 - 8.0) * 0.1).collect(),
        );
        let y = conv.forward(&x, true);
        // loss = sum(y); dL/dy = ones
        let ones = Tensor::full(y.shape(), 1.0);
        let _ = conv.backward(&ones);

        let eps = 1e-3f32;
        for idx in [0usize, 5, 10, 17] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let lp: f32 = conv.forward_raw(&x).data().iter().sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let lm: f32 = conv.forward_raw(&x).data().iter().sum();
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.weight.grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut conv = Conv2d::new(2, 1, 3, 2, 1, &mut rng());
        let x = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32).map(|i| ((i * 7) % 13) as f32 * 0.05).collect(),
        );
        let y = conv.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = conv.backward(&ones);

        let eps = 1e-3f32;
        for idx in [0usize, 9, 20, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp: f32 = conv.forward_raw(&xp).data().iter().sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm: f32 = conv.forward_raw(&xm).data().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 1e-2,
                "idx {idx}: {numeric} vs {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn batch_independence() {
        // processing a batch equals processing images separately
        let conv = Conv2d::new(1, 3, 3, 1, 0, &mut rng());
        let a = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|i| i as f32).collect());
        let b = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|i| -(i as f32)).collect());
        let mut both_data = a.data().to_vec();
        both_data.extend_from_slice(b.data());
        let both = Tensor::from_vec(&[2, 1, 4, 4], both_data);
        let ya = conv.forward_raw(&a);
        let yb = conv.forward_raw(&b);
        let yboth = conv.forward_raw(&both);
        let half = ya.numel();
        assert_eq!(&yboth.data()[..half], ya.data());
        assert_eq!(&yboth.data()[half..], yb.data());
    }
}
