//! The paper's two architectures (Figs. 3 and 4).
//!
//! * **CNN1** — a Lo-La variant: one convolution, two dense layers, with
//!   activations after the convolution and the first dense layer.
//! * **CNN2** — CryptoNets-based: two convolutions, each followed by a
//!   batch-normalization layer *before* its activation, then two dense
//!   layers.
//!
//! Both accept 28×28 grayscale inputs and emit 10 logits. The `ActKind`
//! parameter selects the activation family: ReLU for the initial training
//! pass or a degree-`d` SLAF for the HE-compatible form.

use crate::layers::{BatchNorm, Conv2d, Dense, Flatten, Layer, PolyActivation, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Activation family used when instantiating a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActKind {
    Relu,
    /// SLAF of the given degree, warm-started from a least-squares ReLU
    /// fit on `[-radius, radius]`.
    Slaf {
        degree: usize,
        radius: f32,
    },
}

impl ActKind {
    /// The paper's default: degree-3 SLAF.
    pub fn slaf3() -> Self {
        ActKind::Slaf {
            degree: 3,
            radius: 4.0,
        }
    }

    fn make(&self) -> Box<dyn Layer> {
        match *self {
            ActKind::Relu => Box::new(Relu::new()),
            ActKind::Slaf { degree, radius } => Box::new(PolyActivation::with_coeffs(
                &crate::layers::activation::relu_poly_fit(degree, radius, 512),
            )),
        }
    }
}

/// CNN1 geometry constants.
pub mod cnn1_shape {
    pub const CONV_OUT_CH: usize = 5;
    pub const CONV_K: usize = 5;
    pub const CONV_STRIDE: usize = 2;
    pub const CONV_PAD: usize = 1;
    /// 28 → (28+2−5)/2+1 = 13.
    pub const CONV_OUT_HW: usize = 13;
    pub const FLAT: usize = CONV_OUT_CH * CONV_OUT_HW * CONV_OUT_HW; // 845
    pub const HIDDEN: usize = 100;
    pub const CLASSES: usize = 10;
}

/// Builds CNN1 (Fig. 3): `Conv(1→5, 5×5, s2, p1) → act → Dense(845→100)
/// → act → Dense(100→10)`.
pub fn cnn1(act: ActKind, seed: u64) -> Sequential {
    use cnn1_shape::*;
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(Conv2d::new(
            1,
            CONV_OUT_CH,
            CONV_K,
            CONV_STRIDE,
            CONV_PAD,
            &mut rng,
        )),
        act.make(),
        Box::new(Flatten::new()),
        Box::new(Dense::new(FLAT, HIDDEN, &mut rng)),
        act.make(),
        Box::new(Dense::new(HIDDEN, CLASSES, &mut rng)),
    ])
}

/// CNN2 geometry constants.
pub mod cnn2_shape {
    pub const CONV1_OUT_CH: usize = 5;
    pub const CONV1_K: usize = 5;
    pub const CONV1_STRIDE: usize = 2;
    pub const CONV1_PAD: usize = 1;
    /// 28 → 13.
    pub const CONV1_OUT_HW: usize = 13;
    pub const CONV2_OUT_CH: usize = 50;
    pub const CONV2_K: usize = 5;
    pub const CONV2_STRIDE: usize = 2;
    pub const CONV2_PAD: usize = 0;
    /// 13 → (13−5)/2+1 = 5.
    pub const CONV2_OUT_HW: usize = 5;
    pub const FLAT: usize = CONV2_OUT_CH * CONV2_OUT_HW * CONV2_OUT_HW; // 1250
    pub const HIDDEN: usize = 100;
    pub const CLASSES: usize = 10;
}

/// Builds CNN2 (Fig. 4): `Conv(1→5) → BN → act → Conv(5→50) → BN → act →
/// Dense(1250→100) → act → Dense(100→10)` — CryptoNets' 50-map second
/// convolution.
pub fn cnn2(act: ActKind, seed: u64) -> Sequential {
    use cnn2_shape::*;
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Box::new(Conv2d::new(
            1,
            CONV1_OUT_CH,
            CONV1_K,
            CONV1_STRIDE,
            CONV1_PAD,
            &mut rng,
        )),
        Box::new(BatchNorm::new(CONV1_OUT_CH)),
        act.make(),
        Box::new(Conv2d::new(
            CONV1_OUT_CH,
            CONV2_OUT_CH,
            CONV2_K,
            CONV2_STRIDE,
            CONV2_PAD,
            &mut rng,
        )),
        Box::new(BatchNorm::new(CONV2_OUT_CH)),
        act.make(),
        Box::new(Flatten::new()),
        Box::new(Dense::new(FLAT, HIDDEN, &mut rng)),
        act.make(),
        Box::new(Dense::new(HIDDEN, CLASSES, &mut rng)),
    ])
}

/// Replaces every activation layer in `model` with a fresh SLAF of the
/// given degree (warm-started from the ReLU fit) — step 2 of the
/// CNN-HE-SLAF protocol. Other layers (and their trained weights) are
/// kept as-is.
pub fn swap_activations_for_slaf(model: &mut Sequential, degree: usize, radius: f32) {
    for layer in model.layers.iter_mut() {
        let is_act = matches!(layer.name(), "ReLU" | "SLAF");
        if is_act {
            *layer = Box::new(PolyActivation::with_coeffs(
                &crate::layers::activation::relu_poly_fit(degree, radius, 512),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn cnn1_shapes() {
        let mut m = cnn1(ActKind::Relu, 1);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[2, 10]);
        // parameter count: conv 5·1·25+5=130; dense1 845·100+100=84600;
        // dense2 100·10+10=1010 → 85740
        let mut params = 0;
        m.visit_params(&mut |p| params += p.value.numel());
        assert_eq!(params, 130 + 84_600 + 1_010);
    }

    #[test]
    fn cnn2_shapes() {
        let mut m = cnn2(ActKind::slaf3(), 2);
        let x = Tensor::zeros(&[1, 1, 28, 28]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn describe_mentions_structure() {
        let m = cnn2(ActKind::slaf3(), 3);
        let d = m.describe();
        assert!(d.contains("Conv2d(1→5"));
        assert!(d.contains("BatchNorm(5)"));
        assert!(d.contains("SLAF(degree 3)"));
        assert!(d.contains("Dense(1250 → 100)"));
    }

    #[test]
    fn swap_preserves_weights() {
        let mut m = cnn1(ActKind::Relu, 4);
        let x = Tensor::from_vec(
            &[1, 1, 28, 28],
            (0..784).map(|i| (i % 7) as f32 * 0.1).collect(),
        );
        // conv output before swap (first layer only)
        let before = m.layers[0].forward(&x, false);
        swap_activations_for_slaf(&mut m, 3, 4.0);
        let after = m.layers[0].forward(&x, false);
        assert_eq!(before.data(), after.data(), "conv weights must survive");
        assert_eq!(m.layers[1].name(), "SLAF");
        assert_eq!(m.layers[4].name(), "SLAF");
    }

    #[test]
    fn cnn1_trains_one_step_without_panic() {
        let mut m = cnn1(ActKind::slaf3(), 5);
        let x = Tensor::zeros(&[4, 1, 28, 28]);
        let y = m.forward(&x, true);
        let g = Tensor::full(y.shape(), 0.1);
        let _ = m.backward(&g);
    }
}
