//! Layer abstraction and the sequential container.

pub mod activation;
pub mod batchnorm;
pub mod conv;
pub mod dense;
pub mod flatten;

pub use activation::{PolyActivation, Relu};
pub use batchnorm::BatchNorm;
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;

use crate::tensor::Tensor;

/// A trainable parameter: value, gradient accumulator and SGD momentum
/// buffer, updated together by the optimizer.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Tensor,
    pub grad: Tensor,
    pub velocity: Tensor,
}

impl Param {
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        let velocity = Tensor::zeros(value.shape());
        Self {
            value,
            grad,
            velocity,
        }
    }
}

/// A differentiable layer. `forward` caches whatever `backward` needs;
/// `backward` consumes the cache, accumulates parameter gradients and
/// returns the gradient w.r.t. its input.
pub trait Layer: Send {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;
    /// Downcasting hook — the HE engine extracts trained weights through it.
    fn as_any(&self) -> &dyn std::any::Any;
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
    /// Visits every trainable parameter (default: none).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn name(&self) -> &'static str;
    /// One-line architecture description (used by the Fig. 3/4 printers).
    fn describe(&self) -> String {
        self.name().to_string()
    }
}

/// A stack of layers applied in order.
pub struct Sequential {
    pub layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in self.layers.iter_mut() {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in self.layers.iter_mut() {
            layer.visit_params(f);
        }
    }

    /// Multi-line architecture summary (regenerates the paper's Fig. 3/4
    /// in text form).
    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| format!("  [{i}] {}", l.describe()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}
