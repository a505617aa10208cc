//! NCHW → `[n, c·h·w]` flattening.

use super::Layer;
use crate::tensor::Tensor;

/// Flattens all non-batch dimensions.
#[derive(Default)]
pub struct Flatten {
    cache_shape: Option<Vec<usize>>,
}

impl Flatten {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        if train {
            self.cache_shape = Some(x.shape().to_vec());
        }
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.cache_shape.take().expect("backward before forward");
        grad_out.reshape(&shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(&[2, 3, 2, 2], (0..24).map(|i| i as f32).collect());
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 12]);
        assert_eq!(y.data(), x.data());
        let back = f.backward(&y);
        assert_eq!(back.shape(), x.shape());
        assert_eq!(back.data(), x.data());
    }
}
