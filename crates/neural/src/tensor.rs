//! A minimal dense tensor over `f32` with NCHW conventions.
//!
//! Deliberately small: the CNNs of the paper need 2-D and 4-D tensors,
//! elementwise arithmetic, matrix–vector products and im2col-free naive
//! convolutions (implemented in the layer modules). No broadcasting, no
//! views — shapes are explicit and checked.

/// Dense row-major tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// From raw data (length must match the shape's element count).
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} incompatible with {} elements",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshape (same element count).
    pub fn reshape(&self, shape: &[usize]) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.numel(),
            "cannot reshape {:?} -> {shape:?}",
            self.shape
        );
        Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// 2-D indexing.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    #[inline]
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut self.data[i * cols + j]
    }

    /// 4-D (NCHW) indexing.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        &mut self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Elementwise in-place addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Fills with zeros (gradient reset).
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (argmax over flattened data).
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.numel(), 120);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        let f = Tensor::full(&[3], 7.0);
        assert!(f.data().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn indexing_2d_and_4d() {
        let mut t = Tensor::zeros(&[2, 3]);
        *t.at2_mut(1, 2) = 5.0;
        assert_eq!(t.at2(1, 2), 5.0);
        assert_eq!(t.data()[5], 5.0);

        let mut u = Tensor::zeros(&[2, 3, 4, 5]);
        *u.at4_mut(1, 2, 3, 4) = -1.0;
        assert_eq!(u.at4(1, 2, 3, 4), -1.0);
        // last element
        assert_eq!(u.data()[119], -1.0);
    }

    #[test]
    fn arithmetic() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        assert_eq!(a.max_abs(), 7.0);
        assert!((a.mean() - 5.0).abs() < 1e-6);
        assert_eq!(a.argmax(), 2);
        a.zero_();
        assert_eq!(a.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn reshape_checks() {
        let t = Tensor::zeros(&[2, 6]);
        let r = t.reshape(&[3, 4]);
        assert_eq!(r.shape(), &[3, 4]);
    }

    #[test]
    #[should_panic]
    fn bad_reshape_panics() {
        let t = Tensor::zeros(&[2, 6]);
        let _ = t.reshape(&[5, 5]);
    }

    #[test]
    #[should_panic]
    fn bad_from_vec_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 5]);
    }
}
