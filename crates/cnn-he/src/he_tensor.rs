//! Encrypted tensors: CryptoNets-style scalar packing.
//!
//! Each scalar activation of the network lives in its own ciphertext;
//! the CKKS slot dimension carries a *batch* of images (the E2DM /
//! CryptoNets trick), so one inference pass classifies up to `N/2`
//! images at the per-image accuracy of slot 0. All scheme operations the
//! engine needs (scalar multiply-accumulate, rescale, square) act
//! uniformly on all slots.

use ckks::{Ciphertext, Evaluator, PublicKey, SecretKey};
use ckks_math::sampler::Sampler;

/// A tensor of ciphertexts (one per scalar), with an explicit shape.
#[derive(Debug, Clone)]
pub struct CtTensor {
    pub cts: Vec<Ciphertext>,
    pub shape: Vec<usize>,
}

impl CtTensor {
    pub fn numel(&self) -> usize {
        self.cts.len()
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Common scale of all ciphertexts (they move in lock-step).
    pub fn scale(&self) -> f64 {
        self.cts[0].scale
    }

    /// Common level.
    pub fn level(&self) -> usize {
        self.cts[0].level
    }
}

/// Encrypts a batch of images (each a flat `[0,1]` pixel slice of equal
/// length) into a `[C=1, H, W]` ciphertext tensor: ciphertext `p` holds
/// pixel `p` of image `b` in slot `b`.
pub fn encrypt_image_batch(
    ev: &Evaluator,
    pk: &PublicKey,
    sampler: &mut Sampler,
    images: &[&[f32]],
    side: usize,
    level: usize,
) -> CtTensor {
    assert!(!images.is_empty());
    let pixels = side * side;
    for img in images {
        assert_eq!(img.len(), pixels, "image size mismatch");
    }
    let scale = ev.ctx().params().scale();
    let cts = (0..pixels)
        .map(|p| {
            let slots: Vec<f64> = images.iter().map(|img| img[p] as f64).collect();
            let pt = ckks::encode_real(ev.ctx(), &slots, scale, level);
            ev.encrypt(&pt, pk, sampler)
        })
        .collect();
    CtTensor {
        cts,
        shape: vec![1, side, side],
    }
}

/// Decrypts a ciphertext tensor back to per-image scalar vectors:
/// `out[b][i]` = scalar `i` of image `b`.
pub fn decrypt_tensor(ev: &Evaluator, sk: &SecretKey, t: &CtTensor, batch: usize) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0f64; t.numel()]; batch];
    for (i, ct) in t.cts.iter().enumerate() {
        let slots = ev.decrypt_to_real(ct, sk);
        for (b, row) in out.iter_mut().enumerate() {
            row[i] = slots[b];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckks::{CkksParams, KeyGenerator};
    use std::sync::Arc;

    #[test]
    fn encrypt_decrypt_batch_roundtrip() {
        let ctx = CkksParams::tiny(1).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 70);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(71);

        let side = 4;
        let img_a: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let img_b: Vec<f32> = (0..16).map(|i| 1.0 - i as f32 / 16.0).collect();
        let t = encrypt_image_batch(&ev, &pk, &mut s, &[&img_a, &img_b], side, 1);
        assert_eq!(t.shape(), &[1, 4, 4]);
        assert_eq!(t.numel(), 16);

        let back = decrypt_tensor(&ev, &sk, &t, 2);
        for p in 0..16 {
            assert!((back[0][p] - img_a[p] as f64).abs() < 1e-3);
            assert!((back[1][p] - img_b[p] as f64).abs() < 1e-3);
        }
    }

    #[test]
    fn indexing_matches_row_major() {
        let ctx = CkksParams::tiny(0).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 72);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(73);
        let img: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
        let t = encrypt_image_batch(&ev, &pk, &mut s, &[&img], 3, 0);
        // element (0, 2, 1) is pixel index 7
        assert_eq!(t.shape(), &[1, 3, 3]);
        let v = ev.decrypt_to_real(&t.cts[(2 * 3) + 1], &sk)[0];
        assert!((v - 0.7).abs() < 1e-3);
    }
}
