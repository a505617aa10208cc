//! Encrypted-weight layers.
//!
//! The paper states (§VI) that "both inputs and weights are encrypted
//! before testing". The main engine keeps weights in plaintext — the
//! standard model of every system in Table I, and the only one
//! compatible with the reported latencies — but this module provides the
//! literal ciphertext × ciphertext variant for completeness: the model
//! owner's weights are hidden from the evaluating cloud as well.
//!
//! Cost: every tap becomes a full ciphertext multiplication with
//! relinearization and the layer consumes *two* levels (mult + rescale
//! at Δ² alignment), so a CNN1 conv goes from ~21k cheap scalar MACs to
//! ~21k relinearizations — two orders of magnitude slower. This is why
//! the plaintext-weight reading of the paper is the operational one
//! (documented in DESIGN.md §4).

use crate::exec::ExecMode;
use crate::he_tensor::CtTensor;
use ckks::{Ciphertext, Evaluator, PublicKey, RelinKey};
use ckks_math::sampler::Sampler;
use std::time::{Duration, Instant};

/// Encrypted convolution parameters: one ciphertext per scalar weight
/// (constant across slots), plus plaintext-encodable biases.
pub struct EncryptedConvSpec {
    /// `[out_ch × in_ch × k × k]` weight ciphertexts.
    pub weight: Vec<Ciphertext>,
    pub bias: Vec<f32>,
    pub in_ch: usize,
    pub out_ch: usize,
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
}

impl EncryptedConvSpec {
    /// Encrypts plaintext conv weights at the given level (must match the
    /// input tensor's level).
    #[allow(clippy::too_many_arguments)]
    pub fn encrypt(
        ev: &Evaluator,
        pk: &PublicKey,
        sampler: &mut Sampler,
        weight: &[f32],
        bias: &[f32],
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        level: usize,
    ) -> Self {
        assert_eq!(weight.len(), out_ch * in_ch * k * k);
        let scale = ev.ctx().params().scale();
        let cts = weight
            .iter()
            .map(|&w| {
                let pt = ckks::encode_constant(ev.ctx(), w as f64, scale, level);
                ev.encrypt(&pt, pk, sampler)
            })
            .collect();
        Self {
            weight: cts,
            bias: bias.to_vec(),
            in_ch,
            out_ch,
            k,
            stride,
            pad,
        }
    }

    pub fn out_size(&self, h: usize) -> usize {
        (h + 2 * self.pad - self.k) / self.stride + 1
    }

    #[inline]
    fn w(&self, o: usize, c: usize, ky: usize, kx: usize) -> &Ciphertext {
        &self.weight[((o * self.in_ch + c) * self.k + ky) * self.k + kx]
    }
}

/// Convolution with encrypted weights: each tap is `Mult(x, w, ek)`
/// (Eq. 1 with ciphertext weights). Consumes two levels. Output scale
/// returns to the input scale.
pub fn he_conv2d_encrypted(
    ev: &Evaluator,
    rk: &RelinKey,
    x: &CtTensor,
    spec: &EncryptedConvSpec,
    mode: ExecMode,
) -> (CtTensor, Vec<Duration>) {
    assert_eq!(x.shape.len(), 3);
    let (c_in, h, w) = (x.shape[0], x.shape[1], x.shape[2]);
    assert_eq!(c_in, spec.in_ch);
    let oh = spec.out_size(h);
    let ow = spec.out_size(w);
    let level = x.level();
    assert!(level >= 2, "encrypted-weight conv needs two levels");
    assert_eq!(
        spec.weight[0].level, level,
        "weights must be encrypted at the input level"
    );
    let s = x.scale();

    let units = mode.run_units(spec.out_ch * oh * ow, |u| {
        let o = u / (oh * ow);
        let oy = (u / ow) % oh;
        let ox = u % ow;
        let t0 = Instant::now();
        // accumulate Δ·s-scaled tensor products
        let mut acc: Option<Ciphertext> = None;
        for ci in 0..c_in {
            for ky in 0..spec.k {
                let iy = oy * spec.stride + ky;
                if iy < spec.pad || iy - spec.pad >= h {
                    continue;
                }
                for kx in 0..spec.k {
                    let ix = ox * spec.stride + kx;
                    if ix < spec.pad || ix - spec.pad >= w {
                        continue;
                    }
                    let prod = ev.multiply(
                        x.at3(ci, iy - spec.pad, ix - spec.pad),
                        spec.w(o, ci, ky, kx),
                        rk,
                    );
                    acc = Some(match acc {
                        None => prod,
                        Some(a) => ev.add(&a, &prod),
                    });
                }
            }
        }
        let mut acc = acc.expect("empty receptive field");
        ev.add_scalar_assign(&mut acc, spec.bias[o] as f64);
        // two rescales: Δ·s → s (weights at Δ, then scale repair)
        let r1 = ev.rescale(&acc); // scale s·Δ/q_m
        let q_next = ev.ctx().chain_moduli()[r1.level].value() as f64;
        let fix = ev.mul_scalar(&r1, 1.0, s * q_next / r1.scale);
        (ev.rescale(&fix), t0.elapsed()) // back to scale s exactly
    });
    let (cts, times) = units.into_iter().unzip();
    (
        CtTensor {
            cts,
            shape: vec![spec.out_ch, oh, ow],
        },
        times,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_tensor::{decrypt_tensor, encrypt_image_batch};
    use ckks::{CkksParams, KeyGenerator};
    use std::sync::Arc;

    #[test]
    fn encrypted_weights_match_plain_weights() {
        let ctx = CkksParams::tiny(3).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 900);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(901);

        let side = 4;
        let img: Vec<f32> = (0..16).map(|i| ((i * 5) % 11) as f32 / 11.0).collect();
        let weight: Vec<f32> = (0..9).map(|i| (i as f32 - 4.0) * 0.1).collect();
        let bias = vec![0.2f32];

        let x = encrypt_image_batch(&ev, &pk, &mut s, &[&img], side, 3);
        let enc_spec =
            EncryptedConvSpec::encrypt(&ev, &pk, &mut s, &weight, &bias, 1, 1, 3, 1, 0, 3);
        let (y_enc, _) = he_conv2d_encrypted(&ev, &rk, &x, &enc_spec, ExecMode::sequential());

        let plain_spec = crate::he_layers::ConvSpec {
            weight: weight.clone(),
            bias: bias.clone(),
            in_ch: 1,
            out_ch: 1,
            k: 3,
            stride: 1,
            pad: 0,
        };
        let (y_plain, _) =
            crate::he_layers::he_conv2d(&ev, &x, &plain_spec, crate::exec::ExecMode::sequential());

        let got_enc = decrypt_tensor(&ev, &sk, &y_enc, 1);
        let got_plain = decrypt_tensor(&ev, &sk, &y_plain, 1);
        assert_eq!(y_enc.shape(), &[1, 2, 2]);
        for (a, b) in got_enc[0].iter().zip(&got_plain[0]) {
            assert!((a - b).abs() < 5e-3, "encrypted {a} vs plain {b}");
        }
        // scale restored to input scale so downstream layers are unchanged
        assert!((y_enc.scale() / x.scale() - 1.0).abs() < 1e-9);
        // but it costs an extra level
        assert_eq!(y_enc.level() + 1, y_plain.level());
    }

    #[test]
    #[should_panic(expected = "two levels")]
    fn depth_check() {
        let ctx = CkksParams::tiny(1).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 902);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(903);
        let img = vec![0.5f32; 4];
        let x = encrypt_image_batch(&ev, &pk, &mut s, &[&img], 2, 1);
        let spec = EncryptedConvSpec::encrypt(&ev, &pk, &mut s, &[1.0], &[0.0], 1, 1, 1, 1, 0, 1);
        let _ = he_conv2d_encrypted(&ev, &rk, &x, &spec, ExecMode::sequential());
        let _ = sk;
    }
}
