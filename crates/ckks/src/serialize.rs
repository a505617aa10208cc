//! Binary serialization of ciphertexts, plaintexts and public key
//! material — the wire format a client and an untrusted evaluation server
//! exchange in the paper's Fig. 1 deployment.
//!
//! Format: little-endian, versioned magic header per object. Polynomials
//! serialize their limb set and residues verbatim; deserialization
//! validates shapes and residue ranges against the receiving context, so
//! a corrupted or mismatched blob fails loudly rather than decrypting to
//! garbage. Key-switching keys carry one RLWE pair per key-switch digit
//! of the receiving context ([`CkksContext::digit_partition`]), and a
//! blob whose digit count differs is refused. Relinearization-key blobs
//! are at version 2 and Galois-key blobs at version 3: the versions
//! before carried one digit per chain limb, and Galois keys before
//! their version 2 carried payload `σ_g(s)` under `s` (they now carry
//! `s` under `σ_g⁻¹(s)`), so older blobs are refused by their header.
//! Every key-switching key opens with a tag byte, always 0 (keys are
//! drawn over the chain and the special primes); any other tag is
//! refused before a digit is read.

use crate::ciphertext::Ciphertext;
use crate::encoding::Plaintext;
use crate::keys::{GaloisKeys, KeySwitchKey, PublicKey, RelinKey};
use crate::params::CkksContext;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ckks_math::poly::{Form, RnsPoly};
use std::sync::Arc;

const MAGIC_CT: u32 = 0x434b_4354; // "CKCT"
const MAGIC_PT: u32 = 0x434b_5054; // "CKPT"
const MAGIC_PK: u32 = 0x434b_504b; // "CKPK"
const MAGIC_KSK: u32 = 0x434b_4b53; // "CKKS"
const MAGIC_GK: u32 = 0x434b_474b; // "CKGK"

/// Serialization/deserialization errors.
#[derive(Debug, PartialEq, Eq)]
pub enum SerError {
    /// Wrong magic or version.
    BadHeader,
    /// Truncated input.
    Truncated,
    /// Shape or range inconsistent with the context.
    Malformed(&'static str),
}

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerError::BadHeader => write!(f, "bad magic/version header"),
            SerError::Truncated => write!(f, "truncated input"),
            SerError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for SerError {}

fn need(buf: &impl Buf, n: usize) -> Result<(), SerError> {
    if buf.remaining() < n {
        Err(SerError::Truncated)
    } else {
        Ok(())
    }
}

fn put_poly(out: &mut BytesMut, p: &RnsPoly) {
    out.put_u8(match p.form() {
        Form::Coeff => 0,
        Form::Ntt => 1,
    });
    out.put_u16_le(p.num_limbs() as u16);
    for &idx in p.limb_indices() {
        out.put_u16_le(idx as u16);
    }
    for li in 0..p.num_limbs() {
        for &v in p.limb(li) {
            out.put_u64_le(v);
        }
    }
}

fn get_poly(buf: &mut Bytes, ctx: &Arc<CkksContext>) -> Result<RnsPoly, SerError> {
    need(buf, 3)?;
    let form = match buf.get_u8() {
        0 => Form::Coeff,
        1 => Form::Ntt,
        _ => return Err(SerError::Malformed("bad form tag")),
    };
    let k = buf.get_u16_le() as usize;
    if k == 0 || k > ctx.poly_ctx().moduli().len() {
        return Err(SerError::Malformed("bad limb count"));
    }
    need(buf, 2 * k)?;
    let mut indices = Vec::with_capacity(k);
    for _ in 0..k {
        let idx = buf.get_u16_le() as usize;
        if idx >= ctx.poly_ctx().moduli().len() {
            return Err(SerError::Malformed("limb index out of range"));
        }
        indices.push(idx);
    }
    let n = ctx.n();
    need(buf, 8 * k * n)?;
    let mut limbs = Vec::with_capacity(k);
    for (li, &idx) in indices.iter().enumerate() {
        let p = ctx.poly_ctx().moduli()[idx].value();
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            let v = buf.get_u64_le();
            if v >= p {
                let _ = li;
                return Err(SerError::Malformed("residue out of range"));
            }
            data.push(v);
        }
        limbs.push(data);
    }
    Ok(RnsPoly::from_parts(
        Arc::clone(ctx.poly_ctx()),
        indices,
        limbs,
        form,
    ))
}

/// The header version of each object (key blobs are ahead, see the
/// module docs).
fn version_of(magic: u32) -> u16 {
    match magic {
        MAGIC_KSK => 2,
        MAGIC_GK => 3,
        _ => 1,
    }
}

fn put_header(out: &mut BytesMut, magic: u32) {
    out.put_u32_le(magic);
    out.put_u16_le(version_of(magic));
}

fn check_header(buf: &mut Bytes, magic: u32) -> Result<(), SerError> {
    need(buf, 6)?;
    if buf.get_u32_le() != magic || buf.get_u16_le() != version_of(magic) {
        return Err(SerError::BadHeader);
    }
    Ok(())
}

/// Serializes a ciphertext.
pub fn serialize_ciphertext(ct: &Ciphertext) -> Bytes {
    let mut out = BytesMut::new();
    put_header(&mut out, MAGIC_CT);
    out.put_f64_le(ct.scale);
    out.put_u16_le(ct.level as u16);
    out.put_u32_le(ct.slots as u32);
    put_poly(&mut out, &ct.c0);
    put_poly(&mut out, &ct.c1);
    out.freeze()
}

/// Deserializes a ciphertext, validating against `ctx`.
pub fn deserialize_ciphertext(data: &[u8], ctx: &Arc<CkksContext>) -> Result<Ciphertext, SerError> {
    let mut buf = Bytes::copy_from_slice(data);
    check_header(&mut buf, MAGIC_CT)?;
    need(&buf, 8 + 2 + 4)?;
    let scale = buf.get_f64_le();
    let level = buf.get_u16_le() as usize;
    let slots = buf.get_u32_le() as usize;
    if level > ctx.max_level() {
        return Err(SerError::Malformed("level out of range"));
    }
    if !scale.is_finite() || scale <= 0.0 {
        return Err(SerError::Malformed("bad scale"));
    }
    let ct = Ciphertext {
        c0: get_poly(&mut buf, ctx)?,
        c1: get_poly(&mut buf, ctx)?,
        scale,
        level,
        slots,
    };
    ct.check_shape(ctx.poly_ctx().chain_len())
        .map_err(SerError::Malformed)?;
    Ok(ct)
}

/// Serializes a plaintext.
pub fn serialize_plaintext(pt: &Plaintext) -> Bytes {
    let mut out = BytesMut::new();
    put_header(&mut out, MAGIC_PT);
    out.put_f64_le(pt.scale);
    out.put_u16_le(pt.level as u16);
    out.put_u32_le(pt.slots as u32);
    put_poly(&mut out, &pt.poly);
    out.freeze()
}

/// Deserializes a plaintext.
pub fn deserialize_plaintext(data: &[u8], ctx: &Arc<CkksContext>) -> Result<Plaintext, SerError> {
    let mut buf = Bytes::copy_from_slice(data);
    check_header(&mut buf, MAGIC_PT)?;
    need(&buf, 14)?;
    let scale = buf.get_f64_le();
    let level = buf.get_u16_le() as usize;
    let slots = buf.get_u32_le() as usize;
    let poly = get_poly(&mut buf, ctx)?;
    Ok(Plaintext {
        poly,
        scale,
        level,
        slots,
    })
}

/// Serializes a public key.
pub fn serialize_public_key(pk: &PublicKey) -> Bytes {
    let mut out = BytesMut::new();
    put_header(&mut out, MAGIC_PK);
    put_poly(&mut out, pk.b());
    put_poly(&mut out, pk.a());
    out.freeze()
}

/// Deserializes a public key.
pub fn deserialize_public_key(data: &[u8], ctx: &Arc<CkksContext>) -> Result<PublicKey, SerError> {
    let mut buf = Bytes::copy_from_slice(data);
    check_header(&mut buf, MAGIC_PK)?;
    let b = get_poly(&mut buf, ctx)?;
    let a = get_poly(&mut buf, ctx)?;
    Ok(PublicKey::from_parts(b, a))
}

/// The tag byte every key-switching key opens with.
const KSK_TAG: u8 = 0;

fn put_ksk(out: &mut BytesMut, ksk: &KeySwitchKey) {
    out.put_u8(KSK_TAG);
    out.put_u16_le(ksk.digits().len() as u16);
    for (b, a) in ksk.digits() {
        put_poly(out, b);
        put_poly(out, a);
    }
}

fn get_ksk(buf: &mut Bytes, ctx: &Arc<CkksContext>) -> Result<KeySwitchKey, SerError> {
    need(buf, 3)?;
    if buf.get_u8() != KSK_TAG {
        return Err(SerError::Malformed("bad ks variant"));
    }
    let k = buf.get_u16_le() as usize;
    if k != ctx.digit_partition().len() {
        return Err(SerError::Malformed("digit count mismatch"));
    }
    // the basis key generation draws each digit over
    let basis = ctx.poly_ctx().moduli().len();
    let mut digits = Vec::with_capacity(k);
    for _ in 0..k {
        let (b, a) = (get_poly(buf, ctx)?, get_poly(buf, ctx)?);
        for p in [&b, &a] {
            if p.form() != Form::Ntt || !p.limb_indices().iter().copied().eq(0..basis) {
                return Err(SerError::Malformed(
                    "key digit not in NTT form over its basis",
                ));
            }
        }
        digits.push((b, a));
    }
    Ok(KeySwitchKey::from_parts(digits))
}

/// Serializes a relinearization key.
pub fn serialize_relin_key(rk: &RelinKey) -> Bytes {
    let mut out = BytesMut::new();
    put_header(&mut out, MAGIC_KSK);
    put_ksk(&mut out, &rk.0);
    out.freeze()
}

/// Deserializes a relinearization key.
pub fn deserialize_relin_key(data: &[u8], ctx: &Arc<CkksContext>) -> Result<RelinKey, SerError> {
    let mut buf = Bytes::copy_from_slice(data);
    check_header(&mut buf, MAGIC_KSK)?;
    Ok(RelinKey(get_ksk(&mut buf, ctx)?))
}

/// Serializes Galois keys.
pub fn serialize_galois_keys(gk: &GaloisKeys) -> Bytes {
    let mut out = BytesMut::new();
    put_header(&mut out, MAGIC_GK);
    let mut elements: Vec<usize> = gk.elements().collect();
    elements.sort_unstable();
    out.put_u16_le(elements.len() as u16);
    for g in elements {
        out.put_u32_le(g as u32);
        put_ksk(&mut out, gk.get(g).expect("element listed but missing"));
    }
    out.freeze()
}

/// Deserializes Galois keys.
pub fn deserialize_galois_keys(
    data: &[u8],
    ctx: &Arc<CkksContext>,
) -> Result<GaloisKeys, SerError> {
    let mut buf = Bytes::copy_from_slice(data);
    check_header(&mut buf, MAGIC_GK)?;
    need(&buf, 2)?;
    let count = buf.get_u16_le() as usize;
    let mut gk = GaloisKeys::default();
    for _ in 0..count {
        need(&buf, 4)?;
        let g = buf.get_u32_le() as usize;
        if g.is_multiple_of(2) || g >= 2 * ctx.n() {
            return Err(SerError::Malformed("bad galois element"));
        }
        gk.insert(g, get_ksk(&mut buf, ctx)?);
    }
    Ok(gk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding;
    use crate::eval::Evaluator;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use ckks_math::sampler::Sampler;

    fn setup() -> (
        Arc<CkksContext>,
        crate::keys::SecretKey,
        PublicKey,
        Evaluator,
        Sampler,
    ) {
        let ctx = CkksParams::tiny(2).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 50);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        (ctx, sk, pk, ev, Sampler::from_seed(51))
    }

    #[test]
    fn ciphertext_roundtrip() {
        let (ctx, sk, pk, ev, mut s) = setup();
        let vals: Vec<f64> = (0..64).map(|i| 0.01 * i as f64).collect();
        let ct = ev.encrypt_real(&vals, &pk, &mut s);
        let blob = serialize_ciphertext(&ct);
        let back = deserialize_ciphertext(&blob, &ctx).unwrap();
        assert_eq!(back.level, ct.level);
        assert_eq!(back.slots, ct.slots);
        let dec = ev.decrypt_to_real(&back, &sk);
        for (a, b) in dec.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn plaintext_roundtrip() {
        let (ctx, _, _, _, _) = setup();
        let pt = encoding::encode_real(&ctx, &[1.0, -2.0, 3.5], ctx.params().scale(), 1);
        let blob = serialize_plaintext(&pt);
        let back = deserialize_plaintext(&blob, &ctx).unwrap();
        let dec = encoding::decode_real(&ctx, &back);
        assert!((dec[0] - 1.0).abs() < 1e-6);
        assert!((dec[1] + 2.0).abs() < 1e-6);
        assert!((dec[2] - 3.5).abs() < 1e-6);
    }

    #[test]
    fn public_key_roundtrip_usable() {
        let (ctx, sk, pk, ev, mut s) = setup();
        let blob = serialize_public_key(&pk);
        let pk2 = deserialize_public_key(&blob, &ctx).unwrap();
        let ct = ev.encrypt_real(&[0.5, 0.25], &pk2, &mut s);
        let dec = ev.decrypt_to_real(&ct, &sk);
        assert!((dec[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn relin_key_roundtrip_usable() {
        let (ctx, sk, pk, ev, mut s) = setup();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 50);
        let _ = kg.gen_secret_key(); // advance to match fixture determinism (unused)
        let rk = KeyGenerator::new(Arc::clone(&ctx), 99).gen_relin_key(&sk);
        let blob = serialize_relin_key(&rk);
        let rk2 = deserialize_relin_key(&blob, &ctx).unwrap();
        let vals = vec![0.5; 16];
        let ct = ev.encrypt_real(&vals, &pk, &mut s);
        let sq = ev.rescale(&ev.multiply(&ct, &ct, &rk2));
        let dec = ev.decrypt_to_real(&sq, &sk);
        assert!((dec[0] - 0.25).abs() < 1e-3, "{}", dec[0]);
    }

    #[test]
    fn galois_keys_roundtrip_usable() {
        let (ctx, sk, pk, ev, mut s) = setup();
        let gk = {
            let mut kg2 = KeyGenerator::new(Arc::clone(&ctx), 98);
            kg2.gen_galois_keys(&sk, &[2], false)
        };
        let blob = serialize_galois_keys(&gk);
        let gk2 = deserialize_galois_keys(&blob, &ctx).unwrap();
        let slots = ctx.slots();
        let vals: Vec<f64> = (0..slots).map(|i| i as f64 / slots as f64).collect();
        let ct = ev.encrypt_real(&vals, &pk, &mut s);
        let rot = ev.rotate(&ct, 2, &gk2);
        let dec = ev.decrypt_to_real(&rot, &sk);
        assert!((dec[0] - vals[2]).abs() < 1e-3);
    }

    /// Deserialized Galois keys rotate limb-identically to the keys
    /// they were serialized from; a blob of an earlier version is
    /// refused.
    #[test]
    fn galois_keys_roundtrip_rotates_limb_identically() {
        let (ctx, sk, pk, ev, mut s) = setup();
        let gk = KeyGenerator::new(Arc::clone(&ctx), 97).gen_galois_keys(&sk, &[1, -3], false);
        let blob = serialize_galois_keys(&gk);
        let gk2 = deserialize_galois_keys(&blob, &ctx).unwrap();
        let ct = ev.encrypt_real(&[0.5, -0.25, 0.125], &pk, &mut s);
        for (a, b) in [
            (ev.rotate(&ct, 1, &gk), ev.rotate(&ct, 1, &gk2)),
            (ev.rotate(&ct, -3, &gk), ev.rotate(&ct, -3, &gk2)),
        ] {
            assert_eq!(a.c0.limbs_flat(), b.c0.limbs_flat());
            assert_eq!(a.c1.limbs_flat(), b.c1.limbs_flat());
        }
        for version in [1u16, 2] {
            let mut old = blob.to_vec();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                deserialize_galois_keys(&old, &ctx).unwrap_err(),
                SerError::BadHeader
            );
        }
    }

    /// The key-switching tag byte is always 0; any other tag is refused
    /// before a digit is read.
    #[test]
    fn relin_key_with_another_tag_refused() {
        let (ctx, sk, ..) = setup();
        let rk = KeyGenerator::new(Arc::clone(&ctx), 95).gen_relin_key(&sk);
        let blob = serialize_relin_key(&rk).to_vec();
        for tag in [1u8, 2] {
            let mut bad = blob.clone();
            bad[6] = tag; // after the magic and the version
            assert_eq!(
                deserialize_relin_key(&bad, &ctx).unwrap_err(),
                SerError::Malformed("bad ks variant"),
                "tag {tag}"
            );
        }
    }

    /// Relin and Galois key blobs over a 16-coefficient ring with two
    /// special primes (three digits), small enough to probe every byte,
    /// each with its decoder.
    #[allow(clippy::type_complexity)]
    fn small_key_blobs() -> Vec<(Vec<u8>, Box<dyn Fn(&[u8]) -> Result<(), SerError>>)> {
        let ctx = CkksParams::paper(16, 5).build();
        assert_eq!(ctx.digit_partition().len(), 3);
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 98);
        let sk = kg.gen_secret_key();
        let rk = serialize_relin_key(&kg.gen_relin_key(&sk)).to_vec();
        let gk = serialize_galois_keys(&kg.gen_galois_keys(&sk, &[1, 2], true)).to_vec();
        let ctx2 = Arc::clone(&ctx);
        vec![
            (
                rk,
                Box::new(move |b: &[u8]| deserialize_relin_key(b, &ctx).map(drop)),
            ),
            (
                gk,
                Box::new(move |b: &[u8]| deserialize_galois_keys(b, &ctx2).map(drop)),
            ),
        ]
    }

    /// Every truncation of a key blob is refused as truncated, and an
    /// earlier version of either blob by its header.
    #[test]
    fn truncated_or_old_key_blobs_refused() {
        for (blob, decode) in small_key_blobs() {
            decode(&blob).expect("the whole blob decodes");
            for len in 0..blob.len() {
                assert_eq!(
                    decode(&blob[..len]),
                    Err(SerError::Truncated),
                    "{len} bytes"
                );
            }
            let mut old = blob.clone();
            old[4] -= 1;
            assert_eq!(decode(&old), Err(SerError::BadHeader));
        }
    }

    /// A digit count other than the context's partition, and a limb
    /// index past the basis, are refused typed.
    #[test]
    fn key_blob_lying_digit_count_or_limb_index_refused() {
        for (blob, decode) in small_key_blobs() {
            // the first key-switching key's digit count follows its tag
            // byte: after the header (6), and for Galois keys after the
            // element count (2) and the first element (4)
            let count_at = if blob[..4] == MAGIC_GK.to_le_bytes() {
                13
            } else {
                7
            };
            assert_eq!(u16::from_le_bytes([blob[count_at], blob[count_at + 1]]), 3);
            for lie in [0u16, 1, 2, 4, 9] {
                let mut bad = blob.clone();
                bad[count_at..count_at + 2].copy_from_slice(&lie.to_le_bytes());
                assert_eq!(
                    decode(&bad),
                    Err(SerError::Malformed("digit count mismatch")),
                    "{lie} digits"
                );
            }
            // the first digit's b: form tag, limb count, then the indices
            let first_index = count_at + 2 + 1 + 2;
            for past in [8u16, 9, u16::MAX] {
                let mut bad = blob.clone();
                bad[first_index..first_index + 2].copy_from_slice(&past.to_le_bytes());
                assert_eq!(
                    decode(&bad),
                    Err(SerError::Malformed("limb index out of range")),
                    "limb index {past}"
                );
            }
        }
    }

    // Any byte of a key blob set to any value decodes or is refused
    // typed — never a panic.
    proptest::proptest! {
        #[test]
        fn prop_corrupted_key_blob_never_panics(
            which in 0usize..2,
            at in proptest::prelude::any::<u64>(),
            byte in proptest::prelude::any::<u8>(),
        ) {
            let blobs = small_key_blobs();
            let (blob, decode) = &blobs[which];
            let mut bad = blob.clone();
            let i = (at % bad.len() as u64) as usize;
            bad[i] = byte;
            let _ = decode(&bad);
        }
    }

    /// Serializes `ct` after `tamper` and deserializes it.
    fn tampered(
        tamper: impl FnOnce(&mut Ciphertext),
    ) -> (Result<Ciphertext, SerError>, Ciphertext) {
        let (ctx, _, pk, ev, mut s) = setup();
        let mut ct = ev.encrypt_real(&[0.5, 0.25], &pk, &mut s);
        tamper(&mut ct);
        (deserialize_ciphertext(&serialize_ciphertext(&ct), &ctx), ct)
    }

    #[test]
    fn ciphertext_without_slots_refused() {
        let (got, _) = tampered(|ct| ct.slots = 0);
        assert_eq!(got.unwrap_err(), SerError::Malformed("no slots"));
    }

    /// A coefficient-form half is refused on the wire, and the
    /// evaluator refuses it typed instead of asserting in the
    /// NTT-domain automorphism.
    #[test]
    fn coefficient_form_ciphertext_refused() {
        let (ctx, sk, ..) = setup();
        let (got, ct) = tampered(|ct| ct.c0.ntt_inverse());
        let want = "a half in coefficient form";
        assert_eq!(got.unwrap_err(), SerError::Malformed(want));
        let gk = KeyGenerator::new(Arc::clone(&ctx), 96).gen_galois_keys(&sk, &[1], false);
        let ev = Evaluator::new(Arc::clone(&ctx));
        assert_eq!(
            ev.try_rotate(&ct, 1, &gk).unwrap_err(),
            crate::HeError::MalformedCiphertext(want)
        );
    }

    /// Limb sets other than `0..=level` — a duplicate chain limb, or the
    /// special limb — would pair key-switch digits with the wrong primes.
    #[test]
    fn ciphertext_with_foreign_limbs_refused() {
        let (ctx, _, pk, ev, mut s) = setup();
        let ct = ev.encrypt_real(&[0.5, 0.25], &pk, &mut s);
        // header, scale, level, slots; then c0's form tag, limb count
        // and limb indices, the last of them at `top`
        let top = 6 + 8 + 2 + 4 + 1 + 2 + 2 * ct.level;
        for foreign in [1u16, 3] {
            let mut blob = serialize_ciphertext(&ct).to_vec();
            blob[top..top + 2].copy_from_slice(&foreign.to_le_bytes());
            assert_eq!(
                deserialize_ciphertext(&blob, &ctx).unwrap_err(),
                SerError::Malformed("limbs other than 0..=level"),
                "limb {foreign} in place of the top limb"
            );
        }
    }

    #[test]
    fn corrupted_blobs_rejected() {
        let (ctx, _, pk, ev, mut s) = setup();
        let ct = ev.encrypt_real(&[1.0], &pk, &mut s);
        let blob = serialize_ciphertext(&ct);

        // bad magic
        let mut bad = blob.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            deserialize_ciphertext(&bad, &ctx).unwrap_err(),
            SerError::BadHeader
        );

        // truncation
        assert_eq!(
            deserialize_ciphertext(&blob[..blob.len() / 2], &ctx).unwrap_err(),
            SerError::Truncated
        );

        // out-of-range residue: find a residue byte region and saturate it
        let mut bad2 = blob.to_vec();
        let tail = bad2.len() - 8;
        bad2[tail..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            deserialize_ciphertext(&bad2, &ctx).unwrap_err(),
            SerError::Malformed(_)
        ));
    }

    #[test]
    fn empty_input_rejected() {
        let (ctx, _, _, _, _) = setup();
        assert_eq!(
            deserialize_ciphertext(&[], &ctx).unwrap_err(),
            SerError::Truncated
        );
    }
}
