//! The HENT model file: a serialized [`HeNetwork`].
//!
//! Little-endian `magic | input_side | layer_count | layers…`, weights
//! inline:
//!
//! ```text
//! conv  = 0 | in_ch | out_ch | k | stride | pad | f32s weight | f32s bias
//! dense = 1 | in_dim | out_dim | f32s weight | f32s bias
//! act   = 2 | f64s coefficients
//! ```
//!
//! where every field is a `u32` and `f32s`/`f64s` are a `u32` count
//! followed by the values.
//!
//! The reader is the gate a model file passes before anything lowers or
//! runs it (`he-ir check FILE.hent`, the bench model cache). Every byte
//! access is bounds-checked and every shape product overflow-checked,
//! and it accepts only networks [`crate::graph::lower_network`] and the
//! scalar engine can run: each layer's declared input matches what the
//! previous layer produces, no dimension is empty, and every SLAF has
//! degree 1–3. Failures are typed ([`ModelError`]).

use crate::he_layers::{ConvSpec, DenseSpec};
use crate::network::{HeLayerSpec, HeNetwork};
use std::fmt;

const MAGIC: u32 = 0x4845_4E54; // "HENT"

/// Typed HENT parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The byte stream ended mid-field.
    Truncated { at: usize, want: usize },
    /// The stream does not start with the HENT magic.
    BadMagic { found: u32 },
    /// A declared array length or shape product overflows the address
    /// space.
    LengthOverflow { at: usize },
    /// A layer's weight/bias payload disagrees with its declared shape.
    ShapeMismatch {
        layer: usize,
        kind: &'static str,
        expected: usize,
        found: usize,
    },
    /// A layer's declared input (conv `in_ch`, dense `in_dim`) differs
    /// from what the previous layer produces.
    InputMismatch {
        layer: usize,
        kind: &'static str,
        expected: usize,
        found: usize,
    },
    /// A conv after a dense layer: its input is no longer an image.
    ConvAfterDense { layer: usize },
    /// An empty dimension, a zero stride, or a kernel larger than the
    /// padded input.
    DegenerateGeometry { layer: usize, kind: &'static str },
    /// An activation whose coefficient count is outside `2..=4` (SLAF
    /// degree 1–3).
    BadActivation { layer: usize, coeffs: usize },
    /// An unrecognized layer tag.
    UnknownTag { layer: usize, tag: u32 },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Truncated { at, want } => {
                write!(f, "truncated at byte {at} (needed {want} more byte(s))")
            }
            ModelError::BadMagic { found } => {
                write!(f, "not a HENT model (bad magic 0x{found:08X})")
            }
            ModelError::LengthOverflow { at } => {
                write!(f, "array length or shape at byte {at} overflows")
            }
            ModelError::ShapeMismatch {
                layer,
                kind,
                expected,
                found,
            } => write!(
                f,
                "{kind} layer {layer}: shape mismatch (declared {expected}, payload {found})"
            ),
            ModelError::InputMismatch {
                layer,
                kind,
                expected,
                found,
            } => write!(
                f,
                "{kind} layer {layer}: declares input {found} but the previous layer \
                 produces {expected}"
            ),
            ModelError::ConvAfterDense { layer } => {
                write!(
                    f,
                    "conv layer {layer}: follows a dense layer, input is not an image"
                )
            }
            ModelError::DegenerateGeometry { layer, kind } => {
                write!(f, "{kind} layer {layer}: degenerate geometry")
            }
            ModelError::BadActivation { layer, coeffs } => write!(
                f,
                "activation layer {layer}: {coeffs} coefficient(s), a SLAF takes 2..=4 \
                 (degree 1–3)"
            ),
            ModelError::UnknownTag { layer, tag } => {
                write!(f, "layer {layer}: unknown tag {tag}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_u32(out, vs.len());
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len());
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes a network to HENT bytes.
pub fn network_to_bytes(net: &HeNetwork) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, MAGIC as usize);
    put_u32(&mut out, net.input_side);
    put_u32(&mut out, net.layers.len());
    for layer in &net.layers {
        match layer {
            HeLayerSpec::Conv(c) => {
                put_u32(&mut out, 0);
                for v in [c.in_ch, c.out_ch, c.k, c.stride, c.pad] {
                    put_u32(&mut out, v);
                }
                put_f32s(&mut out, &c.weight);
                put_f32s(&mut out, &c.bias);
            }
            HeLayerSpec::Dense(d) => {
                put_u32(&mut out, 1);
                put_u32(&mut out, d.in_dim);
                put_u32(&mut out, d.out_dim);
                put_f32s(&mut out, &d.weight);
                put_f32s(&mut out, &d.bias);
            }
            HeLayerSpec::Activation(c) => {
                put_u32(&mut out, 2);
                put_f64s(&mut out, c);
            }
        }
    }
    out
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next `len` bytes, bounds-checked: no slice access can panic.
    fn take(&mut self, len: usize) -> Result<&'a [u8], ModelError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(ModelError::LengthOverflow { at: self.pos })?;
        let b = self.data.get(self.pos..end).ok_or(ModelError::Truncated {
            at: self.pos,
            want: len,
        })?;
        self.pos = end;
        Ok(b)
    }

    fn u32(&mut self) -> Result<usize, ModelError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b) as usize)
    }

    /// A length-prefixed array of `W`-byte little-endian scalars.
    fn array<const W: usize, T>(&mut self, decode: fn([u8; W]) -> T) -> Result<Vec<T>, ModelError> {
        let at = self.pos;
        let n = self.u32()?;
        let bytes = n.checked_mul(W).ok_or(ModelError::LengthOverflow { at })?;
        Ok(self
            .take(bytes)?
            .chunks_exact(W)
            .map(|c| {
                let mut b = [0u8; W];
                b.copy_from_slice(c);
                decode(b)
            })
            .collect())
    }

    /// Overflow-checked product of shape dimensions.
    fn product(&self, dims: &[usize]) -> Result<usize, ModelError> {
        dims.iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(ModelError::LengthOverflow { at: self.pos })
    }
}

/// Parses HENT bytes into a network the lowering and the scalar engine
/// can run (see the module docs for what is checked).
pub fn network_from_bytes(data: &[u8]) -> Result<HeNetwork, ModelError> {
    let mut r = Reader { data, pos: 0 };
    let magic = r.u32()?;
    if magic != MAGIC as usize {
        return Err(ModelError::BadMagic {
            found: magic as u32,
        });
    }
    let input_side = r.u32()?;
    let count = r.u32()?;
    let mut layers = Vec::with_capacity(count.min(1024));
    // the tensor entering the next layer: `Some((c, h, w))` while it is
    // an image, `None` once a dense layer flattened it; `flat` = c·h·w
    let mut image = Some((1usize, input_side, input_side));
    let mut flat = r.product(&[input_side, input_side])?;
    for layer in 0..count {
        match r.u32()? {
            0 => {
                let kind = "conv";
                let [in_ch, out_ch, k, stride, pad] =
                    [r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?];
                let weight = r.array(f32::from_le_bytes)?;
                let bias = r.array(f32::from_le_bytes)?;
                let expected = r.product(&[out_ch, in_ch, k, k])?;
                check_payload(layer, kind, expected, weight.len())?;
                check_payload(layer, kind, out_ch, bias.len())?;
                let (c, h, w) = image.ok_or(ModelError::ConvAfterDense { layer })?;
                if in_ch != c {
                    return Err(ModelError::InputMismatch {
                        layer,
                        kind,
                        expected: c,
                        found: in_ch,
                    });
                }
                let padded = |side: usize| {
                    pad.checked_mul(2)
                        .and_then(|p| p.checked_add(side))
                        .ok_or(ModelError::LengthOverflow { at: r.pos })
                };
                let (ph, pw) = (padded(h)?, padded(w)?);
                if out_ch == 0 || k == 0 || stride == 0 || flat == 0 || ph < k || pw < k {
                    return Err(ModelError::DegenerateGeometry { layer, kind });
                }
                let (oh, ow) = ((ph - k) / stride + 1, (pw - k) / stride + 1);
                flat = r.product(&[out_ch, oh, ow])?;
                image = Some((out_ch, oh, ow));
                layers.push(HeLayerSpec::Conv(ConvSpec {
                    weight,
                    bias,
                    in_ch,
                    out_ch,
                    k,
                    stride,
                    pad,
                }));
            }
            1 => {
                let kind = "dense";
                let (in_dim, out_dim) = (r.u32()?, r.u32()?);
                let weight = r.array(f32::from_le_bytes)?;
                let bias = r.array(f32::from_le_bytes)?;
                let expected = r.product(&[in_dim, out_dim])?;
                check_payload(layer, kind, expected, weight.len())?;
                check_payload(layer, kind, out_dim, bias.len())?;
                if in_dim != flat {
                    return Err(ModelError::InputMismatch {
                        layer,
                        kind,
                        expected: flat,
                        found: in_dim,
                    });
                }
                if in_dim == 0 || out_dim == 0 {
                    return Err(ModelError::DegenerateGeometry { layer, kind });
                }
                flat = out_dim;
                image = None;
                layers.push(HeLayerSpec::Dense(DenseSpec {
                    weight,
                    bias,
                    in_dim,
                    out_dim,
                }));
            }
            2 => {
                let coeffs = r.array(f64::from_le_bytes)?;
                if !(2..=4).contains(&coeffs.len()) {
                    return Err(ModelError::BadActivation {
                        layer,
                        coeffs: coeffs.len(),
                    });
                }
                layers.push(HeLayerSpec::Activation(coeffs));
            }
            tag => {
                return Err(ModelError::UnknownTag {
                    layer,
                    tag: tag as u32,
                })
            }
        }
    }
    Ok(HeNetwork { layers, input_side })
}

fn check_payload(
    layer: usize,
    kind: &'static str,
    expected: usize,
    found: usize,
) -> Result<(), ModelError> {
    if expected == found {
        Ok(())
    } else {
        Err(ModelError::ShapeMismatch {
            layer,
            kind,
            expected,
            found,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{lower_network, EncodeSharing};
    use he_ir::GraphBuilder;

    /// conv(1→1,k2) → cubic SLAF → dense(4→2) on a 3×3 input.
    fn sample_net() -> HeNetwork {
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(ConvSpec {
                    weight: vec![0.5, -0.5, 0.25, 0.125],
                    bias: vec![0.1],
                    in_ch: 1,
                    out_ch: 1,
                    k: 2,
                    stride: 1,
                    pad: 0,
                }),
                HeLayerSpec::Activation(vec![0.0, 1.0, 0.5, 0.1]),
                HeLayerSpec::Dense(DenseSpec {
                    weight: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                    bias: vec![-1.0, 1.0],
                    in_dim: 4, // conv output: 1 ch × 2×2
                    out_dim: 2,
                }),
            ],
            input_side: 3,
        }
    }

    /// [`sample_net`] spelled out field by field: pins the byte format.
    fn sample_model() -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, MAGIC as usize);
        put_u32(&mut out, 3); // input_side
        put_u32(&mut out, 3); // layers
        put_u32(&mut out, 0); // conv
        for v in [1, 1, 2, 1, 0] {
            put_u32(&mut out, v);
        }
        put_f32s(&mut out, &[0.5, -0.5, 0.25, 0.125]);
        put_f32s(&mut out, &[0.1]);
        put_u32(&mut out, 2); // activation, degree 3
        put_f64s(&mut out, &[0.0, 1.0, 0.5, 0.1]);
        put_u32(&mut out, 1); // dense
        put_u32(&mut out, 4);
        put_u32(&mut out, 2);
        put_f32s(&mut out, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        put_f32s(&mut out, &[-1.0, 1.0]);
        out
    }

    /// A model header for `layers` layers over a `side`×`side` input.
    fn header(side: usize, layers: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [MAGIC as usize, side, layers] {
            put_u32(&mut out, v);
        }
        out
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let net = sample_net();
        let bytes = network_to_bytes(&net);
        assert_eq!(bytes, sample_model());
        let back = network_from_bytes(&bytes).unwrap();
        assert_eq!(back.input_side, 3);
        assert_eq!(back.layers.len(), 3);
        assert!(matches!(&back.layers[1], HeLayerSpec::Activation(c) if c.len() == 4));
        let img = vec![0.2f32; 9];
        assert_eq!(net.infer_plain(&img), back.infer_plain(&img));
    }

    #[test]
    fn reads_shapes_without_weights() {
        // the shapes the analysis lowers are header fields: a model whose
        // every weight and bias is zero reads back the same layers
        let mut net = sample_net();
        for layer in &mut net.layers {
            match layer {
                HeLayerSpec::Conv(c) => {
                    c.weight.fill(0.0);
                    c.bias.fill(0.0);
                }
                HeLayerSpec::Dense(d) => {
                    d.weight.fill(0.0);
                    d.bias.fill(0.0);
                }
                HeLayerSpec::Activation(_) => {}
            }
        }
        let back = network_from_bytes(&network_to_bytes(&net)).unwrap();
        assert_eq!(back.input_side, 3);
        let names: Vec<String> = back.layers.iter().map(HeLayerSpec::name).collect();
        assert_eq!(
            names,
            ["Conv(1→1, 2×2, s1, p0)", "SLAF(deg 3)", "Dense(4→2)"]
        );
        assert_eq!(back.required_levels(), 4);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(
            network_from_bytes(b"garbage"),
            Err(ModelError::BadMagic { .. })
        ));
        assert!(matches!(
            network_from_bytes(&[]),
            Err(ModelError::Truncated { at: 0, want: 4 })
        ));
        let bytes = sample_model();
        assert!(matches!(
            network_from_bytes(&bytes[..bytes.len() - 3]),
            Err(ModelError::Truncated { .. })
        ));
    }

    /// Every strict prefix of a valid model must fail cleanly (no
    /// panic), and always with a truncation or shape error.
    #[test]
    fn every_truncation_point_errors_without_panicking() {
        let bytes = sample_model();
        for cut in 0..bytes.len() {
            let err = network_from_bytes(&bytes[..cut])
                .expect_err(&format!("prefix of {cut} bytes should not parse"));
            assert!(
                matches!(
                    err,
                    ModelError::Truncated { .. } | ModelError::ShapeMismatch { .. }
                ),
                "cut {cut}: unexpected error {err}"
            );
        }
    }

    /// A length prefix claiming a huge array must not allocate or panic.
    #[test]
    fn corrupt_length_prefix_is_truncation_not_panic() {
        let mut bytes = sample_model();
        // the model ends with the dense bias array: 4-byte length + 2
        // f32s. Corrupting the length's low byte claims 255 elements.
        let n = bytes.len();
        bytes[n - 12] = 0xFF;
        assert!(matches!(
            network_from_bytes(&bytes),
            Err(ModelError::Truncated { .. })
        ));

        // u32::MAX elements × 8 bytes overflows on 32-bit and truncates
        // on 64-bit — either way, a typed error
        let mut out = header(3, 1);
        put_u32(&mut out, 2); // activation
        put_u32(&mut out, u32::MAX as usize); // coefficient count
        let err = network_from_bytes(&out).unwrap_err();
        assert!(
            matches!(
                err,
                ModelError::Truncated { .. } | ModelError::LengthOverflow { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_shape_mismatch_with_typed_detail() {
        let mut out = header(2, 1);
        put_u32(&mut out, 1); // dense claiming 4→2 but 3 weights
        put_u32(&mut out, 4);
        put_u32(&mut out, 2);
        put_f32s(&mut out, &[1.0; 3]);
        put_f32s(&mut out, &[0.0; 2]);
        match network_from_bytes(&out) {
            Err(ModelError::ShapeMismatch {
                layer,
                kind,
                expected,
                found,
            }) => {
                assert_eq!(layer, 0);
                assert_eq!(kind, "dense");
                assert_eq!(expected, 8);
                assert_eq!(found, 3);
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_and_empty_activation_are_typed() {
        let mut out = header(3, 1);
        put_u32(&mut out, 9); // bogus tag
        assert_eq!(
            network_from_bytes(&out).unwrap_err(),
            ModelError::UnknownTag { layer: 0, tag: 9 }
        );

        let mut out = header(3, 1);
        put_u32(&mut out, 2); // activation
        put_f64s(&mut out, &[]);
        assert_eq!(
            network_from_bytes(&out).unwrap_err(),
            ModelError::BadActivation {
                layer: 0,
                coeffs: 0
            }
        );
    }

    #[test]
    fn conv_channel_mismatch_is_typed() {
        // the input image has one channel; the conv declares two
        let mut net = sample_net();
        if let HeLayerSpec::Conv(c) = &mut net.layers[0] {
            c.in_ch = 2;
            c.weight = vec![0.5; 8];
        }
        assert_eq!(
            network_from_bytes(&network_to_bytes(&net)).unwrap_err(),
            ModelError::InputMismatch {
                layer: 0,
                kind: "conv",
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn dense_input_mismatch_is_typed() {
        // the conv produces 1×2×2 = 4 values; the dense declares 5
        let mut net = sample_net();
        if let HeLayerSpec::Dense(d) = &mut net.layers[2] {
            d.in_dim = 5;
            d.weight = vec![1.0; 10];
        }
        assert_eq!(
            network_from_bytes(&network_to_bytes(&net)).unwrap_err(),
            ModelError::InputMismatch {
                layer: 2,
                kind: "dense",
                expected: 4,
                found: 5
            }
        );
    }

    #[test]
    fn activation_degree_out_of_range_is_typed() {
        for coeffs in [vec![0.5], vec![0.0, 1.0, 0.5, 0.1, 0.01]] {
            let mut net = sample_net();
            net.layers[1] = HeLayerSpec::Activation(coeffs.clone());
            assert_eq!(
                network_from_bytes(&network_to_bytes(&net)).unwrap_err(),
                ModelError::BadActivation {
                    layer: 1,
                    coeffs: coeffs.len()
                }
            );
        }
    }

    #[test]
    fn degenerate_geometry_and_conv_after_dense_are_typed() {
        // a 3-wide kernel on a 2×2 image
        let mut out = header(2, 1);
        put_u32(&mut out, 0);
        for v in [1, 1, 3, 1, 0] {
            put_u32(&mut out, v);
        }
        put_f32s(&mut out, &[0.1; 9]);
        put_f32s(&mut out, &[0.0]);
        assert_eq!(
            network_from_bytes(&out).unwrap_err(),
            ModelError::DegenerateGeometry {
                layer: 0,
                kind: "conv"
            }
        );

        let mut net = sample_net();
        net.layers.push(net.layers[0].clone());
        assert_eq!(
            network_from_bytes(&network_to_bytes(&net)).unwrap_err(),
            ModelError::ConvAfterDense { layer: 3 }
        );
    }

    /// Whatever a corrupted byte turns the file into, it is either a
    /// typed error or a network the lowering takes without panicking.
    #[test]
    fn single_byte_corruptions_error_or_lower_cleanly() {
        let bytes = sample_model();
        for i in 0..bytes.len() {
            for v in [0u8, 1, 0x7F, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] = v;
                if let Ok(net) = network_from_bytes(&bad) {
                    let params = ckks::CkksParams::tiny(net.required_levels().max(1));
                    let c = lower_network(&net, GraphBuilder::new(params), EncodeSharing::Shared);
                    assert_eq!(c.regions.len(), net.layers.len(), "byte {i} = {v}");
                }
            }
        }
    }
}
