//! The IR's value types: per-node ciphertext/plaintext metadata.
//!
//! Every node in a [`crate::Circuit`] carries the type of the value it
//! produces. For ciphertexts that is `CtType {level, scale, slots,
//! layout}` — exactly the metadata the eager `ckks::Evaluator` threads
//! through its `Ciphertext` struct, so a lowered circuit's declared
//! types can be diffed bit-for-bit against an eager run. The scale is
//! stored as the exact `f64` the evaluator would compute (nominal
//! `2^bits` values for plan-level lowering, real chain-prime values for
//! network lowering); `log2_scale()` gives the bits view static
//! analysis reasons in.

/// How slots of a ciphertext are interpreted by the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Scalar CryptoNets packing: one ciphertext per activation scalar,
    /// slots indexed by image batch position.
    BatchSlots,
    /// Packed BSGS layout (`ckks::PackLayout`): `stride` lanes
    /// interleaved, element `j` of lane `b` in slot `j·stride + b`,
    /// repeating cyclically when `dim·stride` is below the slot count.
    /// A batch past one ciphertext's lanes is several independent runs
    /// of the same circuit (one per shard), so no layout spans
    /// ciphertexts.
    BatchStrided {
        /// Lanes per ciphertext = slot distance between consecutive
        /// elements of one lane.
        stride: usize,
    },
}

impl Layout {
    /// Slot distance between consecutive elements of one lane — 1 for
    /// the scalar layout, the declared stride for the batch-strided
    /// layout. This is what [`crate::Op::EncodeVec`]
    /// broadcast expansion uses.
    pub fn lane_stride(&self) -> usize {
        match self {
            Layout::BatchSlots => 1,
            Layout::BatchStrided { stride } => *stride,
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layout::BatchSlots => write!(f, "batch"),
            Layout::BatchStrided { stride } => write!(f, "strided×{stride}"),
        }
    }
}

/// The RNS basis a ciphertext's limbs span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Basis {
    /// The modulus chain `q_0..q_ℓ`: a `ckks::Ciphertext`.
    #[default]
    Chain,
    /// The key-switch basis, chain limbs `0..=ℓ` plus the special
    /// limbs: a `ckks::ExtCiphertext`, decrypting to `P·m` at the same
    /// scale. Only `mul_plain`, `mac_plain`, `add` and `mod_down` read
    /// one ([`crate::Circuit::validate`]).
    KeySwitch,
}

/// Type of a ciphertext value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtType {
    /// Modulus-chain level the ciphertext lives at.
    pub level: usize,
    /// Exact scale Δ (the same `f64` the evaluator tracks).
    pub scale: f64,
    /// Slot count (`N/2`).
    pub slots: usize,
    /// Slot interpretation.
    pub layout: Layout,
    /// The limbs the ciphertext spans.
    pub basis: Basis,
}

impl CtType {
    /// The scale in bits — the domain static analysis reasons in.
    pub fn log2_scale(&self) -> f64 {
        self.scale.log2()
    }

    /// Whether the value spans the key-switch basis.
    pub fn is_ext(&self) -> bool {
        self.basis == Basis::KeySwitch
    }
}

impl std::fmt::Display for CtType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ct<L{}{}, Δ2^{:.2}, {} slots, {}>",
            self.level,
            if self.is_ext() { "+P" } else { "" },
            self.log2_scale(),
            self.slots,
            self.layout
        )
    }
}

/// Type of an encoded-plaintext value (a prepared scalar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlainType {
    /// Level whose residue basis the plaintext is encoded in.
    pub level: usize,
    /// Exact plaintext scale.
    pub pt_scale: f64,
}

impl std::fmt::Display for PlainType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pt<L{}, Δ2^{:.2}>", self.level, self.pt_scale.log2())
    }
}

/// Type of any IR value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueTy {
    Ct(CtType),
    Plain(PlainType),
}

impl ValueTy {
    /// The ciphertext type, if this is a ciphertext value.
    pub fn as_ct(&self) -> Option<&CtType> {
        match self {
            ValueTy::Ct(t) => Some(t),
            ValueTy::Plain(_) => None,
        }
    }

    /// Whether this is a ciphertext over the key-switch basis.
    pub fn is_ext(&self) -> bool {
        self.as_ct().is_some_and(CtType::is_ext)
    }

    /// The plaintext type, if this is an encoded-plaintext value.
    pub fn as_plain(&self) -> Option<&PlainType> {
        match self {
            ValueTy::Plain(t) => Some(t),
            ValueTy::Ct(_) => None,
        }
    }
}

impl std::fmt::Display for ValueTy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueTy::Ct(t) => t.fmt(f),
            ValueTy::Plain(t) => t.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_scale_is_exact_for_powers_of_two() {
        let t = CtType {
            level: 3,
            scale: 2f64.powi(26),
            slots: 512,
            layout: Layout::BatchSlots,
            basis: Basis::Chain,
        };
        assert_eq!(t.log2_scale(), 26.0);
        assert_eq!(t.to_string(), "ct<L3, Δ2^26.00, 512 slots, batch>");
        let ext = CtType {
            basis: Basis::KeySwitch,
            ..t
        };
        assert_eq!(ext.to_string(), "ct<L3+P, Δ2^26.00, 512 slots, batch>");
    }

    #[test]
    fn value_ty_accessors() {
        let ct = ValueTy::Ct(CtType {
            level: 1,
            scale: 2f64.powi(26),
            slots: 128,
            layout: Layout::BatchStrided { stride: 1 },
            basis: Basis::Chain,
        });
        let pt = ValueTy::Plain(PlainType {
            level: 1,
            pt_scale: 2f64.powi(40),
        });
        assert!(ct.as_ct().is_some() && ct.as_plain().is_none());
        assert!(pt.as_plain().is_some() && pt.as_ct().is_none());
    }

    #[test]
    fn packed_layouts_render_their_shape() {
        assert_eq!(Layout::BatchStrided { stride: 8 }.to_string(), "strided×8");
    }
}
