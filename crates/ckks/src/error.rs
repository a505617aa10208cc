//! Typed errors for ciphertext-metadata violations.
//!
//! Every variant corresponds to a precondition the evaluator checks
//! before touching polynomial data: level exhaustion, scale
//! incompatibility, missing key material. The `Display` text of each
//! variant is the panic message of the corresponding infallible
//! evaluator method, so `try_*` callers and panic-path callers see the
//! same wording, and the `he-ir` static passes can surface the same
//! diagnostics without running the circuit.

/// A ciphertext-metadata violation detected before (or instead of)
/// polynomial arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum HeError {
    /// A rotation was requested for a Galois element with no generated
    /// key-switching key.
    MissingGaloisKey {
        /// The Galois element `5^r mod 2N` of the rotation by `r`.
        elem: usize,
        /// Elements a key exists for, sorted ascending.
        available: Vec<usize>,
    },
    /// An operation needed more modulus-chain levels than the ciphertext
    /// has left.
    LevelExhausted {
        /// The operation that ran out of levels.
        op: &'static str,
        /// Current ciphertext level.
        level: usize,
        /// Levels the operation consumes.
        needed: usize,
    },
    /// `mod_switch_to_level` asked for a level above the current one.
    ModSwitchUpward { from: usize, to: usize },
    /// Two operands' scales differ beyond `SCALE_RTOL`.
    ScaleMismatch { a: f64, b: f64 },
    /// Two operands sit at different levels (mod-switch first).
    LevelMismatch { a: usize, b: usize },
    /// A ciphertext key switching cannot read: no slots, a half in
    /// coefficient form, or limbs other than `0..=level` of the chain.
    MalformedCiphertext(&'static str),
    /// A plaintext operand of an operation over the key-switch basis
    /// (an [`ExtCiphertext`](crate::ExtCiphertext)) is not encoded over
    /// that basis: the chain limbs `0..=level` and the special limbs.
    PlaintextBasisMismatch,
    /// An RNS input codec's radix weights (`β_j = Π_{i<j} m_j`) overflow
    /// the i128 recomposition arithmetic — too many / too large stream
    /// moduli.
    CodecRadixOverflow {
        /// Number of streams requested.
        k: usize,
        /// The modulus whose inclusion overflowed the running product.
        modulus: u64,
    },
    /// A recomposed digit value `Σ_j β_j·d_j` exceeds the i64 output
    /// domain: the digit planes are inconsistent with the codec's
    /// declared dynamic range.
    CodecRecomposeOverflow {
        /// Index of the offending element within the planes.
        index: usize,
        /// The out-of-range recomposed value.
        value: i128,
    },
    /// A batched packing request asked for more lanes than the layout
    /// (or the ring) can hold — `batch` vectors were offered where at
    /// most `capacity` fit.
    BatchExceedsSlots {
        /// Lanes requested.
        batch: usize,
        /// Lanes the layout/ring can carry (`0` when even a single
        /// vector does not fit the slot count).
        capacity: usize,
    },
    /// A classification request, or the batch a shard plan was asked
    /// for, carried no images.
    EmptyBatch,
    /// A request input has the wrong size: an image that is not the
    /// network's input length, or a batch that is not the one the shard
    /// plan was made for.
    ShapeMismatch {
        /// What was measured ("image length", "batch size", …).
        what: &'static str,
        got: usize,
        expected: usize,
    },
    /// Static admission refused the circuit under the pipeline's
    /// parameters and keys; carries the rendered lint report.
    PlanRejected { report: String },
    /// The circuit executor failed mid-run (a bug in the lowering or in
    /// the keys bound to it — admission should have caught it).
    Execution { reason: String },
}

impl std::fmt::Display for HeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeError::MissingGaloisKey { elem, available } => {
                // keep the historical "missing Galois key for element {g}"
                // prefix — callers and tests match on it
                write!(f, "missing Galois key for element {elem}")?;
                if available.is_empty() {
                    write!(f, " (no Galois keys were generated)")
                } else {
                    write!(f, " (keys exist for elements {available:?})")
                }
            }
            HeError::LevelExhausted { op, level, needed } => write!(
                f,
                "no levels left to {op}: at level {level}, need {needed} more"
            ),
            HeError::ModSwitchUpward { from, to } => {
                write!(f, "cannot mod-switch upward (level {from} to {to})")
            }
            HeError::ScaleMismatch { a, b } => write!(f, "scale mismatch: {a} vs {b}"),
            HeError::LevelMismatch { a, b } => {
                write!(f, "level mismatch (mod-switch first): {a} vs {b}")
            }
            HeError::MalformedCiphertext(what) => write!(f, "malformed ciphertext: {what}"),
            HeError::PlaintextBasisMismatch => {
                write!(f, "plaintext is not encoded over the key-switch basis")
            }
            // keep the historical expect-message prefixes — callers and
            // tests match on them
            HeError::CodecRadixOverflow { k, modulus } => write!(
                f,
                "radix weight overflow: product of {k} stream moduli exceeds i128 at modulus {modulus}"
            ),
            HeError::CodecRecomposeOverflow { index, value } => write!(
                f,
                "recomposed digit value exceeds i64 at index {index} (value {value})"
            ),
            HeError::BatchExceedsSlots { batch, capacity } => write!(
                f,
                "batch exceeds slot capacity: {batch} lanes requested, {capacity} fit"
            ),
            HeError::EmptyBatch => write!(f, "cannot classify an empty batch"),
            HeError::ShapeMismatch {
                what,
                got,
                expected,
            } => write!(f, "{what} mismatch: got {got}, expected {expected}"),
            // `classify` panics with this text — tests match on it
            HeError::PlanRejected { report } => {
                write!(f, "admission rejected the inference plan:\n{report}")
            }
            HeError::Execution { reason } => write!(f, "circuit execution failed: {reason}"),
        }
    }
}

impl std::error::Error for HeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_historical_substrings() {
        let e = HeError::MissingGaloisKey {
            elem: 25,
            available: vec![5, 2047],
        };
        let msg = e.to_string();
        assert!(msg.contains("missing Galois key for element 25"), "{msg}");
        assert!(msg.contains("[5, 2047]"), "{msg}");

        let e = HeError::LevelExhausted {
            op: "rescale",
            level: 0,
            needed: 1,
        };
        assert!(e.to_string().contains("no levels left"), "{e}");

        let e = HeError::ModSwitchUpward { from: 1, to: 3 };
        assert!(e.to_string().contains("cannot mod-switch upward"), "{e}");

        let e = HeError::ScaleMismatch { a: 2.0, b: 4.0 };
        assert!(e.to_string().contains("scale mismatch"), "{e}");

        let e = HeError::LevelMismatch { a: 2, b: 1 };
        assert!(e.to_string().contains("level mismatch"), "{e}");

        let e = HeError::CodecRadixOverflow {
            k: 12,
            modulus: 2053,
        };
        assert!(e.to_string().contains("radix weight overflow"), "{e}");

        let e = HeError::CodecRecomposeOverflow {
            index: 3,
            value: i128::MAX,
        };
        assert!(
            e.to_string().contains("recomposed digit value exceeds i64"),
            "{e}"
        );

        let e = HeError::BatchExceedsSlots {
            batch: 12,
            capacity: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains("batch exceeds slot capacity"), "{msg}");
        assert!(msg.contains("12") && msg.contains('8'), "{msg}");
    }

    #[test]
    fn missing_key_with_empty_inventory() {
        let e = HeError::MissingGaloisKey {
            elem: 5,
            available: vec![],
        };
        assert!(e.to_string().contains("no Galois keys were generated"));
    }
}
