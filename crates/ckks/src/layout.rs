//! Packing layouts: how batches of vectors map onto CKKS slots.
//!
//! A [`PackLayout`] holds `stride = slots / dim` independent lanes of
//! one `dim`-long vector each in one ciphertext: element `j` of lane `b`
//! lives in slot `j·stride + b`, so the lanes fill the slots exactly.
//! Rotating by `d·stride` shifts every lane's element index by `d`
//! (cyclically modulo `dim`) while leaving the lane assignment fixed,
//! so the packed lowering's rotate-and-sum and diagonal-matvec steps
//! carry over with every rotation step scaled by the stride
//! ([`PackLayout::rotation_step`]). A rotation or key switch costs the
//! same whatever share of the slots carries data, so a ring packs every
//! request at its full lane capacity: lanes a request leaves empty hold
//! zeros, which never mix with occupied lanes.
//!
//! When a batch exceeds one ciphertext's lanes, a [`ShardPlan`] splits
//! it across several ciphertexts that share the one layout. Shards are
//! never regrouped homomorphically: each one is an independent run of
//! the same prepared circuit.

use crate::encoding::{self, Plaintext};
use crate::error::HeError;
use crate::params::CkksContext;
use std::sync::Arc;

/// A batch-strided slot layout: `slots / dim` lanes of `dim`-long
/// vectors interleaved at that stride.
///
/// Invariants (checked at construction): `dim` and `slots` are powers
/// of two and `dim ≤ slots`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackLayout {
    dim: usize,
    slots: usize,
}

impl PackLayout {
    /// The full-capacity layout of `dim`-long vectors on a ring with
    /// `slots` slots. Refuses typed: a `dim` or `slots` that is not a
    /// power of two (the rotation algebra needs exact divisibility) is
    /// [`HeError::ShapeMismatch`] naming the field, with the next power
    /// of two as the expected value; a `dim` past the slots is
    /// [`HeError::BatchExceedsSlots`] with capacity 0.
    pub fn new(dim: usize, slots: usize) -> Result<Self, HeError> {
        for (what, n) in [("layout dim", dim), ("layout slot count", slots)] {
            if !n.is_power_of_two() {
                return Err(HeError::ShapeMismatch {
                    what,
                    got: n,
                    expected: n.next_power_of_two(),
                });
            }
        }
        if dim > slots {
            return Err(HeError::BatchExceedsSlots {
                batch: 1,
                capacity: 0,
            });
        }
        Ok(Self { dim, slots })
    }

    /// Padded vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Slot stride between element `j` and `j+1` of a lane, which is
    /// also the number of lanes one ciphertext carries.
    pub fn stride(&self) -> usize {
        self.slots / self.dim
    }

    /// Slot count of the ring this layout targets.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slot of element `j` of lane `lane`.
    pub fn slot_of(&self, lane: usize, j: usize) -> usize {
        debug_assert!(lane < self.stride() && j < self.dim);
        j * self.stride() + lane
    }

    /// The rotation step realizing a uniform element shift by
    /// `element_steps` in every lane, normalized into `[0, slots)`.
    ///
    /// The element shift is cyclic modulo `dim`, so it is reduced first
    /// — this keeps the multiplication by the stride overflow-free for
    /// any `i64` input. The result is a canonical left-rotation count
    /// usable directly as a Galois rotation step.
    pub fn rotation_step(&self, element_steps: i64) -> i64 {
        let e = element_steps.rem_euclid(self.dim as i64);
        (e * self.stride() as i64).rem_euclid(self.slots as i64)
    }

    /// Packs up to `stride` lanes (each of length ≤ `dim`; shorter lanes
    /// are zero-padded, missing lanes are all-zero) into a full slot
    /// vector. Too many lanes is [`HeError::BatchExceedsSlots`]; a lane
    /// longer than `dim` is [`HeError::ShapeMismatch`] on "lane length".
    pub fn pack(&self, lanes: &[&[f64]]) -> Result<Vec<f64>, HeError> {
        let stride = self.stride();
        if lanes.len() > stride {
            return Err(HeError::BatchExceedsSlots {
                batch: lanes.len(),
                capacity: stride,
            });
        }
        if let Some(lane) = lanes.iter().find(|l| l.len() > self.dim) {
            return Err(HeError::ShapeMismatch {
                what: "lane length",
                got: lane.len(),
                expected: self.dim,
            });
        }
        let mut out = vec![0.0f64; self.slots];
        for (b, lane) in lanes.iter().enumerate() {
            for (j, &v) in lane.iter().enumerate() {
                out[j * stride + b] = v;
            }
        }
        Ok(out)
    }

    /// Reads `lanes` lanes of `take` elements each back out of a full
    /// slot vector (inverse of [`Self::pack`]).
    pub fn unpack(&self, slot_vals: &[f64], lanes: usize, take: usize) -> Vec<Vec<f64>> {
        assert!(lanes <= self.stride() && take <= self.dim);
        assert!(slot_vals.len() >= self.slots);
        (0..lanes)
            .map(|b| (0..take).map(|j| slot_vals[self.slot_of(b, j)]).collect())
            .collect()
    }
}

/// How a logical batch of `total` vectors is distributed over
/// ciphertexts: `shards` ciphertexts, each in the same full-capacity
/// [`PackLayout`]; the last shard may be partially filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    layout: PackLayout,
    total: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plans a batch of `batch` `dim`-long vectors onto a ring with
    /// `slots` slots. Every shard is laid out at the full lane capacity
    /// `slots / dim`, whatever the batch; whatever does not fit one
    /// ciphertext spills into additional shards. Fails with
    /// [`HeError::EmptyBatch`] on `batch = 0`, with
    /// [`HeError::BatchExceedsSlots`] when even a single vector does
    /// not fit (`dim > slots`), and as [`PackLayout::new`] does on a
    /// `dim` or `slots` that is not a power of two.
    pub fn plan(slots: usize, dim: usize, batch: usize) -> Result<Self, HeError> {
        if batch == 0 {
            return Err(HeError::EmptyBatch);
        }
        if dim > slots {
            return Err(HeError::BatchExceedsSlots { batch, capacity: 0 });
        }
        let layout = PackLayout::new(dim, slots)?;
        Ok(Self {
            layout,
            total: batch,
            shards: batch.div_ceil(layout.stride()),
        })
    }

    /// The shared per-ciphertext layout.
    pub fn layout(&self) -> PackLayout {
        self.layout
    }

    /// Total vectors in the logical batch.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Ciphertexts the batch occupies.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Lanes actually occupied in shard `s` (the last shard may be
    /// partial).
    pub fn lanes_in_shard(&self, s: usize) -> usize {
        assert!(s < self.shards);
        let lanes = self.layout.stride();
        (self.total - s * lanes).min(lanes)
    }
}

/// Encodes up to `layout.stride()` lanes into one plaintext in the
/// batch-strided layout. Typed failure instead of the encoder's panic
/// when the lanes do not fit ([`PackLayout::pack`]).
pub fn encode_batched(
    ctx: &Arc<CkksContext>,
    lanes: &[&[f64]],
    layout: &PackLayout,
    scale: f64,
    level: usize,
) -> Result<Plaintext, HeError> {
    if layout.slots() != ctx.slots() {
        return Err(HeError::BatchExceedsSlots {
            batch: lanes.len(),
            capacity: 0,
        });
    }
    let slot_vals = layout.pack(lanes)?;
    Ok(encoding::encode_real(ctx, &slot_vals, scale, level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn ctx() -> Arc<CkksContext> {
        CkksParams::tiny(3).build()
    }

    #[test]
    fn planner_picks_lanes_and_shards() {
        // 512 slots, dim 64 → capacity 8 lanes per ciphertext, and every
        // batch is laid out at that capacity
        let cap = 8;
        for (batch, shards) in [(1, 1), (3, 1), (cap, 1), (cap + 1, 2), (64, 8)] {
            let p = ShardPlan::plan(512, 64, batch).unwrap();
            assert_eq!(
                (p.layout().stride(), p.shards()),
                (cap, shards),
                "batch {batch}"
            );
        }
        let p = ShardPlan::plan(512, 64, cap + 1).unwrap();
        assert_eq!(p.lanes_in_shard(0), cap);
        assert_eq!(p.lanes_in_shard(1), 1);
    }

    #[test]
    fn planner_rejects_oversized_dim_and_single_ct_overflow() {
        let err = ShardPlan::plan(512, 1024, 1).unwrap_err();
        assert!(matches!(
            err,
            HeError::BatchExceedsSlots {
                batch: 1,
                capacity: 0
            }
        ));
        assert_eq!(ShardPlan::plan(512, 64, 0), Err(HeError::EmptyBatch));
        // one image past a ciphertext's capacity is not an error: it
        // spills into a second shard of the same layout
        let p = ShardPlan::plan(512, 64, 9).unwrap();
        assert_eq!((p.layout().stride(), p.shards()), (8, 2));
    }

    #[test]
    fn layout_calls_refuse_typed_instead_of_asserting() {
        // a dim that is not a power of two names the field
        assert_eq!(
            ShardPlan::plan(512, 100, 1),
            Err(HeError::ShapeMismatch {
                what: "layout dim",
                got: 100,
                expected: 128
            })
        );
        assert!(matches!(
            PackLayout::new(64, 500),
            Err(HeError::ShapeMismatch {
                what: "layout slot count",
                got: 500,
                ..
            })
        ));
        // a lane longer than the layout's dim
        let ctx = ctx();
        let layout = PackLayout::new(64, ctx.slots()).unwrap();
        let long = vec![0.5f64; 65];
        let err = encode_batched(&ctx, &[&long], &layout, ctx.params().scale(), 1).unwrap_err();
        assert_eq!(
            err,
            HeError::ShapeMismatch {
                what: "lane length",
                got: 65,
                expected: 64
            }
        );
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let layout = PackLayout::new(8, 32).unwrap();
        assert_eq!(layout.stride(), 4);
        let lanes: Vec<Vec<f64>> = (0..3)
            .map(|b| (0..8).map(|j| (b * 10 + j) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
        let slots = layout.pack(&refs).unwrap();
        // element j of lane b sits at j·4 + b
        assert_eq!(slots[layout.slot_of(1, 3)], 13.0);
        assert_eq!(layout.slot_of(1, 3), 13);
        assert_eq!(slots[layout.slot_of(3, 0)], 0.0, "missing lane is zero");
        let back = layout.unpack(&slots, 3, 8);
        assert_eq!(back, lanes);
    }

    #[test]
    fn encode_batched_roundtrips_through_unpack() {
        let ctx = ctx();
        let layout = PackLayout::new(64, ctx.slots()).unwrap();
        assert_eq!(layout.stride(), 8);
        // short lanes are zero-padded up to the dim
        let lanes: Vec<Vec<f64>> = (0..8)
            .map(|b| (0..16).map(|j| ((b * 16 + j) as f64).sin() * 0.5).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
        let pt = encode_batched(&ctx, &refs, &layout, ctx.params().scale(), 2).unwrap();
        let back = layout.unpack(&encoding::decode_real(&ctx, &pt), 8, 16);
        for (a, b) in back.iter().flatten().zip(lanes.iter().flatten()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn encode_batched_rejects_excess_lanes_typed() {
        let ctx = ctx();
        let layout = PackLayout::new(ctx.slots() / 2, ctx.slots()).unwrap();
        let lane = vec![0.5f64; 16];
        let lanes: Vec<&[f64]> = vec![&lane; 3];
        let err = encode_batched(&ctx, &lanes, &layout, ctx.params().scale(), 1).unwrap_err();
        assert!(matches!(
            err,
            HeError::BatchExceedsSlots {
                batch: 3,
                capacity: 2
            }
        ));
    }

    #[test]
    fn rotation_by_stride_shifts_elements_within_lanes() {
        let layout = PackLayout::new(8, 32).unwrap();
        assert_eq!(layout.rotation_step(1), 4);
        // a left shift by −3 elements is the same cyclic shift as by
        // dim−3 = 5: the step comes back normalized into [0, slots)
        assert_eq!(layout.rotation_step(-3), 20);
        let lanes: Vec<Vec<f64>> = (0..4)
            .map(|b| (0..8).map(|j| (b * 8 + j) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
        let v = layout.pack(&refs).unwrap();
        // emulate a left rotation by stride·d slots
        let d = 3usize;
        let r = layout.rotation_step(d as i64) as usize;
        let rotated: Vec<f64> = (0..v.len()).map(|i| v[(i + r) % v.len()]).collect();
        let back = layout.unpack(&rotated, 4, 8);
        for (b, lane) in back.iter().enumerate() {
            for (j, &val) in lane.iter().enumerate() {
                assert_eq!(val, lanes[b][(j + d) % 8], "lane {b} elem {j}");
            }
        }
    }

    #[test]
    fn rotation_step_normalizes_boundary_shifts() {
        let layout = PackLayout::new(8, 32).unwrap();
        // negative shifts map to their positive complement
        assert_eq!(layout.rotation_step(-1), layout.rotation_step(7));
        assert_eq!(layout.rotation_step(-3), 5 * 4);
        // shifts are cyclic modulo dim: a full cycle is the identity …
        assert_eq!(layout.rotation_step(8), 0);
        assert_eq!(layout.rotation_step(-8), 0);
        // … and over-long shifts reduce before scaling by the stride
        assert_eq!(layout.rotation_step(11), layout.rotation_step(3));
        assert_eq!(layout.rotation_step(8 + 5), 5 * 4);
        // extreme inputs do not overflow the stride multiplication
        assert_eq!(layout.rotation_step(i64::MAX), layout.rotation_step(7));
        assert_eq!(layout.rotation_step(i64::MIN), layout.rotation_step(0));
        // every result is a canonical in-ring left rotation
        for e in [-17i64, -8, -1, 0, 1, 7, 8, 9, 1_000_003] {
            let s = layout.rotation_step(e);
            assert!((0..32).contains(&s), "step {s} for shift {e}");
        }
        // a one-lane layout reduces to plain element rotation
        let one_lane = PackLayout::new(8, 8).unwrap();
        assert_eq!(one_lane.rotation_step(3), 3);
        assert_eq!(one_lane.rotation_step(-3), 5);
    }

    #[test]
    fn full_capacity_pack_unpack_roundtrip() {
        let layout = PackLayout::new(16, 128).unwrap();
        let lanes: Vec<Vec<f64>> = (0..8)
            .map(|b| (0..16).map(|j| (b * 16 + j) as f64 + 0.25).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
        let packed = layout.pack(&refs).unwrap();
        assert_eq!(layout.unpack(&packed, 8, 16), lanes);
        // one lane more than capacity is a typed error
        let over: Vec<&[f64]> = (0..9).map(|_| refs[0]).collect();
        assert!(matches!(
            layout.pack(&over).unwrap_err(),
            HeError::BatchExceedsSlots {
                batch: 9,
                capacity: 8
            }
        ));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // pack → unpack is the identity on any lane set the layout
            // admits: non-power-of-two lane counts and lengths
            // (zero-padded), stride 1 through 8
            #[test]
            fn pack_unpack_roundtrip(
                dim_log in 0u32..6,
                stride_log in 0u32..4,
                seed in 0u64..1_000,
            ) {
                let dim = 1usize << dim_log;
                let stride = 1usize << stride_log;
                let layout = PackLayout::new(dim, dim * stride).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let lanes_n = rng.gen_range(0..=stride);
                let lanes: Vec<Vec<f64>> = (0..lanes_n)
                    .map(|_| {
                        let len = rng.gen_range(0..=dim);
                        (0..len).map(|_| rng.gen_range(-1.0f64..1.0)).collect()
                    })
                    .collect();
                let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
                let packed = layout.pack(&refs).unwrap();
                prop_assert_eq!(packed.len(), dim * stride);
                let back = layout.unpack(&packed, lanes_n, dim);
                for (lane, got) in lanes.iter().zip(&back) {
                    for (j, g) in got.iter().enumerate() {
                        let want = lane.get(j).copied().unwrap_or(0.0);
                        prop_assert_eq!(*g, want);
                    }
                }
            }

            // rotation_step is the slot rotation realizing a uniform
            // per-lane element shift, for any signed shift (negative,
            // ≥ dim, extreme) — checked against a literal slot-vector
            // rotation
            #[test]
            fn rotation_step_realizes_element_shift(
                dim_log in 0u32..5,
                stride_log in 0u32..4,
                shift_idx in 0usize..12,
                seed in 0u64..1_000,
            ) {
                const SHIFTS: [i64; 12] = [
                    i64::MIN, -1_000_003, -17, -8, -1, 0, 1, 7, 8, 31, 1_000_003, i64::MAX,
                ];
                let shift = SHIFTS[shift_idx];
                let dim = 1usize << dim_log;
                let stride = 1usize << stride_log;
                let slots = dim * stride;
                let layout = PackLayout::new(dim, slots).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let lanes: Vec<Vec<f64>> = (0..stride)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
                    .collect();
                let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
                let v = layout.pack(&refs).unwrap();
                let r = layout.rotation_step(shift);
                prop_assert!((0..slots as i64).contains(&r), "non-canonical step {r}");
                let rotated: Vec<f64> =
                    (0..slots).map(|i| v[(i + r as usize) % slots]).collect();
                let back = layout.unpack(&rotated, stride, dim);
                // i64::MIN.rem_euclid is still well-defined — compute the
                // expected element shift the same way a caller reasons: d ≡ shift (mod dim)
                let d = shift.rem_euclid(dim as i64) as usize;
                for (b, lane) in back.iter().enumerate() {
                    for (j, got) in lane.iter().enumerate() {
                        prop_assert_eq!(*got, lanes[b][(j + d) % dim], "lane {} elem {}", b, j);
                    }
                }
            }
        }
    }
}
