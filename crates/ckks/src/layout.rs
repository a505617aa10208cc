//! Packing layouts: how batches of vectors map onto CKKS slots.
//!
//! The packed (BSGS) execution path tiles one `dim`-long activation
//! vector cyclically across the slots. A [`PackLayout`] generalizes
//! that to a *batch-strided* layout holding `batch` independent lanes
//! in one ciphertext: element `j` of lane `b` lives in slot
//! `j·batch + b (mod period)`, the pattern repeating every
//! `period = dim·batch` slots. Rotating by `d·batch` shifts every
//! lane's element index by `d` while leaving the lane assignment
//! fixed, so the packed lowering's rotate-and-sum and diagonal-matvec
//! steps carry over with every rotation step scaled by the stride
//! ([`PackLayout::rotation_step`]). `batch = 1` reduces to the classic
//! tiled layout bit-identically.
//!
//! When a batch exceeds one ciphertext's lane capacity
//! (`slots / dim`), a [`ShardPlan`] splits it across several
//! ciphertexts that share one layout. Shards are never regrouped
//! homomorphically: each one is an independent run of the same
//! prepared circuit.

use crate::encoding::{self, Plaintext};
use crate::error::HeError;
use crate::params::CkksContext;
use std::sync::Arc;

/// A batch-strided slot layout: `batch` lanes of `dim`-long vectors
/// interleaved at stride `batch`, tiled cyclically over `slots`.
///
/// Invariants (checked at construction): `dim`, `batch` and `slots`
/// are powers of two and `dim · batch ≤ slots`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackLayout {
    dim: usize,
    batch: usize,
    slots: usize,
}

impl PackLayout {
    /// Builds a layout; fails with [`HeError::BatchExceedsSlots`] when
    /// `dim · batch > slots`. `dim` and `batch` must be powers of two
    /// (the rotation algebra requires exact period divisibility).
    pub fn new(dim: usize, batch: usize, slots: usize) -> Result<Self, HeError> {
        assert!(dim.is_power_of_two(), "dim {dim} must be a power of two");
        assert!(
            batch.is_power_of_two(),
            "batch {batch} must be a power of two"
        );
        assert!(
            slots.is_power_of_two(),
            "slot count {slots} must be a power of two"
        );
        if dim * batch > slots {
            return Err(HeError::BatchExceedsSlots {
                batch,
                capacity: slots / dim,
            });
        }
        Ok(Self { dim, batch, slots })
    }

    /// The classic single-vector tiled layout (stride 1).
    pub fn tiled(dim: usize, slots: usize) -> Result<Self, HeError> {
        Self::new(dim, 1, slots)
    }

    /// Padded vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Lanes per ciphertext (equals the slot stride between consecutive
    /// elements of one lane).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Slot stride between element `j` and `j+1` of a lane.
    pub fn stride(&self) -> usize {
        self.batch
    }

    /// Slot count of the ring this layout targets.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Length of one full pattern repetition (`dim · batch`).
    pub fn period(&self) -> usize {
        self.dim * self.batch
    }

    /// Canonical slot of element `j` of lane `lane` (first repetition).
    pub fn slot_of(&self, lane: usize, j: usize) -> usize {
        debug_assert!(lane < self.batch && j < self.dim);
        j * self.batch + lane
    }

    /// The rotation step realizing a uniform element shift by
    /// `element_steps` in every lane, normalized into `[0, slots)`.
    ///
    /// The element shift is cyclic modulo `dim`, so it is reduced first
    /// — this keeps the multiplication by the stride overflow-free for
    /// any `i64` input (the old `element_steps * batch` form wrapped
    /// for `|element_steps| > i64::MAX / batch` and produced negative
    /// steps that every consumer then cast or reduced differently).
    /// The result is a canonical left-rotation count usable directly as
    /// a Galois rotation step.
    pub fn rotation_step(&self, element_steps: i64) -> i64 {
        let e = element_steps.rem_euclid(self.dim as i64);
        (e * self.batch as i64).rem_euclid(self.slots as i64)
    }

    /// Expands an element-indexed vector (length `dim`) to a full slot
    /// vector: every lane sees the same value per element. This is how
    /// diagonal and bias plaintexts are broadcast across the batch.
    pub fn expand(&self, per_element: &[f64]) -> Vec<f64> {
        assert_eq!(per_element.len(), self.dim, "expand expects a dim vector");
        let mut out = vec![0.0f64; self.slots];
        for (i, o) in out.iter_mut().enumerate() {
            *o = per_element[(i / self.batch) % self.dim];
        }
        out
    }

    /// Packs up to `batch` lanes (each of length ≤ `dim`; shorter lanes
    /// are zero-padded, missing lanes are all-zero) into a full slot
    /// vector, tiled cyclically.
    pub fn pack(&self, lanes: &[&[f64]]) -> Result<Vec<f64>, HeError> {
        if lanes.len() > self.batch {
            return Err(HeError::BatchExceedsSlots {
                batch: lanes.len(),
                capacity: self.batch,
            });
        }
        for lane in lanes {
            assert!(
                lane.len() <= self.dim,
                "lane length {} exceeds layout dim {}",
                lane.len(),
                self.dim
            );
        }
        let mut out = vec![0.0f64; self.slots];
        for (i, o) in out.iter_mut().enumerate() {
            let lane = i % self.batch;
            let j = (i / self.batch) % self.dim;
            if let Some(l) = lanes.get(lane) {
                if j < l.len() {
                    *o = l[j];
                }
            }
        }
        Ok(out)
    }

    /// Reads `lanes` lanes of `take` elements each back out of a full
    /// slot vector (inverse of [`Self::pack`] on the first repetition).
    pub fn unpack(&self, slot_vals: &[f64], lanes: usize, take: usize) -> Vec<Vec<f64>> {
        assert!(lanes <= self.batch && take <= self.dim);
        assert!(slot_vals.len() >= self.period());
        (0..lanes)
            .map(|b| (0..take).map(|j| slot_vals[self.slot_of(b, j)]).collect())
            .collect()
    }
}

/// How a logical batch of `total` vectors is distributed over
/// ciphertexts: `shards` ciphertexts, each in the same [`PackLayout`]
/// with `layout.batch()` lanes; the last shard may be partially filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    layout: PackLayout,
    total: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plans a batch of `batch` `dim`-long vectors onto a ring with
    /// `slots` slots. The per-ciphertext lane count is
    /// `min(next_pow2(batch), slots/dim)`; whatever does not fit one
    /// ciphertext spills into additional shards. Fails with
    /// [`HeError::EmptyBatch`] on `batch = 0`, and with
    /// [`HeError::BatchExceedsSlots`] when even a single vector does
    /// not fit (`dim > slots`).
    pub fn plan(slots: usize, dim: usize, batch: usize) -> Result<Self, HeError> {
        if batch == 0 {
            return Err(HeError::EmptyBatch);
        }
        if dim > slots {
            return Err(HeError::BatchExceedsSlots { batch, capacity: 0 });
        }
        let cap = slots / dim;
        let lanes = batch.next_power_of_two().min(cap);
        let layout = PackLayout::new(dim, lanes, slots)?;
        Ok(Self {
            layout,
            total: batch,
            shards: batch.div_ceil(lanes),
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

    /// Lanes one ciphertext can carry (`slots / dim`).
    pub fn capacity(&self) -> usize {
        self.layout.slots() / self.layout.dim()
    }

    /// Lanes actually occupied in shard `s` (the last shard may be
    /// partial).
    pub fn lanes_in_shard(&self, s: usize) -> usize {
        assert!(s < self.shards);
        let filled = s * self.layout.batch();
        (self.total - filled).min(self.layout.batch())
    }
}

/// Encodes up to `layout.batch()` lanes into one plaintext in the
/// batch-strided layout. Typed failure instead of the encoder's panic
/// when too many lanes are offered.
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
        // 512 slots, dim 64 → capacity 8 lanes per ciphertext
        let p = ShardPlan::plan(512, 64, 1).unwrap();
        assert_eq!((p.layout().batch(), p.shards()), (1, 1));
        let p = ShardPlan::plan(512, 64, 5).unwrap();
        assert_eq!((p.layout().batch(), p.shards()), (8, 1), "non-pow2 pads");
        let p = ShardPlan::plan(512, 64, 8).unwrap();
        assert_eq!((p.layout().batch(), p.shards()), (8, 1));
        let p = ShardPlan::plan(512, 64, 9).unwrap();
        assert_eq!((p.layout().batch(), p.shards()), (8, 2));
        assert_eq!(p.lanes_in_shard(0), 8);
        assert_eq!(p.lanes_in_shard(1), 1);
        let p = ShardPlan::plan(512, 64, 64).unwrap();
        assert_eq!((p.layout().batch(), p.shards()), (8, 8));
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
        assert_eq!((p.capacity(), p.shards()), (8, 2));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let layout = PackLayout::new(8, 4, 64).unwrap();
        let lanes: Vec<Vec<f64>> = (0..3)
            .map(|b| (0..8).map(|j| (b * 10 + j) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
        let slots = layout.pack(&refs).unwrap();
        // element j of lane b sits at j·4 + b, repeating every 32 slots
        assert_eq!(slots[layout.slot_of(1, 3)], 13.0);
        assert_eq!(slots[layout.slot_of(1, 3) + layout.period()], 13.0);
        assert_eq!(slots[layout.slot_of(3, 0)], 0.0, "missing lane is zero");
        let back = layout.unpack(&slots, 3, 8);
        assert_eq!(back, lanes);
    }

    #[test]
    fn stride_one_pack_equals_plain_tiling() {
        let layout = PackLayout::tiled(8, 64).unwrap();
        let lane: Vec<f64> = (0..6).map(|j| j as f64 + 0.5).collect();
        let packed = layout.pack(&[&lane]).unwrap();
        for (i, &v) in packed.iter().enumerate() {
            let j = i % 8;
            let want = if j < 6 { j as f64 + 0.5 } else { 0.0 };
            assert_eq!(v, want, "slot {i}");
        }
    }

    #[test]
    fn expand_broadcasts_per_element_values() {
        let layout = PackLayout::new(4, 2, 16).unwrap();
        let e = layout.expand(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e[..8], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        assert_eq!(e[8..], e[..8]);
    }

    #[test]
    fn encode_batched_roundtrips_through_unpack() {
        let ctx = ctx();
        let layout = PackLayout::new(16, 8, ctx.slots()).unwrap();
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
        let layout = PackLayout::new(16, 2, ctx.slots()).unwrap();
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
        let layout = PackLayout::new(8, 4, 32).unwrap();
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
        let layout = PackLayout::new(8, 4, 64).unwrap();
        // negative shifts map to their positive complement
        assert_eq!(layout.rotation_step(-1), layout.rotation_step(7));
        assert_eq!(layout.rotation_step(-3), 5 * 4);
        // shifts are cyclic modulo dim: a full cycle is the identity …
        assert_eq!(layout.rotation_step(8), 0);
        assert_eq!(layout.rotation_step(-8), 0);
        // … and over-long shifts reduce before scaling by the stride
        assert_eq!(layout.rotation_step(11), layout.rotation_step(3));
        assert_eq!(layout.rotation_step(8 + 5), 5 * 4);
        // extreme inputs no longer overflow the stride multiplication
        assert_eq!(layout.rotation_step(i64::MAX), layout.rotation_step(7));
        assert_eq!(layout.rotation_step(i64::MIN), layout.rotation_step(0));
        // every result is a canonical in-ring left rotation
        for e in [-17i64, -8, -1, 0, 1, 7, 8, 9, 1_000_003] {
            let s = layout.rotation_step(e);
            assert!((0..64).contains(&s), "step {s} for shift {e}");
        }
        // the stride-1 layout reduces to plain element rotation
        let tiled = PackLayout::tiled(8, 64).unwrap();
        assert_eq!(tiled.rotation_step(3), 3);
        assert_eq!(tiled.rotation_step(-3), 5);
    }

    #[test]
    fn full_capacity_pack_unpack_roundtrip() {
        // boundary: dim · batch == slots (one repetition fills the ring)
        let layout = PackLayout::new(16, 8, 128).unwrap();
        assert_eq!(layout.period(), layout.slots());
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
            // (zero-padded), stride 1 through 8, up to the full
            // slot-capacity boundary (extra = 0 ⇒ period == slots)
            #[test]
            fn pack_unpack_roundtrip(
                dim_log in 0u32..6,
                batch_log in 0u32..4,
                extra_log in 0u32..3,
                seed in 0u64..1_000,
            ) {
                let dim = 1usize << dim_log;
                let batch = 1usize << batch_log;
                let slots = 1usize << (dim_log + batch_log + extra_log);
                let layout = PackLayout::new(dim, batch, slots).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let lanes_n = rng.gen_range(0..=batch);
                let lanes: Vec<Vec<f64>> = (0..lanes_n)
                    .map(|_| {
                        let len = rng.gen_range(0..=dim);
                        (0..len).map(|_| rng.gen_range(-1.0f64..1.0)).collect()
                    })
                    .collect();
                let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
                let packed = layout.pack(&refs).unwrap();
                prop_assert_eq!(packed.len(), slots);
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
                batch_log in 0u32..4,
                shift_idx in 0usize..12,
                seed in 0u64..1_000,
            ) {
                const SHIFTS: [i64; 12] = [
                    i64::MIN, -1_000_003, -17, -8, -1, 0, 1, 7, 8, 31, 1_000_003, i64::MAX,
                ];
                let shift = SHIFTS[shift_idx];
                let dim = 1usize << dim_log;
                let batch = 1usize << batch_log;
                let slots = (dim * batch * 2).next_power_of_two();
                let layout = PackLayout::new(dim, batch, slots).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let lanes: Vec<Vec<f64>> = (0..batch)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
                    .collect();
                let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
                let v = layout.pack(&refs).unwrap();
                let r = layout.rotation_step(shift);
                prop_assert!((0..slots as i64).contains(&r), "non-canonical step {r}");
                let rotated: Vec<f64> =
                    (0..slots).map(|i| v[(i + r as usize) % slots]).collect();
                let back = layout.unpack(&rotated, batch, dim);
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
