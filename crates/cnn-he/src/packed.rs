//! Packed (Lo-La-style) inference engine — the alternative to scalar
//! packing, provided as the packing ablation of DESIGN.md §13.
//!
//! The whole activation vector of a layer lives in ONE ciphertext
//! (one lane of a batch-strided layout), and each nonlinearity is a
//! *single* SLAF evaluation per layer instead of one per neuron. Latency
//! is dominated by rotations rather than by per-neuron accumulations —
//! the trade Lo-La makes against CryptoNets.
//!
//! Every layer's input carries a *slot map*: the lane slot each flat
//! input index sits in. The image sits at identity slots (pixel
//! `(y, x)` in slot `y·W + x`). A linear layer takes one of two forms:
//!
//! * [`PackedLayer::Conv`] — a single-input-channel convolution over an
//!   input at identity slots, computed on the image grid: one rotation
//!   per kernel tap (step `ky·W + kx`), then per output channel a
//!   weighted sum of those rotations under per-slot tap-weight
//!   plaintexts, placed at the channel's offset with one rotation.
//!   Output `(c, oy, ox)` lands at its *anchor* slot
//!   `(s·oy − p)·W + (s·ox − p)` plus the channel offset; the offsets
//!   are the greedy smallest ones whose anchor translates are disjoint,
//!   and a tap weight sits only at anchors whose tap lies inside the
//!   image, so padding costs nothing and every unused slot stays zero.
//! * [`PackedLayer::Matrix`] — every other linear layer: its rows
//!   ([`HeNetwork::forms`]) fill a `dim × dim` matrix against the input
//!   slot map (tap `j` of row `i` is column `map[j]`), evaluated with the
//!   baby-step/giant-step diagonal method (≈ 2√D rotations instead of
//!   D). Its output is at identity slots; the columns of unmapped slots
//!   are zero, so whatever they hold never reaches a true output.
//!
//! The common dim is the next power of two of the largest layer; it
//! doubles once when a conv's channels do not place disjointly there
//! (CNN1: five translates of 169 anchors need 2048 slots), and a conv
//! that does not place even then stays a matrix. Both forms evaluate the
//! exact same function as the scalar engine and the plaintext reference.
//!
//! This module owns the packed *data* (tap plaintexts, diagonals, slot
//! maps, shard planning, encrypt/decrypt). It does not drive the
//! `Evaluator`: a packed network executes by lowering to an `he-ir`
//! circuit ([`crate::packed_graph::lower_packed`]) and interpreting its
//! [`he_ir::Prepared`] form.

use crate::he_layers::{horner, ConvSpec, LayerForm, Row};
use crate::network::{HeLayerSpec, HeNetwork};
use crate::packed_graph::{lower_packed, PackedLowering, PACKED_INPUT};
use ckks::{
    encode_batched, Ciphertext, Evaluator, GaloisKeys, HeError, PackLayout, PublicKey, RelinKey,
    SecretKey, ShardPlan,
};
use ckks_math::sampler::Sampler;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

/// A layer of the packed engine.
#[derive(Debug, Clone)]
pub enum PackedLayer {
    /// Square (padded) linear map `y = M·x + b` over the common dim.
    Matrix {
        /// `diags[d][i] = M[i][(i+d) mod dim]` — the generalized
        /// diagonals; all-zero diagonals stored as `None`.
        diags: Vec<Option<Vec<f64>>>,
        bias: Vec<f64>,
        dim: usize,
    },
    /// A single-input-channel convolution in tap form.
    Conv(ConvTaps),
    /// SLAF coefficients.
    Activation(Vec<f64>),
}

/// A single-input-channel convolution over an input at identity slots:
/// `y = b + Σ_c rot(Σ_t rot(x, steps[t]) ⊙ weights[c][t], place[c])`,
/// where `rot(v, s)[j] = v[(j + s) mod dim]`.
#[derive(Debug, Clone)]
pub struct ConvTaps {
    /// Distinct element rotation steps `ky·W + kx mod dim` of the kernel
    /// taps some channel weighs inside the image, ascending (taps that
    /// share a step share its plaintext).
    pub steps: Vec<usize>,
    /// `weights[c][t]`: channel `c`'s plaintext for `steps[t]` — its tap
    /// weight at every anchor whose tap lies inside the image, 0
    /// elsewhere — or `None` when all zero.
    pub weights: Vec<Vec<Option<Vec<f64>>>>,
    /// Rotation step `(dim − offset_c) mod dim` that places channel `c`
    /// at its offset.
    pub place: Vec<usize>,
    /// Each channel's bias at its output slots, 0 elsewhere.
    pub bias: Vec<f64>,
}

impl ConvTaps {
    /// The tap form of `spec` over an `h × w` input at identity slots in
    /// a `dim`-slot lane, with the slot of each output in `(c, oy, ox)`
    /// order; `None` when the anchors collide mod `dim` or the channels
    /// find no disjoint offsets below `dim`.
    fn place(spec: &ConvSpec, (h, w): (usize, usize), dim: usize) -> Option<(Self, Vec<usize>)> {
        debug_assert_eq!(spec.in_ch, 1);
        let (k, s, p) = (spec.k, spec.stride, spec.pad as isize);
        let (oh, ow) = (spec.out_size(h), spec.out_size(w));
        // signed top-left input coordinate of each output's window
        let corners: Vec<(isize, isize)> = (0..oh)
            .flat_map(|oy| (0..ow).map(move |ox| ((s * oy) as isize - p, (s * ox) as isize - p)))
            .collect();
        let anchors: Vec<usize> = corners
            .iter()
            .map(|&(y, x)| (y * w as isize + x).rem_euclid(dim as isize) as usize)
            .collect();
        let mut taken = vec![false; dim];
        let mut offsets = Vec::with_capacity(spec.out_ch);
        let mut o = 0;
        for _ in 0..spec.out_ch {
            while o < dim && anchors.iter().any(|&a| taken[(a + o) % dim]) {
                o += 1;
            }
            if o == dim {
                return None;
            }
            for &a in &anchors {
                if std::mem::replace(&mut taken[(a + o) % dim], true) {
                    return None; // two anchors share a slot
                }
            }
            offsets.push(o);
        }

        let mut weights: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
        for (ky, kx) in (0..k).flat_map(|ky| (0..k).map(move |kx| (ky, kx))) {
            let step = (ky * w + kx) % dim;
            let per_ch = weights
                .entry(step)
                .or_insert_with(|| vec![vec![0.0; dim]; spec.out_ch]);
            for (c, pt) in per_ch.iter_mut().enumerate() {
                let wt = f64::from(spec.weight[(c * k + ky) * k + kx]);
                for (&(y, x), &a) in corners.iter().zip(&anchors) {
                    let (iy, ix) = (y + ky as isize, x + kx as isize);
                    if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                        // taps sharing a step never share an anchor
                        pt[a] = wt;
                    }
                }
            }
        }
        let nonzero = |v: &Vec<f64>| v.iter().any(|&x| x != 0.0);
        // a step no channel weighs inside the image is never rotated by
        weights.retain(|_, per_ch| per_ch.iter().any(nonzero));
        let steps: Vec<usize> = weights.keys().copied().collect();
        let weights = (0..spec.out_ch)
            .map(|c| {
                let tap = |per_ch: &Vec<Vec<f64>>| Some(per_ch[c].clone()).filter(nonzero);
                weights.values().map(tap).collect()
            })
            .collect();
        let mut bias = vec![0.0; dim];
        let mut slots = Vec::with_capacity(spec.out_ch * anchors.len());
        for (&off, &b) in offsets.iter().zip(&spec.bias) {
            for &a in &anchors {
                let slot = (a + off) % dim;
                bias[slot] = f64::from(b);
                slots.push(slot);
            }
        }
        let place = offsets.iter().map(|&off| (dim - off) % dim).collect();
        let taps = Self {
            steps,
            weights,
            place,
            bias,
        };
        Some((taps, slots))
    }

    /// Element rotation steps the form emits: every non-zero tap step,
    /// and the non-zero placement of every channel with a weight.
    pub fn rotation_steps(&self) -> BTreeSet<usize> {
        let channels = self.weights.iter().zip(&self.place);
        let placed = channels.filter(|(ch, _)| ch.iter().any(Option::is_some));
        let places = placed.map(|(_, &s)| s);
        self.steps
            .iter()
            .copied()
            .chain(places)
            .filter(|&s| s != 0)
            .collect()
    }

    fn eval(&self, x: &[f64]) -> Vec<f64> {
        let dim = x.len();
        let rot =
            |v: &[f64], s: usize| -> Vec<f64> { (0..dim).map(|j| v[(j + s) % dim]).collect() };
        let mut y = self.bias.clone();
        for (ch, &place) in self.weights.iter().zip(&self.place) {
            let mut acc = vec![0.0; dim];
            for (pt, &step) in ch.iter().zip(&self.steps) {
                if let Some(pt) = pt {
                    let xs = rot(x, step);
                    for j in 0..dim {
                        acc[j] += xs[j] * pt[j];
                    }
                }
            }
            for (yj, aj) in y.iter_mut().zip(rot(&acc, place)) {
                *yj += aj;
            }
        }
        y
    }
}

/// Rows of a linear layer as its `dim × dim` matrix over an input whose
/// flat index `j` sits in slot `in_slots[j]`, zero-padded (tap `(j, w)`
/// of row `i` is `M[i][in_slots[j]]`), in generalized-diagonal form.
/// Writing the taps straight into the diagonals yields the same values,
/// but on a 2-vCPU x86 host it made CNN1 packed requests 10–19% slower
/// on identical circuits, most likely through where the allocator then
/// places the prepared plaintexts once no 8 MB set-up temporary was
/// freed; hence the padded matrix.
fn rows_to_matrix(rows: &[Row], in_slots: &[usize], dim: usize) -> PackedLayer {
    let mut m = vec![0.0f64; dim * dim];
    let mut bias = vec![0.0f64; dim];
    for (i, row) in rows.iter().enumerate() {
        bias[i] = row.bias;
        for &(j, w) in &row.taps {
            m[i * dim + in_slots[j]] = w;
        }
    }
    PackedLayer::Matrix {
        diags: matrix_to_diags(&m, dim),
        bias,
        dim,
    }
}

/// Dense row-major matrix → generalized diagonals.
fn matrix_to_diags(m: &[f64], dim: usize) -> Vec<Option<Vec<f64>>> {
    (0..dim)
        .map(|d| {
            let diag: Vec<f64> = (0..dim).map(|i| m[i * dim + (i + d) % dim]).collect();
            if diag.iter().all(|&v| v == 0.0) {
                None
            } else {
                Some(diag)
            }
        })
        .collect()
}

/// A network in packed form: every layer padded to one power-of-two
/// dimension `dim`.
#[derive(Debug, Clone)]
pub struct PackedNetwork {
    pub layers: Vec<PackedLayer>,
    /// Common padded vector dimension (power of two).
    pub dim: usize,
    /// True input length (≤ dim), at identity slots.
    pub input_dim: usize,
    /// The lane slot of each true output, in output order.
    pub output_slots: Vec<usize>,
}

/// The client side of a packed network — what encrypting a batch into
/// shards and reading the logits back needs, without the layers (a
/// pipeline keeps this once its circuit is prepared; the layers' weights
/// live on in the prepared plaintexts).
#[derive(Debug, Clone)]
pub struct PackedIo {
    /// Common padded vector dimension (power of two).
    pub dim: usize,
    /// True input length (≤ dim), at identity slots.
    pub input_dim: usize,
    /// The lane slot of each true output, in output order.
    pub output_slots: Vec<usize>,
    /// The level a fresh input is encrypted at
    /// ([`PackedNetwork::required_levels`]).
    pub level: usize,
}

impl PackedIo {
    /// Plans a logical batch of `batch` images onto ciphertext shards,
    /// each at the full lane capacity `slots / dim`, the remainder
    /// spilling into further shards. An empty batch is
    /// [`HeError::EmptyBatch`].
    pub fn plan_batch(&self, slots: usize, batch: usize) -> Result<ShardPlan, HeError> {
        ShardPlan::plan(slots, self.dim, batch)
    }

    /// Encrypts a batch of images into the plan's shard ciphertexts:
    /// `plan.shards()` ciphertexts, each packing up to
    /// `plan.layout().stride()` images in the batch-strided layout.
    /// Typed failure when the images cannot be packed as planned.
    pub fn encrypt_batch(
        &self,
        ev: &Evaluator,
        pk: &PublicKey,
        sampler: &mut Sampler,
        images: &[&[f32]],
        plan: &ShardPlan,
    ) -> Result<Vec<Ciphertext>, HeError> {
        if images.len() != plan.total() {
            return Err(HeError::ShapeMismatch {
                what: "batch size",
                got: images.len(),
                expected: plan.total(),
            });
        }
        if let Some(img) = images.iter().find(|img| img.len() != self.input_dim) {
            return Err(HeError::ShapeMismatch {
                what: "image length",
                got: img.len(),
                expected: self.input_dim,
            });
        }
        let layout = plan.layout();
        let level = self.level;
        let scale = ev.ctx().params().scale();
        let mut out = Vec::with_capacity(plan.shards());
        for s in 0..plan.shards() {
            let lo = s * layout.stride();
            let hi = (lo + layout.stride()).min(images.len());
            let lanes: Vec<Vec<f64>> = images[lo..hi]
                .iter()
                .map(|img| img.iter().map(|&v| v as f64).collect())
                .collect();
            let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
            let pt = encode_batched(ev.ctx(), &refs, &layout, scale, level)?;
            out.push(ev.encrypt(&pt, pk, sampler));
        }
        Ok(out)
    }

    /// Decrypts the shard ciphertexts of a batched inference back to
    /// one logits row per image (the true logits, read
    /// through the output slot map, in the original batch order).
    pub fn decrypt_batch(
        &self,
        ev: &Evaluator,
        sk: &SecretKey,
        shards: &[Ciphertext],
        plan: &ShardPlan,
    ) -> Vec<Vec<f64>> {
        assert_eq!(shards.len(), plan.shards(), "plan/shard count mismatch");
        let layout = plan.layout();
        let mut out = Vec::with_capacity(plan.total());
        for (s, ct) in shards.iter().enumerate() {
            let dec = ev.decrypt_to_real(ct, sk);
            let lanes = layout.unpack(&dec, plan.lanes_in_shard(s), self.dim);
            out.extend(
                lanes
                    .into_iter()
                    .map(|lane| self.output_slots.iter().map(|&j| lane[j]).collect()),
            );
        }
        out
    }
}

/// The network's layers at `dim`, each linear layer in the form the
/// module docs give it, with the output slot map and whether every
/// single-input-channel conv over identity slots took the tap form.
fn pack_layers(
    net: &HeNetwork,
    forms: &[LayerForm],
    dim: usize,
) -> (Vec<PackedLayer>, Vec<usize>, bool) {
    let mut slots: Vec<usize> = (0..net.input_side * net.input_side).collect();
    let mut all_placed = true;
    let mut layers = Vec::with_capacity(forms.len());
    for ((layer, shape), form) in net.layers.iter().zip(net.input_shapes()).zip(forms) {
        let rows = match form {
            LayerForm::Slaf(c) => {
                layers.push(PackedLayer::Activation(c.to_vec()));
                continue;
            }
            LayerForm::Linear(rows) => rows,
        };
        let identity = slots.iter().enumerate().all(|(i, &s)| i == s);
        if let HeLayerSpec::Conv(spec) = layer {
            if spec.in_ch == 1 && identity {
                match ConvTaps::place(spec, (shape.1, shape.2), dim) {
                    Some((taps, out)) => {
                        layers.push(PackedLayer::Conv(taps));
                        slots = out;
                        continue;
                    }
                    None => all_placed = false,
                }
            }
        }
        layers.push(rows_to_matrix(rows, &slots, dim));
        slots = (0..rows.len()).collect();
    }
    (layers, slots, all_placed)
}

impl PackedNetwork {
    /// Converts an extracted network into packed form over the next
    /// power of two of the largest layer dimension, doubled once when a
    /// conv's channels only place disjointly at twice that.
    pub fn from_network(net: &HeNetwork) -> Self {
        let input_dim = net.input_side * net.input_side;
        let forms: Vec<LayerForm> = net.forms().collect();
        let max_dim = forms.iter().fold(input_dim, |d, f| match f {
            LayerForm::Linear(rows) => d.max(rows.len()),
            LayerForm::Slaf(_) => d,
        });
        let mut dim = max_dim.next_power_of_two();
        let (mut layers, mut output_slots, placed) = pack_layers(net, &forms, dim);
        if !placed {
            let wider = pack_layers(net, &forms, 2 * dim);
            if wider.2 {
                (layers, output_slots, dim) = (wider.0, wider.1, 2 * dim);
            }
        }
        Self {
            layers,
            dim,
            input_dim,
            output_slots,
        }
    }

    /// Baby-step size `B ≈ √dim` (power of two, `B² ≥ dim`).
    pub fn baby(&self) -> usize {
        let mut b = 1usize;
        while b * b < self.dim {
            b <<= 1;
        }
        b
    }

    /// Element rotation steps `layer` needs in the reference circuit: a
    /// matrix's textbook BSGS shifts (babies `1..B`, giants `B, 2B, …`
    /// below `dim`), a conv's [`ConvTaps::rotation_steps`].
    pub fn layer_rotation_steps(&self, layer: &PackedLayer) -> BTreeSet<usize> {
        match layer {
            PackedLayer::Matrix { .. } => {
                let b = self.baby();
                (1..b).chain((b..self.dim).step_by(b)).collect()
            }
            PackedLayer::Conv(taps) => taps.rotation_steps(),
            PackedLayer::Activation(_) => BTreeSet::new(),
        }
    }

    /// Galois rotation steps the reference circuit needs in `layout`:
    /// every layer's [`Self::layer_rotation_steps`], each scaled by the
    /// lane stride (rotating by `d·stride` shifts every lane's elements
    /// by `d`).
    pub fn required_rotation_steps_for(&self, layout: &PackLayout) -> Vec<i64> {
        assert_eq!(layout.dim(), self.dim, "layout dim mismatch");
        let steps: BTreeSet<usize> = self
            .layers
            .iter()
            .flat_map(|l| self.layer_rotation_steps(l))
            .collect();
        steps
            .into_iter()
            .map(|s| layout.rotation_step(s as i64))
            .collect()
    }

    /// Plaintext reference of the packed function on one lane's slots
    /// (must equal the original network's `infer_plain` on the true
    /// outputs).
    pub fn infer_plain(&self, input: &[f32]) -> Vec<f64> {
        assert_eq!(input.len(), self.input_dim);
        let mut x = vec![0.0f64; self.dim];
        for (i, &v) in input.iter().enumerate() {
            x[i] = v as f64;
        }
        for layer in &self.layers {
            match layer {
                PackedLayer::Matrix { diags, bias, dim } => {
                    let mut y = bias.clone();
                    for (d, diag) in diags.iter().enumerate() {
                        if let Some(diag) = diag {
                            for i in 0..*dim {
                                y[i] += diag[i] * x[(i + d) % dim];
                            }
                        }
                    }
                    x = y;
                }
                PackedLayer::Conv(taps) => x = taps.eval(&x),
                PackedLayer::Activation(c) => {
                    for v in x.iter_mut() {
                        *v = horner(c, *v);
                    }
                }
            }
        }
        self.output_slots.iter().map(|&s| x[s]).collect()
    }

    /// Multiplicative levels required.
    pub fn required_levels(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                PackedLayer::Matrix { .. } | PackedLayer::Conv(_) => 1,
                PackedLayer::Activation(_) => 2,
            })
            .sum()
    }

    /// What a request reads of the network: its lane dimension, input
    /// length, output slot map and input level.
    pub fn io(&self) -> PackedIo {
        PackedIo {
            dim: self.dim,
            input_dim: self.input_dim,
            output_slots: self.output_slots.clone(),
            level: self.required_levels(),
        }
    }

    /// [`PackedIo::plan_batch`].
    pub fn plan_batch(&self, slots: usize, batch: usize) -> Result<ShardPlan, HeError> {
        ShardPlan::plan(slots, self.dim, batch)
    }

    /// [`PackedIo::encrypt_batch`].
    pub fn encrypt_batch(
        &self,
        ev: &Evaluator,
        pk: &PublicKey,
        sampler: &mut Sampler,
        images: &[&[f32]],
        plan: &ShardPlan,
    ) -> Result<Vec<Ciphertext>, HeError> {
        self.io().encrypt_batch(ev, pk, sampler, images, plan)
    }

    /// [`PackedIo::decrypt_batch`].
    pub fn decrypt_batch(
        &self,
        ev: &Evaluator,
        sk: &SecretKey,
        shards: &[Ciphertext],
        plan: &ShardPlan,
    ) -> Vec<Vec<f64>> {
        self.io().decrypt_batch(ev, sk, shards, plan)
    }

    /// Prepares the reference circuit ([`PackedLowering::Eager`]) for a
    /// layout: every tap, diagonal and bias plaintext is broadcast to every
    /// lane and encoded once, hoisting the embedding+NTT cost out of
    /// inference. The production path
    /// ([`crate::CnnHePipeline`]) prepares the *compiled* circuit the
    /// same way; this one is the reference tests and benchmarks compare
    /// it against.
    pub fn precompute_layout(&self, ev: &Evaluator, layout: &PackLayout) -> PackedPrecomputed {
        assert_eq!(layout.dim(), self.dim, "layout dim mismatch");
        assert_eq!(layout.slots(), ev.ctx().slots(), "layout ring mismatch");
        let circuit = lower_packed(
            self,
            he_ir::GraphBuilder::for_context(ev.ctx()),
            layout.stride(),
            PackedLowering::Eager,
        );
        PackedPrecomputed {
            prepared: he_ir::Prepared::new(ev, circuit).expect("the eager lowering validates"),
        }
    }

    /// Interprets the reference circuit over every shard of a batched
    /// request. `gk` must cover [`Self::required_rotation_steps_for`]
    /// the precompute's layout.
    pub fn infer_batch(
        &self,
        ev: &Evaluator,
        rk: &RelinKey,
        gk: &GaloisKeys,
        pre: &PackedPrecomputed,
        shards: Vec<Ciphertext>,
    ) -> ShardRun {
        let interp = he_ir::Interpreter::new(ev).with_relin(rk).with_galois(gk);
        let (outs, timing) =
            run_shards(&pre.prepared, &interp, shards).expect("the reference circuit executes");
        let walls = timing.layers.into_iter().map(|l| (l.name, l.wall));
        (outs, walls.collect())
    }
}

/// Output shards of a batched run plus one wall per shard and region,
/// named `shard s: <region>`.
pub type ShardRun = (Vec<Ciphertext>, Vec<(String, Duration)>);

/// Runs one prepared packed circuit over every shard of a batched
/// request. Shards are independent runs of the same circuit, so they
/// fan out across the rayon pool (limb loops inside a shard then run
/// inline); the order-preserving `collect` keeps shard `s`'s output and
/// its `shard s: <region>` records at index `s`, bit-identical to a
/// one-thread run. Each run consumes its shard's input.
pub(crate) fn run_shards(
    prepared: &he_ir::Prepared,
    interp: &he_ir::Interpreter,
    shards: Vec<Ciphertext>,
) -> Result<(Vec<Ciphertext>, crate::exec::InferenceTiming), String> {
    let mut inputs: Vec<HashMap<String, Ciphertext>> = shards
        .into_iter()
        .map(|ct| HashMap::from([(PACKED_INPUT.to_string(), ct)]))
        .collect();
    let runs: Vec<Result<he_ir::RunOutput, String>> = inputs
        .par_iter_mut()
        .map(|inputs| prepared.run(interp, std::mem::take(inputs)))
        .collect();
    let mut outs = Vec::with_capacity(runs.len());
    let mut layers = Vec::new();
    for (s, run) in runs.into_iter().enumerate() {
        let mut run = run?;
        outs.push(run.outputs.remove(0));
        for mut record in run.regions {
            record.name.insert_str(0, &format!("shard {s}: "));
            layers.push(record);
        }
    }
    Ok((outs, crate::exec::InferenceTiming { layers }))
}

/// The prepared reference circuit of a packed network at one layout.
pub struct PackedPrecomputed {
    prepared: he_ir::Prepared,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::he_layers::{ConvSpec, DenseSpec};
    use crate::he_tensor::encrypt_image_batch;
    use ckks::{CkksParams, KeyGenerator};
    use std::sync::Arc;

    /// A small CNN1-shaped network over 8×8 inputs (dims ≤ 64).
    fn mini_net(seed: u64) -> HeNetwork {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.25f32..0.25)).collect() };
        HeNetwork {
            layers: vec![
                HeLayerSpec::Conv(ConvSpec {
                    weight: w(2 * 9),
                    bias: vec![0.1, -0.1],
                    in_ch: 1,
                    out_ch: 2,
                    k: 3,
                    stride: 2,
                    pad: 0,
                }), // 8→3, out dim 18
                HeLayerSpec::Activation(vec![0.05, 0.7, 0.2]),
                HeLayerSpec::Dense(DenseSpec {
                    weight: w(18 * 5),
                    bias: w(5),
                    in_dim: 18,
                    out_dim: 5,
                }),
            ],
            input_side: 8,
        }
    }

    /// One image through the reference circuit, in lane 0 of the
    /// ring's full-capacity layout.
    fn infer_one(
        packed: &PackedNetwork,
        ev: &Evaluator,
        (pk, rk, gk): (&PublicKey, &RelinKey, &GaloisKeys),
        sampler: &mut Sampler,
        img: &[f32],
    ) -> (Ciphertext, Vec<(String, Duration)>) {
        let plan = packed
            .plan_batch(ev.ctx().slots(), 1)
            .expect("dim fits the ring");
        let cts = packed
            .encrypt_batch(ev, pk, sampler, &[img], &plan)
            .expect("one lane packs");
        let pre = packed.precompute_layout(ev, &plan.layout());
        let (mut outs, times) = packed.infer_batch(ev, rk, gk, &pre, cts);
        (outs.remove(0), times)
    }

    #[test]
    fn packed_plain_matches_original_plain() {
        let net = mini_net(40);
        let packed = PackedNetwork::from_network(&net);
        assert_eq!(packed.input_dim, 64);
        assert_eq!(packed.output_slots, [0, 1, 2, 3, 4]);
        assert_eq!(packed.dim, 64); // max(64, 18, 5) → 64
        let img: Vec<f32> = (0..64).map(|i| ((i * 3) % 10) as f32 / 10.0).collect();
        let a = net.infer_plain(&img);
        let b = packed.infer_plain(&img);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        // Over random conv geometries (padding, stride, zero weights):
        // the packed layers compute the network's plain reference. The
        // 1×1 fan-out takes the tap form; the conv under test takes it
        // with one input channel and is a matrix over the fan-out's slot
        // map with two. A tap-form layer rotates once per distinct
        // non-zero step of a tap some channel weighs inside the image,
        // and once per channel past the first that has such a tap.
        #[test]
        fn conv_matrix_lowering_is_exact(
            seed in 0u64..1_000,
            geo in crate::network::tests::conv_geometry(),
        ) {
            let (_, net) = crate::network::tests::random_conv(seed, geo);
            let (in_ch, side) = (geo.0, geo.5);
            let packed = PackedNetwork::from_network(&net);
            let x: Vec<f32> = (0..side * side).map(|i| (i as f32 - 8.0) * 0.25).collect();
            let (direct, via_slots) = (net.infer_plain(&x), packed.infer_plain(&x));
            proptest::prop_assert_eq!(direct.len(), via_slots.len());
            for (i, (d, p)) in direct.iter().zip(&via_slots).enumerate() {
                proptest::prop_assert!((d - p).abs() < 1e-9, "row {i}: {d} vs {p}");
            }

            let forms: Vec<bool> = packed
                .layers
                .iter()
                .map(|l| matches!(l, PackedLayer::Conv(_)))
                .collect();
            proptest::prop_assert_eq!(forms, vec![true, in_ch == 1]);
            let params = CkksParams::tiny(packed.required_levels());
            let circuit = lower_packed(
                &packed,
                he_ir::GraphBuilder::new(params),
                1,
                PackedLowering::Compiled,
            );
            let rotations_in = |li: usize| {
                let layer = format!("packed layer {li}: ");
                let regions = circuit.regions.iter().filter(|r| r.name.starts_with(&layer));
                regions.map(|r| circuit.op_counts_in(r).rotations).sum::<u64>()
            };
            proptest::prop_assert_eq!(rotations_in(0), in_ch as u64 - 1);
            if in_ch == 1 {
                let crate::network::HeLayerSpec::Conv(spec) = &net.layers[1] else {
                    unreachable!("the fan-out, then the conv under test")
                };
                let (k, oside) = (spec.k, spec.out_size(side));
                let inside = |o: usize, t: usize| {
                    let c = (o * spec.stride + t) as isize - spec.pad as isize;
                    (0..side as isize).contains(&c)
                };
                let seen = |ky: usize, kx: usize| {
                    (0..oside).any(|oy| inside(oy, ky)) && (0..oside).any(|ox| inside(ox, kx))
                };
                let weighed = |c: usize, ky: usize, kx: usize| {
                    spec.weight[(c * k + ky) * k + kx] != 0.0 && seen(ky, kx)
                };
                let taps = (0..k * k).map(|t| (t / k, t % k));
                let steps: BTreeSet<usize> = taps
                    .clone()
                    .filter(|&(ky, kx)| (0..spec.out_ch).any(|c| weighed(c, ky, kx)))
                    .map(|(ky, kx)| (ky * side + kx) % packed.dim)
                    .filter(|&s| s != 0)
                    .collect();
                let placed = (1..spec.out_ch)
                    .filter(|&c| taps.clone().any(|(ky, kx)| weighed(c, ky, kx)))
                    .count();
                proptest::prop_assert_eq!(rotations_in(1), (steps.len() + placed) as u64);
            }
        }
    }

    #[test]
    fn packed_encrypted_matches_plain() {
        let net = mini_net(41);
        let packed = PackedNetwork::from_network(&net);
        let ctx = CkksParams::tiny(packed.required_levels()).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 42);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let layout = packed.plan_batch(ctx.slots(), 1).unwrap().layout();
        let gk = kg.gen_galois_keys(&sk, &packed.required_rotation_steps_for(&layout), false);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(43);

        let img: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 / 13.0).collect();
        let (y, times) = infer_one(&packed, &ev, (&pk, &rk, &gk), &mut s, &img);
        // three regions per linear layer (conv taps, channels and sum;
        // matvec babies, blocks and sum), one SLAF region
        assert_eq!(times.len(), 7);
        assert!(times[1].0.starts_with("shard 0: "), "{}", times[1].0);
        let out = layout.unpack(&ev.decrypt_to_real(&y, &sk), 1, packed.output_slots.len());
        let (out, want) = (&out[0], packed.infer_plain(&img));
        for i in 0..packed.output_slots.len() {
            assert!(
                (out[i] - want[i]).abs() < 0.02,
                "slot {i}: {} vs {}",
                out[i],
                want[i]
            );
        }
    }

    #[test]
    fn packed_uses_fewer_ciphertext_ops_than_scalar() {
        // structural claim behind the Lo-La trade: a matrix layer needs
        // ≈ 2√D rotation steps and a tap-form conv k² + C − 2, instead
        // of D·taps scalar MACs + per-neuron SLAFs
        let net = mini_net(44);
        let packed = PackedNetwork::from_network(&net);
        assert!(matches!(packed.layers[0], PackedLayer::Conv(_)));
        for (spec, layer) in net.layers.iter().zip(&packed.layers) {
            let budget = match (spec, layer) {
                (_, PackedLayer::Matrix { .. }) => 2 * (packed.dim as f64).sqrt() as usize + 2,
                (HeLayerSpec::Conv(c), PackedLayer::Conv(_)) => c.k * c.k + c.out_ch - 2,
                _ => 0,
            };
            let steps = packed.layer_rotation_steps(layer).len();
            assert!(
                steps <= budget,
                "rotation budget blew up: {steps} for {} at dim {}",
                spec.name(),
                packed.dim
            );
        }
    }

    #[test]
    fn encrypt_batch_refuses_misshapen_requests_typed() {
        let packed = PackedNetwork::from_network(&mini_net(48));
        let ctx = CkksParams::tiny(packed.required_levels()).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 49);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(50);
        let plan = packed.plan_batch(ctx.slots(), 2).unwrap();
        let (good, short) = (vec![0.5f32; 64], vec![0.5f32; 10]);
        let err = packed
            .encrypt_batch(&ev, &pk, &mut s, &[&good, &short], &plan)
            .unwrap_err();
        assert_eq!(
            err,
            HeError::ShapeMismatch {
                what: "image length",
                got: 10,
                expected: 64
            }
        );
        let err = packed
            .encrypt_batch(&ev, &pk, &mut s, &[&good], &plan)
            .unwrap_err();
        assert!(matches!(
            err,
            HeError::ShapeMismatch {
                what: "batch size",
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn batched_inference_matches_plain_per_lane() {
        // 3 images in ONE 8-lane ciphertext (the other lanes hold
        // zeros): the packed BSGS circuit runs once, every lane gets its
        // logits
        let net = mini_net(51);
        let packed = PackedNetwork::from_network(&net);
        let ctx = CkksParams::tiny(packed.required_levels()).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 52);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(53);

        let plan = packed.plan_batch(ctx.slots(), 3).unwrap();
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.layout().stride(), 8, "3 lanes ride the full capacity");
        let gk = kg.gen_galois_keys(
            &sk,
            &packed.required_rotation_steps_for(&plan.layout()),
            false,
        );

        let images: Vec<Vec<f32>> = (0..3)
            .map(|k| {
                (0..64)
                    .map(|i| ((i * (k + 3)) % 11) as f32 / 11.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
        let cts = packed
            .encrypt_batch(&ev, &pk, &mut s, &refs, &plan)
            .unwrap();
        let pre = packed.precompute_layout(&ev, &plan.layout());
        let (outs, _) = packed.infer_batch(&ev, &rk, &gk, &pre, cts);
        let logits = packed.decrypt_batch(&ev, &sk, &outs, &plan);
        assert_eq!(logits.len(), 3);
        for (k, img) in images.iter().enumerate() {
            let want = packed.infer_plain(img);
            for i in 0..packed.output_slots.len() {
                assert!(
                    (logits[k][i] - want[i]).abs() < 0.02,
                    "image {k} logit {i}: {} vs {}",
                    logits[k][i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn batch_overflow_spills_into_shards() {
        let net = mini_net(54);
        let packed = PackedNetwork::from_network(&net);
        // tiny ring: 512 slots / dim 64 = 8 lanes per ciphertext
        let plan = packed.plan_batch(512, 9).unwrap();
        assert_eq!(plan.shards(), 2, "9 images need a 2-shard split");
        assert_eq!(plan.lanes_in_shard(0), 8);
        assert_eq!(plan.lanes_in_shard(1), 1);
    }

    #[test]
    fn empty_batch_plan_is_a_typed_error() {
        let packed = PackedNetwork::from_network(&mini_net(54));
        assert_eq!(packed.plan_batch(512, 0), Err(HeError::EmptyBatch));
    }

    #[test]
    fn scalar_and_packed_engines_agree_encrypted() {
        // the two engines evaluate the same function — compare their
        // *encrypted* outputs on the same trained-free weights
        let net = mini_net(45);
        let packed = PackedNetwork::from_network(&net);
        let depth = packed.required_levels();
        let ctx = CkksParams::tiny(depth).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), 46);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let layout = packed.plan_batch(ctx.slots(), 1).unwrap().layout();
        let gk = kg.gen_galois_keys(&sk, &packed.required_rotation_steps_for(&layout), false);
        let ev = Evaluator::new(Arc::clone(&ctx));
        let mut s = Sampler::from_seed(47);

        let img: Vec<f32> = (0..64).map(|i| (i % 5) as f32 / 5.0).collect();

        // scalar engine
        let xt = encrypt_image_batch(&ev, &pk, &mut s, &[&img], 8, depth);
        let (scalar_out, _) = net.infer_encrypted(&ev, &rk, xt);
        let scalar_logits = crate::he_tensor::decrypt_tensor(&ev, &sk, &scalar_out, 1);

        // packed engine
        let (packed_out, _) = infer_one(&packed, &ev, (&pk, &rk, &gk), &mut s, &img);
        let dec = ev.decrypt_to_real(&packed_out, &sk);
        let packed_logits = layout.unpack(&dec, 1, packed.output_slots.len()).remove(0);

        for i in 0..packed.output_slots.len() {
            assert!(
                (scalar_logits[0][i] - packed_logits[i]).abs() < 0.03,
                "logit {i}: scalar {} vs packed {}",
                scalar_logits[0][i],
                packed_logits[i]
            );
        }
    }
}
