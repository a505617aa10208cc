//! IR interpreter: executes a [`Circuit`] against the real
//! `ckks::Evaluator`, op for op.
//!
//! Every IR node maps to exactly one evaluator call, so a circuit
//! recorded from an eager op sequence and interpreted with the same
//! context, keys, and input ciphertexts produces **bit-identical**
//! outputs — the property he-diff's IR-vs-eager differential mode
//! checks limb for limb.
//!
//! Execution is split into *prepare once / execute many*. A
//! [`Prepared`] circuit has been validated, carries its deallocation
//! schedule (the liveness pass's last uses), has evaluated every encode
//! node once — scalars as prepared residues, vector operands broadcast
//! and encoded at the level/scale their consumer's declared type fixes
//! — and has split every region into units ([`Circuit::units`]). A run
//! executes the regions in order, each region's units across the rayon
//! pool, joined before the next region starts; units read only values
//! computed before their region, so outputs are bit-identical at any
//! pool width. [`Interpreter::run`] is prepare-then-execute over the
//! same routine; nothing is cached between calls.

use crate::circuit::{Circuit, NodeId, Op};
use crate::passes::liveness;
use ckks::{Ciphertext, Evaluator, GaloisKeys, Plaintext, PreparedScalar, RelinKey};
use he_trace::{cats, span_fn, OpSnapshot};
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A value computed for one node.
#[derive(Debug, Clone)]
pub enum Value {
    Ct(Ciphertext),
    Plain(PreparedScalar),
    /// An element-domain vector pattern ([`Op::EncodeVec`]); its
    /// consumers read the plaintext [`Prepared`] encoded for them.
    PlainVec(std::sync::Arc<Vec<f64>>),
}

impl Value {
    pub fn as_ct(&self) -> Option<&Ciphertext> {
        match self {
            Value::Ct(ct) => Some(ct),
            Value::Plain(_) | Value::PlainVec(_) => None,
        }
    }

    fn ct(&self) -> Result<&Ciphertext, String> {
        self.as_ct().ok_or_else(|| "expected a ciphertext".into())
    }

    fn plain(&self) -> Result<&PreparedScalar, String> {
        match self {
            Value::Plain(p) => Ok(p),
            _ => Err("expected a prepared scalar".into()),
        }
    }
}

/// Executes circuits with real key material.
pub struct Interpreter<'a> {
    pub ev: &'a Evaluator,
    pub rk: Option<&'a RelinKey>,
    pub gk: Option<&'a GaloisKeys>,
}

impl<'a> Interpreter<'a> {
    pub fn new(ev: &'a Evaluator) -> Self {
        Self {
            ev,
            rk: None,
            gk: None,
        }
    }

    pub fn with_relin(mut self, rk: &'a RelinKey) -> Self {
        self.rk = Some(rk);
        self
    }

    pub fn with_galois(mut self, gk: &'a GaloisKeys) -> Self {
        self.gk = Some(gk);
        self
    }

    /// Prepares and runs the circuit once, freeing intermediates at
    /// their last use, and returns the output ciphertexts in output
    /// order.
    pub fn run(
        &self,
        c: &Circuit,
        inputs: &HashMap<String, Ciphertext>,
    ) -> Result<Vec<Ciphertext>, String> {
        Ok(Prepared::new(self.ev, c.clone())?
            .run(self, inputs.clone())?
            .outputs)
    }

    /// Runs the circuit keeping every node's value — for per-node
    /// differential comparison against an eager trace.
    pub fn run_all(
        &self,
        c: &Circuit,
        inputs: &HashMap<String, Ciphertext>,
    ) -> Result<Vec<Value>, String> {
        let prepared = Prepared::new(self.ev, c.clone())?;
        let (mut values, _) = prepared.execute(self, inputs.clone(), false)?;
        for (id, &k) in prepared.const_of.iter().enumerate() {
            values[id] = values[id].take().or(k.map(|k| prepared.consts[k].clone()));
        }
        Ok(values.into_iter().map(|v| v.expect("kept")).collect())
    }
}

/// What one region of a [`Prepared::run`] did.
#[derive(Debug, Clone, Default)]
pub struct RegionRun {
    /// Wall of the whole region.
    pub wall: Duration,
    /// Wall of each unit, in unit order.
    pub unit_walls: Vec<Duration>,
    /// HE op counters across the region. They are process-global: HE
    /// work other threads do meanwhile lands here too.
    pub ops: OpSnapshot,
    /// Runtime level and scale of the region's last ciphertext.
    pub level: usize,
    pub scale: f64,
}

/// What one [`Prepared::run`] produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Output ciphertexts, in the circuit's output order.
    pub outputs: Vec<Ciphertext>,
    /// One record per region, aligned with `circuit().regions`.
    pub regions: Vec<RegionRun>,
}

/// A run of consecutive nodes: a region, or the nodes between regions.
struct Span {
    nodes: Range<NodeId>,
    region: Option<usize>,
    units: Vec<Vec<NodeId>>,
}

/// A circuit made ready to execute many times: validated once, its
/// deallocation schedule and units computed once, every encode node
/// evaluated once, and one plaintext encoded per distinct
/// (`EncodeVec` node, lane stride, level, scale) use.
pub struct Prepared {
    circuit: Circuit,
    /// Highest node using each node; `None` for values that are never
    /// freed (outputs) or never used.
    last_use: Vec<Option<NodeId>>,
    /// Index into `consts` of each encode node's value.
    const_of: Vec<Option<usize>>,
    consts: Vec<Value>,
    encoded: Vec<Plaintext>,
    /// Index into `encoded` of the operand each vector-weight
    /// `MulPlain`/`AddPlain` node consumes.
    plain_of: Vec<Option<usize>>,
    /// Whether each node is the last `Input` of its name, which moves
    /// the ciphertext out of the run's inputs instead of copying it.
    moves_input: Vec<bool>,
    spans: Vec<Span>,
    /// Position of each computed node in its unit (`usize::MAX` for
    /// inputs and encodes).
    slot: Vec<usize>,
}

impl Prepared {
    /// Validates the circuit and evaluates its encode nodes in `ev`'s
    /// context. Level and scale of each vector operand come from the
    /// declared type of the consuming node's ciphertext argument, so
    /// the circuit must have been lowered against that context
    /// ([`crate::GraphBuilder::for_context`]); a run whose ciphertexts
    /// disagree with the declared types fails typed.
    pub fn new(ev: &Evaluator, circuit: Circuit) -> Result<Self, String> {
        circuit.validate()?;
        let n = circuit.nodes.len();
        let mut last_use = liveness::analyze(&circuit).last_use;
        for &o in &circuit.outputs {
            last_use[o] = None;
        }
        let mut consts = Vec::new();
        let mut const_of = vec![None; n];
        for (id, node) in circuit.nodes.iter().enumerate() {
            let value = match (&node.op, node.ty.as_plain()) {
                (Op::EncodeScalar { value, pt_scale }, Some(ty)) => {
                    Value::Plain(ev.prepare_scalar(*value, *pt_scale, ty.level))
                }
                (Op::EncodeVec { values, .. }, _) => Value::PlainVec(std::sync::Arc::clone(values)),
                _ => continue,
            };
            const_of[id] = Some(consts.len());
            consts.push(value);
        }
        let mut encoded = Vec::new();
        let mut plain_of = vec![None; n];
        let mut seen: HashMap<(NodeId, usize, usize, u64), usize> = HashMap::new();
        for (id, node) in circuit.nodes.iter().enumerate() {
            let (src, plain, is_mul) = match node.op {
                Op::MulPlain { src, plain } => (src, plain, true),
                Op::AddPlain { src, plain } => (src, plain, false),
                _ => continue,
            };
            // scalar weights are re-encoded by `mul_scalar` itself
            let Op::EncodeVec { values, pt_scale } = &circuit.nodes[plain].op else {
                continue;
            };
            let ty = circuit.nodes[src]
                .ty
                .as_ct()
                .ok_or("broadcast source must be a ciphertext")?;
            // a weight carries its own scale; a bias is added at the
            // ciphertext's scale
            let scale = if is_mul { *pt_scale } else { ty.scale };
            let stride = ty.layout.lane_stride();
            let idx = *seen
                .entry((plain, stride, ty.level, scale.to_bits()))
                .or_insert_with(|| {
                    encoded.push(encode_broadcast(ev, values, stride, scale, ty.level));
                    encoded.len() - 1
                });
            plain_of[id] = Some(idx);
        }
        let mut moves_input = vec![false; n];
        {
            let mut named = HashSet::new();
            for (id, node) in circuit.nodes.iter().enumerate().rev() {
                if let Op::Input { name } = &node.op {
                    moves_input[id] = named.insert(name.as_str());
                }
            }
        }
        let mut spans = Vec::new();
        let mut next = 0;
        for (r, region) in circuit.regions.iter().enumerate() {
            spans.push((next..region.first, None));
            spans.push((region.nodes(), Some(r)));
            next = region.nodes().end;
        }
        spans.push((next..n, None));
        let mut slot = vec![usize::MAX; n];
        let spans = spans
            .into_iter()
            .map(|(nodes, region)| {
                let units = circuit.units(nodes.clone());
                for (i, &id) in units.iter().flat_map(|u| u.iter().enumerate()) {
                    slot[id] = i;
                }
                Span {
                    nodes,
                    region,
                    units,
                }
            })
            .collect();
        Ok(Self {
            circuit,
            last_use,
            const_of,
            consts,
            encoded,
            plain_of,
            moves_input,
            spans,
            slot,
        })
    }

    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The distinct plaintext operands encoded at prepare time.
    pub fn encoded_operands(&self) -> &[Plaintext] {
        &self.encoded
    }

    /// Runs the circuit with `interp`'s keys, freeing intermediates at
    /// their last use. The run consumes `inputs`: each input ciphertext
    /// becomes its `Input` node's value without a copy.
    pub fn run(
        &self,
        interp: &Interpreter,
        inputs: HashMap<String, Ciphertext>,
    ) -> Result<RunOutput, String> {
        let (values, regions) = self.execute(interp, inputs, true)?;
        let outputs = self
            .circuit
            .outputs
            .iter()
            .map(|&o| {
                values[o]
                    .as_ref()
                    .ok_or_else(|| format!("output {o} was freed"))?
                    .ct()
                    .cloned()
            })
            .collect::<Result<_, String>>()?;
        Ok(RunOutput { outputs, regions })
    }

    /// The one execution loop, span by span: inputs bind on the caller,
    /// then the units run across the pool (a single unit runs on the
    /// caller) and join; `free` drops each value after its last use.
    fn execute(
        &self,
        interp: &Interpreter,
        mut inputs: HashMap<String, Ciphertext>,
        free: bool,
    ) -> Result<(Vec<Option<Value>>, Vec<RegionRun>), String> {
        let c = &self.circuit;
        let mut values: Vec<Option<Value>> = (0..c.nodes.len()).map(|_| None).collect();
        let mut runs = Vec::with_capacity(c.regions.len());
        for span in &self.spans {
            let name = |r: usize| c.regions[r].name.clone();
            let _layer = span.region.map(|r| span_fn(cats::LAYER, || name(r)));
            let (ops, t0) = (OpSnapshot::now(), Instant::now());
            for id in span.nodes.clone() {
                if let Op::Input { name } = &c.nodes[id].op {
                    let bound = if self.moves_input[id] {
                        inputs.remove(name)
                    } else {
                        inputs.get(name).cloned()
                    };
                    let ct =
                        bound.ok_or_else(|| format!("no input ciphertext bound for '{name}'"))?;
                    values[id] = Some(Value::Ct(ct));
                }
            }
            let shared: &[Option<Value>] = &values;
            let many = span.region.filter(|_| span.units.len() > 1);
            let units: Vec<_> = span
                .units
                .par_iter()
                .enumerate()
                .map(|(u, nodes)| {
                    let _unit = many.map(|r| span_fn(cats::UNIT, || format!("{}#{u}", name(r))));
                    let t = Instant::now();
                    let local = self.run_unit(interp, nodes, &span.nodes, shared, free);
                    local.map(|local| (local, t.elapsed()))
                })
                .collect();
            let mut unit_walls = Vec::with_capacity(units.len());
            for (nodes, unit) in span.units.iter().zip(units) {
                let (local, wall) = unit?;
                for (&id, v) in nodes.iter().zip(local).filter(|(_, v)| v.is_some()) {
                    values[id] = v;
                }
                unit_walls.push(wall);
            }
            // values from before the span die at its end, not mid-unit
            for id in span.nodes.clone() {
                for a in c.nodes[id].op.args() {
                    if free && self.last_use[a] == Some(id) {
                        values[a] = None;
                    }
                }
            }
            if span.region.is_some() {
                let mut exit = span.nodes.clone().rev();
                let exit = exit.find_map(|id| values[id].as_ref()?.as_ct());
                runs.push(RegionRun {
                    wall: t0.elapsed(),
                    unit_walls,
                    ops: OpSnapshot::now().delta(&ops),
                    level: exit.map_or(0, |ct| ct.level),
                    scale: exit.map_or(0.0, |ct| ct.scale),
                });
            }
        }
        Ok((values, runs))
    }

    /// Executes one unit into its own value store: the unit's nodes read
    /// each other from it, and everything else from `shared`. An
    /// accumulator at its last use is updated in place.
    fn run_unit(
        &self,
        interp: &Interpreter,
        nodes: &[NodeId],
        span: &Range<NodeId>,
        shared: &[Option<Value>],
        free: bool,
    ) -> Result<Vec<Option<Value>>, String> {
        let local_slot =
            |a: NodeId| (span.contains(&a) && self.slot[a] != usize::MAX).then(|| self.slot[a]);
        let mut local: Vec<Option<Value>> = (0..nodes.len()).map(|_| None).collect();
        for (i, &id) in nodes.iter().enumerate() {
            let acc = match self.circuit.nodes[id].op {
                Op::MacPlain { acc, src, .. } if acc != src => Some(acc),
                Op::AddScalar { src, .. } => Some(src),
                _ => None,
            };
            let last = |a: NodeId| free && self.last_use[a] == Some(id);
            let owned = acc.filter(|&a| last(a)).and_then(local_slot);
            let owned = match owned.map(|s| local[s].take()) {
                Some(Some(Value::Ct(ct))) => Some(ct),
                _ => None,
            };
            let view: &[Option<Value>] = &local;
            let get = |a: NodeId| {
                match (self.const_of[a], local_slot(a)) {
                    (Some(k), _) => Some(&self.consts[k]),
                    (None, Some(s)) => view[s].as_ref(),
                    (None, None) => shared[a].as_ref(),
                }
                .ok_or_else(|| format!("node {a} used after being freed"))
            };
            local[i] = Some(self.exec(interp, id, get, owned)?);
            for a in self.circuit.nodes[id].op.args() {
                match local_slot(a) {
                    Some(s) if last(a) => local[s] = None,
                    _ => {}
                }
            }
        }
        Ok(local)
    }

    /// The operand encoded for node `id`, checked against the runtime
    /// ciphertext it is about to meet.
    fn plain_for(
        &self,
        id: NodeId,
        x: &Ciphertext,
        match_scale: bool,
    ) -> Result<&Plaintext, String> {
        let pt = self.plain_of[id]
            .map(|i| &self.encoded[i])
            .ok_or_else(|| format!("node {id}: plain operand is not an encode_vec"))?;
        if pt.level != x.level || (match_scale && pt.scale.to_bits() != x.scale.to_bits()) {
            return Err(format!(
                "node {id}: ciphertext at level {} scale {} but its operand was encoded for the \
                 declared level {} scale {}",
                x.level, x.scale, pt.level, pt.scale
            ));
        }
        Ok(pt)
    }

    /// Computes node `id` from the operands `get` reads; `owned` is the
    /// accumulator it updates in place.
    fn exec<'v>(
        &'v self,
        interp: &Interpreter,
        id: NodeId,
        get: impl Fn(NodeId) -> Result<&'v Value, String>,
        owned: Option<Ciphertext>,
    ) -> Result<Value, String> {
        let ev = interp.ev;
        let ct = |arg: NodeId| -> Result<&Ciphertext, String> { get(arg)?.ct() };
        let acc = |arg: NodeId| -> Result<Ciphertext, String> {
            owned.map_or_else(|| ct(arg).cloned(), Ok)
        };
        let node = &self.circuit.nodes[id];
        let out = match &node.op {
            Op::Input { .. } | Op::EncodeScalar { .. } | Op::EncodeVec { .. } => {
                return Err(format!("node {id} is not computed"))
            }
            Op::Zero => {
                let ty = node.ty.as_ct().ok_or("zero node must be a ciphertext")?;
                Value::Ct(ev.zero_ciphertext(ty.scale, ty.level, ty.slots))
            }
            Op::Add { a, b } => Value::Ct(ev.add(ct(*a)?, ct(*b)?)),
            Op::Sub { a, b } => Value::Ct(ev.sub(ct(*a)?, ct(*b)?)),
            Op::Negate { src } => Value::Ct(ev.negate(ct(*src)?)),
            Op::AddScalar { src, value } => {
                let mut out = acc(*src)?;
                ev.add_scalar_assign(&mut out, *value);
                Value::Ct(out)
            }
            Op::MulPlain { src, plain } => match &self.circuit.nodes[*plain].op {
                // replay the exact eager call: mul_scalar re-encodes the
                // weight from the Encode node's value/pt_scale
                Op::EncodeScalar { value, pt_scale } => {
                    Value::Ct(ev.mul_scalar(ct(*src)?, *value, *pt_scale))
                }
                _ => {
                    let x = ct(*src)?;
                    Value::Ct(ev.mul_plain(x, self.plain_for(id, x, false)?))
                }
            },
            Op::AddPlain { src, .. } => {
                let x = ct(*src)?;
                Value::Ct(ev.add_plain(x, self.plain_for(id, x, true)?))
            }
            Op::MacPlain { acc: a, src, plain } => {
                let (x, w, mut out) = (ct(*src)?, get(*plain)?.plain()?, acc(*a)?);
                // `mul_residues_acc`'s preconditions, as a typed error
                let scale_ok = (out.scale / (x.scale * w.pt_scale) - 1.0).abs() < ckks::SCALE_RTOL;
                if x.level != w.level || out.level != w.level || !scale_ok {
                    return Err(format!(
                        "node {id}: operand at level {} and accumulator at level {} scale {} but \
                         the scalar was prepared for the declared level {} and scale {}",
                        x.level, out.level, out.scale, w.level, w.pt_scale
                    ));
                }
                ev.mul_residues_acc(&mut out, x, w);
                Value::Ct(out)
            }
            Op::Mul { a, b } => {
                let rk = interp.rk.ok_or("ct×ct product but no relin key bound")?;
                Value::Ct(ev.multiply(ct(*a)?, ct(*b)?, rk))
            }
            Op::Square { src } => {
                let rk = interp.rk.ok_or("square but no relin key bound")?;
                Value::Ct(ev.square(ct(*src)?, rk))
            }
            Op::Rescale { src } => Value::Ct(ev.try_rescale(ct(*src)?).map_err(|e| e.to_string())?),
            Op::ModSwitch { src, level } => Value::Ct(
                ev.try_mod_switch_to_level(ct(*src)?, *level)
                    .map_err(|e| e.to_string())?,
            ),
            Op::Rotate { src, steps } => {
                let x = ct(*src)?;
                match interp.gk {
                    Some(gk) => Value::Ct(ev.try_rotate(x, *steps, gk).map_err(|e| e.to_string())?),
                    // identity rotations touch no key in the eager engine
                    None if steps.rem_euclid(x.slots as i64) == 0 => Value::Ct(x.clone()),
                    None => return Err("rotation but no galois keys bound".into()),
                }
            }
            Op::Conjugate { src } => {
                let gk = interp.gk.ok_or("conjugation but no galois keys bound")?;
                Value::Ct(ev.try_conjugate(ct(*src)?, gk).map_err(|e| e.to_string())?)
            }
        };
        Ok(out)
    }
}

/// Expands an element-domain pattern across a lane stride and encodes
/// it — slot `i` holds `values[(i / stride) % values.len()]`, which is
/// exactly `ckks::PackLayout::expand` for batch-strided layouts and
/// plain cyclic tiling at stride 1.
fn encode_broadcast(
    ev: &Evaluator,
    values: &[f64],
    stride: usize,
    pt_scale: f64,
    level: usize,
) -> Plaintext {
    let expanded: Vec<f64> = (0..ev.ctx().slots())
        .map(|i| values[(i / stride) % values.len()])
        .collect();
    ckks::encode_real(ev.ctx(), &expanded, pt_scale, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::circuit::KeyInventory;
    use crate::types::Layout;
    use ckks::{CkksContext, CkksParams, KeyGenerator, PublicKey, RelinKey, SecretKey};
    use ckks_math::sampler::Sampler;
    use std::sync::Arc;

    struct Fixture {
        ctx: Arc<CkksContext>,
        sk: SecretKey,
        pk: PublicKey,
        rk: RelinKey,
        ev: Evaluator,
        sampler: Sampler,
    }

    fn fixture(depth: usize, seed: u64) -> Fixture {
        let ctx = CkksParams::tiny(depth).build();
        let mut kg = KeyGenerator::new(Arc::clone(&ctx), seed);
        let sk = kg.gen_secret_key();
        let pk = kg.gen_public_key(&sk);
        let rk = kg.gen_relin_key(&sk);
        let ev = Evaluator::new(Arc::clone(&ctx));
        Fixture {
            ctx,
            sk,
            pk,
            rk,
            ev,
            sampler: Sampler::from_seed(seed + 1000),
        }
    }

    /// Eager vs interpreted execution of the same op sequence must be
    /// bit-identical: same limbs, same scale bits, same decryption.
    #[test]
    fn interpreted_matches_eager_bit_for_bit() {
        let mut f = fixture(3, 7);
        let (ctx, ev, rk) = (&f.ctx, &f.ev, &f.rk);

        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64 % 7.0) / 8.0).collect();
        let x_ct = ev.encrypt_real(&vals, &f.pk, &mut f.sampler);

        // eager: y = rescale(x²) + rescale(0.25·x), both branches at
        // Δ²/q_top so the final add sees identical scales
        let top = x_ct.level;
        let s = ctx.params().scale();
        let e_sq = ev.rescale(&ev.square(&x_ct, rk));
        let e_lin = ev.rescale(&ev.mul_scalar(&x_ct, 0.25, s));
        let e_lin = ev.mod_switch_to_level(&e_lin, e_sq.level);
        let eager = ev.add(&e_sq, &e_lin);

        // the same circuit in IR, moduli from the built context
        let mut b = GraphBuilder::for_context(ctx);
        let x = b.input("x", top, Layout::BatchSlots);
        let sq = b.square(x);
        let sqr = b.rescale(sq);
        let w = b.encode_scalar(0.25, s, top);
        let lin = b.mul_plain(x, w);
        let linr = b.rescale(lin);
        let lins = b.mod_switch(linr, top - 1);
        let y = b.add(sqr, lins);
        b.output(y);
        let circuit = b.finish(KeyInventory::relin_only());

        let interp = Interpreter::new(ev).with_relin(rk);
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), x_ct.clone());
        let outs = interp.run(&circuit, &inputs).expect("interpretation");
        assert_eq!(outs.len(), 1);
        let got = &outs[0];

        assert_eq!(got.level, eager.level);
        assert_eq!(got.slots, eager.slots);
        assert_eq!(got.scale.to_bits(), eager.scale.to_bits());
        for li in 0..=got.level {
            assert_eq!(got.c0.limb(li), eager.c0.limb(li), "c0 limb {li}");
            assert_eq!(got.c1.limb(li), eager.c1.limb(li), "c1 limb {li}");
        }
        // and the declared IR type matches what eager produced
        let ty = circuit.nodes[y].ty.as_ct().unwrap();
        assert_eq!(ty.level, eager.level);
        assert_eq!(ty.scale.to_bits(), eager.scale.to_bits());
        // bit-identical ciphertexts decrypt bit-identically
        let d_eager = ev.decrypt_to_real(&eager, &f.sk);
        let d_ir = ev.decrypt_to_real(got, &f.sk);
        assert_eq!(d_eager, d_ir);
    }

    /// A packed-style fragment: diagonal weight, rotation, bias at the
    /// accumulated scale, rescale.
    fn plain_operand_circuit(f: &Fixture) -> Circuit {
        let slots = f.ctx.slots();
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x = b.input("x", 2, Layout::BatchStrided { stride: 2 });
        let q = b.q_at(2);
        let w = b.encode_vec((0..slots / 2).map(|i| (i % 5) as f64 / 8.0).collect(), q, 2);
        let m = b.mul_plain(x, w);
        let r = b.rotate(m, 2);
        let acc = b.add(m, r);
        let ty = b.ct_ty(acc);
        let bias = b.encode_vec(vec![0.25, -0.5], ty.scale, ty.level);
        let a = b.add_plain(acc, bias);
        let y = b.rescale(a);
        b.output(y);
        let g = b.params().galois_element_for_rotation(2);
        b.finish(KeyInventory::with_galois(true, [g]))
    }

    /// Pre-encoding changes no bits: a prepared circuit run twice, a
    /// fresh `Interpreter::run` and the hand-written evaluator calls
    /// all produce the same limbs.
    #[test]
    fn prepared_runs_repeat_and_match_a_fresh_run_and_eager_limb_for_limb() {
        let mut f = fixture(2, 17);
        let slots = f.ctx.slots();
        let mut kg = KeyGenerator::new(Arc::clone(&f.ctx), 18);
        // the fixture's sk comes from seed 17's generator; rotation keys
        // must be for that same secret
        let gk = kg.gen_galois_keys(&f.sk, &[2], false);
        let vals: Vec<f64> = (0..slots).map(|i| (i as f64 % 9.0) / 10.0).collect();
        let x_ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let circuit = plain_operand_circuit(&f);
        let inputs = HashMap::from([("x".to_string(), x_ct.clone())]);
        let interp = Interpreter::new(&f.ev).with_relin(&f.rk).with_galois(&gk);

        let prepared = Prepared::new(&f.ev, circuit.clone()).expect("prepares");
        assert_eq!(prepared.encoded_operands().len(), 2);
        let first = prepared.run(&interp, inputs.clone()).expect("first run");
        let second = prepared.run(&interp, inputs.clone()).expect("second run");
        let fresh = interp.run(&circuit, &inputs).expect("fresh run");
        assert_eq!(first.regions.len(), circuit.regions.len());

        // the same ops by hand, operands broadcast by `expand`'s rule
        let ev = &f.ev;
        let q = f.ctx.chain_moduli()[2].value() as f64;
        let w: Vec<f64> = (0..slots)
            .map(|i| ((i / 2) % (slots / 2) % 5) as f64 / 8.0)
            .collect();
        let m = ev.mul_plain(&x_ct, &ckks::encode_real(&f.ctx, &w, q, 2));
        let acc = ev.add(&m, &ev.rotate(&m, 2, &gk));
        let bias: Vec<f64> = (0..slots).map(|i| [0.25, -0.5][(i / 2) % 2]).collect();
        let pt = ckks::encode_real(&f.ctx, &bias, acc.scale, acc.level);
        let eager = ev.rescale(&ev.add_plain(&acc, &pt));

        for got in [&first.outputs[0], &second.outputs[0], &fresh[0]] {
            assert_eq!(got.level, eager.level);
            assert_eq!(got.scale.to_bits(), eager.scale.to_bits());
            assert_eq!(got.c0.limbs_flat(), eager.c0.limbs_flat());
            assert_eq!(got.c1.limbs_flat(), eager.c1.limbs_flat());
        }
    }

    /// A ciphertext that disagrees with the declared type its operand
    /// was encoded for is a typed failure, not an evaluator panic.
    #[test]
    fn runtime_type_drift_from_the_declared_types_is_an_error() {
        let mut f = fixture(2, 19);
        let circuit = plain_operand_circuit(&f);
        let vals = vec![0.5; f.ctx.slots()];
        let x = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        // bound one level below what the circuit declares for `x`
        let low = f.ev.mod_switch_to_level(&x, 1);
        let inputs = HashMap::from([("x".to_string(), low)]);
        let err = Interpreter::new(&f.ev).run(&circuit, &inputs).unwrap_err();
        assert!(err.contains("declared level 2"), "{err}");

        // the same drift under a scalar MAC
        let mut b = GraphBuilder::for_context(&f.ctx);
        let xn = b.input("x", 2, Layout::BatchSlots);
        let q = b.q_at(2);
        let w = b.encode_scalar(0.5, q, 2);
        let z = b.zero(b.scale() * q, 2);
        let acc = b.mac_plain(z, xn, w);
        let y = b.rescale(acc);
        b.output(y);
        let mac = b.finish(KeyInventory::relin_only());
        let inputs = HashMap::from([("x".to_string(), f.ev.mod_switch_to_level(&x, 1))]);
        let err = Interpreter::new(&f.ev).run(&mac, &inputs).unwrap_err();
        assert!(err.contains("declared level 2"), "{err}");
    }

    #[test]
    fn missing_input_and_missing_relin_are_errors() {
        let mut f = fixture(2, 11);
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x = b.input("x", 2, Layout::BatchSlots);
        let sq = b.square(x);
        b.output(sq);
        let circuit = b.finish(KeyInventory::relin_only());

        let interp = Interpreter::new(&f.ev);
        let err = interp.run(&circuit, &HashMap::new()).unwrap_err();
        assert!(err.contains("no input ciphertext bound"), "{err}");

        let vals = vec![0.5; f.ctx.slots()];
        let mut inputs = HashMap::new();
        inputs.insert(
            "x".to_string(),
            f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler),
        );
        let err = interp.run(&circuit, &inputs).unwrap_err();
        assert!(err.contains("no relin key"), "{err}");
    }

    /// A run consumes its inputs, but a name read by two `Input` nodes
    /// still feeds both: only the last one moves the ciphertext.
    #[test]
    fn an_input_named_twice_feeds_both_nodes() {
        let mut f = fixture(2, 15);
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x1 = b.input("x", 2, Layout::BatchSlots);
        let x2 = b.input("x", 2, Layout::BatchSlots);
        let sum = b.add(x1, x2);
        b.output(sum);
        let circuit = b.finish(KeyInventory::relin_only());
        let vals = vec![0.25; f.ctx.slots()];
        let x = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let prepared = Prepared::new(&f.ev, circuit).expect("prepares");
        let out = prepared
            .run(
                &Interpreter::new(&f.ev),
                HashMap::from([("x".to_string(), x.clone())]),
            )
            .expect("runs");
        let want = f.ev.add(&x, &x);
        assert_eq!(out.outputs[0].c0.limbs_flat(), want.c0.limbs_flat());
        assert_eq!(out.outputs[0].c1.limbs_flat(), want.c1.limbs_flat());
    }

    /// A region of two independent MAC chains over one shared input,
    /// then a region adding them: two units, then one.
    #[test]
    fn a_two_unit_region_is_limb_identical_at_any_width_and_reports_both_units() {
        let mut f = fixture(2, 21);
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x = b.input("x", 2, Layout::BatchSlots);
        b.begin_region("pair");
        let q = b.q_at(2);
        let s = b.scale();
        let mut ys = Vec::new();
        for (w, bias) in [(0.25, 0.5), (-0.75, 0.125)] {
            let wn = b.encode_scalar(w, q, 2);
            let z = b.zero(s * q, 2);
            let acc = b.mac_plain(z, x, wn);
            let acc = b.mac_plain(acc, x, wn);
            let biased = b.add_scalar(acc, bias);
            ys.push(b.rescale(biased));
        }
        b.begin_region("sum");
        let sum = b.add(ys[0], ys[1]);
        b.output(sum);
        let circuit = b.finish(KeyInventory::relin_only());
        let prepared = Prepared::new(&f.ev, circuit).expect("prepares");
        let vals: Vec<f64> = (0..f.ctx.slots()).map(|i| (i % 7) as f64 / 8.0).collect();
        let x_ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let interp = Interpreter::new(&f.ev);
        let inputs = HashMap::from([("x".to_string(), x_ct.clone())]);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a width cap");
        let narrow = one
            .install(|| prepared.run(&interp, inputs.clone()))
            .expect("runs");
        let wide = prepared.run(&interp, inputs).expect("runs");

        // the same evaluator calls by hand
        let ev = &f.ev;
        let unit = |w: f64, bias: f64| {
            let mut acc = ev.zero_ciphertext(x_ct.scale * q, 2, x_ct.slots);
            let p = ev.prepare_scalar(w, q, 2);
            ev.mul_residues_acc(&mut acc, &x_ct, &p);
            ev.mul_residues_acc(&mut acc, &x_ct, &p);
            ev.rescale(&ev.add_scalar(&acc, bias))
        };
        let want = ev.add(&unit(0.25, 0.5), &unit(-0.75, 0.125));
        for run in [&narrow, &wide] {
            let got = &run.outputs[0];
            assert_eq!(got.scale.to_bits(), want.scale.to_bits());
            assert_eq!(got.c0.limbs_flat(), want.c0.limbs_flat());
            assert_eq!(got.c1.limbs_flat(), want.c1.limbs_flat());
            assert_eq!(run.regions.len(), 2);
            assert_eq!(run.regions[0].unit_walls.len(), 2);
            assert_eq!(run.regions[1].unit_walls.len(), 1);
            assert_eq!(run.regions[0].level, 1);
            assert_eq!(run.regions[1].scale.to_bits(), want.scale.to_bits());
        }
    }

    #[test]
    fn run_all_keeps_every_node() {
        let mut f = fixture(2, 13);
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x = b.input("x", 2, Layout::BatchSlots);
        let n = b.negate(x);
        let y = b.add(x, n);
        b.output(y);
        let circuit = b.finish(KeyInventory::relin_only());
        let vals = vec![0.25; f.ctx.slots()];
        let mut inputs = HashMap::new();
        inputs.insert(
            "x".to_string(),
            f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler),
        );
        let all = Interpreter::new(&f.ev)
            .run_all(&circuit, &inputs)
            .expect("run_all");
        assert_eq!(all.len(), circuit.nodes.len());
        assert!(all.iter().all(|v| v.as_ct().is_some()));
    }
}
