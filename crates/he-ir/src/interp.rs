//! IR interpreter: executes a [`Circuit`] against the real
//! `ckks::Evaluator`, op for op.
//!
//! Every IR node maps to exactly one evaluator call, so a circuit
//! recorded from an eager op sequence and interpreted with the same
//! context, keys, and input ciphertexts produces **bit-identical**
//! outputs — the property he-diff's IR-vs-eager differential mode
//! checks limb for limb. That holds over the key-switch basis too: a
//! value the declared type puts there ([`crate::Basis::KeySwitch`]) is
//! a [`Value::Ext`], and `rotate_ext`, `mod_down` and the `mul_plain`,
//! `mac_plain` and `add` that read it are each one extended-basis
//! evaluator call (`Evaluator::rotate_ext`, `mod_down`,
//! `mul_plain_ext`, `mac_plain_ext`, `add_ext`).
//!
//! Execution is split into *prepare once / execute many*. A
//! [`Prepared`] circuit has been validated, carries its deallocation
//! schedule (the liveness pass's last uses), has evaluated every encode
//! node once — scalars as prepared residues, vector operands broadcast
//! and encoded, across the pool, at the level, scale and basis their
//! consumer's declared type fixes — and has split every region into
//! units ([`Circuit::units`]). A run executes the regions in order, each
//! region's units across the rayon pool, joined before the next region
//! starts; units read only values computed before their region, so
//! outputs are bit-identical at any pool width. A value from before a
//! region (or bound as an input) that two or more of its rotations
//! (chain or extended) read is decomposed once before the
//! units start ([`Evaluator::hoist`]) and its digits are shared by the
//! units; a hoisted rotation is limb-identical to a direct one. [`Interpreter::run`] is prepare-then-execute over the
//! same routine; nothing is cached between calls.

use crate::circuit::{Circuit, NodeId, Op};
use crate::passes::liveness;
use crate::types::Basis;
use ckks::{
    Ciphertext, Evaluator, ExtCiphertext, GaloisKeys, Hoisted, Plaintext, PreparedScalar, RelinKey,
};
use he_trace::{cats, span_fn, OpSnapshot};
use rayon::prelude::*;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::time::{Duration, Instant};

/// A value computed for one node.
#[derive(Debug, Clone)]
pub enum Value {
    Ct(Ciphertext),
    /// A ciphertext over the key-switch basis.
    Ext(ExtCiphertext),
    Plain(PreparedScalar),
    /// An element-domain vector pattern ([`Op::EncodeVec`]); its
    /// consumers read the plaintext [`Prepared`] encoded for them.
    PlainVec(std::sync::Arc<Vec<f64>>),
}

impl Value {
    pub fn as_ct(&self) -> Option<&Ciphertext> {
        match self {
            Value::Ct(ct) => Some(ct),
            _ => None,
        }
    }

    pub fn as_ext(&self) -> Option<&ExtCiphertext> {
        match self {
            Value::Ext(ct) => Some(ct),
            _ => None,
        }
    }

    /// Level and scale of a ciphertext over either basis.
    pub fn level_scale(&self) -> Option<(usize, f64)> {
        match self {
            Value::Ct(ct) => Some((ct.level, ct.scale)),
            Value::Ext(ct) => Some((ct.level, ct.scale)),
            Value::Plain(_) | Value::PlainVec(_) => None,
        }
    }

    fn ct(&self) -> Result<&Ciphertext, String> {
        self.as_ct()
            .ok_or_else(|| "expected a ciphertext over the chain".into())
    }

    fn ext(&self) -> Result<&ExtCiphertext, String> {
        self.as_ext()
            .ok_or_else(|| "expected a ciphertext over the key-switch basis".into())
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

/// What one region of a [`Prepared::run`] did — the one per-region
/// record every timing table and trace reads.
#[derive(Debug, Clone, Default)]
pub struct RegionRun {
    /// The region's name (callers may prefix it, e.g. with a shard).
    pub name: String,
    /// Position of the region in the circuit's regions: `0` opens a run.
    pub region: usize,
    /// Wall of the whole region.
    pub wall: Duration,
    /// Wall of each unit, in unit order.
    pub unit_walls: Vec<Duration>,
    /// HE op counters across the region. They are process-global: HE
    /// work other threads do meanwhile lands here too.
    pub ops: OpSnapshot,
    /// Runtime level and scale of the region's last ciphertext, over
    /// either basis.
    pub level: usize,
    pub scale: f64,
    /// Structural noise headroom (bits) at that level and scale
    /// ([`ckks::noise::headroom_bits_at`]).
    pub headroom_bits: f64,
}

impl RegionRun {
    /// CPU time of the region: the sum of its unit walls, or its wall
    /// when that is larger (time spent outside every unit). Units
    /// overlap under a parallel run, so the wall can be below their sum.
    pub fn cpu(&self) -> Duration {
        self.unit_walls.iter().sum::<Duration>().max(self.wall)
    }
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
    /// Values available before the span's units start (computed earlier
    /// or bound as inputs) that two or more of its `Rotate`/`RotateExt`
    /// nodes read: each is decomposed once ([`Evaluator::hoist`]) and
    /// its digits shared by every unit.
    hoist: Vec<NodeId>,
}

/// A circuit made ready to execute many times: validated once, its
/// deallocation schedule and units computed once, every encode node
/// evaluated once, and one plaintext encoded per distinct
/// (`EncodeVec` node, lane stride, level, scale, basis) use.
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
    /// `MulPlain`/`MacPlain`/`AddPlain` node consumes.
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
    /// context. Level, scale and basis of each vector operand come from
    /// the declared type of the consuming node's ciphertext argument
    /// (over the key-switch basis an operand carries the special limbs
    /// too); the distinct operands are encoded across the pool. So
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
        let mut plain_of = vec![None; n];
        let mut seen: HashMap<(NodeId, usize, usize, u64, Basis), usize> = HashMap::new();
        let mut operands: Vec<(&[f64], usize, f64, usize, Basis)> = Vec::new();
        for (id, node) in circuit.nodes.iter().enumerate() {
            let (src, plain, is_mul) = match node.op {
                Op::MulPlain { src, plain } | Op::MacPlain { src, plain, .. } => (src, plain, true),
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
            let next = operands.len();
            let idx = *seen
                .entry((plain, stride, ty.level, scale.to_bits(), ty.basis))
                .or_insert(next);
            if idx == next {
                operands.push((values, stride, scale, ty.level, ty.basis));
            }
            plain_of[id] = Some(idx);
        }
        let encoded: Vec<Plaintext> = operands
            .par_iter()
            .map(|&(values, stride, scale, level, basis)| {
                encode_broadcast(ev, values, stride, scale, level, basis)
            })
            .collect();
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
                let mut reads: BTreeMap<NodeId, usize> = BTreeMap::new();
                for id in nodes.clone() {
                    if let Op::Rotate { src, .. } | Op::RotateExt { src, .. } = circuit.nodes[id].op
                    {
                        let before = !nodes.contains(&src);
                        if before || matches!(circuit.nodes[src].op, Op::Input { .. }) {
                            *reads.entry(src).or_default() += 1;
                        }
                    }
                }
                let hoist = reads.into_iter().filter(|&(_, k)| k >= 2);
                Span {
                    nodes,
                    region,
                    units,
                    hoist: hoist.map(|(src, _)| src).collect(),
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
            // without keys a rotation either is the identity or fails
            let hoisted = interp
                .gk
                .map_or(&[][..], |_| &span.hoist)
                .iter()
                .map(|&a| {
                    let ct = shared[a].as_ref().ok_or("hoisted value is missing")?.ct()?;
                    Ok((a, interp.ev.hoist(ct).map_err(|e| e.to_string())?))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let many = span.region.filter(|_| span.units.len() > 1);
            let units: Vec<_> = span
                .units
                .par_iter()
                .enumerate()
                .map(|(u, nodes)| {
                    let _unit = many.map(|r| span_fn(cats::UNIT, || format!("{}#{u}", name(r))));
                    let t = Instant::now();
                    let local = self.run_unit(interp, nodes, &span.nodes, shared, &hoisted, free);
                    local.map(|local| (local, t.elapsed()))
                })
                .collect();
            drop(hoisted);
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
            if let Some(r) = span.region {
                let (wall, ops) = (t0.elapsed(), OpSnapshot::now().delta(&ops));
                let mut exit = span.nodes.clone().rev();
                let exit = exit.find_map(|id| values[id].as_ref()?.level_scale());
                let (level, scale) = exit.unwrap_or((0, 0.0));
                runs.push(RegionRun {
                    name: name(r),
                    region: r,
                    wall,
                    unit_walls,
                    ops,
                    level,
                    scale,
                    headroom_bits: ckks::noise::headroom_bits_at(interp.ev.ctx(), level, scale),
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
        hoisted: &[(NodeId, Hoisted<'_>)],
        free: bool,
    ) -> Result<Vec<Option<Value>>, String> {
        let local_slot =
            |a: NodeId| (span.contains(&a) && self.slot[a] != usize::MAX).then(|| self.slot[a]);
        let mut local: Vec<Option<Value>> = (0..nodes.len()).map(|_| None).collect();
        for (i, &id) in nodes.iter().enumerate() {
            // the operand an op consumes at its last use: an accumulator,
            // or over the key-switch basis a sum's first addend and a
            // `mod_down`'s source
            let acc = match self.circuit.nodes[id].op {
                Op::MacPlain { acc, src, .. } if acc != src => Some(acc),
                Op::AddScalar { src, .. } | Op::ModDown { src } => Some(src),
                Op::Add { a, b } if a != b && self.is_ext(a) => Some(a),
                _ => None,
            };
            let last = |a: NodeId| free && self.last_use[a] == Some(id);
            let owned = acc.filter(|&a| last(a)).and_then(local_slot);
            let owned = owned.and_then(|s| local[s].take());
            let view: &[Option<Value>] = &local;
            let get = |a: NodeId| {
                match (self.const_of[a], local_slot(a)) {
                    (Some(k), _) => Some(&self.consts[k]),
                    (None, Some(s)) => view[s].as_ref(),
                    (None, None) => shared[a].as_ref(),
                }
                .ok_or_else(|| format!("node {a} used after being freed"))
            };
            local[i] = Some(self.exec(interp, id, get, hoisted, owned)?);
            for a in self.circuit.nodes[id].op.args() {
                match local_slot(a) {
                    Some(s) if last(a) => local[s] = None,
                    _ => {}
                }
            }
        }
        Ok(local)
    }

    /// Whether node `a`'s declared type puts it over the key-switch basis.
    fn is_ext(&self, a: NodeId) -> bool {
        self.circuit.nodes[a].ty.is_ext()
    }

    /// The operand encoded for node `id`, checked against the runtime
    /// level and scale of the ciphertext it is about to meet.
    fn plain_for(
        &self,
        id: NodeId,
        (level, scale): (usize, f64),
        match_scale: bool,
    ) -> Result<&Plaintext, String> {
        let pt = self.plain_of[id]
            .map(|i| &self.encoded[i])
            .ok_or_else(|| format!("node {id}: plain operand is not an encode_vec"))?;
        if pt.level != level || (match_scale && pt.scale.to_bits() != scale.to_bits()) {
            return Err(format!(
                "node {id}: ciphertext at level {level} scale {scale} but its operand was encoded \
                 for the declared level {} scale {}",
                pt.level, pt.scale
            ));
        }
        Ok(pt)
    }

    /// Computes node `id` from the operands `get` reads; `owned` is the
    /// accumulator it updates in place, and a rotation of a `hoisted`
    /// value reuses its digits.
    fn exec<'v>(
        &'v self,
        interp: &Interpreter,
        id: NodeId,
        get: impl Fn(NodeId) -> Result<&'v Value, String>,
        hoisted: &[(NodeId, Hoisted<'_>)],
        owned: Option<Value>,
    ) -> Result<Value, String> {
        let ev = interp.ev;
        let ct = |arg: NodeId| -> Result<&Ciphertext, String> { get(arg)?.ct() };
        let ext = |arg: NodeId| -> Result<&ExtCiphertext, String> { get(arg)?.ext() };
        let owned = Cell::new(owned);
        let acc = |arg: NodeId| -> Result<Ciphertext, String> {
            match owned.take() {
                Some(Value::Ct(c)) => Ok(c),
                _ => ct(arg).cloned(),
            }
        };
        let acc_ext = |arg: NodeId| -> Result<ExtCiphertext, String> {
            match owned.take() {
                Some(Value::Ext(c)) => Ok(c),
                _ => ext(arg).cloned(),
            }
        };
        let hoisted_of = |a: NodeId| hoisted.iter().find(|(h, _)| *h == a).map(|(_, h)| h);
        let node = &self.circuit.nodes[id];
        let failed = |e: ckks::HeError| format!("node {id} ({}): {e}", node.op.mnemonic());
        // the evaluator's ct–ct preconditions: one level, and for a sum
        // one scale
        let pair =
            |a: NodeId, b: NodeId, sum: bool| -> Result<(&Ciphertext, &Ciphertext), String> {
                let (a, b) = (ct(a)?, ct(b)?);
                if a.level != b.level {
                    return Err(failed(ckks::HeError::LevelMismatch {
                        a: a.level,
                        b: b.level,
                    }));
                }
                if sum && !ckks::scales_match(a.scale, b.scale) {
                    return Err(failed(ckks::HeError::ScaleMismatch {
                        a: a.scale,
                        b: b.scale,
                    }));
                }
                Ok((a, b))
            };
        let out = match &node.op {
            Op::Input { .. } | Op::EncodeScalar { .. } | Op::EncodeVec { .. } => {
                return Err(format!("node {id} is not computed"))
            }
            Op::Zero => {
                let ty = node.ty.as_ct().ok_or("zero node must be a ciphertext")?;
                Value::Ct(ev.zero_ciphertext(ty.scale, ty.level, ty.slots))
            }
            Op::Add { a, b } if self.is_ext(*a) => {
                Value::Ext(ev.add_ext(acc_ext(*a)?, ext(*b)?).map_err(failed)?)
            }
            Op::Add { a, b } => {
                let (a, b) = pair(*a, *b, true)?;
                Value::Ct(ev.add(a, b))
            }
            Op::Sub { a, b } => {
                let (a, b) = pair(*a, *b, true)?;
                Value::Ct(ev.sub(a, b))
            }
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
                _ if self.is_ext(*src) => {
                    let x = ext(*src)?;
                    let pt = self.plain_for(id, (x.level, x.scale), false)?;
                    Value::Ext(ev.mul_plain_ext(x, pt).map_err(failed)?)
                }
                _ => {
                    let x = ct(*src)?;
                    Value::Ct(ev.mul_plain(x, self.plain_for(id, (x.level, x.scale), false)?))
                }
            },
            Op::AddPlain { src, .. } => {
                let x = ct(*src)?;
                Value::Ct(ev.add_plain(x, self.plain_for(id, (x.level, x.scale), true)?))
            }
            Op::MacPlain { acc: a, src, .. } if self.is_ext(*src) => {
                let x = ext(*src)?;
                let pt = self.plain_for(id, (x.level, x.scale), false)?;
                let mut out = acc_ext(*a)?;
                ev.mac_plain_ext(&mut out, x, pt).map_err(failed)?;
                Value::Ext(out)
            }
            Op::MacPlain { acc: a, src, .. } if self.plain_of[id].is_some() => {
                let x = ct(*src)?;
                let pt = self.plain_for(id, (x.level, x.scale), false)?;
                let mut out = acc(*a)?;
                ev.try_mul_plain_acc(&mut out, x, pt).map_err(failed)?;
                Value::Ct(out)
            }
            Op::MacPlain { acc: a, src, plain } => {
                let (x, w, mut out) = (ct(*src)?, get(*plain)?.plain()?, acc(*a)?);
                // `mul_residues_acc`'s preconditions, as a typed error
                if x.level != w.level
                    || out.level != w.level
                    || !ckks::scales_match(out.scale, x.scale * w.pt_scale)
                {
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
                let (a, b) = pair(*a, *b, false)?;
                Value::Ct(ev.multiply(a, b, rk))
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
                let rotated = match (interp.gk, hoisted_of(*src)) {
                    (Some(gk), Some(h)) => ev.try_rotate_hoisted(h, *steps, gk),
                    (Some(gk), None) => ev.try_rotate(x, *steps, gk),
                    // identity rotations touch no key in the eager engine
                    (None, _) if steps.rem_euclid(x.slots as i64) == 0 => Ok(x.clone()),
                    (None, _) => return Err("rotation but no galois keys bound".into()),
                };
                Value::Ct(rotated.map_err(|e| e.to_string())?)
            }
            Op::RotateExt { src, steps } => {
                let x = ct(*src)?;
                let none = GaloisKeys::default();
                let gk = match interp.gk {
                    Some(gk) => gk,
                    // the identity is the lift P·x and touches no key
                    None if steps.rem_euclid(x.slots as i64) == 0 => &none,
                    None => return Err("rotation but no galois keys bound".into()),
                };
                let rotated = match hoisted_of(*src) {
                    Some(h) => ev.rotate_ext_hoisted(h, *steps, gk),
                    None => ev.rotate_ext(x, *steps, gk),
                };
                Value::Ext(rotated.map_err(failed)?)
            }
            Op::ModDown { src } => Value::Ct(ev.mod_down(acc_ext(*src)?).map_err(failed)?),
        };
        Ok(out)
    }
}

/// Expands an element-domain pattern across a lane stride and encodes
/// it over `basis` — slot `i` holds `values[(i / stride) %
/// values.len()]`, so every lane of a batch-strided layout sees the same
/// value per element.
fn encode_broadcast(
    ev: &Evaluator,
    values: &[f64],
    stride: usize,
    pt_scale: f64,
    level: usize,
    basis: Basis,
) -> Plaintext {
    let expanded: Vec<f64> = (0..ev.ctx().slots())
        .map(|i| values[(i / stride) % values.len()])
        .collect();
    match basis {
        Basis::Chain => ckks::encode_real(ev.ctx(), &expanded, pt_scale, level),
        Basis::KeySwitch => ckks::encode_real_ext(ev.ctx(), &expanded, pt_scale, level),
    }
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

    /// One diagonal sum over vector weights as a packed matvec lowers
    /// it — rotated operands times diagonals — either as products and
    /// adds or as one product and a chain of in-place MACs.
    fn diagonal_sum(f: &Fixture, stride: usize, fused: bool) -> Circuit {
        let layout = Layout::BatchStrided { stride };
        let dim = f.ctx.slots() / stride;
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x = b.input("x", 2, layout);
        let q = b.q_at(2);
        let mut acc = None;
        let mut elements = Vec::new();
        for d in 0..3 {
            let src = match d * stride {
                0 => x,
                step => {
                    elements.push(b.params().galois_element_for_rotation(step as i64));
                    b.rotate(x, step as i64)
                }
            };
            let diag = (0..dim)
                .map(|i| ((i + d) % 7) as f64 / 8.0 - 0.25)
                .collect();
            let w = b.encode_vec(diag, q, 2);
            acc = Some(match acc {
                None => b.mul_plain(src, w),
                Some(a) if fused => b.mac_plain(a, src, w),
                Some(a) => {
                    let term = b.mul_plain(src, w);
                    b.add(a, term)
                }
            });
        }
        let y = b.rescale(acc.expect("three diagonals"));
        b.output(y);
        b.finish(KeyInventory::with_galois(true, elements))
    }

    /// The fused diagonal sum is exact: limb-identical to products and
    /// adds at strides 1 and 2, at pool width 1 and the default width,
    /// and on a second run of the same `Prepared`.
    #[test]
    fn a_fused_diagonal_sum_is_limb_identical_to_products_and_adds() {
        let mut f = fixture(2, 23);
        let mut kg = KeyGenerator::new(Arc::clone(&f.ctx), 24);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a width cap");
        for stride in [1usize, 2] {
            let steps = [stride as i64, 2 * stride as i64];
            let gk = kg.gen_galois_keys(&f.sk, &steps, false);
            let vals: Vec<f64> = (0..f.ctx.slots()).map(|i| (i % 11) as f64 / 12.0).collect();
            let x = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
            let inputs = HashMap::from([("x".to_string(), x)]);
            let interp = Interpreter::new(&f.ev).with_galois(&gk);
            let want = interp
                .run(&diagonal_sum(&f, stride, false), &inputs)
                .expect("products and adds");
            let fused = Prepared::new(&f.ev, diagonal_sum(&f, stride, true)).expect("prepares");
            assert_eq!(fused.encoded_operands().len(), 3);
            let runs = [
                one.install(|| fused.run(&interp, inputs.clone())),
                fused.run(&interp, inputs.clone()),
                fused.run(&interp, inputs.clone()),
            ];
            for run in runs {
                let got = &run.expect("fused").outputs[0];
                assert_eq!(got.scale.to_bits(), want[0].scale.to_bits());
                assert_eq!(
                    got.c0.limbs_flat(),
                    want[0].c0.limbs_flat(),
                    "stride {stride}"
                );
                assert_eq!(
                    got.c1.limbs_flat(),
                    want[0].c1.limbs_flat(),
                    "stride {stride}"
                );
            }
        }
    }

    /// An accumulator that drifted from its declared level or scale
    /// fails the vector MAC typed, naming the node.
    #[test]
    fn a_drifted_vector_mac_accumulator_is_a_typed_error() {
        let mut f = fixture(2, 27);
        let mut b = GraphBuilder::for_context(&f.ctx);
        let acc = b.input("acc", 2, Layout::BatchStrided { stride: 1 });
        let x = b.input("x", 2, Layout::BatchStrided { stride: 1 });
        // at plaintext scale 1 the accumulator's declared Δ is x's
        let w = b.encode_vec(vec![1.0, -1.0], 1.0, 2);
        let mac = b.mac_plain(acc, x, w);
        b.output(mac);
        let prepared =
            Prepared::new(&f.ev, b.finish(KeyInventory::relin_only())).expect("prepares");
        let vals = vec![0.25; f.ctx.slots()];
        let x_ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let interp = Interpreter::new(&f.ev);
        let run = |acc: Ciphertext| {
            let inputs = HashMap::from([("acc".to_string(), acc), ("x".to_string(), x_ct.clone())]);
            prepared.run(&interp, inputs)
        };
        assert!(run(x_ct.clone()).is_ok());
        let err = run(f.ev.mod_switch_to_level(&x_ct, 1)).unwrap_err();
        assert!(
            err.contains(&format!("node {mac} (mac_plain): level mismatch")),
            "{err}"
        );
        let mut doubled = x_ct.clone();
        doubled.scale *= 2.0;
        let err = run(doubled).unwrap_err();
        assert!(
            err.contains(&format!("node {mac} (mac_plain): scale mismatch")),
            "{err}"
        );
    }

    /// Ciphertext operands that disagree with each other fail typed,
    /// naming the node, instead of panicking inside the evaluator.
    #[test]
    fn mismatched_ciphertext_operands_are_typed_errors_naming_the_node() {
        let mut f = fixture(2, 25);
        let vals = vec![0.25; f.ctx.slots()];
        let x = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let low = f.ev.mod_switch_to_level(&x, 1);
        let mut doubled = x.clone();
        doubled.scale *= 2.0;
        let interp = Interpreter::new(&f.ev).with_relin(&f.rk);
        type Build = fn(&mut GraphBuilder, NodeId, NodeId) -> NodeId;
        let ops: [(&str, Build); 3] = [
            ("mul", GraphBuilder::mul),
            ("add", GraphBuilder::add),
            ("sub", GraphBuilder::sub),
        ];
        for (name, op) in ops {
            let mut b = GraphBuilder::for_context(&f.ctx);
            let xn = b.input("x", 2, Layout::BatchSlots);
            let yn = b.input("y", 2, Layout::BatchSlots);
            let z = op(&mut b, xn, yn);
            b.output(z);
            let circuit = b.finish(KeyInventory::relin_only());
            let bind = |y: &Ciphertext| {
                HashMap::from([("x".to_string(), x.clone()), ("y".to_string(), y.clone())])
            };
            let err = interp.run(&circuit, &bind(&low)).unwrap_err();
            assert!(
                err.contains(&format!("node {z} ({name}): level mismatch")),
                "{err}"
            );
            // a product's scale is the product of its operands' scales
            match interp.run(&circuit, &bind(&doubled)) {
                Ok(_) => assert_eq!(name, "mul"),
                Err(err) => assert!(
                    err.contains(&format!("node {z} ({name}): scale mismatch")),
                    "{err}"
                ),
            }
        }
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
            for (record, region) in run.regions.iter().zip(&prepared.circuit().regions) {
                assert_eq!(record.name, region.name);
                let headroom = ckks::noise::headroom_bits_at(&f.ctx, record.level, record.scale);
                assert_eq!(record.headroom_bits.to_bits(), headroom.to_bits());
            }
        }
    }

    /// Taps over the key-switch basis as the packed conv lowers them:
    /// the lift and two extended rotations of `x` in one region, then
    /// their weighted sum, one `mod_down` and a rescale in the next.
    fn extended_taps(f: &Fixture) -> Circuit {
        let slots = f.ctx.slots();
        let mut b = GraphBuilder::for_context(&f.ctx);
        let x = b.input("x", 2, Layout::BatchStrided { stride: 1 });
        b.begin_region("taps");
        let taps: Vec<NodeId> = [0, 1, 2].map(|s| b.rotate_ext(x, s)).to_vec();
        b.begin_region("sum");
        let q = b.q_at(2);
        let mut acc = None;
        for (t, &tap) in taps.iter().enumerate() {
            let w = (0..slots)
                .map(|i| ((i + t) % 7) as f64 / 8.0 - 0.3)
                .collect();
            let w = b.encode_vec(w, q, 2);
            acc = Some(match acc {
                None => b.mul_plain(tap, w),
                Some(a) => b.mac_plain(a, tap, w),
            });
        }
        let d = b.mod_down(acc.expect("three taps"));
        let y = b.rescale(d);
        b.output(y);
        let elements = [1, 2].map(|s| b.params().galois_element_for_rotation(s));
        b.finish(KeyInventory::with_galois(true, elements))
    }

    /// Every node of the extended path is one evaluator call: the
    /// interpreted circuit is limb-identical to the hand-written
    /// `rotate_ext_hoisted` / `mul_plain_ext` / `mac_plain_ext` /
    /// `mod_down` sequence at pool width 1 and the default width, its
    /// operands are encoded over the key-switch basis, and the taps
    /// region — whose last value is extended — reports that value's
    /// level, scale and headroom.
    #[test]
    fn an_extended_tap_sum_is_limb_identical_to_its_evaluator_calls() {
        let mut f = fixture(2, 29);
        let gk = KeyGenerator::new(Arc::clone(&f.ctx), 30).gen_galois_keys(&f.sk, &[1, 2], false);
        let slots = f.ctx.slots();
        let vals: Vec<f64> = (0..slots).map(|i| (i % 13) as f64 / 14.0).collect();
        let x_ct = f.ev.encrypt_real(&vals, &f.pk, &mut f.sampler);
        let prepared = Prepared::new(&f.ev, extended_taps(&f)).expect("prepares");
        let ext_limbs = 3 + f.ctx.special_moduli().len();
        assert_eq!(prepared.encoded_operands().len(), 3);
        assert!(prepared
            .encoded_operands()
            .iter()
            .all(|pt| pt.poly.num_limbs() == ext_limbs));

        let ev = &f.ev;
        let q = f.ctx.chain_moduli()[2].value() as f64;
        let h = ev.hoist(&x_ct).unwrap();
        let mut acc: Option<ckks::ExtCiphertext> = None;
        for (t, s) in [0i64, 1, 2].into_iter().enumerate() {
            let w: Vec<f64> = (0..slots)
                .map(|i| ((i + t) % 7) as f64 / 8.0 - 0.3)
                .collect();
            let pt = ckks::encode_real_ext(&f.ctx, &w, q, 2);
            let tap = ev.rotate_ext_hoisted(&h, s, &gk).unwrap();
            acc = Some(match acc {
                None => ev.mul_plain_ext(&tap, &pt).unwrap(),
                Some(mut a) => {
                    ev.mac_plain_ext(&mut a, &tap, &pt).unwrap();
                    a
                }
            });
        }
        let want = ev.rescale(&ev.mod_down(acc.unwrap()).unwrap());

        let interp = Interpreter::new(ev).with_galois(&gk);
        let inputs = HashMap::from([("x".to_string(), x_ct.clone())]);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a width cap");
        let narrow = one
            .install(|| prepared.run(&interp, inputs.clone()))
            .expect("runs");
        let wide = prepared.run(&interp, inputs).expect("runs");
        for run in [&narrow, &wide] {
            let got = &run.outputs[0];
            assert_eq!(got.scale.to_bits(), want.scale.to_bits());
            assert_eq!(got.c0.limbs_flat(), want.c0.limbs_flat());
            assert_eq!(got.c1.limbs_flat(), want.c1.limbs_flat());
            let taps = &run.regions[0];
            assert_eq!((taps.name.as_str(), taps.level), ("taps", 2));
            assert_eq!(taps.scale.to_bits(), x_ct.scale.to_bits());
            let headroom = ckks::noise::headroom_bits_at(&f.ctx, 2, x_ct.scale);
            assert_eq!(taps.headroom_bits.to_bits(), headroom.to_bits());
            assert!(taps.headroom_bits > 0.0);
        }
    }

    /// `Prepared::new` encodes its distinct operands across the pool:
    /// at pool widths 1 and 2 (what `RAYON_NUM_THREADS=1` and `=2` give)
    /// every operand is bit-identical, over either basis.
    #[test]
    fn operands_are_bit_identical_at_pool_widths_one_and_two() {
        let f = fixture(2, 31);
        let width = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("a width cap")
        };
        for circuit in [extended_taps(&f), diagonal_sum(&f, 2, true)] {
            let prepare = |n: usize| {
                width(n).install(|| Prepared::new(&f.ev, circuit.clone()).expect("prepares"))
            };
            let (one, two) = (prepare(1), prepare(2));
            assert_eq!(one.encoded_operands().len(), 3);
            for (a, b) in one.encoded_operands().iter().zip(two.encoded_operands()) {
                assert_eq!((a.level, a.slots), (b.level, b.slots));
                assert_eq!(a.scale.to_bits(), b.scale.to_bits());
                assert_eq!(a.poly.limb_indices(), b.poly.limb_indices());
                assert_eq!(a.poly.limbs_flat(), b.poly.limbs_flat());
            }
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
