//! The circuit graph: SSA-style nodes of HE ops with typed results.
//!
//! A [`Circuit`] is an append-only list of [`Node`]s; a node's operands
//! are [`NodeId`]s of earlier nodes, so the list order is already a
//! topological order and every analysis is a single forward or backward
//! sweep. Nodes are grouped into named [`Region`]s (one per network
//! layer or plan op) so pass results can be cross-checked against
//! per-layer runtime telemetry.

use crate::types::ValueTy;
use ckks::CkksParams;
use std::collections::BTreeSet;

/// Index of a node in [`Circuit::nodes`].
pub type NodeId = usize;

/// What key material the evaluation will have available. `None` for the
/// Galois set means "unknown — skip coverage checks".
#[derive(Debug, Clone, Default)]
pub struct KeyInventory {
    pub relin: bool,
    pub galois_elements: Option<BTreeSet<usize>>,
}

impl KeyInventory {
    /// Inventory of a standard pipeline: relin key present, no Galois
    /// keys generated.
    pub fn relin_only() -> Self {
        Self {
            relin: true,
            galois_elements: Some(BTreeSet::new()),
        }
    }

    /// Full declared inventory.
    pub fn with_galois(relin: bool, elements: impl IntoIterator<Item = usize>) -> Self {
        Self {
            relin,
            galois_elements: Some(elements.into_iter().collect()),
        }
    }

    /// Unknown key material: key-coverage checks are skipped.
    pub fn unknown() -> Self {
        Self {
            relin: true,
            galois_elements: None,
        }
    }
}

/// One HE operation. Ciphertext-producing ops reference ciphertext
/// nodes; `MulPlain`/`MacPlain` additionally reference an
/// [`Op::EncodeScalar`] or [`Op::EncodeVec`] node for their weight.
///
/// Relinearization is folded into `Mul`/`Square` (the eager evaluator
/// relinearizes every ct×ct product immediately), and key-switching is
/// implicit in `Mul`/`Square`/`Rotate`/`RotateExt` — mirroring the
/// primitive set `ckks::Evaluator` actually exposes.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A free ciphertext input, bound by name at interpretation time
    /// (an encryption happens outside the circuit).
    Input {
        name: String,
    },
    /// `Evaluator::zero_ciphertext` — a transparent zero used to seed
    /// accumulators.
    Zero,
    /// `Evaluator::prepare_scalar`: a scalar encoded at `pt_scale` in
    /// the residue basis of the node's declared level.
    EncodeScalar {
        value: f64,
        pt_scale: f64,
    },
    /// `ckks::encode_real` of an element-domain vector broadcast across
    /// the consuming ciphertext's layout: slot `i` holds
    /// `values[(i / stride) % values.len()]`, where `stride` is the lane
    /// stride of the ciphertext operand's layout (1 for `BatchSlots`),
    /// so every lane sees the same value per element.
    EncodeVec {
        values: std::sync::Arc<Vec<f64>>,
        pt_scale: f64,
    },
    Add {
        a: NodeId,
        b: NodeId,
    },
    Sub {
        a: NodeId,
        b: NodeId,
    },
    Negate {
        src: NodeId,
    },
    /// `Evaluator::add_scalar`: adds an encoded constant.
    AddScalar {
        src: NodeId,
        value: f64,
    },
    /// `Evaluator::mul_scalar` with the weight from `plain`
    /// ([`Op::EncodeScalar`]), or `Evaluator::mul_plain` when `plain`
    /// is an [`Op::EncodeVec`].
    MulPlain {
        src: NodeId,
        plain: NodeId,
    },
    /// `Evaluator::add_plain`: adds an [`Op::EncodeVec`] plaintext
    /// (encoded at the ciphertext's scale — the bias add of the packed
    /// engine).
    AddPlain {
        src: NodeId,
        plain: NodeId,
    },
    /// `acc + src·plain`, the fused MAC the CNN layers are built from:
    /// `Evaluator::mul_residues_acc` for an [`Op::EncodeScalar`] weight,
    /// `Evaluator::try_mul_plain_acc` for an [`Op::EncodeVec`] one (a
    /// packed matvec's diagonal term). The interpreter updates the
    /// accumulator in place at its last use.
    MacPlain {
        acc: NodeId,
        src: NodeId,
        plain: NodeId,
    },
    /// ct×ct product, relinearized (one keyswitch).
    Mul {
        a: NodeId,
        b: NodeId,
    },
    /// ct², relinearized (one keyswitch).
    Square {
        src: NodeId,
    },
    /// Drop the top chain prime: scale divided by `q_level`, level − 1.
    Rescale {
        src: NodeId,
    },
    /// Drop primes without scaling (level alignment).
    ModSwitch {
        src: NodeId,
        level: usize,
    },
    /// Slot rotation by `steps` (one keyswitch unless the rotation is
    /// an identity).
    Rotate {
        src: NodeId,
        steps: i64,
    },
    /// `Evaluator::rotate_ext`: a rotation by `steps` that stops before
    /// its mod-down — one key switch without the division by `P`,
    /// producing a key-switch-basis value ([`crate::Basis::KeySwitch`]).
    /// An identity step is the exact lift `P·src`, no key switch.
    RotateExt {
        src: NodeId,
        steps: i64,
    },
    /// `Evaluator::mod_down`: divides a key-switch-basis value by `P`,
    /// back onto the chain.
    ModDown {
        src: NodeId,
    },
}

impl Op {
    /// Operand node ids, in a fixed order.
    pub fn args(&self) -> Vec<NodeId> {
        match self {
            Op::Input { .. } | Op::Zero | Op::EncodeScalar { .. } | Op::EncodeVec { .. } => vec![],
            Op::Add { a, b } | Op::Sub { a, b } | Op::Mul { a, b } => vec![*a, *b],
            Op::Negate { src }
            | Op::AddScalar { src, .. }
            | Op::Square { src }
            | Op::Rescale { src }
            | Op::ModSwitch { src, .. }
            | Op::Rotate { src, .. }
            | Op::RotateExt { src, .. }
            | Op::ModDown { src } => vec![*src],
            Op::MulPlain { src, plain } | Op::AddPlain { src, plain } => vec![*src, *plain],
            Op::MacPlain { acc, src, plain } => vec![*acc, *src, *plain],
        }
    }

    /// Short lowercase mnemonic for rendering.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Zero => "zero",
            Op::EncodeScalar { .. } => "encode",
            Op::EncodeVec { .. } => "encode_vec",
            Op::Add { .. } => "add",
            Op::Sub { .. } => "sub",
            Op::Negate { .. } => "negate",
            Op::AddScalar { .. } => "add_scalar",
            Op::MulPlain { .. } => "mul_plain",
            Op::AddPlain { .. } => "add_plain",
            Op::MacPlain { .. } => "mac_plain",
            Op::Mul { .. } => "mul",
            Op::Square { .. } => "square",
            Op::Rescale { .. } => "rescale",
            Op::ModSwitch { .. } => "mod_switch",
            Op::Rotate { .. } => "rotate",
            Op::RotateExt { .. } => "rotate_ext",
            Op::ModDown { .. } => "mod_down",
        }
    }
}

/// One node: an op plus the type of the value it produces.
#[derive(Debug, Clone)]
pub struct Node {
    pub op: Op,
    pub ty: ValueTy,
}

/// A contiguous, named span of nodes (one network layer / plan op).
#[derive(Debug, Clone)]
pub struct Region {
    pub name: String,
    /// First node id of the region.
    pub first: NodeId,
    /// Number of nodes in the region.
    pub len: usize,
}

impl Region {
    /// Node ids covered by this region.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        self.first..self.first + self.len
    }
}

/// Per-kind op counts of a circuit — comparable against the runtime
/// `he-trace` counters an eager execution of the same circuit records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// ct×ct products (`Mul` + `Square`) — each also relinearizes.
    pub ct_mults: u64,
    /// Fused scalar-weight MACs (`MacPlain` over an `EncodeScalar`) —
    /// what the runtime `scalar_macs` counter counts. A vector-weight
    /// `MacPlain` is a plaintext product like `MulPlain` and counts in
    /// no field.
    pub scalar_macs: u64,
    pub rescales: u64,
    /// Non-identity rotations (`Rotate` and `RotateExt`) — each a
    /// keyswitch.
    pub rotations: u64,
    /// Divisions by the special primes `P`: one per key switch that
    /// ends in one (a ct×ct product, a non-identity `Rotate`) and one
    /// per `ModDown`. A `RotateExt` defers its
    /// division to a `ModDown`.
    pub mod_downs: u64,
}

/// A complete circuit: parameters, per-level modulus values, nodes,
/// outputs, declared keys, and regions.
#[derive(Debug, Clone)]
pub struct Circuit {
    pub params: CkksParams,
    /// Value of the chain modulus at each level index. Nominal
    /// (`2^chain_bits[i]`) for plan-level circuits; the real generated
    /// prime values for circuits lowered from a built context, which
    /// makes declared scales bit-identical to eager execution.
    pub moduli: Vec<f64>,
    pub nodes: Vec<Node>,
    /// Result nodes, in output order.
    pub outputs: Vec<NodeId>,
    pub keys: KeyInventory,
    pub regions: Vec<Region>,
}

impl Circuit {
    /// Nominal per-level modulus values (`2^chain_bits[i]`) — exact
    /// powers of two, so bit-domain arithmetic on them is exact.
    pub fn nominal_moduli(params: &CkksParams) -> Vec<f64> {
        params
            .chain_bits
            .iter()
            .map(|&b| 2f64.powi(b as i32))
            .collect()
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The units of a region's `nodes`: the connected components of its
    /// computed ciphertext nodes, each in node order, ordered by first
    /// node. Encodes are constants and inputs are bound by name, so
    /// neither connects anything. Units share only values computed
    /// before the region, which is what lets [`crate::Prepared::run`]
    /// execute them concurrently.
    pub fn units(&self, range: std::ops::Range<NodeId>) -> Vec<Vec<NodeId>> {
        let computed = |id: NodeId| {
            range.contains(&id)
                && self.nodes[id].ty.as_ct().is_some()
                && !matches!(self.nodes[id].op, Op::Input { .. })
        };
        // union-find over offsets into the region
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut parent: Vec<usize> = (0..range.len()).collect();
        for id in range.clone().filter(|&id| computed(id)) {
            for arg in self.nodes[id].op.args() {
                if computed(arg) {
                    let a = root(&mut parent, id - range.start);
                    let b = root(&mut parent, arg - range.start);
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        let mut unit_of = vec![usize::MAX; range.len()];
        let mut units: Vec<Vec<NodeId>> = Vec::new();
        for id in range.clone().filter(|&id| computed(id)) {
            let r = root(&mut parent, id - range.start);
            if unit_of[r] == usize::MAX {
                unit_of[r] = units.len();
                units.push(Vec::new());
            }
            units[unit_of[r]].push(id);
        }
        units
    }

    /// Static op counts (rotation identities excluded, matching the
    /// runtime counters which never key-switch an identity rotation).
    pub fn op_counts(&self) -> OpCounts {
        self.op_counts_over(0..self.nodes.len())
    }

    /// [`Self::op_counts`] restricted to one region — comparable against
    /// the per-layer counter deltas runtime telemetry records.
    pub fn op_counts_in(&self, region: &Region) -> OpCounts {
        self.op_counts_over(region.nodes())
    }

    fn op_counts_over(&self, nodes: std::ops::Range<NodeId>) -> OpCounts {
        let slots = self.params.slots() as i64;
        let mut c = OpCounts::default();
        for node in &self.nodes[nodes] {
            match &node.op {
                Op::Mul { .. } | Op::Square { .. } => {
                    c.ct_mults += 1;
                    c.mod_downs += 1;
                }
                Op::MacPlain { plain, .. }
                    if matches!(self.nodes[*plain].op, Op::EncodeScalar { .. }) =>
                {
                    c.scalar_macs += 1;
                }
                Op::Rescale { .. } => c.rescales += 1,
                Op::Rotate { steps, .. } if steps.rem_euclid(slots) != 0 => {
                    c.rotations += 1;
                    c.mod_downs += 1;
                }
                Op::RotateExt { steps, .. } if steps.rem_euclid(slots) != 0 => c.rotations += 1,
                Op::ModDown { .. } => c.mod_downs += 1,
                _ => {}
            }
        }
        c
    }

    /// How `node` misreads a key-switch-basis value, if it does: only
    /// `mul_plain`, `mac_plain` (over vector weights), `add` and
    /// `mod_down` read one — the evaluator has no other operation over
    /// that basis — the operands they combine share one basis, and
    /// `mod_down` reads nothing else. Operands are assumed validated.
    fn basis_misuse(&self, node: &Node) -> Option<&'static str> {
        let ext = |a: NodeId| self.nodes[a].ty.is_ext();
        let vector = |p: NodeId| matches!(self.nodes[p].op, Op::EncodeVec { .. });
        match node.op {
            Op::ModDown { src } => {
                (!ext(src)).then_some("divides a value that is not over the key-switch basis")
            }
            Op::Add { a, b } => (ext(a) != ext(b)).then_some("adds values over different bases"),
            Op::MacPlain { acc, src, plain } => {
                if ext(acc) != ext(src) {
                    Some("accumulates across bases")
                } else {
                    (ext(src) && !vector(plain))
                        .then_some("reads a key-switch-basis value with a scalar weight")
                }
            }
            Op::MulPlain { src, plain } => (ext(src) && !vector(plain))
                .then_some("reads a key-switch-basis value with a scalar weight"),
            ref op => op.args().into_iter().any(ext).then_some(
                "reads a key-switch-basis value; only mul_plain, mac_plain, add and mod_down may",
            ),
        }
    }

    /// Structural validation: operands precede their users (SSA/topo
    /// order), operand kinds match (ct vs plain), key-switch-basis
    /// values are read only by the ops defined over that basis, and
    /// outputs exist on the chain. Returns the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (id, node) in self.nodes.iter().enumerate() {
            for arg in node.op.args() {
                if arg >= id {
                    return Err(format!(
                        "node {id} ({}) uses node {arg} which does not precede it",
                        node.op.mnemonic()
                    ));
                }
            }
            let ct_ok = |a: NodeId| self.nodes[a].ty.as_ct().is_some();
            let pt_ok = |a: NodeId| self.nodes[a].ty.as_plain().is_some();
            let kinds_ok = match &node.op {
                Op::MulPlain { src, plain } => ct_ok(*src) && pt_ok(*plain),
                Op::AddPlain { src, plain } => {
                    ct_ok(*src)
                        && pt_ok(*plain)
                        && matches!(self.nodes[*plain].op, Op::EncodeVec { .. })
                }
                Op::MacPlain { acc, src, plain } => ct_ok(*acc) && ct_ok(*src) && pt_ok(*plain),
                other => other.args().iter().all(|&a| ct_ok(a)),
            };
            if !kinds_ok {
                return Err(format!(
                    "node {id} ({}) has an operand of the wrong kind",
                    node.op.mnemonic()
                ));
            }
            if let Some(bad) = self.basis_misuse(node) {
                return Err(format!("node {id} ({}) {bad}", node.op.mnemonic()));
            }
            if let Op::EncodeVec { values, .. } = &node.op {
                if values.is_empty() {
                    return Err(format!("node {id} (encode_vec) has an empty value vector"));
                }
            }
            let produces_ct = !matches!(node.op, Op::EncodeScalar { .. } | Op::EncodeVec { .. });
            if produces_ct != node.ty.as_ct().is_some() {
                return Err(format!(
                    "node {id} ({}) declares the wrong result kind",
                    node.op.mnemonic()
                ));
            }
        }
        for &o in &self.outputs {
            if o >= self.nodes.len() {
                return Err(format!("output {o} is out of range"));
            }
            match self.nodes[o].ty.as_ct() {
                None => return Err(format!("output {o} is not a ciphertext")),
                Some(t) if t.is_ext() => {
                    return Err(format!(
                        "output {o} ({}) is over the key-switch basis; mod_down it first",
                        self.nodes[o].op.mnemonic()
                    ))
                }
                Some(_) => {}
            }
        }
        let mut end = 0;
        for (i, r) in self.regions.iter().enumerate() {
            if r.first < end || r.first + r.len > self.nodes.len() {
                return Err(format!(
                    "region {i} ('{}') overlaps its predecessor or exceeds the node list",
                    r.name
                ));
            }
            end = r.first + r.len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::types::Layout;

    #[test]
    fn key_inventory_constructors() {
        assert!(KeyInventory::relin_only().relin);
        assert_eq!(
            KeyInventory::relin_only().galois_elements,
            Some(BTreeSet::new())
        );
        let ki = KeyInventory::with_galois(false, [3, 5]);
        assert!(!ki.relin);
        assert_eq!(ki.galois_elements.unwrap().len(), 2);
        assert!(KeyInventory::unknown().galois_elements.is_none());
    }

    #[test]
    fn op_args_and_mnemonics() {
        let mac = Op::MacPlain {
            acc: 0,
            src: 1,
            plain: 2,
        };
        assert_eq!(mac.args(), vec![0, 1, 2]);
        assert_eq!(mac.mnemonic(), "mac_plain");
        assert!(Op::Zero.args().is_empty());
    }

    fn small_circuit() -> Circuit {
        let params = CkksParams::tiny(2);
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        let w = b.encode_scalar(0.5, b.q_at(2), 2);
        let z = b.zero(b.scale() * b.q_at(2), 2);
        let acc = b.mac_plain(z, x, w);
        let y = b.rescale(acc);
        b.output(y);
        b.finish(KeyInventory::relin_only())
    }

    #[test]
    fn validate_accepts_builder_output() {
        let c = small_circuit();
        assert!(c.validate().is_ok(), "{:?}", c.validate());
        assert_eq!(c.op_counts().scalar_macs, 1);
        assert_eq!(c.op_counts().rescales, 1);
        assert_eq!(c.op_counts().ct_mults, 0);
    }

    /// `scalar_macs` mirrors the runtime counter, which only the
    /// scalar-weight MAC records: a vector-weight MAC counts in no field.
    #[test]
    fn scalar_macs_count_only_scalar_weight_macs() {
        let params = CkksParams::tiny(2);
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        let q = b.q_at(2);
        let w = b.encode_scalar(0.5, q, 2);
        let v = b.encode_vec(vec![0.25, -0.5], q, 2);
        let z = b.zero(b.scale() * q, 2);
        let acc = b.mac_plain(z, x, w);
        let acc = b.mac_plain(acc, x, v);
        let acc = b.mac_plain(acc, x, v);
        let p = b.mul_plain(x, v);
        let sum = b.add(acc, p);
        let y = b.rescale(sum);
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());
        assert!(c.validate().is_ok(), "{:?}", c.validate());
        assert_eq!(
            c.op_counts(),
            OpCounts {
                ct_mults: 0,
                scalar_macs: 1,
                rescales: 1,
                rotations: 0,
                mod_downs: 0,
            }
        );
    }

    #[test]
    fn validate_rejects_forward_reference_and_bad_kind() {
        let mut c = small_circuit();
        // forward reference
        let last = c.nodes.len() - 1;
        if let Op::Rescale { src } = &mut c.nodes[last].op {
            *src = last + 5;
        }
        assert!(c.validate().is_err());

        let mut c2 = small_circuit();
        // point a rescale at the encode node: wrong operand kind
        let enc = c2
            .nodes
            .iter()
            .position(|n| matches!(n.op, Op::EncodeScalar { .. }))
            .unwrap();
        let last = c2.nodes.len() - 1;
        if let Op::Rescale { src } = &mut c2.nodes[last].op {
            *src = enc;
        }
        assert!(c2.validate().is_err());
    }

    /// An extended rotation of `x` at level 2, then `tail` over it.
    fn extended(tail: impl FnOnce(&mut GraphBuilder, NodeId, NodeId) -> NodeId) -> Circuit {
        let mut b = GraphBuilder::new(CkksParams::tiny(2));
        let x = b.input("x", 2, Layout::BatchStrided { stride: 1 });
        let r = b.rotate_ext(x, 1);
        let y = tail(&mut b, x, r);
        b.output(y);
        b.finish(KeyInventory::unknown())
    }

    #[test]
    fn validate_accepts_the_ops_defined_over_the_key_switch_basis() {
        let c = extended(|b, x, r| {
            let w = b.encode_vec(vec![0.5], b.q_at(2), 2);
            let p = b.mul_plain(r, w);
            let lift = b.rotate_ext(x, 0);
            let m = b.mac_plain(p, lift, w);
            let s = b.add(m, r);
            b.mod_down(s)
        });
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.op_counts().mod_downs, 1);
        assert_eq!(c.op_counts().rotations, 1);
    }

    #[test]
    fn validate_refuses_any_other_reader_of_an_extended_value_naming_it() {
        let c = extended(|b, _, r| b.rescale(r));
        let err = c.validate().unwrap_err();
        assert!(
            err.starts_with("node 2 (rescale) reads a key-switch-basis value"),
            "{err}"
        );
        let c = extended(|b, _, r| b.rotate(r, 1));
        assert!(c
            .validate()
            .unwrap_err()
            .starts_with("node 2 (rotate) reads"));
    }

    #[test]
    fn validate_refuses_an_extended_output() {
        let c = extended(|_, _, r| r);
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("output 1 (rotate_ext) is over the key-switch basis"),
            "{err}"
        );
    }

    #[test]
    fn validate_refuses_a_sum_or_product_across_bases() {
        let c = extended(|b, x, r| {
            let s = b.add(r, x);
            b.mod_down(s)
        });
        assert!(c
            .validate()
            .unwrap_err()
            .contains("(add) adds values over different bases"));
        let c = extended(|b, _, r| {
            let w = b.encode_scalar(0.5, b.q_at(2), 2);
            let p = b.mul_plain(r, w);
            b.mod_down(p)
        });
        assert!(c.validate().unwrap_err().contains("with a scalar weight"));
    }

    #[test]
    fn validate_refuses_a_mod_down_of_a_chain_value() {
        let c = extended(|b, x, r| {
            let d = b.mod_down(r);
            let s = b.add(d, x);
            b.mod_down(s)
        });
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("node 4 (mod_down) divides a value that is not over"),
            "{err}"
        );
    }

    #[test]
    fn units_are_the_components_of_a_regions_computed_nodes() {
        let params = CkksParams::tiny(2);
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 2, Layout::BatchSlots);
        b.begin_region("two");
        let w = b.encode_scalar(0.5, b.q_at(2), 2);
        let z0 = b.zero(b.scale() * b.q_at(2), 2);
        let a0 = b.mac_plain(z0, x, w);
        let z1 = b.zero(b.scale() * b.q_at(2), 2);
        let a1 = b.mac_plain(z1, x, w);
        let y0 = b.rescale(a0);
        let y1 = b.rescale(a1);
        b.begin_region("one");
        let s = b.add(y0, y1);
        b.output(s);
        let c = b.finish(KeyInventory::relin_only());
        // the shared input and encode connect nothing
        assert_eq!(
            c.units(c.regions[0].nodes()),
            vec![vec![z0, a0, y0], vec![z1, a1, y1]]
        );
        assert_eq!(c.units(c.regions[1].nodes()), vec![vec![s]]);
    }

    #[test]
    fn identity_rotations_not_counted() {
        let params = CkksParams::tiny(1);
        let slots = params.slots() as i64;
        let mut b = GraphBuilder::new(params);
        let x = b.input("x", 1, Layout::BatchStrided { stride: 1 });
        let r1 = b.rotate(x, 1);
        let r2 = b.rotate(r1, slots); // identity
        b.output(r2);
        let c = b.finish(KeyInventory::unknown());
        assert_eq!(c.op_counts().rotations, 1);
    }
}
