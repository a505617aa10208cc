//! Graphviz DOT export of circuits.
//!
//! Small circuits render node-per-node with region clusters; large ones
//! (CNN lowerings easily reach tens of thousands of nodes) collapse to
//! one summary node per region so the output stays viewable.

use crate::circuit::{Circuit, Op};
use std::fmt::Write;

/// Above this many nodes the full graph collapses to per-region summary
/// nodes.
pub const FULL_GRAPH_LIMIT: usize = 4000;

/// Renders the circuit as DOT, choosing full or region-collapsed form by
/// size.
pub fn render(c: &Circuit) -> String {
    if c.nodes.len() <= FULL_GRAPH_LIMIT {
        render_full(c)
    } else {
        render_regions(c)
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn node_label(c: &Circuit, id: usize) -> String {
    let node = &c.nodes[id];
    let detail = match &node.op {
        Op::Input { name } => format!(" {name}"),
        Op::EncodeScalar { value, .. } => format!(" {value}"),
        Op::EncodeVec { values, .. } => format!(" [{}]", values.len()),
        Op::AddScalar { value, .. } => format!(" {value}"),
        Op::Rotate { steps, .. } | Op::RotateExt { steps, .. } => format!(" by {steps}"),
        Op::ModSwitch { level, .. } => format!(" to L{level}"),
        _ => String::new(),
    };
    let ty = match node.ty.as_ct() {
        Some(t) if t.is_ext() => format!("L{}+P Δ2^{:.0}", t.level, t.log2_scale()),
        Some(t) => format!("L{} Δ2^{:.0}", t.level, t.log2_scale()),
        None => match node.ty.as_plain() {
            Some(p) => format!("pt L{} 2^{:.0}", p.level, p.pt_scale.log2()),
            None => String::new(),
        },
    };
    format!("n{id}: {}{detail}\\n{ty}", node.op.mnemonic())
}

/// Extra DOT attributes that set a node apart: a value over the
/// key-switch basis is drawn dashed and blue, a `mod_down` (the division
/// by `P` back onto the chain) as an inverted trapezium.
fn node_style(c: &Circuit, id: usize) -> &'static str {
    let node = &c.nodes[id];
    if matches!(node.op, Op::ModDown { .. }) {
        ", shape=invtrapezium, color=blue"
    } else if node.ty.is_ext() {
        ", style=dashed, color=blue"
    } else {
        ""
    }
}

/// Full node-per-node graph with one cluster per region.
pub fn render_full(c: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("digraph circuit {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    let in_region = |id: usize| c.regions.iter().any(|r| r.nodes().contains(&id));
    for (ri, r) in c.regions.iter().enumerate() {
        let _ = writeln!(
            out,
            "  subgraph cluster_{ri} {{\n    label=\"{}\";",
            esc(&r.name)
        );
        for id in r.nodes() {
            let (label, style) = (esc(&node_label(c, id)), node_style(c, id));
            let _ = writeln!(out, "    n{id} [label=\"{label}\"{style}];");
        }
        out.push_str("  }\n");
    }
    for id in 0..c.nodes.len() {
        if !in_region(id) {
            let (label, style) = (esc(&node_label(c, id)), node_style(c, id));
            let _ = writeln!(out, "  n{id} [label=\"{label}\"{style}];");
        }
    }
    for (id, node) in c.nodes.iter().enumerate() {
        for arg in node.op.args() {
            let _ = writeln!(out, "  n{arg} -> n{id};");
        }
    }
    for &o in &c.outputs {
        let _ = writeln!(out, "  out{o} [label=\"output\", shape=doublecircle];");
        let _ = writeln!(out, "  n{o} -> out{o};");
    }
    out.push_str("}\n");
    out
}

/// One summary node per region: op counts and the region's exit type.
pub fn render_regions(c: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("digraph circuit {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    let mut prev: Option<usize> = None;
    for (ri, r) in c.regions.iter().enumerate() {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        let mut exit_ty = String::new();
        for id in r.nodes() {
            let m = c.nodes[id].op.mnemonic();
            match counts.iter_mut().find(|(k, _)| *k == m) {
                Some((_, n)) => *n += 1,
                None => counts.push((m, 1)),
            }
            if let Some(t) = c.nodes[id].ty.as_ct() {
                let basis = if t.is_ext() { "+P" } else { "" };
                exit_ty = format!("L{}{basis} Δ2^{:.1}", t.level, t.log2_scale());
            }
        }
        let ops = counts
            .iter()
            .map(|(k, n)| format!("{k}×{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "  r{ri} [label=\"{}\\n{} node(s): {}\\nexit {}\"];",
            esc(&r.name),
            r.len,
            esc(&ops),
            exit_ty
        );
        if let Some(p) = prev {
            let _ = writeln!(out, "  r{p} -> r{ri};");
        }
        prev = Some(ri);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GraphBuilder;
    use crate::circuit::KeyInventory;
    use crate::types::Layout;
    use ckks::CkksParams;

    #[test]
    fn small_circuit_renders_full_graph_with_clusters() {
        let mut b = GraphBuilder::new(CkksParams::tiny(2));
        b.begin_region("layer0");
        let x = b.input("x", 2, Layout::BatchSlots);
        let w = b.encode_scalar(0.5, b.q_at(2), 2);
        let p = b.mul_plain(x, w);
        let y = b.rescale(p);
        b.output(y);
        let c = b.finish(KeyInventory::relin_only());
        let dot = render(&c);
        assert!(dot.starts_with("digraph circuit {"));
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("layer0"));
        assert!(dot.contains("rescale"));
        assert!(dot.contains("->"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.trim_end().ends_with('}'));
    }

    /// Key-switch-basis values are dashed and blue, a `mod_down` an
    /// inverted trapezium; chain values keep the plain box.
    #[test]
    fn extended_values_and_mod_downs_are_drawn_apart() {
        let mut b = GraphBuilder::new(CkksParams::tiny(2));
        let x = b.input("x", 2, Layout::BatchStrided { stride: 1 });
        let r = b.rotate_ext(x, 1);
        let d = b.mod_down(r);
        b.output(d);
        let dot = render(&b.finish(KeyInventory::unknown()));
        let line = |id: usize| {
            dot.lines()
                .find(|l| l.trim_start().starts_with(&format!("n{id} [")))
                .unwrap()
                .to_string()
        };
        assert!(line(r).contains("rotate_ext by 1") && line(r).contains("style=dashed"));
        assert!(line(r).contains("L2+P"));
        assert!(line(d).contains("shape=invtrapezium"));
        assert!(!line(x).contains("color="));
    }

    #[test]
    fn huge_circuit_collapses_to_regions() {
        let mut b = GraphBuilder::new(CkksParams::tiny(2));
        b.begin_region("wide");
        let x = b.input("x", 2, Layout::BatchSlots);
        let mut acc = x;
        for _ in 0..FULL_GRAPH_LIMIT {
            acc = b.add_scalar(acc, 0.0);
        }
        b.output(acc);
        let c = b.finish(KeyInventory::relin_only());
        let dot = render(&c);
        assert!(dot.contains("r0 [label=\"wide"));
        assert!(!dot.contains("n17 ["), "should not render individual nodes");
    }
}
