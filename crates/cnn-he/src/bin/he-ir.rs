//! `he-ir` — lower the paper's CNN1/CNN2 models, or any HENT model
//! file, to the circuit IR and run the static analysis passes over them.
//!
//! ```text
//! he-ir check  <MODEL> [--params FILE | --depth N] [--packed]
//! he-ir dump   <MODEL> [--params FILE | --depth N] [--dot] [-o FILE] [--packed]
//! he-ir passes
//! ```
//!
//! `MODEL` is `cnn1`, `cnn2` or a path to a HENT file
//! ([`cnn_he::model`]). `check` on the scalar network is the
//! pipeline's admission ([`cnn_he::admission`]): the chain's depth,
//! then the full standard pass suite, printing every diagnostic;
//! `dump` prints a per-region table (or Graphviz DOT with `--dot`);
//! `passes` lists the registered analyses. `--packed` lowers the
//! slot-packed network to the squat-fold circuit
//! (`PackedLowering::Compiled`) at the ring's full lane capacity —
//! exactly what `CnnHePipeline` prepares and runs for every batch size.
//! Exits 0 when the circuit is clean (warnings allowed), 1 on error
//! diagnostics or a packed dim past the ring's slots, 2 on usage
//! problems or an unreadable model or parameter file.
//!
//! Parameters come from `--params FILE` (`key = value` lines, see
//! [`ckks::paramfile`]) or are `CkksParams::paper` on the 2^14 ring,
//! sized like `CnnHePipeline::new` to the network's depth (`--depth N`
//! overrides it). Lowering is *nominal*
//! (`q_i = 2^chain_bits[i]`): no ring context is built and no key
//! material exists, so checking the full 28×28 models is fast. `cnn1`
//! and `cnn2` are freshly initialized from a fixed seed — the analyses
//! depend on the architecture, not the trained values (only exact-zero
//! weights would change tap counts).

#![forbid(unsafe_code)]

use ckks::CkksParams;
use cnn_he::admission;
use cnn_he::graph::lower_network;
use cnn_he::network::HeNetwork;
use cnn_he::packed::PackedNetwork;
use cnn_he::{lower_packed, PackedLowering};
use he_ir::{Circuit, GraphBuilder, PassManager};
use neural::models::{cnn1, cnn2, ActKind};

const USAGE: &str = "usage:
  he-ir check  <MODEL> [--params FILE | --depth N] [--packed]
  he-ir dump   <MODEL> [--params FILE | --depth N] [--dot] [-o FILE] [--packed]
  he-ir passes
MODEL is cnn1, cnn2 or a HENT model file. A parameter file is `key = value` lines:
    n = 16384
    chain_bits = 40 26 26 26 26 26 26 26 26 26 26 26 26 26
    special_bits = 40
    scale_bits = 26
    security = 128        # none/128/192/256
Exit status: 0 clean, 1 error diagnostics, 2 bad usage or input.";

/// Seed for the fresh model weights (analysis is architecture-driven).
const MODEL_SEED: u64 = 1;

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

struct Opts {
    model: Option<String>,
    packed: bool,
    dot: bool,
    out: Option<String>,
    depth: Option<usize>,
    params: Option<String>,
}

fn parse(args: Vec<String>) -> Result<Opts, String> {
    let mut o = Opts {
        model: None,
        packed: false,
        dot: false,
        out: None,
        depth: None,
        params: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--packed" => o.packed = true,
            "--dot" => o.dot = true,
            "-o" => {
                o.out = Some(it.next().ok_or("-o needs a file path")?);
            }
            "--params" => {
                o.params = Some(it.next().ok_or("--params needs a file path")?);
            }
            "--depth" => {
                o.depth = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--depth needs an integer")?,
                );
            }
            other if !other.starts_with('-') && o.model.is_none() => {
                o.model = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.depth.is_some() && o.params.is_some() {
        return Err("--depth and --params are exclusive".into());
    }
    Ok(o)
}

fn run(mut args: Vec<String>) -> i32 {
    if args.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    let cmd = args.remove(0);
    if matches!(cmd.as_str(), "-h" | "--help" | "help") {
        println!("{USAGE}");
        return 0;
    }
    if cmd == "passes" {
        for (name, desc) in PassManager::standard().catalog() {
            println!("{name:<14} {desc}");
        }
        return 0;
    }
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let Some(model) = opts.model.as_deref() else {
        eprintln!("error: {cmd} needs a model (cnn1, cnn2 or a HENT file)\n{USAGE}");
        return 2;
    };
    let (net, params) = match (load_model(model), load_params(opts.params.as_deref())) {
        (Ok(net), Ok(params)) => (net, params),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    // without a file: the paper's shape on its 2^14 ring, deep enough
    let sized = |levels: usize| {
        let depth = opts.depth.unwrap_or(levels);
        params
            .clone()
            .unwrap_or_else(|| CkksParams::paper(1 << 14, depth))
    };
    if cmd == "check" && !opts.packed {
        let (report, _) = admission(&net, GraphBuilder::new(sized(net.required_levels())));
        print!("{}", report.render());
        return i32::from(report.has_errors());
    }
    let circuit = match build_circuit(&net, sized, opts.packed) {
        Ok(circuit) => circuit,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };

    match cmd.as_str() {
        "check" => {
            let report = PassManager::standard().run(&circuit);
            print!("{}", report.render());
            i32::from(report.has_errors())
        }
        "dump" => {
            let text = if opts.dot {
                he_ir::dot::render(&circuit)
            } else {
                region_table(&circuit)
            };
            match opts.out.as_deref() {
                None => {
                    print!("{text}");
                    0
                }
                Some(path) => match std::fs::write(path, &text) {
                    Ok(()) => 0,
                    Err(e) => {
                        eprintln!("error: cannot write {path}: {e}");
                        2
                    }
                },
            }
        }
        other => {
            eprintln!("error: unknown command `{other}`\n{USAGE}");
            2
        }
    }
}

/// The named paper model, or a HENT model file.
fn load_model(model: &str) -> Result<HeNetwork, String> {
    match model {
        "cnn1" => Ok(HeNetwork::from_trained(
            &cnn1(ActKind::slaf3(), MODEL_SEED),
            28,
        )),
        "cnn2" => Ok(HeNetwork::from_trained(
            &cnn2(ActKind::slaf3(), MODEL_SEED),
            28,
        )),
        path => {
            let bytes = std::fs::read(path).map_err(|e| {
                format!("cannot read model `{path}` (expected cnn1, cnn2 or a HENT file): {e}")
            })?;
            cnn_he::model::network_from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// The `--params` file's parameter set, when one was given.
fn load_params(path: Option<&str>) -> Result<Option<CkksParams>, String> {
    let Some(path) = path else { return Ok(None) };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ckks::parse_params(&text)
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

/// The scalar circuit, or with `slot_packed` the packed circuit at the
/// lane stride every packed request runs at (declared keys = exactly its
/// rotation set); a packed dim past the ring's slots is refused.
fn build_circuit(
    net: &HeNetwork,
    sized: impl Fn(usize) -> CkksParams,
    slot_packed: bool,
) -> Result<Circuit, ckks::HeError> {
    if slot_packed {
        let packed = PackedNetwork::from_network(net);
        let params = sized(packed.required_levels());
        let stride = packed.plan_batch(params.slots(), 1)?.layout().stride();
        Ok(lower_packed(
            &packed,
            GraphBuilder::new(params),
            stride,
            PackedLowering::Compiled,
        ))
    } else {
        let params = sized(net.required_levels());
        Ok(lower_network(net, GraphBuilder::new(params)))
    }
}

/// One row per region: node count, op counts, exit type.
fn region_table(c: &Circuit) -> String {
    let mut out = format!(
        "{} nodes, {} regions, {} outputs\n",
        c.nodes.len(),
        c.regions.len(),
        c.outputs.len()
    );
    for r in &c.regions {
        let counts = c.op_counts_in(r);
        let exit = r
            .nodes()
            .rev()
            .find_map(|id| c.node(id).ty.as_ct())
            .map_or_else(String::new, |t| {
                let basis = if t.is_ext() { "+P" } else { "" };
                format!("  → L{}{basis} Δ2^{:.2}", t.level, t.log2_scale())
            });
        out.push_str(&format!(
            "  {:<22} {:>7} nodes  {:>6} macs  {:>4} ct-mults  {:>5} rescales  {:>4} rots  \
             {:>4} mod-downs{exit}\n",
            r.name,
            r.len,
            counts.scalar_macs,
            counts.ct_mults,
            counts.rescales,
            counts.rotations,
            counts.mod_downs
        ));
    }
    let t = c.op_counts();
    out.push_str(&format!(
        "total: {} macs, {} ct-mults, {} rescales, {} rotations, {} mod-downs\n",
        t.scalar_macs, t.ct_mults, t.rescales, t.rotations, t.mod_downs
    ));
    out
}
