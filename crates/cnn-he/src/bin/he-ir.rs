//! `he-ir` — lower the paper's CNN1/CNN2 models, or any HENT model
//! file, to the circuit IR and run the static analysis passes over them.
//!
//! ```text
//! he-ir check  <MODEL> [--params FILE | --depth N] [--packed] [--per-tap] [--optimize]
//! he-ir dump   <MODEL> [--params FILE | --depth N] [--dot] [-o FILE] [--packed] [--per-tap] [--optimize]
//! he-ir passes
//! ```
//!
//! `MODEL` is `cnn1`, `cnn2` or a path to a HENT file
//! ([`cnn_he::model`]). `check` on the scalar network is the
//! pipeline's admission ([`cnn_he::admission`]): the chain's depth,
//! then the full standard pass suite, printing every diagnostic;
//! `dump` prints a per-region table (or Graphviz DOT with `--dot`);
//! `passes` lists the registered analyses. With `--optimize`
//! the circuit is first run through the optimizing pass pipeline
//! (`PassManager::optimizer()`) and the per-pass op-count report is
//! printed. `--packed` lowers the slot-packed network: alone, the
//! un-optimized reference circuit (`PackedLowering::Eager`); with
//! `--optimize`, the squat-fold lowering the optimizer is built for —
//! exactly what `CnnHePipeline` prepares and runs. Exits 0 when the
//! circuit is clean (warnings allowed), 1 on error diagnostics, 2 on
//! usage problems or an unreadable model or parameter file.
//!
//! Parameters come from `--params FILE` (`key = value` lines, see
//! [`ckks::paramfile`]) or are sized like `CnnHePipeline::new` to the
//! network's depth (`--depth N` overrides it). Lowering is *nominal*
//! (`q_i = 2^chain_bits[i]`): no ring context is built and no key
//! material exists, so checking the full 28×28 models is fast. `cnn1`
//! and `cnn2` are freshly initialized from a fixed seed — the analyses
//! depend on the architecture, not the trained values (only exact-zero
//! weights would change tap counts).

#![forbid(unsafe_code)]

use cnn_he::admission;
use cnn_he::graph::{lower_network, EncodeSharing};
use cnn_he::network::HeNetwork;
use cnn_he::packed::PackedNetwork;
use cnn_he::{lower_packed, PackedLowering};
use he_ir::{Circuit, GraphBuilder, PassManager};
use neural::models::{cnn1, cnn2, ActKind};

const USAGE: &str = "usage:
  he-ir check  <MODEL> [--params FILE | --depth N] [--packed] [--per-tap] [--optimize]
  he-ir dump   <MODEL> [--params FILE | --depth N] [--dot] [-o FILE] [--packed] [--per-tap] [--optimize]
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
    per_tap: bool,
    dot: bool,
    out: Option<String>,
    depth: Option<usize>,
    params: Option<String>,
    optimize: bool,
}

fn parse(args: Vec<String>) -> Result<Opts, String> {
    let mut o = Opts {
        model: None,
        packed: false,
        per_tap: false,
        dot: false,
        out: None,
        depth: None,
        params: None,
        optimize: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--packed" => o.packed = true,
            "--per-tap" => o.per_tap = true,
            "--dot" => o.dot = true,
            "--optimize" => o.optimize = true,
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
    if cmd == "check" && !(opts.packed || opts.per_tap || opts.optimize) {
        let params =
            params.unwrap_or_else(|| params_for(opts.depth.unwrap_or(net.required_levels())));
        let (report, _) = admission(&net, GraphBuilder::new(params));
        print!("{}", report.render());
        return i32::from(report.has_errors());
    }
    let mut circuit = build_circuit(&net, params, &opts);
    if opts.optimize {
        match PassManager::optimizer().optimize(&mut circuit) {
            Ok(report) => eprintln!("{}", report.render()),
            Err(e) => {
                eprintln!("error: optimizer produced an invalid circuit: {e}");
                return 1;
            }
        }
    }

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
fn load_params(path: Option<&str>) -> Result<Option<ckks::CkksParams>, String> {
    let Some(path) = path else { return Ok(None) };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ckks::parse_params(&text)
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

/// Paper-style parameters sized to the network (`CnnHePipeline::new`'s
/// chain: `[40, 26 × levels]`, Δ = 2^26, ring 2^14), nominal moduli —
/// no context build.
fn params_for(levels: usize) -> ckks::CkksParams {
    let mut chain_bits = vec![40u32];
    chain_bits.extend(std::iter::repeat_n(26, levels));
    ckks::CkksParams {
        n: 1 << 14,
        chain_bits,
        special_bits: vec![40],
        scale_bits: 26,
        security: ckks::SecurityLevel::Bits128,
    }
}

fn build_circuit(net: &HeNetwork, params: Option<ckks::CkksParams>, opts: &Opts) -> Circuit {
    let sized = |levels: usize| params.unwrap_or_else(|| params_for(opts.depth.unwrap_or(levels)));
    if opts.packed {
        // single-image (stride 1) packed circuit, declared keys =
        // exactly its rotation set
        let packed = PackedNetwork::from_network(net);
        let params = sized(packed.required_levels());
        let mode = if opts.optimize {
            PackedLowering::Compiled
        } else {
            PackedLowering::Eager
        };
        lower_packed(&packed, GraphBuilder::new(params), 1, mode)
    } else {
        let params = sized(net.required_levels());
        let sharing = if opts.per_tap {
            EncodeSharing::PerTap
        } else {
            EncodeSharing::Shared
        };
        lower_network(net, GraphBuilder::new(params), sharing)
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
                format!("  → L{} Δ2^{:.2}", t.level, t.log2_scale())
            });
        out.push_str(&format!(
            "  {:<22} {:>7} nodes  {:>6} macs  {:>4} ct-mults  {:>5} rescales  {:>4} rots{exit}\n",
            r.name, r.len, counts.scalar_macs, counts.ct_mults, counts.rescales, counts.rotations
        ));
    }
    let t = c.op_counts();
    out.push_str(&format!(
        "total: {} macs, {} ct-mults, {} rescales, {} rotations\n",
        t.scalar_macs, t.ct_mults, t.rescales, t.rotations
    ));
    out
}
