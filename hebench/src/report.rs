//! The metric catalogue (the single source `BENCHMARK.json` is printed
//! from), the result line a run ends with, and the record of the
//! environment a run was made in.

use crate::adapter::json::{self, Value};
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer only: the crate the metric belongs to.
    pub layer: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        layer: "",
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        layer,
    }
}

/// What a user of the system sees, on every workload. Bounds were set
/// from the run-to-run spreads recorded in README.md.
pub const END_TO_END: &[MetricDef] = &[
    e2e("request_s", "s", "lower", 0.25),
    e2e("request_p90_s", "s", "lower", 0.25),
    e2e("images_per_s", "img/s", "higher", 0.20),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Metrics of single layers, from the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // ckks-math: counts per request, and one isolated call per kernel
    layer("ckks-math", "ntt_fwd", "count", "lower"),
    layer("ckks-math", "ntt_inv", "count", "lower"),
    layer("ckks-math", "modmul_limbs", "count", "lower"),
    layer("ckks-math", "scalar_macs", "count", "lower"),
    layer("ckks-math", "ntt_fwd_us", "us", "lower"),
    layer("ckks-math", "ntt_inv_us", "us", "lower"),
    layer("ckks-math", "dyadic_mul_us", "us", "lower"),
    layer("ckks-math", "mac_us", "us", "lower"),
    // ckks: counts per request, unit costs at the input level and level 1
    layer("ckks", "rotations", "count", "lower"),
    layer("ckks", "keyswitches", "count", "lower"),
    layer("ckks", "relins", "count", "lower"),
    layer("ckks", "rescales", "count", "lower"),
    layer("ckks", "ct_mults", "count", "lower"),
    layer("ckks", "rotate_ms", "ms", "lower"),
    layer("ckks", "keyswitch_ms", "ms", "lower"),
    layer("ckks", "rescale_ms", "ms", "lower"),
    layer("ckks", "ct_mult_ms", "ms", "lower"),
    layer("ckks", "encode_ms", "ms", "lower"),
    layer("ckks", "encrypt_ms", "ms", "lower"),
    layer("ckks", "decrypt_ms", "ms", "lower"),
    layer("ckks", "rotate_l1_ms", "ms", "lower"),
    layer("ckks", "keyswitch_l1_ms", "ms", "lower"),
    layer("ckks", "rescale_l1_ms", "ms", "lower"),
    layer("ckks", "ct_mult_l1_ms", "ms", "lower"),
    layer("ckks", "encode_l1_ms", "ms", "lower"),
    layer("ckks", "encrypt_l1_ms", "ms", "lower"),
    layer("ckks", "decrypt_l1_ms", "ms", "lower"),
    layer("ckks", "priced_share", "ratio", "higher"),
    // cnn-he: the three spans of a request, and the set-up split
    layer("cnn-he", "encrypt_s", "s", "lower"),
    layer("cnn-he", "infer_s", "s", "lower"),
    layer("cnn-he", "decrypt_s", "s", "lower"),
    layer("cnn-he", "region_max_s", "s", "lower"),
    layer("cnn-he", "shards", "count", "lower"),
    layer("cnn-he", "stride", "count", "higher"),
    layer("cnn-he", "keygen_s", "s", "lower"),
    layer("cnn-he", "galois_keygen_s", "s", "lower"),
    layer("cnn-he", "precompute_s", "s", "lower"),
    // he-ir: compile cost, circuit size, interpreter time
    layer("he-ir", "lower_s", "s", "lower"),
    layer("he-ir", "optimize_s", "s", "lower"),
    layer("he-ir", "nodes_eager", "count", "lower"),
    layer("he-ir", "nodes_compiled", "count", "lower"),
    layer("he-ir", "ir_rotations_eager", "count", "lower"),
    layer("he-ir", "ir_rotations_compiled", "count", "lower"),
    layer("he-ir", "ir_he_ops_eager", "count", "lower"),
    layer("he-ir", "ir_he_ops_compiled", "count", "lower"),
    layer("he-ir", "interp_run_s", "s", "lower"),
    layer("he-ir", "plain_encodes_per_run", "count", "lower"),
    // he-serve: waiting, batching and refusals
    layer("he-serve", "queue_wait_p50_s", "s", "lower"),
    layer("he-serve", "queue_wait_p95_s", "s", "lower"),
    layer("he-serve", "queue_wait_share", "ratio", "lower"),
    layer("he-serve", "batch_wall_s", "s", "lower"),
    layer("he-serve", "mean_batch", "count", "higher"),
    layer("he-serve", "busy_share", "ratio", "higher"),
    layer("he-serve", "refused", "count", "lower"),
    layer("he-serve", "generator_late_max_s", "s", "lower"),
    // process: what the traced run cost the machine
    layer("process", "cpu_user_s", "s", "lower"),
    layer("process", "cpu_sys_s", "s", "lower"),
    layer("process", "cpu_sys_share", "ratio", "lower"),
    layer("process", "cpu_per_wall", "ratio", "lower"),
    layer("process", "available_parallelism", "count", "higher"),
    layer("process", "rayon_num_threads", "count", "lower"),
    layer("process", "trace_overhead_share", "ratio", "lower"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Compact JSON text of a value; numbers keep every digit `f64` holds.
pub fn to_json(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) if n.is_finite() => n.to_string(),
        Value::Num(_) => "null".into(),
        Value::Str(s) => quote(s),
        Value::Arr(items) => {
            let parts: Vec<String> = items.iter().map(to_json).collect();
            format!("[{}]", parts.join(", "))
        }
        Value::Obj(pairs) => {
            let parts: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), to_json(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }
}

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// What one run of one workload ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// `defs` fixes which metrics the result carries; every one must
    /// have been measured.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        defs: &[MetricDef],
        m: &Metrics,
    ) -> Self {
        let metrics = defs
            .iter()
            .map(|d| {
                let v = *m
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                (d.name.to_string(), (v, d.unit.to_string()))
            })
            .collect();
        Self {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON object the driver reads.
    pub fn to_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.clone(),
                    obj(vec![("value", Value::Num(*value)), ("unit", text(unit))]),
                )
            })
            .collect();
        to_json(&obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ]))
    }

    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("result line lacks the number '{key}'"))
        };
        let Some(Value::Obj(pairs)) = v.get("metrics") else {
            return Err("result line lacks 'metrics'".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in pairs {
            let value = m.get("value").and_then(Value::as_num);
            let unit = m.get("unit").and_then(Value::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric '{name}' lacks a value or a unit"));
            };
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(Self {
            correct: v.get("correct") == Some(&Value::Bool(true)),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// The text of `BENCHMARK.json`, printed from the catalogue and the
/// workload table so the two cannot drift apart.
pub fn manifest() -> String {
    let run_seconds = crate::RUN_SECONDS;
    let rows = |items: Vec<Value>| -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", to_json(v)))
            .collect();
        lines.join(",\n")
    };
    let workloads = rows(
        crate::workloads::WORKLOADS
            .iter()
            .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
            .collect(),
    );
    let named = |d: &MetricDef| {
        vec![
            ("name", text(d.name)),
            ("unit", text(d.unit)),
            ("better", text(d.better)),
        ]
    };
    let e2e = rows(
        END_TO_END
            .iter()
            .map(|d| {
                let mut pairs = named(d);
                pairs.push(("bound", Value::Num(d.bound)));
                obj(pairs)
            })
            .collect(),
    );
    let layers = rows(PER_LAYER.iter().map(|d| obj(named(d))).collect());
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"hebench/Cargo.toml\", \"--\"],\n  \"paths\": [\"hebench\"],\n  \"run_seconds\": \
         {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads, e2e, layers
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One-minute load average, if the host tells.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Where and with what a run was made.
pub fn environment() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        (
            "kernel_backend",
            crate::adapter::kernel_backend().to_string(),
        ),
        ("RAYON_NUM_THREADS", env_or_unset("RAYON_NUM_THREADS")),
        ("HE_KERNEL_BACKEND", env_or_unset("HE_KERNEL_BACKEND")),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        (
            "load_average_1m",
            load_average().map_or_else(|| "unknown".into(), |l| l.to_string()),
        ),
    ]
}

/// `(user, system)` CPU seconds of this process so far.
pub fn cpu_seconds() -> (f64, f64) {
    // fields 14 and 15 of /proc/self/stat, in ticks of 1/100 s on Linux;
    // the command name (field 2) may hold spaces, so count from its ')'
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (ticks(), ticks());
    (user / 100.0, sys / 100.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let m: Metrics = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, 0.1234567890123 * (i + 1) as f64))
            .collect();
        let r = RunResult::new(true, 1000, 3, END_TO_END, &m);
        let line = r.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_line(&line), Ok(r.clone()));
        assert_eq!(r.metrics["setup_s"].1, "s");
        // every digit survives
        assert_eq!(r.metrics["request_s"].0, 0.1234567890123);
        assert!(RunResult::from_line("{\"correct\": true}").is_err());
    }

    #[test]
    fn manifest_is_valid_and_matches_the_committed_file() {
        let committed = include_str!("../../BENCHMARK.json");
        json::parse(committed).expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest());
        assert!((1..=60).contains(&crate::RUN_SECONDS));
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(crate::workloads::WORKLOADS.iter().map(|w| w.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "name {n} is used twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16 && d.bound <= 0.25, "{}", d.name);
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in crate::workloads::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn process_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let (u, s) = cpu_seconds();
        assert!(u >= 0.0 && s >= 0.0);
    }
}
