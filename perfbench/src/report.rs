//! Output: named metrics with units, the run manifest, and the one-line
//! JSON result the benchmark ends with.

use std::fmt::Write as _;

use silent_tracker::wire::Fnv64;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Escape `s` as the body of a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the value has (`null` if not finite,
/// which the caller counts as a failure).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// FNV-1a over `parts`, each terminated so boundaries count.
pub fn fnv(parts: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for p in parts {
        h.write(p.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// Provenance of a run: the machine, the build and the inputs.
pub fn manifest(
    workload: &str,
    seed: u64,
    workers: usize,
    scale: f64,
    trace: bool,
    config_digest: u64,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("workers", workers.to_string()),
        ("scale", json_num(scale)),
        ("trace", trace.to_string()),
        ("config_digest", json_str(&format!("{config_digest:#018x}"))),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("profile", json_str(env!("PERFBENCH_PROFILE"))),
        ("git_rev", json_str(env!("PERFBENCH_GIT_REV"))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"manifest\": {{{}}}}}", body.join(", "))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
