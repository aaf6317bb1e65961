//! Blocker-density sweep: silent vs reactive under moving geometric
//! blockers. Usage:
//! `blockage_study [--smoke] [--workers N] [--json PATH] [--ues N] [DENSITIES...]`
//!
//! `--smoke` runs the small fixed CI sweep (deterministic summary on
//! stdout); otherwise the positional arguments are blocker densities
//! (default 0 25 50 100). Either mode writes the `BENCH_blockage.json`
//! artifact to `--json PATH`. Exits with code 1, printing no metrics,
//! when any fleet ran out of its event budget, and with code 2 on a bad
//! flag value or a configuration that fails validation (`--ues 0`).

use st_bench::flag_value;

const USAGE: &str = "blockage_study [--smoke] [--workers N] [--json PATH] [--ues N] [DENSITIES...]";

/// Print the error and the usage, and exit with code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: {USAGE}");
    std::process::exit(2)
}

/// The value after `flag`, or a usage error.
fn arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    flag_value(args, flag).unwrap_or_else(|e| usage_error(&e))
}

fn exit_if_truncated(study: &st_bench::blockage_study::BlockageStudy) {
    if let Err(e) = study.check_budgets() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut smoke = false;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut json_path = String::from("BENCH_blockage.json");
    let mut ues: u32 = 40;
    let mut densities: Vec<u32> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--workers" => workers = arg(&mut args, "--workers"),
            "--json" => json_path = arg(&mut args, "--json"),
            "--ues" => ues = arg(&mut args, "--ues"),
            other if other.starts_with("--") => usage_error(&format!("unknown flag {other}")),
            other => densities.push(
                other
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad blocker density `{other}`"))),
            ),
        }
    }
    if smoke {
        let (summary, study) = st_bench::blockage_study::smoke(workers);
        exit_if_truncated(&study);
        print!("{summary}");
        if let Err(e) = st_bench::blockage_study::write_bench_json(&json_path, &study, "smoke") {
            eprintln!("warning: could not write {json_path}: {e}");
        }
        return;
    }
    if densities.is_empty() {
        densities = vec![0, 25, 50, 100];
    }
    let r = st_bench::blockage_study::run(&densities, 42, workers, ues)
        .unwrap_or_else(|e| usage_error(&e));
    exit_if_truncated(&r);
    println!("{}", st_bench::blockage_study::render(&r));
    if let Err(e) = st_bench::blockage_study::write_bench_json(&json_path, &r, "sweep") {
        eprintln!("warning: could not write {json_path}: {e}");
    }
    println!("perf artifact: {json_path}");
}
