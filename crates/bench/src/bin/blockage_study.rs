//! Blocker-density sweep: silent vs reactive under moving geometric
//! blockers. Usage:
//! `blockage_study [--smoke] [--workers N] [--json PATH] [--ues N] [DENSITIES...]`
//!
//! `--smoke` runs the small fixed CI sweep (deterministic summary on
//! stdout); otherwise the positional arguments are blocker densities
//! (default 0 25 50 100). Either mode writes the `BENCH_blockage.json`
//! artifact to `--json PATH`. Exits with code 1, printing no metrics,
//! when any fleet ran out of its event budget.

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
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers N");
            }
            "--json" => {
                json_path = args.next().expect("--json PATH");
            }
            "--ues" => {
                ues = args.next().and_then(|v| v.parse().ok()).expect("--ues N");
            }
            other => densities.push(other.parse().expect("blocker density")),
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
    let r = st_bench::blockage_study::run(&densities, 42, workers, ues);
    exit_if_truncated(&r);
    println!("{}", st_bench::blockage_study::render(&r));
    if let Err(e) = st_bench::blockage_study::write_bench_json(&json_path, &r, "sweep") {
        eprintln!("warning: could not write {json_path}: {e}");
    }
    println!("perf artifact: {json_path}");
}
