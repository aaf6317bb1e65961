//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <street-1k|gapped-10k|blockage-dense|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--workers N] [--scale F]
//! ```
//!
//! Untraced (`--trace 0`) a run measures the end-to-end metrics of one
//! workload: simulated UE-seconds per reference second of whole fleet
//! passes (CPU time scaled by the host's momentary speed, see
//! `calib.rs`; per wall- and per CPU-second are printed beside it),
//! set-up time, peak RSS and trace-replay throughput. Traced
//! (`--trace 1`) it reports per-layer work counts and cost estimates
//! instead. Every fleet run and replay is checked; the last stdout line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--workload all` runs the three workloads in one process
//! and prefixes each metric with its workload name.

mod calib;
mod layers;
mod live;
mod probes;
mod report;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use calib::RefClock;
use report::Metric;
use workloads::{Spec, Workload};

const USAGE: &str = "usage: perfbench --workload <street-1k|gapped-10k|blockage-dense|all> \
[--seed N] [--seconds S] [--trace 0|1] [--workers N] [--scale F]";

/// Replay refold time after each live pass, as a share of the pass's.
const REPLAY_PER_PASS: f64 = 0.3;
/// Minimum live passes per run, whatever the budget.
const MIN_PASSES: usize = 3;
/// Minimum refold batches per run, whatever the budget.
const MIN_REFOLD_BATCHES: usize = 5;
/// Set-up measurements after each live pass, and the minimum per run.
const SETUPS_PER_PASS: usize = 2;
const MIN_SETUPS: usize = 7;

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    scale: f64,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        // One worker: its CPU time does not depend on how the host
        // places the process's vCPUs, which two busy workers' does.
        workers: 1,
        scale: 1.0,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workloads = match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name).ok_or_else(|| bad("unknown workload"))?],
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 3600]"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--workers" => {
                args.workers = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=nproc).contains(n))
                    .ok_or_else(|| bad(&format!("expected 1..={nproc} (nproc)")))?;
            }
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| bad("expected a factor in (0, 1]"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let multi = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        if multi && !live::reset_peak_rss() {
            eprintln!("perfbench: cannot reset the peak-RSS mark; peaks accumulate");
        }
        let (checks, ms) = run_workload(w, &args);
        attempted += checks.attempted;
        failed += checks.failed;
        metrics.extend(ms.into_iter().map(|mut m| {
            if multi {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            m
        }));
    }
    let correct = attempted > 0 && failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure one workload; prints its human-readable block.
fn run_workload(w: Workload, args: &Args) -> (live::Checks, Vec<Metric>) {
    let spec = Spec {
        seed: args.seed,
        scale: args.scale,
    };
    let arms = live::arms(w, spec, false);
    let config_digest = report::fnv(
        &arms
            .iter()
            .map(|a| format!("{:?}", a.cfg))
            .collect::<Vec<_>>(),
    );
    println!(
        "== {} (seed {}, {} workers, {} s, trace {}) ==",
        w.name(),
        args.seed,
        args.workers,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{}",
        report::manifest(
            w.name(),
            args.seed,
            args.workers,
            args.scale,
            args.trace,
            config_digest
        )
    );
    let mut checks = live::Checks::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let metrics = if args.trace {
        traced(w, spec, &arms, args.workers, budget, &mut checks)
    } else {
        untraced(w, spec, &arms, args.workers, budget, &mut checks)
    };
    let digests: Vec<String> = arms
        .iter()
        .map(|a| match checks.digest(&a.key) {
            Some(d) => format!("{}={d:#018x}", a.key),
            None => format!("{}=none", a.key),
        })
        .collect();
    println!("sim_digest {}", digests.join(" "));
    for f in &checks.failures {
        println!("FAILED {f}");
    }
    println!(
        "failed_frac {} ({} of {} runs failed a check)",
        if checks.attempted == 0 {
            1.0
        } else {
            checks.failed as f64 / checks.attempted as f64
        },
        checks.failed,
        checks.attempted
    );
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    (checks, metrics)
}

/// Print the median and range of `v`; returns the median.
fn summarize(name: &str, unit: &str, v: &mut [f64]) -> f64 {
    let med = live::median(v);
    let (lo, hi) = (v.first().copied(), v.last().copied());
    println!(
        "{name}: median {med:.3} {unit} over {} reps (min {:.3}, max {:.3})",
        v.len(),
        lo.unwrap_or(f64::NAN),
        hi.unwrap_or(f64::NAN)
    );
    med
}

/// Record one pass of the recorded arms; returns its wall seconds and
/// the traces.
fn record(
    checks: &mut live::Checks,
    w: Workload,
    spec: Spec,
    workers: usize,
    clock: &mut RefClock,
) -> Option<(f64, Vec<st_net::RunTrace>)> {
    let arms = live::arms(w, spec, true);
    let mut pass = live::pass(checks, &arms, workers, clock)?;
    let traces = pass
        .runs
        .iter_mut()
        .zip(&arms)
        .map(|((out, wall), arm)| {
            live::take_trace(&format!("{}-{}", w.name(), arm.key), &arm.cfg, out, *wall)
        })
        .collect();
    Some((pass.wall_s, traces))
}

fn untraced(
    w: Workload,
    spec: Spec,
    arms: &[live::Arm],
    workers: usize,
    budget: Duration,
    checks: &mut live::Checks,
) -> Vec<Metric> {
    let mut clock = RefClock::new();
    // Warm pass, recorded: the first pass reads slower (cold caches,
    // first-touch allocation) and is not timed; its traces feed the
    // replay refolds, and it goes through every check.
    let traces = record(checks, w, spec, workers, &mut clock).map_or_else(Vec::new, |(_, t)| t);
    // Peak memory of that one recorded run in a fresh process. Read later,
    // it would include allocator-arena growth from repeated runs, which
    // depends on how many the host's speed allowed and jumps by MiBs at
    // moments that vary between runs.
    let peak_rss_mb = live::peak_rss_mb().unwrap_or(f64::NAN);
    // Set-up measurements and a batch of refolds follow every pass, so
    // all three are sampled over the whole run and a stretch of host
    // contention cannot land on one of them alone.
    let (mut setups, mut batches) = (Vec::new(), Vec::new());
    let passes = live::passes(
        checks,
        arms,
        workers,
        &mut clock,
        budget,
        MIN_PASSES,
        false,
        |c, clock, pass_s| {
            for _ in 0..SETUPS_PER_PASS {
                setups.push(live::setup_rep(c, w, spec, workers, clock));
            }
            let replay_budget = Duration::from_secs_f64(pass_s * REPLAY_PER_PASS);
            let reps = live::refolds(c, &traces, workers, replay_budget, 1);
            batches.extend(live::refold_batch(&reps, clock));
        },
    );
    while setups.len() < MIN_SETUPS {
        setups.push(live::setup_rep(checks, w, spec, workers, &mut clock));
    }
    while batches.len() < MIN_REFOLD_BATCHES {
        let reps = live::refolds(checks, &traces, workers, Duration::ZERO, 1);
        match live::refold_batch(&reps, &mut clock) {
            Some(b) => batches.push(b),
            None => break,
        }
    }
    let mut setup_wall: Vec<f64> = setups.iter().map(|s| s.0).collect();
    summarize("setup wall", "s", &mut setup_wall);
    let mut setup_ref: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let setup_s = summarize("setup_s", "ref_s", &mut setup_ref);
    let mut per_wall: Vec<f64> = passes.iter().map(live::Pass::ue_s_per_wall_s).collect();
    summarize("ue_s_per_wall_s", "ue_s/s", &mut per_wall);
    let mut per_cpu: Vec<f64> = passes.iter().map(live::Pass::ue_s_per_cpu_s).collect();
    summarize("ue_s_per_cpu_s", "ue_s/cpu_s", &mut per_cpu);
    let mut per_ref: Vec<f64> = passes.iter().map(live::Pass::ue_s_per_ref_s).collect();
    let ue_s_per_ref_s = summarize("ue_s_per_ref_s", "ue_s/ref_s", &mut per_ref);
    let mut replay_wall: Vec<f64> = batches.iter().map(|r| r.ue_s / r.wall_s).collect();
    summarize("replay_ue_s_per_wall_s", "ue_s/s", &mut replay_wall);
    let mut replay_cpu: Vec<f64> = batches.iter().map(|r| r.ue_s / r.cpu_s).collect();
    summarize("replay_ue_s_per_cpu_s", "ue_s/cpu_s", &mut replay_cpu);
    let mut replay_ref: Vec<f64> = batches.iter().map(|r| r.ue_s / r.ref_s).collect();
    let replay_ue_s_per_ref_s = summarize("replay_ue_s_per_ref_s", "ue_s/ref_s", &mut replay_ref);
    summarize("reference loop", "iter/cpu_s", &mut clock.rates);
    vec![
        Metric::new("ue_s_per_ref_s", "ue_s/ref_s", ue_s_per_ref_s),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        Metric::new("replay_ue_s_per_ref_s", "ue_s/ref_s", replay_ue_s_per_ref_s),
    ]
}

fn traced(
    w: Workload,
    spec: Spec,
    arms: &[live::Arm],
    workers: usize,
    budget: Duration,
    checks: &mut live::Checks,
) -> Vec<Metric> {
    let mut clock = RefClock::new();
    live::pass(checks, arms, workers, &mut clock);
    let mut passes = live::passes(
        checks,
        arms,
        workers,
        &mut clock,
        budget.mul_f64(0.3),
        2,
        true,
        |_, _, _| {},
    );
    let mut per_wall: Vec<f64> = passes.iter().map(live::Pass::ue_s_per_wall_s).collect();
    let ue_s_per_wall_s = summarize("trace.ue_s_per_wall_s", "ue_s/s", &mut per_wall);
    let mut per_ref: Vec<f64> = passes.iter().map(live::Pass::ue_s_per_ref_s).collect();
    let ue_s_per_ref_s = summarize("trace.ue_s_per_ref_s", "ue_s/ref_s", &mut per_ref);
    passes.sort_by(|a, b| a.ue_s_per_wall_s().total_cmp(&b.ue_s_per_wall_s()));
    let recorded = record(checks, w, spec, workers, &mut clock);
    // The protocol fold's cost per event: single-worker refolds.
    let traces = recorded.as_ref().map_or(&[][..], |(_, t)| t.as_slice());
    let mut refolds = live::refolds(checks, traces, 1, budget.mul_f64(0.1), 3);
    refolds.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    // Worker invariance: a 1-worker run must reproduce the digests.
    for arm in arms {
        checks.run(&arm.key, &arm.cfg, 1);
    }
    let (Some(pass), Some((recorded_wall_s, _)), Some(&refold)) = (
        passes.get(passes.len() / 2),
        recorded.as_ref(),
        refolds.get(refolds.len() / 2),
    ) else {
        checks.record(false, || {
            "traced run incomplete: no per-layer metrics".into()
        });
        return Vec::new();
    };
    layers::per_layer(&layers::Traced {
        arms,
        pass,
        ue_s_per_wall_s,
        ue_s_per_ref_s,
        recorded_wall_s: *recorded_wall_s,
        refold,
        workers,
        seed: spec.seed,
        probe_budget: budget.mul_f64(0.05),
    })
}
