//! Fleet-scale PRACH load sweep: soft vs hard handover under contention.
//! Usage: `fleet_load [--smoke] [--exact-contention] [--workers N] [--json PATH]
//!                    [--snapshot-s S] [--timeline PATH] [--explain-top N]
//!                    [--causes PATH] [--record PATH | --replay PATH]
//!                    [--ues N]... [--compare-ues N]... [--round-robin]
//!                    [--interest-radius M] [POPULATIONS...]`
//!
//! `--smoke` prints the deterministic aggregate summary of a small fixed
//! fleet (CI compares two invocations byte-for-byte); otherwise the
//! positional arguments are population sizes (default 100 300 1000).
//! `--exact-contention` routes all RACH traffic through the shared
//! cross-shard responder stage (exact global contention; the summary is
//! then byte-identical across shard counts as well as worker counts).
//!
//! `--record PATH` arms per-UE protocol trace recording, saves the
//! recorded [`st_net::FleetTrace`] to PATH, then immediately replays it
//! in-process so the replay UE-seconds-per-wall-second lands in the table
//! and the perf artifact next to the live number. `--replay PATH` skips
//! the live run entirely and refolds a previously recorded trace (see
//! also the dedicated `replay_eval` binary).
//!
//! Either mode also writes the `BENCH_fleet.json` perf artifact (per-run
//! wall-clock, UE-seconds simulated per wall-second, contention mode and
//! barrier overhead, the run-profiler counters/wall spans, plus the
//! recorded pre-refactor baseline) to `--json PATH` (default
//! `BENCH_fleet.json`); the artifact goes to a file so the smoke stdout
//! stays byte-comparable.
//!
//! `--snapshot-s S` arms the streaming telemetry timeline: each fleet
//! pushes a constant-memory snapshot slice every S simulated seconds,
//! and the merged per-interval series is written to `--timeline PATH`
//! (default `BENCH_fleet_timeline.json`). The timeline file contains no
//! wall-clock values, so CI `cmp`s it byte-for-byte across worker
//! counts. Arming snapshots does not change the smoke summary bytes.
//!
//! `--explain-top N` prints the N worst interruptions of each arm with
//! their full causal phase breakdowns (the same formatter the `autopsy`
//! tool uses) right after the summary/table. `--causes PATH` writes the
//! per-cause attribution artifact (cause-keyed quantile ledgers plus the
//! worst-k exemplars; no wall-clock values, so CI `cmp`s it across
//! worker counts).
//!
//! `--ues N` (repeatable) runs the gapped-cluster *scale* deployment at
//! population N under geographic tile sharding with a 150 m interest
//! radius (`--interest-radius M` overrides; `0` keeps the full link
//! set; `--round-robin` switches the assignment strategy — the A/B for
//! the interest-management profiler deltas). `--compare-ues N`
//! (repeatable) adds the round-robin/full-link-set twin of point N, so
//! one invocation writes both sides of the comparison into the perf
//! artifact. Scale arms print their deterministic aggregate summaries
//! to stdout (no wall-clock), so CI byte-compares two worker counts the
//! same way it compares `--smoke` runs.
//!
//! Live runs exit with code 1, printing no metrics, when any fleet ran
//! out of its event budget. A bad flag value or a configuration that
//! fails validation (say, a population of 0) exits with code 2.

use st_bench::flag_value;

const USAGE: &str = "fleet_load [--smoke] [--exact-contention] [--workers N] [--json PATH] \
[--snapshot-s S] [--timeline PATH] [--explain-top N] [--causes PATH] \
[--record PATH | --replay PATH] [--ues N]... [--compare-ues N]... [--round-robin] \
[--interest-radius M] [POPULATIONS...]";

/// Print the error and the usage, and exit with code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: {USAGE}");
    std::process::exit(2)
}

/// The value after `flag`, or a usage error.
fn arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    flag_value(args, flag).unwrap_or_else(|e| usage_error(&e))
}

fn exit_if_truncated(load: &st_bench::fleet_load::FleetLoad) {
    if let Err(e) = load.check_budgets() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut smoke = false;
    let mut exact = false;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut json_path = String::from("BENCH_fleet.json");
    let mut timeline_path = String::from("BENCH_fleet_timeline.json");
    let mut snapshot_s: Option<f64> = None;
    let mut record_path: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut explain_top: usize = 0;
    let mut causes_path: Option<String> = None;
    let mut populations: Vec<u64> = Vec::new();
    let mut scale_ues: Vec<u64> = Vec::new();
    let mut compare_ues: Vec<u64> = Vec::new();
    let mut round_robin = false;
    let mut interest_radius: Option<f64> = Some(150.0);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--exact-contention" => exact = true,
            "--ues" => scale_ues.push(arg(&mut args, "--ues")),
            "--compare-ues" => compare_ues.push(arg(&mut args, "--compare-ues")),
            "--round-robin" => round_robin = true,
            "--interest-radius" => {
                // Metres; 0 disables.
                let m: f64 = arg(&mut args, "--interest-radius");
                interest_radius = (m > 0.0).then_some(m);
            }
            "--workers" => workers = arg(&mut args, "--workers"),
            "--json" => json_path = arg(&mut args, "--json"),
            "--timeline" => timeline_path = arg(&mut args, "--timeline"),
            "--snapshot-s" => {
                let s: f64 = arg(&mut args, "--snapshot-s");
                if !(s > 0.0 && s.is_finite()) {
                    usage_error(&format!("--snapshot-s needs seconds > 0, got {s}"));
                }
                snapshot_s = Some(s);
            }
            "--record" => record_path = Some(arg(&mut args, "--record")),
            "--replay" => replay_path = Some(arg(&mut args, "--replay")),
            "--explain-top" => explain_top = arg(&mut args, "--explain-top"),
            "--causes" => causes_path = Some(arg(&mut args, "--causes")),
            other if other.starts_with("--") => usage_error(&format!("unknown flag {other}")),
            other => populations.push(
                other
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("bad population size `{other}`"))),
            ),
        }
    }

    if let Some(path) = replay_path {
        let trace = st_net::FleetTrace::load(std::path::Path::new(&path)).unwrap_or_else(|e| {
            eprintln!("error: could not load trace {path}: {e}");
            std::process::exit(1)
        });
        let mut failed = false;
        for run in &trace.runs {
            let (rep, wall_s) = st_net::replay_run_timed(run, workers, 3);
            println!(
                "replay {}: {} ues, {} events, {:.1} ms wall, {:.0} ue_s/wall_s \
                 ({:.0}x live), verified={}",
                rep.label,
                rep.ues,
                rep.events,
                wall_s * 1e3,
                rep.ue_seconds / wall_s,
                rep.live_wall_s / wall_s,
                rep.mismatches.is_empty(),
            );
            for m in &rep.mismatches {
                eprintln!("  mismatch: {m}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    let record = record_path.is_some();
    let mode_label = |base: &str| {
        if exact {
            format!("{base}-exact")
        } else {
            base.to_string()
        }
    };
    let save_trace = |load: &st_bench::fleet_load::FleetLoad| {
        if let Some(path) = &record_path {
            let trace = st_net::FleetTrace {
                runs: load.arms.iter().filter_map(|a| a.trace.clone()).collect(),
            };
            match trace.save(std::path::Path::new(path)) {
                Ok(()) => eprintln!("trace artifact: {path}"),
                Err(e) => eprintln!("warning: could not write trace {path}: {e}"),
            }
        }
    };
    let save_causes = |load: &st_bench::fleet_load::FleetLoad| {
        if let Some(path) = &causes_path {
            match st_bench::fleet_load::write_causes_json(path, load) {
                Ok(()) => eprintln!("causes artifact: {path}"),
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
    };
    let save_timeline = |load: &st_bench::fleet_load::FleetLoad| {
        if snapshot_s.is_none() {
            return;
        }
        match st_bench::fleet_load::write_timeline_json(&timeline_path, load) {
            Ok(true) => eprintln!("timeline artifact: {timeline_path}"),
            Ok(false) => eprintln!("warning: snapshots armed but no timeline survived the merge"),
            Err(e) => eprintln!("warning: could not write {timeline_path}: {e}"),
        }
    };
    if smoke {
        let (summary, mut load) =
            st_bench::fleet_load::smoke_timed_obs(workers, exact, record, snapshot_s)
                .unwrap_or_else(|e| usage_error(&e));
        exit_if_truncated(&load);
        print!("{summary}");
        if explain_top > 0 {
            print!("{}", st_bench::fleet_load::explain_top(&load, explain_top));
        }
        save_trace(&load);
        save_timeline(&load);
        save_causes(&load);
        if record {
            load.replay = st_bench::fleet_load::replay_arms(&load, workers);
        }
        if let Err(e) =
            st_bench::fleet_load::write_bench_json(&json_path, &load, &mode_label("smoke"))
        {
            eprintln!("warning: could not write {json_path}: {e}");
        }
        return;
    }
    let scale_mode = !scale_ues.is_empty() || !compare_ues.is_empty();
    if populations.is_empty() && !scale_mode {
        populations = vec![100, 300, 1000];
    }
    let mut r = if populations.is_empty() {
        st_bench::fleet_load::FleetLoad {
            arms: Vec::new(),
            replay: Vec::new(),
        }
    } else {
        st_bench::fleet_load::run_obs(&populations, 42, workers, exact, record, snapshot_s)
            .unwrap_or_else(|e| usage_error(&e))
    };
    // Scale arms. The `--compare-ues` twins (round-robin, full link set
    // — the pre-interest-management execution) run first so each
    // baseline row sits above its tiles counterpart in the artifact.
    let scale_point = |ues, strategy, radius| {
        st_bench::fleet_load::run_scale_point(ues, strategy, radius, exact, workers, 42)
            .unwrap_or_else(|e| usage_error(&e))
    };
    for &ues in &compare_ues {
        r.arms
            .push(scale_point(ues, st_fleet::ShardStrategy::RoundRobin, None));
    }
    let strategy = if round_robin {
        st_fleet::ShardStrategy::RoundRobin
    } else {
        st_fleet::ShardStrategy::Tiles
    };
    for &ues in &scale_ues {
        r.arms.push(scale_point(ues, strategy, interest_radius));
    }
    exit_if_truncated(&r);
    save_trace(&r);
    save_timeline(&r);
    save_causes(&r);
    if record {
        r.replay = st_bench::fleet_load::replay_arms(&r, workers);
    }
    if populations.is_empty() {
        // Scale-only invocation: deterministic aggregate summaries only
        // (no wall-clock on stdout), so CI can `cmp` worker counts.
        for a in &r.arms {
            print!("{}", a.outcome.summary());
        }
    } else {
        println!("{}", st_bench::fleet_load::render(&r));
    }
    if explain_top > 0 {
        print!("{}", st_bench::fleet_load::explain_top(&r, explain_top));
    }
    let mode = if populations.is_empty() {
        mode_label("scale")
    } else {
        mode_label("sweep")
    };
    if let Err(e) = st_bench::fleet_load::write_bench_json(&json_path, &r, &mode) {
        eprintln!("warning: could not write {json_path}: {e}");
    }
    if !populations.is_empty() {
        println!("perf artifact: {json_path}");
    } else {
        eprintln!("perf artifact: {json_path}");
    }
}
