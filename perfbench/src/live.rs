//! Live fleet runs: timed passes, the set-up probe, replay refolds, peak
//! memory, and the correctness checks every run goes through.

use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use silent_tracker::wire::Fnv64;
use st_fleet::{run_fleet_with_workers, FleetConfig, FleetOutcome};
use st_net::{replay_run, RunTrace};

use crate::calib::RefClock;
use crate::workloads::{arm_label, Spec, Workload};

/// Simulated horizon of the set-up run: shard construction plus initial
/// attach, with next to no simulation after it.
const SETUP_HORIZON_S: f64 = 0.001;

/// Correctness bookkeeping: every fleet run and every replay is one
/// attempt, and an attempt fails when any check on it fails.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First `sim_digest` seen per run key; later repetitions must match.
    digests: BTreeMap<String, u64>,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one attempt; returns `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    pub fn digest(&self, key: &str) -> Option<u64> {
        self.digests.get(key).copied()
    }

    /// Run one fleet arm on `workers` threads and check it: no panic, no
    /// shard out of event budget, the configured population, exact
    /// contention, and the same `sim_digest` as every earlier run under
    /// `key` (whatever its worker count or recording flag). Returns the
    /// outcome and the run's wall seconds when every check passed.
    pub fn run(
        &mut self,
        key: &str,
        cfg: &FleetConfig,
        workers: usize,
    ) -> Option<(FleetOutcome, f64)> {
        let start = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| run_fleet_with_workers(cfg, workers)));
        let wall_s = start.elapsed().as_secs_f64();
        let problem = match &res {
            Err(_) => Some("panicked".to_string()),
            Ok(out) => self.problem(key, cfg, out),
        };
        let ok = self.record(problem.is_none(), || {
            format!("{key}: {}", problem.unwrap_or_default())
        });
        match res {
            Ok(out) if ok => Some((out, wall_s)),
            _ => None,
        }
    }

    fn problem(&mut self, key: &str, cfg: &FleetConfig, out: &FleetOutcome) -> Option<String> {
        let t = &out.totals;
        if t.budget_exhausted_shards > 0 {
            return Some(format!(
                "{} shards exhausted their event budget",
                t.budget_exhausted_shards
            ));
        }
        if t.ues != cfg.n_ues() {
            return Some(format!(
                "simulated {} UEs, configured {}",
                t.ues,
                cfg.n_ues()
            ));
        }
        if !out.exact_contention || out.stage.is_none() {
            return Some("did not run under exact contention".into());
        }
        let d = sim_digest(out);
        let first = *self.digests.entry(key.to_string()).or_insert(d);
        (first != d).then(|| format!("sim_digest {d:#018x} differs from earlier {first:#018x}"))
    }
}

/// FNV-1a of the outcome's deterministic summary.
pub fn sim_digest(out: &FleetOutcome) -> u64 {
    let mut h = Fnv64::new();
    h.write(out.summary().as_bytes());
    h.finish()
}

/// One deployment arm, built once per benchmark run.
#[derive(Debug)]
pub struct Arm {
    /// Digest key: the arm label, shared by every run of this arm.
    pub key: String,
    pub cfg: FleetConfig,
}

pub fn arms(w: Workload, spec: Spec, record: bool) -> Vec<Arm> {
    w.arms()
        .iter()
        .map(|&p| Arm {
            key: arm_label(p).to_string(),
            cfg: w.config(p, spec, None, record),
        })
        .collect()
}

/// UE-seconds of simulated time one run of `cfg` covers.
pub fn ue_seconds(cfg: &FleetConfig) -> f64 {
    cfg.n_ues() as f64 * cfg.base.duration.as_secs_f64()
}

/// One pass: every arm of the workload, run back to back.
#[derive(Debug)]
pub struct Pass {
    /// Per arm: the outcome and its wall seconds.
    pub runs: Vec<(FleetOutcome, f64)>,
    pub wall_s: f64,
    /// CPU seconds all threads of this process spent in the pass.
    pub cpu_s: f64,
    /// The same CPU time in reference seconds, arm by arm.
    pub ref_s: f64,
    pub ue_s: f64,
}

impl Pass {
    pub fn ue_s_per_wall_s(&self) -> f64 {
        self.ue_s / self.wall_s
    }

    pub fn ue_s_per_cpu_s(&self) -> f64 {
        self.ue_s / self.cpu_s
    }

    pub fn ue_s_per_ref_s(&self) -> f64 {
        self.ue_s / self.ref_s
    }
}

/// Run every arm once, each between two reference slices. `None` when
/// any arm failed its checks.
pub fn pass(
    checks: &mut Checks,
    arms: &[Arm],
    workers: usize,
    clock: &mut RefClock,
) -> Option<Pass> {
    let mut runs = Vec::with_capacity(arms.len());
    let (mut cpu_s, mut ref_s) = (0.0, 0.0);
    for arm in arms {
        let cpu0 = process_cpu_s();
        let run = checks.run(&arm.key, &arm.cfg, workers);
        let cpu = process_cpu_s() - cpu0;
        cpu_s += cpu;
        ref_s += clock.ref_s(cpu);
        runs.push(run?);
    }
    Some(Pass {
        wall_s: runs.iter().map(|(_, w)| w).sum(),
        cpu_s,
        ref_s,
        ue_s: arms.iter().map(|a| ue_seconds(&a.cfg)).sum(),
        runs,
    })
}

/// Repeat passes until `budget` has elapsed and at least `min` passes
/// succeeded, calling `between` with the attempt's wall seconds after
/// each attempt (its time counts against the budget). Gives up after
/// `min` attempts if none succeeded. Unless `keep_outcomes`, each pass's
/// outcomes are dropped as it ends, so the benchmark's own bookkeeping
/// does not grow the peak RSS it reports.
#[allow(clippy::too_many_arguments)]
pub fn passes(
    checks: &mut Checks,
    arms: &[Arm],
    workers: usize,
    clock: &mut RefClock,
    budget: Duration,
    min: usize,
    keep_outcomes: bool,
    mut between: impl FnMut(&mut Checks, &mut RefClock, f64),
) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut tries = 0;
    while start.elapsed() < budget || out.len() < min {
        tries += 1;
        let t = Instant::now();
        if let Some(mut p) = pass(checks, arms, workers, clock) {
            if !keep_outcomes {
                p.runs.clear();
            }
            out.push(p);
        }
        between(checks, clock, t.elapsed().as_secs_f64());
        if out.is_empty() && tries >= min {
            break;
        }
    }
    out
}

/// One set-up measurement: building the same deployment and running it
/// for 1 ms of simulated time, every arm. Returns its host wall seconds
/// and its CPU time in reference seconds.
pub fn setup_rep(
    checks: &mut Checks,
    w: Workload,
    spec: Spec,
    workers: usize,
    clock: &mut RefClock,
) -> (f64, f64) {
    let (t, cpu0) = (Instant::now(), process_cpu_s());
    for &p in w.arms() {
        let cfg = w.config(p, spec, Some(SETUP_HORIZON_S), false);
        checks.run(&format!("{}@setup", arm_label(p)), &cfg, workers);
    }
    let wall_s = t.elapsed().as_secs_f64();
    (wall_s, clock.ref_s(process_cpu_s() - cpu0))
}

/// Package a recorded run's per-UE traces for replay (takes them out of
/// the outcome).
pub fn take_trace(label: &str, cfg: &FleetConfig, out: &mut FleetOutcome, wall_s: f64) -> RunTrace {
    RunTrace {
        label: label.to_string(),
        seed: cfg.base.seed,
        duration: cfg.base.duration,
        live_wall_s: wall_s,
        tracker: cfg.base.tracker,
        codebook: cfg.base.ue_codebook,
        ues: std::mem::take(&mut out.totals.ue_traces),
    }
}

/// One refold of every recorded arm.
#[derive(Debug, Clone, Copy)]
pub struct Refold {
    pub wall_s: f64,
    /// CPU seconds all threads of this process spent in the refold.
    pub cpu_s: f64,
    /// The same CPU time in reference seconds (set on a timed batch).
    pub ref_s: f64,
    /// Fold event records replayed (tick runs count as one).
    pub events: u64,
    pub ue_s: f64,
}

/// Refold every trace with `st_net::replay_run` until `budget` has
/// elapsed and at least `min` refolds are done. Each replay is an attempt
/// that fails unless it verifies byte for byte against the recording.
pub fn refolds(
    checks: &mut Checks,
    traces: &[RunTrace],
    workers: usize,
    budget: Duration,
    min: usize,
) -> Vec<Refold> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut tries = 0;
    while (start.elapsed() < budget || tries < min) && tries < min.max(1) * 10_000 {
        tries += 1;
        let mut rep = Refold {
            wall_s: 0.0,
            cpu_s: 0.0,
            ref_s: 0.0,
            events: 0,
            ue_s: 0.0,
        };
        let mut ok = true;
        for trace in traces {
            let (t, cpu0) = (Instant::now(), process_cpu_s());
            let res = catch_unwind(AssertUnwindSafe(|| replay_run(trace, workers)));
            rep.wall_s += t.elapsed().as_secs_f64();
            rep.cpu_s += process_cpu_s() - cpu0;
            let verified = res.as_ref().is_ok_and(|r| r.mismatches.is_empty());
            ok &= checks.record(verified, || match &res {
                Err(_) => format!("replay {}: panicked", trace.label),
                Ok(r) => format!(
                    "replay {}: not verified ({} mismatches)",
                    trace.label,
                    r.mismatches.len()
                ),
            });
            if let Ok(r) = res {
                rep.events += r.events;
                rep.ue_s += r.ue_seconds;
            }
        }
        if ok {
            out.push(rep);
        }
    }
    out
}

/// Sum `reps`, done back to back since the clock's latest slice, into
/// one batch timed in reference seconds. `None` when `reps` is empty.
pub fn refold_batch(reps: &[Refold], clock: &mut RefClock) -> Option<Refold> {
    let first = *reps.first()?;
    let mut b = reps[1..].iter().fold(first, |mut b, r| {
        b.wall_s += r.wall_s;
        b.cpu_s += r.cpu_s;
        b.events += r.events;
        b.ue_s += r.ue_s;
        b
    });
    b.ref_s = clock.ref_s(b.cpu_s);
    Some(b)
}

/// CPU seconds consumed so far by every thread of this process,
/// including threads that have exited (`CLOCK_PROCESS_CPUTIME_ID`).
/// Time the hypervisor gives other guests (steal) is not in it, so on a
/// shared host it measures this process's work where wall time measures
/// the neighbours' load too.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` has the layout of Linux's `struct timespec` (`time_t`
    // is a C `long` there) and is valid for writes for the whole call;
    // `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the peak-RSS mark to the current RSS, so the next workload of a
/// multi-workload run reports its own peak. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Median of `v` (sorted in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
