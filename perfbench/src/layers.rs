//! Per-layer attribution for traced mode. Work counts come from the live
//! run's deterministic profiler counters (`FleetOutcome::profile()`),
//! the stage report and the per-cell loads; costs per unit come from the
//! probes. Each estimated share is count × ns/unit ÷ `shard.run`.

use std::time::Duration;

use st_fleet::FleetOutcome;

use crate::live::{Arm, Pass, Refold};
use crate::probes;
use crate::report::Metric;

/// Deterministic work and measured wall spans of one pass, summed over
/// its arms.
#[derive(Debug, Default)]
struct Work {
    ue_s: f64,
    traces: u64,
    rays: u64,
    events: u64,
    queue_peak: u64,
    heard: u64,
    rar: u64,
    collisions: u64,
    busy_barriers: u64,
    barrier_passes: u64,
    /// Most contention groups of any arm: the runner gives each group a
    /// thread of its own, whatever the worker count.
    groups: u64,
    migrations: u64,
    shard_run_s: f64,
    merge_s: f64,
    barrier_wait_s: f64,
    wall_s: f64,
}

impl Work {
    fn of(pass: &Pass) -> Work {
        let mut w = Work {
            ue_s: pass.ue_s,
            wall_s: pass.wall_s,
            ..Work::default()
        };
        for (out, _) in &pass.runs {
            let p = out.profile();
            let c = &p.counters;
            w.traces += c.get("phy.traces_cast");
            w.rays += c.get("phy.rays_tested");
            w.events += c.get("des.events_popped");
            w.queue_peak = w.queue_peak.max(c.get("des.event_queue_peak"));
            w.busy_barriers += c.get("stage.busy_barriers");
            w.migrations += c.get("fleet.migrations_in");
            w.shard_run_s += p.span("shard.run").map_or(0.0, |s| s.secs());
            w.merge_s += p.span("fleet.merge").map_or(0.0, |s| s.secs());
            w.groups = w.groups.max(c.get("stage.groups"));
            if let Some(st) = out.stage {
                w.barrier_passes += st.epochs * c.get("stage.groups");
                w.barrier_wait_s += st.barrier_wait_s;
            }
            for cell in &out.totals.per_cell {
                w.heard += cell.responder.preambles_heard;
                w.rar += cell.responder.rar_sent;
                w.collisions += cell.responder.collisions;
            }
        }
        w
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Inputs gathered by the traced run before the probes.
#[derive(Debug)]
pub struct Traced<'a> {
    pub arms: &'a [Arm],
    /// The live pass with the median throughput.
    pub pass: &'a Pass,
    /// Median live throughput of the traced run's passes, per wall- and
    /// per reference second.
    pub ue_s_per_wall_s: f64,
    pub ue_s_per_ref_s: f64,
    /// Wall seconds of the same pass with trace recording armed.
    pub recorded_wall_s: f64,
    /// Median single-worker refold of the recorded arms.
    pub refold: Refold,
    pub workers: usize,
    pub seed: u64,
    /// Time budget of each probe.
    pub probe_budget: Duration,
}

pub fn per_layer(t: &Traced<'_>) -> Vec<Metric> {
    let w = Work::of(t.pass);
    let cfg = &t.arms[0].cfg;
    let run_ns = w.shard_run_s * 1e9;
    let share = |units: f64, ns: f64| ratio(units * ns, run_ns);

    let phy_ns = probes::phy_ns_per_trace(cfg, t.seed, t.probe_budget);
    let env_ns = probes::env_ns_per_occlusion(cfg, t.seed, t.probe_budget);
    // Every trace of a run with a blocker field runs one occlusion pass.
    let occlusions = if env_ns.is_some() { w.traces } else { 0 };
    let env_ns = env_ns.unwrap_or(0.0);
    let fold_ns = ratio(t.refold.wall_s * 1e9, t.refold.events as f64);
    let mac_time_ns: f64 = t
        .pass
        .runs
        .iter()
        .zip(t.arms)
        .map(|((out, _), arm): (&(FleetOutcome, f64), &Arm)| {
            let heard: u64 = out
                .totals
                .per_cell
                .iter()
                .map(|c| c.responder.preambles_heard)
                .sum();
            probes::mac_ns_per_preamble(&arm.cfg, &out.totals.per_cell, t.seed, t.probe_budget)
                .map_or(0.0, |ns| ns * heard as f64)
        })
        .sum();
    let mac_ns = ratio(mac_time_ns, w.heard as f64);
    let des_ns = probes::des_ns_per_event(w.queue_peak, t.seed, t.probe_budget);

    let shares = [
        share(w.traces as f64, phy_ns),
        share(occlusions as f64, env_ns),
        share(t.refold.events as f64, fold_ns),
        share(w.heard as f64, mac_ns),
        share(w.events as f64, des_ns),
    ];
    let threads = (t.workers as u64).max(w.groups);
    let worker_s = w.wall_s * threads as f64;
    let per_ue_s = |n: u64| ratio(n as f64, w.ue_s);
    vec![
        Metric::new("phy.traces_per_ue_s", "1/ue_s", per_ue_s(w.traces)),
        Metric::new(
            "phy.rays_per_trace",
            "rays/trace",
            ratio(w.rays as f64, w.traces as f64),
        ),
        Metric::new("phy.ns_per_trace", "ns", phy_ns),
        Metric::new("phy.share_est", "frac", shares[0]),
        Metric::new("env.occlusions_per_ue_s", "1/ue_s", per_ue_s(occlusions)),
        Metric::new("env.ns_per_occlusion", "ns", env_ns),
        Metric::new("env.share_est", "frac", shares[1]),
        Metric::new(
            "core.fold_events_per_ue_s",
            "1/ue_s",
            ratio(t.refold.events as f64, t.refold.ue_s),
        ),
        Metric::new("core.ns_per_fold_event", "ns", fold_ns),
        Metric::new("core.share_est", "frac", shares[2]),
        Metric::new("mac.preambles_per_ue_s", "1/ue_s", per_ue_s(w.heard)),
        Metric::new(
            "mac.rar_per_preamble",
            "frac",
            ratio(w.rar as f64, w.heard as f64),
        ),
        Metric::new(
            "mac.collision_frac",
            "frac",
            ratio(2.0 * w.collisions as f64, w.heard as f64),
        ),
        Metric::new("mac.ns_per_preamble", "ns", mac_ns),
        Metric::new("mac.share_est", "frac", shares[3]),
        Metric::new("des.events_per_ue_s", "1/ue_s", per_ue_s(w.events)),
        Metric::new("des.queue_peak", "count", w.queue_peak as f64),
        Metric::new("des.ns_per_event", "ns", des_ns),
        Metric::new("des.share_est", "frac", shares[4]),
        Metric::new("fleet.shard_run_s", "s", w.shard_run_s),
        Metric::new(
            "fleet.worker_busy_frac",
            "frac",
            ratio(w.shard_run_s, worker_s),
        ),
        Metric::new(
            "fleet.barrier_wait_frac",
            "frac",
            ratio(w.barrier_wait_s, worker_s),
        ),
        Metric::new(
            "fleet.busy_barrier_frac",
            "frac",
            ratio(w.busy_barriers as f64, w.barrier_passes as f64),
        ),
        Metric::new("fleet.merge_s", "s", w.merge_s),
        Metric::new("fleet.migrations", "count", w.migrations as f64),
        Metric::new(
            "fleet.unattributed_share",
            "frac",
            1.0 - shares.iter().sum::<f64>(),
        ),
        Metric::new(
            "trace.record_overhead_frac",
            "frac",
            ratio(t.recorded_wall_s, t.pass.wall_s) - 1.0,
        ),
        Metric::new("trace.ue_s_per_wall_s", "ue_s/s", t.ue_s_per_wall_s),
        Metric::new("trace.ue_s_per_ref_s", "ue_s/ref_s", t.ue_s_per_ref_s),
    ]
}
