//! End-to-end contracts of the dynamic-environment subsystem (`st_env`):
//!
//! * a fleet sharing one field of ≥ 50 moving blockers produces
//!   byte-identical aggregates regardless of worker count (the ISSUE 4
//!   acceptance scale point, shrunk to debug-build size);
//! * geometric blockage is *correlated* across UEs and actually bites —
//!   the blocked fleet completes no more handovers-without-drama than the
//!   clear one and its interruption profile differs;
//! * opting out keeps the config untouched (no dynamics, stochastic
//!   blockage still armed);
//! * the outcomes of a small blocked fleet and of the same fleet without
//!   blockers are pinned, so a faster occlusion pass or channel kernel
//!   cannot silently change what is simulated;
//! * each shard places the blocker field once per instant, not once per
//!   measured link, and its exact-test count is worker-invariant.

use silent_tracker_repro::silent_tracker::wire::Fnv64;
use silent_tracker_repro::st_env::BlockerPopulation;
use silent_tracker_repro::st_fleet::{
    run_fleet_with_workers, Deployment, FleetConfig, MobilityKind,
};
use silent_tracker_repro::st_net::ProtocolKind;

fn blocked_fleet_seeds(seed: u64, blocker_seed: u64, blockers: u32) -> FleetConfig {
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(10, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(4, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .blockers(
            BlockerPopulation::new(blocker_seed)
                .crowd(blockers.saturating_sub(6))
                .vehicles(4)
                .buses(2),
        )
        .duration_secs(0.8)
        .seed(seed)
        .shards(4)
        .build()
        .unwrap()
}

fn blocked_fleet(seed: u64, blockers: u32) -> FleetConfig {
    blocked_fleet_seeds(seed, seed, blockers)
}

#[test]
fn occluded_fleet_is_byte_identical_across_worker_counts() {
    let cfg = blocked_fleet(13, 56);
    assert_eq!(
        cfg.base
            .dynamics
            .as_ref()
            .expect("blockers opt-in builds dynamics")
            .blocker_count(),
        56
    );
    // Geometric blockage replaces the stochastic duty cycle.
    assert_eq!(cfg.base.channel.blockage_rate_hz, 0.0);
    let one = run_fleet_with_workers(&cfg, 1).summary();
    let two = run_fleet_with_workers(&cfg, 2).summary();
    let many = run_fleet_with_workers(&cfg, 8).summary();
    assert_eq!(one, two);
    assert_eq!(one, many);
    assert!(one.contains("ues=14"), "{one}");
}

#[test]
fn blocker_field_changes_outcomes_but_not_the_clear_baseline() {
    // The same deployment without blockers: config carries no dynamics
    // and keeps the stochastic blockage defaults — the opt-out contract.
    let clear = Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(4)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(10, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(4, MobilityKind::Vehicular, ProtocolKind::Reactive)
        .duration_secs(0.8)
        .seed(13)
        .shards(4)
        .build()
        .unwrap();
    assert!(clear.base.dynamics.is_none());
    assert!(clear.base.channel.blockage_rate_hz > 0.0);

    let clear_out = run_fleet_with_workers(&clear, 4).summary();
    let blocked_out = run_fleet_with_workers(&blocked_fleet(13, 56), 4).summary();
    // A 56-obstacle street is a different radio world: the aggregates
    // must diverge (if they do not, the occlusion pass never ran).
    assert_ne!(clear_out, blocked_out);
}

#[test]
fn blocker_trajectories_alone_change_outcomes() {
    // Identical fleet seed (identical UEs, channels, RACH draws) — only
    // the blocker trajectories differ. Divergence here can come from one
    // place only: the occlusion pass in the measurement hot path.
    let a = run_fleet_with_workers(&blocked_fleet_seeds(21, 100, 50), 4).summary();
    let b = run_fleet_with_workers(&blocked_fleet_seeds(21, 101, 50), 4).summary();
    assert_ne!(a, b);
}

/// Both arms (20 silent and 20 reactive walkers) on the two-cell street,
/// in 2 shards, without moving blockers.
fn pinned_deployment() -> Deployment {
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(8)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(20, MobilityKind::Walk, ProtocolKind::SilentTracker)
        .population(20, MobilityKind::Walk, ProtocolKind::Reactive)
        .exact_contention(true)
        .duration_secs(2.0)
        .seed(42)
        .shards(2)
}

/// [`pinned_deployment`] with 20 moving blockers.
fn pinned_fleet() -> FleetConfig {
    pinned_deployment()
        .blockers(BlockerPopulation::new(42).crowd(14).vehicles(4).buses(2))
        .build()
        .unwrap()
}

#[test]
fn blocked_fleet_summary_is_pinned() {
    let summary = run_fleet_with_workers(&pinned_fleet(), 2).summary();
    let mut h = Fnv64::new();
    h.write(summary.as_bytes());
    assert_eq!(h.finish(), PINNED_SUMMARY_FNV, "{summary}");
}

/// FNV-1a 64 of [`pinned_fleet`]'s summary. It is the value the earlier
/// time-bucket cull produced, which the per-instant frame reproduces;
/// a change to the occlusion pass that moves it changes outcomes.
const PINNED_SUMMARY_FNV: u64 = 0x539f_133b_13b8_9722;

#[test]
fn clear_fleet_summary_is_pinned() {
    let cfg = pinned_deployment().build().unwrap();
    assert!(cfg.base.dynamics.is_none());
    let summary = run_fleet_with_workers(&cfg, 2).summary();
    let mut h = Fnv64::new();
    h.write(summary.as_bytes());
    assert_eq!(h.finish(), PINNED_CLEAR_SUMMARY_FNV, "{summary}");
}

/// FNV-1a 64 of the blocker-free [`pinned_deployment`]'s summary: every
/// measurement goes through the phy path alone (link stepping, tracing,
/// beam sweeps), so a faster channel kernel that moves it changes
/// outcomes.
const PINNED_CLEAR_SUMMARY_FNV: u64 = 0x3287_e9d7_238a_abb8;

#[test]
fn shards_place_each_instant_once() {
    let cfg = pinned_fleet();
    let one = run_fleet_with_workers(&cfg, 1);
    let four = run_fleet_with_workers(&cfg, 4);
    let counters = |out: &silent_tracker_repro::st_fleet::FleetOutcome| {
        let c = &out.profile().counters;
        (
            c.get("env.occlusions"),
            c.get("env.blockers_placed"),
            c.get("env.leg_tests"),
        )
    };
    let (occlusions, placed, leg_tests) = counters(&one);
    assert_eq!((occlusions, placed, leg_tests), counters(&four));
    // Every traced snapshot runs the occlusion pass once.
    assert_eq!(occlusions, one.profile().counters.get("phy.traces_cast"));
    // A frame serves every UE of its shard measured at that instant:
    // blockers placed per occlusion stays far below the blocker count a
    // per-link placement would cost.
    let blockers = cfg.base.dynamics.as_ref().unwrap().blocker_count() as f64;
    let per_occlusion = placed as f64 / occlusions as f64;
    assert!(
        per_occlusion < blockers / 10.0,
        "{placed} placed over {occlusions} occlusions ({per_occlusion:.2})"
    );
    // The per-leg search runs the exact test on far fewer pairs than
    // every (blocker, leg) of every ray, yet on some: blockers do cross
    // the links.
    assert!(leg_tests > 0);
    assert!(
        (leg_tests as f64) < blockers * occlusions as f64,
        "{leg_tests} exact tests over {occlusions} occlusions"
    );
}
