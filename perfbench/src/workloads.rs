//! The three named fleet workloads.
//!
//! Each one stresses a different layer (see `README.md` for the
//! prediction table): `street-1k` the phy trace/sweep path under a single
//! contention group, `gapped-10k` the fleet machinery (tiles, interest
//! sets, per-group barriers, migration, hub-cell skew) and
//! `blockage-dense` the `st_env` occlusion pass. Every workload runs with
//! exact contention, and each deployment sets only the builder knobs it
//! needs, so that engine simplifications which keep the simulated results
//! leave `sim_digest` unchanged.

use st_env::BlockerPopulation;
use st_fleet::{Deployment, FleetConfig, MobilityKind};
use st_net::ProtocolKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Street1k,
    Gapped10k,
    BlockageDense,
}

/// Both protocol arms on a matched seed.
const BOTH_ARMS: [ProtocolKind; 2] = [ProtocolKind::SilentTracker, ProtocolKind::Reactive];
const SILENT_ONLY: [ProtocolKind; 1] = [ProtocolKind::SilentTracker];

/// Inputs every workload is generated from.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub seed: u64,
    /// Population (and blocker-field) multiplier in (0, 1]; 1 is the
    /// benchmark size, the contract tests run smaller.
    pub scale: f64,
}

impl Spec {
    fn scaled(&self, n: u32) -> u32 {
        ((f64::from(n) * self.scale).round() as u32).max(1)
    }
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Street1k,
        Workload::Gapped10k,
        Workload::BlockageDense,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Street1k => "street-1k",
            Workload::Gapped10k => "gapped-10k",
            Workload::BlockageDense => "blockage-dense",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn arms(self) -> &'static [ProtocolKind] {
        match self {
            Workload::Gapped10k => &SILENT_ONLY,
            Workload::Street1k | Workload::BlockageDense => &BOTH_ARMS,
        }
    }

    /// One arm's deployment. `duration_s` overrides the simulated horizon
    /// (the 1 ms set-up run); `record` arms protocol trace recording.
    pub fn config(
        self,
        protocol: ProtocolKind,
        spec: Spec,
        duration_s: Option<f64>,
        record: bool,
    ) -> FleetConfig {
        let d = match self {
            Workload::Street1k => street(protocol, spec),
            Workload::Gapped10k => gapped(spec),
            Workload::BlockageDense => blockage(protocol, spec),
        };
        let d = match duration_s {
            Some(s) => d.duration_secs(s),
            None => d,
        };
        d.seed(spec.seed)
            .exact_contention(true)
            .record_traces(record)
            .build()
            .expect("benchmark deployments are valid")
    }
}

/// Walkers and a 20% vehicular slice, as in `fleet_load`.
fn mixed(d: Deployment, ues: u32, protocol: ProtocolKind) -> Deployment {
    let walkers = ues * 4 / 5;
    d.population(walkers, MobilityKind::Walk, protocol)
        .population(ues - walkers, MobilityKind::Vehicular, protocol)
}

/// `fleet_load`'s 1k point: 4 cells at 100 m on a 400 m canyon, a small
/// preamble pool so contention is dense, 8 round-robin shards that all
/// meet at every PRACH barrier.
fn street(protocol: ProtocolKind, spec: Spec) -> Deployment {
    let d = Deployment::new()
        .street(400.0, 30.0)
        .cell_row(4, 100.0)
        .tx_beams(8)
        .prach_preambles(8);
    mixed(d, spec.scaled(1_000), protocol)
        .duration_secs(2.0)
        .shards(8)
}

/// `fleet_load --ues 10000`'s scale street: two 5-cell blocks 400 m
/// apart, one tile shard per block, a 150 m interest radius and
/// migration epochs every 0.2 s, silent arm only. Cells keep the
/// default 16 transmit beams, as they do there.
fn gapped(spec: Spec) -> Deployment {
    const BLOCKS: usize = 2;
    const PER_BLOCK: usize = 5;
    let block_span = (PER_BLOCK - 1) as f64 * 100.0;
    let pitch = block_span + 400.0;
    let mut d = Deployment::new()
        .street(BLOCKS as f64 * pitch, 30.0)
        .prach_preambles(8);
    let x0 = -((BLOCKS - 1) as f64) * pitch / 2.0 - block_span / 2.0;
    for b in 0..BLOCKS {
        for c in 0..PER_BLOCK {
            let side = if c % 2 == 0 { 10.0 } else { -10.0 };
            d = d.cell_at(x0 + b as f64 * pitch + c as f64 * 100.0, side);
        }
    }
    mixed(d, spec.scaled(10_000), ProtocolKind::SilentTracker)
        .duration_secs(1.0)
        .shards(BLOCKS)
        .tile_sharding()
        .interest_radius(150.0)
        .migration_interval_secs(0.2)
}

/// Seed of `blockage-dense`'s blocker field. The field is part of the
/// workload, like the street and its cells: drawn from the run seed, it
/// moved the work per UE-second by ±14% between seeds, while with one
/// field the walkers the seed draws move it by about 1%. It is the field
/// `blockage_study` draws at its seed 42.
const BLOCKER_FIELD_SEED: u64 = 42;

/// `blockage_study`'s street at 200 moving blockers: 2 cells, walkers
/// spawned around the cell boundary, a crowd with a vehicle and bus
/// backbone.
fn blockage(protocol: ProtocolKind, spec: Spec) -> Deployment {
    let density = spec.scaled(200);
    let buses = (density / 25).min(4);
    let vehicles = (density / 12).min(8);
    Deployment::new()
        .street(200.0, 30.0)
        .cell_row(2, 80.0)
        .tx_beams(8)
        .prach_preambles(8)
        .spawn_region((-25.0, 15.0), (-3.0, 3.0))
        .population(spec.scaled(400), MobilityKind::Walk, protocol)
        .blockers(
            BlockerPopulation::new(BLOCKER_FIELD_SEED)
                .crowd(density - buses - vehicles)
                .vehicles(vehicles)
                .buses(buses),
        )
        .duration_secs(2.0)
        .shards(4)
}

/// Short label of a protocol arm.
pub fn arm_label(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::SilentTracker => "silent",
        ProtocolKind::Reactive => "reactive",
    }
}
