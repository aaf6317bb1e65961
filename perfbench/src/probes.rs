//! Per-layer cost probes: each times calls into one layer's public
//! functions, from outside the program, on inputs shaped like the
//! workload. Nothing inside the program is instrumented; a probe's
//! ns-per-unit times the live run's deterministic work count estimates
//! the layer's share of `shard.run`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::RngExt;
use st_des::{EventQueue, RngStreams, SimDuration, SimTime};
use st_env::OcclusionScratch;
use st_fleet::{CellLoad, FleetConfig, RachAttemptMsg, RachReq, SharedRachStage};
use st_mac::responder::ResponderConfig;
use st_mac::timing::SsbConfig;
use st_net::{LinkSet, Sites};
use st_phy::channel::PathSet;
use st_phy::{BeamId, Codebook, Dbm, LinkChannel, Pose, Radians, Vec2};

/// Walking probe UEs of the phy probe.
const PHY_UES: usize = 64;
/// Walking probe UEs of the occlusion probe: few enough that its batch
/// spans most of a 2 s run, so the blocker field moves under it.
const ENV_UES: usize = 16;
/// Pedestrian speed along the street, m/s.
const WALK_MPS: f64 = 1.4;
/// Traced link snapshots (at least) occluded per timed batch.
const ENV_BATCH: usize = 2_048;
/// Arrival offset of a preamble after its PRACH occasion, as the fleet
/// engine models it.
const AIR_DELAY: SimDuration = SimDuration::from_micros(500);

/// Repeat `f` (which returns timed nanoseconds and units of work) until
/// `budget` has elapsed and at least `min_reps` reps ran; ns per unit.
fn per_unit(budget: Duration, min_reps: usize, mut f: impl FnMut() -> (u128, u64)) -> f64 {
    let start = Instant::now();
    let (mut ns, mut units, mut reps) = (0u128, 0u64, 0usize);
    while reps < min_reps || start.elapsed() < budget {
        let (n, u) = f();
        ns += n;
        units += u;
        reps += 1;
    }
    if units == 0 {
        0.0
    } else {
        ns as f64 / units as f64
    }
}

/// A UE position drawn from the deployment's spawn region.
fn spawn_point(cfg: &FleetConfig, rng: &mut impl RngExt) -> Vec2 {
    Vec2::new(
        cfg.spawn_x.0 + rng.random::<f64>() * (cfg.spawn_x.1 - cfg.spawn_x.0),
        cfg.spawn_y.0 + rng.random::<f64>() * (cfg.spawn_y.1 - cfg.spawn_y.0),
    )
}

/// Probe UEs walking the street, and the links the fleet's burst handler
/// measures for each of them: every SSB burst the serving (nearest)
/// cell, and inside a measurement gap every other cell within the
/// interest radius.
struct Walkers {
    ues: Vec<Walker>,
    burst: SimDuration,
    now: SimTime,
}

struct Walker {
    pos: Vec2,
    /// Cells within the interest radius, nearest (the serving cell) first.
    near: Vec<usize>,
}

impl Walkers {
    fn new(cfg: &FleetConfig, sites: &Sites, n: usize, rng: &mut impl RngExt) -> Walkers {
        let reach = cfg.interest_radius_m.unwrap_or(f64::INFINITY);
        let ues = (0..n)
            .map(|_| {
                let pos = spawn_point(cfg, rng);
                Walker {
                    pos,
                    near: cells_near(sites, pos, reach),
                }
            })
            .collect();
        Walkers {
            ues,
            burst: sites.ssb(0).burst_period,
            now: SimTime::ZERO,
        }
    }

    /// Move every walker to the next burst; returns whether the burst
    /// falls inside a measurement gap.
    fn step(&mut self, cfg: &FleetConfig) -> bool {
        self.now += self.burst;
        for ue in &mut self.ues {
            ue.pos.x += WALK_MPS * self.burst.as_secs_f64();
        }
        cfg.base.gaps.in_gap(self.now)
    }
}

/// The static world of `cfg` without its blockers.
fn static_sites(cfg: &FleetConfig) -> Sites {
    let base = &cfg.base;
    let walls = base
        .dynamics
        .as_ref()
        .map_or_else(|| base.environment.clone(), |d| d.statics().clone());
    Sites::new(base.cells.clone(), walls, base.radio, base.channel)
}

/// `st_phy` through `st_net::LinkSet::step_to`, `rss` and
/// `rss_tx_sweep`: ns per link trace with its beam evaluations, against
/// the static walls only (occlusion is `st_env`'s and probed
/// separately). Each burst steps every walker's links, probes the serving
/// cell on the adjacent receive beams and, inside a gap, sweeps the other
/// cells, as the fleet's burst handler does.
pub fn phy_ns_per_trace(cfg: &FleetConfig, seed: u64, budget: Duration) -> f64 {
    let sites = static_sites(cfg);
    let ue_codebook = Codebook::for_class(cfg.base.ue_codebook);
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("perfbench-phy");
    let mut walkers = Walkers::new(cfg, &sites, PHY_UES, &mut rng);
    let mut links: Vec<(LinkSet, BeamId)> = walkers
        .ues
        .iter()
        .enumerate()
        .map(|(u, ue)| {
            let mut set =
                LinkSet::for_ue_interest(&streams, cfg.base.channel, sites.len(), u as u64);
            // The interest set is ascending by cell id, `near` by distance.
            let mut interest: Vec<u16> = ue.near.iter().map(|&c| c as u16).collect();
            interest.sort_unstable();
            set.set_interest(&interest);
            (set, BeamId(rng.random_range(0..ue_codebook.len() as u16)))
        })
        .collect();
    let mut out = vec![Dbm(0.0); sites.codebooks.iter().map(Codebook::len).max().unwrap_or(0)];
    per_unit(budget, 3, || {
        let in_gap = walkers.step(cfg);
        let now = walkers.now;
        let before: u64 = links.iter().map(|(l, _)| l.stats().traces_cast).sum();
        let t = Instant::now();
        for (ue, (set, rx)) in walkers.ues.iter().zip(&mut links) {
            let pose = Pose::new(ue.pos, Radians(0.0));
            let serving = ue.near[0];
            set.step_to(now);
            let tx = sites.best_tx_beam_towards(serving, ue.pos);
            for b in ue_codebook.adjacent(*rx) {
                black_box(set.rss(&sites, serving, tx, pose, &ue_codebook, b));
            }
            if in_gap {
                for &cell in &ue.near[1..] {
                    let n = sites.codebooks[cell].len();
                    black_box(set.rss_tx_sweep(
                        &sites,
                        cell,
                        pose,
                        &ue_codebook,
                        *rx,
                        &mut out[..n],
                    ));
                }
            }
        }
        let ns = t.elapsed().as_nanos();
        let after: u64 = links.iter().map(|(l, _)| l.stats().traces_cast).sum();
        (ns, after - before)
    })
}

/// Cells within `reach` metres of `pos`, nearest first; at least the
/// nearest cell.
fn cells_near(sites: &Sites, pos: Vec2, reach: f64) -> Vec<usize> {
    let dist = |c: usize| sites.cells[c].position.distance(pos);
    let mut cells: Vec<usize> = (0..sites.len()).collect();
    cells.sort_by(|&a, &b| dist(a).total_cmp(&dist(b)));
    let n = cells
        .iter()
        .take_while(|&&c| dist(c) <= reach)
        .count()
        .max(1);
    cells.truncate(n);
    cells
}

/// `st_env` through `DynamicEnvironment::occlude` on the workload's
/// blocker field: ns per occlusion pass over one traced link snapshot.
/// The snapshots are the links the burst handler measures for walking
/// probe UEs, in time order. `None` when the workload has no blockers.
pub fn env_ns_per_occlusion(cfg: &FleetConfig, seed: u64, budget: Duration) -> Option<f64> {
    let base = &cfg.base;
    let dynamics = base.dynamics.as_ref().filter(|d| d.blocker_count() > 0)?;
    let sites = static_sites(cfg);
    let mut rng = RngStreams::new(seed).stream("perfbench-env");
    let mut walkers = Walkers::new(cfg, &sites, ENV_UES, &mut rng);
    let mut channel = LinkChannel::new(&mut rng, base.channel);
    let mut samples: Vec<(f64, Vec2, Vec2, PathSet)> = Vec::with_capacity(ENV_BATCH);
    while samples.len() < ENV_BATCH {
        let in_gap = walkers.step(cfg);
        let t_s = walkers.now.as_secs_f64();
        for ue in &walkers.ues {
            let cells = if in_gap { &ue.near[..] } else { &ue.near[..1] };
            for &c in cells {
                let bs = base.cells[c].position;
                let mut set = PathSet::new();
                channel.trace_into(&mut rng, dynamics.statics(), bs, ue.pos, &mut set);
                samples.push((t_s, bs, ue.pos, set));
            }
        }
    }
    let mut scratch = OcclusionScratch::new();
    let mut work: Vec<PathSet> = Vec::with_capacity(samples.len());
    Some(per_unit(budget, 3, || {
        work.clear();
        work.extend(samples.iter().map(|s| s.3.clone()));
        let t = Instant::now();
        for ((t_s, bs, ue, _), set) in samples.iter().zip(work.iter_mut()) {
            dynamics.occlude(*t_s, *bs, *ue, set, &mut scratch);
        }
        black_box(&work);
        (t.elapsed().as_nanos(), samples.len() as u64)
    }))
}

/// `st_mac` (through `st_fleet::SharedRachStage::ingest` /
/// `resolve_up_to`): ns per resolved preamble on a canonical attempt
/// stream with the live run's cells, per-cell occasion occupancy and
/// mean occasion batch size, resolved one occasion epoch at a time as the
/// fleet's barriers do. Preambles only: no Msg3 follows a RAR. `None`
/// when the live run heard no preamble.
pub fn mac_ns_per_preamble(
    cfg: &FleetConfig,
    per_cell: &[CellLoad],
    seed: u64,
    budget: Duration,
) -> Option<f64> {
    let base = &cfg.base;
    let rc = ResponderConfig {
        backhaul_latency: base.backhaul_latency,
        ..ResponderConfig::nr_default()
    };
    let epoch = rc.rar_delay.min(rc.msg4_delay);
    let n_epochs = base.duration.as_nanos().div_ceil(epoch.as_nanos()) as usize;
    let mut rng = RngStreams::new(seed).stream("perfbench-mac");
    let mut epochs: Vec<Vec<RachAttemptMsg>> = vec![Vec::new(); n_epochs + 1];
    let n_ues = cfg.n_ues().max(1);
    let mut next_ue = 0u64;
    for (c, load) in per_cell.iter().enumerate() {
        let heard = load.responder.preambles_heard;
        if load.occasions_used == 0 || load.occasions_total == 0 || heard == 0 {
            continue;
        }
        let used_frac = load.occasions_used as f64 / load.occasions_total as f64;
        let mean_batch = heard as f64 / load.occasions_used as f64;
        let ssb = SsbConfig::nr_fr2(base.cells[c].n_tx_beams);
        let bursts = base
            .duration
            .as_nanos()
            .div_ceil(ssb.burst_period.as_nanos());
        for k in 0..bursts {
            for beam in 0..ssb.n_tx_beams {
                if rng.random::<f64>() >= used_frac {
                    continue;
                }
                let at = base.prach.occasion_time(&ssb, k, beam) + AIR_DELAY;
                let e = (at.as_nanos() / epoch.as_nanos()) as usize;
                let Some(slot) = epochs.get_mut(e) else {
                    continue;
                };
                let extra = rng.random::<f64>() < mean_batch.fract();
                for _ in 0..(mean_batch.floor() as u64 + u64::from(extra)).max(1) {
                    slot.push(RachAttemptMsg {
                        at,
                        ue_global: next_ue % n_ues,
                        shard: 0,
                        cell: c as u16,
                        req: RachReq::Preamble {
                            preamble: rng.random_range(0..base.prach.n_preambles.max(1)),
                            ssb_beam: beam,
                            distance_m: 5.0 + 145.0 * rng.random::<f64>(),
                        },
                    });
                    next_ue += 1;
                }
            }
        }
    }
    if next_ue == 0 {
        return None;
    }
    let mut work = epochs.clone();
    Some(per_unit(budget, 3, || {
        work.clone_from(&epochs);
        let mut stage = SharedRachStage::new(per_cell.len(), rc, n_ues as usize);
        let mut replies = 0u64;
        let t = Instant::now();
        for (k, batch) in work.iter_mut().enumerate() {
            stage.ingest(batch);
            let horizon = SimTime::ZERO + epoch * (k as u64 + 1);
            stage.resolve_up_to(horizon, |_, reply| {
                black_box(reply);
                replies += 1;
            });
        }
        let ns = t.elapsed().as_nanos();
        black_box(replies);
        (ns, stage.counters().resolved_preambles)
    }))
}

/// `st_des` through `EventQueue::schedule` / `pop` at the workload's peak
/// queue depth: ns per event (one pop plus the schedule that replaces
/// it, the hold model of a steady simulation).
pub fn des_ns_per_event(depth: u64, seed: u64, budget: Duration) -> f64 {
    let mut rng = RngStreams::new(seed).stream("perfbench-des");
    let mut q: EventQueue<u64> = EventQueue::new();
    // Event times spread over one SSB burst period, the fleet's cadence.
    let spread = SimDuration::from_millis(20).as_nanos();
    for i in 0..depth.max(1) {
        q.schedule(SimTime::from_nanos(rng.random_range(0..spread)), i);
    }
    const BATCH: u64 = 4_096;
    per_unit(budget, 3, || {
        let t = Instant::now();
        for _ in 0..BATCH {
            let (at, payload) = q.pop().expect("the hold model keeps the queue full");
            let next = at + SimDuration::from_nanos(rng.random_range(1..spread));
            q.schedule(next, black_box(payload));
        }
        (t.elapsed().as_nanos(), BATCH)
    })
}
