//! Property-based tests for the occlusion geometry invariants the
//! dynamic-environment subsystem is built on:
//!
//! * a blocker segment crossing the direct ray strictly reduces that
//!   ray's RSS;
//! * a blocker clear of every ray changes *nothing* — the occluded
//!   `PathSet` is bit-identical to the clear one;
//! * occlusion is a pure function of time (same instant, same losses),
//!   which is what makes occluded fleet sweeps deterministic across
//!   shard and worker counts;
//! * a scratch frame reused across links and instants gives exactly what
//!   a fresh scratch gives — reusing a placement never changes a loss;
//! * the frame search (x-sorted index, box and side filters, losses
//!   summed in blocker order) gives bit for bit what testing every
//!   blocker on every leg gives, on adversarial geometry.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};
use st_env::{
    leg_occlusion, Blocker, BlockerPopulation, DynamicEnvironment, OcclusionScratch, Orientation,
};
use st_mobility::{Stationary, Vehicular};
use st_phy::channel::{ChannelConfig, Environment, LinkChannel, PathSet, Wall};
use st_phy::geometry::{Radians, Segment, Vec2};
use st_phy::units::{Carrier, Db};

/// A pedestrian standing at `(x, y)`, torso broadside across the street
/// axis (the worst case for an x-aligned ray).
fn standing(x: f64, y: f64) -> Blocker {
    Blocker::pedestrian(Box::new(Stationary::at(Vec2::new(x, y), Radians(0.0))))
        .with_orientation(Orientation::Fixed(Radians(std::f64::consts::FRAC_PI_2)))
}

fn dynamics(blockers: Vec<Blocker>) -> DynamicEnvironment {
    DynamicEnvironment::new(
        Environment::street_canyon(200.0, 30.0),
        blockers,
        Carrier::MM_WAVE_60GHZ,
    )
}

/// Trace tx→rx through the canyon, occlude at `t_s`, return (clear,
/// occluded) sample sets.
fn trace_pair(
    env: &DynamicEnvironment,
    seed: u64,
    tx: Vec2,
    rx: Vec2,
    t_s: f64,
) -> (Vec<st_phy::PathSample>, PathSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
    let mut set = PathSet::new();
    ch.trace_into(&mut rng, env.statics(), tx, rx, &mut set);
    let clear = set.samples().to_vec();
    let mut scratch = OcclusionScratch::new();
    env.occlude(t_s, tx, rx, &mut set, &mut scratch);
    (clear, set)
}

proptest! {
    /// A pedestrian planted anywhere strictly between the endpoints of an
    /// x-aligned direct ray cuts it: the LOS sample strictly loses gain.
    #[test]
    fn crossing_blocker_strictly_reduces_the_direct_ray(
        seed in 0u64..64,
        frac in 0.1f64..0.9,
        tx_x in -80.0f64..-20.0,
        rx_x in 20.0f64..80.0,
        y in -8.0f64..8.0,
    ) {
        let tx = Vec2::new(tx_x, y);
        let rx = Vec2::new(rx_x, y);
        let on_path = tx.lerp(rx, frac);
        let env = dynamics(vec![standing(on_path.x, on_path.y)]);
        let (clear, occluded) = trace_pair(&env, seed, tx, rx, 1.0);
        let los = occluded.samples().iter().zip(&clear).find(|(s, _)| s.is_los).unwrap();
        prop_assert!(
            los.0.gain.0 < los.1.gain.0,
            "LOS not reduced: {} vs {}", los.0.gain, los.1.gain
        );
        // At least the grazing knife-edge loss, at most the through cap.
        let drop = los.1.gain.0 - los.0.gain.0;
        prop_assert!((6.0..=31.0 + 1e-9).contains(&drop), "drop {drop}");
    }

    /// A blocker that never touches any ray leg leaves every sample
    /// bit-identical (not merely close).
    #[test]
    fn clear_blocker_is_bit_identical(
        seed in 0u64..64,
        tx_x in -60.0f64..-20.0,
        rx_x in 20.0f64..60.0,
        off_x in 0.0f64..40.0,
    ) {
        let tx = Vec2::new(tx_x, 2.0);
        let rx = Vec2::new(rx_x, -2.0);
        // Far beyond the far endpoint along +x: outside the hull of every
        // leg (direct and reflected), so no leg can cross it.
        let env = dynamics(vec![standing(rx_x + 5.0 + off_x, 0.0)]);
        let (clear, occluded) = trace_pair(&env, seed, tx, rx, 1.0);
        prop_assert_eq!(clear.len(), occluded.samples().len());
        for (a, b) in clear.iter().zip(occluded.samples()) {
            prop_assert_eq!(a.gain, b.gain);
            prop_assert_eq!(a.aod, b.aod);
            prop_assert_eq!(a.aoa, b.aoa);
        }
    }

    /// Occlusion is a pure function of (time, geometry): evaluating the
    /// same instant repeatedly, in any order, yields bit-identical losses
    /// — the per-link property underlying worker-count invariance.
    #[test]
    fn occlusion_is_pure_in_time(
        seed in 0u64..32,
        t1 in 0.0f64..3.0,
        t2 in 0.0f64..3.0,
    ) {
        let bus = Blocker::bus(Box::new(Vehicular::paper_vehicular(
            Vec2::new(-30.0, 5.0),
            Radians(0.0),
        )));
        let env = dynamics(vec![bus]);
        let tx = Vec2::new(-40.0, 10.0);
        let rx = Vec2::new(10.0, -1.0);
        let (_, a1) = trace_pair(&env, seed, tx, rx, t1);
        let (_, b1) = trace_pair(&env, seed, tx, rx, t2);
        // Re-evaluate in the opposite order.
        let (_, b2) = trace_pair(&env, seed, tx, rx, t2);
        let (_, a2) = trace_pair(&env, seed, tx, rx, t1);
        for (x, y) in a1.samples().iter().zip(a2.samples()) {
            prop_assert_eq!(x.gain, y.gain);
        }
        for (x, y) in b1.samples().iter().zip(b2.samples()) {
            prop_assert_eq!(x.gain, y.gain);
        }
    }

    /// One scratch shared by a stream of links at repeating instants (a
    /// shard's measurement pattern) occludes every snapshot bit-for-bit
    /// as a fresh scratch does.
    #[test]
    fn reused_scratch_equals_fresh_scratch(
        seed in 0u64..32,
        times in prop::collection::vec(0.0f64..4.0, 1..4),
        links in prop::collection::vec(
            (0usize..4, -90.0f64..90.0, -14.0f64..14.0, -90.0f64..90.0, -14.0f64..14.0),
            1..24,
        ),
    ) {
        let env = dynamics(
            BlockerPopulation::new(seed)
                .crowd(24)
                .vehicles(3)
                .buses(1)
                .materialize(200.0, 30.0),
        );
        let mut shared = OcclusionScratch::new();
        for (k, &(ti, tx_x, tx_y, rx_x, rx_y)) in links.iter().enumerate() {
            let t_s = times[ti % times.len()];
            let (tx, rx) = (Vec2::new(tx_x, tx_y), Vec2::new(rx_x, rx_y));
            let mut rng = StdRng::seed_from_u64(seed ^ k as u64);
            let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
            let mut reused = PathSet::new();
            ch.trace_into(&mut rng, env.statics(), tx, rx, &mut reused);
            let mut fresh = reused.clone();
            env.occlude(t_s, tx, rx, &mut reused, &mut shared);
            env.occlude(t_s, tx, rx, &mut fresh, &mut OcclusionScratch::new());
            prop_assert_eq!(reused.samples().len(), fresh.samples().len());
            for (a, b) in reused.samples().iter().zip(fresh.samples()) {
                prop_assert_eq!(a.gain.0.to_bits(), b.gain.0.to_bits());
            }
        }
        prop_assert_eq!(shared.occlusions(), links.len() as u64);
    }
}

/// The reference [`DynamicEnvironment::occlude`] must reproduce:
/// [`leg_occlusion`] on every leg of every ray against every blocker, in
/// blocker order, then leg order, with no box or side filter.
fn reference_occlude(env: &DynamicEnvironment, t_s: f64, tx: Vec2, rx: Vec2, set: &mut PathSet) {
    let lambda = Carrier::MM_WAVE_60GHZ.wavelength_m();
    let placed: Vec<(Segment, Db)> = env
        .blockers()
        .iter()
        .map(|b| (b.segment_at(t_s), b.shadow_cap()))
        .collect();
    set.attenuate(|ray| {
        let mut loss = Db::ZERO;
        for &(seg, cap) in &placed {
            match ray.via {
                None => loss += leg_occlusion(tx, rx, seg, cap, lambda),
                Some(bounce) => {
                    loss += leg_occlusion(tx, bounce, seg, cap, lambda);
                    loss += leg_occlusion(bounce, rx, seg, cap, lambda);
                }
            }
        }
        loss
    });
}

/// A standing blocker of `kind` (0 pedestrian, 1 car, 2 bus) centred at
/// `centre`, its segment at the fixed global `bearing`.
fn standing_kind(kind: u64, centre: Vec2, bearing: f64) -> Blocker {
    let model = Box::new(Stationary::at(centre, Radians(0.0)));
    let b = match kind % 3 {
        0 => Blocker::pedestrian(model),
        1 => Blocker::car(model),
        _ => Blocker::bus(model),
    };
    b.with_orientation(Orientation::Fixed(Radians(bearing)))
}

/// Random walls in a 120 m × 40 m box, some of them axis-aligned.
fn random_walls(rng: &mut StdRng) -> Environment {
    let n = rng.random_range(0..5usize);
    let walls = (0..n)
        .map(|_| {
            let a = Vec2::new(rng.random_range(-60.0..60.0), rng.random_range(-20.0..20.0));
            let mut b = Vec2::new(rng.random_range(-60.0..60.0), rng.random_range(-20.0..20.0));
            match rng.random_range(0..3u32) {
                0 => b.y = a.y,
                1 => b.x = a.x,
                _ => {}
            }
            Wall::concrete(a, b)
        })
        .collect();
    Environment { walls }
}

/// Links in the box: random ones, axis-aligned ones and a zero-length
/// one (tx = rx).
fn random_links(rng: &mut StdRng) -> Vec<(Vec2, Vec2)> {
    let point =
        |rng: &mut StdRng| Vec2::new(rng.random_range(-50.0..50.0), rng.random_range(-14.0..14.0));
    let mut links = Vec::new();
    for k in 0..6 {
        let tx = point(rng);
        let mut rx = point(rng);
        match k {
            0 => rx.y = tx.y,
            1 => rx.x = tx.x,
            2 => rx = tx,
            _ => {}
        }
        links.push((tx, rx));
    }
    links
}

/// `x` moved by one ulp, up or down.
fn ulp_step(x: f64, up: bool) -> f64 {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let bits = x.to_bits();
    f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
}

/// A blocker field built against the legs of `links` traced through
/// `walls`: a moving crowd, plus for every leg near-collinear blockers
/// on and beyond it, a blocker ending exactly on each bounce point, a
/// few bodies across it (several crossings on one leg, so summation
/// order shows), and one bus wider than everything else, reaching the
/// leg from far left of its box.
fn adversarial_field(
    rng: &mut StdRng,
    walls: &Environment,
    links: &[(Vec2, Vec2)],
) -> Vec<Blocker> {
    let mut field = BlockerPopulation::new(rng.random_range(0..1_000u64))
        .crowd(rng.random_range(0..24u32))
        .vehicles(rng.random_range(0..4u32))
        .materialize(120.0, 30.0);
    let mut bus_placed = false;
    for &(tx, rx) in links {
        for ray in walls.trace(tx, rx) {
            let legs = match ray.via {
                None => vec![(tx, rx)],
                Some(v) => {
                    // A pedestrian along x whose end is the bounce point.
                    let half = 0.25;
                    let mut x = v.x - half;
                    for _ in 0..4 {
                        if x + half == v.x {
                            break;
                        }
                        x = ulp_step(x, x + half < v.x);
                    }
                    field.push(standing_kind(0, Vec2::new(x, v.y), 0.0));
                    vec![(tx, v), (v, rx)]
                }
            };
            for (p, q) in legs {
                let along = (q - p).angle().0;
                for _ in 0..rng.random_range(1..5u32) {
                    // Along the leg's line, turned by nothing or by
                    // 1e-15..1e-2 rad either way: across the leg, or
                    // turned about an end 1 nm..1 µm past the leg's end
                    // (where `Segment::intersect` is worst conditioned).
                    let kind = rng.random_range(0..3u64);
                    let half = [0.25, 2.2, 6.0][kind as usize];
                    let turn = match rng.random_range(0..3u32) {
                        0 => 0.0,
                        _ => {
                            let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                            sign * 10f64.powf(rng.random_range(-15.0..-2.0))
                        }
                    };
                    let dir = Vec2::from_angle(Radians(along + turn));
                    let gap = 10f64.powf(rng.random_range(-9.0..-6.0));
                    let unit = Vec2::from_angle(Radians(along));
                    let centre = match rng.random_range(0..5u32) {
                        0 => p.lerp(q, rng.random_range(-0.3..1.3)),
                        1 => q + unit * gap + dir * half,
                        2 => p - unit * gap - dir * half,
                        3 => p.lerp(q, 1.0 + rng.random_range(-1e-6..1e-6)),
                        _ => p.lerp(q, rng.random_range(0.0..1.0)),
                    };
                    field.push(standing_kind(kind, centre, along + turn));
                }
                for _ in 0..rng.random_range(0..4u32) {
                    let bearing = rng.random_range(0.0..std::f64::consts::PI);
                    field.push(standing_kind(
                        0,
                        p.lerp(q, rng.random_range(0.0..1.0)),
                        bearing,
                    ));
                }
                if !bus_placed && (q.x - p.x).abs() < (q.y - p.y).abs() {
                    // A bus along x whose right end just passes the
                    // steep leg: its box starts ~12 m left of the leg's.
                    let mid = p.lerp(q, 0.5);
                    field.push(standing_kind(2, Vec2::new(mid.x + 0.3 - 6.0, mid.y), 0.0));
                    bus_placed = true;
                }
            }
        }
    }
    field
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The frame search equals the unfiltered reference bit for bit, on
    /// random walls, fields and links with adversarial blockers, through
    /// one scratch reused across two environments of the same size and
    /// across instants (a stale sorted index would serve the wrong
    /// environment's or instant's blockers).
    #[test]
    fn occlude_equals_brute_force_reference(
        seed in 0u64..1_000_000_000,
        t1 in 0.0f64..20.0,
        t2 in 0.0f64..20.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let walls = random_walls(&mut rng);
        let links = random_links(&mut rng);
        let mut field_a = adversarial_field(&mut rng, &walls, &links);
        let mut field_b = adversarial_field(&mut rng, &walls, &links);
        // Same blocker count, so a placement keyed wrongly would be
        // reused rather than rebuilt.
        let n = field_a.len().min(field_b.len());
        field_a.truncate(n.max(1));
        field_b.truncate(n.max(1));
        while field_b.len() < field_a.len() {
            field_b.push(standing_kind(0, Vec2::new(0.0, 0.0), 1.0));
        }
        let carrier = Carrier::MM_WAVE_60GHZ;
        let a = DynamicEnvironment::new(walls.clone(), field_a, carrier);
        let b = DynamicEnvironment::new(walls.clone(), field_b, carrier);
        let mut shared = OcclusionScratch::new();
        let mut crossed = 0u32;
        for (k, &(tx, rx)) in links.iter().enumerate() {
            let mut ch_rng = StdRng::seed_from_u64(seed ^ k as u64);
            let mut ch = LinkChannel::new(&mut ch_rng, ChannelConfig::outdoor_60ghz());
            let mut traced = PathSet::new();
            ch.trace_into(&mut ch_rng, &walls, tx, rx, &mut traced);
            for (env, t_s) in [(&a, t1), (&b, t1), (&a, t2), (&a, t1), (&b, t2)] {
                let mut got = traced.clone();
                env.occlude(t_s, tx, rx, &mut got, &mut shared);
                let mut want = traced.clone();
                reference_occlude(env, t_s, tx, rx, &mut want);
                for ((g, w), clear) in got.samples().iter().zip(want.samples()).zip(traced.samples()) {
                    prop_assert!(
                        g.gain.0.to_bits() == w.gain.0.to_bits(),
                        "link {} at t = {}: {} vs {}", k, t_s, g.gain, w.gain
                    );
                    crossed += u32::from(w.gain.0.to_bits() != clear.gain.0.to_bits());
                }
            }
        }
        // The adversarial bodies do cut legs: the comparison is not
        // between two untouched snapshots.
        prop_assert!(crossed > 0);
    }
}
