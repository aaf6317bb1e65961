//! Property-based tests for the PHY substrate invariants.

use std::f64::consts::{PI, TAU};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_phy::channel::pathloss::{CloseIn, PathLossModel};
use st_phy::channel::{LinkDecay, PathSet};
use st_phy::geometry::{Pose, Radians, Segment, Vec2};
use st_phy::link::{rss_sweep_rx, rss_sweep_tx};
use st_phy::stochastic::{standard_normal, OrnsteinUhlenbeck, OuDecay};
use st_phy::units::{power_sum_dbm, Carrier, Db, Dbm};
use st_phy::{
    rss, BeamId, BeamwidthClass, ChannelConfig, Codebook, Environment, LinkChannel, Pattern,
    SectoredPattern, UlaPattern,
};

/// `Radians::wrapped` as it reads without the |x| < TAU shortcut: the
/// `%` on every input.
fn wrapped_reference(x: f64) -> f64 {
    let mut a = x % TAU;
    if a <= -PI {
        a += TAU;
    } else if a > PI {
        a -= TAU;
    }
    a
}

fn assert_wrap_matches_reference(x: f64) {
    let got = Radians(x).wrapped().0;
    let want = wrapped_reference(x);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "wrapped({x:e}): {got:e} vs {want:e}"
    );
}

#[test]
fn angle_wrap_matches_reference_on_edge_values() {
    let edges = [
        0.0,
        PI,
        PI.next_down(),
        PI.next_up(),
        TAU,
        TAU.next_down(),
        TAU.next_up(),
        3.0 * PI,
        1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NAN,
    ];
    for x in edges {
        assert_wrap_matches_reference(x);
        assert_wrap_matches_reference(-x);
    }
}

/// Street-canyon channel with every stochastic component armed, and
/// enough blockage to toggle within a few steps.
fn busy_channel() -> ChannelConfig {
    ChannelConfig {
        blockage_rate_hz: 20.0,
        blockage_duration_s: 0.01,
        ..ChannelConfig::outdoor_60ghz()
    }
}

fn trace_gains(ch: &mut LinkChannel, rng: &mut StdRng, rx: Vec2, set: &mut PathSet) -> Vec<u64> {
    let env = Environment::street_canyon(200.0, 20.0);
    ch.trace_into(rng, &env, Vec2::new(-30.0, 8.0), rx, set);
    set.samples().iter().map(|p| p.gain.0.to_bits()).collect()
}

proptest! {
    #[test]
    fn db_linear_round_trip(v in -120.0f64..60.0) {
        let db = Db(v);
        let back = Db::from_linear(db.linear());
        prop_assert!((back.0 - v).abs() < 1e-9);
    }

    #[test]
    fn dbm_round_trip(v in -150.0f64..40.0) {
        let p = Dbm(v);
        prop_assert!((p.milliwatts().dbm().0 - v).abs() < 1e-9);
    }

    #[test]
    fn power_sum_ge_max(a in -120.0f64..0.0, b in -120.0f64..0.0) {
        let s = power_sum_dbm([Dbm(a), Dbm(b)]).unwrap();
        // Sum of powers is at least the stronger one and at most +3 dB above.
        prop_assert!(s.0 >= a.max(b) - 1e-9);
        prop_assert!(s.0 <= a.max(b) + 3.011);
    }

    #[test]
    fn angle_wrap_is_idempotent(v in -100.0f64..100.0) {
        let w = Radians(v).wrapped();
        prop_assert!(w.0 > -std::f64::consts::PI - 1e-12);
        prop_assert!(w.0 <= std::f64::consts::PI + 1e-12);
        let w2 = w.wrapped();
        prop_assert!((w.0 - w2.0).abs() < 1e-12);
    }

    #[test]
    fn separation_bounds(a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let s = Radians(a).separation(Radians(b));
        prop_assert!(s.0 >= 0.0 && s.0 <= std::f64::consts::PI + 1e-12);
        // Symmetric.
        let s2 = Radians(b).separation(Radians(a));
        prop_assert!((s.0 - s2.0).abs() < 1e-9);
    }

    #[test]
    fn fspl_monotone(d1 in 1.0f64..500.0, d2 in 1.0f64..500.0) {
        prop_assume!(d1 < d2);
        let c = Carrier::MM_WAVE_60GHZ;
        prop_assert!(c.fspl(d1).0 < c.fspl(d2).0);
    }

    #[test]
    fn close_in_monotone(d1 in 1.0f64..500.0, d2 in 1.0f64..500.0, n in 1.6f64..4.0) {
        prop_assume!(d1 + 0.01 < d2);
        let m = CloseIn { carrier: Carrier::MM_WAVE_60GHZ, exponent: n };
        prop_assert!(m.loss(d1).0 < m.loss(d2).0);
    }

    #[test]
    fn sectored_gain_never_exceeds_peak(bw in 5.0f64..120.0, off in -200.0f64..200.0) {
        let p = SectoredPattern::from_beamwidth(
            st_phy::Degrees(bw), st_phy::Degrees(60.0));
        let g = p.gain(Radians::from_degrees(off));
        prop_assert!(g.0 <= p.peak_gain().0 + 1e-9);
        prop_assert!(g.0 >= p.peak_gain().0 - p.sidelobe_level.0 - 1e-9);
    }

    #[test]
    fn ula_gain_bounded_by_peak(n in 2usize..64, off in -90.0f64..90.0) {
        let u = UlaPattern::broadside(n);
        prop_assert!(u.gain(Radians::from_degrees(off)).0 <= u.peak_gain().0 + 1e-9);
    }

    #[test]
    fn codebook_coverage_within_3db(n in 2usize..36, deg in -180.0f64..180.0) {
        let cb = Codebook::uniform_sectored(n, st_phy::Degrees(60.0));
        let aoa = Radians::from_degrees(deg);
        let best = cb.best_beam_towards(aoa);
        let peak = cb.beam(best).peak_gain();
        prop_assert!((peak - cb.gain(best, aoa)).0 <= 3.01);
    }

    #[test]
    fn codebook_adjacency_symmetric(n in 1usize..36, i in 0u16..36) {
        let cb = Codebook::uniform_sectored(n, st_phy::Degrees(60.0));
        prop_assume!((i as usize) < cb.len());
        let id = st_phy::BeamId(i);
        for a in cb.adjacent(id) {
            prop_assert!(cb.adjacent(a).contains(&id));
        }
    }

    #[test]
    fn best_beam_gain_at_least_any_other(deg in -180.0f64..180.0) {
        for class in [BeamwidthClass::Narrow, BeamwidthClass::Wide] {
            let cb = Codebook::for_class(class);
            let aoa = Radians::from_degrees(deg);
            let best = cb.best_beam_towards(aoa);
            let gb = cb.gain(best, aoa);
            for id in cb.ids() {
                prop_assert!(gb.0 >= cb.gain(id, aoa).0 - 1e-9);
            }
        }
    }

    #[test]
    fn mirror_is_involution(px in -50.0f64..50.0, py in -50.0f64..50.0,
                            ax in -50.0f64..50.0, ay in -50.0f64..50.0,
                            bx in -50.0f64..50.0, by in -50.0f64..50.0) {
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        prop_assume!(a.distance(b) > 0.1);
        let wall = Segment::new(a, b);
        let p = Vec2::new(px, py);
        let m = wall.mirror(wall.mirror(p));
        prop_assert!((m.x - p.x).abs() < 1e-6 && (m.y - p.y).abs() < 1e-6);
    }

    #[test]
    fn angle_wrap_matches_reference(bits: u64, near in -30.0f64..30.0, turns in -1e6f64..1e6) {
        // Raw bits reach NaNs, infinities, subnormals and huge values.
        for x in [f64::from_bits(bits), near, turns * TAU, turns * PI] {
            let got = Radians(x).wrapped().0;
            prop_assert_eq!(got.to_bits(), wrapped_reference(x).to_bits());
        }
    }

    #[test]
    fn ou_shared_decay_matches_per_process_formula(
        seed: u64,
        tau in 1e-4f64..3.0,
        dts in prop::collection::vec(0.0f64..0.05, 1..12),
    ) {
        // Three processes share one (τ, dt) coefficient per step; the
        // reference evaluates each step with its own exp and sqrt, the
        // formula `step` had before the coefficients were split out.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shared: Vec<OrnsteinUhlenbeck> = [0.5, 2.5, 0.0]
            .into_iter()
            .map(|sigma| OrnsteinUhlenbeck::new(&mut rng, sigma, tau))
            .collect();
        let mut reference: Vec<f64> = shared.iter().map(|p| p.value()).collect();
        let mut ref_rng = rng.clone();
        for &dt in &dts {
            let decay = OuDecay::new(tau, dt);
            for (p, x) in shared.iter_mut().zip(&mut reference) {
                let got = p.advance(&mut rng, &decay);
                *x = if p.sigma == 0.0 {
                    0.0
                } else {
                    let rho = (-dt / tau).exp();
                    rho * *x + p.sigma * (1.0 - rho * rho).sqrt() * standard_normal(&mut ref_rng)
                };
                prop_assert_eq!(got.to_bits(), x.to_bits());
            }
            prop_assert!(rng == ref_rng);
        }
    }

    #[test]
    fn link_shared_decay_matches_per_link_step(
        seed: u64,
        instants in prop::collection::vec((1u64..20_000, 0u64..8), 1..16),
        rx in (-60.0f64..60.0, -8.0f64..8.0),
    ) {
        // Three links advanced in lockstep through one coefficient per
        // distinct dt (the fleet's eager stepping), against clones each
        // stepped by its own `step`. A link whose bit in the instant's
        // mask is set sits the instant out and catches up later with a
        // longer dt, so the shared value must be re-keyed per link.
        let cfg = busy_channel();
        let rx = Vec2::new(rx.0, rx.1);
        let mut shared: Vec<(LinkChannel, StdRng, u64)> = (0..3)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(seed ^ i);
                (LinkChannel::new(&mut rng, cfg), rng, 0)
            })
            .collect();
        let mut set = PathSet::new();
        for (ch, rng, _) in &mut shared {
            trace_gains(ch, rng, rx, &mut set);
        }
        let mut per_link = shared.clone();
        let mut now_us = 0;
        for &(gap_us, skip_mask) in &instants {
            now_us += gap_us;
            let mut decay: Option<LinkDecay> = None;
            for (i, (a, b)) in shared.iter_mut().zip(&mut per_link).enumerate() {
                if skip_mask & (1 << i) != 0 {
                    continue;
                }
                let dt = (now_us - a.2) as f64 * 1e-6;
                let d = match decay {
                    Some(d) if d.dt_s().to_bits() == dt.to_bits() => d,
                    _ => *decay.insert(LinkDecay::new(&cfg, dt)),
                };
                a.0.advance(&mut a.1, &d);
                a.2 = now_us;
                b.0.step(&mut b.1, dt);
                b.2 = now_us;
                let ga = trace_gains(&mut a.0, &mut a.1, rx, &mut set);
                let gb = trace_gains(&mut b.0, &mut b.1, rx, &mut set);
                prop_assert_eq!(ga, gb);
                prop_assert!(a.1 == b.1, "rng streams diverged");
                prop_assert_eq!(a.0.los_blocked(), b.0.los_blocked());
            }
        }
    }

    #[test]
    fn sweeps_match_per_beam_rss(
        seed: u64,
        sizes in (0usize..3, 0usize..3),
        tx in (-60.0f64..60.0, -9.0f64..9.0, -4.0f64..4.0),
        rx in (-60.0f64..60.0, -9.0f64..9.0, -4.0f64..4.0),
        beams in (0u16..18, 0u16..18),
    ) {
        let (n_tx, n_rx) = ([8, 16, 18][sizes.0], [8, 16, 18][sizes.1]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
        let env = Environment::street_canyon(200.0, 20.0);
        let tx_pose = Pose::new(Vec2::new(tx.0, tx.1), Radians(tx.2));
        let rx_pose = Pose::new(Vec2::new(rx.0, rx.1), Radians(rx.2));
        let paths = ch.paths(&mut rng, &env, tx_pose.position, rx_pose.position);
        let tx_cb = Codebook::uniform_sectored(n_tx, st_phy::Degrees(30.0));
        let rx_cb = Codebook::uniform_sectored(n_rx, st_phy::Degrees(60.0));
        let tx_beam = BeamId(beams.0 % n_tx as u16);
        let rx_beam = BeamId(beams.1 % n_rx as u16);
        let p = Dbm(10.0);

        let mut out = vec![Dbm(0.0); n_tx];
        prop_assert_eq!(
            rss_sweep_tx(p, tx_pose, &tx_cb, rx_pose, &rx_cb, rx_beam, &paths, &mut out),
            !paths.is_empty()
        );
        for (b, got) in out.iter().enumerate() {
            if let Some(want) = rss(p, tx_pose, &tx_cb, BeamId(b as u16), rx_pose, &rx_cb, rx_beam, &paths) {
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
            }
        }
        let mut out = vec![Dbm(0.0); n_rx];
        prop_assert_eq!(
            rss_sweep_rx(p, tx_pose, &tx_cb, tx_beam, rx_pose, &rx_cb, &paths, &mut out),
            !paths.is_empty()
        );
        for (b, got) in out.iter().enumerate() {
            if let Some(want) = rss(p, tx_pose, &tx_cb, tx_beam, rx_pose, &rx_cb, BeamId(b as u16), &paths) {
                prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
            }
        }
    }

    #[test]
    fn reflected_ray_longer_than_los(
        txx in -40.0f64..-5.0, rxx in 5.0f64..40.0,
        txy in -8.0f64..8.0, rxy in -8.0f64..8.0,
    ) {
        let env = st_phy::Environment::street_canyon(120.0, 20.0);
        let tx = Vec2::new(txx, txy);
        let rx = Vec2::new(rxx, rxy);
        let rays = env.trace(tx, rx);
        let los_len = tx.distance(rx);
        for r in rays.iter().filter(|r| !r.is_los) {
            prop_assert!(r.length_m >= los_len - 1e-9);
        }
    }
}
