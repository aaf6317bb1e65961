//! The dynamic environment: static walls plus moving blockers, with a
//! per-instant occlusion pass over an already-traced path snapshot.
//!
//! Integration contract (kept by `st_net::radio::LinkSet`):
//!
//! 1. trace the link once per (instant, position) into its reusable
//!    [`PathSet`] against the *static* walls ([`DynamicEnvironment::statics`]);
//! 2. call [`DynamicEnvironment::occlude`] on the snapshot — every ray
//!    leg is tested against the blockers near the link at that instant
//!    and knife-edge losses are folded into the sample gains in place.
//!
//! The pass is zero-allocation in steady state (the frame scratch is
//! caller-owned and sized once to the blocker count), consumes no RNG
//! draws, and is a pure function of time — so occluded runs remain
//! bit-identical across shard and worker counts.
//!
//! ## The per-instant frame
//!
//! A fleet measures many links at one instant (every UE of a shard at an
//! SSB burst), and every one of them sees the same blocker positions.
//! The caller-owned [`OcclusionScratch`] is therefore a *frame*: the
//! first `occlude` at a new instant places every blocker once — its
//! segment, bounding box and loss cap — and every later call at the same
//! instant only filters the frame against its link's ray hull. The frame
//! is keyed on the environment's identity and the bits of the instant,
//! so a scratch shared across environments or instants never serves a
//! stale placement.

use std::sync::atomic::{AtomicU64, Ordering};

use st_phy::channel::{Environment, PathSet};
use st_phy::geometry::{Segment, Vec2};
use st_phy::units::{Carrier, Db};

use crate::blocker::Blocker;
use crate::diffraction::leg_occlusion;

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy)]
struct Aabb {
    min: Vec2,
    max: Vec2,
}

impl Aabb {
    fn of_segment(s: Segment) -> Aabb {
        let mut bb = Aabb { min: s.a, max: s.a };
        bb.grow(s.b);
        bb
    }

    fn grow(&mut self, p: Vec2) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    fn pad(&mut self, r: f64) {
        self.min.x -= r;
        self.min.y -= r;
        self.max.x += r;
        self.max.y += r;
    }

    fn overlaps(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }
}

/// A blocker placed at the frame's instant: its exact segment, the
/// segment's bounding box and its through-body loss cap.
#[derive(Debug, Clone, Copy)]
struct Placed {
    seg: Segment,
    bounds: Aabb,
    cap: Db,
}

/// Caller-owned frame for [`DynamicEnvironment::occlude`]: every blocker
/// placed at one instant of one environment, plus the candidate buffer of
/// the current query. Whoever owns the instant owns the scratch (a fleet
/// shard keeps one for all its UEs), so every link measured at that
/// instant reuses one placement; steady-state occlusion allocates nothing.
#[derive(Debug, Default)]
pub struct OcclusionScratch {
    /// (environment id, `t_s` bits) the frame was placed for.
    key: Option<(u64, u64)>,
    frame: Vec<Placed>,
    candidates: Vec<(Segment, Db)>,
    occlusions: u64,
    blockers_placed: u64,
}

impl OcclusionScratch {
    pub fn new() -> OcclusionScratch {
        OcclusionScratch::default()
    }

    /// Occlusion passes run through this scratch.
    pub fn occlusions(&self) -> u64 {
        self.occlusions
    }

    /// Blockers placed by this scratch's frame builds (frames built ×
    /// blocker count) — against [`Self::occlusions`], how often a frame
    /// was reused.
    pub fn blockers_placed(&self) -> u64 {
        self.blockers_placed
    }
}

/// Source of [`DynamicEnvironment`] identities (frame keys).
static NEXT_ENV_ID: AtomicU64 = AtomicU64::new(0);

/// Static walls + moving blockers.
pub struct DynamicEnvironment {
    id: u64,
    statics: Environment,
    blockers: Vec<Blocker>,
    lambda_m: f64,
}

impl std::fmt::Debug for DynamicEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicEnvironment")
            .field("walls", &self.statics.walls.len())
            .field("blockers", &self.blockers.len())
            .finish()
    }
}

impl DynamicEnvironment {
    pub fn new(
        statics: Environment,
        blockers: Vec<Blocker>,
        carrier: Carrier,
    ) -> DynamicEnvironment {
        DynamicEnvironment {
            // Relaxed: the id publishes no other data; only its
            // uniqueness matters, which the atomic add guarantees.
            id: NEXT_ENV_ID.fetch_add(1, Ordering::Relaxed),
            statics,
            blockers,
            lambda_m: carrier.wavelength_m(),
        }
    }

    /// The static walls — what [`st_phy::LinkChannel::trace_into`] traces
    /// against before the occlusion pass.
    pub fn statics(&self) -> &Environment {
        &self.statics
    }

    pub fn blocker_count(&self) -> usize {
        self.blockers.len()
    }

    pub fn blockers(&self) -> &[Blocker] {
        &self.blockers
    }

    /// Place every blocker at `t_s` into `scratch`'s frame, in blocker
    /// order, unless the frame already holds this environment at `t_s`.
    fn place(&self, t_s: f64, scratch: &mut OcclusionScratch) {
        let key = Some((self.id, t_s.to_bits()));
        if scratch.key == key {
            return;
        }
        scratch.frame.clear();
        scratch.frame.extend(self.blockers.iter().map(|b| {
            let seg = b.segment_at(t_s);
            let mut bounds = Aabb::of_segment(seg);
            bounds.pad(1e-9);
            Placed {
                seg,
                bounds,
                cap: b.shadow_cap(),
            }
        }));
        scratch.key = key;
        scratch.blockers_placed += self.blockers.len() as u64;
    }

    /// Fold the occlusion losses of the blockers at `t_s` into an
    /// already-traced snapshot of the link `tx → rx`.
    ///
    /// Every ray is tested leg-by-leg (direct ray: one leg; reflected
    /// ray: tx→bounce and bounce→rx) against the blockers whose box
    /// overlaps the ray hull, in blocker order; a crossing adds the
    /// knife-edge loss of [`crate::leg_occlusion`]. A blocker clear of
    /// every leg contributes exactly zero — the sample gains stay
    /// bit-identical, which is what keeps opt-out scenarios (and clear
    /// instants of opt-in ones) byte-stable.
    pub fn occlude(
        &self,
        t_s: f64,
        tx: Vec2,
        rx: Vec2,
        set: &mut PathSet,
        scratch: &mut OcclusionScratch,
    ) {
        scratch.occlusions += 1;
        if self.blockers.is_empty() || set.is_empty() {
            return;
        }
        self.place(t_s, scratch);
        // The ray hull: every leg endpoint is tx, rx or a bounce point.
        let mut hull = Aabb::of_segment(Segment::new(tx, rx));
        for ray in set.rays() {
            if let Some(v) = ray.via {
                hull.grow(v);
            }
        }
        let OcclusionScratch {
            frame, candidates, ..
        } = scratch;
        candidates.clear();
        candidates.extend(
            frame
                .iter()
                .filter(|p| p.bounds.overlaps(&hull))
                .map(|p| (p.seg, p.cap)),
        );
        if candidates.is_empty() {
            return;
        }
        let lambda = self.lambda_m;
        set.attenuate(|ray| {
            let mut loss = Db::ZERO;
            for &(seg, cap) in candidates.iter() {
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

    /// Total occlusion loss the blockers at `t_s` inflict on the bare
    /// direct path `tx → rx` (no trace needed) — a cheap probe for tests
    /// and figure code.
    pub fn los_loss(&self, t_s: f64, tx: Vec2, rx: Vec2) -> Db {
        let mut loss = Db::ZERO;
        for b in &self.blockers {
            loss += leg_occlusion(tx, rx, b.segment_at(t_s), b.shadow_cap(), self.lambda_m);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocker::Orientation;
    use st_mobility::{Stationary, Vehicular};
    use st_phy::geometry::Radians;

    fn carrier() -> Carrier {
        Carrier::MM_WAVE_60GHZ
    }

    fn standing_at(x: f64, y: f64) -> Blocker {
        Blocker::pedestrian(Box::new(Stationary::at(Vec2::new(x, y), Radians(0.0))))
            .with_orientation(Orientation::Fixed(Radians(std::f64::consts::FRAC_PI_2)))
    }

    /// The loss the frame's candidates inflict on the bare direct path
    /// `tx → rx` at `t_s`, through `scratch`.
    fn frame_los_loss(
        env: &DynamicEnvironment,
        t_s: f64,
        tx: Vec2,
        rx: Vec2,
        scratch: &mut OcclusionScratch,
    ) -> Db {
        env.place(t_s, scratch);
        let hull = Aabb::of_segment(Segment::new(tx, rx));
        scratch
            .frame
            .iter()
            .filter(|p| p.bounds.overlaps(&hull))
            .map(|p| leg_occlusion(tx, rx, p.seg, p.cap, env.lambda_m))
            .fold(Db::ZERO, |a, b| a + b)
    }

    #[test]
    fn frame_agrees_bit_for_bit_with_los_loss_at_every_instant() {
        // A bus driving down the street crosses the LOS around t ≈ 1.1 s,
        // among pedestrians standing clear of and on the link.
        let bus = Blocker::bus(Box::new(Vehicular::paper_vehicular(
            Vec2::new(-20.0, 2.0),
            Radians(0.0),
        )));
        let env = DynamicEnvironment::new(
            Environment::open(),
            vec![standing_at(30.0, 0.0), bus, standing_at(0.0, 7.0)],
            carrier(),
        );
        let (tx, rx) = (Vec2::new(0.0, 10.0), Vec2::new(0.0, -5.0));
        let mut scratch = OcclusionScratch::new();
        for k in 0..400 {
            let t = k as f64 * 0.01;
            // `los_loss` tests every blocker; the frame may only drop
            // blockers whose box misses the link.
            let want = env.los_loss(t, tx, rx);
            assert_eq!(
                frame_los_loss(&env, t, tx, rx, &mut scratch),
                want,
                "t = {t}"
            );
        }
        assert_eq!(scratch.blockers_placed(), 400 * 3);
        // And the bus really does cross at some point.
        let peak = (0..400)
            .map(|k| env.los_loss(k as f64 * 0.01, tx, rx).0)
            .fold(0.0f64, f64::max);
        assert!(peak > 10.0, "bus never shadowed the link: {peak}");
    }

    #[test]
    fn reused_frame_is_never_stale() {
        let bus = |x: f64, y: f64| {
            Blocker::bus(Box::new(Vehicular::paper_vehicular(
                Vec2::new(x, y),
                Radians(0.0),
            )))
        };
        let a = DynamicEnvironment::new(Environment::open(), vec![bus(-20.0, 2.0)], carrier());
        let b = DynamicEnvironment::new(Environment::open(), vec![bus(-24.0, -1.0)], carrier());
        let (tx, rx) = (Vec2::new(0.0, 10.0), Vec2::new(0.0, -5.0));
        // t: the instant the bus of `a` shadows the link hardest.
        let t = (0..400)
            .map(|k| k as f64 * 0.01)
            .max_by(|&x, &y| a.los_loss(x, tx, rx).0.total_cmp(&a.los_loss(y, tx, rx).0))
            .unwrap();
        let t2 = t + 1.5;
        let fresh = |env: &DynamicEnvironment, t_s: f64| {
            frame_los_loss(env, t_s, tx, rx, &mut OcclusionScratch::new())
        };
        assert!(fresh(&a, t).0 > 10.0, "the bus shadows the link at t");
        // A stale frame would be caught: every pair of frames differs.
        assert_ne!(fresh(&a, t), fresh(&b, t));
        assert_ne!(fresh(&a, t), fresh(&a, t2));
        assert_ne!(fresh(&b, t), fresh(&b, t2));
        // One scratch across both environments and the instants t, t', t.
        let mut shared = OcclusionScratch::new();
        for (env, t_s) in [(&a, t), (&b, t), (&a, t2), (&a, t), (&b, t2), (&b, t)] {
            let got = frame_los_loss(env, t_s, tx, rx, &mut shared);
            assert_eq!(got, fresh(env, t_s), "t = {t_s}");
        }
        // Repeating an instant of the same environment reuses the frame.
        let placed = shared.blockers_placed();
        frame_los_loss(&b, t, tx, rx, &mut shared);
        assert_eq!(shared.blockers_placed(), placed);
    }

    #[test]
    fn clear_blocker_leaves_snapshot_untouched() {
        use rand::rngs::StdRng;
        use rand::SeedableRng as _;
        use st_phy::channel::{ChannelConfig, LinkChannel};

        let walls = Environment::street_canyon(100.0, 20.0);
        let env = DynamicEnvironment::new(
            walls.clone(),
            vec![standing_at(0.0, 40.0)], // far outside the canyon
            carrier(),
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
        let (tx, rx) = (Vec2::new(-10.0, 3.0), Vec2::new(12.0, -2.0));
        let mut a = PathSet::new();
        ch.trace_into(&mut rng, &walls, tx, rx, &mut a);
        let before: Vec<_> = a.samples().to_vec();
        let mut scratch = OcclusionScratch::new();
        env.occlude(0.5, tx, rx, &mut a, &mut scratch);
        for (x, y) in before.iter().zip(a.samples()) {
            assert_eq!(x.gain, y.gain, "bit-identical when clear");
        }
    }

    #[test]
    fn blocker_on_los_attenuates_only_the_crossed_legs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng as _;
        use st_phy::channel::{ChannelConfig, LinkChannel};

        let walls = Environment::street_canyon(100.0, 20.0);
        // Standing mid-way on the direct path, well clear of the
        // reflection bounce points at y = ±10.
        let env = DynamicEnvironment::new(walls.clone(), vec![standing_at(0.0, 0.0)], carrier());
        let mut rng = StdRng::seed_from_u64(8);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::deterministic());
        let (tx, rx) = (Vec2::new(-10.0, 0.0), Vec2::new(10.0, 0.0));
        let mut set = PathSet::new();
        ch.trace_into(&mut rng, &walls, tx, rx, &mut set);
        let before: Vec<_> = set.samples().to_vec();
        let mut scratch = OcclusionScratch::new();
        env.occlude(0.0, tx, rx, &mut set, &mut scratch);
        for (x, y) in before.iter().zip(set.samples()) {
            if y.is_los {
                assert!(y.gain.0 < x.gain.0 - 3.0, "LOS not shadowed");
            } else {
                assert_eq!(x.gain, y.gain, "reflection wrongly shadowed");
            }
        }
    }
}
