//! The dynamic environment: static walls plus moving blockers, with a
//! per-instant occlusion pass over an already-traced path snapshot.
//!
//! Integration contract (kept by `st_net::radio::LinkSet`):
//!
//! 1. trace the link once per (instant, position) into its reusable
//!    [`PathSet`] against the *static* walls ([`DynamicEnvironment::statics`]);
//! 2. call [`DynamicEnvironment::occlude`] on the snapshot — every ray
//!    leg is tested against the blockers near it at that instant and
//!    knife-edge losses are folded into the sample gains in place.
//!
//! The pass is zero-allocation in steady state (the frame scratch is
//! caller-owned and sized at placement to the blocker count), consumes
//! no RNG draws, and is a pure function of time — so occluded runs remain
//! bit-identical across shard and worker counts.
//!
//! ## The per-instant frame
//!
//! A fleet measures many links at one instant (every UE of a shard at an
//! SSB burst), and every one of them sees the same blocker positions.
//! The caller-owned [`OcclusionScratch`] is therefore a *frame*: the
//! first `occlude` at a new instant places every blocker once — its
//! segment, bounding box (padded by 1e-9 m) and loss cap — and every
//! later call at the same instant only searches the frame. The frame is
//! keyed on the environment's identity and the bits of the instant, so a
//! scratch shared across environments or instants never serves a stale
//! placement.
//!
//! Placement also sorts the blocker indices by box `min.x` (ties by
//! blocker index) and records the widest box x-extent. Blockers move
//! little between instants, so the sort starts from the previous frame's
//! order and an insertion sort runs in about linear time. A query then
//! searches each ray leg on its own: a binary search finds the first
//! blocker whose `min.x` is within the widest extent left of the leg's
//! box, a scan up to the leg's `max.x` keeps the blockers whose box
//! overlaps the leg's box, and only those reach the exact
//! [`leg_occlusion`] test.
//!
//! The search visits blockers in x order, but a ray's loss is summed in
//! blocker order, then leg order — the order of a plain loop over every
//! blocker and every leg. The nonzero losses of a ray are recorded with
//! their (blocker, leg) and sorted before they are added; a skipped
//! pair contributes exactly [`Db::ZERO`] to that loop, and adding zero is
//! exact, so the gains are bit-identical to testing every pair.

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
        Aabb {
            min: Vec2::new(s.a.x.min(s.b.x), s.a.y.min(s.b.y)),
            max: Vec2::new(s.a.x.max(s.b.x), s.a.y.max(s.b.y)),
        }
    }

    fn pad(&mut self, r: f64) {
        self.min.x -= r;
        self.min.y -= r;
        self.max.x += r;
        self.max.y += r;
    }
}

/// A blocker placed at the frame's instant: its index, its exact
/// segment, the segment's padded bounding box and its through-body loss
/// cap.
#[derive(Debug, Clone, Copy)]
struct Placed {
    blocker: u32,
    seg: Segment,
    bounds: Aabb,
    cap: Db,
}

impl Placed {
    /// The frame's sort order: box `min.x`, ties by blocker index.
    fn precedes(&self, other: &Placed) -> bool {
        self.bounds
            .min
            .x
            .total_cmp(&other.bounds.min.x)
            .then(self.blocker.cmp(&other.blocker))
            .is_lt()
    }
}

/// A nonzero loss found by the search of the current ray: the blocker,
/// the leg (0: from tx, 1: to rx) and the loss.
type Hit = (u32, u8, Db);

/// Caller-owned frame for [`DynamicEnvironment::occlude`]: every blocker
/// placed at one instant of one environment, sorted by box `min.x`, and
/// the buffers of the current query. Whoever owns the instant owns the
/// scratch (a fleet shard keeps one for all its UEs), so every link
/// measured at that instant reuses one placement; every buffer is sized
/// at placement, so steady-state occlusion allocates nothing.
#[derive(Debug, Default)]
pub struct OcclusionScratch {
    /// (environment id, `t_s` bits) the frame was placed for.
    key: Option<(u64, u64)>,
    /// The placed blockers, sorted by [`Placed::precedes`]. The next
    /// placement re-places them in this order and sorts from it.
    frame: Vec<Placed>,
    /// The frame's boxes, one array per bound, in frame order.
    min_x: Vec<f64>,
    max_x: Vec<f64>,
    min_y: Vec<f64>,
    max_y: Vec<f64>,
    /// The widest box x-extent of the frame.
    widest: f64,
    /// The widest box extent along either axis.
    reach: f64,
    /// Frame positions of the blockers that pass a leg's filters.
    survivors: Vec<u32>,
    hits: Vec<Hit>,
    occlusions: u64,
    blockers_placed: u64,
    leg_tests: u64,
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

    /// Exact [`leg_occlusion`] tests run by this scratch's searches: the
    /// (blocker, leg) pairs that pass the box and side filters.
    pub fn leg_tests(&self) -> u64 {
        self.leg_tests
    }

    /// Re-place the frame's blockers at `t_s`, sort them, and size the
    /// query buffers. The sort is an insertion sort from the previous
    /// frame's order: blockers move little between instants, so it runs
    /// in about linear time, and it allocates nothing.
    fn place(&mut self, blockers: &[Blocker], t_s: f64) {
        let n = blockers.len();
        let place = |blocker: u32| {
            let b = &blockers[blocker as usize];
            let seg = b.segment_at(t_s);
            let mut bounds = Aabb::of_segment(seg);
            bounds.pad(1e-9);
            Placed {
                blocker,
                seg,
                bounds,
                cap: b.shadow_cap(),
            }
        };
        if self.frame.len() == n {
            for placed in &mut self.frame {
                *placed = place(placed.blocker);
            }
        } else {
            // First frame, or another environment's: start in blocker
            // order. (Any order of this many blockers would do.)
            self.frame.clear();
            self.frame.extend((0..n as u32).map(place));
        }
        for k in 1..n {
            let moving = self.frame[k];
            let mut j = k;
            while j > 0 && moving.precedes(&self.frame[j - 1]) {
                self.frame[j] = self.frame[j - 1];
                j -= 1;
            }
            self.frame[j] = moving;
        }
        self.min_x.clear();
        self.max_x.clear();
        self.min_y.clear();
        self.max_y.clear();
        let (mut widest, mut tallest) = (0.0f64, 0.0f64);
        for b in self.frame.iter().map(|p| p.bounds) {
            self.min_x.push(b.min.x);
            self.max_x.push(b.max.x);
            self.min_y.push(b.min.y);
            self.max_y.push(b.max.y);
            widest = widest.max(b.max.x - b.min.x);
            tallest = tallest.max(b.max.y - b.min.y);
        }
        self.widest = widest;
        self.reach = widest.max(tallest);
        self.survivors.clear();
        self.survivors.resize(n, 0);
        self.hits.reserve(2 * n);
    }

    /// Record in `hits` the nonzero loss of every placed blocker on the
    /// leg `p → q` (numbered `leg`). Only the blockers whose padded box
    /// overlaps the leg's box and whose segment is not strictly on one
    /// side of the leg's line reach the exact [`leg_occlusion`] test.
    ///
    /// Neither filter drops a nonzero loss. [`leg_occlusion`] is exactly
    /// zero for a pair whose boxes are apart, and a padded box contains
    /// the exact one. The window's lower edge `min.x − widest` can be a
    /// few ulps tight; a blocker it drops still ends about the pad
    /// (1e-9 m, far above the ulps of coordinates below 10⁵ m) short of
    /// the leg's `min.x`. The side filter is proven in [`side_bound`].
    fn search_leg(&mut self, p: Vec2, q: Vec2, leg: u8, lambda_m: f64) {
        let bb = Aabb::of_segment(Segment::new(p, q));
        let start = bb.min.x - self.widest;
        let lo = self.min_x.partition_point(|&x| x < start);
        let hi = lo + self.min_x[lo..].partition_point(|&x| x <= bb.max.x);
        // Branch-free box filter over the window: every slot is written,
        // the count only advances past survivors.
        let mut found = 0;
        for (k, (&max_x, (&min_y, &max_y))) in self.max_x[lo..hi]
            .iter()
            .zip(self.min_y[lo..hi].iter().zip(&self.max_y[lo..hi]))
            .enumerate()
        {
            self.survivors[found] = (lo + k) as u32;
            found += usize::from((max_x >= bb.min.x) & (min_y <= bb.max.y) & (max_y >= bb.min.y));
        }
        // Then a branch-free side filter, compacting in place. `s` and
        // the side values are computed exactly as `Segment::intersect`
        // computes its direction and numerator.
        let s = q - p;
        let bound = side_bound(s, self.reach);
        let mut straddling = 0;
        for i in 0..found {
            let k = self.survivors[i];
            let seg = self.frame[k as usize].seg;
            let side_a = (p - seg.a).cross(s);
            let side_b = (p - seg.b).cross(s);
            let clear = (side_a > bound) & (side_b > bound) | (side_a < -bound) & (side_b < -bound);
            self.survivors[straddling] = k;
            straddling += usize::from(!clear);
        }
        self.leg_tests += straddling as u64;
        for &k in &self.survivors[..straddling] {
            let placed = self.frame[k as usize];
            let loss = leg_occlusion(p, q, placed.seg, placed.cap, lambda_m);
            if loss != Db::ZERO {
                self.hits.push((placed.blocker, leg, loss));
            }
        }
    }

    /// The sum of the recorded losses in (blocker, leg) order; clears
    /// them.
    fn take_loss(&mut self) -> Db {
        self.hits
            .sort_unstable_by_key(|&(blocker, leg, _)| (blocker, leg));
        let loss = self
            .hits
            .iter()
            .fold(Db::ZERO, |acc, &(_, _, loss)| acc + loss);
        self.hits.clear();
        loss
    }
}

/// The margin beyond which a blocker segment `a → b` whose box
/// overlaps the box of the leg `p → q` (with `s = q − p`) is certainly
/// clear of the leg when its side values `A = (p − a) × s` and
/// `B = (p − b) × s`, as computed, both exceed it with one sign.
/// `reach` bounds every box extent of the frame, along either axis.
///
/// `Segment::intersect(p, q)` on the blocker reports a crossing only if
/// its computed `t = A / D` lies in [0, 1], where `D = (b − a) × s` and
/// `A` is computed exactly as here. With `u = ε/2` the unit roundoff,
/// each of the three computed cross products is off its exact value by
/// at most `γ₃·(|v.x·s.y| + |v.y·s.x|)`, `γ₃ = 3u/(1 − 3u)`, counting
/// the rounding of its difference vector `v`. The boxes overlap, so
/// `|p − a|∞, |p − b|∞ ≤ |s|∞ + reach` and `|b − a|∞ ≤ reach`: the three
/// errors sum to `E ≤ γ₃·|s|₁·(2|s|∞ + 3·reach)`, and the computed
/// `A ≤ (1 + γ₃)·|s|₁·(|s|∞ + reach)`.
///
/// Let `T` be the margin returned and take computed `A, B > T` (the
/// negative case is the mirror image). Exactly, `D = A − B`, so the
/// computed `D ≤ A − B + E`. If `D ≤ 0`, `t` is negative or the near-zero
/// denominator is refused. Otherwise `A − D ≥ B − E > T − E`, and
/// `T ≥ E·(1 + ε) + ε·A` gives `A − D > ε·(A + E) > ε·D`, so `A / D`
/// exceeds `1 + ε` and its rounding stays above one. Either way
/// [`leg_occlusion`] returns exactly zero. The condition on `T` asks for
/// at most `2.02·ε·|s|₁·(2|s|∞ + 3·reach)`; `T` is about four times that
/// (`|s|∞ ≤ |s|₁`), which also covers its own rounding and the ulps by
/// which box extents and `s` differ from exact. NaN compares above no
/// margin, so a NaN side value always goes to the exact test.
fn side_bound(s: Vec2, reach: f64) -> f64 {
    let l1 = s.x.abs() + s.y.abs();
    8.0 * f64::EPSILON * l1 * (2.0 * l1 + 3.0 * reach)
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

    /// Place every blocker at `t_s` into `scratch`'s frame, unless the
    /// frame already holds this environment at `t_s`.
    fn place(&self, t_s: f64, scratch: &mut OcclusionScratch) {
        let key = Some((self.id, t_s.to_bits()));
        if scratch.key == key {
            return;
        }
        scratch.place(&self.blockers, t_s);
        scratch.key = key;
        scratch.blockers_placed += self.blockers.len() as u64;
    }

    /// Fold the occlusion losses of the blockers at `t_s` into an
    /// already-traced snapshot of the link `tx → rx`.
    ///
    /// Every ray is searched leg by leg (direct ray: one leg; reflected
    /// ray: tx→bounce and bounce→rx) for the blockers whose box overlaps
    /// the leg's; a crossing adds the knife-edge loss of
    /// [`crate::leg_occlusion`], summed in blocker order, then leg order.
    /// A blocker clear of every leg contributes exactly zero — the sample
    /// gains stay bit-identical, which is what keeps opt-out scenarios
    /// (and clear instants of opt-in ones) byte-stable.
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
        let lambda = self.lambda_m;
        set.attenuate(|ray| {
            match ray.via {
                None => scratch.search_leg(tx, rx, 0, lambda),
                Some(bounce) => {
                    scratch.search_leg(tx, bounce, 0, lambda);
                    scratch.search_leg(bounce, rx, 1, lambda);
                }
            }
            scratch.take_loss()
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

    /// The loss the frame's search finds on the bare direct path
    /// `tx → rx` at `t_s`, through `scratch`.
    fn frame_los_loss(
        env: &DynamicEnvironment,
        t_s: f64,
        tx: Vec2,
        rx: Vec2,
        scratch: &mut OcclusionScratch,
    ) -> Db {
        env.place(t_s, scratch);
        scratch.search_leg(tx, rx, 0, env.lambda_m);
        scratch.take_loss()
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
    fn frame_is_sorted_by_min_x_then_blocker_index() {
        let sorted = |scratch: &OcclusionScratch| {
            scratch.frame.windows(2).all(|w| w[0].precedes(&w[1]))
                && scratch
                    .frame
                    .iter()
                    .zip(&scratch.min_x)
                    .all(|(p, &x)| p.bounds.min.x == x)
        };
        // Ties at x = 3 and x = -1 are broken by blocker index.
        let xs = [3.0, -1.0, 3.0, 7.5, -1.0, 0.0];
        let a = DynamicEnvironment::new(
            Environment::open(),
            xs.iter().map(|&x| standing_at(x, 0.0)).collect(),
            carrier(),
        );
        let b = DynamicEnvironment::new(
            Environment::open(),
            xs.iter().rev().map(|&x| standing_at(-x, 1.0)).collect(),
            carrier(),
        );
        let mut scratch = OcclusionScratch::new();
        a.place(0.0, &mut scratch);
        assert!(sorted(&scratch));
        let order: Vec<u32> = scratch.frame.iter().map(|p| p.blocker).collect();
        assert_eq!(order, [1, 4, 5, 0, 2, 3]);
        // Another environment of the same size sorts from this order.
        b.place(0.0, &mut scratch);
        assert!(sorted(&scratch));
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
