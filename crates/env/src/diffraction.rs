//! Single knife-edge diffraction.
//!
//! At 60 GHz an obstacle edge behaves quasi-optically: a ray whose direct
//! path is cut loses power according to how deep the crossing point sits
//! inside the geometric shadow, measured in Fresnel-zone units. The ITU-R
//! P.526 approximation of the Fresnel integral gives the excess loss
//!
//! ```text
//! J(v) = 6.9 + 20·log10(√((v − 0.1)² + 1) + v − 0.1)   dB,  v > −0.78
//! ```
//!
//! where `v = h·√(2(d₁+d₂)/(λ·d₁·d₂))` is the diffraction parameter: `h`
//! the edge's penetration into the path, `d₁`/`d₂` the distances from the
//! edge to the two endpoints. The loss is *sharp* — J(0) ≈ 6 dB the
//! instant the edge touches the ray, tens of dB a metre behind a bus edge
//! — but *finite*: it saturates at the blocker's through-body absorption
//! cap ([`crate::Blocker::shadow_cap`]), so deeper obstacles cast darker
//! shadows. That finite, depth-parameterized floor is exactly what the
//! geometry-free on/off blockage process cannot express.

use st_phy::geometry::{Segment, Vec2};
use st_phy::units::Db;

/// ITU-R P.526 single knife-edge excess loss `J(v)` in dB. Zero for
/// `v ≤ −0.78` (edge well clear of the first Fresnel zone).
pub fn knife_edge_excess_db(v: f64) -> f64 {
    if v <= -0.78 {
        return 0.0;
    }
    let u = v - 0.1;
    6.9 + 20.0 * (u.hypot(1.0) + u).log10()
}

/// Occlusion loss a blocker segment inflicts on one ray leg `p → q`.
///
/// Zero — exactly [`Db::ZERO`], leaving the sample bit-identical — when
/// the segment does not cross the leg. On a crossing, the loss is the
/// knife-edge excess of diffracting around the *nearest* blocker edge
/// (the cheapest way around in the azimuth plane), capped by the
/// through-body absorption `cap`.
pub fn leg_occlusion(p: Vec2, q: Vec2, seg: Segment, cap: Db, lambda_m: f64) -> Db {
    // A crossing lies on both segments, so inside both bounding boxes.
    // For nearly collinear segments `Segment::intersect` is badly
    // conditioned and can report a crossing of segments whose boxes are
    // apart; such a pair is clear. (This also makes a box cull in front
    // of this test exact.)
    if seg.a.x.max(seg.b.x) < p.x.min(q.x)
        || p.x.max(q.x) < seg.a.x.min(seg.b.x)
        || seg.a.y.max(seg.b.y) < p.y.min(q.y)
        || p.y.max(q.y) < seg.a.y.min(seg.b.y)
    {
        return Db::ZERO;
    }
    let Some((_, x)) = seg.intersect(p, q) else {
        return Db::ZERO;
    };
    let d1 = p.distance(x);
    let d2 = x.distance(q);
    if d1 < 1e-9 || d2 < 1e-9 {
        // An endpoint is inside the blocker: only the through path exists.
        return cap;
    }
    // Edge penetration `h` is the *perpendicular* clearance of the
    // nearest blocker endpoint from the ray line — the offset the
    // diffracted path must detour around — not the distance along the
    // blocker to the crossing point (which would over-attenuate oblique
    // crossings: a bus clipping a ray at a shallow angle has a nearby
    // edge even though the crossing sits metres from either end).
    let dir = (q - p).normalized();
    let clearance = |e: Vec2| {
        let ap = e - p;
        (ap - dir * ap.dot(dir)).norm()
    };
    let h = clearance(seg.a).min(clearance(seg.b));
    // …converted to the Fresnel diffraction parameter.
    let v = h * (2.0 * (d1 + d2) / (lambda_m * d1 * d2)).sqrt();
    Db(knife_edge_excess_db(v)).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAMBDA_60GHZ: f64 = 0.005;

    #[test]
    fn knife_edge_curve_shape() {
        // Clear path: no loss.
        assert_eq!(knife_edge_excess_db(-1.0), 0.0);
        // Grazing incidence: ≈ 6 dB (half the wavefront blocked).
        assert!((knife_edge_excess_db(0.0) - 6.03).abs() < 0.05);
        // Monotone increasing into the shadow.
        let mut prev = 0.0;
        for i in 0..100 {
            let j = knife_edge_excess_db(i as f64 * 0.25);
            assert!(j >= prev, "J not monotone at v = {}", i as f64 * 0.25);
            prev = j;
        }
        // Deep shadow: large but finite.
        assert!(knife_edge_excess_db(10.0) > 25.0);
        assert!(knife_edge_excess_db(10.0) < 40.0);
    }

    #[test]
    fn clear_leg_is_exactly_zero() {
        let seg = Segment::new(Vec2::new(5.0, 1.0), Vec2::new(5.0, 3.0));
        let loss = leg_occlusion(
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
            seg,
            Db(30.0),
            LAMBDA_60GHZ,
        );
        assert_eq!(loss, Db::ZERO);
    }

    #[test]
    fn crossing_leg_pays_at_least_grazing_loss() {
        // A 0.5 m "torso" centred on the ray, 5 m from either end.
        let seg = Segment::new(Vec2::new(5.0, -0.25), Vec2::new(5.0, 0.25));
        let loss = leg_occlusion(
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
            seg,
            Db(31.0),
            LAMBDA_60GHZ,
        );
        // Edge 0.25 m off the crossing at 60 GHz: v ≈ 2.2 → ≈ 19 dB.
        assert!(loss.0 > 6.0, "{loss}");
        assert!(loss.0 < 31.0, "{loss}");
    }

    #[test]
    fn deeper_crossing_loses_more_until_the_cap() {
        let ray = (Vec2::ZERO, Vec2::new(20.0, 0.0));
        // A long wall-like blocker crossing the ray; slide the crossing
        // point deeper behind the near edge.
        let mut prev = Db::ZERO;
        for edge in [0.1, 0.5, 1.0, 3.0, 8.0] {
            let seg = Segment::new(Vec2::new(10.0, -edge), Vec2::new(10.0, 100.0));
            let loss = leg_occlusion(ray.0, ray.1, seg, Db(60.0), LAMBDA_60GHZ);
            assert!(loss.0 >= prev.0, "edge {edge}: {loss} < {prev}");
            prev = loss;
        }
        // The cap binds for an effectively infinite wall.
        let seg = Segment::new(Vec2::new(10.0, -1e4), Vec2::new(10.0, 1e4));
        let loss = leg_occlusion(ray.0, ray.1, seg, Db(25.0), LAMBDA_60GHZ);
        assert_eq!(loss, Db(25.0));
    }

    #[test]
    fn oblique_crossing_uses_perpendicular_edge_clearance() {
        // A long blocker clipping the ray at a shallow angle: its near
        // endpoint sits 2 m from the crossing *along the blocker* but
        // only 0.2 m from the ray line. Diffracting around that edge is
        // cheap — the loss must reflect the 0.2 m clearance (≈ 18 dB),
        // not the along-segment distance (which would hit the cap).
        let seg = Segment::new(Vec2::new(12.0, -0.2), Vec2::new(-8.0, 1.8));
        let loss = leg_occlusion(
            Vec2::ZERO,
            Vec2::new(20.0, 0.0),
            seg,
            Db(60.0),
            LAMBDA_60GHZ,
        );
        assert!(loss.0 > 6.0, "{loss}");
        assert!(loss.0 < 25.0, "{loss}");
    }

    #[test]
    fn nearly_collinear_pair_with_boxes_apart_is_clear() {
        // A blocker on the extension of the leg, 0.35 µm past its end
        // and turned by 5e-10 rad: `intersect` reports a crossing its
        // rounding made up; the boxes are apart, so there is none.
        let p = Vec2::new(69.65163730379345, 13.99560032789747);
        let q = Vec2::new(-79.73718359318474, 6.797374238963556);
        let seg = Segment::new(
            Vec2::new(-81.2132124331821, 6.726252523700346),
            Vec2::new(-79.73718394324732, 6.797374222095965),
        );
        assert!(seg.intersect(p, q).is_some());
        let loss = leg_occlusion(p, q, seg, Db(31.0), LAMBDA_60GHZ);
        assert_eq!(loss, Db::ZERO);
    }

    #[test]
    fn endpoint_inside_blocker_pays_the_cap() {
        let seg = Segment::new(Vec2::new(0.0, -1.0), Vec2::new(0.0, 1.0));
        let loss = leg_occlusion(
            Vec2::ZERO,
            Vec2::new(10.0, 0.0),
            seg,
            Db(31.0),
            LAMBDA_60GHZ,
        );
        assert_eq!(loss, Db(31.0));
    }
}
