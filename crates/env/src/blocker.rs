//! Moving obstacles: a line segment carried by a mobility model.
//!
//! A blocker is the 2-D azimuth-plane cross-section of a real obstacle —
//! a pedestrian's torso, a car, a bus — approximated as a segment of
//! half-length `half_length_m` positioned and oriented by a
//! [`MobilityModel`] (the same trajectory machinery the UEs use). The
//! obstacle's *depth* along the propagation direction sets how much power
//! can leak through its body, which caps the knife-edge diffraction loss
//! at a finite value (see [`crate::diffraction`]).

use std::fmt;

use st_mobility::{BoxedModel, MobilityModel};
use st_phy::geometry::{Pose, Radians, Segment, Vec2};
use st_phy::units::Db;

/// City car speed used by the scenario library (20 mph).
pub const CAR_SPEED_MPS: f64 = 8.9408;
/// City bus cruising speed used by the scenario library.
pub const BUS_SPEED_MPS: f64 = 7.5;

/// How the blocker segment is oriented relative to its trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Orientation {
    /// Along the model's instantaneous heading (vehicles: the body
    /// stretches in the direction of travel).
    AlongHeading,
    /// At a fixed global bearing, independent of the trajectory (a
    /// shop-front shutter, scaffolding being wheeled around).
    Fixed(Radians),
}

/// One moving obstacle.
pub struct Blocker {
    model: BoxedModel,
    /// Half-extent of the blocking segment, metres.
    pub half_length_m: f64,
    /// Body depth along the propagation direction, metres. Deeper bodies
    /// are more opaque: the through-body loss cap grows with depth.
    pub depth_m: f64,
    /// Segment orientation rule.
    pub orient: Orientation,
    /// Specific absorption of the body material, dB per metre of depth.
    /// Water-rich bodies at 60 GHz absorb heavily (~70 dB/m effective);
    /// metal shells even more.
    pub absorption_db_per_m: f64,
    /// Base component of the through-body loss cap (surface reflection /
    /// scattering), dB.
    pub surface_loss_db: f64,
}

impl fmt::Debug for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blocker")
            .field("half_length_m", &self.half_length_m)
            .field("depth_m", &self.depth_m)
            .field("orient", &self.orient)
            .field("absorption_db_per_m", &self.absorption_db_per_m)
            .field("surface_loss_db", &self.surface_loss_db)
            .finish_non_exhaustive()
    }
}

impl Blocker {
    pub fn new(model: BoxedModel, half_length_m: f64, depth_m: f64) -> Blocker {
        assert!(half_length_m > 0.0 && depth_m > 0.0, "degenerate blocker");
        Blocker {
            model,
            half_length_m,
            depth_m,
            orient: Orientation::AlongHeading,
            absorption_db_per_m: 70.0,
            surface_loss_db: 10.0,
        }
    }

    /// A pedestrian: ~0.5 m wide torso, ~0.3 m deep. Shadow cap ≈ 31 dB,
    /// matching measured 60 GHz human-blockage depths of 20–35 dB.
    pub fn pedestrian(model: BoxedModel) -> Blocker {
        Blocker::new(model, 0.25, 0.3)
    }

    /// A passenger car: ~4.4 m long, ~1.8 m of body depth.
    pub fn car(model: BoxedModel) -> Blocker {
        Blocker::new(model, 2.2, 1.8)
    }

    /// A city bus: ~12 m long, ~2.6 m deep — the canonical street-canyon
    /// LOS killer. Its shadow is diffraction-limited (the through cap is
    /// far beyond any edge loss).
    pub fn bus(model: BoxedModel) -> Blocker {
        Blocker::new(model, 6.0, 2.6)
    }

    pub fn with_orientation(mut self, orient: Orientation) -> Blocker {
        self.orient = orient;
        self
    }

    /// The trajectory pose at scenario time `t_s`.
    pub fn pose_at(&self, t_s: f64) -> Pose {
        self.model.pose_at(t_s)
    }

    /// The blocking segment at scenario time `t_s`.
    pub fn segment_at(&self, t_s: f64) -> Segment {
        let pose = self.model.pose_at(t_s);
        let bearing = match self.orient {
            Orientation::AlongHeading => pose.heading,
            Orientation::Fixed(b) => b,
        };
        let half = Vec2::from_angle(bearing) * self.half_length_m;
        Segment::new(pose.position - half, pose.position + half)
    }

    /// The through-body loss cap: no matter how deep behind the edge the
    /// crossing point sits, at least this much power leaks *through* the
    /// obstacle — the "sharp but finite" part of the shadow.
    pub fn shadow_cap(&self) -> Db {
        Db(self.surface_loss_db + self.depth_m * self.absorption_db_per_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_mobility::{Stationary, Vehicular};

    #[test]
    fn segment_follows_heading() {
        let b = Blocker::bus(Box::new(Vehicular::paper_vehicular(
            Vec2::new(-10.0, 2.0),
            Radians(0.0),
        )));
        let s = b.segment_at(0.0);
        // Travelling along +x: the body stretches along x at y ≈ 2
        // (mount vibration wobbles the heading by ≤ 1.5°).
        assert!((s.a.x - (-16.0)).abs() < 0.2, "{s:?}");
        assert!((s.b.x - (-4.0)).abs() < 0.2, "{s:?}");
        assert!((s.a.y - 2.0).abs() < 0.3 && (s.b.y - 2.0).abs() < 0.3);
        assert!((s.length() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_orientation_ignores_heading() {
        let b = Blocker::pedestrian(Box::new(Stationary::at(Vec2::ZERO, Radians(0.7))))
            .with_orientation(Orientation::Fixed(Radians(std::f64::consts::FRAC_PI_2)));
        let s = b.segment_at(3.0);
        assert!(s.a.x.abs() < 1e-12 && s.b.x.abs() < 1e-12);
        assert!((s.a.y + 0.25).abs() < 1e-12 && (s.b.y - 0.25).abs() < 1e-12);
    }

    #[test]
    fn presets_order_by_opacity() {
        let m = || -> BoxedModel { Box::new(Stationary::at(Vec2::ZERO, Radians(0.0))) };
        let ped = Blocker::pedestrian(m());
        let car = Blocker::car(m());
        let bus = Blocker::bus(m());
        assert!(ped.shadow_cap().0 < car.shadow_cap().0);
        assert!(car.shadow_cap().0 <= bus.shadow_cap().0);
        // A pedestrian's cap lands in the measured 20–35 dB band.
        assert!((20.0..=35.0).contains(&ped.shadow_cap().0));
    }
}
