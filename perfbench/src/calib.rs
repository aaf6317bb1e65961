//! The reference clock: a fixed CPU-bound loop, timed in short slices
//! right before and after each measured piece of work, that converts the
//! piece's CPU seconds into reference seconds.
//!
//! On a shared host the speed of a CPU-second changes from moment to
//! moment: other guests' work on the same physical core (hyper-thread
//! siblings, shared caches) slows this process's instructions without
//! taking its vCPU away, so CPU time alone does not remove it. On a
//! shared 2-vCPU Xeon virtual machine the simulator's throughput per
//! CPU-second moved by ±15% from one arm to the next and by a factor of 2
//! between quiet and busy stretches. The loop below mixes the same kinds
//! of work as the simulator (transcendental and multiply-add floating
//! point, data-dependent branches) and does not depend on the
//! repository's code, so a change to the program moves only the
//! simulator's side of the ratio, and two commits measured in the same
//! host state compare exactly as their CPU times do.
//!
//! The simulator is the more sensitive of the two: over 120 arms of
//! `street-1k` and `blockage-dense` interleaved with slices, the log of
//! its per-CPU-second speed moved 1.3 to 1.8 times as far as the log of
//! the loop's (regression slope over single arms and over blocks of five),
//! so CPU seconds are scaled by the loop's relative speed to the power
//! [`ELASTICITY`]. That cut the arm-to-arm standard deviation of the
//! simulator's log speed from 0.13–0.16 to 0.08–0.10.

use std::f64::consts::TAU;
use std::hint::black_box;

use crate::live::process_cpu_s;

/// The reference loop's rate, in iterations per CPU-second, on the
/// reference host: a CPU-second there is one reference second. Round, and
/// above what one busy vCPU of the measuring host does.
pub const REF_RATE: f64 = 1e7;

/// How far the simulator's speed moves, in log, per unit move of the
/// reference loop's.
pub const ELASTICITY: f64 = 1.5;

/// Iterations per slice: about 80 ms of CPU on the measuring host.
const SLICE_ITERS: u32 = 400_000;

/// One step of xorshift64.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference loop: `iters` iterations of a fixed instruction mix.
/// Returns a checksum so the work cannot be optimised away.
fn reference_loop(iters: u32) -> f64 {
    let mut s = 0x9E37_79B9_7F4A_7C15_u64;
    let mut trans = 0.0;
    let mut chains = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    let mut int_acc = 0u64;
    for _ in 0..iters {
        let v = xorshift(&mut s);
        let x = (v >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        trans += (x * TAU).sin() * (x * 3.0).cos() + (x + 1.0).ln() + (-x).exp() + x.sqrt();
        for _ in 0..24 {
            for c in &mut chains {
                *c = *c * 0.999_999 + 1e-7;
            }
        }
        let mut w = v;
        for _ in 0..9 {
            xorshift(&mut w);
            if w & 1 == 0 {
                int_acc = int_acc.wrapping_add(w >> 3);
            } else if w & 6 == 2 {
                int_acc ^= w;
            } else {
                int_acc = int_acc.rotate_left(5);
            }
        }
    }
    trans + chains.iter().sum::<f64>() + int_acc as f64
}

/// Reference-loop rate around the measured work, in iterations per
/// CPU-second.
#[derive(Debug)]
pub struct RefClock {
    /// Rate of the latest slice.
    last: f64,
    /// Every slice's rate, for the run's printout.
    pub rates: Vec<f64>,
}

impl RefClock {
    /// A clock with one slice taken, ready to time the next piece of work.
    pub fn new() -> RefClock {
        let mut clock = RefClock {
            last: 0.0,
            rates: Vec::new(),
        };
        clock.slice();
        clock
    }

    /// Time one slice; returns its rate.
    pub fn slice(&mut self) -> f64 {
        let c0 = process_cpu_s();
        black_box(reference_loop(black_box(SLICE_ITERS)));
        self.last = f64::from(SLICE_ITERS) / (process_cpu_s() - c0);
        self.rates.push(self.last);
        self.last
    }

    /// Reference seconds worth `cpu_s` CPU seconds just spent, at the
    /// geometric mean of the rates of the slice before the work (the
    /// latest one) and a slice taken now, after it.
    pub fn ref_s(&mut self, cpu_s: f64) -> f64 {
        let before = self.last;
        let after = self.slice();
        cpu_s * ((before * after).sqrt() / REF_RATE).powf(ELASTICITY)
    }
}
