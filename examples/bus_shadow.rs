//! Dynamic-environment demo: a walker crosses the cell overlap while a
//! bus route sweeps deep shadows down the street — geometric, correlated
//! blockage instead of the stochastic duty cycle.
//!
//! ```text
//! cargo run --release --example bus_shadow -- [--seed N] [--scenario bus_shadow|crowd]
//! ```
//!
//! Prints the blocker field's LOS occlusion of the serving link over
//! time (watch the shadow pass), then runs both protocol arms through
//! the identical world and compares outcomes.

use st_net::scenarios::{by_name, eval_config};
use st_net::ProtocolKind;
use st_phy::geometry::Vec2;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut seed = 2u64;
    let mut scenario = "bus_shadow".to_string();
    let mut i = 1;
    while i < argv.len() {
        let need = |i: usize| {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("missing value for {}", argv[i]))
        };
        match argv[i].as_str() {
            "--seed" => seed = need(i).parse().expect("seed"),
            "--scenario" => scenario.clone_from(need(i)),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }

    // The blocker field the scenario installs, rebuilt standalone so we
    // can probe it: LOS occlusion of the serving link over the run.
    let base = eval_config(ProtocolKind::SilentTracker);
    let blockers = match scenario.as_str() {
        "crowd" => st_env::crowd_crossing(12, (-15.0, 15.0), 30.0, seed),
        _ => st_env::bus_route(2, 200.0, 6.0, 8.0, seed),
    };
    let dynamics =
        st_env::DynamicEnvironment::new(base.environment.clone(), blockers, base.channel.carrier);
    println!("LOS occlusion of the serving link (cell0 -> walker start):");
    let (bs, ue) = (Vec2::new(-40.0, 10.0), Vec2::new(-4.0, 0.0));
    for k in 0..24 {
        let t = k as f64 * 0.5;
        let loss = dynamics.los_loss(t, bs, ue);
        let bar = "#".repeat((loss.0 / 2.0).min(30.0) as usize);
        println!("  t={t:5.1}s  {loss:>9}  {bar}");
    }
    println!();

    for protocol in [ProtocolKind::SilentTracker, ProtocolKind::Reactive] {
        let mut cfg = eval_config(protocol);
        cfg.duration = st_des::SimDuration::from_secs(12);
        let out = by_name(&scenario, &cfg, seed).run();
        let arm = match protocol {
            ProtocolKind::SilentTracker => "silent  ",
            ProtocolKind::Reactive => "reactive",
        };
        match (out.handover_complete_at, out.interruption) {
            (Some(t), Some(i)) => println!("{arm}: handover at {t}, interruption {i}"),
            (Some(t), None) => println!("{arm}: handover at {t}"),
            _ => println!(
                "{arm}: no handover (rlf: {})",
                out.rlf_at.map(|t| t.to_string()).unwrap_or("none".into())
            ),
        }
    }
}
