//! # st-bench — the figure-regeneration harness
//!
//! One module per paper artefact (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | experiment | paper artefact | binary |
//! |---|---|---|
//! | [`fig2a`] | Fig. 2a search latency + success rate | `cargo run -p st-bench --release --bin fig2a` |
//! | [`fig2c`] | Fig. 2c tracking/handover CDF | `cargo run -p st-bench --release --bin fig2c` |
//! | [`init_access`] | §1 "up to 1.28 s" initial-search bound | `cargo run -p st-bench --release --bin init_access` |
//! | [`interruption`] | §1/§2 soft vs hard handover motivation | `cargo run -p st-bench --release --bin interruption` |
//! | [`ablation`] | design-choice sensitivity (DESIGN.md E6) | `cargo run -p st-bench --release --bin ablation` |
//! | [`resource`] | measurement-gap duty-cycle trade-off (E7) | `cargo run -p st-bench --release --bin resource` |
//! | [`robustness`] | pedestrian-blockage sweep (E8) | `cargo run -p st-bench --release --bin robustness` |
//! | [`patterns`] | sectored vs true-ULA antenna realism (E9) | `cargo run -p st-bench --release --bin patterns` |
//! | [`fleet_load`] | soft vs hard handover under fleet-scale PRACH load | `cargo run -p st-bench --release --bin fleet_load` |
//! | [`blockage_study`] | silent vs reactive under moving geometric blockers | `cargo run -p st-bench --release --bin blockage_study` |
//!
//! Criterion micro/scenario benches live in `benches/`.

pub mod ablation;
pub mod blockage_study;
pub mod fig2a;
pub mod fig2c;
pub mod fleet_load;
pub mod init_access;
pub mod interruption;
pub mod patterns;
pub mod resource;
pub mod robustness;
pub mod runner;

use st_fleet::FleetOutcome;

/// The parsed value that follows `flag` on a command line. `Err` says
/// what is missing or malformed; the binaries print it with their usage
/// and exit with code 2.
pub fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("bad value `{raw}` for {flag}"))
}

/// Refuse truncated results: `Err` names every labelled fleet whose
/// shards ran out of their DES event budget — its metrics would cover
/// only part of the run.
pub fn check_budgets<'a>(
    fleets: impl IntoIterator<Item = (String, &'a FleetOutcome)>,
) -> Result<(), String> {
    let exhausted: Vec<String> = fleets
        .into_iter()
        .filter(|(_, out)| out.totals.budget_exhausted_shards > 0)
        .map(|(label, out)| {
            format!(
                "{label} ({} shards out of event budget)",
                out.totals.budget_exhausted_shards
            )
        })
        .collect();
    if exhausted.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "truncated runs, metrics withheld: {}",
            exhausted.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_values_parse_or_say_why_not() {
        let mut args = ["4", "x"].map(String::from).into_iter();
        assert_eq!(flag_value::<usize>(&mut args, "--workers"), Ok(4));
        assert_eq!(
            flag_value::<usize>(&mut args, "--workers"),
            Err("bad value `x` for --workers".to_string())
        );
        assert_eq!(
            flag_value::<usize>(&mut args, "--workers"),
            Err("--workers needs a value".to_string())
        );
    }
}
