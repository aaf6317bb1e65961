//! Bakes the build provenance the run manifest reports: `rustc -V`, the
//! cargo profile and the repository's git revision (read from `.git`
//! directly, so no git binary is needed and a checkout without `.git`
//! simply reports `unknown`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("..").join(".git");
    let (rev, watched) = git_rev(&git);
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    // Watch only files that exist: a missing watched path would rerun
    // this script, and relink the benchmark, on every build.
    println!("cargo:rerun-if-changed=build.rs");
    for path in watched {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// The commit `HEAD` names, plus the files it was read from.
fn git_rev(git: &Path) -> (String, Vec<PathBuf>) {
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return ("unknown".into(), Vec::new());
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return (head.to_string(), vec![head_path]);
    };
    let ref_path = git.join(reference);
    if let Ok(rev) = std::fs::read_to_string(&ref_path) {
        return (rev.trim().to_string(), vec![head_path, ref_path]);
    }
    let packed_path = git.join("packed-refs");
    let packed = std::fs::read_to_string(&packed_path).unwrap_or_default();
    let rev = packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map_or_else(|| "unknown".to_string(), |(rev, _)| rev.to_string());
    let watched = [head_path, packed_path]
        .into_iter()
        .filter(|p| p.exists())
        .collect();
    (rev, watched)
}
