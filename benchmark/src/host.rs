//! Host facts for the report (ROADMAP item 0) and the start-up check that
//! the benchmark is compiled the way the repository is.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark package's directory, fixed at build time. The benchmark is
/// always built inside the checkout it measures.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// sorted, comments and blanks dropped.
fn release_profile(manifest: &Path) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let mut settings = Vec::new();
    let mut in_table = false;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[profile.release]";
        } else if in_table {
            if let Some((key, value)) = line.split_once('=') {
                settings.push((key.trim().to_owned(), value.trim().to_owned()));
            }
        }
    }
    settings.sort();
    Ok(settings)
}

/// Checks that `benchmark/Cargo.toml`'s `[profile.release]` mirrors the
/// repository manifest's, and returns the settings. The profile of the
/// package being built applies to every dependency, so a difference would
/// measure differently-compiled code.
pub fn check_release_profile() -> Result<Vec<(String, String)>, String> {
    let dir = benchmark_dir();
    let ours = release_profile(&dir.join("Cargo.toml"))?;
    let repo = release_profile(&dir.join("..").join("Cargo.toml"))?;
    if ours != repo {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {ours:?} differs from the repository manifest's {repo:?}"
        ));
    }
    Ok(ours)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Logical cores, CPU model, compiler, revision, dirty flag and the release
/// profile. Facts that cannot be had (no git in an exported checkout) are
/// recorded as `"unknown"`, never guessed.
pub fn facts(release_profile: &[(String, String)]) -> Value {
    let dir = benchmark_dir();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let unknown = || "unknown".to_owned();
    let git_dirty = command_line("git", &["status", "--porcelain"], &dir)
        .map_or(Value::from("unknown"), |s| Value::from(!s.is_empty()));
    Value::obj([
        (
            "logical_cores",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", Value::from(cpu_model)),
        (
            "rustc",
            Value::from(command_line("rustc", &["-V"], &dir).unwrap_or_else(unknown)),
        ),
        (
            "git_rev",
            Value::from(command_line("git", &["rev-parse", "HEAD"], &dir).unwrap_or_else(unknown)),
        ),
        ("git_dirty", git_dirty),
        (
            "release_profile",
            Value::obj(
                release_profile
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::from(v.clone()))),
            ),
        ),
        ("exec_profile", Value::from("default")),
        ("cores", Value::from(1u64)),
    ])
}
