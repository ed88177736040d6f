//! Where and on what a report was measured.

use crate::json::{Fields, Slot, Visit};
use std::process::Command;

/// Host facts the adversarial and fault-injection reports state next to
/// their numbers: the machine, toolchain and revision that produced them,
/// and the SHA-256 kernel the CPU selected. The kernel moves no counter
/// (digests are identical), but anything timed that authenticates packets
/// runs several times faster under `sha-ni` than under `portable`.
#[derive(Clone, Debug, Default)]
pub struct HostFacts {
    /// Logical cores available to the process.
    pub logical_cores: u64,
    /// CPU model string.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
    /// Short git revision of the tree (`-dirty` when it has local changes).
    pub git_rev: String,
    /// The SHA-256 kernel the CPU selected
    /// ([`dapes_crypto::sha256::kernel`]).
    pub sha256_kernel: &'static str,
}

/// First line of a command's stdout, or `"unknown"`.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

impl HostFacts {
    /// Reads the facts off the running host.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let mut git_rev = first_line_of("git", &["rev-parse", "--short", "HEAD"]);
        let dirty = Command::new("git")
            .args(["status", "--porcelain"])
            .output()
            .is_ok_and(|o| !o.stdout.is_empty());
        if dirty {
            git_rev.push_str("-dirty");
        }
        HostFacts {
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]),
            git_rev,
            sha256_kernel: dapes_crypto::sha256::kernel(),
        }
    }
}

/// The report's `host` block: written after `scenario`, read back into the
/// same facts.
impl Fields for HostFacts {
    fn fields(&mut self, f: &mut Visit<'_>) {
        f("logical_cores", Slot::Pos(&mut self.logical_cores));
        f("cpu_model", Slot::Text(&mut self.cpu_model));
        f("rustc", Slot::Text(&mut self.rustc));
        f("git_rev", Slot::Text(&mut self.git_rev));
        let kernels = &["sha-ni", "portable"];
        f(
            "sha256_kernel",
            Slot::Choice(&mut self.sha256_kernel, kernels),
        );
    }
}
