//! Benchmark profiles: the paper-scale configuration and a quick profile
//! that preserves the experiment structure at laptop-friendly cost.

use crate::scenario::ScenarioParams;
use dapes_netsim::time::SimTime;

/// How big to run the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Scaled-down workload, fewer trials: minutes instead of hours.
    Quick,
    /// The paper's §VI-B parameters (10 files × 1 MB, 10 trials).
    Paper,
}

impl Profile {
    /// Parses a `--profile` value; an unrecognised one is an error naming
    /// the accepted values, never a silent fall-back to the quick profile.
    pub fn parse(s: &str) -> Result<Profile, String> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Ok(Profile::Quick),
            "paper" | "full" => Ok(Profile::Paper),
            _ => Err(format!(
                "unknown profile {s:?}: expected quick|paper (`full` is an alias of paper)"
            )),
        }
    }

    /// Trials per data point (paper: ten).
    pub fn trials(self) -> usize {
        match self {
            Profile::Quick => 3,
            Profile::Paper => 10,
        }
    }

    /// The Wi-Fi range sweep in metres (paper Fig. 9/10 x-axis).
    pub fn ranges(self) -> Vec<f64> {
        vec![20.0, 40.0, 60.0, 80.0, 100.0]
    }

    /// Baseline scenario parameters for this profile.
    pub fn base_params(self) -> ScenarioParams {
        match self {
            Profile::Paper => ScenarioParams::default(),
            Profile::Quick => ScenarioParams {
                n_files: 2,
                file_size: 32 * 1024,
                max_sim: SimTime::from_secs(1_500),
                ..ScenarioParams::default()
            },
        }
    }

    /// The Fig. 9e file-count sweep (collection grows by file count).
    pub fn file_counts(self) -> Vec<usize> {
        match self {
            Profile::Paper => vec![10, 30, 50, 70],
            Profile::Quick => vec![2, 4, 6, 8],
        }
    }

    /// The Fig. 9f file-size sweep in bytes.
    pub fn file_sizes(self) -> Vec<usize> {
        match self {
            Profile::Paper => vec![1_000_000, 5_000_000, 10_000_000, 15_000_000],
            Profile::Quick => vec![16 * 1024, 48 * 1024, 96 * 1024, 144 * 1024],
        }
    }

    /// Human-readable description for report headers.
    pub fn describe(self) -> String {
        let p = self.base_params();
        format!(
            "profile={:?} trials={} collection={}x{}B packets={}B nodes={} cap={}s",
            self,
            self.trials(),
            p.n_files,
            p.file_size,
            p.packet_size,
            p.total_nodes(),
            p.max_sim.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_profiles() {
        assert_eq!(Profile::parse("paper"), Ok(Profile::Paper));
        assert_eq!(Profile::parse("FULL"), Ok(Profile::Paper));
        assert_eq!(Profile::parse("quick"), Ok(Profile::Quick));
    }

    #[test]
    fn a_mistyped_profile_is_an_error_naming_the_accepted_values() {
        let err = Profile::parse("qiuck").expect_err("typo must not fall back to quick");
        assert!(
            err.contains("\"qiuck\"") && err.contains("quick|paper"),
            "{err}"
        );
    }

    #[test]
    fn paper_profile_matches_paper_setup() {
        let p = Profile::Paper.base_params();
        assert_eq!(p.n_files, 10);
        assert_eq!(p.file_size, 1_000_000);
        assert_eq!(p.total_nodes(), 44);
        assert_eq!(Profile::Paper.trials(), 10);
    }

    #[test]
    fn quick_profile_is_scaled_not_restructured() {
        let p = Profile::Quick.base_params();
        assert_eq!(p.total_nodes(), 44, "same topology, smaller payload");
        assert!(p.file_size < 1_000_000);
    }
}
