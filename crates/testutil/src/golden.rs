//! Golden-metric assertions shared by the integration, e2e and baseline
//! suites: download completion, signature hygiene and overhead bounds —
//! plus the brute-force neighbour oracle for the spatial grid.

use crate::scenario::Scenario;
use dapes_core::stats::kinds;
use dapes_netsim::prelude::*;

/// Expected invariants for a finished DAPES scenario.
#[derive(Clone, Debug)]
pub struct GoldenMetrics {
    /// Every downloader must have completed.
    pub all_complete: bool,
    /// No peer may record a verification failure.
    pub no_verify_failures: bool,
    /// Minimum content Data packets each downloader received.
    pub min_data_received: u64,
    /// Minimum packets each downloader verified.
    pub min_packets_verified: u64,
    /// Every transmitted frame must carry a known DAPES frame kind.
    pub all_frames_classified: bool,
    /// Upper bound on total frames on the air, when the test pins one.
    pub max_tx_frames: Option<u64>,
    /// Upper bound on the control-overhead ratio (non-content-data frames
    /// over total frames), when the test pins one.
    pub max_overhead_ratio: Option<f64>,
}

impl Default for GoldenMetrics {
    fn default() -> Self {
        GoldenMetrics {
            all_complete: true,
            no_verify_failures: true,
            min_data_received: 0,
            min_packets_verified: 0,
            all_frames_classified: true,
            max_tx_frames: None,
            max_overhead_ratio: None,
        }
    }
}

impl GoldenMetrics {
    /// The default expectations plus a floor on received/verified packets —
    /// typically the collection's packet count.
    pub fn with_min_packets(min: u64) -> Self {
        GoldenMetrics {
            min_data_received: min,
            min_packets_verified: min,
            ..GoldenMetrics::default()
        }
    }
}

/// Fraction of transmitted frames that are not content Data — the harness's
/// overhead figure of merit (the paper's Fig. 10b normalises similarly).
pub fn overhead_ratio(stats: &Stats) -> f64 {
    if stats.tx_frames == 0 {
        return 0.0;
    }
    let content = stats.tx_for_kinds(&[kinds::CONTENT_DATA]);
    (stats.tx_frames - content) as f64 / stats.tx_frames as f64
}

/// The O(N) neighbour scan: every other node within radio range of `node`,
/// ascending by id. The reference oracle the spatial grid behind
/// [`World::neighbors_of`] is differentially tested against.
pub fn neighbors_brute_force(world: &World, node: NodeId) -> Vec<NodeId> {
    let p = world.position_of(node);
    (0..world.node_count() as u32)
        .map(NodeId)
        .filter(|&other| other != node && world.position_of(other).within(&p, world.range()))
        .collect()
}

/// Panics unless every transmitted frame carries a known DAPES kind.
pub fn assert_frames_classified(stats: &Stats) {
    assert_frames_classified_among(stats, &kinds::ALL_DAPES);
}

/// Panics unless every transmitted frame carries one of `allowed` kinds.
/// Adversarial scenarios pass the DAPES kinds plus
/// [`dapes_core::adversary::attack_kinds::ALL`].
pub fn assert_frames_classified_among(stats: &Stats, allowed: &[FrameKind]) {
    let classified = stats.tx_for_kinds(allowed);
    assert_eq!(
        classified, stats.tx_frames,
        "unclassified frames on the air: {} classified of {} total",
        classified, stats.tx_frames
    );
}

/// Checks a finished scenario against the golden expectations, panicking
/// with a labelled message on the first violation.
pub fn assert_scenario(label: &str, scenario: &Scenario, golden: &GoldenMetrics) {
    if golden.all_complete {
        for (i, &d) in scenario.downloaders.iter().enumerate() {
            assert!(
                scenario.completed(d),
                "[{label}] downloader #{i} (node {d:?}) incomplete at {:?}",
                scenario.world.now()
            );
        }
    }
    for (i, &d) in scenario.downloaders.iter().enumerate() {
        let peer = scenario.peer(d).expect("downloader is a DAPES peer");
        let stats = peer.stats();
        if golden.no_verify_failures {
            assert_eq!(
                stats.verify_failures, 0,
                "[{label}] downloader #{i} recorded verification failures"
            );
        }
        assert!(
            stats.data_received >= golden.min_data_received,
            "[{label}] downloader #{i} received {} < {} data packets",
            stats.data_received,
            golden.min_data_received
        );
        assert!(
            stats.packets_verified >= golden.min_packets_verified,
            "[{label}] downloader #{i} verified {} < {} packets",
            stats.packets_verified,
            golden.min_packets_verified
        );
    }
    let stats = scenario.world.stats();
    if golden.all_frames_classified {
        if scenario.adversaries.is_empty() {
            assert_frames_classified(stats);
        } else {
            let allowed: Vec<FrameKind> = kinds::ALL_DAPES
                .iter()
                .chain(dapes_core::adversary::attack_kinds::ALL.iter())
                .copied()
                .collect();
            assert_frames_classified_among(stats, &allowed);
        }
    }
    if let Some(cap) = golden.max_tx_frames {
        assert!(
            stats.tx_frames <= cap,
            "[{label}] {} frames on the air exceeds the golden cap {cap}",
            stats.tx_frames
        );
    }
    if let Some(cap) = golden.max_overhead_ratio {
        let ratio = overhead_ratio(stats);
        assert!(
            ratio <= cap,
            "[{label}] overhead ratio {ratio:.3} exceeds the golden cap {cap:.3}"
        );
    }
}
