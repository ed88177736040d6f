//! Deterministic scenario harness for the DAPES test suites.
//!
//! The DAPES paper's evaluation rests on reproducible multi-peer wireless
//! scenarios. This crate makes those scenarios first-class, seeded, reusable
//! fixtures instead of per-test setup blocks:
//!
//! * [`scenario`] — [`ScenarioBuilder`]: collection/peer/world factories
//!   with seeded RNG placement, [`MobilityPreset`]s (fixed, random walk,
//!   waypoints, partition-crossing ferry), per-run loss schedules and the
//!   paper's §VI-B swarm, under DAPES or either baseline ([`Protocol`]),
//!   plus the sampled runner the figures and Table I read;
//! * [`matrix`] — [`ScenarioMatrix`]: sweeps named [`Topology`]s × seeds
//!   and asserts per-cell invariants, so "new scenario" means one enum
//!   variant, not forty lines of setup;
//! * [`golden`] — [`GoldenMetrics`] assertions (completion, signature
//!   hygiene, frame classification, overhead bounds) shared by the
//!   integration, e2e and baseline suites.
//!
//! # Example
//!
//! ```
//! use dapes_testutil::prelude::*;
//! use dapes_netsim::time::SimTime;
//!
//! let mut sc = ScenarioBuilder::new(42)
//!     .collection(1, 4096)
//!     .producer_at(0.0, 0.0)
//!     .downloader_at(20.0, 0.0)
//!     .build();
//! assert!(sc.run_until_complete(SimTime::from_secs(120)));
//! assert_scenario("doc", &sc, &GoldenMetrics::with_min_packets(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod matrix;
pub mod scenario;

/// Glob-import of the harness types test suites need.
pub mod prelude {
    pub use crate::golden::{
        assert_frames_classified, assert_frames_classified_among, assert_scenario,
        neighbors_brute_force, overhead_ratio, GoldenMetrics,
    };
    pub use crate::matrix::{MatrixCell, MatrixParams, ScenarioMatrix, Topology};
    pub use crate::scenario::{
        paper_anchor, rogue_anchor, shared_anchor, CollectionParams, FaultProfile, MobilityPreset,
        PeerRole, Protocol, SampledRun, Scenario, ScenarioBuilder,
    };
}

pub use prelude::*;

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use dapes_netsim::prelude::*;

    #[test]
    fn builder_assigns_roles_in_insertion_order() {
        let sc = ScenarioBuilder::new(1)
            .producer_at(0.0, 0.0)
            .downloader_at(20.0, 0.0)
            .relay_at(40.0, 0.0)
            .pure_forwarder_at(60.0, 0.0)
            .mobile_downloaders(2)
            .build();
        assert_eq!(sc.producers, vec![NodeId(0)]);
        assert_eq!(sc.downloaders, vec![NodeId(1), NodeId(4), NodeId(5)]);
        assert_eq!(sc.relays, vec![NodeId(2)]);
        assert_eq!(sc.forwarders, vec![NodeId(3)]);
        assert_eq!(sc.world.node_count(), 6);
    }

    #[test]
    fn same_seed_same_placement_and_outcome() {
        let build = || {
            ScenarioBuilder::new(7)
                .producer_at(0.0, 0.0)
                .downloader_at(20.0, 0.0)
                .mobile_downloaders(3)
                .build()
        };
        let (a, b) = (build(), build());
        for i in 0..a.world.node_count() {
            assert_eq!(
                a.world.position_of(NodeId(i as u32)),
                b.world.position_of(NodeId(i as u32))
            );
        }
        let run = |mut sc: Scenario| {
            sc.run_until(SimTime::from_secs(30));
            sc.world.stats().tx_frames
        };
        assert_eq!(run(a), run(b));
    }

    #[test]
    fn different_seeds_place_walkers_differently() {
        let walker_pos = |seed| {
            let sc = ScenarioBuilder::new(seed).mobile_downloaders(1).build();
            sc.world.position_of(sc.downloaders[0])
        };
        assert_ne!(walker_pos(1), walker_pos(2));
    }

    #[test]
    fn adjacent_pair_completes_and_passes_golden() {
        let mut sc = ScenarioBuilder::new(3)
            .collection(1, 4096)
            .producer_at(0.0, 0.0)
            .downloader_at(20.0, 0.0)
            .build();
        assert!(sc.run_until_complete(SimTime::from_secs(120)));
        assert_scenario("adjacent", &sc, &GoldenMetrics::with_min_packets(4));
    }

    #[test]
    fn loss_schedule_switches_rate_without_breaking_download() {
        // Heavy loss for the first 20 s, clean air afterwards: the download
        // must still finish, and determinism must hold.
        let run = || {
            let mut sc = ScenarioBuilder::new(5)
                .collection(1, 4096)
                .loss(0.6)
                .loss_schedule([(SimTime::from_secs(20), 0.0)])
                .producer_at(0.0, 0.0)
                .downloader_at(20.0, 0.0)
                .build();
            let done = sc.run_until_complete(SimTime::from_secs(300));
            (done, sc.world.stats().tx_frames)
        };
        let (done, frames) = run();
        assert!(done, "download should finish once the air clears");
        assert_eq!((done, frames), run(), "loss schedule broke determinism");
    }

    #[test]
    fn rogue_anchor_never_verifies_against_shared() {
        use dapes_crypto::signing::Signer;
        let good = shared_anchor();
        let evil = rogue_anchor();
        let sig = evil.keypair("p").sign(b"payload");
        assert!(!good.verify("p", b"payload", &sig));
    }

    #[test]
    fn ferry_preset_crosses_a_partition() {
        let mut sc = ScenarioBuilder::new(8)
            .range(50.0)
            .collection(1, 4096)
            .producer_at(0.0, 0.0)
            .peer(
                PeerRole::Downloader,
                MobilityPreset::Ferry {
                    from: Point::new(10.0, 0.0),
                    to: Point::new(290.0, 0.0),
                    depart: SimTime::from_secs(60),
                    travel: SimDuration::from_secs(60),
                },
            )
            .downloader_at(300.0, 0.0)
            .build();
        assert!(
            sc.run_until_complete(SimTime::from_secs(600)),
            "ferry should carry the collection across the partition"
        );
    }

    #[test]
    fn baseline_builder_runs_bithoc_pair() {
        let mut sw = ScenarioBuilder::new(1)
            .protocol(Protocol::Bithoc)
            .collection(2, 4096)
            .producer_at(0.0, 0.0)
            .downloader_at(20.0, 0.0)
            .build();
        assert!(sw.run_until_complete(SimTime::from_secs(120)));
        assert!(sw.completed_at(sw.downloaders[0]).is_some());
    }

    #[test]
    fn baseline_builder_runs_ekta_pair() {
        let mut sw = ScenarioBuilder::new(2)
            .protocol(Protocol::Ekta)
            .collection(2, 4096)
            .producer_at(0.0, 0.0)
            .downloader_at(20.0, 0.0)
            .build();
        assert!(sw.run_until_complete(SimTime::from_secs(180)));
    }

    #[test]
    fn smoke_matrix_is_green_and_deterministic() {
        // One cell with the determinism double-run; the full 3×3 sweep runs
        // in the umbrella integration suite.
        let cells = ScenarioMatrix::new()
            .topologies([Topology::AdjacentPair])
            .seeds([11])
            .check_determinism(true)
            .run();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].completed, cells[0].downloaders);
        assert!(cells[0].finished_at.is_some());
    }
}
