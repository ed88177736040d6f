//! Cross-crate integration tests: full protocol stacks on the simulator,
//! exercising the public API through the `dapes-testutil` scenario harness.

use dapes::prelude::*;
use dapes_testutil::prelude::*;

#[test]
fn dapes_swarm_with_mobility_loss_and_forwarders_completes() {
    let mut sc = ScenarioBuilder::new(31)
        .range(70.0)
        .loss(0.10) // the paper's default channel loss — the point of the test
        .collection(2, 8 * 1024)
        .producer_at(150.0, 150.0)
        .mobile_downloaders(5)
        .mobile_pure_forwarders(3)
        .build();
    let done = sc.run_until_complete(SimTime::from_secs(1200));
    assert!(done, "mobile swarm should complete under loss");
    // Verified data only.
    assert_scenario("mobile-swarm", &sc, &GoldenMetrics::with_min_packets(16));
}

#[test]
fn tampered_metadata_is_rejected_end_to_end() {
    // A rogue node (different trust anchor) produces a same-named
    // collection beside the honest producer. The control plane drops its
    // announcements, but once the honest producer's announcement has sent
    // the downloader after the metadata, the rogue answers those
    // Interests too: its forged metadata must be rejected at the data
    // plane, and the download must still complete from the honest copy.
    let mut sc = ScenarioBuilder::new(5)
        .collection(1, 4 * 1024)
        .producer_at(0.0, 0.0)
        .peer_with_anchor(
            PeerRole::Producer,
            MobilityPreset::at(10.0, 0.0),
            rogue_anchor(),
        )
        .downloader_at(20.0, 0.0)
        .build();
    let downloader = sc.downloaders[0];
    let rejected = |w: &World| {
        w.stack::<DapesPeer>(downloader)
            .map_or(0, |p| p.stats().segments_rejected_tamper)
    };
    assert!(
        sc.run_until_cond(SimTime::from_secs(60), |w| rejected(w) > 0),
        "the forged copy must be heard and rejected"
    );
    // No content Data has been on the air yet: what was rejected is the
    // rogue's metadata.
    assert_eq!(
        sc.world.stats().tx_by_kind.get(&kinds::CONTENT_DATA),
        None,
        "the first rejection must be forged metadata"
    );
    assert!(
        sc.run_until_complete(SimTime::from_secs(120)),
        "the honest collection must complete"
    );
}

#[test]
fn forged_producer_is_rejected_at_the_announcement_layer() {
    // Same forged producer, default config: the signed control plane
    // rejects the announcement itself, so the downloader never learns of
    // the collection, never spends Interests on it, and no tampered bytes
    // reach the data plane.
    let mut sc = ScenarioBuilder::new(5)
        .collection(1, 4 * 1024)
        .peer_with_anchor(
            PeerRole::Producer,
            MobilityPreset::at(0.0, 0.0),
            rogue_anchor(),
        )
        .downloader_at(20.0, 0.0)
        .build();
    let done = sc.run_until_complete(SimTime::from_secs(60));
    assert!(!done, "forged collection must never complete");
    let stats = sc.peer(sc.downloaders[0]).expect("peer").stats().clone();
    assert!(
        stats.adverts_rejected_bad_sig > 0,
        "forged announcements should be rejected at the control plane"
    );
    assert_eq!(
        stats.verify_failures, 0,
        "no tampered data should ever be requested"
    );
}

#[test]
fn tampered_segments_never_enter_the_content_store() {
    // A fast tamperer answers the downloader's content Interests with
    // unsigned junk before the producer's jittered reply arrives. The junk
    // must be rejected *before* Content Store insertion: a cached tampered
    // segment would be re-served to later Interests under the caching
    // peer's own authority, laundering the tamper. After the run, every
    // cached Data under the collection namespace must still verify.
    use dapes_core::adversary::AdversaryKind;
    let mut sc = ScenarioBuilder::new(7)
        .collection(1, 8 * 1024)
        .producer_at(0.0, 0.0)
        .downloader_at(48.0, 0.0)
        .adversary_at(AdversaryKind::SegmentTamperer, 90.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(120)),
        "the transfer must survive the tamperer"
    );
    assert!(
        sc.peer_totals().segments_rejected_tamper > 0,
        "the tamperer must have been heard and rejected"
    );
    let collection = sc.collection.clone();
    let anchor = sc.anchor.clone();
    for &node in sc.downloaders.iter().chain(&sc.producers) {
        let peer = sc.peer(node).expect("honest peer");
        for idx in 0..collection.total_packets() {
            let name = collection
                .index()
                .packet_name(collection.name(), idx)
                .expect("packet name");
            if let Some(cached) = peer.content_store().lookup_exact(&name) {
                assert!(
                    cached.verify(&anchor),
                    "node {node:?} cached an unverifiable segment {name}"
                );
            }
        }
    }
}

#[test]
fn matrix_sweeps_the_adversarial_axis() {
    // The scenario matrix gains an adversarial axis: the same topology
    // cells, now with attacker nodes present, must stay green (completion
    // plus the golden invariants, hostile frame kinds classified).
    use dapes_core::adversary::AdversaryKind;
    let cells = ScenarioMatrix::new()
        .topologies([Topology::AdjacentPair, Topology::Star { downloaders: 2 }])
        .seeds([1, 2])
        .params(MatrixParams {
            adversaries: vec![AdversaryKind::NoiseFlooder, AdversaryKind::SpoofForger],
            ..MatrixParams::default()
        })
        .run();
    assert_eq!(cells.len(), 4);
    for cell in &cells {
        assert_eq!(
            cell.completed,
            cell.downloaders,
            "{}/seed-{} failed under attack",
            cell.topology.label(),
            cell.seed
        );
    }
}

#[test]
fn repo_pattern_one_transmission_serves_two_peers() {
    // The paper's scenario-2 insight: requests from either peer satisfy
    // both, so the producer answers co-located downloads with barely more
    // Data transmissions than a single download — PIT aggregation merges
    // concurrent requests and each broadcast is overheard by both peers.
    // `packets_served` isolates the producer's data plane; total frame
    // counts would be dominated by the per-peer control chatter (and by
    // loss-pattern luck: retransmission noise across seeds is larger than
    // the effect). 10% loss as in the original formulation, summed over
    // three seeds.
    let served_with_downloaders = |extra: bool| {
        [9, 10, 11]
            .into_iter()
            .map(|seed| {
                let mut b = ScenarioBuilder::new(seed)
                    .collection(1, 16 * 1024)
                    .loss(0.10)
                    .producer_at(0.0, 0.0)
                    .downloader_at(20.0, 0.0);
                if extra {
                    b = b.downloader_at(0.0, 20.0);
                }
                let mut sc = b.build();
                sc.run_until_complete(SimTime::from_secs(300));
                assert!(sc.all_complete());
                sc.peer(sc.producers[0]).unwrap().stats().packets_served
            })
            .sum::<u64>()
    };
    let single = served_with_downloaders(false);
    let double = served_with_downloaders(true);
    assert!(
        (double as f64) < 1.9 * single as f64,
        "two co-located downloads ({double} packets served) should cost the \
         producer less than 2x one download ({single} packets served): \
         broadcast data and PIT aggregation let one transmission serve both \
         peers"
    );
}

#[test]
fn scenario_matrix_sweeps_topologies_and_seeds() {
    // The harness's acceptance matrix: four topologies x three seeds, every
    // cell green under the golden invariants (completion, zero verification
    // failures, full frame classification).
    let cells = ScenarioMatrix::new()
        .topologies([
            Topology::AdjacentPair,
            Topology::Chain { relays: 1 },
            Topology::Star { downloaders: 3 },
            Topology::PartitionedFerry,
        ])
        .seeds([1, 2, 3])
        .run();
    assert_eq!(cells.len(), 12);
    for cell in &cells {
        assert_eq!(
            cell.completed,
            cell.downloaders,
            "{}/seed-{} left downloads incomplete",
            cell.topology.label(),
            cell.seed
        );
        assert!(cell.tx_frames > 0);
        assert!(cell.finished_at.is_some());
    }
    // The same matrix re-run must be bit-identical: the harness promises
    // deterministic scenarios, not just passing ones.
    let again = ScenarioMatrix::new()
        .topologies([Topology::AdjacentPair, Topology::Chain { relays: 1 }])
        .seeds([1, 2, 3])
        .check_determinism(true)
        .run();
    assert_eq!(again.len(), 6);
}

#[test]
fn umbrella_prelude_exposes_all_layers() {
    // Compile-time API check: one item per crate through the prelude.
    let _ = Name::from_uri("/x");
    let _ = Bitmap::new(4);
    let _ = TrustAnchor::from_seed(b"x");
    let _ = WorldConfig::default();
    let _ = SwarmSpec::paper_default();
    let _ = DapesConfig::default();
}

#[test]
fn bench_scenario_api_runs_one_tiny_trial() {
    // The seed's original parameters (2 stationary repositories 150 m
    // apart at 80 m range, one mobile downloader, no intermediates, 300 s)
    // only completed for RNG-stream-specific walks and went flaky when the
    // RNG backend changed; this configuration matches the in-crate
    // `dapes-bench` scenario tests, which complete on mobility rather than
    // luck.
    use dapes_bench::{run_trial, Protocol, ScenarioParams};
    let params = ScenarioParams {
        range: 80.0,
        n_files: 1,
        file_size: 2048,
        packet_size: 1024,
        seed: 3,
        max_sim: SimTime::from_secs(1500),
        stationary: 2,
        mobile_downloaders: 2,
        intermediates: 1,
        pure_forwarders: 1,
    };
    let r = run_trial(&Protocol::Dapes(Box::default()), &params);
    assert_eq!(r.downloaders, 3);
    assert!(
        r.completed >= 2,
        "expected most downloaders to finish, got {}/{}",
        r.completed,
        r.downloaders
    );
}

#[test]
fn crashed_downloader_resumes_after_restart_without_refetching() {
    // The downloader crashes mid-transfer (the fault-free run finishes at
    // ~1.3 s, so 0.8 s lands inside it), loses its stack, and restarts
    // cold except for the salvage the harness hands back. It must finish
    // the collection after the reboot, skip every segment it already held,
    // and never put a resumed segment back on the air.
    let mut sc = ScenarioBuilder::new(9)
        .collection(4, 32 * 1024)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .faults([FaultProfile::CrashRestartDownloader {
            index: 0,
            crash: SimTime::from_micros(800_000),
            restart: SimTime::from_secs(3),
        }])
        .build();
    let done = sc.run_until_complete(SimTime::from_secs(120));
    assert!(done, "restarted downloader should still complete");
    let world = sc.world.stats().clone();
    assert_eq!(world.node_crashes, 1);
    assert_eq!(world.node_restarts, 1);
    // The fault interrupted a live transfer and the resume did real work:
    // held segments were skipped, and none of them was re-requested.
    let skipped = sc.peer_totals().resumed_segments_skipped;
    assert!(
        skipped > 0,
        "resume should skip segments held at crash time"
    );
    assert_eq!(
        sc.peer_totals().resumed_refetch,
        0,
        "a resumed downloader must not re-fetch a held segment"
    );
    assert_scenario("crash-restart", &sc, &GoldenMetrics::with_min_packets(16));
}

#[test]
fn partitioned_downloader_backs_off_gives_up_and_recovers_on_heal() {
    // The downloader is cut off mid-transfer for 30 s — longer than the
    // full backoff ladder (0.5 s doubling to the 4 s cap over MAX_RETX=8
    // tries ≈ 23.5 s), so its outstanding Interests must be abandoned, and
    // the give-up accounted. After the heal the refill path re-requests
    // what is still missing and the transfer completes.
    let mut sc = ScenarioBuilder::new(9)
        .collection(4, 32 * 1024)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .faults([FaultProfile::IsolateDownloader {
            index: 0,
            cut: SimTime::from_micros(700_000),
            heal: SimTime::from_secs(30),
        }])
        .build();
    let done = sc.run_until_complete(SimTime::from_secs(180));
    assert!(done, "download should complete after the partition heals");
    let world = sc.world.stats().clone();
    assert_eq!(world.partitions_cut, 1);
    assert_eq!(world.partitions_healed, 1);
    assert!(
        world.partition_drops > 0,
        "in-range frames must be dropped while the link is cut"
    );
    // Counter decomposition: the outage forced retransmissions, and the
    // backoff ladder ran dry at least once before the heal.
    let stats = sc.peer(sc.downloaders[0]).expect("peer").stats().clone();
    assert!(stats.retransmissions > 0, "outage should force retx");
    assert!(
        stats.retx_give_ups > 0,
        "a 30 s outage should exhaust the backoff ladder"
    );
    assert_scenario("partition-heal", &sc, &GoldenMetrics::with_min_packets(16));
}
