//! End-to-end transfers for the Bithoc and Ekta baselines, built on the
//! `dapes-testutil` scenario builder.

use dapes_baselines::prelude::*;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

/// Two files of four 1 KiB pieces.
fn swarm(protocol: Protocol, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(seed)
        .protocol(protocol)
        .collection(2, 4096)
}

fn bithoc(seed: u64) -> ScenarioBuilder {
    swarm(Protocol::Bithoc, seed)
}

fn ekta(seed: u64) -> ScenarioBuilder {
    swarm(Protocol::Ekta, seed)
}

#[test]
fn bithoc_single_hop_download() {
    let mut sw = bithoc(1)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sw.run_until_complete(SimTime::from_secs(120)),
        "bithoc single-hop download incomplete"
    );
    // Run on to a fixed instant so periodic DSDV/HELLO traffic registers.
    sw.run_until(SimTime::from_secs(30));
    // TCP-like overhead appears: data and control segments plus DSDV.
    assert!(sw.world.stats().tx_for_kinds(&[kinds::TCP_DATA]) >= 8);
    assert!(sw.world.stats().tx_for_kinds(&[kinds::TCP_CTRL]) >= 8);
    assert!(sw.world.stats().tx_for_kinds(&[kinds::DSDV_UPDATE]) > 0);
    assert!(sw.world.stats().tx_for_kinds(&[kinds::HELLO]) > 0);
}

#[test]
fn bithoc_two_hop_download_through_router() {
    let mut sw = bithoc(2)
        .producer_at(0.0, 0.0)
        .relay_at(50.0, 0.0)
        .downloader_at(100.0, 0.0)
        .build();
    assert!(
        sw.run_until_complete(SimTime::from_secs(240)),
        "bithoc two-hop download incomplete"
    );
}

#[test]
fn bithoc_survives_loss() {
    let mut sw = bithoc(3)
        .loss(0.10)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sw.run_until_complete(SimTime::from_secs(300)),
        "bithoc lossy download incomplete"
    );
}

#[test]
fn ekta_single_hop_download() {
    let mut sw = ekta(4)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sw.run_until_complete(SimTime::from_secs(180)),
        "ekta single-hop download incomplete"
    );
    assert!(sw.world.stats().tx_for_kinds(&[kinds::PIECE_DATA]) >= 8);
    assert!(
        sw.world.stats().tx_for_kinds(&[kinds::DHT]) > 0,
        "publish/lookup traffic expected"
    );
    assert!(
        sw.world.stats().tx_for_kinds(&[kinds::RREQ]) > 0,
        "route discovery expected"
    );
}

#[test]
fn ekta_two_hop_download_through_router() {
    let mut sw = ekta(5)
        .producer_at(0.0, 0.0)
        .relay_at(50.0, 0.0)
        .downloader_at(100.0, 0.0)
        .build();
    assert!(
        sw.run_until_complete(SimTime::from_secs(300)),
        "ekta two-hop download incomplete"
    );
}

#[test]
fn ekta_survives_loss() {
    let mut sw = ekta(6)
        .loss(0.10)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .build();
    assert!(
        sw.run_until_complete(SimTime::from_secs(300)),
        "ekta lossy download incomplete"
    );
}

#[test]
fn baselines_are_deterministic() {
    let run = || {
        let mut sw = bithoc(7)
            .loss(0.05)
            .producer_at(0.0, 0.0)
            .downloader_at(20.0, 0.0)
            .build();
        sw.run_until_complete(SimTime::from_secs(200));
        (
            sw.completed_at(sw.downloaders[0]),
            sw.world.stats().tx_frames,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn bithoc_multiple_downloaders() {
    let mut sw = bithoc(8)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .downloader_at(0.0, 20.0)
        .build();
    assert!(
        sw.run_until_complete(SimTime::from_secs(300)),
        "both bithoc downloaders should finish"
    );
}

#[test]
fn bithoc_mobile_ferry_reaches_partitioned_downloader() {
    // The harness's ferry preset works for baselines too: a router ferries
    // route + pieces across a partition. Bithoc's proactive DSDV converges
    // slowly, so the ferry dwells longer than the DAPES equivalent.
    let mut sw = bithoc(9)
        .range(50.0)
        .producer_at(0.0, 0.0)
        .peer(
            PeerRole::Downloader,
            MobilityPreset::Ferry {
                from: Point::new(10.0, 0.0),
                to: Point::new(290.0, 0.0),
                depart: SimTime::from_secs(120),
                travel: SimDuration::from_secs(60),
            },
        )
        .downloader_at(300.0, 0.0)
        .build();
    let done = sw.run_until_complete(SimTime::from_secs(900));
    assert!(
        sw.completed(sw.downloaders[0]),
        "the ferry itself should finish next to the seed"
    );
    assert!(done, "bithoc ferry should eventually serve the far peer");
}
