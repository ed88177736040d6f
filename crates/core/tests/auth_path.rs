//! The authentication path at peer level: a decoded content/metadata Data
//! frame is signature-checked exactly once however many handlers consume
//! it. That a packet a Content Store hit serves to the peer's own Interest
//! is checked on its own is a unit test in `peer`, which can reach the
//! store.

use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::name::Name;
use dapes_netsim::prelude::*;
use std::sync::Arc;

const PACKET: usize = 1024;

fn collection(files: &[&str]) -> Arc<Collection> {
    Arc::new(Collection::build(CollectionSpec {
        name: Name::from_uri("/damaged-bridge-1533783192"),
        files: files
            .iter()
            .map(|f| FileSpec::new(*f, 4 * PACKET))
            .collect(),
        packet_size: PACKET,
        format: MetadataFormat::MerkleRoots,
        producer: "resident-a".into(),
    }))
}

/// A two-node world: the producer at the origin, `downloader` in range.
/// Every segment frame on the air is the producer's, solicited by the
/// downloader, and delivered to nobody else.
fn two_node_world(collection: &Arc<Collection>, downloader: DapesPeer) -> (World, NodeId) {
    let anchor = TrustAnchor::from_seed(b"rural-area-anchor");
    let mut world = World::new(WorldConfig {
        range: 60.0,
        seed: 11,
        ..WorldConfig::default()
    });
    let mut producer = DapesPeer::new(0, DapesConfig::default(), anchor, WantPolicy::Nothing);
    producer.add_production(collection.clone());
    world.add_node(
        Box::new(Stationary::new(Point::new(0.0, 0.0))),
        Box::new(producer),
    );
    let node = world.add_node(
        Box::new(Stationary::new(Point::new(30.0, 0.0))),
        Box::new(downloader),
    );
    (world, node)
}

fn downloader() -> DapesPeer {
    DapesPeer::new(
        1,
        DapesConfig::default(),
        TrustAnchor::from_seed(b"rural-area-anchor"),
        WantPolicy::Everything,
    )
}

/// Content and metadata Data frames delivered to a radio so far.
fn segment_frames_delivered(world: &World) -> u64 {
    [kinds::CONTENT_DATA, kinds::METADATA_DATA]
        .iter()
        .map(|k| world.stats().delivered_by_kind.get(k).copied().unwrap_or(0))
        .sum()
}

#[test]
fn a_solicited_segment_frame_costs_exactly_one_signature_check() {
    let collection = collection(&["picture", "location"]);
    let (mut world, node) = two_node_world(&collection, downloader());
    let done = world.run_until_cond(SimTime::from_secs(120), |w| {
        w.stack::<DapesPeer>(node)
            .is_some_and(DapesPeer::downloads_complete)
    });
    assert!(done, "download incomplete after 120 s");
    let stats = world
        .stack::<DapesPeer>(node)
        .expect("downloader")
        .stats()
        .clone();
    assert_eq!(stats.data_received, 8, "2 files x 4 packets");
    assert_eq!(stats.verify_failures, 0);
    // Each frame passed the screen, was consumed through the PIT and
    // offered to the opportunistic path — three consumers, one check.
    assert_eq!(stats.signature_checks, segment_frames_delivered(&world));
}
