//! The authentication path at peer level: a decoded content/metadata Data
//! frame is signature-checked exactly once however many handlers consume
//! it, and a packet a Content Store hit serves to the peer's own Interest
//! is checked on its own, never on the verdict of the frame in flight.

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

#[test]
fn a_content_store_hit_is_checked_on_its_own_not_on_the_frame_in_flight() {
    // The downloader's own store holds *unsigned* copies of file `b`'s
    // segments (right names, right bytes, no signature). While genuine
    // frames are being processed, refilling the fetch window expresses
    // Interests for `b` that the store answers on the spot. Had those
    // packets inherited the verdict of the authentic frame in flight they
    // would be accepted and nothing would ever fail; checked on their own
    // they are all rejected, and `b` arrives by retransmission instead
    // (retransmitted Interests bypass the forwarder and its store).
    let collection = collection(&["a", "b"]);
    let mut peer = downloader();
    let poisoned = ChunkedFile::synthetic(collection.name(), "b", 4 * PACKET, PACKET);
    peer.seed_chunked_file(&poisoned, SimTime::ZERO);
    let (mut world, node) = two_node_world(&collection, peer);
    let done = world.run_until_cond(SimTime::from_secs(300), |w| {
        w.stack::<DapesPeer>(node)
            .is_some_and(DapesPeer::downloads_complete)
    });
    assert!(done, "download incomplete after 300 s");
    let stats = world.stack::<DapesPeer>(node).expect("downloader").stats();
    assert_eq!(stats.data_received, 8, "every segment came off the air");
    assert!(
        stats.verify_failures >= 4,
        "each of b's store-served segments is rejected, got {}",
        stats.verify_failures
    );
    // One check per decoded frame (all authentic) plus one per packet the
    // store served (all rejected).
    assert_eq!(
        stats.signature_checks,
        segment_frames_delivered(&world) + stats.verify_failures
    );
}
