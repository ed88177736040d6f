//! What the 100 ms housekeeping tick costs: the tick itself always runs
//! (every node ticks at the same instants, which the event order — and so
//! every trace — depends on), but its sweeps are watermarked and scan a
//! table only when an entry in it can be due. These scripted worlds pin
//! that with deterministic counts: `PeerStats::ticks` against
//! `PeerStats::tick_scans`. Run with `--nocapture` to see them.

use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::name::Name;
use dapes_netsim::prelude::*;
use std::sync::Arc;

const PACKET: usize = 1024;

/// Tables a tick sweeps (multi-hop maps, PIT, replay guard). Before the
/// watermarks every tick scanned each of them — plus the nonce journal,
/// which no longer scans at all.
const SWEPT_TABLES: u64 = 3;

fn anchor() -> TrustAnchor {
    TrustAnchor::from_seed(b"rural-area-anchor")
}

fn world() -> World {
    World::new(WorldConfig {
        range: 60.0,
        seed: 11,
        ..WorldConfig::default()
    })
}

fn downloader(id: u32) -> DapesPeer {
    DapesPeer::new(id, DapesConfig::default(), anchor(), WantPolicy::Everything)
}

fn stats_of(world: &World, node: NodeId) -> PeerStats {
    world
        .stack::<DapesPeer>(node)
        .expect("a DAPES peer")
        .stats()
        .clone()
}

#[test]
fn an_isolated_node_ticks_every_100_ms_and_scans_only_for_its_own_beacons() {
    let mut world = world();
    let node = world.add_node(
        Box::new(Stationary::new(Point::new(0.0, 0.0))),
        Box::new(downloader(0)),
    );
    world.run_until(SimTime::from_secs(60));
    let stats = stats_of(&world, node);
    println!(
        "isolated node, 60 s: {} ticks, {} scans, {} discovery beacons",
        stats.ticks, stats.tick_scans, stats.discovery_sent
    );
    assert_eq!(stats.ticks, 600, "one tick per 100 ms, work or no work");
    // Alone, the only expiring state a node ever holds is the PIT entry of
    // its own discovery beacon: one scan when each of those lapses, and
    // nothing in between — not one per table per tick.
    assert!(stats.discovery_sent > 0);
    assert!(
        stats.tick_scans <= stats.discovery_sent,
        "{} scans for {} beacons",
        stats.tick_scans,
        stats.discovery_sent
    );
    assert!(stats.tick_scans * 20 < stats.ticks * SWEPT_TABLES);
}

#[test]
fn a_busy_encounter_never_scans_more_than_the_unconditional_sweeps_did() {
    let collection = Arc::new(Collection::build(CollectionSpec {
        name: Name::from_uri("/damaged-bridge-1533783192"),
        files: ["picture", "location", "notes"]
            .iter()
            .map(|f| FileSpec::new(*f, 8 * PACKET))
            .collect(),
        packet_size: PACKET,
        format: MetadataFormat::MerkleRoots,
        producer: "resident-a".into(),
    }));
    let mut world = world();
    let mut producer = DapesPeer::new(0, DapesConfig::default(), anchor(), WantPolicy::Nothing);
    producer.add_production(collection);
    let producer = world.add_node(
        Box::new(Stationary::new(Point::new(0.0, 0.0))),
        Box::new(producer),
    );
    let downloaders = [
        world.add_node(
            Box::new(Stationary::new(Point::new(30.0, 0.0))),
            Box::new(downloader(1)),
        ),
        world.add_node(
            Box::new(Stationary::new(Point::new(0.0, 30.0))),
            Box::new(downloader(2)),
        ),
    ];
    let done = world.run_until_cond(SimTime::from_secs(120), |w| {
        downloaders.iter().all(|&n| {
            w.stack::<DapesPeer>(n)
                .is_some_and(DapesPeer::downloads_complete)
        })
    });
    assert!(done, "downloads incomplete after 120 s");
    // Keep the encounter going past completion: neighbors stay fresh, so
    // the tables stay full while less and less in them is due.
    world.run_until(SimTime::from_secs(120));
    for node in [producer, downloaders[0], downloaders[1]] {
        let stats = stats_of(&world, node);
        println!(
            "busy encounter, node {}: {} ticks, {} scans ({:.2} per tick, was {SWEPT_TABLES})",
            node.0,
            stats.ticks,
            stats.tick_scans,
            stats.tick_scans as f64 / stats.ticks as f64
        );
        assert_eq!(stats.ticks, 1200);
        assert!(stats.tick_scans <= stats.ticks * SWEPT_TABLES);
        // In practice well under one scan per tick even mid-transfer.
        assert!(stats.tick_scans < stats.ticks);
    }
}
