//! A DAPES peer expires its PIT on every 100 ms tick, so the forwarder's
//! own reclaim — which takes only entries `RECLAIM_AFTER` past expiry —
//! never finds anything the last tick left. These transfers pin that: the
//! reclaim cannot move a DAPES trace because it never removes an entry.

use dapes_core::prelude::*;
use dapes_ndn::pit::RECLAIM_AFTER;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

/// Asserts that no DAPES peer in `sc` had a PIT entry reclaimed.
fn assert_nothing_reclaimed(label: &str, sc: &Scenario) {
    let peers: Vec<&DapesPeer> = (0..sc.world.node_count())
        .filter_map(|i| sc.peer(NodeId(i as u32)))
        .collect();
    assert_eq!(peers.len(), sc.world.node_count(), "{label}: all DAPES");
    for peer in peers {
        let stats = peer.forwarder_stats();
        assert!(
            stats.forwarded_interests + stats.suppressed_interests > 0,
            "{label}: peer {} saw Interests",
            peer.id()
        );
        assert_eq!(stats.pit_reclaimed, 0, "{label}: peer {}", peer.id());
    }
}

#[test]
fn the_dapes_tick_is_no_longer_than_the_reclaim_grace() {
    assert!(DapesConfig::default().tick <= RECLAIM_AFTER);
}

#[test]
fn a_lossy_multi_hop_transfer_never_reclaims() {
    // Lost frames leave relayed Interests unanswered until they expire —
    // the entries a node without the tick's sweep would have reclaimed.
    let cfg = DapesConfig {
        forward_prob: 1.0,
        ..DapesConfig::default()
    };
    let mut sc = ScenarioBuilder::new(5)
        .collection(2, 16 * 1024)
        .config(cfg)
        .loss(0.2)
        .producer_at(0.0, 0.0)
        .relay_at(50.0, 0.0)
        .downloader_at(100.0, 0.0)
        .build();
    assert!(sc.run_until_complete(SimTime::from_secs(300)));
    sc.run_until(SimTime::from_secs(60));
    assert_nothing_reclaimed("two-hop", &sc);
}

#[test]
fn a_lossy_three_node_transfer_never_reclaims() {
    let mut sc = ScenarioBuilder::new(4)
        .collection(2, 16 * 1024)
        .loss(0.1)
        .producer_at(0.0, 0.0)
        .downloader_at(20.0, 0.0)
        .downloader_at(0.0, 20.0)
        .build();
    assert!(sc.run_until_complete(SimTime::from_secs(240)));
    // Keep the encounter going past completion: beacons and adverts go on
    // being lost and left to expire.
    sc.run_until(SimTime::from_secs(60));
    assert_nothing_reclaimed("three-node", &sc);
}
