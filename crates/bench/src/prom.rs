//! Shared Prometheus text-format export for the bench binaries.
//!
//! Every `BENCH_*` binary exposes a `--prom-out <path>` flag; the dump it
//! writes comes from one place — [`export`] — so the exposition format,
//! the `dapes_` metric namespace and the peer-counter coverage cannot
//! drift between benchmarks. The dump is the simulator's counters
//! ([`Stats::to_prometheus`]) followed by the DAPES peer-protocol
//! counters (aggregated over every honest peer) as `dapes_peer_*`
//! counters, and `checkjson` validates the shape via
//! [`crate::check::validate_prometheus`].

use dapes_core::stats::PeerStats;
use dapes_netsim::node::NodeId;
use dapes_netsim::stats::Stats;
use dapes_testutil::scenario::Scenario;

/// One exported peer counter: metric name (without the `dapes_peer_`
/// prefix), HELP text, and the field it reads.
type PeerCounter = (&'static str, &'static str, fn(&PeerStats) -> u64);

/// Every [`PeerStats`] counter, in declaration order. `completed_at` is a
/// per-peer timestamp, not an aggregable counter, and is exported
/// separately as a gauge.
const PEER_COUNTERS: &[PeerCounter] = &[
    (
        "interests_sent_total",
        "Content Interests sent (first transmissions).",
        |p| p.interests_sent,
    ),
    (
        "retransmissions_total",
        "Content Interest retransmissions.",
        |p| p.retransmissions,
    ),
    (
        "data_received_total",
        "Content Data packets received for own downloads.",
        |p| p.data_received,
    ),
    ("packets_verified_total", "Packets that verified.", |p| {
        p.packets_verified
    }),
    (
        "verify_failures_total",
        "Verification failures dropped.",
        |p| p.verify_failures,
    ),
    (
        "signature_checks_total",
        "Signature checks run on decoded content/metadata Data.",
        |p| p.signature_checks,
    ),
    ("ticks_total", "Housekeeping ticks run.", |p| p.ticks),
    (
        "tick_scans_total",
        "Full table scans the periodic tick ran (watermarked sweeps).",
        |p| p.tick_scans,
    ),
    ("bitmaps_sent_total", "Bitmaps transmitted.", |p| {
        p.bitmaps_sent
    }),
    (
        "bitmaps_heard_total",
        "Bitmaps received or overheard.",
        |p| p.bitmaps_heard,
    ),
    (
        "bitmaps_cancelled_total",
        "Bitmap transmissions cancelled by the union rule.",
        |p| p.bitmaps_cancelled,
    ),
    (
        "peba_backoffs_total",
        "PEBA backoffs after detected collisions.",
        |p| p.peba_backoffs,
    ),
    ("discovery_sent_total", "Discovery beacons sent.", |p| {
        p.discovery_sent
    }),
    (
        "packets_served_total",
        "Data replies served to other peers.",
        |p| p.packets_served,
    ),
    (
        "interests_forwarded_total",
        "Interests re-broadcast as an intermediate node.",
        |p| p.interests_forwarded,
    ),
    (
        "frames_peek_resolved_total",
        "Frames resolved from a name-first header peek.",
        |p| p.frames_peek_resolved,
    ),
    (
        "peek_cs_hits_total",
        "Peek-resolved Interests answered from the Content Store.",
        |p| p.peek_cs_hits,
    ),
    (
        "peek_dup_nonces_total",
        "Peek-resolved Interests dropped as duplicate nonces.",
        |p| p.peek_dup_nonces,
    ),
    (
        "peek_fib_drops_total",
        "Peek-resolved Interests dropped for lack of a FIB route.",
        |p| p.peek_fib_drops,
    ),
    (
        "peek_unsolicited_data_total",
        "Peek-resolved Data matching no PIT entry.",
        |p| p.peek_unsolicited_data,
    ),
    (
        "peek_relayed_total",
        "Peek-resolved Interests relayed decode-free.",
        |p| p.peek_relayed,
    ),
    (
        "peek_relay_suppressed_total",
        "Peek-resolved Interests the strategy suppressed.",
        |p| p.peek_relay_suppressed,
    ),
    (
        "frames_relay_patched_total",
        "Frames re-broadcast with a copy-on-write hop-limit patch.",
        |p| p.frames_relay_patched,
    ),
    (
        "adverts_rejected_bad_sig_total",
        "Sealed adverts dropped for a bad signature.",
        |p| p.adverts_rejected_bad_sig,
    ),
    (
        "adverts_rejected_replay_total",
        "Sealed adverts dropped by the replay guard.",
        |p| p.adverts_rejected_replay,
    ),
    (
        "peers_expired_total",
        "Producers swept from the replay table after the peer TTL.",
        |p| p.peers_expired,
    ),
    (
        "segments_rejected_tamper_total",
        "Data frames dropped on signature failure.",
        |p| p.segments_rejected_tamper,
    ),
    (
        "interests_rejected_replay_total",
        "Dup-nonce drops attributable to re-injected Interests.",
        |p| p.interests_rejected_replay,
    ),
    (
        "flood_frames_dropped_total",
        "Unparseable frames dropped on the floor.",
        |p| p.flood_frames_dropped,
    ),
    (
        "retx_give_ups_total",
        "Fetches abandoned after the backoff ladder ran dry.",
        |p| p.retx_give_ups,
    ),
    (
        "neighbors_expired_total",
        "Neighbors expired after the neighbor timeout.",
        |p| p.neighbors_expired,
    ),
    (
        "resumed_segments_skipped_total",
        "Segments salvaged on restart and never re-fetched.",
        |p| p.resumed_segments_skipped,
    ),
    (
        "resumed_refetch_total",
        "Interests sent for segments salvage already held.",
        |p| p.resumed_refetch,
    ),
];

/// Field-by-field sum of peer counters. `completed_at` becomes the
/// *latest* completion among the peers that completed (`None` when none
/// did), so the exported gauge reports the swarm's completion time.
pub fn sum_peers<'a, I: IntoIterator<Item = &'a PeerStats>>(peers: I) -> PeerStats {
    let mut total = PeerStats::default();
    for p in peers {
        total.interests_sent += p.interests_sent;
        total.retransmissions += p.retransmissions;
        total.data_received += p.data_received;
        total.packets_verified += p.packets_verified;
        total.verify_failures += p.verify_failures;
        total.signature_checks += p.signature_checks;
        total.ticks += p.ticks;
        total.tick_scans += p.tick_scans;
        total.bitmaps_sent += p.bitmaps_sent;
        total.bitmaps_heard += p.bitmaps_heard;
        total.bitmaps_cancelled += p.bitmaps_cancelled;
        total.peba_backoffs += p.peba_backoffs;
        total.discovery_sent += p.discovery_sent;
        total.packets_served += p.packets_served;
        total.interests_forwarded += p.interests_forwarded;
        total.frames_peek_resolved += p.frames_peek_resolved;
        total.peek_cs_hits += p.peek_cs_hits;
        total.peek_dup_nonces += p.peek_dup_nonces;
        total.peek_fib_drops += p.peek_fib_drops;
        total.peek_unsolicited_data += p.peek_unsolicited_data;
        total.peek_relayed += p.peek_relayed;
        total.peek_relay_suppressed += p.peek_relay_suppressed;
        total.frames_relay_patched += p.frames_relay_patched;
        total.adverts_rejected_bad_sig += p.adverts_rejected_bad_sig;
        total.adverts_rejected_replay += p.adverts_rejected_replay;
        total.peers_expired += p.peers_expired;
        total.segments_rejected_tamper += p.segments_rejected_tamper;
        total.interests_rejected_replay += p.interests_rejected_replay;
        total.flood_frames_dropped += p.flood_frames_dropped;
        total.retx_give_ups += p.retx_give_ups;
        total.neighbors_expired += p.neighbors_expired;
        total.resumed_segments_skipped += p.resumed_segments_skipped;
        total.resumed_refetch += p.resumed_refetch;
        total.completed_at = match (total.completed_at, p.completed_at) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
    total
}

/// Sums every honest DAPES peer's counters in a scenario (adversaries and
/// non-DAPES stacks are skipped).
pub fn peer_totals(sc: &Scenario) -> PeerStats {
    sum_peers(
        (0..sc.world.node_count())
            .filter_map(|i| sc.peer(NodeId(i as u32)))
            .map(|p| p.stats()),
    )
}

/// Renders the combined Prometheus text-format dump: the simulator's
/// counters followed by the aggregated `dapes_peer_*` counters. Pass
/// `&PeerStats::default()` for benches whose stacks are not DAPES peers
/// (the scheduler swarm); the peer section then reports zeros rather than
/// silently disappearing from the scrape surface.
pub fn export(stats: &Stats, peers: &PeerStats) -> String {
    let mut out = stats.to_prometheus();
    for &(name, help, get) in PEER_COUNTERS {
        out.push_str(&format!(
            "# HELP dapes_peer_{name} {help}\n\
             # TYPE dapes_peer_{name} counter\n\
             dapes_peer_{name} {}\n",
            get(peers)
        ));
    }
    out.push_str(&format!(
        "# HELP dapes_peer_completed_at_seconds Latest peer completion time in simulated seconds (0 = incomplete).\n\
         # TYPE dapes_peer_completed_at_seconds gauge\n\
         dapes_peer_completed_at_seconds {}\n",
        peers
            .completed_at
            .map_or(0.0, |t| t.as_micros() as f64 / 1e6)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_adds_every_counter_and_keeps_the_latest_completion() {
        let a = PeerStats {
            interests_sent: 3,
            resumed_refetch: 1,
            completed_at: Some(dapes_netsim::time::SimTime::from_secs(5)),
            ..PeerStats::default()
        };
        let b = PeerStats {
            interests_sent: 4,
            neighbors_expired: 2,
            completed_at: Some(dapes_netsim::time::SimTime::from_secs(9)),
            ..PeerStats::default()
        };
        let t = sum_peers([&a, &b]);
        assert_eq!(t.interests_sent, 7);
        assert_eq!(t.resumed_refetch, 1);
        assert_eq!(t.neighbors_expired, 2);
        assert_eq!(
            t.completed_at,
            Some(dapes_netsim::time::SimTime::from_secs(9))
        );
        assert_eq!(sum_peers([]).completed_at, None);
    }

    #[test]
    fn export_validates_and_covers_the_peer_namespace() {
        let peers = PeerStats {
            interests_sent: 11,
            ..PeerStats::default()
        };
        let dump = export(&Stats::new(4), &peers);
        crate::check::validate_prometheus(&dump).expect("dump validates");
        assert!(dump.contains("dapes_tx_frames_total"), "simulator section");
        assert!(dump.contains("dapes_peer_interests_sent_total 11"));
        // Every PeerStats counter is on the scrape surface.
        for (name, _, _) in PEER_COUNTERS {
            assert!(dump.contains(&format!("dapes_peer_{name} ")), "{name}");
        }
        assert!(dump.contains("dapes_peer_completed_at_seconds 0"));
    }
}
