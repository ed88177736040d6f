//! Frame-kind constants and per-peer protocol statistics.
//!
//! The frame kinds let the simulator's per-kind transmission counters
//! reproduce the paper's overhead breakdowns: for DAPES the overhead is
//! "discovery Interests and data, bitmap Interests and data, and the
//! Interest/data packets transmitted for the file collection sharing,
//! including forwarding transmissions by intermediate nodes" (§VI-B).

use dapes_netsim::radio::FrameKind;
use dapes_netsim::time::SimTime;

/// DAPES frame kinds (baselines use 20+).
pub mod kinds {
    use super::FrameKind;

    /// Discovery Interest beacon.
    pub const DISCOVERY_INTEREST: FrameKind = FrameKind(1);
    /// Discovery Data reply.
    pub const DISCOVERY_DATA: FrameKind = FrameKind(2);
    /// Metadata segment Interest.
    pub const METADATA_INTEREST: FrameKind = FrameKind(3);
    /// Metadata segment Data.
    pub const METADATA_DATA: FrameKind = FrameKind(4);
    /// Bitmap (advertisement) Interest.
    pub const BITMAP_INTEREST: FrameKind = FrameKind(5);
    /// Bitmap Data reply.
    pub const BITMAP_DATA: FrameKind = FrameKind(6);
    /// Content Interest.
    pub const CONTENT_INTEREST: FrameKind = FrameKind(7);
    /// Content Data.
    pub const CONTENT_DATA: FrameKind = FrameKind(8);

    /// Every DAPES kind, i.e. the paper's DAPES overhead set.
    pub const ALL_DAPES: [FrameKind; 8] = [
        DISCOVERY_INTEREST,
        DISCOVERY_DATA,
        METADATA_INTEREST,
        METADATA_DATA,
        BITMAP_INTEREST,
        BITMAP_DATA,
        CONTENT_INTEREST,
        CONTENT_DATA,
    ];
}

dapes_netsim::counters! {
    /// Counters kept by each DAPES peer.
    #[derive(Clone, Debug, Default)]
    pub struct PeerStats {
        /// Content Interests sent (first transmissions).
        interests_sent: "Content Interests sent (first transmissions).",
        /// Content Interest retransmissions.
        retransmissions: "Content Interest retransmissions.",
        /// Content Data packets received for our own downloads.
        data_received: "Content Data packets received for own downloads.",
        /// Packets that verified (immediately or via a completed file).
        packets_verified: "Packets that verified.",
        /// Verification failures (corrupt or forged packets dropped).
        verify_failures: "Verification failures dropped.",
        /// Signature checks run on decoded content/metadata Data: one per
        /// decoded frame however many handlers consume its verdict, plus one
        /// per packet a Content Store hit served to our own Interest.
        signature_checks: "Signature checks run on decoded content/metadata Data.",
        /// Housekeeping ticks run (one per [`TICK`](crate::config::TICK),
        /// whatever the node is doing) — the denominator for [`PeerStats::tick_scans`].
        ticks: "Housekeeping ticks run.",
        /// Full scans those ticks actually ran over the expiring tables
        /// (multi-hop neighbor/suppression/pending maps, PIT, replay guard).
        /// Each is watermarked and scans only when an entry can be due, so
        /// this stays far below three per tick; the nonce journal adds none —
        /// its retention pops expired heads off a time-ordered index.
        tick_scans: "Full table scans the periodic tick ran (watermarked sweeps).",
        /// Bitmaps we transmitted (Interests carrying ours plus replies).
        bitmaps_sent: "Bitmaps transmitted.",
        /// Bitmaps received/overheard from others.
        bitmaps_heard: "Bitmaps received or overheard.",
        /// Bitmap transmissions cancelled because the union covered us.
        bitmaps_cancelled: "Bitmap transmissions cancelled by the union rule.",
        /// PEBA backoffs taken after detected collisions.
        peba_backoffs: "PEBA backoffs after detected collisions.",
        /// Discovery beacons sent.
        discovery_sent: "Discovery beacons sent.",
        /// Data replies we served to other peers.
        packets_served: "Data replies served to other peers.",
        /// Interests we re-broadcast as an intermediate node.
        interests_forwarded: "Interests re-broadcast as an intermediate node.",
        /// Overheard frames fully resolved from a name-first header peek,
        /// without a full TLV decode — always the sum of the six per-outcome
        /// counters below.
        frames_peek_resolved: "Frames resolved from a name-first header peek.",
        /// Peek-resolved Interests answered from the Content Store (exact hits
        /// through the wire index plus CanBePrefix hits through the ordered
        /// wire index).
        peek_cs_hits: "Peek-resolved Interests answered from the Content Store.",
        /// Peek-resolved Interests dropped as duplicate nonces.
        peek_dup_nonces: "Peek-resolved Interests dropped as duplicate nonces.",
        /// Peek-resolved Interests dropped for lack of a usable FIB route (the
        /// not-for-me case: PIT entry recorded, forwarding suppressed).
        peek_fib_drops: "Peek-resolved Interests dropped for lack of a FIB route.",
        /// Peek-resolved Data frames that matched no PIT entry and were neither
        /// cached nor wanted.
        peek_unsolicited_data: "Peek-resolved Data matching no PIT entry.",
        /// Peek-resolved Interests relayed on the decode-free path: PIT entry
        /// recorded and the frame re-broadcast (or the hop limit found
        /// exhausted) without constructing an `Interest`.
        peek_relayed: "Peek-resolved Interests relayed decode-free.",
        /// Peek-resolved Interests the forwarding strategy suppressed on the
        /// decode-free path (PIT entry still recorded).
        peek_relay_suppressed: "Peek-resolved Interests the strategy suppressed.",
        /// Frames actually re-broadcast on the decode-free relay path — the
        /// received bytes handed straight back to the radio, hop-limit byte
        /// patched copy-on-write when the Interest carries one. A subset of
        /// [`PeerStats::peek_relayed`], which also counts hop-exhausted relays
        /// that transmit nothing.
        frames_relay_patched: "Frames re-broadcast with a copy-on-write hop-limit patch.",
        /// Sealed adverts/discovery replies dropped for a bad or forged
        /// signature (wrong tag, truncated envelope, or a key id that does not
        /// match the claimed producer).
        adverts_rejected_bad_sig: "Sealed adverts dropped for a bad signature.",
        /// Sealed adverts/discovery replies dropped by the replay guard
        /// (timestamp at or below the producer's high-water mark, or older
        /// than the replay window).
        adverts_rejected_replay: "Sealed adverts dropped by the replay guard.",
        /// Producers swept from the replay table after going unheard for the
        /// peer TTL (stale-peer expiry of the authenticated discovery set).
        peers_expired: "Producers swept from the replay table after the peer TTL.",
        /// Content/metadata Data frames dropped before any Content Store or
        /// PIT state was touched because their signature failed to verify.
        segments_rejected_tamper: "Data frames dropped on signature failure.",
        /// Interests dropped as duplicate nonces that arrived *after* the PIT
        /// entry's own lifetime was refreshed by a replayed copy — i.e. the
        /// dup-nonce drops attributable to re-injected (not merely flooded)
        /// Interests.
        interests_rejected_replay: "Dup-nonce drops attributable to re-injected Interests.",
        /// Frames that failed to parse as NDN packets at all and were dropped
        /// on the floor (the noise-flood sink).
        flood_frames_dropped: "Unparseable frames dropped on the floor.",
        /// Outstanding fetches abandoned after [`MAX_RETX`](crate::config::MAX_RETX) backed-off
        /// retransmissions (content packets are requeued for a later window;
        /// metadata segments re-enter the fetch plan on the next encounter).
        retx_give_ups: "Fetches abandoned after the backoff ladder ran dry.",
        /// Neighbors expired from the multi-hop neighbor table after going
        /// unheard for the neighbor timeout — crashed or departed peers leaving
        /// the forwarding strategy's view.
        neighbors_expired: "Neighbors expired after the neighbor timeout.",
        /// Segments a restarted downloader salvaged from its previous
        /// incarnation and never re-fetched.
        resumed_segments_skipped: "Segments salvaged on restart and never re-fetched.",
        /// Content Interests sent for a segment the salvaged state already
        /// held — always zero unless resume is broken.
        resumed_refetch: "Interests sent for segments salvage already held.",
    }
    with {
        /// Completion time of all wanted collections, once reached.
        pub completed_at: Option<SimTime>,
    }
}

impl PeerStats {
    /// Records completion once; later calls keep the first time.
    pub fn complete(&mut self, now: SimTime) {
        if self.completed_at.is_none() {
            self.completed_at = Some(now);
        }
    }

    /// Folds another peer's counters into this one. `completed_at` becomes
    /// the *latest* completion among the peers that completed (`None` when
    /// none did), so a swarm total reports the swarm's completion time.
    pub fn merge(&mut self, other: &PeerStats) {
        self.merge_counters(other);
        self.completed_at = self.completed_at.max(other.completed_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in kinds::ALL_DAPES {
            assert!(seen.insert(k), "duplicate kind {k:?}");
        }
    }

    #[test]
    fn completion_records_first_time_only() {
        let mut s = PeerStats::default();
        assert_eq!(s.completed_at, None);
        s.complete(SimTime::from_secs(5));
        s.complete(SimTime::from_secs(9));
        assert_eq!(s.completed_at, Some(SimTime::from_secs(5)));
    }

    #[test]
    fn sum_adds_every_counter_and_keeps_the_latest_completion() {
        let complete = |secs| PeerStats {
            completed_at: Some(SimTime::from_secs(secs)),
            ..PeerStats::default()
        };
        let (mut a, mut b, mut incomplete) = (complete(5), complete(9), PeerStats::default());
        // A distinct value per counter and peer, so a skipped or crossed
        // counter shows up in the sum.
        let mut i = 0;
        for p in [&mut a, &mut b, &mut incomplete] {
            p.visit_mut(|_, v| {
                i += 1;
                *v = i;
            });
        }
        let values = |p: &PeerStats| {
            let mut v = Vec::new();
            p.visit(|_, _, x| v.push(x));
            v
        };
        let (va, vb, vi) = (values(&a), values(&b), values(&incomplete));
        let expected: Vec<u64> = (0..va.len()).map(|k| va[k] + vb[k] + vi[k]).collect();

        let mut total = PeerStats::default();
        for p in [&incomplete, &a, &b] {
            total.merge(p);
        }
        assert_eq!(values(&total), expected);
        assert_eq!(total.completed_at, Some(SimTime::from_secs(9)));

        // An incomplete peer neither sets nor clears the latest completion.
        let mut half = complete(5);
        half.merge(&incomplete);
        assert_eq!(half.completed_at, Some(SimTime::from_secs(5)));
        let mut none = PeerStats::default();
        none.merge(&incomplete);
        assert_eq!(none.completed_at, None);
    }
}
