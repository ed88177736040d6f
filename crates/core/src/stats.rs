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

/// Counters kept by each DAPES peer.
#[derive(Clone, Debug, Default)]
pub struct PeerStats {
    /// Content Interests sent (first transmissions).
    pub interests_sent: u64,
    /// Content Interest retransmissions.
    pub retransmissions: u64,
    /// Content Data packets received for our own downloads.
    pub data_received: u64,
    /// Packets that verified (immediately or via a completed file).
    pub packets_verified: u64,
    /// Verification failures (corrupt or forged packets dropped).
    pub verify_failures: u64,
    /// Signature checks run on decoded content/metadata Data: one per
    /// decoded frame however many handlers consume its verdict, plus one
    /// per packet a Content Store hit served to our own Interest.
    pub signature_checks: u64,
    /// Housekeeping ticks run (one per `DapesConfig::tick`, whatever the
    /// node is doing) — the denominator for [`PeerStats::tick_scans`].
    pub ticks: u64,
    /// Full scans those ticks actually ran over the expiring tables
    /// (multi-hop neighbor/suppression/pending maps, PIT, replay guard).
    /// Each is watermarked and scans only when an entry can be due, so
    /// this stays far below three per tick; the nonce journal adds none —
    /// its retention pops expired heads off a time-ordered index.
    pub tick_scans: u64,
    /// Bitmaps we transmitted (Interests carrying ours plus replies).
    pub bitmaps_sent: u64,
    /// Bitmaps received/overheard from others.
    pub bitmaps_heard: u64,
    /// Bitmap transmissions cancelled because the union covered us.
    pub bitmaps_cancelled: u64,
    /// PEBA backoffs taken after detected collisions.
    pub peba_backoffs: u64,
    /// Discovery beacons sent.
    pub discovery_sent: u64,
    /// Data replies we served to other peers.
    pub packets_served: u64,
    /// Interests we re-broadcast as an intermediate node.
    pub interests_forwarded: u64,
    /// Overheard frames fully resolved from a name-first header peek,
    /// without a full TLV decode — always the sum of the six per-outcome
    /// counters below.
    pub frames_peek_resolved: u64,
    /// Peek-resolved Interests answered from the Content Store (exact hits
    /// through the wire index plus CanBePrefix hits through the ordered
    /// wire index).
    pub peek_cs_hits: u64,
    /// Peek-resolved Interests dropped as duplicate nonces.
    pub peek_dup_nonces: u64,
    /// Peek-resolved Interests dropped for lack of a usable FIB route (the
    /// not-for-me case: PIT entry recorded, forwarding suppressed).
    pub peek_fib_drops: u64,
    /// Peek-resolved Data frames that matched no PIT entry and were neither
    /// cached nor wanted.
    pub peek_unsolicited_data: u64,
    /// Peek-resolved Interests relayed on the decode-free path: PIT entry
    /// recorded and the frame re-broadcast (or the hop limit found
    /// exhausted) without constructing an `Interest`.
    pub peek_relayed: u64,
    /// Peek-resolved Interests the forwarding strategy suppressed on the
    /// decode-free path (PIT entry still recorded).
    pub peek_relay_suppressed: u64,
    /// Frames actually re-broadcast on the decode-free relay path — the
    /// received bytes handed straight back to the radio, hop-limit byte
    /// patched copy-on-write when the Interest carries one. A subset of
    /// [`PeerStats::peek_relayed`], which also counts hop-exhausted relays
    /// that transmit nothing.
    pub frames_relay_patched: u64,
    /// Sealed adverts/discovery replies dropped for a bad or forged
    /// signature (wrong tag, truncated envelope, or a key id that does not
    /// match the claimed producer).
    pub adverts_rejected_bad_sig: u64,
    /// Sealed adverts/discovery replies dropped by the replay guard
    /// (timestamp at or below the producer's high-water mark, or older
    /// than the replay window).
    pub adverts_rejected_replay: u64,
    /// Producers swept from the replay table after going unheard for the
    /// peer TTL (stale-peer expiry of the authenticated discovery set).
    pub peers_expired: u64,
    /// Content/metadata Data frames dropped before any Content Store or
    /// PIT state was touched because their signature failed to verify.
    pub segments_rejected_tamper: u64,
    /// Interests dropped as duplicate nonces that arrived *after* the PIT
    /// entry's own lifetime was refreshed by a replayed copy — i.e. the
    /// dup-nonce drops attributable to re-injected (not merely flooded)
    /// Interests.
    pub interests_rejected_replay: u64,
    /// Frames that failed to parse as NDN packets at all and were dropped
    /// on the floor (the noise-flood sink).
    pub flood_frames_dropped: u64,
    /// Outstanding fetches abandoned after `max_retx` backed-off
    /// retransmissions (content packets are requeued for a later window;
    /// metadata segments re-enter the fetch plan on the next encounter).
    pub retx_give_ups: u64,
    /// Neighbors expired from the multi-hop neighbor table after going
    /// unheard for the neighbor timeout — crashed or departed peers leaving
    /// the forwarding strategy's view.
    pub neighbors_expired: u64,
    /// Segments a restarted downloader salvaged from its previous
    /// incarnation and never re-fetched.
    pub resumed_segments_skipped: u64,
    /// Content Interests sent for a segment the salvaged state already
    /// held — always zero unless resume is broken.
    pub resumed_refetch: u64,
    /// Completion time of all wanted collections, once reached.
    pub completed_at: Option<SimTime>,
}

impl PeerStats {
    /// Records completion once; later calls keep the first time.
    pub fn complete(&mut self, now: SimTime) {
        if self.completed_at.is_none() {
            self.completed_at = Some(now);
        }
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
}
