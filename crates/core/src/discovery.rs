//! Peer and file-collection discovery (paper §IV-B).
//!
//! Peers periodically broadcast *discovery Interests*; receivers answer with
//! discovery Data listing the metadata names of the collections they hold.
//! The beacon period adapts: frequent while peers are around, backing off
//! exponentially in isolation.

use crate::config::{DISCOVERY_MAX, DISCOVERY_MIN, DISCOVERY_RECENT};
use dapes_ndn::name::Name;
use dapes_netsim::time::{SimDuration, SimTime};

/// Adaptive discovery beacon timing between [`DISCOVERY_MIN`] and
/// [`DISCOVERY_MAX`]; a peer heard within [`DISCOVERY_RECENT`] counts as
/// encountered.
#[derive(Clone, Debug)]
pub struct DiscoveryState {
    period: SimDuration,
    last_peer_heard: Option<SimTime>,
}

impl Default for DiscoveryState {
    /// The beacon state of a fresh peer: the period starts at the minimum.
    fn default() -> Self {
        DiscoveryState {
            period: DISCOVERY_MIN,
            last_peer_heard: None,
        }
    }
}

impl DiscoveryState {
    /// Notes that any peer was heard (any DAPES frame counts).
    pub fn note_peer_heard(&mut self, now: SimTime) {
        self.last_peer_heard = Some(now);
    }

    /// Computes the delay until the next beacon and advances the internal
    /// period: reset to the minimum when peers were heard recently,
    /// otherwise doubled up to the maximum.
    pub fn next_period(&mut self, now: SimTime) -> SimDuration {
        let recently = self
            .last_peer_heard
            .is_some_and(|t| now.since(t) <= DISCOVERY_RECENT);
        if recently {
            self.period = DISCOVERY_MIN;
        } else {
            self.period = SimDuration::from_micros(
                (self.period.as_micros() * 2).min(DISCOVERY_MAX.as_micros()),
            );
        }
        self.period
    }

    /// The current period without advancing it.
    pub fn period(&self) -> SimDuration {
        self.period
    }
}

/// The smallest encoded offer: two empty names, each a 2-byte length.
const OFFER_MIN_LEN: usize = 2 + 2;

/// One collection offered in a discovery reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OfferedCollection {
    /// The collection name.
    pub collection: Name,
    /// The full metadata name (`/<collection>/metadata-file/<digest8>`).
    pub metadata: Name,
}

/// The payload of a discovery Data packet (and, in reduced form, the peer
/// id carried in discovery Interests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiscoveryInfo {
    /// The advertising peer.
    pub peer: u32,
    /// Collections the peer can serve metadata for.
    pub offers: Vec<OfferedCollection>,
}

impl DiscoveryInfo {
    /// Serializes to bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.peer.to_be_bytes());
        out.extend_from_slice(&(self.offers.len() as u16).to_be_bytes());
        for offer in &self.offers {
            for name in [&offer.collection, &offer.metadata] {
                let uri = name.to_string();
                out.extend_from_slice(&(uri.len() as u16).to_be_bytes());
                out.extend_from_slice(uri.as_bytes());
            }
        }
        out
    }

    /// Parses the [`DiscoveryInfo::to_wire`] encoding.
    pub fn from_wire(wire: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = wire.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let peer = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let count = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
        // Reserve no more offers than the bytes left can hold: a claimed
        // count is hostile input.
        let mut offers = Vec::with_capacity(count.min((wire.len() - pos) / OFFER_MIN_LEN));
        for _ in 0..count {
            let mut names = Vec::with_capacity(2);
            for _ in 0..2 {
                let len = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?) as usize;
                let uri = std::str::from_utf8(take(&mut pos, len)?).ok()?;
                names.push(Name::from_uri(uri));
            }
            let metadata = names.pop().expect("two names");
            let collection = names.pop().expect("two names");
            offers.push(OfferedCollection {
                collection,
                metadata,
            });
        }
        if pos != wire.len() {
            return None;
        }
        Some(DiscoveryInfo { peer, offers })
    }

    /// Parses a discovery payload that may carry the signed-advert envelope
    /// ([`crate::auth`]): tries the plain encoding first, then once more
    /// with the envelope trailer stripped — *without verifying it*.
    ///
    /// Like [`crate::advert_payload::decode_bitmap_params_maybe_sealed`],
    /// this serves sites that only peek at the announcement; consumers that
    /// admit it into the discovery set authenticate via
    /// [`crate::auth::open`] first.
    pub fn from_wire_maybe_sealed(wire: &[u8]) -> Option<Self> {
        DiscoveryInfo::from_wire(wire)
            .or_else(|| crate::auth::strip(wire).and_then(DiscoveryInfo::from_wire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_backs_off_in_isolation() {
        let mut s = DiscoveryState::default();
        let t = SimTime::from_secs(100);
        assert_eq!(s.next_period(t), SimDuration::from_secs(2));
        assert_eq!(s.next_period(t), SimDuration::from_secs(4));
        assert_eq!(s.next_period(t), SimDuration::from_secs(8));
        assert_eq!(s.next_period(t), SimDuration::from_secs(8), "capped");
    }

    #[test]
    fn period_resets_when_peers_around() {
        let mut s = DiscoveryState::default();
        let mut t = SimTime::from_secs(100);
        s.next_period(t);
        s.next_period(t);
        assert_eq!(s.period(), SimDuration::from_secs(4));
        s.note_peer_heard(t);
        t += SimDuration::from_secs(1);
        assert_eq!(s.next_period(t), SimDuration::from_secs(1), "back to min");
    }

    #[test]
    fn stale_peer_sighting_does_not_reset() {
        let mut s = DiscoveryState::default();
        let t0 = SimTime::from_secs(100);
        s.note_peer_heard(t0);
        // 6 s later the sighting is outside the 5 s window.
        let t1 = t0 + SimDuration::from_secs(6);
        assert_eq!(s.next_period(t1), SimDuration::from_secs(2));
    }

    #[test]
    fn info_round_trip() {
        let info = DiscoveryInfo {
            peer: 42,
            offers: vec![
                OfferedCollection {
                    collection: Name::from_uri("/damaged-bridge-1533783192"),
                    metadata: Name::from_uri("/damaged-bridge-1533783192/metadata-file/A23D1F9B"),
                },
                OfferedCollection {
                    collection: Name::from_uri("/road-closure-1"),
                    metadata: Name::from_uri("/road-closure-1/metadata-file/00FF00FF"),
                },
            ],
        };
        let wire = info.to_wire();
        assert_eq!(DiscoveryInfo::from_wire(&wire), Some(info));
    }

    #[test]
    fn empty_offer_list_round_trips() {
        let info = DiscoveryInfo {
            peer: 7,
            offers: vec![],
        };
        assert_eq!(DiscoveryInfo::from_wire(&info.to_wire()), Some(info));
    }

    #[test]
    fn maybe_sealed_accepts_both_forms() {
        use dapes_crypto::signing::TrustAnchor;
        let info = DiscoveryInfo {
            peer: 5,
            offers: vec![],
        };
        let plain = info.to_wire();
        assert_eq!(
            DiscoveryInfo::from_wire_maybe_sealed(&plain),
            Some(info.clone())
        );
        let anchor = TrustAnchor::from_seed(b"discovery-tests");
        let sealed = crate::auth::seal(&plain, 9, &anchor.keypair("peer-5"));
        assert!(
            DiscoveryInfo::from_wire(&sealed).is_none(),
            "trailer rejected"
        );
        assert_eq!(DiscoveryInfo::from_wire_maybe_sealed(&sealed), Some(info));
    }

    #[test]
    fn a_short_payload_claiming_the_largest_count_is_rejected() {
        let mut wire = 7u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&u16::MAX.to_be_bytes());
        assert!(DiscoveryInfo::from_wire(&wire).is_none());
    }

    #[test]
    fn from_wire_rejects_corruption() {
        let info = DiscoveryInfo {
            peer: 1,
            offers: vec![OfferedCollection {
                collection: Name::from_uri("/c"),
                metadata: Name::from_uri("/c/metadata-file/AA"),
            }],
        };
        let wire = info.to_wire();
        assert!(DiscoveryInfo::from_wire(&wire[..wire.len() - 1]).is_none());
        assert!(DiscoveryInfo::from_wire(&[]).is_none());
        let mut trailing = wire;
        trailing.push(9);
        assert!(DiscoveryInfo::from_wire(&trailing).is_none());
    }
}
