//! Attacker node types for the adversarial scenario axis.
//!
//! Each [`Adversary`] is a [`NetStack`] implementing one hostile behavior
//! from the threat model the signed control plane ([`crate::auth`]) defends
//! against:
//!
//! * [`AdversaryKind::SpoofForger`] — periodically broadcasts discovery
//!   replies impersonating a victim producer, sealed under a *rogue* trust
//!   anchor, so every honest receiver rejects them with a bad signature;
//! * [`AdversaryKind::SegmentTamperer`] — answers overheard content
//!   Interests with unsigned, bit-flipped segments faster than the honest
//!   responders, so the victim's signature check fires on a PIT-matching
//!   Data;
//! * [`AdversaryKind::InterestReplayer`] — records overheard content
//!   Interests and sealed announcements and re-injects the exact frame
//!   bytes after a hold longer than the replay window;
//! * [`AdversaryKind::NoiseFlooder`] — saturates the channel with frames
//!   that are not NDN packets at all.
//!
//! Every hostile transmission carries a dedicated [`FrameKind`]
//! ([`attack_kinds`]), so the simulator's per-kind *delivery* counters give
//! the exact number of hostile frames each honest node actually heard —
//! the denominator the defense counters in
//! [`PeerStats`](crate::stats::PeerStats) must account for exactly
//! (collision- and loss-dropped frames were never seen, so they cannot be
//! rejected).

use crate::auth::{self, MonotonicStamp};
use crate::discovery::{DiscoveryInfo, OfferedCollection};
use crate::namespace::{self, DapesName};
use crate::stats::kinds;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, Packet};
use dapes_netsim::node::{NetStack, NodeCtx};
use dapes_netsim::payload::Payload;
use dapes_netsim::radio::{Frame, FrameKind};
use dapes_netsim::time::SimDuration;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// Frame kinds for hostile transmissions (DAPES uses 1–8, baselines 20+,
/// the `relay-swarm` benchmark workload 50–53).
pub mod attack_kinds {
    use super::FrameKind;

    /// Junk bytes from a [`super::AdversaryKind::NoiseFlooder`].
    pub const FLOOD: FrameKind = FrameKind(30);
    /// Forged announcement from a [`super::AdversaryKind::SpoofForger`].
    pub const SPOOF: FrameKind = FrameKind(31);
    /// Tampered segment from a [`super::AdversaryKind::SegmentTamperer`].
    pub const TAMPER: FrameKind = FrameKind(32);
    /// Re-injected Interest from an
    /// [`super::AdversaryKind::InterestReplayer`].
    pub const INTEREST_REPLAY: FrameKind = FrameKind(33);
    /// Re-injected announcement Data from an
    /// [`super::AdversaryKind::InterestReplayer`].
    pub const ADVERT_REPLAY: FrameKind = FrameKind(34);

    /// Every hostile kind.
    pub const ALL: [FrameKind; 5] = [FLOOD, SPOOF, TAMPER, INTEREST_REPLAY, ADVERT_REPLAY];
}

/// Which hostile behavior an [`Adversary`] node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdversaryKind {
    /// Broadcasts discovery replies impersonating a victim producer,
    /// sealed under a rogue anchor.
    SpoofForger,
    /// Answers overheard content Interests with unsigned junk segments.
    SegmentTamperer,
    /// Re-injects overheard Interests and announcements after a delay.
    InterestReplayer,
    /// Broadcasts junk frames that fail to parse as NDN packets.
    NoiseFlooder,
}

impl AdversaryKind {
    /// Every attacker type, for scenario-matrix sweeps.
    pub const ALL: [AdversaryKind; 4] = [
        AdversaryKind::SpoofForger,
        AdversaryKind::SegmentTamperer,
        AdversaryKind::InterestReplayer,
        AdversaryKind::NoiseFlooder,
    ];

    /// A stable lowercase label for reports and CI logs.
    pub fn label(self) -> &'static str {
        match self {
            AdversaryKind::SpoofForger => "spoof",
            AdversaryKind::SegmentTamperer => "tamper",
            AdversaryKind::InterestReplayer => "replay",
            AdversaryKind::NoiseFlooder => "flood",
        }
    }
}

/// Attacker-side transmission counters, the "sent" half of the
/// defense-accounting invariant.
#[derive(Clone, Debug, Default)]
pub struct AdversarySent {
    /// Junk frames broadcast.
    pub flood_frames: u64,
    /// Forged announcements broadcast.
    pub forged_adverts: u64,
    /// Tampered segments broadcast.
    pub tampered_segments: u64,
    /// Interests re-injected.
    pub replayed_interests: u64,
    /// Announcement Data re-injected.
    pub replayed_adverts: u64,
}

impl AdversarySent {
    /// Total hostile frames broadcast.
    pub fn total(&self) -> u64 {
        self.flood_frames
            + self.forged_adverts
            + self.tampered_segments
            + self.replayed_interests
            + self.replayed_adverts
    }
}

/// Timer token for the periodic behaviors (flooder, forger).
const TOKEN_PERIODIC: u64 = u64::MAX;

/// Cadence of the periodic behaviors (flood, forge).
const PERIOD: SimDuration = SimDuration::from_millis(500);

/// How fast the tamperer answers an overheard Interest — small enough to
/// beat the honest responders' transmission window.
const REPLY_DELAY: SimDuration = SimDuration::from_millis(1);

/// How long the replayer holds a captured frame before re-injecting it.
/// Above the victims' [`REPLAY_WINDOW`](crate::config::REPLAY_WINDOW), or
/// the re-injection is indistinguishable from an honest wireless echo.
const REPLAY_DELAY: SimDuration = SimDuration::from_secs(6);
const _: () = assert!(REPLAY_DELAY.as_micros() > crate::config::REPLAY_WINDOW.as_micros());

/// One hostile node. See the [module docs](self) for the behavior
/// catalogue; all scheduling is deterministic given the node's seeded RNG.
pub struct Adversary {
    id: u32,
    kind: AdversaryKind,
    /// Producer id the forger impersonates.
    victim: u32,
    /// The forger's anchor: *not* the network's, so its seals never
    /// verify.
    rogue: TrustAnchor,
    stamp: MonotonicStamp,
    sent: AdversarySent,
    /// Scheduled hostile transmissions, by timer token.
    pending: BTreeMap<u64, (Payload, FrameKind)>,
    next_token: u64,
    /// Frames already captured by the replayer (each unique frame is
    /// re-injected once).
    captured: BTreeSet<Vec<u8>>,
}

impl Adversary {
    /// Creates an adversary node. `victim` is the producer id the spoof
    /// forger impersonates (ignored by the other kinds). The rogue anchor
    /// must differ from the network's shared anchor.
    pub fn new(id: u32, kind: AdversaryKind, victim: u32, rogue: TrustAnchor) -> Self {
        Adversary {
            id,
            kind,
            victim,
            rogue,
            stamp: MonotonicStamp::default(),
            sent: AdversarySent::default(),
            pending: BTreeMap::new(),
            next_token: 0,
            captured: BTreeSet::new(),
        }
    }

    /// The behavior this node runs.
    pub fn kind(&self) -> AdversaryKind {
        self.kind
    }

    /// Attacker-side transmission counters.
    pub fn sent(&self) -> &AdversarySent {
        &self.sent
    }

    fn schedule(&mut self, ctx: &mut NodeCtx<'_>, payload: Payload, kind: FrameKind) {
        self.next_token += 1;
        let token = self.next_token;
        let delay = match kind {
            attack_kinds::TAMPER => REPLY_DELAY,
            _ => REPLAY_DELAY,
        };
        self.pending.insert(token, (payload, kind));
        ctx.set_timer(delay, token);
    }

    fn fire_periodic(&mut self, ctx: &mut NodeCtx<'_>) {
        match self.kind {
            AdversaryKind::NoiseFlooder => {
                // A junk frame: 0xAA is no NDN packet type, so every
                // receiver's header peek fails on the first byte.
                let mut junk = vec![0xAA; 48];
                for b in junk.iter_mut().skip(1) {
                    *b = rand::Rng::gen(ctx.rng());
                }
                self.sent.flood_frames += 1;
                ctx.send_frame(junk, attack_kinds::FLOOD, 0, SimDuration::ZERO);
            }
            AdversaryKind::SpoofForger => {
                // A forged discovery reply claiming the victim producer
                // offers a phantom collection — sealed under the rogue
                // anchor, so honest receivers reject the signature.
                let info = DiscoveryInfo {
                    peer: self.victim,
                    offers: vec![OfferedCollection {
                        collection: Name::from_uri("/forged-collection"),
                        metadata: Name::from_uri("/forged-collection/metadata-file/00000000"),
                    }],
                };
                let ts = self.stamp.next(ctx.now);
                let producer = format!("peer-{}", self.victim);
                let sealed = auth::seal(&info.to_wire(), ts, &self.rogue.keypair(&producer));
                let data = Data::new(namespace::discovery_reply_name(self.victim), sealed)
                    .with_freshness_ms(1_000)
                    .signed(&self.rogue.keypair(&producer));
                self.sent.forged_adverts += 1;
                ctx.send_frame(data.wire(), attack_kinds::SPOOF, 0, SimDuration::ZERO);
            }
            AdversaryKind::SegmentTamperer | AdversaryKind::InterestReplayer => {}
        }
    }
}

impl NetStack for Adversary {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        match self.kind {
            AdversaryKind::NoiseFlooder | AdversaryKind::SpoofForger => {
                ctx.set_timer(PERIOD, TOKEN_PERIODIC);
            }
            AdversaryKind::SegmentTamperer | AdversaryKind::InterestReplayer => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        match self.kind {
            AdversaryKind::SegmentTamperer => {
                // Answer content Interests with an unsigned junk segment,
                // beating the honest responders' jittered replies.
                if frame.kind != kinds::CONTENT_INTEREST {
                    return;
                }
                let Ok(Packet::Interest(interest)) = Packet::decode_payload(&frame.payload) else {
                    return;
                };
                if !matches!(
                    namespace::classify(interest.name()),
                    Some(DapesName::Content { .. })
                ) {
                    return;
                }
                let tampered = Data::new(interest.name().clone(), vec![0x5A; 64]);
                self.schedule(ctx, tampered.wire(), attack_kinds::TAMPER);
            }
            AdversaryKind::InterestReplayer => {
                // Capture each unique content Interest and sealed
                // announcement once, and re-inject the exact bytes later.
                let replay_kind = match frame.kind {
                    kinds::CONTENT_INTEREST => attack_kinds::INTEREST_REPLAY,
                    kinds::DISCOVERY_DATA | kinds::BITMAP_DATA => attack_kinds::ADVERT_REPLAY,
                    _ => return,
                };
                if !self.captured.insert(frame.payload.as_ref().to_vec()) {
                    return;
                }
                self.schedule(ctx, frame.payload.clone(), replay_kind);
            }
            AdversaryKind::SpoofForger | AdversaryKind::NoiseFlooder => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token == TOKEN_PERIODIC {
            self.fire_periodic(ctx);
            ctx.set_timer(PERIOD, TOKEN_PERIODIC);
            return;
        }
        if let Some((payload, kind)) = self.pending.remove(&token) {
            // Counted at transmission, not capture: a scheduled frame whose
            // timer never fires (run horizon) was not sent.
            match kind {
                attack_kinds::TAMPER => self.sent.tampered_segments += 1,
                attack_kinds::INTEREST_REPLAY => self.sent.replayed_interests += 1,
                attack_kinds::ADVERT_REPLAY => self.sent.replayed_adverts += 1,
                _ => {}
            }
            ctx.send_frame(payload, kind, 0, SimDuration::ZERO);
        }
    }

    fn live_state_bytes(&self) -> usize {
        self.captured.iter().map(Vec::len).sum::<usize>()
            + self
                .pending
                .values()
                .map(|(p, _)| p.as_ref().len())
                .sum::<usize>()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl std::fmt::Debug for Adversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adversary")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("victim", &self.victim)
            .field("sent", &self.sent)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapes_crypto::signing::TrustAnchor;

    #[test]
    fn attack_kinds_do_not_collide_with_dapes_kinds() {
        let mut seen = std::collections::HashSet::new();
        for k in kinds::ALL_DAPES.iter().chain(attack_kinds::ALL.iter()) {
            assert!(seen.insert(*k), "duplicate kind {k:?}");
        }
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: std::collections::HashSet<&str> =
            AdversaryKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
        assert!(labels.contains("flood"));
    }

    #[test]
    fn forged_seal_never_opens_under_the_shared_anchor() {
        let shared = TrustAnchor::from_seed(b"network");
        let rogue = TrustAnchor::from_seed(b"rogue");
        let info = DiscoveryInfo {
            peer: 0,
            offers: vec![],
        };
        let sealed = auth::seal(&info.to_wire(), 1, &rogue.keypair("peer-0"));
        assert!(auth::open(&sealed, shared.key_id_for("peer-0"), &shared).is_err());
    }

    #[test]
    fn tampered_segment_fails_verification() {
        let anchor = TrustAnchor::from_seed(b"network");
        let tampered = Data::new(Name::from_uri("/c/file-0/p/0"), vec![0x5A; 64]);
        assert!(!tampered.verify(&anchor));
    }

    #[test]
    fn junk_frame_fails_the_header_peek() {
        let junk: Payload = vec![0xAAu8; 48].into();
        assert!(Packet::peek_header(&junk).is_err());
    }
}
