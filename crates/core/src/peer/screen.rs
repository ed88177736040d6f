//! Adversarial screening (`signed_adverts`): sealing our own
//! announcements, and holding every overheard frame, Interest and Data
//! packet to the trust anchor, the replay guard and the nonce journal
//! before any protocol state can absorb it.

use super::received::Proofs;
use super::DapesPeer;
use crate::auth::{self, ReplayVerdict};
use crate::config::REPLAY_WINDOW;
use crate::multihop::NodeRole;
use crate::namespace::{self, DapesName};
use dapes_ndn::packet::{Data, InterestHeader, PacketHeader};
use dapes_netsim::node::NodeCtx;
use dapes_netsim::payload::Payload;
use dapes_netsim::time::SimTime;

/// Overheard-nonce journal capacity: enough for several replay windows of
/// traffic in a dense cell, bounded so a nonce-minting flooder cannot grow
/// it without limit.
pub(super) const NONCE_JOURNAL_CAP: usize = 4096;

impl DapesPeer {
    /// Seals an announcement payload under our producer key when
    /// `signed_adverts` is on; otherwise returns it untouched, which keeps
    /// the axis-off wire format byte-identical to the pre-auth one.
    pub(super) fn seal_announcement(&mut self, now: SimTime, base: Vec<u8>) -> Vec<u8> {
        if !self.cfg.signed_adverts {
            return base;
        }
        let ts = self.stamp.next(now);
        auth::seal(
            &base,
            ts,
            &self.anchor.keypair(&format!("peer-{}", self.id)),
        )
    }

    /// Drops Interests whose nonce was first overheard longer than the
    /// replay window ago (re-injected Interests). Runs before the forwarder
    /// so a replayed Interest can never be answered from the Content Store
    /// or refresh its old PIT entry. Makes no RNG draws.
    pub(super) fn screen_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        header: &PacketHeader<'_>,
    ) -> bool {
        if let PacketHeader::Interest(h) = header {
            // A first sighting is journaled; a recent re-hearing is an
            // honest wireless echo or relay.
            if let Some(first_seen) = self.nonce_journal.record(h.nonce, ctx.now) {
                if ctx.now.since(first_seen) > REPLAY_WINDOW {
                    self.stats.interests_rejected_replay += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Authenticates a bitmap Interest's sealed advertisement before a DAPES
    /// peer's forwarder records it or its application reads it. An Interest
    /// the Content Store answers or the PIT drops as a duplicate reaches
    /// neither, so it passes unscreened; so does every Interest at a pure
    /// forwarder, which only relays announcements and records none; so do
    /// other names: discovery probes carry only the bare prober id and
    /// content/metadata Interests carry no announcement at all.
    pub(super) fn screen_interest(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        interest: &InterestHeader<'_>,
        frame: &Payload,
        proofs: &mut Proofs,
    ) -> bool {
        let Some(params) = interest.app_parameters else {
            return false;
        };
        if self.role != NodeRole::Dapes {
            return false;
        }
        // Exactly the names `classify` calls `Bitmap`, without building the
        // classification of the content Interests that are most frames. A
        // malformed name is the forwarder's to drop.
        let is_bitmap = interest
            .to_name(frame)
            .is_ok_and(|name| namespace::parse_bitmap_name(&name).is_some());
        if !is_bitmap || !self.forwarder.reaches_pit(ctx.now, interest) {
            return false;
        }
        self.screen_announcement(ctx, params, proofs)
    }

    /// Screens an overheard Data packet before any protocol state —
    /// including the Content Store — can absorb it: announcements must
    /// open under the trust anchor and pass the replay guard;
    /// content/metadata segments must carry a valid signature
    /// (`authentic`, the frame's [`DapesPeer::check_signature`] verdict).
    pub(super) fn screen_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        data: &Data,
        class: Option<&DapesName>,
        authentic: bool,
        proofs: &mut Proofs,
    ) -> bool {
        match class {
            Some(DapesName::Bitmap { .. }) | Some(DapesName::Discovery { .. }) => {
                self.screen_announcement(ctx, data.content(), proofs)
            }
            Some(DapesName::Content { .. }) | Some(DapesName::Metadata { .. }) => {
                if !authentic {
                    self.stats.segments_rejected_tamper += 1;
                }
                !authentic
            }
            None => false,
        }
    }

    /// The signature check of one decoded Data packet: content and metadata
    /// segments verify against the trust anchor (announcements are sealed
    /// inside their content instead and go through
    /// [`DapesPeer::screen_announcement`]). Consulted once per decoded
    /// packet and counted per receiver in `signature_checks`; the MAC runs
    /// once per packet and anchor, in `proofs`. The verdict then travels by
    /// value, because the packet a Content Store hit hands to
    /// [`DapesPeer::handle_app_data`] is not the frame being processed and
    /// must not inherit its verdict.
    pub(super) fn check_signature(
        &mut self,
        data: &Data,
        class: Option<&DapesName>,
        proofs: &mut Proofs,
    ) -> bool {
        if !matches!(
            class,
            Some(DapesName::Content { .. }) | Some(DapesName::Metadata { .. })
        ) {
            return false;
        }
        self.stats.signature_checks += 1;
        proofs.verdict(data, &self.anchor)
    }

    /// Screens a sealed announcement: counts and drops forgeries (no room
    /// for an envelope, or a signature that fails under the claimed
    /// producer's key, see [`Proofs::opened`]) and replays.
    fn screen_announcement(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        sealed: &[u8],
        proofs: &mut Proofs,
    ) -> bool {
        let Some((key_id, ts)) = proofs.opened(sealed, &self.anchor) else {
            // An unsigned, truncated or forged announcement in a signed
            // deployment.
            self.stats.adverts_rejected_bad_sig += 1;
            return true;
        };
        match self.replay.check(key_id, ts, ctx.now) {
            ReplayVerdict::Fresh | ReplayVerdict::Duplicate => false,
            ReplayVerdict::Replayed => {
                self.stats.adverts_rejected_replay += 1;
                true
            }
        }
    }
}
