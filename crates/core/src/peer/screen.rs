//! Adversarial screening (`signed_adverts`): sealing our own
//! announcements, and holding every overheard frame, Interest and Data
//! packet to the trust anchor, the replay guard and the nonce journal
//! before any protocol state can absorb it.

use super::DapesPeer;
use crate::auth::{self, OpenError, ReplayVerdict};
use crate::config::REPLAY_WINDOW;
use crate::namespace::{self, DapesName};
use dapes_ndn::packet::{Data, Interest, Packet, PacketHeader};
use dapes_netsim::node::NodeCtx;
use dapes_netsim::radio::Frame;
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

    /// Pre-decode screening: drops frames whose header peek fails (the
    /// noise-flood sink) and Interests whose nonce was first overheard
    /// longer than the replay window ago (re-injected Interests). Runs
    /// before the peek/decode split so a replayed Interest can never be
    /// answered from the Content Store or refresh its old PIT entry.
    /// Makes no RNG draws.
    pub(super) fn screen_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) -> bool {
        let Ok(header) = Packet::peek_header(&frame.payload) else {
            self.stats.flood_frames_dropped += 1;
            return true;
        };
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

    /// Authenticates a bitmap Interest's sealed advertisement before the
    /// forwarder or `handle_bitmap_seen` touch it. Other Interests pass:
    /// discovery probes carry only the bare prober id and content/metadata
    /// Interests carry no announcement at all.
    pub(super) fn screen_interest(&mut self, ctx: &mut NodeCtx<'_>, interest: &Interest) -> bool {
        // Exactly the names `classify` calls `Bitmap`, without building the
        // classification of the content Interests that are most frames.
        if namespace::parse_bitmap_name(interest.name()).is_none() {
            return false;
        }
        match interest.app_parameters() {
            Some(params) => self.screen_announcement(ctx, params),
            None => false,
        }
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
    ) -> bool {
        match class {
            Some(DapesName::Bitmap { .. }) | Some(DapesName::Discovery { .. }) => {
                self.screen_announcement(ctx, data.content())
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
    /// [`DapesPeer::screen_announcement`]). Called once per decoded packet;
    /// the verdict then travels by value, because the packet a Content
    /// Store hit hands to [`DapesPeer::handle_app_data`] is not the frame
    /// being processed and must not inherit its verdict.
    pub(super) fn check_signature(&mut self, data: &Data, class: Option<&DapesName>) -> bool {
        if !matches!(
            class,
            Some(DapesName::Content { .. }) | Some(DapesName::Metadata { .. })
        ) {
            return false;
        }
        self.stats.signature_checks += 1;
        data.verify(&self.anchor)
    }

    /// Opens a sealed announcement: counts and drops bad signatures and
    /// replays. The claimed producer is the peer id leading the base
    /// payload (both the bitmap and the discovery encodings start with
    /// it), so a forged producer name fails signature verification.
    fn screen_announcement(&mut self, ctx: &mut NodeCtx<'_>, sealed: &[u8]) -> bool {
        let claimed = auth::strip(sealed)
            .filter(|base| base.len() >= 4)
            .map(|base| u32::from_be_bytes(base[..4].try_into().expect("4 bytes")));
        let Some(claimed) = claimed else {
            // No room for an envelope at all: an unsigned or truncated
            // announcement in a signed deployment is a forgery.
            self.stats.adverts_rejected_bad_sig += 1;
            return true;
        };
        // One derivation serves both the envelope check and the replay
        // guard's table key.
        let key_id = self.anchor.key_id_for(&format!("peer-{claimed}"));
        match auth::open(sealed, key_id, &self.anchor) {
            Ok((_base, ts)) => match self.replay.check(key_id, ts, ctx.now) {
                ReplayVerdict::Fresh | ReplayVerdict::Duplicate => false,
                ReplayVerdict::Replayed => {
                    self.stats.adverts_rejected_replay += 1;
                    true
                }
            },
            Err(OpenError::BadSignature) | Err(OpenError::Replay) => {
                self.stats.adverts_rejected_bad_sig += 1;
                true
            }
        }
    }
}
