//! Bitmap advertisement rounds (paper §IV-D/E): opening our own rounds,
//! learning from and replying to everyone else's, and PEBA's collision
//! feedback (§IV-F).

use super::fetch::{Download, Phase};
use super::pending::{Cancel, PendingPayload};
use super::{DapesPeer, TOKEN_PENDING};
use crate::advert::AdvertScheduler;
use crate::advert_payload::{decode_bitmap_params_maybe_sealed, encode_bitmap_params};
use crate::bitmap::Bitmap;
use crate::config::{SLOT_LEN, TX_WINDOW};
use crate::namespace;
use crate::stats::kinds;
use dapes_ndn::face::FaceId;
use dapes_ndn::forwarder::Action;
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, Interest};
use dapes_netsim::node::NodeCtx;
use dapes_netsim::time::SimDuration;
use rand::Rng;

impl DapesPeer {
    /// Our possession bitmap for a collection we seed or download.
    pub(super) fn my_bitmap(&self, collection: &Name) -> Option<Bitmap> {
        self.forwarder.strategy().held(collection).cloned()
    }

    /// Registers a bitmap transmission whose outcome PEBA wants to see.
    fn track_bitmap_tx(&mut self, collection: Name) -> u64 {
        self.stats.bitmaps_sent += 1;
        self.next_pending += 1;
        let tx_token = self.next_pending;
        self.inflight.insert(tx_token, collection);
        tx_token
    }

    /// Builds and broadcasts our bitmap reply (a pending one fired).
    pub(super) fn fire_bitmap_reply(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        collection: Name,
        reply_name: Name,
    ) {
        let Some(my) = self.my_bitmap(&collection) else {
            return;
        };
        // Re-check marginal coverage right before transmitting: the
        // union may have grown while we waited.
        let covered = |d: &Download| d.advert.marginal(&my) == 0;
        if self.downloads.get(&collection).is_some_and(covered) {
            self.stats.bitmaps_cancelled += 1;
            return;
        }
        let content = self.seal_announcement(ctx.now, encode_bitmap_params(self.id, &my));
        let data = Data::new(reply_name, content)
            .signed(&self.anchor.keypair(&format!("peer-{}", self.id)));
        // Routed through the forwarder to consume the bitmap Interest's
        // PIT entry, and broadcast with the tx token so PEBA sees the
        // collision outcome.
        let tx_token = self.track_bitmap_tx(collection);
        self.emit_data(ctx, data, kinds::BITMAP_DATA, tx_token);
    }

    /// Builds and broadcasts our own advertisement round (a pending one
    /// fired).
    pub(super) fn fire_bitmap_interest(&mut self, ctx: &mut NodeCtx<'_>, collection: Name) {
        let Some(my) = self.my_bitmap(&collection) else {
            return;
        };
        self.advert_round += 1;
        let name = namespace::bitmap_interest_name(&collection, self.id, self.advert_round);
        let params = self.seal_announcement(ctx.now, encode_bitmap_params(self.id, &my));
        let interest = Interest::new(name)
            .with_can_be_prefix(true)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(2_000)
            .with_app_parameters(params);
        self.nonce_journal.record(interest.nonce(), ctx.now);
        let tx_token = self.track_bitmap_tx(collection);
        let actions = self
            .forwarder
            .process_interest(ctx.now, &interest, FaceId::APP);
        for action in actions {
            if let Action::RelayInterest {
                face: FaceId::WIRELESS,
                frame,
                ..
            } = action
            {
                ctx.send_frame(frame, kinds::BITMAP_INTEREST, tx_token, SimDuration::ZERO);
            }
        }
    }

    /// PEBA feedback: the outcome of one of our bitmap transmissions.
    pub(super) fn bitmap_tx_done(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        collection: Name,
        collided: bool,
    ) {
        let Some(my) = self.my_bitmap(&collection) else {
            return;
        };
        let Some(d) = self.downloads.get_mut(&collection) else {
            return;
        };
        if !collided {
            d.advert.record_transmitted(&my);
            return;
        }
        // Retry: in a prioritized slot with PEBA, by a linear re-draw
        // without — the scheduler knows which.
        if self.cfg.peba {
            self.stats.peba_backoffs += 1;
        }
        let delay = d.advert.collision_backoff(&my, ctx.rng());
        let reply_name = namespace::bitmap_reply_name(
            &namespace::bitmap_interest_name(&collection, self.id, self.advert_round),
            self.id,
        );
        self.schedule_pending(
            ctx,
            PendingPayload::BitmapReply {
                collection,
                reply_name,
            },
            kinds::BITMAP_DATA,
            delay,
            Cancel::Never,
        );
    }

    pub(super) fn open_advert_round(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name) {
        // The bitmap budget (Fig. 9c/9d) gates when *data fetching* starts,
        // via `required_before_fetch`; periodic re-advertisement itself must
        // continue for as long as the download runs, or knowledge of the
        // data available nearby would rot away with neighbor expiry and
        // fetching would stall (especially in single-hop mode).
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        if d.phase != Phase::Active {
            return;
        }
        d.last_advert = Some(ctx.now);
        let delay = self.jitter(ctx);
        self.schedule_pending(
            ctx,
            PendingPayload::BitmapInterest {
                collection: collection.clone(),
            },
            kinds::BITMAP_INTEREST,
            delay,
            Cancel::Never,
        );
    }

    pub(super) fn handle_bitmap_seen(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        collection: &Name,
        peer: u32,
        bitmap: &Bitmap,
    ) {
        if peer == self.id {
            return;
        }
        self.discovery.note_peer_heard(ctx.now);
        let ms = self.forwarder.strategy_mut();
        ms.record_bitmap(peer, collection, bitmap.clone(), ctx.now);
        ctx.note_state_inserts(1);
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        self.stats.bitmaps_heard += 1;
        d.bitmaps_this_encounter += 1;
        d.history.record(peer, bitmap.clone());
        d.queue_dirty = true;
        d.advert.record_transmitted(bitmap);
        // Re-evaluate our own pending bitmap transmissions for this
        // collection against the grown union.
        let my = d.have(ms);
        let new_delay = if d.advert.marginal(my) == 0 {
            None
        } else {
            d.advert.delay_for(my, ctx.rng())
        };
        let ids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                matches!(&p.payload, PendingPayload::BitmapReply { collection: c, .. } if c == collection)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            match new_delay {
                None => {
                    if let Some(p) = self.pending.remove(&id) {
                        ctx.cancel_timer(p.timer);
                        self.stats.bitmaps_cancelled += 1;
                    }
                }
                Some(delay) => {
                    if let Some(p) = self.pending.get_mut(&id) {
                        ctx.cancel_timer(p.timer);
                        p.timer = ctx.set_timer(delay, TOKEN_PENDING | id);
                    }
                }
            }
        }
    }

    pub(super) fn handle_bitmap_interest(&mut self, ctx: &mut NodeCtx<'_>, interest: &Interest) {
        let Some((collection, origin, round, _)) = namespace::parse_bitmap_name(interest.name())
        else {
            return;
        };
        if origin == self.id {
            return;
        }
        // A new advertisement round from this origin starts a fresh
        // prioritization burst (paper §IV-F operates per transmission
        // burst): without this, one lost reply would never be re-sent
        // because the old union already "covers" us.
        if let Some(d) = self.downloads.get_mut(&collection) {
            let newest = d.rounds_seen.entry(origin).or_insert(0);
            if round > *newest {
                *newest = round;
                d.advert.reset();
            }
        }
        // The Interest carries the origin's bitmap: learn it. The envelope
        // (if any) was authenticated by the `on_frame` screen before the
        // Interest reached the forwarder, so stripping unverified is safe.
        if let Some((peer, bm)) = interest
            .app_parameters()
            .and_then(decode_bitmap_params_maybe_sealed)
        {
            self.handle_bitmap_seen(ctx, &collection, peer, &bm);
        }
        // Reply with our bitmap if we can describe this collection.
        let Some(my) = self.my_bitmap(&collection) else {
            return;
        };
        if my.is_empty() {
            return; // metadata not ready yet
        }
        let delay = match self.downloads.get_mut(&collection) {
            Some(d) => d.advert.delay_for(&my, ctx.rng()),
            None => {
                // Seeding: full bitmap, first-transmission priority.
                AdvertScheduler::new(self.cfg.peba, TX_WINDOW, SLOT_LEN).delay_for(&my, ctx.rng())
            }
        };
        let Some(delay) = delay else {
            self.stats.bitmaps_cancelled += 1;
            return;
        };
        let reply_name = namespace::bitmap_reply_name(interest.name(), self.id);
        self.schedule_pending(
            ctx,
            PendingPayload::BitmapReply {
                collection,
                reply_name,
            },
            kinds::BITMAP_DATA,
            delay,
            Cancel::Never,
        );
    }
}
