//! Outbound plumbing: immediate sends through the forwarder, the table of
//! delayed transmissions with their cancellation rules, and the
//! transmission outcomes the radio reports back.

use super::received::Proofs;
use super::{DapesPeer, TOKEN_PENDING};
use crate::config::TX_WINDOW;
use crate::namespace;
use dapes_ndn::face::FaceId;
use dapes_ndn::forwarder::Action;
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, Interest};
use dapes_netsim::node::{NodeCtx, TimerHandle, TxOutcome};
use dapes_netsim::payload::Payload;
use dapes_netsim::radio::FrameKind;
use dapes_netsim::time::SimDuration;
use rand::Rng;

#[derive(Debug)]
pub(super) enum PendingPayload {
    /// A fully built packet to transmit (shared wire buffer).
    Raw(Payload),
    /// Our bitmap reply for a collection, rebuilt at fire time.
    BitmapReply { collection: Name, reply_name: Name },
    /// Our own advertisement round (a bitmap Interest), built at fire time.
    BitmapInterest { collection: Name },
    /// Our discovery reply, built at fire time.
    DiscoveryReply,
}

/// What makes a scheduled transmission redundant before it fires.
#[derive(Debug)]
pub(super) enum Cancel {
    /// Nothing: our own announcements.
    Never,
    /// A reply: Data with this exact name overheard — someone else answered.
    OnData(Name),
    /// A relayed Interest: its Data overheard, or an Interest with this
    /// (name, nonce) again — someone else forwarded it first. Firing it is
    /// recorded as a forward for suppression bookkeeping.
    Relayed(Name, u32),
}

impl Cancel {
    /// Whether overhearing Data named `name` cancels the transmission.
    pub(super) fn on_data(&self, name: &Name) -> bool {
        matches!(self, Cancel::OnData(n) | Cancel::Relayed(n, _) if n == name)
    }
}

#[derive(Debug)]
pub(super) struct Pending {
    pub(super) payload: PendingPayload,
    kind: FrameKind,
    pub(super) timer: TimerHandle,
    pub(super) cancel: Cancel,
}

impl DapesPeer {
    pub(super) fn jitter(&self, ctx: &mut NodeCtx<'_>) -> SimDuration {
        SimDuration::from_micros(ctx.rng().gen_range(0..TX_WINDOW.as_micros()))
    }

    /// Sends our own Interest through the forwarder (creating PIT state) and
    /// broadcasts it with jitter.
    ///
    /// If the Interest aggregates into an existing PIT entry (a
    /// retransmission, or an entry created by an overheard neighbor
    /// Interest), the forwarder returns no send action — but the frame must
    /// still go on the air, since consumer retransmissions are how losses
    /// recover. A Content-Store hit on our own Interest is delivered
    /// straight to the application.
    pub(super) fn express_interest(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        interest: Interest,
        kind: FrameKind,
    ) {
        // Journal our own nonce: we never hear our own transmission, so
        // without this a replayed copy of our own Interest would pass the
        // replay screen unrecognized.
        self.nonce_journal.record(interest.nonce(), ctx.now);
        let actions = self
            .forwarder
            .process_interest(ctx.now, &interest, FaceId::APP);
        ctx.note_state_inserts(1);
        let mut handled = false;
        for action in actions {
            match action {
                Action::RelayInterest {
                    face: FaceId::WIRELESS,
                    frame,
                    ..
                } => {
                    let delay = self.jitter(ctx);
                    ctx.send_frame(frame, kind, 0, delay);
                    handled = true;
                }
                Action::SendData {
                    face: FaceId::APP,
                    data,
                } => {
                    // A Content Store hit is a different packet from
                    // whatever frame is being processed: it gets a
                    // classification, a signature check and proofs of its
                    // own, never the frame's.
                    let class = namespace::classify(data.name());
                    let mut proofs = Proofs::default();
                    let authentic = self.check_signature(&data, class.as_ref(), &mut proofs);
                    self.handle_app_data(ctx, &data, class.as_ref(), authentic, &mut proofs);
                    handled = true;
                }
                _ => {}
            }
        }
        if !handled {
            let delay = self.jitter(ctx);
            ctx.send_frame(interest.wire(), kind, 0, delay);
        }
    }

    /// Pushes produced Data through the forwarder (consuming our PIT entry
    /// and caching) and broadcasts whatever comes out, tagged with `token`
    /// for the transmission outcome (0: not interested in it).
    pub(super) fn emit_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        data: Data,
        kind: FrameKind,
        token: u64,
    ) {
        let (actions, _) = self.forwarder.process_data(ctx.now, &data, FaceId::APP);
        let mut sent = false;
        for action in actions {
            if let Action::SendData { face, data } = action {
                if face == FaceId::WIRELESS && !sent {
                    ctx.send_frame(data.wire(), kind, token, SimDuration::ZERO);
                    sent = true;
                }
            }
        }
        if !sent {
            // No PIT entry (e.g. the requester's entry lapsed): broadcast
            // anyway — the data was explicitly requested moments ago.
            ctx.send_frame(data.wire(), kind, token, SimDuration::ZERO);
        }
    }

    pub(super) fn schedule_pending(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        payload: PendingPayload,
        kind: FrameKind,
        delay: SimDuration,
        cancel: Cancel,
    ) {
        self.next_pending += 1;
        let id = self.next_pending;
        let timer = ctx.set_timer(delay, TOKEN_PENDING | id);
        let pending = Pending {
            payload,
            kind,
            timer,
            cancel,
        };
        self.pending.insert(id, pending);
    }

    /// Schedules a Data reply after a polite random delay, cancelled if
    /// the same Data is overheard first — someone else answered.
    pub(super) fn schedule_reply(&mut self, ctx: &mut NodeCtx<'_>, data: &Data, kind: FrameKind) {
        let delay = self.jitter(ctx);
        let cancel = Cancel::OnData(data.name().clone());
        self.schedule_pending(ctx, PendingPayload::Raw(data.wire()), kind, delay, cancel);
    }

    /// Schedules the re-broadcast of an Interest the strategy approved,
    /// with a random delay and the §V-A cancellation rules: its Data, or
    /// the same Interest from someone else, makes ours redundant.
    pub(super) fn schedule_relay(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: Payload,
        kind: FrameKind,
        name: Name,
        nonce: u32,
    ) {
        let delay = self.jitter(ctx);
        let (payload, cancel) = (PendingPayload::Raw(frame), Cancel::Relayed(name, nonce));
        self.schedule_pending(ctx, payload, kind, delay, cancel);
    }

    pub(super) fn cancel_pending_where<F: Fn(&Pending) -> bool>(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        pred: F,
    ) {
        // Almost every frame matches nothing: probe before collecting, so
        // the common case allocates nothing.
        if !self.pending.values().any(&pred) {
            return;
        }
        let ids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| pred(p))
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            if let Some(p) = self.pending.remove(&id) {
                ctx.cancel_timer(p.timer);
            }
        }
    }

    pub(super) fn fire_pending(&mut self, ctx: &mut NodeCtx<'_>, id: u64) {
        let Some(p) = self.pending.remove(&id) else {
            return;
        };
        match p.payload {
            PendingPayload::Raw(wire) => {
                if let Cancel::Relayed(name, _) = &p.cancel {
                    self.forwarder.strategy_mut().note_forwarded(name, ctx.now);
                    self.stats.interests_forwarded += 1;
                }
                ctx.send_frame(wire, p.kind, 0, SimDuration::ZERO);
            }
            PendingPayload::DiscoveryReply => self.fire_discovery_reply(ctx),
            PendingPayload::BitmapReply {
                collection,
                reply_name,
            } => self.fire_bitmap_reply(ctx, collection, reply_name),
            PendingPayload::BitmapInterest { collection } => {
                self.fire_bitmap_interest(ctx, collection);
            }
        }
    }

    /// One of our transmissions finished. Only bitmap transmissions carry
    /// a token; their collision outcome is PEBA's feedback.
    pub(super) fn tx_done(&mut self, ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
        if outcome.token == 0 {
            return;
        }
        if let Some(collection) = self.inflight.remove(&outcome.token) {
            self.bitmap_tx_done(ctx, collection, outcome.collided);
        }
    }
}
