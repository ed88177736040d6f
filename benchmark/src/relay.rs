//! The relay-swarm load generator: an advert/beacon stack over one real NDN
//! `Forwarder` per node.
//!
//! A default-profile-only port of `perf_sched`'s dense shape (that bench is
//! ROADMAP item 1's to rewrite): every node floods a 3-hop advert Interest
//! for its own namespace each round, carrying a 64-byte availability bitmap;
//! relays neighbours' adverts through the forwarder's name-first peek path
//! (duplicate-nonce suppression doing the flood control, relays re-broadcast
//! decode-free with a hop-limit byte patch); broadcasts a no-route noise
//! Interest and, every other round, a CanBePrefix probe for the hub's prefix
//! (answered with 256-byte Data by the hub, later from neighbours' Content
//! Stores); arms a retry timer per advert; and runs a 16 ms housekeeping tick
//! that arms and cancels a far-off decoy timer.
//!
//! One addition makes adverts countable operations: hearing a neighbour
//! re-broadcast our advert is an implicit acknowledgement, which cancels the
//! retry timer (in `perf_sched` nothing ever answers an advert, so every
//! retry fires). An advert still unacknowledged when the node's next round
//! begins, or the run ends, counts as failed.

use crate::trace::{Boundary, Tracer};
use dapes_ndn::face::FaceId;
use dapes_ndn::forwarder::{Action, Forwarder, ForwarderConfig, PeekOutcome};
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, Interest, Packet, PacketHeader};
use dapes_netsim::prelude::*;
use rand::Rng;
use std::any::Any;
use std::sync::Arc;

/// Advert Interests.
pub const KIND_ADVERT: FrameKind = FrameKind(50);
/// Probe replies (Data).
pub const KIND_REPLY: FrameKind = FrameKind(51);
/// Noise Interests no FIB covers.
pub const KIND_NOISE: FrameKind = FrameKind(52);
/// CanBePrefix probe Interests.
pub const KIND_PROBE: FrameKind = FrameKind(53);

const TOKEN_ADVERT: u64 = 1;
const TOKEN_RETRY: u64 = 2;
const TOKEN_TICK: u64 = 3;
const TOKEN_DECOY: u64 = 4;

const ADVERT_PERIOD_MS: u64 = 1_000;
const TICK_MS: u64 = 16;
const REPLY_BYTES: usize = 256;
const ADVERT_HOPS: u8 = 3;
const ADVERT_BITMAP_BYTES: usize = 64;
const RETRY_MS: u64 = 200;
/// An advert is re-expressed this many times before it is given up, all
/// within one advert period. One attempt in seventy goes unheard (every
/// relay of it collides at the origin); four retries leave about one failed
/// advert in ten thousand runs, so the workload has no failing operations.
const MAX_RETRIES: u32 = 4;

/// Simulated time the swarm runs for, given its round count: the slowest
/// node's last advert, its retries, and time for the last relays to land.
pub fn sim_deadline(rounds: u32) -> SimTime {
    let last_advert = ADVERT_PERIOD_MS + (u64::from(rounds) - 1) * ADVERT_PERIOD_MS * 11 / 10;
    SimTime::from_micros((last_advert + RETRY_MS * u64::from(MAX_RETRIES) + 300) * 1_000)
}

struct Outstanding {
    name: Name,
    expressed_at: SimTime,
    retries_left: u32,
    /// The armed retry timer; `None` once the last retry has been sent.
    retry: Option<TimerHandle>,
}

/// The per-node stack.
pub struct RelayStack {
    id: u32,
    forwarder: Forwarder,
    tracer: Arc<Tracer>,
    rounds_left: u32,
    round: u64,
    deadline: SimTime,
    outstanding: Option<Outstanding>,
    decoy: Option<TimerHandle>,
    /// Adverts expressed (one per round; the retry is part of the same
    /// operation).
    pub adverts_expressed: u64,
    /// Adverts a neighbour was heard relaying.
    pub adverts_acked: u64,
    /// Summed simulated microseconds from expressing an advert to its
    /// acknowledgement.
    pub ack_latency_us: u64,
    /// When the last acknowledgement arrived.
    pub last_ack_at: SimTime,
    /// Retries sent.
    pub retries_sent: u64,
    /// Frames resolved from the peeked header alone; the five counters
    /// below split it by outcome.
    pub peeks_resolved: u64,
    /// Peek-resolved Interests answered from the Content Store.
    pub peek_cs_hits: u64,
    /// Peek-resolved Interests dropped as duplicate nonces.
    pub peek_dup_nonces: u64,
    /// Peek-resolved Interests dropped for lack of a FIB route.
    pub peek_fib_drops: u64,
    /// Peek-resolved Interests relayed (or suppressed) decode-free.
    pub peek_relayed: u64,
    /// Peek-resolved Data that matched no PIT entry.
    pub peek_unsolicited_data: u64,
    /// Frames re-broadcast decode-free.
    pub frames_relay_patched: u64,
    /// Frames that went through the full TLV decode.
    pub full_decodes: u64,
}

impl RelayStack {
    /// Creates the stack for node `id`.
    pub fn new(id: u32, rounds: u32, tracer: Arc<Tracer>) -> Self {
        let mut forwarder = Forwarder::new(ForwarderConfig {
            cs_capacity: 64,
            cs_budget_bytes: None,
            cs_policy: Default::default(),
            cache_unsolicited: false,
            rebroadcast_faces: vec![FaceId::WIRELESS],
            deliver_on_aggregate: Vec::new(),
            relay_patch: true,
            legacy_tables: false,
        });
        // The advert namespace is relayable; our own corner of it also
        // reaches the application, so the hub can answer probes for it.
        // Nothing covers the noise namespace.
        forwarder
            .fib_mut()
            .register(Name::from_uri("/sched/adv"), FaceId::WIRELESS);
        let own = Name::from_uri(&format!("/sched/adv/n{id}"));
        forwarder.fib_mut().register(own.clone(), FaceId::APP);
        forwarder.fib_mut().register(own, FaceId::WIRELESS);
        RelayStack {
            id,
            forwarder,
            tracer,
            rounds_left: rounds,
            round: 0,
            deadline: sim_deadline(rounds),
            outstanding: None,
            decoy: None,
            adverts_expressed: 0,
            adverts_acked: 0,
            ack_latency_us: 0,
            last_ack_at: SimTime::ZERO,
            retries_sent: 0,
            peeks_resolved: 0,
            peek_cs_hits: 0,
            peek_dup_nonces: 0,
            peek_fib_drops: 0,
            peek_relayed: 0,
            peek_unsolicited_data: 0,
            frames_relay_patched: 0,
            full_decodes: 0,
        }
    }

    fn jitter(ctx: &mut NodeCtx<'_>) -> SimDuration {
        SimDuration::from_micros(ctx.rng().gen_range(0..60_000))
    }

    fn send_probe(ctx: &mut NodeCtx<'_>) {
        let interest = Interest::new(Name::from_uri("/sched/adv/n0"))
            .with_can_be_prefix(true)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(300)
            .with_hop_limit(2);
        let delay = Self::jitter(ctx);
        ctx.send_frame(interest.wire(), KIND_PROBE, 0, delay);
    }

    fn send_noise(&self, ctx: &mut NodeCtx<'_>) {
        let name = Name::from_uri(&format!("/sched/noise/n{}/{}", self.id, self.round));
        let interest = Interest::new(name)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(300)
            .with_hop_limit(1);
        let delay = Self::jitter(ctx);
        ctx.send_frame(interest.wire(), KIND_NOISE, 0, delay);
    }

    fn send_advert(&mut self, ctx: &mut NodeCtx<'_>, name: Name) {
        let interest = Interest::new(name)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(RETRY_MS + 200)
            .with_hop_limit(ADVERT_HOPS)
            .with_app_parameters(vec![0xB1; ADVERT_BITMAP_BYTES]);
        let span = self.tracer.begin(Boundary::Ndn);
        let actions = self
            .forwarder
            .process_interest(ctx.now, &interest, FaceId::APP);
        self.tracer.end(span, Boundary::Ndn, FrameKind(0));
        let mut sent = false;
        for action in actions {
            if let Action::SendInterest {
                face: FaceId::WIRELESS,
                interest,
            } = action
            {
                let delay = Self::jitter(ctx);
                ctx.send_frame(interest.wire(), KIND_ADVERT, 0, delay);
                sent = true;
            }
        }
        if !sent {
            // PIT aggregation (a retry): broadcast anyway, as consumers do.
            let delay = Self::jitter(ctx);
            ctx.send_frame(interest.wire(), KIND_ADVERT, 0, delay);
        }
    }

    fn apply_actions(&mut self, ctx: &mut NodeCtx<'_>, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::SendInterest {
                    face: FaceId::APP,
                    interest,
                } => {
                    // A probe for our namespace: serve a reply through the
                    // forwarder, consuming the PIT entry on the way out.
                    let reply = Data::new(interest.name().clone(), vec![0xAD; REPLY_BYTES])
                        .with_freshness_ms(500);
                    let span = self.tracer.begin(Boundary::Ndn);
                    let (out, _) = self.forwarder.process_data(ctx.now, &reply, FaceId::APP);
                    self.tracer.end(span, Boundary::Ndn, FrameKind(0));
                    let relayed = out.into_iter().find_map(|a| match a {
                        Action::SendData {
                            face: FaceId::WIRELESS,
                            data,
                        } => Some(data),
                        _ => None,
                    });
                    let delay = Self::jitter(ctx);
                    let wire = relayed.map_or_else(|| reply.wire(), |d| d.wire());
                    ctx.send_frame(wire, KIND_REPLY, 0, delay);
                }
                Action::SendInterest {
                    face: FaceId::WIRELESS,
                    mut interest,
                } => {
                    if !interest.decrement_hop_limit() {
                        continue;
                    }
                    let delay = Self::jitter(ctx);
                    ctx.send_frame(interest.wire(), KIND_ADVERT, 0, delay);
                }
                Action::RelayInterest {
                    face: FaceId::WIRELESS,
                    frame,
                    ..
                } => {
                    self.frames_relay_patched += 1;
                    let delay = Self::jitter(ctx);
                    ctx.send_frame(frame, KIND_ADVERT, 0, delay);
                }
                Action::SendData {
                    face: FaceId::WIRELESS,
                    data,
                } => {
                    // A Content Store hit on someone's probe, or a reply
                    // relaying back along the PIT trail.
                    let delay = Self::jitter(ctx);
                    ctx.send_frame(data.wire(), KIND_REPLY, 0, delay);
                }
                _ => {}
            }
        }
    }

    /// A neighbour re-broadcasting our outstanding advert acknowledges it.
    fn note_implicit_ack(&mut self, ctx: &mut NodeCtx<'_>, name_wire: &[u8]) {
        let acked = self
            .outstanding
            .as_ref()
            .is_some_and(|o| o.name.wire_value_eq(name_wire));
        if !acked {
            return;
        }
        let o = self.outstanding.take().expect("checked above");
        if let Some(timer) = o.retry {
            ctx.cancel_timer(timer);
        }
        self.adverts_acked += 1;
        self.ack_latency_us += ctx.now.since(o.expressed_at).as_micros();
        self.last_ack_at = ctx.now;
    }
}

impl NetStack for RelayStack {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let start = ctx.rng().gen_range(0..ADVERT_PERIOD_MS * 1_000);
        ctx.set_timer(SimDuration::from_micros(start), TOKEN_ADVERT);
        let tick = ctx.rng().gen_range(0..TICK_MS * 1_000);
        ctx.set_timer(SimDuration::from_micros(tick), TOKEN_TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        match token {
            TOKEN_ADVERT => {
                if self.rounds_left == 0 {
                    return;
                }
                self.rounds_left -= 1;
                self.round += 1;
                // Paper-shaped name depth: namespace / peer / collection /
                // file / segment-range / round.
                let name =
                    Name::from_uri(&format!("/sched/adv/n{}/c0/f0/s0/{}", self.id, self.round));
                self.send_advert(ctx, name.clone());
                self.adverts_expressed += 1;
                self.send_noise(ctx);
                if self.round % 2 == 1 && self.id != 0 {
                    Self::send_probe(ctx);
                }
                let retry = ctx.set_timer(SimDuration::from_millis(RETRY_MS), TOKEN_RETRY);
                self.outstanding = Some(Outstanding {
                    name,
                    expressed_at: ctx.now,
                    retries_left: MAX_RETRIES,
                    retry: Some(retry),
                });
                if self.rounds_left > 0 {
                    let period =
                        ADVERT_PERIOD_MS * 900 + ctx.rng().gen_range(0..ADVERT_PERIOD_MS * 200);
                    ctx.set_timer(SimDuration::from_micros(period), TOKEN_ADVERT);
                }
            }
            TOKEN_RETRY => {
                // Unacknowledged: re-express with a fresh nonce.
                if let Some(o) = self.outstanding.as_mut() {
                    o.retries_left -= 1;
                    o.retry = (o.retries_left > 0)
                        .then(|| ctx.set_timer(SimDuration::from_millis(RETRY_MS), TOKEN_RETRY));
                    let name = o.name.clone();
                    self.retries_sent += 1;
                    self.send_advert(ctx, name);
                }
            }
            TOKEN_TICK => {
                // Pure scheduler churn: cancel the previous decoy, arm a new
                // far-off one that never fires.
                if let Some(h) = self.decoy.take() {
                    ctx.cancel_timer(h);
                }
                self.decoy = Some(ctx.set_timer(SimDuration::from_secs(30), TOKEN_DECOY));
                if ctx.now + SimDuration::from_millis(TICK_MS) < self.deadline {
                    ctx.set_timer(SimDuration::from_millis(TICK_MS), TOKEN_TICK);
                }
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        let span = self.tracer.begin(Boundary::Ndn);
        let Ok(header) = Packet::peek_header(&frame.payload) else {
            self.tracer.end(span, Boundary::Ndn, frame.kind);
            return;
        };
        let resolved = match header {
            PacketHeader::Interest(h) => self
                .forwarder
                .process_interest_header(ctx.now, &h, &frame.payload, FaceId::WIRELESS)
                .map(|(actions, outcome)| {
                    *match outcome {
                        PeekOutcome::CsHit | PeekOutcome::CsPrefixHit => &mut self.peek_cs_hits,
                        PeekOutcome::DuplicateNonce => &mut self.peek_dup_nonces,
                        PeekOutcome::FibNoRoute => &mut self.peek_fib_drops,
                        PeekOutcome::Relayed | PeekOutcome::RelaySuppressed => {
                            &mut self.peek_relayed
                        }
                    } += 1;
                    actions
                }),
            PacketHeader::Data(h) => self.forwarder.process_data_header(h.name_wire).then(|| {
                self.peek_unsolicited_data += 1;
                Vec::new()
            }),
        };
        self.tracer.end(span, Boundary::Ndn, frame.kind);
        if let PacketHeader::Interest(h) = header {
            self.note_implicit_ack(ctx, h.name_wire);
        }
        if let Some(actions) = resolved {
            self.peeks_resolved += 1;
            self.apply_actions(ctx, actions);
            return;
        }
        self.full_decodes += 1;
        let span = self.tracer.begin(Boundary::Ndn);
        let actions = match Packet::decode_payload(&frame.payload) {
            Ok(Packet::Interest(interest)) => {
                self.forwarder
                    .process_interest(ctx.now, &interest, FaceId::WIRELESS)
            }
            Ok(Packet::Data(data)) => {
                self.forwarder
                    .process_data(ctx.now, &data, FaceId::WIRELESS)
                    .0
            }
            Err(_) => Vec::new(),
        };
        self.tracer.end(span, Boundary::Ndn, frame.kind);
        self.apply_actions(ctx, actions);
    }

    fn live_state_bytes(&self) -> usize {
        self.forwarder.state_bytes()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
