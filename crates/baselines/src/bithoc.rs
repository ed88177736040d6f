//! Bithoc: BitTorrent for wireless ad-hoc networks (Krifa et al., Sbai et
//! al.), the proactive-routing baseline of the paper's Fig. 10.
//!
//! Peers run DSDV for routes, flood application-layer HELLOs (TTL 2 for
//! "close" peers, occasional wider floods for "far" peers) carrying their
//! piece bitmaps, fetch rare pieces from close peers over a TCP-like
//! reliable exchange (request + data + ack, all unicast hop-by-hop), and
//! fall back to far peers for pieces absent nearby.

use crate::dsdv::Dsdv;
use crate::ip::{IpPacket, Proto, BROADCAST};
use crate::swarm::{kinds, SwarmSpec};
use dapes_core::bitmap::Bitmap;
use dapes_core::rpf::rarity_counts;
use dapes_netsim::node::{NetStack, NodeCtx, NodeId};
use dapes_netsim::radio::{Frame, FrameKind};
use dapes_netsim::time::{SimDuration, SimTime};
use rand::Rng;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BTreeMap;

const TOKEN_TICK: u64 = 1;
const TOKEN_DSDV: u64 = 2;
const TOKEN_HELLO: u64 = 3;
const TOKEN_FAR_HELLO: u64 = 4;

/// Close-neighborhood scope in hops (paper: at most two hops away).
const CLOSE_TTL: u8 = 2;
/// Far flood scope.
const FAR_TTL: u8 = 16;

/// DSDV full-dump period. The 15 s typical of DSDV would starve a mobile
/// swarm; Bithoc deployments use a few seconds.
const DSDV_PERIOD: SimDuration = SimDuration::from_secs(4);
/// Close-scope HELLO period.
const HELLO_PERIOD: SimDuration = SimDuration::from_secs(3);
/// Far-scope HELLO period.
const FAR_HELLO_PERIOD: SimDuration = SimDuration::from_secs(10);
/// Outstanding piece requests.
const WINDOW: usize = 4;
/// Request retransmission timeout.
const RETX_TIMEOUT: SimDuration = SimDuration::from_millis(700);
/// Known-peer expiry.
const PEER_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Housekeeping tick, the same as DAPES's (`dapes_core::config::TICK`).
const TICK: SimDuration = SimDuration::from_millis(100);
/// Random jitter window applied to transmissions, the same as DAPES's
/// (`dapes_core::config::TX_WINDOW`).
const TX_WINDOW: SimDuration = SimDuration::from_millis(20);

// Start-up staggers draw from `0..DSDV_PERIOD` and `0..HELLO_PERIOD`,
// jitter from `0..TX_WINDOW`: each range must be non-empty.
const _: () = assert!(DSDV_PERIOD.as_micros() > 0);
const _: () = assert!(HELLO_PERIOD.as_micros() > 0);
const _: () = assert!(TX_WINDOW.as_micros() > 0);

/// What a Bithoc node does in the swarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BithocRole {
    /// Has every piece from the start.
    Seed,
    /// Downloads the collection.
    Downloader,
    /// Forwards packets per its routing table only.
    Router,
}

#[derive(Clone, Debug)]
enum AppMsg {
    Hello {
        peer: u32,
        seq: u32,
        scope: u8,
        bitmap: Bitmap,
    },
    Req {
        piece: u32,
    },
    DataSeg {
        piece: u32,
        len: u32,
    },
    Ack {
        piece: u32,
    },
}

impl AppMsg {
    fn encode(&self) -> Vec<u8> {
        match self {
            AppMsg::Hello {
                peer,
                seq,
                scope,
                bitmap,
            } => {
                let mut out = vec![0u8, *scope];
                out.extend_from_slice(&peer.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&bitmap.to_wire());
                out
            }
            AppMsg::Req { piece } => {
                let mut out = vec![1u8, 0];
                out.extend_from_slice(&piece.to_be_bytes());
                // TCP header weight (20 bytes beyond what we encode).
                out.extend_from_slice(&[0u8; 20]);
                out
            }
            AppMsg::DataSeg { piece, len } => {
                let mut out = vec![2u8, 0];
                out.extend_from_slice(&piece.to_be_bytes());
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(&vec![0u8; *len as usize]);
                out
            }
            AppMsg::Ack { piece } => {
                let mut out = vec![3u8, 0];
                out.extend_from_slice(&piece.to_be_bytes());
                out.extend_from_slice(&[0u8; 20]);
                out
            }
        }
    }

    fn decode(wire: &[u8]) -> Option<Self> {
        match wire.first()? {
            0 => {
                let scope = *wire.get(1)?;
                let peer = u32::from_be_bytes(wire.get(2..6)?.try_into().ok()?);
                let seq = u32::from_be_bytes(wire.get(6..10)?.try_into().ok()?);
                let bitmap = Bitmap::from_wire(wire.get(10..)?)?;
                Some(AppMsg::Hello {
                    peer,
                    seq,
                    scope,
                    bitmap,
                })
            }
            1 => Some(AppMsg::Req {
                piece: u32::from_be_bytes(wire.get(2..6)?.try_into().ok()?),
            }),
            2 => {
                let piece = u32::from_be_bytes(wire.get(2..6)?.try_into().ok()?);
                let len = u32::from_be_bytes(wire.get(6..10)?.try_into().ok()?);
                Some(AppMsg::DataSeg { piece, len })
            }
            3 => Some(AppMsg::Ack {
                piece: u32::from_be_bytes(wire.get(2..6)?.try_into().ok()?),
            }),
            _ => None,
        }
    }

    fn kind(&self) -> FrameKind {
        match self {
            AppMsg::Hello { .. } => kinds::HELLO,
            AppMsg::DataSeg { .. } => kinds::TCP_DATA,
            AppMsg::Req { .. } | AppMsg::Ack { .. } => kinds::TCP_CTRL,
        }
    }
}

#[derive(Clone, Debug)]
struct KnownPeer {
    bitmap: Bitmap,
    last_heard: SimTime,
    close: bool,
}

/// A source-compatibility placeholder, not a setting: Bithoc's timings are
/// this module's constants, which no caller varies. It survives only
/// because `benchmark/` (which engine changes may not edit) passes
/// `BithocConfig::default()` to [`BithocPeer::new`]; ROADMAP item 0(g)
/// removes it together with that argument.
#[derive(Clone, Copy, Debug, Default)]
pub struct BithocConfig;

/// A Bithoc node (downloader, seed, or plain DSDV router).
pub struct BithocPeer {
    me: u32,
    role: BithocRole,
    spec: SwarmSpec,
    dsdv: Dsdv,
    have: Bitmap,
    peers: BTreeMap<u32, KnownPeer>,
    /// piece -> (holder, sent, retx count)
    outstanding: BTreeMap<u32, (u32, SimTime, u32)>,
    completed_at: Option<SimTime>,
    /// Pieces tried and permanently failed this encounter window.
    stalled_until: BTreeMap<u32, SimTime>,
    /// Our HELLO sequence counter.
    hello_seq: u32,
    /// Highest HELLO sequence relayed per origin (flood dedup).
    hello_seen: BTreeMap<u32, u32>,
    /// Last triggered DSDV update (rate limit).
    last_triggered_dsdv: SimTime,
    /// `refill`'s `(lacking, piece)` request order, kept to reuse its buffer.
    order: Vec<(u32, u32)>,
}

impl BithocPeer {
    /// Creates a node.
    pub fn new(me: u32, role: BithocRole, spec: SwarmSpec, _cfg: BithocConfig) -> Self {
        let have = match role {
            BithocRole::Seed => Bitmap::full(spec.total_pieces),
            _ => Bitmap::new(spec.total_pieces),
        };
        BithocPeer {
            me,
            role,
            spec,
            dsdv: Dsdv::new(me),
            have,
            peers: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            completed_at: None,
            stalled_until: BTreeMap::new(),
            hello_seq: 0,
            hello_seen: BTreeMap::new(),
            last_triggered_dsdv: SimTime::ZERO,
            order: Vec::new(),
        }
    }

    /// Completion time, once every piece arrived.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Whether the download finished.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Download progress in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        self.have.fraction_set()
    }

    fn jitter(&self, ctx: &mut NodeCtx<'_>) -> SimDuration {
        SimDuration::from_micros(ctx.rng().gen_range(0..TX_WINDOW.as_micros()))
    }

    fn send_ip(&mut self, ctx: &mut NodeCtx<'_>, packet: IpPacket, kind: FrameKind) {
        let delay = self.jitter(ctx);
        ctx.send_frame(packet.encode(), kind, 0, delay);
    }

    /// Unicast toward `dst` using the DSDV table; drops when routeless.
    fn unicast(&mut self, ctx: &mut NodeCtx<'_>, dst: u32, msg: &AppMsg) -> bool {
        let Some(next) = self.dsdv.next_hop(dst) else {
            return false;
        };
        let mut packet = IpPacket::new(self.me, dst, Proto::Tcp, msg.encode());
        packet.next_hop = next;
        self.send_ip(ctx, packet, msg.kind());
        true
    }

    fn broadcast_hello(&mut self, ctx: &mut NodeCtx<'_>, scope: u8) {
        if self.role == BithocRole::Router {
            return;
        }
        self.hello_seq += 1;
        let msg = AppMsg::Hello {
            peer: self.me,
            seq: self.hello_seq,
            scope,
            bitmap: self.have.clone(),
        };
        let mut packet = IpPacket::new(self.me, BROADCAST, Proto::Hello, msg.encode());
        packet.ttl = scope;
        packet.next_hop = BROADCAST;
        self.send_ip(ctx, packet, kinds::HELLO);
    }

    fn broadcast_dsdv(&mut self, ctx: &mut NodeCtx<'_>) {
        let dump = self.dsdv.full_dump();
        let mut packet = IpPacket::new(self.me, BROADCAST, Proto::Dsdv, Dsdv::encode(&dump));
        packet.ttl = 1;
        packet.next_hop = BROADCAST;
        self.send_ip(ctx, packet, kinds::DSDV_UPDATE);
    }

    /// Requests missing pieces until the window is full, rarest among close
    /// peers first. Every check that can end the call comes before the first
    /// send, so returning early changes no trace.
    fn refill(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.role != BithocRole::Downloader
            || self.completed_at.is_some()
            || self.peers.is_empty()
            || self.outstanding.len() >= WINDOW
        {
            return;
        }
        let now = ctx.now;
        // Rarity across close peers (Bithoc's RPF, paper §VI-B1): how many
        // of them lack each piece, counted a bitmap word at a time (bits
        // past a shorter bitmap's end are unknown, not lacking). Rarest
        // first; the sort is stable, so ties keep `iter_missing`'s
        // ascending piece order.
        let lacking = rarity_counts(
            self.have.len(),
            self.peers.values().filter(|p| p.close).map(|p| &p.bitmap),
        );
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(
            self.have
                .iter_missing()
                .filter(|&i| !self.outstanding.contains_key(&(i as u32)))
                .filter(|&i| {
                    self.stalled_until
                        .get(&(i as u32))
                        .is_none_or(|&until| until <= now)
                })
                .map(|i| (lacking[i], i as u32)),
        );
        order.sort_by_key(|&(lacking, _)| Reverse(lacking));

        for &(_, piece) in &order {
            if self.outstanding.len() >= WINDOW {
                break;
            }
            let i = piece as usize;
            // Prefer a close holder; fall back to any known (far) holder.
            let holds = |p: &KnownPeer| i < p.bitmap.len() && p.bitmap.get(i);
            let holder = self
                .peers
                .iter()
                .find(|(_, p)| p.close && holds(p))
                .or_else(|| self.peers.iter().find(|(_, p)| holds(p)))
                .map(|(&id, _)| id);
            let Some(holder) = holder else { continue };
            if self.unicast(ctx, holder, &AppMsg::Req { piece }) {
                self.outstanding.insert(piece, (holder, now, 0));
            } else {
                self.stalled_until
                    .insert(piece, now + SimDuration::from_secs(1));
            }
        }
        self.order = order;
    }

    fn on_app_msg(&mut self, ctx: &mut NodeCtx<'_>, src: u32, msg: AppMsg) {
        match msg {
            AppMsg::Hello {
                peer,
                scope,
                bitmap,
                ..
            } => {
                if peer == self.me || self.role == BithocRole::Router {
                    return;
                }
                let close = scope >= CLOSE_TTL.saturating_sub(1) && scope <= CLOSE_TTL;
                let entry = self.peers.entry(peer).or_insert(KnownPeer {
                    bitmap: bitmap.clone(),
                    last_heard: ctx.now,
                    close,
                });
                entry.bitmap = bitmap;
                entry.last_heard = ctx.now;
                // A hello that arrived within close scope marks closeness.
                entry.close = entry.close || close;
                self.refill(ctx);
            }
            AppMsg::Req { piece } => {
                if (piece as usize) < self.have.len() && self.have.get(piece as usize) {
                    let len = self.spec.piece_size as u32;
                    self.unicast(ctx, src, &AppMsg::DataSeg { piece, len });
                }
            }
            AppMsg::DataSeg { piece, .. } => {
                if self.role != BithocRole::Downloader {
                    return;
                }
                self.unicast(ctx, src, &AppMsg::Ack { piece });
                if (piece as usize) < self.have.len() && !self.have.get(piece as usize) {
                    self.have.set(piece as usize);
                    self.outstanding.remove(&piece);
                    if self.have.is_complete() && self.completed_at.is_none() {
                        self.completed_at = Some(ctx.now);
                    }
                    self.refill(ctx);
                }
            }
            AppMsg::Ack { .. } => {
                // Requester-driven reliability: data acks exist to model TCP
                // overhead; holders do not retransmit on their own.
            }
        }
    }

    fn forward(&mut self, ctx: &mut NodeCtx<'_>, mut packet: IpPacket, kind: FrameKind) {
        if packet.ttl <= 1 {
            return;
        }
        packet.ttl -= 1;
        if packet.dst == BROADCAST {
            // Scoped flood re-broadcast.
            packet.next_hop = BROADCAST;
            self.send_ip(ctx, packet, kind);
            return;
        }
        let Some(next) = self.dsdv.next_hop(packet.dst) else {
            return; // route break: drop (TCP above retransmits)
        };
        packet.next_hop = next;
        self.send_ip(ctx, packet, kind);
    }
}

impl NetStack for BithocPeer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(TICK, TOKEN_TICK);
        let stagger = SimDuration::from_micros(ctx.rng().gen_range(0..DSDV_PERIOD.as_micros()));
        ctx.set_timer(stagger, TOKEN_DSDV);
        if self.role != BithocRole::Router {
            let hello_stagger =
                SimDuration::from_micros(ctx.rng().gen_range(0..HELLO_PERIOD.as_micros()));
            ctx.set_timer(hello_stagger, TOKEN_HELLO);
            ctx.set_timer(FAR_HELLO_PERIOD, TOKEN_FAR_HELLO);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        match token {
            TOKEN_TICK => {
                self.dsdv.expire_neighbors(ctx.now);
                if self.dsdv.take_dirty()
                    && ctx.now.since(self.last_triggered_dsdv) >= SimDuration::from_secs(1)
                {
                    self.last_triggered_dsdv = ctx.now;
                    self.broadcast_dsdv(ctx);
                }
                // Peer expiry.
                let now = ctx.now;
                self.peers
                    .retain(|_, p| now.since(p.last_heard) <= PEER_TIMEOUT);
                // Request retransmissions.
                let mut retx: Vec<(u32, u32)> = Vec::new();
                let mut gave_up: Vec<u32> = Vec::new();
                for (&piece, (holder, sent, tries)) in self.outstanding.iter_mut() {
                    if now.since(*sent) > RETX_TIMEOUT {
                        if *tries >= 5 {
                            gave_up.push(piece);
                        } else {
                            *sent = now;
                            *tries += 1;
                            retx.push((piece, *holder));
                        }
                    }
                }
                for piece in gave_up {
                    self.outstanding.remove(&piece);
                    self.stalled_until
                        .insert(piece, now + SimDuration::from_secs(2));
                }
                for (piece, holder) in retx {
                    self.unicast(ctx, holder, &AppMsg::Req { piece });
                }
                self.refill(ctx);
                ctx.set_timer(TICK, TOKEN_TICK);
            }
            TOKEN_DSDV => {
                self.broadcast_dsdv(ctx);
                ctx.set_timer(DSDV_PERIOD, TOKEN_DSDV);
            }
            TOKEN_HELLO => {
                self.broadcast_hello(ctx, CLOSE_TTL);
                ctx.set_timer(HELLO_PERIOD, TOKEN_HELLO);
            }
            TOKEN_FAR_HELLO => {
                self.broadcast_hello(ctx, FAR_TTL);
                ctx.set_timer(FAR_HELLO_PERIOD, TOKEN_FAR_HELLO);
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        let Some(packet) = IpPacket::decode(&frame.payload) else {
            return;
        };
        // Link-layer neighbor liveness feeds DSDV.
        self.dsdv.hear_neighbor(frame.src.0, ctx.now);

        match packet.proto {
            Proto::Dsdv => {
                if let Some(ads) = Dsdv::decode(&packet.payload) {
                    self.dsdv.on_update(packet.src, &ads, ctx.now);
                }
            }
            Proto::Hello => {
                if let Some(msg) = AppMsg::decode(&packet.payload) {
                    // Scoped-flood duplicate suppression: relay only the
                    // first copy of each (origin, seq) flood.
                    let fresh = if let AppMsg::Hello { peer, seq, .. } = &msg {
                        let newest = self.hello_seen.entry(*peer).or_insert(0);
                        if *seq > *newest {
                            *newest = *seq;
                            true
                        } else {
                            false
                        }
                    } else {
                        false
                    };
                    self.on_app_msg(ctx, packet.src, msg);
                    if fresh && packet.ttl > 1 {
                        self.forward(ctx, packet, kinds::HELLO);
                    }
                }
            }
            Proto::Tcp => {
                if !packet.for_hop(NodeId(self.me)) {
                    return;
                }
                if packet.dst == self.me {
                    if let Some(msg) = AppMsg::decode(&packet.payload) {
                        self.on_app_msg(ctx, packet.src, msg);
                    }
                } else {
                    let kind = AppMsg::decode(&packet.payload)
                        .map(|m| m.kind())
                        .unwrap_or(kinds::TCP_CTRL);
                    self.forward(ctx, packet, kind);
                }
            }
            _ => {}
        }
    }

    fn live_state_bytes(&self) -> usize {
        self.have.state_bytes()
            + self
                .peers
                .values()
                .map(|p| p.bitmap.state_bytes() + 24)
                .sum::<usize>()
            + self.outstanding.len() * 24
            + self.dsdv.reachable().count() * 16
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_msgs_round_trip() {
        let mut bm = Bitmap::new(10);
        bm.set(3);
        let msgs = vec![
            AppMsg::Hello {
                peer: 1,
                seq: 9,
                scope: 2,
                bitmap: bm,
            },
            AppMsg::Req { piece: 9 },
            AppMsg::DataSeg { piece: 9, len: 16 },
            AppMsg::Ack { piece: 9 },
        ];
        for m in msgs {
            let decoded = AppMsg::decode(&m.encode()).expect("round trip");
            // Compare discriminants and key fields via re-encode.
            assert_eq!(decoded.encode(), m.encode());
        }
        assert!(AppMsg::decode(&[]).is_none());
        assert!(AppMsg::decode(&[9, 9]).is_none());
    }

    #[test]
    fn data_segment_carries_piece_payload_weight() {
        let m = AppMsg::DataSeg {
            piece: 0,
            len: 1024,
        };
        assert!(m.encode().len() >= 1024);
    }

    #[test]
    fn seed_starts_complete_downloader_empty() {
        let spec = SwarmSpec {
            total_pieces: 8,
            pieces_per_file: 4,
            piece_size: 16,
        };
        let seed = BithocPeer::new(0, BithocRole::Seed, spec.clone(), BithocConfig);
        assert_eq!(seed.progress(), 1.0);
        assert!(
            !seed.is_complete(),
            "seeds do not report download completion"
        );
        let dl = BithocPeer::new(1, BithocRole::Downloader, spec, BithocConfig);
        assert_eq!(dl.progress(), 0.0);
    }
}
