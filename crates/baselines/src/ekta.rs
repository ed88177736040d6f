//! Ekta: a DHT substrate integrated with DSR for MANETs (Pucha, Das & Hu),
//! the reactive-routing baseline of the paper's Fig. 10.
//!
//! Peers form a Pastry-style DHT: each data object (here, a file of the
//! collection) maps to the member whose hashed id is numerically closest to
//! the object key. Holders publish availability records to the responsible
//! node; downloaders look objects up there, then fetch pieces from the
//! returned holders over UDP with requester-driven retransmissions. All
//! unicast rides DSR source routes, discovered on demand via RREQ floods.
//!
//! Simplification (documented in DESIGN.md): DHT membership is static — the
//! set of participating peer ids is configured up front, as Ekta's node
//! join/leave protocol is orthogonal to the file-sharing costs measured in
//! the paper's evaluation.

use crate::dsr::{Dsr, DsrMessage, RreqAction};
use crate::ip::{IpPacket, Proto, BROADCAST};
use crate::swarm::{kinds, SwarmSpec};
use dapes_core::bitmap::Bitmap;
use dapes_crypto::sha256::sha256;
use dapes_netsim::node::{NetStack, NodeCtx, NodeId};
use dapes_netsim::radio::{Frame, FrameKind};
use dapes_netsim::time::{SimDuration, SimTime};
use rand::Rng;
use std::any::Any;
use std::collections::BTreeMap;

const TOKEN_TICK: u64 = 1;
const TOKEN_PUBLISH: u64 = 2;

/// What an Ekta node does in the swarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EktaRole {
    /// Has every piece from the start.
    Seed,
    /// Downloads the collection.
    Downloader,
    /// Forwards packets (DSR relay) only.
    Router,
}

/// The DHT key of a file: a hash of its index, mapped onto the id ring.
fn file_key(file: usize) -> u32 {
    let d = sha256(&(file as u64).to_be_bytes());
    u32::from_be_bytes(d.as_bytes()[..4].try_into().expect("4 bytes"))
}

/// The `k` members responsible for a key: numerically closest hashed ids
/// (Pastry replicates records across the leaf set).
fn responsible_k(members: &[u32], key: u32, k: usize) -> Vec<u32> {
    let mut sorted: Vec<u32> = members.to_vec();
    // Cached: a ring position is a SHA-256, hashed once per member rather
    // than once per comparison (same stable order).
    sorted.sort_by_cached_key(|&m| node_key(m).abs_diff(key));
    sorted.truncate(k);
    sorted
}

/// A member's position on the ring.
fn node_key(member: u32) -> u32 {
    let d = sha256(&(member as u64 ^ 0xdead_beef).to_be_bytes());
    u32::from_be_bytes(d.as_bytes()[..4].try_into().expect("4 bytes"))
}

#[derive(Clone, Debug)]
enum AppMsg {
    Publish { file: u32, holder: u32 },
    Lookup { file: u32, requester: u32 },
    LookupResp { file: u32, holders: Vec<u32> },
    PieceReq { piece: u32 },
    PieceData { piece: u32, len: u32 },
}

impl AppMsg {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AppMsg::Publish { file, holder } => {
                out.push(0);
                out.extend_from_slice(&file.to_be_bytes());
                out.extend_from_slice(&holder.to_be_bytes());
            }
            AppMsg::Lookup { file, requester } => {
                out.push(1);
                out.extend_from_slice(&file.to_be_bytes());
                out.extend_from_slice(&requester.to_be_bytes());
            }
            AppMsg::LookupResp { file, holders } => {
                out.push(2);
                out.extend_from_slice(&file.to_be_bytes());
                out.extend_from_slice(&(holders.len() as u16).to_be_bytes());
                for h in holders {
                    out.extend_from_slice(&h.to_be_bytes());
                }
            }
            AppMsg::PieceReq { piece } => {
                out.push(3);
                out.extend_from_slice(&piece.to_be_bytes());
            }
            AppMsg::PieceData { piece, len } => {
                out.push(4);
                out.extend_from_slice(&piece.to_be_bytes());
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(&vec![0u8; *len as usize]);
            }
        }
        out
    }

    fn decode(wire: &[u8]) -> Option<Self> {
        let get = |r: std::ops::Range<usize>| -> Option<u32> {
            Some(u32::from_be_bytes(wire.get(r)?.try_into().ok()?))
        };
        match wire.first()? {
            0 => Some(AppMsg::Publish {
                file: get(1..5)?,
                holder: get(5..9)?,
            }),
            1 => Some(AppMsg::Lookup {
                file: get(1..5)?,
                requester: get(5..9)?,
            }),
            2 => {
                let file = get(1..5)?;
                let n = u16::from_be_bytes(wire.get(5..7)?.try_into().ok()?) as usize;
                let mut holders = Vec::with_capacity(n);
                for i in 0..n {
                    holders.push(get(7 + i * 4..11 + i * 4)?);
                }
                Some(AppMsg::LookupResp { file, holders })
            }
            3 => Some(AppMsg::PieceReq { piece: get(1..5)? }),
            4 => Some(AppMsg::PieceData {
                piece: get(1..5)?,
                len: get(5..9)?,
            }),
            _ => None,
        }
    }

    fn kind(&self) -> FrameKind {
        match self {
            AppMsg::Publish { .. } | AppMsg::Lookup { .. } | AppMsg::LookupResp { .. } => {
                kinds::DHT
            }
            AppMsg::PieceReq { .. } => kinds::PIECE_REQ,
            AppMsg::PieceData { .. } => kinds::PIECE_DATA,
        }
    }
}

/// Configuration knobs for Ekta.
#[derive(Clone, Debug)]
pub struct EktaConfig {
    /// Outstanding piece requests.
    pub window: usize,
    /// Request retransmission timeout.
    pub retx_timeout: SimDuration,
    /// Lookup retry period while holders are unknown.
    pub lookup_period: SimDuration,
    /// Holder re-publish period.
    pub publish_period: SimDuration,
    /// Housekeeping tick.
    pub tick: SimDuration,
    /// Random jitter window for transmissions.
    pub tx_window: SimDuration,
    /// How long a queued packet waits for route discovery before dropping.
    pub route_wait: SimDuration,
}

impl Default for EktaConfig {
    fn default() -> Self {
        EktaConfig {
            window: 8,
            retx_timeout: SimDuration::from_millis(700),
            lookup_period: SimDuration::from_secs(2),
            publish_period: SimDuration::from_secs(8),
            tick: SimDuration::from_millis(100),
            tx_window: SimDuration::from_millis(20),
            route_wait: SimDuration::from_secs(6),
        }
    }
}

/// An Ekta node (downloader, seed, or DSR relay).
pub struct EktaPeer {
    me: u32,
    cfg: EktaConfig,
    role: EktaRole,
    spec: SwarmSpec,
    dsr: Dsr,
    members: Vec<u32>,
    have: Bitmap,
    /// File -> known holders (from lookup responses).
    holders: BTreeMap<u32, Vec<u32>>,
    /// Records stored at this node as the responsible DHT member.
    stored_records: BTreeMap<u32, Vec<u32>>,
    /// Outstanding piece requests: piece -> (holder, sent, retries).
    outstanding: BTreeMap<u32, (u32, SimTime, u32)>,
    /// Last lookup time and consecutive failures per file (backoff).
    lookup_sent: BTreeMap<u32, (SimTime, u32)>,
    /// Packets awaiting a route: dst -> (expiry, queued messages).
    route_queue: BTreeMap<u32, Vec<(SimTime, AppMsg)>>,
    /// Discovery state per destination: last RREQ time and consecutive
    /// unanswered attempts (exponential backoff against flood storms).
    discovering: BTreeMap<u32, (SimTime, u32)>,
    /// Publish rounds completed, for period escalation.
    publish_rounds: u32,
    completed_at: Option<SimTime>,
}

impl EktaPeer {
    /// Creates a node. `members` lists every DHT-participating peer id.
    pub fn new(
        me: u32,
        role: EktaRole,
        spec: SwarmSpec,
        members: Vec<u32>,
        cfg: EktaConfig,
    ) -> Self {
        let have = match role {
            EktaRole::Seed => Bitmap::full(spec.total_pieces),
            _ => Bitmap::new(spec.total_pieces),
        };
        EktaPeer {
            me,
            cfg,
            role,
            spec,
            dsr: Dsr::new(me),
            members,
            have,
            holders: BTreeMap::new(),
            stored_records: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            lookup_sent: BTreeMap::new(),
            route_queue: BTreeMap::new(),
            discovering: BTreeMap::new(),
            publish_rounds: 0,
            completed_at: None,
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
        SimDuration::from_micros(
            ctx.rng()
                .gen_range(0..self.cfg.tx_window.as_micros().max(1)),
        )
    }

    fn send_ip(&mut self, ctx: &mut NodeCtx<'_>, packet: IpPacket, kind: FrameKind) {
        let delay = self.jitter(ctx);
        ctx.send_frame(packet.encode(), kind, 0, delay);
    }

    /// Sends `msg` to `dst` over a DSR route, starting discovery (and
    /// queueing the message) when no route is cached.
    fn unicast(&mut self, ctx: &mut NodeCtx<'_>, dst: u32, msg: AppMsg) {
        if dst == self.me {
            self.on_app_msg(ctx, self.me, msg);
            return;
        }
        match self.dsr.route(dst).cloned() {
            Some(relays) => {
                // Full DSR source route travels in the packet so relays need
                // no routing state of their own.
                let mut packet = IpPacket::new(self.me, dst, Proto::Udp, msg.encode());
                packet.next_hop = relays.first().copied().unwrap_or(dst);
                packet.route = relays.get(1..).map(<[u32]>::to_vec).unwrap_or_default();
                self.send_ip(ctx, packet, msg.kind());
            }
            None => {
                self.route_queue
                    .entry(dst)
                    .or_default()
                    .push((ctx.now + self.cfg.route_wait, msg));
                self.maybe_discover(ctx, dst);
            }
        }
    }

    fn maybe_discover(&mut self, ctx: &mut NodeCtx<'_>, dst: u32) {
        let (last, fails) = self
            .discovering
            .get(&dst)
            .copied()
            .unwrap_or((SimTime::ZERO, 0));
        // Exponential backoff: 4 s doubling to 64 s per unanswered attempt.
        let interval = SimDuration::from_secs(4u64 << fails.min(4) as u64);
        if (fails > 0 || last > SimTime::ZERO) && ctx.now.since(last) < interval {
            return;
        }
        self.discovering
            .insert(dst, (ctx.now, fails.saturating_add(1)));
        let rreq = self.dsr.start_discovery(dst);
        let mut packet = IpPacket::new(self.me, BROADCAST, Proto::Dsr, rreq.encode());
        packet.ttl = 8;
        packet.next_hop = BROADCAST;
        self.send_ip(ctx, packet, kinds::RREQ);
    }

    fn flush_route_queue(&mut self, ctx: &mut NodeCtx<'_>, dst: u32) {
        let Some(queued) = self.route_queue.remove(&dst) else {
            return;
        };
        for (expiry, msg) in queued {
            if expiry > ctx.now {
                self.unicast(ctx, dst, msg);
            }
        }
    }

    fn publish_files(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.role == EktaRole::Router {
            return;
        }
        // Announce every fully held file to its responsible member.
        for file in 0..self.spec.file_count() {
            let range = self.spec.file_range(file);
            let full = range
                .clone()
                .all(|p| p < self.have.len() && self.have.get(p));
            if !full {
                continue;
            }
            for resp in responsible_k(&self.members, file_key(file), 3) {
                let msg = AppMsg::Publish {
                    file: file as u32,
                    holder: self.me,
                };
                self.unicast(ctx, resp, msg);
            }
        }
    }

    fn refill(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.role != EktaRole::Downloader || self.completed_at.is_some() {
            return;
        }
        let now = ctx.now;
        // Look up files we have no holders for (rate limited).
        for file in 0..self.spec.file_count() {
            let range = self.spec.file_range(file);
            let missing_any = range.clone().any(|p| !self.have.get(p));
            if !missing_any || self.holders.contains_key(&(file as u32)) {
                continue;
            }
            let (last, fails) = self
                .lookup_sent
                .get(&(file as u32))
                .copied()
                .unwrap_or((SimTime::ZERO, 0));
            // Lookup backoff: base period doubling to 16x while unanswered.
            let period =
                SimDuration::from_micros(self.cfg.lookup_period.as_micros() << fails.min(4) as u64);
            if last > SimTime::ZERO && now.since(last) < period {
                continue;
            }
            self.lookup_sent
                .insert(file as u32, (now, fails.saturating_add(1)));
            // Rotate across the replica set as attempts fail.
            let replicas = responsible_k(&self.members, file_key(file), 3);
            if replicas.is_empty() {
                continue;
            }
            let resp = replicas[fails as usize % replicas.len()];
            let msg = AppMsg::Lookup {
                file: file as u32,
                requester: self.me,
            };
            self.unicast(ctx, resp, msg);
        }
        // Request pieces from known holders, lowest index first. Both exits
        // come before the walk's first draw or send, so they change no trace.
        if self.outstanding.len() >= self.cfg.window || self.holders.is_empty() {
            return;
        }
        for piece in 0..self.have.len() {
            if self.outstanding.len() >= self.cfg.window {
                break;
            }
            if self.have.get(piece) || self.outstanding.contains_key(&(piece as u32)) {
                continue;
            }
            let file = self.spec.file_of(piece) as u32;
            let Some(holders) = self.holders.get(&file).filter(|h| !h.is_empty()) else {
                continue;
            };
            // Prefer holders with short known routes (Pastry's locality
            // property); break ties randomly to spread load.
            let tie = ctx.rng().gen_range(0..holders.len());
            let holder = holders
                .iter()
                .enumerate()
                .min_by_key(|(i, &h)| {
                    let dist = self.dsr.route(h).map_or(usize::MAX, Vec::len);
                    (dist, (*i + tie) % holders.len())
                })
                .map(|(_, &h)| h)
                .expect("nonempty");
            let piece = piece as u32;
            self.outstanding.insert(piece, (holder, now, 0));
            self.unicast(ctx, holder, AppMsg::PieceReq { piece });
        }
    }

    fn on_app_msg(&mut self, ctx: &mut NodeCtx<'_>, src: u32, msg: AppMsg) {
        match msg {
            AppMsg::Publish { file, holder } => {
                let entry = self.stored_records.entry(file).or_default();
                if !entry.contains(&holder) {
                    entry.push(holder);
                }
            }
            AppMsg::Lookup { file, requester } => {
                let holders = self.stored_records.get(&file).cloned().unwrap_or_default();
                if !holders.is_empty() {
                    self.unicast(ctx, requester, AppMsg::LookupResp { file, holders });
                }
            }
            AppMsg::LookupResp { file, holders } => {
                if !holders.is_empty() {
                    self.holders.insert(file, holders);
                    self.lookup_sent.remove(&file); // backoff resets
                    self.refill(ctx);
                }
            }
            AppMsg::PieceReq { piece } => {
                if (piece as usize) < self.have.len() && self.have.get(piece as usize) {
                    let len = self.spec.piece_size as u32;
                    self.unicast(ctx, src, AppMsg::PieceData { piece, len });
                }
            }
            AppMsg::PieceData { piece, .. } => {
                if self.role != EktaRole::Downloader {
                    return;
                }
                if (piece as usize) < self.have.len() && !self.have.get(piece as usize) {
                    self.have.set(piece as usize);
                    self.outstanding.remove(&piece);
                    if self.have.is_complete() && self.completed_at.is_none() {
                        self.completed_at = Some(ctx.now);
                    }
                    self.refill(ctx);
                } else {
                    self.outstanding.remove(&piece);
                }
            }
        }
    }

    fn on_dsr(&mut self, ctx: &mut NodeCtx<'_>, packet: &IpPacket) {
        let Some(msg) = DsrMessage::decode(&packet.payload) else {
            return;
        };
        match msg {
            DsrMessage::Rreq {
                id,
                origin,
                target,
                path,
            } => match self.dsr.on_rreq(id, origin, target, &path) {
                RreqAction::Drop => {}
                RreqAction::Reply {
                    origin,
                    path,
                    return_path,
                } => {
                    let rrep = DsrMessage::Rrep {
                        origin,
                        target: self.me,
                        path,
                        return_path: return_path.clone(),
                    };
                    let next = return_path.first().copied().unwrap_or(origin);
                    let mut p = IpPacket::new(self.me, origin, Proto::Dsr, rrep.encode());
                    p.next_hop = next;
                    self.send_ip(ctx, p, kinds::RREP);
                }
                RreqAction::Forward { path } => {
                    if packet.ttl > 1 {
                        let rreq = DsrMessage::Rreq {
                            id,
                            origin,
                            target,
                            path,
                        };
                        let mut p = IpPacket::new(origin, BROADCAST, Proto::Dsr, rreq.encode());
                        p.ttl = packet.ttl - 1;
                        p.next_hop = BROADCAST;
                        self.send_ip(ctx, p, kinds::RREQ);
                    }
                }
            },
            DsrMessage::Rrep {
                origin,
                target,
                path,
                mut return_path,
            } => {
                if !packet.for_hop(NodeId(self.me)) {
                    return;
                }
                if origin == self.me {
                    // Discovery complete: reset the backoff.
                    self.dsr.learn_route_at(target, path, ctx.now);
                    self.discovering.remove(&target);
                    self.flush_route_queue(ctx, target);
                    return;
                }
                // Relay toward the origin along the remaining return path.
                // Our own position is the head of the return path.
                if return_path.first() == Some(&self.me) {
                    return_path.remove(0);
                }
                let next = return_path.first().copied().unwrap_or(origin);
                let rrep = DsrMessage::Rrep {
                    origin,
                    target,
                    path,
                    return_path,
                };
                let mut p = IpPacket::new(packet.src, origin, Proto::Dsr, rrep.encode());
                p.ttl = packet.ttl.saturating_sub(1).max(1);
                p.next_hop = next;
                self.send_ip(ctx, p, kinds::RREP);
            }
            DsrMessage::Rerr { from, to } => {
                self.dsr.on_link_break(from, to);
            }
        }
    }

    fn forward_udp(&mut self, ctx: &mut NodeCtx<'_>, mut packet: IpPacket) {
        if packet.ttl <= 1 {
            return;
        }
        packet.ttl -= 1;
        let kind = AppMsg::decode(&packet.payload)
            .map(|m| m.kind())
            .unwrap_or(kinds::DHT);
        // Pop the next relay off the source route; an exhausted route means
        // we are the last relay before the destination.
        let next = if packet.route.is_empty() {
            packet.dst
        } else {
            packet.route.remove(0)
        };
        packet.next_hop = next;
        self.send_ip(ctx, packet, kind);
    }
}

impl NetStack for EktaPeer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(self.cfg.tick, TOKEN_TICK);
        if self.role != EktaRole::Router {
            let stagger = SimDuration::from_micros(
                ctx.rng()
                    .gen_range(0..self.cfg.publish_period.as_micros().max(1)),
            );
            ctx.set_timer(stagger, TOKEN_PUBLISH);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        match token {
            TOKEN_TICK => {
                let now = ctx.now;
                // Mobile source routes rot; age them out.
                self.dsr.expire_routes(now, SimDuration::from_secs(15));
                // Retransmissions.
                let retx_timeout = self.cfg.retx_timeout;
                let mut retx: Vec<(u32, u32)> = Vec::new();
                let mut gave_up: Vec<u32> = Vec::new();
                for (&piece, (holder, sent, tries)) in self.outstanding.iter_mut() {
                    if now.since(*sent) > retx_timeout {
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
                    // Holder unreachable: forget its route and re-look-up
                    // the file.
                    if let Some((holder, _, _)) = self.outstanding.remove(&piece) {
                        self.dsr.forget(holder);
                    }
                    let file = self.spec.file_of(piece as usize) as u32;
                    self.holders.remove(&file);
                }
                for (piece, holder) in retx {
                    self.unicast(ctx, holder, AppMsg::PieceReq { piece });
                }
                // Drop stale route-queue entries.
                self.route_queue.retain(|_, q| {
                    q.retain(|(exp, _)| *exp > now);
                    !q.is_empty()
                });
                self.refill(ctx);
                ctx.set_timer(self.cfg.tick, TOKEN_TICK);
            }
            TOKEN_PUBLISH => {
                self.publish_files(ctx);
                // Escalate the republish period: steady-state holders do
                // not need to re-announce every few seconds.
                self.publish_rounds = self.publish_rounds.saturating_add(1);
                let period = SimDuration::from_micros(
                    self.cfg.publish_period.as_micros() << self.publish_rounds.min(3) as u64,
                );
                ctx.set_timer(period, TOKEN_PUBLISH);
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        let Some(packet) = IpPacket::decode(&frame.payload) else {
            return;
        };
        match packet.proto {
            Proto::Dsr => self.on_dsr(ctx, &packet),
            Proto::Udp => {
                if !packet.for_hop(NodeId(self.me)) {
                    return;
                }
                if packet.dst == self.me {
                    if let Some(msg) = AppMsg::decode(&packet.payload) {
                        // The sender reached us, so the symmetric path is
                        // evidently alive: keep its route fresh.
                        self.dsr.touch(packet.src, ctx.now);
                        self.on_app_msg(ctx, packet.src, msg);
                    }
                } else {
                    self.forward_udp(ctx, packet);
                }
            }
            _ => {}
        }
    }

    fn live_state_bytes(&self) -> usize {
        self.have.state_bytes()
            + self.holders.len() * 24
            + self.stored_records.len() * 24
            + self.dsr.cache_len() * 32
            + self.outstanding.len() * 24
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
        let msgs = vec![
            AppMsg::Publish { file: 1, holder: 2 },
            AppMsg::Lookup {
                file: 1,
                requester: 3,
            },
            AppMsg::LookupResp {
                file: 1,
                holders: vec![2, 9],
            },
            AppMsg::PieceReq { piece: 77 },
            AppMsg::PieceData { piece: 77, len: 32 },
        ];
        for m in msgs {
            let decoded = AppMsg::decode(&m.encode()).expect("round trip");
            assert_eq!(decoded.encode(), m.encode());
        }
        assert!(AppMsg::decode(&[]).is_none());
        assert!(AppMsg::decode(&[9]).is_none());
    }

    #[test]
    fn responsibility_is_deterministic_and_replicated() {
        let members = vec![1u32, 2, 3, 4, 5];
        for file in 0..20 {
            let r1 = responsible_k(&members, file_key(file), 3);
            let r2 = responsible_k(&members, file_key(file), 3);
            assert_eq!(r1, r2);
            assert_eq!(r1.len(), 3);
            assert!(r1.iter().all(|m| members.contains(m)));
        }
        assert!(responsible_k(&[], 5, 3).is_empty());
        assert_eq!(responsible_k(&[7], 5, 3), vec![7], "k capped at membership");
    }

    #[test]
    fn keys_spread_across_members() {
        let members: Vec<u32> = (0..10).collect();
        let mut hit = std::collections::HashSet::new();
        for file in 0..100 {
            hit.insert(responsible_k(&members, file_key(file), 1)[0]);
        }
        assert!(
            hit.len() >= 4,
            "keys should spread over members, got {}",
            hit.len()
        );
    }

    #[test]
    fn seed_full_downloader_empty() {
        let spec = SwarmSpec {
            total_pieces: 8,
            pieces_per_file: 4,
            piece_size: 16,
        };
        let seed = EktaPeer::new(
            0,
            EktaRole::Seed,
            spec.clone(),
            vec![0, 1],
            EktaConfig::default(),
        );
        assert_eq!(seed.progress(), 1.0);
        let dl = EktaPeer::new(
            1,
            EktaRole::Downloader,
            spec,
            vec![0, 1],
            EktaConfig::default(),
        );
        assert_eq!(dl.progress(), 0.0);
    }

    #[test]
    fn piece_data_carries_payload_weight() {
        let m = AppMsg::PieceData {
            piece: 0,
            len: 1024,
        };
        assert!(m.encode().len() >= 1024);
    }
}
