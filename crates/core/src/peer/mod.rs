//! The DAPES peer: the application state machine tying together discovery,
//! metadata retrieval, bitmap advertisements, RPF fetching, PEBA, and
//! multi-hop forwarding (paper Fig. 3).
//!
//! One [`DapesPeer`] is a [`NetStack`]: it owns an NDN forwarder whose
//! wireless face is the simulator's broadcast channel, and implements every
//! peer role of the paper:
//!
//! * **producer** — call [`DapesPeer::add_production`];
//! * **downloader** — configure [`WantPolicy`];
//! * **intermediate DAPES node** — any peer with `WantPolicy::Nothing`
//!   still overhears, builds knowledge and forwards per §V-B;
//! * **pure forwarder** — construct with [`DapesPeer::pure_forwarder`]:
//!   NDN-only caching and probabilistic forwarding per §V-A.
//!
//! Every piece of a node's protocol state has one owner, reached by plain
//! borrows; the multi-hop knowledge and the node's own holdings are the
//! forwarder's strategy (`self.forwarder.strategy_mut()`). This module has
//! the struct, the [`NetStack`] callbacks and frame dispatch; the state
//! machines live in the submodules, one per owner (map in `DESIGN.md`).

mod advert;
mod discovery;
mod fetch;
mod pending;
mod received;
mod screen;
mod serve;

pub use fetch::SalvagedDownload;

use crate::advert_payload::decode_bitmap_params_maybe_sealed;
use crate::auth::{MonotonicStamp, NonceJournal, ReplayGuard};
use crate::config::{
    DapesConfig, DISCOVERY_MIN, NONCE_RETENTION, PEER_TTL, REPLAY_GUARD_CAPACITY, REPLAY_WINDOW,
    TICK,
};
use crate::discovery::{DiscoveryInfo, DiscoveryState};
use crate::multihop::{MultihopState, NodeRole};
use crate::namespace::{self, DapesName};
use crate::stats::{kinds, PeerStats};
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::face::FaceId;
use dapes_ndn::forwarder::{Action, Forwarder, ForwarderConfig, InterestOutcome};
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, DataHeader, InterestHeader, PacketHeader};
use dapes_netsim::node::{NetStack, NodeCtx, TxOutcome};
use dapes_netsim::radio::{Frame, FrameKind};
use dapes_netsim::time::{SimDuration, SimTime};
use fetch::{Download, Phase};
use pending::{Cancel, Pending};
use rand::Rng;
use received::{Proofs, Received};
use serve::Seed;
use std::any::Any;
use std::collections::BTreeMap;

/// Which collections a peer tries to download.
#[derive(Clone, Debug, Default)]
pub enum WantPolicy {
    /// Download nothing (producers, intermediate nodes).
    #[default]
    Nothing,
    /// Download every discovered collection.
    Everything,
    /// Download these collections only.
    Collections(Vec<Name>),
}

impl WantPolicy {
    fn wants(&self, collection: &Name) -> bool {
        match self {
            WantPolicy::Nothing => false,
            WantPolicy::Everything => true,
            WantPolicy::Collections(list) => list.contains(collection),
        }
    }
}

const TOKEN_TICK: u64 = 1 << 56;
const TOKEN_DISCOVERY: u64 = 2 << 56;
const TOKEN_PENDING: u64 = 3 << 56;
const TOKEN_MASK: u64 = 0xff << 56;

/// The DAPES application peer (a [`NetStack`] for the simulator).
pub struct DapesPeer {
    id: u32,
    cfg: DapesConfig,
    anchor: TrustAnchor,
    role: NodeRole,
    /// The NDN forwarder; its strategy is this node's multi-hop knowledge and holdings.
    forwarder: Forwarder<MultihopState>,
    seeding: BTreeMap<Name, Seed>,
    downloads: BTreeMap<Name, Download>,
    wanted: WantPolicy,
    discovery: DiscoveryState,
    advert_round: u64,
    pending: BTreeMap<u64, Pending>,
    /// Bitmap transmissions on the air: tx token → collection, for PEBA feedback.
    inflight: BTreeMap<u64, Name>,
    next_pending: u64,
    encounter_active: bool,
    stats: PeerStats,
    /// Monotonic timestamp source for sealing our own announcements.
    stamp: MonotonicStamp,
    /// Per-producer high-water marks for verified announcements.
    replay: ReplayGuard,
    /// First-seen times of overheard Interest nonces: a nonce re-injected
    /// after the replay window is a replayed Interest, not a wireless echo.
    nonce_journal: NonceJournal,
    /// Download state restored from a crashed incarnation, pending until
    /// the catalog is re-fetched and the download re-activates.
    salvaged: BTreeMap<Name, SalvagedDownload>,
}

impl DapesPeer {
    /// Creates a full DAPES peer.
    pub fn new(id: u32, cfg: DapesConfig, anchor: TrustAnchor, wanted: WantPolicy) -> Self {
        Self::with_role(id, cfg, anchor, wanted, NodeRole::Dapes)
    }

    /// Creates a pure forwarder (§V-A): caches overheard Data, forwards
    /// probabilistically, no DAPES semantics.
    pub fn pure_forwarder(id: u32, cfg: DapesConfig, anchor: TrustAnchor) -> Self {
        Self::with_role(
            id,
            cfg,
            anchor,
            WantPolicy::Nothing,
            NodeRole::PureForwarder,
        )
    }

    fn with_role(
        id: u32,
        cfg: DapesConfig,
        anchor: TrustAnchor,
        wanted: WantPolicy,
        role: NodeRole,
    ) -> Self {
        let multihop = MultihopState::new(role, cfg.multihop, cfg.forward_prob, id as u64 + 17);
        let fwd_cfg = ForwarderConfig {
            cache_unsolicited: role == NodeRole::PureForwarder,
            rebroadcast_faces: vec![FaceId::WIRELESS],
            deliver_on_aggregate: vec![FaceId::APP],
            ..ForwarderConfig::default()
        };
        let mut forwarder = Forwarder::with_strategy(fwd_cfg, multihop);
        forwarder.fib_mut().register(Name::root(), FaceId::WIRELESS);
        if role == NodeRole::Dapes {
            let dapes = Name::from_uri(namespace::APP_PREFIX);
            forwarder.fib_mut().register(dapes.clone(), FaceId::APP);
            forwarder.fib_mut().register(dapes, FaceId::WIRELESS);
        }
        let replay = ReplayGuard::new(REPLAY_GUARD_CAPACITY, REPLAY_WINDOW, PEER_TTL);
        DapesPeer {
            id,
            cfg,
            anchor,
            role,
            forwarder,
            seeding: BTreeMap::new(),
            downloads: BTreeMap::new(),
            wanted,
            discovery: DiscoveryState::default(),
            advert_round: 0,
            pending: BTreeMap::new(),
            inflight: BTreeMap::new(),
            next_pending: 0,
            encounter_active: false,
            stats: PeerStats::default(),
            stamp: MonotonicStamp::default(),
            replay,
            nonce_journal: NonceJournal::new(screen::NONCE_JOURNAL_CAP),
            salvaged: BTreeMap::new(),
        }
    }

    /// The peer id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &PeerStats {
        &self.stats
    }

    /// Completion time across all wanted collections, once reached.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.stats.completed_at
    }

    /// Whether every tracked download finished.
    pub fn downloads_complete(&self) -> bool {
        !self.downloads.is_empty() && self.downloads.values().all(|d| d.phase == Phase::Complete)
    }

    /// Download progress for a collection in `[0, 1]`.
    pub fn progress(&self, collection: &Name) -> Option<f64> {
        let d = self.downloads.get(collection)?;
        Some(d.have(self.forwarder.strategy()).fraction_set())
    }

    /// The multi-hop forwarding accuracy (§VI-D's 83 % metric).
    pub fn forward_accuracy(&self) -> Option<f64> {
        self.forwarder.strategy().forward_accuracy()
    }

    /// The NDN forwarder's decision statistics.
    pub fn forwarder_stats(&self) -> dapes_ndn::forwarder::ForwarderStats {
        *self.forwarder.stats()
    }

    /// Read access to the forwarder's Content Store, for tests asserting
    /// cache hygiene (a tampered segment must never be cached, or it would
    /// be re-served to later Interests with the peer's own authority).
    pub fn content_store(&self) -> &dapes_ndn::cs::ContentStore {
        self.forwarder.cs()
    }

    /// Number of scheduled-but-unfired transmissions (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Forward success/failure counters.
    pub fn forward_counts(&self) -> (u64, u64) {
        let ms = self.forwarder.strategy();
        (ms.forward_successes, ms.forward_failures)
    }

    fn register_collection_prefix(&mut self, collection: &Name) {
        self.forwarder
            .fib_mut()
            .register(collection.clone(), FaceId::APP);
        self.forwarder
            .fib_mut()
            .register(collection.clone(), FaceId::WIRELESS);
    }

    fn tick(&mut self, ctx: &mut NodeCtx<'_>) {
        // Each sweep is watermarked: it scans only when something it holds
        // can be due, which `tick_scans` counts.
        let now = ctx.now;
        self.stats.ticks += 1;
        let ms = self.forwarder.strategy_mut();
        self.stats.tick_scans += ms.sweep_due(now) as u64;
        self.stats.neighbors_expired += ms.sweep(now) as u64;
        let neighbors = ms.neighbor_count();
        // Expiring every tick leaves the forwarder's own reclaim, which
        // lags expiry by at least a tick, nothing to take (DESIGN.md).
        self.stats.tick_scans += self.forwarder.pit().expire_due(now) as u64;
        self.forwarder.expire(now);
        self.stats.tick_scans += self.replay.sweep_due(now) as u64;
        self.stats.peers_expired += self.replay.sweep(now) as u64;
        self.nonce_journal.forget_older_than(now, NONCE_RETENTION);

        // Encounter transitions.
        if neighbors == 0 && self.encounter_active {
            self.encounter_active = false;
            self.downloads
                .values_mut()
                .for_each(Download::end_encounter);
        } else if neighbors > 0 && !self.encounter_active {
            self.encounter_active = true;
        }

        // A finished download's sweep does nothing, so only unfinished
        // ones are visited — no list is built once every download is done.
        let unfinished: Vec<Name> = self
            .downloads
            .iter()
            .filter(|(_, d)| d.phase != Phase::Complete)
            .map(|(collection, _)| collection.clone())
            .collect();
        for collection in unfinished {
            self.sweep_download(ctx, &collection);
        }
        ctx.set_timer(TICK, TOKEN_TICK);
    }

    /// Handles an overheard Interest: screened, then the forwarder's one
    /// pipeline over the received view. Outcomes resolved without building
    /// an `Interest` are counted in `frames_peek_resolved` and its
    /// per-outcome split.
    fn receive_interest(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: &Frame,
        interest: &InterestHeader<'_>,
        proofs: &mut Proofs,
    ) {
        if self.screen_interest(ctx, interest, &frame.payload, proofs) {
            return;
        }
        let (actions, outcome) =
            self.forwarder
                .receive_interest(ctx.now, interest, &frame.payload, FaceId::WIRELESS);
        if outcome == InterestOutcome::Malformed {
            return;
        }
        self.note_sender(ctx, frame);
        // Someone else re-broadcast an Interest we were also about to
        // forward: ours is now redundant.
        let (name_wire, nonce) = (interest.name_wire, interest.nonce);
        self.cancel_pending_where(ctx, |p| {
            matches!(&p.cancel, Cancel::Relayed(n, pn) if *pn == nonce && n.wire_value_eq(name_wire))
        });
        ctx.note_state_inserts(1);
        for action in actions {
            match action {
                Action::SendInterest {
                    face: FaceId::APP,
                    interest,
                } if self.role == NodeRole::Dapes => self.serve_interest(ctx, &interest),
                Action::RelayInterest {
                    face: FaceId::WIRELESS,
                    frame: relayed,
                    name_wire,
                    nonce,
                } => {
                    // Multi-hop re-broadcast approved by the strategy, the
                    // received frame with its hop limit patched: schedule
                    // with a random delay and cancellation rules (§V-A),
                    // which keep the name.
                    self.stats.frames_relay_patched += 1;
                    let name = Name::from_wire_value(&name_wire)
                        .expect("the forwarder relays well-formed names");
                    self.schedule_relay(ctx, relayed, frame.kind, name, nonce);
                }
                Action::SendData {
                    face: FaceId::WIRELESS,
                    data,
                } => {
                    // Content Store hit: answer from cache after a polite
                    // delay, cancelled if someone else does.
                    self.schedule_reply(ctx, &data, response_kind_for(&data));
                }
                _ => {}
            }
        }
        let stats = &mut self.stats;
        let counter = match outcome {
            InterestOutcome::CsHit | InterestOutcome::CsPrefixHit => &mut stats.peek_cs_hits,
            InterestOutcome::DuplicateNonce => &mut stats.peek_dup_nonces,
            InterestOutcome::NoRoute => &mut stats.peek_fib_drops,
            InterestOutcome::Relayed => &mut stats.peek_relayed,
            InterestOutcome::Suppressed => &mut stats.peek_relay_suppressed,
            InterestOutcome::Aggregated
            | InterestOutcome::Forwarded
            | InterestOutcome::Malformed => return,
        };
        *counter += 1;
        stats.frames_peek_resolved += 1;
    }

    /// Whether an overheard Data packet whose name classifies as `class`
    /// could be fully handled without its payload, assuming it also matches
    /// no PIT entry. Conservative: any name whose handling reads the
    /// content (bitmaps, discovery replies, metadata, content for an active
    /// download) forces the decode.
    fn data_resolvable_by_name(&self, class: Option<&DapesName>) -> bool {
        if self.role != NodeRole::Dapes {
            // Non-DAPES roles take no overhearing action beyond the
            // forwarder pipeline (and a caching pure forwarder is already
            // rejected by `process_data_header`).
            return true;
        }
        match class {
            // `handle_content_data` is a no-op without an active download
            // for the collection; the knowledge-building side effect
            // (`note_neighbor_has`) needs only the name.
            Some(DapesName::Content { collection, .. }) => !self.downloads.contains_key(collection),
            // Bitmap/discovery/metadata handling reads the payload.
            Some(_) => false,
            // Non-DAPES names have no overhearing semantics.
            None => true,
        }
    }

    /// The name-derived side effects of an overheard Data frame, decoded or
    /// resolved by name: the sender is alive,
    /// our duplicate pending responses/forwards are redundant, a forwarded
    /// Interest was answered, and — for a content name under a catalog we
    /// hold — the sender has that packet, whose global index is returned.
    fn note_data_heard(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: &Frame,
        dname: &Name,
        class: Option<&DapesName>,
    ) -> Option<usize> {
        self.note_sender(ctx, frame);
        self.cancel_pending_where(ctx, |p| p.cancel.on_data(dname));
        let ms = self.forwarder.strategy_mut();
        ms.note_data_seen(dname);
        if self.role != NodeRole::Dapes {
            return None;
        }
        let DapesName::Content {
            collection,
            file,
            seq,
        } = class?
        else {
            return None;
        };
        let idx = ms.content_index(collection, file, *seq)?;
        ms.note_neighbor_has(frame.src.0, collection, idx, ctx.now);
        Some(idx)
    }

    /// Records that `frame`'s sender is alive and in range.
    fn note_sender(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        if self.role == NodeRole::Dapes {
            self.discovery.note_peer_heard(ctx.now);
            self.forwarder
                .strategy_mut()
                .note_peer(frame.src.0, ctx.now);
        }
    }

    /// Consumes Data the forwarder delivered to the application face.
    /// `class`, `authentic` and `proofs` are `data`'s own classification,
    /// [`DapesPeer::check_signature`] verdict and proofs.
    fn handle_app_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        data: &Data,
        class: Option<&DapesName>,
        authentic: bool,
        proofs: &mut Proofs,
    ) {
        match class {
            Some(DapesName::Metadata { collection, .. }) => {
                self.handle_metadata_segment(ctx, collection, data, authentic);
            }
            Some(DapesName::Content {
                collection,
                file,
                seq,
            }) => {
                let ms = self.forwarder.strategy();
                if !authentic {
                    self.stats.verify_failures += 1;
                } else if let Some(idx) = ms.content_index(collection, file, *seq) {
                    self.handle_content_data(ctx, collection, idx, data, proofs);
                }
            }
            // Bitmap and discovery data were already handled during
            // overhearing.
            _ => {}
        }
    }

    /// Handles one received frame. What the frame bytes alone determine —
    /// its peeked header, a Data packet's name, class, decoded form and
    /// verdicts — comes from `rx`, shared by every receiver of the
    /// transmission; everything that depends on this peer is worked out
    /// here.
    fn receive(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame, rx: &mut Received) {
        let Some(header) = rx.header(&frame.payload) else {
            // The noise-flood sink: a frame that does not parse.
            self.stats.flood_frames_dropped += 1;
            return;
        };
        if self.screen_frame(ctx, &header) {
            return;
        }
        match header {
            PacketHeader::Interest(h) => self.receive_interest(ctx, frame, &h, &mut rx.proofs),
            PacketHeader::Data(h) => self.receive_data(ctx, frame, &h, rx),
        }
    }

    /// Handles an overheard Data packet, name first: one that matches no
    /// PIT entry and whose handling needs only its name is resolved from
    /// the transmission's peeked name; any other is decoded (and its
    /// signature checked) first.
    fn receive_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: &Frame,
        header: &DataHeader<'_>,
        rx: &mut Received,
    ) {
        // Classification and the knowledge-building side effects need a
        // materialized name (zero-copy views, one Vec) — but never the
        // packet's MetaInfo/Content/signature tail.
        let Some(named) = rx.named(header, &frame.payload) else {
            // Malformed name region: the decode would fail at it too.
            return;
        };
        let class = named.class.as_ref();
        if self.data_resolvable_by_name(class)
            && self.forwarder.process_data_header(header.name_wire)
        {
            // The payload-derived side effects cannot apply, because
            // `data_resolvable_by_name` ruled them out.
            self.note_data_heard(ctx, frame, &named.name, class);
            self.stats.frames_peek_resolved += 1;
            self.stats.peek_unsolicited_data += 1;
            return;
        }
        let Some((data, class, proofs)) = rx.decoded(&frame.payload) else {
            return;
        };
        // The signature verdict is consulted once, here; the screen
        // and every handler below consume it as a value.
        let authentic = self.check_signature(data, class, proofs);
        if self.screen_data(ctx, data, class, authentic, proofs) {
            return;
        }
        let content_idx = self.note_data_heard(ctx, frame, data.name(), class);

        // DAPES-level overhearing before the forwarder pipeline.
        if self.role == NodeRole::Dapes {
            match class {
                Some(DapesName::Bitmap {
                    collection,
                    replier,
                    ..
                }) => {
                    // Authentication already ran in the `screen_data`
                    // gate.
                    if let Some((peer, bm)) = decode_bitmap_params_maybe_sealed(data.content()) {
                        let peer = replier.unwrap_or(peer);
                        self.handle_bitmap_seen(ctx, collection, peer, &bm);
                    }
                }
                Some(DapesName::Discovery { .. }) => {
                    if let Some(info) = DiscoveryInfo::from_wire_maybe_sealed(data.content()) {
                        self.handle_discovery_info(ctx, &info);
                    }
                }
                _ => {}
            }
        }

        let (actions, _solicited) = self.forwarder.process_data(ctx.now, data, FaceId::WIRELESS);
        for action in actions {
            match action {
                Action::SendData {
                    face: FaceId::APP,
                    data,
                } => {
                    // The forwarder hands back the frame's own
                    // packet, so its class, verdict and proofs
                    // carry over.
                    self.handle_app_data(ctx, &data, class, authentic, proofs);
                }
                Action::SendData {
                    face: FaceId::WIRELESS,
                    data,
                } => {
                    // Multi-hop data return: re-broadcast for the
                    // next hop, unless someone beats us to it.
                    self.schedule_reply(ctx, &data, frame.kind);
                }
                _ => {}
            }
        }

        // Opportunistic use of overheard content/metadata even when
        // our PIT did not ask for it.
        if self.role == NodeRole::Dapes {
            match class {
                Some(DapesName::Content { collection, .. }) if authentic => {
                    if let Some(idx) = content_idx {
                        self.handle_content_data(ctx, collection, idx, data, proofs);
                    }
                }
                Some(DapesName::Metadata { collection, .. }) => {
                    self.handle_metadata_segment(ctx, collection, data, authentic);
                }
                _ => {}
            }
        }
    }
}

impl NetStack for DapesPeer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(TICK, TOKEN_TICK);
        if self.role == NodeRole::Dapes {
            // Stagger first beacons across the window to avoid a start-up
            // collision storm.
            let delay = SimDuration::from_micros(ctx.rng().gen_range(0..DISCOVERY_MIN.as_micros()));
            ctx.set_timer(delay, TOKEN_DISCOVERY);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        match token & TOKEN_MASK {
            TOKEN_TICK => self.tick(ctx),
            TOKEN_DISCOVERY => {
                self.send_discovery_interest(ctx);
                let period = self.discovery.next_period(ctx.now);
                ctx.set_timer(period, TOKEN_DISCOVERY);
            }
            TOKEN_PENDING => self.fire_pending(ctx, token & !TOKEN_MASK),
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        // The simulator lends every `on_frame` its transmission's memo; a
        // context without one gets a memo of its own.
        if ctx
            .with_frame_memo(|ctx, rx: &mut Received| self.receive(ctx, frame, rx))
            .is_none()
        {
            self.receive(ctx, frame, &mut Received::default());
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
        self.tx_done(ctx, outcome);
    }

    fn live_state_bytes(&self) -> usize {
        // The held bitmap lives in the strategy and is counted once, with
        // the download it belongs to.
        let ms = self.forwarder.strategy();
        self.forwarder.state_bytes()
            + ms.state_bytes()
            + self
                .downloads
                .values()
                .map(|d| d.state_bytes(ms))
                .sum::<usize>()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn response_kind_for(data: &Data) -> FrameKind {
    match namespace::classify(data.name()) {
        Some(DapesName::Discovery { .. }) => kinds::DISCOVERY_DATA,
        Some(DapesName::Bitmap { .. }) => kinds::BITMAP_DATA,
        Some(DapesName::Metadata { .. }) => kinds::METADATA_DATA,
        Some(DapesName::Content { .. }) => kinds::CONTENT_DATA,
        None => FrameKind::UNKNOWN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::collection::{generate_content, FileSpec};
    use crate::collection::{Collection, CollectionSpec};
    use crate::discovery::OfferedCollection;
    use crate::metadata::MetadataFormat;
    use dapes_netsim::prelude::{Point, Stationary, World, WorldConfig};
    use std::sync::Arc;

    #[test]
    fn a_content_store_hit_is_checked_on_its_own_not_on_the_frame_in_flight() {
        // The downloader's own store holds *unsigned* copies of file `b`'s
        // segments (right names, right bytes, no signature). While genuine
        // frames are being processed, refilling the fetch window expresses
        // Interests for `b` that the store answers on the spot. Had those
        // packets inherited the verdict of the authentic frame in flight
        // they would be accepted and nothing would ever fail; checked on
        // their own they are all rejected, and `b` arrives by
        // retransmission instead (retransmitted Interests bypass the
        // forwarder and its store).
        const PACKET: usize = 1024;
        let anchor = TrustAnchor::from_seed(b"rural-area-anchor");
        let collection = Arc::new(Collection::build(CollectionSpec {
            name: Name::from_uri("/damaged-bridge-1533783192"),
            files: vec![
                FileSpec::new("a", 4 * PACKET),
                FileSpec::new("b", 4 * PACKET),
            ],
            packet_size: PACKET,
            format: MetadataFormat::MerkleRoots,
            producer: "resident-a".into(),
        }));
        let mut peer = DapesPeer::new(
            1,
            DapesConfig::default(),
            anchor.clone(),
            WantPolicy::Everything,
        );
        for seq in 0..4 {
            let name = namespace::packet_name(collection.name(), "b", seq);
            let content = generate_content(&name, PACKET);
            peer.forwarder
                .cs_mut()
                .insert(Data::new(name, content), SimTime::ZERO);
        }
        let mut producer = DapesPeer::new(0, DapesConfig::default(), anchor, WantPolicy::Nothing);
        producer.add_production(collection);
        let mut world = World::new(WorldConfig {
            range: 60.0,
            seed: 11,
            ..WorldConfig::default()
        });
        world.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(producer),
        );
        let node = world.add_node(
            Box::new(Stationary::new(Point::new(30.0, 0.0))),
            Box::new(peer),
        );
        let done = world.run_until_cond(SimTime::from_secs(300), |w| {
            w.stack::<DapesPeer>(node)
                .is_some_and(DapesPeer::downloads_complete)
        });
        assert!(done, "download incomplete after 300 s");
        let stats = world.stack::<DapesPeer>(node).expect("downloader").stats();
        assert_eq!(stats.data_received, 8, "every segment came off the air");
        assert!(
            stats.verify_failures >= 4,
            "each of b's store-served segments is rejected, got {}",
            stats.verify_failures
        );
        // One check per decoded segment frame (all authentic) plus one per
        // packet the store served (all rejected).
        let segment_frames: u64 = [kinds::CONTENT_DATA, kinds::METADATA_DATA]
            .iter()
            .filter_map(|k| world.stats().delivered_by_kind.get(k))
            .sum();
        assert_eq!(
            stats.signature_checks,
            segment_frames + stats.verify_failures
        );
    }

    /// A whole world (stacks included) may move to a worker thread, so
    /// stacks must be `Send` — which they are field by field. The lock that
    /// once wrapped the multi-hop state was never what provided it (CI
    /// greps these crates for lock types, hence no type name here).
    #[test]
    fn peers_and_forwarders_are_send_by_ownership() {
        fn assert_send<T: Send>() {}
        assert_send::<DapesPeer>();
        assert_send::<Forwarder<MultihopState>>();
        assert_send::<Forwarder>();
    }

    /// Runs its script from `on_start`, the one place a test can get hold
    /// of a `NodeCtx`: a downloader whose first file arrives with bytes
    /// that do not hash to the catalog's Merkle root, and whose second
    /// file arrives intact.
    struct BadFirstFile {
        peer: DapesPeer,
        collection: Collection,
        anchor: TrustAnchor,
    }

    impl NetStack for BadFirstFile {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            let (peer, col) = (&mut self.peer, &self.collection);
            let name = col.name();
            let offer = OfferedCollection {
                collection: name.clone(),
                metadata: col.metadata_name(),
            };
            peer.start_download(ctx, &offer);
            for seg in col.metadata_segments(&self.anchor) {
                peer.handle_metadata_segment(ctx, name, &seg, true);
            }
            // A neighbour advertises every packet.
            let everything = Bitmap::full(col.total_packets());
            let ms = peer.forwarder.strategy_mut();
            ms.record_bitmap(9, name, everything, ctx.now);
            for idx in 0..col.total_packets() {
                let genuine = col.packet_data(idx, &self.anchor).expect("in range");
                let first_file = col.index().locate(idx).expect("in range").0 == 0;
                let data = if first_file {
                    Data::new(genuine.name().clone(), vec![0xEE; 16])
                } else {
                    genuine
                };
                peer.handle_content_data(ctx, name, idx, &data, &mut Proofs::default());
            }
        }
        fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
        fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_file_that_fails_its_merkle_check_is_dropped_from_the_strategys_view_too() {
        let anchor = TrustAnchor::from_seed(b"merkle-failure");
        let collection = Collection::build(CollectionSpec::uniform("/col", 2, 4 * 1024));
        let peer = DapesPeer::new(
            1,
            DapesConfig::default(),
            anchor.clone(),
            WantPolicy::Everything,
        );
        let mut world = World::new(WorldConfig::default());
        let node = world.add_node(
            Box::new(Stationary::new(Point::new(0.0, 0.0))),
            Box::new(BadFirstFile {
                peer,
                collection,
                anchor,
            }),
        );
        world.run_until(SimTime::ZERO);
        let stack = world.stack_mut::<BadFirstFile>(node).expect("the stack");
        let (peer, col) = (&mut stack.peer, &stack.collection);
        assert_eq!(peer.stats.verify_failures, 1, "file 0 failed as a whole");
        assert_eq!(peer.stats.data_received, 8, "every segment was absorbed");
        let held = peer.my_bitmap(col.name()).expect("downloading");
        assert_eq!(held.iter_set().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        // What the strategy believes the application can answer is exactly
        // what the application serves; an Interest for a dropped segment
        // that a neighbour holds is re-broadcast, not swallowed.
        for idx in 0..col.total_packets() {
            let (file_pos, seq) = col.index().locate(idx).expect("in range");
            let file = col.index().file(file_pos).expect("in range").0;
            let serves = peer.content_packet_for(col.name(), file, seq).is_some();
            assert_eq!(serves, idx >= 4, "packet {idx}");
            let name = namespace::packet_name(col.name(), file, seq);
            let ms = peer.forwarder.strategy_mut();
            assert_eq!(
                ms.should_forward(&name, None, SimTime::ZERO),
                !serves,
                "packet {idx}"
            );
        }
    }
}
