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

use crate::advert::AdvertScheduler;
use crate::advert_payload::{decode_bitmap_params_maybe_sealed, encode_bitmap_params};
use crate::auth::{self, MonotonicStamp, NonceJournal, OpenError, ReplayGuard, ReplayVerdict};
use crate::bitmap::Bitmap;
use crate::collection::{regenerate_packet, Collection};
use crate::config::DapesConfig;
use crate::discovery::{DiscoveryInfo, DiscoveryState, OfferedCollection};
use crate::metadata::{Metadata, MetadataAssembler, PacketIndex, PacketVerification};
use crate::multihop::{DapesStrategy, MultihopState, NodeRole};
use crate::namespace::{self, DapesName};
use crate::rpf::{fetch_order, rarity_counts, EncounterHistory, RpfVariant};
use crate::stats::{kinds, PeerStats};
use dapes_crypto::merkle::leaf_hash;
use dapes_crypto::signing::TrustAnchor;
use dapes_crypto::Digest;
use dapes_ndn::face::FaceId;
use dapes_ndn::forwarder::{Action, Forwarder, ForwarderConfig, PeekOutcome};
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, Interest, Packet, PacketHeader};
use dapes_netsim::node::{NetStack, NodeCtx, TimerHandle, TxOutcome};
use dapes_netsim::payload::Payload;
use dapes_netsim::radio::{Frame, FrameKind};
use dapes_netsim::time::{SimDuration, SimTime};
use rand::Rng;
use std::any::Any;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

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

/// Overheard-nonce journal capacity: enough for several replay windows of
/// traffic in a dense cell, bounded so a nonce-minting flooder cannot grow
/// it without limit.
const NONCE_JOURNAL_CAP: usize = 4096;

#[derive(Debug)]
enum PendingPayload {
    /// A fully built packet to transmit (shared wire buffer).
    Raw(Payload),
    /// Our bitmap reply for a collection, rebuilt at fire time.
    BitmapReply { collection: Name, reply_name: Name },
    /// Our own advertisement round (a bitmap Interest), built at fire time.
    BitmapInterest { collection: Name },
    /// Our discovery reply, built at fire time.
    DiscoveryReply,
}

#[derive(Debug)]
struct Pending {
    payload: PendingPayload,
    kind: FrameKind,
    timer: TimerHandle,
    /// Cancel when Data with this exact name is overheard.
    cancel_on_data: Option<Name>,
    /// Cancel when an Interest with this (name, nonce) is overheard again —
    /// someone else forwarded it first.
    cancel_on_nonce: Option<(Name, u32)>,
    /// Record as a forwarded Interest for suppression bookkeeping.
    forwarded_name: Option<Name>,
}

#[derive(Debug)]
struct InflightTx {
    /// Collection whose bitmap we transmitted, for PEBA feedback.
    bitmap_collection: Option<Name>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    FetchingMetadata,
    Active,
    Complete,
}

struct Download {
    collection: Name,
    metadata_name: Name,
    phase: Phase,
    assembler: MetadataAssembler,
    /// Outstanding metadata segment requests: seg -> (sent, retx count).
    meta_outstanding: BTreeMap<u32, (SimTime, u32)>,
    metadata: Option<Arc<Metadata>>,
    /// The catalog's signed segments, built once when the download
    /// activates and served to metadata Interests from then on (like a
    /// [`Seed`]'s, not counted in [`Download::state_bytes`]).
    metadata_segments: Vec<Data>,
    index: Option<PacketIndex>,
    have: Bitmap,
    /// Per-packet content leaf hashes retained until the file verifies
    /// (Merkle format), then dropped.
    leaf_hashes: Vec<Option<Digest>>,
    files_verified: Vec<bool>,
    /// Outstanding content requests: global idx -> (sent, retx count).
    outstanding: BTreeMap<usize, (SimTime, u32)>,
    /// Cached fetch order, consumed from the back.
    queue: Vec<usize>,
    queue_dirty: bool,
    bitmaps_this_encounter: usize,
    advert_rounds_this_encounter: usize,
    /// Highest advertisement round seen per origin peer: a new round opens
    /// a fresh prioritization burst (resets the transmitted-bitmap union).
    rounds_seen: BTreeMap<u32, u64>,
    last_advert: Option<SimTime>,
    advert: AdvertScheduler,
    history: EncounterHistory,
    completed_at: Option<SimTime>,
    /// Segments salvaged from a previous incarnation (crash + restart):
    /// a content Interest for any of these is a resume bug, counted in
    /// [`PeerStats::resumed_refetch`].
    resumed: Option<Bitmap>,
}

impl Download {
    fn state_bytes(&self) -> usize {
        self.have.state_bytes()
            + self.leaf_hashes.iter().flatten().count() * 32
            + self.metadata.as_ref().map_or(0, |m| m.state_bytes())
            + self.outstanding.len() * 24
            + self.queue.len() * 8
            + self.history.state_bytes()
    }
}

/// A collection this peer produces or fully seeds.
struct Seed {
    collection: Arc<Collection>,
    segments: Arc<Vec<Data>>,
}

/// The DAPES application peer (a [`NetStack`] for the simulator).
pub struct DapesPeer {
    id: u32,
    cfg: DapesConfig,
    anchor: TrustAnchor,
    role: NodeRole,
    forwarder: Forwarder,
    shared: Arc<Mutex<MultihopState>>,
    seeding: BTreeMap<Name, Seed>,
    downloads: BTreeMap<Name, Download>,
    wanted: WantPolicy,
    discovery: DiscoveryState,
    advert_round: u64,
    pending: BTreeMap<u64, Pending>,
    inflight: BTreeMap<u64, InflightTx>,
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

/// Download state that survives a crash: what a wreck yields to the fresh
/// stack that replaces it, so a restarted downloader completes without
/// re-fetching segments it already verified.
///
/// Obtained from the dead peer with [`DapesPeer::salvage`] and handed to
/// its successor with [`DapesPeer::restore`]; the successor re-fetches the
/// catalog through the normal discovery path and folds the salvaged
/// segments in when the download re-activates.
#[derive(Clone, Debug)]
pub struct SalvagedDownload {
    /// The collection the download was for.
    pub collection: Name,
    /// Surviving segments: global packet index plus the retained content
    /// leaf hash for files still awaiting Merkle verification (`None` once
    /// a file verified and dropped its hashes).
    pub segments: Vec<(usize, Option<Digest>)>,
    /// Per-file verification flags at crash time.
    pub files_verified: Vec<bool>,
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
        let shared = MultihopState::new(role, cfg.multihop, cfg.forward_prob, id as u64 + 17)
            .with_timeouts(
                cfg.response_timeout,
                cfg.suppress_duration,
                cfg.neighbor_timeout,
            );
        let shared = Arc::new(Mutex::new(shared));
        let fwd_cfg = ForwarderConfig {
            cs_capacity: cfg.cs_capacity,
            cs_budget_bytes: cfg.cs_budget_bytes,
            cs_policy: cfg.cs_policy,
            cache_unsolicited: role == NodeRole::PureForwarder,
            rebroadcast_faces: vec![FaceId::WIRELESS],
            deliver_on_aggregate: vec![FaceId::APP],
            relay_patch: true,
            legacy_tables: false,
        };
        let mut forwarder =
            Forwarder::with_strategy(fwd_cfg, Box::new(DapesStrategy::new(shared.clone())));
        forwarder.fib_mut().register(Name::root(), FaceId::WIRELESS);
        if role == NodeRole::Dapes {
            let dapes = Name::from_uri(namespace::APP_PREFIX);
            forwarder.fib_mut().register(dapes.clone(), FaceId::APP);
            forwarder.fib_mut().register(dapes, FaceId::WIRELESS);
        }
        let discovery =
            DiscoveryState::new(cfg.discovery_min, cfg.discovery_max, cfg.discovery_recent);
        let replay = ReplayGuard::new(
            256,
            SimDuration::from_millis(cfg.replay_window_ms),
            SimDuration::from_millis(cfg.peer_ttl_ms),
        );
        DapesPeer {
            id,
            cfg,
            anchor,
            role,
            forwarder,
            shared,
            seeding: BTreeMap::new(),
            downloads: BTreeMap::new(),
            wanted,
            discovery,
            advert_round: 0,
            pending: BTreeMap::new(),
            inflight: BTreeMap::new(),
            next_pending: 0,
            encounter_active: false,
            stats: PeerStats::default(),
            stamp: MonotonicStamp::default(),
            replay,
            nonce_journal: NonceJournal::new(NONCE_JOURNAL_CAP),
            salvaged: BTreeMap::new(),
        }
    }

    /// Extracts the download state worth keeping across a crash: one
    /// [`SalvagedDownload`] per download whose catalog had been fetched
    /// (completed downloads included, so a finished peer does not restart
    /// from zero). Call on the wreck from a restart stack factory.
    pub fn salvage(&self) -> Vec<SalvagedDownload> {
        self.downloads
            .values()
            .filter(|d| d.phase != Phase::FetchingMetadata)
            .map(|d| SalvagedDownload {
                collection: d.collection.clone(),
                segments: d
                    .have
                    .iter_set()
                    .map(|i| (i, d.leaf_hashes.get(i).copied().flatten()))
                    .collect(),
                files_verified: d.files_verified.clone(),
            })
            .collect()
    }

    /// Installs salvaged download state into a freshly-booted peer. The
    /// segments are folded into the matching download when its catalog is
    /// re-fetched ([`PeerStats::resumed_segments_skipped`] counts them);
    /// until then they sit pending. Call before the first callback runs.
    pub fn restore(&mut self, salvaged: Vec<SalvagedDownload>) {
        for s in salvaged {
            self.salvaged.insert(s.collection.clone(), s);
        }
    }

    /// The peer id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Registers a collection this peer produces: it seeds all packets and
    /// serves signed metadata.
    pub fn add_production(&mut self, collection: Arc<Collection>) {
        let name = collection.name().clone();
        let segments = Arc::new(collection.metadata_segments(&self.anchor));
        let total = collection.total_packets();
        {
            let mut sh = self.shared.lock().expect("multihop state");
            sh.indices.insert(name.clone(), collection.index().clone());
            sh.have.insert(name.clone(), Bitmap::full(total));
        }
        self.register_collection_prefix(&name);
        self.seeding.insert(
            name,
            Seed {
                collection,
                segments,
            },
        );
    }

    /// Seeds a chunked file's catalog and segments straight into this
    /// peer's Content Store (the repo-side bootstrap of the segment
    /// pipeline): overheard Interests for the catalog or any segment are
    /// answered from cache without touching the download protocol.
    /// Registers the collection prefix so Interests route here, and
    /// returns the number of packets inserted.
    pub fn seed_chunked_file(
        &mut self,
        file: &crate::pipeline::ChunkedFile,
        now: SimTime,
    ) -> usize {
        self.register_collection_prefix(file.collection());
        file.seed_into(self.forwarder.cs_mut(), now)
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
        self.downloads
            .get(collection)
            .map(|d| d.have.fraction_set())
    }

    /// The multi-hop forwarding accuracy (§VI-D's 83 % metric).
    pub fn forward_accuracy(&self) -> Option<f64> {
        self.shared
            .lock()
            .expect("multihop state")
            .forward_accuracy()
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
        let sh = self.shared.lock().expect("multihop state");
        (sh.forward_successes, sh.forward_failures)
    }

    fn register_collection_prefix(&mut self, collection: &Name) {
        self.forwarder
            .fib_mut()
            .register(collection.clone(), FaceId::APP);
        self.forwarder
            .fib_mut()
            .register(collection.clone(), FaceId::WIRELESS);
    }

    // ------------------------------------------------------------------
    // Outbound plumbing
    // ------------------------------------------------------------------

    fn jitter(&self, ctx: &mut NodeCtx<'_>) -> SimDuration {
        let w = self.cfg.tx_window.as_micros().max(1);
        SimDuration::from_micros(ctx.rng().gen_range(0..w))
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
    fn express_interest(&mut self, ctx: &mut NodeCtx<'_>, interest: Interest, kind: FrameKind) {
        if self.cfg.signed_adverts {
            // Journal our own nonce: we never hear our own transmission, so
            // without this a replayed copy of our own Interest would pass
            // the replay screen unrecognized.
            self.nonce_journal.record(interest.nonce(), ctx.now);
        }
        let actions = self
            .forwarder
            .process_interest(ctx.now, &interest, FaceId::APP);
        ctx.note_state_inserts(1);
        let mut handled = false;
        for action in actions {
            match action {
                Action::SendInterest {
                    face: FaceId::WIRELESS,
                    interest,
                } => {
                    let delay = self.jitter(ctx);
                    ctx.send_frame(interest.wire(), kind, 0, delay);
                    handled = true;
                }
                Action::SendData {
                    face: FaceId::APP,
                    data,
                } => {
                    // A Content Store hit is a different packet from
                    // whatever frame is being processed: it gets a
                    // classification and a signature check of its own.
                    let class = namespace::classify(data.name());
                    let authentic = self.check_signature(&data, class.as_ref());
                    self.handle_app_data(ctx, &data, class.as_ref(), authentic);
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
    /// and caching) and broadcasts whatever comes out.
    fn emit_data(&mut self, ctx: &mut NodeCtx<'_>, data: Data, kind: FrameKind) {
        let (actions, _) = self.forwarder.process_data(ctx.now, &data, FaceId::APP);
        let mut sent = false;
        for action in actions {
            if let Action::SendData { face, data } = action {
                if face == FaceId::WIRELESS && !sent {
                    ctx.send_frame(data.wire(), kind, 0, SimDuration::ZERO);
                    sent = true;
                }
            }
        }
        if !sent {
            // No PIT entry (e.g. the requester's entry lapsed): broadcast
            // anyway — the data was explicitly requested moments ago.
            ctx.send_frame(data.wire(), kind, 0, SimDuration::ZERO);
        }
    }

    #[allow(clippy::too_many_arguments)] // one call site per cancellation rule
    fn schedule_pending(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        payload: PendingPayload,
        kind: FrameKind,
        delay: SimDuration,
        cancel_on_data: Option<Name>,
        cancel_on_nonce: Option<(Name, u32)>,
        forwarded_name: Option<Name>,
    ) -> u64 {
        self.next_pending += 1;
        let id = self.next_pending;
        let timer = ctx.set_timer(delay, TOKEN_PENDING | id);
        self.pending.insert(
            id,
            Pending {
                payload,
                kind,
                timer,
                cancel_on_data,
                cancel_on_nonce,
                forwarded_name,
            },
        );
        id
    }

    fn cancel_pending_where<F: Fn(&Pending) -> bool>(&mut self, ctx: &mut NodeCtx<'_>, pred: F) {
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

    fn fire_pending(&mut self, ctx: &mut NodeCtx<'_>, id: u64) {
        let Some(p) = self.pending.remove(&id) else {
            return;
        };
        match p.payload {
            PendingPayload::Raw(wire) => {
                if let Some(name) = &p.forwarded_name {
                    self.shared
                        .lock()
                        .expect("multihop state")
                        .note_forwarded(name, ctx.now);
                    self.stats.interests_forwarded += 1;
                }
                ctx.send_frame(wire, p.kind, 0, SimDuration::ZERO);
            }
            PendingPayload::DiscoveryReply => {
                let info = DiscoveryInfo {
                    peer: self.id,
                    offers: self.current_offers(),
                };
                let content = self.seal_announcement(ctx.now, info.to_wire());
                let data = Data::new(namespace::discovery_reply_name(self.id), content)
                    // Short freshness: discovery state changes as peers move, so
                    // caches must not answer discovery probes indefinitely.
                    .with_freshness_ms(1_000)
                    .signed(&self.anchor.keypair(&format!("peer-{}", self.id)));
                self.emit_data(ctx, data, kinds::DISCOVERY_DATA);
            }
            PendingPayload::BitmapReply {
                collection,
                reply_name,
            } => {
                let Some(my) = self.my_bitmap(&collection) else {
                    return;
                };
                // Re-check marginal coverage right before transmitting: the
                // union may have grown while we waited.
                let marginal = self
                    .downloads
                    .get(&collection)
                    .map(|d| d.advert.marginal(&my))
                    .unwrap_or_else(|| my.count_set());
                if self.downloads.contains_key(&collection) && marginal == 0 {
                    self.stats.bitmaps_cancelled += 1;
                    return;
                }
                let content = self.seal_announcement(ctx.now, encode_bitmap_params(self.id, &my));
                let data = Data::new(reply_name, content)
                    .signed(&self.anchor.keypair(&format!("peer-{}", self.id)));
                self.stats.bitmaps_sent += 1;
                self.next_pending += 1;
                let tx_token = self.next_pending;
                self.inflight.insert(
                    tx_token,
                    InflightTx {
                        bitmap_collection: Some(collection),
                    },
                );
                // Route through the forwarder to consume the bitmap
                // Interest's PIT entry, then broadcast with the tx token so
                // PEBA sees the collision outcome.
                let (actions, _) = self.forwarder.process_data(ctx.now, &data, FaceId::APP);
                let mut sent = false;
                for action in actions {
                    if let Action::SendData { face, data } = action {
                        if face == FaceId::WIRELESS && !sent {
                            ctx.send_frame(
                                data.wire(),
                                kinds::BITMAP_DATA,
                                tx_token,
                                SimDuration::ZERO,
                            );
                            sent = true;
                        }
                    }
                }
                if !sent {
                    ctx.send_frame(data.wire(), kinds::BITMAP_DATA, tx_token, SimDuration::ZERO);
                }
            }
            PendingPayload::BitmapInterest { collection } => {
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
                if self.cfg.signed_adverts {
                    self.nonce_journal.record(interest.nonce(), ctx.now);
                }
                self.stats.bitmaps_sent += 1;
                self.next_pending += 1;
                let tx_token = self.next_pending;
                self.inflight.insert(
                    tx_token,
                    InflightTx {
                        bitmap_collection: Some(collection),
                    },
                );
                let actions = self
                    .forwarder
                    .process_interest(ctx.now, &interest, FaceId::APP);
                for action in actions {
                    if let Action::SendInterest { face, interest } = action {
                        if face == FaceId::WIRELESS {
                            ctx.send_frame(
                                interest.wire(),
                                kinds::BITMAP_INTEREST,
                                tx_token,
                                SimDuration::ZERO,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Seals an announcement payload under our producer key when
    /// `signed_adverts` is on; otherwise returns it untouched, which keeps
    /// the axis-off wire format byte-identical to the pre-auth one.
    fn seal_announcement(&mut self, now: SimTime, base: Vec<u8>) -> Vec<u8> {
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

    fn current_offers(&self) -> Vec<OfferedCollection> {
        let mut offers: Vec<OfferedCollection> = self
            .seeding
            .values()
            .map(|s| OfferedCollection {
                collection: s.collection.name().clone(),
                metadata: s.collection.metadata_name(),
            })
            .collect();
        for d in self.downloads.values() {
            if d.metadata.is_some() {
                offers.push(OfferedCollection {
                    collection: d.collection.clone(),
                    metadata: d.metadata_name.clone(),
                });
            }
        }
        offers
    }

    fn my_bitmap(&self, collection: &Name) -> Option<Bitmap> {
        if let Some(seed) = self.seeding.get(collection) {
            return Some(Bitmap::full(seed.collection.total_packets()));
        }
        self.downloads.get(collection).map(|d| d.have.clone())
    }

    // ------------------------------------------------------------------
    // Discovery & downloads
    // ------------------------------------------------------------------

    fn send_discovery_interest(&mut self, ctx: &mut NodeCtx<'_>) {
        let interest = Interest::new(namespace::discovery_prefix())
            .with_can_be_prefix(true)
            .with_must_be_fresh(true)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(1_000)
            .with_app_parameters(self.id.to_be_bytes().to_vec());
        self.stats.discovery_sent += 1;
        self.express_interest(ctx, interest, kinds::DISCOVERY_INTEREST);
    }

    fn handle_discovery_info(&mut self, ctx: &mut NodeCtx<'_>, info: &DiscoveryInfo) {
        if info.peer == self.id {
            return;
        }
        {
            let mut sh = self.shared.lock().expect("multihop state");
            sh.note_peer(info.peer, ctx.now);
            for offer in &info.offers {
                sh.note_neighbor_wants(info.peer, &offer.collection, ctx.now);
            }
        }
        self.discovery.note_peer_heard(ctx.now);
        for offer in &info.offers {
            let wanted = self.wanted.wants(&offer.collection)
                && !self.downloads.contains_key(&offer.collection)
                && !self.seeding.contains_key(&offer.collection);
            if wanted {
                self.start_download(ctx, offer);
            }
        }
    }

    fn start_download(&mut self, ctx: &mut NodeCtx<'_>, offer: &OfferedCollection) {
        ctx.note_state_inserts(1);
        self.register_collection_prefix(&offer.collection);
        let download = Download {
            collection: offer.collection.clone(),
            metadata_name: offer.metadata.clone(),
            phase: Phase::FetchingMetadata,
            assembler: MetadataAssembler::new(),
            meta_outstanding: BTreeMap::new(),
            metadata: None,
            metadata_segments: Vec::new(),
            index: None,
            have: Bitmap::new(0),
            leaf_hashes: Vec::new(),
            files_verified: Vec::new(),
            outstanding: BTreeMap::new(),
            queue: Vec::new(),
            queue_dirty: true,
            bitmaps_this_encounter: 0,
            advert_rounds_this_encounter: 0,
            rounds_seen: BTreeMap::new(),
            last_advert: None,
            advert: AdvertScheduler::new(self.cfg.peba, self.cfg.tx_window, self.cfg.slot_len),
            history: EncounterHistory::new(self.cfg.encounter_history),
            completed_at: None,
            resumed: None,
        };
        self.downloads.insert(offer.collection.clone(), download);
        self.request_metadata_segment(ctx, &offer.collection, 0);
    }

    fn request_metadata_segment(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name, seg: u32) {
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        let name = namespace::metadata_segment_name(&d.metadata_name, seg as u64);
        d.meta_outstanding.insert(seg, (ctx.now, 0));
        let interest = Interest::new(name)
            .with_nonce(ctx.rng().gen())
            .with_lifetime_ms(2_000);
        self.express_interest(ctx, interest, kinds::METADATA_INTEREST);
    }

    fn handle_metadata_segment(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        collection: &Name,
        data: &Data,
        authentic: bool,
    ) {
        if !authentic {
            self.stats.verify_failures += 1;
            return;
        }
        let Some(seg) = data.name().last().and_then(|c| c.to_seq()) else {
            return;
        };
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        if d.phase != Phase::FetchingMetadata {
            return;
        }
        if !d.metadata_name.is_prefix_of(data.name()) {
            return; // different metadata version
        }
        d.meta_outstanding.remove(&(seg as u32));
        let completed = d.assembler.feed(seg as u32, data.content());
        // Request more segments (windowed).
        if completed.is_none() {
            let missing = d.assembler.missing();
            let window = self.cfg.fetch_window.max(1);
            let to_request: Vec<u32> = missing
                .into_iter()
                .filter(|s| !d.meta_outstanding.contains_key(s))
                .take(window.saturating_sub(d.meta_outstanding.len()))
                .collect();
            for seg in to_request {
                self.request_metadata_segment(ctx, collection, seg);
            }
            return;
        }
        let Some(meta) = completed else { return };
        // Validate the digest in the metadata name binds to this body.
        let expected = d
            .metadata_name
            .last()
            .map(|c| String::from_utf8_lossy(c.as_bytes()).to_string());
        if expected.as_deref() != Some(meta.digest8().as_str()) {
            self.stats.verify_failures += 1;
            return;
        }
        self.activate_download(ctx, collection, meta);
    }

    fn activate_download(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name, meta: Metadata) {
        let total = meta.total_packets();
        let index = meta.index();
        let files = meta.files.len();
        {
            let mut sh = self.shared.lock().expect("multihop state");
            sh.indices.insert(collection.clone(), index.clone());
            sh.have.insert(collection.clone(), Bitmap::new(total));
        }
        let salvaged = self.salvaged.remove(collection);
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        d.metadata_segments = meta.to_segments(collection, &self.anchor.keypair(&meta.producer));
        d.metadata = Some(Arc::new(meta));
        d.index = Some(index);
        d.have = Bitmap::new(total);
        d.leaf_hashes = vec![None; total];
        d.files_verified = vec![false; files];
        // Resume after restart: fold in what the previous incarnation held.
        // The catalog was re-fetched (it binds the segment names and Merkle
        // roots), but every salvaged segment — with its retained leaf hash,
        // so later file verification still has all leaves — is marked held
        // and never re-fetched.
        let mut resumed_complete = false;
        if let Some(s) = salvaged {
            let mut skipped = 0u64;
            for (idx, leaf) in s.segments {
                if idx < total && !d.have.get(idx) {
                    d.have.set(idx);
                    d.leaf_hashes[idx] = leaf;
                    skipped += 1;
                }
            }
            for (pos, &v) in s.files_verified.iter().enumerate().take(files) {
                if v {
                    d.files_verified[pos] = true;
                }
            }
            d.resumed = Some(d.have.clone());
            self.stats.resumed_segments_skipped += skipped;
            if let Some(have) = self
                .shared
                .lock()
                .expect("multihop state")
                .have
                .get_mut(collection)
            {
                have.union_with(&d.have);
            }
            resumed_complete = files > 0 && d.files_verified.iter().all(|&v| v);
        }
        d.phase = if resumed_complete {
            Phase::Complete
        } else {
            Phase::Active
        };
        if resumed_complete {
            d.completed_at = Some(ctx.now);
        }
        d.queue_dirty = true;
        ctx.note_state_inserts(2);
        if resumed_complete {
            if self
                .downloads
                .values()
                .all(|dl| dl.phase == Phase::Complete)
            {
                self.stats.complete(ctx.now);
            }
        } else {
            // Open the first advertisement round immediately.
            self.open_advert_round(ctx, collection);
        }
    }

    fn open_advert_round(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name) {
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
        d.advert_rounds_this_encounter += 1;
        let delay = self.jitter(ctx);
        self.schedule_pending(
            ctx,
            PendingPayload::BitmapInterest {
                collection: collection.clone(),
            },
            kinds::BITMAP_INTEREST,
            delay,
            None,
            None,
            None,
        );
    }

    // ------------------------------------------------------------------
    // Bitmap handling
    // ------------------------------------------------------------------

    fn handle_bitmap_seen(
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
        self.shared.lock().expect("multihop state").record_bitmap(
            peer,
            collection,
            bitmap.clone(),
            ctx.now,
        );
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
        let my = d.have.clone();
        let marginal = d.advert.marginal(&my);
        let new_delay = if marginal == 0 {
            None
        } else {
            let mut rng_delay = None;
            if let Some(del) = d.advert.delay_for(&my, ctx.rng()) {
                rng_delay = Some(del);
            }
            rng_delay
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

    fn handle_bitmap_interest(&mut self, ctx: &mut NodeCtx<'_>, interest: &Interest) {
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
                AdvertScheduler::new(self.cfg.peba, self.cfg.tx_window, self.cfg.slot_len)
                    .delay_for(&my, ctx.rng())
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
            None,
            None,
            None,
        );
    }

    // ------------------------------------------------------------------
    // Content fetching
    // ------------------------------------------------------------------

    fn rebuild_queue(&mut self, collection: &Name) {
        let sh = self.shared.lock().expect("multihop state");
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        let Some(_) = d.metadata.as_ref() else { return };
        let total = d.have.len();
        let missing: Vec<usize> = d
            .have
            .iter_missing()
            .filter(|i| !d.outstanding.contains_key(i))
            .collect();
        let rarity = match self.cfg.rpf {
            RpfVariant::LocalNeighborhood => {
                let bitmaps: Vec<&Bitmap> = sh
                    .neighbors()
                    .values()
                    .filter_map(|info| info.bitmaps.get(collection))
                    .collect();
                rarity_counts(total, bitmaps)
            }
            RpfVariant::EncounterBased => rarity_counts(total, d.history.bitmaps()),
        };
        let seed = (self.id as u64) << 32 | (total as u64 & 0xffff_ffff);
        let ordered = fetch_order(missing, &rarity, self.cfg.start, seed);
        // Partition: packets known to be nearby first; speculative
        // (multi-hop) requests afterwards. Reverse so `pop` takes the front.
        let mut available = Vec::new();
        let mut speculative = Vec::new();
        for idx in ordered {
            match sh.neighbor_has_packet(collection, idx) {
                Some(true) => available.push(idx),
                Some(false) | None => speculative.push(idx),
            }
        }
        let multihop = sh.enabled;
        drop(sh);
        let mut queue = available;
        if multihop {
            queue.extend(speculative);
        }
        queue.reverse();
        d.queue = queue;
        d.queue_dirty = false;
    }

    fn refill_fetches(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name) {
        let Some(d) = self.downloads.get(collection) else {
            return;
        };
        if d.phase != Phase::Active {
            return;
        }
        let interested = {
            let sh = self.shared.lock().expect("multihop state");
            sh.neighbors()
                .values()
                .filter(|i| i.wants.contains(collection) || i.bitmaps.contains_key(collection))
                .count()
        };
        if interested == 0 {
            return; // nobody around: pause fetching
        }
        let required = self.cfg.schedule.required_before_fetch(interested);
        if d.bitmaps_this_encounter < required {
            return;
        }
        if d.queue_dirty {
            self.rebuild_queue(collection);
        }
        loop {
            let Some(d) = self.downloads.get_mut(collection) else {
                return;
            };
            if d.outstanding.len() >= self.cfg.fetch_window || d.queue.is_empty() {
                break;
            }
            let idx = d.queue.pop().expect("checked non-empty");
            if (idx < d.have.len() && d.have.get(idx)) || d.outstanding.contains_key(&idx) {
                continue;
            }
            let Some(name) = d
                .index
                .as_ref()
                .and_then(|ix| ix.packet_name(collection, idx))
            else {
                continue;
            };
            // A fetch for a salvaged segment means resume is broken — the
            // `have` check above must have skipped it. Counted, not fixed
            // up, so the fault benches can gate on it staying zero.
            if d.resumed
                .as_ref()
                .is_some_and(|r| idx < r.len() && r.get(idx))
            {
                self.stats.resumed_refetch += 1;
            }
            d.outstanding.insert(idx, (ctx.now, 0));
            self.stats.interests_sent += 1;
            let interest = Interest::new(name).with_nonce(ctx.rng().gen());
            self.express_interest(ctx, interest, kinds::CONTENT_INTEREST);
        }
    }

    /// Consumes an authenticated content Data packet for global packet
    /// `idx` (from [`DapesPeer::content_index`]) of `collection`.
    fn handle_content_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        collection: &Name,
        idx: usize,
        data: &Data,
    ) {
        let Some(d) = self.downloads.get_mut(collection) else {
            return;
        };
        if d.phase != Phase::Active {
            return;
        }
        let (Some(meta), Some(index)) = (d.metadata.clone(), d.index.as_ref()) else {
            return;
        };
        if idx >= d.have.len() {
            return;
        }
        if d.have.get(idx) {
            d.outstanding.remove(&idx);
            return;
        }
        match meta.verify_packet(idx, data.content()) {
            PacketVerification::Failed => {
                self.stats.verify_failures += 1;
                d.outstanding.remove(&idx);
                d.queue_dirty = true;
                return;
            }
            PacketVerification::Verified => {
                self.stats.packets_verified += 1;
            }
            PacketVerification::Deferred => {
                d.leaf_hashes[idx] = Some(leaf_hash(data.content()));
            }
        }
        d.outstanding.remove(&idx);
        d.have.set(idx);
        self.stats.data_received += 1;
        if let Some(have) = self
            .shared
            .lock()
            .expect("multihop state")
            .have
            .get_mut(collection)
        {
            if idx < have.len() {
                have.set(idx);
            }
        }
        // File-completion check (Merkle verification happens here).
        let (file_pos, _) = index.locate(idx).expect("located above");
        let range = index.file_range(file_pos).expect("valid file");
        if !d.files_verified[file_pos] && range.clone().all(|i| d.have.get(i)) {
            let ok = match meta.format {
                crate::metadata::MetadataFormat::PacketDigest => true,
                crate::metadata::MetadataFormat::MerkleRoots => {
                    let leaves: Vec<Digest> = range
                        .clone()
                        .map(|i| d.leaf_hashes[i].expect("all present"))
                        .collect();
                    let root = meta.files[file_pos].root;
                    match root {
                        Some(r) => dapes_crypto::merkle::MerkleTree::verify_leaves(&r, leaves),
                        None => false,
                    }
                }
            };
            if ok {
                d.files_verified[file_pos] = true;
                self.stats.packets_verified += match meta.format {
                    crate::metadata::MetadataFormat::MerkleRoots => range.len() as u64,
                    crate::metadata::MetadataFormat::PacketDigest => 0,
                };
                for i in range {
                    d.leaf_hashes[i] = None; // content hashes no longer needed
                }
            } else {
                // Whole file failed: drop and refetch it.
                self.stats.verify_failures += 1;
                for i in range {
                    d.have.clear(i);
                    d.leaf_hashes[i] = None;
                }
                d.queue_dirty = true;
            }
        }
        if d.files_verified.iter().all(|&v| v) {
            d.phase = Phase::Complete;
            d.completed_at = Some(ctx.now);
            if self
                .downloads
                .values()
                .all(|dl| dl.phase == Phase::Complete)
            {
                self.stats.complete(ctx.now);
            }
        }
        self.refill_fetches(ctx, collection);
    }

    // ------------------------------------------------------------------
    // Serving
    // ------------------------------------------------------------------

    fn serve_interest(&mut self, ctx: &mut NodeCtx<'_>, interest: &Interest) {
        match namespace::classify(interest.name()) {
            Some(DapesName::Discovery { .. }) => {
                if let Some(params) = interest.app_parameters() {
                    if params.len() == 4 {
                        let peer = u32::from_be_bytes(params.try_into().expect("4 bytes"));
                        if peer != self.id {
                            self.shared
                                .lock()
                                .expect("multihop state")
                                .note_peer(peer, ctx.now);
                            self.discovery.note_peer_heard(ctx.now);
                        }
                    }
                }
                if self.current_offers().is_empty() {
                    return;
                }
                // One pending reply at a time; a burst of probes from
                // several peers is answered by a single broadcast.
                if self
                    .pending
                    .values()
                    .any(|p| matches!(p.payload, PendingPayload::DiscoveryReply))
                {
                    return;
                }
                let delay = self.jitter(ctx);
                self.schedule_pending(
                    ctx,
                    PendingPayload::DiscoveryReply,
                    kinds::DISCOVERY_DATA,
                    delay,
                    None,
                    None,
                    None,
                );
            }
            Some(DapesName::Bitmap { .. }) => self.handle_bitmap_interest(ctx, interest),
            Some(DapesName::Metadata {
                collection,
                segment,
                ..
            }) => {
                let Some(seg) = segment else { return };
                if self.reply_pending_for(interest.name()) {
                    return;
                }
                let data = self.metadata_segment_for(&collection, seg as u32);
                if let Some(data) = data {
                    let delay = self.jitter(ctx);
                    self.schedule_pending(
                        ctx,
                        PendingPayload::Raw(data.wire()),
                        kinds::METADATA_DATA,
                        delay,
                        Some(data.name().clone()),
                        None,
                        None,
                    );
                }
            }
            Some(DapesName::Content {
                collection,
                file,
                seq,
            }) => {
                if self.reply_pending_for(interest.name()) {
                    return;
                }
                let data = self.content_packet_for(&collection, &file, seq);
                if let Some(data) = data {
                    self.stats.packets_served += 1;
                    let delay = self.jitter(ctx);
                    self.schedule_pending(
                        ctx,
                        PendingPayload::Raw(data.wire()),
                        kinds::CONTENT_DATA,
                        delay,
                        Some(data.name().clone()),
                        None,
                        None,
                    );
                }
            }
            None => {}
        }
    }

    /// Whether a reply for exactly this data name is already queued.
    fn reply_pending_for(&self, name: &Name) -> bool {
        self.pending
            .values()
            .any(|p| p.cancel_on_data.as_ref() == Some(name) && p.forwarded_name.is_none())
    }

    fn metadata_segment_for(&self, collection: &Name, seg: u32) -> Option<Data> {
        if let Some(seed) = self.seeding.get(collection) {
            return seed.segments.get(seg as usize).cloned();
        }
        let d = self.downloads.get(collection)?;
        d.metadata_segments.get(seg as usize).cloned()
    }

    fn content_packet_for(&self, collection: &Name, file: &str, seq: u64) -> Option<Data> {
        if let Some(seed) = self.seeding.get(collection) {
            let idx = seed.collection.index().global_index(file, seq)?;
            return seed.collection.packet_data(idx, &self.anchor);
        }
        let d = self.downloads.get(collection)?;
        let meta = d.metadata.as_ref()?;
        let idx = d.index.as_ref()?.global_index(file, seq)?;
        if idx >= d.have.len() || !d.have.get(idx) {
            return None;
        }
        regenerate_packet(collection, meta, idx, &self.anchor)
    }

    // ------------------------------------------------------------------
    // Periodic housekeeping
    // ------------------------------------------------------------------

    fn tick(&mut self, ctx: &mut NodeCtx<'_>) {
        // Each sweep is watermarked: it scans only when something it holds
        // can be due, which `tick_scans` counts.
        let now = ctx.now;
        self.stats.ticks += 1;
        let neighbors = {
            let mut sh = self.shared.lock().expect("multihop state");
            self.stats.tick_scans += sh.sweep_due(now) as u64;
            self.stats.neighbors_expired += sh.sweep(now) as u64;
            sh.neighbor_count()
        };
        self.stats.tick_scans += self.forwarder.pit().expire_due(now) as u64;
        self.forwarder.expire(now);
        if self.cfg.signed_adverts {
            self.stats.tick_scans += self.replay.sweep_due(now) as u64;
            self.stats.peers_expired += self.replay.sweep(now) as u64;
            // Nonce journal retention outlives the replay window by a wide
            // margin so a re-injection is still recognized, then entries
            // age out.
            let keep = SimDuration::from_micros(self.replay_window().as_micros() * 4);
            self.nonce_journal.forget_older_than(now, keep);
        }

        // Encounter transitions.
        if neighbors == 0 && self.encounter_active {
            self.encounter_active = false;
            for d in self.downloads.values_mut() {
                d.advert.reset();
                d.bitmaps_this_encounter = 0;
                d.advert_rounds_this_encounter = 0;
                d.rounds_seen.clear();
                d.queue_dirty = true;
            }
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
        ctx.set_timer(self.cfg.tick, TOKEN_TICK);
    }

    fn sweep_download(&mut self, ctx: &mut NodeCtx<'_>, collection: &Name) {
        let now = ctx.now;
        let base = self.cfg.retx_timeout;
        let cap = self.cfg.retx_backoff_cap;
        let max_retx = self.cfg.max_retx;

        // Metadata retransmissions.
        let mut meta_retx: Vec<u32> = Vec::new();
        let mut advert_due = false;
        {
            let Some(d) = self.downloads.get_mut(collection) else {
                return;
            };
            match d.phase {
                Phase::FetchingMetadata => {
                    let mut gave_up: Vec<u32> = Vec::new();
                    for (&seg, (sent, retx)) in d.meta_outstanding.iter_mut() {
                        if now.since(*sent) > backed_off_timeout(base, cap, *retx) {
                            *sent = now;
                            *retx += 1;
                            if *retx <= max_retx {
                                meta_retx.push(seg);
                            } else {
                                gave_up.push(seg);
                            }
                        }
                    }
                    self.stats.retx_give_ups += gave_up.len() as u64;
                    for seg in gave_up {
                        d.meta_outstanding.remove(&seg);
                    }
                    // Once every outstanding catalog segment has given up,
                    // start a fresh windowed round (fresh backoff) while a
                    // peer is in range — segment 0 when the catalog size is
                    // still unknown. A restarted or long-partitioned
                    // downloader recovers here instead of stalling forever.
                    if meta_retx.is_empty()
                        && d.meta_outstanding.is_empty()
                        && self.encounter_active
                    {
                        if d.assembler.total().is_none() {
                            meta_retx.push(0);
                        } else {
                            let window = self.cfg.fetch_window.max(1);
                            meta_retx.extend(d.assembler.missing().into_iter().take(window));
                        }
                    }
                }
                Phase::Active => {
                    // Content retransmissions / requeues, each Interest on
                    // its own backed-off clock.
                    let mut requeue: Vec<usize> = Vec::new();
                    let mut resend: Vec<usize> = Vec::new();
                    for (&idx, (sent, retx)) in d.outstanding.iter_mut() {
                        if now.since(*sent) > backed_off_timeout(base, cap, *retx) {
                            if *retx >= max_retx {
                                requeue.push(idx);
                            } else {
                                *sent = now;
                                *retx += 1;
                                resend.push(idx);
                            }
                        }
                    }
                    self.stats.retx_give_ups += requeue.len() as u64;
                    for idx in requeue {
                        d.outstanding.remove(&idx);
                        d.queue_dirty = true;
                    }
                    let names: Vec<Name> = resend
                        .into_iter()
                        .filter_map(|idx| {
                            d.index
                                .as_ref()
                                .and_then(|ix| ix.packet_name(collection, idx))
                        })
                        .collect();
                    self.stats.retransmissions += names.len() as u64;
                    for name in names {
                        // Retransmissions bypass the forwarder: the PIT entry
                        // (downstream APP) already exists; a fresh nonce lets
                        // neighbors treat it as new.
                        let interest = Interest::new(name).with_nonce(ctx.rng().gen());
                        if self.cfg.signed_adverts {
                            self.nonce_journal.record(interest.nonce(), ctx.now);
                        }
                        let delay_us = ctx
                            .rng()
                            .gen_range(0..self.cfg.tx_window.as_micros().max(1));
                        ctx.send_frame(
                            interest.wire(),
                            kinds::CONTENT_INTEREST,
                            0,
                            SimDuration::from_micros(delay_us),
                        );
                    }
                    let Some(d) = self.downloads.get_mut(collection) else {
                        return;
                    };
                    advert_due = d
                        .last_advert
                        .is_none_or(|t| now.since(t) >= self.cfg.advert_interval);
                }
                Phase::Complete => {}
            }
        }
        for seg in meta_retx {
            self.stats.retransmissions += 1;
            self.request_metadata_segment(ctx, collection, seg);
        }
        if advert_due && self.encounter_active {
            self.open_advert_round(ctx, collection);
        }
        self.refill_fetches(ctx, collection);
    }
}

impl NetStack for DapesPeer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(self.cfg.tick, TOKEN_TICK);
        if self.role == NodeRole::Dapes {
            // Stagger first beacons across the window to avoid a start-up
            // collision storm.
            let delay = SimDuration::from_micros(
                ctx.rng()
                    .gen_range(0..self.cfg.discovery_min.as_micros().max(1)),
            );
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
        if self.cfg.signed_adverts && self.screen_frame(ctx, frame) {
            return;
        }
        let class = match self.on_frame_peeked(ctx, frame) {
            Peeked::Resolved => return,
            Peeked::NeedsDecode(class) => class,
        };
        let Ok(packet) = Packet::decode_payload(&frame.payload) else {
            return;
        };
        match packet {
            Packet::Interest(interest) => {
                if self.cfg.signed_adverts && self.screen_interest(ctx, &interest) {
                    return;
                }
                self.note_sender(ctx, frame);
                // Someone else re-broadcast an Interest we were also about
                // to forward: ours is now redundant.
                let key = (interest.name().clone(), interest.nonce());
                self.cancel_pending_where(ctx, |p| p.cancel_on_nonce.as_ref() == Some(&key));
                let actions = self
                    .forwarder
                    .process_interest(ctx.now, &interest, FaceId::WIRELESS);
                ctx.note_state_inserts(1);
                self.apply_interest_actions(ctx, frame.kind, actions);
            }
            Packet::Data(data) => {
                // The name is classified and the signature checked once,
                // here; the screen and every handler below consume the
                // class and the verdict as values.
                let class = class.or_else(|| namespace::classify(data.name()));
                let authentic = self.check_signature(&data, class.as_ref());
                if self.cfg.signed_adverts
                    && self.screen_data(ctx, &data, class.as_ref(), authentic)
                {
                    return;
                }
                self.note_sender(ctx, frame);
                // Any data transmission cancels our duplicate pending
                // responses/forwards and settles multi-hop bookkeeping.
                let dname = data.name().clone();
                self.cancel_pending_where(ctx, |p| p.cancel_on_data.as_ref() == Some(&dname));
                self.shared
                    .lock()
                    .expect("multihop state")
                    .note_data_seen(&dname);

                // DAPES-level overhearing before the forwarder pipeline.
                let mut content_idx = None;
                if self.role == NodeRole::Dapes {
                    match &class {
                        Some(DapesName::Bitmap {
                            collection,
                            replier,
                            ..
                        }) => {
                            // Sealed or plain: authentication already ran in
                            // the `screen_data` gate when the axis is on.
                            if let Some((peer, bm)) =
                                decode_bitmap_params_maybe_sealed(data.content())
                            {
                                let peer = replier.unwrap_or(peer);
                                self.handle_bitmap_seen(ctx, collection, peer, &bm);
                            }
                        }
                        Some(DapesName::Discovery { .. }) => {
                            if let Some(info) =
                                DiscoveryInfo::from_wire_maybe_sealed(data.content())
                            {
                                self.handle_discovery_info(ctx, &info);
                            }
                        }
                        Some(DapesName::Content {
                            collection,
                            file,
                            seq,
                        }) => {
                            // Note the sender has this packet.
                            content_idx = self.content_index(collection, file, *seq);
                            if let Some(idx) = content_idx {
                                self.shared
                                    .lock()
                                    .expect("multihop state")
                                    .note_neighbor_has(frame.src.0, collection, idx, ctx.now);
                            }
                        }
                        _ => {}
                    }
                }

                let (actions, _solicited) =
                    self.forwarder
                        .process_data(ctx.now, &data, FaceId::WIRELESS);
                for action in actions {
                    match action {
                        Action::SendData {
                            face: FaceId::APP,
                            data,
                        } => {
                            // The forwarder hands back the frame's own
                            // packet, so its class and verdict carry over.
                            self.handle_app_data(ctx, &data, class.as_ref(), authentic);
                        }
                        Action::SendData {
                            face: FaceId::WIRELESS,
                            data,
                        } => {
                            // Multi-hop data return: re-broadcast for the
                            // next hop, unless someone beats us to it.
                            let delay = self.jitter(ctx);
                            self.schedule_pending(
                                ctx,
                                PendingPayload::Raw(data.wire()),
                                frame.kind,
                                delay,
                                Some(data.name().clone()),
                                None,
                                None,
                            );
                        }
                        _ => {}
                    }
                }

                // Opportunistic use of overheard content/metadata even when
                // our PIT did not ask for it.
                if self.role == NodeRole::Dapes {
                    match &class {
                        Some(DapesName::Content { collection, .. }) if authentic => {
                            if let Some(idx) = content_idx {
                                self.handle_content_data(ctx, collection, idx, &data);
                            }
                        }
                        Some(DapesName::Metadata { collection, .. }) => {
                            self.handle_metadata_segment(ctx, collection, &data, authentic);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
        if outcome.token == 0 {
            return;
        }
        let Some(inflight) = self.inflight.remove(&outcome.token) else {
            return;
        };
        let Some(collection) = inflight.bitmap_collection else {
            return;
        };
        let Some(my) = self.my_bitmap(&collection) else {
            return;
        };
        if let Some(d) = self.downloads.get_mut(&collection) {
            if outcome.collided && self.cfg.peba {
                // PEBA: retry in a prioritized slot.
                self.stats.peba_backoffs += 1;
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
                    None,
                    None,
                    None,
                );
            } else if outcome.collided {
                // Without PEBA: linear re-draw.
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
                    None,
                    None,
                    None,
                );
            } else {
                d.advert.record_transmitted(&my);
            }
        }
    }

    fn live_state_bytes(&self) -> usize {
        self.forwarder.state_bytes()
            + self.shared.lock().expect("multihop state").state_bytes()
            + self
                .downloads
                .values()
                .map(Download::state_bytes)
                .sum::<usize>()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What the header fast path made of a frame.
enum Peeked {
    /// Fully handled from the header alone.
    Resolved,
    /// Needs the full decode. Carries the Data name's classification when
    /// the peek already worked it out, so the decode path does not repeat
    /// it (`None` also when the name is not a DAPES name or was not
    /// classified — the decode path then classifies).
    NeedsDecode(Option<DapesName>),
}

impl DapesPeer {
    /// Applies the forwarder's actions for an overheard Interest — the
    /// shared tail of the eager pipeline and the header fast path.
    fn apply_interest_actions(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame_kind: FrameKind,
        actions: Vec<Action>,
    ) {
        for action in actions {
            match action {
                Action::SendInterest {
                    face: FaceId::APP,
                    interest,
                } if self.role == NodeRole::Dapes => {
                    self.serve_interest(ctx, &interest);
                }
                Action::SendInterest {
                    face: FaceId::WIRELESS,
                    mut interest,
                } => {
                    // Multi-hop re-broadcast approved by the
                    // strategy: schedule with a random delay and
                    // cancellation rules (§V-A).
                    if !interest.decrement_hop_limit() {
                        continue;
                    }
                    let delay = self.jitter(ctx);
                    let name = interest.name().clone();
                    let nonce = interest.nonce();
                    self.schedule_pending(
                        ctx,
                        PendingPayload::Raw(interest.wire()),
                        frame_kind,
                        delay,
                        Some(name.clone()),
                        Some((name.clone(), nonce)),
                        Some(name),
                    );
                }
                Action::RelayInterest {
                    face: FaceId::WIRELESS,
                    frame,
                    name,
                    nonce,
                } => {
                    // Decode-free re-broadcast: the forwarder already
                    // patched the hop-limit byte copy-on-write, so the
                    // received bytes go back out as-is — same jitter draw
                    // and cancellation rules as the eager arm above.
                    let delay = self.jitter(ctx);
                    self.stats.frames_relay_patched += 1;
                    self.schedule_pending(
                        ctx,
                        PendingPayload::Raw(frame),
                        frame_kind,
                        delay,
                        Some(name.clone()),
                        Some((name.clone(), nonce)),
                        Some(name),
                    );
                }
                Action::SendData {
                    face: FaceId::WIRELESS,
                    data,
                } => {
                    // Content Store hit: answer from cache after a
                    // polite delay, cancelled if someone else does.
                    let delay = self.jitter(ctx);
                    self.schedule_pending(
                        ctx,
                        PendingPayload::Raw(data.wire()),
                        response_kind_for(&data),
                        delay,
                        Some(data.name().clone()),
                        None,
                        None,
                    );
                }
                _ => {}
            }
        }
    }

    /// The overhearing fast path: tries to resolve `frame` from a
    /// name-first header peek, without a full TLV decode. Returns whether
    /// the frame was fully handled.
    ///
    /// Every branch that resolves a frame reproduces the full-decode
    /// pipeline's side effects *exactly* — same forwarder statistics, same
    /// RNG draws in the same order, same pending-transmission bookkeeping
    /// (held to the traces pinned in `tests/golden.rs`). Frames that need
    /// their payload (aggregating Interests, novel Interests the
    /// decode-free relay path cannot take, PIT-matching or cacheable or
    /// DAPES-signalling Data) fall through untouched, with no state or
    /// statistics recorded, and take the full-decode path.
    fn on_frame_peeked(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) -> Peeked {
        let Ok(header) = Packet::peek_header(&frame.payload) else {
            // A malformed prefix fails the full decode at the same byte, so
            // dropping here is exactly what the eager path would do.
            return Peeked::Resolved;
        };
        match header {
            PacketHeader::Interest(h) => {
                let Some((actions, outcome)) = self.forwarder.process_interest_header(
                    ctx.now,
                    &h,
                    &frame.payload,
                    FaceId::WIRELESS,
                ) else {
                    return Peeked::NeedsDecode(None);
                };
                self.note_sender(ctx, frame);
                // Cancel our own redundant pending forward, comparing the
                // stored name against the frame's borrowed bytes — the
                // Interest fast path builds no `Name` except for the PIT
                // entry a no-route drop records.
                let (name_wire, nonce) = (h.name_wire, h.nonce);
                self.cancel_pending_where(ctx, |p| {
                    p.cancel_on_nonce
                        .as_ref()
                        .is_some_and(|(n, pn)| *pn == nonce && n.wire_value_eq(name_wire))
                });
                ctx.note_state_inserts(1);
                self.apply_interest_actions(ctx, frame.kind, actions);
                self.stats.frames_peek_resolved += 1;
                match outcome {
                    PeekOutcome::CsHit | PeekOutcome::CsPrefixHit => self.stats.peek_cs_hits += 1,
                    PeekOutcome::DuplicateNonce => self.stats.peek_dup_nonces += 1,
                    PeekOutcome::FibNoRoute => self.stats.peek_fib_drops += 1,
                    PeekOutcome::Relayed => self.stats.peek_relayed += 1,
                    PeekOutcome::RelaySuppressed => self.stats.peek_relay_suppressed += 1,
                }
                Peeked::Resolved
            }
            PacketHeader::Data(h) => {
                // Classification and the knowledge-building side effects
                // need a materialized name (zero-copy views, one Vec) — but
                // never the packet's MetaInfo/Content/signature tail.
                let Ok(dname) = h.to_name(&frame.payload) else {
                    // Malformed name region: the full decode fails at the
                    // same byte, so dropping matches the eager path.
                    return Peeked::Resolved;
                };
                // Non-DAPES roles take no overhearing action beyond the
                // forwarder pipeline, so they never need the class here.
                let class = if self.role == NodeRole::Dapes {
                    namespace::classify(&dname)
                } else {
                    None
                };
                if !self.data_resolvable_by_name(class.as_ref())
                    || !self.forwarder.process_data_header(h.name_wire)
                {
                    return Peeked::NeedsDecode(class);
                }
                // Committed: mirror the eager pipeline's name-derived side
                // effects (the payload-derived ones cannot apply, because
                // `data_resolvable_by_name` ruled them out).
                self.note_sender(ctx, frame);
                self.cancel_pending_where(ctx, |p| p.cancel_on_data.as_ref() == Some(&dname));
                self.shared
                    .lock()
                    .expect("multihop state")
                    .note_data_seen(&dname);
                if let Some(DapesName::Content {
                    collection,
                    file,
                    seq,
                }) = &class
                {
                    if let Some(idx) = self.content_index(collection, file, *seq) {
                        self.shared
                            .lock()
                            .expect("multihop state")
                            .note_neighbor_has(frame.src.0, collection, idx, ctx.now);
                    }
                }
                self.stats.frames_peek_resolved += 1;
                self.stats.peek_unsolicited_data += 1;
                Peeked::Resolved
            }
        }
    }

    /// Whether an overheard Data packet whose name classifies as `class`
    /// could be fully handled without its payload, assuming it also matches
    /// no PIT entry. Conservative: any name whose eager handling reads the
    /// content (bitmaps, discovery replies, metadata, content for an active
    /// download) forces the full decode.
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

    // ------------------------------------------------------------------
    // Adversarial screening (`signed_adverts`)
    // ------------------------------------------------------------------

    fn replay_window(&self) -> SimDuration {
        SimDuration::from_millis(self.cfg.replay_window_ms)
    }

    /// Pre-decode screening: drops frames whose header peek fails (the
    /// noise-flood sink) and Interests whose nonce was first overheard
    /// longer than the replay window ago (re-injected Interests). Runs
    /// before the peek/decode split so a replayed Interest can never be
    /// answered from the Content Store or refresh its old PIT entry.
    /// Makes no RNG draws.
    fn screen_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) -> bool {
        let Ok(header) = Packet::peek_header(&frame.payload) else {
            self.stats.flood_frames_dropped += 1;
            return true;
        };
        if let PacketHeader::Interest(h) = header {
            // A first sighting is journaled; a recent re-hearing is an
            // honest wireless echo or relay.
            if let Some(first_seen) = self.nonce_journal.record(h.nonce, ctx.now) {
                if ctx.now.since(first_seen) > self.replay_window() {
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
    fn screen_interest(&mut self, ctx: &mut NodeCtx<'_>, interest: &Interest) -> bool {
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
    fn screen_data(
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
    fn check_signature(&mut self, data: &Data, class: Option<&DapesName>) -> bool {
        if !matches!(
            class,
            Some(DapesName::Content { .. }) | Some(DapesName::Metadata { .. })
        ) {
            return false;
        }
        self.stats.signature_checks += 1;
        data.verify(&self.anchor)
    }

    /// Global packet index of content name `/<collection>/<file>/<seq>`
    /// under the collection's catalog, once we hold it.
    fn content_index(&self, collection: &Name, file: &str, seq: u64) -> Option<usize> {
        self.shared
            .lock()
            .expect("multihop state")
            .indices
            .get(collection)
            .and_then(|ix| ix.global_index(file, seq))
    }

    /// Records that `frame`'s sender is alive and in range.
    fn note_sender(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        if self.role == NodeRole::Dapes {
            self.discovery.note_peer_heard(ctx.now);
            self.shared
                .lock()
                .expect("multihop state")
                .note_peer(frame.src.0, ctx.now);
        }
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

    /// Consumes Data the forwarder delivered to the application face.
    /// `class` and `authentic` are `data`'s own classification and
    /// [`DapesPeer::check_signature`] verdict.
    fn handle_app_data(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        data: &Data,
        class: Option<&DapesName>,
        authentic: bool,
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
                if !authentic {
                    self.stats.verify_failures += 1;
                } else if let Some(idx) = self.content_index(collection, file, *seq) {
                    self.handle_content_data(ctx, collection, idx, data);
                }
            }
            // Bitmap and discovery data were already handled during
            // overhearing.
            _ => {}
        }
    }
}

/// Bounded exponential backoff: the effective retransmission timeout after
/// `retx` attempts is `base << retx`, saturating, clamped to `cap` — a
/// downloader keeps probing through an outage at the capped rate instead of
/// backing off into silence.
fn backed_off_timeout(base: SimDuration, cap: SimDuration, retx: u32) -> SimDuration {
    let base_us = base.as_micros().max(1);
    let cap_us = cap.as_micros().max(base_us);
    let scaled = base_us.saturating_mul(1u64 << retx.min(16));
    SimDuration::from_micros(scaled.min(cap_us))
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
    use crate::pipeline::ChunkedFile;
    use dapes_ndn::cs::EvictionPolicyKind;

    #[test]
    fn seeding_a_chunked_file_populates_a_budgeted_store() {
        let budget = 64 * 1024;
        let cfg = DapesConfig {
            cs_budget_bytes: Some(budget),
            cs_policy: EvictionPolicyKind::Lru,
            ..DapesConfig::default()
        };
        let anchor = TrustAnchor::from_seed(b"seed-test");
        let mut peer = DapesPeer::new(0, cfg, anchor, WantPolicy::Nothing);
        let col = Name::from_uri("/damaged-bridge-1533783192");
        let file = ChunkedFile::synthetic(&col, "pic", 5000, 1024);
        let inserted = peer.seed_chunked_file(&file, SimTime::ZERO);
        assert_eq!(inserted, file.chunk_count() + 1);
        let cs = peer.content_store();
        assert_eq!(cs.len(), inserted);
        assert_eq!(cs.policy_kind(), EvictionPolicyKind::Lru);
        assert!(
            cs.lookup_exact(&namespace::catalog_name(&col, "pic"))
                .is_some(),
            "catalog resident"
        );
        for seq in 0..file.chunk_count() as u64 {
            assert!(
                cs.lookup_exact(&namespace::packet_name(&col, "pic", seq))
                    .is_some(),
                "segment {seq} resident"
            );
        }
        assert!(cs.resident_bytes() <= budget, "within the byte budget");
        cs.audit().expect("exact accounting");
    }
}
