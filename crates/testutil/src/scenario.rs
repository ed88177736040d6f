//! The scenario builder: collection, peer and world factories with seeded
//! RNG placement, mobility presets and loss schedules, for DAPES and for
//! the Bithoc and Ekta baselines alike.

use dapes_baselines::prelude::*;
use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The trust anchor every harness peer shares unless a test overrides it
/// (e.g. to model a forged producer).
pub fn shared_anchor() -> TrustAnchor {
    TrustAnchor::from_seed(b"dapes-testutil")
}

/// A differently-seeded anchor for adversarial scenarios; signatures made
/// under it never verify against [`shared_anchor`].
pub fn rogue_anchor() -> TrustAnchor {
    TrustAnchor::from_seed(b"dapes-testutil-rogue")
}

/// The anchor of the paper's rural-area scenarios: every figure and
/// Table I run under it.
pub fn paper_anchor() -> TrustAnchor {
    TrustAnchor::from_seed(b"rural-area-anchor")
}

/// Parameters of the collection a scenario shares.
#[derive(Clone, Debug)]
pub struct CollectionParams {
    /// Collection name URI.
    pub name: String,
    /// Number of files.
    pub files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Packet payload size.
    pub packet_size: usize,
    /// Metadata encoding.
    pub format: MetadataFormat,
    /// Producer identity the metadata is signed under.
    pub producer: String,
}

impl Default for CollectionParams {
    fn default() -> Self {
        CollectionParams {
            name: "/damaged-bridge-1533783192".into(),
            files: 1,
            file_size: 4096,
            packet_size: 1024,
            format: MetadataFormat::MerkleRoots,
            producer: "resident-a".into(),
        }
    }
}

impl CollectionParams {
    /// A collection of `files` files of `file_size` bytes each.
    pub fn sized(files: usize, file_size: usize) -> Self {
        CollectionParams {
            files,
            file_size,
            ..CollectionParams::default()
        }
    }

    /// Builds the shared collection.
    pub fn build(&self) -> Arc<Collection> {
        Arc::new(Collection::build(CollectionSpec {
            name: dapes_ndn::name::Name::from_uri(&self.name),
            files: (0..self.files)
                .map(|i| FileSpec::new(format!("file-{i}"), self.file_size))
                .collect(),
            packet_size: self.packet_size,
            format: self.format,
            producer: self.producer.clone(),
        }))
    }

    /// Content packets in the collection (excluding metadata segments).
    pub fn total_packets(&self) -> usize {
        self.swarm_spec().total_pieces
    }

    /// The same content as a baseline swarm: one piece per packet.
    pub fn swarm_spec(&self) -> SwarmSpec {
        let pieces_per_file = self.file_size.div_ceil(self.packet_size);
        SwarmSpec {
            total_pieces: self.files * pieces_per_file,
            pieces_per_file,
            piece_size: self.packet_size,
        }
    }
}

/// Which protocol stack populates a scenario.
#[derive(Clone, Debug)]
pub enum Protocol {
    /// DAPES with the given configuration (a peer may override it).
    Dapes(Box<DapesConfig>),
    /// The Bithoc baseline (DSDV + HELLO floods + TCP-lite).
    Bithoc,
    /// The Ekta baseline (DSR + DHT + UDP).
    Ekta,
}

impl Protocol {
    /// Whether the stack at `node` finished every download it wants.
    fn is_complete(&self, world: &World, node: NodeId) -> bool {
        match self {
            Protocol::Dapes(_) => world
                .stack::<DapesPeer>(node)
                .is_some_and(|p| p.downloads_complete()),
            Protocol::Bithoc => world
                .stack::<BithocPeer>(node)
                .is_some_and(|p| p.is_complete()),
            Protocol::Ekta => world
                .stack::<EktaPeer>(node)
                .is_some_and(|p| p.is_complete()),
        }
    }

    /// When the stack at `node` finished, if it did.
    fn completed_at(&self, world: &World, node: NodeId) -> Option<SimTime> {
        match self {
            Protocol::Dapes(_) => world.stack::<DapesPeer>(node)?.completed_at(),
            Protocol::Bithoc => world.stack::<BithocPeer>(node)?.completed_at(),
            Protocol::Ekta => world.stack::<EktaPeer>(node)?.completed_at(),
        }
    }
}

/// How a peer moves, as a reusable preset.
#[derive(Clone, Debug)]
pub enum MobilityPreset {
    /// Never moves.
    Fixed(Point),
    /// Random-direction walk starting at the given point (2–10 m/s,
    /// re-drawn at field boundaries).
    RandomWalk(Point),
    /// Scripted waypoints `(arrival_time, position)`.
    Waypoints(Vec<(SimTime, Point)>),
    /// A data ferry: dwell at `from` until `depart`, then travel so it
    /// arrives at `to` after `travel`. Models the paper's Fig. 8a carrier
    /// crossing a network partition.
    Ferry {
        /// Starting position (typically inside the producer's segment).
        from: Point,
        /// Final position (typically inside the disconnected segment).
        to: Point,
        /// Time spent at `from` before leaving.
        depart: SimTime,
        /// Travel duration from `from` to `to`.
        travel: SimDuration,
    },
}

impl MobilityPreset {
    /// A fixed position shorthand.
    pub fn at(x: f64, y: f64) -> Self {
        MobilityPreset::Fixed(Point::new(x, y))
    }

    /// Instantiates the netsim mobility model.
    pub fn into_mobility(self) -> Box<dyn Mobility> {
        match self {
            MobilityPreset::Fixed(p) => Box::new(Stationary::new(p)),
            MobilityPreset::RandomWalk(p) => Box::new(RandomDirection::new(p)),
            MobilityPreset::Waypoints(w) => Box::new(ScriptedMobility::new(w)),
            MobilityPreset::Ferry {
                from,
                to,
                depart,
                travel,
            } => Box::new(ScriptedMobility::new(vec![
                (SimTime::ZERO, from),
                (depart, from),
                (depart + travel, to),
            ])),
        }
    }
}

/// Role-relative fault recipes, resolved to concrete node ids at build
/// time — the same profile list works across topologies whose node counts
/// differ. Resolved profiles are appended to the scenario's [`FaultPlan`].
#[derive(Clone, Debug)]
pub enum FaultProfile {
    /// Crash the `index`-th downloader at `crash` and restart it at
    /// `restart`; the fresh stack salvages the wreck's held segments and
    /// resumes the transfer.
    CrashRestartDownloader {
        /// Position in the scenario's downloader list.
        index: usize,
        /// Crash instant.
        crash: SimTime,
        /// Restart instant (must be after `crash`).
        restart: SimTime,
    },
    /// Remove the `index`-th downloader permanently at `at`.
    LeaveDownloader {
        /// Position in the scenario's downloader list.
        index: usize,
        /// Departure instant.
        at: SimTime,
    },
    /// Sever every link between the `index`-th downloader and the rest of
    /// the network from `cut` to `heal` — a clean partition-and-heal with
    /// no mobility involved.
    IsolateDownloader {
        /// Position in the scenario's downloader list.
        index: usize,
        /// Cut instant.
        cut: SimTime,
        /// Heal instant (must be at or after `cut`).
        heal: SimTime,
    },
}

impl FaultProfile {
    /// The profile's last scheduled instant, for deadline extension.
    pub fn last_event(&self) -> SimTime {
        match *self {
            FaultProfile::CrashRestartDownloader { restart, .. } => restart,
            FaultProfile::LeaveDownloader { at, .. } => at,
            FaultProfile::IsolateDownloader { heal, .. } => heal,
        }
    }
}

/// What a peer does in the scenario. Under a baseline protocol a producer
/// is the swarm's seed, and relays and pure forwarders are plain routers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerRole {
    /// Seeds the collection, downloads nothing.
    Producer,
    /// Wants every discovered collection.
    Downloader,
    /// A DAPES intermediate node: understands the protocol, wants nothing.
    Relay,
    /// Forwards blindly on the NDN plane without DAPES semantics.
    PureForwarder,
}

/// A DAPES peer playing `role`: a producer holds `collection`.
fn dapes_peer(
    id: u32,
    role: PeerRole,
    cfg: DapesConfig,
    anchor: TrustAnchor,
    collection: &Arc<Collection>,
) -> DapesPeer {
    match role {
        PeerRole::Producer => {
            let mut p = DapesPeer::new(id, cfg, anchor, WantPolicy::Nothing);
            p.add_production(collection.clone());
            p
        }
        PeerRole::Downloader => DapesPeer::new(id, cfg, anchor, WantPolicy::Everything),
        PeerRole::Relay => DapesPeer::new(id, cfg, anchor, WantPolicy::Nothing),
        PeerRole::PureForwarder => DapesPeer::pure_forwarder(id, cfg, anchor),
    }
}

#[derive(Debug)]
struct PeerSpec {
    role: PeerRole,
    mobility: MobilityPreset,
    cfg: Option<DapesConfig>,
    anchor: Option<TrustAnchor>,
}

#[derive(Debug)]
struct AdversarySpec {
    kind: AdversaryKind,
    mobility: MobilityPreset,
    replay_delay: Option<SimDuration>,
    period: Option<SimDuration>,
}

/// Ekta's DHT membership: the ids of the producers and downloaders.
fn swarm_members(peers: &[PeerSpec]) -> Vec<u32> {
    (0..)
        .zip(peers)
        .filter(|(_, p)| matches!(p.role, PeerRole::Producer | PeerRole::Downloader))
        .map(|(id, _)| id)
        .collect()
}

/// Builder for a deterministic scenario under DAPES or a baseline. Every
/// knob defaults to the values the pre-existing test suites used, so a
/// two-peer test is one producer call, one downloader call and `build()`.
#[derive(Debug)]
pub struct ScenarioBuilder {
    seed: u64,
    range: f64,
    field: (f64, f64),
    loss: f64,
    loss_schedule: Vec<(SimTime, f64)>,
    collection: CollectionParams,
    protocol: Protocol,
    anchor: TrustAnchor,
    peers: Vec<PeerSpec>,
    adversaries: Vec<AdversarySpec>,
    fault_plan: FaultPlan,
    fault_profiles: Vec<FaultProfile>,
}

impl ScenarioBuilder {
    /// Starts a scenario with the given world seed. Defaults: 60 m range,
    /// 300 × 300 m field, zero loss, one-file/4 KiB collection, DAPES with
    /// the default [`DapesConfig`], the [`shared_anchor`].
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            range: 60.0,
            field: (300.0, 300.0),
            loss: 0.0,
            loss_schedule: Vec::new(),
            collection: CollectionParams::default(),
            protocol: Protocol::Dapes(Box::default()),
            anchor: shared_anchor(),
            peers: Vec::new(),
            adversaries: Vec::new(),
            fault_plan: FaultPlan::new(),
            fault_profiles: Vec::new(),
        }
    }

    /// Attaches an explicit node-id [`FaultPlan`] (crash/restart/join/
    /// leave/partition script) to the built world. Node ids are assigned in
    /// peer-insertion order, so a plan can be written against the builder
    /// calls. Combines with [`ScenarioBuilder::faults`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Adds role-relative [`FaultProfile`]s, resolved against the actual
    /// downloader list at build time and appended to the fault plan.
    pub fn faults<I: IntoIterator<Item = FaultProfile>>(mut self, profiles: I) -> Self {
        self.fault_profiles.extend(profiles);
        self
    }

    /// Radio range in metres.
    pub fn range(mut self, range: f64) -> Self {
        self.range = range;
        self
    }

    /// Field dimensions in metres.
    pub fn field(mut self, w: f64, h: f64) -> Self {
        self.field = (w, h);
        self
    }

    /// Constant Bernoulli frame-loss rate.
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Time-varying loss: each `(time, rate)` entry switches the loss rate
    /// at that instant. Entries must be in ascending time order.
    pub fn loss_schedule<I: IntoIterator<Item = (SimTime, f64)>>(mut self, schedule: I) -> Self {
        self.loss_schedule = schedule.into_iter().collect();
        assert!(
            self.loss_schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "loss schedule must be time-ordered"
        );
        self
    }

    /// Shares a collection of `files` files of `file_size` bytes.
    pub fn collection(mut self, files: usize, file_size: usize) -> Self {
        self.collection.files = files;
        self.collection.file_size = file_size;
        self
    }

    /// Full control over the shared collection.
    pub fn collection_params(mut self, params: CollectionParams) -> Self {
        self.collection = params;
        self
    }

    /// Runs DAPES with `cfg` on every peer without a per-peer override.
    pub fn config(self, cfg: DapesConfig) -> Self {
        self.protocol(Protocol::Dapes(Box::new(cfg)))
    }

    /// The protocol every peer runs. A baseline swarm shares the
    /// [`CollectionParams`]' content ([`CollectionParams::swarm_spec`]);
    /// Ekta's DHT members are its producers and downloaders.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Trust anchor shared by peers without a per-peer override.
    pub fn anchor(mut self, anchor: TrustAnchor) -> Self {
        self.anchor = anchor;
        self
    }

    /// Adds a peer with an explicit role and mobility.
    pub fn peer(self, role: PeerRole, mobility: MobilityPreset) -> Self {
        self.push_peer(role, mobility, None, None)
    }

    /// Adds a peer whose [`DapesConfig`] differs from the scenario default.
    pub fn peer_with_config(
        self,
        role: PeerRole,
        mobility: MobilityPreset,
        cfg: DapesConfig,
    ) -> Self {
        self.push_peer(role, mobility, Some(cfg), None)
    }

    /// Adds a peer signing/verifying under its own trust anchor (e.g. a
    /// forged producer).
    pub fn peer_with_anchor(
        self,
        role: PeerRole,
        mobility: MobilityPreset,
        anchor: TrustAnchor,
    ) -> Self {
        self.push_peer(role, mobility, None, Some(anchor))
    }

    fn push_peer(
        mut self,
        role: PeerRole,
        mobility: MobilityPreset,
        cfg: Option<DapesConfig>,
        anchor: Option<TrustAnchor>,
    ) -> Self {
        self.peers.push(PeerSpec {
            role,
            mobility,
            cfg,
            anchor,
        });
        self
    }

    /// Stationary producer at `(x, y)`.
    pub fn producer_at(self, x: f64, y: f64) -> Self {
        self.peer(PeerRole::Producer, MobilityPreset::at(x, y))
    }

    /// Stationary downloader at `(x, y)`.
    pub fn downloader_at(self, x: f64, y: f64) -> Self {
        self.peer(PeerRole::Downloader, MobilityPreset::at(x, y))
    }

    /// Stationary DAPES relay at `(x, y)`.
    pub fn relay_at(self, x: f64, y: f64) -> Self {
        self.peer(PeerRole::Relay, MobilityPreset::at(x, y))
    }

    /// Stationary pure forwarder at `(x, y)`.
    pub fn pure_forwarder_at(self, x: f64, y: f64) -> Self {
        self.peer(PeerRole::PureForwarder, MobilityPreset::at(x, y))
    }

    /// Adds an attacker node running the given hostile behavior, keyed to
    /// the [`rogue_anchor`]. Adversaries are instantiated after every
    /// honest peer, so honest node ids are unchanged by their presence;
    /// the forger's victim is the scenario's first producer.
    pub fn adversary(self, kind: AdversaryKind, mobility: MobilityPreset) -> Self {
        self.adversary_with_timing(kind, mobility, None, None)
    }

    /// Stationary adversary at `(x, y)`.
    pub fn adversary_at(self, kind: AdversaryKind, x: f64, y: f64) -> Self {
        self.adversary(kind, MobilityPreset::at(x, y))
    }

    /// Adds an attacker with explicit timing: `period` for the periodic
    /// behaviors (flood, forge), `replay_delay` for the replayer's hold
    /// time (must exceed the honest peers'
    /// [`REPLAY_WINDOW`](dapes_core::config::REPLAY_WINDOW)).
    pub fn adversary_with_timing(
        mut self,
        kind: AdversaryKind,
        mobility: MobilityPreset,
        period: Option<SimDuration>,
        replay_delay: Option<SimDuration>,
    ) -> Self {
        self.adversaries.push(AdversarySpec {
            kind,
            mobility,
            replay_delay,
            period,
        });
        self
    }

    /// `n` random-walking downloaders placed by the scenario's seeded RNG.
    pub fn mobile_downloaders(self, n: usize) -> Self {
        self.walkers(PeerRole::Downloader, n)
    }

    /// `n` random-walking DAPES relays placed by the scenario's seeded RNG.
    pub fn mobile_relays(self, n: usize) -> Self {
        self.walkers(PeerRole::Relay, n)
    }

    /// `n` random-walking pure forwarders placed by the seeded RNG.
    pub fn mobile_pure_forwarders(self, n: usize) -> Self {
        self.walkers(PeerRole::PureForwarder, n)
    }

    fn walkers(mut self, role: PeerRole, n: usize) -> Self {
        for _ in 0..n {
            self = self.peer(role, MobilityPreset::RandomWalk(Point::new(0.0, 0.0)));
        }
        self
    }

    /// The paper's §VI-B1 swarm on the paper's air. `stationary`
    /// repositories sit on fixed spots over the field interior; the first
    /// produces and the rest download. Then come `mobile_downloaders`
    /// random-walking downloaders, `relays` random-walking relays and
    /// `forwarders` random-walking pure forwarders, placed by the seeded
    /// RNG in that order.
    pub fn paper_swarm(
        mut self,
        stationary: usize,
        mobile_downloaders: usize,
        relays: usize,
        forwarders: usize,
    ) -> Self {
        const SPOTS: [(f64, f64); 5] = [
            (75.0, 75.0),
            (225.0, 75.0),
            (75.0, 225.0),
            (225.0, 225.0),
            (150.0, 150.0),
        ];
        for i in 0..stationary {
            let role = if i == 0 {
                PeerRole::Producer
            } else {
                PeerRole::Downloader
            };
            let (x, y) = SPOTS[i % SPOTS.len()];
            self = self.peer(role, MobilityPreset::at(x, y));
        }
        // The paper's channel is the simulator's default 10 % frame loss;
        // the builder's own default is a clean channel.
        self.loss(PhyConfig::default().loss_rate)
            .mobile_downloaders(mobile_downloaders)
            .mobile_relays(relays)
            .mobile_pure_forwarders(forwarders)
    }

    /// Instantiates the world, collection and peers. Node ids are assigned
    /// in insertion order; random-walk start positions come from a SplitMix
    /// of the scenario seed, so equal builders give bit-identical runs.
    /// A baseline scenario takes no adversaries and no faults.
    pub fn build(self) -> Scenario {
        let dapes = matches!(self.protocol, Protocol::Dapes(_));
        assert!(
            dapes
                || self.adversaries.is_empty()
                    && self.fault_plan.is_empty()
                    && self.fault_profiles.is_empty(),
            "a baseline scenario takes no adversaries or faults"
        );
        let mut world = World::new(WorldConfig {
            seed: self.seed,
            range: self.range,
            field: self.field,
            phy: PhyConfig {
                loss_rate: self.loss,
                ..PhyConfig::default()
            },
            ..WorldConfig::default()
        });
        let collection = self.collection.build();
        let swarm = self.collection.swarm_spec();
        let mut placement_rng = SmallRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        // Random walkers get their start drawn here so placement is a pure
        // function of the scenario seed.
        let field = self.field;
        let mut place = |mobility| match mobility {
            MobilityPreset::RandomWalk(_) => {
                let x = placement_rng.gen_range(0.0..field.0);
                let y = placement_rng.gen_range(0.0..field.1);
                MobilityPreset::RandomWalk(Point::new(x, y)).into_mobility()
            }
            other => other.into_mobility(),
        };

        let members = swarm_members(&self.peers);
        let mut producers = Vec::new();
        let mut downloaders = Vec::new();
        let mut relays = Vec::new();
        let mut forwarders = Vec::new();

        let honest = self.peers.len();
        let mut recipes: Vec<(PeerRole, DapesConfig, TrustAnchor)> = Vec::with_capacity(honest);
        for (id, spec) in (0..).zip(self.peers) {
            let stack: Box<dyn NetStack> = match &self.protocol {
                Protocol::Dapes(default) => {
                    let cfg = spec.cfg.unwrap_or_else(|| (**default).clone());
                    let anchor = spec.anchor.unwrap_or_else(|| self.anchor.clone());
                    recipes.push((spec.role, cfg.clone(), anchor.clone()));
                    Box::new(dapes_peer(id, spec.role, cfg, anchor, &collection))
                }
                Protocol::Bithoc => {
                    let role = match spec.role {
                        PeerRole::Producer => BithocRole::Seed,
                        PeerRole::Downloader => BithocRole::Downloader,
                        PeerRole::Relay | PeerRole::PureForwarder => BithocRole::Router,
                    };
                    Box::new(BithocPeer::new(id, role, swarm.clone(), BithocConfig))
                }
                Protocol::Ekta => {
                    let role = match spec.role {
                        PeerRole::Producer => EktaRole::Seed,
                        PeerRole::Downloader => EktaRole::Downloader,
                        PeerRole::Relay | PeerRole::PureForwarder => EktaRole::Router,
                    };
                    let members = members.clone();
                    Box::new(EktaPeer::new(id, role, swarm.clone(), members, EktaConfig))
                }
            };
            let node = world.add_node(place(spec.mobility), stack);
            match spec.role {
                PeerRole::Producer => producers.push(node),
                PeerRole::Downloader => downloaders.push(node),
                PeerRole::Relay => relays.push(node),
                PeerRole::PureForwarder => forwarders.push(node),
            }
        }

        // Attackers join after every honest peer, so honest node ids are
        // independent of the adversarial axis. The forger impersonates the
        // first producer (peer ids equal insertion order).
        let victim = producers.first().map_or(0, |n| n.0);
        let mut adversaries = Vec::new();
        for (j, spec) in self.adversaries.into_iter().enumerate() {
            let id = (honest + j) as u32;
            let mut adv = Adversary::new(id, spec.kind, victim, rogue_anchor());
            if let Some(p) = spec.period {
                adv = adv.with_period(p);
            }
            if let Some(d) = spec.replay_delay {
                adv = adv.with_replay_delay(d);
            }
            adversaries.push(world.add_node(place(spec.mobility), Box::new(adv)));
        }

        // Resolve role-relative fault profiles now that node ids exist and
        // append them to the explicit plan.
        let mut plan = self.fault_plan;
        let all_nodes: Vec<NodeId> = (0..world.node_count() as u32).map(NodeId).collect();
        for profile in self.fault_profiles {
            match profile {
                FaultProfile::CrashRestartDownloader {
                    index,
                    crash,
                    restart,
                } => {
                    let node = downloaders[index];
                    plan = plan.crash_at(crash, node).restart_at(restart, node);
                }
                FaultProfile::LeaveDownloader { index, at } => {
                    plan = plan.leave_at(at, downloaders[index]);
                }
                FaultProfile::IsolateDownloader { index, cut, heal } => {
                    let node = downloaders[index];
                    let rest: Vec<NodeId> =
                        all_nodes.iter().copied().filter(|&n| n != node).collect();
                    plan = plan.partition(cut, heal, [node], rest);
                }
            }
        }

        // Restart recipes: a fresh stack per honest DAPES node id (same
        // role, config and anchor as the original), salvaging download
        // state from the wreck so a restarted downloader resumes instead of
        // starting over. Installed for every DAPES world — a plan set later
        // on the world still finds it.
        if dapes {
            let factory_collection = collection.clone();
            world.set_stack_factory(Box::new(move |node, wreck| {
                let (role, cfg, anchor) = recipes
                    .get(node.0 as usize)
                    .cloned()
                    .expect("fault plans may only restart honest peers");
                let mut peer = dapes_peer(node.0, role, cfg, anchor, &factory_collection);
                if let Some(old) = wreck.and_then(|w| w.as_any().downcast_ref::<DapesPeer>()) {
                    peer.restore(old.salvage());
                }
                Box::new(peer)
            }));
        }
        if !plan.is_empty() {
            world.set_fault_plan(plan);
        }

        Scenario {
            world,
            producers,
            downloaders,
            relays,
            forwarders,
            adversaries,
            collection,
            anchor: self.anchor,
            protocol: self.protocol,
            loss_schedule: self.loss_schedule,
            schedule_applied: 0,
        }
    }
}

/// A built scenario: the world plus the node ids by role.
pub struct Scenario {
    /// The simulator.
    pub world: World,
    /// Producer node ids, in insertion order.
    pub producers: Vec<NodeId>,
    /// Downloader node ids, in insertion order.
    pub downloaders: Vec<NodeId>,
    /// DAPES relay node ids.
    pub relays: Vec<NodeId>,
    /// Pure-forwarder node ids.
    pub forwarders: Vec<NodeId>,
    /// Adversary node ids (always after every honest peer).
    pub adversaries: Vec<NodeId>,
    /// The shared collection.
    pub collection: Arc<Collection>,
    /// The default trust anchor.
    pub anchor: TrustAnchor,
    protocol: Protocol,
    loss_schedule: Vec<(SimTime, f64)>,
    schedule_applied: usize,
}

/// What [`Scenario::run_sampled`] observed.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// Downloader completion times, in insertion order; `None` for one
    /// that had not finished at the cap.
    pub completion_times: Vec<Option<SimTime>>,
    /// Peak of [`World::live_state_bytes`] over the samples.
    pub peak_state_bytes: usize,
}

impl Scenario {
    /// The DAPES peer at `node`, if it is one.
    pub fn peer(&self, node: NodeId) -> Option<&DapesPeer> {
        self.world.stack::<DapesPeer>(node)
    }

    /// The adversary stack at `node`, if it is one.
    pub fn adversary(&self, node: NodeId) -> Option<&Adversary> {
        self.world.stack::<Adversary>(node)
    }

    /// Every honest DAPES peer's counters summed with [`PeerStats::merge`]
    /// (adversaries and non-DAPES stacks are skipped).
    pub fn peer_totals(&self) -> PeerStats {
        let mut total = PeerStats::default();
        for i in 0..self.world.node_count() {
            if let Some(p) = self.peer(NodeId(i as u32)) {
                total.merge(p.stats());
            }
        }
        total
    }

    /// Whether `node` completed all wanted downloads.
    pub fn completed(&self, node: NodeId) -> bool {
        self.protocol.is_complete(&self.world, node)
    }

    /// When `node` completed, if it did.
    pub fn completed_at(&self, node: NodeId) -> Option<SimTime> {
        self.protocol.completed_at(&self.world, node)
    }

    /// Whether every downloader completed.
    pub fn all_complete(&self) -> bool {
        self.downloaders.iter().all(|&d| self.completed(d))
    }

    /// Completion times of the downloaders, in insertion order.
    pub fn completion_times(&self) -> Vec<Option<SimTime>> {
        self.downloaders
            .iter()
            .map(|&d| self.completed_at(d))
            .collect()
    }

    /// Runs until `deadline`, applying any loss schedule along the way.
    pub fn run_until(&mut self, deadline: SimTime) {
        // Equivalent to a predicate that never fires.
        self.run_until_cond(deadline, |_| false);
    }

    /// Runs until the predicate fires or `deadline`, applying the loss
    /// schedule at its switch points. Returns whether the predicate fired.
    pub fn run_until_cond<F: FnMut(&World) -> bool>(
        &mut self,
        deadline: SimTime,
        mut pred: F,
    ) -> bool {
        loop {
            let next_switch = self
                .loss_schedule
                .get(self.schedule_applied)
                .map(|&(t, _)| t);
            match next_switch {
                Some(t) if t <= deadline => {
                    if self.world.run_until_cond(t, &mut pred) {
                        return true;
                    }
                    let (_, rate) = self.loss_schedule[self.schedule_applied];
                    self.world.set_loss_rate(rate);
                    self.schedule_applied += 1;
                }
                _ => return self.world.run_until_cond(deadline, &mut pred),
            }
        }
    }

    /// Runs until every downloader finished or `deadline`. Returns whether
    /// all finished.
    pub fn run_until_complete(&mut self, deadline: SimTime) -> bool {
        let (protocol, downloaders) = (self.protocol.clone(), self.downloaders.clone());
        self.run_until_cond(deadline, |w| {
            downloaders.iter().all(|&d| protocol.is_complete(w, d))
        })
    }

    /// Runs until one specific node finished or `deadline`.
    pub fn run_until_node_complete(&mut self, node: NodeId, deadline: SimTime) -> bool {
        let protocol = self.protocol.clone();
        self.run_until_cond(deadline, |w| protocol.is_complete(w, node))
    }

    /// Steps by `step` until every downloader finished or `cap`, sampling
    /// [`World::live_state_bytes`] after each step. Unlike
    /// [`Scenario::run_until_complete`] it stops on a step boundary, so the
    /// frame counts include the rest of the step the last download
    /// finished in.
    pub fn run_sampled(&mut self, step: SimDuration, cap: SimTime) -> SampledRun {
        let mut peak_state_bytes = 0;
        let mut now = self.world.now();
        loop {
            now = (now + step).min(cap);
            self.run_until(now);
            peak_state_bytes = peak_state_bytes.max(self.world.live_state_bytes());
            if self.all_complete() || now >= cap {
                break;
            }
        }
        SampledRun {
            completion_times: self.completion_times(),
            peak_state_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(protocol: Protocol) -> ScenarioBuilder {
        ScenarioBuilder::new(17)
            .protocol(protocol)
            .paper_swarm(4, 5, 3, 2)
    }

    #[test]
    fn the_paper_swarm_is_one_world_under_every_protocol() {
        let dapes = paper(Protocol::Dapes(Box::default())).build();
        let start = |sc: &Scenario| -> Vec<Point> {
            (0..sc.world.node_count() as u32)
                .map(|i| sc.world.position_of(NodeId(i)))
                .collect()
        };
        let roles = |sc: &Scenario| {
            [&sc.producers, &sc.downloaders, &sc.relays, &sc.forwarders].map(|v| v.clone())
        };
        assert_eq!(start(&dapes).len(), 14);
        assert_eq!(dapes.producers, vec![NodeId(0)]);
        assert_eq!(dapes.downloaders.len(), 3 + 5);
        for protocol in [Protocol::Bithoc, Protocol::Ekta] {
            let baseline = paper(protocol.clone()).build();
            assert_eq!(start(&baseline), start(&dapes), "{protocol:?}");
            assert_eq!(roles(&baseline), roles(&dapes), "{protocol:?}");
        }
    }

    #[test]
    fn ekta_members_are_the_producers_and_downloaders() {
        let builder = paper(Protocol::Ekta);
        let members = swarm_members(&builder.peers);
        let sc = builder.build();
        let mut swarm: Vec<u32> = sc
            .producers
            .iter()
            .chain(&sc.downloaders)
            .map(|n| n.0)
            .collect();
        swarm.sort_unstable();
        assert_eq!(members, swarm);
        assert_eq!(members, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn the_baseline_swarm_holds_the_collections_packets() {
        for (files, file_size) in [(1, 4096), (2, 1500), (3, 1024), (4, 12 * 1024)] {
            let params = CollectionParams::sized(files, file_size);
            let spec = params.swarm_spec();
            assert_eq!(spec.total_pieces, params.build().total_packets());
            assert_eq!(spec.total_pieces, files * spec.pieces_per_file);
            assert_eq!(spec.piece_size, params.packet_size);
        }
    }

    #[test]
    #[should_panic(expected = "a baseline scenario takes no adversaries or faults")]
    fn a_baseline_scenario_refuses_an_adversary() {
        paper(Protocol::Bithoc)
            .adversary_at(AdversaryKind::NoiseFlooder, 150.0, 150.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "a baseline scenario takes no adversaries or faults")]
    fn a_baseline_scenario_refuses_a_restart() {
        paper(Protocol::Ekta)
            .faults([FaultProfile::CrashRestartDownloader {
                index: 0,
                crash: SimTime::from_secs(1),
                restart: SimTime::from_secs(2),
            }])
            .build();
    }
}
