//! Scenario builders: collection, peer and world factories with seeded
//! RNG placement, mobility presets and loss schedules.

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
        self.files * self.file_size.div_ceil(self.packet_size)
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

/// What a peer does in the scenario.
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

/// Builder for a deterministic DAPES scenario. Every knob defaults to the
/// values the pre-existing test suites used, so a two-peer test is one
/// producer call, one downloader call and `build()`.
#[derive(Debug)]
pub struct ScenarioBuilder {
    seed: u64,
    range: f64,
    field: (f64, f64),
    loss: f64,
    loss_schedule: Vec<(SimTime, f64)>,
    collection: CollectionParams,
    cfg: DapesConfig,
    anchor: TrustAnchor,
    peers: Vec<PeerSpec>,
    adversaries: Vec<AdversarySpec>,
    fault_plan: FaultPlan,
    fault_profiles: Vec<FaultProfile>,
}

impl ScenarioBuilder {
    /// Starts a scenario with the given world seed. Defaults: 60 m range,
    /// 300 × 300 m field, zero loss, one-file/4 KiB collection, default
    /// [`DapesConfig`], the [`shared_anchor`].
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            range: 60.0,
            field: (300.0, 300.0),
            loss: 0.0,
            loss_schedule: Vec::new(),
            collection: CollectionParams::default(),
            cfg: DapesConfig::default(),
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

    /// DAPES configuration used by peers without a per-peer override.
    pub fn config(mut self, cfg: DapesConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Trust anchor shared by peers without a per-peer override.
    pub fn anchor(mut self, anchor: TrustAnchor) -> Self {
        self.anchor = anchor;
        self
    }

    /// Adds a peer with an explicit role and mobility.
    pub fn peer(mut self, role: PeerRole, mobility: MobilityPreset) -> Self {
        self.peers.push(PeerSpec {
            role,
            mobility,
            cfg: None,
            anchor: None,
        });
        self
    }

    /// Adds a peer whose [`DapesConfig`] differs from the scenario default.
    pub fn peer_with_config(
        mut self,
        role: PeerRole,
        mobility: MobilityPreset,
        cfg: DapesConfig,
    ) -> Self {
        self.peers.push(PeerSpec {
            role,
            mobility,
            cfg: Some(cfg),
            anchor: None,
        });
        self
    }

    /// Adds a peer signing/verifying under its own trust anchor (e.g. a
    /// forged producer).
    pub fn peer_with_anchor(
        mut self,
        role: PeerRole,
        mobility: MobilityPreset,
        anchor: TrustAnchor,
    ) -> Self {
        self.peers.push(PeerSpec {
            role,
            mobility,
            cfg: None,
            anchor: Some(anchor),
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
    pub fn adversary(mut self, kind: AdversaryKind, mobility: MobilityPreset) -> Self {
        self.adversaries.push(AdversarySpec {
            kind,
            mobility,
            replay_delay: None,
            period: None,
        });
        self
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
    pub fn mobile_downloaders(mut self, n: usize) -> Self {
        for _ in 0..n {
            self.peers.push(PeerSpec {
                role: PeerRole::Downloader,
                mobility: MobilityPreset::RandomWalk(Point::new(0.0, 0.0)),
                cfg: None,
                anchor: None,
            });
        }
        self
    }

    /// `n` random-walking DAPES relays placed by the scenario's seeded RNG.
    pub fn mobile_relays(mut self, n: usize) -> Self {
        for _ in 0..n {
            self.peers.push(PeerSpec {
                role: PeerRole::Relay,
                mobility: MobilityPreset::RandomWalk(Point::new(0.0, 0.0)),
                cfg: None,
                anchor: None,
            });
        }
        self
    }

    /// `n` random-walking pure forwarders placed by the seeded RNG.
    pub fn mobile_pure_forwarders(mut self, n: usize) -> Self {
        for _ in 0..n {
            self.peers.push(PeerSpec {
                role: PeerRole::PureForwarder,
                mobility: MobilityPreset::RandomWalk(Point::new(0.0, 0.0)),
                cfg: None,
                anchor: None,
            });
        }
        self
    }

    /// Instantiates the world, collection and peers. Node ids are assigned
    /// in insertion order; random-walk start positions come from a SplitMix
    /// of the scenario seed, so equal builders give bit-identical runs.
    pub fn build(self) -> Scenario {
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
        let mut placement_rng = SmallRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);

        let mut producers = Vec::new();
        let mut downloaders = Vec::new();
        let mut relays = Vec::new();
        let mut forwarders = Vec::new();

        let honest = self.peers.len();
        let mut recipes: Vec<(PeerRole, DapesConfig, TrustAnchor)> = Vec::with_capacity(honest);
        for (i, spec) in self.peers.into_iter().enumerate() {
            let id = i as u32;
            let cfg = spec.cfg.unwrap_or_else(|| self.cfg.clone());
            let anchor = spec.anchor.unwrap_or_else(|| self.anchor.clone());
            recipes.push((spec.role, cfg.clone(), anchor.clone()));
            let mobility = match spec.mobility {
                // Random walkers get their start drawn here so placement is
                // a pure function of the scenario seed.
                MobilityPreset::RandomWalk(_) => {
                    let x = placement_rng.gen_range(0.0..self.field.0);
                    let y = placement_rng.gen_range(0.0..self.field.1);
                    MobilityPreset::RandomWalk(Point::new(x, y))
                }
                other => other,
            };
            let stack: Box<dyn NetStack> = match spec.role {
                PeerRole::Producer => {
                    let mut p = DapesPeer::new(id, cfg, anchor, WantPolicy::Nothing);
                    p.add_production(collection.clone());
                    Box::new(p)
                }
                PeerRole::Downloader => {
                    Box::new(DapesPeer::new(id, cfg, anchor, WantPolicy::Everything))
                }
                PeerRole::Relay => Box::new(DapesPeer::new(id, cfg, anchor, WantPolicy::Nothing)),
                PeerRole::PureForwarder => Box::new(DapesPeer::pure_forwarder(id, cfg, anchor)),
            };
            let node = world.add_node(mobility.into_mobility(), stack);
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
            let mobility = match spec.mobility {
                MobilityPreset::RandomWalk(_) => {
                    let x = placement_rng.gen_range(0.0..self.field.0);
                    let y = placement_rng.gen_range(0.0..self.field.1);
                    MobilityPreset::RandomWalk(Point::new(x, y))
                }
                other => other,
            };
            adversaries.push(world.add_node(mobility.into_mobility(), Box::new(adv)));
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

        // Restart recipes: a fresh stack per honest node id (same role,
        // config and anchor as the original), salvaging download state from
        // the wreck so a restarted downloader resumes instead of starting
        // over. Installed unconditionally — a plan set later on the world
        // still finds it.
        let factory_collection = collection.clone();
        world.set_stack_factory(Box::new(move |node, wreck| {
            let (role, cfg, anchor) = recipes
                .get(node.0 as usize)
                .cloned()
                .expect("fault plans may only restart honest peers");
            let id = node.0;
            let mut peer = match role {
                PeerRole::Producer => {
                    let mut p = DapesPeer::new(id, cfg, anchor, WantPolicy::Nothing);
                    p.add_production(factory_collection.clone());
                    p
                }
                PeerRole::Downloader => DapesPeer::new(id, cfg, anchor, WantPolicy::Everything),
                PeerRole::Relay => DapesPeer::new(id, cfg, anchor, WantPolicy::Nothing),
                PeerRole::PureForwarder => DapesPeer::pure_forwarder(id, cfg, anchor),
            };
            if let Some(old) = wreck.and_then(|w| w.as_any().downcast_ref::<DapesPeer>()) {
                peer.restore(old.salvage());
            }
            Box::new(peer)
        }));
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
    loss_schedule: Vec<(SimTime, f64)>,
    schedule_applied: usize,
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
        self.peer(node).is_some_and(|p| p.downloads_complete())
    }

    /// Whether every downloader completed.
    pub fn all_complete(&self) -> bool {
        self.downloaders.iter().all(|&d| self.completed(d))
    }

    /// Completion times of the downloaders, in insertion order.
    pub fn completion_times(&self) -> Vec<Option<SimTime>> {
        self.downloaders
            .iter()
            .map(|&d| self.peer(d).and_then(|p| p.completed_at()))
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
        let downloaders = self.downloaders.clone();
        self.run_until_cond(deadline, |w| {
            downloaders.iter().all(|&d| {
                w.stack::<DapesPeer>(d)
                    .is_some_and(|p| p.downloads_complete())
            })
        })
    }

    /// Runs until one specific node finished or `deadline`.
    pub fn run_until_node_complete(&mut self, node: NodeId, deadline: SimTime) -> bool {
        self.run_until_cond(deadline, |w| {
            w.stack::<DapesPeer>(node)
                .is_some_and(|p| p.downloads_complete())
        })
    }
}
