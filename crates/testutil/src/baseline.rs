//! Scenario builders for the IP/MANET baselines (Bithoc, Ekta), sharing the
//! mobility presets and determinism conventions of the DAPES builder.

use crate::scenario::MobilityPreset;
use dapes_baselines::prelude::*;
use dapes_netsim::prelude::*;

/// Which baseline stack populates the swarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineProtocol {
    /// BitTorrent-over-MANET: DSDV + HELLO floods + TCP-lite pieces.
    Bithoc,
    /// Pastry-style DHT over DSR, fetching pieces over UDP.
    Ekta,
}

/// What a baseline node does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineRole {
    /// Holds every piece from the start.
    Seed,
    /// Fetches the swarm's pieces.
    Downloader,
    /// Routes for others without participating in the swarm.
    Router,
}

struct NodeSpec {
    role: BaselineRole,
    mobility: MobilityPreset,
}

/// Builder for a deterministic baseline swarm.
pub struct BaselineSwarmBuilder {
    protocol: BaselineProtocol,
    seed: u64,
    range: f64,
    loss: f64,
    spec: SwarmSpec,
    nodes: Vec<NodeSpec>,
}

impl BaselineSwarmBuilder {
    /// Starts a swarm of the given protocol with the given world seed.
    /// Defaults: 60 m range, zero loss, the 8-piece/1 KiB two-file swarm
    /// the pre-existing baseline suite used.
    pub fn new(protocol: BaselineProtocol, seed: u64) -> Self {
        BaselineSwarmBuilder {
            protocol,
            seed,
            range: 60.0,
            loss: 0.0,
            spec: SwarmSpec {
                total_pieces: 8,
                pieces_per_file: 4,
                piece_size: 1024,
            },
            nodes: Vec::new(),
        }
    }

    /// Radio range in metres.
    pub fn range(mut self, range: f64) -> Self {
        self.range = range;
        self
    }

    /// Bernoulli frame-loss rate.
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Replaces the swarm content description.
    pub fn spec(mut self, spec: SwarmSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Adds a node with an explicit role and mobility preset.
    pub fn node(mut self, role: BaselineRole, mobility: MobilityPreset) -> Self {
        self.nodes.push(NodeSpec { role, mobility });
        self
    }

    /// Stationary seed at `(x, y)`.
    pub fn seed_at(self, x: f64, y: f64) -> Self {
        self.node(BaselineRole::Seed, MobilityPreset::at(x, y))
    }

    /// Stationary downloader at `(x, y)`.
    pub fn downloader_at(self, x: f64, y: f64) -> Self {
        self.node(BaselineRole::Downloader, MobilityPreset::at(x, y))
    }

    /// Stationary router at `(x, y)`.
    pub fn router_at(self, x: f64, y: f64) -> Self {
        self.node(BaselineRole::Router, MobilityPreset::at(x, y))
    }

    /// Instantiates the world and peers. Node ids follow insertion order;
    /// for Ekta, the DHT membership is every seed and downloader.
    pub fn build(self) -> BaselineScenario {
        let mut world = World::new(WorldConfig {
            seed: self.seed,
            range: self.range,
            phy: PhyConfig {
                loss_rate: self.loss,
                ..PhyConfig::default()
            },
            ..WorldConfig::default()
        });

        let members: Vec<u32> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.role != BaselineRole::Router)
            .map(|(i, _)| i as u32)
            .collect();

        let mut downloaders = Vec::new();
        for (i, spec) in self.nodes.into_iter().enumerate() {
            let id = i as u32;
            let stack: Box<dyn NetStack> = match self.protocol {
                BaselineProtocol::Bithoc => {
                    let role = match spec.role {
                        BaselineRole::Seed => BithocRole::Seed,
                        BaselineRole::Downloader => BithocRole::Downloader,
                        BaselineRole::Router => BithocRole::Router,
                    };
                    Box::new(BithocPeer::new(id, role, self.spec.clone(), BithocConfig))
                }
                BaselineProtocol::Ekta => {
                    let role = match spec.role {
                        BaselineRole::Seed => EktaRole::Seed,
                        BaselineRole::Downloader => EktaRole::Downloader,
                        BaselineRole::Router => EktaRole::Router,
                    };
                    Box::new(EktaPeer::new(
                        id,
                        role,
                        self.spec.clone(),
                        members.clone(),
                        EktaConfig,
                    ))
                }
            };
            let node = world.add_node(spec.mobility.into_mobility(), stack);
            if spec.role == BaselineRole::Downloader {
                downloaders.push(node);
            }
        }

        BaselineScenario {
            world,
            downloaders,
            protocol: self.protocol,
        }
    }
}

/// A built baseline swarm.
pub struct BaselineScenario {
    /// The simulator.
    pub world: World,
    /// Downloader node ids, in insertion order.
    pub downloaders: Vec<NodeId>,
    /// Which stack the nodes run.
    pub protocol: BaselineProtocol,
}

impl BaselineScenario {
    /// Whether `node` holds every piece.
    pub fn completed(&self, node: NodeId) -> bool {
        match self.protocol {
            BaselineProtocol::Bithoc => self
                .world
                .stack::<BithocPeer>(node)
                .is_some_and(|p| p.is_complete()),
            BaselineProtocol::Ekta => self
                .world
                .stack::<EktaPeer>(node)
                .is_some_and(|p| p.is_complete()),
        }
    }

    /// Whether every downloader completed.
    pub fn all_complete(&self) -> bool {
        self.downloaders.iter().all(|&d| self.completed(d))
    }

    /// When `node` completed, if it did.
    pub fn completed_at(&self, node: NodeId) -> Option<SimTime> {
        match self.protocol {
            BaselineProtocol::Bithoc => self
                .world
                .stack::<BithocPeer>(node)
                .and_then(|p| p.completed_at()),
            BaselineProtocol::Ekta => self
                .world
                .stack::<EktaPeer>(node)
                .and_then(|p| p.completed_at()),
        }
    }

    /// Runs until every downloader finished or `deadline`. Returns whether
    /// all finished.
    pub fn run_until_complete(&mut self, deadline: SimTime) -> bool {
        let downloaders = self.downloaders.clone();
        let protocol = self.protocol;
        self.world.run_until_cond(deadline, |w| {
            downloaders.iter().all(|&d| match protocol {
                BaselineProtocol::Bithoc => {
                    w.stack::<BithocPeer>(d).is_some_and(|p| p.is_complete())
                }
                BaselineProtocol::Ekta => w.stack::<EktaPeer>(d).is_some_and(|p| p.is_complete()),
            })
        })
    }

    /// Runs until `deadline` unconditionally.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.world.run_until(deadline);
    }
}
