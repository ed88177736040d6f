//! The scenario matrix: topologies × seeds, with per-cell invariant checks.
//!
//! Each cell builds a deterministic scenario from a named [`Topology`] and a
//! seed, runs it to its deadline and asserts the golden invariants
//! (completion, signature hygiene, frame classification). The matrix is how
//! the test suites claim coverage over *scenario diversity* rather than a
//! single hand-tuned setup.

use crate::golden::{assert_scenario, GoldenMetrics};
use crate::scenario::{
    CollectionParams, FaultProfile, MobilityPreset, PeerRole, Scenario, ScenarioBuilder,
};
use dapes_core::prelude::*;
use dapes_netsim::prelude::*;

/// A named node layout, parameterized over the radio range so geometry
/// scales with the world it is dropped into.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// Producer and one downloader within a third of the radio range.
    AdjacentPair,
    /// A line: producer, `relays` DAPES intermediates spaced at 85 % of
    /// range, downloader at the far end. Forwarding probability is forced
    /// to 1.0 so relaying is deterministic.
    Chain {
        /// Intermediate DAPES nodes between producer and downloader.
        relays: usize,
    },
    /// One producer surrounded by `downloaders` peers, all in range.
    Star {
        /// Downloaders placed on the circle.
        downloaders: usize,
    },
    /// Two segments beyond radio reach; a ferry dwells at the producer,
    /// then carries the collection across (paper Fig. 8a).
    PartitionedFerry,
    /// A mobile swarm: one stationary producer, random-walking downloaders
    /// and pure forwarders (paper §VI-B1 in miniature).
    MobileSwarm {
        /// Random-walking downloaders.
        downloaders: usize,
        /// Random-walking pure forwarders.
        forwarders: usize,
    },
}

impl Topology {
    /// A short label for assertion messages.
    pub fn label(&self) -> String {
        match self {
            Topology::AdjacentPair => "adjacent-pair".into(),
            Topology::Chain { relays } => format!("chain-{relays}-relays"),
            Topology::Star { downloaders } => format!("star-{downloaders}"),
            Topology::PartitionedFerry => "partitioned-ferry".into(),
            Topology::MobileSwarm {
                downloaders,
                forwarders,
            } => format!("mobile-swarm-{downloaders}x{forwarders}"),
        }
    }

    /// A generous per-topology completion deadline.
    pub fn deadline(&self) -> SimTime {
        match self {
            Topology::AdjacentPair => SimTime::from_secs(180),
            Topology::Chain { relays } => SimTime::from_secs(300 + 120 * *relays as u64),
            Topology::Star { .. } => SimTime::from_secs(300),
            Topology::PartitionedFerry => SimTime::from_secs(600),
            Topology::MobileSwarm { .. } => SimTime::from_secs(1500),
        }
    }

    /// The completion deadline with a fault axis applied: the base deadline
    /// plus the time until the last fault event, so a cell has as long to
    /// recover as it had to transfer.
    pub fn deadline_with_faults(&self, faults: &[FaultProfile]) -> SimTime {
        let last = faults
            .iter()
            .map(FaultProfile::last_event)
            .max()
            .unwrap_or(SimTime::ZERO);
        SimTime::from_micros(self.deadline().as_micros() + last.as_micros())
    }

    /// Builds the scenario for one `(topology, seed)` cell.
    pub fn build(&self, seed: u64, params: &MatrixParams) -> Scenario {
        let r = params.range;
        let mut base = ScenarioBuilder::new(seed)
            .range(r)
            .loss(params.loss)
            .collection_params(params.collection.clone())
            .config(params.config.clone());
        // Attackers sit near the topology's hub, in radio range of the
        // producer. They are instantiated after every honest peer, so the
        // honest layout is unchanged by the adversarial axis.
        let hub = match *self {
            Topology::MobileSwarm { .. } => (150.0, 150.0),
            _ => (0.0, 0.0),
        };
        for &kind in &params.adversaries {
            base = base.adversary_at(kind, hub.0 + r / 4.0, hub.1 + r / 6.0);
        }
        base = base.faults(params.faults.iter().cloned());
        let builder = match *self {
            Topology::AdjacentPair => base.producer_at(0.0, 0.0).downloader_at(r / 3.0, 0.0),
            Topology::Chain { relays } => {
                let spacing = 0.85 * r;
                // The paper forwards with p = 0.2 by default; a chain test
                // needs the relay decision to be deterministic.
                let mut cfg = params.config.clone();
                cfg.forward_prob = 1.0;
                let mut b = base.config(cfg).producer_at(0.0, 0.0);
                for i in 0..relays {
                    b = b.relay_at(spacing * (i + 1) as f64, 0.0);
                }
                b.downloader_at(spacing * (relays + 1) as f64, 0.0)
            }
            Topology::Star { downloaders } => {
                let mut b = base.producer_at(0.0, 0.0);
                let radius = r / 3.0;
                for i in 0..downloaders {
                    let theta = std::f64::consts::TAU * i as f64 / downloaders as f64;
                    b = b.downloader_at(radius * theta.cos(), radius * theta.sin());
                }
                b
            }
            Topology::PartitionedFerry => {
                let far = 5.0 * r;
                base.producer_at(0.0, 0.0)
                    .peer(
                        PeerRole::Downloader,
                        MobilityPreset::Ferry {
                            from: Point::new(r / 6.0, 0.0),
                            to: Point::new(far - r / 6.0, 0.0),
                            depart: SimTime::from_secs(60),
                            travel: SimDuration::from_secs(60),
                        },
                    )
                    .downloader_at(far, 0.0)
            }
            Topology::MobileSwarm {
                downloaders,
                forwarders,
            } => base
                .producer_at(150.0, 150.0)
                .mobile_downloaders(downloaders)
                .mobile_pure_forwarders(forwarders),
        };
        builder.build()
    }
}

/// Knobs shared by every cell of a matrix run.
#[derive(Clone, Debug)]
pub struct MatrixParams {
    /// Radio range in metres.
    pub range: f64,
    /// Bernoulli frame loss.
    pub loss: f64,
    /// The collection every cell shares.
    pub collection: CollectionParams,
    /// The DAPES configuration (topologies may override single knobs).
    pub config: DapesConfig,
    /// Attacker nodes dropped into every cell (the adversarial axis).
    /// Each is placed near the topology's hub, in radio range of the
    /// producer; empty means a benign matrix.
    pub adversaries: Vec<AdversaryKind>,
    /// Fault profiles applied to every cell (the churn axis): crash/restart,
    /// permanent departure or partition-and-heal of role-relative nodes.
    /// Cell deadlines extend by the last fault instant; empty means a
    /// fault-free matrix.
    pub faults: Vec<FaultProfile>,
}

impl Default for MatrixParams {
    fn default() -> Self {
        MatrixParams {
            range: 60.0,
            loss: 0.0,
            collection: CollectionParams::default(),
            config: DapesConfig::default(),
            adversaries: Vec::new(),
            faults: Vec::new(),
        }
    }
}

/// Outcome of one `(topology, seed)` cell.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Which topology ran.
    pub topology: Topology,
    /// The world seed.
    pub seed: u64,
    /// Downloaders that finished before the deadline.
    pub completed: usize,
    /// Downloaders measured.
    pub downloaders: usize,
    /// Completion time of the slowest downloader, when all finished.
    pub finished_at: Option<SimTime>,
    /// Frames on the air over the whole run.
    pub tx_frames: u64,
    /// Control-overhead ratio at the end of the run.
    pub overhead_ratio: f64,
}

/// Sweeps topologies × seeds, asserting golden invariants per cell.
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    topologies: Vec<Topology>,
    seeds: Vec<u64>,
    params: MatrixParams,
    golden: GoldenMetrics,
    check_determinism: bool,
}

impl Default for ScenarioMatrix {
    /// Three topologies × three seeds — the harness's smoke matrix.
    fn default() -> Self {
        ScenarioMatrix {
            topologies: vec![
                Topology::AdjacentPair,
                Topology::Chain { relays: 1 },
                Topology::Star { downloaders: 3 },
            ],
            seeds: vec![1, 2, 3],
            params: MatrixParams::default(),
            golden: GoldenMetrics::default(),
            check_determinism: false,
        }
    }
}

impl ScenarioMatrix {
    /// The default smoke matrix.
    pub fn new() -> Self {
        ScenarioMatrix::default()
    }

    /// Replaces the topology axis.
    pub fn topologies<I: IntoIterator<Item = Topology>>(mut self, t: I) -> Self {
        self.topologies = t.into_iter().collect();
        self
    }

    /// Replaces the seed axis.
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, s: I) -> Self {
        self.seeds = s.into_iter().collect();
        self
    }

    /// Replaces the shared cell parameters.
    pub fn params(mut self, p: MatrixParams) -> Self {
        self.params = p;
        self
    }

    /// Replaces the per-cell golden expectations.
    pub fn golden(mut self, g: GoldenMetrics) -> Self {
        self.golden = g;
        self
    }

    /// Re-runs every cell and asserts bit-identical frame counts and
    /// completion times (costly: doubles the run time).
    pub fn check_determinism(mut self, check: bool) -> Self {
        self.check_determinism = check;
        self
    }

    /// Runs one cell to its deadline and checks invariants.
    pub fn run_cell(&self, topology: Topology, seed: u64) -> MatrixCell {
        let label = format!("{}/seed-{seed}", topology.label());
        let deadline = topology.deadline_with_faults(&self.params.faults);
        let run = || {
            let mut sc = topology.build(seed, &self.params);
            sc.run_until_complete(deadline);
            sc
        };
        let sc = run();
        if self.check_determinism {
            let sc2 = run();
            assert_eq!(
                sc.world.stats().tx_frames,
                sc2.world.stats().tx_frames,
                "[{label}] same seed, different frame count"
            );
            assert_eq!(
                sc.completion_times(),
                sc2.completion_times(),
                "[{label}] same seed, different completion times"
            );
        }
        assert_scenario(&label, &sc, &self.golden);
        let times = sc.completion_times();
        MatrixCell {
            topology,
            seed,
            completed: times.iter().filter(|t| t.is_some()).count(),
            downloaders: sc.downloaders.len(),
            finished_at: times
                .iter()
                .copied()
                .collect::<Option<Vec<_>>>()
                .and_then(|v| v.into_iter().max()),
            tx_frames: sc.world.stats().tx_frames,
            overhead_ratio: crate::golden::overhead_ratio(sc.world.stats()),
        }
    }

    /// Runs the full matrix, returning one cell outcome per combination.
    pub fn run(&self) -> Vec<MatrixCell> {
        let mut cells = Vec::with_capacity(self.topologies.len() * self.seeds.len());
        for &topology in &self.topologies {
            for &seed in &self.seeds {
                cells.push(self.run_cell(topology, seed));
            }
        }
        cells
    }
}
