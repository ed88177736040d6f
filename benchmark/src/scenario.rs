//! The paper's simulation scenario (§VI-B1), owned by the benchmark.
//!
//! A 300 m × 300 m field: 4 stationary repositories (the first seeds the
//! collection, the others download it), 20 mobile downloaders, 10
//! intermediate nodes that speak the protocol but want nothing, and 10 pure
//! forwarders, all mobile ones on `RandomDirection`. The baselines see the
//! same placement with the 20 non-downloading mobiles as plain routers.
//!
//! This is a copy of the builder in `dapes-bench`, which ROADMAP item 1 will
//! rewrite; the benchmark must not move when that happens.

use crate::trace::{Boundary, Traced, Tracer};
use dapes_baselines::prelude::{
    BithocConfig, BithocPeer, BithocRole, EktaConfig, EktaPeer, EktaRole, SwarmSpec,
};
use dapes_core::collection::FileSpec;
use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_ndn::name::Name;
use dapes_netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Collection names are this prefix plus a ten-digit number made from the
/// seed, so every seed shares name lengths (and so frame sizes) but not
/// packet contents.
pub const COLLECTION_PREFIX: &str = "/damaged-bridge-";

const FIELD: f64 = 300.0;
const STATIONARY: usize = 4;
const MOBILE_DOWNLOADERS: usize = 20;
const INTERMEDIATES: usize = 10;
const PURE_FORWARDERS: usize = 10;

/// Which protocol stack populates the swarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// DAPES, default configuration.
    Dapes,
    /// The Bithoc baseline (DSDV + HELLO floods + TCP-lite).
    Bithoc,
    /// The Ekta baseline (DSR + DHT + UDP).
    Ekta,
}

/// The knobs the workloads vary; node counts and field are the paper's.
#[derive(Clone, Copy, Debug)]
pub struct PaperParams {
    /// Radio range in metres.
    pub range: f64,
    /// Files in the collection.
    pub n_files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Packet payload size.
    pub packet_size: usize,
    /// Cap on simulated seconds.
    pub max_sim_s: u64,
    /// Seeds everything the system under test draws (MAC back-off,
    /// protocol jitter, start packets) and names the collection.
    pub seed: u64,
    /// Which placement and mobility trace the nodes walk. Traces are part
    /// of the workload, not of the seed: a download time depends on who
    /// meets whom far more than on anything the protocol draws (±35 % per
    /// trial across traces against ±10 % across seeds), and no affordable
    /// number of trials would average that out.
    pub trace: u64,
}

/// A populated world, ready for its first `run_until`.
pub struct PaperWorld {
    /// The simulator.
    pub world: World,
    /// Which stacks it holds.
    pub protocol: Protocol,
    /// Nodes whose download is measured: every stationary node but the
    /// seed, then the mobile downloaders.
    pub downloaders: Vec<NodeId>,
    /// Host seconds spent in `Collection::build` (zero for the baselines,
    /// which learn the layout out of band).
    pub collection_build_s: f64,
    /// The collection's name.
    pub collection_uri: String,
    max_sim: SimTime,
}

/// What one trial produced.
#[derive(Clone, Debug)]
pub struct PaperOutcome {
    /// Completion time of each measured downloader, `None` when unfinished
    /// at the cap.
    pub completed_at_s: Vec<Option<f64>>,
    /// The cap, which unfinished downloads are counted at.
    pub cap_s: f64,
    /// `run_until` calls made.
    pub run_until_calls: u64,
    /// Peak of `World::live_state_bytes`, sampled every 5 simulated seconds.
    pub live_state_bytes_peak: usize,
    /// Host seconds from the first `run_until` to the end of the last.
    pub wall_s: f64,
}

impl PaperOutcome {
    /// Mean completion time, unfinished downloads counted at the cap (the
    /// paper's Fig. 10a statistic).
    pub fn download_time_s(&self) -> f64 {
        let sum: f64 = self
            .completed_at_s
            .iter()
            .map(|t| t.unwrap_or(self.cap_s))
            .sum();
        sum / self.completed_at_s.len().max(1) as f64
    }

    /// When the last downloader finished (the cap if any did not).
    pub fn swarm_complete_s(&self) -> f64 {
        self.completed_at_s
            .iter()
            .map(|t| t.unwrap_or(self.cap_s))
            .fold(0.0, f64::max)
    }

    /// Downloads not complete at the cap.
    pub fn failed(&self) -> usize {
        self.completed_at_s.iter().filter(|t| t.is_none()).count()
    }
}

fn stationary_positions() -> [Point; STATIONARY] {
    [
        Point::new(75.0, 75.0),
        Point::new(225.0, 75.0),
        Point::new(75.0, 225.0),
        Point::new(225.0, 225.0),
    ]
}

/// `RandomDirection` drawing its headings from a stream of its own instead
/// of the world's, so a node's path does not depend on how many MAC
/// back-offs the protocols happened to draw before each turn.
#[derive(Debug)]
struct OwnStream {
    inner: RandomDirection,
    rng: SmallRng,
}

impl Mobility for OwnStream {
    fn position(&self, now: SimTime) -> Point {
        self.inner.position(now)
    }

    fn next_change(&self) -> Option<SimTime> {
        self.inner.next_change()
    }

    fn on_change(&mut self, now: SimTime, _world_rng: &mut SmallRng, field: (f64, f64)) {
        self.inner.on_change(now, &mut self.rng, field);
    }
}

fn random_walker(rng: &mut SmallRng) -> Box<dyn Mobility> {
    let p = Point::new(rng.gen_range(0.0..FIELD), rng.gen_range(0.0..FIELD));
    Box::new(OwnStream {
        inner: RandomDirection::new(p),
        rng: SmallRng::seed_from_u64(rng.gen()),
    })
}

/// Builds the scenario. Every stack goes in through a [`Traced`] wrapper.
pub fn build(protocol: Protocol, params: &PaperParams, tracer: &Arc<Tracer>) -> PaperWorld {
    let mut world = World::new(WorldConfig {
        field: (FIELD, FIELD),
        range: params.range,
        seed: params.seed,
        exec: ExecProfile::default(),
        ..WorldConfig::default()
    });
    let mut placement = SmallRng::seed_from_u64(params.trace ^ 0x9e37_79b9_7f4a_7c15);
    let mut downloaders = Vec::with_capacity(STATIONARY - 1 + MOBILE_DOWNLOADERS);
    let mut collection_build_s = 0.0;
    let collection_uri = format!(
        "{COLLECTION_PREFIX}{}",
        1_533_783_192 + params.seed % 1_000_000_000
    );

    match protocol {
        Protocol::Dapes => {
            let cfg = DapesConfig::default();
            let anchor = TrustAnchor::from_seed(b"rural-area-anchor");
            let name = Name::from_uri(&collection_uri);
            let t = Instant::now();
            let built = Arc::new(Collection::build(CollectionSpec {
                name: name.clone(),
                files: (0..params.n_files)
                    .map(|i| FileSpec::new(format!("file-{i}"), params.file_size))
                    .collect(),
                packet_size: params.packet_size,
                format: cfg.metadata_format,
                producer: "resident-a".into(),
            }));
            collection_build_s = t.elapsed().as_secs_f64();
            let want = WantPolicy::Collections(vec![name]);
            let add = |world: &mut World, mobility: Box<dyn Mobility>, peer: DapesPeer| {
                world.add_node(mobility, Traced::boxed(peer, tracer))
            };
            for (i, pos) in stationary_positions().into_iter().enumerate() {
                let mobility = Box::new(Stationary::new(pos));
                if i == 0 {
                    let mut seed =
                        DapesPeer::new(0, cfg.clone(), anchor.clone(), WantPolicy::Nothing);
                    seed.add_production(built.clone());
                    add(&mut world, mobility, seed);
                } else {
                    let peer = DapesPeer::new(i as u32, cfg.clone(), anchor.clone(), want.clone());
                    downloaders.push(add(&mut world, mobility, peer));
                }
            }
            let mut id = STATIONARY as u32;
            for _ in 0..MOBILE_DOWNLOADERS {
                let peer = DapesPeer::new(id, cfg.clone(), anchor.clone(), want.clone());
                downloaders.push(add(&mut world, random_walker(&mut placement), peer));
                id += 1;
            }
            for _ in 0..INTERMEDIATES {
                let peer = DapesPeer::new(id, cfg.clone(), anchor.clone(), WantPolicy::Nothing);
                add(&mut world, random_walker(&mut placement), peer);
                id += 1;
            }
            for _ in 0..PURE_FORWARDERS {
                let peer = DapesPeer::pure_forwarder(id, cfg.clone(), anchor.clone());
                add(&mut world, random_walker(&mut placement), peer);
                id += 1;
            }
        }
        Protocol::Bithoc | Protocol::Ekta => {
            let pieces_per_file = params.file_size.div_ceil(params.packet_size);
            let spec = SwarmSpec {
                total_pieces: params.n_files * pieces_per_file,
                pieces_per_file,
                piece_size: params.packet_size,
            };
            // Ekta's DHT members are the swarm participants: seed and
            // downloaders.
            let members: Vec<u32> = (0..(STATIONARY + MOBILE_DOWNLOADERS) as u32).collect();
            let mut next_id = 0u32;
            let mut add = |world: &mut World,
                           mobility: Box<dyn Mobility>,
                           brole: BithocRole,
                           erole: EktaRole| {
                let id = next_id;
                next_id += 1;
                if protocol == Protocol::Bithoc {
                    let peer = BithocPeer::new(id, brole, spec.clone(), BithocConfig::default());
                    world.add_node(mobility, Traced::boxed(peer, tracer))
                } else {
                    let peer = EktaPeer::new(
                        id,
                        erole,
                        spec.clone(),
                        members.clone(),
                        EktaConfig::default(),
                    );
                    world.add_node(mobility, Traced::boxed(peer, tracer))
                }
            };
            for (i, pos) in stationary_positions().into_iter().enumerate() {
                let mobility = Box::new(Stationary::new(pos));
                if i == 0 {
                    add(&mut world, mobility, BithocRole::Seed, EktaRole::Seed);
                } else {
                    downloaders.push(add(
                        &mut world,
                        mobility,
                        BithocRole::Downloader,
                        EktaRole::Downloader,
                    ));
                }
            }
            for _ in 0..MOBILE_DOWNLOADERS {
                downloaders.push(add(
                    &mut world,
                    random_walker(&mut placement),
                    BithocRole::Downloader,
                    EktaRole::Downloader,
                ));
            }
            for _ in 0..(INTERMEDIATES + PURE_FORWARDERS) {
                add(
                    &mut world,
                    random_walker(&mut placement),
                    BithocRole::Router,
                    EktaRole::Router,
                );
            }
        }
    }

    PaperWorld {
        world,
        protocol,
        downloaders,
        collection_build_s,
        collection_uri,
        max_sim: SimTime::from_secs(params.max_sim_s),
    }
}

impl PaperWorld {
    fn completed_at(&self, node: NodeId) -> Option<SimTime> {
        match self.protocol {
            Protocol::Dapes => self
                .world
                .stack::<DapesPeer>(node)
                .and_then(|p| p.completed_at()),
            Protocol::Bithoc => self
                .world
                .stack::<BithocPeer>(node)
                .and_then(|p| p.completed_at()),
            Protocol::Ekta => self
                .world
                .stack::<EktaPeer>(node)
                .and_then(|p| p.completed_at()),
        }
    }

    /// Runs in 5-second simulated steps until every downloader finished or
    /// the cap, sampling live protocol state at each step.
    pub fn run(&mut self, tracer: &Tracer) -> PaperOutcome {
        let step = SimDuration::from_secs(5);
        let mut now = SimTime::ZERO;
        let mut run_until_calls = 0u64;
        let mut live_state_bytes_peak = 0usize;
        let start = Instant::now();
        loop {
            now = (now + step).min(self.max_sim);
            let span = tracer.begin(Boundary::RunUntil);
            self.world.run_until(now);
            tracer.end(span, Boundary::RunUntil, FrameKind(0));
            run_until_calls += 1;
            live_state_bytes_peak = live_state_bytes_peak.max(self.world.live_state_bytes());
            let all_done = self
                .downloaders
                .iter()
                .all(|&n| self.completed_at(n).is_some());
            if all_done || now >= self.max_sim {
                break;
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        PaperOutcome {
            completed_at_s: self
                .downloaders
                .iter()
                .map(|&n| self.completed_at(n).map(|t| t.as_secs_f64()))
                .collect(),
            cap_s: self.max_sim.as_secs_f64(),
            run_until_calls,
            live_state_bytes_peak,
            wall_s,
        }
    }
}
