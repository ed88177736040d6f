//! The paper's simulation scenario (§VI-B1), parameterized.
//!
//! Topology: a 300 m × 300 m field with 4 stationary nodes (repositories)
//! and 40 mobile nodes (random direction, 2–10 m/s). One stationary node
//! seeds the collection; the remaining 3 stationary and 20 mobile nodes
//! download it; 10 mobile nodes are pure forwarders and 10 are intermediate
//! nodes that understand the protocol's semantics (DAPES) or plain routers
//! (baselines).

use dapes_baselines::prelude::{
    BithocConfig, BithocPeer, BithocRole, EktaConfig, EktaPeer, EktaRole, SwarmSpec,
};
use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which protocol stack populates the swarm.
#[derive(Clone, Debug)]
pub enum Protocol {
    /// DAPES with the given configuration.
    Dapes(Box<DapesConfig>),
    /// The Bithoc baseline (DSDV + HELLO floods + TCP-lite).
    Bithoc,
    /// The Ekta baseline (DSR + DHT + UDP).
    Ekta,
}

/// Scenario parameters (defaults follow the paper).
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// Radio range in metres.
    pub range: f64,
    /// Files in the collection.
    pub n_files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Packet/piece payload size.
    pub packet_size: usize,
    /// RNG seed (one per trial).
    pub seed: u64,
    /// Hard cap on simulated time.
    pub max_sim: SimTime,
    /// Stationary nodes (first one seeds).
    pub stationary: usize,
    /// Mobile downloaders.
    pub mobile_downloaders: usize,
    /// Intermediate protocol-aware nodes (DAPES) / routers (baselines).
    pub intermediates: usize,
    /// Pure forwarders (DAPES) / routers (baselines).
    pub pure_forwarders: usize,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            range: 60.0,
            n_files: 10,
            file_size: 1_000_000,
            packet_size: 1024,
            seed: 1,
            max_sim: SimTime::from_secs(4_000),
            stationary: 4,
            mobile_downloaders: 20,
            intermediates: 10,
            pure_forwarders: 10,
        }
    }
}

impl ScenarioParams {
    /// Total nodes in the world.
    pub fn total_nodes(&self) -> usize {
        self.stationary + self.mobile_downloaders + self.intermediates + self.pure_forwarders
    }

    /// Number of nodes whose download time is measured.
    pub fn downloader_count(&self) -> usize {
        // All stationary nodes except the seed, plus the mobile downloaders.
        self.stationary.saturating_sub(1) + self.mobile_downloaders
    }
}

/// Outcome of one simulated trial.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Mean download completion time over the measured downloaders, in
    /// seconds; incomplete downloads count as the simulation cap.
    pub avg_download_time_s: f64,
    /// Downloaders that finished within the cap.
    pub completed: usize,
    /// Downloaders measured.
    pub downloaders: usize,
    /// Total frames transmitted by all nodes.
    pub transmissions: u64,
    /// Transmissions by protocol frame kind.
    pub tx_by_kind: BTreeMap<u16, u64>,
    /// Fraction of forwarded Interests that brought data back (DAPES only).
    pub forward_accuracy: Option<f64>,
    /// Peak observed live protocol state in bytes (Table I memory proxy).
    pub memory_bytes: usize,
    /// Event dispatches (Table I context-switch proxy).
    pub event_dispatches: u64,
    /// Layer-boundary API calls (Table I system-call proxy).
    pub api_calls: u64,
    /// State-table insertions (Table I page-fault proxy).
    pub state_inserts: u64,
}

fn stationary_positions(n: usize) -> Vec<Point> {
    // Spread repositories over the field interior.
    let spots = [
        Point::new(75.0, 75.0),
        Point::new(225.0, 75.0),
        Point::new(75.0, 225.0),
        Point::new(225.0, 225.0),
        Point::new(150.0, 150.0),
    ];
    (0..n).map(|i| spots[i % spots.len()]).collect()
}

fn random_point(rng: &mut SmallRng) -> Point {
    Point::new(rng.gen_range(0.0..300.0), rng.gen_range(0.0..300.0))
}

/// Runs one trial of the paper's scenario and collects the metrics.
pub fn run_trial(protocol: &Protocol, params: &ScenarioParams) -> TrialResult {
    let mut world = World::new(WorldConfig {
        range: params.range,
        seed: params.seed,
        ..WorldConfig::default()
    });
    let mut placement_rng = SmallRng::seed_from_u64(params.seed ^ 0x9e3779b97f4a7c15);

    let collection_name = "/damaged-bridge-1533783192";
    let anchor = TrustAnchor::from_seed(b"rural-area-anchor");

    let stationary = stationary_positions(params.stationary);
    let mut downloader_nodes: Vec<NodeId> = Vec::new();

    match protocol {
        Protocol::Dapes(cfg) => {
            let collection = Arc::new(Collection::build(CollectionSpec {
                name: dapes_ndn::name::Name::from_uri(collection_name),
                files: (0..params.n_files)
                    .map(|i| {
                        dapes_core::collection::FileSpec::new(format!("file-{i}"), params.file_size)
                    })
                    .collect(),
                packet_size: params.packet_size,
                format: cfg.metadata_format,
                producer: "resident-a".into(),
            }));
            let want =
                WantPolicy::Collections(vec![dapes_ndn::name::Name::from_uri(collection_name)]);
            let mut next_id = 0u32;
            // Stationary: node 0 seeds, the rest download.
            for (i, pos) in stationary.iter().enumerate() {
                let mut peer = if i == 0 {
                    DapesPeer::new(
                        next_id,
                        (**cfg).clone(),
                        anchor.clone(),
                        WantPolicy::Nothing,
                    )
                } else {
                    DapesPeer::new(next_id, (**cfg).clone(), anchor.clone(), want.clone())
                };
                if i == 0 {
                    peer.add_production(collection.clone());
                }
                let id = world.add_node(Box::new(Stationary::new(*pos)), Box::new(peer));
                if i != 0 {
                    downloader_nodes.push(id);
                }
                next_id += 1;
            }
            // Mobile downloaders.
            for _ in 0..params.mobile_downloaders {
                let peer = DapesPeer::new(next_id, (**cfg).clone(), anchor.clone(), want.clone());
                let id = world.add_node(
                    Box::new(RandomDirection::new(random_point(&mut placement_rng))),
                    Box::new(peer),
                );
                downloader_nodes.push(id);
                next_id += 1;
            }
            // Intermediate DAPES nodes.
            for _ in 0..params.intermediates {
                let peer = DapesPeer::new(
                    next_id,
                    (**cfg).clone(),
                    anchor.clone(),
                    WantPolicy::Nothing,
                );
                world.add_node(
                    Box::new(RandomDirection::new(random_point(&mut placement_rng))),
                    Box::new(peer),
                );
                next_id += 1;
            }
            // Pure forwarders.
            for _ in 0..params.pure_forwarders {
                let peer = DapesPeer::pure_forwarder(next_id, (**cfg).clone(), anchor.clone());
                world.add_node(
                    Box::new(RandomDirection::new(random_point(&mut placement_rng))),
                    Box::new(peer),
                );
                next_id += 1;
            }
        }
        Protocol::Bithoc | Protocol::Ekta => {
            let total_pieces = params.n_files * params.file_size.div_ceil(params.packet_size);
            let spec = SwarmSpec {
                total_pieces,
                pieces_per_file: params.file_size.div_ceil(params.packet_size),
                piece_size: params.packet_size,
            };
            let is_bithoc = matches!(protocol, Protocol::Bithoc);
            // For Ekta, DHT members = all swarm participants (seed + downloaders).
            let member_count = params.stationary + params.mobile_downloaders;
            let members: Vec<u32> = (0..member_count as u32).collect();
            let mut next_id = 0u32;
            let add = |world: &mut World,
                       mobility: Box<dyn Mobility>,
                       brole: BithocRole,
                       erole: EktaRole,
                       next_id: &mut u32| {
                let id = if is_bithoc {
                    world.add_node(
                        mobility,
                        Box::new(BithocPeer::new(*next_id, brole, spec.clone(), BithocConfig)),
                    )
                } else {
                    world.add_node(
                        mobility,
                        Box::new(EktaPeer::new(
                            *next_id,
                            erole,
                            spec.clone(),
                            members.clone(),
                            EktaConfig,
                        )),
                    )
                };
                *next_id += 1;
                id
            };
            for (i, pos) in stationary.iter().enumerate() {
                let (brole, erole) = if i == 0 {
                    (BithocRole::Seed, EktaRole::Seed)
                } else {
                    (BithocRole::Downloader, EktaRole::Downloader)
                };
                let id = add(
                    &mut world,
                    Box::new(Stationary::new(*pos)),
                    brole,
                    erole,
                    &mut next_id,
                );
                if i != 0 {
                    downloader_nodes.push(id);
                }
            }
            for _ in 0..params.mobile_downloaders {
                let id = add(
                    &mut world,
                    Box::new(RandomDirection::new(random_point(&mut placement_rng))),
                    BithocRole::Downloader,
                    EktaRole::Downloader,
                    &mut next_id,
                );
                downloader_nodes.push(id);
            }
            for _ in 0..(params.intermediates + params.pure_forwarders) {
                add(
                    &mut world,
                    Box::new(RandomDirection::new(random_point(&mut placement_rng))),
                    BithocRole::Router,
                    EktaRole::Router,
                    &mut next_id,
                );
            }
        }
    }

    // Run until every downloader finished (or the cap), sampling memory.
    let mut memory_peak = 0usize;
    let step = SimDuration::from_secs(5);
    let mut now = SimTime::ZERO;
    let all_done = |world: &World, nodes: &[NodeId], protocol: &Protocol| -> bool {
        nodes.iter().all(|&n| match protocol {
            Protocol::Dapes(_) => world
                .stack::<DapesPeer>(n)
                .is_some_and(|p| p.downloads_complete()),
            Protocol::Bithoc => world
                .stack::<BithocPeer>(n)
                .is_some_and(|p| p.is_complete()),
            Protocol::Ekta => world.stack::<EktaPeer>(n).is_some_and(|p| p.is_complete()),
        })
    };
    loop {
        now = (now + step).min(params.max_sim);
        world.run_until(now);
        memory_peak = memory_peak.max(world.live_state_bytes());
        if all_done(&world, &downloader_nodes, protocol) || now >= params.max_sim {
            break;
        }
    }

    // Collect completion times.
    let cap_s = params.max_sim.as_secs_f64();
    let mut completed = 0usize;
    let mut sum_time = 0.0f64;
    let mut fwd_success = 0u64;
    let mut fwd_total = 0u64;
    for &n in &downloader_nodes {
        let t = match protocol {
            Protocol::Dapes(_) => world.stack::<DapesPeer>(n).and_then(|p| p.completed_at()),
            Protocol::Bithoc => world.stack::<BithocPeer>(n).and_then(|p| p.completed_at()),
            Protocol::Ekta => world.stack::<EktaPeer>(n).and_then(|p| p.completed_at()),
        };
        match t {
            Some(t) => {
                completed += 1;
                sum_time += t.as_secs_f64();
            }
            None => sum_time += cap_s,
        }
    }
    if let Protocol::Dapes(_) = protocol {
        for i in 0..world.node_count() {
            if let Some(p) = world.stack::<DapesPeer>(NodeId(i as u32)) {
                let (s, f) = p.forward_counts();
                fwd_success += s;
                fwd_total += s + f;
            }
        }
    }

    let stats = world.stats();
    TrialResult {
        avg_download_time_s: sum_time / downloader_nodes.len().max(1) as f64,
        completed,
        downloaders: downloader_nodes.len(),
        transmissions: stats.tx_frames,
        tx_by_kind: stats.tx_by_kind.iter().map(|(k, v)| (k.0, *v)).collect(),
        forward_accuracy: if fwd_total > 0 {
            Some(fwd_success as f64 / fwd_total as f64)
        } else {
            None
        },
        memory_bytes: memory_peak,
        event_dispatches: stats.event_dispatches,
        api_calls: stats.api_calls,
        state_inserts: stats.state_inserts,
    }
}

/// Runs `trials` seeded trials and reports the 90th percentile of the mean
/// download time and of the transmission count (the paper reports the 90th
/// percentile over ten trials).
pub fn run_trials(protocol: &Protocol, base: &ScenarioParams, trials: usize) -> Summary {
    let mut results = Vec::with_capacity(trials);
    for t in 0..trials {
        let mut p = base.clone();
        p.seed = base.seed + t as u64 * 7919;
        results.push(run_trial(protocol, &p));
    }
    Summary::from_results(results)
}

/// Aggregated trial results.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Per-trial raw results.
    pub trials: Vec<TrialResult>,
    /// 90th percentile of per-trial mean download time (seconds).
    pub p90_download_time_s: f64,
    /// 90th percentile of per-trial transmissions.
    pub p90_transmissions: u64,
    /// Mean forwarding accuracy across trials reporting one.
    pub forward_accuracy: Option<f64>,
}

impl Summary {
    /// Builds the summary from raw trials.
    pub fn from_results(trials: Vec<TrialResult>) -> Self {
        let p90_download_time_s =
            percentile(trials.iter().map(|t| t.avg_download_time_s).collect(), 0.90);
        let p90_transmissions = percentile(
            trials.iter().map(|t| t.transmissions as f64).collect(),
            0.90,
        ) as u64;
        let accs: Vec<f64> = trials.iter().filter_map(|t| t.forward_accuracy).collect();
        let forward_accuracy = if accs.is_empty() {
            None
        } else {
            Some(accs.iter().sum::<f64>() / accs.len() as f64)
        };
        Summary {
            trials,
            p90_download_time_s,
            p90_transmissions,
            forward_accuracy,
        }
    }
}

/// Nearest-rank percentile of `values` (q in `[0, 1]`).
pub fn percentile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params(seed: u64) -> ScenarioParams {
        ScenarioParams {
            range: 80.0,
            n_files: 1,
            file_size: 4 * 1024,
            packet_size: 1024,
            seed,
            max_sim: SimTime::from_secs(1500),
            stationary: 2,
            mobile_downloaders: 2,
            intermediates: 1,
            pure_forwarders: 1,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(percentile(v.clone(), 0.90), 9.0);
        assert_eq!(percentile(v, 0.5), 5.0);
        assert_eq!(percentile(vec![3.0], 0.9), 3.0);
        assert_eq!(percentile(vec![], 0.9), 0.0);
    }

    #[test]
    fn dapes_tiny_scenario_completes() {
        let r = run_trial(&Protocol::Dapes(Box::default()), &tiny_params(11));
        assert_eq!(r.downloaders, 3);
        assert!(
            r.completed >= 2,
            "expected most downloaders to finish, got {}/{}",
            r.completed,
            r.downloaders
        );
        assert!(r.transmissions > 0);
        assert!(r.memory_bytes > 0);
    }

    #[test]
    fn bithoc_tiny_scenario_completes() {
        let r = run_trial(&Protocol::Bithoc, &tiny_params(12));
        assert!(
            r.completed >= 2,
            "bithoc: {}/{} complete",
            r.completed,
            r.downloaders
        );
    }

    #[test]
    fn ekta_tiny_scenario_completes() {
        let r = run_trial(&Protocol::Ekta, &tiny_params(13));
        assert!(
            r.completed >= 2,
            "ekta: {}/{} complete",
            r.completed,
            r.downloaders
        );
    }

    #[test]
    fn trials_are_deterministic() {
        let p = tiny_params(14);
        let a = run_trial(&Protocol::Dapes(Box::default()), &p);
        let b = run_trial(&Protocol::Dapes(Box::default()), &p);
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.avg_download_time_s, b.avg_download_time_s);
    }
}
