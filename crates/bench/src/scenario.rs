//! The paper's simulation scenario (§VI-B1), parameterized.
//!
//! Topology: a 300 m × 300 m field with 4 stationary nodes (repositories)
//! and 40 mobile nodes (random direction, 2–10 m/s). One stationary node
//! seeds the collection; the remaining 3 stationary and 20 mobile nodes
//! download it; 10 mobile nodes are pure forwarders and 10 are intermediate
//! nodes that understand the protocol's semantics (DAPES) or plain routers
//! (baselines). The world is built by `dapes-testutil`'s
//! [`ScenarioBuilder::paper_swarm`], so every protocol runs on the same
//! placement and the same collection.

use dapes_core::prelude::*;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// The collection every node shares.
    pub fn collection(&self) -> CollectionParams {
        CollectionParams {
            files: self.n_files,
            file_size: self.file_size,
            packet_size: self.packet_size,
            ..CollectionParams::default()
        }
    }

    /// The scenario every [`run_trial`] of these parameters runs under
    /// `protocol`, built but not yet run.
    pub fn scenario(&self, protocol: &Protocol) -> Scenario {
        let format = match protocol {
            Protocol::Dapes(cfg) => cfg.metadata_format,
            Protocol::Bithoc | Protocol::Ekta => MetadataFormat::MerkleRoots,
        };
        ScenarioBuilder::new(self.seed)
            .protocol(protocol.clone())
            .range(self.range)
            .anchor(paper_anchor())
            .collection_params(CollectionParams {
                format,
                ..self.collection()
            })
            .paper_swarm(
                self.stationary,
                self.mobile_downloaders,
                self.intermediates,
                self.pure_forwarders,
            )
            .build()
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
    /// Fraction of forwarded Interests that brought data back (DAPES only).
    pub forward_accuracy: Option<f64>,
    /// Peak observed live protocol state in bytes (Table I memory proxy).
    pub memory_bytes: usize,
}

/// Runs one trial of the paper's scenario, stepping 5 s at a time until
/// every downloader finished or the cap, and collects the metrics.
pub fn run_trial(protocol: &Protocol, params: &ScenarioParams) -> TrialResult {
    let mut sc = params.scenario(protocol);
    let run = sc.run_sampled(SimDuration::from_secs(5), params.max_sim);

    let cap_s = params.max_sim.as_secs_f64();
    let times = &run.completion_times;
    let sum_time: f64 = times
        .iter()
        .map(|t| t.map_or(cap_s, SimTime::as_secs_f64))
        .sum();
    let (mut fwd_success, mut fwd_total) = (0u64, 0u64);
    for i in 0..sc.world.node_count() {
        if let Some(p) = sc.peer(NodeId(i as u32)) {
            let (s, f) = p.forward_counts();
            fwd_success += s;
            fwd_total += s + f;
        }
    }
    TrialResult {
        avg_download_time_s: sum_time / times.len().max(1) as f64,
        completed: times.iter().flatten().count(),
        downloaders: times.len(),
        transmissions: sc.world.stats().tx_frames,
        forward_accuracy: (fwd_total > 0).then(|| fwd_success as f64 / fwd_total as f64),
        memory_bytes: run.peak_state_bytes,
    }
}

/// Runs `trials` seeded trials and reports the 90th percentile of the mean
/// download time and of the transmission count (the paper reports the 90th
/// percentile over ten trials). Trials run on up to
/// [`std::thread::available_parallelism`] threads at once; each is a pure
/// function of its seed, and the results keep seed order.
pub fn run_trials(protocol: &Protocol, base: &ScenarioParams, trials: usize) -> Summary {
    let params: Vec<ScenarioParams> = (0..trials)
        .map(|t| ScenarioParams {
            seed: base.seed + t as u64 * 7919,
            ..base.clone()
        })
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, TrialResult)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(trials))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = params.get(t) else {
                            return done;
                        };
                        done.push((t, run_trial(protocol, p)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a trial panicked"))
            .collect()
    });
    results.sort_by_key(|&(t, _)| t);
    Summary::from_results(results.into_iter().map(|(_, r)| r).collect())
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

    /// `run_trial`'s output on the tiny cell, one row per protocol: a change
    /// to how the scenario world is built or stepped must leave every row.
    #[test]
    fn tiny_trials_match_their_pins() {
        // (transmissions, avg_download_time_s bits, memory_bytes, completed)
        type Row = (u64, u64, usize, usize);
        let pins: [(Protocol, u64, Row); 3] = [
            (
                Protocol::Dapes(Box::default()),
                11,
                (552, 4639578618856925047, 25346, 3),
            ),
            (Protocol::Bithoc, 12, (422, 4630638399176535889, 720, 3)),
            (Protocol::Ekta, 13, (315, 4646394339247507000, 448, 3)),
        ];
        for (protocol, seed, pinned) in pins {
            let r = run_trial(&protocol, &tiny_params(seed));
            let observed = (
                r.transmissions,
                r.avg_download_time_s.to_bits(),
                r.memory_bytes,
                r.completed,
            );
            assert_eq!(observed, pinned, "{protocol:?} seed {seed} moved");
        }
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
