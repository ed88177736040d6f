//! The four workloads, and what one repetition of each measures.
//!
//! A batch simulator has no open or closed loop: each workload is a fixed
//! input and the throughput statement is "host seconds for this input". One
//! repetition runs in its own process (so `VmHWM` is that repetition's
//! peak), on one thread, with `ExecProfile::default()` and `cores = 1`.

use crate::metrics::{DAPES_KINDS, PER_LAYER};
use crate::relay::{self, RelayStack};
use crate::sample;
use crate::scenario::{self, PaperParams, Protocol};
use crate::trace::{Boundary, Total, Traced, Tracer};
use dapes_baselines::prelude::{BithocPeer, EktaPeer};
use dapes_core::prelude::*;
use dapes_core::stats::kinds;
use dapes_ndn::name::Name;
use dapes_netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A workload. Names are permanent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §VI-B at 60 m range: bulk fetch with heavy overhearing.
    PaperDense,
    /// §VI-B at 20 m range: intermittent encounters.
    PaperSparse,
    /// §VI-B under Bithoc, then Ekta: the control for `core`/`ndn`/`crypto`.
    PaperBaselines,
    /// Stationary advert/beacon swarm over one real `Forwarder` per node.
    RelaySwarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperDense,
        Workload::PaperSparse,
        Workload::PaperBaselines,
        Workload::RelaySwarm,
    ];

    /// The permanent name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDense => "paper-dense",
            Workload::PaperSparse => "paper-sparse",
            Workload::PaperBaselines => "paper-baselines",
            Workload::RelaySwarm => "relay-swarm",
        }
    }

    /// Parses a name; anything else is an error, never a default.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperDense => {
                "paper scenario (44 nodes, 300 m field) at 60 m range, 10 x 30 kB, 5 mobility traces: bulk fetch with heavy overhearing, where core content-Data handling, crypto and ndn decode do the work"
            }
            Workload::PaperSparse => {
                "same scenario at 20 m range, 8 traces: intermittent encounters, timers outnumber frames and a third of Interests are retransmissions, so discovery, retx and timer costs show"
            }
            Workload::PaperBaselines => {
                "same scenario under Bithoc then Ekta (1 x 100 kB, 8 traces each): only netsim and baselines run, so a core/ndn/crypto change predicts no movement here"
            }
            Workload::RelaySwarm => {
                "1200 stationary nodes flooding 3-hop adverts over one real Forwarder each: netsim (queue, grid, MAC, batched delivery) and the ndn peek/relay fast path do the work, core and crypto none"
            }
        }
    }
}

/// Full scale is what `BENCHMARK.json` runs; quick keeps the structure at
/// about a second per workload for the self-tests and CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the committed numbers are for.
    Full,
    /// Self-test scale; reports are stamped and never compared with full.
    Quick,
}

impl Scale {
    /// The label stamped into reports.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }
}

/// What one repetition produced.
pub struct RepOutput {
    /// Every end-to-end metric, in table order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric in table order when traced, empty otherwise.
    pub per_layer: Vec<(&'static str, f64)>,
    /// FNV-1a over the simulated statistics; equal for equal seeds, traced
    /// or not.
    pub sim_fingerprint: u64,
    /// Operations attempted: downloads, or adverts on `relay-swarm`.
    pub attempted: u64,
    /// Operations failed: downloads incomplete at the cap, or adverts never
    /// acknowledged.
    pub failed: u64,
    /// Correctness-gate failures; empty when the run is correct.
    pub gate_failures: Vec<String>,
    last_traced: Option<(String, Arc<Tracer>)>,
}

impl RepOutput {
    /// The Chrome trace of the last world the repetition ran, when traced.
    /// Rendered on demand: a trace is tens of megabytes of text.
    pub fn chrome_trace(&self) -> Option<String> {
        self.last_traced
            .as_ref()
            .map(|(label, tracer)| tracer.chrome_trace(label))
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Sums over every world a repetition runs.
#[derive(Default)]
struct Acc {
    wall_s: f64,
    setup_s: f64,
    collection_build_s: f64,
    /// The simulator's counters, merged over the worlds.
    stats: Stats,
    timer_slots_allocated: usize,
    run_until_calls: u64,
    live_state_bytes_peak: usize,
    boundaries: [Total; Boundary::ALL.len()],
    frame_secs_by_kind: BTreeMap<FrameKind, f64>,
    spans: u64,
    frames: Vec<(FrameKind, Payload)>,
    /// The last traced world's label and tracer, for the Chrome trace.
    last_traced: Option<(String, Arc<Tracer>)>,
    /// Completion time of every operation, failed ones at the cap.
    op_times_s: Vec<f64>,
    /// When the last operation of each world completed.
    world_complete_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    fingerprint: Fnv,
    gate: Vec<String>,
    peers: PeerStats,
    forward_successes: u64,
    forward_failures: u64,
    full_decodes: u64,
}

impl Acc {
    fn boundary(&self, b: Boundary) -> Total {
        self.boundaries[b as usize]
    }

    /// Host seconds inside stack callbacks.
    fn callbacks_s(&self) -> f64 {
        [
            Boundary::OnStart,
            Boundary::OnFrame,
            Boundary::OnTimer,
            Boundary::OnTxDone,
        ]
        .iter()
        .map(|&b| self.boundary(b).secs)
        .sum()
    }

    /// Folds one finished world in: simulator counters, the frame-accounting
    /// gate, the tracer's totals and samples, and the fingerprint.
    fn absorb_world(&mut self, label: &str, world: &World, tracer: &Arc<Tracer>) {
        let s = world.stats();
        self.stats.merge(s);
        self.timer_slots_allocated = self
            .timer_slots_allocated
            .max(world.timer_slots_allocated());

        let tx_by_kind: u64 = s.tx_by_kind.values().sum();
        if tx_by_kind != s.tx_frames {
            self.gate.push(format!(
                "{label}: sum(tx_by_kind) {tx_by_kind} != tx_frames {}",
                s.tx_frames
            ));
        }
        let delivered_by_kind: u64 = s.delivered_by_kind.values().sum();
        if delivered_by_kind != s.delivered {
            self.gate.push(format!(
                "{label}: sum(delivered_by_kind) {delivered_by_kind} != delivered {}",
                s.delivered
            ));
        }
        if tracer.on_frame_calls() != s.delivered {
            self.gate.push(format!(
                "{label}: wrapper saw {} on_frame calls, Stats.delivered is {}",
                tracer.on_frame_calls(),
                s.delivered
            ));
        }

        for v in [
            s.tx_frames,
            s.delivered,
            s.collision_drops,
            s.channel_losses,
            s.event_dispatches,
        ] {
            self.fingerprint.add(v);
        }
        for (kind, n) in &s.tx_by_kind {
            self.fingerprint.add(u64::from(kind.0));
            self.fingerprint.add(*n);
        }

        if tracer.enabled() {
            for (slot, b) in self.boundaries.iter_mut().zip(Boundary::ALL) {
                let t = tracer.total(b);
                slot.secs += t.secs;
                slot.calls += t.calls;
            }
            for (kind, delivered) in &s.delivered_by_kind {
                *self.frame_secs_by_kind.entry(*kind).or_insert(0.0) +=
                    tracer.frame_secs(*kind, *delivered);
            }
            self.spans += tracer.span_count();
            self.frames.extend(tracer.frames());
            self.last_traced = Some((label.to_owned(), tracer.clone()));
        }
    }

    fn record_ops(&mut self, times_s: &[Option<f64>], cap_s: f64) {
        self.attempted += times_s.len() as u64;
        self.failed += times_s.iter().filter(|t| t.is_none()).count() as u64;
        self.op_times_s
            .extend(times_s.iter().map(|t| t.unwrap_or(cap_s)));
        self.world_complete_s.push(
            times_s
                .iter()
                .map(|t| t.unwrap_or(cap_s))
                .fold(0.0, f64::max),
        );
        for t in times_s {
            self.fingerprint
                .add(t.map_or(u64::MAX, |t| (t * 1e6).round() as u64));
        }
    }

    fn download_time_s(&self) -> f64 {
        self.op_times_s.iter().sum::<f64>() / self.op_times_s.len().max(1) as f64
    }

    /// Mean over the worlds run of when each world's last operation
    /// completed.
    fn swarm_complete_s(&self) -> f64 {
        self.world_complete_s.iter().sum::<f64>() / self.world_complete_s.len().max(1) as f64
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sizes of a paper workload.
struct PaperSize {
    range: f64,
    n_files: usize,
    file_size: usize,
    max_sim_s: u64,
    /// Trials per repetition. Trial `k` always walks mobility trace `k` and
    /// draws everything else from `seed + 7919 k`.
    trials: u64,
}

const PACKET_SIZE: usize = 1024;

fn paper_size(workload: Workload, scale: Scale) -> PaperSize {
    match (workload, scale) {
        (Workload::PaperDense, Scale::Full) => PaperSize {
            range: 60.0,
            n_files: 10,
            file_size: 30_000,
            max_sim_s: 4_000,
            trials: 5,
        },
        (Workload::PaperDense, Scale::Quick) => PaperSize {
            range: 60.0,
            n_files: 2,
            file_size: 20_000,
            max_sim_s: 4_000,
            trials: 2,
        },
        (Workload::PaperSparse, Scale::Full) => PaperSize {
            range: 20.0,
            n_files: 10,
            file_size: 30_000,
            max_sim_s: 4_000,
            trials: 8,
        },
        (Workload::PaperSparse, Scale::Quick) => PaperSize {
            range: 20.0,
            n_files: 2,
            file_size: 10_000,
            max_sim_s: 4_000,
            trials: 2,
        },
        (Workload::PaperBaselines, Scale::Full) => PaperSize {
            range: 60.0,
            n_files: 1,
            file_size: 100_000,
            max_sim_s: 10_000,
            trials: 8,
        },
        (Workload::PaperBaselines, Scale::Quick) => PaperSize {
            range: 60.0,
            n_files: 1,
            file_size: 10_000,
            max_sim_s: 10_000,
            trials: 1,
        },
        (Workload::RelaySwarm, _) => unreachable!("relay-swarm is not a paper workload"),
    }
}

/// Runs `size.trials` worlds of one protocol into `acc` and returns what
/// they added.
fn run_paper(
    acc: &mut Acc,
    protocol: Protocol,
    size: &PaperSize,
    seed: u64,
    traced: bool,
    setup_from: &mut Instant,
) -> ProtocolSplit {
    let first_op = acc.op_times_s.len();
    let before = ProtocolSplit::of(acc, first_op);
    for k in 0..size.trials {
        let tracer = Tracer::new(traced, protocol == Protocol::Dapes);
        let params = PaperParams {
            range: size.range,
            n_files: size.n_files,
            file_size: size.file_size,
            packet_size: PACKET_SIZE,
            max_sim_s: size.max_sim_s,
            seed: seed.wrapping_add(7919 * k),
            trace: k,
        };
        let label = format!("{protocol:?} trial {k}");
        let mut pw = scenario::build(protocol, &params, &tracer);
        acc.setup_s += setup_from.elapsed().as_secs_f64();
        acc.collection_build_s += pw.collection_build_s;

        let outcome = pw.run(&tracer);
        acc.wall_s += outcome.wall_s;
        acc.run_until_calls += outcome.run_until_calls;
        acc.live_state_bytes_peak = acc.live_state_bytes_peak.max(outcome.live_state_bytes_peak);
        acc.record_ops(&outcome.completed_at_s, outcome.cap_s);
        acc.absorb_world(&label, &pw.world, &tracer);

        if protocol == Protocol::Dapes {
            absorb_peers(acc, &label, &pw, &outcome.completed_at_s);
        } else {
            // A baseline peer counted complete must hold every piece.
            for (&node, done) in pw.downloaders.iter().zip(&outcome.completed_at_s) {
                let progress = match protocol {
                    Protocol::Bithoc => pw.world.stack::<BithocPeer>(node).map(|p| p.progress()),
                    _ => pw.world.stack::<EktaPeer>(node).map(|p| p.progress()),
                };
                if done.is_some() && progress != Some(1.0) {
                    acc.gate.push(format!(
                        "{label}: {node} counted complete at progress {progress:?}"
                    ));
                }
            }
        }
        // Tearing the world down is neither set-up nor measured work.
        drop(pw);
        *setup_from = Instant::now();
    }
    ProtocolSplit::of(acc, first_op).minus(&before)
}

/// Sums `PeerStats` over every DAPES node and checks that a downloader
/// counted complete holds every segment with nothing failing verification.
fn absorb_peers(acc: &mut Acc, label: &str, pw: &scenario::PaperWorld, done: &[Option<f64>]) {
    let collection = Name::from_uri(&pw.collection_uri);
    for i in 0..pw.world.node_count() {
        let Some(peer) = pw.world.stack::<DapesPeer>(NodeId(i as u32)) else {
            acc.gate
                .push(format!("{label}: node {i} is not reachable as DapesPeer"));
            continue;
        };
        let s = peer.stats();
        let p = &mut acc.peers;
        p.interests_sent += s.interests_sent;
        p.retransmissions += s.retransmissions;
        p.retx_give_ups += s.retx_give_ups;
        p.data_received += s.data_received;
        p.packets_verified += s.packets_verified;
        p.verify_failures += s.verify_failures;
        p.packets_served += s.packets_served;
        p.bitmaps_sent += s.bitmaps_sent;
        p.bitmaps_heard += s.bitmaps_heard;
        p.bitmaps_cancelled += s.bitmaps_cancelled;
        p.peba_backoffs += s.peba_backoffs;
        p.discovery_sent += s.discovery_sent;
        p.interests_forwarded += s.interests_forwarded;
        p.frames_peek_resolved += s.frames_peek_resolved;
        p.peek_cs_hits += s.peek_cs_hits;
        p.peek_dup_nonces += s.peek_dup_nonces;
        p.peek_fib_drops += s.peek_fib_drops;
        p.peek_unsolicited_data += s.peek_unsolicited_data;
        p.peek_relayed += s.peek_relayed + s.peek_relay_suppressed;
        p.frames_relay_patched += s.frames_relay_patched;
        let (ok, bad) = peer.forward_counts();
        acc.forward_successes += ok;
        acc.forward_failures += bad;
    }
    // Every frame a DAPES peer did not resolve from the header it decoded.
    acc.full_decodes = acc.stats.delivered - acc.peers.frames_peek_resolved;
    for (&node, done) in pw.downloaders.iter().zip(done) {
        if done.is_none() {
            continue;
        }
        let peer = pw.world.stack::<DapesPeer>(node).expect("checked above");
        if peer.progress(&collection) != Some(1.0) || peer.stats().verify_failures != 0 {
            acc.gate.push(format!(
                "{label}: {node} counted complete at progress {:?} with {} verify failures",
                peer.progress(&collection),
                peer.stats().verify_failures
            ));
        }
    }
}

/// Sizes of the relay swarm: the `perf_sched` dense shape at its density
/// (one node per 337 m², about 33 neighbours in range).
struct SwarmSize {
    nodes: usize,
    field: f64,
    rounds: u32,
}

fn swarm_size(scale: Scale) -> SwarmSize {
    match scale {
        Scale::Full => SwarmSize {
            nodes: 1_200,
            field: 636.0,
            rounds: 4,
        },
        Scale::Quick => SwarmSize {
            nodes: 150,
            field: 225.0,
            rounds: 2,
        },
    }
}

fn run_swarm(acc: &mut Acc, size: &SwarmSize, seed: u64, traced: bool, setup_from: Instant) {
    let tracer = Tracer::new(traced, true);
    let mut world = World::new(WorldConfig {
        field: (size.field, size.field),
        range: 60.0,
        seed,
        exec: ExecProfile::default(),
        ..WorldConfig::default()
    });
    let mut place = SmallRng::seed_from_u64(seed ^ 0x5_DEEC_E66D);
    for id in 0..size.nodes as u32 {
        let p = Point::new(
            place.gen_range(0.0..size.field),
            place.gen_range(0.0..size.field),
        );
        let stack = RelayStack::new(id, size.rounds, tracer.clone());
        world.add_node(Box::new(Stationary::new(p)), Traced::boxed(stack, &tracer));
    }
    acc.setup_s = setup_from.elapsed().as_secs_f64();

    let deadline = relay::sim_deadline(size.rounds);
    let step = SimDuration::from_millis(500);
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    while now < deadline {
        now = (now + step).min(deadline);
        let span = tracer.begin(Boundary::RunUntil);
        world.run_until(now);
        tracer.end(span, Boundary::RunUntil, FrameKind(0));
        acc.run_until_calls += 1;
        acc.live_state_bytes_peak = acc.live_state_bytes_peak.max(world.live_state_bytes());
    }
    acc.wall_s = start.elapsed().as_secs_f64();

    let (mut expressed, mut acked, mut latency_us) = (0u64, 0u64, 0u64);
    let mut last_ack = SimTime::ZERO;
    let mut resolved = 0u64;
    for id in 0..size.nodes as u32 {
        let Some(s) = world.stack::<RelayStack>(NodeId(id)) else {
            acc.gate.push(format!(
                "relay-swarm: node {id} is not reachable as RelayStack"
            ));
            continue;
        };
        expressed += s.adverts_expressed;
        acked += s.adverts_acked;
        latency_us += s.ack_latency_us;
        last_ack = last_ack.max(s.last_ack_at);
        resolved += s.peeks_resolved;
        acc.full_decodes += s.full_decodes;
        let p = &mut acc.peers;
        p.frames_peek_resolved += s.peeks_resolved;
        p.peek_cs_hits += s.peek_cs_hits;
        p.peek_dup_nonces += s.peek_dup_nonces;
        p.peek_fib_drops += s.peek_fib_drops;
        p.peek_unsolicited_data += s.peek_unsolicited_data;
        p.peek_relayed += s.peek_relayed;
        p.frames_relay_patched += s.frames_relay_patched;
    }
    acc.absorb_world("relay-swarm", &world, &tracer);
    if resolved + acc.full_decodes != acc.stats.delivered {
        acc.gate.push(format!(
            "relay-swarm: {resolved} peeked + {} decoded != {} delivered",
            acc.full_decodes, acc.stats.delivered
        ));
    }
    // An advert is the operation; one never acknowledged is charged a whole
    // advert period.
    let failed = expressed - acked;
    acc.attempted = expressed;
    acc.failed = failed;
    acc.op_times_s = vec![(latency_us as f64 / 1e6 + failed as f64) / expressed.max(1) as f64];
    acc.world_complete_s = vec![last_ack.as_secs_f64()];
    for v in [expressed, acked, latency_us, last_ack.as_micros()] {
        acc.fingerprint.add(v);
    }
}

/// Runs one repetition. `process_start` is when `main` began, so that
/// `setup_s` covers everything before the first `run_until`.
pub fn run_rep(
    workload: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    process_start: Instant,
) -> RepOutput {
    let mut setup_from = process_start;
    let mut per_protocol: Vec<(&'static str, ProtocolSplit)> = Vec::new();
    let mut acc = Acc::default();
    match workload {
        Workload::PaperDense | Workload::PaperSparse => {
            let size = paper_size(workload, scale);
            run_paper(
                &mut acc,
                Protocol::Dapes,
                &size,
                seed,
                traced,
                &mut setup_from,
            );
        }
        Workload::PaperBaselines => {
            let size = paper_size(workload, scale);
            for (protocol, label) in [(Protocol::Bithoc, "bithoc"), (Protocol::Ekta, "ekta")] {
                let split = run_paper(&mut acc, protocol, &size, seed, traced, &mut setup_from);
                per_protocol.push((label, split));
            }
        }
        Workload::RelaySwarm => run_swarm(&mut acc, &swarm_size(scale), seed, traced, setup_from),
    }

    let end_to_end = vec![
        ("wall_s", acc.wall_s),
        ("setup_s", acc.setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("download_time_s", acc.download_time_s()),
        ("swarm_complete_s", acc.swarm_complete_s()),
        ("tx_frames", acc.stats.tx_frames as f64),
        (
            "ops_done_share",
            (acc.attempted - acc.failed) as f64 / acc.attempted.max(1) as f64,
        ),
    ];
    let per_layer = if traced {
        per_layer_metrics(workload, scale, &acc, &per_protocol)
    } else {
        Vec::new()
    };
    RepOutput {
        end_to_end,
        per_layer,
        sim_fingerprint: acc.fingerprint.0,
        attempted: acc.attempted,
        failed: acc.failed,
        gate_failures: acc.gate,
        last_traced: acc.last_traced,
    }
}

/// One protocol's part of a repetition (`paper-baselines` runs two).
#[derive(Clone, Copy, Debug, Default)]
struct ProtocolSplit {
    wall_s: f64,
    on_frame_s: f64,
    on_timer_s: f64,
    download_time_s: f64,
    tx_frames: u64,
    ops_failed: u64,
}

impl ProtocolSplit {
    /// The running totals of `acc`, with the mean download time taken over
    /// the operations from `first_op` on.
    fn of(acc: &Acc, first_op: usize) -> Self {
        let ops = &acc.op_times_s[first_op..];
        ProtocolSplit {
            wall_s: acc.wall_s,
            on_frame_s: acc.boundary(Boundary::OnFrame).secs,
            on_timer_s: acc.boundary(Boundary::OnTimer).secs,
            download_time_s: ops.iter().sum::<f64>() / ops.len().max(1) as f64,
            tx_frames: acc.stats.tx_frames,
            ops_failed: acc.failed,
        }
    }

    fn minus(mut self, before: &ProtocolSplit) -> Self {
        self.wall_s -= before.wall_s;
        self.on_frame_s -= before.on_frame_s;
        self.on_timer_s -= before.on_timer_s;
        self.tx_frames -= before.tx_frames;
        self.ops_failed -= before.ops_failed;
        self
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer_metrics(
    workload: Workload,
    scale: Scale,
    acc: &Acc,
    per_protocol: &[(&'static str, ProtocolSplit)],
) -> Vec<(&'static str, f64)> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    let secs = |b: Boundary| acc.boundary(b).secs;
    let calls = |b: Boundary| acc.boundary(b).calls as f64;
    let is_dapes = matches!(workload, Workload::PaperDense | Workload::PaperSparse);
    let is_swarm = workload == Workload::RelaySwarm;

    let netsim_self_s = secs(Boundary::RunUntil) - acc.callbacks_s();
    put("netsim.self_s", netsim_self_s);
    // One batched arrival event runs every delivery of a transmission, so
    // the simulation events are the queue pops plus the deliveries.
    put(
        "netsim.self_ns_per_event",
        ratio(
            netsim_self_s * 1e9,
            (acc.stats.event_dispatches + acc.stats.delivered) as f64,
        ),
    );
    put("netsim.setup_s", acc.setup_s - acc.collection_build_s);
    put("netsim.run_until_calls", acc.run_until_calls as f64);
    put("netsim.events", acc.stats.event_dispatches as f64);
    put("netsim.arrival_events", acc.stats.arrival_events as f64);
    put("netsim.delivered", acc.stats.delivered as f64);
    put(
        "netsim.delivered_payload_bytes",
        acc.stats.delivered_payload_bytes as f64,
    );
    put("netsim.collision_drops", acc.stats.collision_drops as f64);
    put("netsim.channel_losses", acc.stats.channel_losses as f64);
    put("netsim.mac_deferrals", acc.stats.mac_deferrals as f64);
    put(
        "netsim.delivery_ratio",
        ratio(
            acc.stats.delivered as f64,
            (acc.stats.delivered + acc.stats.collision_drops + acc.stats.channel_losses) as f64,
        ),
    );
    put("netsim.cmd_pool_misses", acc.stats.cmd_pool_misses as f64);
    put(
        "netsim.timer_slots_allocated",
        acc.timer_slots_allocated as f64,
    );

    // `core` runs only where DAPES peers do; elsewhere the callbacks belong
    // to `baselines` or to the benchmark's own relay stack.
    let core = |v: f64| if is_dapes { v } else { 0.0 };
    put("core.on_start_s", core(secs(Boundary::OnStart)));
    put("core.on_frame_s", core(secs(Boundary::OnFrame)));
    put("core.on_frame_calls", core(calls(Boundary::OnFrame)));
    put("core.on_timer_s", core(secs(Boundary::OnTimer)));
    put("core.on_timer_calls", core(calls(Boundary::OnTimer)));
    put("core.on_tx_done_s", core(secs(Boundary::OnTxDone)));
    let delivered_of = |kind: FrameKind| acc.stats.delivered_for_kinds(&[kind]);
    for (kind, label) in DAPES_KINDS {
        let frame_s = acc.frame_secs_by_kind.get(&kind).copied().unwrap_or(0.0);
        put(&format!("core.frame_s.{label}"), core(frame_s));
        put(&format!("core.frames.{label}"), delivered_of(kind) as f64);
    }
    put("core.collection_build_s", acc.collection_build_s);
    let p = &acc.peers;
    put("core.interests_sent", p.interests_sent as f64);
    put("core.retransmissions", p.retransmissions as f64);
    put("core.retx_give_ups", p.retx_give_ups as f64);
    put("core.data_received", p.data_received as f64);
    put("core.packets_verified", p.packets_verified as f64);
    put("core.verify_failures", p.verify_failures as f64);
    put("core.packets_served", p.packets_served as f64);
    put("core.bitmaps_sent", p.bitmaps_sent as f64);
    put("core.bitmaps_heard", p.bitmaps_heard as f64);
    put("core.bitmaps_cancelled", p.bitmaps_cancelled as f64);
    put("core.peba_backoffs", p.peba_backoffs as f64);
    put("core.discovery_sent", p.discovery_sent as f64);
    put("core.interests_forwarded", p.interests_forwarded as f64);
    put(
        "core.useful_data_ratio",
        ratio(
            p.packets_verified as f64,
            delivered_of(kinds::CONTENT_DATA) as f64,
        ),
    );
    put(
        "core.retx_ratio",
        ratio(
            p.retransmissions as f64,
            (p.interests_sent + p.retransmissions) as f64,
        ),
    );
    put(
        "core.forward_accuracy",
        ratio(
            acc.forward_successes as f64,
            (acc.forward_successes + acc.forward_failures) as f64,
        ),
    );
    put(
        "core.live_state_bytes_peak",
        core(acc.live_state_bytes_peak as f64),
    );

    put("ndn.frames_peek_resolved", p.frames_peek_resolved as f64);
    put("ndn.peek_cs_hits", p.peek_cs_hits as f64);
    put("ndn.peek_dup_nonces", p.peek_dup_nonces as f64);
    put("ndn.peek_fib_drops", p.peek_fib_drops as f64);
    put("ndn.peek_unsolicited_data", p.peek_unsolicited_data as f64);
    put("ndn.peek_relayed", p.peek_relayed as f64);
    put("ndn.frames_relay_patched", p.frames_relay_patched as f64);
    put("ndn.full_decodes", acc.full_decodes as f64);
    let ndn_frames = if is_dapes || is_swarm {
        acc.stats.delivered as f64
    } else {
        0.0
    };
    put(
        "ndn.fast_path_share",
        ratio(p.frames_peek_resolved as f64, ndn_frames),
    );
    let costs = if is_dapes || is_swarm {
        sample::unit_costs(&acc.frames)
    } else {
        sample::UnitCosts::default()
    };
    put("ndn.peek_ns_per_frame", costs.peek_ns_per_frame);
    put("ndn.decode_ns_per_frame", costs.decode_ns_per_frame);
    put(
        "ndn.decode_s_est",
        costs.decode_ns_per_frame * acc.full_decodes as f64 / 1e9,
    );
    put("ndn.forwarder_s", secs(Boundary::Ndn));
    put("ndn.forwarder_calls", calls(Boundary::Ndn));

    put("crypto.sha256_mb_per_s", costs.sha256_mb_per_s);
    put("crypto.leaf_hash_ns_per_kib", costs.leaf_hash_ns_per_kib);
    put("crypto.hmac_ns_per_advert", costs.hmac_ns_per_advert);
    put(
        "crypto.segment_verify_s_est",
        costs.leaf_hash_ns_per_kib * (PACKET_SIZE as f64 / 1024.0) * p.packets_verified as f64
            / 1e9,
    );
    let sealed = delivered_of(kinds::DISCOVERY_DATA)
        + delivered_of(kinds::BITMAP_INTEREST)
        + delivered_of(kinds::BITMAP_DATA);
    put(
        "crypto.advert_auth_s_est",
        costs.hmac_ns_per_advert * sealed as f64 / 1e9,
    );
    let merkle_build_s = if is_dapes {
        let size = paper_size(workload, scale);
        // One collection is built per trial.
        sample::merkle_build_s(size.n_files, size.file_size, PACKET_SIZE) * size.trials as f64
    } else {
        0.0
    };
    put("crypto.merkle_build_s", merkle_build_s);

    for label in ["bithoc", "ekta"] {
        let b = per_protocol
            .iter()
            .find(|(l, _)| *l == label)
            .map_or_else(ProtocolSplit::default, |(_, b)| *b);
        put(&format!("baselines.{label}.wall_s"), b.wall_s);
        put(&format!("baselines.{label}.on_frame_s"), b.on_frame_s);
        put(&format!("baselines.{label}.on_timer_s"), b.on_timer_s);
        put(
            &format!("baselines.{label}.download_time_s"),
            b.download_time_s,
        );
        put(&format!("baselines.{label}.tx_frames"), b.tx_frames as f64);
        put(
            &format!("baselines.{label}.ops_failed"),
            b.ops_failed as f64,
        );
    }

    // The benchmark's own time inside the timed section: the driver loop
    // between `run_until` calls and, on relay-swarm, the relay stack's
    // callbacks minus the calls it makes into `ndn`.
    let relay_self_s = if is_swarm {
        acc.callbacks_s() - secs(Boundary::Ndn)
    } else {
        0.0
    };
    put(
        "loadgen.self_s",
        (acc.wall_s - secs(Boundary::RunUntil)).max(0.0) + relay_self_s,
    );
    // Filled in by the parent process, which knows the untraced median.
    put("trace.overhead_pct", 0.0);
    put("trace.spans", acc.spans as f64);

    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let value = m
                .remove(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"));
            (name, value)
        })
        .collect()
}
