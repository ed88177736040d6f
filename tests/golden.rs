//! Pinned default-profile trace fingerprints.
//!
//! Every constant below was recorded at commit `ff140d1`, the last tree that
//! still carried a second implementation per layer (heap queue, brute-force
//! receiver scan, per-receiver delivery events, eager decode, re-encoding
//! relay). On that tree the mode-equivalence suites proved each of these
//! cells bit-identical across every mode; the engine now has one path per
//! layer, and these constants are what holds that path to the same traces.
//!
//! `tests/sched.rs` and `tests/hotpath.rs` include this file as a module and
//! check their own matrices against the same table.
//!
//! A failing assertion prints the observed rows in source form, so a change
//! that moves traces on purpose re-pins by pasting them here — and says so
//! in its description.

use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;
use std::any::Any;

/// `(tx_frames, delivered, channel_losses, collision_drops,
/// delivered_payload_bytes)` of a finished run.
pub type Counters = (u64, u64, u64, u64, u64);

/// One pinned DAPES scenario cell.
pub struct Cell {
    pub topology: Topology,
    pub seed: u64,
    pub faults: &'static [FaultProfile],
    pub counters: Counters,
    /// Downloader completion times in microseconds, in insertion order.
    pub completions_us: &'static [u64],
}

const PAIR: Topology = Topology::AdjacentPair;
const CHAIN_1: Topology = Topology::Chain { relays: 1 };
const CHAIN_2: Topology = Topology::Chain { relays: 2 };
const STAR_3: Topology = Topology::Star { downloaders: 3 };
const FERRY: Topology = Topology::PartitionedFerry;
const SWARM: Topology = Topology::MobileSwarm {
    downloaders: 2,
    forwarders: 2,
};

/// The fault-plan cell: the first downloader crashes mid-transfer and
/// resumes from salvage, the second is partitioned away and healed.
const FAULTS: &[FaultProfile] = &[
    FaultProfile::CrashRestartDownloader {
        index: 0,
        crash: SimTime::from_micros(150_000),
        restart: SimTime::from_secs(3),
    },
    FaultProfile::IsolateDownloader {
        index: 1,
        cut: SimTime::from_micros(100_000),
        heal: SimTime::from_secs(5),
    },
];

const fn cell(
    topology: Topology,
    seed: u64,
    counters: Counters,
    completions_us: &'static [u64],
) -> Cell {
    Cell {
        topology,
        seed,
        faults: &[],
        counters,
        completions_us,
    }
}

/// The matrices of `tests/sched.rs` (3 topologies × seeds 1, 3, plus the
/// ferry) and `tests/hotpath.rs` (the same topologies × seeds 1, 2, 3, plus
/// its mobility cells), and one fault-plan cell.
pub const CELLS: &[Cell] = &[
    cell(PAIR, 1, (16, 16, 0, 0, 5826), &[228405]),
    cell(PAIR, 2, (18, 16, 0, 2, 5737), &[732833]),
    cell(PAIR, 3, (15, 15, 0, 0, 5685), &[932048]),
    cell(CHAIN_1, 1, (35, 50, 0, 0, 18553), &[247349]),
    cell(CHAIN_1, 2, (61, 81, 0, 2, 25463), &[4044161]),
    cell(CHAIN_1, 3, (33, 47, 0, 0, 18400), &[953761]),
    cell(STAR_3, 1, (35, 105, 0, 0, 24408), &[218672, 218672, 218672]),
    cell(STAR_3, 2, (40, 117, 0, 0, 34623), &[126144, 126144, 126144]),
    cell(STAR_3, 3, (42, 120, 0, 6, 43659), &[929026, 929026, 929026]),
    cell(FERRY, 1, (173, 138, 0, 0, 25154), &[225852, 110634999]),
    cell(CHAIN_2, 5, (53, 82, 0, 0, 33472), &[896051]),
    cell(SWARM, 2, (119, 153, 0, 0, 58581), &[126125574, 102837075]),
    Cell {
        topology: STAR_3,
        seed: 1,
        faults: FAULTS,
        counters: (87, 152, 0, 6, 60270),
        completions_us: &[3126328, 5534567, 231512],
    },
];

fn counters_of(s: &Stats) -> Counters {
    (
        s.tx_frames,
        s.delivered,
        s.channel_losses,
        s.collision_drops,
        s.delivered_payload_bytes,
    )
}

/// Runs every selected cell on the default profile and asserts its pinned
/// fingerprint (and, independently, the golden invariants).
pub fn assert_cells(select: impl Fn(&Cell) -> bool) {
    let mut moved = Vec::new();
    for c in CELLS.iter().filter(|c| select(c)) {
        let params = MatrixParams {
            faults: c.faults.to_vec(),
            ..MatrixParams::default()
        };
        let mut sc = c.topology.build(c.seed, &params);
        sc.run_until_complete(c.topology.deadline_with_faults(c.faults));
        let faulted = if c.faults.is_empty() { "" } else { "+faults" };
        let label = format!("{}/seed-{}{faulted}", c.topology.label(), c.seed);
        assert_scenario(&label, &sc, &GoldenMetrics::default());
        let counters = counters_of(sc.world.stats());
        let completions: Vec<u64> = sc
            .completion_times()
            .into_iter()
            .map(|t| t.expect("golden invariants require completion").as_micros())
            .collect();
        if counters != c.counters || completions != c.completions_us {
            moved.push(format!("{label}: {counters:?}, &{completions:?}"));
        }
    }
    assert!(
        moved.is_empty(),
        "default-profile traces moved; observed rows:\n{}",
        moved.join("\n")
    );
}

#[test]
fn scenario_cells_match_their_pinned_fingerprints() {
    assert_cells(|_| true);
}

/// The netsim `chatter` world: twelve beaconing nodes, alternately
/// stationary and random-direction mobile, at 10 % loss — no protocol stack,
/// so it isolates queue order, receiver selection and delivery fan-out.
#[derive(Debug)]
struct Chatter {
    beacons: u32,
    interval_ms: u64,
}

impl NetStack for Chatter {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(self.interval_ms), 1);
    }
    fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: &Frame) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
        ctx.send_frame(vec![0xAB; 100], FrameKind(9), 0, SimDuration::ZERO);
        self.beacons -= 1;
        if self.beacons > 0 {
            ctx.set_timer(SimDuration::from_millis(self.interval_ms), 1);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Chatter fingerprint: [`Counters`] plus `partition_drops` and
/// `stale_events_suppressed`, which only the fault plan moves off zero.
type ChatterTrace = (Counters, u64, u64);

fn chatter_trace(seed: u64, faulted: bool) -> ChatterTrace {
    let mut w = World::new(WorldConfig {
        seed,
        ..WorldConfig::default()
    });
    for i in 0..12u32 {
        let p = Point::new(25.0 * i as f64, 10.0 * (i % 3) as f64);
        let mobility: Box<dyn Mobility> = if i % 2 == 0 {
            Box::new(Stationary::new(p))
        } else {
            Box::new(RandomDirection::new(p))
        };
        w.add_node(
            mobility,
            Box::new(Chatter {
                beacons: 20,
                interval_ms: 7 + i as u64,
            }),
        );
    }
    if faulted {
        // Crash + restart, late join, permanent leave and a group partition.
        w.set_stack_factory(Box::new(|node, _wreck| {
            Box::new(Chatter {
                beacons: 20,
                interval_ms: 7 + node.0 as u64,
            })
        }));
        w.set_fault_plan(
            FaultPlan::new()
                .join_at(SimTime::from_secs(2), NodeId(11))
                .crash_at(SimTime::from_secs(5), NodeId(3))
                .partition(
                    SimTime::from_secs(8),
                    SimTime::from_secs(15),
                    [NodeId(0), NodeId(1), NodeId(2)],
                    [NodeId(3), NodeId(4), NodeId(5)],
                )
                .restart_at(SimTime::from_secs(12), NodeId(3))
                .leave_at(SimTime::from_secs(20), NodeId(9)),
        );
    }
    w.run_until(SimTime::from_secs(30));
    let s = w.stats();
    (counters_of(s), s.partition_drops, s.stale_events_suppressed)
}

/// `(seed, plain, with the fault plan)`.
const CHATTER: &[(u64, ChatterTrace, ChatterTrace)] = &[
    (
        1,
        ((240, 530, 58, 252, 53000), 0, 0),
        ((260, 576, 62, 222, 57600), 0, 0),
    ),
    (
        7,
        ((240, 519, 69, 252, 51900), 0, 0),
        ((260, 562, 76, 222, 56200), 40, 0),
    ),
    (
        99,
        ((240, 524, 64, 252, 52400), 0, 0),
        ((260, 532, 66, 222, 53200), 40, 0),
    ),
];

#[test]
fn chatter_world_matches_its_pinned_fingerprints() {
    let observed: Vec<_> = CHATTER
        .iter()
        .map(|&(seed, ..)| (seed, chatter_trace(seed, false), chatter_trace(seed, true)))
        .collect();
    assert_eq!(observed, CHATTER, "netsim chatter traces moved");
}
