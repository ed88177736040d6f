//! Pinned trace fingerprints for the Bithoc and Ekta baselines.
//!
//! Each row holds one swarm, run to completion, to the exact frame counts,
//! event count, per-kind transmissions and per-downloader completion times it
//! produced when the row was recorded. A change to a baseline that is meant
//! to be trace-identical (a faster `refill`, a cheaper sweep) must leave
//! every row as it is; one that moves traces on purpose re-pins by pasting
//! the observed rows the failing assertion prints — and says so.

use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;
use std::mem::discriminant;

/// The swarm a row runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell {
    /// Seed, one router and a downloader two hops out, plus a downloader
    /// next to the seed; 5 % loss.
    Chain,
    /// A downloader next to the seed and one that starts out of everyone's
    /// range and is carried in at 20–30 s: until then its lookups and route
    /// discoveries go unanswered and back off.
    LateArrival,
}

/// `(tx_frames, delivered, collision_drops, channel_losses,
/// event_dispatches)` of a finished run.
type Counters = (u64, u64, u64, u64, u64);

struct Pin {
    protocol: Protocol,
    cell: Cell,
    seed: u64,
    counters: Counters,
    /// `Stats::tx_by_kind`, ascending by kind.
    tx_by_kind: &'static [(u16, u64)],
    /// Downloader completion times in microseconds, in insertion order.
    completions_us: &'static [u64],
}

const DEADLINE: SimTime = SimTime::from_secs(600);

fn build(protocol: &Protocol, cell: Cell, seed: u64) -> Scenario {
    // Four files of twelve 1 KiB pieces: enough that both request windows
    // (Bithoc 4, Ekta 8) fill, and Ekta looks up more than one file.
    let b = ScenarioBuilder::new(seed)
        .protocol(protocol.clone())
        .collection(4, 12 * 1024)
        .producer_at(0.0, 0.0);
    match cell {
        Cell::Chain => b
            .loss(0.05)
            .relay_at(50.0, 0.0)
            .downloader_at(100.0, 0.0)
            .downloader_at(20.0, 0.0),
        Cell::LateArrival => b.downloader_at(30.0, 0.0).peer(
            PeerRole::Downloader,
            MobilityPreset::Ferry {
                from: Point::new(250.0, 0.0),
                to: Point::new(40.0, 20.0),
                depart: SimTime::from_secs(20),
                travel: SimDuration::from_secs(10),
            },
        ),
    }
    .build()
}

const BITHOC: Protocol = Protocol::Bithoc;
const EKTA: Protocol = Protocol::Ekta;

/// Recorded on the tree before `refill` learned to return early.
const PINS: &[Pin] = &[
    Pin {
        protocol: BITHOC,
        cell: Cell::Chain,
        seed: 1,
        counters: (513, 1002, 13, 52, 2349),
        tx_by_kind: &[(20, 24), (21, 18), (22, 315), (23, 156)],
        completions_us: &[6535759, 2832633],
    },
    Pin {
        protocol: BITHOC,
        cell: Cell::Chain,
        seed: 2,
        counters: (515, 1021, 4, 54, 2347),
        tx_by_kind: &[(20, 26), (21, 15), (22, 314), (23, 160)],
        completions_us: &[6624060, 2615653],
    },
    Pin {
        protocol: BITHOC,
        cell: Cell::Chain,
        seed: 3,
        counters: (519, 1001, 15, 61, 2407),
        tx_by_kind: &[(20, 27), (21, 16), (22, 321), (23, 155)],
        completions_us: &[7536609, 2724783],
    },
    Pin {
        protocol: BITHOC,
        cell: Cell::LateArrival,
        seed: 1,
        counters: (399, 427, 2, 0, 2526),
        tx_by_kind: &[(20, 49), (21, 63), (22, 190), (23, 97)],
        completions_us: &[1919177, 28014264],
    },
    Pin {
        protocol: BITHOC,
        cell: Cell::LateArrival,
        seed: 2,
        counters: (428, 577, 4, 0, 2745),
        tx_by_kind: &[(20, 58), (21, 81), (22, 192), (23, 97)],
        completions_us: &[1285143, 31022761],
    },
    Pin {
        protocol: BITHOC,
        cell: Cell::LateArrival,
        seed: 3,
        counters: (402, 431, 4, 0, 2550),
        tx_by_kind: &[(20, 48), (21, 64), (22, 193), (23, 97)],
        completions_us: &[2728371, 28723094],
    },
    Pin {
        protocol: EKTA,
        cell: Cell::Chain,
        seed: 1,
        counters: (520, 1053, 18, 60, 4582),
        tx_by_kind: &[(24, 20), (25, 13), (27, 102), (28, 212), (29, 173)],
        completions_us: &[31523895, 61763288],
    },
    Pin {
        protocol: EKTA,
        cell: Cell::Chain,
        seed: 2,
        counters: (570, 1134, 47, 65, 4790),
        tx_by_kind: &[(24, 18), (25, 11), (27, 118), (28, 255), (29, 168)],
        completions_us: &[31345039, 60925244],
    },
    Pin {
        protocol: EKTA,
        cell: Cell::Chain,
        seed: 3,
        counters: (463, 895, 32, 52, 3161),
        tx_by_kind: &[(24, 9), (25, 6), (27, 79), (28, 207), (29, 162)],
        completions_us: &[31341118, 13030217],
    },
    Pin {
        protocol: EKTA,
        cell: Cell::LateArrival,
        seed: 1,
        counters: (275, 406, 8, 0, 3915),
        tx_by_kind: &[(24, 23), (25, 7), (27, 46), (28, 101), (29, 98)],
        completions_us: &[13032451, 92204530],
    },
    Pin {
        protocol: EKTA,
        cell: Cell::LateArrival,
        seed: 2,
        counters: (262, 377, 14, 0, 2937),
        tx_by_kind: &[(24, 17), (25, 4), (27, 40), (28, 102), (29, 99)],
        completions_us: &[12933104, 61033269],
    },
    Pin {
        protocol: EKTA,
        cell: Cell::LateArrival,
        seed: 3,
        counters: (261, 394, 0, 0, 2902),
        tx_by_kind: &[(24, 20), (25, 5), (27, 44), (28, 96), (29, 96)],
        completions_us: &[12252853, 60296598],
    },
];

/// What a row records, observed on a fresh run.
#[derive(PartialEq, Eq)]
struct Trace {
    counters: Counters,
    tx_by_kind: Vec<(u16, u64)>,
    completions_us: Vec<u64>,
}

fn observe(protocol: &Protocol, cell: Cell, seed: u64) -> Trace {
    let mut sw = build(protocol, cell, seed);
    sw.run_until_complete(DEADLINE);
    let s = sw.world.stats();
    Trace {
        counters: (
            s.tx_frames,
            s.delivered,
            s.collision_drops,
            s.channel_losses,
            s.event_dispatches,
        ),
        tx_by_kind: s.tx_by_kind.iter().map(|(k, &n)| (k.0, n)).collect(),
        completions_us: sw
            .downloaders
            .iter()
            .map(|&d| {
                sw.completed_at(d)
                    .unwrap_or_else(|| {
                        panic!("{protocol:?}/{cell:?}/seed-{seed}: {d:?} incomplete")
                    })
                    .as_micros()
            })
            .collect(),
    }
}

/// Runs every cell × seed of `protocol` and asserts its pinned row.
fn assert_pins(protocol: Protocol) {
    let name = match protocol {
        Protocol::Bithoc => "BITHOC",
        Protocol::Ekta => "EKTA",
        Protocol::Dapes(_) => unreachable!("the pins hold baselines only"),
    };
    let mut rows = Vec::new();
    let mut moved = false;
    for cell in [Cell::Chain, Cell::LateArrival] {
        for seed in [1, 2, 3] {
            let t = observe(&protocol, cell, seed);
            let same_protocol = |p: &Pin| discriminant(&p.protocol) == discriminant(&protocol);
            let pinned = PINS
                .iter()
                .find(|p| same_protocol(p) && p.cell == cell && p.seed == seed)
                .map(|p| Trace {
                    counters: p.counters,
                    tx_by_kind: p.tx_by_kind.to_vec(),
                    completions_us: p.completions_us.to_vec(),
                });
            moved |= pinned.as_ref() != Some(&t);
            rows.push(format!(
                "    Pin {{\n        protocol: {name},\n        cell: Cell::{cell:?},\n        \
                 seed: {seed},\n        counters: {:?},\n        tx_by_kind: &{:?},\n        \
                 completions_us: &{:?},\n    }},",
                t.counters, t.tx_by_kind, t.completions_us
            ));
        }
    }
    assert!(
        !moved,
        "{protocol:?} traces moved; observed rows:\n{}",
        rows.join("\n")
    );
}

#[test]
fn bithoc_traces_match_their_pins() {
    assert_pins(BITHOC);
}

#[test]
fn ekta_traces_match_their_pins() {
    assert_pins(EKTA);
}
