//! Spatial-grid equivalence suite.
//!
//! The grid must be *invisible* to protocol behaviour: it returns the same
//! neighbors as the brute-force reference scan (`dapes-testutil`'s oracle)
//! at every instant of every scenario, and full runs reproduce the traces
//! that grid and brute-force receiver selection both produced at
//! `ff140d1`, pinned in `tests/golden.rs`.
//!
//! `golden_traces_bit_identical_across_delivery_modes` keeps a historical
//! name: there is one delivery mode now, and it holds that mode to the pins.

use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

#[path = "golden.rs"]
mod golden;

fn matrix_axes() -> (Vec<Topology>, Vec<u64>) {
    (
        vec![
            Topology::AdjacentPair,
            Topology::Chain { relays: 1 },
            Topology::Star { downloaders: 3 },
        ],
        vec![1, 2, 3],
    )
}

/// Cross-mode cells: one stationary, one scripted-mobility, one mobile-swarm
/// topology, so the grid's segment registration is exercised by every
/// mobility model.
fn mobility_axes() -> Vec<(Topology, u64)> {
    vec![
        (Topology::Chain { relays: 2 }, 5),
        (Topology::PartitionedFerry, 1),
        (
            Topology::MobileSwarm {
                downloaders: 2,
                forwarders: 2,
            },
            2,
        ),
    ]
}

#[test]
fn grid_neighbors_match_brute_force_across_matrix() {
    let (topologies, seeds) = matrix_axes();
    let params = MatrixParams::default();
    for &topology in &topologies {
        for &seed in &seeds {
            let mut sc = topology.build(seed, &params);
            // Sample neighbor queries at several instants while the
            // scenario actually runs (mobility segments change, MACs queue,
            // peers move), not just at t = 0.
            for step in 0..6u64 {
                sc.world.run_until(SimTime::from_secs(step * 20));
                for i in 0..sc.world.node_count() as u32 {
                    let n = NodeId(i);
                    assert_eq!(
                        sc.world.neighbors_of(n),
                        neighbors_brute_force(&sc.world, n),
                        "[{}/seed-{seed}] node {n} diverged at t={}s",
                        topology.label(),
                        step * 20
                    );
                }
            }
        }
    }
}

#[test]
fn grid_neighbors_match_brute_force_under_mobility() {
    for (topology, seed) in mobility_axes() {
        let params = MatrixParams::default();
        let mut sc = topology.build(seed, &params);
        for step in 1..=10u64 {
            sc.world.run_until(SimTime::from_secs(step * 30));
            for i in 0..sc.world.node_count() as u32 {
                let n = NodeId(i);
                assert_eq!(
                    sc.world.neighbors_of(n),
                    neighbors_brute_force(&sc.world, n),
                    "[{}/seed-{seed}] node {n} diverged at t={}s",
                    topology.label(),
                    step * 30
                );
            }
        }
    }
}

#[test]
fn golden_traces_bit_identical_across_delivery_modes() {
    let (topologies, seeds) = matrix_axes();
    golden::assert_cells(|c| {
        c.faults.is_empty() && topologies.contains(&c.topology) && seeds.contains(&c.seed)
    });
}
