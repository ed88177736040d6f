//! Scheduler and decode-path regression suite.
//!
//! The `golden_traces_*` and `legacy_corner_*` tests used to run each cell
//! under two engine modes (heap vs wheel queue, eager vs peek-first decode,
//! per-receiver vs batched delivery events, re-encoding vs byte-patching
//! relay) and compare the traces. The second implementations are gone; the
//! tests keep their names and hold the surviving path to the fingerprints
//! both modes produced at `ff140d1`, pinned in `tests/golden.rs`. The rest
//! of the file checks properties of the one path that no constant can
//! capture: one arrival event per transmission, a leak-free timer slab,
//! and a receive path that resolves frames without building packets.

use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

#[path = "golden.rs"]
mod golden;

/// The matrix the cross-mode comparisons swept: three topologies × seeds
/// 1 and 3, fault-free.
fn assert_matrix_pinned() {
    let topologies = [
        Topology::AdjacentPair,
        Topology::Chain { relays: 1 },
        Topology::Star { downloaders: 3 },
    ];
    golden::assert_cells(|c| {
        c.faults.is_empty() && topologies.contains(&c.topology) && [1, 3].contains(&c.seed)
    });
}

#[test]
fn golden_traces_bit_identical_across_relay_patch_modes() {
    assert_matrix_pinned();
}

#[test]
fn golden_traces_bit_identical_across_queue_modes() {
    assert_matrix_pinned();
}

#[test]
fn golden_traces_bit_identical_across_decode_regimes() {
    assert_matrix_pinned();
}

#[test]
fn golden_traces_bit_identical_across_delivery_event_modes() {
    assert_matrix_pinned();
}

#[test]
fn legacy_corner_heap_and_eager_matches_the_optimized_stack() {
    // A mobility-rich cell that exercises timers, cancellations,
    // retransmissions and overhearing together.
    golden::assert_cells(|c| c.topology == Topology::PartitionedFerry);
}

/// One transmission enqueues exactly one arrival event, however many
/// receivers it reaches, across a full DAPES scenario.
#[test]
fn one_transmission_enqueues_one_arrival_event_in_batched_mode() {
    let topology = Topology::Star { downloaders: 3 };
    let mut sc = topology.build(1, &MatrixParams::default());
    sc.run_until_complete(topology.deadline());
    let s = sc.world.stats();
    assert!(s.tx_frames > 0);
    assert!(s.delivered > s.tx_frames, "a star fans out");
    assert_eq!(s.arrival_events, s.tx_frames);
}

#[test]
fn timer_slab_does_not_leak_across_a_full_scenario() {
    // DAPES peers arm and cancel pending-transmission timers constantly; a
    // completed run must leave only the steady-state timers (per-peer tick
    // and discovery beacons) armed, with slot allocation bounded by peak
    // concurrency — not by the tens of thousands of timers armed over the
    // run (the old `cancelled_timers` set retained cancelled ids forever).
    let params = MatrixParams::default();
    let topology = Topology::Star { downloaders: 3 };
    let mut sc = topology.build(1, &params);
    sc.run_until_complete(topology.deadline());
    // Keep the swarm ticking (discovery beacons, housekeeping, advert
    // timers) well past completion so timer volume dwarfs concurrency.
    let done = sc.world.now();
    sc.world.run_until(done + SimDuration::from_secs(120));
    let api_calls = sc.world.stats().api_calls;
    let live = sc.world.live_timers();
    let allocated = sc.world.timer_slots_allocated();
    assert!(
        api_calls > 1_000,
        "scenario must be timer-rich: {api_calls}"
    );
    assert!(
        live <= 4 * sc.world.node_count(),
        "live timers {live} exceed steady state for {} nodes",
        sc.world.node_count()
    );
    assert!(
        allocated <= 16 * sc.world.node_count(),
        "slot allocation {allocated} is volume-bound, not concurrency-bound"
    );
}

#[test]
fn lazy_peek_actually_resolves_frames_without_decode() {
    // Sanity that frames resolve without building a packet in a real
    // scenario: star downloaders overhear each other's content interests
    // and answers, so duplicate nonces and CS hits must resolve by peek —
    // and the per-outcome counters must decompose the total exactly.
    let params = MatrixParams::default();
    let topology = Topology::Star { downloaders: 3 };
    let mut sc = topology.build(1, &params);
    sc.run_until_complete(topology.deadline());
    // Post-completion discovery chatter also resolves that way.
    let done = sc.world.now();
    sc.world.run_until(done + SimDuration::from_secs(60));
    let (mut peeked, mut cs, mut dup, mut fib, mut unsol) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut relayed = 0u64;
    for &id in sc.downloaders.iter().chain(sc.producers.iter()) {
        let Some(p) = sc.world.stack::<dapes_core::peer::DapesPeer>(id) else {
            continue;
        };
        let s = p.stats();
        assert_eq!(
            s.peek_cs_hits
                + s.peek_dup_nonces
                + s.peek_fib_drops
                + s.peek_unsolicited_data
                + s.peek_relayed
                + s.peek_relay_suppressed,
            s.frames_peek_resolved,
            "per-outcome peek counters must sum to the total for node {id}"
        );
        peeked += s.frames_peek_resolved;
        cs += s.peek_cs_hits;
        dup += s.peek_dup_nonces;
        fib += s.peek_fib_drops;
        unsol += s.peek_unsolicited_data;
        relayed += s.peek_relayed + s.peek_relay_suppressed;
    }
    assert!(peeked > 0, "no frame ever resolved from its peeked header");
    assert!(
        dup > 0,
        "overheard re-broadcasts must resolve as dup nonces"
    );
    assert!(unsol > 0, "unwanted data must resolve as unsolicited");
    // Star traffic aggregates; the chain test below relays.
    let _ = relayed;
    // DAPES peers register the root prefix, so everything is routable and
    // the FIB-drop outcome stays zero here (the forwarder's
    // `header_pipeline_matches_full_pipeline_on_fib_no_route` exercises it;
    // `cs` hits depend on cache timing).
    assert_eq!(fib, 0, "root-registered FIBs never drop by route");
    let _ = cs;
}

#[test]
fn chain_relays_take_the_decode_free_relay_path() {
    // A chain's pure forwarders see every downloader Interest as novel and
    // routable, so they must resolve by the decode-free relay path and
    // actually transmit patched frames.
    let params = MatrixParams::default();
    let topology = Topology::Chain { relays: 1 };
    let mut sc = topology.build(1, &params);
    sc.run_until_complete(topology.deadline());
    let (mut relayed, mut suppressed, mut patched) = (0u64, 0u64, 0u64);
    for &id in sc.relays.iter() {
        let Some(p) = sc.world.stack::<dapes_core::peer::DapesPeer>(id) else {
            continue;
        };
        let s = p.stats();
        relayed += s.peek_relayed;
        suppressed += s.peek_relay_suppressed;
        patched += s.frames_relay_patched;
    }
    assert!(
        relayed > 0,
        "novel routable interests must resolve by the relay path (suppressed {suppressed})"
    );
    assert!(
        patched > 0,
        "relay decisions must translate into patched frame transmissions"
    );
}
