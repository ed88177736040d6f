//! Knob liveness: every `DapesConfig` value a figure sweeps
//! (`crates/bench/src/figures.rs`) must change what a small contended
//! swarm puts on the air. A value that leaves the trace where the default
//! leaves it is read by no code on that path, so the figure row it labels
//! measures nothing; such a value fails here unless [`DEAD`] lists it with
//! the reason — and a listed value that comes alive fails too, so the list
//! stays true.

use dapes_core::prelude::*;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;
use std::sync::OnceLock;

/// `(tx_frames, tx_payload_bytes, delivered)` of a finished run.
type Fingerprint = (u64, u64, u64);

/// The paper's 44-node swarm on a small collection at 50 m: dense enough
/// for bitmap transmissions to collide (PEBA), sparse enough for
/// encounters to differ from the current neighbourhood (RPF).
fn fingerprint(cfg: &DapesConfig) -> Fingerprint {
    let mut sc = ScenarioBuilder::new(3)
        .config(cfg.clone())
        .range(50.0)
        .collection(2, 16 * 1024)
        .paper_swarm(4, 20, 10, 10)
        .build();
    sc.run_until_complete(SimTime::from_secs(600));
    let s = sc.world.stats();
    (s.tx_frames, s.tx_payload_bytes, s.delivered)
}

/// Values known to leave the trace where the default leaves it, each with
/// the reason.
const DEAD: &[(AdvertSchedule, &str)] = &[
    (
        AdvertSchedule::BitmapsFirst(BitmapBudget::Count(1)),
        "fetching starts after one bitmap, as under the default \
         `Interleaved`, whose budget nothing reads (ROADMAP 17(a))",
    ),
    (
        AdvertSchedule::Interleaved(BitmapBudget::Count(1)),
        "no code reads an `Interleaved` budget (ROADMAP 17(a))",
    ),
    (
        AdvertSchedule::Interleaved(BitmapBudget::Count(2)),
        "no code reads an `Interleaved` budget (ROADMAP 17(a))",
    ),
    (
        AdvertSchedule::Interleaved(BitmapBudget::Count(3)),
        "no code reads an `Interleaved` budget (ROADMAP 17(a))",
    ),
    (
        AdvertSchedule::Interleaved(BitmapBudget::Count(4)),
        "no code reads an `Interleaved` budget (ROADMAP 17(a))",
    ),
];

/// Whether `change` moves the default's trace.
fn moves(change: impl FnOnce(&mut DapesConfig)) -> bool {
    static DEFAULT: OnceLock<Fingerprint> = OnceLock::new();
    let base = *DEFAULT.get_or_init(|| fingerprint(&DapesConfig::default()));
    let mut cfg = DapesConfig::default();
    change(&mut cfg);
    fingerprint(&cfg) != base
}

fn assert_live(label: &str, change: impl FnOnce(&mut DapesConfig)) {
    assert!(moves(change), "{label} leaves the trace unchanged");
}

#[test]
fn rpf_encounter_based_moves_the_trace() {
    assert_live("rpf = EncounterBased", |c| {
        c.rpf = RpfVariant::EncounterBased
    });
}

#[test]
fn start_same_moves_the_trace() {
    assert_live("start = Same", |c| c.start = StartPacket::Same);
}

#[test]
fn peba_off_moves_the_trace() {
    assert_live("peba = false", |c| c.peba = false);
}

#[test]
fn single_hop_moves_the_trace() {
    assert_live("multihop = false", |c| *c = DapesConfig::single_hop());
}

#[test]
fn every_swept_forward_prob_moves_the_trace() {
    // Figs. 9g/9h: 0.20 is the default.
    for p in [0.40, 0.60] {
        assert_live(&format!("forward_prob = {p}"), |c| c.forward_prob = p);
    }
}

#[test]
fn every_swept_schedule_moves_the_trace_unless_listed_dead() {
    // Figs. 9a, 9c and 9d.
    let budgets = [1, 2, 3, 4].map(BitmapBudget::Count);
    let schedules = budgets
        .into_iter()
        .chain([BitmapBudget::All])
        .flat_map(|b| {
            [
                AdvertSchedule::BitmapsFirst(b),
                AdvertSchedule::Interleaved(b),
            ]
        })
        .filter(|s| *s != AdvertSchedule::default());
    for schedule in schedules {
        let label = format!("schedule = {schedule:?}");
        match DEAD.iter().find(|(s, _)| *s == schedule) {
            None => assert_live(&label, |c| c.schedule = schedule),
            Some((_, why)) => assert!(
                !moves(|c| c.schedule = schedule),
                "{label} now moves the trace; take it off the dead list ({why})"
            ),
        }
    }
}
