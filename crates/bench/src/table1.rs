//! Table I — the real-world feasibility study (paper §VI-E, Fig. 8),
//! reproduced as scripted 5-node scenarios.
//!
//! The three outdoor scenarios use the paper's geometry (150 m legs, ~50 m
//! Wi-Fi range):
//!
//! 1. **Carrier** — producer A; carrier D fetches the collection from A and
//!    ferries it to the disconnected peers B and C.
//! 2. **Repository** — C produces; a stationary repo downloads from C; A
//!    and B fetch from the repo simultaneously.
//! 3. **Moving peers** — A produces; A–D move through an infrastructure-free
//!    area with moments of full disconnection and moments of (multi-hop)
//!    contact.
//!
//! OS metrics are simulator proxies (see DESIGN.md): event dispatches ↦
//! context switches, stack↔simulator API calls ↦ system calls, state-table
//! insertions ↦ page faults, peak live protocol state ↦ memory.

use crate::profile::Profile;
use crate::report::Table;
use dapes_core::prelude::*;
use dapes_crypto::signing::TrustAnchor;
use dapes_netsim::prelude::*;
use std::sync::Arc;

struct ScenarioOutcome {
    download_time_s: f64,
    transmissions: u64,
    memory_mb: f64,
    context_switches: u64,
    system_calls: u64,
    page_faults: u64,
}

fn build_collection(profile: Profile) -> Arc<Collection> {
    let p = profile.base_params();
    Arc::new(Collection::build(CollectionSpec {
        name: dapes_ndn::name::Name::from_uri("/damaged-bridge-1533783192"),
        files: (0..p.n_files)
            .map(|i| dapes_core::collection::FileSpec::new(format!("file-{i}"), p.file_size))
            .collect(),
        packet_size: p.packet_size,
        format: MetadataFormat::MerkleRoots,
        producer: "resident-a".into(),
    }))
}

fn still(x: f64, y: f64) -> Box<dyn Mobility> {
    Box::new(Stationary::new(Point::new(x, y)))
}

/// A walk through `(time s, x m, y m)` waypoints.
fn path(waypoints: &[(u64, f64, f64)]) -> Box<dyn Mobility> {
    let waypoints = waypoints
        .iter()
        .map(|&(t, x, y)| (SimTime::from_secs(t), Point::new(x, y)));
    Box::new(ScriptedMobility::new(waypoints.collect()))
}

/// Runs the five devices, moving as given, in the MacBooks' ~50 m outdoor
/// range: device 0 produces the collection, the other four want
/// everything. Runs until they complete (or the cap), sampling memory.
fn run(profile: Profile, seed: u64, devices: [Box<dyn Mobility>; 5]) -> ScenarioOutcome {
    let anchor = TrustAnchor::from_seed(b"rural-area-anchor");
    let mut w = World::new(WorldConfig {
        range: 50.0,
        seed,
        ..WorldConfig::default()
    });
    let mut downloaders = Vec::new();
    for (id, mobility) in (0..).zip(devices) {
        let want = if id == 0 {
            WantPolicy::Nothing
        } else {
            WantPolicy::Everything
        };
        let mut peer = DapesPeer::new(id, DapesConfig::default(), anchor.clone(), want);
        if id == 0 {
            peer.add_production(build_collection(profile));
            w.add_node(mobility, Box::new(peer));
        } else {
            downloaders.push(w.add_node(mobility, Box::new(peer)));
        }
    }
    let cap = profile.base_params().max_sim;
    let mut memory_peak = 0usize;
    let step = SimDuration::from_secs(2);
    let mut now = SimTime::ZERO;
    loop {
        now = (now + step).min(cap);
        w.run_until(now);
        memory_peak = memory_peak.max(w.live_state_bytes());
        let done = downloaders.iter().all(|&n| {
            w.stack::<DapesPeer>(n)
                .is_some_and(|p| p.downloads_complete())
        });
        if done || now >= cap {
            break;
        }
    }
    let last = downloaders
        .iter()
        .filter_map(|&n| w.stack::<DapesPeer>(n).and_then(|p| p.completed_at()))
        .map(|t| t.as_secs_f64())
        .fold(0.0f64, f64::max);
    let stats = w.stats();
    ScenarioOutcome {
        download_time_s: if last > 0.0 { last } else { cap.as_secs_f64() },
        transmissions: stats.tx_frames,
        memory_mb: memory_peak as f64 / 1e6,
        context_switches: stats.event_dispatches,
        system_calls: stats.api_calls,
        page_faults: stats.state_inserts,
    }
}

/// Scenario 1 (Fig. 8a): data sharing through a carrier.
fn carrier() -> [Box<dyn Mobility>; 5] {
    [
        // Producer A at the west end; B and C in two disconnected segments
        // 150 m apart.
        still(0.0, 0.0),
        still(150.0, 0.0),
        still(300.0, 0.0),
        // Carrier D: dwell near A, walk to B, dwell, walk to C, return.
        path(&[
            (0, 20.0, 0.0),
            (120, 20.0, 0.0),
            (180, 150.0, 10.0),
            (300, 150.0, 10.0),
            (360, 300.0, 10.0),
            (480, 300.0, 10.0),
            (540, 20.0, 0.0),
            (660, 20.0, 0.0),
            (720, 150.0, 10.0),
            (840, 300.0, 10.0),
        ]),
        // A fifth resident idling near B (the study used 5 MacBooks).
        still(170.0, 0.0),
    ]
}

/// Scenario 2 (Fig. 8b): data sharing through a repository.
fn repository() -> [Box<dyn Mobility>; 5] {
    [
        // Producer C walks past the repo, seeding it.
        path(&[(0, 150.0, 150.0), (600, 150.0, 150.0), (700, 300.0, 300.0)]),
        // The repository: a stationary peer that downloads then serves.
        still(150.0, 130.0),
        // A and B walk to the rest area after the repo has been seeded,
        // then fetch from it simultaneously (Fig. 8b's arrows 3a/3b).
        path(&[(0, 0.0, 0.0), (180, 0.0, 0.0), (260, 130.0, 110.0)]),
        path(&[(0, 300.0, 0.0), (180, 300.0, 0.0), (260, 170.0, 110.0)]),
        // Fifth device roaming into the rest area later still.
        path(&[(0, 300.0, 300.0), (280, 300.0, 300.0), (360, 150.0, 90.0)]),
    ]
}

/// Scenario 3 (Fig. 8c): data sharing among moving nodes with moments of
/// disconnection and multi-hop contact.
fn moving() -> [Box<dyn Mobility>; 5] {
    [
        // Producer A loops around the area.
        path(&[
            (0, 0.0, 0.0),
            (60, 75.0, 40.0),
            (120, 150.0, 0.0),
            (180, 75.0, 40.0),
            (240, 0.0, 0.0),
            (300, 75.0, 40.0),
            (360, 150.0, 0.0),
        ]),
        // B, C, D crisscross: sometimes all disconnected, sometimes chained
        // within range of each other (exercising multi-hop).
        path(&[
            (0, 150.0, 150.0),
            (90, 40.0, 20.0),
            (200, 150.0, 150.0),
            (300, 40.0, 20.0),
            (420, 110.0, 20.0),
        ]),
        path(&[
            (0, 0.0, 150.0),
            (120, 80.0, 30.0),
            (240, 0.0, 150.0),
            (330, 80.0, 30.0),
            (420, 150.0, 30.0),
        ]),
        path(&[
            (0, 150.0, 75.0),
            (100, 120.0, 30.0),
            (220, 150.0, 75.0),
            (320, 120.0, 30.0),
        ]),
        path(&[
            (0, 75.0, 150.0),
            (150, 60.0, 50.0),
            (280, 75.0, 150.0),
            (380, 60.0, 50.0),
        ]),
    ]
}

/// Prints the Table I reproduction.
pub fn table1(profile: Profile) {
    println!("{}", profile.describe());
    let outcomes = vec![
        ("1 carrier", run(profile, 101, carrier())),
        ("2 repository", run(profile, 102, repository())),
        ("3 moving", run(profile, 103, moving())),
    ];
    let mut t = Table::new(
        "Table I: real-world feasibility scenarios",
        &[
            "scenario",
            "time(s)",
            "tx",
            "mem(MB)",
            "ctx-sw",
            "syscalls",
            "page-faults",
        ],
    );
    for (name, o) in &outcomes {
        t.row(vec![
            name.to_string(),
            format!("{:.0}", o.download_time_s),
            o.transmissions.to_string(),
            format!("{:.2}", o.memory_mb),
            o.context_switches.to_string(),
            o.system_calls.to_string(),
            o.page_faults.to_string(),
        ]);
    }
    t.print();
    println!(
        "paper (absolute): s1 454s/30841tx/14.75MB, s2 418s/24243tx/14.65MB, s3 213s/16102tx/18.65MB"
    );
    println!("paper (ordering): time/tx/ctx-sw/syscalls/page-faults s1>s2>s3; memory s3 highest\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carrier_scenario_finishes_with_quick_profile() {
        let o = run(Profile::Quick, 42, carrier());
        assert!(o.transmissions > 0);
        assert!(o.memory_mb > 0.0);
        assert!(o.download_time_s > 0.0);
    }

    #[test]
    fn repo_scenario_is_faster_than_carrier() {
        // The paper's key Table I ordering: the repository scenario beats
        // the carrier scenario; moving+multi-hop beats both.
        let carrier = run(Profile::Quick, 7, super::carrier());
        let repo = run(Profile::Quick, 7, repository());
        assert!(
            repo.download_time_s <= carrier.download_time_s,
            "repo {:.0}s vs carrier {:.0}s",
            repo.download_time_s,
            carrier.download_time_s
        );
    }
}
