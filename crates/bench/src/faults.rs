//! The fault-injection benchmark: completion rate and time-to-completion
//! under crash-rate × partition-duration sweeps, recorded in
//! `BENCH_faults.json`.
//!
//! Every cell shares one honest layout — a producer and two downloaders,
//! all in radio range — and differs only in the fault plan:
//!
//! * the **crash axis** reboots `crashes` downloaders mid-transfer
//!   (staggered crash instants, each restarting after a fixed outage) and
//!   exercises the salvage/resume path: a restarted downloader re-derives
//!   its missing-segment bitmap and must never re-fetch a held segment;
//! * the **partition axis** cuts downloader 0 off from every other node
//!   for `partition_secs`, healing afterwards. The 30 s cell outlasts the
//!   full retransmission backoff ladder (0.5 s doubling to the 4 s cap
//!   over `MAX_RETX` tries ≈ 23.5 s), so the give-up counter must fire
//!   before the heal.
//!
//! The gate each cell is judged on: every transfer completes after the
//! heal, resumed downloaders re-fetch **zero** held segments, the fault
//! counters account exactly for the plan (crashes, restarts, cuts, heals),
//! and a second run of the cell is bit-identical. Across the sweep at
//! least one cell must exercise each recovery mechanism (resume skips,
//! partition drops, backoff give-ups).

use crate::host::HostFacts;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

/// Shared workload knobs for every cell.
#[derive(Clone, Debug)]
pub struct FaultParams {
    /// World seed.
    pub seed: u64,
    /// Files in the shared collection.
    pub files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// First crash instant, in simulated microseconds. Staggered by
    /// [`CRASH_STAGGER_US`] per additional crashed downloader; must land
    /// inside the fault-free transfer so salvage has partial state.
    pub crash_at_us: u64,
    /// Outage length between a crash and its restart, in microseconds.
    pub restart_gap_us: u64,
    /// Partition cut instant, in simulated microseconds.
    pub cut_at_us: u64,
    /// Per-cell completion deadline in simulated seconds.
    pub deadline_secs: u64,
}

/// Gap between successive crash instants when several downloaders crash.
pub const CRASH_STAGGER_US: u64 = 400_000;

/// The crash axis: how many downloaders crash and restart.
pub const CRASH_COUNTS: [usize; 3] = [0, 1, 2];

/// The partition axis: how long downloader 0 stays cut off (0 = no cut).
/// The longest cell outlasts the backoff ladder so give-ups must fire.
pub const PARTITION_SECS: [u64; 3] = [0, 8, 30];

impl FaultParams {
    /// The committed-report workload: a ~1.3 s fault-free transfer, so
    /// faults at 0.6–1.6 s land mid-stream.
    pub fn dense() -> Self {
        FaultParams {
            seed: 9,
            files: 4,
            file_size: 32 * 1024,
            crash_at_us: 800_000,
            restart_gap_us: 2_500_000,
            cut_at_us: 600_000,
            deadline_secs: 240,
        }
    }

    /// The CI smoke workload: a smaller collection (fault-free transfer
    /// ~0.9 s) with proportionally earlier fault instants.
    pub fn smoke() -> Self {
        FaultParams {
            seed: 9,
            files: 2,
            file_size: 32 * 1024,
            crash_at_us: 400_000,
            restart_gap_us: 2_500_000,
            cut_at_us: 300_000,
            deadline_secs: 240,
        }
    }

    /// The fault plan for one `(crashes, partition_secs)` cell.
    fn profiles(&self, crashes: usize, partition_secs: u64) -> Vec<FaultProfile> {
        let mut faults = Vec::new();
        for i in 0..crashes {
            let crash = self.crash_at_us + CRASH_STAGGER_US * i as u64;
            faults.push(FaultProfile::CrashRestartDownloader {
                index: i,
                crash: SimTime::from_micros(crash),
                restart: SimTime::from_micros(crash + self.restart_gap_us),
            });
        }
        if partition_secs > 0 {
            faults.push(FaultProfile::IsolateDownloader {
                index: 0,
                cut: SimTime::from_micros(self.cut_at_us),
                heal: SimTime::from_micros(self.cut_at_us + partition_secs * 1_000_000),
            });
        }
        faults
    }
}

/// Outcome of one `(crashes, partition_secs)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultOutcome {
    /// The stable report label, e.g. `crash1-part30`.
    pub label: String,
    /// Downloaders crashed and restarted in this cell.
    pub crashes: usize,
    /// Seconds downloader 0 spent cut off (0 = no partition).
    pub partition_secs: u64,
    /// Whether every downloader finished the transfer.
    pub completed: bool,
    /// Completion time of the slowest downloader, in simulated seconds
    /// (the deadline if incomplete).
    pub completion_secs: f64,
    /// Frames on the air over the whole run.
    pub tx_frames: u64,
    /// Crashes the simulator executed.
    pub node_crashes: u64,
    /// Restarts the simulator executed.
    pub node_restarts: u64,
    /// Partition cuts applied.
    pub partitions_cut: u64,
    /// Partition heals applied.
    pub partitions_healed: u64,
    /// In-range frames dropped on cut links.
    pub partition_drops: u64,
    /// Timer/MAC events from pre-crash stack incarnations that were
    /// suppressed at dispatch.
    pub stale_events_suppressed: u64,
    /// Interest retransmissions across every honest peer.
    pub retransmissions: u64,
    /// Fetches abandoned after the backoff ladder ran dry.
    pub retx_give_ups: u64,
    /// Segments a restarted downloader kept from salvage instead of
    /// re-downloading.
    pub resumed_segments_skipped: u64,
    /// Interests sent for segments salvage already held — a resume bug if
    /// ever non-zero.
    pub resumed_refetch: u64,
    /// Whether a second run of the cell was bit-identical.
    pub deterministic: bool,
    /// Prometheus text-format dump of the cell (simulator counters plus
    /// aggregated peer counters), via [`crate::prom::export`].
    pub prometheus: String,
}

/// Builds and runs one cell (twice — the second run checks determinism).
pub fn run_cell(params: &FaultParams, crashes: usize, partition_secs: u64) -> FaultOutcome {
    let run = || {
        let mut sc = ScenarioBuilder::new(params.seed)
            .collection(params.files, params.file_size)
            .producer_at(0.0, 0.0)
            .downloader_at(20.0, 0.0)
            .downloader_at(0.0, 20.0)
            .faults(params.profiles(crashes, partition_secs))
            .build();
        let done = sc.run_until_complete(SimTime::from_secs(params.deadline_secs));
        (done, sc)
    };
    let (completed, sc) = run();
    let (completed2, sc2) = run();
    let fingerprint = |sc: &Scenario| {
        (
            sc.world.stats().tx_frames,
            sc.world.stats().stale_events_suppressed,
            sc.completion_times(),
        )
    };
    let deterministic = completed == completed2 && fingerprint(&sc) == fingerprint(&sc2);
    let completion_secs = if completed {
        sc.completion_times()
            .into_iter()
            .flatten()
            .map(|t| t.as_micros() as f64 / 1e6)
            .fold(0.0f64, f64::max)
    } else {
        params.deadline_secs as f64
    };
    let stats = sc.world.stats();
    FaultOutcome {
        label: format!("crash{crashes}-part{partition_secs}"),
        crashes,
        partition_secs,
        completed,
        completion_secs,
        tx_frames: stats.tx_frames,
        node_crashes: stats.node_crashes,
        node_restarts: stats.node_restarts,
        partitions_cut: stats.partitions_cut,
        partitions_healed: stats.partitions_healed,
        partition_drops: stats.partition_drops,
        stale_events_suppressed: stats.stale_events_suppressed,
        retransmissions: sc.defense_total(|s| s.retransmissions),
        retx_give_ups: sc.defense_total(|s| s.retx_give_ups),
        resumed_segments_skipped: sc.defense_total(|s| s.resumed_segments_skipped),
        resumed_refetch: sc.defense_total(|s| s.resumed_refetch),
        deterministic,
        prometheus: crate::prom::export(stats, &crate::prom::peer_totals(&sc)),
    }
}

/// Runs the full crash-rate × partition-duration sweep.
pub fn run_all(params: &FaultParams) -> Vec<FaultOutcome> {
    let mut outcomes = Vec::new();
    for &crashes in &CRASH_COUNTS {
        for &secs in &PARTITION_SECS {
            outcomes.push(run_cell(params, crashes, secs));
        }
    }
    outcomes
}

/// The golden gate: completion after heal everywhere, zero resumed
/// re-fetches, exact fault accounting, double-run determinism, and every
/// recovery mechanism exercised somewhere in the sweep. Returns the first
/// violation.
pub fn gate(outcomes: &[FaultOutcome]) -> Result<(), String> {
    if outcomes.is_empty() {
        return Err("the sweep ran no cells".into());
    }
    for o in outcomes {
        let label = &o.label;
        if !o.completed {
            return Err(format!("[{label}] a transfer never completed after heal"));
        }
        if !o.deterministic {
            return Err(format!("[{label}] the double run was not bit-identical"));
        }
        if o.resumed_refetch != 0 {
            return Err(format!(
                "[{label}] a resumed downloader re-fetched {} held segments",
                o.resumed_refetch
            ));
        }
        let crashes = o.crashes as u64;
        if o.node_crashes != crashes || o.node_restarts != crashes {
            return Err(format!(
                "[{label}] fault accounting: {} crashes / {} restarts executed, plan had {crashes}",
                o.node_crashes, o.node_restarts
            ));
        }
        let cuts = u64::from(o.partition_secs > 0);
        if o.partitions_cut != cuts || o.partitions_healed != cuts {
            return Err(format!(
                "[{label}] fault accounting: {} cuts / {} heals executed, plan had {cuts}",
                o.partitions_cut, o.partitions_healed
            ));
        }
        if o.crashes == 0 && (o.resumed_segments_skipped != 0 || o.stale_events_suppressed != 0) {
            return Err(format!(
                "[{label}] crash-free cell shows crash side effects: {} skipped, {} stale",
                o.resumed_segments_skipped, o.stale_events_suppressed
            ));
        }
        if o.partition_secs == 0 && o.partition_drops != 0 {
            return Err(format!(
                "[{label}] partition-free cell dropped {} frames on cut links",
                o.partition_drops
            ));
        }
    }
    // Each recovery mechanism must actually run somewhere in the sweep —
    // a sweep whose faults land outside the transfer proves nothing.
    if !outcomes.iter().any(|o| o.resumed_segments_skipped > 0) {
        return Err("no cell resumed a transfer from salvage".into());
    }
    if !outcomes.iter().any(|o| o.partition_drops > 0) {
        return Err("no cell dropped frames on a cut link".into());
    }
    if !outcomes.iter().any(|o| o.retx_give_ups > 0) {
        return Err("no cell exhausted the backoff ladder".into());
    }
    Ok(())
}

/// Renders the `BENCH_faults.json` document.
pub fn render_report(host: &HostFacts, params: &FaultParams, outcomes: &[FaultOutcome]) -> String {
    fn entry(o: &FaultOutcome) -> String {
        format!(
            concat!(
                "{{\n",
                "    \"label\": \"{}\",\n",
                "    \"crashes\": {},\n",
                "    \"partition_secs\": {},\n",
                "    \"completed\": {},\n",
                "    \"completion_secs\": {:.3},\n",
                "    \"tx_frames\": {},\n",
                "    \"node_crashes\": {},\n",
                "    \"node_restarts\": {},\n",
                "    \"partitions_cut\": {},\n",
                "    \"partitions_healed\": {},\n",
                "    \"partition_drops\": {},\n",
                "    \"stale_events_suppressed\": {},\n",
                "    \"retransmissions\": {},\n",
                "    \"retx_give_ups\": {},\n",
                "    \"resumed_segments_skipped\": {},\n",
                "    \"resumed_refetch\": {},\n",
                "    \"deterministic\": {}\n",
                "  }}"
            ),
            o.label,
            o.crashes,
            o.partition_secs,
            o.completed,
            o.completion_secs,
            o.tx_frames,
            o.node_crashes,
            o.node_restarts,
            o.partitions_cut,
            o.partitions_healed,
            o.partition_drops,
            o.stale_events_suppressed,
            o.retransmissions,
            o.retx_give_ups,
            o.resumed_segments_skipped,
            o.resumed_refetch,
            o.deterministic,
        )
    }
    let entries: Vec<String> = outcomes.iter().map(entry).collect();
    format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"faults\",\n",
            "{}",
            "  \"nodes\": 3,\n",
            "  \"seed\": {},\n",
            "  \"files\": {},\n",
            "  \"file_size\": {},\n",
            "  \"cells\": [{}]\n",
            "}}\n"
        ),
        host.render_json(),
        params.seed,
        params.files,
        params.file_size,
        entries.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_cell_completes_with_clean_fault_counters() {
        let o = run_cell(&FaultParams::smoke(), 0, 0);
        assert!(o.completed);
        assert!(o.deterministic);
        assert_eq!(o.node_crashes, 0);
        assert_eq!(o.partition_drops, 0);
        assert_eq!(o.resumed_segments_skipped, 0);
        assert_eq!(o.resumed_refetch, 0);
    }

    #[test]
    fn crash_cell_resumes_without_refetching() {
        let o = run_cell(&FaultParams::smoke(), 1, 0);
        assert!(o.completed, "{o:?}");
        assert_eq!(o.node_crashes, 1);
        assert_eq!(o.node_restarts, 1);
        assert!(o.resumed_segments_skipped > 0, "{o:?}");
        assert_eq!(o.resumed_refetch, 0, "{o:?}");
    }

    #[test]
    fn long_partition_cell_gives_up_and_recovers() {
        let o = run_cell(&FaultParams::smoke(), 0, 30);
        assert!(o.completed, "{o:?}");
        assert!(o.partition_drops > 0, "{o:?}");
        assert!(o.retx_give_ups > 0, "{o:?}");
    }

    #[test]
    fn full_sweep_passes_the_gate_and_renders_valid_json() {
        let outcomes = run_all(&FaultParams::smoke());
        gate(&outcomes).expect("gate");
        let json = render_report(&HostFacts::probe(), &FaultParams::smoke(), &outcomes);
        let doc = crate::json::parse(&json).expect("report parses");
        crate::check::validate(&doc).expect("report validates");
        assert_eq!(
            doc.get("cells").and_then(|c| c.as_array()).map(|c| c.len()),
            Some(CRASH_COUNTS.len() * PARTITION_SECS.len())
        );
    }
}
