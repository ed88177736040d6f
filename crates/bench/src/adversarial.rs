//! The adversarial benchmark: proves the signed control plane's defenses
//! under each attacker type and records the evidence in
//! `BENCH_adversarial.json` plus a Prometheus text-format metrics dump.
//!
//! Five cells share one honest layout — a producer, and a downloader that
//! finishes the transfer and then walks out of radio range (so the
//! stale-peer expiry fires in *every* cell, benign included):
//!
//! * `benign` — no attacker; the control cell the overhead deltas are
//!   measured against. Every defense counter except `peers_expired` must
//!   stay zero.
//! * `spoof` — a [`AdversaryKind::SpoofForger`] broadcasting forged
//!   discovery replies under a rogue anchor.
//! * `tamper` — a [`AdversaryKind::SegmentTamperer`] placed in range of
//!   the downloader only, answering its content Interests with unsigned
//!   junk faster than the producer.
//! * `replay` — an [`AdversaryKind::InterestReplayer`] re-injecting
//!   captured Interests and sealed announcements 6 s later (past the 5 s
//!   replay window).
//! * `flood` — a [`AdversaryKind::NoiseFlooder`] saturating the cell with
//!   junk frames.
//!
//! The accounting invariant each hostile cell is gated on: the honest
//! nodes' rejection counters must equal, *exactly*, the number of hostile
//! frames the simulator actually delivered to them
//! ([`Stats::delivered_for_kinds`] over the dedicated attack
//! [`FrameKind`]s) — every hostile frame that reached a radio was
//! recognized and dropped, and nothing else was. Completion must hold in
//! every cell, within a bounded slowdown over benign.

use crate::check::{visit_run, Sweep};
use crate::json::{Fields, Slot, Visit};
use dapes_core::adversary::attack_kinds;
use dapes_core::config::REPLAY_WINDOW;
use dapes_core::prelude::*;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

/// One attack cell of the benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AttackMode {
    /// No attacker.
    #[default]
    Benign,
    /// Forged announcements under a rogue anchor.
    Spoof,
    /// Unsigned junk segments racing the honest responder.
    Tamper,
    /// Captured frames re-injected past the replay window.
    Replay,
    /// Junk frames that are not NDN packets.
    Flood,
}

impl AttackMode {
    /// Every cell, benign first.
    pub const ALL: [AttackMode; 5] = [
        AttackMode::Benign,
        AttackMode::Spoof,
        AttackMode::Tamper,
        AttackMode::Replay,
        AttackMode::Flood,
    ];

    /// Every cell's stable report label, in [`ALL`](Self::ALL) order.
    pub const LABELS: [&'static str; 5] = ["benign", "spoof", "tamper", "replay", "flood"];

    /// The stable report label.
    pub fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }

    /// The cell whose [`label`](Self::label) is `label`, or an error naming
    /// every label.
    pub fn from_label(label: &str) -> Result<AttackMode, String> {
        let i = Self::LABELS.iter().position(|&l| l == label);
        i.map(|i| Self::ALL[i]).ok_or_else(|| {
            let labels = Self::LABELS.join(", ");
            format!("unknown attack {label:?} (accepted: {labels})")
        })
    }
}

/// Shared workload knobs for every cell.
#[derive(Clone, Debug)]
pub struct AdversarialParams {
    /// World seed.
    pub seed: u64,
    /// Files in the shared collection.
    pub files: usize,
    /// Bytes per file.
    pub file_size: usize,
    /// Simulated horizon: long enough for completion, the walkaway and the
    /// post-walkaway expiry sweep.
    pub run_secs: u64,
}

impl AdversarialParams {
    /// The committed-report workload.
    pub fn dense() -> Self {
        AdversarialParams {
            seed: 7,
            files: 2,
            file_size: 16 * 1024,
            run_secs: 90,
        }
    }

    /// The CI smoke workload.
    pub fn smoke() -> Self {
        AdversarialParams {
            seed: 7,
            files: 1,
            file_size: 4 * 1024,
            run_secs: 90,
        }
    }
}

/// Outcome of one cell.
#[derive(Clone, Debug, Default)]
pub struct AttackOutcome {
    /// Which cell ran.
    pub mode: AttackMode,
    /// Whether the downloader finished the transfer.
    pub completed: bool,
    /// Completion time in simulated seconds (horizon if incomplete).
    pub completion_secs: f64,
    /// Non-content fraction of all frames (hostile frames included — the
    /// overhead the attack actually imposes).
    pub overhead_ratio: f64,
    /// The simulator's counters over the whole run.
    pub stats: Stats,
    /// Every honest peer's counters summed, the defense counters among them.
    pub peers: PeerStats,
    /// Hostile frames the simulator delivered to honest radios, all kinds.
    pub hostile_delivered: u64,
    /// Hostile frames the attacker transmitted.
    pub hostile_sent: u64,
    /// Whether every per-kind rejection counter equals its delivery count.
    pub exact_accounting: bool,
}

impl AttackOutcome {
    /// The Prometheus text-format dump of the cell: the simulator counters
    /// and the summed peer counters, via [`crate::prom::export`].
    pub fn prometheus(&self) -> String {
        crate::prom::export(&self.stats, &self.peers)
    }
}

/// Builds and runs one cell. The honest layout is identical in every cell:
/// producer at the origin, downloader at 48 m (within the 60 m range),
/// departing at 20 s and 600 m away by 50 s, so marks recorded during the
/// transfer go stale and `peers_expired` fires everywhere. Attackers sit at
/// 26 m from both honest nodes — except the tamperer, which sits at 90 m so
/// only the downloader can hear it (tampered replies race the producer's
/// jittered ones at nodes that actually hold a PIT entry).
pub fn run_mode(params: &AdversarialParams, mode: AttackMode) -> AttackOutcome {
    let walkaway = MobilityPreset::Ferry {
        from: Point::new(48.0, 0.0),
        to: Point::new(600.0, 0.0),
        depart: SimTime::from_secs(20),
        travel: SimDuration::from_secs(30),
    };
    let mut b = ScenarioBuilder::new(params.seed)
        .collection(params.files, params.file_size)
        .producer_at(0.0, 0.0)
        .peer(PeerRole::Downloader, walkaway);
    b = match mode {
        AttackMode::Benign => b,
        AttackMode::Spoof => b.adversary_at(AdversaryKind::SpoofForger, 24.0, 10.0),
        AttackMode::Tamper => b.adversary_at(AdversaryKind::SegmentTamperer, 90.0, 0.0),
        AttackMode::Replay => b.adversary_at(AdversaryKind::InterestReplayer, 24.0, 10.0),
        AttackMode::Flood => b.adversary_at(AdversaryKind::NoiseFlooder, 24.0, 10.0),
    };
    let mut sc = b.build();
    // Run the full horizon — the interesting dynamics (delayed replays,
    // the walkaway, the expiry sweep) happen after completion.
    sc.run_until(SimTime::from_secs(params.run_secs));

    let completed = sc.all_complete();
    let completion_secs = sc
        .completion_times()
        .into_iter()
        .flatten()
        .map(|t| t.as_micros() as f64 / 1e6)
        .fold(0.0f64, f64::max);
    let peers = sc.peer_totals();
    let stats = sc.world.stats();
    let hostile_delivered = [
        attack_kinds::FLOOD,
        attack_kinds::SPOOF,
        attack_kinds::TAMPER,
        attack_kinds::INTEREST_REPLAY,
        attack_kinds::ADVERT_REPLAY,
    ]
    .map(|k| (k, stats.delivered_for_kinds(&[k])));
    let delivered = |kind: FrameKind| -> u64 {
        hostile_delivered
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0, |&(_, n)| n)
    };
    // The per-cell accounting: each defense counter must equal the
    // delivery count of the attack kind it defends against, and the
    // counters of attacks not running in this cell must stay zero.
    let exact_accounting = peers.flood_frames_dropped == delivered(attack_kinds::FLOOD)
        && peers.adverts_rejected_bad_sig == delivered(attack_kinds::SPOOF)
        && peers.segments_rejected_tamper == delivered(attack_kinds::TAMPER)
        && peers.interests_rejected_replay == delivered(attack_kinds::INTEREST_REPLAY)
        && peers.adverts_rejected_replay == delivered(attack_kinds::ADVERT_REPLAY);
    let hostile_sent = sc
        .adversaries
        .iter()
        .filter_map(|&id| sc.adversary(id))
        .map(|a| a.sent().total())
        .sum();
    AttackOutcome {
        mode,
        completed,
        completion_secs: if completed {
            completion_secs
        } else {
            params.run_secs as f64
        },
        overhead_ratio: overhead_ratio(stats),
        stats: stats.clone(),
        peers,
        hostile_delivered: hostile_delivered.iter().map(|&(_, n)| n).sum(),
        hostile_sent,
        exact_accounting,
    }
}

/// Runs every cell.
pub fn run_all(params: &AdversarialParams) -> Vec<AttackOutcome> {
    AttackMode::ALL
        .iter()
        .map(|&m| run_mode(params, m))
        .collect()
}

/// Slowest acceptable attack-cell completion relative to benign. The
/// attacks in this benchmark waste airtime and screening work but cannot
/// suppress the transfer, so a generous factor still proves "bounded".
pub const MAX_SLOWDOWN: f64 = 3.0;

/// The golden gate: completion everywhere, bounded slowdown, exact
/// accounting, the right counters firing (and only those). Returns the
/// first violation.
pub fn gate(outcomes: &[AttackOutcome]) -> Result<(), String> {
    for mode in AttackMode::ALL {
        match outcomes.iter().filter(|o| o.mode == mode).count() {
            0 => return Err(format!("missing required attack mode {:?}", mode.label())),
            1 => {}
            _ => return Err(format!("duplicate attack mode {:?}", mode.label())),
        }
    }
    let benign = outcomes
        .iter()
        .find(|o| o.mode == AttackMode::Benign)
        .ok_or("no benign cell in the sweep")?;
    for o in outcomes {
        let label = o.mode.label();
        if !o.completed {
            return Err(format!("[{label}] transfer did not complete"));
        }
        if !o.exact_accounting {
            return Err(format!(
                "[{label}] rejection counters do not match hostile deliveries: {:?}",
                o.peers
            ));
        }
        if o.completion_secs > benign.completion_secs * MAX_SLOWDOWN {
            return Err(format!(
                "[{label}] completed in {:.2}s, over {MAX_SLOWDOWN}x the benign {:.2}s",
                o.completion_secs, benign.completion_secs
            ));
        }
        // Every cell runs the walkaway, so stale-peer expiry must fire.
        if o.peers.peers_expired == 0 {
            return Err(format!("[{label}] walkaway peer never expired"));
        }
        let expected_counter = match o.mode {
            AttackMode::Benign => None,
            AttackMode::Spoof => Some(o.peers.adverts_rejected_bad_sig),
            AttackMode::Tamper => Some(o.peers.segments_rejected_tamper),
            AttackMode::Replay => Some(
                o.peers
                    .interests_rejected_replay
                    .min(o.peers.adverts_rejected_replay),
            ),
            AttackMode::Flood => Some(o.peers.flood_frames_dropped),
        };
        if let Some(counter) = expected_counter {
            if counter == 0 {
                return Err(format!(
                    "[{label}] the attack's defense counter never fired"
                ));
            }
        } else if o.hostile_delivered != 0
            || o.peers.adverts_rejected_bad_sig != 0
            || o.peers.flood_frames_dropped != 0
            || o.peers.segments_rejected_tamper != 0
            || o.peers.interests_rejected_replay != 0
            || o.peers.adverts_rejected_replay != 0
        {
            return Err(format!(
                "[benign] hostile traffic or rejections in the control cell: {:?}",
                o.peers
            ));
        }
    }
    Ok(())
}

/// One `attacks` entry of `BENCH_adversarial.json`.
impl Fields for AttackOutcome {
    fn fields(&mut self, f: &mut Visit<'_>) {
        let mut mode = self.mode.label();
        f("mode", Slot::Choice(&mut mode, &AttackMode::LABELS));
        self.mode = AttackMode::from_label(mode).unwrap_or(self.mode);
        visit_run(
            &mut self.completed,
            &mut self.completion_secs,
            &mut self.stats,
            &[],
            f,
        );
        f("overhead_ratio", Slot::Num(&mut self.overhead_ratio, 4));
        let defenses = [
            "adverts_rejected_bad_sig",
            "adverts_rejected_replay",
            "peers_expired",
            "segments_rejected_tamper",
            "interests_rejected_replay",
            "flood_frames_dropped",
        ];
        self.peers.visit_mut(|name, n| {
            if defenses.contains(&name) {
                f(name, Slot::Int(n));
            }
        });
        f("hostile_delivered", Slot::Int(&mut self.hostile_delivered));
        f("hostile_sent", Slot::Int(&mut self.hostile_sent));
        f("exact_accounting", Slot::Flag(&mut self.exact_accounting));
    }
}

/// `BENCH_adversarial.json`. Every cell authenticates each advert and
/// segment it hears, so the host block (hash kernel included) says what the
/// sweep's wall-clock cost was paid on.
impl Sweep for AttackOutcome {
    const SCENARIO: &'static str = "adversarial";
    const CELLS: &'static str = "attacks";

    fn header(f: &mut Visit<'_>) {
        let mut window = REPLAY_WINDOW.as_micros() / 1_000;
        f("replay_window_ms", Slot::Pos(&mut window));
    }

    fn gate(cells: &[Self]) -> Result<(), String> {
        gate(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_labels_round_trip_and_unknown_ones_name_every_label() {
        for mode in AttackMode::ALL {
            assert_eq!(AttackMode::from_label(mode.label()), Ok(mode));
        }
        let err = AttackMode::from_label("jam").expect_err("no such cell");
        assert!(err.contains("\"jam\""), "{err}");
        for mode in AttackMode::ALL {
            assert!(err.contains(mode.label()), "{err}");
        }
    }

    #[test]
    fn benign_cell_completes_with_clean_counters_and_expiry() {
        let o = run_mode(&AdversarialParams::smoke(), AttackMode::Benign);
        assert!(o.completed);
        assert!(o.exact_accounting);
        assert_eq!(o.hostile_delivered, 0);
        assert_eq!(o.peers.adverts_rejected_bad_sig, 0);
        assert!(o.peers.peers_expired > 0, "walkaway must expire");
    }

    #[test]
    fn spoof_cell_rejects_every_delivered_forgery() {
        let o = run_mode(&AdversarialParams::smoke(), AttackMode::Spoof);
        assert!(o.completed, "spoofing must not block the transfer");
        assert!(o.peers.adverts_rejected_bad_sig > 0);
        assert!(o.exact_accounting, "{:?}", o);
    }

    #[test]
    fn full_sweep_passes_the_gate_and_renders_valid_json() {
        let params = AdversarialParams::smoke();
        let outcomes = run_all(&params);
        gate(&outcomes).expect("gate");
        for o in &outcomes {
            crate::check::validate_prometheus(&o.prometheus()).expect("prom dump validates");
        }
        let host = crate::host::HostFacts::probe();
        let report =
            crate::check::Report::new(host, params.seed, params.files, params.file_size, outcomes);
        let doc = crate::json::parse(&report.render()).expect("report parses");
        crate::check::validate(&doc).expect("report validates");
        assert_eq!(
            doc.get("attacks")
                .and_then(|a| a.as_array())
                .map(|a| a.len()),
            Some(5)
        );
    }
}
