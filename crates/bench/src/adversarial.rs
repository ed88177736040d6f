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

use crate::host::HostFacts;
use dapes_core::adversary::attack_kinds;
use dapes_core::config::REPLAY_WINDOW;
use dapes_core::prelude::*;
use dapes_netsim::prelude::*;
use dapes_testutil::prelude::*;

/// One attack cell of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackMode {
    /// No attacker.
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

    /// The stable report label.
    pub fn label(self) -> &'static str {
        match self {
            AttackMode::Benign => "benign",
            AttackMode::Spoof => "spoof",
            AttackMode::Tamper => "tamper",
            AttackMode::Replay => "replay",
            AttackMode::Flood => "flood",
        }
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

/// Honest-side defense counters summed over every DAPES peer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DefenseTotals {
    /// Announcements rejected for a bad/missing signature.
    pub adverts_rejected_bad_sig: u64,
    /// Announcements rejected by the replay guard.
    pub adverts_rejected_replay: u64,
    /// Stale producers swept from the replay table.
    pub peers_expired: u64,
    /// Segments rejected for a failed content signature.
    pub segments_rejected_tamper: u64,
    /// Interests rejected by the nonce journal.
    pub interests_rejected_replay: u64,
    /// Frames dropped because they do not parse as NDN packets.
    pub flood_frames_dropped: u64,
}

impl DefenseTotals {
    fn of(sc: &Scenario) -> Self {
        DefenseTotals {
            adverts_rejected_bad_sig: sc.defense_total(|s| s.adverts_rejected_bad_sig),
            adverts_rejected_replay: sc.defense_total(|s| s.adverts_rejected_replay),
            peers_expired: sc.defense_total(|s| s.peers_expired),
            segments_rejected_tamper: sc.defense_total(|s| s.segments_rejected_tamper),
            interests_rejected_replay: sc.defense_total(|s| s.interests_rejected_replay),
            flood_frames_dropped: sc.defense_total(|s| s.flood_frames_dropped),
        }
    }
}

/// Outcome of one cell.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// Which cell ran.
    pub mode: AttackMode,
    /// Whether the downloader finished the transfer.
    pub completed: bool,
    /// Completion time in simulated seconds (horizon if incomplete).
    pub completion_secs: f64,
    /// Frames on the air over the whole run.
    pub tx_frames: u64,
    /// Non-content fraction of all frames (hostile frames included — the
    /// overhead the attack actually imposes).
    pub overhead_ratio: f64,
    /// Honest-side defense counters.
    pub defense: DefenseTotals,
    /// Hostile frames the simulator delivered to honest radios, by kind.
    pub hostile_delivered: [(FrameKind, u64); 5],
    /// Hostile frames the attacker transmitted.
    pub hostile_sent: u64,
    /// Whether every per-kind rejection counter equals its delivery count.
    pub exact_accounting: bool,
    /// The Prometheus text-format dump of the cell's simulator counters.
    pub prometheus: String,
}

impl AttackOutcome {
    /// Total hostile frames delivered across every attack kind.
    pub fn hostile_delivered_total(&self) -> u64 {
        self.hostile_delivered.iter().map(|&(_, n)| n).sum()
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
    let defense = DefenseTotals::of(&sc);
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
    let exact_accounting = defense.flood_frames_dropped == delivered(attack_kinds::FLOOD)
        && defense.adverts_rejected_bad_sig == delivered(attack_kinds::SPOOF)
        && defense.segments_rejected_tamper == delivered(attack_kinds::TAMPER)
        && defense.interests_rejected_replay == delivered(attack_kinds::INTEREST_REPLAY)
        && defense.adverts_rejected_replay == delivered(attack_kinds::ADVERT_REPLAY);
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
        tx_frames: stats.tx_frames,
        overhead_ratio: overhead_ratio(stats),
        defense,
        hostile_delivered,
        hostile_sent,
        exact_accounting,
        prometheus: crate::prom::export(stats, &crate::prom::peer_totals(&sc)),
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
                "[{label}] rejection counters do not match hostile deliveries: {:?} vs {:?}",
                o.defense, o.hostile_delivered
            ));
        }
        if o.completion_secs > benign.completion_secs * MAX_SLOWDOWN {
            return Err(format!(
                "[{label}] completed in {:.2}s, over {MAX_SLOWDOWN}x the benign {:.2}s",
                o.completion_secs, benign.completion_secs
            ));
        }
        // Every cell runs the walkaway, so stale-peer expiry must fire.
        if o.defense.peers_expired == 0 {
            return Err(format!("[{label}] walkaway peer never expired"));
        }
        let expected_counter = match o.mode {
            AttackMode::Benign => None,
            AttackMode::Spoof => Some(o.defense.adverts_rejected_bad_sig),
            AttackMode::Tamper => Some(o.defense.segments_rejected_tamper),
            AttackMode::Replay => Some(
                o.defense
                    .interests_rejected_replay
                    .min(o.defense.adverts_rejected_replay),
            ),
            AttackMode::Flood => Some(o.defense.flood_frames_dropped),
        };
        if let Some(counter) = expected_counter {
            if counter == 0 {
                return Err(format!(
                    "[{label}] the attack's defense counter never fired"
                ));
            }
        } else if o.hostile_delivered_total() != 0
            || o.defense.adverts_rejected_bad_sig != 0
            || o.defense.flood_frames_dropped != 0
            || o.defense.segments_rejected_tamper != 0
            || o.defense.interests_rejected_replay != 0
            || o.defense.adverts_rejected_replay != 0
        {
            return Err(format!(
                "[benign] hostile traffic or rejections in the control cell: {:?}",
                o.defense
            ));
        }
    }
    Ok(())
}

/// Renders the `BENCH_adversarial.json` document. Every cell authenticates
/// each advert and segment it hears, so the host block (hash kernel
/// included) says what the sweep's wall-clock cost was paid on.
pub fn render_report(
    host: &HostFacts,
    params: &AdversarialParams,
    outcomes: &[AttackOutcome],
) -> String {
    fn entry(o: &AttackOutcome) -> String {
        format!(
            concat!(
                "{{\n",
                "    \"mode\": \"{}\",\n",
                "    \"completed\": {},\n",
                "    \"completion_secs\": {:.3},\n",
                "    \"tx_frames\": {},\n",
                "    \"overhead_ratio\": {:.4},\n",
                "    \"adverts_rejected_bad_sig\": {},\n",
                "    \"adverts_rejected_replay\": {},\n",
                "    \"peers_expired\": {},\n",
                "    \"segments_rejected_tamper\": {},\n",
                "    \"interests_rejected_replay\": {},\n",
                "    \"flood_frames_dropped\": {},\n",
                "    \"hostile_delivered\": {},\n",
                "    \"hostile_sent\": {},\n",
                "    \"exact_accounting\": {}\n",
                "  }}"
            ),
            o.mode.label(),
            o.completed,
            o.completion_secs,
            o.tx_frames,
            o.overhead_ratio,
            o.defense.adverts_rejected_bad_sig,
            o.defense.adverts_rejected_replay,
            o.defense.peers_expired,
            o.defense.segments_rejected_tamper,
            o.defense.interests_rejected_replay,
            o.defense.flood_frames_dropped,
            o.hostile_delivered_total(),
            o.hostile_sent,
            o.exact_accounting,
        )
    }
    let entries: Vec<String> = outcomes.iter().map(entry).collect();
    format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"adversarial\",\n",
            "{}",
            "  \"nodes\": 3,\n",
            "  \"seed\": {},\n",
            "  \"files\": {},\n",
            "  \"file_size\": {},\n",
            "  \"replay_window_ms\": {},\n",
            "  \"attacks\": [{}]\n",
            "}}\n"
        ),
        host.render_json(),
        params.seed,
        params.files,
        params.file_size,
        REPLAY_WINDOW.as_micros() / 1_000,
        entries.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_cell_completes_with_clean_counters_and_expiry() {
        let o = run_mode(&AdversarialParams::smoke(), AttackMode::Benign);
        assert!(o.completed);
        assert!(o.exact_accounting);
        assert_eq!(o.hostile_delivered_total(), 0);
        assert_eq!(o.defense.adverts_rejected_bad_sig, 0);
        assert!(o.defense.peers_expired > 0, "walkaway must expire");
    }

    #[test]
    fn spoof_cell_rejects_every_delivered_forgery() {
        let o = run_mode(&AdversarialParams::smoke(), AttackMode::Spoof);
        assert!(o.completed, "spoofing must not block the transfer");
        assert!(o.defense.adverts_rejected_bad_sig > 0);
        assert!(o.exact_accounting, "{:?}", o);
    }

    #[test]
    fn full_sweep_passes_the_gate_and_renders_valid_json() {
        let outcomes = run_all(&AdversarialParams::smoke());
        gate(&outcomes).expect("gate");
        let json = render_report(&HostFacts::probe(), &AdversarialParams::smoke(), &outcomes);
        let doc = crate::json::parse(&json).expect("report parses");
        crate::check::validate(&doc).expect("report validates");
        assert_eq!(
            doc.get("attacks")
                .and_then(|a| a.as_array())
                .map(|a| a.len()),
            Some(5)
        );
        for o in &outcomes {
            crate::check::validate_prometheus(&o.prometheus).expect("prom dump validates");
        }
    }
}
