//! Shared Prometheus text-format export for the bench binaries.
//!
//! The `faults` and `adversarial` binaries take `--prom-out <path>`, and
//! `metrics` writes the same dump. It comes from one place — [`export`] —
//! so the exposition format, the `dapes_` metric namespace and the counter
//! coverage cannot drift between binaries. The dump is the simulator's counters
//! ([`Stats::to_prometheus`]) followed by the DAPES peer-protocol counters
//! (summed over every honest peer) as `dapes_peer_*` counters, both written
//! by looping over each struct's counter declaration, and `checkjson`
//! validates the shape via [`crate::check::validate_prometheus`].

use dapes_core::stats::PeerStats;
use dapes_netsim::stats::{prometheus_counters, Stats};

/// Renders the combined Prometheus text-format dump: the simulator's
/// counters followed by every declared [`PeerStats`] counter as
/// `dapes_peer_<name>_total`, then the swarm's completion time as a gauge.
pub fn export(stats: &Stats, peers: &PeerStats) -> String {
    let mut out = stats.to_prometheus();
    peers.visit(prometheus_counters(&mut out, "dapes_peer_"));
    out.push_str(&format!(
        concat!(
            "# HELP dapes_peer_completed_at_seconds Latest completion time among the peers ",
            "that completed, in simulated seconds (0 = none did).\n",
            "# TYPE dapes_peer_completed_at_seconds gauge\n",
            "dapes_peer_completed_at_seconds {}\n"
        ),
        peers
            .completed_at
            .map_or(0.0, |t| t.as_micros() as f64 / 1e6)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_validates_and_covers_the_peer_namespace() {
        // A distinct value per declared counter: the dump must carry each
        // one under its own name.
        let mut stats = Stats::new(4);
        let mut peers = PeerStats::default();
        let mut i = 0;
        stats.visit_mut(|_, v| {
            i += 1;
            *v = i;
        });
        peers.visit_mut(|_, v| {
            i += 1;
            *v = i;
        });
        let dump = export(&stats, &peers);
        crate::check::validate_prometheus(&dump).expect("dump validates");
        stats.visit(|name, _, v| {
            assert!(
                dump.contains(&format!("\ndapes_{name}_total {v}\n")),
                "{name}"
            );
        });
        peers.visit(|name, _, v| {
            assert!(
                dump.contains(&format!("\ndapes_peer_{name}_total {v}\n")),
                "{name}"
            );
        });
        assert!(dump.contains("dapes_peer_completed_at_seconds 0\n"));
    }
}
