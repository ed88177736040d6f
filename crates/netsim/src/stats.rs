//! Run-wide accounting: transmissions by kind, collisions, losses, and the
//! system-load proxies used for the paper's Table I.

use crate::radio::FrameKind;
use std::collections::BTreeMap;

/// Counters accumulated over a simulation run.
///
/// *Transmissions* count frames put on the air (the paper's "number of
/// transmissions" overhead metric); deliveries/losses/collisions count
/// per-receiver outcomes.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Frames transmitted (one per send, regardless of receiver count).
    pub tx_frames: u64,
    /// Upper-layer payload bytes transmitted.
    pub tx_payload_bytes: u64,
    /// Frames transmitted, broken down by protocol kind.
    pub tx_by_kind: BTreeMap<FrameKind, u64>,
    /// Per-receiver deliveries that succeeded.
    pub delivered: u64,
    /// Per-receiver deliveries, broken down by protocol kind. The
    /// adversarial benches anchor their accounting here: a defense counter
    /// must equal the *deliveries* of the matching hostile kind (frames
    /// lost to collisions or channel loss were never seen, so they cannot
    /// be rejected).
    pub delivered_by_kind: BTreeMap<FrameKind, u64>,
    /// Payload bytes handed to receivers, all through one shared buffer per
    /// transmission (`delivered × payload length`, zero copies).
    pub delivered_payload_bytes: u64,
    /// Per-receiver drops due to overlapping transmissions.
    pub collision_drops: u64,
    /// Transmissions during which the sender could hear a colliding sender.
    pub tx_collisions: u64,
    /// Per-receiver drops due to random channel loss.
    pub channel_losses: u64,
    /// MAC deferrals due to carrier sense.
    pub mac_deferrals: u64,
    /// Event dispatches — one per event popped from the pending-event
    /// queue (Table I context-switch proxy).
    pub event_dispatches: u64,
    /// Arrival events enqueued for finished transmissions: one per
    /// transmission, which runs every per-receiver delivery when it pops.
    pub arrival_events: u64,
    /// Stack callbacks that reused a pooled command buffer.
    pub cmd_pool_hits: u64,
    /// Stack callbacks that had to allocate a fresh command buffer.
    pub cmd_pool_misses: u64,
    /// Stack → simulator API calls (Table I system-call proxy).
    pub api_calls: u64,
    /// Protocol state-table insertions (Table I page-fault proxy).
    pub state_inserts: u64,
    /// Per-node transmission counts, indexed by `NodeId.0`.
    pub tx_per_node: Vec<u64>,
    /// Nodes crashed by a fault plan (restartable).
    pub node_crashes: u64,
    /// Crashed nodes rebooted with a fresh stack.
    pub node_restarts: u64,
    /// Dormant nodes booted late by a fault plan.
    pub node_joins: u64,
    /// Nodes removed permanently by a fault plan.
    pub node_leaves: u64,
    /// Partition cuts applied (one per `Cut` action, however many links).
    pub partitions_cut: u64,
    /// Partition heals applied (one per `Heal` action).
    pub partitions_healed: u64,
    /// In-range deliveries suppressed because the sender→receiver link was
    /// cut by an active partition.
    pub partition_drops: u64,
    /// Timer or delayed-send events that popped after their node's
    /// incarnation died (crash/leave/restart) and were suppressed instead of
    /// firing into the fresh stack. Their slab slots are still freed.
    pub stale_events_suppressed: u64,
}

impl Stats {
    /// Creates zeroed stats for `n` nodes.
    pub fn new(n_nodes: usize) -> Self {
        Stats {
            tx_per_node: vec![0; n_nodes],
            ..Stats::default()
        }
    }

    /// Records one transmission.
    pub(crate) fn record_tx(&mut self, node: usize, kind: FrameKind, payload_len: usize) {
        self.tx_frames += 1;
        self.tx_payload_bytes += payload_len as u64;
        *self.tx_by_kind.entry(kind).or_insert(0) += 1;
        if let Some(slot) = self.tx_per_node.get_mut(node) {
            *slot += 1;
        }
    }

    /// Records one successful per-receiver delivery.
    pub(crate) fn record_delivery(&mut self, kind: FrameKind, payload_len: usize) {
        self.delivered += 1;
        self.delivered_payload_bytes += payload_len as u64;
        *self.delivered_by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Folds another, independent run's counters into this one: a plain
    /// element-wise sum of every field (`tx_per_node` by index, the longer
    /// vector setting the length).
    pub fn merge(&mut self, other: &Stats) {
        self.tx_frames += other.tx_frames;
        self.tx_payload_bytes += other.tx_payload_bytes;
        for (kind, count) in &other.tx_by_kind {
            *self.tx_by_kind.entry(*kind).or_insert(0) += count;
        }
        self.delivered += other.delivered;
        for (kind, count) in &other.delivered_by_kind {
            *self.delivered_by_kind.entry(*kind).or_insert(0) += count;
        }
        self.delivered_payload_bytes += other.delivered_payload_bytes;
        self.collision_drops += other.collision_drops;
        self.tx_collisions += other.tx_collisions;
        self.channel_losses += other.channel_losses;
        self.mac_deferrals += other.mac_deferrals;
        self.event_dispatches += other.event_dispatches;
        self.arrival_events += other.arrival_events;
        self.cmd_pool_hits += other.cmd_pool_hits;
        self.cmd_pool_misses += other.cmd_pool_misses;
        self.api_calls += other.api_calls;
        self.state_inserts += other.state_inserts;
        if self.tx_per_node.len() < other.tx_per_node.len() {
            self.tx_per_node.resize(other.tx_per_node.len(), 0);
        }
        for (slot, n) in self.tx_per_node.iter_mut().zip(&other.tx_per_node) {
            *slot += n;
        }
        self.node_crashes += other.node_crashes;
        self.node_restarts += other.node_restarts;
        self.node_joins += other.node_joins;
        self.node_leaves += other.node_leaves;
        self.partitions_cut += other.partitions_cut;
        self.partitions_healed += other.partitions_healed;
        self.partition_drops += other.partition_drops;
        self.stale_events_suppressed += other.stale_events_suppressed;
    }

    /// Total deliveries for a set of kinds (the adversarial benches'
    /// hostile-frame denominator).
    pub fn delivered_for_kinds(&self, kinds: &[FrameKind]) -> u64 {
        kinds
            .iter()
            .map(|k| self.delivered_by_kind.get(k).copied().unwrap_or(0))
            .sum()
    }

    /// Total transmissions for a set of kinds (a figure's overhead series).
    pub fn tx_for_kinds(&self, kinds: &[FrameKind]) -> u64 {
        kinds
            .iter()
            .map(|k| self.tx_by_kind.get(k).copied().unwrap_or(0))
            .sum()
    }

    /// Renders the run counters in Prometheus text exposition format.
    ///
    /// Every metric is prefixed `dapes_` and carries `# HELP` / `# TYPE`
    /// headers; per-kind breakdowns use a `kind` label. The adversarial
    /// bench emits this dump next to its JSON report and `checkjson`
    /// validates the shape, so scrape pipelines can ingest a run without
    /// parsing the report.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP dapes_{name} {help}\n# TYPE dapes_{name} counter\ndapes_{name} {value}\n"
            ));
        };
        counter("tx_frames_total", "Frames transmitted.", self.tx_frames);
        counter(
            "tx_payload_bytes_total",
            "Payload bytes transmitted.",
            self.tx_payload_bytes,
        );
        counter(
            "delivered_total",
            "Per-receiver deliveries that succeeded.",
            self.delivered,
        );
        counter(
            "delivered_payload_bytes_total",
            "Payload bytes handed to receivers.",
            self.delivered_payload_bytes,
        );
        counter(
            "collision_drops_total",
            "Per-receiver drops due to overlapping transmissions.",
            self.collision_drops,
        );
        counter(
            "channel_losses_total",
            "Per-receiver drops due to random channel loss.",
            self.channel_losses,
        );
        counter(
            "mac_deferrals_total",
            "MAC deferrals due to carrier sense.",
            self.mac_deferrals,
        );
        counter(
            "event_dispatches_total",
            "Scheduler event dispatches.",
            self.event_dispatches,
        );
        counter(
            "node_crashes_total",
            "Nodes crashed by a fault plan.",
            self.node_crashes,
        );
        counter(
            "node_restarts_total",
            "Crashed nodes rebooted with a fresh stack.",
            self.node_restarts,
        );
        counter(
            "node_joins_total",
            "Dormant nodes booted late by a fault plan.",
            self.node_joins,
        );
        counter(
            "node_leaves_total",
            "Nodes removed permanently by a fault plan.",
            self.node_leaves,
        );
        counter(
            "partitions_cut_total",
            "Partition cuts applied.",
            self.partitions_cut,
        );
        counter(
            "partitions_healed_total",
            "Partition heals applied.",
            self.partitions_healed,
        );
        counter(
            "partition_drops_total",
            "In-range deliveries suppressed by an active partition.",
            self.partition_drops,
        );
        counter(
            "stale_events_suppressed_total",
            "Events suppressed after their node incarnation died.",
            self.stale_events_suppressed,
        );
        out.push_str(concat!(
            "# HELP dapes_tx_by_kind_total Frames transmitted, by protocol kind.\n",
            "# TYPE dapes_tx_by_kind_total counter\n"
        ));
        for (kind, count) in &self.tx_by_kind {
            out.push_str(&format!(
                "dapes_tx_by_kind_total{{kind=\"{}\"}} {count}\n",
                kind.0
            ));
        }
        out.push_str(concat!(
            "# HELP dapes_delivered_by_kind_total Per-receiver deliveries, by protocol kind.\n",
            "# TYPE dapes_delivered_by_kind_total counter\n"
        ));
        for (kind, count) in &self.delivered_by_kind {
            out.push_str(&format!(
                "dapes_delivered_by_kind_total{{kind=\"{}\"}} {count}\n",
                kind.0
            ));
        }
        out
    }

    /// Fraction of per-receiver outcomes that were collision drops.
    pub fn collision_fraction(&self) -> f64 {
        let total = self.delivered + self.collision_drops + self.channel_losses;
        if total == 0 {
            0.0
        } else {
            self.collision_drops as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tx_updates_all_views() {
        let mut s = Stats::new(3);
        s.record_tx(1, FrameKind(5), 100);
        s.record_tx(1, FrameKind(5), 50);
        s.record_tx(2, FrameKind(6), 10);
        assert_eq!(s.tx_frames, 3);
        assert_eq!(s.tx_payload_bytes, 160);
        assert_eq!(s.tx_by_kind[&FrameKind(5)], 2);
        assert_eq!(s.tx_per_node, vec![0, 2, 1]);
        assert_eq!(s.tx_for_kinds(&[FrameKind(5), FrameKind(6)]), 3);
        assert_eq!(s.tx_for_kinds(&[FrameKind(9)]), 0);
    }

    #[test]
    fn out_of_range_node_does_not_panic() {
        let mut s = Stats::new(1);
        s.record_tx(7, FrameKind(1), 1);
        assert_eq!(s.tx_frames, 1);
    }

    #[test]
    fn record_delivery_updates_kind_breakdown() {
        let mut s = Stats::new(2);
        s.record_delivery(FrameKind(8), 100);
        s.record_delivery(FrameKind(8), 100);
        s.record_delivery(FrameKind(30), 64);
        assert_eq!(s.delivered, 3);
        assert_eq!(s.delivered_payload_bytes, 264);
        assert_eq!(s.delivered_by_kind[&FrameKind(8)], 2);
        assert_eq!(s.delivered_for_kinds(&[FrameKind(30)]), 1);
        assert_eq!(s.delivered_for_kinds(&[FrameKind(9)]), 0);
    }

    #[test]
    fn prometheus_dump_has_help_type_and_values() {
        let mut s = Stats::new(1);
        s.record_tx(0, FrameKind(5), 40);
        s.record_delivery(FrameKind(5), 40);
        let text = s.to_prometheus();
        assert!(text.contains("# HELP dapes_tx_frames_total"));
        assert!(text.contains("# TYPE dapes_tx_frames_total counter"));
        assert!(text.contains("dapes_tx_frames_total 1\n"));
        assert!(text.contains("dapes_tx_by_kind_total{kind=\"5\"} 1\n"));
        assert!(text.contains("dapes_delivered_by_kind_total{kind=\"5\"} 1\n"));
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.starts_with("dapes_"),
                "unexpected line {line:?}"
            );
        }
    }

    #[test]
    fn merge_sums_every_counter_of_independent_runs() {
        let mut a = Stats::new(2);
        a.record_tx(0, FrameKind(5), 10);
        a.record_delivery(FrameKind(5), 10);
        a.partitions_cut = 3;
        a.event_dispatches = 7;
        a.partitions_healed = 1;
        let mut b = Stats::new(4);
        b.record_tx(3, FrameKind(5), 20);
        b.record_tx(3, FrameKind(6), 5);
        b.partitions_cut = 2;
        b.event_dispatches = 11;
        a.merge(&b);
        assert_eq!(a.tx_frames, 3);
        assert_eq!(a.tx_payload_bytes, 35);
        assert_eq!(a.tx_by_kind[&FrameKind(5)], 2);
        assert_eq!(a.tx_by_kind[&FrameKind(6)], 1);
        assert_eq!(a.delivered, 1);
        assert_eq!(a.tx_per_node, vec![1, 0, 0, 2]);
        assert_eq!(a.partitions_cut, 5);
        assert_eq!(a.partitions_healed, 1);
        assert_eq!(a.event_dispatches, 18);
    }

    #[test]
    fn collision_fraction_handles_empty() {
        let s = Stats::new(0);
        assert_eq!(s.collision_fraction(), 0.0);
        let mut s = Stats::new(0);
        s.delivered = 9;
        s.collision_drops = 1;
        assert!((s.collision_fraction() - 0.1).abs() < 1e-12);
    }
}
