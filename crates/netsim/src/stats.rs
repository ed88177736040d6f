//! Run-wide accounting: transmissions by kind, collisions, losses, and the
//! system-load proxies used for the paper's Table I.
//!
//! Every `u64` counter of a stats struct is declared once, through
//! [`counters!`](crate::counters): its field, doc comment and Prometheus
//! help text. Summing two runs, the Prometheus dump and any other per-counter
//! loop iterate that declaration, so adding a counter is one entry plus the
//! line that increments it.

use crate::radio::FrameKind;
use std::collections::BTreeMap;

/// Declares a stats struct whose `u64` counters are spelled once.
///
/// The first block is the struct: its attributes, then one
/// `name: "help",` entry per counter, which becomes a `pub name: u64` field
/// carrying the entry's doc comment. The `with` block lists the fields that
/// are not plain counters (maps, vectors, timestamps), written as ordinary
/// fields. The macro generates the struct plus:
///
/// * `merge_counters(&mut self, other)` (private) — adds every counter of
///   `other`; the struct's own `merge` calls it and folds the `with` fields;
/// * `visit(|name, help, value|)` — every counter in declaration order, the
///   loop the Prometheus writer ([`prometheus_counters`]) runs;
/// * `visit_mut(|name, &mut value|)` — the same counters, writable.
///
/// ```
/// dapes_netsim::counters! {
///     /// Counters of a toy stack.
///     #[derive(Clone, Debug, Default)]
///     pub struct ToyStats {
///         /// Frames the toy sent.
///         sent: "Frames sent.",
///     }
///     with {
///         /// When the toy stopped, if it did.
///         pub stopped_at: Option<u64>,
///     }
/// }
///
/// impl ToyStats {
///     /// Adds `other`'s counters and keeps the later stop.
///     pub fn merge(&mut self, other: &ToyStats) {
///         self.merge_counters(other);
///         self.stopped_at = self.stopped_at.max(other.stopped_at);
///     }
/// }
///
/// let mut a = ToyStats { sent: 2, ..ToyStats::default() };
/// a.merge(&ToyStats { sent: 3, stopped_at: Some(9) });
/// let mut dump = String::new();
/// a.visit(dapes_netsim::stats::prometheus_counters(&mut dump, "toy_"));
/// assert_eq!(dump, "# HELP toy_sent_total Frames sent.\n# TYPE toy_sent_total counter\ntoy_sent_total 5\n");
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$cattr:meta])* $counter:ident : $help:literal ),* $(,)?
        }
        with {
            $( $(#[$fattr:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $( $(#[$cattr])* pub $counter: u64, )*
            $( $(#[$fattr])* $fvis $field: $fty, )*
        }

        impl $name {
            /// Adds every declared counter of `other` into `self`.
            fn merge_counters(&mut self, other: &Self) {
                $( self.$counter += other.$counter; )*
            }

            /// Calls `f(name, help, value)` for every declared counter, in
            /// declaration order.
            pub fn visit(&self, mut f: impl FnMut(&'static str, &'static str, u64)) {
                $( f(stringify!($counter), $help, self.$counter); )*
            }

            /// Calls `f(name, &mut value)` for every declared counter, in
            /// declaration order.
            pub fn visit_mut(&mut self, mut f: impl FnMut(&'static str, &mut u64)) {
                $( f(stringify!($counter), &mut self.$counter); )*
            }
        }
    };
}

/// The Prometheus text-format writer for a [`counters!`](crate::counters)
/// struct: pass the returned closure to its `visit`, and every counter is
/// appended to `out` as `# HELP` / `# TYPE` lines plus one sample named
/// `{prefix}{name}_total`.
pub fn prometheus_counters<'a>(
    out: &'a mut String,
    prefix: &'a str,
) -> impl FnMut(&str, &str, u64) + 'a {
    move |name, help, value| {
        out.push_str(&format!(
            "# HELP {prefix}{name}_total {help}\n\
             # TYPE {prefix}{name}_total counter\n\
             {prefix}{name}_total {value}\n"
        ));
    }
}

counters! {
    /// Counters accumulated over a simulation run.
    ///
    /// *Transmissions* count frames put on the air (the paper's "number of
    /// transmissions" overhead metric); deliveries/losses/collisions count
    /// per-receiver outcomes.
    #[derive(Clone, Debug, Default)]
    pub struct Stats {
        /// Frames transmitted (one per send, regardless of receiver count).
        tx_frames: "Frames transmitted.",
        /// Upper-layer payload bytes transmitted.
        tx_payload_bytes: "Payload bytes transmitted.",
        /// Per-receiver deliveries that succeeded.
        delivered: "Per-receiver deliveries that succeeded.",
        /// Payload bytes handed to receivers, all through one shared buffer per
        /// transmission (`delivered × payload length`, zero copies).
        delivered_payload_bytes: "Payload bytes handed to receivers.",
        /// Per-receiver drops due to overlapping transmissions.
        collision_drops: "Per-receiver drops due to overlapping transmissions.",
        /// Transmissions during which the sender could hear a colliding sender.
        tx_collisions: "Transmissions during which the sender heard a colliding sender.",
        /// Per-receiver drops due to random channel loss.
        channel_losses: "Per-receiver drops due to random channel loss.",
        /// MAC deferrals due to carrier sense.
        mac_deferrals: "MAC deferrals due to carrier sense.",
        /// Event dispatches — one per event popped from the pending-event
        /// queue (Table I context-switch proxy).
        event_dispatches: "Scheduler event dispatches.",
        /// Arrival events enqueued for finished transmissions: one per
        /// transmission, which runs every per-receiver delivery when it pops.
        arrival_events: "Arrival events enqueued, one per transmission.",
        /// Stack callbacks that reused a pooled command buffer.
        cmd_pool_hits: "Stack callbacks that reused a pooled command buffer.",
        /// Stack callbacks that had to allocate a fresh command buffer.
        cmd_pool_misses: "Stack callbacks that allocated a fresh command buffer.",
        /// Stack → simulator API calls (Table I system-call proxy).
        api_calls: "Stack-to-simulator API calls (Table I system-call proxy).",
        /// Protocol state-table insertions (Table I page-fault proxy).
        state_inserts: "Protocol state-table insertions (Table I page-fault proxy).",
        /// Nodes crashed by a fault plan (restartable).
        node_crashes: "Nodes crashed by a fault plan.",
        /// Crashed nodes rebooted with a fresh stack.
        node_restarts: "Crashed nodes rebooted with a fresh stack.",
        /// Dormant nodes booted late by a fault plan.
        node_joins: "Dormant nodes booted late by a fault plan.",
        /// Nodes removed permanently by a fault plan.
        node_leaves: "Nodes removed permanently by a fault plan.",
        /// Partition cuts applied (one per `Cut` action, however many links).
        partitions_cut: "Partition cuts applied.",
        /// Partition heals applied (one per `Heal` action).
        partitions_healed: "Partition heals applied.",
        /// In-range deliveries suppressed because the sender→receiver link was
        /// cut by an active partition.
        partition_drops: "In-range deliveries suppressed by an active partition.",
        /// Timer or delayed-send events that popped after their node's
        /// incarnation died (crash/leave/restart) and were suppressed instead of
        /// firing into the fresh stack. Their slab slots are still freed.
        stale_events_suppressed: "Events suppressed after their node incarnation died.",
    }
    with {
        /// Frames transmitted, broken down by protocol kind.
        pub tx_by_kind: BTreeMap<FrameKind, u64>,
        /// Per-receiver deliveries, broken down by protocol kind. The
        /// adversarial benches anchor their accounting here: a defense counter
        /// must equal the *deliveries* of the matching hostile kind (frames
        /// lost to collisions or channel loss were never seen, so they cannot
        /// be rejected).
        pub delivered_by_kind: BTreeMap<FrameKind, u64>,
        /// Per-node transmission counts, indexed by `NodeId.0`.
        pub tx_per_node: Vec<u64>,
    }
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

    /// Records one transmission's successful deliveries, `receivers` of
    /// them: what one call per receiver would add, in one kind lookup.
    pub(crate) fn record_deliveries(
        &mut self,
        kind: FrameKind,
        receivers: usize,
        payload_len: usize,
    ) {
        if receivers == 0 {
            return;
        }
        self.delivered += receivers as u64;
        self.delivered_payload_bytes += (receivers * payload_len) as u64;
        *self.delivered_by_kind.entry(kind).or_insert(0) += receivers as u64;
    }

    /// Folds another, independent run's counters into this one: a plain
    /// element-wise sum of every field (`tx_per_node` by index, the longer
    /// vector setting the length).
    pub fn merge(&mut self, other: &Stats) {
        self.merge_counters(other);
        for (kind, count) in &other.tx_by_kind {
            *self.tx_by_kind.entry(*kind).or_insert(0) += count;
        }
        for (kind, count) in &other.delivered_by_kind {
            *self.delivered_by_kind.entry(*kind).or_insert(0) += count;
        }
        if self.tx_per_node.len() < other.tx_per_node.len() {
            self.tx_per_node.resize(other.tx_per_node.len(), 0);
        }
        for (slot, n) in self.tx_per_node.iter_mut().zip(&other.tx_per_node) {
            *slot += n;
        }
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
    /// headers: each declared counter as `dapes_<name>_total`, then the
    /// per-kind breakdowns with a `kind` label. The bench binaries emit this
    /// dump next to their JSON reports and `checkjson` validates the shape,
    /// so scrape pipelines can ingest a run without parsing the report.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        self.visit(prometheus_counters(&mut out, "dapes_"));
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
        s.record_deliveries(FrameKind(8), 2, 100);
        s.record_deliveries(FrameKind(30), 1, 64);
        s.record_deliveries(FrameKind(31), 0, 64);
        assert_eq!(s.delivered, 3);
        assert_eq!(s.delivered_payload_bytes, 264);
        assert_eq!(s.delivered_by_kind[&FrameKind(8)], 2);
        assert_eq!(s.delivered_for_kinds(&[FrameKind(30)]), 1);
        assert_eq!(s.delivered_for_kinds(&[FrameKind(9)]), 0);
        assert!(
            !s.delivered_by_kind.contains_key(&FrameKind(31)),
            "no deliveries, no kind entry"
        );
    }

    #[test]
    fn prometheus_dump_has_help_type_and_values() {
        let mut s = Stats::new(1);
        s.record_tx(0, FrameKind(5), 40);
        s.record_deliveries(FrameKind(5), 1, 40);
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
        a.record_deliveries(FrameKind(5), 1, 10);
        let mut b = Stats::new(4);
        b.record_tx(3, FrameKind(5), 20);
        b.record_tx(3, FrameKind(6), 5);
        // Every declared counter gets a distinct value on each side, so a
        // counter the merge skipped or crossed with another shows up.
        let mut i = 0;
        a.visit_mut(|_, v| {
            i += 1;
            *v = i;
        });
        b.visit_mut(|_, v| {
            i += 1;
            *v = 100 * i;
        });
        let (mut before_a, mut before_b) = (Vec::new(), Vec::new());
        a.visit(|name, _, v| before_a.push((name, v)));
        b.visit(|_, _, v| before_b.push(v));
        a.merge(&b);
        let mut seen = 0;
        a.visit(|name, _, v| {
            assert_eq!(name, before_a[seen].0);
            assert_eq!(v, before_a[seen].1 + before_b[seen], "{name}");
            seen += 1;
        });
        assert_eq!(seen, before_a.len());
        let dump = a.to_prometheus();
        a.visit(|name, _, v| {
            assert!(
                dump.contains(&format!("\ndapes_{name}_total {v}\n")),
                "{name}"
            );
        });
        // The hand-merged fields: per-kind maps by key, per-node by index.
        assert_eq!(a.tx_by_kind[&FrameKind(5)], 2);
        assert_eq!(a.tx_by_kind[&FrameKind(6)], 1);
        assert_eq!(a.delivered_by_kind[&FrameKind(5)], 1);
        assert_eq!(a.tx_per_node, vec![1, 0, 0, 2]);
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
