//! The metric names, units and bounds — the one table `BENCHMARK.json`, the
//! runner, the report and `compare` all agree on.

use dapes_core::stats::kinds;
use dapes_netsim::radio::FrameKind;

/// An end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen between
    /// two sets of runs over *different* seeds (the `bound` in
    /// `BENCHMARK.json`).
    pub bound: f64,
    /// Share by which it may worsen between two reports of the *same* seed
    /// (what `compare` applies). Simulated metrics must repeat; the small
    /// allowance only absorbs decimal printing.
    pub same_seed_bound: f64,
    /// With a same-seed comparison, the metric must also be worse by more
    /// than this much, in its own unit, to count as worse: set-up lasts
    /// milliseconds, where a quarter more is a scheduler hiccup.
    pub same_seed_slack: f64,
    /// Simulated metrics are identical in every repetition of a seed.
    pub simulated: bool,
}

/// The seven end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        same_seed_bound: 0.05,
        same_seed_slack: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        same_seed_bound: 0.25,
        same_seed_slack: 0.05,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.15,
        same_seed_bound: 0.05,
        same_seed_slack: 0.0,
        simulated: false,
    },
    EndToEnd {
        name: "download_time_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        same_seed_bound: 0.005,
        same_seed_slack: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "swarm_complete_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        same_seed_bound: 0.005,
        same_seed_slack: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "tx_frames",
        unit: "count",
        higher_is_better: false,
        bound: 0.25,
        same_seed_bound: 0.005,
        same_seed_slack: 0.0,
        simulated: true,
    },
    EndToEnd {
        name: "ops_done_share",
        unit: "share",
        higher_is_better: true,
        bound: 0.01,
        same_seed_bound: 0.0,
        same_seed_slack: 0.0,
        simulated: true,
    },
];

/// A per-layer metric: name, unit, whether higher is better.
pub type PerLayer = (&'static str, &'static str, bool);

/// DAPES frame kinds with the label used in metric names.
pub const DAPES_KINDS: [(FrameKind, &str); 8] = [
    (kinds::DISCOVERY_INTEREST, "discovery_interest"),
    (kinds::DISCOVERY_DATA, "discovery_data"),
    (kinds::METADATA_INTEREST, "metadata_interest"),
    (kinds::METADATA_DATA, "metadata_data"),
    (kinds::BITMAP_INTEREST, "bitmap_interest"),
    (kinds::BITMAP_DATA, "bitmap_data"),
    (kinds::CONTENT_INTEREST, "content_interest"),
    (kinds::CONTENT_DATA, "content_data"),
];

/// The per-layer metrics, from one traced run. Layers are the crates, plus
/// `loadgen` (the benchmark's own stack and driver loop) and `trace`.
/// Every workload reports every one; a layer a workload does not run
/// reports zeros, which is itself the control ("`core` = `ndn` = `crypto` =
/// 0 on `paper-baselines`").
pub const PER_LAYER: [PerLayer; 89] = [
    ("netsim.self_s", "s", false),
    ("netsim.self_ns_per_event", "ns", false),
    ("netsim.setup_s", "s", false),
    ("netsim.run_until_calls", "count", false),
    ("netsim.events", "count", false),
    ("netsim.arrival_events", "count", false),
    ("netsim.delivered", "count", false),
    ("netsim.delivered_payload_bytes", "bytes", false),
    ("netsim.collision_drops", "count", false),
    ("netsim.channel_losses", "count", false),
    ("netsim.mac_deferrals", "count", false),
    ("netsim.delivery_ratio", "share", true),
    ("netsim.cmd_pool_misses", "count", false),
    ("netsim.timer_slots_allocated", "count", false),
    ("core.on_start_s", "s", false),
    ("core.on_frame_s", "s", false),
    ("core.on_frame_calls", "count", false),
    ("core.on_timer_s", "s", false),
    ("core.on_timer_calls", "count", false),
    ("core.on_tx_done_s", "s", false),
    ("core.frame_s.discovery_interest", "s", false),
    ("core.frame_s.discovery_data", "s", false),
    ("core.frame_s.metadata_interest", "s", false),
    ("core.frame_s.metadata_data", "s", false),
    ("core.frame_s.bitmap_interest", "s", false),
    ("core.frame_s.bitmap_data", "s", false),
    ("core.frame_s.content_interest", "s", false),
    ("core.frame_s.content_data", "s", false),
    ("core.frames.discovery_interest", "count", false),
    ("core.frames.discovery_data", "count", false),
    ("core.frames.metadata_interest", "count", false),
    ("core.frames.metadata_data", "count", false),
    ("core.frames.bitmap_interest", "count", false),
    ("core.frames.bitmap_data", "count", false),
    ("core.frames.content_interest", "count", false),
    ("core.frames.content_data", "count", false),
    ("core.collection_build_s", "s", false),
    ("core.interests_sent", "count", false),
    ("core.retransmissions", "count", false),
    ("core.retx_give_ups", "count", false),
    ("core.data_received", "count", false),
    ("core.packets_verified", "count", true),
    ("core.verify_failures", "count", false),
    ("core.packets_served", "count", false),
    ("core.bitmaps_sent", "count", false),
    ("core.bitmaps_heard", "count", false),
    ("core.bitmaps_cancelled", "count", true),
    ("core.peba_backoffs", "count", false),
    ("core.discovery_sent", "count", false),
    ("core.interests_forwarded", "count", false),
    ("core.useful_data_ratio", "share", true),
    ("core.retx_ratio", "share", false),
    ("core.forward_accuracy", "share", true),
    ("core.live_state_bytes_peak", "bytes", false),
    ("ndn.frames_peek_resolved", "count", true),
    ("ndn.peek_cs_hits", "count", true),
    ("ndn.peek_dup_nonces", "count", false),
    ("ndn.peek_fib_drops", "count", false),
    ("ndn.peek_unsolicited_data", "count", false),
    ("ndn.peek_relayed", "count", false),
    ("ndn.frames_relay_patched", "count", true),
    ("ndn.full_decodes", "count", false),
    ("ndn.fast_path_share", "share", true),
    ("ndn.peek_ns_per_frame", "ns", false),
    ("ndn.decode_ns_per_frame", "ns", false),
    ("ndn.decode_s_est", "s", false),
    ("ndn.forwarder_s", "s", false),
    ("ndn.forwarder_calls", "count", false),
    ("crypto.sha256_mb_per_s", "MB/s", true),
    ("crypto.leaf_hash_ns_per_kib", "ns", false),
    ("crypto.hmac_ns_per_advert", "ns", false),
    ("crypto.segment_verify_s_est", "s", false),
    ("crypto.advert_auth_s_est", "s", false),
    ("crypto.merkle_build_s", "s", false),
    ("baselines.bithoc.wall_s", "s", false),
    ("baselines.bithoc.on_frame_s", "s", false),
    ("baselines.bithoc.on_timer_s", "s", false),
    ("baselines.bithoc.download_time_s", "s", false),
    ("baselines.bithoc.tx_frames", "count", false),
    ("baselines.bithoc.ops_failed", "count", false),
    ("baselines.ekta.wall_s", "s", false),
    ("baselines.ekta.on_frame_s", "s", false),
    ("baselines.ekta.on_timer_s", "s", false),
    ("baselines.ekta.download_time_s", "s", false),
    ("baselines.ekta.tx_frames", "count", false),
    ("baselines.ekta.ops_failed", "count", false),
    ("loadgen.self_s", "s", false),
    ("trace.overhead_pct", "%", false),
    ("trace.spans", "count", false),
];
