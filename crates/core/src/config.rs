//! DAPES configuration: every design knob the paper evaluates.

use crate::metadata::MetadataFormat;
use crate::rpf::{RpfVariant, StartPacket};
use dapes_netsim::time::SimDuration;

/// How many bitmaps to collect in an encounter before/while fetching data
/// (the Fig. 9c/9d sweep).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BitmapBudget {
    /// Collect up to this many bitmaps.
    Count(u32),
    /// Collect the bitmap of every interested peer in range.
    #[default]
    All,
}

impl BitmapBudget {
    /// The effective target given how many interested neighbors are known.
    pub fn target(&self, interested_neighbors: usize) -> usize {
        match *self {
            BitmapBudget::Count(n) => (n as usize).min(interested_neighbors.max(1)),
            BitmapBudget::All => interested_neighbors.max(1),
        }
    }
}

/// When data fetching starts relative to bitmap collection (paper §IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdvertSchedule {
    /// Exchange the budgeted bitmaps first, then fetch data (Fig. 9c).
    BitmapsFirst(BitmapBudget),
    /// Start fetching after the first bitmap, keep collecting up to the
    /// budget (Fig. 9d; the paper's winner and default).
    Interleaved(BitmapBudget),
}

impl Default for AdvertSchedule {
    fn default() -> Self {
        AdvertSchedule::Interleaved(BitmapBudget::All)
    }
}

impl AdvertSchedule {
    /// The bitmap budget regardless of scheduling flavour.
    pub fn budget(&self) -> BitmapBudget {
        match *self {
            AdvertSchedule::BitmapsFirst(b) | AdvertSchedule::Interleaved(b) => b,
        }
    }

    /// Bitmaps required before data fetching may begin.
    pub fn required_before_fetch(&self, interested_neighbors: usize) -> usize {
        match self {
            AdvertSchedule::BitmapsFirst(b) => b.target(interested_neighbors),
            AdvertSchedule::Interleaved(_) => 1,
        }
    }
}

/// Full DAPES peer configuration. Defaults follow the paper's §VI-B setup.
#[derive(Clone, Debug)]
pub struct DapesConfig {
    /// RPF flavour (paper default: local neighborhood).
    pub rpf: RpfVariant,
    /// Tie-break / start-packet policy.
    pub start: StartPacket,
    /// Bitmap scheduling.
    pub schedule: AdvertSchedule,
    /// PEBA collision mitigation on bitmap transmissions.
    pub peba: bool,
    /// Multi-hop forwarding enabled.
    pub multihop: bool,
    /// Forwarding probability without knowledge (paper default 20 %).
    pub forward_prob: f64,
    /// Metadata encoding for produced collections.
    pub metadata_format: MetadataFormat,
    /// The random transmission window for data/Interest jitter (paper:
    /// 20 ms).
    pub tx_window: SimDuration,
    /// PEBA slot length.
    pub slot_len: SimDuration,
    /// Outstanding content Interests per download.
    pub fetch_window: usize,
    /// Base retransmission timeout for content/metadata Interests. The
    /// effective timeout doubles per retransmission (bounded exponential
    /// backoff) up to [`retx_backoff_cap`](Self::retx_backoff_cap).
    pub retx_timeout: SimDuration,
    /// Give up re-expressing a packet after this many retransmissions and
    /// requeue it.
    pub max_retx: u32,
    /// Ceiling on the per-packet backed-off retransmission timeout. Keeps a
    /// downloader probing at a bounded rate through a partition or a crashed
    /// upstream instead of backing off into silence.
    pub retx_backoff_cap: SimDuration,
    /// Fastest discovery beacon period.
    pub discovery_min: SimDuration,
    /// Slowest discovery beacon period (isolation backoff cap).
    pub discovery_max: SimDuration,
    /// Window within which a heard peer keeps discovery fast.
    pub discovery_recent: SimDuration,
    /// Neighbors unheard for this long drop out of knowledge/encounters.
    pub neighbor_timeout: SimDuration,
    /// Interval between advertisement rounds while downloading.
    pub advert_interval: SimDuration,
    /// Encounter-history capacity (encounter-based RPF).
    pub encounter_history: usize,
    /// Content Store capacity in packets (used when `cs_budget_bytes`
    /// is unset).
    pub cs_capacity: usize,
    /// Content Store memory budget in bytes (wire-size accounted). When
    /// set, it replaces the packet-count cap; `None` keeps the
    /// count-capped store. Either way the store evicts FIFO.
    pub cs_budget_bytes: Option<usize>,
    /// How long a forwarded Interest may wait for data before suppression.
    pub response_timeout: SimDuration,
    /// How long a suppression lasts.
    pub suppress_duration: SimDuration,
    /// Housekeeping tick (retransmissions, expiry sweeps).
    pub tick: SimDuration,
    /// Seal bitmap advertisements and discovery replies in the signed
    /// envelope ([`crate::auth`]): a monotonic per-producer timestamp plus
    /// a trust-anchor signature over the payload, verified (and
    /// replay-checked) before any announcement touches protocol state.
    /// Default-on; toggling it off reproduces the pre-authentication wire
    /// format byte for byte, so benign golden traces stay bit-identical
    /// with the adversarial axis disabled.
    pub signed_adverts: bool,
    /// How far in the past a sealed announcement's timestamp may lie before
    /// it is rejected as a replay (alongside the per-producer high-water
    /// mark, which catches re-injections inside the window). Must exceed
    /// the longest benign re-serve path — a discovery reply answered from
    /// a neighbor's Content Store within its 1 s freshness, or a bitmap
    /// reply served inside its ~2 s advertisement round — with margin.
    pub replay_window_ms: u64,
    /// Producers unheard for this long are swept from the replay table —
    /// the stale-peer expiry of the authenticated discovery set.
    pub peer_ttl_ms: u64,
}

impl Default for DapesConfig {
    fn default() -> Self {
        DapesConfig {
            rpf: RpfVariant::LocalNeighborhood,
            start: StartPacket::Random,
            schedule: AdvertSchedule::default(),
            peba: true,
            multihop: true,
            forward_prob: 0.20,
            metadata_format: MetadataFormat::MerkleRoots,
            tx_window: SimDuration::from_millis(20),
            slot_len: SimDuration::from_millis(2),
            fetch_window: 4,
            retx_timeout: SimDuration::from_millis(500),
            max_retx: 8,
            retx_backoff_cap: SimDuration::from_secs(4),
            discovery_min: SimDuration::from_secs(1),
            discovery_max: SimDuration::from_secs(8),
            discovery_recent: SimDuration::from_secs(5),
            neighbor_timeout: SimDuration::from_secs(5),
            advert_interval: SimDuration::from_secs(2),
            encounter_history: 16,
            cs_capacity: 4096,
            cs_budget_bytes: None,
            response_timeout: SimDuration::from_millis(400),
            suppress_duration: SimDuration::from_secs(2),
            tick: SimDuration::from_millis(100),
            signed_adverts: true,
            replay_window_ms: 5_000,
            peer_ttl_ms: 10_000,
        }
    }
}

impl DapesConfig {
    /// The paper's single-hop configuration (Fig. 9g baseline).
    pub fn single_hop() -> Self {
        DapesConfig {
            multihop: false,
            ..DapesConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = DapesConfig::default();
        assert_eq!(c.rpf, RpfVariant::LocalNeighborhood);
        assert_eq!(c.schedule, AdvertSchedule::Interleaved(BitmapBudget::All));
        assert!(c.peba);
        assert!(c.multihop);
        assert!((c.forward_prob - 0.2).abs() < 1e-12);
        assert_eq!(c.tx_window, SimDuration::from_millis(20));
    }

    #[test]
    fn budget_targets() {
        assert_eq!(BitmapBudget::Count(2).target(5), 2);
        assert_eq!(BitmapBudget::Count(4).target(2), 2, "capped at neighbors");
        assert_eq!(BitmapBudget::All.target(3), 3);
        assert_eq!(BitmapBudget::All.target(0), 1, "never zero");
    }

    #[test]
    fn schedule_gating() {
        let first = AdvertSchedule::BitmapsFirst(BitmapBudget::Count(3));
        assert_eq!(first.required_before_fetch(5), 3);
        assert_eq!(first.required_before_fetch(1), 1);
        let inter = AdvertSchedule::Interleaved(BitmapBudget::Count(3));
        assert_eq!(
            inter.required_before_fetch(5),
            1,
            "interleaved starts after 1"
        );
        assert_eq!(inter.budget(), BitmapBudget::Count(3));
    }

    #[test]
    fn single_hop_disables_multihop_only() {
        let c = DapesConfig::single_hop();
        assert!(!c.multihop);
        assert!(c.peba);
    }

    #[test]
    fn signed_adverts_default_on_with_paper_scale_windows() {
        let c = DapesConfig::default();
        assert!(c.signed_adverts);
        assert_eq!(c.replay_window_ms, 5_000);
        assert_eq!(c.peer_ttl_ms, 10_000);
    }
}
