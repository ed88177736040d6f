//! DAPES configuration: the axes the paper's figures and the gates vary,
//! and the protocol timings they all share as named constants.

use crate::metadata::MetadataFormat;
use crate::rpf::{RpfVariant, StartPacket};
use dapes_ndn::pit::RECLAIM_AFTER;
use dapes_netsim::time::SimDuration;

/// The random transmission window for data/Interest jitter and the base of
/// the linear advertisement prioritization (paper §IV-F: 20 ms).
pub const TX_WINDOW: SimDuration = SimDuration::from_millis(20);
/// PEBA slot length, roughly one bitmap's air time (paper §IV-F, footnote 4).
pub const SLOT_LEN: SimDuration = SimDuration::from_millis(2);
/// Outstanding content (and catalog) Interests per download. The paper
/// gives no depth; this is the one every golden pin and benchmark
/// fingerprint was recorded with.
pub const FETCH_WINDOW: usize = 4;
/// Base retransmission timeout for content/metadata Interests. The
/// effective timeout doubles per retransmission (bounded exponential
/// backoff, README "Fault model & recovery") up to [`RETX_BACKOFF_CAP`].
pub const RETX_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Give up re-expressing a packet after this many retransmissions and
/// requeue it: the 0.5 s → 4 s ladder then spans under half a minute, which
/// the faults gate's 30 s partition cell is sized to outlast (`dapes-bench`
/// `faults`).
pub const MAX_RETX: u32 = 8;
/// Ceiling on the per-packet backed-off retransmission timeout. Keeps a
/// downloader probing at a bounded rate through a partition or a crashed
/// upstream instead of backing off into silence.
pub const RETX_BACKOFF_CAP: SimDuration = SimDuration::from_secs(4);
/// Fastest discovery beacon period (paper §IV-B: frequent while peers are
/// around); also the window the first beacons are staggered over.
pub const DISCOVERY_MIN: SimDuration = SimDuration::from_secs(1);
/// Slowest discovery beacon period, the cap of the isolation backoff
/// (paper §IV-B).
pub const DISCOVERY_MAX: SimDuration = SimDuration::from_secs(8);
/// Window within which a heard peer keeps discovery at [`DISCOVERY_MIN`].
pub const DISCOVERY_RECENT: SimDuration = SimDuration::from_secs(5);
/// Neighbors unheard for this long drop out of knowledge and encounters:
/// the "short-lived knowledge" of paper §V.
pub const NEIGHBOR_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// Interval between advertisement rounds while downloading (paper §IV-D).
pub const ADVERT_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Encounter-history capacity of the encounter-based RPF (paper §IV-E).
pub const ENCOUNTER_HISTORY: usize = 16;
/// How long a forwarded Interest may wait for data before its name is
/// suppressed (paper §V-A).
pub const RESPONSE_TIMEOUT: SimDuration = SimDuration::from_millis(400);
/// How long a suppression lasts (paper §V-A).
pub const SUPPRESS_DURATION: SimDuration = SimDuration::from_secs(2);
/// Housekeeping tick (retransmissions, expiry sweeps). A fixed-period poll
/// (DESIGN.md, "The 100 ms tick stays a fixed-period poll"), no longer than
/// the forwarder's PIT reclaim grace (asserted below; DESIGN.md, "The
/// forwarder reclaims a PIT entry 100 ms after it expires").
pub const TICK: SimDuration = SimDuration::from_millis(100);
/// How far in the past a sealed announcement's timestamp may lie before it
/// is rejected as a replay (alongside the per-producer high-water mark,
/// which catches re-injections inside the window). Must exceed the longest
/// benign re-serve path — a discovery reply answered from a neighbor's
/// Content Store within its 1 s freshness, or a bitmap reply served inside
/// its [`ADVERT_INTERVAL`] round — with margin.
pub const REPLAY_WINDOW: SimDuration = SimDuration::from_secs(5);
/// Producers unheard for this long are swept from the replay table — the
/// stale-peer expiry of the authenticated discovery set (the dedup/expiry
/// rules of SNIPPETS.md, Snippet 2).
pub const PEER_TTL: SimDuration = SimDuration::from_secs(10);
/// Producer marks the replay table holds before evicting the stalest: well
/// above the 44 nodes of the paper's scenario (§VI-B1).
pub const REPLAY_GUARD_CAPACITY: usize = 256;
/// How long an overheard Interest nonce stays journaled: four replay
/// windows, so a re-injection is still recognized, after which entries age
/// out.
pub const NONCE_RETENTION: SimDuration = SimDuration::from_micros(REPLAY_WINDOW.as_micros() * 4);

// Random draws span `0..TX_WINDOW` and `0..DISCOVERY_MIN`, and the windowed
// requests take `FETCH_WINDOW` at a time: each must be non-empty.
const _: () = assert!(TX_WINDOW.as_micros() > 0);
const _: () = assert!(DISCOVERY_MIN.as_micros() > 0);
const _: () = assert!(FETCH_WINDOW > 0);
// The backoff ladder doubles a non-zero base and stops at a cap above it.
const _: () = assert!(RETX_TIMEOUT.as_micros() > 0);
const _: () = assert!(RETX_TIMEOUT.as_micros() <= RETX_BACKOFF_CAP.as_micros());
// A tick must sweep the PIT before the forwarder's own reclaim could take
// anything, or the reclaim would move DAPES traces.
const _: () = assert!(TICK.as_micros() <= RECLAIM_AFTER.as_micros());

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

/// DAPES peer configuration: only what some figure, gate or test varies
/// (DESIGN.md, "A value no caller varies is a named constant").
/// Defaults follow the paper's §VI-B setup.
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
    /// Content Store memory budget in bytes (wire-size accounted). When
    /// set, it replaces the forwarder's default packet-count cap; `None`
    /// keeps the count-capped store. Either way the store evicts FIFO.
    pub cs_budget_bytes: Option<usize>,
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
            cs_budget_bytes: None,
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
        assert_eq!(TX_WINDOW, SimDuration::from_millis(20));
    }

    #[test]
    fn dapes_config_holds_only_the_varied_axes() {
        // No `..`: a new field must be added here, next to the caller that
        // varies it (DESIGN.md), or it belongs with the constants above.
        let DapesConfig {
            rpf: _,
            start: _,
            schedule: _,
            peba: _,
            multihop: _,
            forward_prob: _,
            metadata_format: _,
            cs_budget_bytes,
        } = DapesConfig::default();
        assert_eq!(cs_budget_bytes, None);
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
    fn replay_windows_are_paper_scale() {
        assert_eq!(REPLAY_WINDOW, SimDuration::from_secs(5));
        assert_eq!(PEER_TTL, SimDuration::from_secs(10));
        assert_eq!(NONCE_RETENTION, SimDuration::from_secs(20));
    }
}
