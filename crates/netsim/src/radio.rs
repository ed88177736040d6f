//! Radio/PHY modelling: frames, frame kinds, and 802.11b timing.

use crate::node::NodeId;
use crate::payload::Payload;
use crate::time::SimDuration;
use std::fmt;

/// Protocol-assigned tag identifying what a frame carries, used for the
/// per-kind overhead breakdowns of the paper's Fig. 9b/9h/10b.
///
/// Kind values are allocated by the protocol crates; the simulator treats
/// them opaquely. By convention `0` is "unknown".
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FrameKind(pub u16);

impl FrameKind {
    /// The default "unclassified" kind.
    pub const UNKNOWN: FrameKind = FrameKind(0);
}

impl fmt::Debug for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kind#{}", self.0)
    }
}

/// A broadcast MAC frame in flight or delivered.
///
/// The payload is a shared immutable buffer: one broadcast is encoded once
/// and the same allocation is observed by every receiver (and by any
/// upper-layer wire cache that re-forwards it), instead of being cloned per
/// receiver.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Transmitting node.
    pub src: NodeId,
    /// Protocol tag for accounting.
    pub kind: FrameKind,
    /// Upper-layer bytes (e.g. an NDN Interest/Data wire encoding).
    pub payload: Payload,
    /// Globally unique transmission sequence number.
    pub seq: u64,
}

// IEEE 802.11b at 11 Mb/s, as in the paper (§VI-B1). No caller varies
// these; the one PHY value a run chooses is `WorldConfig::loss_rate`.

/// Payload bit rate in megabits per second (== bits per µs).
pub const RATE_MBPS: f64 = 11.0;

/// PLCP preamble + header duration prepended to every frame.
pub const PREAMBLE: SimDuration = SimDuration::from_micros(192);

/// MAC slot time (backoff quantum).
pub const SLOT: SimDuration = SimDuration::from_micros(20);

/// DIFS idle period before transmission after busy medium.
pub const DIFS: SimDuration = SimDuration::from_micros(50);

/// How long a transmission must have been on the air before other nodes'
/// carrier sense detects it. Two nodes starting within this window of each
/// other collide — the effect PEBA's slotting is designed around.
pub const SENSE_DELAY: SimDuration = SimDuration::from_micros(15);

/// MAC header + FCS bytes added to every payload.
pub const MAC_HEADER_BYTES: usize = 34;

/// Initial contention window in slots (doubles on deferral).
pub const CW_MIN: u32 = 32;

/// Maximum contention window in slots.
pub const CW_MAX: u32 = 1024;

/// Air time of a frame with `payload_len` upper-layer bytes: the preamble
/// plus the payload and MAC header at [`RATE_MBPS`], rounded up to a µs.
pub fn tx_duration(payload_len: usize) -> SimDuration {
    let bits = ((payload_len + MAC_HEADER_BYTES) * 8) as f64;
    let micros = bits / RATE_MBPS; // Mb/s == bits/µs
    PREAMBLE + SimDuration::from_micros(micros.ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn default_matches_80211b() {
        assert_eq!(RATE_MBPS, 11.0);
        assert_eq!(WorldConfig::default().loss_rate, 0.10);
    }

    #[test]
    fn tx_duration_scales_with_size() {
        let small = tx_duration(100);
        let large = tx_duration(1000);
        assert!(large > small);
        // 1 KB + 34 B header at 11 Mb/s ≈ 753 µs + 192 µs preamble.
        let expect = 192 + ((1024 + 34) * 8) as u64 * 100 / 1100;
        let got = tx_duration(1024).as_micros();
        assert!(
            (got as i64 - expect as i64).abs() <= 2,
            "got {got}, expect ~{expect}"
        );
    }

    #[test]
    fn zero_payload_still_costs_preamble_and_header() {
        assert!(tx_duration(0) > PREAMBLE);
    }

    #[test]
    fn air_bytes_includes_header() {
        // 100 payload bytes put 134 on the air: 1072 bits, 97.45 µs at
        // 11 Mb/s, rounded up.
        assert_eq!(tx_duration(100), PREAMBLE + SimDuration::from_micros(98));
    }
}
