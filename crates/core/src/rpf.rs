//! Rarest-Piece-First data fetching strategies (paper §IV-E).
//!
//! Two rarity estimators are implemented:
//!
//! * [`RpfVariant::LocalNeighborhood`] — rarity counts how many *currently
//!   connected* peers lack a packet; the list expires with the encounter
//!   (no long-term state).
//! * [`RpfVariant::EncounterBased`] — rarity is estimated over a bounded
//!   history of bitmaps from previously encountered peers.
//!
//! Ties are broken by sequence position ("same packet" start) or by a
//! per-peer pseudo-random shuffle ("random packet" start), the design knob
//! of Fig. 9a.

use crate::bitmap::Bitmap;
use std::collections::VecDeque;

/// Which RPF flavour a peer runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RpfVariant {
    /// Rarity across the current neighborhood (default; paper's winner).
    #[default]
    LocalNeighborhood,
    /// Rarity across a bounded history of encountered peers.
    EncounterBased,
}

/// Tie-breaking order for equally rare packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StartPacket {
    /// Everyone starts from the same (lowest-index) packet.
    Same,
    /// Each peer starts from a per-peer random permutation (the paper shows
    /// this downloads 11–15 % faster by diversifying replication).
    #[default]
    Random,
}

/// Bounded FIFO of bitmaps from encountered peers, for
/// [`RpfVariant::EncounterBased`].
#[derive(Clone, Debug)]
pub struct EncounterHistory {
    bitmaps: VecDeque<(u32, Bitmap)>,
    capacity: usize,
}

impl EncounterHistory {
    /// Creates a history remembering at most `capacity` peers.
    pub fn new(capacity: usize) -> Self {
        EncounterHistory {
            bitmaps: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Records (or refreshes) a peer's bitmap.
    pub fn record(&mut self, peer: u32, bitmap: Bitmap) {
        self.bitmaps.retain(|(p, _)| *p != peer);
        self.bitmaps.push_back((peer, bitmap));
        while self.bitmaps.len() > self.capacity {
            self.bitmaps.pop_front();
        }
    }

    /// Bitmaps currently remembered.
    pub fn bitmaps(&self) -> impl Iterator<Item = &Bitmap> {
        self.bitmaps.iter().map(|(_, b)| b)
    }

    /// Number of remembered peers.
    pub fn len(&self) -> usize {
        self.bitmaps.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.bitmaps.is_empty()
    }

    /// Approximate heap bytes (Table I memory proxy).
    pub fn state_bytes(&self) -> usize {
        self.bitmaps.iter().map(|(_, b)| b.state_bytes() + 4).sum()
    }
}

/// Computes per-packet rarity: how many of `bitmaps` *lack* each packet.
/// Higher is rarer. Packets nobody advertises score `bitmaps.len()`; bits
/// past a shorter bitmap's end are unknown, not missing.
///
/// Counts a word at a time: each word's clear bits, masked to the packets
/// the bitmap covers, add one apiece to their packets' counts.
pub fn rarity_counts<'a, I>(total_packets: usize, bitmaps: I) -> Vec<u32>
where
    I: IntoIterator<Item = &'a Bitmap>,
{
    let mut rarity = vec![0u32; total_packets];
    for bm in bitmaps {
        let known = bm.len().min(total_packets);
        for (counts, &word) in rarity[..known].chunks_mut(64).zip(bm.words()) {
            let missing = !word;
            for (bit, count) in counts.iter_mut().enumerate() {
                *count += (missing >> bit) as u32 & 1;
            }
        }
    }
    rarity
}

/// A deterministic per-peer tie-break key (SplitMix64 of the index).
fn shuffle_key(seed: u64, idx: usize) -> u64 {
    let mut z = seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Produces the fetch order for `missing` packets: descending rarity, ties
/// broken per `start`.
///
/// `seed` individualises the [`StartPacket::Random`] shuffle per peer.
/// Each packet's `(rarity, tie-break, index)` key is computed once and the
/// keys sorted unstably: the index makes every key distinct, so the order
/// is the one a stable sort by `(rarity, tie-break)` of ascending indices
/// gives.
pub fn fetch_order(
    missing: impl IntoIterator<Item = usize>,
    rarity: &[u32],
    start: StartPacket,
    seed: u64,
) -> Vec<usize> {
    let mut keyed: Vec<(std::cmp::Reverse<u32>, u64, usize)> = missing
        .into_iter()
        .map(|i| {
            let tie = match start {
                StartPacket::Same => i as u64,
                StartPacket::Random => shuffle_key(seed, i),
            };
            (
                std::cmp::Reverse(rarity.get(i).copied().unwrap_or(0)),
                tie,
                i,
            )
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, _, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(bits: &str) -> Bitmap {
        let mut b = Bitmap::new(bits.len());
        for (i, c) in bits.chars().enumerate() {
            if c == '1' {
                b.set(i);
            }
        }
        b
    }

    #[test]
    fn rarity_counts_missing_peers() {
        let b1 = bm("1100");
        let b2 = bm("1010");
        let rarity = rarity_counts(4, [&b1, &b2]);
        // packet 0: both have -> 0; packet 1: b2 lacks -> 1;
        // packet 2: b1 lacks -> 1; packet 3: both lack -> 2.
        assert_eq!(rarity, vec![0, 1, 1, 2]);
    }

    #[test]
    fn rarity_with_no_bitmaps_is_zero() {
        assert_eq!(rarity_counts(3, []), vec![0, 0, 0]);
    }

    #[test]
    fn rarity_handles_shorter_bitmaps() {
        let short = bm("10");
        let rarity = rarity_counts(4, [&short]);
        assert_eq!(
            rarity,
            vec![0, 1, 0, 0],
            "bits past the bitmap are unknown, not missing"
        );
    }

    #[test]
    fn fetch_order_puts_rarest_first() {
        let rarity = vec![0, 3, 1, 2];
        let order = fetch_order(0..4, &rarity, StartPacket::Same, 0);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn same_start_breaks_ties_by_index() {
        let rarity = vec![1, 1, 1, 1];
        let order = fetch_order(0..4, &rarity, StartPacket::Same, 99);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_start_differs_per_seed_but_is_deterministic() {
        let rarity = vec![1; 64];
        let o1 = fetch_order(0..64, &rarity, StartPacket::Random, 7);
        let o2 = fetch_order(0..64, &rarity, StartPacket::Random, 7);
        let o3 = fetch_order(0..64, &rarity, StartPacket::Random, 8);
        assert_eq!(o1, o2, "same seed, same order");
        assert_ne!(o1, o3, "different seeds diversify");
        let mut sorted = o1;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "permutation");
    }

    #[test]
    fn random_start_still_respects_rarity() {
        let mut rarity = vec![0; 10];
        rarity[7] = 5;
        let order = fetch_order(0..10, &rarity, StartPacket::Random, 3);
        assert_eq!(order[0], 7, "rarest packet always first");
    }

    #[test]
    fn fetch_order_restricted_to_missing() {
        let rarity = vec![9, 8, 7, 6];
        let order = fetch_order([1, 3], &rarity, StartPacket::Same, 0);
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn encounter_history_bounded_fifo() {
        let mut h = EncounterHistory::new(2);
        h.record(1, bm("10"));
        h.record(2, bm("01"));
        h.record(3, bm("11"));
        assert_eq!(h.len(), 2);
        let peers: Vec<u32> = h.bitmaps.iter().map(|(p, _)| *p).collect();
        assert_eq!(peers, vec![2, 3], "oldest evicted");
    }

    #[test]
    fn encounter_history_refresh_moves_to_back() {
        let mut h = EncounterHistory::new(2);
        h.record(1, bm("10"));
        h.record(2, bm("01"));
        h.record(1, bm("11")); // refresh peer 1
        h.record(3, bm("00"));
        let peers: Vec<u32> = h.bitmaps.iter().map(|(p, _)| *p).collect();
        assert_eq!(peers, vec![1, 3], "peer 2 evicted, refreshed 1 survives");
    }

    #[test]
    fn local_vs_encounter_rarity_can_disagree() {
        // Current neighborhood has packet 0 everywhere; the history says
        // packet 0 is rare in the swarm.
        let neighbor = bm("11");
        let mut history = EncounterHistory::new(4);
        history.record(5, bm("01"));
        history.record(6, bm("01"));
        let local = rarity_counts(2, [&neighbor]);
        let enc = rarity_counts(2, history.bitmaps());
        assert!(local[0] < enc[0]);
    }
}
