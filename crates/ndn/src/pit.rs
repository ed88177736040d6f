//! The Pending Interest Table.
//!
//! The PIT records forwarded Interests awaiting Data (paper Fig. 1): it
//! aggregates same-name requests, suppresses duplicate nonces (which is what
//! stops broadcast re-flooding loops), and routes returning Data back to the
//! downstream faces that asked for it.

use crate::face::FaceId;
use crate::hash::FxBuildHasher;
use crate::name::{wire_value_is_well_formed, Name};
use crate::tlv::TlvReader;
use dapes_netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// How long past its expiry an entry must be before [`Pit::reclaim`] may
/// take it: DAPES's 100 ms tick, so an owner that calls [`Pit::expire`]
/// every tick has always removed first whatever `reclaim` could.
pub const RECLAIM_AFTER: SimDuration = SimDuration::from_millis(100);

/// One pending Interest. Its name is the wire key the [`Pit`] stores it
/// under; the entry itself is a few words.
#[derive(Clone, Debug)]
pub struct PitEntry {
    /// When the entry expires. Crate-private because the sweeps'
    /// watermark must see every write: aggregation only ever raises it.
    pub(crate) expiry: SimTime,
    /// When the Interest was last forwarded upstream, in µs, or
    /// [`NEVER_FORWARDED`]: a bare `u64` rather than an `Option<SimTime>`,
    /// which would take 16 bytes.
    last_forward: u64,
    /// Nonces and downstreams after the first, once an Interest aggregates.
    more: Option<Box<Aggregated>>,
    /// The first Interest's nonce.
    nonce: u32,
    /// The first Interest's ingress face.
    downstream: FaceId,
    /// Whether any aggregated Interest had CanBePrefix set. Crate-private
    /// because the table's count of such entries must see every write.
    pub(crate) can_be_prefix: bool,
}

// Relay swarms hold hundreds of thousands of entries per run: the common
// entry (one nonce, one face) must stay a few words, with no heap of its own.
const _: () = assert!(std::mem::size_of::<PitEntry>() <= 40);

/// `PitEntry::last_forward` of an entry never forwarded: no simulated run
/// reaches this instant (`SimTime::FAR_FUTURE` is a quarter of it).
const NEVER_FORWARDED: u64 = u64::MAX;

/// What aggregation adds to a [`PitEntry`] beyond its first Interest.
#[derive(Clone, Debug, Default)]
struct Aggregated {
    nonces: Vec<u32>,
    downstreams: Vec<FaceId>,
}

impl PitEntry {
    /// When the entry expires.
    pub fn expiry(&self) -> SimTime {
        self.expiry
    }

    /// When the Interest was last forwarded upstream; `None` until it is
    /// (consumer retransmissions may re-forward after a suppression
    /// interval).
    pub fn last_forward(&self) -> Option<SimTime> {
        (self.last_forward != NEVER_FORWARDED).then(|| SimTime::from_micros(self.last_forward))
    }

    /// Records that the Interest was forwarded upstream at `now`.
    pub(crate) fn set_last_forward(&mut self, now: SimTime) {
        debug_assert_ne!(now.as_micros(), NEVER_FORWARDED, "sentinel instant");
        self.last_forward = now.as_micros();
    }

    /// Faces that asked for this data, in arrival order, without repeats.
    pub fn downstreams(&self) -> impl Iterator<Item = FaceId> + '_ {
        let more = self.more.iter().flat_map(|m| m.downstreams.iter().copied());
        std::iter::once(self.downstream).chain(more)
    }

    /// Nonces seen for this name (duplicate suppression), in arrival order.
    pub fn nonces(&self) -> impl Iterator<Item = u32> + '_ {
        let more = self.more.iter().flat_map(|m| m.nonces.iter().copied());
        std::iter::once(self.nonce).chain(more)
    }

    /// Whether `nonce` was already recorded for this name.
    pub fn has_nonce(&self, nonce: u32) -> bool {
        self.nonces().any(|n| n == nonce)
    }

    /// Whether any aggregated Interest had CanBePrefix set, so that Data
    /// under a longer name also satisfies the entry.
    pub fn can_be_prefix(&self) -> bool {
        self.can_be_prefix
    }

    /// Approximate bytes of state (Table I memory proxy) of this entry
    /// stored under `key`: the name as a [`Name`] would hold it, four per
    /// downstream and nonce, 32 of fixed fields, then the key plus 16 of
    /// index overhead.
    fn state_bytes(&self, key: &[u8]) -> usize {
        let mut r = TlvReader::new(key);
        let mut name = 24;
        while let Ok((_, component)) = r.read_tlv() {
            name += component.len() + 8;
        }
        let per_interest = 4 * (self.downstreams().count() + self.nonces().count());
        name + per_interest + 32 + key.len() + 16
    }
}

/// Result of inserting an Interest into the PIT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PitInsert {
    /// First Interest for this name: forward it.
    New,
    /// Same name, new nonce, new downstream: aggregated, do not forward.
    Aggregated,
    /// Nonce already seen: a duplicate or loop, drop silently.
    DuplicateNonce,
}

/// The Pending Interest Table.
///
/// One hash map keyed by the name's canonical wire value
/// ([`Name::to_wire_value`]) owns every entry; no entry holds a [`Name`],
/// so none pins the frame its Interest arrived in. The map serves both
/// pipelines: the full-decode path encodes the Interest name once per
/// Interest, and peeked frames carry their name as a borrowed byte slice
/// the map answers duplicate-nonce and PIT-match probes against directly.
/// Data-to-entry prefix matching probes component boundaries of the wire
/// key, which works because a name's canonical wire value byte-extends all
/// of its prefixes'. The map only ever holds encodings of well-formed
/// names, so a frame with a malformed name region simply misses and falls
/// through to the full decode path.
///
/// [`Pit::state_bytes`] is a running total, kept at insert, aggregation
/// and removal, so reading it costs nothing. So is
/// [`Pit::prefix_entries`], the number of CanBePrefix entries: while it is
/// zero, Data matches at most its exact-name entry, and the prefix walk of
/// [`Pit::take_matching`] and [`Pit::matches_wire`] is skipped.
///
/// Expiry is watermarked: `next_due` is a *lower bound* on the earliest
/// instant [`Pit::expire`] could remove anything. New entries lower it
/// with `min`, aggregation (which only raises an entry's expiry) and
/// removals leave it, and only a full scan raises it — to the exact
/// minimum over the survivors. Below the watermark `expire` returns at
/// once, so a periodic caller pays for entries that are due, not for
/// entries that are held.
///
/// The table also bounds itself without an owner's sweep:
/// [`Pit::reclaim`], called by the forwarder on every Interest, scans once
/// the watermark trails the clock by `2 ×` [`RECLAIM_AFTER`] and takes the
/// entries `RECLAIM_AFTER` past their expiry. So no entry outlives its
/// expiry by more than `2 × RECLAIM_AFTER` past the next Interest, and the
/// table scans at most once per `RECLAIM_AFTER`.
#[derive(Clone, Debug)]
pub struct Pit {
    entries: HashMap<Box<[u8]>, PitEntry, FxBuildHasher>,
    state_bytes: usize,
    /// Entries with `can_be_prefix` set.
    prefix_entries: usize,
    next_due: SimTime,
}

impl Default for Pit {
    fn default() -> Self {
        Pit {
            entries: HashMap::default(),
            state_bytes: 0,
            prefix_entries: 0,
            next_due: SimTime::FAR_FUTURE,
        }
    }
}

impl Pit {
    /// Creates an empty PIT.
    pub fn new() -> Self {
        Pit::default()
    }

    /// Number of pending entries (exported as the `pit_arena_live` stat).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the PIT is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of state: [`PitEntry`]'s Table I formula summed
    /// over the entries.
    pub fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    /// Number of entries a Data packet may satisfy by prefix (CanBePrefix
    /// set), kept at insert, aggregation and removal.
    pub fn prefix_entries(&self) -> usize {
        self.prefix_entries
    }

    /// Records an incoming Interest: encodes the name once, then
    /// [`Pit::insert_wired`].
    pub fn insert(
        &mut self,
        name: &Name,
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> PitInsert {
        let wire = name.to_wire_value();
        self.insert_wired(&wire, nonce, can_be_prefix, ingress, expiry)
    }

    /// [`Pit::insert`] for a name already encoded to its canonical wire
    /// value, so a pipeline that encoded it (for the Content Store probe,
    /// say) does not pay for a second encoding.
    pub fn insert_wired(
        &mut self,
        name_wire: &[u8],
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> PitInsert {
        let Some(entry) = self.entries.get_mut(name_wire) else {
            self.insert_new_peeked(name_wire, nonce, can_be_prefix, ingress, expiry);
            return PitInsert::New;
        };
        if entry.has_nonce(nonce) {
            return PitInsert::DuplicateNonce;
        }
        let new_face = !entry.downstreams().any(|f| f == ingress);
        if can_be_prefix && !entry.can_be_prefix {
            entry.can_be_prefix = true;
            self.prefix_entries += 1;
        }
        entry.expiry = entry.expiry.max(expiry);
        let more = entry.more.get_or_insert_with(Box::default);
        more.nonces.push(nonce);
        self.state_bytes += 4;
        if new_face {
            more.downstreams.push(ingress);
            self.state_bytes += 4;
        }
        PitInsert::Aggregated
    }

    /// [`Pit::insert`] specialized for a name the caller has already proven
    /// absent (the decode-free commit): the entry is keyed by the frame's
    /// own name bytes — no `Name` is needed — and handed back so
    /// `last_forward` can be stamped without a second probe. `name_wire`
    /// must be well-formed.
    pub fn insert_new_peeked(
        &mut self,
        name_wire: &[u8],
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> &mut PitEntry {
        debug_assert!(!self.contains_wire(name_wire), "caller proved absence");
        debug_assert!(wire_value_is_well_formed(name_wire));
        self.next_due = self.next_due.min(expiry);
        let entry = PitEntry {
            expiry,
            last_forward: NEVER_FORWARDED,
            more: None,
            nonce,
            downstream: ingress,
            can_be_prefix,
        };
        self.state_bytes += entry.state_bytes(name_wire);
        self.prefix_entries += usize::from(can_be_prefix);
        self.entries.entry(name_wire.into()).or_insert(entry)
    }

    /// Whether a pending entry exists for `name` (exact).
    pub fn contains(&self, name: &Name) -> bool {
        self.contains_wire(&name.to_wire_value())
    }

    /// [`Pit::contains`] against a peeked frame's borrowed name bytes — one
    /// hash probe, no `Name` construction. Exactly the condition under
    /// which [`Pit::insert`] would *not* return [`PitInsert::New`].
    pub fn contains_wire(&self, name_wire: &[u8]) -> bool {
        self.entries.contains_key(name_wire)
    }

    /// The entry recorded for a peeked frame's borrowed name bytes, if any
    /// — the one probe behind both the duplicate-nonce and the would-be-new
    /// checks, so the peek resolution ladder hashes the name bytes once.
    pub fn probe_wire(&self, name_wire: &[u8]) -> Option<&PitEntry> {
        self.entries.get(name_wire)
    }

    /// Read-only duplicate check: whether `nonce` was already recorded for
    /// `name`. Exactly the condition under which [`Pit::insert`] returns
    /// [`PitInsert::DuplicateNonce`] without mutating anything.
    pub fn has_nonce(&self, name: &Name, nonce: u32) -> bool {
        self.has_nonce_wire(&name.to_wire_value(), nonce)
    }

    /// [`Pit::has_nonce`] against a peeked frame's borrowed name bytes —
    /// one hash probe, no `Name` construction.
    pub fn has_nonce_wire(&self, name_wire: &[u8], nonce: u32) -> bool {
        self.probe_wire(name_wire)
            .is_some_and(|e| e.has_nonce(nonce))
    }

    /// Read-only mirror of [`Pit::take_matching`]: whether a Data packet
    /// named `data_name` would satisfy any pending entry (exact match or a
    /// CanBePrefix prefix entry).
    pub fn matches(&self, data_name: &Name) -> bool {
        self.matches_wire(&data_name.to_wire_value())
    }

    /// [`Pit::matches`] against a peeked frame's borrowed name bytes: one
    /// hash probe for the exact name, then — while any CanBePrefix entry is
    /// pending — one per strict prefix.
    pub fn matches_wire(&self, name_wire: &[u8]) -> bool {
        self.contains_wire(name_wire)
            || (self.prefix_entries > 0
                && strict_prefix_ends(name_wire).any(|end| self.is_prefix_entry(&name_wire[..end])))
    }

    /// Whether a CanBePrefix entry is stored under `key`.
    fn is_prefix_entry(&self, key: &[u8]) -> bool {
        self.probe_wire(key).is_some_and(|e| e.can_be_prefix)
    }

    /// Mutable access to the entry for a canonical name wire value
    /// (forwarders stamp [`PitEntry::last_forward`]).
    pub fn entry_mut_wire(&mut self, name_wire: &[u8]) -> Option<&mut PitEntry> {
        self.entries.get_mut(name_wire)
    }

    /// Removes the entry stored under `key`, if any, with its key.
    fn evict(&mut self, key: &[u8]) -> Option<(Box<[u8]>, PitEntry)> {
        let (key, entry) = self.entries.remove_entry(key)?;
        self.state_bytes -= entry.state_bytes(&key);
        self.prefix_entries -= usize::from(entry.can_be_prefix);
        Some((key, entry))
    }

    /// Removes and returns, each with its name's wire value, all entries a
    /// Data packet with `data_name` satisfies: the exact-name entry first,
    /// then any prefix entries that were inserted with CanBePrefix — root
    /// first, then longer prefixes, as the boundary walk ascends.
    pub fn take_matching(&mut self, data_name: &Name) -> Vec<(Box<[u8]>, PitEntry)> {
        self.take_matching_wire(&data_name.to_wire_value())
    }

    /// [`Pit::take_matching`] for a Data name already encoded to its
    /// canonical wire value. The prefix walk runs only while a CanBePrefix
    /// entry is pending.
    pub(crate) fn take_matching_wire(&mut self, name_wire: &[u8]) -> Vec<(Box<[u8]>, PitEntry)> {
        let mut matched: Vec<_> = self.evict(name_wire).into_iter().collect();
        if self.prefix_entries == 0 {
            return matched;
        }
        for end in strict_prefix_ends(name_wire) {
            if self.is_prefix_entry(&name_wire[..end]) {
                matched.push(self.evict(&name_wire[..end]).expect("just checked"));
            }
        }
        matched
    }

    /// Whether [`Pit::expire`] at `now` would scan the table — `false`
    /// while `now` is below the watermark, when it is known to remove
    /// nothing.
    pub fn expire_due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Removes entries that expired at or before `now`, returning how many.
    /// Returns without looking at the table while nothing can be due.
    pub fn expire(&mut self, now: SimTime) -> usize {
        if !self.expire_due(now) {
            return 0;
        }
        self.sweep(now)
    }

    /// Removes entries at least [`RECLAIM_AFTER`] past their expiry,
    /// returning how many — but scans only once the watermark trails `now`
    /// by `2 ×` [`RECLAIM_AFTER`], so it costs one comparison per call
    /// between scans. An owner that calls [`Pit::expire`] every
    /// `RECLAIM_AFTER` never lets the watermark trail that far, and this
    /// never removes anything.
    pub fn reclaim(&mut self, now: SimTime) -> usize {
        if now.since(self.next_due) < RECLAIM_AFTER * 2 {
            return 0;
        }
        let cutoff = SimTime::from_micros(now.as_micros() - RECLAIM_AFTER.as_micros());
        self.sweep(cutoff)
    }

    /// Removes every entry that expires at or before `cutoff` and raises
    /// the watermark to the earliest expiry left.
    fn sweep(&mut self, cutoff: SimTime) -> usize {
        let before = self.entries.len();
        let mut next_due = SimTime::FAR_FUTURE;
        let (state_bytes, prefix_entries) = (&mut self.state_bytes, &mut self.prefix_entries);
        self.entries.retain(|key, e| {
            if e.expiry <= cutoff {
                *state_bytes -= e.state_bytes(key);
                *prefix_entries -= usize::from(e.can_be_prefix);
                false
            } else {
                next_due = next_due.min(e.expiry);
                true
            }
        });
        self.next_due = next_due;
        before - self.entries.len()
    }
}

/// Where the wire value of each strict prefix of the name `wire` ends: the
/// root (0), then every component boundary short of the full name — the
/// only cut points, since a name's wire value byte-extends its prefixes'.
/// A malformed region ends the walk early.
fn strict_prefix_ends(wire: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut r = TlvReader::new(wire);
    let boundaries = std::iter::from_fn(move || {
        r.read_tlv().ok()?;
        Some(wire.len() - r.remaining())
    });
    std::iter::once(0).chain(boundaries.take_while(move |&end| end < wire.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn name(uri: &str) -> Name {
        Name::from_uri(uri)
    }

    /// The sentinel is not an instant a forward can carry: a forward at
    /// t = 0 reads back as `Some(ZERO)`, a never-forwarded entry as `None`.
    #[test]
    fn last_forward_tells_a_forward_at_zero_from_none() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        pit.insert(&name("/b"), 2, false, FaceId::APP, t(4));
        let a = pit.entry_mut_wire(&name("/a").to_wire_value()).expect("a");
        assert_eq!(a.last_forward(), None);
        a.set_last_forward(SimTime::ZERO);
        assert_eq!(a.last_forward(), Some(SimTime::ZERO));
        let b = pit.probe_wire(&name("/b").to_wire_value()).expect("b");
        assert_eq!(b.last_forward(), None, "never forwarded");
        let a = pit.entry_mut_wire(&name("/a").to_wire_value()).expect("a");
        a.set_last_forward(SimTime::FAR_FUTURE);
        assert_eq!(a.last_forward(), Some(SimTime::FAR_FUTURE));
    }

    #[test]
    fn first_insert_is_new() {
        let mut pit = Pit::new();
        assert_eq!(
            pit.insert(&name("/a"), 1, false, FaceId::APP, t(4)),
            PitInsert::New
        );
        assert!(pit.contains(&name("/a")));
    }

    #[test]
    fn same_name_new_nonce_aggregates() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        assert_eq!(
            pit.insert(&name("/a"), 2, false, FaceId::WIRELESS, t(5)),
            PitInsert::Aggregated
        );
        let entries = pit.take_matching(&name("/a"));
        assert_eq!(entries.len(), 1);
        let (_, entry) = &entries[0];
        assert_eq!(
            entry.downstreams().collect::<Vec<_>>(),
            [FaceId::APP, FaceId::WIRELESS]
        );
        assert_eq!(entry.nonces().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(entry.expiry, t(5), "expiry extended");
    }

    #[test]
    fn duplicate_nonce_detected() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        assert_eq!(
            pit.insert(&name("/a"), 1, false, FaceId::WIRELESS, t(4)),
            PitInsert::DuplicateNonce
        );
        pit.insert(&name("/a"), 2, false, FaceId::WIRELESS, t(4));
        assert_eq!(
            pit.insert(&name("/a"), 2, false, FaceId::APP, t(4)),
            PitInsert::DuplicateNonce,
            "an aggregated nonce is remembered too"
        );
    }

    #[test]
    fn has_nonce_mirrors_duplicate_insert() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        assert!(pit.has_nonce(&name("/a"), 1));
        assert!(!pit.has_nonce(&name("/a"), 2));
        assert!(!pit.has_nonce(&name("/b"), 1));
    }

    #[test]
    fn probe_wire_is_the_single_ladder_probe() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        let key = name("/a").to_wire_value();
        let probe = pit.probe_wire(&key).expect("present");
        assert_eq!(probe.nonces().collect::<Vec<_>>(), [1]);
        assert!(!probe.can_be_prefix);
        assert!(pit.probe_wire(&name("/b").to_wire_value()).is_none());
    }

    #[test]
    fn matches_mirrors_take_matching_without_mutating() {
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 1, false, FaceId::APP, t(4));
        pit.insert(&name("/col"), 2, true, FaceId::APP, t(4));
        pit.insert(&name("/other"), 3, false, FaceId::APP, t(4));
        assert!(pit.matches(&name("/col/f/0")), "exact entry");
        assert!(pit.matches(&name("/col/f/9")), "CanBePrefix prefix entry");
        assert!(
            !pit.matches(&name("/other/x")),
            "non-CBP prefix is no match"
        );
        assert!(!pit.matches(&name("/elsewhere")));
        assert_eq!(pit.len(), 3, "probe must not consume entries");
    }

    #[test]
    fn same_downstream_not_duplicated() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        pit.insert(&name("/a"), 2, false, FaceId::APP, t(4));
        let entries = pit.take_matching(&name("/a"));
        assert_eq!(
            entries[0].1.downstreams().collect::<Vec<_>>(),
            [FaceId::APP]
        );
    }

    #[test]
    fn data_matches_exact_entry() {
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 1, false, FaceId::APP, t(4));
        assert_eq!(pit.take_matching(&name("/col/f/0")).len(), 1);
        assert!(pit.is_empty());
    }

    #[test]
    fn data_matches_can_be_prefix_entry() {
        let mut pit = Pit::new();
        pit.insert(&name("/col"), 1, true, FaceId::APP, t(4));
        let matched = pit.take_matching(&name("/col/f/0"));
        assert_eq!(matched.len(), 1);
        assert_eq!(*matched[0].0, *name("/col").to_wire_value());
    }

    #[test]
    fn data_does_not_match_non_prefix_entry() {
        let mut pit = Pit::new();
        pit.insert(&name("/col"), 1, false, FaceId::APP, t(4));
        assert!(pit.take_matching(&name("/col/f/0")).is_empty());
        assert!(pit.contains(&name("/col")), "entry still pending");
    }

    #[test]
    fn data_matches_exact_and_prefix_simultaneously() {
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 1, false, FaceId::APP, t(4));
        pit.insert(&name("/col"), 2, true, FaceId::WIRELESS, t(4));
        let matched = pit.take_matching(&name("/col/f/0"));
        assert_eq!(matched.len(), 2);
    }

    #[test]
    fn root_can_be_prefix_entry_matches_everything() {
        let mut pit = Pit::new();
        pit.insert(&Name::root(), 1, true, FaceId::APP, t(4));
        assert!(pit.matches(&name("/any/thing")));
        assert_eq!(pit.take_matching(&name("/any/thing")).len(), 1);
        assert!(pit.is_empty());
    }

    #[test]
    fn expiry_removes_and_reports() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        pit.insert(&name("/b"), 2, false, FaceId::APP, t(8));
        assert!(!pit.expire_due(t(3)), "first expiry is t=4");
        assert_eq!(pit.expire(t(3)), 0);
        assert_eq!(pit.len(), 2);
        assert_eq!(pit.expire(t(5)), 1);
        assert!(!pit.contains(&name("/a")));
        assert!(pit.contains(&name("/b")));
        assert_eq!(pit.expire(t(5)), 0);
        assert!(
            !pit.expire_due(t(7)),
            "the scan raised the watermark to t=8"
        );
        assert_eq!(pit.expire(t(8)), 1);
        assert!(pit.is_empty());
    }

    #[test]
    fn aggregation_cannot_hide_an_entry_and_an_earlier_insert_lowers_the_watermark() {
        let mut pit = Pit::new();
        assert!(!pit.expire_due(t(3600)), "nothing pending");
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        // Aggregating a shorter lifetime keeps the later expiry.
        pit.insert(&name("/a"), 2, false, FaceId::WIRELESS, t(2));
        assert_eq!(pit.expire(t(3)), 0);
        assert!(pit.contains(&name("/a")));
        pit.insert(&name("/b"), 3, false, FaceId::APP, t(9));
        assert_eq!(pit.expire(t(4)), 1);
        assert!(!pit.contains(&name("/a")));
        assert!(!pit.expire_due(t(8)), "the scan found /b due at t=9");
        // An entry due before the watermark pulls it back down.
        pit.insert(&name("/c"), 4, false, FaceId::APP, t(6));
        assert!(pit.expire_due(t(6)));
        assert_eq!(pit.expire(t(6)), 1);
        assert!(!pit.contains(&name("/c")));
        // Entries consumed by Data leave the watermark where it was:
        // the next sweep scans an empty table once and then rests.
        assert_eq!(pit.take_matching(&name("/b")).len(), 1);
        assert!(pit.expire_due(t(9)));
        assert_eq!(pit.expire(t(9)), 0);
        assert!(!pit.expire_due(t(3600)));
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_micros(millis * 1_000)
    }

    #[test]
    fn reclaim_waits_for_the_watermark_to_trail_by_two_grace_periods() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, ms(1_000));
        pit.insert(&name("/b"), 2, false, FaceId::APP, ms(1_150));
        pit.insert(&name("/c"), 3, false, FaceId::APP, ms(1_250));
        // Expired, but the watermark (t=1.0) trails by less than 200 ms.
        assert_eq!(pit.reclaim(ms(1_199)), 0);
        assert_eq!(pit.len(), 3);
        // At t=1.2 it scans and takes what is 100 ms past expiry: /a only.
        assert_eq!(pit.reclaim(ms(1_200)), 1);
        assert!(!pit.contains(&name("/a")));
        assert!(pit.contains(&name("/b")), "expired 50 ms ago: still held");
        assert!(pit.contains(&name("/c")), "not expired");
        assert_eq!(
            pit.state_bytes(),
            2 * (24 + 9 + 8 + 32 + 3 + 16),
            "its bytes leave the total"
        );
        // The scan raised the watermark to /b's expiry, t=1.15.
        assert_eq!(pit.reclaim(ms(1_349)), 0);
        assert_eq!(pit.reclaim(ms(1_350)), 2);
        assert!(pit.is_empty());
        assert_eq!(pit.state_bytes(), 0);
    }

    #[test]
    fn reclaim_finds_nothing_behind_an_expire_every_grace_period() {
        // An owner sweeping every `RECLAIM_AFTER` keeps the watermark ahead
        // of the last sweep, so `reclaim` never scans, let alone removes.
        let mut pit = Pit::new();
        let mut removed = 0;
        for step in 0..100u64 {
            let now = ms(step * 100);
            for k in 0..3u64 {
                let uri = format!("/n/{step}/{k}");
                let expiry = now + SimDuration::from_millis(1 + 137 * k);
                pit.insert(&name(&uri), 1, false, FaceId::APP, expiry);
                for late in 1..=100 {
                    let at = now + SimDuration::from_millis(late);
                    assert_eq!(pit.reclaim(at), 0, "at {at:?}");
                }
            }
            removed += pit.expire(now + RECLAIM_AFTER);
        }
        assert!(removed > 0);
    }

    #[test]
    fn expire_evicts_the_wire_index_too() {
        // Regression: a stale key would keep reporting dup-nonce /
        // PIT-match outcomes to the peek fast path after the entry itself
        // expired.
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 7, true, FaceId::APP, t(4));
        let key = name("/col/f/0").to_wire_value();
        assert!(pit.contains_wire(&key));
        assert!(pit.has_nonce_wire(&key, 7));
        assert!(pit.matches_wire(&name("/col/f/0/seg").to_wire_value()));
        assert_eq!(pit.expire(t(4)), 1);
        assert!(!pit.contains_wire(&key), "wire entry must expire with it");
        assert!(!pit.has_nonce_wire(&key, 7));
        assert!(!pit.matches_wire(&name("/col/f/0/seg").to_wire_value()));
        assert_eq!(pit.len(), 0);
        assert_eq!(pit.state_bytes(), 0, "its bytes leave the total");
    }

    #[test]
    fn take_matching_frees_arena_slots_for_reuse() {
        // A satisfied entry's key and bytes leave the table with it, round
        // after round.
        let mut pit = Pit::new();
        for round in 0..50u32 {
            pit.insert(&name("/a"), round, false, FaceId::APP, t(4));
            pit.insert(&name("/b"), round, false, FaceId::APP, t(4));
            assert_eq!(pit.len(), 2);
            assert_eq!(pit.take_matching(&name("/a")).len(), 1);
            assert_eq!(pit.take_matching(&name("/b")).len(), 1);
            assert_eq!(pit.state_bytes(), 0);
        }
        assert!(pit.is_empty());
    }

    #[test]
    fn state_bytes_reflect_entries() {
        let mut pit = Pit::new();
        assert_eq!(pit.state_bytes(), 0);
        pit.insert(&name("/a/b/c"), 1, false, FaceId::APP, t(4));
        // Name 24 + 3 x (1 + 8), one face and one nonce 4 + 4, fixed 32,
        // key 3 x 3 + 16.
        assert_eq!(pit.state_bytes(), 51 + 8 + 32 + 25);
        pit.insert(&name("/a/b/c"), 2, false, FaceId::APP, t(4));
        assert_eq!(pit.state_bytes(), 116 + 4, "a nonce, no new face");
        pit.insert(&name("/a/b/c"), 3, false, FaceId::WIRELESS, t(4));
        assert_eq!(pit.state_bytes(), 120 + 8, "a nonce and a face");
        pit.take_matching(&name("/a/b/c"));
        assert_eq!(pit.state_bytes(), 0);
    }
}
