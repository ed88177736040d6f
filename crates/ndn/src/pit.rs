//! The Pending Interest Table.
//!
//! The PIT records forwarded Interests awaiting Data (paper Fig. 1): it
//! aggregates same-name requests, suppresses duplicate nonces (which is what
//! stops broadcast re-flooding loops), and routes returning Data back to the
//! downstream faces that asked for it.

use crate::arena::{Arena, ArenaRef};
use crate::face::FaceId;
use crate::hash::FxBuildHasher;
use crate::name::Name;
use crate::tlv::TlvReader;
use dapes_netsim::time::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// One pending Interest.
#[derive(Clone, Debug)]
pub struct PitEntry {
    /// The Interest name.
    pub name: Name,
    /// Whether any aggregated Interest had CanBePrefix set.
    pub can_be_prefix: bool,
    /// Faces that asked for this data.
    pub downstreams: Vec<FaceId>,
    /// Nonces seen for this name (duplicate suppression).
    pub nonces: Vec<u32>,
    /// When the entry expires. Crate-private because [`Pit::expire`]'s
    /// watermark must see every write: aggregation only ever raises it.
    pub(crate) expiry: SimTime,
    /// When the Interest was last forwarded upstream (consumer
    /// retransmissions may re-forward after a suppression interval).
    pub last_forward: Option<SimTime>,
}

impl PitEntry {
    /// When the entry expires.
    pub fn expiry(&self) -> SimTime {
        self.expiry
    }

    /// Approximate bytes of state (Table I memory proxy).
    pub fn state_bytes(&self) -> usize {
        self.name.state_bytes() + self.downstreams.len() * 4 + self.nonces.len() * 4 + 32
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
/// Entries live in a generation-tagged [`Arena`]; the single *wire index* —
/// a hash map keyed by [`Name::to_wire_value`] — holds only `Copy` handles
/// into it. One index serves both pipelines: the full-decode path encodes
/// the Interest name once per probe, and peeked frames carry their name as
/// a borrowed byte slice the index answers duplicate-nonce and PIT-match
/// probes against directly — no `Name` is built, no component `Arc`s are
/// touched. Data-to-entry prefix matching probes component boundaries of
/// the wire key, which works because a name's canonical wire value
/// byte-extends all of its prefixes'. The index only ever holds canonical
/// encodings of valid names, so a frame with a non-canonical or malformed
/// name region simply misses and falls through to the full decode path.
///
/// Expiry is watermarked: `next_due` is a *lower bound* on the earliest
/// instant [`Pit::expire`] could remove anything. New entries lower it
/// with `min`, aggregation (which only raises an entry's expiry) and
/// removals leave it, and only a full scan raises it — to the exact
/// minimum over the survivors. Below the watermark `expire` returns at
/// once, so a periodic caller pays for entries that are due, not for
/// entries that are held.
#[derive(Clone, Debug)]
pub struct Pit {
    arena: Arena<PitEntry>,
    index: HashMap<Arc<[u8]>, ArenaRef, FxBuildHasher>,
    next_due: SimTime,
}

impl Default for Pit {
    fn default() -> Self {
        Pit {
            arena: Arena::new(),
            index: HashMap::default(),
            next_due: SimTime::FAR_FUTURE,
        }
    }
}

impl Pit {
    /// Creates an empty PIT.
    pub fn new() -> Self {
        Pit::default()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the PIT is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of state (entries plus the wire index).
    pub fn state_bytes(&self) -> usize {
        self.arena
            .values()
            .map(PitEntry::state_bytes)
            .sum::<usize>()
            + self.index.keys().map(|k| k.len() + 16).sum::<usize>()
    }

    /// Live entries in the slab arena (mirrors [`Pit::len`]; exported as
    /// the `pit_arena_live` stat).
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Arena slots ever allocated — bounded by peak concurrency, not by
    /// insert volume.
    pub fn arena_allocated(&self) -> usize {
        self.arena.allocated()
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
        self.insert_wired(name, &wire, nonce, can_be_prefix, ingress, expiry)
    }

    /// [`Pit::insert`] with the name's canonical wire value supplied by the
    /// caller, so a pipeline that already encoded it (for the Content Store
    /// probe, say) does not pay for a second encoding.
    pub fn insert_wired(
        &mut self,
        name: &Name,
        name_wire: &[u8],
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> PitInsert {
        debug_assert_eq!(&*name.to_wire_value(), name_wire);
        let Some(&handle) = self.index.get(name_wire) else {
            self.insert_new_peeked(
                name.clone(),
                name_wire,
                nonce,
                can_be_prefix,
                ingress,
                expiry,
            );
            return PitInsert::New;
        };
        let entry = self
            .arena
            .get_mut(handle)
            .expect("indexed handles are live");
        if entry.nonces.contains(&nonce) {
            return PitInsert::DuplicateNonce;
        }
        entry.nonces.push(nonce);
        entry.can_be_prefix |= can_be_prefix;
        entry.expiry = entry.expiry.max(expiry);
        if !entry.downstreams.contains(&ingress) {
            entry.downstreams.push(ingress);
        }
        PitInsert::Aggregated
    }

    /// [`Pit::insert`] specialized for a frame the resolution ladder has
    /// already proven absent (the decode-free commit): the caller passes
    /// the name's wire bytes, skipping the re-encode that [`Pit::insert`]
    /// would do, hands the `Name` over by value (the commit point is its
    /// only consumer — no clone), and gets the fresh entry back so
    /// `last_forward` can be stamped without a second probe.
    pub fn insert_new_peeked(
        &mut self,
        name: Name,
        name_wire: &[u8],
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> &mut PitEntry {
        debug_assert!(!self.contains_wire(name_wire), "caller proved absence");
        debug_assert_eq!(&*name.to_wire_value(), name_wire);
        self.next_due = self.next_due.min(expiry);
        let handle = self.arena.insert(PitEntry {
            name,
            can_be_prefix,
            downstreams: vec![ingress],
            nonces: vec![nonce],
            expiry,
            last_forward: None,
        });
        self.index.insert(name_wire.into(), handle);
        self.arena.get_mut(handle).expect("just inserted")
    }

    /// Whether a pending entry exists for `name` (exact).
    pub fn contains(&self, name: &Name) -> bool {
        self.contains_wire(&name.to_wire_value())
    }

    /// [`Pit::contains`] against a peeked frame's borrowed name bytes — one
    /// hash probe, no `Name` construction. Exactly the condition under
    /// which [`Pit::insert`] would *not* return [`PitInsert::New`].
    pub fn contains_wire(&self, name_wire: &[u8]) -> bool {
        self.index.contains_key(name_wire)
    }

    /// The entry recorded for a peeked frame's borrowed name bytes, if any
    /// — the one probe behind both the duplicate-nonce and the would-be-new
    /// checks, so the peek resolution ladder hashes the name bytes once.
    pub fn probe_wire(&self, name_wire: &[u8]) -> Option<&PitEntry> {
        let &h = self.index.get(name_wire)?;
        Some(self.arena.get(h).expect("indexed handles are live"))
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
            .is_some_and(|e| e.nonces.contains(&nonce))
    }

    /// Read-only mirror of [`Pit::take_matching`]: whether a Data packet
    /// named `data_name` would satisfy any pending entry (exact match or a
    /// CanBePrefix prefix entry).
    pub fn matches(&self, data_name: &Name) -> bool {
        self.matches_wire(&data_name.to_wire_value())
    }

    /// [`Pit::matches`] against a peeked frame's borrowed name bytes: the
    /// exact probe is one hash lookup, and prefix probes reuse the fact
    /// that a name's wire value extends all of its prefixes' wire values,
    /// so component boundaries found by a cheap TLV walk are the only
    /// candidate cut points.
    pub fn matches_wire(&self, name_wire: &[u8]) -> bool {
        if self.contains_wire(name_wire) {
            return true;
        }
        let mut r = TlvReader::new(name_wire);
        let mut boundary = 0usize;
        loop {
            // `boundary` ends a strict prefix of the name (k components).
            if self
                .probe_wire(&name_wire[..boundary])
                .is_some_and(|e| e.can_be_prefix)
            {
                return true;
            }
            if r.is_at_end() || r.read_tlv().is_err() {
                return false;
            }
            boundary = name_wire.len() - r.remaining();
            if boundary >= name_wire.len() {
                // The full name is not a strict prefix; the exact probe
                // already ran.
                return false;
            }
        }
    }

    /// Mutable access to an entry (forwarders update `last_forward`).
    pub fn entry_mut(&mut self, name: &Name) -> Option<&mut PitEntry> {
        let &handle = self.index.get(name.to_wire_value().as_slice())?;
        self.arena.get_mut(handle)
    }

    /// Removes the entry indexed under `key`, if any.
    fn evict(&mut self, key: &[u8]) -> Option<PitEntry> {
        let handle = self.index.remove(key)?;
        Some(self.arena.remove(handle).expect("indexed handles are live"))
    }

    /// Removes and returns all entries a Data packet with `data_name`
    /// satisfies: the exact-name entry first, then any prefix entries that
    /// were inserted with CanBePrefix — root first, then longer prefixes,
    /// as the boundary walk ascends.
    pub fn take_matching(&mut self, data_name: &Name) -> Vec<PitEntry> {
        let wire = data_name.to_wire_value();
        let mut matched = Vec::new();
        if let Some(e) = self.evict(&wire) {
            matched.push(e);
        }
        // Check strict prefixes for CanBePrefix entries: every prefix ends
        // at a component boundary of the wire value. Names are short
        // (typically <= 4 components), so this loop is cheap.
        let mut r = TlvReader::new(&wire);
        let mut boundary = 0usize;
        loop {
            let prefix = &wire[..boundary];
            if self.probe_wire(prefix).is_some_and(|e| e.can_be_prefix) {
                matched.push(self.evict(prefix).expect("just checked"));
            }
            if r.is_at_end() || r.read_tlv().is_err() {
                break;
            }
            boundary = wire.len() - r.remaining();
            if boundary >= wire.len() {
                // The full name is not a strict prefix; the exact probe
                // already ran.
                break;
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

    /// Removes entries that expired at or before `now`, returning their
    /// names in canonical order (DAPES pure forwarders start suppression
    /// timers off these, and callers may arm per-name timers — the sort
    /// keeps that order independent of hash-map iteration). Each expired
    /// entry leaves the arena *and* the wire index, so a stale
    /// dup-nonce/PIT-match can never be reported for an expired Interest.
    /// Returns without looking at the table (and without allocating) while
    /// nothing can be due.
    pub fn expire(&mut self, now: SimTime) -> Vec<Name> {
        if !self.expire_due(now) {
            return Vec::new();
        }
        let mut expired = Vec::new();
        let mut next_due = SimTime::FAR_FUTURE;
        let arena = &mut self.arena;
        self.index.retain(|_, &mut handle| {
            let expiry = arena.get(handle).expect("indexed handles are live").expiry;
            if expiry <= now {
                let mut e = arena.remove(handle).expect("just read");
                expired.push(std::mem::take(&mut e.name));
                false
            } else {
                next_due = next_due.min(expiry);
                true
            }
        });
        expired.sort_unstable();
        self.next_due = next_due;
        expired
    }
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
        assert_eq!(entries[0].downstreams, vec![FaceId::APP, FaceId::WIRELESS]);
        assert_eq!(entries[0].expiry, t(5), "expiry extended");
    }

    #[test]
    fn duplicate_nonce_detected() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        assert_eq!(
            pit.insert(&name("/a"), 1, false, FaceId::WIRELESS, t(4)),
            PitInsert::DuplicateNonce
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
        assert_eq!(probe.nonces, [1]);
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
        assert_eq!(entries[0].downstreams, vec![FaceId::APP]);
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
        assert_eq!(matched[0].name, name("/col"));
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
        assert_eq!(pit.expire(t(3)), Vec::<Name>::new());
        assert_eq!(pit.len(), 2);
        let expired = pit.expire(t(5));
        assert_eq!(expired, vec![name("/a")]);
        assert_eq!(pit.len(), 1);
        assert_eq!(pit.expire(t(5)), Vec::<Name>::new());
        assert!(
            !pit.expire_due(t(7)),
            "the scan raised the watermark to t=8"
        );
        assert_eq!(pit.expire(t(8)), vec![name("/b")]);
        assert!(pit.is_empty());
    }

    #[test]
    fn aggregation_cannot_hide_an_entry_and_an_earlier_insert_lowers_the_watermark() {
        let mut pit = Pit::new();
        assert!(!pit.expire_due(t(3600)), "nothing pending");
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        // Aggregating a shorter lifetime keeps the later expiry.
        pit.insert(&name("/a"), 2, false, FaceId::WIRELESS, t(2));
        assert_eq!(pit.expire(t(3)), Vec::<Name>::new());
        assert!(pit.contains(&name("/a")));
        pit.insert(&name("/b"), 3, false, FaceId::APP, t(9));
        assert_eq!(pit.expire(t(4)), vec![name("/a")]);
        assert!(!pit.expire_due(t(8)), "the scan found /b due at t=9");
        // An entry due before the watermark pulls it back down.
        pit.insert(&name("/c"), 4, false, FaceId::APP, t(6));
        assert!(pit.expire_due(t(6)));
        assert_eq!(pit.expire(t(6)), vec![name("/c")]);
        // Entries consumed by Data leave the watermark where it was:
        // the next sweep scans an empty table once and then rests.
        assert_eq!(pit.take_matching(&name("/b")).len(), 1);
        assert!(pit.expire_due(t(9)));
        assert_eq!(pit.expire(t(9)), Vec::<Name>::new());
        assert!(!pit.expire_due(t(3600)));
    }

    #[test]
    fn expire_reports_names_in_canonical_order() {
        let mut pit = Pit::new();
        for uri in ["/z/9", "/a/1", "/m", "/b/2/3"] {
            pit.insert(&name(uri), 1, false, FaceId::APP, t(4));
        }
        let expired = pit.expire(t(4));
        assert_eq!(
            expired,
            vec![name("/a/1"), name("/b/2/3"), name("/m"), name("/z/9")],
            "order must not depend on hash-map iteration"
        );
    }

    #[test]
    fn expire_evicts_the_wire_index_too() {
        // Regression: a desynced wire index would keep reporting stale
        // dup-nonce / PIT-match outcomes to the peek fast path after the
        // entry itself expired.
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 7, true, FaceId::APP, t(4));
        let key = name("/col/f/0").to_wire_value();
        assert!(pit.contains_wire(&key));
        assert!(pit.has_nonce_wire(&key, 7));
        assert!(pit.matches_wire(&name("/col/f/0/seg").to_wire_value()));
        let expired = pit.expire(t(4));
        assert_eq!(expired, vec![name("/col/f/0")]);
        assert!(!pit.contains_wire(&key), "wire entry must expire with it");
        assert!(!pit.has_nonce_wire(&key, 7));
        assert!(!pit.matches_wire(&name("/col/f/0/seg").to_wire_value()));
        assert_eq!(pit.arena_live(), 0, "arena slot must be freed");
    }

    #[test]
    fn take_matching_frees_arena_slots_for_reuse() {
        let mut pit = Pit::new();
        for round in 0..50u32 {
            pit.insert(&name("/a"), round, false, FaceId::APP, t(4));
            pit.insert(&name("/b"), round, false, FaceId::APP, t(4));
            assert_eq!(pit.arena_live(), 2);
            assert_eq!(pit.take_matching(&name("/a")).len(), 1);
            assert_eq!(pit.take_matching(&name("/b")).len(), 1);
        }
        assert_eq!(pit.arena_live(), 0);
        assert_eq!(
            pit.arena_allocated(),
            2,
            "allocation must track peak concurrency, not volume"
        );
    }

    #[test]
    fn state_bytes_reflect_entries() {
        let mut pit = Pit::new();
        assert_eq!(pit.state_bytes(), 0);
        pit.insert(&name("/a/b/c"), 1, false, FaceId::APP, t(4));
        assert!(pit.state_bytes() > 0);
    }
}
