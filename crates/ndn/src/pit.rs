//! The Pending Interest Table.
//!
//! The PIT records forwarded Interests awaiting Data (paper Fig. 1): it
//! aggregates same-name requests, suppresses duplicate nonces (which is what
//! stops broadcast re-flooding loops), and routes returning Data back to the
//! downstream faces that asked for it.

use crate::face::FaceId;
use crate::hash::hash_wire;
use crate::name::{wire_value_is_well_formed, Name};
use crate::tlv::TlvReader;
use dapes_netsim::time::{SimDuration, SimTime};

/// How long past its expiry an entry must be before [`Pit::reclaim`] may
/// take it: DAPES's 100 ms tick, so an owner that calls [`Pit::expire`]
/// every tick has always removed first whatever `reclaim` could.
pub const RECLAIM_AFTER: SimDuration = SimDuration::from_millis(100);

/// One pending Interest. Its name is the wire key the [`Pit`] stores it
/// under, beside it; the entry itself is a few words.
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
    /// This entry's share of [`Pit::state_bytes`]: the Table I formula
    /// ([`PitEntry::recount_state_bytes`]) worked out once at insert and
    /// raised by each aggregation, so removal subtracts it without walking
    /// the key's TLVs again.
    state_bytes: u32,
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
        self.nonce == nonce
            || self
                .more
                .as_ref()
                .is_some_and(|m| m.nonces.contains(&nonce))
    }

    /// Whether any aggregated Interest had CanBePrefix set, so that Data
    /// under a longer name also satisfies the entry.
    pub fn can_be_prefix(&self) -> bool {
        self.can_be_prefix
    }

    /// Approximate bytes of state (Table I memory proxy) of this entry
    /// stored under `key`, worked out from scratch: the name as a [`Name`]
    /// would hold it, four per downstream and nonce, 32 of fixed fields,
    /// then the key plus 16 of index overhead. The table keeps each
    /// entry's figure instead of recounting it ([`Pit::audit`] checks the
    /// two agree).
    fn recount_state_bytes(&self, key: &[u8]) -> usize {
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

/// Keys up to this many bytes sit inline in their record, which then
/// holds key and entry in 80 bytes. Every relay-swarm name fits.
const INLINE_KEY: usize = 38;

/// A name's canonical wire value as a table key: inline when short,
/// boxed beyond [`INLINE_KEY`].
#[derive(Clone, Debug)]
enum WireKey {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Boxed(Box<[u8]>),
}

impl WireKey {
    fn new(wire: &[u8]) -> Self {
        if wire.len() > INLINE_KEY {
            return WireKey::Boxed(wire.into());
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..wire.len()].copy_from_slice(wire);
        WireKey::Inline {
            len: wire.len() as u8,
            bytes,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            WireKey::Inline { len, bytes } => &bytes[..usize::from(*len)],
            WireKey::Boxed(b) => b,
        }
    }
}

/// One stored entry with its key: a record of the dense table.
#[derive(Clone, Debug)]
struct Record {
    entry: PitEntry,
    key: WireKey,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 80);

/// An index slot: 0 when empty, else the key hash's top eight bits (the
/// tag) over the record's position plus one in [`RECORD_BITS`] bits — four
/// bytes, so a node's whole index stays a few cache lines.
type Slot = u32;

const RECORD_BITS: u32 = 24;

/// The most records one table holds: what a slot can address.
const MAX_RECORDS: usize = (1 << RECORD_BITS) - 1;

fn slot(hash: u64, record: usize) -> Slot {
    (tag(hash) << RECORD_BITS) | (record as u32 + 1)
}

fn tag(hash: u64) -> u32 {
    (hash >> 56) as u32
}

fn slot_tag(s: Slot) -> u32 {
    s >> RECORD_BITS
}

fn slot_record(s: Slot) -> usize {
    (s & MAX_RECORDS as u32).wrapping_sub(1) as usize
}

/// Where a key with this hash starts probing: hash bits below the tag's.
fn home(hash: u64, mask: usize) -> usize {
    (hash >> 32) as usize & mask
}

/// Where one probe found a name, or where it would go: handed from
/// [`Pit::probe`] to [`Pit::insert_probed`] so recording an Interest the
/// pipeline already looked up costs no second probe. Valid until the
/// table next changes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PitSlot {
    hash: u64,
    /// `Ok(record)` when present, `Err(slot)` — the empty index slot the
    /// name would take, or `usize::MAX` while the index is unallocated.
    at: Result<usize, usize>,
}

/// The Pending Interest Table.
///
/// Entries live in one dense vector of records, each holding its name's
/// canonical wire value ([`Name::to_wire_value`]) beside the entry —
/// inline for every name up to 38 bytes — so no entry holds a
/// [`Name`] or pins the frame its Interest arrived in. An open-addressing
/// index (linear probing, at most half full) maps a key's hash to its
/// record; each four-byte slot carries the hash's top eight bits as a
/// tag, so a probe reads a record only on a tag match, and addresses up
/// to `2^24 − 1` records. A lookup is therefore one index line and then
/// the record — the duplicate-nonce hit, the pipeline's commonest
/// outcome, reads nothing else. Removal shifts the probe run back (no
/// tombstones) and moves the last record into the hole. Neither the
/// index nor the vector shrinks: a table sits at its peak size, and
/// re-growing after each sweep would cost more than it saves. So the
/// vector grows by a quarter at a time (at least four records), not by
/// doubling: past sixteen records, at most a fifth of what it keeps for
/// the run is slack.
///
/// A received Interest's view carries its name as a borrowed byte slice,
/// which the table answers duplicate-nonce and PIT-match probes against
/// directly. Data-to-entry prefix matching probes component boundaries of
/// the wire key, which works because a name's canonical wire value
/// byte-extends all of its prefixes'. The table only ever holds encodings
/// of well-formed names, so a frame with a malformed name region simply
/// misses. Nothing the table returns depends on its hash order.
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
    index: Vec<Slot>,
    records: Vec<Record>,
    state_bytes: usize,
    /// Entries with `can_be_prefix` set.
    prefix_entries: usize,
    next_due: SimTime,
}

impl Default for Pit {
    fn default() -> Self {
        Pit {
            index: Vec::new(),
            records: Vec::new(),
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
        self.records.len()
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

    /// Looks `name_wire` up: one index probe.
    #[inline]
    pub(crate) fn probe(&self, name_wire: &[u8]) -> PitSlot {
        let hash = hash_wire(name_wire);
        PitSlot {
            hash,
            at: self.find(hash, name_wire),
        }
    }

    fn find(&self, hash: u64, key: &[u8]) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(usize::MAX);
        }
        let mask = self.index.len() - 1;
        let mut i = home(hash, mask);
        loop {
            let s = self.index[i];
            if s == 0 {
                return Err(i);
            }
            if slot_tag(s) == tag(hash) && self.records[slot_record(s)].key.as_slice() == key {
                return Ok(slot_record(s));
            }
            i = (i + 1) & mask;
        }
    }

    /// The entry a probe found, if any.
    pub(crate) fn probed(&self, probe: PitSlot) -> Option<&PitEntry> {
        probe.at.ok().map(|r| &self.records[r].entry)
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
            .0
    }

    /// [`Pit::insert`] for a name's canonical wire value — a received
    /// Interest's own name bytes, which must be well-formed — handing back
    /// the entry too, so the forwarder stamps `last_forward` without a
    /// second probe.
    pub fn insert_wired(
        &mut self,
        name_wire: &[u8],
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> (PitInsert, &mut PitEntry) {
        let probe = self.probe(name_wire);
        self.insert_probed(probe, name_wire, nonce, can_be_prefix, ingress, expiry)
    }

    /// [`Pit::insert_wired`] where `probe` is what [`Pit::probe`] returned
    /// for `name_wire` with the table unchanged since: records the Interest
    /// without probing again (unless the index must grow first).
    pub(crate) fn insert_probed(
        &mut self,
        probe: PitSlot,
        name_wire: &[u8],
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> (PitInsert, &mut PitEntry) {
        debug_assert_eq!(
            probe.at.ok(),
            self.find(probe.hash, name_wire).ok(),
            "stale probe"
        );
        let mut vacant = match probe.at {
            Ok(r) => return self.aggregate(r, nonce, can_be_prefix, ingress, expiry),
            Err(vacant) => vacant,
        };
        debug_assert!(wire_value_is_well_formed(name_wire));
        assert!(
            self.records.len() < MAX_RECORDS,
            "a PIT holds at most {MAX_RECORDS} entries"
        );
        if (self.records.len() + 1) * 2 > self.index.len() {
            self.grow();
            vacant = self
                .find(probe.hash, name_wire)
                .expect_err("the name is not in the table");
        }
        self.next_due = self.next_due.min(expiry);
        let mut entry = PitEntry {
            expiry,
            last_forward: NEVER_FORWARDED,
            more: None,
            nonce,
            downstream: ingress,
            state_bytes: 0,
            can_be_prefix,
        };
        let bytes = entry.recount_state_bytes(name_wire);
        entry.state_bytes = bytes as u32;
        self.state_bytes += bytes;
        self.prefix_entries += usize::from(can_be_prefix);
        self.index[vacant] = slot(probe.hash, self.records.len());
        if self.records.len() == self.records.capacity() {
            self.records.reserve_exact((self.records.len() / 4).max(4));
        }
        self.records.push(Record {
            entry,
            key: WireKey::new(name_wire),
        });
        let record = self.records.last_mut().expect("just pushed");
        (PitInsert::New, &mut record.entry)
    }

    /// Adds an Interest with a new nonce to record `r`, or reports its
    /// nonce a duplicate.
    fn aggregate(
        &mut self,
        r: usize,
        nonce: u32,
        can_be_prefix: bool,
        ingress: FaceId,
        expiry: SimTime,
    ) -> (PitInsert, &mut PitEntry) {
        let entry = &mut self.records[r].entry;
        if entry.has_nonce(nonce) {
            return (PitInsert::DuplicateNonce, entry);
        }
        let new_face = !entry.downstreams().any(|f| f == ingress);
        if can_be_prefix && !entry.can_be_prefix {
            entry.can_be_prefix = true;
            self.prefix_entries += 1;
        }
        entry.expiry = entry.expiry.max(expiry);
        let more = entry.more.get_or_insert_with(Box::default);
        more.nonces.push(nonce);
        let mut added = 4;
        if new_face {
            more.downstreams.push(ingress);
            added += 4;
        }
        entry.state_bytes += added;
        self.state_bytes += added as usize;
        (PitInsert::Aggregated, entry)
    }

    /// Doubles the index (eight slots at first) and re-slots every record.
    fn grow(&mut self) {
        let len = (self.index.len() * 2).max(8);
        self.index = vec![0; len];
        self.reindex();
    }

    /// Clears the index and slots every record again, by position.
    fn reindex(&mut self) {
        self.index.fill(0);
        let mask = self.index.len().wrapping_sub(1);
        for (r, record) in self.records.iter().enumerate() {
            let hash = hash_wire(record.key.as_slice());
            let mut i = home(hash, mask);
            while self.index[i] != 0 {
                i = (i + 1) & mask;
            }
            self.index[i] = slot(hash, r);
        }
    }

    /// Whether a pending entry exists for `name` (exact).
    pub fn contains(&self, name: &Name) -> bool {
        self.probe_wire(&name.to_wire_value()).is_some()
    }

    /// The entry recorded under a name's wire value, if any: one probe.
    pub fn probe_wire(&self, name_wire: &[u8]) -> Option<&PitEntry> {
        self.probed(self.probe(name_wire))
    }

    /// Whether a Data packet named by `name_wire` would satisfy any
    /// pending entry (exact match or a CanBePrefix prefix entry) — the
    /// read-only mirror of [`Pit::take_matching`]: one probe for the exact
    /// name, then, while any CanBePrefix entry is pending, one per strict
    /// prefix.
    pub fn matches_wire(&self, name_wire: &[u8]) -> bool {
        self.probe_wire(name_wire).is_some()
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
        let r = self.probe(name_wire).at.ok()?;
        Some(&mut self.records[r].entry)
    }

    /// Removes the entry stored under `key`, if any; its key goes with
    /// its record.
    fn evict(&mut self, key: &[u8]) -> Option<PitEntry> {
        let hash = hash_wire(key);
        let r = self.find(hash, key).ok()?;
        let hole = self.slot_of(hash, r);
        self.unslot(hole);
        let last = self.records.len() - 1;
        if r != last {
            // The last record moves into `r`: re-point its slot.
            let moved = hash_wire(self.records[last].key.as_slice());
            let at = self.slot_of(moved, last);
            self.index[at] = slot(moved, r);
        }
        let entry = self.records.swap_remove(r).entry;
        self.state_bytes -= entry.state_bytes as usize;
        self.prefix_entries -= usize::from(entry.can_be_prefix);
        Some(entry)
    }

    /// The index slot that points at record `r`, whose key has `hash`.
    fn slot_of(&self, hash: u64, r: usize) -> usize {
        let mask = self.index.len() - 1;
        let mut i = home(hash, mask);
        while slot_record(self.index[i]) != r {
            i = (i + 1) & mask;
        }
        i
    }

    /// Empties index slot `hole`, shifting later members of its probe run
    /// back so every lookup still reaches them without tombstones.
    fn unslot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let s = self.index[i];
            if s == 0 {
                break;
            }
            // `s` may fill the hole when its home lies cyclically at or
            // before the hole, i.e. no nearer to `i` than the hole is.
            let at = home(hash_wire(self.records[slot_record(s)].key.as_slice()), mask);
            if (i.wrapping_sub(at) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                hole = i;
            }
        }
        self.index[hole] = 0;
    }

    /// Removes and returns all entries a Data packet named by `name_wire`
    /// satisfies, each with the length of the wire value it was stored
    /// under — a prefix of `name_wire`, so naming it costs nothing: the
    /// exact-name entry first, then any prefix entries that were inserted
    /// with CanBePrefix — root first, then longer prefixes, as the
    /// boundary walk ascends. The prefix walk runs only while a
    /// CanBePrefix entry is pending.
    pub fn take_matching(&mut self, name_wire: &[u8]) -> Vec<(usize, PitEntry)> {
        let mut matched: Vec<_> = self
            .evict(name_wire)
            .map(|e| (name_wire.len(), e))
            .into_iter()
            .collect();
        if self.prefix_entries == 0 {
            return matched;
        }
        for end in strict_prefix_ends(name_wire) {
            if self.is_prefix_entry(&name_wire[..end]) {
                matched.push((end, self.evict(&name_wire[..end]).expect("just checked")));
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
    /// the watermark to the earliest expiry left. The survivors keep their
    /// order and are slotted again in one pass.
    fn sweep(&mut self, cutoff: SimTime) -> usize {
        let before = self.records.len();
        let mut next_due = SimTime::FAR_FUTURE;
        let (state_bytes, prefix_entries) = (&mut self.state_bytes, &mut self.prefix_entries);
        self.records.retain(|Record { entry: e, .. }| {
            if e.expiry <= cutoff {
                *state_bytes -= e.state_bytes as usize;
                *prefix_entries -= usize::from(e.can_be_prefix);
                false
            } else {
                next_due = next_due.min(e.expiry);
                true
            }
        });
        self.next_due = next_due;
        let removed = before - self.records.len();
        if removed > 0 {
            self.reindex();
        }
        removed
    }

    /// Checks the table against itself, returning the first violation:
    ///
    /// * every record is reachable through the index under its own key,
    ///   and the index holds nothing else;
    /// * each entry's kept state bytes equal the Table I formula recounted
    ///   from its key and fields, and the running total is their sum;
    /// * the CanBePrefix count matches a recount;
    /// * the watermark is at or below every expiry.
    ///
    /// Test infrastructure; not called on hot paths.
    pub fn audit(&self) -> Result<(), String> {
        let slotted = self.index.iter().filter(|&&s| s != 0).count();
        if slotted != self.records.len() {
            return Err(format!(
                "{slotted} index slots for {} records",
                self.records.len()
            ));
        }
        let mut sum = 0;
        for (r, Record { entry, key }) in self.records.iter().enumerate() {
            let key = key.as_slice();
            if self.find(hash_wire(key), key) != Ok(r) {
                return Err(format!("record {r} ({key:?}) is not reachable"));
            }
            let recount = entry.recount_state_bytes(key);
            if entry.state_bytes as usize != recount {
                return Err(format!(
                    "record {r} keeps {} state bytes, the formula says {recount}",
                    entry.state_bytes
                ));
            }
            if entry.expiry < self.next_due {
                return Err(format!("record {r} expires below the watermark"));
            }
            sum += recount;
        }
        if sum != self.state_bytes {
            return Err(format!(
                "state bytes drifted: running {} vs recounted {sum}",
                self.state_bytes
            ));
        }
        let prefix = self
            .records
            .iter()
            .filter(|r| r.entry.can_be_prefix)
            .count();
        if prefix != self.prefix_entries {
            return Err(format!(
                "CanBePrefix count drifted: running {} vs recounted {prefix}",
                self.prefix_entries
            ));
        }
        Ok(())
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

    fn has_nonce(pit: &Pit, uri: &str, nonce: u32) -> bool {
        pit.probe_wire(&name(uri).to_wire_value())
            .is_some_and(|e| e.has_nonce(nonce))
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
        let entries = pit.take_matching(&name("/a").to_wire_value());
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
        assert!(has_nonce(&pit, "/a", 1));
        assert!(!has_nonce(&pit, "/a", 2));
        assert!(!has_nonce(&pit, "/b", 1));
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
        assert!(
            pit.matches_wire(&name("/col/f/0").to_wire_value()),
            "exact entry"
        );
        assert!(
            pit.matches_wire(&name("/col/f/9").to_wire_value()),
            "CanBePrefix prefix entry"
        );
        assert!(
            !pit.matches_wire(&name("/other/x").to_wire_value()),
            "non-CBP prefix is no match"
        );
        assert!(!pit.matches_wire(&name("/elsewhere").to_wire_value()));
        assert_eq!(pit.len(), 3, "probe must not consume entries");
    }

    #[test]
    fn same_downstream_not_duplicated() {
        let mut pit = Pit::new();
        pit.insert(&name("/a"), 1, false, FaceId::APP, t(4));
        pit.insert(&name("/a"), 2, false, FaceId::APP, t(4));
        let entries = pit.take_matching(&name("/a").to_wire_value());
        assert_eq!(
            entries[0].1.downstreams().collect::<Vec<_>>(),
            [FaceId::APP]
        );
    }

    #[test]
    fn data_matches_exact_entry() {
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 1, false, FaceId::APP, t(4));
        assert_eq!(
            pit.take_matching(&name("/col/f/0").to_wire_value()).len(),
            1
        );
        assert!(pit.is_empty());
    }

    #[test]
    fn data_matches_can_be_prefix_entry() {
        let mut pit = Pit::new();
        pit.insert(&name("/col"), 1, true, FaceId::APP, t(4));
        let matched = pit.take_matching(&name("/col/f/0").to_wire_value());
        assert_eq!(matched.len(), 1);
        let data = name("/col/f/0").to_wire_value();
        assert_eq!(data[..matched[0].0], *name("/col").to_wire_value());
    }

    #[test]
    fn data_does_not_match_non_prefix_entry() {
        let mut pit = Pit::new();
        pit.insert(&name("/col"), 1, false, FaceId::APP, t(4));
        assert!(pit
            .take_matching(&name("/col/f/0").to_wire_value())
            .is_empty());
        assert!(pit.contains(&name("/col")), "entry still pending");
    }

    #[test]
    fn data_matches_exact_and_prefix_simultaneously() {
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 1, false, FaceId::APP, t(4));
        pit.insert(&name("/col"), 2, true, FaceId::WIRELESS, t(4));
        let matched = pit.take_matching(&name("/col/f/0").to_wire_value());
        assert_eq!(matched.len(), 2);
    }

    #[test]
    fn root_can_be_prefix_entry_matches_everything() {
        let mut pit = Pit::new();
        pit.insert(&Name::root(), 1, true, FaceId::APP, t(4));
        assert!(pit.matches_wire(&name("/any/thing").to_wire_value()));
        assert_eq!(
            pit.take_matching(&name("/any/thing").to_wire_value()).len(),
            1
        );
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
        assert_eq!(pit.take_matching(&name("/b").to_wire_value()).len(), 1);
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
        // PIT-match outcomes to the forwarder after the entry itself
        // expired.
        let mut pit = Pit::new();
        pit.insert(&name("/col/f/0"), 7, true, FaceId::APP, t(4));
        let key = name("/col/f/0").to_wire_value();
        assert!(pit.probe_wire(&key).is_some());
        assert!(pit.probe_wire(&key).is_some_and(|e| e.has_nonce(7)));
        assert!(pit.matches_wire(&name("/col/f/0/seg").to_wire_value()));
        assert_eq!(pit.expire(t(4)), 1);
        assert!(
            pit.probe_wire(&key).is_none(),
            "wire entry must expire with it"
        );
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
            assert_eq!(pit.take_matching(&name("/a").to_wire_value()).len(), 1);
            assert_eq!(pit.take_matching(&name("/b").to_wire_value()).len(), 1);
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
        pit.take_matching(&name("/a/b/c").to_wire_value());
        assert_eq!(pit.state_bytes(), 0);
    }

    /// Growing by a quarter (at least four records), the record vector
    /// never holds more than a fifth of its capacity as slack once past
    /// sixteen records.
    #[test]
    fn record_vector_slack_is_at_most_a_fifth() {
        let mut pit = Pit::new();
        for i in 0..2_000 {
            pit.insert(&name(&format!("/n/{i}")), 1, false, FaceId::APP, t(4));
            let cap = pit.records.capacity();
            assert!(
                pit.len() <= 16 || 5 * (cap - pit.len()) <= cap,
                "{} records in a capacity of {cap}",
                pit.len()
            );
        }
    }

    /// Churn over a few hundred names — short keys stored inline, long
    /// ones boxed — through index growth, backward-shift removal, record
    /// moves and sweeps, against a map model, auditing after every step.
    #[test]
    fn table_churn_matches_a_map_model() {
        use std::collections::BTreeMap;
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let names: Vec<Vec<u8>> = (0..300)
            .map(|i| {
                let uri = if i % 3 == 0 {
                    format!("/a-long-collection-name/with/many/components/{i}")
                } else {
                    format!("/s/{i}")
                };
                name(&uri).to_wire_value()
            })
            .collect();
        assert!(names.iter().any(|k| k.len() > INLINE_KEY));
        assert!(names.iter().any(|k| k.len() <= INLINE_KEY));
        let mut pit = Pit::new();
        let mut model: BTreeMap<Vec<u8>, (Vec<u32>, SimTime)> = BTreeMap::new();
        let mut now = t(1);
        for step in 0..6_000 {
            let key = &names[next(names.len() as u64) as usize];
            match next(10) {
                0..=5 => {
                    let nonce = next(4) as u32;
                    let expiry = now + SimDuration::from_millis(1 + next(50));
                    let (got, _) = pit.insert_wired(key, nonce, false, FaceId::APP, expiry);
                    let want = match model.get_mut(key) {
                        None => {
                            model.insert(key.clone(), (vec![nonce], expiry));
                            PitInsert::New
                        }
                        Some((nonces, _)) if nonces.contains(&nonce) => PitInsert::DuplicateNonce,
                        Some((nonces, e)) => {
                            nonces.push(nonce);
                            *e = (*e).max(expiry);
                            PitInsert::Aggregated
                        }
                    };
                    assert_eq!(got, want, "step {step}");
                }
                6 | 7 => {
                    let taken = pit.take_matching(key);
                    let want = model.remove(key);
                    assert_eq!(taken.len(), usize::from(want.is_some()), "step {step}");
                    if let (Some((len, e)), Some((nonces, _))) = (taken.first(), want) {
                        assert_eq!(*len, key.len());
                        assert_eq!(e.nonces().collect::<Vec<_>>(), nonces);
                    }
                }
                8 => {
                    now += SimDuration::from_millis(next(30));
                    let want = model.len();
                    model.retain(|_, (_, e)| *e > now);
                    assert_eq!(pit.expire(now), want - model.len(), "step {step}");
                }
                _ => now += SimDuration::from_millis(1),
            }
            assert_eq!(pit.audit(), Ok(()), "step {step}");
            assert_eq!(pit.len(), model.len());
            let probe = &names[next(names.len() as u64) as usize];
            assert_eq!(pit.probe_wire(probe).is_some(), model.contains_key(probe));
        }
    }
}
