//! The Content Store: an in-network cache of Data packets.
//!
//! Pure forwarders in DAPES "store data transmissions they overhear in their
//! CS, thus satisfying received requests with cached data" (paper §V-A); the
//! CS is also what lets a repo or any intermediate node answer Interests for
//! popular collection packets without reaching the producer.
//!
//! The store implements NDN freshness semantics: a Data packet is *fresh*
//! until its FreshnessPeriod elapses after insertion, and Interests carrying
//! MustBeFresh are only satisfied by fresh entries. Signalling data
//! (discovery replies, bitmaps) relies on this to avoid being answered from
//! stale caches forever; immutable collection packets carry no freshness
//! and are served from cache indefinitely.
//!
//! # Storage architecture
//!
//! The store holds at most an entry count fixed at construction. Eviction
//! is FIFO: entries leave in arrival order, and re-inserting a cached name
//! refreshes the packet and its freshness clock without changing its rank.
//! Nothing depends on hash iteration order, so same-seed runs stay
//! bit-identical across processes.
//!
//! An entry is its packet's wire image and three small fields: when it
//! stops being fresh, what it is charged, and where the name lies in the
//! wire. For a received packet the image is the frame itself, which every
//! receiver of that transmission already shares, so caching it allocates
//! no packet bytes, no decoded `Data` and no copy of the name. The entries
//! sit in one queue in arrival order — the FIFO itself, popped at the front
//! by eviction — and two indexes hold four-byte record ids, never keys;
//! both read a key as the name bytes inside the record's wire:
//!
//! * `exact` — a `SlotIndex` over the keys' hashes (one probe per
//!   overheard non-prefix Interest);
//! * `ordered` — the ids sorted by key, resolving a CanBePrefix Interest
//!   with one binary search and a forward walk.
//!
//! A hit hands back the cached wire; [`ContentStore::lookup`] decodes it
//! zero-copy ([`Data::decode_payload`]), so a Content Store answer
//! re-broadcasts the same bytes without re-encoding them.

use crate::hash::{hash_wire, SlotIndex, MAX_RECORDS};
use crate::name::Name;
use crate::packet::{data_name_at, Data};
use dapes_netsim::payload::Payload;
use dapes_netsim::time::SimTime;
use std::collections::VecDeque;
use std::ops::Range;

/// One cached packet.
#[derive(Clone, Debug)]
struct CsEntry {
    /// The packet's wire image ([`Data::keyed_wire`]), holding the name's
    /// canonical wire value at `key_at..key_at + key_len`.
    wire: Payload,
    /// The instant, in µs, up to which the entry satisfies MustBeFresh —
    /// its insert time plus its FreshnessPeriod — or 0 for never.
    fresh_until: u64,
    /// What this entry is charged in [`ContentStore::resident_bytes`],
    /// kept so eviction subtracts exactly what insertion added.
    size: u32,
    key_len: u32,
    key_at: u8,
}

// An entry is a wire image plus a few words: every node caches thousands.
const _: () = assert!(std::mem::size_of::<CsEntry>() <= 56);

impl CsEntry {
    fn new(wire: Payload, key: Range<usize>, freshness_ms: u64, size: usize, now: SimTime) -> Self {
        // NDN freshness: an entry satisfies MustBeFresh only while inside
        // its FreshnessPeriod. A `freshness_ms` of 0 (the encoding for "no
        // FreshnessPeriod", which immutable collection segments use) is
        // *never* fresh: the segment is served to freshness-agnostic
        // Interests indefinitely but can never answer MustBeFresh.
        let fresh_until = if freshness_ms == 0 {
            0
        } else {
            now.as_micros()
                .saturating_add(freshness_ms.saturating_mul(1_000))
        };
        CsEntry {
            fresh_until,
            size: u32::try_from(size).expect("an entry's charge fits in u32"),
            key_len: u32::try_from(key.len()).expect("a name fits in u32 bytes"),
            key_at: u8::try_from(key.start).expect("a Data wire's name starts within 20 bytes"),
            wire,
        }
    }

    /// The name's canonical wire value: the entry's key.
    #[inline]
    fn key(&self) -> &[u8] {
        let at = usize::from(self.key_at);
        &self.wire[at..at + self.key_len as usize]
    }

    fn is_fresh(&self, now: SimTime) -> bool {
        now.as_micros() <= self.fresh_until && self.fresh_until != 0
    }
}

/// The type of `ForwarderConfig::cs_policy`, a source-compatibility
/// placeholder: the store has one eviction policy, FIFO, and nothing to
/// choose. ROADMAP item 0(a) deletes the field and this type together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionPolicyKind;

/// Cumulative Content Store counters. Hit counts live with the forwarder
/// (`ForwarderStats::cs_hits`); a lookup here is a pure read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsStats {
    /// New entries admitted.
    pub insertions: u64,
    /// Re-inserts that refreshed an existing entry in place.
    pub refreshes: u64,
    /// Entries evicted at capacity.
    pub evictions: u64,
}

/// The id of the record at queue position `pos` when the front's id is
/// `head`: ids run on modulo [`MAX_RECORDS`], so a record keeps its id
/// while older ones leave.
#[inline]
fn id_at(head: usize, pos: usize) -> usize {
    let id = head + pos;
    if id >= MAX_RECORDS {
        id - MAX_RECORDS
    } else {
        id
    }
}

/// The queue position of record `id` when the front's id is `head`.
#[inline]
fn pos_of(head: usize, id: usize) -> usize {
    if id >= head {
        id - head
    } else {
        id + MAX_RECORDS - head
    }
}

/// A count-capped FIFO Data cache with prefix lookup and freshness
/// semantics.
///
/// # Examples
///
/// ```
/// use dapes_ndn::cs::ContentStore;
/// use dapes_ndn::packet::Data;
/// use dapes_ndn::name::Name;
/// use dapes_netsim::time::SimTime;
///
/// let mut cs = ContentStore::new(64);
/// let t = SimTime::ZERO;
/// cs.insert(Data::new(Name::from_uri("/col/f/0"), vec![0]), t);
/// assert!(cs.lookup(&Name::from_uri("/col/f/0"), false, false, t).is_some());
/// assert!(cs.lookup(&Name::from_uri("/col"), true, false, t).is_some());
/// assert_eq!(cs.stats().insertions, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ContentStore {
    /// Live entries in arrival order; eviction pops the front. Grows by a
    /// quarter at a time, and never past a count cap.
    records: VecDeque<CsEntry>,
    /// The id of the front record ([`id_at`]).
    head: usize,
    /// Record ids by key hash: the one-probe exact lookup every overheard
    /// non-prefix Interest pays, from borrowed name bytes.
    exact: SlotIndex,
    /// Record ids sorted by key. Because byte-lexicographic order of
    /// canonical wire values equals NDN canonical `Name` order, and a
    /// name's wire value byte-extends all of its prefixes', one binary
    /// search and a forward walk resolve a CanBePrefix Interest with the
    /// first match in canonical name order. No `Name` is built.
    ordered: Vec<u32>,
    capacity: usize,
    bytes: usize,
    /// The live keys' lengths summed, for [`ContentStore::state_bytes`].
    key_bytes: usize,
    stats: CsStats,
}

impl ContentStore {
    /// Creates a store holding at most `capacity` packets. A capacity of 0
    /// caches nothing.
    pub fn new(capacity: usize) -> Self {
        ContentStore {
            records: VecDeque::new(),
            head: 0,
            exact: SlotIndex::default(),
            ordered: Vec::new(),
            capacity,
            bytes: 0,
            key_bytes: 0,
            stats: CsStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CsStats {
        self.stats
    }

    /// Number of cached packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged: exactly the sum of the live entries'
    /// sizes, each content + name state + 64.
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Approximate bytes of cached state (Table I memory proxy): the
    /// charged bytes plus each entry's key length and 48 of index overhead.
    /// A running total, so reading it costs nothing.
    pub fn state_bytes(&self) -> usize {
        self.bytes + self.key_bytes + 48 * self.len()
    }

    /// Entry slots allocated — bounded by peak occupancy, not by insert
    /// volume, and never above the cap.
    #[cfg(test)]
    fn slots_allocated(&self) -> usize {
        self.records.capacity()
    }

    /// What one packet is charged in [`ContentStore::resident_bytes`]:
    /// content + name state + 64 (the Table I memory proxy).
    fn charge(data: &Data) -> usize {
        data.content().len() + data.name().state_bytes() + 64
    }

    /// The record with id `id`.
    #[inline]
    fn entry(&self, id: usize) -> &CsEntry {
        &self.records[pos_of(self.head, id)]
    }

    /// One probe of the exact index for `key`, whose hash is `hash`: the
    /// record id, or the empty slot the key would take.
    #[inline]
    fn find(&self, hash: u64, key: &[u8]) -> Result<usize, usize> {
        self.exact.find(hash, |id| self.entry(id).key() == key)
    }

    /// Inserts a Data packet, evicting the oldest arrival at capacity.
    ///
    /// Re-inserting an existing name refreshes the stored packet (and its
    /// freshness clock) in place without consuming extra capacity or
    /// changing its eviction rank; the replaced wire is released. A zero
    /// capacity caches nothing — the entry never enters the tables, so a
    /// refresh can't resurrect it either.
    pub fn insert(&mut self, data: Data, now: SimTime) {
        let (wire, key) = data.keyed_wire();
        self.insert_keyed(&data, wire, key, now);
    }

    /// [`ContentStore::insert`] for what [`Data::keyed_wire`] returned for
    /// `data`, which the caller already needed.
    pub(crate) fn insert_keyed(
        &mut self,
        data: &Data,
        wire: Payload,
        key: Range<usize>,
        now: SimTime,
    ) {
        debug_assert!(data.name().is_wire_value(&wire[key.clone()]));
        if self.capacity == 0 {
            return;
        }
        let size = Self::charge(data);
        let entry = CsEntry::new(wire, key, data.freshness_ms(), size, now);
        let hash = hash_wire(entry.key());
        if let Ok(id) = self.find(hash, entry.key()) {
            let pos = pos_of(self.head, id);
            let old = std::mem::replace(&mut self.records[pos], entry);
            self.bytes = self.bytes - old.size as usize + size;
            self.stats.refreshes += 1;
            return;
        }
        // Evict first: a store at its cap never holds, or allocates for,
        // one entry more.
        if self.len() == self.capacity {
            self.evict_front();
        }
        self.push(hash, entry);
    }

    /// Appends a new entry whose key has `hash` and indexes it.
    fn push(&mut self, hash: u64, entry: CsEntry) {
        let len = self.len();
        assert!(
            len < MAX_RECORDS,
            "a store holds at most {MAX_RECORDS} entries"
        );
        if len == self.records.capacity() {
            let more = (len / 4).max(4).min(self.capacity - len);
            self.records.reserve_exact(more);
            self.ordered.reserve_exact(more);
        }
        let head = self.head;
        if !self.exact.fits(len + 1) {
            let records = &self.records;
            self.exact.grow(
                records
                    .iter()
                    .enumerate()
                    .map(|(pos, e)| (hash_wire(e.key()), id_at(head, pos))),
            );
        }
        let key = entry.key();
        let vacant = self
            .find(hash, key)
            .expect_err("a new entry's key is not in the store");
        let id = id_at(head, len);
        self.exact.put(vacant, hash, id);
        let at = self
            .ordered
            .partition_point(|&o| self.entry(o as usize).key() < key);
        self.ordered.insert(at, id as u32);
        self.bytes += entry.size as usize;
        self.key_bytes += key.len();
        self.stats.insertions += 1;
        self.records.push_back(entry);
    }

    /// Evicts the oldest arrival. Only called at a non-zero capacity, which
    /// implies at least one live entry.
    fn evict_front(&mut self) {
        let front = self.records.front().expect("at capacity implies an entry");
        let key = front.key();
        let hash = hash_wire(key);
        let at = self
            .ordered
            .binary_search_by(|&o| self.entry(o as usize).key().cmp(key))
            .expect("the ordered index holds every key");
        self.ordered.remove(at);
        let (records, head) = (&self.records, self.head);
        let hole = self.exact.slot_of(hash, head);
        self.exact
            .unslot(hole, |id| hash_wire(records[pos_of(head, id)].key()));
        let old = self.records.pop_front().expect("just read");
        self.head = id_at(head, 1);
        self.bytes -= old.size as usize;
        self.key_bytes -= old.key_len as usize;
        self.stats.evictions += 1;
    }

    /// Looks up a packet for an Interest with the given semantics:
    /// `can_be_prefix` also matches names extending `name`;
    /// `must_be_fresh` only matches entries still within their
    /// FreshnessPeriod. A hit is decoded from the cached wire, which its
    /// [`Data::wire`] then returns.
    pub fn lookup(
        &self,
        name: &Name,
        can_be_prefix: bool,
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<Data> {
        let wire = name.to_wire_value();
        let hit = if can_be_prefix {
            self.lookup_wire_prefix(&wire, must_be_fresh, now)
        } else {
            self.lookup_wire_exact(&wire, must_be_fresh, now)
        };
        hit.map(decode)
    }

    /// Exact-name lookup ignoring freshness, decoded like
    /// [`ContentStore::lookup`]'s.
    pub fn lookup_exact(&self, name: &Name) -> Option<Data> {
        self.lookup_wire_exact(&name.to_wire_value(), false, SimTime::ZERO)
            .map(decode)
    }

    /// Exact-name lookup against a peeked frame's borrowed name bytes, with
    /// the same freshness semantics as [`ContentStore::lookup`] for a
    /// non-CanBePrefix Interest — one hash probe, no `Name` construction,
    /// no decode: the hit is the cached wire.
    pub fn lookup_wire_exact(
        &self,
        name_wire: &[u8],
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<&Payload> {
        let id = self.find(hash_wire(name_wire), name_wire).ok()?;
        let entry = self.entry(id);
        (!must_be_fresh || entry.is_fresh(now)).then_some(&entry.wire)
    }

    /// Prefix lookup against a peeked frame's borrowed name bytes, with the
    /// same semantics as [`ContentStore::lookup`] with `can_be_prefix`: the
    /// first qualifying entry in canonical name order, as its cached wire.
    /// One binary search and a forward walk, no `Name` construction.
    ///
    /// The caller must have validated that `name_wire` is a *complete* name
    /// TLV region (e.g. via [`crate::name::wire_component_boundaries`]): a
    /// region truncated mid-component could otherwise byte-prefix-match a
    /// cached name that is not a semantic extension of it.
    pub fn lookup_wire_prefix(
        &self,
        name_wire: &[u8],
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<&Payload> {
        let start = self
            .ordered
            .partition_point(|&id| self.entry(id as usize).key() < name_wire);
        self.ordered[start..]
            .iter()
            .map(|&id| self.entry(id as usize))
            .take_while(|e| e.key().starts_with(name_wire))
            .find(|e| !must_be_fresh || e.is_fresh(now))
            .map(|e| &e.wire)
    }

    /// Removes everything (used when resetting a node), releasing the
    /// tables' memory. Cumulative counters are kept.
    pub fn clear(&mut self) {
        *self = ContentStore {
            stats: self.stats,
            ..ContentStore::new(self.capacity)
        };
    }

    /// Checks every cross-index invariant, returning the first violation:
    ///
    /// * every entry's wire decodes, and its key is its name's canonical
    ///   wire value;
    /// * the exact index reaches every entry under its own key and holds
    ///   nothing else; the ordered index holds every entry once, in
    ///   strictly ascending key order;
    /// * each entry's recorded size is what [`ContentStore::resident_bytes`]
    ///   charges it now, and the tracked bytes and key bytes are their sums;
    /// * the store is within its capacity.
    ///
    /// Test and benchmark infrastructure; not called on hot paths.
    pub fn audit(&self) -> Result<(), String> {
        if self.len() > self.capacity {
            return Err(format!(
                "over capacity after quiescence: {} entries vs {}",
                self.len(),
                self.capacity
            ));
        }
        let live = self.len();
        if self.exact.occupied() != live || self.ordered.len() != live {
            return Err(format!(
                "index sizes diverge: exact {} / ordered {} / entries {live}",
                self.exact.occupied(),
                self.ordered.len(),
            ));
        }
        let (mut sum, mut keys) = (0usize, 0usize);
        for (pos, entry) in self.records.iter().enumerate() {
            let key = entry.key();
            let Ok(data) = Data::decode_payload(&entry.wire) else {
                return Err(format!("entry {key:?} holds a wire that does not decode"));
            };
            if data_name_at(&entry.wire)
                != Some(usize::from(entry.key_at)..entry.key_at as usize + key.len())
                || !data.name().is_wire_value(key)
            {
                return Err(format!("entry {key:?} is not keyed by its canonical name"));
            }
            if self.find(hash_wire(key), key) != Ok(id_at(self.head, pos)) {
                return Err(format!(
                    "entry {key:?} is not reachable through the exact index"
                ));
            }
            let charge = Self::charge(&data);
            if entry.size as usize != charge {
                return Err(format!(
                    "entry {key:?} was charged {} bytes, the formula says {charge}",
                    entry.size
                ));
            }
            sum += charge;
            keys += key.len();
        }
        if let Some(&id) = self
            .ordered
            .iter()
            .find(|&&id| pos_of(self.head, id as usize) >= live)
        {
            return Err(format!("dangling ordered-index id {id}"));
        }
        if self
            .ordered
            .windows(2)
            .any(|w| self.entry(w[0] as usize).key() >= self.entry(w[1] as usize).key())
        {
            return Err("the ordered index is not in strictly ascending key order".into());
        }
        if sum != self.bytes || keys != self.key_bytes {
            return Err(format!(
                "accounting drifted: tracked {} bytes / {} key bytes vs summed {sum} / {keys}",
                self.bytes, self.key_bytes
            ));
        }
        Ok(())
    }
}

/// Decodes a cached wire, zero-copy.
fn decode(wire: &Payload) -> Data {
    Data::decode_payload(wire).expect("a cached wire decodes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(uri: &str) -> Data {
        Data::new(Name::from_uri(uri), vec![0; 16])
    }

    fn fresh_data(uri: &str, freshness_ms: u64) -> Data {
        Data::new(Name::from_uri(uri), vec![0; 16]).with_freshness_ms(freshness_ms)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn exact_hit_and_miss() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/0"), t(0));
        assert!(cs.lookup_exact(&Name::from_uri("/col/f/0")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/col/f/1")).is_none());
        assert_eq!(cs.stats().insertions, 1);
        cs.audit().expect("clean");
    }

    #[test]
    fn wire_exact_lookup_mirrors_name_lookup() {
        let mut cs = ContentStore::new(2);
        cs.insert(fresh_data("/col/f/0", 1_000), t(0));
        let key = Name::from_uri("/col/f/0").to_wire_value();
        let hit = cs.lookup(&Name::from_uri("/col/f/0"), false, false, t(0));
        assert!(Payload::ptr_eq(
            cs.lookup_wire_exact(&key, false, t(0)).expect("wire hit"),
            &hit.expect("name hit").wire()
        ));
        // Freshness semantics match too.
        assert!(cs.lookup_wire_exact(&key, true, t(0)).is_some());
        assert!(cs.lookup_wire_exact(&key, true, t(5)).is_none());
        assert!(cs.lookup_wire_exact(&key, false, t(5)).is_some());
        // Eviction and clear keep the index in sync.
        cs.insert(data("/a"), t(1));
        cs.insert(data("/b"), t(2)); // evicts /col/f/0
        assert!(cs.lookup_wire_exact(&key, false, t(2)).is_none());
        let b_key = Name::from_uri("/b").to_wire_value();
        assert!(cs.lookup_wire_exact(&b_key, false, t(2)).is_some());
        cs.clear();
        assert!(cs.lookup_wire_exact(&b_key, false, t(2)).is_none());
    }

    #[test]
    fn wire_prefix_lookup_mirrors_name_lookup() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/3"), t(0));
        cs.insert(fresh_data("/col/f/5", 1_000), t(0));
        cs.insert(data("/cole/x"), t(0));
        for (q, fresh) in [
            ("/col", false),
            ("/col", true),
            ("/col/f", false),
            ("/col/f/3", false),
            ("/col/g", false),
            ("/cole", false),
            ("/other", false),
            ("/", false),
        ] {
            let name = Name::from_uri(q);
            assert_eq!(
                cs.lookup_wire_prefix(&name.to_wire_value(), fresh, t(0))
                    .cloned(),
                cs.lookup(&name, true, fresh, t(0)).map(|d| d.wire()),
                "query {q} fresh={fresh}"
            );
        }
        // The ordered walk returns the *first* match in canonical name
        // order, not just any match: /col/f/3 (stale-forever) precedes
        // /col/f/5.
        let got = cs
            .lookup_wire_prefix(&Name::from_uri("/col").to_wire_value(), false, t(0))
            .expect("hit");
        assert_eq!(decode(got).name().to_string(), "/col/f/3");
        let fresh_only = cs
            .lookup_wire_prefix(&Name::from_uri("/col").to_wire_value(), true, t(0))
            .expect("fresh hit further along the range");
        assert_eq!(decode(fresh_only).name().to_string(), "/col/f/5");
    }

    #[test]
    fn prefix_hit() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/3"), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/col"), true, false, SimTime::ZERO)
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/col/f"), true, false, SimTime::ZERO)
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/col/g"), true, false, SimTime::ZERO)
            .is_none());
        assert!(cs
            .lookup(&Name::from_uri("/other"), true, false, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn prefix_does_not_match_sibling() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/cole/f/0"), t(0));
        // "/col" is a string prefix of "/cole" but not a name prefix.
        assert!(cs
            .lookup(&Name::from_uri("/col"), true, false, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn exact_name_prefix_query_finds_itself() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col"), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/col"), true, false, SimTime::ZERO)
            .is_some());
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        cs.insert(data("/c"), t(2));
        assert_eq!(cs.len(), 2);
        assert!(
            cs.lookup_exact(&Name::from_uri("/a")).is_none(),
            "oldest evicted"
        );
        assert!(cs.lookup_exact(&Name::from_uri("/b")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/c")).is_some());
        assert_eq!(cs.stats().evictions, 1);
        cs.audit().expect("clean");
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/a"), t(1));
        cs.insert(data("/b"), t(2));
        assert_eq!(cs.len(), 2);
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_some());
        let stats = cs.stats();
        assert_eq!((stats.insertions, stats.refreshes), (2, 1));
    }

    #[test]
    fn reinsert_keeps_fifo_rank() {
        // The eviction-vs-refresh contract the golden traces pin:
        // re-inserting an existing name refreshes the packet and freshness
        // clock but keeps the original arrival rank.
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        cs.insert(data("/a"), t(2)); // refresh, rank unchanged
        cs.insert(data("/c"), t(3)); // evicts /a (oldest arrival)
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_none());
        assert!(cs.lookup_exact(&Name::from_uri("/b")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/c")).is_some());
        cs.audit().expect("no dangling keys after refresh+evict");
    }

    #[test]
    fn eviction_leaves_no_dangling_wire_index_keys() {
        // Regression for the eviction-vs-refresh audit: after interleaved
        // refreshes and evictions, both wire indexes and the FIFO queue
        // must only hold keys that resolve to live entries.
        let mut cs = ContentStore::new(3);
        for round in 0..20u64 {
            cs.insert(data(&format!("/n/{}", round % 7)), t(round));
            cs.insert(data(&format!("/n/{}", (round + 3) % 7)), t(round));
            cs.audit().expect("indexes in sync after every insert");
        }
    }

    #[test]
    fn must_be_fresh_rejects_nonfresh_data() {
        let mut cs = ContentStore::new(10);
        // No freshness period: never satisfies MustBeFresh.
        cs.insert(data("/d/x"), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(0))
            .is_none());
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, false, t(0))
            .is_some());
    }

    #[test]
    fn zero_freshness_is_never_fresh_on_every_path() {
        // Pins the immutable-segment semantics: freshness_ms == 0 means
        // "no FreshnessPeriod" — served to freshness-agnostic Interests
        // forever, NEVER to MustBeFresh — and the wire-keyed lookup
        // (borrowed wire bytes) must agree with the `Name` path at every
        // instant, including t == insertion time.
        let mut cs = ContentStore::new(10);
        let name = Name::from_uri("/col/seg/0");
        cs.insert(fresh_data("/col/seg/0", 0), t(0));
        let wire = name.to_wire_value();
        for now in [t(0), t(1), t(1_000_000)] {
            assert!(cs.lookup(&name, false, true, now).is_none(), "{now:?}");
            assert!(cs.lookup_wire_exact(&wire, true, now).is_none());
            assert!(cs.lookup_wire_prefix(&wire, true, now).is_none());
            assert!(cs.lookup(&name, false, false, now).is_some());
            assert!(cs.lookup_wire_exact(&wire, false, now).is_some());
            assert!(cs.lookup_wire_prefix(&wire, false, now).is_some());
        }
    }

    #[test]
    fn freshness_expires_over_time() {
        let mut cs = ContentStore::new(10);
        cs.insert(fresh_data("/d/x", 1_000), t(10));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(10))
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(11))
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(12))
            .is_none());
        // Still served to freshness-agnostic Interests.
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, false, t(12))
            .is_some());
    }

    #[test]
    fn reinsert_restarts_freshness_clock() {
        let mut cs = ContentStore::new(10);
        cs.insert(fresh_data("/d/x", 1_000), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(5))
            .is_none());
        cs.insert(fresh_data("/d/x", 1_000), t(5));
        assert!(cs
            .lookup(&Name::from_uri("/d/x"), false, true, t(5))
            .is_some());
    }

    #[test]
    fn prefix_lookup_skips_stale_finds_fresh() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/p/a"), t(0)); // stale forever
        cs.insert(fresh_data("/p/b", 10_000), t(0));
        let got = cs
            .lookup(&Name::from_uri("/p"), true, true, t(1))
            .expect("fresh entry further in the range");
        assert_eq!(got.name().to_string(), "/p/b");
    }

    #[test]
    fn lookup_respects_can_be_prefix_flag() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/0"), t(0));
        assert!(cs
            .lookup(&Name::from_uri("/col"), true, false, t(0))
            .is_some());
        assert!(cs
            .lookup(&Name::from_uri("/col"), false, false, t(0))
            .is_none());
    }

    #[test]
    fn zero_capacity_store_caches_nothing() {
        // Regression: the old post-insert eviction loop transiently held
        // one entry at capacity 0, and a refreshing re-insert resurrected
        // it indefinitely.
        let mut cs = ContentStore::new(0);
        cs.insert(data("/a"), t(0));
        assert!(cs.is_empty());
        assert_eq!(cs.state_bytes(), 0);
        cs.insert(data("/a"), t(1)); // would refresh if anything survived
        cs.insert(data("/a"), t(2));
        assert!(cs.is_empty(), "refresh must not resurrect an entry");
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_none());
        assert!(cs
            .lookup_wire_exact(&Name::from_uri("/a").to_wire_value(), false, t(2))
            .is_none());
        assert_eq!(cs.slots_allocated(), 0, "nothing may take a slot");
    }

    #[test]
    fn eviction_churn_reuses_arena_slots_and_keeps_indexes_synced() {
        let mut cs = ContentStore::new(2);
        for round in 0..50u64 {
            cs.insert(data(&format!("/n/{round}")), t(round));
        }
        assert_eq!(cs.len(), 2);
        assert!(
            cs.slots_allocated() <= 2,
            "allocation must track capacity, not volume: {}",
            cs.slots_allocated()
        );
        cs.audit().expect("clean");
        // Only the two newest survive, in every index.
        for round in 0..48u64 {
            let name = Name::from_uri(&format!("/n/{round}"));
            assert!(cs.lookup_exact(&name).is_none());
            assert!(cs
                .lookup_wire_exact(&name.to_wire_value(), false, t(50))
                .is_none());
        }
        for round in 48..50u64 {
            let name = Name::from_uri(&format!("/n/{round}"));
            assert!(cs.lookup_exact(&name).is_some());
            assert!(cs
                .lookup_wire_exact(&name.to_wire_value(), false, t(50))
                .is_some());
        }
    }

    #[test]
    fn count_capped_store_at_its_cap_never_allocates_past_it() {
        // Evict-first: the insert that would take a store over its cap
        // makes room before it appends, so the entry queue never grows to
        // hold cap + 1, whatever the cap.
        for cap in [1, 2, 3, 5, 100, 4096] {
            let mut cs = ContentStore::new(cap);
            for i in 0..2 * cap + 3 {
                cs.insert(data(&format!("/n/{i}")), t(i as u64));
                assert!(
                    cs.slots_allocated() <= cap,
                    "cap {cap}: {} slots after insert {i}",
                    cs.slots_allocated()
                );
            }
            assert_eq!(cs.len(), cap);
            assert_eq!(cs.stats().evictions, cap as u64 + 3);
            cs.audit().expect("clean");
        }
    }

    #[test]
    fn an_entry_is_the_received_frame_and_a_refresh_releases_it() {
        let name = Name::from_uri("/col/f/0");
        let frame = Payload::from(fresh_data("/col/f/0", 1_000).encode());
        let mut cs = ContentStore::new(4);
        cs.insert(Data::decode_payload(&frame).expect("decodes"), t(0));
        // The entry keeps the frame itself, and its key is the name bytes
        // inside it: nothing was copied or re-encoded.
        let entry = cs.records.front().expect("cached");
        assert!(Payload::ptr_eq(&entry.wire, &frame));
        assert!(frame.as_ptr_range().contains(&entry.key().as_ptr()));
        assert_eq!(entry.key(), name.to_wire_value());
        // A hit's wire is that frame too, on every lookup path.
        let hit = cs.lookup_exact(&name).expect("hit");
        assert!(Payload::ptr_eq(&hit.wire(), &frame));
        let wire = name.to_wire_value();
        assert!(Payload::ptr_eq(
            cs.lookup_wire_exact(&wire, true, t(0)).expect("hit"),
            &frame
        ));
        assert!(Payload::ptr_eq(
            cs.lookup_wire_prefix(&wire[..5], true, t(0)).expect("hit"),
            &frame
        ));
        // A refresh from another frame with the same bytes swaps the
        // buffer: the store keeps no view of the replaced one.
        let again = Payload::from(fresh_data("/col/f/0", 1_000).encode());
        cs.insert(Data::decode_payload(&again).expect("decodes"), t(1));
        assert_eq!(cs.stats().refreshes, 1);
        assert!(cs
            .records
            .iter()
            .all(|e| !Payload::same_backing(&e.wire, &frame)));
        assert!(Payload::ptr_eq(
            &cs.lookup_exact(&name).expect("hit").wire(),
            &again
        ));
        cs.audit().expect("clean");
    }

    #[test]
    fn a_frame_spelling_its_name_non_canonically_is_keyed_canonically() {
        // Component type 1 instead of the generic 8: the decoder accepts
        // it, and the name is the same — so is its key, which the store
        // takes from a canonical re-encoding instead of the frame.
        let d = data("/col/x");
        let mut bytes = d.encode();
        let at = data_name_at(&bytes).expect("a name").start;
        assert_eq!(bytes[at], 0x08, "the first component's type");
        bytes[at] = 0x01;
        let frame = Payload::from(bytes);
        let odd = Data::decode_payload(&frame).expect("decodes");
        assert_eq!(odd.name(), d.name());
        let mut cs = ContentStore::new(4);
        cs.insert(odd, t(0));
        let hit = cs
            .lookup_exact(d.name())
            .expect("hit by the canonical name");
        assert_eq!(hit.wire(), d.wire());
        assert!(cs
            .lookup(&Name::from_uri("/col"), true, false, t(0))
            .is_some());
        cs.audit().expect("clean");
    }

    #[test]
    fn state_bytes_grow_and_shrink() {
        let mut cs = ContentStore::new(1);
        assert_eq!(cs.state_bytes(), 0);
        cs.insert(data("/a"), t(0));
        let b1 = cs.state_bytes();
        assert!(b1 > 0);
        cs.insert(data("/b"), t(1)); // evicts /a
        assert!(cs.state_bytes() > 0);
        cs.clear();
        assert_eq!(cs.state_bytes(), 0);
    }

    #[test]
    fn clone_preserves_contents_and_counters() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), t(0));
        cs.insert(data("/b"), t(1));
        let mut cloned = cs.clone();
        assert_eq!(cloned.stats(), cs.stats());
        // The clone's FIFO queue matches: /a is the next victim in both,
        // and evicting it from the clone leaves the original untouched.
        cloned.insert(data("/c"), t(2));
        assert!(cloned.lookup_exact(&Name::from_uri("/a")).is_none());
        assert!(cloned.lookup_exact(&Name::from_uri("/b")).is_some());
        cloned.audit().expect("clean");
        cs.audit().expect("original untouched");
        assert!(cs.lookup_exact(&Name::from_uri("/a")).is_some());
        assert_eq!(cs.len(), 2);
    }
}
