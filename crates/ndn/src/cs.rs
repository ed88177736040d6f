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
//! The store is bounded by a [`CsBudget`] fixed at construction — an entry
//! count, or a **memory budget in bytes** accounted by each packet's wire
//! size plus a fixed per-entry bookkeeping overhead. Eviction is FIFO:
//! entries leave in arrival order, and re-inserting a cached name refreshes
//! the packet and its freshness clock without changing its rank. Nothing
//! depends on hash iteration order, so same-seed runs stay bit-identical
//! across processes.
//!
//! Entries live once in a slab [`Arena`]; the indexes hold `Copy` handles:
//!
//! * `exact` — a hash index keyed by the name's canonical wire value (one
//!   probe per overheard non-prefix Interest);
//! * `by_wire` — an *ordered* B-tree over the same keys, resolving
//!   CanBePrefix Interests with one range walk;
//! * `fifo` — the handles in arrival order, popped by eviction.

use crate::arena::{Arena, ArenaRef};
use crate::hash::FxBuildHasher;
use crate::name::Name;
use crate::packet::Data;
use dapes_netsim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

/// Fixed per-entry bookkeeping overhead charged against a byte budget on
/// top of the packet's wire size (arena slot, index nodes, shared key).
pub const ENTRY_OVERHEAD: usize = 64;

#[derive(Clone, Debug)]
struct CsEntry {
    data: Data,
    inserted: SimTime,
    /// The name's canonical wire-value key, shared with the wire indexes so
    /// eviction never re-encodes the name.
    wire_key: Arc<[u8]>,
    /// What this entry is charged against the budget, kept so eviction
    /// subtracts exactly what insertion added.
    size: usize,
}

impl CsEntry {
    /// NDN freshness: an entry satisfies MustBeFresh only while inside its
    /// FreshnessPeriod. A `freshness_ms` of 0 (the encoding for "no
    /// FreshnessPeriod", which immutable collection segments use) is
    /// *never* fresh: the segment is served to freshness-agnostic
    /// Interests indefinitely but can never answer MustBeFresh.
    fn is_fresh(&self, now: SimTime) -> bool {
        self.data.freshness_ms() > 0
            && now.since(self.inserted) <= SimDuration::from_millis(self.data.freshness_ms())
    }
}

/// How a [`ContentStore`] bounds its contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsBudget {
    /// At most this many packets (what [`ContentStore::new`] builds, and
    /// what every simulated node runs unless a byte budget is configured).
    Count(usize),
    /// At most this many bytes, wire-size accounted: each entry is charged
    /// its encoded wire length plus [`ENTRY_OVERHEAD`].
    Bytes(usize),
}

impl CsBudget {
    /// A budget of zero caches nothing at all.
    pub fn is_zero(self) -> bool {
        matches!(self, CsBudget::Count(0) | CsBudget::Bytes(0))
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
    /// Entries evicted over budget.
    pub evictions: u64,
    /// Packets rejected because they alone exceed a byte budget.
    pub rejected_oversize: u64,
}

/// A budget-bounded FIFO Data cache with prefix lookup and freshness
/// semantics.
///
/// [`ContentStore::new`] builds an entry-count cap — the store every
/// simulated node runs by default — and [`ContentStore::with_budget`] any
/// [`CsBudget`], including a wire-size-accounted byte budget.
///
/// # Examples
///
/// ```
/// use dapes_ndn::cs::{ContentStore, CsBudget};
/// use dapes_ndn::packet::Data;
/// use dapes_ndn::name::Name;
/// use dapes_netsim::time::SimTime;
///
/// let mut cs = ContentStore::with_budget(CsBudget::Bytes(64 * 1024));
/// let t = SimTime::ZERO;
/// cs.insert(Data::new(Name::from_uri("/col/f/0"), vec![0]), t);
/// assert!(cs.lookup(&Name::from_uri("/col/f/0"), false, false, t).is_some());
/// assert!(cs.lookup(&Name::from_uri("/col"), true, false, t).is_some());
/// assert_eq!(cs.stats().insertions, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ContentStore {
    arena: Arena<CsEntry>,
    /// Hash index keyed by [`Name::to_wire_value`]: the one-probe exact
    /// lookup every overheard non-prefix Interest pays, from borrowed name
    /// bytes or from a `Name` encoded once by the caller.
    exact: HashMap<Arc<[u8]>, ArenaRef, FxBuildHasher>,
    /// *Ordered* wire index over the same keys. Because byte-lexicographic
    /// order of canonical wire values equals NDN canonical `Name` order,
    /// and a name's wire value byte-extends all of its prefixes', one
    /// ordered range walk resolves a CanBePrefix Interest with the first
    /// match in canonical name order. No `Name` is built.
    by_wire: BTreeMap<Arc<[u8]>, ArenaRef>,
    /// Live handles in arrival order; eviction pops the front.
    fifo: VecDeque<ArenaRef>,
    budget: CsBudget,
    bytes: usize,
    stats: CsStats,
}

impl ContentStore {
    /// Creates a store holding at most `capacity` packets. A capacity of 0
    /// caches nothing.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(CsBudget::Count(capacity))
    }

    /// Creates a store bounded by `budget`.
    pub fn with_budget(budget: CsBudget) -> Self {
        ContentStore {
            arena: Arena::new(),
            exact: HashMap::default(),
            by_wire: BTreeMap::new(),
            fifo: VecDeque::new(),
            budget,
            bytes: 0,
            stats: CsStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CsStats {
        self.stats
    }

    /// Number of cached packets.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget: exactly the sum of the
    /// live entries' sizes, each content + name state + 64 under
    /// [`CsBudget::Count`] and wire size + [`ENTRY_OVERHEAD`] under
    /// [`CsBudget::Bytes`].
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Approximate bytes of cached state (Table I memory proxy), including
    /// the ordered wire index's key bytes and per-entry overhead.
    pub fn state_bytes(&self) -> usize {
        self.bytes + self.by_wire.keys().map(|k| k.len() + 48).sum::<usize>()
    }

    /// Live entries in the slab arena (mirrors [`ContentStore::len`];
    /// exported as the `cs_arena_live` stat).
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Arena slots ever allocated — bounded by peak cache occupancy, not
    /// by insert volume.
    pub fn arena_allocated(&self) -> usize {
        self.arena.allocated()
    }

    /// What one packet is charged against this store's budget: content +
    /// name state + 64 under [`CsBudget::Count`] (the Table I memory
    /// proxy), the wire size plus [`ENTRY_OVERHEAD`] under
    /// [`CsBudget::Bytes`]. The budget kind is fixed at construction, so
    /// every live entry was charged by the same formula.
    fn entry_size(&self, data: &Data) -> usize {
        match self.budget {
            CsBudget::Count(_) => data.content().len() + data.name().state_bytes() + 64,
            CsBudget::Bytes(_) => data.wire_size() + ENTRY_OVERHEAD,
        }
    }

    fn over_budget(&self) -> bool {
        match self.budget {
            CsBudget::Count(n) => self.len() > n,
            CsBudget::Bytes(b) => self.bytes > b,
        }
    }

    /// Inserts a Data packet, evicting in arrival order while over budget.
    ///
    /// Re-inserting an existing name refreshes the stored packet (and its
    /// freshness clock) in place without consuming extra capacity or
    /// changing its eviction rank. A zero budget caches nothing — the entry
    /// never enters the tables, so a refresh can't resurrect it either.
    /// Under a byte budget, a packet that alone exceeds the whole budget is
    /// rejected outright (counted in [`CsStats::rejected_oversize`])
    /// instead of flushing every other entry on its way to an inevitable
    /// self-eviction; an existing entry under the same name stays
    /// untouched.
    pub fn insert(&mut self, data: Data, now: SimTime) {
        let wire = data.name().to_wire_value();
        self.insert_wired(data, &wire, now);
    }

    /// [`ContentStore::insert`] for a packet whose name the caller already
    /// encoded to its canonical wire value, `name_wire`. On a miss, the
    /// entry and both wire indexes share one copy of the key.
    pub(crate) fn insert_wired(&mut self, data: Data, name_wire: &[u8], now: SimTime) {
        debug_assert_eq!(name_wire, data.name().to_wire_value());
        if self.budget.is_zero() {
            return;
        }
        let size = self.entry_size(&data);
        if let CsBudget::Bytes(b) = self.budget {
            if size > b {
                self.stats.rejected_oversize += 1;
                return;
            }
        }
        if let Some(&handle) = self.exact.get(name_wire) {
            let entry = self
                .arena
                .get_mut(handle)
                .expect("indexed handles are live");
            self.bytes = self.bytes - entry.size + size;
            entry.data = data;
            entry.inserted = now;
            entry.size = size;
            self.stats.refreshes += 1;
        } else {
            let wire_key: Arc<[u8]> = name_wire.into();
            let handle = self.arena.insert(CsEntry {
                data,
                inserted: now,
                wire_key: wire_key.clone(),
                size,
            });
            self.exact.insert(wire_key.clone(), handle);
            self.by_wire.insert(wire_key, handle);
            self.fifo.push_back(handle);
            self.bytes += size;
            self.stats.insertions += 1;
        }
        self.evict_over_budget();
    }

    /// Evicts the oldest arrivals until the budget holds again. Over
    /// budget implies at least one live entry, so the queue never runs dry
    /// here.
    fn evict_over_budget(&mut self) {
        while self.over_budget() {
            let victim = self.fifo.pop_front().expect("over budget implies an entry");
            let old = self.arena.remove(victim).expect("queued handles are live");
            self.exact.remove(&*old.wire_key);
            self.by_wire.remove(&*old.wire_key);
            self.bytes -= old.size;
            self.stats.evictions += 1;
        }
    }

    /// Looks up a packet for an Interest with the given semantics:
    /// `can_be_prefix` also matches names extending `name`;
    /// `must_be_fresh` only matches entries still within their
    /// FreshnessPeriod.
    pub fn lookup(
        &self,
        name: &Name,
        can_be_prefix: bool,
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<&Data> {
        let wire = name.to_wire_value();
        if can_be_prefix {
            self.lookup_wire_prefix(&wire, must_be_fresh, now)
        } else {
            self.lookup_wire_exact(&wire, must_be_fresh, now)
        }
    }

    /// Exact-name lookup ignoring freshness.
    pub fn lookup_exact(&self, name: &Name) -> Option<&Data> {
        self.lookup_wire_exact(&name.to_wire_value(), false, SimTime::ZERO)
    }

    /// Exact-name lookup against a peeked frame's borrowed name bytes, with
    /// the same freshness semantics as [`ContentStore::lookup`] for a
    /// non-CanBePrefix Interest — one hash probe, no `Name` construction.
    pub fn lookup_wire_exact(
        &self,
        name_wire: &[u8],
        must_be_fresh: bool,
        now: SimTime,
    ) -> Option<&Data> {
        let &h = self.exact.get(name_wire)?;
        let entry = self.arena.get(h).expect("indexed handles are live");
        (!must_be_fresh || entry.is_fresh(now)).then_some(&entry.data)
    }

    /// Prefix lookup against a peeked frame's borrowed name bytes, with the
    /// same semantics as [`ContentStore::lookup`] with `can_be_prefix`: the
    /// first qualifying entry in canonical name order. One ordered range
    /// walk, no `Name` construction.
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
    ) -> Option<&Data> {
        self.by_wire
            .range::<[u8], _>((Bound::Included(name_wire), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(name_wire))
            .map(|(_, &h)| self.arena.get(h).expect("indexed handles are live"))
            .find(|e| !must_be_fresh || e.is_fresh(now))
            .map(|e| &e.data)
    }

    /// Prefix lookup ignoring freshness.
    pub fn lookup_prefix(&self, prefix: &Name) -> Option<&Data> {
        self.lookup(prefix, true, false, SimTime::ZERO)
    }

    /// Removes everything (used when resetting a node). Cumulative
    /// counters are kept.
    pub fn clear(&mut self) {
        self.arena = Arena::new();
        self.exact.clear();
        self.by_wire.clear();
        self.fifo.clear();
        self.bytes = 0;
    }

    /// Checks every cross-index invariant, returning the first violation:
    ///
    /// * the exact and ordered indexes and the FIFO queue agree with the
    ///   arena (no dangling key or handle, none missing);
    /// * each entry's recorded size is what the budget's formula charges
    ///   it now, and the tracked bytes are their sum;
    /// * the store is within budget.
    ///
    /// Test and benchmark infrastructure; not called on hot paths.
    pub fn audit(&self) -> Result<(), String> {
        if self.over_budget() {
            return Err(format!(
                "over budget after quiescence: {} entries / {} bytes vs {:?}",
                self.len(),
                self.bytes,
                self.budget
            ));
        }
        let live = self.arena.live();
        if self.exact.len() != live || self.by_wire.len() != live || self.fifo.len() != live {
            return Err(format!(
                "index sizes diverge: exact {} / by_wire {} / fifo {} / arena {live}",
                self.exact.len(),
                self.by_wire.len(),
                self.fifo.len(),
            ));
        }
        if let Some(h) = self.fifo.iter().find(|&&h| self.arena.get(h).is_none()) {
            return Err(format!("dangling FIFO handle {h:?}"));
        }
        let mut sum = 0usize;
        for (key, &h) in &self.by_wire {
            let Some(entry) = self.arena.get(h) else {
                return Err(format!("dangling ordered-index key {key:?}"));
            };
            if entry.wire_key != *key {
                return Err("ordered-index key resolves to a different entry".into());
            }
            if self.exact.get(key) != Some(&h) {
                return Err("exact and ordered indexes disagree".into());
            }
            if entry.size != self.entry_size(&entry.data) {
                return Err(format!(
                    "entry {key:?} was charged {} bytes, the budget's formula says {}",
                    entry.size,
                    self.entry_size(&entry.data)
                ));
            }
            sum += entry.size;
        }
        if sum != self.bytes {
            return Err(format!(
                "byte accounting drifted: tracked {} vs summed {}",
                self.bytes, sum
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(uri: &str) -> Data {
        Data::new(Name::from_uri(uri), vec![0; 16])
    }

    fn sized_data(uri: &str, bytes: usize) -> Data {
        Data::new(Name::from_uri(uri), vec![0xAB; bytes])
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
        assert_eq!(
            cs.lookup_wire_exact(&key, false, t(0)),
            cs.lookup(&Name::from_uri("/col/f/0"), false, false, t(0)),
        );
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
                cs.lookup_wire_prefix(&name.to_wire_value(), fresh, t(0)),
                cs.lookup(&name, true, fresh, t(0)),
                "query {q} fresh={fresh}"
            );
        }
        // The ordered walk returns the *first* match in canonical name
        // order, not just any match: /col/f/3 (stale-forever) precedes
        // /col/f/5.
        let got = cs
            .lookup_wire_prefix(&Name::from_uri("/col").to_wire_value(), false, t(0))
            .expect("hit");
        assert_eq!(got.name().to_string(), "/col/f/3");
        let fresh_only = cs
            .lookup_wire_prefix(&Name::from_uri("/col").to_wire_value(), true, t(0))
            .expect("fresh hit further along the range");
        assert_eq!(fresh_only.name().to_string(), "/col/f/5");
    }

    #[test]
    fn prefix_hit() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col/f/3"), t(0));
        assert!(cs.lookup_prefix(&Name::from_uri("/col")).is_some());
        assert!(cs.lookup_prefix(&Name::from_uri("/col/f")).is_some());
        assert!(cs.lookup_prefix(&Name::from_uri("/col/g")).is_none());
        assert!(cs.lookup_prefix(&Name::from_uri("/other")).is_none());
    }

    #[test]
    fn prefix_does_not_match_sibling() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/cole/f/0"), t(0));
        // "/col" is a string prefix of "/cole" but not a name prefix.
        assert!(cs.lookup_prefix(&Name::from_uri("/col")).is_none());
    }

    #[test]
    fn exact_name_prefix_query_finds_itself() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/col"), t(0));
        assert!(cs.lookup_prefix(&Name::from_uri("/col")).is_some());
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
        // forever, NEVER to MustBeFresh — and the header fast path
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
        assert_eq!(cs.arena_live(), 0);
        assert_eq!(cs.arena_allocated(), 0, "nothing may enter the arena");
    }

    #[test]
    fn zero_byte_budget_caches_nothing() {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(0));
        cs.insert(data("/a"), t(0));
        assert!(cs.is_empty());
        assert_eq!(cs.arena_allocated(), 0);
        cs.audit().expect("clean");
    }

    #[test]
    fn eviction_churn_reuses_arena_slots_and_keeps_indexes_synced() {
        let mut cs = ContentStore::new(2);
        for round in 0..50u64 {
            cs.insert(data(&format!("/n/{round}")), t(round));
        }
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.arena_live(), 2);
        assert!(
            cs.arena_allocated() <= 3,
            "allocation must track capacity, not volume: {}",
            cs.arena_allocated()
        );
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
    fn byte_budget_evicts_by_size_not_count() {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(1024));
        let per = sized_data("/a", 100).wire_size() + ENTRY_OVERHEAD;
        let fit = 1024 / per;
        for i in 0..20 {
            cs.insert(sized_data(&format!("/n/{i}"), 100), t(i as u64));
        }
        assert!(
            cs.len() <= fit,
            "{} entries exceed the byte budget",
            cs.len()
        );
        assert!(cs.resident_bytes() <= 1024);
        assert!(cs.stats().evictions > 0);
        cs.audit().expect("clean");
    }

    #[test]
    fn oversize_packet_is_rejected_not_destructive() {
        // A packet larger than the whole budget must not flush the cache
        // on its way to an inevitable self-eviction.
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(2048));
        cs.insert(sized_data("/keep/a", 64), t(0));
        cs.insert(sized_data("/keep/b", 64), t(1));
        let before = cs.len();
        cs.insert(sized_data("/huge", 4096), t(2));
        assert_eq!(cs.len(), before, "resident set untouched");
        assert!(cs.lookup_exact(&Name::from_uri("/keep/a")).is_some());
        assert!(cs.lookup_exact(&Name::from_uri("/huge")).is_none());
        assert_eq!(cs.stats().rejected_oversize, 1);
        cs.audit().expect("clean");
    }

    #[test]
    fn budget_smaller_than_one_packet_holds_nothing_without_underflow() {
        let mut cs = ContentStore::with_budget(CsBudget::Bytes(16));
        for i in 0..5 {
            cs.insert(sized_data(&format!("/n/{i}"), 200), t(i as u64));
            assert!(cs.is_empty());
            assert_eq!(cs.resident_bytes(), 0, "no underflow");
            cs.audit().expect("clean");
        }
        assert_eq!(cs.stats().rejected_oversize, 5);
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
