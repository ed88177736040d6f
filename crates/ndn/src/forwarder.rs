//! The NDN forwarding pipeline (the paper's Fig. 1).
//!
//! The [`Forwarder`] is sans-IO: callers feed it packets with the face they
//! arrived on and apply the returned [`Action`]s (send a packet out a face).
//! Host integration — mapping [`crate::face::FaceId::WIRELESS`] to simulator
//! frames and [`crate::face::FaceId::APP`] to application callbacks — lives
//! with the protocol stacks.
//!
//! Pipeline for an incoming Interest:
//!
//! 1. **CS lookup** — a cached Data packet satisfies the Interest directly.
//! 2. **PIT lookup** — a duplicate nonce is dropped; a same-name pending
//!    Interest is aggregated (no forwarding).
//! 3. **FIB LPM + strategy** — otherwise the [`Strategy`] chooses the egress
//!    faces (or suppresses), which is where DAPES's §V forwarding /
//!    suppression logic plugs in.
//!
//! Incoming Data consumes matching PIT entries and flows to their
//! downstreams; unsolicited Data is cached when the forwarder is configured
//! as an overhearing "pure forwarder" (§V-A).

use crate::cs::{ContentStore, CsBudget, EvictionPolicyKind};
use crate::face::FaceId;
use crate::fib::Fib;
use crate::name::{wire_value_is_well_formed, Name};
use crate::packet::{whole_buffer_is_one_packet, Data, Interest, InterestHeader, PeekedHopLimit};
use crate::pit::{Pit, PitInsert};
use dapes_netsim::payload::Payload;
use dapes_netsim::time::{SimDuration, SimTime};

/// How long after forwarding a pending name a consumer retransmission (an
/// aggregated Interest with a new nonce) may forward it again — the
/// retransmission suppression interval of NFD's strategies.
const REFORWARD_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// An output the caller must perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send an Interest out a face.
    SendInterest {
        /// Egress face.
        face: FaceId,
        /// The Interest to send.
        interest: Interest,
    },
    /// Send a Data packet out a face.
    SendData {
        /// Egress face.
        face: FaceId,
        /// The Data to send.
        data: Data,
    },
    /// Relay a raw Interest frame out a face without ever constructing an
    /// [`Interest`]: `frame` is the received buffer with its hop-limit byte
    /// already patched (copy-on-write), byte-identical to what the eager
    /// pipeline would re-broadcast. `name` and `nonce` accompany it for the
    /// caller's pending-transmission bookkeeping (cancel-on-data,
    /// cancel-on-nonce, forwarding notes).
    RelayInterest {
        /// Egress face.
        face: FaceId,
        /// The patched wire image, ready for the radio.
        frame: Payload,
        /// The Interest name (zero-copy views into the received frame).
        name: Name,
        /// The Interest nonce.
        nonce: u32,
    },
}

/// A forwarding decision from a [`Strategy`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Forward out these faces.
    Forward(Vec<FaceId>),
    /// Do not forward (DAPES suppression).
    Suppress,
}

/// Chooses egress faces for Interests that need forwarding.
///
/// `Send` so forwarders can live inside stacks of a `World` that moves to
/// a worker thread; strategies hold only per-node state.
pub trait Strategy: Send {
    /// Decides forwarding for `interest` arriving on `ingress`, given the
    /// FIB's `nexthops` (already excluding `ingress`).
    fn decide(
        &mut self,
        interest: &Interest,
        ingress: FaceId,
        nexthops: &[FaceId],
        now: SimTime,
    ) -> Decision;

    /// Header-only decision for an Interest whose FIB lookup produced no
    /// usable next hops, used by the overhearing fast path
    /// ([`Forwarder::process_interest_header`]) to drop not-for-me frames
    /// without a full decode. Implementations must return exactly what
    /// [`Strategy::decide`] would return for an empty `nexthops` slice
    /// without observing the Interest, or `None` (the default) to force the
    /// full pipeline when that decision depends on the Interest's payload
    /// or would mutate strategy state.
    fn decide_no_nexthops(&mut self, _ingress: FaceId, _now: SimTime) -> Option<Decision> {
        None
    }

    /// Header-only decision for a would-be-new Interest *with* usable next
    /// hops — the decode-free relay path. `name` is the Interest name,
    /// materialized from the peeked header. Implementations must either
    /// return exactly what [`Strategy::decide`] would for this Interest,
    /// consuming identical strategy state (including any RNG draws, in the
    /// same order), or return `None` *before mutating any state* when the
    /// decision depends on the Interest's payload — the caller then decodes
    /// and runs the full pipeline, which must observe the strategy exactly
    /// as [`Strategy::decide`] would have found it.
    fn decide_header(
        &mut self,
        _name: &Name,
        _ingress: FaceId,
        _nexthops: &[FaceId],
        _now: SimTime,
    ) -> Option<Decision> {
        None
    }
}

/// The default NDN multicast behaviour: forward to every FIB next hop.
#[derive(Clone, Copy, Debug, Default)]
pub struct BroadcastStrategy;

impl Strategy for BroadcastStrategy {
    fn decide(
        &mut self,
        _interest: &Interest,
        _ingress: FaceId,
        nexthops: &[FaceId],
        _now: SimTime,
    ) -> Decision {
        if nexthops.is_empty() {
            Decision::Suppress
        } else {
            Decision::Forward(nexthops.to_vec())
        }
    }

    fn decide_no_nexthops(&mut self, _ingress: FaceId, _now: SimTime) -> Option<Decision> {
        Some(Decision::Suppress)
    }

    fn decide_header(
        &mut self,
        _name: &Name,
        _ingress: FaceId,
        nexthops: &[FaceId],
        _now: SimTime,
    ) -> Option<Decision> {
        // The broadcast decision never looks at the Interest at all.
        Some(if nexthops.is_empty() {
            Decision::Suppress
        } else {
            Decision::Forward(nexthops.to_vec())
        })
    }
}

/// How [`Forwarder::process_interest_header`] resolved an overheard frame,
/// for per-outcome accounting (the peer-level stats distinguish FIB drops
/// from Content Store hits and duplicate nonces).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeekOutcome {
    /// Exact-name Content Store hit served from the wire index.
    CsHit,
    /// CanBePrefix Content Store hit served from the ordered wire index.
    CsPrefixHit,
    /// Duplicate nonce dropped.
    DuplicateNonce,
    /// No usable FIB route: the PIT entry was recorded and forwarding
    /// suppressed, all from the peeked header.
    FibNoRoute,
    /// A would-be-new Interest the strategy chose to forward: the PIT entry
    /// was recorded and the frame relayed by copy-on-write hop-limit patch
    /// — no `Interest` was ever constructed. (Also returned when the patch
    /// found the hop limit exhausted: the entry and forwarding stats commit
    /// exactly as in the full pipeline, which sends nothing either.)
    Relayed,
    /// A would-be-new Interest the strategy suppressed, resolved entirely
    /// from the peeked header (PIT entry recorded, nothing sent).
    RelaySuppressed,
}

/// Forwarder configuration.
///
/// Five fields are settings. `cs_policy`, `relay_patch` and
/// `legacy_tables` each admit one value and are kept only because
/// `benchmark/` (which engine changes may not edit) spells all eight
/// fields in one literal; ROADMAP item 0(a) deletes the three with that
/// line. [`Forwarder::with_strategy`] panics if either boolean holds its
/// other value, so neither is ignored silently.
#[derive(Clone, Debug)]
pub struct ForwarderConfig {
    /// Content Store capacity in packets, used when no byte budget is set.
    pub cs_capacity: usize,
    /// Content Store memory budget in bytes (wire-size accounted). When
    /// set, it replaces the packet-count cap; `None` keeps the
    /// count-capped store every workload runs.
    pub cs_budget_bytes: Option<usize>,
    /// Placeholder: the Content Store evicts FIFO, and this field's type
    /// has one value.
    pub cs_policy: EvictionPolicyKind,
    /// Cache Data that matched no PIT entry (pure-forwarder overhearing).
    pub cache_unsolicited: bool,
    /// Faces on which Data may be sent back out the face it arrived on.
    /// Point-to-point NDN never does this, but over a shared broadcast
    /// face it is exactly how multi-hop Data returns: an intermediate node
    /// whose PIT records the broadcast face as downstream must re-broadcast
    /// the Data so the original requester (another hop away) receives it.
    pub rebroadcast_faces: Vec<FaceId>,
    /// Faces (typically the local application) that still receive an
    /// Interest when it aggregates into an existing PIT entry. Aggregation
    /// suppresses *network* re-forwarding, but a producer application must
    /// see every distinct probe — ndn-cxx InterestFilter semantics. Without
    /// this, a peer's own pending `/dapes/discovery` beacon would swallow
    /// all neighbor probes for the shared discovery name.
    pub deliver_on_aggregate: Vec<FaceId>,
    /// Placeholder that must be `true`: the peek path always attempts the
    /// decode-free relay ([`Action::RelayInterest`]).
    pub relay_patch: bool,
    /// Placeholder that must be `false`: the PIT and Content Store run on
    /// their wire-keyed tables only.
    pub legacy_tables: bool,
}

impl Default for ForwarderConfig {
    fn default() -> Self {
        ForwarderConfig {
            cs_capacity: 4096,
            cs_budget_bytes: None,
            cs_policy: EvictionPolicyKind,
            cache_unsolicited: false,
            rebroadcast_faces: Vec::new(),
            deliver_on_aggregate: Vec::new(),
            relay_patch: true,
            legacy_tables: false,
        }
    }
}

/// Statistics the forwarder keeps about its own decisions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForwarderStats {
    /// Interests answered from the Content Store.
    pub cs_hits: u64,
    /// Interests that created a new PIT entry and were forwarded.
    pub forwarded_interests: u64,
    /// Interests aggregated onto an existing PIT entry.
    pub aggregated_interests: u64,
    /// Interests dropped as duplicate nonces.
    pub duplicate_interests: u64,
    /// Interests the strategy suppressed.
    pub suppressed_interests: u64,
    /// Data packets that satisfied pending Interests.
    pub satisfied_data: u64,
    /// Data packets that arrived unsolicited.
    pub unsolicited_data: u64,
    /// PIT entries removed by the forwarder's own [`Pit::reclaim`] — not
    /// those an owner removed through [`Forwarder::expire`]. Zero for an
    /// owner that expires every [`crate::pit::RECLAIM_AFTER`].
    pub pit_reclaimed: u64,
}

/// The NDN forwarding daemon for one node, owning its [`Strategy`] — and
/// whatever knowledge that keeps ([`Forwarder::strategy_mut`]) — by value.
pub struct Forwarder<S: Strategy = BroadcastStrategy> {
    cs: ContentStore,
    pit: Pit,
    fib: Fib,
    cfg: ForwarderConfig,
    strategy: S,
    stats: ForwarderStats,
}

impl<S: Strategy> std::fmt::Debug for Forwarder<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Forwarder")
            .field("cs_len", &self.cs.len())
            .field("pit_len", &self.pit.len())
            .field("fib_len", &self.fib.len())
            .finish()
    }
}

impl Forwarder {
    /// Creates a forwarder with the default broadcast strategy.
    pub fn new(cfg: ForwarderConfig) -> Self {
        Self::with_strategy(cfg, BroadcastStrategy)
    }
}

impl<S: Strategy> Forwarder<S> {
    /// Creates a forwarder with a custom strategy (DAPES multi-hop logic).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.relay_patch` is `false` or `cfg.legacy_tables` is
    /// `true`: the paths those values selected are gone.
    pub fn with_strategy(cfg: ForwarderConfig, strategy: S) -> Self {
        assert!(
            cfg.relay_patch && !cfg.legacy_tables,
            "ForwarderConfig::relay_patch must be true and legacy_tables false: \
             each has one path left (the fields go with ROADMAP item 0(a))"
        );
        let budget = match cfg.cs_budget_bytes {
            Some(bytes) => CsBudget::Bytes(bytes),
            None => CsBudget::Count(cfg.cs_capacity),
        };
        Forwarder {
            cs: ContentStore::with_budget(budget),
            pit: Pit::new(),
            fib: Fib::new(),
            cfg,
            strategy,
            stats: ForwarderStats::default(),
        }
    }

    /// The strategy (read access).
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The strategy and whatever state it keeps.
    pub fn strategy_mut(&mut self) -> &mut S {
        &mut self.strategy
    }

    /// The FIB, for prefix registration.
    pub fn fib_mut(&mut self) -> &mut Fib {
        &mut self.fib
    }

    /// The Content Store (read access).
    pub fn cs(&self) -> &ContentStore {
        &self.cs
    }

    /// Mutable Content Store access (producers pre-populate their packets).
    pub fn cs_mut(&mut self) -> &mut ContentStore {
        &mut self.cs
    }

    /// The PIT (read access).
    pub fn pit(&self) -> &Pit {
        &self.pit
    }

    /// Decision statistics.
    pub fn stats(&self) -> &ForwarderStats {
        &self.stats
    }

    /// Approximate bytes of forwarder state (CS + PIT + FIB), the Table I
    /// memory proxy.
    pub fn state_bytes(&self) -> usize {
        self.cs.state_bytes() + self.pit.state_bytes() + self.fib.state_bytes()
    }

    /// Attempts to resolve an Interest from its peeked header alone —
    /// borrowed name bytes, flags, nonce, lifetime; no full decode — running
    /// the prefix of the Fig. 1 pipeline that needs no payload:
    ///
    /// 1. **CS lookup** — an exact hit resolves through the wire index, and
    ///    a CanBePrefix hit through the *ordered* wire index (same range
    ///    walk, same first match), exactly as
    ///    [`Forwarder::process_interest`] would;
    /// 2. **duplicate nonce** — a loop/duplicate is dropped (empty action
    ///    list);
    /// 3. **FIB no-route** — a would-be-new Interest whose wire-level
    ///    longest-prefix match yields no usable next hop (and whose
    ///    strategy suppresses on empty next hops, see
    ///    [`Strategy::decide_no_nexthops`]) records its PIT entry — keyed
    ///    by the peeked name bytes, the expiry from the peeked lifetime,
    ///    no `Name` built — bumps the suppression counter, and
    ///    returns no actions: the not-for-me drop, byte-identical to the
    ///    full pipeline's outcome;
    /// 4. **decode-free relay** — a would-be-new Interest with a usable wireless route whose
    ///    strategy can decide from the name alone records its PIT entry and,
    ///    on Forward, relays the received frame with its hop-limit byte
    ///    patched copy-on-write ([`Action::RelayInterest`]) — no `Interest`
    ///    is ever constructed, and the relayed bytes are identical to what
    ///    the eager decode→decrement→re-encode path would send.
    ///
    /// Returns `None` when the Interest still needs the full pipeline — PIT
    /// aggregation, a payload-dependent strategy decision, or a forward the
    /// relay path's preconditions exclude. The caller must then decode and
    /// call [`Forwarder::process_interest`]; no state or statistics change
    /// on fall-through, so there is no double counting. (The PIT reclaim
    /// that opens both pipelines is the one exception, and it is idempotent
    /// at one instant: the second call finds nothing to scan.) A malformed
    /// name region also falls through: the full decode fails at the same
    /// byte, so the frame is dropped either way.
    pub fn process_interest_header(
        &mut self,
        now: SimTime,
        header: &InterestHeader<'_>,
        backing: &Payload,
        ingress: FaceId,
    ) -> Option<(Vec<Action>, PeekOutcome)> {
        self.reclaim(now);
        if header.can_be_prefix {
            // The ordered prefix walk may only run on a *complete* region:
            // a truncated one could byte-prefix-match a cached name the
            // full decode would never see.
            if !wire_value_is_well_formed(header.name_wire) {
                return None;
            }
            if let Some(data) =
                self.cs
                    .lookup_wire_prefix(header.name_wire, header.must_be_fresh, now)
            {
                self.stats.cs_hits += 1;
                return Some((
                    vec![Action::SendData {
                        face: ingress,
                        data: data.clone(),
                    }],
                    PeekOutcome::CsPrefixHit,
                ));
            }
        } else if let Some(data) =
            self.cs
                .lookup_wire_exact(header.name_wire, header.must_be_fresh, now)
        {
            self.stats.cs_hits += 1;
            return Some((
                vec![Action::SendData {
                    face: ingress,
                    data: data.clone(),
                }],
                PeekOutcome::CsHit,
            ));
        }
        // One hash probe answers both the duplicate-nonce and the
        // would-be-new question.
        match self.pit.probe_wire(header.name_wire) {
            Some(entry) if entry.has_nonce(header.nonce) => {
                self.stats.duplicate_interests += 1;
                return Some((Vec::new(), PeekOutcome::DuplicateNonce));
            }
            // Aggregation: the full pipeline handles it.
            Some(_) => return None,
            None => {}
        }
        // Would be `PitInsert::New`: probe the FIB at the wire level,
        // filtering exactly as the full pipeline does. The usable set is
        // collected into a stack buffer — this runs once per would-be-new
        // Interest, and next-hop sets are tiny. A FIB entry wider than the
        // buffer falls through to the full pipeline (always allowed).
        let nexthops = self.fib.longest_prefix_match_wire(header.name_wire)?;
        let mut usable_buf = [FaceId::WIRELESS; 8];
        let mut usable_len = 0usize;
        for &f in nexthops {
            if f != ingress || self.cfg.rebroadcast_faces.contains(&f) {
                if usable_len == usable_buf.len() {
                    return None;
                }
                usable_buf[usable_len] = f;
                usable_len += 1;
            }
        }
        let usable = &usable_buf[..usable_len];
        if usable.is_empty() {
            if self.strategy.decide_no_nexthops(ingress, now) != Some(Decision::Suppress) {
                return None;
            }
            // Committed: reproduce the full pipeline's PIT insert, keyed
            // by the frame's own name bytes — no `Name` is built. A
            // malformed name region falls through exactly where `to_name`
            // would fail; the full decode then fails at the same byte.
            if !wire_value_is_well_formed(header.name_wire) {
                return None;
            }
            let expiry = now + SimDuration::from_millis(header.lifetime_ms);
            self.pit.insert_new_peeked(
                header.name_wire,
                header.nonce,
                header.can_be_prefix,
                ingress,
                expiry,
            );
            self.stats.suppressed_interests += 1;
            return Some((Vec::new(), PeekOutcome::FibNoRoute));
        }
        self.relay_from_header(now, header, backing, ingress, usable)
    }

    /// The decode-free relay: resolves the *forward* outcome of a peeked
    /// would-be-new Interest with usable next hops. Every fall-through
    /// (`None`) happens before any strategy state is touched, so the full
    /// pipeline replays from an identical starting point.
    fn relay_from_header(
        &mut self,
        now: SimTime,
        header: &InterestHeader<'_>,
        backing: &Payload,
        ingress: FaceId,
        usable: &[FaceId],
    ) -> Option<(Vec<Action>, PeekOutcome)> {
        // Preconditions, all checked before the strategy (and its RNG) runs:
        //
        // * The frame must be exactly one packet — it becomes the relayed
        //   wire image, and the eager path only seeds its encode-once cache
        //   (i.e. re-broadcasts these very bytes) under the same condition.
        // * The hop limit must be absent or canonically encoded: patching a
        //   multi-byte encoding would not match decode→decrement→encode.
        // * A patchable hop limit relays to at most one face — the eager
        //   path decrements once *per egress action*, sending a different
        //   hop count to each; more than one face falls back to it.
        // * Every usable face must be wireless: an APP next hop delivers to
        //   the application, which needs the decoded Interest.
        if !whole_buffer_is_one_packet(backing) {
            return None;
        }
        match header.hop_limit {
            PeekedHopLimit::Opaque => return None,
            PeekedHopLimit::Patchable { .. } if usable.len() > 1 => return None,
            _ => {}
        }
        if usable.iter().any(|&f| f != FaceId::WIRELESS) {
            return None;
        }
        // A malformed name region falls through; the full decode fails at
        // the same byte, so the frame is dropped either way.
        let name = header.to_name(backing).ok()?;
        let decision = self.strategy.decide_header(&name, ingress, usable, now)?;

        // Committed: reproduce the full pipeline's PIT insert and stats.
        // `insert_new_peeked` keys the entry by the frame's own name bytes
        // and hands it back, so the forward arm stamps `last_forward`
        // without re-probing.
        let expiry = now + SimDuration::from_millis(header.lifetime_ms);
        let entry = self.pit.insert_new_peeked(
            header.name_wire,
            header.nonce,
            header.can_be_prefix,
            ingress,
            expiry,
        );
        match decision {
            Decision::Suppress => {
                self.stats.suppressed_interests += 1;
                Some((Vec::new(), PeekOutcome::RelaySuppressed))
            }
            Decision::Forward(faces) => {
                self.stats.forwarded_interests += 1;
                entry.set_last_forward(now);
                let frame = match header.hop_limit {
                    PeekedHopLimit::Absent => backing.clone(),
                    PeekedHopLimit::Patchable { value, .. } if value <= 1 => {
                        // Hop limit exhausted: the eager path commits the
                        // PIT entry and forwarding stats, then sends
                        // nothing (`decrement_hop_limit` returns false).
                        return Some((Vec::new(), PeekOutcome::Relayed));
                    }
                    PeekedHopLimit::Patchable { value, offset } => {
                        // The copy-on-write patch: one buffer copy, one
                        // byte rewritten — byte-identical to the eager
                        // path's decode→decrement→encode (which patches
                        // its seeded wire cache the same way).
                        let mut bytes = backing.as_slice().to_vec();
                        bytes[offset] = value - 1;
                        Payload::from(bytes)
                    }
                    PeekedHopLimit::Opaque => unreachable!("checked before committing"),
                };
                // Each action needs its own copy of the name, and the last
                // one takes the materialized name itself — the common
                // single-face relay clones nothing.
                let mut relay_name = Some(name);
                let mut egress = faces
                    .into_iter()
                    .filter(|&f| f != ingress || self.cfg.rebroadcast_faces.contains(&f))
                    .peekable();
                let mut actions = Vec::with_capacity(1);
                while let Some(face) = egress.next() {
                    let name = if egress.peek().is_none() {
                        relay_name.take().expect("taken once, by the last face")
                    } else {
                        relay_name.clone().expect("taken once, by the last face")
                    };
                    actions.push(Action::RelayInterest {
                        face,
                        frame: frame.clone(),
                        name,
                        nonce: header.nonce,
                    });
                }
                Some((actions, PeekOutcome::Relayed))
            }
        }
    }

    /// Attempts to resolve an overheard Data packet from its peeked name
    /// bytes alone. Returns `true` — counting it as unsolicited, exactly as
    /// [`Forwarder::process_data`] would — when the Data matches no PIT
    /// entry and this forwarder does not cache unsolicited packets, i.e.
    /// when the full pipeline would take no action and need no decode.
    /// Returns `false` (with nothing counted) when the caller must decode
    /// and run [`Forwarder::process_data`].
    pub fn process_data_header(&mut self, name_wire: &[u8]) -> bool {
        if self.cfg.cache_unsolicited || self.pit.matches_wire(name_wire) {
            return false;
        }
        self.stats.unsolicited_data += 1;
        true
    }

    /// Processes an incoming Interest per the Fig. 1 pipeline.
    pub fn process_interest(
        &mut self,
        now: SimTime,
        interest: &Interest,
        ingress: FaceId,
    ) -> Vec<Action> {
        self.reclaim(now);
        // Encode the name once; the CS probe and every PIT probe key on the
        // canonical wire value.
        let name_wire = interest.name().to_wire_value();

        // 1. Content Store.
        let cs_hit = if interest.can_be_prefix() {
            self.cs
                .lookup_wire_prefix(&name_wire, interest.must_be_fresh(), now)
        } else {
            self.cs
                .lookup_wire_exact(&name_wire, interest.must_be_fresh(), now)
        };
        if let Some(data) = cs_hit {
            self.stats.cs_hits += 1;
            return vec![Action::SendData {
                face: ingress,
                data: data.clone(),
            }];
        }

        // 2. PIT.
        let expiry = now + SimDuration::from_millis(interest.lifetime_ms());
        let inserted = self.pit.insert_wired(
            &name_wire,
            interest.nonce(),
            interest.can_be_prefix(),
            ingress,
            expiry,
        );
        match inserted {
            PitInsert::DuplicateNonce => {
                self.stats.duplicate_interests += 1;
                Vec::new()
            }
            PitInsert::Aggregated => {
                self.stats.aggregated_interests += 1;
                let mut actions: Vec<Action> = self
                    .fib
                    .longest_prefix_match_wire(&name_wire)
                    .expect("an encoded name is well-formed")
                    .iter()
                    .copied()
                    .filter(|f| *f != ingress && self.cfg.deliver_on_aggregate.contains(f))
                    .map(|face| Action::SendInterest {
                        face,
                        interest: interest.clone(),
                    })
                    .collect();
                // Consumer retransmission: a new nonce for a still-pending
                // name re-forwards upstream once the suppression interval
                // elapsed (NFD strategies behave the same way) — without
                // this, one lost Data on a multi-hop path would stall the
                // transfer for the whole Interest lifetime.
                let retx_ok =
                    self.pit
                        .probe_wire(&name_wire)
                        .is_some_and(|e| match e.last_forward() {
                            None => true,
                            Some(t) => now.since(t) >= REFORWARD_INTERVAL,
                        });
                if retx_ok {
                    let nexthops: Vec<FaceId> = self
                        .fib
                        .longest_prefix_match_wire(&name_wire)
                        .expect("an encoded name is well-formed")
                        .iter()
                        .copied()
                        .filter(|&f| f != ingress || self.cfg.rebroadcast_faces.contains(&f))
                        .collect();
                    if let Decision::Forward(faces) =
                        self.strategy.decide(interest, ingress, &nexthops, now)
                    {
                        let mut forwarded = false;
                        for face in faces {
                            let allowed =
                                face != ingress || self.cfg.rebroadcast_faces.contains(&face);
                            if allowed && !self.cfg.deliver_on_aggregate.contains(&face) {
                                forwarded = true;
                                actions.push(Action::SendInterest {
                                    face,
                                    interest: interest.clone(),
                                });
                            }
                        }
                        if forwarded {
                            if let Some(e) = self.pit.entry_mut_wire(&name_wire) {
                                e.set_last_forward(now);
                            }
                        }
                    }
                }
                actions
            }
            PitInsert::New => {
                // 3. FIB + strategy. The ingress face stays a candidate
                // when it is a broadcast face: re-broadcasting out the same
                // radio is exactly what multi-hop Interest relay means.
                let nexthops: Vec<FaceId> = self
                    .fib
                    .longest_prefix_match_wire(&name_wire)
                    .expect("an encoded name is well-formed")
                    .iter()
                    .copied()
                    .filter(|&f| f != ingress || self.cfg.rebroadcast_faces.contains(&f))
                    .collect();
                match self.strategy.decide(interest, ingress, &nexthops, now) {
                    Decision::Suppress => {
                        self.stats.suppressed_interests += 1;
                        Vec::new()
                    }
                    Decision::Forward(faces) => {
                        self.stats.forwarded_interests += 1;
                        if let Some(e) = self.pit.entry_mut_wire(&name_wire) {
                            e.set_last_forward(now);
                        }
                        faces
                            .into_iter()
                            .filter(|&f| f != ingress || self.cfg.rebroadcast_faces.contains(&f))
                            .map(|face| Action::SendInterest {
                                face,
                                interest: interest.clone(),
                            })
                            .collect()
                    }
                }
            }
        }
    }

    /// Processes an incoming Data packet. Returns the actions plus whether
    /// the packet was solicited (matched a PIT entry).
    pub fn process_data(
        &mut self,
        now: SimTime,
        data: &Data,
        ingress: FaceId,
    ) -> (Vec<Action>, bool) {
        // Encode the name once, for the PIT match and the cache insert.
        let name_wire = data.name().to_wire_value();
        let matched = self.pit.take_matching_wire(&name_wire);
        if matched.is_empty() {
            self.stats.unsolicited_data += 1;
            if self.cfg.cache_unsolicited {
                self.cs.insert_wired(data.clone(), &name_wire, now);
            }
            return (Vec::new(), false);
        }
        self.stats.satisfied_data += 1;
        self.cs.insert_wired(data.clone(), &name_wire, now);
        let mut actions = Vec::new();
        for (_, entry) in matched {
            for face in entry.downstreams() {
                if face != ingress || self.cfg.rebroadcast_faces.contains(&face) {
                    actions.push(Action::SendData {
                        face,
                        data: data.clone(),
                    });
                }
            }
        }
        (actions, true)
    }

    /// Expires stale PIT entries, returning how many went.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.pit.expire(now)
    }

    /// Takes the PIT entries long past their expiry, so a table whose
    /// owner never calls [`Forwarder::expire`] stays a window of recent
    /// Interests instead of growing with every Interest ever heard. Runs
    /// first on both Interest paths, the only ones that grow the table.
    fn reclaim(&mut self, now: SimTime) {
        self.stats.pit_reclaimed += self.pit.reclaim(now) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd() -> Forwarder {
        let mut f = Forwarder::new(ForwarderConfig::default());
        // App owns /app, everything else goes to the air.
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        f.fib_mut().register(Name::from_uri("/app"), FaceId::APP);
        f
    }

    fn interest(uri: &str, nonce: u32) -> Interest {
        Interest::new(Name::from_uri(uri)).with_nonce(nonce)
    }

    fn data(uri: &str) -> Data {
        Data::new(Name::from_uri(uri), vec![7; 8])
    }

    fn now() -> SimTime {
        SimTime::from_secs(1)
    }

    #[test]
    fn interest_forwards_via_fib() {
        let mut f = fwd();
        let actions = f.process_interest(now(), &interest("/col/f/0", 1), FaceId::APP);
        assert_eq!(
            actions,
            vec![Action::SendInterest {
                face: FaceId::WIRELESS,
                interest: interest("/col/f/0", 1)
            }]
        );
        assert_eq!(f.stats().forwarded_interests, 1);
    }

    #[test]
    fn interest_for_app_prefix_goes_to_app() {
        let mut f = fwd();
        let actions = f.process_interest(now(), &interest("/app/x", 1), FaceId::WIRELESS);
        assert_eq!(
            actions,
            vec![Action::SendInterest {
                face: FaceId::APP,
                interest: interest("/app/x", 1)
            }]
        );
    }

    #[test]
    fn cs_hit_short_circuits() {
        let mut f = fwd();
        f.cs_mut().insert(data("/col/f/0"), now());
        let actions = f.process_interest(now(), &interest("/col/f/0", 1), FaceId::WIRELESS);
        assert_eq!(
            actions,
            vec![Action::SendData {
                face: FaceId::WIRELESS,
                data: data("/col/f/0")
            }]
        );
        assert_eq!(f.stats().cs_hits, 1);
        assert!(f.pit().is_empty(), "no PIT entry on CS hit");
    }

    #[test]
    fn cs_prefix_hit_requires_can_be_prefix() {
        let mut f = fwd();
        f.cs_mut().insert(data("/col/f/0"), now());
        let miss = f.process_interest(now(), &interest("/col", 1), FaceId::APP);
        assert!(matches!(miss[0], Action::SendInterest { .. }));
        let hit = f.process_interest(
            now(),
            &interest("/col", 2).with_can_be_prefix(true),
            FaceId::APP,
        );
        assert!(matches!(hit[0], Action::SendData { .. }));
    }

    #[test]
    fn duplicate_nonce_dropped_aggregation_silent() {
        let mut f = fwd();
        f.process_interest(now(), &interest("/a", 1), FaceId::APP);
        // Same nonce from elsewhere: loop → drop.
        assert!(f
            .process_interest(now(), &interest("/a", 1), FaceId::WIRELESS)
            .is_empty());
        assert_eq!(f.stats().duplicate_interests, 1);
        // New nonce, same name: aggregate → no forward.
        assert!(f
            .process_interest(now(), &interest("/a", 2), FaceId::WIRELESS)
            .is_empty());
        assert_eq!(f.stats().aggregated_interests, 1);
    }

    /// A consumer retransmission (new nonce, same pending name) re-forwards
    /// only once `REFORWARD_INTERVAL` has passed since the last forward —
    /// a forward at t = 0 included, which must not read as "never".
    #[test]
    fn retransmission_reforwards_only_after_the_interval() {
        let mut f = fwd();
        let at = SimTime::from_micros;
        let step = REFORWARD_INTERVAL.as_micros();
        let sent = |actions: Vec<Action>| !actions.is_empty();
        let lifetime = |nonce| interest("/a", nonce).with_lifetime_ms(10_000);
        assert!(sent(f.process_interest(
            SimTime::ZERO,
            &lifetime(1),
            FaceId::APP
        )));
        let stamped = |f: &Forwarder| {
            f.pit()
                .probe_wire(&Name::from_uri("/a").to_wire_value())
                .and_then(crate::pit::PitEntry::last_forward)
        };
        assert_eq!(stamped(&f), Some(SimTime::ZERO));
        assert!(!sent(f.process_interest(
            at(step - 1),
            &lifetime(2),
            FaceId::APP
        )));
        assert!(sent(f.process_interest(
            at(step),
            &lifetime(3),
            FaceId::APP
        )));
        assert_eq!(stamped(&f), Some(at(step)));
        assert!(!sent(f.process_interest(
            at(2 * step - 1),
            &lifetime(4),
            FaceId::APP
        )));
        assert!(sent(f.process_interest(
            at(2 * step),
            &lifetime(5),
            FaceId::APP
        )));
        assert_eq!(f.stats().aggregated_interests, 4);
    }

    #[test]
    fn data_follows_pit_back_to_all_downstreams() {
        let mut f = fwd();
        f.process_interest(now(), &interest("/a", 1), FaceId::APP);
        f.process_interest(now(), &interest("/a", 2), FaceId(9));
        let (actions, solicited) = f.process_data(now(), &data("/a"), FaceId::WIRELESS);
        assert!(solicited);
        let faces: Vec<FaceId> = actions
            .iter()
            .map(|a| match a {
                Action::SendData { face, .. } => *face,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(faces, vec![FaceId::APP, FaceId(9)]);
        // Satisfied data is cached.
        assert!(f.cs().lookup_exact(&Name::from_uri("/a")).is_some());
        assert!(f.pit().is_empty());
    }

    #[test]
    fn data_not_sent_back_to_its_ingress() {
        let mut f = fwd();
        f.process_interest(now(), &interest("/a", 1), FaceId::WIRELESS);
        let (actions, solicited) = f.process_data(now(), &data("/a"), FaceId::WIRELESS);
        assert!(solicited);
        assert!(actions.is_empty(), "sole downstream is the ingress face");
    }

    #[test]
    fn unsolicited_data_dropped_by_default_cached_by_pure_forwarder() {
        let mut f = fwd();
        let (actions, solicited) = f.process_data(now(), &data("/x"), FaceId::WIRELESS);
        assert!(!solicited);
        assert!(actions.is_empty());
        assert!(f.cs().lookup_exact(&Name::from_uri("/x")).is_none());
        assert_eq!(f.stats().unsolicited_data, 1);

        let mut pf = Forwarder::new(ForwarderConfig {
            cache_unsolicited: true,
            ..ForwarderConfig::default()
        });
        pf.process_data(now(), &data("/x"), FaceId::WIRELESS);
        assert!(pf.cs().lookup_exact(&Name::from_uri("/x")).is_some());
    }

    #[test]
    fn suppressing_strategy_blocks_forwarding() {
        struct Never;
        impl Strategy for Never {
            fn decide(&mut self, _: &Interest, _: FaceId, _: &[FaceId], _: SimTime) -> Decision {
                Decision::Suppress
            }
        }
        let mut f = Forwarder::with_strategy(ForwarderConfig::default(), Never);
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        assert!(f
            .process_interest(now(), &interest("/a", 1), FaceId::APP)
            .is_empty());
        assert_eq!(f.stats().suppressed_interests, 1);
        // PIT entry still exists: data flowing past later is delivered.
        assert!(f.pit().contains(&Name::from_uri("/a")));
    }

    #[test]
    fn strategy_cannot_forward_back_to_ingress() {
        struct Echo;
        impl Strategy for Echo {
            fn decide(
                &mut self,
                _: &Interest,
                ingress: FaceId,
                _: &[FaceId],
                _: SimTime,
            ) -> Decision {
                Decision::Forward(vec![ingress])
            }
        }
        let mut f = Forwarder::with_strategy(ForwarderConfig::default(), Echo);
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        assert!(f
            .process_interest(now(), &interest("/a", 1), FaceId::WIRELESS)
            .is_empty());
    }

    #[test]
    fn rebroadcast_face_relays_data_back_out() {
        // An intermediate node that forwarded an Interest heard on the
        // broadcast face must re-broadcast the returning Data.
        let mut f = Forwarder::new(ForwarderConfig {
            rebroadcast_faces: vec![FaceId::WIRELESS],
            ..ForwarderConfig::default()
        });
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        f.process_interest(now(), &interest("/a", 1), FaceId::WIRELESS);
        let (actions, solicited) = f.process_data(now(), &data("/a"), FaceId::WIRELESS);
        assert!(solicited);
        assert_eq!(
            actions,
            vec![Action::SendData {
                face: FaceId::WIRELESS,
                data: data("/a")
            }]
        );
    }

    #[test]
    fn pit_expiry_reports_the_removed_count() {
        let mut f = fwd();
        f.process_interest(
            now(),
            &interest("/a", 1).with_lifetime_ms(1000),
            FaceId::APP,
        );
        let lifetime = SimDuration::from_secs(1);
        let just_before = now() + lifetime.saturating_sub(SimDuration::from_micros(1));
        assert_eq!(f.expire(just_before), 0, "not due yet");
        assert!(f.pit().contains(&Name::from_uri("/a")));
        assert_eq!(f.expire(now() + SimDuration::from_secs(2)), 1);
        assert!(!f.pit().contains(&Name::from_uri("/a")));
        assert_eq!(
            f.stats().pit_reclaimed,
            0,
            "an owner's expiry is not a reclaim"
        );
        // Late data is now unsolicited.
        let (_, solicited) = f.process_data(now(), &data("/a"), FaceId::WIRELESS);
        assert!(!solicited);
    }

    #[test]
    fn an_unswept_pit_is_reclaimed_by_later_interests_on_either_path() {
        // Nobody calls `expire`: the Interest paths bound the table
        // themselves, a grace period behind each entry's expiry.
        let mut f = relay_fwd();
        let at = |millis: u64| SimTime::from_micros(millis * 1_000);
        let lifetime = |i: Interest| i.with_lifetime_ms(500);
        f.process_interest(at(1_000), &lifetime(interest("/a", 1)), FaceId::WIRELESS);
        f.process_interest(at(1_300), &lifetime(interest("/b", 2)), FaceId::WIRELESS);
        // /a expired at t=1.5, but the watermark trails by under 200 ms.
        f.process_interest(at(1_699), &lifetime(interest("/c", 3)), FaceId::WIRELESS);
        assert!(f.pit().contains(&Name::from_uri("/a")));
        assert_eq!(f.stats().pit_reclaimed, 0);
        // The peeked path reclaims too, before it resolves the frame.
        let i = lifetime(interest("/d", 4));
        let wire = wire_of(&i);
        let (_, outcome) = f
            .process_interest_header(at(1_700), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("relay resolves");
        assert_eq!(outcome, PeekOutcome::Relayed);
        assert!(
            !f.pit().contains(&Name::from_uri("/a")),
            "100 ms past expiry"
        );
        assert!(f.pit().contains(&Name::from_uri("/b")), "not yet expired");
        assert_eq!(f.stats().pit_reclaimed, 1);
        // /b expires at t=1.8 and goes once the watermark trails by 200 ms.
        f.process_interest(at(2_000), &lifetime(interest("/e", 5)), FaceId::WIRELESS);
        assert!(!f.pit().contains(&Name::from_uri("/b")));
        assert_eq!(f.stats().pit_reclaimed, 2);
        assert_eq!(f.pit().len(), 3, "/c, /d and /e are held");
        // A name reclaimed from the table is new again.
        let again = f.process_interest(at(2_000), &interest("/a", 1), FaceId::WIRELESS);
        assert_eq!(again.len(), 1, "forwarded, not dropped as a duplicate");
    }

    #[test]
    fn no_fib_match_suppresses() {
        let mut f = Forwarder::new(ForwarderConfig::default());
        assert!(f
            .process_interest(now(), &interest("/a", 1), FaceId::APP)
            .is_empty());
        assert_eq!(f.stats().suppressed_interests, 1);
    }

    /// Peeks `i`'s header out of `wire` (which must outlive the header).
    fn header_of<'a>(wire: &'a dapes_netsim::payload::Payload) -> InterestHeader<'a> {
        use crate::packet::{Packet, PacketHeader};
        match Packet::peek_header(wire).expect("valid") {
            PacketHeader::Interest(h) => h,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn wire_of(i: &Interest) -> dapes_netsim::payload::Payload {
        dapes_netsim::payload::Payload::from(i.encode())
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_cs_hit() {
        let mut eager = fwd();
        let mut lazy = fwd();
        eager.cs_mut().insert(data("/col/f/0"), now());
        lazy.cs_mut().insert(data("/col/f/0"), now());
        let i = interest("/col/f/0", 1);
        let want = eager.process_interest(now(), &i, FaceId::WIRELESS);
        let wire = wire_of(&i);
        let (got, outcome) = lazy
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("CS hit resolves from the header");
        assert_eq!(got, want);
        assert_eq!(outcome, PeekOutcome::CsHit);
        assert_eq!(lazy.stats().cs_hits, eager.stats().cs_hits);
        assert!(lazy.pit().is_empty(), "no PIT entry on a header CS hit");
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_prefix_cs_hit() {
        let mut eager = fwd();
        let mut lazy = fwd();
        eager.cs_mut().insert(data("/col/f/0"), now());
        lazy.cs_mut().insert(data("/col/f/0"), now());
        let i = interest("/col", 1).with_can_be_prefix(true);
        let want = eager.process_interest(now(), &i, FaceId::WIRELESS);
        let wire = wire_of(&i);
        let (got, outcome) = lazy
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("CanBePrefix hit resolves through the ordered wire index");
        assert_eq!(got, want);
        assert_eq!(outcome, PeekOutcome::CsPrefixHit);
        assert_eq!(lazy.stats().cs_hits, eager.stats().cs_hits);
        assert!(lazy.pit().is_empty(), "no PIT entry on a header CS hit");

        // A CanBePrefix *miss* with a usable route resolves as a relay.
        let miss = interest("/other", 2).with_can_be_prefix(true);
        let wire = wire_of(&miss);
        let (_, outcome) = lazy
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::APP)
            .expect("CanBePrefix miss with a usable route relays");
        assert_eq!(outcome, PeekOutcome::Relayed);
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_duplicate_nonce() {
        let mut eager = fwd();
        let mut lazy = fwd();
        let first = interest("/a", 7);
        eager.process_interest(now(), &first, FaceId::WIRELESS);
        lazy.process_interest(now(), &first, FaceId::WIRELESS);
        let dup = interest("/a", 7);
        let want = eager.process_interest(now(), &dup, FaceId::WIRELESS);
        let wire = wire_of(&dup);
        let (got, outcome) = lazy
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("duplicate resolves from the header");
        assert_eq!(got, want);
        assert_eq!(outcome, PeekOutcome::DuplicateNonce);
        assert!(got.is_empty());
        assert_eq!(lazy.stats().duplicate_interests, 1);
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_fib_no_route() {
        // No FIB entry covers "/nowhere": the full pipeline records a PIT
        // entry and suppresses; the header pipeline must do exactly that —
        // same entry, same expiry, same counter — without a full decode.
        let mut eager = Forwarder::new(ForwarderConfig::default());
        let mut lazy = Forwarder::new(ForwarderConfig::default());
        eager
            .fib_mut()
            .register(Name::from_uri("/app"), FaceId::APP);
        lazy.fib_mut().register(Name::from_uri("/app"), FaceId::APP);
        let i = interest("/nowhere/x", 5).with_lifetime_ms(1_234);
        let want = eager.process_interest(now(), &i, FaceId::WIRELESS);
        assert!(want.is_empty());
        let wire = wire_of(&i);
        let (got, outcome) = lazy
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("no-route interest resolves from the header");
        assert_eq!(got, want);
        assert_eq!(outcome, PeekOutcome::FibNoRoute);
        assert_eq!(
            lazy.stats().suppressed_interests,
            eager.stats().suppressed_interests
        );
        assert!(
            lazy.pit().contains(&Name::from_uri("/nowhere/x")),
            "PIT entry recorded: data flowing past later is still delivered"
        );
        // A nexthop that is only the non-rebroadcast ingress face counts as
        // no usable route too, matching the full pipeline's filter.
        let j = interest("/app/y", 6);
        let jw = wire_of(&j);
        let (acts, outcome) = lazy
            .process_interest_header(now(), &header_of(&jw), &jw, FaceId::APP)
            .expect("ingress-only route suppresses");
        assert!(acts.is_empty());
        assert_eq!(outcome, PeekOutcome::FibNoRoute);
        // Same expiry on both pipelines: the 1 234 ms entry survives up to
        // the microsecond before its lifetime ends and goes exactly then.
        let due = now() + SimDuration::from_millis(1_234);
        let just_before = now() + SimDuration::from_micros(1_233_999);
        for f in [&mut lazy, &mut eager] {
            assert_eq!(f.expire(just_before), 0);
            assert_eq!(f.expire(due), 1);
            assert!(!f.pit().contains(&Name::from_uri("/nowhere/x")));
        }
    }

    #[test]
    fn header_pipeline_defers_aggregation_and_routable_new_entries() {
        // A new entry whose usable next hop is the application must take
        // the full pipeline: the app needs the decoded Interest.
        let mut f = fwd();
        let i = interest("/app/x", 1);
        let wire = wire_of(&i);
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        assert_eq!(
            f.stats().cs_hits + f.stats().duplicate_interests + f.stats().suppressed_interests,
            0,
            "fall-through must count nothing"
        );
        assert!(f.pit().is_empty(), "fall-through must not touch the PIT");
        f.process_interest(now(), &i, FaceId::WIRELESS);
        // Same name, fresh nonce: aggregation also defers.
        let wire = wire_of(&interest("/app/x", 2));
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        // ...even when CanBePrefix is set and nothing is cached.
        let wire = wire_of(&interest("/app/x", 3).with_can_be_prefix(true));
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        assert_eq!(f.stats().aggregated_interests, 0, "nothing committed");
    }

    #[test]
    fn header_pipeline_with_rebroadcast_ingress_defers_instead_of_dropping() {
        // DAPES-style forwarders re-broadcast out the ingress radio: the
        // same overheard Interest that a point-to-point FIB would drop is a
        // usable-route case here. With a second next hop and a patchable
        // hop limit, one byte patch cannot serve both faces, so it must
        // fall through to the full pipeline rather than resolve as a drop.
        let mut f = Forwarder::new(ForwarderConfig {
            rebroadcast_faces: vec![FaceId::WIRELESS],
            ..ForwarderConfig::default()
        });
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        f.fib_mut().register(Name::from_uri("/"), FaceId(9));
        let i = interest("/a", 1).with_hop_limit(5);
        let wire = wire_of(&i);
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        assert!(f.pit().is_empty(), "fall-through must not touch the PIT");
        // The full pipeline forwards out both faces.
        let actions = f.process_interest(now(), &i, FaceId::WIRELESS);
        assert_eq!(actions.len(), 2, "{actions:?}");
    }

    #[test]
    #[should_panic(expected = "relay_patch must be true")]
    fn relay_patch_off_is_refused() {
        Forwarder::new(ForwarderConfig {
            relay_patch: false,
            ..ForwarderConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "legacy_tables false")]
    fn legacy_tables_on_is_refused() {
        Forwarder::new(ForwarderConfig {
            legacy_tables: true,
            ..ForwarderConfig::default()
        });
    }

    fn relay_fwd() -> Forwarder {
        let mut f = Forwarder::new(ForwarderConfig {
            rebroadcast_faces: vec![FaceId::WIRELESS],
            ..ForwarderConfig::default()
        });
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        f
    }

    #[test]
    fn header_pipeline_relays_by_hop_limit_patch_without_decoding() {
        let mut f = relay_fwd();
        let i = interest("/a", 1).with_hop_limit(5);
        let wire = wire_of(&i);
        let (actions, outcome) = f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("relay resolves from the header");
        assert_eq!(outcome, PeekOutcome::Relayed);
        let [Action::RelayInterest {
            face,
            frame,
            name,
            nonce,
        }] = &actions[..]
        else {
            panic!("expected one relay action, got {actions:?}");
        };
        assert_eq!(*face, FaceId::WIRELESS);
        assert_eq!(name, &Name::from_uri("/a"));
        assert_eq!(*nonce, 1);
        // The frame is the eager path's bytes exactly: decode, decrement,
        // re-encode.
        let mut eager = Interest::decode_payload(&wire).expect("decode");
        assert!(eager.decrement_hop_limit());
        assert_eq!(frame.as_slice(), &eager.wire()[..]);
        assert_eq!(
            Interest::decode(frame)
                .expect("patched frame decodes")
                .hop_limit(),
            Some(4)
        );
        // Full-pipeline side effects committed: PIT entry, stats, expiry.
        assert!(f.pit().contains(&Name::from_uri("/a")));
        assert!(f.pit().has_nonce(&Name::from_uri("/a"), 1));
        assert_eq!(f.stats().forwarded_interests, 1);

        // A hop-limit-free Interest relays the received buffer as-is.
        let j = interest("/b", 2);
        let jw = wire_of(&j);
        let (actions, outcome) = f
            .process_interest_header(now(), &header_of(&jw), &jw, FaceId::WIRELESS)
            .expect("relay resolves");
        assert_eq!(outcome, PeekOutcome::Relayed);
        let [Action::RelayInterest { frame, .. }] = &actions[..] else {
            panic!("expected one relay action");
        };
        assert!(
            Payload::ptr_eq(frame, &jw),
            "no hop limit: zero-copy relay of the received frame"
        );
    }

    #[test]
    fn header_pipeline_relay_commits_but_sends_nothing_on_exhausted_hops() {
        // `decrement_hop_limit` returning false in the eager path still
        // leaves the PIT entry and forwarding stats committed — only the
        // transmission is skipped.
        let mut f = relay_fwd();
        let i = interest("/a", 1).with_hop_limit(1);
        let wire = wire_of(&i);
        let (actions, outcome) = f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("exhausted relay still resolves");
        assert!(actions.is_empty());
        assert_eq!(outcome, PeekOutcome::Relayed);
        assert!(f.pit().contains(&Name::from_uri("/a")));
        assert_eq!(f.stats().forwarded_interests, 1);
    }

    #[test]
    fn header_pipeline_relay_falls_through_on_unpatchable_frames() {
        // Non-wireless usable next hop: the application needs the decoded
        // Interest.
        let mut f = fwd();
        let i = interest("/app/x", 1);
        let wire = wire_of(&i);
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        assert!(f.pit().is_empty());

        // Non-canonical (multi-byte) hop limit: a byte patch would not
        // match a re-encode.
        let mut f = relay_fwd();
        let mut body = Vec::new();
        crate::packet::encode_name(&mut body, &Name::from_uri("/a"));
        crate::tlv::write_tlv(&mut body, crate::tlv::types::NONCE, &1u32.to_be_bytes());
        crate::tlv::write_tlv(&mut body, crate::tlv::types::HOP_LIMIT, &[3, 9]);
        let mut raw = Vec::new();
        crate::tlv::write_tlv(&mut raw, crate::tlv::types::INTEREST, &body);
        let wire = Payload::from(raw);
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());

        // Trailing bytes after the packet: the buffer is not this packet's
        // wire image, so it must not be relayed verbatim.
        let mut with_trailer = interest("/a", 1).encode();
        with_trailer.extend_from_slice(&[0x99, 0x00]);
        let wire = Payload::from(with_trailer);
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        assert!(f.pit().is_empty(), "fall-throughs must not touch the PIT");
    }

    #[test]
    fn header_pipeline_relay_respects_strategy_suppression() {
        struct NeverHeader;
        impl Strategy for NeverHeader {
            fn decide(&mut self, _: &Interest, _: FaceId, _: &[FaceId], _: SimTime) -> Decision {
                Decision::Suppress
            }
            fn decide_header(
                &mut self,
                _: &Name,
                _: FaceId,
                _: &[FaceId],
                _: SimTime,
            ) -> Option<Decision> {
                Some(Decision::Suppress)
            }
        }
        let mut f = Forwarder::with_strategy(
            ForwarderConfig {
                rebroadcast_faces: vec![FaceId::WIRELESS],
                ..ForwarderConfig::default()
            },
            NeverHeader,
        );
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        let i = interest("/a", 1);
        let wire = wire_of(&i);
        let (actions, outcome) = f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .expect("suppression resolves from the header");
        assert!(actions.is_empty());
        assert_eq!(outcome, PeekOutcome::RelaySuppressed);
        assert_eq!(f.stats().suppressed_interests, 1);
        assert!(
            f.pit().contains(&Name::from_uri("/a")),
            "suppressed Interests still record PIT state"
        );
    }

    #[test]
    fn header_pipeline_relay_defers_when_strategy_needs_the_payload() {
        // The default `decide_header` returns None: strategies that inspect
        // application parameters keep the full pipeline.
        struct PayloadBound;
        impl Strategy for PayloadBound {
            fn decide(&mut self, _: &Interest, _: FaceId, n: &[FaceId], _: SimTime) -> Decision {
                Decision::Forward(n.to_vec())
            }
        }
        let mut f = Forwarder::with_strategy(
            ForwarderConfig {
                rebroadcast_faces: vec![FaceId::WIRELESS],
                ..ForwarderConfig::default()
            },
            PayloadBound,
        );
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        let i = interest("/a", 1).with_hop_limit(5);
        let wire = wire_of(&i);
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        assert!(f.pit().is_empty(), "fall-through must not touch the PIT");
        assert_eq!(f.stats().forwarded_interests, 0);
    }

    #[test]
    fn data_header_resolves_only_unsolicited_non_caching() {
        let mut f = fwd();
        f.process_interest(now(), &interest("/a", 1), FaceId::APP);
        let key = |uri: &str| Name::from_uri(uri).to_wire_value();
        assert!(!f.process_data_header(&key("/a")), "PIT match");
        assert!(f.process_data_header(&key("/x")));
        assert_eq!(f.stats().unsolicited_data, 1);
        assert!(
            f.pit().contains(&Name::from_uri("/a")),
            "probe is read-only"
        );

        let mut pf = Forwarder::new(ForwarderConfig {
            cache_unsolicited: true,
            ..ForwarderConfig::default()
        });
        assert!(
            !pf.process_data_header(&key("/x")),
            "a caching pure forwarder must always decode"
        );
        assert_eq!(pf.stats().unsolicited_data, 0);
    }

    #[test]
    fn state_bytes_cover_tables() {
        let mut f = fwd();
        let base = f.state_bytes();
        f.cs_mut().insert(data("/a"), now());
        f.process_interest(now(), &interest("/b", 1), FaceId::APP);
        assert!(f.state_bytes() > base);
    }
}
