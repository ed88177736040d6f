//! The NDN forwarding pipeline (the paper's Fig. 1).
//!
//! The [`Forwarder`] is sans-IO: callers feed it packets with the face they
//! arrived on and apply the returned [`Action`]s (send a packet out a face).
//! Host integration — mapping [`crate::face::FaceId::WIRELESS`] to simulator
//! frames and [`crate::face::FaceId::APP`] to application callbacks — lives
//! with the protocol stacks.
//!
//! Pipeline for an incoming Interest ([`Forwarder::receive_interest`], run
//! on the received view [`crate::packet::InterestHeader`]):
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
use crate::name::wire_value_is_well_formed;
use crate::packet::{
    whole_buffer_is_one_packet, Data, Interest, InterestHeader, Packet, PacketHeader,
    PeekedHopLimit,
};
use crate::pit::{Pit, PitEntry, PitSlot};
use dapes_netsim::payload::Payload;
use dapes_netsim::time::{SimDuration, SimTime};
use std::ops::ControlFlow;

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
    /// Send an Interest frame out a network face, ready for the radio:
    /// the received buffer with its hop-limit byte already patched
    /// (copy-on-write), or our own Interest's wire image as is (see
    /// [`Forwarder::receive_interest`]). `name_wire` and `nonce` accompany
    /// it for the caller's pending-transmission bookkeeping
    /// (cancel-on-data, cancel-on-nonce, forwarding notes); a caller that
    /// keeps the name builds it
    /// ([`crate::name::Name::from_wire_value`]).
    RelayInterest {
        /// Egress face.
        face: FaceId,
        /// The wire image to send.
        frame: Payload,
        /// The Interest name's TLV value region: a zero-copy view into the
        /// received frame, well-formed.
        name_wire: Payload,
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
    /// Decides forwarding for `interest`, the received view (its
    /// application parameters included) of `frame`, arriving on `ingress`.
    /// The view's name region is well-formed; a strategy that reads the
    /// name builds it ([`InterestHeader::to_name`] over `frame`), and one
    /// that does not pays nothing for it. `nexthops` are the FIB's usable
    /// next hops — never empty: with none the forwarder suppresses without
    /// asking.
    fn decide(
        &mut self,
        interest: &InterestHeader<'_>,
        frame: &Payload,
        ingress: FaceId,
        nexthops: &[FaceId],
        now: SimTime,
    ) -> Decision;
}

/// The default NDN multicast behaviour: forward to every FIB next hop.
#[derive(Clone, Copy, Debug, Default)]
pub struct BroadcastStrategy;

impl Strategy for BroadcastStrategy {
    fn decide(
        &mut self,
        _interest: &InterestHeader<'_>,
        _frame: &Payload,
        _ingress: FaceId,
        nexthops: &[FaceId],
        _now: SimTime,
    ) -> Decision {
        Decision::Forward(nexthops.to_vec())
    }
}

/// How [`Forwarder::receive_interest`] resolved an Interest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterestOutcome {
    /// Answered from the Content Store by exact name.
    CsHit,
    /// Answered from the Content Store by prefix (CanBePrefix).
    CsPrefixHit,
    /// Dropped: the PIT already holds its nonce.
    DuplicateNonce,
    /// Aggregated onto a pending entry (then delivered to the faces in
    /// [`ForwarderConfig::deliver_on_aggregate`], and re-forwarded when the
    /// retransmission interval has passed).
    Aggregated,
    /// Recorded and suppressed: no usable next hop.
    NoRoute,
    /// Recorded and suppressed by the strategy.
    Suppressed,
    /// Recorded and forwarded out network faces as the received frame
    /// itself, its hop limit patched — or recorded with its hop limit
    /// spent, so nothing was sent. No `Interest` was built.
    Relayed,
    /// Recorded and forwarded, building an `Interest`: for the application
    /// face, or to re-encode a frame a byte patch cannot relay.
    Forwarded,
    /// The name region is malformed: dropped, nothing recorded.
    Malformed,
}

/// [`Forwarder::process_interest_header`]'s outcomes. Kept, with that
/// method, only for `benchmark/`'s relay-swarm stack, which matches these
/// six variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeekOutcome {
    /// [`InterestOutcome::CsHit`].
    CsHit,
    /// [`InterestOutcome::CsPrefixHit`].
    CsPrefixHit,
    /// [`InterestOutcome::DuplicateNonce`].
    DuplicateNonce,
    /// [`InterestOutcome::NoRoute`].
    FibNoRoute,
    /// [`InterestOutcome::Relayed`] or [`InterestOutcome::Forwarded`].
    Relayed,
    /// [`InterestOutcome::Suppressed`].
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
    /// Placeholder that must be `true`: a relay always sends the received
    /// frame ([`Action::RelayInterest`]).
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

    /// The Interest pipeline (the paper's Fig. 1) over a received view:
    ///
    /// 1. **CS lookup** — a cached Data packet answers the Interest out its
    ///    ingress face;
    /// 2. **PIT** — a duplicate nonce is dropped; a pending name aggregates
    ///    (see [`InterestOutcome::Aggregated`]);
    /// 3. **FIB + strategy** — a new entry is recorded, and the
    ///    [`Strategy`] chooses among the usable next hops, which is where
    ///    DAPES's §V forwarding and suppression plug in.
    ///
    /// `frame` is the buffer `interest` was peeked from. The application
    /// face receives an owned [`Interest`] ([`Action::SendInterest`]);
    /// every other face receives the frame itself ([`Action::RelayInterest`])
    /// — as is when `ingress` is the application (our own Interest), else
    /// with its hop-limit byte patched copy-on-write, and nothing once the
    /// hop limit is spent. Only a frame the patch cannot reproduce exactly
    /// (trailing bytes, a non-canonical hop limit) is re-encoded, which is
    /// what decode → decrement → encode sends.
    pub fn receive_interest(
        &mut self,
        now: SimTime,
        interest: &InterestHeader<'_>,
        frame: &Payload,
        ingress: FaceId,
    ) -> (Vec<Action>, InterestOutcome) {
        match self.consult_tables(now, interest, ingress) {
            ControlFlow::Break(resolved) => resolved,
            ControlFlow::Continue(pending) => self.record(now, interest, frame, ingress, pending),
        }
    }

    /// The pipeline's first two steps: reclaims, then answers `interest`
    /// from the Content Store or drops it as a duplicate nonce (`Break`),
    /// or hands on the PIT probe and, if its name is pending, when it was
    /// last forwarded (`Continue`). Nothing is recorded but those two
    /// outcomes' counters.
    fn consult_tables(
        &mut self,
        now: SimTime,
        interest: &InterestHeader<'_>,
        ingress: FaceId,
    ) -> ControlFlow<(Vec<Action>, InterestOutcome), Pending> {
        self.reclaim(now);
        if let Some((data, outcome)) = self.cs_answer(interest, now) {
            let data = data.clone();
            self.stats.cs_hits += 1;
            let face = ingress;
            return ControlFlow::Break((vec![Action::SendData { face, data }], outcome));
        }
        let probe = self.pit.probe(interest.name_wire);
        match self.pit.probed(probe) {
            Some(entry) if entry.has_nonce(interest.nonce) => {
                self.stats.duplicate_interests += 1;
                ControlFlow::Break((Vec::new(), InterestOutcome::DuplicateNonce))
            }
            entry => ControlFlow::Continue(Pending {
                probe,
                last_forward: entry.map(PitEntry::last_forward),
            }),
        }
    }

    /// The rest of the pipeline, for an Interest the tables did not
    /// resolve: FIB, the PIT entry (new, or aggregated onto the `pending`
    /// one), the strategy and the egress.
    fn record(
        &mut self,
        now: SimTime,
        interest: &InterestHeader<'_>,
        frame: &Payload,
        ingress: FaceId,
        pending: Pending,
    ) -> (Vec<Action>, InterestOutcome) {
        let name_wire = interest.name_wire;
        // The FIB walk also proves the name region well-formed; nothing is
        // recorded for a malformed one.
        let Some(nexthops) = self.fib.longest_prefix_match_wire(name_wire) else {
            return (Vec::new(), InterestOutcome::Malformed);
        };
        // The ingress face stays a candidate when it is a broadcast face:
        // re-broadcasting out the same radio is what multi-hop relay means.
        let usable: Vec<FaceId> = nexthops
            .iter()
            .copied()
            .filter(|&f| f != ingress || self.cfg.rebroadcast_faces.contains(&f))
            .collect();
        let expiry = now + SimDuration::from_millis(interest.lifetime_ms);
        let (_, entry) = self.pit.insert_probed(
            pending.probe,
            name_wire,
            interest.nonce,
            interest.can_be_prefix,
            ingress,
            expiry,
        );
        let Some(last_forward) = pending.last_forward else {
            if usable.is_empty() {
                self.stats.suppressed_interests += 1;
                return (Vec::new(), InterestOutcome::NoRoute);
            }
            return match self.strategy.decide(interest, frame, ingress, &usable, now) {
                Decision::Suppress => {
                    self.stats.suppressed_interests += 1;
                    (Vec::new(), InterestOutcome::Suppressed)
                }
                Decision::Forward(faces) => {
                    self.stats.forwarded_interests += 1;
                    entry.set_last_forward(now);
                    let faces = faces
                        .into_iter()
                        .filter(|&f| f != ingress || self.cfg.rebroadcast_faces.contains(&f));
                    egress(faces, interest, frame, ingress)
                }
            };
        };
        self.stats.aggregated_interests += 1;
        let mut faces: Vec<FaceId> = nexthops
            .iter()
            .copied()
            .filter(|f| *f != ingress && self.cfg.deliver_on_aggregate.contains(f))
            .collect();
        // Consumer retransmission: a new nonce for a still-pending name
        // re-forwards upstream once the suppression interval elapsed (NFD
        // strategies behave the same way) — without this, one lost Data on
        // a multi-hop path would stall the transfer for the whole Interest
        // lifetime.
        let reforward =
            !usable.is_empty() && last_forward.is_none_or(|t| now.since(t) >= REFORWARD_INTERVAL);
        if faces.is_empty() && !reforward {
            return (Vec::new(), InterestOutcome::Aggregated);
        }
        if reforward {
            if let Decision::Forward(chosen) =
                self.strategy.decide(interest, frame, ingress, &usable, now)
            {
                let before = faces.len();
                faces.extend(chosen.into_iter().filter(|&f| {
                    (f != ingress || self.cfg.rebroadcast_faces.contains(&f))
                        && !self.cfg.deliver_on_aggregate.contains(&f)
                }));
                if faces.len() > before {
                    entry.set_last_forward(now);
                }
            }
        }
        let (actions, _) = egress(faces.into_iter(), interest, frame, ingress);
        (actions, InterestOutcome::Aggregated)
    }

    /// The Content Store's answer to `interest`, if any. The ordered prefix
    /// walk runs only over a well-formed name region: a truncated one could
    /// byte-prefix-match a cached name.
    fn cs_answer(
        &self,
        interest: &InterestHeader<'_>,
        now: SimTime,
    ) -> Option<(&Data, InterestOutcome)> {
        let (name_wire, fresh) = (interest.name_wire, interest.must_be_fresh);
        if !interest.can_be_prefix {
            return self
                .cs
                .lookup_wire_exact(name_wire, fresh, now)
                .map(|d| (d, InterestOutcome::CsHit));
        }
        if !wire_value_is_well_formed(name_wire) {
            return None;
        }
        self.cs
            .lookup_wire_prefix(name_wire, fresh, now)
            .map(|d| (d, InterestOutcome::CsPrefixHit))
    }

    /// Whether `interest` would get past the Content Store and the
    /// duplicate-nonce check into the PIT — where it is recorded, and from
    /// where it can reach the strategy or the application. Reclaims first,
    /// as [`Forwarder::receive_interest`] does, and records nothing else.
    pub fn reaches_pit(&mut self, now: SimTime, interest: &InterestHeader<'_>) -> bool {
        self.reclaim(now);
        self.cs_answer(interest, now).is_none()
            && !self
                .pit
                .probe_wire(interest.name_wire)
                .is_some_and(|e| e.has_nonce(interest.nonce))
    }

    /// [`Forwarder::receive_interest`] for an owned Interest — our own,
    /// arriving from the application face, or one `benchmark/` decoded.
    pub fn process_interest(
        &mut self,
        now: SimTime,
        interest: &Interest,
        ingress: FaceId,
    ) -> Vec<Action> {
        let wire = interest.wire();
        let Ok(PacketHeader::Interest(view)) = Packet::peek_header(&wire) else {
            unreachable!("an encoded Interest peeks as one");
        };
        self.receive_interest(now, &view, &wire, ingress).0
    }

    /// [`Forwarder::receive_interest`] with its outcome mapped onto
    /// [`PeekOutcome`], kept only for `benchmark/`'s relay-swarm stack. An
    /// Interest that would aggregate, or whose name region is malformed,
    /// returns `None` with nothing recorded but the reclaim (idempotent at
    /// one instant): that stack decodes such frames and calls
    /// [`Forwarder::process_interest`].
    pub fn process_interest_header(
        &mut self,
        now: SimTime,
        header: &InterestHeader<'_>,
        backing: &Payload,
        ingress: FaceId,
    ) -> Option<(Vec<Action>, PeekOutcome)> {
        let (actions, outcome) = match self.consult_tables(now, header, ingress) {
            ControlFlow::Break(resolved) => resolved,
            ControlFlow::Continue(Pending {
                last_forward: Some(_),
                ..
            }) => return None,
            ControlFlow::Continue(pending) => self.record(now, header, backing, ingress, pending),
        };
        let outcome = match outcome {
            InterestOutcome::CsHit => PeekOutcome::CsHit,
            InterestOutcome::CsPrefixHit => PeekOutcome::CsPrefixHit,
            InterestOutcome::DuplicateNonce => PeekOutcome::DuplicateNonce,
            InterestOutcome::NoRoute => PeekOutcome::FibNoRoute,
            InterestOutcome::Suppressed => PeekOutcome::RelaySuppressed,
            InterestOutcome::Relayed | InterestOutcome::Forwarded => PeekOutcome::Relayed,
            InterestOutcome::Aggregated | InterestOutcome::Malformed => return None,
        };
        Some((actions, outcome))
    }

    /// The Data pipeline's name-first step: resolves an overheard Data
    /// packet from its peeked name bytes alone. Returns `true` — counting it
    /// as unsolicited, exactly as [`Forwarder::process_data`] would — when
    /// the Data matches no PIT entry and this forwarder does not cache
    /// unsolicited packets, i.e. when the packet needs no action and no
    /// decode. Returns `false` (with nothing counted) when the caller must
    /// decode and run [`Forwarder::process_data`].
    pub fn process_data_header(&mut self, name_wire: &[u8]) -> bool {
        if self.cfg.cache_unsolicited || self.pit.matches_wire(name_wire) {
            return false;
        }
        self.stats.unsolicited_data += 1;
        true
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
        let matched = self.pit.take_matching(&name_wire);
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
    /// first on every Interest, the only thing that grows the table.
    fn reclaim(&mut self, now: SimTime) {
        self.stats.pit_reclaimed += self.pit.reclaim(now) as u64;
    }
}

/// What [`Forwarder::consult_tables`] hands on for an Interest the tables
/// did not resolve: where the PIT probe found (or would put) its name, and
/// — when the name is pending — when it was last forwarded.
struct Pending {
    probe: PitSlot,
    last_forward: Option<Option<SimTime>>,
}

/// The actions sending `interest` (the view of `frame`) out `faces`, in
/// order, and whether that built an `Interest`
/// ([`InterestOutcome::Forwarded`]) or not ([`InterestOutcome::Relayed`]):
/// see [`Forwarder::receive_interest`]. A name is built only for the
/// application face or a frame that must be re-encoded.
fn egress(
    faces: impl Iterator<Item = FaceId>,
    interest: &InterestHeader<'_>,
    frame: &Payload,
    ingress: FaceId,
) -> (Vec<Action>, InterestOutcome) {
    let mut built = false;
    // The frame every network face sends, worked out at the first one.
    let mut relayed: Option<Option<Payload>> = None;
    let mut actions = Vec::with_capacity(1);
    let build = || {
        interest
            .to_interest(frame)
            .expect("the FIB walked the region")
    };
    for face in faces {
        if face == FaceId::APP {
            built = true;
            actions.push(Action::SendInterest {
                face,
                interest: build(),
            });
            continue;
        }
        let relay = relayed.get_or_insert_with(|| {
            if ingress == FaceId::APP {
                return Some(frame.clone());
            }
            match interest.hop_limit {
                _ if !whole_buffer_is_one_packet(frame) => {}
                PeekedHopLimit::Absent => return Some(frame.clone()),
                PeekedHopLimit::Patchable { value, .. } if value <= 1 => return None,
                PeekedHopLimit::Patchable { value, offset } => {
                    let mut bytes = frame.as_slice().to_vec();
                    bytes[offset] = value - 1;
                    return Some(Payload::from(bytes));
                }
                PeekedHopLimit::Opaque { .. } => {}
            }
            built = true;
            let mut rebuilt = build();
            rebuilt.decrement_hop_limit().then(|| rebuilt.wire())
        });
        if let Some(relay) = relay {
            actions.push(Action::RelayInterest {
                face,
                frame: relay.clone(),
                name_wire: frame.view_of(interest.name_wire),
                nonce: interest.nonce,
            });
        }
    }
    let outcome = if built {
        InterestOutcome::Forwarded
    } else {
        InterestOutcome::Relayed
    };
    (actions, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;

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
        let i = interest("/col/f/0", 1);
        let actions = f.process_interest(now(), &i, FaceId::APP);
        assert_eq!(
            actions,
            vec![Action::RelayInterest {
                face: FaceId::WIRELESS,
                frame: i.wire(),
                name_wire: Name::from_uri("/col/f/0").to_wire_value().into(),
                nonce: 1,
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
        assert!(matches!(miss[0], Action::RelayInterest { .. }));
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
            fn decide(
                &mut self,
                _: &InterestHeader<'_>,
                _: &Payload,
                _: FaceId,
                _: &[FaceId],
                _: SimTime,
            ) -> Decision {
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
                _: &InterestHeader<'_>,
                _: &Payload,
                ingress: FaceId,
                _: &[FaceId],
                _: SimTime,
            ) -> Decision {
                Decision::Forward(vec![ingress])
            }
        }
        let mut f = Forwarder::with_strategy(ForwarderConfig::default(), Echo);
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        f.fib_mut().register(Name::from_uri("/"), FaceId(9));
        assert!(f
            .process_interest(now(), &interest("/a", 1), FaceId::WIRELESS)
            .is_empty());
        assert_eq!(f.stats().forwarded_interests, 1, "the strategy was asked");
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
        // A received frame's pipeline reclaims before it resolves.
        let wire = wire_of(&lifetime(interest("/d", 4)));
        let (_, outcome) =
            f.receive_interest(at(1_700), &header_of(&wire), &wire, FaceId::WIRELESS);
        assert_eq!(outcome, InterestOutcome::Relayed);
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
        match Packet::peek_header(wire).expect("valid") {
            PacketHeader::Interest(h) => h,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn wire_of(i: &Interest) -> dapes_netsim::payload::Payload {
        dapes_netsim::payload::Payload::from(i.encode())
    }

    /// Runs the pipeline on the frame `wire`, arriving on `ingress`.
    fn receive<S: Strategy>(
        f: &mut Forwarder<S>,
        wire: &Payload,
        ingress: FaceId,
    ) -> (Vec<Action>, InterestOutcome) {
        f.receive_interest(now(), &header_of(wire), wire, ingress)
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_cs_hit() {
        let mut f = fwd();
        f.cs_mut().insert(data("/col/f/0"), now());
        let wire = wire_of(&interest("/col/f/0", 1));
        let (actions, outcome) = receive(&mut f, &wire, FaceId::WIRELESS);
        assert_eq!(
            actions,
            vec![Action::SendData {
                face: FaceId::WIRELESS,
                data: data("/col/f/0")
            }]
        );
        assert_eq!(outcome, InterestOutcome::CsHit);
        assert_eq!(f.stats().cs_hits, 1);
        assert!(f.pit().is_empty(), "no PIT entry on a CS hit");
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_prefix_cs_hit() {
        let mut f = fwd();
        f.cs_mut().insert(data("/col/f/0"), now());
        let wire = wire_of(&interest("/col", 1).with_can_be_prefix(true));
        let (actions, outcome) = receive(&mut f, &wire, FaceId::WIRELESS);
        let cached = data("/col/f/0");
        assert!(matches!(&actions[..], [Action::SendData { data, .. }] if *data == cached));
        assert_eq!(outcome, InterestOutcome::CsPrefixHit);
        assert_eq!(f.stats().cs_hits, 1);
        assert!(f.pit().is_empty(), "no PIT entry on a CS hit");

        // A CanBePrefix *miss* of our own goes to the air as our own frame.
        let miss = wire_of(&interest("/other", 2).with_can_be_prefix(true));
        let (actions, outcome) = receive(&mut f, &miss, FaceId::APP);
        assert_eq!(outcome, InterestOutcome::Relayed);
        let [Action::RelayInterest { frame, .. }] = &actions[..] else {
            panic!("expected one relay action, got {actions:?}");
        };
        assert!(Payload::ptr_eq(frame, &miss), "our own frame, unpatched");
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_duplicate_nonce() {
        let mut f = fwd();
        let wire = wire_of(&interest("/a", 7));
        receive(&mut f, &wire, FaceId::WIRELESS);
        let (actions, outcome) = receive(&mut f, &wire, FaceId::WIRELESS);
        assert!(actions.is_empty());
        assert_eq!(outcome, InterestOutcome::DuplicateNonce);
        assert_eq!(f.stats().duplicate_interests, 1);
        assert_eq!(f.pit().len(), 1);
    }

    #[test]
    fn header_pipeline_matches_full_pipeline_on_fib_no_route() {
        // No FIB entry covers "/nowhere": the entry is recorded — data
        // flowing past later is still delivered — and nothing is sent.
        let mut f = Forwarder::new(ForwarderConfig::default());
        f.fib_mut().register(Name::from_uri("/app"), FaceId::APP);
        let wire = wire_of(&interest("/nowhere/x", 5).with_lifetime_ms(1_234));
        let (actions, outcome) = receive(&mut f, &wire, FaceId::WIRELESS);
        assert!(actions.is_empty());
        assert_eq!(outcome, InterestOutcome::NoRoute);
        assert_eq!(f.stats().suppressed_interests, 1);
        assert!(f.pit().contains(&Name::from_uri("/nowhere/x")));
        // A next hop that is only the non-rebroadcast ingress face is no
        // usable route either.
        let wire = wire_of(&interest("/app/y", 6));
        let (actions, outcome) = receive(&mut f, &wire, FaceId::APP);
        assert!(actions.is_empty());
        assert_eq!(outcome, InterestOutcome::NoRoute);
        // The entry takes the frame's lifetime: it survives up to the
        // microsecond before its 1 234 ms end and goes exactly then.
        let due = now() + SimDuration::from_millis(1_234);
        assert_eq!(f.expire(now() + SimDuration::from_micros(1_233_999)), 0);
        assert_eq!(f.expire(due), 1);
        assert!(!f.pit().contains(&Name::from_uri("/nowhere/x")));
    }

    #[test]
    fn header_pipeline_defers_aggregation_and_routable_new_entries() {
        // An application next hop gets the built Interest.
        let mut f = fwd();
        let i = interest("/app/x", 1);
        let (actions, outcome) = receive(&mut f, &wire_of(&i), FaceId::WIRELESS);
        assert_eq!(
            actions,
            vec![Action::SendInterest {
                face: FaceId::APP,
                interest: i
            }]
        );
        assert_eq!(outcome, InterestOutcome::Forwarded);
        assert_eq!(f.stats().forwarded_interests, 1);
        // Same name, fresh nonce: aggregated in the same pipeline.
        let (actions, outcome) = receive(&mut f, &wire_of(&interest("/app/x", 2)), FaceId(9));
        assert!(actions.is_empty(), "no aggregate delivery configured");
        assert_eq!(outcome, InterestOutcome::Aggregated);
        assert_eq!(f.stats().aggregated_interests, 1);
        assert_eq!(f.pit().len(), 1);
        // `process_interest_header` (kept for `benchmark/`) hands an
        // aggregating Interest back undone, even with CanBePrefix set.
        let wire = wire_of(&interest("/app/x", 3).with_can_be_prefix(true));
        assert!(f
            .process_interest_header(now(), &header_of(&wire), &wire, FaceId::WIRELESS)
            .is_none());
        assert_eq!(f.stats().aggregated_interests, 1, "nothing committed");
    }

    #[test]
    fn header_pipeline_with_rebroadcast_ingress_defers_instead_of_dropping() {
        // DAPES-style forwarders re-broadcast out the ingress radio, so an
        // overheard Interest has a usable route here. Every network next
        // hop gets the same patched frame.
        let mut f = Forwarder::new(ForwarderConfig {
            rebroadcast_faces: vec![FaceId::WIRELESS],
            ..ForwarderConfig::default()
        });
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        f.fib_mut().register(Name::from_uri("/"), FaceId(9));
        let wire = wire_of(&interest("/a", 1).with_hop_limit(5));
        let (actions, outcome) = receive(&mut f, &wire, FaceId::WIRELESS);
        assert_eq!(outcome, InterestOutcome::Relayed);
        let faces: Vec<FaceId> = actions
            .iter()
            .map(|a| match a {
                Action::RelayInterest { face, frame, .. } => {
                    let relayed = Interest::decode(frame).expect("decodes");
                    assert_eq!(relayed.hop_limit(), Some(4));
                    *face
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(faces, vec![FaceId::WIRELESS, FaceId(9)]);
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
        let i = interest("/a", 1)
            .with_hop_limit(5)
            .with_app_parameters(vec![0xB1; 16]);
        let wire = wire_of(&i);
        let (actions, outcome) = receive(&mut f, &wire, FaceId::WIRELESS);
        assert_eq!(outcome, InterestOutcome::Relayed);
        let [Action::RelayInterest {
            face,
            frame,
            name_wire,
            nonce,
        }] = &actions[..]
        else {
            panic!("expected one relay action, got {actions:?}");
        };
        assert_eq!(*face, FaceId::WIRELESS);
        assert_eq!(Name::from_wire_value(name_wire), Some(Name::from_uri("/a")));
        assert!(
            Payload::same_backing(name_wire, &wire),
            "the name bytes are a view into the received frame"
        );
        assert_eq!(*nonce, 1);
        // The frame is decode → decrement → re-encode's bytes exactly.
        let mut decoded = Interest::decode(&wire).expect("decode");
        assert!(decoded.decrement_hop_limit());
        assert_eq!(frame.as_slice(), &decoded.encode()[..]);
        // Recorded: PIT entry and nonce, forwarding stats.
        let entry = f.pit().probe_wire(&Name::from_uri("/a").to_wire_value());
        assert!(entry.is_some_and(|e| e.has_nonce(1)));
        assert_eq!(f.stats().forwarded_interests, 1);

        // A hop-limit-free Interest relays the received buffer as is.
        let jw = wire_of(&interest("/b", 2));
        let (actions, outcome) = receive(&mut f, &jw, FaceId::WIRELESS);
        assert_eq!(outcome, InterestOutcome::Relayed);
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
        // A spent hop limit still records the entry and the forward; only
        // the transmission is skipped.
        let mut f = relay_fwd();
        let wire = wire_of(&interest("/a", 1).with_hop_limit(1));
        let (actions, outcome) = receive(&mut f, &wire, FaceId::WIRELESS);
        assert!(actions.is_empty());
        assert_eq!(outcome, InterestOutcome::Relayed);
        assert!(f.pit().contains(&Name::from_uri("/a")));
        assert_eq!(f.stats().forwarded_interests, 1);
    }

    #[test]
    fn header_pipeline_relay_falls_through_on_unpatchable_frames() {
        // Frames a byte patch cannot reproduce are re-encoded: exactly what
        // decode → decrement → encode sends.
        let relayed = |f: &mut Forwarder, wire: &Payload| {
            let (actions, outcome) = receive(f, wire, FaceId::WIRELESS);
            assert_eq!(outcome, InterestOutcome::Forwarded);
            let [Action::RelayInterest { frame, .. }] = &actions[..] else {
                panic!("expected one relay action, got {actions:?}");
            };
            let mut decoded = Interest::decode_payload(wire).expect("decode");
            assert!(decoded.decrement_hop_limit());
            assert_eq!(frame.as_slice(), &decoded.wire()[..]);
            frame.clone()
        };
        // A non-canonical (multi-byte) hop limit.
        let mut f = relay_fwd();
        let mut body = Vec::new();
        crate::packet::encode_name(&mut body, &Name::from_uri("/a"));
        crate::tlv::write_tlv(&mut body, crate::tlv::types::NONCE, &1u32.to_be_bytes());
        crate::tlv::write_tlv(&mut body, crate::tlv::types::HOP_LIMIT, &[3, 9]);
        let mut raw = Vec::new();
        crate::tlv::write_tlv(&mut raw, crate::tlv::types::INTEREST, &body);
        let frame = relayed(&mut f, &Payload::from(raw));
        assert_eq!(
            Interest::decode(&frame).expect("decodes").hop_limit(),
            Some(2)
        );
        // Trailing bytes after the packet: the buffer is not this packet's
        // wire image, so it goes out re-encoded, without them.
        let i = interest("/b", 1).with_hop_limit(4);
        let mut with_trailer = i.encode();
        with_trailer.extend_from_slice(&[0x99, 0x00]);
        let frame = relayed(&mut f, &Payload::from(with_trailer));
        assert_eq!(frame.as_slice(), &i.with_hop_limit(3).encode()[..]);
        assert_eq!(f.stats().forwarded_interests, 2);
    }

    #[test]
    fn header_pipeline_relay_respects_strategy_suppression() {
        struct Never;
        impl Strategy for Never {
            fn decide(
                &mut self,
                _: &InterestHeader<'_>,
                _: &Payload,
                _: FaceId,
                _: &[FaceId],
                _: SimTime,
            ) -> Decision {
                Decision::Suppress
            }
        }
        let mut f = Forwarder::with_strategy(
            ForwarderConfig {
                rebroadcast_faces: vec![FaceId::WIRELESS],
                ..ForwarderConfig::default()
            },
            Never,
        );
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        let (actions, outcome) = receive(&mut f, &wire_of(&interest("/a", 1)), FaceId::WIRELESS);
        assert!(actions.is_empty());
        assert_eq!(outcome, InterestOutcome::Suppressed);
        assert_eq!(f.stats().suppressed_interests, 1);
        assert!(
            f.pit().contains(&Name::from_uri("/a")),
            "suppressed Interests still record PIT state"
        );
    }

    #[test]
    fn header_pipeline_relay_defers_when_strategy_needs_the_payload() {
        // A strategy that reads the application parameters decides from
        // the view, like any other: nothing defers.
        struct ParamsOnly;
        impl Strategy for ParamsOnly {
            fn decide(
                &mut self,
                interest: &InterestHeader<'_>,
                _: &Payload,
                _: FaceId,
                nexthops: &[FaceId],
                _: SimTime,
            ) -> Decision {
                match interest.app_parameters {
                    Some(_) => Decision::Forward(nexthops.to_vec()),
                    None => Decision::Suppress,
                }
            }
        }
        let mut f = Forwarder::with_strategy(
            ForwarderConfig {
                rebroadcast_faces: vec![FaceId::WIRELESS],
                ..ForwarderConfig::default()
            },
            ParamsOnly,
        );
        f.fib_mut().register(Name::from_uri("/"), FaceId::WIRELESS);
        let with = wire_of(
            &interest("/a", 1)
                .with_hop_limit(5)
                .with_app_parameters(vec![1]),
        );
        let (actions, outcome) = receive(&mut f, &with, FaceId::WIRELESS);
        assert_eq!(outcome, InterestOutcome::Relayed);
        assert_eq!(actions.len(), 1);
        let without = wire_of(&interest("/b", 2).with_hop_limit(5));
        assert_eq!(
            receive(&mut f, &without, FaceId::WIRELESS).1,
            InterestOutcome::Suppressed
        );
        assert_eq!(f.stats().forwarded_interests, 1);
        assert_eq!(f.stats().suppressed_interests, 1);
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
