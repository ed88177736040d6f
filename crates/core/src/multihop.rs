//! Multi-hop forwarding and suppression (paper §V).
//!
//! Every node keeps *short-lived knowledge* about the data available around
//! it, fed by overheard discovery replies, bitmap exchanges and Data
//! transmissions. That knowledge, [`MultihopState`], *is* the NDN
//! forwarder's [`Strategy`]: the peer's forwarder owns it by value, the peer
//! reaches it through `Forwarder::strategy_mut`, and per received Interest
//! it decides whether re-broadcasting is likely to bring data back:
//!
//! * **Pure forwarders** (§V-A) know nothing of DAPES semantics: they
//!   forward probabilistically after a random delay, cache overheard Data,
//!   and hold per-name suppression timers after unanswered forwards.
//! * **DAPES intermediate nodes** (§V-B) consult neighbor bitmaps: a
//!   content Interest is forwarded when some neighbor advertises the packet
//!   and suppressed when the local knowledge says nobody has it, falling
//!   back to the probabilistic scheme when ignorant.
//!
//! The state also keeps the node's own *holdings* — per collection, the
//! catalog's packet index and the bitmap of packets held — once, for the
//! strategy and for the peer's fetch and serve paths alike.

use crate::bitmap::Bitmap;
use crate::config::{NEIGHBOR_TIMEOUT, RESPONSE_TIMEOUT, SUPPRESS_DURATION};
use crate::due_after;
use crate::metadata::PacketIndex;
use crate::namespace::{self, DapesName};
use dapes_ndn::face::FaceId;
use dapes_ndn::forwarder::{Decision, Strategy};
use dapes_ndn::name::Name;
use dapes_ndn::packet::InterestHeader;
use dapes_netsim::payload::Payload;
use dapes_netsim::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use std::collections::BTreeMap;
use std::ops::Range;

/// What a node understands about DAPES.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// Full DAPES peer (producer, downloader, or idle DAPES node).
    Dapes,
    /// NDN-only node: caches and forwards but has no DAPES semantics.
    PureForwarder,
}

/// What we know about one neighbor.
#[derive(Clone, Debug, Default)]
pub struct NeighborInfo {
    /// Last time any frame from this peer was heard.
    pub last_heard: SimTime,
    /// Latest advertised bitmap per collection.
    pub bitmaps: BTreeMap<Name, Bitmap>,
    /// Collections the peer has expressed interest in.
    pub wants: Vec<Name>,
}

impl NeighborInfo {
    fn state_bytes(&self) -> usize {
        self.bitmaps
            .values()
            .map(|b| b.state_bytes() + 32)
            .sum::<usize>()
            + self.wants.iter().map(Name::state_bytes).sum::<usize>()
            + 16
    }
}

/// A node's multi-hop state: knowledge store, own holdings, suppression
/// timers, and the forwarding-accuracy bookkeeping behind the paper's "83 %
/// of forwarded Interests brought data back" claim.
///
/// The three expiring maps (neighbors, suppressions, pending forwards) are
/// private because [`MultihopState::sweep`] is watermarked: `next_due` is
/// a *lower bound* on the earliest instant a sweep could remove anything.
/// Every insert lowers it with `min`, refreshes and removals leave it, and
/// only a full scan raises it — to the exact minimum over the survivors.
/// Below it `sweep` returns at once.
#[derive(Debug)]
pub struct MultihopState {
    /// This node's role.
    pub role: NodeRole,
    /// Whether multi-hop forwarding is enabled at all (Fig. 9g "single-hop"
    /// disables it).
    pub enabled: bool,
    /// Probability of forwarding when no knowledge applies (paper default
    /// 20 %).
    pub forward_prob: f64,
    /// Per-neighbor knowledge.
    neighbors: BTreeMap<u32, NeighborInfo>,
    /// Per collection whose catalog we hold: its packet index and the bits
    /// we ourselves hold (so the strategy does not re-broadcast Interests
    /// the application can answer). The bitmap is as long as the index has
    /// packets; only the holdings methods change the pair.
    holdings: BTreeMap<Name, (PacketIndex, Bitmap)>,
    /// Suppressed names and when the suppression lapses.
    suppressed: BTreeMap<Name, SimTime>,
    /// Interests we forwarded and when, awaiting a data response.
    pending_response: BTreeMap<Name, SimTime>,
    /// Forwarded Interests that brought data back.
    pub forward_successes: u64,
    /// Forwarded Interests that timed out.
    pub forward_failures: u64,
    /// The sweep watermark (see the type docs).
    next_due: SimTime,
    rng: SmallRng,
}

impl MultihopState {
    /// Creates the state for a node.
    pub fn new(role: NodeRole, enabled: bool, forward_prob: f64, seed: u64) -> Self {
        MultihopState {
            role,
            enabled,
            forward_prob,
            neighbors: BTreeMap::new(),
            holdings: BTreeMap::new(),
            suppressed: BTreeMap::new(),
            pending_response: BTreeMap::new(),
            forward_successes: 0,
            forward_failures: 0,
            next_due: SimTime::FAR_FUTURE,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Per-neighbor knowledge, keyed by peer id.
    pub fn neighbors(&self) -> &BTreeMap<u32, NeighborInfo> {
        &self.neighbors
    }

    /// Suppressed names and when each suppression lapses.
    pub fn suppressed(&self) -> &BTreeMap<Name, SimTime> {
        &self.suppressed
    }

    /// Interests we forwarded and when, awaiting a data response.
    pub fn pending_response(&self) -> &BTreeMap<Name, SimTime> {
        &self.pending_response
    }

    /// Installs a collection's catalog index together with the packets
    /// already held, replacing any earlier holdings for it. Panics if
    /// `have` does not cover exactly the index's packets.
    pub fn install_holdings(&mut self, collection: Name, index: PacketIndex, have: Bitmap) {
        assert_eq!(have.len(), index.total_packets(), "bitmap/index mismatch");
        self.holdings.insert(collection, (index, have));
    }

    /// Marks packet `idx` of `collection` held (a verified segment).
    pub fn set_held(&mut self, collection: &Name, idx: usize) {
        if let Some((_, have)) = self.holdings.get_mut(collection) {
            have.set(idx);
        }
    }

    /// Drops `range` of `collection` (a file that failed verification).
    pub fn clear_held(&mut self, collection: &Name, range: Range<usize>) {
        if let Some((_, have)) = self.holdings.get_mut(collection) {
            range.for_each(|i| have.clear(i));
        }
    }

    /// Adds every packet of `other` to `collection`'s holdings (segments
    /// salvaged from a crashed incarnation).
    pub fn union_held(&mut self, collection: &Name, other: &Bitmap) {
        if let Some((_, have)) = self.holdings.get_mut(collection) {
            have.union_with(other);
        }
    }

    /// The packets of `collection` this node holds.
    pub fn held(&self, collection: &Name) -> Option<&Bitmap> {
        self.holdings.get(collection).map(|(_, have)| have)
    }

    /// The packet index of `collection`'s catalog, once installed.
    pub fn index(&self, collection: &Name) -> Option<&PacketIndex> {
        self.holdings.get(collection).map(|(index, _)| index)
    }

    /// Global packet index of content name `/<collection>/<file>/<seq>`
    /// under the collection's catalog, once we hold it.
    pub fn content_index(&self, collection: &Name, file: &str, seq: u64) -> Option<usize> {
        self.index(collection)?.global_index(file, seq)
    }

    /// Notes that `peer` was heard at `now`.
    pub fn note_peer(&mut self, peer: u32, now: SimTime) {
        self.touch_peer(peer, now);
    }

    fn touch_peer(&mut self, peer: u32, now: SimTime) -> &mut NeighborInfo {
        // A refresh only moves the entry's own deadline later, so `min`
        // changes the watermark for a new neighbor alone.
        self.next_due = self.next_due.min(due_after(now, NEIGHBOR_TIMEOUT));
        let info = self.neighbors.entry(peer).or_default();
        info.last_heard = now;
        info
    }

    /// Records a neighbor's bitmap for a collection.
    pub fn record_bitmap(&mut self, peer: u32, collection: &Name, bitmap: Bitmap, now: SimTime) {
        let info = self.touch_peer(peer, now);
        info.bitmaps.insert(collection.clone(), bitmap);
        if !info.wants.contains(collection) {
            info.wants.push(collection.clone());
        }
    }

    /// Records that a neighbor holds one packet (observed from a Data
    /// transmission).
    pub fn note_neighbor_has(
        &mut self,
        peer: u32,
        collection: &Name,
        global_idx: usize,
        now: SimTime,
    ) {
        let info = self.touch_peer(peer, now);
        if let Some(bm) = info.bitmaps.get_mut(collection) {
            if global_idx < bm.len() {
                bm.set(global_idx);
            }
        }
    }

    /// Records that a neighbor is interested in a collection.
    pub fn note_neighbor_wants(&mut self, peer: u32, collection: &Name, now: SimTime) {
        let info = self.touch_peer(peer, now);
        if !info.wants.contains(collection) {
            info.wants.push(collection.clone());
        }
    }

    /// Whether any neighbor knowledge says a packet is available nearby.
    pub fn neighbor_has_packet(&self, collection: &Name, global_idx: usize) -> Option<bool> {
        let mut any_bitmap = false;
        for info in self.neighbors.values() {
            if let Some(bm) = info.bitmaps.get(collection) {
                any_bitmap = true;
                if global_idx < bm.len() && bm.get(global_idx) {
                    return Some(true);
                }
            }
        }
        if any_bitmap {
            Some(false)
        } else {
            None // no knowledge at all
        }
    }

    /// Whether any neighbor is known to care about a collection.
    pub fn any_neighbor_interested(&self, collection: &Name) -> bool {
        self.neighbors
            .values()
            .any(|i| i.wants.contains(collection) || i.bitmaps.contains_key(collection))
    }

    /// Called when Data for `name` is observed: resolves a pending forward.
    pub fn note_data_seen(&mut self, name: &Name) {
        if self.pending_response.remove(name).is_some() {
            self.forward_successes += 1;
        }
        // Fresh data also lifts an existing suppression for the name.
        self.suppressed.remove(name);
    }

    /// Called when we actually put a forwarded Interest on the air.
    pub fn note_forwarded(&mut self, name: &Name, now: SimTime) {
        self.next_due = self.next_due.min(due_after(now, RESPONSE_TIMEOUT));
        self.pending_response.entry(name.clone()).or_insert(now);
    }

    /// Whether [`MultihopState::sweep`] at `now` would scan the maps —
    /// `false` while `now` is below the watermark, when it is known to
    /// remove nothing.
    pub fn sweep_due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Periodic sweep: expire pending forwards into suppressions and drop
    /// stale neighbors and lapsed suppressions. Returns the number of
    /// neighbors expired (crashed or departed peers leaving the strategy's
    /// view). Returns without looking at the maps while nothing can be due.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        if !self.sweep_due(now) {
            return 0;
        }
        let mut next_due = SimTime::FAR_FUTURE;
        let mut to_suppress = Vec::new();
        self.pending_response.retain(|name, &mut at| {
            if now.since(at) > RESPONSE_TIMEOUT {
                to_suppress.push(name.clone());
                false
            } else {
                next_due = next_due.min(due_after(at, RESPONSE_TIMEOUT));
                true
            }
        });
        for name in to_suppress {
            self.forward_failures += 1;
            self.suppressed.insert(name, now + SUPPRESS_DURATION);
        }
        self.suppressed.retain(|_, &mut until| {
            let keep = until > now;
            if keep {
                next_due = next_due.min(until);
            }
            keep
        });
        let before = self.neighbors.len();
        self.neighbors.retain(|_, info| {
            let keep = now.since(info.last_heard) <= NEIGHBOR_TIMEOUT;
            if keep {
                next_due = next_due.min(due_after(info.last_heard, NEIGHBOR_TIMEOUT));
            }
            keep
        });
        self.next_due = next_due;
        before - self.neighbors.len()
    }

    /// Count of live neighbors.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Forwarding accuracy so far (the §VI-D 83 % metric).
    pub fn forward_accuracy(&self) -> Option<f64> {
        let total = self.forward_successes + self.forward_failures;
        if total == 0 {
            None
        } else {
            Some(self.forward_successes as f64 / total as f64)
        }
    }

    /// Approximate bytes of multi-hop state (Table I memory proxy).
    pub fn state_bytes(&self) -> usize {
        self.neighbors
            .values()
            .map(NeighborInfo::state_bytes)
            .sum::<usize>()
            + self.suppressed.keys().map(Name::state_bytes).sum::<usize>()
            + self
                .pending_response
                .keys()
                .map(Name::state_bytes)
                .sum::<usize>()
    }

    /// Should we re-broadcast an Interest named `name`, heard from the
    /// air? `app_parameters` are its application parameters, which a
    /// bitmap Interest's decision reads.
    pub fn should_forward(
        &mut self,
        name: &Name,
        app_parameters: Option<&[u8]>,
        now: SimTime,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        if self.suppressed.get(name).is_some_and(|&until| until > now) {
            return false;
        }
        match self.role {
            NodeRole::PureForwarder => self.probabilistic(),
            NodeRole::Dapes => self.dapes_decision(name, app_parameters),
        }
    }

    fn probabilistic(&mut self) -> bool {
        self.rng.gen::<f64>() < self.forward_prob
    }

    /// Forward a bitmap Interest when a neighbor could add packets the
    /// requester (whose bitmap `app_parameters` carry) misses.
    fn bitmap_decision(&mut self, collection: &Name, app_parameters: Option<&[u8]>) -> bool {
        let requester_bitmap = app_parameters
            .and_then(crate::advert_payload::decode_bitmap_params_maybe_sealed)
            .map(|(_, bm)| bm);
        match requester_bitmap {
            Some(req) => {
                let mut any = false;
                for info in self.neighbors.values() {
                    if let Some(nb) = info.bitmaps.get(collection) {
                        any = true;
                        if nb.len() == req.len() && nb.count_set_and_missing_from(&req) > 0 {
                            return true;
                        }
                    }
                }
                if any {
                    false
                } else {
                    self.probabilistic()
                }
            }
            None => self.probabilistic(),
        }
    }

    fn dapes_decision(&mut self, name: &Name, app_parameters: Option<&[u8]>) -> bool {
        match namespace::classify(name) {
            Some(DapesName::Content {
                collection,
                file,
                seq,
            }) => {
                // If we can answer ourselves, the application will; no
                // re-broadcast needed.
                if let Some((index, have)) = self.holdings.get(&collection) {
                    if let Some(g) = index.global_index(&file, seq) {
                        if have.get(g) {
                            return false;
                        }
                        return match self.neighbor_has_packet(&collection, g) {
                            Some(true) => true,   // knowledge says data is out there
                            Some(false) => false, // knowledge says nobody has it
                            None => self.probabilistic(),
                        };
                    }
                }
                // No metadata for this collection: behave like a pure
                // forwarder, but only if someone nearby seems interested.
                self.any_neighbor_interested(&collection) || self.probabilistic()
            }
            Some(DapesName::Bitmap { collection, .. }) => {
                self.bitmap_decision(&collection, app_parameters)
            }
            Some(DapesName::Metadata { collection, .. }) => {
                self.any_neighbor_interested(&collection) || self.probabilistic()
            }
            Some(DapesName::Discovery { .. }) | None => self.probabilistic(),
        }
    }
}

/// Interests from the local application are always sent to the wireless
/// face; Interests heard from the air are delivered to the application (if
/// the FIB says so) and re-broadcast only when the knowledge approves —
/// asked at most once, as the FIB hands over each face at most once.
impl Strategy for MultihopState {
    fn decide(
        &mut self,
        interest: &InterestHeader<'_>,
        frame: &Payload,
        ingress: FaceId,
        nexthops: &[FaceId],
        now: SimTime,
    ) -> Decision {
        let mut faces = Vec::new();
        for &face in nexthops {
            if face != FaceId::WIRELESS || ingress == FaceId::APP || {
                let name = interest
                    .to_name(frame)
                    .expect("the forwarder hands over a well-formed name");
                self.should_forward(&name, interest.app_parameters, now)
            } {
                faces.push(face);
            }
        }
        if faces.is_empty() {
            Decision::Suppress
        } else {
            Decision::Forward(faces)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapes_ndn::packet::{Interest, Packet, PacketHeader};

    /// `strat`'s decision on `interest` received on `ingress`, given its
    /// view.
    fn decide(
        strat: &mut MultihopState,
        interest: &Interest,
        ingress: FaceId,
        nexthops: &[FaceId],
    ) -> Decision {
        let wire = interest.wire();
        let Ok(PacketHeader::Interest(view)) = Packet::peek_header(&wire) else {
            panic!("an encoded Interest peeks as one");
        };
        strat.decide(&view, &wire, ingress, nexthops, SimTime::ZERO)
    }

    fn state(role: NodeRole, prob: f64) -> MultihopState {
        MultihopState::new(role, true, prob, 42)
    }

    fn col() -> Name {
        Name::from_uri("/col")
    }

    fn setup_indexed(ms: &mut MultihopState, have_bits: &[usize], total: usize) {
        let idx = PacketIndex::new(vec![("f".into(), total as u32)]);
        ms.install_holdings(col(), idx, Bitmap::new(total));
        for &b in have_bits {
            ms.set_held(&col(), b);
        }
    }

    #[test]
    fn disabled_never_forwards() {
        let mut ms = MultihopState::new(NodeRole::Dapes, false, 1.0, 1);
        assert!(!ms.should_forward(&Name::from_uri("/col/f/0"), None, SimTime::ZERO));
    }

    #[test]
    fn pure_forwarder_is_probabilistic() {
        let mut always = state(NodeRole::PureForwarder, 1.0);
        let mut never = state(NodeRole::PureForwarder, 0.0);
        let i = Name::from_uri("/col/f/0");
        assert!(always.should_forward(&i, None, SimTime::ZERO));
        assert!(!never.should_forward(&i, None, SimTime::ZERO));
        // ~20 %: out of many draws, some but not all forward.
        let mut some = state(NodeRole::PureForwarder, 0.2);
        let n = (0..1000)
            .filter(|_| some.should_forward(&i, None, SimTime::ZERO))
            .count();
        assert!((100..350).contains(&n), "got {n} of 1000 at p=0.2");
    }

    #[test]
    fn dapes_forwards_when_neighbor_has_packet() {
        let mut ms = state(NodeRole::Dapes, 0.0);
        setup_indexed(&mut ms, &[], 10);
        let mut nb = Bitmap::new(10);
        nb.set(3);
        ms.record_bitmap(9, &col(), nb, SimTime::ZERO);
        assert!(ms.should_forward(&Name::from_uri("/col/f/3"), None, SimTime::ZERO));
    }

    #[test]
    fn dapes_suppresses_when_knowledge_says_nobody_has_it() {
        let mut ms = state(NodeRole::Dapes, 1.0); // even with p=1
        setup_indexed(&mut ms, &[], 10);
        ms.record_bitmap(9, &col(), Bitmap::new(10), SimTime::ZERO);
        assert!(!ms.should_forward(&Name::from_uri("/col/f/3"), None, SimTime::ZERO));
    }

    #[test]
    fn dapes_does_not_forward_what_it_can_answer() {
        let mut ms = state(NodeRole::Dapes, 1.0);
        setup_indexed(&mut ms, &[3], 10);
        let mut nb = Bitmap::new(10);
        nb.set(3);
        ms.record_bitmap(9, &col(), nb, SimTime::ZERO);
        assert!(!ms.should_forward(&Name::from_uri("/col/f/3"), None, SimTime::ZERO));
    }

    #[test]
    fn dapes_without_knowledge_falls_back_to_probability() {
        let mut ms = state(NodeRole::Dapes, 0.0);
        setup_indexed(&mut ms, &[], 10);
        // No neighbor bitmaps at all.
        assert!(!ms.should_forward(&Name::from_uri("/col/f/3"), None, SimTime::ZERO));
        let mut ms2 = state(NodeRole::Dapes, 1.0);
        setup_indexed(&mut ms2, &[], 10);
        assert!(ms2.should_forward(&Name::from_uri("/col/f/3"), None, SimTime::ZERO));
    }

    #[test]
    fn suppression_blocks_then_lapses() {
        let mut ms = state(NodeRole::PureForwarder, 1.0);
        let name = Name::from_uri("/col/f/0");
        ms.note_forwarded(&name, SimTime::ZERO);
        // No data within the timeout -> suppression starts at sweep.
        ms.sweep(SimTime::from_secs(1));
        assert_eq!(ms.forward_failures, 1);
        assert!(!ms.should_forward(&Name::from_uri("/col/f/0"), None, SimTime::from_secs(1)));
        // After the suppression lapses, forwarding resumes.
        ms.sweep(SimTime::from_secs(4));
        assert!(ms.should_forward(&Name::from_uri("/col/f/0"), None, SimTime::from_secs(4)));
    }

    #[test]
    fn data_resolves_pending_forward_as_success() {
        let mut ms = state(NodeRole::PureForwarder, 1.0);
        let name = Name::from_uri("/col/f/0");
        ms.note_forwarded(&name, SimTime::ZERO);
        ms.note_data_seen(&name);
        ms.sweep(SimTime::from_secs(10));
        assert_eq!(ms.forward_successes, 1);
        assert_eq!(ms.forward_failures, 0);
        assert_eq!(ms.forward_accuracy(), Some(1.0));
    }

    #[test]
    fn neighbors_expire() {
        let mut ms = state(NodeRole::Dapes, 0.2);
        ms.note_peer(1, SimTime::ZERO);
        ms.note_peer(2, SimTime::from_secs(8));
        ms.sweep(SimTime::from_secs(10));
        assert_eq!(ms.neighbor_count(), 1, "peer 1 expired");
    }

    #[test]
    fn sweep_waits_for_the_earliest_deadline_and_refreshes_never_hide_one() {
        let ms_at = SimTime::from_micros;
        let mut ms = state(NodeRole::Dapes, 0.2);
        assert!(!ms.sweep_due(SimTime::from_secs(3600)), "nothing held");
        ms.note_peer(1, SimTime::ZERO);
        ms.note_peer(2, SimTime::from_secs(1));
        // A neighbor is dropped once it has gone unheard for *more* than
        // the timeout: due one microsecond past it, not before.
        assert!(!ms.sweep_due(SimTime::from_secs(5)));
        assert!(ms.sweep_due(ms_at(5_000_001)));
        // Refreshing peer 1 leaves the watermark alone: the next sweep
        // scans, finds nothing, and moves on to peer 2's deadline.
        ms.note_peer(1, SimTime::from_secs(4));
        assert_eq!(ms.sweep(ms_at(5_000_001)), 0);
        assert_eq!(ms.neighbor_count(), 2);
        assert!(!ms.sweep_due(SimTime::from_secs(6)));
        assert_eq!(ms.sweep(ms_at(6_000_001)), 1, "peer 2 expired");
        // A forwarded Interest is due sooner than any neighbor and lowers
        // the watermark; the suppression it turns into is due later still.
        let name = Name::from_uri("/col/f/0");
        ms.note_forwarded(&name, SimTime::from_secs(7));
        assert!(!ms.sweep_due(ms_at(7_400_000)));
        assert!(ms.sweep_due(ms_at(7_400_001)));
        ms.sweep(ms_at(7_400_001));
        assert_eq!(ms.forward_failures, 1);
        assert_eq!(ms.suppressed().get(&name), Some(&ms_at(9_400_001)));
        assert!(ms.pending_response().is_empty());
        assert!(!ms.sweep_due(ms_at(8_999_999)), "peer 1 is due at 9.000001");
        assert_eq!(ms.sweep(ms_at(9_000_001)), 1);
        assert!(ms.neighbors().is_empty());
        assert!(ms.sweep_due(ms_at(9_400_001)), "the suppression lapses");
        ms.sweep(ms_at(9_400_001));
        assert!(ms.suppressed().is_empty());
        assert!(
            !ms.sweep_due(SimTime::from_secs(3600)),
            "nothing held again"
        );
    }

    #[test]
    fn note_neighbor_has_updates_bitmap() {
        let mut ms = state(NodeRole::Dapes, 0.0);
        ms.record_bitmap(1, &col(), Bitmap::new(10), SimTime::ZERO);
        assert_eq!(ms.neighbor_has_packet(&col(), 4), Some(false));
        ms.note_neighbor_has(1, &col(), 4, SimTime::ZERO);
        assert_eq!(ms.neighbor_has_packet(&col(), 4), Some(true));
        assert_eq!(ms.neighbor_has_packet(&Name::from_uri("/other"), 0), None);
    }

    #[test]
    fn strategy_always_airs_local_interests() {
        let mut strat = MultihopState::new(NodeRole::Dapes, true, 0.0, 1);
        let i = Interest::new(Name::from_uri("/col/f/0")).with_nonce(1);
        let d = decide(&mut strat, &i, FaceId::APP, &[FaceId::WIRELESS]);
        assert_eq!(d, Decision::Forward(vec![FaceId::WIRELESS]));
    }

    #[test]
    fn strategy_gates_relayed_interests() {
        let mut strat = MultihopState::new(NodeRole::PureForwarder, true, 0.0, 1);
        let i = Interest::new(Name::from_uri("/col/f/0")).with_nonce(1);
        let hops = [FaceId::APP, FaceId::WIRELESS];
        // p=0: only the app face survives.
        let d = decide(&mut strat, &i, FaceId::WIRELESS, &hops);
        assert_eq!(d, Decision::Forward(vec![FaceId::APP]));
        strat.forward_prob = 1.0;
        let d = decide(&mut strat, &i, FaceId::WIRELESS, &hops);
        assert_eq!(d, Decision::Forward(vec![FaceId::APP, FaceId::WIRELESS]));
    }

    #[test]
    fn header_decision_matches_full_decision_draw_for_draw() {
        // The strategy asks the knowledge once per heard Interest, for the
        // wireless face only: a same-seed twin asked directly stays in
        // lockstep, RNG draws included.
        let mut strat = MultihopState::new(NodeRole::Dapes, true, 0.5, 7);
        let mut twin = MultihopState::new(NodeRole::Dapes, true, 0.5, 7);
        let hops = [FaceId::APP, FaceId::WIRELESS];
        for i in 0..200 {
            let interest = Interest::new(Name::from_uri(&format!("/col/f/{i}"))).with_nonce(i);
            let want = if twin.should_forward(interest.name(), None, SimTime::ZERO) {
                Decision::Forward(hops.to_vec())
            } else {
                Decision::Forward(vec![FaceId::APP])
            };
            let got = decide(&mut strat, &interest, FaceId::WIRELESS, &hops);
            assert_eq!(got, want, "diverged at draw {i}");
        }
    }

    #[test]
    fn header_decision_defers_on_bitmap_interests_without_touching_state() {
        // A relay decides a bitmap Interest from the received view: the
        // requester's bitmap rides in its parameters. A neighbour holds
        // packet 2; a requester missing it is relayed as the patched
        // frame, one holding it is suppressed — and neither consults the
        // RNG, which a same-seed twin confirms.
        use crate::advert_payload::encode_bitmap_params;
        use dapes_ndn::forwarder::{Action, Forwarder, ForwarderConfig, InterestOutcome};
        let mut strat = MultihopState::new(NodeRole::Dapes, true, 0.5, 11);
        let mut nb = Bitmap::new(4);
        nb.set(2);
        strat.record_bitmap(9, &col(), nb, SimTime::ZERO);
        let mut relay = Forwarder::with_strategy(
            ForwarderConfig {
                rebroadcast_faces: vec![FaceId::WIRELESS],
                ..ForwarderConfig::default()
            },
            strat,
        );
        relay.fib_mut().register(Name::root(), FaceId::WIRELESS);
        let advert = |round: u64, requester: &Bitmap| {
            let name = crate::namespace::bitmap_interest_name(&col(), 4, round);
            Interest::new(name)
                .with_nonce(round as u32)
                .with_hop_limit(3)
                .with_app_parameters(encode_bitmap_params(4, requester))
                .wire()
        };
        let receive = |relay: &mut Forwarder<MultihopState>, wire: &Payload| {
            let Ok(PacketHeader::Interest(view)) = Packet::peek_header(wire) else {
                panic!("an encoded Interest peeks as one");
            };
            relay.receive_interest(SimTime::ZERO, &view, wire, FaceId::WIRELESS)
        };
        let missing = advert(1, &Bitmap::new(4));
        let (actions, outcome) = receive(&mut relay, &missing);
        assert_eq!(outcome, InterestOutcome::Relayed);
        let [Action::RelayInterest { frame, .. }] = &actions[..] else {
            panic!("expected one relay action, got {actions:?}");
        };
        let relayed = Interest::decode(frame).expect("decodes");
        assert_eq!(relayed.hop_limit(), Some(2), "hop limit patched");
        assert_eq!(
            relayed.app_parameters(),
            Interest::decode(&missing)
                .expect("decodes")
                .app_parameters()
        );
        let (actions, outcome) = receive(&mut relay, &advert(2, &Bitmap::full(4)));
        assert!(actions.is_empty());
        assert_eq!(outcome, InterestOutcome::Suppressed);
        let mut fresh = MultihopState::new(NodeRole::Dapes, true, 0.5, 11);
        for i in 0..50 {
            let name = Name::from_uri(&format!("/elsewhere/f/{i}"));
            assert_eq!(
                relay
                    .strategy_mut()
                    .should_forward(&name, None, SimTime::ZERO),
                fresh.should_forward(&name, None, SimTime::ZERO),
                "RNG streams diverged at draw {i}"
            );
        }
    }

    #[test]
    fn state_bytes_track_knowledge() {
        let mut ms = state(NodeRole::Dapes, 0.2);
        let before = ms.state_bytes();
        ms.record_bitmap(1, &col(), Bitmap::new(1000), SimTime::ZERO);
        assert!(ms.state_bytes() > before);
    }
}
