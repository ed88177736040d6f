//! DSR: Dynamic Source Routing (Johnson & Maltz), the reactive routing
//! protocol under Ekta.
//!
//! Routes are discovered on demand: a RREQ floods the network accumulating
//! the traversed path; the target answers with a RREP carried back along
//! the reversed path; data packets then carry the full source route. Broken
//! links trigger RERRs that purge cached routes. The RREQ floods are the
//! "reactive routing overhead" the paper charges to Ekta.

use dapes_netsim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet};

/// A DSR control or source-routed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DsrMessage {
    /// Route request, flooded.
    Rreq {
        /// Flood identifier (origin-scoped).
        id: u32,
        /// Flood originator.
        origin: u32,
        /// Sought destination.
        target: u32,
        /// Nodes traversed so far (excluding origin).
        path: Vec<u32>,
    },
    /// Route reply, unicast back along the reversed discovery path.
    Rrep {
        /// The requester the reply returns to.
        origin: u32,
        /// The discovered target.
        target: u32,
        /// Full path origin → target (excluding both endpoints).
        path: Vec<u32>,
        /// Remaining relays toward the origin (consumed per hop).
        return_path: Vec<u32>,
    },
    /// Route error: the link `from → to` is broken.
    Rerr {
        /// Upstream endpoint of the broken link.
        from: u32,
        /// Downstream endpoint of the broken link.
        to: u32,
    },
}

impl DsrMessage {
    /// Serializes the message.
    pub fn encode(&self) -> Vec<u8> {
        fn put_path(out: &mut Vec<u8>, path: &[u32]) {
            out.extend_from_slice(&(path.len() as u16).to_be_bytes());
            for hop in path {
                out.extend_from_slice(&hop.to_be_bytes());
            }
        }
        let mut out = Vec::new();
        match self {
            DsrMessage::Rreq {
                id,
                origin,
                target,
                path,
            } => {
                out.push(0);
                out.extend_from_slice(&id.to_be_bytes());
                out.extend_from_slice(&origin.to_be_bytes());
                out.extend_from_slice(&target.to_be_bytes());
                put_path(&mut out, path);
            }
            DsrMessage::Rrep {
                origin,
                target,
                path,
                return_path,
            } => {
                out.push(1);
                out.extend_from_slice(&origin.to_be_bytes());
                out.extend_from_slice(&target.to_be_bytes());
                put_path(&mut out, path);
                put_path(&mut out, return_path);
            }
            DsrMessage::Rerr { from, to } => {
                out.push(2);
                out.extend_from_slice(&from.to_be_bytes());
                out.extend_from_slice(&to.to_be_bytes());
            }
        }
        out
    }

    /// Parses a message serialized with [`DsrMessage::encode`].
    pub fn decode(wire: &[u8]) -> Option<Self> {
        fn get_u32(wire: &[u8], pos: &mut usize) -> Option<u32> {
            let v = u32::from_be_bytes(wire.get(*pos..*pos + 4)?.try_into().ok()?);
            *pos += 4;
            Some(v)
        }
        fn get_path(wire: &[u8], pos: &mut usize) -> Option<Vec<u32>> {
            let len = u16::from_be_bytes(wire.get(*pos..*pos + 2)?.try_into().ok()?) as usize;
            *pos += 2;
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(get_u32(wire, pos)?);
            }
            Some(path)
        }
        let mut pos = 1;
        match wire.first()? {
            0 => {
                let id = get_u32(wire, &mut pos)?;
                let origin = get_u32(wire, &mut pos)?;
                let target = get_u32(wire, &mut pos)?;
                let path = get_path(wire, &mut pos)?;
                Some(DsrMessage::Rreq {
                    id,
                    origin,
                    target,
                    path,
                })
            }
            1 => {
                let origin = get_u32(wire, &mut pos)?;
                let target = get_u32(wire, &mut pos)?;
                let path = get_path(wire, &mut pos)?;
                let return_path = get_path(wire, &mut pos)?;
                Some(DsrMessage::Rrep {
                    origin,
                    target,
                    path,
                    return_path,
                })
            }
            2 => {
                let from = get_u32(wire, &mut pos)?;
                let to = get_u32(wire, &mut pos)?;
                Some(DsrMessage::Rerr { from, to })
            }
            _ => None,
        }
    }
}

/// DSR route cache and flood-suppression state for one node.
#[derive(Clone, Debug)]
pub struct Dsr {
    me: u32,
    /// Cached full paths (intermediate hops only) keyed by destination,
    /// with the time they were learned: mobile routes go stale quickly.
    cache: BTreeMap<u32, (Vec<u32>, SimTime)>,
    /// RREQ floods already seen: (origin, id). Only ever probed and
    /// inserted, never iterated, so its hash order cannot reach a trace.
    /// Never pruned: it grows with every flood the node hears (ROADMAP
    /// item 16).
    seen_rreq: HashSet<(u32, u32)>,
    next_rreq_id: u32,
}

impl Dsr {
    /// Creates the DSR state for node `me`.
    pub fn new(me: u32) -> Self {
        Dsr {
            me,
            cache: BTreeMap::new(),
            seen_rreq: HashSet::new(),
            next_rreq_id: 0,
        }
    }

    /// The cached route (intermediate hops) to `dst`, if any.
    pub fn route(&self, dst: u32) -> Option<&Vec<u32>> {
        self.cache.get(&dst).map(|(p, _)| p)
    }

    /// The next hop towards `dst` per the cached route.
    pub fn next_hop(&self, dst: u32) -> Option<u32> {
        let (path, _) = self.cache.get(&dst)?;
        Some(path.first().copied().unwrap_or(dst))
    }

    /// Drops routes older than `max_age` — in a mobile network cached
    /// source routes rot as relays move out of range.
    pub fn expire_routes(&mut self, now: SimTime, max_age: SimDuration) {
        self.cache
            .retain(|_, (_, learned)| now.since(*learned) <= max_age);
    }

    /// Refreshes a route's age after evidence it still works (a response
    /// arrived over it), so only idle or failing routes expire.
    pub fn touch(&mut self, dst: u32, now: SimTime) {
        if let Some((_, learned)) = self.cache.get_mut(&dst) {
            *learned = now;
        }
    }

    /// Starts a route discovery, returning the RREQ to flood.
    pub fn start_discovery(&mut self, target: u32) -> DsrMessage {
        self.next_rreq_id += 1;
        let id = self.next_rreq_id;
        self.seen_rreq.insert((self.me, id));
        DsrMessage::Rreq {
            id,
            origin: self.me,
            target,
            path: Vec::new(),
        }
    }

    /// Caches a discovered path (intermediate hops) to `dst`. Fresh routes
    /// replace older ones of equal or greater length.
    pub fn learn_route(&mut self, dst: u32, path: Vec<u32>) {
        self.learn_route_at(dst, path, SimTime::ZERO);
    }

    /// Caches a discovered path with its learning time.
    pub fn learn_route_at(&mut self, dst: u32, path: Vec<u32>, now: SimTime) {
        let better = match self.cache.get(&dst) {
            None => true,
            Some((existing, _)) => path.len() <= existing.len(),
        };
        if better {
            self.cache.insert(dst, (path, now));
        }
    }

    /// Handles a RREQ heard from a direct neighbor. Returns what to do.
    pub fn on_rreq(&mut self, id: u32, origin: u32, target: u32, path: &[u32]) -> RreqAction {
        if origin == self.me || !self.seen_rreq.insert((origin, id)) {
            return RreqAction::Drop;
        }
        // Opportunistically learn the reverse route to the origin.
        let mut reverse: Vec<u32> = path.to_vec();
        reverse.reverse();
        self.learn_route(origin, reverse);
        if target == self.me {
            // Reply along the reversed record.
            let mut return_path: Vec<u32> = path.to_vec();
            return_path.reverse();
            return RreqAction::Reply {
                origin,
                path: path.to_vec(),
                return_path,
            };
        }
        let mut extended = path.to_vec();
        extended.push(self.me);
        RreqAction::Forward { path: extended }
    }

    /// Purges all cached routes using the broken link `from → to`.
    pub fn on_link_break(&mut self, from: u32, to: u32) {
        self.cache.retain(|&dst, (path, _)| {
            let mut hops = Vec::with_capacity(path.len() + 2);
            hops.push(self.me);
            hops.extend_from_slice(path);
            hops.push(dst);
            !hops.windows(2).any(|w| w[0] == from && w[1] == to)
        });
    }

    /// Drops the cached route to `dst` (e.g. after repeated delivery
    /// failure).
    pub fn forget(&mut self, dst: u32) {
        self.cache.remove(&dst);
    }

    /// Number of cached routes.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// What to do with a received RREQ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RreqAction {
    /// Duplicate or own flood: ignore.
    Drop,
    /// We are the target: send this RREP back.
    Reply {
        /// The requester.
        origin: u32,
        /// Path origin → us (intermediates only).
        path: Vec<u32>,
        /// Relays back to the origin, first hop first.
        return_path: Vec<u32>,
    },
    /// Re-flood with ourselves appended to the record.
    Forward {
        /// The extended path record.
        path: Vec<u32>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_round_trips() {
        let msgs = vec![
            DsrMessage::Rreq {
                id: 1,
                origin: 2,
                target: 3,
                path: vec![4, 5],
            },
            DsrMessage::Rrep {
                origin: 2,
                target: 3,
                path: vec![4, 5],
                return_path: vec![5, 4],
            },
            DsrMessage::Rerr { from: 1, to: 2 },
        ];
        for m in msgs {
            assert_eq!(DsrMessage::decode(&m.encode()), Some(m));
        }
        assert!(DsrMessage::decode(&[]).is_none());
        assert!(DsrMessage::decode(&[9]).is_none());
    }

    #[test]
    fn target_replies_with_reversed_path() {
        let mut d = Dsr::new(3);
        let action = d.on_rreq(1, 1, 3, &[2]);
        assert_eq!(
            action,
            RreqAction::Reply {
                origin: 1,
                path: vec![2],
                return_path: vec![2],
            }
        );
        // Target also learned the reverse route to the origin.
        assert_eq!(d.route(1), Some(&vec![2]));
    }

    #[test]
    fn intermediate_extends_and_forwards_once() {
        let mut d = Dsr::new(2);
        let action = d.on_rreq(1, 1, 3, &[]);
        assert_eq!(action, RreqAction::Forward { path: vec![2] });
        // Duplicate flood dropped.
        assert_eq!(d.on_rreq(1, 1, 3, &[]), RreqAction::Drop);
        // New flood id processed.
        assert_ne!(d.on_rreq(2, 1, 3, &[]), RreqAction::Drop);
    }

    #[test]
    fn own_flood_dropped() {
        let mut d = Dsr::new(1);
        let msg = d.start_discovery(9);
        if let DsrMessage::Rreq {
            id,
            origin,
            target,
            path,
        } = msg
        {
            assert_eq!(d.on_rreq(id, origin, target, &path), RreqAction::Drop);
        } else {
            panic!("expected RREQ");
        }
    }

    #[test]
    fn shorter_routes_replace_longer() {
        let mut d = Dsr::new(1);
        d.learn_route(9, vec![2, 3, 4]);
        d.learn_route(9, vec![5]);
        assert_eq!(d.route(9), Some(&vec![5]));
        d.learn_route(9, vec![6, 7]);
        assert_eq!(d.route(9), Some(&vec![5]), "longer route ignored");
        assert_eq!(d.next_hop(9), Some(5));
    }

    #[test]
    fn direct_route_next_hop_is_destination() {
        let mut d = Dsr::new(1);
        d.learn_route(9, vec![]);
        assert_eq!(d.next_hop(9), Some(9));
    }

    #[test]
    fn link_break_purges_affected_routes() {
        let mut d = Dsr::new(1);
        d.learn_route(9, vec![2, 3]); // 1-2-3-9
        d.learn_route(8, vec![4]); // 1-4-8
        d.on_link_break(2, 3);
        assert_eq!(d.route(9), None);
        assert_eq!(d.route(8), Some(&vec![4]));
        // Break of the final hop.
        d.on_link_break(4, 8);
        assert_eq!(d.route(8), None);
    }

    #[test]
    fn forget_removes_route() {
        let mut d = Dsr::new(1);
        d.learn_route(9, vec![2]);
        d.forget(9);
        assert_eq!(d.route(9), None);
    }
}
