//! DSDV: Destination-Sequenced Distance-Vector routing (Perkins & Bhagwat),
//! the proactive routing protocol under Bithoc.
//!
//! Every node periodically broadcasts its full routing table; entries carry
//! destination-originated even sequence numbers. Receivers adopt a route
//! when its sequence number is newer, or equal-numbered with a lower metric.
//! A lost neighbor is advertised with an odd (infinity) sequence number via
//! a triggered update. The periodic broadcasts are the "proactive routing
//! overhead" the paper charges to Bithoc.

use dapes_netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Metric representing an unreachable destination.
pub const INFINITY: u16 = u16::MAX;

/// Neighbors silent past this age are declared broken: longer than Bithoc's
/// 4 s full-dump period, so a neighbor whose dumps arrive is never broken.
const NEIGHBOR_TIMEOUT: SimDuration = SimDuration::from_secs(6);

/// One routing-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Next hop towards the destination.
    pub next_hop: u32,
    /// Hop count ([`INFINITY`] = broken).
    pub metric: u16,
    /// Destination-generated sequence number (even = valid, odd = broken).
    pub seqno: u32,
}

/// An advertised entry inside an update packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advertised {
    /// The destination being advertised.
    pub dst: u32,
    /// Advertiser's metric to it.
    pub metric: u16,
    /// Sequence number.
    pub seqno: u32,
}

/// DSDV state for one node.
#[derive(Clone, Debug)]
pub struct Dsdv {
    me: u32,
    routes: BTreeMap<u32, Route>,
    /// Our own sequence number (even, incremented by 2 per update).
    my_seqno: u32,
    /// Last time each direct neighbor was heard.
    neighbor_heard: BTreeMap<u32, SimTime>,
    /// Destinations that changed since the last update (triggered updates).
    dirty: bool,
}

impl Dsdv {
    /// Creates the routing state for node `me`.
    pub fn new(me: u32) -> Self {
        Dsdv {
            me,
            routes: BTreeMap::new(),
            my_seqno: 0,
            neighbor_heard: BTreeMap::new(),
            dirty: false,
        }
    }

    /// Next hop towards `dst`, when a valid route exists.
    pub fn next_hop(&self, dst: u32) -> Option<u32> {
        if dst == self.me {
            return None;
        }
        self.routes
            .get(&dst)
            .filter(|r| r.metric != INFINITY)
            .map(|r| r.next_hop)
    }

    /// Current route metric to `dst`.
    pub fn metric(&self, dst: u32) -> Option<u16> {
        self.routes
            .get(&dst)
            .filter(|r| r.metric != INFINITY)
            .map(|r| r.metric)
    }

    /// All destinations with valid routes.
    pub fn reachable(&self) -> impl Iterator<Item = u32> + '_ {
        self.routes
            .iter()
            .filter(|(_, r)| r.metric != INFINITY)
            .map(|(&d, _)| d)
    }

    /// Whether a triggered update is due.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// Registers that a frame from `neighbor` was heard at `now`; installs
    /// or refreshes the one-hop route.
    pub fn hear_neighbor(&mut self, neighbor: u32, now: SimTime) {
        if neighbor == self.me {
            return;
        }
        self.neighbor_heard.insert(neighbor, now);
        let entry = self.routes.entry(neighbor).or_insert(Route {
            next_hop: neighbor,
            metric: 1,
            seqno: 0,
        });
        if entry.metric > 1 {
            *entry = Route {
                next_hop: neighbor,
                metric: 1,
                seqno: entry.seqno,
            };
            self.dirty = true;
        }
    }

    /// Declares neighbors unheard since `now - NEIGHBOR_TIMEOUT` broken and
    /// invalidates routes through them.
    pub fn expire_neighbors(&mut self, now: SimTime) {
        let dead: Vec<u32> = self
            .neighbor_heard
            .iter()
            .filter(|(_, &t)| now.since(t) > NEIGHBOR_TIMEOUT)
            .map(|(&n, _)| n)
            .collect();
        for n in dead {
            self.neighbor_heard.remove(&n);
            for (_, route) in self.routes.iter_mut() {
                if route.next_hop == n && route.metric != INFINITY {
                    route.metric = INFINITY;
                    route.seqno |= 1; // odd: originated by a breakage
                    self.dirty = true;
                }
            }
        }
    }

    /// Builds the full-dump advertisement (our own entry plus every valid
    /// route), bumping our sequence number.
    pub fn full_dump(&mut self) -> Vec<Advertised> {
        self.my_seqno = self.my_seqno.wrapping_add(2);
        let mut ads = vec![Advertised {
            dst: self.me,
            metric: 0,
            seqno: self.my_seqno,
        }];
        for (&dst, route) in &self.routes {
            ads.push(Advertised {
                dst,
                metric: route.metric,
                seqno: route.seqno,
            });
        }
        ads
    }

    /// Processes an update heard from direct neighbor `from`.
    pub fn on_update(&mut self, from: u32, ads: &[Advertised], now: SimTime) {
        self.hear_neighbor(from, now);
        for ad in ads {
            if ad.dst == self.me {
                continue;
            }
            let new_metric = if ad.metric == INFINITY {
                INFINITY
            } else {
                ad.metric.saturating_add(1)
            };
            let candidate = Route {
                next_hop: from,
                metric: new_metric,
                seqno: ad.seqno,
            };
            match self.routes.get(&ad.dst) {
                None => {
                    if new_metric != INFINITY {
                        self.routes.insert(ad.dst, candidate);
                        self.dirty = true;
                    }
                }
                Some(current) => {
                    let newer = seqno_newer(ad.seqno, current.seqno);
                    let same_but_better = ad.seqno == current.seqno && new_metric < current.metric;
                    if newer || same_but_better {
                        if *current != candidate {
                            self.dirty = true;
                        }
                        self.routes.insert(ad.dst, candidate);
                    }
                }
            }
        }
    }

    /// Serializes advertisements (8 bytes per entry, realistic DSDV size).
    pub fn encode(ads: &[Advertised]) -> Vec<u8> {
        let mut out = Vec::with_capacity(ads.len() * 10);
        out.extend_from_slice(&(ads.len() as u16).to_be_bytes());
        for ad in ads {
            out.extend_from_slice(&ad.dst.to_be_bytes());
            out.extend_from_slice(&ad.metric.to_be_bytes());
            out.extend_from_slice(&ad.seqno.to_be_bytes());
        }
        out
    }

    /// Parses an update payload.
    pub fn decode(wire: &[u8]) -> Option<Vec<Advertised>> {
        let count = u16::from_be_bytes(wire.get(0..2)?.try_into().ok()?) as usize;
        let mut ads = Vec::with_capacity(count);
        let mut pos = 2;
        for _ in 0..count {
            let chunk = wire.get(pos..pos + 10)?;
            ads.push(Advertised {
                dst: u32::from_be_bytes(chunk[0..4].try_into().ok()?),
                metric: u16::from_be_bytes(chunk[4..6].try_into().ok()?),
                seqno: u32::from_be_bytes(chunk[6..10].try_into().ok()?),
            });
            pos += 10;
        }
        if pos != wire.len() {
            return None;
        }
        Some(ads)
    }
}

/// Sequence-number comparison with wrap-around (RFC 1982-style).
fn seqno_newer(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < u32::MAX / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn neighbor_heard_installs_one_hop_route() {
        let mut d = Dsdv::new(1);
        d.hear_neighbor(2, t(0));
        assert_eq!(d.next_hop(2), Some(2));
        assert_eq!(d.metric(2), Some(1));
    }

    #[test]
    fn update_installs_two_hop_route() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[
                Advertised {
                    dst: 2,
                    metric: 0,
                    seqno: 2,
                },
                Advertised {
                    dst: 3,
                    metric: 1,
                    seqno: 4,
                },
            ],
            t(0),
        );
        assert_eq!(d.next_hop(3), Some(2));
        assert_eq!(d.metric(3), Some(2));
    }

    #[test]
    fn newer_seqno_wins_even_with_worse_metric() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[Advertised {
                dst: 9,
                metric: 1,
                seqno: 4,
            }],
            t(0),
        );
        d.on_update(
            3,
            &[Advertised {
                dst: 9,
                metric: 5,
                seqno: 6,
            }],
            t(1),
        );
        assert_eq!(d.next_hop(9), Some(3));
        assert_eq!(d.metric(9), Some(6));
    }

    #[test]
    fn same_seqno_prefers_lower_metric() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[Advertised {
                dst: 9,
                metric: 4,
                seqno: 4,
            }],
            t(0),
        );
        d.on_update(
            3,
            &[Advertised {
                dst: 9,
                metric: 1,
                seqno: 4,
            }],
            t(1),
        );
        assert_eq!(d.next_hop(9), Some(3));
        d.on_update(
            4,
            &[Advertised {
                dst: 9,
                metric: 3,
                seqno: 4,
            }],
            t(2),
        );
        assert_eq!(d.next_hop(9), Some(3), "worse metric ignored");
    }

    #[test]
    fn neighbor_expiry_invalidates_routes_through_it() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[Advertised {
                dst: 3,
                metric: 1,
                seqno: 4,
            }],
            t(0),
        );
        assert_eq!(d.next_hop(3), Some(2));
        d.expire_neighbors(t(10));
        assert_eq!(d.next_hop(3), None);
        assert_eq!(d.next_hop(2), None);
        assert!(d.take_dirty());
    }

    #[test]
    fn broken_route_recovers_with_newer_seqno() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[Advertised {
                dst: 3,
                metric: 1,
                seqno: 4,
            }],
            t(0),
        );
        d.expire_neighbors(t(10)); // breaks it (seqno becomes odd 5)
        d.on_update(
            4,
            &[Advertised {
                dst: 3,
                metric: 2,
                seqno: 6,
            }],
            t(11),
        );
        assert_eq!(d.next_hop(3), Some(4));
    }

    #[test]
    fn full_dump_contains_self_with_fresh_seqno() {
        let mut d = Dsdv::new(7);
        let dump1 = d.full_dump();
        let dump2 = d.full_dump();
        assert_eq!(dump1[0].dst, 7);
        assert_eq!(dump1[0].metric, 0);
        assert!(seqno_newer(dump2[0].seqno, dump1[0].seqno));
    }

    #[test]
    fn own_entry_in_updates_is_ignored() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[Advertised {
                dst: 1,
                metric: 3,
                seqno: 100,
            }],
            t(0),
        );
        assert_eq!(d.next_hop(1), None);
    }

    #[test]
    fn infinity_adverts_do_not_create_routes() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[Advertised {
                dst: 9,
                metric: INFINITY,
                seqno: 5,
            }],
            t(0),
        );
        assert_eq!(d.next_hop(9), None);
    }

    #[test]
    fn infinity_advert_breaks_existing_route() {
        let mut d = Dsdv::new(1);
        d.on_update(
            2,
            &[Advertised {
                dst: 9,
                metric: 1,
                seqno: 4,
            }],
            t(0),
        );
        d.on_update(
            2,
            &[Advertised {
                dst: 9,
                metric: INFINITY,
                seqno: 5,
            }],
            t(1),
        );
        assert_eq!(d.next_hop(9), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let ads = vec![
            Advertised {
                dst: 1,
                metric: 0,
                seqno: 2,
            },
            Advertised {
                dst: 9,
                metric: INFINITY,
                seqno: 7,
            },
        ];
        let wire = Dsdv::encode(&ads);
        assert_eq!(Dsdv::decode(&wire), Some(ads));
        assert!(Dsdv::decode(&wire[..wire.len() - 1]).is_none());
        assert!(Dsdv::decode(&[]).is_none());
    }

    #[test]
    fn three_node_line_converges() {
        // 1 -- 2 -- 3: exchange full dumps until 1 routes to 3 via 2.
        let mut n1 = Dsdv::new(1);
        let mut n2 = Dsdv::new(2);
        let mut n3 = Dsdv::new(3);
        for round in 0..3u64 {
            let now = t(round);
            let d1 = n1.full_dump();
            let d2 = n2.full_dump();
            let d3 = n3.full_dump();
            // 1 and 3 only hear 2; 2 hears both.
            n1.on_update(2, &d2, now);
            n3.on_update(2, &d2, now);
            n2.on_update(1, &d1, now);
            n2.on_update(3, &d3, now);
        }
        assert_eq!(n1.next_hop(3), Some(2));
        assert_eq!(n3.next_hop(1), Some(2));
        assert_eq!(n2.next_hop(1), Some(1));
    }
}
