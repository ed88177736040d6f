//! The Forwarding Information Base.
//!
//! The FIB maps name prefixes to next-hop faces by longest-prefix match
//! (paper Fig. 1). In the DAPES deployment it is small — the application
//! registers its prefixes on the app face and everything else defaults to
//! the wireless broadcast face — but the implementation is a faithful LPM
//! table so richer topologies work too.

use crate::face::FaceId;
use crate::hash::FxBuildHasher;
use crate::name::{wire_component_boundaries, Name};
use std::collections::{BTreeMap, HashMap};

/// A longest-prefix-match table from name prefixes to next-hop faces.
///
/// Alongside the canonical `Name`-keyed map, the FIB mirrors its entries in
/// a *wire index* keyed by [`Name::to_wire_value`]:
/// [`Fib::longest_prefix_match_wire`] answers LPM queries against a
/// received Interest's borrowed name bytes directly — component boundaries
/// found by a cheap TLV walk are the only candidate cut points, probed
/// longest-first — so an overheard not-for-me Interest can be classified
/// without building a `Name`.
///
/// # Examples
///
/// ```
/// use dapes_ndn::fib::Fib;
/// use dapes_ndn::face::FaceId;
/// use dapes_ndn::name::Name;
///
/// let mut fib = Fib::new();
/// fib.register(Name::from_uri("/"), FaceId::WIRELESS);
/// fib.register(Name::from_uri("/dapes"), FaceId::APP);
/// let lpm = |uri: &str| fib.longest_prefix_match_wire(&Name::from_uri(uri).to_wire_value());
/// assert_eq!(lpm("/dapes/discovery"), Some(&[FaceId::APP][..]));
/// assert_eq!(lpm("/col/f/0"), Some(&[FaceId::WIRELESS][..]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Fib {
    entries: BTreeMap<Name, Vec<FaceId>>,
    /// Mirror of `entries` keyed by the prefix's canonical wire value.
    by_wire: HashMap<Vec<u8>, Vec<FaceId>, FxBuildHasher>,
    /// Longest registered prefix in components, bounding the wire LPM's
    /// probe count.
    max_components: usize,
}

impl Fib {
    /// Creates an empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Registers `face` as a next hop for `prefix`. Registering the same
    /// pair twice is a no-op.
    pub fn register(&mut self, prefix: Name, face: FaceId) {
        self.max_components = self.max_components.max(prefix.len());
        let wire_key = prefix.to_wire_value();
        let faces = self.entries.entry(prefix).or_default();
        if !faces.contains(&face) {
            faces.push(face);
        }
        self.by_wire.insert(wire_key, faces.clone());
    }

    /// Removes a next hop; drops the entry when no hops remain.
    pub fn unregister(&mut self, prefix: &Name, face: FaceId) {
        if let Some(faces) = self.entries.get_mut(prefix) {
            faces.retain(|&f| f != face);
            if faces.is_empty() {
                self.entries.remove(prefix);
                self.by_wire.remove(&prefix.to_wire_value());
                self.max_components = self.entries.keys().map(Name::len).max().unwrap_or(0);
            } else {
                self.by_wire.insert(prefix.to_wire_value(), faces.clone());
            }
        }
    }

    /// Longest-prefix-match lookup against a name's canonical wire value —
    /// an encoded name, or a received Interest's borrowed name bytes. No
    /// `Name` is built and, for realistically short names, no allocation
    /// is made (this runs once per Interest). Returns `None` when the
    /// region is malformed or truncated (a peeking caller must fall through
    /// to the full decode, which fails at the same byte), and
    /// `Some(&[])`/`Some(faces)` with the next hops of the longest
    /// registered prefix otherwise.
    pub fn longest_prefix_match_wire(&self, name_wire: &[u8]) -> Option<&[FaceId]> {
        // Walk the whole region first: a truncated tail must not resolve
        // even when some shorter prefix would match. Boundaries land in a
        // fixed scratch array; names deeper than it only matter when a
        // registered prefix could be that deep too, and fall back to the
        // allocating walk.
        const INLINE: usize = 16;
        let mut buf = [0usize; INLINE];
        let mut components = 0usize;
        let mut r = crate::tlv::TlvReader::new(name_wire);
        while !r.is_at_end() {
            if r.read_tlv().is_err() {
                return None;
            }
            if components < INLINE {
                buf[components] = name_wire.len() - r.remaining();
            }
            components += 1;
        }
        if components > INLINE && self.max_components > INLINE {
            let mut boundaries = Vec::with_capacity(components);
            wire_component_boundaries(name_wire, &mut boundaries);
            for &b in boundaries.iter().take(self.max_components).rev() {
                if let Some(faces) = self.by_wire.get(&name_wire[..b]) {
                    return Some(faces);
                }
            }
        } else {
            let probes = components.min(INLINE).min(self.max_components);
            for &b in buf[..probes].iter().rev() {
                if let Some(faces) = self.by_wire.get(&name_wire[..b]) {
                    return Some(faces);
                }
            }
        }
        Some(self.by_wire.get([].as_slice()).map_or(&[], Vec::as_slice))
    }

    /// Number of registered prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the FIB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate bytes of state, including the wire index's key bytes.
    pub fn state_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(n, f)| n.state_bytes() + f.len() * 4)
            .sum::<usize>()
            + self
                .by_wire
                .iter()
                .map(|(k, f)| k.len() + f.len() * 4 + 16)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(uri: &str) -> Name {
        Name::from_uri(uri)
    }

    fn lpm<'f>(fib: &'f Fib, name: &Name) -> &'f [FaceId] {
        fib.longest_prefix_match_wire(&name.to_wire_value())
            .expect("an encoded name is well-formed")
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::new();
        fib.register(name("/"), FaceId(10));
        fib.register(name("/a"), FaceId(11));
        fib.register(name("/a/b"), FaceId(12));
        assert_eq!(lpm(&fib, &name("/a/b/c")), &[FaceId(12)]);
        assert_eq!(lpm(&fib, &name("/a/x")), &[FaceId(11)]);
        assert_eq!(lpm(&fib, &name("/z")), &[FaceId(10)]);
    }

    #[test]
    fn no_match_returns_empty() {
        let mut fib = Fib::new();
        fib.register(name("/a"), FaceId(1));
        assert!(lpm(&fib, &name("/b")).is_empty());
        assert!(lpm(&Fib::new(), &name("/a")).is_empty());
    }

    #[test]
    fn exact_name_matches_its_own_prefix_entry() {
        let mut fib = Fib::new();
        fib.register(name("/a/b"), FaceId(1));
        assert_eq!(lpm(&fib, &name("/a/b")), &[FaceId(1)]);
    }

    #[test]
    fn multiple_next_hops_preserved_in_order() {
        let mut fib = Fib::new();
        fib.register(name("/a"), FaceId(1));
        fib.register(name("/a"), FaceId(2));
        fib.register(name("/a"), FaceId(1)); // duplicate ignored
        assert_eq!(lpm(&fib, &name("/a")), &[FaceId(1), FaceId(2)]);
    }

    #[test]
    fn unregister_removes_hop_then_entry() {
        let mut fib = Fib::new();
        fib.register(name("/a"), FaceId(1));
        fib.register(name("/a"), FaceId(2));
        fib.unregister(&name("/a"), FaceId(1));
        assert_eq!(lpm(&fib, &name("/a")), &[FaceId(2)]);
        fib.unregister(&name("/a"), FaceId(2));
        assert!(lpm(&fib, &name("/a")).is_empty());
        assert!(fib.is_empty());
    }

    /// The longest-prefix walk over `Name` prefixes that the wire LPM
    /// replaced: one `name.prefix(k)` probe of the ordered map per length.
    fn name_walk_lpm<'a>(fib: &'a Fib, name: &Name) -> &'a [FaceId] {
        (0..=name.len())
            .rev()
            .find_map(|k| fib.entries.get(&name.prefix(k)))
            .map_or(&[], Vec::as_slice)
    }

    #[test]
    fn wire_lpm_mirrors_name_lpm() {
        let mut fib = Fib::new();
        fib.register(name("/a"), FaceId(1));
        fib.register(name("/a/b"), FaceId(2));
        fib.register(name("/c"), FaceId(3));
        for q in ["/a/b/c", "/a/b", "/a/x", "/a", "/c/z", "/b", "/"] {
            let qn = name(q);
            assert_eq!(
                fib.longest_prefix_match_wire(&qn.to_wire_value())
                    .expect("well-formed"),
                name_walk_lpm(&fib, &qn),
                "query {q}"
            );
        }
        // A root entry backstops everything, through both lookups.
        fib.register(name("/"), FaceId(9));
        for q in ["/b", "/"] {
            let qn = name(q);
            assert_eq!(
                fib.longest_prefix_match_wire(&qn.to_wire_value())
                    .expect("well-formed"),
                name_walk_lpm(&fib, &qn),
            );
        }
        // Unregistration keeps the mirror in sync.
        fib.unregister(&name("/a/b"), FaceId(2));
        let q = name("/a/b/c");
        assert_eq!(
            fib.longest_prefix_match_wire(&q.to_wire_value())
                .expect("well-formed"),
            &[FaceId(1)]
        );
    }

    #[test]
    fn wire_lpm_rejects_malformed_regions() {
        let mut fib = Fib::new();
        fib.register(name("/a"), FaceId(1));
        let wire = name("/a/b").to_wire_value();
        // Truncating mid-TLV must not resolve, even though the intact "/a"
        // prefix bytes would match.
        for cut in 1..wire.len() {
            if cut == name("/a").to_wire_value().len() {
                continue; // a complete region, legitimately resolvable
            }
            assert!(
                fib.longest_prefix_match_wire(&wire[..cut]).is_none(),
                "cut={cut} must be rejected"
            );
        }
        assert!(fib.longest_prefix_match_wire(&[0x08, 200]).is_none());
    }

    #[test]
    fn lpm_equals_naive_scan() {
        // Cross-check the BTreeMap walk against a brute-force scan.
        let mut fib = Fib::new();
        let prefixes = ["/", "/a", "/a/b", "/a/b/c", "/b", "/b/c/d"];
        for (i, p) in prefixes.iter().enumerate() {
            fib.register(name(p), FaceId(i as u32));
        }
        let queries = ["/a/b/c/d", "/a/b/x", "/a", "/b/c", "/b/c/d/e", "/c", "/"];
        for q in queries {
            let qn = name(q);
            let naive = prefixes
                .iter()
                .enumerate()
                .filter(|(_, p)| name(p).is_prefix_of(&qn))
                .max_by_key(|(_, p)| name(p).len())
                .map(|(i, _)| FaceId(i as u32));
            let got = lpm(&fib, &qn).first().copied();
            assert_eq!(got, naive, "query {q}");
        }
    }
}
