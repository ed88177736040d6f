//! Hierarchical NDN names.
//!
//! A [`Name`] is a sequence of opaque byte [`Component`]s, written in URI
//! form as `/component1/component2/...`. DAPES names collections, files and
//! packets this way: `/damaged-bridge-1533783192/bridge-picture/0` (paper
//! §IV-A). Ordering follows NDN canonical order (shorter component first,
//! then lexicographic), which makes a name sort before every name it is a
//! prefix of — the property the CS/FIB rely on for prefix searches.

use dapes_netsim::payload::Payload;
use std::fmt;
use std::sync::Arc;

/// One name component: opaque bytes, displayed with URI percent-escaping.
///
/// Components are backed by a shared [`Payload`] buffer: cloning one — and
/// names are cloned on every PIT insert, CS key and forwarded packet —
/// bumps a reference count instead of copying the bytes. A component
/// decoded from a received frame is a zero-copy *view* into that frame's
/// buffer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Component(Payload);

impl Component {
    /// Creates a component from raw bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Component(Payload::from(bytes.into()))
    }

    /// Creates a component as a zero-copy view of `payload` (used by the
    /// packet decoder so received names borrow from the received frame).
    pub fn from_payload(payload: Payload) -> Self {
        Component(payload)
    }

    /// Creates a component from UTF-8 text.
    pub fn from_str_component(s: &str) -> Self {
        Component(Payload::copy_from_slice(s.as_bytes()))
    }

    /// Creates a component holding a decimal sequence number, as DAPES uses
    /// for packet indices.
    pub fn from_seq(seq: u64) -> Self {
        Component(Payload::from(seq.to_string().into_bytes()))
    }

    /// Raw bytes of the component.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Parses the component as a decimal sequence number.
    pub fn to_seq(&self) -> Option<u64> {
        std::str::from_utf8(&self.0).ok()?.parse().ok()
    }

    /// Component length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the component is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl PartialOrd for Component {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// NDN canonical order: shorter components sort first; equal lengths compare
/// lexicographically.
impl Ord for Component {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.as_slice().cmp(other.0.as_slice()))
    }
}

impl fmt::Debug for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in self.0.iter() {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "%{b:02X}")?;
            }
        }
        Ok(())
    }
}

impl From<&str> for Component {
    fn from(s: &str) -> Self {
        Component::from_str_component(s)
    }
}

impl From<u64> for Component {
    fn from(seq: u64) -> Self {
        Component::from_seq(seq)
    }
}

/// A hierarchical NDN name.
///
/// # Examples
///
/// ```
/// use dapes_ndn::name::Name;
///
/// let n = Name::from_uri("/damaged-bridge-1533783192/bridge-picture/0");
/// assert_eq!(n.len(), 3);
/// assert!(Name::from_uri("/damaged-bridge-1533783192").is_prefix_of(&n));
/// assert_eq!(n.component(2).and_then(|c| c.to_seq()), Some(0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Name {
    /// Shared component list: cloning a `Name` is one reference-count bump,
    /// which is what makes PIT/CS/forwarder name handling allocation-free.
    components: Arc<Vec<Component>>,
}

impl Name {
    /// The empty (root) name `/`.
    pub fn root() -> Self {
        Name::default()
    }

    /// Builds a name from components.
    pub fn from_components(components: Vec<Component>) -> Self {
        Name {
            components: Arc::new(components),
        }
    }

    /// Parses a URI like `/a/b/0`. Percent-escapes (`%2F`) decode to raw
    /// bytes. Empty segments are ignored, so `/a//b` equals `/a/b` and `/`
    /// is the root name.
    pub fn from_uri(uri: &str) -> Self {
        let mut components = Vec::new();
        for seg in uri.split('/') {
            if seg.is_empty() {
                continue;
            }
            components.push(Component(Payload::from(unescape(seg))));
        }
        Name::from_components(components)
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether this is the root name.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The `i`th component.
    pub fn component(&self, i: usize) -> Option<&Component> {
        self.components.get(i)
    }

    /// The final component.
    pub fn last(&self) -> Option<&Component> {
        self.components.last()
    }

    /// All components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Returns a new name with `component` appended.
    #[must_use]
    pub fn child(&self, component: impl Into<Component>) -> Name {
        let mut components = (*self.components).clone();
        components.push(component.into());
        Name::from_components(components)
    }

    /// Appends a component in place.
    pub fn push(&mut self, component: impl Into<Component>) {
        Arc::make_mut(&mut self.components).push(component.into());
    }

    /// The first `k` components as a new name.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.len()`.
    #[must_use]
    pub fn prefix(&self, k: usize) -> Name {
        assert!(k <= self.components.len(), "prefix longer than name");
        Name::from_components(self.components[..k].to_vec())
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Name) -> bool {
        self.components.len() <= other.components.len()
            && self
                .components
                .iter()
                .zip(other.components.iter())
                .all(|(a, b)| a == b)
    }

    /// Approximate heap footprint, for the Table I memory proxy.
    pub fn state_bytes(&self) -> usize {
        self.components.iter().map(|c| c.len() + 8).sum::<usize>() + 24
    }

    /// The canonical encoding of the name's TLV *value* region — the
    /// concatenated component TLVs, without the outer Name header. This is
    /// the byte string a peeked frame exposes for its name, so it serves as
    /// the key of the PIT/CS wire indexes that let overheard frames be
    /// resolved without building a `Name` at all.
    pub fn to_wire_value(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.state_bytes());
        for c in self.components.iter() {
            crate::tlv::write_tlv(&mut out, crate::tlv::types::NAME_COMPONENT, c.as_bytes());
        }
        out
    }

    /// Decodes a name TLV value region — a received frame's name bytes, as
    /// [`crate::forwarder::Action::RelayInterest`] carries them — into a
    /// `Name` whose components are zero-copy views into `value`. `None`
    /// when the region is malformed.
    pub fn from_wire_value(value: &Payload) -> Option<Name> {
        crate::packet::decode_name_value(value, value).ok()
    }

    /// Whether `value` (a name TLV value region, as exposed by a peeked
    /// header) encodes exactly this name — equivalent to decoding it and
    /// comparing, but without allocating. Unparseable bytes never match.
    pub fn wire_value_eq(&self, value: &[u8]) -> bool {
        let mut r = crate::tlv::TlvReader::new(value);
        let mut components = self.components.iter();
        while !r.is_at_end() {
            // Mirror the decoder: any component type is treated as generic.
            let Ok((_typ, bytes)) = r.read_tlv() else {
                return false;
            };
            match components.next() {
                Some(c) if c.as_bytes() == bytes => {}
                _ => return false,
            }
        }
        components.next().is_none()
    }
}

/// Walks a name-TLV value region (the borrowed bytes a peeked header
/// carries), pushing the byte offset *after* each component into `out`.
/// Returns `false` — leaving `out` in an unspecified state — when the
/// region is malformed or truncated, i.e. whenever decoding it into a
/// [`Name`] would also fail at the framing level.
///
/// The offsets are exactly the candidate cut points for wire-level prefix
/// queries: `value[..b]` for each reported boundary `b` (plus the empty
/// slice for the root prefix) enumerates every prefix of the encoded name,
/// because a name's canonical wire value byte-extends all of its prefixes'
/// wire values at component boundaries. FIB longest-prefix matching and the
/// Content Store's ordered prefix index both rely on this.
pub fn wire_component_boundaries(value: &[u8], out: &mut Vec<usize>) -> bool {
    out.clear();
    let mut r = crate::tlv::TlvReader::new(value);
    while !r.is_at_end() {
        if r.read_tlv().is_err() {
            return false;
        }
        out.push(value.len() - r.remaining());
    }
    true
}

/// Whether `value` is a complete, well-formed name-TLV value region — the
/// allocation-free validity half of [`wire_component_boundaries`], for
/// callers (e.g. the Content Store's ordered prefix probe) that need the
/// guarantee but not the cut points.
pub fn wire_value_is_well_formed(value: &[u8]) -> bool {
    let mut r = crate::tlv::TlvReader::new(value);
    while !r.is_at_end() {
        if r.read_tlv().is_err() {
            return false;
        }
    }
    true
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "/");
        }
        for c in self.components.iter() {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<&str> for Name {
    fn from(uri: &str) -> Self {
        Name::from_uri(uri)
    }
}

fn unescape(seg: &str) -> Vec<u8> {
    let bytes = seg.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Ok(v) = u8::from_str_radix(&seg[i + 1..i + 3], 16) {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uri_round_trip() {
        let n = Name::from_uri("/damaged-bridge-1533783192/bridge-picture/0");
        assert_eq!(n.to_string(), "/damaged-bridge-1533783192/bridge-picture/0");
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn root_name() {
        assert_eq!(Name::root().to_string(), "/");
        assert_eq!(Name::from_uri("/"), Name::root());
        assert!(Name::root().is_prefix_of(&Name::from_uri("/a")));
    }

    #[test]
    fn empty_segments_collapse() {
        assert_eq!(Name::from_uri("/a//b/"), Name::from_uri("/a/b"));
    }

    #[test]
    fn escaping_round_trips_binary() {
        let c = Component::from_bytes(vec![0x00, 0x2f, 0xff, b'a']);
        let shown = c.to_string();
        assert_eq!(shown, "%00%2F%FFa");
        let parsed = Name::from_uri(&format!("/{shown}"));
        assert_eq!(parsed.component(0), Some(&c));
    }

    #[test]
    fn prefix_relationships() {
        let a = Name::from_uri("/a/b");
        let ab = Name::from_uri("/a/b/c");
        assert!(a.is_prefix_of(&ab));
        assert!(a.is_prefix_of(&a));
        assert!(!ab.is_prefix_of(&a));
        assert!(!Name::from_uri("/a/x").is_prefix_of(&ab));
        assert_eq!(ab.prefix(2), a);
        assert_eq!(ab.prefix(0), Name::root());
    }

    #[test]
    #[should_panic(expected = "prefix longer than name")]
    fn prefix_past_end_panics() {
        let _ = Name::from_uri("/a").prefix(2);
    }

    #[test]
    fn child_and_push_append() {
        let n = Name::from_uri("/col").child("file").child(7u64);
        assert_eq!(n.to_string(), "/col/file/7");
        let mut m = Name::from_uri("/col");
        m.push("file");
        m.push(7u64);
        assert_eq!(m, n);
    }

    #[test]
    fn seq_components_parse() {
        let n = Name::from_uri("/c/f/123");
        assert_eq!(n.last().and_then(|c| c.to_seq()), Some(123));
        assert_eq!(
            Name::from_uri("/c/f/xyz").last().and_then(|c| c.to_seq()),
            None
        );
    }

    #[test]
    fn canonical_order_puts_prefix_first() {
        let a = Name::from_uri("/a");
        let ab = Name::from_uri("/a/b");
        let b = Name::from_uri("/b");
        assert!(a < ab, "prefix sorts before extension");
        assert!(ab < b, "then lexicographic");
        // Shorter component sorts first regardless of bytes.
        let short = Name::from_uri("/z");
        let long = Name::from_uri("/aa");
        assert!(short < long);
    }

    #[test]
    fn ordering_groups_prefixes_contiguously() {
        // Everything prefixed by /col sorts in one contiguous run, which the
        // content store's prefix lookup depends on.
        let mut names = [
            Name::from_uri("/col/f/10"),
            Name::from_uri("/col"),
            Name::from_uri("/zzz"),
            Name::from_uri("/col/f/2"),
            Name::from_uri("/az"),
            Name::from_uri("/col/a"),
        ];
        names.sort();
        let col = Name::from_uri("/col");
        let in_run: Vec<bool> = names.iter().map(|n| col.is_prefix_of(n)).collect();
        let first = in_run.iter().position(|&b| b).expect("some");
        let last = in_run.iter().rposition(|&b| b).expect("some");
        assert!(in_run[first..=last].iter().all(|&b| b));
    }

    #[test]
    fn state_bytes_nonzero() {
        assert!(Name::from_uri("/a/b").state_bytes() > 0);
    }

    #[test]
    fn wire_component_boundaries_enumerate_prefixes() {
        let n = Name::from_uri("/col/f/10");
        let wire = n.to_wire_value();
        let mut bounds = Vec::new();
        assert!(wire_component_boundaries(&wire, &mut bounds));
        assert_eq!(bounds.len(), n.len());
        assert_eq!(*bounds.last().unwrap(), wire.len());
        // Every boundary cut is exactly a prefix's wire value.
        for (k, &b) in bounds.iter().enumerate() {
            assert_eq!(&wire[..b], &n.prefix(k + 1).to_wire_value()[..]);
        }
        // Root: the empty region is valid with no boundaries.
        assert!(wire_component_boundaries(&[], &mut bounds));
        assert!(bounds.is_empty());
        // Truncation and overruns are rejected.
        assert!(!wire_component_boundaries(
            &wire[..wire.len() - 1],
            &mut bounds
        ));
        assert!(!wire_component_boundaries(&[0x08, 200, 1], &mut bounds));
    }
}
