//! Interest and Data packets with NDN-TLV wire encoding.
//!
//! The encoding follows the NDN packet format spec closely enough that
//! packet sizes (and therefore air times and collision behaviour in the
//! simulator) are realistic. Data signatures use the
//! [`dapes_crypto::signing`] trust-anchor scheme; the signed portion covers
//! Name, MetaInfo, Content and SignatureInfo, as in the spec.
//!
//! # Encode-once wire cache
//!
//! Both packet types carry a lazily filled wire cache ([`Interest::wire`],
//! [`Data::wire`]): the first encoding is memoized in a shared
//! [`Payload`] buffer and every later send — including every clone made by
//! the forwarder for PIT downstreams or CS hits — reuses it without
//! re-encoding. Decoding via [`Interest::decode_payload`] /
//! [`Data::decode_payload`] seeds the cache with the *received* bytes, so a
//! multi-hop relay re-broadcasts the exact frame it heard with zero
//! re-encoding (also the byte-faithful thing to do for signed packets).
//! Mutating a packet through a builder setter invalidates the cache (no-op
//! "mutations" keep it); [`Interest::decrement_hop_limit`] instead *patches*
//! a warm cache — one copied buffer, one rewritten byte — the same
//! copy-on-write transform a relay applies to a received frame.
//!
//! # Received Interests
//!
//! A received Interest is an [`InterestHeader`]: a view over its frame that
//! one TLV walk fills ([`Packet::peek_header`]), which is what the
//! forwarder's pipeline runs on. [`InterestHeader::to_interest`] builds the
//! owned [`Interest`] when one is needed (delivery to the application), and
//! [`Interest::decode`] is that walk plus the build. The owned `Interest` is
//! otherwise the send-side builder.

use crate::name::{Component, Name};
use crate::tlv::{self, types, Scratch, TlvError, TlvReader};
use dapes_crypto::signing::{KeyId, Signature, Signer, Verifier};
use dapes_netsim::payload::Payload;
use std::ops::Range;
use std::sync::OnceLock;

/// Copies a wire cache for a cloned packet: the clone shares the same
/// encoded buffer.
fn clone_cache(cache: &OnceLock<Payload>) -> OnceLock<Payload> {
    let out = OnceLock::new();
    if let Some(w) = cache.get() {
        let _ = out.set(w.clone());
    }
    out
}

/// An Interest packet: a request for named data.
///
/// # Examples
///
/// ```
/// use dapes_ndn::packet::Interest;
/// use dapes_ndn::name::Name;
///
/// let i = Interest::new(Name::from_uri("/dapes/discovery"))
///     .with_can_be_prefix(true)
///     .with_nonce(0x1234_5678);
/// let wire = i.encode();
/// let back = Interest::decode(&wire).expect("round trip");
/// assert_eq!(back.name().to_string(), "/dapes/discovery");
/// assert!(back.can_be_prefix());
/// ```
#[derive(Debug)]
pub struct Interest {
    name: Name,
    can_be_prefix: bool,
    must_be_fresh: bool,
    nonce: u32,
    /// Lifetime in milliseconds (PIT entry duration).
    lifetime_ms: u64,
    hop_limit: Option<u8>,
    app_parameters: Option<Payload>,
    /// Encode-once cache; never compared, cloned by reference.
    wire: OnceLock<Payload>,
}

impl Clone for Interest {
    fn clone(&self) -> Self {
        Interest {
            name: self.name.clone(),
            can_be_prefix: self.can_be_prefix,
            must_be_fresh: self.must_be_fresh,
            nonce: self.nonce,
            lifetime_ms: self.lifetime_ms,
            hop_limit: self.hop_limit,
            app_parameters: self.app_parameters.clone(),
            wire: clone_cache(&self.wire),
        }
    }
}

impl PartialEq for Interest {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.can_be_prefix == other.can_be_prefix
            && self.must_be_fresh == other.must_be_fresh
            && self.nonce == other.nonce
            && self.lifetime_ms == other.lifetime_ms
            && self.hop_limit == other.hop_limit
            && self.app_parameters == other.app_parameters
    }
}

impl Eq for Interest {}

impl Interest {
    /// Default InterestLifetime (the NDN default of 4 s).
    pub const DEFAULT_LIFETIME_MS: u64 = 4_000;

    /// Creates an Interest for `name` with defaults.
    pub fn new(name: Name) -> Self {
        Interest {
            name,
            can_be_prefix: false,
            must_be_fresh: false,
            nonce: 0,
            lifetime_ms: Self::DEFAULT_LIFETIME_MS,
            hop_limit: None,
            app_parameters: None,
            wire: OnceLock::new(),
        }
    }

    /// The requested name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Whether Data whose name extends the Interest name may satisfy it.
    pub fn can_be_prefix(&self) -> bool {
        self.can_be_prefix
    }

    /// Whether only fresh Data (within its FreshnessPeriod) may satisfy it.
    pub fn must_be_fresh(&self) -> bool {
        self.must_be_fresh
    }

    /// The duplicate-suppression nonce.
    pub fn nonce(&self) -> u32 {
        self.nonce
    }

    /// Lifetime in milliseconds.
    pub fn lifetime_ms(&self) -> u64 {
        self.lifetime_ms
    }

    /// Remaining hop limit, if any.
    pub fn hop_limit(&self) -> Option<u8> {
        self.hop_limit
    }

    /// Application parameters (DAPES carries bitmaps here).
    pub fn app_parameters(&self) -> Option<&[u8]> {
        self.app_parameters.as_deref()
    }

    /// Sets CanBePrefix. A no-op change keeps the wire cache.
    #[must_use]
    pub fn with_can_be_prefix(mut self, v: bool) -> Self {
        if self.can_be_prefix != v {
            self.can_be_prefix = v;
            self.wire = OnceLock::new();
        }
        self
    }

    /// Sets MustBeFresh. A no-op change keeps the wire cache.
    #[must_use]
    pub fn with_must_be_fresh(mut self, v: bool) -> Self {
        if self.must_be_fresh != v {
            self.must_be_fresh = v;
            self.wire = OnceLock::new();
        }
        self
    }

    /// Sets the nonce. A no-op change keeps the wire cache.
    #[must_use]
    pub fn with_nonce(mut self, nonce: u32) -> Self {
        if self.nonce != nonce {
            self.nonce = nonce;
            self.wire = OnceLock::new();
        }
        self
    }

    /// Sets the lifetime in milliseconds. A no-op change keeps the wire
    /// cache.
    #[must_use]
    pub fn with_lifetime_ms(mut self, ms: u64) -> Self {
        if self.lifetime_ms != ms {
            self.lifetime_ms = ms;
            self.wire = OnceLock::new();
        }
        self
    }

    /// Sets the hop limit. A no-op change keeps the wire cache.
    #[must_use]
    pub fn with_hop_limit(mut self, hops: u8) -> Self {
        if self.hop_limit != Some(hops) {
            self.hop_limit = Some(hops);
            self.wire = OnceLock::new();
        }
        self
    }

    /// Attaches application parameters. A no-op change keeps the wire cache.
    #[must_use]
    pub fn with_app_parameters(mut self, params: impl Into<Payload>) -> Self {
        let params = params.into();
        if self.app_parameters.as_ref() != Some(&params) {
            self.app_parameters = Some(params);
            self.wire = OnceLock::new();
        }
        self
    }

    /// Decrements the hop limit, returning `false` when exhausted (an
    /// exhausted decrement, `Some(0)`, changes nothing). A real decrement
    /// drops the wire cache; a relay patches the received frame instead
    /// (`Forwarder::receive_interest`), and the two agree byte for byte.
    pub fn decrement_hop_limit(&mut self) -> bool {
        match self.hop_limit {
            None => true,
            Some(0) => false,
            Some(h) => {
                self.hop_limit = Some(h - 1);
                self.wire = OnceLock::new();
                h > 1
            }
        }
    }

    /// The wire encoding as a shared buffer, encoded at most once: repeated
    /// calls (and calls on clones made after the first encoding) return the
    /// same allocation.
    pub fn wire(&self) -> Payload {
        self.wire
            .get_or_init(|| Payload::from(self.encode()))
            .clone()
    }

    /// Encodes to wire format, building a fresh buffer. Hot paths should
    /// prefer [`Interest::wire`].
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.app_parameters.as_ref().map_or(0, |p| p.len()));
        encode_name(&mut body, &self.name);
        if self.can_be_prefix {
            tlv::write_tlv(&mut body, types::CAN_BE_PREFIX, &[]);
        }
        if self.must_be_fresh {
            tlv::write_tlv(&mut body, types::MUST_BE_FRESH, &[]);
        }
        tlv::write_tlv(&mut body, types::NONCE, &self.nonce.to_be_bytes());
        tlv::write_nonneg_tlv(&mut body, types::INTEREST_LIFETIME, self.lifetime_ms);
        if let Some(h) = self.hop_limit {
            tlv::write_tlv(&mut body, types::HOP_LIMIT, &[h]);
        }
        if let Some(p) = &self.app_parameters {
            tlv::write_tlv(&mut body, types::APP_PARAMETERS, p);
        }
        let mut out = Vec::with_capacity(body.len() + 4);
        tlv::write_tlv(&mut out, types::INTEREST, &body);
        out
    }

    /// Decodes from wire format: [`Interest::decode_payload`] over a copy.
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] on malformed input.
    pub fn decode(wire: &[u8]) -> Result<Self, TlvError> {
        Self::decode_payload(&Payload::copy_from_slice(wire))
    }

    /// Decodes from a shared buffer with zero payload copies: the peeked
    /// view's [`InterestHeader::to_interest`].
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] on malformed input.
    pub fn decode_payload(payload: &Payload) -> Result<Self, TlvError> {
        InterestHeader::peek(payload)?.to_interest(payload)
    }
}

/// Whether the buffer holds exactly one TLV packet (no trailing bytes), the
/// precondition for caching it as a packet's wire image — and for relaying
/// it by byte patch, which forwards the whole buffer.
pub(crate) fn whole_buffer_is_one_packet(buf: &[u8]) -> bool {
    let mut r = TlvReader::new(buf);
    r.read_tlv().is_ok() && r.is_at_end()
}

/// A hop-limit field as seen by [`Packet::peek_header`]: just enough for a
/// relay to rewrite the hop count in a copied frame without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PeekedHopLimit {
    /// No HopLimit TLV: the frame relays unchanged.
    #[default]
    Absent,
    /// A canonical one-byte HopLimit: `value` lives at byte `offset` of the
    /// peeked frame, so a relay can copy the buffer once and rewrite that
    /// single byte.
    Patchable {
        /// The remaining hop count.
        value: u8,
        /// Byte offset of the value within the peeked frame.
        offset: usize,
    },
    /// A non-canonical (multi-byte) encoding, read as its first byte: a
    /// byte patch would not equal decode→decrement→re-encode, so a relay
    /// re-encodes.
    Opaque {
        /// The remaining hop count.
        value: u8,
    },
}

/// A received Interest: a view over its frame, filled by the one TLV walk
/// that parses Interests ([`Packet::peek_header`]; [`Interest::decode`]
/// runs it too). The name and the application parameters stay borrowed
/// slices of the frame — the name directly comparable against the PIT and
/// Content Store wire keys — until [`InterestHeader::to_name`] or
/// [`InterestHeader::to_interest`] materializes them.
#[derive(Clone, Copy, Debug)]
pub struct InterestHeader<'a> {
    /// The name's TLV value region (concatenated component TLVs), borrowed
    /// from the frame. Comparable against [`Name::to_wire_value`] keys and
    /// [`Name::wire_value_eq`] without allocation.
    pub name_wire: &'a [u8],
    /// Whether extending names may satisfy the Interest.
    pub can_be_prefix: bool,
    /// Whether only fresh Data may satisfy it.
    pub must_be_fresh: bool,
    /// The duplicate-suppression nonce (0 when absent).
    pub nonce: u32,
    /// InterestLifetime in milliseconds ([`Interest::DEFAULT_LIFETIME_MS`]
    /// when absent).
    pub lifetime_ms: u64,
    /// The hop-limit field, captured with its byte offset so a forwarding
    /// decision can relay the frame by copy-on-write byte patch.
    pub hop_limit: PeekedHopLimit,
    /// The ApplicationParameters value (DAPES carries bitmaps here),
    /// borrowed from the frame.
    pub app_parameters: Option<&'a [u8]>,
}

impl<'a> InterestHeader<'a> {
    /// Walks an Interest frame once. Every TLV is read (unknown fields
    /// skipped, repeated fields last-wins, any field order accepted), but
    /// only the flags, nonce, lifetime and hop limit are parsed; the name
    /// and parameters are sliced over. Always inlined: called out of line,
    /// the view went back through an intermediate `Result`, which cost
    /// `Packet::peek_header` about 15 ns a frame (`interest_peek_header`).
    #[inline(always)]
    fn peek(wire: &'a [u8]) -> Result<Self, TlvError> {
        let mut outer = TlvReader::new(wire);
        let body = outer.read_expected(types::INTEREST)?;
        let mut r = TlvReader::new(body);
        let mut view = InterestHeader {
            name_wire: r.read_expected(types::NAME)?,
            can_be_prefix: false,
            must_be_fresh: false,
            nonce: 0,
            lifetime_ms: Interest::DEFAULT_LIFETIME_MS,
            hop_limit: PeekedHopLimit::Absent,
            app_parameters: None,
        };
        while !r.is_at_end() {
            let (typ, value) = r.read_tlv()?;
            match typ {
                types::CAN_BE_PREFIX => view.can_be_prefix = true,
                types::MUST_BE_FRESH => view.must_be_fresh = true,
                types::NONCE => {
                    let bytes: [u8; 4] = value
                        .try_into()
                        .map_err(|_| TlvError::BadValue("nonce must be 4 bytes"))?;
                    view.nonce = u32::from_be_bytes(bytes);
                }
                types::INTEREST_LIFETIME => view.lifetime_ms = tlv::decode_nonneg(value)?,
                types::HOP_LIMIT => {
                    view.hop_limit = match value {
                        [] => return Err(TlvError::BadValue("empty hop limit")),
                        [v] => PeekedHopLimit::Patchable {
                            value: *v,
                            offset: value.as_ptr() as usize - wire.as_ptr() as usize,
                        },
                        [v, ..] => PeekedHopLimit::Opaque { value: *v },
                    };
                }
                types::APP_PARAMETERS => view.app_parameters = Some(value),
                _ => {}
            }
        }
        Ok(view)
    }

    /// Materializes the name, with components as zero-copy views into
    /// `backing` (the frame the header was peeked from).
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] when the name region is malformed (peeking
    /// defers component validation to this point).
    pub fn to_name(&self, backing: &Payload) -> Result<Name, TlvError> {
        decode_name_value(self.name_wire, backing)
    }

    /// Builds the owned [`Interest`]: name components and parameters are
    /// zero-copy views into `backing` (the frame the header was peeked
    /// from), and the wire cache holds `backing` itself when it is exactly
    /// this packet, so re-sending the Interest reuses the received bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] when the name region is malformed.
    pub fn to_interest(&self, backing: &Payload) -> Result<Interest, TlvError> {
        Ok(self.with_name(self.to_name(backing)?, backing))
    }

    /// [`InterestHeader::to_interest`] around a name already materialized
    /// from this view.
    pub(crate) fn with_name(&self, name: Name, backing: &Payload) -> Interest {
        let interest = Interest {
            name,
            can_be_prefix: self.can_be_prefix,
            must_be_fresh: self.must_be_fresh,
            nonce: self.nonce,
            lifetime_ms: self.lifetime_ms,
            hop_limit: match self.hop_limit {
                PeekedHopLimit::Absent => None,
                PeekedHopLimit::Patchable { value, .. } | PeekedHopLimit::Opaque { value } => {
                    Some(value)
                }
            },
            app_parameters: self.app_parameters.map(|p| backing.view_of(p)),
            wire: OnceLock::new(),
        };
        if whole_buffer_is_one_packet(backing) {
            let _ = interest.wire.set(backing.clone());
        }
        interest
    }
}

/// The name-first prefix of a Data packet, produced by
/// [`Packet::peek_header`] without touching MetaInfo, Content or signature.
#[derive(Clone, Copy, Debug)]
pub struct DataHeader<'a> {
    /// The name's TLV value region, borrowed from the frame.
    pub name_wire: &'a [u8],
}

impl DataHeader<'_> {
    /// Materializes the name, with components as zero-copy views into
    /// `backing` (the frame the header was peeked from).
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] when the name region is malformed.
    pub fn to_name(&self, backing: &Payload) -> Result<Name, TlvError> {
        decode_name_value(self.name_wire, backing)
    }
}

/// A peeked packet: a received Interest's view, or a Data packet's name.
#[derive(Clone, Copy, Debug)]
pub enum PacketHeader<'a> {
    /// A received Interest.
    Interest(InterestHeader<'a>),
    /// A Data packet's type + name.
    Data(DataHeader<'a>),
}

impl PacketHeader<'_> {
    /// The header with its borrowed slices stored as offsets into `frame`,
    /// the buffer it was peeked from, so it can be kept beside that frame —
    /// one transmission's receivers share one — and re-attached without a
    /// second walk.
    pub fn detach(&self, frame: &[u8]) -> DetachedHeader {
        let span = |part: &[u8]| {
            let start = part.as_ptr() as usize - frame.as_ptr() as usize;
            start..start + part.len()
        };
        match self {
            PacketHeader::Interest(h) => DetachedHeader {
                header: PacketHeader::Interest(InterestHeader {
                    name_wire: &[],
                    can_be_prefix: h.can_be_prefix,
                    must_be_fresh: h.must_be_fresh,
                    nonce: h.nonce,
                    lifetime_ms: h.lifetime_ms,
                    hop_limit: h.hop_limit,
                    app_parameters: None,
                }),
                name: span(h.name_wire),
                app_parameters: h.app_parameters.map(span),
            },
            PacketHeader::Data(h) => DetachedHeader {
                header: PacketHeader::Data(DataHeader { name_wire: &[] }),
                name: span(h.name_wire),
                app_parameters: None,
            },
        }
    }
}

/// A [`PacketHeader`] kept apart from its frame ([`PacketHeader::detach`]).
#[derive(Clone, Debug)]
pub struct DetachedHeader {
    /// The header, its slices left empty.
    header: PacketHeader<'static>,
    name: Range<usize>,
    app_parameters: Option<Range<usize>>,
}

impl DetachedHeader {
    /// The header again, borrowing from `frame` — which must be the buffer
    /// it was detached from.
    pub fn attach<'a>(&self, frame: &'a [u8]) -> PacketHeader<'a> {
        let name_wire = &frame[self.name.clone()];
        match self.header {
            PacketHeader::Interest(h) => PacketHeader::Interest(InterestHeader {
                name_wire,
                app_parameters: self.app_parameters.clone().map(|r| &frame[r]),
                ..h
            }),
            PacketHeader::Data(_) => PacketHeader::Data(DataHeader { name_wire }),
        }
    }
}

/// Content type of a Data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ContentType {
    /// Ordinary application payload.
    #[default]
    Blob,
    /// Link/redirect (unused here, kept for spec shape).
    Link,
    /// Application-level NACK.
    Nack,
}

impl ContentType {
    fn to_num(self) -> u64 {
        match self {
            ContentType::Blob => 0,
            ContentType::Link => 1,
            ContentType::Nack => 3,
        }
    }

    fn from_num(n: u64) -> Self {
        match n {
            1 => ContentType::Link,
            3 => ContentType::Nack,
            _ => ContentType::Blob,
        }
    }
}

/// A Data packet: named, signed content.
///
/// # Examples
///
/// ```
/// use dapes_ndn::packet::Data;
/// use dapes_ndn::name::Name;
/// use dapes_crypto::signing::TrustAnchor;
///
/// let anchor = TrustAnchor::from_seed(b"anchor");
/// let key = anchor.keypair("producer");
/// let data = Data::new(Name::from_uri("/col/file/0"), b"payload".to_vec()).signed(&key);
/// assert!(data.verify(&anchor));
/// let wire = data.encode();
/// let back = Data::decode(&wire).expect("round trip");
/// assert!(back.verify(&anchor));
/// ```
#[derive(Debug)]
pub struct Data {
    name: Name,
    content_type: ContentType,
    freshness_ms: u64,
    /// Shared buffer: cloning Data (per PIT downstream, per CS insert) does
    /// not copy the payload.
    content: Payload,
    signature: Option<Signature>,
    /// Encode-once cache; never compared, cloned by reference.
    wire: OnceLock<Payload>,
}

impl Clone for Data {
    fn clone(&self) -> Self {
        Data {
            name: self.name.clone(),
            content_type: self.content_type,
            freshness_ms: self.freshness_ms,
            content: self.content.clone(),
            signature: self.signature.clone(),
            wire: clone_cache(&self.wire),
        }
    }
}

impl PartialEq for Data {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.content_type == other.content_type
            && self.freshness_ms == other.freshness_ms
            && self.content == other.content
            && self.signature == other.signature
    }
}

impl Eq for Data {}

impl Data {
    /// Creates unsigned Data with the given name and content.
    pub fn new(name: Name, content: impl Into<Payload>) -> Self {
        Data {
            name,
            content_type: ContentType::Blob,
            freshness_ms: 0,
            content: content.into(),
            signature: None,
            wire: OnceLock::new(),
        }
    }

    /// The data name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The payload.
    pub fn content(&self) -> &[u8] {
        &self.content
    }

    /// The content type.
    pub fn content_type(&self) -> ContentType {
        self.content_type
    }

    /// Freshness period in milliseconds.
    pub fn freshness_ms(&self) -> u64 {
        self.freshness_ms
    }

    /// The signature, if the packet is signed.
    pub fn signature(&self) -> Option<&Signature> {
        self.signature.as_ref()
    }

    /// Sets the freshness period.
    #[must_use]
    pub fn with_freshness_ms(mut self, ms: u64) -> Self {
        self.freshness_ms = ms;
        self.wire = OnceLock::new();
        self
    }

    /// Signs the packet, consuming and returning it.
    #[must_use]
    pub fn signed(mut self, signer: &dyn Signer) -> Self {
        let key_id = signer.key_id();
        self.signature = Some(signer.sign_parts(&mut |mac| self.write_signed_portion(key_id, mac)));
        self.wire = OnceLock::new();
        self
    }

    /// Verifies the signature against a verifier (e.g. the trust anchor).
    ///
    /// The signed portion is streamed into the verifier field by field —
    /// the content goes in as the view it already is, never copied.
    /// Unsigned packets never verify.
    pub fn verify(&self, verifier: &dyn Verifier) -> bool {
        match &self.signature {
            None => false,
            Some(sig) => {
                verifier.verify_parts(&mut |mac| self.write_signed_portion(sig.key_id, mac), sig)
            }
        }
    }

    /// Emits the signed portion — Name, MetaInfo, Content, SignatureInfo,
    /// in their canonical encoding — into `out` piece by piece: headers
    /// and the small nested fields from the stack, component and content
    /// bytes from where they lie. The one definition of what a signature
    /// covers, shared by signing, verification and [`Data::encode`].
    fn write_signed_portion(&self, key_id: KeyId, out: &mut dyn FnMut(&[u8])) {
        write_name(&self.name, out);

        let mut meta = Scratch::default();
        if self.content_type != ContentType::Blob {
            tlv::write_nonneg_tlv(&mut meta, types::CONTENT_TYPE, self.content_type.to_num());
        }
        if self.freshness_ms > 0 {
            tlv::write_nonneg_tlv(&mut meta, types::FRESHNESS_PERIOD, self.freshness_ms);
        }
        out(&tlv::tl_header(types::META_INFO, meta.len()));
        out(&meta);

        out(&tlv::tl_header(types::CONTENT, self.content.len()));
        out(&self.content);

        let mut info = Scratch::default();
        // SignatureType 4 = "HMAC with SHA-256" in the NDN registry.
        tlv::write_nonneg_tlv(&mut info, types::SIGNATURE_TYPE, 4);
        tlv::write_tlv(&mut info, types::KEY_LOCATOR, &key_id.0.to_be_bytes());
        out(&tlv::tl_header(types::SIGNATURE_INFO, info.len()));
        out(&info);
    }

    /// The wire encoding as a shared buffer, encoded at most once: repeated
    /// calls (and calls on clones made after the first encoding, e.g. the
    /// copy a Content Store hit hands back) return the same allocation.
    pub fn wire(&self) -> Payload {
        self.wire
            .get_or_init(|| Payload::from(self.encode()))
            .clone()
    }

    /// Encodes to wire format, building a fresh buffer. Hot paths should
    /// prefer [`Data::wire`].
    pub fn encode(&self) -> Vec<u8> {
        let key_id = self.signature.as_ref().map_or(KeyId(0), |s| s.key_id);
        let mut body = Vec::with_capacity(self.content.len() + 64);
        self.write_signed_portion(key_id, &mut |bytes| body.extend_from_slice(bytes));
        let sig_bytes = self
            .signature
            .as_ref()
            .map_or_else(Vec::new, Signature::to_bytes);
        tlv::write_tlv(&mut body, types::SIGNATURE_VALUE, &sig_bytes);
        let mut out = Vec::with_capacity(body.len() + 4);
        tlv::write_tlv(&mut out, types::DATA, &body);
        out
    }

    /// Decodes from wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] on malformed input.
    pub fn decode(wire: &[u8]) -> Result<Self, TlvError> {
        Self::decode_inner(&Payload::copy_from_slice(wire))
    }

    /// Decodes with the name and content as views into `wire`.
    fn decode_inner(wire: &Payload) -> Result<Self, TlvError> {
        let mut outer = TlvReader::new(wire);
        let body = outer.read_expected(types::DATA)?;
        let mut r = TlvReader::new(body);
        let name = decode_name_value(r.read_expected(types::NAME)?, wire)?;
        let mut data = Data::new(name, Vec::new());
        while !r.is_at_end() {
            let (typ, value) = r.read_tlv()?;
            match typ {
                types::META_INFO => {
                    let mut m = TlvReader::new(value);
                    while !m.is_at_end() {
                        let (mt, mv) = m.read_tlv()?;
                        match mt {
                            types::CONTENT_TYPE => {
                                data.content_type = ContentType::from_num(tlv::decode_nonneg(mv)?)
                            }
                            types::FRESHNESS_PERIOD => data.freshness_ms = tlv::decode_nonneg(mv)?,
                            _ => {}
                        }
                    }
                }
                types::CONTENT => data.content = wire.view_of(value),
                types::SIGNATURE_INFO => {} // key id is inside SignatureValue too
                types::SIGNATURE_VALUE => {
                    data.signature = if value.is_empty() {
                        None
                    } else {
                        Some(
                            Signature::from_bytes(value)
                                .ok_or(TlvError::BadValue("bad signature length"))?,
                        )
                    };
                }
                _ => {}
            }
        }
        Ok(data)
    }

    /// Decodes from a shared buffer with zero payload copies: the content
    /// field becomes a view into `payload`, and the wire cache is seeded
    /// with the received bytes so re-broadcasting or cache-serving the
    /// Data reuses the incoming frame's allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] on malformed input.
    pub fn decode_payload(payload: &Payload) -> Result<Self, TlvError> {
        let data = Self::decode_inner(payload)?;
        if whole_buffer_is_one_packet(payload) {
            let _ = data.wire.set(payload.clone());
        }
        Ok(data)
    }

    /// Wire size without re-encoding once the cache is warm.
    pub fn wire_size(&self) -> usize {
        self.wire().len()
    }

    /// The wire image a Content Store keeps for this packet, with where
    /// the name's wire value lies in it: [`Data::wire`] — for a packet
    /// [`Data::decode_payload`] built, the received frame itself — unless
    /// that frame spells the name other than canonically (a component
    /// type other than the generic one, a length in more bytes than it
    /// needs); then a canonical re-encoding. Either way the name bytes in
    /// the image are [`Name::to_wire_value`], the key every wire index
    /// uses.
    pub(crate) fn keyed_wire(&self) -> (Payload, Range<usize>) {
        let wire = self.wire();
        if let Some(at) = data_name_at(&wire) {
            if self.name.is_wire_value(&wire[at.clone()]) {
                return (wire, at);
            }
        }
        let wire = Payload::from(self.encode());
        let at = data_name_at(&wire).expect("an encoded Data frames its name");
        (wire, at)
    }
}

/// Where the name's TLV value lies in a Data packet's wire, if the wire
/// frames one: two header reads, no decode.
pub(crate) fn data_name_at(wire: &[u8]) -> Option<Range<usize>> {
    let body = TlvReader::new(wire).read_expected(types::DATA).ok()?;
    let name = TlvReader::new(body).read_expected(types::NAME).ok()?;
    let start = name.as_ptr() as usize - wire.as_ptr() as usize;
    Some(start..start + name.len())
}

/// Packet kinds that can arrive from the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// An Interest.
    Interest(Interest),
    /// A Data packet.
    Data(Data),
}

impl Packet {
    /// Decodes either packet type from a shared buffer, its type read off
    /// the peek: an Interest is built from its view
    /// ([`InterestHeader::to_interest`]), Data decoded in full
    /// ([`Data::decode_payload`]).
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] for unknown outer types or malformed input.
    pub fn decode_payload(payload: &Payload) -> Result<Self, TlvError> {
        Ok(match Self::peek_header(payload)? {
            PacketHeader::Interest(view) => Packet::Interest(view.to_interest(payload)?),
            PacketHeader::Data(_) => Packet::Data(Data::decode_payload(payload)?),
        })
    }

    /// Walks the frame once, as zero-copy borrows of `payload`, without
    /// building a [`Name`]: for an Interest, the received-packet view
    /// ([`InterestHeader`]) that the forwarder's one pipeline runs on; for
    /// Data, just its name, stopping before MetaInfo, Content and signature.
    ///
    /// An Interest that peeks fails to decode only when its name region is
    /// malformed: component-level validation is deferred to
    /// [`InterestHeader::to_name`] / [`DataHeader::to_name`] (a malformed
    /// region can never byte-match a wire-index key, which only ever holds
    /// encodings of valid names, so deferral cannot misroute). A Data frame
    /// with a valid name and a garbage tail also peeks fine; its decode
    /// fails later.
    ///
    /// # Errors
    ///
    /// Returns a [`TlvError`] for unknown outer types or malformed framing
    /// or field values — every error the full decode would also report.
    pub fn peek_header(payload: &Payload) -> Result<PacketHeader<'_>, TlvError> {
        let mut outer = TlvReader::new(payload);
        match outer.peek_type()? {
            types::INTEREST => Ok(PacketHeader::Interest(InterestHeader::peek(payload)?)),
            types::DATA => {
                let body = outer.read_expected(types::DATA)?;
                let mut r = TlvReader::new(body);
                Ok(PacketHeader::Data(DataHeader {
                    name_wire: r.read_expected(types::NAME)?,
                }))
            }
            other => Err(TlvError::UnexpectedType {
                expected: types::INTEREST,
                found: other,
            }),
        }
    }
}

/// Emits a Name TLV into `out` piece by piece — headers from the stack,
/// component bytes from where they lie. The one definition of a name's
/// canonical encoding inside a packet.
fn write_name(name: &Name, out: &mut dyn FnMut(&[u8])) {
    let components = name.components();
    let value_len: usize = components
        .iter()
        .map(|c| tlv::tl_header(types::NAME_COMPONENT, c.len()).len() + c.len())
        .sum();
    out(&tlv::tl_header(types::NAME, value_len));
    for c in components {
        out(&tlv::tl_header(types::NAME_COMPONENT, c.len()));
        out(c.as_bytes());
    }
}

pub(crate) fn encode_name(out: &mut Vec<u8>, name: &Name) {
    write_name(name, &mut |bytes| out.extend_from_slice(bytes));
}

/// Decodes a Name from its TLV value region (the borrowed slice a peeked
/// header carries), each component a zero-copy view into `backing`, the
/// frame the region lies in. A first walk counts the components, so the
/// vector is allocated exactly once — a relay materializes a name per
/// forwarded Interest.
pub(crate) fn decode_name_value(value: &[u8], backing: &Payload) -> Result<Name, TlvError> {
    let mut nr = TlvReader::new(value);
    let mut count = 0usize;
    while !nr.is_at_end() {
        nr.read_tlv()?;
        count += 1;
    }
    let mut nr = TlvReader::new(value);
    let mut components = Vec::with_capacity(count);
    while !nr.is_at_end() {
        // Every component type is treated as generic; we only emit 0x08.
        let (_, value) = nr.read_tlv()?;
        components.push(Component::from_payload(backing.view_of(value)));
    }
    Ok(Name::from_components(components))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapes_crypto::signing::TrustAnchor;

    fn name() -> Name {
        Name::from_uri("/damaged-bridge-1533783192/bridge-picture/0")
    }

    #[test]
    fn interest_round_trip_full() {
        let i = Interest::new(name())
            .with_can_be_prefix(true)
            .with_must_be_fresh(true)
            .with_nonce(0xdead_beef)
            .with_lifetime_ms(2_500)
            .with_hop_limit(5)
            .with_app_parameters(vec![9, 8, 7]);
        let wire = i.encode();
        let back = Interest::decode(&wire).expect("decode");
        assert_eq!(back, i);
    }

    #[test]
    fn interest_round_trip_minimal() {
        let i = Interest::new(Name::from_uri("/a")).with_nonce(1);
        let back = Interest::decode(&i.encode()).expect("decode");
        assert_eq!(back, i);
        assert!(!back.can_be_prefix());
        assert_eq!(back.lifetime_ms(), Interest::DEFAULT_LIFETIME_MS);
        assert_eq!(back.hop_limit(), None);
        assert_eq!(back.app_parameters(), None);
    }

    #[test]
    fn data_round_trip_signed() {
        let anchor = TrustAnchor::from_seed(b"a");
        let key = anchor.keypair("p");
        let d = Data::new(name(), vec![1; 1024])
            .with_freshness_ms(10_000)
            .signed(&key);
        let wire = d.encode();
        let back = Data::decode(&wire).expect("decode");
        assert_eq!(back, d);
        assert!(back.verify(&anchor));
    }

    #[test]
    fn unsigned_data_never_verifies() {
        let anchor = TrustAnchor::from_seed(b"a");
        let d = Data::new(name(), vec![1, 2, 3]);
        assert!(!d.verify(&anchor));
    }

    #[test]
    fn tampered_content_fails_verification() {
        let anchor = TrustAnchor::from_seed(b"a");
        let key = anchor.keypair("p");
        let d = Data::new(name(), b"original".to_vec()).signed(&key);
        let mut wire = d.encode();
        // Flip a byte inside the content region.
        let pos = wire
            .windows(8)
            .position(|w| w == b"original")
            .expect("content present");
        wire[pos] ^= 0x01;
        let back = Data::decode(&wire).expect("still well-formed");
        assert!(!back.verify(&anchor));
    }

    #[test]
    fn tampered_name_fails_verification() {
        let anchor = TrustAnchor::from_seed(b"a");
        let key = anchor.keypair("p");
        let d = Data::new(Name::from_uri("/col/file/0"), b"x".to_vec()).signed(&key);
        let mut wire = d.encode();
        let pos = wire
            .windows(3)
            .position(|w| w == b"col")
            .expect("name present");
        wire[pos] = b'k';
        let back = Data::decode(&wire).expect("well-formed");
        assert_eq!(back.name().to_string(), "/kol/file/0");
        assert!(!back.verify(&anchor));
    }

    /// Byte offset of `needle`'s first occurrence in `wire`.
    fn find(wire: &[u8], needle: &[u8]) -> usize {
        wire.windows(needle.len())
            .position(|w| w == needle)
            .expect("field present on the wire")
    }

    #[test]
    fn verify_agrees_across_decode_payload_and_rejects_a_flip_in_every_field() {
        let anchor = TrustAnchor::from_seed(b"a");
        let key = anchor.keypair("p");
        let content: Vec<u8> = (0u32..1024).map(|i| (i % 251) as u8).collect();
        let built = Data::new(Name::from_uri("/col/file/7"), content.clone())
            .with_freshness_ms(0x1234)
            .signed(&key);
        assert!(built.verify(&anchor));
        let wire = built.wire();
        let back = Data::decode_payload(&wire).expect("round trip");
        assert_eq!(back, built);
        assert!(back.verify(&anchor), "zero-copy views verify like owned");

        // One bit flipped in each signed field, and in the tag itself. The
        // key id is what SignatureInfo encodes (the decoder reads it from
        // the SignatureValue and re-derives SignatureInfo), so flipping it
        // changes both the signed bytes and the key looked up.
        let sig_value = find(&wire, &built.signature().expect("signed").to_bytes());
        for (field, pos) in [
            ("name", find(&wire, b"file")),
            ("MetaInfo", find(&wire, &[0x12, 0x34])),
            ("content", find(&wire, &content[..16]) + 500),
            ("SignatureInfo key id", sig_value + 3),
            ("tag", sig_value + 8 + 31),
        ] {
            let mut bad = wire.to_vec();
            bad[pos] ^= 0x04;
            let verdict = Data::decode_payload(&Payload::from(bad)).map(|d| d.verify(&anchor));
            assert_ne!(verdict, Ok(true), "flip in {field} accepted");
        }
    }

    #[test]
    fn mac_covers_the_canonical_re_encoding_of_a_non_canonical_frame() {
        // A frame whose name component carries a non-generic type decodes to
        // the same `Data` as its canonical twin, and the signature covers
        // the canonical re-encoding — so both verify. Streaming the signed
        // portion must not change that verdict.
        let anchor = TrustAnchor::from_seed(b"a");
        let d = Data::new(Name::from_uri("/col/f/0"), b"x".to_vec()).signed(&anchor.keypair("p"));
        let mut wire = d.encode();
        let pos = find(&wire, &[0x08, 0x03, b'c', b'o', b'l']);
        wire[pos] = 0x20;
        let odd = Data::decode_payload(&Payload::from(wire)).expect("well-formed");
        assert_eq!(odd, d);
        assert!(odd.verify(&anchor));
    }

    #[test]
    fn packet_dispatches_by_outer_type() {
        let i = Interest::new(name()).with_nonce(7);
        let d = Data::new(name(), vec![1]);
        let decode = |wire: Vec<u8>| Packet::decode_payload(&Payload::from(wire));
        assert!(matches!(decode(i.encode()), Ok(Packet::Interest(_))));
        assert!(matches!(decode(d.encode()), Ok(Packet::Data(_))));
        assert!(decode(vec![0x99, 0x00]).is_err());
    }

    #[test]
    fn hop_limit_decrements_to_exhaustion() {
        let mut i = Interest::new(name()).with_hop_limit(2);
        assert!(i.decrement_hop_limit());
        assert_eq!(i.hop_limit(), Some(1));
        assert!(!i.decrement_hop_limit());
        assert_eq!(i.hop_limit(), Some(0));
        assert!(!i.decrement_hop_limit());
        let mut unlimited = Interest::new(name());
        assert!(unlimited.decrement_hop_limit());
    }

    #[test]
    fn one_kb_data_wire_size_is_realistic() {
        let anchor = TrustAnchor::from_seed(b"a");
        let key = anchor.keypair("p");
        let d = Data::new(name(), vec![0; 1024]).signed(&key);
        let size = d.encode().len();
        // name (~45) + content (1024) + signature (40) + TLV overhead.
        assert!((1100..1250).contains(&size), "wire size {size}");
    }

    #[test]
    fn empty_name_round_trips() {
        let i = Interest::new(Name::root()).with_nonce(3);
        let back = Interest::decode(&i.encode()).expect("decode");
        assert_eq!(back.name(), &Name::root());
    }

    #[test]
    fn wire_cache_encodes_once_and_clones_share_it() {
        let d = Data::new(name(), vec![7; 256]);
        let w1 = d.wire();
        let w2 = d.wire();
        assert!(Payload::ptr_eq(&w1, &w2), "second wire() re-encoded");
        let c = d.clone();
        assert!(
            Payload::ptr_eq(&w1, &c.wire()),
            "clone must share the cached wire"
        );
        assert_eq!(&*w1, &d.encode()[..], "cache matches a fresh encoding");
    }

    #[test]
    fn decode_payload_seeds_cache_with_received_bytes() {
        let d = Data::new(name(), vec![1; 64]);
        let incoming = Payload::from(d.encode());
        let back = Data::decode_payload(&incoming).expect("decode");
        assert!(
            Payload::ptr_eq(&incoming, &back.wire()),
            "re-broadcast must reuse the received buffer"
        );
        let i = Interest::new(name()).with_nonce(4);
        let incoming = Payload::from(i.encode());
        let back = Interest::decode_payload(&incoming).expect("decode");
        assert!(Payload::ptr_eq(&incoming, &back.wire()));
    }

    #[test]
    fn decode_payload_content_is_a_zero_copy_view() {
        let d = Data::new(name(), vec![42; 512]);
        let incoming = Payload::from(d.encode());
        let back = Data::decode_payload(&incoming).expect("decode");
        assert_eq!(back.content(), &[42u8; 512][..]);
        let content_view = incoming.view_of(back.content());
        assert!(
            Payload::same_backing(&incoming, &content_view),
            "content must borrow from the received frame"
        );
        // Plain decode from a bare slice still owns its content.
        let owned = Data::decode(&incoming).expect("decode");
        assert_eq!(owned, back);
    }

    #[test]
    fn decode_payload_with_trailing_bytes_does_not_seed_cache() {
        let d = Data::new(name(), vec![1; 8]);
        let mut wire = d.encode();
        wire.extend_from_slice(&[0x99, 0x00]); // trailing unknown TLV
        let buf = Payload::from(wire);
        let back = Data::decode_payload(&buf).expect("outer TLV still parses");
        assert!(
            !Payload::ptr_eq(&buf, &back.wire()),
            "a buffer with trailing bytes is not this packet's wire image"
        );
        assert_eq!(back, d);
    }

    #[test]
    fn hop_limit_decrement_invalidates_cache() {
        let mut i = Interest::new(name()).with_nonce(1).with_hop_limit(3);
        let before = i.wire();
        assert!(i.decrement_hop_limit());
        let after = i.wire();
        assert!(!Payload::ptr_eq(&before, &after));
        assert_eq!(
            Interest::decode(&after).expect("decode").hop_limit(),
            Some(2),
            "re-encoding must reflect the decrement"
        );
        // Exhausted decrements change nothing and keep the cache.
        let mut z = Interest::new(name()).with_hop_limit(0);
        let w = z.wire();
        assert!(!z.decrement_hop_limit());
        assert!(Payload::ptr_eq(&w, &z.wire()));
    }

    #[test]
    fn hop_limit_decrement_patches_a_warm_cache_byte_for_byte() {
        // Decode → decrement → encode must differ from the received image
        // in exactly the hop-limit byte — the one byte a relay patches.
        let i = Interest::new(name())
            .with_nonce(0xfeed_f00d)
            .with_hop_limit(7)
            .with_app_parameters(vec![5; 128]);
        let incoming = Payload::from(i.encode());
        let mut relayed = Interest::decode_payload(&incoming).expect("decode");
        assert!(relayed.decrement_hop_limit());
        let patched = relayed.wire();
        let diffs: Vec<usize> = incoming
            .iter()
            .zip(patched.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(at, _)| at)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one byte must change");
        assert_eq!(patched[diffs[0]], 6);
        assert_eq!(
            &*patched,
            &i.with_hop_limit(6).encode()[..],
            "patched image must equal a fresh encode of the decrement"
        );
    }

    #[test]
    fn no_op_mutations_keep_the_wire_cache() {
        let i = Interest::new(name())
            .with_can_be_prefix(true)
            .with_nonce(9)
            .with_lifetime_ms(1_000)
            .with_hop_limit(4)
            .with_app_parameters(vec![1, 2, 3]);
        let before = i.wire();
        let same = i
            .with_can_be_prefix(true)
            .with_must_be_fresh(false)
            .with_nonce(9)
            .with_lifetime_ms(1_000)
            .with_hop_limit(4)
            .with_app_parameters(vec![1, 2, 3]);
        assert!(
            Payload::ptr_eq(&before, &same.wire()),
            "no-op mutations must not invalidate the encode-once cache"
        );
        let changed = same.with_nonce(10);
        assert!(!Payload::ptr_eq(&before, &changed.wire()));
    }

    #[test]
    fn peek_hop_limit_mirrors_decode_including_non_canonical_forms() {
        // Absent.
        let plain = Interest::new(name()).with_nonce(1);
        let buf = Payload::from(plain.encode());
        let Ok(PacketHeader::Interest(h)) = Packet::peek_header(&buf) else {
            panic!("peek must classify an Interest");
        };
        assert_eq!(h.hop_limit, PeekedHopLimit::Absent);

        // Multi-byte (non-canonical) value: decode succeeds taking the
        // first byte, but a byte patch would not match a re-encode, so the
        // peek must flag it opaque rather than patchable.
        let mut body = Vec::new();
        encode_name(&mut body, &name());
        tlv::write_tlv(&mut body, types::NONCE, &7u32.to_be_bytes());
        tlv::write_tlv(&mut body, types::HOP_LIMIT, &[3, 9]);
        let mut wire = Vec::new();
        tlv::write_tlv(&mut wire, types::INTEREST, &body);
        let buf = Payload::from(wire);
        assert_eq!(
            Interest::decode(&buf).expect("decode accepts").hop_limit(),
            Some(3)
        );
        let Ok(PacketHeader::Interest(h)) = Packet::peek_header(&buf) else {
            panic!("peek must classify an Interest");
        };
        assert_eq!(h.hop_limit, PeekedHopLimit::Opaque { value: 3 });

        // Empty value: both the peek and the full decode must reject it.
        let mut body = Vec::new();
        encode_name(&mut body, &name());
        tlv::write_tlv(&mut body, types::NONCE, &7u32.to_be_bytes());
        tlv::write_tlv(&mut body, types::HOP_LIMIT, &[]);
        let mut wire = Vec::new();
        tlv::write_tlv(&mut wire, types::INTEREST, &body);
        let buf = Payload::from(wire);
        assert!(Interest::decode(&buf).is_err());
        assert!(Packet::peek_header(&buf).is_err());

        // Repeated fields: last occurrence wins, as in decode.
        let mut body = Vec::new();
        encode_name(&mut body, &name());
        tlv::write_tlv(&mut body, types::NONCE, &7u32.to_be_bytes());
        tlv::write_tlv(&mut body, types::HOP_LIMIT, &[3, 9]);
        tlv::write_tlv(&mut body, types::HOP_LIMIT, &[4]);
        let mut wire = Vec::new();
        tlv::write_tlv(&mut wire, types::INTEREST, &body);
        let buf = Payload::from(wire);
        let Ok(PacketHeader::Interest(h)) = Packet::peek_header(&buf) else {
            panic!("peek must classify an Interest");
        };
        let PeekedHopLimit::Patchable { value: 4, offset } = h.hop_limit else {
            panic!("last canonical hop limit must win: {:?}", h.hop_limit);
        };
        assert_eq!(buf[offset], 4, "offset must address the winning byte");
    }

    #[test]
    fn equality_ignores_wire_cache_state() {
        let a = Data::new(name(), vec![3; 16]);
        let b = a.clone();
        let _ = a.wire(); // warm only one side
        assert_eq!(a, b);
        let i = Interest::new(name()).with_nonce(9);
        let j = i.clone();
        let _ = j.wire();
        assert_eq!(i, j);
    }

    #[test]
    fn packet_decode_payload_dispatches_and_seeds() {
        let d = Data::new(name(), vec![1]);
        let buf = Payload::from(d.encode());
        let Ok(Packet::Data(back)) = Packet::decode_payload(&buf) else {
            panic!("Data decodes as Data");
        };
        assert!(Payload::ptr_eq(&buf, &back.wire()));
        let i = Interest::new(name()).with_nonce(3);
        let buf = Payload::from(i.encode());
        let Ok(Packet::Interest(back)) = Packet::decode_payload(&buf) else {
            panic!("an Interest decodes as one");
        };
        assert!(Payload::ptr_eq(&buf, &back.wire()));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Interest::decode(&[1, 2, 3]).is_err());
        assert!(Data::decode(&[]).is_err());
        assert!(Data::decode(&Interest::new(name()).encode()).is_err());
    }

    #[test]
    fn peek_header_reads_interest_prefix_only() {
        let i = Interest::new(name())
            .with_can_be_prefix(true)
            .with_must_be_fresh(true)
            .with_nonce(0xdead_beef)
            .with_lifetime_ms(2_500)
            .with_hop_limit(5)
            .with_app_parameters(vec![9; 2048]);
        let buf = Payload::from(i.encode());
        let Ok(PacketHeader::Interest(h)) = Packet::peek_header(&buf) else {
            panic!("peek must classify an Interest");
        };
        assert_eq!(h.name_wire, &i.name().to_wire_value()[..]);
        assert!(i.name().wire_value_eq(h.name_wire));
        assert!(h.can_be_prefix && h.must_be_fresh);
        assert_eq!(h.nonce, 0xdead_beef);
        assert_eq!(h.lifetime_ms, 2_500);
        let PeekedHopLimit::Patchable { value, offset } = h.hop_limit else {
            panic!("canonical hop limit must peek as patchable");
        };
        assert_eq!(value, 5);
        assert_eq!(buf[offset], 5, "offset must address the hop-limit byte");
        assert_eq!(&h.to_name(&buf).expect("valid name"), i.name());

        // Lifetime defaults exactly as the full decode does when absent.
        let minimal = Interest::new(Name::from_uri("/a")).with_nonce(1);
        let mut body = Vec::new();
        encode_name(&mut body, minimal.name());
        tlv::write_tlv(&mut body, types::NONCE, &1u32.to_be_bytes());
        let mut wire = Vec::new();
        tlv::write_tlv(&mut wire, types::INTEREST, &body);
        let buf = Payload::from(wire);
        let Ok(PacketHeader::Interest(h)) = Packet::peek_header(&buf) else {
            panic!("peek must classify an Interest");
        };
        assert_eq!(h.lifetime_ms, Interest::DEFAULT_LIFETIME_MS);
    }

    #[test]
    fn peek_header_agrees_with_decode_on_non_canonical_field_order() {
        // Our encoder always writes canonical order, but the decoder
        // accepts any order (and last-wins on repeats); the peek must
        // report exactly what the decode would, or the header pipelines
        // could record divergent PIT state.
        let mut body = Vec::new();
        encode_name(&mut body, &name());
        tlv::write_tlv(&mut body, types::HOP_LIMIT, &[3]); // before nonce
        tlv::write_tlv(&mut body, types::NONCE, &7u32.to_be_bytes());
        tlv::write_tlv(&mut body, types::APP_PARAMETERS, &[9; 32]);
        tlv::write_nonneg_tlv(&mut body, types::INTEREST_LIFETIME, 50); // after params
        tlv::write_tlv(&mut body, types::NONCE, &8u32.to_be_bytes()); // repeat: last wins
        let mut wire = Vec::new();
        tlv::write_tlv(&mut wire, types::INTEREST, &body);
        let buf = Payload::from(wire);
        let decoded = Interest::decode(&buf).expect("decoder is order-agnostic");
        let Ok(PacketHeader::Interest(h)) = Packet::peek_header(&buf) else {
            panic!("peek must classify an Interest");
        };
        assert_eq!(h.nonce, decoded.nonce());
        assert_eq!(h.nonce, 8);
        assert_eq!(h.lifetime_ms, decoded.lifetime_ms());
        assert_eq!(h.lifetime_ms, 50);
    }

    #[test]
    fn peek_header_name_is_a_zero_copy_view() {
        let d = Data::new(name(), vec![1; 512]);
        let buf = Payload::from(d.encode());
        let Ok(PacketHeader::Data(h)) = Packet::peek_header(&buf) else {
            panic!("peek must classify Data");
        };
        // The borrowed slice lives inside the frame…
        let view = buf.view_of(h.name_wire);
        assert!(
            Payload::same_backing(&buf, &view),
            "peeked name must borrow from the frame"
        );
        // …and materializing it yields zero-copy component views.
        let materialized = h.to_name(&buf).expect("valid name");
        assert_eq!(&materialized, d.name());
        for c in materialized.components() {
            let view = buf.view_of(c.as_bytes());
            assert!(
                Payload::same_backing(&buf, &view),
                "materialized components must borrow from the frame"
            );
        }
    }

    #[test]
    fn peek_header_rejects_truncated_tlv_without_panicking() {
        let anchor = TrustAnchor::from_seed(b"a");
        let key = anchor.keypair("p");
        for wire in [
            Interest::new(name()).with_nonce(7).encode(),
            Data::new(name(), vec![3; 64]).signed(&key).encode(),
        ] {
            for cut in 0..wire.len() {
                let truncated = Payload::copy_from_slice(&wire[..cut]);
                assert!(
                    Packet::peek_header(&truncated).is_err(),
                    "cut={cut} must be rejected"
                );
            }
            assert!(Packet::peek_header(&Payload::from(wire)).is_ok());
        }
        assert!(Packet::peek_header(&Payload::from(vec![0x99, 0x00])).is_err());
        assert!(Packet::peek_header(&Payload::from(Vec::new())).is_err());
    }

    #[test]
    fn peek_header_does_not_decode_the_packet_tail() {
        // A Data packet whose post-name region is garbage: the full decode
        // fails, the name-first peek succeeds — proof the tail stays lazy.
        let mut body = Vec::new();
        encode_name(&mut body, &name());
        body.extend_from_slice(&[types::CONTENT as u8, 200]); // overrunning length
        let mut wire = Vec::new();
        tlv::write_tlv(&mut wire, types::DATA, &body);
        let buf = Payload::from(wire);
        assert!(Data::decode_payload(&buf).is_err(), "tail is malformed");
        let Ok(PacketHeader::Data(h)) = Packet::peek_header(&buf) else {
            panic!("peek must not read the tail");
        };
        assert!(name().wire_value_eq(h.name_wire));
    }

    #[test]
    fn malformed_name_region_peeks_but_fails_to_materialize() {
        // Component validation is deferred: the peeked slice exists, never
        // matches a canonical wire key, and `to_name` reports the error.
        let mut garbage_name = Vec::new();
        tlv::write_tlv(&mut garbage_name, types::NAME, &[0x08, 200]); // overrun
        let mut body = garbage_name;
        tlv::write_tlv(&mut body, types::NONCE, &7u32.to_be_bytes());
        let mut wire = Vec::new();
        tlv::write_tlv(&mut wire, types::INTEREST, &body);
        let buf = Payload::from(wire);
        let Ok(PacketHeader::Interest(h)) = Packet::peek_header(&buf) else {
            panic!("prefix framing is valid");
        };
        assert!(h.to_name(&buf).is_err());
        assert!(!name().wire_value_eq(h.name_wire));
        assert!(Interest::decode_payload(&buf).is_err(), "full decode fails");
    }
}
