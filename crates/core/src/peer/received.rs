//! What one transmission's bytes determine, worked out once for all of its
//! receivers.
//!
//! A broadcast reaches every peer in range, and each used to decode it,
//! name it and check its signature again. [`Received`] lives in the
//! transmission's frame memo (`NodeCtx::with_frame_memo`): the first
//! receiver that needs a fact works it out, and every later receiver of the
//! same transmission reads it. It holds only pure functions of the frame
//! bytes — verdicts additionally keyed by the trust anchor's fingerprint —
//! never a counter, per-node state or an RNG draw, so each receiver still
//! counts, screens and decides exactly as it would alone.

use crate::auth;
use crate::namespace::{self, DapesName};
use dapes_crypto::signing::{KeyId, TrustAnchor};
use dapes_crypto::Digest;
use dapes_ndn::name::Name;
use dapes_ndn::packet::{Data, DataHeader, DetachedHeader, Packet, PacketHeader};
use dapes_netsim::payload::Payload;

/// A Data name and its DAPES classification.
pub(super) struct Named {
    pub(super) name: Name,
    pub(super) class: Option<DapesName>,
}

impl Named {
    fn new(name: Name) -> Self {
        let class = namespace::classify(&name);
        Named { name, class }
    }
}

/// The frame facts one transmission's receivers share.
#[derive(Default)]
pub(super) struct Received {
    /// The peeked header (`Some(None)`: the frame does not peek).
    header: Option<Option<DetachedHeader>>,
    /// The Data name the header names (`Some(None)`: the name region is
    /// malformed).
    named: Option<Option<Named>>,
    /// The decoded Data packet (`Some(None)`: the decode failed).
    data: Option<Option<Data>>,
    pub(super) proofs: Proofs,
}

impl Received {
    /// The frame's peeked header, walked by the first receiver; `None`
    /// when the frame does not peek.
    pub(super) fn header<'p>(&mut self, payload: &'p Payload) -> Option<PacketHeader<'p>> {
        self.header
            .get_or_insert_with(|| Packet::peek_header(payload).ok().map(|h| h.detach(payload)))
            .as_ref()
            .map(|h| h.attach(payload))
    }

    /// The peeked Data name and its class, built by the first receiver
    /// that asks; `None` when the name region is malformed.
    pub(super) fn named(&mut self, header: &DataHeader<'_>, payload: &Payload) -> Option<&Named> {
        self.named
            .get_or_insert_with(|| header.to_name(payload).ok().map(Named::new))
            .as_ref()
    }

    /// The decoded Data packet — decoded by the first receiver that needs
    /// it — with its classification and proofs; `None` when the frame does
    /// not decode.
    pub(super) fn decoded(
        &mut self,
        payload: &Payload,
    ) -> Option<(&Data, Option<&DapesName>, &mut Proofs)> {
        let Received {
            named,
            data,
            proofs,
            ..
        } = self;
        let data = data
            .get_or_insert_with(|| Data::decode_payload(payload).ok())
            .as_ref()?;
        let class = named
            .get_or_insert_with(|| Some(Named::new(data.name().clone())))
            .as_ref()
            .and_then(|n| n.class.as_ref());
        Some((data, class, proofs))
    }
}

/// Verdicts of one packet, each worked out on first use. A
/// frame's proofs live in its [`Received`]; a packet that is not the frame
/// being received (a Content Store hit) gets fresh ones of its own.
#[derive(Default)]
pub(super) struct Proofs {
    /// The signature verdict, under the anchor with this fingerprint.
    verdict: Option<(Digest, bool)>,
    /// The sealed announcement's key id and timestamp (`None`: rejected),
    /// under the anchor with this fingerprint.
    opened: Option<(Digest, Option<(KeyId, u64)>)>,
}

impl Proofs {
    /// Whether `data`'s signature verifies against `anchor`.
    pub(super) fn verdict(&mut self, data: &Data, anchor: &TrustAnchor) -> bool {
        under_anchor(&mut self.verdict, anchor, || data.verify(anchor))
    }

    /// Opens a sealed announcement under `anchor`: the claimed producer is
    /// the peer id leading the base payload (both the bitmap and the
    /// discovery encodings start with it), so a forged producer fails the
    /// signature. Returns the producer's key id and the sealed timestamp,
    /// or `None` for an announcement with no room for an envelope or a bad
    /// signature.
    pub(super) fn opened(&mut self, sealed: &[u8], anchor: &TrustAnchor) -> Option<(KeyId, u64)> {
        under_anchor(&mut self.opened, anchor, || {
            let base = auth::strip(sealed).filter(|base| base.len() >= 4)?;
            let claimed = u32::from_be_bytes(base[..4].try_into().expect("4 bytes"));
            let key_id = anchor.key_id_for(&format!("peer-{claimed}"));
            let (_, ts) = auth::open(sealed, key_id, anchor).ok()?;
            Some((key_id, ts))
        })
    }
}

/// The value in `slot` when it was worked out under `anchor`; otherwise
/// `compute`'s, which fills an empty slot. A slot another anchor filled is
/// left alone: this receiver's verdict is its own.
fn under_anchor<T: Copy>(
    slot: &mut Option<(Digest, T)>,
    anchor: &TrustAnchor,
    compute: impl FnOnce() -> T,
) -> T {
    let fingerprint = anchor.fingerprint();
    match *slot {
        Some((held, value)) if held == fingerprint => value,
        Some(_) => compute(),
        None => slot.insert((fingerprint, compute())).1,
    }
}
