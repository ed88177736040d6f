//! Wire payloads for bitmap advertisements.
//!
//! A bitmap Interest carries the *sender's* bitmap in its
//! ApplicationParameters (paper §IV-D: "each such Interest carries the
//! sender's bitmap"); a bitmap Data carries the *replier's* bitmap in its
//! Content. Both use the same `peer id || bitmap` encoding.

use crate::bitmap::Bitmap;

/// Encodes `peer || bitmap` for Interest parameters or Data content.
pub fn encode_bitmap_params(peer: u32, bitmap: &Bitmap) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + Bitmap::wire_size(bitmap.len()));
    out.extend_from_slice(&peer.to_be_bytes());
    out.extend_from_slice(&bitmap.to_wire());
    out
}

/// Decodes a payload produced by [`encode_bitmap_params`]. Length-strict:
/// trailing bytes (such as an unstripped [`crate::auth`] envelope) are
/// rejected, so the sealed and plain forms never alias.
pub fn decode_bitmap_params(wire: &[u8]) -> Option<(u32, Bitmap)> {
    if wire.len() < 4 {
        return None;
    }
    let peer = u32::from_be_bytes(wire[..4].try_into().ok()?);
    let bitmap = Bitmap::from_wire(&wire[4..])?;
    if wire.len() != 4 + Bitmap::wire_size(bitmap.len()) {
        return None;
    }
    Some((peer, bitmap))
}

/// Decodes a bitmap payload that may carry the signed-advert envelope
/// ([`crate::auth`]): tries the plain encoding first, then once more with
/// the envelope trailer stripped — *without verifying it*.
///
/// This is for forwarding-plane peeks (the multi-hop bitmap decision,
/// opportunistic overhearing sites behind the authenticated screen) that
/// only need the advertised bits and must read a sealed advert from a
/// peer and a plain one (an attacker's frame, say) alike. Consumers that
/// admit the advert into protocol state authenticate via
/// [`crate::auth::open`] first.
pub fn decode_bitmap_params_maybe_sealed(wire: &[u8]) -> Option<(u32, Bitmap)> {
    decode_bitmap_params(wire).or_else(|| crate::auth::strip(wire).and_then(decode_bitmap_params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut b = Bitmap::new(100);
        b.set(1);
        b.set(99);
        let wire = encode_bitmap_params(77, &b);
        let (peer, back) = decode_bitmap_params(&wire).expect("round trip");
        assert_eq!(peer, 77);
        assert_eq!(back, b);
    }

    #[test]
    fn rejects_truncation() {
        let wire = encode_bitmap_params(1, &Bitmap::new(64));
        assert!(decode_bitmap_params(&wire[..3]).is_none());
        assert!(decode_bitmap_params(&wire[..wire.len() - 1]).is_none());
        assert!(decode_bitmap_params(&[]).is_none());
    }

    #[test]
    fn maybe_sealed_accepts_both_forms() {
        use dapes_crypto::signing::TrustAnchor;
        let mut b = Bitmap::new(64);
        b.set(5);
        let plain = encode_bitmap_params(3, &b);
        assert_eq!(
            decode_bitmap_params_maybe_sealed(&plain),
            Some((3, b.clone()))
        );
        let anchor = TrustAnchor::from_seed(b"advert-payload-tests");
        let sealed = crate::auth::seal(&plain, 42, &anchor.keypair("peer-3"));
        assert!(decode_bitmap_params(&sealed).is_none(), "trailer rejected");
        assert_eq!(decode_bitmap_params_maybe_sealed(&sealed), Some((3, b)));
    }

    #[test]
    fn size_matches_paper_example() {
        // 10240-packet collection: 4 (peer) + 4 (len) + 1280 (bits).
        let wire = encode_bitmap_params(1, &Bitmap::new(10_240));
        assert_eq!(wire.len(), 1288);
    }
}
