//! Signing under shared local trust anchors.
//!
//! The paper assumes (§III) that peers "have common 'local' trust anchors
//! established" and use them to decide whether the collection producer is
//! trusted. We model the anchor as a shared secret from which per-producer
//! keys are derived; signatures are HMAC-SHA256 tags under the producer key.
//! Any peer holding the anchor can verify any producer's signature — exactly
//! the verification capability the protocol requires — without big-integer
//! public-key arithmetic the protocol never observes. The substitution is
//! recorded in `DESIGN.md`.
//!
//! Key derivation is two-step: `producer name → key id → signing key`. Only
//! the key id travels on the wire, and verification needs nothing but the
//! anchor and the key id, mirroring how NDN verifiers locate a key by its
//! KeyLocator. All signing flows through the [`Signer`]/[`Verifier`] traits,
//! so a real asymmetric scheme can be dropped in without touching protocol
//! code.
//!
//! # The advert-signing flow
//!
//! The authenticated control plane (`dapes-core`'s `auth` module) builds on
//! these primitives. A producer's discovery reply or bitmap advertisement
//! is *sealed*: the plaintext advert is suffixed with a monotonic
//! microsecond timestamp and then signed with the producer's
//! [`ProducerKey`] — `sealed = advert ‖ timestamp ‖ Signature`. A receiver
//! derives the claimed producer's key id from the peer id carried inside
//! the advert ([`TrustAnchor::key_id_for`]), recomputes the tag over
//! `advert ‖ timestamp`, and compares in constant time. Only then does the
//! timestamp feed the per-producer replay guard: a stamp at or below the
//! producer's high-water mark — or older than the replay window — is
//! rejected as a replay even though its signature is genuine.
//!
//! # Caveat: a shared anchor is a shared secret
//!
//! Because the anchor is symmetric, *any* holder of the anchor can mint a
//! valid signature for *any* producer name — the scheme authenticates
//! "someone inside the trust domain", not a specific peer. That matches
//! the paper's threat model (the attacker is outside the common local
//! trust anchor), and the adversarial suite's forger accordingly signs
//! under a *rogue* anchor and is rejected. An insider attacker would
//! require the asymmetric drop-in replacement behind [`Signer`] /
//! [`Verifier`]; nothing in the protocol code would change.

use crate::digest::Digest;
use crate::hmac::{verify_tag, HmacKey};
use crate::sha256::sha256;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// Domain tag of [`TrustAnchor::fingerprint`], so the fingerprint is never
/// an input or output of any other derivation from the anchor secret.
const FINGERPRINT_DOMAIN: &[u8] = b"dapes-anchor-fingerprint";

/// A detached signature: the signing key's identifier plus the tag bytes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Identifies the producer key that made this signature.
    pub key_id: KeyId,
    /// The 32-byte tag.
    pub tag: Digest,
}

impl Signature {
    /// Size on the wire: key id + tag.
    pub const WIRE_SIZE: usize = 8 + 32;

    /// Serializes to bytes for embedding in a packet's SignatureValue.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        out.extend_from_slice(&self.key_id.0.to_be_bytes());
        out.extend_from_slice(self.tag.as_bytes());
        out
    }

    /// Parses a signature serialized by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::WIRE_SIZE {
            return None;
        }
        let key_id = KeyId(u64::from_be_bytes(bytes[..8].try_into().ok()?));
        let tag = Digest::from_slice(&bytes[8..])?;
        Some(Signature { key_id, tag })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(key={:x}, tag={})",
            self.key_id.0,
            self.tag.short_hex()
        )
    }
}

/// Compact identifier of a producer key, carried on the wire in place of a
/// full NDN KeyLocator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub u64);

impl fmt::Debug for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyId({:016x})", self.0)
    }
}

/// A message handed to a [`Signer`] or [`Verifier`] as a stream of parts:
/// a callback that pushes the message's bytes, in order, into the sink it
/// is given. Lets a packet feed its name, headers and payload view into
/// the MAC without first concatenating them.
pub type MessageParts<'a> = &'a mut dyn FnMut(&mut dyn FnMut(&[u8]));

/// Anything that can produce signatures over byte strings.
pub trait Signer {
    /// Signs `message`, returning a detached signature.
    fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&mut |sink| sink(message))
    }
    /// Signs the concatenation of the parts `message` emits.
    fn sign_parts(&self, message: MessageParts<'_>) -> Signature;
    /// The key identifier that will appear in produced signatures.
    fn key_id(&self) -> KeyId;
}

/// Anything that can check signatures over byte strings.
pub trait Verifier {
    /// Returns `true` when `signature` is a valid signature of `message`.
    fn verify_signature(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_parts(&mut |sink| sink(message), signature)
    }
    /// Returns `true` when `signature` is a valid signature of the
    /// concatenation of the parts `message` emits.
    fn verify_parts(&self, message: MessageParts<'_>, signature: &Signature) -> bool;
}

/// Streams `message` into a MAC under `key` and returns the tag.
fn mac_parts(key: &HmacKey, message: MessageParts<'_>) -> Digest {
    let mut mac = key.begin();
    message(&mut |part| mac.update(part));
    mac.finalize()
}

/// Entries each [`KeyCache`] map may hold. A deployment has one key per
/// peer and per collection producer, so an honest swarm of a few dozen
/// nodes fits; names and key ids minted by an attacker cannot grow it.
const KEY_CACHE_CAPACITY: usize = 64;

/// Memoized key derivations of one [`TrustAnchor`].
///
/// Both maps are pure functions of the anchor secret, so the cache can
/// never change a verdict — only skip the derivation HMACs. A full map is
/// cleared before the next insert: deterministic, and an attacker spraying
/// fresh names or key ids costs at most the derivation each of those
/// lookups needed anyway plus one re-derivation per honest key per
/// `KEY_CACHE_CAPACITY` misses.
#[derive(Clone, Default)]
struct KeyCache {
    key_ids: BTreeMap<String, KeyId>,
    signing: BTreeMap<KeyId, HmacKey>,
}

/// Inserts into a bounded cache map, clearing it first when full.
fn insert_bounded<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, value: V) {
    if map.len() >= KEY_CACHE_CAPACITY {
        map.clear();
    }
    map.insert(key, value);
}

/// A shared local trust anchor from which per-producer keys derive.
///
/// Derived keys are cached per anchor value (see [`TrustAnchor::key_id_for`]);
/// the cache sits behind a `RefCell`, so an anchor is `Send` but not `Sync`
/// — every peer owns its clone.
///
/// # Examples
///
/// ```
/// use dapes_crypto::signing::{Signer, TrustAnchor, Verifier};
///
/// let anchor = TrustAnchor::from_seed(b"rural-area");
/// let producer = anchor.keypair("resident-a");
/// let sig = producer.sign(b"collection metadata");
/// assert!(anchor.verify("resident-a", b"collection metadata", &sig));
/// assert!(anchor.verify_signature(b"collection metadata", &sig));
/// assert!(!anchor.verify_signature(b"tampered", &sig));
/// ```
#[derive(Clone)]
pub struct TrustAnchor {
    /// The anchor secret as an HMAC key: the root of both derivations.
    root: HmacKey,
    /// A domain-separated hash of the anchor secret (see
    /// [`TrustAnchor::fingerprint`]).
    fingerprint: Digest,
    cache: RefCell<KeyCache>,
}

impl fmt::Debug for TrustAnchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "TrustAnchor(..)")
    }
}

impl TrustAnchor {
    /// Derives an anchor from an arbitrary seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = sha256(seed);
        let mut tagged = FINGERPRINT_DOMAIN.to_vec();
        tagged.extend_from_slice(secret.as_bytes());
        TrustAnchor {
            root: HmacKey::new(secret.as_bytes()),
            fingerprint: sha256(&tagged),
            cache: RefCell::default(),
        }
    }

    /// Identifies the anchor without revealing it: a domain-separated
    /// SHA-256 of the anchor secret, computed once at construction. Two
    /// anchors with equal fingerprints hold the same secret, so every
    /// verification outcome under one is the outcome under the other —
    /// what lets a verdict worked out once be reused by any holder of the
    /// same anchor.
    pub fn fingerprint(&self) -> Digest {
        self.fingerprint
    }

    /// The key id a given producer name maps to.
    ///
    /// Derived once per name and then served from the anchor's bounded
    /// key cache.
    pub fn key_id_for(&self, producer_name: &str) -> KeyId {
        if let Some(&key_id) = self.cache.borrow().key_ids.get(producer_name) {
            return key_id;
        }
        let name_key = mac_parts(&self.root, &mut |sink| sink(producer_name.as_bytes()));
        let d = sha256(name_key.as_bytes());
        let key_id = KeyId(u64::from_be_bytes(
            d.as_bytes()[..8].try_into().expect("8 bytes"),
        ));
        insert_bounded(
            &mut self.cache.borrow_mut().key_ids,
            producer_name.to_owned(),
            key_id,
        );
        key_id
    }

    /// The signing key bound to a key id — derived once per key id and then
    /// copied out of the anchor's bounded key cache.
    fn signing_key(&self, key_id: KeyId) -> HmacKey {
        if let Some(key) = self.cache.borrow().signing.get(&key_id) {
            return key.clone();
        }
        let secret = mac_parts(&self.root, &mut |sink| sink(&key_id.0.to_be_bytes()));
        let key = HmacKey::new(secret.as_bytes());
        insert_bounded(&mut self.cache.borrow_mut().signing, key_id, key.clone());
        key
    }

    /// Creates the signing half for a named producer.
    pub fn keypair(&self, producer_name: &str) -> ProducerKey {
        let key_id = self.key_id_for(producer_name);
        ProducerKey {
            key: self.signing_key(key_id),
            key_id,
            name: producer_name.to_owned(),
        }
    }

    /// Verifies a signature claimed to be from `producer_name`.
    ///
    /// This checks both that the signature's key id is the one derived from
    /// `producer_name` (producer authentication) and that the tag verifies
    /// (integrity).
    pub fn verify(&self, producer_name: &str, message: &[u8], signature: &Signature) -> bool {
        self.key_id_for(producer_name) == signature.key_id
            && self.verify_signature(message, signature)
    }
}

impl Verifier for TrustAnchor {
    /// Verifies a signature using only the key id it carries.
    fn verify_parts(&self, message: MessageParts<'_>, signature: &Signature) -> bool {
        let tag = mac_parts(&self.signing_key(signature.key_id), message);
        verify_tag(&tag, &signature.tag)
    }
}

/// The signing half handed to a collection producer.
#[derive(Clone)]
pub struct ProducerKey {
    key: HmacKey,
    key_id: KeyId,
    name: String,
}

impl fmt::Debug for ProducerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProducerKey({}, {:?})", self.name, self.key_id)
    }
}

impl ProducerKey {
    /// The producer's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Signer for ProducerKey {
    fn sign_parts(&self, message: MessageParts<'_>) -> Signature {
        Signature {
            key_id: self.key_id,
            tag: mac_parts(&self.key, message),
        }
    }

    fn key_id(&self) -> KeyId {
        self.key_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tells_anchors_apart_and_is_not_the_secret() {
        let a = TrustAnchor::from_seed(b"seed");
        assert_eq!(
            a.fingerprint(),
            TrustAnchor::from_seed(b"seed").fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            TrustAnchor::from_seed(b"rogue").fingerprint()
        );
        assert_ne!(a.fingerprint(), sha256(b"seed"), "never the secret itself");
    }

    #[test]
    fn producer_signature_verifies_with_name() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let key = anchor.keypair("alice");
        let sig = key.sign(b"hello");
        assert!(anchor.verify("alice", b"hello", &sig));
    }

    #[test]
    fn name_free_verification_succeeds() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let sig = anchor.keypair("alice").sign(b"metadata");
        assert!(anchor.verify_signature(b"metadata", &sig));
        assert!(!anchor.verify_signature(b"other", &sig));
    }

    #[test]
    fn wrong_name_or_message_fails() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let key = anchor.keypair("alice");
        let sig = key.sign(b"hello");
        assert!(!anchor.verify("bob", b"hello", &sig));
        assert!(!anchor.verify("alice", b"hellO", &sig));
    }

    #[test]
    fn different_anchors_do_not_cross_verify() {
        let a1 = TrustAnchor::from_seed(b"one");
        let a2 = TrustAnchor::from_seed(b"two");
        let sig = a1.keypair("alice").sign(b"m");
        assert!(!a2.verify("alice", b"m", &sig));
        assert!(!a2.verify_signature(b"m", &sig));
    }

    #[test]
    fn distinct_producers_have_distinct_key_ids() {
        let anchor = TrustAnchor::from_seed(b"seed");
        assert_ne!(anchor.key_id_for("alice"), anchor.key_id_for("bob"));
        assert_eq!(anchor.keypair("alice").key_id(), anchor.key_id_for("alice"));
    }

    #[test]
    fn tampered_key_id_fails() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let mut sig = anchor.keypair("alice").sign(b"m");
        sig.key_id = KeyId(sig.key_id.0 ^ 1);
        assert!(!anchor.verify_signature(b"m", &sig));
        assert!(!anchor.verify("alice", b"m", &sig));
    }

    #[test]
    fn tampered_tag_fails() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let mut sig = anchor.keypair("alice").sign(b"m");
        let mut bytes = sig.tag.into_bytes();
        bytes[0] ^= 1;
        sig.tag = Digest::from_bytes(bytes);
        assert!(!anchor.verify("alice", b"m", &sig));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let sig = anchor.keypair("p").sign(b"x");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), Signature::WIRE_SIZE);
        assert_eq!(Signature::from_bytes(&bytes), Some(sig));
        assert!(Signature::from_bytes(&bytes[..39]).is_none());
        assert!(Signature::from_bytes(&[]).is_none());
    }

    #[test]
    fn streamed_parts_sign_and_verify_like_the_concatenation() {
        let anchor = TrustAnchor::from_seed(b"seed");
        let key = anchor.keypair("alice");
        let parts: [&[u8]; 4] = [b"name", b"", b"meta-info", b"content"];
        let whole = parts.concat();
        let sig = key.sign_parts(&mut |sink| parts.iter().for_each(|p| sink(p)));
        assert_eq!(sig, key.sign(&whole));
        assert!(anchor.verify_parts(&mut |sink| parts.iter().for_each(|p| sink(p)), &sig));
        assert!(anchor.verify_signature(&whole, &sig));
        assert!(!anchor.verify_parts(&mut |sink| sink(b"namemeta-info"), &sig));
    }

    #[test]
    fn key_cache_is_bounded_and_never_changes_a_verdict() {
        let cached = TrustAnchor::from_seed(b"seed");
        // Far more producers than the cache holds, visited twice so both
        // cold and warm (and post-clear) lookups are exercised.
        for round in 0..2 {
            for i in 0..3 * KEY_CACHE_CAPACITY {
                let name = format!("peer-{i}");
                let cold = TrustAnchor::from_seed(b"seed");
                assert_eq!(cached.key_id_for(&name), cold.key_id_for(&name));
                let sig = cold.keypair(&name).sign(b"advert");
                assert_eq!(cached.keypair(&name).sign(b"advert"), sig);
                assert!(cached.verify(&name, b"advert", &sig), "round {round}");
                assert!(!cached.verify(&name, b"tampered", &sig));
                let cache = cached.cache.borrow();
                assert!(cache.key_ids.len() <= KEY_CACHE_CAPACITY);
                assert!(cache.signing.len() <= KEY_CACHE_CAPACITY);
            }
        }
        // Forged key ids are derived (and rejected) like any other.
        let forged = Signature {
            key_id: KeyId(0xdead_beef),
            tag: Digest::ZERO,
        };
        assert!(!cached.verify_signature(b"advert", &forged));
    }

    #[test]
    fn anchor_stays_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TrustAnchor>();
        assert_send::<ProducerKey>();
    }

    #[test]
    fn debug_never_prints_secret() {
        let anchor = TrustAnchor::from_seed(b"super-secret");
        let dbg = format!("{anchor:?}");
        assert!(!dbg.contains("super"));
    }
}
