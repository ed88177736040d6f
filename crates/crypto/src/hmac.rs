//! HMAC-SHA256 (RFC 2104), the MAC behind the trust-anchor signature scheme.

use crate::digest::Digest;
use crate::sha256::{sha256, Sha256};
use std::fmt;

const BLOCK: usize = 64;

/// An HMAC-SHA256 key reduced to its two pad midstates: the SHA-256
/// chaining values after `key ^ ipad` and `key ^ opad`.
///
/// Deriving them costs two compressions (plus the key hash, for long
/// keys); every MAC started from an `HmacKey` skips that work, and at 64
/// bytes the key is cheap to cache.
///
/// # Examples
///
/// ```
/// use dapes_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"Jefe");
/// let mut mac = key.begin();
/// mac.update(b"what do ya want ");
/// mac.update(b"for nothing?");
/// assert_eq!(
///     mac.finalize(),
///     hmac_sha256(b"Jefe", b"what do ya want for nothing?")
/// );
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Keys the MAC. Keys longer than the 64-byte block are first hashed,
    /// per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad_midstate = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h.midstate()
        };
        HmacKey {
            inner: pad_midstate(0x36),
            outer: pad_midstate(0x5c),
        }
    }

    /// Starts a MAC over a new message.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume(self.inner, BLOCK as u64),
            outer: self.outer,
        }
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The midstates are key material: never print them.
        write!(f, "HmacKey(..)")
    }
}

/// An HMAC-SHA256 computation in progress, started by [`HmacKey::begin`]:
/// the message is absorbed part by part, in order.
pub struct HmacSha256 {
    inner: Sha256,
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Absorbs the next part of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the MAC and returns the tag.
    pub fn finalize(self) -> Digest {
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(self.inner.finalize().as_bytes());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block are first hashed, per RFC 2104.
///
/// # Examples
///
/// ```
/// use dapes_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     tag.to_string(),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacKey::new(key).begin();
    mac.update(message);
    mac.finalize()
}

/// Constant-time equality of two digests.
///
/// The simulator is not attacker-facing, but verification code should still
/// model the real discipline: compare the whole tag regardless of where the
/// first mismatch occurs.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(actual.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_string(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_string(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_string(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let tag = hmac_sha256(&key, &[0xcdu8; 50]);
        assert_eq!(
            tag.to_string(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_5_truncated_to_128_bits() {
        let tag = hmac_sha256(&[0x0cu8; 20], b"Test With Truncation");
        assert_eq!(&tag.to_string()[..32], "a3b6167473100ee06e0c796c2955552b");
    }

    #[test]
    fn rfc4231_case_7_long_key_and_long_data() {
        let tag = hmac_sha256(
            &[0xaau8; 131],
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            tag.to_string(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn key_is_reusable_and_incremental_matches_oneshot() {
        let key = HmacKey::new(b"key");
        let message: Vec<u8> = (0u32..300).map(|i| (i * 7 % 256) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut mac = key.begin();
            mac.update(&message[..split]);
            mac.update(&message[split..]);
            assert_eq!(
                mac.finalize(),
                hmac_sha256(b"key", &message),
                "split at {split}"
            );
        }
        assert_eq!(format!("{key:?}"), "HmacKey(..)", "midstates hidden");
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_string(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_differ() {
        let a = hmac_sha256(b"key-a", b"msg");
        let b = hmac_sha256(b"key-b", b"msg");
        assert_ne!(a, b);
    }

    #[test]
    fn different_messages_differ() {
        let a = hmac_sha256(b"key", b"msg-a");
        let b = hmac_sha256(b"key", b"msg-b");
        assert_ne!(a, b);
    }

    #[test]
    fn verify_tag_detects_single_bit_flip() {
        let tag = hmac_sha256(b"key", b"msg");
        assert!(verify_tag(&tag, &tag));
        let mut bytes = tag.into_bytes();
        bytes[31] ^= 1;
        assert!(!verify_tag(&tag, &Digest::from_bytes(bytes)));
        let mut bytes2 = tag.into_bytes();
        bytes2[0] ^= 0x80;
        assert!(!verify_tag(&tag, &Digest::from_bytes(bytes2)));
    }

    #[test]
    fn verify_tag_rejects_every_single_bit_flip() {
        // Exhaustive: all 256 single-bit corruptions of the 32-byte tag
        // must fail verification. A MAC with any blind spot here would let
        // a tampered segment through the adversarial screens.
        let tag = hmac_sha256(b"key", b"the segment body under test");
        for byte in 0..32 {
            for bit in 0..8 {
                let mut bytes = tag.into_bytes();
                bytes[byte] ^= 1 << bit;
                assert!(
                    !verify_tag(&tag, &Digest::from_bytes(bytes)),
                    "flip of byte {byte} bit {bit} was accepted"
                );
            }
        }
    }

    #[test]
    fn exactly_block_sized_key_is_used_verbatim() {
        // A 64-byte key must not be hashed; 65 bytes must be.
        let key64 = [0x11u8; 64];
        let key65 = [0x11u8; 65];
        assert_ne!(hmac_sha256(&key64, b"m"), hmac_sha256(&key65, b"m"));
    }
}
