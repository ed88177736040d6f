//! Cryptographic primitives for the DAPES reproduction.
//!
//! The DAPES paper relies on NDN's cryptographic machinery: every Data packet
//! is signed at production time, collection metadata is signed by the
//! collection producer, and packet integrity is verified either through
//! per-packet digests or Merkle trees (paper §IV-C). This crate provides the
//! equivalents from scratch:
//!
//! * [`sha256`] — a FIPS 180-4 SHA-256 implementation, with a SHA-NI
//!   kernel the CPU selects at run time,
//! * [`hmac`] — HMAC-SHA256 (RFC 2104),
//! * [`merkle`] — Merkle trees with inclusion proofs (paper's Merkle-tree
//!   metadata format),
//! * [`signing`] — a [`Signer`]/[`Verifier`] abstraction. The default scheme
//!   is an HMAC under a shared *local trust anchor* key, matching the paper's
//!   assumption (§III) that peers share common local trust anchors. See
//!   `DESIGN.md` for why this substitution preserves protocol behaviour.
//!
//! # Lint level
//!
//! This is the one crate of the workspace that denies `unsafe_code` rather
//! than forbidding it: [`sha256`] calls a hardware compression kernel when
//! the CPU has one, and calling a `#[target_feature]` function is only
//! sound under the run-time detection that guards it. That guarded call
//! carries the crate's single `#[allow(unsafe_code)]` and a `SAFETY`
//! comment; nothing else in the crate — the kernel's body included — may
//! need one. `DESIGN.md` records the rule and CI's `lint` job enforces it.
//!
//! # Examples
//!
//! ```
//! use dapes_crypto::{sha256::sha256, signing::{Signer, TrustAnchor}};
//!
//! let digest = sha256(b"bridge-picture");
//! assert_eq!(digest.as_bytes().len(), 32);
//!
//! let anchor = TrustAnchor::from_seed(b"rural-area-anchor");
//! let producer = anchor.keypair("resident-a");
//! let sig = producer.sign(b"metadata bytes");
//! assert!(anchor.verify("resident-a", b"metadata bytes", &sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod signing;

pub use digest::Digest;
pub use merkle::MerkleTree;
pub use signing::{Signature, Signer, TrustAnchor, Verifier};
