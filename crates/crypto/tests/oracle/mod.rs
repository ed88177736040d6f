//! SHA-256 and HMAC built from their definitions on top of one named
//! compression kernel — the oracle side of the kernel differential tests
//! (`crates/crypto/tests/kernels.rs` and the workspace's
//! `tests/properties.rs`, which includes this file by path).
//!
//! Nothing selects a kernel at run time, so the tests call
//! `compress_blocks_portable` and `compress_blocks_hardware` directly.

use dapes_crypto::sha256::{compress_blocks_hardware, compress_blocks_portable, kernel};
use dapes_crypto::Digest;

pub type Kernel = fn(&mut [u32; 8], &[u8]);

pub const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

fn hardware(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(
        compress_blocks_hardware(state, blocks),
        "no hardware kernel"
    );
}

/// Every kernel this host can run: the portable one always, the hardware
/// one when the CPU has it (a printed note says when it does not).
pub fn kernels() -> Vec<(&'static str, Kernel)> {
    let mut kernels = vec![("portable", compress_blocks_portable as Kernel)];
    if kernel() == "portable" {
        println!("note: this CPU has no SHA extensions; hardware kernel not exercised");
    } else {
        kernels.push((kernel(), hardware));
    }
    kernels
}

/// SHA-256 of `msg` per FIPS 180-4 §5.1.1 over one kernel: pad, compress
/// the whole run, serialise the state.
pub fn digest_via(kernel: Kernel, msg: &[u8]) -> Digest {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    padded.resize((msg.len() + 9).next_multiple_of(64) - 8, 0);
    padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    kernel(&mut state, &padded);
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest::from_bytes(out)
}

/// HMAC-SHA256 per RFC 2104 over one kernel, by the definition
/// `H(K ^ opad || H(K ^ ipad || msg))`.
pub fn hmac_via(kernel: Kernel, key: &[u8], msg: &[u8]) -> Digest {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(digest_via(kernel, key).as_bytes());
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let inner = digest_via(kernel, &[&block.map(|b| b ^ 0x36)[..], msg].concat());
    digest_via(
        kernel,
        &[&block.map(|b| b ^ 0x5c)[..], inner.as_bytes()].concat(),
    )
}
