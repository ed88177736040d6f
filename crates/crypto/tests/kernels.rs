//! Differential tests of the two SHA-256 compression kernels.
//!
//! Each kernel is called directly, with padding and HMAC built on top
//! from their definitions (see `oracle`). The portable half runs on every
//! host; the hardware half is skipped, with a note, on a CPU without one.

mod oracle;

use dapes_crypto::hmac::hmac_sha256;
use dapes_crypto::sha256::{compress_blocks_portable, sha256};
use oracle::{digest_via, hmac_via, kernels, H0};

#[test]
fn fips_vectors_through_each_kernel() {
    let million_a = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for (name, kernel) in kernels() {
        for (msg, expect) in vectors {
            let digest = digest_via(kernel, msg).to_string();
            assert_eq!(digest, expect, "{name}, {} bytes", msg.len());
        }
    }
}

#[test]
fn padding_boundaries_through_each_kernel() {
    // 'a' × len on both sides of the one- and two-block padding spill.
    let vectors = [
        (
            55,
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        ),
        (
            56,
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        ),
        (
            63,
            "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
        ),
        (
            64,
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        ),
        (
            119,
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
        ),
        (
            120,
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
        ),
    ];
    for (name, kernel) in kernels() {
        for (len, expect) in vectors {
            let msg = vec![b'a'; len];
            let digest = digest_via(kernel, &msg);
            assert_eq!(digest.to_string(), expect, "{name}, {len} bytes");
            // And the streaming hasher agrees with the direct call.
            assert_eq!(sha256(&msg), digest, "{name}, {len} bytes");
        }
    }
}

#[test]
fn rfc4231_cases_through_each_kernel() {
    let long_key = [0xaau8; 131];
    let cases: [(&[u8], &[u8], &str); 6] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &[
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
                24, 25,
            ],
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            &long_key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            &long_key,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (name, kernel) in kernels() {
        for (i, (key, msg, expect)) in cases.into_iter().enumerate() {
            let tag = hmac_via(kernel, key, msg);
            assert_eq!(tag.to_string(), expect, "{name}, case #{i}");
            assert_eq!(hmac_sha256(key, msg), tag, "{name}, case #{i}");
        }
    }
}

#[test]
fn a_run_of_blocks_equals_single_block_calls_and_matches_across_kernels() {
    let data: Vec<u8> = (0u32..64 * 9).map(|i| (i * 31 % 251) as u8).collect();
    for blocks in 0..=9 {
        let run = &data[..64 * blocks];
        let mut expect = H0;
        for block in run.chunks_exact(64) {
            compress_blocks_portable(&mut expect, block);
        }
        for (name, kernel) in kernels() {
            let mut state = H0;
            kernel(&mut state, run);
            assert_eq!(state, expect, "{name}, run of {blocks}");
        }
    }
}

#[test]
#[should_panic(expected = "partial block")]
fn a_partial_block_is_refused() {
    compress_blocks_portable(&mut H0.clone(), &[0u8; 65]);
}
