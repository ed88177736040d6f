//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! DAPES uses digests pervasively: per-packet digests in the packet-digest
//! metadata format, Merkle node hashes in the tree format, and the implicit
//! digest in NDN Data packets. Padding and buffering live in [`Sha256`];
//! the 64-round compression function underneath has two kernels, and the
//! CPU — nothing else — decides which one runs (see [`kernel`]):
//!
//! * [`compress_blocks_portable`], plain FIPS 180-4 code for every target;
//! * on `x86_64`, a kernel built from the SHA extensions' `sha256rnds2` /
//!   `sha256msg1` / `sha256msg2` instructions, used whenever the running
//!   CPU reports them ([`compress_blocks_hardware`]).
//!
//! Both produce the same digests bit for bit; the portable kernel is the
//! oracle the hardware kernel is tested against, and both are validated
//! against the FIPS/NIST test vectors in the unit tests.

use crate::digest::Digest;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use dapes_crypto::sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// The chaining value after the whole blocks absorbed so far — with
    /// [`Sha256::resume`], how HMAC keeps its pad blocks pre-compressed.
    ///
    /// # Panics
    ///
    /// Panics if a partial block is buffered.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        assert_eq!(self.buf_len, 0, "midstate taken mid-block");
        self.state
    }

    /// A hasher that has already absorbed `absorbed` bytes (a whole number
    /// of blocks) ending in chaining value `state`.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0);
        Sha256 {
            state,
            len: absorbed,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Full blocks are compressed where they lie, as one run; only the
        // tail is copied.
        let (blocks, tail) = rest.split_at(rest.len() & !63);
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros to 56 mod 64, 8-byte big-endian bit length —
        // written straight into the block buffer, spilling into a second
        // block when fewer than 9 bytes are free.
        let bit_len = self.len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress_blocks(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }
}

/// Which compression kernel this process hashes with: `"sha-ni"` when the
/// CPU has the x86 SHA extensions, `"portable"` everywhere else. The CPU
/// alone decides — there is no option to set — and the digests are the
/// same either way, so this exists for reports and logs.
pub fn kernel() -> &'static str {
    if sha_ni::detected() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// Folds a run of whole 64-byte blocks into `state`, picking the kernel
/// once for the run.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    if !blocks.is_empty() && !compress_blocks_hardware(state, blocks) {
        compress_blocks_portable(state, blocks);
    }
}

/// The hardware kernel, if the running CPU has one: folds `blocks` into
/// `state` and returns `true`, or returns `false` with `state` untouched.
///
/// [`Sha256`] goes through this on every call; it is public so tests can
/// hold the hardware kernel to [`compress_blocks_portable`] directly.
///
/// # Panics
///
/// Panics if `blocks` is not a whole number of 64-byte blocks.
pub fn compress_blocks_hardware(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    assert_eq!(blocks.len() % 64, 0, "partial block");
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `detected()` just confirmed at run time that this CPU has
        // every feature `sha_ni::compress_blocks` is compiled for (sha,
        // sse2, ssse3, sse4.1), which is the call's only requirement; the
        // function itself is safe code over the two borrows it is handed.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress_blocks(state, blocks)
        };
        return true;
    }
    let _ = state; // written by the hardware kernel only
    false
}

/// The x86 SHA-extensions kernel.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether the running CPU has every feature [`compress_blocks`] uses
    /// (std caches the CPUID probe; this is a load and a mask).
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Sixteen bytes as one little-endian vector.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8]) -> __m128i {
        let half = |i: usize| i64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }

    /// Four state or round-constant words as one vector, first word lowest.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn words(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Four rounds: `sha256rnds2` does two on the state split as ABEF /
    /// CDGH, taking its two `W + K` words from the low half of its third
    /// operand — so add the constants, two rounds, bring the high half
    /// down, two more.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32]) {
        let wk = _mm_add_epi32(w, words(k));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four schedule words from the last sixteen (`w0` oldest):
    /// `W[t] = s0(W[t-15]) + W[t-16] + W[t-7] + s1(W[t-2])` for four `t` at
    /// once — `sha256msg1` adds s0, `alignr` picks `W[t-7]`, `sha256msg2`
    /// adds s1.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(partial, w3)
    }

    /// Folds a run of whole blocks into `state`, which stays in two
    /// registers for the length of the run.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order within each 32-bit lane reversed: the block is
        // big-endian words.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        let abcd = words(&state[..4]);
        let efgh = words(&state[4..]);
        let cdab = _mm_shuffle_epi32(abcd, 0xB1);
        let efgh = _mm_shuffle_epi32(efgh, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = _mm_shuffle_epi8(load(&block[..16]), be_words);
            let mut w1 = _mm_shuffle_epi8(load(&block[16..32]), be_words);
            let mut w2 = _mm_shuffle_epi8(load(&block[32..48]), be_words);
            let mut w3 = _mm_shuffle_epi8(load(&block[48..]), be_words);
            rounds4(&mut abef, &mut cdgh, w0, &K[..4]);
            rounds4(&mut abef, &mut cdgh, w1, &K[4..8]);
            rounds4(&mut abef, &mut cdgh, w2, &K[8..12]);
            rounds4(&mut abef, &mut cdgh, w3, &K[12..16]);
            // Three more passes of sixteen rounds, the four-vector window
            // rolling forward in place like the portable kernel's.
            for k in K[16..].chunks_exact(16) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, &k[..4]);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, &k[4..8]);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, &k[8..12]);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, &k[12..]);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgfe, 0) as u32,
            _mm_extract_epi32(hgfe, 1) as u32,
            _mm_extract_epi32(hgfe, 2) as u32,
            _mm_extract_epi32(hgfe, 3) as u32,
        ];
    }
}

/// No hardware kernel exists for this target.
#[cfg(not(target_arch = "x86_64"))]
mod sha_ni {
    pub(super) fn detected() -> bool {
        false
    }
}

/// The portable kernel: folds a run of whole 64-byte blocks into `state`
/// with plain FIPS 180-4 code. It is what runs on hosts without a hardware
/// kernel, and the oracle the hardware kernel is tested against.
///
/// # Panics
///
/// Panics if `blocks` is not a whole number of 64-byte blocks.
pub fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "partial block");
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunk is 64 bytes"));
    }
}

/// The FIPS 180-4 compression function over one block, with the message
/// schedule kept as a rolling 16-word window: four passes of sixteen
/// rounds, each pass after the first advancing the window in place.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("chunk is 4 bytes"));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (pass, ks) in K.chunks_exact(16).enumerate() {
        for j in 0..16 {
            if pass > 0 {
                let w15 = w[(j + 1) & 15];
                let w2 = w[(j + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[j] = w[j]
                    .wrapping_add(s0)
                    .wrapping_add(w[(j + 9) & 15])
                    .wrapping_add(s1);
            }
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = g ^ (e & (f ^ g));
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(ks[j])
                .wrapping_add(w[j]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) | (c & (a | b));
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// use dapes_crypto::sha256::sha256;
///
/// assert_eq!(
///     sha256(b"").to_string(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of two byte strings, without allocating.
///
/// Used for Merkle interior nodes (`sha256_pair(left, right)`).
pub fn sha256_pair(a: &[u8], b: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: Digest) -> String {
        d.to_string()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // FIPS 180-4 "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hello_world_vector() {
        assert_eq!(
            hex(sha256(b"hello world")),
            "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn many_small_updates_match_oneshot() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding edge cases all hash
        // without panicking and produce distinct digests.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0x5a; len];
            assert!(seen.insert(sha256(&data)), "collision at length {len}");
        }
    }

    #[test]
    fn padding_boundary_vectors() {
        // Reference digests of `'a' × len` on both sides of the one-block
        // (55/56) and two-block (119/120) padding spill and at the exact
        // block edges, where `finalize` either fits the length suffix into
        // the current block or needs one more.
        for (len, expect) in [
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
        ] {
            assert_eq!(hex(sha256(&vec![b'a'; len])), expect, "length {len}");
        }
    }

    #[test]
    fn a_run_through_the_dispatcher_equals_single_block_calls() {
        let data: Vec<u8> = (0u32..64 * 7).map(|i| (i * 13 % 256) as u8).collect();
        for blocks in 0..=7 {
            let run = &data[..64 * blocks];
            let mut whole = H0;
            compress_blocks(&mut whole, run);
            let mut single = H0;
            for block in run.chunks_exact(64) {
                compress_blocks(&mut single, block);
            }
            assert_eq!(whole, single, "run of {blocks}");
            let mut oracle = H0;
            compress_blocks_portable(&mut oracle, run);
            assert_eq!(whole, oracle, "run of {blocks} vs the portable kernel");
        }
    }

    #[test]
    fn kernel_name_says_whether_the_hardware_kernel_runs() {
        let mut state = H0;
        let ran = compress_blocks_hardware(&mut state, &[0u8; 64]);
        assert_eq!(kernel(), if ran { "sha-ni" } else { "portable" });
        assert_eq!(ran, state != H0, "state moves only if the kernel ran");
        println!("sha256 kernel: {}", kernel());
    }

    #[test]
    fn pair_equals_concatenation() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
        assert_eq!(sha256_pair(b"", b"x"), sha256(b"x"));
    }
}
