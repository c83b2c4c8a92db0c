//! SHA-256, implemented in-crate.
//!
//! The paper delegates library signing to DigSig/VeriExec-style prior work
//! (§4.3), which uses standard cryptographic hashes. We implement SHA-256
//! directly (FIPS 180-4) rather than pulling in a crypto dependency: the
//! repository's policy is to keep external crates to the approved minimum,
//! and the verifier only needs a collision-resistant digest.
//!
//! Snapshots, dumps, forensics digests and HMACs all hash through here, so
//! the compression function is the cost of a checkpoint. [`Sha256::update`]
//! hands every whole 64-byte block of its input to one `compress_blocks`
//! call. On x86_64 CPUs that report the SHA extensions (plus SSSE3 and
//! SSE4.1) at run time, that call runs a kernel built on the `sha256rnds2`,
//! `sha256msg1` and `sha256msg2` instructions, which keeps the state in
//! registers across blocks. Every other CPU runs the portable `compress`,
//! which is also the reference the tests hold the hardware path to. The
//! CPU alone picks the path, and both produce the same digests bit for bit.

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
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length += data.len() as u64;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &[self.buffer]);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Produce the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; 32] {
        let (blocks, n) = padding(&self.buffer[..self.buffered], self.length);
        compress_blocks(&mut self.state, &blocks[..n]);
        digest_bytes(&self.state)
    }
}

/// The last one or two blocks of a `length`-byte message whose final
/// `tail.len() < 64` bytes are `tail`: the tail, the `0x80` marker, zeros,
/// and the bit length big-endian. Returns the blocks and how many are used.
fn padding(tail: &[u8], length: u64) -> ([[u8; 64]; 2], usize) {
    let mut blocks = [[0u8; 64]; 2];
    let n = if tail.len() < 56 { 1 } else { 2 };
    let flat = blocks.as_flattened_mut();
    flat[..tail.len()].copy_from_slice(tail);
    flat[tail.len()] = 0x80;
    flat[n * 64 - 8..n * 64].copy_from_slice(&(length * 8).to_be_bytes());
    (blocks, n)
}

/// The state words big-endian: the digest.
fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Compress `blocks` into `state` in order, on the SHA extensions when the
/// CPU has them and with [`compress`] otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    for block in blocks {
        compress(state, block);
    }
}

/// The portable FIPS 180-4 compression function: one block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (wi, b) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*b);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    let add = [a, b, c, d, e, f, g, h];
    for (s, v) in state.iter_mut().zip(add) {
        *s = s.wrapping_add(v);
    }
}

/// The compression function on the x86 SHA extensions. The only `unsafe`
/// in the workspace lives here: one call into a `#[target_feature]`
/// function after run-time detection, and one unaligned load.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Compress `blocks` into `state` on the SHA extensions and return
    /// `true`, or leave `state` untouched and return `false` when the CPU
    /// lacks them.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3"))
        {
            return false;
        }
        // SAFETY: `compress_blocks_ni` only requires that the CPU supports
        // the features it enables: SHA, SSE4.1 and SSSE3 were detected just
        // above, and SSE2 is part of the x86_64 baseline.
        unsafe { compress_blocks_ni(state, blocks) };
        true
    }

    /// Sixteen bytes as one vector.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` borrows 16 readable bytes, exactly what
        // `_mm_loadu_si128` reads, and the unaligned load has no alignment
        // requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// `K[4 * i..4 * i + 4]`, lane 0 lowest.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn k4(i: usize) -> __m128i {
        _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        )
    }

    /// Four rounds: message words `w` (lane 0 first) plus their constants.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let wk = _mm_add_epi32(w, k4(i));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four message words from the previous sixteen (`w0` oldest).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// `compress` for every block in turn. The state is held as the
    /// `ABEF`/`CDGH` register pair `sha256rnds2` works on across all blocks
    /// and converted back to `a..h` order once at the end.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte order within each 32-bit lane reversed: big-endian words.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let s = state.map(|w| w as i32);
        let dcba = _mm_set_epi32(s[3], s[2], s[1], s[0]);
        let hgfe = _mm_set_epi32(s[7], s[6], s[5], s[4]);
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        for block in blocks {
            let (abef0, cdgh0) = (abef, cdgh);
            let (quarters, _) = block.as_chunks::<16>();
            let mut w = [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(load(&quarters[i]), bswap));
            for (i, wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, *wi, i);
            }
            // Rounds 16..64: `w` is a ring of the last sixteen words.
            for i in 4..16 {
                let next = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                w[i % 4] = next;
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba),
            _mm_extract_epi32::<1>(dcba),
            _mm_extract_epi32::<2>(dcba),
            _mm_extract_epi32::<3>(dcba),
            _mm_extract_epi32::<0>(hgfe),
            _mm_extract_epi32::<1>(hgfe),
            _mm_extract_epi32::<2>(hgfe),
            _mm_extract_epi32::<3>(hgfe),
        ]
        .map(|w| w as u32);
    }
}

/// One-shot digest.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_rng::StdRng;

    fn to_hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Digest `data` with padding done here and every block compressed by
    /// `compress_with`, so each compression path can be driven alone.
    fn digest_with(
        data: &[u8],
        mut compress_with: impl FnMut(&mut [u32; 8], &[[u8; 64]]),
    ) -> [u8; 32] {
        let (blocks, tail) = data.as_chunks::<64>();
        let mut state = H0;
        compress_with(&mut state, blocks);
        let (last, n) = padding(tail, data.len() as u64);
        compress_with(&mut state, &last[..n]);
        digest_bytes(&state)
    }

    fn scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        blocks.iter().for_each(|b| compress(state, b));
    }

    /// The SHA-extension compress, or `None` (state untouched) when this
    /// CPU lacks it.
    fn hardware(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> Option<()> {
        #[cfg(target_arch = "x86_64")]
        if shani::compress_blocks(state, blocks) {
            return Some(());
        }
        let _ = (state, blocks);
        None
    }

    /// True when this CPU runs the hardware path; otherwise says so on
    /// stdout, so a skipped leg is visible instead of silently passing.
    fn hardware_available(test: &str) -> bool {
        let ok = hardware(&mut [0; 8], &[]).is_some();
        if !ok {
            println!("{test}: no SHA extensions on this CPU, hardware leg skipped");
        }
        ok
    }

    /// `data` hashes to `want` through the scalar compress alone, the
    /// dispatching `compress_blocks`, the one-shot [`sha256`] and, where
    /// the CPU has it, the SHA-extension compress alone.
    fn assert_every_path(test: &str, data: &[u8], want: &str) {
        assert_eq!(to_hex(&digest_with(data, scalar)), want, "scalar");
        assert_eq!(
            to_hex(&digest_with(data, compress_blocks)),
            want,
            "dispatch"
        );
        assert_eq!(to_hex(&sha256(data)), want, "one-shot");
        if hardware_available(test) {
            let d = digest_with(data, |s, b| hardware(s, b).unwrap());
            assert_eq!(to_hex(&d), want, "hardware");
        }
    }

    fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
        let mut v = vec![0; n];
        rng.fill_bytes(&mut v);
        v
    }

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn empty_string() {
        assert_every_path(
            "empty_string",
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_every_path(
            "abc",
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_every_path(
            "two_block_message",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_every_path("million_a", &[b'a'; 1_000_000], want);
        let mut h = Sha256::new();
        // Feed in awkward chunk sizes to exercise buffering.
        let chunk = [b'a'; 997];
        let mut left = 1_000_000;
        while left > 0 {
            let n = left.min(chunk.len());
            h.update(&chunk[..n]);
            left -= n;
        }
        assert_eq!(to_hex(&h.finalize()), want);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(&[*b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn exactly_64_and_65_bytes() {
        // Padding boundary cases: one and two padding blocks. Digests
        // checked against an independent implementation.
        assert_every_path(
            "exactly_64_and_65_bytes",
            &[0x41; 64],
            "d53eda7a637c99cc7fb566d96e9fa109bf15c478410a3f5eb4d4c4e26cd081f6",
        );
        assert_every_path(
            "exactly_64_and_65_bytes",
            &[0x41; 65],
            "836203944f4c0280461ad73d31457c22ba19d1d99e232dc231000085899e00a2",
        );
    }

    #[test]
    fn hardware_and_scalar_compress_agree_on_random_blocks() {
        if !hardware_available("hardware_and_scalar_compress_agree_on_random_blocks") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(256);
        for round in 0..64 {
            let nblocks = 1 + (rng.next_u64() % 40) as usize;
            let bytes = random_bytes(&mut rng, 64 * nblocks);
            let (blocks, _) = bytes.as_chunks::<64>();
            let start = [(); 8].map(|_| rng.next_u32());
            let (mut a, mut b) = (start, start);
            scalar(&mut a, blocks);
            hardware(&mut b, blocks).unwrap();
            assert_eq!(a, b, "round {round}: {nblocks} blocks");
        }
    }

    #[test]
    fn chunked_updates_match_the_scalar_digest() {
        let mut rng = StdRng::seed_from_u64(997);
        for len in [0, 1, 55, 56, 63, 64, 65, 640, 4096 + 17, 10_000] {
            let data = random_bytes(&mut rng, len);
            let want = digest_with(&data, scalar);
            for chunk in [1, 55, 63, 64, 65, 997] {
                let mut h = Sha256::new();
                data.chunks(chunk).for_each(|c| h.update(c));
                assert_eq!(h.finalize(), want, "{len} bytes in chunks of {chunk}");
            }
        }
    }
}
