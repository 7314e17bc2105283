//! SHA-1 (RFC 3174), implemented from scratch.
//!
//! SHA-1 is cryptographically broken for adversarial collision resistance,
//! but remains exactly what the SHHC paper (and DDFS, ChunkStash, …) use
//! for chunk fingerprinting, where the threat model is accidental
//! collision — vanishingly unlikely at 160 bits.

use std::fmt;

/// Streaming SHA-1 hasher.
///
/// Supports incremental input via [`Sha1::update`] and produces a
/// [`Digest`] with [`Sha1::finalize`]. One-shot hashing is available
/// through [`Sha1::digest`].
///
/// # Examples
///
/// ```
/// use shhc_hash::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha1::digest(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; BLOCK],
    buf_len: usize,
}

impl fmt::Debug for Sha1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sha1 {{ bytes_hashed: {} }}", self.len)
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

/// A finalized 160-bit SHA-1 digest.
///
/// # Examples
///
/// ```
/// use shhc_hash::Sha1;
/// let d = Sha1::digest(b"");
/// assert_eq!(d.to_hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest([u8; 20]);

impl Digest {
    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Consumes the digest, returning its bytes.
    pub const fn into_bytes(self) -> [u8; 20] {
        self.0
    }

    /// Lowercase hex representation.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0; BLOCK],
            buf_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress_blocks, data);
    }

    /// Consumes the hasher, producing the final digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    /// [`Sha1::update`] over a named compression body (the tests drive
    /// each body through the same buffering the public path uses).
    fn update_with(&mut self, compress: impl Fn(&mut [u32; 5], &[u8]), data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially buffered block first.
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < BLOCK {
                return;
            }
            compress(&mut self.state, &self.buf);
        }

        // Every whole block straight from the input, in one call.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }

        // Stash the tail.
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Sha1::finalize`] over a named compression body.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 5], &[u8])) -> Digest {
        // 0x80, zeros up to 56 mod 64, then the bit length: one block if
        // the length fits behind the buffered tail, two if it does not.
        const LEN_AT: usize = BLOCK - 8;
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= LEN_AT {
            compress(&mut self.state, &self.buf);
            self.buf[..LEN_AT].fill(0);
        }
        self.buf[LEN_AT..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Bytes per SHA-1 block.
const BLOCK: usize = 64;

/// Advances `state` over `blocks`, a whole number of 64-byte blocks, with
/// the fastest body this CPU runs.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    if !accelerated(state, blocks) {
        portable(state, blocks);
    }
}

/// Runs the SHA-extension body if this CPU has the instructions; `false`
/// means it does not and `state` is untouched.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn accelerated(state: &mut [u32; 5], blocks: &[u8]) -> bool {
    let detected = std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1");
    if detected {
        // SAFETY: `x86::compress_blocks` is safe code; the one thing its
        // `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]` asks of a
        // caller is that the CPU executes those four instruction sets,
        // and run-time detection confirmed each of them just above.
        unsafe { x86::compress_blocks(state, blocks) };
    }
    detected
}

/// Targets without the x86-64 SHA extensions build the portable body alone.
#[cfg(not(target_arch = "x86_64"))]
fn accelerated(_state: &mut [u32; 5], _blocks: &[u8]) -> bool {
    false
}

/// The RFC 3174 rounds, one block at a time: the body for every CPU
/// without the extension, and the oracle the accelerated body is tested
/// against.
fn portable(state: &mut [u32; 5], blocks: &[u8]) {
    let (blocks, partial) = blocks.as_chunks::<BLOCK>();
    debug_assert!(partial.is_empty());
    for block in blocks {
        let mut w = [0u32; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

/// SHA-1 on the x86-64 SHA extensions: four rounds per `sha1rnds4`, the
/// state in two registers across every block of the call.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32,
        _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_xor_si128,
    };

    use super::BLOCK;

    /// Same contract as [`super::portable`]. The only caller is
    /// [`super::accelerated`], which first confirms that the CPU has
    /// every feature enabled here.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        let (blocks, partial) = blocks.as_chunks::<BLOCK>();
        debug_assert!(partial.is_empty());
        // The instructions want a..d in one register, `a` in the top
        // lane, and e alone in the top lane of another.
        let [a, b, c, d, e] = *state;
        let mut abcd = _mm_set_epi32(a as i32, b as i32, c as i32, d as i32);
        let mut e = _mm_set_epi32(e as i32, 0, 0, 0);

        for block in blocks {
            let (abcd_in, e_in) = (abcd, e);
            // Rounds 4g..4g+3 read w[g % 4]: the sixteen message words
            // first, then each later group of four from the previous
            // four groups (sha1msg1 / xor / sha1msg2 are the schedule's
            // `rotl1(w[t-3] ^ w[t-8] ^ w[t-14] ^ w[t-16])`).
            // Spelled out, not mapped: a closure in a `#[target_feature]`
            // function is a function of its own, and the bench profile
            // was seen calling one per load instead of inlining it.
            let (m, _) = block.as_chunks::<4>();
            let be = i32::from_be_bytes;
            let mut w = [
                _mm_set_epi32(be(m[0]), be(m[1]), be(m[2]), be(m[3])),
                _mm_set_epi32(be(m[4]), be(m[5]), be(m[6]), be(m[7])),
                _mm_set_epi32(be(m[8]), be(m[9]), be(m[10]), be(m[11])),
                _mm_set_epi32(be(m[12]), be(m[13]), be(m[14]), be(m[15])),
            ];
            // `abcd` four rounds ago; sha1nexte turns its `a` into the
            // `e` of the coming four rounds and adds the message words.
            let mut before = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e, w[0]));

            macro_rules! four_rounds {
                ($f:literal, $g:literal) => {{
                    if $g >= 4 {
                        let mixed = _mm_xor_si128(
                            _mm_sha1msg1_epu32(w[$g % 4], w[($g + 1) % 4]),
                            w[($g + 2) % 4],
                        );
                        w[$g % 4] = _mm_sha1msg2_epu32(mixed, w[($g + 3) % 4]);
                    }
                    let e_w = _mm_sha1nexte_epu32(before, w[$g % 4]);
                    before = abcd;
                    abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e_w);
                }};
            }
            four_rounds!(0, 1);
            four_rounds!(0, 2);
            four_rounds!(0, 3);
            four_rounds!(0, 4);
            four_rounds!(1, 5);
            four_rounds!(1, 6);
            four_rounds!(1, 7);
            four_rounds!(1, 8);
            four_rounds!(1, 9);
            four_rounds!(2, 10);
            four_rounds!(2, 11);
            four_rounds!(2, 12);
            four_rounds!(2, 13);
            four_rounds!(2, 14);
            four_rounds!(3, 15);
            four_rounds!(3, 16);
            four_rounds!(3, 17);
            four_rounds!(3, 18);
            four_rounds!(3, 19);

            abcd = _mm_add_epi32(abcd, abcd_in);
            e = _mm_sha1nexte_epu32(before, e_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abcd) as u32,
            _mm_extract_epi32::<2>(abcd) as u32,
            _mm_extract_epi32::<1>(abcd) as u32,
            _mm_extract_epi32::<0>(abcd) as u32,
            _mm_extract_epi32::<3>(e) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::Mutex;

    use super::*;
    use proptest::prelude::*;

    type Body = fn(&mut [u32; 5], &[u8]);

    fn has_accelerated() -> bool {
        accelerated(&mut [0; 5], &[])
    }

    /// The accelerated body by name, for callers that checked
    /// [`has_accelerated`]; never falls back.
    fn accelerated_body(state: &mut [u32; 5], blocks: &[u8]) {
        assert!(accelerated(state, blocks), "caller checked the extension");
    }

    /// A line on stderr that libtest's capture does not swallow.
    fn report(line: &str) {
        writeln!(std::io::stderr(), "{line}").expect("stderr is writable");
    }

    /// Whether `test` can run its accelerated cases; when it cannot it
    /// says so by name, once, instead of passing vacuously.
    fn accelerated_or_skip(test: &str) -> bool {
        static SKIPPED: Mutex<Vec<String>> = Mutex::new(Vec::new());
        if has_accelerated() {
            return true;
        }
        let mut skipped = SKIPPED.lock().expect("no test panics holding it");
        if !skipped.iter().any(|name| name == test) {
            skipped.push(test.to_owned());
            report(&format!(
                "sha1: SKIPPED {test}[accelerated]: no SHA extension on this CPU"
            ));
        }
        false
    }

    /// Runs `case` on the portable body directly and on the accelerated
    /// body where the CPU has one.
    fn for_each_body(test: &str, case: impl Fn(&str, Body)) {
        case("portable", portable);
        if accelerated_or_skip(test) {
            case("accelerated", accelerated_body);
        }
    }

    /// One-shot digest through `body`, fed as `pieces`.
    fn digest_via(body: Body, pieces: &[&[u8]]) -> Digest {
        let mut h = Sha1::new();
        for piece in pieces {
            h.update_with(body, piece);
        }
        h.finalize_with(body)
    }

    const VECTORS: &[(&[u8], &str)] = &[
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
        ),
        (
            b"The quick brown fox jumps over the lazy cog",
            "de9f2c7fd25e1b3afad3e85a0bd17d9b100db4b3",
        ),
    ];

    #[test]
    fn dispatcher_selects_a_named_body() {
        let selected: (&str, Body) = if has_accelerated() {
            ("accelerated (x86-64 SHA extensions)", accelerated_body)
        } else {
            ("portable", portable)
        };
        report(&format!(
            "sha1: dispatcher selected the {} body",
            selected.0
        ));
        let blocks: Vec<u8> = (0..4 * BLOCK).map(|i| i as u8).collect();
        let (mut dispatched, mut named) = (H0, H0);
        compress_blocks(&mut dispatched, &blocks);
        selected.1(&mut named, &blocks);
        assert_eq!(dispatched, named);
    }

    /// RFC 3174 / well-known test vectors.
    #[test]
    fn reference_vectors() {
        for (input, hex) in VECTORS {
            assert_eq!(Sha1::digest(input).to_hex(), *hex, "input {input:?}");
        }
        for_each_body("reference_vectors", |name, body| {
            for (input, hex) in VECTORS {
                let got = digest_via(body, &[input]).to_hex();
                assert_eq!(got, *hex, "{name} body, input {input:?}");
            }
        });
    }

    #[test]
    fn million_a() {
        for_each_body("million_a", |name, body| {
            let chunk = [b'a'; 1000];
            let got = digest_via(body, &[&chunk[..]; 1000]).to_hex();
            assert_eq!(
                got, "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
                "{name} body"
            );
        });
    }

    /// Lengths either side of where the length field stops fitting into
    /// the last block (55/56, 119/120) and of the block size itself.
    #[test]
    fn padding_edges() {
        let cases = [
            (55, "55b80d96c523566d3c8a3b8de03a5549fd04915c"),
            (56, "bfe3466cd0dcd5e29b11e7885010fa7c61b737a6"),
            (63, "7db05d8e931f0a6731328e4923fbda65ced2f5db"),
            (64, "eece723b8a411e8c53e7bf49514234da5d394236"),
            (65, "f9619e0496c7fbeff2f2b4f3f93ed379329fe7d6"),
            (119, "791fa3ef300032b7b8efab39b22dead4327cba55"),
            (120, "856ffb270b6b9340b620653753dfc5bafaff0a1f"),
        ];
        for_each_body("padding_edges", |name, body| {
            for (n, hex) in cases {
                let data = vec![0x5a; n];
                let one_shot = digest_via(body, &[&data]);
                assert_eq!(one_shot.to_hex(), hex, "{name} body, length {n}");
                let bytes: Vec<&[u8]> = data.chunks(1).collect();
                assert_eq!(
                    digest_via(body, &bytes),
                    one_shot,
                    "{name} body, length {n}"
                );
            }
        });
    }

    #[test]
    fn debug_shows_progress() {
        let mut h = Sha1::new();
        h.update(b"xyz");
        assert!(format!("{h:?}").contains("bytes_hashed: 3"));
    }

    proptest! {
        /// The two bodies agree from any state, over any number of blocks,
        /// wherever the slice starts relative to a 16-byte boundary.
        #[test]
        fn accelerated_matches_portable(state in any::<[u32; 5]>(),
                                        blocks in 0usize..=40,
                                        bytes in proptest::collection::vec(any::<u8>(), 40 * BLOCK + 31)) {
            if !accelerated_or_skip("accelerated_matches_portable") {
                return Ok(());
            }
            let aligned = &bytes[bytes.as_ptr().align_offset(16)..];
            for misalign in 0..16 {
                let input = &aligned[misalign..][..blocks * BLOCK];
                prop_assert_eq!(input.as_ptr() as usize % 16, misalign);
                let (mut fast, mut reference) = (state, state);
                accelerated_body(&mut fast, input);
                portable(&mut reference, input);
                prop_assert_eq!(fast, reference, "misaligned by {}", misalign);
            }
        }

        /// Three updates whose seams fall inside blocks (the second starts
        /// with a non-empty buffer and runs over at least one block
        /// boundary) equal one update, on each body, and the bodies agree.
        #[test]
        fn three_way_split_equals_oneshot(bytes in proptest::collection::vec(any::<u8>(), 1024),
                                          head in 1usize..256,
                                          middle in 64usize..512,
                                          tail in 0usize..256) {
            prop_assume!(head % BLOCK != 0);
            let data = &bytes[..head + middle + tail];
            let (a, rest) = data.split_at(head);
            let (b, c) = rest.split_at(middle);
            let expected = digest_via(portable, &[data]);
            for_each_body("three_way_split_equals_oneshot", |name, body| {
                assert_eq!(digest_via(body, &[a, b, c]), expected, "{name} body");
                assert_eq!(digest_via(body, &[data]), expected, "{name} body, one update");
            });
        }

        /// Incremental hashing over arbitrary split points equals one-shot.
        #[test]
        fn incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                      split in 0usize..2048) {
            let split = split.min(data.len());
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Sha1::digest(&data));
        }

        /// Distinct single-bit flips change the digest (weak avalanche sanity).
        #[test]
        fn bit_flip_changes_digest(data in proptest::collection::vec(any::<u8>(), 1..256),
                                   idx in 0usize..256, bit in 0u8..8) {
            let idx = idx % data.len();
            let mut flipped = data.clone();
            flipped[idx] ^= 1 << bit;
            prop_assert_ne!(Sha1::digest(&data), Sha1::digest(&flipped));
        }
    }
}
