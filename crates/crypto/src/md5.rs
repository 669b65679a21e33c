//! The MD5 message-digest algorithm (RFC 1321), implemented from scratch.
//!
//! BFT uses MD5 to compute the digests carried in pre-prepare messages, the
//! digests of replies used by the *digest replies* optimization, and the
//! digests that identify checkpoints. MD5 is broken for collision resistance
//! today; it is implemented here because it is what the paper used and
//! because the *cost structure* (fixed setup plus a per-64-byte-block
//! compression) is what the simulation's CPU model reproduces.
//!
//! Both one-shot ([`digest`]) and incremental ([`Md5`]) interfaces are
//! provided; the incremental interface is used to hash large state
//! partitions during checkpointing without materializing them.

/// A 16-byte MD5 digest.
///
/// Digests identify requests, replies and checkpoints throughout the
/// protocol. They are compared in constant time where authentication
/// matters (see [`Digest::ct_eq`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// The all-zero digest, used as a placeholder for "no digest".
    pub const ZERO: Digest = Digest([0; 16]);

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Constant-time equality comparison.
    ///
    /// Ordinary `==` is fine for table lookups; use this when comparing a
    /// received digest against a locally computed one.
    pub fn ct_eq(&self, other: &Digest) -> bool {
        let mut acc = 0u8;
        for i in 0..16 {
            acc |= self.0[i] ^ other.0[i];
        }
        acc == 0
    }

    /// Truncates the digest to a `u64`, used for cheap fingerprints in
    /// internal tables (never for authentication).
    pub fn short(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("slice of 8 bytes"))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Sine-derived additive constants: `K[i] = floor(2^32 * |sin(i + 1)|)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Message-word order of each round (RFC 1321): `i`, `5i + 1`, `3i + 5`
/// and `7i`, all mod 16, for step `i` of the round.
const W: [[usize; 16]; 4] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [1, 6, 11, 0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12],
    [5, 8, 11, 14, 1, 4, 7, 10, 13, 0, 3, 6, 9, 12, 15, 2],
    [0, 7, 14, 5, 12, 3, 10, 1, 8, 15, 6, 13, 4, 11, 2, 9],
];

/// Per-round shift amounts; each round repeats its four shifts.
const S: [[u32; 4]; 4] = [
    [7, 12, 17, 22],
    [5, 9, 14, 20],
    [4, 11, 16, 23],
    [6, 10, 15, 21],
];

/// The message padding: `0x80`, then zeros up to the length slot.
const PAD: [u8; 64] = {
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad
};

/// Incremental MD5 context.
///
/// # Example
///
/// ```
/// use bft_crypto::md5::{digest, Md5};
///
/// let mut ctx = Md5::new();
/// ctx.update(b"hello ");
/// ctx.update(b"world");
/// assert_eq!(ctx.finish(), digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context.
    pub fn new() -> Md5 {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finalizes the digest, consuming the context.
    pub fn finish(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, then zeros until 56 bytes of the block are used,
        // then the 64-bit little-endian bit length. Appending the padding
        // also counts it in self.len, which no longer matters.
        self.update(&PAD[..1 + (119 - self.buf_len) % 64]);
        debug_assert_eq!(self.buf_len, 56);
        let mut block = self.buf;
        block[56..].copy_from_slice(&bit_len.to_le_bytes());
        self.compress(&block);
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut abcd = self.state;
        // F = (b & c) | (!b & d) and G = (d & b) | (!d & c), each in an
        // equivalent select form one operation shorter.
        round(&mut abcd, &m, 0, |b, c, d| d ^ (b & (c ^ d)));
        round(&mut abcd, &m, 1, |b, c, d| c ^ (d & (b ^ c)));
        round(&mut abcd, &m, 2, |b, c, d| b ^ c ^ d);
        round(&mut abcd, &m, 3, |b, c, d| c ^ (b | !d));
        for (s, x) in self.state.iter_mut().zip(abcd) {
            *s = s.wrapping_add(x);
        }
    }
}

/// One 16-step round `r` with boolean function `f`. Each step computes
/// `a = b + ((a + f(b, c, d) + K + m[w]) <<< s)`, then the roles of the
/// four words rotate; four steps bring them back to `a, b, c, d`.
#[inline(always)]
fn round(abcd: &mut [u32; 4], m: &[u32; 16], r: usize, f: impl Fn(u32, u32, u32) -> u32) {
    let step = |a: u32, b: u32, mix: u32, i: usize, s: u32| {
        b.wrapping_add(
            a.wrapping_add(mix)
                .wrapping_add(K[16 * r + i])
                .wrapping_add(m[W[r][i]])
                .rotate_left(s),
        )
    };
    let [s0, s1, s2, s3] = S[r];
    let [mut a, mut b, mut c, mut d] = *abcd;
    for q in 0..4 {
        let i = 4 * q;
        a = step(a, b, f(b, c, d), i, s0);
        d = step(d, a, f(a, b, c), i + 1, s1);
        c = step(c, d, f(d, a, b), i + 2, s2);
        b = step(b, c, f(c, d, a), i + 3, s3);
    }
    *abcd = [a, b, c, d];
}

/// Computes the MD5 digest of `data` in one shot.
///
/// ```
/// use bft_crypto::md5::digest;
/// assert_eq!(digest(b"abc").to_string(), "900150983cd24fb0d6963f7d28e17f72");
/// ```
pub fn digest(data: &[u8]) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finish()
}

/// Computes the digest of the concatenation of several byte slices without
/// copying them into one buffer.
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut ctx = Md5::new();
    for p in parts {
        ctx.update(p);
    }
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(digest(input).to_string(), want, "input {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 17, 63, 64, 65, 128, 500, 999, 1000] {
            let mut ctx = Md5::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finish(), digest(&data), "split {split}");
        }
    }

    #[test]
    fn digest_parts_matches_concat() {
        let a = b"pre-prepare".as_slice();
        let b = b"payload bytes".as_slice();
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        assert_eq!(digest_parts(&[a, b]), digest(&concat));
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding edge cases around the 56-byte length slot.
        for len in 54..=66usize {
            let data = vec![0xabu8; len];
            let mut ctx = Md5::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finish(), digest(&data), "len {len}");
        }
    }

    /// Deterministic `len`-byte test input: byte `i` is `(31i + 7) mod 251`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    /// Known answers at the lengths where padding changes shape: empty,
    /// around the 56-byte length slot, around one and two blocks, and a
    /// 4 KB request body plus header. Expected values from an independent
    /// MD5 (Python's `hashlib.md5`) over the same pattern.
    #[test]
    fn padding_boundary_vectors() {
        let cases: [(usize, &str); 10] = [
            (0, "d41d8cd98f00b204e9800998ecf8427e"),
            (55, "d39f7454bbe034082797e66c125a31ad"),
            (56, "8e9dbcce67719f0304ad52c59ff3d743"),
            (57, "a299b8643026995363f4eb94158bce68"),
            (63, "19a31d9b1afbd6867266fd6cf4c8821f"),
            (64, "8d9cfa334d4e690843fa68e59c798b84"),
            (65, "72d8b171f7f46898ee558ad1a86fb907"),
            (119, "ae6c390e7155118a1660c98861bc0d69"),
            (120, "b4a4ce125f8932c19665e554892473c4"),
            (4117, "1f630c997c5ac8b0e981d84ff98260dd"),
        ];
        for (len, want) in cases {
            assert_eq!(digest(&pattern(len)).to_string(), want, "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        for len in 0..=130 {
            let data = pattern(len);
            let want = digest(&data);
            for split in 0..=len {
                let mut ctx = Md5::new();
                ctx.update(&data[..split]);
                ctx.update(&data[split..]);
                assert_eq!(ctx.finish(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn ct_eq_agrees_with_eq() {
        let d1 = digest(b"x");
        let d2 = digest(b"x");
        let d3 = digest(b"y");
        assert!(d1.ct_eq(&d2));
        assert!(!d1.ct_eq(&d3));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let d = digest(b"z");
        assert_eq!(d.to_string().len(), 32);
        assert!(!format!("{d:?}").is_empty());
    }

    #[test]
    fn short_fingerprint_is_le_prefix() {
        let d = Digest([1, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9]);
        assert_eq!(d.short(), 1);
    }
}
