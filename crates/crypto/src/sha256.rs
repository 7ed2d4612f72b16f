//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the `hash()` of the LCM paper: a collision-resistant hash used
//! to build the operation hash chain `h ← hash(h ‖ o ‖ t ‖ i)` inside the
//! trusted execution context. The implementation is an allocation-free
//! Merkle–Damgård loop in safe std whose compression function runs its
//! 64 rounds fully unrolled over a rolling 16-word message schedule (see
//! `compress`). It is validated against the FIPS 180-4 example vectors
//! and a NIST long-message vector in the module tests, and against the
//! textbook round loop it replaced, kept there as a test-only oracle.
//!
//! # Example
//!
//! ```
//! use lcm_crypto::sha256::Sha256;
//!
//! let mut hasher = Sha256::new();
//! hasher.update(b"abc");
//! let digest = hasher.finalize();
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in one SHA-256 message block.
pub const BLOCK_LEN: usize = 64;

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

/// A 32-byte SHA-256 digest.
///
/// The hash-chain values `h` and `hc` exchanged by the LCM protocol are
/// values of this type. It is a plain data structure: comparable,
/// hashable, serializable, and printable as lowercase hex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Digest consisting of all zero bytes, used as the hash-chain
    /// genesis value `h0` in the protocol.
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hexadecimal.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            use std::fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
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

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// Use [`Sha256::update`] to absorb data and [`Sha256::finalize`] to
/// produce the [`Digest`]. For one-shot hashing see [`digest`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        let mut blocks = input.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block.try_into().expect("chunks_exact yields whole blocks"),
            );
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length. When the
        // marker leaves no room for the length field, the padding spills
        // into a second, otherwise empty block.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n + 1 > BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; BLOCK_LEN];
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Two hashers are equal when they have absorbed the same input (up to
/// SHA-256 collisions): the same chaining state, length and pending
/// bytes. This is what makes keyed [`crate::hmac::HmacSha256`] states,
/// and so [`crate::aead::AeadKey`]s, comparable.
impl PartialEq for Sha256 {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
            && self.total_len == other.total_len
            && self.buffer[..self.buffer_len] == other.buffer[..other.buffer_len]
    }
}

impl Eq for Sha256 {}

/// One FIPS 180-4 compression of `block` into `state`.
///
/// The 64 rounds are unrolled by macros over a rolling 16-word message
/// schedule: round `i` reads `w[i % 16]`, which for `i >= 16` first
/// becomes `W[i] = σ1(W[i-2]) + W[i-7] + σ0(W[i-15]) + W[i-16]` in
/// place. Instead of shifting the eight working variables every round,
/// each round passes them to the next under rotated names, so a round
/// writes only the two that change (`d += T1`, `h = T1 + T2`) and every
/// index and round constant is a compile-time constant.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            if $i >= 16 {
                let w15 = w[($i + 1) % 16];
                let w2 = w[($i + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[$i % 16] = w[$i % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[($i + 9) % 16])
                    .wrapping_add(s1);
            }
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add(K[$i])
                .wrapping_add(w[$i % 16]);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    // Eight rounds bring the names back to where they started.
    macro_rules! eight_rounds {
        ($i:expr) => {
            round!(a, b, c, d, e, f, g, h, $i);
            round!(h, a, b, c, d, e, f, g, $i + 1);
            round!(g, h, a, b, c, d, e, f, $i + 2);
            round!(f, g, h, a, b, c, d, e, $i + 3);
            round!(e, f, g, h, a, b, c, d, $i + 4);
            round!(d, e, f, g, h, a, b, c, $i + 5);
            round!(c, d, e, f, g, h, a, b, $i + 6);
            round!(b, c, d, e, f, g, h, a, $i + 7);
        };
    }
    eight_rounds!(0);
    eight_rounds!(8);
    eight_rounds!(16);
    eight_rounds!(24);
    eight_rounds!(32);
    eight_rounds!(40);
    eight_rounds!(48);
    eight_rounds!(56);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// let d = lcm_crypto::sha256::digest(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices without an
/// intermediate allocation, e.g. the LCM chain step
/// `hash(h ‖ o ‖ t ‖ i)`.
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The straightforward FIPS 180-4 compression that the unrolled
    /// [`compress`] replaced: expand the whole `w[64]` schedule, then
    /// shift the eight working variables every round. Kept as the
    /// oracle for the unrolled one.
    fn reference_compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
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

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// One-shot SHA-256 over [`reference_compress`], padding the whole
    /// message up front the textbook way.
    fn reference_digest(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(BLOCK_LEN) {
            reference_compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    #[test]
    fn reference_matches_fips_vectors() {
        assert_eq!(
            reference_digest(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            reference_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The unrolled compression equals the reference from any
        /// chaining state, not just the ones real messages reach.
        #[test]
        fn compress_matches_reference(seed in any::<[u8; 32]>(), block in any::<[u8; BLOCK_LEN]>()) {
            let mut state = [0u32; 8];
            for (word, bytes) in state.iter_mut().zip(seed.chunks_exact(4)) {
                *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
            let (mut fast, mut slow) = (state, state);
            compress(&mut fast, &block);
            reference_compress(&mut slow, &block);
            prop_assert_eq!(fast, slow);
        }

        /// The incremental hasher, fed in pieces split at random points,
        /// equals the reference digest of the whole message.
        #[test]
        fn sha256_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..=4096),
                                    splits in proptest::collection::vec(any::<usize>(), 0..8)) {
            let mut points: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
            points.sort_unstable();
            let mut hasher = Sha256::new();
            let mut cursor = 0;
            for p in points {
                hasher.update(&data[cursor..p]);
                cursor = p;
            }
            hasher.update(&data[cursor..]);
            prop_assert_eq!(hasher.finalize(), reference_digest(&data));
        }
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            digest(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            digest(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            digest(msg).to_hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            digest(&msg).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Split at many awkward boundaries.
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        let a = b"hello ";
        let b = b"world";
        let mut concat = Vec::new();
        concat.extend_from_slice(a);
        concat.extend_from_slice(b);
        assert_eq!(digest_parts(&[a, b]), digest(&concat));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 56-byte padding boundary exercise the
        // two-block padding path.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), digest(&data), "len {len}");
        }
    }

    #[test]
    fn digest_display_and_debug() {
        let d = digest(b"abc");
        assert!(format!("{d}").starts_with("ba7816bf"));
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf"));
    }

    #[test]
    fn digest_from_bytes_roundtrip() {
        let raw = hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        let mut arr = [0u8; 32];
        arr.copy_from_slice(&raw);
        let d = Digest::from(arr);
        assert_eq!(d.as_bytes(), &raw[..]);
        assert_eq!(d, digest(b"abc"));
    }

    #[test]
    fn zero_digest_is_all_zero() {
        assert!(Digest::ZERO.as_bytes().iter().all(|&b| b == 0));
    }
}
