//! The seeded operation stream and the self-describing values.
//!
//! Each logical client draws its operations from its own generator,
//! seeded from the workload seed and its index, so a client's op
//! sequence does not depend on how the closed loop interleaves clients.

use lcm::workload::dist::{KeyChooser, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{Config, KEY_LEN, RECORDS, VALUE_LEN};

/// One generated operation, naming its record by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read record `i` on the verified read path.
    Get(u64),
    /// Overwrite record `i` through INVOKE.
    Put(u64),
}

/// One client's operation generator.
pub struct OpStream {
    rng: StdRng,
    zipfian: Zipfian,
    read_share: f64,
}

impl OpStream {
    /// The stream of client `index` under workload seed `seed`.
    pub fn new(cfg: &Config, seed: u64, index: u32) -> Self {
        OpStream {
            rng: StdRng::seed_from_u64(mix(seed, u64::from(index))),
            zipfian: Zipfian::new(RECORDS),
            read_share: cfg.read_share,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let read = self.rng.gen::<f64>() < self.read_share;
        let i = self.zipfian.next_index(&mut self.rng) % RECORDS;
        if read {
            Op::Get(i)
        } else {
            Op::Put(i)
        }
    }
}

/// SplitMix64 finaliser over `(seed, index)`: distinct clients get
/// uncorrelated generator states even for adjacent seeds.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The key of record `i`: YCSB's `user`-prefixed, zero-padded key.
pub fn key(i: u64) -> Vec<u8> {
    const DIGITS: usize = KEY_LEN - 4;
    format!("user{i:0>DIGITS$}").into_bytes()
}

/// Bytes of a value ahead of the key: `w` + 8 hex writer + `c` + 16 hex
/// counter + `k` + 2 hex key length.
pub const VALUE_HEADER: usize = 1 + 8 + 1 + 16 + 1 + 2;

/// Who wrote a record's current value: the `counter`-th write of
/// client `writer`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tag {
    /// Client id of the writer.
    pub writer: u32,
    /// The writer's own write counter.
    pub counter: u64,
}

/// The value the write `tag` stores under `key`: header, key, then `.`
/// padding to [`VALUE_LEN`] bytes. Any value read back names its key
/// and writer, so a GET answered with another record's value fails.
pub fn value(key: &[u8], tag: Tag) -> Vec<u8> {
    let Tag { writer, counter } = tag;
    let mut v = format!("w{writer:08x}c{counter:016x}k{:02x}", key.len()).into_bytes();
    v.extend_from_slice(key);
    v.resize(VALUE_LEN, b'.');
    v
}

/// Parses a [`value`] back into `(key, writer, counter)`.
pub fn parse_value(v: &[u8]) -> Option<(&[u8], u32, u64)> {
    let head = std::str::from_utf8(v.get(..VALUE_HEADER)?).ok()?;
    if !(head.starts_with('w') && &head[9..10] == "c" && &head[26..27] == "k") {
        return None;
    }
    let writer = u32::from_str_radix(&head[1..9], 16).ok()?;
    let counter = u64::from_str_radix(&head[10..26], 16).ok()?;
    let key_len = usize::from_str_radix(&head[27..29], 16).ok()?;
    Some((
        v.get(VALUE_HEADER..VALUE_HEADER + key_len)?,
        writer,
        counter,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, client: u32, n: usize) -> Vec<Op> {
        let ycsb_a = crate::config::workload("ycsb-a").unwrap();
        let mut s = OpStream::new(ycsb_a, seed, client);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn one_seed_gives_an_identical_op_stream() {
        assert_eq!(stream(7, 3, 5000), stream(7, 3, 5000));
        assert_ne!(stream(7, 3, 5000), stream(8, 3, 5000));
        assert_ne!(stream(7, 3, 5000), stream(7, 4, 5000));
    }

    #[test]
    fn the_stream_follows_the_configured_mix() {
        let ops = stream(1, 0, 20_000);
        let reads = ops.iter().filter(|o| matches!(o, Op::Get(_))).count();
        assert!((9_000..11_000).contains(&reads), "{reads} reads of 20000");
        assert!(ops
            .iter()
            .all(|o| matches!(o, Op::Get(i) | Op::Put(i) if *i < RECORDS)));
    }

    #[test]
    fn values_name_their_key_and_writer() {
        let k = key(42);
        assert_eq!(k.len(), KEY_LEN);
        let tag = Tag {
            writer: 7,
            counter: 99,
        };
        let v = value(&k, tag);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(parse_value(&v), Some((&k[..], 7, 99)));
        assert_eq!(parse_value(&[b'x'; VALUE_LEN]), None);
    }
}
