//! A fixed-seed multiplicative hasher for the hot integer-keyed maps.
//!
//! The analysis kernels key their hash containers by [`Asn`](crate::Asn),
//! [`Link`](crate::Link) and small tuples of them: a handful of machine
//! words per key, hashed tens of millions of times per paper-scale run. The
//! standard library's SipHash-1-3 with a per-process random seed is built to
//! resist hash flooding and costs several times more per key than the
//! lookups it serves. [`FastHash`] replaces it in those containers with a
//! multiply-and-rotate word hash (the `rustc-hash` construction): no random
//! state, so every process computes the same hashes.
//!
//! Containers keep the `HashMap<K, V, FastHash>` / `HashSet<K, FastHash>`
//! spelling (never a type alias) so the deepcheck determinism rule still
//! recognises them as unordered. A fixed-seed hash is not flooding-resistant:
//! a path set crafted so that many keys collide degrades lookups to linear
//! scans. The inputs here are simulated or collector-derived path sets,
//! where the cost of that trade-off is a slower run, never a wrong one.

use std::hash::{BuildHasher, Hasher};

/// The odd multiplier of the word hash (from `rustc-hash`).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// [`BuildHasher`] for [`FastHasher`]: stateless, so every map built with it
/// hashes identically in every process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastHash;

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(0)
    }
}

/// The word hasher behind [`FastHash`]: each written word is added to the
/// state, which is then multiplied by an odd constant.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits carry the mixing; rotating them down feeds
    /// both the bucket index (low bits) and the control tag (top bits).
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asn, Link};
    use std::collections::HashSet;

    fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
        FastHash.hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_processes() {
        // Pinned values: a random per-process seed would change them.
        assert_eq!(hash_of(&Asn(0)), 0);
        assert_eq!(hash_of(&Asn(1)), K.rotate_left(26));
        let link = Link::new(Asn(174), Asn(3356)).expect("distinct endpoints");
        let expected = (174u64.wrapping_mul(K).wrapping_add(3356))
            .wrapping_mul(K)
            .rotate_left(26);
        assert_eq!(hash_of(&link), expected);
    }

    #[test]
    fn distinct_keys_hash_distinctly() {
        let asns: HashSet<u64> = (0..100_000u32).map(|i| hash_of(&Asn(i * 7 + 1))).collect();
        assert_eq!(asns.len(), 100_000);
        let mut links = HashSet::new();
        for a in 1..300u32 {
            for b in (a + 1)..(a + 300) {
                let link = Link::new(Asn(a), Asn(b)).expect("distinct endpoints");
                assert!(links.insert(hash_of(&link)), "collision at {link}");
            }
        }
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let h = |bytes: &[u8]| {
            let mut hasher = FastHash.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgi"));
        assert_ne!(h(b"abcdefghi"), h(b"abcdefghj"));
        assert_eq!(h(b"abc"), h(b"abc"));
    }
}
