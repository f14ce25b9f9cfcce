//! The workspace's two seeded mixers, each written out once.
//!
//! Synthetic weights and inputs, per-request mask seeds, shard routes,
//! fault schedules, artifact digests and pre-inference cache keys all
//! derive from these two functions, so golden fixtures pin their bits.
//! Call sites keep their own pre-mix (a `+γ` step, node or kernel salts)
//! and post-processing; only the shared core lives here.
//!
//! * [`mix64`] — SplitMix64's output finalizer (Vigna, `splitmix64.c`):
//!   a bijection of `u64` with full avalanche.
//! * [`Fnv1a`] — the 64-bit FNV-1a byte hash.
//!
//! # Examples
//!
//! ```
//! use fbcnn_tensor::hash::{mix64, Fnv1a, GOLDEN_GAMMA};
//!
//! // One step of the SplitMix64 generator from state 0.
//! assert_eq!(mix64(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
//!
//! let mut h = Fnv1a::new();
//! h.write(b"a");
//! assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
//! ```

/// SplitMix64's state increment γ (the odd integer nearest 2⁶⁴/φ).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer — a bijection of `u64` with full
/// avalanche (every input bit flips about half the output bits).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit FNV-1a hash state, fed byte by byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty hash (the FNV-1a 64 offset basis).
    #[inline]
    pub const fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds `word`'s little-endian bytes into the state.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash of everything written so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference outputs from an independent implementation of
    // splitmix64.c and FNV-1a 64.

    #[test]
    fn splitmix64_stream_from_zero_matches_the_reference() {
        let mut state = 0u64;
        let stream: Vec<u64> = (0..3)
            .map(|_| {
                state = state.wrapping_add(GOLDEN_GAMMA);
                mix64(state)
            })
            .collect();
        assert_eq!(
            stream,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn finalizer_fixes_zero_and_matches_the_reference_at_one() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161d_100b_05e5);
    }

    #[test]
    fn fnv1a_matches_the_reference() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
