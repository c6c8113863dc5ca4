//! The workspace's fixed-definition 64-bit mixers: FNV-1a, the stable
//! content hash, and the splitmix64 finalizer its seeded generators
//! share.
//!
//! Unlike `std`'s `DefaultHasher`, whose algorithm may change between
//! Rust releases, both are fixed by definition, so their values can be
//! journalled, compared across builds and pinned in golden tests.

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The splitmix64 output finalizer: a bijection on `u64` that spreads
/// every input bit over the whole output. splitmix64 proper applies it
/// to a state advanced by `0x9e37_79b9_7f4a_7c15` per draw.
pub fn splitmix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::{fnv1a, splitmix64};

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // The first outputs of splitmix64 seeded with 0.
        let mut state = 0u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(state)
        };
        assert_eq!(next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(next(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
