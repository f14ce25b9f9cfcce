//! Per-request seed derivation for batched serving.
//!
//! A batched engine runs many requests against one user-visible master
//! seed; each request needs its own mask-seed so that its `T` dropout
//! samples are statistically independent of every other request's. The
//! derivation has to compose safely with the *per-sample* mixing inside
//! [`crate::BayesianNetwork::generate_masks`], which XORs
//! `t · 0x9E37_79B9_7F4A_7C15` into the seed for sample `t`.
//!
//! That composition is where naive derivations alias: deriving request
//! seeds as `user_seed ^ id · K` with the *same* odd constant `K` makes
//! request `i`'s sample `t` use exactly the seed of request `j`'s sample
//! `t'` whenever `i + t == j + t'` — two requests in one batch would
//! replay identical LFSR streams, silently correlating their posteriors.
//! Any affine derivation leaves such lattice collisions reachable from
//! small ids and sample indices.
//!
//! [`derive_request_seed`] therefore runs the id through a SplitMix64
//! finalizer (full avalanche) before combining it with the user seed, and
//! finalizes again afterwards. Every step is a bijection of `u64`, so for
//! a fixed user seed the map `id → derived seed` is *injective*: two
//! distinct request ids can never receive the same derived seed, and the
//! avalanche destroys the affine structure the per-sample XOR could
//! otherwise resonate with. A regression test pins both properties.

use fbcnn_tensor::hash::mix64;

/// Derives the mask seed of request `request_id` from the user-visible
/// master seed.
///
/// For a fixed `user_seed` the derivation is injective in `request_id`
/// (every step is a `u64` bijection), so two requests in one batch can
/// never receive identical LFSR streams; the double avalanche keeps the
/// derived seeds free of the affine structure that
/// [`crate::BayesianNetwork::generate_masks`]'s per-sample XOR mixing
/// could alias with (see the module docs).
pub fn derive_request_seed(user_seed: u64, request_id: u64) -> u64 {
    let id = mix64(request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_0F0F_BA7C_4ED5);
    mix64(user_seed.wrapping_add(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn distinct_ids_give_distinct_seeds() {
        let user = 0xFB_C0DE;
        let seeds: HashSet<u64> = (0..4096).map(|id| derive_request_seed(user, id)).collect();
        assert_eq!(seeds.len(), 4096, "derived seeds collided");
    }

    #[test]
    fn derivation_is_deterministic_and_seed_sensitive() {
        assert_eq!(derive_request_seed(1, 2), derive_request_seed(1, 2));
        assert_ne!(derive_request_seed(1, 2), derive_request_seed(2, 2));
        assert_ne!(derive_request_seed(1, 2), derive_request_seed(1, 3));
    }

    #[test]
    fn derived_seeds_do_not_alias_the_per_sample_mixing() {
        // generate_masks XORs t·GOLDEN into the seed for sample t. A
        // derivation with affine structure in the id would make
        // (request i, sample t) collide with (request j, sample t') on
        // the lattice i + t == j + t'. Check the full (id, t) cross
        // product of effective per-sample seeds stays collision-free.
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let user = 7;
        let mut effective = HashSet::new();
        for id in 0..64u64 {
            let derived = derive_request_seed(user, id);
            for t in 0..50u64 {
                assert!(
                    effective.insert(derived ^ t.wrapping_mul(GOLDEN)),
                    "effective sample seed aliased at id {id}, t {t}"
                );
            }
        }
    }
}
