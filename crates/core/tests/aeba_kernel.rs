//! Pins the committee-agreement kernel (`aeba::run_committee_traced`,
//! which stops at fixed points and keeps neighbour sums of the declared
//! votes up to date by scattering changed declarations) against the
//! retained round-by-round reference (`aeba::reference::run_committee_traced`,
//! which gathers every edge every round): same votes, agreement,
//! decision and trace, the same `coin_view` call sequence, and the
//! caller's RNG left at the same position.

use ba_core::aeba::{self, AebaConfig, CommitteeAttack, CommitteeOutcome};
use ba_sampler::RegularGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::cell::RefCell;

const ATTACKS: [CommitteeAttack; 5] = [
    CommitteeAttack::Passive,
    CommitteeAttack::Fixed(false),
    CommitteeAttack::Fixed(true),
    CommitteeAttack::Oppose,
    CommitteeAttack::Split,
];

/// A coin that depends on `(i, r)` and logs every consultation.
fn coin(seed: u64, i: usize, r: usize) -> bool {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r as u64) << 48;
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 29) & 1 == 1
}

type Run = (CommitteeOutcome, Vec<f64>, Vec<(usize, usize)>, u64);

#[allow(clippy::too_many_arguments)]
fn run(
    fast: bool,
    good: &[bool],
    inputs: &[bool],
    graph: &RegularGraph,
    coin_seed: u64,
    rounds: usize,
    config: &AebaConfig,
    attack: CommitteeAttack,
    rng_seed: u64,
) -> Run {
    let calls = RefCell::new(Vec::new());
    let view = |i: usize, r: usize| {
        calls.borrow_mut().push((i, r));
        coin(coin_seed, i, r)
    };
    let mut rng = ChaCha12Rng::seed_from_u64(rng_seed);
    let (out, trace) = if fast {
        aeba::run_committee_traced(good, inputs, graph, view, rounds, config, attack, &mut rng)
    } else {
        aeba::reference::run_committee_traced(
            good, inputs, graph, view, rounds, config, attack, &mut rng,
        )
    };
    (out, trace, calls.into_inner(), rng.next_u64())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every attack, random good masks and inputs: unanimous ones
    /// (fixed points come early), near-unanimous ones with 1–5 % flipped
    /// in either polarity (the scatter starts from the minority bit,
    /// whichever it is, and then follows the few changed votes), and
    /// coin-flip ones. Both graph constructions, multigraphs whose small
    /// `k` and large degree repeat neighbours, one case in eight at
    /// `k` = 200–598, coins that vary with `(i, r)`, and 0–15 rounds.
    #[test]
    fn fast_kernel_equals_reference(
        attack in 0usize..5,
        k in 2usize..200,
        large in 0u8..8,
        degree in 1usize..48,
        perm_union in any::<bool>(),
        bad_pct in 0u32..50,
        input_mode in 0u8..6,
        flip_pct in 1u32..6,
        rounds in 0usize..16,
        eps0_pct in 0u32..20,
        seeds in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (mask_seed, coin_seed, rng_seed) = seeds;
        let attack = ATTACKS[attack];
        let k = if large == 0 { 200 + 2 * k } else { k };
        let mut srng = StdRng::seed_from_u64(mask_seed);
        let good: Vec<bool> = (0..k).map(|_| srng.gen_range(0..100u32) >= bad_pct).collect();
        let inputs: Vec<bool> = (0..k)
            .map(|_| match input_mode {
                0 => true,
                1 => false,
                2 => srng.gen_range(0..100u32) >= flip_pct,
                3 => srng.gen_range(0..100u32) < flip_pct,
                _ => srng.gen_bool(0.5),
            })
            .collect();
        let graph = if perm_union {
            RegularGraph::random_permutation_union(k, degree, &mut srng)
        } else {
            RegularGraph::random_out_degree(k, degree, &mut srng)
        };
        let config = AebaConfig {
            rounds,
            eps0: f64::from(eps0_pct) / 100.0,
            ..AebaConfig::default()
        };
        let fast = run(true, &good, &inputs, &graph, coin_seed, rounds, &config, attack, rng_seed);
        let slow = run(false, &good, &inputs, &graph, coin_seed, rounds, &config, attack, rng_seed);
        prop_assert_eq!(&fast.0.votes, &slow.0.votes);
        prop_assert_eq!(fast.0.agreement.to_bits(), slow.0.agreement.to_bits());
        prop_assert_eq!(fast.0.decided, slow.0.decided);
        let bits = |t: &[f64]| t.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&fast.1), bits(&slow.1));
        prop_assert_eq!(&fast.2, &slow.2);
        prop_assert_eq!(fast.3, slow.3);
    }
}
