//! Golden outcome pins: committed digests of complete runs, so a change
//! that is meant to be byte-identical is checked against the outcomes
//! the code produced *before* it, not only against another path of the
//! same build (the thread-count, batched/unbatched and net/Lockstep pins
//! compare two paths of one build with each other).
//!
//! Each digest is an FNV-1a hash of a run's observable result, rendered
//! with `Debug`: for the full stack the decisions, rounds, per-processor
//! bits, corruption flags, per-phase bit attribution, per-level
//! tournament statistics and (on `NetTransport`) the network statistics;
//! for Algorithm 3 alone the outputs, rounds, corruption flags and
//! per-processor bits. A failing pin prints the digest it got, but a new
//! value may only be committed together with a change that is *meant* to
//! alter outcomes, and says so.

use king_saia::core::ae_to_e::{AeToEConfig, AeToEProcess};
use king_saia::core::attacks::{CustodyBuster, LabelGuesser, Overloader, ResponseForger};
use king_saia::core::everywhere::{self, EverywhereConfig, EverywhereOutcome};
use king_saia::core::tournament::NoTreeAdversary;
use king_saia::net::{
    Churn, Crash, DeliveryPolicy, FaultPlan, LatencyModel, NetConfig, NetTransport, Partition,
};
use king_saia::sim::{Adversary, NullAdversary, ProcId, SimBuilder};
use king_saia::topology::Params;

/// FNV-1a, 64-bit: small, stable across platforms and toolchains.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn stack_digest(out: &EverywhereOutcome, net: Option<&dyn std::fmt::Debug>) -> u64 {
    fnv1a(&format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
        out.decisions,
        out.rounds,
        out.bits_per_proc,
        out.corrupt,
        out.phase_bits,
        out.tournament.level_stats,
        net,
    ))
}

fn assert_pinned(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: outcome digest {got:#018x} differs from the pinned {want:#018x}"
    );
}

/// SplitMix64 finalizer, for reproducible random input vectors.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_inputs(n: usize, seed: u64) -> Vec<bool> {
    (0..n).map(|i| mix(seed ^ i as u64) & 1 == 1).collect()
}

/// `exp_scale`'s reduced-constant profile: k₁ = 2·log₂n, AEBA degree
/// 4·log₂n, ¾·log₂n AEBA rounds, at most 8 extra coin words, 2–4
/// Algorithm 3 samples per label over 1–2 loops.
fn scale_profile(n: usize, seed: u64) -> EverywhereConfig {
    let mut config = EverywhereConfig::for_n(n).with_seed(seed);
    let log_n = (n as f64).log2();
    let degree = ((4.0 * log_n).ceil() as usize).max(8).min(n - 1);
    config.tournament.params = Params::practical(n)
        .with_k1((2.0 * log_n).ceil() as usize)
        .with_aeba_degree(degree)
        .with_aeba_rounds(((0.75 * log_n).ceil() as usize).max(6));
    config.tournament.extra_words = config.tournament.extra_words.min(8);
    config.ae.per_label = config.ae.per_label.clamp(2, 4);
    config.ae.loops = config.ae.loops.clamp(1, 2);
    config
}

#[test]
fn scale_profile_n256_is_pinned() {
    let n = 256;
    let config = scale_profile(n, 0x5CA1E);
    let (out, _) = everywhere::run_with_transport(
        &config,
        &vec![true; n],
        &mut NoTreeAdversary,
        NullAdversary,
        king_saia::sim::Lockstep::default(),
    );
    assert!(out.everywhere_agreement && out.valid);
    assert_pinned(
        "scale n=256",
        stack_digest(&out, None),
        0x410F_9227_170C_02B9,
    );
}

#[test]
fn paper_constants_n256_random_inputs_are_pinned() {
    let n = 256;
    let config = EverywhereConfig::for_n(n).with_seed(0x1A7B);
    let (out, _) = everywhere::run_with_transport(
        &config,
        &random_inputs(n, 0x1A7B),
        &mut NoTreeAdversary,
        NullAdversary,
        king_saia::sim::Lockstep::default(),
    );
    assert!(out.everywhere_agreement && out.valid);
    assert_pinned(
        "paper n=256",
        stack_digest(&out, None),
        0x8A68_34AA_E153_B40B,
    );
}

/// Drops, heavy-tail latency, custody attacks on the tournament and a
/// request flood in Algorithm 3, over `NetTransport`.
#[test]
fn faulty_network_under_attack_n128_is_pinned() {
    let n = 128;
    let seed = 0xFA17;
    let config = EverywhereConfig::for_n(n).with_seed(seed);
    let net = NetConfig::synchronous()
        .with_latency(LatencyModel::HeavyTail {
            floor: 100,
            scale: 200.0,
            alpha: 1.5,
            cap: 3000,
        })
        .with_faults(FaultPlan {
            drop_prob: 0.02,
            ..FaultPlan::default()
        })
        .with_seed(seed);
    let (out, transport) = everywhere::run_with_transport(
        &config,
        &(0..n).map(|i| i % 2 == 0).collect::<Vec<_>>(),
        &mut CustodyBuster {
            aggressiveness: 0.8,
        },
        Overloader {
            count: 8,
            labels: config.ae.labels,
            copies: 64,
        },
        NetTransport::new(n, net),
    );
    let stats = transport.into_stats();
    assert_pinned(
        "net n=128",
        stack_digest(&out, Some(&stats)),
        0x4557_6E3F_C7AD_A798,
    );
}

/// Runs the full stack at n = 128 on `NetTransport` with `net`, no
/// adversary, alternating inputs, and digests it with the network stats.
fn net_stack_digest(seed: u64, net: NetConfig) -> u64 {
    let n = 128;
    let config = EverywhereConfig::for_n(n).with_seed(seed);
    let (out, transport) = everywhere::run_with_transport(
        &config,
        &(0..n).map(|i| i % 3 == 0).collect::<Vec<_>>(),
        &mut NoTreeAdversary,
        NullAdversary,
        NetTransport::new(n, net.with_seed(seed)),
    );
    let stats = transport.into_stats();
    stack_digest(&out, Some(&stats))
}

/// Same-instant batches reversed, over jittery links with a partition, a
/// crash and rolling churn: pins the group-level permutation the
/// transport applies, not only the FIFO order.
#[test]
fn lifo_partition_crash_churn_n128_is_pinned() {
    let net = NetConfig::synchronous()
        .with_ordering(DeliveryPolicy::AdversarialLifo)
        .with_latency(LatencyModel::Uniform { lo: 0, hi: 1_400 })
        .with_faults(FaultPlan {
            partitions: vec![Partition {
                boundary: 40,
                from_round: 3,
                heal_round: 9,
            }],
            crashes: vec![Crash { proc: 5, round: 4 }],
            churn: Some(Churn {
                period: 11,
                down: 1,
                stagger: 3,
            }),
            ..FaultPlan::default()
        });
    assert_pinned(
        "net lifo n=128",
        net_stack_digest(0x11F0, net),
        0x3473_A697_C78E_35BF,
    );
}

/// Same-instant batches shuffled from the ordering stream, over
/// heavy-tail links with random drops and rolling churn (churn is what
/// makes the stack's outcome depend on same-instant order: without it
/// the FIFO, LIFO and shuffled runs of this config coincide): pins the
/// shuffle draws.
#[test]
fn shuffle_heavy_tail_drops_n128_is_pinned() {
    let net = NetConfig::synchronous()
        .with_ordering(DeliveryPolicy::Shuffle)
        .with_latency(LatencyModel::HeavyTail {
            floor: 100,
            scale: 200.0,
            alpha: 1.5,
            cap: 3000,
        })
        .with_faults(FaultPlan {
            drop_prob: 0.03,
            churn: Some(Churn {
                period: 13,
                down: 1,
                stagger: 5,
            }),
            ..FaultPlan::default()
        });
    assert_pinned(
        "net shuffle n=128",
        net_stack_digest(7, net),
        0x0414_BA32_DF33_6E83,
    );
}

/// Algorithm 3 alone at `n`, 70% of processors knowledgeable.
fn ae_digest<A: Adversary<AeToEProcess>>(n: usize, seed: u64, adversary: A) -> u64 {
    let cfg = AeToEConfig::for_n(n, 0.1);
    let rounds = cfg.total_rounds();
    let cutoff = n * 7 / 10;
    let out = SimBuilder::new(n)
        .seed(seed)
        .build(
            |p, _| AeToEProcess::new(cfg.clone(), (p.index() < cutoff).then_some(0xFACE)),
            adversary,
        )
        .run(rounds + 1);
    let bits: Vec<u64> = (0..n)
        .map(|i| out.metrics.bits_sent_by(ProcId::new(i)))
        .collect();
    fnv1a(&format!(
        "{:?}|{}|{:?}|{:?}",
        out.outputs, out.rounds, out.corrupt, bits
    ))
}

/// Inboxes past `n` envelopes, every sender under the cut-off: the flood
/// defence counts and removes nobody.
#[test]
fn ae_to_e_under_light_overload_is_pinned() {
    let n = 64;
    let flood = Overloader {
        count: 6,
        labels: AeToEConfig::for_n(n, 0.1).labels,
        copies: 256,
    };
    assert_pinned(
        "ae overload light",
        ae_digest(n, 11, flood),
        0xDEEE_902D_AA4F_3950,
    );
}

/// Corrupt senders issuing more than `n − 1` requests to one responder:
/// the flood defence cuts them off.
#[test]
fn ae_to_e_under_heavy_overload_is_pinned() {
    let n = 64;
    let flood = Overloader {
        count: 4,
        labels: AeToEConfig::for_n(n, 0.1).labels,
        copies: 80 * n,
    };
    assert_pinned(
        "ae overload heavy",
        ae_digest(n, 12, flood),
        0x1A29_4D06_9BFA_64F7,
    );
}

#[test]
fn ae_to_e_under_forgery_is_pinned() {
    let n = 144;
    let forger = ResponseForger {
        count: n / 6,
        fake: 0xBAD,
    };
    assert_pinned(
        "ae forgery",
        ae_digest(n, 13, forger),
        0x54AD_7BA4_3E4E_7E70,
    );
}

#[test]
fn ae_to_e_under_label_guessing_is_pinned() {
    let n = 144;
    let guesser = LabelGuesser {
        count: n / 8,
        labels: AeToEConfig::for_n(n, 0.1).labels,
        copies: 400,
    };
    assert_pinned(
        "ae label guessing",
        ae_digest(n, 14, guesser),
        0xEE9F_17F2_B9C9_1693,
    );
}
