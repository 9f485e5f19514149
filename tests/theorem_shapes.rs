//! Statistical shape tests: cheap versions of the claims the `exp_*`
//! experiment binaries in `crates/bench` measure,
//! kept in CI so regressions in the protocol's *quantitative* behaviour
//! fail loudly, not just its safety properties.

use king_saia::baselines::{PhaseKingConfig, PhaseKingProcess};
use king_saia::core::ae_to_e::{AeToEConfig, AeToEOutcome, AeToEProcess};
use king_saia::core::everywhere::{self, EverywhereConfig};
use king_saia::core::tournament::NoTreeAdversary;
use king_saia::sim::{NullAdversary, ProcId, SimBuilder};

fn ae2e_max_bits(n: usize, seed: u64) -> u64 {
    let cfg = AeToEConfig::for_n(n, 0.1);
    let rounds = cfg.total_rounds();
    let out = SimBuilder::new(n)
        .seed(seed)
        .build(
            |p, _| AeToEProcess::new(cfg.clone(), (p.index() < 2 * n / 3).then_some(7)),
            NullAdversary,
        )
        .run(rounds + 1);
    let tally = AeToEOutcome::from_outputs(&out.outputs, &out.corrupt, 7);
    assert_eq!(tally.wrong, 0);
    (0..n)
        .map(|i| out.metrics.bits_sent_by(ProcId::new(i)))
        .max()
        .unwrap_or(0)
}

/// Theorem 1's workhorse phase: Õ(√n) bits per processor — quadrupling n
/// must much-less-than-quadruple the bits.
#[test]
fn ae_to_e_bits_sublinear() {
    let b64 = ae2e_max_bits(64, 1) as f64;
    let b256 = ae2e_max_bits(256, 1) as f64;
    let b1024 = ae2e_max_bits(1024, 1) as f64;
    let g1 = b256 / b64;
    let g2 = b1024 / b256;
    // √n growth with polylog: ratio ∈ (2, 4) for a 4× n step.
    assert!(g1 < 4.0, "64→256 bit growth {g1}");
    assert!(g2 < 4.0, "256→1024 bit growth {g2}");
    // And it must actually grow (the protocol reads √n labels).
    assert!(g1 > 1.2 && g2 > 1.2, "growth {g1}/{g2} suspiciously flat");
}

/// Phase King is the quadratic foil: per-processor bits grow ≈ n² — the
/// separation against the sublinear phase above is the paper's headline.
#[test]
fn phase_king_bits_quadratic() {
    let bits_at = |n: usize| {
        let cfg = PhaseKingConfig::for_n(n);
        let out = SimBuilder::new(n)
            .seed(2)
            .build(
                |p, _| PhaseKingProcess::new(cfg, p.index() % 2 == 0),
                NullAdversary,
            )
            .run(cfg.total_rounds() + 2);
        out.metrics.bit_stats(|_| true).max as f64
    };
    let growth = bits_at(64) / bits_at(16);
    assert!(
        growth > 8.0,
        "phase-king per-proc bits should grow ≈ quadratically; got ×{growth} for 4× n"
    );
}

/// Theorem 1/2: polylog rounds — a 4× n step must not double the rounds.
#[test]
fn rounds_grow_slower_than_any_power() {
    let rounds_at = |n: usize| {
        let config = EverywhereConfig::for_n(n).with_seed(3);
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        everywhere::run(&config, &inputs, &mut NoTreeAdversary, NullAdversary).rounds as f64
    };
    let g = rounds_at(256) / rounds_at(64);
    assert!(
        g < 2.0,
        "rounds grew ×{g} for 4× n; expected polylog growth"
    );
}

/// Theorem 2: the tournament leaves ≥ 1 − 1/log n of good processors in
/// agreement (clean run: effectively all).
#[test]
fn ae_agreement_fraction_target() {
    let n = 256;
    let config = EverywhereConfig::for_n(n).with_seed(4);
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let out = everywhere::run(&config, &inputs, &mut NoTreeAdversary, NullAdversary);
    let target = 1.0 - 1.0 / (n as f64).log2();
    assert!(
        out.tournament.agreement_fraction >= target,
        "a.e. agreement {} below 1 − 1/log n = {target}",
        out.tournament.agreement_fraction
    );
}

/// §3.5: the coin subsequence solves (s, 2s/3) in clean runs.
#[test]
fn coin_subsequence_two_thirds_good() {
    let out = king_saia::agree(256, |_| true, 5);
    let good = out.tournament.coin_words.iter().filter(|w| w.good).count();
    let s = out.tournament.coin_words.len();
    assert!(s > 0);
    assert!(3 * good >= 2 * s, "only {good}/{s} genuine coin words");
}
