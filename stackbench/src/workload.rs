//! The three workloads and one checked trial of each.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ba_core::attacks::{CustodyBuster, Overloader};
use ba_core::everywhere::{run_with_transport, EverywhereConfig, EverywhereOutcome, StackMsg};
use ba_core::tournament::NoTreeAdversary;
use ba_exp::{AdversarySpec, MessageAdversary, RunSpec, TreeAttack};
use ba_net::{FaultPlan, InputPattern, LatencyModel, NetConfig, NetStats, NetTransport};
use ba_sim::{Lockstep, NullAdversary, Transport};
use ba_topology::Params;

use crate::timed::{Probe, Timed};

/// `faults-256`: custody attacks spend this share of the remaining
/// corruption budget per tournament level.
const CUSTODY_AGGRESSIVENESS: f64 = 0.8;
/// `faults-256`: processors the phase-2 `Overloader` asks to corrupt.
/// The custody attacks leave little budget, so most of the flood comes
/// from processors the tree adversary already corrupted: the
/// `Overloader` floods from every corrupt processor.
const FLOOD_COUNT: usize = 16;
/// `faults-256`: requests each corrupt processor sprays per round.
const FLOOD_COPIES: usize = 64;

/// One of the benchmark's fixed workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// n = 4096 under `exp_scale`'s scale profile, Lockstep, unanimous
    /// inputs, no adversary.
    Scale4096,
    /// n = 1024 with paper-shaped constants, Lockstep, random inputs, no
    /// adversary.
    Paper1024,
    /// n = 256 on `NetTransport` with drops and heavy-tail latency,
    /// split inputs, custody attacks and request flooding.
    Faults256,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Scale4096,
        Workload::Paper1024,
        Workload::Faults256,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale4096 => "scale-4096",
            Workload::Paper1024 => "paper-1024",
            Workload::Faults256 => "faults-256",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of processors.
    pub fn n(self) -> usize {
        match self {
            Workload::Scale4096 => 4096,
            Workload::Paper1024 => 1024,
            Workload::Faults256 => 256,
        }
    }

    fn config(self, seed: u64) -> EverywhereConfig {
        let n = self.n();
        let config = EverywhereConfig::for_n(n).with_seed(seed);
        match self {
            Workload::Scale4096 => scale_profile(config),
            Workload::Paper1024 | Workload::Faults256 => config,
        }
    }

    fn inputs(self, seed: u64) -> Vec<bool> {
        let n = self.n();
        match self {
            Workload::Scale4096 => vec![mix(seed ^ 0x5CA1_E000) & 1 == 1; n],
            Workload::Paper1024 => {
                let mut s = mix(seed ^ 0x1A7B_0000);
                (0..n)
                    .map(|_| {
                        s = mix(s);
                        s & 1 == 1
                    })
                    .collect()
            }
            Workload::Faults256 => (0..n).map(|i| InputPattern::Split.bit(i)).collect(),
        }
    }

    /// The trial's network, or `None` for `Lockstep`.
    fn network(self, seed: u64) -> Option<NetConfig> {
        (self == Workload::Faults256).then(|| {
            NetConfig::synchronous()
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
                .with_seed(seed)
        })
    }

    /// The `ba-exp` spec whose trial 0 is this workload's trial at
    /// `seed` — the reference the `faults-256` driver is checked against.
    pub fn run_spec(self, seed: u64) -> Option<RunSpec> {
        let net = self.network(seed)?;
        let adversary = AdversarySpec::none()
            .with_tree(TreeAttack::CustodyBuster {
                aggressiveness: CUSTODY_AGGRESSIVENESS,
            })
            .with_message(MessageAdversary::Overload {
                count: FLOOD_COUNT,
                copies: FLOOD_COPIES,
            });
        Some(
            RunSpec::everywhere(self.n())
                .input(InputPattern::Split)
                .adversary(adversary)
                .net(net)
                .seeds(seed)
                .trials(1),
        )
    }
}

/// `exp_scale`'s scale profile: k₁ = 2·log₂n, AEBA degree 4·log₂n,
/// ¾·log₂n AEBA rounds, at most 8 extra coin words, and Algorithm 3 at
/// 2–4 samples per label over 1–2 loops.
fn scale_profile(mut config: EverywhereConfig) -> EverywhereConfig {
    let n = config.tournament.params.n;
    let log_n = (n as f64).log2().max(1.0);
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

/// SplitMix64 finalizer: seeds and input bits derive from it.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of trial `i` of the run seeded `workload_seed`: measured trials
/// take the even stream indices and warm-ups the odd ones, and `mix` is a
/// bijection, so the two sets never meet. Seeds must not be related by
/// low-bit flips: the tournament keys committee graphs by
/// `seed ^ (level << 32) ^ node`, so seeds differing only in low bits
/// share cached graphs across trials.
pub fn trial_seed(workload_seed: u64, i: usize, warm_up: bool) -> u64 {
    mix(workload_seed ^ mix(2 * i as u64 + u64::from(warm_up)))
}

/// What a trial produced that traced and untraced runs must agree on.
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    pub decisions: Vec<Option<bool>>,
    pub rounds: usize,
    pub bits_per_proc: Vec<u64>,
    pub phase_bits: Vec<(String, u64)>,
    /// `NetStats` `Debug` output (`NetTransport` workloads only).
    pub net: Option<String>,
}

/// One finished trial.
pub struct Trial {
    pub seed: u64,
    /// Wall time of the `run_with_transport` call.
    pub wall_s: f64,
    /// `Err` when the trial panicked or failed a check.
    pub result: Result<Done, String>,
}

/// A trial that passed every check.
pub struct Done {
    pub digest: Digest,
    pub bits_good_max: u64,
    pub bits_good_mean: f64,
    /// Share of good processors deciding the tournament's bit, as
    /// `ba-exp` computes it.
    pub agreement: f64,
    pub net: Option<NetStats>,
    /// Present on traced trials.
    pub probe: Option<Probe>,
}

/// Runs and checks one trial; `traced` wraps the transport in [`Timed`].
pub fn run_trial(workload: Workload, seed: u64, traced: bool) -> Trial {
    let mut wall_s = 0.0;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let config = workload.config(seed);
        let inputs = workload.inputs(seed);
        let (out, wall, probe, net) = match workload.network(seed) {
            None => {
                let (out, _, wall, probe) =
                    drive(workload, &config, &inputs, Lockstep::default(), traced);
                (out, wall, probe, None)
            }
            Some(cfg) => {
                let transport = NetTransport::new(workload.n(), cfg);
                let (out, transport, wall, probe) =
                    drive(workload, &config, &inputs, transport, traced);
                (out, wall, probe, Some(transport.into_stats()))
            }
        };
        wall_s = wall;
        check(&out, &inputs)?;
        if let Some(p) = &probe {
            check_windows(p, wall)?;
        }
        Ok(summarize(out, net, probe))
    }))
    .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&panic))));
    Trial {
        seed,
        wall_s,
        result,
    }
}

/// Times one `run_with_transport` call, through the decorator when
/// `traced`.
fn drive<Tr: Transport<StackMsg>>(
    workload: Workload,
    config: &EverywhereConfig,
    inputs: &[bool],
    transport: Tr,
    traced: bool,
) -> (EverywhereOutcome, Tr, f64, Option<Probe>) {
    let start = Instant::now();
    if traced {
        let (out, timed) = call(workload, config, inputs, Timed::new(transport, start));
        let end = Instant::now();
        let (transport, probe) = timed.finish(end);
        (out, transport, (end - start).as_secs_f64(), Some(probe))
    } else {
        let (out, transport) = call(workload, config, inputs, transport);
        (out, transport, start.elapsed().as_secs_f64(), None)
    }
}

fn call<Tr: Transport<StackMsg>>(
    workload: Workload,
    config: &EverywhereConfig,
    inputs: &[bool],
    transport: Tr,
) -> (EverywhereOutcome, Tr) {
    match workload {
        Workload::Faults256 => run_with_transport(
            config,
            inputs,
            &mut CustodyBuster {
                aggressiveness: CUSTODY_AGGRESSIVENESS,
            },
            Overloader {
                count: FLOOD_COUNT,
                labels: config.ae.labels,
                copies: FLOOD_COPIES,
            },
            transport,
        ),
        Workload::Scale4096 | Workload::Paper1024 => run_with_transport(
            config,
            inputs,
            &mut NoTreeAdversary,
            NullAdversary,
            transport,
        ),
    }
}

/// Agreement, validity, termination and bit conservation.
fn check(out: &EverywhereOutcome, inputs: &[bool]) -> Result<(), String> {
    let good: Vec<usize> = (0..inputs.len()).filter(|&i| !out.corrupt[i]).collect();
    let first = good.first().ok_or("no good processor left")?;
    let bit = out.decisions[*first].ok_or(format!("good processor {first} did not decide"))?;
    for &i in &good {
        match out.decisions[i] {
            None => return Err(format!("good processor {i} did not decide")),
            Some(b) if b != bit => return Err(format!("good processors {first} and {i} disagree")),
            Some(_) => {}
        }
    }
    if !good.iter().any(|&i| inputs[i] == bit) {
        return Err(format!(
            "decided {bit}, which no good processor had as input"
        ));
    }
    let phases: u64 = out.phase_bits.iter().map(|(_, b)| b).sum();
    let total: u64 = out.bits_per_proc.iter().sum();
    if phases != total {
        return Err(format!(
            "phase_bits sum {phases} != bits_per_proc sum {total}"
        ));
    }
    Ok(())
}

/// The windows must cover the call exactly and name only known phases.
fn check_windows(probe: &Probe, wall: f64) -> Result<(), String> {
    if let Some((label, _)) = probe.windows.iter().find(|(l, _)| phase_group(l).is_none()) {
        return Err(format!("unknown phase label {label:?}"));
    }
    let sum = probe.wall_s();
    if (sum - wall).abs() > 1e-6 {
        return Err(format!("windows sum to {sum} s, trial took {wall} s"));
    }
    Ok(())
}

/// The per-layer bucket a window belongs to.
pub fn phase_group(label: &str) -> Option<&'static str> {
    match label {
        "deal" => Some("tournament.deal_s"),
        "root:coin" => Some("tournament.root_s"),
        "ae" => Some("ae_to_e.run_s"),
        l if l.starts_with('L') && l.ends_with(":expose") => Some("tournament.expose_agree_s"),
        l if l.starts_with('L') && l.ends_with(":winners") => Some("tournament.winners_s"),
        _ => None,
    }
}

fn summarize(out: EverywhereOutcome, net: Option<NetStats>, probe: Option<Probe>) -> Done {
    let stats = out.good_bit_stats();
    let good = out.corrupt.iter().filter(|&&c| !c).count().max(1);
    let agreeing = out
        .decisions
        .iter()
        .filter(|d| **d == Some(out.tournament.decided))
        .count();
    Done {
        bits_good_max: stats.max,
        bits_good_mean: stats.mean,
        agreement: agreeing as f64 / good as f64,
        digest: Digest {
            net: net.as_ref().map(|s| format!("{s:?}")),
            decisions: out.decisions,
            rounds: out.rounds,
            bits_per_proc: out.bits_per_proc,
            phase_bits: out.phase_bits,
        },
        net,
        probe,
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// Checks that `ba_exp::run_trial` on the equivalent spec reproduces a
/// trial of this driver: same total bits, rounds, agreement and
/// `NetStats`.
pub fn cross_check(workload: Workload, done: &Done, seed: u64) -> Result<(), String> {
    let Some(spec) = workload.run_spec(seed) else {
        return Ok(());
    };
    let reference = ba_exp::run_trial(&spec, 0)?;
    let total: u64 = done.digest.bits_per_proc.iter().sum();
    let ours = (
        total,
        done.digest.rounds,
        done.agreement,
        done.digest.net.clone(),
    );
    let theirs = (
        reference.total_bits,
        reference.rounds,
        reference.agreement,
        reference.net.as_ref().map(|s| format!("{s:?}")),
    );
    if ours != theirs {
        return Err(format!(
            "seed {seed}: driver (bits, rounds, agreement, net) = {ours:?}, ba_exp::run_trial = {theirs:?}"
        ));
    }
    Ok(())
}
