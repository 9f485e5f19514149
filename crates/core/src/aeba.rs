//! Algorithm 5: almost-everywhere Byzantine agreement with unreliable
//! global coins (paper §A.2, Theorem 3/Theorem 5).
//!
//! Every processor holds a vote bit and gossips it to its neighbors in a
//! sparse random regular graph `G` each round. If a processor sees a
//! super-majority (`fraction ≥ (1−ε₀)(2/3 + ε/2)`) for the majority bit it
//! adopts it; otherwise it adopts the round's *global coin*. The coin
//! source is unreliable: some rounds fail entirely (the adversary knows
//! and controls them) and even in successful rounds a small fraction of
//! processors sees the wrong value — exactly the guarantee the tournament
//! (§3.5) can provide. Lemmas 11–13: one successful coin round puts all
//! but `O(n/log n)` good processors on a common bit with probability 1/2,
//! and super-majorities are sticky ever after.
//!
//! This module runs the algorithm two ways:
//!
//! * [`AebaProcess`] — a per-processor state machine exchanging real vote
//!   messages through the `ba-sim` engine (used by experiment E4 and the
//!   standalone examples);
//! * [`run_committee`] — an in-memory execution among the members of one
//!   tree committee, used by the tournament executor where thousands of
//!   committee-level agreements run per protocol execution.

use ba_sampler::RegularGraph;
use ba_sim::{derive_rng, Envelope, Payload, ProcId, Process, RoundCtx};
use rand::Rng;
use std::sync::Arc;

/// Configuration for one AEBA execution.
#[derive(Clone, Debug)]
pub struct AebaConfig {
    /// Number of gossip rounds.
    pub rounds: usize,
    /// ε₀: the slack in the super-majority threshold (paper Lemma 11;
    /// any small positive constant).
    pub eps0: f64,
    /// ε: the adversary-tolerance slack (`< 1/3 − ε` corrupt).
    pub eps: f64,
}

impl Default for AebaConfig {
    fn default() -> Self {
        AebaConfig {
            rounds: 30,
            // The supermajority threshold (1−ε₀)(2/3 + ε/2) must sit
            // inside the window (bad + good/2, good·(1−noise)): above it
            // equivocators manufacture fake supermajorities that trap
            // split committees in oscillation; below it sampling noise
            // knocks informed processors onto the coin and erodes
            // validity (Lemma 12). ε = 0.1, ε₀ = 0.04 centres it:
            // T ≈ 0.688 vs. manufactured ≤ 0.617 and unanimity ≈ 0.767.
            eps0: 0.04,
            eps: 0.1,
        }
    }
}

impl AebaConfig {
    /// The vote-adoption threshold `(1−ε₀)(2/3 + ε/2)` from Algorithm 5
    /// step 6.
    pub fn supermajority(&self) -> f64 {
        (1.0 - self.eps0) * (2.0 / 3.0 + self.eps / 2.0)
    }
}

/// The unreliable global coin of Theorem 3: a schedule of rounds, each
/// either *successful* (a uniform bit almost all good processors learn) or
/// *failed* (the adversary dictates what every processor sees).
///
/// ```rust
/// use ba_core::aeba::UnreliableCoin;
/// let coin = UnreliableCoin::generate(10, 0.7, 0.02, 99);
/// assert_eq!(coin.rounds(), 10);
/// // Views are deterministic per (processor, round).
/// assert_eq!(coin.view(3, 0, false), coin.view(3, 0, false));
/// ```
#[derive(Clone, Debug)]
pub struct UnreliableCoin {
    /// `Some(bit)` = successful round; `None` = failed round.
    schedule: Vec<Option<bool>>,
    /// Fraction of good processors that see a garbage value even in a
    /// successful round (paper: `O(1/log n)`).
    blind_fraction: f64,
    seed: u64,
}

impl UnreliableCoin {
    /// Generates a schedule of `rounds` coins where each round succeeds
    /// independently with probability `success_rate`, and successful
    /// values are uniform. `blind_fraction` of processors mis-see each
    /// successful coin.
    pub fn generate(rounds: usize, success_rate: f64, blind_fraction: f64, seed: u64) -> Self {
        let mut rng = derive_rng(seed, 0x0C01);
        let schedule = (0..rounds)
            .map(|_| {
                if rng.gen_bool(success_rate.clamp(0.0, 1.0)) {
                    Some(rng.gen_bool(0.5))
                } else {
                    None
                }
            })
            .collect();
        UnreliableCoin {
            schedule,
            blind_fraction,
            seed,
        }
    }

    /// A fully reliable coin (every round succeeds, everyone sees it):
    /// the baseline regime where Rabin's argument gives expected O(1)
    /// rounds to agreement.
    pub fn perfect(rounds: usize, seed: u64) -> Self {
        Self::generate(rounds, 1.0, 0.0, seed)
    }

    /// Builds a schedule directly (tests and the tournament, which opens
    /// coin words from candidate arrays).
    pub fn from_schedule(schedule: Vec<Option<bool>>, blind_fraction: f64, seed: u64) -> Self {
        UnreliableCoin {
            schedule,
            blind_fraction,
            seed,
        }
    }

    /// Number of scheduled rounds.
    pub fn rounds(&self) -> usize {
        self.schedule.len()
    }

    /// Whether round `r` is a successful coin.
    pub fn is_success(&self, r: usize) -> bool {
        self.schedule.get(r).copied().flatten().is_some()
    }

    /// Number of successful rounds in the schedule.
    pub fn successes(&self) -> usize {
        self.schedule.iter().filter(|s| s.is_some()).count()
    }

    /// What processor `who` sees for round `r`. In a failed round every
    /// processor sees `adversary_bit`; in a successful round a
    /// `blind_fraction` of processors (pseudo-randomly per `(who, r)`)
    /// sees a private random bit instead of the true coin.
    pub fn view(&self, who: usize, r: usize, adversary_bit: bool) -> bool {
        match self.schedule.get(r).copied().flatten() {
            None => adversary_bit,
            Some(bit) => {
                let mut rng = derive_rng(self.seed, 0xB11D ^ ((who as u64) << 24) ^ r as u64);
                if rng.gen_bool(self.blind_fraction.clamp(0.0, 1.0)) {
                    rng.gen_bool(0.5)
                } else {
                    bit
                }
            }
        }
    }
}

/// Vote message: the current vote bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoteMsg(pub bool);

impl Payload for VoteMsg {
    fn bit_len(&self) -> u64 {
        1
    }
}

impl ba_sim::WireMsg for VoteMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        ba_sim::wire::put_bool(out, self.0);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ba_sim::WireError> {
        Ok(VoteMsg(ba_sim::wire::take_bool(buf)?))
    }
}

/// Per-processor state machine for Algorithm 5 over the `ba-sim` engine.
///
/// Round structure: in round `r` the processor first digests the votes
/// delivered from round `r−1` (majority / fraction / coin / update), then
/// broadcasts its (possibly updated) vote to its graph neighbors. After
/// `config.rounds` full rounds it commits to its vote.
#[derive(Debug)]
pub struct AebaProcess {
    me: usize,
    vote: bool,
    committed: Option<bool>,
    graph: Arc<RegularGraph>,
    coin: Arc<UnreliableCoin>,
    config: AebaConfig,
    /// What this processor would see in failed coin rounds — the engine's
    /// adversary cannot reach inside [`UnreliableCoin`], so the worst-case
    /// bit is fixed at construction by the experiment (e.g. the minority
    /// input bit).
    adversary_coin_bit: bool,
}

impl AebaProcess {
    /// Creates the processor with its input vote.
    pub fn new(
        me: ProcId,
        input: bool,
        graph: Arc<RegularGraph>,
        coin: Arc<UnreliableCoin>,
        config: AebaConfig,
        adversary_coin_bit: bool,
    ) -> Self {
        AebaProcess {
            me: me.index(),
            vote: input,
            committed: None,
            graph,
            coin,
            config,
            adversary_coin_bit,
        }
    }

    /// The current (not yet committed) vote — visible to the adversary
    /// once the processor is corrupted, and to experiments for
    /// convergence traces.
    pub fn current_vote(&self) -> bool {
        self.vote
    }

    fn digest(&mut self, inbox: &[Envelope<VoteMsg>], coin_round: usize) {
        // Count one vote per neighbor sender (flood defence: duplicates
        // from the same sender beyond its edge multiplicity are ignored).
        let mut allowed: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for &u in self.graph.neighbors(self.me) {
            *allowed.entry(u as usize).or_insert(0) += 1;
        }
        let mut ones = 0usize;
        let mut total = 0usize;
        for e in inbox {
            let from = e.from.index();
            if let Some(quota) = allowed.get_mut(&from) {
                if *quota > 0 {
                    *quota -= 1;
                    total += 1;
                    if e.payload.0 {
                        ones += 1;
                    }
                }
            }
        }
        if total == 0 {
            return; // isolated this round; keep current vote
        }
        let maj = 2 * ones >= total;
        let maj_count = if maj { ones } else { total - ones };
        let fraction = maj_count as f64 / total as f64;
        if fraction >= self.config.supermajority() {
            self.vote = maj;
        } else {
            self.vote = self.coin.view(self.me, coin_round, self.adversary_coin_bit);
        }
    }
}

impl Process for AebaProcess {
    type Msg = VoteMsg;
    type Output = bool;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, VoteMsg>, inbox: &[Envelope<VoteMsg>]) {
        let r = ctx.round();
        if r > 0 {
            self.digest(inbox, r - 1);
        }
        if r < self.config.rounds {
            let vote = self.vote;
            let neighbors: Vec<u32> = self.graph.neighbors(self.me).to_vec();
            for u in neighbors {
                ctx.send(ProcId::new(u as usize), VoteMsg(vote));
            }
        } else if self.committed.is_none() {
            self.committed = Some(self.vote);
        }
    }

    fn output(&self) -> Option<bool> {
        self.committed
    }
}

/// Lemma 11 diagnostics: the fraction of good members that are *informed*
/// for a voting configuration — their neighborhood estimate of the
/// majority-bit fraction lies within the window
/// `[(1−ε₀)·f′, (1+ε₀)·(f′ + 1/3 − ε)]`, where `f′` is the true fraction
/// of good members voting the good-majority bit. Lemma 11 proves all but
/// `O(k/log k)` members are informed w.h.p. for `k·log n`-degree graphs;
/// this measures it for concrete graphs (experiment E4 and the
/// threshold-window analysis in the module docs).
///
/// Corrupt neighbors are counted as voting against the good majority —
/// the adversary's strongest uniform play.
///
/// # Panics
///
/// Panics if slice lengths disagree with the graph.
pub fn informed_fraction(
    good: &[bool],
    votes: &[bool],
    graph: &RegularGraph,
    config: &AebaConfig,
) -> f64 {
    let k = good.len();
    assert_eq!(votes.len(), k, "votes/good length mismatch");
    assert_eq!(graph.len(), k, "graph size mismatch");
    let good_total = good.iter().filter(|&&g| g).count().max(1);
    let good_ones = (0..k).filter(|&i| good[i] && votes[i]).count();
    let maj = 2 * good_ones >= good_total;
    // Paper: "let S′ be the set of good processors that will vote for b′
    // and let f′ = |S′|/n" — relative to the whole committee, not to the
    // good members.
    let f_prime = if maj {
        good_ones as f64 / k as f64
    } else {
        (good_total - good_ones) as f64 / k as f64
    };
    let lo = (1.0 - config.eps0) * f_prime;
    let hi = (1.0 + config.eps0) * (f_prime + 1.0 / 3.0 - config.eps);
    let mut informed = 0usize;
    for i in 0..k {
        if !good[i] {
            continue;
        }
        let mut maj_votes = 0usize;
        let mut total = 0usize;
        for &u in graph.neighbors(i) {
            let u = u as usize;
            total += 1;
            if good[u] && votes[u] == maj {
                maj_votes += 1;
            }
        }
        if total == 0 {
            continue;
        }
        let fraction = maj_votes as f64 / total as f64;
        if fraction >= lo && fraction <= hi {
            informed += 1;
        }
    }
    informed as f64 / good_total as f64
}

/// Behaviour of corrupt members inside an in-memory committee execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CommitteeAttack {
    /// Corrupt members vote like good ones (crash-quiet would weaken them
    /// more): baseline.
    #[default]
    Passive,
    /// Corrupt members always vote the given fixed bit.
    Fixed(bool),
    /// Corrupt members tell each good member the *opposite* of that
    /// member's current vote, maximizing disagreement (rushing: they see
    /// good votes first).
    Oppose,
    /// Corrupt members split: half vote 0, half vote 1, keeping the
    /// committee near the threshold.
    Split,
}

/// Result of an in-memory committee agreement.
#[derive(Clone, Debug)]
pub struct CommitteeOutcome {
    /// Final vote of every member (corrupt members' slots hold their last
    /// declared vote).
    pub votes: Vec<bool>,
    /// Fraction of *good* members on the plurality bit.
    pub agreement: f64,
    /// The plurality bit among good members.
    pub decided: bool,
}

/// Runs Algorithm 5 among `k` committee members entirely in memory (the
/// tournament runs thousands of these). `good[i]` flags honest members;
/// `inputs[i]` are initial votes; `coins[r]` is what member `i` sees via
/// `coin_view(i, r)`; corrupt members follow `attack` with full rushing
/// knowledge.
///
/// # Panics
///
/// Panics if input slices disagree in length or the graph size differs.
#[allow(clippy::too_many_arguments)]
pub fn run_committee<R: Rng + ?Sized>(
    good: &[bool],
    inputs: &[bool],
    graph: &RegularGraph,
    coin_view: impl Fn(usize, usize) -> bool,
    rounds: usize,
    config: &AebaConfig,
    attack: CommitteeAttack,
    rng: &mut R,
) -> CommitteeOutcome {
    run_committee_traced(good, inputs, graph, coin_view, rounds, config, attack, rng).0
}

/// [`run_committee`] plus the per-round convergence trace: element `r` of
/// the returned vector is the fraction of good members on the good
/// plurality bit *after* round `r` — the series Lemmas 12/13 describe and
/// experiment E4a plots.
///
/// A round that consults no coin and changes no vote (corrupt members'
/// declared slots included) is a fixed point: every later round would
/// repeat it exactly, so the kernel pads the trace with its value and
/// stops. This never applies under [`CommitteeAttack::Split`], whose
/// corrupt members draw from `rng` every round.
///
/// Under every other attack each member's edge carries the same declared
/// vote to every receiver, so the kernel keeps each good member's
/// neighbour sum of declared ones from round to round. When few members
/// changed their declaration it scatters just those; otherwise, when few
/// hold the minority bit, it rebuilds the sums by scattering that bit;
/// otherwise it gathers every good member's edges, as the reference
/// does. Scattering from `u` over `N(u)` equals gathering over `N(v)`
/// because [`RegularGraph`] adjacency is symmetric with multiplicity.
/// `Split` always gathers per neighbour: its `rng` draws must stay in
/// `(member, neighbour)` order.
///
/// Outcome, trace, the `coin_view` call sequence and the `rng` stream
/// are identical to [`reference::run_committee_traced`], which runs every
/// round and gathers every edge.
#[allow(clippy::too_many_arguments)]
pub fn run_committee_traced<R: Rng + ?Sized>(
    good: &[bool],
    inputs: &[bool],
    graph: &RegularGraph,
    coin_view: impl Fn(usize, usize) -> bool,
    rounds: usize,
    config: &AebaConfig,
    attack: CommitteeAttack,
    rng: &mut R,
) -> (CommitteeOutcome, Vec<f64>) {
    let k = good.len();
    assert_eq!(inputs.len(), k, "inputs/good length mismatch");
    assert_eq!(graph.len(), k, "graph size mismatch");
    let threshold = config.supermajority();
    let good_total = good.iter().filter(|&&g| g).count().max(1);
    let good_ones = |votes: &[bool]| (0..k).filter(|&i| good[i] && votes[i]).count();
    // Oppose: a corrupt neighbour always reports the opposite of the
    // receiver's vote, so each good member's count is its good
    // neighbours' ones plus, when it votes 0, its corrupt-edge count.
    let bad_edges: Vec<usize> = if attack == CommitteeAttack::Oppose {
        (0..k)
            .map(|i| {
                graph
                    .neighbors(i)
                    .iter()
                    .filter(|&&u| !good[u as usize])
                    .count()
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut votes: Vec<bool> = inputs.to_vec();
    let mut next = votes.clone();
    // What each member's edge carries to a good receiver this round
    // (receiver-independent for every attack but Split), the members
    // whose declaration changed since the previous round (all zeros
    // before round 0), and each member's neighbour sum of `declared`
    // ones, which is kept current for good members. The declarations
    // are padded to a power of two so the masked gather below needs no
    // bounds check.
    let mask = k.next_power_of_two() - 1;
    let mut declared: Vec<u8> = vec![0; mask + 1];
    let mut flipped: Vec<usize> = Vec::new();
    let mut ones_in: Vec<u32> = vec![0; k];
    let mut trace = Vec::with_capacity(rounds);

    for r in 0..rounds {
        // Rushing: good votes for this round are the current `votes`;
        // corrupt members choose their outgoing votes knowing them.
        let good_majority = 2 * good_ones(&votes) >= good_total;
        flipped.clear();
        for (u, d) in declared[..k].iter_mut().enumerate() {
            let now = u8::from(match attack {
                CommitteeAttack::Fixed(b) if !good[u] => b,
                CommitteeAttack::Oppose | CommitteeAttack::Split if !good[u] => false,
                _ => votes[u],
            });
            if *d != now {
                *d = now;
                flipped.push(u);
            }
        }
        // Whether `ones_in` is brought up to date by scattering; if not,
        // the loop below gathers each good member's sum and stores it.
        let scattered = attack != CommitteeAttack::Split
            && if flipped.len() * SCATTER_SHARE <= k {
                for &u in &flipped {
                    scatter(graph, u, declared[u] == 1, &mut ones_in);
                }
                true
            } else {
                scatter_minority(graph, &declared[..k], &mut ones_in)
            };
        let mut coin_used = false;
        for i in 0..k {
            if !good[i] {
                continue;
            }
            next[i] = votes[i];
            let nbrs = graph.neighbors(i);
            let total = nbrs.len();
            if total == 0 {
                continue;
            }
            let ones = match attack {
                CommitteeAttack::Split => {
                    let mut ones = 0usize;
                    for &u in nbrs {
                        let u = u as usize;
                        let v = if good[u] {
                            votes[u]
                        } else if u.is_multiple_of(2) {
                            // Deterministic half/half split by member id.
                            !good_majority
                        } else {
                            rng.gen_bool(0.5)
                        };
                        ones += usize::from(v);
                    }
                    ones
                }
                _ => {
                    let sum = if scattered {
                        ones_in[i]
                    } else {
                        ones_in[i] = nbrs
                            .iter()
                            .map(|&u| u32::from(declared[u as usize & mask]))
                            .sum();
                        ones_in[i]
                    } as usize;
                    if attack == CommitteeAttack::Oppose && !votes[i] {
                        sum + bad_edges[i]
                    } else {
                        sum
                    }
                }
            };
            let maj = 2 * ones >= total;
            let maj_count = if maj { ones } else { total - ones };
            let fraction = maj_count as f64 / total as f64;
            next[i] = if fraction >= threshold {
                maj
            } else {
                coin_used = true;
                coin_view(i, r)
            };
        }
        // Corrupt members' declared votes for bookkeeping.
        for i in 0..k {
            if !good[i] {
                next[i] = match attack {
                    CommitteeAttack::Passive => votes[i],
                    CommitteeAttack::Fixed(b) => b,
                    CommitteeAttack::Oppose => !good_majority,
                    CommitteeAttack::Split => i % 2 == 0,
                };
            }
        }
        let fixed_point = attack != CommitteeAttack::Split && !coin_used && next == votes;
        std::mem::swap(&mut votes, &mut next);
        // Trace: plurality agreement among good members after this round.
        let ones = good_ones(&votes);
        let plur = ones.max(good_total - ones);
        trace.push(plur as f64 / good_total as f64);
        if fixed_point {
            let last = trace[r];
            trace.resize(rounds, last);
            break;
        }
    }

    let decided = 2 * good_ones(&votes) >= good_total;
    let agreeing = (0..k).filter(|&i| good[i] && votes[i] == decided).count();
    (
        CommitteeOutcome {
            votes,
            agreement: agreeing as f64 / good_total as f64,
            decided,
        },
        trace,
    )
}

/// A scatter costs a read-modify-write per edge of each member it
/// visits, where a gather reads each good member's edges once: the
/// committee kernel scatters only when at most one member in
/// `SCATTER_SHARE` needs visiting. (On x86-64, scattering the changed
/// votes of a 128-member committee in which most members flip every
/// round measured nearly twice as slow as gathering it.)
const SCATTER_SHARE: usize = 4;

/// Moves `ones_in[v]` by one for every edge `(u, v)`, up when `u` now
/// declares one and down when it now declares zero: with symmetric
/// adjacency, `u`'s edges are exactly the entries its vote counts in.
/// Wrapping, because a corrupt member's entry may be stale (only good
/// members' sums are read and kept current).
fn scatter(graph: &RegularGraph, u: usize, up: bool, ones_in: &mut [u32]) {
    let delta = if up { 1 } else { u32::MAX };
    for &v in graph.neighbors(u) {
        let sum = &mut ones_in[v as usize];
        *sum = sum.wrapping_add(delta);
    }
}

/// When few members hold the minority bit, sets every `ones_in[v]` to
/// the number of declared ones on `v`'s edges and returns `true`: the
/// ones are scattered onto all-zeros, or the zeros subtracted from each
/// degree. Otherwise leaves `ones_in` to the caller's gather.
fn scatter_minority(graph: &RegularGraph, declared: &[u8], ones_in: &mut [u32]) -> bool {
    let k = declared.len();
    let ones = declared.iter().filter(|&&d| d == 1).count();
    if ones.min(k - ones) * SCATTER_SHARE > k {
        return false;
    }
    let minority = u8::from(2 * ones <= k);
    for (v, sum) in ones_in.iter_mut().enumerate() {
        *sum = if minority == 1 {
            0
        } else {
            graph.degree(v) as u32
        };
    }
    for u in (0..k).filter(|&u| declared[u] == minority) {
        scatter(graph, u, minority == 1, ones_in);
    }
    true
}

/// The original round-by-round committee kernel, retained verbatim as
/// the reference oracle (the `mul_ref` / `iterated::reference` pattern):
/// it runs every scheduled round and re-derives each received vote per
/// edge. The `aeba_kernel` property test pins
/// [`super::run_committee_traced`] against it. Nothing outside tests and
/// benches should prefer it.
pub mod reference {
    use super::{AebaConfig, CommitteeAttack, CommitteeOutcome};
    use ba_sampler::RegularGraph;
    use rand::Rng;

    /// See [`super::run_committee_traced`]; same contract, every round
    /// executed.
    #[allow(clippy::too_many_arguments)]
    pub fn run_committee_traced<R: Rng + ?Sized>(
        good: &[bool],
        inputs: &[bool],
        graph: &RegularGraph,
        coin_view: impl Fn(usize, usize) -> bool,
        rounds: usize,
        config: &AebaConfig,
        attack: CommitteeAttack,
        rng: &mut R,
    ) -> (CommitteeOutcome, Vec<f64>) {
        let k = good.len();
        assert_eq!(inputs.len(), k, "inputs/good length mismatch");
        assert_eq!(graph.len(), k, "graph size mismatch");
        let mut votes: Vec<bool> = inputs.to_vec();
        let threshold = config.supermajority();
        let mut trace = Vec::with_capacity(rounds);

        for r in 0..rounds {
            // Rushing: good votes for this round are the current `votes`;
            // corrupt members choose their outgoing votes knowing them.
            let good_ones = (0..k).filter(|&i| good[i] && votes[i]).count();
            let good_total = good.iter().filter(|&&g| g).count().max(1);
            let good_majority = 2 * good_ones >= good_total;
            let mut next = votes.clone();
            for (i, nv) in next.iter_mut().enumerate() {
                if !good[i] {
                    continue;
                }
                let mut ones = 0usize;
                let mut total = 0usize;
                for &u in graph.neighbors(i) {
                    let u = u as usize;
                    let v = if good[u] {
                        votes[u]
                    } else {
                        match attack {
                            CommitteeAttack::Passive => votes[u],
                            CommitteeAttack::Fixed(b) => b,
                            CommitteeAttack::Oppose => !votes[i],
                            CommitteeAttack::Split => {
                                // Deterministic half/half split by member id.
                                if u.is_multiple_of(2) {
                                    !good_majority
                                } else {
                                    rng.gen_bool(0.5)
                                }
                            }
                        }
                    };
                    total += 1;
                    if v {
                        ones += 1;
                    }
                }
                if total == 0 {
                    continue;
                }
                let maj = 2 * ones >= total;
                let maj_count = if maj { ones } else { total - ones };
                let fraction = maj_count as f64 / total as f64;
                *nv = if fraction >= threshold {
                    maj
                } else {
                    coin_view(i, r)
                };
            }
            // Corrupt members' declared votes for bookkeeping.
            for (i, nv) in next.iter_mut().enumerate() {
                if !good[i] {
                    *nv = match attack {
                        CommitteeAttack::Passive => votes[i],
                        CommitteeAttack::Fixed(b) => b,
                        CommitteeAttack::Oppose => !good_majority,
                        CommitteeAttack::Split => i % 2 == 0,
                    };
                }
            }
            votes = next;
            // Trace: plurality agreement among good members after this round.
            let ones = (0..k).filter(|&i| good[i] && votes[i]).count();
            let total = good.iter().filter(|&&g| g).count().max(1);
            let plur = ones.max(total - ones);
            trace.push(plur as f64 / total as f64);
        }

        let good_ones = (0..k).filter(|&i| good[i] && votes[i]).count();
        let good_total = good.iter().filter(|&&g| g).count().max(1);
        let decided = 2 * good_ones >= good_total;
        let agreeing = (0..k).filter(|&i| good[i] && votes[i] == decided).count();
        (
            CommitteeOutcome {
                votes,
                agreement: agreeing as f64 / good_total as f64,
                decided,
            },
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{NullAdversary, SimBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn graph(n: usize, seed: u64) -> Arc<RegularGraph> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let degree = (3.0 * (n as f64).log2()).ceil() as usize;
        Arc::new(RegularGraph::random_out_degree(n, degree, &mut rng))
    }

    #[test]
    fn unanimous_inputs_stay_valid() {
        // Validity (Lemma 12): all good processors start with 1 → all end 1,
        // regardless of coin quality.
        let n = 120;
        let g = graph(n, 1);
        let coin = Arc::new(UnreliableCoin::generate(30, 0.2, 0.1, 7));
        let cfg = AebaConfig::default();
        let outcome = SimBuilder::new(n)
            .seed(5)
            .build(
                |p, _| AebaProcess::new(p, true, g.clone(), coin.clone(), cfg.clone(), false),
                NullAdversary,
            )
            .run(cfg.rounds + 2);
        assert!(outcome.all_good_agree_on(&true));
    }

    #[test]
    fn split_inputs_converge_with_good_coins() {
        let n = 150;
        let g = graph(n, 2);
        let coin = Arc::new(UnreliableCoin::generate(30, 0.8, 0.02, 11));
        let cfg = AebaConfig::default();
        let outcome = SimBuilder::new(n)
            .seed(6)
            .build(
                |p, _| {
                    AebaProcess::new(
                        p,
                        p.index() % 2 == 0,
                        g.clone(),
                        coin.clone(),
                        cfg.clone(),
                        false,
                    )
                },
                NullAdversary,
            )
            .run(cfg.rounds + 2);
        assert!(
            outcome.good_agreement_fraction() > 0.95,
            "agreement fraction {}",
            outcome.good_agreement_fraction()
        );
    }

    #[test]
    fn bit_cost_is_degree_times_rounds() {
        let n = 64;
        let g = graph(n, 3);
        let coin = Arc::new(UnreliableCoin::perfect(10, 1));
        let cfg = AebaConfig {
            rounds: 10,
            ..AebaConfig::default()
        };
        let outcome = SimBuilder::new(n)
            .seed(7)
            .build(
                |p, _| AebaProcess::new(p, true, g.clone(), coin.clone(), cfg.clone(), false),
                NullAdversary,
            )
            .run(cfg.rounds + 2);
        // Each processor sends deg(v) one-bit votes per round for 10 rounds.
        for v in 0..n {
            let expect = (g.degree(v) * 10) as u64;
            assert_eq!(outcome.metrics.bits_sent_by(ProcId::new(v)), expect);
        }
    }

    #[test]
    fn coin_views_respect_schedule() {
        let coin = UnreliableCoin::from_schedule(vec![Some(true), None, Some(false)], 0.0, 3);
        assert!(coin.is_success(0));
        assert!(!coin.is_success(1));
        assert_eq!(coin.successes(), 2);
        // Successful rounds: everyone (blind_fraction 0) sees the bit.
        for who in 0..20 {
            assert!(coin.view(who, 0, false));
            assert!(!coin.view(who, 2, true));
            // Failed round: adversary bit.
            assert!(coin.view(who, 1, true));
            assert!(!coin.view(who, 1, false));
        }
    }

    #[test]
    fn blind_fraction_blinds_roughly_that_many() {
        let coin = UnreliableCoin::from_schedule(vec![Some(true)], 0.3, 9);
        let wrong = (0..2000).filter(|&who| !coin.view(who, 0, false)).count();
        // Blind processors see a *random* bit, so ~15% end up wrong.
        let frac = wrong as f64 / 2000.0;
        assert!((0.08..0.25).contains(&frac), "wrong fraction {frac}");
    }

    #[test]
    fn committee_unanimity_is_sticky() {
        let k = 60;
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let g = RegularGraph::random_out_degree(k, 12, &mut rng);
        let good = vec![true; k];
        let inputs = vec![true; k];
        let out = run_committee(
            &good,
            &inputs,
            &g,
            |_, _| false, // coin always says false; must not matter
            12,
            &AebaConfig::default(),
            CommitteeAttack::Passive,
            &mut rng,
        );
        assert!(out.decided);
        assert_eq!(out.agreement, 1.0);
        assert!(out.votes.iter().all(|&v| v));
    }

    #[test]
    fn committee_converges_under_oppose_attack() {
        let k = 90;
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        // Degree ≈ 6√k: the practical-scale concentration the threshold
        // window needs (see Params::practical).
        let g = RegularGraph::random_out_degree(k, 57, &mut rng);
        // 25% corrupt.
        let good: Vec<bool> = (0..k).map(|i| i % 4 != 0).collect();
        let inputs: Vec<bool> = (0..k).map(|i| i % 2 == 0).collect();
        let coin = UnreliableCoin::generate(25, 0.9, 0.02, 13);
        let out = run_committee(
            &good,
            &inputs,
            &g,
            |i, r| coin.view(i, r, false),
            25,
            &AebaConfig::default(),
            CommitteeAttack::Oppose,
            &mut rng,
        );
        assert!(
            out.agreement > 0.9,
            "committee agreement {} too low",
            out.agreement
        );
    }

    #[test]
    fn committee_validity_under_all_attacks() {
        let k = 80;
        for attack in [
            CommitteeAttack::Passive,
            CommitteeAttack::Fixed(false),
            CommitteeAttack::Oppose,
            CommitteeAttack::Split,
        ] {
            let mut rng = ChaCha12Rng::seed_from_u64(6);
            let g = RegularGraph::random_out_degree(k, 54, &mut rng);
            // 20% corrupt: with an adversarial coin that is *permanently*
            // wrong (harsher than any (s, 2s/3) coin sequence), validity
            // needs the full concentration margin; the 1/3 − ε budget is
            // exercised with realistic coins in the tests above.
            let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
            let inputs = vec![true; k]; // all good start at 1
            let out = run_committee(
                &good,
                &inputs,
                &g,
                |_, _| false,
                12,
                &AebaConfig::default(),
                attack,
                &mut rng,
            );
            assert!(out.decided, "validity broken by {attack:?}");
            assert!(
                out.agreement > 0.9,
                "{attack:?}: agreement {}",
                out.agreement
            );
        }
    }

    #[test]
    fn trace_is_monotone_to_unanimity_on_clean_unanimous_input() {
        let k = 40;
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let g = RegularGraph::random_out_degree(k, 16, &mut rng);
        let good = vec![true; k];
        let inputs = vec![true; k];
        let (out, trace) = run_committee_traced(
            &good,
            &inputs,
            &g,
            |_, _| false,
            10,
            &AebaConfig::default(),
            CommitteeAttack::Passive,
            &mut rng,
        );
        assert_eq!(trace.len(), 10);
        assert!(trace.iter().all(|&f| (f - 1.0).abs() < 1e-12));
        assert_eq!(out.agreement, 1.0);
    }

    #[test]
    fn trace_shows_convergence_from_split() {
        let k = 80;
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let g = RegularGraph::random_out_degree(k, 40, &mut rng);
        let good = vec![true; k];
        let inputs: Vec<bool> = (0..k).map(|i| i % 2 == 0).collect();
        let coin = UnreliableCoin::perfect(12, 3);
        let (_, trace) = run_committee_traced(
            &good,
            &inputs,
            &g,
            |i, r| coin.view(i, r, false),
            12,
            &AebaConfig::default(),
            CommitteeAttack::Passive,
            &mut rng,
        );
        assert!(trace[0] >= 0.5);
        assert!(
            *trace.last().unwrap() > 0.95,
            "no convergence in trace {trace:?}"
        );
        let _ = trace;
    }

    #[test]
    fn informed_fraction_high_on_dense_graph() {
        // Lemma 11: with a dense enough graph, nearly all good members'
        // neighborhood estimates land in the informedness window.
        let k = 200;
        let mut rng = ChaCha12Rng::seed_from_u64(21);
        let g = RegularGraph::random_out_degree(k, 90, &mut rng);
        let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
        let votes: Vec<bool> = (0..k).map(|i| i % 3 != 0).collect();
        // ε₀ sets the window width; at k = 200 the window needs ε₀ ≈ 0.12
        // for the noise to fit (the same laptop-scale arithmetic as the
        // threshold discussion in the module docs).
        let cfg = AebaConfig {
            eps0: 0.12,
            ..AebaConfig::default()
        };
        let f = informed_fraction(&good, &votes, &g, &cfg);
        assert!(f > 0.9, "informed fraction {f}");
    }

    #[test]
    fn informed_fraction_degrades_on_sparse_graph() {
        // The measurement must be able to fail: degree 4 neighborhoods
        // cannot estimate f' within ε₀.
        let k = 200;
        let mut rng = ChaCha12Rng::seed_from_u64(22);
        let g = RegularGraph::random_out_degree(k, 4, &mut rng);
        let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
        let votes: Vec<bool> = (0..k).map(|i| i % 3 != 0).collect();
        let sparse = informed_fraction(&good, &votes, &g, &AebaConfig::default());
        let mut rng = ChaCha12Rng::seed_from_u64(22);
        let g = RegularGraph::random_out_degree(k, 90, &mut rng);
        let dense = informed_fraction(&good, &votes, &g, &AebaConfig::default());
        assert!(
            sparse < dense,
            "sparse {sparse} should inform fewer than dense {dense}"
        );
    }

    #[test]
    fn supermajority_threshold_formula() {
        let cfg = AebaConfig {
            rounds: 1,
            eps0: 0.1,
            eps: 0.06,
        };
        let want = 0.9 * (2.0 / 3.0 + 0.03);
        assert!((cfg.supermajority() - want).abs() < 1e-12);
    }
}
