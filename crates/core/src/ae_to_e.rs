//! Algorithm 3: almost-everywhere → everywhere agreement (paper §4).
//!
//! After the tournament, `(1/2 + ε)n` *knowledgeable* processors agree on
//! a message `M` and share a global coin sequence; the rest are
//! *confused*. Each processor sends `a·log n` requests carrying each
//! label `i ∈ [√n]` to uniformly random processors. A global random label
//! `k ∈ [√n]` (from the coin sequence, hidden from the adversary until it
//! acts) selects which requests knowledgeable processors answer — and
//! they answer only if not *overloaded* (> √n·log n requests with label
//! `k`), which caps the bits any adversary can force them to send.
//! A requester decides `M` when enough answers for its most-answered
//! label agree (Lemmas 7–9); `Θ(log n)` independent loops drive the
//! failure probability to `n^{-c}` (Lemma 10).
//!
//! Private channels are load-bearing here: the adversary cannot see which
//! labels good processors sent where, so it cannot pre-corrupt the
//! responders of the winning label — this is how the protocol escapes the
//! `Ω(n^{1/3})` lower bound for pre-specified listening sets (§2).

use ba_sim::{derive_rng, Envelope, Payload, ProcId, Process, RoundCtx};
use rand::Rng;
use std::collections::HashMap;

/// Messages of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AeMsg {
    /// "Please answer if the global label selects `label`."
    Request {
        /// The request label in `[0, labels)`.
        label: u16,
    },
    /// A knowledgeable processor's answer.
    Response {
        /// The label being answered.
        label: u16,
        /// The carried message `M`.
        value: u64,
    },
}

impl Payload for AeMsg {
    fn bit_len(&self) -> u64 {
        match self {
            // A label is log₂√n ≤ 16 bits; charge the full word.
            AeMsg::Request { .. } => 16,
            AeMsg::Response { .. } => 16 + 64,
        }
    }
}

impl ba_sim::WireMsg for AeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use ba_sim::wire::{put_u16, put_u64, put_u8};
        match self {
            AeMsg::Request { label } => {
                put_u8(out, 0);
                put_u16(out, *label);
            }
            AeMsg::Response { label, value } => {
                put_u8(out, 1);
                put_u16(out, *label);
                put_u64(out, *value);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, ba_sim::WireError> {
        use ba_sim::wire::{take_u16, take_u64, take_u8};
        match take_u8(buf)? {
            0 => Ok(AeMsg::Request {
                label: take_u16(buf)?,
            }),
            1 => Ok(AeMsg::Response {
                label: take_u16(buf)?,
                value: take_u64(buf)?,
            }),
            t => Err(ba_sim::WireError::BadTag(t)),
        }
    }
}

/// Configuration for Algorithm 3.
#[derive(Clone, Debug)]
pub struct AeToEConfig {
    /// Label space size (paper: `√n`).
    pub labels: usize,
    /// Requests per label: `⌈a·log₂ n⌉` with the paper's constant `a`.
    pub per_label: usize,
    /// Loop repetitions `X` (paper: `Θ(log n)`).
    pub loops: usize,
    /// Overload cap (paper: `√n·log n` requests for the active label).
    pub overload_cap: usize,
    /// Decision threshold numerator: decide on `m` when
    /// `≥ threshold_frac · per_label` consistent answers arrive for the
    /// best label (paper: `1/2 + 3ε/8`).
    pub threshold_frac: f64,
    /// Seed from which the per-loop global labels `k` are derived (stands
    /// in for `GenerateSecretNumber`; knowledgeable processors know it).
    pub coin_seed: u64,
    /// When present, the actual opened coin words drive the per-loop
    /// labels (`k_lp = schedule[lp] mod labels`) instead of the seed —
    /// the composition Algorithm 4 uses, where bad words hand the
    /// adversary advance knowledge of some loops' labels.
    pub label_schedule: Option<Vec<u16>>,
}

impl AeToEConfig {
    /// Paper-shaped defaults for `n` processors with slack `eps`.
    pub fn for_n(n: usize, eps: f64) -> Self {
        let log_n = (n as f64).log2().max(1.0);
        let sqrt_n = (n as f64).sqrt();
        AeToEConfig {
            labels: sqrt_n.ceil() as usize,
            per_label: (2.0 * log_n).ceil() as usize,
            loops: (2.0 * log_n).ceil() as usize,
            overload_cap: (sqrt_n * log_n).ceil() as usize,
            threshold_frac: 0.5 + 3.0 * eps / 8.0,
            coin_seed: 0xC0DE,
            label_schedule: None,
        }
    }

    /// Drives per-loop labels from opened coin words (see
    /// [`AeToEConfig::label_schedule`]).
    pub fn with_label_schedule(mut self, words: Vec<u16>) -> Self {
        self.label_schedule = Some(words);
        self
    }

    /// The global label for a loop (what `GenerateSecretNumber(loop)`
    /// returns; knowledgeable processors compute this, the adversary
    /// learns it only by corrupting one of them — after requests are out).
    pub fn global_label(&self, lp: usize) -> u16 {
        if let Some(schedule) = &self.label_schedule {
            if !schedule.is_empty() {
                return schedule[lp % schedule.len()] % self.labels as u16;
            }
        }
        let mut rng = derive_rng(self.coin_seed, 0x5EC2E7 ^ lp as u64);
        rng.gen_range(0..self.labels as u16)
    }

    /// Rounds one full execution takes: two rounds per loop (requests,
    /// responses) plus a final tally round.
    pub fn total_rounds(&self) -> usize {
        2 * self.loops + 1
    }
}

/// Per-processor state machine for Algorithm 3.
#[derive(Debug)]
pub struct AeToEProcess {
    cfg: AeToEConfig,
    /// `Some(M)` = knowledgeable; `None` = confused.
    knowledge: Option<u64>,
    decided: Option<u64>,
    /// Whom this processor sent each label to in the current loop,
    /// indexed by label (the lists are cleared and refilled every loop).
    sent: Vec<Vec<ProcId>>,
    /// Responses received this loop, indexed by label: `(value, count)`
    /// pairs counting only processors that were actually sent that label.
    tally: Vec<Vec<(u64, usize)>>,
    /// Set once the full X-loop schedule has run; processors do not
    /// reveal their decision early (everyone participates in every loop —
    /// a processor cannot tell whether *others* have decided).
    finished: bool,
}

impl AeToEProcess {
    /// Creates a processor; `knowledge` is `Some(M)` for knowledgeable
    /// processors and `None` for confused ones.
    pub fn new(cfg: AeToEConfig, knowledge: Option<u64>) -> Self {
        AeToEProcess {
            cfg,
            knowledge,
            decided: knowledge,
            sent: Vec::new(),
            tally: Vec::new(),
            finished: false,
        }
    }

    /// Whether this processor started knowledgeable.
    pub fn is_knowledgeable(&self) -> bool {
        self.knowledge.is_some()
    }

    fn send_requests(&mut self, ctx: &mut RoundCtx<'_, AeMsg>) {
        let labels = self.cfg.labels;
        self.sent.resize_with(labels, Vec::new);
        self.tally.resize_with(labels, Vec::new);
        self.tally.iter_mut().for_each(Vec::clear);
        let n = ctx.n();
        for (label, targets) in (0..).zip(self.sent.iter_mut()) {
            targets.clear();
            for _ in 0..self.cfg.per_label {
                let j = ctx.rng().gen_range(0..n);
                targets.push(ProcId::new(j));
            }
            for &t in targets.iter() {
                ctx.send(t, AeMsg::Request { label });
            }
        }
    }

    fn answer_requests(
        &mut self,
        ctx: &mut RoundCtx<'_, AeMsg>,
        inbox: &[Envelope<AeMsg>],
        lp: usize,
    ) {
        // Confused processors cannot compute k and stay silent; that is
        // precisely why the adversary cannot learn k from them.
        let Some(m) = self.knowledge else { return };
        let k = self.cfg.global_label(lp);
        // Flood defence: a sender issuing more than n−1 requests total is
        // evidently corrupt (paper §4) and is ignored wholesale. No sender
        // can issue more requests than the inbox holds, so an inbox of
        // fewer than n envelopes has no sender to cut off and is not
        // counted.
        let n = ctx.n();
        let per_sender: Option<HashMap<ProcId, usize>> = (inbox.len() >= n).then(|| {
            let mut counts = HashMap::new();
            for e in inbox {
                if matches!(e.payload, AeMsg::Request { .. }) {
                    *counts.entry(e.from).or_insert(0) += 1;
                }
            }
            counts
        });
        let hot = |e: &&Envelope<AeMsg>| {
            matches!(e.payload, AeMsg::Request { label } if label == k)
                && per_sender.as_ref().is_none_or(|counts| counts[&e.from] < n)
        };
        if inbox.iter().filter(hot).count() > self.cfg.overload_cap {
            return; // overloaded: answer nobody (Alg. 3 step 3)
        }
        for e in inbox.iter().filter(hot) {
            ctx.send(e.from, AeMsg::Response { label: k, value: m });
        }
    }

    /// Tallies the loop's responses and decides per Alg. 3 step 4: the
    /// label with the most counted responses is the best one, and its
    /// most frequent value is decided once it reaches the threshold.
    /// Ties go to the lowest label, and within the best label to the
    /// lowest value, so the choice never depends on arrival or hash order.
    fn collect_responses(&mut self, inbox: &[Envelope<AeMsg>]) {
        for e in inbox {
            let AeMsg::Response { label, value } = e.payload else {
                continue;
            };
            // Count only answers from processors actually sent this label.
            let Some(targets) = self.sent.get(usize::from(label)) else {
                continue;
            };
            if !targets.contains(&e.from) {
                continue;
            }
            let counts = &mut self.tally[usize::from(label)];
            match counts.iter_mut().find(|(v, _)| *v == value) {
                Some((_, c)) => *c += 1,
                None => counts.push((value, 1)),
            }
        }
        if self.decided.is_some() {
            return;
        }
        let mut best: &[(u64, usize)] = &[];
        let mut best_total = 0;
        for counts in &self.tally {
            let total = counts.iter().map(|&(_, c)| c).sum::<usize>();
            if total > best_total {
                (best, best_total) = (counts, total);
            }
        }
        let Some((value, count)) = best
            .iter()
            .copied()
            .min_by_key(|&(v, c)| (std::cmp::Reverse(c), v))
        else {
            return; // no counted response this loop
        };
        let need = (self.cfg.threshold_frac * self.cfg.per_label as f64).ceil() as usize;
        if count >= need {
            self.decided = Some(value);
        }
    }
}

impl Process for AeToEProcess {
    type Msg = AeMsg;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, AeMsg>, inbox: &[Envelope<AeMsg>]) {
        let r = ctx.round();
        let total = self.cfg.total_rounds();
        if r >= total {
            self.finished = true;
            return;
        }
        if r % 2 == 0 {
            // Tally the previous loop's responses, then (if loops remain)
            // fire the next loop's requests. Every processor requests in
            // every loop — nobody can tell whether the others decided.
            if r > 0 {
                self.collect_responses(inbox);
            }
            if r < 2 * self.cfg.loops {
                self.send_requests(ctx);
            }
            if r == total - 1 {
                self.finished = true;
            }
        } else {
            let lp = r / 2;
            self.answer_requests(ctx, inbox, lp);
        }
    }

    fn output(&self) -> Option<u64> {
        // Decisions are revealed only after the full X-loop schedule;
        // `None` afterwards means "undecided" (Lemma 7(2) permits this
        // with vanishing probability).
        if self.finished {
            self.decided
        } else {
            None
        }
    }
}

/// Aggregate result of one Algorithm 3 execution (built by experiments
/// from a `RunOutcome<u64>`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AeToEOutcome {
    /// Good processors that ended agreeing on the knowledgeable message.
    pub agreed: usize,
    /// Good processors still undecided.
    pub undecided: usize,
    /// Good processors deciding a *wrong* value (must be 0 w.h.p. —
    /// Lemma 7(2)).
    pub wrong: usize,
}

impl AeToEOutcome {
    /// Tallies a run against the true message `m`.
    pub fn from_outputs(outputs: &[Option<u64>], corrupt: &[bool], m: u64) -> Self {
        let mut agreed = 0;
        let mut undecided = 0;
        let mut wrong = 0;
        for (o, &c) in outputs.iter().zip(corrupt) {
            if c {
                continue;
            }
            match o {
                Some(v) if *v == m => agreed += 1,
                Some(_) => wrong += 1,
                None => undecided += 1,
            }
        }
        AeToEOutcome {
            agreed,
            undecided,
            wrong,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{NullAdversary, SimBuilder};

    const M: u64 = 0xFACE_FEED;

    fn run_basic(
        n: usize,
        knowledgeable_frac: f64,
        seed: u64,
    ) -> (AeToEOutcome, ba_sim::Metrics, usize) {
        let cfg = AeToEConfig::for_n(n, 0.1);
        let rounds = cfg.total_rounds();
        let cutoff = (n as f64 * knowledgeable_frac) as usize;
        let outcome = SimBuilder::new(n)
            .seed(seed)
            .build(
                |p, _| {
                    let k = (p.index() < cutoff).then_some(M);
                    AeToEProcess::new(cfg.clone(), k)
                },
                NullAdversary,
            )
            .run(rounds + 1);
        let o = AeToEOutcome::from_outputs(&outcome.outputs, &outcome.corrupt, M);
        (o, outcome.metrics, outcome.rounds)
    }

    #[test]
    fn everyone_knowledgeable_trivially_agrees() {
        let (o, _, _) = run_basic(100, 1.0, 1);
        assert_eq!(o.agreed, 100);
        assert_eq!(o.wrong, 0);
        assert_eq!(o.undecided, 0);
    }

    #[test]
    fn majority_knowledgeable_spreads_to_all() {
        let (o, _, _) = run_basic(144, 0.7, 2);
        assert_eq!(o.wrong, 0, "no good processor may decide wrongly");
        assert_eq!(
            o.undecided, 0,
            "with 70% knowledgeable and Θ(log n) loops everyone decides"
        );
        assert_eq!(o.agreed, 144);
    }

    #[test]
    fn bare_majority_still_spreads() {
        let (o, _, _) = run_basic(196, 0.60, 3);
        assert_eq!(o.wrong, 0);
        assert!(
            o.agreed >= 190,
            "agreed {} of 196 with 60% knowledgeable",
            o.agreed
        );
    }

    #[test]
    fn bits_scale_like_sqrt_n() {
        // Per-processor request bits ≈ √n · 2log n · 16; responses add a
        // similar order. Check the measured max is within a small factor
        // of the formula, and that it is sublinear in n.
        let mut per_n = Vec::new();
        for (n, seed) in [(64usize, 4u64), (256, 5)] {
            let (_, metrics, _) = run_basic(n, 0.7, seed);
            let max_bits = (0..n)
                .map(|i| metrics.bits_sent_by(ProcId::new(i)))
                .max()
                .unwrap();
            per_n.push((n, max_bits));
        }
        let (n0, b0) = per_n[0];
        let (n1, b1) = per_n[1];
        // Quadrupling n should much-less-than-quadruple bits (√n·polylog).
        let growth = b1 as f64 / b0 as f64;
        assert!(
            growth < (n1 as f64 / n0 as f64),
            "bit growth {growth} not sublinear"
        );
    }

    #[test]
    fn rounds_match_schedule() {
        let cfg = AeToEConfig::for_n(64, 0.1);
        assert_eq!(cfg.total_rounds(), 2 * cfg.loops + 1);
        let (_, _, rounds) = run_basic(64, 0.7, 6);
        assert!(rounds <= cfg.total_rounds() + 1);
    }

    #[test]
    fn global_label_is_deterministic_and_in_range() {
        let cfg = AeToEConfig::for_n(100, 0.1);
        for lp in 0..20 {
            let k = cfg.global_label(lp);
            assert_eq!(k, cfg.global_label(lp));
            assert!((k as usize) < cfg.labels);
        }
        // Different loops mostly get different labels.
        let distinct: std::collections::HashSet<u16> =
            (0..10).map(|lp| cfg.global_label(lp)).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn message_sizes() {
        assert_eq!(AeMsg::Request { label: 3 }.bit_len(), 16);
        assert_eq!(AeMsg::Response { label: 3, value: 9 }.bit_len(), 80);
    }

    #[test]
    fn response_ties_go_to_the_lowest_label_then_the_lowest_value() {
        let cfg = AeToEConfig {
            labels: 4,
            per_label: 2,
            ..AeToEConfig::for_n(16, 0.1)
        };
        let p = ProcId::new;
        let answers = |pairs: &[(usize, u16, u64)]| -> Vec<Envelope<AeMsg>> {
            pairs
                .iter()
                .map(|&(from, label, value)| {
                    Envelope::new(p(from), p(0), AeMsg::Response { label, value })
                })
                .collect()
        };
        let confused = || {
            let mut proc = AeToEProcess::new(cfg.clone(), None);
            proc.sent = vec![vec![], vec![p(5), p(6)], vec![], vec![p(7), p(8)]];
            proc.tally = vec![Vec::new(); 4];
            proc
        };
        // Labels 3 and 1 both collect two agreeing answers; label 3
        // arrives first, label 1 wins the tie.
        let mut proc = confused();
        proc.collect_responses(&answers(&[(7, 3, 9), (8, 3, 9), (5, 1, 4), (6, 1, 4)]));
        assert_eq!(proc.decided, Some(4));
        // Within one label, two values with two answers each: the lower
        // value wins whatever the arrival order.
        let mut proc = confused();
        proc.collect_responses(&answers(&[(5, 1, 8), (6, 1, 8), (5, 1, 3), (6, 1, 3)]));
        assert_eq!(proc.decided, Some(3));
        // Answers from processors never sent the label are not counted.
        let mut proc = confused();
        proc.collect_responses(&answers(&[(7, 1, 9), (8, 1, 9), (5, 2, 9)]));
        assert_eq!(proc.decided, None);
    }

    #[test]
    fn confused_processors_never_respond() {
        // With 0% knowledgeable, nobody can answer: all good processors
        // stay undecided (and send only requests).
        let (o, _, _) = run_basic(64, 0.0, 7);
        assert_eq!(o.agreed, 0);
        assert_eq!(o.wrong, 0);
        assert_eq!(o.undecided, 64);
    }
}
