//! The synchrony adapter: a [`Transport`] that runs round-based
//! protocols over a timed, faulty network.
//!
//! Round `r` of the protocol occupies ticks `[r·delta, (r+1)·delta)`.
//! A message emitted in round `r` leaves at tick `r·delta`, spends a
//! sampled latency on the wire, and is delivered at the start of the
//! first round whose opening tick is at or past its arrival — never
//! earlier than round `r + 1`, so the synchronous abstraction survives:
//! with zero-latency links every delivery lands exactly where the
//! lockstep engine puts it, byte-identically. Latency beyond `delta`
//! makes the message *late* (it arrives in a later round than the
//! protocol's timetable assumes); the transport counts lateness and loss
//! per [`Schedule`] phase of the sending round.
//!
//! ## Storage: a per-delivery-round calendar
//!
//! A processor can only observe the round a message arrives in and its
//! order within that round, so in-flight traffic is filed by delivery
//! round, not by tick. Each `send`/`send_many` call becomes one *fan*
//! record (sending round, sender, recipients, payload, pending count),
//! addressed by its emission id. Each surviving recipient pushes one
//! small slot — `(arrival tick, fan id, recipient index)` — onto the
//! list of the round `⌈arrival / delta⌉`; a whole fan that shares one
//! fate (a trivial fault plan and constant latency) pushes a single slot.
//!
//! A collect detaches every round up to its own and stable-sorts the
//! slots by tick. Push order is already tie order — fan ids are
//! monotone in emission order and a fan pushes its slots in recipient
//! order — so the sort leaves `(tick, fan, recipient)` order, the order
//! the [`reference`](mod@reference) event queue pops in. Consecutive
//! same-`(tick, fan)` slots re-form exactly the groups that queue holds
//! (whole fan → the sender's `Arc`, one recipient → a single, otherwise
//! the collected slice), and the [`DeliveryPolicy`] permutes each tick's
//! groups, so delivery order, ordering-stream draws and statistics are
//! those of the reference.

pub mod reference;

use crate::event::DeliveryPolicy;
use crate::fault::{DropCause, FaultPlan};
use crate::latency::LatencyModel;
use ba_obs::Trace;
use ba_sim::{derive_rng, Envelope, Multicast, Payload, ProcId, Schedule, SimRng, Transport};
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Label space for the network transport's RNG stream (labels `0..n` are
/// processor coins, `1 << 40` the adversary, `1 << 41` sampler
/// construction — see `ba_sim::derive_rng`).
pub const NET_LABEL: u64 = 1 << 42;

/// Label of the *ordering* stream: [`DeliveryPolicy::Shuffle`] draws its
/// same-instant permutations here, never from [`NET_LABEL`], so changing
/// the delivery policy can never perturb which messages are dropped or
/// how long they fly.
pub const ORDER_LABEL: u64 = 1 << 43;

/// Configuration of one [`NetTransport`].
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Ticks per protocol round (the delivery deadline: latency beyond
    /// this makes a message late).
    pub delta: u64,
    /// Per-message wire latency.
    pub latency: LatencyModel,
    /// Fault injectors.
    pub faults: FaultPlan,
    /// Master seed; the transport draws from `derive_rng(seed, NET_LABEL)`.
    pub seed: u64,
    /// Optional protocol timetable for per-phase stats breakdowns.
    /// When absent, the transport derives one from
    /// [`Transport::mark_phase`] announcements instead.
    pub schedule: Option<Schedule>,
    /// Same-instant delivery ordering ([`DeliveryPolicy::Fifo`] is the
    /// historical byte-identical behaviour).
    pub ordering: DeliveryPolicy,
}

impl NetConfig {
    /// The paper's network: zero latency, no faults. Runs byte-identical
    /// to the lockstep engine.
    pub fn synchronous() -> Self {
        NetConfig {
            delta: 1_000,
            latency: LatencyModel::Constant(0),
            faults: FaultPlan::default(),
            seed: 0,
            schedule: None,
            ordering: DeliveryPolicy::Fifo,
        }
    }

    /// Whether this config is semantically the paper's synchronous
    /// network: zero constant latency, a trivial fault plan, and FIFO
    /// same-instant ordering. Such a config consumes no transport
    /// randomness, so *any* faithful synchronous carrier (the lockstep
    /// engine, [`NetTransport`], a socket transport) produces the same
    /// outcome for the same seed. The seed, delta, and stats schedule do
    /// not affect delivery and are ignored.
    pub fn is_synchronous(&self) -> bool {
        self.latency == LatencyModel::Constant(0)
            && self.faults.is_trivial()
            && self.ordering == DeliveryPolicy::Fifo
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the master seed of the transport's derived stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a protocol timetable for per-phase breakdowns.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the same-instant delivery ordering policy.
    pub fn with_ordering(mut self, ordering: DeliveryPolicy) -> Self {
        self.ordering = ordering;
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::synchronous()
    }
}

/// Network counters for one phase of the sending timetable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseNetStats {
    /// Phase name (from the [`Schedule`]; the trailing catch-all bucket
    /// for rounds past the timetable is named `"(past-schedule)"`).
    pub name: String,
    /// Envelopes handed to the transport during this phase.
    pub sent: u64,
    /// Payload bits handed to the transport during this phase (counted
    /// before drop decisions, like the engine's send charges, so phase
    /// bit totals sum to the run's sent-bit total).
    pub sent_bits: u64,
    /// Envelopes delivered (whenever they arrived).
    pub delivered: u64,
    /// Envelopes delivered after their round deadline.
    pub late: u64,
    /// Total rounds of lateness over all late envelopes.
    pub late_rounds: u64,
    /// Envelopes lost to random link drops.
    pub dropped_random: u64,
    /// Envelopes lost to partition cuts.
    pub dropped_partition: u64,
    /// Envelopes delivered to an offline (crashed / churned-out)
    /// recipient, keyed — like every other counter — by the phase of the
    /// *sending* round.
    pub dead_letters: u64,
}

/// Aggregate network statistics for one run.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Envelopes handed to the transport (post-adversary).
    pub sent: u64,
    /// Envelopes delivered to an inbox.
    pub delivered: u64,
    /// Envelopes delivered after their round deadline.
    pub late: u64,
    /// Total rounds of lateness over all late envelopes.
    pub late_rounds: u64,
    /// Envelopes lost to random link drops.
    pub dropped_random: u64,
    /// Envelopes lost to partition cuts.
    pub dropped_partition: u64,
    /// Envelopes delivered to a processor that was offline (crashed or
    /// churned out) in the delivery round: the wire carried them, but
    /// the recipient never processed them.
    pub dead_letters: u64,
    /// Envelopes still in flight when the run ended.
    pub in_flight_at_end: u64,
    /// Per-phase breakdown (present when the config carried a
    /// [`Schedule`]; phases in timetable order, then the catch-all).
    pub per_phase: Vec<PhaseNetStats>,
}

impl NetStats {
    /// Total envelopes lost to faults.
    pub fn dropped(&self) -> u64 {
        self.dropped_random + self.dropped_partition
    }

    /// Fraction of sent envelopes lost to faults (0.0 when nothing sent).
    /// Dead letters count as lost: they reached a dead recipient.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            (self.dropped() + self.dead_letters) as f64 / self.sent as f64
        }
    }

    /// Fraction of delivered envelopes that missed their deadline.
    pub fn late_rate(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.late as f64 / self.delivered as f64
        }
    }
}

/// Recipients of one fan or in-flight entry.
#[derive(Debug)]
enum Dest {
    One(ProcId),
    Many(Arc<[ProcId]>),
}

impl Dest {
    fn len(&self) -> usize {
        match self {
            Dest::One(_) => 1,
            Dest::Many(list) => list.len(),
        }
    }
}

/// Everything about the wire except where in-flight traffic waits: the
/// fault state, both RNG streams, the statistics and the trace. The
/// calendar-backed [`NetTransport`] and the queue-backed
/// [`reference::NetTransport`] share it, so they decide every fate and
/// count every envelope with the same code.
#[derive(Debug)]
struct Wire {
    cfg: NetConfig,
    /// Per-processor crash round (precomputed from the plan), `usize::MAX`
    /// when the processor never crashes.
    crash_round: Vec<usize>,
    rng: SimRng,
    stats: NetStats,
    /// The dedicated ordering stream ([`ORDER_LABEL`]); only the
    /// `Shuffle` policy ever draws from it.
    order_rng: SimRng,
    /// Start rounds of the phases derived from
    /// [`Transport::mark_phase`] announcements, parallel to
    /// `stats.per_phase` (unused when the config carries a schedule).
    marks: Vec<usize>,
    /// Observability handle (attached via [`NetTransport::with_trace`],
    /// never part of [`NetConfig`] so configs stay comparable). Events
    /// aggregate per round; tracing consumes no randomness.
    trace: Trace,
    /// Send-side counters of the round currently being sent, flushed as
    /// one `net:send` event at the next collect (or at `into_stats`).
    pend: (usize, u64, u64, u64),
    /// Logical envelopes currently in flight (a multicast counts one per
    /// recipient, so batching never changes [`NetStats::in_flight_at_end`]).
    in_flight: u64,
    /// Whether any processor can ever be offline (a crash in the plan or
    /// a churn model); when false, delivered batches skip the
    /// per-recipient dead-letter scan.
    has_offline: bool,
}

impl Wire {
    fn new(n: usize, cfg: NetConfig) -> Self {
        assert!(cfg.delta > 0, "delta must be at least one tick per round");
        let crash_round: Vec<usize> = (0..n)
            .map(|p| cfg.faults.crash_round(p).unwrap_or(usize::MAX))
            .collect();
        let rng = derive_rng(cfg.seed, NET_LABEL);
        let order_rng = derive_rng(cfg.seed, ORDER_LABEL);
        let mut stats = NetStats::default();
        if let Some(schedule) = &cfg.schedule {
            stats.per_phase = schedule
                .iter()
                .map(|p| PhaseNetStats {
                    name: p.name.clone(),
                    ..PhaseNetStats::default()
                })
                .collect();
            stats.per_phase.push(PhaseNetStats {
                name: "(past-schedule)".to_owned(),
                ..PhaseNetStats::default()
            });
        }
        let has_offline =
            crash_round.iter().any(|&c| c != usize::MAX) || cfg.faults.churn.is_some();
        Wire {
            cfg,
            crash_round,
            rng,
            stats,
            order_rng,
            marks: Vec::new(),
            trace: Trace::off(),
            pend: (0, 0, 0, 0),
            in_flight: 0,
            has_offline,
        }
    }

    fn phase_marks(&self) -> Vec<(String, usize)> {
        if let Some(schedule) = &self.cfg.schedule {
            let mut start = 0usize;
            let mut out = Vec::new();
            for p in schedule.iter() {
                out.push((p.name.clone(), start));
                start += p.len;
            }
            out.push(("(past-schedule)".to_owned(), start));
            out
        } else {
            self.marks
                .iter()
                .zip(&self.stats.per_phase)
                .map(|(&start, p)| (p.name.clone(), start))
                .collect()
        }
    }

    /// Flushes the pending send-side counters as one `net:send` event.
    fn flush_send_event(&mut self) {
        let (round, sent, bits, dropped) = self.pend;
        if sent == 0 {
            return;
        }
        self.pend = (0, 0, 0, 0);
        let phase = self
            .phase_marks()
            .iter()
            .rev()
            .find(|(_, start)| *start <= round)
            .map(|(name, _)| name.clone())
            .unwrap_or_default();
        self.trace.event(
            "net:send",
            round as u64,
            &phase,
            &[
                ("sent", sent.into()),
                ("bits", bits.into()),
                ("dropped", dropped.into()),
            ],
        );
    }

    fn into_stats(mut self) -> NetStats {
        self.flush_send_event();
        self.stats.in_flight_at_end = self.in_flight;
        self.stats
    }

    /// The phase-stats bucket for a sending round (`None` without a
    /// schedule — configured or derived from phase marks).
    fn phase_bucket(&mut self, sent_round: usize) -> Option<&mut PhaseNetStats> {
        if self.stats.per_phase.is_empty() {
            return None;
        }
        let idx = if self.cfg.schedule.is_some() {
            let last = self.stats.per_phase.len() - 1;
            self.cfg
                .schedule
                .as_ref()
                .and_then(|s| s.locate(sent_round))
                .map_or(last, |(phase, _)| phase)
        } else {
            // Derived timetable: the last announced phase whose start is
            // at or before the sending round (phases are open-ended).
            let k = self.marks.partition_point(|&start| start <= sent_round);
            k.checked_sub(1)?
        };
        self.stats.per_phase.get_mut(idx)
    }

    fn online_at(&self, round: usize, p: ProcId) -> bool {
        let i = p.index();
        if self.crash_round.get(i).is_some_and(|&c| round >= c) {
            return false;
        }
        !self.cfg.faults.churn.is_some_and(|c| c.is_down(round, i))
    }

    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.crash_round.get(p.index()).is_some_and(|&c| round >= c)
    }

    /// See [`Transport::mark_phase`] on [`NetTransport`].
    fn mark_phase(&mut self, round: usize, name: &str) {
        if self.cfg.schedule.is_some() {
            return;
        }
        if self
            .marks
            .len()
            .checked_sub(1)
            .is_some_and(|i| self.stats.per_phase[i].name == name)
        {
            return;
        }
        // A new phase opens: flush the previous phase's send counters
        // before the span event so trace lines stay in timeline order.
        if self.trace.is_on() {
            self.flush_send_event();
        }
        self.trace.event("net:phase", round as u64, name, &[]);
        self.marks.push(round);
        self.stats.per_phase.push(PhaseNetStats {
            name: name.to_owned(),
            ..PhaseNetStats::default()
        });
    }

    /// Counts `count` envelopes of `bits` each handed over in `round`
    /// (before any drop decision, like the engine's send charges).
    fn count_sent(&mut self, round: usize, count: u64, bits: u64) {
        self.stats.sent += count;
        if let Some(b) = self.phase_bucket(round) {
            b.sent += count;
            b.sent_bits += bits * count;
        }
        if self.trace.is_on() {
            if self.pend.0 != round {
                self.flush_send_event();
            }
            self.pend.0 = round;
            self.pend.1 += count;
            self.pend.2 += bits * count;
        }
    }

    /// The arrival tick every envelope sent in `round` shares when no
    /// per-envelope decision is left to make: a trivial fault plan (the
    /// partition check is pure, drops only draw when `drop_prob > 0`)
    /// and constant latency (draw-free). `None` otherwise.
    fn shared_arrival(&self, round: usize) -> Option<u64> {
        match self.cfg.latency {
            LatencyModel::Constant(d) if self.cfg.faults.is_trivial() => Some(
                (round as u64)
                    .saturating_mul(self.cfg.delta)
                    .saturating_add(d),
            ),
            _ => None,
        }
    }

    /// Decides one envelope's fate from the transport stream — the drop
    /// draw, then (if it survives) the latency draw — and returns its
    /// arrival tick, or counts the loss and returns `None`.
    fn fate(&mut self, round: usize, from: ProcId, to: ProcId) -> Option<u64> {
        if let Some(cause) = self
            .cfg
            .faults
            .dropped(round, from.index(), to.index(), &mut self.rng)
        {
            match cause {
                DropCause::Random => {
                    self.stats.dropped_random += 1;
                    if let Some(b) = self.phase_bucket(round) {
                        b.dropped_random += 1;
                    }
                }
                DropCause::Partition => {
                    self.stats.dropped_partition += 1;
                    if let Some(b) = self.phase_bucket(round) {
                        b.dropped_partition += 1;
                    }
                }
            }
            if self.trace.is_on() {
                self.pend.3 += 1;
            }
            return None;
        }
        let latency = self.cfg.latency.sample(&mut self.rng);
        Some(
            (round as u64)
                .saturating_mul(self.cfg.delta)
                .saturating_add(latency),
        )
    }

    /// Opens a collect: closes out the previous round's send-side
    /// counters (so the trace reads send → deliver in timeline order)
    /// and snapshots the delivery counters for the `net:recv` event.
    fn open_collect(&mut self) -> (u64, u64, u64) {
        if self.trace.is_on() {
            self.flush_send_event();
        }
        (
            self.stats.delivered,
            self.stats.late,
            self.stats.dead_letters,
        )
    }

    /// Counts one delivered group of envelopes sent in `sent_round`: a
    /// multicast counts once per recipient, exactly like its unbatched
    /// expansion would.
    fn count_delivered(
        &mut self,
        round: usize,
        sent_round: usize,
        to: impl ExactSizeIterator<Item = ProcId>,
    ) {
        let count = to.len() as u64;
        self.in_flight -= count;
        self.stats.delivered += count;
        // The wire did its job, but a recipient that is dead or churned
        // out this round will never read the message.
        let dead = if self.has_offline {
            to.filter(|&p| !self.online_at(round, p)).count() as u64
        } else {
            0
        };
        self.stats.dead_letters += dead;
        let lateness = round.saturating_sub(sent_round + 1) as u64;
        if lateness > 0 {
            self.stats.late += count;
            self.stats.late_rounds += lateness * count;
        }
        if let Some(b) = self.phase_bucket(sent_round) {
            b.delivered += count;
            b.dead_letters += dead;
            if lateness > 0 {
                b.late += count;
                b.late_rounds += lateness * count;
            }
        }
    }

    /// Closes a collect opened with [`Wire::open_collect`].
    fn close_collect(&mut self, round: usize, before: (u64, u64, u64)) {
        if self.trace.is_on() {
            let delivered = self.stats.delivered - before.0;
            if delivered > 0 {
                self.trace.event(
                    "net:recv",
                    round as u64,
                    "",
                    &[
                        ("delivered", delivered.into()),
                        ("late", (self.stats.late - before.1).into()),
                        ("dead_letters", (self.stats.dead_letters - before.2).into()),
                    ],
                );
            }
        }
    }
}

/// One `send`/`send_many` call with at least one recipient still on the
/// wire.
#[derive(Debug)]
struct Fan<M> {
    sent_round: usize,
    from: ProcId,
    to: Dest,
    /// Moved out to the fan's last delivered group, cloned for the others.
    payload: Option<M>,
    /// Recipients not yet delivered.
    pending: usize,
}

/// One recipient (or, with [`WHOLE_FAN`], all of them) of one fan,
/// filed under its delivery round.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    tick: u64,
    /// Emission id of the fan, modulo 2³² (ids of live fans never
    /// collide: far fewer than 2³² are ever in flight at once).
    fan: u32,
    /// Recipient index within the fan.
    idx: u32,
}

/// [`Slot::idx`] of the single slot a whole-fan fast-path send pushes.
const WHOLE_FAN: u32 = u32::MAX;

/// In-flight slots filed by delivery round, and the scratch a collect
/// reuses at its high-water capacity. Knows nothing of payloads, so it
/// is compiled once, not per message type.
#[derive(Debug)]
struct Calendar {
    delta: u64,
    /// Delivery round → its slots, in push order.
    rounds: BTreeMap<u64, Vec<Slot>>,
    /// Emptied round lists.
    spare: Vec<Vec<Slot>>,
    /// The detached slots of a collect, the counting sort's output and
    /// counters, and one tick's groups as slot ranges.
    due: Vec<Slot>,
    sorted: Vec<Slot>,
    counts: Vec<usize>,
    groups: Vec<(usize, usize)>,
}

impl Calendar {
    fn new(delta: u64) -> Self {
        Calendar {
            delta,
            rounds: BTreeMap::new(),
            spare: Vec::new(),
            due: Vec::new(),
            sorted: Vec::new(),
            counts: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Files a slot under the delivery round of its tick: the first round
    /// whose opening tick `round · delta` is at or past the arrival.
    fn push(&mut self, slot: Slot) {
        let spare = &mut self.spare;
        self.rounds
            .entry(slot.tick.div_ceil(self.delta))
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(slot);
    }

    /// Detaches every round at or before `round` into `self.due`, sorted
    /// by tick. (Everything that arrived by the round's opening tick is
    /// due. Nothing sent in round r can arrive before r·delta, and the
    /// collect for round r runs before round r's sends, so the r + 1
    /// floor is structural.)
    fn detach_due(&mut self, round: usize) {
        debug_assert!(self.due.is_empty());
        while let Some(entry) = self.rounds.first_entry() {
            if *entry.key() > round as u64 {
                break;
            }
            let mut slots = entry.remove();
            self.due.append(&mut slots);
            self.spare.push(slots);
        }
        self.sort_due_by_tick();
    }

    /// Stable sort of `self.due` by tick. The detached rounds are each in
    /// push order, and every tick lives in one round, so a tick's slots
    /// are already in tie order; only the ticks need ordering. Counting
    /// sort when the tick span is below twice the slot count (one
    /// round's span is `delta`), a comparison sort otherwise.
    fn sort_due_by_tick(&mut self) {
        let due = &mut self.due;
        if due.windows(2).all(|w| w[0].tick <= w[1].tick) {
            return;
        }
        let (lo, hi) = due.iter().fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.tick), hi.max(s.tick))
        });
        let span = hi - lo;
        if span >= 2 * due.len() as u64 {
            due.sort_by_key(|s| s.tick);
            return;
        }
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(span as usize + 2, 0);
        for s in due.iter() {
            counts[(s.tick - lo) as usize + 1] += 1;
        }
        for k in 1..counts.len() {
            counts[k] += counts[k - 1];
        }
        let sorted = &mut self.sorted;
        sorted.clear();
        sorted.resize(due.len(), Slot::default());
        for s in due.iter() {
            let at = &mut counts[(s.tick - lo) as usize];
            sorted[*at] = *s;
            *at += 1;
        }
        std::mem::swap(due, sorted);
    }

    /// Splits the run of same-tick slots of `due` that starts at `start`
    /// into `groups`, one per fan (runs of consecutive same-fan slots),
    /// and applies `policy` to their order. Returns the end of the run.
    /// `fan_base` is the oldest live fan id.
    fn tick_groups(
        due: &[Slot],
        start: usize,
        fan_base: u32,
        policy: DeliveryPolicy,
        order_rng: &mut SimRng,
        groups: &mut Vec<(usize, usize)>,
    ) -> usize {
        let tick = due[start].tick;
        let mut i = start;
        groups.clear();
        while i < due.len() && due[i].tick == tick {
            let first = i;
            i += 1;
            while i < due.len() && due[i].tick == tick && due[i].fan == due[first].fan {
                debug_assert!(due[i - 1].idx < due[i].idx, "push order is tie order");
                i += 1;
            }
            debug_assert!(
                groups.last().is_none_or(|&(s, _)| {
                    let age = |f: u32| f.wrapping_sub(fan_base);
                    age(due[s].fan) < age(due[first].fan)
                }),
                "push order is tie order"
            );
            groups.push((first, i));
        }
        match policy {
            DeliveryPolicy::Fifo => {}
            DeliveryPolicy::AdversarialLifo => groups.reverse(),
            DeliveryPolicy::Shuffle => {
                for g in (1..groups.len()).rev() {
                    let j = order_rng.gen_range(0..=g);
                    groups.swap(g, j);
                }
            }
        }
        i
    }
}

/// A delivered group as the sink sees it.
enum Group<'a> {
    One(ProcId),
    /// The sender's own recipient list.
    Whole(&'a Arc<[ProcId]>),
    /// Some recipients of a fan: one slot each.
    Part(&'a [ProcId], &'a [Slot]),
}

impl Group<'_> {
    fn len(&self) -> usize {
        match self {
            Group::One(_) => 1,
            Group::Whole(list) => list.len(),
            Group::Part(_, slots) => slots.len(),
        }
    }

    /// The recipients, in delivery order.
    fn iter(&self) -> impl ExactSizeIterator<Item = ProcId> + '_ {
        (0..self.len()).map(|i| match self {
            Group::One(p) => *p,
            Group::Whole(list) => list[i],
            Group::Part(list, slots) => list[slots[i].idx as usize],
        })
    }
}

/// The timed, faulty network behind the synchronous engine.
///
/// Determinism contract: every random decision (latency samples, random
/// drops) is drawn from one stream derived as
/// `derive_rng(seed, NET_LABEL)`, consumed in the engine's global
/// emission order; partitions, crashes, and churn are pure functions of
/// `(round, processor ids)`. Runs are therefore byte-identical per seed
/// regardless of how many worker threads run *other* trials around them.
#[derive(Debug)]
pub struct NetTransport<M> {
    wire: Wire,
    /// Fans with recipients in flight, oldest first: fan id
    /// `fan_base + i` (mod 2³²) sits at index `i`.
    fans: VecDeque<Fan<M>>,
    fan_base: u32,
    calendar: Calendar,
    /// One shared single-recipient list per processor, built on first
    /// use, for [`Transport::collect_many`].
    singles: Vec<Option<Arc<[ProcId]>>>,
}

impl<M> NetTransport<M> {
    /// Builds the transport for `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.delta == 0`.
    pub fn new(n: usize, cfg: NetConfig) -> Self {
        NetTransport {
            calendar: Calendar::new(cfg.delta),
            wire: Wire::new(n, cfg),
            fans: VecDeque::new(),
            fan_base: 0,
            singles: vec![None; n],
        }
    }

    /// Attaches an observability handle. Lives on the transport, not on
    /// [`NetConfig`], so configs stay `PartialEq`-comparable and trace
    /// wiring can never change which runs compare equal.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.wire.trace = trace;
        self
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.wire.stats
    }

    /// The phase timetable in effect, as `(name, start_round)` pairs:
    /// the configured [`Schedule`] when present, otherwise the phases
    /// derived from [`Transport::mark_phase`] announcements. Pairs with
    /// `ba_sim::Metrics::phase_bits` for per-phase bit attribution.
    pub fn phase_marks(&self) -> Vec<(String, usize)> {
        self.wire.phase_marks()
    }

    /// Consumes the transport, folding still-in-flight envelopes into
    /// [`NetStats::in_flight_at_end`].
    pub fn into_stats(self) -> NetStats {
        self.wire.into_stats()
    }

    /// The id the next recorded fan gets.
    fn next_fan(&self) -> u32 {
        self.fan_base.wrapping_add(self.fans.len() as u32)
    }

    /// Records a fan whose surviving recipients were just scheduled.
    fn record(&mut self, sent_round: usize, from: ProcId, to: Dest, payload: M, pending: usize) {
        debug_assert!(self.fans.len() < u32::MAX as usize, "fan ids would collide");
        self.wire.in_flight += pending as u64;
        self.fans.push_back(Fan {
            sent_round,
            from,
            to,
            payload: Some(payload),
            pending,
        });
    }
}

impl<M: Clone> NetTransport<M> {
    /// The shared body of [`Transport::collect`] and
    /// [`Transport::collect_many`]: delivers everything due at `round`,
    /// does all per-recipient accounting, and hands each group to `sink`
    /// in delivery order.
    fn drain_round(&mut self, round: usize, mut sink: impl FnMut(ProcId, Group<'_>, M)) {
        let before = self.wire.open_collect();
        self.calendar.detach_due(round);
        let due = std::mem::take(&mut self.calendar.due);
        let mut groups = std::mem::take(&mut self.calendar.groups);
        let mut i = 0;
        while i < due.len() {
            i = Calendar::tick_groups(
                &due,
                i,
                self.fan_base,
                self.wire.cfg.ordering,
                &mut self.wire.order_rng,
                &mut groups,
            );
            for &(start, end) in &groups {
                self.deliver_group(round, &due[start..end], &mut sink);
            }
        }
        while self.fans.front().is_some_and(|f| f.pending == 0) {
            self.fans.pop_front();
            self.fan_base = self.fan_base.wrapping_add(1);
        }
        self.calendar.due = due;
        self.calendar.due.clear();
        self.calendar.groups = groups;
        self.wire.close_collect(round, before);
    }

    /// Accounts for one group of same-`(tick, fan)` slots and hands it
    /// to `sink`.
    fn deliver_group(
        &mut self,
        round: usize,
        slots: &[Slot],
        sink: &mut impl FnMut(ProcId, Group<'_>, M),
    ) {
        let at = slots[0].fan.wrapping_sub(self.fan_base) as usize;
        let fan = &mut self.fans[at];
        let whole = slots[0].idx == WHOLE_FAN || slots.len() == fan.to.len();
        let count = if whole { fan.to.len() } else { slots.len() };
        fan.pending -= count;
        let payload = if fan.pending == 0 {
            fan.payload.take()
        } else {
            fan.payload.clone()
        }
        .expect("a fan keeps its payload until its last group");
        let fan = &self.fans[at];
        let group = match &fan.to {
            Dest::One(p) => Group::One(*p),
            Dest::Many(list) if whole => Group::Whole(list),
            Dest::Many(list) if count == 1 => Group::One(list[slots[0].idx as usize]),
            Dest::Many(list) => Group::Part(list, slots),
        };
        self.wire
            .count_delivered(round, fan.sent_round, group.iter());
        sink(fan.from, group, payload);
    }
}

impl<M: Payload> Transport<M> for NetTransport<M> {
    fn send(&mut self, round: usize, env: Envelope<M>) {
        self.wire.count_sent(round, 1, env.bit_len());
        let Some(tick) = self.wire.fate(round, env.from, env.to) else {
            return;
        };
        let fan = self.next_fan();
        self.calendar.push(Slot { tick, fan, idx: 0 });
        self.record(round, env.from, Dest::One(env.to), env.payload, 1);
    }

    /// Accepts a whole fan as one call, byte-identical to its unbatched
    /// expansion: the same per-recipient counters, the same RNG draws in
    /// the same order, and the same delivery schedule — but one fan
    /// record per call, and one slot per surviving recipient (a single
    /// slot when the whole fan shares one fate).
    fn send_many(&mut self, round: usize, mc: Multicast<M>) {
        if mc.to.is_empty() {
            return;
        }
        let count = mc.to.len();
        debug_assert!(count < WHOLE_FAN as usize, "fan too wide for slot indices");
        self.wire
            .count_sent(round, count as u64, mc.payload.bit_len());
        let fan = self.next_fan();
        if let Some(tick) = self.wire.shared_arrival(round) {
            self.calendar.push(Slot {
                tick,
                fan,
                idx: WHOLE_FAN,
            });
            self.record(round, mc.from, Dest::Many(mc.to), mc.payload, count);
            return;
        }
        // Replay the exact per-recipient decisions of the unbatched
        // expansion — the same drop and latency draws, from the same
        // stream, in recipient order.
        let mut landed = 0;
        for (i, &to) in mc.to.iter().enumerate() {
            if let Some(tick) = self.wire.fate(round, mc.from, to) {
                self.calendar.push(Slot {
                    tick,
                    fan,
                    idx: i as u32,
                });
                landed += 1;
            }
        }
        if landed > 0 {
            self.record(round, mc.from, Dest::Many(mc.to), mc.payload, landed);
        }
    }

    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<M>)) {
        self.drain_round(round, |from, group, payload| match group {
            Group::One(p) => deliver(Envelope::new(from, p, payload)),
            _ => {
                for p in group.iter() {
                    deliver(Envelope::new(from, p, payload.clone()));
                }
            }
        });
    }

    fn collect_many(&mut self, round: usize, deliver: &mut dyn FnMut(Multicast<M>)) {
        let mut singles = std::mem::take(&mut self.singles);
        self.drain_round(round, |from, group, payload| {
            let to = match group {
                Group::One(p) => {
                    if p.index() >= singles.len() {
                        singles.resize(p.index() + 1, None);
                    }
                    singles[p.index()]
                        .get_or_insert_with(|| Arc::from([p].as_slice()))
                        .clone()
                }
                Group::Whole(list) => list.clone(),
                Group::Part(..) => group.iter().collect(),
            };
            deliver(Multicast { from, to, payload });
        });
        self.singles = singles;
    }

    fn is_online(&self, round: usize, p: ProcId) -> bool {
        self.wire.online_at(round, p)
    }

    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.wire.is_faulty(round, p)
    }

    /// Derives a per-phase stats timetable from the executor's own
    /// announcements. A configured [`Schedule`] wins; otherwise each
    /// *distinct* consecutive name opens a new bucket at `round`
    /// (repeated announcements of the running phase coalesce, so e.g. a
    /// per-round coin exchange stays one phase). Marks consume no
    /// randomness: stats bucketing can never perturb delivery.
    fn mark_phase(&mut self, round: usize, name: &str) {
        self.wire.mark_phase(round, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Churn, Crash, Partition};

    fn env(from: usize, to: usize, v: u16) -> Envelope<u16> {
        Envelope::new(ProcId::new(from), ProcId::new(to), v)
    }

    fn drain(t: &mut NetTransport<u16>, round: usize) -> Vec<u16> {
        let mut got = Vec::new();
        t.collect(round, &mut |e| got.push(e.payload));
        got
    }

    #[test]
    fn zero_latency_is_next_round_in_emission_order() {
        let mut t = NetTransport::new(4, NetConfig::synchronous());
        // Engine call order: collect for round r, then round r's sends.
        assert!(drain(&mut t, 0).is_empty());
        t.send(0, env(0, 1, 10));
        t.send(0, env(1, 1, 11));
        t.send(0, env(2, 1, 12));
        assert_eq!(drain(&mut t, 1), vec![10, 11, 12]);
        assert_eq!(t.stats().late, 0);
        assert_eq!(t.stats().delivered, 3);
    }

    #[test]
    fn latency_beyond_delta_is_late() {
        let cfg = NetConfig::synchronous().with_latency(LatencyModel::Constant(2_500));
        let mut t = NetTransport::new(2, cfg);
        t.send(0, env(0, 1, 7));
        assert!(drain(&mut t, 1).is_empty());
        assert!(drain(&mut t, 2).is_empty());
        assert_eq!(drain(&mut t, 3), vec![7]); // arrival 2500 ≤ 3000
        assert_eq!(t.stats().late, 1);
        assert_eq!(t.stats().late_rounds, 2);
        assert!((t.stats().late_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_drops_cross_traffic_and_heals() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            partitions: vec![Partition {
                boundary: 1,
                from_round: 0,
                heal_round: 2,
            }],
            ..FaultPlan::default()
        });
        let mut t = NetTransport::new(2, cfg);
        t.send(0, env(0, 1, 1)); // severed
        t.send(0, env(1, 1, 2)); // same side, survives
        assert_eq!(drain(&mut t, 1), vec![2]);
        t.send(2, env(0, 1, 3)); // healed
        assert_eq!(drain(&mut t, 3), vec![3]);
        assert_eq!(t.stats().dropped_partition, 1);
        assert_eq!(t.stats().dropped(), 1);
    }

    #[test]
    fn crash_and_churn_drive_online_and_faulty() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            crashes: vec![Crash { proc: 0, round: 5 }],
            churn: Some(Churn {
                period: 4,
                down: 1,
                stagger: 0,
            }),
            ..FaultPlan::default()
        });
        let t: NetTransport<u16> = NetTransport::new(3, cfg);
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        assert!(t.is_online(4, p0));
        assert!(!t.is_online(5, p0), "crashed");
        assert!(t.is_faulty(5, p0));
        assert!(!t.is_faulty(4, p0));
        // Churn: down when round % 4 == 3, back afterwards.
        assert!(!t.is_online(3, p1));
        assert!(t.is_online(4, p1));
        assert!(!t.is_faulty(3, p1), "churn is not a permanent fault");
    }

    #[test]
    fn per_phase_buckets_key_on_sending_round() {
        let mut schedule = Schedule::new();
        schedule.push("first", 2);
        schedule.push("second", 2);
        let cfg = NetConfig::synchronous()
            .with_schedule(schedule)
            .with_latency(LatencyModel::Constant(1_500));
        let mut t = NetTransport::new(2, cfg);
        t.send(1, env(0, 1, 1)); // "first", will be late (arrival 2500 → round 3)
        t.send(2, env(0, 1, 2)); // "second"
        t.send(9, env(0, 1, 3)); // past the timetable
        let _ = drain(&mut t, 3);
        let _ = drain(&mut t, 4);
        let _ = drain(&mut t, 11);
        let stats = t.into_stats();
        assert_eq!(stats.per_phase.len(), 3);
        assert_eq!(stats.per_phase[0].name, "first");
        assert_eq!(stats.per_phase[0].sent, 1);
        assert_eq!(stats.per_phase[0].late, 1);
        assert_eq!(stats.per_phase[1].sent, 1);
        assert_eq!(stats.per_phase[2].name, "(past-schedule)");
        assert_eq!(stats.per_phase[2].sent, 1);
        assert_eq!(stats.sent, 3);
        assert_eq!(stats.in_flight_at_end, 0);
    }

    #[test]
    fn mark_phase_derives_a_timetable() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            partitions: vec![Partition {
                boundary: 1,
                from_round: 2,
                heal_round: 4,
            }],
            ..FaultPlan::default()
        });
        let mut t = NetTransport::new(2, cfg);
        t.mark_phase(0, "expose");
        t.send(0, env(0, 1, 1));
        let _ = drain(&mut t, 1);
        t.mark_phase(1, "winners");
        t.send(1, env(0, 1, 2));
        let _ = drain(&mut t, 2);
        t.mark_phase(2, "coin");
        t.mark_phase(3, "coin"); // repeated announcement coalesces
        t.send(2, env(0, 1, 3)); // severed: partition active in rounds 2..4
        t.send(3, env(0, 1, 4)); // severed
        let _ = drain(&mut t, 4);
        let stats = t.into_stats();
        let names: Vec<&str> = stats.per_phase.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["expose", "winners", "coin"]);
        assert_eq!(stats.per_phase[0].sent, 1);
        assert_eq!(stats.per_phase[1].sent, 1);
        assert_eq!(stats.per_phase[2].sent, 2);
        assert_eq!(stats.per_phase[2].dropped_partition, 2);
        assert_eq!(stats.per_phase[0].dropped_partition, 0);
    }

    #[test]
    fn configured_schedule_wins_over_marks() {
        let mut schedule = Schedule::new();
        schedule.push("configured", 4);
        let cfg = NetConfig::synchronous().with_schedule(schedule);
        let mut t = NetTransport::new(2, cfg);
        t.mark_phase(0, "derived");
        t.send(0, env(0, 1, 1));
        let stats = t.into_stats();
        let names: Vec<&str> = stats.per_phase.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["configured", "(past-schedule)"]);
        assert_eq!(stats.per_phase[0].sent, 1);
    }

    #[test]
    fn ordering_policies_only_permute_same_instant_batches() {
        let run = |ordering: DeliveryPolicy| {
            let mut t = NetTransport::new(4, NetConfig::synchronous().with_ordering(ordering));
            for i in 0..4 {
                t.send(0, env(i, 0, i as u16));
            }
            drain(&mut t, 1)
        };
        assert_eq!(run(DeliveryPolicy::Fifo), vec![0, 1, 2, 3]);
        assert_eq!(run(DeliveryPolicy::AdversarialLifo), vec![3, 2, 1, 0]);
        let shuffled = run(DeliveryPolicy::Shuffle);
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "shuffle is a permutation");
        assert_eq!(shuffled, run(DeliveryPolicy::Shuffle), "seeded");
    }

    #[test]
    fn ordering_stream_is_independent_of_drops_and_latency() {
        // Switching the policy must not change which messages drop:
        // the ordering stream is dedicated, not shared with NET_LABEL.
        let lossy = |ordering: DeliveryPolicy| {
            let cfg = NetConfig::synchronous()
                .with_ordering(ordering)
                .with_faults(FaultPlan {
                    drop_prob: 0.4,
                    ..FaultPlan::default()
                });
            let mut t = NetTransport::new(8, cfg);
            for r in 0..4usize {
                for i in 0..8 {
                    t.send(r, env(i, (i + 1) % 8, (r * 8 + i) as u16));
                }
                let _ = drain(&mut t, r + 1);
            }
            let stats = t.into_stats();
            (stats.dropped_random, stats.delivered)
        };
        let fifo = lossy(DeliveryPolicy::Fifo);
        assert_eq!(fifo, lossy(DeliveryPolicy::AdversarialLifo));
        assert_eq!(fifo, lossy(DeliveryPolicy::Shuffle));
        assert!(fifo.0 > 0, "drops must fire for the test to mean anything");
    }

    #[test]
    fn deliveries_to_crashed_receivers_are_dead_letters() {
        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            crashes: vec![Crash { proc: 1, round: 2 }],
            ..FaultPlan::default()
        });
        let mut t = NetTransport::new(3, cfg);
        t.send(0, env(2, 1, 1)); // arrives round 1: receiver still up
        assert_eq!(drain(&mut t, 1), vec![1]);
        t.send(1, env(2, 1, 2)); // arrives round 2: receiver crashed
        assert_eq!(drain(&mut t, 2), vec![2], "wire still delivers");
        assert_eq!(t.stats().dead_letters, 1);
        assert_eq!(t.stats().delivered, 2);
        // Dead letters count as loss for reporting purposes.
        assert!((t.stats().loss_rate() - 0.5).abs() < 1e-12);
    }

    /// Crash faults flow through to `RunOutcome::faulty`, so the
    /// engine's agreement helpers exclude crashed processors without
    /// callers re-deriving liveness from the fault plan.
    #[test]
    fn run_outcome_reports_crashed_processors_as_faulty() {
        use ba_sim::{NullAdversary, Process, RoundCtx, SimBuilder};

        /// Broadcast-once / majority-decide toy protocol.
        struct Echo(bool, Option<bool>);
        impl Process for Echo {
            type Msg = bool;
            type Output = bool;
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, bool>, inbox: &[Envelope<bool>]) {
                match ctx.round() {
                    0 => {
                        for p in ctx.all_procs() {
                            ctx.send(p, self.0);
                        }
                    }
                    1 => {
                        self.1 = Some(inbox.iter().filter(|e| e.payload).count() * 2 > inbox.len())
                    }
                    _ => {}
                }
            }
            fn output(&self) -> Option<bool> {
                self.1
            }
        }

        let cfg = NetConfig::synchronous().with_faults(FaultPlan {
            crashes: vec![Crash { proc: 0, round: 0 }],
            ..FaultPlan::default()
        });
        let outcome = SimBuilder::new(4)
            .build_with_transport(
                |_, _| Echo(true, None),
                NullAdversary,
                NetTransport::new(4, cfg),
            )
            .run(5);
        assert_eq!(outcome.faulty, vec![true, false, false, false]);
        assert!(
            outcome.outputs[0].is_none(),
            "crashed at round 0, never ran"
        );
        // The agreement helpers hold the three live processors to
        // agreement — and only them.
        assert_eq!(outcome.good_count(), 3);
        assert!(outcome.all_good_agree_on(&true));
        assert_eq!(outcome.good_agreement_fraction(), 1.0);
    }

    #[test]
    fn per_phase_sent_bits_cover_every_send() {
        let mut t = NetTransport::new(2, NetConfig::synchronous());
        t.mark_phase(0, "a");
        t.send(0, env(0, 1, 1)); // u16 payload: 16 bits
        t.send(0, env(1, 0, 2));
        t.mark_phase(1, "b");
        t.send(1, env(0, 1, 3));
        let _ = drain(&mut t, 1);
        let _ = drain(&mut t, 2);
        let marks = t.phase_marks();
        assert_eq!(
            marks,
            vec![("a".to_string(), 0), ("b".to_string(), 1)],
            "derived timetable exposed for bit attribution"
        );
        let stats = t.into_stats();
        assert_eq!(stats.per_phase[0].sent_bits, 32);
        assert_eq!(stats.per_phase[1].sent_bits, 16);
        let phase_total: u64 = stats.per_phase.iter().map(|p| p.sent_bits).sum();
        assert_eq!(phase_total, 48, "phase bits sum to everything sent");
    }

    #[test]
    fn traced_transport_emits_aggregated_events_and_changes_nothing() {
        use ba_obs::Trace;
        let run = |trace: Trace| {
            let cfg = NetConfig::synchronous()
                .with_seed(5)
                .with_faults(FaultPlan {
                    drop_prob: 0.3,
                    ..FaultPlan::default()
                });
            let mut t = NetTransport::new(4, cfg).with_trace(trace);
            t.mark_phase(0, "x");
            let mut got = Vec::new();
            for r in 0..3usize {
                for i in 0..4 {
                    t.send(r, env(i, (i + 1) % 4, (r * 4 + i) as u16));
                }
                t.collect(r + 1, &mut |e| got.push(e.payload));
            }
            (got, t.into_stats())
        };
        let (plain, plain_stats) = run(Trace::off());
        let trace = Trace::memory();
        let (traced, traced_stats) = run(trace.clone());
        assert_eq!(plain, traced, "tracing must not perturb delivery");
        assert_eq!(plain_stats.dropped_random, traced_stats.dropped_random);
        let lines = trace.take_lines();
        assert!(lines[0].starts_with("{\"kind\": \"net:phase\""));
        let sends: Vec<&String> = lines
            .iter()
            .filter(|l| l.starts_with("{\"kind\": \"net:send\""))
            .collect();
        assert_eq!(sends.len(), 3, "one aggregated event per sending round");
        assert!(sends[0].contains("\"sent\": 4"));
        assert!(sends[0].contains("\"phase\": \"x\""));
        let recvs = lines
            .iter()
            .filter(|l| l.starts_with("{\"kind\": \"net:recv\""))
            .count();
        assert!(recvs >= 1, "deliveries must be summarized");
    }

    #[test]
    fn phase_marks_reflect_configured_schedule() {
        let mut schedule = Schedule::new();
        schedule.push("one", 2);
        schedule.push("two", 3);
        let t: NetTransport<u16> =
            NetTransport::new(2, NetConfig::synchronous().with_schedule(schedule));
        assert_eq!(
            t.phase_marks(),
            vec![
                ("one".to_string(), 0),
                ("two".to_string(), 2),
                ("(past-schedule)".to_string(), 5),
            ]
        );
    }

    #[test]
    fn send_many_is_byte_identical_to_its_expansion() {
        // Lossy links, jittery latency, a partition, and a crash all at
        // once: the batched path must make the same per-recipient
        // decisions from the same RNG stream as the per-envelope loop,
        // so delivery sequences and every stats field coincide.
        let cfg = || {
            NetConfig::synchronous()
                .with_seed(11)
                .with_latency(LatencyModel::Uniform { lo: 0, hi: 2_200 })
                .with_faults(FaultPlan {
                    drop_prob: 0.25,
                    partitions: vec![Partition {
                        boundary: 3,
                        from_round: 1,
                        heal_round: 3,
                    }],
                    crashes: vec![Crash { proc: 2, round: 2 }],
                    ..FaultPlan::default()
                })
        };
        let recipients: Arc<[ProcId]> = (0..6).map(ProcId::new).collect();
        let run = |batched: bool| {
            let mut t: NetTransport<u16> = NetTransport::new(6, cfg());
            t.mark_phase(0, "x");
            let mut got = Vec::new();
            for r in 0..8usize {
                t.collect(r, &mut |e| {
                    got.push((r, e.from.index(), e.to.index(), e.payload))
                });
                if r >= 4 {
                    continue;
                }
                let mc = Multicast {
                    from: ProcId::new(r % 6),
                    to: recipients.clone(),
                    payload: (r * 10) as u16,
                };
                if batched {
                    t.send_many(r, mc);
                } else {
                    for &to in mc.to.iter() {
                        t.send(r, Envelope::new(mc.from, to, mc.payload));
                    }
                }
            }
            (got, t.into_stats())
        };
        let (a, sa) = run(true);
        let (b, sb) = run(false);
        assert_eq!(a, b, "delivery sequence must match the expansion");
        assert!(
            sa.dropped() > 0 && sa.late > 0 && sa.dead_letters > 0,
            "config must exercise every counter: {sa:?}"
        );
        assert_eq!(
            format!("{sa:?}"),
            format!("{sb:?}"),
            "stats must match field for field"
        );
    }

    #[test]
    fn synchronous_send_many_stays_one_batch_through_collect_many() {
        let mut t: NetTransport<u16> = NetTransport::new(4, NetConfig::synchronous());
        let to: Arc<[ProcId]> = (0..4).map(ProcId::new).collect();
        t.send_many(
            0,
            Multicast {
                from: ProcId::new(0),
                to,
                payload: 5,
            },
        );
        assert_eq!(t.stats().sent, 4, "counts stay per recipient");
        let mut batches = Vec::new();
        t.collect_many(1, &mut |b| batches.push((b.to.len(), b.payload)));
        assert_eq!(batches, vec![(4, 5)], "the fan survives as one batch");
        let stats = t.into_stats();
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.in_flight_at_end, 0);
    }

    #[test]
    fn collect_many_shares_one_single_recipient_list_per_processor() {
        let mut t: NetTransport<u16> = NetTransport::new(3, NetConfig::synchronous());
        let mut lists = Vec::new();
        for r in 0..2 {
            t.send(r, env(0, 2, 1));
            t.send(r, env(1, 2, 2));
            t.collect_many(r + 1, &mut |b| lists.push(b.to));
        }
        assert_eq!(lists.len(), 4);
        assert!(lists.iter().all(|l| l[..] == [ProcId::new(2)]));
        assert!(
            lists.iter().all(|l| Arc::ptr_eq(l, &lists[0])),
            "one shared list per recipient, not one per delivery"
        );
    }

    #[test]
    fn into_stats_counts_undelivered() {
        let mut t = NetTransport::new(2, NetConfig::synchronous());
        t.send(0, env(0, 1, 1));
        let stats = t.into_stats();
        assert_eq!(stats.in_flight_at_end, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.loss_rate(), 0.0);
    }
}
