//! A deterministic discrete-event queue, and the same-instant
//! [`DeliveryPolicy`].
//!
//! `NetTransport` files in-flight traffic in its own per-delivery-round
//! calendar; this queue is the storage of the transport it replaced,
//! `transport::reference`, the oracle the calendar is pinned against.
//! Events pop in ascending `(time, tie, seq)` order:
//!
//! * `time` — the simulated instant the event fires (abstract ticks);
//! * `tie` — a caller-supplied tie-break key for events at the same
//!   instant. Callers that derive `tie` deterministically from the event
//!   itself (the reference transport uses the global emission index) get
//!   a delivery order that is independent of queue internals;
//! * `seq` — a monotone insertion counter, the final disambiguator, so
//!   even fully identical keys pop in insertion order.
//!
//! Because the comparison key is total, the pop order is a pure function
//! of the multiset of `(time, tie)` keys plus insertion order of exact
//! duplicates — *not* of the interleaving in which distinct keys were
//! pushed. The root `invariants` proptest
//! `event_queue_pop_order_is_insertion_invariant` pins this down.
//!
//! ## Batched pops
//!
//! The storage is a calendar of per-instant buckets (a [`BTreeMap`] from
//! firing time to the events at that time) rather than one binary heap
//! of events. Synchronous and constant-latency runs put *every* message
//! of a round on the same arrival tick, and even jittery links cluster
//! arrivals at round boundaries — so draining one round used to cost one
//! `O(log n)` heap pop *per event*. Here a whole same-time batch detaches
//! in a single tree operation ([`EventQueue::drain_due`]); the bucket is
//! sorted by `(tie, seq)` once, lazily, at drain time (a no-op for the
//! common already-ordered emission pattern, verified before sorting).
//! The `event_queue` criterion group in `ba-bench` measures the win.

use ba_sim::SimRng;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// How events scheduled for the **same instant** are ordered at drain
/// time. The `(time, tie, seq)` key decides *when* an event fires; the
/// policy decides the order of a same-time batch handed to the consumer.
///
/// Every policy is deterministic per seed: [`DeliveryPolicy::Fifo`]
/// consumes no randomness at all (byte-identical to the historical
/// queue), [`DeliveryPolicy::AdversarialLifo`] is a pure reversal, and
/// [`DeliveryPolicy::Shuffle`] draws a Fisher–Yates permutation from the
/// dedicated ordering stream the caller supplies — never from the
/// latency/drop stream, so switching policies cannot perturb which
/// messages are dropped or how long they fly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeliveryPolicy {
    /// `(tie, seq)` order — the emission order the engine produced.
    #[default]
    Fifo,
    /// Reversed emission order: the freshest message of each instant is
    /// heard first. A classic scheduler attack surface for protocols
    /// that fold their inbox asymmetrically.
    AdversarialLifo,
    /// A seeded uniform permutation per same-instant batch.
    Shuffle,
}

impl DeliveryPolicy {
    /// Canonical lowercase name (the scenario grammar's `net.ordering`
    /// values).
    pub fn name(self) -> &'static str {
        match self {
            DeliveryPolicy::Fifo => "fifo",
            DeliveryPolicy::AdversarialLifo => "lifo",
            DeliveryPolicy::Shuffle => "shuffle",
        }
    }

    /// Parses a canonical name back into a policy.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(DeliveryPolicy::Fifo),
            "lifo" => Some(DeliveryPolicy::AdversarialLifo),
            "shuffle" => Some(DeliveryPolicy::Shuffle),
            _ => None,
        }
    }

    /// All policies, in grammar order.
    pub const ALL: [DeliveryPolicy; 3] = [
        DeliveryPolicy::Fifo,
        DeliveryPolicy::AdversarialLifo,
        DeliveryPolicy::Shuffle,
    ];
}

/// A throwaway stream for policy-free drains. [`DeliveryPolicy::Fifo`]
/// never draws from its stream, so any seed works here.
fn no_ordering_rng() -> SimRng {
    ba_sim::derive_rng(0, 0)
}

/// One queued event (internal representation).
#[derive(Debug)]
struct Entry<T> {
    tie: u64,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.tie, self.seq)
    }
}

/// The events at one firing instant. Kept in insertion order with an
/// incrementally-maintained sortedness flag: the transport's
/// emission-indexed pushes arrive already in `(tie, seq)` order, so the
/// sort at drain time is usually a no-op check on the flag.
#[derive(Debug)]
struct Bucket<T> {
    entries: VecDeque<Entry<T>>,
    sorted: bool,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            entries: VecDeque::new(),
            sorted: true,
        }
    }
}

impl<T> Bucket<T> {
    fn push(&mut self, e: Entry<T>) {
        self.sorted = self.sorted && self.entries.back().is_none_or(|b| b.key() <= e.key());
        self.entries.push_back(e);
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.entries
                .make_contiguous()
                .sort_unstable_by_key(Entry::key);
            self.sorted = true;
        }
    }
}

/// A deterministic future-event queue keyed by `(time, tie, seq)`.
///
/// ```rust
/// use ba_net::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, 0, "late");
/// q.push(10, 1, "early-b");
/// q.push(10, 0, "early-a");
/// assert_eq!(q.pop_due(10), Some((10, "early-a")));
/// assert_eq!(q.pop_due(10), Some((10, "early-b")));
/// assert_eq!(q.pop_due(10), None); // "late" not due yet
/// assert_eq!(q.pop_due(25), Some((20, "late")));
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Firing time → the events at that instant.
    buckets: BTreeMap<u64, Bucket<T>>,
    len: usize,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `value` at `time` with tie-break key `tie`; returns the
    /// insertion sequence number.
    pub fn push(&mut self, time: u64, tie: u64, value: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.buckets
            .entry(time)
            .or_default()
            .push(Entry { tie, seq, value });
        seq
    }

    /// The firing time of the earliest queued event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Pops the earliest event if it fires at or before `now`. (One
    /// bucket sort amortizes over all of its pops; prefer
    /// [`EventQueue::drain_due`] when everything due is wanted anyway.)
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        let (&time, _) = self.buckets.first_key_value()?;
        if time > now {
            return None;
        }
        let bucket = self.buckets.get_mut(&time).expect("bucket exists");
        bucket.ensure_sorted();
        let entry = bucket.entries.pop_front().expect("bucket is non-empty");
        if bucket.entries.is_empty() {
            self.buckets.remove(&time);
        }
        self.len -= 1;
        Some((time, entry.value))
    }

    /// Drains **every** event firing at or before `now` into `f`, in
    /// `(time, tie, seq)` order — one tree operation per distinct firing
    /// time instead of one heap pop per event.
    pub fn drain_due(&mut self, now: u64, f: &mut dyn FnMut(u64, T)) {
        self.drain_due_policy(now, DeliveryPolicy::Fifo, &mut no_ordering_rng(), f);
    }

    /// [`EventQueue::drain_due`] with a same-instant [`DeliveryPolicy`].
    ///
    /// The policy reorders each same-time batch *after* the `(tie, seq)`
    /// sort, so *which* events are due and *when* they fire never depend
    /// on it. `rng` is the caller's dedicated ordering stream:
    /// [`DeliveryPolicy::Shuffle`] draws one Fisher–Yates permutation per
    /// batch from it; the other policies leave it untouched, which is
    /// what keeps [`DeliveryPolicy::Fifo`] byte-identical to the
    /// plain [`EventQueue::drain_due`].
    pub fn drain_due_policy(
        &mut self,
        now: u64,
        policy: DeliveryPolicy,
        rng: &mut SimRng,
        f: &mut dyn FnMut(u64, T),
    ) {
        while let Some((&time, _)) = self.buckets.first_key_value() {
            if time > now {
                return;
            }
            let mut bucket = self.buckets.remove(&time).expect("bucket exists");
            self.len -= bucket.entries.len();
            bucket.ensure_sorted();
            match policy {
                DeliveryPolicy::Fifo => {
                    for e in bucket.entries {
                        f(time, e.value);
                    }
                }
                DeliveryPolicy::AdversarialLifo => {
                    for e in bucket.entries.into_iter().rev() {
                        f(time, e.value);
                    }
                }
                DeliveryPolicy::Shuffle => {
                    let mut batch: Vec<Entry<T>> = bucket.entries.into();
                    for i in (1..batch.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        batch.swap(i, j);
                    }
                    for e in batch {
                        f(time, e.value);
                    }
                }
            }
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_tie_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(5, 7, 'c');
        q.push(5, 2, 'b');
        q.push(1, 9, 'a');
        q.push(5, 7, 'd'); // duplicate key: insertion order decides
        let mut got = Vec::new();
        while let Some((_, v)) = q.pop_due(u64::MAX) {
            got.push(v);
        }
        assert_eq!(got, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(10, 0, ());
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.peek_time(), Some(10));
        assert!(q.pop_due(10).is_some());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn insertion_interleaving_does_not_change_order() {
        // Two different push interleavings of the same key set.
        let keys = [(3u64, 0u64), (1, 1), (2, 0), (1, 0), (3, 1)];
        let mut a = EventQueue::new();
        for &(t, tie) in &keys {
            a.push(t, tie, (t, tie));
        }
        let mut b = EventQueue::new();
        for &(t, tie) in keys.iter().rev() {
            b.push(t, tie, (t, tie));
        }
        let drain = |mut q: EventQueue<(u64, u64)>| {
            let mut v = Vec::new();
            while let Some((_, x)) = q.pop_due(u64::MAX) {
                v.push(x);
            }
            v
        };
        assert_eq!(drain(a), drain(b));
    }

    #[test]
    fn drain_due_matches_repeated_pops() {
        let keys = [(4u64, 1u64), (2, 9), (4, 0), (2, 9), (7, 3), (2, 1)];
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (i, &(t, tie)) in keys.iter().enumerate() {
            a.push(t, tie, i);
            b.push(t, tie, i);
        }
        let mut drained = Vec::new();
        a.drain_due(4, &mut |t, v| drained.push((t, v)));
        let mut popped = Vec::new();
        while let Some((t, v)) = b.pop_due(4) {
            popped.push((t, v));
        }
        assert_eq!(drained, popped);
        assert_eq!(a.len(), 1, "the t=7 event stays queued");
        a.drain_due(u64::MAX, &mut |t, v| drained.push((t, v)));
        assert_eq!(drained.last(), Some(&(7, 4)));
        assert!(a.is_empty());
    }

    /// Builds the standard two-instant fixture and drains it under a
    /// policy; returns the delivered values in order.
    fn drain_policy(policy: DeliveryPolicy, seed: u64) -> Vec<u32> {
        let mut q = EventQueue::new();
        for (i, &(t, tie)) in [(5u64, 2u64), (5, 0), (5, 1), (9, 1), (9, 0)]
            .iter()
            .enumerate()
        {
            q.push(t, tie, i as u32);
        }
        let mut rng = ba_sim::derive_rng(seed, 7);
        let mut got = Vec::new();
        q.drain_due_policy(u64::MAX, policy, &mut rng, &mut |_, v| got.push(v));
        got
    }

    #[test]
    fn fifo_policy_is_byte_identical_to_plain_drain() {
        assert_eq!(drain_policy(DeliveryPolicy::Fifo, 1), vec![1, 2, 0, 4, 3]);
        let mut q = EventQueue::new();
        for (i, &(t, tie)) in [(5u64, 2u64), (5, 0), (5, 1), (9, 1), (9, 0)]
            .iter()
            .enumerate()
        {
            q.push(t, tie, i as u32);
        }
        let mut plain = Vec::new();
        q.drain_due(u64::MAX, &mut |_, v| plain.push(v));
        assert_eq!(plain, drain_policy(DeliveryPolicy::Fifo, 99));
    }

    #[test]
    fn lifo_policy_reverses_each_instant_batch() {
        // Per-batch reversal of the fifo order, never across instants.
        assert_eq!(
            drain_policy(DeliveryPolicy::AdversarialLifo, 1),
            vec![0, 2, 1, 3, 4]
        );
    }

    #[test]
    fn shuffle_policy_permutes_within_instants_deterministically() {
        let a = drain_policy(DeliveryPolicy::Shuffle, 42);
        let b = drain_policy(DeliveryPolicy::Shuffle, 42);
        assert_eq!(a, b, "same ordering seed, same permutation");
        // Each instant's batch stays intact as a set.
        let first: std::collections::BTreeSet<u32> = a[..3].iter().copied().collect();
        assert_eq!(first, [0u32, 1, 2].into_iter().collect());
        let second: std::collections::BTreeSet<u32> = a[3..].iter().copied().collect();
        assert_eq!(second, [3u32, 4].into_iter().collect());
        // Some seed produces a non-fifo order (the permutation is real).
        let fifo = drain_policy(DeliveryPolicy::Fifo, 0);
        assert!(
            (0..20u64).any(|s| drain_policy(DeliveryPolicy::Shuffle, s) != fifo),
            "shuffle never deviated from fifo over 20 seeds"
        );
    }

    #[test]
    fn policy_names_round_trip() {
        for p in DeliveryPolicy::ALL {
            assert_eq!(DeliveryPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(DeliveryPolicy::parse("random"), None);
        assert_eq!(DeliveryPolicy::default(), DeliveryPolicy::Fifo);
    }

    #[test]
    fn drain_due_same_instant_batch_keeps_tie_order() {
        let mut q = EventQueue::new();
        // All at one instant, pushed out of tie order.
        for &(tie, v) in &[
            (5u64, 'e'),
            (1, 'b'),
            (9, 'f'),
            (0, 'a'),
            (3, 'c'),
            (3, 'd'),
        ] {
            q.push(42, tie, v);
        }
        let mut got = Vec::new();
        q.drain_due(42, &mut |_, v| got.push(v));
        assert_eq!(got, vec!['a', 'b', 'c', 'd', 'e', 'f']);
    }
}
