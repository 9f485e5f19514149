//! The event-queue transport the calendar replaced, retained as the
//! reference oracle (the `aeba::reference` / `iterated::reference`
//! pattern): every landed recipient group is one [`EventQueue`] entry
//! keyed by `(arrival tick, emission index)`, and a collect drains the
//! due ticks through [`EventQueue::drain_due_policy`]. It shares the
//! calendar's fault, RNG and accounting code, so it differs only in
//! where in-flight traffic waits. The `calendar` property test in
//! `crates/net/tests` pins [`super::NetTransport`] against it. Nothing
//! outside tests and benches should prefer it.

use super::{Dest, NetConfig, NetStats, Wire};
use crate::event::EventQueue;
use ba_obs::Trace;
use ba_sim::{Envelope, Multicast, Payload, ProcId, Transport};
use std::sync::Arc;

/// An envelope or multicast in flight, remembering when it left.
#[derive(Debug)]
struct InFlight<M> {
    sent_round: usize,
    from: ProcId,
    to: Dest,
    payload: M,
}

/// See [`super::NetTransport`]; same contract, one queue entry per
/// same-arrival recipient group.
#[derive(Debug)]
pub struct NetTransport<M> {
    wire: Wire,
    queue: EventQueue<InFlight<M>>,
    /// Emission counter, used as the event-queue tie key so delivery
    /// order is a pure function of (arrival, emission order).
    emitted: u64,
    /// Scratch for batched drains (reused at high-water capacity).
    due: Vec<InFlight<M>>,
}

impl<M> NetTransport<M> {
    /// See [`super::NetTransport::new`].
    pub fn new(n: usize, cfg: NetConfig) -> Self {
        NetTransport {
            wire: Wire::new(n, cfg),
            queue: EventQueue::new(),
            emitted: 0,
            due: Vec::new(),
        }
    }

    /// See [`super::NetTransport::with_trace`].
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.wire.trace = trace;
        self
    }

    /// See [`super::NetTransport::stats`].
    pub fn stats(&self) -> &NetStats {
        &self.wire.stats
    }

    /// See [`super::NetTransport::into_stats`].
    pub fn into_stats(self) -> NetStats {
        self.wire.into_stats()
    }

    /// Drains everything due at `round` and hands each in-flight entry
    /// to `sink` in delivery order.
    fn drain_round(&mut self, round: usize, mut sink: impl FnMut(ProcId, Dest, M)) {
        let before = self.wire.open_collect();
        let now = (round as u64).saturating_mul(self.wire.cfg.delta);
        let mut due = std::mem::take(&mut self.due);
        debug_assert!(due.is_empty());
        self.queue.drain_due_policy(
            now,
            self.wire.cfg.ordering,
            &mut self.wire.order_rng,
            &mut |_, inflight| due.push(inflight),
        );
        for inflight in due.drain(..) {
            match &inflight.to {
                Dest::One(p) => {
                    self.wire
                        .count_delivered(round, inflight.sent_round, std::iter::once(*p))
                }
                Dest::Many(list) => {
                    self.wire
                        .count_delivered(round, inflight.sent_round, list.iter().copied())
                }
            }
            sink(inflight.from, inflight.to, inflight.payload);
        }
        self.due = due;
        self.wire.close_collect(round, before);
    }
}

impl<M: Payload> Transport<M> for NetTransport<M> {
    fn send(&mut self, round: usize, env: Envelope<M>) {
        self.wire.count_sent(round, 1, env.bit_len());
        let Some(arrival) = self.wire.fate(round, env.from, env.to) else {
            return;
        };
        let tie = self.emitted;
        self.emitted += 1;
        self.wire.in_flight += 1;
        self.queue.push(
            arrival,
            tie,
            InFlight {
                sent_round: round,
                from: env.from,
                to: Dest::One(env.to),
                payload: env.payload,
            },
        );
    }

    fn send_many(&mut self, round: usize, mc: Multicast<M>) {
        if mc.to.is_empty() {
            return;
        }
        let count = mc.to.len() as u64;
        self.wire.count_sent(round, count, mc.payload.bit_len());
        // Fast path: every per-recipient decision is identical and
        // draw-free, so the whole fan stays one queue entry. FIFO order
        // survives because the batch owns the contiguous tie range
        // [emitted, emitted+count).
        if let Some(arrival) = self.wire.shared_arrival(round) {
            let tie = self.emitted;
            self.emitted += count;
            self.wire.in_flight += count;
            self.queue.push(
                arrival,
                tie,
                InFlight {
                    sent_round: round,
                    from: mc.from,
                    to: Dest::Many(mc.to),
                    payload: mc.payload,
                },
            );
            return;
        }
        // Slow path: replay the per-recipient decisions of the unbatched
        // expansion, then regroup survivors by arrival tick. Each group's
        // tie is its first member's emission index; no other send's tie
        // can fall inside this batch's tie range, so same-instant FIFO
        // order is unchanged.
        let base = self.emitted;
        self.emitted += count;
        let mut landed: Vec<(u64, u32)> = Vec::with_capacity(mc.to.len());
        for (i, &to) in mc.to.iter().enumerate() {
            if let Some(arrival) = self.wire.fate(round, mc.from, to) {
                landed.push((arrival, i as u32));
            }
        }
        // Stable sort: recipients sharing an arrival keep slice order.
        landed.sort_by_key(|&(arrival, _)| arrival);
        let mut k = 0;
        while k < landed.len() {
            let arrival = landed[k].0;
            let tie = base + landed[k].1 as u64;
            let start = k;
            while k < landed.len() && landed[k].0 == arrival {
                k += 1;
            }
            let to = if k - start == mc.to.len() {
                Dest::Many(mc.to.clone())
            } else if k - start == 1 {
                Dest::One(mc.to[landed[start].1 as usize])
            } else {
                Dest::Many(
                    landed[start..k]
                        .iter()
                        .map(|&(_, i)| mc.to[i as usize])
                        .collect(),
                )
            };
            self.wire.in_flight += (k - start) as u64;
            self.queue.push(
                arrival,
                tie,
                InFlight {
                    sent_round: round,
                    from: mc.from,
                    to,
                    payload: mc.payload.clone(),
                },
            );
        }
    }

    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<M>)) {
        self.drain_round(round, |from, to, payload| match to {
            Dest::One(p) => deliver(Envelope::new(from, p, payload)),
            Dest::Many(list) => {
                for &p in list.iter() {
                    deliver(Envelope::new(from, p, payload.clone()));
                }
            }
        });
    }

    fn collect_many(&mut self, round: usize, deliver: &mut dyn FnMut(Multicast<M>)) {
        self.drain_round(round, |from, to, payload| {
            let to = match to {
                Dest::One(p) => Arc::from([p].as_slice()),
                Dest::Many(list) => list,
            };
            deliver(Multicast { from, to, payload });
        });
    }

    fn is_online(&self, round: usize, p: ProcId) -> bool {
        self.wire.online_at(round, p)
    }

    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.wire.is_faulty(round, p)
    }

    fn mark_phase(&mut self, round: usize, name: &str) {
        self.wire.mark_phase(round, name);
    }
}
