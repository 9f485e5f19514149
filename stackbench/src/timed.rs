//! A timing decorator over any `Transport<StackMsg>`, so the traced run
//! measures the program without instrumenting it.
//!
//! All seven trait methods delegate to the wrapped transport. The
//! trait's defaults for `send_many`/`collect_many` expand multicasts into
//! per-recipient sends — the unbatched path — so relying on them would
//! time a different program than the untraced run executes.

use std::cell::Cell;
use std::time::{Duration, Instant};

use ba_core::everywhere::StackMsg;
use ba_sim::{Envelope, Multicast, Payload, ProcId, Transport};

/// What the decorator saw during one trial.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// `(label, seconds)` windows in trial order: `deal` from the call
    /// to the first mark, then one window per run of equal successive
    /// `mark_phase` labels, the last one ending at the call's return.
    pub windows: Vec<(String, f64)>,
    /// Time in send bursts (see [`Timed`]).
    pub send_s: f64,
    /// Time inside `collect` and `collect_many`, delivery callbacks
    /// included (the caller's inbox handling runs inside them).
    pub collect_s: f64,
    /// `send` calls (single envelopes).
    pub envelopes: u64,
    /// `send_many` calls (committee fans).
    pub multicasts: u64,
    /// Recipients summed over `send_many` calls.
    pub recipients: u64,
    /// Payload bits handed to the transport, per recipient, for
    /// tournament traffic.
    pub wire_bits_tournament: u64,
    /// The same for Algorithm 3 traffic (adversary injections included).
    pub wire_bits_ae: u64,
}

impl Probe {
    /// Wall time from the call to its return: the windows sum to it.
    pub fn wall_s(&self) -> f64 {
        self.windows.iter().map(|(_, s)| s).sum()
    }

    fn count_bits(&mut self, payload: &StackMsg, copies: u64) {
        let bits = payload.bit_len() * copies;
        match payload {
            StackMsg::Tour(_) => self.wire_bits_tournament += bits,
            StackMsg::Ae(_) => self.wire_bits_ae += bits,
        }
    }
}

/// Wraps a transport and times every call into it.
///
/// Sends are timed per burst, not per call: a burst opens at a `send` or
/// `send_many` and closes at the next call of any other method. The
/// engine hands a round's traffic over in one tight loop, so this costs
/// two clock reads per round instead of two per envelope, and the
/// caller's per-envelope bookkeeping inside the loop (the engine's bit
/// charge) counts as send time. `is_online`/`is_faulty` take `&self`,
/// hence the cells.
pub struct Timed<T> {
    inner: T,
    probe: Probe,
    send: Cell<Duration>,
    burst: Cell<Option<Instant>>,
    collect: Duration,
    start: Instant,
    marks: Vec<(String, Instant)>,
}

impl<T> Timed<T> {
    /// Wraps `inner`; the first window starts at `start`.
    pub fn new(inner: T, start: Instant) -> Self {
        Timed {
            inner,
            probe: Probe::default(),
            send: Cell::new(Duration::ZERO),
            burst: Cell::new(None),
            collect: Duration::ZERO,
            start,
            marks: Vec::new(),
        }
    }

    /// Closes the last window at `end` and returns the transport with
    /// what was measured.
    pub fn finish(mut self, end: Instant) -> (T, Probe) {
        self.close_burst_at(end);
        let mut from = ("deal".to_owned(), self.start);
        for (label, at) in self.marks {
            self.probe
                .windows
                .push((from.0, at.duration_since(from.1).as_secs_f64()));
            from = (label, at);
        }
        self.probe
            .windows
            .push((from.0, end.duration_since(from.1).as_secs_f64()));
        self.probe.send_s = self.send.get().as_secs_f64();
        self.probe.collect_s = self.collect.as_secs_f64();
        (self.inner, self.probe)
    }

    fn open_burst(&self) {
        if self.burst.get().is_none() {
            self.burst.set(Some(Instant::now()));
        }
    }

    fn close_burst(&self) {
        if self.burst.get().is_some() {
            self.close_burst_at(Instant::now());
        }
    }

    fn close_burst_at(&self, at: Instant) {
        if let Some(opened) = self.burst.take() {
            self.send.set(self.send.get() + at.duration_since(opened));
        }
    }
}

impl<T: Transport<StackMsg>> Transport<StackMsg> for Timed<T> {
    fn send(&mut self, round: usize, env: Envelope<StackMsg>) {
        self.open_burst();
        self.probe.envelopes += 1;
        self.probe.count_bits(&env.payload, 1);
        self.inner.send(round, env);
    }

    fn collect(&mut self, round: usize, deliver: &mut dyn FnMut(Envelope<StackMsg>)) {
        self.close_burst();
        let t = Instant::now();
        self.inner.collect(round, deliver);
        self.collect += t.elapsed();
    }

    fn is_online(&self, round: usize, p: ProcId) -> bool {
        self.close_burst();
        self.inner.is_online(round, p)
    }

    fn is_faulty(&self, round: usize, p: ProcId) -> bool {
        self.close_burst();
        self.inner.is_faulty(round, p)
    }

    fn send_many(&mut self, round: usize, mc: Multicast<StackMsg>) {
        self.open_burst();
        let copies = mc.to.len() as u64;
        self.probe.multicasts += 1;
        self.probe.recipients += copies;
        self.probe.count_bits(&mc.payload, copies);
        self.inner.send_many(round, mc);
    }

    fn collect_many(&mut self, round: usize, deliver: &mut dyn FnMut(Multicast<StackMsg>)) {
        self.close_burst();
        let t = Instant::now();
        self.inner.collect_many(round, deliver);
        self.collect += t.elapsed();
    }

    fn mark_phase(&mut self, round: usize, name: &str) {
        self.close_burst();
        // Successive exchanges with one label (the root-coin rounds)
        // coalesce into one window.
        if self.marks.last().is_none_or(|(last, _)| last != name) {
            self.marks.push((name.to_owned(), Instant::now()));
        }
        self.inner.mark_phase(round, name);
    }
}
