//! The per-round calendar behind `NetTransport` against the event-queue
//! transport it replaced (`ba_net::transport::reference`): for random
//! traffic scripts — singles and fans, every latency model, every fault
//! kind, all three delivery policies, `collect` and `collect_many` mixed,
//! repeated and skipped collect rounds, zero-latency sends right after a
//! collect, and traffic still in flight at `into_stats` — both yield the
//! same delivery sequence (round, sender, recipient group, payload), the
//! same trace lines and the same `NetStats` `Debug` rendering.

use ba_net::transport::reference;
use ba_net::{
    Churn, Crash, DeliveryPolicy, FaultPlan, LatencyModel, NetConfig, NetStats, NetTransport,
    Partition,
};
use ba_obs::Trace;
use ba_sim::{derive_rng, Envelope, Multicast, ProcId, Transport};
use proptest::prelude::*;
use rand::Rng;
use std::sync::Arc;

/// One delivery as observed: `(round, from, recipients, payload)`;
/// `collect` yields one recipient per entry, `collect_many` a group.
type Delivery = (usize, usize, Vec<usize>, u32);

/// The link model, fault plan and policy of one case.
fn config(seed: u64, latency: u8, faults: u8, policy: u8, delta: u64, n: usize) -> NetConfig {
    let latency = match latency {
        0 => LatencyModel::Constant(0),
        1 => LatencyModel::Constant(delta + delta / 2),
        2 => LatencyModel::Uniform {
            lo: 0,
            hi: 3 * delta,
        },
        _ => LatencyModel::HeavyTail {
            floor: delta / 10,
            scale: delta as f64 / 5.0,
            alpha: 1.2,
            cap: 3 * delta,
        },
    };
    let mut plan = FaultPlan::default();
    if faults & 1 != 0 {
        plan.drop_prob = 0.2;
    }
    if faults & 2 != 0 {
        plan.partitions.push(Partition {
            boundary: n / 2,
            from_round: 1,
            heal_round: 4,
        });
    }
    if faults & 4 != 0 {
        plan.crashes.push(Crash { proc: 1, round: 3 });
    }
    if faults & 8 != 0 {
        plan.churn = Some(Churn {
            period: 5,
            down: 1,
            stagger: 2,
        });
    }
    NetConfig {
        delta,
        latency,
        faults: plan,
        seed,
        schedule: None,
        ordering: DeliveryPolicy::ALL[policy as usize],
    }
}

/// Drives `t` through the traffic script derived from `script`; returns
/// every delivery in order.
fn drive(t: &mut dyn Transport<u32>, script: u64, n: usize, steps: usize) -> Vec<Delivery> {
    let mut rng = derive_rng(script, 0);
    let mut got: Vec<Delivery> = Vec::new();
    let mut round = 0usize;
    let mut payload = 0u32;
    let shared: Arc<[ProcId]> = (0..n).map(ProcId::new).collect();
    for step in 0..steps {
        if step % 7 == 0 {
            t.mark_phase(round, ["a", "b", "c"][rng.gen_range(0..3usize)]);
        }
        match rng.gen_range(0..10u32) {
            // Collect: the same round again, the next one, or a skip.
            0..=2 => {
                round += [0, 1, 1, 1, 2, 5][rng.gen_range(0..6usize)];
                if rng.gen_bool(0.5) {
                    t.collect(round, &mut |e: Envelope<u32>| {
                        got.push((round, e.from.index(), vec![e.to.index()], e.payload))
                    });
                } else {
                    t.collect_many(round, &mut |mc: Multicast<u32>| {
                        let to = mc.to.iter().map(|p| p.index()).collect();
                        got.push((round, mc.from.index(), to, mc.payload))
                    });
                }
            }
            3..=5 => {
                payload += 1;
                let from = ProcId::new(rng.gen_range(0..n));
                let to = ProcId::new(rng.gen_range(0..n));
                t.send(round, Envelope::new(from, to, payload));
            }
            _ => {
                payload += 1;
                let from = ProcId::new(rng.gen_range(0..n));
                // The whole membership (shared, like a committee list) or
                // a fresh list, duplicates allowed.
                let to: Arc<[ProcId]> = if rng.gen_bool(0.3) {
                    shared.clone()
                } else {
                    let len = rng.gen_range(1..2 * n);
                    (0..len).map(|_| ProcId::new(rng.gen_range(0..n))).collect()
                };
                t.send_many(round, Multicast { from, to, payload });
            }
        }
    }
    // Traffic still on the wire when the run ends.
    t.send_many(
        round,
        Multicast {
            from: ProcId::new(0),
            to: shared,
            payload: payload + 1,
        },
    );
    got
}

/// Runs one script through a transport, with a memory trace attached.
fn run<T: Transport<u32>>(
    make: impl FnOnce(Trace) -> T,
    finish: impl FnOnce(T) -> NetStats,
    script: u64,
    n: usize,
    steps: usize,
) -> (Vec<Delivery>, String, Vec<String>) {
    let trace = Trace::memory();
    let mut t = make(trace.clone());
    let got = drive(&mut t, script, n, steps);
    let stats = finish(t);
    (got, format!("{stats:?}"), trace.take_lines())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calendar_matches_the_event_queue_reference(
        seeds in (any::<u64>(), any::<u64>()),
        model in (0u8..4, 0u8..16, 0u8..3),
        size in (0usize..3, 2usize..24, 20usize..400),
    ) {
        let (seed, script) = seeds;
        let (latency, faults, policy) = model;
        let (delta, n, steps) = size;
        let delta = [1, 7, 1_000][delta];
        let cfg = config(seed, latency, faults, policy, delta, n);
        let calendar = run(
            |trace| NetTransport::new(n, cfg.clone()).with_trace(trace),
            NetTransport::into_stats,
            script,
            n,
            steps,
        );
        let oracle = run(
            |trace| reference::NetTransport::new(n, cfg.clone()).with_trace(trace),
            reference::NetTransport::into_stats,
            script,
            n,
            steps,
        );
        prop_assert_eq!(calendar.0, oracle.0, "delivery sequence");
        prop_assert_eq!(calendar.1, oracle.1, "NetStats");
        prop_assert_eq!(calendar.2, oracle.2, "trace lines");
    }
}

/// The generator reaches every regime the property is about: deliveries
/// that are late, dropped, partitioned and dead, traffic left in flight,
/// and multi-recipient groups that are neither whole fans nor singles.
#[test]
fn scripts_exercise_every_counter() {
    let n = 12;
    let cfg = config(3, 3, 15, 2, 7, n);
    let mut t = NetTransport::new(n, cfg);
    let got = drive(&mut t, 5, n, 400);
    let stats = t.into_stats();
    assert!(
        stats.late > 0
            && stats.dropped_random > 0
            && stats.dropped_partition > 0
            && stats.dead_letters > 0
            && stats.in_flight_at_end > 0,
        "{stats:?}"
    );
    assert!(
        got.iter().any(|d| d.2.len() > 1 && d.2.len() < n),
        "no partial group was delivered"
    );
}
