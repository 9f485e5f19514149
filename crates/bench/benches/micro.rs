//! Criterion micro-benchmarks for the protocol's hot primitives:
//! field arithmetic, Shamir share/reconstruct, iterated dealing,
//! sampler and regular-graph construction, the lightest-bin election,
//! one committee-agreement execution, communication-tree generation,
//! one Algorithm-3 loop, the ba-net event queue, and the networked
//! transport's send/collect path.

use ba_core::ae_to_e::{AeToEConfig, AeToEProcess};
use ba_core::aeba::{run_committee, AebaConfig, CommitteeAttack};
use ba_core::election::lightest_bin;
use ba_crypto::iterated::{Layer, ShareTree};
use ba_crypto::{shamir, Gf16};
use ba_sampler::{RegularGraph, Sampler};
use ba_sim::{derive_rng, NullAdversary, SimBuilder};
use ba_topology::{Params, Tree};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng;

fn bench_gf(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf16");
    let a = Gf16::new(0x1234);
    let b = Gf16::new(0xABCD);
    // Build the log/exp tables before timing: a first call inside the
    // calibration can take over its 2 ms target, which leaves one
    // iteration per sample and a row that reads timer overhead.
    black_box(a * b);
    // Table kernel vs. the retained shift-and-xor / Fermat reference.
    g.bench_function("mul", |bch| bch.iter(|| black_box(a) * black_box(b)));
    g.bench_function("mul_ref", |bch| {
        bch.iter(|| black_box(a).mul_ref(black_box(b)))
    });
    g.bench_function("inv", |bch| bch.iter(|| black_box(a).inv()));
    g.bench_function("inv_ref", |bch| bch.iter(|| black_box(a).inv_ref()));
    g.bench_function("pow", |bch| {
        bch.iter(|| black_box(a).pow(black_box(0xBEEF)))
    });
    g.bench_function("pow_ref", |bch| {
        bch.iter(|| black_box(a).pow_ref(black_box(0xBEEF)))
    });
    let batch: Vec<Gf16> = (1..=256u16).map(Gf16::new).collect();
    g.bench_function("batch_inv_256", |bch| {
        bch.iter(|| {
            let mut xs = batch.clone();
            Gf16::batch_inv(&mut xs);
            xs
        })
    });
    g.finish();
}

/// Pre-PR reconstruction: naive Lagrange over the reference kernel, one
/// Fermat inversion per share — the "before" side of `shamir/reconstruct`.
fn reconstruct_ref(shares: &[ba_crypto::Share]) -> Gf16 {
    let mut acc = Gf16::ZERO;
    for (i, si) in shares.iter().enumerate() {
        let mut num = Gf16::ONE;
        let mut den = Gf16::ONE;
        for (j, sj) in shares.iter().enumerate() {
            if i != j {
                num = num.mul_ref(sj.x);
                den = den.mul_ref(sj.x - si.x);
            }
        }
        let li = num.mul_ref(den.inv_ref().expect("distinct points"));
        acc += si.y.mul_ref(li);
    }
    acc
}

fn bench_shamir(c: &mut Criterion) {
    let mut g = c.benchmark_group("shamir");
    let mut rng = derive_rng(1, 1);
    let secret = Gf16::new(0xFEED);
    for &n in &[16usize, 64, 256] {
        let t = shamir::threshold_for(n);
        g.bench_function(format!("share_n{n}"), |bch| {
            bch.iter(|| shamir::share(black_box(secret), n, t, &mut rng).unwrap())
        });
        let shares = shamir::share(secret, n, t, &mut rng).unwrap();
        g.bench_function(format!("reconstruct_n{n}"), |bch| {
            bch.iter(|| shamir::reconstruct(black_box(&shares[..t + 1])).unwrap())
        });
        g.bench_function(format!("reconstruct_ref_n{n}"), |bch| {
            bch.iter(|| reconstruct_ref(black_box(&shares[..t + 1])))
        });
    }
    // Amortized word-sequence reconstruction: weights computed once for a
    // 64-word payload shared among 64 holders.
    let words: Vec<Gf16> = (0..64u16)
        .map(|i| Gf16::new(i.wrapping_mul(0x2525)))
        .collect();
    let holders = shamir::share_words(&words, 64, shamir::threshold_for(64), &mut rng).unwrap();
    let quorum = &holders[..shamir::threshold_for(64) + 1];
    g.bench_function("reconstruct_batch_64x64", |bch| {
        bch.iter(|| shamir::reconstruct_words(black_box(quorum)).unwrap())
    });
    g.finish();
}

fn bench_sharetree(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharetree");
    let mut rng = derive_rng(9, 9);
    for depth in [2usize, 3] {
        let layers = vec![Layer::majority(8); depth];
        let tree = ShareTree::deal(Gf16::new(0xD00D), &layers, &mut rng).unwrap();
        g.bench_function(format!("recover_depth{depth}"), |bch| {
            bch.iter(|| tree.recover(|_| true))
        });
        g.bench_function(format!("recover_quorum_depth{depth}"), |bch| {
            bch.iter(|| tree.recover(|p| p.iter().all(|&i| i <= 4)))
        });
    }
    g.finish();
}

fn bench_iterated(c: &mut Criterion) {
    let mut g = c.benchmark_group("iterated");
    let mut rng = derive_rng(2, 2);
    for depth in [1usize, 2, 3] {
        let layers = vec![Layer::majority(8); depth];
        g.bench_function(format!("deal_depth{depth}"), |bch| {
            bch.iter(|| ShareTree::deal(black_box(Gf16::new(7)), &layers, &mut rng).unwrap())
        });
        let tree = ShareTree::deal(Gf16::new(7), &layers, &mut rng).unwrap();
        g.bench_function(format!("recover_depth{depth}"), |bch| {
            bch.iter(|| tree.recover(|_| true))
        });
    }
    g.finish();
}

fn bench_sampler(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampler");
    let mut rng = derive_rng(3, 3);
    g.bench_function("random_1024x24", |bch| {
        bch.iter(|| Sampler::random(1024, 1024, 24, &mut rng))
    });
    g.bench_function("regular_graph_1024_d60", |bch| {
        bch.iter(|| RegularGraph::random_out_degree(1024, 60, &mut rng))
    });
    // The memoized path every repeat trial of a sweep now takes: the
    // structure is built once and served from the registry after, so the
    // old pacing bug (a fresh ~2 ms rebuild per iteration at unchanged
    // (n, d)) cannot recur. The hit assertion pins that.
    let before = ba_sampler::cache::stats();
    g.bench_function("regular_graph_1024_d60_cached", |bch| {
        bch.iter(|| {
            ba_sampler::cache::regular_graph(1024, 60, (0xCAC4_ED60, 0xBE9C), || {
                let mut build_rng = derive_rng(0xCAC4_ED60, 0xBE9C);
                RegularGraph::random_out_degree(1024, 60, &mut build_rng)
            })
        })
    });
    let delta = ba_sampler::cache::stats().since(before);
    assert!(
        delta.hits > 0 && delta.misses <= 1,
        "cached bench must hit the registry after one build: {delta:?}"
    );
    g.finish();
}

fn bench_election(c: &mut Criterion) {
    let mut g = c.benchmark_group("election");
    let mut rng = derive_rng(4, 4);
    for r in [8usize, 64, 512] {
        let bins = (r / 4).max(2);
        let choices: Vec<u16> = (0..r).map(|_| rng.gen_range(0..bins as u16)).collect();
        g.bench_function(format!("lightest_bin_r{r}"), |bch| {
            bch.iter(|| lightest_bin(black_box(&choices), bins, (r / bins).max(1)))
        });
    }
    g.finish();
}

fn bench_committee(c: &mut Criterion) {
    let mut g = c.benchmark_group("committee_agreement");
    g.sample_size(20);
    let mut rng = derive_rng(5, 5);
    for k in [32usize, 128] {
        let degree = (6.0 * (k as f64).sqrt()).ceil() as usize;
        let graph = RegularGraph::random_out_degree(k, degree.min(k - 1), &mut rng);
        let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
        let inputs: Vec<bool> = (0..k).map(|i| i % 2 == 0).collect();
        g.bench_function(format!("k{k}_20rounds"), |bch| {
            bch.iter(|| {
                run_committee(
                    &good,
                    &inputs,
                    &graph,
                    |i, r| (i + r) % 2 == 0,
                    20,
                    &AebaConfig::default(),
                    CommitteeAttack::Oppose,
                    &mut rng,
                )
            })
        });
    }
    // The tournament's converged case: a scale-profile level-4 committee
    // (k = 1536, gossip degree 4·log₂4096 = 48) whose good members all
    // hold the same bit, so the kernel reaches its fixed point after the
    // first round.
    let k = 1536;
    let graph = RegularGraph::random_out_degree(k, 48, &mut rng);
    let good: Vec<bool> = (0..k).map(|i| i % 5 != 0).collect();
    let inputs = vec![true; k];
    g.bench_function(format!("k{k}_unanimous_8rounds"), |bch| {
        bch.iter(|| {
            run_committee(
                &good,
                &inputs,
                &graph,
                |i, r| (i + r) % 2 == 0,
                8,
                &AebaConfig::default(),
                CommitteeAttack::Passive,
                &mut rng,
            )
        })
    });
    // The tournament's usual case: the same committee with 1% of inputs
    // flipped by exposure noise. The flipped members change their vote
    // in round 0, so the kernel does work past its first round.
    let inputs: Vec<bool> = (0..k).map(|i| i % 100 != 7).collect();
    g.bench_function(format!("k{k}_near_unanimous_8rounds"), |bch| {
        bch.iter(|| {
            run_committee(
                &good,
                &inputs,
                &graph,
                |i, r| (i + r) % 2 == 0,
                8,
                &AebaConfig::default(),
                CommitteeAttack::Passive,
                &mut rng,
            )
        })
    });
    g.finish();
}

fn bench_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree");
    g.sample_size(10);
    // The scale profile's tree (k₁ = 2·log₂n): membership only, since
    // uplinks and ℓ-links are drawn on first access.
    let n = 4096;
    let params = Params::practical(n).with_k1(24);
    let mut seed = 0u64;
    g.bench_function(format!("generate_n{n}_scale"), |bch| {
        bch.iter(|| {
            seed += 1;
            Tree::generate(&params, seed)
        })
    });
    g.finish();
}

fn bench_ae_to_e(c: &mut Criterion) {
    let mut g = c.benchmark_group("ae_to_e");
    g.sample_size(10);
    // n = 1024 is paper-1024's Algorithm 3 phase: inboxes of ~640
    // requests, below n, so the flood defence never counts senders.
    for n in [64usize, 256, 1024] {
        g.bench_function(format!("full_run_n{n}"), |bch| {
            bch.iter(|| {
                let cfg = AeToEConfig::for_n(n, 0.1);
                let rounds = cfg.total_rounds();
                SimBuilder::new(n)
                    .seed(7)
                    .build(
                        |p, _| AeToEProcess::new(cfg.clone(), (p.index() < 2 * n / 3).then_some(5)),
                        NullAdversary,
                    )
                    .run(rounds + 1)
            })
        });
    }
    g.finish();
}

/// The ba-net event queue: batched same-instant drains vs. one pop per
/// event, on the two arrival shapes the transport produces — a
/// synchronous round burst (every message due at one tick) and a
/// jittery-link spread (arrivals scattered over the round window).
fn bench_event_queue(c: &mut Criterion) {
    use ba_net::EventQueue;

    let mut g = c.benchmark_group("event_queue");
    let n = 4096u64;

    // One round burst: everything lands on the same arrival tick.
    g.bench_function("burst_drain_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(1_000, i, i);
            }
            let mut acc = 0u64;
            q.drain_due(1_000, &mut |_, v| acc += v);
            acc
        })
    });
    g.bench_function("burst_pop_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(1_000, i, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop_due(1_000) {
                acc += v;
            }
            acc
        })
    });

    // Jittery links: arrivals spread over the round window (pseudo-random
    // but fixed, so both sides drain the identical multiset).
    let jitter: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % 1_800).collect();
    g.bench_function("jitter_drain_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for (i, &d) in jitter.iter().enumerate() {
                q.push(1_000 + d, i as u64, i as u64);
            }
            let mut acc = 0u64;
            q.drain_due(3_000, &mut |_, v| acc += v);
            acc
        })
    });
    g.bench_function("jitter_pop_due", |bch| {
        bch.iter(|| {
            let mut q = EventQueue::new();
            for (i, &d) in jitter.iter().enumerate() {
                q.push(1_000 + d, i as u64, i as u64);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop_due(3_000) {
                acc += v;
            }
            acc
        })
    });
    g.finish();
}

/// `NetTransport` on faults-256's link model (heavy-tail latency, floor
/// 100, cap 3000, delta 1000, 2% drops): each round, 16 senders fan one
/// payload out to all 256 processors with `send_many`, after a
/// `collect_many` of everything due. One iteration is one recipient, so
/// the row reads in ns per recipient. The `_reference` row runs the same
/// traffic through the event-queue transport the calendar replaced.
fn bench_net_transport(c: &mut Criterion) {
    use ba_net::transport::reference;
    use ba_net::{FaultPlan, LatencyModel, NetConfig, NetTransport};
    use ba_sim::{Multicast, ProcId, Transport};
    use std::sync::Arc;

    const N: usize = 256;
    const SENDERS: usize = 16;
    let cfg = NetConfig::synchronous()
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
        .with_seed(611);
    let all: Arc<[ProcId]> = (0..N).map(ProcId::new).collect();
    // One recipient per call; every `SENDERS · N` calls run one round.
    fn fan_rounds(t: &mut dyn Transport<u64>, all: Arc<[ProcId]>) -> impl FnMut() -> usize + '_ {
        let (mut k, mut round) = (0usize, 0usize);
        move || {
            k += 1;
            if k < SENDERS * N {
                return 0;
            }
            k = 0;
            round += 1;
            let mut delivered = 0usize;
            t.collect_many(round, &mut |mc| delivered += mc.to.len());
            for s in 0..SENDERS {
                t.send_many(
                    round,
                    Multicast {
                        from: ProcId::new(s),
                        to: all.clone(),
                        payload: round as u64,
                    },
                );
            }
            delivered
        }
    }

    let mut g = c.benchmark_group("net_transport");
    let mut calendar: NetTransport<u64> = NetTransport::new(N, cfg.clone());
    let mut step = fan_rounds(&mut calendar, all.clone());
    g.bench_function("heavy_tail_fan_n256", |bch| bch.iter(&mut step));
    let mut queue: reference::NetTransport<u64> = reference::NetTransport::new(N, cfg);
    let mut step = fan_rounds(&mut queue, all);
    g.bench_function("heavy_tail_fan_n256_reference", |bch| bch.iter(&mut step));
    g.finish();
}

criterion_group!(
    benches,
    bench_gf,
    bench_shamir,
    bench_sharetree,
    bench_iterated,
    bench_sampler,
    bench_election,
    bench_committee,
    bench_tree,
    bench_ae_to_e,
    bench_event_queue,
    bench_net_transport
);
criterion_main!(benches);
