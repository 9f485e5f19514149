//! The repository benchmark: agreements per second of the full
//! Algorithm 4 stack (`ba_core::everywhere::run_with_transport`) on three
//! fixed workloads, with per-phase and transport timing measured from
//! outside the program. See `README.md` beside this crate.
//!
//! ```text
//! stackbench --workload <scale-4096|paper-1024|faults-256> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! exit code is non-zero when any check fails.

mod timed;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use timed::Probe;
use workload::{cross_check, phase_group, run_trial, trial_seed, Done, Trial, Workload};

/// The bit and round guards average over this many leading trials, so
/// they depend on the workload seed only, never on how many trials fit.
/// Every run times at least this many.
const GUARD_TRIALS: usize = 4;

/// `ba_sampler::cache` keeps at most this many entries and clears itself
/// when an insert finds it full.
const CACHE_CAPACITY: usize = 512;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Report(Vec<(&'static str, f64, &'static str)>);

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `seeds` as one fan-out over the `ba-par` pool; returns the trials
/// and the fan-out's wall time.
fn fan_out(workload: Workload, seeds: &[u64], traced: bool) -> (Vec<Trial>, f64) {
    let start = Instant::now();
    let trials = ba_par::par_map_index(seeds.len(), |i| run_trial(workload, seeds[i], traced));
    (trials, start.elapsed().as_secs_f64())
}

/// Empties the sampler cache through its public API: one more distinct
/// tiny graph than it can hold forces a clear after every earlier entry,
/// so the traced fan-out rebuilds what the untraced one built.
fn evict_sampler_cache() {
    for i in 0..=CACHE_CAPACITY as u64 {
        ba_sampler::cache::regular_graph(2, 1, (i, 0x57AC_BE4C), || {
            ba_sampler::RegularGraph::random_out_degree(
                2,
                1,
                &mut ba_sim::derive_rng(i, 0x57AC_BE4C),
            )
        });
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    // Never more lanes than cores; the pool sizes itself from this on
    // first use, so set it before any fan-out.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = ba_par::num_threads().min(cores);
    std::env::set_var("BA_PAR_THREADS", threads.to_string());

    let mut errors: Vec<String> = Vec::new();

    // ---- Set-up: one warm-up trial per lane, on seeds outside the
    // measured set. Each lane's set-up ends when its warm-up does.
    let warm_seeds: Vec<u64> = (0..threads)
        .map(|i| trial_seed(args.seed, i, true))
        .collect();
    let warm = ba_par::par_map_index(threads, |i| {
        let trial = run_trial(workload, warm_seeds[i], false);
        (trial, start.elapsed().as_secs_f64())
    });
    for (trial, _) in &warm {
        if let Err(e) = &trial.result {
            errors.push(format!("warm-up seed {}: {e}", trial.seed));
        }
    }
    let setup_s = median(warm.iter().map(|(_, at)| *at).collect());
    let warm_trial_s = median(warm.iter().map(|(t, _)| t.wall_s).collect());

    // ---- Timed fan-out: enough whole rounds of `threads` trials to
    // fill `--seconds` at the warm-up's pace.
    let rounds = (args.seconds / warm_trial_s.max(1e-3)).round() as usize;
    let count = threads * rounds.max(GUARD_TRIALS.div_ceil(threads));
    let seeds: Vec<u64> = (0..count)
        .map(|i| trial_seed(args.seed, i, false))
        .collect();
    let cache_before = ba_sampler::cache::stats();
    let (trials, wall) = fan_out(workload, &seeds, false);
    let cache = ba_sampler::cache::stats().since(cache_before);
    for t in &trials {
        if let Err(e) = &t.result {
            errors.push(format!("seed {}: {e}", t.seed));
        }
    }
    if cache.hits > 0 {
        eprintln!(
            "stackbench: warning: {} sampler-cache hits in the timed fan-out; measured trials reused samplers",
            cache.hits
        );
    }
    if let Ok(first) = &trials[0].result {
        if let Err(e) = cross_check(workload, first, seeds[0]) {
            errors.push(format!("ba_exp::run_trial cross-check: {e}"));
        }
    }

    let mut report = Report::default();
    let mut failed = trials.iter().filter(|t| t.result.is_err()).count();
    if args.trace {
        failed = per_layer(
            &mut report,
            workload,
            &seeds,
            &trials,
            wall,
            threads,
            &mut errors,
        );
    } else {
        let completed = trials.len() - failed;
        let guards: Vec<&Done> = trials[..GUARD_TRIALS]
            .iter()
            .filter_map(|t| t.result.as_ref().ok())
            .collect();
        let guard_mean = |f: &dyn Fn(&Done) -> f64| {
            guards.iter().map(|d| f(d)).sum::<f64>() / guards.len().max(1) as f64
        };
        report.put("setup_s", setup_s, "s");
        report.put("trials_per_s", completed as f64 / wall, "1/s");
        report.put(
            "trial_s_p50",
            median(trials.iter().map(|t| t.wall_s).collect()),
            "s",
        );
        report.put("peak_rss_mb", peak_rss_mb(), "MB");
        report.put(
            "agreement_rate",
            completed as f64 / trials.len() as f64,
            "ratio",
        );
        report.put(
            "bits_good_max",
            guard_mean(&|d| d.bits_good_max as f64),
            "bit",
        );
        report.put("bits_good_mean", guard_mean(&|d| d.bits_good_mean), "bit");
        report.put(
            "rounds_mean",
            guard_mean(&|d| d.digest.rounds as f64),
            "round",
        );
    }

    println!(
        "stackbench {} seed {}: {} timed trials on {} threads ({} warm-up), fan-out {:.3} s",
        workload.name(),
        args.seed,
        trials.len(),
        threads,
        warm.len(),
        wall
    );
    for (name, value, unit) in &report.0 {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    for e in &errors {
        eprintln!("stackbench: check failed: {e}");
    }
    let correct = errors.is_empty();
    println!("{}", report.json(correct, trials.len(), failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn probe(done: &Done) -> &Probe {
    done.probe.as_ref().expect("traced trials carry a probe")
}

/// The traced run: the same seeds again through the timing decorator.
/// Fills `report` with the per-layer metrics and returns how many seeds
/// failed in either run.
fn per_layer(
    report: &mut Report,
    workload: Workload,
    seeds: &[u64],
    untraced: &[Trial],
    untraced_wall: f64,
    threads: usize,
    errors: &mut Vec<String>,
) -> usize {
    evict_sampler_cache();
    let cache_before = ba_sampler::cache::stats();
    let (traced, wall) = fan_out(workload, seeds, true);
    let cache = ba_sampler::cache::stats().since(cache_before);
    let mut failed = 0;
    for (u, t) in untraced.iter().zip(&traced) {
        match (&u.result, &t.result) {
            (Ok(a), Ok(b)) if a.digest == b.digest => {}
            (Ok(_), Ok(_)) => {
                failed += 1;
                errors.push(format!(
                    "seed {}: traced outcome differs from untraced",
                    t.seed
                ));
            }
            (_, Err(e)) => {
                failed += 1;
                errors.push(format!("traced seed {}: {e}", t.seed));
            }
            (Err(_), Ok(_)) => failed += 1,
        }
    }
    if cache.hits > 0 {
        eprintln!(
            "stackbench: warning: {} sampler-cache hits in the traced fan-out",
            cache.hits
        );
    }

    let done: Vec<&Done> = traced
        .iter()
        .filter_map(|t| t.result.as_ref().ok())
        .collect();
    let k = done.len().max(1) as f64;
    let per_trial = |f: &dyn Fn(&Done) -> f64| done.iter().map(|d| f(d)).sum::<f64>() / k;
    let mut windows: BTreeMap<&str, f64> = BTreeMap::new();
    for d in &done {
        for (label, s) in &probe(d).windows {
            *windows
                .entry(phase_group(label).expect("labels checked per trial"))
                .or_default() += s / k;
        }
    }
    let window = |name: &str| windows.get(name).copied().unwrap_or(0.0);
    let net =
        |f: &dyn Fn(&ba_net::NetStats) -> u64| per_trial(&|d| d.net.as_ref().map_or(0, f) as f64);
    let busy: f64 = traced.iter().map(|t| t.wall_s).sum();

    report.put("tournament.deal_s", window("tournament.deal_s"), "s");
    report.put(
        "tournament.expose_agree_s",
        window("tournament.expose_agree_s"),
        "s",
    );
    report.put("tournament.winners_s", window("tournament.winners_s"), "s");
    report.put("tournament.root_s", window("tournament.root_s"), "s");
    report.put("ae_to_e.run_s", window("ae_to_e.run_s"), "s");
    report.put("trace.trial_s", per_trial(&|d| probe(d).wall_s()), "s");
    report.put("sampler.cache_misses", cache.misses as f64 / k, "count");
    report.put("sampler.cache_hits", cache.hits as f64 / k, "count");
    report.put("transport.send_s", per_trial(&|d| probe(d).send_s), "s");
    report.put(
        "transport.collect_s",
        per_trial(&|d| probe(d).collect_s),
        "s",
    );
    report.put(
        "transport.envelopes",
        per_trial(&|d| probe(d).envelopes as f64),
        "count",
    );
    report.put(
        "transport.multicasts",
        per_trial(&|d| probe(d).multicasts as f64),
        "count",
    );
    report.put(
        "transport.recipients",
        per_trial(&|d| probe(d).recipients as f64),
        "count",
    );
    report.put(
        "transport.wire_bits_tournament",
        per_trial(&|d| probe(d).wire_bits_tournament as f64),
        "bit",
    );
    report.put(
        "transport.wire_bits_ae",
        per_trial(&|d| probe(d).wire_bits_ae as f64),
        "bit",
    );
    report.put("net.sent", net(&|s| s.sent), "count");
    report.put("net.delivered", net(&|s| s.delivered), "count");
    report.put("net.dropped", net(&|s| s.dropped()), "count");
    report.put("net.late", net(&|s| s.late), "count");
    report.put(
        "net.in_flight_at_end",
        net(&|s| s.in_flight_at_end),
        "count",
    );
    let sent = net(&|s| s.sent);
    report.put(
        "net.delivered_ratio",
        if sent > 0.0 {
            net(&|s| s.delivered) / sent
        } else {
            0.0
        },
        "ratio",
    );
    report.put("par.trial_busy_s", busy, "s");
    report.put("par.utilization", busy / (wall * threads as f64), "ratio");
    report.put(
        "tournament.priced_bits",
        per_trial(&|d| {
            let tournament: u64 = d
                .digest
                .phase_bits
                .iter()
                .filter(|(p, _)| p != "ae")
                .map(|(_, b)| b)
                .sum();
            tournament as f64 - probe(d).wire_bits_tournament as f64
        }),
        "bit",
    );
    report.put("trace.overhead_ratio", wall / untraced_wall, "ratio");
    failed
}
