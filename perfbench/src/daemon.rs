//! The `daemon` workload: an in-process `amle_serve::Server` on
//! `127.0.0.1:0`, driven closed-loop by two client connections from this
//! process. Each session opens a Table I system and runs three rounds of
//! ingest (8 traces of 12 steps) and refine (at most 3 iterations); every
//! Table I system gets one session per stratum of the recorded pool (four).
//! Every refine reply is checked against the same script played on an
//! in-process `Session`, whose last digest must match the recorded one.

use crate::layers::{interner_metrics, Layers, Metric};
use crate::measure::{
    highest_supported_percentile, median, peak_rss_mib, percentile, timed_setup, SpanLog,
};
use crate::pool::{splitmix, Reference, DAEMON};
use crate::serving::{
    bind_loopback, play_in_process, play_over_wire, Client, LocalOutcome, Op, RunningServer,
    Script, Traffic, WireOutcome,
};
use crate::{Outcome, RunArgs};
use amle_benchmarks::Benchmark;
use amle_system::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections driving the daemon, one request in flight on each.
pub const CONNECTIONS: usize = 2;
const ROUNDS: usize = 3;
const TRACES_PER_BATCH: usize = 8;
const TRACE_LENGTH: usize = 12;
const MAX_ITERATIONS: usize = 3;

/// The session script of `system` for seed set `entry` of the pool.
pub fn script(benchmark: &Benchmark, system: usize, entry: usize) -> Script {
    let session_seed = DAEMON.system_seed(entry, system);
    let simulator = Simulator::new(&benchmark.system);
    let batches = (0..ROUNDS)
        .map(|round| {
            let mut rng = StdRng::seed_from_u64(splitmix(session_seed ^ round as u64));
            simulator
                .random_traces(TRACES_PER_BATCH, TRACE_LENGTH, &mut rng)
                .iter()
                .cloned()
                .collect()
        })
        .collect();
    let ops = (0..ROUNDS)
        .flat_map(|r| [Op::Ingest(r), Op::Refine])
        .collect();
    Script::new(system, benchmark.k, MAX_ITERATIONS, batches, ops)
}

/// The sessions of a pass, as `(seed set, script)`: every Table I system,
/// one session per stratum of the pool. They are handed to the connections
/// longest recorded cost first, so the two heaviest sessions always start
/// together: the overlap that sets peak memory, and the pass's makespan,
/// then no longer depend on scheduling.
fn build_scripts(
    suite: &[Benchmark],
    reference: &Reference,
    seed: u64,
) -> Result<Vec<(usize, Script)>, String> {
    let mut sessions = reference.select(&DAEMON, suite, seed)?;
    sessions.sort_by(|a, b| {
        let cost =
            |(entry, system): &(usize, usize)| reference.cost_ms(*entry, &suite[*system].name);
        cost(b).total_cmp(&cost(a)).then(a.cmp(b))
    });
    Ok(sessions
        .into_iter()
        .map(|(entry, system)| (entry, script(&suite[system], system, entry)))
        .collect())
}

/// Plays every seed set of the pool on in-process sessions and returns the
/// reference file: the last refine's digest and the session's wall time.
pub fn record() -> Result<String, String> {
    let suite = DAEMON.suite();
    let mut out = String::from(
        "# daemon reference: seed set, system, last refine's fingerprint digest, cost (ms).\n\
         # Written by `amle-perfbench record --workload daemon` from in-process sessions;\n\
         # the cost is the session's wall time on the recording machine and only\n\
         # orders the pool into strata.\n",
    );
    for entry in 0..DAEMON.pool {
        for (system, benchmark) in suite.iter().enumerate() {
            let start = Instant::now();
            let played = play_in_process(benchmark, &script(benchmark, system, entry), None);
            let cost_ms = start.elapsed().as_secs_f64() * 1e3;
            let digest = match (&played.error, played.digests.last()) {
                (None, Some(digest)) => digest,
                _ => {
                    return Err(format!(
                        "seed set {entry}, {}: session failed",
                        benchmark.name
                    ))
                }
            };
            out.push_str(&format!(
                "{entry} {} {digest} {cost_ms:.3}\n",
                benchmark.name
            ));
        }
        eprintln!("daemon: seed set {entry} recorded");
    }
    Ok(out)
}

/// One pass: every script played once, spread over the connections.
struct Pass {
    wall: Duration,
    outcomes: Vec<WireOutcome>,
    traffic: Traffic,
}

fn play_pass(
    suite: &[Benchmark],
    scripts: &[Script],
    server: &RunningServer,
    pass: usize,
    mut log: Option<&mut SpanLog>,
) -> Result<Pass, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let trace = log.is_some();
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> Result<_, String> {
                    let mut client = Client::connect(server.addr)?;
                    let mut local_log = SpanLog::default();
                    let mut played = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        let Some(script) = scripts.get(job) else {
                            break;
                        };
                        let name = format!("p{pass}-s{job}");
                        let system = &suite[script.system].name;
                        let run = ((pass as u64) << 32) | job as u64;
                        let spans = trace.then_some((&mut local_log, run));
                        played.push((
                            job,
                            play_over_wire(&mut client, &name, system, script, spans),
                        ));
                    }
                    Ok((played, client.traffic, local_log))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed();
    let mut outcomes = vec![WireOutcome::default(); scripts.len()];
    let mut traffic = Traffic::default();
    for result in results {
        let (played, client_traffic, local_log) = result?;
        traffic.add(&client_traffic);
        for (job, outcome) in played {
            outcomes[job] = outcome;
        }
        if let Some(log) = log.as_mut() {
            log.absorb(local_log);
        }
    }
    Ok(Pass {
        wall,
        outcomes,
        traffic,
    })
}

/// Runs the daemon workload for `args.seconds` and returns its metrics.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let (setup_s, (suite, reference, sessions, server)) = timed_setup(5, || {
        let suite = DAEMON.suite();
        let reference = Reference::parse(DAEMON.reference);
        let sessions = reference
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| build_scripts(&suite, r, args.seed));
        (suite, reference, sessions, bind_loopback())
    });
    let (reference, sessions) = (reference?, sessions?);
    let (entries, scripts): (Vec<usize>, Vec<Script>) = sessions.into_iter().unzip();
    let server = RunningServer::start(server?);
    let mut log = SpanLog::default();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let pass_log = args.trace.then_some(&mut log);
        passes.push(play_pass(
            &suite,
            &scripts,
            &server,
            passes.len(),
            pass_log,
        )?);
    }
    let peak = peak_rss_mib();
    server.stop()?;

    // The reference: the same scripts on in-process sessions, played after
    // the measured passes (and after reading peak memory).
    let mut layers = Layers::default();
    let mut local = Vec::with_capacity(scripts.len());
    for (job, script) in scripts.iter().enumerate() {
        let traced = args.trace.then_some((&mut layers, &mut log, job as u64));
        local.push(play_in_process(&suite[script.system], script, traced));
    }

    let mut traffic = Traffic::default();
    let (mut sessions, mut correct, mut converged) = (0u64, 0u64, 0u64);
    let mut alpha_sum = 0.0;
    let (mut refine_ms, mut ingest_ms) = (Vec::new(), Vec::new());
    for pass in &passes {
        traffic.add(&pass.traffic);
        let played = pass.outcomes.iter().zip(&local).zip(&entries).zip(&scripts);
        for (((outcome, local), entry), Script { system, .. }) in played {
            sessions += 1;
            refine_ms.extend(outcome.refine_latency.iter().map(|d| d.as_secs_f64() * 1e3));
            ingest_ms.extend(outcome.ingest_latency.iter().map(|d| d.as_secs_f64() * 1e3));
            alpha_sum += outcome.final_alpha;
            converged += u64::from(outcome.final_converged);
            let ok = outcome.error.is_none()
                && local.error.is_none()
                && outcome.digests_consistent
                && outcome.digests == local.digests
                && local.digests.last().map(String::as_str)
                    == reference.digest(*entry, &suite[*system].name);
            correct += u64::from(ok);
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let wall_s = median(&walls);
    let total_wall: f64 = walls.iter().sum();
    let mut outcome = Outcome {
        attempted: traffic.attempted,
        failed: traffic.failed,
        correct: correct == sessions,
        metrics: Vec::new(),
        info: vec![
            ("passes", passes.len().to_string()),
            ("sessions_per_pass", scripts.len().to_string()),
            ("connections", CONNECTIONS.to_string()),
            ("refine_samples", refine_ms.len().to_string()),
            ("ingest_samples", ingest_ms.len().to_string()),
            (
                "refine_highest_supported_percentile",
                highest_supported_percentile(refine_ms.len())
                    .map_or("none".to_string(), |p| format!("p{p}")),
            ),
        ],
    };
    if !args.trace {
        outcome.metrics = vec![
            ("setup_s", setup_s, "s"),
            ("wall_s", wall_s, "s"),
            (
                "converged_share",
                converged as f64 / sessions as f64,
                "share",
            ),
            ("alpha_mean", alpha_sum / sessions as f64, "alpha"),
            ("correct_share", correct as f64 / sessions as f64, "share"),
            (
                "failed_share",
                traffic.failed as f64 / traffic.attempted.max(1) as f64,
                "share",
            ),
            ("peak_rss_mib", peak, "MiB"),
            ("refine_p50_ms", percentile(&refine_ms, 0.5), "ms"),
            ("refine_p90_ms", percentile(&refine_ms, 0.9), "ms"),
            ("ingest_p50_ms", percentile(&ingest_ms, 0.5), "ms"),
            (
                "requests_per_s",
                traffic.completed as f64 / total_wall,
                "1/s",
            ),
        ];
        return Ok(outcome);
    }

    // Serve overhead per refine: the daemon's latency minus the in-process
    // time of the same refine.
    let mut overhead_ms = Vec::new();
    for pass in &passes {
        for (outcome, reference) in pass.outcomes.iter().zip(&local) {
            for (latency, session_time) in outcome.refine_latency.iter().zip(&reference.refine_time)
            {
                overhead_ms.push((latency.as_secs_f64() - session_time.as_secs_f64()) * 1e3);
            }
        }
    }
    let sum = |f: fn(&LocalOutcome) -> &Vec<Duration>| -> f64 {
        local.iter().flat_map(f).map(Duration::as_secs_f64).sum()
    };
    let mut metrics: Vec<Metric> = layers.metrics();
    metrics.extend(interner_metrics());
    metrics.extend([
        ("session.refine_s", sum(|l| &l.refine_time), "s"),
        ("session.ingest_s", sum(|l| &l.ingest_time), "s"),
        ("serve.overhead_ms", median(&overhead_ms), "ms"),
        ("serve.refused", traffic.refused as f64, "count"),
        (
            "serve.bytes_per_request",
            traffic.bytes as f64 / traffic.attempted.max(1) as f64,
            "bytes",
        ),
        ("trace.wall_s", wall_s, "s"),
    ]);
    outcome.metrics = metrics;
    outcome.info.extend([
        ("spans", log.len().to_string()),
        ("loop_total_s", layers.at.total.as_secs_f64().to_string()),
    ]);
    if let Some(path) = &args.spans {
        log.write(path)
            .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
    }
    Ok(outcome)
}
