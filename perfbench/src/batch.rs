//! The batch workloads, `paper-table1` and `cold-check`: one
//! `ActiveLearner::run` per system and seed, timed from outside, with every
//! final model's fingerprint checked against the recorded reference digests.
//!
//! Inputs come from the workload's recorded pool (see `pool`).

use crate::layers::{interner_metrics, median_metrics, Layers, Metric};
use crate::measure::{
    attribute, median, peak_rss_mib, percentile, timed_setup, SpanLog, TimedLearner,
};
use crate::pool::{Reference, Shape, PAPER_TABLE1};
use crate::serving::{
    base_config, bind_loopback, play_in_process, play_over_wire, Client, Op, RunningServer, Script,
};
use crate::{Outcome, RunArgs};
use amle_benchmarks::Benchmark;
use amle_core::{
    fingerprint_digest, ActiveLearner, ActiveLearnerConfig, OracleConfig, OracleKind,
    ParallelConfig, RunReport,
};
use amle_learner::{HistoryLearner, ModelLearner};
use amle_system::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The configuration of one run: `paper-table1` is the paper's shape
/// (50 traces of 50 steps, each model's own k, 30 iterations);
/// `cold-check` the first three refinement rounds on 12 traces of 12
/// steps with k at most 5.
pub fn config(shape: &Shape, benchmark: &Benchmark, seed: u64) -> ActiveLearnerConfig {
    let config = if shape.name == PAPER_TABLE1.name {
        amle_bench::paper_config(benchmark)
    } else {
        ActiveLearnerConfig {
            initial_traces: 12,
            trace_length: 12,
            ..base_config(benchmark, benchmark.k.min(5), 3)
        }
    };
    ActiveLearnerConfig {
        seed,
        parallel: ParallelConfig::with_workers(1),
        oracle: OracleConfig {
            engine: OracleKind::KInduction,
            ..OracleConfig::default()
        },
        ..config
    }
}

/// One run of the pass.
struct Input {
    entry: usize,
    system: usize,
    config: ActiveLearnerConfig,
}

struct Setup {
    suite: Vec<Benchmark>,
    reference: Reference,
    inputs: Vec<Input>,
}

fn setup(shape: &Shape, seed: u64) -> Result<Setup, String> {
    let suite = shape.suite();
    let reference = Reference::parse(shape.reference)?;
    let inputs = reference
        .select(shape, &suite, seed)?
        .into_iter()
        .map(|(entry, system)| Input {
            entry,
            system,
            config: config(shape, &suite[system], shape.system_seed(entry, system)),
        })
        .collect();
    Ok(Setup {
        suite,
        reference,
        inputs,
    })
}

/// What one `ActiveLearner::run` produced, measured from outside.
struct RunSample {
    start: Instant,
    end: Instant,
    report: Option<RunReport>,
}

impl RunSample {
    fn wall(&self) -> Duration {
        self.end - self.start
    }
}

fn run_one<L: ModelLearner>(
    benchmark: &Benchmark,
    learner: L,
    config: &ActiveLearnerConfig,
) -> RunSample {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        ActiveLearner::new(&benchmark.system, learner, config.clone()).run()
    }));
    RunSample {
        start,
        end: Instant::now(),
        report: match result {
            Ok(Ok(report)) => Some(report),
            _ => None,
        },
    }
}

/// Runs a batch workload for `args.seconds` and returns its metrics.
pub fn run(shape: &Shape, args: &RunArgs) -> Result<Outcome, String> {
    let (setup_s, setup) = timed_setup(5, || setup(shape, args.seed));
    let setup = setup?;
    let mut log = SpanLog::default();
    let mut pass_walls = Vec::new();
    // Per system: summed run time, summed time outside the refinement loop,
    // and runs, over every pass.
    let mut per_system = vec![(Duration::ZERO, Duration::ZERO, 0u32); setup.suite.len()];
    let mut pass_layers: Vec<Layers> = Vec::new();
    let (mut attempted, mut failed, mut correct, mut converged) = (0u64, 0u64, 0u64, 0u64);
    let mut alpha_sum = 0.0;
    let started = Instant::now();
    while pass_walls.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let pass_id = pass_walls.len() as u64;
        let pass_start = Instant::now();
        let mut wall = Duration::ZERO;
        let mut layers = Layers::default();
        for (i, input) in setup.inputs.iter().enumerate() {
            let benchmark = &setup.suite[input.system];
            attempted += 1;
            let run_id = pass_id << 32 | i as u64;
            let (sample, calls) = if args.trace {
                let (learner, calls) = TimedLearner::new(HistoryLearner::default());
                (run_one(benchmark, learner, &input.config), calls.take())
            } else {
                (
                    run_one(benchmark, HistoryLearner::default(), &input.config),
                    Vec::new(),
                )
            };
            let run_wall = sample.wall();
            wall += run_wall;
            let Some(report) = sample.report else {
                failed += 1;
                continue;
            };
            let system = &mut per_system[input.system];
            system.0 += run_wall;
            system.1 += run_wall.saturating_sub(report.total_time);
            system.2 += 1;
            alpha_sum += report.alpha;
            converged += u64::from(report.converged);
            let digest = fingerprint_digest(&report.semantic_fingerprint(benchmark.system.vars()));
            if setup.reference.digest(input.entry, &benchmark.name) == Some(digest.as_str()) {
                correct += 1;
            }
            if args.trace {
                let parent = log.push(
                    None,
                    run_id,
                    "active_learner.run",
                    "measured",
                    sample.start,
                    sample.end,
                );
                let at = attribute(
                    &report,
                    &calls,
                    &benchmark.system.init_expr(),
                    Some((&mut log, parent, run_id)),
                );
                layers.add_run(&report, &at, true);
            }
        }
        if args.trace {
            log.push(
                None,
                pass_id << 32,
                "pass",
                "measured",
                pass_start,
                Instant::now(),
            );
            pass_layers.push(layers);
        }
        pass_walls.push(wall.as_secs_f64());
    }
    let peak = peak_rss_mib();
    let runs = attempted as f64;
    let wall_s = median(&pass_walls);
    // Latency samples are per system (the paper's per-model `T`): the mean
    // over the run's seed sets and passes.
    let mean_ms = |pick: fn(&(Duration, Duration, u32)) -> Duration| -> Vec<f64> {
        per_system
            .iter()
            .filter(|s| s.2 > 0)
            .map(|s| pick(s).as_secs_f64() * 1e3 / f64::from(s.2))
            .collect()
    };
    let (run_ms, outside_loop_ms) = (mean_ms(|s| s.0), mean_ms(|s| s.1));
    let mut outcome = Outcome {
        attempted,
        failed,
        correct: correct == attempted,
        metrics: Vec::new(),
        info: vec![
            ("passes", pass_walls.len().to_string()),
            ("runs_per_pass", setup.inputs.len().to_string()),
            ("refine_samples", format!("{} systems", run_ms.len())),
        ],
    };
    if !args.trace {
        outcome.metrics = vec![
            ("setup_s", setup_s, "s"),
            ("wall_s", wall_s, "s"),
            ("converged_share", converged as f64 / runs, "share"),
            ("alpha_mean", alpha_sum / runs, "alpha"),
            ("correct_share", correct as f64 / runs, "share"),
            ("failed_share", failed as f64 / runs, "share"),
            ("peak_rss_mib", peak, "MiB"),
            ("refine_p50_ms", percentile(&run_ms, 0.5), "ms"),
            ("refine_p90_ms", percentile(&run_ms, 0.9), "ms"),
            ("ingest_p50_ms", percentile(&outside_loop_ms, 0.5), "ms"),
            ("requests_per_s", setup.inputs.len() as f64 / wall_s, "1/s"),
        ];
        return Ok(outcome);
    }

    // Traced: layer metrics are per pass (the median pass), then one seed
    // set is replayed on in-process sessions and through the daemon.
    let per_pass: Vec<Vec<Metric>> = pass_layers.iter().map(Layers::metrics).collect();
    let mut metrics = median_metrics(&per_pass);
    metrics.extend(interner_metrics());
    let loop_total: Vec<f64> = pass_layers
        .iter()
        .map(|l| l.at.total.as_secs_f64())
        .collect();
    outcome
        .info
        .push(("loop_total_s", median(&loop_total).to_string()));
    let replay = replay_stratum(&setup, &mut log)?;
    if !replay.consistent {
        outcome.correct = false;
    }
    metrics.extend(replay.metrics);
    metrics.push(("trace.wall_s", wall_s, "s"));
    outcome.metrics = metrics;
    outcome.info.push(("spans", log.len().to_string()));
    if let Some(path) = &args.spans {
        log.write(path)
            .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

struct Replay {
    metrics: Vec<Metric>,
    consistent: bool,
}

/// Replays the pass's first stratum (every system once) as one ingest and
/// one refine per system, on an in-process `Session` and then through the
/// daemon over loopback. Both must reproduce the batch run's reference
/// digest.
fn replay_stratum(setup: &Setup, log: &mut SpanLog) -> Result<Replay, String> {
    let inputs = &setup.inputs[..setup.suite.len()];
    let scripts: Vec<Script> = inputs
        .iter()
        .map(|input| {
            let mut rng = StdRng::seed_from_u64(input.config.seed);
            let traces = Simulator::new(&setup.suite[input.system].system).random_traces(
                input.config.initial_traces,
                input.config.trace_length,
                &mut rng,
            );
            Script::new(
                input.system,
                input.config.k,
                input.config.max_iterations,
                vec![traces.iter().cloned().collect()],
                vec![Op::Ingest(0), Op::Refine],
            )
        })
        .collect();
    let mut consistent = true;
    let (mut ingest_s, mut refine_s) = (0.0, 0.0);
    let mut local_refine = Vec::new();
    for (script, input) in scripts.iter().zip(inputs) {
        let benchmark = &setup.suite[script.system];
        let local = play_in_process(benchmark, script, None);
        ingest_s += local
            .ingest_time
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>();
        refine_s += local
            .refine_time
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>();
        local_refine.push(local.refine_time.first().copied().unwrap_or_default());
        consistent &= local.error.is_none()
            && local.digests.first().map(String::as_str)
                == setup.reference.digest(input.entry, &benchmark.name);
    }
    let server = RunningServer::start(bind_loopback()?);
    let mut client = Client::connect(server.addr)?;
    let mut overhead_ms = Vec::new();
    for (i, (script, input)) in scripts.iter().zip(inputs).enumerate() {
        let benchmark = &setup.suite[script.system];
        let name = format!("replay-{i}");
        let wire = play_over_wire(
            &mut client,
            &name,
            &benchmark.name,
            script,
            Some((log, i as u64)),
        );
        consistent &= wire.error.is_none()
            && wire.digests_consistent
            && wire.digests.first().map(String::as_str)
                == setup.reference.digest(input.entry, &benchmark.name);
        if let Some(latency) = wire.refine_latency.first() {
            overhead_ms.push((latency.as_secs_f64() - local_refine[i].as_secs_f64()) * 1e3);
        }
    }
    let traffic = client.traffic;
    drop(client);
    server.stop()?;
    Ok(Replay {
        metrics: vec![
            ("session.refine_s", refine_s, "s"),
            ("session.ingest_s", ingest_s, "s"),
            ("serve.overhead_ms", median(&overhead_ms), "ms"),
            ("serve.refused", traffic.refused as f64, "count"),
            (
                "serve.bytes_per_request",
                traffic.bytes as f64 / traffic.attempted.max(1) as f64,
                "bytes",
            ),
        ],
        consistent,
    })
}
