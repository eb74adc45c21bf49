//! The repository benchmark's measuring program. `perfbench/run.py` builds
//! it and runs one process per workload; see `perfbench/README.md`.
//!
//! ```text
//! amle-perfbench run --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//! amle-perfbench record --workload paper-table1|cold-check|daemon
//! ```
//!
//! `run` prints one JSON line: `correct`, `attempted`, `failed`, the
//! metrics (end-to-end ones untraced, per-layer ones traced) and `info`.
//! `record` re-records a workload's reference pool. For a batch workload it
//! runs every seed set with the k-induction engine and with the
//! explicit-state engine (which uses neither bit-blasting nor SAT) and
//! refuses to write unless both agree; for `daemon` it plays every seed set
//! on in-process sessions.

mod batch;
mod daemon;
mod layers;
mod measure;
mod pool;
mod serving;

use amle_core::{fingerprint_digest, ActiveLearner, ActiveLearnerConfig, OracleConfig, OracleKind};
use amle_learner::HistoryLearner;
use layers::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The arguments of `run`.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub info: Vec<(&'static str, String)>,
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    let info: Vec<String> = outcome
        .info
        .iter()
        .map(|(key, value)| format!("\"{key}\":\"{value}\""))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"info\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(","),
        info.join(",")
    )
}

fn parse_run(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value,
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                }
            }
            "--spans" => run.spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(run)
}

fn run(args: RunArgs) -> Result<Outcome, String> {
    let mut outcome = match args.workload.as_str() {
        "paper-table1" => batch::run(&pool::PAPER_TABLE1, &args)?,
        "cold-check" => batch::run(&pool::COLD_CHECK, &args)?,
        "daemon" => daemon::run(&args)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    outcome.info.extend([
        ("engine", OracleKind::KInduction.name().to_string()),
        ("learner", "history".to_string()),
        ("workers", "1".to_string()),
        ("available_parallelism", cores.to_string()),
    ]);
    Ok(outcome)
}

/// Runs one configuration and returns its digest, its wall time in ms and
/// the k-induction queries it made.
fn digest_of(
    benchmark: &amle_benchmarks::Benchmark,
    config: ActiveLearnerConfig,
) -> Result<(String, f64, u64), String> {
    let start = std::time::Instant::now();
    let report = ActiveLearner::new(&benchmark.system, HistoryLearner::default(), config)
        .run()
        .map_err(|e| format!("{}: {e}", benchmark.name))?;
    let cost_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((
        fingerprint_digest(&report.semantic_fingerprint(benchmark.system.vars())),
        cost_ms,
        report.checker_stats.kinduction_queries,
    ))
}

fn record(shape: &pool::Shape) -> Result<(), String> {
    let suite = shape.suite();
    let mut out = format!(
        "# {} reference: seed set, system, fingerprint digest, cost (ms).\n\
         # Written by `amle-perfbench record --workload {}`; the k-induction and\n\
         # explicit-state engines agreed on every digest. The cost is the\n\
         # k-induction run's wall time on the recording machine; it only\n\
         # orders the pool into strata.\n",
        shape.name, shape.name
    );
    for entry in 0..shape.pool {
        for (index, benchmark) in suite.iter().enumerate() {
            let config = batch::config(shape, benchmark, shape.system_seed(entry, index));
            let explicit = ActiveLearnerConfig {
                oracle: OracleConfig {
                    engine: OracleKind::Explicit,
                    explicit_budget: u64::MAX,
                    ..config.oracle
                },
                ..config.clone()
            };
            let (digest, cost_ms, _) = digest_of(benchmark, config)?;
            let (explicit_digest, _, fallbacks) = digest_of(benchmark, explicit)?;
            if explicit_digest != digest || fallbacks != 0 {
                return Err(format!(
                    "seed set {entry}, {}: k-induction digest {digest}, explicit {explicit_digest} \
                     ({fallbacks} k-induction queries in the explicit run)",
                    benchmark.name
                ));
            }
            let _ = writeln!(out, "{entry} {} {digest} {cost_ms:.3}", benchmark.name);
        }
        eprintln!("{}: seed set {entry} recorded", shape.name);
    }
    write_reference(shape.name, out)
}

fn write_reference(workload: &str, text: String) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.txt"));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    measure::epoch();
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => parse_run(args).and_then(run).map(|outcome| {
            println!("{}", render(&outcome));
        }),
        Some("record") => match (args.next().as_deref(), args.next().as_deref()) {
            (Some("--workload"), Some("paper-table1")) => record(&pool::PAPER_TABLE1),
            (Some("--workload"), Some("cold-check")) => record(&pool::COLD_CHECK),
            (Some("--workload"), Some("daemon")) => {
                daemon::record().and_then(|text| write_reference("daemon", text))
            }
            _ => Err("record needs --workload paper-table1|cold-check|daemon".to_string()),
        },
        _ => Err("usage: amle-perfbench run|record ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("amle-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
