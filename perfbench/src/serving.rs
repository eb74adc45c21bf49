//! Session scripts (a sequence of ingest and refine operations on one
//! system) and the two ways the benchmark plays them: over loopback TCP
//! against an in-process `amle_serve::Server`, and directly on an
//! in-process `amle_core::Session`, which is the reference the daemon's
//! replies are checked against.

use crate::layers::Layers;
use crate::measure::{attribute, SpanLog, TimedLearner};
use amle_benchmarks::Benchmark;
use amle_core::{
    fingerprint_digest, ActiveLearnerConfig, OracleConfig, OracleKind, ParallelConfig, Session,
};
use amle_learner::HistoryLearner;
use amle_serve::json::{obj, parse_json, Json};
use amle_serve::Server;
use amle_system::{wire, Trace};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retries of one operation refused with a retriable error before it counts
/// as failed for good.
const MAX_RETRIES: usize = 20;

/// The learner configuration every workload uses: one worker, the
/// k-induction engine, verdict cache on, default solver policy. The fields
/// `ActiveLearnerConfig::default()` reads from `AMLE_*` variables are all
/// set here, so the environment cannot change them.
pub fn base_config(benchmark: &Benchmark, k: usize, max_iterations: usize) -> ActiveLearnerConfig {
    ActiveLearnerConfig {
        observables: Some(benchmark.observables.clone()),
        k,
        max_iterations,
        max_spurious_rounds: 10,
        parallel: ParallelConfig::with_workers(1),
        oracle: OracleConfig {
            engine: OracleKind::KInduction,
            ..OracleConfig::default()
        },
        ..ActiveLearnerConfig::default()
    }
}

/// One operation of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ingest the batch with this index.
    Ingest(usize),
    Refine,
}

/// A session's operations, prepared in set-up: the traces of every batch
/// and their rendering as `ingest` payloads.
#[derive(Debug, Clone)]
pub struct Script {
    /// Index of the system in the workload's suite.
    pub system: usize,
    pub k: usize,
    pub max_iterations: usize,
    pub batches: Vec<Vec<Trace>>,
    /// `ingest` request bodies without the session name, one per batch.
    ingest_traces: Vec<String>,
    pub ops: Vec<Op>,
}

impl Script {
    pub fn new(
        system: usize,
        k: usize,
        max_iterations: usize,
        batches: Vec<Vec<Trace>>,
        ops: Vec<Op>,
    ) -> Script {
        let ingest_traces = batches
            .iter()
            .map(|batch| {
                let traces: Json = batch
                    .iter()
                    .map(|t| -> Json {
                        wire::trace_to_rows(t)
                            .into_iter()
                            .map(|row| -> Json { row.into_iter().map(Json::from).collect() })
                            .collect()
                    })
                    .collect();
                traces.render()
            })
            .collect();
        Script {
            system,
            k,
            max_iterations,
            batches,
            ingest_traces,
            ops,
        }
    }

    pub fn refines(&self) -> usize {
        self.ops.iter().filter(|op| **op == Op::Refine).count()
    }
}

/// Request and failure counts of one client.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub attempted: u64,
    pub failed: u64,
    /// Retriable refusals (full queue or deadline exceeded).
    pub refused: u64,
    /// Request and reply bytes, newlines included.
    pub bytes: u64,
    /// Requests answered with `ok`.
    pub completed: u64,
}

impl Traffic {
    pub fn add(&mut self, other: &Traffic) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.bytes += other.bytes;
        self.completed += other.completed;
    }
}

/// One protocol connection with `TCP_NODELAY` set, so that any stall
/// measured belongs to the daemon, and each request written with one call.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    pub traffic: Traffic,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client {
            stream,
            reader,
            traffic: Traffic::default(),
        })
    }

    /// Sends one request line (ending in `\n`) and waits for its reply.
    /// Retriable refusals are retried, each retry counting as a new attempt
    /// and the refusal as a failed one. Returns the reply and the latency
    /// from the first attempt to the reply.
    pub fn call(&mut self, line: &str) -> Result<(Json, Duration), String> {
        let start = Instant::now();
        let mut reply = String::new();
        for _ in 0..=MAX_RETRIES {
            self.traffic.attempted += 1;
            if let Err(e) = self.stream.write_all(line.as_bytes()) {
                self.traffic.failed += 1;
                return Err(format!("write request: {e}"));
            }
            reply.clear();
            match self.reader.read_line(&mut reply) {
                Ok(0) => {
                    self.traffic.failed += 1;
                    return Err("daemon closed the connection".to_string());
                }
                Ok(_) => {}
                Err(e) => {
                    self.traffic.failed += 1;
                    return Err(format!("read reply: {e}"));
                }
            }
            self.traffic.bytes += (line.len() + reply.len()) as u64;
            let json = match parse_json(reply.trim_end()) {
                Ok(json) => json,
                Err(e) => {
                    self.traffic.failed += 1;
                    return Err(format!("bad reply line: {e}"));
                }
            };
            if json.get("ok").and_then(Json::as_bool) == Some(true) {
                self.traffic.completed += 1;
                return Ok((json, start.elapsed()));
            }
            self.traffic.failed += 1;
            let error = json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("error reply without a message")
                .to_string();
            if json.get("retriable").and_then(Json::as_bool) != Some(true) {
                return Err(error);
            }
            self.traffic.refused += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("still refused after {MAX_RETRIES} retries"))
    }
}

/// The outcome of one script played over the wire.
#[derive(Debug, Clone, Default)]
pub struct WireOutcome {
    pub ingest_latency: Vec<Duration>,
    pub refine_latency: Vec<Duration>,
    /// `fingerprint_digest` of each refine reply, in order.
    pub digests: Vec<String>,
    /// Whether every reply's `fingerprint` re-digests to its
    /// `fingerprint_digest`.
    pub digests_consistent: bool,
    pub final_alpha: f64,
    pub final_converged: bool,
    pub error: Option<String>,
}

/// A bound server running on its own thread.
pub struct RunningServer {
    pub addr: SocketAddr,
    join: JoinHandle<std::io::Result<()>>,
}

/// Binds a daemon to an ephemeral loopback port.
pub fn bind_loopback() -> Result<Server, String> {
    Server::bind("127.0.0.1:0").map_err(|e| format!("bind 127.0.0.1:0: {e}"))
}

impl RunningServer {
    pub fn start(server: Server) -> RunningServer {
        let addr = server.local_addr();
        let join = std::thread::spawn(move || server.run());
        RunningServer { addr, join }
    }

    /// Sends `shutdown`, then waits for the daemon to drain and its thread
    /// to end.
    pub fn stop(self) -> Result<(), String> {
        let mut client = Client::connect(self.addr)?;
        client.call("{\"op\":\"shutdown\"}\n")?;
        drop(client);
        match self.join.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

fn request_line(pairs: Vec<(&str, Json)>) -> String {
    let mut line = pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect::<Json>()
        .render();
    line.push('\n');
    line
}

/// Plays `script` as session `name` over `client`: open, the script's
/// operations, close. Stops at the first failed operation.
pub fn play_over_wire(
    client: &mut Client,
    name: &str,
    system: &str,
    script: &Script,
    mut spans: Option<(&mut SpanLog, u64)>,
) -> WireOutcome {
    let mut outcome = WireOutcome {
        digests_consistent: true,
        ..WireOutcome::default()
    };
    let session = Json::from(name);
    let config = obj([
        ("k", Json::from(script.k)),
        ("max_iterations", Json::from(script.max_iterations)),
        ("workers", Json::from(1usize)),
        ("learner", Json::from("history")),
        ("engine", Json::from("kinduction")),
    ]);
    let open = request_line(vec![
        ("op", Json::from("open")),
        ("session", session.clone()),
        ("system", Json::from(system)),
        ("config", config),
    ]);
    let refine = request_line(vec![
        ("op", Json::from("refine")),
        ("session", session.clone()),
    ]);
    let close = request_line(vec![("op", Json::from("close")), ("session", session)]);
    let session_start = Instant::now();
    let mut requests = Vec::new();
    let mut step = |client: &mut Client, label: &'static str, line: &str| {
        let start = Instant::now();
        let result = client.call(line);
        requests.push((label, start, Instant::now()));
        result
    };
    if let Err(e) = step(client, "serve.open", &open) {
        outcome.error = Some(format!("open: {e}"));
        return outcome;
    }
    for op in &script.ops {
        match op {
            Op::Ingest(batch) => {
                // The trace payload was rendered in set-up; only the session
                // name is spliced in here.
                let line = format!(
                    "{{\"op\":\"ingest\",\"session\":{},\"traces\":{}}}\n",
                    Json::from(name).render(),
                    script.ingest_traces[*batch]
                );
                match step(client, "serve.ingest", &line) {
                    Ok((_, latency)) => outcome.ingest_latency.push(latency),
                    Err(e) => {
                        outcome.error = Some(format!("ingest: {e}"));
                        break;
                    }
                }
            }
            Op::Refine => match step(client, "serve.refine", &refine) {
                Ok((reply, latency)) => {
                    outcome.refine_latency.push(latency);
                    let digest = reply
                        .get("fingerprint_digest")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string();
                    let fingerprint = reply
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .unwrap_or_default();
                    outcome.digests_consistent &= fingerprint_digest(fingerprint) == digest;
                    outcome.digests.push(digest);
                    outcome.final_alpha = reply.get("alpha").and_then(Json::as_f64).unwrap_or(0.0);
                    outcome.final_converged =
                        reply.get("converged").and_then(Json::as_bool) == Some(true);
                }
                Err(e) => {
                    outcome.error = Some(format!("refine: {e}"));
                    break;
                }
            },
        }
    }
    if let Err(e) = step(client, "serve.close", &close) {
        outcome.error.get_or_insert(format!("close: {e}"));
    }
    if let Some((log, run)) = spans.as_mut() {
        let parent = log.push(
            None,
            *run,
            "serve.session",
            "measured",
            session_start,
            Instant::now(),
        );
        for (label, start, end) in requests {
            log.push(Some(parent), *run, label, "measured", start, end);
        }
    }
    outcome
}

/// The outcome of one script played on an in-process `Session`.
#[derive(Debug, Clone, Default)]
pub struct LocalOutcome {
    pub digests: Vec<String>,
    pub ingest_time: Vec<Duration>,
    pub refine_time: Vec<Duration>,
    pub error: Option<String>,
}

/// Plays `script` on an in-process `Session` over `benchmark`. With
/// `layers`, the learner is wrapped and every refine is attributed by layer.
pub fn play_in_process(
    benchmark: &Benchmark,
    script: &Script,
    mut layers: Option<(&mut Layers, &mut SpanLog, u64)>,
) -> LocalOutcome {
    let config = base_config(benchmark, script.k, script.max_iterations);
    let system = &benchmark.system;
    let init = system.init_expr();
    let mut outcome = LocalOutcome::default();
    let (learner, calls) = TimedLearner::new(HistoryLearner::default());
    let mut session = Session::new(system, learner, config);
    let refines = script.refines();
    let mut refined = 0;
    for op in &script.ops {
        match op {
            Op::Ingest(batch) => {
                let batch = script.batches[*batch].clone();
                let start = Instant::now();
                session.ingest(batch);
                let end = Instant::now();
                outcome.ingest_time.push(end - start);
                if let Some((_, log, run)) = layers.as_mut() {
                    log.push(None, *run, "session.ingest", "measured", start, end);
                }
            }
            Op::Refine => {
                let start = Instant::now();
                let result = session.refine();
                let end = Instant::now();
                let calls = calls.take();
                let report = match result {
                    Ok(report) => report,
                    Err(e) => {
                        outcome.error = Some(e.to_string());
                        return outcome;
                    }
                };
                refined += 1;
                outcome.refine_time.push(end - start);
                outcome.digests.push(fingerprint_digest(
                    &report.semantic_fingerprint(system.vars()),
                ));
                if let Some((totals, log, run)) = layers.as_mut() {
                    let parent = log.push(None, *run, "session.refine", "measured", start, end);
                    let at = attribute(&report, &calls, &init, Some((&mut **log, parent, *run)));
                    totals.add_run(&report, &at, refined == refines);
                }
            }
        }
    }
    outcome
}
