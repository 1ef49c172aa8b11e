//! `serve-mixed`: an in-process daemon over `HarnessBackend`, driven by
//! closed-loop clients replaying a request sequence drawn from the seed.
//!
//! Each round starts a fresh daemon on a fresh cache, so the first
//! request for a job computes it (executor, cache store, journal) and
//! its repeats are cache hits or coalesced followers.

use crate::common::{cpu_s, golden, per_layer_zeroed, Outcome, Samples, Tree, WORKERS};
use crate::stats::{median, Metrics};
use sparten::faults::FaultRng;
use sparten::telemetry::Telemetry;
use sparten_bench::json::Json;
use sparten_harness::registry;
use sparten_harness::serve::HarnessBackend;
use sparten_serve::{client, DrainReport, ServeOptions, Server};
use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The cheap jobs requested: the tables and the GoogLeNet figures, each
/// computing in at most about half a second.
const JOBS: [&str; 7] = [
    "table1_design_goals",
    "table2_hw_params",
    "table3_benchmarks",
    "table4_asic",
    "fig8_googlenet_speedup",
    "fig11_googlenet_breakdown",
    "fig16_googlenet_fpga",
];

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Requests per client per round (one fresh daemon per round).
const PER_CLIENT: usize = 20;
/// Fewest requests in a run, so at least 10 samples lie beyond p99.
const MIN_REQUESTS: usize = 1000;
/// Daemon start-ups averaged in one set-up sample, taken before each
/// round so the samples span the run. The serve loop polls its listener
/// with a 1 ms nap, so a single start-up answers its first `/healthz`
/// either at once or a nap later; the mean of a batch is unimodal where
/// one start-up is not.
const SETUP_BATCH: usize = 16;

/// How the daemon answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Runner,
    Cache,
    Follower,
    Refused,
    Failed,
    Mismatch,
}

#[derive(Debug, Clone)]
struct Sample {
    role: Role,
    latency_ms: f64,
    first_byte_ms: f64,
}

/// One planned request: a job and whether it reads `GET /result`.
type Plan = Vec<(usize, bool)>;

/// Client `c`'s requests in round `round`: uniform over [`JOBS`]; one in
/// five reads `GET /result` for a job this client has already run.
fn plan(seed: u64, round: usize, c: usize) -> Plan {
    let stream = (round as u64) << 32 | c as u64;
    let mut rng = FaultRng::seed_from_u64(FaultRng::derive(seed, stream));
    let mut seen = HashSet::new();
    (0..PER_CLIENT)
        .map(|_| {
            let job = rng.gen_range(JOBS.len() as u64) as usize;
            let read = rng.gen_range(5) == 0 && seen.contains(&job);
            seen.insert(job);
            (job, read)
        })
        .collect()
}

struct Daemon {
    addr: String,
    shutdown: Arc<AtomicUsize>,
    thread: JoinHandle<DrainReport>,
    telemetry: Arc<Telemetry>,
    _tree: Tree,
}

/// Binds a fresh daemon on a fresh tree and waits until `/healthz`
/// answers; the set-up time excludes making the tree.
fn start() -> (Daemon, f64) {
    let tree = Tree::fresh("serve");
    let t0 = Instant::now();
    let telemetry = Arc::new(Telemetry::new());
    let backend = HarnessBackend::new(
        registry(),
        tree.join("cache"),
        Some(tree.join("journal")),
        false,
        WORKERS,
    )
    .with_trace_sink(Arc::clone(&telemetry));
    let shutdown = Arc::new(AtomicUsize::new(0));
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        shutdown: Arc::clone(&shutdown),
        ..ServeOptions::default()
    };
    let server = Server::bind(Arc::new(backend), Arc::clone(&telemetry), opts)
        .expect("bind the daemon on an ephemeral localhost port");
    let addr = server.local_addr().expect("bound address").to_string();
    let thread = thread::spawn(move || server.serve());
    // The socket is bound, so the probe queues until the serve loop
    // accepts it; retry without sleeping only if it is turned away.
    while !matches!(client::request(&addr, "GET", "/healthz", None), Ok(r) if r.status == 200) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "daemon never answered /healthz"
        );
        thread::yield_now();
    }
    let setup = t0.elapsed().as_secs_f64();
    (
        Daemon {
            addr,
            shutdown,
            thread,
            telemetry,
            _tree: tree,
        },
        setup,
    )
}

impl Daemon {
    /// Drains the daemon; returns how many executor runs it made.
    fn stop(self) -> u64 {
        self.shutdown.store(1, Ordering::SeqCst);
        let report = self.thread.join().expect("serve thread panicked");
        assert!(
            report.clean(),
            "daemon drain abandoned sessions: {report:?}"
        );
        self.telemetry.metrics.counter("serve/exec.runs").get()
    }
}

/// A response as the raw timing client read it.
struct Raw {
    status: u16,
    body: String,
}

/// One request over a fresh connection, timing the first response byte.
/// Used by the traced run only; the untraced run uses `serve::client`.
fn timed_request(addr: &str, method: &str, target: &str) -> Result<(Raw, f64), String> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("timeout: {e}"))?;
    write!(
        s,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\r\n"
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut bytes = vec![0u8; 1];
    s.read_exact(&mut bytes).map_err(|e| format!("read: {e}"))?;
    let first_byte_ms = start.elapsed().as_secs_f64() * 1e3;
    s.read_to_end(&mut bytes)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    let body = if chunked {
        dechunk(body)?
    } else {
        body.to_string()
    };
    Ok((Raw { status, body }, first_byte_ms))
}

/// Removes HTTP/1.1 chunked framing.
fn dechunk(mut rest: &str) -> Result<String, String> {
    let mut out = String::new();
    loop {
        let (size, after) = rest.split_once("\r\n").ok_or("truncated chunk size")?;
        let size = usize::from_str_radix(size.trim(), 16).map_err(|_| "bad chunk size")?;
        if size == 0 {
            return Ok(out);
        }
        let chunk = after.get(..size).ok_or("truncated chunk")?;
        out.push_str(chunk);
        rest = after.get(size + 2..).ok_or("truncated chunk end")?;
    }
}

/// Classifies a response to job `job`; `read` marks `GET /result`.
fn classify(status: u16, body: &str, read: bool, want: &str) -> Role {
    match status {
        429 | 503 => return Role::Refused,
        200 => {}
        _ => return Role::Failed,
    }
    if read {
        return if body == want {
            Role::Cache
        } else {
            Role::Mismatch
        };
    }
    let lines: Vec<Json> = body
        .lines()
        .filter(|l| !l.is_empty())
        .filter_map(|l| Json::parse(l).ok())
        .collect();
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
    let role = lines.first().and_then(|j| field(j, "role"));
    let done = lines
        .last()
        .filter(|j| field(j, "event").as_deref() == Some("done"));
    match done.and_then(|j| field(j, "status")).as_deref() {
        Some("ok") => {}
        _ => return Role::Failed,
    }
    if done.and_then(|j| field(j, "output")).as_deref() != Some(want) {
        return Role::Mismatch;
    }
    match role.as_deref() {
        Some("runner") => Role::Runner,
        Some("cache") => Role::Cache,
        Some("follower") => Role::Follower,
        _ => Role::Failed,
    }
}

/// Replays one client's plan against `addr`, in order, each request
/// waiting for the previous one (a closed loop).
fn client_loop(addr: &str, plan: &Plan, goldens: &[String], timed: bool) -> Vec<Sample> {
    plan.iter()
        .map(|&(job, read)| {
            let target = format!("/{}?job={}", if read { "result" } else { "run" }, JOBS[job]);
            let method = if read { "GET" } else { "POST" };
            let start = Instant::now();
            let answer = if timed {
                timed_request(addr, method, &target).map(|(r, fb)| (r.status, r.body, fb))
            } else {
                client::request(addr, method, &target, None).map(|r| (r.status, r.body, 0.0))
            };
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            let (role, first_byte_ms) = match answer {
                Ok((status, body, fb)) => (classify(status, &body, read, &goldens[job]), fb),
                Err(_) => (Role::Failed, latency_ms),
            };
            Sample {
                role,
                latency_ms,
                first_byte_ms,
            }
        })
        .collect()
}

struct Round {
    wall: f64,
    cpu: f64,
    exec_runs: u64,
    samples: Vec<Sample>,
}

fn round(seed: u64, index: usize, goldens: &Arc<Vec<String>>, timed: bool) -> Round {
    let (daemon, _) = start();
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, plan, goldens) = (
                daemon.addr.clone(),
                plan(seed, index, c),
                Arc::clone(goldens),
            );
            thread::spawn(move || client_loop(&addr, &plan, &goldens, timed))
        })
        .collect();
    let samples = clients
        .into_iter()
        .flat_map(|h| h.join().expect("client thread panicked"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu0;
    Round {
        wall,
        cpu,
        exec_runs: daemon.stop(),
        samples,
    }
}

/// Mean set-up time of [`SETUP_BATCH`] daemons, each started on a fresh
/// tree and drained.
fn setup_sample() -> f64 {
    let total: f64 = (0..SETUP_BATCH)
        .map(|_| {
            let (daemon, setup) = start();
            daemon.stop();
            setup
        })
        .sum();
    total / SETUP_BATCH as f64
}

fn tally(outcome: &mut Outcome, samples: &[Sample]) {
    let count = |r: Role| samples.iter().filter(|s| s.role == r).count() as u64;
    let failed = count(Role::Failed) + count(Role::Refused);
    outcome.tally(samples.len() as u64, failed, count(Role::Mismatch));
}

/// Runs the workload for `seconds` (and at least [`MIN_REQUESTS`]
/// requests), or, traced, a fixed number of rounds twice: untraced for
/// reference, then through the timing client.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let goldens = Arc::new(JOBS.iter().map(|j| golden(j)).collect::<Vec<_>>());
    let mut outcome = Outcome::default();
    if traced {
        let rounds = MIN_REQUESTS.div_ceil(CLIENTS * PER_CLIENT);
        let session = |timed| {
            (0..rounds)
                .map(|i| round(seed, i, &goldens, timed))
                .collect::<Vec<_>>()
        };
        let reference = session(false);
        let traced = session(true);
        for r in reference.iter().chain(&traced) {
            tally(&mut outcome, &r.samples);
        }
        outcome.metrics = per_layer(&reference, &traced);
        return outcome;
    }
    let mut s = Samples::default();
    let mut latency_ms = Vec::new();
    let begin = Instant::now();
    let (mut requests, mut index, mut runners) = (0, 0, 0);
    while requests < MIN_REQUESTS || begin.elapsed().as_secs_f64() < seconds {
        s.setup.push(setup_sample());
        let r = round(seed, index, &goldens, false);
        index += 1;
        requests += r.samples.len();
        runners += r.samples.iter().filter(|x| x.role == Role::Runner).count();
        tally(&mut outcome, &r.samples);
        s.wall.push(r.wall);
        s.cpu.push(r.cpu);
        latency_ms.extend(r.samples.iter().map(|x| x.latency_ms));
    }
    eprintln!("hostbench: serve-mixed: {requests} requests in {index} rounds, {runners} computed");
    // A round has too few requests for a p99: pool them all.
    s.latency_ms.push(latency_ms);
    outcome.metrics = s.end_to_end(&outcome);
    outcome
}

fn per_layer(reference: &[Round], traced: &[Round]) -> Metrics {
    let mut m = per_layer_zeroed();
    let samples: Vec<&Sample> = traced.iter().flat_map(|r| &r.samples).collect();
    let mut roles: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        let key = match s.role {
            Role::Runner => "runner",
            Role::Cache => "cache",
            Role::Follower => "follower",
            Role::Refused => "refused",
            Role::Failed | Role::Mismatch => "failed",
        };
        roles.entry(key).or_default().push(s.latency_ms);
    }
    let n = |k: &str| roles.get(k).map_or(0, Vec::len) as f64;
    let p50 = |k: &str| roles.get(k).map_or(0.0, |v| median(v));
    let requests = samples.len() as f64;
    let exec_runs: u64 = traced.iter().map(|r| r.exec_runs).sum();
    m.set("serve.requests", requests, "count");
    m.set("serve.role_runner", n("runner"), "count");
    m.set("serve.role_cache", n("cache"), "count");
    m.set("serve.role_follower", n("follower"), "count");
    m.set("serve.refused", n("refused"), "count");
    m.set("serve.coalesce_ratio", exec_runs as f64 / requests, "ratio");
    m.set("serve.hit_p50_ms", p50("cache"), "ms");
    m.set("serve.compute_p50_ms", p50("runner"), "ms");
    let first: Vec<f64> = samples.iter().map(|s| s.first_byte_ms).collect();
    m.set("serve.first_byte_p50_ms", median(&first), "ms");
    let wall = |rs: &[Round]| rs.iter().map(|r| r.wall).sum::<f64>();
    m.set("trace.wall_s", wall(traced), "s");
    m.set("trace.untraced_wall_s", wall(reference), "s");
    m.set("trace.overhead_s", wall(traced) - wall(reference), "s");
    m.set(
        "trace.untraced_cpu_s",
        reference.iter().map(|r| r.cpu).sum(),
        "s",
    );
    let ok = p50("cache") < p50("runner") && n("refused") == 0.0;
    m.set("trace.profile_ok", f64::from(u8::from(ok)), "flag");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_read_only_jobs_already_run() {
        assert_eq!(plan(7, 0, 0), plan(7, 0, 0));
        assert_ne!(plan(7, 0, 0), plan(8, 0, 0));
        assert_ne!(plan(7, 0, 0), plan(7, 0, 1));
        let p = plan(7, 3, 1);
        assert_eq!(p.len(), PER_CLIENT);
        for (i, &(job, read)) in p.iter().enumerate() {
            if read {
                assert!(p[..i].iter().any(|&(j, _)| j == job));
            }
        }
    }

    #[test]
    fn dechunk_and_classify() {
        let body = "\
{\"event\":\"accepted\",\"role\":\"cache\"}\n{\"event\":\"done\",\"status\":\"ok\",\"output\":\"x\\n\"}\n";
        let framed = format!("{:x}\r\n{body}\r\n0\r\n\r\n", body.len());
        assert_eq!(dechunk(&framed).expect("well formed"), body);
        assert_eq!(classify(200, body, false, "x\n"), Role::Cache);
        assert_eq!(classify(200, body, false, "y\n"), Role::Mismatch);
        assert_eq!(classify(429, "", false, "x\n"), Role::Refused);
        assert_eq!(classify(200, "x\n", true, "x\n"), Role::Cache);
        assert_eq!(classify(404, "", true, "x\n"), Role::Failed);
    }
}
