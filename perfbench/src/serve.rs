//! `serve-warm`: a closed loop of two client connections against one
//! `bcc-serve` daemon whose artifact store has been warmed.
//!
//! Each client submits a quick request, awaits it, checks the reply
//! against a direct `RunRequest::run` of the same `(id, quick, seed)`
//! computed during set-up, and only then submits the next. A pass is
//! one block of 24 requests per client in a seeded order: every
//! millisecond-scale experiment twice, and one `e7` and one `e8`.
//!
//! Every request carries the suite's default seed, so each pass does
//! the same work at every workload seed, and the workload seed orders
//! the requests. The quick `e8` draws its instances from the request
//! seed, which would otherwise make the work per pass differ by about
//! ±6% from one workload seed to the next.
//!
//! The daemon runs in a process of its own, started from this binary
//! with the same code `bcc-serve` runs.

use crate::span::{self, CountingFactory};
use crate::{emit, host, stats};
use bcc_experiments::RunRequest;
use bcc_metrics::json::{self, JsonValue};
use bcc_serve::{net, NetConfig, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Quick requests that take milliseconds.
const FAST: [&str; 11] = [
    "f1", "f2", "e2", "e3", "e4", "e5", "e6", "e9", "e10", "e11", "e12",
];
/// The minority that runs real simulations for ~0.1 s each.
const SLOW: [&str; 2] = ["e7", "e8"];
/// Client connections.
const CLIENTS: usize = 2;
/// The seed every request carries.
const REQUEST_SEED: u64 = bcc_experiments::job::DEFAULT_SEED;

/// The daemon side: what `bcc-serve` does, with every observer off.
/// Prints `port\t<n>` once listening and returns when drained.
pub fn daemon(threads: usize) -> Result<(), String> {
    let server = Server::start(ServerConfig {
        threads: threads.max(1),
        metrics_level: bcc_metrics::MetricsLevel::Off,
        trace_level: bcc_trace::TraceLevel::Off,
        ..ServerConfig::default()
    });
    let listening = net::start(server, NetConfig::default()).map_err(|e| e.to_string())?;
    println!("port\t{}", listening.port());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    listening.join().map_err(|e| e.to_string())
}

/// What a direct run of one request produced.
#[derive(Debug, Clone)]
struct Reference {
    report_json: String,
    direct_s: f64,
    node_rounds: u64,
}

/// A running daemon plus the references its replies are checked against.
pub struct Prepared {
    seed: u64,
    daemon: Child,
    _daemon_out: BufReader<ChildStdout>,
    port: u16,
    refs: BTreeMap<&'static str, Reference>,
}

/// One connection speaking the JSONL protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(port: u16, client: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut c = Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        };
        c.call(&format!("{{\"type\":\"hello\",\"client\":\"{client}\"}}"))?;
        Ok(c)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Ok(self.line.trim_end())
    }

    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.send(line)?;
        self.recv()
    }
}

fn field_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn reply_type(v: &JsonValue) -> &str {
    v.get("type").and_then(JsonValue::as_str).unwrap_or("")
}

/// The raw `report` object of a `result` line — the last field, so
/// everything after `"cache_lookups":N,"report":` up to the closing brace.
fn raw_report(line: &str) -> Option<&str> {
    let at = line.find("\"cache_lookups\":")?;
    let rest = &line[at..];
    let r = rest.find(",\"report\":")? + ",\"report\":".len();
    rest.get(r..rest.len().checked_sub(1)?)
}

fn submit_line(id: &str) -> String {
    format!(
        "{{\"type\":\"submit\",\"experiment\":\"{id}\",\"quick\":true,\"seed\":{REQUEST_SEED}}}"
    )
}

/// Outcome of one request.
struct Done {
    accept_s: f64,
    await_s: f64,
    queue_depth: u64,
    matched: bool,
}

/// Submits, awaits and checks one request. `Ok(None)` when the daemon
/// refused it.
fn request(c: &mut Conn, id: &str, want: &str) -> Result<Option<Done>, String> {
    let t0 = Instant::now();
    span::open("serve.accept");
    let accepted = json::parse(c.call(&submit_line(id))?)?;
    span::close();
    if reply_type(&accepted) != "accepted" {
        return Ok(None);
    }
    let accept_s = t0.elapsed().as_secs_f64();
    let req = field_u64(&accepted, "req");
    let t1 = Instant::now();
    span::open("serve.await");
    let line = c.call(&format!("{{\"type\":\"await\",\"req\":{req}}}"))?;
    span::close();
    let await_s = t1.elapsed().as_secs_f64();
    let matched = span::scope("serve.verify", || {
        line.contains("\"status\":\"done\",\"passed\":true") && raw_report(line) == Some(want)
    });
    Ok(Some(Done {
        accept_s,
        await_s,
        queue_depth: field_u64(&accepted, "queue_depth"),
        matched,
    }))
}

fn spawn_daemon(threads: usize) -> Result<(Child, BufReader<ChildStdout>, u16), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["daemon", &threads.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the daemon: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().ok_or("daemon stdout")?);
    let mut line = String::new();
    out.read_line(&mut line).map_err(|e| e.to_string())?;
    let port = line
        .trim_end()
        .strip_prefix("port\t")
        .and_then(|p| p.parse().ok());
    match port {
        Some(port) => Ok((child, out, port)),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("daemon did not report a port: {line:?}"))
        }
    }
}

/// Set-up: start the daemon, warm its store with one request per
/// experiment, and compute every reference directly in this process
/// (counting node-rounds through a counting transport, which never
/// reaches the daemon).
pub fn prepare(seed: u64) -> Result<Prepared, String> {
    let (daemon, daemon_out, port) = spawn_daemon(host::nproc())?;
    let mut p = Prepared {
        seed,
        daemon,
        _daemon_out: daemon_out,
        port,
        refs: BTreeMap::new(),
    };
    let mut warm = Conn::open(port, "warm")?;
    for id in FAST.iter().chain(SLOW.iter()) {
        let accepted = json::parse(warm.call(&submit_line(id))?)?;
        let req = field_u64(&accepted, "req");
        warm.call(&format!("{{\"type\":\"await\",\"req\":{req}}}"))?;
    }
    let counter = Arc::new(AtomicU64::new(0));
    bcc_model::transport::set_default_factory(Arc::new(CountingFactory::new(Arc::clone(&counter))));
    for id in FAST.iter().chain(SLOW.iter()) {
        let before = counter.load(std::sync::atomic::Ordering::Relaxed);
        let start = Instant::now();
        let run = RunRequest::new(*id, true, REQUEST_SEED)
            .run()
            .map_err(|e| e.to_string())?;
        let direct_s = start.elapsed().as_secs_f64();
        let node_rounds = counter.load(std::sync::atomic::Ordering::Relaxed) - before;
        p.refs.insert(
            id,
            Reference {
                report_json: run.report.to_json(),
                direct_s,
                node_rounds,
            },
        );
    }
    bcc_model::transport::reset_default_factory();
    Ok(p)
}

/// One client's block in one pass: every fast experiment twice and
/// every slow one once — the same work in every pass and at every
/// seed — in a seeded order.
fn block(seed: u64, pass: u32, client: usize) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = FAST.iter().chain(&FAST).chain(&SLOW).copied().collect();
    let mut x = (seed ^ (u64::from(pass) << 20) ^ ((client as u64) << 40)) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in (1..ids.len()).rev() {
        ids.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    ids
}

/// Per-pass client results, merged over both clients.
#[derive(Default)]
struct Tally {
    latencies: Vec<f64>,
    accept: Vec<f64>,
    await_: Vec<f64>,
    overhead: Vec<f64>,
    node_rounds: u64,
    attempted: u64,
    rejected: u64,
    queue_depth_max: u64,
    recording: Option<span::Recording>,
}

fn client_block(
    seed: u64,
    pass: u32,
    client: usize,
    refs: &BTreeMap<&'static str, Reference>,
    traced: bool,
    conn: &mut Result<Conn, String>,
) -> Tally {
    let mut t = Tally::default();
    if traced {
        span::enable();
        span::set_pass(pass);
    }
    span::open("pass");
    match conn {
        Err(e) => {
            t.attempted += 1;
            emit::fail(&format!("client {client}: {e}"));
        }
        Ok(c) => {
            for id in block(seed, pass, client) {
                let reference = &refs[id];
                t.attempted += 1;
                let start = Instant::now();
                span::open("serve.request");
                let outcome = request(c, id, &reference.report_json);
                span::close();
                let latency = start.elapsed().as_secs_f64();
                match outcome {
                    Ok(Some(done)) if done.matched => {
                        t.latencies.push(latency);
                        t.accept.push(done.accept_s);
                        t.await_.push(done.await_s);
                        t.overhead.push(latency - reference.direct_s);
                        t.queue_depth_max = t.queue_depth_max.max(done.queue_depth);
                        t.node_rounds += reference.node_rounds;
                    }
                    Ok(Some(_)) => emit::fail(&format!(
                        "client {client} {id}: reply differs from the direct RunRequest::run"
                    )),
                    Ok(None) => {
                        t.rejected += 1;
                        emit::fail(&format!("client {client} {id}: rejected"));
                    }
                    Err(e) => emit::fail(&format!("client {client} {id}: {e}")),
                }
            }
        }
    }
    span::close();
    if traced {
        t.recording = Some(span::take());
    }
    t
}

fn stats(port: u16) -> Result<(u64, u64), String> {
    let mut c = Conn::open(port, "stats")?;
    let v = json::parse(c.call("{\"type\":\"stats\"}")?)?;
    Ok((field_u64(&v, "cache_lookups"), field_u64(&v, "cache_hits")))
}

/// Runs passes until `seconds` have gone by (at least one), then shuts
/// the daemon down. Returns the merged recording when traced.
///
/// A traced run records every other pass; the passes in between run
/// with the recorder off, so the trace overhead compares passes of the
/// same process.
pub fn run(p: Prepared, seconds: f64, traced: bool) -> Option<span::Recording> {
    let before = stats(p.port);
    let mut conns: Vec<Result<Conn, String>> = (0..CLIENTS)
        .map(|client| Conn::open(p.port, &format!("client{client}")))
        .collect();
    let mut all = Tally::default();
    let mut recording = span::Recording::default();
    let mut walls = [Vec::new(), Vec::new()];
    let started = Instant::now();
    let mut pass = 0u32;
    while pass < u32::from(traced) + 1 || started.elapsed().as_secs_f64() < seconds {
        let instrumented = traced && pass % 2 == 1;
        let barrier = Barrier::new(CLIENTS);
        let t0 = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(client, conn)| {
                    let (barrier, refs, seed) = (&barrier, &p.refs, p.seed);
                    s.spawn(move || {
                        barrier.wait();
                        client_block(seed, pass, client, refs, instrumented, conn)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut node_rounds = 0;
        for t in tallies {
            for &l in &t.latencies {
                emit::op(l);
            }
            node_rounds += t.node_rounds;
            all.accept.extend(t.accept);
            all.await_.extend(t.await_);
            all.overhead.extend(t.overhead);
            all.attempted += t.attempted;
            all.rejected += t.rejected;
            all.queue_depth_max = all.queue_depth_max.max(t.queue_depth_max);
            if let Some(r) = t.recording {
                span::merge(&mut recording, r);
            }
        }
        emit::pass(wall, node_rounds);
        walls[usize::from(instrumented)].push(wall);
        pass += 1;
    }
    drop(conns);
    emit::attempted(all.attempted);
    if traced {
        emit::metric(
            "bench.trace_overhead_frac",
            stats::median(&walls[1]) / stats::median(&walls[0]) - 1.0,
        );
    }
    match (before, stats(p.port)) {
        (Ok((l0, h0)), Ok((l1, h1))) => {
            let lookups = l1.saturating_sub(l0);
            let hits = h1.saturating_sub(h0);
            emit::metric("engine.store_lookups", lookups as f64);
            emit::metric("engine.store_hits", hits as f64);
        }
        (Err(e), _) | (_, Err(e)) => {
            emit::attempted(1);
            emit::fail(&format!("stats: {e}"));
        }
    }
    if let Some(mb) = host::peak_rss_mb(&p.daemon.id().to_string()) {
        emit::metric("peak_rss_mb", mb);
    }
    let ms = |xs: &[f64]| stats::median(xs) * 1e3;
    emit::metric("serve.accept_ms", ms(&all.accept));
    emit::metric("serve.await_ms", ms(&all.await_));
    emit::metric("serve.overhead_ms", ms(&all.overhead));
    emit::metric(
        "serve.reject_ratio",
        all.rejected as f64 / all.attempted.max(1) as f64,
    );
    emit::metric("serve.queue_depth_max", all.queue_depth_max as f64);
    traced.then_some(recording)
}

impl Drop for Prepared {
    /// Asks the daemon to drain and waits for it to exit; kills it if
    /// it cannot be asked.
    fn drop(&mut self) {
        let asked = Conn::open(self.port, "shutdown")
            .and_then(|mut c| c.call("{\"type\":\"shutdown\"}").map(|_| ()));
        if asked.is_err() {
            let _ = self.daemon.kill();
        }
        let _ = self.daemon.wait();
    }
}
