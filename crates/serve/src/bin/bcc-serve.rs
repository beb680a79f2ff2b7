//! The `bcc-serve` daemon.
//!
//! ```text
//! bcc-serve [OPTIONS]
//!
//! OPTIONS:
//!   --port N               loopback port (default 0 = OS-assigned)
//!   --port-file PATH       write the bound port here after binding
//!   --jobs N               pool worker threads per request (default 2)
//!   --queue-cap N          admission queue capacity (default 16)
//!   --quota N              per-client outstanding quota (default 8)
//!   --seed S               default suite seed for submits without one
//!   --metrics PATH         flush the merged metrics dump here at drain
//!   --metrics-level L      off | core | full (default: core when
//!                          --metrics is given, else off)
//!   --trace PATH           flush the merged trace here at drain
//!   --trace-level L        off | spans | costs | events (default: events when
//!                          --trace is given, else off)
//!   --cache PATH           persist the artifact cache in PATH
//!   --max-line-bytes N     longest accepted request line (default 65536)
//!   --drain-timeout-secs T post-drain patience for lingering
//!                          connections (default 30)
//! ```
//!
//! The daemon exits 0 after a protocol `shutdown` completes its
//! drain (queue finished, dumps flushed, connections closed or timed
//! out).

use bcc_metrics::MetricsLevel;
use bcc_serve::{net, NetConfig, Server, ServerConfig};
use bcc_trace::TraceLevel;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: bcc-serve [--port N] [--port-file PATH] [--jobs N] \
[--queue-cap N] [--quota N] [--seed S] [--metrics PATH] [--metrics-level off|core|full] \
[--trace PATH] [--trace-level off|spans|costs|events] [--cache PATH] \
[--max-line-bytes N] [--drain-timeout-secs T]";

struct Cli {
    server: ServerConfig,
    net: NetConfig,
    cache_dir: Option<std::path::PathBuf>,
}

fn parse_u64(it: &mut std::vec::IntoIter<String>, flag: &str) -> Result<u64, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .map_err(|_| format!("{flag}: not a u64: {v:?}"))
}

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut server = ServerConfig::default();
    let mut net_config = NetConfig::default();
    let mut cache_dir = None;
    let mut metrics_level: Option<MetricsLevel> = None;
    let mut trace_level: Option<TraceLevel> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => {
                let v = parse_u64(&mut it, "--port")?;
                net_config.port =
                    u16::try_from(v).map_err(|_| format!("--port: not a port: {v}"))?;
            }
            "--port-file" => {
                let v = it.next().ok_or("--port-file needs a path")?;
                net_config.port_file = Some(std::path::PathBuf::from(v));
            }
            "--jobs" => server.threads = parse_u64(&mut it, "--jobs")?.max(1) as usize,
            "--queue-cap" => server.queue_cap = parse_u64(&mut it, "--queue-cap")?,
            "--quota" => server.quota = parse_u64(&mut it, "--quota")?,
            "--seed" => server.default_seed = parse_u64(&mut it, "--seed")?,
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                server.metrics_path = Some(std::path::PathBuf::from(v));
            }
            "--metrics-level" => {
                let v = it.next().ok_or("--metrics-level needs a value")?;
                metrics_level = Some(MetricsLevel::from_name(&v).ok_or_else(|| {
                    format!("--metrics-level: expected off, core, or full, got {v:?}")
                })?);
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path")?;
                server.trace_path = Some(std::path::PathBuf::from(v));
            }
            "--trace-level" => {
                let v = it.next().ok_or("--trace-level needs a value")?;
                trace_level = Some(match v.as_str() {
                    "off" => TraceLevel::Off,
                    "spans" => TraceLevel::Spans,
                    "costs" => TraceLevel::Costs,
                    "events" => TraceLevel::Events,
                    other => {
                        return Err(format!(
                            "--trace-level: expected off, spans, costs, or events, got {other:?}"
                        ))
                    }
                });
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a path")?;
                cache_dir = Some(std::path::PathBuf::from(v));
            }
            "--max-line-bytes" => {
                server.max_line_bytes = parse_u64(&mut it, "--max-line-bytes")?.max(64) as usize;
            }
            "--drain-timeout-secs" => {
                net_config.drain_timeout =
                    Duration::from_secs(parse_u64(&mut it, "--drain-timeout-secs")?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // Same convention as bcc-experiments: naming a dump path turns
    // recording on; an explicit level always wins.
    server.metrics_level = match (metrics_level, &server.metrics_path) {
        (Some(level), _) => level,
        (None, Some(_)) => MetricsLevel::Core,
        (None, None) => MetricsLevel::Off,
    };
    server.trace_level = match (trace_level, &server.trace_path) {
        (Some(level), _) => level,
        (None, Some(_)) => TraceLevel::Events,
        (None, None) => TraceLevel::Off,
    };
    Ok(Cli {
        server,
        net: net_config,
        cache_dir,
    })
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = cli.cache_dir {
        bcc_experiments::cache::configure_disk(dir);
    }
    let server = Server::start(cli.server);
    let listening = match net::start(server, cli.net) {
        Ok(listening) => listening,
        Err(err) => {
            eprintln!("error: bind failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("bcc-serve: listening on 127.0.0.1:{}", listening.port());
    match listening.join() {
        Ok(()) => {
            eprintln!("bcc-serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: accept loop: {err}");
            ExitCode::FAILURE
        }
    }
}
