//! `csched serve`: hosts the hardened scheduler service
//! (`csched_eval::serve`) and ships a small client for exercising it —
//! including the cold-vs-warm cache-throughput benchmark the CI smoke
//! run gates on.
//!
//! Server: `csched serve --addr 127.0.0.1:0 [--cache <path>] [--durable]
//! [--jobs N] [--queue N] [--step-limit N] [--wall-ms N]` — prints
//! `listening on <addr>` (port 0 resolved) and serves until killed.
//!
//! Client: `csched serve --client <addr>` plus one of
//! `--kernel <name> --arch <machine>` (one request; add
//! `--limit`/`--wall-ms`), `--stats` (the counters JSON line),
//! `--malformed` (a deliberately broken request, expecting
//! `ERR malformed`), or `--bench-suite` (schedule the whole Table 1
//! suite cold, then again warm, print both rates, and exit 1 if
//! warm/cold < `--min-ratio`, default 10).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use csched_eval::serve::{
    client_metrics, client_raw, client_request, client_request_retry, client_stats, client_trace,
    RetryConfig, ServeConfig, Server,
};
use csched_ir::text as ir_text;
use csched_machine::text as machine_text;

use crate::args::{self, Args, CliError, Outcome};

pub const USAGE: &str = "usage: csched serve --addr <host:port> [server flags]    host the service
       csched serve --client <host:port> <client mode>   talk to a running service
server flags:
  --cache <path>    persistent schedule-cache journal
  --durable         fsync each cache append
  --jobs N          worker threads (default 4)
  --queue N         admission-queue capacity (default 16)
  --step-limit N    default placement-attempt budget per request
  --wall-ms N       wall-clock deadline per request
  --compact-bytes N journal byte threshold for compaction
  --compact-entries N
                    cache entry cap (oldest evicted beyond it)
  --read-phase-ms N budget to read one whole request (slowloris guard)
  --no-telemetry    disable per-request spans and histograms
  --span-ring N     recent-request span ring capacity (default 64)
  --trace-events N  per-request cap on streamed TRACE events (default 4096)
client modes:
  --kernel <name> --arch <machine> [--limit N] [--wall-ms N]
                    one SCHED request (machine: central | clustered2 |
                    clustered4 | distributed | central-xN |
                    distributed-xN); add --retries N
                    [--backoff-ms N] [--retry-seed N] to retry torn or
                    transient failures with seeded jittered backoff;
                    add --trace [--events N] [--full] to stream the
                    schedule's trace events as JSONL instead
  --stats           print the service counters JSON line
  --metrics         print the METRICS JSON line + Prometheus exposition
  --malformed       send a broken request; expect ERR malformed
  --bench-suite [--min-ratio N]
                    cold vs warm requests/sec over the kernel suite;
                    exit 1 if warm/cold < N (default 10)
  --help            this text";

const SERVER_FLAGS: &str = "--addr=1 --cache=1 --durable --jobs=1 --queue=1 --step-limit=1 \
    --wall-ms=1 --compact-bytes=1 --compact-entries=1 --read-phase-ms=1 --no-telemetry \
    --span-ring=1 --trace-events=1";

const CLIENT_FLAGS: &str = "--client=1 --kernel=1 --arch=1 --limit=1 --wall-ms=1 --retries=1 \
    --backoff-ms=1 --retry-seed=1 --trace --events=1 --full --stats --metrics --malformed \
    --bench-suite --min-ratio=1";

/// The client's mutually exclusive modes.
const CLIENT_MODES: [&str; 5] = [
    "--stats",
    "--metrics",
    "--malformed",
    "--bench-suite",
    "--kernel",
];

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

pub fn run(argv: &[String]) -> Outcome {
    if argv.is_empty() {
        return Err(CliError::Help);
    }
    if argv.iter().any(|a| a == "--addr") {
        run_server(&Args::parse(argv, SERVER_FLAGS, 0)?)
    } else if argv.iter().any(|a| a == "--client") {
        run_client(&Args::parse(argv, CLIENT_FLAGS, 0)?)
    } else {
        Args::parse(argv, "", 0)?;
        Err(CliError::usage("need --addr (server) or --client (client)"))
    }
}

fn run_server(args: &Args) -> Outcome {
    let mut config = ServeConfig {
        cache_path: args.value("--cache").map(Into::into),
        durable: args.has("--durable"),
        wall_ms: args.num_opt("--wall-ms")?,
        telemetry: !args.has("--no-telemetry"),
        ..ServeConfig::default()
    };
    config.jobs = args.num("--jobs", config.jobs)?;
    config.queue_cap = args.num("--queue", config.queue_cap)?;
    config.step_limit = args.num("--step-limit", config.step_limit)?;
    config.compaction.max_journal_bytes =
        args.num("--compact-bytes", config.compaction.max_journal_bytes)?;
    config.compaction.max_entries = args.num("--compact-entries", config.compaction.max_entries)?;
    config.read_phase_ms = args.num("--read-phase-ms", config.read_phase_ms)?;
    config.span_ring = args.num("--span-ring", config.span_ring)?;
    config.trace_event_cap = args.num("--trace-events", config.trace_event_cap)?;
    let addr = args.value("--addr").unwrap_or_default();
    let (server, load) =
        Server::bind(addr, config).map_err(|e| CliError::exit(1, format!("serve: {e}")))?;
    println!(
        "cache: {} entries, {} quarantined, {} corrupt lines, {} torn bytes repaired",
        load.entries, load.quarantined, load.corrupt_lines, load.repaired_bytes
    );
    // Flushed before the address so scripts can parse the last line.
    println!("listening on {}", server.addr());
    // Serve until killed; the cache journal is flushed per append, so an
    // abrupt SIGKILL here is exactly the crash-consistency test case.
    loop {
        std::thread::park();
    }
}

fn run_client(args: &Args) -> Outcome {
    let addr = args.value("--client").unwrap_or_default();
    let modes: Vec<&str> = CLIENT_MODES.into_iter().filter(|m| args.has(m)).collect();
    let failed =
        |what: &str, e: &dyn std::fmt::Display| CliError::exit(1, format!("serve: {what}: {e}"));
    match modes.as_slice() {
        ["--stats"] => {
            let stats =
                client_stats(addr, CLIENT_TIMEOUT).map_err(|e| failed("stats request", &e))?;
            println!("{stats}");
        }
        ["--metrics"] => {
            let metrics =
                client_metrics(addr, CLIENT_TIMEOUT).map_err(|e| failed("metrics request", &e))?;
            print!("{metrics}");
        }
        ["--malformed"] => {
            let response = client_raw(addr, b"BOGUS request\n", CLIENT_TIMEOUT)
                .map_err(|e| failed("malformed probe", &e))?;
            print!("{response}");
            if !response.starts_with("ERR malformed") {
                return Err(CliError::exit(
                    1,
                    format!("serve: expected a typed malformed rejection, got: {response}"),
                ));
            }
        }
        ["--bench-suite"] => return bench_suite(addr, args.num("--min-ratio", 10)?),
        ["--kernel"] => return request(addr, args),
        [] => return Err(CliError::usage("need a client mode")),
        _ => {
            return Err(CliError::usage(format!(
                "one client mode at a time, not {}",
                modes.join(" ")
            )))
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// One SCHED (or TRACE) request for `--kernel` on `--arch`.
fn request(addr: &str, args: &Args) -> Outcome {
    let w = args::kernel(args.value("--kernel").unwrap_or_default())?;
    let arch = args::machine(args.value("--arch").unwrap_or("distributed"))?;
    let kernel_text = ir_text::print(&w.kernel);
    let arch_text = machine_text::print(&arch);
    let limit = args.num_opt("--limit")?;
    let wall_ms = args.num_opt("--wall-ms")?;
    let failed = |e: &dyn std::fmt::Display| CliError::exit(1, format!("serve: request: {e}"));
    if args.has("--trace") {
        let events = args.num_opt("--events")?;
        let response = client_trace(
            addr,
            &kernel_text,
            &arch_text,
            events,
            args.has("--full"),
            CLIENT_TIMEOUT,
        )
        .map_err(|e| failed(&e))?;
        print!("{response}");
        let err = response
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("ERR "));
        return Ok(if err {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }
    let response = if let Some(retries) = args.num_opt("--retries")? {
        let retry = RetryConfig {
            retries,
            backoff_ms: args.num("--backoff-ms", 50)?,
            seed: args.num("--retry-seed", 0x5eed)?,
        };
        let (outcome, report) = client_request_retry(
            addr,
            &kernel_text,
            &arch_text,
            limit,
            wall_ms,
            CLIENT_TIMEOUT,
            &retry,
        );
        eprintln!(
            "retry: {} attempts, {} ms backoff{}",
            report.attempts,
            report.total_backoff_ms,
            if report.retried.is_empty() {
                String::new()
            } else {
                format!(" ({})", report.retried.join("; "))
            }
        );
        outcome.map_err(|e| failed(&e))?
    } else {
        client_request(
            addr,
            &kernel_text,
            &arch_text,
            limit,
            wall_ms,
            CLIENT_TIMEOUT,
        )
        .map_err(|e| failed(&e))?
    };
    print!("{response}");
    Ok(if response.starts_with("ERR ") {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Schedules the whole kernel suite against the four Imagine machines
/// twice — cold (first pass populates the cache) and warm (second pass
/// must hit) — and gates on the warm/cold throughput ratio.
fn bench_suite(addr: &str, min_ratio: u64) -> Outcome {
    let archs = csched_machine::imagine::all_variants();
    let requests: Vec<(String, String)> = csched_kernels::all()
        .iter()
        .flat_map(|w| {
            let kernel_text = ir_text::print(&w.kernel);
            archs
                .iter()
                .map(move |arch| (kernel_text.clone(), machine_text::print(arch)))
                .collect::<Vec<_>>()
        })
        .collect();

    let pass = |label: &str, expect_cache: &str| -> Result<f64, CliError> {
        let start = Instant::now();
        let mut hits = 0usize;
        for (kernel_text, arch_text) in &requests {
            let response = client_request(addr, kernel_text, arch_text, None, None, CLIENT_TIMEOUT)
                .map_err(|e| CliError::exit(1, format!("serve: suite request: {e}")))?;
            if !(response.contains("\nOK ") || response.starts_with("OK ")) {
                return Err(CliError::exit(
                    1,
                    format!("serve: {label} request failed: {response}"),
                ));
            }
            if response.starts_with(&format!("CACHE {expect_cache}")) {
                hits += 1;
            }
        }
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let rps = requests.len() as f64 / elapsed;
        println!(
            "{label}: {} requests in {elapsed:.3}s = {rps:.1} req/s ({hits}/{} {expect_cache})",
            requests.len(),
            requests.len(),
        );
        Ok(rps)
    };

    let cold = pass("cold", "miss")?;
    let warm = pass("warm", "hit")?;
    let ratio = warm / cold.max(1e-9);
    println!("warm/cold ratio: {ratio:.1}x (gate: >= {min_ratio}x)");
    if ratio < min_ratio as f64 {
        return Err(CliError::exit(
            1,
            format!("FAIL: warm cache speedup below the {min_ratio}x gate"),
        ));
    }
    Ok(ExitCode::SUCCESS)
}
