//! The serve stage: an in-process scheduler service (`jobs = 1`, a cache
//! journal of its own) driven by one closed-loop client with one
//! connection in flight, as a compiler driver waiting for each reply
//! would drive it.
//!
//! One pass starts a fresh server and sends every cell as a request, in
//! the cells' seeded order: each cell's first request a cold miss that
//! schedules and journals, followed by [`warm_repeats`] warm hits on the
//! same cell. Every seed sends the same multiset of requests, so the
//! warm mix is the same in every run, and the warm hits are spread over
//! the whole pass instead of bunched after the cold requests, so they
//! sample the host's speed throughout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use csched::core::{
    explain, regalloc, schedule_kernel_anytime, validate, RetryPolicy, SchedulerConfig, StepBudget,
};
use csched::eval::{
    cache_key, client_request, client_stats, config_fingerprint, kernel_hash, CacheEntry,
    ScheduleCache, ServeConfig, Server,
};

use crate::cells::Cells;
use crate::host::{rescale, HostSpeed};
use crate::stats::{geomean, median, quantile, secs, Report};
use crate::trace::Tracer;

/// Warm hits per pass, at least: one pass alone holds ten samples
/// beyond its 99th percentile.
pub const WARM_HITS: usize = 1000;

/// Warm hits per cell for `cells` cells.
pub fn warm_repeats(cells: usize) -> usize {
    WARM_HITS.div_ceil(cells.max(1))
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One kernel × machine request body, in the wire's text formats.
pub struct Pair<'a> {
    pub kernel_text: &'a str,
    pub arch_text: &'a str,
}

/// The request stream: indices into the cells' visiting order, each
/// cell's run of requests in that order.
pub fn stream(cells: usize) -> Vec<usize> {
    (0..cells)
        .flat_map(|p| std::iter::repeat_n(p, 1 + warm_repeats(cells)))
        .collect()
}

/// The server's configuration for one pass.
fn config(journal: PathBuf, telemetry: bool) -> ServeConfig {
    ServeConfig {
        jobs: 1,
        cache_path: Some(journal),
        telemetry,
        ..ServeConfig::default()
    }
}

/// The cold path of one request replayed in-process from the public
/// functions the server calls, each inside its own span.
struct Mirror {
    cache: ScheduleCache,
    config_fp: String,
    limit: u64,
}

/// Per-request layer times of the traced pass, in seconds.
#[derive(Default)]
struct Layers {
    warm: BTreeMap<&'static str, Vec<f64>>,
    cold_insert: Vec<f64>,
    /// Per-pass totals over the cold requests.
    cold_total: BTreeMap<&'static str, f64>,
    attempts: u64,
    replay_s: f64,
}

impl Mirror {
    /// Replays one request; false when the replay does not reproduce
    /// the server's OK line.
    fn replay(
        &mut self,
        t: &mut Tracer,
        pair: &Pair<'_>,
        rt_s: f64,
        ok_line: &str,
        out: &mut Layers,
    ) -> bool {
        let replay = t.begin("replay");
        let start = Instant::now();
        let (kernel, pk) = t.span("parse_kernel", || csched::ir::text::parse(pair.kernel_text));
        let (arch, pa) = t.span("parse_arch", || {
            csched::machine::text::parse(pair.arch_text)
        });
        let (Ok(kernel), Ok(arch)) = (kernel, arch) else {
            t.end(replay);
            out.replay_s += secs(start.elapsed());
            return false;
        };
        let (key, ck) = t.span("cache_key", || {
            cache_key(kernel_hash(&kernel), arch.fingerprint(), &self.config_fp)
        });
        let (hit, cl) = t.span("cache_lookup", || {
            self.cache.lookup(key, self.limit).cloned()
        });
        let entry = match hit {
            Some(entry) => {
                let front = pk + pa + ck + cl;
                for (name, v) in [
                    ("parse_kernel", pk),
                    ("parse_arch", pa),
                    ("cache_key", ck),
                    ("cache_lookup", cl),
                    ("wire", rt_s - front),
                ] {
                    out.warm.entry(name).or_default().push(v);
                }
                Some(entry)
            }
            None => self.cold(t, &arch, &kernel, key, out),
        };
        t.end(replay);
        out.replay_s += secs(start.elapsed());
        entry.map(|e| ok_text(&e)).as_deref() == Some(ok_line)
    }

    fn cold(
        &mut self,
        t: &mut Tracer,
        arch: &csched::machine::Architecture,
        kernel: &csched::ir::Kernel,
        key: u64,
        out: &mut Layers,
    ) -> Option<CacheEntry> {
        let budget = StepBudget::new(self.limit);
        let ((result, report), any) = t.span("anytime", || {
            schedule_kernel_anytime(
                arch,
                kernel,
                SchedulerConfig::default(),
                &RetryPolicy::default(),
                &budget,
            )
        });
        let schedule = result.ok()?;
        let (valid, va) = t.span("validate", || validate::validate(arch, kernel, &schedule));
        valid.ok()?;
        let (_, ex) = t.span("explain", || {
            std::hint::black_box(explain(arch, kernel, &schedule));
        });
        let (pressure, ra) = t.span("regalloc", || regalloc::analyze(arch, kernel, &schedule));
        let entry = CacheEntry {
            ii: schedule.ii().unwrap_or(0),
            copies: schedule.num_copies() as u64,
            max_registers: pressure.max_required() as u64,
            attempts: report.attempts_spent,
            degraded: report.degraded,
            limit: self.limit,
        };
        let (inserted, ci) = t.span("cache_insert", || self.cache.insert(key, entry.clone()));
        inserted.ok()?;
        for (name, v) in [
            ("anytime", any),
            ("validate", va),
            ("explain", ex),
            ("regalloc", ra),
        ] {
            *out.cold_total.entry(name).or_default() += v;
        }
        out.cold_insert.push(ci);
        out.attempts += report.attempts_spent;
        Some(entry)
    }
}

/// The OK line the server sends for `entry`.
fn ok_text(entry: &CacheEntry) -> String {
    format!(
        "OK ii={} copies={} max_registers={} attempts={} degraded={}",
        entry.ii,
        entry.copies,
        entry.max_registers,
        entry.attempts,
        u8::from(entry.degraded)
    )
}

/// What one pass measured.
pub struct Pass {
    /// Starting the server and waiting for its first reply.
    pub setup_s: f64,
    pub wall_s: f64,
    pub requests: u64,
    pub hits: u64,
    /// One line per failed request.
    pub errors: Vec<String>,
    /// Cold latency per cell, in seconds.
    cold: BTreeMap<usize, f64>,
    warm: Vec<f64>,
    /// The OK line per cell (the warm hits must repeat it byte for byte).
    pub lines: BTreeMap<usize, String>,
    layers: Option<Layers>,
    /// The host-speed factor of this pass alone.
    pub factor: f64,
}

/// How one pass runs: whether the server records telemetry, and
/// whether the client replays each request's layers in spans.
pub struct PassKind<'a> {
    pub host: &'a mut HostSpeed,
    pub telemetry: bool,
    pub journal: &'a Path,
    pub tracer: Option<&'a mut Tracer>,
}

pub fn pass(cells: &Cells, kind: PassKind<'_>) -> Result<Pass, String> {
    let bodies: Vec<Pair<'_>> = cells
        .order
        .iter()
        .map(|&(w, m)| Pair {
            kernel_text: &cells.kernel_texts[w],
            arch_text: &cells.machines[m].text,
        })
        .collect();
    let order = stream(bodies.len());

    let t_setup = Instant::now();
    let _ = std::fs::remove_file(kind.journal);
    let (server, _) = Server::bind(
        "127.0.0.1:0",
        config(kind.journal.to_path_buf(), kind.telemetry),
    )
    .map_err(|e| format!("starting server: {e}"))?;
    let addr = server.addr().to_string();
    if let Err(e) = client_stats(&addr, CLIENT_TIMEOUT) {
        server.shutdown();
        return Err(format!("server not answering: {e}"));
    }
    let setup_s = secs(t_setup.elapsed());

    let mut tracer = kind.tracer;
    let mut mirror = match tracer {
        Some(_) => {
            let path = kind.journal.with_extension("mirror");
            let _ = std::fs::remove_file(&path);
            match ScheduleCache::open(Some(&path), false) {
                Ok((cache, _)) => Some(Mirror {
                    cache,
                    config_fp: config_fingerprint(&SchedulerConfig::default(), 0),
                    limit: ServeConfig::default().step_limit,
                }),
                Err(e) => {
                    server.shutdown();
                    return Err(format!("mirror cache: {e}"));
                }
            }
        }
        None => None,
    };
    let mut layers = tracer.as_ref().map(|_| Layers::default());

    let mut out = Pass {
        setup_s,
        wall_s: 0.0,
        requests: 0,
        hits: 0,
        errors: Vec::new(),
        cold: BTreeMap::new(),
        warm: Vec::with_capacity(order.len()),
        lines: BTreeMap::new(),
        layers: None,
        factor: 0.0,
    };
    let host_mark = kind.host.mark();
    let mut reference_s = 0.0;
    let start = Instant::now();
    for (i, &p) in order.iter().enumerate() {
        let first = !out.lines.contains_key(&p);
        // The host-speed reference runs before each cold request only:
        // a warm hit right after it would pay for the caches it evicted.
        if first {
            reference_s += kind.host.sample();
        }
        let body = &bodies[p];
        let send = || {
            client_request(
                &addr,
                body.kernel_text,
                body.arch_text,
                None,
                None,
                CLIENT_TIMEOUT,
            )
        };
        let (response, rt) = match tracer.as_deref_mut() {
            Some(t) => {
                t.set_run(i as u64);
                t.span("request", send)
            }
            None => {
                let t = Instant::now();
                let r = send();
                (r, secs(t.elapsed()))
            }
        };
        out.requests += 1;
        let response = response.unwrap_or_else(|e| format!("ERR client {e}"));
        let mut lines = response.lines();
        let (cache, ok) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
        let good = ok.starts_with("OK ")
            && cache == if first { "CACHE miss" } else { "CACHE hit" }
            && out.lines.get(&p).is_none_or(|cold| cold == ok);
        if !good {
            out.errors.push(format!(
                "serve: request {i} ({}): unexpected response {response:?}",
                cells.name(cells.order[p])
            ));
        }
        if first {
            out.cold.insert(p, rt);
            out.lines.insert(p, ok.to_string());
        } else {
            out.hits += 1;
            out.warm.push(rt);
        }
        if let (Some(t), Some(m), Some(l)) =
            (tracer.as_deref_mut(), mirror.as_mut(), layers.as_mut())
        {
            if !m.replay(t, body, rt, ok, l) {
                out.errors.push(format!(
                    "serve: request {i} ({}): the replay does not reproduce {ok:?}",
                    cells.name(cells.order[p])
                ));
            }
        }
    }
    let replay_s = layers.as_ref().map_or(0.0, |l| l.replay_s);
    // The reference and the client's in-process replay are not part of
    // the service's work.
    out.wall_s = secs(start.elapsed()) - reference_s - replay_s;
    out.factor = kind.host.factor_since(host_mark);
    server.shutdown();
    let _ = std::fs::remove_file(kind.journal);
    let _ = std::fs::remove_file(kind.journal.with_extension("mirror"));
    out.layers = layers;
    Ok(out)
}

/// The end-to-end metrics of the untraced passes.
pub fn report_plain(report: &mut Report, host: &HostSpeed, plain: &[&Pass]) {
    let warm: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.warm.iter().map(|&s| rescale(s, p.factor, host)))
        .collect();
    // The tail takes the run's host speed, not each pass's (see
    // NOTES.md).
    let raw: Vec<f64> = plain.iter().flat_map(|p| p.warm.iter().copied()).collect();
    // Cold requests differ in kind (1 ms to seconds), so each cell's
    // cold latency is a median over passes of that cell alone, and cells
    // are combined by geometric mean.
    let mut by_cell: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for p in plain {
        for (&cell, &s) in &p.cold {
            by_cell
                .entry(cell)
                .or_default()
                .push(rescale(s, p.factor, host));
        }
    }
    let cold: Vec<f64> = by_cell.values().map(|v| median(v)).collect();
    let rates: Vec<f64> = plain
        .iter()
        .map(|p| p.requests as f64 / rescale(p.wall_s, p.factor, host))
        .collect();
    report.push("warm_p50_ms", median(&warm) * 1e3, "ms");
    report.push("warm_p90_ms", quantile(&raw, 0.9) * 1e3, "ms");
    report.push("cold_p50_ms", geomean(&cold) * 1e3, "ms");
    report.push("req_per_s", median(&rates), "1/s");
}

/// The per-layer metrics. Each round of a traced run sends the stream
/// three times: to a server with telemetry (`plain`), to one without
/// (`quiet`), and with the client's replay (`traced`).
pub fn report_traced(
    report: &mut Report,
    host: &HostSpeed,
    plain: &[&Pass],
    quiet: &[&Pass],
    traced: &[&Pass],
) {
    // The 99th percentile of each untraced pass on its own, so that one
    // pass's burst of interference does not set the run's tail.
    let tails: Vec<f64> = plain.iter().map(|p| quantile(&p.warm, 0.99)).collect();
    report.push("serve.warm_p99_ms", median(&tails) * 1e3, "ms");
    let layers: Vec<(&Layers, f64)> = traced
        .iter()
        .filter_map(|p| p.layers.as_ref().map(|l| (l, p.factor)))
        .collect();
    let warm_layer = |name: &str| {
        median(
            &layers
                .iter()
                .flat_map(|&(l, f)| {
                    l.warm
                        .get(name)
                        .into_iter()
                        .flatten()
                        .map(move |&s| rescale(s, f, host))
                })
                .collect::<Vec<_>>(),
        )
    };
    let cold_total = |name: &str| {
        median(
            &layers
                .iter()
                .map(|&(l, f)| rescale(l.cold_total.get(name).copied().unwrap_or(0.0), f, host))
                .collect::<Vec<_>>(),
        )
    };
    for name in ["parse_kernel", "parse_arch", "cache_key", "cache_lookup"] {
        report.push(format!("serve.{name}.us"), warm_layer(name) * 1e6, "us");
    }
    let inserts: Vec<f64> = layers
        .iter()
        .flat_map(|&(l, f)| l.cold_insert.iter().map(move |&s| rescale(s, f, host)))
        .collect();
    report.push("serve.cache_insert.us", median(&inserts) * 1e6, "us");
    report.push("serve.anytime.ms", cold_total("anytime") * 1e3, "ms");
    report.push(
        "serve.anytime.attempts",
        layers.first().map_or(f64::NAN, |(l, _)| l.attempts as f64),
        "count",
    );
    for name in ["validate", "explain", "regalloc"] {
        report.push(format!("serve.{name}.ms"), cold_total(name) * 1e3, "ms");
    }
    report.push("serve.wire.us", warm_layer("wire") * 1e6, "us");
    let (hits, requests) = plain
        .iter()
        .fold((0, 0), |(h, r), p| (h + p.hits, r + p.requests));
    report.push("serve.hit_share", hits as f64 / requests as f64, "share");
    let delta: Vec<f64> = plain
        .iter()
        .zip(quiet)
        .map(|(p, q)| {
            rescale(median(&p.warm), p.factor, host) - rescale(median(&q.warm), q.factor, host)
        })
        .collect();
    report.push(
        "serve.telemetry.warm_p50_delta_us",
        median(&delta) * 1e6,
        "us",
    );
}
