//! The resident-service workloads: a `strand-serve` service driven by two
//! closed-loop callers (each waits for its reply before sending the next
//! request; no think time), over loopback TCP through the service's own
//! `serve` loop (the main path) and in-process through
//! `MotifService::request` (the reference path), with the same request
//! streams. The two paths run in alternating blocks, so both see the
//! same stretches of host time.
//!
//! * `serve-doubler` — `DOUBLER_APP`, integer requests; both paths hold
//!   their two sessions for the whole run.
//! * `serve-supervised-churn` — `ECHO_APP` under `Supervise ∘ Server`,
//!   list requests of 1–128 integers, each session reconnecting after a
//!   seeded 40–60 requests; a unit is a fresh service per path serving a
//!   fixed 2 × 1500 requests, because its cost grows with volume.

use crate::engine::cross_node_msgs;
use crate::stats::{late_early_ratio, median, quantile, ratio};
use crate::trace::{self, Span};
use crate::{Config, Report, SetupTimes};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use strand_core::{SplitMix64, StrandResult};
use strand_machine::Metrics;
use strand_serve::{serve, MotifService, ServeBackend, ServeConfig, ServeSummary, Session};

const SERVERS: u32 = 4;
const THREADS: u32 = 2;
/// Client connections (closed-loop callers); at most the host's 2 CPUs.
const CONNS: usize = 2;
/// `BUSY` answers a request may absorb before it counts as failed.
const BUSY_RETRIES: u32 = 100;
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// The boot rule `MotifService::start` appends to the application before
/// transforming it; the traced run transforms and compiles the same text.
const BOOT_RULE: &str = "\nserve_boot(N, DT) :- make_tuple(N, DT), spawn_servers(N, DT).\n";

static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

#[derive(Clone, Copy)]
struct App {
    src: &'static str,
    supervise: bool,
    /// Requests are integer lists to echo, not integers to double.
    echo: bool,
}

fn start_service(app: App) -> Result<MotifService, String> {
    let cfg = ServeConfig {
        servers: SERVERS,
        backend: ServeBackend::Parallel(THREADS),
        supervise: app.supervise,
        ..ServeConfig::default()
    };
    MotifService::start(app.src, cfg).map_err(|e| format!("service start: {e}"))
}

/// One set-up: `MotifService::start` (transform, compile, boot to idle),
/// timed; the service is shut down untimed. A traced set-up also times
/// the transform and compile alone, on the program `start` builds.
fn set_up(app: App, times: &mut SetupTimes) -> Result<(), String> {
    let whole = Span::start("setup", 0, 0);
    let boot = Span::start("serve.boot", whole.id(), 0);
    let service = start_service(app)?;
    boot.end();
    times.total_s.push(whole.end() as f64 / 1e9);
    service.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if trace::enabled() {
        let span = Span::start("transform.apply", 0, 0);
        let motif = if app.supervise {
            motifs::supervised_server()
        } else {
            motifs::server()
        };
        let program = motif
            .apply_src(&format!("{}{BOOT_RULE}", app.src))
            .map_err(|e| format!("transform: {e}"))?;
        times.apply_ms.push(span.end() as f64 / 1e6);
        let span = Span::start("parse.compile", 0, 0);
        strand_parse::compile_program(&program).map_err(|e| format!("compile: {e}"))?;
        times.compile_ms.push(span.end() as f64 / 1e6);
    }
    Ok(())
}

/// One session's seeded requests and reconnect points. Two streams made
/// from the same seed and connection index are identical.
struct Stream {
    values: SplitMix64,
    sessions: SplitMix64,
    echo: bool,
    plant_wrong: bool,
}

impl Stream {
    fn new(cfg: &Config, app: App, conn: usize) -> Stream {
        let mut root =
            SplitMix64::new(cfg.seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Stream {
            values: root.split(),
            sessions: root.split(),
            echo: app.echo,
            plant_wrong: cfg.plant_wrong,
        }
    }

    /// The next request line and the reply line it must get.
    fn next(&mut self) -> (String, String) {
        let (line, reply) = if self.echo {
            let len = 1 + self.values.next_below(128);
            let items: Vec<String> = (0..len)
                .map(|_| self.values.next_below(1000).to_string())
                .collect();
            let list = format!("[{}]", items.join(","));
            (list.clone(), list)
        } else {
            let v = self.values.next_below(1_000_000) as i64;
            (v.to_string(), (2 * v).to_string())
        };
        let wrong = if self.plant_wrong { "0" } else { "" };
        (line, format!("OK {reply}{wrong}"))
    }

    fn session_len(&mut self, (lo, hi): (u64, u64)) -> u64 {
        lo + self.sessions.next_below(hi - lo + 1)
    }
}

/// A caller's view of the service: the TCP client or the in-process API.
trait Caller {
    fn open(&mut self) -> bool;
    /// Send one request; the reply line, or `None` if the session broke.
    fn call(&mut self, line: &str, parent: u64, req: u64) -> Option<String>;
    fn close(&mut self);
}

/// One completed request.
struct Sample {
    lat_us: f64,
    end_ns: u64,
    traced: bool,
}

#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    busy: u64,
}

/// A closed-loop caller kept across blocks of requests.
struct Conn<C> {
    caller: C,
    stream: Stream,
    open: bool,
    left_in_session: u64,
    /// Reconnect after a seeded number of requests in this range.
    churn: Option<(u64, u64)>,
}

impl<C: Caller> Conn<C> {
    fn new(caller: C, stream: Stream, churn: Option<(u64, u64)>) -> Conn<C> {
        Conn {
            caller,
            stream,
            open: false,
            left_in_session: 0,
            churn,
        }
    }

    /// Send `requests` requests, each after the previous reply, checking
    /// every reply.
    fn drive(&mut self, requests: usize, span_name: &'static str, t0: Instant) -> ClientOut {
        let mut out = ClientOut::default();
        for _ in 0..requests {
            if !self.open || self.left_in_session == 0 {
                self.finish();
                self.open = self.caller.open();
                self.left_in_session = self.churn.map_or(u64::MAX, |r| self.stream.session_len(r));
            }
            let (line, want) = self.stream.next();
            out.attempted += 1;
            if !self.open {
                out.failed += 1;
                continue;
            }
            let traced = trace::enabled();
            let req = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
            let span = Span::start(span_name, 0, req);
            let mut ok = false;
            for _ in 0..=BUSY_RETRIES {
                match self.caller.call(&line, span.id(), req) {
                    Some(reply) => {
                        if let Some(ms) = reply.strip_prefix("BUSY ") {
                            out.busy += 1;
                            let ms: u64 = ms.parse().unwrap_or(10);
                            std::thread::sleep(Duration::from_millis(ms.max(1)));
                            continue;
                        }
                        ok = reply == want;
                    }
                    None => self.open = false,
                }
                break;
            }
            let lat_ns = span.end();
            self.left_in_session = self.left_in_session.saturating_sub(1);
            if ok {
                out.samples.push(Sample {
                    lat_us: lat_ns as f64 / 1e3,
                    end_ns: t0.elapsed().as_nanos() as u64,
                    traced,
                });
            } else {
                out.failed += 1;
            }
        }
        out
    }

    fn finish(&mut self) {
        if self.open {
            self.caller.close();
            self.open = false;
        }
    }
}

/// Run one block: every connection sends `requests` requests, all
/// connections concurrently.
fn block<C: Caller + Send>(
    conns: &mut [Conn<C>],
    requests: usize,
    span_name: &'static str,
    t0: Instant,
    phase: &mut Phase,
) {
    let start = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || c.drive(requests, span_name, t0)))
            .collect();
        for c in clients {
            phase.absorb(c.join().expect("client thread"));
        }
    });
    phase.wall_s += start.elapsed().as_secs_f64();
}

struct TcpCaller {
    addr: SocketAddr,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
    reply: String,
}

impl TcpCaller {
    fn new(addr: SocketAddr) -> TcpCaller {
        TcpCaller {
            addr,
            conn: None,
            reply: String::new(),
        }
    }
}

impl Caller for TcpCaller {
    fn open(&mut self) -> bool {
        let Ok(stream) = TcpStream::connect(self.addr) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let Ok(writer) = stream.try_clone() else {
            return false;
        };
        self.conn = Some((BufReader::new(stream), writer));
        true
    }

    fn call(&mut self, line: &str, _parent: u64, _req: u64) -> Option<String> {
        let (reader, writer) = self.conn.as_mut()?;
        writer.write_all(format!("{line}\n").as_bytes()).ok()?;
        self.reply.clear();
        match reader.read_line(&mut self.reply) {
            Ok(n) if n > 0 => Some(self.reply.trim_end().to_string()),
            _ => {
                self.conn = None;
                None
            }
        }
    }

    fn close(&mut self) {
        self.conn = None;
    }
}

struct InProcCaller<'a> {
    service: &'a MotifService,
    session: Option<Session>,
    parse_us: Vec<f64>,
    close_us: Vec<f64>,
}

impl<'a> InProcCaller<'a> {
    fn new(service: &'a MotifService) -> InProcCaller<'a> {
        InProcCaller {
            service,
            session: None,
            parse_us: Vec::new(),
            close_us: Vec::new(),
        }
    }
}

impl Caller for InProcCaller<'_> {
    fn open(&mut self) -> bool {
        let span = Span::start("serve.open_session", 0, 0);
        self.session = Some(self.service.open_session());
        span.end();
        true
    }

    fn call(&mut self, line: &str, parent: u64, req: u64) -> Option<String> {
        if trace::enabled() {
            // The service parses inside `request`; the same call, timed
            // from outside, gives the parse layer's share.
            let span = Span::start("serve.parse_term", parent, req);
            let _ = strand_parse::parse_term(line);
            self.parse_us.push(span.end() as f64 / 1e3);
        }
        Some(self.service.request(self.session?, line).wire())
    }

    fn close(&mut self) {
        if let Some(session) = self.session.take() {
            let span = Span::start("serve.close_session", 0, 0);
            self.service.close_session(session);
            self.close_us.push(span.end() as f64 / 1e3);
        }
    }
}

/// A service behind the `strand-serve` TCP loop on a loopback port.
struct TcpService {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<StrandResult<ServeSummary>>,
}

impl TcpService {
    fn start(app: App) -> Result<TcpService, String> {
        let service = start_service(app)?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve(listener, service, shutdown, Duration::from_secs(30)))
        };
        Ok(TcpService {
            addr,
            shutdown,
            thread,
        })
    }

    /// Stop accepting, drain, shut the engine down; its final metrics.
    fn stop(self) -> Result<Metrics, String> {
        self.shutdown.store(true, Ordering::Release);
        let summary = self
            .thread
            .join()
            .map_err(|_| "serve loop panicked".to_string())?
            .map_err(|e| format!("serve loop: {e}"))?;
        Ok(summary.report.metrics)
    }
}

/// What one path measured over one service lifetime.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    busy: u64,
    wall_s: f64,
    metrics: Metrics,
    /// Store slots held after the load (every session closed) beyond
    /// those held after boot; in-process phases only.
    store_growth: f64,
    /// Allocations counted, and requests made, while recording was on.
    allocs: u64,
    traced_requests: u64,
    parse_us: Vec<f64>,
    close_us: Vec<f64>,
}

impl Phase {
    fn absorb(&mut self, mut c: ClientOut) {
        self.samples.append(&mut c.samples);
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.busy += c.busy;
    }

    fn lat(&self, q: f64, traced: Option<bool>) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .map(|s| s.lat_us)
            .collect();
        quantile(&v, q)
    }

    fn late_early(&mut self) -> f64 {
        self.samples.sort_by_key(|s| s.end_ns);
        late_early_ratio(&self.samples.iter().map(|s| s.lat_us).collect::<Vec<_>>())
    }
}

/// Both paths, each on a fresh service, in alternating blocks of
/// `per_block` requests per connection, with `setups` set-ups (if given)
/// before each block pair. A traced run records the odd-numbered block
/// pairs.
fn run_paths(
    cfg: &Config,
    app: App,
    blocks: std::ops::Range<usize>,
    per_block: usize,
    churn: Option<(u64, u64)>,
    mut setups: Option<&mut SetupTimes>,
) -> Result<(Phase, Phase), String> {
    let tcp_service = TcpService::start(app)?;
    let service = start_service(app)?;
    service.wait_idle(Duration::from_secs(10));
    let boot_slots = service.store_len();
    let mut tcp_conns: Vec<_> = (0..CONNS)
        .map(|c| {
            Conn::new(
                TcpCaller::new(tcp_service.addr),
                Stream::new(cfg, app, c),
                churn,
            )
        })
        .collect();
    let mut inproc_conns: Vec<_> = (0..CONNS)
        .map(|c| Conn::new(InProcCaller::new(&service), Stream::new(cfg, app, c), churn))
        .collect();
    let (mut tcp, mut inproc) = (Phase::default(), Phase::default());
    let t0 = Instant::now();
    for b in blocks {
        let traced = cfg.trace && b % 2 == 1;
        trace::set_enabled(traced);
        if let Some(times) = setups.as_deref_mut() {
            for _ in 0..cfg.scale.serve_setups {
                set_up(app, times)?;
            }
        }
        block(&mut tcp_conns, per_block, "wire.request", t0, &mut tcp);
        let allocs0 = trace::allocations();
        block(
            &mut inproc_conns,
            per_block,
            "serve.request",
            t0,
            &mut inproc,
        );
        if traced {
            inproc.allocs += trace::allocations() - allocs0;
            inproc.traced_requests += (CONNS * per_block) as u64;
        }
    }
    trace::set_enabled(false);
    for c in &mut tcp_conns {
        c.finish();
    }
    for c in &mut inproc_conns {
        c.finish();
        inproc.parse_us.append(&mut c.caller.parse_us);
        inproc.close_us.append(&mut c.caller.close_us);
    }
    drop(inproc_conns);
    service.wait_idle(Duration::from_secs(10));
    inproc.store_growth = service.store_len() as f64 - boot_slots as f64;
    inproc.metrics = service
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?
        .metrics;
    tcp.metrics = tcp_service.stop()?;
    Ok((tcp, inproc))
}

pub fn doubler(cfg: &Config) -> Result<Report, String> {
    let app = App {
        src: strand_serve::DOUBLER_APP,
        supervise: false,
        echo: false,
    };
    // The request count is fixed by `--seconds`, not by a deadline: the
    // held sessions grow the store with every request, so the same count
    // keeps peak memory comparable between runs.
    let blocks = cfg.scale.doubler_blocks;
    let per_conn = cfg
        .scale
        .min_requests
        .max((cfg.scale.doubler_rate * cfg.seconds) as usize);
    let mut setups = SetupTimes::default();
    let per_block = per_conn.div_ceil(blocks);
    let (tcp, inproc) = run_paths(cfg, app, 0..blocks, per_block, None, Some(&mut setups))?;
    summarize(cfg, &setups, vec![tcp], vec![inproc])
}

pub fn supervised_churn(cfg: &Config) -> Result<Report, String> {
    let app = App {
        src: strand_serve::ECHO_APP,
        supervise: true,
        echo: true,
    };
    // Like the doubler's request count, the unit count is fixed by
    // `--seconds`, so every run does the same work and peak memory is the
    // highest of the same number of service lifetimes.
    let units = cfg
        .scale
        .min_units
        .max((cfg.seconds * cfg.scale.churn_units_per_s).round() as usize);
    let mut setups = SetupTimes::default();
    let (mut tcps, mut inprocs) = (Vec::new(), Vec::new());
    for unit in 0..units {
        // Set-ups go between units: a live supervised service wakes for
        // its heartbeats, which would land in the set-up timings.
        trace::set_enabled(cfg.trace && unit % 2 == 1);
        for _ in 0..cfg.scale.serve_setups {
            set_up(app, &mut setups)?;
        }
        let churn = Some(cfg.scale.session_len);
        let requests = cfg.scale.churn_requests;
        let (tcp, inproc) = run_paths(cfg, app, unit..unit + 1, requests, churn, None)?;
        tcps.push(tcp);
        inprocs.push(inproc);
    }
    summarize(cfg, &setups, tcps, inprocs)
}

/// Median over phases of a per-phase figure.
fn over(phases: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// Median over phases of each phase's `q`-quantile latency (µs) among
/// the requests whose traced flag matches (any, with `None`); phases with
/// no such request are skipped.
fn lat_over(phases: &[Phase], q: f64, traced: Option<bool>) -> f64 {
    let per_phase: Vec<f64> = phases
        .iter()
        .filter(|p| {
            p.samples
                .iter()
                .any(|s| traced.is_none_or(|t| s.traced == t))
        })
        .map(|p| p.lat(q, traced))
        .collect();
    median(&per_phase)
}

fn summarize(
    cfg: &Config,
    setups: &SetupTimes,
    mut tcps: Vec<Phase>,
    inprocs: Vec<Phase>,
) -> Result<Report, String> {
    let mut report = Report::default();
    for p in tcps.iter().chain(&inprocs) {
        report.attempted += p.attempted;
        report.failed += p.failed;
    }
    let late_early = median(&tcps.iter_mut().map(Phase::late_early).collect::<Vec<_>>());
    let completed: usize = tcps.iter().map(|p| p.samples.len()).sum();
    report.detail("units", tcps.len() as f64, "count");
    report.detail("setups", setups.total_s.len() as f64, "count");
    report.detail("tcp_requests_completed", completed as f64, "count");
    report.detail(
        "rps",
        over(&tcps, |p| p.samples.len() as f64 / p.wall_s),
        "1/s",
    );
    report.detail("lat_p50_us", lat_over(&tcps, 0.5, None), "us");
    report.detail("lat_p99_us", lat_over(&tcps, 0.99, None), "us");
    report.detail("inproc_p50_us", lat_over(&inprocs, 0.5, None), "us");
    report.detail(
        "store_slots_end",
        over(&inprocs, |p| p.store_growth),
        "count",
    );
    report.detail("late_early_ratio", late_early, "ratio");
    if !cfg.trace {
        report.metric("setup_s", median(&setups.total_s));
        report.metric("main_p50_ms", lat_over(&tcps, 0.5, None) / 1e3);
        report.metric("ref_p50_ms", lat_over(&inprocs, 0.5, None) / 1e3);
        return Ok(report);
    }

    // Engine counters of every service in the run.
    let mut m = Metrics::default();
    let (mut wall_s, mut busy, mut sends, mut cross) = (0.0, 0u64, 0u64, 0u64);
    for p in tcps.iter().chain(&inprocs) {
        let pm = &p.metrics;
        m.total_reductions += pm.total_reductions;
        m.requests_admitted += pm.requests_admitted;
        m.suspensions += pm.suspensions;
        m.rules_tried += pm.rules_tried;
        m.idle_parks += pm.idle_parks;
        m.timers_armed += pm.timers_armed;
        m.timers_cancelled += pm.timers_cancelled;
        m.wakes_for_deadline += pm.wakes_for_deadline;
        m.supervisor_restarts += pm.supervisor_restarts;
        let workers = m.worker_jobs.len().max(pm.worker_jobs.len());
        m.worker_jobs.resize(workers, 0);
        for (acc, j) in m.worker_jobs.iter_mut().zip(&pm.worker_jobs) {
            *acc += j;
        }
        cross += cross_node_msgs(pm);
        wall_s += p.wall_s;
        busy += p.busy;
        sends += p.attempted + p.busy;
    }
    let admitted = m.requests_admitted as f64;
    let reductions = m.total_reductions as f64;
    let jobs = &m.worker_jobs;
    let skew = match (jobs.iter().max(), jobs.iter().min()) {
        (Some(&hi), Some(&lo)) => ratio(hi as f64, lo as f64),
        _ => 0.0,
    };
    let inproc_allocs: u64 = inprocs.iter().map(|p| p.allocs).sum();
    let inproc_traced: u64 = inprocs.iter().map(|p| p.traced_requests).sum();
    let inproc_reds: u64 = inprocs.iter().map(|p| p.metrics.total_reductions).sum();
    let inproc_admitted: u64 = inprocs.iter().map(|p| p.metrics.requests_admitted).sum();
    let inproc_p50 = lat_over(&inprocs, 0.5, Some(true));
    let tcp_traced_p50 = lat_over(&tcps, 0.5, Some(true));
    let tcp_untraced_p50 = lat_over(&tcps, 0.5, Some(false));
    let all = |f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        inprocs.iter().flat_map(|p| f(p).iter().copied()).collect()
    };

    report.metric("transform.apply_ms", median(&setups.apply_ms));
    report.metric("parse.compile_ms", median(&setups.compile_ms));
    report.metric("serve.boot_ms", median(&setups.total_s) * 1e3);
    report.metric("machine.reductions", ratio(reductions, admitted));
    report.metric("machine.red_per_s", ratio(reductions, wall_s));
    report.metric(
        "machine.allocs_per_red",
        ratio(
            ratio(inproc_allocs as f64, inproc_traced as f64),
            ratio(inproc_reds as f64, inproc_admitted as f64),
        ),
    );
    report.metric(
        "machine.suspensions_per_red",
        ratio(m.suspensions as f64, reductions),
    );
    report.metric(
        "machine.match_ratio",
        ratio(reductions, m.rules_tried as f64),
    );
    report.metric("parallel.red_per_s", ratio(reductions, wall_s));
    report.metric("parallel.worker_skew", skew);
    report.metric("parallel.cross_msgs", ratio(cross as f64, admitted));
    report.metric("serve.request_p50_us", inproc_p50);
    report.metric("serve.request_p99_us", lat_over(&inprocs, 0.99, Some(true)));
    report.metric("serve.wire_p50_us", tcp_traced_p50 - inproc_p50);
    report.metric(
        "resident.parks_per_req",
        ratio(m.idle_parks as f64, admitted),
    );
    report.metric("serve.busy_ratio", ratio(busy as f64, sends as f64));
    report.metric("serve.parse_term_us", median(&all(|p| &p.parse_us)));
    report.metric("serve.close_session_us", median(&all(|p| &p.close_us)));
    report.metric("serve.store_slots_end", over(&inprocs, |p| p.store_growth));
    report.metric("serve.late_early_ratio", late_early);
    report.metric(
        "timers.armed_per_req",
        ratio(m.timers_armed as f64, admitted),
    );
    report.metric(
        "timers.cancelled_ratio",
        ratio(m.timers_cancelled as f64, m.timers_armed as f64),
    );
    report.metric(
        "timers.deadline_wakes_per_req",
        ratio(m.wakes_for_deadline as f64, admitted),
    );
    report.metric("supervisor.restarts", m.supervisor_restarts as f64);
    report.metric(
        "trace.overhead_pct",
        100.0 * ratio(tcp_traced_p50 - tcp_untraced_p50, tcp_untraced_p50),
    );
    Ok(report)
}
