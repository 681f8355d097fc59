//! The repository benchmark: four workloads that drive the motif engine
//! from outside, through the crates' public APIs, check every answer, and
//! report end-to-end metrics (untraced runs) or per-layer metrics (traced
//! runs). README.md in this package explains the workloads and metrics.

pub mod engine;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: trace::CountingAllocator = trace::CountingAllocator;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "tr1-arith",
    "msa-tr2",
    "serve-doubler",
    "serve-supervised-churn",
];

/// End-to-end metrics (name, unit): printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("main_p50_ms", "ms"),
    ("ref_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit): printed by every traced run. A layer a
/// workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transform.apply_ms", "ms"),
    ("parse.compile_ms", "ms"),
    ("serve.boot_ms", "ms"),
    ("machine.reductions", "count"),
    ("machine.red_per_s", "1/s"),
    ("machine.allocs_per_red", "ratio"),
    ("machine.suspensions_per_red", "ratio"),
    ("machine.match_ratio", "ratio"),
    ("parallel.red_per_s", "1/s"),
    ("parallel.speedup", "ratio"),
    ("parallel.worker_skew", "ratio"),
    ("parallel.cross_msgs", "count"),
    ("seqalign.align_calls", "count"),
    ("seqalign.align_ms", "ms"),
    ("seqalign.align_share", "ratio"),
    ("tr2.pending_peak", "count"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    ("serve.wire_p50_us", "us"),
    ("resident.parks_per_req", "ratio"),
    ("serve.busy_ratio", "ratio"),
    ("serve.parse_term_us", "us"),
    ("serve.close_session_us", "us"),
    ("serve.store_slots_end", "count"),
    ("serve.late_early_ratio", "ratio"),
    ("timers.armed_per_req", "ratio"),
    ("timers.cancelled_ratio", "ratio"),
    ("timers.deadline_wakes_per_req", "ratio"),
    ("supervisor.restarts", "count"),
    ("trace.overhead_pct", "%"),
];

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] keeps the smoke tests fast.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Leaves of the tr1-arith random tree.
    pub tr1_leaves: u32,
    /// Sequences and ancestral length of the msa-tr2 RNA family.
    pub msa_leaves: usize,
    pub msa_len: usize,
    /// Set-ups timed before each unit of work (spread over the run, so
    /// their median sees the same host as the rest); `setup_s` is the
    /// median of all of them. `serve_setups` is the count before each
    /// serve block or unit, which are longer and fewer.
    pub setups_per_unit: usize,
    pub serve_setups: usize,
    /// Requests per connection in one serve-supervised-churn unit, and
    /// units per second of `--seconds`.
    pub churn_requests: usize,
    pub churn_units_per_s: f64,
    /// Inclusive range of requests a churn session carries before it
    /// reconnects.
    pub session_len: (u64, u64),
    /// serve-doubler requests per connection and path, per second of
    /// `--seconds`, and the least it makes however short the run.
    pub doubler_rate: f64,
    pub min_requests: usize,
    /// Alternating TCP / in-process blocks those requests are split into.
    pub doubler_blocks: usize,
    /// Units of work a run makes at least, however short `--seconds` is.
    pub min_units: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            tr1_leaves: 8192,
            msa_leaves: 48,
            msa_len: 160,
            setups_per_unit: 2,
            serve_setups: 12,
            churn_requests: 1500,
            churn_units_per_s: 0.25,
            session_len: (40, 60),
            doubler_rate: 6000.0,
            min_requests: 1000,
            doubler_blocks: 16,
            min_units: 3,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            tr1_leaves: 64,
            msa_leaves: 6,
            msa_len: 30,
            setups_per_unit: 1,
            serve_setups: 1,
            churn_requests: 40,
            churn_units_per_s: 0.0,
            session_len: (5, 15),
            doubler_rate: 0.0,
            min_requests: 30,
            doubler_blocks: 2,
            min_units: 2,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Perturb every expected answer, so that every operation must be
    /// counted as failed (proves the correctness gate bites).
    pub plant_wrong: bool,
}

impl Config {
    /// When a time-bounded run stops starting new units.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Set-up timings of one run: whole set-ups (seconds) and, in a traced
/// run, the transform and compile steps alone (milliseconds).
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub compile_ms: Vec<f64>,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<(&'static str, f64)>,
    /// Supporting figures for the human-readable lines: the same
    /// quantities under the names the workload's users know them by, plus
    /// sample counts and self times.
    pub details: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Run one workload. Fails only on an unknown workload name or an input
/// the benchmark itself could not build.
pub fn run(cfg: &Config) -> Result<Report, String> {
    strand_parallel::install();
    let mut report = match cfg.workload.as_str() {
        "tr1-arith" => engine::tr1_arith(cfg)?,
        "msa-tr2" => engine::msa_tr2(cfg)?,
        "serve-doubler" => serve::doubler(cfg)?,
        "serve-supervised-churn" => serve::supervised_churn(cfg)?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    if cfg.trace {
        for (name, n, total, own) in trace::self_times(&trace::spans()) {
            report.detail(
                format!("self_ms_per_span.{name}"),
                own as f64 / n as f64 / 1e6,
                "ms",
            );
            report.detail(format!("total_ms.{name}"), total as f64 / 1e6, "ms");
        }
        // Layers this workload never reaches read 0.
        for &(name, _) in PER_LAYER {
            if report.get(name).is_none() {
                report.metric(name, 0.0);
            }
        }
    } else {
        report.metric("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("count", |&(_, u)| u)
}

/// The run's output: human-readable lines, then (last) one JSON object
/// with `correct`, `attempted`, `failed` and `metrics`.
pub fn render(cfg: &Config, nproc: usize, report: &Report) -> String {
    let mut out = format!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}\n",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc
    );
    for (name, value, unit) in &report.details {
        out.push_str(&format!("detail {name} {value} {unit}\n"));
    }
    let mut json = Vec::new();
    for &(name, value) in &report.metrics {
        let unit = unit_of(name);
        out.push_str(&format!("metric {name} {value} {unit}\n"));
        let value = if value.is_finite() { value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        report.correct(),
        report.attempted,
        report.failed,
        json.join(", ")
    ));
    out
}
