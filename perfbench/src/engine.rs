//! The batch workloads: one motif program solved over and over on the
//! deterministic simulator (the reference path) and on the parallel
//! backend at 2 threads (the main path).
//!
//! * `tr1-arith` — Tree-Reduce-1 with arithmetic `eval/4` over a seeded
//!   random tree: all time is rule dispatch, scheduling, store and
//!   cross-worker routing.
//! * `msa-tr2` — Tree-Reduce-2 aligning a seeded RNA family with the
//!   native `align_node`: kernel-bound, few reductions.

use crate::stats::{median, ratio};
use crate::trace::{self, Span};
use crate::{Config, Report, SetupTimes};
use motifs::Motif;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use strand_core::Term;
use strand_machine::{
    run_parsed_goal_with_lib, ForeignLib, GoalResult, MachineConfig, Metrics, RunStatus,
};
use strand_parse::{compile_program, Program};

/// Virtual nodes of both batch workloads.
const NODES: u32 = 8;
/// Worker threads of the parallel backend.
const THREADS: u32 = 2;

/// The solve a foreign call belongs to (the parent of its span).
static CURRENT_SOLVE: AtomicU64 = AtomicU64::new(0);
static FOREIGN_CALLS: AtomicU64 = AtomicU64::new(0);
static FOREIGN_NS: AtomicU64 = AtomicU64::new(0);

/// One batch workload, fully generated from the seed.
struct Case {
    motif: fn() -> Motif,
    eval_src: &'static str,
    goal: String,
    lib: ForeignLib,
    check: Box<dyn Fn(&GoalResult) -> bool>,
}

pub fn tr1_arith(cfg: &Config) -> Result<Report, String> {
    let tree = motifs::random_tree_src(cfg.scale.tr1_leaves, cfg.seed);
    let want = motifs::sequential_reduce(&tree) + i64::from(cfg.plant_wrong);
    let case = Case {
        motif: motifs::tree_reduce_1,
        eval_src: motifs::ARITH_EVAL,
        goal: format!("create({NODES}, reduce({tree}, Value))"),
        lib: ForeignLib::new(),
        // Tree-Reduce-1 has no termination detection: the run ends
        // quiescent with one idle server loop per node.
        check: Box::new(move |r| {
            r.report.status
                == RunStatus::Quiescent {
                    suspended: NODES as usize,
                }
                && r.bindings.get("Value") == Some(&Term::Int(want))
        }),
    };
    run_case(cfg, case)
}

pub fn msa_tr2(cfg: &Config) -> Result<Report, String> {
    let params = seqalign::ScoreParams::default();
    let fam = seqalign::generate_family(&seqalign::FamilyParams {
        leaves: cfg.scale.msa_leaves,
        ancestral_len: cfg.scale.msa_len,
        seed: cfg.seed,
        ..Default::default()
    });
    // The guide tree is input, as in the paper: built here, untimed.
    let guide = seqalign::guide_tree(&fam.sequences, &params);
    let tree = seqalign::guide_tree_src(&guide, &fam.sequences);
    let mut reference = seqalign::align_family_seq(&fam.sequences, &params);
    if cfg.plant_wrong {
        reference.seqs += 1;
    }
    let case = Case {
        motif: motifs::tree_reduce_2,
        eval_src: seqalign::ALIGN_EVAL,
        goal: format!("create({NODES}, tr2({tree}, Value))"),
        lib: seqalign::align_lib(params, 8),
        check: Box::new(move |r| {
            r.report.status == RunStatus::Completed
                && r.bindings
                    .get("Value")
                    .and_then(|v| seqalign::term_to_profile(v).ok())
                    .is_some_and(|p| p == reference)
        }),
    };
    run_case(cfg, case)
}

/// `lib` with every procedure wrapped in a span and a call/time count.
fn timed_lib(lib: &ForeignLib, span_name: &'static str) -> ForeignLib {
    let mut out = ForeignLib::new();
    for (name, arity, f) in lib.iter() {
        let f = Arc::clone(f);
        out.register(name, arity, move |args| {
            let span = Span::start(span_name, CURRENT_SOLVE.load(Ordering::Relaxed), 0);
            let r = f(args);
            FOREIGN_NS.fetch_add(span.end(), Ordering::Relaxed);
            FOREIGN_CALLS.fetch_add(1, Ordering::Relaxed);
            r
        });
    }
    out
}

/// Counters of one traced solve.
struct SolveStats {
    ms: f64,
    reductions: f64,
    allocs: f64,
    suspensions: f64,
    rules_tried: f64,
    worker_skew: f64,
    cross_msgs: f64,
    pending_peak: f64,
    foreign_calls: f64,
    foreign_ms: f64,
}

/// Deliveries between distinct virtual nodes (spawns, stream sends and
/// binding notifications).
pub(crate) fn cross_node_msgs(m: &Metrics) -> u64 {
    m.messages
        .iter()
        .enumerate()
        .map(|(from, row)| {
            row.iter()
                .enumerate()
                .filter(|&(to, _)| to != from)
                .map(|(_, n)| n)
                .sum::<u64>()
        })
        .sum()
}

fn solve_stats(r: &GoalResult, ms: f64, allocs: u64) -> SolveStats {
    let m = &r.report.metrics;
    let jobs = &m.worker_jobs;
    let skew = match (jobs.iter().max(), jobs.iter().min()) {
        (Some(&hi), Some(&lo)) => ratio(hi as f64, lo as f64),
        _ => 0.0,
    };
    SolveStats {
        ms,
        reductions: m.total_reductions as f64,
        allocs: allocs as f64,
        suspensions: m.suspensions as f64,
        rules_tried: m.rules_tried as f64,
        worker_skew: skew,
        cross_msgs: cross_node_msgs(m) as f64,
        pending_peak: m
            .gauges
            .get("pending")
            .and_then(|g| g.iter().max())
            .map_or(0.0, |&p| p as f64),
        foreign_calls: FOREIGN_CALLS.load(Ordering::Relaxed) as f64,
        foreign_ms: FOREIGN_NS.load(Ordering::Relaxed) as f64 / 1e6,
    }
}

fn med(stats: &[SolveStats], f: impl Fn(&SolveStats) -> f64) -> f64 {
    median(&stats.iter().map(f).collect::<Vec<_>>())
}

/// One set-up, timed: the motif transformation applied to the workload's
/// `eval/4`, then compiled.
fn set_up(case: &Case, times: &mut SetupTimes) -> Result<Program, String> {
    let whole = Span::start("setup", 0, 0);
    let span = Span::start("transform.apply", whole.id(), 0);
    let program = (case.motif)()
        .apply_src(case.eval_src)
        .map_err(|e| format!("transform: {e}"))?;
    times.apply_ms.push(span.end() as f64 / 1e6);
    let span = Span::start("parse.compile", whole.id(), 0);
    compile_program(&program).map_err(|e| format!("compile: {e}"))?;
    times.compile_ms.push(span.end() as f64 / 1e6);
    times.total_s.push(whole.end() as f64 / 1e9);
    Ok(program)
}

fn run_case(cfg: &Config, case: Case) -> Result<Report, String> {
    let mut report = Report::default();

    // Set-up is transform plus compile (each well under a millisecond),
    // timed before every unit; the program solved is the first one built.
    let mut setups = SetupTimes::default();
    let program = set_up(&case, &mut setups)?;
    let traced_lib = timed_lib(&case.lib, "seqalign.align");
    let sim_cfg = MachineConfig::with_nodes(NODES).seed(cfg.seed);
    let par_cfg = sim_cfg.clone().parallel(THREADS);

    // Solve units (one simulator and one parallel solve each, their order
    // swapped every two units) until the time is up. A traced run records
    // every other unit; the untraced ones give the tracing overhead.
    let (mut sim_ms, mut par_ms) = (Vec::new(), Vec::new());
    let (mut sim_traced, mut par_traced) = (Vec::new(), Vec::new());
    let deadline = cfg.deadline();
    let mut unit = 0usize;
    while unit < cfg.scale.min_units || Instant::now() < deadline {
        let traced = cfg.trace && unit % 2 == 1;
        trace::set_enabled(traced);
        for _ in 0..cfg.scale.setups_per_unit {
            set_up(&case, &mut setups)?;
        }
        let order = if (unit / 2).is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for parallel in order {
            let (name, mcfg) = if parallel {
                ("solve.par", par_cfg.clone())
            } else {
                ("solve.sim", sim_cfg.clone())
            };
            FOREIGN_CALLS.store(0, Ordering::Relaxed);
            FOREIGN_NS.store(0, Ordering::Relaxed);
            let allocs0 = trace::allocations();
            let span = Span::start(name, 0, 0);
            CURRENT_SOLVE.store(span.id(), Ordering::Relaxed);
            let lib = if traced { &traced_lib } else { &case.lib };
            let result = run_parsed_goal_with_lib(&program, &case.goal, mcfg, lib);
            let ms = span.end() as f64 / 1e6;
            let allocs = trace::allocations() - allocs0;
            let ok = result.as_ref().is_ok_and(|r| (case.check)(r));
            report.tally(ok);
            if !ok {
                continue;
            }
            let r = result.expect("checked above");
            match (parallel, traced) {
                (false, false) => sim_ms.push(ms),
                (true, false) => par_ms.push(ms),
                (false, true) => sim_traced.push(solve_stats(&r, ms, allocs)),
                (true, true) => par_traced.push(solve_stats(&r, ms, allocs)),
            }
        }
        unit += 1;
    }
    trace::set_enabled(false);

    report.detail("units", unit as f64, "count");
    report.detail("sim_solve_ms", median(&sim_ms), "ms");
    report.detail("par_solve_ms", median(&par_ms), "ms");
    if !cfg.trace {
        report.metric("setup_s", median(&setups.total_s));
        report.metric("main_p50_ms", median(&par_ms));
        report.metric("ref_p50_ms", median(&sim_ms));
        return Ok(report);
    }

    let sim_s = med(&sim_traced, |s| s.ms) / 1e3;
    let par_s = med(&par_traced, |s| s.ms) / 1e3;
    let reductions = med(&sim_traced, |s| s.reductions);
    report.metric("transform.apply_ms", median(&setups.apply_ms));
    report.metric("parse.compile_ms", median(&setups.compile_ms));
    report.metric("machine.reductions", reductions);
    report.metric("machine.red_per_s", ratio(reductions, sim_s));
    report.metric(
        "machine.allocs_per_red",
        med(&sim_traced, |s| ratio(s.allocs, s.reductions)),
    );
    report.metric(
        "machine.suspensions_per_red",
        med(&sim_traced, |s| ratio(s.suspensions, s.reductions)),
    );
    report.metric(
        "machine.match_ratio",
        med(&sim_traced, |s| ratio(s.reductions, s.rules_tried)),
    );
    report.metric(
        "parallel.red_per_s",
        ratio(med(&par_traced, |s| s.reductions), par_s),
    );
    report.metric("parallel.speedup", ratio(sim_s, par_s));
    report.metric("parallel.worker_skew", med(&par_traced, |s| s.worker_skew));
    report.metric("parallel.cross_msgs", med(&par_traced, |s| s.cross_msgs));
    report.metric(
        "seqalign.align_calls",
        med(&sim_traced, |s| s.foreign_calls),
    );
    report.metric("seqalign.align_ms", med(&sim_traced, |s| s.foreign_ms));
    report.metric(
        "seqalign.align_share",
        med(&sim_traced, |s| ratio(s.foreign_ms, s.ms)),
    );
    report.metric("tr2.pending_peak", med(&sim_traced, |s| s.pending_peak));
    report.metric(
        "trace.overhead_pct",
        100.0 * ratio(par_s * 1e3 - median(&par_ms), median(&par_ms)),
    );
    Ok(report)
}
