//! The `motif-bench machine-json` mode: machine-level throughput tracking.
//!
//! Measures reductions per second and heap allocations per reduction for the
//! reduction hot path on three representative workloads (the tree-reduce
//! motif, the E1 random-mapping farm, and one cell of the E4 speedup sweep),
//! then writes `BENCH_machine.json` through the flat-record codec.
//!
//! The file keeps a **baseline**: the `baseline_*` fields of the first
//! recording are carried forward verbatim on every later run, so the JSON
//! always shows current-vs-baseline for the perf trajectory. A previous file
//! that does not parse as this schema (say, an older layout) makes the
//! current run the new baseline. Allocation counts come from the counting
//! global allocator installed by the `motif-bench` binary
//! ([`crate::counting_alloc`]); when that allocator is absent the alloc
//! columns read zero.

use crate::counting_alloc;
use crate::experiments::{heavy_eval, uniform_eval};
use crate::record::{flat_record, parse};
use motifs::{random_tree_src, tree_reduce_1};
use std::collections::BTreeMap;
use std::time::Instant;
use strand_machine::{ast_to_term, Machine, MachineConfig};
use strand_parse::{compile_program, parse_term, Program};

/// One measured workload, current run plus preserved baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadReport {
    pub name: String,
    pub reductions: u64,
    pub reductions_per_sec: f64,
    pub allocs_per_reduction: f64,
    pub baseline_reductions_per_sec: f64,
    pub baseline_allocs_per_reduction: f64,
}

impl WorkloadReport {
    pub fn speedup_vs_baseline(&self) -> f64 {
        if self.baseline_reductions_per_sec > 0.0 {
            self.reductions_per_sec / self.baseline_reductions_per_sec
        } else {
            1.0
        }
    }
}

flat_record!(WorkloadReport, Some("motif-bench machine-json v2"), {
    name: str,
    reductions: int,
    reductions_per_sec: fixed(1),
    allocs_per_reduction: fixed(2),
    baseline_reductions_per_sec: fixed(1),
    baseline_allocs_per_reduction: fixed(2),
});

struct Workload {
    name: &'static str,
    program: Program,
    goal: String,
    config: MachineConfig,
}

fn workloads() -> Vec<Workload> {
    let tr1_cheap = tree_reduce_1()
        .apply_src(&uniform_eval(50))
        .expect("TR1 applies");
    let tr1_heavy = tree_reduce_1()
        .apply_src(&heavy_eval(8))
        .expect("TR1 applies");
    let tr1_e4 = tree_reduce_1()
        .apply_src(&uniform_eval(200))
        .expect("TR1 applies");
    vec![
        // The tree-reduce motif on a mid-size random tree: the canonical
        // dispatch-heavy workload (every eval goes through reduce/eval/
        // apply_op plus the server library).
        Workload {
            name: "tree_reduce",
            program: tr1_cheap,
            goal: format!("create(4, reduce({}, Value))", random_tree_src(64, 7)),
            config: MachineConfig::with_nodes(4).seed(7),
        },
        // E1's random-mapping farm shape: many servers, heavy-tailed task
        // cost, leaves ≫ processors.
        Workload {
            name: "e1_farm",
            program: tr1_heavy,
            goal: format!("create(6, reduce({}, Value))", random_tree_src(96, 13)),
            config: MachineConfig::with_nodes(6).seed(13),
        },
        // One cell of the E4 speedup sweep (uniform(200), 128 leaves, P=8).
        Workload {
            name: "e4_speedup_p8",
            program: tr1_e4,
            goal: format!("create(8, reduce({}, Value))", random_tree_src(128, 21)),
            config: MachineConfig::with_nodes(8).seed(21),
        },
    ]
}

fn measure(w: &Workload) -> (u64, f64, f64) {
    // Parse and compile once: the metric is *reduction* throughput, so the
    // timed region is the machine run only — goal parsing and program
    // compilation are per-program costs, not per-reduction ones.
    let goal_ast = parse_term(&w.goal).expect("workload goal parses");
    let compiled = compile_program(&w.program).expect("workload compiles");
    let fresh = |prog: strand_parse::CompiledProgram| {
        let mut machine = Machine::new(prog, w.config.clone());
        let mut vars = BTreeMap::new();
        let goal = ast_to_term(&goal_ast, &mut machine, &mut vars);
        machine.start(goal);
        machine
    };

    // Warmup + calibration run.
    let t0 = Instant::now();
    let report = fresh(compiled.clone()).run().expect("workload runs");
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let reductions = report.metrics.total_reductions;

    // Shared CI boxes are noisy; throughput is the *best of several
    // batches* (the standard minimum-time estimator: contention only ever
    // slows a batch down, so the fastest batch is the closest to the
    // machine's true speed). Allocation counts are deterministic and are
    // averaged over everything.
    const BATCHES: u64 = 7;
    let per_batch = ((0.1 / once) as u64).clamp(3, 50);
    let mut best_rps = 0.0f64;
    let mut allocs = 0u64;
    for _ in 0..BATCHES {
        let mut elapsed = 0.0;
        for _ in 0..per_batch {
            let mut machine = fresh(compiled.clone());
            let alloc0 = counting_alloc::allocations();
            let start = Instant::now();
            let report = machine.run().expect("workload runs");
            elapsed += start.elapsed().as_secs_f64();
            allocs += counting_alloc::allocations() - alloc0;
            assert_eq!(
                report.metrics.total_reductions, reductions,
                "workload must be deterministic"
            );
        }
        best_rps = best_rps.max((reductions * per_batch) as f64 / elapsed);
    }

    (
        reductions,
        best_rps,
        allocs as f64 / (reductions * per_batch * BATCHES) as f64,
    )
}

/// Run every workload; `previous` is the old file contents (if any) whose
/// baseline numbers are carried forward.
pub fn run_machine_bench(previous: Option<&str>) -> Vec<WorkloadReport> {
    let previous = previous
        .and_then(|json| parse::<WorkloadReport>(json).ok())
        .map_or_else(Vec::new, |(_, reports)| reports);
    workloads()
        .iter()
        .map(|w| {
            let (reductions, rps, apr) = measure(w);
            let baseline = previous.iter().find(|r| r.name == w.name);
            WorkloadReport {
                name: w.name.to_string(),
                reductions,
                reductions_per_sec: rps,
                allocs_per_reduction: apr,
                baseline_reductions_per_sec: baseline
                    .map_or(rps, |b| b.baseline_reductions_per_sec),
                baseline_allocs_per_reduction: baseline
                    .map_or(apr, |b| b.baseline_allocs_per_reduction),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{render, Header};

    #[test]
    fn baseline_fields_survive_a_rewrite() {
        let reports = vec![WorkloadReport {
            name: "tree_reduce".to_string(),
            reductions: 100,
            reductions_per_sec: 2000.0,
            allocs_per_reduction: 10.0,
            baseline_reductions_per_sec: 1000.0,
            baseline_allocs_per_reduction: 40.0,
        }];
        let json = render(&Header::this_host(), &reports);
        assert_eq!(parse::<WorkloadReport>(&json).expect("parses").1, reports);
        assert_eq!(reports[0].speedup_vs_baseline(), 2.0);
        // The v1 layout is not this schema: it starts a new baseline.
        let v1 = json.replace("machine-json v2", "machine-json v1");
        assert!(parse::<WorkloadReport>(&v1).is_err());
    }
}
