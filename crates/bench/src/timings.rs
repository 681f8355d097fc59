//! T1: wall-clock medians of the hot paths no other series times.
//!
//! `machine-json`, the `*-json` series and the perfbench workloads time the
//! engine's main paths. This table covers the rest: small simulator
//! programs (suspension traffic, Tree-Reduce-2 on arithmetic, the graph and
//! task-pragma motifs) and the real-thread skeletons (the farm under every
//! placement policy, the three tree-reduction labelings, mergesort, the
//! stencil and progressive alignment). Each row is the median of `reps`
//! timed runs; pools are built and shut down outside the timed region.

use crate::experiments::{FIGURE1, TASK_PRAGMA_APP};
use crate::table::Table;
use seqalign::{align_family_parallel, align_family_seq, FamilyParams, ScoreParams};
use skeletons::dc::{run, run_seq, SortProblem};
use skeletons::stencil::{stencil_1d, stencil_1d_seq};
use skeletons::{farm, int_eval, random_int_tree, reduce, Labeling, Policy, Pool};
use std::time::Instant;
use strand_core::SplitMix64;
use strand_machine::{run_goal, run_parsed_goal, MachineConfig};

/// The T1 table under construction, with the repetition count per row.
struct Timings {
    table: Table,
    reps: usize,
}

impl Timings {
    /// Time `reps` runs of `run` and add their median as one row.
    fn row(&mut self, group: &str, row: impl Into<String>, mut run: impl FnMut()) {
        let mut ms: Vec<f64> = (0..self.reps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        let median = ms[ms.len() / 2];
        self.table
            .row(vec![group.to_string(), row.into(), format!("{median:.3}")]);
    }
}

/// A tiny deterministic spin per farm task (keeps the optimizer honest).
fn busy_work(n: u64) -> u64 {
    let mut acc = n;
    for i in 0..(n % 64 + 16) {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

fn random_vec(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_below(1_000_000) as i64).collect()
}

/// Build the T1 table from `reps` timed runs per row.
pub fn t1_timings(reps: usize) -> Table {
    let mut t = Timings {
        table: Table::new(
            format!("T1: wall-clock medians of {reps} runs, paths no other series times"),
            &["group", "row", "median ms"],
        ),
        reps,
    };

    // Simulator programs.
    t.row("simulator", "fig1 producer/consumer, 256 items", || {
        run_goal(FIGURE1, "go(256)", MachineConfig::default()).expect("fig1 runs");
    });
    let tr2 = motifs::tree_reduce_2()
        .apply_src(motifs::ARITH_EVAL)
        .expect("TR2 applies");
    let tr2_goal = format!("create(4, tr2({}, Value))", motifs::random_tree_src(64, 3));
    t.row("simulator", "Tree-Reduce-2 arith, 64 leaves, P=4", || {
        let cfg = MachineConfig::with_nodes(4).seed(3);
        run_parsed_goal(&tr2, &tr2_goal, cfg).expect("TR2 runs");
    });
    let edges: Vec<(u32, u32)> = (1..24).map(|i| (i, i + 1)).chain([(24, 1)]).collect();
    let graph = motifs::graph::graph_components()
        .apply_src("noop(1).")
        .expect("graph applies");
    let graph_goal = format!(
        "create(4, cc(24, {}, Final))",
        motifs::graph::edges_src(&edges)
    );
    t.row("simulator", "graph components, ring of 24", || {
        let cfg = MachineConfig::with_nodes(4).seed(1);
        run_parsed_goal(&graph, &graph_goal, cfg).expect("graph runs");
    });
    let pragma = motifs::task_scheduler_with_entries(&[("gen", 2)])
        .apply_src(TASK_PRAGMA_APP)
        .expect("Sched applies");
    let pragma_goal = motifs::boot_goal(5, "gen", &["40", "V"]);
    t.row("simulator", "@task pragma, 40 skewed tasks, P=5", || {
        let cfg = MachineConfig::with_nodes(5).seed(13);
        run_parsed_goal(&pragma, &pragma_goal, cfg).expect("pragma runs");
    });

    // Real-thread skeletons on 4 workers.
    for policy in [
        Policy::StaticBlock,
        Policy::StaticCyclic,
        Policy::Random(3),
        Policy::Demand,
        Policy::Stealing,
    ] {
        let pool = Pool::new(4, matches!(policy, Policy::Stealing));
        t.row("farm", format!("512 tasks, {policy:?}"), || {
            farm(&pool, policy, (0..512u64).collect(), busy_work);
        });
        pool.shutdown();
    }
    for labeling in [Labeling::Random(7), Labeling::Paper(7), Labeling::Static] {
        let pool = Pool::new(4, false);
        t.row("tree reduce", format!("256 leaves, {labeling:?}"), || {
            reduce(&pool, random_int_tree(256, 5), labeling, int_eval);
        });
        pool.shutdown();
    }
    let pool = Pool::new(4, true);
    t.row("mergesort", "50k, sequential", || {
        run_seq(SortProblem(random_vec(50_000, 3)));
    });
    t.row("mergesort", "50k, divide and conquer", || {
        run(&pool, SortProblem(random_vec(50_000, 3)));
    });
    let init: Vec<f64> = (0..4096).map(|i| (i % 17) as f64).collect();
    t.row("stencil", "4096 cells x 50, sequential", || {
        stencil_1d_seq(&init, 50);
    });
    t.row("stencil", "4096 cells x 50, parallel", || {
        stencil_1d(&pool, init.clone(), 50);
    });
    pool.shutdown();

    let params = ScoreParams::default();
    let fam = seqalign::generate_family(&FamilyParams {
        leaves: 12,
        ancestral_len: 100,
        seed: 8,
        ..Default::default()
    });
    t.row("alignment", "12 x 100 bp, sequential", || {
        align_family_seq(&fam.sequences, &params);
    });
    for labeling in [Labeling::Random(8), Labeling::Paper(8)] {
        let pool = Pool::new(4, false);
        t.row("alignment", format!("12 x 100 bp, {labeling:?}"), || {
            align_family_parallel(&pool, &fam.sequences, &params, labeling);
        });
        pool.shutdown();
    }

    t.table
        .note("Skeleton rows run on a 4-worker pool. The engine's main paths are")
        .note("timed by machine-json, the *-json series and perfbench instead.");
    t.table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_runs_once() {
        let t = t1_timings(1);
        assert_eq!(t.rows.len(), 19);
        for row in &t.rows {
            let ms: f64 = row[2].parse().expect("median is a number");
            assert!(ms >= 0.0, "{row:?}");
        }
    }
}
