//! B-series: wall-clock speedup of the multi-threaded backend.
//!
//! The other experiments measure *virtual* time on the deterministic
//! simulator; this one measures *real* time. Each workload is one motif
//! program run first on the simulator (the baseline) and then on the
//! `strand-parallel` backend at 1, 2, 4 and 8 worker threads; `speedup` is
//! simulator wall-clock over parallel wall-clock.
//!
//! Workloads:
//!
//! * `ring` — a token ring of timed hops. Inherently sequential: the
//!   honesty check. Any backend claiming a speedup here is broken.
//! * `tree-reduce` — Tree-Reduce-1 whose node evaluation *spins* (CPU
//!   burn). Scales with physical cores; on a single-core host it stays
//!   near 1×.
//! * `tree-reduce-io` — the same tree whose node evaluation *sleeps*
//!   (I/O-bound node work, e.g. the paper's telephone-network provisioning
//!   runs blocked on external calls). Sleeps overlap across worker threads
//!   even on one core, so this shows genuine wall-clock speedup anywhere.
//! * `seqalign` — progressive RNA alignment with the native `align_node`
//!   as a pure foreign procedure, computed outside the machine lock.
//!
//! `motif-bench parallel-json` records the rows machine-readably
//! (`out/BENCH_parallel.json`) through the flat-record codec.

use crate::record::flat_record;
use crate::table::Table;
use motifs::{random_tree_src, tree_reduce_1};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use strand_core::{StrandResult, Term};
use strand_machine::{run_parsed_goal_with_lib, ForeignLib, GoalResult, MachineConfig};
use strand_parse::{parse_program, Program};

/// One measured row: a workload on one backend configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelPoint {
    pub workload: String,
    /// `"simulator"` or `"parallel"`.
    pub backend: String,
    /// Worker threads (1 for the simulator).
    pub threads: u32,
    pub wall_ns: u64,
    /// Simulator wall-clock over this row's wall-clock (1.0 for the
    /// simulator row itself).
    pub speedup: f64,
}

flat_record!(ParallelPoint, None, {
    workload: str,
    backend: str,
    threads: int,
    wall_ns: int,
    speedup: fixed(4),
});

/// One unit of CPU burn. Calibration and `nspin` run this same loop.
fn spin(iterations: u64) {
    let mut acc = 0u64;
    for i in 0..iterations {
        acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(acc);
}

/// Spin iterations worth `ns` nanoseconds of CPU on this host. The rate
/// is calibrated once per process (best of five timed rounds, so a round
/// that was descheduled does not count), and from then on a given `ns`
/// always burns the same fixed amount of work, however the threads doing
/// it are scheduled.
fn spin_iterations(ns: u64) -> u64 {
    static PER_MS: OnceLock<u64> = OnceLock::new();
    let per_ms = *PER_MS.get_or_init(|| {
        const ROUND: u64 = 200_000;
        let best = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                spin(ROUND);
                t0.elapsed()
            })
            .min()
            .expect("five rounds");
        (ROUND as u128 * 1_000_000 / best.as_nanos().max(1)).max(1) as u64
    });
    (ns as u128 * per_ms as u128 / 1_000_000) as u64
}

/// Timed-work foreign library: `nspin(Ns, Done)` burns a fixed amount of
/// CPU worth `Ns` nanoseconds on an idle core, `nsleep(Ns, Done)` blocks
/// for `Ns` nanoseconds. Both bind `Done := done` and charge one virtual
/// tick — they model node work whose cost is real time, not virtual time.
/// A descheduled `nspin` does not progress, so CPU-bound rows can only
/// speed up on real cores.
pub fn timed_work_lib() -> ForeignLib {
    fn ns_arg(args: &[Term]) -> StrandResult<u64> {
        match &args[0] {
            Term::Int(n) if *n >= 0 => Ok(*n as u64),
            other => Err(strand_core::StrandError::Other(format!(
                "timed work wants a non-negative integer nanosecond count, got {other}"
            ))),
        }
    }
    let mut lib = ForeignLib::new();
    lib.register("nspin", 2, |args| {
        spin(spin_iterations(ns_arg(args)?));
        Ok((Term::atom("done"), 1))
    });
    lib.register("nsleep", 2, |args| {
        let ns = ns_arg(args)?;
        std::thread::sleep(Duration::from_nanos(ns));
        Ok((Term::atom("done"), 1))
    });
    lib
}

/// A token ring: each hop sleeps, then forwards to the next node. The
/// dependency chain is total, so no backend can go faster than the sum of
/// the hops.
fn ring_workload(hops: u32, hop_ns: u64) -> (Program, String) {
    // 8 = the machine's node count; `nodes/1` is a server-motif operation
    // and this program deliberately stays raw (no transform overhead).
    let src = format!(
        r#"
        token(0, D) :- D := done.
        token(K, D) :- K > 0 | nsleep({hop_ns}, W), hop(W, K, D).
        hop(done, K, D) :- K1 := K - 1, M := K1 mod 8 + 1, token(K1, D)@M.
        "#
    );
    let program = parse_program(&src).expect("ring program parses");
    (program, format!("token({hops}, D)"))
}

/// Tree-Reduce-1 over a random tree whose node evaluation does `work_ns`
/// of timed work (`nspin` or `nsleep`) before combining the operands.
fn tree_workload(leaves: u32, work_ns: u64, timed_proc: &str) -> (Program, String) {
    let eval = format!(
        r#"
        eval(_, L, R, Value) :- data(L), data(R) | {timed_proc}({work_ns}, W), emit(W, L, R, Value).
        emit(done, L, R, Value) :- Value := L + R.
        "#
    );
    let program = tree_reduce_1()
        .apply_src(&eval)
        .expect("TR1 applies to timed eval");
    let tree = random_tree_src(leaves, 9);
    (program, format!("create(8, reduce({tree}, Value))"))
}

/// Progressive RNA alignment on Tree-Reduce-1 with the native aligner as a
/// pure foreign procedure.
fn seqalign_workload(leaves: usize) -> (Program, String, ForeignLib) {
    use seqalign::{align_lib, generate_family, guide_tree, guide_tree_src, FamilyParams};
    let params = seqalign::ScoreParams::default();
    let fam = generate_family(&FamilyParams {
        leaves,
        ancestral_len: 80,
        seed: 21,
        ..Default::default()
    });
    let guide = guide_tree(&fam.sequences, &params);
    let tree_src = guide_tree_src(&guide, &fam.sequences);
    let program = tree_reduce_1()
        .apply_src(seqalign::ALIGN_EVAL)
        .expect("TR1 applies to align eval");
    (
        program,
        format!("create(8, reduce({tree_src}, Value))"),
        align_lib(params, 8),
    )
}

fn timed_run(
    program: &Program,
    goal: &str,
    cfg: MachineConfig,
    lib: &ForeignLib,
) -> (GoalResult, u64) {
    let t0 = Instant::now();
    let r = run_parsed_goal_with_lib(program, goal, cfg, lib).expect("workload runs");
    (r, t0.elapsed().as_nanos() as u64)
}

/// Run the B-series. `quick` shrinks the workloads and stops at 2 threads —
/// the CI smoke configuration; the full run sweeps 1/2/4/8 threads.
pub fn b1_parallel(quick: bool) -> Vec<ParallelPoint> {
    strand_parallel::install();
    let thread_counts: &[u32] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let (hops, hop_ns) = if quick {
        (16, 500_000)
    } else {
        (48, 1_000_000)
    };
    let (leaves, work_ns) = if quick {
        (16, 1_000_000)
    } else {
        (64, 3_000_000)
    };
    let align_leaves = if quick { 8 } else { 16 };

    let timed = timed_work_lib();
    let (align_prog, align_goal, align) = seqalign_workload(align_leaves);
    let workloads: Vec<(&'static str, Program, String, &ForeignLib)> = vec![
        {
            let (p, g) = ring_workload(hops, hop_ns);
            ("ring", p, g, &timed)
        },
        {
            let (p, g) = tree_workload(leaves, work_ns, "nspin");
            ("tree-reduce", p, g, &timed)
        },
        {
            let (p, g) = tree_workload(leaves, work_ns, "nsleep");
            ("tree-reduce-io", p, g, &timed)
        },
        ("seqalign", align_prog, align_goal, &align),
    ];

    let mut points = Vec::new();
    for (name, program, goal, lib) in &workloads {
        let cfg = MachineConfig::with_nodes(8).seed(7);
        let (_base, base_ns) = timed_run(program, goal, cfg.clone(), lib);
        points.push(ParallelPoint {
            workload: name.to_string(),
            backend: "simulator".to_string(),
            threads: 1,
            wall_ns: base_ns,
            speedup: 1.0,
        });
        for &threads in thread_counts {
            let (_r, wall_ns) = timed_run(program, goal, cfg.clone().parallel(threads), lib);
            points.push(ParallelPoint {
                workload: name.to_string(),
                backend: "parallel".to_string(),
                threads,
                wall_ns,
                speedup: base_ns as f64 / wall_ns.max(1) as f64,
            });
        }
    }
    points
}

/// Render the B-series as an experiment table.
pub fn b1_parallel_table(quick: bool) -> Table {
    let points = b1_parallel(quick);
    let mut t = Table::new(
        "B1: wall-clock speedup, multi-threaded backend vs simulator",
        &["workload", "backend", "threads", "wall ms", "speedup"],
    );
    for p in &points {
        t.row(vec![
            p.workload.to_string(),
            p.backend.to_string(),
            p.threads.to_string(),
            format!("{:.2}", p.wall_ns as f64 / 1e6),
            format!("{:.2}x", p.speedup),
        ]);
    }
    t.note("speedup = simulator wall-clock / this row's wall-clock.");
    t.note("ring is inherently sequential (honesty check); tree-reduce (spin)");
    t.note("needs physical cores; tree-reduce-io (sleep) overlaps on any host.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{parse, render, Header};

    #[test]
    fn quick_points_cover_every_workload_and_backend() {
        let points = b1_parallel(true);
        for w in ["ring", "tree-reduce", "tree-reduce-io", "seqalign"] {
            assert!(points
                .iter()
                .any(|p| p.workload == w && p.backend == "simulator"));
            assert!(points
                .iter()
                .any(|p| p.workload == w && p.backend == "parallel" && p.threads == 2));
        }
        let json = render(&Header::this_host(), &points);
        assert!(json.contains("\"workload\": \"tree-reduce-io\""));
        parse::<ParallelPoint>(&json).expect("a recorded file parses");
    }

    #[test]
    fn spin_iterations_are_fixed_per_process() {
        let n = spin_iterations(3_000_000);
        assert!(n > 0);
        for _ in 0..3 {
            assert_eq!(spin_iterations(3_000_000), n);
        }
        assert_eq!(spin_iterations(0), 0);
    }
}
