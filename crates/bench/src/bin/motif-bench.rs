//! Regenerate the experiment tables of EXPERIMENTS.md.
//!
//! Usage: `motif-bench [experiment...]` — with no arguments, runs them all.
//! Experiment names: see `motif-bench list`. The machine-readable `*-json`
//! series (`machine-json`, `parallel-json`, `compiled-json`, `chaos-json`,
//! `serve-json`) take an optional output path and default to files under
//! `out/`, which is gitignored.

use bench::record::{render, Header, Record};

/// Counting allocator so `machine-json` can report allocations/reduction.
#[global_allocator]
static ALLOC: bench::counting_alloc::CountingAllocator = bench::counting_alloc::CountingAllocator;

/// The output file of a `*-json` mode: the first argument after the mode
/// that is not a flag, else `default`. Its directory is created.
fn out_path<'a>(args: &'a [String], default: &'a str) -> &'a str {
    let path = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .map_or(default, String::as_str);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    path
}

/// Whether this host has a single core, for a series whose numbers mean
/// little there. With `--require-cores` the series refuses to record
/// (exit 3), so a recording job fails loudly instead of committing noise;
/// otherwise it warns and records.
fn single_core_host(args: &[String], series: &str, caveat: &str) -> bool {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        return false;
    }
    if args.iter().any(|a| a == "--require-cores") {
        eprintln!(
            "error: refusing to record {series} on a single-core host \
             (--require-cores); {caveat}"
        );
        std::process::exit(3);
    }
    eprintln!(
        "WARNING: single-core host — {caveat}; the snapshot is annotated \
         host_parallelism: 1 and should not be committed as a recording"
    );
    true
}

/// Write one series through the flat-record codec, echo the file on stdout
/// and one summary line per row on stderr.
fn write_series<R: Record>(
    path: &str,
    header: &Header,
    rows: &[R],
    summary: impl Fn(&R) -> String,
) {
    let json = render(header, rows);
    std::fs::write(path, &json).expect("write bench json");
    print!("{json}");
    for row in rows {
        eprintln!("{}", summary(row));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    match args.first().map(String::as_str) {
        Some("machine-json") => {
            // Machine hot-path throughput, with the first recording's
            // numbers carried forward as the comparison baseline.
            let path = out_path(&args, "out/BENCH_machine.json");
            let previous = std::fs::read_to_string(path).ok();
            let reports = bench::machine_bench::run_machine_bench(previous.as_deref());
            write_series(path, &Header::this_host(), &reports, |r| {
                format!(
                    "{:<16} {:>12.0} red/s ({:>5.2}x baseline), {:>6.2} allocs/red",
                    r.name,
                    r.reductions_per_sec,
                    r.speedup_vs_baseline(),
                    r.allocs_per_reduction
                )
            });
        }
        Some("parallel-json") => {
            // B-series: wall-clock speedup of the multi-threaded backend.
            // `--quick` is the CI smoke configuration (small workloads, 2
            // threads); the full run sweeps 1/2/4/8 threads.
            let mut header = Header::this_host();
            if single_core_host(
                &args,
                "the B-series",
                "speedups here measure scheduling overhead, not parallelism",
            ) {
                // Loud in-band annotation for tools that plot speedups.
                header.host_warning = Some(
                    "recorded on a single-core host; speedup columns are not parallel speedups"
                        .to_string(),
                );
            }
            let path = out_path(&args, "out/BENCH_parallel.json");
            write_series(path, &header, &bench::b1_parallel(quick), |p| {
                format!(
                    "{:<16} {:<10} {} threads: {:>9.2} ms ({:>5.2}x)",
                    p.workload,
                    p.backend,
                    p.threads,
                    p.wall_ns as f64 / 1e6,
                    p.speedup
                )
            });
        }
        Some("compiled-json") => {
            // Compiled-tier series: interpreted vs compiled rule execution
            // on the same scheduler. `--quick` caps the workloads for CI.
            let path = out_path(&args, "out/BENCH_compiled.json");
            let points = bench::b2_compiled(quick);
            write_series(path, &Header::this_host(), &points, |p| {
                format!(
                    "{:<16} {:<12} {:<10} {:>9.2} ms, {:>8} red ({:>5.2}x)",
                    p.workload,
                    p.exec,
                    p.backend,
                    p.wall_ns as f64 / 1e6,
                    p.reductions,
                    p.speedup
                )
            });
        }
        Some("chaos-json") => {
            // Robustness series: the supervised ring under the parallel
            // backend's wall-clock fault injection (shard kill, batch
            // drop/duplication). `--quick` takes one sample per cell.
            let path = out_path(&args, "out/BENCH_chaos.json");
            let points = bench::b3_chaos(quick);
            write_series(path, &Header::this_host(), &points, |p| {
                format!(
                    "{:<14} {} threads: {:>8.2} ms, {:>7} red ({:>5.2}x), \
                     delivered {}/{}, restarts {}",
                    p.scenario,
                    p.threads,
                    p.wall_ns as f64 / 1e6,
                    p.reductions,
                    p.overhead,
                    p.delivered,
                    p.expected,
                    p.restarts
                )
            });
        }
        Some("serve-json") => {
            // C-series: the resident service under concurrent TCP load.
            // `--quick` runs small bursts for CI smoke; the full run's top
            // burst is 1000 concurrent clients. `--supervised` records the
            // Supervise ∘ Server variant (acked sends, wall-clock heartbeat
            // and watch deadlines) — same schema, `scenario: "supervised"`,
            // conventionally written to its own snapshot so the plain
            // baseline stays comparable. Loss and residency hold anywhere,
            // but latency recorded on one core is scheduling noise.
            let supervised = args.iter().any(|a| a == "--supervised");
            single_core_host(
                &args,
                "the serve series",
                "latencies here measure thread scheduling, not the service",
            );
            let path = out_path(
                &args,
                if supervised {
                    "out/BENCH_serve_supervised.json"
                } else {
                    "out/BENCH_serve.json"
                },
            );
            let points = if supervised {
                bench::c1_serve_supervised(quick)
            } else {
                bench::c1_serve(quick)
            };
            write_series(path, &Header::this_host(), &points, |p| {
                format!(
                    "{:>5} clients × {:>2} req: {:>6}/{:<6} ok ({} lost), p50 {:>7} µs, \
                     p99 {:>8} µs, {:>9.1} req/s, {} parks, {} reclaimed",
                    p.clients,
                    p.requests / p.clients.max(1),
                    p.completed,
                    p.requests,
                    p.lost,
                    p.p50_us,
                    p.p99_us,
                    p.throughput_rps,
                    p.idle_parks,
                    p.vars_reclaimed
                )
            });
        }
        _ => run_tables(&args),
    }
}

fn run_tables(args: &[String]) {
    if args.iter().any(|a| a == "list" || a == "--list") {
        for name in bench::EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    if args.first().map(String::as_str) == Some("show") {
        // Consult the archive: print a motif library's source.
        match args.get(1).and_then(|n| bench::motif_source(n)) {
            Some((title, src)) => {
                println!("%% {title}\n{src}");
            }
            None => {
                eprintln!("usage: motif-bench show <motif>; motifs:");
                for m in bench::MOTIF_SOURCES {
                    eprintln!("  {m}");
                }
                std::process::exit(2);
            }
        }
        return;
    }
    let selected: Vec<&str> = if args.is_empty() {
        bench::EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in selected {
        match bench::run_experiment(name) {
            Some(output) => println!("{output}"),
            None => {
                eprintln!("unknown experiment `{name}`; try `motif-bench list`");
                std::process::exit(2);
            }
        }
    }
}
