//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable lines followed by one JSON
//! object (the last line). Exit codes: 0 on a completed run (even one
//! with failed operations, which the JSON reports), 2 on bad arguments,
//! 3 on a host with fewer than 2 CPUs, 4 when the workload could not be
//! built.

use perfbench::{render, run, Config, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <tr1-arith|msa-tr2|serve-doubler|\
serve-supervised-churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 28.0,
        trace: false,
        scale: Scale::full(),
        plant_wrong: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !perfbench::WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", cfg.workload));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The parallel backend and the two client connections need two CPUs;
    // on one, the numbers would measure time slicing.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!("perfbench: refusing to measure on {nproc} CPU (need at least 2)");
        return ExitCode::from(3);
    }
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(4);
        }
    };
    if cfg.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let path = dir.join(format!("perfbench-trace-{}.csv", cfg.workload));
        match perfbench::trace::write_csv(&path, &perfbench::trace::spans()) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    print!("{}", render(&cfg, nproc, &report));
    ExitCode::SUCCESS
}
