//! # bench
//!
//! The experiment harness: one function per experiment in EXPERIMENTS.md
//! (F1–F7 reproduce the paper's figures as executable artifacts; E1–E9
//! reproduce its evaluation claims as measured tables). The `motif-bench`
//! binary prints the tables, `t1-timings` times the hot paths nothing else
//! times, and the `*-json` series are written through one flat-record
//! codec ([`record`]).
//!
//! All simulator experiments are deterministic: fixed seeds, virtual time.
//! Real-thread experiments report *work distribution* (tasks per worker,
//! crossings, live bytes); on a single-core CI box wall-clock speedup is
//! meaningless, and EXPERIMENTS.md says so.

pub mod chaos_bench;
pub mod compiled_bench;
pub mod counting_alloc;
pub mod experiments;
pub mod machine_bench;
pub mod parallel_bench;
pub mod record;
pub mod serve_bench;
pub mod table;
pub mod timings;

pub use chaos_bench::{b3_chaos, ChaosPoint};
pub use compiled_bench::{b2_compiled, CompiledPoint};
pub use experiments::*;
pub use parallel_bench::{b1_parallel, ParallelPoint};
pub use serve_bench::{c1_serve, c1_serve_supervised, ServePoint};
pub use table::Table;
