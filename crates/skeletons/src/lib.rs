//! # skeletons
//!
//! Typed Rust parallel skeletons — the modern descendants of the paper's
//! algorithmic motifs (the novelty lineage runs through Cole's skeletons to
//! FastFlow, SkePU and TBB patterns). Where the `motifs` crate reproduces
//! the paper's *source-level* system on a simulated multicomputer, this
//! crate runs the same algorithmic structures on **real threads**:
//!
//! * [`pool`] — a placement-aware work-stealing pool (global queue,
//!   named-worker queues = the paper's `@node`, optional stealing);
//! * [`farm`] — task farm under five placement policies (static block,
//!   static cyclic, random, demand-driven, stealing);
//! * [`tree`] — tree reduction with the paper's two labelings
//!   (Tree-Reduce-1 random mapping vs. Tree-Reduce-2 left-child labeling)
//!   plus a static partition, with live-memory and crossing metrics;
//! * [`dc`] — generic divide and conquer;
//! * [`pipeline`] — multi-stage stream pipeline on bounded channels;
//! * [`mapreduce`] — parallel map + tree reduction over slices;
//! * [`stencil`] — iterated 1-D three-point and 2-D five-point stencils
//!   with barriers (the mesh computations of the paper's DIME context).

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod dc;
pub mod farm;
pub mod mapreduce;
pub mod pipeline;
pub mod pool;
pub mod stencil;
pub mod tree;

/// Lock `m`, recovering the guard if a holder panicked. Pool jobs run
/// under `catch_unwind`, so a panicking job must not wedge the result
/// slots and queues its peers still need.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use farm::{farm, farm_chunked, Policy};
pub use pool::{Pool, TaskGroup, WorkerSet, WorkerSnapshot};
pub use tree::{
    int_eval, random_int_tree, reduce, reduce_seq, Labeling, MemSize, ReduceOutcome, Tree,
};
