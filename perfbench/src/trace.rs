//! Spans and counts recorded from outside the program, around each call
//! the benchmark makes into a layer's public API.
//!
//! Recording is off unless a traced run switches it on ([`set_enabled`]);
//! while off, [`Span::start`] and the counting allocator cost one relaxed
//! atomic load. Spans stay in memory until [`write_csv`] at exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Switch span recording and allocation counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span. Times are nanoseconds since the process's first
/// span; `parent` is 0 for a root; `req` ties the spans of one request
/// (0 when the span belongs to no request).
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span. Its id is fixed at start so children can name it as
/// their parent before it ends.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start: Instant,
    live: bool,
}

impl Span {
    pub fn start(name: &'static str, parent: u64, req: u64) -> Span {
        let live = enabled();
        let id = if live {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            id,
            parent,
            name,
            req,
            start: Instant::now(),
            live,
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span and return its duration in nanoseconds (measured
    /// whether or not recording is on).
    pub fn end(self) -> u64 {
        let end = Instant::now();
        let dur = end.duration_since(self.start).as_nanos() as u64;
        if self.live {
            let e = epoch();
            let start_ns = self.start.saturating_duration_since(e).as_nanos() as u64;
            let record = SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                req: self.req,
                start_ns,
                end_ns: start_ns + dur,
            };
            SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(record);
        }
        dur
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<SpanRecord> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Per span name: (count, total ns, self ns). A span's self time is its
/// duration minus the part of it covered by its children's intervals.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - covered.min(s.dur_ns());
    }
    let mut out: Vec<_> = by_name
        .into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect();
    out.sort_by_key(|&(name, ..)| name);
    out
}

/// Write every span as CSV (`id,parent,req,name,start_ns,end_ns`).
pub fn write_csv(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,req,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Heap allocations counted while recording was on.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Pass-through to the system allocator that counts allocation events
/// (reallocs included) while recording is on.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the atomics have no allocator side
// effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "solve", 0, 100),
            span(2, 1, "align", 10, 40),
            span(3, 1, "align", 30, 50),  // overlaps the first child
            span(4, 1, "align", 90, 120), // runs past the parent's end
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], ("align", 3, 80, 80));
        assert_eq!(t[1], ("solve", 1, 100, 100 - 40 - 10));
    }
}
