//! Wall-clock timer wheel for resident fleets.
//!
//! Under `TimerSource::Virtual` an `after_unless` deadline is lazy: it fires
//! at quiescence, which is exactly the state a *resident* fleet parks in —
//! the deadline would wait forever for a wake that never comes. This module
//! gives the parallel backend a real clock: workers harvest
//! [`WallTimer`]s from their machines after every drain and register them
//! here; the idle-park arm consults [`TimerWheel::next_due`] before
//! blocking, parks with `recv_timeout` instead of `recv` when a deadline is
//! pending, and on timeout pops the due entries and fires them back into
//! the shard layer as regular gate-counted events (see
//! `Machine::fire_wall_timer`).
//!
//! Shape: a hashed wheel — entries land in `slot = (due / granularity) %
//! slots`, each slot behind its own mutex, so concurrent arming from many
//! workers rarely collides on a lock. The wheel is consulted only at park
//! boundaries (never per reduction), so reads scan every slot for the
//! minimum rather than maintaining a global order; with the tens of live
//! timers a supervised service holds, the scan is noise next to a park.
//!
//! Contracts the proptest below pins down:
//! - **never early**: `pop_due(now)` returns only entries with `due <= now`;
//! - **exactly once**: an entry is removed under its slot lock, so racing
//!   wakers never fire the same deadline twice;
//! - **cancellation**: entries whose unless-var is bound are pruned, not
//!   fired, whether the bind lands before `next_due` or between it and
//!   `pop_due`;
//! - **earliest wake**: `next_due` after pruning is exactly the minimum due
//!   time over live entries — what a fully parked fleet sleeps until.
//!
//! Granularity caveat: deadlines are millisecond-resolution (1 virtual tick
//! = [`TICK_MS`] ms) and the wheel promises *not early, possibly late* — a
//! fire can slip by scheduler latency plus the time a woken worker takes to
//! reach its park boundary. Equal deadlines fire in arm order (`seq`
//! breaks ties), which keeps replays stable but is an ordering between
//! *timers* only; no ordering is promised against regular work.

use crate::lock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use strand_core::Term;
use strand_machine::WallTimer;

/// Wall milliseconds per virtual tick: `after_unless(C, 500, T)` under
/// `TimerSource::WallClock` is a 500 ms deadline.
pub(crate) const TICK_MS: u64 = 1;

/// Slot count; a power of two so the hash is a mask-friendly modulo.
const SLOTS: usize = 64;

/// Slot width in milliseconds. Only placement hashes through this —
/// every entry keeps its exact due time, so granularity affects lock
/// spread, not firing precision.
const GRANULARITY_MS: u64 = 16;

struct Entry {
    /// Absolute due time, in ms since the wheel's epoch.
    due_ms: u64,
    /// Arm-order tiebreak for equal deadlines.
    seq: u64,
    timer: WallTimer,
}

/// The shared wheel; one per parallel run, hanging off `Shared`.
pub(crate) struct TimerWheel {
    slots: Vec<Mutex<Vec<Entry>>>,
    /// Live entry count (including not-yet-pruned cancelled entries); lets
    /// the park arm skip all locks on the common empty wheel.
    len: AtomicUsize,
    seq: AtomicU64,
    epoch: Instant,
}

impl TimerWheel {
    pub fn new() -> TimerWheel {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
            len: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Milliseconds since the wheel's epoch — the `now` every method below
    /// speaks in.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// True when no entries (live or cancelled-but-unpruned) exist.
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::SeqCst) == 0
    }

    /// Register a harvested deadline: due `wait` ticks from now.
    pub fn arm(&self, timer: WallTimer) {
        let due = self.now_ms() + timer.wait * TICK_MS;
        self.arm_at(due, timer);
    }

    /// Register a deadline at an absolute due time (tests drive virtual
    /// clocks through this).
    pub fn arm_at(&self, due_ms: u64, timer: WallTimer) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = ((due_ms / GRANULARITY_MS) as usize) % SLOTS;
        lock(&self.slots[slot]).push(Entry { due_ms, seq, timer });
        self.len.fetch_add(1, Ordering::SeqCst);
    }

    /// Earliest live deadline, pruning cancelled entries on the way.
    /// Returns `(next_due_ms, cancelled_pruned)`; `None` means the wheel
    /// holds nothing worth waking for and the caller may park unbounded.
    pub fn next_due(&self, is_cancelled: impl Fn(&Term) -> bool) -> (Option<u64>, u64) {
        if self.is_empty() {
            return (None, 0);
        }
        let mut min: Option<u64> = None;
        let mut pruned = 0u64;
        for slot in &self.slots {
            let mut entries = lock(slot);
            entries.retain(|e| {
                if is_cancelled(&e.timer.cancel) {
                    pruned += 1;
                    false
                } else {
                    if min.is_none_or(|m| e.due_ms < m) {
                        min = Some(e.due_ms);
                    }
                    true
                }
            });
        }
        if pruned > 0 {
            self.len.fetch_sub(pruned as usize, Ordering::SeqCst);
        }
        (min, pruned)
    }

    /// Earliest deadline without pruning or cancellation checks — an upper
    /// bound used for the BUSY retry hint, where a slightly stale answer is
    /// fine and no store access is available.
    pub fn next_due_raw(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let mut min: Option<u64> = None;
        for slot in &self.slots {
            for e in lock(slot).iter() {
                if min.is_none_or(|m| e.due_ms < m) {
                    min = Some(e.due_ms);
                }
            }
        }
        min
    }

    /// Remove and return every live entry due at or before `now_ms`, in
    /// (due, arm-order) order; cancelled entries encountered on the way are
    /// pruned. Removal happens under the slot lock, so when several parked
    /// workers wake for the same deadline, exactly one pops each entry.
    /// Returns `(due_timers, cancelled_pruned)`.
    pub fn pop_due(
        &self,
        now_ms: u64,
        is_cancelled: impl Fn(&Term) -> bool,
    ) -> (Vec<WallTimer>, u64) {
        if self.is_empty() {
            return (Vec::new(), 0);
        }
        let mut fired: Vec<(u64, u64, WallTimer)> = Vec::new();
        let mut pruned = 0u64;
        for slot in &self.slots {
            let mut entries = lock(slot);
            entries.retain_mut(|e| {
                if is_cancelled(&e.timer.cancel) {
                    pruned += 1;
                    false
                } else if e.due_ms <= now_ms {
                    fired.push((e.due_ms, e.seq, e.timer.clone()));
                    false
                } else {
                    true
                }
            });
        }
        let removed = fired.len() + pruned as usize;
        if removed > 0 {
            self.len.fetch_sub(removed, Ordering::SeqCst);
        }
        fired.sort_by_key(|(due, seq, _)| (*due, *seq));
        (fired.into_iter().map(|(_, _, t)| t).collect(), pruned)
    }

    /// Drop every entry armed under `region` (its session closed; firing
    /// would touch reclaimed — possibly recycled — store slots). Returns
    /// how many entries were purged.
    pub fn purge_region(&self, region: u32) -> usize {
        if region == 0 || self.is_empty() {
            return 0;
        }
        let mut purged = 0usize;
        for slot in &self.slots {
            let mut entries = lock(slot);
            let before = entries.len();
            entries.retain(|e| e.timer.region != region);
            purged += before - entries.len();
        }
        if purged > 0 {
            self.len.fetch_sub(purged, Ordering::SeqCst);
        }
        purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use strand_core::NodeId;

    /// Test entries key their cancel flag with an integer term, so a plain
    /// set stands in for "the unless-var is bound" without a store.
    fn entry(key: i64, region: u32) -> WallTimer {
        WallTimer {
            node: NodeId(0),
            wait: 0,
            cancel: Term::int(key),
            timeout: Term::atom("t"),
            region,
        }
    }

    fn key_of(t: &Term) -> i64 {
        match t {
            Term::Int(k) => *k,
            _ => panic!("test entries key cancels by integer"),
        }
    }

    fn never(_: &Term) -> bool {
        false
    }

    #[test]
    fn empty_wheel_answers_without_locking() {
        let w = TimerWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.next_due(never), (None, 0));
        assert_eq!(w.next_due_raw(), None);
        assert!(w.pop_due(u64::MAX, never).0.is_empty());
    }

    #[test]
    fn next_due_is_the_minimum_across_slots() {
        let w = TimerWheel::new();
        // Spread across distinct slots (and one same-slot collision).
        for (i, due) in [500u64, 40, 41, 1_000_000, 80].into_iter().enumerate() {
            w.arm_at(due, entry(i as i64, 0));
        }
        assert_eq!(w.next_due(never).0, Some(40));
        assert_eq!(w.next_due_raw(), Some(40));
    }

    #[test]
    fn pop_due_fires_in_deadline_then_arm_order_and_never_early() {
        let w = TimerWheel::new();
        w.arm_at(30, entry(0, 0));
        w.arm_at(10, entry(1, 0));
        w.arm_at(10, entry(2, 0));
        w.arm_at(50, entry(3, 0));
        let (fired, _) = w.pop_due(29, never);
        let keys: Vec<i64> = fired.iter().map(|t| key_of(&t.cancel)).collect();
        assert_eq!(
            keys,
            vec![1, 2],
            "due<=29 only, equal deadlines in arm order"
        );
        let (fired, _) = w.pop_due(100, never);
        let keys: Vec<i64> = fired.iter().map(|t| key_of(&t.cancel)).collect();
        assert_eq!(keys, vec![0, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancelled_entries_prune_instead_of_firing() {
        let w = TimerWheel::new();
        w.arm_at(10, entry(0, 0));
        w.arm_at(20, entry(1, 0));
        let cancelled = |t: &Term| key_of(t) == 0;
        let (next, pruned) = w.next_due(cancelled);
        assert_eq!((next, pruned), (Some(20), 1));
        let (fired, pruned) = w.pop_due(100, cancelled);
        assert_eq!(pruned, 0, "already pruned by next_due");
        assert_eq!(fired.len(), 1);
        assert_eq!(key_of(&fired[0].cancel), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn purge_region_drops_a_sessions_entries_only() {
        let w = TimerWheel::new();
        w.arm_at(10, entry(0, 7));
        w.arm_at(20, entry(1, 0));
        w.arm_at(30, entry(2, 7));
        assert_eq!(w.purge_region(7), 2);
        assert_eq!(w.purge_region(0), 0, "region 0 is never purged");
        let (fired, _) = w.pop_due(100, never);
        assert_eq!(fired.len(), 1);
        assert_eq!(key_of(&fired[0].cancel), 1);
    }

    proptest! {
        /// The tentpole contract, pinned by name in the nightly TSan job:
        /// deadlines never fire early, fire exactly once under cancellation
        /// races, and the earliest live deadline is exactly what a parked
        /// fleet would sleep until.
        #[test]
        fn timer_wheel_fires_exactly_once_never_early(
            dues in proptest::collection::vec(0u64..200, 1..40),
            cancel_mask in proptest::collection::vec(0u8..4, 1..40),
            step in 1u64..37,
        ) {
            let w = TimerWheel::new();
            let mut cancelled: HashSet<i64> = HashSet::new();
            for (i, due) in dues.iter().enumerate() {
                w.arm_at(*due, entry(i as i64, 0));
                // ~25% of entries get cancelled before any clock advance.
                if cancel_mask.get(i).copied().unwrap_or(0) == 0 {
                    cancelled.insert(i as i64);
                }
            }
            let is_cancelled = |t: &Term| cancelled.contains(&key_of(t));
            let mut fired_keys: Vec<i64> = Vec::new();
            let mut round = 0u64;
            loop {
                // Clamp the sweep so the final pop lands exactly on the
                // horizon — every due < 200 must have had its chance.
                let now = (round * step).min(220);
                // The park arm's contract: next_due is the min due over
                // entries that are uncancelled and not yet fired.
                let (next, _) = w.next_due(is_cancelled);
                let expect_min = dues.iter().enumerate()
                    .filter(|(i, _)| {
                        !cancelled.contains(&(*i as i64))
                            && !fired_keys.contains(&(*i as i64))
                    })
                    .map(|(_, due)| *due)
                    .min();
                prop_assert_eq!(next, expect_min);
                let (fired, _) = w.pop_due(now, is_cancelled);
                for t in &fired {
                    let k = key_of(&t.cancel);
                    // Never early.
                    prop_assert!(dues[k as usize] <= now,
                        "entry {} due {} fired at {}", k, dues[k as usize], now);
                    // Never cancelled.
                    prop_assert!(!cancelled.contains(&k));
                    // Exactly once.
                    prop_assert!(!fired_keys.contains(&k), "entry {} fired twice", k);
                    fired_keys.push(k);
                }
                if now >= 220 {
                    break;
                }
                round += 1;
            }
            // Everything uncancelled fired by the horizon.
            let expected: HashSet<i64> = (0..dues.len() as i64)
                .filter(|k| !cancelled.contains(k))
                .collect();
            let got: HashSet<i64> = fired_keys.iter().copied().collect();
            prop_assert_eq!(got, expected);
            prop_assert!(w.is_empty());
        }
    }
}
