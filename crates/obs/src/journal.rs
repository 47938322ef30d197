//! Fixed-capacity ring-buffer journal for rare events — plan rebuilds,
//! rebalances, flush errors, backpressure transitions.
//!
//! Rare events carry more context than a counter can (which stream, which
//! shard, which shape), but must not cost allocation on the paths that
//! emit them: the ring is a `Vec` pre-allocated at one-time
//! initialization, entries are `Copy`, and recording is an uncontended
//! mutex lock plus a slot write.  When the ring wraps, old events are
//! overwritten; the monotone sequence number makes droppage *detectable*
//! — `journal_dropped()` and gaps in [`Event::seq`] both expose it.

use std::sync::{Mutex, OnceLock};

/// Ring capacity.  Sized for "rare" events: a steady-state serving run
/// emits a handful per rebalance or error, so 256 holds minutes of
/// history; a misbehaving system wraps, and the drop count says so.
const CAP: usize = 256;

/// One journal entry.  `kind` is a static name (e.g.
/// `serve.rebalance`); `a` and `b` are free-form payload words whose
/// meaning is documented per event kind in docs/OBSERVABILITY.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number, starting at 0.  A reader that sees
    /// `seq` jump by more than one between consecutive events knows the
    /// ring wrapped over the gap.
    pub seq: u64,
    /// Static event-kind name.
    pub kind: &'static str,
    /// First payload word (event-kind specific).
    pub a: u64,
    /// Second payload word (event-kind specific).
    pub b: u64,
}

struct Ring {
    /// Pre-allocated to `CAP` at init; `record` only overwrites slots.
    slots: Vec<Event>,
    /// Total events ever recorded; `next` slot is `recorded % CAP`.
    recorded: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            slots: Vec::with_capacity(CAP),
            recorded: 0,
        })
    })
}

/// Appends an event (crate-internal; the public gate is [`crate::event`],
/// which checks the runtime switch first, and under the `off` feature
/// compiles to a no-op that never reaches here).
#[cfg_attr(feature = "off", allow(dead_code))]
pub(crate) fn record(kind: &'static str, a: u64, b: u64) {
    let mut ring = ring().lock().unwrap_or_else(|p| p.into_inner());
    let seq = ring.recorded;
    let ev = Event { seq, kind, a, b };
    let idx = (seq % CAP as u64) as usize;
    if ring.slots.len() < CAP {
        // Still filling the pre-allocated buffer; `push` stays within
        // capacity, so no reallocation.
        ring.slots.push(ev);
    } else {
        ring.slots[idx] = ev;
    }
    ring.recorded = seq + 1;
}

/// The retained journal, oldest first.  At most the ring capacity (256)
/// events; older ones have been overwritten (see [`journal_dropped`]).
pub fn journal_events() -> Vec<Event> {
    let ring = ring().lock().unwrap_or_else(|p| p.into_inner());
    let n = ring.slots.len();
    let start = (ring.recorded as usize) % CAP;
    let mut out = Vec::with_capacity(n);
    if n < CAP {
        out.extend_from_slice(&ring.slots);
    } else {
        out.extend_from_slice(&ring.slots[start..]);
        out.extend_from_slice(&ring.slots[..start]);
    }
    out
}

/// Total events ever recorded, including overwritten ones.
pub fn journal_recorded() -> u64 {
    ring().lock().unwrap_or_else(|p| p.into_inner()).recorded
}

/// Events lost to ring wraparound (`recorded − retained`).
pub fn journal_dropped() -> u64 {
    let ring = ring().lock().unwrap_or_else(|p| p.into_inner());
    ring.recorded - ring.slots.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring is process-global and the harness runs tests in parallel:
    /// the tests below hold this lock so neither records into the middle
    /// of the other's exact accounting.
    static RING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Works in deltas, so events recorded before it starts do not matter.
    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let _ring = RING.lock().unwrap_or_else(|p| p.into_inner());
        let base = journal_recorded();
        for i in 0..(CAP as u64 + 40) {
            record("test.journal.wrap", i, 0);
        }
        assert_eq!(journal_recorded(), base + CAP as u64 + 40);
        assert!(journal_dropped() >= 40, "ring must have wrapped");

        let events = journal_events();
        assert_eq!(events.len(), CAP);
        // Oldest-first and seq-contiguous once wrapped.
        for pair in events.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
        // The newest entry is the last one recorded.
        let last = events.last().unwrap();
        assert_eq!(last.seq, journal_recorded() - 1);
        assert_eq!(last.kind, "test.journal.wrap");
        assert_eq!(last.a, CAP as u64 + 39);
    }

    #[test]
    fn payload_round_trips() {
        let _ring = RING.lock().unwrap_or_else(|p| p.into_inner());
        record("test.journal.payload", 7, 99);
        let events = journal_events();
        let ev = events
            .iter()
            .rev()
            .find(|e| e.kind == "test.journal.payload")
            .expect("just recorded");
        assert_eq!((ev.a, ev.b), (7, 99));
    }
}
