//! The deterministic event queue behind the event-driven scheduler core.
//!
//! The queue is a plain min-priority queue over an explicit total order:
//! events pop by `(time, lane, seq)`. `time` is the simulated cycle the
//! event fires at, `lane` breaks ties between events scheduled for the
//! same cycle (the scheduler uses the actor's binding slot, so equal-time
//! wake-ups resolve in binding order — exactly the tie-break of a
//! first-minimum scan over the bindings, the reference scheduler in
//! `tests/engine_equivalence.rs`), and `seq` is a
//! monotonically increasing insertion counter so equal `(time, lane)`
//! events pop in push order. Every pop is therefore a deterministic
//! function of the push history — nothing about heap internals leaks into
//! the simulation.
//!
//! Cancellation is the caller's business: the scheduler invalidates lazily
//! (an entry whose recorded time no longer matches the actor's clock is
//! re-queued at the clock's current value on pop), so the queue itself
//! never needs a delete operation. See `run_actor_refs_hooked` in
//! [`crate::actor`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use mee_types::Cycles;

/// The full ordering key of a queued event: events pop in ascending
/// `(time, lane, seq)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulated cycle the event fires at.
    pub time: Cycles,
    /// Tie-break between same-time events (scheduler: actor binding slot).
    pub lane: u32,
    /// Insertion counter — unique per queue, makes the order total.
    pub seq: u64,
}

struct Entry<T> {
    key: EventKey,
    payload: T,
}

// The heap compares keys only; `seq` uniqueness makes the order total, so
// payloads never influence (or tie) the comparison.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest key.
        other.key.cmp(&self.key)
    }
}

/// A deterministic min-priority queue of timed events.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time` on `lane`; returns the full key
    /// (including the assigned sequence number).
    pub fn push(&mut self, time: Cycles, lane: u32, payload: T) -> EventKey {
        let key = EventKey {
            time,
            lane,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Entry { key, payload });
        key
    }

    /// Removes and returns the earliest event by `(time, lane, seq)`.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        self.heap.pop().map(|e| (e.key, e.payload))
    }

    /// The key of the earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.key)
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_rng::prop::{check, PropConfig};

    #[test]
    fn pops_in_time_then_lane_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(30), 0, "c");
        q.push(Cycles::new(10), 1, "b");
        q.push(Cycles::new(10), 0, "a");
        q.push(Cycles::new(30), 0, "d"); // same (time, lane) as "c": seq order
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(5), 2, ());
        q.push(Cycles::new(5), 1, ());
        let peeked = q.peek().unwrap();
        let (popped, ()) = q.pop().unwrap();
        assert_eq!(peeked, popped);
        assert_eq!(popped.lane, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        assert!(q.pop().is_none());
    }

    /// No event is lost or double-fired: whatever multiset of events goes
    /// in comes out exactly once.
    #[test]
    fn prop_conservation() {
        check("event queue conserves events", &PropConfig::from_env(64), |rng| {
            let mut q = EventQueue::new();
            let n = rng.random_range(0usize..64);
            let mut pushed = Vec::new();
            for i in 0..n {
                let t = Cycles::new(rng.random_range(0u64..1_000));
                let lane = rng.random_range(0u32..4);
                q.push(t, lane, i);
                pushed.push((t, lane, i));
            }
            assert_eq!(q.len(), n);
            let mut popped: Vec<(Cycles, u32, usize)> = std::iter::from_fn(|| q.pop())
                .map(|(k, p)| (k.time, k.lane, p))
                .collect();
            assert!(q.is_empty() && q.pop().is_none());
            popped.sort_unstable();
            pushed.sort_unstable();
            assert_eq!(popped, pushed, "multiset in != multiset out");
        });
    }

    /// Pops come out sorted by the full `(time, lane, seq)` key — time
    /// never moves backward, ties resolve by lane then insertion order —
    /// regardless of push order.
    #[test]
    fn prop_total_order() {
        check("event queue pop order is (time, lane, seq)", &PropConfig::from_env(64), |rng| {
            let mut q = EventQueue::new();
            for _ in 0..rng.random_range(1usize..64) {
                // Few distinct times/lanes on purpose: force tie-breaks.
                let t = Cycles::new(rng.random_range(0u64..8));
                q.push(t, rng.random_range(0u32..3), ());
            }
            let keys: Vec<EventKey> = std::iter::from_fn(|| q.pop()).map(|(k, ())| k).collect();
            for w in keys.windows(2) {
                assert!(
                    (w[0].time, w[0].lane, w[0].seq) < (w[1].time, w[1].lane, w[1].seq),
                    "out of order: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        });
    }

    /// Interleaved operation, the way the scheduler uses it: pushes never
    /// schedule before the last popped time (clocks are monotone), and in
    /// return popped times never move backward — even with re-queues.
    #[test]
    fn prop_monotone_under_interleaving() {
        check("event queue time is monotone", &PropConfig::from_env(64), |rng| {
            let mut q = EventQueue::new();
            let mut watermark = Cycles::ZERO;
            q.push(Cycles::ZERO, 0, ());
            for _ in 0..200 {
                if !q.is_empty() && rng.random_range(0u32..3) == 0 {
                    let (k, ()) = q.pop().unwrap();
                    assert!(
                        k.time >= watermark,
                        "popped {:?} before watermark {watermark}",
                        k
                    );
                    watermark = k.time;
                } else {
                    let t = watermark + Cycles::new(rng.random_range(0u64..50));
                    q.push(t, rng.random_range(0u32..4), ());
                }
            }
        });
    }
}
