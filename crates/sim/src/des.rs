//! A small discrete-event simulation engine.
//!
//! Deterministic: events at equal timestamps fire in insertion order
//! (stable sequence numbers break ties), and no wall-clock or OS state is
//! consulted. The workloads that need only closed-form time accounting
//! (wget, kernel build) do not use it; the engine serves event-driven
//! experiments such as the restart-stagger study and ad-hoc exploration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled in the engine, ordered by `(time, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled<E> {
    at_ns: u64,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ns, self.seq).cmp(&(other.at_ns, other.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue and clock.
///
/// # Examples
///
/// ```
/// use xoar_sim::des::Engine;
///
/// let mut eng: Engine<&str> = Engine::new();
/// eng.schedule(50, "second");
/// eng.schedule(10, "first");
/// assert_eq!(eng.next(), Some((10, "first")));
/// assert_eq!(eng.now_ns(), 10);
/// assert_eq!(eng.next(), Some((50, "second")));
/// assert_eq!(eng.next(), None);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    now_ns: u64,
    next_seq: u64,
    processed: u64,
}

impl<E: Eq> Engine<E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            now_ns: 0,
            next_seq: 0,
            processed: 0,
        }
    }

    /// Current simulation time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Schedules `event` at absolute time `at_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `at_ns` is in the past — scheduling backwards would
    /// violate causality.
    pub fn schedule(&mut self, at_ns: u64, event: E) {
        assert!(at_ns >= self.now_ns, "event scheduled in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Scheduled { at_ns, seq, event }));
    }

    /// Schedules `event` `delay_ns` from now.
    pub fn schedule_in(&mut self, delay_ns: u64, event: E) {
        self.schedule(self.now_ns + delay_ns, event);
    }

    /// Pops *all* events sharing the earliest timestamp, in insertion
    /// (sequence) order, advancing the clock to that timestamp.
    ///
    /// This is the multi-runqueue interleaving primitive: vcpus running
    /// on different simulated pcpus within one scheduling tick all fire
    /// "simultaneously", and their within-tick order is the deterministic
    /// order their tick events were scheduled in — never heap internals
    /// or host state. Returns an empty vector when the queue is empty.
    pub fn next_tick(&mut self) -> Vec<(u64, E)> {
        let mut batch = Vec::new();
        let Some(Reverse(first)) = self.queue.pop() else {
            return batch;
        };
        let tick_ns = first.at_ns;
        self.now_ns = tick_ns;
        self.processed += 1;
        batch.push((first.at_ns, first.event));
        while let Some(Reverse(s)) = self.queue.peek() {
            if s.at_ns != tick_ns {
                break;
            }
            let Reverse(s) = self.queue.pop().expect("peeked");
            self.processed += 1;
            batch.push((s.at_ns, s.event));
        }
        batch
    }

    /// Events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

impl<E: Eq> Iterator for Engine<E> {
    type Item = (u64, E);

    /// Pops the next event, advancing the clock to its timestamp.
    fn next(&mut self) -> Option<(u64, E)> {
        let Reverse(s) = self.queue.pop()?;
        self.now_ns = s.at_ns;
        self.processed += 1;
        Some((s.at_ns, s.event))
    }
}

impl<E: Eq> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(30, 3);
        eng.schedule(10, 1);
        eng.schedule(20, 2);
        let order: Vec<u32> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule(100, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(5, 0);
        eng.schedule(5, 1);
        eng.schedule(7, 2);
        let mut last = 0;
        for (t, _) in eng.by_ref() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(eng.now_ns(), 7);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(10, "a");
        eng.next();
        eng.schedule_in(5, "b");
        assert_eq!(eng.next(), Some((15, "b")));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_backwards_panics() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(100, 0);
        eng.next();
        eng.schedule(50, 1);
    }

    #[test]
    fn next_tick_batches_simultaneous_events_in_seq_order() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(10, 1);
        eng.schedule(10, 2);
        eng.schedule(10, 3);
        eng.schedule(20, 4);
        let tick = eng.next_tick();
        assert_eq!(tick, vec![(10, 1), (10, 2), (10, 3)]);
        assert_eq!(eng.now_ns(), 10);
        assert_eq!(eng.next_tick(), vec![(20, 4)]);
        assert!(eng.next_tick().is_empty());
        assert_eq!(eng.processed(), 4);
    }

    #[test]
    fn next_tick_matches_repeated_next() {
        let mut a: Engine<u32> = Engine::new();
        let mut b: Engine<u32> = Engine::new();
        for (t, e) in [(5, 0), (5, 1), (9, 2), (9, 3), (9, 4), (12, 5)] {
            a.schedule(t, e);
            b.schedule(t, e);
        }
        let mut via_tick = Vec::new();
        loop {
            let batch = a.next_tick();
            if batch.is_empty() {
                break;
            }
            via_tick.extend(batch);
        }
        let via_next: Vec<(u64, u32)> = std::iter::from_fn(|| b.next()).collect();
        assert_eq!(via_tick, via_next);
    }

    #[test]
    fn self_scheduling_workload() {
        // A periodic process implemented through the engine.
        let mut eng: Engine<&str> = Engine::new();
        eng.schedule(0, "tick");
        let mut ticks = 0;
        while let Some((_, ev)) = eng.next() {
            if ev == "tick" && ticks < 5 {
                ticks += 1;
                eng.schedule_in(1_000, "tick");
            }
        }
        assert_eq!(ticks, 5);
        assert_eq!(eng.now_ns(), 5_000);
    }
}
