//! Event queue for discrete-event simulation.
//!
//! Events are ordered by `(time, insertion sequence)`. The sequence number
//! breaks ties deterministically: two events scheduled for the same instant
//! fire in the order they were scheduled, independent of the payload type.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event: payload `E` plus its firing time and tie-break sequence.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimTime, SimDuration};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_secs(1), "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1u32);
        q.schedule(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }
}
