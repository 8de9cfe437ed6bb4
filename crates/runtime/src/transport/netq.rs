//! The fault-injecting delay queue shared by both fabrics.
//!
//! The in-process channel fabric and the multi-process orchestrator hub
//! schedule deliveries through the same [`FaultQueue`], so loss,
//! duplication, straggler stretching and crash-window black-holing behave
//! identically whether a message rides a crossbeam channel or a socket.
//! The payload type is generic: the channel fabric queues typed protocol
//! messages, the hub queues already-encoded frames.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::cluster::WireFaults;

/// Heap entry ordered by due time then insertion sequence.
struct Pending<T> {
    due: Instant,
    seq: u64,
    from: usize,
    to: usize,
    payload: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Delay heap + wire-fault application, fabric-agnostic.
pub(crate) struct FaultQueue<T> {
    heap: BinaryHeap<Reverse<Pending<T>>>,
    faults: WireFaults,
    /// `(node, down, up)`: deliveries due inside the window reach a dead
    /// process and are black-holed.
    crash_win: Option<(usize, Instant, Instant)>,
    /// Messages submitted so far (the fault periods key off this).
    seen: u64,
    seq: u64,
    /// Messages dropped by loss injection.
    pub(crate) lost: u64,
    /// Extra copies queued by duplication injection.
    pub(crate) duplicated: u64,
    /// Deliveries black-holed by the crash window.
    pub(crate) crash_dropped: u64,
}

impl<T: Clone> FaultQueue<T> {
    pub(crate) fn new(faults: WireFaults, crash_win: Option<(usize, Instant, Instant)>) -> Self {
        FaultQueue {
            heap: BinaryHeap::new(),
            faults,
            crash_win,
            seen: 0,
            seq: 0,
            lost: 0,
            duplicated: 0,
            crash_dropped: 0,
        }
    }

    /// Submits one message to the fabric at `now`: applies straggler
    /// stretching, then loss, then duplication (the fabrics' historical
    /// order), and schedules the surviving deliveries.
    pub(crate) fn submit(
        &mut self,
        from: usize,
        to: usize,
        mut delay: Duration,
        payload: T,
        now: Instant,
    ) {
        self.seen += 1;
        if let Some((node, factor)) = self.faults.straggler {
            let node = node as usize;
            if from == node || to == node {
                delay *= factor;
            }
        }
        if self
            .faults
            .loss_every
            .is_some_and(|k| self.seen.is_multiple_of(k))
        {
            self.lost += 1;
            return;
        }
        if self
            .faults
            .dup_every
            .is_some_and(|k| self.seen.is_multiple_of(k))
        {
            self.duplicated += 1;
            self.seq += 1;
            self.heap.push(Reverse(Pending {
                due: now + delay + delay,
                seq: self.seq,
                from,
                to,
                payload: payload.clone(),
            }));
        }
        self.seq += 1;
        self.heap.push(Reverse(Pending {
            due: now + delay,
            seq: self.seq,
            from,
            to,
            payload,
        }));
    }

    /// Pops the next due delivery, black-holing any whose receiver is
    /// inside its crash window. `None` when nothing is due at `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<(usize, usize, T)> {
        while self.heap.peek().is_some_and(|Reverse(p)| p.due <= now) {
            let Reverse(p) = self.heap.pop().expect("peeked");
            if let Some((node, down, up)) = self.crash_win {
                if p.to == node && p.due >= down && p.due < up {
                    self.crash_dropped += 1;
                    continue;
                }
            }
            return Some((p.from, p.to, p.payload));
        }
        None
    }

    /// When the earliest queued delivery is due.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse(p)| p.due)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_and_duplication_fire_on_their_periods() {
        let mut q: FaultQueue<u32> =
            FaultQueue::new(WireFaults::none().with_loss(3).with_duplication(2), None);
        for i in 0..6u32 {
            q.submit(0, 1, Duration::ZERO, i, Instant::now());
        }
        // seen 1..6: loss at 3 and 6 (2 lost); dup at 2 and 4 (6 is lost
        // before the dup check — the fabrics' historical order).
        assert_eq!(q.lost, 2);
        assert_eq!(q.duplicated, 2);
        assert_eq!(q.in_flight(), 6, "4 survivors + 2 duplicates");
        assert_eq!(q.seen(), 6);
    }

    #[test]
    fn crash_window_blackholes_only_the_dead_node() {
        let now = Instant::now();
        let mut q: FaultQueue<&'static str> = FaultQueue::new(
            WireFaults::none(),
            Some((
                1,
                now - Duration::from_secs(1),
                now + Duration::from_secs(60),
            )),
        );
        q.submit(0, 1, Duration::ZERO, "to-dead", now);
        q.submit(0, 2, Duration::ZERO, "to-live", now);
        let later = Instant::now() + Duration::from_millis(1);
        let mut delivered = Vec::new();
        while let Some((_, to, p)) = q.pop_due(later) {
            delivered.push((to, p));
        }
        assert_eq!(delivered, vec![(2, "to-live")]);
        assert_eq!(q.crash_dropped, 1);
    }

    #[test]
    fn straggler_stretches_due_times() {
        let mut q: FaultQueue<u8> =
            FaultQueue::new(WireFaults::none().with_straggler(0, 100), None);
        q.submit(0, 1, Duration::from_millis(10), 1, Instant::now()); // from the straggler: 1s
        q.submit(1, 2, Duration::from_millis(10), 2, Instant::now()); // unaffected: 10ms
        let soon = Instant::now() + Duration::from_millis(500);
        let mut got = Vec::new();
        while let Some((_, _, p)) = q.pop_due(soon) {
            got.push(p);
        }
        assert_eq!(got, vec![2], "only the unstretched message is due");
        assert!(q.next_due().is_some());
        assert!(!q.is_empty());
    }
}
