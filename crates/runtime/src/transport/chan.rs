//! The in-process channel fabric: each node holds a crossbeam inbox and a
//! handle on the cluster's shared [`ChanNet`].
//!
//! Delivery happens on the sending thread. [`ChanNet::send`] runs the wire
//! hook, submits the message to the cluster's [`FaultQueue`] and, still
//! under the queue's lock, moves every delivery that is already due into
//! its destination inbox in `(due, seq)` order. Deliveries that fall due
//! later wait in the queue for the timer thread ([`ChanNet::run_timer`]),
//! which sleeps until the earliest of them. A send wakes the timer only
//! when it creates an earlier due time than the one the timer sleeps
//! towards, so with zero delay and no faults the timer never wakes.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use rcv_simnet::NodeId;

use super::netq::FaultQueue;
use super::{RecvOutcome, Transport, TransportClosed};
use crate::cluster::{WireFaults, WireHook};
use crate::watchdog::StatusCell;

/// What a node finds in its inbox.
pub(crate) enum Packet<M> {
    Msg { from: NodeId, msg: M },
    Shutdown,
}

/// The fabric shared by every node of one in-process cluster: the fault
/// queue, the inboxes it delivers into, and the timer's wake-up signal.
pub(crate) struct ChanNet<M> {
    state: Mutex<NetState<M>>,
    /// Signals the timer thread: an earlier due time, or the last
    /// transport closed.
    wake: Condvar,
    hook: Option<WireHook<M>>,
}

struct NetState<M> {
    q: FaultQueue<M>,
    inboxes: Vec<Sender<Packet<M>>>,
    /// The due time the timer thread sleeps towards (`None`: it sleeps
    /// until a send or a close wakes it).
    timer_at: Option<Instant>,
    /// Transports not yet dropped; the timer drains the queue and exits
    /// once this reaches zero.
    open: usize,
}

impl<M> ChanNet<M> {
    /// The state lock. A panic under it leaves the queue consistent (no
    /// code under the lock runs protocol logic), so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, NetState<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<M: Clone> NetState<M> {
    /// Delivers every queued message due at `now`, in `(due, seq)` order.
    fn deliver_due(&mut self, now: Instant) {
        while let Some((from, to, msg)) = self.q.pop_due(now) {
            // A closed inbox just means that node already shut down.
            let _ = self.inboxes[to].send(Packet::Msg {
                from: NodeId::new(from as u32),
                msg,
            });
        }
    }
}

impl<M: Clone> ChanNet<M> {
    pub(crate) fn new(
        inboxes: Vec<Sender<Packet<M>>>,
        hook: Option<WireHook<M>>,
        faults: WireFaults,
        crash_win: Option<(usize, Instant, Instant)>,
    ) -> Arc<Self> {
        Arc::new(ChanNet {
            state: Mutex::new(NetState {
                q: FaultQueue::new(faults, crash_win),
                inboxes,
                timer_at: None,
                open: 0,
            }),
            wake: Condvar::new(),
            hook,
        })
    }

    /// Hook, fault queue, then every delivery already due; wakes the timer
    /// if the queue now holds an earlier due time than it sleeps towards.
    fn send(&self, from: NodeId, to: NodeId, msg: M, delay: Duration) {
        let msg = match &self.hook {
            Some(h) => h(msg),
            None => msg,
        };
        let mut s = self.lock();
        let now = Instant::now();
        s.q.submit(from.index(), to.index(), delay, msg, now);
        s.deliver_due(now);
        if let Some(due) = s.q.next_due() {
            if s.timer_at.is_none_or(|at| due < at) {
                s.timer_at = Some(due);
                self.wake.notify_one();
            }
        }
    }

    /// The timer thread's loop: delivers queued messages as they fall due
    /// and, once every transport is closed, drains the queue. Returns
    /// `(lost, duplicated, crash_dropped)`.
    pub(crate) fn run_timer(&self, status: &StatusCell) -> (u64, u64, u64) {
        let mut s = self.lock();
        let mut reported = 0;
        loop {
            status.bump();
            s.deliver_due(Instant::now());
            if s.open == 0 && s.q.is_empty() {
                return (s.q.lost, s.q.duplicated, s.q.crash_dropped);
            }
            // Periodic status only: StatusCell records transitions, not
            // events (progress shows through bump()).
            if s.q.seen() / 1024 != reported {
                reported = s.q.seen() / 1024;
                status.set(format!(
                    "in-flight {} (seen {})",
                    s.q.in_flight(),
                    s.q.seen()
                ));
            }
            s.timer_at = s.q.next_due();
            s = match s.timer_at {
                Some(due) => {
                    let sleep = due.saturating_duration_since(Instant::now());
                    self.wake
                        .wait_timeout(s, sleep)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.wake.wait(s).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// The channel-backed [`Transport`]: one node's inbox plus its handle on
/// the cluster's shared fault queue.
pub struct ChanTransport<M> {
    me: NodeId,
    net: Arc<ChanNet<M>>,
    rx: Receiver<Packet<M>>,
    done_tx: Sender<NodeId>,
}

impl<M> ChanTransport<M> {
    pub(crate) fn new(
        me: NodeId,
        net: Arc<ChanNet<M>>,
        rx: Receiver<Packet<M>>,
        done_tx: Sender<NodeId>,
    ) -> Self {
        net.lock().open += 1;
        ChanTransport {
            me,
            net,
            rx,
            done_tx,
        }
    }
}

impl<M> Drop for ChanTransport<M> {
    fn drop(&mut self) {
        let mut s = self.net.lock();
        s.open -= 1;
        if s.open == 0 {
            self.net.wake.notify_one();
        }
    }
}

impl<M: Clone + Send> Transport<M> for ChanTransport<M> {
    fn send(&mut self, to: NodeId, msg: M, delay: Duration) -> Result<(), TransportClosed> {
        self.net.send(self.me, to, msg, delay);
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome<M> {
        match self.rx.recv_timeout(timeout) {
            Ok(Packet::Msg { from, msg }) => RecvOutcome::Msg { from, msg },
            Ok(Packet::Shutdown) => RecvOutcome::Shutdown,
            Err(RecvTimeoutError::Timeout) => RecvOutcome::Timeout,
            // All senders gone means the cluster is tearing down.
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Shutdown,
        }
    }

    fn notify_done(&mut self) {
        let _ = self.done_tx.send(self.me);
    }
}

#[cfg(test)]
mod tests {
    use std::thread::JoinHandle;

    use crossbeam::channel::unbounded;

    use super::*;
    use crate::watchdog::run_with_watchdog;

    type Counters = (u64, u64, u64);

    /// A fault-free fabric of `n` nodes and its running timer thread.
    fn fabric(n: usize) -> (Vec<ChanTransport<u32>>, JoinHandle<Counters>) {
        let (inboxes, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let net = ChanNet::new(inboxes, None, WireFaults::none(), None);
        let (done_tx, _) = unbounded();
        let transports = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                ChanTransport::new(NodeId::new(i as u32), Arc::clone(&net), rx, done_tx.clone())
            })
            .collect();
        let timer = std::thread::spawn(move || net.run_timer(&StatusCell::register("rcv-net")));
        (transports, timer)
    }

    fn expect_msg(outcome: RecvOutcome<u32>) -> (NodeId, u32) {
        match outcome {
            RecvOutcome::Msg { from, msg } => (from, msg),
            other => panic!("expected a message, got {other:?}"),
        }
    }

    #[test]
    fn an_earlier_due_time_wakes_the_sleeping_timer() {
        run_with_watchdog("chan-timer-wakeup", Duration::from_secs(10), || {
            let (mut t, timer) = fabric(2);
            let b = NodeId::new(1);
            t[0].send(b, 1, Duration::from_millis(300)).unwrap();
            // Let the timer go to sleep towards the 300 ms delivery.
            std::thread::sleep(Duration::from_millis(20));
            let sent = Instant::now();
            t[0].send(b, 2, Duration::from_millis(5)).unwrap();
            assert_eq!(expect_msg(t[1].recv(Duration::from_secs(2))).1, 2);
            let took = sent.elapsed();
            assert!(took < Duration::from_millis(100), "arrived after {took:?}");
            assert_eq!(expect_msg(t[1].recv(Duration::from_secs(2))).1, 1);
            drop(t);
            assert_eq!(timer.join().unwrap(), (0, 0, 0));
        });
    }

    #[test]
    fn one_link_keeps_send_order_and_due_messages_arrive_before_send_returns() {
        run_with_watchdog("chan-link-order", Duration::from_secs(20), || {
            for delay in [Duration::ZERO, Duration::from_millis(2)] {
                let (mut t, timer) = fabric(2);
                let (a, b) = (NodeId::new(0), NodeId::new(1));
                for i in 0..200u32 {
                    t[0].send(b, i, delay).unwrap();
                    if delay.is_zero() {
                        // Delivered by the sending thread, not the timer.
                        match t[1].rx.try_recv() {
                            Ok(Packet::Msg { from, msg }) => assert_eq!((from, msg), (a, i)),
                            _ => panic!("message {i} not in the inbox when send returned"),
                        }
                    } else if i % 20 == 19 {
                        // Split the deliveries between the timer and later
                        // sends.
                        std::thread::sleep(Duration::from_micros(700));
                    }
                }
                if !delay.is_zero() {
                    for i in 0..200u32 {
                        assert_eq!(expect_msg(t[1].recv(Duration::from_secs(2))), (a, i));
                    }
                }
                drop(t);
                assert_eq!(timer.join().unwrap(), (0, 0, 0));
            }
        });
    }
}
