//! The thread-per-node cluster: runs any [`MutexProtocol`] over real OS
//! threads and crossbeam channels, with an impairment layer that injects
//! random per-message delays (and therefore reordering — the channels stop
//! being FIFO, exactly the property the RCV algorithm claims not to need)
//! and, optionally, wire-level faults mirroring the simulator's
//! `FaultPlan`: message loss, duplicated delivery and per-endpoint
//! straggler slowdowns.
//!
//! Every message takes one path. The sending node thread runs the wire
//! hook and submits the message to the cluster's shared fault queue,
//! which applies the faults and schedules the surviving deliveries. Still
//! under the queue's lock, the sender moves every delivery that is
//! already due into its destination inbox. A delivery due later waits in
//! the queue until the timer thread, which sleeps until the earliest due
//! time, delivers it. With no delay and no faults a message is in its
//! destination inbox when `send` returns, and the timer never wakes.
//!
//! Topology:
//!
//! ```text
//! node thread 0 ─┐                                     ┌─▶ node inbox 0
//! node thread 1 ─┼─▶ hook ─▶ fault queue ─▶ due now ───┼─▶ node inbox 1
//!      ...       │          (delay heap,               └─▶ ...
//! node thread N ─┘           loss/dup/straggler,           ▲
//!                            crash window)                 │
//!                                 └─▶ due later ─▶ timer thread
//! ```
//!
//! Each node thread owns its protocol state machine, issues its workload's
//! requests, executes the CS by *sleeping* for `cs_duration` (registering
//! entry/exit with the shared [`CsChecker`]), and keeps serving protocol
//! messages between and after its own requests until the whole cluster is
//! done. Every cluster thread registers a [`crate::watchdog::StatusCell`],
//! so a deadlocked run can be post-mortemed with
//! [`crate::watchdog::thread_dump`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcv_simnet::{MutexProtocol, NodeId};

use crate::checker::CsChecker;
use crate::node::{NodeDriver, NodeOutcome, NodeParams};
use crate::transport::chan::{ChanNet, ChanTransport, Packet};
use crate::watchdog::StatusCell;

/// Per-message network impairment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetDelay {
    /// Deliver as fast as the channels go (still asynchronous).
    None,
    /// Uniformly random delay in `[min, max]` — reorders messages.
    Uniform {
        /// Minimum injected delay.
        min: Duration,
        /// Maximum injected delay.
        max: Duration,
    },
    /// Exponential delay with the given mean, capped — heavy-tailed,
    /// aggressive reordering (the runtime mirror of the simulator's
    /// `DelayModel::Exponential`).
    Exponential {
        /// Mean of the exponential distribution.
        mean: Duration,
        /// Hard cap on a single sample.
        cap: Duration,
    },
}

impl NetDelay {
    pub(crate) fn sample(&self, rng: &mut SmallRng) -> Duration {
        match *self {
            NetDelay::None => Duration::ZERO,
            NetDelay::Uniform { min, max } => {
                let span = max.saturating_sub(min);
                min + span.mul_f64(rng.gen::<f64>())
            }
            NetDelay::Exponential { mean, cap } => {
                // Inverse-CDF sampling; `1 - u` is in (0, 1], so the log is
                // finite or the cap applies.
                let u: f64 = rng.gen();
                let d = -mean.as_secs_f64() * (1.0 - u).ln();
                Duration::from_secs_f64(d.min(cap.as_secs_f64()))
            }
        }
    }
}

/// Wire-level fault injection, applied by the cluster's fault queue as
/// each message is sent — the real-concurrency mirror of `rcv_simnet::FaultPlan` (minus *permanent*
/// crash-stop, which has no faithful analogue while every node thread
/// must join; bounded crash **windows** do map — see
/// [`WireFaults::with_crash_restart`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireFaults {
    /// Every `k`-th message submitted to the fabric is dropped.
    pub loss_every: Option<u64>,
    /// Every `k`-th delivered message is delivered twice (the duplicate
    /// arrives later, after an extra delay).
    pub dup_every: Option<u64>,
    /// `(node index, factor)`: messages to or from this node take
    /// `factor ×` the sampled delay — a slow node, FIFO-breaking even
    /// under otherwise constant delays.
    pub straggler: Option<(u32, u32)>,
    /// `(node index, down_ticks, up_ticks)`: a bounded outage measured
    /// from cluster start on the [`ClusterSpec::tick`] scale. During the
    /// window the fabric black-holes every delivery due to the node (counted
    /// in [`ClusterReport::crash_dropped`], separately from loss), the
    /// node thread freezes — aborting a held CS, which evicts it from the
    /// checker — and at the window's end the thread re-runs the protocol's
    /// [`rcv_simnet::MutexProtocol::on_restart`] hook and rejoins.
    pub crash_restart: Option<(u32, u64, u64)>,
}

impl WireFaults {
    /// No faults — the paper's reliable model.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds message loss with period `every` (must be ≥ 1).
    pub fn with_loss(mut self, every: u64) -> Self {
        assert!(every >= 1, "loss period must be >= 1");
        self.loss_every = Some(every);
        self
    }

    /// Adds duplicated delivery with period `every` (must be ≥ 1).
    pub fn with_duplication(mut self, every: u64) -> Self {
        assert!(every >= 1, "duplication period must be >= 1");
        self.dup_every = Some(every);
        self
    }

    /// Makes `node`'s links `factor ×` slower (factor must be ≥ 1).
    pub fn with_straggler(mut self, node: u32, factor: u32) -> Self {
        assert!(factor >= 1, "straggler factor must be >= 1");
        self.straggler = Some((node, factor));
        self
    }

    /// Crashes `node` at `down_ticks` from cluster start and restarts it
    /// at `up_ticks` (both on the spec's tick scale; `down < up`).
    pub fn with_crash_restart(mut self, node: u32, down_ticks: u64, up_ticks: u64) -> Self {
        assert!(
            down_ticks < up_ticks,
            "crash window must end after it starts"
        );
        self.crash_restart = Some((node, down_ticks, up_ticks));
        self
    }

    /// Whether messages can vanish — the one regime that voids the
    /// liveness guarantee of every retransmission-free algorithm.
    pub fn lossy(&self) -> bool {
        self.loss_every.is_some()
    }
}

/// Optional hook applied to every message on the wire (e.g. the codec
/// round-trip installed by [`crate::with_codec_verification`]).
pub type WireHook<M> = Arc<dyn Fn(M) -> M + Send + Sync>;

/// Cluster parameters.
///
/// Construct with [`ClusterSpec::quick`] and refine through the fluent
/// builders (`.rounds(..)`, `.faults(..)`, `.tick(..)`, ...). The fields
/// stay `pub` so generic glue can *read* them, but mutating them
/// directly is a deprecated idiom — new call sites should chain the
/// builders.
#[derive(Clone)]
pub struct ClusterSpec<M> {
    /// Number of nodes (threads).
    pub n: usize,
    /// CS requests each node performs.
    pub rounds: u32,
    /// Pause between a node's CS completion and its next request.
    pub think: Duration,
    /// How long the CS is held.
    pub cs_duration: Duration,
    /// Network impairment.
    pub delay: NetDelay,
    /// Wire-level fault injection (loss, duplication, stragglers).
    pub faults: WireFaults,
    /// Wall-clock length of one simulator tick: protocol timers armed via
    /// `Ctx::set_timer` and the `Ctx::now()` clock both use this scale, so
    /// tick-denominated protocol logic keeps its proportions when delays
    /// are scaled up to thread-schedulable magnitudes.
    pub tick: Duration,
    /// Seed for all per-node RNG streams.
    pub seed: u64,
    /// Abort the run (reporting `timed_out`) after this long.
    pub timeout: Duration,
    /// Optional on-wire transformation (codec verification, tampering).
    pub wire_hook: Option<WireHook<M>>,
}

impl<M> ClusterSpec<M> {
    /// A small default: `n` nodes, one request each, jittered delivery.
    /// Customize with the fluent builder methods:
    ///
    /// ```
    /// # use rcv_runtime::{ClusterSpec, WireFaults};
    /// # use std::time::Duration;
    /// let spec: ClusterSpec<rcv_core::RcvMessage> = ClusterSpec::quick(4, 7)
    ///     .rounds(3)
    ///     .faults(WireFaults::none().with_duplication(2))
    ///     .tick(Duration::from_micros(200));
    /// ```
    pub fn quick(n: usize, seed: u64) -> Self {
        ClusterSpec {
            n,
            rounds: 1,
            think: Duration::from_millis(1),
            cs_duration: Duration::from_millis(2),
            delay: NetDelay::Uniform {
                min: Duration::from_micros(50),
                max: Duration::from_millis(2),
            },
            faults: WireFaults::none(),
            tick: Duration::from_micros(1),
            seed,
            timeout: Duration::from_secs(30),
            wire_hook: None,
        }
    }

    // Fluent builders — prefer these over direct field pokes (the fields
    // stay `pub` for struct-literal construction and reads, but mutation
    // idiom in specs and tests is `ClusterSpec::quick(n, s).faults(...)`).

    /// Sets the number of CS requests per node.
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the pause between a node's CS completion and its next request.
    pub fn think(mut self, think: Duration) -> Self {
        self.think = think;
        self
    }

    /// Sets how long each CS is held.
    pub fn cs_duration(mut self, cs: Duration) -> Self {
        self.cs_duration = cs;
        self
    }

    /// Sets the per-message delay model.
    pub fn delay(mut self, delay: NetDelay) -> Self {
        self.delay = delay;
        self
    }

    /// Sets wire-level fault injection.
    pub fn faults(mut self, faults: WireFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the wall-clock length of one simulator tick.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the soft run timeout (the run reports `timed_out` past it).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Installs an on-wire message hook (codec verification, tampering).
    pub fn wire_hook(mut self, hook: WireHook<M>) -> Self {
        self.wire_hook = Some(hook);
        self
    }
}

/// What the cluster observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterReport {
    /// CS executions completed across all nodes.
    pub completed: u64,
    /// CS entries seen by the checker (should equal `completed`).
    pub cs_entries: u64,
    /// Mutual exclusion violations (0 ⇔ safe).
    pub violations: u64,
    /// Messages the nodes sent.
    pub messages: u64,
    /// Messages dropped by wire-level loss injection.
    pub lost: u64,
    /// Extra copies delivered by wire-level duplication injection.
    pub duplicated: u64,
    /// Deliveries black-holed because the receiver was inside its crash
    /// window (counted separately from `lost`: loss is a network fault,
    /// this is a dead process).
    pub crash_dropped: u64,
    /// Node restarts performed (0 or 1 per run with the current
    /// single-window [`WireFaults::crash_restart`]).
    pub restarts: u64,
    /// True if the run hit the timeout before all rounds completed.
    pub timed_out: bool,
}

impl ClusterReport {
    /// Whether the run was safe and fully live.
    pub fn is_clean(&self, expected: u64) -> bool {
        !self.timed_out && self.violations == 0 && self.completed == expected
    }
}

/// Runs a cluster of `spec.n` protocol nodes to completion.
pub fn run_cluster<P>(
    spec: ClusterSpec<P::Message>,
    make_node: impl FnMut(NodeId, usize) -> P,
) -> ClusterReport
where
    P: MutexProtocol + Send + 'static,
{
    run_cluster_collecting(spec, make_node).0
}

/// Like [`run_cluster`], but also hands back every node's final protocol
/// state (in node-id order) — the runtime analogue of the simulator's
/// `Engine::run_collecting`, used e.g. to read RCV's internal anomaly
/// counters after a real-thread run.
pub fn run_cluster_collecting<P>(
    spec: ClusterSpec<P::Message>,
    mut make_node: impl FnMut(NodeId, usize) -> P,
) -> (ClusterReport, Vec<P>)
where
    P: MutexProtocol + Send + 'static,
{
    assert!(spec.n >= 1);
    let n = spec.n;
    let checker = Arc::new(CsChecker::new());

    // Inboxes.
    let mut inbox_tx = Vec::with_capacity(n);
    let mut inbox_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Packet<P::Message>>();
        inbox_tx.push(tx);
        inbox_rx.push(rx);
    }

    // The crash window in wall-clock terms. `start` anchors the node
    // threads' tick clocks AND the window, so tick-denominated protocol
    // timers and the outage share one time base.
    let start = Instant::now();
    let tickify = |ticks: u64| spec.tick.saturating_mul(ticks.min(u32::MAX as u64) as u32);
    let crash_win = spec
        .faults
        .crash_restart
        .map(|(node, down, up)| (node as usize, start + tickify(down), start + tickify(up)));

    // The shared fabric: senders deliver what is due themselves; the
    // timer thread delivers the rest as it falls due. It exits once no
    // transport is open, so it is spawned after all of them exist.
    let net = ChanNet::new(
        inbox_tx.clone(),
        spec.wire_hook.clone(),
        spec.faults,
        crash_win,
    );

    // Done notifications.
    let (done_tx, done_rx) = unbounded::<NodeId>();

    // Node threads: each runs the transport-generic driver over the
    // channel fabric.
    let mut seeder = SmallRng::seed_from_u64(spec.seed);
    let mut handles = Vec::with_capacity(n);
    for (idx, rx) in inbox_rx.into_iter().enumerate() {
        let me = NodeId::new(idx as u32);
        let proto = make_node(me, n);
        let rng = SmallRng::seed_from_u64(seeder.gen());
        let transport = ChanTransport::new(me, Arc::clone(&net), rx, done_tx.clone());
        let params = NodeParams {
            rounds: spec.rounds,
            think: spec.think,
            cs_duration: spec.cs_duration,
            delay: spec.delay,
            tick: spec.tick,
            start,
            crash: crash_win
                .filter(|&(node, _, _)| node == idx)
                .map(|(_, down, up)| (down, up)),
        };
        let driver = NodeDriver::new(
            me,
            proto,
            transport,
            Arc::clone(&checker),
            rng,
            params,
            StatusCell::register(format!("rcv-node-{idx}")),
        );
        handles.push(
            std::thread::Builder::new()
                .name(format!("rcv-node-{idx}"))
                .spawn(move || {
                    let (proto, _transport, outcome) = driver.run();
                    (proto, outcome)
                })
                .expect("spawn node thread"),
        );
    }
    drop(done_tx);
    let timer_handle = std::thread::Builder::new()
        .name("rcv-net".into())
        .spawn(move || net.run_timer(&StatusCell::register("rcv-net")))
        .expect("spawn timer thread");

    // Wait for every node to finish its rounds (or time out).
    let deadline = Instant::now() + spec.timeout;
    let mut finished = 0usize;
    let mut timed_out = false;
    while finished < n {
        let now = Instant::now();
        if now >= deadline {
            timed_out = true;
            break;
        }
        match done_rx.recv_timeout(deadline - now) {
            Ok(_) => finished += 1,
            Err(RecvTimeoutError::Timeout) => {
                timed_out = true;
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Tear down: stop node threads, then the timer drains and exits.
    // Node panics (protocol bugs, codec failures) must surface, not be
    // swallowed into a mystery timeout.
    for tx in &inbox_tx {
        let _ = tx.send(Packet::Shutdown);
    }
    let mut nodes = Vec::with_capacity(n);
    let mut totals = NodeOutcome::default();
    for h in handles {
        match h.join() {
            Ok((proto, out)) => {
                nodes.push(proto);
                totals.completed += out.completed;
                totals.messages += out.messages;
                totals.crash_dropped += out.crash_dropped;
                totals.restarts += out.restarts;
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    let (lost, duplicated, net_crash_dropped) = match timer_handle.join() {
        Ok(counters) => counters,
        Err(panic) => std::panic::resume_unwind(panic),
    };

    let report = ClusterReport {
        completed: totals.completed,
        cs_entries: checker.entries(),
        violations: checker.violations(),
        messages: totals.messages,
        lost,
        duplicated,
        // The fabric black-holes in-window deliveries; the node-side
        // inbox drain at the crash instant adds the already-delivered ones.
        crash_dropped: net_crash_dropped + totals.crash_dropped,
        restarts: totals.restarts,
        timed_out,
    };
    (report, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_delay_samples_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        let d = NetDelay::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_micros(900),
        };
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            assert!(s >= Duration::from_micros(100) && s <= Duration::from_micros(900));
        }
        let e = NetDelay::Exponential {
            mean: Duration::from_micros(200),
            cap: Duration::from_millis(2),
        };
        for _ in 0..200 {
            assert!(e.sample(&mut rng) <= Duration::from_millis(2));
        }
        assert_eq!(NetDelay::None.sample(&mut rng), Duration::ZERO);
    }

    #[test]
    fn wire_faults_builder_composes() {
        let f = WireFaults::none()
            .with_loss(17)
            .with_duplication(5)
            .with_straggler(2, 8);
        assert_eq!(f.loss_every, Some(17));
        assert_eq!(f.dup_every, Some(5));
        assert_eq!(f.straggler, Some((2, 8)));
        assert!(f.lossy());
        assert!(!WireFaults::none().with_duplication(3).lossy());
    }

    #[test]
    #[should_panic(expected = "loss period")]
    fn zero_loss_period_is_rejected() {
        let _ = WireFaults::none().with_loss(0);
    }
}
