//! Multi-process cluster orchestration: the "hub" that turns N worker
//! processes on localhost into one mutual-exclusion cluster.
//!
//! The hub binds a Unix-domain (default) or TCP loopback listener, hands
//! the address to a caller-supplied spawner, and then runs the cluster's
//! entire life cycle over the control-frame protocol of
//! [`crate::transport::frame`]:
//!
//! 1. **Handshake** — every worker opens a connection and sends `Hello`
//!    (magic, schema version, node index, protocol tag). The hub validates
//!    with [`validate_hello`]; any mismatch gets a `Reject` and fails the
//!    run before protocol traffic exists.
//! 2. **Start** — each accepted worker receives its [`WorkerConfig`]
//!    (workload, timing, seed, crash window, shared CS-log path).
//! 3. **Serve** — one blocking reader thread per worker socket decodes
//!    frames into a single channel. The serve loop has the in-process
//!    network thread's shape: deliver what is due, then block on that
//!    channel until a frame arrives or the next due delivery, the
//!    kill-drill instant or the deadline comes. `Send` frames go through
//!    the same `FaultQueue` (in `transport::netq`) the network thread
//!    uses, so loss/duplication/straggler/crash-window semantics are
//!    identical across backends. Deliveries are blocking writes whose
//!    timeout never reaches past the run deadline, so a worker that stops
//!    reading costs at most one socket buffer and ends the run in a
//!    verdict. Mutual exclusion is checked *post hoc* by replaying the
//!    shared append-only CS log ([`crate::replay_cs_log`]) — workers
//!    write entry/exit records from inside the CS, and the kernel's
//!    `O_APPEND` serialization makes interleaved records a faithful
//!    witness of real overlap.
//! 4. **Shutdown** — when every worker has announced `Done` the hub
//!    broadcasts `Shutdown`, collects per-node `Report` frames, kills
//!    stragglers at the watchdog deadline, and reaps every child. Every
//!    socket is then shut down and its reader thread joined, so no thread
//!    outlives the run.
//!
//! A worker that disappears (EOF) before reporting is a **crash verdict**:
//! the run is not clean even if the log shows no overlap.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcv_simnet::{MutexProtocol, NodeId, RetryPolicy};

use crate::checker::{replay_cs_log, CsLogProbe};
use crate::cluster::{ClusterReport, NetDelay, WireFaults};
use crate::node::{NodeDriver, NodeParams};
use crate::transport::frame::{
    encode_frame, validate_hello, CtrlFrame, FrameBuf, WorkerConfig, WorkerReport,
};
use crate::transport::socket::{is_timeout, spawn_reader, Inbound, SocketStream};
use crate::transport::{SocketNet, SocketTransport};
use crate::watchdog::StatusCell;
use crate::wire::WireCodec;

/// Parameters for one multi-process cluster run (the process-backend
/// analogue of [`crate::ClusterSpec`]).
#[derive(Clone, Debug)]
pub struct ProcessSpec {
    /// Number of worker processes (= protocol nodes).
    pub n: usize,
    /// Algorithm tag every worker must claim in its `Hello` (e.g.
    /// `"rcv"`); also what each worker is told to run.
    pub protocol: String,
    /// CS requests per node.
    pub rounds: u32,
    /// Pause between a node's CS completion and its next request.
    pub think: Duration,
    /// How long each node holds the CS.
    pub cs_duration: Duration,
    /// Per-message network delay model.
    pub delay: NetDelay,
    /// Wire-level fault injection, applied hub-side at the socket
    /// boundary.
    pub faults: WireFaults,
    /// Wall-clock length of one simulator tick.
    pub tick: Duration,
    /// Master seed; per-node seeds derive from it exactly as the thread
    /// backend derives them.
    pub seed: u64,
    /// Watchdog deadline for the whole run; stragglers are killed.
    pub timeout: Duration,
    /// Socket family (Unix-domain by default, TCP loopback on request).
    pub net: SocketNet,
    /// Retransmission policy forwarded to workers (RCV only).
    pub retry: Option<RetryPolicy>,
    /// Fault-drill: kill worker `node`'s process this long after `Start`,
    /// to prove the hub returns a crash verdict instead of hanging. The
    /// hub does not end the run before the drill has fired.
    pub kill_worker: Option<(u32, Duration)>,
}

impl ProcessSpec {
    /// A small, fast spec with the same workload defaults as
    /// [`crate::ClusterSpec::quick`].
    pub fn quick(n: usize, seed: u64, protocol: &str) -> Self {
        ProcessSpec {
            n,
            protocol: protocol.to_string(),
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
            net: SocketNet::Uds,
            retry: None,
            kill_worker: None,
        }
    }

    /// Sets the rounds each node performs.
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the think time between rounds.
    pub fn think(mut self, think: Duration) -> Self {
        self.think = think;
        self
    }

    /// Sets the CS hold duration.
    pub fn cs_duration(mut self, cs: Duration) -> Self {
        self.cs_duration = cs;
        self
    }

    /// Sets the per-message delay model.
    pub fn delay(mut self, delay: NetDelay) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the wire-fault plan.
    pub fn faults(mut self, faults: WireFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the tick length.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the watchdog deadline.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Selects the socket family.
    pub fn net(mut self, net: SocketNet) -> Self {
        self.net = net;
        self
    }

    /// Sets the retransmission policy forwarded to workers.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Arms the kill-a-worker fault drill.
    pub fn kill_worker(mut self, node: u32, after: Duration) -> Self {
        self.kill_worker = Some((node, after));
        self
    }
}

/// What a multi-process run produced: the familiar [`ClusterReport`] plus
/// process-tier specifics (per-node reports, wire faults with node
/// attribution, crash verdicts).
#[derive(Clone, Debug)]
pub struct ProcessReport {
    /// Aggregate counters in the same shape as the thread backend.
    pub report: ClusterReport,
    /// Protocol-internal anomaly count summed over workers.
    pub anomalies: u64,
    /// Per-node final reports; `None` means the worker never reported.
    pub reports: Vec<Option<WorkerReport>>,
    /// Fatal wire errors reported by workers, with the reporting node.
    /// Each detail is a rendered [`crate::wire::WireError`], already
    /// protocol/variant-framed (e.g. `"RCV/Rm: truncated message"`).
    pub faults: Vec<(u32, String)>,
    /// Nodes whose process vanished before sending its report.
    pub crashed: Vec<u32>,
}

impl ProcessReport {
    /// Whether the run was safe, fully live, and free of crash verdicts
    /// and wire faults.
    pub fn is_clean(&self, expected: u64) -> bool {
        self.report.is_clean(expected)
            && self.crashed.is_empty()
            && self.faults.is_empty()
            && self.report.cs_entries == self.report.completed
    }
}

/// Monotonic discriminator so concurrent hubs in one process never share
/// socket paths or CS logs.
static HUB_SEQ: AtomicU64 = AtomicU64::new(0);

enum Listener {
    Uds(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(net: SocketNet, tag: u64) -> std::io::Result<(Listener, String)> {
        match net {
            SocketNet::Uds => {
                let path =
                    std::env::temp_dir().join(format!("rcv-hub-{}-{tag}.sock", std::process::id()));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                let addr = format!("uds:{}", path.display());
                Ok((Listener::Uds(l, path), addr))
            }
            SocketNet::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = format!("tcp:{}", l.local_addr()?);
                Ok((Listener::Tcp(l), addr))
            }
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Uds(l, _) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<SocketStream> {
        match self {
            Listener::Uds(l, _) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                SocketStream::Tcp(s)
            }),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connected worker as the hub sees it.
struct Slot {
    stream: SocketStream,
    done: bool,
    report: Option<WorkerReport>,
    /// The read side is drained (EOF or read error); nothing more will
    /// arrive from this worker.
    eof: bool,
    /// The write side is dead (EPIPE/reset). Kept separate from `eof`:
    /// a worker that received `Shutdown`, wrote its report and exited
    /// closes the socket, so late deliveries to it fail — but its report
    /// is still sitting in our receive buffer and must be read, not
    /// discarded as a crash.
    wedged: bool,
}

impl Slot {
    /// Writes one frame toward the worker. The write blocks while the
    /// worker's socket buffer is full, but not past the run deadline; a
    /// failed or timed-out write marks the worker wedged.
    fn send(&mut self, frame: &CtrlFrame, deadline: Instant) {
        if self.wedged || self.eof {
            return;
        }
        // The kernel times each write from its own start, so the timeout
        // is set afresh to whatever is left of the run.
        let left = deadline.saturating_duration_since(Instant::now());
        let sent = self
            .stream
            .set_write_timeout(Some(left.max(Duration::from_millis(1))))
            .and_then(|()| self.stream.write_all_bytes(encode_frame(frame).as_ref()));
        if sent.is_err() {
            self.wedged = true;
        }
    }
}

/// Shuts every worker socket down, which wakes its reader thread with
/// EOF, and joins the readers.
fn close(slots: &[Slot], readers: Vec<JoinHandle<()>>) {
    for slot in slots {
        slot.stream.shutdown();
    }
    for reader in readers {
        if let Err(panic) = reader.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

fn kill_children(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    for c in children.iter_mut() {
        let _ = c.wait();
    }
}

/// Reads blocking frames from a fresh connection until one decodes, with
/// a deadline. Used only during the handshake.
fn read_frame_blocking(
    stream: &mut SocketStream,
    fb: &mut FrameBuf,
    deadline: Instant,
) -> Result<CtrlFrame, String> {
    let mut buf = [0u8; 4096];
    loop {
        match fb.next_frame() {
            Ok(Some(f)) => return Ok(f),
            Ok(None) => {}
            Err(e) => return Err(e.to_string()),
        }
        let now = Instant::now();
        if now >= deadline {
            return Err("handshake deadline exceeded".into());
        }
        stream
            .set_read_timeout(Some(deadline - now))
            .map_err(|e| e.to_string())?;
        match stream.read_chunk(&mut buf) {
            Ok(0) => return Err("connection closed during handshake".into()),
            Ok(n) => fb.extend(&buf[..n]),
            Err(e) if is_timeout(&e) => return Err("handshake deadline exceeded".into()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Runs a multi-process cluster to completion.
///
/// `spawn` receives the cluster address (`"uds:<path>"` or
/// `"tcp:<ip>:<port>"`) and must start the worker processes, returning
/// them **in node order** (index `i` is node `i`, the process
/// [`ProcessSpec::kill_worker`] targets). It may return an empty vector
/// when the workers are driven elsewhere (e.g. test threads).
///
/// Errors are setup/handshake failures — a run that *starts* always
/// produces a [`ProcessReport`], with crashes and faults recorded in it.
pub fn run_process_cluster(
    spec: &ProcessSpec,
    spawn: impl FnOnce(&str) -> std::io::Result<Vec<Child>>,
) -> Result<ProcessReport, String> {
    assert!(spec.n >= 1);
    let n = spec.n;
    let tag = HUB_SEQ.fetch_add(1, Ordering::Relaxed);
    let (listener, addr) =
        Listener::bind(spec.net, tag).map_err(|e| format!("bind {}: {e}", spec.net.name()))?;
    let cs_log = std::env::temp_dir().join(format!("rcv-cs-{}-{tag}.log", std::process::id()));
    let _ = std::fs::remove_file(&cs_log);

    let status = StatusCell::register("rcv-hub");
    status.set("spawning workers");
    let mut children = spawn(&addr).map_err(|e| format!("spawn workers: {e}"))?;

    // --- Handshake: accept until every node slot is occupied. ---
    status.set("handshaking");
    let handshake_deadline = Instant::now() + spec.timeout;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut accepted: Vec<Option<(SocketStream, FrameBuf)>> = (0..n).map(|_| None).collect();
    let mut connected = 0usize;
    while connected < n {
        if Instant::now() >= handshake_deadline {
            kill_children(&mut children);
            let missing: Vec<usize> = accepted
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_none())
                .map(|(i, _)| i)
                .collect();
            return Err(format!("handshake timed out; missing nodes {missing:?}"));
        }
        let mut stream = match listener.accept() {
            Ok(s) => s,
            Err(e) if is_timeout(&e) => {
                std::thread::sleep(Duration::from_micros(500));
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                kill_children(&mut children);
                return Err(format!("accept: {e}"));
            }
        };
        let mut fb = FrameBuf::new();
        let hello = match read_frame_blocking(&mut stream, &mut fb, handshake_deadline) {
            Ok(f) => f,
            Err(e) => {
                kill_children(&mut children);
                return Err(format!("worker handshake: {e}"));
            }
        };
        let taken: Vec<bool> = accepted.iter().map(|s| s.is_some()).collect();
        match validate_hello(&hello, n as u32, &spec.protocol, &taken) {
            Ok(node) => {
                accepted[node as usize] = Some((stream, fb));
                connected += 1;
            }
            Err(reason) => {
                let _ = stream.write_all_bytes(
                    encode_frame(&CtrlFrame::Reject {
                        reason: reason.clone(),
                    })
                    .as_ref(),
                );
                kill_children(&mut children);
                return Err(format!("worker rejected: {reason}"));
            }
        }
    }

    // --- Start: derive per-node seeds exactly like the thread backend,
    // ship each worker its configuration, and start its reader. ---
    let mut seeder = SmallRng::seed_from_u64(spec.seed);
    let seeds: Vec<u64> = (0..n).map(|_| seeder.gen()).collect();
    let (tx, rx) = mpsc::channel::<(usize, Inbound)>();
    let mut slots: Vec<Slot> = Vec::with_capacity(n);
    let mut readers: Vec<JoinHandle<()>> = Vec::with_capacity(n);
    for (i, conn) in accepted.into_iter().enumerate() {
        let (mut stream, fb) = conn.expect("all connected");
        let cfg = WorkerConfig {
            algo: spec.protocol.clone(),
            node: i as u32,
            n: n as u32,
            rounds: spec.rounds,
            think_us: spec.think.as_micros() as u64,
            cs_us: spec.cs_duration.as_micros() as u64,
            tick_us: spec.tick.as_micros().max(1) as u64,
            seed: seeds[i],
            delay: spec.delay,
            crash: spec
                .faults
                .crash_restart
                .filter(|&(node, _, _)| node as usize == i)
                .map(|(_, down, up)| (down, up)),
            retry: spec.retry,
            restartable: spec.faults.crash_restart.is_some(),
            cs_log: cs_log.display().to_string(),
        };
        let started = stream
            .write_all_bytes(encode_frame(&CtrlFrame::Start(Box::new(cfg))).as_ref())
            .and_then(|()| stream.try_clone())
            .and_then(|reader_end| {
                let name = format!("rcv-hub-reader-{i}");
                spawn_reader(name, reader_end, fb, tx.clone(), move |e| (i, e))
            });
        match started {
            Ok(reader) => readers.push(reader),
            Err(e) => {
                kill_children(&mut children);
                close(&slots, readers);
                return Err(format!("start node {i}: {e}"));
            }
        }
        slots.push(Slot {
            stream,
            done: false,
            report: None,
            eof: false,
            wedged: false,
        });
    }
    // Only the readers hold senders now: the channel disconnects exactly
    // when every one of them has said its last word.
    drop(tx);

    // --- Serve: deliver what is due, then wait for the next frame or the
    // next instant something is due. ---
    status.set("serving");
    let t0 = Instant::now();
    let deadline = t0 + spec.timeout;
    let tickify = |ticks: u64| spec.tick.saturating_mul(ticks.min(u32::MAX as u64) as u32);
    let crash_win = spec
        .faults
        .crash_restart
        .map(|(node, down, up)| (node as usize, t0 + tickify(down), t0 + tickify(up)));
    let mut kill_at = spec
        .kill_worker
        .map(|(victim, after)| (victim as usize, t0 + after));
    let mut q: FaultQueueBytes = crate::transport::netq::FaultQueue::new(spec.faults, crash_win);
    let mut faults: Vec<(u32, String)> = Vec::new();
    let mut shutdown_sent = false;
    let mut timed_out = false;
    loop {
        let now = Instant::now();
        if now >= deadline {
            timed_out = true;
            break;
        }
        if let Some((victim, at)) = kill_at {
            if now >= at {
                kill_at = None;
                if let Some(child) = children.get_mut(victim) {
                    let _ = child.kill();
                }
            }
        }

        // Deliver everything due (encode once per delivery; the payload
        // bytes are routed without protocol knowledge).
        while let Some((from, to, payload)) = q.pop_due(now) {
            status.bump();
            let frame = CtrlFrame::Deliver {
                from: from as u32,
                payload,
            };
            slots[to].send(&frame, deadline);
        }

        // An armed kill drill holds the final Shutdown until it has fired:
        // the victim must die before it can report, however fast the run.
        if !shutdown_sent && kill_at.is_none() && slots.iter().all(|s| s.done || s.eof) {
            shutdown_sent = true;
            status.set("shutting down");
            for slot in slots.iter_mut() {
                slot.send(&CtrlFrame::Shutdown, deadline);
            }
        }
        if shutdown_sent && slots.iter().all(|s| s.report.is_some() || s.eof) {
            break;
        }

        let wake = [q.next_due(), kill_at.map(|(_, at)| at), Some(deadline)]
            .into_iter()
            .flatten()
            .min()
            .expect("the deadline is always set");
        let (i, event) = match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(got) => got,
            Err(RecvTimeoutError::Timeout) => continue,
            // Every reader has exited, normally after its final event; one
            // that died without it leaves its worker silent for good.
            Err(RecvTimeoutError::Disconnected) => {
                slots.iter_mut().for_each(|s| s.eof = true);
                continue;
            }
        };
        let slot = &mut slots[i];
        match event {
            Inbound::Frame(CtrlFrame::Send {
                to,
                delay_us,
                payload,
            }) => {
                if (to as usize) < n {
                    q.submit(i, to as usize, Duration::from_micros(delay_us), payload);
                }
            }
            Inbound::Frame(CtrlFrame::Done { .. }) => slot.done = true,
            Inbound::Frame(CtrlFrame::Report(r)) => slot.report = Some(r),
            Inbound::Frame(CtrlFrame::Fault { node, detail }) => faults.push((node, detail)),
            // Hub-bound frames only; anything else is a confused worker.
            // Ignore rather than wedge the cluster.
            Inbound::Frame(_) => {}
            Inbound::Corrupt(e) => {
                faults.push((i as u32, e.to_string()));
                slot.eof = true;
            }
            // Frames the worker wrote before closing (its report) arrived
            // ahead of this on the same channel.
            Inbound::Closed => slot.eof = true,
        }
    }

    // --- Teardown. ---
    status.set("collecting");
    kill_children(&mut children);
    close(&slots, readers);
    drop(listener);
    // A missing log means no worker ever entered the CS (instant crash).
    let (cs_entries, violations) = replay_cs_log(&cs_log).unwrap_or_default();
    let _ = std::fs::remove_file(&cs_log);

    let reports: Vec<Option<WorkerReport>> = slots.iter().map(|s| s.report).collect();
    // Crashed = the socket died before a report arrived. A worker still
    // connected when a timed-out run is torn down is a *stall* victim
    // (it gets killed, but it did not crash) — `timed_out` covers that.
    let crashed: Vec<u32> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.report.is_none() && s.eof)
        .map(|(i, _)| i as u32)
        .collect();
    let sum = |f: fn(&WorkerReport) -> u64| reports.iter().flatten().map(f).sum::<u64>();
    let report = ClusterReport {
        completed: sum(|r| r.completed),
        cs_entries,
        violations,
        messages: sum(|r| r.messages),
        lost: q.lost,
        duplicated: q.duplicated,
        crash_dropped: q.crash_dropped + sum(|r| r.crash_dropped),
        restarts: sum(|r| r.restarts),
        timed_out,
    };
    Ok(ProcessReport {
        report,
        anomalies: sum(|r| r.anomalies),
        reports,
        faults,
        crashed,
    })
}

type FaultQueueBytes = crate::transport::netq::FaultQueue<Bytes>;

/// Runs one worker process's node end-to-end: connect, handshake, drive
/// the protocol over a [`SocketTransport`], report, exit.
///
/// `make_node` builds the protocol instance from the received
/// [`WorkerConfig`]; `anomalies` extracts the protocol-internal anomaly
/// count from the final state for the report (return 0 when the protocol
/// has no such notion).
pub fn run_worker<P, F, A>(
    addr: &str,
    node: u32,
    protocol: &str,
    make_node: F,
    anomalies: A,
) -> Result<(), String>
where
    P: MutexProtocol,
    P::Message: WireCodec + Send,
    F: FnOnce(NodeId, usize, &WorkerConfig) -> P,
    A: FnOnce(&P, &WorkerConfig) -> u64,
{
    let mut stream = SocketStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all_bytes(encode_frame(&crate::transport::frame::hello(node, protocol)).as_ref())
        .map_err(|e| format!("hello: {e}"))?;
    let mut fb = FrameBuf::new();
    // Generous: the hub may be handshaking n-1 other workers first.
    let deadline = Instant::now() + Duration::from_secs(60);
    let cfg = loop {
        match read_frame_blocking(&mut stream, &mut fb, deadline)? {
            CtrlFrame::Start(cfg) => break cfg,
            CtrlFrame::Reject { reason } => return Err(format!("rejected: {reason}")),
            CtrlFrame::Shutdown => return Err("shut down before start".into()),
            _ => {} // not for us yet
        }
    };
    if cfg.node != node {
        return Err(format!("hub assigned node {}, argv says {node}", cfg.node));
    }
    let probe = CsLogProbe::open(std::path::Path::new(&cfg.cs_log))
        .map_err(|e| format!("open cs log {}: {e}", cfg.cs_log))?;
    let me = NodeId::new(node);
    let proto = make_node(me, cfg.n as usize, &cfg);
    let rng = SmallRng::seed_from_u64(cfg.seed);
    let tick = Duration::from_micros(cfg.tick_us.max(1));
    let start = Instant::now();
    let tickify = |ticks: u64| tick.saturating_mul(ticks.min(u32::MAX as u64) as u32);
    let params = NodeParams {
        rounds: cfg.rounds,
        think: Duration::from_micros(cfg.think_us),
        cs_duration: Duration::from_micros(cfg.cs_us),
        delay: cfg.delay,
        tick,
        start,
        crash: cfg
            .crash
            .map(|(down, up)| (start + tickify(down), start + tickify(up))),
    };
    let transport: SocketTransport<P::Message> =
        SocketTransport::new(me, stream, fb).map_err(|e| format!("reader: {e}"))?;
    let driver = NodeDriver::new(
        me,
        proto,
        transport,
        probe,
        rng,
        params,
        StatusCell::register(format!("rcv-worker-{node}")),
    );
    let (proto, mut transport, out) = driver.run();
    let fatal = transport.fatal_error().map(|e| e.to_string());
    let _ = transport.send_frame(&CtrlFrame::Report(WorkerReport {
        node,
        completed: out.completed,
        messages: out.messages,
        crash_dropped: out.crash_dropped,
        restarts: out.restarts,
        anomalies: anomalies(&proto, &cfg),
    }));
    match fatal {
        Some(e) => Err(format!("wire fault: {e}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_baselines::lamport::Lamport;

    /// Lamport's algorithm assumes FIFO links; random delays let a
    /// release overtake its request and stall the cluster. A constant
    /// delay keeps every link in order (the collapse `rcv_workload`
    /// applies to every FIFO algorithm on the real tiers).
    fn fifo_delay() -> NetDelay {
        let d = Duration::from_millis(1);
        NetDelay::Uniform { min: d, max: d }
    }

    /// Drives a full cluster where the "processes" are threads calling
    /// [`run_worker`] over real Unix-domain sockets — every layer of the
    /// process tier except `fork`/`exec` itself.
    #[test]
    fn uds_cluster_of_thread_workers_is_clean() {
        let spec = ProcessSpec::quick(3, 7, "lamport")
            .rounds(2)
            .delay(fifo_delay())
            .timeout(Duration::from_secs(20));
        let mut workers = Vec::new();
        let report = run_process_cluster(&spec, |addr| {
            for i in 0..3u32 {
                let addr = addr.to_string();
                workers.push(std::thread::spawn(move || {
                    run_worker(
                        &addr,
                        i,
                        "lamport",
                        |me, n, _cfg| Lamport::new(me, n),
                        |_, _| 0,
                    )
                }));
            }
            Ok(Vec::new())
        })
        .expect("cluster runs");
        for w in workers {
            w.join().expect("worker thread").expect("worker ok");
        }
        assert!(report.is_clean(6), "{report:?}");
        assert_eq!(report.report.completed, 6);
        assert!(report.report.messages > 0);
    }

    #[test]
    fn tcp_cluster_of_thread_workers_is_clean() {
        let spec = ProcessSpec::quick(2, 11, "lamport")
            .net(SocketNet::Tcp)
            .delay(fifo_delay())
            .timeout(Duration::from_secs(20));
        let mut workers = Vec::new();
        let report = run_process_cluster(&spec, |addr| {
            assert!(addr.starts_with("tcp:127.0.0.1:"), "{addr}");
            for i in 0..2u32 {
                let addr = addr.to_string();
                workers.push(std::thread::spawn(move || {
                    run_worker(
                        &addr,
                        i,
                        "lamport",
                        |me, n, _cfg| Lamport::new(me, n),
                        |_, _| 0,
                    )
                }));
            }
            Ok(Vec::new())
        })
        .expect("cluster runs");
        for w in workers {
            w.join().expect("worker thread").expect("worker ok");
        }
        assert!(report.is_clean(2), "{report:?}");
    }

    #[test]
    fn version_mismatch_is_rejected_at_handshake() {
        use crate::transport::frame::{CtrlFrame, HELLO_MAGIC, SCHEMA_VERSION};
        let spec = ProcessSpec::quick(1, 3, "rcv").timeout(Duration::from_secs(10));
        let mut worker = None;
        let err = run_process_cluster(&spec, |addr| {
            let addr = addr.to_string();
            worker = Some(std::thread::spawn(move || {
                let mut s = SocketStream::connect(&addr).expect("connect");
                let bad = CtrlFrame::Hello {
                    magic: HELLO_MAGIC,
                    version: SCHEMA_VERSION + 1,
                    node: 0,
                    protocol: "rcv".into(),
                };
                s.write_all_bytes(encode_frame(&bad).as_ref())
                    .expect("send");
                let mut fb = FrameBuf::new();
                let reply =
                    read_frame_blocking(&mut s, &mut fb, Instant::now() + Duration::from_secs(10))
                        .expect("reply");
                match reply {
                    CtrlFrame::Reject { reason } => reason,
                    other => panic!("expected Reject, got {other:?}"),
                }
            }));
            Ok(Vec::new())
        })
        .expect_err("mismatched worker must fail the run");
        assert!(err.contains("schema version mismatch"), "{err}");
        let reason = worker.unwrap().join().expect("fake worker");
        assert!(reason.contains("schema version mismatch"), "{reason}");
    }

    /// A worker that handshakes, then floods the hub with messages to
    /// itself and never reads them (nor sends `Done`). The hub's
    /// deliveries fill the socket buffer and block, but only up to the
    /// deadline: the run ends in a verdict, with no unbounded queue toward
    /// the worker and no hang (the watchdog turns a hang into a failure).
    #[test]
    fn worker_that_never_reads_ends_in_a_timed_out_verdict() {
        use crate::transport::frame::hello;
        let timeout = Duration::from_secs(1);
        let (report, took) =
            crate::watchdog::run_with_watchdog("never-reads", Duration::from_secs(20), move || {
                let spec = ProcessSpec::quick(1, 5, "rcv").timeout(timeout);
                let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
                let mut worker = None;
                let t0 = Instant::now();
                let report = run_process_cluster(&spec, |addr| {
                    let addr = addr.to_string();
                    worker = Some(std::thread::spawn(move || {
                        let mut s = SocketStream::connect(&addr).expect("connect");
                        s.write_all_bytes(encode_frame(&hello(0, "rcv")).as_ref())
                            .expect("hello");
                        let mut fb = FrameBuf::new();
                        let deadline = Instant::now() + Duration::from_secs(10);
                        let start = read_frame_blocking(&mut s, &mut fb, deadline);
                        assert!(matches!(start, Ok(CtrlFrame::Start(_))), "{start:?}");
                        // 4 MiB of deliveries for ourselves: far beyond
                        // any socket buffer.
                        let flood = encode_frame(&CtrlFrame::Send {
                            to: 0,
                            delay_us: 0,
                            payload: Bytes::from(vec![7u8; 16 * 1024]),
                        });
                        for _ in 0..256 {
                            if s.write_all_bytes(flood.as_ref()).is_err() {
                                break;
                            }
                        }
                        let _ = stop_rx.recv();
                    }));
                    Ok(Vec::new())
                })
                .expect("cluster starts");
                let took = t0.elapsed();
                let _ = stop_tx.send(());
                worker.unwrap().join().expect("fake worker");
                (report, took)
            });
        assert!(report.report.timed_out, "{report:?}");
        assert!(!report.is_clean(1));
        assert!(took < timeout + Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn wrong_protocol_tag_is_rejected() {
        use crate::transport::frame::hello;
        let spec = ProcessSpec::quick(1, 3, "rcv").timeout(Duration::from_secs(10));
        let mut worker = None;
        let err = run_process_cluster(&spec, |addr| {
            let addr = addr.to_string();
            worker = Some(std::thread::spawn(move || {
                let mut s = SocketStream::connect(&addr).expect("connect");
                s.write_all_bytes(encode_frame(&hello(0, "maekawa")).as_ref())
                    .expect("send");
            }));
            Ok(Vec::new())
        })
        .expect_err("protocol mismatch must fail the run");
        assert!(err.contains("protocol mismatch"), "{err}");
        worker.unwrap().join().expect("fake worker");
    }
}
