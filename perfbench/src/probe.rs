//! Bench-side instrumentation around the program's public surfaces.
//!
//! [`Timed`] wraps any [`MutexProtocol`] and is what every tier runs, so
//! the same definitions hold on the simulator, the thread cluster and the
//! worker processes: acquire latency is request handler entry → release
//! handler entry (wall clock), response ticks use the protocol's own clock
//! (`Ctx::now`), and the closed-loop gap is release → next request.
//!
//! Untraced, the wrapper takes two clock reads per CS. Traced, it also
//! times every handler (the protocol's self time), counts received
//! messages per class, drains the `rcv_simnet::profile` phase probes and
//! the `rcv_allocmeter` counter at handler boundaries, and keeps a small
//! sample of received messages for the codec replay. Everything stays in
//! memory in a [`Record`] that the caller reads once the run is over.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rcv_simnet::profile::{self, PROBE_PHASES};
use rcv_simnet::{Ctx, MutexProtocol, NodeId, ProtocolMessage, RestartOutcome, SimTime};

/// Message classes counted per CS, in report order.
pub const KINDS: [&str; 4] = ["RM", "EM", "IM", "RV"];

/// Most messages one run keeps for the codec replay, over all nodes.
const CAPTURE_TOTAL: usize = 256;
/// Only the first this-many nodes capture (bounds memory at large N).
const CAPTURE_NODES: usize = 64;

/// Wall-clock nanoseconds since the Unix epoch; comparable across the
/// bench process and its worker processes.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// What one node (or, after [`Record::merge`], one run) observed.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Unix ns of the first request (0 = none yet).
    pub first_request_ns: u64,
    /// Unix ns of the last release (0 = none yet).
    pub last_release_ns: u64,
    /// Request → release wall time of every completed CS.
    pub acquire_ns: Vec<u64>,
    /// Sum of request → release spans on the protocol clock.
    pub response_ticks: u64,
    /// Release → next request wall time (closed-loop gap).
    pub gap_ns: Vec<u64>,
    /// Protocol events handled (requests, deliveries, releases, timers,
    /// restarts).
    pub events: u64,
    /// Messages received and the sum of their `wire_size`.
    pub recv_msgs: u64,
    pub recv_bytes: u64,
    /// Traced only: handler self time, per-class receive counts, probe
    /// phase nanoseconds and heap bytes allocated inside handlers.
    pub handler_ns: u64,
    pub kinds: [u64; 4],
    pub phases: [u64; PROBE_PHASES],
    pub heap_bytes: u64,
}

impl Record {
    /// Folds another node's record into this one.
    pub fn merge(&mut self, o: &Record) {
        self.first_request_ns = match (self.first_request_ns, o.first_request_ns) {
            (0, b) => b,
            (a, 0) => a,
            (a, b) => a.min(b),
        };
        self.last_release_ns = self.last_release_ns.max(o.last_release_ns);
        self.acquire_ns.extend_from_slice(&o.acquire_ns);
        self.response_ticks += o.response_ticks;
        self.gap_ns.extend_from_slice(&o.gap_ns);
        self.events += o.events;
        self.recv_msgs += o.recv_msgs;
        self.recv_bytes += o.recv_bytes;
        self.handler_ns += o.handler_ns;
        for (a, b) in self.kinds.iter_mut().zip(o.kinds) {
            *a += b;
        }
        for (a, b) in self.phases.iter_mut().zip(o.phases) {
            *a += b;
        }
        self.heap_bytes += o.heap_bytes;
    }

    /// The merge of `recs` (one run's nodes).
    pub fn merged<'a>(recs: impl IntoIterator<Item = &'a Record>) -> Record {
        let mut out = Record::default();
        for r in recs {
            out.merge(r);
        }
        out
    }

    /// Adds whatever the phase probes accumulated on this thread.
    pub fn absorb_probes(&mut self) {
        for (a, c) in self.phases.iter_mut().zip(profile::take()) {
            *a += c.nanos;
        }
    }

    /// Wall span from the first request to the last release.
    pub fn busy_ns(&self) -> u64 {
        self.last_release_ns.saturating_sub(self.first_request_ns)
    }

    /// Plain-text form, so worker processes can hand their record to the
    /// bench process through a file.
    pub fn to_text(&self) -> String {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        format!(
            "first_request_ns {}\nlast_release_ns {}\nacquire_ns {}\nresponse_ticks {}\n\
             gap_ns {}\nevents {}\nrecv_msgs {}\nrecv_bytes {}\nhandler_ns {}\nkinds {}\n\
             phases {}\nheap_bytes {}\n",
            self.first_request_ns,
            self.last_release_ns,
            list(&self.acquire_ns),
            self.response_ticks,
            list(&self.gap_ns),
            self.events,
            self.recv_msgs,
            self.recv_bytes,
            self.handler_ns,
            list(&self.kinds),
            list(&self.phases),
            self.heap_bytes,
        )
    }

    /// Inverse of [`Record::to_text`].
    pub fn from_text(text: &str) -> Result<Record, String> {
        let mut r = Record::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let nums = rest
                .split_whitespace()
                .map(|s| s.parse::<u64>().map_err(|e| format!("{key}: {e}")))
                .collect::<Result<Vec<u64>, String>>()?;
            let one = || nums.first().copied().unwrap_or(0);
            match key {
                "first_request_ns" => r.first_request_ns = one(),
                "last_release_ns" => r.last_release_ns = one(),
                "acquire_ns" => r.acquire_ns = nums,
                "response_ticks" => r.response_ticks = one(),
                "gap_ns" => r.gap_ns = nums,
                "events" => r.events = one(),
                "recv_msgs" => r.recv_msgs = one(),
                "recv_bytes" => r.recv_bytes = one(),
                "handler_ns" => r.handler_ns = one(),
                "kinds" => copy_into(&mut r.kinds, &nums)?,
                "phases" => copy_into(&mut r.phases, &nums)?,
                "heap_bytes" => r.heap_bytes = one(),
                other => return Err(format!("unknown record key {other:?}")),
            }
        }
        Ok(r)
    }
}

fn copy_into(dst: &mut [u64], src: &[u64]) -> Result<(), String> {
    if dst.len() != src.len() {
        return Err(format!("want {} values, got {}", dst.len(), src.len()));
    }
    dst.copy_from_slice(src);
    Ok(())
}

/// A protocol node wrapped with the bench's probes.
pub struct Timed<P: MutexProtocol> {
    pub inner: P,
    pub rec: Record,
    /// Traced only: a reservoir sample of received messages.
    pub captured: Vec<P::Message>,
    traced: bool,
    capture_cap: usize,
    seen: u64,
    lcg: u64,
    requested: Option<(Instant, SimTime)>,
    released: Option<Instant>,
}

impl<P: MutexProtocol> Timed<P> {
    /// Wraps `inner`, node `me` of `n`; `traced` turns on the handler
    /// timing, class counts, probe draining and message capture.
    pub fn new(inner: P, me: NodeId, n: usize, traced: bool) -> Self {
        let capture_cap = if traced && me.index() < CAPTURE_NODES {
            (CAPTURE_TOTAL / n.min(CAPTURE_NODES)).max(1)
        } else {
            0
        };
        Timed {
            inner,
            rec: Record::default(),
            captured: Vec::new(),
            traced,
            capture_cap,
            seen: 0,
            lcg: 0x9E37_79B9_7F4A_7C15 ^ me.index() as u64,
            requested: None,
            released: None,
        }
    }

    /// Runs one handler of the inner protocol; traced, its wall time,
    /// heap allocation and probe phases are charged to the record.
    fn handle<R>(&mut self, event: bool, f: impl FnOnce(&mut P) -> R) -> R {
        if event {
            self.rec.events += 1;
        }
        if !self.traced {
            return f(&mut self.inner);
        }
        // Charge what accumulated outside handlers (the engine's metrics
        // probe) before the handler's own share.
        self.rec.absorb_probes();
        rcv_allocmeter::take();
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.rec.handler_ns += t0.elapsed().as_nanos() as u64;
        self.rec.heap_bytes += rcv_allocmeter::take().bytes;
        self.rec.absorb_probes();
        r
    }

    fn capture(&mut self, msg: &P::Message) {
        self.seen += 1;
        if self.captured.len() < self.capture_cap {
            self.captured.push(msg.clone());
            return;
        }
        // Reservoir sampling (deterministic LCG), so late, history-heavy
        // messages are represented as well as early ones.
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let slot = (self.lcg >> 33) % self.seen;
        if (slot as usize) < self.capture_cap {
            self.captured[slot as usize] = msg.clone();
        }
    }
}

impl<P: MutexProtocol> MutexProtocol for Timed<P> {
    type Message = P::Message;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, P::Message>) {
        let now = Instant::now();
        if self.rec.first_request_ns == 0 {
            self.rec.first_request_ns = unix_ns();
        }
        if let Some(rel) = self.released.take() {
            self.rec.gap_ns.push((now - rel).as_nanos() as u64);
        }
        self.requested = Some((now, ctx.now()));
        self.handle(true, |p| p.on_request(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: P::Message, ctx: &mut Ctx<'_, P::Message>) {
        self.rec.recv_msgs += 1;
        self.rec.recv_bytes += msg.wire_size() as u64;
        if self.traced {
            if let Some(k) = KINDS.iter().position(|&k| k == msg.kind()) {
                self.rec.kinds[k] += 1;
            }
            if self.capture_cap > 0 {
                self.capture(&msg);
            }
        }
        self.handle(true, |p| p.on_message(from, msg, ctx));
    }

    fn on_cs_granted(&mut self, ctx: &mut Ctx<'_, P::Message>) {
        self.handle(false, |p| p.on_cs_granted(ctx));
    }

    fn on_cs_released(&mut self, ctx: &mut Ctx<'_, P::Message>) {
        let now = Instant::now();
        if let Some((at, tick)) = self.requested.take() {
            self.rec.acquire_ns.push((now - at).as_nanos() as u64);
            self.rec.response_ticks += ctx.now().ticks().saturating_sub(tick.ticks());
        }
        self.rec.last_release_ns = unix_ns();
        self.released = Some(now);
        self.handle(true, |p| p.on_cs_released(ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, P::Message>) {
        self.handle(true, |p| p.on_timer(tag, ctx));
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, P::Message>) -> RestartOutcome {
        self.handle(true, |p| p.on_restart(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_text_round_trips() {
        let r = Record {
            first_request_ns: 5,
            last_release_ns: 9,
            acquire_ns: vec![1, 2, 3],
            response_ticks: 4,
            gap_ns: vec![],
            events: 7,
            recv_msgs: 2,
            recv_bytes: 100,
            handler_ns: 11,
            kinds: [1, 2, 3, 4],
            phases: [5; PROBE_PHASES],
            heap_bytes: 12,
        };
        let back = Record::from_text(&r.to_text()).expect("parses");
        assert_eq!(back.to_text(), r.to_text());
        assert!(Record::from_text("bogus 1\n").is_err());
    }
}
