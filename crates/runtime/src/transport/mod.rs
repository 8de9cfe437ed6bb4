//! The cluster's fabric abstraction: one node-side API, two fabrics.
//!
//! A [`Transport`] is **one node's connection to the rest of the
//! cluster**: it carries protocol messages out (with the node-sampled
//! base delay the fabric will apply), delivers inbound messages and the
//! shutdown signal, and accepts the node's "all my rounds are done"
//! announcement. The node driver in `crate::node` is written against this
//! trait alone, so the same protocol-driving code runs on both fabrics:
//!
//! * [`ChanTransport`] — the in-process fabric: the sending thread puts
//!   each message through the cluster's shared `FaultQueue` (delay heap +
//!   fault injection) and moves what is already due straight into the
//!   destination's crossbeam inbox; a timer thread delivers the rest as
//!   it falls due.
//! * [`SocketTransport`] — a real socket (Unix-domain or TCP loopback) to
//!   the orchestrator hub; every message crosses as length-prefixed
//!   [`WireCodec`](crate::wire::WireCodec) bytes inside a control frame,
//!   and the hub applies the same [`WireFaults`](crate::cluster::WireFaults)
//!   at the socket boundary.
//!
//! Both fabrics wait the same way: on a channel with `recv_timeout`. On
//! the socket fabric a blocking reader thread per socket, on each end,
//! turns the byte stream into frames on such a channel.
//!
//! The two fabrics apply faults in the same `FaultQueue`, owned
//! differently: on the thread fabric the node threads and the timer
//! thread share it under one lock; on the socket fabric the hub owns it.
//!
//! ```text
//!                Transport::send / recv / notify_done
//!                      │                      │
//!            ChanTransport              SocketTransport
//!                      │            write_all ↓   ↑ reader thread → channel
//!                      │              socket (UDS / TCP), one per worker
//!                      │  channel ← reader thread ↓   ↑ write_all
//!     sending thread + timer thread    orchestrator hub (processes)
//!      (threads, under one lock)
//!              FaultQueue ─────────────── FaultQueue
//! ```

pub(crate) mod chan;
pub mod frame;
pub(crate) mod netq;
pub mod socket;

use std::time::Duration;

use rcv_simnet::NodeId;

pub use chan::ChanTransport;
pub use socket::{SocketNet, SocketTransport};

/// The fabric disappeared under the node (cluster tear-down, hub gone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportClosed;

impl core::fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "cluster fabric closed")
    }
}

impl std::error::Error for TransportClosed {}

/// One inbound event from the fabric.
#[derive(Debug)]
pub enum RecvOutcome<M> {
    /// A protocol message was delivered.
    Msg {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// Nothing arrived within the allotted wait.
    Timeout,
    /// The cluster is tearing down (explicit shutdown or fabric gone);
    /// the node must return.
    Shutdown,
}

/// One node's connection to the cluster fabric.
///
/// Delivery semantics are identical across implementations: the fabric
/// applies the node-sampled base `delay` (possibly stretched, dropped,
/// duplicated or black-holed by the cluster's
/// [`WireFaults`](crate::cluster::WireFaults)), and messages are **not**
/// FIFO — reordering under random delays is exactly the regime the RCV
/// paper claims to tolerate.
pub trait Transport<M>: Send {
    /// Queues `msg` for `to` with the node-sampled base `delay`.
    fn send(&mut self, to: NodeId, msg: M, delay: Duration) -> Result<(), TransportClosed>;

    /// Waits up to `timeout` for the next inbound event.
    fn recv(&mut self, timeout: Duration) -> RecvOutcome<M>;

    /// Announces that this node has completed all its CS rounds (it keeps
    /// serving peers until shutdown).
    fn notify_done(&mut self);
}
