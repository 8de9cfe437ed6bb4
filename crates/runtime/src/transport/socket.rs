//! The socket fabric: a stream (Unix-domain or TCP loopback) speaking the
//! control-frame protocol of [`super::frame`], shared by both ends.
//!
//! Every connected socket, hub-side and worker-side, gets one blocking
//! reader thread (`spawn_reader`). It reads the stream into a
//! [`FrameBuf`] and hands each decoded [`CtrlFrame`] to an `mpsc` channel,
//! so the consumer waits on a channel with `recv_timeout` — a futex wait
//! with an exact timeout — instead of a socket read timeout, which the
//! kernel rounds up to a whole scheduler tick. Writes stay on the owning
//! thread as plain blocking `write_all` calls. Teardown shuts the socket
//! down in both directions, which wakes the reader with EOF, and joins it.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rcv_simnet::NodeId;

use super::frame::{encode_frame, CtrlFrame, FrameBuf};
use super::{RecvOutcome, Transport, TransportClosed};
use crate::wire::{WireCodec, WireError};

/// Which socket family the cluster runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SocketNet {
    /// Unix-domain sockets under the temp dir (default: no ports, no
    /// firewalls, fastest localhost path).
    #[default]
    Uds,
    /// TCP on 127.0.0.1 (exercises the real TCP stack; the deployment
    /// shape).
    Tcp,
}

impl SocketNet {
    /// Lowercase label for CLI flags and report rows.
    pub fn name(&self) -> &'static str {
        match self {
            SocketNet::Uds => "uds",
            SocketNet::Tcp => "tcp",
        }
    }
}

/// A connected stream of either family. All I/O the fabric needs, with
/// uniform timeout and shutdown control.
pub(crate) enum SocketStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SocketStream {
    /// Connects to an orchestrator address string (`"uds:<path>"` or
    /// `"tcp:<ip>:<port>"`).
    pub(crate) fn connect(addr: &str) -> std::io::Result<SocketStream> {
        if let Some(path) = addr.strip_prefix("uds:") {
            Ok(SocketStream::Unix(UnixStream::connect(path)?))
        } else if let Some(hostport) = addr.strip_prefix("tcp:") {
            let s = TcpStream::connect(hostport)?;
            s.set_nodelay(true)?;
            Ok(SocketStream::Tcp(s))
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unrecognized cluster address {addr:?} (want uds:/tcp:)"),
            ))
        }
    }

    /// A second handle on the same socket (for the reader thread).
    pub(crate) fn try_clone(&self) -> std::io::Result<SocketStream> {
        Ok(match self {
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
            SocketStream::Unix(s) => SocketStream::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(t),
            SocketStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    pub(crate) fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_write_timeout(t),
            SocketStream::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Closes both directions; a reader blocked on any handle of this
    /// socket wakes with EOF.
    pub(crate) fn shutdown(&self) {
        let _ = match self {
            SocketStream::Tcp(s) => s.shutdown(Shutdown::Both),
            SocketStream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }

    pub(crate) fn read_chunk(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Unix(s) => s.read(buf),
        }
    }

    pub(crate) fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.write_all(bytes),
            SocketStream::Unix(s) => s.write_all(bytes),
        }
    }
}

pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// What a reader thread hands its consumer.
#[derive(Debug)]
pub(crate) enum Inbound {
    /// One decoded frame.
    Frame(CtrlFrame),
    /// The byte stream stopped decoding; the reader has exited, since
    /// nothing after a corrupt frame can be trusted.
    Corrupt(WireError),
    /// EOF or a read error: nothing more will arrive.
    Closed,
}

/// Spawns the blocking reader thread for one socket. It decodes frames
/// out of `fb` (bytes left over from the handshake first) and the
/// stream, and sends each as `wrap(Inbound)` until EOF, a corrupt frame,
/// or a hung-up consumer. The read buffer is small: frames are hundreds
/// of bytes, and a larger one simply takes several reads.
pub(crate) fn spawn_reader<T: Send + 'static>(
    name: String,
    mut stream: SocketStream,
    mut fb: FrameBuf,
    tx: Sender<T>,
    wrap: impl Fn(Inbound) -> T + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    // The handshake read with a timeout; the reader blocks for good.
    stream.set_read_timeout(None)?;
    std::thread::Builder::new().name(name).spawn(move || {
        let mut buf = [0u8; 4096];
        loop {
            loop {
                let event = match fb.next_frame() {
                    Ok(Some(f)) => Inbound::Frame(f),
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(wrap(Inbound::Corrupt(e)));
                        return;
                    }
                };
                if tx.send(wrap(event)).is_err() {
                    return;
                }
            }
            match stream.read_chunk(&mut buf) {
                Ok(0) => break,
                Ok(n) => fb.extend(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let _ = tx.send(wrap(Inbound::Closed));
    })
}

/// The socket-backed [`Transport`]: one worker's connection to the hub.
/// Protocol messages cross as [`WireCodec`] bytes inside `Send`/`Deliver`
/// frames; the codec runs on **every** hop by construction (there is no
/// other way through a socket).
pub struct SocketTransport<M> {
    me: NodeId,
    stream: SocketStream,
    rx: Receiver<Inbound>,
    reader: Option<JoinHandle<()>>,
    /// First fatal wire/frame error, kept for the worker's Fault report.
    fatal: Option<WireError>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: WireCodec> SocketTransport<M> {
    /// Takes over a handshaken connection; `fb` holds any bytes read past
    /// the handshake.
    pub(crate) fn new(me: NodeId, stream: SocketStream, fb: FrameBuf) -> std::io::Result<Self> {
        let (tx, rx) = mpsc::channel();
        let reader = spawn_reader(
            format!("rcv-worker-{}-reader", me.raw()),
            stream.try_clone()?,
            fb,
            tx,
            |event| event,
        )?;
        Ok(SocketTransport {
            me,
            stream,
            rx,
            reader: Some(reader),
            fatal: None,
            _marker: std::marker::PhantomData,
        })
    }

    /// The first fatal decode error this transport hit, if any.
    pub fn fatal_error(&self) -> Option<&WireError> {
        self.fatal.as_ref()
    }

    /// Sends a raw control frame (worker bookkeeping: Done, Report,
    /// Fault).
    pub(crate) fn send_frame(&mut self, frame: &CtrlFrame) -> Result<(), TransportClosed> {
        self.stream
            .write_all_bytes(encode_frame(frame).as_ref())
            .map_err(|_| TransportClosed)
    }

    /// Records a fatal wire error, tells the hub, and shuts the node down.
    fn fail(&mut self, err: WireError) -> RecvOutcome<M> {
        let _ = self.send_frame(&CtrlFrame::Fault {
            node: self.me.raw(),
            detail: err.to_string(),
        });
        if self.fatal.is_none() {
            self.fatal = Some(err);
        }
        RecvOutcome::Shutdown
    }
}

impl<M> Drop for SocketTransport<M> {
    fn drop(&mut self) {
        self.stream.shutdown();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl<M: WireCodec + Send> Transport<M> for SocketTransport<M> {
    fn send(&mut self, to: NodeId, msg: M, delay: Duration) -> Result<(), TransportClosed> {
        let frame = CtrlFrame::Send {
            to: to.raw(),
            delay_us: delay.as_micros() as u64,
            payload: msg.encode_wire(),
        };
        self.send_frame(&frame)
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome<M> {
        let deadline = Instant::now() + timeout;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(wait) {
                Ok(Inbound::Frame(CtrlFrame::Deliver { from, payload })) => {
                    return match M::decode_wire(payload) {
                        Ok(msg) => RecvOutcome::Msg {
                            from: NodeId::new(from),
                            msg,
                        },
                        Err(e) => self.fail(e),
                    };
                }
                Ok(Inbound::Frame(CtrlFrame::Shutdown | CtrlFrame::Reject { .. })) => {
                    return RecvOutcome::Shutdown
                }
                // Any other frame is hub-bound only; arriving here means a
                // confused hub. Ignore rather than wedge the node.
                Ok(Inbound::Frame(_)) => {}
                Ok(Inbound::Corrupt(e)) => return self.fail(e),
                // Hub gone.
                Ok(Inbound::Closed) | Err(RecvTimeoutError::Disconnected) => {
                    return RecvOutcome::Shutdown
                }
                Err(RecvTimeoutError::Timeout) => return RecvOutcome::Timeout,
            }
        }
    }

    fn notify_done(&mut self) {
        let _ = self.send_frame(&CtrlFrame::Done {
            node: self.me.raw(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_baselines::LpMessage;

    /// A short receive wait on an idle socket must end close to its
    /// timeout, not a whole scheduler tick later (4 ms at `HZ=250`). The
    /// median keeps a loaded host from flaking the test.
    #[test]
    fn short_recv_timeout_is_not_rounded_up_to_a_tick() {
        let (ours, _hub) = UnixStream::pair().expect("socketpair");
        let mut t: SocketTransport<LpMessage> =
            SocketTransport::new(NodeId::new(0), SocketStream::Unix(ours), FrameBuf::new())
                .expect("transport");
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                assert!(matches!(
                    t.recv(Duration::from_micros(200)),
                    RecvOutcome::Timeout
                ));
                t0.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[10] < Duration::from_millis(2), "median {:?}", took[10]);
    }
}
