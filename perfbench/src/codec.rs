//! Scheduler-free codec numbers: messages captured during a traced run
//! are replayed single-threaded through `WireCodec::{encode_wire,
//! decode_wire}`, `transport::frame::encode_frame` and
//! `FrameBuf::next_frame`, so the `wire.*` and `hub.frame_*` figures do
//! not depend on thread wake-ups.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rcv_core::RcvMessage;
use rcv_runtime::transport::frame::{encode_frame, CtrlFrame, FrameBuf};
use rcv_runtime::wire::WireCodec;

use crate::stats::median;

/// Replay passes run at least this long in total (and at least
/// `MIN_PASSES` times).
const BUDGET: Duration = Duration::from_millis(300);
const MIN_PASSES: usize = 5;
/// The hub reads its sockets in chunks of this size.
const READ_CHUNK: usize = 64 * 1024;

/// Per-message costs of the captured sample (medians over passes).
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecCosts {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_msg: f64,
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
}

impl CodecCosts {
    /// Codec work one message routed through the hub costs: encode and
    /// decode, plus a frame encode and decode on each of its two socket
    /// hops.
    pub fn process_hop_ns(&self) -> f64 {
        self.encode_ns + self.decode_ns + 2.0 * (self.frame_encode_ns + self.frame_decode_ns)
    }
}

fn per_msg(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Replays `msgs`. `Err` if any message fails to round-trip unchanged
/// through the codec or the framing.
pub fn replay(msgs: &[RcvMessage]) -> Result<CodecCosts, String> {
    if msgs.is_empty() {
        return Ok(CodecCosts::default());
    }
    let payloads: Vec<Bytes> = msgs.iter().map(WireCodec::encode_wire).collect();
    for (m, p) in msgs.iter().zip(&payloads) {
        match RcvMessage::decode_wire(p.clone()) {
            Ok(back) if &back == m => {}
            Ok(_) => {
                return Err(format!(
                    "{} message changed in a codec round trip",
                    m_kind(m)
                ))
            }
            Err(e) => return Err(format!("{} message failed to decode: {e}", m_kind(m))),
        }
    }
    let frames: Vec<CtrlFrame> = payloads
        .iter()
        .map(|p| CtrlFrame::Deliver {
            from: 1,
            payload: p.clone(),
        })
        .collect();
    let stream: Vec<u8> = frames
        .iter()
        .flat_map(|f| encode_frame(f).as_ref().to_vec())
        .collect();
    let mut decoded = Vec::with_capacity(frames.len());
    decode_stream(&stream, |f| decoded.push(f))?;
    if decoded != frames {
        return Err("a frame changed in an encode/decode round trip".into());
    }

    let n = msgs.len();
    let (mut enc, mut dec, mut fenc, mut fdec) = (vec![], vec![], vec![], vec![]);
    let t_all = Instant::now();
    while enc.len() < MIN_PASSES || t_all.elapsed() < BUDGET {
        let t0 = Instant::now();
        for m in msgs {
            black_box(black_box(m).encode_wire());
        }
        enc.push(per_msg(t0, n));

        let t0 = Instant::now();
        for p in &payloads {
            let _ = black_box(RcvMessage::decode_wire(black_box(p.clone())));
        }
        dec.push(per_msg(t0, n));

        let t0 = Instant::now();
        for f in &frames {
            black_box(encode_frame(black_box(f)));
        }
        fenc.push(per_msg(t0, n));

        let t0 = Instant::now();
        decode_stream(&stream, |f| {
            black_box(f);
        })?;
        fdec.push(per_msg(t0, n));
    }
    Ok(CodecCosts {
        encode_ns: median(&enc),
        decode_ns: median(&dec),
        bytes_per_msg: payloads.iter().map(Bytes::len).sum::<usize>() as f64 / n as f64,
        frame_encode_ns: median(&fenc),
        frame_decode_ns: median(&fdec),
    })
}

/// Feeds `stream` to a [`FrameBuf`] chunk by chunk, as the hub's read
/// loop does, popping every complete frame.
fn decode_stream(stream: &[u8], mut each: impl FnMut(CtrlFrame)) -> Result<(), String> {
    let mut fb = FrameBuf::new();
    for chunk in stream.chunks(READ_CHUNK) {
        fb.extend(chunk);
        while let Some(f) = fb.next_frame().map_err(|e| e.to_string())? {
            each(f);
        }
    }
    Ok(())
}

fn m_kind(m: &RcvMessage) -> &'static str {
    rcv_simnet::ProtocolMessage::kind(m)
}
