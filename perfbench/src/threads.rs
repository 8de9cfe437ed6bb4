//! Thread tier: `run_cluster_collecting` over `Timed<RcvNode>`, with a
//! wire hook that encodes and decodes every message on the network
//! thread (timed when traced).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcv_core::{RcvMessage, RcvNode};
use rcv_runtime::wire::WireCodec;
use rcv_runtime::{run_cluster_collecting, ClusterSpec, NetDelay, WireHook};

use crate::probe::{unix_ns, Record, Timed};
use crate::tally::{self, Tally};

/// Codec counters shared with the wire hook.
#[derive(Default)]
struct HookStats {
    codec_ns: AtomicU64,
    mismatches: AtomicU64,
}

fn codec_hook(stats: Arc<HookStats>, traced: bool) -> WireHook<RcvMessage> {
    Arc::new(move |msg: RcvMessage| {
        let t0 = traced.then(Instant::now);
        let back = RcvMessage::decode_wire(msg.encode_wire());
        if let Some(t0) = t0 {
            stats
                .codec_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        match back {
            Ok(m) if m == msg => m,
            _ => {
                stats.mismatches.fetch_add(1, Ordering::Relaxed);
                msg
            }
        }
    })
}

/// Runs one closed-loop cluster of `n` nodes × `rounds` CS and folds it
/// into `t`.
fn run_once(n: usize, rounds: u32, seed: u64, traced: bool, t: &mut Tally) {
    let stats = Arc::new(HookStats::default());
    let spec = ClusterSpec::quick(n, seed)
        .rounds(rounds)
        .think(Duration::ZERO)
        .cs_duration(Duration::ZERO)
        .delay(NetDelay::None)
        .timeout(Duration::from_secs(60))
        .wire_hook(codec_hook(Arc::clone(&stats), traced));
    let start_ns = unix_ns();
    let t0 = Instant::now();
    let (report, nodes) =
        run_cluster_collecting(spec, |id, n| Timed::new(RcvNode::new(id, n), id, n, traced));
    t.wall_ns += t0.elapsed().as_nanos() as u64;

    let rec = Record::merged(nodes.iter().map(|p| &p.rec));
    t.setup_s
        .push(rec.first_request_ns.saturating_sub(start_ns) as f64 / 1e9);
    t.requested += n as u64 * rounds as u64;
    t.unsafe_entries += report.violations;
    t.anomalies += nodes
        .iter()
        .map(|p| p.inner.stats().anomalies())
        .sum::<u64>();
    if report.timed_out {
        t.faults.push(format!("seed {seed}: cluster timed out"));
    }
    if report.cs_entries != report.completed {
        t.faults.push(format!(
            "seed {seed}: {} CS entries for {} completions",
            report.cs_entries, report.completed
        ));
    }
    let bad = stats.mismatches.load(Ordering::Relaxed);
    if bad > 0 {
        t.faults.push(format!(
            "seed {seed}: {bad} messages failed the codec round trip"
        ));
    }
    t.msgs += report.messages;
    t.hook_codec_ns += stats.codec_ns.load(Ordering::Relaxed);
    let events = rec.events;
    t.add_run(rec, report.completed, events);
    if traced {
        for node in nodes {
            t.captured.extend(node.captured);
        }
    }
}

/// Runs clusters with seeds `mix(seed, 0), mix(seed, 1), ..` for
/// `seconds` (see [`crate::tally::measure`]).
pub fn measure(n: usize, rounds: u32, seed: u64, seconds: f64, traced: bool) -> Vec<Tally> {
    tally::measure(seconds, traced, 2, |k, traced, t| {
        run_once(n, rounds, crate::mix(seed, k), traced, t)
    })
}
