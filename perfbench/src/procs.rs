//! Process tier: `orchestrator::run_process_cluster` over Unix-domain
//! sockets, with this same binary re-executed as each worker. A worker
//! runs `orchestrator::run_worker` over `Timed<RcvNode>` and, before its
//! final report frame, writes its record (and, traced, its captured
//! payloads) to a file the bench process reads after the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rcv_core::{RcvMessage, RcvNode};
use rcv_runtime::orchestrator::{run_process_cluster, run_worker, ProcessSpec};
use rcv_runtime::wire::WireCodec;
use rcv_runtime::NetDelay;
use rcv_simnet::profile;

use crate::probe::{unix_ns, Record, Timed};
use crate::stats::peak_rss_kb;
use crate::tally::{self, Tally};

/// First argument that turns this binary into a cluster worker.
pub const WORKER_ARG: &str = "__perfbench_worker";

/// Protocol tag the hub and the workers agree on.
const TAG: &str = "rcv";

/// Serves as a worker when argv asks for it; returns the exit code, or
/// `None` for a normal bench invocation.
pub fn maybe_worker() -> Option<i32> {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some(WORKER_ARG) {
        return None;
    }
    Some(match worker(&args[2..]) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            1
        }
    })
}

fn worker(rest: &[String]) -> Result<(), String> {
    let [addr, node, out, traced] = rest else {
        return Err(format!("want <addr> <node> <out> <traced>, got {rest:?}"));
    };
    let node: u32 = node.parse().map_err(|e| format!("node {node:?}: {e}"))?;
    let traced = traced == "1";
    profile::set_enabled(traced);
    let mut dumped = Ok(());
    run_worker(
        addr,
        node,
        TAG,
        |id, n, _cfg| Timed::new(RcvNode::new(id, n), id, n, traced),
        |p, _cfg| {
            // Written before the report frame: the hub kills its workers
            // as soon as every report is in.
            dumped = dump(p, Path::new(out));
            p.inner.stats().anomalies()
        },
    )?;
    dumped
}

fn dump(p: &Timed<RcvNode>, out: &Path) -> Result<(), String> {
    let text = format!("{}\n{}", peak_rss_kb(), p.rec.to_text());
    std::fs::write(out, text).map_err(|e| format!("write {}: {e}", out.display()))?;
    if !p.captured.is_empty() {
        let mut bin = Vec::new();
        for m in &p.captured {
            let b = m.encode_wire();
            bin.extend_from_slice(&(b.len() as u32).to_be_bytes());
            bin.extend_from_slice(b.as_ref());
        }
        std::fs::write(out.with_extension("bin"), bin).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Reads one worker's files back: `(peak_rss_kb, record, payloads)`.
fn load(out: &Path) -> Result<(u64, Record, Vec<RcvMessage>), String> {
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let (rss, rest) = text.split_once('\n').unwrap_or((&text, ""));
    let rss = rss.parse().map_err(|e| format!("peak rss {rss:?}: {e}"))?;
    let rec = Record::from_text(rest)?;
    let mut msgs = Vec::new();
    if let Ok(bin) = std::fs::read(out.with_extension("bin")) {
        let mut at = 0;
        while at + 4 <= bin.len() {
            let len = u32::from_be_bytes([bin[at], bin[at + 1], bin[at + 2], bin[at + 3]]) as usize;
            let end = (at + 4 + len).min(bin.len());
            let m = RcvMessage::decode_wire(bin[at + 4..end].to_vec().into())
                .map_err(|e| format!("captured payload: {e}"))?;
            msgs.push(m);
            at = end;
        }
    }
    Ok((rss, rec, msgs))
}

/// Runs one closed-loop cluster of `n` worker processes × `rounds` CS and
/// folds it into `t`. Worker files go to `dir`.
fn run_once(n: usize, rounds: u32, seed: u64, traced: bool, dir: &Path, t: &mut Tally) {
    let spec = ProcessSpec::quick(n, seed, TAG)
        .rounds(rounds)
        .think(Duration::ZERO)
        .cs_duration(Duration::ZERO)
        .delay(NetDelay::None)
        .timeout(Duration::from_secs(60));
    let exe = std::env::current_exe().expect("path of the running bench binary");
    let outs: Vec<PathBuf> = (0..n).map(|i| dir.join(format!("w{i}.txt"))).collect();
    for out in &outs {
        let _ = std::fs::remove_file(out);
        let _ = std::fs::remove_file(out.with_extension("bin"));
    }
    t.requested += n as u64 * rounds as u64;
    let start_ns = unix_ns();
    let t0 = Instant::now();
    let res = run_process_cluster(&spec, |addr| {
        outs.iter()
            .enumerate()
            .map(|(i, out)| {
                Command::new(&exe)
                    .arg(WORKER_ARG)
                    .arg(addr)
                    .arg(i.to_string())
                    .arg(out)
                    .arg(if traced { "1" } else { "0" })
                    .stdin(Stdio::null())
                    .spawn()
            })
            .collect()
    });
    t.wall_ns += t0.elapsed().as_nanos() as u64;
    let report = match res {
        Ok(report) => report,
        Err(e) => {
            t.faults.push(format!("seed {seed}: {e}"));
            return;
        }
    };
    let r = &report.report;
    if !report.is_clean(n as u64 * rounds as u64) {
        t.faults.push(format!(
            "seed {seed}: unclean run (timed out {}, crashed {:?}, faults {:?}, \
             entries {} for {} completions)",
            r.timed_out, report.crashed, report.faults, r.cs_entries, r.completed
        ));
    }
    t.unsafe_entries += r.violations;
    t.anomalies += report.anomalies;
    t.msgs += r.messages;

    let mut rec = Record::default();
    let mut workers_rss = 0;
    for out in &outs {
        match load(out) {
            Ok((rss, node_rec, msgs)) => {
                workers_rss += rss;
                rec.merge(&node_rec);
                t.captured.extend(msgs);
            }
            Err(e) => t.faults.push(format!("seed {seed}: worker record: {e}")),
        }
    }
    t.setup_s
        .push(rec.first_request_ns.saturating_sub(start_ns) as f64 / 1e9);
    // The largest one-cluster sum of worker peaks; the pass adds the
    // hub's own peak.
    t.peak_rss_kb = t.peak_rss_kb.max(workers_rss);
    let events = rec.events;
    t.add_run(rec, r.completed, events);
}

/// Runs clusters with seeds `mix(seed, 0), mix(seed, 1), ..` for
/// `seconds` (see [`crate::tally::measure`]). Worker files go to `dir`.
pub fn measure(
    n: usize,
    rounds: u32,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Vec<Tally> {
    tally::measure(seconds, traced, 2, |k, traced, t| {
        run_once(n, rounds, crate::mix(seed, k), traced, dir, t)
    })
}
