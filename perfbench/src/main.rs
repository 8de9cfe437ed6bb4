//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one RCV workload (Random forwarding) for about `--seconds`,
//! checks every run for safety, liveness and protocol anomalies, and
//! prints one JSON object as the last line of stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when a correctness check failed, 2 on a usage error. The
//! workloads and metrics are described in `BENCHMARK.json`.

mod codec;
mod probe;
mod procs;
mod sim;
mod stats;
mod tally;
mod threads;

use std::path::PathBuf;

use codec::CodecCosts;
use probe::KINDS;
use rcv_simnet::profile::PROBE_NAMES;
use sim::SimLoad;
use stats::{mean, percentile, ratio, result_line, Metric};
use tally::Tally;

#[global_allocator]
static ALLOC: rcv_allocmeter::CountingAllocator = rcv_allocmeter::CountingAllocator;

/// Nodes and CS rounds per node of one real-tier cluster.
const REAL_N: usize = 3;
const THREAD_ROUNDS: u32 = 2_000;
const PROCESS_ROUNDS: u32 = 300;

#[derive(Clone, Copy, Debug)]
enum Load {
    Sim(SimLoad),
    Threads,
    Process,
}

impl Load {
    fn parse(name: &str) -> Option<Load> {
        Some(match name {
            "sim-burst-n200" => Load::Sim(SimLoad::Burst { n: 200 }),
            "sim-poisson-n30" => Load::Sim(SimLoad::Poisson {
                n: 30,
                inv_lambda: 10.0,
                horizon: 100_000,
            }),
            "threads-n3" => Load::Threads,
            "proc-uds-n3" => Load::Process,
            _ => return None,
        })
    }

    fn n(&self) -> usize {
        match self {
            Load::Sim(s) => s.n(),
            Load::Threads | Load::Process => REAL_N,
        }
    }
}

/// Derives the `k`-th run seed from the invocation seed (SplitMix64).
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    load: Load,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sim-burst-n200|sim-poisson-n30|threads-n3|\
                     proc-uds-n3> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut load, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                load = Some(Load::parse(val).ok_or(format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed {val:?}: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds {val:?}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        load: load.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Private scratch directory for the process tier's sockets, CS log and
/// worker records, relative to the working directory (short socket
/// paths; nothing written outside the checkout).
fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_tmp").join(std::process::id().to_string())
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer metrics of a traced invocation.
fn per_layer(load: Load, plain: &Tally, t: &Tally, codec: &CodecCosts) -> Vec<Metric> {
    let events = t.events as f64;
    let done = t.completed as f64;
    let ph = |name: &str| {
        let i = PROBE_NAMES
            .iter()
            .position(|&p| p == name)
            .expect("a probe phase");
        ratio(t.rec.phases[i] as f64, events)
    };
    let probed: u64 = t.rec.phases.iter().sum();
    // Simulator: the engine is the wall time of `run` not covered by a
    // probed phase, so the phases and the engine sum to the wall time.
    let engine_ns = if matches!(load, Load::Sim(_)) {
        ratio(t.wall_ns.saturating_sub(probed) as f64, events)
    } else {
        0.0
    };
    let acq_mean = mean(&t.rec.acquire_ns);
    let gap = &t.rec.gap_ns;
    let handler_per_cs = ratio(t.rec.handler_ns as f64, done);
    // Share of the mean acquire not covered by protocol handlers or codec
    // work (per CS, over all nodes): waiting in queues and for wake-ups.
    let wait_frac = |codec_per_cs: f64| 1.0 - ratio(handler_per_cs + codec_per_cs, acq_mean);
    let (cluster_wait, hub_wait, little) = match load {
        Load::Sim(_) => (0.0, 0.0, 0.0),
        Load::Threads => (
            wait_frac(ratio(t.hook_codec_ns as f64, done)),
            0.0,
            1.0 - ratio(acq_mean + mean(gap), t.cycle_ns(load.n())),
        ),
        Load::Process => (
            0.0,
            wait_frac(codec.process_hop_ns() * ratio(t.msgs as f64, done)),
            1.0 - ratio(acq_mean + mean(gap), t.cycle_ns(load.n())),
        ),
    };
    let per_cs_ns = |x: &Tally| ratio(x.busy_ns as f64, x.completed as f64);
    let overhead = ratio(per_cs_ns(t), per_cs_ns(plain)) - 1.0;
    let kind = |k: &str| {
        let i = KINDS.iter().position(|&x| x == k).expect("a message class");
        ratio(t.rec.kinds[i] as f64, done)
    };
    vec![
        metric("core.snapshot_ns_per_event", ph("snapshot"), "ns"),
        metric("core.merge_ns_per_event", ph("merge"), "ns"),
        metric("core.normalize_ns_per_event", ph("normalize"), "ns"),
        metric("core.order_ns_per_event", ph("order"), "ns"),
        metric(
            "core.heap_bytes_per_event",
            ratio(t.rec.heap_bytes as f64, events),
            "B",
        ),
        metric("core.handler_us_per_cs", handler_per_cs / 1e3, "us"),
        metric("simnet.engine_ns_per_event", engine_ns, "ns"),
        metric("simnet.metrics_ns_per_event", ph("metrics"), "ns"),
        metric("simnet.events_per_cs", ratio(events, done), "count"),
        metric(
            "simnet.response_ticks_mean",
            t.run_median(|r| r.response_ticks_mean),
            "ticks",
        ),
        metric("msgs.rm_per_cs", kind("RM"), "count"),
        metric("msgs.em_per_cs", kind("EM"), "count"),
        metric("msgs.im_per_cs", kind("IM"), "count"),
        metric("msgs.rv_per_cs", kind("RV"), "count"),
        metric("wire.encode_ns_per_msg", codec.encode_ns, "ns"),
        metric("wire.decode_ns_per_msg", codec.decode_ns, "ns"),
        metric("wire.bytes_per_msg", codec.bytes_per_msg, "B"),
        metric(
            "node.acquire_p99_us",
            t.run_median(|r| r.acquire_p99_us),
            "us",
        ),
        metric(
            "node.release_to_request_us_p50",
            percentile(gap, 0.5) / 1e3,
            "us",
        ),
        metric("node.release_to_request_us_mean", mean(gap) / 1e3, "us"),
        metric("node.little_gap_frac", little, "ratio"),
        metric("cluster.wait_frac", cluster_wait, "ratio"),
        metric("hub.wait_frac", hub_wait, "ratio"),
        metric("hub.frame_encode_ns", codec.frame_encode_ns, "ns"),
        metric("hub.frame_decode_ns", codec.frame_decode_ns, "ns"),
        metric("trace.overhead_frac", overhead, "ratio"),
    ]
}

fn report_faults(t: &Tally) {
    for f in &t.faults {
        eprintln!("perfbench: FAILED: {f}");
    }
    if t.unsafe_entries + t.anomalies > 0 {
        eprintln!(
            "perfbench: FAILED: {} unsafe CS entries, {} protocol anomalies",
            t.unsafe_entries, t.anomalies
        );
    }
}

fn main() {
    if let Some(code) = procs::maybe_worker() {
        std::process::exit(code);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = scratch_dir();
    if matches!(args.load, Load::Process) {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: create {}: {e}", dir.display());
            std::process::exit(2);
        }
        // The hub places its socket and CS log in the temp directory.
        std::env::set_var("TMPDIR", &dir);
    }
    let (seed, secs, n) = (args.seed, args.seconds, args.load.n());

    let mut tallies = match args.load {
        Load::Sim(s) => sim::measure(&s, seed, secs, args.trace),
        Load::Threads => threads::measure(n, THREAD_ROUNDS, seed, secs, args.trace),
        Load::Process => procs::measure(n, PROCESS_ROUNDS, seed, secs, args.trace, &dir),
    };
    let metrics = match &mut tallies[..] {
        [plain, traced] => {
            let codec = codec::replay(&traced.captured).unwrap_or_else(|e| {
                traced.faults.push(format!("codec replay: {e}"));
                CodecCosts::default()
            });
            per_layer(args.load, plain, traced, &codec)
        }
        [t] => t.end_to_end(),
        _ => unreachable!("one pass untraced, two traced"),
    };
    if matches!(args.load, Load::Process) {
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".bench_tmp");
    }

    for t in &tallies {
        for f in &t.fingerprints {
            println!("fingerprint {f}");
        }
        for (k, r) in t.runs.iter().enumerate() {
            println!(
                "run {k}: {:.1} CS/s, {:.1} events/s, acquire p50 {:.1} us p90 {:.1} us \
                 p99 {:.1} us, response {:.2} ticks",
                r.cs_per_sec,
                r.events_per_sec,
                r.acquire_p50_us,
                r.acquire_p90_us,
                r.acquire_p99_us,
                r.response_ticks_mean
            );
        }
        report_faults(t);
    }
    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let attempted: u64 = tallies.iter().map(|t| t.requested).sum();
    let failed: u64 = tallies.iter().map(Tally::failed).sum();
    let correct = tallies.iter().all(Tally::correct);
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
