//! What a workload measured, summed over every run it made, and the
//! end-to-end metrics derived from it.

use std::time::{Duration, Instant};

use rcv_core::RcvMessage;
use rcv_simnet::profile;

use crate::probe::Record;
use crate::stats::{median, peak_rss_kb, percentile, ratio, Metric};

/// Rates and latencies of one run (one simulation or one cluster); the
/// end-to-end figures are medians over an invocation's runs, so one run
/// disturbed by the machine moves them little.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    pub events_per_sec: f64,
    pub cs_per_sec: f64,
    pub acquire_p50_us: f64,
    pub acquire_p90_us: f64,
    pub acquire_p99_us: f64,
    pub response_ticks_mean: f64,
}

/// Totals over the timed part of one invocation (one pass when traced).
#[derive(Default)]
pub struct Tally {
    /// Node records merged over every node of every run.
    pub rec: Record,
    /// Σ over runs of first request → last release, in ns.
    pub busy_ns: u64,
    /// Σ over runs of the whole call's wall time, in ns.
    pub wall_ns: u64,
    /// One sample per set-up: call start → first CS request, in s.
    pub setup_s: Vec<f64>,
    /// CS requested / completed, unsafe entries, anomaly counters.
    pub requested: u64,
    pub completed: u64,
    pub unsafe_entries: u64,
    pub anomalies: u64,
    /// Failures that are not per-CS (timeouts, crashed workers, wire
    /// faults, codec mismatches), each described.
    pub faults: Vec<String>,
    /// Protocol events (engine events on the simulator, handler calls on
    /// the real tiers) and messages sent.
    pub events: u64,
    pub msgs: u64,
    /// Peak resident memory of the run, in kB: worker processes' share
    /// while running, this process's peak added at the end of the pass.
    pub peak_rss_kb: u64,
    /// Thread tier, traced: codec time spent in the wire hook.
    pub hook_codec_ns: u64,
    /// Traced: received messages kept for the codec replay.
    pub captured: Vec<RcvMessage>,
    /// Simulator: `seed events msgs wire_bytes` per run, for the
    /// determinism check.
    pub fingerprints: Vec<String>,
    /// One entry per measured run.
    pub runs: Vec<RunStats>,
    /// Keep every run's per-CS samples in `rec` (traced passes, whose
    /// per-layer metrics need them); otherwise they are dropped after the
    /// run's statistics are taken, so the bench's own memory does not grow
    /// with run length and distort `peak_rss_mb`.
    pub keep_samples: bool,
}

impl Tally {
    /// Folds one run's merged node record in: `completed` CS and `events`
    /// protocol events over the record's busy span.
    pub fn add_run(&mut self, mut rec: Record, completed: u64, events: u64) {
        let busy_s = rec.busy_ns() as f64 / 1e9;
        self.runs.push(RunStats {
            events_per_sec: ratio(events as f64, busy_s),
            cs_per_sec: ratio(completed as f64, busy_s),
            acquire_p50_us: percentile(&rec.acquire_ns, 0.50) / 1e3,
            acquire_p90_us: percentile(&rec.acquire_ns, 0.90) / 1e3,
            acquire_p99_us: percentile(&rec.acquire_ns, 0.99) / 1e3,
            response_ticks_mean: ratio(rec.response_ticks as f64, rec.acquire_ns.len() as f64),
        });
        self.busy_ns += rec.busy_ns();
        self.completed += completed;
        self.events += events;
        if !self.keep_samples {
            rec.acquire_ns = Vec::new();
            rec.gap_ns = Vec::new();
        }
        self.rec.merge(&rec);
    }

    pub fn run_median(&self, f: fn(&RunStats) -> f64) -> f64 {
        median(&self.runs.iter().map(f).collect::<Vec<_>>())
    }

    /// Requested CS that did not complete safely, plus anomalies and
    /// run-level faults.
    pub fn failed(&self) -> u64 {
        self.requested.saturating_sub(self.completed)
            + self.unsafe_entries
            + self.anomalies
            + self.faults.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.requested > 0
    }

    /// Mean closed-loop cycle per node implied by Little's law:
    /// `N / cs_per_sec`, in ns.
    pub fn cycle_ns(&self, n: usize) -> f64 {
        ratio(n as f64 * self.busy_ns as f64, self.completed as f64)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let done = self.completed as f64;
        let ok = self.requested.saturating_sub(self.failed()) as f64;
        vec![
            Metric {
                name: "setup_s",
                value: median(&self.setup_s),
                unit: "s",
            },
            Metric {
                name: "events_per_sec",
                value: self.run_median(|r| r.events_per_sec),
                unit: "events/s",
            },
            Metric {
                name: "cs_per_sec",
                value: self.run_median(|r| r.cs_per_sec),
                unit: "CS/s",
            },
            Metric {
                name: "acquire_p50_us",
                value: self.run_median(|r| r.acquire_p50_us),
                unit: "us",
            },
            Metric {
                name: "acquire_p90_us",
                value: self.run_median(|r| r.acquire_p90_us),
                unit: "us",
            },
            Metric {
                name: "msgs_per_cs",
                value: ratio(self.msgs as f64, done),
                unit: "msgs",
            },
            Metric {
                name: "wire_bytes_per_cs",
                value: ratio(self.rec.recv_bytes as f64, done),
                unit: "B",
            },
            Metric {
                name: "peak_rss_mb",
                value: self.peak_rss_kb as f64 / 1024.0,
                unit: "MB",
            },
            Metric {
                name: "cs_ok_frac",
                value: ratio(ok, self.requested as f64),
                unit: "ratio",
            },
        ]
    }
}

/// Calls `run(k, traced, tally)` for `k = 0, 1, ..` until `budget` has
/// passed and at least `min_runs` ran, or exactly `runs` times. Returns
/// the number of runs.
fn pass(
    budget: Duration,
    min_runs: usize,
    runs: Option<usize>,
    traced: bool,
    t: &mut Tally,
    run: &mut impl FnMut(u64, bool, &mut Tally),
) -> usize {
    let t0 = Instant::now();
    let mut k = 0;
    loop {
        run(k as u64, traced, t);
        k += 1;
        if runs.map_or(k >= min_runs && t0.elapsed() >= budget, |r| k >= r) {
            t.peak_rss_kb += peak_rss_kb();
            return k;
        }
    }
}

/// Measures a workload for `seconds`. Untraced: one pass, returned
/// alone. Traced: an untraced pass for half the time, then a
/// traced pass over the same run indices, returned as `[untraced,
/// traced]`; the two must agree on every simulator fingerprint.
pub fn measure(
    seconds: f64,
    traced: bool,
    min_runs: usize,
    mut run: impl FnMut(u64, bool, &mut Tally),
) -> Vec<Tally> {
    let budget = Duration::from_secs_f64(seconds);
    let mut plain = Tally::default();
    if !traced {
        pass(budget, min_runs, None, false, &mut plain, &mut run);
        return vec![plain];
    }
    let runs = pass(budget / 2, min_runs, None, false, &mut plain, &mut run);
    let mut t = Tally {
        keep_samples: true,
        ..Tally::default()
    };
    profile::set_enabled(true);
    let _ = profile::take();
    pass(Duration::ZERO, runs, Some(runs), true, &mut t, &mut run);
    // The simulator's last metrics probes ran after the last handler.
    t.rec.absorb_probes();
    profile::set_enabled(false);
    if plain.fingerprints != t.fingerprints {
        t.faults.push(format!(
            "determinism: untraced {:?} != traced {:?}",
            plain.fingerprints, t.fingerprints
        ));
    }
    vec![plain, t]
}
