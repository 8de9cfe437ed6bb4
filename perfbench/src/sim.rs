//! Simulator workloads, driven through `Engine::new` / `run_collecting`
//! with every node wrapped in [`Timed`].

use std::time::Instant;

use rcv_core::RcvNode;
use rcv_simnet::{BurstOnce, Engine, SimConfig, SimTime, Workload};
use rcv_workload::PoissonWorkload;

use crate::probe::{unix_ns, Record, Timed};
use crate::tally::{self, Tally};

/// Set-ups timed per invocation besides the measured runs' own: engines
/// built and stopped right after their first request.
const SETUP_PROBES: usize = 5;

/// One simulator workload.
#[derive(Clone, Copy, Debug)]
pub enum SimLoad {
    /// The paper's Figure 4/5 scenario: every node requests once at t=0.
    Burst { n: usize },
    /// The paper's Figure 6/7 closed-loop Poisson arrivals, run to
    /// `horizon` ticks.
    Poisson {
        n: usize,
        inv_lambda: f64,
        horizon: u64,
    },
}

impl SimLoad {
    pub fn n(&self) -> usize {
        match *self {
            SimLoad::Burst { n } | SimLoad::Poisson { n, .. } => n,
        }
    }

    fn config(&self, seed: u64) -> SimConfig {
        SimConfig::paper(self.n(), seed)
    }

    fn poisson(inv_lambda: f64, horizon: u64) -> PoissonWorkload {
        PoissonWorkload {
            horizon: SimTime::from_ticks(horizon),
            ..PoissonWorkload::paper(inv_lambda)
        }
    }

    /// Runs one simulation of this workload and folds it into `t`.
    fn run(&self, cfg: SimConfig, traced: bool, t: &mut Tally) -> Vec<Timed<RcvNode>> {
        match *self {
            SimLoad::Burst { .. } => run_engine(cfg, BurstOnce, traced, t),
            SimLoad::Poisson {
                inv_lambda,
                horizon,
                ..
            } => run_engine(cfg, Self::poisson(inv_lambda, horizon), traced, t),
        }
    }
}

fn run_engine<W: Workload>(
    cfg: SimConfig,
    workload: W,
    traced: bool,
    t: &mut Tally,
) -> Vec<Timed<RcvNode>> {
    let seed = cfg.seed;
    // A set-up probe (see `setup_probes`) stops after its first event.
    let probe_only = cfg.max_events == 1;
    let start_ns = unix_ns();
    let engine = Engine::new(cfg, workload, |id, n| {
        Timed::new(RcvNode::new(id, n), id, n, traced)
    });
    // Wall time of the run itself; construction is in the set-up time.
    let t0 = Instant::now();
    let (report, nodes) = engine.run_collecting();
    let wall = t0.elapsed();

    let rec = Record::merged(nodes.iter().map(|p| &p.rec));
    if rec.first_request_ns != 0 {
        t.setup_s
            .push(rec.first_request_ns.saturating_sub(start_ns) as f64 / 1e9);
    }
    if probe_only {
        return nodes;
    }
    let m = &report.metrics;
    t.wall_ns += wall.as_nanos() as u64;
    t.requested += (m.completed() + m.outstanding()) as u64;
    t.unsafe_entries += report.violations.len() as u64;
    t.anomalies += nodes
        .iter()
        .map(|p| p.inner.stats().anomalies())
        .sum::<u64>();
    if !report.all_completed() {
        t.faults.push(format!(
            "seed {seed}: run did not complete (deadlocked {}, truncated {})",
            report.deadlocked, report.truncated
        ));
    }
    t.msgs += m.messages_sent();
    t.fingerprints.push(format!(
        "seed {seed} events {} msgs {} wire_bytes {}",
        report.events,
        m.messages_sent(),
        m.wire_bytes()
    ));
    t.add_run(rec, m.completed() as u64, report.events);
    nodes
}

/// Times `SETUP_PROBES` set-ups: each engine is stopped after its first
/// event, which is a CS request on both workloads.
fn setup_probes(load: &SimLoad, seed: u64, t: &mut Tally) {
    for k in 0..SETUP_PROBES as u64 {
        let mut cfg = load.config(crate::mix(seed, 1_000 + k));
        cfg.max_events = 1;
        load.run(cfg, false, t);
    }
}

/// Runs simulations with seeds `mix(seed, 0), mix(seed, 1), ..` for
/// `seconds` (see [`crate::tally::measure`]).
pub fn measure(load: &SimLoad, seed: u64, seconds: f64, traced: bool) -> Vec<Tally> {
    let mut tallies = tally::measure(seconds, traced, 1, |k, traced, t| {
        let nodes = load.run(load.config(crate::mix(seed, k)), traced, t);
        if traced {
            for node in nodes {
                t.captured.extend(node.captured);
            }
        }
    });
    if !traced {
        setup_probes(load, seed, &mut tallies[0]);
    }
    tallies
}
