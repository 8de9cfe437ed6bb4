//! Declarative scenario conformance registry.
//!
//! The paper's evaluation is two workloads over a handful of `N` values;
//! the roadmap demands a system that proves itself under *every* regime on
//! every PR. This module is the missing layer: a named, versioned grid of
//! scenarios — workload shape × fault regime × delay model × `N` × seeds —
//! composed from the existing generators ([`crate::arrival`],
//! [`crate::phased`]), `rcv_simnet`'s fault injection and its non-FIFO
//! delay models.
//!
//! A **scenario** ([`ScenarioSpec`]) is pure data; a **cell** is one
//! scenario × one algorithm. [`run_cell`] executes a cell over its
//! deterministic per-seed RNG streams, checks the safety/liveness
//! invariants the cell is entitled to, and condenses the runs into a
//! [`CellResult`] whose fingerprint (completions, messages, NME, RT,
//! end-time) is bit-stable across hosts — so the committed
//! `MATRIX_RESULTS.json` makes behavioral drift diffable across PRs.
//!
//! ## Invariant policy
//!
//! * **Safety is unconditional**: no cell may ever record a mutual
//!   exclusion violation, whatever the fault regime.
//! * **Liveness is conditional**: message loss and crash-stop faults break
//!   the reliable-channel assumption every algorithm's liveness argument
//!   rests on ([`rcv_simnet::FaultPlan::threatens_liveness`]), so such
//!   cells demand clean termination and safety only — the stall pattern is
//!   still pinned by the fingerprint. All other cells (including
//!   duplication, stragglers, jitter) must complete every request.
//! * **Applicability**: algorithms that assume FIFO channels
//!   ([`crate::Algo::requires_fifo`]) are excluded from jittered cells;
//!   duplication regimes run only on algorithms with idempotent delivery
//!   guards (RCV — the fault battery proves them).

use rcv_simnet::{
    DelayModel, FaultPlan, NodeId, RetryPolicy, SimConfig, SimDuration, SimReport, SimTime,
};

use crate::algo::Algo;
use crate::arrival::{HotSpotWorkload, PoissonWorkload, SaturationWorkload};
use crate::phased::{Phase, PhasedWorkload, TimedPhase};
use crate::sweep::parmap;

/// Version tag of the registry contents. Bump when scenarios are added,
/// removed or re-parameterized, so a baseline mismatch is attributable.
pub const REGISTRY_VERSION: &str = "rcv-scenario-registry/v3";

/// Workload shape of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum ShapeSpec {
    /// Every node requests once at `t = 0` (the paper's Figures 4-5).
    Burst,
    /// Closed-loop Poisson arrivals until `horizon` ticks.
    Poisson {
        /// Mean inter-arrival time in ticks (`1/λ`).
        mean: f64,
        /// Arrival horizon in ticks.
        horizon: u64,
    },
    /// Saturation: every node requests `1 + rounds` times back-to-back.
    Saturation {
        /// Extra rounds after the first request.
        rounds: u32,
    },
    /// Skewed demand: `hot` nodes at `hot_mean`, the rest at `cold_mean`.
    HotSpot {
        /// Number of hot nodes.
        hot: usize,
        /// Hot mean inter-arrival in ticks.
        hot_mean: f64,
        /// Cold mean inter-arrival in ticks.
        cold_mean: f64,
        /// Arrival horizon in ticks.
        horizon: u64,
    },
    /// Phased load ramp: `steps` Poisson phases of `step_ticks` each, the
    /// mean inter-arrival interpolating from `start_mean` down/up to
    /// `end_mean` (linearly per step).
    Ramp {
        /// Mean inter-arrival of the first phase.
        start_mean: f64,
        /// Mean inter-arrival of the last phase.
        end_mean: f64,
        /// Number of phases.
        steps: u32,
        /// Ticks per phase.
        step_ticks: u64,
    },
}

impl ShapeSpec {
    /// Materializes the workload for a system of `n` nodes.
    pub fn workload(&self, n: usize) -> ScenarioWorkload {
        match *self {
            ShapeSpec::Burst => ScenarioWorkload::Burst(rcv_simnet::BurstOnce),
            ShapeSpec::Poisson { mean, horizon } => ScenarioWorkload::Poisson(PoissonWorkload {
                mean_interarrival: mean,
                horizon: SimTime::from_ticks(horizon),
            }),
            ShapeSpec::Saturation { rounds } => {
                ScenarioWorkload::Saturation(SaturationWorkload::new(n, rounds))
            }
            ShapeSpec::HotSpot {
                hot,
                hot_mean,
                cold_mean,
                horizon,
            } => ScenarioWorkload::HotSpot(HotSpotWorkload::new(
                hot,
                hot_mean,
                cold_mean,
                SimTime::from_ticks(horizon),
            )),
            ShapeSpec::Ramp {
                start_mean,
                end_mean,
                steps,
                step_ticks,
            } => {
                assert!(steps >= 1, "ramp needs at least one step");
                let phases = (0..steps)
                    .map(|i| {
                        let t = if steps == 1 {
                            0.0
                        } else {
                            i as f64 / (steps - 1) as f64
                        };
                        TimedPhase {
                            phase: Phase::Poisson {
                                mean_interarrival: start_mean + (end_mean - start_mean) * t,
                            },
                            duration: SimDuration::from_ticks(step_ticks),
                        }
                    })
                    .collect();
                ScenarioWorkload::Ramp(PhasedWorkload::new(phases))
            }
        }
    }

    /// Short label used in scenario names.
    pub fn family(&self) -> &'static str {
        match self {
            ShapeSpec::Burst => "burst",
            ShapeSpec::Poisson { .. } => "poisson",
            ShapeSpec::Saturation { .. } => "saturation",
            ShapeSpec::HotSpot { .. } => "hotspot",
            ShapeSpec::Ramp { .. } => "ramp",
        }
    }
}

/// Enum-dispatched workload so one engine call covers every shape.
#[derive(Clone, Debug)]
pub enum ScenarioWorkload {
    /// See [`ShapeSpec::Burst`].
    Burst(rcv_simnet::BurstOnce),
    /// See [`ShapeSpec::Poisson`].
    Poisson(PoissonWorkload),
    /// See [`ShapeSpec::Saturation`].
    Saturation(SaturationWorkload),
    /// See [`ShapeSpec::HotSpot`].
    HotSpot(HotSpotWorkload),
    /// See [`ShapeSpec::Ramp`].
    Ramp(PhasedWorkload),
}

impl rcv_simnet::Workload for ScenarioWorkload {
    fn init(
        &mut self,
        n: usize,
        rng: &mut rand::rngs::SmallRng,
        sink: &mut rcv_simnet::ArrivalSink,
    ) {
        match self {
            ScenarioWorkload::Burst(w) => w.init(n, rng, sink),
            ScenarioWorkload::Poisson(w) => w.init(n, rng, sink),
            ScenarioWorkload::Saturation(w) => w.init(n, rng, sink),
            ScenarioWorkload::HotSpot(w) => w.init(n, rng, sink),
            ScenarioWorkload::Ramp(w) => w.init(n, rng, sink),
        }
    }

    fn on_complete(
        &mut self,
        node: NodeId,
        now: SimTime,
        rng: &mut rand::rngs::SmallRng,
        sink: &mut rcv_simnet::ArrivalSink,
    ) {
        match self {
            ScenarioWorkload::Burst(w) => w.on_complete(node, now, rng, sink),
            ScenarioWorkload::Poisson(w) => w.on_complete(node, now, rng, sink),
            ScenarioWorkload::Saturation(w) => w.on_complete(node, now, rng, sink),
            ScenarioWorkload::HotSpot(w) => w.on_complete(node, now, rng, sink),
            ScenarioWorkload::Ramp(w) => w.on_complete(node, now, rng, sink),
        }
    }
}

/// Fault regime of a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// The paper's reliable model.
    None,
    /// Every `every`-th message delivered twice.
    Duplication {
        /// Duplication period.
        every: u64,
    },
    /// Every `every`-th message lost in the network.
    Loss {
        /// Loss period.
        every: u64,
    },
    /// A node crash-stops at `at`. The scenario name carries the intent:
    /// `cancel-*` cells time the crash mid-wait, so the in-flight request
    /// is silently abandoned (churn-adjacent cancellation — the closest
    /// observable to a client cancelling a request this protocol family
    /// admits); `crash-holder-*` cells time it inside a CS window.
    Crash {
        /// The crashing node.
        node: u32,
        /// Crash instant in ticks.
        at: u64,
    },
    /// A bounded outage with recovery: the node is down during `[down,
    /// up)` ticks, deliveries into the window vanish, and at `up` the
    /// engine invokes the protocol's restart hook
    /// ([`rcv_simnet::MutexProtocol::on_restart`]). Only algorithms with a
    /// recovery story run these cells ([`ScenarioSpec::algorithms`]
    /// filters to RCV; the baselines keep pre-crash state and are
    /// documented non-recoverable).
    CrashRestart {
        /// The node that goes down and comes back.
        node: u32,
        /// First down tick (inclusive).
        down: u64,
        /// Restart tick.
        up: u64,
    },
    /// The chaos regime: a crash window stacked with message loss and a
    /// straggler — the registry's harshest liveness demand.
    Chaos {
        /// Crash window `(node, down, up)`.
        crash: (u32, u64, u64),
        /// Loss period.
        loss_every: u64,
        /// Straggler `(node, factor)`.
        straggler: (u32, u64),
    },
    /// A slow node: messages to/from it take `factor ×` the sampled delay.
    Straggler {
        /// The slow node.
        node: u32,
        /// Delay multiplier.
        factor: u64,
    },
    /// The stacked regime: loss + duplication + straggler at once.
    Stacked {
        /// Loss period.
        loss_every: u64,
        /// Duplication period.
        dup_every: u64,
        /// Straggler `(node, factor)`.
        straggler: (u32, u64),
    },
}

impl FaultSpec {
    /// Builds the concrete [`FaultPlan`].
    pub fn plan(&self) -> FaultPlan {
        match *self {
            FaultSpec::None => FaultPlan::none(),
            FaultSpec::Duplication { every } => FaultPlan::duplicating(every),
            FaultSpec::Loss { every } => FaultPlan::losing(every),
            FaultSpec::Crash { node, at } => {
                FaultPlan::crash(NodeId::new(node), SimTime::from_ticks(at))
            }
            FaultSpec::CrashRestart { node, down, up } => FaultPlan::crash_restart(
                NodeId::new(node),
                SimTime::from_ticks(down),
                SimTime::from_ticks(up),
            ),
            FaultSpec::Chaos {
                crash: (node, down, up),
                loss_every,
                straggler: (slow, factor),
            } => FaultPlan::losing(loss_every)
                .with_straggler(NodeId::new(slow), factor)
                .with_crash_restart(
                    NodeId::new(node),
                    SimTime::from_ticks(down),
                    SimTime::from_ticks(up),
                ),
            FaultSpec::Straggler { node, factor } => {
                FaultPlan::straggler(NodeId::new(node), factor)
            }
            FaultSpec::Stacked {
                loss_every,
                dup_every,
                straggler: (node, factor),
            } => FaultPlan::losing(loss_every)
                .with_duplication(dup_every)
                .with_straggler(NodeId::new(node), factor),
        }
    }

    /// Whether delivery may be duplicated — such cells only run algorithms
    /// with proven idempotence guards.
    pub fn duplicates(&self) -> bool {
        matches!(
            self,
            FaultSpec::Duplication { .. } | FaultSpec::Stacked { .. }
        )
    }

    /// Whether a node restarts mid-run — such cells only run algorithms
    /// with a crash-recovery story (RCV's restart/rejoin protocol).
    pub fn restarts(&self) -> bool {
        matches!(
            self,
            FaultSpec::CrashRestart { .. } | FaultSpec::Chaos { .. }
        )
    }
}

impl From<&FaultSpec> for FaultPlan {
    /// The simulator-side rendering ([`FaultSpec::plan`]). Total: every
    /// regime has a simulator mirror.
    fn from(spec: &FaultSpec) -> FaultPlan {
        spec.plan()
    }
}

impl TryFrom<&FaultSpec> for rcv_runtime::WireFaults {
    type Error = String;

    /// The runtime-side rendering, applied at the fabric boundary (the
    /// thread fabric's shared fault queue or the orchestrator hub).
    /// Partial: a **permanent** crash-stop ([`FaultSpec::Crash`]) needs a
    /// node to vanish forever, which neither joinable threads nor watched
    /// worker processes can express — only bounded crash *windows* map.
    fn try_from(spec: &FaultSpec) -> Result<rcv_runtime::WireFaults, String> {
        use rcv_runtime::WireFaults;
        let narrow = |factor: u64| -> Result<u32, String> {
            u32::try_from(factor).map_err(|_| format!("straggler factor {factor} exceeds u32"))
        };
        Ok(match *spec {
            FaultSpec::None => WireFaults::none(),
            FaultSpec::Duplication { every } => WireFaults::none().with_duplication(every),
            FaultSpec::Loss { every } => WireFaults::none().with_loss(every),
            FaultSpec::Crash { node, at } => {
                return Err(format!(
                    "permanent crash-stop (node {node} at t={at}) has no wire-level mirror; \
                     only bounded crash windows map to the runtime"
                ))
            }
            FaultSpec::CrashRestart { node, down, up } => {
                WireFaults::none().with_crash_restart(node, down, up)
            }
            FaultSpec::Chaos {
                crash: (node, down, up),
                loss_every,
                straggler: (slow, factor),
            } => WireFaults::none()
                .with_loss(loss_every)
                .with_straggler(slow, narrow(factor)?)
                .with_crash_restart(node, down, up),
            FaultSpec::Straggler { node, factor } => {
                WireFaults::none().with_straggler(node, narrow(factor)?)
            }
            FaultSpec::Stacked {
                loss_every,
                dup_every,
                straggler: (node, factor),
            } => WireFaults::none()
                .with_loss(loss_every)
                .with_duplication(dup_every)
                .with_straggler(node, narrow(factor)?),
        })
    }
}

impl TryFrom<&rcv_runtime::WireFaults> for FaultSpec {
    type Error = String;

    /// Names a wire-fault configuration as the [`FaultSpec`] regime it
    /// renders. Partial: combinations outside the named registry regimes
    /// (e.g. loss + duplication without a straggler) have no canonical
    /// name and are rejected rather than misfiled.
    fn try_from(wf: &rcv_runtime::WireFaults) -> Result<FaultSpec, String> {
        let straggler = wf.straggler.map(|(n, f)| (n, f as u64));
        Ok(
            match (wf.loss_every, wf.dup_every, straggler, wf.crash_restart) {
                (None, None, None, None) => FaultSpec::None,
                (None, Some(every), None, None) => FaultSpec::Duplication { every },
                (Some(every), None, None, None) => FaultSpec::Loss { every },
                (None, None, None, Some((node, down, up))) => {
                    FaultSpec::CrashRestart { node, down, up }
                }
                (Some(loss_every), None, Some(straggler), Some(crash)) => FaultSpec::Chaos {
                    crash,
                    loss_every,
                    straggler,
                },
                (None, None, Some((node, factor)), None) => FaultSpec::Straggler { node, factor },
                (Some(loss_every), Some(dup_every), Some(straggler), None) => FaultSpec::Stacked {
                    loss_every,
                    dup_every,
                    straggler,
                },
                _ => return Err(format!("wire faults {wf:?} match no named regime")),
            },
        )
    }
}

impl TryFrom<&FaultPlan> for FaultSpec {
    type Error = String;

    /// Names a simulator fault plan as its [`FaultSpec`] regime. Partial
    /// for the same reason as the [`rcv_runtime::WireFaults`] direction,
    /// plus: multi-node crash/straggler lists exceed what one named
    /// regime describes.
    fn try_from(plan: &FaultPlan) -> Result<FaultSpec, String> {
        let unnamed = || format!("fault plan {plan:?} matches no named regime");
        if plan.crashes.len() > 1 || plan.restarts.len() > 1 || plan.stragglers.len() > 1 {
            return Err(unnamed());
        }
        let crash = plan.crashes.first().map(|&(n, at)| (n.raw(), at.ticks()));
        let window = plan
            .restarts
            .first()
            .map(|w| (w.node.raw(), w.down_at.ticks(), w.up_at.ticks()));
        let straggler = plan.stragglers.first().map(|&(n, f)| (n.raw(), f));
        if let Some((node, at)) = crash {
            if plan.duplicate_every.is_some()
                || plan.drop_every.is_some()
                || window.is_some()
                || straggler.is_some()
            {
                return Err(unnamed());
            }
            return Ok(FaultSpec::Crash { node, at });
        }
        Ok(
            match (plan.drop_every, plan.duplicate_every, straggler, window) {
                (None, None, None, None) => FaultSpec::None,
                (None, Some(every), None, None) => FaultSpec::Duplication { every },
                (Some(every), None, None, None) => FaultSpec::Loss { every },
                (None, None, None, Some((node, down, up))) => {
                    FaultSpec::CrashRestart { node, down, up }
                }
                (Some(loss_every), None, Some(straggler), Some(crash)) => FaultSpec::Chaos {
                    crash,
                    loss_every,
                    straggler,
                },
                (None, None, Some((node, factor)), None) => FaultSpec::Straggler { node, factor },
                (Some(loss_every), Some(dup_every), Some(straggler), None) => FaultSpec::Stacked {
                    loss_every,
                    dup_every,
                    straggler,
                },
                _ => return Err(unnamed()),
            },
        )
    }
}

/// Delay regime of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelaySpec {
    /// The paper's constant `Tn = 5` (FIFO by construction).
    Constant,
    /// Uniform jitter in `[1, 9]` — genuinely non-FIFO channels.
    Jitter,
    /// Exponential mean 5 capped at 40 — heavy-tailed, aggressive
    /// reordering.
    HeavyTail,
}

impl DelaySpec {
    /// Builds the concrete [`DelayModel`].
    pub fn model(&self) -> DelayModel {
        match self {
            DelaySpec::Constant => DelayModel::paper_constant(),
            DelaySpec::Jitter => DelayModel::paper_jittered(),
            DelaySpec::HeavyTail => DelayModel::Exponential { mean: 5.0, cap: 40 },
        }
    }

    /// Whether channels stay FIFO under this regime.
    pub fn is_fifo(&self) -> bool {
        matches!(self, DelaySpec::Constant)
    }
}

/// One named scenario: pure data, no behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Unique, stable name — the key the baseline diff is keyed on.
    pub name: String,
    /// Workload shape.
    pub shape: ShapeSpec,
    /// Fault regime.
    pub faults: FaultSpec,
    /// Delay regime.
    pub delay: DelaySpec,
    /// System size `N`.
    pub n: usize,
    /// Independent seeded runs per cell.
    pub seeds: u32,
    /// RCV retransmission policy for this scenario (`None` = the paper's
    /// retransmission-free configuration, which every pre-chaos cell uses
    /// — their fingerprints must stay byte-identical). Baselines have no
    /// retransmission knob and ignore it.
    pub retry: Option<RetryPolicy>,
}

impl ScenarioSpec {
    /// Algorithms this scenario runs: all eight, minus FIFO-dependent ones
    /// under non-FIFO delivery, minus guard-less ones under duplication.
    pub fn algorithms(&self) -> Vec<Algo> {
        Algo::all()
            .into_iter()
            .filter(|a| self.delay.is_fifo() || !a.requires_fifo())
            .filter(|a| !self.faults.duplicates() || matches!(a, Algo::Rcv(_)))
            .filter(|a| !self.faults.restarts() || matches!(a, Algo::Rcv(_)))
            .collect()
    }

    /// Whether every request in this scenario must complete.
    ///
    /// Permanent crash-stops void liveness unconditionally — the dead
    /// node's request dies with it. Message loss and bounded outage
    /// windows starve requests *unless* the scenario carries a
    /// retransmission policy: retry restores the reliable-delivery
    /// assumption, and restart cells additionally run only on algorithms
    /// with a recovery story ([`ScenarioSpec::algorithms`]), so liveness
    /// is demanded again — the chaos cells exist to prove exactly that.
    pub fn expect_live(&self) -> bool {
        let plan = self.faults.plan();
        if !plan.crashes.is_empty() {
            return false;
        }
        if plan.drop_every.is_some() || !plan.restarts.is_empty() {
            return self.retry.is_some();
        }
        true
    }

    /// Whether the real-thread runtime can express this scenario
    /// faithfully: closed-loop shapes (burst / saturation / Poisson-like
    /// think times) map onto per-node rounds, and every fault regime
    /// except crash-stop has a wire-level mirror
    /// (`rcv_runtime::WireFaults`). Hot-spot and ramp shapes are per-node
    /// heterogeneous / time-varying and stay simulator-only; *permanent*
    /// crash-stop cells need a node to vanish forever, which a joinable
    /// thread cannot. Bounded crash *windows* DO map: the runtime's
    /// fabric black-holes the node's traffic for the window and
    /// the node thread re-runs its protocol's restart hook at the end.
    /// Size is also a boundary: the runtime is thread-per-node (plus a
    /// timer thread), so the large-N `scale-*` cells would spawn
    /// hundreds-to-thousands of OS threads and measure the host scheduler
    /// rather than the protocol — they stay simulator-only.
    pub fn runtime_mappable(&self) -> bool {
        let shape_ok = matches!(
            self.shape,
            ShapeSpec::Burst | ShapeSpec::Saturation { .. } | ShapeSpec::Poisson { .. }
        );
        let faults_ok = !matches!(self.faults, FaultSpec::Crash { .. });
        shape_ok && faults_ok && self.n <= 64
    }
}

/// One cell of the conformance matrix: a scenario × an algorithm.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The scenario.
    pub scenario: ScenarioSpec,
    /// The algorithm under test.
    pub algo: Algo,
}

/// Condensed, bit-stable result of one cell (all its seeds).
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm display name.
    pub algo: &'static str,
    /// `"pass"` or `"fail:<reason>"`.
    pub verdict: String,
    /// Whether the cell demanded liveness.
    pub expect_live: bool,
    /// Completed CS executions, summed over seeds.
    pub completed: u64,
    /// Messages sent, summed over seeds.
    pub messages: u64,
    /// Messages lost to fault injection, summed over seeds.
    pub lost: u64,
    /// Deliveries dropped at crashed receivers, summed over seeds.
    pub dropped: u64,
    /// Mutual exclusion violations, summed over seeds (0 ⇔ safe).
    pub violations: u64,
    /// Seeds that ended with starved requests.
    pub stalled_seeds: u32,
    /// Virtual end time, summed over seeds.
    pub end_ticks: u64,
    /// Events processed, summed over seeds.
    pub events: u64,
    /// Mean NME over seeds that completed work (0 when none did).
    pub nme: f64,
    /// Mean response time over seeds with completed waits (ticks).
    pub rt_mean: f64,
}

impl CellResult {
    /// Whether the cell passed its invariants.
    pub fn passed(&self) -> bool {
        self.verdict == "pass"
    }
}

/// FNV-1a over (scenario, algorithm, seed index): a stable, documented
/// seed derivation so every cell's RNG streams survive refactors of the
/// registry order.
pub fn cell_seed(scenario: &str, algo: &str, idx: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(scenario.as_bytes());
    eat(&[0]);
    eat(algo.as_bytes());
    eat(&[0]);
    eat(&idx.to_le_bytes());
    h
}

/// Runs one cell: every seed, invariant checks, fingerprint.
pub fn run_cell(cell: &Cell) -> CellResult {
    let spec = &cell.scenario;
    let expect_live = spec.expect_live();
    let mut out = CellResult {
        scenario: spec.name.clone(),
        algo: cell.algo.name(),
        verdict: String::new(),
        expect_live,
        completed: 0,
        messages: 0,
        lost: 0,
        dropped: 0,
        violations: 0,
        stalled_seeds: 0,
        end_ticks: 0,
        events: 0,
        nme: 0.0,
        rt_mean: 0.0,
    };
    let mut failure: Option<String> = None;
    let mut nme_sum = 0.0;
    let mut nme_n = 0u32;
    let mut rt_sum = 0.0;
    let mut rt_n = 0u32;

    for idx in 0..spec.seeds {
        let seed = cell_seed(&spec.name, cell.algo.name(), idx);
        let mut cfg = SimConfig::paper(spec.n, seed);
        cfg.delay = spec.delay.model();
        cfg.faults = spec.faults.plan();
        // A violation must become a failed verdict, not a panic.
        cfg.panic_on_violation = false;
        let report: SimReport = cell
            .algo
            .run_retry(cfg, spec.shape.workload(spec.n), spec.retry);

        out.completed += report.metrics.completed() as u64;
        out.messages += report.metrics.messages_sent();
        out.lost += report.metrics.messages_lost();
        out.dropped += report.metrics.messages_dropped();
        out.violations += report.violations.len() as u64;
        out.end_ticks += report.end_time.ticks();
        out.events += report.events;
        if let Some(nme) = report.metrics.nme() {
            nme_sum += nme;
            nme_n += 1;
        }
        let rt = report.metrics.response_time();
        if rt.count > 0 {
            rt_sum += rt.mean;
            rt_n += 1;
        }
        let stalled = report.deadlocked || report.metrics.outstanding() > 0;
        if stalled {
            out.stalled_seeds += 1;
        }

        if failure.is_none() {
            // Name both the seed index and the derived RNG seed: the index
            // alone ("seed 0") reads like the SimConfig seed and sends a
            // reproducing developer to the wrong run.
            if !report.is_safe() {
                failure = Some(format!("unsafe(seed_idx {idx} = seed {seed:#018x})"));
            } else if report.truncated {
                failure = Some(format!("truncated(seed_idx {idx} = seed {seed:#018x})"));
            } else if expect_live && stalled {
                failure = Some(format!("stalled(seed_idx {idx} = seed {seed:#018x})"));
            }
        }
    }

    if nme_n > 0 {
        out.nme = nme_sum / nme_n as f64;
    }
    if rt_n > 0 {
        out.rt_mean = rt_sum / rt_n as f64;
    }
    out.verdict = match failure {
        None => "pass".to_string(),
        Some(reason) => format!("fail:{reason}"),
    };
    out
}

/// The full, versioned scenario registry.
///
/// Sizes are chosen so the whole grid (with [`cells`] expansion, two seeds
/// per cell) finishes in about a minute on a laptop — CI shards it anyway;
/// the single-seed `scale-*` cells dominate (the N=1,000 RCV burst runs in
/// the tens of seconds). Names are contract: renaming or re-parameterizing
/// a scenario is a baseline change and must bump [`REGISTRY_VERSION`].
pub fn registry() -> Vec<ScenarioSpec> {
    let mut specs: Vec<ScenarioSpec> = Vec::new();
    let mut push =
        |name: String, shape: ShapeSpec, faults: FaultSpec, delay: DelaySpec, n: usize| {
            specs.push(ScenarioSpec {
                name,
                shape,
                faults,
                delay,
                n,
                seeds: 2,
                retry: None,
            });
        };

    // Fault-free bursts across sizes — the paper's Figure 4/5 regime.
    for n in [8usize, 12, 16, 24] {
        push(
            format!("burst-n{n}"),
            ShapeSpec::Burst,
            FaultSpec::None,
            DelaySpec::Constant,
            n,
        );
    }
    // Non-FIFO bursts: the algorithm's headline claim.
    for n in [8usize, 16] {
        push(
            format!("burst-jitter-n{n}"),
            ShapeSpec::Burst,
            FaultSpec::None,
            DelaySpec::Jitter,
            n,
        );
    }
    push(
        "burst-heavytail-n12".into(),
        ShapeSpec::Burst,
        FaultSpec::None,
        DelaySpec::HeavyTail,
        12,
    );

    // Poisson load points (the paper's Figure 6/7 regime, shorter horizon).
    for (label, mean) in [("heavy", 20.0), ("mid", 60.0), ("light", 200.0)] {
        push(
            format!("poisson-{label}-n12"),
            ShapeSpec::Poisson {
                mean,
                horizon: 20_000,
            },
            FaultSpec::None,
            DelaySpec::Constant,
            12,
        );
    }
    push(
        "poisson-jitter-mid-n12".into(),
        ShapeSpec::Poisson {
            mean: 60.0,
            horizon: 20_000,
        },
        FaultSpec::None,
        DelaySpec::Jitter,
        12,
    );

    // Saturation: back-to-back re-requests.
    for n in [8usize, 12] {
        push(
            format!("saturation-n{n}-r3"),
            ShapeSpec::Saturation { rounds: 3 },
            FaultSpec::None,
            DelaySpec::Constant,
            n,
        );
    }

    // Hot-spot skewed demand: 3 hot nodes hammer, 13 cold ones linger.
    let hotspot = ShapeSpec::HotSpot {
        hot: 3,
        hot_mean: 40.0,
        cold_mean: 600.0,
        horizon: 15_000,
    };
    push(
        "hotspot-n16".into(),
        hotspot.clone(),
        FaultSpec::None,
        DelaySpec::Constant,
        16,
    );
    push(
        "hotspot-jitter-n16".into(),
        hotspot,
        FaultSpec::None,
        DelaySpec::Jitter,
        16,
    );

    // Phased load ramp: light (mean 300) ramping to heavy (mean 25).
    let ramp = ShapeSpec::Ramp {
        start_mean: 300.0,
        end_mean: 25.0,
        steps: 4,
        step_ticks: 3_000,
    };
    push(
        "ramp-n12".into(),
        ramp.clone(),
        FaultSpec::None,
        DelaySpec::Constant,
        12,
    );
    push(
        "ramp-jitter-n12".into(),
        ramp,
        FaultSpec::None,
        DelaySpec::Jitter,
        12,
    );

    // Message loss under burst and under sustained load (safety-only).
    push(
        "loss-burst-n12".into(),
        ShapeSpec::Burst,
        FaultSpec::Loss { every: 17 },
        DelaySpec::Constant,
        12,
    );
    push(
        "loss-poisson-n12".into(),
        ShapeSpec::Poisson {
            mean: 80.0,
            horizon: 10_000,
        },
        FaultSpec::Loss { every: 29 },
        DelaySpec::Constant,
        12,
    );

    // Duplication pressure (RCV only — guards proven by the fault battery).
    push(
        "dup-burst-n12".into(),
        ShapeSpec::Burst,
        FaultSpec::Duplication { every: 3 },
        DelaySpec::Constant,
        12,
    );
    push(
        "dup-jitter-burst-n12".into(),
        ShapeSpec::Burst,
        FaultSpec::Duplication { every: 1 },
        DelaySpec::Jitter,
        12,
    );

    // Slow-node stragglers: liveness must survive a 8x slower node.
    push(
        "straggler-burst-n12".into(),
        ShapeSpec::Burst,
        FaultSpec::Straggler { node: 0, factor: 8 },
        DelaySpec::Constant,
        12,
    );
    push(
        "straggler-poisson-n12".into(),
        ShapeSpec::Poisson {
            mean: 120.0,
            horizon: 10_000,
        },
        FaultSpec::Straggler { node: 1, factor: 6 },
        DelaySpec::Constant,
        12,
    );
    push(
        "straggler-jitter-burst-n12".into(),
        ShapeSpec::Burst,
        FaultSpec::Straggler { node: 0, factor: 8 },
        DelaySpec::Jitter,
        12,
    );

    // Churn-adjacent cancellation: node 2 issues at t=0 (burst) and
    // crash-stops at t=12 — mid-wait for these parameters — abandoning its
    // request. Safety-only; the fingerprint pins who else still completes.
    push(
        "cancel-burst-n12".into(),
        ShapeSpec::Burst,
        FaultSpec::Crash { node: 2, at: 12 },
        DelaySpec::Constant,
        12,
    );

    // The harshest crash: inside a CS window (t=25 lands within the first
    // holder's execution for Tn=5, Tc=10 at this scale).
    push(
        "crash-holder-burst-n10".into(),
        ShapeSpec::Burst,
        FaultSpec::Crash { node: 0, at: 25 },
        DelaySpec::Constant,
        10,
    );

    // Everything at once: loss + duplication + straggler under jitter.
    push(
        "stacked-burst-n10".into(),
        ShapeSpec::Burst,
        FaultSpec::Stacked {
            loss_every: 23,
            dup_every: 7,
            straggler: (1, 4),
        },
        DelaySpec::Jitter,
        10,
    );

    // Large-N scaling cells: the paper stops at N=30; these prove the
    // engine's per-event cost stays flat far beyond it (the superlinear
    // Exchange/normalize scaling defect fixed in the large-N PR). Single
    // seed — the N=1,000 RCV burst is the grid's most expensive cell by
    // two orders of magnitude, and one deterministic run pins the
    // fingerprint just as hard. The usual exclusion rules apply unchanged
    // (burst + constant delay + fault-free ⇒ all eight algorithms).
    for n in [200usize, 1000] {
        specs.push(ScenarioSpec {
            name: format!("scale-burst-n{n}"),
            shape: ShapeSpec::Burst,
            faults: FaultSpec::None,
            delay: DelaySpec::Constant,
            n,
            seeds: 1,
            retry: None,
        });
    }

    // Chaos regime: crash **windows** — the node comes back and must
    // rejoin via its protocol's restart hook. RCV-only (the baselines have
    // no recovery story) and, because every cell carries a retransmission
    // policy, liveness is DEMANDED despite the outage: a crashed holder is
    // evicted and its resumed request must re-enter; waiters starved by
    // messages swallowed in the window must be healed by the restart
    // broadcast plus backoff-driven re-campaigns. Window timing at the
    // paper's Tn=5/Tc=10 scale: t=25 lands inside the first CS execution
    // (holder crash), t=12 lands mid-campaign (waiter crash); the Poisson
    // cell parks the outage in a light arrival stream where the node is
    // typically idle (bystander crash).
    let chaos_retry = Some(RetryPolicy::backoff(400, 3_200));
    let mut chaos =
        |name: &str, shape: ShapeSpec, faults: FaultSpec, delay: DelaySpec, n: usize| {
            specs.push(ScenarioSpec {
                name: name.into(),
                shape,
                faults,
                delay,
                n,
                seeds: 2,
                retry: chaos_retry,
            });
        };
    chaos(
        "chaos-restart-holder-burst-n8",
        ShapeSpec::Burst,
        FaultSpec::CrashRestart {
            node: 0,
            down: 25,
            up: 120,
        },
        DelaySpec::Constant,
        8,
    );
    chaos(
        "chaos-restart-waiter-burst-n8",
        ShapeSpec::Burst,
        FaultSpec::CrashRestart {
            node: 2,
            down: 12,
            up: 100,
        },
        DelaySpec::Constant,
        8,
    );
    chaos(
        "chaos-restart-bystander-poisson-n8",
        ShapeSpec::Poisson {
            mean: 150.0,
            horizon: 6_000,
        },
        FaultSpec::CrashRestart {
            node: 3,
            down: 2_000,
            up: 2_600,
        },
        DelaySpec::Constant,
        8,
    );
    chaos(
        "chaos-stacked-burst-n8",
        ShapeSpec::Burst,
        FaultSpec::Chaos {
            crash: (1, 30, 150),
            loss_every: 31,
            straggler: (2, 3),
        },
        DelaySpec::Jitter,
        8,
    );

    specs
}

/// Expands the registry into the flat, deterministically ordered cell list
/// the runner and the CI shards index into.
pub fn cells(specs: &[ScenarioSpec]) -> Vec<Cell> {
    specs
        .iter()
        .flat_map(|s| {
            s.algorithms().into_iter().map(move |algo| Cell {
                scenario: s.clone(),
                algo,
            })
        })
        .collect()
}

/// The shard `(index, modulus)` slice of the cell list: cells whose
/// position ≡ `index` (mod `modulus`). Striding (rather than chunking)
/// balances heavy scenario families across shards.
pub fn shard(all: Vec<Cell>, index: usize, modulus: usize) -> Vec<Cell> {
    assert!(
        modulus >= 1 && index < modulus,
        "invalid shard {index}/{modulus}"
    );
    all.into_iter().skip(index).step_by(modulus).collect()
}

/// Runs a slice of cells in parallel (order-preserving).
pub fn run_cells(cells: Vec<Cell>, threads: usize) -> Vec<CellResult> {
    parmap(cells, threads, |c| run_cell(&c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique() {
        let specs = registry();
        let names: BTreeSet<_> = specs.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
    }

    #[test]
    fn grid_has_at_least_100_cells() {
        let n = cells(&registry()).len();
        assert!(n >= 100, "grid shrank to {n} cells");
    }

    #[test]
    fn every_family_is_represented() {
        let specs = registry();
        for family in ["burst", "poisson", "saturation", "hotspot", "ramp"] {
            assert!(
                specs.iter().any(|s| s.shape.family() == family),
                "family {family} missing"
            );
        }
        assert!(specs
            .iter()
            .any(|s| matches!(s.faults, FaultSpec::Loss { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.faults, FaultSpec::Straggler { .. })));
        assert!(specs.iter().any(|s| s.name.starts_with("cancel")));
        assert!(specs
            .iter()
            .any(|s| matches!(s.faults, FaultSpec::Stacked { .. })));
        assert!(specs.iter().any(|s| s.delay == DelaySpec::HeavyTail));
    }

    #[test]
    fn fifo_algorithms_never_meet_jitter() {
        for spec in registry() {
            if !spec.delay.is_fifo() {
                for algo in spec.algorithms() {
                    assert!(!algo.requires_fifo(), "{} runs {}", spec.name, algo.name());
                }
            }
        }
    }

    #[test]
    fn duplication_cells_are_rcv_only() {
        for spec in registry() {
            if spec.faults.duplicates() {
                for algo in spec.algorithms() {
                    assert!(
                        matches!(algo, Algo::Rcv(_)),
                        "{} runs {}",
                        spec.name,
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cell_seed_is_stable_and_collision_scattered() {
        // Pinned value: changing the derivation silently re-seeds every
        // cell, which would masquerade as behavioral drift.
        assert_eq!(
            cell_seed("burst-n8", "Ricart", 0),
            cell_seed("burst-n8", "Ricart", 0)
        );
        let mut seen = BTreeSet::new();
        for s in ["a", "b", "burst-n8"] {
            for a in ["Ricart", "RCV (ours)"] {
                for i in 0..4 {
                    seen.insert(cell_seed(s, a, i));
                }
            }
        }
        assert_eq!(seen.len(), 24, "seed collisions across nearby cells");
    }

    #[test]
    fn fault_regimes_roundtrip_through_both_backend_renderings() {
        // Every registry regime must (a) render to a simulator plan and
        // name itself back from it, and (b) either do the same through the
        // wire-level rendering or be the one documented exception
        // (permanent crash-stop).
        for spec in registry() {
            let fs = &spec.faults;
            let plan = FaultPlan::from(fs);
            assert_eq!(plan, fs.plan(), "{}: From must equal plan()", spec.name);
            assert_eq!(
                FaultSpec::try_from(&plan).as_ref(),
                Ok(fs),
                "{}: plan roundtrip",
                spec.name
            );
            match rcv_runtime::WireFaults::try_from(fs) {
                Ok(wf) => assert_eq!(
                    FaultSpec::try_from(&wf).as_ref(),
                    Ok(fs),
                    "{}: wire roundtrip",
                    spec.name
                ),
                Err(e) => {
                    assert!(
                        matches!(fs, FaultSpec::Crash { .. }),
                        "{}: only permanent crash-stop may be unmappable ({e})",
                        spec.name
                    );
                    assert!(!spec.runtime_mappable(), "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn unnamed_fault_combinations_are_rejected_not_misfiled() {
        // loss + duplication without a straggler is no registry regime.
        let wf = rcv_runtime::WireFaults::none()
            .with_loss(5)
            .with_duplication(3);
        assert!(FaultSpec::try_from(&wf).is_err());
        let plan = FaultPlan::losing(5).with_duplication(3);
        assert!(FaultSpec::try_from(&plan).is_err());
        // A crash-stop stacked with anything is equally unnameable.
        let mut plan = FaultPlan::crash(NodeId::new(0), SimTime::from_ticks(10));
        plan.drop_every = Some(7);
        assert!(FaultSpec::try_from(&plan).is_err());
    }

    #[test]
    fn shard_striping_partitions_the_grid() {
        let all = cells(&registry());
        let total = all.len();
        let mut got = 0;
        for i in 0..4 {
            got += shard(all.clone(), i, 4).len();
        }
        assert_eq!(got, total);
        assert_eq!(shard(all.clone(), 0, 1).len(), total);
    }

    #[test]
    fn fault_free_burst_cell_passes() {
        let spec = ScenarioSpec {
            name: "burst-n8".into(),
            shape: ShapeSpec::Burst,
            faults: FaultSpec::None,
            delay: DelaySpec::Constant,
            n: 8,
            seeds: 2,
            retry: None,
        };
        let r = run_cell(&Cell {
            scenario: spec,
            algo: Algo::Ricart,
        });
        assert!(r.passed(), "{}", r.verdict);
        assert_eq!(r.completed, 16, "8 nodes x 2 seeds");
        assert!(r.expect_live);
        assert_eq!(r.violations, 0);
        assert!(r.nme > 0.0 && r.rt_mean > 0.0);
    }

    #[test]
    fn loss_cell_is_safe_but_not_required_live() {
        let spec = ScenarioSpec {
            name: "loss-burst-n12".into(),
            shape: ShapeSpec::Burst,
            faults: FaultSpec::Loss { every: 17 },
            delay: DelaySpec::Constant,
            n: 12,
            seeds: 2,
            retry: None,
        };
        assert!(!spec.expect_live());
        let r = run_cell(&Cell {
            scenario: spec,
            algo: Algo::Broadcast,
        });
        assert!(r.passed(), "{}", r.verdict);
        assert_eq!(r.violations, 0);
        assert!(r.lost > 0, "the loss regime must actually drop messages");
    }

    #[test]
    fn run_cell_is_deterministic() {
        let spec = ScenarioSpec {
            name: "hotspot-n16".into(),
            shape: ShapeSpec::HotSpot {
                hot: 3,
                hot_mean: 40.0,
                cold_mean: 600.0,
                horizon: 5_000,
            },
            faults: FaultSpec::None,
            delay: DelaySpec::Jitter,
            n: 16,
            seeds: 2,
            retry: None,
        };
        let a = run_cell(&Cell {
            scenario: spec.clone(),
            algo: Algo::Broadcast,
        });
        let b = run_cell(&Cell {
            scenario: spec,
            algo: Algo::Broadcast,
        });
        assert_eq!(a, b, "identical cell, identical fingerprint");
    }
}
