//! The online workloads: one op is one epoch of `OnlineAdvisor::step_stream`
//! over a trajectory recorded at set-up and replayed through
//! `ReplayStream`; a pass replays the whole trajectory with a fresh
//! advisor.
//!
//! * `online-drift` stresses prune-rule evaluation: m = 120 instances, a
//!   5×5 mesh, a drifting head then a quiet tail (the shape of
//!   `FocusScenario`), uniform sweeps pruned mid-sweep, adaptive
//!   candidate pools; three clouds per pass.
//! * `online-lossy` stresses the advisor's own step: m = 500, focused
//!   probing, 5% drifting packet loss with 3 retransmits per pair, 8
//!   spot checks per alarm, and the instance under node 0 forced dark
//!   half way through (the shape of `LossScenario`); evacuation is its
//!   only repair.
//!
//! The default each run is compared with is the never-migrate control:
//! the hour-0 plan held over the same trajectory, priced on each
//! snapshot's ground truth. Repairs are budgeted in wall seconds (the
//! only budget `RepairConfig` offers), so the benchmark counts the
//! repairs that ran into that budget.

use std::time::Instant;

use cloudia_core::{CommGraph, LatencyMetric, Objective, RedeployPolicy, SearchStrategy};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_netsim::{
    Cloud, DriftParams, DriftingNetwork, FaultParams, InstanceId, Network, Provider,
};
use cloudia_online::{
    record_trajectory, record_trajectory_with, DetectorConfig, OnlineAdvisor, OnlineAdvisorConfig,
    OnlineEvent, ProbePolicy, ReplayStream,
};
use cloudia_solver::{AdaptivePoolConfig, Budget, CandidateConfig, CpConfig};
use cloudia_workloads::{BehavioralSim, Workload};

use crate::trace::{self, Probe, Stream};
use crate::{check_plan, plan_hash, Bench, Pass, Quality, Several};

/// Wall-clock budget of each repair (seconds).
const REPAIR_BUDGET_S: f64 = 1.0;
/// CP nodes of the hour-0 solve.
const INITIAL_CP_NODES: u64 = 100_000;

struct OnlineBench {
    graph: CommGraph,
    mesh: (usize, usize),
    instances: usize,
    initial: Vec<u32>,
    snapshots: Vec<Network>,
    config: OnlineAdvisorConfig,
    measure_cfg: MeasureConfig,
    epoch_hours: f64,
    /// Time-averaged ground-truth cost of holding the hour-0 plan.
    never_migrate: f64,
}

/// Everything set-up needs to know about a scenario.
struct Scenario {
    mesh: (usize, usize),
    instances: usize,
    epoch_hours: f64,
    config: OnlineAdvisorConfig,
    measure_cfg: MeasureConfig,
    provider: Provider,
}

/// Boots the cloud, measures and solves hour 0 under a node budget, and
/// records the trajectory with `record`, which returns the snapshots and
/// the seconds it spent in `netsim`. Returns the bench and its total
/// `netsim` seconds.
fn build(
    seed: u64,
    s: Scenario,
    record: impl FnOnce(Network, &OnlineBench) -> (Vec<Network>, f64),
) -> (Box<dyn Bench>, f64) {
    let graph = CommGraph::mesh_2d(s.mesh.0, s.mesh.1);
    let t = Instant::now();
    let mut cloud = Cloud::boot(s.provider, seed);
    let alloc = cloud.allocate(s.instances);
    let net = cloud.network(&alloc);
    let mut netsim_s = t.elapsed().as_secs_f64();

    let report = Staged::new(s.config.probe_ks, s.config.probe_sweeps).run(&net, &s.measure_cfg);
    let costs =
        LatencyMetric::Mean.try_cost_matrix(&report.stats).expect("hour-0 sweep covers every pair");
    let initial = SearchStrategy::Cp(CpConfig {
        budget: Budget::nodes(INITIAL_CP_NODES),
        seed,
        ..CpConfig::default()
    })
    .run(&graph.problem(costs), Objective::LongestLink)
    .deployment;

    let mut bench = OnlineBench {
        graph,
        mesh: s.mesh,
        instances: s.instances,
        initial,
        snapshots: Vec::new(),
        config: s.config,
        measure_cfg: s.measure_cfg,
        epoch_hours: s.epoch_hours,
        never_migrate: 0.0,
    };
    let (snapshots, record_s) = record(net, &bench);
    netsim_s += record_s;

    let timeout = bench.config.timeout_ms;
    bench.never_migrate = snapshots
        .iter()
        .map(|snap| {
            bench
                .graph
                .problem(snap.effective_mean_matrix(timeout))
                .cost(Objective::LongestLink, &bench.initial)
        })
        .sum::<f64>()
        / snapshots.len() as f64;
    bench.snapshots = snapshots;
    (Box::new(bench), netsim_s)
}

fn base_config(seed: u64) -> OnlineAdvisorConfig {
    OnlineAdvisorConfig {
        objective: Objective::LongestLink,
        policy: RedeployPolicy { min_gain: 0.02, migration_cost_per_node: 0.05 },
        migration_budget: 3,
        solve_seconds: REPAIR_BUDGET_S,
        threads: 1,
        seed,
        ewma_alpha: 0.5,
        detector: DetectorConfig { warmup: 3, threshold: 6.0, ..Default::default() },
        event_capacity: 0,
        ..Default::default()
    }
}

/// Set-up of `online-drift`: three scenarios on three clouds per pass,
/// so a seed's cost figures do not hinge on one cloud.
pub fn drift(seed: u64) -> (Box<dyn Bench>, f64) {
    let (benches, netsim_s): (Vec<_>, Vec<f64>) =
        (0..3u64).map(|k| drift_scenario(seed.wrapping_add(k * 0x5eed))).unzip();
    (Box::new(Several(benches)), netsim_s.iter().sum())
}

fn drift_scenario(seed: u64) -> (Box<dyn Bench>, f64) {
    let (head, tail, epoch_hours) = (16, 16, 6.0);
    let mut provider = Provider::ec2_like();
    provider.drift = DriftParams { reversion_per_hour: 0.04, sigma_per_sqrt_hour: 0.04 };
    let config = OnlineAdvisorConfig {
        candidates: Some(CandidateConfig::adaptive(AdaptivePoolConfig {
            initial: 40,
            alpha: 0.1,
            ..AdaptivePoolConfig::default()
        })),
        probe_policy: ProbePolicy::Uniform,
        probe_ks: 3,
        probe_sweeps: 2,
        prune_during_sweep: true,
        prune_refresh_every: 4,
        ..base_config(seed)
    };
    let scenario = Scenario {
        mesh: (5, 5),
        instances: 120,
        epoch_hours,
        config,
        measure_cfg: MeasureConfig { seed, ..MeasureConfig::default() },
        provider,
    };
    build(seed, scenario, |net, _| {
        let t = Instant::now();
        let mut snaps = record_trajectory(net, seed ^ 0xf0c5, epoch_hours, head);
        let quiet = DriftParams { reversion_per_hour: 1.0, sigma_per_sqrt_hour: 1e-5 };
        let tail_start = snaps.last().expect("head has epochs").clone().with_drift_params(quiet);
        snaps.extend(record_trajectory(tail_start, seed ^ 0x7a11, epoch_hours, tail));
        (snaps, t.elapsed().as_secs_f64())
    })
}

/// Set-up of `online-lossy`.
pub fn lossy(seed: u64) -> (Box<dyn Bench>, f64) {
    let (instances, epochs, blackout, epoch_hours) = (500, 20usize, 10usize, 2.0);
    let config = OnlineAdvisorConfig {
        probe_policy: ProbePolicy::Focused {
            refresh_every: 10,
            max_flagged: instances * (instances - 1) / 8,
        },
        probe_ks: 2,
        probe_sweeps: 2,
        spot_check_probes: 8,
        loss_aware: true,
        // No latency-triggered migrations: the plan leaves the dark
        // instance only through the triage's evacuation, so when it
        // leaves depends on the triage alone, not on whether an
        // unrelated repair happens to free the right node first.
        migration_budget: 0,
        ..base_config(seed)
    };
    let scenario = Scenario {
        mesh: (3, 4),
        instances,
        epoch_hours,
        config,
        measure_cfg: MeasureConfig { seed, retries_per_pair: 3, ..MeasureConfig::default() },
        provider: Provider::ec2_like(),
    };
    build(seed, scenario, |net, bench| {
        let t = Instant::now();
        let drifting = DriftingNetwork::new(net, seed ^ 0x10f5)
            .with_faults(FaultParams::drifting_loss(0.05), seed ^ 0xfa11);
        let mut snaps = record_trajectory_with(drifting.clone(), epoch_hours, blackout, |_, _| {});
        let mut netsim_s = t.elapsed().as_secs_f64();
        // The victim is an instance the advisor occupies when the blackout
        // starts: the epochs before it replay identically in every pass.
        let victim = InstanceId(bench.plan_after(&snaps)[0]);
        let t = Instant::now();
        // The blackout outlives the run: only an evacuation repairs it.
        let forever = (epochs - blackout + 1) as f64 * epoch_hours;
        snaps = record_trajectory_with(drifting, epoch_hours, epochs, |e, d| {
            if e == blackout {
                d.force_instance_dark(victim, forever);
            }
        });
        netsim_s += t.elapsed().as_secs_f64();
        (snaps, netsim_s)
    })
}

fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(1.0)
}

impl OnlineBench {
    /// The plan a fresh advisor holds after replaying `snapshots`.
    fn plan_after(&self, snapshots: &[Network]) -> Vec<u32> {
        let mut advisor = OnlineAdvisor::new(
            self.graph.clone(),
            self.instances,
            self.initial.clone(),
            self.config.clone(),
        );
        let mut stream = ReplayStream::new(
            snapshots.to_vec(),
            Staged::new(self.config.probe_ks, self.config.probe_sweeps),
            self.measure_cfg.clone(),
            self.epoch_hours,
        );
        advisor.run(&mut stream, snapshots.len() as u64);
        advisor.deployment().clone()
    }
}

impl Bench for OnlineBench {
    fn op_span(&self) -> &'static str {
        "online.step"
    }

    fn pass(&mut self, traced: bool, evaluate: bool, first_op: u64) -> Pass {
        let mut pass = Pass::default();
        let mut advisor = OnlineAdvisor::new(
            self.graph.clone(),
            self.instances,
            self.initial.clone(),
            self.config.clone(),
        );
        let replay = ReplayStream::new(
            self.snapshots.clone(),
            Probe { inner: Staged::new(self.config.probe_ks, self.config.probe_sweeps), traced },
            self.measure_cfg.clone(),
            self.epoch_hours,
        );
        let mut stream = Stream::new(replay, traced);
        let mut true_cost_sum = 0.0;
        let mut plans = Vec::new();
        for e in 0..self.snapshots.len() as u64 {
            trace::set_op(first_op + e);
            let t = Instant::now();
            let summary = if traced {
                trace::span("online.step", || advisor.step_stream(&mut stream))
            } else {
                advisor.step_stream(&mut stream)
            };
            pass.latencies.push(t.elapsed().as_secs_f64());
            true_cost_sum += summary.true_cost;
            let expected = (true_cost_sum + advisor.migration_cost_paid()) / (e + 1) as f64;
            let checked = if summary.epoch != e {
                Err(format!("summary for epoch {} at epoch {e}", summary.epoch))
            } else if !same(advisor.time_averaged_cost(), expected) {
                Err(format!(
                    "time_averaged_cost {} != recomputed {expected}",
                    advisor.time_averaged_cost()
                ))
            } else {
                check_plan(advisor.deployment(), self.graph.num_nodes(), self.instances)
            };
            if let Err(msg) = checked {
                eprintln!("perfbench: op {} failed: {msg}", first_op + e);
                pass.failed += 1;
            }
            if evaluate {
                plans.push(advisor.deployment().clone());
            }
        }

        let epochs = self.snapshots.len() as f64;
        let count = |f: &dyn Fn(&OnlineEvent) -> bool| {
            advisor.events().iter().filter(|e| f(e)).count() as f64
        };
        let resolves: Vec<(bool, f64)> = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::Resolve { accepted, solve_seconds, .. } => {
                    Some((*accepted, *solve_seconds))
                }
                _ => None,
            })
            .collect();
        let n_resolves = resolves.len() as f64;
        let accepted = resolves.iter().filter(|r| r.0).count() as f64;
        pass.budget_hits = resolves.iter().filter(|r| r.1 >= REPAIR_BUDGET_S).count() as u64;
        let migrations = count(&|e| matches!(e, OnlineEvent::Migrate { .. }));
        let cost = advisor.time_averaged_cost();
        let mut q = Quality {
            deploy_cost_ms: cost,
            cost_vs_default: cost / self.never_migrate,
            round_trips_per_op: advisor.probe_round_trips() as f64 / epochs,
            sim_s_per_op: stream.tally.sim_ms / 1e3 / epochs,
            ..Quality::default()
        };
        if evaluate {
            // The application model on every snapshot, under that epoch's
            // plan and under the never-migrate plan.
            let app =
                BehavioralSim { sample_ticks: 200, ..BehavioralSim::new(self.mesh.0, self.mesh.1) };
            for (e, (snap, plan)) in self.snapshots.iter().zip(&plans).enumerate() {
                q.app_ms_default += app.run(snap, &self.initial, e as u64).value_ms / epochs;
                q.app_ms_advised += app.run(snap, plan, e as u64).value_ms / epochs;
            }
            q.app_time_ratio = q.app_ms_advised / q.app_ms_default;
        }
        pass.quality = q;
        let spent = stream.tally.round_trips as f64;
        let saved = stream.tally.saved_round_trips as f64;
        pass.layers = vec![
            ("measure.prune_saved_ratio", crate::ratio(saved, spent + saved)),
            ("online.resolves", n_resolves),
            ("online.resolve_accept_ratio", crate::ratio(accepted, n_resolves)),
            ("online.resolve_s", crate::ratio(resolves.iter().map(|r| r.1).sum(), n_resolves)),
            ("online.migrations", migrations),
            ("online.nodes_moved", advisor.moved_total() as f64),
            ("online.evacuations", count(&|e| matches!(e, OnlineEvent::Evacuate { .. }))),
            ("online.link_dark_events", count(&|e| matches!(e, OnlineEvent::LinkDark { .. }))),
            ("online.spot_checks", count(&|e| matches!(e, OnlineEvent::SpotCheck { .. }))),
            ("online.detector_fires", count(&|e| matches!(e, OnlineEvent::Change { .. }))),
        ];
        pass.det = vec![
            ("deploy_cost_ms", cost),
            ("round_trips", advisor.probe_round_trips() as f64),
            ("sim_ms", stream.tally.sim_ms),
            ("saved_round_trips", saved),
            ("resolves", n_resolves),
            ("migrations", migrations),
            ("plan_hash", plan_hash(advisor.deployment().iter().copied())),
        ];
        pass
    }
}
