//! The online deployment advisor control loop.
//!
//! Where the batch pipeline runs *allocate → measure → search → deploy*
//! once, [`OnlineAdvisor`] runs continuously against a
//! [`MeasurementStream`]: every epoch it ingests the stream's per-link
//! deltas into the [`OnlineStore`], lets the change-point detectors vote,
//! and — when a detected shift actually touches the tenant's interests
//! (degradation on a deployed link, or an improvement opportunity on an
//! unused one) — triggers a **budgeted incremental re-solve** around the
//! incumbent plan. A repair is only applied when its estimated gain
//! clears the [`RedeployPolicy`] economics net of the per-node migration
//! cost; every epoch, trigger, re-solve, and migration lands in the event
//! log, and the ground-truth cost of the active plan is tracked as a cost
//! curve.

use cloudia_core::{CommGraph, CostMatrix, Deployment, Objective, RedeployPolicy};
use cloudia_measure::{FocusedScheme, ProbePlan, Scheme};
use cloudia_netsim::Network;
use cloudia_obs::{RingLog, RunRecorder};
use cloudia_solver::{
    AdaptivePool, CandidateConfig, CandidatePruneRule, CandidateSet, CiStopRule, PoolPolicy,
};

use crate::detect::{DetectorConfig, Drift};
use crate::repair::{evacuate_resolve, incremental_resolve, RepairConfig};
use crate::stats::{LinkChange, OnlineStore};
use crate::stream::{EpochMeasurement, MeasurementStream};
use crate::trace;

/// Default capacity of the advisor's in-memory event ring
/// ([`OnlineAdvisorConfig::event_capacity`]): generous enough that every
/// in-repo consumer sees its full history, small enough that a
/// weeks-long loop cannot grow without bound.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// How the advisor spends its per-epoch probe budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePolicy {
    /// The stream's own full tournament sweep every epoch — O(m²) probe
    /// pairs (the PR 2 behaviour).
    Uniform,
    /// Trigger-driven focusing: probe only the candidate-pool clique,
    /// the links the detectors flagged last epoch, and links whose
    /// estimate has gone stale — O(K² + flagged) pairs — and fall back to
    /// a full tournament sweep on escalation or staleness.
    ///
    /// The probe pool comes from the advisor's candidates config (the
    /// adaptive controller's current `k` when one is live); without a
    /// candidates config a default pool of `2·n` instances is used. When
    /// the pool covers every instance — small allocations, or `k` near
    /// `m` — the plan degenerates to a full sweep: still correct, just
    /// not cheaper than [`ProbePolicy::Uniform`].
    Focused {
        /// Staleness horizon in epochs: a link unobserved for more than
        /// this many epochs re-enters the probe plan. Because focused
        /// rounds skip non-candidate links together, they also go stale
        /// together, so the plan escalates to a periodic full refresh
        /// roughly every `refresh_every` epochs.
        refresh_every: u64,
        /// Escalation threshold: when the detectors flag more links than
        /// this in one epoch, the shift is not local — the next round runs
        /// a full tournament sweep instead of a focused one.
        max_flagged: usize,
    },
}

/// Configuration of the online control loop.
#[derive(Debug, Clone)]
pub struct OnlineAdvisorConfig {
    /// Deployment cost function to watch and optimize.
    pub objective: Objective,
    /// EWMA smoothing factor for per-link epoch means.
    pub ewma_alpha: f64,
    /// Change-point detector settings (shared by all links).
    pub detector: DetectorConfig,
    /// Migration economics: minimum relative gain and per-node cost.
    pub policy: RedeployPolicy,
    /// Migration budget `k` per re-solve: at most `k` nodes move.
    pub migration_budget: usize,
    /// Wall-clock budget per incremental re-solve (seconds).
    pub solve_seconds: f64,
    /// Worker threads per re-solve (0 = all cores).
    pub threads: usize,
    /// Minimum epochs between re-solves (alarm damping).
    pub cooldown_epochs: u64,
    /// Base RNG seed for re-solves.
    pub seed: u64,
    /// Candidate pruning for the incremental re-solves (see
    /// [`cloudia_solver::candidates`]): keeps repairs cheap when the spare
    /// pool is large. A [`PoolPolicy::Adaptive`] policy here instantiates
    /// a live [`AdaptivePool`] controller: `k` grows when escalations are
    /// frequent (full-sweep probe escalations, triggered repairs that find
    /// nothing inside the pool) and shrinks on stationary stretches, and
    /// the focused probe plan shrinks with it.
    pub candidates: Option<CandidateConfig>,
    /// Probe budget policy: uniform full sweeps or trigger-driven
    /// focusing. Focusing only takes effect through
    /// [`OnlineAdvisor::run`]/[`OnlineAdvisor::step_stream`] — a caller
    /// that measures epochs itself and calls [`OnlineAdvisor::step`]
    /// directly owns its probe scheduling (consult
    /// [`OnlineAdvisor::next_probe_plan`]).
    pub probe_policy: ProbePolicy,
    /// Consecutive round trips per pair within one focused stage
    /// (staged's Ks); match the uniform stream's scheme for fair budget
    /// comparisons.
    pub probe_ks: usize,
    /// Sweeps per focused round. Directions alternate between sweeps, so
    /// a [`ProbePolicy::Focused`] advisor requires at least 2 — with a
    /// single sweep the reverse direction of every pair would stay
    /// unobserved forever (and hence permanently stale).
    pub probe_sweeps: usize,
    /// Mid-sweep tournament pruning: epochs measured through
    /// [`OnlineAdvisor::step_stream`]/[`OnlineAdvisor::run`] execute
    /// stage by stage on the streaming driver
    /// ([`cloudia_measure::SweepDriver`]), and between stages a
    /// [`CandidatePruneRule`] drops pairs whose endpoints the partial
    /// statistics already prove outside every node's candidate pool — a
    /// point rule on measured quantiles, or a CI rule on interval bounds
    /// when `confidence` is set; both rank instances on one incremental
    /// evidence store, refreshed once per stage. Deployed links,
    /// detector-flagged links, and links owed a staleness refresh are
    /// never pruned; under-measured instances cannot be proven out.
    /// Works under both probe policies, and focused plans additionally
    /// build their candidate clique from the mid-sweep quantiles
    /// ([`CandidateSet::build_partial`], the same verdicts) instead of
    /// the worst-filled cost matrix. Round trips saved are re-invested
    /// into deeper sampling of flagged links (`probe_ks` escalation)
    /// rather than banked.
    pub prune_during_sweep: bool,
    /// Staleness horizon (epochs) protecting pairs from mid-sweep
    /// pruning under [`ProbePolicy::Uniform`]: a pair unobserved longer
    /// than this re-enters the sweep un-prunable, bounding every link's
    /// estimate age exactly like focused probing's refresh. Under
    /// [`ProbePolicy::Focused`] the policy's own `refresh_every` is used
    /// instead.
    pub prune_refresh_every: u64,
    /// Spot-check confirmation: when > 0 and the stream supports
    /// per-link probing ([`MeasurementStream::spot_check`]), a
    /// degradation alarm on a deployed link is confirmed with this many
    /// fresh single-link RTT samples *before* it may trigger a repair —
    /// a measurement glitch is cheaper to refute with a handful of
    /// probes now than with a wasted re-solve (or by waiting a full
    /// epoch for the next sweep). The alarm is confirmed when the spot
    /// mean still sits at least halfway between the pre-alarm baseline
    /// and the alarm level. Spot probes are charged to the probe budget;
    /// once one alarm confirms, later alarms in the same epoch skip the
    /// probes (the trigger verdict is already settled). 0 disables the
    /// path; [`OnlineAdvisor::step`] (no stream access) always behaves
    /// as if it were 0.
    pub spot_check_probes: usize,
    /// Record every trigger's (costs, incumbent) so a harness can replay
    /// the same instances against a cold solver (timing comparisons).
    pub record_triggers: bool,
    /// Sender timeout (ms) used to price packet loss into costs: both
    /// the ground-truth cost curve and the re-solve's search costs charge
    /// a lossy link its *expected completion time* — mean plus expected
    /// timeouts (see [`cloudia_netsim::Network::effective_mean_matrix`]).
    /// On a loss-free network this changes nothing. Match the measurement
    /// plane's [`cloudia_measure::MeasureConfig::timeout_ms`].
    pub timeout_ms: f64,
    /// Loss awareness of the control loop (default on). When off, the
    /// advisor behaves like the pre-loss loop: darkness alarms are logged
    /// as plain changes but never confirmed, never trigger an
    /// evacuation, and the search costs ignore the loss EWMAs. Exists so
    /// the `ext_loss` bench can run an honest loss-*blind* baseline arm
    /// against the same lossy ground truth (the cost curve still prices
    /// loss — the world is lossy whether or not the advisor believes it).
    pub loss_aware: bool,
    /// Confidence level in (0, 1) for the error-bounded decision layer
    /// (`None` disables it — the default, preserving the point-estimate
    /// loop bit for bit; a level outside (0, 1) is rejected by
    /// [`OnlineAdvisor::new`]). When set, three decision sites start
    /// consuming confidence intervals instead of point estimates:
    /// mid-sweep pruning swaps the point [`CandidatePruneRule`] for its
    /// CI form ([`CandidatePruneRule::ci`], same engine and protections),
    /// which condemns a pair only when an endpoint's quantile of incident
    /// CI *lower* bounds sits provably outside every candidate pool;
    /// detector alarms must clear the link's CI half-width
    /// ([`OnlineStore::mean_half_width`]) before they count as
    /// degradations/opportunities (unseparated alarms are still logged
    /// and still focus probes — they just cannot trigger redeployment
    /// economics); and a repair must clear the min-gain bar *plus* the
    /// widest deployed-link half-width, so a migration is never bought
    /// with a gain the measurement error could explain.
    pub confidence: Option<f64>,
    /// Anytime sweeps (requires `confidence` and `prune_during_sweep`;
    /// [`OnlineAdvisor::new`] rejects it otherwise): epoch sweeps stop a
    /// stage early once every remaining prune/pool decision is CI-stable
    /// — each instance provably in or provably out of every pool at the
    /// configured confidence (see [`cloudia_solver::CiStopRule`], which
    /// reads the CI prune rule's evidence store, and
    /// [`cloudia_measure::run_anytime`]). Rounds saved land in the same
    /// `saved_round_trips` ledger pruning uses. Off by default.
    pub anytime: bool,
    /// Capacity of the in-memory event ring ([`OnlineAdvisor::events`]):
    /// once full, the oldest events are evicted (the ring reports how
    /// many). 0 keeps every event forever — the pre-telemetry behaviour,
    /// unbounded on a long-running loop. Attach a
    /// [`cloudia_obs::RunRecorder`] via
    /// [`OnlineAdvisor::attach_recorder`] to stream the *full* history
    /// to disk regardless of the cap.
    pub event_capacity: usize,
}

impl Default for OnlineAdvisorConfig {
    fn default() -> Self {
        Self {
            objective: Objective::LongestLink,
            ewma_alpha: 0.3,
            detector: DetectorConfig::default(),
            policy: RedeployPolicy::default(),
            migration_budget: 3,
            solve_seconds: 1.0,
            threads: 1,
            cooldown_epochs: 1,
            seed: 0,
            candidates: None,
            probe_policy: ProbePolicy::Uniform,
            probe_ks: 3,
            probe_sweeps: 2,
            prune_during_sweep: false,
            prune_refresh_every: 8,
            spot_check_probes: 0,
            record_triggers: false,
            timeout_ms: cloudia_netsim::DEFAULT_TIMEOUT_MS,
            loss_aware: true,
            confidence: None,
            anytime: false,
            event_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }
}

/// One entry of the online advisor's event log.
#[derive(Debug, Clone)]
pub enum OnlineEvent {
    /// An epoch was ingested.
    Epoch {
        /// Epoch index.
        epoch: u64,
        /// Simulated hours at the end of the epoch.
        at_hours: f64,
        /// Round trips the epoch's measurement collected.
        round_trips: u64,
        /// Estimated (EWMA) cost of the active plan.
        est_cost: f64,
        /// Ground-truth cost of the active plan.
        true_cost: f64,
    },
    /// A link's change detector fired.
    Change {
        /// Epoch index.
        epoch: u64,
        /// The changed link.
        change: LinkChange,
        /// True if the link is used by the active plan.
        on_deployed_link: bool,
    },
    /// An incremental re-solve ran.
    Resolve {
        /// Epoch index.
        epoch: u64,
        /// Nodes the repair freed.
        freed: Vec<u32>,
        /// Nodes the repaired plan would move.
        moved: usize,
        /// Estimated absolute gain (old est − new est).
        est_gain: f64,
        /// Wall-clock seconds the re-solve took.
        solve_seconds: f64,
        /// Whether the repair was applied.
        accepted: bool,
    },
    /// The active plan migrated to a repaired one.
    Migrate {
        /// Epoch index.
        epoch: u64,
        /// Nodes that moved.
        moved: usize,
        /// Ground-truth cost before/after the migration.
        true_cost_before: f64,
        /// Ground-truth cost after the migration.
        true_cost_after: f64,
    },
    /// The adaptive candidate pool changed size.
    PoolResize {
        /// Epoch index.
        epoch: u64,
        /// Pool size before the adjustment.
        from: usize,
        /// Pool size after the adjustment.
        to: usize,
        /// The escalation-rate EWMA that drove it.
        rate: f64,
    },
    /// Mid-sweep pruning dropped pairs from the epoch's measurement.
    SweepPruned {
        /// Epoch index.
        epoch: u64,
        /// Distinct pairs dropped mid-sweep.
        dropped_pairs: usize,
        /// Estimated round trips saved.
        saved_round_trips: u64,
    },
    /// A link went dark: its loss triage crossed the darkness level (all
    /// probes swallowed), distinct from a latency shift — the repair for
    /// darkness is evacuating the instance, not weighing a migration on
    /// latency economics.
    LinkDark {
        /// Epoch index.
        epoch: u64,
        /// Source instance of the dark link.
        src: u32,
        /// Destination instance of the dark link.
        dst: u32,
        /// The link's smoothed loss rate at alarm time.
        loss_rate: f64,
        /// Whether fresh spot probes confirmed the darkness (always true
        /// when the stream cannot spot-probe or spot checking is off).
        confirmed: bool,
    },
    /// Dark-instance evacuation: every node hosted on the presumed-dark
    /// instances was freed and re-placed elsewhere.
    Evacuate {
        /// Epoch index.
        epoch: u64,
        /// The instances presumed dark.
        instances: Vec<u32>,
        /// Nodes that moved off them.
        moved: usize,
    },
    /// A spot check confirmed or refuted a degradation alarm before any
    /// repair was considered.
    SpotCheck {
        /// Epoch index.
        epoch: u64,
        /// Source instance of the suspicious link.
        src: u32,
        /// Destination instance of the suspicious link.
        dst: u32,
        /// Mean of the fresh spot probes (ms).
        mean: f64,
        /// Whether the shift was confirmed (unconfirmed alarms cannot
        /// trigger a repair).
        confirmed: bool,
    },
    /// Round trips saved by pruning were re-invested into deeper
    /// sampling of flagged links.
    DeepProbe {
        /// Epoch index the deepened round will measure.
        epoch: u64,
        /// Flagged pairs deepened.
        pairs: usize,
        /// The per-pair round-trip quota they were raised to.
        ks: usize,
    },
}

/// One trigger's search instance, for offline replay (cold-vs-incremental
/// timing comparisons).
#[derive(Debug, Clone)]
pub struct TriggerInstance {
    /// Epoch index of the trigger.
    pub epoch: u64,
    /// The estimated costs the re-solve searched on.
    pub costs: CostMatrix,
    /// The incumbent at trigger time.
    pub incumbent: Deployment,
}

/// Per-epoch summary returned by [`OnlineAdvisor::step`].
#[derive(Debug, Clone, Copy)]
pub struct EpochSummary {
    /// Epoch index.
    pub epoch: u64,
    /// Simulated hours at the end of the epoch.
    pub at_hours: f64,
    /// Estimated (EWMA) cost of the active plan.
    pub est_cost: f64,
    /// Ground-truth cost of the active plan (after any migration).
    pub true_cost: f64,
    /// Whether a re-solve was triggered this epoch.
    pub triggered: bool,
    /// Nodes migrated this epoch (0 if none).
    pub moved: usize,
    /// Probe round trips the epoch's measurement spent.
    pub round_trips: u64,
    /// Round trips mid-sweep pruning saved this epoch (0 without
    /// `prune_during_sweep`).
    pub saved_round_trips: u64,
}

/// The advisor's per-epoch spot-probe access to its stream: fresh
/// single-link RTT samples (latency-alarm confirmation) and fresh loss
/// trials (darkness confirmation). Bundled behind one trait object so
/// [`OnlineAdvisor::step_stream`] hands `step_core` a *single* mutable
/// borrow of the stream — two separate closures would each need one.
trait SpotProber {
    /// Mean of fresh RTT probes on `src → dst`, or `None` if the stream
    /// cannot probe single links.
    fn latency(&mut self, src: u32, dst: u32) -> Option<f64>;
    /// `(successes, attempts)` of fresh loss trials on `src ⇄ dst`, or
    /// `None` if the stream cannot probe single links.
    fn loss(&mut self, src: u32, dst: u32) -> Option<(u64, u64)>;
}

struct StreamProber<'a, S: MeasurementStream> {
    stream: &'a mut S,
    probes: usize,
}

impl<S: MeasurementStream> SpotProber for StreamProber<'_, S> {
    fn latency(&mut self, src: u32, dst: u32) -> Option<f64> {
        self.stream.spot_check(src, dst, self.probes)
    }
    fn loss(&mut self, src: u32, dst: u32) -> Option<(u64, u64)> {
        self.stream.spot_check_loss(src, dst, self.probes)
    }
}

/// The continuous deployment advisor.
#[derive(Debug)]
pub struct OnlineAdvisor {
    graph: CommGraph,
    config: OnlineAdvisorConfig,
    store: OnlineStore,
    deployment: Deployment,
    epoch: u64,
    last_resolve: Option<u64>,
    /// Bounded in-memory event ring; the full history survives only in
    /// an attached recorder's trace file.
    events: RingLog<OnlineEvent>,
    /// Optional JSONL sink streaming every event and epoch summary.
    recorder: Option<RunRecorder>,
    cost_curve: Vec<(f64, f64)>,
    total_true_cost: f64,
    migration_cost_paid: f64,
    moved_total: u64,
    triggers: Vec<TriggerInstance>,
    /// Directed links flagged by the detectors during the most recent
    /// step — the next probe plan's must-probe set.
    recent_flags: Vec<(u32, u32)>,
    /// The epoch number the *next* measurement will carry, in the
    /// stream's numbering (`last ingested m.epoch + 1`) — the reference
    /// point for staleness ages. Kept separate from the local step count
    /// so callers whose streams start at a nonzero epoch still age links
    /// correctly.
    planning_epoch: u64,
    /// Live adaptive-pool controller (only with a
    /// [`PoolPolicy::Adaptive`] candidates config).
    adaptive: Option<AdaptivePool>,
    probe_round_trips: u64,
    /// Round trips the most recent epoch's mid-sweep pruning saved — the
    /// budget the next focused round may re-invest into deeper flagged
    /// sampling.
    last_saved_round_trips: u64,
    /// Total round trips saved by mid-sweep pruning across all epochs.
    saved_round_trips_total: u64,
    /// Total extra round trips spent deepening flagged links.
    deep_probe_rounds: u64,
}

impl OnlineAdvisor {
    /// Starts the loop with an already-deployed plan over `instances`
    /// instances.
    ///
    /// # Panics
    /// Panics if the initial plan does not cover the graph, references
    /// instances beyond the allocation, a [`ProbePolicy::Focused`] policy
    /// has `refresh_every == 0`, `confidence` is outside (0, 1), or
    /// `anytime` is set without both `confidence` and
    /// `prune_during_sweep`.
    pub fn new(
        graph: CommGraph,
        instances: usize,
        initial: Deployment,
        config: OnlineAdvisorConfig,
    ) -> Self {
        assert_eq!(initial.len(), graph.num_nodes(), "initial plan must cover every node");
        assert!(
            initial.iter().all(|&j| (j as usize) < instances),
            "initial plan references instances beyond the allocation"
        );
        if let ProbePolicy::Focused { refresh_every, .. } = config.probe_policy {
            assert!(refresh_every > 0, "refresh_every must be at least 1 epoch");
            assert!(
                config.probe_sweeps >= 2,
                "focused probing needs probe_sweeps >= 2: directions alternate between sweeps, \
                 so a single sweep never observes the reverse direction of any pair"
            );
        }
        assert!(
            config.probe_ks > 0 && config.probe_sweeps > 0,
            "probe_ks and probe_sweeps must be positive"
        );
        if let Some(c) = config.confidence {
            assert!(c > 0.0 && c < 1.0, "confidence must be in (0, 1), got {c}");
        }
        assert!(
            !config.anytime || (config.confidence.is_some() && config.prune_during_sweep),
            "anytime sweeps need both confidence and prune_during_sweep"
        );
        let store = OnlineStore::new(instances, config.ewma_alpha, config.detector);
        let adaptive = match &config.candidates {
            Some(CandidateConfig { pool: PoolPolicy::Adaptive(acfg), .. }) => {
                Some(AdaptivePool::new(*acfg, graph.num_nodes(), instances))
            }
            _ => None,
        };
        let events = RingLog::new(config.event_capacity);
        Self {
            graph,
            config,
            store,
            deployment: initial,
            epoch: 0,
            last_resolve: None,
            events,
            recorder: None,
            cost_curve: Vec::new(),
            total_true_cost: 0.0,
            migration_cost_paid: 0.0,
            moved_total: 0,
            triggers: Vec::new(),
            recent_flags: Vec::new(),
            planning_epoch: 0,
            adaptive,
            probe_round_trips: 0,
            last_saved_round_trips: 0,
            saved_round_trips_total: 0,
            deep_probe_rounds: 0,
        }
    }

    /// The currently active plan.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The online statistics store.
    pub fn store(&self) -> &OnlineStore {
        &self.store
    }

    /// The in-memory event log: a ring bounded by
    /// [`OnlineAdvisorConfig::event_capacity`] (its
    /// [`dropped`](RingLog::dropped) count says how many older events
    /// were evicted). Attach a recorder for the full history.
    pub fn events(&self) -> &RingLog<OnlineEvent> {
        &self.events
    }

    /// Attaches a [`RunRecorder`]: from now on every [`OnlineEvent`] is
    /// streamed to it as a `"event"` record and every
    /// [`EpochSummary`] as an `"epoch"` record, the moment they happen —
    /// the full history survives on disk even after the in-memory ring
    /// evicts. Replaces (and returns) any previously attached recorder.
    pub fn attach_recorder(&mut self, recorder: RunRecorder) -> Option<RunRecorder> {
        self.recorder.replace(recorder)
    }

    /// Detaches the recorder, if any, so the caller can
    /// [`finish`](RunRecorder::finish) it.
    pub fn take_recorder(&mut self) -> Option<RunRecorder> {
        self.recorder.take()
    }

    /// The attached recorder, if any — for interleaving extra records
    /// (notes, metrics snapshots) with the advisor's own stream.
    pub fn recorder_mut(&mut self) -> Option<&mut RunRecorder> {
        self.recorder.as_mut()
    }

    /// Logs an event: stream to the attached recorder first (full
    /// history), then into the bounded in-memory ring.
    fn push_event(&mut self, event: OnlineEvent) {
        if let Some(rec) = &mut self.recorder {
            rec.record("event", trace::event_to_json(&event));
        }
        self.events.push(event);
    }

    /// Ground-truth cost of the active plan over time: `(hours, cost)`.
    pub fn cost_curve(&self) -> &[(f64, f64)] {
        &self.cost_curve
    }

    /// Recorded trigger instances (only with `record_triggers`).
    pub fn trigger_instances(&self) -> &[TriggerInstance] {
        &self.triggers
    }

    /// Total migration cost paid so far (policy units).
    pub fn migration_cost_paid(&self) -> f64 {
        self.migration_cost_paid
    }

    /// Total probe round trips ingested across all epochs — the
    /// measurement budget actually spent, for uniform-vs-focused
    /// comparisons.
    pub fn probe_round_trips(&self) -> u64 {
        self.probe_round_trips
    }

    /// Total round trips mid-sweep pruning saved across all epochs (0
    /// unless `prune_during_sweep` is on).
    pub fn sweep_saved_round_trips(&self) -> u64 {
        self.saved_round_trips_total
    }

    /// Total extra round trips re-invested into deeper sampling of
    /// flagged links (the `probe_ks` escalation; 0 unless pruning saved
    /// budget while links were flagged).
    pub fn deep_probe_round_trips(&self) -> u64 {
        self.deep_probe_rounds
    }

    /// The adaptive pool's current `k` (None without an adaptive
    /// candidates config).
    pub fn adaptive_k(&self) -> Option<usize> {
        self.adaptive.as_ref().map(AdaptivePool::k)
    }

    /// The adaptive pool's escalation-rate EWMA (None without an adaptive
    /// candidates config).
    pub fn escalation_rate(&self) -> Option<f64> {
        self.adaptive.as_ref().map(AdaptivePool::escalation_rate)
    }

    /// The candidate configuration the next re-solve will run with: the
    /// adaptive controller's current `k` projected onto the configured
    /// base, or the base itself.
    fn effective_candidates(&self) -> Option<CandidateConfig> {
        match (&self.adaptive, &self.config.candidates) {
            (Some(pool), Some(base)) => Some(pool.effective(base)),
            (None, base) => *base,
            (Some(_), None) => unreachable!("adaptive controller without a candidates config"),
        }
    }

    /// The probe plan the next focused epoch would execute, given
    /// everything the advisor currently knows: the candidate-pool clique,
    /// every link the detectors flagged in the most recent step, and every
    /// link whose estimate has gone stale. Returns `None` under
    /// [`ProbePolicy::Uniform`] (the stream's own full sweep runs
    /// instead).
    ///
    /// Escalation: when the last step flagged more links than
    /// `max_flagged`, the shift is not local and the plan is the full
    /// tournament sweep. Staleness subsumes bootstrap: before the first
    /// sweep every link is unobserved, hence infinitely stale, hence the
    /// first plan is always full.
    pub fn next_probe_plan(&self) -> Option<ProbePlan> {
        let ProbePolicy::Focused { refresh_every, max_flagged } = self.config.probe_policy else {
            return None;
        };
        let m = self.store.len();
        if self.recent_flags.len() > max_flagged {
            return Some(ProbePlan::full(m));
        }
        let mut plan = ProbePlan::new(m);
        // The candidate pool: where any repair could ever land. Probing
        // its clique keeps every potential destination's costs fresh. The
        // incumbent is force-included, so all deployed links stay covered.
        // Without a candidates config, probe a default pool of 2n — the
        // auto solver pool (max(4n, 48)) is sized for thousand-instance
        // solves and would cover every instance at typical allocations,
        // silently degrading focused probing to uniform sweeps.
        let pool_config = self
            .effective_candidates()
            .unwrap_or_else(|| CandidateConfig::fixed(2 * self.graph.num_nodes()));
        // With mid-sweep pruning the store's coverage is deliberately
        // partial, so the pool comes from the measured quantiles alone
        // (unobserved links exert no pull); otherwise score on the
        // worst-filled cost matrix as before.
        let pool = if self.config.prune_during_sweep {
            CandidateSet::build_partial(
                self.graph.num_nodes(),
                &self.store.partial_stats(),
                &pool_config,
                Some(&self.deployment),
                None,
                CandidatePruneRule::DEFAULT_MIN_COVERAGE,
            )
        } else {
            let problem = self.graph.problem(self.search_costs());
            CandidateSet::build(&problem, &pool_config, Some(&self.deployment), None)
        };
        plan.add_clique(pool.union());
        // Detector-flagged links always re-enter the plan.
        for &(src, dst) in &self.recent_flags {
            plan.add_pair(src, dst);
        }
        // Stale links re-enter too; skipped links age out together, so
        // this escalates to a periodic full refresh on its own.
        for (a, b) in self.store.stale_pairs(self.planning_epoch, refresh_every) {
            plan.add_pair(a, b);
        }
        Some(plan)
    }

    /// The scheme the next [`OnlineAdvisor::step_stream`] epoch will
    /// measure with, or `None` for the stream's own uniform sweep.
    pub fn next_probe_scheme(&self) -> Option<FocusedScheme> {
        self.next_probe_plan()
            .map(|plan| FocusedScheme::new(plan, self.config.probe_ks, self.config.probe_sweeps))
    }

    /// The prune rule the next [`OnlineAdvisor::step_stream`] epoch will
    /// evaluate between measurement stages, or `None` when
    /// `prune_during_sweep` is off. Without `confidence` it is a point
    /// rule, condemning pairs the partial quantiles prove outside every
    /// node's candidate pool; with one it is a CI rule, which demands
    /// interval separation instead (a one-sample link's interval is
    /// unbounded, so it never proves an endpoint out) and settles ε-ties
    /// within `1 − confidence`. Either way it protects the
    /// deployed links, everything the detectors just flagged, and every
    /// pair owed a staleness refresh.
    pub fn sweep_prune_rule(&self) -> Option<CandidatePruneRule> {
        if !self.config.prune_during_sweep {
            return None;
        }
        let nodes = self.graph.num_nodes();
        let pool_config =
            self.effective_candidates().unwrap_or_else(|| CandidateConfig::fixed(2 * nodes));
        let rule = match self.config.confidence {
            None => CandidatePruneRule::point(nodes, pool_config),
            // The indifference margin mirrors the anytime error bound: an
            // ε-tie at the pool boundary costs at most what the contract
            // already concedes, so it may be settled rather than probed
            // forever.
            Some(c) => CandidatePruneRule::ci(nodes, pool_config, c).with_tolerance(1.0 - c),
        };
        let mut rule = rule.with_incumbent(&self.deployment);
        // Deployed links are never proven out by force-inclusion already,
        // but the never-pruned guarantee should not hinge on that.
        for &(a, b) in self.graph.edges() {
            rule.protect_pair(self.deployment[a as usize], self.deployment[b as usize]);
        }
        for &(src, dst) in &self.recent_flags {
            rule.protect_pair(src, dst);
        }
        let horizon = match self.config.probe_policy {
            ProbePolicy::Focused { refresh_every, .. } => refresh_every,
            ProbePolicy::Uniform => self.config.prune_refresh_every.max(1),
        };
        for (a, b) in self.store.stale_pairs(self.planning_epoch, horizon) {
            rule.protect_pair(a, b);
        }
        Some(rule)
    }

    /// The anytime stop rule for the next epoch, or `None` unless
    /// `anytime` is set: it wraps [`OnlineAdvisor::sweep_prune_rule`]'s CI
    /// rule, and the sweep may end a stage early only once every
    /// instance is provably inside or outside every candidate pool at the
    /// configured confidence — or a sweep-equivalent of fresh samples
    /// moved no verdict ([`CiStopRule`]). After the stop fires, only
    /// deployed and recently flagged links keep probing (they feed the
    /// change detectors every epoch); pairs protected merely for
    /// *staleness* are not kept at depth, because the plateau cannot fire
    /// before a sweep-equivalent of fresh samples — their refresh
    /// included — has already landed.
    pub fn sweep_stop_rule(&self) -> Option<CiStopRule> {
        if !self.config.anytime {
            return None;
        }
        let rule = self.sweep_prune_rule()?;
        let mut keep: Vec<(u32, u32)> = self
            .graph
            .edges()
            .iter()
            .map(|&(a, b)| (self.deployment[a as usize], self.deployment[b as usize]))
            .collect();
        keep.extend(self.recent_flags.iter().copied());
        Some(CiStopRule::new(rule).with_must_keep(keep))
    }

    /// The widest *finite* CI half-width across the links the current
    /// deployment actually uses (both directions), at the configured
    /// confidence — the uncertainty floor a repair's estimated gain must
    /// clear on top of the relative min-gain bar. 0 when `confidence` is
    /// unset (the legacy point-estimate economics) or when no deployed
    /// link has a bounded interval yet (nothing quantified, nothing to
    /// charge: the existing cooldown and min-gain bars still apply).
    fn deployed_ci_margin(&self) -> f64 {
        let Some(conf) = self.config.confidence else {
            return 0.0;
        };
        let mut margin: f64 = 0.0;
        for &(a, b) in self.graph.edges() {
            let i = self.deployment[a as usize] as usize;
            let j = self.deployment[b as usize] as usize;
            for (s, d) in [(i, j), (j, i)] {
                let hw = self.store.mean_half_width(s, d, conf);
                if hw.is_finite() {
                    margin = margin.max(hw);
                }
            }
        }
        margin
    }

    /// `probe_ks` escalation: raises the flagged links' per-pair quota in
    /// `scheme` so the extra round trips consume (up to) what the last
    /// epoch's pruning saved, instead of banking the savings. Skipped
    /// when nothing was saved, nothing is flagged, or the plan is full
    /// (a full plan delegates to the stream's sweep).
    fn deepen_flagged(&mut self, scheme: &mut FocusedScheme) {
        if self.last_saved_round_trips == 0 || self.recent_flags.is_empty() {
            return;
        }
        let mut flagged: Vec<(u32, u32)> = self
            .recent_flags
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .filter(|&(a, b)| scheme.plan.contains(a, b))
            .collect();
        flagged.sort_unstable();
        flagged.dedup();
        if flagged.is_empty() {
            return;
        }
        // Spend savings evenly across sweeps and flagged pairs, capped
        // so one quiet link cannot be probed absurdly deep.
        let per_pair = self.last_saved_round_trips as usize
            / (self.config.probe_sweeps * flagged.len()).max(1);
        let extra = per_pair.min(3 * self.config.probe_ks);
        if extra == 0 {
            return;
        }
        let deep_ks = self.config.probe_ks + extra;
        scheme.deepen(&flagged, deep_ks);
        self.deep_probe_rounds += scheme.deep_extra_round_trips();
        self.push_event(OnlineEvent::DeepProbe {
            epoch: self.planning_epoch,
            pairs: flagged.len(),
            ks: deep_ks,
        });
    }

    /// Total nodes moved across all migrations.
    pub fn moved_total(&self) -> u64 {
        self.moved_total
    }

    /// Time-averaged deployment cost including amortized migrations:
    /// `(Σ per-epoch true cost + migration cost paid) / epochs`.
    pub fn time_averaged_cost(&self) -> f64 {
        if self.epoch == 0 {
            return 0.0;
        }
        (self.total_true_cost + self.migration_cost_paid) / self.epoch as f64
    }

    /// Search costs from the store, with never-observed links defaulting
    /// to the worst observed mean (pessimism keeps the solver away from
    /// links it knows nothing about).
    ///
    /// Packet loss is priced in as *expected completion time*: a link
    /// with loss-rate EWMAs `p` (per direction) costs its mean plus the
    /// expected timeouts, `mean + (1/success − 1)·timeout_ms` — the same
    /// shape [`Network::effective_mean_matrix`] gives the ground truth,
    /// but from the store's own estimates. A dark link (loss → 1, success
    /// floored at 1%) prices at ~99 timeouts, so ranking-based consumers
    /// ([`select_free_nodes`](crate::repair::select_free_nodes), candidate
    /// pools, the evacuation re-solve) push away from dark instances on
    /// cost alone. Loss-free links are priced exactly as before.
    fn search_costs(&self) -> CostMatrix {
        let n = self.store.len();
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                if i != j && self.store.link(i, j).ewma.count() > 0 {
                    worst = worst.max(self.store.link(i, j).ewma.mean());
                }
            }
        }
        let mut b = CostMatrix::builder(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let link = self.store.link(i, j);
                    let base = if link.ewma.count() > 0 { link.ewma.mean() } else { worst };
                    let (fwd, rev) = if self.config.loss_aware {
                        (link.loss_rate(), self.store.link(j, i).loss_rate())
                    } else {
                        (0.0, 0.0)
                    };
                    let cost = if fwd > 0.0 || rev > 0.0 {
                        let success = ((1.0 - fwd) * (1.0 - rev)).max(0.01);
                        base + (1.0 / success - 1.0) * self.config.timeout_ms
                    } else {
                        base
                    };
                    b.set(i, j, cost);
                }
            }
        }
        b.freeze().expect("EWMA means are finite and non-negative")
    }

    /// Instances presumed dark: unreachable (a dark link in either
    /// direction) from **two or more distinct neighbours**, and from **a
    /// majority of the neighbours ever attempted**. A single dark pair
    /// only proves a link blackout — either endpoint could be at fault,
    /// and evacuating on it would guess; two distinct unreachable
    /// neighbours localize the fault to the shared instance. The majority
    /// clause keeps a healthy instance that merely *borders* several dark
    /// instances from being condemned by association.
    fn dark_instances(&self) -> Vec<u32> {
        let m = self.store.len();
        let mut dark = Vec::new();
        for i in 0..m {
            let (mut attempted, mut unreachable) = (0usize, 0usize);
            for j in 0..m {
                if i == j {
                    continue;
                }
                let (fwd, rev) = (self.store.link(i, j), self.store.link(j, i));
                if fwd.attempts > 0 || rev.attempts > 0 {
                    attempted += 1;
                    if fwd.is_dark() || rev.is_dark() {
                        unreachable += 1;
                    }
                }
            }
            if unreachable >= 2 && 2 * unreachable >= attempted {
                dark.push(i as u32);
            }
        }
        dark
    }

    /// Ingests one epoch and runs the control loop. `net` is the current
    /// ground-truth network, used only for the cost curve and event log —
    /// priced as expected completion time under the configured timeout
    /// ([`Network::effective_mean_matrix`]; plain means on a loss-free
    /// network). Spot-check confirmation needs stream access and
    /// therefore only runs through [`OnlineAdvisor::step_stream`].
    pub fn step(&mut self, m: &EpochMeasurement, net: &Network) -> EpochSummary {
        self.step_core(m, net.effective_mean_matrix(self.config.timeout_ms), None)
    }

    /// The control loop proper: `truth_costs` is the ground-truth cost
    /// matrix (cost curve and event log only), `spot` the optional
    /// single-link confirmation prober (RTT and loss trials).
    fn step_core(
        &mut self,
        m: &EpochMeasurement,
        truth_costs: CostMatrix,
        mut spot: Option<&mut dyn SpotProber>,
    ) -> EpochSummary {
        let epoch = m.epoch;
        let mut span = cloudia_obs::span!("online.step", epoch = epoch);
        self.probe_round_trips += m.round_trips;
        self.planning_epoch = epoch + 1;
        self.last_saved_round_trips = m.saved_round_trips;
        self.saved_round_trips_total += m.saved_round_trips;
        if m.pruned_pairs > 0 || m.saved_round_trips > 0 {
            self.push_event(OnlineEvent::SweepPruned {
                epoch,
                dropped_pairs: m.pruned_pairs,
                saved_round_trips: m.saved_round_trips,
            });
        }
        let changes = self.store.observe_epoch(m);

        // Which directed instance links does the active plan occupy?
        let deployed: std::collections::HashSet<(u32, u32)> = self
            .graph
            .edges()
            .iter()
            .map(|&(a, b)| (self.deployment[a as usize], self.deployment[b as usize]))
            .collect();

        let mut degradation = false;
        let mut opportunity = false;
        for c in &changes {
            let on_deployed = deployed.contains(&(c.src, c.dst));
            if c.dark {
                if !self.config.loss_aware {
                    // Loss-blind baseline: the pre-loss loop had no
                    // darkness concept — log the change and move on.
                    self.push_event(OnlineEvent::Change {
                        epoch,
                        change: *c,
                        on_deployed_link: on_deployed,
                    });
                    continue;
                }
                // Darkness triage: the link swallowed every probe, so the
                // latency economics below do not apply — confirm the
                // blackout with fresh loss trials (a transient may have
                // lifted already) and leave the repair decision to the
                // dark-instance evacuation pass after this loop. A
                // refuted alarm clears the store's flag, re-arming the
                // triage for the next sampleless epoch.
                let confirmed = match spot.as_deref_mut() {
                    Some(probe) if self.config.spot_check_probes > 0 => {
                        match probe.loss(c.src, c.dst) {
                            Some((successes, attempts)) => {
                                self.probe_round_trips += attempts;
                                successes * 2 <= attempts
                            }
                            // The stream cannot probe single links: trust
                            // the store's triage.
                            None => true,
                        }
                    }
                    _ => true,
                };
                if !confirmed {
                    self.store.clear_dark(c.src as usize, c.dst as usize);
                }
                self.push_event(OnlineEvent::LinkDark {
                    epoch,
                    src: c.src,
                    dst: c.dst,
                    loss_rate: c.loss_rate,
                    confirmed,
                });
                self.push_event(OnlineEvent::Change {
                    epoch,
                    change: *c,
                    on_deployed_link: on_deployed,
                });
                continue;
            }
            // CI gating: with a confidence level set, an alarm whose
            // shift sits inside the link's own interval is
            // indistinguishable from sampling noise — log it (and let it
            // focus next epoch's probes via `recent_flags`), but do not
            // let it reach the redeployment economics. More data either
            // separates the shift (a later alarm fires gated-through) or
            // the EWMA absorbs it.
            let separated = self.config.confidence.is_none_or(|conf| {
                (c.mean - c.baseline).abs()
                    > self.store.mean_half_width(c.src as usize, c.dst as usize, conf)
            });
            match c.drift {
                Drift::Up if on_deployed && separated => {
                    // Spot-check path: confirm the suspicious link with a
                    // handful of fresh probes before letting it trigger a
                    // repair. The shift is confirmed when the fresh mean
                    // still sits at least halfway from the pre-alarm
                    // baseline to the alarm level. Once one alarm has
                    // confirmed, the epoch's trigger verdict is settled —
                    // further alarms skip the probes instead of spending
                    // budget on a question already answered.
                    let confirmed = match spot.as_deref_mut() {
                        Some(probe) if self.config.spot_check_probes > 0 && !degradation => {
                            match probe.latency(c.src, c.dst) {
                                Some(mean) => {
                                    self.probe_round_trips += self.config.spot_check_probes as u64;
                                    let confirmed = mean >= 0.5 * (c.baseline + c.mean);
                                    self.push_event(OnlineEvent::SpotCheck {
                                        epoch,
                                        src: c.src,
                                        dst: c.dst,
                                        mean,
                                        confirmed,
                                    });
                                    confirmed
                                }
                                // The stream cannot probe single links:
                                // fall back to trusting the detector.
                                None => true,
                            }
                        }
                        _ => true,
                    };
                    if confirmed {
                        degradation = true;
                    }
                }
                Drift::Down if !on_deployed && separated => opportunity = true,
                _ => {}
            }
            self.push_event(OnlineEvent::Change {
                epoch,
                change: *c,
                on_deployed_link: on_deployed,
            });
        }
        // Everything flagged this step must be probed next epoch.
        self.recent_flags = changes.iter().map(|c| (c.src, c.dst)).collect();
        let probe_escalated = matches!(
            self.config.probe_policy,
            ProbePolicy::Focused { max_flagged, .. } if changes.len() > max_flagged
        );

        let cooled =
            self.last_resolve.is_none_or(|last| epoch >= last + self.config.cooldown_epochs.max(1));

        let problem = self.graph.problem(self.search_costs());
        // One ground-truth problem per epoch (one flat-arena build),
        // shared by the migration event and the epoch accounting below.
        let truth_problem = self.graph.problem(truth_costs);
        let mut moved = 0usize;
        let mut repair_unanswered = false;

        // Dark-instance evacuation: when the triage localizes a fault to
        // an instance the plan occupies, free exactly its nodes and
        // re-place them — no cooldown, no gain threshold. Darkness is an
        // availability event: waiting an epoch or demanding a margin over
        // a plan whose links already price at ~99 timeouts would be
        // pretending the economics still apply. The ordinary latency
        // repair is skipped this epoch (its trigger verdicts were formed
        // on the same, now-evacuated plan).
        let dark_instances =
            if self.config.loss_aware { self.dark_instances() } else { Vec::new() };
        let evacuating = !dark_instances.is_empty()
            && self.deployment.iter().any(|j| dark_instances.contains(j));
        if evacuating {
            self.last_resolve = Some(epoch);
            let repair_config = RepairConfig {
                migration_budget: self.config.migration_budget,
                solve_seconds: self.config.solve_seconds,
                threads: self.config.threads,
                seed: self.config.seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                candidates: self.effective_candidates(),
            };
            let repair = evacuate_resolve(
                &problem,
                self.config.objective,
                &self.deployment,
                &dark_instances,
                &repair_config,
            );
            cloudia_obs::observe("online.resolve_seconds", repair.solve_seconds);
            let accepted = repair.moved > 0;
            repair_unanswered = repair.moved == 0;
            self.push_event(OnlineEvent::Resolve {
                epoch,
                freed: repair.freed.clone(),
                moved: repair.moved,
                est_gain: repair.incumbent_cost - repair.cost,
                solve_seconds: repair.solve_seconds,
                accepted,
            });
            if accepted {
                let before = truth_problem.cost(self.config.objective, &self.deployment);
                let after = truth_problem.cost(self.config.objective, &repair.deployment);
                self.deployment = repair.deployment;
                moved = repair.moved;
                self.moved_total += moved as u64;
                self.migration_cost_paid +=
                    self.config.policy.migration_cost_per_node * moved as f64;
                self.push_event(OnlineEvent::Migrate {
                    epoch,
                    moved,
                    true_cost_before: before,
                    true_cost_after: after,
                });
            }
            self.push_event(OnlineEvent::Evacuate { epoch, instances: dark_instances, moved });
        }

        let triggered = (degradation || opportunity) && cooled && !evacuating;
        if triggered {
            self.last_resolve = Some(epoch);
            if self.config.record_triggers {
                self.triggers.push(TriggerInstance {
                    epoch,
                    costs: problem.costs.clone(),
                    incumbent: self.deployment.clone(),
                });
            }
            let repair_config = RepairConfig {
                migration_budget: self.config.migration_budget,
                solve_seconds: self.config.solve_seconds,
                threads: self.config.threads,
                seed: self.config.seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                candidates: self.effective_candidates(),
            };
            let repair = incremental_resolve(
                &problem,
                self.config.objective,
                &self.deployment,
                &repair_config,
            );
            cloudia_obs::observe("online.resolve_seconds", repair.solve_seconds);
            let est_gain = repair.incumbent_cost - repair.cost;
            let amortized = self.config.policy.migration_cost_per_node * repair.moved as f64;
            // With a confidence level set, the estimated gain must also
            // clear the widest deployed-link CI half-width: a migration
            // is never bought with a gain the measurement error on the
            // links being abandoned could explain. 0 when disabled.
            let margin = self.deployed_ci_margin();
            let accepted = repair.moved > 0
                && est_gain
                    >= self.config.policy.min_gain * repair.incumbent_cost.max(f64::MIN_POSITIVE)
                        + margin
                && est_gain > amortized;
            // A trigger the pool-restricted repair could not answer with
            // any improving move: either the incumbent is genuinely
            // locally optimal (pool fine) or every better destination sits
            // outside the pool (pool too tight) — the adaptive controller
            // reads a persistent pattern of these as "grow". Repairs that
            // found a gain but were declined by the migration economics
            // are answered triggers: the pool did its job.
            repair_unanswered = repair.moved == 0;
            self.push_event(OnlineEvent::Resolve {
                epoch,
                freed: repair.freed.clone(),
                moved: repair.moved,
                est_gain,
                solve_seconds: repair.solve_seconds,
                accepted,
            });
            if accepted {
                let before = truth_problem.cost(self.config.objective, &self.deployment);
                let after = truth_problem.cost(self.config.objective, &repair.deployment);
                self.deployment = repair.deployment;
                moved = repair.moved;
                self.moved_total += moved as u64;
                self.migration_cost_paid += amortized;
                self.push_event(OnlineEvent::Migrate {
                    epoch,
                    moved,
                    true_cost_before: before,
                    true_cost_after: after,
                });
            }
        }

        // Adaptive pool bookkeeping: an epoch counts as an escalation when
        // the probe plan had to fall back to a full sweep (the detectors
        // fired too broadly for the pool to contain the shift) or a
        // triggered repair went unanswered inside the pool; quiet and
        // profitably-repaired epochs are evidence the pool suffices.
        if let Some(pool) = &mut self.adaptive {
            let before = pool.k();
            let after = pool.observe(probe_escalated || repair_unanswered);
            let rate = pool.escalation_rate();
            if after != before {
                self.push_event(OnlineEvent::PoolResize { epoch, from: before, to: after, rate });
            }
        }

        // Account the epoch under the plan that is active *after* any
        // migration this epoch.
        let est_cost = problem.cost(self.config.objective, &self.deployment);
        let true_cost = truth_problem.cost(self.config.objective, &self.deployment);
        self.total_true_cost += true_cost;
        self.cost_curve.push((m.at_hours, true_cost));
        self.push_event(OnlineEvent::Epoch {
            epoch,
            at_hours: m.at_hours,
            round_trips: m.round_trips,
            est_cost,
            true_cost,
        });
        self.epoch += 1;

        // Control-loop telemetry at epoch grain: one span plus a handful
        // of counter bumps per step, nothing in the per-link loops above.
        if cloudia_obs::enabled() {
            cloudia_obs::counter("online.steps", 1);
            cloudia_obs::counter("online.detector_fires", changes.len() as u64);
            cloudia_obs::counter("online.resolves", u64::from(triggered || evacuating));
            cloudia_obs::counter("online.migrations", u64::from(moved > 0));
            cloudia_obs::counter("online.evacuations", u64::from(evacuating));
            cloudia_obs::counter("online.nodes_moved", moved as u64);
            span.attr("fires", changes.len());
            span.attr("triggered", u64::from(triggered || evacuating));
            span.attr("moved", moved);
            span.attr("true_cost", true_cost);
        }
        drop(span);

        let summary = EpochSummary {
            epoch,
            at_hours: m.at_hours,
            est_cost,
            true_cost,
            triggered: triggered || evacuating,
            moved,
            round_trips: m.round_trips,
            saved_round_trips: m.saved_round_trips,
        };
        if let Some(rec) = &mut self.recorder {
            rec.record("epoch", trace::epoch_summary_to_json(&summary));
        }
        summary
    }

    /// Runs one epoch against a stream, measuring under the configured
    /// [`ProbePolicy`]: uniform epochs run the stream's own full sweep,
    /// focused epochs run the advisor's current probe plan through the
    /// stream's cumulative statistics. A focused plan that covers every
    /// pair (bootstrap, escalation, mass staleness) delegates to the
    /// stream's own sweep — the measurement is the same tournament, minus
    /// the O(m²) plan materialization.
    ///
    /// With `prune_during_sweep` the epoch executes on the streaming
    /// driver with [`OnlineAdvisor::sweep_prune_rule`] evaluated between
    /// stages, plus [`OnlineAdvisor::sweep_stop_rule`]'s anytime early
    /// stop when `anytime` is on (the stop wraps the prune rule, so both
    /// read one evidence store); with `spot_check_probes > 0`
    /// degradation alarms are confirmed against fresh single-link probes
    /// before they may trigger.
    pub fn step_stream<S: MeasurementStream>(&mut self, stream: &mut S) -> EpochSummary {
        let stop = self.sweep_stop_rule();
        let own_rule = if stop.is_none() { self.sweep_prune_rule() } else { None };
        let rule = stop.as_ref().map(CiStopRule::rule).or(own_rule.as_ref());
        let mut scheme = self.next_probe_scheme();
        if let (Some(s), true) = (scheme.as_mut(), self.config.prune_during_sweep) {
            if !s.plan.is_full() {
                self.deepen_flagged(s);
            }
        }
        // A full plan without deepened pairs measures exactly what the
        // stream's own sweep measures.
        let scheme_ref: Option<&dyn Scheme> = match &scheme {
            Some(s) if s.plan.is_full() && s.deep_extra_round_trips() == 0 => None,
            other => other.as_ref().map(|s| s as &dyn Scheme),
        };
        let m = match (rule, &stop) {
            (None, _) => match scheme_ref {
                None => stream.next_epoch(),
                Some(s) => stream.next_epoch_with(s),
            },
            (Some(rule), None) => stream.next_epoch_pruned(scheme_ref, rule),
            (Some(rule), Some(stop)) => stream.next_epoch_anytime(scheme_ref, rule, stop),
        };
        let truth = stream.network().effective_mean_matrix(self.config.timeout_ms);
        let probes = self.config.spot_check_probes;
        if probes == 0 {
            self.step_core(&m, truth, None)
        } else {
            let mut prober = StreamProber { stream, probes };
            self.step_core(&m, truth, Some(&mut prober))
        }
    }

    /// Drives the loop for `epochs` epochs of a stream.
    pub fn run<S: MeasurementStream>(&mut self, stream: &mut S, epochs: u64) -> Vec<EpochSummary> {
        (0..epochs).map(|_| self.step_stream(stream)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SimStream;
    use cloudia_measure::{MeasureConfig, Staged};
    use cloudia_netsim::{Cloud, Provider};

    fn setup(n_nodes: usize, instances: usize, seed: u64) -> (CommGraph, Network, Deployment) {
        let graph = CommGraph::ring(n_nodes);
        let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
        let alloc = cloud.allocate(instances);
        let net = cloud.network(&alloc);
        let initial: Deployment = (0..n_nodes as u32).collect();
        (graph, net, initial)
    }

    fn fast_config() -> OnlineAdvisorConfig {
        OnlineAdvisorConfig {
            solve_seconds: 0.3,
            migration_budget: 2,
            detector: DetectorConfig { warmup: 3, threshold: 6.0, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn loop_runs_and_logs_epochs() {
        let (graph, net, initial) = setup(5, 7, 1);
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, fast_config());
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 9);
        let summaries = advisor.run(&mut stream, 6);
        assert_eq!(summaries.len(), 6);
        assert_eq!(advisor.cost_curve().len(), 6);
        let epochs =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Epoch { .. })).count();
        assert_eq!(epochs, 6);
        assert!(summaries.iter().all(|s| s.true_cost > 0.0));
        assert!(advisor.time_averaged_cost() > 0.0);
    }

    #[test]
    fn migrations_never_exceed_the_budget_per_epoch() {
        let (graph, net, initial) = setup(6, 9, 2);
        let mut config = fast_config();
        config.policy = RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 };
        let mut advisor = OnlineAdvisor::new(graph, 9, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 6.0, 13);
        let summaries = advisor.run(&mut stream, 10);
        for s in &summaries {
            assert!(s.moved <= 2, "epoch {}: moved {}", s.epoch, s.moved);
        }
        assert_eq!(advisor.moved_total(), summaries.iter().map(|s| s.moved as u64).sum::<u64>());
    }

    #[test]
    fn prohibitive_migration_cost_freezes_the_plan() {
        let (graph, net, initial) = setup(5, 7, 3);
        let mut config = fast_config();
        config.policy = RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 1e9 };
        let mut advisor = OnlineAdvisor::new(graph, 7, initial.clone(), config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 6.0, 17);
        advisor.run(&mut stream, 8);
        assert_eq!(advisor.deployment(), &initial);
        assert_eq!(advisor.migration_cost_paid(), 0.0);
        assert!(advisor.events().iter().all(|e| !matches!(e, OnlineEvent::Migrate { .. })));
    }

    #[test]
    fn focused_probing_spends_less_and_first_epoch_is_a_full_sweep() {
        let run = |policy: ProbePolicy| {
            let (graph, net, initial) = setup(4, 20, 6);
            let mut config = fast_config();
            config.probe_policy = policy;
            config.candidates = Some(cloudia_solver::CandidateConfig::fixed(5));
            let mut advisor = OnlineAdvisor::new(graph, 20, initial, config);
            let mut stream =
                SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 9);
            let summaries = advisor.run(&mut stream, 8);
            (advisor.probe_round_trips(), summaries)
        };
        let (uniform_probes, _) = run(ProbePolicy::Uniform);
        let (focused_probes, summaries) =
            run(ProbePolicy::Focused { refresh_every: 10, max_flagged: 8 });
        // Epoch 0: everything is unobserved, hence stale, hence full.
        assert_eq!(summaries[0].round_trips, uniform_probes / 8);
        // Later epochs focus on the candidate clique and spend less.
        assert!(
            focused_probes * 2 < uniform_probes,
            "focused {focused_probes} vs uniform {uniform_probes}"
        );
        assert!(summaries.iter().all(|s| s.true_cost > 0.0));
    }

    #[test]
    fn uniform_policy_has_no_probe_plan_and_focused_does() {
        let (graph, _, initial) = setup(5, 10, 7);
        let advisor = OnlineAdvisor::new(graph.clone(), 10, initial.clone(), fast_config());
        assert!(advisor.next_probe_plan().is_none());
        let mut config = fast_config();
        config.probe_policy = ProbePolicy::Focused { refresh_every: 4, max_flagged: 5 };
        let advisor = OnlineAdvisor::new(graph, 10, initial, config);
        let plan = advisor.next_probe_plan().expect("focused policy plans probes");
        assert!(plan.is_full(), "the bootstrap plan must be a full sweep");
        assert!(advisor.next_probe_scheme().is_some());
    }

    #[test]
    fn adaptive_pool_shrinks_and_logs_resizes_on_a_quiet_loop() {
        let (graph, net, initial) = setup(5, 14, 8);
        let mut config = fast_config();
        // A high threshold keeps detectors quiet: pure stationary tail.
        config.detector = DetectorConfig { warmup: 3, threshold: 50.0, ..Default::default() };
        config.candidates =
            Some(cloudia_solver::CandidateConfig::adaptive(cloudia_solver::AdaptivePoolConfig {
                initial: 12,
                ..Default::default()
            }));
        let mut advisor = OnlineAdvisor::new(graph, 14, initial, config);
        assert_eq!(advisor.adaptive_k(), Some(12));
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 1.0, 11);
        advisor.run(&mut stream, 12);
        let k = advisor.adaptive_k().expect("adaptive controller is live");
        assert!(k < 12, "k {k} did not shrink on a quiet loop");
        assert!(advisor
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::PoolResize { from, to, .. } if to < from)));
        assert!(advisor.escalation_rate().unwrap() < 0.15);
    }

    #[test]
    fn pruned_uniform_loop_spends_less_after_the_first_epoch() {
        let run = |prune: bool| {
            let (graph, net, initial) = setup(4, 20, 21);
            let mut config = fast_config();
            config.candidates = Some(cloudia_solver::CandidateConfig::fixed(6));
            config.prune_during_sweep = prune;
            config.prune_refresh_every = 50; // beyond the horizon: staleness never protects
            let mut advisor = OnlineAdvisor::new(graph, 20, initial, config);
            let mut stream =
                SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 9);
            let summaries = advisor.run(&mut stream, 6);
            (advisor, summaries)
        };
        let (plain, plain_summaries) = run(false);
        let (pruned, summaries) = run(true);
        // Epoch 0: no samples yet, nothing provable, full sweep.
        assert_eq!(summaries[0].round_trips, plain_summaries[0].round_trips);
        assert_eq!(summaries[0].saved_round_trips, 0);
        // Later epochs prune the sweep down to (roughly) the pool clique.
        for s in &summaries[1..] {
            assert!(
                s.round_trips < plain_summaries[0].round_trips / 2,
                "epoch {}: pruned sweep spent {} of a full sweep's {}",
                s.epoch,
                s.round_trips,
                plain_summaries[0].round_trips
            );
            assert!(s.saved_round_trips > 0, "epoch {}: nothing saved", s.epoch);
        }
        assert!(pruned.probe_round_trips() * 2 < plain.probe_round_trips());
        assert_eq!(
            pruned.sweep_saved_round_trips(),
            summaries.iter().map(|s| s.saved_round_trips).sum::<u64>()
        );
        assert!(pruned
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::SweepPruned { saved_round_trips, .. } if *saved_round_trips > 0)));
        // The unpruned loop never reports pruning.
        assert_eq!(plain.sweep_saved_round_trips(), 0);
    }

    #[test]
    fn pruning_never_starves_deployed_links() {
        let (graph, net, initial) = setup(5, 16, 23);
        let deployed: Vec<(u32, u32)> = graph
            .edges()
            .iter()
            .map(|&(a, b)| (initial[a as usize], initial[b as usize]))
            .collect();
        let mut config = fast_config();
        config.candidates = Some(cloudia_solver::CandidateConfig::fixed(5));
        config.prune_during_sweep = true;
        let mut advisor = OnlineAdvisor::new(graph, 16, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 3);
        advisor.run(&mut stream, 5);
        // Every deployed link kept getting samples on every epoch: each
        // direction is covered once per epoch (one of the two sweeps) at
        // ks 2, so 5 epochs x 2 = 10 per direction.
        for &(a, b) in &deployed {
            let forward = stream.cumulative().link(a as usize, b as usize).count();
            let reverse = stream.cumulative().link(b as usize, a as usize).count();
            assert_eq!(forward, 10, "deployed link ({a},{b}) was pruned");
            assert_eq!(reverse, 10, "deployed link ({b},{a}) was pruned");
        }
    }

    #[test]
    fn ci_rules_require_confidence_pruning_and_anytime() {
        let (graph, _, initial) = setup(4, 10, 31);
        let mut config = fast_config();
        config.prune_during_sweep = true;
        let advisor = OnlineAdvisor::new(graph.clone(), 10, initial.clone(), config.clone());
        let point = advisor.sweep_prune_rule().expect("pruning is on");
        assert_eq!(point.confidence(), None, "no confidence: point rule");
        assert!(advisor.sweep_stop_rule().is_none());

        config.confidence = Some(0.95);
        let advisor = OnlineAdvisor::new(graph.clone(), 10, initial.clone(), config.clone());
        let rule = advisor.sweep_prune_rule().expect("pruning is on");
        assert_eq!(rule.confidence(), Some(0.95));
        // The CI rule carries the point rule's protections verbatim
        // (deployed links, flags, staleness refreshes).
        assert_eq!(rule.protected_pairs(), point.protected_pairs());
        assert!(rule.protected_pairs() >= graph.edges().len());
        assert!(advisor.sweep_stop_rule().is_none(), "anytime off: no stop rule");

        config.anytime = true;
        let advisor = OnlineAdvisor::new(graph, 10, initial, config);
        let stop = advisor.sweep_stop_rule().expect("anytime is on");
        assert_eq!(stop.rule().confidence(), Some(0.95));
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0, 1)")]
    fn out_of_range_confidence_is_rejected_at_construction() {
        let (graph, _, initial) = setup(4, 10, 31);
        let config = OnlineAdvisorConfig { confidence: Some(1.5), ..fast_config() };
        OnlineAdvisor::new(graph, 10, initial, config);
    }

    #[test]
    #[should_panic(expected = "anytime sweeps need both confidence and prune_during_sweep")]
    fn anytime_without_confidence_and_pruning_is_rejected_at_construction() {
        let (graph, _, initial) = setup(4, 10, 31);
        let config =
            OnlineAdvisorConfig { anytime: true, prune_during_sweep: true, ..fast_config() };
        OnlineAdvisor::new(graph, 10, initial, config);
    }

    #[test]
    fn ci_anytime_loop_stays_green_and_never_spends_more_than_ci_pruning() {
        let run = |confidence: Option<f64>, anytime: bool| {
            let (graph, net, initial) = setup(4, 20, 21);
            let mut config = fast_config();
            config.candidates = Some(cloudia_solver::CandidateConfig::fixed(6));
            config.prune_during_sweep = true;
            config.prune_refresh_every = 50;
            config.confidence = confidence;
            config.anytime = anytime;
            let mut advisor = OnlineAdvisor::new(graph, 20, initial, config);
            let mut stream =
                SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 9);
            let summaries = advisor.run(&mut stream, 8);
            (advisor, summaries)
        };
        let (ci, ci_summaries) = run(Some(0.95), false);
        let (any, any_summaries) = run(Some(0.95), true);
        for s in ci_summaries.iter().chain(&any_summaries) {
            assert!(s.true_cost > 0.0);
        }
        // CI pruning condemns pairs once their intervals separate.
        assert!(ci.sweep_saved_round_trips() > 0, "CI pruning never condemned anything");
        // The anytime stop can only drop *more* of a sweep than the CI
        // rule alone: same rule between stages, plus the early stop.
        assert!(any.probe_round_trips() <= ci.probe_round_trips());
        assert!(any.sweep_saved_round_trips() >= ci.sweep_saved_round_trips());
    }

    fn gated_advisor(confidence: Option<f64>) -> OnlineAdvisor {
        let graph = CommGraph::ring(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.05,
            policy: RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 },
            detector: DetectorConfig { warmup: 3, threshold: 4.0, ..Default::default() },
            confidence,
            ..Default::default()
        };
        OnlineAdvisor::new(graph, 6, (0..4).collect(), config)
    }

    #[test]
    fn ci_gate_passes_separated_shifts_and_blocks_unseparated_ones() {
        let epochs = 12;
        let run = |confidence: Option<f64>| {
            let (_, net, _) = setup(4, 6, 31);
            let mut stream = ScriptedStream::new(net, spike_script(6, epochs), None);
            let mut advisor = gated_advisor(confidence);
            for _ in 0..epochs {
                advisor.step_stream(&mut stream);
            }
            let resolves = advisor
                .events()
                .iter()
                .filter(|e| matches!(e, OnlineEvent::Resolve { .. }))
                .count();
            let changes =
                advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Change { .. })).count();
            (resolves, changes)
        };
        let (plain, _) = run(None);
        assert!(plain > 0, "the baseline spike scenario must trigger");
        // A 60% regime change on a near-zero-variance link is separated
        // at 95%: the gate must not swallow genuine shifts.
        let (gated, _) = run(Some(0.95));
        assert!(gated > 0, "a clearly separated shift must still trigger at 95% confidence");
        // At near-certainty confidence every interval out-widens the
        // shift: alarms are logged (and keep focusing probes) but can
        // never reach the redeployment economics.
        let (strict, strict_changes) = run(Some(0.999_999));
        assert_eq!(strict, 0, "an unseparated alarm triggered a repair");
        assert!(strict_changes > 0, "gated alarms must still be logged");
    }

    /// A scripted stream for the spot-check tests: epochs are handed in
    /// verbatim, and single-link spot probes return a scripted value.
    struct ScriptedStream {
        net: Network,
        cumulative: cloudia_measure::PairwiseStats,
        epochs: std::collections::VecDeque<EpochMeasurement>,
        spot_value: Option<f64>,
        spot_calls: usize,
        /// Scripted result of loss spot probes: `None` = the stream
        /// cannot loss-probe, `Some((successes, attempts))` otherwise.
        spot_loss_value: Option<(u64, u64)>,
        spot_loss_calls: usize,
    }

    impl ScriptedStream {
        fn new(net: Network, epochs: Vec<EpochMeasurement>, spot_value: Option<f64>) -> Self {
            let n = net.len();
            Self {
                net,
                cumulative: cloudia_measure::PairwiseStats::new(n),
                epochs: epochs.into(),
                spot_value,
                spot_calls: 0,
                spot_loss_value: None,
                spot_loss_calls: 0,
            }
        }
    }

    impl MeasurementStream for ScriptedStream {
        fn len(&self) -> usize {
            self.net.len()
        }
        fn network(&self) -> &Network {
            &self.net
        }
        fn cumulative(&self) -> &cloudia_measure::PairwiseStats {
            &self.cumulative
        }
        fn next_epoch(&mut self) -> EpochMeasurement {
            self.epochs.pop_front().expect("script exhausted")
        }
        fn next_epoch_with(&mut self, _: &dyn cloudia_measure::Scheme) -> EpochMeasurement {
            self.next_epoch()
        }
        fn next_epoch_pruned(
            &mut self,
            _: Option<&dyn cloudia_measure::Scheme>,
            _: &dyn cloudia_measure::PruneRule,
        ) -> EpochMeasurement {
            self.next_epoch()
        }
        fn spot_check(&mut self, _src: u32, _dst: u32, _probes: usize) -> Option<f64> {
            self.spot_calls += 1;
            self.spot_value
        }
        fn spot_check_loss(&mut self, _src: u32, _dst: u32, _probes: usize) -> Option<(u64, u64)> {
            self.spot_loss_calls += 1;
            self.spot_loss_value
        }
    }

    /// Stable full-coverage epochs; from epoch `epochs - 4` onward the
    /// deployed link `0 → 1` sits 60% above its baseline (a persistent
    /// regime change), and instances 4+ are uniformly expensive (so a
    /// small candidate pool provably excludes them).
    fn spike_script(m: usize, epochs: u64) -> Vec<EpochMeasurement> {
        (0..epochs)
            .map(|e| {
                let deltas: Vec<crate::stream::LinkDelta> = (0..m as u32)
                    .flat_map(|i| (0..m as u32).filter(move |&j| j != i).map(move |j| (i, j)))
                    .map(|(i, j)| {
                        let far = if i >= 4 || j >= 4 { 2.0 } else { 0.0 };
                        let base = 1.0 + far + 0.05 * ((i + 2 * j) % 4) as f64;
                        let level = if e + 4 >= epochs && i == 0 && j == 1 { 1.6 } else { 1.0 };
                        crate::stream::LinkDelta {
                            src: i,
                            dst: j,
                            mean: base * level,
                            count: 5,
                            attempts: 5,
                            timeouts: 0,
                        }
                    })
                    .collect();
                EpochMeasurement {
                    epoch: e,
                    at_hours: e as f64,
                    elapsed_ms: 1.0,
                    round_trips: deltas.iter().map(|d| d.count).sum(),
                    deltas,
                    pruned_pairs: 0,
                    saved_round_trips: 0,
                }
            })
            .collect()
    }

    fn spot_check_advisor(probes: usize) -> OnlineAdvisor {
        let graph = CommGraph::ring(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.05,
            spot_check_probes: probes,
            policy: RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 },
            detector: DetectorConfig { warmup: 3, threshold: 4.0, ..Default::default() },
            ..Default::default()
        };
        OnlineAdvisor::new(graph, 6, (0..4).collect(), config)
    }

    #[test]
    fn refuted_spot_check_suppresses_the_repair() {
        let epochs = 12;
        let (_, net, _) = setup(4, 6, 31);
        // Spot probes report the old baseline: the alarm was a glitch.
        let mut stream = ScriptedStream::new(net, spike_script(6, epochs), Some(1.0));
        let mut advisor = spot_check_advisor(8);
        let probes_before_spots = (0..epochs).map(|_| advisor.step_stream(&mut stream)).count();
        assert!(probes_before_spots > 0);
        assert!(stream.spot_calls > 0, "the degradation alarm was never spot-checked");
        let spot_events: Vec<bool> = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::SpotCheck { confirmed, .. } => Some(*confirmed),
                _ => None,
            })
            .collect();
        assert!(!spot_events.is_empty());
        assert!(spot_events.iter().all(|&c| !c), "glitch alarms must be refuted");
        assert!(
            advisor.events().iter().all(|e| !matches!(e, OnlineEvent::Resolve { .. })),
            "a refuted alarm still triggered a repair"
        );
    }

    #[test]
    fn confirmed_spot_check_lets_the_repair_through() {
        let epochs = 12;
        let (_, net, _) = setup(4, 6, 31);
        // Spot probes agree with the alarm level: genuine degradation.
        let mut stream = ScriptedStream::new(net, spike_script(6, epochs), Some(1.6));
        let mut advisor = spot_check_advisor(8);
        for _ in 0..epochs {
            advisor.step_stream(&mut stream);
        }
        let confirmed = advisor
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::SpotCheck { confirmed: true, .. }));
        assert!(confirmed, "a genuine shift must be confirmed");
        assert!(
            advisor.events().iter().any(|e| matches!(e, OnlineEvent::Resolve { .. })),
            "a confirmed degradation must trigger a repair"
        );
        // Spot probes are charged to the probe budget.
        let measured: u64 = (0..epochs).map(|_| 6u64 * 5 * 5).sum();
        assert!(advisor.probe_round_trips() > measured);
    }

    #[test]
    fn streams_without_spot_support_fall_back_to_trusting_the_detector() {
        let epochs = 12;
        let (_, net, _) = setup(4, 6, 31);
        // spot_value None: the stream cannot probe single links.
        let mut stream = ScriptedStream::new(net, spike_script(6, epochs), None);
        let mut advisor = spot_check_advisor(8);
        for _ in 0..epochs {
            advisor.step_stream(&mut stream);
        }
        assert!(
            advisor.events().iter().any(|e| matches!(e, OnlineEvent::Resolve { .. })),
            "without spot support the alarm must trigger as before"
        );
        assert!(
            advisor.events().iter().all(|e| !matches!(e, OnlineEvent::SpotCheck { .. })),
            "no spot event without a spot result"
        );
    }

    #[test]
    fn pruning_savings_fund_deeper_flagged_sampling() {
        // Scripted epochs with full coverage (so the plan is never full),
        // reported savings, and a detector-flagging jump: the next
        // focused round must deepen the flagged pair.
        let m = 8;
        let (_, net, _) = setup(4, m, 33);
        let mut script = spike_script(m, 12);
        for e in &mut script {
            e.saved_round_trips = 60;
            e.pruned_pairs = 4;
        }
        let mut stream = ScriptedStream::new(net, script, None);
        let graph = CommGraph::ring(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.05,
            candidates: Some(cloudia_solver::CandidateConfig::fixed(4)),
            probe_policy: ProbePolicy::Focused { refresh_every: 40, max_flagged: 50 },
            prune_during_sweep: true,
            policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 1e9 },
            detector: DetectorConfig { warmup: 3, threshold: 4.0, ..Default::default() },
            ..Default::default()
        };
        let mut advisor = OnlineAdvisor::new(graph, m, (0..4).collect(), config);
        for _ in 0..12 {
            advisor.step_stream(&mut stream);
        }
        assert!(
            advisor.deep_probe_round_trips() > 0,
            "savings were banked instead of deepening flagged links"
        );
        assert!(advisor.events().iter().any(
            |e| matches!(e, OnlineEvent::DeepProbe { pairs, ks, .. } if *pairs > 0 && *ks > 3)
        ));
    }

    /// Full-coverage healthy epochs, then instance `dark` goes silent
    /// from `dark_from` on: every link touching it keeps being attempted
    /// but answers nothing.
    fn blackout_script(m: usize, epochs: u64, dark_from: u64, dark: u32) -> Vec<EpochMeasurement> {
        (0..epochs)
            .map(|e| {
                let deltas: Vec<crate::stream::LinkDelta> = (0..m as u32)
                    .flat_map(|i| (0..m as u32).filter(move |&j| j != i).map(move |j| (i, j)))
                    .map(|(i, j)| {
                        let base = 1.0 + 0.05 * ((i + 2 * j) % 4) as f64;
                        if e >= dark_from && (i == dark || j == dark) {
                            crate::stream::LinkDelta {
                                src: i,
                                dst: j,
                                mean: 0.0,
                                count: 0,
                                attempts: 5,
                                timeouts: 5,
                            }
                        } else {
                            crate::stream::LinkDelta {
                                src: i,
                                dst: j,
                                mean: base,
                                count: 5,
                                attempts: 5,
                                timeouts: 0,
                            }
                        }
                    })
                    .collect();
                EpochMeasurement {
                    epoch: e,
                    at_hours: e as f64,
                    elapsed_ms: 1.0,
                    round_trips: deltas.iter().map(|d| d.count).sum(),
                    deltas,
                    pruned_pairs: 0,
                    saved_round_trips: 0,
                }
            })
            .collect()
    }

    /// Prohibitive latency economics: only a forced evacuation may move
    /// the plan, which is exactly what the blackout tests must prove.
    fn blackout_advisor(spot_probes: usize) -> OnlineAdvisor {
        let graph = CommGraph::ring(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.1,
            spot_check_probes: spot_probes,
            policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 0.0 },
            detector: DetectorConfig { warmup: 3, ..Default::default() },
            ..Default::default()
        };
        OnlineAdvisor::new(graph, 6, (0..4).collect(), config)
    }

    #[test]
    fn blackout_raises_link_dark_and_evacuates_the_instance() {
        let (_, net, _) = setup(4, 6, 41);
        let mut stream = ScriptedStream::new(net, blackout_script(6, 12, 6, 1), None);
        let mut advisor = blackout_advisor(0);
        for _ in 0..12 {
            advisor.step_stream(&mut stream);
        }
        let darks: Vec<bool> = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::LinkDark { confirmed, .. } => Some(*confirmed),
                _ => None,
            })
            .collect();
        assert!(!darks.is_empty(), "the blackout never raised a LinkDark");
        assert!(darks.iter().all(|&c| c), "without spot probing the triage is trusted");
        assert!(
            advisor.events().iter().any(|e| matches!(
                e,
                OnlineEvent::Evacuate { instances, moved, .. }
                    if instances == &vec![1] && *moved >= 1
            )),
            "the dark instance was never evacuated"
        );
        assert!(
            advisor.deployment().iter().all(|&j| j != 1),
            "a node remained on the dark instance: {:?}",
            advisor.deployment()
        );
        // Under min_gain 1e9 a latency alarm could never migrate: the
        // move must have come from the triage path, not the economics.
        assert!(advisor.events().iter().any(|e| matches!(e, OnlineEvent::Migrate { .. })));
    }

    #[test]
    fn refuted_dark_spot_check_suppresses_evacuation_and_rearms() {
        let (_, net, _) = setup(4, 6, 41);
        let mut stream = ScriptedStream::new(net, blackout_script(6, 12, 6, 1), None);
        // Every fresh loss trial gets through: the blackout (as far as
        // spot probes can tell) already lifted.
        stream.spot_loss_value = Some((8, 8));
        let mut advisor = blackout_advisor(8);
        for _ in 0..12 {
            advisor.step_stream(&mut stream);
        }
        assert!(stream.spot_loss_calls > 0, "darkness was never spot-checked");
        let darks: Vec<bool> = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::LinkDark { confirmed, .. } => Some(*confirmed),
                _ => None,
            })
            .collect();
        assert!(darks.iter().all(|&c| !c), "refuted alarms must not read as confirmed");
        // Refutation clears the store flag, so the next sampleless epoch
        // re-raises the alarm instead of going silent forever.
        assert!(darks.len() > 10, "refuted darkness did not re-arm across epochs");
        assert!(
            advisor.events().iter().all(|e| !matches!(e, OnlineEvent::Evacuate { .. })),
            "a refuted blackout still evacuated"
        );
        assert_eq!(advisor.deployment(), &(0..4).collect::<Vec<u32>>());
    }

    #[test]
    fn confirmed_dark_spot_check_lets_the_evacuation_through() {
        let (_, net, _) = setup(4, 6, 41);
        let mut stream = ScriptedStream::new(net, blackout_script(6, 12, 6, 1), None);
        // Fresh loss trials agree: still swallowing everything.
        stream.spot_loss_value = Some((0, 8));
        let mut advisor = blackout_advisor(8);
        for _ in 0..12 {
            advisor.step_stream(&mut stream);
        }
        assert!(advisor
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::LinkDark { confirmed: true, .. })));
        assert!(advisor.events().iter().any(|e| matches!(e, OnlineEvent::Evacuate { .. })));
        assert!(advisor.deployment().iter().all(|&j| j != 1));
    }

    #[test]
    fn trigger_instances_are_recorded_when_asked() {
        let (graph, net, initial) = setup(5, 7, 4);
        let mut config = fast_config();
        config.record_triggers = true;
        config.policy = RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 };
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 8.0, 19);
        advisor.run(&mut stream, 12);
        let resolves =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Resolve { .. })).count();
        assert_eq!(advisor.trigger_instances().len(), resolves);
    }

    #[test]
    fn event_ring_caps_memory_but_recorder_keeps_the_full_history() {
        let (graph, net, initial) = setup(5, 7, 1);
        let mut config = fast_config();
        config.event_capacity = 3;
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, config);
        let (recorder, buf) = cloudia_obs::RunRecorder::to_vec(cloudia_obs::Json::obj());
        advisor.attach_recorder(recorder);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 9);
        let epochs = 6;
        advisor.run(&mut stream, epochs);
        // The ring held on to only the 3 newest events...
        assert_eq!(advisor.events().len(), 3);
        assert!(advisor.events().dropped() > 0, "older events must have been evicted");
        // ...while the recorder streamed every event and epoch summary.
        advisor.take_recorder().expect("recorder attached").finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let records = cloudia_obs::parse_trace(&text).expect("valid trace");
        let events = records.iter().filter(|r| r.kind == "event").count();
        let summaries = records.iter().filter(|r| r.kind == "epoch").count();
        assert_eq!(summaries, epochs as usize);
        assert!(
            events as u64 >= epochs,
            "at least one event per epoch must have been streamed, got {events}"
        );
        let epoch_events = records
            .iter()
            .filter(|r| {
                r.kind == "event"
                    && r.payload.get("kind").and_then(cloudia_obs::Json::as_str) == Some("epoch")
            })
            .count();
        assert_eq!(epoch_events as u64, epochs, "one Epoch event per step in the stream");
    }

    #[test]
    fn zero_event_capacity_keeps_every_event() {
        let (graph, net, initial) = setup(5, 7, 1);
        let mut config = fast_config();
        config.event_capacity = 0;
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 9);
        advisor.run(&mut stream, 6);
        assert_eq!(advisor.events().dropped(), 0);
        assert!(advisor.events().len() >= 6);
    }
}
