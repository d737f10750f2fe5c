//! Stage-granular streaming execution of measurement schemes.
//!
//! [`crate::Scheme::run_onto`] historically ran a whole measurement as an
//! opaque batch: the caller got statistics back only after every sweep
//! finished. The [`SweepDriver`] splits the same measurement into a
//! **resumable iterator of stages**: each [`SweepDriver::step`] executes
//! one scheme-defined unit of work (a disjoint-pair stage for the
//! staged/focused tournaments, one token circulation, one batch of
//! uncoordinated replies) against a persistent event engine, and the
//! partial [`PairwiseStats`] are inspectable between steps. Driving a
//! fresh driver to completion is *bit-identical* to the old batch path —
//! `run_onto` is now exactly that thin wrapper — so callers that do not
//! care about streaming see no change.
//!
//! Streaming exists for one reason: **mid-sweep pruning**. A caller that
//! can already tell from the partial quantiles that a pair will never
//! matter (its endpoints sit outside every node's candidate pool) can
//! drop that pair's remaining probes while the sweep is still in flight
//! via [`SweepDriver::retain_pairs`]. The [`PruneRule`] trait packages
//! that decision, and [`run_pruned`] is the standard loop: evaluate the
//! rule between stages, drop what it condemns, keep stepping. Rules must
//! never condemn incumbent/pinned/deployed pairs — the concrete rule in
//! `cloudia-solver` (`CandidatePruneRule`) enforces this with an explicit
//! protected set.

use std::cell::RefCell;

use cloudia_netsim::Network;

use crate::pairs::PairSet;
use crate::scheme::{MeasureConfig, MeasurementReport, Scheme, SnapshotTracker};
use crate::stats::PairwiseStats;

/// Canonical unordered-pair key `(low, high)` — the normalization every
/// driver and prune loop agrees on.
pub(crate) fn norm_pair(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// A resumable, stage-granular execution of one measurement run.
///
/// Obtained from [`Scheme::driver`]. The driver owns the event engine and
/// the accumulating statistics; [`SweepDriver::step`] executes the next
/// stage and the accessors expose the partial state between stages.
/// Stepping a driver to exhaustion and then calling
/// [`SweepDriver::finish`] produces the same [`MeasurementReport`] as
/// [`Scheme::run_onto`] — interrupting, inspecting, and resuming never
/// changes the measurement.
pub trait SweepDriver {
    /// Short identifier of the scheme being driven.
    fn scheme_name(&self) -> &'static str;

    /// Executes the next stage. Returns `false` once the schedule is
    /// exhausted or the configured duration limit has been reached (the
    /// driver is then permanently done; further calls keep returning
    /// `false`).
    fn step(&mut self) -> bool;

    /// The statistics accumulated so far (partial while stages remain).
    fn stats(&self) -> &PairwiseStats;

    /// Round trips completed so far by this driver.
    fn round_trips(&self) -> u64;

    /// Simulated milliseconds elapsed so far.
    fn elapsed_ms(&self) -> f64;

    /// The distinct unordered pairs still scheduled for future stages
    /// (pairs already dropped by [`SweepDriver::retain_pairs`] excluded).
    fn remaining_pairs(&self) -> Vec<(u32, u32)>;

    /// Estimated round trips the remaining schedule will spend, ignoring
    /// any duration limit (an upper bound for schemes with randomized
    /// destinations).
    fn planned_remaining(&self) -> u64;

    /// Drops the future probes of every remaining pair for which `keep`
    /// returns `false`. Stages already executed are unaffected; a stage
    /// emptied entirely is skipped without paying its coordination
    /// round. Returns the estimated round trips saved
    /// (`planned_remaining` before − after).
    fn retain_pairs(&mut self, keep: &mut dyn FnMut(u32, u32) -> bool) -> u64;

    /// Consumes the driver into the final report. Valid at any point —
    /// an interrupted run reports whatever it measured.
    fn finish(self: Box<Self>) -> MeasurementReport;
}

/// A mid-sweep pruning policy, evaluated between stages by [`run_pruned`].
///
/// Implementations decide from the *partial* statistics which scheduled
/// pairs have already been proven irrelevant. A rule must never condemn a
/// pair the caller still depends on (incumbent, pinned, or deployed
/// links, links under active suspicion, links owed a staleness refresh) —
/// the driver applies the verdict verbatim.
pub trait PruneRule {
    /// Given the statistics measured so far and the unordered pairs still
    /// scheduled, returns the subset whose remaining probes may be
    /// dropped. An empty vector leaves the schedule untouched.
    fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)>;
}

/// What [`run_pruned`] produced: the ordinary report plus the pruning
/// ledger.
#[derive(Debug, Clone)]
pub struct PrunedReport {
    /// The measurement report (identical in shape to a batch run's).
    pub report: MeasurementReport,
    /// Distinct unordered pairs dropped mid-sweep.
    pub dropped_pairs: usize,
    /// Estimated round trips the pruning saved (sum of
    /// [`SweepDriver::retain_pairs`] returns).
    pub saved_round_trips: u64,
}

/// Drives `scheme` to completion over `net`, evaluating `rule` between
/// stages and dropping whatever it condemns. With a rule that never
/// condemns anything this is bit-identical to [`Scheme::run_onto`].
pub fn run_pruned<S: Scheme + ?Sized>(
    scheme: &S,
    net: &Network,
    cfg: &MeasureConfig,
    stats: PairwiseStats,
    rule: &dyn PruneRule,
) -> PrunedReport {
    let mut driver = scheme.driver(net, cfg, stats);
    let mut scratch = PairSet::new();
    let mut dropped = 0usize;
    let mut saved_round_trips = 0u64;
    loop {
        // Between stages (and before the first one, when accumulated
        // history is available), let the rule inspect the partial
        // statistics.
        if driver.stats().total_samples() > 0 {
            let remaining = driver.remaining_pairs();
            if !remaining.is_empty() {
                let condemned = rule.prune(driver.stats(), &remaining);
                if !condemned.is_empty() {
                    let (newly, saved) =
                        drop_condemned(driver.as_mut(), &remaining, &condemned, &mut scratch);
                    dropped += newly;
                    saved_round_trips += saved;
                    cloudia_obs::counters(&[
                        ("sweep.prune.dropped_pairs", newly as u64),
                        ("sweep.prune.saved_round_trips", saved),
                    ]);
                }
            }
        }
        if !driver.step() {
            break;
        }
    }
    PrunedReport { report: driver.finish(), dropped_pairs: dropped, saved_round_trips }
}

/// Drops every `condemned` pair from `driver`'s schedule. Returns the
/// distinct unordered pairs of `remaining` that were dropped and the
/// round trips saved. `scratch` is empty on entry and on return: only
/// the condemned pairs' bits are set and then cleared, so a stage costs
/// O(remaining + condemned), never O(m²). A dropped pair leaves every
/// future stage, so it can never be counted again by a later call.
fn drop_condemned(
    driver: &mut dyn SweepDriver,
    remaining: &[(u32, u32)],
    condemned: &[(u32, u32)],
    scratch: &mut PairSet,
) -> (usize, u64) {
    scratch.extend(condemned.iter().copied());
    let saved = driver.retain_pairs(&mut |a, b| !scratch.contains(a, b));
    // Removing a mark as it is counted counts each unordered pair once.
    let dropped = remaining.iter().filter(|&&(a, b)| scratch.remove(a, b)).count();
    for &(a, b) in condemned {
        scratch.remove(a, b);
    }
    (dropped, saved)
}

/// An anytime stopping policy, evaluated between stages by
/// [`run_anytime`].
///
/// Where a [`PruneRule`] condemns individual pairs, a `StopRule` ends the
/// *whole stage schedule* early: once the partial statistics prove that
/// every remaining prune/pool decision is already settled — every
/// candidate confidence interval separated from every non-candidate's —
/// further probing cannot change any downstream verdict, so the sweep may
/// stop and bank the remaining round trips. The concrete rule in
/// `cloudia-solver` (`CiStopRule`) demands CI separation at a stated
/// confidence, which is what bounds the realized error of acting on the
/// truncated measurement.
pub trait StopRule {
    /// True once the partial statistics make every remaining decision
    /// stable — additional samples can no longer flip a verdict at the
    /// rule's confidence level.
    fn stable(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> bool;

    /// Pairs that must keep probing even after stability fires (e.g.
    /// deployed links that feed change detectors). Default: none.
    fn must_keep(&self, a: u32, b: u32) -> bool {
        let _ = (a, b);
        false
    }
}

/// What [`run_anytime`] produced: the pruning ledger plus whether the
/// stop rule fired before the schedule ran dry.
#[derive(Debug, Clone)]
pub struct AnytimeReport {
    /// The measurement report (identical in shape to a batch run's).
    pub report: MeasurementReport,
    /// Distinct unordered pairs dropped mid-sweep (pruned or stopped).
    pub dropped_pairs: usize,
    /// Estimated round trips saved by pruning plus the early stop.
    pub saved_round_trips: u64,
    /// True if the stop rule declared stability before the schedule was
    /// exhausted.
    pub stopped_early: bool,
}

/// Drives `scheme` like [`run_pruned`], additionally ending the sweep as
/// soon as `stop` declares every remaining decision stable. On stop, all
/// remaining pairs except [`StopRule::must_keep`] ones are dropped and
/// the driver runs out the (now skeletal) schedule. With a stop rule that
/// never fires this is bit-identical to [`run_pruned`]; with a rule that
/// never fires *and* a prune rule that never condemns, bit-identical to
/// [`crate::Scheme::run_onto`].
pub fn run_anytime<S: Scheme + ?Sized>(
    scheme: &S,
    net: &Network,
    cfg: &MeasureConfig,
    stats: PairwiseStats,
    rule: &dyn PruneRule,
    stop: &dyn StopRule,
) -> AnytimeReport {
    let mut driver = scheme.driver(net, cfg, stats);
    let mut scratch = PairSet::new();
    let mut dropped = 0usize;
    let mut saved_round_trips = 0u64;
    let mut stopped_early = false;
    loop {
        if !stopped_early && driver.stats().total_samples() > 0 {
            let remaining = driver.remaining_pairs();
            if !remaining.is_empty() {
                if stop.stable(driver.stats(), &remaining) {
                    // Stability: every verdict is settled. Drop all
                    // non-essential probing and run out the skeleton.
                    stopped_early = true;
                    let saved = driver.retain_pairs(&mut |a, b| stop.must_keep(a, b));
                    saved_round_trips += saved;
                    let newly = remaining
                        .iter()
                        .filter(|&&(a, b)| !stop.must_keep(a, b) && scratch.insert(a, b))
                        .count();
                    for &(a, b) in &remaining {
                        scratch.remove(a, b);
                    }
                    dropped += newly;
                    cloudia_obs::counters(&[
                        ("sweep.anytime.stopped_early", 1),
                        ("sweep.anytime.dropped_pairs", newly as u64),
                        ("sweep.anytime.saved_round_trips", saved),
                    ]);
                } else {
                    let condemned = rule.prune(driver.stats(), &remaining);
                    if !condemned.is_empty() {
                        let (newly, saved) =
                            drop_condemned(driver.as_mut(), &remaining, &condemned, &mut scratch);
                        dropped += newly;
                        saved_round_trips += saved;
                        cloudia_obs::counters(&[
                            ("sweep.prune.dropped_pairs", newly as u64),
                            ("sweep.prune.saved_round_trips", saved),
                        ]);
                    }
                }
            }
        }
        if !driver.step() {
            break;
        }
    }
    AnytimeReport {
        report: driver.finish(),
        dropped_pairs: dropped,
        saved_round_trips,
        stopped_early,
    }
}

/// The shared driver of the stage-scheduled schemes ([`crate::Staged`]
/// and [`crate::FocusedScheme`]): a fixed per-sweep schedule of
/// endpoint-disjoint stages, executed with the common stage protocol
/// (every pair keeps one probe outstanding until its per-pair round-trip
/// quota is met), directions alternating across sweeps, one coordinator
/// round between stages. This is the single home of the sweep loop the
/// two schemes used to duplicate.
pub(crate) struct StageDriver<'n> {
    name: &'static str,
    net: &'n Network,
    cfg: MeasureConfig,
    stats: PairwiseStats,
    tracker: SnapshotTracker,
    /// One sweep's schedule: unordered pairs with per-pair round trips.
    stages: Vec<Vec<(u32, u32, usize)>>,
    sweeps: usize,
    coord_overhead_ms: f64,
    sweep: usize,
    stage: usize,
    round_trips: u64,
    /// Simulated clock (ms); stages start here and leave it at their end
    /// plus the coordination round.
    now: f64,
    /// Resolved stage fan-out width (1 = serial).
    workers: usize,
    done: bool,
    tally: StageTally,
    /// Empty-between-calls scratch marks of [`SweepDriver::remaining_pairs`].
    seen: RefCell<PairSet>,
}

/// Local telemetry accumulator for one driver run. Stages add plain
/// integers here; the global plane is touched exactly once, when the
/// tally drops with the driver — `sweeps × stages` lock acquisitions
/// (and per-stage span allocations) collapse to one counter batch and
/// one `sweep.run` span, keeping the instrumented hot path within the
/// workspace's overhead budget even on small networks where a stage is
/// only a few simulated round trips of work.
#[derive(Debug, Default)]
struct StageTally {
    stages: u64,
    round_trips: u64,
    sent: u64,
    delivered: u64,
    lost: u64,
    dark: u64,
    /// Stages that fanned out over more than one worker thread.
    parallel_stages: u64,
    /// Widest per-stage fan-out seen this run.
    fanout_width_max: u64,
    /// Wall nanoseconds spent merging per-pair outcomes into the stats.
    merge_ns: u64,
    /// Per-stage merge latencies (ms) of stages that fanned out over
    /// more than one worker, flushed into the `sweep.stage_merge_ms`
    /// histogram in one batch at drop — unlike the summed `merge_ns`
    /// counter, the histogram keeps the shape of the sharded merge.
    /// Serial stages are excluded: small sweeps run thousands of them
    /// and per-stage samples would dominate the telemetry budget, while
    /// the histogram exists to watch the parallel merge specifically.
    merge_ms: Vec<f64>,
    /// P² sketches spilled by the quiet-link horizon this run.
    spilled: u64,
    /// Wall-time span from the first executed stage to driver drop;
    /// `None` until a stage runs (or while telemetry is disabled).
    span: Option<cloudia_obs::SpanGuard>,
}

impl Drop for StageTally {
    fn drop(&mut self) {
        if let Some(span) = &mut self.span {
            span.attr("stages", self.stages);
            span.attr("round_trips", self.round_trips);
            span.attr("sent", self.sent);
            span.attr("lost", self.lost);
            span.attr("dark_pairs", self.dark);
            span.attr("fanout_width_max", self.fanout_width_max);
            span.attr("merge_ns", self.merge_ns);
        }
        if self.stages > 0 {
            cloudia_obs::counters(&[
                ("sweep.stages", self.stages),
                ("sweep.round_trips", self.round_trips),
                ("sweep.messages_sent", self.sent),
                ("sweep.messages_delivered", self.delivered),
                ("sweep.messages_lost", self.lost),
                ("sweep.dark_pairs", self.dark),
                ("sweep.parallel.stages", self.parallel_stages),
                ("sweep.parallel.merge_ns", self.merge_ns),
                ("sweep.sketch_spills", self.spilled),
            ]);
            cloudia_obs::observe_many("sweep.stage_merge_ms", &self.merge_ms);
        }
    }
}

impl<'n> StageDriver<'n> {
    pub(crate) fn new(
        name: &'static str,
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
        stages: Vec<Vec<(u32, u32, usize)>>,
        sweeps: usize,
        coord_overhead_ms: f64,
    ) -> Self {
        let n = net.len();
        assert!(n >= 2, "need at least two instances to measure");
        assert_eq!(stats.len(), n, "stats sized for {} instances, network has {n}", stats.len());
        debug_assert!(
            stages.iter().flatten().all(|&(a, b, _)| a < b),
            "stage schedules hold normalized pairs"
        );
        // Auto mode (stage_workers = 0) only fans out when a stage is
        // wide enough to amortize thread spawns; an explicit width is
        // honoured as given (the determinism contract makes any width
        // safe, so tests pin small-stage parallel runs explicitly).
        let workers = match cfg.stage_workers {
            0 => {
                let widest = stages.iter().map(Vec::len).max().unwrap_or(0);
                if widest < 64 {
                    1
                } else {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                }
            }
            w => w,
        };
        Self {
            name,
            net,
            cfg: cfg.clone(),
            stats,
            tracker: SnapshotTracker::new(cfg),
            stages,
            sweeps,
            coord_overhead_ms,
            sweep: 0,
            stage: 0,
            round_trips: 0,
            now: 0.0,
            workers,
            done: false,
            tally: StageTally::default(),
            seen: RefCell::new(PairSet::new()),
        }
    }

    fn advance_position(&mut self) {
        self.stage += 1;
        if self.stage >= self.stages.len() {
            self.stage = 0;
            self.sweep += 1;
        }
    }

    /// Iterates the remaining `(sweep, stage)` positions' pair lists.
    fn remaining_stages(&self) -> impl Iterator<Item = &[(u32, u32, usize)]> {
        let end = if self.done { self.sweep } else { self.sweeps };
        (self.sweep..end)
            .flat_map(move |s| {
                let start = if s == self.sweep { self.stage } else { 0 };
                self.stages[start..].iter()
            })
            .map(Vec::as_slice)
    }
}

impl SweepDriver for StageDriver<'_> {
    fn scheme_name(&self) -> &'static str {
        self.name
    }

    fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        // Stages emptied by pruning are skipped entirely: no probes, no
        // coordination round.
        while self.sweep < self.sweeps && self.stages.get(self.stage).is_some_and(Vec::is_empty) {
            self.advance_position();
        }
        if self.stages.is_empty() || self.sweep >= self.sweeps {
            self.done = true;
            return false;
        }
        if let Some(limit) = self.cfg.max_duration_ms {
            if self.now >= limit {
                self.done = true;
                return false;
            }
        }
        // Directions alternate across sweeps so both directions of every
        // link get measured.
        if cloudia_obs::enabled() && self.tally.span.is_none() {
            self.tally.span = Some(cloudia_obs::span!("sweep.run", scheme = self.name));
        }
        let pairs = &self.stages[self.stage];
        let directed: Vec<(usize, usize)> = pairs
            .iter()
            .map(|&(a, b, _)| {
                if self.sweep.is_multiple_of(2) {
                    (a as usize, b as usize)
                } else {
                    (b as usize, a as usize)
                }
            })
            .collect();
        let ks: Vec<usize> = pairs.iter().map(|&(_, _, k)| k).collect();
        // One substream seed per pair, derived from the pair's schedule
        // identity rather than drawn from a shared stream: a surviving
        // pair's timeline is the same no matter which *other* pairs a
        // prune rule or dark strike removed from the stage — common
        // random numbers across pruned and unpruned arms, and
        // byte-identical seeded traces at every worker count.
        let (sweep, stage) = (self.sweep, self.stage);
        let seeds: Vec<u64> = directed
            .iter()
            .map(|&(src, dst)| crate::scheme::substream_seed(self.cfg.seed, sweep, stage, src, dst))
            .collect();
        let outcome = crate::scheme::run_stage(
            self.net,
            &self.cfg,
            self.now,
            &directed,
            &ks,
            &seeds,
            self.workers,
            &mut self.stats,
            &mut self.tracker,
        );
        self.round_trips += outcome.round_trips;
        self.now = outcome.end;
        // Telemetry stays local at stage grain: the stage outcome's
        // tallies accumulate in `self.tally` (plain integer adds — no
        // locks, no allocations) and hit the global plane once, when
        // the driver drops.
        if cloudia_obs::enabled() {
            self.tally.stages += 1;
            self.tally.round_trips += outcome.round_trips;
            self.tally.sent += outcome.sent;
            self.tally.delivered += outcome.delivered;
            self.tally.lost += outcome.lost;
            self.tally.dark += outcome.dark.len() as u64;
            self.tally.fanout_width_max = self.tally.fanout_width_max.max(outcome.workers as u64);
            self.tally.merge_ns += outcome.merge_ns;
            if outcome.workers > 1 {
                self.tally.parallel_stages += 1;
                self.tally.merge_ms.push(outcome.merge_ns as f64 / 1e6);
            }
        }
        // Age the stats plane's quiet-time clock — one tick per completed
        // stage — and spill idle sketches if a horizon is configured.
        self.stats.advance_tick();
        if let Some(horizon) = self.cfg.sketch_spill_horizon {
            let spilled = self.stats.spill_quiet(horizon);
            if cloudia_obs::enabled() {
                self.tally.spilled += spilled as u64;
            }
        }
        // Pairs that went dark (retry budget exhausted without one
        // success) are struck from every future stage: re-probing a dead
        // link each sweep would burn the whole retry budget again for
        // nothing, and `remaining_pairs`/`planned_remaining` must report
        // only work that can still complete. A fresh driver (the next
        // epoch) re-attempts them.
        if !outcome.dark.is_empty() {
            let dark: PairSet = outcome
                .dark
                .iter()
                .map(|&pid| (directed[pid].0 as u32, directed[pid].1 as u32))
                .collect();
            for stage in &mut self.stages {
                stage.retain(|&(a, b, _)| !dark.contains(a, b));
            }
        }
        // Coordinator round before the next stage.
        self.now += self.coord_overhead_ms;
        self.advance_position();
        true
    }

    fn stats(&self) -> &PairwiseStats {
        &self.stats
    }

    fn round_trips(&self) -> u64 {
        self.round_trips
    }

    fn elapsed_ms(&self) -> f64 {
        self.now
    }

    fn remaining_pairs(&self) -> Vec<(u32, u32)> {
        // Mark each pair on first sight, then clear exactly the marks
        // set: O(scheduled entries) per call, no hashing, no O(m²)
        // clear. Schedules hold normalized pairs (`a < b`), so the
        // unordered mark dedups exactly like the ordered pair would.
        let mut seen = self.seen.borrow_mut();
        let mut out = Vec::new();
        for stage in self.remaining_stages() {
            for &(a, b, _) in stage {
                if seen.insert(a, b) {
                    out.push((a, b));
                }
            }
        }
        for &(a, b) in &out {
            seen.remove(a, b);
        }
        out
    }

    fn planned_remaining(&self) -> u64 {
        self.remaining_stages().flat_map(|stage| stage.iter()).map(|&(_, _, k)| k as u64).sum()
    }

    fn retain_pairs(&mut self, keep: &mut dyn FnMut(u32, u32) -> bool) -> u64 {
        let before = self.planned_remaining();
        for stage in &mut self.stages {
            stage.retain(|&(a, b, _)| keep(a, b));
        }
        before - self.planned_remaining()
    }

    fn finish(self: Box<Self>) -> MeasurementReport {
        MeasurementReport {
            scheme: self.name,
            elapsed_ms: self.now,
            round_trips: self.round_trips,
            snapshots: self.tracker.snapshots,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FocusedScheme, ProbePlan, Staged};
    use cloudia_netsim::{Cloud, Provider};

    fn network(n: usize, seed: u64) -> Network {
        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(n);
        cloud.network(&alloc)
    }

    struct DropAll;
    impl PruneRule for DropAll {
        fn prune(&self, _: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
            remaining.to_vec()
        }
    }

    struct KeepAll;
    impl PruneRule for KeepAll {
        fn prune(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> Vec<(u32, u32)> {
            Vec::new()
        }
    }

    #[test]
    fn stepped_driver_equals_batch_run() {
        let net = network(8, 1);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(3, 2);
        let batch = scheme.run(&net, &cfg);
        let mut driver = scheme.driver(&net, &cfg, PairwiseStats::new(8));
        let mut steps = 0;
        while driver.step() {
            steps += 1;
            assert!(driver.round_trips() > 0);
        }
        assert_eq!(steps, 7 * 2, "one step per stage per sweep");
        let report = driver.finish();
        assert_eq!(report.round_trips, batch.round_trips);
        assert_eq!(report.elapsed_ms, batch.elapsed_ms);
        assert_eq!(report.stats.mean_vector(), batch.stats.mean_vector());
    }

    #[test]
    fn keep_all_rule_is_bit_identical_to_run_onto() {
        let net = network(7, 2);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let batch = scheme.run(&net, &cfg);
        let pruned = run_pruned(&scheme, &net, &cfg, PairwiseStats::new(7), &KeepAll);
        assert_eq!(pruned.dropped_pairs, 0);
        assert_eq!(pruned.saved_round_trips, 0);
        assert_eq!(pruned.report.round_trips, batch.round_trips);
        assert_eq!(pruned.report.elapsed_ms, batch.elapsed_ms);
        assert_eq!(pruned.report.stats.mean_vector(), batch.stats.mean_vector());
    }

    #[test]
    fn drop_all_rule_stops_after_the_first_prunable_moment() {
        // The rule only sees stats once samples exist, so stage one runs;
        // everything after it is dropped.
        let net = network(6, 3);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let full = scheme.run(&net, &cfg);
        let pruned = run_pruned(&scheme, &net, &cfg, PairwiseStats::new(6), &DropAll);
        assert!(pruned.report.round_trips < full.round_trips);
        assert!(pruned.saved_round_trips > 0);
        assert!(pruned.dropped_pairs > 0);
        // Only the first stage's pairs were measured: 3 disjoint pairs,
        // one direction, ks = 2.
        assert_eq!(pruned.report.round_trips, 3 * 2);
    }

    #[test]
    fn retain_pairs_reports_savings_and_remaining_shrinks() {
        let net = network(6, 4);
        let cfg = MeasureConfig::default();
        let mut plan = ProbePlan::new(6);
        plan.add_clique(&[0, 1, 2, 3]);
        let scheme = FocusedScheme::new(plan, 2, 2);
        let mut driver = scheme.driver(&net, &cfg, PairwiseStats::new(6));
        let before = driver.planned_remaining();
        assert_eq!(before, 6 * 2 * 2);
        let saved = driver.retain_pairs(&mut |a, b| !(a == 0 && b == 1));
        assert_eq!(saved, 2 * 2, "pair (0,1): ks 2 over 2 sweeps");
        assert_eq!(driver.planned_remaining(), before - saved);
        assert!(!driver.remaining_pairs().contains(&(0, 1)));
        while driver.step() {}
        let report = driver.finish();
        assert_eq!(report.stats.link(0, 1).count() + report.stats.link(1, 0).count(), 0);
        assert!(report.stats.link(0, 2).count() > 0);
    }

    struct NeverStable;
    impl StopRule for NeverStable {
        fn stable(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> bool {
            false
        }
    }

    /// Declares stability as soon as any samples exist, keeping one pair.
    struct StopKeeping(u32, u32);
    impl StopRule for StopKeeping {
        fn stable(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> bool {
            true
        }
        fn must_keep(&self, a: u32, b: u32) -> bool {
            norm_pair(a, b) == norm_pair(self.0, self.1)
        }
    }

    #[test]
    fn anytime_with_inert_rules_is_bit_identical_to_run_onto() {
        let net = network(7, 2);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let batch = scheme.run(&net, &cfg);
        let anytime =
            run_anytime(&scheme, &net, &cfg, PairwiseStats::new(7), &KeepAll, &NeverStable);
        assert!(!anytime.stopped_early);
        assert_eq!(anytime.dropped_pairs, 0);
        assert_eq!(anytime.saved_round_trips, 0);
        assert_eq!(anytime.report.round_trips, batch.round_trips);
        assert_eq!(anytime.report.elapsed_ms, batch.elapsed_ms);
        assert_eq!(anytime.report.stats.mean_vector(), batch.stats.mean_vector());
    }

    #[test]
    fn anytime_stop_drops_everything_but_must_keep_pairs() {
        let net = network(6, 3);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(3, 2);
        let full = scheme.run(&net, &cfg);
        let anytime =
            run_anytime(&scheme, &net, &cfg, PairwiseStats::new(6), &KeepAll, &StopKeeping(0, 1));
        assert!(anytime.stopped_early);
        assert!(anytime.saved_round_trips > 0);
        assert!(anytime.report.round_trips < full.round_trips);
        // The kept pair still completed its full probe quota: 3 round
        // trips per sweep over 2 sweeps (minus any that ran before the
        // stop fired — so at least the post-stop sweeps' worth).
        let kept =
            anytime.report.stats.link(0, 1).count() + anytime.report.stats.link(1, 0).count();
        assert!(kept > 0, "must_keep pair was dropped");
        assert_eq!(kept, full.stats.link(0, 1).count() + full.stats.link(1, 0).count());
    }

    /// The pre-bitmap `remaining_pairs`: a `HashSet` dedup over the
    /// remaining stages, kept as the oracle.
    fn remaining_by_hash_set(driver: &StageDriver<'_>) -> Vec<(u32, u32)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for stage in driver.remaining_stages() {
            for &(a, b, _) in stage {
                if seen.insert((a, b)) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    #[test]
    fn remaining_pairs_match_the_hash_set_dedup_at_every_stage() {
        let n = 9;
        let mut net = network(n, 6);
        // Heavy loss strikes dark pairs from future stages mid-run.
        net.set_loss(cloudia_netsim::LossPlane::uniform(n, 0.3));
        let cfg = MeasureConfig { seed: 6, ..MeasureConfig::default() };
        let rounds = n + n % 2 - 1;
        let staged: Vec<Vec<(u32, u32, usize)>> = (0..rounds)
            .map(|r| {
                Staged::circle_pairs(n, r)
                    .into_iter()
                    .map(|(a, b)| (a as u32, b as u32, 2))
                    .collect()
            })
            .collect();
        let mut plan = ProbePlan::new(n);
        plan.add_clique(&[0, 2, 3, 5, 8]);
        plan.add_pair(1, 7);
        let focused: Vec<Vec<(u32, u32, usize)>> = plan
            .stages()
            .into_iter()
            .map(|stage| stage.into_iter().map(|(a, b)| (a, b, 2)).collect())
            .collect();
        for (name, stages) in [("staged", staged), ("focused", focused)] {
            let mut driver =
                StageDriver::new(name, &net, &cfg, PairwiseStats::new(n), stages, 3, 0.3);
            let mut step = 0;
            loop {
                assert_eq!(
                    driver.remaining_pairs(),
                    remaining_by_hash_set(&driver),
                    "{name}: stage {step}"
                );
                // Mid-run, drop a few pairs the way a prune rule would.
                if step == 4 {
                    driver.retain_pairs(&mut |a, b| (a + b) % 3 != 0);
                    assert_eq!(driver.remaining_pairs(), remaining_by_hash_set(&driver));
                }
                if !driver.step() {
                    break;
                }
                step += 1;
            }
            assert!(step > 2 * driver.stages.len(), "{name}: the run never crossed a sweep");
            assert!(driver.remaining_pairs().is_empty());
        }
    }

    #[test]
    fn finish_mid_run_reports_partial_measurements() {
        let net = network(8, 5);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let mut driver = scheme.driver(&net, &cfg, PairwiseStats::new(8));
        assert!(driver.step());
        assert!(driver.step());
        let partial = driver.round_trips();
        let report = driver.finish();
        assert_eq!(report.round_trips, partial);
        assert!(report.stats.total_samples() > 0);
        let full = scheme.run(&net, &cfg);
        assert!(report.round_trips < full.round_trips);
    }
}
