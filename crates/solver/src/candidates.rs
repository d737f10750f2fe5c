//! Candidate-pruned solver domains: exploit latency clustering to shrink
//! the instance pool before any search starts.
//!
//! EC2-style latency planes are heavily clustered (paper Figs. 1, 10):
//! most of a tenant's `m` instances sit in one well-connected cluster and
//! a minority are congested, so for realistic instances almost none of the
//! `m` candidates per application node are ever competitive. This module
//! turns that observation into explicit per-node candidate lists:
//!
//! 1. every instance is scored by a **quantile of its incident link
//!    costs** (default: the median over both directions) — congested
//!    instances score high, cluster members score low;
//! 2. the cheapest `k` instances form the shared candidate pool
//!    (`k` from the [`PoolPolicy`], never less than the node count so an
//!    injective deployment always exists);
//! 3. each node's list is the pool **plus its incumbent and pinned
//!    instances**, so warm starts and repair pins are always reachable.
//!
//! [`CandidateSet::restrict`] then slices the cost plane to the candidate
//! union — an O(K²) [`CostMatrix::submatrix`] view of the m² arena — and
//! remaps the problem onto it. Every downstream technique is bounded for
//! free: CP bitset domains are seeded from the per-node lists (see
//! [`crate::cp::CpConfig::candidates`]), the MIP encodings only generate
//! `x_ij` columns for candidate instances (the restricted problem has no
//! others), and greedy growth / random draws range over K instead of m.
//!
//! Pruning is **heuristic**: a pruned run can never prove global
//! optimality, and an over-tight pool can miss the optimum. The exact
//! fallback (a pool size `>= m`) degenerates to the dense path
//! bit-for-bit, and the driver in `cloudia-core`
//! (`SearchStrategy::run_pruned`) auto-escalates to the dense problem
//! whenever the pruned search proves pruned-optimality, instead of
//! silently passing a local proof off as a global one.
//!
//! The pool size itself is either **fixed** ([`PoolPolicy::Fixed`], the
//! original layer) or **adaptive** ([`PoolPolicy::Adaptive`] +
//! [`AdaptivePool`]): a controller tracks an escalation-rate EWMA across
//! consecutive solves and grows `k` when the pool keeps proving too tight
//! (frequent escalations) while shrinking it when the pruned result keeps
//! sufficing — so a long stationary stretch converges to the cheapest pool
//! that still answers correctly.

use std::cell::RefCell;

use cloudia_measure::{PairSet, PairwiseStats, PruneRule};

use crate::evidence::PointEvidence;
use crate::problem::{CostMatrix, NodeDeployment};

/// How the candidate pool size `k` is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolPolicy {
    /// `k` candidate instances per node (`0` = auto: `max(4·n, 48)`),
    /// before incumbent/pin additions. Values `>= m` select every
    /// instance — the exact fallback.
    Fixed(usize),
    /// Escalation-rate-driven pool sizing: a stateful [`AdaptivePool`]
    /// controller (owned by the caller, e.g. the online advisor) adjusts
    /// `k` between solves. A one-shot solve that receives this policy
    /// directly uses [`AdaptivePoolConfig::initial`] as its `k`.
    Adaptive(AdaptivePoolConfig),
}

/// Tuning knobs of the candidate-pruning layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateConfig {
    /// Pool sizing policy (fixed `k` or escalation-adaptive).
    pub pool: PoolPolicy,
    /// Which quantile of an instance's incident link costs scores it
    /// (0.5 = median). Lower quantiles reward instances with *some* cheap
    /// links; higher quantiles demand uniformly cheap ones.
    pub quantile: f64,
    /// Re-solve densely (warm-started from the pruned result) when the
    /// pruned search proves optimality within its domain — the proof does
    /// not extend to the full instance pool, so without escalation the
    /// caller would get a silently weaker answer.
    pub auto_escalate: bool,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self { pool: PoolPolicy::Fixed(0), quantile: 0.5, auto_escalate: true }
    }
}

impl CandidateConfig {
    /// A fixed pool of `per_node` candidates (`0` = auto) with the default
    /// quantile and escalation settings.
    pub fn fixed(per_node: usize) -> Self {
        Self { pool: PoolPolicy::Fixed(per_node), ..Self::default() }
    }

    /// An adaptive pool under `config` with the default quantile and
    /// escalation settings.
    pub fn adaptive(config: AdaptivePoolConfig) -> Self {
        Self { pool: PoolPolicy::Adaptive(config), ..Self::default() }
    }

    /// The pool size this configuration selects for a problem with `n`
    /// nodes over `m` instances. An adaptive policy resolves to its
    /// initial `k` under its own min/max bounds — exactly as a live
    /// [`AdaptivePool`] controller starts out — so one-shot solves and
    /// the online loop agree on the opening pool; the controller then
    /// substitutes its current `k` via [`AdaptivePool::effective`].
    pub fn pool_size(&self, n: usize, m: usize) -> usize {
        match self.pool {
            PoolPolicy::Fixed(k) => {
                let k = if k == 0 { (4 * n).max(48) } else { k };
                k.max(n).min(m)
            }
            PoolPolicy::Adaptive(cfg) => cfg.resolve(n, m).2,
        }
    }
}

/// Parameters of the adaptive pool-size controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePoolConfig {
    /// Starting `k` (`0` = auto: `max(4·n, 48)`).
    pub initial: usize,
    /// Floor for `k` (`0` = no explicit floor). The effective pool never
    /// shrinks below the node count or loses incumbent/pinned instances
    /// regardless — [`CandidateConfig::pool_size`] clamps to `n` and
    /// [`CandidateSet::build`] force-includes incumbents and pins.
    pub min: usize,
    /// Ceiling for `k` (`0` = the instance count).
    pub max: usize,
    /// EWMA smoothing factor of the escalation rate, in (0, 1].
    pub alpha: f64,
    /// Escalation rate above which `k` grows.
    pub grow_above: f64,
    /// Escalation rate below which `k` shrinks.
    pub shrink_below: f64,
    /// Multiplicative growth step (> 1).
    pub grow_factor: f64,
    /// Multiplicative shrink step (in (0, 1)).
    pub shrink_factor: f64,
    /// Observations before the controller starts adjusting `k` (lets the
    /// EWMA settle instead of reacting to the first epoch).
    pub warmup: u64,
}

impl Default for AdaptivePoolConfig {
    fn default() -> Self {
        Self {
            initial: 0,
            min: 0,
            max: 0,
            alpha: 0.3,
            grow_above: 0.5,
            shrink_below: 0.15,
            grow_factor: 1.5,
            shrink_factor: 0.8,
            warmup: 3,
        }
    }
}

impl AdaptivePoolConfig {
    /// Resolves the auto/zero bounds for a problem with `n` nodes over
    /// `m` instances: `(min_k, max_k, initial_k)` with the initial `k`
    /// clamped into the bounds. Shared by [`AdaptivePool::new`] and
    /// [`CandidateConfig::pool_size`], so one-shot solves and the live
    /// controller always start from the same pool.
    pub fn resolve(&self, n: usize, m: usize) -> (usize, usize, usize) {
        let initial = if self.initial == 0 { (4 * n).max(48) } else { self.initial };
        let min_k = self.min.max(n).min(m).max(1);
        let max_k = if self.max == 0 { m } else { self.max.min(m) }.max(min_k);
        (min_k, max_k, initial.clamp(min_k, max_k))
    }
}

/// Stateful adaptive pool-size controller (the ROADMAP "adaptive pool
/// sizing" follow-on).
///
/// Feed it one boolean per solve/epoch via [`AdaptivePool::observe`]:
/// `true` when the pruned pool proved too tight (the solve escalated to a
/// dense re-solve, the probe plan escalated to a full sweep, or a
/// triggered repair found nothing inside the pool), `false` when the pool
/// sufficed. The escalation-rate EWMA then drives `k` multiplicatively up
/// or down between the configured bounds, and [`AdaptivePool::effective`]
/// projects the current `k` into a concrete [`CandidateConfig`] for the
/// next solve.
#[derive(Debug, Clone)]
pub struct AdaptivePool {
    config: AdaptivePoolConfig,
    min_k: usize,
    max_k: usize,
    k: usize,
    rate: f64,
    observations: u64,
}

impl AdaptivePool {
    /// Creates a controller for problems with `n` nodes over `m`
    /// instances, resolving the config's auto/zero bounds.
    ///
    /// # Panics
    /// Panics if `alpha` is outside (0, 1] or the thresholds/factors are
    /// inconsistent.
    pub fn new(config: AdaptivePoolConfig, n: usize, m: usize) -> Self {
        assert!(config.alpha > 0.0 && config.alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(config.grow_factor > 1.0, "grow_factor must exceed 1");
        assert!(
            config.shrink_factor > 0.0 && config.shrink_factor < 1.0,
            "shrink_factor must be in (0, 1)"
        );
        assert!(
            config.shrink_below <= config.grow_above,
            "shrink_below must not exceed grow_above"
        );
        let (min_k, max_k, k) = config.resolve(n, m);
        // The rate starts at the neutral point between the thresholds: the
        // controller is agnostic until the stream provides evidence, so a
        // fresh loop neither shrinks nor grows on its first few epochs.
        let rate = 0.5 * (config.grow_above + config.shrink_below);
        Self { config, min_k, max_k, k, rate, observations: 0 }
    }

    /// The current pool size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current escalation-rate EWMA.
    pub fn escalation_rate(&self) -> f64 {
        self.rate
    }

    /// Observations consumed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Ingests one solve's escalation verdict and adjusts `k`. Returns the
    /// new `k` (unchanged when the rate sits between the thresholds or the
    /// controller is still warming up).
    pub fn observe(&mut self, escalated: bool) -> usize {
        let x = if escalated { 1.0 } else { 0.0 };
        self.rate += self.config.alpha * (x - self.rate);
        self.observations += 1;
        if self.observations >= self.config.warmup {
            if self.rate > self.config.grow_above {
                self.k = ((self.k as f64 * self.config.grow_factor).ceil() as usize)
                    .clamp(self.min_k, self.max_k);
            } else if self.rate < self.config.shrink_below {
                self.k = ((self.k as f64 * self.config.shrink_factor).floor() as usize)
                    .clamp(self.min_k, self.max_k);
            }
        }
        self.k
    }

    /// Projects the controller's current `k` onto `base`, producing the
    /// concrete fixed-pool configuration the next solve should run with
    /// (quantile/escalation settings are taken from `base`).
    pub fn effective(&self, base: &CandidateConfig) -> CandidateConfig {
        CandidateConfig { pool: PoolPolicy::Fixed(self.k), ..*base }
    }
}

/// Per-node candidate instance lists over the original instance ids.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    m: usize,
    /// Sorted original ids of the candidate union (pool + extras).
    union: Vec<u32>,
    /// Per-node sorted candidate lists (subsets of `union`).
    per_node: Vec<Vec<u32>>,
}

impl CandidateSet {
    /// Builds candidate lists for `problem` under `config`. The incumbent
    /// deployment (if any) and every pinned instance are force-included in
    /// the owning node's list, so pruning can never make a warm start or a
    /// repair pin unreachable.
    ///
    /// # Panics
    /// Panics if `incumbent`/`fixed` are sized for a different node count
    /// or reference out-of-range instances.
    pub fn build(
        problem: &NodeDeployment,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
    ) -> Self {
        let n = problem.num_nodes;
        let m = problem.num_instances();
        assert!((0.0..=1.0).contains(&config.quantile), "quantile must be in [0, 1]");
        if let Some(inc) = incumbent {
            assert_eq!(inc.len(), n, "incumbent must cover every node");
            assert!(inc.iter().all(|&j| (j as usize) < m), "incumbent instance out of range");
        }
        if let Some(f) = fixed {
            assert_eq!(f.len(), n, "fixed assignments must cover every node");
            assert!(f.iter().flatten().all(|&j| (j as usize) < m), "fixed instance out of range");
        }

        let pool_size = config.pool_size(n, m);
        let pool: Vec<u32> = if pool_size >= m {
            (0..m as u32).collect()
        } else {
            // Score every instance by the configured quantile of its
            // incident link costs (both directions), then keep the
            // cheapest `pool_size`. O(m²) total, once per solve.
            let costs = &problem.costs;
            let mut scored: Vec<(f64, u32)> = (0..m)
                .map(|j| {
                    let mut incident: Vec<f64> = Vec::with_capacity(2 * (m - 1));
                    for l in 0..m {
                        if l != j {
                            incident.push(costs.get(j, l));
                            incident.push(costs.get(l, j));
                        }
                    }
                    let idx = ((incident.len() - 1) as f64 * config.quantile).round() as usize;
                    let (_, q, _) = incident.select_nth_unstable_by(idx, f64::total_cmp);
                    (*q, j as u32)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut pool: Vec<u32> = scored[..pool_size].iter().map(|&(_, j)| j).collect();
            pool.sort_unstable();
            pool
        };

        Self::assemble(m, n, pool, incumbent, fixed)
    }

    /// Builds candidate lists from **partially measured** pairwise
    /// statistics — the mid-sweep entry point: pools form *during* a
    /// measurement sweep instead of after it. Instances are scored by the
    /// configured quantile of their *measured* incident link costs (both
    /// directions); an instance whose incident coverage is below
    /// `min_coverage` (fraction of its `2(m−1)` directed links with at
    /// least one sample **or one recorded attempt**) cannot be proven
    /// uncompetitive and is force-included, so the pool is only ever too
    /// large, never wrongly tight. An attempted-but-answerless direction
    /// (a dark link under packet loss) counts as covered and scores as
    /// unboundedly expensive: the solver must not condemn a pair it could
    /// not observe to the *unmeasured* fallback, or dark instances would
    /// ride into every pool on caution. With full coverage the pool
    /// converges to the configured size; with no coverage it is every
    /// instance.
    ///
    /// Incumbent and pinned instances are force-included exactly as in
    /// [`CandidateSet::build`].
    ///
    /// # Panics
    /// Panics if `min_coverage`/quantile are outside `[0, 1]` or
    /// `incumbent`/`fixed` are malformed.
    pub fn build_partial(
        num_nodes: usize,
        stats: &PairwiseStats,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
        min_coverage: f64,
    ) -> Self {
        let n = num_nodes;
        let m = stats.len();
        assert!(m >= 2, "need at least two instances");
        assert!((0.0..=1.0).contains(&config.quantile), "quantile must be in [0, 1]");
        assert!((0.0..=1.0).contains(&min_coverage), "min_coverage must be in [0, 1]");
        if let Some(inc) = incumbent {
            assert_eq!(inc.len(), n, "incumbent must cover every node");
            assert!(inc.iter().all(|&j| (j as usize) < m), "incumbent instance out of range");
        }
        if let Some(f) = fixed {
            assert_eq!(f.len(), n, "fixed assignments must cover every node");
            assert!(f.iter().flatten().all(|&j| (j as usize) < m), "fixed instance out of range");
        }

        let pool_size = config.pool_size(n, m);
        let pool: Vec<u32> = if pool_size >= m {
            (0..m as u32).collect()
        } else {
            // One cold fill of the evidence engine the mid-sweep rule
            // refreshes incrementally, then the same scoring: the pool
            // is computed one way, not two.
            PointEvidence::cold(stats).pool(pool_size, config.quantile, min_coverage)
        };

        Self::assemble(m, n, pool, incumbent, fixed)
    }

    /// [`CandidateSet::build_partial`] transcribed onto the retained
    /// array-of-structs estimator, link-view walk and all — the
    /// pre-refactor hot loop, kept as the differential/perf oracle the
    /// columnar path races against (`ext_scale`) and is pinned to
    /// (property tests). Not part of the public API.
    #[doc(hidden)]
    pub fn build_partial_reference(
        num_nodes: usize,
        stats: &cloudia_measure::stats::aos::PairwiseStats,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
        min_coverage: f64,
    ) -> Self {
        let n = num_nodes;
        let m = stats.len();
        assert!(m >= 2, "need at least two instances");
        assert!((0.0..=1.0).contains(&config.quantile), "quantile must be in [0, 1]");
        assert!((0.0..=1.0).contains(&min_coverage), "min_coverage must be in [0, 1]");

        let pool_size = config.pool_size(n, m);
        let pool: Vec<u32> = if pool_size >= m {
            (0..m as u32).collect()
        } else {
            let mut forced: Vec<u32> = Vec::new();
            let mut scored: Vec<(f64, u32)> = Vec::new();
            for j in 0..m {
                let mut incident: Vec<f64> = Vec::with_capacity(2 * (m - 1));
                for l in 0..m {
                    if l != j {
                        for link in [stats.link(j, l), stats.link(l, j)] {
                            if link.count() > 0 {
                                incident.push(link.mean());
                            } else if link.attempts() > 0 {
                                incident.push(f64::INFINITY);
                            }
                        }
                    }
                }
                let coverage = incident.len() as f64 / (2 * (m - 1)) as f64;
                if incident.is_empty() || coverage < min_coverage {
                    forced.push(j as u32);
                } else {
                    let idx = ((incident.len() - 1) as f64 * config.quantile).round() as usize;
                    let (_, q, _) = incident.select_nth_unstable_by(idx, f64::total_cmp);
                    scored.push((*q, j as u32));
                }
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let take = pool_size.min(scored.len());
            let mut pool = forced;
            pool.extend(scored[..take].iter().map(|&(_, j)| j));
            pool.sort_unstable();
            pool
        };

        Self::assemble(m, n, pool, incumbent, fixed)
    }

    /// Shared tail of the builders: per-node lists (pool + incumbent/pin
    /// extras) and the sorted union.
    fn assemble(
        m: usize,
        n: usize,
        pool: Vec<u32>,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
    ) -> Self {
        let in_pool = {
            let mut mask = vec![false; m];
            for &j in &pool {
                mask[j as usize] = true;
            }
            mask
        };

        let per_node: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let mut list = pool.clone();
                for extra in
                    [incumbent.map(|inc| inc[v]), fixed.and_then(|f| f[v])].into_iter().flatten()
                {
                    if !in_pool[extra as usize] && !list.contains(&extra) {
                        list.push(extra);
                    }
                }
                list.sort_unstable();
                list
            })
            .collect();

        let mut union = pool;
        for list in &per_node {
            for &j in list {
                if !in_pool[j as usize] && !union.contains(&j) {
                    union.push(j);
                }
            }
        }
        union.sort_unstable();

        Self { m, union, per_node }
    }

    /// True when the candidate union covers every instance: the pruned
    /// path degenerates to the dense one.
    pub fn is_exact(&self) -> bool {
        self.union.len() == self.m
    }

    /// The sorted candidate union (original instance ids).
    pub fn union(&self) -> &[u32] {
        &self.union
    }

    /// Node `v`'s sorted candidate list (original instance ids).
    pub fn node_candidates(&self, v: usize) -> &[u32] {
        &self.per_node[v]
    }

    /// Restricts `problem` to the candidate union: the returned
    /// sub-problem's instance `a` is original instance `to_original[a]`,
    /// its cost plane is an O(K²) slice of the original arena, and
    /// `node_domains` carries the per-node lists remapped to sub indices
    /// (ready to seed CP bitset domains).
    pub fn restrict(&self, problem: &NodeDeployment) -> PrunedProblem {
        assert_eq!(problem.num_instances(), self.m, "candidate set built for another problem");
        let sub_costs: CostMatrix = problem.costs.submatrix(&self.union);
        let sub = NodeDeployment::new(problem.num_nodes, problem.edges.clone(), sub_costs);
        let mut to_sub = vec![u32::MAX; self.m];
        for (a, &j) in self.union.iter().enumerate() {
            to_sub[j as usize] = a as u32;
        }
        let node_domains = self
            .per_node
            .iter()
            .map(|list| list.iter().map(|&j| to_sub[j as usize]).collect())
            .collect();
        PrunedProblem { sub, to_original: self.union.clone(), to_sub, node_domains }
    }
}

/// A problem restricted to a candidate union, plus the index maps needed
/// to translate deployments, warm starts, and pins across the boundary.
#[derive(Debug, Clone)]
pub struct PrunedProblem {
    /// The restricted problem (instances renumbered `0..K`).
    pub sub: NodeDeployment,
    /// `to_original[a]` = original id of sub instance `a`.
    pub to_original: Vec<u32>,
    /// `to_sub[j]` = sub index of original instance `j`, or `u32::MAX`
    /// when `j` is not a candidate.
    pub to_sub: Vec<u32>,
    /// Per-node candidate lists in sub indices (CP domain seeds).
    pub node_domains: Vec<Vec<u32>>,
}

impl PrunedProblem {
    /// Maps a sub-problem deployment back to original instance ids.
    pub fn to_original_deployment(&self, d: &[u32]) -> Vec<u32> {
        d.iter().map(|&a| self.to_original[a as usize]).collect()
    }

    /// Maps an original-id deployment into the sub-problem, or `None` if
    /// it uses a non-candidate instance.
    pub fn to_sub_deployment(&self, d: &[u32]) -> Option<Vec<u32>> {
        d.iter()
            .map(|&j| {
                let a = self.to_sub[j as usize];
                (a != u32::MAX).then_some(a)
            })
            .collect()
    }

    /// Maps original-id pins into the sub-problem, or `None` if a pin
    /// references a non-candidate instance.
    pub fn to_sub_fixed(&self, fixed: &[Option<u32>]) -> Option<Vec<Option<u32>>> {
        fixed
            .iter()
            .map(|f| match f {
                None => Some(None),
                Some(j) => {
                    let a = self.to_sub[*j as usize];
                    (a != u32::MAX).then_some(Some(a))
                }
            })
            .collect()
    }
}

/// The mid-sweep tournament prune rule (implements
/// [`cloudia_measure::PruneRule`]): between measurement stages it scores
/// the candidate pool from the **partial** statistics — exactly the pool
/// [`CandidateSet::build_partial`] would build — and condemns every
/// remaining pair with an endpoint already proven outside the candidate
/// union. Those links can never carry a deployment, so their remaining
/// probes are wasted budget.
///
/// Safety rails, in line with the candidate layer's contract:
///
/// * **incumbent and pinned instances** are force-included in the union,
///   so no pair among them (in particular no *deployed* link) is ever
///   condemned;
/// * **explicitly protected pairs** ([`CandidatePruneRule::protect_pair`]
///   — detector-flagged links, links owed a staleness refresh) survive
///   even when an endpoint leaves the union;
/// * **under-covered instances** (incident coverage below
///   `min_coverage`) cannot be proven out and stay in the union, so
///   early sweeps prune nothing they might regret.
///
/// **Cost and the one-rule-per-sweep contract.** The rule keeps an
/// incremental evidence store (each directed link's cached price plus
/// each instance's sorted incident prices) behind a `RefCell`. The first
/// [`PruneRule::prune`] call fills it in bulk, O(m² + m·d log d) for `d`
/// priced directions per instance; every later call re-prices the links
/// from the stats columns, compares bit for bit, and moves only the
/// prices that changed, so a stage costs one O(m²) compare pass plus
/// O(changed · m) — not a rebuild with a selection per instance. The
/// store is a pure function of the columns, so verdicts are identical
/// to a freshly built rule's for *any* sequence of stats objects; but
/// the incremental saving only materializes when consecutive calls see
/// one sweep's growing statistics. Build one rule per sweep (as
/// `OnlineAdvisor` does each epoch), like [`CiStopRule`].
#[derive(Debug, Clone)]
pub struct CandidatePruneRule {
    num_nodes: usize,
    config: CandidateConfig,
    min_coverage: f64,
    incumbent: Option<Vec<u32>>,
    fixed: Option<Vec<Option<u32>>>,
    protected: PairSet,
    evidence: RefCell<PointEvidence>,
}

impl CandidatePruneRule {
    /// Default incident-coverage fraction below which an instance cannot
    /// be proven uncompetitive — shared by every caller that builds
    /// partial pools (the rule itself, and the online advisor's
    /// mid-sweep probe-plan cliques), so plan and prune agree on the
    /// evidence threshold.
    pub const DEFAULT_MIN_COVERAGE: f64 = 0.5;

    /// A rule for problems with `num_nodes` application nodes, sizing
    /// pools by `config` and requiring
    /// [`CandidatePruneRule::DEFAULT_MIN_COVERAGE`] incident coverage
    /// before an instance may be proven out.
    pub fn new(num_nodes: usize, config: CandidateConfig) -> Self {
        Self {
            num_nodes,
            config,
            min_coverage: Self::DEFAULT_MIN_COVERAGE,
            incumbent: None,
            fixed: None,
            protected: PairSet::new(),
            evidence: RefCell::default(),
        }
    }

    /// Overrides the coverage threshold below which an instance cannot be
    /// proven uncompetitive.
    ///
    /// # Panics
    /// Panics if outside `[0, 1]`.
    pub fn with_min_coverage(mut self, min_coverage: f64) -> Self {
        assert!((0.0..=1.0).contains(&min_coverage), "min_coverage must be in [0, 1]");
        self.min_coverage = min_coverage;
        self
    }

    /// Registers the incumbent deployment: its instances are
    /// force-included in every mid-sweep pool, so deployed links are
    /// never condemned.
    pub fn with_incumbent(mut self, incumbent: &[u32]) -> Self {
        assert_eq!(incumbent.len(), self.num_nodes, "incumbent must cover every node");
        self.incumbent = Some(incumbent.to_vec());
        self
    }

    /// Registers pinned assignments; pinned instances are force-included
    /// like incumbents.
    pub fn with_fixed(mut self, fixed: &[Option<u32>]) -> Self {
        assert_eq!(fixed.len(), self.num_nodes, "fixed assignments must cover every node");
        self.fixed = Some(fixed.to_vec());
        self
    }

    /// Marks the unordered pair `{a, b}` as never prunable (flagged
    /// links, staleness refreshes, anything the caller still owes a
    /// measurement).
    pub fn protect_pair(&mut self, a: u32, b: u32) {
        self.protected.insert(a, b);
    }

    /// Number of explicitly protected pairs.
    pub fn protected_pairs(&self) -> usize {
        self.protected.len()
    }
}

impl PruneRule for CandidatePruneRule {
    fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
        if stats.total_samples() == 0 {
            return Vec::new();
        }
        let m = stats.len();
        let pool_size = self.config.pool_size(self.num_nodes, m);
        if pool_size >= m {
            // Exact pool: every instance is a candidate.
            return Vec::new();
        }
        let pool = {
            let mut evidence = self.evidence.borrow_mut();
            evidence.refresh(stats);
            evidence.pool(pool_size, self.config.quantile, self.min_coverage)
        };
        // The candidate union: the pool plus incumbent and pinned
        // instances, as `CandidateSet::build_partial` assembles it.
        let mut member = vec![false; m];
        let extras = self.incumbent.iter().flatten().chain(self.fixed.iter().flatten().flatten());
        for &j in pool.iter().chain(extras) {
            member[j as usize] = true;
        }
        if member.iter().all(|&x| x) {
            return Vec::new();
        }
        remaining
            .iter()
            .copied()
            .filter(|&(a, b)| {
                (!member[a as usize] || !member[b as usize]) && !self.protected.contains(a, b)
            })
            .collect()
    }
}

/// Per-instance candidate-pool score *intervals*, derived from the
/// per-link confidence intervals of the partial statistics — the shared
/// evidence engine behind [`CiPruneRule`] and [`CiStopRule`].
///
/// Where the point-estimate pool scores an instance by the quantile of
/// its incident mean costs, this scores it twice: once from the incident
/// CI *lower* bounds (the best competitive score the instance could still
/// achieve) and once from the *upper* bounds (the worst it could be). An
/// instance is **provably out** of every pool only when even its
/// optimistic score is beaten by `pool_size` instances' pessimistic
/// scores; **provably in** when even its pessimistic score beats all but
/// fewer than `pool_size` optimistic rivals. Everything in between is
/// still undecided and must keep measuring.
///
/// A nonzero `tolerance` relaxes both verdicts by a *relative
/// indifference margin*: scores within `tolerance` of the pool boundary
/// are treated as ties, because swapping two ε-tied instances perturbs
/// any pool-restricted deployment cost by at most that relative margin —
/// exactly the slack the anytime error contract already concedes. With
/// clustered topologies whole racks share near-identical scores, so
/// without the margin the rank test at the boundary can never settle and
/// the anytime stop would never fire.
#[derive(Debug)]
struct CiScores {
    /// Optimistic per-instance pool score (quantile of incident CI lower
    /// bounds); 0 for under-covered or force-included instances.
    lo: Vec<f64>,
    /// Pessimistic per-instance pool score (quantile of incident CI
    /// upper bounds); `+∞` for under-covered instances.
    hi: Vec<f64>,
    /// Instances that can never be proven out (incumbent, pinned,
    /// under-covered).
    forced: Vec<bool>,
    /// Instances with incident coverage below the evidence threshold.
    undercovered: Vec<bool>,
    pool_size: usize,
    /// `pool_size`-th smallest pessimistic score: an instance whose
    /// optimistic score exceeds this is provably out.
    out_threshold: f64,
    /// All optimistic scores, ascending, for the provably-in rank test.
    lo_sorted: Vec<f64>,
    /// Relative indifference margin; 0 demands strict interval
    /// separation.
    tolerance: f64,
}

impl CiScores {
    #[allow(clippy::too_many_arguments)]
    fn build(
        num_nodes: usize,
        stats: &PairwiseStats,
        config: &CandidateConfig,
        confidence: f64,
        min_coverage: f64,
        tolerance: f64,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
    ) -> Self {
        let m = stats.len();
        let pool_size = config.pool_size(num_nodes, m);
        let mut forced = vec![false; m];
        for &j in incumbent.into_iter().flatten() {
            forced[j as usize] = true;
        }
        for &j in fixed.into_iter().flatten().flatten() {
            forced[j as usize] = true;
        }

        // Incident CI bounds per instance, CSR-style like
        // `build_partial`: one row-major pass over the columns, each
        // observed (or attempted) directed link contributing its interval
        // to both endpoints. A dark direction (attempted, never answered)
        // is certain evidence of unreachability: `[+∞, +∞]`.
        let count = stats.count_column();
        let attempts = stats.attempts_column();
        let mut deg = vec![0u32; m];
        let mut hits: Vec<(u32, u32, f64, f64)> = Vec::new();
        for src in 0..m {
            let row = src * m;
            crate::kernels::scan_row_evidence(
                &count[row..row + m],
                &attempts[row..row + m],
                |dst, observed| {
                    let (lo, hi) = if observed {
                        let ci = stats.ci(src, dst, confidence);
                        (ci.lower(), ci.upper())
                    } else {
                        (f64::INFINITY, f64::INFINITY)
                    };
                    hits.push((src as u32, dst as u32, lo, hi));
                    deg[src] += 1;
                    deg[dst] += 1;
                },
            );
        }
        let mut off = vec![0usize; m + 1];
        for j in 0..m {
            off[j + 1] = off[j] + deg[j] as usize;
        }
        let mut cursor = off.clone();
        let mut flat_lo = vec![0.0f64; off[m]];
        let mut flat_hi = vec![0.0f64; off[m]];
        for &(src, dst, lo, hi) in &hits {
            for end in [src as usize, dst as usize] {
                flat_lo[cursor[end]] = lo;
                flat_hi[cursor[end]] = hi;
                cursor[end] += 1;
            }
        }

        let mut lo = vec![0.0f64; m];
        let mut hi = vec![f64::INFINITY; m];
        let mut undercovered = vec![false; m];
        for j in 0..m {
            let incident_lo = &mut flat_lo[off[j]..off[j + 1]];
            let coverage = incident_lo.len() as f64 / (2 * (m - 1)) as f64;
            if incident_lo.is_empty() || coverage < min_coverage {
                // Not enough evidence either way: optimistic 0 (never
                // provably out), pessimistic ∞ (displaces nobody).
                undercovered[j] = true;
                continue;
            }
            let idx = ((incident_lo.len() - 1) as f64 * config.quantile).round() as usize;
            let (_, q_lo, _) = incident_lo.select_nth_unstable_by(idx, f64::total_cmp);
            lo[j] = *q_lo;
            let incident_hi = &mut flat_hi[off[j]..off[j + 1]];
            let (_, q_hi, _) = incident_hi.select_nth_unstable_by(idx, f64::total_cmp);
            hi[j] = *q_hi;
        }

        let mut hi_sorted = hi.clone();
        hi_sorted.sort_by(f64::total_cmp);
        let out_threshold =
            if pool_size == 0 || pool_size > m { f64::INFINITY } else { hi_sorted[pool_size - 1] };
        let mut lo_sorted = lo.clone();
        lo_sorted.sort_by(f64::total_cmp);
        Self { lo, hi, forced, undercovered, pool_size, out_threshold, lo_sorted, tolerance }
    }

    /// True when instance `j` provably sits outside every candidate
    /// pool: its *optimistic* score is beaten by `pool_size` instances'
    /// *pessimistic* scores — or, with a nonzero tolerance, fails to
    /// undercut the pool boundary by more than the indifference margin,
    /// making it at best an ε-tie for the last pool slot. Forced or
    /// under-covered instances are never provably out.
    fn provably_out(&self, j: usize) -> bool {
        !self.forced[j]
            && !self.undercovered[j]
            && self.lo[j] > self.out_threshold * (1.0 - self.tolerance)
    }

    /// True when instance `j` provably belongs to the pool: fewer than
    /// `pool_size` *other* instances could even optimistically beat its
    /// pessimistic score — with a nonzero tolerance, beat it by more
    /// than the indifference margin, so ε-tied rivals don't displace it.
    /// Forced instances are in by fiat; under-covered ones are never
    /// provably anything.
    fn provably_in(&self, j: usize) -> bool {
        if self.forced[j] {
            return true;
        }
        if self.undercovered[j] || !self.hi[j].is_finite() {
            return false;
        }
        let bar = self.hi[j] * (1.0 - self.tolerance);
        let below = self.lo_sorted.partition_point(|&x| x < bar);
        let others = below - usize::from(self.lo[j] < bar);
        others < self.pool_size
    }
}

/// The CI-evidence mid-sweep prune rule (implements
/// [`cloudia_measure::PruneRule`]) — the error-bounded replacement for
/// [`CandidatePruneRule`]'s point-quantile condemnation. A pair is
/// condemned only when one of its endpoints is **provably** outside every
/// candidate pool at the rule's confidence level: even the quantile of
/// its incident CI *lower* bounds exceeds the `pool_size`-th smallest
/// quantile of rival CI *upper* bounds. A link with fewer than two
/// samples has an unbounded interval, so a 1-sample endpoint can never be
/// proven out — exactly the overconfidence the zero-variance
/// `Welford::variance()` would otherwise smuggle in.
///
/// [`CiPruneRule::with_tolerance`] additionally treats scores within a
/// relative margin of the pool boundary as ties, so clustered topologies
/// (where whole racks score near-identically) can still be resolved: an
/// ε-tie for the last pool slot is condemnable because keeping either
/// side changes the achievable cost by at most the margin.
///
/// The same safety rails as [`CandidatePruneRule`] apply: incumbent and
/// pinned instances are never condemned, explicitly protected pairs
/// survive regardless of evidence, and under-covered instances stay.
#[derive(Debug, Clone)]
pub struct CiPruneRule {
    num_nodes: usize,
    config: CandidateConfig,
    confidence: f64,
    min_coverage: f64,
    tolerance: f64,
    incumbent: Option<Vec<u32>>,
    fixed: Option<Vec<Option<u32>>>,
    protected: PairSet,
}

impl CiPruneRule {
    /// A rule for problems with `num_nodes` application nodes, sizing
    /// pools by `config` and demanding CI separation at `confidence`
    /// (strictly in `(0, 1)`) before condemning anything.
    ///
    /// # Panics
    /// Panics if `confidence` is outside `(0, 1)`.
    pub fn new(num_nodes: usize, config: CandidateConfig, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        Self {
            num_nodes,
            config,
            confidence,
            min_coverage: CandidatePruneRule::DEFAULT_MIN_COVERAGE,
            tolerance: 0.0,
            incumbent: None,
            fixed: None,
            protected: PairSet::new(),
        }
    }

    /// Sets the relative indifference margin (default 0): scores within
    /// `tolerance` of the pool boundary count as ties, so ε-tied
    /// instances can be settled (in *or* out) instead of blocking every
    /// decision forever. Choosing among ε-tied instances changes a
    /// pool-restricted deployment cost by at most `tolerance` relative —
    /// the anytime contract sets this to `1 - confidence`, the same
    /// slack its realized-error bound concedes. 0 demands strict
    /// interval separation.
    ///
    /// # Panics
    /// Panics if `tolerance` is outside `[0, 1)`.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!((0.0..1.0).contains(&tolerance), "tolerance must be in [0, 1)");
        self.tolerance = tolerance;
        self
    }

    /// Overrides the coverage threshold below which an instance cannot
    /// be proven uncompetitive.
    ///
    /// # Panics
    /// Panics if outside `[0, 1]`.
    pub fn with_min_coverage(mut self, min_coverage: f64) -> Self {
        assert!((0.0..=1.0).contains(&min_coverage), "min_coverage must be in [0, 1]");
        self.min_coverage = min_coverage;
        self
    }

    /// Registers the incumbent deployment; its instances are never
    /// proven out, so deployed links are never condemned.
    pub fn with_incumbent(mut self, incumbent: &[u32]) -> Self {
        assert_eq!(incumbent.len(), self.num_nodes, "incumbent must cover every node");
        self.incumbent = Some(incumbent.to_vec());
        self
    }

    /// Registers pinned assignments; pinned instances are protected like
    /// incumbents.
    pub fn with_fixed(mut self, fixed: &[Option<u32>]) -> Self {
        assert_eq!(fixed.len(), self.num_nodes, "fixed assignments must cover every node");
        self.fixed = Some(fixed.to_vec());
        self
    }

    /// Marks the unordered pair `{a, b}` as never prunable.
    pub fn protect_pair(&mut self, a: u32, b: u32) {
        self.protected.insert(a, b);
    }

    /// Number of explicitly protected pairs.
    pub fn protected_pairs(&self) -> usize {
        self.protected.len()
    }

    /// The confidence level separations are demanded at.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The relative indifference margin (0 unless overridden).
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    fn scores(&self, stats: &PairwiseStats) -> CiScores {
        CiScores::build(
            self.num_nodes,
            stats,
            &self.config,
            self.confidence,
            self.min_coverage,
            self.tolerance,
            self.incumbent.as_deref(),
            self.fixed.as_deref(),
        )
    }
}

impl PruneRule for CiPruneRule {
    fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
        if stats.total_samples() == 0 {
            return Vec::new();
        }
        let scores = self.scores(stats);
        remaining
            .iter()
            .copied()
            .filter(|&(a, b)| {
                (scores.provably_out(a as usize) || scores.provably_out(b as usize))
                    && !self.protected.contains(a, b)
            })
            .collect()
    }
}

/// The anytime stopping rule (implements [`cloudia_measure::StopRule`]):
/// declares a sweep stable once every remaining prune/pool decision is
/// CI-stable, on either of two criteria:
///
/// * **settled** — *every* instance's pool membership is decided at the
///   configured confidence (provably in, provably out, or
///   force-included), so further probing cannot change any downstream
///   verdict beyond the wrapped rule's indifference margin; or
/// * **plateau** — at least one membership has been earned on evidence
///   and a full re-measurement's worth of fresh samples (at least one
///   per remaining pair) moved *no* verdict: the sweep's marginal
///   samples have stopped moving decisions, so the rest of this
///   schedule is spent information-free. Undecided instances keep
///   accumulating evidence on later sweeps (and their stale pairs are
///   re-protected on the refresh horizon), so the verdicts they still
///   owe are deferred, not lost.
///
/// Under-covered instances veto both criteria, so an early sweep can
/// never stop before the evidence threshold is met.
///
/// The plateau criterion makes a rule instance **stateful across
/// consecutive [`cloudia_measure::StopRule::stable`] calls**: it
/// fingerprints the per-instance verdict vector and compares it with the
/// previous evaluation's. Build a fresh rule per sweep (as
/// `OnlineAdvisor` does each epoch) so one sweep's trajectory never
/// leaks into the next.
///
/// Wraps a [`CiPruneRule`], sharing its pool sizing, confidence,
/// indifference margin, and protections; by default the rule's
/// protected pairs are reported via
/// [`cloudia_measure::StopRule::must_keep`] so deployed/flagged links
/// keep probing even after the stop fires.
/// [`CiStopRule::with_must_keep`] narrows that set — e.g. pairs
/// protected only because they are *stale* don't need the remaining
/// schedule's full depth, since the plateau cannot fire before a
/// sweep-equivalent of fresh samples (their refresh included) has
/// landed.
#[derive(Debug, Clone)]
pub struct CiStopRule {
    rule: CiPruneRule,
    /// Unordered pairs that keep probing after the stop fires.
    keep: PairSet,
    /// `(verdict fingerprint, total samples)` at the last plateau
    /// checkpoint; `None` before the first evaluation (or after an
    /// under-covered veto reset). A new checkpoint is only compared
    /// once at least one fresh sample per remaining pair has landed
    /// since it was recorded.
    checkpoint: std::cell::Cell<Option<(u64, u64)>>,
}

impl CiStopRule {
    /// Wraps `rule`; stability is judged with the rule's own pool
    /// configuration, confidence, and indifference margin, and the
    /// rule's protected pairs keep probing after the stop fires.
    pub fn new(rule: CiPruneRule) -> Self {
        let keep = rule.protected.clone();
        Self { rule, keep, checkpoint: std::cell::Cell::new(None) }
    }

    /// Replaces the set of pairs that keep probing after the stop fires
    /// (normalized unordered). Use this to exempt pairs that are
    /// protected from *pruning* but don't need post-stop depth — stale
    /// refreshes are already served before the plateau can fire, while
    /// deployed/flagged links feed change detectors every epoch and must
    /// keep their full sample stream.
    pub fn with_must_keep<I: IntoIterator<Item = (u32, u32)>>(mut self, pairs: I) -> Self {
        self.keep = pairs.into_iter().collect();
        self
    }
}

impl cloudia_measure::StopRule for CiStopRule {
    fn stable(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> bool {
        if stats.total_samples() == 0 || remaining.is_empty() {
            return false;
        }
        let scores = self.rule.scores(stats);
        let mut all_settled = true;
        let mut any_earned = false;
        let mut undercovered = false;
        // FNV-1a over the per-instance verdict vector: 1 in, 2 out,
        // 0 undecided (ε-ties canonicalize to "in").
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        for j in 0..stats.len() {
            undercovered |= scores.undercovered[j];
            let verdict: u8 = if scores.provably_in(j) {
                1
            } else if scores.provably_out(j) {
                2
            } else {
                0
            };
            if verdict == 0 {
                all_settled = false;
            } else if !scores.forced[j] {
                any_earned = true;
            }
            fingerprint = (fingerprint ^ u64::from(verdict)).wrapping_mul(0x0100_0000_01b3);
        }
        if all_settled {
            return true;
        }
        if undercovered {
            self.checkpoint.set(None);
            return false;
        }
        let samples = stats.total_samples();
        match self.checkpoint.get() {
            None => {
                self.checkpoint.set(Some((fingerprint, samples)));
                false
            }
            // Too little fresh evidence since the checkpoint to judge a
            // plateau — keep measuring, keep the checkpoint.
            Some((_, at)) if samples.saturating_sub(at) < remaining.len() as u64 => false,
            // A sweep-equivalent of fresh samples moved no verdict and at
            // least one verdict was earned (not forced): plateau — stop.
            Some((recorded, _)) if recorded == fingerprint && any_earned => true,
            // The evidence moved something (or nothing is earned yet):
            // re-arm the checkpoint at the current state.
            Some(_) => {
                self.checkpoint.set(Some((fingerprint, samples)));
                false
            }
        }
    }

    fn must_keep(&self, a: u32, b: u32) -> bool {
        self.keep.contains(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Costs;

    fn clustered_problem(n: usize, m: usize, seed: u64) -> NodeDeployment {
        let edges = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        NodeDeployment::new(n, edges, Costs::random_clustered(m, 0.3, seed))
    }

    #[test]
    fn pool_prefers_well_connected_instances() {
        // Plant one pathological instance: every incident link is huge.
        let m = 12;
        let costs = Costs::from_fn(m, |i, j| if i == 7 || j == 7 { 50.0 } else { 1.0 });
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], costs);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(6), None, None);
        assert_eq!(cs.union().len(), 6);
        assert!(!cs.union().contains(&7), "congested instance selected: {:?}", cs.union());
    }

    #[test]
    fn incumbent_and_pins_are_always_reachable() {
        let p = clustered_problem(5, 30, 1);
        // Force the incumbent/pins onto the *worst* instances so the pool
        // alone would exclude them.
        let cs_plain = CandidateSet::build(&p, &CandidateConfig::fixed(8), None, None);
        let excluded: Vec<u32> =
            (0..30u32).filter(|j| !cs_plain.union().contains(j)).take(5).collect();
        let incumbent: Vec<u32> = excluded.clone();
        let fixed: Vec<Option<u32>> = vec![Some(excluded[2]), None, None, None, Some(excluded[4])];
        let cs =
            CandidateSet::build(&p, &CandidateConfig::fixed(8), Some(&incumbent), Some(&fixed));
        for (v, &j) in incumbent.iter().enumerate() {
            assert!(cs.node_candidates(v).contains(&j), "node {v} lost its incumbent");
        }
        assert!(cs.node_candidates(0).contains(&excluded[2]));
        let pr = cs.restrict(&p);
        let sub_inc = pr.to_sub_deployment(&incumbent).expect("incumbent maps into the union");
        assert_eq!(pr.to_original_deployment(&sub_inc), incumbent);
        assert!(pr.to_sub_fixed(&fixed).is_some());
    }

    #[test]
    fn exact_fallback_selects_everything() {
        let p = clustered_problem(4, 10, 2);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(10), None, None);
        assert!(cs.is_exact());
        assert_eq!(cs.union(), (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn pool_never_smaller_than_node_count() {
        let p = clustered_problem(6, 20, 3);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(2), None, None);
        assert!(cs.union().len() >= 6, "union {:?} cannot host 6 nodes", cs.union());
    }

    #[test]
    fn restriction_preserves_costs_and_structure() {
        let p = clustered_problem(4, 16, 4);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(6), None, None);
        let pr = cs.restrict(&p);
        assert_eq!(pr.sub.num_nodes, 4);
        assert_eq!(pr.sub.num_instances(), cs.union().len());
        for (a, &i) in pr.to_original.iter().enumerate() {
            for (b, &j) in pr.to_original.iter().enumerate() {
                assert_eq!(
                    pr.sub.costs.get(a, b),
                    if a == b { 0.0 } else { p.costs.get(i as usize, j as usize) }
                );
            }
        }
        // Domains are valid sub indices.
        for dom in &pr.node_domains {
            assert!(dom.iter().all(|&a| (a as usize) < pr.sub.num_instances()));
        }
    }

    #[test]
    fn auto_pool_size_scales_with_nodes() {
        let cfg = CandidateConfig::default();
        assert_eq!(cfg.pool_size(5, 2000), 48);
        assert_eq!(cfg.pool_size(30, 2000), 120);
        assert_eq!(cfg.pool_size(30, 60), 60);
        let explicit = CandidateConfig::fixed(10);
        assert_eq!(explicit.pool_size(4, 2000), 10);
        assert_eq!(explicit.pool_size(20, 2000), 20); // never below n
    }

    #[test]
    fn adaptive_policy_resolves_like_fixed_for_one_shot_solves() {
        let cfg = CandidateConfig::adaptive(AdaptivePoolConfig {
            initial: 12,
            ..AdaptivePoolConfig::default()
        });
        assert_eq!(cfg.pool_size(4, 2000), 12);
        let auto = CandidateConfig::adaptive(AdaptivePoolConfig::default());
        assert_eq!(auto.pool_size(5, 2000), 48);
    }

    #[test]
    fn one_shot_pool_size_matches_the_live_controller() {
        // The same adaptive config must select the same opening pool in a
        // one-shot solve (pool_size) and in the online loop (AdaptivePool).
        for cfg in [
            AdaptivePoolConfig { initial: 0, max: 10, ..Default::default() },
            AdaptivePoolConfig { initial: 3, min: 8, ..Default::default() },
            AdaptivePoolConfig::default(),
        ] {
            let pool = AdaptivePool::new(cfg, 5, 200);
            assert_eq!(CandidateConfig::adaptive(cfg).pool_size(5, 200), pool.k(), "{cfg:?}");
        }
    }

    #[test]
    fn adaptive_pool_grows_on_frequent_escalations() {
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 10, ..AdaptivePoolConfig::default() },
            4,
            200,
        );
        assert_eq!(pool.k(), 10);
        for _ in 0..10 {
            pool.observe(true);
        }
        assert!(pool.k() > 10, "k {} never grew under sustained escalations", pool.k());
        assert!(pool.escalation_rate() > 0.5);
    }

    #[test]
    fn adaptive_pool_shrinks_on_a_stationary_tail() {
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 64, ..AdaptivePoolConfig::default() },
            4,
            200,
        );
        // An active head keeps the rate high...
        for _ in 0..6 {
            pool.observe(true);
        }
        let peak = pool.k();
        // ...then a long quiet tail decays it and k shrinks.
        for _ in 0..30 {
            pool.observe(false);
        }
        assert!(pool.k() < peak, "k {} did not shrink from peak {peak}", pool.k());
        assert!(pool.escalation_rate() < 0.15);
    }

    #[test]
    fn adaptive_pool_respects_bounds() {
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 20, min: 8, max: 40, ..AdaptivePoolConfig::default() },
            4,
            200,
        );
        for _ in 0..200 {
            pool.observe(true);
        }
        assert_eq!(pool.k(), 40);
        for _ in 0..200 {
            pool.observe(false);
        }
        assert_eq!(pool.k(), 8);
        // The floor never dips under the node count even if configured so.
        let tight = AdaptivePool::new(
            AdaptivePoolConfig { initial: 3, min: 1, ..AdaptivePoolConfig::default() },
            6,
            200,
        );
        assert!(tight.k() >= 6);
    }

    fn record_both(stats: &mut PairwiseStats, i: usize, j: usize, cost: f64) {
        stats.record(i, j, cost);
        stats.record(j, i, cost);
    }

    /// Fully measured stats where instance `bad` has uniformly huge
    /// incident costs and everyone else is cheap.
    fn full_stats(m: usize, bad: usize) -> PairwiseStats {
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                record_both(&mut stats, i, j, if i == bad || j == bad { 50.0 } else { 1.0 });
            }
        }
        stats
    }

    #[test]
    fn partial_pool_excludes_proven_congested_instances() {
        let stats = full_stats(12, 7);
        let cs =
            CandidateSet::build_partial(4, &stats, &CandidateConfig::fixed(6), None, None, 0.5);
        assert_eq!(cs.union().len(), 6);
        assert!(!cs.union().contains(&7), "proven-congested instance kept: {:?}", cs.union());
    }

    #[test]
    fn partial_pool_force_includes_under_covered_instances() {
        // Instance 7 is terrible but only one of its 22 incident
        // directions is measured: it cannot be proven out yet.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    record_both(&mut stats, i, j, 1.0);
                }
            }
        }
        stats.record(7, 0, 50.0);
        let cs =
            CandidateSet::build_partial(4, &stats, &CandidateConfig::fixed(6), None, None, 0.5);
        assert!(cs.union().contains(&7), "under-covered instance pruned: {:?}", cs.union());
        assert_eq!(cs.union().len(), 7, "pool is target + the one unprovable instance");
    }

    #[test]
    fn partial_pool_scores_out_dark_instances_instead_of_forcing_them_in() {
        // Instance 7 was attempted on every incident direction but never
        // answered (fully dark): that is evidence of uncompetitiveness,
        // not a coverage gap — it must rank worst, not be force-included.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    record_both(&mut stats, i, j, 1.0);
                } else {
                    stats.record_attempt(i, j);
                    stats.record_attempt(j, i);
                }
            }
        }
        let cs =
            CandidateSet::build_partial(4, &stats, &CandidateConfig::fixed(6), None, None, 0.5);
        assert_eq!(cs.union().len(), 6, "dark instance inflated the pool: {:?}", cs.union());
        assert!(!cs.union().contains(&7), "dark instance force-included: {:?}", cs.union());
    }

    #[test]
    fn partial_pool_with_no_samples_keeps_everyone() {
        let stats = PairwiseStats::new(10);
        let cs =
            CandidateSet::build_partial(3, &stats, &CandidateConfig::fixed(4), None, None, 0.5);
        assert!(cs.is_exact(), "an unmeasured sweep must not prune anything");
    }

    #[test]
    fn prune_rule_condemns_only_out_of_union_unprotected_pairs() {
        // Pool of 11 over 12 instances: exactly the congested instance 7
        // is proven out.
        let stats = full_stats(12, 7);
        let incumbent: Vec<u32> = vec![0, 1, 2, 3];
        let mut rule =
            CandidatePruneRule::new(4, CandidateConfig::fixed(11)).with_incumbent(&incumbent);
        rule.protect_pair(7, 9); // flagged: survives despite 7 being out
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        let condemned = rule.prune(&stats, &remaining);
        assert!(!condemned.is_empty());
        for &(a, b) in &condemned {
            assert!(a == 7 || b == 7, "({a},{b}) condemned but both endpoints are candidates");
            assert!((a.min(b), a.max(b)) != (7, 9), "protected pair condemned");
        }
        // Deployed pairs (incumbent instances) never condemned.
        for &(a, b) in &condemned {
            assert!(
                !(incumbent.contains(&a) && incumbent.contains(&b)),
                "incumbent link ({a},{b}) condemned"
            );
        }
    }

    #[test]
    fn prune_rule_is_silent_without_samples_or_with_exact_union() {
        let rule = CandidatePruneRule::new(3, CandidateConfig::fixed(6));
        let remaining = vec![(0u32, 1u32), (1, 2)];
        assert!(rule.prune(&PairwiseStats::new(8), &remaining).is_empty());
        // Pool >= m: exact union, nothing prunable.
        let exact = CandidatePruneRule::new(3, CandidateConfig::fixed(100));
        assert!(exact.prune(&full_stats(8, 2), &remaining).is_empty());
    }

    /// Fully measured stats with `samples` zero-jitter observations per
    /// direction: every CI is bounded (and zero-width), so separations
    /// are exact and deterministic.
    fn full_stats_ci(m: usize, bad: usize, samples: usize) -> PairwiseStats {
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                for _ in 0..samples {
                    record_both(&mut stats, i, j, if i == bad || j == bad { 50.0 } else { 1.0 });
                }
            }
        }
        stats
    }

    #[test]
    fn ci_rule_condemns_only_provably_out_unprotected_pairs() {
        let stats = full_stats_ci(12, 7, 5);
        let incumbent: Vec<u32> = vec![0, 1, 2, 3];
        let mut rule =
            CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95).with_incumbent(&incumbent);
        rule.protect_pair(7, 9);
        assert_eq!(rule.protected_pairs(), 1);
        assert_eq!(rule.confidence(), 0.95);
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        let condemned = rule.prune(&stats, &remaining);
        assert!(!condemned.is_empty(), "separated intervals must allow condemnation");
        for &(a, b) in &condemned {
            assert!(a == 7 || b == 7, "({a},{b}) condemned but both endpoints are candidates");
            assert!((a.min(b), a.max(b)) != (7, 9), "protected pair condemned");
            assert!(
                !(incumbent.contains(&a) && incumbent.contains(&b)),
                "incumbent link ({a},{b}) condemned"
            );
        }
    }

    #[test]
    fn one_sample_links_are_never_condemned_by_ci_rule() {
        // Instance 7 looks terrible (50.0 on every incident direction)
        // but each of those directions carries exactly ONE sample:
        // `Welford::variance()` is 0 below two observations, so a naive
        // zero-width interval would condemn it with false certainty. The
        // CI rule must treat those intervals as unbounded and keep it.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    for _ in 0..5 {
                        record_both(&mut stats, i, j, 1.0);
                    }
                } else {
                    record_both(&mut stats, i, j, 50.0);
                }
            }
        }
        let rule = CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95);
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        assert!(
            rule.prune(&stats, &remaining).is_empty(),
            "a 1-sample link was condemned on zero-variance false certainty"
        );
        // With real evidence (5 samples per direction) the same instance
        // IS provably out — the guard is about sample count, not cost.
        let evidenced = full_stats_ci(m, 7, 5);
        assert!(!rule.prune(&evidenced, &remaining).is_empty());
    }

    #[test]
    fn ci_rule_is_silent_without_samples() {
        let rule = CiPruneRule::new(3, CandidateConfig::fixed(6), 0.95);
        assert!(rule.prune(&PairwiseStats::new(8), &[(0, 1), (1, 2)]).is_empty());
    }

    #[test]
    fn ci_stop_rule_stabilizes_only_on_bounded_separated_intervals() {
        use cloudia_measure::StopRule as _;
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        let mut inner = CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95);
        inner.protect_pair(2, 3);
        let stop = CiStopRule::new(inner);
        // No samples: never stable.
        assert!(!stop.stable(&PairwiseStats::new(12), &remaining));
        // One sample per direction: every interval unbounded, unstable.
        assert!(!stop.stable(&full_stats(12, 7), &remaining));
        // Five zero-jitter samples per direction: every membership
        // verdict settled, stable.
        assert!(stop.stable(&full_stats_ci(12, 7, 5), &remaining));
        // Protected pairs survive the stop.
        assert!(stop.must_keep(2, 3) && stop.must_keep(3, 2));
        assert!(!stop.must_keep(0, 1));
    }

    #[test]
    fn under_covered_instances_block_ci_stability() {
        use cloudia_measure::StopRule as _;
        // Everyone well measured except instance 7, which has a single
        // covered direction: its pool membership cannot be settled yet.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    for _ in 0..5 {
                        record_both(&mut stats, i, j, 1.0);
                    }
                }
            }
        }
        for _ in 0..5 {
            stats.record(7, 0, 50.0);
        }
        let stop = CiStopRule::new(CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95));
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        assert!(!stop.stable(&stats, &remaining), "under-covered instance declared settled");
    }

    /// Fully measured stats where instances 0–3 are cheap, 4–11 form a
    /// near-tied cluster straddling the pool boundary, and every
    /// direction carries `2 * reps` samples jittered ±0.01 around its
    /// pair cost — the intervals are bounded but overlap across the
    /// cluster, so strict separation at the boundary is impossible.
    fn tied_boundary_stats(reps: usize) -> PairwiseStats {
        let m = 12;
        let v = |i: usize| if i < 4 { 1.0 } else { 2.0 + 0.001 * (i - 4) as f64 };
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                let c = (v(i) + v(j)) / 2.0;
                for _ in 0..reps {
                    record_both(&mut stats, i, j, c - 0.01);
                    record_both(&mut stats, i, j, c + 0.01);
                }
            }
        }
        stats
    }

    #[test]
    fn indifference_margin_settles_boundary_ties_strictness_cannot() {
        use cloudia_measure::StopRule as _;
        let stats = tied_boundary_stats(2);
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        // Strict separation: the tied cluster's intervals overlap the
        // pool boundary, so nothing is condemnable and the membership
        // question never settles.
        let strict = CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95);
        assert_eq!(strict.tolerance(), 0.0);
        assert!(strict.prune(&stats, &remaining).is_empty(), "strict rule condemned a near-tie");
        // With the 5% indifference margin the whole cluster is at best
        // an ε-tie for the last pool slot: provably out, condemnable,
        // and every membership verdict settles on the first evaluation.
        let tolerant = strict.clone().with_tolerance(0.05);
        assert_eq!(tolerant.tolerance(), 0.05);
        let condemned = tolerant.prune(&stats, &remaining);
        assert!(!condemned.is_empty(), "ε-ties at the boundary were not condemned");
        for &(a, b) in &condemned {
            assert!(a >= 4 || b >= 4, "cheap pair ({a},{b}) condemned");
        }
        let stop = CiStopRule::new(tolerant);
        assert!(stop.stable(&stats, &remaining), "settled verdicts not recognized as stable");
    }

    #[test]
    fn plateau_fires_only_after_a_fresh_sweep_moves_no_verdict() {
        use cloudia_measure::StopRule as _;
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        // Strict rule: cheap instances are provably in (earned
        // verdicts), the tied cluster stays undecided forever — only the
        // plateau criterion can ever fire.
        let stop = CiStopRule::new(CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95));
        let stats = tied_boundary_stats(2);
        assert!(!stop.stable(&stats, &remaining), "stable with no checkpoint to compare against");
        assert!(!stop.stable(&stats, &remaining), "stable without any fresh evidence");
        // A sweep-equivalent of fresh samples that moves no verdict is a
        // plateau: the rest of the schedule is information-free.
        let more = tied_boundary_stats(3);
        assert!(stop.stable(&more, &remaining), "plateau after an unchanged sweep missed");

        // A verdict flip between checkpoints re-arms the rule instead.
        let stop = CiStopRule::new(CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95));
        assert!(!stop.stable(&stats, &remaining));
        let mut flipped = tied_boundary_stats(3);
        for j in 0..11usize {
            for _ in 0..6 {
                record_both(&mut flipped, j, 11, 50.0);
            }
        }
        assert!(!stop.stable(&flipped, &remaining), "changed verdicts accepted as a plateau");

        // `with_must_keep` narrows the post-stop survivors away from the
        // prune protections.
        let mut rule = CiPruneRule::new(4, CandidateConfig::fixed(6), 0.95);
        rule.protect_pair(0, 1);
        let stop = CiStopRule::new(rule.clone()).with_must_keep([(2u32, 3u32)]);
        assert!(stop.must_keep(2, 3) && stop.must_keep(3, 2));
        assert!(!stop.must_keep(0, 1), "prune protection leaked into the stop keeps");
        assert!(CiStopRule::new(rule).must_keep(0, 1), "default keeps lost the protections");
    }

    #[test]
    fn adaptive_effective_projects_current_k() {
        let base = CandidateConfig {
            quantile: 0.25,
            auto_escalate: false,
            ..CandidateConfig::adaptive(AdaptivePoolConfig::default())
        };
        let pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 17, ..AdaptivePoolConfig::default() },
            4,
            100,
        );
        let eff = pool.effective(&base);
        assert_eq!(eff.pool, PoolPolicy::Fixed(17));
        assert_eq!(eff.quantile, 0.25);
        assert!(!eff.auto_escalate);
    }
}
