//! Property-based tests for the optimization stack: exactness of CP
//! against brute force on tiny instances, LP solution feasibility,
//! clustering optimality, and heuristic validity.

use cloudia_solver::{
    cluster::CostClusters,
    cp::{solve_llndp_cp, CpConfig, Propagation},
    greedy::{solve_greedy, GreedyVariant},
    lp::{solve as lp_solve, Constraint, Lp, LpResult, Sense},
    portfolio::{solve_portfolio, PortfolioConfig},
    problem::{Costs, NodeDeployment},
    Budget, Objective,
};
use proptest::prelude::*;

fn costs_strategy(m: usize) -> impl Strategy<Value = Costs> {
    // The flat constructor zeroes the diagonal itself.
    proptest::collection::vec(0.1f64..2.0, m * m).prop_map(move |v| Costs::from_flat(m, v))
}

fn brute_force_ll(problem: &NodeDeployment) -> f64 {
    fn rec(p: &NodeDeployment, partial: &mut Vec<u32>, used: &mut Vec<bool>, best: &mut f64) {
        if partial.len() == p.num_nodes {
            *best = best.min(p.longest_link(partial));
            return;
        }
        for j in 0..p.num_instances() {
            if !used[j] {
                used[j] = true;
                partial.push(j as u32);
                rec(p, partial, used, best);
                partial.pop();
                used[j] = false;
            }
        }
    }
    let mut best = f64::INFINITY;
    rec(problem, &mut Vec::new(), &mut vec![false; problem.num_instances()], &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cp_is_exact_on_tiny_instances(costs in costs_strategy(5)) {
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], costs);
        let out = solve_llndp_cp(
            &p,
            &CpConfig {
                clusters: None,
                quantum: 0.0,
                budget: Budget::seconds(30.0),
                ..Default::default()
            },
        );
        prop_assert!(out.proven_optimal);
        let opt = brute_force_ll(&p);
        prop_assert!((out.cost - opt).abs() < 1e-9, "cp {} vs brute {}", out.cost, opt);
    }

    #[test]
    fn greedy_is_feasible_and_at_least_optimal(costs in costs_strategy(6)) {
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)], costs);
        let opt = brute_force_ll(&p);
        for variant in [GreedyVariant::G1, GreedyVariant::G2] {
            let out = solve_greedy(&p, variant);
            prop_assert!(p.is_valid(&out.deployment));
            prop_assert!(out.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn lp_solutions_satisfy_their_constraints(
        c0 in 0.1f64..5.0, c1 in 0.1f64..5.0, b0 in 1.0f64..10.0, b1 in 1.0f64..10.0,
    ) {
        // min c·x s.t. x0 + x1 >= b0, x0 <= b1: feasible and bounded.
        let lp = Lp {
            num_vars: 2,
            objective: vec![c0, c1],
            constraints: vec![
                Constraint::new(vec![(0, 1.0), (1, 1.0)], Sense::Ge, b0),
                Constraint::new(vec![(0, 1.0)], Sense::Le, b1),
            ],
        };
        match lp_solve(&lp, 10_000) {
            LpResult::Optimal { x, objective } => {
                prop_assert!(x[0] + x[1] >= b0 - 1e-6);
                prop_assert!(x[0] <= b1 + 1e-6);
                prop_assert!(x.iter().all(|&v| v >= -1e-9));
                // The optimum of this LP is min(c0, c1) * b0 when c-cheapest
                // variable is unconstrained, adjusted for the x0 cap.
                let expected = if c0 <= c1 {
                    c0 * b0.min(b1) + c1 * (b0 - b1).max(0.0)
                } else {
                    c1 * b0
                };
                prop_assert!((objective - expected).abs() < 1e-6,
                    "objective {objective} expected {expected}");
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn clustering_never_increases_sse_with_more_clusters(
        values in proptest::collection::vec(0.0f64..5.0, 5..40),
        k in 1usize..6,
    ) {
        let a = CostClusters::compute(&values, k, 0.0);
        let b = CostClusters::compute(&values, k + 1, 0.0);
        prop_assert!(b.within_sse() <= a.within_sse() + 1e-9);
    }

    #[test]
    fn portfolio_cost_is_thread_count_invariant(costs in costs_strategy(7), seed in 0u64..1000) {
        // Deterministic portfolio: same seed => identical deployment cost
        // on 1, 2, and 8 threads.
        let p = NodeDeployment::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], costs);
        let run = |threads: usize| {
            let config = PortfolioConfig {
                threads,
                cp: CpConfig { clusters: None, quantum: 0.0, ..CpConfig::default() },
                ..PortfolioConfig::deterministic(2_000, seed)
            };
            solve_portfolio(&p, Objective::LongestLink, &config)
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        prop_assert_eq!(one.cost, two.cost);
        prop_assert_eq!(two.cost, eight.cost);
        prop_assert_eq!(one.deployment, two.deployment);
        prop_assert_eq!(two.deployment, eight.deployment);
    }

    #[test]
    fn default_deployment_cost_is_an_upper_bound_for_cp(costs in costs_strategy(6)) {
        let p = NodeDeployment::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], costs);
        let default_cost = p.longest_link(&p.default_deployment());
        let out = solve_llndp_cp(
            &p,
            &CpConfig {
                initial: Some(p.default_deployment()),
                budget: Budget::seconds(10.0),
                ..Default::default()
            },
        );
        prop_assert!(out.cost <= default_cost + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn trail_cp_matches_clone_cp_on_random_instances(costs in costs_strategy(8), seed in 0u64..1000) {
        // 50 random instances: the trail-based backend must reproduce the
        // clone-based backend's cost (and tree size) exactly.
        let p = NodeDeployment::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], costs);
        let config = |propagation| CpConfig {
            clusters: None,
            quantum: 0.0,
            seed,
            budget: Budget::seconds(30.0),
            propagation,
            ..CpConfig::default()
        };
        let trail = solve_llndp_cp(&p, &config(Propagation::Trail));
        let clone = solve_llndp_cp(&p, &config(Propagation::CloneDomains));
        prop_assert_eq!(trail.cost, clone.cost);
        prop_assert_eq!(trail.deployment, clone.deployment);
        prop_assert_eq!(trail.explored, clone.explored);
        prop_assert_eq!(trail.proven_optimal, clone.proven_optimal);
    }
}

// Satellite: the adaptive-pool contract. Whatever observation sequence
// drives the controller, (a) `k` stays inside its resolved bounds and
// never below the node count, and (b) the candidate set built from the
// controller's effective config never loses the incumbent or a pinned
// instance — shrinking can starve the pool, never the warm start.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adaptive_pool_respects_bounds_under_any_observation_sequence(
        observations in proptest::collection::vec((0u8..2).prop_map(|x| x == 1), 1..120),
        initial in 1usize..40,
        min in 0usize..20,
        max in 0usize..40,
    ) {
        use cloudia_solver::{AdaptivePool, AdaptivePoolConfig};
        let (n, m) = (5usize, 30usize);
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial, min, max, ..AdaptivePoolConfig::default() },
            n,
            m,
        );
        let lo = min.max(n).min(m).max(1);
        let hi = if max == 0 { m } else { max.min(m) }.max(lo);
        for &esc in &observations {
            let k = pool.observe(esc);
            prop_assert!(k >= lo, "k {k} dipped under the floor {lo}");
            prop_assert!(k <= hi, "k {k} exceeded the ceiling {hi}");
            prop_assert!((0.0..=1.0).contains(&pool.escalation_rate()));
        }
    }

    #[test]
    fn adaptive_pool_never_loses_incumbent_or_pins(
        costs in costs_strategy(24),
        observations in proptest::collection::vec((0u8..2).prop_map(|x| x == 1), 0..60),
        seed in 0u64..500,
    ) {
        use cloudia_solver::{AdaptivePool, AdaptivePoolConfig, CandidateConfig, CandidateSet};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 6usize;
        let p = NodeDeployment::new(
            n,
            (0..n as u32 - 1).map(|i| (i, i + 1)).collect(),
            costs,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let incumbent = p.random_deployment(&mut rng);
        let fixed: Vec<Option<u32>> = incumbent
            .iter()
            .map(|&j| if rng.random::<bool>() { Some(j) } else { None })
            .collect();
        let base = CandidateConfig::adaptive(AdaptivePoolConfig {
            initial: 12,
            ..AdaptivePoolConfig::default()
        });
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 12, ..AdaptivePoolConfig::default() },
            n,
            p.num_instances(),
        );
        // Drive the controller through the whole sequence, checking the
        // effective candidate set at every step — including the fully
        // shrunk endpoint.
        for &esc in observations.iter().chain([false; 40].iter()) {
            pool.observe(esc);
            let cs = CandidateSet::build(&p, &pool.effective(&base), Some(&incumbent), Some(&fixed));
            prop_assert!(cs.union().len() >= n);
            for (v, &j) in incumbent.iter().enumerate() {
                prop_assert!(
                    cs.node_candidates(v).contains(&j),
                    "node {v} lost incumbent {j} at k {}", pool.k()
                );
            }
            for (v, f) in fixed.iter().enumerate() {
                if let Some(j) = f {
                    prop_assert!(
                        cs.node_candidates(v).contains(j),
                        "node {v} lost pin {j} at k {}", pool.k()
                    );
                }
            }
        }
    }
}

/// Arbitrary partial statistics over `m` instances: each directed link is
/// measured with probability `coverage`, with a random mean and sample
/// count.
fn random_partial_stats(
    rng: &mut rand::rngs::StdRng,
    m: usize,
    coverage: f64,
) -> cloudia_measure::PairwiseStats {
    use rand::Rng;
    let mut stats = cloudia_measure::PairwiseStats::new(m);
    for i in 0..m {
        for j in 0..m {
            if i != j && rng.random::<f64>() < coverage {
                let mean = rng.random_range(0.1..5.0);
                for _ in 0..rng.random_range(1..4usize) {
                    stats.record(i, j, mean);
                }
            }
        }
    }
    stats
}

/// The safety rails a mid-sweep prune rule is built with: a random
/// incumbent of `n` distinct instances out of `m`, random pins on it, a
/// few random protected pairs, and the deployed links of a ring over the
/// incumbent (protected pairs normalized `(low, high)`).
struct Guards {
    incumbent: Vec<u32>,
    fixed: Vec<Option<u32>>,
    protected: Vec<(u32, u32)>,
}

impl Guards {
    fn random(rng: &mut rand::rngs::StdRng, n: usize, m: usize) -> Self {
        use rand::Rng;
        let mut ids: Vec<u32> = (0..m as u32).collect();
        for i in 0..n {
            let pick = rng.random_range(i..m);
            ids.swap(i, pick);
        }
        let incumbent: Vec<u32> = ids[..n].to_vec();
        let fixed: Vec<Option<u32>> =
            incumbent.iter().map(|&j| if rng.random::<bool>() { Some(j) } else { None }).collect();
        let mut protected = Vec::new();
        for _ in 0..5 {
            let a = rng.random_range(0..m as u32);
            let b = rng.random_range(0..m as u32);
            if a != b {
                protected.push((a.min(b), a.max(b)));
            }
        }
        for v in 0..n {
            let (a, b) = (incumbent[v], incumbent[(v + 1) % n]);
            protected.push((a.min(b), a.max(b)));
        }
        Self { incumbent, fixed, protected }
    }

    /// A fresh point-quantile rule carrying these guards.
    fn rule(
        &self,
        config: cloudia_solver::CandidateConfig,
        min_coverage: f64,
    ) -> cloudia_solver::CandidatePruneRule {
        let mut rule = cloudia_solver::CandidatePruneRule::new(self.incumbent.len(), config)
            .with_min_coverage(min_coverage)
            .with_incumbent(&self.incumbent)
            .with_fixed(&self.fixed);
        for &(a, b) in &self.protected {
            rule.protect_pair(a, b);
        }
        rule
    }

    /// What the rule must condemn: `build_partial`'s union, then every
    /// remaining unprotected pair with an endpoint outside it.
    fn expected_verdict(
        &self,
        stats: &cloudia_measure::PairwiseStats,
        config: &cloudia_solver::CandidateConfig,
        min_coverage: f64,
        remaining: &[(u32, u32)],
    ) -> Vec<(u32, u32)> {
        if stats.total_samples() == 0 {
            return Vec::new();
        }
        let cs = cloudia_solver::CandidateSet::build_partial(
            self.incumbent.len(),
            stats,
            config,
            Some(&self.incumbent),
            Some(&self.fixed),
            min_coverage,
        );
        if cs.is_exact() {
            return Vec::new();
        }
        remaining
            .iter()
            .copied()
            .filter(|&(a, b)| {
                !self.protected.contains(&(a.min(b), a.max(b)))
                    && (!cs.union().contains(&a) || !cs.union().contains(&b))
            })
            .collect()
    }
}

// The mid-sweep prune rule's safety contract. Whatever
// partial statistics a sweep has accumulated, the rule never condemns a
// protected pair (deployed links, flagged links, staleness refreshes),
// never condemns a pair among incumbent/pinned instances, and only
// condemns pairs with an endpoint provably outside the candidate union.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prune_rule_never_condemns_incumbent_pinned_or_protected_pairs(
        seed in 0u64..1000,
        m in 8usize..24,
        pool_k in 4usize..12,
        coverage in 0.0f64..1.0,
    ) {
        use cloudia_measure::PruneRule;
        use cloudia_solver::{CandidateConfig, CandidatePruneRule, CandidateSet, CiPruneRule};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let n = 5usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = random_partial_stats(&mut rng, m, coverage);
        let guards = Guards::random(&mut rng, n, m);
        let config = CandidateConfig::fixed(pool_k);
        let rule = guards.rule(config, CandidatePruneRule::DEFAULT_MIN_COVERAGE);
        let Guards { incumbent, fixed, protected } = &guards;

        let remaining: Vec<(u32, u32)> =
            (0..m as u32).flat_map(|a| (a + 1..m as u32).map(move |b| (a, b))).collect();
        let condemned = rule.prune(&stats, &remaining);
        prop_assert_eq!(
            &condemned,
            &guards.expected_verdict(&stats, &config, 0.5, &remaining),
            "verdict differs from build_partial + union filtering"
        );

        // Recompute the union the rule must have used.
        let cs = CandidateSet::build_partial(n, &stats, &config, Some(incumbent), Some(fixed), 0.5);
        for &(a, b) in &condemned {
            let key = (a.min(b), a.max(b));
            prop_assert!(!protected.contains(&key), "protected pair {key:?} condemned");
            prop_assert!(
                !(incumbent.contains(&a) && incumbent.contains(&b)),
                "incumbent pair ({a},{b}) condemned"
            );
            prop_assert!(
                !cs.union().contains(&a) || !cs.union().contains(&b),
                "pair ({a},{b}) condemned although both endpoints are candidates"
            );
        }
        // Incumbents and pins are always candidates, whatever the stats.
        for &j in incumbent {
            prop_assert!(cs.union().contains(&j), "incumbent {j} fell out of the union");
        }

        // The CI-evidence rule under the same protections — at any
        // confidence, with or without the indifference margin — obeys
        // the identical contract: protected pairs and incumbent/pinned
        // endpoints are never condemned, whatever the partial evidence.
        let tolerance = if rng.random::<bool>() { 0.05 } else { 0.0 };
        let mut ci_rule = CiPruneRule::new(n, config, 0.95)
            .with_tolerance(tolerance)
            .with_incumbent(incumbent)
            .with_fixed(fixed);
        for &(a, b) in protected {
            ci_rule.protect_pair(a, b);
        }
        for &(a, b) in &ci_rule.prune(&stats, &remaining) {
            let key = (a.min(b), a.max(b));
            prop_assert!(!protected.contains(&key), "protected pair {key:?} CI-condemned");
            prop_assert!(
                !(incumbent.contains(&a) && incumbent.contains(&b)),
                "incumbent pair ({a},{b}) CI-condemned"
            );
        }
    }

    #[test]
    fn long_lived_prune_rule_matches_a_fresh_rule_at_every_stage(
        seed in 0u64..1000,
        m in 8usize..18,
        pool_k in 4usize..10,
        quantile in 0.0f64..1.0,
        min_coverage in 0.0f64..0.8,
        blackout in 0.1f64..0.5,
    ) {
        use cloudia_measure::{MeasureConfig, PruneRule, Scheme, Staged};
        use cloudia_netsim::{Cloud, InstanceId, LossPlane, Provider};
        use cloudia_solver::CandidateConfig;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashSet;

        // The incremental evidence store behind one long-lived rule must
        // reach exactly the verdicts a freshly built rule (and
        // `build_partial` + union filtering) reaches, stage by stage,
        // through a lossy sweep. Blacking out the first sweep's probe
        // direction of random pairs makes them go dark (attempted, never
        // answered) before any pruning can start, so `+∞` prices enter,
        // and later leave, the sorted lists.
        let n = 4usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(m);
        let mut net = cloud.network(&alloc);
        let mut loss = LossPlane::uniform(m, 0.05);
        for a in 0..m {
            for b in a + 1..m {
                if rng.random::<f64>() < blackout {
                    loss.set_drop_prob(InstanceId(a as u32), InstanceId(b as u32), 1.0);
                }
            }
        }
        net.set_loss(loss);
        let guards = Guards::random(&mut rng, n, m);
        let config = CandidateConfig { quantile, ..CandidateConfig::fixed(pool_k) };
        let long_lived = guards.rule(config, min_coverage);

        // Three sweeps: the third re-measures the first's directions, so
        // cached prices move (removal and re-insertion), not just arrive.
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let mut driver = Staged::new(2, 3).driver(&net, &cfg, cloudia_measure::PairwiseStats::new(m));
        let mut saw_dark = false;
        let mut history = Vec::new();
        loop {
            let stats = driver.stats();
            history.push(stats.clone());
            saw_dark |= (0..m).any(|i| {
                (0..m).any(|j| i != j && stats.link(i, j).count() == 0 && stats.link(i, j).attempts() > 0)
            });
            let remaining = driver.remaining_pairs();
            if stats.total_samples() > 0 && !remaining.is_empty() {
                let got = long_lived.prune(stats, &remaining);
                let fresh = guards.rule(config, min_coverage).prune(stats, &remaining);
                prop_assert_eq!(&got, &fresh, "long-lived rule diverged from a fresh one");
                prop_assert_eq!(
                    &got,
                    &guards.expected_verdict(stats, &config, min_coverage, &remaining),
                    "verdict differs from build_partial + union filtering"
                );
                let drop: HashSet<(u32, u32)> = got.into_iter().collect();
                driver.retain_pairs(&mut |a, b| !drop.contains(&(a, b)));
            }
            if !driver.step() {
                break;
            }
        }
        prop_assert!(saw_dark, "the lossy sweep produced no dark link");

        // Cache invalidation. Rewinding to earlier states of the same
        // sweep makes links *lose* evidence — a few per stage, below the
        // bulk-refill threshold, both on well-covered rows (late stages)
        // and on sparse ones (stages 3, 2, 1); then two unrelated stats
        // objects with the same m, then a different m.
        let all = |m: usize| -> Vec<(u32, u32)> {
            (0..m as u32).flat_map(|a| (a + 1..m as u32).map(move |b| (a, b))).collect()
        };
        let last = history.len() - 1;
        for at in [last - 1, last - 4, last, 3, 2, 1] {
            prop_assert_eq!(
                long_lived.prune(&history[at], &all(m)),
                guards.rule(config, min_coverage).prune(&history[at], &all(m)),
                "stale evidence leaked when rewinding to stage {}", at
            );
        }
        for other_m in [m, m, m + 3] {
            let coverage = rng.random_range(0.3..1.0);
            let stats = random_partial_stats(&mut rng, other_m, coverage);
            let remaining = all(other_m);
            prop_assert_eq!(
                long_lived.prune(&stats, &remaining),
                guards.rule(config, min_coverage).prune(&stats, &remaining),
                "stale evidence leaked across stats objects (m {} -> {})", m, other_m
            );
        }
    }

    #[test]
    fn anytime_early_stop_preserves_subsequent_condemnation(
        m in 8usize..14,
        seed in 0u64..200,
    ) {
        use cloudia_measure::{run_anytime, MeasureConfig, PairwiseStats, PruneRule, Scheme, Staged};
        use cloudia_netsim::{Cloud, Provider};
        use cloudia_solver::{CandidateConfig, CandidatePruneRule, CiPruneRule, CiStopRule};

        // Isolate the *early stop*: pruning is disabled, so the only way
        // the anytime run differs from the full run is the stop cutting
        // the tail of the schedule.
        struct KeepAll;
        impl PruneRule for KeepAll {
            fn prune(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> Vec<(u32, u32)> {
                Vec::new()
            }
        }

        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(m);
        let net = cloud.network(&alloc);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let scheme = Staged::new(2, 3);
        let nodes = 4usize;
        let pool = CandidateConfig::fixed((m / 2).max(nodes + 1));

        let full = scheme.run_onto(&net, &cfg, PairwiseStats::new(m));
        // min_coverage 1.0: the stop may not fire until every incident
        // direction of every instance is measured; the indifference
        // margin lets near-tied clusters settle so it can actually fire.
        let ci = CiPruneRule::new(nodes, pool, 0.95)
            .with_min_coverage(1.0)
            .with_tolerance(0.05);
        let stop = CiStopRule::new(ci);
        let any = run_anytime(&scheme, &net, &cfg, PairwiseStats::new(m), &KeepAll, &stop);
        prop_assert!(any.report.round_trips <= full.round_trips);

        // On a jitter-free network every sample equals the link's exact
        // cost and the stop cannot fire before full coverage, so however
        // early it truncated the schedule, the point-quantile rule must
        // reach identical condemnation verdicts afterwards.
        let post = CandidatePruneRule::new(nodes, pool);
        let remaining: Vec<(u32, u32)> =
            (0..m as u32).flat_map(|a| (a + 1..m as u32).map(move |b| (a, b))).collect();
        let mut from_full = post.prune(&full.stats, &remaining);
        let mut from_any = post.prune(&any.report.stats, &remaining);
        from_full.sort_unstable();
        from_any.sort_unstable();
        prop_assert_eq!(from_full, from_any);
    }

    #[test]
    fn columnar_build_partial_matches_the_aos_reference(
        seed in 0u64..1000,
        m in 4usize..28,
        pool_k in 2usize..10,
        coverage in 0.0f64..1.0,
        dark in 0.0f64..0.3,
        min_coverage in 0.0f64..1.0,
    ) {
        use cloudia_measure::stats::aos;
        use cloudia_measure::PairwiseStats;
        use cloudia_solver::{CandidateConfig, CandidateSet};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        // The column-streaming pool builder must pick the exact same
        // pool as the retained array-of-structs walk — including dark
        // links (attempted, never answered) and coverage-forced
        // instances — for any partial measurement state.
        let n = 4usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut soa = PairwiseStats::new(m);
        let mut oracle = aos::PairwiseStats::new(m);
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                let roll = rng.random::<f64>();
                if roll < dark {
                    // Dark direction: attempts and timeouts, no sample.
                    for _ in 0..rng.random_range(1..4usize) {
                        soa.record_attempt(i, j);
                        oracle.record_attempt(i, j);
                        soa.record_timeout(i, j);
                        oracle.record_timeout(i, j);
                    }
                } else if roll < dark + coverage * (1.0 - dark) {
                    let mean = rng.random_range(0.1..5.0);
                    for _ in 0..rng.random_range(1..4usize) {
                        soa.record_attempt(i, j);
                        oracle.record_attempt(i, j);
                        soa.record(i, j, mean);
                        oracle.record(i, j, mean);
                    }
                }
            }
        }
        let incumbent: Vec<u32> = (0..n as u32).collect();
        let config = CandidateConfig::fixed(pool_k);
        let a = CandidateSet::build_partial(
            n, &soa, &config, Some(&incumbent), None, min_coverage,
        );
        let b = CandidateSet::build_partial_reference(
            n, &oracle, &config, Some(&incumbent), None, min_coverage,
        );
        prop_assert_eq!(a.union(), b.union(), "candidate unions diverged");
        for v in 0..n {
            prop_assert_eq!(
                a.node_candidates(v), b.node_candidates(v),
                "node {} candidate list diverged", v
            );
        }
    }
}
