//! Criterion micro-benchmarks for the pinned solver hot kernels, plus two
//! self-checking races. With `--bench` the run also asserts that:
//!
//! * the branch-reduced [`cloudia_solver::kernels::scan_row_evidence`]
//!   sweep beats the scalar per-element walk it replaced on a realistic
//!   sparse row shape (m = 10000, ~8 hits per row);
//! * after one stage's worth of changed links, the long-lived
//!   [`CandidatePruneRule`]'s incremental refresh + score reaches the
//!   pool [`CandidateSet::build_partial`] builds from scratch, and
//!   beats it, at m = 120 (fully measured, the `online-drift` shape)
//!   and m = 2000 (64 ring neighbours per instance, an early partial
//!   sweep).
//!
//! The assertions keep the hot paths honest across PRs — a refactor that
//! quietly re-introduces the per-element branches, or rebuilds the pool
//! from scratch every stage, fails the bench run, not just a profile.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use cloudia_measure::{PairwiseStats, PruneRule, Staged};
use cloudia_solver::kernels::scan_row_evidence;
use cloudia_solver::{CandidateConfig, CandidatePruneRule, CandidateSet};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The pre-kernel scalar walk, transcribed from the old `build_partial`
/// inner loop: one bounds-checked branch chain per element, including
/// the `dst != src` diagonal test the kernel dropped (the stats plane
/// guarantees a structurally-zero diagonal).
fn scalar_walk(
    src: usize,
    row_count: &[u64],
    row_att: &[u64],
    mut on_hit: impl FnMut(usize, bool),
) {
    for dst in 0..row_count.len() {
        if dst != src && (row_count[dst] > 0 || row_att[dst] > 0) {
            on_hit(dst, row_count[dst] > 0);
        }
    }
}

/// Sparse evidence rows: `hits` observed links and `hits / 4` dark
/// (attempted-only) links scattered uniformly over `m` columns.
fn sparse_rows(m: usize, rows: usize, hits: usize, seed: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let mut count = vec![0u64; m];
            let mut att = vec![0u64; m];
            for _ in 0..hits {
                let dst = rng.random_range(0..m);
                count[dst] += 1;
                att[dst] += 1;
            }
            for _ in 0..hits / 4 {
                att[rng.random_range(0..m)] += 1;
            }
            (count, att)
        })
        .collect()
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_row_evidence");
    for &m in &[1_000usize, 10_000] {
        let rows = sparse_rows(m, 16, 8, 7);
        group.bench_with_input(BenchmarkId::new("kernel", m), &rows, |b, rows| {
            b.iter(|| {
                let mut acc = 0usize;
                for (count, att) in rows {
                    scan_row_evidence(count, att, |dst, observed| {
                        acc += dst + observed as usize;
                    });
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("scalar", m), &rows, |b, rows| {
            b.iter(|| {
                let mut acc = 0usize;
                for (count, att) in rows {
                    scalar_walk(0, count, att, |dst, observed| {
                        acc += dst + observed as usize;
                    });
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(kernels, bench_scan);

/// Timed assertion arm: the kernel must beat the scalar walk. Uses a
/// plain `Instant` race (not criterion statistics) so it can fail the
/// process with a clear message.
fn assert_kernel_wins() {
    let m = 10_000usize;
    let rows = sparse_rows(m, 64, 8, 11);
    let reps = 200usize;
    let race = |f: &dyn Fn(&[u64], &[u64]) -> usize| {
        // Warm the cache once, then time.
        let mut acc = 0usize;
        for (count, att) in &rows {
            acc += f(count, att);
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for (count, att) in &rows {
                acc += f(count, att);
            }
        }
        (t0.elapsed().as_secs_f64(), black_box(acc))
    };
    let (kernel_s, kernel_acc) = race(&|count, att| {
        let mut acc = 0usize;
        scan_row_evidence(count, att, |dst, observed| acc += dst + observed as usize);
        acc
    });
    let (scalar_s, scalar_acc) = race(&|count, att| {
        let mut acc = 0usize;
        scalar_walk(m, count, att, |dst, observed| acc += dst + observed as usize);
        acc
    });
    assert_eq!(kernel_acc, scalar_acc, "kernel visited different evidence than the scalar walk");
    let speedup = scalar_s / kernel_s.max(1e-12);
    println!("# kernel race: scalar {scalar_s:.4}s, kernel {kernel_s:.4}s, speedup {speedup:.2}x");
    assert!(
        kernel_s < scalar_s,
        "scan_row_evidence ({kernel_s:.4}s) must beat the scalar walk ({scalar_s:.4}s)"
    );
}

/// Timed assertion arm: stage by stage, the long-lived prune rule's
/// incremental refresh + score must condemn exactly what a from-scratch
/// `build_partial` pool implies, and take less time doing it.
fn assert_incremental_prune_wins() {
    for (m, neighbours, pool) in [(120usize, 119usize, 40usize), (2_000, 64, 64)] {
        let mut rng = StdRng::seed_from_u64(m as u64);
        let mut stats = PairwiseStats::new(m);
        for j in 0..m {
            for d in 1..=neighbours {
                let l = (j + d) % m;
                stats.record_attempt(j, l);
                if (j + d) % 29 == 0 {
                    continue; // dark: attempted, never answered
                }
                stats.record(j, l, rng.random_range(0.2..2.0));
            }
        }
        let nodes = 25;
        let incumbent: Vec<u32> = (0..nodes as u32).collect();
        let config = CandidateConfig::fixed(pool);
        let rule = CandidatePruneRule::new(nodes, config)
            .with_min_coverage(0.0)
            .with_incumbent(&incumbent);
        // Instance 0 is an incumbent, so `(0, j)` is condemned exactly
        // when `j` left the candidate union.
        let remaining: Vec<(u32, u32)> = (1..m as u32).map(|j| (0, j)).collect();
        black_box(rule.prune(&stats, &remaining)); // the cold fill, untimed
        let (mut incremental_s, mut scratch_s) = (0.0f64, 0.0f64);
        let stages = 40;
        for r in 0..stages {
            // One stage's worth of changed links: a circle-method round,
            // one fresh sample per pair.
            for (a, b) in Staged::circle_pairs(m, r) {
                stats.record_attempt(a, b);
                stats.record(a, b, rng.random_range(0.2..2.0));
            }
            let t0 = Instant::now();
            let condemned = rule.prune(&stats, &remaining);
            incremental_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let set =
                CandidateSet::build_partial(nodes, &stats, &config, Some(&incumbent), None, 0.0);
            scratch_s += t0.elapsed().as_secs_f64();
            let expected: Vec<(u32, u32)> = remaining
                .iter()
                .copied()
                .filter(|&(_, j)| set.union().binary_search(&j).is_err())
                .collect();
            assert_eq!(condemned, expected, "m {m}, stage {r}: incremental pool diverged");
        }
        let speedup = scratch_s / incremental_s.max(1e-12);
        println!(
            "# prune race m={m}: build_partial {:.1}us/stage, incremental {:.1}us/stage, \
             speedup {speedup:.2}x",
            scratch_s / stages as f64 * 1e6,
            incremental_s / stages as f64 * 1e6
        );
        assert!(
            incremental_s < scratch_s,
            "m {m}: incremental refresh ({incremental_s:.4}s) must beat build_partial \
             from scratch ({scratch_s:.4}s)"
        );
    }
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test` passes `--test` (the
    // criterion shim then runs each body exactly once). The timed
    // assertion only runs under a real bench invocation — a single-shot
    // test-mode sample is too noisy to gate on.
    kernels();
    if std::env::args().any(|a| a == "--bench") {
        assert_kernel_wins();
        assert_incremental_prune_wins();
    }
}
