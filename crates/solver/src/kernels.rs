//! Pinned hot-loop kernels for the candidate-scoring sweeps.
//!
//! The m ≥ 10k pool builders ([`crate::CandidateSet::build_partial`],
//! the incremental refresh behind [`crate::CandidatePruneRule`], and the
//! CI scorer `CiScores::build` behind [`crate::CiPruneRule`]) spend their
//! time in one scan: walk a 100k-entry row of the count and attempt
//! columns and collect the handful of observed links. The natural loop
//! carries two branches per element (`dst != src`, then the evidence
//! test) and its autovectorization is at the compiler's mercy; on
//! sparse partial sweeps (k·m observed links out of m²) almost every
//! element is zero, so the loop is really a *scan for rare nonzeros*.
//!
//! [`scan_row_evidence`] pins that shape explicitly, in plain stable
//! Rust (no `std::simd`, no intrinsics): process the row in 4-wide
//! chunks, OR the four count lanes and four attempt lanes into one
//! word, and skip the whole chunk on zero — one compare per four
//! elements on the sparse fast path, and `chunks_exact` gives LLVM
//! bounds-check-free slices it reliably lifts into SIMD compares. The
//! diagonal branch is gone entirely: the columns are indexed
//! `src * m + dst` with the diagonal structurally unwritten (every
//! recording path asserts `src != dst`), so `row[src]` is always zero
//! and the evidence test subsumes it. The `kernel_bench` criterion
//! bench races this kernel against a transcription of the old scalar
//! walk and asserts it wins.

/// Calls `on_hit(dst, observed)` for every destination in one source row
/// whose directed link carries evidence: `observed = true` when the link
/// has at least one completed sample (`row_count[dst] > 0`), `false`
/// when it was only ever attempted (dark under loss). Destinations are
/// visited in ascending order, exactly like the scalar walk.
///
/// Contract: `row_count` and `row_att` are the same length (one source's
/// slice of the `src * m + dst`-indexed columns), and the diagonal entry
/// is zero in both — guaranteed by the stats plane, which rejects
/// `src == dst` on every recording path — so no `dst != src` test is
/// needed or performed.
#[inline]
pub fn scan_row_evidence(row_count: &[u64], row_att: &[u64], mut on_hit: impl FnMut(usize, bool)) {
    debug_assert_eq!(row_count.len(), row_att.len());
    const LANES: usize = 4;
    let chunks = row_count.len() / LANES * LANES;
    for (base, (c4, a4)) in row_count[..chunks]
        .chunks_exact(LANES)
        .zip(row_att[..chunks].chunks_exact(LANES))
        .enumerate()
        .map(|(i, ca)| (i * LANES, ca))
    {
        // One OR-tree per chunk: on a sparse row this single compare
        // rejects all four lanes at once.
        if (c4[0] | c4[1] | c4[2] | c4[3] | a4[0] | a4[1] | a4[2] | a4[3]) == 0 {
            continue;
        }
        for lane in 0..LANES {
            if c4[lane] | a4[lane] != 0 {
                on_hit(base + lane, c4[lane] > 0);
            }
        }
    }
    for dst in chunks..row_count.len() {
        if row_count[dst] | row_att[dst] != 0 {
            on_hit(dst, row_count[dst] > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-kernel scalar walk, kept as the oracle.
    fn scalar(row_count: &[u64], row_att: &[u64], src: usize) -> Vec<(usize, bool)> {
        let mut out = Vec::new();
        for dst in 0..row_count.len() {
            if dst != src && (row_count[dst] > 0 || row_att[dst] > 0) {
                out.push((dst, row_count[dst] > 0));
            }
        }
        out
    }

    fn collect(row_count: &[u64], row_att: &[u64]) -> Vec<(usize, bool)> {
        let mut out = Vec::new();
        scan_row_evidence(row_count, row_att, |dst, observed| out.push((dst, observed)));
        out
    }

    #[test]
    fn matches_the_scalar_walk_on_random_sparse_rows() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for m in [1usize, 2, 3, 4, 5, 7, 8, 64, 127, 1000] {
            for _ in 0..20 {
                let src = rng.random_range(0..m);
                let mut count = vec![0u64; m];
                let mut att = vec![0u64; m];
                for _ in 0..rng.random_range(0..=m / 2 + 1) {
                    let dst = rng.random_range(0..m);
                    if dst == src {
                        continue; // the stats plane never writes the diagonal
                    }
                    att[dst] += 1;
                    if rng.random::<f64>() < 0.7 {
                        count[dst] += 1;
                    }
                }
                assert_eq!(collect(&count, &att), scalar(&count, &att, src), "m {m} src {src}");
            }
        }
    }

    #[test]
    fn dark_links_report_unobserved() {
        let count = [0u64, 0, 0, 2, 0, 0];
        let att = [0u64, 3, 0, 2, 0, 1];
        assert_eq!(collect(&count, &att), vec![(1, false), (3, true), (5, false)]);
    }

    #[test]
    fn empty_and_all_zero_rows_yield_nothing() {
        assert_eq!(collect(&[], &[]), vec![]);
        assert_eq!(collect(&[0; 129], &[0; 129]), vec![]);
    }
}
