//! The point-quantile prune-evidence engine: per-instance lists of
//! incident link prices, shared by [`crate::CandidateSet::build_partial`]
//! (one cold fill per call) and [`crate::CandidatePruneRule`] (one cold
//! fill per sweep, then incremental refreshes between stages).
//!
//! A directed link's **price** is its measured mean once it has a sample,
//! `+∞` when it was attempted but never answered (a dark link under loss
//! is evidence of uncompetitiveness, not a coverage gap), and no evidence
//! at all otherwise. An instance's pool score is the configured quantile
//! of the prices incident to it (both directions); its coverage is how
//! many of its `2(m−1)` incident directions carry a price.
//!
//! Keeping each instance's incident prices sorted in [`f64::total_cmp`]
//! order turns the quantile into an index and the coverage into a
//! length, so a mid-sweep refresh only has to move the prices of the
//! links a stage actually changed — O(changed · m) memmoves instead of
//! an O(m²) rebuild with a selection per instance.

use cloudia_measure::PairwiseStats;

/// Cached price bits of a link with no evidence. A NaN payload that no
/// mean of finite round-trip samples can take.
const NO_EVIDENCE: u64 = u64::MAX;

/// A refresh that sees more than `m² / REFILL_DIVISOR` changed links
/// rebuilds from scratch: past that point one bulk fill beats the
/// per-link sorted insertions.
const REFILL_DIVISOR: usize = 8;

/// A source row with more than `m / DENSE_ROW` cached prices is compared
/// link by link instead of through the sparse chunk-skipping scan.
const DENSE_ROW: usize = 4;

/// The price bits of one directed link from its count, attempt, and mean
/// columns.
#[inline]
fn price_bits(count: u64, attempts: u64, mean: f64) -> u64 {
    if count > 0 {
        mean.to_bits()
    } else if attempts > 0 {
        f64::INFINITY.to_bits()
    } else {
        NO_EVIDENCE
    }
}

/// Per-instance incident prices. **Tracked** (refreshed incrementally),
/// the store also caches every link's price and keeps each list sorted
/// ascending in [`f64::total_cmp`] order; **one-shot** (a cold fill for a
/// single pool), the lists stay unsorted.
///
/// Instance `j`'s list lives in `flat[start[j]..start[j] + len[j]]`; its
/// capacity is `start[j + 1] - start[j]`. A one-shot fill sizes every
/// capacity to the list exactly; a tracked fill reserves the full
/// `2(m−1)` directions so a refresh never has to re-lay the buffer out.
#[derive(Debug, Clone, Default)]
pub(crate) struct PointEvidence {
    m: usize,
    /// Price bits of every directed link (`src * m + dst`) as last seen;
    /// empty unless tracked.
    price: Vec<u64>,
    /// Number of links with a cached price in each source row; empty
    /// unless tracked.
    row_priced: Vec<u32>,
    start: Vec<usize>,
    len: Vec<u32>,
    flat: Vec<f64>,
    /// Reused buffer of the links whose price changed in a refresh.
    changed: Vec<usize>,
}

impl PointEvidence {
    /// A one-shot fill from `stats`: unsorted lists, no price cache.
    pub(crate) fn cold(stats: &PairwiseStats) -> Self {
        let mut evidence = Self::default();
        evidence.fill(stats, false);
        evidence
    }

    /// Brings the tracked lists in line with `stats`. Every directed
    /// link's price is recomputed from the columns and compared, bit for
    /// bit, with the cached one; only links that differ move. The cache
    /// is a pure function of the columns, so any sequence of stats
    /// objects is handled correctly — shrinking, unrelated, or of
    /// another size (which refills from scratch).
    ///
    /// Well-covered rows are compared link by link. Sparse rows ride the
    /// same chunked row scan as a cold fill
    /// ([`crate::kernels::scan_row_evidence`]), so links without evidence
    /// cost what they cost there; a link can also *lose* its evidence
    /// (a stats object that is not a later state of the last one), which
    /// a per-row count of cached prices catches, and only such a row is
    /// then compared in full.
    pub(crate) fn refresh(&mut self, stats: &PairwiseStats) {
        let m = stats.len();
        if m != self.m || self.price.len() != m * m {
            self.fill(stats, true);
            return;
        }
        let (count, mean, attempts) =
            (stats.count_column(), stats.mean_column(), stats.attempts_column());
        let Self { price, row_priced, changed, .. } = self;
        changed.clear();
        for src in 0..m {
            let row = src * m;
            if row_priced[src] as usize * DENSE_ROW > m {
                // A well-covered row: most links are priced, so a plain
                // compare of every link beats skipping empty chunks.
                let cols = count[row..row + m].iter().zip(&attempts[row..row + m]);
                for (dst, ((&c, &a), (&mu, &cached))) in
                    cols.zip(mean[row..row + m].iter().zip(&price[row..row + m])).enumerate()
                {
                    if price_bits(c, a, mu) != cached {
                        changed.push(row + dst);
                    }
                }
                continue;
            }
            let mut still_priced = 0u32;
            crate::kernels::scan_row_evidence(
                &count[row..row + m],
                &attempts[row..row + m],
                |dst, observed| {
                    let i = row + dst;
                    let new = if observed { mean[i].to_bits() } else { f64::INFINITY.to_bits() };
                    still_priced += u32::from(price[i] != NO_EVIDENCE);
                    if new != price[i] {
                        changed.push(i);
                    }
                },
            );
            if still_priced != row_priced[src] {
                for i in row..row + m {
                    if price[i] != NO_EVIDENCE && count[i] | attempts[i] == 0 {
                        changed.push(i);
                    }
                }
            }
        }
        if changed.len() > m * m / REFILL_DIVISOR {
            self.fill(stats, true);
            return;
        }
        for k in 0..self.changed.len() {
            let i = self.changed[k];
            let (src, dst) = (i / m, i % m);
            let (old, new) = (self.price[i], price_bits(count[i], attempts[i], mean[i]));
            if old != NO_EVIDENCE {
                self.remove(src, old);
                self.remove(dst, old);
                self.row_priced[src] -= 1;
            }
            if new != NO_EVIDENCE {
                self.insert(src, new);
                self.insert(dst, new);
                self.row_priced[src] += 1;
            }
            self.price[i] = new;
        }
    }

    /// Rebuilds every list from `stats` in bulk: one row-major sweep over
    /// the flat count/attempt columns collects each priced link once
    /// (no strided per-instance column walk, which is cache-hostile at
    /// m ≥ 10k), and a CSR scatter feeds both endpoints' lists. With
    /// `track` the per-link price cache is filled too, every list gets
    /// its full `2(m−1)` capacity, and each list is sorted once; a
    /// one-shot fill leaves the lists unsorted, and [`PointEvidence::pool`]
    /// selects each quantile in place instead (O(d), not O(d log d)).
    fn fill(&mut self, stats: &PairwiseStats, track: bool) {
        let m = stats.len();
        let count = stats.count_column();
        let mean = stats.mean_column();
        let attempts = stats.attempts_column();
        let mut deg = vec![0usize; m];
        let mut hits: Vec<(u32, u32, f64)> = Vec::new();
        for src in 0..m {
            let row = src * m;
            let row_mean = &mean[row..row + m];
            crate::kernels::scan_row_evidence(
                &count[row..row + m],
                &attempts[row..row + m],
                |dst, observed| {
                    let price = if observed { row_mean[dst] } else { f64::INFINITY };
                    hits.push((src as u32, dst as u32, price));
                    deg[src] += 1;
                    deg[dst] += 1;
                },
            );
        }
        let full = 2 * m.saturating_sub(1);
        self.start.clear();
        self.start.push(0);
        for &d in &deg {
            let last = *self.start.last().expect("start is seeded");
            self.start.push(last + if track { full } else { d });
        }
        // A fresh zeroed buffer, not a resize: untouched capacity stays
        // lazily mapped.
        self.flat = vec![0.0; self.start[m]];
        self.len = vec![0; m];
        self.price = if track { vec![NO_EVIDENCE; m * m] } else { Vec::new() };
        self.row_priced = if track { vec![0; m] } else { Vec::new() };
        for &(src, dst, price) in &hits {
            for end in [src as usize, dst as usize] {
                self.flat[self.start[end] + self.len[end] as usize] = price;
                self.len[end] += 1;
            }
            if track {
                self.price[src as usize * m + dst as usize] = price.to_bits();
                self.row_priced[src as usize] += 1;
            }
        }
        if track {
            for j in 0..m {
                self.list_mut(j).sort_unstable_by(f64::total_cmp);
            }
        }
        self.m = m;
    }

    fn list_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.flat[self.start[j]..self.start[j] + self.len[j] as usize]
    }

    /// Removes one occurrence of the price `bits` from instance `j`'s
    /// list. `total_cmp` equality is bit equality, so any match is the
    /// cached price itself.
    fn remove(&mut self, j: usize, bits: u64) {
        let v = f64::from_bits(bits);
        let list = self.list_mut(j);
        let pos = list.binary_search_by(|x| x.total_cmp(&v)).expect("cached price is listed");
        list.copy_within(pos + 1.., pos);
        self.len[j] -= 1;
    }

    /// Inserts the price `bits` into instance `j`'s list, keeping it
    /// sorted. Tracked lists have room for every incident direction.
    fn insert(&mut self, j: usize, bits: u64) {
        let v = f64::from_bits(bits);
        let (s, n) = (self.start[j], self.len[j] as usize);
        debug_assert!(s + n < self.start[j + 1], "incident list over capacity");
        let slot = &mut self.flat[s..=s + n];
        let pos = slot[..n].partition_point(|x| x.total_cmp(&v).is_lt());
        slot.copy_within(pos..n, pos + 1);
        slot[pos] = v;
        self.len[j] += 1;
    }

    /// The candidate pool of `pool_size < m` instances: every instance
    /// whose incident coverage is below `min_coverage` (it cannot be
    /// proven uncompetitive) plus the `pool_size` cheapest by the
    /// `quantile` of their incident prices, ties broken by id. Sorted
    /// ascending.
    ///
    /// # Panics
    /// Panics if `quantile` is outside `[0, 1]`.
    pub(crate) fn pool(&mut self, pool_size: usize, quantile: f64, min_coverage: f64) -> Vec<u32> {
        assert!((0.0..=1.0).contains(&quantile), "quantile must be in [0, 1]");
        let (m, sorted) = (self.m, !self.price.is_empty());
        let directions = (2 * (m - 1)) as f64;
        let mut forced: Vec<u32> = Vec::new();
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for j in 0..m {
            let incident = self.list_mut(j);
            if incident.is_empty() || (incident.len() as f64 / directions) < min_coverage {
                // Not enough evidence to exclude this instance.
                forced.push(j as u32);
            } else {
                let idx = ((incident.len() - 1) as f64 * quantile).round() as usize;
                let q = if sorted {
                    incident[idx]
                } else {
                    *incident.select_nth_unstable_by(idx, f64::total_cmp).1
                };
                scored.push((q, j as u32));
            }
        }
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let take = pool_size.min(scored.len());
        let mut pool = forced;
        pool.extend(scored[..take].iter().map(|&(_, j)| j));
        pool.sort_unstable();
        pool
    }
}
