//! The prune-evidence engine: per-instance lists of incident link
//! prices, and the one verdict function that turns them into candidate
//! pool standings. [`crate::CandidateSet::build_partial`] uses it for one
//! cold fill per call; [`crate::CandidatePruneRule`] and
//! [`crate::CiStopRule`] fill it once per sweep and then refresh it
//! incrementally between stages.
//!
//! A directed link's **price** depends on the store's [`Pricing`]: its
//! measured mean (point mode), or the lower or upper bound of its
//! t-interval (CI mode; a one-sample link's interval is `[0, +∞]`). A link
//! attempted but never answered prices at `+∞` under every pricing (a dark
//! link under loss is evidence of uncompetitiveness, not a coverage gap);
//! a link never attempted carries no evidence. An instance's score is the
//! configured quantile of the prices incident to it (both directions);
//! its coverage is how many of its `2(m−1)` incident directions carry a
//! price.
//!
//! Keeping each instance's incident prices sorted in [`f64::total_cmp`]
//! order turns the quantile into an index and the coverage into a
//! length, so a mid-sweep refresh only has to move the prices of the
//! links a stage actually changed — O(changed · m) memmoves instead of
//! an O(m²) rebuild with a selection per instance.
//!
//! [`Evidence`] pairs an optimistic with a pessimistic store: CI mode
//! prices the two by interval lower and upper bounds, point mode uses one
//! mean-priced store as both, so the point rule is the CI rule with
//! zero-width intervals.

use cloudia_measure::{t_critical, LinkCi, PairwiseStats};

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

/// Sample counts up to this bound look their t critical value up in a
/// per-store table; larger ones compute it.
const CRITICAL_TABLE: u64 = 4096;

/// How a store prices a directed link that has samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) enum Pricing {
    /// The measured mean.
    #[default]
    Mean,
    /// The lower bound of the link's t-interval at this confidence.
    Lower(f64),
    /// The upper bound of the link's t-interval at this confidence.
    Upper(f64),
}

/// The mean-priced bits of one directed link from its count, attempt,
/// and mean columns.
#[inline]
fn mean_bits(count: u64, attempts: u64, mean: f64) -> u64 {
    if count > 0 {
        mean.to_bits()
    } else if attempts > 0 {
        f64::INFINITY.to_bits()
    } else {
        NO_EVIDENCE
    }
}

/// Prices links straight from the stats columns.
struct Pricer<'a> {
    pricing: Pricing,
    stats: &'a PairwiseStats,
    /// t critical values by sample count (entries below 2 unused).
    critical: &'a mut Vec<f64>,
}

impl Pricer<'_> {
    /// The price bits of link `i`, or [`NO_EVIDENCE`].
    #[inline]
    fn bits(&mut self, i: usize) -> u64 {
        let (count, attempts) = (self.stats.count_column()[i], self.stats.attempts_column()[i]);
        if count | attempts == 0 {
            NO_EVIDENCE
        } else {
            self.evidenced(i, count > 0)
        }
    }

    /// The price bits of link `i`, which has evidence: samples when
    /// `observed`, attempts alone (a dark link) otherwise.
    #[inline]
    fn evidenced(&mut self, i: usize, observed: bool) -> u64 {
        let s = self.stats;
        let confidence = match self.pricing {
            _ if !observed => return f64::INFINITY.to_bits(),
            Pricing::Mean => return s.mean_column()[i].to_bits(),
            Pricing::Lower(c) | Pricing::Upper(c) => c,
        };
        let count = s.count_column()[i];
        let t = self.critical(confidence, count);
        let ci = LinkCi::with_critical(
            count,
            s.mean_column()[i],
            s.m2_column()[i],
            s.attempts_column()[i],
            s.timeouts_column()[i],
            confidence,
            t,
        );
        let bound = if matches!(self.pricing, Pricing::Lower(_)) { ci.lower() } else { ci.upper() };
        bound.to_bits()
    }

    fn critical(&mut self, confidence: f64, count: u64) -> f64 {
        if count < 2 {
            return f64::INFINITY;
        }
        if count > CRITICAL_TABLE {
            return t_critical(confidence, count - 1);
        }
        while self.critical.len() <= count as usize {
            let c = self.critical.len() as u64;
            self.critical.push(if c < 2 { f64::INFINITY } else { t_critical(confidence, c - 1) });
        }
        self.critical[count as usize]
    }
}

/// Per-instance incident prices under one [`Pricing`]. **Tracked**
/// (refreshed incrementally), the store also caches every link's price
/// and keeps each list sorted ascending in [`f64::total_cmp`] order;
/// **one-shot** (a cold fill for a single pool), the lists stay unsorted.
///
/// Instance `j`'s list lives in `flat[start[j]..start[j] + len[j]]`; its
/// capacity is `start[j + 1] - start[j]`. A one-shot fill sizes every
/// capacity to the list exactly; a tracked fill reserves the full
/// `2(m−1)` directions so a refresh never has to re-lay the buffer out.
#[derive(Debug, Clone, Default)]
struct Incident {
    pricing: Pricing,
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
    /// Reused buffer of the links whose price changed in a refresh,
    /// with their new price bits.
    changed: Vec<(usize, u64)>,
    /// The [`PairwiseStats::version`] the tracked lists reflect.
    seen: Option<(u64, u64)>,
    critical: Vec<f64>,
}

impl Incident {
    fn new(pricing: Pricing) -> Self {
        Self { pricing, ..Self::default() }
    }

    /// Brings the tracked lists in line with `stats`. Every directed
    /// link's price is recomputed from the columns and compared, bit for
    /// bit, with the cached one; only links that differ move. The cache
    /// is a pure function of the columns, so any sequence of stats
    /// objects is handled correctly — shrinking, unrelated, or of
    /// another size (which refills from scratch) — and statistics whose
    /// version is unchanged since the last refresh cost nothing.
    ///
    /// Well-covered rows are compared link by link. Sparse rows ride the
    /// same chunked row scan as a cold fill
    /// ([`crate::kernels::scan_row_evidence`]), so links without evidence
    /// cost what they cost there; a link can also *lose* its evidence
    /// (a stats object that is not a later state of the last one), which
    /// a per-row count of cached prices catches, and only such a row is
    /// then compared in full.
    fn refresh(&mut self, stats: &PairwiseStats) {
        let m = stats.len();
        if m != self.m || self.price.len() != m * m {
            self.fill(stats, true);
            return;
        }
        if self.seen == Some(stats.version()) {
            return;
        }
        let Self { pricing, price, row_priced, changed, critical, .. } = self;
        let mut pricer = Pricer { pricing: *pricing, stats, critical };
        let (count, mean, attempts) =
            (stats.count_column(), stats.mean_column(), stats.attempts_column());
        changed.clear();
        for src in 0..m {
            let row = src * m;
            if row_priced[src] as usize * DENSE_ROW > m {
                // A well-covered row: most links are priced, so a plain
                // compare of every link beats skipping empty chunks. Mean
                // prices take the branch-light zipped walk.
                let cached = &price[row..row + m];
                if *pricing == Pricing::Mean {
                    let cols = count[row..row + m].iter().zip(&attempts[row..row + m]);
                    for (dst, ((&c, &a), (&mu, &old))) in
                        cols.zip(mean[row..row + m].iter().zip(cached)).enumerate()
                    {
                        let new = mean_bits(c, a, mu);
                        if new != old {
                            changed.push((row + dst, new));
                        }
                    }
                } else {
                    for (i, &old) in (row..row + m).zip(cached) {
                        let new = pricer.bits(i);
                        if new != old {
                            changed.push((i, new));
                        }
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
                    still_priced += u32::from(price[i] != NO_EVIDENCE);
                    let new = pricer.evidenced(i, observed);
                    if new != price[i] {
                        changed.push((i, new));
                    }
                },
            );
            if still_priced != row_priced[src] {
                for i in row..row + m {
                    if price[i] != NO_EVIDENCE && count[i] | attempts[i] == 0 {
                        changed.push((i, NO_EVIDENCE));
                    }
                }
            }
        }
        if changed.len() > m * m / REFILL_DIVISOR {
            self.fill(stats, true);
            return;
        }
        for k in 0..self.changed.len() {
            let (i, new) = self.changed[k];
            let (src, dst, old) = (i / m, i % m, self.price[i]);
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
        self.seen = Some(stats.version());
    }

    /// Rebuilds every list from `stats` in bulk: one row-major sweep over
    /// the flat count/attempt columns collects each priced link once
    /// (no strided per-instance column walk, which is cache-hostile at
    /// m ≥ 10k), and a CSR scatter feeds both endpoints' lists. With
    /// `track` the per-link price cache is filled too, every list gets
    /// its full `2(m−1)` capacity, and each list is sorted once; a
    /// one-shot fill leaves the lists unsorted, and [`Incident::score`]
    /// selects each quantile in place instead (O(d), not O(d log d)).
    fn fill(&mut self, stats: &PairwiseStats, track: bool) {
        let m = stats.len();
        let (count, attempts) = (stats.count_column(), stats.attempts_column());
        let mut pricer = Pricer { pricing: self.pricing, stats, critical: &mut self.critical };
        let mut deg = vec![0usize; m];
        let mut hits: Vec<(u32, u32, u64)> = Vec::new();
        for src in 0..m {
            let row = src * m;
            crate::kernels::scan_row_evidence(
                &count[row..row + m],
                &attempts[row..row + m],
                |dst, observed| {
                    hits.push((src as u32, dst as u32, pricer.evidenced(row + dst, observed)));
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
        for &(src, dst, bits) in &hits {
            for end in [src as usize, dst as usize] {
                self.flat[self.start[end] + self.len[end] as usize] = f64::from_bits(bits);
                self.len[end] += 1;
            }
            if track {
                self.price[src as usize * m + dst as usize] = bits;
                self.row_priced[src as usize] += 1;
            }
        }
        if track {
            for j in 0..m {
                self.list_mut(j).sort_unstable_by(f64::total_cmp);
            }
        }
        self.m = m;
        self.seen = track.then(|| stats.version());
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

    fn list_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.flat[self.start[j]..self.start[j] + self.len[j] as usize]
    }

    /// Instance `j`'s `idx`-th smallest incident price: an index into a
    /// tracked (sorted) list, an in-place selection in a one-shot one.
    fn score(&mut self, j: usize, idx: usize) -> f64 {
        let sorted = !self.price.is_empty();
        let list = self.list_mut(j);
        if sorted {
            list[idx]
        } else {
            *list.select_nth_unstable_by(idx, f64::total_cmp).1
        }
    }
}

/// An instance's standing in the candidate-pool race, as a prune rule
/// judges it ([`crate::CandidatePruneRule::standings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standing {
    /// Incident coverage below the evidence threshold: left out of the
    /// ranking, so neither provably in nor provably out.
    Unranked,
    /// Provably inside the pool.
    In,
    /// Provably outside the pool.
    Out,
    /// Not decided by the evidence so far.
    Open,
}

/// The prune evidence of one rule: an optimistic and a pessimistic
/// incident-price store (one mean-priced store standing in for both in
/// point mode).
#[derive(Debug, Clone)]
pub(crate) struct Evidence {
    pessimistic: Incident,
    /// `None` in point mode: the pessimistic store is read twice.
    optimistic: Option<Incident>,
}

impl Evidence {
    /// An empty store pair: mean-priced without a confidence, priced by
    /// t-interval bounds at `confidence` with one.
    pub(crate) fn new(confidence: Option<f64>) -> Self {
        match confidence {
            None => Self { pessimistic: Incident::new(Pricing::Mean), optimistic: None },
            Some(c) => Self {
                pessimistic: Incident::new(Pricing::Upper(c)),
                optimistic: Some(Incident::new(Pricing::Lower(c))),
            },
        }
    }

    /// A one-shot mean-priced fill from `stats`: unsorted lists, no
    /// price cache.
    pub(crate) fn cold(stats: &PairwiseStats) -> Self {
        let mut evidence = Self::new(None);
        evidence.pessimistic.fill(stats, false);
        evidence
    }

    /// Brings the tracked stores in line with `stats`.
    pub(crate) fn refresh(&mut self, stats: &PairwiseStats) {
        self.pessimistic.refresh(stats);
        if let Some(optimistic) = &mut self.optimistic {
            optimistic.refresh(stats);
        }
    }

    /// Every instance's [`Standing`] in a pool of `pool_size`.
    ///
    /// An instance whose incident coverage is below `min_coverage` is
    /// [`Standing::Unranked`]. The rest are scored by the `quantile` of
    /// their incident prices — optimistic `lo` and pessimistic `hi` — and
    /// ranked by `(score, id)`, so exact ties break by id:
    ///
    /// * **out** when even `(lo, id)` ranks above the `pool_size`-th
    ///   smallest pessimistic `(hi, id)` among ranked instances;
    /// * **in** (only when `rank_in` asks for it) when `hi` is finite and
    ///   fewer than `pool_size` rivals could still undercut `(hi, id)`
    ///   optimistically; every unranked instance counts as such a rival.
    ///
    /// A nonzero `tolerance` relaxes both tests by a relative
    /// indifference margin, comparing against the boundary scaled by
    /// `1 − tolerance`: an ε-tie for the last pool slot is settled
    /// instead of measured forever. In point mode `lo == hi`, and with
    /// zero tolerance the out-verdicts are exactly the complement of the
    /// pool "unranked plus the `pool_size` cheapest by `(score, id)`".
    ///
    /// # Panics
    /// Panics if `quantile` is outside `[0, 1]`.
    pub(crate) fn standings(
        &mut self,
        pool_size: usize,
        quantile: f64,
        min_coverage: f64,
        tolerance: f64,
        rank_in: bool,
    ) -> Vec<Standing> {
        assert!((0.0..=1.0).contains(&quantile), "quantile must be in [0, 1]");
        let m = self.pessimistic.m;
        let directions = (2 * m.saturating_sub(1)) as f64;
        let mut scores: Vec<Option<(f64, f64)>> = Vec::with_capacity(m);
        for j in 0..m {
            let priced = self.pessimistic.len[j] as usize;
            if priced == 0 || (priced as f64 / directions) < min_coverage {
                scores.push(None);
                continue;
            }
            let idx = ((priced - 1) as f64 * quantile).round() as usize;
            let hi = self.pessimistic.score(j, idx);
            let lo = self.optimistic.as_mut().map_or(hi, |o| o.score(j, idx));
            scores.push(Some((lo, hi)));
        }
        let key = |(score, id): (f64, u32), (other, other_id): (f64, u32)| {
            score.total_cmp(&other).then(id.cmp(&other_id))
        };
        let margin = 1.0 - tolerance;
        let mut ranked: Vec<(f64, u32)> =
            (0..m as u32).filter_map(|j| scores[j as usize].map(|(_, hi)| (hi, j))).collect();
        let unranked = m - ranked.len();
        let boundary = match pool_size.checked_sub(1) {
            Some(k) if k < ranked.len() => {
                let (score, id) = *ranked.select_nth_unstable_by(k, |&a, &b| key(a, b)).1;
                Some((score * margin, id))
            }
            _ => None,
        };
        let mut optimistic: Vec<(f64, u32)> = Vec::new();
        if rank_in {
            optimistic =
                (0..m as u32).filter_map(|j| scores[j as usize].map(|(lo, _)| (lo, j))).collect();
            optimistic.sort_unstable_by(|&a, &b| key(a, b));
        }
        (0..m)
            .map(|j| {
                let Some((lo, hi)) = scores[j] else {
                    return Standing::Unranked;
                };
                let id = j as u32;
                if boundary.is_some_and(|b| key((lo, id), b).is_gt()) {
                    return Standing::Out;
                }
                if rank_in && hi.is_finite() {
                    let bar = (hi * margin, id);
                    let below = optimistic.partition_point(|&k| key(k, bar).is_lt());
                    let rivals = below - usize::from(key((lo, id), bar).is_lt()) + unranked;
                    if rivals < pool_size {
                        return Standing::In;
                    }
                }
                Standing::Open
            })
            .collect()
    }
}
