//! Online per-link statistics: mean, variance, and tail quantiles.
//!
//! A measurement run produces millions of probe samples; storing them all
//! would dwarf the latency matrices themselves. Each link therefore keeps a
//! compact online summary: Welford's algorithm for mean/variance and a P²
//! estimator (Jain & Chlamtac, CACM 1985) for the 99th percentile — the
//! three latency metrics the paper studies in §3.2/§6.4 (mean, mean+SD,
//! p99) all come out of one pass.
//!
//! ## Columnar layout
//!
//! [`PairwiseStats`] is struct-of-arrays: one flat column per statistic
//! (count/mean/M2/attempts/timeouts), indexed `src * n + dst`, plus a P²
//! sketch side table allocated lazily only for links that ever record a
//! sample. An empty link costs 44 bytes (five 8-byte columns plus a 4-byte
//! sketch slot) instead of the ~200 of the old array-of-`LinkEstimate`
//! layout, the hot score/matrix loops stream over contiguous slices, and
//! the zero-initialised columns stay in untouched (lazily mapped) pages
//! until a link is actually probed — at m = 10k the plane budgets ~4.4 GB
//! logical instead of ~20 GB resident. [`LinkEstimate`] survives as a
//! lightweight copyable view so per-link callers don't churn.
//!
//! The pre-refactor array-of-structs implementation is retained verbatim
//! in [`aos`] as a differential-test oracle and bench baseline.
//!
//! ## Sharded parallel merge
//!
//! A stage's per-pair outcomes land here through
//! [`PairwiseStats::merge_batches`]: one [`LinkBatch`] per directed link,
//! replayed into the columns by disjoint link-index shards across the
//! sweep worker pool. Because the columns are per-link accumulators and
//! a batch carries its link's samples already time-ordered, the sharded
//! replay is **bit-identical** to calling
//! `record`/`record_attempt`/`record_timeout` serially, at any worker
//! count — the property suite pins every column (count/mean/M2/attempts/
//! timeouts) and the P² sketches.
//!
//! ## Adaptive sketch spilling
//!
//! The Welford columns are dense and cheap; the P² sketches are the
//! expensive part of a covered link (176 bytes each). Links often go
//! quiet mid-run — pruned pairs, converged candidates, cold corners of a
//! focused plan — so the store keeps a per-sketch last-seen tick and
//! [`PairwiseStats::spill_quiet`] drops sketches idle past a horizon,
//! recycling their slots through a free list (the side table stops
//! growing once the working set stabilises). A spilled link's Welford
//! columns are untouched — mean/SD/CI answers are exact forever — and
//! its p99 falls back to the mean+SD proxy until a fresh sample
//! re-allocates a sketch. [`PairwiseStats::resident_bytes`] reports the
//! materialised footprint (touched column pages + live sketch table)
//! that spilling actually bounds; `memory_bytes` stays the logical
//! capacity view.

use cloudia_netsim::cost::{CostError, CostMatrix};

use crate::ci::LinkCi;
use crate::pool::SweepPool;

// The Welford and P² sketches moved to `cloudia-obs` (the telemetry
// plane reuses them for histogram snapshots); re-exported here so the
// measurement plane's original users keep their import paths.
pub use cloudia_obs::{P2Quantile, Welford};

/// Copyable read-only view of one directed link's online summary,
/// materialised from the columnar [`PairwiseStats`] store on access.
#[derive(Debug, Clone, Copy)]
pub struct LinkEstimate<'a> {
    count: u64,
    mean: f64,
    m2: f64,
    attempts: u64,
    timeouts: u64,
    p99: Option<&'a P2Quantile>,
}

impl LinkEstimate<'_> {
    /// Probes issued on this link (0 for schemes predating loss
    /// awareness or synthetic stats that only called `record`).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Probes that timed out on this link.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Observed loss rate, `timeouts / attempts` (0 without attempts).
    pub fn loss_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.timeouts as f64 / self.attempts as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean RTT estimate.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// RTT standard deviation estimate.
    pub fn sd(&self) -> f64 {
        Welford::from_parts(self.count, self.mean, self.m2).sd()
    }

    /// Mean plus one standard deviation (paper's "Mean+SD" metric).
    pub fn mean_plus_sd(&self) -> f64 {
        self.mean() + self.sd()
    }

    /// 99th-percentile estimate (paper's "99%" metric); 0 before the
    /// first sample, like an empty sketch. A covered link whose sketch
    /// was spilled ([`PairwiseStats::spill_quiet`]) reports the mean+SD
    /// proxy until a fresh sample re-allocates its sketch.
    pub fn p99(&self) -> f64 {
        match self.p99 {
            Some(sketch) => sketch.value(),
            None if self.count > 0 => self.mean_plus_sd(),
            None => 0.0,
        }
    }
}

/// One directed link's complete outcome batch from a measurement stage:
/// the probe ledger plus the link's round-trip samples in completion
/// order. The unit of the sharded parallel merge
/// ([`PairwiseStats::merge_batches`]).
#[derive(Debug, Clone, Default)]
pub struct LinkBatch {
    /// Source instance index.
    pub src: usize,
    /// Destination instance index (`!= src`).
    pub dst: usize,
    /// Probes issued on the link this stage.
    pub attempts: u64,
    /// Probes that timed out this stage.
    pub timeouts: u64,
    /// Completed round-trip times, time-ordered.
    pub rtts: Vec<f64>,
}

/// Links per 4 KB page of an 8-byte column — the granularity of the
/// touched-page ledger behind [`PairwiseStats::resident_bytes`].
const LINKS_PER_PAGE: usize = 512;

/// Replays one batch into one link's column cells and (optional) sketch
/// — the exact arithmetic sequence of the serial
/// `record_attempt`/`record_timeout`/`record` loops, which is what makes
/// the sharded merge bit-identical to the serial one.
fn apply_batch(
    batch: &LinkBatch,
    count: &mut u64,
    mean: &mut f64,
    m2: &mut f64,
    attempts: &mut u64,
    timeouts: &mut u64,
    sketch: Option<&mut P2Quantile>,
) {
    *attempts += batch.attempts;
    *timeouts += batch.timeouts;
    if batch.rtts.is_empty() {
        return;
    }
    let mut w = Welford::from_parts(*count, *mean, *m2);
    let sketch = sketch.expect("a batch with samples always has a sketch slot");
    for &rtt in &batch.rtts {
        w.record(rtt);
        sketch.record(rtt);
    }
    (*count, *mean, *m2) = w.parts();
}

/// Splits `rest` — the suffix of a column starting at absolute link
/// index `consumed` — into the cells `[lo, hi)` (returned) and the tail
/// after `hi` (written back to `rest`).
fn carve<'a, T>(rest: &mut &'a mut [T], consumed: usize, lo: usize, hi: usize) -> &'a mut [T] {
    let tail = std::mem::take(rest);
    let (_, tail) = tail.split_at_mut(lo - consumed);
    let (head, tail) = tail.split_at_mut(hi - lo);
    *rest = tail;
    head
}

/// One worker's share of a sharded merge: a contiguous link-index
/// interval's column slices, the batches that fall in it, and the moved
/// sketches of those batches' links.
struct MergeShard<'a> {
    /// Link index of the first cell in the slices.
    base: usize,
    count: &'a mut [u64],
    mean: &'a mut [f64],
    m2: &'a mut [f64],
    attempts: &'a mut [u64],
    timeouts: &'a mut [u64],
    batches: &'a [LinkBatch],
    /// `(position in batches, slot id, sketch moved out of the store)`,
    /// ascending by position; at most one entry per batch.
    sketches: Vec<(usize, u32, P2Quantile)>,
}

impl MergeShard<'_> {
    fn run(&mut self, n: usize) {
        let mut sk = 0;
        for (bi, batch) in self.batches.iter().enumerate() {
            let off = batch.src * n + batch.dst - self.base;
            let sketch = if sk < self.sketches.len() && self.sketches[sk].0 == bi {
                sk += 1;
                Some(&mut self.sketches[sk - 1].2)
            } else {
                None
            };
            apply_batch(
                batch,
                &mut self.count[off],
                &mut self.mean[off],
                &mut self.m2[off],
                &mut self.attempts[off],
                &mut self.timeouts[off],
                sketch,
            );
        }
    }
}

/// A process-unique stats identity, drawn afresh on construction and on
/// every clone, so two objects share one only while one is an unmodified
/// copy of the other.
#[derive(Debug)]
struct StatsId(u64);

impl StatsId {
    fn fresh() -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        Self(NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
    }
}

impl Clone for StatsId {
    fn clone(&self) -> Self {
        Self::fresh()
    }
}

/// Pairwise link summaries for `n` instances (diagonal unused), stored
/// as flat per-statistic columns indexed `src * n + dst`.
#[derive(Debug, Clone)]
pub struct PairwiseStats {
    id: StatsId,
    n: usize,
    count: Vec<u64>,
    mean: Vec<f64>,
    m2: Vec<f64>,
    attempts: Vec<u64>,
    timeouts: Vec<u64>,
    /// `slot + 1` into `sketches`, 0 = no sketch (never sampled, or
    /// spilled). The +1 bias keeps the column all-zeroes at
    /// construction, so the allocator's lazily mapped pages stay
    /// untouched until a link records.
    sketch_slot: Vec<u32>,
    /// Lazily allocated P² p99 sketches, one per link that recorded a
    /// sample since its last spill.
    sketches: Vec<P2Quantile>,
    /// Link index that owns each sketch slot (`u64::MAX` = freed by
    /// spilling, awaiting reuse through `free_slots`).
    sketch_link: Vec<u64>,
    /// Quiet-time tick at which each slot last recorded a sample.
    sketch_seen: Vec<u64>,
    /// Spilled slots available for reuse, LIFO.
    free_slots: Vec<u32>,
    /// Quiet-time clock for spilling, advanced by `advance_tick` (one
    /// tick per measurement stage when driven by `StageDriver`).
    tick: u64,
    /// Bitmap over [`LINKS_PER_PAGE`]-link column pages: a set bit means
    /// some link in that page was probed or sampled, i.e. its column
    /// pages are materialised. Feeds `resident_bytes`.
    touched_pages: Vec<u64>,
    touched_page_count: usize,
    // Running aggregates, maintained on record so the totals below are
    // O(1) instead of an O(n²) column scan per call.
    samples_total: u64,
    attempts_total: u64,
    timeouts_total: u64,
    covered: usize,
    attempted: usize,
}

impl PairwiseStats {
    /// Creates empty statistics for `n` instances.
    pub fn new(n: usize) -> Self {
        Self {
            id: StatsId::fresh(),
            n,
            count: vec![0; n * n],
            mean: vec![0.0; n * n],
            m2: vec![0.0; n * n],
            attempts: vec![0; n * n],
            timeouts: vec![0; n * n],
            sketch_slot: vec![0; n * n],
            sketches: Vec::new(),
            sketch_link: Vec::new(),
            sketch_seen: Vec::new(),
            free_slots: Vec::new(),
            tick: 0,
            touched_pages: vec![0; (n * n).div_ceil(LINKS_PER_PAGE).div_ceil(64)],
            touched_page_count: 0,
            samples_total: 0,
            attempts_total: 0,
            timeouts_total: 0,
            covered: 0,
            attempted: 0,
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if tracking zero instances.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, src: usize, dst: usize) -> usize {
        debug_assert_ne!(src, dst);
        src * self.n + dst
    }

    /// Marks the column page holding `idx` as materialised.
    #[inline]
    fn touch_page(&mut self, idx: usize) {
        let page = idx / LINKS_PER_PAGE;
        let mask = 1u64 << (page % 64);
        let word = &mut self.touched_pages[page / 64];
        if *word & mask == 0 {
            *word |= mask;
            self.touched_page_count += 1;
        }
    }

    /// Allocates (or reuses, via the spill free list) a sketch slot for
    /// `idx`, records its ownership and last-seen tick, and writes the
    /// `+1`-biased id into the slot column. Returns the unbiased slot.
    fn alloc_sketch(&mut self, idx: usize) -> usize {
        let slot = if let Some(free) = self.free_slots.pop() {
            let slot = free as usize;
            self.sketches[slot] = P2Quantile::new(0.99);
            slot
        } else {
            self.sketches.push(P2Quantile::new(0.99));
            self.sketch_link.push(0);
            self.sketch_seen.push(0);
            self.sketches.len() - 1
        };
        self.sketch_link[slot] = idx as u64;
        self.sketch_seen[slot] = self.tick;
        self.sketch_slot[idx] =
            u32::try_from(slot + 1).expect("more than u32::MAX - 1 covered links");
        slot
    }

    /// Records one RTT observation for the directed link `src → dst`
    /// (raw indices).
    pub fn record(&mut self, src: usize, dst: usize, rtt: f64) {
        let idx = self.idx(src, dst);
        self.touch_page(idx);
        if self.count[idx] == 0 {
            self.covered += 1;
        }
        // Same update arithmetic as the struct form, bit for bit.
        let mut w = Welford::from_parts(self.count[idx], self.mean[idx], self.m2[idx]);
        w.record(rtt);
        (self.count[idx], self.mean[idx], self.m2[idx]) = w.parts();
        self.samples_total += 1;
        let slot = match self.sketch_slot[idx] {
            0 => self.alloc_sketch(idx),
            s => s as usize - 1,
        };
        self.sketch_seen[slot] = self.tick;
        self.sketches[slot].record(rtt);
    }

    /// Counts one probe issued on the directed link `src → dst`.
    pub fn record_attempt(&mut self, src: usize, dst: usize) {
        self.record_attempts(src, dst, 1);
    }

    /// Counts one timed-out probe on the directed link `src → dst`.
    pub fn record_timeout(&mut self, src: usize, dst: usize) {
        self.record_timeouts(src, dst, 1);
    }

    /// Counts `k` probes issued on the directed link `src → dst` in one
    /// call — the bulk form of [`PairwiseStats::record_attempt`] the
    /// stage merge uses instead of a per-probe loop. `k = 0` is a no-op
    /// (in particular it does not mark the link attempted).
    pub fn record_attempts(&mut self, src: usize, dst: usize, k: u64) {
        if k == 0 {
            return;
        }
        let idx = self.idx(src, dst);
        self.touch_page(idx);
        if self.attempts[idx] == 0 {
            self.attempted += 1;
        }
        self.attempts[idx] += k;
        self.attempts_total += k;
    }

    /// Counts `k` timed-out probes on the directed link `src → dst`.
    pub fn record_timeouts(&mut self, src: usize, dst: usize, k: u64) {
        if k == 0 {
            return;
        }
        let idx = self.idx(src, dst);
        self.touch_page(idx);
        self.timeouts[idx] += k;
        self.timeouts_total += k;
    }

    /// Merges one stage's per-link outcome batches, sharding the column
    /// replay across the global [`SweepPool`] when `workers > 1`.
    ///
    /// Requirements: each directed link appears in at most one batch
    /// (stage schedules are endpoint-disjoint, so this is free for sweep
    /// callers) and each batch's `rtts` are in completion order. Under
    /// those, the result is **bit-identical** to replaying every batch
    /// serially through `record_attempts`/`record_timeouts`/`record`:
    /// each worker owns a disjoint contiguous `src * n + dst` interval
    /// of every column, per-link arithmetic only ever sees its own
    /// link's samples in order, and the running aggregates plus sketch
    /// slot numbering are assigned in a main-thread pre-pass over the
    /// index-sorted batches that does not depend on the worker count.
    pub fn merge_batches(&mut self, mut batches: Vec<LinkBatch>, workers: usize) {
        let n = self.n;
        batches.retain(|b| b.attempts > 0 || b.timeouts > 0 || !b.rtts.is_empty());
        if batches.is_empty() {
            return;
        }
        // Deterministic shard layout: batches sort by link index and the
        // shard cuts fall on batch boundaries.
        batches.sort_by_key(|b| b.src * n + b.dst);
        // Main-thread pre-pass, in link-index order: aggregates, page
        // tracking, and sketch slot allocation.
        let mut slots: Vec<Option<u32>> = Vec::with_capacity(batches.len());
        let mut prev = usize::MAX;
        for b in &batches {
            assert!(b.src < n && b.dst < n && b.src != b.dst, "bad link {}→{}", b.src, b.dst);
            let idx = b.src * n + b.dst;
            assert_ne!(idx, prev, "link {}→{} appears in two batches", b.src, b.dst);
            prev = idx;
            self.touch_page(idx);
            if !b.rtts.is_empty() && self.count[idx] == 0 {
                self.covered += 1;
            }
            if b.attempts > 0 && self.attempts[idx] == 0 {
                self.attempted += 1;
            }
            self.samples_total += b.rtts.len() as u64;
            self.attempts_total += b.attempts;
            self.timeouts_total += b.timeouts;
            slots.push(if b.rtts.is_empty() {
                None
            } else {
                let slot = match self.sketch_slot[idx] {
                    0 => self.alloc_sketch(idx),
                    s => s as usize - 1,
                };
                self.sketch_seen[slot] = self.tick;
                Some(slot as u32)
            });
        }
        let workers = workers.clamp(1, batches.len());
        if workers == 1 {
            for (b, slot) in batches.iter().zip(&slots) {
                let idx = b.src * n + b.dst;
                let sketch = match slot {
                    Some(s) => Some(&mut self.sketches[*s as usize]),
                    None => None,
                };
                apply_batch(
                    b,
                    &mut self.count[idx],
                    &mut self.mean[idx],
                    &mut self.m2[idx],
                    &mut self.attempts[idx],
                    &mut self.timeouts[idx],
                    sketch,
                );
            }
            return;
        }
        // Weighted cuts: balance shards by replay work (samples dominate;
        // the +1 keeps sample-free batches from collapsing into one shard).
        let total: u64 = batches.iter().map(|b| b.rtts.len() as u64 + 1).sum();
        let target = total.div_ceil(workers as u64);
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(workers);
        let (mut start, mut acc) = (0usize, 0u64);
        for (i, b) in batches.iter().enumerate() {
            acc += b.rtts.len() as u64 + 1;
            if acc >= target {
                ranges.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < batches.len() {
            ranges.push(start..batches.len());
        }
        // Progressively split the five columns at the shard boundaries —
        // each worker gets exclusive slices of its link-index interval —
        // and move the touched sketches out beside them.
        let mut shards: Vec<MergeShard<'_>> = Vec::with_capacity(ranges.len());
        let mut count_rest = self.count.as_mut_slice();
        let mut mean_rest = self.mean.as_mut_slice();
        let mut m2_rest = self.m2.as_mut_slice();
        let mut att_rest = self.attempts.as_mut_slice();
        let mut to_rest = self.timeouts.as_mut_slice();
        let mut consumed = 0usize;
        for r in ranges {
            let lo = batches[r.start].src * n + batches[r.start].dst;
            let hi = batches[r.end - 1].src * n + batches[r.end - 1].dst + 1;
            let mut moved: Vec<(usize, u32, P2Quantile)> = Vec::new();
            for (bi, slot) in slots[r.clone()].iter().enumerate() {
                if let Some(s) = slot {
                    moved.push((
                        bi,
                        *s,
                        std::mem::replace(&mut self.sketches[*s as usize], P2Quantile::new(0.99)),
                    ));
                }
            }
            shards.push(MergeShard {
                base: lo,
                count: carve(&mut count_rest, consumed, lo, hi),
                mean: carve(&mut mean_rest, consumed, lo, hi),
                m2: carve(&mut m2_rest, consumed, lo, hi),
                attempts: carve(&mut att_rest, consumed, lo, hi),
                timeouts: carve(&mut to_rest, consumed, lo, hi),
                batches: &batches[r],
                sketches: moved,
            });
            consumed = hi;
        }
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = shards
            .iter_mut()
            .map(|shard| Box::new(move || shard.run(n)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        SweepPool::global().run(tasks);
        // Shuttle the replayed sketches back into their slots.
        for shard in shards {
            for (_, slot, sketch) in shard.sketches {
                self.sketches[slot as usize] = sketch;
            }
        }
    }

    /// Current quiet-time tick (the stage counter spilling ages against).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the quiet-time clock by one tick. Drivers call this once
    /// per completed stage so sketch idleness is measured in stages.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
    }

    /// Spills every P² sketch whose link has not recorded a sample for
    /// at least `horizon` ticks (clamped to ≥ 1, so a sketch touched
    /// this tick never spills), returning the number spilled. Spilled
    /// slots go on a free list for reuse, which is what bounds the
    /// sketch table: it stops growing once the per-tick working set
    /// stabilises, instead of accumulating one 176-byte sketch per link
    /// ever covered. The Welford columns are untouched — mean/SD/CI
    /// answers stay exact — and only the link's p99 degrades, to the
    /// mean+SD proxy, until a fresh sample re-allocates a sketch.
    pub fn spill_quiet(&mut self, horizon: u64) -> usize {
        let horizon = horizon.max(1);
        let mut spilled = 0;
        for slot in 0..self.sketches.len() {
            let link = self.sketch_link[slot];
            if link == u64::MAX {
                continue; // already on the free list
            }
            if self.tick.saturating_sub(self.sketch_seen[slot]) >= horizon {
                self.sketch_slot[link as usize] = 0;
                self.sketch_link[slot] = u64::MAX;
                self.free_slots.push(slot as u32);
                spilled += 1;
            }
        }
        spilled
    }

    /// Number of live (unspilled) P² sketches.
    pub fn live_sketches(&self) -> usize {
        self.sketches.len() - self.free_slots.len()
    }

    /// Total probes issued across all links.
    pub fn total_attempts(&self) -> u64 {
        debug_assert_eq!(self.attempts_total, self.attempts.iter().sum::<u64>());
        self.attempts_total
    }

    /// Total timed-out probes across all links.
    pub fn total_timeouts(&self) -> u64 {
        debug_assert_eq!(self.timeouts_total, self.timeouts.iter().sum::<u64>());
        self.timeouts_total
    }

    /// Number of off-diagonal links probed at least once (successfully
    /// or not) — under loss this can exceed
    /// [`PairwiseStats::covered_links`].
    pub fn attempted_links(&self) -> usize {
        debug_assert_eq!(self.attempted, self.attempts.iter().filter(|&&a| a > 0).count());
        self.attempted
    }

    /// The summary of one directed link, as a copyable view.
    pub fn link(&self, src: usize, dst: usize) -> LinkEstimate<'_> {
        let idx = src * self.n + dst;
        let slot = self.sketch_slot[idx];
        LinkEstimate {
            count: self.count[idx],
            mean: self.mean[idx],
            m2: self.m2[idx],
            attempts: self.attempts[idx],
            timeouts: self.timeouts[idx],
            p99: (slot != 0).then(|| &self.sketches[slot as usize - 1]),
        }
    }

    /// Total number of recorded samples.
    pub fn total_samples(&self) -> u64 {
        debug_assert_eq!(self.samples_total, self.count.iter().sum::<u64>());
        self.samples_total
    }

    /// Number of off-diagonal links with at least one sample.
    pub fn covered_links(&self) -> usize {
        debug_assert_eq!(self.covered, self.count.iter().filter(|&&c| c > 0).count());
        self.covered
    }

    /// The per-link sample-count column, indexed `src * n + dst`
    /// (diagonal entries always 0).
    pub fn count_column(&self) -> &[u64] {
        &self.count
    }

    /// The per-link mean-RTT column, indexed `src * n + dst`.
    pub fn mean_column(&self) -> &[f64] {
        &self.mean
    }

    /// The per-link Welford sum-of-squared-deviations column, indexed
    /// `src * n + dst`.
    pub fn m2_column(&self) -> &[f64] {
        &self.m2
    }

    /// The per-link probe-attempt column, indexed `src * n + dst`.
    pub fn attempts_column(&self) -> &[u64] {
        &self.attempts
    }

    /// The per-link timed-out-probe column, indexed `src * n + dst`.
    pub fn timeouts_column(&self) -> &[u64] {
        &self.timeouts
    }

    /// The content version: equal versions mean equal count, mean, M2,
    /// attempt and timeout columns. It pairs the object's identity
    /// (fresh per construction and per clone) with the sum of its
    /// sample, attempt and timeout totals, which every write to those
    /// columns raises. Lets a cache keyed on the columns skip a pass
    /// when handed the same, unchanged statistics twice.
    pub fn version(&self) -> (u64, u64) {
        (self.id.0, self.samples_total + self.attempts_total + self.timeouts_total)
    }

    /// Bytes of heap + inline memory held by this store (capacity
    /// accounting, i.e. the logical footprint; zero-filled pages the OS
    /// has not materialised count too). The `ext_scale` smoke gate
    /// asserts this stays within budget at m = 10k.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.count.capacity() * size_of::<u64>()
            + self.mean.capacity() * size_of::<f64>()
            + self.m2.capacity() * size_of::<f64>()
            + self.attempts.capacity() * size_of::<u64>()
            + self.timeouts.capacity() * size_of::<u64>()
            + self.sketch_slot.capacity() * size_of::<u32>()
            + self.sketches.capacity() * size_of::<P2Quantile>()
            + self.sketch_link.capacity() * size_of::<u64>()
            + self.sketch_seen.capacity() * size_of::<u64>()
            + self.free_slots.capacity() * size_of::<u32>()
            + self.touched_pages.capacity() * size_of::<u64>()
    }

    /// Estimated bytes actually *materialised* by this store: column
    /// pages holding at least one touched link (five 8-byte columns — a
    /// full 4 KB page each — plus half a page for the 4-byte sketch-slot
    /// column) plus the sketch side tables. Untouched links cost nothing
    /// because the zero-filled columns stay in lazily-mapped pages, so
    /// this — unlike the capacity view of
    /// [`PairwiseStats::memory_bytes`] — is the footprint that sketch
    /// spilling bounds: the `ext_scale` m = 20k arm asserts it stays
    /// under 5 GB with spilling on.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let page = 4096;
        size_of::<Self>()
            + self.touched_page_count * (5 * page + page / 2)
            + self.sketches.len() * size_of::<P2Quantile>()
            + self.sketch_link.len() * size_of::<u64>()
            + self.sketch_seen.len() * size_of::<u64>()
            + self.free_slots.capacity() * size_of::<u32>()
            + self.touched_pages.capacity() * size_of::<u64>()
    }

    /// Flattened vector of mean estimates over all ordered pairs (i ≠ j),
    /// in row-major order — the "latency vector" of paper §6.2.
    pub fn mean_vector(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * self.n.saturating_sub(1));
        for i in 0..self.n {
            let row = &self.mean[i * self.n..(i + 1) * self.n];
            for (j, &v) in row.iter().enumerate() {
                if j != i {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Matrix of mean estimates (diagonal 0), streamed straight from the
    /// mean column into the shared flat [`CostMatrix`] arena.
    ///
    /// Unmeasured links never price as free: a link probed but never
    /// answered (`attempts > 0`, `count == 0`) prices as `+∞` — the same
    /// dark-link rule `build_partial` applies — and a link never even
    /// attempted surfaces as [`CostError::Unmeasured`] instead of a
    /// silent `0.0` the solver would actively prefer. Full-sweep callers
    /// (every link covered) are unaffected. Also errors if any estimate
    /// is NaN or negative (corrupt measurement data).
    pub fn mean_matrix(&self) -> Result<CostMatrix, CostError> {
        self.matrix_from(|idx| self.mean[idx])
    }

    /// Matrix of mean+SD estimates (diagonal 0).
    pub fn mean_plus_sd_matrix(&self) -> Result<CostMatrix, CostError> {
        self.matrix_from(|idx| {
            self.mean[idx] + Welford::from_parts(self.count[idx], self.mean[idx], self.m2[idx]).sd()
        })
    }

    /// Matrix of p99 estimates (diagonal 0). A covered link whose sketch
    /// was spilled prices as the mean+SD proxy, never a free `0.0`.
    pub fn p99_matrix(&self) -> Result<CostMatrix, CostError> {
        self.matrix_from(|idx| {
            let slot = self.sketch_slot[idx];
            if slot == 0 {
                // Only reachable for a covered link whose sketch was
                // spilled: matrix_from consults us only when count > 0.
                self.mean[idx]
                    + Welford::from_parts(self.count[idx], self.mean[idx], self.m2[idx]).sd()
            } else {
                self.sketches[slot as usize - 1].value()
            }
        })
    }

    /// The t-interval confidence bound on the mean of the directed link
    /// `src → dst`, built from the Welford columns with censored-data
    /// widening from the probe ledger. Fewer than two samples yield an
    /// unbounded interval — see [`LinkCi`].
    pub fn ci(&self, src: usize, dst: usize, confidence: f64) -> LinkCi {
        let idx = self.idx(src, dst);
        LinkCi::from_parts(
            self.count[idx],
            self.mean[idx],
            self.m2[idx],
            self.attempts[idx],
            self.timeouts[idx],
            confidence,
        )
    }

    /// Read-time CI matrix: one [`LinkCi`] per ordered pair, row-major
    /// (`src * n + dst`), streamed straight from the columns. Diagonal
    /// entries are the exact zero interval (a node's latency to itself
    /// is 0 by definition, not by measurement).
    pub fn ci_matrix(&self, confidence: f64) -> Vec<LinkCi> {
        let mut out = Vec::with_capacity(self.n * self.n);
        for i in 0..self.n {
            let row = i * self.n;
            for j in 0..self.n {
                if i == j {
                    out.push(LinkCi::exact(0.0, confidence));
                } else {
                    let idx = row + j;
                    out.push(LinkCi::from_parts(
                        self.count[idx],
                        self.mean[idx],
                        self.m2[idx],
                        self.attempts[idx],
                        self.timeouts[idx],
                        confidence,
                    ));
                }
            }
        }
        out
    }

    /// Builds a cost matrix by streaming a per-link-index function over
    /// the columns row by row — no `LinkEstimate` view per cell. The
    /// estimate function is only consulted for links with at least one
    /// sample; unmeasured links take the dark-link price (`+∞`) when
    /// probed and error out when never attempted.
    fn matrix_from(&self, f: impl Fn(usize) -> f64) -> Result<CostMatrix, CostError> {
        let mut b = CostMatrix::builder(self.n);
        for i in 0..self.n {
            let row = i * self.n;
            for j in 0..self.n {
                if i != j {
                    let idx = row + j;
                    let cost = if self.count[idx] > 0 {
                        f(idx)
                    } else if self.attempts[idx] > 0 {
                        f64::INFINITY
                    } else {
                        return Err(CostError::Unmeasured { i, j });
                    };
                    b.set(i, j, cost);
                }
            }
        }
        b.freeze()
    }
}

/// The pre-refactor array-of-structs stats plane, retained as the
/// differential-test oracle for the columnar [`PairwiseStats`] and as the
/// bench baseline `ext_scale` races `build_partial` against. Not for
/// production use: an empty link costs ~200 bytes here.
#[doc(hidden)]
pub mod aos {
    use super::{P2Quantile, Welford};

    /// Full online summary of one directed link (owning form).
    #[derive(Debug, Clone)]
    pub struct LinkEstimate {
        welford: Welford,
        p99: P2Quantile,
        attempts: u64,
        timeouts: u64,
    }

    impl Default for LinkEstimate {
        fn default() -> Self {
            Self { welford: Welford::new(), p99: P2Quantile::new(0.99), attempts: 0, timeouts: 0 }
        }
    }

    impl LinkEstimate {
        /// Adds one RTT observation.
        pub fn record(&mut self, rtt: f64) {
            self.welford.record(rtt);
            self.p99.record(rtt);
        }

        /// Counts one probe issued on this link.
        pub fn record_attempt(&mut self) {
            self.attempts += 1;
        }

        /// Counts one probe that timed out on this link.
        pub fn record_timeout(&mut self) {
            self.timeouts += 1;
        }

        /// Probes issued on this link.
        pub fn attempts(&self) -> u64 {
            self.attempts
        }

        /// Probes that timed out on this link.
        pub fn timeouts(&self) -> u64 {
            self.timeouts
        }

        /// Number of observations.
        pub fn count(&self) -> u64 {
            self.welford.count()
        }

        /// Mean RTT estimate.
        pub fn mean(&self) -> f64 {
            self.welford.mean()
        }

        /// RTT standard deviation estimate.
        pub fn sd(&self) -> f64 {
            self.welford.sd()
        }

        /// Mean plus one standard deviation.
        pub fn mean_plus_sd(&self) -> f64 {
            self.mean() + self.sd()
        }

        /// 99th-percentile estimate.
        pub fn p99(&self) -> f64 {
            self.p99.value()
        }
    }

    /// Array-of-structs pairwise summaries (oracle form).
    #[derive(Debug, Clone)]
    pub struct PairwiseStats {
        n: usize,
        links: Vec<LinkEstimate>,
    }

    impl PairwiseStats {
        /// Creates empty statistics for `n` instances.
        pub fn new(n: usize) -> Self {
            Self { n, links: vec![LinkEstimate::default(); n * n] }
        }

        /// Number of instances.
        #[allow(clippy::len_without_is_empty)]
        pub fn len(&self) -> usize {
            self.n
        }

        /// Records one RTT observation for `src → dst`.
        pub fn record(&mut self, src: usize, dst: usize, rtt: f64) {
            debug_assert_ne!(src, dst);
            self.links[src * self.n + dst].record(rtt);
        }

        /// Counts one probe issued on `src → dst`.
        pub fn record_attempt(&mut self, src: usize, dst: usize) {
            debug_assert_ne!(src, dst);
            self.links[src * self.n + dst].record_attempt();
        }

        /// Counts one timed-out probe on `src → dst`.
        pub fn record_timeout(&mut self, src: usize, dst: usize) {
            debug_assert_ne!(src, dst);
            self.links[src * self.n + dst].record_timeout();
        }

        /// The summary of one directed link.
        pub fn link(&self, src: usize, dst: usize) -> &LinkEstimate {
            &self.links[src * self.n + dst]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        let mean = xs.iter().sum::<f64>() / 5.0;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_variance_is_bessel_corrected() {
        let mut w = Welford::new();
        w.record(1.0);
        w.record(3.0);
        // Sample variance of {1, 3} is 2, not the population 1.
        assert!((w.variance() - 2.0).abs() < 1e-12);
        assert!((w.sd() - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.record(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn p2_tracks_uniform_p99() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = P2Quantile::new(0.99);
        for _ in 0..100_000 {
            q.record(rng.random::<f64>());
        }
        assert!((q.value() - 0.99).abs() < 0.01, "p99 {}", q.value());
    }

    #[test]
    fn p2_tracks_median_of_normal() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut q = P2Quantile::new(0.5);
        for _ in 0..100_000 {
            q.record(5.0 + cloudia_netsim::dist::standard_normal(&mut rng));
        }
        assert!((q.value() - 5.0).abs() < 0.05, "median {}", q.value());
    }

    #[test]
    fn p2_exact_for_few_samples() {
        let mut q = P2Quantile::new(0.99);
        q.record(3.0);
        q.record(1.0);
        assert_eq!(q.value(), 3.0);
        let mut qm = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 3.0] {
            qm.record(x);
        }
        assert_eq!(qm.value(), 3.0);
    }

    #[test]
    fn p2_against_exact_on_lognormal() {
        // Compare against the exact empirical quantile on a skewed
        // distribution — the realistic shape of RTT samples.
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = P2Quantile::new(0.99);
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            let x = (0.3 * cloudia_netsim::dist::standard_normal(&mut rng)).exp();
            q.record(x);
            xs.push(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = xs[(0.99 * xs.len() as f64) as usize];
        assert!((q.value() - exact).abs() / exact < 0.05, "p2 {} exact {exact}", q.value());
    }

    #[test]
    fn p2_small_count_path_matches_sorted_ground_truth() {
        // Property check over the exact path (count <= 5): for every
        // count 1..=5 and q in {0.01, 0.5, 0.99}, the estimate equals
        // the ceil(count·q)-th order statistic of the sorted samples.
        let mut rng = StdRng::seed_from_u64(17);
        for _case in 0..200 {
            for count in 1..=5usize {
                let xs: Vec<f64> = (0..count).map(|_| rng.random::<f64>() * 10.0).collect();
                for q in [0.01, 0.5, 0.99] {
                    let mut p2 = P2Quantile::new(q);
                    for &x in &xs {
                        p2.record(x);
                    }
                    let mut sorted = xs.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let idx = ((count as f64 * q).ceil() as usize).clamp(1, count) - 1;
                    assert_eq!(p2.value(), sorted[idx], "count {count} q {q} samples {xs:?}");
                    assert_eq!(p2.count(), count);
                }
            }
        }
    }

    #[test]
    fn p2_marker_path_agrees_with_exact_at_larger_counts() {
        // Just past the exact/marker boundary the estimator must stay
        // within tolerance of the true quantile.
        let mut rng = StdRng::seed_from_u64(23);
        for q in [0.5, 0.99] {
            let mut p2 = P2Quantile::new(q);
            let mut xs = Vec::new();
            for _ in 0..5000 {
                let x = rng.random::<f64>();
                p2.record(x);
                xs.push(x);
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = xs[((xs.len() as f64 * q) as usize).min(xs.len() - 1)];
            assert!(
                (p2.value() - exact).abs() < 0.05,
                "q {q}: marker {} vs exact {exact}",
                p2.value()
            );
        }
    }

    #[test]
    fn attempts_and_timeouts_track_loss() {
        let mut s = PairwiseStats::new(3);
        s.record_attempt(0, 1);
        s.record_attempt(0, 1);
        s.record_timeout(0, 1);
        s.record(0, 1, 2.0);
        assert_eq!(s.link(0, 1).attempts(), 2);
        assert_eq!(s.link(0, 1).timeouts(), 1);
        assert_eq!(s.link(0, 1).loss_rate(), 0.5);
        assert_eq!(s.link(1, 0).loss_rate(), 0.0);
        assert_eq!(s.total_attempts(), 2);
        assert_eq!(s.total_timeouts(), 1);
        // A fully dark link is attempted but never covered.
        s.record_attempt(1, 2);
        s.record_timeout(1, 2);
        assert_eq!(s.attempted_links(), 2);
        assert_eq!(s.covered_links(), 1);
    }

    #[test]
    fn link_estimate_combines_metrics() {
        let mut s = PairwiseStats::new(2);
        for i in 0..1000 {
            s.record(0, 1, if i % 100 == 0 { 10.0 } else { 1.0 });
        }
        let l = s.link(0, 1);
        assert!(l.mean() > 1.0 && l.mean() < 1.2);
        assert!(l.mean_plus_sd() > l.mean());
        assert!(l.p99() >= 1.0);
        assert_eq!(l.count(), 1000);
    }

    #[test]
    fn pairwise_records_directed() {
        let mut s = PairwiseStats::new(3);
        s.record(0, 1, 2.0);
        s.record(0, 1, 4.0);
        s.record(1, 0, 10.0);
        assert_eq!(s.link(0, 1).mean(), 3.0);
        assert_eq!(s.link(1, 0).mean(), 10.0);
        assert_eq!(s.link(2, 0).count(), 0);
        assert_eq!(s.total_samples(), 3);
        assert_eq!(s.covered_links(), 2);
    }

    #[test]
    fn mean_vector_is_row_major_off_diagonal() {
        let mut s = PairwiseStats::new(3);
        for (i, j, v) in
            [(0, 1, 1.0), (0, 2, 2.0), (1, 0, 3.0), (1, 2, 4.0), (2, 0, 5.0), (2, 1, 6.0)]
        {
            s.record(i, j, v);
        }
        assert_eq!(s.mean_vector(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let m = s.mean_matrix().unwrap();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 1), 6.0);
    }

    #[test]
    fn unmeasured_links_never_price_cheaper_than_measured_ones() {
        // Focused/partial stats: links (0,1) and (1,0) measured, link
        // (0,2)/(2,0) probed but dark, everything else never attempted.
        let mut s = PairwiseStats::new(3);
        s.record(0, 1, 7.5);
        s.record(0, 1, 8.5);
        s.record(1, 0, 9.0);
        s.record_attempt(0, 2);
        s.record_timeout(0, 2);
        s.record_attempt(2, 0);
        s.record_timeout(2, 0);
        // A never-attempted link is an error, not a silent 0.0.
        assert!(matches!(s.mean_matrix(), Err(CostError::Unmeasured { i: 1, j: 2 })));
        // Complete the probe ledger: every remaining link attempted-dark.
        s.record_attempt(1, 2);
        s.record_attempt(2, 1);
        let m = s.mean_matrix().unwrap();
        let cheapest_measured = m.get(0, 1).min(m.get(1, 0));
        for (i, j) in [(0, 2), (2, 0), (1, 2), (2, 1)] {
            assert_eq!(m.get(i, j), f64::INFINITY);
            assert!(m.get(i, j) > cheapest_measured, "unmeasured ({i},{j}) priced cheaper");
        }
        // Same rule under the other metrics.
        assert_eq!(s.mean_plus_sd_matrix().unwrap().get(0, 2), f64::INFINITY);
        assert_eq!(s.p99_matrix().unwrap().get(2, 1), f64::INFINITY);
    }

    #[test]
    fn ci_accessor_matches_columns_and_matrix() {
        let mut s = PairwiseStats::new(3);
        for x in [4.0, 5.0, 6.0, 5.0, 4.5, 5.5] {
            s.record(0, 1, x);
            s.record_attempt(0, 1);
        }
        s.record(1, 0, 3.0);
        let ci = s.ci(0, 1, 0.95);
        assert_eq!(ci.count(), 6);
        assert!(ci.bounded());
        assert!(ci.covers(5.0));
        assert!(ci.lower() > 0.0 && ci.upper() < 50.0);
        // One sample: unbounded, per the count < 2 rule.
        assert!(!s.ci(1, 0, 0.95).bounded());
        // Unprobed: unbounded with zero mean.
        assert!(!s.ci(2, 1, 0.95).bounded());
        // The flat matrix agrees cell-for-cell and pins the diagonal.
        let m = s.ci_matrix(0.95);
        assert_eq!(m.len(), 9);
        assert_eq!(m[1], ci);
        assert_eq!(m[0], crate::ci::LinkCi::exact(0.0, 0.95));
    }

    #[test]
    fn empty_link_view_reads_like_an_empty_estimate() {
        let s = PairwiseStats::new(4);
        let l = s.link(2, 3);
        assert_eq!(l.count(), 0);
        assert_eq!(l.mean(), 0.0);
        assert_eq!(l.sd(), 0.0);
        assert_eq!(l.p99(), 0.0);
        assert_eq!(l.attempts(), 0);
        assert_eq!(l.loss_rate(), 0.0);
        // No sketch has been allocated for any link yet.
        assert_eq!(s.sketches.len(), 0);
    }

    #[test]
    fn sketches_allocate_lazily_per_covered_link() {
        let mut s = PairwiseStats::new(10);
        assert_eq!(s.sketches.len(), 0);
        s.record(0, 1, 1.0);
        s.record(0, 1, 2.0);
        s.record(3, 4, 5.0);
        // One sketch per covered link, not per sample or per link slot.
        assert_eq!(s.sketches.len(), 2);
        assert_eq!(s.covered_links(), 2);
        // Attempts alone never allocate a sketch.
        s.record_attempt(5, 6);
        s.record_timeout(5, 6);
        assert_eq!(s.sketches.len(), 2);
    }

    #[test]
    fn running_counters_match_a_full_scan() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 12;
        let mut s = PairwiseStats::new(n);
        for _ in 0..2000 {
            let i = rng.random_range(0..n);
            let j = (i + 1 + rng.random_range(0..n - 1)) % n;
            match rng.random_range(0..3u32) {
                0 => s.record(i, j, rng.random::<f64>() * 10.0),
                1 => s.record_attempt(i, j),
                _ => s.record_timeout(i, j),
            }
        }
        // The getters carry debug assertions against the scan; cross-check
        // explicitly so the release profile is covered too.
        assert_eq!(s.total_samples(), s.count.iter().sum::<u64>());
        assert_eq!(s.total_attempts(), s.attempts.iter().sum::<u64>());
        assert_eq!(s.total_timeouts(), s.timeouts.iter().sum::<u64>());
        assert_eq!(s.covered_links(), s.count.iter().filter(|&&c| c > 0).count());
        assert_eq!(s.attempted_links(), s.attempts.iter().filter(|&&a| a > 0).count());
    }

    #[test]
    fn bulk_attempt_and_timeout_match_the_loop_forms() {
        let mut bulk = PairwiseStats::new(4);
        let mut looped = PairwiseStats::new(4);
        bulk.record_attempts(0, 1, 5);
        bulk.record_timeouts(0, 1, 2);
        // k = 0 is a no-op and must not mark the link attempted.
        bulk.record_attempts(2, 3, 0);
        bulk.record_timeouts(2, 3, 0);
        for _ in 0..5 {
            looped.record_attempt(0, 1);
        }
        for _ in 0..2 {
            looped.record_timeout(0, 1);
        }
        assert_eq!(bulk.link(0, 1).attempts(), looped.link(0, 1).attempts());
        assert_eq!(bulk.link(0, 1).timeouts(), looped.link(0, 1).timeouts());
        assert_eq!(bulk.total_attempts(), 5);
        assert_eq!(bulk.total_timeouts(), 2);
        assert_eq!(bulk.attempted_links(), 1);
    }

    #[test]
    fn merge_batches_matches_serial_replay_at_any_worker_count() {
        let n = 8;
        for workers in [1usize, 2, 3, 5, 8] {
            let mut rng = StdRng::seed_from_u64(42);
            let mut serial = PairwiseStats::new(n);
            let mut batches = Vec::new();
            for src in 0..n {
                for dst in 0..n {
                    if src == dst || rng.random::<f64>() < 0.3 {
                        continue;
                    }
                    let attempts = rng.random_range(0..6u64);
                    let timeouts = rng.random_range(0..=attempts.min(2));
                    let rtts: Vec<f64> = (0..rng.random_range(0..20usize))
                        .map(|_| rng.random::<f64>() * 10.0)
                        .collect();
                    // Serial oracle replays in the same per-link order the
                    // merge contract promises: attempts, timeouts, samples.
                    for _ in 0..attempts {
                        serial.record_attempt(src, dst);
                    }
                    for _ in 0..timeouts {
                        serial.record_timeout(src, dst);
                    }
                    for &r in &rtts {
                        serial.record(src, dst, r);
                    }
                    batches.push(LinkBatch { src, dst, attempts, timeouts, rtts });
                }
            }
            let mut merged = PairwiseStats::new(n);
            merged.merge_batches(batches, workers);
            // Every column bit-for-bit, plus the running aggregates
            // (whose getters debug-assert against a full column scan).
            assert_eq!(merged.count, serial.count, "workers {workers}");
            assert_eq!(merged.attempts, serial.attempts);
            assert_eq!(merged.timeouts, serial.timeouts);
            for idx in 0..n * n {
                assert_eq!(merged.mean[idx].to_bits(), serial.mean[idx].to_bits());
                assert_eq!(merged.m2[idx].to_bits(), serial.m2[idx].to_bits());
            }
            assert_eq!(merged.total_samples(), serial.total_samples());
            assert_eq!(merged.total_attempts(), serial.total_attempts());
            assert_eq!(merged.total_timeouts(), serial.total_timeouts());
            assert_eq!(merged.covered_links(), serial.covered_links());
            assert_eq!(merged.attempted_links(), serial.attempted_links());
            for src in 0..n {
                for dst in 0..n {
                    if src != dst {
                        assert_eq!(
                            merged.link(src, dst).p99().to_bits(),
                            serial.link(src, dst).p99().to_bits(),
                            "p99 {src}→{dst} workers {workers}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spilling_frees_slots_and_preserves_welford_columns() {
        let mut s = PairwiseStats::new(6);
        for i in 0..200 {
            s.record(0, 1, 1.0 + (i % 7) as f64);
        }
        s.record(2, 3, 5.0);
        let mean_before = s.link(0, 1).mean();
        let count_before = s.link(0, 1).count();
        assert_eq!(s.live_sketches(), 2);
        s.advance_tick();
        // Horizon 2: one tick of quiet is not old enough yet.
        assert_eq!(s.spill_quiet(2), 0);
        s.advance_tick();
        assert_eq!(s.spill_quiet(2), 2);
        assert_eq!(s.live_sketches(), 0);
        // Welford answers unchanged; p99 degrades to the mean+SD proxy.
        assert_eq!(s.link(0, 1).mean(), mean_before);
        assert_eq!(s.link(0, 1).count(), count_before);
        assert_eq!(s.link(0, 1).p99(), s.link(0, 1).mean_plus_sd());
        assert!(s.link(0, 1).p99() > 0.0);
        let m = s.p99_matrix();
        // (0,1) is covered, so the matrix prices it as the proxy — the
        // other links were never attempted, hence the Unmeasured error.
        assert!(m.is_err());
        // A fresh sample re-allocates through the free list: the table
        // does not grow, and the new sketch starts from scratch.
        let table = s.sketches.len();
        s.record(0, 1, 3.0);
        assert_eq!(s.sketches.len(), table);
        assert_eq!(s.live_sketches(), 1);
        assert_eq!(s.link(0, 1).p99(), 3.0);
        assert_eq!(s.link(0, 1).count(), count_before + 1);
    }

    #[test]
    fn resident_bytes_counts_touched_pages_not_capacity() {
        let mut s = PairwiseStats::new(64);
        let empty = s.resident_bytes();
        assert!(empty < 4096, "empty plane should be near-free, got {empty}");
        // The logical view is the full columns regardless.
        assert!(s.memory_bytes() >= 64 * 64 * 44);
        s.record(0, 1, 1.0);
        let one = s.resident_bytes();
        assert!(one >= empty + 5 * 4096 + 2048, "first touch materialises the page");
        // A second link in the same 512-link page costs only its sketch.
        s.record(0, 2, 1.0);
        assert!(s.resident_bytes() - one < 1024);
    }

    #[test]
    fn memory_accounting_stays_within_the_per_link_budget() {
        let n = 64;
        let s = PairwiseStats::new(n);
        // 5 × 8-byte columns + the 4-byte sketch slot = 44 bytes per link.
        let per_link = 44;
        assert!(s.memory_bytes() >= n * n * per_link);
        assert!(s.memory_bytes() < n * n * per_link + 512, "unexpected overhead");
        // The old AoS layout pays ~4x more for the same empty plane.
        let aos_per_link = std::mem::size_of::<aos::LinkEstimate>();
        assert!(aos_per_link > 3 * per_link, "aos link is {aos_per_link} bytes");
    }
}
