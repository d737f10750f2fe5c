//! The traced run: an in-memory span recorder and the timing wrappers
//! that put spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's side of each public trait
//! (`Scheme`/`SweepDriver`, `PruneRule`, `StopRule`,
//! `MeasurementStream`), never from inside the program. Every call runs
//! on the benchmark's one caller thread, so a single span stack gives
//! each span its parent. A layer's self time is its span's duration
//! minus the durations of its direct children.

use std::cell::RefCell;
use std::time::Instant;

use cloudia_measure::{
    MeasureConfig, MeasurementReport, PairwiseStats, PruneRule, Scheme, StopRule, SweepDriver,
};
use cloudia_netsim::Network;
use cloudia_online::{EpochMeasurement, MeasurementStream};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (advise call or epoch) the call belongs to.
    pub op: u64,
    /// Layer boundary, e.g. `measure.stage`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Recorder {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        op: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Sets the op id later spans are keyed by.
pub fn set_op(op: u64) {
    RECORDER.with(|r| r.borrow_mut().op = op);
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_by(f, |_| name)
}

/// Runs `f` inside a span whose name is chosen from `f`'s result.
pub fn span_by<R>(f: impl FnOnce() -> R, name: impl FnOnce(&R) -> &'static str) -> R {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let span =
            Span { op: r.op, name: "", parent: r.stack.last().copied(), start_ns, dur_ns: 0 };
        r.spans.push(span);
        let idx = r.spans.len() - 1;
        r.stack.push(idx);
        idx
    });
    let out = f();
    let name = name(&out);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        let span = &mut r.spans[idx];
        span.dur_ns = end_ns - span.start_ns;
        span.name = name;
        r.stack.pop();
    });
    out
}

/// Drains every span recorded so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns);
        }
    }
    own
}

/// A scheme whose drivers time every stage when `traced` is set; with
/// `traced` off it hands out the inner driver untouched.
pub struct Probe<S> {
    /// The wrapped scheme.
    pub inner: S,
    /// Whether stage spans are recorded.
    pub traced: bool,
}

impl<S: Scheme> Scheme for Probe<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn driver<'n>(
        &self,
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
    ) -> Box<dyn SweepDriver + 'n> {
        let driver = self.inner.driver(net, cfg, stats);
        if self.traced {
            Box::new(TracedDriver(driver))
        } else {
            driver
        }
    }
}

/// A borrowed scheme, so a caller's `&dyn Scheme` can be wrapped.
pub struct SchemeRef<'a>(pub &'a dyn Scheme);

impl Scheme for SchemeRef<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn driver<'n>(
        &self,
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
    ) -> Box<dyn SweepDriver + 'n> {
        self.0.driver(net, cfg, stats)
    }
}

/// Times each [`SweepDriver::step`] as a `measure.stage` span. A step
/// that reports the schedule exhausted is recorded as `measure.stage_end`.
struct TracedDriver<'n>(Box<dyn SweepDriver + 'n>);

impl SweepDriver for TracedDriver<'_> {
    fn scheme_name(&self) -> &'static str {
        self.0.scheme_name()
    }

    fn step(&mut self) -> bool {
        let inner = &mut self.0;
        span_by(|| inner.step(), |&more| if more { "measure.stage" } else { "measure.stage_end" })
    }

    fn stats(&self) -> &PairwiseStats {
        self.0.stats()
    }

    fn round_trips(&self) -> u64 {
        self.0.round_trips()
    }

    fn elapsed_ms(&self) -> f64 {
        self.0.elapsed_ms()
    }

    fn remaining_pairs(&self) -> Vec<(u32, u32)> {
        self.0.remaining_pairs()
    }

    fn planned_remaining(&self) -> u64 {
        self.0.planned_remaining()
    }

    fn retain_pairs(&mut self, keep: &mut dyn FnMut(u32, u32) -> bool) -> u64 {
        self.0.retain_pairs(keep)
    }

    fn finish(self: Box<Self>) -> MeasurementReport {
        self.0.finish()
    }
}

/// Times each [`PruneRule::prune`] as a `measure.prune` span.
struct TracedPrune<'a>(&'a dyn PruneRule);

impl PruneRule for TracedPrune<'_> {
    fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
        span("measure.prune", || self.0.prune(stats, remaining))
    }
}

/// Times each [`StopRule::stable`] as a `measure.stop` span. The
/// per-pair `must_keep` query is forwarded untimed.
struct TracedStop<'a>(&'a dyn StopRule);

impl StopRule for TracedStop<'_> {
    fn stable(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> bool {
        span("measure.stop", || self.0.stable(stats, remaining))
    }

    fn must_keep(&self, a: u32, b: u32) -> bool {
        self.0.must_keep(a, b)
    }
}

/// Simulated probing the stream carried out, tallied from what each
/// epoch reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamTally {
    /// Simulated milliseconds of measurement.
    pub sim_ms: f64,
    /// Round trips reported by epoch measurements.
    pub round_trips: u64,
    /// Round trips mid-sweep pruning reported saved.
    pub saved_round_trips: u64,
}

/// A measurement stream that tallies what each epoch measured and, when
/// `traced`, times every call as an `online.stream` span and wraps the
/// caller's scheme and rules in their timing wrappers.
pub struct Stream<S> {
    /// The wrapped stream.
    pub inner: S,
    /// Whether spans are recorded.
    pub traced: bool,
    /// What the epochs so far measured.
    pub tally: StreamTally,
}

impl<S: MeasurementStream> Stream<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, traced: bool) -> Self {
        Self { inner, traced, tally: StreamTally::default() }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut S, bool) -> R) -> R {
        if self.traced {
            let inner = &mut self.inner;
            span("online.stream", || f(inner, true))
        } else {
            f(&mut self.inner, false)
        }
    }

    fn count(&mut self, m: EpochMeasurement) -> EpochMeasurement {
        self.tally.sim_ms += m.elapsed_ms;
        self.tally.round_trips += m.round_trips;
        self.tally.saved_round_trips += m.saved_round_trips;
        m
    }
}

impl<S: MeasurementStream> MeasurementStream for Stream<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn network(&self) -> &Network {
        self.inner.network()
    }

    fn cumulative(&self) -> &PairwiseStats {
        self.inner.cumulative()
    }

    fn next_epoch(&mut self) -> EpochMeasurement {
        let m = self.timed(|s, _| s.next_epoch());
        self.count(m)
    }

    fn next_epoch_with(&mut self, scheme: &dyn Scheme) -> EpochMeasurement {
        let m =
            self.timed(|s, traced| s.next_epoch_with(&Probe { inner: SchemeRef(scheme), traced }));
        self.count(m)
    }

    fn next_epoch_pruned(
        &mut self,
        scheme: Option<&dyn Scheme>,
        rule: &dyn PruneRule,
    ) -> EpochMeasurement {
        let m = self.timed(|s, traced| {
            let probe = scheme.map(|sc| Probe { inner: SchemeRef(sc), traced });
            let probe_ref = probe.as_ref().map(|p| p as &dyn Scheme);
            if traced {
                s.next_epoch_pruned(probe_ref, &TracedPrune(rule))
            } else {
                s.next_epoch_pruned(probe_ref, rule)
            }
        });
        self.count(m)
    }

    fn next_epoch_anytime(
        &mut self,
        scheme: Option<&dyn Scheme>,
        rule: &dyn PruneRule,
        stop: &dyn StopRule,
    ) -> EpochMeasurement {
        let m = self.timed(|s, traced| {
            let probe = scheme.map(|sc| Probe { inner: SchemeRef(sc), traced });
            let probe_ref = probe.as_ref().map(|p| p as &dyn Scheme);
            if traced {
                s.next_epoch_anytime(probe_ref, &TracedPrune(rule), &TracedStop(stop))
            } else {
                s.next_epoch_anytime(probe_ref, rule, stop)
            }
        });
        self.count(m)
    }

    fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
        self.timed(|s, _| s.spot_check(src, dst, probes))
    }

    fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
        self.timed(|s, _| s.spot_check_loss(src, dst, probes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = |parent, dur_ns| Span { op: 0, name: "x", parent, start_ns: 0, dur_ns };
        let spans = [s(None, 100), s(Some(0), 30), s(Some(1), 10), s(Some(0), 20)];
        assert_eq!(self_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_op() {
        take();
        set_op(7);
        span("outer", || span_by(|| 1, |&v| if v == 1 { "inner" } else { "other" }));
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].op), ("inner", Some(0), 7));
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
    }
}
