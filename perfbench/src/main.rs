//! `perfbench` — the repository benchmark of the ClouDiA advisor.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-apps|wide-pool|online-drift|online-lossy> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one caller in a closed loop: the caller issues the next
//! op (an advise call on the batch workloads, an epoch on the online
//! ones) only after the previous one returned. Ops run in fixed *passes*
//! — the same inputs in the same order — until `--seconds` have gone by,
//! so every run completes whole passes and the op mix never depends on
//! where the clock stopped. Inputs come from `--seed` alone.
//!
//! Every op's output is checked; a failed check counts the op as failed.
//! Quality figures come from the first pass; every later pass must
//! reproduce it bit for bit (the determinism self-check), and any figure
//! that moved is named on stderr.
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` alternates traced and untraced passes and reports the
//! per-layer metrics from the spans of the traced ones (see
//! [`trace`]); the untraced passes give the tracing overhead. Spans and a
//! snapshot of the program's own telemetry counters are written to
//! `.bench_out/` at the end.
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod batch;
mod online;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use cloudia_obs::MetricValue;

/// A run stops starting new passes after this many wall seconds, so it
/// ends well inside its time limit even on a slow machine.
const HARD_STOP_S: f64 = 120.0;

/// End-to-end metrics, reported with `--trace 0`:
///
/// * `setup_s` — median of several set-ups (boot and allocate the
///   clouds; online: also the hour-0 sweep and solve and the recorded
///   trajectory);
/// * `ops_per_s` — median over passes of ops per second of op wall time;
/// * `op_latency_p50_s`, `op_latency_tail_s` — median op wall time, and
///   the workload's fixed tail percentile, which the run keeps going
///   until at least ten ops lie beyond;
/// * `deploy_cost_ms` — batch: mean ground-truth objective of the advised
///   plans; online: `OnlineAdvisor::time_averaged_cost`, migrations
///   included;
/// * `cost_vs_default` — advised cost over the default's: batch, the
///   allocation-order plan (the paper's baseline); online, the
///   never-migrate control. Below 1 means the advisor helped. A ratio,
///   not `1 - ratio`, so the figure never sits at 0;
/// * `app_time_ratio` — the `workloads` application model's time under
///   the advised plan over its time under the default plan (paper Fig.
///   12's metric; the online workloads run the mesh model on every
///   snapshot);
/// * `probe_round_trips_per_op`, `measure_sim_s_per_op` — probing spent,
///   in round trips and in simulated seconds a tenant would wait;
/// * `ok_ops_ratio` — ops that passed every check over ops attempted
///   (the complement of the failed-op ratio, so it is never 0);
/// * `peak_rss_mb` — the process's resident-memory high-water mark.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_latency_p50_s", "s"),
    ("op_latency_tail_s", "s"),
    ("deploy_cost_ms", "ms"),
    ("cost_vs_default", "ratio"),
    ("app_time_ratio", "ratio"),
    ("probe_round_trips_per_op", "count"),
    ("measure_sim_s_per_op", "s"),
    ("ok_ops_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer a workload
/// never enters reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("netsim.setup_s", "s"),
    ("core.measure_s", "s/op"),
    ("cost.extract_s", "s/op"),
    ("core.search_s", "s/op"),
    ("measure.stages", "count/op"),
    ("measure.stage_s_mean", "s"),
    ("measure.merge_ms", "ms/op"),
    ("measure.round_trips", "count/op"),
    ("measure.sim_ms", "ms/op"),
    ("measure.prune_calls", "count/op"),
    ("measure.prune_eval_s", "s/op"),
    ("measure.prune_eval_s_per_call", "s"),
    ("measure.prune_saved_ratio", "ratio"),
    ("measure.delivered_ratio", "ratio"),
    ("measure.one_worker_time_ratio", "ratio"),
    ("solver.explored", "count/op"),
    ("solver.cp_s_per_node", "s"),
    ("solver.mip_s_per_node", "s"),
    ("solver.proven_ratio", "ratio"),
    ("online.stream_s", "s/op"),
    ("online.step_self_s", "s/op"),
    ("online.resolves", "count/pass"),
    ("online.resolve_accept_ratio", "ratio"),
    ("online.resolve_s", "s"),
    ("online.repair_budget_hits", "count"),
    ("online.migrations", "count/pass"),
    ("online.nodes_moved", "count/pass"),
    ("online.evacuations", "count/pass"),
    ("online.link_dark_events", "count/pass"),
    ("online.spot_checks", "count/pass"),
    ("online.detector_fires", "count/pass"),
    ("workloads.app_ms_default", "ms"),
    ("workloads.app_ms_advised", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("share.core_measure", "ratio"),
    ("share.measure_stages", "ratio"),
    ("share.search", "ratio"),
    ("share.prune", "ratio"),
    ("share.step_self", "ratio"),
    ("det.mismatches", "count"),
];

/// Quality figures of one pass. All are deterministic given the seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Mean ground-truth objective of the advised plans (ms).
    pub deploy_cost_ms: f64,
    /// Advised cost over the default plan's cost.
    pub cost_vs_default: f64,
    /// Application-model time under the advised plan over the default's
    /// (only evaluated on the first pass; 0 elsewhere).
    pub app_time_ratio: f64,
    /// Application-model time under the default plan (ms).
    pub app_ms_default: f64,
    /// Application-model time under the advised plan (ms).
    pub app_ms_advised: f64,
    /// Probe round trips per op.
    pub round_trips_per_op: f64,
    /// Simulated probing seconds per op.
    pub sim_s_per_op: f64,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of each op, in order.
    pub latencies: Vec<f64>,
    /// Ops whose output failed a check.
    pub failed: u64,
    /// Quality figures.
    pub quality: Quality,
    /// The deterministic figures the self-check compares across passes.
    pub det: Vec<(&'static str, f64)>,
    /// Workload-specific per-layer figures.
    pub layers: Vec<(&'static str, f64)>,
    /// Repairs that ran into their wall-clock budget (results may then
    /// depend on machine load).
    pub budget_hits: u64,
}

/// A benchmark workload after set-up.
pub trait Bench {
    /// Runs one pass of ops. `traced` records spans; `evaluate` also
    /// runs the application models (first pass only); op ids start at
    /// `first_op`.
    fn pass(&mut self, traced: bool, evaluate: bool, first_op: u64) -> Pass;

    /// The op span that encloses everything else in a traced op.
    fn op_span(&self) -> &'static str;

    /// Extra per-layer figures measured once per run, outside any op
    /// (called after the first traced pass).
    fn side_layers(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Several set-ups run back to back as one pass, so one seed's figures
/// average over more than one scenario.
pub struct Several(pub Vec<Box<dyn Bench>>);

impl Bench for Several {
    fn pass(&mut self, traced: bool, evaluate: bool, first_op: u64) -> Pass {
        let mut all = Pass::default();
        let k = self.0.len() as f64;
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for bench in &mut self.0 {
            let p = bench.pass(traced, evaluate, first_op + all.latencies.len() as u64);
            all.latencies.extend(p.latencies);
            all.failed += p.failed;
            all.budget_hits += p.budget_hits;
            all.det.extend(p.det);
            for (name, v) in p.layers {
                *layers.entry(name).or_default() += v / k;
            }
            let (a, q) = (&mut all.quality, p.quality);
            a.deploy_cost_ms += q.deploy_cost_ms / k;
            a.cost_vs_default += q.cost_vs_default / k;
            a.app_time_ratio += q.app_time_ratio / k;
            a.app_ms_default += q.app_ms_default / k;
            a.app_ms_advised += q.app_ms_advised / k;
            a.round_trips_per_op += q.round_trips_per_op / k;
            a.sim_s_per_op += q.sim_s_per_op / k;
        }
        all.layers = layers.into_iter().collect();
        all
    }

    fn op_span(&self) -> &'static str {
        self.0[0].op_span()
    }
}

/// A workload: its set-up, and the tail percentile its op count
/// supports.
struct Spec {
    setup: fn(u64) -> (Box<dyn Bench>, f64),
    /// Set-ups per run; the median is reported. Short set-ups repeat
    /// more often, so the median spans more than one moment of the host.
    setup_reps: usize,
    /// The fixed tail percentile (in (0, 1)).
    tail: f64,
    /// The share metric of the layer this workload is meant to stress.
    hot: &'static str,
}

fn spec(workload: &str) -> Option<Spec> {
    Some(match workload {
        "paper-apps" => {
            Spec { setup: batch::paper_apps, setup_reps: 25, tail: 0.83, hot: "share.search" }
        }
        "wide-pool" => {
            Spec { setup: batch::wide_pool, setup_reps: 9, tail: 0.75, hot: "share.core_measure" }
        }
        "online-drift" => {
            Spec { setup: online::drift, setup_reps: 11, tail: 0.9, hot: "share.prune" }
        }
        "online-lossy" => {
            Spec { setup: online::lossy, setup_reps: 3, tail: 0.75, hot: "share.step_self" }
        }
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The median (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile and how many values lie beyond it.
fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The least op count at which the tail percentile has 10 ops beyond it.
fn min_ops_for_tail(p: f64) -> usize {
    (1..).find(|&n| n - (n as f64 * p).ceil() as usize >= 10).expect("p < 1")
}

/// The process's resident-memory high-water mark in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sums of the program's telemetry: counters by value, histograms by
/// the sum of their observations.
fn obs_sums() -> BTreeMap<String, f64> {
    cloudia_obs::metrics()
        .snapshot()
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(c) => Some((name, c as f64)),
            MetricValue::Histogram(h) => Some((name, h.count() as f64 * h.mean())),
            MetricValue::Gauge(_) => None,
        })
        .collect()
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Span totals of the traced passes, by span name.
#[derive(Default)]
struct SpanTotals {
    dur_s: BTreeMap<&'static str, f64>,
    self_s: BTreeMap<&'static str, f64>,
    count: BTreeMap<&'static str, u64>,
}

impl SpanTotals {
    fn add(&mut self, spans: &[trace::Span]) {
        for (s, own) in spans.iter().zip(trace::self_ns(spans)) {
            *self.dur_s.entry(s.name).or_default() += s.dur_ns as f64 * 1e-9;
            *self.self_s.entry(s.name).or_default() += own as f64 * 1e-9;
            *self.count.entry(s.name).or_default() += 1;
        }
    }

    fn dur(&self, name: &str) -> f64 {
        self.dur_s.get(name).copied().unwrap_or(0.0)
    }

    fn own(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }
}

/// Checks that `plan` places each of `nodes` nodes on its own instance
/// below `instances`.
pub fn check_plan(plan: &[u32], nodes: usize, instances: usize) -> Result<(), String> {
    if plan.len() != nodes {
        return Err(format!("plan covers {} of {nodes} nodes", plan.len()));
    }
    let mut used = vec![false; instances];
    for &j in plan {
        let slot = used.get_mut(j as usize).ok_or(format!("instance {j} out of range"))?;
        if std::mem::replace(slot, true) {
            return Err(format!("instance {j} used twice"));
        }
    }
    Ok(())
}

/// FNV-1a over instance ids, kept to 53 bits so it survives as an `f64`.
pub fn plan_hash(ids: impl Iterator<Item = u32>) -> f64 {
    let h = ids.fold(0xcbf2_9ce4_8422_2325u64, |h, j| {
        (h ^ u64::from(j)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (h >> 11) as f64
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn write_trace_file(args: &Args, spans: &[trace::Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{}-seed{}-trace.jsonl", args.workload, args.seed);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            s.op, s.name, parent, s.start_ns, s.dur_ns
        )?;
    }
    writeln!(out, "{{\"obs\":{}}}", cloudia_obs::metrics().snapshot_json())?;
    out.flush()?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-apps|wide-pool|online-drift|online-lossy> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };

    // Set-up, several times; the median is the reported figure.
    let mut setup_s = Vec::new();
    let mut netsim_s = Vec::new();
    let mut bench = None;
    for _ in 0..spec.setup_reps {
        drop(bench.take());
        let t = Instant::now();
        let (b, netsim) = (spec.setup)(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        netsim_s.push(netsim);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    // The closed loop.
    let min_ops = min_ops_for_tail(spec.tail);
    let min_passes = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut ops = 0u64;
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    // Ops per second of each pass; every pass runs the same op mix.
    let mut untraced_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut first: Option<Pass> = None;
    let mut mismatches = 0u64;
    let mut budget_hits = 0u64;
    let mut totals = SpanTotals::default();
    let mut all_spans = Vec::new();
    let mut traced_ops = 0u64;
    let mut traced_prune_calls: Vec<u64> = Vec::new();
    let mut layer_sums: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut obs_delta: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut side_layers = Vec::new();
    let mut passes = 0usize;
    loop {
        let traced = args.trace && passes.is_multiple_of(2);
        let before = traced.then(obs_sums);
        let pass = bench.pass(traced, passes == 0, ops);
        let n = pass.latencies.len() as u64;
        let rate = n as f64 / pass.latencies.iter().sum::<f64>();
        if traced {
            let after = obs_sums();
            let before = before.expect("taken above");
            for name in [
                "sweep.stage_merge_ms",
                "sweep.messages_sent",
                "sweep.messages_delivered",
                "solver.portfolio.nodes_explored",
            ] {
                *obs_delta.entry(name).or_default() += delta(&before, &after, name);
            }
            let spans = trace::take();
            totals.add(&spans);
            traced_prune_calls
                .push(spans.iter().filter(|s| s.name == "measure.prune").count() as u64);
            all_spans.extend(spans);
            traced_ops += n;
            traced_rates.push(rate);
            for &(name, v) in &pass.layers {
                let e = layer_sums.entry(name).or_default();
                e.0 += v;
                e.1 += 1;
            }
            if side_layers.is_empty() {
                side_layers = bench.side_layers();
            }
        } else {
            untraced_rates.push(rate);
        }
        ops += n;
        failed += pass.failed;
        budget_hits += pass.budget_hits;
        latencies.extend_from_slice(&pass.latencies);
        match &first {
            None => first = Some(pass),
            Some(f) => {
                for ((name, a), (_, b)) in f.det.iter().zip(&pass.det) {
                    if a.to_bits() != b.to_bits() {
                        mismatches += 1;
                        eprintln!(
                            "perfbench: determinism: {name} moved between passes 1 and {}: \
                             {a} -> {b}",
                            passes + 1
                        );
                    }
                }
            }
        }
        passes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= args.seconds && ops as usize >= min_ops && passes >= min_passes;
        if enough || elapsed >= HARD_STOP_S {
            break;
        }
    }
    if traced_prune_calls.windows(2).any(|w| w[0] != w[1]) {
        mismatches += 1;
        eprintln!("perfbench: determinism: prune calls moved between traced passes");
    }
    if mismatches > 0 && budget_hits > 0 {
        eprintln!(
            "perfbench: {budget_hits} repairs hit their wall-clock budget; their results \
             depend on machine load"
        );
    }
    let first = first.expect("at least one pass");
    let q = first.quality;

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let ops_t = traced_ops as f64;
        let op_total = totals.dur(bench.op_span());
        let stage_total = totals.dur("measure.stage") + totals.dur("measure.stage_end");
        let stages = totals.count("measure.stage") as f64;
        let prune_calls = totals.count("measure.prune") as f64;
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        values.insert("netsim.setup_s", median(&netsim_s));
        values.insert("core.measure_s", totals.dur("core.measure") / ops_t);
        values.insert("cost.extract_s", totals.dur("cost.extract") / ops_t);
        values.insert("core.search_s", totals.dur("core.search") / ops_t);
        values.insert("measure.stages", stages / ops_t);
        values.insert("measure.stage_s_mean", ratio(stage_total, stages));
        values.insert("measure.merge_ms", obs_delta["sweep.stage_merge_ms"] / ops_t);
        values.insert("measure.round_trips", q.round_trips_per_op);
        values.insert("measure.sim_ms", q.sim_s_per_op * 1e3);
        values.insert("measure.prune_calls", prune_calls / ops_t);
        values.insert("measure.prune_eval_s", totals.dur("measure.prune") / ops_t);
        values.insert(
            "measure.prune_eval_s_per_call",
            ratio(totals.dur("measure.prune"), prune_calls),
        );
        let sent = obs_delta["sweep.messages_sent"];
        values.insert(
            "measure.delivered_ratio",
            if sent > 0.0 { obs_delta["sweep.messages_delivered"] / sent } else { 1.0 },
        );
        values.insert("solver.explored", obs_delta["solver.portfolio.nodes_explored"] / ops_t);
        values.insert("online.stream_s", totals.dur("online.stream") / ops_t);
        values.insert("online.step_self_s", totals.own("online.step") / ops_t);
        values.insert("online.repair_budget_hits", budget_hits as f64);
        values.insert("workloads.app_ms_default", q.app_ms_default);
        values.insert("workloads.app_ms_advised", q.app_ms_advised);
        values.insert("obs.trace_overhead", median(&untraced_rates) / median(&traced_rates));
        values.insert("share.core_measure", ratio(totals.dur("core.measure"), op_total));
        values.insert("share.measure_stages", ratio(stage_total, op_total));
        values.insert("share.search", ratio(totals.dur("core.search"), op_total));
        values.insert("share.prune", ratio(totals.dur("measure.prune"), op_total));
        values.insert("share.step_self", ratio(totals.own("online.step"), op_total));
        values.insert("det.mismatches", mismatches as f64);
        for (name, (sum, n)) in &layer_sums {
            values.insert(name, sum / *n as f64);
        }
        for &(name, v) in &side_layers {
            values.insert(name, v);
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, values.get(name).copied().unwrap_or(0.0)));
        }
        match write_trace_file(&args, &all_spans) {
            Ok(path) => println!("spans and telemetry snapshot: {path}"),
            Err(e) => eprintln!("perfbench: could not write the trace file: {e}"),
        }
        let shares = [
            "share.core_measure",
            "share.measure_stages",
            "share.search",
            "share.prune",
            "share.step_self",
        ];
        let hottest = shares.into_iter().max_by(|a, b| values[a].total_cmp(&values[b]));
        let hottest = hottest.expect("non-empty");
        println!(
            "layer shares of op time: {}",
            shares.map(|n| format!("{n} {:.1}%", values[n] * 100.0)).join(", ")
        );
        if hottest == spec.hot {
            println!("intended hot layer {} is the hottest", spec.hot);
        } else {
            println!(
                "intended hot layer {} ({:.1}%) is NOT the hottest: {} ({:.1}%)",
                spec.hot,
                values[spec.hot] * 100.0,
                hottest,
                values[hottest] * 100.0
            );
        }
    } else {
        let (tail, beyond) = percentile(&latencies, spec.tail);
        let values = [
            median(&setup_s),
            median(&untraced_rates),
            median(&latencies),
            tail,
            q.deploy_cost_ms,
            q.cost_vs_default,
            q.app_time_ratio,
            q.round_trips_per_op,
            q.sim_s_per_op,
            (ops - failed) as f64 / ops as f64,
            peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, v));
        }
        println!(
            "ops {ops} in {passes} passes; tail = p{:.0} with {beyond} ops beyond it; \
             improvement over default (1 - cost_vs_default) = {:+.4}",
            spec.tail * 100.0,
            1.0 - q.cost_vs_default
        );
    }
    println!(
        "determinism fingerprint: {}",
        first.det.iter().map(|(n, v)| format!("{n}={v}")).collect::<Vec<_>>().join(" ")
    );

    let body = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(*v))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let correct = failed == 0 && metrics.iter().all(|m| m.2.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_ops_beyond_it() {
        for p in [0.75, 0.8, 0.83, 0.9] {
            let n = min_ops_for_tail(p);
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (_, beyond) = percentile(&xs, p);
            assert!(beyond >= 10, "p{p}: {beyond} beyond at n = {n}");
            let (_, fewer) = percentile(&xs[..n - 1], p);
            assert!(fewer < 10, "p{p}: n = {n} is not the least count");
        }
    }

    #[test]
    fn median_and_percentile_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.8), (4.0, 1));
    }

    #[test]
    fn plan_check_rejects_reuse_range_and_length() {
        assert!(check_plan(&[0, 2, 1], 3, 4).is_ok());
        assert!(check_plan(&[0, 2, 2], 3, 4).is_err());
        assert!(check_plan(&[0, 4, 1], 3, 4).is_err());
        assert!(check_plan(&[0, 1], 3, 4).is_err());
    }
}
