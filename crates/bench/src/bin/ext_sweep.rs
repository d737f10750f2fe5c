//! Extension: stage-streaming sweeps with mid-sweep tournament pruning.
//!
//! Three online-advisor arms ride the **identical** drift trajectory and
//! probe randomness (`ReplayStream` over recorded snapshots):
//!
//! * **uniform** — full staged tournament sweeps every epoch, run as an
//!   opaque batch (the pre-streaming behaviour);
//! * **pruned** — the same uniform sweeps, but executed stage by stage on
//!   the streaming driver with the candidate prune rule evaluated
//!   between stages: pairs whose measured quantiles already prove both
//!   endpoints outside every node's candidate pool are dropped while the
//!   sweep is still in flight (deployed/flagged/stale pairs never are);
//! * **anytime** — the pruned sweeps with the error-bounded layer on: a
//!   CI-backed prune rule (condemnation requires interval separation,
//!   not point-estimate separation) plus the anytime early stop that
//!   ends a stage once every remaining prune/pool decision is CI-stable
//!   at 95% confidence;
//! * **focused+pruned** — trigger-driven focused rounds with pruning on
//!   top, the saved round trips re-invested into deeper sampling of
//!   flagged links (`probe_ks` escalation).
//!
//! The scenario — an active drift head followed by a quiet tail, all
//! arms under the same adaptive candidate pool — is the shared
//! [`cloudia_online::scenario::FocusScenario`], the same one `ext_focus`
//! and the differential tests assert, so the contract cannot fork.
//!
//! In `--smoke` mode the bin **asserts** the PR's acceptance criteria:
//! the pruned arm saves ≥ 30 % of uniform's probe round trips while its
//! time-averaged ground-truth deployment cost stays within 2 % of
//! uniform's; the anytime arm saves ≥ 20 % *additional* round trips over
//! the pruned arm while its realized ground-truth cost stays within the
//! stated error bound (`1 + (1 − confidence)` of uniform's); and the
//! telemetry plane's overhead on the measurement hot path stays within
//! 3 % of the `--no-metrics` baseline — the upper bound of a 95%
//! t-interval over paired, order-alternated reps, not one noisy ratio.
//! Exits non-zero otherwise.
//!
//! `--trace PATH` streams the focused+pruned arm's full event history —
//! plus the final metrics snapshot and span log — into a
//! schema-versioned JSONL trace; the machine-readable arm comparison
//! always lands in `BENCH_ext_sweep.json`.

use cloudia_bench::{header, row, write_bench_json, ExtArgs};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_obs::Json;
use cloudia_online::{ArmOptions, FocusScenario, ProbePolicy};

/// Telemetry-on vs telemetry-off wall-time ratio of identical staged
/// sweeps over a scratch network: `(mean, upper)`, the mean of the
/// per-rep ratios and the upper bound of its 95% t-interval. A rep
/// times ~50 ms of sweeps per setting as back-to-back on/off pairs, the
/// order alternating from pair to pair, and takes the median of the
/// pairs' ratios: a preemption that lands inside one sweep spoils one
/// pair, not the rep. The interval then says how far the reps' spread
/// leaves the true ratio uncertain.
fn telemetry_overhead() -> (f64, f64) {
    let net = cloudia_bench::standard_network(cloudia_netsim::Provider::test_quiet(), 24, 7);
    let cfg = MeasureConfig { seed: 7, ..MeasureConfig::default() };
    let scheme = Staged::new(3, 2);
    let time_run = |enabled: bool| {
        cloudia_obs::set_enabled(enabled);
        let t0 = std::time::Instant::now();
        std::hint::black_box(scheme.run(std::hint::black_box(&net), &cfg));
        t0.elapsed().as_secs_f64()
    };
    // Warm both settings (allocator, caches, branch predictors), then
    // size a rep to ~50 ms per setting.
    let warm: f64 = (0..8).map(|i| time_run(i % 2 == 0)).sum::<f64>() / 8.0;
    let runs = ((0.05 / warm.max(1e-9)).ceil() as usize).clamp(16, 4096);
    let reps = 20usize;
    let ratios: Vec<f64> = (0..reps)
        .map(|_| {
            let mut pairs: Vec<f64> = (0..runs)
                .map(|run| {
                    let (on, off) = if run % 2 == 0 {
                        let on = time_run(true);
                        (on, time_run(false))
                    } else {
                        let off = time_run(false);
                        (time_run(true), off)
                    };
                    on / off.max(f64::MIN_POSITIVE)
                })
                .collect();
            let mid = pairs.len() / 2;
            *pairs.select_nth_unstable_by(mid, f64::total_cmp).1
        })
        .collect();
    let n = reps as f64;
    let mean = ratios.iter().sum::<f64>() / n;
    let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let half = cloudia_measure::t_critical(0.95, reps as u64 - 1) * (var / n).sqrt();
    (mean, mean + half)
}

fn main() {
    let args = ExtArgs::parse();
    let (smoke, scale) = (args.smoke, args.scale);
    header("ext-sweep", "mid-sweep tournament pruning vs full batch sweeps", scale);

    let mut scenario = FocusScenario::default();
    if !smoke {
        scenario.mesh = scale.pick((3, 4), (5, 6));
        scenario.instances = scale.pick(56, 120);
        scenario.head_epochs = scale.pick(16, 32);
        scenario.tail_epochs = scale.pick(16, 32);
        scenario.solve_seconds = scale.pick(0.5, 2.0);
    }
    println!(
        "# instance: {}x{} mesh on {} instances, {} active + {} quiet epochs x {} h, repair \
         budget {}s",
        scenario.mesh.0,
        scenario.mesh.1,
        scenario.instances,
        scenario.head_epochs,
        scenario.tail_epochs,
        scenario.epoch_hours,
        scenario.solve_seconds,
    );

    let built = scenario.build();
    let uniform = built.run_arm(ProbePolicy::Uniform);
    let pruned = built.run_arm_with(ArmOptions {
        probe_policy: ProbePolicy::Uniform,
        prune_during_sweep: true,
        spot_check_probes: 0,
        confidence: None,
        anytime: false,
    });
    // The error-bounded arm: CI-backed pruning plus the anytime early
    // stop, at this confidence level. Its realized cost bound is
    // asserted against `1 + (1 - confidence)` under --smoke.
    let confidence = 0.95;
    let anytime = built.run_arm_with(ArmOptions {
        probe_policy: ProbePolicy::Uniform,
        prune_during_sweep: true,
        spot_check_probes: 0,
        confidence: Some(confidence),
        anytime: true,
    });
    let focused_opts = ArmOptions {
        probe_policy: scenario.focused_policy(),
        prune_during_sweep: true,
        spot_check_probes: 0,
        confidence: None,
        anytime: false,
    };
    // With `--trace` the focused+pruned arm streams its full event
    // history into the JSONL trace as it runs.
    let (focused_pruned, recorder) = match args.recorder("ext_sweep") {
        Some(rec) => {
            let (arm, rec) = built.run_arm_traced(focused_opts, rec);
            (arm, Some(rec))
        }
        None => (built.run_arm_with(focused_opts), None),
    };

    println!("policy\tavg_cost_ms\tprobe_round_trips\tsaved\tdeep\tresolves\tmigrations");
    for (name, arm) in [
        ("uniform", &uniform),
        ("pruned", &pruned),
        ("anytime", &anytime),
        ("focused+pruned", &focused_pruned),
    ] {
        row(&[
            name.to_string(),
            format!("{:.4}", arm.avg_cost),
            format!("{}", arm.probes),
            format!("{}", arm.saved_round_trips),
            format!("{}", arm.deep_probe_round_trips),
            format!("{}", arm.resolves),
            format!("{}", arm.migrations),
        ]);
    }
    let savings = 1.0 - pruned.probes as f64 / uniform.probes as f64;
    let cost_ratio = pruned.avg_cost / uniform.avg_cost.max(f64::MIN_POSITIVE);
    println!(
        "# pruned sweeps save {:.1}% of uniform's round trips at {:+.2}% cost",
        savings * 100.0,
        (cost_ratio - 1.0) * 100.0
    );
    let anytime_extra = 1.0 - anytime.probes as f64 / pruned.probes.max(1) as f64;
    let anytime_cost_ratio = anytime.avg_cost / uniform.avg_cost.max(f64::MIN_POSITIVE);
    let error_bound = 1.0 + (1.0 - confidence);
    println!(
        "# anytime sweeps save a further {:.1}% of pruned's round trips at {:+.2}% cost \
         (bound {:+.2}%)",
        anytime_extra * 100.0,
        (anytime_cost_ratio - 1.0) * 100.0,
        (error_bound - 1.0) * 100.0
    );
    println!(
        "# focused+pruned spends {:.1}% of uniform's budget, {} round trips re-invested deep",
        100.0 * focused_pruned.probes as f64 / uniform.probes as f64,
        focused_pruned.deep_probe_round_trips,
    );

    // Telemetry overhead on the measurement hot path: identical staged
    // sweeps with the plane on vs off (`--no-metrics` equivalent).
    // Asserted only under --smoke; reported always.
    let (overhead_ratio, overhead_upper) = telemetry_overhead();
    cloudia_obs::set_enabled(args.metrics_enabled);
    println!(
        "# telemetry overhead on staged sweeps: {:+.2}% vs --no-metrics (95% upper bound \
         {:+.2}%)",
        (overhead_ratio - 1.0) * 100.0,
        (overhead_upper - 1.0) * 100.0
    );

    let arm_json = |arm: &cloudia_online::FocusArm| {
        Json::obj()
            .field("avg_cost_ms", arm.avg_cost)
            .field("probe_round_trips", arm.probes)
            .field("saved_round_trips", arm.saved_round_trips)
            .field("deep_probe_round_trips", arm.deep_probe_round_trips)
            .field("resolves", arm.resolves)
            .field("migrations", arm.migrations)
    };
    let payload = Json::obj()
        .field("instances", scenario.instances)
        .field("epochs", scenario.epochs())
        .field("uniform", arm_json(&uniform))
        .field("pruned", arm_json(&pruned))
        .field("anytime", arm_json(&anytime))
        .field("focused_pruned", arm_json(&focused_pruned))
        .field("savings", savings)
        .field("cost_ratio", cost_ratio)
        .field("confidence", confidence)
        .field("anytime_savings_vs_pruned", anytime_extra)
        .field("anytime_cost_ratio", anytime_cost_ratio)
        .field("telemetry_overhead_ratio", overhead_ratio)
        .field("telemetry_overhead_upper", overhead_upper);
    match write_bench_json("ext_sweep", payload.clone()) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: cannot write BENCH_ext_sweep.json: {e}");
            std::process::exit(1);
        }
    }
    if let Some(mut rec) = recorder {
        rec.record("bench", payload);
        rec.record_metrics_snapshot(cloudia_obs::metrics());
        rec.flush_global_spans();
        if let Err(e) = rec.finish() {
            eprintln!("FAIL: trace write failed: {e}");
            std::process::exit(1);
        }
    }

    if smoke {
        let mut failures = Vec::new();
        if savings < 0.30 {
            failures.push(format!(
                "pruning saved only {:.1}% of uniform's round trips (< 30%)",
                savings * 100.0
            ));
        }
        if cost_ratio > 1.02 {
            failures.push(format!(
                "pruned time-averaged cost {:.4} is {:.2}% above uniform's {:.4} (> 2%)",
                pruned.avg_cost,
                (cost_ratio - 1.0) * 100.0,
                uniform.avg_cost
            ));
        }
        if pruned.saved_round_trips == 0 {
            failures.push("the pruned arm never reported mid-sweep savings".to_string());
        }
        if anytime_extra < 0.20 {
            failures.push(format!(
                "anytime sweeps saved only {:.1}% additional round trips over pruned (< 20%)",
                anytime_extra * 100.0
            ));
        }
        if anytime_cost_ratio > error_bound {
            failures.push(format!(
                "anytime time-averaged cost {:.4} is {:.2}% above uniform's {:.4}, outside the \
                 {:.0}% error bound",
                anytime.avg_cost,
                (anytime_cost_ratio - 1.0) * 100.0,
                uniform.avg_cost,
                (error_bound - 1.0) * 100.0
            ));
        }
        if overhead_upper > 1.03 {
            failures.push(format!(
                "telemetry overhead on staged sweeps may exceed 3%: {:+.2}%, 95% upper bound \
                 {:+.2}%",
                (overhead_ratio - 1.0) * 100.0,
                (overhead_upper - 1.0) * 100.0
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "# smoke OK: >= 30% round trips saved, cost within 2% of full sweeps, anytime \
             saves >= 20% more within its error bound, telemetry overhead within 3%"
        );
    }
}
