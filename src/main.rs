//! `cloudia` — command-line deployment advisor.
//!
//! Runs the full ClouDiA pipeline against a simulated public-cloud region
//! and prints the advised deployment plan.
//!
//! ```sh
//! cloudia --graph mesh:5x5 --objective longest-link --provider ec2 \
//!         --over-allocation 0.1 --search-seconds 5 --seed 42
//! cloudia --graph tree:6x2 --objective longest-path
//! cloudia --graph bipartite:8x28 --metric mean+sd
//! cloudia --graph mesh:6x6 --search portfolio --threads 4
//! cloudia --graph ring:8 --online --epochs 24 --epoch-hours 4 --migration-budget 2
//! ```

use cloudia::core::LatencyMetric;
use cloudia::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: cloudia [--graph mesh:RxC|mesh3d:XxYxZ|tree:FxL|bipartite:FxS|ring:N|star:N]
               [--objective longest-link|longest-path]
               [--provider ec2|gce|rackspace]
               [--metric mean|mean+sd|p99]
               [--over-allocation FRACTION]   (default 0.1)
               [--search recommended|cp|mip|greedy-g1|greedy-g2|random-r1|random-r2|portfolio]
               [--threads N]                  (portfolio/r2 workers; 0 = all cores)
               [--candidates auto|adaptive|K] (candidate-pruned search: K instances per node;
                                               auto = max(4n, 48); adaptive = escalation-driven
                                               pool sizing; omit for the dense search)
               [--search-seconds S]           (default 5)
               [--stage-workers N]            (worker threads per measurement stage; 0 = auto:
                                               serial for small stages, all cores for wide ones.
                                               Deterministic — every value gives byte-identical
                                               sweeps)
               [--sketch-spill H]             (drop per-link p99 sketches on links quiet for H
                                               consecutive stages; freed slots are recycled, so
                                               long sweeps stop growing the sketch table.
                                               0 = keep every sketch forever, the default)
               [--seed N]                     (default 42)
               [--online]                     (run the continuous advisor after deploying)
               [--epochs N]                   (online epochs, default 24)
               [--epoch-hours H]              (simulated hours per epoch, default 4)
               [--migration-budget K]         (max nodes moved per re-solve, default 3)
               [--probe uniform|focused]      (online probe policy: full sweeps, or
                                               trigger-driven focused rounds; default uniform)
               [--prune-during-sweep]         (online: stage-stream each measurement sweep and
                                               drop pairs mid-sweep once their measured quantiles
                                               prove them outside every candidate pool)
               [--confidence C]               (online: error-bounded mode — per-link confidence
                                               intervals at level C; pruning, drift alarms and
                                               repair acceptance demand interval separation
                                               instead of point estimates)
               [--anytime]                    (online: requires --confidence and
                                               --prune-during-sweep; end each sweep early once
                                               every remaining prune/pool decision is CI-stable)
               [--spot-check K]               (online: confirm a degradation alarm with K fresh
                                               single-link probes before repairing; 0 = off)
               [--loss P]                     (online: per-link per-direction drop probability,
                                               drifting around P; 0 = lossless, default 0)
               [--retries N]                  (online: retransmit budget per probe pair per
                                               stage under loss, default 3)
               [--blackout E]                 (online: force the first deployed instance dark
                                               from epoch E onward)
               [--loss-blind]                 (online: disable dark-link triage, evacuation and
                                               loss-priced search costs — the baseline arm)
               [--trace PATH]                 (write a schema-versioned JSONL run trace: every
                                               online event and epoch summary as it happens,
                                               plus a final metrics snapshot and span log)
               [--metrics]                    (print the final metrics-registry snapshot)
               [--no-metrics]                 (disable telemetry collection at runtime)
               [--json]                       (suppress human output; print one JSON summary
                                               object on stdout instead)"
    );
    std::process::exit(2);
}

fn parse_dims<const K: usize>(spec: &str) -> [usize; K] {
    let parts: Vec<usize> = spec.split('x').filter_map(|p| p.parse().ok()).collect();
    if parts.len() != K {
        eprintln!("bad dimension spec `{spec}` (expected {K} `x`-separated integers)");
        usage();
    }
    let mut out = [0; K];
    out.copy_from_slice(&parts);
    out
}

fn parse_graph(spec: &str) -> CommGraph {
    match spec.split_once(':') {
        Some(("mesh", dims)) => {
            let [r, c] = parse_dims::<2>(dims);
            CommGraph::mesh_2d(r, c)
        }
        Some(("mesh3d", dims)) => {
            let [x, y, z] = parse_dims::<3>(dims);
            CommGraph::mesh_3d(x, y, z)
        }
        Some(("tree", dims)) => {
            let [f, l] = parse_dims::<2>(dims);
            CommGraph::aggregation_tree(f, l)
        }
        Some(("bipartite", dims)) => {
            let [f, s] = parse_dims::<2>(dims);
            CommGraph::bipartite(f, s)
        }
        Some(("ring", dims)) => CommGraph::ring(parse_dims::<1>(dims)[0]),
        Some(("star", dims)) => CommGraph::star(parse_dims::<1>(dims)[0]),
        _ => {
            eprintln!("unknown graph spec `{spec}`");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut graph_spec = "mesh:5x5".to_string();
    let mut objective = Objective::LongestLink;
    let mut provider_name = "ec2".to_string();
    let mut metric = LatencyMetric::Mean;
    let mut over_allocation = 0.1f64;
    let mut search_seconds = 5.0f64;
    let mut seed = 42u64;
    let mut search_name = "recommended".to_string();
    let mut threads: Option<usize> = None;
    let mut candidates: Option<cloudia::solver::CandidateConfig> = None;
    let mut online = false;
    let mut epochs = 24u64;
    let mut epoch_hours = 4.0f64;
    let mut migration_budget = 3usize;
    let mut probe_focused = false;
    let mut prune_during_sweep = false;
    let mut confidence: Option<f64> = None;
    let mut anytime = false;
    let mut spot_check = 0usize;
    let mut loss = 0.0f64;
    let mut retries = 3u32;
    let mut blackout: Option<u64> = None;
    let mut loss_blind = false;
    let mut trace_path: Option<String> = None;
    let mut print_metrics = false;
    let mut json = false;
    let mut stage_workers = 0usize;
    let mut sketch_spill: Option<u64> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--graph" => graph_spec = value(),
            "--objective" => {
                objective = match value().as_str() {
                    "longest-link" | "ll" => Objective::LongestLink,
                    "longest-path" | "lp" => Objective::LongestPath,
                    other => {
                        eprintln!("unknown objective `{other}`");
                        usage();
                    }
                }
            }
            "--provider" => provider_name = value(),
            "--metric" => {
                metric = match value().as_str() {
                    "mean" => LatencyMetric::Mean,
                    "mean+sd" => LatencyMetric::MeanPlusSd,
                    "p99" => LatencyMetric::P99,
                    other => {
                        eprintln!("unknown metric `{other}`");
                        usage();
                    }
                }
            }
            "--search" => search_name = value(),
            "--threads" => {
                threads = Some(value().parse().unwrap_or_else(|_| {
                    eprintln!("bad thread count");
                    usage();
                }))
            }
            "--candidates" => {
                let v = value();
                candidates = Some(match v.as_str() {
                    "auto" => cloudia::solver::CandidateConfig::fixed(0),
                    "adaptive" => cloudia::solver::CandidateConfig::adaptive(
                        cloudia::solver::AdaptivePoolConfig::default(),
                    ),
                    _ => cloudia::solver::CandidateConfig::fixed(v.parse().unwrap_or_else(|_| {
                        eprintln!(
                            "bad candidate count `{v}` (expected `auto`, `adaptive`, or an integer)"
                        );
                        usage();
                    })),
                });
            }
            "--over-allocation" => {
                over_allocation = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad fraction");
                    usage();
                })
            }
            "--search-seconds" => {
                search_seconds = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad seconds");
                    usage();
                })
            }
            "--seed" => {
                seed = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad seed");
                    usage();
                })
            }
            "--stage-workers" => {
                stage_workers = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad stage worker count");
                    usage();
                })
            }
            "--sketch-spill" => {
                let h: u64 = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad sketch-spill horizon");
                    usage();
                });
                sketch_spill = (h > 0).then_some(h);
            }
            "--online" => online = true,
            "--epochs" => {
                epochs = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad epoch count");
                    usage();
                })
            }
            "--epoch-hours" => {
                epoch_hours = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad epoch hours");
                    usage();
                })
            }
            "--migration-budget" => {
                migration_budget = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad migration budget");
                    usage();
                })
            }
            "--probe" => {
                probe_focused = match value().as_str() {
                    "uniform" => false,
                    "focused" => true,
                    other => {
                        eprintln!("unknown probe policy `{other}` (expected uniform or focused)");
                        usage();
                    }
                }
            }
            "--prune-during-sweep" => prune_during_sweep = true,
            "--confidence" => {
                let c: f64 = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad confidence level");
                    usage();
                });
                if c <= 0.0 || c >= 1.0 {
                    eprintln!("confidence must be in (0, 1)");
                    usage();
                }
                confidence = Some(c);
            }
            "--anytime" => anytime = true,
            "--spot-check" => {
                spot_check = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad spot-check probe count");
                    usage();
                })
            }
            "--loss" => {
                loss = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad loss probability");
                    usage();
                });
                if !(0.0..1.0).contains(&loss) {
                    eprintln!("loss probability must be in [0, 1)");
                    usage();
                }
            }
            "--retries" => {
                retries = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad retry budget");
                    usage();
                })
            }
            "--blackout" => {
                blackout = Some(value().parse().unwrap_or_else(|_| {
                    eprintln!("bad blackout epoch");
                    usage();
                }))
            }
            "--loss-blind" => loss_blind = true,
            "--trace" => trace_path = Some(value()),
            "--metrics" => print_metrics = true,
            "--no-metrics" => cloudia::obs::set_enabled(false),
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    if anytime && (confidence.is_none() || !prune_during_sweep) {
        eprintln!("--anytime needs both --confidence and --prune-during-sweep");
        usage();
    }

    let provider = match provider_name.as_str() {
        "ec2" => Provider::ec2_like(),
        "gce" => Provider::gce_like(),
        "rackspace" => Provider::rackspace_like(),
        other => {
            eprintln!("unknown provider `{other}`");
            usage();
        }
    };

    let graph = parse_graph(&graph_spec);
    if objective == Objective::LongestPath && !graph.is_dag() {
        eprintln!("graph `{graph_spec}` is not acyclic; longest-path needs a DAG (try tree:FxL)");
        std::process::exit(1);
    }

    // Explicit strategy selection; "recommended" keeps the paper's choice
    // per objective (single-threaded unless --threads changes it).
    use cloudia::solver::{Budget, CpConfig, GreedyVariant, MipConfig, PortfolioConfig};
    let strategy = match search_name.as_str() {
        "recommended" => None,
        "cp" => Some(SearchStrategy::Cp(CpConfig {
            budget: Budget::seconds(search_seconds),
            seed,
            ..CpConfig::default()
        })),
        "mip" => Some(SearchStrategy::Mip(MipConfig {
            budget: Budget::seconds(search_seconds),
            seed,
            ..MipConfig::default()
        })),
        "greedy-g1" => Some(SearchStrategy::Greedy(GreedyVariant::G1)),
        "greedy-g2" => Some(SearchStrategy::Greedy(GreedyVariant::G2)),
        "random-r1" => Some(SearchStrategy::RandomCount { count: 1000, seed }),
        "random-r2" => Some(SearchStrategy::RandomBudget {
            budget: Budget::seconds(search_seconds),
            threads: threads.unwrap_or(0),
            seed,
        }),
        "portfolio" => Some(SearchStrategy::Portfolio(PortfolioConfig {
            budget: Budget::seconds(search_seconds),
            threads: threads.unwrap_or(0),
            seed,
            ..PortfolioConfig::default()
        })),
        other => {
            eprintln!("unknown search strategy `{other}`");
            usage();
        }
    };

    let provider_label = provider.kind.name();
    // One JSONL trace per run: the meta line pins the schema and the
    // run's identity; online events stream into it as they happen, and
    // the final metrics snapshot + span log land before it closes.
    let mut recorder = trace_path.as_ref().map(|path| {
        let meta = cloudia::obs::Json::obj()
            .field("bin", "cloudia")
            .field("graph", graph_spec.as_str())
            .field("objective", objective.name())
            .field("provider", provider_label)
            .field("seed", seed);
        cloudia::obs::RunRecorder::to_file(std::path::Path::new(path), meta).unwrap_or_else(|e| {
            eprintln!("cannot open trace file `{path}`: {e}");
            std::process::exit(1);
        })
    });

    if !json {
        println!(
            "ClouDiA: {} nodes, {} edges | objective {} | {} | metric {} | +{:.0}% instances | search {}",
            graph.num_nodes(),
            graph.num_edges(),
            objective.name(),
            provider_label,
            metric.name(),
            over_allocation * 100.0,
            match &strategy {
                Some(s) => s.name(),
                // `--threads N` silently upgrades the recommended strategy to
                // the portfolio inside the advisor; reflect that here.
                None if threads.is_some_and(|t| t != 1) => "recommended (portfolio)",
                None => "recommended",
            },
        );
    }

    let mut advisor_cfg = cloudia::core::AdvisorConfig {
        objective,
        metric,
        over_allocation,
        strategy,
        search_time_s: search_seconds,
        // `--threads N` with the recommended strategy upgrades it to the
        // portfolio; without the flag the paper's single-threaded choice
        // stands.
        search_threads: threads.unwrap_or(1),
        candidates,
        ..cloudia::core::AdvisorConfig::fast()
    };
    advisor_cfg.measurement.config.stage_workers = stage_workers;
    advisor_cfg.measurement.config.sketch_spill_horizon = sketch_spill;
    let advisor = Advisor::new(advisor_cfg);
    let outcome = match advisor.try_run(provider, &graph, seed) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("measurement produced unusable cost data: {e}");
            std::process::exit(1);
        }
    };

    if !json {
        println!(
            "measured {} round trips in {:.0} simulated ms",
            outcome.measurement_round_trips, outcome.measurement_ms
        );
        println!(
            "search: {} improvements, {} nodes explored, optimal proven: {}",
            outcome.search.curve.len(),
            outcome.search.explored,
            outcome.search.proven_optimal
        );
        println!("deployment plan (node -> instance):");
        for (node, inst) in outcome.deployment.iter().enumerate() {
            print!("  {node}->{inst}");
            if (node + 1) % 8 == 0 {
                println!();
            }
        }
        println!();
        println!("terminated {} extra instances", outcome.terminated.len());
        println!(
            "{}: default {:.3} ms -> optimized {:.3} ms ({:.1}% reduction)",
            objective.name(),
            outcome.default_cost,
            outcome.optimized_cost,
            outcome.improvement() * 100.0
        );
    }

    // The machine-readable run summary `--json` prints and `--trace`
    // embeds as the trace's `bench` record.
    let deployment: Vec<cloudia::obs::Json> =
        outcome.deployment.iter().map(|&i| cloudia::obs::Json::from(i)).collect();
    let mut summary = cloudia::obs::Json::obj()
        .field("schema", "cloudia.summary.v1")
        .field("graph", graph_spec.as_str())
        .field("objective", objective.name())
        .field("provider", provider_label)
        .field("metric", metric.name())
        .field("seed", seed)
        .field("nodes", graph.num_nodes())
        .field("instances", outcome.network.len())
        .field("measurement_round_trips", outcome.measurement_round_trips)
        .field("measurement_ms", outcome.measurement_ms)
        .field("search_explored", outcome.search.explored)
        .field("search_improvements", outcome.search.curve.len())
        .field("proven_optimal", outcome.search.proven_optimal)
        .field("terminated", outcome.terminated.len())
        .field("default_cost", outcome.default_cost)
        .field("optimized_cost", outcome.optimized_cost)
        .field("improvement", outcome.improvement())
        .field("deployment", deployment);

    if online {
        let (online_summary, rec) = run_online(
            &graph,
            &outcome,
            objective,
            epochs,
            epoch_hours,
            migration_budget,
            probe_focused,
            prune_during_sweep,
            confidence,
            anytime,
            spot_check,
            candidates,
            seed,
            LossOptions { loss, retries, blackout, blind: loss_blind },
            SweepOptions { stage_workers, sketch_spill },
            json,
            recorder,
        );
        recorder = rec;
        summary = summary.field("online", online_summary);
    }

    let metrics_snapshot = cloudia::obs::metrics().snapshot_json();
    if let Some(mut rec) = recorder {
        rec.record("bench", summary.clone());
        rec.record_metrics_snapshot(cloudia::obs::metrics());
        rec.flush_global_spans();
        if let Err(e) = rec.finish() {
            eprintln!("trace write failed: {e}");
            std::process::exit(1);
        }
    }
    if json {
        if print_metrics {
            summary = summary.field("metrics", metrics_snapshot);
        }
        println!("{}", summary.encode());
    } else if print_metrics {
        println!("metrics: {}", metrics_snapshot.encode());
    }
}

/// Loss-plane knobs for the online run; all inert at `loss == 0` with no
/// blackout, where the stream is bit-identical to the lossless one.
struct LossOptions {
    loss: f64,
    retries: u32,
    blackout: Option<u64>,
    blind: bool,
}

/// Sweep execution knobs shared by every measurement epoch: worker
/// fan-out per stage (deterministic at any value) and the sketch-spill
/// horizon (`None` keeps every per-link p99 sketch forever).
struct SweepOptions {
    stage_workers: usize,
    sketch_spill: Option<u64>,
}

/// Drives the continuous advisor over the deployed plan: the
/// over-allocated pool is kept as warm spares, the network drifts
/// `epoch_hours` between measurement epochs, and every trigger runs a
/// budgeted incremental re-solve. Returns the machine-readable run
/// summary and hands back the trace recorder (if one was attached) so
/// the caller can close it.
#[allow(clippy::too_many_arguments)]
fn run_online(
    graph: &CommGraph,
    outcome: &cloudia::core::AdvisorOutcome,
    objective: Objective,
    epochs: u64,
    epoch_hours: f64,
    migration_budget: usize,
    probe_focused: bool,
    prune_during_sweep: bool,
    confidence: Option<f64>,
    anytime: bool,
    spot_check: usize,
    candidates: Option<cloudia::solver::CandidateConfig>,
    seed: u64,
    loss_opts: LossOptions,
    sweep_opts: SweepOptions,
    json: bool,
    recorder: Option<cloudia::obs::RunRecorder>,
) -> (cloudia::obs::Json, Option<cloudia::obs::RunRecorder>) {
    use cloudia::measure::{MeasureConfig, Staged};
    use cloudia::netsim::FaultParams;
    use cloudia::online::{
        OnlineAdvisor, OnlineAdvisorConfig, OnlineEvent, ProbePolicy, SimStream,
    };

    // Human narration is silenced under `--json`; the returned summary
    // object carries the same facts instead.
    macro_rules! human {
        ($($t:tt)*) => { if !json { println!($($t)*) } };
    }

    let lossy = loss_opts.loss > 0.0 || loss_opts.blackout.is_some();
    human!();
    human!(
        "online advisor: {epochs} epochs x {epoch_hours} h, migration budget {migration_budget}, \
         {} instances kept as spares, {} probing{}{}{}{}",
        outcome.network.len() - graph.num_nodes(),
        if probe_focused { "focused" } else { "uniform" },
        if prune_during_sweep { ", mid-sweep pruning" } else { "" },
        match confidence {
            Some(c) =>
                format!(", {:.0}% CIs{}", c * 100.0, if anytime { " + anytime stop" } else { "" }),
            None => String::new(),
        },
        if spot_check > 0 { ", spot-check confirmation" } else { "" },
        if lossy {
            format!(
                ", {:.1}% drifting loss ({} retries{})",
                loss_opts.loss * 100.0,
                loss_opts.retries,
                if loss_opts.blind { ", loss-blind" } else { "" }
            )
        } else {
            String::new()
        },
    );
    if let Some(e) = loss_opts.blackout {
        human!("blackout: the first deployed instance goes dark from epoch {e} onward");
    }
    if probe_focused && candidates.is_none() {
        human!(
            "note: no --candidates given; focused rounds probe a default pool of {} instances \
             (2x nodes) — pass --candidates K or adaptive to control it",
            2 * graph.num_nodes()
        );
    }

    let config = OnlineAdvisorConfig {
        objective,
        migration_budget,
        solve_seconds: 1.0,
        seed,
        candidates,
        probe_policy: if probe_focused {
            ProbePolicy::Focused {
                refresh_every: 8,
                // The escalation threshold must sit well above the
                // detectors' noise-fire baseline (a few percent of
                // measured links per epoch) or every epoch degenerates to
                // a full sweep; a quarter of all pairs separates a global
                // shift from noise at any allocation size.
                max_flagged: outcome.network.len() * (outcome.network.len() - 1) / 8,
            }
        } else {
            ProbePolicy::Uniform
        },
        prune_during_sweep,
        confidence,
        anytime,
        spot_check_probes: spot_check,
        loss_aware: !loss_opts.blind,
        ..OnlineAdvisorConfig::default()
    };
    let mut advisor = OnlineAdvisor::new(
        graph.clone(),
        outcome.network.len(),
        outcome.deployment.clone(),
        config,
    );
    if let Some(rec) = recorder {
        advisor.attach_recorder(rec);
    }
    let measure_cfg = MeasureConfig {
        retries_per_pair: if loss_opts.blind { 0 } else { loss_opts.retries },
        stage_workers: sweep_opts.stage_workers,
        sketch_spill_horizon: sweep_opts.sketch_spill,
        ..MeasureConfig::default()
    };
    let mut stream = if lossy {
        SimStream::with_faults(
            outcome.network.clone(),
            Staged::new(3, 2),
            measure_cfg,
            epoch_hours,
            seed ^ 0x011e,
            FaultParams::drifting_loss(loss_opts.loss),
            seed ^ 0xfa11,
        )
    } else {
        SimStream::new(
            outcome.network.clone(),
            Staged::new(3, 2),
            measure_cfg,
            epoch_hours,
            seed ^ 0x011e,
        )
    };

    human!("epoch\thours\test_cost\ttrue_cost\ttriggered\tmoved");
    let report = |summaries: Vec<cloudia::online::EpochSummary>| {
        for s in summaries {
            human!(
                "{}\t{:.1}\t{:.3}\t{:.3}\t{}\t{}",
                s.epoch,
                s.at_hours,
                s.est_cost,
                s.true_cost,
                if s.triggered { "yes" } else { "-" },
                s.moved
            );
        }
    };
    match loss_opts.blackout {
        Some(at) if at < epochs => {
            report(advisor.run(&mut stream, at));
            let victim = advisor.deployment()[0];
            stream.force_instance_dark(victim, (epochs - at + 1) as f64 * epoch_hours);
            human!("# instance {victim} forced dark");
            if let Some(rec) = advisor.recorder_mut() {
                rec.note(&format!("instance {victim} forced dark at epoch {at}"));
            }
            report(advisor.run(&mut stream, epochs - at));
        }
        _ => report(advisor.run(&mut stream, epochs)),
    }
    let migrations =
        advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Migrate { .. })).count();
    let resolves =
        advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Resolve { .. })).count();
    human!(
        "online summary: {resolves} re-solves, {migrations} migrations ({} nodes moved), \
         time-averaged cost {:.3} ms (incl. migration cost {:.3}), {} probe round trips",
        advisor.moved_total(),
        advisor.time_averaged_cost(),
        advisor.migration_cost_paid(),
        advisor.probe_round_trips(),
    );
    let mut summary = cloudia::obs::Json::obj()
        .field("epochs", epochs)
        .field("resolves", resolves)
        .field("migrations", migrations)
        .field("nodes_moved", advisor.moved_total())
        .field("time_averaged_cost", advisor.time_averaged_cost())
        .field("migration_cost_paid", advisor.migration_cost_paid())
        .field("probe_round_trips", advisor.probe_round_trips());
    if let Some(k) = advisor.adaptive_k() {
        human!(
            "adaptive candidate pool: final k = {k} (escalation rate {:.3})",
            advisor.escalation_rate().unwrap_or(0.0)
        );
        summary = summary
            .field("adaptive_k", k)
            .field("escalation_rate", advisor.escalation_rate().unwrap_or(0.0));
    }
    if prune_during_sweep {
        human!(
            "mid-sweep pruning: {} round trips saved, {} re-invested into flagged links",
            advisor.sweep_saved_round_trips(),
            advisor.deep_probe_round_trips(),
        );
        summary = summary
            .field("saved_round_trips", advisor.sweep_saved_round_trips())
            .field("deep_probe_round_trips", advisor.deep_probe_round_trips());
    }
    if spot_check > 0 {
        let (checks, confirmed) =
            advisor.events().iter().fold((0usize, 0usize), |(c, k), e| match e {
                OnlineEvent::SpotCheck { confirmed: true, .. } => (c + 1, k + 1),
                OnlineEvent::SpotCheck { .. } => (c + 1, k),
                _ => (c, k),
            });
        human!("spot checks: {checks} run, {confirmed} confirmed");
        summary = summary.field("spot_checks", checks).field("spot_confirmed", confirmed);
    }
    if lossy {
        let (darks, evacs, moved) =
            advisor.events().iter().fold((0usize, 0usize, 0usize), |(d, e, m), ev| match ev {
                OnlineEvent::LinkDark { .. } => (d + 1, e, m),
                OnlineEvent::Evacuate { moved, .. } => (d, e + 1, m + moved),
                _ => (d, e, m),
            });
        human!("loss triage: {darks} LinkDark events, {evacs} evacuations ({moved} nodes moved)");
        summary = summary
            .field("link_dark_events", darks)
            .field("evacuations", evacs)
            .field("evacuated_nodes", moved);
    }
    (summary, advisor.take_recorder())
}
