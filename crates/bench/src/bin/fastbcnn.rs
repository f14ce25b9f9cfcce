//! `fastbcnn` — the workspace's command-line front end.
//!
//! ```text
//! fastbcnn demo         [--model lenet|vgg|googlenet|alexnet] [--samples N] [--full]
//! fastbcnn simulate     [--model ...] [--samples N] [--full]
//! fastbcnn characterize [--model ...] [--samples N] [--full]
//! fastbcnn train        [--epochs N] [--train-size N]
//! fastbcnn observe      [--model ...] [--samples N] [--full]
//! fastbcnn serve-batch  [--model ...] [--samples N] [--requests N] [--threads N] [--full]
//!                       [--deadline-ms N] [--retry-max N] [--breaker-threshold X]
//! fastbcnn export-model --out <path> [--model ...] [--samples N] [--model-version N] [--label S]
//! fastbcnn serve        [--artifact <path>] [--requests N] [--shards N] [--canary-percent N]
//! fastbcnn serve-net    [--artifact <path>] [--addr host:port] [--connections N]
//!                       [--requests N] [--shards N] [--supervise]
//! fastbcnn swap         [--artifact <path>] [--next <path>] [--requests N] [--shards N]
//!                       [--canary-percent N]
//! fastbcnn watch        [--windows N] [--window-ms N] [--requests N] [--chaos]
//!                       [--supervise] [--postmortem-out <path>]
//! fastbcnn postmortem   <file> [--id N]
//! ```
//!
//! Every command additionally accepts `--trace-out <path>` and
//! `--metrics-out <path>` to export the run's telemetry as a JSONL trace
//! and a Prometheus-style text dump (see `docs/OBSERVABILITY.md`);
//! `observe` records a fast + robust inference and prints the per-layer
//! skip/fallback table. `serve-batch` serves through the resilient layer
//! (see `docs/RESILIENCE.md`): `--deadline-ms` bounds each request's
//! wall-clock (expired requests return flagged partial-T means and are
//! excluded from the bit-identity check), `--retry-max` caps retries of
//! transient failures and `--breaker-threshold` sets the circuit
//! breaker's error-rate trip point. `--supervise` (on `serve-net` and
//! `watch`) enables per-shard health supervision (see
//! `docs/REGISTRY.md`): sick shards are quarantined out of the routing
//! ring, their traffic fails over deterministically, and a background
//! rebuild re-admits them through a probe gate; both commands print the
//! per-shard health/ledger table.

use fast_bcnn::report::{format_table, pct, speedup};
use fast_bcnn::{
    synth_input, BaselineSim, BatchConfig, BatchEngine, BatchRequest, CnvlutinSim, Engine,
    EngineConfig, FastBcnnSim, HwConfig, IdealSim, ModelArtifact, ModelRegistry, RegistryConfig,
    ResilienceConfig, ResilientBatchEngine, SkipMode,
};
use fbcnn_nn::models::{ModelKind, ModelScale};

struct Args {
    command: String,
    model: ModelKind,
    samples: usize,
    scale: ModelScale,
    epochs: usize,
    train_size: usize,
    requests: usize,
    threads: usize,
    deadline_ms: Option<u64>,
    retry_max: Option<u32>,
    breaker_threshold: Option<f64>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    artifact: Option<String>,
    next: Option<String>,
    out: Option<String>,
    model_version: u64,
    label: Option<String>,
    shards: usize,
    canary_percent: u32,
    addr: String,
    connections: usize,
    windows: usize,
    window_ms: u64,
    chaos: bool,
    supervise: bool,
    postmortem_out: Option<String>,
    input: Option<String>,
    id: Option<u64>,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().unwrap_or_else(|| "help".into());
    let mut args = Args {
        command,
        model: ModelKind::LeNet5,
        samples: 16,
        scale: ModelScale::BENCH,
        epochs: 6,
        train_size: 400,
        requests: 8,
        threads: 1,
        deadline_ms: None,
        retry_max: None,
        breaker_threshold: None,
        trace_out: None,
        metrics_out: None,
        artifact: None,
        next: None,
        out: None,
        model_version: 1,
        label: None,
        shards: 2,
        canary_percent: 20,
        addr: "127.0.0.1:0".to_string(),
        connections: 2,
        windows: 6,
        window_ms: 1_000,
        chaos: false,
        supervise: false,
        postmortem_out: None,
        input: None,
        id: None,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--model" => {
                let v = argv.get(i + 1).ok_or("--model needs a value")?;
                args.model = match v.as_str() {
                    "lenet" => ModelKind::LeNet5,
                    "vgg" => ModelKind::Vgg16,
                    "googlenet" => ModelKind::GoogLeNet,
                    "alexnet" => ModelKind::AlexNet,
                    other => return Err(format!("unknown model {other}")),
                };
                i += 1;
            }
            "--samples" => {
                args.samples = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--samples needs a number")?;
                i += 1;
            }
            "--epochs" => {
                args.epochs = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--epochs needs a number")?;
                i += 1;
            }
            "--train-size" => {
                args.train_size = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--train-size needs a number")?;
                i += 1;
            }
            "--requests" => {
                args.requests = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--requests needs a number")?;
                i += 1;
            }
            "--threads" => {
                args.threads = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &usize| t > 0)
                    .ok_or("--threads needs a number > 0")?;
                i += 1;
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    argv.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms: &u64| ms > 0)
                        .ok_or("--deadline-ms needs a number > 0")?,
                );
                i += 1;
            }
            "--retry-max" => {
                args.retry_max = Some(
                    argv.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--retry-max needs a number")?,
                );
                i += 1;
            }
            "--breaker-threshold" => {
                args.breaker_threshold = Some(
                    argv.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .filter(|&x: &f64| x > 0.0 && x <= 1.0)
                        .ok_or("--breaker-threshold needs a number in (0, 1]")?,
                );
                i += 1;
            }
            "--artifact" => {
                args.artifact = Some(
                    argv.get(i + 1)
                        .ok_or("--artifact needs a path")?
                        .to_string(),
                );
                i += 1;
            }
            "--next" => {
                args.next = Some(argv.get(i + 1).ok_or("--next needs a path")?.to_string());
                i += 1;
            }
            "--out" => {
                args.out = Some(argv.get(i + 1).ok_or("--out needs a path")?.to_string());
                i += 1;
            }
            "--model-version" => {
                args.model_version = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &u64| v > 0)
                    .ok_or("--model-version needs a number > 0")?;
                i += 1;
            }
            "--label" => {
                args.label = Some(argv.get(i + 1).ok_or("--label needs a value")?.to_string());
                i += 1;
            }
            "--shards" => {
                args.shards = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &usize| s > 0)
                    .ok_or("--shards needs a number > 0")?;
                i += 1;
            }
            "--canary-percent" => {
                args.canary_percent = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&p: &u32| p <= 100)
                    .ok_or("--canary-percent needs a number in 0..=100")?;
                i += 1;
            }
            "--full" => args.scale = ModelScale::FULL,
            "--trace-out" => {
                args.trace_out = Some(
                    argv.get(i + 1)
                        .ok_or("--trace-out needs a path")?
                        .to_string(),
                );
                i += 1;
            }
            "--metrics-out" => {
                args.metrics_out = Some(
                    argv.get(i + 1)
                        .ok_or("--metrics-out needs a path")?
                        .to_string(),
                );
                i += 1;
            }
            "--windows" => {
                args.windows = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&w: &usize| w > 0)
                    .ok_or("--windows needs a number > 0")?;
                i += 1;
            }
            "--window-ms" => {
                args.window_ms = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&ms: &u64| ms > 0)
                    .ok_or("--window-ms needs a number > 0")?;
                i += 1;
            }
            "--addr" => {
                args.addr = argv.get(i + 1).ok_or("--addr needs host:port")?.to_string();
                i += 1;
            }
            "--connections" => {
                args.connections = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&c: &usize| c > 0)
                    .ok_or("--connections needs a number > 0")?;
                i += 1;
            }
            "--chaos" => args.chaos = true,
            "--supervise" => args.supervise = true,
            "--postmortem-out" => {
                args.postmortem_out = Some(
                    argv.get(i + 1)
                        .ok_or("--postmortem-out needs a path")?
                        .to_string(),
                );
                i += 1;
            }
            "--id" => {
                args.id = Some(
                    argv.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--id needs a number")?,
                );
                i += 1;
            }
            other if !other.starts_with("--") && args.input.is_none() => {
                args.input = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn engine_for(args: &Args) -> Engine {
    let defaults = EngineConfig::for_model(args.model);
    Engine::new(EngineConfig {
        model: args.model,
        scale: args.scale,
        samples: args.samples,
        deadline_ms: args.deadline_ms.or(defaults.deadline_ms),
        retry_max: args.retry_max.unwrap_or(defaults.retry_max),
        breaker_threshold: args.breaker_threshold.unwrap_or(defaults.breaker_threshold),
        ..defaults
    })
}

fn cmd_demo(args: &Args) {
    let engine = engine_for(args);
    let input = synth_input(engine.network().input_shape(), 7);
    let exact = engine.predict_exact(&input);
    let (fast, stats) = engine.predict_fast(&input);
    print!("{}", engine.network().summary());
    println!(
        "{} | T = {} | {} parameters",
        args.model.bayesian_name(),
        args.samples,
        engine.network().total_params()
    );
    println!(
        "exact:    class {} entropy {:.3}",
        exact.class, exact.predictive_entropy
    );
    println!(
        "skipping: class {} entropy {:.3} | skipped {} of neuron work",
        fast.class,
        fast.predictive_entropy,
        pct(stats.skip_rate())
    );
}

fn cmd_simulate(args: &Args) {
    let engine = engine_for(args);
    let input = synth_input(engine.network().input_shape(), 7);
    let w = engine.workload(&input);
    let base = BaselineSim::new(HwConfig::baseline()).run(&w);
    let mut rows = Vec::new();
    let mut push = |r: &fast_bcnn::RunReport| {
        rows.push(vec![
            r.name.clone(),
            r.total_cycles.to_string(),
            speedup(r.speedup_over(&base)),
            pct(r.energy_reduction_vs(&base)),
        ]);
    };
    push(&base);
    push(&CnvlutinSim::new().run(&w));
    for tm in [8, 16, 32, 64] {
        push(&FastBcnnSim::new(HwConfig::fast_bcnn(tm), SkipMode::Both).run(&w));
    }
    push(&IdealSim::new(HwConfig::fast_bcnn(64)).run(&w));
    println!(
        "{} | T = {} | skip rate {}",
        args.model.bayesian_name(),
        w.t(),
        pct(w.total_skip_stats().skip_rate())
    );
    println!(
        "{}",
        format_table(&["design", "cycles", "speedup", "energy red."], &rows)
    );
}

fn cmd_characterize(args: &Args) {
    let cfg = fast_bcnn::experiments::ExpConfig {
        t: args.samples,
        scale: args.scale,
        ..Default::default()
    };
    let c = fast_bcnn::experiments::characterization::characterize_model(args.model, &cfg);
    let rows: Vec<Vec<String>> = c
        .layers
        .iter()
        .map(|l| {
            vec![
                l.layer.clone(),
                pct(l.zero_ratio),
                pct(l.unaffected_ratio),
                pct(l.unaffected_share_of_zeros),
            ]
        })
        .collect();
    println!("{} characterization (T = {}):", c.model, args.samples);
    println!(
        "{}",
        format_table(&["layer", "zero", "unaffected", "unaffected/zero"], &rows)
    );
}

fn cmd_train(args: &Args) {
    let cfg = fast_bcnn::experiments::accuracy::TrainedAccuracyConfig {
        train_size: args.train_size,
        epochs: args.epochs,
        samples: args.samples.min(24),
        ..Default::default()
    };
    let results = fast_bcnn::experiments::accuracy::run(&[0.68], &cfg);
    let r = &results[0];
    println!(
        "trained LeNet-5 on SynthDigits ({} images, {} epochs):",
        args.train_size, args.epochs
    );
    println!(
        "  deterministic accuracy: {}",
        pct(r.deterministic_accuracy)
    );
    println!("  exact BCNN accuracy:    {}", pct(r.exact_bcnn_accuracy));
    println!(
        "  skipping BCNN accuracy: {}",
        pct(r.skipping_bcnn_accuracy)
    );
    println!("  accuracy loss:          {}", pct(r.accuracy_loss));
}

/// Records one fast and one robust inference into a private registry and
/// prints the per-layer skip table plus the fallback summary — the
/// source of the EXPERIMENTS.md Fig. 5-style skip-rate table.
fn cmd_observe(args: &Args) {
    let registry = std::sync::Arc::new(fast_bcnn::telemetry::Registry::new());
    let guard = fast_bcnn::telemetry::install(registry.clone());
    let engine = engine_for(args);
    let input = synth_input(engine.network().input_shape(), 7);
    let (fast, stats) = engine.predict_fast(&input);
    let robust = engine.predict_robust_seeded(&input, engine.config().seed);
    drop(guard);

    println!(
        "{} | T = {} | skip rate {}",
        args.model.bayesian_name(),
        args.samples,
        pct(stats.skip_rate())
    );
    println!(
        "fast: class {} entropy {:.3}",
        fast.class, fast.predictive_entropy
    );
    match robust {
        Ok((pred, report)) => println!(
            "robust: class {} mode {} ({}/{} samples used)",
            pred.class,
            report.mode.name(),
            report.used_samples,
            report.requested_samples
        ),
        Err(e) => println!("robust: failed — {e}"),
    }
    println!();
    print!(
        "{}",
        fast_bcnn::TelemetryReport::from_registry(&registry).render()
    );

    export(args, &registry);
}

/// Serves a synthetic request queue through the resilient serving layer
/// ([`ResilientBatchEngine`] over a [`BatchEngine`]) and checks it
/// against sequential `predict_robust_seeded` calls — a smoke-testable
/// demonstration of the serving path's bit-identity contract. Requests
/// whose `--deadline-ms` budget expired return flagged partial-T means
/// and are excluded from the comparison (a partial mean cannot equal a
/// full-T one).
fn cmd_serve_batch(args: &Args) {
    let registry = std::sync::Arc::new(fast_bcnn::telemetry::Registry::new());
    let guard = fast_bcnn::telemetry::install(registry.clone());
    let engine = engine_for(args);
    // Cycle a few distinct inputs so repeated ones exercise the
    // pre-inference cache, as a real serving queue would.
    let distinct = args.requests.clamp(1, 4);
    let requests: Vec<BatchRequest> = (0..args.requests)
        .map(|i| {
            BatchRequest::new(
                i as u64,
                synth_input(engine.network().input_shape(), 7 + (i % distinct) as u64),
            )
        })
        .collect();

    let sequential_start = std::time::Instant::now();
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| engine.predict_robust_seeded(&r.input, r.resolved_seed(engine.config().seed)))
        .collect();
    let sequential_ns = sequential_start.elapsed().as_nanos() as u64;

    let rcfg = ResilienceConfig::from_engine_config(engine.config());
    let batch = BatchEngine::new(
        engine,
        BatchConfig {
            threads: args.threads,
            ..BatchConfig::default()
        },
    );
    let resilient = ResilientBatchEngine::new(batch, rcfg);
    let report = resilient.run_batch(&requests);
    drop(guard);

    let mut matched = 0usize;
    let mut compared = 0usize;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    for (r, s) in report.outcomes.iter().zip(&sequential) {
        if r.outcome.cache_hit {
            cache_hits += 1;
        } else {
            cache_misses += 1;
        }
        if r.expired {
            continue;
        }
        compared += 1;
        match (&r.outcome.result, s) {
            (Ok(a), Ok(b)) if a == b => matched += 1,
            (Err(_), Err(_)) => matched += 1,
            _ => {}
        }
    }
    let t = &report.totals;
    println!(
        "{} | T = {} | {} requests | {} threads",
        args.model.bayesian_name(),
        args.samples,
        args.requests,
        args.threads
    );
    println!(
        "sequential: {:.1} ms | batch: {:.1} ms ({:.1} req/s)",
        sequential_ns as f64 / 1e6,
        report.elapsed_ns as f64 / 1e6,
        if report.elapsed_ns == 0 {
            0.0
        } else {
            report.outcomes.len() as f64 / (report.elapsed_ns as f64 / 1e9)
        }
    );
    println!(
        "bit-identical to sequential: {matched}/{compared}{} | cache hits {cache_hits} / \
         misses {cache_misses}",
        if compared < report.outcomes.len() {
            format!(" ({} expired, excluded)", report.outcomes.len() - compared)
        } else {
            String::new()
        }
    );
    println!(
        "resilience: retries {} (healed {}, exhausted {}) | deadline expiries {} | \
         breaker {}",
        t.retries,
        t.retry_successes,
        t.retry_exhausted,
        t.expired,
        report.breaker_state.name()
    );
    for r in &report.outcomes {
        if let Err(e) = &r.outcome.result {
            println!("request {} failed: {e}", r.outcome.id);
        }
    }
    println!();
    print!(
        "{}",
        fast_bcnn::TelemetryReport::from_registry(&registry).render()
    );

    export(args, &registry);
    if matched != compared {
        eprintln!("error: batch results diverged from sequential");
        std::process::exit(1);
    }
}

/// Writes `registry` to the `--trace-out` / `--metrics-out` paths that
/// were given, exiting 1 when a write fails.
fn export(args: &Args, registry: &fast_bcnn::telemetry::Registry) {
    fbcnn_bench::export_registry(
        registry,
        args.trace_out.as_deref(),
        args.metrics_out.as_deref(),
    );
}

/// Label for a freshly exported artifact when `--label` was not given.
fn default_label(args: &Args) -> String {
    args.label
        .clone()
        .unwrap_or_else(|| format!("{:?}-T{}", args.model, args.samples))
}

/// The serving model: the `--artifact` file when given (any load or
/// validation failure is a typed [`fast_bcnn::ArtifactError`], printed
/// and fatal), otherwise a fresh export of the `--model` engine.
fn base_artifact(args: &Args) -> ModelArtifact {
    match &args.artifact {
        Some(path) => match ModelArtifact::load(path) {
            Ok(artifact) => artifact,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            ModelArtifact::from_engine(&engine_for(args), args.model_version, default_label(args))
        }
    }
}

/// Registry configuration from the CLI flags and the artifact's own
/// engine configuration (deadline/retry/breaker travel with the model).
fn registry_cfg(args: &Args, engine_cfg: &EngineConfig) -> RegistryConfig {
    RegistryConfig {
        shards: args.shards,
        canary_percent: args.canary_percent,
        batch: BatchConfig {
            threads: args.threads,
            ..BatchConfig::default()
        },
        resilience: ResilienceConfig::from_engine_config(engine_cfg),
        supervise: args.supervise.then(fast_bcnn::SuperviseConfig::default),
        ..RegistryConfig::default()
    }
}

/// Per-shard supervision standing: health, ledger and healing counters
/// (only meaningful when the registry was built with `--supervise`).
fn print_shard_health_table(registry: &ModelRegistry) {
    let Some(sup) = registry.supervisor() else {
        return;
    };
    let snap = sup.snapshot();
    let rows: Vec<Vec<String>> = snap
        .shards
        .iter()
        .enumerate()
        .map(|(shard, l)| {
            vec![
                shard.to_string(),
                snap.health
                    .get(shard)
                    .map_or_else(|| "?".to_string(), |h| h.name().to_string()),
                l.served.to_string(),
                l.ok.to_string(),
                l.failed.to_string(),
                l.abandoned.to_string(),
                l.failovers_out.to_string(),
                l.failovers_in.to_string(),
                l.quarantines.to_string(),
                l.rebuilds.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "shard",
                "health",
                "served",
                "ok",
                "failed",
                "abandoned",
                "fo-out",
                "fo-in",
                "quar",
                "rebuilds"
            ],
            &rows
        )
    );
    if !snap.transitions.is_empty() {
        let walk: Vec<String> = snap
            .transitions
            .iter()
            .map(|t| format!("{}:{}→{}", t.shard, t.from.name(), t.to.name()))
            .collect();
        println!("  transitions: {}", walk.join(" "));
    }
}

fn print_version_table(registry: &ModelRegistry) {
    let rows: Vec<Vec<String>> = registry
        .version_counters()
        .iter()
        .map(|(v, c)| {
            vec![
                format!("v{v}"),
                c.requests.to_string(),
                c.ok.to_string(),
                c.failed.to_string(),
                c.canary.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["version", "requests", "ok", "failed", "canary"], &rows)
    );
}

/// Exports the configured engine as a versioned model artifact and
/// immediately proves the round trip by reloading and validating it.
fn cmd_export_model(args: &Args) {
    let Some(out) = &args.out else {
        eprintln!("error: export-model needs --out <path>");
        std::process::exit(2);
    };
    let engine = engine_for(args);
    let artifact = ModelArtifact::from_engine(&engine, args.model_version, default_label(args));
    let digest = artifact.digest;
    if let Err(e) = artifact.save(out) {
        eprintln!("error: {out}: {e}");
        std::process::exit(1);
    }
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "exported {} v{} (label `{}`) to {out}: {bytes} bytes, digest {digest:016x}",
        args.model.bayesian_name(),
        args.model_version,
        default_label(args),
    );
    match ModelArtifact::load(out) {
        Ok(back) if back.digest == digest => println!("verified: artifact reloads and validates"),
        Ok(back) => {
            eprintln!(
                "error: reloaded digest {:016x} != exported {digest:016x}",
                back.digest
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: exported artifact does not reload: {e}");
            std::process::exit(1);
        }
    }
}

/// Serves a synthetic request queue through a [`ModelRegistry`] booted
/// from an artifact (`--artifact`, or a fresh in-memory export) and
/// prints the per-version request accounting.
fn cmd_serve(args: &Args) {
    let registry_telemetry = std::sync::Arc::new(fast_bcnn::telemetry::Registry::new());
    let guard = fast_bcnn::telemetry::install(registry_telemetry.clone());
    let artifact = base_artifact(args);
    let shape = artifact.network.input_shape();
    let seed = artifact.config.seed;
    let version = artifact.model_version;
    let label = artifact.label.clone();
    let cfg = registry_cfg(args, &artifact.config);
    let registry = match ModelRegistry::new(artifact, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: refusing to serve: {e}");
            std::process::exit(1);
        }
    };
    let requests: Vec<BatchRequest> = (0..args.requests)
        .map(|i| {
            BatchRequest::new(
                i as u64,
                synth_input(shape, seed ^ (i as u64).wrapping_mul(41)),
            )
        })
        .collect();
    let report = registry.run_batch(&requests);
    drop(guard);

    println!(
        "serving v{version} (label `{label}`) over {} shards, {}% canary fraction",
        args.shards, args.canary_percent
    );
    let ok = report
        .outcomes
        .iter()
        .filter(|o| o.outcome.outcome.result.is_ok())
        .count();
    println!(
        "{} requests: {ok} ok / {} failed in {:.1} ms",
        report.outcomes.len(),
        report.outcomes.len() - ok,
        report.elapsed_ns as f64 / 1e6
    );
    print_version_table(&registry);
    match report.reconcile() {
        Ok(()) => println!("accounting reconciled exactly"),
        Err(e) => {
            eprintln!("error: accounting did not reconcile: {e}");
            std::process::exit(1);
        }
    }
    println!();
    print!(
        "{}",
        fast_bcnn::TelemetryReport::from_registry(&registry_telemetry).render()
    );
    export(args, &registry_telemetry);
}

/// Boots a [`ModelRegistry`] from an artifact, serves it over TCP
/// (length-prefixed JSON frames, see `docs/SERVING.md`), self-drives it
/// with the seeded closed-loop load generator — including deliberate
/// sheds, expiring deadlines and malformed frames — then reconciles the
/// load-generator, server and registry ledgers exactly.
fn cmd_serve_net(args: &Args) {
    use fbcnn_bench::harness::loadgen::LoadMode;
    use fbcnn_bench::harness::soak::{drive_serve_soak, soak_classes, ServeSoakConfig};
    let registry_telemetry = std::sync::Arc::new(fast_bcnn::telemetry::Registry::new());
    let guard = fast_bcnn::telemetry::install(registry_telemetry.clone());
    let artifact = base_artifact(args);
    let version = artifact.model_version;
    let label = artifact.label.clone();
    let soak = ServeSoakConfig {
        seed: artifact.config.seed,
        samples: artifact.config.samples.max(2),
        shards: args.shards,
        connections: args.connections,
        requests_per_connection: args.requests,
        mode: LoadMode::Closed,
        time_limit: std::time::Duration::from_secs(60),
    };
    let reference = match artifact.clone().into_engine() {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("error: artifact does not boot: {e}");
            std::process::exit(1);
        }
    };
    let cfg = registry_cfg(args, &artifact.config);
    let registry = match ModelRegistry::new(artifact, cfg) {
        Ok(r) => std::sync::Arc::new(r),
        Err(e) => {
            eprintln!("error: refusing to serve: {e}");
            std::process::exit(1);
        }
    };
    let class_names: Vec<String> = soak_classes(soak.samples)
        .into_iter()
        .map(|c| c.name)
        .collect();
    println!(
        "serving v{version} (label `{label}`) on {} over {} shards, classes [{}]{}",
        args.addr,
        args.shards,
        class_names.join(", "),
        if args.supervise { " [supervised]" } else { "" },
    );
    // With --supervise, a background poller folds breaker state into the
    // shard health machine and rebuilds whatever it quarantines.
    let supervisor_thread = args
        .supervise
        .then(|| registry.spawn_supervisor(std::time::Duration::from_millis(5)))
        .flatten();
    let report = match drive_serve_soak(&soak, &registry, &reference, &args.addr) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: cannot serve on {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    drop(supervisor_thread);
    drop(guard);

    let lg = &report.loadgen.totals;
    println!(
        "{} frames over {} connections in {:.1} ms: {} ok / {} failed / {} shed / \
         {} wire errors / {} unknown class ({} expired, {} bit-checked)",
        lg.offered,
        args.connections,
        report.elapsed_ns as f64 / 1e6,
        lg.ok,
        lg.failed,
        lg.shed,
        lg.wire_error_responses,
        lg.unknown_class,
        lg.expired,
        lg.bit_checked,
    );
    print_version_table(&registry);
    print_shard_health_table(&registry);
    match report.reconcile() {
        Ok(()) => println!("loadgen/server/registry ledgers reconciled exactly"),
        Err(e) => {
            eprintln!("error: ledgers did not reconcile: {e}");
            std::process::exit(1);
        }
    }
    println!();
    print!(
        "{}",
        fast_bcnn::TelemetryReport::from_registry(&registry_telemetry).render()
    );
    export(args, &registry_telemetry);
}

/// Demonstrates a drain-free hot swap: serves traffic on the base
/// artifact, deploys the `--next` artifact mid-stream (or a version bump
/// of the base when `--next` is omitted), keeps serving while the canary
/// fraction exercises the candidate, then promotes it on every shard.
fn cmd_swap(args: &Args) {
    let registry_telemetry = std::sync::Arc::new(fast_bcnn::telemetry::Registry::new());
    let guard = fast_bcnn::telemetry::install(registry_telemetry.clone());
    let base = base_artifact(args);
    let shape = base.network.input_shape();
    let seed = base.config.seed;
    let base_version = base.model_version;
    let next = match &args.next {
        Some(path) => match ModelArtifact::load(path) {
            Ok(artifact) => artifact,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            // The digest covers weights/thresholds/indicators but not the
            // version or label, so a relabeled version bump stays valid.
            let mut bump = base.clone();
            bump.model_version = base_version + 1;
            bump.label = format!("{}-next", bump.label);
            bump
        }
    };
    let next_version = next.model_version;
    let cfg = registry_cfg(args, &base.config);
    let registry = match ModelRegistry::new(base, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: refusing to serve: {e}");
            std::process::exit(1);
        }
    };

    let per_phase = (args.requests / 3).max(1);
    let serve = |phase: u64, n: usize| -> fast_bcnn::RegistryReport {
        let requests: Vec<BatchRequest> = (0..n)
            .map(|i| {
                let id = phase * 10_000 + i as u64;
                BatchRequest::new(id, synth_input(shape, seed ^ id.wrapping_mul(41)))
            })
            .collect();
        registry.run_batch(&requests)
    };

    println!("phase 1: {per_phase} requests on v{base_version}");
    let mut reports = vec![serve(0, per_phase)];
    if let Err(e) = registry.deploy(next) {
        eprintln!("error: deploy refused: {e}");
        std::process::exit(1);
    }
    println!("deployed v{next_version} as rollout candidate (canary fraction serving)");
    println!("phase 2: {per_phase} requests with the rollout in flight");
    reports.push(serve(1, per_phase));
    if let Some(status) = registry.rollout_status() {
        println!(
            "canary: {} observed, {} failures, {} trips",
            status.observed, status.failures, status.canary_trips
        );
    }
    match registry.promote() {
        Some(v) => println!("promoted v{v} on all {} shards", args.shards),
        None => println!(
            "rollout was already resolved (rolled back automatically); still on v{}",
            registry.active_version()
        ),
    }
    println!(
        "phase 3: {per_phase} requests on v{}",
        registry.active_version()
    );
    reports.push(serve(2, per_phase));
    drop(guard);

    println!();
    print_version_table(&registry);
    println!(
        "deploys {} | promotions {} | rollbacks {} | active v{}",
        registry.deploys(),
        registry.promotions(),
        registry.rollbacks(),
        registry.active_version()
    );
    for (i, report) in reports.iter().enumerate() {
        if let Err(e) = report.reconcile() {
            eprintln!("error: phase {} accounting did not reconcile: {e}", i + 1);
            std::process::exit(1);
        }
    }
    println!("accounting reconciled exactly across all phases");
    println!();
    print!(
        "{}",
        fast_bcnn::TelemetryReport::from_registry(&registry_telemetry).render()
    );
    export(args, &registry_telemetry);
}

/// Serves traffic window by window under a [`WindowedRegistry`] and an
/// SLO policy, rendering the operator view after every window: latency
/// quantiles, error-budget burn, and breaker/shed/swap activity. A
/// healthy version bump is swapped in mid-watch, and `--chaos` runs a
/// quick fault campaign (deadline class `default`) through the same
/// windowed recorder. `--postmortem-out` arms the flight recorder: the
/// first `Critical` window freezes the flight log to that path.
///
/// [`WindowedRegistry`]: fast_bcnn::telemetry::WindowedRegistry
fn cmd_watch(args: &Args) {
    use fast_bcnn::telemetry::{
        HealthStatus, LatencyObjective, ManualClock, SloPolicy, WindowedRegistry,
        REQUEST_LATENCY_METRIC, STANDARD_QUANTILES,
    };
    use std::sync::Arc;

    let clock = Arc::new(ManualClock::new());
    let width_ns = args.window_ms.saturating_mul(1_000_000).max(1);
    let windowed = Arc::new(WindowedRegistry::new(
        width_ns,
        args.windows + 8,
        Arc::clone(&clock) as Arc<dyn fast_bcnn::telemetry::Clock>,
    ));
    let guard = fast_bcnn::telemetry::install(
        Arc::clone(&windowed) as Arc<dyn fast_bcnn::telemetry::Recorder>
    );

    let base = base_artifact(args);
    let shape = base.network.input_shape();
    let seed = base.config.seed;
    let base_version = base.model_version;
    let flight = Arc::new(fast_bcnn::FlightRecorder::default());
    if let Some(path) = &args.postmortem_out {
        flight.arm_postmortem(path);
    }
    let mut cfg = registry_cfg(args, &base.config);
    cfg.resilience.deadline_class = "serve".to_string();
    cfg.flight = Some(Arc::clone(&flight));
    let bump = {
        let mut bump = base.clone();
        bump.model_version = base_version + 1;
        bump.label = format!("{}-next", bump.label);
        bump
    };
    let registry = match ModelRegistry::new(base, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: refusing to serve: {e}");
            std::process::exit(1);
        }
    };
    let policy = SloPolicy {
        objectives: vec![LatencyObjective {
            class: "serve".to_string(),
            quantile: 0.99,
            // Tie the objective to the serving deadline when one is
            // set; otherwise keep it above the histogram's top bucket.
            threshold_ns: args.deadline_ms.map(|ms| ms as f64 * 1e6).unwrap_or(4e9),
        }],
        classes: Some(vec!["serve".to_string(), "default".to_string()]),
        ..SloPolicy::default()
    };

    println!(
        "watching {} windows of {} requests ({} ms windows, fast span {}, slow span {})",
        args.windows, args.requests, args.window_ms, policy.fast_windows, policy.slow_windows
    );
    for w in 0..args.windows as u64 {
        clock.set(w * width_ns);
        if w == 1 && args.windows >= 3 {
            match registry.deploy(bump.clone()) {
                Ok(()) => println!("-- deployed v{} as rollout candidate", base_version + 1),
                Err(e) => println!("-- deploy refused: {e}"),
            }
        }
        if w == 2 && args.windows >= 3 {
            if let Some(v) = registry.promote() {
                println!("-- promoted v{v}");
            }
        }
        if args.chaos && w == args.windows as u64 / 2 {
            println!("-- chaos campaign running in this window (class `default`)");
            let report = fbcnn_bench::harness::chaos::run_chaos(
                &fbcnn_bench::harness::chaos::ChaosConfig::quick(seed),
                windowed.total(),
            );
            println!(
                "-- chaos: {} requests, {} ok / {} failed",
                report.requests_total, report.ok_total, report.failed_total
            );
        }
        for i in 0..args.requests {
            let id = w * 10_000 + i as u64;
            registry.handle(&BatchRequest::new(
                id,
                synth_input(shape, seed ^ id.wrapping_mul(41)),
            ));
        }

        if args.supervise {
            // Fold breaker state into the shard health machine and
            // rebuild whatever this window's traffic got quarantined.
            registry.supervise_tick();
        }

        let health = policy.evaluate(&windowed);
        println!("window {w}: health {}", health.status.name().to_uppercase());
        print_shard_health_table(&registry);
        let mut rows = Vec::new();
        for class in ["serve", "default"] {
            let qs: Vec<f64> = STANDARD_QUANTILES.iter().map(|&(_, q)| q).collect();
            if let Some(est) = windowed.windowed_quantiles(
                policy.fast_windows,
                REQUEST_LATENCY_METRIC,
                &[("class", class)],
                &qs,
            ) {
                let mut row = vec![class.to_string()];
                row.extend(est.iter().map(|ns| format!("{:.2}", ns / 1e6)));
                rows.push(row);
            }
        }
        if !rows.is_empty() {
            let mut headers = vec!["class"];
            headers.extend(STANDARD_QUANTILES.iter().map(|&(name, _)| name));
            print!("{}", format_table(&headers, &rows));
            println!("  (bucket-edge estimates over the fast span, ms)");
        }
        for b in &health.burns {
            println!(
                "  burn {}: fast {:.2}x ({}/{} failed) | slow {:.2}x ({}/{} failed)",
                b.class,
                b.fast_burn,
                b.failed_fast,
                b.total_fast,
                b.slow_burn,
                b.failed_slow,
                b.total_slow
            );
        }
        let activity: Vec<String> = [
            (
                "forced exact",
                windowed.windowed_counter_total(1, "breaker_forced_exact"),
            ),
            (
                "breaker moves",
                windowed.windowed_counter_total(1, "breaker_transitions"),
            ),
            ("shed", windowed.windowed_counter_total(1, "shed_requests")),
            (
                "retries",
                windowed.windowed_counter_total(1, "retry_attempts"),
            ),
            (
                "deploys",
                windowed.windowed_counter_total(1, "swap_deploys"),
            ),
            (
                "promotions",
                windowed.windowed_counter_total(1, "swap_promotions"),
            ),
            (
                "rollbacks",
                windowed.windowed_counter_total(1, "rollback_total"),
            ),
        ]
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
        if !activity.is_empty() {
            println!("  activity: {}", activity.join(" | "));
        }
        for v in &health.violations {
            println!("  !! {}", v.render());
        }
        if health.status == HealthStatus::Critical {
            if let Some(result) = flight.trigger_postmortem("slo_critical") {
                match result {
                    Ok(path) => println!("  postmortem dump written to {}", path.display()),
                    Err(e) => println!("  postmortem dump failed: {e}"),
                }
            }
        }
    }
    drop(guard);
    println!();
    print!(
        "{}",
        fast_bcnn::TelemetryReport::from_registry(windowed.total()).render()
    );
    export(args, windowed.total());
}

/// One record's flag summary for the postmortem table.
fn record_flags(r: &fast_bcnn::FlightRecord) -> String {
    let mut flags = Vec::new();
    if r.canary {
        flags.push("canary");
    }
    if r.rolled_back {
        flags.push("rolled-back");
    }
    if r.shed {
        flags.push("shed");
    }
    if r.expired {
        flags.push("expired");
    }
    if r.forced_exact {
        flags.push("forced-exact");
    }
    if r.probe {
        flags.push("probe");
    }
    if r.retry_exhausted {
        flags.push("retry-exhausted");
    }
    if r.cache_hit {
        flags.push("cache-hit");
    }
    if flags.is_empty() {
        "-".to_string()
    } else {
        flags.join(",")
    }
}

/// Prints one request's decision timeline: every choice the serving
/// stack made, in the order it made them.
fn print_timeline(r: &fast_bcnn::FlightRecord) {
    println!(
        "request {} (seed {}, class `{}`, v{} shard {}{}):",
        r.id,
        r.seed,
        r.class,
        r.version,
        r.shard,
        if r.canary { ", canary traffic" } else { "" }
    );
    if r.shed {
        println!("  1. admission: SHED — the queue was full; the request never executed");
        return;
    }
    match r.degraded_to {
        Some(n) => println!("  1. admission: admitted with a degraded sample cap of {n}"),
        None => println!("  1. admission: admitted"),
    }
    println!(
        "  2. queued {:.3} ms before execution",
        r.queue_wait_ns as f64 / 1e6
    );
    let mut attempt_notes = Vec::new();
    if r.attempts > 1 {
        attempt_notes.push(format!(
            "{} retries, {:.3} ms deterministic backoff",
            r.attempts - 1,
            r.backoff_ns as f64 / 1e6
        ));
    }
    if r.requeues > 0 {
        attempt_notes.push(format!("{} watchdog requeues", r.requeues));
    }
    if r.forced_exact {
        attempt_notes.push("breaker forced the exact path".to_string());
    }
    if r.probe {
        attempt_notes.push("served as a half-open probe".to_string());
    }
    println!(
        "  3. executed {} attempt(s){}{}",
        r.attempts,
        if attempt_notes.is_empty() {
            ""
        } else {
            " — "
        },
        attempt_notes.join(", ")
    );
    if r.cache_hit {
        println!("  4. pre-inference served from cache");
    }
    if r.ok {
        let skip = if r.skip_total == 0 {
            0.0
        } else {
            r.skip_skipped as f64 * 100.0 / r.skip_total as f64
        };
        println!(
            "  5. outcome: OK in {:.3} ms — mode {}, {}/{} samples used ({} fallback, {} lost), {skip:.1}% neuron work skipped",
            r.latency_ns as f64 / 1e6,
            r.mode,
            r.used_samples,
            r.requested_samples,
            r.fallback_samples,
            r.lost_samples,
        );
    } else {
        println!(
            "  5. outcome: FAILED in {:.3} ms — typed reason `{}`{}",
            r.latency_ns as f64 / 1e6,
            r.reason,
            if r.expired { " (deadline expired)" } else { "" }
        );
    }
    if r.rolled_back {
        println!("  6. canary verdict: tripped the version breaker — rollout rolled back");
    }
}

/// Reconstructs a postmortem dump: the summary, the degraded-request
/// table, and (with `--id`) one request's full decision timeline.
fn cmd_postmortem(args: &Args) {
    let Some(path) = &args.input else {
        eprintln!("error: postmortem needs a flight-log file: fastbcnn postmortem <file> [--id N]");
        std::process::exit(2);
    };
    let log = match fast_bcnn::io::read_flight_log(path) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "flight log {path}: trigger `{}` | {} recorded | ring {}/{} | {} pinned failures ({} dropped) | {} ok evicted",
        log.trigger,
        log.recorded,
        log.records.len(),
        log.capacity,
        log.failed_exemplars.len(),
        log.dropped_failed,
        log.evicted_ok,
    );
    if let Some(worst) = &log.worst_latency {
        println!(
            "worst latency: request {} at {:.3} ms ({})",
            worst.id,
            worst.latency_ns as f64 / 1e6,
            if worst.ok {
                "ok"
            } else {
                worst.reason.as_str()
            }
        );
    }
    println!();

    if let Some(id) = args.id {
        let found = log
            .failed_exemplars
            .iter()
            .chain(log.records.iter())
            .find(|r| r.id == id)
            .or(log.worst_latency.as_ref().filter(|r| r.id == id));
        match found {
            Some(r) => print_timeline(r),
            None => {
                eprintln!("error: request {id} is not in this flight log");
                std::process::exit(1);
            }
        }
        return;
    }

    let degraded = log.degraded();
    let rows: Vec<Vec<String>> = degraded
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                r.class.clone(),
                format!("v{}", r.version),
                r.shard.to_string(),
                format!("{:.2}", r.latency_ns as f64 / 1e6),
                r.attempts.to_string(),
                if r.ok { "ok".into() } else { r.reason.clone() },
                r.mode.clone(),
                record_flags(r),
            ]
        })
        .collect();
    if rows.is_empty() {
        println!("no degraded requests — every replayable request served cleanly");
    } else {
        print!(
            "{}",
            format_table(
                &["id", "class", "ver", "shard", "ms", "att", "outcome", "mode", "flags"],
                &rows
            )
        );
        println!(
            "{} degraded of {} replayable requests (use --id <n> for one request's timeline)",
            degraded.len(),
            log.records.len() + log.failed_exemplars.len(),
        );
    }
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // `observe`, `serve-batch`, `serve`, `swap` and `watch` manage
    // their own registry (they print the digest before the exporters
    // run); `postmortem` only reads a dump; every other command uses
    // the drop-to-export sink.
    let own_registry = matches!(
        args.command.as_str(),
        "observe" | "serve-batch" | "serve" | "serve-net" | "swap" | "watch" | "postmortem"
    );
    let _telemetry = if own_registry {
        None
    } else {
        fast_bcnn::telemetry::FileSink::new(args.trace_out.as_deref(), args.metrics_out.as_deref())
    };
    match args.command.as_str() {
        "demo" => cmd_demo(&args),
        "simulate" => cmd_simulate(&args),
        "characterize" => cmd_characterize(&args),
        "train" => cmd_train(&args),
        "observe" => cmd_observe(&args),
        "serve-batch" => cmd_serve_batch(&args),
        "export-model" => cmd_export_model(&args),
        "serve" => cmd_serve(&args),
        "serve-net" => cmd_serve_net(&args),
        "swap" => cmd_swap(&args),
        "watch" => cmd_watch(&args),
        "postmortem" => cmd_postmortem(&args),
        _ => {
            println!(
                "usage: fastbcnn <demo|simulate|characterize|train|observe|serve-batch\
                 |export-model|serve|serve-net|swap|watch|postmortem> \
                 [--model lenet|vgg|googlenet|alexnet] [--samples N] [--full] \
                 [--epochs N] [--train-size N] [--requests N] [--threads N] \
                 [--deadline-ms N] [--retry-max N] [--breaker-threshold X] \
                 [--trace-out <path>] [--metrics-out <path>]"
            );
            println!(
                "serve-batch resilience defaults: no deadline (--deadline-ms unset), \
                 --retry-max 2, --breaker-threshold 0.5"
            );
            println!(
                "artifact flags: export-model --out <path> [--model-version N] [--label S]; \
                 serve/swap [--artifact <path>] [--next <path>] [--shards N] \
                 [--canary-percent N] (no --artifact: a fresh in-memory export; \
                 no --next: a version bump of the base)"
            );
            println!(
                "observability: watch [--windows N] [--window-ms N] [--requests N] \
                 [--chaos] [--supervise] [--postmortem-out <path>]; \
                 postmortem <file> [--id N]"
            );
            println!(
                "network serving: serve-net [--artifact <path>] [--addr host:port] \
                 [--connections N] [--requests N] [--supervise] (self-drives a seeded \
                 loadgen mix against the TCP server and reconciles the ledgers; \
                 --supervise adds shard health supervision with quarantine, failover \
                 and rebuild; see docs/SERVING.md and docs/REGISTRY.md)"
            );
        }
    }
}
