//! The traced run behind `--profile` (`--trace 1`): per-layer numbers.
//!
//! Spans are recorded here, around calls into each layer's public
//! functions, never inside the program. Each profiled request is first
//! run untraced through the workload's own path; then the same request is
//! replayed stage by stage under a `request` root span, so that
//! `trace.coverage` (the stage times over the untraced latency) shows how
//! much of the request the decomposition accounts for. A `reference` root
//! times further single-layer calls on the same input and masks — dense
//! convolution per layer, skip maps, nw-input counting, the wire codec —
//! and, on the exact and serving workloads, the robust pipeline the
//! request itself does not run, so every workload reports every
//! committed per-layer metric. Spans stay in memory and are written out
//! once at the end.

use crate::client::Client;
use crate::record::{Better, Metric, Record};
use crate::stats;
use crate::workload::{
    boot, failed, fill_caches, mask_seed, robust, serve_request, Budget, Opts, Path, Workload,
    CLASS, WARM_BASE,
};
use fast_bcnn::serve::{ServeRequest, ServeResponse, DEFAULT_MAX_FRAME_BYTES, LEN_PREFIX_BYTES};
use fast_bcnn::{
    error_reason_name, BaselineSim, BatchRequest, Engine, FastBcnnSim, HwConfig, InferenceError,
    McDropout, ModelRegistry, Prediction, PredictiveInference, RegistryOutcome, RequestClass,
    RobustReport, SkipMode, SkipStats, Tensor,
};
use fbcnn_nn::{NodeId, Workspace};
use fbcnn_predictor::{
    build_skip_maps, count_dropped_nw_inputs, input_drop_mask, PolarityIndicators, PredictorShared,
    PreparedInput,
};
use fbcnn_tensor::stats::softmax;
use serde::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A `--seconds` profile still decomposes at least this many requests.
const MIN_PROFILED: u64 = 10;
/// The serving profile replays the robust pipeline on every n-th request.
const SERVE_REFERENCE_EVERY: u64 = 10;
/// `trace.coverage` outside this range means the decomposition misses or
/// double-counts part of the request.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.9..=1.1;

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: usize,
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

pub struct Tracer {
    origin: Instant,
    req: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn root<R>(&mut self, req: u64, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.req = req;
        self.span(name, f)
    }

    fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            id,
            name: name.into(),
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = end;
        out
    }
}

/// Every span must lie inside its parent, within the same request.
pub fn check_enclosure(spans: &[Span]) -> Result<(), String> {
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .ok_or_else(|| format!("span {} names missing parent {p}", s.id))?;
        if parent.req != s.req || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {} ({}) escapes its parent {} ({})",
                s.id, s.name, p, parent.name
            ));
        }
    }
    Ok(())
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Value::Map(vec![
            ("req".into(), Value::UInt(s.req)),
            ("id".into(), Value::UInt(s.id as u64)),
            ("name".into(), Value::Str(s.name.clone())),
            (
                "parent".into(),
                s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
            ),
            ("start_ns".into(), Value::UInt(s.start_ns)),
            ("end_ns".into(), Value::UInt(s.end_ns)),
        ]);
        let text = serde_json::to_string(&line).expect("the value model always prints");
        writeln!(out, "{text}")?;
    }
    out.flush()
}

/// `Engine::predict_robust_controlled`, stage by stage: the predictor's
/// input-invariant state, the pre-inference, the canary (sample 0 on the
/// naive dense path and on the skipping path), then `used` skipping
/// samples and the summary.
fn robust_replay(t: &mut Tracer, engine: &Engine, input: &Tensor, seed: u64, used: usize) {
    let bnet = engine.bayesian_network();
    let shared = t.span("engine.shared_build", |_| {
        Arc::new(engine.predictor_shared())
    });
    let prepared = t.span("engine.preinference", |_| {
        Arc::new(PreparedInput::new(bnet, input))
    });
    let fast = PredictiveInference::from_parts(bnet, shared, prepared);
    t.span("engine.canary", |t| {
        let masks = t.span("bayes.mask_gen", |_| bnet.generate_masks(seed, 0));
        let exact = t.span("bayes.naive_sample", |_| bnet.forward_sample(input, &masks));
        let run = t.span("predictor.sample", |_| fast.run_sample(&masks));
        black_box((softmax(exact.logits()), softmax(run.logits())));
    });
    let rows: Vec<Vec<f32>> = t.span("engine.samples", |t| {
        (0..used)
            .map(|s| {
                let masks = t.span("bayes.mask_gen", |_| bnet.generate_masks(seed, s));
                let run = t.span("predictor.sample", |_| fast.run_sample(&masks));
                softmax(run.logits())
            })
            .collect()
    });
    t.span("bayes.summarize", |_| black_box(McDropout::summarize(rows)));
}

/// `Engine::predict_exact` with one thread, stage by stage.
fn exact_replay(t: &mut Tracer, engine: &Engine, input: &Tensor) {
    let bnet = engine.bayesian_network();
    let seed = engine.config().seed;
    let mut ws = Workspace::new();
    let rows: Vec<Vec<f32>> = t.span("bayes.samples", |t| {
        (0..engine.config().samples)
            .map(|s| {
                let masks = t.span("bayes.mask_gen", |_| bnet.generate_masks(seed, s));
                let run = t.span("bayes.dense_sample", |_| {
                    bnet.forward_sample_ws(input, &masks, &mut ws)
                });
                softmax(run.logits())
            })
            .collect()
    });
    t.span("bayes.summarize", |_| black_box(McDropout::summarize(rows)));
}

type RobustResult = Result<(Prediction, RobustReport), InferenceError>;

/// The response frame the server sends for an engine result, routing
/// fields left at zero.
fn response(id: u64, result: &RobustResult) -> ServeResponse {
    let base = ServeResponse {
        id,
        class: CLASS.to_string(),
        ok: false,
        reason: String::new(),
        shed: false,
        expired: false,
        degraded: "none".to_string(),
        used_samples: 0,
        requested_samples: 0,
        predicted: 0,
        mean_bits: Vec::new(),
        entropy_bits: 0,
        version: 0,
        shard: 0,
        attempts: 0,
    };
    match result {
        Ok((p, r)) => ServeResponse {
            ok: true,
            reason: "ok".to_string(),
            degraded: r.mode.name().to_string(),
            used_samples: r.used_samples as u64,
            requested_samples: r.requested_samples as u64,
            predicted: p.class as u64,
            mean_bits: p.mean.iter().map(|v| v.to_bits()).collect(),
            entropy_bits: p.predictive_entropy.to_bits(),
            ..base
        },
        Err(e) => ServeResponse {
            reason: error_reason_name(e).to_string(),
            ..base
        },
    }
}

/// One serving request in process, stage by stage: client encode, server
/// decode, the registry (router, resilience, batch engine, engine),
/// server encode, client decode. Only the socket hops are missing.
fn serve_replay(t: &mut Tracer, registry: &ModelRegistry, req: &ServeRequest) -> RegistryOutcome {
    let frame = t.span("serve.encode", |_| req.encode(DEFAULT_MAX_FRAME_BYTES));
    let frame = frame.expect("a benchmark request encodes");
    let batch = t.span("serve.decode", |_| {
        let req = ServeRequest::decode(&frame[LEN_PREFIX_BYTES..]).expect("own frame decodes");
        let mut batch = BatchRequest::new(req.id, req.input().expect("own input is well formed"));
        batch.seed = req.seed;
        batch
    });
    let out = t.span("registry.handle", |_| {
        registry.handle_classed(&batch, Some(&RequestClass::named(CLASS)))
    });
    let bytes = t.span("serve.encode_response", |_| {
        let resp = ServeResponse {
            shed: out.outcome.shed,
            expired: out.outcome.expired,
            version: out.version,
            shard: out.shard as u64,
            attempts: out.outcome.attempts,
            ..response(req.id, out.outcome.result())
        };
        resp.encode(DEFAULT_MAX_FRAME_BYTES)
    });
    let bytes = bytes.expect("a response encodes");
    t.span("serve.decode_response", |_| {
        black_box(ServeResponse::decode(&bytes[LEN_PREFIX_BYTES..]).expect("response decodes"))
    });
    out
}

/// Per-profile state of the single-layer reference calls.
struct Layers<'a> {
    engine: &'a Engine,
    shared: Arc<PredictorShared>,
    indicators: PolarityIndicators,
    /// Conv nodes with their metric-safe labels and MACs per neuron.
    convs: Vec<(NodeId, String, f64)>,
    ws: Workspace,
    /// Per conv label: (skipped neurons, neurons) over the reference maps.
    skips: BTreeMap<String, (f64, f64)>,
    macs: (f64, f64),
}

fn metric_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl<'a> Layers<'a> {
    fn new(engine: &'a Engine) -> Self {
        let net = engine.network();
        let convs = net
            .conv_nodes()
            .into_iter()
            .map(|id| {
                let node = net.node(id);
                let conv = node.layer().and_then(|l| l.as_conv()).expect("conv node");
                (
                    id,
                    metric_label(node.label()),
                    conv.macs_per_neuron() as f64,
                )
            })
            .collect();
        Self {
            engine,
            shared: Arc::new(engine.predictor_shared()),
            indicators: PolarityIndicators::from_network(net),
            convs,
            ws: Workspace::new(),
            skips: BTreeMap::new(),
            macs: (0.0, 0.0),
        }
    }

    /// Sample 0 of a request, one layer call at a time.
    fn reference(
        &mut self,
        t: &mut Tracer,
        index: u64,
        input: &Tensor,
        seed: u64,
        reply: &RobustResult,
    ) {
        let engine = self.engine;
        let bnet = engine.bayesian_network();
        let net = bnet.network();
        let prepared = Arc::new(PreparedInput::new(bnet, input));
        let fast = PredictiveInference::from_parts(bnet, Arc::clone(&self.shared), prepared);
        let masks = bnet.generate_masks(seed, 0);
        let ws = &mut self.ws;
        t.span("bayes.dense_sample", |_| {
            black_box(bnet.forward_sample_ws(input, &masks, ws))
        });
        let maps = t.span("predictor.skip_maps", |_| {
            build_skip_maps(
                net,
                &masks,
                fast.zero_masks(),
                &self.indicators,
                engine.thresholds(),
            )
        });
        for (id, label, macs) in &self.convs {
            let node = net.node(*id);
            let conv = node.layer().and_then(|l| l.as_conv()).expect("conv node");
            if let Some(mask) = input_drop_mask(net, &masks, *id) {
                let kernels = self.indicators.kernels(*id);
                t.span(format!("predictor.count.{label}"), |_| {
                    black_box(count_dropped_nw_inputs(conv, kernels, &mask))
                });
            }
            let act = &fast.pre_inference().activations[node.inputs()[0].0];
            t.span(format!("nn.conv.{label}"), |_| {
                black_box(conv.forward_ws(act, ws))
            });
            let s = maps[id.0].as_ref().expect("conv skip map").stats();
            let e = self.skips.entry(label.clone()).or_default();
            e.0 += s.skipped as f64;
            e.1 += s.total as f64;
            self.macs.0 += s.skipped as f64 * macs;
            self.macs.1 += s.total as f64 * macs;
        }
        t.span("serve.codec", |_| {
            let frame = serve_request(index, input, seed)
                .encode(DEFAULT_MAX_FRAME_BYTES)
                .expect("request encodes");
            let back = ServeRequest::decode(&frame[LEN_PREFIX_BYTES..]).expect("request decodes");
            black_box(back.input().expect("input is well formed"));
            let frame = response(index, reply)
                .encode(DEFAULT_MAX_FRAME_BYTES)
                .expect("response encodes");
            black_box(ServeResponse::decode(&frame[LEN_PREFIX_BYTES..]).expect("response decodes"));
        });
    }
}

/// Counts of the robust runs the profile made, from their reports.
#[derive(Default)]
struct Robust {
    runs: u64,
    used: u64,
    fallback: u64,
    skip: SkipStats,
}

impl Robust {
    fn absorb(&mut self, r: &RobustReport) {
        self.runs += 1;
        self.used += r.used_samples as u64;
        self.fallback += r.fallback_samples as u64;
        self.skip.absorb(r.skip);
    }
}

/// Serving-tier counts from the in-process `handle` calls.
#[derive(Default)]
struct Handles {
    calls: u64,
    cache_hits: u64,
    attempts: u64,
    per_shard: BTreeMap<usize, u64>,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

pub fn run(w: &Workload, opts: &Opts, spans_out: Option<&std::path::Path>) -> Record {
    let mut rec = Record {
        workload: w.name.to_string(),
        seed: opts.seed,
        trace: true,
        ..Record::default()
    };
    let budget = Budget::new(w.profile_requests, MIN_PROFILED, opts);
    let cfg = w.engine_config();
    let fail = |problem: String| Record {
        trace: true,
        ..failed(w, opts, problem)
    };
    // The serving workload profiles its booted stack; the reference engine
    // the artifact came from carries the engine-level calls.
    let stack = match w.path {
        Path::Serve => match boot(cfg) {
            Ok(s) => Some(s),
            Err(e) => return fail(e),
        },
        _ => None,
    };
    let own = stack.is_none().then(|| Engine::new(cfg));
    let engine = match (&stack, &own) {
        (Some(s), _) => &s.reference,
        (None, Some(e)) => e,
        (None, None) => unreachable!("one engine is always built"),
    };
    let stack = stack.as_ref();
    let shape = engine.network().input_shape();
    let mut client = None;
    if let Some(stack) = stack {
        let connected = Client::connect(stack.server.addr())
            .map_err(|e| e.to_string())
            .and_then(|mut c| fill_caches(w, stack, &mut c, opts.seed).map(|_| c));
        match connected {
            Ok(c) => client = Some(c),
            Err(e) => return fail(format!("serving stack: {e}")),
        }
    }
    // Warm-up: the same calls, untimed, on inputs the profile never uses.
    for k in 0..budget.count.div_ceil(20) {
        let index = WARM_BASE + k;
        let input = w.input(shape, opts.seed, index);
        let _ = robust(engine, &input, mask_seed(opts.seed, index));
        if w.path == Path::Exact {
            black_box(engine.predict_exact(&input));
        }
    }

    let mut tracer = Tracer::new();
    let mut layers = Layers::new(engine);
    let mut robust_runs = Robust::default();
    let mut handles = Handles::default();
    // (`request` root span id, untraced latency in ms) per request.
    let mut untraced = Vec::new();
    let started = Instant::now();
    let mut index = 0;
    while budget.more(index, started) {
        let input = w.input(shape, opts.seed, index);
        let seed = mask_seed(opts.seed, index);
        rec.attempted += 1;
        // The request itself, untraced, then replayed under `request`.
        match (w.path, client.as_mut(), stack) {
            (Path::Robust, _, _) => {
                let t0 = Instant::now();
                let out = robust(engine, &input, seed);
                let lat = ms_since(t0);
                let Ok((_, report)) = &out else {
                    rec.failed += 1;
                    index += 1;
                    continue;
                };
                untraced.push((tracer.spans.len(), lat));
                tracer.root(index, "request", |t| {
                    robust_replay(t, engine, &input, seed, report.used_samples)
                });
                robust_runs.absorb(report);
                tracer.root(index, "reference", |t| {
                    layers.reference(t, index, &input, seed, &out)
                });
            }
            (Path::Exact, _, _) => {
                let t0 = Instant::now();
                black_box(engine.predict_exact(&input));
                untraced.push((tracer.spans.len(), ms_since(t0)));
                tracer.root(index, "request", |t| exact_replay(t, engine, &input));
            }
            (Path::Serve, Some(client), Some(stack)) => {
                let req = serve_request(index, &input, opts.seed);
                let t0 = Instant::now();
                let resp = client.roundtrip(&req);
                let lat = ms_since(t0);
                if !resp.is_ok_and(|r| r.is_pristine()) {
                    rec.failed += 1;
                    index += 1;
                    continue;
                }
                untraced.push((tracer.spans.len(), lat));
                let out = tracer.root(index, "request", |t| serve_replay(t, &stack.registry, &req));
                handles.calls += 1;
                handles.cache_hits += u64::from(out.outcome.outcome.cache_hit);
                handles.attempts += u64::from(out.outcome.attempts);
                *handles.per_shard.entry(out.shard).or_default() += 1;
            }
            _ => unreachable!("the serving workload always has a stack and a client"),
        }
        // The robust pipeline on the workloads whose request is not it.
        let reference_due = match w.path {
            Path::Robust => false,
            Path::Exact => true,
            Path::Serve => index.is_multiple_of(SERVE_REFERENCE_EVERY),
        };
        if reference_due {
            let out = robust(engine, &input, seed);
            match &out {
                Ok((_, report)) => {
                    robust_runs.absorb(report);
                    tracer.root(index, "reference", |t| {
                        robust_replay(t, engine, &input, seed, report.used_samples);
                        layers.reference(t, index, &input, seed, &out);
                    });
                }
                Err(_) => rec.failed += 1,
            }
        }
        index += 1;
    }

    // The hardware model on the first request's masks.
    let input = w.input(shape, opts.seed, 0);
    let (fb, base) = tracer.root(0, "accel", |t| {
        let work = t.span("accel.workload", |_| {
            fast_bcnn::Workload::build(
                engine.bayesian_network(),
                &input,
                engine.thresholds(),
                w.samples,
                mask_seed(opts.seed, 0),
            )
        });
        t.span("accel.simulate", |_| {
            (
                FastBcnnSim::new(HwConfig::fast_bcnn(64), SkipMode::Both).run(&work),
                BaselineSim::new(HwConfig::baseline()).run(&work),
            )
        })
    });

    if let Err(e) = check_enclosure(&tracer.spans) {
        rec.problems.push(e);
    }
    if let Some(path) = spans_out {
        if let Err(e) = write_spans(path, &tracer.spans) {
            rec.problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    metrics(
        &mut rec,
        &tracer.spans,
        &layers,
        &robust_runs,
        &handles,
        &untraced,
    );
    rec.push("accel.speedup_vs_baseline", fb.speedup_over(&base));
    for layer in &fb.layers {
        rec.metrics.push(Metric::layer(
            format!("accel.{}.cycles", metric_label(&layer.label)),
            layer.cycles as f64 / fb.t as f64,
            "cycles",
            Better::Lower,
        ));
    }
    match rec.get("trace.coverage") {
        Some(c) if COVERAGE.contains(&c) => {}
        Some(c) => rec.problems.push(format!(
            "trace.coverage {c:.3} outside [{}, {}]",
            COVERAGE.start(),
            COVERAGE.end()
        )),
        None => rec.problems.push("no request was profiled".into()),
    }
    rec
}

/// Per-layer metrics from the spans and counts. Times are medians over
/// every span of a name, so a stage timed on several roots pools them.
fn metrics(
    rec: &mut Record,
    spans: &[Span],
    layers: &Layers<'_>,
    runs: &Robust,
    handles: &Handles,
    untraced: &[(usize, f64)],
) {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut stages: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name.as_str()).or_default().push(s.ns());
        if let Some(p) = s.parent {
            if spans[p].name == "request" && spans[p].parent.is_none() {
                *stages.entry(p).or_default() += s.ns();
            }
        }
    }
    let med_ns = |name: &str| by_name.get(name).and_then(|v| stats::median(v));
    let mut missing = Vec::new();
    let mut put = |rec: &mut Record, name: &str, value: Option<f64>| match value {
        Some(v) => rec.push(name, v),
        None => missing.push(name.to_string()),
    };
    let ms = |name: &str| med_ns(name).map(|v| v / 1e6);
    put(rec, "engine.shared_build_ms", ms("engine.shared_build"));
    put(rec, "engine.preinference_ms", ms("engine.preinference"));
    put(rec, "engine.canary_ms", ms("engine.canary"));
    let per_run = |n: u64| (runs.runs > 0).then(|| n as f64 / runs.runs as f64);
    put(rec, "engine.samples_per_req", per_run(runs.used));
    put(
        rec,
        "bayes.mask_gen_us",
        med_ns("bayes.mask_gen").map(|v| v / 1e3),
    );
    put(rec, "bayes.dense_sample_ms", ms("bayes.dense_sample"));

    let mut conv_dense = 0.0;
    let mut count = 0.0;
    for (_, label, _) in &layers.convs {
        if let Some(v) = med_ns(&format!("nn.conv.{label}")) {
            conv_dense += v;
            rec.metrics.push(Metric::layer(
                format!("nn.{label}.dense_us"),
                v / 1e3,
                "us",
                Better::Lower,
            ));
        }
        if let Some(v) = med_ns(&format!("predictor.count.{label}")) {
            count += v;
            rec.metrics.push(Metric::layer(
                format!("predictor.{label}.count_us"),
                v / 1e3,
                "us",
                Better::Lower,
            ));
        }
        if let Some(&(skipped, total)) = layers.skips.get(label) {
            rec.metrics.push(Metric::layer(
                format!("predictor.{label}.skip_frac"),
                skipped / total,
                "share",
                Better::Higher,
            ));
        }
    }
    let sampled = !layers.skips.is_empty();
    put(rec, "nn.conv_dense_ms", sampled.then_some(conv_dense / 1e6));
    let sample = ms("predictor.sample");
    let skip_maps = ms("predictor.skip_maps");
    put(rec, "predictor.sample_ms", sample);
    put(rec, "predictor.skip_maps_ms", skip_maps);
    put(rec, "predictor.count_ms", sampled.then_some(count / 1e6));
    put(
        rec,
        "predictor.conv_ms",
        sample.zip(skip_maps).map(|(s, m)| s - m),
    );
    put(
        rec,
        "predictor.skip_vs_dense",
        sample.zip(ms("bayes.dense_sample")).map(|(s, d)| s / d),
    );
    put(
        rec,
        "predictor.skip_rate",
        (runs.runs > 0).then(|| runs.skip.skip_rate()),
    );
    put(
        rec,
        "predictor.mac_skip_frac",
        (layers.macs.1 > 0.0).then(|| layers.macs.0 / layers.macs.1),
    );
    put(
        rec,
        "serve.codec_us",
        med_ns("serve.codec").map(|v| v / 1e3),
    );
    if let Some(f) = per_run(runs.fallback) {
        rec.push("engine.fallback_samples_per_req", f);
    }
    // Per request, the replayed stages over the untraced latency; the
    // median keeps one preempted request from swinging the check.
    let ratios: Vec<f64> = untraced
        .iter()
        .map(|&(root, ms)| stages.get(&root).copied().unwrap_or(0.0) / (ms * 1e6))
        .collect();
    if let Some(c) = stats::median(&ratios) {
        rec.push("trace.coverage", c);
    }
    if handles.calls > 0 {
        let latencies: Vec<f64> = untraced.iter().map(|&(_, ms)| ms).collect();
        let calls = handles.calls as f64;
        rec.push("batch.cache_hit_rate", handles.cache_hits as f64 / calls);
        rec.push(
            "resilience.attempts_per_req",
            handles.attempts as f64 / calls,
        );
        let busiest = handles.per_shard.values().copied().max().unwrap_or(0);
        rec.push("registry.shard_share_max", busiest as f64 / calls);
        if let (Some(handle), Some(tcp)) = (ms("registry.handle"), stats::median(&latencies)) {
            rec.push("registry.handle_ms", handle);
            rec.push("serve.overhead_ms", tcp - handle);
        }
    }
    rec.problems
        .extend(missing.into_iter().map(|m| format!("{m}: no samples")));
}
