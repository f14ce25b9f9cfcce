//! The four workloads and their untraced, timed runs.
//!
//! Every workload is a closed loop with one caller: it sends its next
//! request only after the previous one answered. Model weights are fixed by the
//! workload; inputs (`synth_input`) and per-request mask seeds derive from
//! `--seed` and the request index, so one seed always replays the same
//! requests.

use crate::client::Client;
use crate::record::Record;
use crate::stats::{self, mix, Fnv};
use fast_bcnn::models::{ModelKind, ModelScale};
use fast_bcnn::serve::{self, ClassPolicy, NetServerHandle, ServeConfig, ServeRequest};
use fast_bcnn::{
    synth_input, DegradedMode, Engine, EngineConfig, InferenceError, McDropout, ModelArtifact,
    ModelRegistry, NoJitter, Prediction, RegistryConfig, ResilienceConfig, RobustConfig,
    RobustReport, RunControl, Shape, Tensor,
};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Engine::predict_robust_controlled` through [`robust`].
    Robust,
    /// `Engine::predict_exact`, one thread.
    Exact,
    /// TCP `serve` in front of a sharded `ModelRegistry`.
    Serve,
}

pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    /// MC-dropout samples `T`.
    pub samples: usize,
    pub path: Path,
    /// Timed requests when the run is not bounded by `--seconds`.
    pub requests: u64,
    /// Distinct inputs cycled through; `None` gives every request its own.
    pub inputs: Option<u64>,
    /// Requests a profile decomposes when not bounded by `--seconds`.
    pub profile_requests: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    // Per-request fixed costs dominate: the predictor state is rebuilt and
    // the input pre-inferred and canaried on every request, layers are
    // small, and early exit stops requests part-way through T = 50.
    Workload {
        name: "lenet-t50",
        model: ModelKind::LeNet5,
        samples: 50,
        path: Path::Robust,
        requests: 1000,
        inputs: None,
        profile_requests: 100,
    },
    // Native 32x32 planes keep skip fractions at the paper's level, and
    // kept-neuron convolution is most of a request: a skip-aware kernel
    // must show its gain here.
    Workload {
        name: "vgg16-t8",
        model: ModelKind::Vgg16,
        samples: 8,
        path: Path::Robust,
        requests: 200,
        inputs: None,
        profile_requests: 20,
    },
    // The same model and inputs on the dense blocked kernel only: the
    // predictor is bypassed, so a predictor change must not move it, and
    // it is the time skipping has to beat.
    Workload {
        name: "vgg16-t8-exact",
        model: ModelKind::Vgg16,
        samples: 8,
        path: Path::Exact,
        requests: 1000,
        inputs: None,
        profile_requests: 50,
    },
    // The only path through serve, registry, resilience and batch: cached
    // pre-inference and shared predictor state instead of one-shot inputs.
    // One connection, like the others: two closed-loop connections keep
    // both of a 2-CPU host's cores busy, and their p50 then doubled
    // whenever anything else ran (IQR 53% of the median over ten runs).
    Workload {
        name: "serve-lenet-t8",
        model: ModelKind::LeNet5,
        samples: 8,
        path: Path::Serve,
        requests: 2000,
        inputs: Some(64),
        profile_requests: 500,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Constructions timed for `setup_s` (the median is reported): at least
/// this many, over at least this long.
const SETUP_REPEATS: usize = 15;
const SETUP_MIN_S: f64 = 1.0;
/// Requests per workload in a `--smoke` run.
const SMOKE_REQUESTS: u64 = 4;
/// A `--seconds` run still times at least this many requests, so p90
/// always has ten samples beyond it.
const MIN_TIMED: u64 = 100;
/// Every `TOP1_EVERY`-th output is compared with the exact path, every
/// `BIT_CHECK_EVERY`-th with an independent reference, both untimed.
const TOP1_EVERY: u64 = 10;
const BIT_CHECK_EVERY: u64 = 20;
/// Slices of the timed phase whose median rate is `throughput_rps`.
const THROUGHPUT_SLICES: usize = 10;
/// Ceiling on the mean L1 distance between the skipping and the exact
/// predictive means of the checked requests. Top-1 agreement is reported
/// but not gated: the synthetic VGG16's means are nearly uniform over 100
/// classes, so its argmax flips on noise-level differences.
const MAX_MEAN_L1: f64 = 0.1;
/// Request indexes of warm-up traffic, disjoint from the timed indexes.
pub const WARM_BASE: u64 = 1 << 40;
const INPUT_SALT: u64 = 0x1D_5EED;
const MASK_SALT: u64 = 0x3A_5EED;
pub const CLASS: &str = "batch";

#[derive(Debug, Clone, Default)]
pub struct Opts {
    pub seed: u64,
    /// Bound every measured loop by wall time instead of request count.
    pub seconds: Option<f64>,
    /// A few requests per workload, one construction: a functional check.
    pub smoke: bool,
}

impl Workload {
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            // LeNet-5 ignores the scale; VGG16 keeps its native planes.
            scale: ModelScale::TINY_WIDE,
            samples: self.samples,
            threads: 1,
            ..EngineConfig::for_model(self.model)
        }
    }

    pub fn input(&self, shape: Shape, seed: u64, index: u64) -> Tensor {
        let j = self.inputs.map_or(index, |n| index % n);
        synth_input(shape, mix(seed, INPUT_SALT, j))
    }

    fn warmup(&self, budget: &Budget) -> u64 {
        budget.count.min(self.requests).div_ceil(20)
    }
}

pub fn mask_seed(seed: u64, index: u64) -> u64 {
    mix(seed, MASK_SALT, index)
}

/// How long a measured loop runs: a fixed request count, or wall time
/// with a floor on the count.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub count: u64,
    pub seconds: Option<f64>,
    pub floor: u64,
}

impl Budget {
    pub fn new(count: u64, floor: u64, opts: &Opts) -> Self {
        if opts.smoke {
            return Self {
                count: SMOKE_REQUESTS,
                seconds: None,
                floor: 0,
            };
        }
        Self {
            count,
            seconds: opts.seconds,
            floor,
        }
    }

    pub fn more(&self, done: u64, started: Instant) -> bool {
        match self.seconds {
            None => done < self.count,
            Some(s) => done < self.floor || started.elapsed().as_secs_f64() < s,
        }
    }
}

/// The one robust entry point every robust workload and the profile use.
pub fn robust(
    engine: &Engine,
    input: &Tensor,
    seed: u64,
) -> Result<(Prediction, RobustReport), InferenceError> {
    engine.predict_robust_controlled(input, seed, &RobustConfig::default(), &RunControl::none())
}

/// Builds the system under test at least `SETUP_REPEATS` times and for at
/// least `SETUP_MIN_S` (once when smoke), keeping the last build; returns
/// it with every construction time. Spreading the builds over a second
/// keeps one scheduling hiccup from setting the median.
pub fn construct<T>(opts: &Opts, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let (repeats, min_s) = if opts.smoke {
        (1, 0.0)
    } else {
        (SETUP_REPEATS, SETUP_MIN_S)
    };
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    let started = Instant::now();
    while times.len() < repeats || started.elapsed().as_secs_f64() < min_s {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one construction"), times)
}

/// The serving stack of `serve-lenet-t8`: the engine the artifact was
/// exported from doubles as the bit-identity reference.
pub struct Stack {
    pub reference: Engine,
    pub registry: Arc<ModelRegistry>,
    pub server: NetServerHandle,
}

pub fn boot(cfg: EngineConfig) -> Result<Stack, String> {
    let reference = Engine::new(cfg);
    let artifact = ModelArtifact::from_engine(&reference, 1, "e2e");
    let registry = ModelRegistry::new(
        artifact,
        RegistryConfig {
            shards: 2,
            resilience: ResilienceConfig {
                deadline_class: CLASS.to_string(),
                ..ResilienceConfig::default()
            },
            jitter: Some(Arc::new(NoJitter)),
            ..RegistryConfig::default()
        },
    )
    .map_err(|e| format!("registry boot: {e}"))?;
    let registry = Arc::new(registry);
    let server = serve::serve(
        Arc::clone(&registry),
        ServeConfig {
            classes: vec![ClassPolicy::unbounded(CLASS)],
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Stack {
        reference,
        registry,
        server,
    })
}

pub fn serve_request(index: u64, input: &Tensor, seed: u64) -> ServeRequest {
    let mut req = ServeRequest::from_input(index, CLASS, input);
    req.seed = Some(mask_seed(seed, index));
    req
}

/// Untimed pass that puts every distinct input into every shard's
/// pre-inference cache, so each timed request hits it. Returns the
/// frames sent.
pub fn fill_caches(
    w: &Workload,
    stack: &Stack,
    client: &mut Client,
    seed: u64,
) -> Result<u64, String> {
    let shape = stack.reference.network().input_shape();
    let mut id = WARM_BASE;
    let mut sent = 0;
    for j in 0..w.inputs.unwrap_or(0) {
        for shard in 0..stack.registry.config().shards {
            while stack.registry.shard_of(id) != shard {
                id += 1;
            }
            let resp = client
                .roundtrip(&serve_request(id, &w.input(shape, seed, j), seed))
                .map_err(|e| e.to_string())?;
            if !resp.ok {
                return Err(format!("request {id}: {}", resp.reason));
            }
            id += 1;
            sent += 1;
        }
    }
    Ok(sent)
}

/// Outputs and failures of the timed requests.
#[derive(Debug, Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    /// Completion times of the successful requests, in seconds since the
    /// timed phase began.
    done_s: Vec<f64>,
    errors: u64,
    degraded: u64,
    /// `(request index, FNV-1a of the output mean)`.
    outputs: Vec<(u64, u64)>,
    /// Outputs kept for the untimed checks: `(index, mean, class)`.
    kept: Vec<(u64, Vec<f32>, usize)>,
    problems: Vec<String>,
}

impl Tally {
    fn ok(&mut self, index: u64, mean: &[f32], class: usize, healthy: bool) {
        let mut h = Fnv::default();
        h.eat(mean.iter().map(|v| v.to_bits()));
        self.outputs.push((index, h.finish()));
        if !healthy {
            self.degraded += 1;
        }
        if index.is_multiple_of(TOP1_EVERY) {
            self.kept.push((index, mean.to_vec(), class));
        }
    }

    fn error(&mut self, problem: String) {
        self.errors += 1;
        self.problem(problem);
    }

    fn problem(&mut self, problem: String) {
        // The first few are enough to diagnose a run.
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn digest(&mut self) -> String {
        self.outputs.sort_unstable();
        let mut h = Fnv::default();
        for &(_, out) in &self.outputs {
            h.eat([out as u32, (out >> 32) as u32]);
        }
        h.hex()
    }

    /// Compares a kept output with an independent computation of it.
    fn bit_check(&mut self, index: u64, mean: &[f32], class: usize, reference: &Prediction) {
        let same = mean.len() == reference.mean.len()
            && mean
                .iter()
                .zip(&reference.mean)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && class == reference.class;
        if !same {
            self.error(format!(
                "request {index}: output differs from its reference"
            ));
        }
    }
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// What the timed loop needs of one request: the output mean, its argmax
/// and whether the run was healthy (not degraded).
type Reply = Result<(Vec<f32>, usize, bool), String>;

/// Runs `call` closed loop on request indexes 0, 1, ... until the budget
/// is spent, timing only `call`; `input` prepares each request untimed.
fn timed<I>(
    budget: &Budget,
    mut input: impl FnMut(u64) -> I,
    mut call: impl FnMut(u64, I) -> Reply,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut index = 0;
    while budget.more(index, started) {
        let input = input(index);
        let t0 = Instant::now();
        let out = call(index, input);
        tally.latencies_ms.push(ms(t0));
        match out {
            Ok((mean, class, healthy)) => {
                tally.done_s.push(started.elapsed().as_secs_f64());
                tally.ok(index, &mean, class, healthy);
            }
            Err(e) => tally.error(format!("request {index}: {e}")),
        }
        index += 1;
    }
    tally
}

/// The record of a run that could not start.
pub fn failed(w: &Workload, opts: &Opts, problem: String) -> Record {
    Record {
        workload: w.name.to_string(),
        seed: opts.seed,
        attempted: 1,
        failed: 1,
        problems: vec![problem],
        ..Record::default()
    }
}

/// One untraced run of `w` — the numbers `BENCHMARK.json` bounds.
pub fn run(w: &Workload, opts: &Opts) -> Record {
    let budget = Budget::new(w.requests, MIN_TIMED, opts);
    match w.path {
        Path::Robust | Path::Exact => run_engine(w, opts, &budget),
        Path::Serve => run_serve(w, opts, &budget),
    }
}

fn run_engine(w: &Workload, opts: &Opts, budget: &Budget) -> Record {
    let cfg = w.engine_config();
    let (engine, setup) = construct(opts, || Engine::new(cfg));
    let shape = engine.network().input_shape();
    let call = |index: u64, input: &Tensor| -> Reply {
        match w.path {
            Path::Exact => {
                let p = engine.predict_exact(input);
                Ok((p.mean, p.class, true))
            }
            _ => robust(&engine, input, mask_seed(opts.seed, index))
                .map(|(p, r)| (p.mean, p.class, r.mode == DegradedMode::Healthy))
                .map_err(|e| e.to_string()),
        }
    };
    for k in 0..w.warmup(budget) {
        let index = WARM_BASE + k;
        let _ = call(index, &w.input(shape, opts.seed, index));
    }
    let mut tally = timed(
        budget,
        |i| w.input(shape, opts.seed, i),
        |i, input| call(i, &input),
    );

    let mut rec = finish(w, opts, &mut tally, &setup);
    match w.path {
        Path::Exact => check_exact(w, opts, &engine, &mut tally),
        _ => check_robust(w, opts, &engine, &mut tally, &mut rec),
    }
    seal(w, &mut rec, tally);
    rec
}

/// Robust outputs against the exact path with the same masks (quality)
/// and against an independently built engine (bit identity).
fn check_robust(w: &Workload, opts: &Opts, engine: &Engine, tally: &mut Tally, rec: &mut Record) {
    let reference = Engine::new(w.engine_config());
    let shape = engine.network().input_shape();
    let (mut agree, mut l1) = (0usize, 0f64);
    let kept = std::mem::take(&mut tally.kept);
    for (index, mean, class) in &kept {
        let input = w.input(shape, opts.seed, *index);
        let seed = mask_seed(opts.seed, *index);
        let exact = McDropout::new(w.samples, seed).run(engine.bayesian_network(), &input);
        agree += usize::from(exact.class == *class);
        l1 += mean
            .iter()
            .zip(&exact.mean)
            .map(|(a, b)| f64::from((a - b).abs()))
            .sum::<f64>();
        if index.is_multiple_of(BIT_CHECK_EVERY) {
            match reference.predict_robust_seeded(&input, seed) {
                Ok((p, _)) => tally.bit_check(*index, mean, *class, &p),
                Err(e) => tally.error(format!("request {index}: reference failed: {e}")),
            }
        }
    }
    if kept.is_empty() {
        return;
    }
    let agree = agree as f64 / kept.len() as f64;
    let l1 = l1 / kept.len() as f64;
    rec.push("top1_agree", agree);
    rec.push("mean_l1", l1);
    if l1 > MAX_MEAN_L1 {
        tally.problem(format!(
            "skipping drifted from the exact path: mean_l1 {l1:.4} > {MAX_MEAN_L1}"
        ));
    }
}

/// Exact outputs (im2col blocked kernel) against the naive reference
/// convolution with the same masks: they must agree bit for bit.
fn check_exact(w: &Workload, opts: &Opts, engine: &Engine, tally: &mut Tally) {
    let bnet = engine.bayesian_network();
    let shape = engine.network().input_shape();
    let seed = engine.config().seed;
    let kept = std::mem::take(&mut tally.kept);
    for (index, mean, class) in kept.iter().filter(|k| k.0.is_multiple_of(BIT_CHECK_EVERY)) {
        let input = w.input(shape, opts.seed, *index);
        let rows = (0..w.samples)
            .map(|t| {
                let masks = bnet.generate_masks(seed, t);
                fbcnn_tensor::stats::softmax(bnet.forward_sample(&input, &masks).logits())
            })
            .collect();
        tally.bit_check(*index, mean, *class, &McDropout::summarize(rows));
    }
}

fn run_serve(w: &Workload, opts: &Opts, budget: &Budget) -> Record {
    let cfg = w.engine_config();
    let (stack, setup) = construct(opts, || boot(cfg));
    let stack = match stack {
        Ok(stack) => stack,
        Err(e) => return failed(w, opts, e),
    };
    let mut client = match Client::connect(stack.server.addr()) {
        Ok(c) => c,
        Err(e) => return failed(w, opts, format!("connect: {e}")),
    };
    let shape = stack.reference.network().input_shape();
    let inputs: Vec<Tensor> = (0..w.inputs.unwrap_or(1))
        .map(|j| w.input(shape, opts.seed, j))
        .collect();
    let input = |index: u64| &inputs[(index % inputs.len() as u64) as usize];
    let mut sent = match fill_caches(w, &stack, &mut client, opts.seed) {
        Ok(n) => n,
        Err(e) => return failed(w, opts, format!("cache fill: {e}")),
    };
    for k in 0..w.warmup(budget) {
        let index = WARM_BASE * 2 + k;
        if let Err(e) = client.roundtrip(&serve_request(index, input(k), opts.seed)) {
            return failed(w, opts, format!("warm-up request {index}: {e}"));
        }
        sent += 1;
    }

    let mut tally = timed(budget, input, |index, input| {
        let r = client
            .roundtrip(&serve_request(index, input, opts.seed))
            .map_err(|e| e.to_string())?;
        if r.ok {
            Ok((r.mean(), r.predicted as usize, r.is_pristine()))
        } else {
            Err(r.reason)
        }
    });
    sent += tally.latencies_ms.len() as u64;

    drop(client);
    let Stack {
        reference, server, ..
    } = stack;
    let totals = server.shutdown();
    if totals.frames_total() != sent || totals.frames_ok != sent.saturating_sub(tally.errors) {
        tally.problem(format!(
            "server accounted {} frames ({} ok) for {sent} sent",
            totals.frames_total(),
            totals.frames_ok
        ));
    }

    let mut rec = finish(w, opts, &mut tally, &setup);
    let kept = std::mem::take(&mut tally.kept);
    for (index, mean, class) in kept.iter().filter(|k| k.0.is_multiple_of(BIT_CHECK_EVERY)) {
        match reference.predict_robust_seeded(input(*index), mask_seed(opts.seed, *index)) {
            Ok((p, _)) => tally.bit_check(*index, mean, *class, &p),
            Err(e) => tally.error(format!("request {index}: reference failed: {e}")),
        }
    }
    seal(w, &mut rec, tally);
    rec
}

/// Requests per second: the median rate over `THROUGHPUT_SLICES`
/// consecutive slices of the timed phase's completions, so a stall that
/// hits one slice does not move the figure.
fn throughput(done_s: &mut [f64]) -> f64 {
    done_s.sort_by(f64::total_cmp);
    let n = done_s.len();
    let slices = n.min(THROUGHPUT_SLICES);
    let rates: Vec<f64> = (0..slices)
        .map(|k| {
            let (lo, hi) = (k * n / slices, (k + 1) * n / slices);
            let from = if lo == 0 { 0.0 } else { done_s[lo - 1] };
            (hi - lo) as f64 / (done_s[hi - 1] - from).max(f64::MIN_POSITIVE)
        })
        .collect();
    stats::median(&rates).unwrap_or(0.0)
}

/// The metrics every untraced run reports.
fn finish(w: &Workload, opts: &Opts, tally: &mut Tally, setup: &[f64]) -> Record {
    let attempted = tally.latencies_ms.len() as u64;
    let mut rec = Record {
        workload: w.name.to_string(),
        seed: opts.seed,
        attempted,
        digest: Some(tally.digest()),
        ..Record::default()
    };
    let mut lat = tally.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    rec.push("setup_s", stats::median(setup).unwrap_or(0.0));
    rec.push("throughput_rps", throughput(&mut tally.done_s));
    for (p, name) in [
        (50, "latency_p50_ms"),
        (90, "latency_p90_ms"),
        (99, "latency_p99_ms"),
    ] {
        if let Some(v) = stats::percentile(&lat, p) {
            rec.push(name, v);
        }
    }
    match stats::peak_rss_mb() {
        Some(mb) => rec.push("peak_rss_mb", mb),
        None => tally.problem("peak RSS unavailable (no /proc/self/status)".into()),
    }
    rec
}

/// Folds the requests' failures and the untimed checks' verdicts into
/// the record.
fn seal(w: &Workload, rec: &mut Record, tally: Tally) {
    let attempted = rec.attempted.max(1) as f64;
    let share = |n: u64| n as f64 / attempted;
    rec.push("error_rate", share(tally.errors));
    if w.path != Path::Exact {
        rec.push("degraded_rate", share(tally.degraded));
    }
    rec.failed = tally.errors + tally.degraded;
    rec.problems.extend(tally.problems);
}
