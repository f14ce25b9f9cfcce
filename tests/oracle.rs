//! The differential oracle: one seeded generator of random graphs and two
//! rules that pin every exactness claim of the reproduction on each graph.
//!
//! * **Rule 1 — every path equals the naive rows.** With prediction
//!   disabled ([`ThresholdSet::never_predict`]), every inference path
//!   reproduces `BayesianNetwork::forward_sample` bit for bit: the
//!   workspace and guarded passes, the MC runners at any thread count and
//!   batch composition, `run_sample` built through `new` and
//!   `from_parts`, the robust engine, the batch and resilience layers, a
//!   registry booted from a reloaded artifact, and the TCP server.
//! * **Rule 2 — calibrated skipping changes only skipped neurons.** Under
//!   calibrated thresholds each node of a skipping run equals its naive
//!   evaluation on the run's own inputs with its dropout mask applied,
//!   except the neurons its `SkipMap::skip` names, which are `+0.0`. The
//!   same loop checks packed against scalar counting, and the accelerator
//!   workload's per-layer statistics against the skip maps.
//!
//! Floats compare with [`same_bits`]: equal bit patterns, or both NaN. A
//! failure prints the graph's seed and its `Network::summary()`.
//!
//! A new kernel (a tiling, a layer-major schedule, a counting or mask
//! generator) joins as one more path under these rules.

use fast_bcnn::serve::{self, ServeClient, ServeConfig, ServeRequest, DEFAULT_MAX_FRAME_BYTES};
use fast_bcnn::{
    synth_input, BatchConfig, BatchEngine, BatchRequest, DegradedMode, Engine, EngineConfig,
    InferenceError, ModelArtifact, ModelRegistry, RegistryConfig, ResilienceConfig,
    ResilientBatchEngine, RobustReport,
};
use fbcnn_accel::Workload;
use fbcnn_bayes::{derive_request_seed, McDropout, McRequest, Prediction};
use fbcnn_nn::models::ModelKind;
use fbcnn_nn::{
    init, ActivationGuard, Conv2d, Dense, Layer, Network, NetworkBuilder, NodeId, Op, Pool2d,
    PoolKind, Workspace,
};
use fbcnn_predictor::{
    count_dropped_nw_inputs, count_dropped_nw_inputs_scalar, input_drop_mask, PolarityIndicators,
    PredictiveInference, PredictorShared, PreparedInput, ThresholdSet,
};
use fbcnn_tensor::{stats, Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Graphs the generator builds; their seeds are `0..GRAPHS`.
const GRAPHS: u64 = 24;
/// MC samples `T` per request.
const SAMPLES: usize = 3;
/// Requests (distinct inputs) per graph.
const REQUESTS: usize = 3;

/// The one comparator: the same bits, or both NaN.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| !same_bits(got[i], want[i])) {
        panic!(
            "{what}: element {i} is {:?}, reference {:?}",
            got[i], want[i]
        );
    }
}

/// Every float of a prediction (rows, mean, entropy, mutual
/// information) followed by its class.
fn flat(p: &Prediction) -> Vec<f32> {
    let mut v = p.sample_probs.concat();
    v.extend(&p.mean);
    v.extend([p.predictive_entropy, p.mutual_information, p.class as f32]);
    v
}

type Run = (Prediction, RobustReport);

fn assert_same_run(what: &str, got: &Run, want: &Run) {
    assert_same(what, &flat(&got.0), &flat(&want.0));
    assert_eq!(got.1, want.1, "{what}: report");
}

fn assert_served(what: &str, got: &Result<Run, InferenceError>, want: &Run) {
    let got = got.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_same_run(what, got, want);
}

// ------------------------------------------------------------- generator

/// A [`NetworkBuilder`] plus the shape of every node added so far.
struct GraphGen {
    rng: StdRng,
    b: NetworkBuilder,
    shapes: Vec<Shape>,
}

impl GraphGen {
    fn side(&self, node: NodeId) -> usize {
        self.shapes[node.0].height()
    }

    /// 2 on about half the draws once the plane is at least 4 wide, else 1.
    fn stride(&mut self, side: usize) -> usize {
        1 + usize::from(side >= 4 && self.rng.gen_bool(0.5))
    }

    fn layer(&mut self, from: NodeId, layer: impl Into<Layer>, tag: &str) -> NodeId {
        let layer = layer.into();
        let shape = layer.output_shape(self.shapes[from.0]);
        let label = format!("{tag}{}", self.shapes.len());
        let id = self.b.layer(from, layer, label).expect("layer fits");
        self.shapes.push(shape);
        id
    }

    fn conv(&mut self, from: NodeId, k: usize, stride: usize, pad: usize) -> NodeId {
        let in_c = self.shapes[from.0].channels();
        let out_c = self.rng.gen_range(2usize..=6);
        self.layer(from, Conv2d::new(in_c, out_c, k, stride, pad, true), "conv")
    }

    /// A conv with a kernel from `kernels` (capped by the plane) and pad
    /// in `0..=k/2`.
    fn random_conv(&mut self, from: NodeId, kernels: &[usize]) -> NodeId {
        let side = self.side(from);
        let k = kernels[self.rng.gen_range(0..kernels.len())].min(side);
        let stride = self.stride(side);
        let pad = self.rng.gen_range(0..=k / 2);
        self.conv(from, k, stride, pad)
    }

    /// A max or avg pool with window `k` and pad `pad`.
    fn pool(&mut self, from: NodeId, k: usize, stride: usize, pad: usize) -> NodeId {
        let kind = [PoolKind::Max, PoolKind::Avg][self.rng.gen_range(0usize..2)];
        self.layer(from, Pool2d::new(kind, k, stride).with_pad(pad), "pool")
    }

    /// A 2×2 unpadded or a 3×3 padded pool.
    fn random_pool(&mut self, from: NodeId) -> NodeId {
        let side = self.side(from);
        let (k, pad) = [(2, 0), (3, 1)][usize::from(side < 2 || self.rng.gen_bool(0.5))];
        let stride = self.stride(side);
        self.pool(from, k, stride, pad)
    }

    /// An inception-shaped block: a 1×1 conv, a padded 3×3 conv and, on
    /// most draws, a padded 3×3/1 pool (bare or behind a 1×1 conv),
    /// concatenated along channels.
    fn inception(&mut self, from: NodeId) -> NodeId {
        let mut branches = vec![self.conv(from, 1, 1, 0), self.conv(from, 3, 1, 1)];
        if self.rng.gen_bool(0.7) {
            let pool = self.pool(from, 3, 1, 1);
            let behind_conv = self.rng.gen_bool(0.5);
            branches.push(if behind_conv {
                self.conv(pool, 1, 1, 0)
            } else {
                pool
            });
        }
        let channels = branches.iter().map(|b| self.shapes[b.0].channels()).sum();
        let side = self.side(from);
        self.shapes.push(Shape::new(channels, side, side));
        self.b.concat(&branches, "cat").expect("branches agree")
    }
}

/// Random graph `seed`: a conv stem, two to four blocks (conv, pool or
/// inception), on about half the graphs a conv that shrinks the plane to
/// 1×1, then a dense head. Weights come from [`init::calibrated`].
fn random_graph(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1E);
    let side = rng.gen_range(6usize..=13);
    let input = Shape::new(rng.gen_range(1usize..=3), side, side);
    let b = NetworkBuilder::named(format!("oracle-{seed}"), input);
    let mut g = GraphGen {
        rng,
        b,
        shapes: vec![input],
    };
    let mut at = g.random_conv(NodeId(0), &[1, 3, 5]);
    for _ in 0..g.rng.gen_range(2..=4) {
        at = match g.rng.gen_range(0..4) {
            0 | 1 => g.random_conv(at, &[1, 3]),
            2 => g.random_pool(at),
            _ => g.inception(at),
        };
    }
    if g.rng.gen_bool(0.5) {
        at = g.conv(at, g.side(at), 1, 0);
    }
    let (features, classes) = (g.shapes[at.0].len(), g.rng.gen_range(3usize..=6));
    g.layer(at, Dense::new(features, classes, false), "fc");
    let mut net = g.b.build().expect("generated graph builds");
    init::calibrated(&mut net, seed);
    net
}

/// The geometry features the generator must cover.
const FEATURES: [&str; 8] = [
    "stride-2 conv",
    "padded conv",
    "1×1 conv kernel",
    "max pool",
    "avg pool",
    "padded pool",
    "concat",
    "1×1 conv output plane",
];

fn features(net: &Network) -> [bool; FEATURES.len()] {
    let mut f = [false; FEATURES.len()];
    for node in net.nodes() {
        match node.op() {
            Op::Layer(Layer::Conv(c)) => {
                f[0] |= c.stride() == 2;
                f[1] |= c.pad() > 0;
                f[2] |= c.kernel_size() == 1;
                f[7] |= net.shape(node.id()).plane() == 1;
            }
            Op::Layer(Layer::Pool(p)) => {
                f[3] |= p.kind() == PoolKind::Max;
                f[4] |= p.kind() == PoolKind::Avg;
                f[5] |= p.padding() > 0;
            }
            Op::Concat => f[6] = true,
            _ => {}
        }
    }
    f
}

// ------------------------------------------------------------------ cases

/// One generated graph under two engines that share its network and
/// drop rate, plus its requests and their robust reference results.
struct Case {
    seed: u64,
    summary: String,
    /// Thresholds from the engine's own calibration.
    calibrated: Engine,
    /// [`ThresholdSet::never_predict`]: skipping covers dropped neurons
    /// only, so every path must equal the naive rows.
    exact: Engine,
    /// Odd ids carry an explicit mask seed, even ids derive theirs.
    requests: Vec<BatchRequest>,
    /// The mask seed each request must run with, derived here rather
    /// than by the code under test.
    seeds: Vec<u64>,
    exact_refs: Vec<Run>,
    calibrated_refs: Vec<Run>,
}

impl Case {
    fn new(seed: u64) -> Self {
        let net = random_graph(seed);
        let cfg = EngineConfig {
            drop_rate: [0.2, 0.3, 0.5][seed as usize % 3],
            samples: SAMPLES,
            calibration_samples: 4,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..EngineConfig::for_model(ModelKind::LeNet5)
        };
        let never = ThresholdSet::never_predict(net.len());
        let exact = Engine::from_calibrated(cfg, net.clone(), never).expect("engine builds");
        let (mut requests, mut seeds) = (Vec::new(), Vec::new());
        for id in 0..REQUESTS as u64 {
            let mut req = BatchRequest::new(id, synth_input(net.input_shape(), seed * 97 + id));
            if id % 2 == 1 {
                req.seed = Some(seed ^ (id << 32) ^ 0x5EED);
            }
            seeds.push(req.seed.unwrap_or(derive_request_seed(cfg.seed, id)));
            requests.push(req);
        }
        let mut case = Self {
            seed,
            summary: net.summary(),
            calibrated: Engine::with_network(net, cfg),
            exact,
            requests,
            seeds,
            exact_refs: Vec::new(),
            calibrated_refs: Vec::new(),
        };
        case.exact_refs = case.robust_runs(&case.exact);
        case.calibrated_refs = case.robust_runs(&case.calibrated);
        case
    }

    fn robust_runs(&self, engine: &Engine) -> Vec<Run> {
        let runs = self.requests.iter().zip(&self.seeds);
        runs.map(|(req, &seed)| engine.predict_robust_seeded(&req.input, seed))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("graph seed {}: robust run: {e}", self.seed))
    }

    /// Checks `case`, printing its seed and summary if a check fails.
    fn check(&self, checks: impl FnOnce(&Case)) {
        struct Named<'a>(&'a Case);
        impl Drop for Named<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    eprintln!("graph seed {}:\n{}", self.0.seed, self.0.summary);
                }
            }
        }
        let _named = Named(self);
        checks(self);
    }

    /// The requests in `order`, as a batch queue.
    fn queue(&self, order: &[usize]) -> Vec<BatchRequest> {
        order.iter().map(|&r| self.requests[r].clone()).collect()
    }
}

fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| (0..GRAPHS).map(Case::new).collect())
}

/// The batches each request is served in: the full queue, the queue
/// rotated by one, and every request alone.
fn compositions() -> Vec<(String, Vec<usize>)> {
    let mut out = vec![
        ("full queue".into(), (0..REQUESTS).collect()),
        ("rotated queue".into(), (1..REQUESTS).chain(0..1).collect()),
    ];
    out.extend((0..REQUESTS).map(|r| (format!("request {r} alone"), vec![r])));
    out
}

fn batch_engine(engine: &Engine, threads: usize) -> BatchEngine {
    let cfg = BatchConfig {
        threads,
        ..BatchConfig::default()
    };
    BatchEngine::new(engine.clone(), cfg)
}

// ------------------------------------------------------------------ tests

#[test]
fn the_generator_covers_every_geometry_feature() {
    assert!(cases().len() >= 24, "too few graphs");
    for (i, name) in FEATURES.iter().enumerate() {
        let covered = cases().iter().any(|c| features(c.exact.network())[i]);
        assert!(covered, "no generated graph has a {name}");
    }
}

/// Rule 1 on the single-sample paths, the MC runners and the robust
/// engine.
#[test]
fn every_sample_path_equals_the_naive_rows() {
    let guard = ActivationGuard::strict();
    for case in cases() {
        case.check(|case| {
            let bnet = case.exact.bayesian_network();
            let never = case.exact.thresholds();
            let shared = Arc::new(PredictorShared::new(bnet, never.clone()));
            let mut ws = Workspace::new();
            let mut naive_rows = Vec::new();
            for (r, (req, &seed)) in case.requests.iter().zip(&case.seeds).enumerate() {
                let input = &req.input;
                let direct = PredictiveInference::new(bnet, input, never.clone());
                let prepared = Arc::new(PreparedInput::new(bnet, input));
                let parts = PredictiveInference::from_parts(bnet, Arc::clone(&shared), prepared);
                let mut rows = Vec::new();
                for t in 0..SAMPLES {
                    let masks = bnet.generate_masks(seed, t);
                    let naive = bnet.forward_sample(input, &masks);
                    let fast = bnet.forward_sample_ws(input, &masks, &mut ws);
                    let (checked, repaired) = bnet
                        .forward_sample_checked(input, &masks, &mut ws, &guard)
                        .expect("a healthy net passes the strict guard");
                    assert_eq!(repaired, 0, "the strict guard repaired values");
                    let (a, b) = (direct.run_sample(&masks), parts.run_sample(&masks));
                    assert_eq!(a.skip_maps, b.skip_maps, "new vs from_parts skip maps");
                    let paths = [
                        ("forward_sample_ws", &fast.activations),
                        ("forward_sample_checked", &checked.activations),
                        ("run_sample via new", &a.activations),
                        ("run_sample via from_parts", &b.activations),
                    ];
                    for (node, want) in naive.activations.iter().enumerate() {
                        for (path, got) in paths {
                            let what = format!("request {r} sample {t} node {node}: {path}");
                            assert_same(&what, got[node].as_slice(), want.as_slice());
                        }
                    }
                    rows.push(stats::softmax(naive.logits()));
                }
                let (pred, report) = &case.exact_refs[r];
                assert_eq!(report.mode, DegradedMode::Healthy, "request {r}");
                let used = McDropout::summarize(rows[..report.used_samples].to_vec());
                let what = format!("request {r}: predict_robust_seeded");
                assert_same(&what, &flat(pred), &flat(&used));
                naive_rows.push(McDropout::summarize(rows));
            }
            for threads in [1, 2, 3, 16] {
                let batch = batch_engine(&case.exact, threads);
                for (label, order) in compositions() {
                    let mc: Vec<McRequest<'_>> = order
                        .iter()
                        .map(|&r| McRequest {
                            input: &case.requests[r].input,
                            seed: case.seeds[r],
                        })
                        .collect();
                    let runs = McDropout::new(SAMPLES, 0).run_batch(bnet, &mc, threads);
                    let runs = runs.expect("run_batch on healthy requests");
                    let exact = batch.predict_exact_batch(&case.queue(&order));
                    let exact = exact.expect("predict_exact_batch on healthy requests");
                    assert_eq!((runs.len(), exact.len()), (order.len(), order.len()));
                    for ((&r, run), pred) in order.iter().zip(&runs).zip(&exact) {
                        let what = format!("{threads} threads, {label}, request {r}");
                        assert!(run.failed.is_empty(), "{what}: lost samples");
                        let want = flat(&naive_rows[r]);
                        assert_same(&format!("run_batch, {what}"), &flat(&run.prediction), &want);
                        assert_same(&format!("predict_exact_batch, {what}"), &flat(pred), &want);
                    }
                }
            }
        });
    }
}

/// Rule 1 on the serving stack: every layer above the robust engine
/// returns the robust engine's bits (which the sample-path test pins to
/// the naive rows), whatever the thread count or batch composition.
#[test]
fn every_serving_path_equals_the_naive_rows() {
    for case in cases() {
        case.check(|case| {
            let engines = [
                ("never_predict", &case.exact, &case.exact_refs),
                ("calibrated", &case.calibrated, &case.calibrated_refs),
            ];
            for (name, engine, refs) in engines {
                for threads in [1, 2, 4] {
                    let batch = batch_engine(engine, threads);
                    for (label, order) in compositions() {
                        let report = batch.run_batch(&case.queue(&order));
                        assert_eq!(report.depth, order.len(), "{label}");
                        assert_eq!(report.outcomes.len(), order.len(), "{label}");
                        for (&r, o) in order.iter().zip(&report.outcomes) {
                            let what =
                                format!("{name} BatchEngine, {threads} threads, {label}: {r}");
                            assert_eq!((o.id, o.seed), (r as u64, case.seeds[r]), "{what}");
                            assert_served(&what, &o.result, &refs[r]);
                        }
                    }
                }
            }
            for threads in [1, 2, 4] {
                let layer = ResilientBatchEngine::new(
                    batch_engine(&case.exact, threads),
                    ResilienceConfig::default(),
                );
                for (label, order) in compositions() {
                    let report = layer.run_batch(&case.queue(&order));
                    let what = format!("ResilientBatchEngine, {threads} threads, {label}");
                    assert_eq!(report.outcomes.len(), order.len(), "{what}");
                    report.reconcile().unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(report.transitions.is_empty(), "{what}: breaker moved");
                    for (&r, o) in order.iter().zip(&report.outcomes) {
                        let what = format!("{what}: {r}");
                        assert_eq!(o.attempts, 1, "{what}");
                        assert!(!o.expired && !o.shed && !o.forced_exact, "{what}");
                        assert_eq!(o.outcome.seed, case.seeds[r], "{what}");
                        assert_served(&what, &o.outcome.result, &case.exact_refs[r]);
                    }
                }
            }

            // Export → save → load is lossless for both threshold sets; the
            // calibrated reload serves the exporter's bits.
            let [never, calibrated] = engines.map(|(name, engine, _)| {
                let artifact = ModelArtifact::from_engine(engine, 1, format!("oracle-{name}"));
                let file = format!(
                    "fbcnn_oracle_{}_{}_{name}.json",
                    std::process::id(),
                    case.seed
                );
                let path = std::env::temp_dir().join(file);
                artifact.save(&path).expect("save artifact");
                let reloaded = ModelArtifact::load(&path);
                let _ = std::fs::remove_file(&path);
                let reloaded = reloaded.unwrap_or_else(|e| panic!("{name} reload: {e}"));
                assert_eq!(&reloaded.network, engine.network(), "{name} weights");
                assert_eq!(
                    &reloaded.thresholds,
                    engine.thresholds(),
                    "{name} thresholds"
                );
                assert_eq!(reloaded, artifact, "{name} artifact");
                reloaded
            });
            let reloaded = calibrated.into_engine().expect("reloaded engine builds");
            let runs = case.robust_runs(&reloaded);
            for (r, (got, want)) in runs.iter().zip(&case.calibrated_refs).enumerate() {
                assert_same_run(&format!("reloaded calibrated engine: {r}"), got, want);
            }

            // A two-shard registry booted from the reloaded never_predict
            // artifact, in process and over TCP.
            let cfg = RegistryConfig {
                shards: 2,
                ..RegistryConfig::default()
            };
            let registry = Arc::new(ModelRegistry::new(never, cfg).expect("registry boots"));
            let report = registry.run_batch(&case.requests);
            assert_eq!(report.outcomes.len(), REQUESTS);
            report
                .reconcile()
                .unwrap_or_else(|e| panic!("registry: {e}"));
            for (r, o) in report.outcomes.iter().enumerate() {
                let what = format!("ModelRegistry: {r}");
                assert_eq!(o.outcome.outcome.seed, case.seeds[r], "{what}");
                assert_served(&what, &o.outcome.outcome.result, &case.exact_refs[r]);
            }
            let server = serve::serve(Arc::clone(&registry), ServeConfig::default());
            let server = server.unwrap_or_else(|e| panic!("serve: {e}"));
            let timeout = Duration::from_secs(30);
            let client = ServeClient::connect(server.addr(), timeout, DEFAULT_MAX_FRAME_BYTES);
            let mut client = client.expect("connect");
            for (r, req) in case.requests.iter().enumerate() {
                let mut wire = ServeRequest::from_input(req.id, "batch", &req.input);
                wire.seed = req.seed;
                let resp = client.roundtrip(&wire, DEFAULT_MAX_FRAME_BYTES);
                let resp = resp.unwrap_or_else(|e| panic!("serve {r}: {e}"));
                let (pred, report) = &case.exact_refs[r];
                let what = format!("ServeClient: {r} ({resp:?})");
                assert!(resp.is_pristine() && resp.id == req.id, "{what}");
                assert_eq!(resp.used_samples, report.used_samples as u64, "{what}");
                let mut got = resp.mean();
                got.extend([f32::from_bits(resp.entropy_bits), resp.predicted as f32]);
                let mut want = pred.mean.clone();
                want.extend([pred.predictive_entropy, pred.class as f32]);
                assert_same(&what, &got, &want);
            }
            drop(client);
            server.shutdown();
        });
    }
}

/// Rule 2, layer by layer, plus the counting and workload
/// reconciliations on the same samples.
#[test]
fn calibrated_skipping_differs_from_naive_only_on_skipped_neurons() {
    let (mut predicted, mut predicted_on_stride_2) = (0usize, 0usize);
    for case in cases() {
        case.check(|case| {
            let engine = &case.calibrated;
            let bnet = engine.bayesian_network();
            let net = bnet.network();
            let indicators = PolarityIndicators::from_network(net);
            let shared = Arc::new(engine.predictor_shared());
            for (r, (req, &seed)) in case.requests.iter().zip(&case.seeds).enumerate() {
                let input = &req.input;
                let direct = PredictiveInference::new(bnet, input, engine.thresholds().clone());
                let prepared = Arc::new(PreparedInput::new(bnet, input));
                let parts = PredictiveInference::from_parts(bnet, Arc::clone(&shared), prepared);
                let workload = Workload::build(bnet, input, engine.thresholds(), SAMPLES, seed);
                assert_eq!(workload.layers.len(), net.conv_nodes().len());
                for t in 0..SAMPLES {
                    let masks = bnet.generate_masks(seed, t);
                    let run = parts.run_sample(&masks);
                    let again = direct.run_sample(&masks);
                    assert_eq!(
                        run.skip_maps, again.skip_maps,
                        "new vs from_parts skip maps"
                    );
                    for node in net.nodes() {
                        let id = node.id();
                        let got = &run.activations[id.0];
                        let what = format!("request {r} sample {t} node {}", id.0);
                        let from_new = again.activations[id.0].as_slice();
                        assert_same(&format!("{what}: via new"), from_new, got.as_slice());
                        let ins: Vec<&Tensor> = match node.op() {
                            Op::Input => vec![input],
                            _ => node
                                .inputs()
                                .iter()
                                .map(|i| &run.activations[i.0])
                                .collect(),
                        };
                        let mut want = net.eval_node(node, &ins);
                        if let Some(mask) = masks.get(id) {
                            want.apply_drop_mask(mask);
                        }
                        let Some(conv) = node.layer().and_then(Layer::as_conv) else {
                            assert_same(&what, got.as_slice(), want.as_slice());
                            continue;
                        };
                        let map = run.skip_maps[id.0].as_ref().expect("conv skip map");
                        for i in 0..got.len() {
                            let (g, w, skipped) = (got.at(i), want.at(i), map.is_skipped(i));
                            let ok = if skipped {
                                g.to_bits() == 0
                            } else {
                                same_bits(g, w)
                            };
                            assert!(
                                ok,
                                "{what}: neuron {i} (skipped: {skipped}) is {g:?}, naive {w:?}"
                            );
                        }
                        if let Some(in_mask) = input_drop_mask(net, &masks, id) {
                            let kernels = indicators.kernels(id);
                            assert_eq!(
                                count_dropped_nw_inputs(conv, kernels, &in_mask),
                                count_dropped_nw_inputs_scalar(conv, kernels, &in_mask),
                                "{what}: packed counting"
                            );
                        }
                        let p = map.stats().predicted;
                        predicted += p;
                        predicted_on_stride_2 += if conv.stride() == 2 { p } else { 0 };
                    }
                    for (lw, ls) in workload.layers.iter().zip(&workload.samples[t].per_layer) {
                        let map = run.skip_maps[lw.node.0].as_ref().expect("conv skip map");
                        let what = format!("request {r} sample {t}: workload layer {}", lw.label);
                        assert_eq!(ls.stats, map.stats(), "{what}");
                        let upstream = input_drop_mask(net, &masks, lw.node).is_some();
                        assert_eq!(lw.upstream_dropout, upstream, "{what}");
                    }
                }
            }
        });
    }
    assert!(predicted > 0, "calibrated thresholds predicted nothing");
    assert!(
        predicted_on_stride_2 > 0,
        "no stride-2 conv predicted a neuron"
    );
}
