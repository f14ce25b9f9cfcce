//! The seeded load generator and the adversarial client battery of the
//! serve tier.
//!
//! [`run_loadgen`] drives a live `fast_bcnn::serve` endpoint over real
//! TCP connections with a seeded request mix (healthy tiers,
//! deterministic sheds, expiring deadlines, malformed frames) and
//! spot-checks pristine responses bit for bit against a reference
//! engine. [`run_adversarial`] opens deliberately hostile connections
//! (slow loris, abrupt close, oversize, churn) whose server-side
//! verdicts are deterministic. Both report what the client side saw, so
//! a soak can reconcile it exactly against the server's [`ServeTotals`].
//!
//! [`ServeTotals`]: fast_bcnn::serve::ServeTotals

use fast_bcnn::serve::{
    encode_frame, seal_frame, FrameDecoder, ServeClient, ServeRequest, ServeResponse, WireError,
    DEFAULT_MAX_FRAME_BYTES, LEN_PREFIX_BYTES, REQUEST_KIND,
};
use fast_bcnn::{synth_input, BatchRequest, Engine, Tensor};
use fbcnn_tensor::hash::{mix64, GOLDEN_GAMMA};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Whether workers wait for each response before sending the next
/// request (closed loop) or pipeline a window of frames (open loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// One request in flight per connection; latency excludes queueing.
    Closed,
    /// A pipelined window per connection; latency includes queue wait.
    Open,
}

impl LoadMode {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open => "open",
        }
    }

    /// Parses a report/CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "closed" => Some(LoadMode::Closed),
            "open" => Some(LoadMode::Open),
            _ => None,
        }
    }
}

/// Knobs of the seeded load generator.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Seed of the request mix (inputs, malformed variants).
    pub seed: u64,
    /// Closed or open loop.
    pub mode: LoadMode,
    /// Concurrent client connections (one worker thread each).
    pub connections: usize,
    /// Requests each connection offers.
    pub requests_per_connection: usize,
    /// Healthy SLO classes, cycled per request.
    pub classes: Vec<String>,
    /// Class targeted to provoke deterministic admission sheds (pair it
    /// with a server-side `max_inflight: 0` policy); `None` disables.
    pub shed_class: Option<String>,
    /// Every Nth request goes to `shed_class` (0 disables).
    pub shed_every: usize,
    /// Every Nth request carries `deadline_ms: 0`, forcing a typed
    /// expiry (0 disables).
    pub expiring_every: usize,
    /// Every Nth frame is malformed — garbage envelope, foreign kind,
    /// stale version or broken payload, chosen by seed (0 disables).
    pub malformed_every: usize,
    /// Every Nth pristine response is bit-checked against
    /// [`Engine::predict_robust_seeded`] (0 disables).
    pub bit_check_every: usize,
    /// Frames in flight per connection in [`LoadMode::Open`].
    pub open_pipeline: usize,
    /// Client receive deadline per response.
    pub read_timeout: Duration,
    /// Workers stop offering new requests past this wall-clock bound,
    /// keeping soaks boundable; `None` runs the full plan.
    pub time_limit: Option<Duration>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            mode: LoadMode::Closed,
            connections: 2,
            requests_per_connection: 32,
            classes: vec!["interactive".to_string(), "batch".to_string()],
            shed_class: None,
            shed_every: 0,
            expiring_every: 0,
            malformed_every: 0,
            bit_check_every: 8,
            open_pipeline: 8,
            read_timeout: Duration::from_secs(10),
            time_limit: None,
        }
    }
}

/// Client-side accounting, reconciled 1:1 against
/// [`fast_bcnn::serve::ServeTotals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadgenTotals {
    /// Frames sent (requests plus injected malformed frames).
    pub offered: u64,
    /// `ok` responses received.
    pub ok: u64,
    /// Typed-engine-error responses received.
    pub failed: u64,
    /// Admission-shed responses received.
    pub shed: u64,
    /// Responses flagged expired (subset of `ok + failed`).
    pub expired: u64,
    /// `wire_*`-reason responses received.
    pub wire_error_responses: u64,
    /// `unknown_class` responses received.
    pub unknown_class: u64,
    /// Transport-level failures (lost responses, refused connects).
    pub transport_errors: u64,
    /// Reconnects workers performed after a transport failure.
    pub reconnects: u64,
    /// Pristine responses spot-checked for bit identity.
    pub bit_checked: u64,
    /// Spot checks that mismatched the reference engine.
    pub bit_mismatched: u64,
}

impl LoadgenTotals {
    fn merge(&mut self, other: &LoadgenTotals) {
        self.offered += other.offered;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
        self.expired += other.expired;
        self.wire_error_responses += other.wire_error_responses;
        self.unknown_class += other.unknown_class;
        self.transport_errors += other.transport_errors;
        self.reconnects += other.reconnects;
        self.bit_checked += other.bit_checked;
        self.bit_mismatched += other.bit_mismatched;
    }
}

/// What one load-generator run observed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Aggregated client-side accounting.
    pub totals: LoadgenTotals,
    /// Client-measured request latencies in nanoseconds, per class
    /// (keyed `malformed` for injected bad frames).
    pub latencies_ns: BTreeMap<String, Vec<u64>>,
    /// Workers that died before finishing their plan (must be 0 for a
    /// soak to pass).
    pub aborted_workers: u64,
    /// Wall clock of the whole run in nanoseconds.
    pub elapsed_ns: u64,
}

impl LoadgenReport {
    /// A worker that died before finishing its plan.
    fn aborted() -> Self {
        Self {
            aborted_workers: 1,
            ..Self::default()
        }
    }

    /// Folds another run's (or worker's) observations into this one, as
    /// if it had run right after.
    pub(crate) fn merge(&mut self, other: &LoadgenReport) {
        self.totals.merge(&other.totals);
        for (class, lat) in &other.latencies_ns {
            let cell = self.latencies_ns.entry(class.clone()).or_default();
            cell.extend(lat);
        }
        self.aborted_workers += other.aborted_workers;
        self.elapsed_ns += other.elapsed_ns;
    }
}

struct Planned {
    bytes: Vec<u8>,
    class: String,
    /// `(request id, input pool index)` when this request is eligible
    /// for a bit-identity spot check.
    check: Option<(u64, usize)>,
}

fn malformed_frame(variant: u64, max: usize) -> Vec<u8> {
    let fallback = || vec![0u8; LEN_PREFIX_BYTES];
    match variant % 4 {
        0 => encode_frame(b"{\"nope\":true}", max).unwrap_or_else(|_| fallback()),
        1 => seal_frame("network", "{\"x\":1}", max).unwrap_or_else(|_| fallback()),
        2 => {
            let stale =
                format!("{{\"artifact\":\"{REQUEST_KIND}\",\"version\":99,\"payload\":{{}}}}");
            encode_frame(stale.as_bytes(), max).unwrap_or_else(|_| fallback())
        }
        _ => seal_frame(REQUEST_KIND, "{\"id\":\"zebra\"}", max).unwrap_or_else(|_| fallback()),
    }
}

fn plan_worker(
    cfg: &LoadgenConfig,
    worker: usize,
    pool: &[Tensor],
) -> Result<Vec<Planned>, WireError> {
    let mut plan = Vec::with_capacity(cfg.requests_per_connection);
    for i in 0..cfg.requests_per_connection {
        let id = ((worker as u64 + 1) << 32) | i as u64;
        let nth = i + 1;
        if cfg.malformed_every > 0 && nth % cfg.malformed_every == 0 {
            plan.push(Planned {
                bytes: malformed_frame(
                    mix64((cfg.seed ^ id).wrapping_add(GOLDEN_GAMMA)),
                    DEFAULT_MAX_FRAME_BYTES,
                ),
                class: "malformed".to_string(),
                check: None,
            });
            continue;
        }
        let pick = mix64(cfg.seed.wrapping_add(id).wrapping_add(GOLDEN_GAMMA));
        let pool_idx = (pick % pool.len() as u64) as usize;
        let shed_bound =
            cfg.shed_every > 0 && cfg.shed_class.is_some() && nth % cfg.shed_every == 0;
        let class = if shed_bound {
            cfg.shed_class.clone().unwrap_or_default()
        } else {
            cfg.classes[i % cfg.classes.len().max(1)].clone()
        };
        let mut req = ServeRequest::from_input(id, class.clone(), &pool[pool_idx]);
        let mut check = None;
        if !shed_bound {
            if cfg.expiring_every > 0 && nth % cfg.expiring_every == 0 {
                req.deadline_ms = Some(0);
            } else if cfg.bit_check_every > 0 && nth % cfg.bit_check_every == 0 {
                check = Some((id, pool_idx));
            }
        }
        plan.push(Planned {
            bytes: req.encode(DEFAULT_MAX_FRAME_BYTES)?,
            class,
            check,
        });
    }
    Ok(plan)
}

fn bit_check(
    reference: &Engine,
    pool: &[Tensor],
    check: (u64, usize),
    resp: &ServeResponse,
    totals: &mut LoadgenTotals,
) {
    if !resp.is_pristine() {
        return;
    }
    let (id, pool_idx) = check;
    let seed = BatchRequest::new(id, pool[pool_idx].clone()).resolved_seed(reference.config().seed);
    totals.bit_checked += 1;
    match reference.predict_robust_seeded(&pool[pool_idx], seed) {
        Ok((pred, _report)) => {
            let mean_bits: Vec<u32> = pred.mean.iter().map(|v| v.to_bits()).collect();
            if mean_bits != resp.mean_bits || pred.class as u64 != resp.predicted {
                totals.bit_mismatched += 1;
            }
        }
        Err(_) => totals.bit_mismatched += 1,
    }
}

fn absorb(
    resp: &ServeResponse,
    class: &str,
    elapsed_ns: u64,
    totals: &mut LoadgenTotals,
    latencies: &mut BTreeMap<String, Vec<u64>>,
) {
    if resp.reason.starts_with("wire_") {
        totals.wire_error_responses += 1;
    } else if resp.reason == "unknown_class" {
        totals.unknown_class += 1;
    } else if resp.shed {
        totals.shed += 1;
    } else if resp.ok {
        totals.ok += 1;
    } else {
        totals.failed += 1;
    }
    if resp.expired {
        totals.expired += 1;
    }
    latencies
        .entry(class.to_string())
        .or_default()
        .push(elapsed_ns);
}

fn run_worker(
    addr: SocketAddr,
    reference: &Engine,
    cfg: &LoadgenConfig,
    pool: &[Tensor],
    plan: &[Planned],
    started: Instant,
) -> LoadgenReport {
    let mut out = LoadgenReport::default();
    let mut client = match ServeClient::connect(addr, cfg.read_timeout, DEFAULT_MAX_FRAME_BYTES) {
        Ok(c) => c,
        Err(_) => {
            out.totals.transport_errors += 1;
            out.aborted_workers = 1;
            return out;
        }
    };
    let window = match cfg.mode {
        LoadMode::Closed => 1,
        LoadMode::Open => cfg.open_pipeline.max(1),
    };
    for chunk in plan.chunks(window) {
        if let Some(limit) = cfg.time_limit {
            if started.elapsed() >= limit {
                break;
            }
        }
        // Pipeline the window, then collect its responses in order —
        // the server answers frames of one connection sequentially.
        let mut sent: Vec<(&Planned, Instant)> = Vec::with_capacity(chunk.len());
        for planned in chunk {
            if client.send_bytes(&planned.bytes).is_err() {
                out.totals.transport_errors += 1;
                out.aborted_workers = 1;
                return out;
            }
            out.totals.offered += 1;
            sent.push((planned, Instant::now()));
        }
        for (planned, sent_at) in sent {
            match client.recv() {
                Ok(resp) => {
                    let elapsed_ns = sent_at.elapsed().as_nanos() as u64;
                    absorb(
                        &resp,
                        &planned.class,
                        elapsed_ns,
                        &mut out.totals,
                        &mut out.latencies_ns,
                    );
                    if let Some(check) = planned.check {
                        bit_check(reference, pool, check, &resp, &mut out.totals);
                    }
                }
                Err(_) => {
                    out.totals.transport_errors += 1;
                    match ServeClient::connect(addr, cfg.read_timeout, DEFAULT_MAX_FRAME_BYTES) {
                        Ok(next) => {
                            client = next;
                            out.totals.reconnects += 1;
                            break; // Responses of this window are lost.
                        }
                        Err(_) => {
                            out.aborted_workers = 1;
                            return out;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Runs the seeded load generator against a serve endpoint.
///
/// `reference` must be an engine bit-identical to the one behind the
/// server (same artifact) — it anchors the bit-identity spot checks.
pub fn run_loadgen(addr: SocketAddr, reference: &Engine, cfg: &LoadgenConfig) -> LoadgenReport {
    let started = Instant::now();
    let shape = reference.network().input_shape();
    let pool: Vec<Tensor> = (0..8)
        .map(|i| synth_input(shape, cfg.seed.wrapping_add(i)))
        .collect();
    let plans: Vec<Result<Vec<Planned>, WireError>> = (0..cfg.connections.max(1))
        .map(|w| plan_worker(cfg, w, &pool))
        .collect();
    let mut report = LoadgenReport::default();
    thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let pool = &pool;
                scope.spawn(move || match plan {
                    Ok(plan) => run_worker(addr, reference, cfg, pool, plan, started),
                    Err(_) => LoadgenReport::aborted(),
                })
            })
            .collect();
        for handle in handles {
            report.merge(&handle.join().unwrap_or_else(|_| LoadgenReport::aborted()));
        }
    });
    report.elapsed_ns = started.elapsed().as_nanos() as u64;
    report
}

// ---------------------------------------------------------------------------
// Adversarial clients
// ---------------------------------------------------------------------------

/// Knobs of the adversarial client battery: deliberately hostile
/// connection behaviors driven against a live server to prove the
/// deadline/oversize/EOF defenses hold under churn. Each count is a
/// number of connections exhibiting that behavior; every behavior has a
/// deterministic server-side verdict, so the battery's effect on
/// [`fast_bcnn::serve::ServeTotals`] reconciles exactly
/// (see [`AdversarialReport::expected_wire_errors`]).
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Slow-loris connections: dribble a partial frame byte-by-byte,
    /// then stall until the server's read deadline rejects them
    /// (`wire_deadline`, one wire error each).
    pub slow_loris: usize,
    /// Connections that send a partial frame and abruptly close
    /// mid-frame (typed EOF truncation, one wire error each).
    pub abrupt_close: usize,
    /// Connections that declare an oversized length prefix
    /// (`wire_oversized`, one wire error each).
    pub oversize: usize,
    /// Connections that open and cleanly close without offering a frame
    /// (connection churn; no frames, no wire errors).
    pub churn: usize,
    /// Delay between dribbled slow-loris bytes.
    pub dribble_delay: Duration,
    /// How long each client waits for the server's verdict; must exceed
    /// the server's `read_timeout` for the slow-loris verdict to arrive.
    pub read_timeout: Duration,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        Self {
            slow_loris: 1,
            abrupt_close: 1,
            oversize: 1,
            churn: 2,
            dribble_delay: Duration::from_millis(5),
            read_timeout: Duration::from_secs(10),
        }
    }
}

impl AdversarialConfig {
    /// Connections the battery opens.
    pub fn connections(&self) -> u64 {
        (self.slow_loris + self.abrupt_close + self.oversize + self.churn) as u64
    }

    /// Wire errors the battery deterministically provokes server-side.
    pub fn expected_wire_errors(&self) -> u64 {
        (self.slow_loris + self.abrupt_close + self.oversize) as u64
    }
}

/// What the adversarial battery observed.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AdversarialReport {
    /// Connections opened.
    pub connections: u64,
    /// Wire errors the server must have counted for this battery
    /// (one per slow-loris, abrupt-close and oversize connection).
    pub expected_wire_errors: u64,
    /// Typed `wire_*` reject responses actually read back before the
    /// server closed (abrupt-close clients cannot receive one).
    pub rejects_received: u64,
    /// Clients whose connection failed outright (must be 0 for a soak).
    pub transport_errors: u64,
    /// Wall clock of the battery in nanoseconds.
    pub elapsed_ns: u64,
}

/// Reads one response frame with a deadline, returning its `reason` if
/// it is a typed `wire_*` reject.
fn read_wire_reject(stream: &mut TcpStream, read_timeout: Duration) -> Option<String> {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
    let mut buf = [0u8; 4096];
    loop {
        match decoder.next_frame() {
            Ok(Some(frame)) => {
                let resp = ServeResponse::decode(&frame).ok()?;
                return resp.reason.starts_with("wire_").then_some(resp.reason);
            }
            Ok(None) => {}
            Err(_) => return None,
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => decoder.push(&buf[..n]),
            Err(_) => return None,
        }
    }
}

/// One adversarial connection; returns `(got_reject, transport_error)`.
fn run_adversary(addr: SocketAddr, mode: usize, cfg: &AdversarialConfig) -> (bool, bool) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (false, true);
    };
    let _ = stream.set_nodelay(true);
    match mode {
        // Slow loris: a valid prefix promising 64 bytes, dribbled body,
        // then a stall the server must answer with `wire_deadline`.
        0 => {
            let prefix = (64u32).to_be_bytes();
            if stream.write_all(&prefix).is_err() {
                return (false, true);
            }
            for _ in 0..4 {
                if stream.write_all(&[0x7B]).is_err() {
                    return (false, true);
                }
                let _ = stream.flush();
                thread::sleep(cfg.dribble_delay);
            }
            let got = read_wire_reject(&mut stream, cfg.read_timeout)
                .is_some_and(|r| r == "wire_deadline");
            (got, false)
        }
        // Abrupt close: partial frame, then a hard shutdown mid-frame.
        1 => {
            let prefix = (32u32).to_be_bytes();
            if stream.write_all(&prefix).is_err() || stream.write_all(&[1, 2, 3]).is_err() {
                return (false, true);
            }
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            (false, false)
        }
        // Oversize: a length prefix past any ceiling the server admits.
        2 => {
            let prefix = (u32::MAX).to_be_bytes();
            if stream.write_all(&prefix).is_err() {
                return (false, true);
            }
            let _ = stream.flush();
            let got = read_wire_reject(&mut stream, cfg.read_timeout)
                .is_some_and(|r| r == "wire_oversized");
            (got, false)
        }
        // Churn: clean open/close, no frame offered.
        _ => {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            (false, false)
        }
    }
}

/// Drives the adversarial battery against a live server, all
/// connections concurrently. The server must outlive the call; its
/// `read_timeout` must be shorter than `cfg.read_timeout` or the
/// slow-loris verdicts never arrive.
pub fn run_adversarial(addr: SocketAddr, cfg: &AdversarialConfig) -> AdversarialReport {
    let started = Instant::now();
    let mut modes = Vec::new();
    modes.extend(std::iter::repeat_n(0usize, cfg.slow_loris));
    modes.extend(std::iter::repeat_n(1usize, cfg.abrupt_close));
    modes.extend(std::iter::repeat_n(2usize, cfg.oversize));
    modes.extend(std::iter::repeat_n(3usize, cfg.churn));
    let outcomes: Vec<(bool, bool)> = thread::scope(|scope| {
        let handles: Vec<_> = modes
            .iter()
            .map(|&mode| scope.spawn(move || run_adversary(addr, mode, cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or((false, true)))
            .collect()
    });
    let rejects = outcomes.iter().filter(|(got, _)| *got).count() as u64;
    let transport = outcomes.iter().filter(|(_, err)| *err).count() as u64;
    AdversarialReport {
        connections: cfg.connections(),
        expected_wire_errors: cfg.expected_wire_errors(),
        rejects_received: rejects,
        transport_errors: transport,
        elapsed_ns: started.elapsed().as_nanos() as u64,
    }
}
