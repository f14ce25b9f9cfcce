//! Network serving tier: a zero-dependency TCP front-end over the
//! [`ModelRegistry`] / resilient batch engine.
//!
//! The wire protocol is deliberately small: each direction carries
//! length-prefixed frames (a 4-byte big-endian payload length followed
//! by that many payload bytes), and each payload is the same versioned
//! JSON envelope `core::io` uses for artifacts —
//! `{"artifact":"serve-request","version":1,"payload":{...}}` — so a
//! stale or foreign frame fails with the same typed errors as a stale
//! artifact file. Every malformed input maps to a typed [`WireError`];
//! nothing in this module panics on hostile bytes.
//!
//! Requests carry an SLO class name plus optional deadline; the server
//! prices both against its per-class [`ClassPolicy`] (admission cap,
//! deadline floor, sample budget) and threads the result through
//! [`crate::RequestClass`] so retry/breaker/telemetry all see the same
//! class label end to end (`net_connections`, `net_frames{result}`,
//! `request_latency_ns{class}`).
//!
//! The module also hosts the closed/open-loop load generator and the
//! serve soak harness (`run_serve_soak`) used by the `loadgen` bench
//! binary, the `fastbcnn serve-net` subcommand and `tests/serve_soak.rs`.
//! Floating-point tensors cross the wire as IEEE-754 bit patterns
//! (`u32`), keeping responses byte-exact for golden fixtures and
//! bit-identity spot checks against [`Engine::predict_robust_seeded`].

use std::collections::BTreeMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use fbcnn_nn::models::ModelKind;
use fbcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

use crate::io::{IoError, FORMAT_VERSION};
use crate::ledger::Ledger;
use crate::{
    error_reason_name, synth_input, BatchRequest, Engine, EngineConfig, ModelArtifact,
    ModelRegistry, NoJitter, RegistryConfig, RegistryOutcome, RequestClass, ResilienceConfig,
    VersionCounters,
};

/// Envelope kind of a request frame.
pub const REQUEST_KIND: &str = "serve-request";
/// Envelope kind of a response frame.
pub const RESPONSE_KIND: &str = "serve-response";
/// Bytes of the big-endian length prefix in front of every frame.
pub const LEN_PREFIX_BYTES: usize = 4;
/// Default per-frame payload ceiling (1 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;
/// Counter metric: connections, labelled `result=accepted|rejected`.
pub const NET_CONNECTIONS_METRIC: &str = "net_connections";
/// Counter metric: served frames, labelled
/// `result=ok|failed|shed|wire_error|unknown_class`.
pub const NET_FRAMES_METRIC: &str = "net_frames";
/// Counter metric: responses whose deadline/sample budget expired
/// (a subset of `net_frames{result=ok|failed}`).
pub const NET_EXPIRED_METRIC: &str = "net_expired";

/// Counter metric: responses computed but never delivered because the
/// peer stopped draining its socket past the write deadline.
pub const NET_WRITE_DEADLINE_METRIC: &str = "net_write_deadline_drops";

// ---------------------------------------------------------------------------
// Typed wire errors
// ---------------------------------------------------------------------------

/// Every way a frame or its payload can be rejected. The protocol
/// contract (enforced by `tests/wire_props.rs`) is that arbitrary bytes
/// fed to the codec yield one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes actually present.
        have: usize,
        /// Bytes the prefix (or frame header) promised.
        need: usize,
    },
    /// The length prefix exceeds the configured frame ceiling.
    Oversized {
        /// Length the prefix declared.
        len: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// The payload is not a well-formed `core::io` envelope.
    Envelope(String),
    /// The envelope's format version is not this build's
    /// [`FORMAT_VERSION`].
    StaleVersion {
        /// Version found on the wire.
        found: u32,
        /// Version this build speaks.
        expected: u32,
    },
    /// The envelope holds a different artifact kind than expected.
    ForeignKind {
        /// Kind found on the wire.
        found: String,
        /// Kind the receiver wanted.
        expected: String,
    },
    /// The envelope was fine but its payload JSON did not decode into
    /// the expected message (or failed message-level validation).
    Payload(String),
    /// A read deadline elapsed with a partial frame buffered.
    Deadline {
        /// The deadline that elapsed, in milliseconds.
        waited_ms: u64,
    },
    /// A write deadline elapsed with the peer not draining its socket —
    /// the response was computed but could not be delivered (slow-loris
    /// reader / back-pressure).
    WriteDeadline {
        /// The deadline that elapsed, in milliseconds.
        waited_ms: u64,
    },
    /// Transport-level failure (socket error, peer closed mid-exchange).
    Io(String),
}

impl WireError {
    /// Stable reason label (`wire_*`) used as the `reason` field of
    /// error responses and for counter reconciliation.
    pub fn reason(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "wire_truncated",
            WireError::Oversized { .. } => "wire_oversized",
            WireError::Envelope(_) => "wire_envelope",
            WireError::StaleVersion { .. } => "wire_stale_version",
            WireError::ForeignKind { .. } => "wire_foreign_kind",
            WireError::Payload(_) => "wire_payload",
            WireError::Deadline { .. } => "wire_deadline",
            WireError::WriteDeadline { .. } => "wire_write_deadline",
            WireError::Io(_) => "wire_io",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds ceiling {max}")
            }
            WireError::Envelope(msg) => write!(f, "bad envelope: {msg}"),
            WireError::StaleVersion { found, expected } => {
                write!(
                    f,
                    "stale wire version {found} (this build speaks {expected})"
                )
            }
            WireError::ForeignKind { found, expected } => {
                write!(f, "foreign frame kind {found:?} (expected {expected:?})")
            }
            WireError::Payload(msg) => write!(f, "bad payload: {msg}"),
            WireError::Deadline { waited_ms } => {
                write!(f, "read deadline ({waited_ms} ms) elapsed mid-frame")
            }
            WireError::WriteDeadline { waited_ms } => {
                write!(
                    f,
                    "write deadline ({waited_ms} ms) elapsed with the peer not reading"
                )
            }
            WireError::Io(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<IoError> for WireError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Envelope(msg) => WireError::Envelope(msg),
            IoError::Version { found, expected } => WireError::StaleVersion { found, expected },
            IoError::Kind { found, expected } => WireError::ForeignKind { found, expected },
            IoError::Serde(err) => WireError::Payload(err.to_string()),
            IoError::Io(err) => WireError::Io(err.to_string()),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Wraps `payload` in a 4-byte big-endian length prefix.
///
/// # Errors
///
/// [`WireError::Oversized`] when the payload exceeds `max` bytes.
pub fn encode_frame(payload: &[u8], max: usize) -> Result<Vec<u8>, WireError> {
    if payload.len() > max || payload.len() > u32::MAX as usize {
        return Err(WireError::Oversized {
            len: payload.len(),
            max: max.min(u32::MAX as usize),
        });
    }
    let mut out = Vec::with_capacity(LEN_PREFIX_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental frame decoder tolerant of arbitrary read chunking:
/// bytes go in via [`push`](FrameDecoder::push) in whatever splits the
/// socket produced, complete frames come out via
/// [`next_frame`](FrameDecoder::next_frame), and
/// [`finish`](FrameDecoder::finish) types out whatever is left when the
/// stream ends.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max: usize,
}

impl FrameDecoder {
    /// A decoder enforcing `max` payload bytes per frame.
    pub fn new(max: usize) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            max,
        }
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn peek_len(&self) -> Option<usize> {
        if self.available() < LEN_PREFIX_BYTES {
            return None;
        }
        let b = &self.buf[self.pos..self.pos + LEN_PREFIX_BYTES];
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    /// Pops the next complete frame payload, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the buffered length prefix exceeds
    /// the decoder's ceiling — the connection is unrecoverable at that
    /// point, since the prefix cannot be trusted to resynchronize.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some(len) = self.peek_len() else {
            return Ok(None);
        };
        if len > self.max {
            return Err(WireError::Oversized { len, max: self.max });
        }
        if self.available() < LEN_PREFIX_BYTES + len {
            return Ok(None);
        }
        let start = self.pos + LEN_PREFIX_BYTES;
        let frame = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        // Reclaim consumed space so long-lived connections stay O(frame).
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(frame.into())
    }

    /// True when no undecoded bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.available() == 0
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.available()
    }

    /// Validates end-of-stream: any leftover partial frame becomes a
    /// typed error.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] for a partial prefix or body,
    /// [`WireError::Oversized`] for a poisoned length prefix.
    pub fn finish(&self) -> Result<(), WireError> {
        let avail = self.available();
        if avail == 0 {
            return Ok(());
        }
        match self.peek_len() {
            None => Err(WireError::Truncated {
                have: avail,
                need: LEN_PREFIX_BYTES,
            }),
            Some(len) if len > self.max => Err(WireError::Oversized { len, max: self.max }),
            Some(len) => {
                let body = avail - LEN_PREFIX_BYTES;
                if body < len {
                    Err(WireError::Truncated {
                        have: body,
                        need: len,
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Serializes `payload_json` into an envelope of `kind` and frames it.
///
/// # Errors
///
/// [`WireError::Oversized`] when the sealed envelope exceeds `max`.
pub fn seal_frame(kind: &str, payload_json: &str, max: usize) -> Result<Vec<u8>, WireError> {
    let envelope = format!(
        "{{\"artifact\":\"{kind}\",\"version\":{FORMAT_VERSION},\"payload\":{payload_json}}}"
    );
    encode_frame(envelope.as_bytes(), max)
}

/// Opens a frame payload as an envelope of `kind`, returning the inner
/// payload JSON.
///
/// # Errors
///
/// Typed [`WireError`] for non-UTF-8 bytes, malformed envelopes, stale
/// versions and foreign kinds.
pub fn open_frame(frame: &[u8], kind: &str) -> Result<String, WireError> {
    let text = std::str::from_utf8(frame)
        .map_err(|e| WireError::Envelope(format!("frame is not UTF-8: {e}")))?;
    let (found_kind, version, payload) = crate::io::parse_envelope(text)?;
    if version != FORMAT_VERSION {
        return Err(WireError::StaleVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    if found_kind != kind {
        return Err(WireError::ForeignKind {
            found: found_kind.to_string(),
            expected: kind.to_string(),
        });
    }
    Ok(payload.to_string())
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// One inference request on the wire. Input pixels travel as IEEE-754
/// bit patterns so encode → decode is byte-lossless and fixtures can pin
/// exact frames.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-chosen request id (feeds the deterministic seed derivation).
    pub id: u64,
    /// SLO class name; must match a server-side [`ClassPolicy`].
    pub class: String,
    /// Optional client deadline in milliseconds; the server prices it
    /// against the class deadline and enforces the tighter of the two.
    pub deadline_ms: Option<u64>,
    /// Explicit mask-seed override (`None` derives from the id).
    pub seed: Option<u64>,
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Row-major input pixels as `f32::to_bits` patterns;
    /// `len == channels * height * width`.
    pub data_bits: Vec<u32>,
}

impl ServeRequest {
    /// Builds a request from a tensor input.
    pub fn from_input(id: u64, class: impl Into<String>, input: &Tensor) -> Self {
        let shape = input.shape();
        Self {
            id,
            class: class.into(),
            deadline_ms: None,
            seed: None,
            channels: shape.channels(),
            height: shape.height(),
            width: shape.width(),
            data_bits: input.iter().map(|v| v.to_bits()).collect(),
        }
    }

    /// Reconstructs the input tensor, validating dimensions first
    /// (`Tensor::from_vec` panics on mismatch, so hostile frames must
    /// fail here with a typed error instead).
    ///
    /// # Errors
    ///
    /// [`WireError::Payload`] on zero dimensions, overflowing products
    /// or a `data_bits` length that disagrees with the shape.
    pub fn input(&self) -> Result<Tensor, WireError> {
        if self.channels == 0 || self.height == 0 || self.width == 0 {
            return Err(WireError::Payload(format!(
                "degenerate input shape {}x{}x{}",
                self.channels, self.height, self.width
            )));
        }
        let expected = self
            .channels
            .checked_mul(self.height)
            .and_then(|n| n.checked_mul(self.width))
            .ok_or_else(|| WireError::Payload("input shape product overflows".to_string()))?;
        if expected != self.data_bits.len() {
            return Err(WireError::Payload(format!(
                "input shape {}x{}x{} wants {expected} values, frame carries {}",
                self.channels,
                self.height,
                self.width,
                self.data_bits.len()
            )));
        }
        let data = self.data_bits.iter().map(|b| f32::from_bits(*b)).collect();
        Ok(Tensor::from_vec(
            Shape::new(self.channels, self.height, self.width),
            data,
        ))
    }

    /// Serializes into a sealed, length-prefixed frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] on serialization failure or an oversized frame.
    pub fn encode(&self, max: usize) -> Result<Vec<u8>, WireError> {
        let payload = serde_json::to_string(self).map_err(|e| WireError::Payload(e.to_string()))?;
        seal_frame(REQUEST_KIND, &payload, max)
    }

    /// Decodes a frame payload (envelope + message JSON).
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] for envelope or payload failures.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let payload = open_frame(frame, REQUEST_KIND)?;
        serde_json::from_str(&payload).map_err(|e| WireError::Payload(e.to_string()))
    }
}

/// One inference response on the wire. Deliberately free of wall-clock
/// fields so identical requests produce byte-identical responses — the
/// property the golden fixtures and the determinism test pin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeResponse {
    /// Request id, echoed back (0 when the request was undecodable).
    pub id: u64,
    /// Class the request was served under (empty when undecodable).
    pub class: String,
    /// Whether a prediction was produced.
    pub ok: bool,
    /// `"ok"`, a typed engine reason (`expired`, `overloaded`, ...), a
    /// `wire_*` reason, or `"unknown_class"`.
    pub reason: String,
    /// Whether admission control shed the request before inference.
    pub shed: bool,
    /// Whether a deadline/sample budget expired the request (partial
    /// prediction when `ok`, typed expiry error otherwise).
    pub expired: bool,
    /// [`crate::DegradedMode`] name of an `ok` response, else `"none"`.
    pub degraded: String,
    /// Monte-Carlo samples that contributed to the prediction.
    pub used_samples: u64,
    /// Samples the engine configuration asked for.
    pub requested_samples: u64,
    /// Predicted class index (0 when not `ok`).
    pub predicted: u64,
    /// Posterior mean as `f32::to_bits` patterns (empty when not `ok`).
    pub mean_bits: Vec<u32>,
    /// Predictive entropy as an `f32::to_bits` pattern (0 when not `ok`).
    pub entropy_bits: u32,
    /// Model version that served the request (0 when it never routed).
    pub version: u64,
    /// Shard that served the request (0 when it never routed).
    pub shard: u64,
    /// Execution attempts (0 when the request never reached the engine).
    pub attempts: u32,
}

impl ServeResponse {
    /// Posterior mean decoded back to floats.
    pub fn mean(&self) -> Vec<f32> {
        self.mean_bits.iter().map(|b| f32::from_bits(*b)).collect()
    }

    /// True when the response is a full-fidelity fast-path prediction —
    /// the bit-identity contract only binds for these.
    pub fn is_pristine(&self) -> bool {
        self.ok && !self.expired && self.degraded == "healthy"
    }

    /// Serializes into a sealed, length-prefixed frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] on serialization failure or an oversized frame.
    pub fn encode(&self, max: usize) -> Result<Vec<u8>, WireError> {
        let payload = serde_json::to_string(self).map_err(|e| WireError::Payload(e.to_string()))?;
        seal_frame(RESPONSE_KIND, &payload, max)
    }

    /// Decodes a frame payload (envelope + message JSON).
    ///
    /// # Errors
    ///
    /// Typed [`WireError`] for envelope or payload failures.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let payload = open_frame(frame, RESPONSE_KIND)?;
        serde_json::from_str(&payload).map_err(|e| WireError::Payload(e.to_string()))
    }
}

fn reject_response(id: u64, class: &str, reason: &str) -> ServeResponse {
    ServeResponse {
        id,
        class: class.to_string(),
        ok: false,
        reason: reason.to_string(),
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
    }
}

fn shed_response(id: u64, class: &str) -> ServeResponse {
    ServeResponse {
        shed: true,
        ..reject_response(id, class, "overloaded")
    }
}

fn response_of(id: u64, class: &str, out: &RegistryOutcome) -> (ServeResponse, &'static str) {
    let ro = &out.outcome;
    match &ro.outcome.result {
        Ok((pred, report)) => (
            ServeResponse {
                id,
                class: class.to_string(),
                ok: true,
                reason: "ok".to_string(),
                shed: ro.shed,
                expired: ro.expired,
                degraded: report.mode.name().to_string(),
                used_samples: report.used_samples as u64,
                requested_samples: report.requested_samples as u64,
                predicted: pred.class as u64,
                mean_bits: pred.mean.iter().map(|v| v.to_bits()).collect(),
                entropy_bits: pred.predictive_entropy.to_bits(),
                version: out.version,
                shard: out.shard as u64,
                attempts: ro.attempts,
            },
            "ok",
        ),
        Err(e) => (
            ServeResponse {
                id,
                class: class.to_string(),
                ok: false,
                reason: error_reason_name(e).to_string(),
                shed: ro.shed,
                expired: ro.expired,
                degraded: "none".to_string(),
                used_samples: 0,
                requested_samples: 0,
                predicted: 0,
                mean_bits: Vec::new(),
                entropy_bits: 0,
                version: out.version,
                shard: out.shard as u64,
                attempts: ro.attempts,
            },
            "failed",
        ),
    }
}

// ---------------------------------------------------------------------------
// Server configuration and admission control
// ---------------------------------------------------------------------------

/// Per-SLO-class serving policy; admission control prices every request
/// against its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassPolicy {
    /// Class name carried on the wire and on every telemetry label.
    pub name: String,
    /// Class deadline; the effective deadline is the tighter of this
    /// and the request's own `deadline_ms`.
    pub deadline: Option<Duration>,
    /// Deterministic sample budget (expires after this many sample
    /// checkpoints) — the testable deadline used by golden fixtures.
    pub sample_budget: Option<u64>,
    /// Concurrent in-flight requests admitted for this class; 0 sheds
    /// everything (a deterministic-rejection tier), `usize::MAX` is
    /// unbounded.
    pub max_inflight: usize,
}

impl ClassPolicy {
    /// An unbounded class with no deadline.
    pub fn unbounded(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            deadline: None,
            sample_budget: None,
            max_inflight: usize::MAX,
        }
    }
}

/// Default SLO tiers: `interactive` (250 ms, capped fan-in),
/// `standard` (2 s), `batch` (no deadline).
pub fn default_classes() -> Vec<ClassPolicy> {
    vec![
        ClassPolicy {
            name: "interactive".to_string(),
            deadline: Some(Duration::from_millis(250)),
            sample_budget: None,
            max_inflight: 64,
        },
        ClassPolicy {
            name: "standard".to_string(),
            deadline: Some(Duration::from_secs(2)),
            sample_budget: None,
            max_inflight: usize::MAX,
        },
        ClassPolicy::unbounded("batch"),
    ]
}

/// Knobs of the TCP server front-end.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// SLO classes this server admits.
    pub classes: Vec<ClassPolicy>,
    /// Per-frame payload ceiling in bytes.
    pub max_frame_bytes: usize,
    /// Concurrent connections; excess accepts are counted and closed.
    pub max_connections: usize,
    /// Per-connection read deadline: a partial frame older than this is
    /// answered with [`WireError::Deadline`] and the connection closed.
    /// Idle connections (no partial frame) are unaffected.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a response write stalled longer
    /// than this (the peer sent a request but never drains the reply —
    /// a slow-loris reader pinning the worker) is dropped with a typed
    /// [`WireError::WriteDeadline`] and the connection closed. Must be
    /// non-zero.
    pub write_timeout: Duration,
    /// Accept-loop poll interval (the listener is non-blocking so
    /// shutdown stays responsive).
    pub accept_poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            classes: default_classes(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_connections: 256,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(10),
            accept_poll: Duration::from_millis(2),
        }
    }
}

/// Snapshot of the server's frame/connection accounting — the
/// authoritative side of every soak reconciliation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeTotals {
    /// Connections accepted and served.
    pub connections: u64,
    /// Connections closed immediately because `max_connections` was hit.
    pub connections_rejected: u64,
    /// Frames answered with an `ok` prediction (including expired
    /// partial-sample predictions).
    pub frames_ok: u64,
    /// Frames answered with a typed engine error.
    pub frames_failed: u64,
    /// Frames shed by per-class admission control (never reached the
    /// registry).
    pub frames_shed: u64,
    /// Frames (or streams) rejected with a typed [`WireError`].
    pub frames_wire_error: u64,
    /// Frames naming a class the server does not admit.
    pub frames_unknown_class: u64,
    /// Responses whose deadline/sample budget expired (subset of
    /// `frames_ok + frames_failed`).
    pub expired: u64,
    /// Responses computed but never delivered because the peer stopped
    /// draining its socket past the write deadline. The frame itself is
    /// already counted under its result label, so this is an overlay —
    /// deliberately not part of [`ServeTotals::frames_total`].
    pub write_deadline_drops: u64,
}

impl ServeTotals {
    /// Every frame the server accounted for, across all result labels.
    pub fn frames_total(&self) -> u64 {
        self.frames_ok
            + self.frames_failed
            + self.frames_shed
            + self.frames_wire_error
            + self.frames_unknown_class
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    connections_rejected: AtomicU64,
    frames_ok: AtomicU64,
    frames_failed: AtomicU64,
    frames_shed: AtomicU64,
    frames_wire_error: AtomicU64,
    frames_unknown_class: AtomicU64,
    expired: AtomicU64,
    write_deadline_drops: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServeTotals {
        ServeTotals {
            connections: self.connections.load(Ordering::Acquire),
            connections_rejected: self.connections_rejected.load(Ordering::Acquire),
            frames_ok: self.frames_ok.load(Ordering::Acquire),
            frames_failed: self.frames_failed.load(Ordering::Acquire),
            frames_shed: self.frames_shed.load(Ordering::Acquire),
            frames_wire_error: self.frames_wire_error.load(Ordering::Acquire),
            frames_unknown_class: self.frames_unknown_class.load(Ordering::Acquire),
            expired: self.expired.load(Ordering::Acquire),
            write_deadline_drops: self.write_deadline_drops.load(Ordering::Acquire),
        }
    }

    fn note_frame(&self, label: &'static str) {
        let cell = match label {
            "ok" => &self.frames_ok,
            "failed" => &self.frames_failed,
            "shed" => &self.frames_shed,
            "wire_error" => &self.frames_wire_error,
            _ => &self.frames_unknown_class,
        };
        cell.fetch_add(1, Ordering::AcqRel);
        fbcnn_telemetry::counter_add(NET_FRAMES_METRIC, &[("result", label)], 1);
    }
}

struct ClassSlot {
    policy: ClassPolicy,
    inflight: AtomicUsize,
}

impl ClassSlot {
    fn try_admit(&self) -> bool {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.policy.max_inflight {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

struct NetState {
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
    classes: Vec<ClassSlot>,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    counters: Counters,
}

fn effective_deadline(policy: Option<Duration>, request_ms: Option<u64>) -> Option<Duration> {
    let requested = request_ms.map(Duration::from_millis);
    match (policy, requested) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

fn serve_frame(state: &NetState, frame: &[u8]) -> (ServeResponse, &'static str) {
    let req = match ServeRequest::decode(frame) {
        Ok(req) => req,
        Err(e) => return (reject_response(0, "", e.reason()), "wire_error"),
    };
    let input = match req.input() {
        Ok(input) => input,
        Err(e) => {
            return (
                reject_response(req.id, &req.class, e.reason()),
                "wire_error",
            )
        }
    };
    let Some(slot) = state.classes.iter().find(|s| s.policy.name == req.class) else {
        return (
            reject_response(req.id, &req.class, "unknown_class"),
            "unknown_class",
        );
    };
    if !slot.try_admit() {
        return (shed_response(req.id, &req.class), "shed");
    }
    let class = RequestClass {
        name: slot.policy.name.clone(),
        deadline: effective_deadline(slot.policy.deadline, req.deadline_ms),
        sample_budget: slot.policy.sample_budget,
    };
    let mut batch_req = BatchRequest::new(req.id, input);
    batch_req.seed = req.seed;
    let outcome = state.registry.handle_classed(&batch_req, Some(&class));
    slot.release();
    response_of(req.id, &req.class, &outcome)
}

// ---------------------------------------------------------------------------
// The TCP server
// ---------------------------------------------------------------------------

/// A running [`serve`] instance. Dropping the handle shuts the server
/// down and drains its connections.
pub struct NetServerHandle {
    addr: SocketAddr,
    state: Arc<NetState>,
    accept: Option<thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl NetServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server's accounting so far.
    pub fn totals(&self) -> ServeTotals {
        self.state.counters.snapshot()
    }

    fn drain(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = {
            let mut guard = self
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: stop accepting, finish every buffered request,
    /// join all connection threads, and return the final accounting.
    pub fn shutdown(mut self) -> ServeTotals {
        self.drain();
        self.state.counters.snapshot()
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Boots the TCP front-end over `registry`.
///
/// The accept loop is non-blocking (polling `cfg.accept_poll`) so
/// shutdown stays responsive; each accepted connection gets its own
/// worker thread with a read deadline of `cfg.read_timeout`.
///
/// # Errors
///
/// [`WireError::Io`] when the listener cannot bind.
pub fn serve(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> Result<NetServerHandle, WireError> {
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| WireError::Io(e.to_string()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| WireError::Io(e.to_string()))?;
    let addr = listener
        .local_addr()
        .map_err(|e| WireError::Io(e.to_string()))?;
    let classes = cfg
        .classes
        .iter()
        .map(|policy| ClassSlot {
            policy: policy.clone(),
            inflight: AtomicUsize::new(0),
        })
        .collect();
    let state = Arc::new(NetState {
        registry,
        cfg,
        classes,
        shutdown: AtomicBool::new(false),
        active_connections: AtomicUsize::new(0),
        counters: Counters::default(),
    });
    let connections: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_state = Arc::clone(&state);
    let accept_connections = Arc::clone(&connections);
    let accept = thread::spawn(move || loop {
        if accept_state.shutdown.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let active = accept_state.active_connections.load(Ordering::Acquire);
                if active >= accept_state.cfg.max_connections {
                    accept_state
                        .counters
                        .connections_rejected
                        .fetch_add(1, Ordering::AcqRel);
                    fbcnn_telemetry::counter_add(
                        NET_CONNECTIONS_METRIC,
                        &[("result", "rejected")],
                        1,
                    );
                    drop(stream);
                    continue;
                }
                accept_state
                    .active_connections
                    .fetch_add(1, Ordering::AcqRel);
                accept_state
                    .counters
                    .connections
                    .fetch_add(1, Ordering::AcqRel);
                fbcnn_telemetry::counter_add(NET_CONNECTIONS_METRIC, &[("result", "accepted")], 1);
                let conn_state = Arc::clone(&accept_state);
                let worker = thread::spawn(move || {
                    handle_connection(&conn_state, stream);
                    conn_state.active_connections.fetch_sub(1, Ordering::AcqRel);
                });
                let mut guard = accept_connections
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // Reap finished workers so long soaks stay O(active).
                let mut alive = Vec::with_capacity(guard.len() + 1);
                for handle in guard.drain(..) {
                    if handle.is_finished() {
                        let _ = handle.join();
                    } else {
                        alive.push(handle);
                    }
                }
                alive.push(worker);
                *guard = alive;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(accept_state.cfg.accept_poll);
            }
            Err(_) => thread::sleep(accept_state.cfg.accept_poll),
        }
    });

    Ok(NetServerHandle {
        addr,
        state,
        accept: Some(accept),
        connections,
    })
}

fn write_frame(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(bytes)?;
    stream.flush()
}

/// Classifies a failed response write: a `WouldBlock`/`TimedOut` error
/// kind means the socket's write deadline elapsed with the peer not
/// reading ([`WireError::WriteDeadline`]); anything else is a plain
/// transport failure ([`WireError::Io`]).
pub fn classify_write_failure(e: &std::io::Error, deadline: Duration) -> WireError {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        WireError::WriteDeadline {
            waited_ms: deadline.as_millis() as u64,
        }
    } else {
        WireError::Io(e.to_string())
    }
}

/// Encodes and writes `response`, classifying any failure.
///
/// # Errors
///
/// [`WireError::WriteDeadline`] when the write deadline elapsed with
/// the peer not draining the socket, the encode-time or transport
/// [`WireError`] otherwise.
fn send_response(
    stream: &mut TcpStream,
    state: &NetState,
    response: &ServeResponse,
) -> Result<(), WireError> {
    let bytes = response.encode(state.cfg.max_frame_bytes)?;
    write_frame(stream, &bytes).map_err(|e| classify_write_failure(&e, state.cfg.write_timeout))
}

/// [`send_response`] plus accounting: a write-deadline drop is counted
/// (the response was computed but the peer never drained it); any
/// failure tells the caller to close the connection.
fn deliver(stream: &mut TcpStream, state: &NetState, response: &ServeResponse) -> bool {
    match send_response(stream, state, response) {
        Ok(()) => true,
        Err(e) => {
            if matches!(e, WireError::WriteDeadline { .. }) {
                state
                    .counters
                    .write_deadline_drops
                    .fetch_add(1, Ordering::AcqRel);
                fbcnn_telemetry::counter_add(NET_WRITE_DEADLINE_METRIC, &[], 1);
            }
            false
        }
    }
}

fn handle_connection(state: &Arc<NetState>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(state.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(state.cfg.write_timeout));
    let mut decoder = FrameDecoder::new(state.cfg.max_frame_bytes);
    let mut buf = vec![0u8; 16 * 1024];
    'conn: loop {
        // Serve every complete frame already buffered.
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    let (response, label) = serve_frame(state, &frame);
                    state.counters.note_frame(label);
                    if response.expired {
                        state.counters.expired.fetch_add(1, Ordering::AcqRel);
                        fbcnn_telemetry::counter_add(NET_EXPIRED_METRIC, &[], 1);
                    }
                    if !deliver(&mut stream, state, &response) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // A poisoned length prefix cannot resynchronize:
                    // answer with the typed error and close.
                    state.counters.note_frame("wire_error");
                    let _ = deliver(&mut stream, state, &reject_response(0, "", e.reason()));
                    break 'conn;
                }
            }
        }
        // Graceful drain: on shutdown, everything buffered has been
        // answered above; stop reading new work.
        if state.shutdown.load(Ordering::Acquire) && decoder.is_empty() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                if decoder.finish().is_err() {
                    // Mid-frame EOF: typed, counted, nobody to answer.
                    state.counters.note_frame("wire_error");
                }
                break;
            }
            Ok(n) => decoder.push(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if decoder.is_empty() {
                    continue; // Idle connection: keep waiting.
                }
                // Partial frame older than the read deadline.
                let waited_ms = state.cfg.read_timeout.as_millis() as u64;
                state.counters.note_frame("wire_error");
                let _ = deliver(
                    &mut stream,
                    state,
                    &reject_response(0, "", WireError::Deadline { waited_ms }.reason()),
                );
                break;
            }
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client for the serve protocol (used by the load
/// generator, the CLI self-drive and the protocol tests).
pub struct ServeClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl ServeClient {
    /// Connects with a receive deadline and frame ceiling.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on connect/socket-option failure.
    pub fn connect(
        addr: SocketAddr,
        read_timeout: Duration,
        max_frame: usize,
    ) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(|e| WireError::Io(e.to_string()))?;
        stream
            .set_nodelay(true)
            .map_err(|e| WireError::Io(e.to_string()))?;
        stream
            .set_read_timeout(Some(read_timeout))
            .map_err(|e| WireError::Io(e.to_string()))?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(max_frame),
            buf: vec![0u8; 16 * 1024],
        })
    }

    /// Sends pre-encoded bytes verbatim (the load generator uses this
    /// to inject malformed frames).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on transport failure.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        write_frame(&mut self.stream, bytes).map_err(|e| WireError::Io(e.to_string()))
    }

    /// Encodes and sends one request.
    ///
    /// # Errors
    ///
    /// [`WireError`] on encoding or transport failure.
    pub fn send(&mut self, req: &ServeRequest, max_frame: usize) -> Result<(), WireError> {
        let bytes = req.encode(max_frame)?;
        self.send_bytes(&bytes)
    }

    /// Blocks for the next response frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Deadline`] when the receive deadline elapses,
    /// [`WireError::Io`] when the server closes the stream, and any
    /// decode-level [`WireError`] for malformed responses.
    pub fn recv(&mut self) -> Result<ServeResponse, WireError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return ServeResponse::decode(&frame);
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    self.decoder.finish()?;
                    return Err(WireError::Io("server closed the connection".to_string()));
                }
                Ok(n) => {
                    let chunk = self.buf[..n].to_vec();
                    self.decoder.push(&chunk);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(WireError::Deadline { waited_ms: 0 });
                }
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
    }

    /// Sends a request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from [`send`](Self::send) or [`recv`](Self::recv).
    pub fn roundtrip(
        &mut self,
        req: &ServeRequest,
        max_frame: usize,
    ) -> Result<ServeResponse, WireError> {
        self.send(req, max_frame)?;
        self.recv()
    }
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

/// splitmix64 — the same cheap deterministic mixer the batch tier uses
/// for seed derivation.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

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

/// Client-side accounting, reconciled 1:1 against [`ServeTotals`].
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
                bytes: malformed_frame(mix64(cfg.seed ^ id), DEFAULT_MAX_FRAME_BYTES),
                class: "malformed".to_string(),
                check: None,
            });
            continue;
        }
        let pool_idx = (mix64(cfg.seed.wrapping_add(id)) % pool.len() as u64) as usize;
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

struct WorkerOut {
    totals: LoadgenTotals,
    latencies: BTreeMap<String, Vec<u64>>,
    aborted: bool,
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
) -> WorkerOut {
    let mut out = WorkerOut {
        totals: LoadgenTotals::default(),
        latencies: BTreeMap::new(),
        aborted: false,
    };
    let mut client = match ServeClient::connect(addr, cfg.read_timeout, DEFAULT_MAX_FRAME_BYTES) {
        Ok(c) => c,
        Err(_) => {
            out.totals.transport_errors += 1;
            out.aborted = true;
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
                out.aborted = true;
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
                        &mut out.latencies,
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
                            out.aborted = true;
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
    let mut totals = LoadgenTotals::default();
    let mut latencies: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut aborted_workers = 0u64;
    let outs: Vec<WorkerOut> = thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let pool = &pool;
                scope.spawn(move || match plan {
                    Ok(plan) => run_worker(addr, reference, cfg, pool, plan, started),
                    Err(_) => WorkerOut {
                        totals: LoadgenTotals::default(),
                        latencies: BTreeMap::new(),
                        aborted: true,
                    },
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| WorkerOut {
                    totals: LoadgenTotals::default(),
                    latencies: BTreeMap::new(),
                    aborted: true,
                })
            })
            .collect()
    });
    for out in &outs {
        totals.merge(&out.totals);
        for (class, lat) in &out.latencies {
            latencies.entry(class.clone()).or_default().extend(lat);
        }
        if out.aborted {
            aborted_workers += 1;
        }
    }
    LoadgenReport {
        totals,
        latencies_ns: latencies,
        aborted_workers,
        elapsed_ns: started.elapsed().as_nanos() as u64,
    }
}

// ---------------------------------------------------------------------------
// Adversarial clients
// ---------------------------------------------------------------------------

/// Knobs of the adversarial client battery: deliberately hostile
/// connection behaviors driven against a live server to prove the
/// deadline/oversize/EOF defenses hold under churn. Each count is a
/// number of connections exhibiting that behavior; every behavior has a
/// deterministic server-side verdict, so the battery's effect on
/// [`ServeTotals`] reconciles exactly
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

// ---------------------------------------------------------------------------
// Soak harness
// ---------------------------------------------------------------------------

/// SLO tiers of the serve soak: two healthy tiers, one deterministic
/// partial-sample tier and one always-shed tier, so every counter the
/// reconciliation checks is exercised on every run.
pub fn soak_classes(samples: usize) -> Vec<ClassPolicy> {
    vec![
        ClassPolicy {
            name: "interactive".to_string(),
            deadline: Some(Duration::from_secs(5)),
            sample_budget: None,
            max_inflight: usize::MAX,
        },
        ClassPolicy::unbounded("batch"),
        ClassPolicy {
            name: "degraded".to_string(),
            deadline: None,
            sample_budget: Some((samples / 2).max(1) as u64),
            max_inflight: usize::MAX,
        },
        ClassPolicy {
            name: "reject".to_string(),
            deadline: None,
            sample_budget: None,
            max_inflight: 0,
        },
    ]
}

/// Knobs of one serve soak campaign.
#[derive(Debug, Clone)]
pub struct ServeSoakConfig {
    /// Seed of the model, the inputs and the request mix.
    pub seed: u64,
    /// Monte-Carlo samples per request (T).
    pub samples: usize,
    /// Registry shards behind the server.
    pub shards: usize,
    /// Concurrent load-generator connections.
    pub connections: usize,
    /// Requests each connection offers.
    pub requests_per_connection: usize,
    /// Load-generator loop mode.
    pub mode: LoadMode,
    /// Wall-clock bound on the load phase (workers stop offering new
    /// requests past it).
    pub time_limit: Duration,
}

impl ServeSoakConfig {
    /// CI-speed campaign (a few seconds).
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            samples: 4,
            shards: 2,
            connections: 2,
            requests_per_connection: 30,
            mode: LoadMode::Closed,
            time_limit: Duration::from_secs(45),
        }
    }

    /// Acceptance-floor campaign (bounded under a minute).
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            samples: 6,
            shards: 2,
            connections: 4,
            requests_per_connection: 150,
            mode: LoadMode::Closed,
            time_limit: Duration::from_secs(50),
        }
    }

    fn loadgen(&self) -> LoadgenConfig {
        LoadgenConfig {
            seed: self.seed,
            mode: self.mode,
            connections: self.connections,
            requests_per_connection: self.requests_per_connection,
            classes: vec![
                "interactive".to_string(),
                "batch".to_string(),
                "degraded".to_string(),
            ],
            shed_class: Some("reject".to_string()),
            shed_every: 7,
            expiring_every: 11,
            malformed_every: 13,
            bit_check_every: 5,
            open_pipeline: 8,
            read_timeout: Duration::from_secs(20),
            time_limit: Some(self.time_limit),
        }
    }
}

/// Builds the registry a soak serves from, plus the bit-identical
/// reference engine the load generator checks against.
///
/// # Errors
///
/// [`WireError::Io`] when the artifact or registry cannot be built.
pub fn build_soak_registry(
    cfg: &ServeSoakConfig,
) -> Result<(Arc<ModelRegistry>, Engine), WireError> {
    let engine_cfg = EngineConfig {
        samples: cfg.samples.max(2),
        calibration_samples: 3,
        seed: cfg.seed,
        threads: 1,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    };
    let reference = Engine::new(engine_cfg);
    let artifact = ModelArtifact::from_engine(&reference, 1, "serve-soak");
    let registry = ModelRegistry::new(
        artifact,
        RegistryConfig {
            shards: cfg.shards.max(1),
            resilience: ResilienceConfig {
                deadline_class: "net".to_string(),
                ..ResilienceConfig::default()
            },
            jitter: Some(Arc::new(NoJitter)),
            ..RegistryConfig::default()
        },
    )
    .map_err(|e| WireError::Io(e.to_string()))?;
    Ok((Arc::new(registry), reference))
}

/// What one serve soak observed, on both sides of the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSoakReport {
    /// Campaign seed.
    pub seed: u64,
    /// Load-generator mode name.
    pub mode: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Monte-Carlo samples per request.
    pub samples: usize,
    /// Registry shards.
    pub shards: usize,
    /// Client-side observations.
    pub loadgen: LoadgenReport,
    /// Server-side accounting.
    pub server: ServeTotals,
    /// Registry requests over the campaign (delta of version counters).
    pub registry_requests: u64,
    /// Registry `ok` outcomes over the campaign.
    pub registry_ok: u64,
    /// Registry `failed` outcomes over the campaign.
    pub registry_failed: u64,
    /// Wall clock of the whole campaign in nanoseconds.
    pub elapsed_ns: u64,
}

impl ServeSoakReport {
    /// Exact three-way ledger: load generator ↔ server wire accounting ↔
    /// registry version counters. Any drift is a dropped or
    /// double-counted request.
    pub fn ledger(&self) -> Ledger {
        let registry = [
            self.registry_requests,
            self.registry_ok,
            self.registry_failed,
        ];
        let aborted = self.loadgen.aborted_workers;
        wire_ledger(&self.loadgen.totals, &self.server, 0, registry, aborted)
    }

    /// Checks [`ServeSoakReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger().check()
    }
}

/// The loadgen ↔ server ↔ registry rows both soaks reconcile; the
/// server also counts the `adversarial` wire errors a hostile-client
/// battery drew on top of the load generator's.
fn wire_ledger(
    lg: &LoadgenTotals,
    sv: &ServeTotals,
    adversarial: u64,
    [requests, ok, failed]: [u64; 3],
    aborted_workers: u64,
) -> Ledger {
    Ledger::from([
        (
            "offered vs server frames",
            lg.offered + adversarial,
            sv.frames_total(),
        ),
        ("ok", lg.ok, sv.frames_ok),
        ("failed", lg.failed, sv.frames_failed),
        ("shed", lg.shed, sv.frames_shed),
        (
            "wire errors",
            lg.wire_error_responses + adversarial,
            sv.frames_wire_error,
        ),
        ("unknown class", lg.unknown_class, sv.frames_unknown_class),
        ("expired", lg.expired, sv.expired),
        (
            "registry requests vs served frames",
            requests,
            sv.frames_ok + sv.frames_failed,
        ),
        ("registry ok", ok, sv.frames_ok),
        ("registry failed", failed, sv.frames_failed),
        ("aborted load-generator workers", aborted_workers, 0),
        ("transport errors", lg.transport_errors, 0),
        ("bit-identity spot checks mismatched", lg.bit_mismatched, 0),
    ])
}

fn sum_delta(
    before: &BTreeMap<u64, VersionCounters>,
    after: &BTreeMap<u64, VersionCounters>,
) -> (u64, u64, u64) {
    let mut requests = 0;
    let mut ok = 0;
    let mut failed = 0;
    for (version, counters) in after {
        let base = before.get(version).copied().unwrap_or_default();
        requests += counters.requests - base.requests;
        ok += counters.ok - base.ok;
        failed += counters.failed - base.failed;
    }
    (requests, ok, failed)
}

/// Runs a serve soak, recording into `telemetry` (installing it as the
/// global recorder for the duration unless it is already the sink).
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built.
pub fn run_serve_soak_into(
    cfg: &ServeSoakConfig,
    telemetry: &Arc<fbcnn_telemetry::Registry>,
) -> Result<ServeSoakReport, WireError> {
    let started = Instant::now();
    let recorder = Arc::clone(telemetry) as Arc<dyn fbcnn_telemetry::Recorder>;
    // `installed_sink_is` (not `is_installed`): the global slot may hold
    // a wrapper that aggregates into this registry; re-installing would
    // deadlock on the non-reentrant install lock.
    let _guard = if fbcnn_telemetry::installed_sink_is(telemetry) {
        None
    } else {
        Some(fbcnn_telemetry::install(recorder))
    };
    let (registry, reference) = build_soak_registry(cfg)?;
    let before = registry.version_counters();
    let server = serve(
        Arc::clone(&registry),
        ServeConfig {
            classes: soak_classes(cfg.samples.max(2)),
            ..ServeConfig::default()
        },
    )?;
    let loadgen = run_loadgen(server.addr(), &reference, &cfg.loadgen());
    let totals = server.shutdown();
    let after = registry.version_counters();
    let (registry_requests, registry_ok, registry_failed) = sum_delta(&before, &after);
    Ok(ServeSoakReport {
        seed: cfg.seed,
        mode: cfg.mode.name().to_string(),
        connections: cfg.connections,
        requests_per_connection: cfg.requests_per_connection,
        samples: cfg.samples,
        shards: cfg.shards,
        loadgen,
        server: totals,
        registry_requests,
        registry_ok,
        registry_failed,
        elapsed_ns: started.elapsed().as_nanos() as u64,
    })
}

/// Runs a serve soak into a fresh private telemetry registry, returning
/// both.
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built.
pub fn run_serve_soak_with_registry(
    cfg: &ServeSoakConfig,
) -> Result<(ServeSoakReport, Arc<fbcnn_telemetry::Registry>), WireError> {
    let telemetry = Arc::new(fbcnn_telemetry::Registry::new());
    let report = run_serve_soak_into(cfg, &telemetry)?;
    Ok((report, telemetry))
}

/// Runs a serve soak, discarding telemetry.
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built.
pub fn run_serve_soak(cfg: &ServeSoakConfig) -> Result<ServeSoakReport, WireError> {
    run_serve_soak_with_registry(cfg).map(|(report, _)| report)
}

// ---------------------------------------------------------------------------
// Supervision soak
// ---------------------------------------------------------------------------

/// Shard poisoned with per-sample panics in a supervision soak.
pub const SUPERVISE_PANIC_SHARD: usize = 0;
/// Shard poisoned with watchdog-tripping stalls in a supervision soak.
pub const SUPERVISE_HANG_SHARD: usize = 1;
/// Shard whose circuit breaker is jammed open in a supervision soak.
pub const SUPERVISE_JAM_SHARD: usize = 2;

/// Knobs of one supervision soak campaign: a supervised multi-shard
/// registry behind a live TCP server, three simultaneously injected
/// shard-poisoning fault classes (per-sample panics on
/// [`SUPERVISE_PANIC_SHARD`], watchdog-abandoned stalls on
/// [`SUPERVISE_HANG_SHARD`], a jammed breaker on
/// [`SUPERVISE_JAM_SHARD`]), an adversarial client battery, and seeded
/// load driven in bursts until every poisoned shard has walked the full
/// Suspect → Quarantined → Rebuilding → Healthy cycle.
#[derive(Debug, Clone)]
pub struct SuperviseSoakConfig {
    /// Seed of the model, the inputs and the request mix.
    pub seed: u64,
    /// Monte-Carlo samples per request (T).
    pub samples: usize,
    /// Registry shards; must exceed the three poisoned indices so at
    /// least one shard is never poisoned (the failover sink).
    pub shards: usize,
    /// Concurrent load-generator connections per burst.
    pub connections: usize,
    /// Requests each connection offers per burst.
    pub requests_per_burst: usize,
    /// Upper bound on bursts across all phases.
    pub max_bursts: usize,
    /// Adversarial battery driven while the poisons are still armed.
    pub adversarial: AdversarialConfig,
    /// Stall of the hang poison; must be well past `watchdog`.
    pub stall: Duration,
    /// Resilience watchdog timeout while the soak runs.
    pub watchdog: Duration,
    /// Wall-clock bound of the whole campaign; on exhaustion the soak
    /// stops bursting and the final reconciliation reports what is
    /// missing.
    pub time_limit: Duration,
}

impl SuperviseSoakConfig {
    /// CI-speed campaign (a few seconds).
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            samples: 4,
            shards: 4,
            connections: 2,
            requests_per_burst: 26,
            max_bursts: 60,
            adversarial: AdversarialConfig {
                slow_loris: 1,
                abrupt_close: 1,
                oversize: 1,
                churn: 1,
                dribble_delay: Duration::from_millis(2),
                read_timeout: Duration::from_secs(5),
            },
            stall: Duration::from_millis(60),
            watchdog: Duration::from_millis(30),
            time_limit: Duration::from_secs(45),
        }
    }

    /// Acceptance-floor campaign (bounded under two minutes).
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            samples: 6,
            shards: 4,
            connections: 4,
            requests_per_burst: 40,
            max_bursts: 120,
            adversarial: AdversarialConfig {
                slow_loris: 2,
                abrupt_close: 2,
                oversize: 2,
                churn: 3,
                dribble_delay: Duration::from_millis(3),
                read_timeout: Duration::from_secs(10),
            },
            stall: Duration::from_millis(60),
            watchdog: Duration::from_millis(30),
            time_limit: Duration::from_secs(120),
        }
    }

    /// The supervision thresholds the soak pins: windows wide enough to
    /// span a burst, at least four observations before a verdict binds
    /// (so the recurring pre-expired ids can never fill a window on
    /// their own), two strikes to quarantine, a three-probe re-admission
    /// gate.
    fn supervise(&self) -> crate::supervise::SuperviseConfig {
        crate::supervise::SuperviseConfig {
            window_ns: 700_000_000,
            min_observations: 4,
            failure_rate_threshold: 0.6,
            expiry_rate_threshold: 1.0,
            // Two abandonments per window: one spurious watchdog trip
            // (a legitimately slow attempt on a noisy scheduler) must
            // not strike a healthy shard; the hang poison abandons
            // every request it touches, so it clears two trivially.
            abandon_threshold: 2,
            breaker_open_dwell_ns: 150_000_000,
            suspect_strikes: 2,
            probe_requests: 3,
            probe_max_failures: 0,
            // Hold each quarantined shard out of the ring for a quarter
            // second so the closed-loop bursts actually exercise the
            // failover path before the rebuild probation begins.
            rebuild_backoff_ns: 250_000_000,
            ..crate::supervise::SuperviseConfig::default()
        }
    }

    fn burst_loadgen(&self, salt: u64, clean: bool) -> LoadgenConfig {
        LoadgenConfig {
            seed: self.seed.wrapping_add(salt),
            mode: LoadMode::Closed,
            connections: self.connections,
            requests_per_connection: self.requests_per_burst,
            classes: vec![
                "interactive".to_string(),
                "batch".to_string(),
                "degraded".to_string(),
            ],
            shed_class: (!clean).then(|| "reject".to_string()),
            shed_every: if clean { 0 } else { 7 },
            expiring_every: if clean { 0 } else { 11 },
            malformed_every: if clean { 0 } else { 13 },
            bit_check_every: if clean { 1 } else { 5 },
            open_pipeline: 8,
            read_timeout: Duration::from_secs(20),
            time_limit: None,
        }
    }
}

/// One supervision state transition, flattened for serialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitionRow {
    /// Shard that moved.
    pub shard: usize,
    /// State it left.
    pub from: String,
    /// State it entered.
    pub to: String,
}

/// What one supervision soak observed, on all three sides of the wire:
/// the load generator, the server's wire accounting, and the
/// supervisor's per-shard ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuperviseSoakReport {
    /// Campaign seed.
    pub seed: u64,
    /// Registry shards.
    pub shards: usize,
    /// Concurrent connections per burst.
    pub connections: usize,
    /// Bursts driven across all phases.
    pub bursts: u64,
    /// The poisoned shard indices, in panic/hang/jam order.
    pub poisoned: Vec<usize>,
    /// Client-side accounting, merged across every burst.
    pub loadgen: LoadgenTotals,
    /// Load-generator connections opened (connections × bursts).
    pub loadgen_connections: u64,
    /// Load-generator workers that died before finishing (must be 0).
    pub aborted_workers: u64,
    /// Client-measured latencies in nanoseconds, merged across bursts.
    pub latencies_ns: BTreeMap<String, Vec<u64>>,
    /// What the adversarial battery observed.
    pub adversarial: AdversarialReport,
    /// Wire rejects the battery must have read back (slow-loris and
    /// oversize clients; abrupt-close clients cannot receive one).
    pub adversarial_expected_rejects: u64,
    /// Server-side wire accounting.
    pub server: ServeTotals,
    /// Registry requests over the campaign (delta of version counters).
    pub registry_requests: u64,
    /// Registry `ok` outcomes over the campaign.
    pub registry_ok: u64,
    /// Registry `failed` outcomes over the campaign.
    pub registry_failed: u64,
    /// Final health per shard, by name.
    pub health: Vec<String>,
    /// Final cumulative supervision ledger per shard.
    pub ledger: Vec<crate::supervise::ShardLedger>,
    /// Every supervision transition, in order.
    pub transitions: Vec<TransitionRow>,
    /// Whether each poisoned shard (in `poisoned` order) completed the
    /// full Suspect → Quarantined → Rebuilding → Healthy walk.
    pub full_walks: Vec<bool>,
    /// Shard rebuilds attempted.
    pub rebuild_attempts: u64,
    /// Rebuilds whose probe gate re-admitted the shard.
    pub rebuild_successes: u64,
    /// Rebuilds whose probe gate sent the shard back to quarantine.
    pub rebuild_probe_rejects: u64,
    /// Wall clock until every poisoned shard had been quarantined.
    pub quarantine_elapsed_ns: u64,
    /// Wall clock of the whole campaign in nanoseconds.
    pub elapsed_ns: u64,
}

impl SuperviseSoakReport {
    /// Exact three-way ledger of the supervision soak: load generator ↔
    /// server wire accounting ↔ registry version counters ↔ per-shard
    /// supervision ledger, plus the self-healing walk itself — every
    /// poisoned shard quarantined, rebuilt and re-admitted, zero lost
    /// requests, and the healthy-shard responses bit-identical to the
    /// pristine reference engine.
    pub fn ledger(&self) -> Ledger {
        let (lg, sv, adv) = (&self.loadgen, &self.server, &self.adversarial);
        let registry = [
            self.registry_requests,
            self.registry_ok,
            self.registry_failed,
        ];
        let mut ledger = wire_ledger(
            lg,
            sv,
            adv.expected_wire_errors,
            registry,
            self.aborted_workers,
        );
        let fold = |f: fn(&crate::supervise::ShardLedger) -> u64| -> u64 {
            self.ledger.iter().map(f).sum()
        };
        let shard = |i: usize| self.ledger.get(i).copied().unwrap_or_default();
        let poisoned = self.poisoned.len() as u64;
        let walked = self
            .full_walks
            .iter()
            .take(self.poisoned.len())
            .filter(|&&w| w)
            .count();
        let quarantined = self
            .poisoned
            .iter()
            .filter(|&&s| shard(s).quarantines > 0)
            .count();
        let healthy = self
            .health
            .iter()
            .filter(|h| h.as_str() == "healthy")
            .count();
        ledger.extend([
            (
                "supervision ledger served vs registry requests",
                fold(|s| s.served),
                self.registry_requests,
            ),
            (
                "supervision ledger ok vs registry ok",
                fold(|s| s.ok),
                self.registry_ok,
            ),
            (
                "supervision ledger failed vs registry failed",
                fold(|s| s.failed),
                self.registry_failed,
            ),
            (
                "supervision ledger expired vs server expired",
                fold(|s| s.expired),
                sv.expired,
            ),
            (
                "failover folds",
                fold(|s| s.failovers_out),
                fold(|s| s.failovers_in),
            ),
            (
                "connections",
                self.loadgen_connections + adv.connections,
                sv.connections,
            ),
            (
                "adversarial rejects read back",
                adv.rejects_received,
                self.adversarial_expected_rejects,
            ),
            ("connections rejected", sv.connections_rejected, 0),
            ("adversarial transport errors", adv.transport_errors, 0),
            (
                "bit-identity spot checks ran",
                u64::from(lg.bit_checked > 0),
                1,
            ),
            ("poisoned shards quarantined", quarantined as u64, poisoned),
            (
                "poisoned shards that completed the healing walk",
                walked as u64,
                poisoned,
            ),
            (
                "healthy shards at campaign end",
                healthy as u64,
                self.health.len() as u64,
            ),
            (
                "requests failed over",
                u64::from(fold(|s| s.failovers_out) > 0),
                1,
            ),
            (
                "the hang poison produced a watchdog abandonment",
                u64::from(shard(SUPERVISE_HANG_SHARD).abandoned > 0),
                1,
            ),
            (
                "the panic poison produced a typed failure",
                u64::from(shard(SUPERVISE_PANIC_SHARD).failed > 0),
                1,
            ),
            (
                "a rebuild attempted per poisoned shard",
                u64::from(self.rebuild_attempts >= poisoned),
                1,
            ),
            (
                "rebuilds attempted vs re-admitted + rejected",
                self.rebuild_attempts,
                self.rebuild_successes + self.rebuild_probe_rejects,
            ),
        ]);
        ledger
    }

    /// Checks [`SuperviseSoakReport::ledger`].
    ///
    /// # Errors
    ///
    /// Names the first drifted row.
    pub fn reconcile(&self) -> Result<(), String> {
        self.ledger().check()
    }
}

/// Campaign-wide loadgen accumulators of the supervision soak, merged
/// across every burst.
#[derive(Default)]
struct BurstTotals {
    totals: LoadgenTotals,
    latencies: BTreeMap<String, Vec<u64>>,
    aborted: u64,
    connections: u64,
}

/// One load burst of the supervision soak, merged into the campaign
/// accumulators.
fn supervise_burst(
    addr: SocketAddr,
    reference: &Engine,
    cfg: &SuperviseSoakConfig,
    salt: u64,
    clean: bool,
    acc: &mut BurstTotals,
) {
    let report = run_loadgen(addr, reference, &cfg.burst_loadgen(salt, clean));
    acc.totals.merge(&report.totals);
    for (class, lat) in &report.latencies_ns {
        acc.latencies.entry(class.clone()).or_default().extend(lat);
    }
    acc.aborted += report.aborted_workers;
    acc.connections += cfg.connections as u64;
}

/// Runs a supervision soak, recording into `telemetry` (installing it
/// as the global recorder for the duration unless it is already the
/// sink).
///
/// The campaign has three phases: (1) poisoned — panics, stalls and a
/// jammed breaker active on three distinct shards, bursts driven until
/// the supervisor has quarantined all three, with the adversarial
/// battery fired while the poisons are still armed; (2) healing —
/// poisons disarmed, bursts driven until every poisoned shard has been
/// rebuilt and re-admitted through its probe gate and the whole ring is
/// Healthy; (3) verification — one clean burst with every response
/// bit-checked against the pristine reference engine.
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built (a
/// *failed* campaign instead surfaces through
/// [`SuperviseSoakReport::reconcile`]).
pub fn run_supervise_soak_into(
    cfg: &SuperviseSoakConfig,
    telemetry: &Arc<fbcnn_telemetry::Registry>,
) -> Result<SuperviseSoakReport, WireError> {
    let started = Instant::now();
    let poisoned = [
        SUPERVISE_PANIC_SHARD,
        SUPERVISE_HANG_SHARD,
        SUPERVISE_JAM_SHARD,
    ];
    let max_poisoned = poisoned.iter().max().copied().unwrap_or(0);
    if cfg.shards <= max_poisoned + 1 {
        return Err(WireError::Io(format!(
            "supervise soak needs at least {} shards (got {})",
            max_poisoned + 2,
            cfg.shards
        )));
    }
    let recorder = Arc::clone(telemetry) as Arc<dyn fbcnn_telemetry::Recorder>;
    let _guard = if fbcnn_telemetry::installed_sink_is(telemetry) {
        None
    } else {
        Some(fbcnn_telemetry::install(recorder))
    };
    let _silencer = crate::chaos::SilencedChaosPanics::install();

    let routing_seed = cfg.seed;
    let gate = crate::supervise::SupervisorGate::default();
    let panic_armed = Arc::new(AtomicBool::new(true));
    let hang_armed = Arc::new(AtomicBool::new(true));
    let panic_hook = crate::faults::FaultInjector::shard_panic_hook(
        routing_seed,
        cfg.shards,
        SUPERVISE_PANIC_SHARD,
        Arc::clone(&panic_armed),
        Arc::clone(&gate),
    );
    let hang_hook = crate::faults::FaultInjector::shard_hang_hook(
        routing_seed,
        cfg.shards,
        SUPERVISE_HANG_SHARD,
        Arc::clone(&hang_armed),
        Arc::clone(&gate),
        cfg.stall,
    );
    let hook: crate::resilience::RequestSampleHook = Arc::new(move |id, attempt, sample| {
        panic_hook(id, attempt, sample);
        hang_hook(id, attempt, sample);
    });

    let engine_cfg = EngineConfig {
        samples: cfg.samples.max(2),
        calibration_samples: 3,
        seed: cfg.seed,
        threads: 1,
        ..EngineConfig::for_model(ModelKind::LeNet5)
    };
    let registry_cfg = RegistryConfig {
        shards: cfg.shards,
        routing_seed,
        resilience: ResilienceConfig {
            deadline_class: "net".to_string(),
            watchdog_timeout: Some(cfg.watchdog),
            max_requeues: 1,
            ..ResilienceConfig::default()
        },
        sample_hook: Some(hook),
        jitter: Some(Arc::new(NoJitter)),
        supervise: Some(cfg.supervise()),
        ..RegistryConfig::default()
    };
    let (registry, reference) =
        crate::chaos::boot_registry_via_disk(engine_cfg, 1, "supervise_soak", registry_cfg)
            .map_err(|e| WireError::Io(e.to_string()))?;
    *crate::supervise::lock_gate(&gate) = registry.supervisor().cloned();
    let sup = registry
        .supervisor()
        .cloned()
        .ok_or_else(|| WireError::Io("supervision missing from the registry".to_string()))?;
    registry.jam_shard_breaker(SUPERVISE_JAM_SHARD);
    let supervisor_thread = registry.spawn_supervisor(Duration::from_millis(5));
    let before = registry.version_counters();
    let server = serve(
        Arc::clone(&registry),
        ServeConfig {
            classes: soak_classes(cfg.samples.max(2)),
            read_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    )?;

    let mut acc = BurstTotals::default();
    let mut bursts = 0u64;

    // Phase 1: poisoned. Burst until the supervisor has quarantined all
    // three poisoned shards at least once (their rebuilds start
    // immediately, so current health is checked via the transition
    // ledger, not the live state).
    loop {
        supervise_burst(server.addr(), &reference, cfg, bursts, false, &mut acc);
        bursts += 1;
        let snap = sup.snapshot();
        let all_quarantined = poisoned.iter().all(|&s| {
            snap.transitions
                .iter()
                .any(|t| t.shard == s && t.to == crate::supervise::ShardHealth::Quarantined)
        });
        if all_quarantined {
            break;
        }
        if bursts as usize >= cfg.max_bursts || started.elapsed() >= cfg.time_limit {
            break;
        }
    }
    let quarantine_elapsed_ns = started.elapsed().as_nanos() as u64;

    // The adversarial battery fires while the shard poisons are still
    // armed — hostile transports and sick shards at the same time.
    let adversarial = run_adversarial(server.addr(), &cfg.adversarial);

    // Phase 2: healing. Disarm the poisons (the jammed breaker is cured
    // by the rebuild itself, which installs a fresh breaker) and burst
    // until every poisoned shard has walked the full cycle and the whole
    // ring is Healthy again — with every breaker closed, so a lingering
    // open breaker cannot dwell-strike a healed shard back to Suspect
    // during the verification burst.
    panic_armed.store(false, Ordering::Relaxed);
    hang_armed.store(false, Ordering::Relaxed);
    // Let the supervisor's tick thread flush every window that still
    // carries armed-era observations (and any breaker dwell) before
    // judging the heal: a stale bad window closing mid-verification
    // would otherwise strike a healed shard after the last chance to
    // recover.
    std::thread::sleep(
        Duration::from_nanos(cfg.supervise().window_ns) + Duration::from_millis(100),
    );
    loop {
        supervise_burst(server.addr(), &reference, cfg, bursts, false, &mut acc);
        bursts += 1;
        let snap = sup.snapshot();
        let healed = poisoned.iter().all(|&s| snap.full_walk(s))
            && snap
                .health
                .iter()
                .all(|h| *h == crate::supervise::ShardHealth::Healthy)
            && (0..cfg.shards).all(|s| !registry.shard_breaker_open(s));
        if healed {
            break;
        }
        if bursts as usize >= cfg.max_bursts || started.elapsed() >= cfg.time_limit {
            break;
        }
    }

    // Phase 3: verification. One clean burst against the healed ring,
    // every response bit-checked against the pristine reference. The
    // tick thread keeps running — with every breaker closed and only
    // clean traffic flowing, it has nothing left to strike.
    supervise_burst(server.addr(), &reference, cfg, bursts, true, &mut acc);
    bursts += 1;

    drop(supervisor_thread); // stop ticking before the final snapshot
    let server_totals = server.shutdown();
    let after = registry.version_counters();
    let (registry_requests, registry_ok, registry_failed) = sum_delta(&before, &after);
    let snap = sup.snapshot();
    Ok(SuperviseSoakReport {
        seed: cfg.seed,
        shards: cfg.shards,
        connections: cfg.connections,
        bursts,
        poisoned: poisoned.to_vec(),
        loadgen: acc.totals,
        loadgen_connections: acc.connections,
        aborted_workers: acc.aborted,
        latencies_ns: acc.latencies,
        adversarial,
        adversarial_expected_rejects: (cfg.adversarial.slow_loris + cfg.adversarial.oversize)
            as u64,
        server: server_totals,
        registry_requests,
        registry_ok,
        registry_failed,
        health: snap.health.iter().map(|h| h.name().to_string()).collect(),
        ledger: snap.shards.clone(),
        transitions: snap
            .transitions
            .iter()
            .map(|t| TransitionRow {
                shard: t.shard,
                from: t.from.name().to_string(),
                to: t.to.name().to_string(),
            })
            .collect(),
        full_walks: poisoned.iter().map(|&s| snap.full_walk(s)).collect(),
        rebuild_attempts: snap.rebuild_attempts,
        rebuild_successes: snap.rebuild_successes,
        rebuild_probe_rejects: snap.rebuild_probe_rejects,
        quarantine_elapsed_ns,
        elapsed_ns: started.elapsed().as_nanos() as u64,
    })
}

/// Runs a supervision soak into a fresh private telemetry registry,
/// returning both.
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built.
pub fn run_supervise_soak_with_registry(
    cfg: &SuperviseSoakConfig,
) -> Result<(SuperviseSoakReport, Arc<fbcnn_telemetry::Registry>), WireError> {
    let telemetry = Arc::new(fbcnn_telemetry::Registry::new());
    let report = run_supervise_soak_into(cfg, &telemetry)?;
    Ok((report, telemetry))
}

/// Runs a supervision soak, discarding telemetry.
///
/// # Errors
///
/// [`WireError`] when the registry or the server cannot be built.
pub fn run_supervise_soak(cfg: &SuperviseSoakConfig) -> Result<SuperviseSoakReport, WireError> {
    run_supervise_soak_with_registry(cfg).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_is_byte_lossless() {
        let payload = b"hello frames";
        let frame = encode_frame(payload, 64).unwrap();
        let mut dec = FrameDecoder::new(64);
        dec.push(&frame);
        assert_eq!(dec.next_frame().unwrap().unwrap(), payload);
        assert!(dec.is_empty());
        dec.finish().unwrap();
    }

    #[test]
    fn split_and_coalesced_reads_reassemble() {
        let a = encode_frame(b"first", 64).unwrap();
        let b = encode_frame(b"second", 64).unwrap();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        // Feed one byte at a time.
        let mut dec = FrameDecoder::new(64);
        let mut out = Vec::new();
        for byte in &joined {
            dec.push(std::slice::from_ref(byte));
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, vec![b"first".to_vec(), b"second".to_vec()]);
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_and_oversize_are_typed() {
        let frame = encode_frame(b"truncate me", 64).unwrap();
        let mut dec = FrameDecoder::new(64);
        dec.push(&frame[..frame.len() - 3]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(matches!(dec.finish(), Err(WireError::Truncated { .. })));

        let mut dec = FrameDecoder::new(8);
        dec.push(&encode_frame(b"tiny", 64).unwrap()[..4]);
        assert_eq!(dec.next_frame().unwrap(), None); // only the prefix: 4 <= 8
        let mut dec = FrameDecoder::new(2);
        dec.push(&encode_frame(b"tiny", 64).unwrap());
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::Oversized { len: 4, max: 2 })
        ));
        assert!(encode_frame(b"tiny", 2).is_err());
    }

    #[test]
    fn envelope_kind_and_version_are_checked() {
        let frame = seal_frame(REQUEST_KIND, "{\"x\":1}", 1024).unwrap();
        let payload = open_frame(&frame[LEN_PREFIX_BYTES..], REQUEST_KIND).unwrap();
        assert_eq!(payload, "{\"x\":1}");
        assert!(matches!(
            open_frame(&frame[LEN_PREFIX_BYTES..], RESPONSE_KIND),
            Err(WireError::ForeignKind { .. })
        ));
        let stale = format!("{{\"artifact\":\"{REQUEST_KIND}\",\"version\":99,\"payload\":{{}}}}");
        assert!(matches!(
            open_frame(stale.as_bytes(), REQUEST_KIND),
            Err(WireError::StaleVersion { found: 99, .. })
        ));
        assert!(matches!(
            open_frame(&[0xFF, 0xFE], REQUEST_KIND),
            Err(WireError::Envelope(_))
        ));
    }

    #[test]
    fn request_message_roundtrip_and_validation() {
        let input = synth_input(Shape::new(1, 8, 8), 3);
        let mut req = ServeRequest::from_input(42, "interactive", &input);
        req.deadline_ms = Some(125);
        let frame = req.encode(DEFAULT_MAX_FRAME_BYTES).unwrap();
        let back = ServeRequest::decode(&frame[LEN_PREFIX_BYTES..]).unwrap();
        assert_eq!(back, req);
        assert_eq!(
            back.input().unwrap().iter().collect::<Vec<_>>(),
            input.iter().collect::<Vec<_>>()
        );

        let mut bad = req.clone();
        bad.width = 0;
        assert!(matches!(bad.input(), Err(WireError::Payload(_))));
        let mut bad = req.clone();
        bad.data_bits.pop();
        assert!(matches!(bad.input(), Err(WireError::Payload(_))));
        let mut bad = req;
        bad.height = usize::MAX;
        bad.width = usize::MAX;
        assert!(matches!(bad.input(), Err(WireError::Payload(_))));
    }

    #[test]
    fn deadline_pricing_takes_the_tighter_bound() {
        let policy = Some(Duration::from_millis(100));
        assert_eq!(
            effective_deadline(policy, Some(40)),
            Some(Duration::from_millis(40))
        );
        assert_eq!(
            effective_deadline(policy, Some(400)),
            Some(Duration::from_millis(100))
        );
        assert_eq!(effective_deadline(policy, None), policy);
        assert_eq!(
            effective_deadline(None, Some(7)),
            Some(Duration::from_millis(7))
        );
        assert_eq!(effective_deadline(None, None), None);
    }

    #[test]
    fn adversarial_battery_reconciles_exactly() {
        let (registry, _reference) = build_soak_registry(&ServeSoakConfig::quick(3)).unwrap();
        let server = serve(
            Arc::clone(&registry),
            ServeConfig {
                read_timeout: Duration::from_millis(150),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let adv = AdversarialConfig::default();
        let report = run_adversarial(server.addr(), &adv);
        let totals = server.shutdown();
        assert_eq!(report.transport_errors, 0, "adversaries lost connections");
        assert_eq!(totals.connections, report.connections);
        assert_eq!(totals.frames_wire_error, report.expected_wire_errors);
        // The battery offers nothing else: every counted frame is one of
        // its provoked wire errors.
        assert_eq!(totals.frames_total(), report.expected_wire_errors);
        // Slow-loris and oversize clients keep reading, so their typed
        // verdicts must actually arrive; abrupt-close clients cannot.
        assert_eq!(
            report.rejects_received,
            (adv.slow_loris + adv.oversize) as u64,
            "typed verdicts were not delivered"
        );
        assert_eq!(totals.frames_ok, 0);
        assert_eq!(totals.write_deadline_drops, 0);
    }

    #[test]
    fn supervise_soak_quick_heals_and_reconciles() {
        let cfg = SuperviseSoakConfig::quick(11);
        let (report, telemetry) = run_supervise_soak_with_registry(&cfg).unwrap();
        report.reconcile().unwrap_or_else(|e| panic!("{e}"));
        assert!(report.bursts >= 3, "all three phases must burst");
        assert!(
            report.ledger[SUPERVISE_JAM_SHARD].quarantines >= 1,
            "breaker dwell never quarantined the jammed shard"
        );
        // The supervision counters made it into the installed sink.
        assert_eq!(
            telemetry.counter_total(crate::supervise::REBUILD_ATTEMPTS_METRIC),
            report.rebuild_attempts
        );
        assert_eq!(
            telemetry.counter_total(crate::supervise::REBUILD_SUCCESSES_METRIC),
            report.rebuild_successes
        );
        assert!(
            telemetry.counter_total(crate::supervise::SHARD_HEALTH_TRANSITIONS_METRIC)
                >= report.transitions.len() as u64,
            "health transitions missing from telemetry"
        );
        let failovers: u64 = report.ledger.iter().map(|s| s.failovers_out).sum();
        assert_eq!(
            telemetry.counter_total(crate::supervise::FAILOVER_REQUESTS_METRIC),
            failovers
        );
    }

    #[test]
    fn quick_soak_reconciles_exactly() {
        let cfg = ServeSoakConfig::quick(11);
        let (report, telemetry) = run_serve_soak_with_registry(&cfg).unwrap();
        report.reconcile().unwrap_or_else(|e| panic!("{e}"));
        let lg = &report.loadgen.totals;
        assert!(lg.ok > 0, "no ok responses");
        assert!(lg.shed > 0, "shed tier never exercised");
        assert!(lg.expired > 0, "expiry tier never exercised");
        assert!(
            lg.wire_error_responses > 0,
            "malformed frames never exercised"
        );
        assert!(lg.bit_checked > 0, "no bit-identity spot checks ran");
        assert_eq!(lg.bit_mismatched, 0);
        // Wire counters made it into telemetry.
        assert!(telemetry.counter_total(NET_FRAMES_METRIC) >= lg.offered);
        assert!(telemetry.counter_total(NET_CONNECTIONS_METRIC) >= cfg.connections as u64);
    }
}
