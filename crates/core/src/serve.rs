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
//! The load generator, the adversarial client battery and the serve and
//! supervision soaks that drive this server live in the bench crate's
//! `fbcnn_bench::harness` tree. Floating-point tensors cross the wire as IEEE-754 bit patterns
//! (`u32`), keeping responses byte-exact for golden fixtures and
//! bit-identity spot checks against
//! [`crate::Engine::predict_robust_seeded`].

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use fbcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

use crate::io::{self, IoError, FORMAT_VERSION};
use crate::{error_reason_name, BatchRequest, ModelRegistry, RegistryOutcome, RequestClass};

/// Envelope kind of a request frame.
pub const REQUEST_KIND: &str = "serve-request";
/// Envelope kind of a response frame.
pub const RESPONSE_KIND: &str = "serve-response";
/// Bytes of the big-endian length prefix in front of every frame.
pub const LEN_PREFIX_BYTES: usize = 4;
/// Per-frame payload ceiling (1 MiB) the server enforces on every
/// connection.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;
/// Accept-loop poll interval (the listener is non-blocking so shutdown
/// stays responsive).
const ACCEPT_POLL: Duration = Duration::from_millis(2);
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
    encode_frame(io::seal_envelope(kind, payload_json).as_bytes(), max)
}

/// Opens a frame payload as an envelope of `kind`, returning the inner
/// payload JSON borrowed from `frame`.
///
/// # Errors
///
/// Typed [`WireError`] for non-UTF-8 bytes, malformed envelopes, stale
/// versions and foreign kinds.
pub fn open_frame<'a>(frame: &'a [u8], kind: &str) -> Result<&'a str, WireError> {
    let text = std::str::from_utf8(frame)
        .map_err(|e| WireError::Envelope(format!("frame is not UTF-8: {e}")))?;
    Ok(io::open_envelope(text, kind, FORMAT_VERSION)?)
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
        serde_json::from_str(payload).map_err(|e| WireError::Payload(e.to_string()))
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
        serde_json::from_str(payload).map_err(|e| WireError::Payload(e.to_string()))
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            classes: default_classes(),
            max_connections: 256,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(10),
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
/// The accept loop is non-blocking (polling every 2 ms) so
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
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
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
    let bytes = response.encode(DEFAULT_MAX_FRAME_BYTES)?;
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
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth_input;

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
}
