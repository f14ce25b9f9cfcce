//! The versioned envelope shared by every file and wire format of the
//! serving stack: model artifacts ([`crate::ModelArtifact`]), flight
//! logs, JSONL telemetry traces and the TCP wire frames of
//! [`crate::serve`].
//!
//! Everything serializes as JSON via serde — human-inspectable and
//! version-control friendly. The offline stage (training, Algorithm 1)
//! can therefore run once and be reused across experiment sweeps.
//!
//! Each payload is wrapped in a small envelope,
//! `{"artifact":"<kind>","version":N,"payload":…}`, so that loading a
//! stale or mislabeled artifact fails with a typed [`IoError`] instead of
//! a confusing payload parse error — or worse, a silently wrong
//! deserialization driving a calibrated engine with foreign thresholds.
//!
//! # Examples
//!
//! ```no_run
//! use fast_bcnn::{models::ModelKind, Engine, EngineConfig, ModelArtifact};
//!
//! let engine = Engine::new(EngineConfig::for_model(ModelKind::LeNet5));
//! let artifact = ModelArtifact::from_engine(&engine, 1, "lenet");
//! artifact.save("lenet.json")?;
//! let back = ModelArtifact::load("lenet.json")?;
//! assert_eq!(artifact, back);
//! # Ok::<(), fast_bcnn::ArtifactError>(())
//! ```

use serde::{de::DeserializeOwned, Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// The envelope format version written by this build. Bump on any
/// breaking payload change; loaders refuse other versions.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from saving or loading artifacts.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed or incompatible payload JSON.
    Serde(serde_json::Error),
    /// The file is not a recognizable artifact envelope (truncated,
    /// corrupted, or predates the envelope format).
    Envelope(String),
    /// The envelope's format version is not this build's
    /// [`FORMAT_VERSION`].
    Version {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The file holds a different artifact kind than requested (e.g. a
    /// flight log passed to [`crate::ModelArtifact::load`]).
    Kind {
        /// Kind recorded in the file.
        found: String,
        /// Kind the caller asked for.
        expected: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o failure: {e}"),
            IoError::Serde(e) => write!(f, "serialization failure: {e}"),
            IoError::Envelope(msg) => write!(f, "malformed artifact envelope: {msg}"),
            IoError::Version { found, expected } => {
                write!(f, "artifact format version {found}, expected {expected}")
            }
            IoError::Kind { found, expected } => {
                write!(f, "artifact holds a {found}, expected a {expected}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Serde(e)
    }
}

/// Artifact kind of a versioned model artifact
/// ([`crate::ModelArtifact`]): network, thresholds, indicators and
/// engine configuration in one envelope.
pub const MODEL_KIND: &str = "model";

/// Wraps `payload_json` in an envelope of `kind` at [`FORMAT_VERSION`] —
/// the one writer behind model files, flight logs and wire frames.
pub(crate) fn seal_envelope(kind: &str, payload_json: &str) -> String {
    format!("{{\"artifact\":\"{kind}\",\"version\":{FORMAT_VERSION},\"payload\":{payload_json}}}")
}

/// Opens an envelope that must hold `kind` at `version`, returning the
/// payload JSON — the one kind/version check behind every loader.
///
/// The parser is deliberately strict — it accepts exactly what
/// [`seal_envelope`] writes — so any corruption of the header bytes
/// lands here as [`IoError::Envelope`] rather than deep inside the
/// payload parse.
pub(crate) fn open_envelope<'a>(
    json: &'a str,
    kind: &str,
    version: u32,
) -> Result<&'a str, IoError> {
    let envelope = |msg: &str| IoError::Envelope(msg.into());
    let body = json
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| envelope("not a JSON object"))?;
    let rest = body
        .strip_prefix("\"artifact\":\"")
        .ok_or_else(|| envelope("missing artifact field"))?;
    let (found_kind, rest) = rest
        .split_once('"')
        .ok_or_else(|| envelope("unterminated artifact kind"))?;
    let rest = rest
        .strip_prefix(",\"version\":")
        .ok_or_else(|| envelope("missing version field"))?;
    let (found_version, payload) = rest
        .split_once(",\"payload\":")
        .ok_or_else(|| envelope("missing payload field"))?;
    let found_version: u32 = found_version
        .parse()
        .map_err(|_| envelope("version is not an integer"))?;
    if found_kind != kind {
        return Err(IoError::Kind {
            found: found_kind.to_string(),
            expected: kind.to_string(),
        });
    }
    if found_version != version {
        return Err(IoError::Version {
            found: found_version,
            expected: version,
        });
    }
    Ok(payload)
}

pub(crate) fn save<T: Serialize>(
    path: impl AsRef<Path>,
    kind: &str,
    value: &T,
) -> Result<(), IoError> {
    let payload = serde_json::to_string(value)?;
    std::fs::write(path, seal_envelope(kind, &payload))?;
    Ok(())
}

pub(crate) fn load<T: DeserializeOwned>(path: impl AsRef<Path>, kind: &str) -> Result<T, IoError> {
    let json = std::fs::read_to_string(path)?;
    let payload = open_envelope(&json, kind, FORMAT_VERSION)?;
    Ok(serde_json::from_str(payload)?)
}

/// Artifact kind of a flight-recorder postmortem dump
/// ([`crate::FlightLog`]).
pub const FLIGHT_LOG_KIND: &str = "flight-log";

/// Saves a flight-recorder log (postmortem dump) in the versioned
/// artifact envelope.
///
/// # Errors
///
/// Returns [`IoError`] on filesystem or serialization failure.
pub fn save_flight_log(path: impl AsRef<Path>, log: &crate::FlightLog) -> Result<(), IoError> {
    save(path, FLIGHT_LOG_KIND, log)
}

/// Loads a flight log saved by [`save_flight_log`] (or auto-emitted by
/// the SLO monitor / canary rollback path).
///
/// # Errors
///
/// [`IoError::Io`] on filesystem failure, the envelope errors
/// ([`IoError::Envelope`] / [`IoError::Version`] / [`IoError::Kind`]) on
/// a corrupted, stale or mislabeled file, and [`IoError::Serde`] on a
/// payload that is not a flight log.
pub fn read_flight_log(path: impl AsRef<Path>) -> Result<crate::FlightLog, IoError> {
    load(path, FLIGHT_LOG_KIND)
}

/// One decoded line of a JSONL telemetry trace
/// ([`fbcnn_telemetry::Registry::to_jsonl`]). Every line carries the full
/// field set; fields irrelevant to the event's `kind` are zero/empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event kind: `"span"`, `"counter"` or `"histogram"`.
    pub kind: String,
    /// Span or metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Span id (`0` for metric events).
    pub id: u64,
    /// Enclosing span id (`0` = root).
    pub parent: u64,
    /// Recording thread id (`0` for metric events; never `0` for
    /// spans). Span nesting and ordering invariants hold per thread.
    pub thread: u64,
    /// Span start in nanoseconds since the registry's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Counter value / histogram sum of observations.
    pub value: f64,
    /// Counter value / histogram observation count.
    pub count: u64,
    /// Histogram `(upper_bound, cumulative_count)` pairs.
    pub buckets: Vec<(f64, u64)>,
}

/// Parses a JSONL telemetry trace: one [`TraceEvent`] envelope per line
/// (blank lines are skipped). Each line reuses the artifact envelope, so
/// corruption, stale versions and mislabeled files all fail typed.
///
/// # Errors
///
/// [`IoError::Envelope`] on a malformed line, [`IoError::Kind`] /
/// [`IoError::Version`] on a foreign or stale artifact, and
/// [`IoError::Serde`] on a payload that is not a trace event.
pub fn read_trace_str(text: &str) -> Result<Vec<TraceEvent>, IoError> {
    let mut events = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let payload = open_envelope(
            line,
            fbcnn_telemetry::TRACE_ARTIFACT,
            fbcnn_telemetry::TRACE_FORMAT_VERSION,
        )?;
        events.push(serde_json::from_str(payload)?);
    }
    Ok(events)
}

/// Reads and parses a JSONL telemetry trace file written via
/// `--trace-out` (see [`read_trace_str`]).
///
/// # Errors
///
/// [`IoError::Io`] on filesystem failure, plus everything
/// [`read_trace_str`] reports.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>, IoError> {
    read_trace_str(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, FlightRecorder, ModelArtifact};
    use fbcnn_nn::models::ModelKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fbcnn_io_{name}_{}.json", std::process::id()))
    }

    /// Saves a small LeNet-5 model artifact at a fresh temp path and
    /// returns the path with the file's text.
    fn saved_model(name: &str) -> (std::path::PathBuf, String) {
        let engine = Engine::new(EngineConfig {
            samples: 3,
            calibration_samples: 2,
            ..EngineConfig::for_model(ModelKind::LeNet5)
        });
        let path = tmp(name);
        ModelArtifact::from_engine(&engine, 1, "io")
            .save(&path)
            .unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        (path, full)
    }

    fn load_model(path: impl AsRef<Path>) -> Result<ModelArtifact, IoError> {
        load(path, MODEL_KIND)
    }

    #[test]
    fn load_rejects_garbage_and_missing_files() {
        let p = tmp("garbage");
        std::fs::write(&p, "{not json").unwrap();
        assert!(matches!(load_model(&p), Err(IoError::Envelope(_))));
        let _ = std::fs::remove_file(p);
        assert!(matches!(
            load_model("/nonexistent/path.json"),
            Err(IoError::Io(_))
        ));
    }

    #[test]
    fn load_rejects_truncated_artifacts() {
        let (path, full) = saved_model("truncated");
        assert!(load_model(&path).is_ok());
        // Cut mid-payload: the envelope header survives, the payload does
        // not — the failure must be a typed Serde/Envelope error.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            load_model(&path),
            Err(IoError::Envelope(_) | IoError::Serde(_))
        ));
        // Cut mid-header.
        std::fs::write(&path, &full[..20]).unwrap();
        assert!(matches!(load_model(&path), Err(IoError::Envelope(_))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_corrupted_payload_bytes() {
        let (path, full) = saved_model("corrupt");
        let corrupted = full.replacen("[", "[!!", 1);
        std::fs::write(&path, corrupted).unwrap();
        assert!(matches!(load_model(&path), Err(IoError::Serde(_))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_version_and_kind_mismatches() {
        let (path, full) = saved_model("versioned");

        // A future format version must be refused, not misparsed.
        let stale = full.replacen("\"version\":1", "\"version\":99", 1);
        std::fs::write(&path, stale).unwrap();
        match load_model(&path) {
            Err(IoError::Version { found, expected }) => {
                assert_eq!((found, expected), (99, FORMAT_VERSION));
            }
            other => panic!("unexpected outcome {other:?}"),
        }

        // The right version under the wrong loader is a kind error.
        save_flight_log(&path, &FlightRecorder::new(4).snapshot("unit")).unwrap();
        match load_model(&path) {
            Err(IoError::Kind { found, expected }) => {
                assert_eq!(
                    (found.as_str(), expected.as_str()),
                    (FLIGHT_LOG_KIND, MODEL_KIND)
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_roundtrips_via_registry() {
        use fbcnn_telemetry::Recorder as _;
        let r = fbcnn_telemetry::Registry::new();
        r.counter_add("skips", &[("layer", "conv2")], 7);
        r.histogram_batch("nd", &[], &[1.0, 3.0]);
        let events = read_trace_str(&r.to_jsonl()).unwrap();
        let skip = events
            .iter()
            .find(|e| e.kind == "counter" && e.name == "skips")
            .unwrap();
        assert_eq!(skip.count, 7);
        assert_eq!(skip.labels, vec![("layer".into(), "conv2".into())]);
        let nd = events
            .iter()
            .find(|e| e.kind == "histogram" && e.name == "nd")
            .unwrap();
        assert_eq!(nd.count, 2);
        assert_eq!(nd.value, 4.0);
        assert_eq!(nd.buckets.last().map(|b| b.1), Some(2));
    }

    #[test]
    fn read_trace_rejects_foreign_and_stale_lines() {
        let good = "{\"artifact\":\"trace-event\",\"version\":1,\"payload\":{\"kind\":\"counter\",\
                    \"name\":\"x\",\"labels\":[],\"id\":0,\"parent\":0,\"thread\":0,\
                    \"start_ns\":0,\"duration_ns\":0,\"value\":1.0,\"count\":1,\"buckets\":[]}}";
        assert_eq!(read_trace_str(good).unwrap().len(), 1);
        let foreign = good.replacen("trace-event", "network", 1);
        assert!(matches!(
            read_trace_str(&foreign),
            Err(IoError::Kind { .. })
        ));
        let stale = good.replacen("\"version\":1", "\"version\":9", 1);
        assert!(matches!(
            read_trace_str(&stale),
            Err(IoError::Version { found: 9, .. })
        ));
        assert!(read_trace_str("not an envelope\n").is_err());
    }

    #[test]
    fn pre_envelope_files_fail_with_envelope_error() {
        // A bare payload (the format before envelopes) is refused with a
        // message pointing at the envelope, not a payload parse error.
        let path = tmp("legacy");
        std::fs::write(&path, "{\"nodes\":[]}").unwrap();
        assert!(matches!(load_model(&path), Err(IoError::Envelope(_))));
        let _ = std::fs::remove_file(path);
    }
}
