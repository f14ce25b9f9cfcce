//! Golden wire fixtures for the serve tier: pinned request/response
//! byte images (including an expired partial-T response, a shed
//! response and a typed wire-error response) plus the pinned server
//! counter totals, regression-locking the protocol the way the numeric
//! paths are locked by `tests/golden_vectors.rs`.
//!
//! Regenerate `tests/golden/serve_*.json` after an *intentional*
//! protocol or policy change with
//!
//! ```text
//! cargo test --test serve_golden -- --ignored regenerate
//! ```
//!
//! and commit the diff.

mod common;

use common::golden_dir;
use fast_bcnn::serve::{
    encode_frame, serve, FrameDecoder, ServeConfig, ServeRequest, ServeResponse, ServeTotals,
    DEFAULT_MAX_FRAME_BYTES, REQUEST_KIND,
};
use fast_bcnn::synth_input;
use fbcnn_bench::harness::loadgen::LoadMode;
use fbcnn_bench::harness::soak::{build_soak_registry, soak_classes, ServeSoakConfig};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const WIRE_FIXTURE: &str = "serve_wire_seed5.json";
const TOTALS_FIXTURE: &str = "serve_totals_seed5.json";

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(s: &str) -> Vec<u8> {
    assert!(
        s.len().is_multiple_of(2),
        "odd hex image length {}",
        s.len()
    );
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex image"))
        .collect()
}

/// The pinned campaign configuration, kept in the fixtures so a config
/// drift shows up as a mismatch instead of silent regeneration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenServeConfig {
    seed: u64,
    samples: usize,
    shards: usize,
}

impl GoldenServeConfig {
    fn pinned() -> Self {
        Self {
            seed: 5,
            samples: 4,
            shards: 1,
        }
    }

    fn soak(&self) -> ServeSoakConfig {
        ServeSoakConfig {
            seed: self.seed,
            samples: self.samples,
            shards: self.shards,
            connections: 1,
            requests_per_connection: 0,
            mode: LoadMode::Closed,
            time_limit: Duration::from_secs(45),
        }
    }
}

/// One pinned request/response wire exchange, as literal byte images.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenExchange {
    name: String,
    request_hex: String,
    response_hex: String,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenWireFixture {
    config: GoldenServeConfig,
    exchanges: Vec<GoldenExchange>,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenTotalsFixture {
    config: GoldenServeConfig,
    totals: ServeTotals,
}

/// The pinned request mix: one exchange per counter the serve tier can
/// produce — healthy interactive and batch predictions, a deterministic
/// expired partial-T prediction, an admission shed, an unknown class and
/// a stale-version wire error.
fn pinned_plan(cfg: &GoldenServeConfig, shape: fbcnn_tensor::Shape) -> Vec<(String, Vec<u8>)> {
    let max = DEFAULT_MAX_FRAME_BYTES;
    let mut plan = Vec::new();
    for (i, class) in ["interactive", "batch", "degraded", "reject"]
        .iter()
        .enumerate()
    {
        let input = synth_input(shape, cfg.seed ^ (100 + i as u64));
        let req = ServeRequest::from_input(i as u64 + 1, *class, &input);
        plan.push((class.to_string(), req.encode(max).expect("encode")));
    }
    let unknown = ServeRequest::from_input(5, "mystery", &synth_input(shape, cfg.seed ^ 105));
    plan.push((
        "unknown_class".to_string(),
        unknown.encode(max).expect("encode"),
    ));
    let stale = encode_frame(
        format!("{{\"artifact\":\"{REQUEST_KIND}\",\"version\":99,\"payload\":{{}}}}").as_bytes(),
        max,
    )
    .expect("frame");
    plan.push(("stale_version".to_string(), stale));
    plan
}

/// Runs the pinned mix over one sequential connection against a fresh
/// seeded server and returns every wire exchange plus the final server
/// totals. Everything here must be a pure function of the pinned config.
fn run_campaign(cfg: &GoldenServeConfig) -> (Vec<GoldenExchange>, ServeTotals) {
    let (registry, reference) = build_soak_registry(&cfg.soak()).expect("registry boots");
    let server = serve(
        Arc::clone(&registry),
        ServeConfig {
            classes: soak_classes(cfg.samples),
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let shape = reference.network().input_shape();
    let plan = pinned_plan(cfg, shape);

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
    let mut exchanges = Vec::new();
    for (name, frame) in plan {
        stream.write_all(&frame).expect("send");
        let payload = loop {
            if let Some(p) = decoder.next_frame().expect("decode") {
                break p;
            }
            let mut buf = [0u8; 4096];
            let n = stream.read(&mut buf).expect("recv");
            assert!(n > 0, "server closed mid-exchange on `{name}`");
            decoder.push(&buf[..n]);
        };
        let response = encode_frame(&payload, DEFAULT_MAX_FRAME_BYTES).expect("reframe");
        exchanges.push(GoldenExchange {
            name,
            request_hex: to_hex(&frame),
            response_hex: to_hex(&response),
        });
    }
    drop(stream);
    let totals = server.shutdown();
    (exchanges, totals)
}

/// Decodes a pinned response image back to the typed message.
fn decode_response(exchange: &GoldenExchange) -> ServeResponse {
    let bytes = from_hex(&exchange.response_hex);
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
    decoder.push(&bytes);
    let payload = decoder
        .next_frame()
        .expect("pinned image frames")
        .expect("pinned image is complete");
    ServeResponse::decode(&payload)
        .unwrap_or_else(|e| panic!("pinned response `{}` undecodable: {e}", exchange.name))
}

/// The semantic contract of the pinned mix, asserted on whatever
/// exchanges the campaign (or the fixture) holds, so a regeneration can
/// never silently pin wrong behavior.
fn assert_mix_semantics(exchanges: &[GoldenExchange]) {
    let by_name = |name: &str| {
        exchanges
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("mix lost the `{name}` exchange"))
    };
    for name in ["interactive", "batch"] {
        let resp = decode_response(by_name(name));
        assert!(
            resp.is_pristine(),
            "{name} response is not pristine: {resp:?}"
        );
        assert_eq!(
            resp.used_samples, resp.requested_samples,
            "{name} lost samples"
        );
        assert!(!resp.mean_bits.is_empty(), "{name} carries no posterior");
    }
    let degraded = decode_response(by_name("degraded"));
    assert!(degraded.ok, "partial-T response must still predict");
    assert!(
        degraded.expired,
        "sample budget must expire the degraded class"
    );
    assert!(
        degraded.used_samples < degraded.requested_samples,
        "expired response used {} of {} samples — not partial",
        degraded.used_samples,
        degraded.requested_samples
    );
    let shed = decode_response(by_name("reject"));
    assert!(shed.shed, "reject class must shed");
    assert_eq!(shed.reason, "overloaded");
    assert!(
        !shed.ok && shed.mean_bits.is_empty(),
        "shed must not predict"
    );
    let unknown = decode_response(by_name("unknown_class"));
    assert_eq!(unknown.reason, "unknown_class");
    let stale = decode_response(by_name("stale_version"));
    assert_eq!(stale.reason, "wire_stale_version");
    assert_eq!(stale.id, 0, "an undecodable request cannot echo an id");
}

#[test]
fn golden_serve_wire_images_are_pinned() {
    let path = golden_dir().join(WIRE_FIXTURE);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} — run the ignored `regenerate` test to create it: {e}",
            path.display()
        )
    });
    let fixture: GoldenWireFixture = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("malformed golden fixture {}: {e}", path.display()));
    assert_eq!(
        fixture.config,
        GoldenServeConfig::pinned(),
        "fixture was generated under a different pinned campaign — regenerate"
    );
    assert_mix_semantics(&fixture.exchanges);
    let (actual, _) = run_campaign(&fixture.config);
    assert_eq!(
        fixture.exchanges.len(),
        actual.len(),
        "exchange count drifted"
    );
    for (pinned, live) in fixture.exchanges.iter().zip(&actual) {
        assert_eq!(pinned.name, live.name, "exchange order drifted");
        assert_eq!(
            pinned.request_hex, live.request_hex,
            "`{}` request byte image drifted",
            pinned.name
        );
        assert_eq!(
            pinned.response_hex, live.response_hex,
            "`{}` response byte image drifted",
            pinned.name
        );
    }
}

#[test]
fn golden_serve_counter_totals_are_pinned() {
    let path = golden_dir().join(TOTALS_FIXTURE);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} — run the ignored `regenerate` test to create it: {e}",
            path.display()
        )
    });
    let fixture: GoldenTotalsFixture = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("malformed golden fixture {}: {e}", path.display()));
    assert_eq!(
        fixture.config,
        GoldenServeConfig::pinned(),
        "fixture was generated under a different pinned campaign — regenerate"
    );
    let (_, totals) = run_campaign(&fixture.config);
    assert_eq!(fixture.totals, totals, "server counter totals drifted");
}

/// Same seed + same mix ⇒ byte-identical responses and identical counter
/// totals, independent of the fixtures: two fresh server instances must
/// agree exactly.
#[test]
fn server_loop_is_deterministic_for_a_pinned_mix() {
    let cfg = GoldenServeConfig::pinned();
    let (first, first_totals) = run_campaign(&cfg);
    let (second, second_totals) = run_campaign(&cfg);
    assert_eq!(
        first, second,
        "response bytes drifted between identical runs"
    );
    assert_eq!(
        first_totals, second_totals,
        "counter totals drifted between identical runs"
    );
    assert_mix_semantics(&first);
}

/// Rewrites both serve fixtures from current behavior. Ignored: run it
/// only after an intentional protocol or policy change, then review and
/// commit the diff.
#[test]
#[ignore = "regenerates the serve golden fixtures; run explicitly after intentional protocol changes"]
fn regenerate() {
    let cfg = GoldenServeConfig::pinned();
    let (exchanges, totals) = run_campaign(&cfg);
    assert_mix_semantics(&exchanges);
    std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    let wire = GoldenWireFixture {
        config: cfg.clone(),
        exchanges,
    };
    let wire_path = golden_dir().join(WIRE_FIXTURE);
    let json = serde_json::to_string_pretty(&wire).expect("serialize");
    std::fs::write(&wire_path, json + "\n").expect("write fixture");
    eprintln!("wrote {}", wire_path.display());
    let totals = GoldenTotalsFixture {
        config: cfg,
        totals,
    };
    let totals_path = golden_dir().join(TOTALS_FIXTURE);
    let json = serde_json::to_string_pretty(&totals).expect("serialize");
    std::fs::write(&totals_path, json + "\n").expect("write fixture");
    eprintln!("wrote {}", totals_path.display());
}
