//! Chaos soak acceptance suite: the robustness contract of the resilient
//! serving layer, asserted (not just logged) over seeded fault campaigns,
//! plus the golden fixture that regression-locks the breaker transition
//! sequence and shed counts the way the numeric paths are locked.
//!
//! Regenerate `tests/golden/chaos_seed5.json` after an *intentional*
//! resilience-policy change with
//!
//! ```text
//! cargo test --test resilience_chaos -- --ignored regenerate
//! ```
//!
//! and commit the diff.

mod common;

use common::{assert_chaos_contract, golden_dir};
use fast_bcnn::telemetry::Registry;
use fbcnn_bench::harness::chaos::{run_chaos, ChaosConfig};
use fbcnn_bench::BenchRecord;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The headline acceptance soak: the `chaos-v2` volume, coverage and
/// wall-clock floors with deadline pressure, every loss typed, zero
/// aborts, and the breaker/shed/retry/deadline counters reconciling
/// exactly. CI runs this under an outer timeout so a hang fails instead
/// of stalling.
#[test]
fn full_soak_meets_the_acceptance_floors() {
    let cfg = ChaosConfig::full(5);
    let report = run_chaos(&cfg, &Arc::new(Registry::new()));
    assert_chaos_contract(&report, "full soak");
    BenchRecord::chaos(&report, false)
        .validate()
        .unwrap_or_else(|e| panic!("full soak: chaos-v2 acceptance failed: {e}"));
    assert!(
        report.totals.expired > 0,
        "no deadline pressure was applied"
    );
    assert!(report.totals.shed > 0, "overload never shed");
    assert!(report.totals.degraded > 0, "degrade policy never engaged");
    assert!(
        report.totals.retry_successes > 0,
        "no transient fault was healed by retry"
    );
    assert!(
        report.totals.forced_exact > 0,
        "the breaker never forced the exact path"
    );
    assert!(
        report
            .transitions
            .iter()
            .any(|(f, t)| f == "half_open" && t == "closed"),
        "the breaker never recovered: {:?}",
        report.transitions
    );
}

// ---------------------------------------------------------------- golden

/// The pinned campaign configuration, kept in the fixture so a config
/// drift shows up as a mismatch instead of silent regeneration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenChaosConfig {
    seed: u64,
    rounds: usize,
    requests_per_round: usize,
    samples: usize,
}

impl GoldenChaosConfig {
    fn pinned() -> Self {
        let cfg = ChaosConfig::deterministic(5);
        Self {
            seed: cfg.seed,
            rounds: cfg.rounds,
            requests_per_round: cfg.requests_per_round,
            samples: cfg.samples,
        }
    }

    fn campaign(&self) -> ChaosConfig {
        ChaosConfig {
            seed: self.seed,
            rounds: self.rounds,
            requests_per_round: self.requests_per_round,
            include_latency: false,
            samples: self.samples,
        }
    }
}

/// One round's pinned resilience behavior.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenChaosRound {
    class: String,
    offered: usize,
    ok: usize,
    failed: usize,
    expired: usize,
    shed: usize,
    retries: u64,
}

/// The `tests/golden/chaos_seed5.json` fixture: the breaker transition
/// sequence and shed/loss accounting of one seeded deterministic
/// campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenChaosFixture {
    config: GoldenChaosConfig,
    transitions: Vec<(String, String)>,
    final_breaker_state: String,
    shed_total: usize,
    degraded_total: usize,
    expired_total: usize,
    loss_reasons: Vec<(String, u64)>,
    rounds: Vec<GoldenChaosRound>,
}

fn compute_fixture(cfg: &GoldenChaosConfig) -> GoldenChaosFixture {
    let report = run_chaos(&cfg.campaign(), &Arc::new(Registry::new()));
    assert_chaos_contract(&report, "deterministic campaign");
    GoldenChaosFixture {
        config: cfg.clone(),
        transitions: report.transitions.clone(),
        final_breaker_state: report.final_breaker_state.clone(),
        shed_total: report.totals.shed,
        degraded_total: report.totals.degraded,
        expired_total: report.totals.expired,
        loss_reasons: report
            .loss_reasons
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        rounds: report
            .rounds
            .iter()
            .map(|r| GoldenChaosRound {
                class: r.class.clone(),
                offered: r.offered,
                ok: r.ok,
                failed: r.failed,
                expired: r.expired,
                shed: r.shed,
                retries: r.retries,
            })
            .collect(),
    }
}

#[test]
fn golden_chaos_seed5_breaker_walk_and_shed_counts_are_pinned() {
    let path = golden_dir().join("chaos_seed5.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} — run the ignored `regenerate` test to create it: {e}",
            path.display()
        )
    });
    let fixture: GoldenChaosFixture = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("malformed golden fixture {}: {e}", path.display()));
    assert_eq!(
        fixture.config,
        GoldenChaosConfig::pinned(),
        "fixture was generated under a different pinned campaign — regenerate"
    );
    let actual = compute_fixture(&fixture.config);
    assert_eq!(
        fixture.transitions, actual.transitions,
        "breaker transition sequence drifted"
    );
    assert_eq!(
        fixture.final_breaker_state, actual.final_breaker_state,
        "final breaker state drifted"
    );
    assert_eq!(fixture.shed_total, actual.shed_total, "shed counts drifted");
    assert_eq!(
        fixture.degraded_total, actual.degraded_total,
        "degrade counts drifted"
    );
    assert_eq!(
        fixture.expired_total, actual.expired_total,
        "deadline-expiry counts drifted"
    );
    assert_eq!(
        fixture.loss_reasons, actual.loss_reasons,
        "typed-loss buckets drifted"
    );
    assert_eq!(
        fixture.rounds, actual.rounds,
        "per-round accounting drifted"
    );
}

/// Rewrites the chaos fixture from current behavior. Ignored: run it
/// only after an intentional resilience-policy change, then review and
/// commit the diff.
#[test]
#[ignore = "regenerates the chaos golden fixture; run explicitly after intentional policy changes"]
fn regenerate() {
    let fixture = compute_fixture(&GoldenChaosConfig::pinned());
    std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    let path = golden_dir().join("chaos_seed5.json");
    let json = serde_json::to_string_pretty(&fixture).expect("serialize");
    std::fs::write(&path, json + "\n").expect("write fixture");
    eprintln!("wrote {}", path.display());
}
