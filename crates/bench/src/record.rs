//! The one bench-record shape and its one validator.
//!
//! Every schema-tagged `BENCH_*.json` a harness writes is a
//! [`BenchRecord`]: the `schema` tag, the run's `seed` and `quick` flag,
//! `headline` ratios (what `bench_check --baseline` diffs), the run's
//! `ledger` rows (named `left == right` equalities, the same rows its
//! `reconcile()` checked) and named `counts`. [`BenchRecord::validate`]
//! re-checks every ledger row, requires the rows the schema declares,
//! and applies the schema's floors from [`SCHEMAS`] — one const table,
//! each floor marked [`When::Always`] or full-run only. The harness binaries
//! validate before they write, `bench_check` validates what they wrote,
//! and the soak tests validate the same records, so all three read the
//! same floors.

use crate::harness::chaos::{ChaosReport, SwapChaosReport};
use crate::harness::loadgen::{LoadgenReport, LoadgenTotals};
use crate::harness::slo::{exact_quantile, SloSoakReport};
use crate::harness::soak::{
    ServeSoakReport, SuperviseSoakReport, SUPERVISE_HANG_SHARD, SUPERVISE_JAM_SHARD,
    SUPERVISE_PANIC_SHARD,
};
use fast_bcnn::ledger::check_rows;
use fast_bcnn::telemetry::{
    histogram_quantile, HealthStatus, DEFAULT_BUCKETS, QUANTILE_WIDTH_RATIO, STANDARD_QUANTILES,
};
use fast_bcnn::{Ledger, LedgerRow};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// One bench record; see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Schema tag, e.g. `"chaos-v2"`; must name an entry of [`SCHEMAS`].
    pub schema: String,
    /// The run's seed — replaying with it reproduces the run.
    pub seed: u64,
    /// Whether the quick (smoke) configuration ran; full-run floors only
    /// bind when this is false.
    pub quick: bool,
    /// Dimensionless headline ratios, diffed by `bench_check --baseline`.
    pub headline: BTreeMap<String, f64>,
    /// The run's exact ledger; every row must agree.
    pub ledger: Vec<LedgerRow>,
    /// Named counts the floors read (and raw measurements kept with them).
    pub counts: BTreeMap<String, u64>,
}

/// When a floor binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum When {
    /// Every run, quick or full.
    Always,
    /// Full (non `--quick`) runs only.
    FullRun,
    /// Full runs whose `parallelism` count is at least 4: the
    /// throughput floors do not bind on a host (or worker pool) too
    /// narrow to show them — single-CPU correctness-only acceptance.
    FullRunParallel,
}

/// Which side of its bound a floor holds a value to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The value must be at least this.
    AtLeast(f64),
    /// The value must be at most this.
    AtMost(f64),
}

/// One floor: a count (or headline ratio) held to a bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    /// Count or headline key.
    pub key: &'static str,
    /// The bound.
    pub bound: Bound,
    /// When it binds.
    pub when: When,
}

/// One schema: the ledger rows its records must carry and its floors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schema {
    /// The exact `schema` tag.
    pub name: &'static str,
    /// Ledger rows a record of this schema must carry.
    pub rows: &'static [&'static str],
    /// Floors, applied in order.
    pub floors: &'static [Floor],
}

const fn min(key: &'static str, bound: f64, when: When) -> Floor {
    Floor {
        key,
        bound: Bound::AtLeast(bound),
        when,
    }
}

const fn max(key: &'static str, bound: f64, when: When) -> Floor {
    Floor {
        key,
        bound: Bound::AtMost(bound),
        when,
    }
}

use When::{Always, FullRun, FullRunParallel};

/// A minute, in nanoseconds: the wall-clock bound of a full soak.
const SOAK_WALL_NS: f64 = 60e9;

/// Every schema a harness writes, with its required rows and floors.
pub const SCHEMAS: &[Schema] = &[
    Schema {
        name: "batch-v2",
        rows: &["batched requests bit-identical to sequential"],
        floors: &[
            min("points", 1.0, Always),
            max("zero_timings", 0.0, Always),
            min("speedup[batch_size=16]", 1.5, FullRunParallel),
        ],
    },
    Schema {
        name: "chaos-v2",
        rows: &[
            "failed round ledgers",
            "typed losses vs failed",
            "ok + failed vs offered",
        ],
        floors: &[
            max("abandoned", 0.0, Always),
            min("rounds", 1.0, Always),
            min("requests", 200.0, FullRun),
            min("classes", 5.0, FullRun),
            min("expired", 1.0, FullRun),
            min("shed_or_degraded", 1.0, FullRun),
            min("retry_successes", 1.0, FullRun),
            min("breaker_transitions", 1.0, FullRun),
            max("elapsed_ns", SOAK_WALL_NS, FullRun),
        ],
    },
    Schema {
        name: "swap-v2",
        rows: &[
            "failed round ledgers",
            "ok + failed vs offered",
            "responses diverged from the reference engine",
            "healthy rounds promoted cleanly",
            "requests lost in healthy rounds",
            "crashing rounds rolled back",
            "promotions + rollbacks vs deploys",
        ],
        floors: &[
            min("rounds", 1.0, Always),
            min("requests", 150.0, FullRun),
            min("promotions", 2.0, FullRun),
            min("rollbacks", 2.0, FullRun),
            min("compared_outputs", 1.0, FullRun),
        ],
    },
    Schema {
        name: "slo-v2",
        rows: &[
            "evicted windows",
            "registry ok + failed vs offered",
            "the health walk reached critical",
            "the health walk ended ok",
            "quantile estimates outside the bucket bound",
            "postmortem failed ids vs the soak's",
            "postmortem failed ids in recorded order",
        ],
        floors: &[
            min("verdicts", 1.0, Always),
            min("critical_windows", 1.0, Always),
            min("quantile_checks", 1.0, Always),
            min("postmortem_dumps", 1.0, Always),
            min("chaos_campaigns", 1.0, FullRun),
            min("registry_requests", 120.0, FullRun),
            min("windows", 12.0, FullRun),
        ],
    },
    Schema {
        name: "serve-v2",
        rows: &[
            "responses vs offered",
            "aborted load-generator workers",
            "transport errors",
            "bit-identity spot checks mismatched",
        ],
        floors: &[
            min("bit_checked", 1.0, Always),
            min("ok", 1.0, Always),
            min("shed", 1.0, Always),
            min("expired", 1.0, Always),
            min("wire_errors", 1.0, Always),
            min("quantile_checks", 1.0, Always),
            max("quantiles_out_of_bound", 0.0, Always),
            min("offered", 200.0, FullRun),
            min("latency_classes", 4.0, FullRun),
            max("elapsed_ns", SOAK_WALL_NS, FullRun),
            min("speedup", 1.0, FullRunParallel),
        ],
    },
    Schema {
        name: "supervise-v2",
        rows: &[
            "responses vs offered",
            "shard ledgers vs shards",
            "shards carrying the panic, hang and jam poisons",
            "aborted load-generator workers",
            "transport errors",
            "bit-identity spot checks mismatched",
            "poisoned shards quarantined",
            "poisoned shards that completed the healing walk",
            "healthy shards at campaign end",
            "failover folds",
            "rebuilds attempted vs re-admitted + rejected",
        ],
        floors: &[
            min("bit_checked", 1.0, Always),
            min("panic_shard_failed", 1.0, Always),
            min("hang_shard_abandoned", 1.0, Always),
            min("failovers", 1.0, Always),
            min("rebuild_attempts", 3.0, Always),
            min("transitions", 1.0, Always),
        ],
    },
];

/// The table entry for `name`.
///
/// # Errors
///
/// Names the unknown schema (retired `-v1` tags included).
pub fn schema(name: &str) -> Result<&'static Schema, String> {
    SCHEMAS.iter().find(|s| s.name == name).ok_or_else(|| {
        let known: Vec<&str> = SCHEMAS.iter().map(|s| s.name).collect();
        format!("unknown schema `{name}` (known: {})", known.join(", "))
    })
}

/// Parses a record from JSON text, reading the `schema` tag first so a
/// record of an unknown or retired schema is refused by name rather
/// than by a missing field.
///
/// # Errors
///
/// Malformed JSON, a missing or unknown `schema`, or a record that does
/// not have the [`BenchRecord`] shape.
pub fn parse(text: &str) -> Result<BenchRecord, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("malformed JSON: {e}"))?;
    let Some(Value::Str(tag)) = value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "schema"))
        .map(|(_, v)| v)
    else {
        return Err("record carries no `schema` tag".to_string());
    };
    schema(tag)?;
    BenchRecord::from_value(&value).map_err(|e| format!("malformed `{tag}` record: {e}"))
}

impl BenchRecord {
    /// A record of `schema` carrying `ledger`'s rows.
    pub fn new(schema: &str, seed: u64, quick: bool, ledger: Ledger) -> Self {
        Self {
            schema: schema.to_string(),
            seed,
            quick,
            headline: BTreeMap::new(),
            ledger: ledger.into_rows(),
            counts: BTreeMap::new(),
        }
    }

    /// The named count, 0 when absent.
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Adds named counts.
    #[must_use]
    pub fn with<K: Into<String>>(mut self, counts: impl IntoIterator<Item = (K, u64)>) -> Self {
        self.counts
            .extend(counts.into_iter().map(|(k, v)| (k.into(), v)));
        self
    }

    /// Validates the record against its schema: every ledger row agrees,
    /// every required row is present, and every floor that binds holds.
    ///
    /// # Errors
    ///
    /// The first violation, naming the row, count or schema.
    pub fn validate(&self) -> Result<(), String> {
        let schema = schema(&self.schema)?;
        check_rows(&self.ledger)?;
        if let Some(row) = schema
            .rows
            .iter()
            .find(|&&row| !self.ledger.iter().any(|r| r.what == row))
        {
            return Err(format!("missing ledger row `{row}`"));
        }
        for floor in schema.floors {
            let binds = match floor.when {
                Always => true,
                FullRun => !self.quick,
                FullRunParallel => !self.quick && self.count("parallelism") >= 4,
            };
            if !binds {
                continue;
            }
            let value = self
                .counts
                .get(floor.key)
                .map(|&c| c as f64)
                .or_else(|| self.headline.get(floor.key).copied())
                .ok_or_else(|| format!("missing count `{}`", floor.key))?;
            let (held, op, bound) = match floor.bound {
                Bound::AtLeast(b) => (value >= b, ">=", b),
                Bound::AtMost(b) => (value <= b, "<=", b),
            };
            if !held {
                let run = if floor.when == Always {
                    ""
                } else {
                    " (full run)"
                };
                return Err(format!(
                    "{} = {value}, floor is {op} {bound}{run}",
                    floor.key
                ));
            }
        }
        Ok(())
    }

    /// The `chaos-v2` record of a chaos campaign.
    pub fn chaos(report: &ChaosReport, quick: bool) -> Self {
        let t = &report.totals;
        Self::new("chaos-v2", report.seed, quick, report.ledger())
            .with([
                ("requests", report.requests_total as u64),
                ("ok", report.ok_total as u64),
                ("failed", report.failed_total as u64),
                ("classes", report.classes.len() as u64),
                ("rounds", report.rounds.len() as u64),
                ("shed", t.shed as u64),
                ("degraded", t.degraded as u64),
                ("shed_or_degraded", (t.shed + t.degraded) as u64),
                ("expired", t.expired as u64),
                ("retries", t.retries),
                ("retry_successes", t.retry_successes),
                ("retry_exhausted", t.retry_exhausted),
                ("forced_exact", t.forced_exact),
                ("probes", t.probes),
                ("requeues", t.requeues),
                ("abandoned", t.abandoned),
                ("breaker_transitions", report.transitions.len() as u64),
                ("elapsed_ns", report.elapsed_ns),
            ])
            .with(
                report
                    .loss_reasons
                    .iter()
                    .map(|(k, &n)| (format!("losses[{k}]"), n)),
            )
    }

    /// The `swap-v2` record of a hot-swap-under-fire campaign.
    pub fn swap(report: &SwapChaosReport, quick: bool) -> Self {
        let rounds =
            |action: &'static str| report.rounds.iter().filter(move |r| r.action == action);
        let (healthy, crashing) = (
            rounds("rollout_good").count(),
            rounds("rollout_bad").count(),
        );
        let promoted = rounds("rollout_good")
            .filter(|r| r.promoted && !r.rolled_back)
            .count();
        let rolled_back = rounds("rollout_bad")
            .filter(|r| r.rolled_back && !r.promoted)
            .count();
        let lost: usize = rounds("rollout_good").map(|r| r.failed).sum();
        let mut ledger = report.ledger();
        ledger.extend([
            (
                "healthy rounds promoted cleanly",
                promoted as u64,
                healthy as u64,
            ),
            ("requests lost in healthy rounds", lost as u64, 0),
            (
                "crashing rounds rolled back",
                rolled_back as u64,
                crashing as u64,
            ),
            (
                "promotions + rollbacks vs deploys",
                report.promotions + report.rollbacks,
                report.deploys,
            ),
        ]);
        let versions = report.version_requests.iter();
        Self::new("swap-v2", report.seed, quick, ledger)
            .with([
                ("requests", report.requests_total as u64),
                ("ok", report.ok_total as u64),
                ("failed", report.failed_total as u64),
                ("rounds", report.rounds.len() as u64),
                ("deploys", report.deploys),
                ("promotions", report.promotions),
                ("rollbacks", report.rollbacks),
                ("final_version", report.final_version),
                ("compared_outputs", report.compared_outputs as u64),
                ("mismatched_outputs", report.mismatched_outputs as u64),
                ("elapsed_ns", report.elapsed_ns),
            ])
            .with(versions.flat_map(|(v, c)| {
                [
                    (format!("version_requests[{v}]"), c.requests),
                    (format!("version_canaries[{v}]"), c.canary),
                ]
            }))
    }

    /// The `slo-v2` record of an SLO soak.
    pub fn slo(report: &SloSoakReport, quick: bool) -> Self {
        let critical = report
            .verdicts
            .iter()
            .filter(|v| v.status == HealthStatus::Critical);
        let emitted = report.postmortem_path.is_some() && !report.postmortem_trigger.is_empty();
        let chaos = report.chaos.as_ref();
        Self::new("slo-v2", report.seed, quick, report.ledger())
            .with([
                ("window_width_ns", report.window_width_ns),
                ("windows", report.windows as u64),
                ("verdicts", report.verdicts.len() as u64),
                ("critical_windows", critical.count() as u64),
                ("evicted_windows", report.evicted_windows),
                ("fast_windows", report.fast_windows as u64),
                ("slow_windows", report.slow_windows as u64),
                ("registry_requests", report.registry_requests),
                ("registry_ok", report.registry_ok),
                ("registry_failed", report.registry_failed),
                ("chaos_campaigns", u64::from(chaos.is_some())),
                ("chaos_requests", chaos.map_or(0, |c| c.requests)),
                ("quantile_checks", report.quantiles.len() as u64),
                ("postmortem_dumps", u64::from(emitted)),
                ("postmortem_records", report.postmortem_records),
                ("postmortem_degraded", report.postmortem_degraded),
                (
                    "postmortem_failed_ids",
                    report.postmortem_failed_ids.len() as u64,
                ),
                ("elapsed_ns", report.elapsed_ns),
            ])
            .with(report.quantiles.iter().flat_map(|q| {
                [
                    (format!("estimate_ns[{}]", q.name), q.estimate_ns as u64),
                    (format!("exact_ns[{}]", q.name), q.exact_ns),
                ]
            }))
    }

    /// The `serve-v2` record of a serve soak on a `cpus`-CPU host: its
    /// three-way ledger, per-class latency quantiles computed two ways
    /// (bucket-edge estimate over [`DEFAULT_BUCKETS`] and exact same
    /// rank) and the goodput ratio. `cpus` is recorded, never divided
    /// by: the ratio is host-independent on its own.
    pub fn serve(report: &ServeSoakReport, quick: bool, cpus: usize) -> Self {
        let lg = &report.loadgen.totals;
        let mut ledger = report.ledger();
        ledger.extend([answered_row(lg)]);
        let mut quantiles = BTreeMap::new();
        let (mut checks, mut out_of_bound) = (0, 0);
        for (class, latencies) in &report.loadgen.latencies_ns {
            if latencies.is_empty() {
                continue;
            }
            let mut sorted = latencies.clone();
            sorted.sort_unstable();
            let mut buckets = vec![0u64; DEFAULT_BUCKETS.len() + 1];
            for &v in &sorted {
                buckets[DEFAULT_BUCKETS.partition_point(|&bound| bound < v as f64)] += 1;
            }
            for (name, q) in STANDARD_QUANTILES {
                let estimate = histogram_quantile(DEFAULT_BUCKETS, &buckets, *q).unwrap_or(0.0);
                let exact = exact_quantile(&sorted, *q).unwrap_or(0);
                let within = estimate >= exact as f64
                    && (exact == 0 || estimate < exact as f64 * QUANTILE_WIDTH_RATIO);
                checks += 1;
                out_of_bound += u64::from(!within);
                quantiles.insert(format!("estimate_ns[{class}.{name}]"), estimate as u64);
                quantiles.insert(format!("exact_ns[{class}.{name}]"), exact);
            }
        }
        let mut record = Self::new("serve-v2", report.seed, quick, ledger)
            .with([
                ("cpus", cpus as u64),
                ("parallelism", cpus as u64),
                ("open_loop", u64::from(report.mode == "open")),
                ("connections", report.connections as u64),
                (
                    "requests_per_connection",
                    report.requests_per_connection as u64,
                ),
                ("server_connections", report.server.connections),
                (
                    "server_connections_rejected",
                    report.server.connections_rejected,
                ),
                ("registry_requests", report.registry_requests),
                ("registry_ok", report.registry_ok),
                ("registry_failed", report.registry_failed),
                ("latency_classes", report.loadgen.latencies_ns.len() as u64),
                ("quantile_checks", checks),
                ("quantiles_out_of_bound", out_of_bound),
                ("elapsed_ns", report.elapsed_ns),
            ])
            .with(loadgen_counts(&report.loadgen))
            .with(quantiles);
        // Goodput over the same run's in-process rate of the reference
        // engine at the same concurrency: both scale with the host's
        // speed and cores, so the baseline diff compares it across hosts.
        let goodput = (lg.ok + lg.failed) as f64 / (report.elapsed_ns as f64 / 1e9).max(1e-9);
        record
            .headline
            .insert("speedup".into(), goodput / report.reference_rps.max(1e-9));
        record
    }

    /// The `supervise-v2` record of a supervision soak on a `cpus`-CPU
    /// host.
    pub fn supervise(report: &SuperviseSoakReport, quick: bool, cpus: usize) -> Self {
        let shard = |i: usize| report.ledger.get(i).copied().unwrap_or_default();
        let poisons = [
            SUPERVISE_PANIC_SHARD,
            SUPERVISE_HANG_SHARD,
            SUPERVISE_JAM_SHARD,
        ];
        let carried = poisons
            .iter()
            .filter(|s| report.poisoned.contains(s))
            .count();
        let mut ledger = report.ledger();
        ledger.extend([
            answered_row(&report.loadgen.totals),
            (
                "shard ledgers vs shards",
                report.ledger.len() as u64,
                report.shards as u64,
            ),
            (
                "shards carrying the panic, hang and jam poisons",
                carried as u64,
                3,
            ),
        ]);
        let shards = report.ledger.iter().enumerate().flat_map(|(i, l)| {
            [
                ("served", l.served),
                ("failed", l.failed),
                ("abandoned", l.abandoned),
                ("failovers_out", l.failovers_out),
                ("failovers_in", l.failovers_in),
                ("quarantines", l.quarantines),
                ("rebuilds", l.rebuilds),
            ]
            .map(|(field, n)| (format!("{field}[shard={i}]"), n))
        });
        Self::new("supervise-v2", report.seed, quick, ledger)
            .with([
                ("cpus", cpus as u64),
                ("shards", report.shards as u64),
                ("connections", report.connections as u64),
                ("bursts", report.bursts),
                ("adversarial_connections", report.adversarial.connections),
                ("adversarial_rejects", report.adversarial.rejects_received),
                ("registry_requests", report.registry_requests),
                ("registry_ok", report.registry_ok),
                ("registry_failed", report.registry_failed),
                ("panic_shard_failed", shard(SUPERVISE_PANIC_SHARD).failed),
                (
                    "hang_shard_abandoned",
                    shard(SUPERVISE_HANG_SHARD).abandoned,
                ),
                (
                    "failovers",
                    report.ledger.iter().map(|l| l.failovers_out).sum(),
                ),
                ("transitions", report.transitions.len() as u64),
                ("rebuild_attempts", report.rebuild_attempts),
                ("rebuild_successes", report.rebuild_successes),
                ("rebuild_probe_rejects", report.rebuild_probe_rejects),
                ("quarantine_elapsed_ns", report.quarantine_elapsed_ns),
                ("elapsed_ns", report.elapsed_ns),
            ])
            .with(loadgen_counts(&report.loadgen))
            .with(shards)
    }
}

/// The ledger row both TCP soak records add: every offered frame came
/// back as exactly one kind of response (anything else is a hang).
fn answered_row(lg: &LoadgenTotals) -> (&'static str, u64, u64) {
    let answered = lg.ok + lg.failed + lg.shed + lg.wire_error_responses + lg.unknown_class;
    ("responses vs offered", answered, lg.offered)
}

/// The client-side counts both TCP soak records carry.
fn loadgen_counts(report: &LoadgenReport) -> [(&'static str, u64); 11] {
    let lg = &report.totals;
    [
        ("offered", lg.offered),
        ("ok", lg.ok),
        ("failed", lg.failed),
        ("shed", lg.shed),
        ("expired", lg.expired),
        ("wire_errors", lg.wire_error_responses),
        ("unknown_class", lg.unknown_class),
        ("transport_errors", lg.transport_errors),
        ("aborted_workers", report.aborted_workers),
        ("bit_checked", lg.bit_checked),
        ("bit_mismatched", lg.bit_mismatched),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve ratio is a property of the run, not of the host's CPU
    /// count: the same report gives the same `speedup` at 1 and 8 CPUs.
    #[test]
    fn serve_speedup_does_not_depend_on_the_cpu_count() {
        let report = ServeSoakReport {
            seed: 11,
            mode: "closed".to_string(),
            connections: 2,
            requests_per_connection: 30,
            samples: 4,
            shards: 2,
            loadgen: LoadgenReport {
                totals: LoadgenTotals {
                    offered: 60,
                    ok: 44,
                    failed: 4,
                    ..LoadgenTotals::default()
                },
                latencies_ns: BTreeMap::new(),
                aborted_workers: 0,
                elapsed_ns: 200_000_000,
            },
            server: Default::default(),
            registry_requests: 48,
            registry_ok: 44,
            registry_failed: 4,
            elapsed_ns: 240_000_000,
            reference_rps: 400.0,
        };
        let speedup = |cpus| BenchRecord::serve(&report, true, cpus).headline["speedup"];
        assert_eq!(speedup(1), speedup(8));
        // 48 answered requests in 0.24 s is 200 req/s, half the 400 req/s
        // the reference engine managed in process.
        assert!((speedup(1) - 0.5).abs() < 1e-12, "{}", speedup(1));
    }
}
