//! The bench-record validator, table-driven: one clean record per
//! schema, and one case per acceptance rule that mutates it and names
//! the verdict. Every rule the per-schema record validators enforced
//! before the single `validate()` replaced them has a failing case here
//! (its old failure message is quoted in the case label), as does every
//! behaviour their unit tests pinned: quick runs skip the full-run
//! floors, narrow hosts skip the throughput floors, and so on.

use fast_bcnn::Ledger;
use fbcnn_bench::record::{parse, SCHEMAS};
use fbcnn_bench::BenchRecord;

/// One clean record per schema: `schema full|quick | ledger rows
/// (what=n, agreeing) | counts | headline ratios`. The full-run
/// fixtures sit on a narrow (parallelism < 4) host, so only the
/// throughput cases make the parallel floors bind.
const CLEAN: &str = r#"
batch-v2 full | batched requests bit-identical to sequential=17 | cpus=1 threads=1 parallelism=1 points=2 zero_timings=0 | speedup[batch_size=1]=1.0 speedup[batch_size=16]=1.7
chaos-v2 full | failed round ledgers=0; counter shed_requests vs totals=12; typed losses vs failed=40; ok + failed vs offered=240 | requests=240 classes=5 rounds=12 abandoned=0 expired=16 shed_or_degraded=20 retry_successes=20 breaker_transitions=1 elapsed_ns=20000000000 |
swap-v2 full | failed round ledgers=0; ok + failed vs offered=192; counter version_requests{version="1"} vs accounting=192; responses diverged from the reference engine=0; healthy rounds promoted cleanly=4; requests lost in healthy rounds=0; crashing rounds rolled back=4; promotions + rollbacks vs deploys=8 | requests=192 rounds=8 promotions=4 rollbacks=4 compared_outputs=120 |
slo-v2 full | evicted windows=0; windowed soak ok vs registry ok=146; registry ok + failed vs offered=150; quantile estimates outside the bucket bound=0; the health walk reached critical=1; the health walk ended ok=1; postmortem failed ids vs the soak's=2; postmortem failed ids in recorded order=2 | windows=12 verdicts=12 critical_windows=2 registry_requests=150 quantile_checks=4 postmortem_dumps=1 chaos_campaigns=1 |
serve-v2 full | ok=200; responses vs offered=240; aborted load-generator workers=0; transport errors=0; bit-identity spot checks mismatched=0 | parallelism=2 offered=240 ok=200 shed=6 expired=8 wire_errors=4 bit_checked=6 quantile_checks=20 quantiles_out_of_bound=0 latency_classes=5 elapsed_ns=500000000 | speedup=0.48
supervise-v2 quick | ok=500; responses vs offered=624; shard ledgers vs shards=4; shards carrying the panic, hang and jam poisons=3; aborted load-generator workers=0; transport errors=0; bit-identity spot checks mismatched=0; poisoned shards quarantined=3; poisoned shards that completed the healing walk=3; healthy shards at campaign end=4; failover folds=30; rebuilds attempted vs re-admitted + rejected=3 | bit_checked=40 panic_shard_failed=6 hang_shard_abandoned=5 failovers=30 rebuild_attempts=3 transitions=9 |
"#;

/// `schema | what the case pins | mutations | expected error substring,
/// or "ok" when the record must still pass`. Mutations, `;`-separated:
/// `quick`, `schema <tag>`, `set <count>=<n>`, `unset <count>`,
/// `ratio <headline>=<x>`, `drift <row>` (bump its left side by one),
/// `droprow <row>`.
const CASES: &str = r#"
# batch
batch-v2 | a clean full single-CPU record passes | - | ok
batch-v2 | `no measurement points` | set points=0 | points = 0
batch-v2 | `results diverged from sequential` (on any host) | drift batched requests bit-identical to sequential | bit-identical to sequential drifted: 18 != 17
batch-v2 | `zero timing` | set zero_timings=1 | zero_timings = 1
batch-v2 | `no measurement points` on a parallel host | set parallelism=4; set points=0 | points = 0
batch-v2 | `batch size 16 reached 1.10x, target 1.50x` | set parallelism=8; ratio speedup[batch_size=16]=1.1 | speedup[batch_size=16] = 1.1, floor is >= 1.5 (full run)
batch-v2 | a parallel host reaching the target passes | set parallelism=8; ratio speedup[batch_size=16]=1.8 | ok
batch-v2 | a single CPU passes on correctness alone | ratio speedup[batch_size=16]=0.9 | ok
batch-v2 | a quick run on a parallel host skips the target | quick; set parallelism=8; ratio speedup[batch_size=16]=0.9 | ok
# chaos
chaos-v2 | a clean full soak passes | - | ok
chaos-v2 | `schema ..., expected chaos-v1` | schema batch-v1 | unknown schema `batch-v1`
chaos-v2 | `accounting did not reconcile` (quick runs too) | quick; drift counter shed_requests vs totals | counter shed_requests vs totals drifted: 13 != 12
chaos-v2 | `ok + failed != offered` | drift ok + failed vs offered | ok + failed vs offered drifted
chaos-v2 | `loss_reasons sum to ..., failed_total is ...` (quick runs too) | quick; drift typed losses vs failed | typed losses vs failed drifted
chaos-v2 | `units were abandoned` (quick runs too) | quick; set abandoned=1 | abandoned = 1, floor is <= 0
chaos-v2 | `accounting did not reconcile`: a round's own ledger drifted | drift failed round ledgers | failed round ledgers drifted: 1 != 0
chaos-v2 | `no fault rounds` | set rounds=0 | rounds = 0
chaos-v2 | `full soak offered 24 requests, floor is 200` | set requests=24 | requests = 24, floor is >= 200 (full run)
chaos-v2 | the full-soak floors do not bind quick runs | quick; set requests=24; set classes=1; set expired=0; set shed_or_degraded=0; set retry_successes=0; set breaker_transitions=0; set elapsed_ns=90000000000 | ok
chaos-v2 | `full soak exercised 4 fault classes, floor is 5` | set classes=4 | classes = 4
chaos-v2 | `full soak applied no deadline pressure` | set expired=0 | expired = 0
chaos-v2 | `full soak never triggered admission control` | set shed_or_degraded=0 | shed_or_degraded = 0
chaos-v2 | `full soak healed nothing by retry` | set retry_successes=0 | retry_successes = 0
chaos-v2 | `full soak never moved the breaker` | set breaker_transitions=0 | breaker_transitions = 0
chaos-v2 | the soak's one-minute wall-clock bound | set elapsed_ns=61000000000 | elapsed_ns = 61000000000, floor is <= 60000000000
# swap
swap-v2 | a clean full campaign passes | - | ok
swap-v2 | `schema ..., expected swap-v1` | schema chaos-v1 | unknown schema `chaos-v1`
swap-v2 | `accounting did not reconcile` (quick runs too) | quick; drift counter version_requests{version="1"} vs accounting | version_requests{version="1"} vs accounting drifted
swap-v2 | `ok + failed != offered` | drift ok + failed vs offered | ok + failed vs offered drifted
swap-v2 | `compared responses diverged bit-for-bit` (quick runs too) | quick; drift responses diverged from the reference engine | responses diverged from the reference engine drifted: 1 != 0
swap-v2 | `accounting did not reconcile`: a round's own ledger drifted | drift failed round ledgers | failed round ledgers drifted: 1 != 0
swap-v2 | `no deploy rounds` | set rounds=0 | rounds = 0
swap-v2 | `healthy round was not promoted cleanly` | drift healthy rounds promoted cleanly | healthy rounds promoted cleanly drifted
swap-v2 | `healthy round lost requests` | drift requests lost in healthy rounds | requests lost in healthy rounds drifted: 1 != 0
swap-v2 | `crashing round was not rolled back automatically` (quick runs too) | quick; drift crashing rounds rolled back | crashing rounds rolled back drifted
swap-v2 | `deploys but promotions + rollbacks` | drift promotions + rollbacks vs deploys | promotions + rollbacks vs deploys drifted
swap-v2 | `full campaign offered 64 requests, floor is 150` | set requests=64 | requests = 64, floor is >= 150
swap-v2 | the full-campaign floors do not bind quick runs | quick; set requests=64; set promotions=1; set rollbacks=1; set compared_outputs=0 | ok
swap-v2 | `exercised 1 promotions / 4 rollbacks, floor is 2 each` (promotions) | set promotions=1 | promotions = 1
swap-v2 | `exercised 4 promotions / 1 rollbacks, floor is 2 each` (rollbacks) | set rollbacks=1 | rollbacks = 1
swap-v2 | `full campaign never ran the bit-identity sweep` | set compared_outputs=0 | compared_outputs = 0
# slo
slo-v2 | a clean full soak passes | - | ok
slo-v2 | `schema ..., expected slo-v1` | schema slo-v1 | unknown schema `slo-v1`
slo-v2 | `accounting did not reconcile` (quick runs too) | quick; drift windowed soak ok vs registry ok | windowed soak ok vs registry ok drifted
slo-v2 | `ok + failed != offered` | drift registry ok + failed vs offered | registry ok + failed vs offered drifted
slo-v2 | `windows were evicted` | drift evicted windows | evicted windows drifted: 1 != 0
slo-v2 | `no health walk` | set verdicts=0 | verdicts = 0
slo-v2 | `the fault burst never drove health to critical` (quick runs too) | quick; set critical_windows=0 | critical_windows = 0
slo-v2 | `the fault burst never drove health to critical`, as a ledger row | drift the health walk reached critical | the health walk reached critical drifted
slo-v2 | `the soak ended warning instead of recovering to ok` (quick runs too) | quick; drift the health walk ended ok | the health walk ended ok drifted
slo-v2 | `no quantile checks` | set quantile_checks=0 | quantile_checks = 0
slo-v2 | `estimate violates the bucket bound` (quick runs too) | quick; drift quantile estimates outside the bucket bound | quantile estimates outside the bucket bound drifted: 1 != 0
slo-v2 | `no postmortem dump was emitted` | set postmortem_dumps=0 | postmortem_dumps = 0
slo-v2 | `postmortem replays failed ids ..., the soak recorded ...` (one id short) | quick; drift postmortem failed ids vs the soak's | postmortem failed ids vs the soak's drifted
slo-v2 | `postmortem replays failed ids ..., the soak recorded ...` (reordered) | drift postmortem failed ids in recorded order | postmortem failed ids in recorded order drifted
slo-v2 | `full soak embedded no chaos campaign` | set chaos_campaigns=0 | chaos_campaigns = 0
slo-v2 | `full soak drove 82 registry requests, floor is 120` | set registry_requests=82 | registry_requests = 82, floor is >= 120
slo-v2 | the full-soak floors do not bind quick runs | quick; set registry_requests=82; set windows=6; set chaos_campaigns=0 | ok
slo-v2 | `full soak spanned 11 windows, floor is 12` | set windows=11 | windows = 11
# serve
serve-v2 | a clean record passes | - | ok
serve-v2 | a clean quick record passes | quick | ok
serve-v2 | `schema ..., expected serve-v1` | schema serve-v1 | unknown schema `serve-v1`
serve-v2 | `ledger did not reconcile` | drift ok | ok drifted: 201 != 200
serve-v2 | `responses != offered` | drift responses vs offered | responses vs offered drifted
serve-v2 | `workers aborted` | drift aborted load-generator workers | aborted load-generator workers drifted: 1 != 0
serve-v2 | `transport errors` | drift transport errors | transport errors drifted: 1 != 0
serve-v2 | `bit-identity checks mismatched` | drift bit-identity spot checks mismatched | bit-identity spot checks mismatched drifted: 1 != 0
serve-v2 | `no bit-identity spot checks ran` | set bit_checked=0 | bit_checked = 0
serve-v2 | `no ok responses` | set ok=0 | ok = 0
serve-v2 | `the shed tier was never exercised` (quick runs too) | quick; set shed=0 | shed = 0
serve-v2 | `the expiry tier was never exercised` | set expired=0 | expired = 0
serve-v2 | `malformed frames were never exercised` | set wire_errors=0 | wire_errors = 0
serve-v2 | `no latency quantiles` | set quantile_checks=0 | quantile_checks = 0
serve-v2 | `estimate violates the bucket bound` | set quantiles_out_of_bound=1 | quantiles_out_of_bound = 1, floor is <= 0
serve-v2 | `goodput under the 8-CPU floor` | set parallelism=8; ratio speedup=0.04 | speedup = 0.04, floor is >= 1 (full run)
serve-v2 | goodput above the floor passes on a big host | set parallelism=8; ratio speedup=1.01 | ok
serve-v2 | the goodput floor does not bind a 2-CPU host | ratio speedup=0.04 | ok
serve-v2 | the goodput floor does not bind quick runs | quick; set parallelism=8; ratio speedup=0.04 | ok
serve-v2 | the soak's 200-request floor | set offered=60 | offered = 60, floor is >= 200
serve-v2 | the soak's 4-class coverage floor | set latency_classes=3 | latency_classes = 3
serve-v2 | the soak's one-minute wall-clock bound | set elapsed_ns=61000000000 | elapsed_ns = 61000000000
# supervise
supervise-v2 | a clean record passes | - | ok
supervise-v2 | `schema ..., expected supervise-v1` | schema supervise-v1 | unknown schema `supervise-v1`
supervise-v2 | `campaign did not reconcile` | drift ok | ok drifted
supervise-v2 | `responses != offered` | drift responses vs offered | responses vs offered drifted
supervise-v2 | `workers aborted` | drift aborted load-generator workers | aborted load-generator workers drifted
supervise-v2 | `transport errors` | drift transport errors | transport errors drifted
supervise-v2 | `no bit-identity spot checks ran` | set bit_checked=0 | bit_checked = 0
supervise-v2 | `bit-identity checks mismatched` | drift bit-identity spot checks mismatched | bit-identity spot checks mismatched drifted
supervise-v2 | `shard cells for shards` | drift shard ledgers vs shards | shard ledgers vs shards drifted
supervise-v2 | `no shard carried the hang poison` | drift shards carrying the panic, hang and jam poisons | shards carrying the panic, hang and jam poisons drifted
supervise-v2 | `the panic shard was never quarantined` | drift poisoned shards quarantined | poisoned shards quarantined drifted
supervise-v2 | `the jam shard never completed the healing walk` | drift poisoned shards that completed the healing walk | poisoned shards that completed the healing walk drifted
supervise-v2 | `the panic poison never produced a typed failure` | set panic_shard_failed=0 | panic_shard_failed = 0
supervise-v2 | `the hang poison never produced a watchdog abandonment` | set hang_shard_abandoned=0 | hang_shard_abandoned = 0
supervise-v2 | `shard 3 ended the campaign suspect` | drift healthy shards at campaign end | healthy shards at campaign end drifted
supervise-v2 | `no requests ever failed over` | set failovers=0 | failovers = 0
supervise-v2 | `failover fold drifted` | drift failover folds | failover folds drifted
supervise-v2 | `only 2 rebuilds attempted for 3 poisoned shards` | set rebuild_attempts=2 | rebuild_attempts = 2, floor is >= 3
supervise-v2 | `unresolved rebuilds` | drift rebuilds attempted vs re-admitted + rejected | rebuilds attempted vs re-admitted + rejected drifted
supervise-v2 | `no supervision transitions recorded` | set transitions=0 | transitions = 0
# generic
chaos-v2 | a record missing a required ledger row | droprow typed losses vs failed | missing ledger row `typed losses vs failed`
serve-v2 | a record missing a count a floor reads | unset shed | missing count `shed`
"#;

fn split_kv(kv: &str) -> (&str, &str) {
    kv.rsplit_once('=')
        .unwrap_or_else(|| panic!("`{kv}` is not key=value"))
}

fn clean(schema: &str) -> BenchRecord {
    let line = CLEAN
        .lines()
        .find(|l| l.starts_with(&format!("{schema} ")))
        .unwrap_or_else(|| panic!("no fixture for {schema}"));
    let [head, rows, counts, headline] = line.split('|').map(str::trim).collect::<Vec<_>>()[..]
    else {
        panic!("malformed fixture `{line}`")
    };
    let mut ledger = Ledger::new();
    for row in rows.split(';').map(str::trim) {
        let (what, n) = split_kv(row);
        let n = n.parse().unwrap();
        ledger.push(what, n, n);
    }
    let counts = counts.split_whitespace().map(split_kv);
    let mut r = BenchRecord::new(schema, 7, head.ends_with("quick"), ledger)
        .with(counts.map(|(k, v)| (k, v.parse().unwrap())));
    for (k, v) in headline.split_whitespace().map(split_kv) {
        r.headline.insert(k.to_string(), v.parse().unwrap());
    }
    r
}

fn apply(r: &mut BenchRecord, op: &str) {
    let (verb, arg) = op.split_once(' ').unwrap_or((op, ""));
    match verb {
        "-" => {}
        "quick" => r.quick = true,
        "schema" => r.schema = arg.to_string(),
        "set" => {
            let (k, v) = split_kv(arg);
            r.counts.insert(k.to_string(), v.parse().unwrap());
        }
        "unset" => {
            r.counts.remove(arg);
        }
        "ratio" => {
            let (k, v) = split_kv(arg);
            r.headline.insert(k.to_string(), v.parse().unwrap());
        }
        "drift" => {
            let row = r.ledger.iter_mut().find(|row| row.what == arg);
            row.unwrap_or_else(|| panic!("fixture has no row `{arg}`"))
                .left += 1;
        }
        "droprow" => r.ledger.retain(|row| row.what != arg),
        other => panic!("unknown mutation `{other}`"),
    }
}

/// Every case as `(schema, label, mutations, expected)`.
fn cases() -> Vec<(&'static str, &'static str, Vec<&'static str>, &'static str)> {
    CASES
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(
            |l| match l.split('|').map(str::trim).collect::<Vec<_>>()[..] {
                [schema, label, ops, expect] => (
                    schema,
                    label,
                    ops.split(';').map(str::trim).collect(),
                    expect,
                ),
                _ => panic!("malformed case `{l}`"),
            },
        )
        .collect()
}

#[test]
fn every_case_gets_its_verdict() {
    let cases = cases();
    assert!(cases.len() >= 100, "the case table did not parse");
    let mut failures = Vec::new();
    for (schema, label, ops, expect) in cases {
        let mut r = clean(schema);
        ops.iter().for_each(|op| apply(&mut r, op));
        let verdict = r.validate();
        let ok = match &verdict {
            Ok(()) => expect == "ok",
            Err(got) => expect != "ok" && got.contains(expect),
        };
        if !ok {
            failures.push(format!(
                "{schema}: {label}: expected {expect}, got {verdict:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_floor_and_required_row_has_a_failing_case() {
    let cases = cases();
    for schema in SCHEMAS {
        assert!(clean(schema.name).validate().is_ok(), "{}", schema.name);
        let failing = |op: &dyn Fn(&str) -> bool| {
            cases.iter().any(|(s, _, ops, expect)| {
                *s == schema.name && *expect != "ok" && ops.iter().any(|o| op(o))
            })
        };
        for floor in schema.floors {
            let key = floor.key;
            assert!(
                failing(&|o| ["set ", "ratio "]
                    .iter()
                    .any(|v| o.starts_with(&format!("{v}{key}=")))),
                "{}: no failing case for the `{key}` floor",
                schema.name
            );
        }
        for row in schema.rows {
            assert!(
                failing(&|o| o == format!("drift {row}")),
                "{}: no failing case drifts the required `{row}` row",
                schema.name
            );
        }
    }
}

#[test]
fn records_round_trip_through_json() {
    for schema in SCHEMAS {
        let r = clean(schema.name);
        let text = serde_json::to_string_pretty(&r).unwrap();
        assert_eq!(parse(&text).unwrap(), r, "{}", schema.name);
    }
}

#[test]
fn retired_and_unknown_schemas_are_refused_by_name() {
    let v1 = r#"{"schema": "chaos-v1", "seed": 5, "quick": true, "reconciled": true}"#;
    assert!(parse(v1).unwrap_err().contains("unknown schema `chaos-v1`"));
    let unknown = r#"{"schema": "bogus-v9"}"#;
    assert!(parse(unknown)
        .unwrap_err()
        .contains("unknown schema `bogus-v9`"));
    let untagged = r#"{"t": 4, "points": []}"#;
    assert!(parse(untagged).unwrap_err().contains("no `schema` tag"));
}

#[test]
fn committed_records_pass() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for file in [
        "BENCH_batch.json",
        "baselines/BENCH_batch.quick.json",
        "baselines/BENCH_serve.quick.json",
    ] {
        let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
        let r = parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        r.validate().unwrap_or_else(|e| panic!("{file}: {e}"));
    }
}
