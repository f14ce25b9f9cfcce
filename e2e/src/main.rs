//! `e2e`: one command that measures the robust MC-dropout path end to
//! end (untraced runs) and layer by layer (`--profile`), checks its
//! outputs, and compares sets of runs. See `README.md` beside this
//! package for the workloads, the metrics and how to read them.

mod client;
mod compare;
mod profile;
mod record;
mod stats;
mod workload;

use record::Record;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use workload::{Opts, Workload, WORKLOADS};

const USAGE: &str = "\
usage: e2e --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1> | --profile]
           [--spans <file.jsonl>] [--json <file>] [--smoke]
       e2e compare <A.json>... -- <B.json>... [--benchmark <BENCHMARK.json>]

workloads: lenet-t50, vgg16-t8, vgg16-t8-exact, serve-lenet-t8 (all: each in its own process)
  --seed      input and mask seed (default 1)
  --seconds   bound each measured loop by wall time instead of the workload's request count
  --trace 1   profile: per-layer numbers instead of end-to-end ones (same as --profile)
  --spans     write the profile's spans as JSONL (one workload only)
  --json      write the run's records as a JSON array
  --smoke     a few requests per workload: a functional check, not a measurement
exit: 0 correct, 1 a correctness check failed, 2 usage error";

#[derive(Default)]
struct Args {
    workloads: Vec<&'static Workload>,
    all: bool,
    opts: Opts,
    trace: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        opts: Opts {
            seed: 1,
            ..Opts::default()
        },
        ..Args::default()
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                out.opts.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                out.opts.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--profile" => out.trace = true,
            "--spans" => out.spans = Some(PathBuf::from(value()?)),
            "--json" => out.json = Some(PathBuf::from(value()?)),
            "--smoke" => out.opts.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {
            out.all = true;
            out.workloads = WORKLOADS.iter().collect();
        }
        Some(name) => {
            out.workloads = vec![workload::find(name).ok_or(format!("unknown workload {name}"))?]
        }
    }
    if out.spans.is_some() && (out.all || !out.trace) {
        return Err("--spans needs a single workload and --profile".into());
    }
    Ok(out)
}

fn print(rec: &Record) {
    let mode = if rec.trace { "profile" } else { "untraced" };
    println!(
        "{} seed={} ({mode}): {} requests, {} failed",
        rec.workload, rec.seed, rec.attempted, rec.failed
    );
    for m in &rec.metrics {
        println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if let Some(d) = &rec.digest {
        println!("  {:<34} {d} (fnv1a of every output mean)", "digest");
    }
    for p in &rec.problems {
        println!("  problem: {p}");
    }
    println!("  {:<34} {}", "correct", rec.correct());
}

fn write_json(path: &PathBuf, records: Vec<serde::Value>) -> Result<(), String> {
    let text = serde_json::to_string_pretty(&serde::Value::Array(records))
        .expect("the value model always prints");
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

const RECORD_PREFIX: &str = "record ";

fn run_one(args: &Args) -> i32 {
    let w = args.workloads[0];
    let rec = if args.trace {
        profile::run(w, &args.opts, args.spans.as_deref())
    } else {
        workload::run(w, &args.opts)
    };
    print(&rec);
    let value = rec.to_value();
    println!(
        "{RECORD_PREFIX}{}",
        serde_json::to_string(&value).expect("the value model always prints")
    );
    let mut code = i32::from(!rec.correct());
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, vec![value]) {
            eprintln!("e2e: {e}");
            code = 1;
        }
    }
    println!("{}", rec.result_line());
    code
}

/// Runs every workload in its own process, so one workload's allocations
/// and threads never colour another's numbers.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let mut records = Vec::new();
    for w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.opts.seed.to_string()]);
        if let Some(s) = args.opts.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.trace {
            cmd.arg("--profile");
        }
        if args.opts.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.stderr(Stdio::inherit()).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("e2e: running {}: {e}", w.name);
                code = 1;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            match line.strip_prefix(RECORD_PREFIX) {
                Some(json) => match serde_json::from_str(json) {
                    Ok(v) => records.push(v),
                    Err(e) => eprintln!("e2e: unreadable record from {}: {e}", w.name),
                },
                None => println!("{line}"),
            }
        }
        let _ = std::io::stdout().flush();
        if !out.status.success() {
            code = 1;
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, records) {
            eprintln!("e2e: {e}");
            code = 1;
        }
    }
    code
}

fn real_main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(clean) => i32::from(!clean),
            Err(e) => {
                eprintln!("e2e compare: {e}\n{USAGE}");
                2
            }
        };
    }
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return 0;
    }
    match parse(args) {
        Ok(a) if a.all => run_all(&a),
        Ok(a) => run_one(&a),
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(real_main(&args));
}

#[cfg(test)]
mod tests {
    use super::*;
    use record::{Kind, CATALOGUE};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_and_workloads_exit_2() {
        for bad in [
            &["--workload", "lenet-t50", "--bogus"][..],
            &["--workload", "resnet"],
            &[],
            &["--workload", "lenet-t50", "--trace", "2"],
            &["--workload", "lenet-t50", "--seconds", "0"],
            &["--workload", "all", "--profile", "--spans", "x.jsonl"],
            &["compare", "a.json"],
            &["compare", "--bogus", "a.json", "--", "b.json"],
        ] {
            assert_eq!(real_main(&strings(bad)), 2, "{bad:?}");
        }
    }

    #[test]
    fn smoke_runs_of_every_workload_are_correct() {
        let opts = Opts {
            seed: 3,
            smoke: true,
            ..Opts::default()
        };
        for w in &WORKLOADS {
            let rec = workload::run(w, &opts);
            assert_eq!(
                rec.get("error_rate"),
                Some(0.0),
                "{}: {:?}",
                w.name,
                rec.problems
            );
            assert!(rec.correct(), "{}: {:?}", w.name, rec.problems);
            assert!(rec.digest.is_some());
        }
    }

    #[test]
    fn smoke_profiles_report_every_committed_layer_metric() {
        let opts = Opts {
            seed: 3,
            smoke: true,
            ..Opts::default()
        };
        for w in &WORKLOADS {
            let rec = profile::run(w, &opts, None);
            assert_eq!(rec.failed, 0, "{}: {:?}", w.name, rec.problems);
            for spec in CATALOGUE.iter().filter(|s| s.kind == Kind::Layer) {
                assert!(
                    rec.get(spec.name).is_some(),
                    "{} lacks {}",
                    w.name,
                    spec.name
                );
            }
            assert!(
                !rec.problems.iter().any(|p| p.contains("escapes")),
                "{}: {:?}",
                w.name,
                rec.problems
            );
        }
    }
}
