#![warn(missing_docs)]

//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `EXPERIMENTS.md` for the mapping) and supports:
//!
//! * `--quick` — a shrunken configuration for smoke testing;
//! * `--t <N>` / `--seed <N>` — override the sample count / master seed;
//! * `--threads <N>` — worker threads for exact MC-dropout passes;
//! * `--json <path>` — dump the result record as JSON;
//! * `--trace-out <path>` / `--metrics-out <path>` — install a telemetry
//!   recorder for the run and export it as a JSONL trace / a
//!   Prometheus-style text dump on exit (see `docs/OBSERVABILITY.md`).
//!
//! Unknown flags and malformed values are hard errors: [`parse_args`]
//! prints the problem and exits with status 2.

use fast_bcnn::experiments::ExpConfig;

pub mod baseline;
pub mod harness;
pub mod record;
pub mod trace_lint;

pub use record::BenchRecord;

/// Command-line options shared by every harness binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// The experiment configuration (quick or full).
    pub cfg: ExpConfig,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional JSONL telemetry trace output path.
    pub trace_out: Option<String>,
    /// Optional Prometheus-style metrics output path.
    pub metrics_out: Option<String>,
}

impl HarnessArgs {
    /// Installs a telemetry recorder when `--trace-out` or
    /// `--metrics-out` was given. Keep the returned sink alive for the
    /// whole run: the files are written when it drops.
    pub fn telemetry(&self) -> Option<fast_bcnn::telemetry::FileSink> {
        fast_bcnn::telemetry::FileSink::new(self.trace_out.as_deref(), self.metrics_out.as_deref())
    }
}

/// Parses the common flags from `std::env::args`, exiting with status 2
/// on any unknown flag or malformed value.
pub fn parse_args() -> HarnessArgs {
    let args: Vec<String> = std::env::args().collect();
    match from_arg_list(&args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: [--quick] [--t <N>] [--seed <N>] [--threads <N>] [--json <path>] \
                 [--trace-out <path>] [--metrics-out <path>]"
            );
            std::process::exit(2);
        }
    }
}

/// Parses the common flags from a slice (testable form of
/// [`parse_args`]).
///
/// # Errors
///
/// Returns a message for an unknown flag, a flag missing its value, or a
/// value that does not parse (including `--threads 0`).
pub fn from_arg_list(args: &[String]) -> Result<HarnessArgs, String> {
    fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
        let raw = value(args, i, flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} needs a number, got `{raw}`"))
    }

    let mut cfg = ExpConfig::default();
    let mut json = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExpConfig::quick(),
            "--json" => {
                json = Some(value(args, i, "--json")?.to_string());
                i += 1;
            }
            "--trace-out" => {
                trace_out = Some(value(args, i, "--trace-out")?.to_string());
                i += 1;
            }
            "--metrics-out" => {
                metrics_out = Some(value(args, i, "--metrics-out")?.to_string());
                i += 1;
            }
            "--t" => {
                cfg.t = number(args, i, "--t")?;
                i += 1;
            }
            "--seed" => {
                cfg.seed = number(args, i, "--seed")?;
                i += 1;
            }
            "--threads" => {
                cfg.threads = number(args, i, "--threads")?;
                if cfg.threads == 0 {
                    return Err("--threads needs a value >= 1".to_string());
                }
                i += 1;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(HarnessArgs {
        cfg,
        json,
        trace_out,
        metrics_out,
    })
}

/// Command-line options of the soak harnesses that build their own
/// campaign config (`loadgen`, `supervise`): `[--quick] [--seed <N>]
/// [--json <path>] [--trace-out <path>] [--metrics-out <path>]` plus the
/// harness's own valued flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakArgs {
    /// Whether `--quick` (the CI smoke campaign) was given.
    pub quick: bool,
    /// Campaign seed (default 11).
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional JSONL telemetry trace output path.
    pub trace_out: Option<String>,
    /// Optional Prometheus-style metrics output path.
    pub metrics_out: Option<String>,
    /// Raw values of the harness's own flags, keyed by flag.
    pub extra: std::collections::BTreeMap<String, String>,
}

/// Parses soak-harness flags from a slice, accepting the valued flags
/// in `extra` on top of the common ones (testable form of
/// [`parse_soak_args`]).
///
/// # Errors
///
/// Returns a message for an unknown flag, a flag missing its value, or
/// a `--seed` that does not parse.
pub fn soak_args_from(args: &[String], extra: &[&str]) -> Result<SoakArgs, String> {
    let mut out = SoakArgs {
        seed: 11,
        ..SoakArgs::default()
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        if !["--seed", "--json", "--trace-out", "--metrics-out"].contains(&flag)
            && !extra.contains(&flag)
        {
            return Err(format!("unknown flag: {flag}"));
        }
        let value = args
            .get(i)
            .cloned()
            .ok_or(format!("{flag} needs a value"))?;
        i += 1;
        match flag {
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs a number, got `{value}`"))?;
            }
            "--json" => out.json = Some(value),
            "--trace-out" => out.trace_out = Some(value),
            "--metrics-out" => out.metrics_out = Some(value),
            _ => {
                out.extra.insert(flag.to_string(), value);
            }
        }
    }
    Ok(out)
}

/// Prints `error` and the harness's `usage` line, then exits 2.
pub fn usage_error(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// [`soak_args_from`] over `std::env::args`, exiting 2 with `usage` on
/// any error.
pub fn parse_soak_args(usage: &str, extra: &[&str]) -> SoakArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    soak_args_from(&args, extra).unwrap_or_else(|e| usage_error(&e, usage))
}

/// Writes the JSON record if `--json` was given.
pub fn maybe_dump<T: serde::Serialize>(args: &HarnessArgs, value: &T) {
    if let Some(path) = &args.json {
        if let Err(e) = fast_bcnn::report::save_json(path, value) {
            eprintln!("failed to write {path}: {e}");
        } else {
            eprintln!("wrote {path}");
        }
    }
}

/// Validates `record`, then writes it to `path` as pretty JSON (kept
/// even when invalid, so a failing run leaves its evidence behind).
/// Exits 1 when the write fails or the record is invalid, reporting the
/// failure under `tool`'s name.
pub fn write_record(tool: &str, record: &BenchRecord, path: &str) {
    let verdict = record.validate();
    if let Err(e) = fast_bcnn::report::save_json(path, record) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
    if let Err(reason) = verdict {
        eprintln!("{tool}: FAIL — {reason}");
        std::process::exit(1);
    }
}

/// Exports a harness's private telemetry registry to the
/// `--trace-out` (JSONL) and `--metrics-out` (Prometheus text) paths
/// that were given, exiting 1 when a write fails. Soaks record into
/// their own registry because the global install lock is not
/// reentrant, so harnesses export from it after the run.
pub fn export_registry(
    registry: &fast_bcnn::telemetry::Registry,
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) {
    let written = [
        trace_out.map(|p| (p, registry.write_jsonl(p))),
        metrics_out.map(|p| (p, registry.write_prometheus(p))),
    ];
    for (path, result) in written.into_iter().flatten() {
        if let Err(e) = result {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_args() {
        let a = from_arg_list(&[]).unwrap();
        assert_eq!(a.cfg, ExpConfig::default());
        assert_eq!(a.cfg.threads, 1);
        assert!(a.json.is_none());
    }

    #[test]
    fn quick_and_json_flags() {
        let a = from_arg_list(&strings(&["--quick", "--json", "/tmp/x.json"])).unwrap();
        assert_eq!(a.cfg, ExpConfig::quick());
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn t_override() {
        let a = from_arg_list(&strings(&["--t", "12"])).unwrap();
        assert_eq!(a.cfg.t, 12);
    }

    #[test]
    fn seed_override() {
        let a = from_arg_list(&strings(&["--seed", "99"])).unwrap();
        assert_eq!(a.cfg.seed, 99);
    }

    #[test]
    fn threads_override() {
        let a = from_arg_list(&strings(&["--threads", "4"])).unwrap();
        assert_eq!(a.cfg.threads, 4);
        // --quick resets the config; order matters, last writer wins.
        let b = from_arg_list(&strings(&["--threads", "4", "--quick"])).unwrap();
        assert_eq!(b.cfg.threads, 1);
    }

    #[test]
    fn telemetry_flags_parse_and_gate_the_sink() {
        let a = from_arg_list(&strings(&[
            "--trace-out",
            "/tmp/t.jsonl",
            "--metrics-out",
            "/tmp/m.prom",
        ]))
        .unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.prom"));
        let none = from_arg_list(&[]).unwrap();
        assert!(none.telemetry().is_none(), "no flags -> no recorder");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = from_arg_list(&strings(&["--bogus"])).unwrap_err();
        assert!(e.contains("--bogus"), "unhelpful message: {e}");
    }

    #[test]
    fn soak_flags_parse_with_harness_extras() {
        let a = soak_args_from(&strings(&["--quick", "--mode", "open"]), &["--mode"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.seed, 11);
        assert_eq!(a.extra.get("--mode").map(String::as_str), Some("open"));
        assert!(soak_args_from(&strings(&["--mode", "open"]), &[]).is_err());
        assert!(soak_args_from(&strings(&["--seed"]), &[]).is_err());
        assert!(soak_args_from(&strings(&["--seed", "x"]), &[]).is_err());
        assert!(soak_args_from(&strings(&["--t", "4"]), &[]).is_err());
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(from_arg_list(&strings(&["--t"])).is_err());
        assert!(from_arg_list(&strings(&["--t", "many"])).is_err());
        assert!(from_arg_list(&strings(&["--threads", "0"])).is_err());
        assert!(from_arg_list(&strings(&["--json"])).is_err());
    }
}
