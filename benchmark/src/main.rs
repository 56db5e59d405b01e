//! `drmap-benchmark` — the repo's one benchmark. See `README.md`.
//!
//! ```text
//! drmap-benchmark --workload NAME --bin-dir DIR --root DIR
//!                 [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!                 [--regen-golden] [--commit ID] [--rustc VERSION]
//! drmap-benchmark aa-table DIR BENCHMARK.json
//! drmap-benchmark catalogue
//! ```
//!
//! Prints every metric as `name value unit`, writes the result (and, on
//! a traced run, the trace) under `ROOT/out/`, prints a one-line JSON
//! summary last, and exits non-zero if any correctness gate failed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aa;
mod children;
mod client;
mod digest;
mod host;
mod probe;
mod report;
mod service_probes;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use drmap_service::json::Json;

use report::{Outcome, RunInfo, WORKLOADS};
use workloads::serve::Kind;
use workloads::Config;

/// Measured seconds of a `--smoke` run.
const SMOKE_SECONDS: f64 = 2.0;

/// Raw spans kept in a trace file; the per-name summary covers them all.
const TRACE_FILE_SPANS: usize = 20_000;

struct Args {
    workload: String,
    smoke: bool,
    commit: String,
    rustc: String,
    cfg: Config,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        smoke: false,
        commit: "unknown".to_owned(),
        rustc: "unknown".to_owned(),
        cfg: Config {
            seed: 1,
            seconds: 18.0,
            traced: false,
            regen_golden: false,
            root: PathBuf::from("benchmark"),
            bin_dir: PathBuf::from("target/release"),
        },
    };
    let mut seconds_given = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.cfg.seed = v.parse().map_err(|_| format!("invalid --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.cfg.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("invalid --seconds {v:?}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace {other:?} (expected 0 or 1)")),
                };
            }
            "--traced" => args.cfg.traced = true,
            "--smoke" => args.smoke = true,
            "--regen-golden" => args.cfg.regen_golden = true,
            "--root" => args.cfg.root = PathBuf::from(value()?),
            "--bin-dir" => args.cfg.bin_dir = PathBuf::from(value()?),
            "--commit" => args.commit = value()?,
            "--rustc" => args.rustc = value()?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.smoke && !seconds_given {
        args.cfg.seconds = SMOKE_SECONDS;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &Config) -> Outcome {
    match name {
        "dse-sweep" => workloads::dse_sweep::run(cfg),
        "sim-validate" => workloads::sim_validate::run(cfg),
        "serve-hot" => workloads::serve::run(Kind::Hot, cfg),
        "serve-cold" => workloads::serve::run(Kind::Cold, cfg),
        "route-mixed" => workloads::route_mixed::run(cfg),
        other => unreachable!("parse_args admitted unknown workload {other:?}"),
    }
}

/// Removes this process's scratch directory when the run ends, however
/// it ends, so repeated runs never recover each other's logs.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let cfg = &args.cfg;
    let tmp = TmpDir(cfg.tmp_dir());
    std::fs::create_dir_all(&tmp.0)
        .map_err(|e| format!("cannot create {}: {e}", tmp.0.display()))?;
    let out_dir = cfg.root.join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let outcome = run_workload(&args.workload, cfg);
    drop(tmp);

    let info = RunInfo {
        seed: cfg.seed,
        seconds: cfg.seconds,
        smoke: args.smoke,
        traced: cfg.traced,
    };
    let environment = host::environment(
        &args.commit,
        &args.rustc,
        vec![
            ("load_threads", Json::num_usize(host::load_threads())),
            ("setup_repeats", Json::num_usize(workloads::SETUP_REPEATS)),
        ],
    );
    let doc = report::result_document(&outcome, &info, environment);
    report::validate_result(&doc).map_err(|e| format!("result failed its schema: {e}"))?;

    for violation in &outcome.violations {
        eprintln!("FAIL {}: {violation}", outcome.workload);
    }
    println!(
        "# {} seed {} {}s{}{}",
        outcome.workload,
        cfg.seed,
        cfg.seconds,
        if cfg.traced { " traced" } else { "" },
        if args.smoke { " smoke" } else { "" },
    );
    for (name, unit) in report::printed_metrics(cfg.traced) {
        println!("{name} {} {unit}", outcome.values.get(name).unwrap_or(0.0));
    }
    println!(
        "attempted {} succeeded {} failed {}",
        outcome.attempted,
        outcome.attempted.saturating_sub(outcome.failed),
        outcome.failed
    );

    let suffix = if cfg.traced { "-traced" } else { "" };
    let path = out_dir.join(format!("result-{}{suffix}.json", outcome.workload));
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if cfg.traced {
        let path = out_dir.join(format!("trace-{}.json", outcome.workload));
        let trace = spans::to_json(&outcome.spans, TRACE_FILE_SPANS);
        std::fs::write(&path, trace.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    // Last line: the one-object summary.
    println!("{}", report::summary_line(&outcome, cfg.traced).render());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("aa-table") => {
            let rest: Vec<String> = argv.skip(1).collect();
            return match rest.as_slice() {
                [dir, bounds] => aa::table(dir.as_ref(), bounds.as_ref()),
                _ => {
                    eprintln!("usage: drmap-benchmark aa-table DIR BENCHMARK.json");
                    ExitCode::from(2)
                }
            };
        }
        Some("catalogue") => {
            println!("{}", report::catalogue_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("drmap-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("drmap-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn driver_form_and_developer_form_both_parse() {
        let a = parse(&[
            "--workload",
            "serve-hot",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve-hot");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.traced), (9, 12.0, true));
        let b = parse(&["--workload", "dse-sweep", "--smoke", "--traced"]).unwrap();
        assert!(b.smoke && b.cfg.traced);
        assert_eq!(b.cfg.seconds, SMOKE_SECONDS);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "dse-sweep", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "dse-sweep", "--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
