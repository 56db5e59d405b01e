//! `drmap-router` — the consistent-hashing cluster tier.
//!
//! ```text
//! drmap-router --backend HOST:PORT [--backend HOST:PORT ...]
//!              [--addr HOST:PORT] [--data-conns N]
//!              [--retry-attempts N] [--retry-base-ms N] [--retry-cap-ms N]
//!              [--probe-ms N] [--connect-timeout-ms N] [--admin-timeout-ms N]
//! ```
//!
//! Clients connect to the router exactly as they would to a single
//! `drmap-serve`: it speaks the typed protocol v1 on both sides, routes
//! each job by rendezvous-hashing its cache fingerprint onto a backend,
//! pipelines in-flight jobs over a small per-backend connection pool,
//! and fails jobs on dead backends over to the next-ranked node (jobs
//! are pure, so a resend is safe). `stats` and `metrics` aggregate
//! across the fleet and configuration verbs broadcast. A job is always
//! forwarded whole. See `docs/CLUSTER.md`.

use std::process::ExitCode;
use std::time::Duration;

use drmap_router::proxy::{Router, RouterConfig};

fn parse_args() -> Result<(String, RouterConfig), String> {
    let mut addr = "127.0.0.1:7879".to_owned();
    let mut cfg = RouterConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--backend" => cfg.backends.push(value("--backend")?),
            "--data-conns" => {
                cfg.data_conns = parse_positive("--data-conns", &value("--data-conns")?)?;
            }
            "--retry-attempts" => {
                cfg.retry.max_attempts =
                    parse_positive("--retry-attempts", &value("--retry-attempts")?)? as u32;
            }
            "--retry-base-ms" => {
                cfg.retry.base_ms =
                    parse_positive("--retry-base-ms", &value("--retry-base-ms")?)? as u64;
            }
            "--retry-cap-ms" => {
                cfg.retry.cap_ms =
                    parse_positive("--retry-cap-ms", &value("--retry-cap-ms")?)? as u64;
            }
            "--probe-ms" => {
                cfg.probe_interval = Duration::from_millis(parse_positive(
                    "--probe-ms",
                    &value("--probe-ms")?,
                )? as u64);
            }
            "--connect-timeout-ms" => {
                cfg.connect_timeout = Duration::from_millis(parse_positive(
                    "--connect-timeout-ms",
                    &value("--connect-timeout-ms")?,
                )? as u64);
            }
            "--admin-timeout-ms" => {
                cfg.admin_timeout = Duration::from_millis(parse_positive(
                    "--admin-timeout-ms",
                    &value("--admin-timeout-ms")?,
                )? as u64);
            }
            "--help" | "-h" => {
                println!(
                    "usage: drmap-router --backend HOST:PORT [--backend HOST:PORT ...] \
                     [--addr HOST:PORT] [--data-conns N] \
                     [--retry-attempts N] [--retry-base-ms N] [--retry-cap-ms N] \
                     [--probe-ms N] [--connect-timeout-ms N] [--admin-timeout-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if cfg.backends.is_empty() {
        return Err("at least one --backend is required".to_owned());
    }
    Ok((addr, cfg))
}

fn parse_positive(name: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|n: &usize| *n > 0)
        .ok_or_else(|| format!("invalid {name} value {v:?} (expected a positive integer)"))
}

fn main() -> ExitCode {
    let (addr, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("drmap-router: {e}");
            return ExitCode::FAILURE;
        }
    };
    let backends = cfg.backends.clone();
    let router = match Router::bind(&addr, cfg) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("drmap-router: cannot bind {addr:?}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match router.local_addr() {
        Ok(bound) => eprintln!(
            "drmap-router: listening on {bound}, routing over {} backend(s): {}",
            backends.len(),
            backends.join(", ")
        ),
        Err(e) => {
            eprintln!("drmap-router: {e}");
            return ExitCode::FAILURE;
        }
    }
    match router.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("drmap-router: {e}");
            ExitCode::FAILURE
        }
    }
}
