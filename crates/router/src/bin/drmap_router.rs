//! `drmap-router` — the consistent-hashing cluster tier.
//!
//! ```text
//! drmap-router --backend HOST:PORT [--backend HOST:PORT ...]
//!              [--addr HOST:PORT] [--data-conns N]
//! ```
//!
//! Clients connect to the router exactly as they would to a single
//! `drmap-serve`: it speaks the typed protocol v1 on both sides, routes
//! each job by rendezvous-hashing its cache fingerprint onto a backend,
//! pipelines in-flight jobs over a small per-backend connection pool,
//! and fails jobs on dead backends over to the next-ranked node (jobs
//! are pure, so a resend is safe; a job gets at most 4 dispatches,
//! with a jittered 50 ms – 2 s backoff before each resend). `stats` and
//! `metrics` aggregate across the fleet and configuration verbs
//! broadcast. A job is always forwarded whole. Each client connection has the same in-flight cap
//! as a direct `drmap-serve` connection (128). Dead backends are probed
//! every 500 ms; backend connections must connect within 2 s, and admin
//! fan-out exchanges time out after 10 s. See `docs/CLUSTER.md`.

use std::process::ExitCode;

use drmap_router::proxy::{Router, RouterConfig};
use drmap_service::cli::parse_positive;

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
            "--help" | "-h" => {
                println!(
                    "usage: drmap-router --backend HOST:PORT [--backend HOST:PORT ...] \
                     [--addr HOST:PORT] [--data-conns N]"
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
