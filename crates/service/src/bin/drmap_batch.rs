//! `drmap-batch` — pipeline a batch of DSE jobs to a running
//! `drmap-serve` (or `drmap-router`) and print a throughput and cache
//! report, or drive its control plane.
//!
//! ```text
//! drmap-batch --connect HOST:PORT [SPEC_FILE] [--models a,b,c] [--arch ARCH]
//!             [--objective OBJ] [--repeat R]
//! drmap-batch --connect HOST:PORT --admin REQUEST [REQUEST…] [--text]
//! ```
//!
//! `SPEC_FILE` holds one JSON job per line (the server's request
//! format; blank lines and `#` comments ignored). Without a file,
//! `--models` (default `alexnet,squeezenet,tiny`) builds one job per
//! zoo network. `--repeat R` submits the whole batch `R` times —
//! repeats hit the server's memo cache (and concurrent duplicates
//! coalesce onto one in-flight computation). Every job goes on the wire
//! up front and responses return out of order as they complete.
//!
//! `--admin` switches to **control-plane mode**: each remaining
//! argument is one protocol request (`docs/PROTOCOL.md`), written as
//! its JSON object or as a bare verb name standing for
//! `{"type":"<verb>"}`. Every argument is decoded before the client
//! connects; the requests go out in order, each answer is printed as
//! its wire line, and the first `"ok": false` answer exits non-zero:
//!
//! ```text
//! drmap-batch --connect 127.0.0.1:7878 --admin '{"type":"hello","version":1}' \
//!     '{"type":"set-bounds","max_entries":512}' cache-warm store-compact stats
//! ```
//!
//! With `--text`, a `metrics` answer prints as Prometheus-style text
//! exposition instead (see `docs/OBSERVABILITY.md`):
//!
//! ```text
//! drmap-batch --connect 127.0.0.1:7878 --admin metrics --text
//! ```

use std::process::ExitCode;
use std::time::Instant;

use drmap_service::cli::parse_positive as positive;
use drmap_service::client::Client;
use drmap_service::error::ServiceError;
use drmap_service::json::{Json, MAX_EXACT_INT};
use drmap_service::prelude::Network;
use drmap_service::proto::{Label, Request, Response};
use drmap_service::spec::{EngineSpec, JobResult, JobSpec};
use drmap_service::wire;

struct Args {
    spec_file: Option<String>,
    models: Vec<String>,
    engine: EngineSpec,
    repeat: usize,
    connect: String,
    /// Each `--admin` argument as given (for error messages) and its
    /// decoded request.
    admin: Option<Vec<(String, Request)>>,
    text: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec_file: None,
        models: vec!["alexnet".into(), "squeezenet".into(), "tiny".into()],
        engine: EngineSpec::default(),
        repeat: 1,
        connect: String::new(),
        admin: None,
        text: false,
    };
    let mut connect = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--arch" => args.engine.arch = label(&value("--arch")?)?,
            "--objective" => args.engine.objective = label(&value("--objective")?)?,
            "--repeat" => args.repeat = positive("--repeat", &value("--repeat")?)?,
            "--connect" => connect = Some(value("--connect")?),
            // A repeated --admin is a no-op, not a reset: requests
            // already collected must survive.
            "--admin" => {
                args.admin.get_or_insert_with(Vec::new);
            }
            "--text" => args.text = true,
            "--help" | "-h" => {
                println!(
                    "usage: drmap-batch --connect HOST:PORT [SPEC_FILE] [--models a,b,c] \
                     [--arch ARCH] [--objective OBJ] [--repeat R] \
                     [--admin REQUEST [REQUEST...] [--text]]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') && args.admin.is_some() => {
                args.admin
                    .as_mut()
                    .expect("checked is_some")
                    .push((other.to_owned(), admin_request(other)?));
            }
            other if !other.starts_with('-') && args.spec_file.is_none() => {
                args.spec_file = Some(other.to_owned());
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    args.connect = connect.ok_or("--connect HOST:PORT is required: jobs run on a live server")?;
    if let Some(requests) = &args.admin {
        if requests.is_empty() {
            return Err("--admin needs at least one request (try --help)".to_owned());
        }
        // Batch-only arguments are rejected, not silently ignored.
        if let Some(path) = &args.spec_file {
            return Err(format!(
                "a spec file ({path:?}) does not apply in --admin mode"
            ));
        }
        if args.repeat != 1 {
            return Err("--repeat does not apply in --admin mode".to_owned());
        }
    }
    let metrics = |(_, request): &(String, Request)| matches!(request, Request::Metrics { .. });
    if args.text && !args.admin.iter().flatten().any(metrics) {
        return Err("--text only applies in --admin mode, to a metrics request".to_owned());
    }
    Ok(args)
}

/// An `--arch`/`--objective` value, read as the job codec reads the
/// wire label.
fn label<T: Label>(value: &str) -> Result<T, String> {
    T::parse_label(value).map_err(|e| ServiceError::protocol(e).to_string())
}

/// One `--admin` argument as its request: a JSON object, or a bare
/// verb name standing for `{"type":"<verb>"}`, through the server's
/// own decoder.
fn admin_request(arg: &str) -> Result<Request, String> {
    let line = if arg.starts_with('{') {
        arg.to_owned()
    } else {
        Json::obj([("type", Json::str(arg))]).render()
    };
    wire::decode_request(&line).map_err(|e| format!("--admin {arg}: {}", e.message))
}

/// Send each admin request in order and print its answer as its wire
/// line; the first non-ok answer aborts with its error. `text` prints a
/// `metrics` answer as Prometheus-style exposition instead.
fn run_admin(addr: &str, text: bool, requests: &[(String, Request)]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let mut frame = String::new();
    for (arg, request) in requests {
        let fail = |e: ServiceError| format!("{arg}: {e}");
        match client.typed_request(request).map_err(fail)? {
            Response::Metrics { report, .. } if text => {
                print!("{}", report.snapshot.to_prometheus());
            }
            response => {
                wire::write_encoded(&mut std::io::stdout(), &mut frame, |t| response.encode(t))
                    .map_err(fail)?;
            }
        }
    }
    Ok(())
}

fn load_specs(args: &Args) -> Result<Vec<JobSpec>, String> {
    if let Some(path) = &args.spec_file {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let mut specs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            specs.push(JobSpec::from_json(&parsed).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
        }
        if specs.is_empty() {
            return Err(format!("{path:?} contains no job specs"));
        }
        return Ok(specs);
    }
    args.models
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Network::by_name(name)
                .map(|net| JobSpec::network(i as u64 + 1, args.engine, net))
                .ok_or_else(|| format!("unknown model {name:?}"))
        })
        .collect()
}

/// The full batch: every spec, `repeat` times over. Rounds are offset
/// by the batch's maximum id plus one (not its length — spec files may
/// use sparse ids, and an id of 0 must still move), so repeats of
/// distinct-id specs stay distinct: the pipelined path needs unique
/// ids as its correlation keys. A batch whose offset ids would pass
/// [`MAX_EXACT_INT`], the largest id the wire carries, is refused
/// whole rather than sent for the server to reject.
fn batch_of(specs: &[JobSpec], repeat: usize) -> Result<Vec<JobSpec>, String> {
    let stride = u128::from(specs.iter().map(|s| s.id).max().unwrap_or(0)) + 1;
    let mut batch = Vec::with_capacity(specs.len() * repeat);
    for round in 0..repeat as u128 {
        for spec in specs {
            let id = u128::from(spec.id) + round * stride;
            let id = u64::try_from(id)
                .ok()
                .filter(|&id| id <= MAX_EXACT_INT)
                .ok_or_else(|| {
                    format!(
                        "job id {} repeated {repeat} times needs id {id}, past the wire's \
                         largest id 2^53 ({MAX_EXACT_INT})",
                        spec.id
                    )
                })?;
            batch.push(JobSpec { id, ..spec.clone() });
        }
    }
    Ok(batch)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("drmap-batch: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pipeline the batch to a running server: every job on the wire up
/// front, responses collected as they complete.
fn run_connected(addr: &str, batch: &[JobSpec]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let start = Instant::now();
    let outcomes = client.submit_batch(batch).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let mut results: Vec<JobResult> = Vec::with_capacity(outcomes.len());
    let mut failures = 0usize;
    for (spec, outcome) in batch.iter().zip(outcomes) {
        match outcome {
            Ok(result) => results.push(result),
            Err(e) => {
                failures += 1;
                eprintln!("drmap-batch: job {} failed: {e}", spec.id);
            }
        }
    }
    println!("job  workload            layers  cached  coalesced  stored  total-EDP (J*s)");
    for result in &results {
        println!(
            "{:<4} {:<20} {:>5} {:>7} {:>9} {:>7}  {:.4e}",
            result.id,
            result.workload,
            result.layers.len(),
            result.cache_hits(),
            result.coalesced_hits(),
            result.store_hits(),
            result.total.edp(),
        );
    }
    let layers: usize = results.iter().map(|r| r.layers.len()).sum();
    println!();
    println!(
        "{} jobs ({} layers, {} failed) pipelined to {} in {:.3}s  ->  \
         {:.2} jobs/s, {:.1} layers/s",
        results.len(),
        layers,
        failures,
        addr,
        elapsed,
        results.len() as f64 / elapsed,
        layers as f64 / elapsed,
    );
    if let Ok(report) = client.stats_report() {
        let stats = report.cache;
        println!(
            "server cache: {} hits / {} misses / {} coalesced ({:.1}% hit rate), \
             {} entries, {} bytes, {} evictions, {} workers",
            stats.hits,
            stats.misses,
            stats.coalesced,
            stats.hit_rate() * 100.0,
            stats.entries,
            stats.bytes,
            stats.evictions,
            report.workers,
        );
        if stats.store_hits + stats.store_misses > 0 {
            println!(
                "server store: {} hits / {} misses; {:.1} ms of exploration represented",
                stats.store_hits,
                stats.store_misses,
                stats.compute_ns_total as f64 / 1e6,
            );
        }
    }
    if failures > 0 {
        return Err(format!("{failures} job(s) failed"));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(requests) = &args.admin {
        return run_admin(&args.connect, args.text, requests);
    }
    let batch = batch_of(&load_specs(&args)?, args.repeat)?;
    run_connected(&args.connect, &batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_stay_distinct_and_never_pass_the_wire_id_limit() {
        let spec = |id| JobSpec {
            id,
            ..JobSpec::network(0, EngineSpec::default(), Network::tiny())
        };
        let ids = |batch: Vec<JobSpec>| batch.iter().map(|s| s.id).collect::<Vec<_>>();
        // Sparse ids and an id of 0: rounds step by the maximum id + 1.
        let batch = batch_of(&[spec(0), spec(5)], 3).unwrap();
        assert_eq!(ids(batch), [0, 5, 6, 11, 12, 17]);
        // The wire's largest id goes out once; a repeat would pass it.
        assert_eq!(
            ids(batch_of(&[spec(MAX_EXACT_INT)], 1).unwrap()),
            [MAX_EXACT_INT]
        );
        let err = batch_of(&[spec(MAX_EXACT_INT)], 2).unwrap_err();
        assert!(err.contains("job id 9007199254740992"), "{err}");
        assert!(err.contains("needs id 18014398509481985"), "{err}");
        assert!(err.contains("2^53"), "{err}");
    }
}
