//! `drmap-store` — operate a persistent DSE result log offline.
//!
//! ```text
//! drmap-store stats   FILE            sizes, record counts, dead space
//! drmap-store ls      FILE            live keys and value sizes
//! drmap-store get     FILE KEY        decode and print one stored result
//! drmap-store compact FILE            rewrite the log without dead records
//! drmap-store verify  FILE [--decode] checksum-scan (exit 1 if damaged);
//!                                     --decode also decodes every value
//! ```
//!
//! All subcommands other than `compact` open the file strictly
//! read-only — they never create a missing file, never truncate a torn
//! tail, and are safe to run against a live server's log.

use std::process::ExitCode;

use drmap_core::bytes::decode_stored_result;
use drmap_store::store::Store;
use drmap_store::verify::verify;

const USAGE: &str = "usage: drmap-store <stats|ls|get|compact|verify> FILE [KEY] [--decode]";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("drmap-store: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let (command, rest) = args.split_first().ok_or(USAGE.to_owned())?;
    let (file, rest) = rest
        .split_first()
        .ok_or(format!("{command} needs FILE\n{USAGE}"))?;
    match command.as_str() {
        "stats" => cmd_stats(file),
        "ls" => cmd_ls(file),
        "get" => {
            let (key, _) = rest
                .split_first()
                .ok_or(format!("get needs FILE KEY\n{USAGE}"))?;
            cmd_get(file, key)
        }
        "compact" => cmd_compact(file),
        "verify" => {
            let decode = rest.iter().any(|a| a == "--decode");
            cmd_verify(file, decode)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn cmd_stats(file: &str) -> Result<bool, String> {
    let store = Store::open_read_only(file).map_err(|e| e.to_string())?;
    let s = store.stats();
    println!("log:             {file}");
    println!("file bytes:      {}", s.file_bytes);
    println!("live entries:    {}", s.live_entries);
    println!("records:         {} ({} dead)", s.records, s.dead_records);
    println!("live value bytes: {}", s.live_value_bytes);
    println!("dead bytes:      {}", s.dead_bytes);
    if s.recovered_bytes > 0 {
        println!(
            "damaged tail:    {} torn/corrupt bytes (not indexed; a writable \
             open would truncate them)",
            s.recovered_bytes
        );
    }
    Ok(true)
}

fn cmd_ls(file: &str) -> Result<bool, String> {
    use std::io::Write;
    let store = Store::open_read_only(file).map_err(|e| e.to_string())?;
    // Write through a handle so `drmap-store ls … | head` ends quietly
    // on a closed pipe instead of panicking.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (key, len) in store.entries() {
        if writeln!(out, "{len:>10}  {key}").is_err() {
            break;
        }
    }
    Ok(true)
}

fn cmd_get(file: &str, key: &str) -> Result<bool, String> {
    let store = Store::open_read_only(file).map_err(|e| e.to_string())?;
    let Some(value) = store.get(key).map_err(|e| e.to_string())? else {
        return Err(format!("no such key {key:?}"));
    };
    match decode_stored_result(&value) {
        Ok((result, compute_ns)) => {
            println!("key:         {key}");
            println!("layer:       {}", result.layer_name);
            println!("best:        {}", result.best);
            println!("evaluations: {}", result.evaluations);
            println!("pareto:      {} points", result.pareto.len());
            println!("computed in: {:.3} ms", compute_ns as f64 / 1e6);
        }
        Err(e) => {
            println!("key:        {key}");
            println!(
                "value:      {} bytes (not a stored DSE result: {e})",
                value.len()
            );
        }
    }
    Ok(true)
}

fn cmd_compact(file: &str) -> Result<bool, String> {
    let store = Store::open(file).map_err(|e| e.to_string())?;
    let report = store.compact().map_err(|e| e.to_string())?;
    println!(
        "compacted {file}: {} -> {} bytes, kept {} live records, dropped {} dead",
        report.bytes_before, report.bytes_after, report.live_records, report.dropped_records,
    );
    Ok(true)
}

fn cmd_verify(file: &str, decode: bool) -> Result<bool, String> {
    let report = verify(file, decode).map_err(|e| e.to_string())?;
    println!(
        "{file}: {} records ({} live keys, {} dead), {}/{} bytes valid",
        report.records,
        report.live_keys,
        report.dead_records,
        report.valid_bytes,
        report.file_bytes,
    );
    if decode {
        println!(
            "decoded: {} ok, {} undecodable",
            report.decoded, report.undecodable
        );
    }
    match &report.tail_error {
        Some(reason) => println!("DAMAGED: {reason}"),
        None => println!("clean"),
    }
    Ok(report.is_clean())
}
