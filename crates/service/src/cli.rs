//! Small argument-parsing helpers shared by the `drmap-serve`,
//! `drmap-batch` and `drmap-router` binaries: flag values and the
//! `drmap-batch --admin` command language.

use crate::client::hello_request;
use crate::faults::FaultPlan;
use crate::proto::{BoundsUpdate, Request};

/// Parse a flag value as a positive integer, rejecting zero, negatives,
/// and garbage with a uniform error message.
///
/// # Errors
///
/// Returns `"invalid <flag> value <value>"` when the value is not a
/// positive integer.
pub fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .ok_or_else(|| format!("invalid {flag} value {value:?}"))
}

/// Parse one `--admin` command token straight into the [`Request`] it
/// sends. The language is the verb's wire name, with its fields after
/// an `=`:
///
/// * `hello`, `ping`, `stats`, `metrics`, `cache-clear`, `shutdown`;
/// * `cache-warm[=N]` — promote at most `N` stored results;
/// * `store-compact[=auto:RATIO]` — rewrite the log now, or arm the
///   background check at that dead-bytes ratio (`auto:0` disarms);
/// * `set-bounds=entries:N|bytes:N[,…]` — `0` clears a bound;
/// * `set-slow-log=slow_ms:N|cap:N[,…]` — `slow_ms:0` logs every job;
/// * `set-faults=SPEC|off` — spec grammar in `docs/RELIABILITY.md`.
///
/// # Errors
///
/// Returns a usage message for unknown commands or malformed values.
pub fn parse_admin_command(token: &str) -> Result<Request, String> {
    let (name, value) = match token.split_once('=') {
        Some((name, value)) => (name, Some(value)),
        None => (token, None),
    };
    let no_value = |request: Request| match value {
        None => Ok(request),
        Some(_) => Err(format!("admin command {name:?} takes no value")),
    };
    match name {
        "hello" => no_value(hello_request()),
        "ping" => no_value(Request::Ping { id: None }),
        "stats" => no_value(Request::Stats { id: None }),
        "metrics" => no_value(Request::Metrics { id: None }),
        "set-slow-log" => {
            let value = value.ok_or(
                "set-slow-log needs a value, e.g. set-slow-log=slow_ms:250,cap:64 \
                 (slow_ms:0 logs every job)",
            )?;
            let mut slow_ms = None;
            let mut cap = None;
            for pair in value.split(',') {
                let (key, n) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("set-slow-log field {pair:?} is not key:value"))?;
                match key {
                    // 0 is meaningful here: it logs every job.
                    "slow_ms" => {
                        slow_ms = Some(n.parse().map_err(|_| {
                            format!("invalid slow_ms value {n:?} (milliseconds, 0 logs all)")
                        })?);
                    }
                    "cap" => cap = Some(parse_positive(key, n)?),
                    other => {
                        return Err(format!(
                            "unknown set-slow-log field {other:?} (expected slow_ms or cap)"
                        ))
                    }
                }
            }
            if slow_ms.is_none() && cap.is_none() {
                return Err("set-slow-log changed nothing".to_owned());
            }
            Ok(Request::SetSlowLog {
                id: None,
                slow_ms,
                cap,
            })
        }
        "set-faults" => {
            let value = value.ok_or(
                "set-faults needs a value: a fault-plan spec \
                 (e.g. set-faults=seed=42,store-fail=0.1) or \"off\" to disarm",
            )?;
            // Parsed here to fail fast; sent in canonical form.
            let spec = match value {
                "off" => None,
                spec => Some(FaultPlan::parse(spec).map_err(|e| e.to_string())?.render()),
            };
            Ok(Request::SetFaults { id: None, spec })
        }
        "cache-clear" => no_value(Request::CacheClear { id: None }),
        "store-compact" => {
            let auto_ratio = value.map(|v| {
                v.strip_prefix("auto:")
                    .and_then(|r| r.parse::<f64>().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| {
                        format!(
                            "invalid store-compact value {v:?} \
                             (expected auto:RATIO with RATIO in [0, 1]; 0 disarms)"
                        )
                    })
            });
            Ok(Request::StoreCompact {
                id: None,
                auto_ratio: auto_ratio.transpose()?,
            })
        }
        "shutdown" => no_value(Request::Shutdown { id: None }),
        "cache-warm" => Ok(Request::CacheWarm {
            id: None,
            limit: value.map(|v| parse_positive("cache-warm", v)).transpose()?,
        }),
        "set-bounds" => {
            let value = value.ok_or(
                "set-bounds needs a value, e.g. set-bounds=entries:512,bytes:1048576 \
                 (0 clears a bound)",
            )?;
            let mut update = BoundsUpdate::default();
            for pair in value.split(',') {
                let (key, n) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("set-bounds field {pair:?} is not key:value"))?;
                // 0 is meaningful for both: it clears the bound to
                // unbounded.
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("invalid {key} value {n:?} (integer, 0 clears)"))?;
                match key {
                    "entries" => update.max_entries = Some(n),
                    "bytes" => update.max_bytes = Some(n),
                    other => {
                        return Err(format!(
                            "unknown set-bounds field {other:?} (expected entries or bytes)"
                        ))
                    }
                }
            }
            if update.is_empty() {
                return Err("set-bounds changed nothing".to_owned());
            }
            Ok(Request::SetBounds { id: None, update })
        }
        other => Err(format!(
            "unknown admin command {other:?} (expected hello, ping, stats, set-bounds, \
             set-slow-log, set-faults, cache-clear, cache-warm, store-compact, metrics, \
             or shutdown)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_commands_parse_and_reject_garbage() {
        let parsed = |token: &str| parse_admin_command(token).unwrap();
        assert_eq!(parsed("hello"), hello_request());
        assert_eq!(
            parsed("cache-warm"),
            Request::CacheWarm {
                id: None,
                limit: None
            }
        );
        assert_eq!(
            parsed("cache-warm=50"),
            Request::CacheWarm {
                id: None,
                limit: Some(50)
            }
        );
        assert_eq!(
            parsed("store-compact"),
            Request::StoreCompact {
                id: None,
                auto_ratio: None
            }
        );
        assert_eq!(
            parsed("store-compact=auto:0.4"),
            Request::StoreCompact {
                id: None,
                auto_ratio: Some(0.4)
            }
        );
        assert_eq!(parsed("metrics"), Request::Metrics { id: None });
        assert_eq!(
            parsed("set-slow-log=slow_ms:0,cap:64"),
            Request::SetSlowLog {
                id: None,
                slow_ms: Some(0),
                cap: Some(64),
            }
        );
        assert_eq!(
            parsed("set-slow-log=cap:8"),
            Request::SetSlowLog {
                id: None,
                slow_ms: None,
                cap: Some(8),
            }
        );
        assert_eq!(
            parsed("set-bounds=entries:64,bytes:0"),
            Request::SetBounds {
                id: None,
                update: BoundsUpdate {
                    max_entries: Some(64),
                    max_bytes: Some(0),
                }
            }
        );
        assert_eq!(
            parsed("set-faults=off"),
            Request::SetFaults {
                id: None,
                spec: None
            }
        );
        // A fault spec goes out in its canonical rendering.
        let plan = FaultPlan::parse("seed=42,store-fail=0.1").unwrap();
        assert_eq!(plan.seed, 42);
        assert!((plan.store_fail - 0.1).abs() < 1e-12);
        assert_eq!(
            parsed("set-faults=seed=42,store-fail=0.1"),
            Request::SetFaults {
                id: None,
                spec: Some(plan.render())
            }
        );
        for bad in [
            "reboot",
            "ping=1",
            "cache-warm=zero",
            "metrics=all",
            "set-bounds",
            "set-bounds=",
            "set-bounds=rows:4",
            "set-bounds=entries:x",
            // Verbs that no longer exist.
            "metrics-history",
            "slow-traces=5",
            "set-overload=enabled:on",
            "set-slow-log",
            "set-slow-log=",
            "set-slow-log=cap:0",
            "set-slow-log=slow_ms:fast",
            "set-slow-log=threshold:4",
            "set-faults",
            "set-faults=seed=nope",
            "set-faults=store-fail=2.0",
            "store-compact=0.4",
            "store-compact=auto:1.5",
            "store-compact=auto:now",
        ] {
            assert!(parse_admin_command(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accepts_positive_rejects_the_rest() {
        assert_eq!(parse_positive("--workers", "4"), Ok(4));
        for bad in ["0", "-1", "four", "", "1.5"] {
            let err = parse_positive("--workers", bad).unwrap_err();
            assert!(err.contains("--workers"), "{err}");
        }
    }
}
