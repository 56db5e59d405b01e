//! Small argument-parsing helpers shared by the `drmap-serve` and
//! `drmap-batch` binaries: flag values and the `drmap-batch --admin`
//! command language.

use crate::faults::FaultPlan;
use crate::proto::BoundsUpdate;

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

/// One `drmap-batch --admin` command, parsed from its token form.
/// (`PartialEq` only: [`FaultPlan`] carries probability floats.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdminCmd {
    /// `hello` — handshake; print version + capabilities.
    Hello,
    /// `ping` — liveness.
    Ping,
    /// `stats` — extended stats with the active configuration.
    Stats,
    /// `set-bounds=entries:N|bytes:N[,…]` — retune the cache bounds
    /// (`0` clears a bound to unbounded).
    SetBounds(BoundsUpdate),
    /// `metrics` — dump the telemetry snapshot and slow-request log
    /// (`--text` renders Prometheus-style exposition instead).
    Metrics,
    /// `set-slow-log=slow_ms:N|cap:N[,…]` — retune the slow-request
    /// log threshold (`slow_ms:0` logs every job) and/or ring capacity.
    SetSlowLog {
        /// New threshold in milliseconds, when given.
        slow_ms: Option<u64>,
        /// New ring capacity, when given.
        cap: Option<usize>,
    },
    /// `set-faults=SPEC|off` — arm a deterministic fault plan (spec
    /// grammar in `docs/RELIABILITY.md`, e.g.
    /// `set-faults=seed=42,store-fail=0.1`) or disarm with `off`.
    SetFaults(Option<FaultPlan>),
    /// `cache-clear` — drop the resident cache tier.
    CacheClear,
    /// `cache-warm[=N]` — promote stored results into the cache.
    CacheWarm(Option<usize>),
    /// `store-compact[=auto:RATIO]` — rewrite the store log now, or
    /// arm the background auto-compaction check at the given
    /// dead-bytes ratio (`auto:0` disarms).
    StoreCompact(Option<f64>),
    /// `shutdown` — stop the server accepting connections.
    Shutdown,
}

/// Parse one `--admin` command token (see [`AdminCmd`] for the
/// language).
///
/// # Errors
///
/// Returns a usage message for unknown commands or malformed values.
pub fn parse_admin_command(token: &str) -> Result<AdminCmd, String> {
    let (name, value) = match token.split_once('=') {
        Some((name, value)) => (name, Some(value)),
        None => (token, None),
    };
    let no_value = |cmd: AdminCmd| match value {
        None => Ok(cmd),
        Some(_) => Err(format!("admin command {name:?} takes no value")),
    };
    match name {
        "hello" => no_value(AdminCmd::Hello),
        "ping" => no_value(AdminCmd::Ping),
        "stats" => no_value(AdminCmd::Stats),
        "metrics" => no_value(AdminCmd::Metrics),
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
            Ok(AdminCmd::SetSlowLog { slow_ms, cap })
        }
        "set-faults" => {
            let value = value.ok_or(
                "set-faults needs a value: a fault-plan spec \
                 (e.g. set-faults=seed=42,store-fail=0.1) or \"off\" to disarm",
            )?;
            if value == "off" {
                return Ok(AdminCmd::SetFaults(None));
            }
            let plan = FaultPlan::parse(value).map_err(|e| e.to_string())?;
            Ok(AdminCmd::SetFaults(Some(plan)))
        }
        "cache-clear" => no_value(AdminCmd::CacheClear),
        "store-compact" => match value {
            None => Ok(AdminCmd::StoreCompact(None)),
            Some(v) => {
                let ratio = v
                    .strip_prefix("auto:")
                    .and_then(|r| r.parse::<f64>().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| {
                        format!(
                            "invalid store-compact value {v:?} \
                             (expected auto:RATIO with RATIO in [0, 1]; 0 disarms)"
                        )
                    })?;
                Ok(AdminCmd::StoreCompact(Some(ratio)))
            }
        },
        "shutdown" => no_value(AdminCmd::Shutdown),
        "cache-warm" => match value {
            None => Ok(AdminCmd::CacheWarm(None)),
            Some(v) => Ok(AdminCmd::CacheWarm(Some(parse_positive("cache-warm", v)?))),
        },
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
            Ok(AdminCmd::SetBounds(update))
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
        assert_eq!(parse_admin_command("hello"), Ok(AdminCmd::Hello));
        assert_eq!(
            parse_admin_command("cache-warm"),
            Ok(AdminCmd::CacheWarm(None))
        );
        assert_eq!(
            parse_admin_command("cache-warm=50"),
            Ok(AdminCmd::CacheWarm(Some(50)))
        );
        assert_eq!(
            parse_admin_command("store-compact"),
            Ok(AdminCmd::StoreCompact(None))
        );
        assert_eq!(
            parse_admin_command("store-compact=auto:0.4"),
            Ok(AdminCmd::StoreCompact(Some(0.4)))
        );
        assert_eq!(parse_admin_command("metrics"), Ok(AdminCmd::Metrics));
        assert_eq!(
            parse_admin_command("set-slow-log=slow_ms:0,cap:64"),
            Ok(AdminCmd::SetSlowLog {
                slow_ms: Some(0),
                cap: Some(64),
            })
        );
        assert_eq!(
            parse_admin_command("set-slow-log=cap:8"),
            Ok(AdminCmd::SetSlowLog {
                slow_ms: None,
                cap: Some(8),
            })
        );
        assert_eq!(
            parse_admin_command("set-bounds=entries:64,bytes:0"),
            Ok(AdminCmd::SetBounds(BoundsUpdate {
                max_entries: Some(64),
                max_bytes: Some(0),
            }))
        );
        assert_eq!(
            parse_admin_command("set-faults=off"),
            Ok(AdminCmd::SetFaults(None))
        );
        match parse_admin_command("set-faults=seed=42,store-fail=0.1") {
            Ok(AdminCmd::SetFaults(Some(plan))) => {
                assert_eq!(plan.seed, 42);
                assert!((plan.store_fail - 0.1).abs() < 1e-12);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
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
