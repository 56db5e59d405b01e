//! The typed, versioned service protocol: every message the server and
//! client exchange, as Rust enums with one JSON codec.
//!
//! ## Versioning
//!
//! The protocol version is a single integer, [`PROTOCOL_VERSION`].
//! A client *may* open a connection with a [`Request::Hello`]
//! advertising the version it speaks; the server answers with a
//! [`Response::Hello`] carrying its own version and capability list, or
//! an error naming the version it supports (the connection stays usable
//! — a multi-version client can downgrade and continue). The handshake
//! is optional: requests are self-describing, so a client that knows
//! what it speaks may skip straight to business.
//!
//! Compatibility rules:
//!
//! * Additions (new verbs, new optional request fields, new response
//!   fields) do **not** bump the version — unknown response fields must
//!   be ignored by clients, and unknown verbs answer with a typed
//!   error.
//! * Changes to the meaning or shape of an *existing* field bump
//!   [`PROTOCOL_VERSION`]; servers reject hellos for versions they do
//!   not speak.
//!
//! ## One dialect, one codec
//!
//! Every message — request or response — is a JSON object whose
//! `"type"` field names its verb. A message without one is answered
//! with a typed error (`{"type":"error", …}`); nothing else is spoken
//! on the wire. Each message's shape, and each object it carries — the
//! job spec and the job result included — is declared **once**, as a
//! field table (see "The codec" below): [`Request::encode`],
//! [`Request::decode`], [`Response::encode`], [`Response::decode`] and
//! the `id` accessors are all generated from the same rows, so a field
//! cannot be written under one name and read under another.
//!
//! The one encoder writes text through [`JsonText`], straight into the
//! connection writer's frame buffer; `to_json` is the parse of that
//! text.
//! Messages travel as newline-delimited JSON text (see
//! [`crate::wire`]).
//!
//! See `docs/PROTOCOL.md` for the full verb-by-verb reference.

use drmap_cnn::layer::{Layer, LayerKind};
use drmap_cnn::network::Network;
use drmap_core::dse::Objective;
use drmap_core::edp::EdpEstimate;
use drmap_core::pareto::DesignPoint;
use drmap_core::tiling::Tiling;
use drmap_dram::timing::DramArch;
use drmap_store::store::{CompactReport, StoreStats};
use drmap_telemetry::{HistogramSnapshot, MetricsSnapshot, SlowEntry};

use crate::cache::CacheStats;
use crate::error::ServiceError;
use crate::faults::FaultPlan;
use crate::json::{Json, JsonText};
use crate::spec::{CacheMode, EngineSpec, JobOptions, JobResult, JobSpec, LayerOutcome, Workload};

/// The protocol version this build speaks. See the module docs for
/// when it bumps.
pub const PROTOCOL_VERSION: u64 = 1;

/// The protocol's dialect tag. There is exactly one — typed
/// `{"type": …}` messages — and nothing branches on it; the type
/// survives only because [`Request::decode`] and [`Response::render`]
/// are pinned, with it in their signatures, by the frozen `benchmark/`
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// `{"type": …}` messages of the versioned protocol.
    V1,
}

/// The capability strings a server advertises in its hello response.
/// `store` appears only when a persistent result store is attached
/// (without it, `cache-warm` and `store-compact` answer with errors).
/// `faults` appears only in builds with fault
/// injection compiled in (debug, or the `faults` cargo feature) —
/// release servers without it refuse `set-faults` outright.
pub fn capabilities(store_attached: bool) -> Vec<String> {
    let mut caps = vec![
        "jobs".to_owned(),
        "pipelining".to_owned(),
        "per-job-options".to_owned(),
        "admin".to_owned(),
        "metrics".to_owned(),
        "set-bounds".to_owned(),
        "deadlines".to_owned(),
    ];
    if crate::faults::FAULTS_COMPILED_IN {
        caps.push("faults".to_owned());
    }
    if store_attached {
        caps.push("store".to_owned());
    }
    caps
}

/// The answer to a `hello` advertising `version`, from a tier that
/// identifies itself as `server` with `capabilities`: accepted iff
/// `version` is [`PROTOCOL_VERSION`], otherwise a typed error naming
/// ours. Either way the connection stays open, so a multi-version
/// client can downgrade and continue.
pub fn answer_hello(version: u64, server: String, capabilities: Vec<String>) -> Response {
    if version == PROTOCOL_VERSION {
        Response::Hello {
            version,
            server,
            capabilities,
        }
    } else {
        Response::Error {
            id: None,
            message: format!(
                "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
            ),
        }
    }
}

/// The capability string `drmap-router` adds to the backend
/// intersection it advertises, so clients can tell a cluster tier from
/// a single node.
/// Backends never advertise it.
pub(crate) const ROUTER_CAPABILITY: &str = "router";

/// The capability set a router advertises: the intersection of its
/// healthy backends' capabilities — a verb is only promised when every
/// node that might serve it understands it — plus `ROUTER_CAPABILITY`.
pub fn router_capabilities(backend_caps: &[Vec<String>]) -> Vec<String> {
    let mut caps: Vec<String> = match backend_caps.split_first() {
        None => Vec::new(),
        Some((first, rest)) => first
            .iter()
            .filter(|cap| rest.iter().all(|other| other.contains(cap)))
            .cloned()
            .collect(),
    };
    caps.push(ROUTER_CAPABILITY.to_owned());
    caps
}

/// A partial cache-bounds update: absent fields keep the running
/// cache's current bound. `0` on the wire clears a bound entirely
/// (unbounded), since "absent" already means "keep".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundsUpdate {
    /// New resident-entry cap; `Some(0)` clears it (unbounded).
    pub max_entries: Option<usize>,
    /// New approximate-byte cap; `Some(0)` clears it (unbounded).
    pub max_bytes: Option<usize>,
}

impl BoundsUpdate {
    /// True when the update changes nothing. Clients reject empty
    /// updates as usage errors rather than sending silent no-ops.
    pub(crate) fn is_empty(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }

    /// The entry-bound field in the cache's nested-option form:
    /// `None` keeps, `Some(None)` clears to unbounded, `Some(Some(n))`
    /// sets.
    pub(crate) fn entries_action(&self) -> Option<Option<usize>> {
        Self::action(self.max_entries)
    }

    /// As [`BoundsUpdate::entries_action`], for the byte bound.
    pub(crate) fn bytes_action(&self) -> Option<Option<usize>> {
        Self::action(self.max_bytes)
    }

    fn action(field: Option<usize>) -> Option<Option<usize>> {
        match field {
            None => None,
            Some(0) => Some(None),
            Some(n) => Some(Some(n)),
        }
    }
}

/// Everything a client can ask of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open the conversation: advertise the protocol version the
    /// client speaks (and optionally who it is, for server logs).
    Hello {
        /// Protocol version the client speaks.
        version: u64,
        /// Free-form client identification, e.g. `drmap-batch/0.1.0`.
        client: Option<String>,
    },
    /// Liveness check.
    Ping {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Fetch counters plus the **active configuration** (live cache
    /// bounds, protocol version).
    Stats {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Stop accepting connections.
    Shutdown {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Drop every resident cache entry and zero the counters (the
    /// persistent store tier is untouched).
    CacheClear {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Promote stored results into the resident cache tier.
    CacheWarm {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// At most this many entries (`None`: up to the cache's entry
        /// bound, or everything).
        limit: Option<usize>,
    },
    /// Rewrite the persistent store's log, dropping superseded records
    /// — and/or retune the background auto-compaction check.
    StoreCompact {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// Without `auto_ratio`, compact unconditionally right now
        /// (the wire-compatible pre-auto-compaction behavior). With
        /// it, arm the background check at that dead-bytes ratio
        /// (`0` disarms, since "absent" already means "compact now")
        /// and compact immediately only if the store is already past
        /// the threshold.
        auto_ratio: Option<f64>,
    },
    /// Fetch the telemetry snapshot: every counter, gauge, and latency
    /// histogram, plus the slow-request log.
    Metrics {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Retune the cache's resident bounds on the live server
    /// (shrinking a bound evicts down to the new cap immediately).
    SetBounds {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// Partial update; absent fields keep their current values.
        update: BoundsUpdate,
    },
    /// Retune the slow-request log live: its threshold and/or its ring
    /// capacity. Absent fields keep their current values.
    SetSlowLog {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// New slow threshold in milliseconds (`0` logs everything).
        slow_ms: Option<u64>,
        /// New ring capacity (clamped to at least 1).
        cap: Option<usize>,
    },
    /// Arm, replace, or disarm the deterministic fault plan on the
    /// live server. Only honored by builds with fault injection
    /// compiled in (debug, or the `faults` cargo feature) — the
    /// capability list advertises `faults` when it is.
    SetFaults {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// The plan to arm; absent disarms fault injection.
        spec: Option<FaultPlan>,
    },
    /// Run a DSE job (the job's own `id` is the correlation key).
    Submit(JobSpec),
}

/// A snapshot of the server's counters **and active configuration**,
/// carried by the `stats` response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsReport {
    /// Cache counters and sizes.
    pub cache: CacheStats,
    /// Resident-entry bound, if any.
    pub max_entries: Option<usize>,
    /// Approximate-byte bound, if any.
    pub max_bytes: Option<usize>,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Persistent-store counters, when a store is attached.
    pub store: Option<StoreStats>,
    /// How many backends stand behind this endpoint: `Some(n)` from a
    /// `drmap-router` (whose report sums its backends' counters),
    /// `None` from a single node.
    pub backends: Option<usize>,
}

/// The telemetry snapshot carried by the typed `metrics` response:
/// every registered counter, gauge, and latency histogram, plus the
/// slow-request log. Clients can render the snapshot as
/// Prometheus-style text exposition via
/// [`drmap_telemetry::MetricsSnapshot::to_prometheus`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Every registered metric, sorted by name.
    pub snapshot: MetricsSnapshot,
    /// The most recent slow requests, oldest first.
    pub slow: Vec<SlowEntry>,
}

/// Everything the server can answer.
// The size spread (a stats report is ~an order of magnitude bigger than
// a pong) is fine here: responses are transient — built, rendered to
// JSON, and dropped — never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Hello {
        /// Protocol version the server speaks.
        version: u64,
        /// Server identification, e.g. `drmap-service/0.1.0`.
        server: String,
        /// What this server can do (see [`capabilities`]).
        capabilities: Vec<String>,
    },
    /// `ping` answer.
    Pong {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `stats` answer.
    Stats {
        /// Echoed request id.
        id: Option<u64>,
        /// Counters plus active configuration.
        report: StatsReport,
    },
    /// `shutdown` acknowledged: the server stops accepting.
    Shutdown {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `cache clear` done.
    CacheCleared {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `cache warm` done.
    CacheWarmed {
        /// Echoed request id.
        id: Option<u64>,
        /// Entries promoted into the resident tier.
        loaded: usize,
    },
    /// `store compact` done.
    StoreCompacted {
        /// Echoed request id.
        id: Option<u64>,
        /// What the compaction accomplished.
        report: CompactReport,
    },
    /// `metrics` answer.
    Metrics {
        /// Echoed request id.
        id: Option<u64>,
        /// The telemetry snapshot and slow-request log.
        report: MetricsReport,
    },
    /// `set-bounds` applied.
    BoundsSet {
        /// Echoed request id.
        id: Option<u64>,
        /// The resident-entry bound now in force.
        max_entries: Option<usize>,
        /// The approximate-byte bound now in force.
        max_bytes: Option<usize>,
        /// The entry bound that was in force before.
        previous_entries: Option<usize>,
        /// The byte bound that was in force before.
        previous_bytes: Option<usize>,
        /// Entries evicted immediately to honor a shrunk bound.
        evicted: u64,
    },
    /// `set-slow-log` applied.
    SlowLogSet {
        /// Echoed request id.
        id: Option<u64>,
        /// The threshold now in force, in milliseconds (`None`:
        /// logging disabled).
        slow_ms: Option<u64>,
        /// The ring capacity now in force.
        cap: usize,
        /// The threshold that was in force before.
        previous_ms: Option<u64>,
        /// The capacity that was in force before.
        previous_cap: usize,
    },
    /// `set-faults` applied.
    FaultsSet {
        /// Echoed request id.
        id: Option<u64>,
        /// The plan now armed (`None`: fault injection disarmed).
        spec: Option<FaultPlan>,
    },
    /// The job's `deadline_ms` elapsed before its result was ready;
    /// the server abandoned the remaining work.
    DeadlineExceeded {
        /// Echoed job id.
        id: Option<u64>,
        /// The deadline the job carried, in milliseconds.
        deadline_ms: u64,
    },
    /// A job finished successfully.
    Job {
        /// The job's result (its `id` is the correlation key).
        result: JobResult,
    },
    /// Anything that failed.
    Error {
        /// Echoed request/job id, when one was recognizable.
        id: Option<u64>,
        /// What went wrong.
        message: String,
    },
}
/// A request that could not be decoded, with the correlation id (when
/// one was recognizable) so the error can be matched to its request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// The request's id, when one was recognizable.
    pub id: Option<u64>,
    /// What was wrong with it.
    pub message: String,
}

// ---------------------------------------------------------------------
// The codec: every wire shape is declared once, as a field table
// ---------------------------------------------------------------------
//
// A table row names each field once — `mode field [as "wire-name"]` —
// and both directions are generated from it: the write half calls
// `Writer::mode`, the read half `Reader::mode`. The modes:
//
//   req   required field
//   opt   `Option` field, left out when `None`
//   null  `Option` field, rendered as `null` when `None`
//   def   always written; absent reads as the default, while a present
//         value — `null` included — must decode
//   skip  left out when equal to the default; read as `def` reads.
//         `skip field = expr` takes `expr` as the default instead of
//         the type's
//   flat  nested object whose members are spliced into this one
//   map   name/value pairs rendered as one `{name: value}` object
//   out   write-only field computed from the others: `out "name" = expr`
//
// Field order in a table is field order on the wire. A nested object
// must be an object; range rules no row can state live in one
// `validate` per type. Labels (`"SALP-2"`, `"refresh"`) are
// `wire_labels!` rows. Two shapes are not rows, and keep one
// hand-written `Wire` impl each below: a job's `Workload` (a `network`
// or a `layer`, a network by zoo name or layer list) and a `Layer`
// (its kind decides which dimensions it reads).

/// A value with exactly one JSON form. Decode failures are plain
/// messages; [`Request::decode`], [`Response::decode`] and
/// [`JobSpec::from_json`] wrap them in their error types.
pub(crate) trait Wire: Sized {
    fn encode(&self, out: &mut JsonText<'_>);
    fn from_json(v: &Json) -> Result<Self, String>;
}

/// A [`Wire`] value whose form is an object, so a `flat` row can splice
/// its members into the object being written.
trait Members: Wire {
    fn members(&self, out: &mut JsonText<'_>);
}

macro_rules! wire_scalars {
    ($($ty:ty: $expected:literal, |$v:ident, $out:ident| $to:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            fn encode(&self, $out: &mut JsonText<'_>) {
                let $v = self;
                $to
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                ($from)(v).ok_or_else(|| concat!("expected ", $expected).to_owned())
            }
        }
    )*};
}

wire_scalars! {
    u64: "a non-negative integer", |n, out| out.num(*n as f64), Json::as_u64;
    usize: "a non-negative integer", |n, out| out.num(*n as f64), Json::as_usize;
    u32: "a non-negative integer below 2^32", |n, out| out.num(f64::from(*n)),
        |v: &Json| v.as_u64().and_then(|n| u32::try_from(n).ok());
    i64: "an integer", |n, out| out.num(*n as f64),
        |v: &Json| v.as_f64().filter(|n| n.fract() == 0.0).map(|n| n as i64);
    f64: "a number", |n, out| out.num(*n), Json::as_f64;
    bool: "a boolean", |b, out| out.bool(*b), Json::as_bool;
    String: "a string", |s, out| out.str(s), |v: &Json| v.as_str().map(str::to_owned);
}

/// An enum that travels as one label of a fixed set.
pub trait Label: Sized {
    /// The value `label` names.
    ///
    /// # Errors
    ///
    /// An unknown label; the message lists the expected ones.
    fn parse_label(label: &str) -> Result<Self, String>;
}

/// Declare each label enum's wire form: every value, its label, how a
/// received label is compared, and the error for an unknown one.
macro_rules! wire_labels {
    ($($Ty:ty: $all:expr, $label:expr, $eq:expr, $unknown:literal;)*) => {$(
        impl Label for $Ty {
            fn parse_label(label: &str) -> Result<Self, String> {
                let eq: fn(&str, &str) -> bool = $eq;
                $all.into_iter()
                    .find(|&value| eq(($label)(value), label))
                    .ok_or_else(|| format!($unknown, label))
            }
        }

        impl Wire for $Ty {
            fn encode(&self, out: &mut JsonText<'_>) {
                out.str(($label)(*self));
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                Self::parse_label(v.as_str().ok_or("expected a string")?)
            }
        }
    )*};
}

wire_labels! {
    CacheMode: CacheMode::ALL, CacheMode::label, str::eq,
        "unknown cache mode {:?} (expected default/bypass/refresh)";
    DramArch: DramArch::ALL, DramArch::label, str::eq_ignore_ascii_case,
        "unknown arch {:?} (expected one of DDR3/SALP-1/SALP-2/SALP-MASA)";
    Objective: Objective::ALL, Objective::label, str::eq_ignore_ascii_case,
        "unknown objective {:?} (expected edp/energy/delay/ed2p)";
    LayerKind: [LayerKind::Conv, LayerKind::FullyConnected],
        |kind| match kind { LayerKind::Conv => "conv", LayerKind::FullyConnected => "fc" },
        str::eq, "unknown layer kind {:?} (expected conv/fc)";
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut JsonText<'_>) {
        out.array(|a| self.iter().for_each(|item| item.encode(a)));
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        let items = v.as_array().ok_or("expected an array")?;
        items.iter().map(T::from_json).collect()
    }
}

/// Pairs travel as two-element arrays (histogram buckets, trace stages).
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut JsonText<'_>) {
        out.array(|a| {
            self.0.encode(a);
            self.1.encode(a);
        });
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err("expected a two-element array".to_owned()),
        }
    }
}

/// An `Option` under a `skip` row travels as its value: `None` is the
/// default, so it is never written, and `null` does not read as it.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut JsonText<'_>) {
        match self {
            Some(value) => value.encode(out),
            None => out.null(),
        }
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        T::from_json(v).map(Some)
    }
}

/// The write half of a field table: one method per mode, each writing
/// members into the object its writer has open.
struct Writer<'a, 'b>(&'a mut JsonText<'b>);

impl Writer<'_, '_> {
    fn req<T: Wire>(&mut self, name: &str, value: &T) {
        value.encode(self.0.key(name));
    }

    fn opt<T: Wire>(&mut self, name: &str, value: &Option<T>) {
        if let Some(value) = value {
            self.req(name, value);
        }
    }

    fn null<T: Wire>(&mut self, name: &str, value: &Option<T>) {
        match value {
            Some(value) => self.req(name, value),
            None => self.0.key(name).null(),
        }
    }

    fn def<T: Wire>(&mut self, name: &str, value: &T) {
        self.req(name, value);
    }

    fn skip<T: Wire + Default + PartialEq>(&mut self, name: &str, value: &T) {
        self.skip_unless(name, value, &T::default());
    }

    fn skip_unless<T: Wire + PartialEq>(&mut self, name: &str, value: &T, default: &T) {
        if value != default {
            self.req(name, value);
        }
    }

    fn flat<T: Members>(&mut self, _name: &str, value: &T) {
        value.members(self.0);
    }

    fn map<T: Wire>(&mut self, name: &str, entries: &[(String, T)]) {
        self.0
            .key(name)
            .object(|o| entries.iter().for_each(|(k, v)| v.encode(o.key(k))));
    }
}

/// The read half of a field table: one method per mode. `what` names
/// the object being read in "missing field" errors.
struct Reader<'a> {
    v: &'a Json,
    what: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader over `v`, which must be an object.
    fn object(v: &'a Json, what: &'a str) -> Result<Self, String> {
        match v {
            Json::Obj(_) => Ok(Reader { v, what }),
            _ => Err("expected an object".to_owned()),
        }
    }

    fn req<T: Wire>(&self, name: &str) -> Result<T, String> {
        self.opt(name)?
            .ok_or_else(|| format!("{} missing {name:?}", self.what))
    }

    /// An absent field and an explicit `null` both read as `None`,
    /// whichever of the two the writer's mode produces.
    fn opt<T: Wire>(&self, name: &str) -> Result<Option<T>, String> {
        match self.v.get(name) {
            Some(Json::Null) => Ok(None),
            field => Self::decode(name, field),
        }
    }

    fn null<T: Wire>(&self, name: &str) -> Result<Option<T>, String> {
        self.opt(name)
    }

    fn def<T: Wire + Default>(&self, name: &str) -> Result<T, String> {
        Ok(self.present(name)?.unwrap_or_default())
    }

    fn skip<T: Wire + Default>(&self, name: &str) -> Result<T, String> {
        self.def(name)
    }

    /// The field decoded if present — `null` included — else `None`.
    fn present<T: Wire>(&self, name: &str) -> Result<Option<T>, String> {
        Self::decode(name, self.v.get(name))
    }

    fn decode<T: Wire>(name: &str, field: Option<&Json>) -> Result<Option<T>, String> {
        let decode = |v| T::from_json(v).map_err(|e| format!("{name:?}: {e}"));
        field.map(decode).transpose()
    }

    fn flat<T: Wire>(&self, _name: &str) -> Result<T, String> {
        T::from_json(self.v)
    }

    fn map<T: Wire>(&self, name: &str) -> Result<Vec<(String, T)>, String> {
        let Some(Json::Obj(entries)) = self.v.get(name) else {
            return Err(format!("{} missing object {name:?}", self.what));
        };
        entries
            .iter()
            .map(|(k, v)| match T::from_json(v) {
                Ok(v) => Ok((k.clone(), v)),
                Err(e) => Err(format!("{name}.{k}: {e}")),
            })
            .collect()
    }
}

/// One table row → the statement that writes it.
macro_rules! put {
    ($w:ident, out $name:literal = $value:expr) => {
        $w.req($name, &$value)
    };
    ($w:ident, skip $field:ident = $default:expr) => {
        $w.skip_unless(stringify!($field), $field, &$default)
    };
    ($w:ident, $mode:ident $field:ident) => {
        $w.$mode(stringify!($field), $field)
    };
    ($w:ident, $mode:ident $field:ident as $name:literal) => {
        $w.$mode($name, $field)
    };
}

/// One table row → the binding that reads it (`out` rows read nothing).
macro_rules! get {
    ($r:ident, out $name:literal = $value:expr) => {};
    ($r:ident, skip $field:ident = $default:expr) => {
        let $field = $r.present(stringify!($field))?.unwrap_or($default);
    };
    ($r:ident, $mode:ident $field:ident) => {
        let $field = $r.$mode(stringify!($field))?;
    };
    ($r:ident, $mode:ident $field:ident as $name:literal) => {
        let $field = $r.$mode($name)?;
    };
}

/// The top-level `"id"` a message's rows put on the wire, if any: an
/// `id` field, a computed `"id"`, or the id a flattened job `spec`
/// brings with it. Field names go through `@named` twice — once to
/// compare, once to use — because hygiene hides the row's binding from
/// a literal `id` written here.
macro_rules! id_of {
    () => { None };
    ([out "id" = $value:expr] $($rest:tt)*) => { Some($value) };
    ([$mode:ident $field:ident] $($rest:tt)*) => { id_of!(@named $field $field $($rest)*) };
    ([$($other:tt)*] $($rest:tt)*) => { id_of!($($rest)*) };
    (@named id $id:ident $($rest:tt)*) => { *$id };
    (@named spec $spec:ident $($rest:tt)*) => { Some($spec.id) };
    (@named $other:ident $field:ident $($rest:tt)*) => { id_of!($($rest)*) };
}

/// Declare a nested object's wire shape. `$shape` is the struct
/// literal that both destructures a value (write) and rebuilds it from
/// the fields read (read); the short form derives it from the rows,
/// the long form spells it out — for nested destructuring — and names
/// the value so `out` rows can call its methods. A trailing path names
/// a `fn(&Ty, &Json) -> Result<(), String>` that checks the decoded value.
macro_rules! wire_object {
    ($what:literal $Ty:ident => {
        $($mode:ident $field:ident $(as $name:literal)? $(= $value:expr)?),* $(,)?
    } $($validate:path)?) => {
        wire_object!(_this: $what $Ty { $($field),* } => {
            $($mode $field $(as $name)? $(= $value)?),*
        } $($validate)?);
    };
    ($this:ident: $what:literal $Ty:ident $shape:tt => {
        $($mode:ident $field:tt $(as $name:literal)? $(= $value:expr)?),* $(,)?
    } $($validate:path)?) => {
        impl Members for $Ty {
            fn members(&self, out: &mut JsonText<'_>) {
                let $this = self;
                let $Ty $shape = $this;
                let mut w = Writer(out);
                $( put!(w, $mode $field $(as $name)? $(= $value)?); )*
            }
        }

        impl Wire for $Ty {
            fn encode(&self, out: &mut JsonText<'_>) {
                out.object(|o| self.members(o));
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                let r = Reader::object(v, $what)?;
                $( get!(r, $mode $field $(as $name)? $(= $value)?); )*
                let value = $Ty $shape;
                $( $validate(&value, v)?; )?
                Ok(value)
            }
        }
    };
}

/// Declare a message enum's wire shapes, one row per verb:
/// `"verb" Variant shape => { rows }`. Generates `encode` (and
/// `to_json`, the parse of its text), the `from_json` behind `decode`, and `id`. The `requests` form also
/// takes, beside each verb, the `hello` capability that advertises it
/// (`[None]` for the baseline verbs every server speaks) and generates
/// `capability` — `drmap-check`'s `proto-doc-drift` lint reads those
/// rows.
macro_rules! wire_messages {
    ($Enum:ident, $what:literal; $(
        $verb:literal $Variant:ident $shape:tt => {
            $($mode:ident $field:tt $(as $name:literal)? $(= $value:expr)?),* $(,)?
        }
    )*) => {
        impl $Enum {
            /// Write the message's wire form into `out`: `"type"`
            /// first, then the verb's fields.
            pub fn encode(&self, out: &mut JsonText<'_>) {
                out.object(|o| match self {$(
                    $Enum::$Variant $shape => {
                        let mut w = Writer(o);
                        w.0.key("type").str($verb);
                        $( put!(w, $mode $field $(as $name)? $(= $value)?); )*
                    }
                )*});
            }

            /// The message's wire form as a tree: the parse of the
            /// text [`Self::encode`] writes, so it renders back to
            /// those bytes.
            pub fn to_json(&self) -> Json {
                let mut text = String::new();
                self.encode(&mut JsonText::new(&mut text));
                Json::parse(&text).expect("the encoder writes well-formed JSON")
            }

            fn from_json(v: &Json) -> Result<Self, String> {
                let kind = match v.get("type") {
                    Some(kind) => kind.as_str().ok_or("\"type\" must be a string")?,
                    None => return Err(concat!($what, " carries no \"type\"").to_owned()),
                };
                match kind {
                    $($verb => {
                        let r = Reader { v, what: $verb };
                        $( get!(r, $mode $field $(as $name)? $(= $value)?); )*
                        Ok($Enum::$Variant $shape)
                    })*
                    other => Err(format!(concat!("unknown ", $what, " type {:?}"), other)),
                }
            }

            /// The correlation id the message carries at its top level
            /// (a job's own id for `submit` and `job`).
            #[allow(unused_variables)]
            pub fn id(&self) -> Option<u64> {
                match self {$(
                    $Enum::$Variant $shape => id_of!($([$mode $field $(= $value)?])*),
                )*}
            }
        }
    };
    (requests $Enum:ident, $what:literal; $(
        $verb:literal [$capability:expr] $Variant:ident $shape:tt => $rows:tt
    )*) => {
        wire_messages!($Enum, $what; $( $verb $Variant $shape => $rows )*);

        impl $Enum {
            /// The `hello` capability that advertises this verb
            /// (`None`: a baseline verb every server speaks).
            #[cfg(test)]
            pub(crate) fn capability(&self) -> Option<&'static str> {
                match self {$(
                    $Enum::$Variant { .. } => $capability,
                )*}
            }
        }
    };
}

// ---------------------------------------------------------------------
// Nested objects
// ---------------------------------------------------------------------

wire_object! { "bounds update" BoundsUpdate => { opt max_entries, opt max_bytes }}

wire_object! { "store stats" StoreStats => {
    req live_entries, req records, req dead_records, req file_bytes, req live_value_bytes,
    req dead_bytes, req appends, req gets, req hits, req compactions, req recovered_bytes,
}}

wire_object! { "compaction report" CompactReport => {
    req live_records, req dropped_records, req bytes_before, req bytes_after,
}}

// The cache counters are scattered between the report's own fields on
// the wire (the order predates the configuration fields), hence the
// spelled-out shape.
wire_object! { report: "stats" StatsReport {
    cache: CacheStats {
        hits, misses, coalesced, bypasses, refreshes, evictions, entries, bytes, store_hits,
        store_misses, store_errors, compute_ns_min, compute_ns_max, compute_ns_total,
    },
    max_entries, max_bytes, workers, store, backends,
} => {
    req hits, req misses, req coalesced, req evictions, req entries,
    req bytes, out "hit_rate" = report.cache.hit_rate(), req workers,
    req store_hits, req store_misses, req store_errors,
    req compute_ns_min, req compute_ns_max, req compute_ns_total,
    req bypasses, req refreshes, null max_entries, null max_bytes,
    out "protocol_version" = PROTOCOL_VERSION,
    // Only router reports carry `backends`, only store-backed servers
    // `store`.
    opt backends, opt store,
}}

// Precomputed quantiles are a reader convenience; decoders ignore them
// and recompute from the buckets.
wire_object! { h: "histogram" HistogramSnapshot { count, sum, min, max, buckets } => {
    req count, req sum, req min, req max,
    out "p50" = h.p50(), out "p95" = h.p95(), out "p99" = h.p99(), out "p999" = h.p999(),
    req buckets,
} histogram_buckets }

/// The rule the histogram's rows cannot state: its buckets are ones a
/// histogram has, in the order it keeps them.
fn histogram_buckets(h: &HistogramSnapshot, _: &Json) -> Result<(), String> {
    h.check_buckets()
}

wire_object! { "slow entry" SlowEntry => { req trace_id, req total_ns, req stages }}

wire_object! { "metrics" MetricsSnapshot => { map counters, map gauges, map histograms }}

wire_object! { "metrics" MetricsReport => { flat snapshot, req slow }}

// Absent members keep the default plan's values.
wire_object! { "fault plan" FaultPlan => {
    def seed, skip store_fail, skip store_delay,
    skip store_delay_ms = FaultPlan::default().store_delay_ms,
    skip wire_drop, skip wire_stall,
    skip wire_stall_ms = FaultPlan::default().wire_stall_ms,
    skip panic_job,
} FaultPlan::validate }

impl FaultPlan {
    /// The rules the plan's rows cannot state: only its own members,
    /// fractions in `0..=1`, a 1-based `panic_job`, and something to
    /// inject.
    fn validate(&self, v: &Json) -> Result<(), String> {
        const MEMBERS: &str = "seed, store_fail, store_delay, store_delay_ms, wire_drop, \
                               wire_stall, wire_stall_ms, panic_job";
        if let Json::Obj(members) = v {
            let known = |name: &str| MEMBERS.split(", ").any(|m| m == name);
            if let Some((name, _)) = members.iter().find(|(name, _)| !known(name)) {
                return Err(format!(
                    "unknown fault plan member {name:?} (known: {MEMBERS})"
                ));
            }
        }
        let fractions = [
            ("store_fail", self.store_fail),
            ("store_delay", self.store_delay),
            ("wire_drop", self.wire_drop),
            ("wire_stall", self.wire_stall),
        ];
        if let Some((name, p)) = fractions.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
            return Err(format!("{name:?} must be a fraction in 0..=1, got {p}"));
        }
        if self.panic_job == Some(0) {
            return Err("\"panic_job\" is 1-based (1 panics the first job)".to_owned());
        }
        if fractions.iter().all(|&(_, p)| p == 0.0) && self.panic_job.is_none() {
            return Err("the fault plan injects nothing: set a fraction or panic_job".to_owned());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Jobs: the spec a client submits, the result it gets back
// ---------------------------------------------------------------------

wire_object! { "engine" EngineSpec => { def arch, def objective }}

wire_object! { "options" JobOptions => {
    skip cache, skip keep_points, skip deadline_ms,
} JobOptions::validate }

impl JobOptions {
    /// The rules the option rows cannot state.
    fn validate(&self, v: &Json) -> Result<(), String> {
        if self.deadline_ms == Some(0) {
            return Err("\"deadline_ms\" must be a positive integer".to_owned());
        }
        // Retired, and unlike an ignorable hint it changed the answer:
        // a slice request must not be served a whole-layer result.
        if v.get("tiling_range").is_some() {
            return Err(
                "the \"tiling_range\" option was removed: a layer is always swept whole".to_owned(),
            );
        }
        Ok(())
    }
}

wire_object! { "job" JobSpec => { def id, def engine, flat workload, skip options }}

impl Members for Workload {
    fn members(&self, out: &mut JsonText<'_>) {
        match self {
            Workload::Network(n) => {
                // Prefer the compact zoo reference when the network is a
                // preset; otherwise ship the full layer list.
                let zoo_name = Network::zoo()
                    .into_iter()
                    .find(|(_, build)| &build() == n)
                    .map(|(name, _)| name);
                out.key("network").object(|o| match zoo_name {
                    Some(name) => o.key("model").str(name),
                    None => {
                        o.key("name").str(n.name());
                        o.key("layers")
                            .array(|a| n.layers().iter().for_each(|l| l.encode(a)));
                    }
                });
            }
            Workload::Layer(l) => l.encode(out.key("layer")),
        }
    }
}

/// Read from the job object itself (`flat`): exactly one of `network`
/// and `layer`; a network is its zoo `model`, else its `layers` under
/// its `name` (`"custom"` when unnamed).
impl Wire for Workload {
    fn encode(&self, out: &mut JsonText<'_>) {
        out.object(|o| self.members(o));
    }
    fn from_json(job: &Json) -> Result<Self, String> {
        let v = match (job.get("network"), job.get("layer")) {
            (Some(v), None) => v,
            (None, Some(layer)) => return Layer::from_json(layer).map(Workload::Layer),
            (Some(_), Some(_)) => return Err("job has both \"network\" and \"layer\"".to_owned()),
            (None, None) => return Err("job needs a \"network\" or \"layer\" workload".to_owned()),
        };
        let r = Reader::object(v, "network")?;
        let network = if let Some(model) = r.opt::<String>("model")? {
            Network::by_name(&model).ok_or_else(|| {
                let known: Vec<&str> = Network::zoo().into_iter().map(|(n, _)| n).collect();
                format!("unknown model {model:?} (known: {})", known.join(", "))
            })?
        } else {
            let layers = r
                .opt("layers")?
                .ok_or("network needs \"model\" or \"layers\"")?;
            let name = r.opt::<String>("name")?;
            Network::new(name.as_deref().unwrap_or("custom"), layers).map_err(|e| e.to_string())?
        };
        Ok(Workload::Network(network))
    }
}

/// Every dimension is written; an `fc` layer reads only `i` and `j`, a
/// `conv` layer (the default kind) six more, with `stride` and `groups`
/// defaulting to 1.
impl Wire for Layer {
    fn encode(&self, out: &mut JsonText<'_>) {
        out.object(|o| {
            let mut w = Writer(o);
            w.req("name", &self.name);
            w.req("kind", &self.kind);
            for (key, n) in [
                ("h", self.h),
                ("w", self.w),
                ("j", self.j),
                ("i", self.i),
                ("p", self.p),
                ("q", self.q),
                ("stride", self.stride),
                ("groups", self.groups),
            ] {
                w.req(key, &n);
            }
        });
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        let r = Reader::object(v, "layer")?;
        let name: String = r.req("name")?;
        let layer = match r.opt("kind")?.unwrap_or(LayerKind::Conv) {
            LayerKind::FullyConnected => Layer::fully_connected(&name, r.req("i")?, r.req("j")?),
            LayerKind::Conv => {
                let [h, w, j, i, p, q] = ["h", "w", "j", "i", "p", "q"].map(|dim| r.req(dim));
                let stride = r.present("stride")?.unwrap_or(1);
                let mut layer = Layer::conv(&name, h?, w?, j?, i?, p?, q?, stride);
                layer.groups = r.present("groups")?.unwrap_or(1);
                layer
            }
        };
        layer.validate().map_err(|e| e.to_string())?;
        Ok(layer)
    }
}

wire_object! { e: "estimate" EdpEstimate { cycles, energy, t_ck_ns } => {
    req cycles, req energy, req t_ck_ns, out "edp" = e.edp(),
}}

wire_object! { "tiling" Tiling => { req th, req tw, req tj, req ti }}

wire_object! { "pareto point" DesignPoint => { req label, req estimate }}

wire_object! { "layer outcome" LayerOutcome => {
    req name, req mapping, req scheme, req tiling, req estimate, def evaluations, def cached,
    def coalesced, def store_hit as "store", skip pareto,
}}

wire_object! { "result" JobResult => { def id, def workload, req total, req layers }}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

wire_messages! { requests Request, "request";
    "hello"            [None]                     Hello { version, client }       => { req version, opt client }
    "ping"             [None]                     Ping { id }                     => { opt id }
    "stats"            [None]                     Stats { id }                    => { opt id }
    "shutdown"         [None]                     Shutdown { id }                 => { opt id }
    "cache-clear"      [Some("admin")]            CacheClear { id }               => { opt id }
    "cache-warm"       [Some("store")]            CacheWarm { id, limit }         => { opt id, opt limit }
    "store-compact"    [Some("store")]            StoreCompact { id, auto_ratio } => { opt id, opt auto_ratio }
    "metrics"          [Some("metrics")]          Metrics { id }                  => { opt id }
    "set-bounds"       [Some("set-bounds")]       SetBounds { id, update }        => { opt id, flat update }
    "set-slow-log"     [Some("admin")]            SetSlowLog { id, slow_ms, cap } => { opt id, opt slow_ms, opt cap }
    "set-faults"       [Some("faults")]           SetFaults { id, spec }          => { opt id, opt spec }
    "submit"           [Some("jobs")]             Submit(spec)                    => { flat spec }
}

wire_messages! { Response, "response";
    "hello" Hello { version, server, capabilities } => {
        out "ok" = true, req version, req server, req capabilities,
    }
    "pong" Pong { id } => { out "ok" = true, opt id }
    "stats" Stats { id, report } => { out "ok" = true, opt id, req report as "stats" }
    "shutdown" Shutdown { id } => { out "ok" = true, opt id, out "shutdown" = true }
    "cache-cleared" CacheCleared { id } => { out "ok" = true, opt id }
    "cache-warmed" CacheWarmed { id, loaded } => { out "ok" = true, opt id, req loaded }
    "store-compacted" StoreCompacted { id, report } => { out "ok" = true, opt id, flat report }
    "metrics" Metrics { id, report } => { out "ok" = true, opt id, flat report }
    "bounds-set" BoundsSet { id, max_entries, max_bytes, previous_entries, previous_bytes, evicted } => {
        out "ok" = true, opt id, null max_entries, null max_bytes, null previous_entries,
        null previous_bytes, req evicted,
    }
    "slow-log-set" SlowLogSet { id, slow_ms, cap, previous_ms, previous_cap } => {
        out "ok" = true, opt id, null slow_ms, req cap, null previous_ms, req previous_cap,
    }
    "faults-set" FaultsSet { id, spec } => { out "ok" = true, opt id, null spec }
    // The typed failure carries its payload and, for readers that only
    // look at `error`, the same text a generic error would.
    "deadline_exceeded" DeadlineExceeded { id, deadline_ms } => {
        out "ok" = false, opt id, req deadline_ms,
        out "error" = ServiceError::DeadlineExceeded { deadline_ms: *deadline_ms }.to_string(),
    }
    "job" Job { result } => { out "ok" = true, out "id" = result.id, req result }
    "error" Error { id, message } => { out "ok" = false, opt id, req message as "error" }
}

impl Request {
    /// Decode one request. Every request is an object whose `"type"`
    /// names its verb; anything else — no `"type"`, an unknown verb, a
    /// missing or mistyped field, a value outside its range — is a
    /// [`DecodeError`] carrying any recognizable id, so the server can
    /// answer it with a typed error instead of dropping the
    /// connection.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn decode(v: &Json) -> Result<(Request, Dialect), DecodeError> {
        Self::from_json(v)
            .and_then(|request| request.validate().map(|()| (request, Dialect::V1)))
            .map_err(|message| DecodeError {
                id: v.get("id").and_then(Json::as_u64),
                message,
            })
    }

    /// The range rules a field table cannot express.
    fn validate(&self) -> Result<(), String> {
        let problem = match self {
            Request::StoreCompact {
                auto_ratio: Some(ratio),
                ..
            } if !(0.0..=1.0).contains(ratio) => {
                "\"auto_ratio\" must be a number in [0, 1] (0 disarms)"
            }
            Request::SetSlowLog { cap: Some(0), .. } => "\"cap\" must be positive",
            _ => return Ok(()),
        };
        Err(problem.to_owned())
    }
}

impl Response {
    /// Render for the wire. The [`Dialect`] argument is vestigial (see
    /// its docs): this is [`Response::to_json`].
    pub fn render(&self, _dialect: Dialect) -> Json {
        self.to_json()
    }

    /// Decode one response.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for a missing or unknown
    /// `"type"` and for missing or mistyped fields.
    pub fn decode(v: &Json) -> Result<Response, ServiceError> {
        Self::from_json(v).map_err(ServiceError::protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonText;
    use crate::spec::{CacheMode, EngineSpec, JobOptions, LayerOutcome};
    use drmap_cnn::layer::Layer;
    use drmap_cnn::network::Network;
    use drmap_core::dse::Objective;
    use drmap_core::edp::EdpEstimate;
    use drmap_core::pareto::DesignPoint;
    use drmap_core::tiling::Tiling;
    use drmap_dram::timing::DramArch;

    /// One rendered line per message below — every `Request` variant,
    /// then every `Response` variant, each optional field once present
    /// and once absent. Generated by the hand-paired codec that
    /// preceded the field tables and never regenerated, but for the two
    /// armed `set-faults`/`faults-set` lines, rewritten once when fault
    /// plans became JSON objects: a codec change that moves one byte on
    /// the wire fails the two tests below.
    const GOLDEN: &str = include_str!("../tests/golden/proto_v1.ndjson");

    fn requests() -> Vec<Request> {
        let optioned_layer = JobSpec::layer(
            9,
            EngineSpec {
                arch: DramArch::Ddr3,
                objective: Objective::Energy,
            },
            Layer::conv("P", 8, 8, 16, 8, 3, 3, 1),
        )
        .with_options(JobOptions {
            cache: CacheMode::Refresh,
            keep_points: true,
            deadline_ms: Some(2_500),
        });
        vec![
            Request::Hello {
                version: 1,
                client: Some("golden/1".into()),
            },
            Request::Hello {
                version: 1,
                client: None,
            },
            Request::Ping { id: Some(7) },
            Request::Ping { id: None },
            Request::Stats { id: Some(8) },
            Request::Shutdown { id: None },
            Request::CacheClear { id: Some(9) },
            Request::CacheWarm {
                id: Some(10),
                limit: Some(100),
            },
            Request::CacheWarm {
                id: None,
                limit: None,
            },
            Request::StoreCompact {
                id: None,
                auto_ratio: Some(0.25),
            },
            Request::StoreCompact {
                id: Some(2),
                auto_ratio: None,
            },
            Request::Metrics { id: Some(11) },
            Request::SetBounds {
                id: Some(12),
                update: BoundsUpdate {
                    max_entries: Some(64),
                    max_bytes: Some(0),
                },
            },
            Request::SetBounds {
                id: None,
                update: BoundsUpdate::default(),
            },
            Request::SetSlowLog {
                id: Some(15),
                slow_ms: Some(0),
                cap: Some(64),
            },
            Request::SetSlowLog {
                id: None,
                slow_ms: None,
                cap: None,
            },
            Request::SetFaults {
                id: Some(16),
                spec: Some(fault_plan()),
            },
            Request::SetFaults {
                id: None,
                spec: None,
            },
            Request::Submit(JobSpec::network(5, EngineSpec::default(), Network::tiny())),
            Request::Submit(optioned_layer),
        ]
    }

    /// A plan that sets every member, both delay bounds off their
    /// defaults.
    fn fault_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            store_fail: 0.1,
            store_delay: 0.05,
            store_delay_ms: 7,
            wire_drop: 0.02,
            wire_stall: 0.02,
            wire_stall_ms: 30,
            panic_job: Some(3),
        }
    }

    fn metrics_snapshot(scale: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("jobs_total".into(), 3 * scale),
                ("layers_total".into(), 9 * scale),
            ],
            gauges: vec![
                ("connections_open".into(), 2),
                ("jobs_inflight".into(), -(scale as i64)),
            ],
            histograms: vec![(
                "request_ns".into(),
                HistogramSnapshot {
                    count: 2 * scale,
                    sum: 2_001_000 * scale,
                    min: 1_000,
                    max: 2_000_000,
                    buckets: vec![(79, scale), (167, scale)],
                },
            )],
        }
    }

    fn slow_entry(trace_id: u64) -> SlowEntry {
        SlowEntry {
            trace_id,
            total_ns: 7_000_000,
            stages: vec![
                ("frame_decode".to_owned(), 21_000),
                ("explore".to_owned(), 6_000_000),
            ],
        }
    }

    fn estimate(cycles: f64) -> EdpEstimate {
        EdpEstimate {
            cycles,
            energy: cycles * 1.3e-9,
            t_ck_ns: 1.25,
        }
    }

    fn layer_outcome(name: &str, cached: bool, pareto: Vec<DesignPoint>) -> LayerOutcome {
        LayerOutcome {
            name: name.into(),
            mapping: "Mapping-3 (DRMap)".into(),
            scheme: "adaptive-reuse".into(),
            tiling: Tiling::new(13, 13, 16, 8),
            estimate: estimate(1.234_567_890_123e6),
            evaluations: 40_320,
            cached,
            coalesced: !cached,
            store_hit: cached,
            pareto,
        }
    }

    /// What the encoder writes: the bytes a connection sends.
    fn text(encode: impl FnOnce(&mut JsonText<'_>)) -> String {
        let mut out = String::new();
        encode(&mut JsonText::new(&mut out));
        out
    }

    fn responses() -> Vec<Response> {
        let full_stats = StatsReport {
            cache: CacheStats {
                hits: 10,
                misses: 4,
                coalesced: 2,
                bypasses: 1,
                refreshes: 1,
                evictions: 3,
                entries: 5,
                bytes: 4096,
                store_hits: 1,
                store_misses: 3,
                store_errors: 0,
                compute_ns_min: 1_000,
                compute_ns_max: 9_000,
                compute_ns_total: 20_000,
            },
            max_entries: Some(512),
            max_bytes: None,
            workers: 8,
            store: Some(StoreStats {
                live_entries: 5,
                records: 9,
                dead_records: 4,
                file_bytes: 8192,
                live_value_bytes: 4000,
                dead_bytes: 2000,
                appends: 9,
                gets: 12,
                hits: 7,
                compactions: 1,
                recovered_bytes: 0,
            }),
            backends: Some(3),
        };
        let bare_stats = StatsReport {
            cache: CacheStats::default(),
            max_entries: None,
            max_bytes: Some(1 << 20),
            workers: 2,
            store: None,
            backends: None,
        };
        vec![
            Response::Hello {
                version: 1,
                server: "drmap-service/golden".into(),
                capabilities: vec!["jobs".into(), "admin".into(), "store".into()],
            },
            Response::Pong { id: Some(1) },
            Response::Pong { id: None },
            Response::Stats {
                id: Some(2),
                report: full_stats,
            },
            Response::Stats {
                id: None,
                report: bare_stats,
            },
            Response::Shutdown { id: None },
            Response::CacheCleared { id: Some(5) },
            Response::CacheWarmed {
                id: None,
                loaded: 42,
            },
            Response::StoreCompacted {
                id: Some(6),
                report: CompactReport {
                    live_records: 5,
                    dropped_records: 4,
                    bytes_before: 8192,
                    bytes_after: 4501,
                },
            },
            Response::Metrics {
                id: Some(8),
                report: MetricsReport {
                    snapshot: metrics_snapshot(1),
                    slow: vec![slow_entry(9)],
                },
            },
            Response::Metrics {
                id: None,
                report: MetricsReport::default(),
            },
            Response::BoundsSet {
                id: Some(9),
                max_entries: Some(64),
                max_bytes: None,
                previous_entries: None,
                previous_bytes: Some(1 << 20),
                evicted: 17,
            },
            Response::SlowLogSet {
                id: Some(12),
                slow_ms: Some(25),
                cap: 64,
                previous_ms: None,
                previous_cap: 32,
            },
            Response::SlowLogSet {
                id: None,
                slow_ms: None,
                cap: 8,
                previous_ms: Some(0),
                previous_cap: 64,
            },
            Response::FaultsSet {
                id: Some(13),
                spec: Some(fault_plan()),
            },
            Response::FaultsSet {
                id: None,
                spec: None,
            },
            Response::DeadlineExceeded {
                id: Some(16),
                deadline_ms: 250,
            },
            Response::DeadlineExceeded {
                id: None,
                deadline_ms: 40,
            },
            Response::Job {
                result: JobResult {
                    id: 21,
                    workload: "Tiny".into(),
                    total: estimate(2.469_135_780_246e6),
                    layers: vec![
                        layer_outcome("CONV1", false, vec![]),
                        layer_outcome(
                            "CONV2",
                            true,
                            vec![DesignPoint::new("th=13 tw=13", estimate(0.5e6))],
                        ),
                    ],
                },
            },
            Response::Error {
                id: Some(7),
                message: "no store attached (\"--store\")".into(),
            },
            Response::Error {
                id: None,
                message: "invalid JSON at byte 1: expected '\"'".into(),
            },
        ]
    }

    #[test]
    fn typed_requests_round_trip() {
        let requests = requests();
        for (request, line) in requests.iter().zip(GOLDEN.lines()) {
            assert_eq!(request.to_json().render(), line, "{request:?}");
            assert_eq!(text(|t| request.encode(t)), line, "{request:?}");
            let (decoded, _) = Request::decode(&Json::parse(line).unwrap())
                .unwrap_or_else(|e| panic!("failed to decode {line}: {e:?}"));
            assert_eq!(&decoded, request, "{line}");
        }
    }

    #[test]
    fn typed_responses_round_trip() {
        let responses = responses();
        let lines: Vec<&str> = GOLDEN.lines().skip(requests().len()).collect();
        assert_eq!(lines.len(), responses.len(), "one golden line per message");
        for (response, line) in responses.iter().zip(lines) {
            assert_eq!(response.render(Dialect::V1).render(), line, "{response:?}");
            assert_eq!(text(|t| response.encode(t)), line, "{response:?}");
            let decoded = Response::decode(&Json::parse(line).unwrap())
                .unwrap_or_else(|e| panic!("failed to decode {line}: {e}"));
            assert_eq!(&decoded, response, "{line}");
        }
    }

    #[test]
    fn messages_without_a_type_are_decode_errors() {
        // A bare job object (once the pre-versioning job line) and
        // anything else that names no verb is just a malformed message.
        for untyped in [
            r#"{"id":4,"network":{"model":"tiny"}}"#,
            r#"{"ping":true}"#,
            "[1]",
        ] {
            let err = Request::decode(&Json::parse(untyped).unwrap()).unwrap_err();
            assert_eq!(err.message, "request carries no \"type\"", "{untyped}");
        }
        // The id survives so the error can be correlated.
        let err = Request::decode(&Json::parse(r#"{"type":7,"id":6}"#).unwrap()).unwrap_err();
        assert_eq!(err.id, Some(6));
        assert_eq!(err.message, "\"type\" must be a string");
        let err =
            Request::decode(&Json::parse(r#"{"type":"reboot","id":6}"#).unwrap()).unwrap_err();
        assert_eq!(err.message, "unknown request type \"reboot\"");
        assert!(Response::decode(&Json::parse(r#"{"ok":true,"pong":true}"#).unwrap()).is_err());
    }

    /// The value of object `v`'s member `key`.
    fn member<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(members) = v else {
            panic!("not an object: {v}")
        };
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn job_results_read_absent_fields_as_defaults_but_never_mistyped_ones() {
        let golden = GOLDEN
            .lines()
            .find(|l| l.contains(r#""type":"job""#))
            .unwrap();
        // (a layer outcome's field or the result's own, a mistyped value)
        let cases = [
            (false, "id", Json::str("21")),
            (false, "id", Json::Null),
            (false, "workload", Json::num_u64(5)),
            (true, "evaluations", Json::str("x")),
            (true, "cached", Json::num_u64(1)),
            (true, "coalesced", Json::str("true")),
            (true, "store", Json::Null),
            (true, "pareto", Json::str("x")),
            (true, "pareto", Json::obj([])),
        ];
        for (in_layer, field, bad) in cases {
            for value in [Some(bad.clone()), None] {
                let mut line = Json::parse(golden).unwrap();
                let mut target = member(&mut line, "result");
                if in_layer {
                    let Json::Arr(layers) = member(target, "layers") else {
                        panic!("layers are an array")
                    };
                    target = &mut layers[1];
                }
                let Json::Obj(members) = target else {
                    panic!("{field}'s object")
                };
                members.retain(|(k, _)| k != field);
                match value {
                    Some(value) => {
                        members.push((field.to_owned(), value));
                        let err = Response::decode(&line).unwrap_err().to_string();
                        assert!(err.contains(&format!("{field:?}")), "{field}={bad}: {err}");
                    }
                    None => {
                        let decoded = Response::decode(&line);
                        assert!(decoded.is_ok(), "without {field}: {decoded:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_buckets_a_histogram_cannot_have_are_refused() {
        let golden = GOLDEN
            .lines()
            .find(|l| l.contains(r#""type":"metrics","ok":true"#))
            .unwrap();
        let with = |buckets: &str| golden.replace(r#""buckets":[[79,1],[167,1]]"#, buckets);
        assert_ne!(with(""), golden, "the golden metrics line has the buckets");
        for bad in [
            "[[4000000000,1]]",
            "[[496,1]]",
            "[[167,1],[79,1]]",
            "[[79,1],[79,1]]",
        ] {
            let line = with(&format!(r#""buckets":{bad}"#));
            let err = Response::decode(&Json::parse(&line).unwrap()).unwrap_err();
            assert!(err.to_string().contains(r#""buckets""#), "{bad}: {err}");
        }
        let top = with(r#""buckets":[[0,1],[495,1]]"#);
        assert!(Response::decode(&Json::parse(&top).unwrap()).is_ok());
    }

    #[test]
    fn ids_and_capabilities_come_from_the_tables() {
        let advertised = capabilities(true);
        for request in requests() {
            let rendered = request.to_json();
            assert_eq!(request.id(), rendered.get("id").and_then(Json::as_u64));
            if let Some(capability) = request.capability() {
                // Release builds without the `faults` feature do not
                // advertise (or honor) fault injection.
                let compiled_out = capability == "faults" && !crate::faults::FAULTS_COMPILED_IN;
                assert!(
                    compiled_out || advertised.iter().any(|c| c == capability),
                    "{request:?} is advertised by {capability:?}, which hello never lists"
                );
            }
        }
        for response in responses() {
            let rendered = response.to_json();
            assert_eq!(response.id(), rendered.get("id").and_then(Json::as_u64));
        }
    }

    #[test]
    fn capability_list_reflects_the_store() {
        assert!(!capabilities(false).contains(&"store".to_owned()));
        assert!(capabilities(true).contains(&"store".to_owned()));
        assert!(capabilities(false).contains(&"admin".to_owned()));
        assert!(capabilities(false).contains(&"metrics".to_owned()));
        assert!(capabilities(false).contains(&"set-bounds".to_owned()));
        assert!(capabilities(false).contains(&"deadlines".to_owned()));
        // Fault injection is advertised exactly where it is compiled in:
        // debug builds, and release builds with the `faults` feature.
        assert_eq!(
            capabilities(false).contains(&"faults".to_owned()),
            crate::faults::FAULTS_COMPILED_IN
        );
    }

    #[test]
    fn bounds_updates_translate_to_cache_actions() {
        let update = BoundsUpdate::default();
        assert!(update.is_empty());
        assert_eq!(update.entries_action(), None);
        assert_eq!(update.bytes_action(), None);
        let update = BoundsUpdate {
            max_entries: Some(0),
            max_bytes: Some(4096),
        };
        assert!(!update.is_empty());
        assert_eq!(update.entries_action(), Some(None)); // cleared
        assert_eq!(update.bytes_action(), Some(Some(4096)));
    }
}
