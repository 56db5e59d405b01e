//! The memory controller: command scheduling under JEDEC timing constraints.
//!
//! The controller serves burst requests one at a time (FCFS; FR-FCFS
//! reordering is layered on top in [`crate::sim`]), decomposing each into
//! the command sequence its row-buffer outcome requires (PRE/ACT/SASEL/RD/WR)
//! and computing issue cycles event-driven style against per-subarray,
//! per-bank, per-rank and data-bus timing state.
//!
//! The SALP architectures are expressed purely as different constraint
//! rules, following Kim et al. (ISCA 2012):
//!
//! * **SALP-1** — a precharge to subarray A overlaps with an activation to
//!   subarray B of the same bank (no `tRP` wait across subarrays), but the
//!   new activation must wait for A's column traffic to quiesce
//!   (read-to-precharge / write recovery).
//! * **SALP-2** — additionally removes the quiesce wait: activations to
//!   different subarrays are spaced only by `t_rrd_sa`.
//! * **SALP-MASA** — multiple subarrays stay activated; re-accessing an
//!   already-open subarray costs one `SASEL` cycle instead of a reactivation.
//!
//! # Row runs
//!
//! `MemoryController::serve_run` serves a [`RowRun`] — `L + 1` requests
//! of one kind to consecutive columns of one row — with the arrivals a
//! [`DriveMode`] gives them. The head goes through
//! [`MemoryController::serve`] (refresh, miss, conflict, SASEL and every
//! SALP rule). Under the open-row policy the tail requests are then served
//! in closed form, in O(1) however long the run, up to the first one a
//! refresh interrupts (see [Refresh](#refresh)):
//!
//! * After the head its row is open and designated, and nothing but a
//!   refresh closes it before the run ends (no timeout, no closing
//!   precharge), so every tail request is a `Hit` and issues only its
//!   column command, at `max(arrival, col_ready, gate, bus_free)` where
//!   `gate` is the rank's read (or write) gate.
//! * `col_ready` moves only at an ACT, and the head's column command
//!   waited for it, so it is `<= t₀`, the head's column issue. The head
//!   also waited for `gate`, so its own update leaves `gate = t₀ + tCCD`
//!   (a run of one kind moves only the other kind's gate besides), and
//!   it leaves `bus_free = t₀ + 1`. As `tCCD >= 1`, tail request `i`
//!   issues at `tᵢ = max(aᵢ, tᵢ₋₁ + tCCD)`.
//! * **Streamed:** `aᵢ` is the run's arrival, which is `<= t₀`, so
//!   `tᵢ = t₀ + i·tCCD`.
//! * **Spaced(gap):** `aᵢ = cᵢ₋₁ + gap`, where `cᵢ = tᵢ + D` with
//!   `D = CL + tBURST` for reads and `CWL + tBURST` for writes. So
//!   `tᵢ = tᵢ₋₁ + max(D + gap, tCCD)`, and each tail latency is
//!   `cᵢ − aᵢ = step − gap`.
//! * So the issues form `tᵢ = t₀ + i·step`. Every state update of a
//!   column command is `x = max(x, t + c)` for a constant `c` (the rank's
//!   gates, the subarray's `next_pre`, the bank's `new_sa_gate` and
//!   `last_use`, the makespan) or `bus_free = t + 1`: monotone in `t`, so
//!   applying the last issue's alone leaves the state all `L` leave. The
//!   command, outcome and read/write counters grow by `L`, and the latency
//!   sum is `L·(c₀ − a)` plus `step·L(L+1)/2` (streamed, arrival `a`) or
//!   `L·(step − gap)` (serialized).
//!
//! Per-request [`ServiceRecord`]s and [`ScheduledCommand`]s of the tail
//! are expanded only when asked for. Under the closed or timeout row
//! policy each tail request goes through `serve` instead: there is one
//! kernel, not a second simulator.
//!
//! # Refresh
//!
//! With refresh on, refresh fires at a request's *arrival*: `serve`
//! first runs every refresh whose deadline (each multiple of `tREFI`) the
//! arrival has reached. Each one precharges every open subarray, issues
//! REF `tRP` after the last of those precharges, and holds every ACT for
//! `tRFC`. Nothing refreshes between two arrivals, so:
//!
//! * **Streamed:** every tail request arrives when the head did, and the
//!   head's `serve` already ran every refresh due by then. No tail
//!   request can refresh: the whole tail is closed form.
//! * **Spaced(gap):** tail request `i` arrives at
//!   `aᵢ = t₀ + (i − 1)·step + D + gap`, which grows with `i`. The first
//!   `i` with `aᵢ >= next_refresh` is `1 + ⌈(next_refresh − a₁) / step⌉`
//!   (or 1 if `a₁` is already due). The requests before it are closed
//!   form. It goes through `serve`, which refreshes and so finds its row
//!   closed (a miss), and the rest of the run continues from it as a new
//!   head.
//!
//! So the closed form has one gate, the row policy: `Open`.
//!
//! A consequence the reference model has to decide on (it is kept as it
//! is): a `Streamed` call to the simulator gives every request the
//! arrival of its first one, so it refreshes only there. A 64-row tile
//! streams for ≈ 32.8k cycles, ≈ 5.3 `tREFI`, and its refreshes wait for
//! the next call's first request, where they all run back to back.
//!
//! # Code shape
//!
//! A replay costs about one run head per row it touches, so the head is
//! the simulator's hot path. `serve_run` and the steps of its head —
//! `serve_valid`, `classify`, `do_activate`, `do_precharge`, `do_column`,
//! `column_issued` and `issue` — are `#[inline(always)]`: under the
//! default release profile (16 codegen units, no LTO), which the
//! servers, the benchmark and any downstream build use, some of them
//! were compiled as out-of-line calls, each paying its spills and
//! argument copies on every run, and `serve_run` itself kept its loop
//! invariants (the drive mode's step, the command kind, the row policy)
//! out of the run engine's loop. Inlined, the head runs straight through
//! the engine's loop. To check, disassemble a release binary that
//! replays (`objdump -d -C`, e.g. the benchmark harness): none of those
//! seven functions, nor `serve_run`, has a symbol of its own, and the
//! calls inside `DramSimulator::run_runs` and `DramSimulator::run` go
//! only to cold paths — `maybe_refresh` (refresh on), `close_stale_rows`
//! or `close_bank` (the timeout policy), `replay_frfcfs` and its trace
//! (FR-FCFS), growing the record and command vectors, the panics — and
//! to the once-per-call `ActivityCounters::since` and
//! `EnergyModel::breakdown`.

use crate::address::PhysicalAddress;
use crate::command::{CommandKind, ScheduledCommand};
use crate::device::Device;
use crate::error::ConfigError;
use crate::geometry::Geometry;
use crate::request::{DriveMode, Request, RequestKind, RowRun};
use crate::state::{self, RowBufferOutcome};
use crate::timing::{DramArch, TimingParams};

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowPolicy {
    /// Keep rows open after access (Table II: the paper's configuration).
    #[default]
    Open,
    /// Precharge immediately after every access.
    Closed,
    /// Keep rows open, but precharge a bank's rows once it has been idle
    /// for the given number of cycles (the adaptive policy many real
    /// controllers implement).
    Timeout(u64),
}

/// Request scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// First-come first-served (Table II: the paper's configuration).
    #[default]
    Fcfs,
    /// First-ready FCFS: row hits within the [`REORDER_WINDOW`] oldest
    /// pending requests go first.
    FrFcfs,
}

/// How many of the oldest pending requests FR-FCFS scans for a row hit.
pub const REORDER_WINDOW: usize = 8;

/// Controller configuration.
///
/// # Examples
///
/// ```
/// use drmap_dram::controller::ControllerConfig;
/// use drmap_dram::timing::DramArch;
///
/// let cfg = ControllerConfig::new(DramArch::Salp2);
/// assert_eq!(cfg.arch, DramArch::Salp2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// DRAM architecture (timing-rule set).
    pub arch: DramArch,
    /// Row-buffer policy.
    pub row_policy: RowPolicy,
    /// Scheduling discipline (applied by the simulator driver).
    pub scheduler: SchedulerKind,
    /// Model periodic refresh.
    pub refresh_enabled: bool,
    /// Record every issued command for trace export.
    pub record_commands: bool,
}

impl ControllerConfig {
    /// Paper defaults (open row, FCFS, refresh off) for `arch`.
    pub fn new(arch: DramArch) -> Self {
        ControllerConfig {
            arch,
            row_policy: RowPolicy::Open,
            scheduler: SchedulerKind::Fcfs,
            refresh_enabled: false,
            record_commands: false,
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::new(DramArch::Ddr3)
    }
}

/// Outcome of serving one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Cycle the request became visible to the controller.
    pub arrival: u64,
    /// Cycle the last data beat transferred.
    pub completion: u64,
    /// Row-buffer outcome the request experienced.
    pub outcome: RowBufferOutcome,
    /// Read or write.
    pub kind: RequestKind,
}

impl ServiceRecord {
    /// Request latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completion - self.arrival
    }
}

/// What serving one [`RowRun`] came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunService {
    /// Sum of the run's per-request latencies in cycles.
    pub(crate) latency_cycles: u64,
    /// Arrival of the request after the run under the drive mode.
    pub(crate) next_arrival: u64,
}

/// Raw activity counters the energy model consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivityCounters {
    /// Issued commands per kind, indexed by [`CommandKind`] declaration
    /// order (ACT, PRE, RD, WR, REF, SASEL).
    pub commands: [u64; 6],
    /// Requests per row-buffer outcome, indexed by [`RowBufferOutcome::ALL`].
    pub outcomes: [u64; 5],
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Cycles during which each bank had at least one open row, summed over
    /// banks (active-standby time).
    pub bank_active_cycles: u64,
    /// Cycles during which each rank had at least one open bank, summed over
    /// ranks (per-chip active-standby time).
    pub rank_active_cycles: u64,
    /// Open-cycles summed over every subarray (MASA keeps several open).
    pub subarray_open_cycles: u64,
}

impl ActivityCounters {
    /// Count of the given command kind.
    pub fn command_count(&self, kind: CommandKind) -> u64 {
        self.commands[kind.index()]
    }

    /// Count of the given outcome.
    pub fn outcome_count(&self, outcome: RowBufferOutcome) -> u64 {
        self.outcomes[outcome.index()]
    }

    /// Counter-wise difference `self - earlier` (saturating), used to
    /// attribute activity to one interval of a longer simulation.
    pub fn since(&self, earlier: &ActivityCounters) -> ActivityCounters {
        let mut out = self.clone();
        for (o, e) in out.commands.iter_mut().zip(&earlier.commands) {
            *o = o.saturating_sub(*e);
        }
        for (o, e) in out.outcomes.iter_mut().zip(&earlier.outcomes) {
            *o = o.saturating_sub(*e);
        }
        out.reads = out.reads.saturating_sub(earlier.reads);
        out.writes = out.writes.saturating_sub(earlier.writes);
        out.bank_active_cycles = out
            .bank_active_cycles
            .saturating_sub(earlier.bank_active_cycles);
        out.rank_active_cycles = out
            .rank_active_cycles
            .saturating_sub(earlier.rank_active_cycles);
        out.subarray_open_cycles = out
            .subarray_open_cycles
            .saturating_sub(earlier.subarray_open_cycles);
        out
    }
}

/// The row a subarray's local buffer latches, and the cycle its ACT
/// issued.
#[derive(Debug, Clone, Copy)]
struct OpenRow {
    row: usize,
    since: u64,
}

/// One subarray: its timing gates and its local row buffer, the one
/// record of whether it is open.
#[derive(Debug, Clone, Copy, Default)]
struct Subarray {
    next_act: u64,
    next_pre: u64,
    col_ready: u64,
    open: Option<OpenRow>,
}

/// One bank: its timing gates and its row-buffer summary.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// Gate on the next ACT anywhere in the bank (DDR3: tRC; SALP: t_rrd_sa).
    next_act: u64,
    /// SALP-1 only: earliest ACT to a *different* subarray (column quiesce).
    new_sa_gate: u64,
    /// SALP-2 only: issue time of the latest deferred victim precharge —
    /// the next overlapped ACT must wait for it (at most two subarrays
    /// activated at a time).
    last_deferred_pre: u64,
    /// Issue time of the most recent command touching this bank (for the
    /// timeout row policy).
    last_use: u64,
    /// Subarrays whose row is open, and the sum of their ACT cycles.
    open_count: usize,
    open_since_sum: u64,
    /// The subarray driving the global bitlines: the last one activated
    /// or selected (see [`state::classify`]).
    designated: usize,
    active_since: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Rank {
    next_act: u64,
    /// When each of the last four ACTs stops counting against the
    /// four-activate window (its issue + tFAW); `faw[faw_next]` is the
    /// oldest, the one the next ACT waits for.
    faw: [u64; 4],
    faw_next: usize,
    next_rd: u64,
    next_wr: u64,
    open_banks: usize,
    active_since: u64,
}

/// Event-driven DRAM memory controller.
///
/// Construct with [`MemoryController::new`], feed requests through
/// [`MemoryController::serve`], and read activity via
/// [`MemoryController::counters`].
///
/// # Examples
///
/// ```
/// use drmap_dram::controller::{ControllerConfig, MemoryController};
/// use drmap_dram::device::Device;
/// use drmap_dram::timing::DramArch;
/// use drmap_dram::request::Request;
/// use drmap_dram::address::PhysicalAddress;
///
/// let mut mc = MemoryController::new(&Device::table_ii(), ControllerConfig::new(DramArch::Ddr3))?;
/// let rec = mc.serve(Request::read(PhysicalAddress::default()), 0);
/// assert_eq!(rec.latency(), 26); // row-buffer miss: tRCD + CL + tBURST
/// # Ok::<(), drmap_dram::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    geometry: Geometry,
    /// Each coordinate's exclusive upper bound in `geometry`.
    bounds: PhysicalAddress,
    timing: TimingParams,
    config: ControllerConfig,
    banks: Vec<Bank>,
    subarrays: Vec<Subarray>,
    ranks: Vec<Rank>,
    bus_free: Vec<u64>,
    next_refresh: u64,
    counters: ActivityCounters,
    commands: Vec<ScheduledCommand>,
    last_completion: u64,
}

impl MemoryController {
    /// Create a controller for the given device and architecture.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a SALP architecture is configured on a
    /// geometry with a single subarray per bank.
    pub fn new(device: &Device, config: ControllerConfig) -> Result<Self, ConfigError> {
        let (geometry, timing) = (*device.geometry(), *device.timing());
        if config.arch.exploits_subarrays() && geometry.subarrays < 2 {
            return Err(ConfigError::new(format!(
                "{} requires at least 2 subarrays per bank, geometry has {}",
                config.arch, geometry.subarrays
            )));
        }
        let total_banks = geometry.channels * geometry.ranks * geometry.banks;
        let total_ranks = geometry.channels * geometry.ranks;
        Ok(MemoryController {
            bounds: PhysicalAddress {
                channel: geometry.channels,
                rank: geometry.ranks,
                bank: geometry.banks,
                subarray: geometry.subarrays,
                row: geometry.rows_per_subarray(),
                column: geometry.bursts_per_row(),
            },
            banks: vec![Bank::default(); total_banks],
            subarrays: vec![Subarray::default(); total_banks * geometry.subarrays],
            ranks: vec![Rank::default(); total_ranks],
            bus_free: vec![0; geometry.channels],
            next_refresh: timing.t_refi,
            counters: ActivityCounters::default(),
            commands: Vec::new(),
            last_completion: 0,
            geometry,
            timing,
            config,
        })
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Activity counters accumulated so far (open intervals not yet closed
    /// out; see [`MemoryController::finalized_counters`]).
    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Counters with still-open row intervals accounted up to the makespan.
    pub fn finalized_counters(&self) -> ActivityCounters {
        let mut c = self.counters.clone();
        let end = self.makespan();
        for bank in &self.banks {
            if bank.open_count == 0 {
                continue;
            }
            // Every ACT precedes its request's completion, so `end` is
            // past each open interval's start.
            c.bank_active_cycles += end - bank.active_since;
            c.subarray_open_cycles += bank.open_count as u64 * end - bank.open_since_sum;
        }
        for rank in &self.ranks {
            if rank.open_banks > 0 {
                c.rank_active_cycles += end.saturating_sub(rank.active_since);
            }
        }
        c
    }

    /// Completion cycle of the latest request (the makespan so far).
    pub fn makespan(&self) -> u64 {
        self.last_completion
    }

    /// Commands issued so far (empty unless `record_commands` is set).
    pub fn commands(&self) -> &[ScheduledCommand] {
        &self.commands
    }

    /// Classify what outcome an access would see right now, without
    /// serving it. Used by the FR-FCFS driver.
    pub fn peek_outcome(&self, address: &PhysicalAddress) -> RowBufferOutcome {
        self.classify(self.bank_index(address), address)
    }

    /// Serve one request that becomes visible at cycle `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if the address lies outside the configured geometry.
    pub fn serve(&mut self, request: Request, arrival: u64) -> ServiceRecord {
        assert!(
            self.fits(&request.address, 0),
            "request address outside geometry"
        );
        self.serve_valid(request, arrival)
    }

    /// Whether `addr` and the `more` columns after it lie in the geometry.
    fn fits(&self, addr: &PhysicalAddress, more: usize) -> bool {
        let b = &self.bounds;
        addr.channel < b.channel
            && addr.rank < b.rank
            && addr.bank < b.bank
            && addr.subarray < b.subarray
            && addr.row < b.row
            && addr
                .column
                .checked_add(more)
                .is_some_and(|last| last < b.column)
    }

    /// [`MemoryController::serve`] of a request whose address lies in
    /// the geometry.
    #[inline(always)]
    fn serve_valid(&mut self, request: Request, arrival: u64) -> ServiceRecord {
        let addr = request.address;
        if self.config.refresh_enabled {
            self.maybe_refresh(arrival);
        }
        let bi = self.bank_index(&addr);
        if let RowPolicy::Timeout(timeout) = self.config.row_policy {
            self.close_stale_rows(bi, &addr, arrival, timeout);
        }
        let outcome = self.classify(bi, &addr);
        self.counters.outcomes[outcome.index()] += 1;
        match request.kind {
            RequestKind::Read => self.counters.reads += 1,
            RequestKind::Write => self.counters.writes += 1,
        }

        // The victim of a conflict is the open subarray: the target one,
        // except on DDR3 where the bank's single logical row buffer may
        // hold a row of another subarray, and on a SALP-1/2 conflict in
        // another subarray. Both are the designated one.
        let designated = self.banks[bi].designated;
        let mut earliest = arrival;
        match outcome {
            RowBufferOutcome::Hit => {}
            RowBufferOutcome::HitOtherSubarray => {
                let t = self.issue(CommandKind::SubarraySelect, addr, earliest);
                self.banks[bi].designated = addr.subarray;
                earliest = t + self.timing.t_sa_sel;
            }
            RowBufferOutcome::Miss => earliest = self.do_activate(bi, &addr, earliest),
            RowBufferOutcome::Conflict => {
                let victim = match self.config.arch {
                    DramArch::Ddr3 => designated,
                    _ => addr.subarray,
                };
                let t_pre = self.do_precharge(bi, victim, &addr, earliest);
                earliest = self.do_activate(bi, &addr, t_pre + self.timing.t_rp);
            }
            RowBufferOutcome::ConflictOtherSubarray => {
                match self.config.arch {
                    DramArch::Salp1 => {
                        // SALP-1: the PRE must still be issued first (one
                        // activated subarray at a time), but the new ACT
                        // does not wait tRP — only the command-bus slot.
                        let t_pre = self.do_precharge(bi, designated, &addr, earliest);
                        earliest = self.do_activate(bi, &addr, t_pre + 1);
                    }
                    DramArch::Salp2 => {
                        // SALP-2: the ACT may be issued *before* the victim
                        // finishes (write-recovery overlap; two subarrays
                        // transiently activated). A third activation must
                        // wait for the previous deferred precharge.
                        let gate = self.banks[bi].last_deferred_pre;
                        let t_act =
                            self.do_activate(bi, &addr, earliest.max(gate.saturating_add(1)));
                        let t_pre = self.do_precharge(bi, designated, &addr, t_act + 1);
                        self.banks[bi].last_deferred_pre = t_pre;
                        earliest = t_act;
                    }
                    DramArch::Ddr3 | DramArch::SalpMasa => {
                        unreachable!("ConflictOtherSubarray only classified under SALP-1/2")
                    }
                }
            }
        }

        let completion = self.do_column(bi, &addr, request.kind, earliest);
        if self.config.row_policy == RowPolicy::Closed {
            self.do_precharge(bi, addr.subarray, &addr, completion);
        }
        self.last_completion = self.last_completion.max(completion);
        ServiceRecord {
            arrival,
            completion,
            outcome,
            kind: request.kind,
        }
    }

    /// Serve a row run whose head becomes visible at cycle `arrival`; each
    /// later request arrives as `mode` drives it. Pushes one
    /// [`ServiceRecord`] per request to `records` when given. See the
    /// module docs for which requests are served in closed form and why
    /// that is exact, and for why this is inlined.
    ///
    /// # Panics
    ///
    /// Panics if an address of the run lies outside the configured
    /// geometry.
    #[inline(always)]
    pub(crate) fn serve_run(
        &mut self,
        run: RowRun,
        mode: DriveMode,
        arrival: u64,
        mut records: Option<&mut Vec<ServiceRecord>>,
    ) -> RunService {
        let mut done = RunService {
            latency_cycles: 0,
            next_arrival: arrival,
        };
        if run.len == 0 {
            return done;
        }
        // Every address of the run is the head's but for the column.
        let addr = run.head.address;
        assert!(
            self.fits(&addr, run.len - 1),
            "request address outside geometry"
        );
        #[cfg(test)]
        tests::tally(|t| t.runs += 1);

        let kind = run.head.kind;
        let timing = self.timing;
        let (cmd, data) = match kind {
            RequestKind::Read => (CommandKind::Read, timing.cl + timing.t_burst),
            RequestKind::Write => (CommandKind::Write, timing.cwl + timing.t_burst),
        };
        let (step, gap) = match mode {
            DriveMode::Streamed => (timing.t_ccd, 0),
            DriveMode::Spaced(gap) => ((data + gap).max(timing.t_ccd), gap),
        };
        let bi = self.bank_index(&addr);
        let mut head = 0;
        while head < run.len {
            let rec = self.serve_valid(run.request(head), done.next_arrival);
            done.latency_cycles += rec.latency();
            done.next_arrival = mode.next_arrival(done.next_arrival, rec.completion);
            if let Some(records) = records.as_deref_mut() {
                records.push(rec);
            }
            let mut hits = (run.len - 1 - head) as u64;
            if self.config.row_policy != RowPolicy::Open {
                hits = 0;
            } else if self.config.refresh_enabled && mode.is_serialized() {
                // The tail arrives at `completion + gap + (i − 1)·step`:
                // the first to reach the refresh deadline goes through
                // `serve`.
                hits = hits.min(
                    self.next_refresh
                        .saturating_sub(done.next_arrival)
                        .div_ceil(step),
                );
            }
            #[cfg(test)]
            tests::tally(|t| {
                t.closed_form_tails += hits;
                t.served_tails += u64::from(head > 0);
            });
            head += 1 + hits as usize;
            if hits == 0 {
                continue;
            }

            // Requests `head − hits ..= head − 1` are row hits after the one
            // just served, which completed at `rec.completion`.
            debug_assert_eq!(self.classify(bi, &addr), RowBufferOutcome::Hit);
            let first = rec.completion - data;
            let issued = |i: u64| first + i * step;
            let last = issued(hits);
            let from = head - hits as usize - 1;
            if self.config.record_commands {
                self.commands.extend((1..=hits).map(|i| ScheduledCommand {
                    cycle: issued(i),
                    kind: cmd,
                    address: run.request(from + i as usize).address,
                }));
            }
            if let Some(records) = records.as_deref_mut() {
                let mut arrival = done.next_arrival;
                for i in 1..=hits {
                    let completion = issued(i) + data;
                    records.push(ServiceRecord {
                        arrival,
                        completion,
                        outcome: RowBufferOutcome::Hit,
                        kind,
                    });
                    arrival = mode.next_arrival(arrival, completion);
                }
            }
            done.latency_cycles += if mode.is_serialized() {
                hits * (step - gap)
            } else {
                hits * (rec.completion - done.next_arrival) + step * (hits * (hits + 1) / 2)
            };
            done.next_arrival = mode.next_arrival(done.next_arrival, last + data);

            self.bus_free[addr.channel] = last + 1;
            self.counters.commands[cmd.index()] += hits;
            self.counters.outcomes[RowBufferOutcome::Hit.index()] += hits;
            match kind {
                RequestKind::Read => self.counters.reads += hits,
                RequestKind::Write => self.counters.writes += hits,
            }
            let last_completion = self.column_issued(bi, &addr, kind, last);
            self.last_completion = self.last_completion.max(last_completion);
        }
        done
    }

    fn bank_index(&self, addr: &PhysicalAddress) -> usize {
        (addr.channel * self.geometry.ranks + addr.rank) * self.geometry.banks + addr.bank
    }

    fn rank_index(&self, addr: &PhysicalAddress) -> usize {
        addr.channel * self.geometry.ranks + addr.rank
    }

    fn sa_index(&self, bi: usize, sa: usize) -> usize {
        bi * self.geometry.subarrays + sa
    }

    /// What an access to `addr` in bank `bi` would see right now.
    #[inline(always)]
    fn classify(&self, bi: usize, addr: &PhysicalAddress) -> RowBufferOutcome {
        let bank = &self.banks[bi];
        let open = self.subarrays[self.sa_index(bi, addr.subarray)].open;
        state::classify(
            self.config.arch,
            open.map(|o| o.row),
            addr.row,
            bank.designated == addr.subarray,
            bank.open_count,
        )
    }

    #[inline(always)]
    fn issue(&mut self, kind: CommandKind, address: PhysicalAddress, earliest: u64) -> u64 {
        let ch = address.channel;
        let t = earliest.max(self.bus_free[ch]);
        self.bus_free[ch] = t + 1;
        self.counters.commands[kind.index()] += 1;
        if self.config.record_commands {
            self.commands.push(ScheduledCommand {
                cycle: t,
                kind,
                address,
            });
        }
        t
    }

    #[inline(always)]
    fn do_precharge(
        &mut self,
        bi: usize,
        victim_sa: usize,
        addr: &PhysicalAddress,
        earliest: u64,
    ) -> u64 {
        let si = self.sa_index(bi, victim_sa);
        let ri = self.rank_index(addr);
        let e = earliest.max(self.subarrays[si].next_pre);
        let cmd_addr = PhysicalAddress {
            subarray: victim_sa,
            ..*addr
        };
        let t = self.issue(CommandKind::Precharge, cmd_addr, e);
        self.banks[bi].last_use = self.banks[bi].last_use.max(t);
        let sa = &mut self.subarrays[si];
        sa.next_act = sa.next_act.max(t + self.timing.t_rp);
        let Some(open) = sa.open.take() else {
            return t;
        };
        self.counters.subarray_open_cycles += t.saturating_sub(open.since);
        let bank = &mut self.banks[bi];
        bank.open_count -= 1;
        bank.open_since_sum -= open.since;
        if bank.open_count == 0 {
            self.counters.bank_active_cycles += t.saturating_sub(bank.active_since);
            let rank = &mut self.ranks[ri];
            rank.open_banks -= 1;
            if rank.open_banks == 0 {
                self.counters.rank_active_cycles += t.saturating_sub(rank.active_since);
            }
        }
        t
    }

    #[inline(always)]
    fn do_activate(&mut self, bi: usize, addr: &PhysicalAddress, earliest: u64) -> u64 {
        let si = self.sa_index(bi, addr.subarray);
        let ri = self.rank_index(addr);
        let timing = self.timing;
        let arch = self.config.arch;
        let rank = &self.ranks[ri];
        let mut e = earliest
            .max(self.subarrays[si].next_act)
            .max(self.banks[bi].next_act)
            .max(rank.next_act)
            .max(rank.faw[rank.faw_next]);
        if arch == DramArch::Salp1 {
            e = e.max(self.banks[bi].new_sa_gate);
        }
        let t = self.issue(CommandKind::Activate, *addr, e);

        let sa = &mut self.subarrays[si];
        sa.next_act = t + timing.t_rc;
        sa.next_pre = sa.next_pre.max(t + timing.t_ras);
        sa.col_ready = t + timing.t_rcd;
        debug_assert!(sa.open.is_none(), "activating an open subarray");
        sa.open = Some(OpenRow {
            row: addr.row,
            since: t,
        });

        let bank_gate = match arch {
            DramArch::Ddr3 => timing.t_rc,
            _ => timing.t_rrd_sa,
        };
        let bank = &mut self.banks[bi];
        bank.next_act = bank.next_act.max(t + bank_gate);
        bank.last_use = bank.last_use.max(t);
        bank.designated = addr.subarray;
        let bank_was_idle = bank.open_count == 0;
        if bank_was_idle {
            bank.active_since = t;
        }
        bank.open_count += 1;
        bank.open_since_sum += t;

        let rank = &mut self.ranks[ri];
        if bank_was_idle {
            if rank.open_banks == 0 {
                rank.active_since = t;
            }
            rank.open_banks += 1;
        }
        rank.next_act = rank.next_act.max(t + timing.t_rrd);
        rank.faw[rank.faw_next] = t + timing.t_faw;
        rank.faw_next = (rank.faw_next + 1) % rank.faw.len();
        t
    }

    #[inline(always)]
    fn do_column(
        &mut self,
        bi: usize,
        addr: &PhysicalAddress,
        kind: RequestKind,
        earliest: u64,
    ) -> u64 {
        let si = self.sa_index(bi, addr.subarray);
        let rank = &self.ranks[self.rank_index(addr)];
        let (cmd, bus_gate) = match kind {
            RequestKind::Read => (CommandKind::Read, rank.next_rd),
            RequestKind::Write => (CommandKind::Write, rank.next_wr),
        };
        let e = earliest.max(self.subarrays[si].col_ready).max(bus_gate);
        let t = self.issue(cmd, *addr, e);
        self.column_issued(bi, addr, kind, t)
    }

    /// The state updates of a `kind` column command to `addr` issued at
    /// `t`; returns its completion. Each is a `max` with `t` plus a
    /// constant (see the module docs on row runs).
    #[inline(always)]
    fn column_issued(
        &mut self,
        bi: usize,
        addr: &PhysicalAddress,
        kind: RequestKind,
        t: u64,
    ) -> u64 {
        let si = self.sa_index(bi, addr.subarray);
        let ri = self.rank_index(addr);
        let timing = self.timing;
        let rank = &mut self.ranks[ri];
        let completion;
        let quiesce;
        match kind {
            RequestKind::Read => {
                rank.next_rd = rank.next_rd.max(t + timing.t_ccd);
                let rtw = (timing.cl + timing.t_burst + 2).saturating_sub(timing.cwl);
                rank.next_wr = rank.next_wr.max(t + rtw);
                quiesce = t + timing.t_rtp;
                completion = t + timing.cl + timing.t_burst;
            }
            RequestKind::Write => {
                rank.next_wr = rank.next_wr.max(t + timing.t_ccd);
                rank.next_rd = rank
                    .next_rd
                    .max(t + timing.cwl + timing.t_burst + timing.t_wtr);
                quiesce = t + timing.cwl + timing.t_burst + timing.t_wr;
                completion = t + timing.cwl + timing.t_burst;
            }
        }
        let sa = &mut self.subarrays[si];
        sa.next_pre = sa.next_pre.max(quiesce);
        let bank = &mut self.banks[bi];
        bank.new_sa_gate = bank.new_sa_gate.max(quiesce);
        bank.last_use = bank.last_use.max(completion);
        completion
    }

    /// Precharge every open subarray of bank `bi` at `earliest` or later;
    /// returns the last precharge's issue cycle (`earliest` if none).
    fn close_bank(&mut self, bi: usize, addr: &PhysicalAddress, earliest: u64) -> u64 {
        let mut last = earliest;
        for sa in 0..self.geometry.subarrays {
            if self.subarrays[self.sa_index(bi, sa)].open.is_some() {
                last = self.do_precharge(bi, sa, addr, earliest);
            }
        }
        last
    }

    /// Timeout row policy: if the bank has sat idle past the deadline,
    /// precharge its open rows (at the deadline, not at `now`).
    fn close_stale_rows(&mut self, bi: usize, addr: &PhysicalAddress, now: u64, timeout: u64) {
        let deadline = self.banks[bi].last_use.saturating_add(timeout);
        if now > deadline && self.banks[bi].open_count > 0 {
            self.close_bank(bi, addr, deadline);
        }
    }

    /// Run every refresh due by `now`: precharge every open subarray, issue
    /// REF once the last precharge has had tRP, and hold every activation
    /// for tRFC.
    fn maybe_refresh(&mut self, now: u64) {
        while now >= self.next_refresh {
            let start = self.next_refresh;
            let mut ready = start;
            for bi in 0..self.banks.len() {
                if self.banks[bi].open_count > 0 {
                    let last_pre = self.close_bank(bi, &self.addr_of_bank(bi), start);
                    ready = last_pre + self.timing.t_rp;
                }
            }
            let t = self.issue(CommandKind::Refresh, PhysicalAddress::default(), ready);
            for sa in &mut self.subarrays {
                sa.next_act = sa.next_act.max(t + self.timing.t_rfc);
            }
            self.next_refresh += self.timing.t_refi;
        }
    }

    fn addr_of_bank(&self, bi: usize) -> PhysicalAddress {
        let banks = self.geometry.banks;
        let ranks = self.geometry.ranks;
        let bank = bi % banks;
        let rank = (bi / banks) % ranks;
        let channel = bi / (banks * ranks);
        PhysicalAddress {
            channel,
            rank,
            bank,
            ..PhysicalAddress::default()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::energy::EnergyParams;
    use crate::state::tests::BankState;
    use proptest::prelude::*;

    /// Runs served, and tail requests served in closed form or through
    /// `serve`, on this thread: pinned by tests so that a fall-back to
    /// per-request service fails whatever the machine's timing noise.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct KernelTally {
        pub(crate) runs: u64,
        pub(crate) closed_form_tails: u64,
        pub(crate) served_tails: u64,
    }

    thread_local! {
        pub(crate) static KERNEL: core::cell::Cell<KernelTally> = core::cell::Cell::default();
    }

    /// Apply `count` to this thread's tally.
    pub(super) fn tally(count: impl FnOnce(&mut KernelTally)) {
        KERNEL.with(|k| {
            let mut tally = k.get();
            count(&mut tally);
            k.set(tally);
        });
    }

    /// `geometry` with `timing` and the Micron 2 Gb x8 currents.
    fn device(geometry: Geometry, timing: TimingParams) -> Device {
        Device::new(geometry, timing, EnergyParams::micron_2gb_x8()).unwrap()
    }

    /// A controller on `geometry` with `timing` under `config`.
    fn controller(
        geometry: Geometry,
        timing: TimingParams,
        config: ControllerConfig,
    ) -> MemoryController {
        MemoryController::new(&device(geometry, timing), config).unwrap()
    }

    fn mc(arch: DramArch) -> MemoryController {
        let geometry = match arch {
            DramArch::Ddr3 => Geometry::ddr3_2gb_x8(),
            _ => Geometry::salp_2gb_x8(),
        };
        controller(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(arch),
        )
    }

    fn addr(bank: usize, subarray: usize, row: usize, column: usize) -> PhysicalAddress {
        PhysicalAddress {
            channel: 0,
            rank: 0,
            bank,
            subarray,
            row,
            column,
        }
    }

    #[test]
    fn salp_requires_subarrays() {
        let err = MemoryController::new(
            &device(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k()),
            ControllerConfig::new(DramArch::Salp1),
        )
        .unwrap_err();
        assert!(err.to_string().contains("subarrays"));
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn a_run_whose_columns_wrap_is_refused() {
        let mut c = mc(DramArch::Ddr3);
        let run = RowRun {
            head: Request::read(addr(0, 0, 0, 5)),
            len: usize::MAX - 2, // column 5 + len - 1 wraps to 1
        };
        c.serve_run(run, DriveMode::Streamed, 0, None);
    }

    #[test]
    fn first_access_is_miss_with_trcd_cl_burst() {
        let mut c = mc(DramArch::Ddr3);
        let rec = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        assert_eq!(rec.outcome, RowBufferOutcome::Miss);
        let t = TimingParams::ddr3_1600k();
        assert_eq!(rec.latency(), t.t_rcd + t.cl + t.t_burst);
    }

    #[test]
    fn second_access_same_row_is_hit() {
        let mut c = mc(DramArch::Ddr3);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(0, 0, 0, 1)), r0.completion);
        assert_eq!(r1.outcome, RowBufferOutcome::Hit);
        let t = TimingParams::ddr3_1600k();
        assert_eq!(r1.latency(), t.cl + t.t_burst);
    }

    #[test]
    fn conflict_pays_trp_trcd_cl_burst() {
        let mut c = mc(DramArch::Ddr3);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        // Wait long enough that tRAS/tRC are satisfied.
        let late = r0.completion + 100;
        let r1 = c.serve(Request::read(addr(0, 0, 1, 0)), late);
        assert_eq!(r1.outcome, RowBufferOutcome::Conflict);
        let t = TimingParams::ddr3_1600k();
        assert_eq!(r1.latency(), t.t_rp + t.t_rcd + t.cl + t.t_burst);
    }

    #[test]
    fn ddr3_cross_subarray_is_plain_conflict() {
        let geometry = Geometry::salp_2gb_x8();
        let mut c = controller(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        );
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(0, 3, 0, 0)), r0.completion + 100);
        assert_eq!(r1.outcome, RowBufferOutcome::Conflict);
        let t = TimingParams::ddr3_1600k();
        assert_eq!(r1.latency(), t.t_rp + t.t_rcd + t.cl + t.t_burst);
    }

    #[test]
    fn salp1_cross_subarray_skips_trp() {
        let mut c = mc(DramArch::Salp1);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(0, 3, 7, 0)), r0.completion + 100);
        assert_eq!(r1.outcome, RowBufferOutcome::ConflictOtherSubarray);
        let t = TimingParams::ddr3_1600k();
        // PRE overlapped: only the command-bus slot (1 cycle) precedes ACT.
        assert_eq!(r1.latency(), 1 + t.t_rcd + t.cl + t.t_burst);
    }

    #[test]
    fn salp1_gate_delays_back_to_back_cross_subarray() {
        let mut c1 = mc(DramArch::Salp1);
        let mut c2 = mc(DramArch::Salp2);
        // Stream two requests to different subarrays back-to-back: SALP-2
        // may activate before the first access quiesces, SALP-1 may not.
        let r0a = c1.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1a = c1.serve(Request::read(addr(0, 1, 1, 0)), 0);
        let r0b = c2.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1b = c2.serve(Request::read(addr(0, 1, 1, 0)), 0);
        assert_eq!(r0a.completion, r0b.completion);
        assert!(
            r1a.completion > r1b.completion,
            "SALP-2 ({}) should beat SALP-1 ({})",
            r1b.completion,
            r1a.completion
        );
        let _ = (r0a, r0b);
    }

    #[test]
    fn masa_reaccess_open_subarray_is_sasel_hit() {
        let mut c = mc(DramArch::SalpMasa);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(0, 1, 1, 0)), r0.completion);
        assert_eq!(r1.outcome, RowBufferOutcome::Miss);
        // Both subarrays stay open under MASA; going back costs one SASEL.
        let r2 = c.serve(Request::read(addr(0, 0, 0, 1)), r1.completion);
        assert_eq!(r2.outcome, RowBufferOutcome::HitOtherSubarray);
        let t = TimingParams::ddr3_1600k();
        assert_eq!(r2.latency(), t.t_sa_sel + t.cl + t.t_burst);
    }

    #[test]
    fn bank_parallel_activations_overlap() {
        let mut c = mc(DramArch::Ddr3);
        // Stream to two banks: the second ACT waits only tRRD, so the
        // second completion is much earlier than two serial misses.
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(1, 0, 0, 0)), 0);
        let t = TimingParams::ddr3_1600k();
        assert_eq!(r0.completion, t.t_rcd + t.cl + t.t_burst);
        assert!(r1.completion < 2 * r0.completion);
    }

    #[test]
    fn same_bank_reactivation_waits_trc() {
        let mut c = mc(DramArch::Ddr3);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(0, 0, 1, 0)), 0);
        let t = TimingParams::ddr3_1600k();
        // Second ACT to the same bank cannot issue before tRC.
        assert!(r1.completion >= t.t_rc + t.t_rcd + t.cl + t.t_burst);
        let _ = r0;
    }

    #[test]
    fn closed_row_policy_makes_misses() {
        let geometry = Geometry::ddr3_2gb_x8();
        let config = ControllerConfig {
            row_policy: RowPolicy::Closed,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = controller(geometry, TimingParams::ddr3_1600k(), config);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(0, 0, 0, 1)), r0.completion + 100);
        // Same row, but the closed-row policy precharged it.
        assert_eq!(r1.outcome, RowBufferOutcome::Miss);
    }

    #[test]
    fn write_then_read_turnaround() {
        let mut c = mc(DramArch::Ddr3);
        let w = c.serve(Request::write(addr(0, 0, 0, 0)), 0);
        let r = c.serve(Request::read(addr(0, 0, 0, 1)), w.completion);
        assert_eq!(r.outcome, RowBufferOutcome::Hit);
        let t = TimingParams::ddr3_1600k();
        // The read waits the write-to-read turnaround beyond a plain hit.
        assert!(r.latency() >= t.cl + t.t_burst);
    }

    #[test]
    fn counters_track_commands_and_outcomes() {
        let mut c = mc(DramArch::Ddr3);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let r1 = c.serve(Request::read(addr(0, 0, 0, 1)), r0.completion);
        let _ = c.serve(Request::write(addr(0, 0, 5, 0)), r1.completion + 100);
        let k = c.counters();
        assert_eq!(k.command_count(CommandKind::Activate), 2);
        assert_eq!(k.command_count(CommandKind::Precharge), 1);
        assert_eq!(k.command_count(CommandKind::Read), 2);
        assert_eq!(k.command_count(CommandKind::Write), 1);
        assert_eq!(k.outcome_count(RowBufferOutcome::Miss), 1);
        assert_eq!(k.outcome_count(RowBufferOutcome::Hit), 1);
        assert_eq!(k.outcome_count(RowBufferOutcome::Conflict), 1);
        assert_eq!(k.reads, 2);
        assert_eq!(k.writes, 1);
    }

    #[test]
    fn finalized_counters_close_open_intervals() {
        let mut c = mc(DramArch::Ddr3);
        let r = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let k = c.finalized_counters();
        // The row opened at tRCD-act time and stays open to the makespan.
        assert!(k.bank_active_cycles > 0);
        assert!(k.bank_active_cycles <= r.completion);
        assert_eq!(k.subarray_open_cycles, k.bank_active_cycles);
    }

    #[test]
    fn refresh_issues_ref_commands() {
        let geometry = Geometry::ddr3_2gb_x8();
        let config = ControllerConfig {
            refresh_enabled: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = controller(geometry, TimingParams::ddr3_1600k(), config);
        let t = TimingParams::ddr3_1600k();
        let _ = c.serve(Request::read(addr(0, 0, 0, 0)), 2 * t.t_refi + 1);
        assert_eq!(c.counters().command_count(CommandKind::Refresh), 2);
    }

    #[test]
    fn command_recording() {
        let config = ControllerConfig {
            record_commands: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = controller(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config);
        let _ = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let kinds: Vec<_> = c.commands().iter().map(|c| c.kind).collect();
        assert_eq!(kinds, vec![CommandKind::Activate, CommandKind::Read]);
    }

    #[test]
    fn faw_limits_activation_bursts() {
        let mut c = mc(DramArch::Ddr3);
        // Five misses to five banks back-to-back: the fifth ACT must wait
        // for the four-activate window.
        let mut acts = Vec::new();
        for b in 0..5 {
            let _ = c.serve(Request::read(addr(b, 0, 0, 0)), 0);
            acts.push(b);
        }
        let t = TimingParams::ddr3_1600k();
        // Activations: 0, >=tRRD, ... the 5th at >= first + tFAW.
        // We can't read issue times without recording; re-run with recording.
        let config = ControllerConfig {
            record_commands: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c2 = controller(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config);
        for b in 0..5 {
            let _ = c2.serve(Request::read(addr(b, 0, 0, 0)), 0);
        }
        let act_times: Vec<u64> = c2
            .commands()
            .iter()
            .filter(|sc| sc.kind == CommandKind::Activate)
            .map(|sc| sc.cycle)
            .collect();
        assert_eq!(act_times.len(), 5);
        assert!(act_times[4] >= act_times[0] + t.t_faw);
    }

    #[test]
    fn faw_window_gates_each_fifth_activation_exactly() {
        // A tRCD short enough that four ACTs fit in one tFAW: each ACT
        // after the fourth waits for the one four before it.
        let timing = TimingParams {
            t_rcd: 2,
            t_faw: 60,
            ..TimingParams::ddr3_1600k()
        };
        let config = ControllerConfig {
            record_commands: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = controller(Geometry::ddr3_2gb_x8(), timing, config);
        for b in 0..8 {
            let _ = c.serve(Request::read(addr(b, 0, 0, 0)), 0);
        }
        let acts: Vec<u64> = c
            .commands()
            .iter()
            .filter(|sc| sc.kind == CommandKind::Activate)
            .map(|sc| sc.cycle)
            .collect();
        // tRRD = 5 apart, then tFAW = 60 after the ACT four before.
        assert_eq!(acts, [0, 5, 10, 15, 60, 65, 70, 75]);
    }

    #[test]
    fn timeout_policy_closes_idle_banks() {
        let config = ControllerConfig {
            row_policy: RowPolicy::Timeout(100),
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = controller(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config);
        let r0 = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        // Within the timeout: still a hit.
        let r1 = c.serve(Request::read(addr(0, 0, 0, 1)), r0.completion + 50);
        assert_eq!(r1.outcome, RowBufferOutcome::Hit);
        // Past the timeout: the bank was precharged, so a miss (not a
        // conflict) even for a different row.
        let r2 = c.serve(Request::read(addr(0, 0, 9, 0)), r1.completion + 500);
        assert_eq!(r2.outcome, RowBufferOutcome::Miss);
        let t = TimingParams::ddr3_1600k();
        assert_eq!(r2.latency(), t.t_rcd + t.cl + t.t_burst);
    }

    #[test]
    fn timeout_policy_never_slower_than_closed_on_conflicts() {
        let mk = |policy| {
            let config = ControllerConfig {
                row_policy: policy,
                ..ControllerConfig::new(DramArch::Ddr3)
            };
            controller(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config)
        };
        // Spaced accesses to alternating rows: timeout behaves like
        // closed-row (misses), open-row pays conflicts.
        let mut open = mk(RowPolicy::Open);
        let mut timeout = mk(RowPolicy::Timeout(50));
        let mut t_open = 0;
        let mut t_timeout = 0;
        let mut arrival = 0;
        for i in 0..8 {
            let a = addr(0, 0, i % 2, 0);
            t_open += open.serve(Request::read(a), arrival).latency();
            t_timeout += timeout.serve(Request::read(a), arrival).latency();
            arrival += 500;
        }
        assert!(t_timeout < t_open, "timeout {t_timeout} vs open {t_open}");
    }

    #[test]
    fn channels_are_independent() {
        let geometry = Geometry {
            channels: 2,
            ..Geometry::ddr3_2gb_x8()
        };
        let mut c = controller(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        );
        // Same bank/row coordinates on two channels: no interference at
        // all — both are plain misses with identical latency, and the
        // second channel's command bus is free.
        let a0 = addr(0, 0, 0, 0);
        let a1 = PhysicalAddress { channel: 1, ..a0 };
        let r0 = c.serve(Request::read(a0), 0);
        let r1 = c.serve(Request::read(a1), 0);
        assert_eq!(r0.completion, r1.completion);
        assert_eq!(r0.outcome, RowBufferOutcome::Miss);
        assert_eq!(r1.outcome, RowBufferOutcome::Miss);
    }

    #[test]
    fn ranks_share_channel_but_not_row_state() {
        let geometry = Geometry {
            ranks: 2,
            ..Geometry::ddr3_2gb_x8()
        };
        let mut c = controller(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        );
        let a0 = addr(0, 0, 0, 0);
        let a1 = PhysicalAddress {
            rank: 1,
            row: 7,
            ..a0
        };
        let r0 = c.serve(Request::read(a0), 0);
        // Different rank: independent bank state (a miss, not a conflict),
        // but the shared command bus serializes issue slots.
        let r1 = c.serve(Request::read(a1), 0);
        assert_eq!(r1.outcome, RowBufferOutcome::Miss);
        assert!(r1.completion > r0.completion);
        assert!(r1.completion < r0.completion + TimingParams::ddr3_1600k().t_rc);
    }

    #[test]
    fn multi_channel_refresh_targets_every_bank() {
        let geometry = Geometry {
            channels: 2,
            ranks: 2,
            ..Geometry::ddr3_2gb_x8()
        };
        let config = ControllerConfig {
            refresh_enabled: true,
            record_commands: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = controller(geometry, TimingParams::ddr3_1600k(), config);
        let t = TimingParams::ddr3_1600k();
        // Open a row in the last bank of the last rank of channel 1, then
        // trigger a refresh: the precharge bookkeeping must hit the right
        // flattened bank index (a wrong addr_of_bank would panic or leak
        // an open interval).
        let far = PhysicalAddress {
            channel: 1,
            rank: 1,
            bank: 7,
            ..PhysicalAddress::default()
        };
        let r = c.serve(Request::read(far), 0);
        let _ = c.serve(Request::read(addr(0, 0, 0, 1)), t.t_refi + 10);
        assert!(c.counters().command_count(CommandKind::Refresh) >= 1);
        // The refresh precharged the far bank: a revisit misses again.
        let r2 = c.serve(
            Request::read(PhysicalAddress { column: 2, ..far }),
            2 * t.t_refi,
        );
        assert_eq!(r2.outcome, RowBufferOutcome::Miss);
        let _ = r;
    }

    #[test]
    fn addr_of_bank_roundtrips_flat_index() {
        let geometry = Geometry {
            channels: 2,
            ranks: 2,
            ..Geometry::ddr3_2gb_x8()
        };
        let c = controller(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        );
        for ch in 0..2 {
            for ra in 0..2 {
                for ba in 0..8 {
                    let a = PhysicalAddress {
                        channel: ch,
                        rank: ra,
                        bank: ba,
                        ..PhysicalAddress::default()
                    };
                    let bi = c.bank_index(&a);
                    let back = c.addr_of_bank(bi);
                    assert_eq!((back.channel, back.rank, back.bank), (ch, ra, ba));
                }
            }
        }
    }

    /// A controller with a short refresh interval, so that a run of a
    /// whole row crosses several refresh deadlines.
    fn refreshing(config: ControllerConfig) -> MemoryController {
        let timing = TimingParams {
            t_refi: 700,
            ..TimingParams::ddr3_1600k()
        };
        let config = ControllerConfig {
            refresh_enabled: true,
            ..config
        };
        controller(Geometry::ddr3_2gb_x8(), timing, config)
    }

    /// Serve `run` request by request, as `serve_run` must.
    fn serve_each(c: &mut MemoryController, run: RowRun, mode: DriveMode) -> Vec<ServiceRecord> {
        let mut arrival = 0;
        let records = run.requests().map(|r| {
            let rec = c.serve(r, arrival);
            arrival = mode.next_arrival(arrival, rec.completion);
            rec
        });
        records.collect()
    }

    #[test]
    fn a_spaced_run_splits_at_each_refresh_deadline() {
        let run = RowRun {
            head: Request::write(addr(0, 0, 0, 0)),
            len: 128,
        };
        let mode = DriveMode::Spaced(4);
        let config = ControllerConfig {
            record_commands: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut by_run = refreshing(config);
        let mut records = Vec::new();
        KERNEL.with(|k| k.set(KernelTally::default()));
        by_run.serve_run(run, mode, 0, Some(&mut records));
        let tally = KERNEL.with(|k| k.get());

        let mut by_request = refreshing(config);
        assert_eq!(records, serve_each(&mut by_request, run, mode));
        assert_eq!(by_run.commands(), by_request.commands());
        assert_eq!(by_run.finalized_counters(), by_request.finalized_counters());
        // Each refresh lands on one tail request's arrival, which goes
        // through `serve` as a miss and heads the rest of the run.
        let refreshes = by_run.counters().command_count(CommandKind::Refresh);
        assert!(refreshes >= 3, "{refreshes}");
        assert_eq!(
            by_run.counters().outcome_count(RowBufferOutcome::Miss),
            1 + refreshes
        );
        let want = KernelTally {
            runs: 1,
            closed_form_tails: 127 - refreshes,
            served_tails: refreshes,
        };
        assert_eq!(tally, want);
    }

    #[test]
    fn a_streamed_run_refreshes_only_at_its_head() {
        let run = RowRun {
            head: Request::read(addr(0, 0, 0, 0)),
            len: 128,
        };
        let mut c = refreshing(ControllerConfig::new(DramArch::Ddr3));
        KERNEL.with(|k| k.set(KernelTally::default()));
        c.serve_run(run, DriveMode::Streamed, 1650, None);
        // Deadlines 700 and 1400 are due at the head's arrival; the run's
        // 128 · tCCD cycles cross more, which wait for the next arrival.
        assert_eq!(c.counters().command_count(CommandKind::Refresh), 2);
        assert!(c.makespan() > 2100);
        let want = KernelTally {
            runs: 1,
            closed_form_tails: 127,
            served_tails: 0,
        };
        assert_eq!(KERNEL.with(|k| k.get()), want);
    }

    #[test]
    fn the_closed_row_policy_serves_every_tail_through_serve() {
        let config = ControllerConfig {
            row_policy: RowPolicy::Closed,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = controller(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config);
        let run = RowRun {
            head: Request::read(addr(0, 0, 0, 0)),
            len: 16,
        };
        KERNEL.with(|k| k.set(KernelTally::default()));
        c.serve_run(run, DriveMode::Streamed, 0, None);
        let want = KernelTally {
            runs: 1,
            closed_form_tails: 0,
            served_tails: 15,
        };
        assert_eq!(KERNEL.with(|k| k.get()), want);
    }

    #[test]
    fn refresh_waits_trp_after_the_precharge_all() {
        let config = ControllerConfig {
            record_commands: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = refreshing(config);
        let _ = c.serve(Request::read(addr(0, 0, 0, 0)), 0);
        let _ = c.serve(Request::read(addr(1, 0, 0, 0)), 0);
        let _ = c.serve(Request::read(addr(2, 0, 0, 0)), 700);
        let cycle = |kind| {
            let mut cycles = c.commands().iter().filter(|sc| sc.kind == kind);
            cycles.next_back().unwrap().cycle
        };
        let t = TimingParams::ddr3_1600k();
        assert_eq!(
            cycle(CommandKind::Refresh),
            cycle(CommandKind::Precharge) + t.t_rp
        );
        // With nothing open, REF issues at the deadline.
        let mut idle = refreshing(config);
        let _ = idle.serve(Request::read(addr(0, 0, 0, 0)), 5000);
        let refs: Vec<u64> = idle
            .commands()
            .iter()
            .filter(|sc| sc.kind == CommandKind::Refresh)
            .map(|sc| sc.cycle)
            .collect();
        assert_eq!(refs[..2], [700, 1400]);
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn a_run_that_ends_past_its_row_is_refused() {
        let mut c = mc(DramArch::Ddr3);
        let run = RowRun {
            head: Request::read(addr(0, 0, 0, 120)),
            len: 9, // columns 120..=128 of a 128-burst row
        };
        c.serve_run(run, DriveMode::Streamed, 0, None);
    }

    /// A request to one of the first two banks, a quarter of the
    /// subarrays and three rows, so that streams collide, and the gap
    /// after its completion to the next arrival (`None`: the next one
    /// streams in at once).
    fn colliding_request() -> impl Strategy<Value = (Request, Option<u64>)> {
        let place = (0usize..2, 0usize..4, 0usize..3, 0usize..128);
        (place, prop::bool::ANY, 0u64..80).prop_map(|((bank, quarter, row, column), write, gap)| {
            let a = addr(bank, quarter, row, column);
            let request = if write {
                Request::write(a)
            } else {
                Request::read(a)
            };
            (request, (gap < 60).then_some(gap))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every request, on every architecture, row policy and
        /// refresh setting, with 1 (DDR3 only), 8 or 16 subarrays: each
        /// bank's open count is the number of its open subarrays, a single
        /// open subarray is designated on DDR3 and SALP-1/2, and the O(1)
        /// outcome of every probe agrees with the scan reference built
        /// from the subarray records.
        #[test]
        fn row_buffer_records_agree_with_the_scan_reference(
            arch in prop_oneof![
                Just(DramArch::Ddr3),
                Just(DramArch::Salp1),
                Just(DramArch::Salp2),
                Just(DramArch::SalpMasa),
            ],
            subarrays in prop_oneof![Just(1usize), Just(8), Just(16)],
            policy in prop_oneof![
                Just(RowPolicy::Open),
                Just(RowPolicy::Closed),
                Just(RowPolicy::Timeout(40)),
            ],
            refresh_enabled in prop::bool::ANY,
            requests in prop::collection::vec(colliding_request(), 1..48),
        ) {
            let subarrays = if arch.exploits_subarrays() { subarrays.max(8) } else { subarrays };
            let geometry = Geometry {
                subarrays,
                ..Geometry::ddr3_2gb_x8()
            };
            let timing = TimingParams { t_refi: 700, ..TimingParams::ddr3_1600k() };
            let config = ControllerConfig {
                row_policy: policy,
                refresh_enabled,
                ..ControllerConfig::new(arch)
            };
            let mut c = controller(geometry, timing, config);
            let mut arrival = 0;
            for (request, gap) in requests {
                let address = PhysicalAddress {
                    subarray: request.address.subarray * subarrays / 4,
                    ..request.address
                };
                let rec = c.serve(Request { address, ..request }, arrival);
                arrival = gap.map_or(arrival, |gap| rec.completion + gap);
                for bi in 0..2 {
                    let bank = c.banks[bi];
                    let mut reference = BankState::new(subarrays);
                    for (sa, s) in c.subarrays[bi * subarrays..][..subarrays].iter().enumerate() {
                        if let Some(open) = s.open {
                            reference.activate(sa, open.row);
                        }
                    }
                    reference.select(bank.designated);
                    prop_assert_eq!(bank.open_count, reference.open_count());
                    if arch != DramArch::SalpMasa {
                        prop_assert!(bank.open_count <= 1);
                        if let Some((open, _)) = reference.single_open() {
                            prop_assert_eq!(bank.designated, open);
                        }
                    }
                    for sa in 0..subarrays {
                        for row in 0..4 {
                            let probe = addr(bi, sa, row, 0);
                            prop_assert_eq!(c.peek_outcome(&probe), reference.classify(arch, sa, row));
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn serve_panics_on_bad_address() {
        let mut c = mc(DramArch::Ddr3);
        let bad = PhysicalAddress {
            bank: 99,
            ..PhysicalAddress::default()
        };
        let _ = c.serve(Request::read(bad), 0);
    }
}
