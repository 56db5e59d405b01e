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
//! [`MemoryController::serve`] (miss, conflict, SASEL and every SALP rule).
//! Under the open-row policy with refresh off, the `L` tail requests are
//! then served in closed form, in O(1) however long the run:
//!
//! * After the head its row is open and designated, and nothing closes
//!   it before the run ends (no refresh, no timeout, no closing
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
//! * **Dependent / Spaced(gap):** `aᵢ = cᵢ₋₁ + gap` (`gap = 0` for
//!   Dependent), where `cᵢ = tᵢ + D` with `D = CL + tBURST` for reads and
//!   `CWL + tBURST` for writes. So `tᵢ = tᵢ₋₁ + max(D + gap, tCCD)`, and
//!   each tail latency is `cᵢ − aᵢ = step − gap`.
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
//! policy, or with refresh on, each tail request goes through `serve`
//! instead: there is one kernel, not a second simulator.

use std::collections::VecDeque;

use crate::address::PhysicalAddress;
use crate::command::{CommandKind, ScheduledCommand};
use crate::error::ConfigError;
use crate::geometry::Geometry;
use crate::request::{DriveMode, Request, RequestKind, RowRun};
use crate::state::{BankState, RowBufferOutcome};
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

#[derive(Debug, Clone, Copy, Default)]
struct SubarrayTiming {
    next_act: u64,
    next_pre: u64,
    col_ready: u64,
    open_since: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankTiming {
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
    open_count: usize,
    active_since: u64,
}

#[derive(Debug, Clone, Default)]
struct RankTiming {
    next_act: u64,
    act_window: VecDeque<u64>,
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
/// use drmap_dram::geometry::Geometry;
/// use drmap_dram::timing::{DramArch, TimingParams};
/// use drmap_dram::request::Request;
/// use drmap_dram::address::PhysicalAddress;
///
/// let mut mc = MemoryController::new(
///     Geometry::ddr3_2gb_x8(),
///     TimingParams::ddr3_1600k(),
///     ControllerConfig::new(DramArch::Ddr3),
/// )?;
/// let rec = mc.serve(Request::read(PhysicalAddress::default()), 0);
/// assert_eq!(rec.latency(), 26); // row-buffer miss: tRCD + CL + tBURST
/// # Ok::<(), drmap_dram::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    geometry: Geometry,
    timing: TimingParams,
    config: ControllerConfig,
    banks: Vec<BankState>,
    bank_timing: Vec<BankTiming>,
    sa_timing: Vec<SubarrayTiming>,
    rank_timing: Vec<RankTiming>,
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
    /// Returns [`ConfigError`] if the geometry or timing parameters are
    /// inconsistent, or if a SALP architecture is configured on a geometry
    /// with a single subarray per bank.
    pub fn new(
        geometry: Geometry,
        timing: TimingParams,
        config: ControllerConfig,
    ) -> Result<Self, ConfigError> {
        geometry.validate()?;
        timing.validate()?;
        if config.arch.exploits_subarrays() && geometry.subarrays < 2 {
            return Err(ConfigError::new(format!(
                "{} requires at least 2 subarrays per bank, geometry has {}",
                config.arch, geometry.subarrays
            )));
        }
        let total_banks = geometry.channels * geometry.ranks * geometry.banks;
        let total_ranks = geometry.channels * geometry.ranks;
        Ok(MemoryController {
            banks: vec![BankState::new(geometry.subarrays); total_banks],
            bank_timing: vec![BankTiming::default(); total_banks],
            sa_timing: vec![SubarrayTiming::default(); total_banks * geometry.subarrays],
            rank_timing: vec![RankTiming::default(); total_ranks],
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
        for (bi, bt) in self.bank_timing.iter().enumerate() {
            if bt.open_count > 0 {
                c.bank_active_cycles += end.saturating_sub(bt.active_since);
            }
            for sa in 0..self.geometry.subarrays {
                if let Some(since) = self.sa_timing[bi * self.geometry.subarrays + sa].open_since {
                    c.subarray_open_cycles += end.saturating_sub(since);
                }
            }
        }
        for rt in &self.rank_timing {
            if rt.open_banks > 0 {
                c.rank_active_cycles += end.saturating_sub(rt.active_since);
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
        let bi = self.bank_index(address);
        self.banks[bi].classify(self.config.arch, address.subarray, address.row)
    }

    /// Serve one request that becomes visible at cycle `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if the address lies outside the configured geometry.
    pub fn serve(&mut self, request: Request, arrival: u64) -> ServiceRecord {
        let addr = request.address;
        addr.validate(&self.geometry)
            .expect("request address outside geometry");
        if self.config.refresh_enabled {
            self.maybe_refresh(arrival);
        }
        let bi = self.bank_index(&addr);
        if let RowPolicy::Timeout(timeout) = self.config.row_policy {
            self.close_stale_rows(bi, &addr, arrival, timeout);
        }
        let outcome = self.banks[bi].classify(self.config.arch, addr.subarray, addr.row);
        self.counters.outcomes[outcome.index()] += 1;
        match request.kind {
            RequestKind::Read => self.counters.reads += 1,
            RequestKind::Write => self.counters.writes += 1,
        }

        let mut earliest = arrival;
        match outcome {
            RowBufferOutcome::Hit => {}
            RowBufferOutcome::HitOtherSubarray => {
                let t = self.issue(CommandKind::SubarraySelect, addr, earliest);
                self.banks[bi].select(addr.subarray);
                earliest = t + self.timing.t_sa_sel;
            }
            RowBufferOutcome::Miss => {
                let t_act = self.do_activate(bi, &addr, earliest);
                earliest = t_act;
            }
            RowBufferOutcome::Conflict => {
                // The victim is the open subarray: the target one, except on
                // DDR3 where the bank's single logical row buffer may hold a
                // row of another subarray.
                let victim = match self.config.arch {
                    DramArch::Ddr3 => self.banks[bi].single_open().expect("conflict w/o open").0,
                    _ => addr.subarray,
                };
                let t_pre = self.do_precharge(bi, victim, &addr, earliest);
                let t_act = self.do_activate(bi, &addr, t_pre + self.timing.t_rp);
                earliest = t_act;
            }
            RowBufferOutcome::ConflictOtherSubarray => {
                let victim = self.banks[bi].single_open().expect("conflict w/o open").0;
                match self.config.arch {
                    DramArch::Salp1 => {
                        // SALP-1: the PRE must still be issued first (one
                        // activated subarray at a time), but the new ACT
                        // does not wait tRP — only the command-bus slot.
                        let t_pre = self.do_precharge(bi, victim, &addr, earliest);
                        let t_act = self.do_activate(bi, &addr, t_pre + 1);
                        earliest = t_act;
                    }
                    DramArch::Salp2 => {
                        // SALP-2: the ACT may be issued *before* the victim
                        // finishes (write-recovery overlap; two subarrays
                        // transiently activated). A third activation must
                        // wait for the previous deferred precharge.
                        let gate = self.bank_timing[bi].last_deferred_pre;
                        let t_act =
                            self.do_activate(bi, &addr, earliest.max(gate.saturating_add(1)));
                        let t_pre = self.do_precharge(bi, victim, &addr, t_act + 1);
                        self.bank_timing[bi].last_deferred_pre = t_pre;
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
    /// module docs for when the tail is served in closed form and why that
    /// is exact.
    ///
    /// # Panics
    ///
    /// Panics if an address of the run lies outside the configured
    /// geometry.
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
        let Some(tail) = run.len.checked_sub(1) else {
            return done;
        };
        // `serve` checks the head; every other address lies between it and
        // the last.
        let last_valid = run.head.address.column.checked_add(tail).is_some()
            && run.request(tail).address.validate(&self.geometry).is_ok();
        assert!(last_valid, "request address outside geometry");
        let closed_form = self.config.row_policy == RowPolicy::Open && !self.config.refresh_enabled;
        let served = if closed_form { 1 } else { run.len };
        let mut completion = 0;
        for i in 0..served {
            let rec = self.serve(run.request(i), done.next_arrival);
            completion = rec.completion;
            done.latency_cycles += rec.latency();
            done.next_arrival = mode.next_arrival(done.next_arrival, rec.completion);
            if let Some(records) = records.as_deref_mut() {
                records.push(rec);
            }
        }
        if served == run.len {
            return done;
        }

        let addr = run.head.address;
        let kind = run.head.kind;
        let bi = self.bank_index(&addr);
        debug_assert_eq!(
            self.banks[bi].classify(self.config.arch, addr.subarray, addr.row),
            RowBufferOutcome::Hit
        );
        let timing = self.timing;
        let (cmd, data) = match kind {
            RequestKind::Read => (CommandKind::Read, timing.cl + timing.t_burst),
            RequestKind::Write => (CommandKind::Write, timing.cwl + timing.t_burst),
        };
        let (step, gap) = match mode {
            DriveMode::Streamed => (timing.t_ccd, 0),
            DriveMode::Dependent => (data.max(timing.t_ccd), 0),
            DriveMode::Spaced(gap) => ((data + gap).max(timing.t_ccd), gap),
        };
        let tail = tail as u64;
        // Only the head was served: `completion` is its completion.
        let first = completion - data;
        let issued = |i: u64| first + i * step;
        let last = issued(tail);

        if self.config.record_commands {
            self.commands.extend((1..=tail).map(|i| ScheduledCommand {
                cycle: issued(i),
                kind: cmd,
                address: run.request(i as usize).address,
            }));
        }
        if let Some(records) = records {
            let mut arrival = done.next_arrival;
            for i in 1..=tail {
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
            tail * (step - gap)
        } else {
            tail * (completion - done.next_arrival) + step * (tail * (tail + 1) / 2)
        };
        done.next_arrival = mode.next_arrival(done.next_arrival, last + data);

        self.bus_free[addr.channel] = last + 1;
        self.counters.commands[cmd.index()] += tail;
        self.counters.outcomes[RowBufferOutcome::Hit.index()] += tail;
        match kind {
            RequestKind::Read => self.counters.reads += tail,
            RequestKind::Write => self.counters.writes += tail,
        }
        let last_completion = self.column_issued(bi, &addr, kind, last);
        self.last_completion = self.last_completion.max(last_completion);
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

    fn do_precharge(
        &mut self,
        bi: usize,
        victim_sa: usize,
        addr: &PhysicalAddress,
        earliest: u64,
    ) -> u64 {
        let si = self.sa_index(bi, victim_sa);
        let e = earliest.max(self.sa_timing[si].next_pre);
        let cmd_addr = PhysicalAddress {
            subarray: victim_sa,
            ..*addr
        };
        let t = self.issue(CommandKind::Precharge, cmd_addr, e);
        self.bank_timing[bi].last_use = self.bank_timing[bi].last_use.max(t);
        let timing = self.timing;
        let sa_t = &mut self.sa_timing[si];
        sa_t.next_act = sa_t.next_act.max(t + timing.t_rp);
        if let Some(since) = sa_t.open_since.take() {
            self.counters.subarray_open_cycles += t.saturating_sub(since);
        }
        self.banks[bi].precharge(victim_sa);
        let ri = self.rank_index(addr);
        let bt = &mut self.bank_timing[bi];
        if bt.open_count > 0 {
            bt.open_count -= 1;
            if bt.open_count == 0 {
                let bank_since = bt.active_since;
                self.counters.bank_active_cycles += t.saturating_sub(bank_since);
                let rt = &mut self.rank_timing[ri];
                rt.open_banks -= 1;
                if rt.open_banks == 0 {
                    let rank_since = rt.active_since;
                    self.counters.rank_active_cycles += t.saturating_sub(rank_since);
                }
            }
        }
        t
    }

    fn do_activate(&mut self, bi: usize, addr: &PhysicalAddress, earliest: u64) -> u64 {
        let si = self.sa_index(bi, addr.subarray);
        let ri = self.rank_index(addr);
        let timing = self.timing;
        let arch = self.config.arch;
        let mut e = earliest
            .max(self.sa_timing[si].next_act)
            .max(self.bank_timing[bi].next_act)
            .max(self.rank_timing[ri].next_act);
        if arch == DramArch::Salp1 {
            e = e.max(self.bank_timing[bi].new_sa_gate);
        }
        // Four-activate window.
        if self.rank_timing[ri].act_window.len() >= 4 {
            let oldest = self.rank_timing[ri].act_window[self.rank_timing[ri].act_window.len() - 4];
            e = e.max(oldest + timing.t_faw);
        }
        let t = self.issue(CommandKind::Activate, *addr, e);

        let sa_t = &mut self.sa_timing[si];
        sa_t.next_act = t + timing.t_rc;
        sa_t.next_pre = sa_t.next_pre.max(t + timing.t_ras);
        sa_t.col_ready = t + timing.t_rcd;
        debug_assert!(sa_t.open_since.is_none(), "activating an open subarray");
        sa_t.open_since = Some(t);

        let bank_gate = match arch {
            DramArch::Ddr3 => timing.t_rc,
            _ => timing.t_rrd_sa,
        };
        let bt = &mut self.bank_timing[bi];
        bt.next_act = bt.next_act.max(t + bank_gate);
        bt.last_use = bt.last_use.max(t);
        let bank_was_idle = bt.open_count == 0;
        if bank_was_idle {
            bt.active_since = t;
        }
        bt.open_count += 1;

        let rt = &mut self.rank_timing[ri];
        if bank_was_idle {
            if rt.open_banks == 0 {
                rt.active_since = t;
            }
            rt.open_banks += 1;
        }
        rt.next_act = rt.next_act.max(t + timing.t_rrd);
        rt.act_window.push_back(t);
        if rt.act_window.len() > 8 {
            rt.act_window.pop_front();
        }

        self.banks[bi].activate(addr.subarray, addr.row);
        t
    }

    fn do_column(
        &mut self,
        bi: usize,
        addr: &PhysicalAddress,
        kind: RequestKind,
        earliest: u64,
    ) -> u64 {
        let si = self.sa_index(bi, addr.subarray);
        let ri = self.rank_index(addr);
        let bus_gate = match kind {
            RequestKind::Read => self.rank_timing[ri].next_rd,
            RequestKind::Write => self.rank_timing[ri].next_wr,
        };
        let e = earliest.max(self.sa_timing[si].col_ready).max(bus_gate);
        let cmd = match kind {
            RequestKind::Read => CommandKind::Read,
            RequestKind::Write => CommandKind::Write,
        };
        let t = self.issue(cmd, *addr, e);
        self.column_issued(bi, addr, kind, t)
    }

    /// The state updates of a `kind` column command to `addr` issued at
    /// `t`; returns its completion. Each is a `max` with `t` plus a
    /// constant (see the module docs on row runs).
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
        let rt = &mut self.rank_timing[ri];
        let completion;
        let quiesce;
        match kind {
            RequestKind::Read => {
                rt.next_rd = rt.next_rd.max(t + timing.t_ccd);
                let rtw = (timing.cl + timing.t_burst + 2).saturating_sub(timing.cwl);
                rt.next_wr = rt.next_wr.max(t + rtw);
                quiesce = t + timing.t_rtp;
                completion = t + timing.cl + timing.t_burst;
            }
            RequestKind::Write => {
                rt.next_wr = rt.next_wr.max(t + timing.t_ccd);
                rt.next_rd = rt
                    .next_rd
                    .max(t + timing.cwl + timing.t_burst + timing.t_wtr);
                quiesce = t + timing.cwl + timing.t_burst + timing.t_wr;
                completion = t + timing.cwl + timing.t_burst;
            }
        }
        let sa_t = &mut self.sa_timing[si];
        sa_t.next_pre = sa_t.next_pre.max(quiesce);
        let bt = &mut self.bank_timing[bi];
        bt.new_sa_gate = bt.new_sa_gate.max(quiesce);
        bt.last_use = bt.last_use.max(completion);
        completion
    }

    /// Timeout row policy: if the bank has sat idle past the deadline,
    /// precharge its open rows (at the deadline, not at `now`).
    fn close_stale_rows(&mut self, bi: usize, addr: &PhysicalAddress, now: u64, timeout: u64) {
        let deadline = self.bank_timing[bi].last_use.saturating_add(timeout);
        if now <= deadline || self.bank_timing[bi].open_count == 0 {
            return;
        }
        for sa in 0..self.geometry.subarrays {
            if self.banks[bi].subarray(sa).open_row().is_some() {
                self.do_precharge(bi, sa, addr, deadline);
            }
        }
    }

    fn maybe_refresh(&mut self, now: u64) {
        while now >= self.next_refresh {
            let start = self.next_refresh;
            // Close every bank, then hold all activations for tRFC.
            for bi in 0..self.banks.len() {
                for sa in 0..self.geometry.subarrays {
                    if self.banks[bi].subarray(sa).open_row().is_some() {
                        self.do_precharge(bi, sa, &self.addr_of_bank(bi), start);
                    }
                }
            }
            let ref_addr = PhysicalAddress::default();
            let t = self.issue(CommandKind::Refresh, ref_addr, start);
            for sa_t in &mut self.sa_timing {
                sa_t.next_act = sa_t.next_act.max(t + self.timing.t_rfc);
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
mod tests {
    use super::*;

    fn mc(arch: DramArch) -> MemoryController {
        let geometry = match arch {
            DramArch::Ddr3 => Geometry::ddr3_2gb_x8(),
            _ => Geometry::salp_2gb_x8(),
        };
        MemoryController::new(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(arch),
        )
        .unwrap()
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
            Geometry::ddr3_2gb_x8(),
            TimingParams::ddr3_1600k(),
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
        let mut c = MemoryController::new(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        )
        .unwrap();
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
        let mut c = MemoryController::new(geometry, TimingParams::ddr3_1600k(), config).unwrap();
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
        let mut c = MemoryController::new(geometry, TimingParams::ddr3_1600k(), config).unwrap();
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
        let mut c =
            MemoryController::new(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config)
                .unwrap();
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
        let mut c2 =
            MemoryController::new(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config)
                .unwrap();
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
    fn timeout_policy_closes_idle_banks() {
        let config = ControllerConfig {
            row_policy: RowPolicy::Timeout(100),
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c =
            MemoryController::new(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config)
                .unwrap();
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
            MemoryController::new(Geometry::ddr3_2gb_x8(), TimingParams::ddr3_1600k(), config)
                .unwrap()
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
        let geometry = Geometry::builder().channels(2).build().unwrap();
        let mut c = MemoryController::new(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        )
        .unwrap();
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
        let geometry = Geometry::builder().ranks(2).build().unwrap();
        let mut c = MemoryController::new(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        )
        .unwrap();
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
        let geometry = Geometry::builder().channels(2).ranks(2).build().unwrap();
        let config = ControllerConfig {
            refresh_enabled: true,
            record_commands: true,
            ..ControllerConfig::new(DramArch::Ddr3)
        };
        let mut c = MemoryController::new(geometry, TimingParams::ddr3_1600k(), config).unwrap();
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
        let geometry = Geometry::builder().channels(2).ranks(2).build().unwrap();
        let c = MemoryController::new(
            geometry,
            TimingParams::ddr3_1600k(),
            ControllerConfig::new(DramArch::Ddr3),
        )
        .unwrap();
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
