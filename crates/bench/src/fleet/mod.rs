//! Fleet-scale multi-tenant simulation.
//!
//! Runs hundreds-to-thousands of tenants across many small kernel
//! instances ("cells"), each cell hosting a handful of co-tenants whose
//! requests contend for one scheduler, one frame pool and one TLB pair —
//! the multi-tenancy is real, not simulated. A seeded open-loop arrival
//! stream ([`arrivals`]) drives per-tenant spawn/reap churn over mixed
//! httpd/gzip/nbench/attacker populations ([`guests`]), and the report
//! aggregates per-tenant detection rates, latency percentiles
//! ([`crate::hist`]), throughput and degradation events.
//!
//! # Topology and determinism
//!
//! Tenant → cell assignment is `tid / tenants_per_cell` — a pure function
//! of the config. The cell is the only unit of work: one function boots
//! a cell, drives it in `window_cycles` windows to completion, checks its
//! trace order and returns its outcome, dropping the kernel before the
//! worker takes the next cell. [`run`] maps it over the cell ids
//! rayon-parallel, [`run_serial`] in order; outcomes merge in cell order.
//! Because cells share no state, a cell's execution is bit-identical
//! whichever thread runs it and whenever, so the fleet report is
//! byte-identical across `RAYON_NUM_THREADS` for a fixed seed (pinned by
//! `tests/fleet.rs`). Co-tenant interference lives *inside* a cell, where
//! it is deterministic by the kernel's own round-robin scheduler.

pub mod arrivals;
pub mod guests;

use crate::hist::Hist;
use arrivals::Profile;
use guests::{TenantKind, VARIANTS};
use rayon::prelude::*;
use sm_core::setup::Protection;
use sm_kernel::events::Event;
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_kernel::process::Pid;
use sm_machine::{MachineConfig, TlbPreset};
use sm_rng::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// Tenant-population mix preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% httpd, 20% gzip, 20% nbench, 10% attacker.
    Standard,
    /// Adds a 20% fork-bomb population (spawn/reap churn stressor).
    ForkStorm,
    /// Adds a 30% memory-hog population (OOM-degradation stressor).
    OomRamp,
}

impl Mix {
    /// Parse a CLI mix name.
    pub fn parse(s: &str) -> Option<Mix> {
        match s {
            "standard" => Some(Mix::Standard),
            "forkstorm" => Some(Mix::ForkStorm),
            "oomramp" => Some(Mix::OomRamp),
            _ => None,
        }
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mix::Standard => "standard",
            Mix::ForkStorm => "forkstorm",
            Mix::OomRamp => "oomramp",
        }
    }

    /// Deterministic kind assignment: stratified by tenant id modulo 10,
    /// so every cell-sized window of ids sees the full mix.
    pub fn kind_of(&self, tid: u32) -> TenantKind {
        match (self, tid % 10) {
            (Mix::Standard, 0..=4) => TenantKind::Httpd,
            (Mix::Standard, 5..=6) => TenantKind::Gzip,
            (Mix::Standard, 7..=8) => TenantKind::Nbench,
            (Mix::Standard, _) => TenantKind::Attacker,
            (Mix::ForkStorm, 0..=3) => TenantKind::Httpd,
            (Mix::ForkStorm, 4..=5) => TenantKind::Gzip,
            (Mix::ForkStorm, 6) => TenantKind::Nbench,
            (Mix::ForkStorm, 7..=8) => TenantKind::ForkBomb,
            (Mix::ForkStorm, _) => TenantKind::Attacker,
            (Mix::OomRamp, 0..=3) => TenantKind::Httpd,
            (Mix::OomRamp, 4) => TenantKind::Gzip,
            (Mix::OomRamp, 5) => TenantKind::Nbench,
            (Mix::OomRamp, 6..=8) => TenantKind::MemHog,
            (Mix::OomRamp, _) => TenantKind::Attacker,
        }
    }
}

/// Fleet run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total tenant count.
    pub tenants: u32,
    /// Tenants hosted per kernel instance.
    pub tenants_per_cell: u32,
    /// Master seed; every cell kernel and tenant stream forks from it.
    pub seed: u64,
    /// Arrival-stream shape.
    pub profile: Profile,
    /// Requests per tenant.
    pub requests_per_tenant: u32,
    /// Mean inter-arrival time per tenant, in simulated cycles.
    pub mean_interarrival: u64,
    /// Population mix.
    pub mix: Mix,
    /// Protection configuration every cell boots with.
    pub protection: Protection,
    /// TLB geometry.
    pub tlb: TlbPreset,
    /// ASID-tagged TLBs instead of flush-on-switch.
    pub asid_tlbs: bool,
    /// Physical frames per cell (small on purpose: memory pressure is a
    /// scenario). A cell's host memory follows the frames it has touched,
    /// at most this many, which bounds fleet RSS at hundreds of cells.
    pub phys_frames: u32,
    /// Request latency above this counts as an SLO violation.
    pub slo_cycles: u64,
    /// Per-cell simulated-cycle budget; unserved arrivals past it count
    /// as dropped.
    pub horizon_cycles: u64,
    /// Driver window: a cell runs at most this many cycles per kernel
    /// `run` call. A window edge ends the call and re-queues the running
    /// process, so the window is part of the modelled schedule: changing
    /// it changes the timeline.
    pub window_cycles: u64,
    /// Enable per-cell tracing (PROC|DETECT) and stream-order checking.
    pub trace: bool,
    /// Run the structural invariant checker after every driver window
    /// (slow; tests and chaos scenarios).
    pub check_invariants: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            tenants: 500,
            tenants_per_cell: 5,
            seed: 42,
            profile: Profile::Poisson,
            requests_per_tenant: 6,
            mean_interarrival: 120_000,
            mix: Mix::Standard,
            protection: Protection::SplitMem(sm_kernel::events::ResponseMode::Break),
            tlb: TlbPreset::default(),
            asid_tlbs: false,
            phys_frames: 512,
            slo_cycles: 400_000,
            horizon_cycles: 2_000_000_000,
            window_cycles: 250_000,
            trace: false,
            check_invariants: false,
        }
    }
}

impl FleetConfig {
    /// Number of cells this config spreads its tenants over.
    pub fn cells(&self) -> u32 {
        self.tenants.div_ceil(self.per_cell())
    }

    /// Tenants a cell hosts: `tenants_per_cell`, at least one, so every
    /// tenant lands in some cell.
    fn per_cell(&self) -> u32 {
        self.tenants_per_cell.max(1)
    }

    /// One-line config echo pinned at the top of the report (part of the
    /// byte-identity surface).
    pub fn header(&self) -> String {
        format!(
            "fleet: tenants={} cells={} per-cell={} seed={} profile={} reqs={} mean={} mix={} protection={} tlb={:?} asid={} frames={} slo={}",
            self.tenants,
            self.cells(),
            self.per_cell(),
            self.seed,
            self.profile.label(),
            self.requests_per_tenant,
            self.mean_interarrival,
            self.mix.label(),
            self.protection.label(),
            self.tlb,
            self.asid_tlbs,
            self.phys_frames,
            self.slo_cycles,
        )
    }
}

/// Per-tenant outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Global tenant id.
    pub tid: u32,
    /// Workload kind.
    pub kind: TenantKind,
    /// Requests that ran to process exit.
    pub completed: u32,
    /// Requests never served (horizon hit, or still in flight at it).
    pub dropped: u32,
    /// Spawns rejected outright (out of memory at image load).
    pub spawn_failures: u32,
    /// Injection attempts (== completed, attacker tenants only).
    pub attempts: u32,
    /// Requests during which the engine logged `AttackDetected`.
    pub detected: u32,
    /// Requests whose injected payload actually executed (exit status ==
    /// the payload marker) — must be 0 under split protection.
    pub injected: u32,
    /// OOM kills + split-degradation events attributed to this tenant.
    pub degradations: u32,
    /// Completed requests whose latency exceeded the SLO.
    pub slo_violations: u32,
    /// Arrival-to-exit latency distribution, in cycles.
    pub latency: Hist,
}

/// Whole-fleet outcome.
#[derive(Debug)]
pub struct FleetResult {
    /// Config echo.
    pub header: String,
    /// Per-tenant reports, ordered by tenant id.
    pub tenants: Vec<TenantReport>,
    /// Largest per-cell final cycle count (the fleet's simulated
    /// duration: cells run concurrently in simulated time).
    pub duration_cycles: u64,
    /// Structural invariant violations (only populated with
    /// [`FleetConfig::check_invariants`]); must stay empty.
    pub violations: Vec<String>,
    /// Trace stream-order violations (only with [`FleetConfig::trace`]).
    pub trace_violations: Vec<String>,
    /// FNV-1a digest of the cross-cell merged event timeline, ordered by
    /// `(cycles, cell, intra-cell index)` — the fleet's event-order
    /// check: any reordering, dropped event or cycle drift moves it.
    pub timeline_digest: u64,
}

impl FleetResult {
    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed as u64).sum()
    }

    /// Total dropped requests.
    pub fn dropped(&self) -> u64 {
        self.tenants.iter().map(|t| t.dropped as u64).sum()
    }

    /// Merged latency histogram across all tenants.
    pub fn merged_latency(&self) -> Hist {
        let mut h = Hist::new();
        for t in &self.tenants {
            h.merge(&t.latency);
        }
        h
    }

    /// Completed requests per million simulated cycles.
    pub fn req_per_mcycle(&self) -> u64 {
        if self.duration_cycles == 0 {
            return 0;
        }
        self.completed() * 1_000_000 / self.duration_cycles
    }

    /// `(detected, attempts)` over the attacker population.
    pub fn detection(&self) -> (u64, u64) {
        let det = self.tenants.iter().map(|t| t.detected as u64).sum();
        let att = self.tenants.iter().map(|t| t.attempts as u64).sum();
        (det, att)
    }

    /// Total degradation events (OOM kills, split degradations, spawn
    /// rejections).
    pub fn degradations(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.degradations as u64 + t.spawn_failures as u64)
            .sum()
    }

    /// Aggregate report: config header, per-kind table, fleet totals.
    /// Integer-only arithmetic end to end, so the string is byte-identical
    /// across platforms and thread counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header);
        out.push('\n');
        out.push_str(&format!(
            "{:<9} {:>7} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>8} {:>9} {:>6}\n",
            "kind",
            "tenants",
            "reqs",
            "drop",
            "fail",
            "p50",
            "p95",
            "p99",
            "slo-miss",
            "det/att",
            "degr"
        ));
        for kind in TenantKind::ALL {
            let ts: Vec<&TenantReport> = self.tenants.iter().filter(|t| t.kind == kind).collect();
            if ts.is_empty() {
                continue;
            }
            let mut h = Hist::new();
            for t in &ts {
                h.merge(&t.latency);
            }
            let reqs: u64 = ts.iter().map(|t| t.completed as u64).sum();
            let drop: u64 = ts.iter().map(|t| t.dropped as u64).sum();
            let fail: u64 = ts.iter().map(|t| t.spawn_failures as u64).sum();
            let slo: u64 = ts.iter().map(|t| t.slo_violations as u64).sum();
            let det: u64 = ts.iter().map(|t| t.detected as u64).sum();
            let att: u64 = ts.iter().map(|t| t.attempts as u64).sum();
            let degr: u64 = ts.iter().map(|t| t.degradations as u64).sum();
            out.push_str(&format!(
                "{:<9} {:>7} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>8} {:>9} {:>6}\n",
                kind.label(),
                ts.len(),
                reqs,
                drop,
                fail,
                h.percentile(50),
                h.percentile(95),
                h.percentile(99),
                slo,
                format!("{det}/{att}"),
                degr,
            ));
        }
        let all = self.merged_latency();
        let (det, att) = self.detection();
        out.push_str(&format!(
            "total: {} completed, {} dropped, p50={} p95={} p99={} cycles, {} req/Mcycle over {} cycles, detection {det}/{att}, {} degradations, timeline digest {:016x}\n",
            self.completed(),
            self.dropped(),
            all.percentile(50),
            all.percentile(95),
            all.percentile(99),
            self.req_per_mcycle(),
            self.duration_cycles,
            self.degradations(),
            self.timeline_digest,
        ));
        if !self.violations.is_empty() {
            out.push_str(&format!(
                "INVARIANT VIOLATIONS: {}\n",
                self.violations.len()
            ));
        }
        if !self.trace_violations.is_empty() {
            out.push_str(&format!(
                "TRACE-ORDER VIOLATIONS: {}\n",
                self.trace_violations.len()
            ));
        }
        out
    }

    /// One line per tenant (the full per-tenant report; also part of the
    /// byte-identity surface pinned by the determinism tests).
    pub fn render_tenants(&self) -> String {
        let mut out = String::new();
        for t in &self.tenants {
            out.push_str(&t.render_line());
        }
        out
    }
}

impl TenantReport {
    /// This tenant's report line.
    pub fn render_line(&self) -> String {
        format!(
            "tenant {:>5} {:<9} reqs={:<4} drop={:<3} fail={:<3} p50={:<8} p95={:<8} p99={:<8} slo_miss={:<3} det={}/{} inj={} degr={}\n",
            self.tid,
            self.kind.label(),
            self.completed,
            self.dropped,
            self.spawn_failures,
            self.latency.percentile(50),
            self.latency.percentile(95),
            self.latency.percentile(99),
            self.slo_violations,
            self.detected,
            self.attempts,
            self.injected,
            self.degradations,
        )
    }
}

// ---- per-cell driver --------------------------------------------------------

struct TenantState {
    report: TenantReport,
    /// Absolute arrival cycles, precomputed.
    arrivals: Vec<u64>,
    /// Next unserved arrival index.
    next: usize,
    /// Root pid and scheduled-arrival cycle of the in-flight request.
    in_flight: Option<(u32, u64)>,
    /// Image index into the shared image table.
    image: usize,
}

/// Small FNV-1a step over a byte slice.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct Cell {
    id: u32,
    k: Kernel,
    tenants: Vec<TenantState>,
    /// Root pid → local tenant index (fork-bomb children are deliberately
    /// absent: their lifecycle is internal to a request).
    owner: BTreeMap<u32, usize>,
    /// Pids with an `AttackDetected` logged for the current request.
    detected_pids: BTreeSet<u32>,
    ev_cursor: usize,
    done: bool,
    violations: Vec<String>,
    /// FNV-1a over this cell's `(cycles, event-kind, pid, code)` stream.
    timeline: Vec<(u64, u64)>,
}

impl Cell {
    fn new(cfg: &FleetConfig, id: u32) -> Cell {
        let kconfig = KernelConfig {
            aslr_stack: false,
            seed: cfg
                .seed
                .wrapping_add((id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            asid_tlbs: cfg.asid_tlbs,
            trace: if cfg.trace {
                sm_trace::mask::PROC | sm_trace::mask::DETECT
            } else {
                0
            },
            trace_capacity: if cfg.trace { 4096 } else { 0 },
            ..KernelConfig::default()
        };
        let mconfig = MachineConfig {
            phys_frames: cfg.phys_frames,
            nx_enabled: cfg.protection.needs_nx(),
            tlb: cfg.tlb,
            ..MachineConfig::default()
        };
        let k = Kernel::new(mconfig, kconfig, cfg.protection.engine());
        let lo = id * cfg.per_cell();
        let hi = (lo + cfg.per_cell()).min(cfg.tenants);
        let tenants = (lo..hi)
            .map(|tid| {
                let kind = cfg.mix.kind_of(tid);
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed ^ (tid as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                let arrivals = arrivals::schedule(
                    &mut rng,
                    cfg.profile,
                    cfg.requests_per_tenant,
                    cfg.mean_interarrival,
                );
                let kind_idx = TenantKind::ALL.iter().position(|k| *k == kind).unwrap();
                TenantState {
                    report: TenantReport {
                        tid,
                        kind,
                        completed: 0,
                        dropped: 0,
                        spawn_failures: 0,
                        attempts: 0,
                        detected: 0,
                        injected: 0,
                        degradations: 0,
                        slo_violations: 0,
                        latency: Hist::new(),
                    },
                    arrivals,
                    next: 0,
                    in_flight: None,
                    image: kind_idx * VARIANTS as usize + (tid % VARIANTS) as usize,
                }
            })
            .collect();
        Cell {
            id,
            k,
            tenants,
            owner: BTreeMap::new(),
            detected_pids: BTreeSet::new(),
            ev_cursor: 0,
            done: false,
            violations: Vec::new(),
            timeline: Vec::new(),
        }
    }

    /// Spawn every due arrival whose tenant is idle. Returns the earliest
    /// future arrival cycle over idle tenants, if any.
    fn spawn_due(&mut self, images: &[ExecImage]) -> Option<u64> {
        let now = self.k.sys.machine.cycles;
        let mut next_idle_arrival: Option<u64> = None;
        for ti in 0..self.tenants.len() {
            loop {
                let t = &self.tenants[ti];
                if t.in_flight.is_some() || t.next >= t.arrivals.len() {
                    break;
                }
                let due = t.arrivals[t.next];
                if due > now {
                    next_idle_arrival = Some(next_idle_arrival.map_or(due, |m: u64| m.min(due)));
                    break;
                }
                let image = &images[t.image];
                match self.k.spawn(image) {
                    Ok(pid) => {
                        let t = &mut self.tenants[ti];
                        t.in_flight = Some((pid.0, due));
                        t.next += 1;
                        self.owner.insert(pid.0, ti);
                        break;
                    }
                    Err(_) => {
                        // Out of frames (or a malformed-image bug): the
                        // request is consumed and counted as a
                        // degradation, the tenant moves on.
                        let t = &mut self.tenants[ti];
                        t.report.spawn_failures += 1;
                        t.next += 1;
                    }
                }
            }
        }
        next_idle_arrival
    }

    /// Drain the kernel event log from the cursor: attribute exits,
    /// detections and degradations to tenants and fold the stream into
    /// the cell timeline.
    fn drain_events(&mut self, slo: u64) {
        // Copy out the compact facts first: attributing exits calls
        // `Kernel::reap`, which needs `&mut` on the kernel that owns the
        // log.
        let facts: Vec<(u64, u8, u32, i32)> = self.k.sys.events.entries()[self.ev_cursor..]
            .iter()
            .filter_map(|(cyc, e)| match e {
                Event::ProcessExit { pid, code } => Some((*cyc, 0u8, pid.0, *code)),
                Event::AttackDetected { pid, .. } => Some((*cyc, 1u8, pid.0, 0)),
                Event::SplitDegraded { pid, .. } => Some((*cyc, 2u8, pid.0, 0)),
                _ => None,
            })
            .collect();
        self.ev_cursor = self.k.sys.events.entries().len();
        for (cyc, kind, pid, code) in facts {
            let mut h = 0xcbf29ce484222325u64;
            h = fnv1a(h, &cyc.to_le_bytes());
            h = fnv1a(h, &[kind]);
            h = fnv1a(h, &pid.to_le_bytes());
            h = fnv1a(h, &code.to_le_bytes());
            self.timeline.push((cyc, h));
            match kind {
                1 => {
                    self.detected_pids.insert(pid);
                }
                2 => {
                    if let Some(&ti) = self.owner.get(&pid) {
                        self.tenants[ti].report.degradations += 1;
                    }
                }
                _ => {
                    let Some(ti) = self.owner.remove(&pid) else {
                        // A fork-bomb child: internal to its request.
                        self.detected_pids.remove(&pid);
                        continue;
                    };
                    let t = &mut self.tenants[ti];
                    let (_, arrival) = t.in_flight.take().expect("exit without in-flight");
                    let latency = cyc.saturating_sub(arrival);
                    t.report.latency.record(latency);
                    t.report.completed += 1;
                    if latency > slo {
                        t.report.slo_violations += 1;
                    }
                    if t.report.kind == TenantKind::Attacker {
                        t.report.attempts += 1;
                        if self.detected_pids.contains(&pid) {
                            t.report.detected += 1;
                        }
                        if code == crate::interference::PAYLOAD_MARKER as i32 {
                            t.report.injected += 1;
                        }
                    }
                    if code == 128 + 9 {
                        // SIGKILL: the kernel's OOM policy.
                        t.report.degradations += 1;
                    }
                    self.detected_pids.remove(&pid);
                    self.k.reap(Pid(pid));
                }
            }
        }
    }

    /// One driver window: advance this cell `window_cycles` past its
    /// clock, or less if it reaches the horizon or runs out of work. The
    /// runner and the shard-kill probe step cells only through here.
    fn step_window(&mut self, images: &[ExecImage], cfg: &FleetConfig) {
        let window_end = self.k.sys.machine.cycles + cfg.window_cycles;
        let horizon = cfg.horizon_cycles;
        while !self.done && self.k.sys.machine.cycles < window_end {
            let next_idle_arrival = self.spawn_due(images);
            let now = self.k.sys.machine.cycles;
            if now >= horizon {
                self.finish_at_horizon();
                break;
            }
            if self.k.sys.live_process_count() == 0 {
                match next_idle_arrival {
                    None => {
                        // Nothing running, nothing pending anywhere.
                        self.done = true;
                        break;
                    }
                    Some(due) => {
                        // Idle: fast-forward the simulated clock to the
                        // next arrival (bounded by window and horizon).
                        let target = due.min(window_end).min(horizon);
                        if target > now {
                            self.k.sys.charge(target - now);
                        }
                        if target == due {
                            continue;
                        }
                        break;
                    }
                }
            }
            // Run until the next idle tenant's arrival would be due, the
            // window closes, or the horizon hits — whichever is first.
            let until = window_end
                .min(horizon)
                .min(next_idle_arrival.unwrap_or(u64::MAX));
            let budget = until.saturating_sub(now).max(1);
            let _ = self.k.run(budget);
            self.drain_events(cfg.slo_cycles);
            if cfg.check_invariants {
                for v in sm_core::invariants::check(&self.k) {
                    self.violations.push(format!("cell {}: {v}", self.id));
                }
            }
        }
        if !self.done && self.k.sys.machine.cycles >= horizon {
            self.finish_at_horizon();
        }
    }

    /// Step windows until the cell is done.
    fn drive_to_completion(&mut self, images: &[ExecImage], cfg: &FleetConfig) {
        while !self.done {
            self.step_window(images, cfg);
        }
    }

    /// Horizon hit: everything unserved is dropped.
    fn finish_at_horizon(&mut self) {
        for t in &mut self.tenants {
            let remaining = (t.arrivals.len() - t.next) as u32;
            t.report.dropped += remaining + u32::from(t.in_flight.is_some());
            t.next = t.arrivals.len();
            t.in_flight = None;
        }
        self.done = true;
    }
}

// ---- fleet runner -----------------------------------------------------------

fn build_images() -> Vec<ExecImage> {
    let mut out = Vec::new();
    for kind in TenantKind::ALL {
        for v in 0..VARIANTS {
            out.push(guests::build_image(kind, v));
        }
    }
    out
}

/// What a finished cell leaves behind for the fleet report: everything
/// but its kernel.
struct CellOutcome {
    tenants: Vec<TenantReport>,
    timeline: Vec<(u64, u64)>,
    violations: Vec<String>,
    trace_violations: Vec<String>,
    /// The cell's final simulated cycle count.
    cycles: u64,
}

/// Boot cell `id`, drive it to completion, check its trace stream order
/// (with [`FleetConfig::trace`]) and return its outcome. The kernel is
/// dropped on return, so a worker holds at most one kernel at a time.
fn run_cell(cfg: &FleetConfig, images: &[ExecImage], id: u32) -> CellOutcome {
    let mut cell = Cell::new(cfg, id);
    cell.drive_to_completion(images, cfg);
    let mut trace_violations = Vec::new();
    if cfg.trace {
        for v in cell.k.sys.machine.tracer.check_order(true) {
            trace_violations.push(format!("cell {id}: {v}"));
        }
    }
    CellOutcome {
        tenants: cell.tenants.into_iter().map(|t| t.report).collect(),
        timeline: cell.timeline,
        violations: cell.violations,
        trace_violations,
        cycles: cell.k.sys.machine.cycles,
    }
}

fn run_inner(cfg: &FleetConfig, parallel: bool) -> FleetResult {
    let images = build_images();
    let ids: Vec<u32> = (0..cfg.cells()).collect();
    let run = |id| run_cell(cfg, &images, id);
    // Both maps return outcomes in cell order, whichever thread ran which
    // cell.
    let cells: Vec<CellOutcome> = if parallel {
        ids.into_par_iter().map(run).collect()
    } else {
        ids.into_iter().map(run).collect()
    };
    // The cross-cell timeline is ordered by (cycles, cell, index): a
    // stable merge of per-cell streams that any event reordering, loss
    // or cycle drift perturbs.
    let mut merged: Vec<(u64, u32, usize, u64)> = Vec::new();
    for (cell, id) in cells.iter().zip(0u32..) {
        for (i, &(cyc, h)) in cell.timeline.iter().enumerate() {
            merged.push((cyc, id, i, h));
        }
    }
    merged.sort();
    let mut digest = 0xcbf29ce484222325u64;
    for (cyc, cell, _, h) in &merged {
        digest = fnv1a(digest, &cyc.to_le_bytes());
        digest = fnv1a(digest, &cell.to_le_bytes());
        digest = fnv1a(digest, &h.to_le_bytes());
    }
    let duration_cycles = cells.iter().map(|c| c.cycles).max().unwrap_or(0);
    // Cell `c` hosts a contiguous tid range, so cell order is tid order.
    let mut tenants = Vec::with_capacity(cfg.tenants as usize);
    let mut violations = Vec::new();
    let mut trace_violations = Vec::new();
    for cell in cells {
        tenants.extend(cell.tenants);
        violations.extend(cell.violations);
        trace_violations.extend(cell.trace_violations);
    }
    FleetResult {
        header: cfg.header(),
        tenants,
        duration_cycles,
        violations,
        trace_violations,
        timeline_digest: digest,
    }
}

/// Run the fleet, its cells rayon-parallel. Byte-identical to
/// [`run_serial`] (and to itself under any `RAYON_NUM_THREADS`) for a
/// fixed config.
pub fn run(cfg: &FleetConfig) -> FleetResult {
    run_inner(cfg, true)
}

/// Single-threaded reference runner the parallel one is tested against.
pub fn run_serial(cfg: &FleetConfig) -> FleetResult {
    run_inner(cfg, false)
}

// ---- mid-run shard-kill probe -----------------------------------------------

/// Outcome of [`shard_kill_probe`]: a cell killed mid-run (snapshot, drop,
/// restore from bytes) must be indistinguishable from one that ran
/// uninterrupted.
#[derive(Debug)]
pub struct ShardKillProbe {
    /// The kill actually happened mid-run (the run was long enough).
    pub killed: bool,
    /// Per-tenant reports byte-identical to the uninterrupted run.
    pub reports_identical: bool,
    /// Event timelines identical to the uninterrupted run.
    pub timeline_identical: bool,
    /// Pre-kill + post-restore trace streams splice cleanly (no seq gap or
    /// overlap) and equal the uninterrupted run's trace.
    pub splice_ok: bool,
    /// Invariant violations seen in either run (must be empty).
    pub violations: Vec<String>,
    /// Human-readable mismatch details (empty on success).
    pub detail: String,
}

impl ShardKillProbe {
    /// All checks green.
    pub fn ok(&self) -> bool {
        self.killed
            && self.reports_identical
            && self.timeline_identical
            && self.splice_ok
            && self.violations.is_empty()
    }
}

/// Kill one kernel cell mid-run — serialize it, drop it, restore from the
/// bytes — and continue; compare everything observable against an
/// uninterrupted twin. Exercises the chaos claim that a fleet survives
/// losing a cell's kernel: the snapshot round-trip is exact, the driver's
/// external bookkeeping (arrival cursors, event cursor) stays valid
/// because the event log is part of the snapshot, and the trace seq
/// counter resumes where it stopped so the pre/post streams splice. Both
/// cells step through the runner's own driver window.
///
/// The config must describe a single cell (`cells() == 1`) with `trace`
/// enabled; `kill_at_window` picks which driver window the kill lands
/// after (1-based).
pub fn shard_kill_probe(cfg: &FleetConfig, kill_at_window: u32) -> ShardKillProbe {
    assert_eq!(cfg.cells(), 1, "shard-kill probe drives exactly one cell");
    assert!(
        cfg.trace,
        "shard-kill probe needs tracing for the splice check"
    );
    let images = build_images();

    // Uninterrupted twin.
    let mut a = Cell::new(cfg, 0);
    a.drive_to_completion(&images, cfg);
    let ref_trace = a.k.sys.machine.tracer.snapshot();

    // Interrupted run: same cell, killed after `kill_at_window` windows.
    let mut b = Cell::new(cfg, 0);
    let mut pre: Vec<sm_trace::TraceRecord> = Vec::new();
    let mut killed = false;
    let mut window = 0u32;
    while !b.done {
        b.step_window(&images, cfg);
        window += 1;
        if window == kill_at_window && !b.done {
            pre = b.k.sys.machine.tracer.snapshot();
            let bytes = sm_kernel::snapshot::save(&b.k);
            let restored = sm_kernel::snapshot::restore(&bytes, cfg.protection.engine())
                .expect("own snapshot restores");
            b.k = restored; // the old kernel is dropped here
            killed = true;
        }
    }
    let post = b.k.sys.machine.tracer.snapshot();

    let mut detail = String::new();
    let a_reports: String = a.tenants.iter().map(|t| t.report.render_line()).collect();
    let b_reports: String = b.tenants.iter().map(|t| t.report.render_line()).collect();
    let reports_identical = a_reports == b_reports;
    if !reports_identical {
        detail.push_str(&format!(
            "tenant reports diverged:\n--- uninterrupted\n{a_reports}--- killed+restored\n{b_reports}"
        ));
    }
    let timeline_identical = a.timeline == b.timeline;
    if !timeline_identical {
        detail.push_str(&format!(
            "event timelines diverged: {} vs {} entries\n",
            a.timeline.len(),
            b.timeline.len()
        ));
    }
    let splice_ok = if killed {
        match sm_trace::splice(&[pre, post]) {
            Ok(spliced) => {
                let eq = spliced == ref_trace;
                if !eq {
                    detail.push_str(&format!(
                        "spliced trace != uninterrupted trace ({} vs {} records)\n",
                        spliced.len(),
                        ref_trace.len()
                    ));
                }
                eq
            }
            Err(e) => {
                detail.push_str(&format!("splice failed: {e:?}\n"));
                false
            }
        }
    } else {
        detail.push_str("run completed before the kill window; raise the load\n");
        false
    };
    let mut violations = a.violations;
    violations.extend(b.violations);
    ShardKillProbe {
        killed,
        reports_identical,
        timeline_identical,
        splice_ok,
        violations,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_tenants_per_cell_still_places_every_tenant() {
        let cfg = FleetConfig {
            tenants: 3,
            tenants_per_cell: 0,
            requests_per_tenant: 1,
            ..FleetConfig::default()
        };
        let r = run_serial(&cfg);
        assert_eq!(cfg.cells(), 3);
        assert_eq!(r.tenants.len(), 3, "{}", r.render());
        assert_eq!(r.completed(), 3, "{}", r.render());
    }
}
