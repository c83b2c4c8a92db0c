//! The kernel proper: system state, scheduler, trap handling and signal
//! delivery.
//!
//! The kernel is *host* code — it manipulates the simulated machine rather
//! than running on it, which is what lets the whole reproduction stay in
//! safe Rust while still exercising the architectural mechanisms (pagetable
//! bits, TLB fills, trap flag) the paper's technique is made of.

use crate::addrspace::FrameTable;
use crate::engine::{CfiOutcome, FaultOutcome, ProtectionEngine, UdOutcome};
use crate::events::{Event, EventLog};
use crate::fs::{PipeTable, RamFs};
use crate::image::ExecImage;
use crate::loader;
use crate::net::NetStack;
use crate::process::{FdObject, Pid, ProcState, Process, WaitReason};
use crate::signal::{self, SigAction};
use crate::stats::KernelStats;
use crate::syscall;
use sm_machine::chaos::{ChaosState, FaultPlan, StepFaults};
use sm_machine::cpu::{flags, PageFaultInfo, Privilege};
use sm_machine::phys::OutOfFrames;
use sm_machine::pte::{self, Frame};
use sm_machine::tlb::TlbEntry;
use sm_machine::{Machine, MachineConfig, Trap};
use sm_rng::StdRng;
use std::collections::{BTreeMap, VecDeque};

/// Kernel construction parameters. The execution tier is not one: see
/// `Kernel::run_slice`.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Scheduler time slice in simulated cycles.
    pub quantum_cycles: u64,
    /// Stack size per process.
    pub stack_size: u32,
    /// Top of the stack region (esp starts just under this, modulo ASLR).
    pub stack_top: u32,
    /// Randomise stack placement slightly (the Linux 2.6 behaviour the
    /// Samba exploit of paper §6.1.2 has to brute-force).
    pub aslr_stack: bool,
    /// Deterministic seed for all kernel randomness.
    pub seed: u64,
    /// Maximum heap size accepted from `brk`.
    pub heap_limit: u32,
    /// Capacity of pipes created by the `pipe` syscall (the loopback
    /// network always uses the default). Workloads use this to model
    /// different I/O batching regimes.
    pub pipe_capacity: usize,
    /// Deterministic fault-injection plan (inert by default); see
    /// [`sm_machine::chaos`].
    pub chaos: FaultPlan,
    /// Tag TLB entries with a per-address-space identifier (the process
    /// pid) instead of flushing both TLBs on every context switch. Off by
    /// default: the paper's testbed (Pentium III / Linux 2.6.13) has no
    /// ASIDs, and the flush-on-switch cost is part of what §4.6 measures.
    /// When on, a switch retags via [`Machine::set_cr3_tagged`] and each
    /// process keeps its warm translations across quanta — including the
    /// *desynchronised* split-memory entries, which the cross-process
    /// invariants then attribute per-ASID.
    pub asid_tlbs: bool,
    /// Livelock watchdog: how many *consecutive* page faults at one EIP —
    /// with no instruction retiring in between — the kernel tolerates
    /// before giving up with [`RunExit::Livelock`]. Normal split-memory
    /// reloads fault the same instruction a handful of times; anything in
    /// the tens means the fault handler's work is being undone each round.
    pub livelock_threshold: u64,
    /// Kernel/engine-layer trace mask ([`sm_trace::mask`] bits), OR'd into
    /// the machine's tracer at boot so all layers share one ring and one
    /// cycle clock. 0 (the default) adds nothing.
    pub trace: u32,
    /// Trace ring capacity override. 0 (the default) inherits
    /// [`sm_machine::MachineConfig::trace_capacity`]; any other value sizes
    /// the ring directly, letting replay harnesses pin the exact drop
    /// behaviour of the run they are reproducing.
    pub trace_capacity: usize,
    /// Restrict the trace ring to events involving this pid (plus
    /// process-agnostic hardware events). `None` (the default) keeps
    /// everything. Filtering happens *before* sequence assignment, so a
    /// filtered stream stays gap-free.
    pub trace_pid: Option<u32>,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            quantum_cycles: 30_000,
            stack_size: 64 * 1024,
            stack_top: 0xC000_0000,
            aslr_stack: false,
            seed: 42,
            heap_limit: 4 * 1024 * 1024,
            pipe_capacity: crate::fs::PIPE_CAPACITY,
            chaos: FaultPlan::default(),
            livelock_threshold: 64,
            asid_tlbs: false,
            trace: 0,
            trace_capacity: 0,
            trace_pid: None,
        }
    }
}

/// Why [`Kernel::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every process has exited (or been reaped).
    AllExited,
    /// The cycle budget was exhausted.
    CyclesExhausted,
    /// No process is runnable and no event can unblock one.
    Deadlock,
    /// The livelock watchdog tripped: `pid` kept faulting at `eip` without
    /// retiring anything (see [`KernelConfig::livelock_threshold`]).
    Livelock {
        /// The spinning process.
        pid: Pid,
        /// The instruction that kept faulting.
        eip: u32,
    },
}

/// Error spawning a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnError {
    /// Physical memory exhausted.
    OutOfMemory,
    /// Referenced image/library missing or malformed.
    BadImage(String),
    /// Library signature verification failed (paper §4.3).
    VerificationFailed(String),
    /// Disk I/O failed reading the image/library (injected by the chaos
    /// harness's fs-fault plans; surfaces as `EIO` at the syscall layer).
    Io(String),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::OutOfMemory => f.write_str("out of physical memory"),
            SpawnError::BadImage(m) => write!(f, "bad image: {m}"),
            SpawnError::VerificationFailed(m) => write!(f, "library verification failed: {m}"),
            SpawnError::Io(m) => write!(f, "I/O error: {m}"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// Everything the kernel owns except the protection engine. Engines receive
/// `&mut System` in their hooks, keeping engine state and system state
/// disjoint (the borrow-splitting seam).
pub struct System {
    /// The simulated machine.
    pub machine: Machine,
    /// Frame reference counts.
    pub frames: FrameTable,
    /// Process table.
    pub procs: BTreeMap<u32, Process>,
    /// Pipes.
    pub pipes: PipeTable,
    /// Ram filesystem.
    pub fs: RamFs,
    /// Loopback network.
    pub net: NetStack,
    /// Event log.
    pub events: EventLog,
    /// Configuration.
    pub config: KernelConfig,
    /// Deterministic randomness (ASLR, split-policy draws, workload
    /// jitter): the single seeded stream everything replays from.
    pub rng: StdRng,
    /// Kernel counters.
    pub stats: KernelStats,
    /// Currently scheduled process.
    pub current: Option<Pid>,
    /// Live fault-injection stream (`None` when the configured plan is
    /// inert, which keeps the fault-free hot path untouched).
    pub chaos: Option<ChaosState>,
    pub(crate) run_queue: VecDeque<Pid>,
    pub(crate) next_pid: u32,
    /// Cached count of non-zombie processes, kept in lockstep with the
    /// process table at every insert/exit/reap so the scheduler loop and
    /// fleet drivers never pay an O(procs) recount per slice. Recomputed
    /// on snapshot restore; audited by invariant #11.
    pub(crate) live_count: usize,
    pub(crate) loaded_cr3_for: Option<Pid>,
    pub(crate) preempt: bool,
    /// Livelock watchdog: (pid, eip, consecutive unretired faults).
    pub(crate) watchdog: Option<(Pid, u32, u64)>,
    pub(crate) livelocked: Option<(Pid, u32)>,
}

impl System {
    fn new(mconfig: MachineConfig, config: KernelConfig) -> System {
        let mut machine = Machine::new(mconfig);
        if config.trace_capacity > 0 {
            machine.tracer.enable(config.trace, config.trace_capacity);
        } else {
            machine.enable_trace(config.trace);
        }
        if config.trace_pid.is_some() {
            machine.tracer.set_pid_filter(config.trace_pid);
        }
        if let Some(at) = config.chaos.oom_at {
            machine
                .phys
                .allocator
                .inject_oom(at, config.chaos.oom_every_after);
        }
        System {
            machine,
            frames: FrameTable::new(),
            procs: BTreeMap::new(),
            pipes: PipeTable::new(),
            fs: RamFs::new(),
            net: NetStack::new(),
            events: EventLog::new(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            stats: KernelStats::default(),
            current: None,
            chaos: config
                .chaos
                .is_active()
                .then(|| ChaosState::new(config.chaos)),
            run_queue: VecDeque::new(),
            next_pid: 1,
            live_count: 0,
            loaded_cr3_for: None,
            preempt: false,
            watchdog: None,
            livelocked: None,
        }
    }

    /// Borrow a process.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid (kernel bug).
    pub fn proc(&self, pid: Pid) -> &Process {
        self.procs.get(&pid.0).unwrap_or_else(|| panic!("no {pid}"))
    }

    /// Mutably borrow a process.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pid (kernel bug).
    pub fn proc_mut(&mut self, pid: Pid) -> &mut Process {
        self.procs
            .get_mut(&pid.0)
            .unwrap_or_else(|| panic!("no {pid}"))
    }

    /// The currently scheduled pid.
    ///
    /// # Panics
    ///
    /// Panics if no process is scheduled.
    pub fn current_pid(&self) -> Pid {
        self.current.expect("no current process")
    }

    /// Read the PTE of `vaddr` in `pid`'s address space.
    pub fn pte_of(&self, pid: Pid, vaddr: u32) -> u32 {
        self.proc(pid).aspace.pte(&self.machine, vaddr)
    }

    /// Overwrite the PTE of `vaddr` in `pid`'s address space (no TLB
    /// shootdown — deliberate; see [`crate::addrspace::AddressSpace::set_pte`]).
    pub fn set_pte(&mut self, pid: Pid, vaddr: u32, value: u32) {
        let p = self
            .procs
            .get_mut(&pid.0)
            .unwrap_or_else(|| panic!("no {pid}"));
        p.aspace
            .set_pte(&mut self.machine, &mut self.frames, vaddr, value)
            .expect("pagetable allocation failed");
    }

    /// Allocate a zeroed, refcounted frame.
    ///
    /// # Errors
    ///
    /// [`OutOfFrames`] when physical memory is exhausted (or an injected
    /// chaos OOM is due). Every caller must degrade gracefully — kill the
    /// offending process, fall back to weaker protection — never panic.
    pub fn alloc_zeroed(&mut self) -> Result<Frame, OutOfFrames> {
        self.frames.alloc_zeroed(&mut self.machine)
    }

    /// Allocate a refcounted copy of `src`.
    ///
    /// # Errors
    ///
    /// [`OutOfFrames`] when physical memory is exhausted (or an injected
    /// chaos OOM is due).
    pub fn alloc_copy(&mut self, src: Frame) -> Result<Frame, OutOfFrames> {
        self.frames.alloc_copy(&mut self.machine, src)
    }

    /// Release one reference to a tracked frame.
    pub fn release_frame(&mut self, f: Frame) {
        self.frames.release(&mut self.machine, f);
    }

    /// Charge kernel-software cycles.
    pub fn charge(&mut self, cycles: u64) {
        self.machine.charge(cycles);
    }

    /// Append an event stamped with the current cycle count.
    pub fn log(&mut self, event: Event) {
        self.events.push(self.machine.cycles, event);
    }

    /// Record a trace event at the current cycle if `layer` is enabled
    /// (same clock and ring as the machine's own events; see
    /// [`Machine::trace`]).
    #[inline(always)]
    pub fn trace(&mut self, layer: u32, f: impl FnOnce() -> sm_trace::TraceEvent) {
        self.machine.trace(layer, f);
    }

    /// Consult the chaos plan about the filesystem operation about to run.
    /// Advances the deterministic fs-op clock; inert (and absent) plans
    /// always answer "no fault".
    pub fn chaos_fs_fault(&mut self) -> sm_machine::chaos::FsFault {
        self.chaos
            .as_mut()
            .map(|c| c.on_fs_op())
            .unwrap_or_default()
    }

    /// Wake every process whose wait reason satisfies `pred`.
    pub fn wake_where(&mut self, pred: impl Fn(&WaitReason) -> bool) {
        let mut woken = Vec::new();
        for p in self.procs.values_mut() {
            if let ProcState::Blocked(r) = p.state {
                if pred(&r) {
                    p.state = ProcState::Ready;
                    woken.push(p.pid);
                }
            }
        }
        for pid in woken {
            self.enqueue(pid);
        }
    }

    /// Add a pid to the run queue if not already present.
    pub(crate) fn enqueue(&mut self, pid: Pid) {
        if !self.run_queue.contains(&pid) {
            self.run_queue.push_back(pid);
        }
    }

    /// Number of processes not yet reaped and not zombies. O(1): the
    /// count is maintained incrementally at every spawn/fork/exit and
    /// audited against a full recount by invariant #11.
    pub fn live_process_count(&self) -> usize {
        self.live_count
    }

    /// Recount live processes the slow way (the ground truth the cached
    /// counter must track). Exposed for the invariant checker.
    pub fn recount_live(&self) -> usize {
        self.procs
            .values()
            .filter(|p| p.state != ProcState::Zombie)
            .count()
    }

    pub(crate) fn alloc_pid(&mut self) -> Pid {
        let p = Pid(self.next_pid);
        self.next_pid += 1;
        p
    }
}

/// The kernel: system state plus the pluggable protection engine.
pub struct Kernel {
    /// Machine, processes, fs, logs.
    pub sys: System,
    /// Active protection engine.
    pub engine: Box<dyn ProtectionEngine>,
}

impl Kernel {
    /// Boot a kernel over a fresh machine.
    pub fn new(
        mconfig: MachineConfig,
        kconfig: KernelConfig,
        engine: Box<dyn ProtectionEngine>,
    ) -> Kernel {
        let mut mconfig = mconfig;
        // The CFI event stream is an engine property, not a caller knob:
        // arm it exactly when the engine polices control flow (snapshot
        // restore re-derives it the same way).
        mconfig.cfi_events = engine.wants_cfi_events();
        Kernel {
            sys: System::new(mconfig, kconfig),
            engine,
        }
    }

    /// Convenience: boot with default configs and the given engine.
    pub fn with_engine(engine: Box<dyn ProtectionEngine>) -> Kernel {
        Kernel::new(MachineConfig::default(), KernelConfig::default(), engine)
    }

    /// Spawn a process from an image.
    ///
    /// # Errors
    ///
    /// [`SpawnError`] if memory is exhausted, the image or one of its
    /// libraries is malformed, or a library fails verification.
    pub fn spawn(&mut self, image: &ExecImage) -> Result<Pid, SpawnError> {
        let pid = self.sys.alloc_pid();
        let aspace =
            crate::addrspace::AddressSpace::new(&mut self.sys.machine, &mut self.sys.frames)
                .map_err(|_| SpawnError::OutOfMemory)?;
        let proc = Process::new(pid, pid, image.name.clone(), aspace);
        self.sys.procs.insert(pid.0, proc);
        self.sys.live_count += 1;
        if let Err(e) = loader::load_into(self, pid, image) {
            // Roll the half-born process back out.
            self.engine.on_teardown(&mut self.sys, pid);
            let mut p = self.sys.procs.remove(&pid.0).expect("just inserted");
            self.sys.live_count -= 1;
            p.aspace
                .free_all(&mut self.sys.machine, &mut self.sys.frames);
            return Err(e);
        }
        self.sys.stats.processes_spawned += 1;
        self.sys.enqueue(pid);
        Ok(pid)
    }

    /// Run the scheduler until everything exits, the cycle budget runs out,
    /// or the system deadlocks.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        self.run_bounded(max_cycles, None)
    }

    /// [`run`](Self::run) that additionally stops at the first instruction
    /// boundary where the tracer has emitted at least `stop_seq` records.
    ///
    /// The scheduler geometry (quantum clipping against the cycle
    /// deadline) is identical to [`run`](Self::run), so every instruction
    /// executed up to the stop point is the one the unbounded run would
    /// have executed — this is the time-travel replay primitive. A
    /// seq-stop looks like a preemption at that boundary (the current
    /// process is saved and re-enqueued) and reports
    /// [`RunExit::CyclesExhausted`]; callers distinguish "reached the seq"
    /// from "budget ran out" by checking the tracer's emitted count.
    /// With tracing disabled the seq never advances and this degenerates
    /// to a plain deadline run.
    pub fn run_to_seq(&mut self, max_cycles: u64, stop_seq: u64) -> RunExit {
        self.run_bounded(max_cycles, Some(stop_seq))
    }

    fn run_bounded(&mut self, max_cycles: u64, stop_seq: Option<u64>) -> RunExit {
        let deadline = self.sys.machine.cycles.saturating_add(max_cycles);
        loop {
            if self.sys.live_process_count() == 0 {
                return RunExit::AllExited;
            }
            if stop_seq.is_some_and(|s| self.sys.machine.tracer.emitted() >= s) {
                return RunExit::CyclesExhausted;
            }
            let Some(pid) = self.pick_next() else {
                return RunExit::Deadlock;
            };
            self.switch_to(pid);
            let slice_end =
                (self.sys.machine.cycles + self.sys.config.quantum_cycles).min(deadline);
            self.run_slice(pid, slice_end, stop_seq);
            self.save_current();
            if let Some((lp, eip)) = self.sys.livelocked.take() {
                return RunExit::Livelock { pid: lp, eip };
            }
            // Re-queue if still runnable.
            if self
                .sys
                .procs
                .get(&pid.0)
                .is_some_and(|p| p.state == ProcState::Ready)
            {
                self.sys.enqueue(pid);
            }
            if self.sys.machine.cycles >= deadline {
                return if self.sys.live_process_count() == 0 {
                    RunExit::AllExited
                } else {
                    RunExit::CyclesExhausted
                };
            }
        }
    }

    fn pick_next(&mut self) -> Option<Pid> {
        while let Some(pid) = self.sys.run_queue.pop_front() {
            if self
                .sys
                .procs
                .get(&pid.0)
                .is_some_and(|p| p.state == ProcState::Ready)
            {
                return Some(pid);
            }
        }
        None
    }

    fn switch_to(&mut self, pid: Pid) {
        if self.sys.loaded_cr3_for == Some(pid) {
            self.sys.current = Some(pid);
            return;
        }
        // A real context switch: charge scheduler cost, reload CR3 (which
        // flushes both TLBs — the paper's dominant overhead source, §4.6 —
        // unless tagged TLBs are on, in which case the entries are retagged
        // and survive).
        let cs = self.sys.machine.config.costs.context_switch;
        self.sys.charge(cs);
        self.sys.stats.context_switches += 1;
        let from = self.sys.loaded_cr3_for.map_or(u32::MAX, |p| p.0);
        self.sys.trace(sm_trace::mask::SCHED, || {
            sm_trace::TraceEvent::SchedSwitch { from, to: pid.0 }
        });
        let dir = self.sys.proc(pid).aspace.dir;
        let ctx = self.sys.proc(pid).ctx;
        // Load the register file first: set_cr3 writes the (architectural)
        // CR3 field inside it.
        self.sys.machine.cpu.regs = ctx;
        if self.sys.config.asid_tlbs {
            self.sys.machine.set_cr3_tagged(dir, pid.0 as u16);
        } else {
            self.sys.machine.set_cr3(dir);
        }
        self.sys.current = Some(pid);
        self.sys.loaded_cr3_for = Some(pid);
    }

    fn save_current(&mut self) {
        if let Some(pid) = self.sys.current {
            if let Some(p) = self.sys.procs.get_mut(&pid.0) {
                if p.state != ProcState::Zombie {
                    p.ctx = self.sys.machine.cpu.regs;
                }
            }
        }
        self.sys.current = None;
    }

    fn run_slice(&mut self, pid: Pid, slice_end: u64, stop_seq: Option<u64>) {
        // User code runs through the superblock pipeline
        // (`Machine::run_block`) unless something has to happen *between*
        // retires: a chaos plan drawing per-step fault decisions, a
        // stop-sequence watch polling per-step trace emissions, or an
        // armed trap flag (checked per entry below). Both paths are
        // observably identical (see `sm_machine::superblock`). Signals,
        // preemption and process-state changes only originate from kernel
        // code, which never runs between `Trap::None` retires, so those
        // checks keep their per-trap cadence either way.
        let pipeline = self.sys.chaos.is_none() && stop_seq.is_none();
        loop {
            if self.sys.machine.cycles >= slice_end || std::mem::take(&mut self.sys.preempt) {
                return; // preempted or yielded
            }
            if stop_seq.is_some_and(|s| self.sys.machine.tracer.emitted() >= s) {
                return; // time-travel stop: seq reached mid-quantum
            }
            // One process lookup serves the state check, the pending-signal
            // probe and the user-cycle accounting for the step; `machine`
            // and `procs` are disjoint fields, so the borrow rides across
            // `step()`.
            let Some(mut p) = self.sys.procs.get_mut(&pid.0) else {
                return;
            };
            if p.state != ProcState::Ready || self.sys.current != Some(pid) {
                return;
            }
            if !p.signals.pending.is_empty() {
                if !self.deliver_pending_signals(pid) {
                    return; // killed by a signal
                }
                let Some(fresh) = self.sys.procs.get_mut(&pid.0) else {
                    return;
                };
                p = fresh;
            }
            let before = self.sys.machine.cycles;
            if pipeline && !self.sys.machine.cpu.regs.flag(flags::TF) {
                let (retired, trap) = self.sys.machine.run_block(slice_end);
                p.user_cycles += self.sys.machine.cycles - before;
                if retired == 0 && trap.is_none() {
                    // The budget was already exhausted: nothing executed,
                    // so no per-step housekeeping is due (the loop-top
                    // check returns). Matching the per-step path, which
                    // would not have called `after_step` either.
                    continue;
                }
                self.handle_trap(pid, trap);
                if retired > 0 {
                    // Each `Trap::None` retire's `after_step` would have
                    // cleared the fault watchdog; replay the net effect
                    // before the final trap's housekeeping runs.
                    self.sys.watchdog = None;
                }
                self.after_step(pid, trap);
                continue;
            }
            let trap = self.sys.machine.step();
            p.user_cycles += self.sys.machine.cycles - before;
            self.handle_trap(pid, trap);
            self.after_step(pid, trap);
        }
    }

    /// Dispatch one trap returned by user execution (shared by the
    /// per-step path and the superblock pipeline path of
    /// [`Kernel::run_slice`]).
    fn handle_trap(&mut self, pid: Pid, trap: Trap) {
        match trap {
            Trap::None => {}
            Trap::Syscall { vector: 0x80 } => {
                self.sys.charge(self.sys.machine.config.costs.syscall);
                self.sys.stats.syscalls += 1;
                syscall::handle(self, pid);
                if self.sys.machine.take_pending_singlestep() {
                    self.handle_debug(pid);
                }
            }
            Trap::Syscall { .. } => {
                // Unknown software interrupt: treat as illegal.
                self.raise_signal(pid, signal::SIGILL);
            }
            Trap::PageFault(pf) => {
                self.sys.charge(self.sys.machine.config.costs.exception);
                self.handle_fault(pid, pf);
            }
            Trap::InvalidOpcode { eip, opcode } => {
                self.sys.charge(self.sys.machine.config.costs.exception);
                self.handle_ud(pid, eip, opcode);
            }
            Trap::DebugStep => {
                self.sys.charge(self.sys.machine.config.costs.exception);
                self.handle_debug(pid);
            }
            Trap::DivideError => {
                self.sys.charge(self.sys.machine.config.costs.exception);
                self.raise_signal(pid, signal::SIGFPE);
            }
            Trap::ControlFlow(ev) => {
                self.handle_cfi(pid, ev);
                if self.sys.machine.take_pending_singlestep() {
                    self.handle_debug(pid);
                }
            }
            Trap::Halt => {
                // User-mode hlt is a privilege violation.
                self.raise_signal(pid, signal::SIGSEGV);
            }
        }
    }

    /// Post-step housekeeping: the livelock watchdog, then any fault
    /// injection the chaos plan schedules for this step.
    fn after_step(&mut self, pid: Pid, trap: Trap) {
        // Watchdog: consecutive page faults at one EIP with nothing
        // retiring in between mean the fault handler's work is being
        // undone every round (e.g. its TLB fill keeps getting flushed) —
        // the reload dance will never converge.
        if matches!(trap, Trap::PageFault(_)) {
            let eip = self.sys.machine.cpu.regs.eip;
            let count = match self.sys.watchdog {
                Some((p, e, c)) if p == pid && e == eip => c + 1,
                _ => 1,
            };
            self.sys.watchdog = Some((pid, eip, count));
            if count > self.sys.config.livelock_threshold {
                self.sys.log(Event::Note(format!(
                    "livelock: {pid} faulted {count} times at {eip:#010x} without retiring"
                )));
                self.sys.livelocked = Some((pid, eip));
                self.sys.preempt = true;
                return;
            }
        } else {
            self.sys.watchdog = None;
        }
        // The armed-window probe is only for the chaos plan's benefit;
        // chaos-free runs (every performance workload) skip the process
        // lookup entirely.
        let faults = if self.sys.chaos.is_some() {
            let in_window = self
                .sys
                .procs
                .get(&pid.0)
                .is_some_and(|p| p.pending_step_addr.is_some());
            match self.sys.chaos.as_mut() {
                Some(c) => c.on_step(in_window),
                None => StepFaults::default(),
            }
        } else {
            StepFaults::default()
        };
        if faults.flush {
            self.sys.trace(sm_trace::mask::CHAOS, || {
                sm_trace::TraceEvent::ChaosInject {
                    pid: pid.0,
                    kind: sm_trace::ChaosKind::Flush,
                }
            });
            self.sys.machine.flush_tlbs();
        }
        if faults.evict {
            self.sys.trace(sm_trace::mask::CHAOS, || {
                sm_trace::TraceEvent::ChaosInject {
                    pid: pid.0,
                    kind: sm_trace::ChaosKind::Evict,
                }
            });
            let iv = self.sys.machine.itlb.evict_one(faults.evict_draws[0]);
            let dv = self.sys.machine.dtlb.evict_one(faults.evict_draws[1]);
            if self.sys.machine.tracer.wants(sm_trace::mask::TLB) {
                for (side, victim, tlb) in [
                    (sm_trace::TlbSide::Instruction, iv, &self.sys.machine.itlb),
                    (sm_trace::TlbSide::Data, dv, &self.sys.machine.dtlb),
                ] {
                    if let Some(vpn) = victim {
                        let set = tlb.geometry().set_of(vpn) as u32;
                        let cycles = self.sys.machine.cycles;
                        self.sys.machine.tracer.record(
                            cycles,
                            sm_trace::TraceEvent::TlbEvict {
                                tlb: side,
                                vpn,
                                set,
                                cause: sm_trace::EvictCause::Chaos,
                            },
                        );
                    }
                }
            }
        }
        if faults.preempt {
            // A real preemption: route the next switch_to through the full
            // CR3 reload (and its TLB flush) even for the same process.
            self.sys.preempt = true;
            self.sys.loaded_cr3_for = None;
        }
        if faults.signal {
            // Only processes that opted into SIGUSR1 get the mid-window
            // signal — the default disposition is fatal, and chaos must
            // perturb *timing*, never protection verdicts. Nested frames
            // (already in a handler) are skipped for the same reason.
            let eligible = self.sys.procs.get(&pid.0).is_some_and(|p| {
                matches!(p.signals.action(signal::SIGUSR1), SigAction::Handler(_))
                    && p.signals.saved_context.is_none()
            });
            if eligible {
                self.raise_signal(pid, signal::SIGUSR1);
            }
        }
    }

    // ---- faults ------------------------------------------------------------

    /// Handle a page fault raised by user execution.
    fn handle_fault(&mut self, pid: Pid, pf: PageFaultInfo) {
        if !self.service_fault(pid, pf) {
            self.raise_signal(pid, signal::SIGSEGV);
        }
    }

    /// Try to service a fault; returns false if it should be fatal.
    /// Shared by the user path and kernel copy helpers.
    pub(crate) fn service_fault(&mut self, pid: Pid, pf: PageFaultInfo) -> bool {
        let vaddr = pf.addr;
        let entry = self.sys.pte_of(pid, vaddr);
        if self.sys.machine.tracer.wants(sm_trace::mask::FAULT) {
            let present = pte::has(entry, pte::PRESENT);
            // The disambiguation verdict (Algorithm 1): a fault on a present,
            // split, supervisor-restricted page is the engine's I/D probe;
            // everything else (demand paging, COW, genuine violations) is Other.
            let verdict = if present && pte::has(entry, pte::SPLIT) && !pte::has(entry, pte::USER) {
                if pf.access == sm_machine::cpu::Access::Fetch {
                    sm_trace::FaultVerdict::Instruction
                } else {
                    sm_trace::FaultVerdict::Data
                }
            } else {
                sm_trace::FaultVerdict::Other
            };
            let access = match pf.access {
                sm_machine::cpu::Access::Fetch => sm_trace::AccessKind::Fetch,
                sm_machine::cpu::Access::Read => sm_trace::AccessKind::Read,
                sm_machine::cpu::Access::Write => sm_trace::AccessKind::Write,
            };
            let eip = self.sys.machine.cpu.regs.eip;
            let cycles = self.sys.machine.cycles;
            self.sys.machine.tracer.record(
                cycles,
                sm_trace::TraceEvent::PageFault {
                    pid: pid.0,
                    addr: vaddr,
                    eip,
                    access,
                    present,
                    verdict,
                },
            );
        }
        if !pte::has(entry, pte::PRESENT) {
            // Demand paging, if a region covers the address.
            let covered = self.sys.proc(pid).aspace.find_vma(vaddr).is_some();
            if !covered {
                return false;
            }
            if !self.demand_page(pid, vaddr) {
                return self.oom_kill(pid, "demand paging");
            }
            return true;
        }
        // Present entry: a protection fault.
        if pf.access == sm_machine::cpu::Access::Write && pte::has(entry, pte::COW) {
            let writable_region = self
                .sys
                .proc(pid)
                .aspace
                .find_vma(vaddr)
                .is_some_and(crate::vma::Vma::writable);
            if !writable_region {
                return false;
            }
            if !self.cow_break(pid, vaddr, entry) {
                return self.oom_kill(pid, "copy-on-write");
            }
            return true;
        }
        if self.sys.machine.config.software_tlb {
            // Software-loaded TLBs (§4.7): a present entry means this was a
            // pure TLB miss. If the PTE itself authorises the access, the
            // kernel fills the TLB directly; split pages fall through to
            // the engine, which picks the code or data frame.
            let e_user = pte::has(entry, pte::USER);
            let e_wr = pte::has(entry, pte::WRITABLE);
            let e_nx = pte::has(entry, pte::NX);
            let allowed = match pf.privilege {
                Privilege::Kernel => pf.access != sm_machine::cpu::Access::Fetch,
                Privilege::User => {
                    e_user
                        && (pf.access != sm_machine::cpu::Access::Write || e_wr)
                        && !(pf.access == sm_machine::cpu::Access::Fetch
                            && e_nx
                            && self.sys.machine.config.nx_enabled)
                }
            };
            if allowed && !pte::has(entry, pte::SPLIT) {
                let te = TlbEntry {
                    vpn: pte::vpn(vaddr),
                    pfn: pte::frame(entry).0,
                    asid: 0, // fill() restamps with the active ASID
                    user: e_user,
                    writable: e_wr,
                    nx: e_nx,
                };
                let fill_cost = self.sys.machine.config.costs.soft_tlb_fill;
                self.sys.charge(fill_cost);
                self.sys.stats.soft_tlb_fills += 1;
                if pf.access == sm_machine::cpu::Access::Fetch {
                    self.sys.machine.fill_itlb(te);
                } else {
                    self.sys.machine.fill_dtlb(te);
                }
                return true;
            }
        }
        if pf.privilege == Privilege::User || self.sys.machine.config.software_tlb {
            // Not explicable by the generic handler: offer it to the engine
            // (the split-memory supervisor-bit faults land here).
            let pf_cost = self.sys.machine.config.costs.pf_handler;
            self.sys.charge(pf_cost);
            if self.engine.on_protection_fault(&mut self.sys, pid, pf) == FaultOutcome::Handled {
                return true;
            }
        }
        false
    }

    /// Map a fresh zeroed page for `vaddr`. Returns `false` on memory
    /// exhaustion, leaking nothing — a half-done mapping is rolled back.
    fn demand_page(&mut self, pid: Pid, vaddr: u32) -> bool {
        let base = pte::page_base(vaddr);
        let Some(vma) = self.sys.proc(pid).aspace.find_vma(vaddr) else {
            return false;
        };
        let mut flags = pte::USER;
        if vma.writable() {
            flags |= pte::WRITABLE;
        }
        let Ok(frame) = self.sys.alloc_zeroed() else {
            return false;
        };
        {
            let sys = &mut self.sys;
            let p = sys.procs.get_mut(&pid.0).expect("pid");
            if p.aspace
                .map_frame(&mut sys.machine, &mut sys.frames, base, frame, flags)
                .is_err()
            {
                // Pagetable growth failed after the data frame was handed
                // out: give the frame back before reporting the OOM.
                sys.frames.release(&mut sys.machine, frame);
                return false;
            }
        }
        let dp = self.sys.machine.config.costs.demand_page;
        self.sys.charge(dp);
        self.sys.stats.demand_pages += 1;
        self.engine.on_page_mapped(&mut self.sys, pid, base);
        true
    }

    /// Break a copy-on-write share. Returns `false` on memory exhaustion
    /// (the PTE is left untouched, so nothing is lost or leaked).
    fn cow_break(&mut self, pid: Pid, vaddr: u32, entry: u32) -> bool {
        let base = pte::page_base(vaddr);
        let old = pte::frame(entry);
        let cost = self.sys.machine.config.costs.cow_copy;
        self.sys.charge(cost);
        self.sys.stats.cow_breaks += 1;
        let new_frame = if self.sys.frames.refcount(old) > 1 {
            let Ok(f) = self.sys.alloc_copy(old) else {
                return false;
            };
            self.sys.frames.release(&mut self.sys.machine, old);
            f
        } else {
            old
        };
        let new_entry = pte::with_frame(
            (entry & !pte::COW) | pte::WRITABLE | pte::PRESENT,
            new_frame,
        );
        self.sys.set_pte(pid, base, new_entry);
        self.sys.machine.invlpg(base);
        self.sys
            .trace(sm_trace::mask::COW, || sm_trace::TraceEvent::CowBreak {
                pid: pid.0,
                vpn: pte::vpn(base),
                new_pfn: new_frame.0,
            });
        self.engine
            .on_cow_copied(&mut self.sys, pid, base, new_frame);
        true
    }

    /// Out-of-memory policy for fault-time allocations: terminate the
    /// offending process cleanly (SIGKILL, never a kernel panic). Always
    /// returns `true` so fault handlers can report "handled" — the
    /// process will be reaped before it runs again.
    fn oom_kill(&mut self, pid: Pid, what: &str) -> bool {
        self.sys
            .log(Event::Note(format!("oom during {what}: killing {pid}")));
        self.sys.stats.fatal_signals += 1;
        self.do_exit(pid, 128 + signal::SIGKILL as i32);
        true
    }

    fn handle_ud(&mut self, pid: Pid, eip: u32, opcode: u8) {
        match self
            .engine
            .on_invalid_opcode(&mut self.sys, pid, eip, opcode)
        {
            UdOutcome::Resume => {}
            UdOutcome::Unhandled => self.raise_signal(pid, signal::SIGILL),
            UdOutcome::Terminate => {
                // The paper's proposed recovery mode: transfer to an
                // application-registered callback instead of crashing.
                let handler = self.sys.proc(pid).recovery_handler;
                if let Some(h) = handler {
                    self.sys.log(Event::RecoveryEntered { pid, handler: h });
                    self.sys.machine.cpu.regs.eip = h;
                } else {
                    self.raise_signal(pid, signal::SIGILL);
                }
            }
        }
    }

    fn handle_cfi(&mut self, pid: Pid, ev: sm_machine::CfiEvent) {
        match self.engine.on_control_flow(&mut self.sys, pid, ev) {
            CfiOutcome::Allow => {}
            CfiOutcome::Logged => {
                // Observe/forensics: the violation is on the record but
                // the transfer stands; charge the detour like any other
                // absorbed exception.
                self.sys.charge(self.sys.machine.config.costs.exception);
            }
            CfiOutcome::Terminate => {
                self.sys.charge(self.sys.machine.config.costs.exception);
                // Same recovery path as a split-memory #UD detection: a
                // registered callback beats the fatal signal. CET delivers
                // #CP (a SIGSEGV) where split memory delivers SIGILL.
                let handler = self.sys.proc(pid).recovery_handler;
                if let Some(h) = handler {
                    self.sys.log(Event::RecoveryEntered { pid, handler: h });
                    self.sys.machine.cpu.regs.eip = h;
                } else {
                    self.raise_signal(pid, signal::SIGSEGV);
                }
            }
        }
    }

    fn handle_debug(&mut self, pid: Pid) {
        let pending = self.sys.proc(pid).pending_step_addr.is_some();
        if pending && self.engine.on_debug_trap(&mut self.sys, pid) {
            return;
        }
        // Not ours: a stray trap flag. Clear it and signal.
        self.sys.machine.cpu.regs.set_flag(flags::TF, false);
        self.raise_signal(pid, signal::SIGTRAP);
    }

    // ---- signals -----------------------------------------------------------

    /// Queue a signal for a process. Blocked syscalls are interruptible:
    /// the process is woken, the syscall restarts, and pending signals are
    /// delivered before it runs again.
    pub fn raise_signal(&mut self, pid: Pid, sig: u8) {
        let p = self.sys.proc_mut(pid);
        p.signals.raise(sig);
        if matches!(p.state, ProcState::Blocked(_)) {
            p.state = ProcState::Ready;
            self.sys.enqueue(pid);
        }
    }

    /// Deliver queued signals to the *current, on-CPU* process. Returns
    /// false if the process died.
    fn deliver_pending_signals(&mut self, pid: Pid) -> bool {
        loop {
            let Some(sig) = self.sys.proc_mut(pid).signals.take_pending() else {
                return true;
            };
            match self.sys.proc(pid).signals.action(sig) {
                SigAction::Ignore => continue,
                SigAction::Default => {
                    if signal::default_is_fatal(sig) {
                        self.sys.log(Event::Signal { pid, sig });
                        self.sys.stats.fatal_signals += 1;
                        self.do_exit(pid, 128 + sig as i32);
                        return false;
                    }
                }
                SigAction::Handler(handler) => {
                    self.push_signal_frame(pid, sig, handler);
                    self.sys.stats.handler_signals += 1;
                }
            }
        }
    }

    /// Build the user-space signal frame: save context kernel-side, write
    /// the sigreturn trampoline onto the stack (code on a data page — the
    /// paper's mixed-page case, announced to the engine through its
    /// `on_code_written` hook), point the return address at it, and enter
    /// the handler with the signal number in `ebx`.
    fn push_signal_frame(&mut self, pid: Pid, sig: u8, handler: u32) {
        let regs = self.sys.machine.cpu.regs;
        self.sys.proc_mut(pid).signals.saved_context = Some(regs);
        // mov eax, SYS_SIGRETURN ; int 0x80
        let tramp: [u8; 7] = [0xB8, syscall::SYS_SIGRETURN as u8, 0, 0, 0, 0xCD, 0x80];
        let tramp_addr = (regs.get(sm_machine::cpu::Reg::Esp) - 8) & !7;
        // Fault-in the stack pages first so the writes below cannot fail.
        for addr in [tramp_addr - 4, tramp_addr + 7] {
            let _ = self.touch_user_page(pid, addr);
        }
        if self.sys.machine.copy_to_user(tramp_addr, &tramp).is_err() {
            // Unmappable stack: the process is beyond saving.
            self.raise_signal(pid, signal::SIGKILL);
            return;
        }
        self.engine
            .on_code_written(&mut self.sys, pid, tramp_addr, &tramp);
        let ret_slot = tramp_addr - 4;
        if self
            .sys
            .machine
            .write_u32(ret_slot, tramp_addr, Privilege::Kernel)
            .is_err()
        {
            self.raise_signal(pid, signal::SIGKILL);
            return;
        }
        let r = &mut self.sys.machine.cpu.regs;
        r.set(sm_machine::cpu::Reg::Esp, ret_slot);
        r.set(sm_machine::cpu::Reg::Ebx, sig as u32);
        r.eip = handler;
    }

    /// Ensure the page containing `addr` is mapped (running demand paging
    /// if needed). Returns false if the address is not mappable.
    pub(crate) fn touch_user_page(&mut self, pid: Pid, addr: u32) -> bool {
        let entry = self.sys.pte_of(pid, addr);
        if pte::has(entry, pte::PRESENT) {
            return true;
        }
        if self.sys.proc(pid).aspace.find_vma(addr).is_none() {
            return false;
        }
        self.demand_page(pid, addr)
    }

    /// Copy bytes from the current process's memory, resolving demand-page
    /// faults like a real `copy_from_user`. Returns `None` on a genuinely
    /// bad address.
    pub(crate) fn user_read(&mut self, pid: Pid, addr: u32, len: u32) -> Option<Vec<u8>> {
        loop {
            match self.sys.machine.copy_from_user(addr, len) {
                Ok(v) => return Some(v),
                Err(pf) => {
                    if !self.service_fault(pid, pf) {
                        return None;
                    }
                }
            }
        }
    }

    /// Copy bytes into the current process's memory, resolving faults.
    pub(crate) fn user_write(&mut self, pid: Pid, addr: u32, data: &[u8]) -> bool {
        loop {
            match self.sys.machine.copy_to_user(addr, data) {
                Ok(()) => return true,
                Err(pf) => {
                    if !self.service_fault(pid, pf) {
                        return false;
                    }
                }
            }
        }
    }

    /// Read a NUL-terminated string from the current process.
    pub(crate) fn user_cstr(&mut self, pid: Pid, addr: u32) -> Option<String> {
        loop {
            match self.sys.machine.read_cstr(addr, 4096) {
                Ok(v) => return String::from_utf8(v).ok(),
                Err(pf) => {
                    if !self.service_fault(pid, pf) {
                        return None;
                    }
                }
            }
        }
    }

    // ---- exit --------------------------------------------------------------

    /// Terminate a process: run engine teardown, free its memory, close its
    /// descriptors, zombify it and wake a waiting parent.
    pub fn do_exit(&mut self, pid: Pid, code: i32) {
        self.engine.on_teardown(&mut self.sys, pid);
        // Close descriptors (waking pipe peers).
        let fds: Vec<FdObject> = {
            let p = self.sys.proc_mut(pid);
            p.fds.iter_mut().filter_map(Option::take).collect()
        };
        for fd in fds {
            self.close_fd_object(fd);
        }
        {
            let sys = &mut self.sys;
            let p = sys.procs.get_mut(&pid.0).expect("pid");
            p.aspace.free_all(&mut sys.machine, &mut sys.frames);
            if p.state != ProcState::Zombie {
                sys.live_count -= 1;
            }
            p.state = ProcState::Zombie;
            p.exit_code = Some(code);
            // The single-step window dies with the process: exiting from
            // inside one (an armed `int 0x80`, a fatal signal mid-window)
            // would otherwise fire the trailing debug trap *after* this
            // teardown and restore a PTE into the freed address space —
            // re-growing a pagetable on the zombie that nothing ever frees.
            let armed = p.pending_step_addr.take();
            if let Some(addr) = armed {
                let cycles = sys.machine.cycles;
                sys.machine.tracer.emit(sm_trace::mask::STEP, cycles, || {
                    sm_trace::TraceEvent::StepDisarm {
                        pid: pid.0,
                        vpn: pte::vpn(addr),
                        cause: sm_trace::DisarmCause::Exit,
                    }
                });
            }
        }
        self.sys.log(Event::ProcessExit { pid, code });
        self.sys
            .trace(sm_trace::mask::PROC, || sm_trace::TraceEvent::ProcessExit {
                pid: pid.0,
                code,
            });
        if self.sys.current == Some(pid) {
            self.sys.machine.cpu.regs.set_flag(flags::TF, false);
            self.sys.current = None;
        }
        if self.sys.loaded_cr3_for == Some(pid) {
            self.sys.loaded_cr3_for = None;
        }
        // Tagged TLBs never flush on switch, so a dead process's entries
        // would otherwise linger forever under its ASID (its frames may be
        // recycled into another address space). Shoot them all down here —
        // the one full flush per exit is the tagged-mode analogue of the
        // per-switch flush the mode avoids.
        if self.sys.config.asid_tlbs {
            self.sys.machine.flush_tlbs();
        }
        // Wake anyone in waitpid.
        self.sys.wake_where(|r| matches!(r, WaitReason::Child));
    }

    /// Host-side reap: remove a zombie from the process table and return
    /// its exit code. The fleet driver uses this instead of a guest-side
    /// `waitpid` so tenant roots (which are their own parents) don't
    /// accumulate as zombies across thousands of spawn/exit churns.
    /// Returns `None` — and removes nothing — if the pid is unknown or
    /// not yet a zombie.
    pub fn reap(&mut self, pid: Pid) -> Option<i32> {
        let is_zombie = self
            .sys
            .procs
            .get(&pid.0)
            .is_some_and(|p| p.state == ProcState::Zombie);
        if !is_zombie {
            return None;
        }
        let p = self.sys.procs.remove(&pid.0).expect("checked above");
        p.exit_code
    }

    /// Drop one fd object, adjusting pipe endpoint counts and waking
    /// blocked peers.
    pub(crate) fn close_fd_object(&mut self, fd: FdObject) {
        match fd {
            FdObject::PipeRead(id) => {
                self.sys.pipes.drop_reader(id);
                self.sys.wake_where(|r| *r == WaitReason::PipeWritable(id));
            }
            FdObject::PipeWrite(id) => {
                self.sys.pipes.drop_writer(id);
                self.sys.wake_where(|r| *r == WaitReason::PipeReadable(id));
            }
            FdObject::Socket { rx, tx } => {
                self.sys.pipes.drop_reader(rx);
                self.sys.pipes.drop_writer(tx);
                self.sys.wake_where(|r| {
                    *r == WaitReason::PipeWritable(rx) || *r == WaitReason::PipeReadable(tx)
                });
            }
            FdObject::Console | FdObject::File { .. } => {}
        }
    }
}
