//! Flight-recorder tracing for the split-memory simulator.
//!
//! The paper's argument rests on a precise *sequence* of micro-events —
//! supervisor-bit page fault, I-vs-D disambiguation, TLB fill, debug-trap
//! re-restriction (Algorithms 1–2) — but aggregate counters
//! (`MachineStats`, `KernelStats`) can only say how *often* each step ran,
//! not whether they ran in the right order. This crate provides the
//! missing substrate:
//!
//! * [`TraceEvent`] — a closed taxonomy of every split-memory transition
//!   worth observing, stamped with the simulated cycle counter (the same
//!   clock the kernel `EventLog` uses, so the two streams merge-sort).
//! * [`Tracer`] — a bounded ring buffer with a per-layer enable mask.
//!   With the mask clear every emit site is a single load-test-branch and
//!   nothing allocates, so tracing is effectively free when disabled.
//! * [`Tracer::to_jsonl`] — deterministic JSONL export (one object per
//!   record, fixed key order) for CI artifacts and offline diffing.
//! * [`check_order`] — an ordering-invariant checker that validates the
//!   *sequence* of engine events: every PTE unrestrict is closed by a
//!   re-restrict (or armed single-step window) before anything else runs,
//!   and every armed window fires or is disarmed before the next arm or
//!   the owning process's exit. This is strictly stronger than the
//!   state-snapshot invariants in `sm-core`: those can only see the
//!   machine *between* steps, while a trace records what happened inside
//!   the fault handlers.
//!
//! The crate sits below `sm-machine` in the dependency graph and knows
//! nothing about machines or kernels: events carry plain integers, and the
//! embedding layers decide what to emit.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Per-layer enable bits. A [`Tracer`] records an event only when the
/// event's layer bit is set in its mask, so callers can trace (say) engine
/// transitions without drowning in TLB fills.
pub mod mask {
    /// TLB fills, evictions and flushes (machine layer).
    pub const TLB: u32 = 1 << 0;
    /// Page-fault entries with the I/D disambiguation verdict.
    pub const FAULT: u32 = 1 << 1;
    /// PTE restriction state changes (split/unsplit/restrict/unrestrict).
    pub const PTE: u32 = 1 << 2;
    /// Single-step window arm/fire/disarm.
    pub const STEP: u32 = 1 << 3;
    /// Copy-on-write sharing and breaks.
    pub const COW: u32 = 1 << 4;
    /// Scheduler context switches.
    pub const SCHED: u32 = 1 << 5;
    /// Chaos-harness fault injections.
    pub const CHAOS: u32 = 1 << 6;
    /// Engine attack detections.
    pub const DETECT: u32 = 1 << 7;
    /// Process lifecycle (exit).
    pub const PROC: u32 = 1 << 8;

    /// Everything the machine layer emits.
    pub const MACHINE: u32 = TLB;
    /// Everything the kernel layer emits.
    pub const KERNEL: u32 = FAULT | COW | SCHED | CHAOS | PROC;
    /// Everything the protection engines emit.
    pub const ENGINE: u32 = PTE | STEP | DETECT;
    /// All layers.
    pub const ALL: u32 = MACHINE | KERNEL | ENGINE;
}

/// Which TLB an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbSide {
    /// Instruction TLB.
    Instruction,
    /// Data TLB.
    Data,
}

impl TlbSide {
    fn json(self) -> &'static str {
        match self {
            TlbSide::Instruction => "i",
            TlbSide::Data => "d",
        }
    }
}

/// 3C classification of the miss that triggered a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissClass {
    /// First touch of the page (never filled before).
    #[default]
    Cold,
    /// A fully-associative buffer of the same capacity would have hit.
    Conflict,
    /// The shadow fully-associative model had also dropped the page.
    Capacity,
}

impl MissClass {
    fn json(self) -> &'static str {
        match self {
            MissClass::Cold => "cold",
            MissClass::Conflict => "conflict",
            MissClass::Capacity => "capacity",
        }
    }
}

/// Why a TLB entry left the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictCause {
    /// Per-set LRU made room for a fill.
    Capacity,
    /// The chaos harness forced the entry out.
    Chaos,
    /// The hardware dropped a stale-permissive entry on a rights check,
    /// or the kernel dropped a leaked translation.
    Drop,
}

impl EvictCause {
    fn json(self) -> &'static str {
        match self {
            EvictCause::Capacity => "capacity",
            EvictCause::Chaos => "chaos",
            EvictCause::Drop => "drop",
        }
    }
}

/// Scope of a TLB flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushScope {
    /// Both TLBs, every entry (CR3 load or explicit shootdown).
    All,
    /// One page in both TLBs (`invlpg`).
    Page,
}

impl FlushScope {
    fn json(self) -> &'static str {
        match self {
            FlushScope::All => "all",
            FlushScope::Page => "page",
        }
    }
}

/// The faulting access kind, as reported by the MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

impl AccessKind {
    fn json(self) -> &'static str {
        match self {
            AccessKind::Fetch => "fetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }
}

/// The kernel's disambiguation verdict for a page fault (paper Algorithm 1
/// line 3: "if fault was caused by an instruction fetch").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Supervisor-bit fault on a split page, fetch access: instruction
    /// reload path (Algorithm 1 lines 4–7 / Algorithm 2).
    Instruction,
    /// Supervisor-bit fault on a split page, data access: data reload path
    /// (Algorithm 1 lines 8–11).
    Data,
    /// Not a split-page fault: ordinary demand paging / COW / protection.
    Other,
}

impl FaultVerdict {
    fn json(self) -> &'static str {
        match self {
            FaultVerdict::Instruction => "instruction",
            FaultVerdict::Data => "data",
            FaultVerdict::Other => "other",
        }
    }
}

/// Which PTE view a transient unrestriction exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadKind {
    /// The code frame was made user-visible (I-TLB reload).
    Code,
    /// The data frame was made user-visible (D-TLB reload).
    Data,
}

impl ReloadKind {
    fn json(self) -> &'static str {
        match self {
            ReloadKind::Code => "code",
            ReloadKind::Data => "data",
        }
    }
}

/// Why a single-step window was torn down without firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisarmCause {
    /// The engine detected an attack inside the window (#UD on the
    /// zero-filled data view).
    Detection,
    /// The owning process exited mid-window.
    Exit,
}

impl DisarmCause {
    fn json(self) -> &'static str {
        match self {
            DisarmCause::Detection => "detection",
            DisarmCause::Exit => "exit",
        }
    }
}

/// Which fault the chaos harness injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Full TLB flush.
    Flush,
    /// Single-entry eviction.
    Evict,
    /// Forced preemption.
    Preempt,
    /// Asynchronous signal.
    Signal,
}

impl ChaosKind {
    fn json(self) -> &'static str {
        match self {
            ChaosKind::Flush => "flush",
            ChaosKind::Evict => "evict",
            ChaosKind::Preempt => "preempt",
            ChaosKind::Signal => "signal",
        }
    }
}

/// The engine's configured response when an attack is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// Terminate the process.
    Break,
    /// Let it run against the benign data view (honeypot).
    Observe,
    /// Capture the shellcode for analysis.
    Forensics,
}

impl ResponseKind {
    fn json(self) -> &'static str {
        match self {
            ResponseKind::Break => "break",
            ResponseKind::Observe => "observe",
            ResponseKind::Forensics => "forensics",
        }
    }
}

/// One traced transition. Fields are plain integers so the crate stays at
/// the bottom of the dependency graph; `pid` is a kernel process id, `vpn`
/// a virtual page number, `pfn` a physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A pagetable walk (or software fill) inserted a TLB entry. `way` is
    /// the MRU position the entry landed in; `class` classifies the miss
    /// that forced the walk.
    TlbFill {
        /// Which TLB.
        tlb: TlbSide,
        /// Virtual page number filled.
        vpn: u32,
        /// Physical frame it maps to.
        pfn: u32,
        /// Set index.
        set: u32,
        /// MRU position within the set.
        way: u32,
        /// 3C class of the triggering miss.
        class: MissClass,
    },
    /// A valid entry left a TLB outside of a flush.
    TlbEvict {
        /// Which TLB.
        tlb: TlbSide,
        /// Victim virtual page number.
        vpn: u32,
        /// Set index the victim lived in.
        set: u32,
        /// Why it was evicted.
        cause: EvictCause,
    },
    /// Both TLBs (or one page of both) were flushed.
    TlbFlush {
        /// Whole-TLB or single-page.
        scope: FlushScope,
        /// The invalidated page for [`FlushScope::Page`]; 0 otherwise.
        vpn: u32,
    },
    /// The kernel entered its page-fault handler.
    PageFault {
        /// Faulting process.
        pid: u32,
        /// Faulting address.
        addr: u32,
        /// User EIP at the fault.
        eip: u32,
        /// Access kind the MMU reported.
        access: AccessKind,
        /// Whether the translation was present (rights fault) or not.
        present: bool,
        /// The split-memory I/D disambiguation verdict.
        verdict: FaultVerdict,
    },
    /// A page entered split-memory protection (user bit cleared at rest).
    PageSplit {
        /// Owning process.
        pid: u32,
        /// Page.
        vpn: u32,
    },
    /// A page permanently left split-memory protection (degrade, lock to
    /// data, or address-space teardown).
    PageUnsplit {
        /// Owning process.
        pid: u32,
        /// Page.
        vpn: u32,
    },
    /// A split page was transiently made user-accessible so the next
    /// access reloads one TLB (Algorithm 1 lines 5/9).
    PteUnrestrict {
        /// Owning process.
        pid: u32,
        /// Page.
        vpn: u32,
        /// Which frame view was exposed.
        reload: ReloadKind,
    },
    /// A transiently-opened split page was re-restricted (user bit cleared
    /// again; Algorithm 1 line 11 / Algorithm 2 line 7).
    PteRestrict {
        /// Owning process.
        pid: u32,
        /// Page.
        vpn: u32,
    },
    /// The engine armed the trap flag to close an unrestricted page after
    /// exactly one instruction (Algorithm 2 lines 3–4).
    StepArm {
        /// Owning process.
        pid: u32,
        /// The page left open for the single fetch.
        vpn: u32,
    },
    /// The armed debug trap fired (Algorithm 2 line 6).
    StepFire {
        /// Owning process.
        pid: u32,
        /// EIP after the stepped instruction.
        eip: u32,
        /// The page the window was protecting.
        vpn: u32,
    },
    /// An armed window was torn down without firing.
    StepDisarm {
        /// Owning process.
        pid: u32,
        /// The page the window was protecting.
        vpn: u32,
        /// Why.
        cause: DisarmCause,
    },
    /// `fork` shared the parent's frames copy-on-write with the child.
    CowShare {
        /// Parent process.
        parent: u32,
        /// Child process.
        child: u32,
    },
    /// A write to a shared frame broke COW and copied it.
    CowBreak {
        /// Writing process.
        pid: u32,
        /// Page whose mapping was rewritten.
        vpn: u32,
        /// The private frame it now maps.
        new_pfn: u32,
    },
    /// The scheduler switched address spaces.
    SchedSwitch {
        /// Previous process (`u32::MAX` if none was loaded).
        from: u32,
        /// Next process.
        to: u32,
    },
    /// The chaos harness injected a fault after a step.
    ChaosInject {
        /// The process that was running.
        pid: u32,
        /// Which fault.
        kind: ChaosKind,
    },
    /// The engine detected injected code (#UD on the data view).
    Detection {
        /// Offending process.
        pid: u32,
        /// EIP of the undecodable instruction.
        eip: u32,
        /// Configured response.
        mode: ResponseKind,
    },
    /// A process exited.
    ProcessExit {
        /// The process.
        pid: u32,
        /// Exit code (128+signal for fatal signals).
        code: i32,
    },
}

impl TraceEvent {
    /// The layer bit (see [`mask`]) this event belongs to.
    pub fn layer(&self) -> u32 {
        match self {
            TraceEvent::TlbFill { .. }
            | TraceEvent::TlbEvict { .. }
            | TraceEvent::TlbFlush { .. } => mask::TLB,
            TraceEvent::PageFault { .. } => mask::FAULT,
            TraceEvent::PageSplit { .. }
            | TraceEvent::PageUnsplit { .. }
            | TraceEvent::PteUnrestrict { .. }
            | TraceEvent::PteRestrict { .. } => mask::PTE,
            TraceEvent::StepArm { .. }
            | TraceEvent::StepFire { .. }
            | TraceEvent::StepDisarm { .. } => mask::STEP,
            TraceEvent::CowShare { .. } | TraceEvent::CowBreak { .. } => mask::COW,
            TraceEvent::SchedSwitch { .. } => mask::SCHED,
            TraceEvent::ChaosInject { .. } => mask::CHAOS,
            TraceEvent::Detection { .. } => mask::DETECT,
            TraceEvent::ProcessExit { .. } => mask::PROC,
        }
    }

    /// True if the event concerns process `pid`. Machine-layer TLB events
    /// carry no process id and always pass (they are the ambient hardware
    /// context any per-process story still needs); two-process events
    /// (`SchedSwitch`, `CowShare`) match on either side.
    pub fn involves(&self, pid: u32) -> bool {
        match *self {
            TraceEvent::TlbFill { .. }
            | TraceEvent::TlbEvict { .. }
            | TraceEvent::TlbFlush { .. } => true,
            TraceEvent::PageFault { pid: p, .. }
            | TraceEvent::PageSplit { pid: p, .. }
            | TraceEvent::PageUnsplit { pid: p, .. }
            | TraceEvent::PteUnrestrict { pid: p, .. }
            | TraceEvent::PteRestrict { pid: p, .. }
            | TraceEvent::StepArm { pid: p, .. }
            | TraceEvent::StepFire { pid: p, .. }
            | TraceEvent::StepDisarm { pid: p, .. }
            | TraceEvent::CowBreak { pid: p, .. }
            | TraceEvent::ChaosInject { pid: p, .. }
            | TraceEvent::Detection { pid: p, .. }
            | TraceEvent::ProcessExit { pid: p, .. } => p == pid,
            TraceEvent::CowShare { parent, child } => parent == pid || child == pid,
            TraceEvent::SchedSwitch { from, to } => from == pid || to == pid,
        }
    }

    /// Short kind tag used as the JSONL `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TlbFill { .. } => "tlb_fill",
            TraceEvent::TlbEvict { .. } => "tlb_evict",
            TraceEvent::TlbFlush { .. } => "tlb_flush",
            TraceEvent::PageFault { .. } => "page_fault",
            TraceEvent::PageSplit { .. } => "page_split",
            TraceEvent::PageUnsplit { .. } => "page_unsplit",
            TraceEvent::PteUnrestrict { .. } => "pte_unrestrict",
            TraceEvent::PteRestrict { .. } => "pte_restrict",
            TraceEvent::StepArm { .. } => "step_arm",
            TraceEvent::StepFire { .. } => "step_fire",
            TraceEvent::StepDisarm { .. } => "step_disarm",
            TraceEvent::CowShare { .. } => "cow_share",
            TraceEvent::CowBreak { .. } => "cow_break",
            TraceEvent::SchedSwitch { .. } => "sched_switch",
            TraceEvent::ChaosInject { .. } => "chaos_inject",
            TraceEvent::Detection { .. } => "detection",
            TraceEvent::ProcessExit { .. } => "process_exit",
        }
    }
}

/// Bytes reserved per record when rendering JSON (a typical line is
/// 90–150 bytes).
const JSON_RECORD_HINT: usize = 128;

/// A recorded event: global sequence number, simulated-cycle stamp, event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in the *whole* event stream (including records the ring
    /// has since dropped), so consumers can detect truncation.
    pub seq: u64,
    /// Simulated cycle counter at emission — the same clock the kernel
    /// `EventLog` stamps, so the two streams interleave consistently.
    pub cycles: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Render the record as one JSON object (fixed key order; the JSONL
    /// schema CI validates).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(JSON_RECORD_HINT);
        self.write_json(&mut out);
        out
    }

    /// Append the record's JSON object (no newline) to `out`.
    fn write_json(&self, out: &mut String) {
        // Formatting into a `String` cannot fail, so the results are dropped.
        let _ = write!(
            out,
            "{{\"seq\":{},\"cycles\":{},\"kind\":\"{}\"",
            self.seq,
            self.cycles,
            self.event.kind()
        );
        let _ = match self.event {
            TraceEvent::TlbFill {
                tlb,
                vpn,
                pfn,
                set,
                way,
                class,
            } => write!(
                out,
                ",\"tlb\":\"{}\",\"vpn\":{vpn},\"pfn\":{pfn},\"set\":{set},\"way\":{way},\"class\":\"{}\"",
                tlb.json(),
                class.json()
            ),
            TraceEvent::TlbEvict { tlb, vpn, set, cause } => write!(
                out,
                ",\"tlb\":\"{}\",\"vpn\":{vpn},\"set\":{set},\"cause\":\"{}\"",
                tlb.json(),
                cause.json()
            ),
            TraceEvent::TlbFlush { scope, vpn } => {
                write!(out, ",\"scope\":\"{}\",\"vpn\":{vpn}", scope.json())
            }
            TraceEvent::PageFault {
                pid,
                addr,
                eip,
                access,
                present,
                verdict,
            } => write!(
                out,
                ",\"pid\":{pid},\"addr\":{addr},\"eip\":{eip},\"access\":\"{}\",\"present\":{present},\"verdict\":\"{}\"",
                access.json(),
                verdict.json()
            ),
            TraceEvent::PageSplit { pid, vpn }
            | TraceEvent::PageUnsplit { pid, vpn }
            | TraceEvent::PteRestrict { pid, vpn }
            | TraceEvent::StepArm { pid, vpn } => write!(out, ",\"pid\":{pid},\"vpn\":{vpn}"),
            TraceEvent::PteUnrestrict { pid, vpn, reload } => {
                write!(out, ",\"pid\":{pid},\"vpn\":{vpn},\"reload\":\"{}\"", reload.json())
            }
            TraceEvent::StepFire { pid, eip, vpn } => {
                write!(out, ",\"pid\":{pid},\"eip\":{eip},\"vpn\":{vpn}")
            }
            TraceEvent::StepDisarm { pid, vpn, cause } => {
                write!(out, ",\"pid\":{pid},\"vpn\":{vpn},\"cause\":\"{}\"", cause.json())
            }
            TraceEvent::CowShare { parent, child } => {
                write!(out, ",\"parent\":{parent},\"child\":{child}")
            }
            TraceEvent::CowBreak { pid, vpn, new_pfn } => {
                write!(out, ",\"pid\":{pid},\"vpn\":{vpn},\"new_pfn\":{new_pfn}")
            }
            TraceEvent::SchedSwitch { from, to } => write!(out, ",\"from\":{from},\"to\":{to}"),
            TraceEvent::ChaosInject { pid, kind } => {
                write!(out, ",\"pid\":{pid},\"chaos\":\"{}\"", kind.json())
            }
            TraceEvent::Detection { pid, eip, mode } => {
                write!(out, ",\"pid\":{pid},\"eip\":{eip},\"mode\":\"{}\"", mode.json())
            }
            TraceEvent::ProcessExit { pid, code } => write!(out, ",\"pid\":{pid},\"code\":{code}"),
        };
        out.push('}');
    }
}

/// Bounded, masked ring buffer of [`TraceRecord`]s.
///
/// The mask is checked before an event is even constructed (see
/// [`Tracer::emit`]), so a disabled tracer costs one load-test-branch per
/// emit site and never allocates. When the ring is full the oldest record
/// is dropped; [`Tracer::dropped`] reports how many, and [`TraceRecord::seq`]
/// stays globally consistent so truncation is always detectable.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled_mask: u32,
    capacity: usize,
    next_seq: u64,
    // When set, events not involving this pid are dropped *before* a
    // sequence number is assigned, so a filtered stream still has gap-free
    // seqs (the property CI's jq check asserts).
    pid_filter: Option<u32>,
    buf: VecDeque<TraceRecord>,
    // The ordering fold of every record pushed since the ring was last
    // emptied, kept up as records arrive. Its verdicts carry the seq they
    // depend on, so it answers for whatever part of that stream the ring
    // still holds.
    order: OrderCheck,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// Default ring capacity when tracing is enabled.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A tracer that records nothing (the zero-cost default).
    pub fn disabled() -> Tracer {
        Tracer {
            enabled_mask: 0,
            capacity: 0,
            next_seq: 0,
            pid_filter: None,
            buf: VecDeque::new(),
            order: OrderCheck::new(false),
        }
    }

    /// A tracer recording the layers in `mask` into a ring of `capacity`
    /// records.
    pub fn new(mask: u32, capacity: usize) -> Tracer {
        Tracer {
            enabled_mask: if capacity == 0 { 0 } else { mask },
            capacity,
            next_seq: 0,
            pid_filter: None,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            order: OrderCheck::new(false),
        }
    }

    /// Rebuild a tracer from checkpoint metadata: same mask, capacity and
    /// filter, sequence counter resumed at `next_seq`, ring empty. Records
    /// emitted after restore splice seamlessly onto the pre-checkpoint
    /// stream (the ring contents themselves are deliberately not part of a
    /// snapshot — they are an observation, not machine state).
    pub fn restore_meta(
        mask: u32,
        capacity: usize,
        next_seq: u64,
        pid_filter: Option<u32>,
    ) -> Tracer {
        let mut t = Tracer::new(mask, capacity);
        t.next_seq = next_seq;
        t.pid_filter = pid_filter;
        t.order = OrderCheck::new(next_seq > 0);
        t
    }

    /// The enabled-layer mask.
    pub fn enabled(&self) -> u32 {
        self.enabled_mask
    }

    /// The ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-process filter, if one is set.
    pub fn pid_filter(&self) -> Option<u32> {
        self.pid_filter
    }

    /// Restrict recording to events involving `pid` (see
    /// [`TraceEvent::involves`]); `None` clears the filter. Filtered
    /// events never consume a sequence number.
    pub fn set_pid_filter(&mut self, pid: Option<u32>) {
        self.pid_filter = pid;
    }

    /// Enable additional layers (used by the kernel to OR its mask into
    /// the machine's tracer at construction), growing the ring to at least
    /// `capacity` records.
    pub fn enable(&mut self, mask: u32, capacity: usize) {
        if mask != 0 {
            self.capacity = self.capacity.max(capacity.max(1));
        }
        self.enabled_mask |= mask;
    }

    /// True if any layer in `layer` is enabled. Emit sites that need to
    /// gather data before constructing an event guard on this.
    #[inline(always)]
    pub fn wants(&self, layer: u32) -> bool {
        self.enabled_mask & layer != 0
    }

    /// Record `event` at `cycles` if its layer is enabled. The closure
    /// form ([`Tracer::emit`]) is preferred when building the event is not
    /// free.
    #[inline]
    pub fn record(&mut self, cycles: u64, event: TraceEvent) {
        if self.enabled_mask & event.layer() == 0 {
            return;
        }
        self.push(cycles, event);
    }

    /// Record the event produced by `f` at `cycles` if `layer` is enabled;
    /// `f` is not called otherwise.
    #[inline(always)]
    pub fn emit(&mut self, layer: u32, cycles: u64, f: impl FnOnce() -> TraceEvent) {
        if self.enabled_mask & layer == 0 {
            return;
        }
        self.push(cycles, f());
    }

    fn push(&mut self, cycles: u64, event: TraceEvent) {
        if let Some(pid) = self.pid_filter {
            if !event.involves(pid) {
                return;
            }
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        let r = TraceRecord {
            seq: self.next_seq,
            cycles,
            event,
        };
        self.order.feed(&r);
        self.buf.push_back(r);
        self.next_seq += 1;
    }

    /// Total events ever recorded (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Events the ring has dropped to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }

    /// True if the ring no longer holds the whole stream.
    pub fn truncated(&self) -> bool {
        self.dropped() > 0
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// The retained records as a contiguous vector (oldest first).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.buf.iter().copied().collect()
    }

    /// The last `n` records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        self.buf
            .iter()
            .skip(self.buf.len().saturating_sub(n))
            .copied()
            .collect()
    }

    /// Render every retained record as JSONL (one object per line,
    /// trailing newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.buf.len() * JSON_RECORD_HINT);
        for r in &self.buf {
            r.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Drop every retained record (the sequence counter keeps running).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.order = OrderCheck::new(self.next_seq > 0);
    }

    /// [`check_order`] over the retained records:
    /// `check_order(&self.snapshot(), self.truncated(), complete)`.
    ///
    /// The answer comes from the fold the tracer keeps up as it records:
    /// the verdicts and leftover pages whose dependency the ring still
    /// holds. A query costs what it reports, not what the ring holds,
    /// whether or not the ring has wrapped.
    pub fn check_order(&self, complete: bool) -> Vec<String> {
        self.order.finish(complete, self.dropped())
    }
}

/// Per-page protection state the ordering checker tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Transiently user-accessible; must close before anything else runs.
    Open,
    /// User-accessible under an armed single-step window.
    Armed,
}

/// Validate the *ordering* invariants of a trace (engine layer):
///
/// 1. Cycle stamps are monotonically non-decreasing.
/// 2. A `PteUnrestrict` window is closed — by `PteRestrict` or by arming a
///    single-step window — before any event other than the fault handler's
///    own TLB traffic; unrestricted pages never survive past the handler.
/// 3. At most one single-step window is armed per process, every
///    `StepFire`/`StepDisarm` matches an armed window, and a fired window
///    is re-restricted immediately.
/// 4. No process exits with an armed window (the PR 1 leak class).
/// 5. With `complete` set (the run finished and the ring did not wrap),
///    no page is left transiently open or armed at end of trace.
///
/// `truncated` relaxes the "matching open" checks for the ring-wrap case:
/// a dump that lost its head may legitimately begin mid-window, so
/// unmatched closes are ignored — but double-arms, window crossings and
/// stale opens are still reported.
///
/// This is the reference fold; [`Tracer::check_order`] answers the same
/// question for the tracer's own ring from a fold kept up as it records.
pub fn check_order<'a>(
    records: impl IntoIterator<Item = &'a TraceRecord>,
    truncated: bool,
    complete: bool,
) -> Vec<String> {
    let mut check = OrderCheck::new(truncated);
    for r in records {
        check.feed(r);
    }
    check.finish(complete, 0)
}

/// The state of [`check_order`]'s fold after some prefix of a stream:
/// [`feed`](OrderCheck::feed) it records in emission order and ask
/// [`finish`](OrderCheck::finish) for the verdict at any point.
///
/// Every verdict is kept with the seq of the one earlier record it
/// depends on, and every open or armed page with the seq of the record
/// that put it in that state. A ring that has dropped its head holds the
/// records from some seq `since` on. The reference fold over just those
/// records, in truncated mode, differs from this fold in one way only: a
/// key whose last op was dropped reads as absent. Absent state never
/// yields a verdict in truncated mode, so the reference reports exactly
/// the verdicts and leftovers whose dependency is at or after `since`.
#[derive(Debug, Clone, Default)]
struct OrderCheck {
    truncated: bool,
    prev_seq: u64,
    prev_cycles: u64,
    pages: BTreeMap<(u32, u32), (PageState, u64)>,
    // Each pid's armed window: the page and the seq of its `StepArm`.
    armed: BTreeMap<u32, (u32, u64)>,
    // The at-most-one transiently open page and the seq that opened it
    // (engine fault handlers are synchronous, so two simultaneous opens
    // are themselves a violation).
    open: Option<((u32, u32), u64)>,
    violations: Vec<(u64, String)>,
}

/// What the checks a truncated stream waives depend on: a fold that is
/// not truncated covers its stream from the first seq, so these verdicts
/// stand only while the ring still holds seq 0.
const STREAM_HEAD: u64 = 0;

impl OrderCheck {
    /// An empty fold; `truncated` as for [`check_order`].
    fn new(truncated: bool) -> OrderCheck {
        OrderCheck {
            truncated,
            ..OrderCheck::default()
        }
    }

    /// Fold the next record of the stream.
    fn feed(&mut self, r: &TraceRecord) {
        let OrderCheck {
            truncated,
            prev_seq,
            prev_cycles,
            pages,
            armed,
            open,
            violations,
        } = self;
        let truncated = *truncated;
        if r.cycles < *prev_cycles {
            violations.push((
                *prev_seq,
                format!(
                    "seq {}: cycle stamp went backwards ({} after {})",
                    r.seq, r.cycles, prev_cycles
                ),
            ));
        }
        *prev_seq = r.seq;
        *prev_cycles = r.cycles;

        // Rule 2: while a page is transiently open, only the handler's own
        // TLB traffic or events resolving that same page may appear.
        if let Some(((opid, ovpn), opened)) = *open {
            let same_page = match r.event {
                TraceEvent::PteRestrict { pid, vpn }
                | TraceEvent::StepArm { pid, vpn }
                | TraceEvent::PageUnsplit { pid, vpn } => pid == opid && vpn == ovpn,
                _ => false,
            };
            let handler_traffic = matches!(
                r.event,
                TraceEvent::TlbFill { .. }
                    | TraceEvent::TlbEvict { .. }
                    | TraceEvent::TlbFlush { .. }
            );
            if !same_page && !handler_traffic {
                violations.push((
                    opened,
                    format!(
                        "seq {}: {:?} while page (pid {}, vpn {:#x}) was still unrestricted",
                        r.seq, r.event, opid, ovpn
                    ),
                ));
                *open = None; // report once, don't cascade
            }
        }

        match r.event {
            TraceEvent::PteUnrestrict { pid, vpn, .. } => {
                if let Some((_, set)) = pages.insert((pid, vpn), (PageState::Open, r.seq)) {
                    violations.push((
                        set,
                        format!(
                            "seq {}: pid {} vpn {vpn:#x} unrestricted while already open/armed",
                            r.seq, pid
                        ),
                    ));
                }
                *open = Some(((pid, vpn), r.seq));
            }
            TraceEvent::PteRestrict { pid, vpn } => {
                // A restrict with no tracked open state is legal: degrade
                // and normalisation paths re-assert the at-rest PTE
                // idempotently, and a truncated trace may have lost the
                // matching unrestrict.
                pages.remove(&(pid, vpn));
                open.take_if(|(page, _)| *page == (pid, vpn));
            }
            TraceEvent::StepArm { pid, vpn } => {
                match pages.get(&(pid, vpn)).map(|(state, _)| state) {
                    Some(PageState::Open) => {}
                    _ if truncated => {}
                    other => violations.push((
                        STREAM_HEAD,
                        format!(
                            "seq {}: single-step armed on pid {} vpn {vpn:#x} in state {:?} (expected an open unrestrict)",
                            r.seq, pid, other
                        ),
                    )),
                }
                if let Some((prior, set)) = armed.insert(pid, (vpn, r.seq)) {
                    violations.push((
                        set,
                        format!(
                            "seq {}: pid {} armed a second window (vpn {vpn:#x}) while vpn {prior:#x} was still armed",
                            r.seq, pid
                        ),
                    ));
                }
                pages.insert((pid, vpn), (PageState::Armed, r.seq));
                open.take_if(|(page, _)| *page == (pid, vpn));
            }
            TraceEvent::StepFire { pid, vpn, .. } => {
                match armed.remove(&pid) {
                    Some((av, set)) if av != vpn => violations.push((
                        set,
                        format!(
                            "seq {}: pid {} window fired for vpn {vpn:#x} but vpn {av:#x} was armed",
                            r.seq, pid
                        ),
                    )),
                    Some(_) => {}
                    None if truncated => {}
                    None => violations.push((
                        STREAM_HEAD,
                        format!(
                            "seq {}: pid {} debug trap fired with no armed window",
                            r.seq, pid
                        ),
                    )),
                }
                // The fired page must now be re-restricted before anything
                // else runs.
                pages.insert((pid, vpn), (PageState::Open, r.seq));
                *open = Some(((pid, vpn), r.seq));
            }
            TraceEvent::StepDisarm { pid, vpn, cause } => {
                if armed.remove(&pid).is_none() && !truncated {
                    violations.push((
                        STREAM_HEAD,
                        format!("seq {}: pid {} disarmed with no armed window", r.seq, pid),
                    ));
                }
                match cause {
                    DisarmCause::Detection => {
                        // The engine restores the at-rest PTE next.
                        pages.insert((pid, vpn), (PageState::Open, r.seq));
                        *open = Some(((pid, vpn), r.seq));
                    }
                    DisarmCause::Exit => {
                        // Teardown frees the address space; nothing to close.
                        pages.remove(&(pid, vpn));
                    }
                }
            }
            TraceEvent::PageUnsplit { pid, vpn } => {
                pages.remove(&(pid, vpn));
                open.take_if(|(page, _)| *page == (pid, vpn));
            }
            TraceEvent::ProcessExit { pid, .. } => {
                if let Some((vpn, set)) = armed.remove(&pid) {
                    violations.push((
                        set,
                        format!(
                            "seq {}: pid {} exited with an armed window on vpn {vpn:#x}",
                            r.seq, pid
                        ),
                    ));
                }
                pages.retain(|(p, _), _| *p != pid);
                open.take_if(|((p, _), _)| *p == pid);
            }
            _ => {}
        }
    }

    /// The violations found so far whose dependency is at or after seq
    /// `since`, followed — with `complete` — by every page still open or
    /// armed since then. The fold itself is untouched, so feeding can go
    /// on.
    fn finish(&self, complete: bool, since: u64) -> Vec<String> {
        let mut out: Vec<String> = self
            .violations
            .iter()
            .filter(|(dep, _)| *dep >= since)
            .map(|(_, v)| v.clone())
            .collect();
        if complete {
            let mut leftovers: Vec<String> = self
                .pages
                .iter()
                .filter(|(_, (_, set))| *set >= since)
                .map(|((pid, vpn), (st, _))| {
                    format!(
                        "end of trace: pid {pid} vpn {vpn:#x} left {st:?} (never re-restricted)"
                    )
                })
                .collect();
            leftovers.sort();
            out.extend(leftovers);
        }
        out
    }
}

/// Why [`splice`] refused to join two segment streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpliceError {
    /// A seq number was skipped between two adjacent records: the second
    /// segment starts after where the first one ended.
    Gap {
        /// Last seq before the hole.
        after: u64,
        /// First seq after the hole.
        found: u64,
    },
    /// A seq number repeated (or went backwards): the segments overlap.
    Duplicate {
        /// The offending seq.
        seq: u64,
    },
}

impl std::fmt::Display for SpliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpliceError::Gap { after, found } => {
                write!(
                    f,
                    "seq gap: {found} follows {after} (expected {})",
                    after + 1
                )
            }
            SpliceError::Duplicate { seq } => write!(f, "seq {seq} emitted twice"),
        }
    }
}

/// Join per-segment trace streams into one contiguous stream.
///
/// Each element of `streams` is the record list one segment retained, in
/// emission order. The segments must tile the global seq space with no gap
/// and no overlap — exactly what a checkpoint/restore segment schedule
/// produces when every [`Tracer::restore_meta`] resumed at the seq its
/// predecessor stopped at. Any hole or repeat is a determinism bug in the
/// splicer's caller, so it is reported as a typed error rather than
/// silently merged.
pub fn splice(streams: &[Vec<TraceRecord>]) -> Result<Vec<TraceRecord>, SpliceError> {
    let mut out: Vec<TraceRecord> = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for stream in streams {
        for r in stream {
            if let Some(last) = out.last() {
                if r.seq <= last.seq {
                    return Err(SpliceError::Duplicate { seq: r.seq });
                }
                if r.seq != last.seq + 1 {
                    return Err(SpliceError::Gap {
                        after: last.seq,
                        found: r.seq,
                    });
                }
            }
            out.push(*r);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, cycles: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, cycles, event }
    }

    fn sw(seq: u64) -> TraceRecord {
        rec(seq, seq, TraceEvent::SchedSwitch { from: 0, to: 1 })
    }

    #[test]
    fn splice_joins_contiguous_segments() {
        let spliced =
            splice(&[vec![sw(3), sw(4)], vec![], vec![sw(5)], vec![sw(6), sw(7)]]).unwrap();
        let seqs: Vec<u64> = spliced.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn splice_rejects_gap_and_duplicate() {
        assert_eq!(
            splice(&[vec![sw(1)], vec![sw(3)]]),
            Err(SpliceError::Gap { after: 1, found: 3 })
        );
        assert_eq!(
            splice(&[vec![sw(1), sw(2)], vec![sw(2)]]),
            Err(SpliceError::Duplicate { seq: 2 })
        );
        let err = SpliceError::Gap { after: 1, found: 3 };
        assert_eq!(err.to_string(), "seq gap: 3 follows 1 (expected 2)");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let mut called = false;
        t.emit(mask::ALL, 10, || {
            called = true;
            TraceEvent::SchedSwitch { from: 0, to: 1 }
        });
        t.record(11, TraceEvent::SchedSwitch { from: 1, to: 2 });
        assert!(!called);
        assert_eq!(t.emitted(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn mask_filters_by_layer() {
        let mut t = Tracer::new(mask::SCHED, 16);
        t.record(1, TraceEvent::SchedSwitch { from: 0, to: 1 });
        t.record(2, TraceEvent::ProcessExit { pid: 1, code: 0 });
        assert_eq!(t.emitted(), 1);
        assert!(matches!(
            t.snapshot()[0].event,
            TraceEvent::SchedSwitch { .. }
        ));
    }

    #[test]
    fn ring_drops_oldest_and_reports_truncation() {
        let mut t = Tracer::new(mask::ALL, 2);
        for i in 0..5 {
            t.record(
                i,
                TraceEvent::SchedSwitch {
                    from: 0,
                    to: i as u32,
                },
            );
        }
        assert_eq!(t.emitted(), 5);
        assert_eq!(t.dropped(), 3);
        assert!(t.truncated());
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 3);
        assert_eq!(snap[1].seq, 4);
    }

    #[test]
    fn tail_returns_last_n_oldest_first() {
        let mut t = Tracer::new(mask::ALL, 8);
        for i in 0..6 {
            t.record(
                i,
                TraceEvent::SchedSwitch {
                    from: 0,
                    to: i as u32,
                },
            );
        }
        let tail = t.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 4);
        assert_eq!(tail[1].seq, 5);
        assert_eq!(t.tail(100).len(), 6);
    }

    /// The exact JSONL line of one record of every event kind, with every
    /// `json()` spelling of every field enum somewhere in the set and the
    /// integer fields at their extremes: the export format is a schema
    /// offline tooling parses, so any byte that moves must move on purpose.
    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        use TraceEvent as E;
        let cases: Vec<(TraceEvent, &str)> = vec![
            (
                E::TlbFill {
                    tlb: TlbSide::Instruction,
                    vpn: 0x10,
                    pfn: 3,
                    set: 1,
                    way: 2,
                    class: MissClass::Cold,
                },
                r#""kind":"tlb_fill","tlb":"i","vpn":16,"pfn":3,"set":1,"way":2,"class":"cold"}"#,
            ),
            (
                E::TlbFill {
                    tlb: TlbSide::Data,
                    vpn: u32::MAX,
                    pfn: 0,
                    set: 63,
                    way: 3,
                    class: MissClass::Conflict,
                },
                r#""kind":"tlb_fill","tlb":"d","vpn":4294967295,"pfn":0,"set":63,"way":3,"class":"conflict"}"#,
            ),
            (
                E::TlbFill {
                    tlb: TlbSide::Data,
                    vpn: 7,
                    pfn: 8,
                    set: 0,
                    way: 0,
                    class: MissClass::Capacity,
                },
                r#""kind":"tlb_fill","tlb":"d","vpn":7,"pfn":8,"set":0,"way":0,"class":"capacity"}"#,
            ),
            (
                E::TlbEvict {
                    tlb: TlbSide::Instruction,
                    vpn: 9,
                    set: 1,
                    cause: EvictCause::Capacity,
                },
                r#""kind":"tlb_evict","tlb":"i","vpn":9,"set":1,"cause":"capacity"}"#,
            ),
            (
                E::TlbEvict {
                    tlb: TlbSide::Data,
                    vpn: 10,
                    set: 2,
                    cause: EvictCause::Chaos,
                },
                r#""kind":"tlb_evict","tlb":"d","vpn":10,"set":2,"cause":"chaos"}"#,
            ),
            (
                E::TlbEvict {
                    tlb: TlbSide::Data,
                    vpn: 11,
                    set: 3,
                    cause: EvictCause::Drop,
                },
                r#""kind":"tlb_evict","tlb":"d","vpn":11,"set":3,"cause":"drop"}"#,
            ),
            (
                E::TlbFlush {
                    scope: FlushScope::All,
                    vpn: 0,
                },
                r#""kind":"tlb_flush","scope":"all","vpn":0}"#,
            ),
            (
                E::TlbFlush {
                    scope: FlushScope::Page,
                    vpn: 0x8048,
                },
                r#""kind":"tlb_flush","scope":"page","vpn":32840}"#,
            ),
            (
                E::PageFault {
                    pid: 1,
                    addr: 0x1000,
                    eip: 0x1000,
                    access: AccessKind::Fetch,
                    present: true,
                    verdict: FaultVerdict::Instruction,
                },
                r#""kind":"page_fault","pid":1,"addr":4096,"eip":4096,"access":"fetch","present":true,"verdict":"instruction"}"#,
            ),
            (
                E::PageFault {
                    pid: 2,
                    addr: 0xbfff_fffc,
                    eip: 0x0804_8000,
                    access: AccessKind::Read,
                    present: false,
                    verdict: FaultVerdict::Data,
                },
                r#""kind":"page_fault","pid":2,"addr":3221225468,"eip":134512640,"access":"read","present":false,"verdict":"data"}"#,
            ),
            (
                E::PageFault {
                    pid: 3,
                    addr: 0,
                    eip: u32::MAX,
                    access: AccessKind::Write,
                    present: false,
                    verdict: FaultVerdict::Other,
                },
                r#""kind":"page_fault","pid":3,"addr":0,"eip":4294967295,"access":"write","present":false,"verdict":"other"}"#,
            ),
            (
                E::PageSplit {
                    pid: 1,
                    vpn: 0x8048,
                },
                r#""kind":"page_split","pid":1,"vpn":32840}"#,
            ),
            (
                E::PageUnsplit {
                    pid: 1,
                    vpn: 0x8049,
                },
                r#""kind":"page_unsplit","pid":1,"vpn":32841}"#,
            ),
            (
                E::PteUnrestrict {
                    pid: 4,
                    vpn: 5,
                    reload: ReloadKind::Code,
                },
                r#""kind":"pte_unrestrict","pid":4,"vpn":5,"reload":"code"}"#,
            ),
            (
                E::PteUnrestrict {
                    pid: 4,
                    vpn: 6,
                    reload: ReloadKind::Data,
                },
                r#""kind":"pte_unrestrict","pid":4,"vpn":6,"reload":"data"}"#,
            ),
            (
                E::PteRestrict { pid: 4, vpn: 5 },
                r#""kind":"pte_restrict","pid":4,"vpn":5}"#,
            ),
            (
                E::StepArm { pid: 4, vpn: 5 },
                r#""kind":"step_arm","pid":4,"vpn":5}"#,
            ),
            (
                E::StepFire {
                    pid: 4,
                    eip: 0x4004,
                    vpn: 5,
                },
                r#""kind":"step_fire","pid":4,"eip":16388,"vpn":5}"#,
            ),
            (
                E::StepDisarm {
                    pid: 4,
                    vpn: 5,
                    cause: DisarmCause::Detection,
                },
                r#""kind":"step_disarm","pid":4,"vpn":5,"cause":"detection"}"#,
            ),
            (
                E::StepDisarm {
                    pid: 4,
                    vpn: 6,
                    cause: DisarmCause::Exit,
                },
                r#""kind":"step_disarm","pid":4,"vpn":6,"cause":"exit"}"#,
            ),
            (
                E::CowShare {
                    parent: 1,
                    child: 2,
                },
                r#""kind":"cow_share","parent":1,"child":2}"#,
            ),
            (
                E::CowBreak {
                    pid: 2,
                    vpn: 0x8049,
                    new_pfn: 77,
                },
                r#""kind":"cow_break","pid":2,"vpn":32841,"new_pfn":77}"#,
            ),
            (
                E::SchedSwitch {
                    from: u32::MAX,
                    to: 1,
                },
                r#""kind":"sched_switch","from":4294967295,"to":1}"#,
            ),
            (
                E::ChaosInject {
                    pid: 1,
                    kind: ChaosKind::Flush,
                },
                r#""kind":"chaos_inject","pid":1,"chaos":"flush"}"#,
            ),
            (
                E::ChaosInject {
                    pid: 1,
                    kind: ChaosKind::Evict,
                },
                r#""kind":"chaos_inject","pid":1,"chaos":"evict"}"#,
            ),
            (
                E::ChaosInject {
                    pid: 1,
                    kind: ChaosKind::Preempt,
                },
                r#""kind":"chaos_inject","pid":1,"chaos":"preempt"}"#,
            ),
            (
                E::ChaosInject {
                    pid: 1,
                    kind: ChaosKind::Signal,
                },
                r#""kind":"chaos_inject","pid":1,"chaos":"signal"}"#,
            ),
            (
                E::Detection {
                    pid: 2,
                    eip: 0xbfff_f000,
                    mode: ResponseKind::Break,
                },
                r#""kind":"detection","pid":2,"eip":3221221376,"mode":"break"}"#,
            ),
            (
                E::Detection {
                    pid: 2,
                    eip: 1,
                    mode: ResponseKind::Observe,
                },
                r#""kind":"detection","pid":2,"eip":1,"mode":"observe"}"#,
            ),
            (
                E::Detection {
                    pid: 2,
                    eip: 2,
                    mode: ResponseKind::Forensics,
                },
                r#""kind":"detection","pid":2,"eip":2,"mode":"forensics"}"#,
            ),
            (
                E::ProcessExit { pid: 2, code: 139 },
                r#""kind":"process_exit","pid":2,"code":139}"#,
            ),
            (
                E::ProcessExit {
                    pid: 3,
                    code: i32::MIN,
                },
                r#""kind":"process_exit","pid":3,"code":-2147483648}"#,
            ),
        ];
        let kinds: std::collections::BTreeSet<&str> = cases.iter().map(|(e, _)| e.kind()).collect();
        assert_eq!(kinds.len(), 17, "one record of every kind: {kinds:?}");

        // Through the ring (seq from 0, cycles as recorded) ...
        let mut t = Tracer::new(mask::ALL, cases.len());
        for (i, (e, _)) in cases.iter().enumerate() {
            t.record(1000 * i as u64, *e);
        }
        let mut want = String::new();
        for (i, (_, body)) in cases.iter().enumerate() {
            want.push_str(&format!("{{\"seq\":{i},\"cycles\":{},{body}\n", 1000 * i));
        }
        assert_eq!(t.to_jsonl(), want);
        // ... and one record at a time, with stamps at the u64 extremes.
        for (e, body) in &cases {
            let r = TraceRecord {
                seq: u64::MAX,
                cycles: 0,
                event: *e,
            };
            assert_eq!(
                r.to_json(),
                format!("{{\"seq\":18446744073709551615,\"cycles\":0,{body}")
            );
        }
        assert_eq!(Tracer::new(mask::ALL, 4).to_jsonl(), "");
    }

    #[test]
    fn pid_filter_drops_before_seq_assignment() {
        let mut t = Tracer::new(mask::ALL, 16);
        t.set_pid_filter(Some(2));
        t.record(1, TraceEvent::ProcessExit { pid: 1, code: 0 });
        t.record(2, TraceEvent::SchedSwitch { from: 1, to: 2 });
        t.record(3, TraceEvent::ProcessExit { pid: 2, code: 0 });
        // Machine-layer events carry no pid and always pass.
        t.record(
            4,
            TraceEvent::TlbFlush {
                scope: FlushScope::All,
                vpn: 0,
            },
        );
        let snap = t.snapshot();
        assert_eq!(t.emitted(), 3);
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "filtered stream must stay gap-free");
        assert!(matches!(snap[0].event, TraceEvent::SchedSwitch { .. }));
        assert!(matches!(
            snap[1].event,
            TraceEvent::ProcessExit { pid: 2, .. }
        ));
    }

    #[test]
    fn restore_meta_resumes_sequence_counter() {
        let mut t = Tracer::restore_meta(mask::ALL, 8, 41, Some(7));
        assert_eq!(t.capacity(), 8);
        assert_eq!(t.pid_filter(), Some(7));
        assert!(t.snapshot().is_empty());
        t.record(5, TraceEvent::ProcessExit { pid: 7, code: 0 });
        assert_eq!(t.snapshot()[0].seq, 41);
        assert_eq!(t.emitted(), 42);
    }

    /// The canonical Algorithm 2 window: unrestrict, arm, fire, restrict.
    #[test]
    fn well_formed_single_step_window_passes() {
        let recs = [
            rec(
                0,
                10,
                TraceEvent::PteUnrestrict {
                    pid: 1,
                    vpn: 4,
                    reload: ReloadKind::Code,
                },
            ),
            rec(1, 12, TraceEvent::StepArm { pid: 1, vpn: 4 }),
            rec(
                2,
                14,
                TraceEvent::TlbFill {
                    tlb: TlbSide::Instruction,
                    vpn: 4,
                    pfn: 9,
                    set: 0,
                    way: 0,
                    class: MissClass::Cold,
                },
            ),
            rec(
                3,
                16,
                TraceEvent::StepFire {
                    pid: 1,
                    eip: 0x4004,
                    vpn: 4,
                },
            ),
            rec(4, 18, TraceEvent::PteRestrict { pid: 1, vpn: 4 }),
        ];
        assert!(check_order(&recs, false, true).is_empty());
    }

    #[test]
    fn unclosed_unrestrict_is_flagged() {
        let recs = [
            rec(
                0,
                10,
                TraceEvent::PteUnrestrict {
                    pid: 1,
                    vpn: 4,
                    reload: ReloadKind::Data,
                },
            ),
            rec(1, 20, TraceEvent::SchedSwitch { from: 1, to: 2 }),
        ];
        let v = check_order(&recs, false, true);
        assert!(v.iter().any(|s| s.contains("still unrestricted")), "{v:?}");
    }

    #[test]
    fn exit_with_armed_window_is_flagged() {
        let recs = [
            rec(
                0,
                10,
                TraceEvent::PteUnrestrict {
                    pid: 1,
                    vpn: 4,
                    reload: ReloadKind::Code,
                },
            ),
            rec(1, 12, TraceEvent::StepArm { pid: 1, vpn: 4 }),
            rec(2, 20, TraceEvent::ProcessExit { pid: 1, code: 0 }),
        ];
        let v = check_order(&recs, false, true);
        assert!(v.iter().any(|s| s.contains("armed window")), "{v:?}");
    }

    #[test]
    fn double_arm_is_flagged() {
        let recs = [
            rec(
                0,
                10,
                TraceEvent::PteUnrestrict {
                    pid: 1,
                    vpn: 4,
                    reload: ReloadKind::Code,
                },
            ),
            rec(1, 12, TraceEvent::StepArm { pid: 1, vpn: 4 }),
            rec(
                2,
                14,
                TraceEvent::PteUnrestrict {
                    pid: 1,
                    vpn: 5,
                    reload: ReloadKind::Code,
                },
            ),
            rec(3, 16, TraceEvent::StepArm { pid: 1, vpn: 5 }),
        ];
        let v = check_order(&recs, false, false);
        assert!(v.iter().any(|s| s.contains("second window")), "{v:?}");
    }

    #[test]
    fn cycle_regression_is_flagged() {
        let recs = [
            rec(0, 10, TraceEvent::SchedSwitch { from: 0, to: 1 }),
            rec(1, 9, TraceEvent::SchedSwitch { from: 1, to: 0 }),
        ];
        let v = check_order(&recs, false, false);
        assert!(v.iter().any(|s| s.contains("backwards")), "{v:?}");
    }

    #[test]
    fn truncated_trace_tolerates_unmatched_closes() {
        // A ring that wrapped mid-window: fire and restrict with no
        // recorded arm.
        let recs = [
            rec(
                100,
                50,
                TraceEvent::StepFire {
                    pid: 1,
                    eip: 0x4004,
                    vpn: 4,
                },
            ),
            rec(101, 52, TraceEvent::PteRestrict { pid: 1, vpn: 4 }),
        ];
        assert!(check_order(&recs, true, false).is_empty());
        let v = check_order(&recs, false, false);
        assert!(v.iter().any(|s| s.contains("no armed window")), "{v:?}");
    }

    #[test]
    fn complete_trace_flags_leftover_open_pages() {
        let recs = [rec(
            0,
            10,
            TraceEvent::PteUnrestrict {
                pid: 1,
                vpn: 4,
                reload: ReloadKind::Data,
            },
        )];
        let v = check_order(&recs, false, true);
        assert!(v.iter().any(|s| s.contains("end of trace")), "{v:?}");
        assert!(check_order(&recs, false, false).is_empty());
    }

    #[test]
    fn disarm_on_detection_then_restrict_passes() {
        let recs = [
            rec(
                0,
                10,
                TraceEvent::PteUnrestrict {
                    pid: 1,
                    vpn: 4,
                    reload: ReloadKind::Code,
                },
            ),
            rec(1, 12, TraceEvent::StepArm { pid: 1, vpn: 4 }),
            rec(
                2,
                14,
                TraceEvent::StepDisarm {
                    pid: 1,
                    vpn: 4,
                    cause: DisarmCause::Detection,
                },
            ),
            rec(3, 16, TraceEvent::PteRestrict { pid: 1, vpn: 4 }),
            rec(
                4,
                18,
                TraceEvent::Detection {
                    pid: 1,
                    eip: 0x4000,
                    mode: ResponseKind::Break,
                },
            ),
            rec(5, 30, TraceEvent::ProcessExit { pid: 1, code: 139 }),
        ];
        assert!(check_order(&recs, false, true).is_empty());
    }
}
