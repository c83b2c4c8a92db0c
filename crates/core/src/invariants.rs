//! Split-memory invariant checker.
//!
//! The fault-injection (chaos) harness perturbs the machine — spurious TLB
//! flushes, seeded evictions, forced preemption, OOM — and the protection
//! guarantees must survive every perturbation. This module states the
//! engine's structural invariants and checks them against a live kernel
//! *between* execution slices (never mid-instruction):
//!
//! 1. **Frame accounting** — every allocated physical frame is tracked by
//!    the kernel's refcounting [`FrameTable`](sm_kernel::addrspace::FrameTable);
//!    nothing leaks, nothing is double-freed.
//! 2. **At-rest restriction** — outside the Algorithm-1 single-step
//!    window, every split page's PTE is supervisor-only, carries the
//!    `SPLIT` bit and points at the *data* frame (paper §5.1: the
//!    pagetable at rest must never expose the code frame to data walks).
//! 3. **No D-TLB code leak** — the data-TLB of the running process never
//!    maps a split page to its *code* frame (that would let loads read
//!    the code half, defeating the desynchronisation).
//! 4. **Pristine filler** — the code half of a never-written data page
//!    still holds exactly the response-mode filler (zeros for break,
//!    [`SPLIT_FILL_OPCODE`] otherwise): nothing silently deposited
//!    executable bytes where injected code would run.
//! 5. **Code-frame liveness** — every code frame recorded in a split
//!    table is still tracked with a positive refcount.
//! 6. **Decode-cache coherence** — every *current* cached decode (one
//!    whose snapshot write-generation still matches its frame's) must
//!    equal a fresh decode of the frame's bytes; a mismatch means a write
//!    reached a frame without bumping its generation, i.e. the decoded
//!    instruction cache would execute stale bytes. Stale-generation
//!    entries are legal — the cache discards them lazily on next lookup.
//! 7. **Refcount lockstep** — the kernel's per-frame refcounts and the
//!    physical allocator's agree frame by frame; a skew means some share
//!    or release path updated one ledger but not the other.
//! 8. **No cross-process I-TLB leak** — no process's I-TLB path can
//!    reach another live process's split *data* frame (the multi-process
//!    restatement of the paper's desynchronisation guarantee: COW-shared
//!    data must never become fetchable through a neighbour's mappings).
//! 9. **Page-rights consistency** — a present PTE never carries both
//!    `SPLIT` and `NX` (the two mechanisms are mutually exclusive per
//!    page), never carries `SPLIT` without a split-table entry backing
//!    it, and `NX` never lands on a page of an executable region.
//! 10. **Superblock coherence** — every *current* cached superblock (one
//!     whose snapshot write-generation still matches its frame's) must
//!     re-decode, op by op, to what the frame's bytes decode to now; a
//!     mismatch means a write reached a spanned frame without bumping its
//!     generation, i.e. `Machine::run_block` would execute stale
//!     pre-decoded ops. Stale-generation tables are legal — the cache
//!     discards them lazily on next lookup (mirrors invariant #6 for the
//!     decode cache).
//!
//! [`check`] returns every violation found; [`run_with_checks`] interleaves
//! checking with execution so a whole workload can be swept.

use crate::engine::SplitMemEngine;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, RunExit};
use sm_kernel::process::{Pid, ProcState};
use sm_machine::exec::Op;
use sm_machine::isa::SPLIT_FILL_OPCODE;
use sm_machine::pte;
use std::fmt;

/// One invariant violation, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Allocator and frame-table disagree about how many frames are live.
    FrameAccounting {
        /// Frames the physical allocator says are handed out.
        allocated: u32,
        /// Frames the kernel's refcount table is tracking.
        tracked: usize,
    },
    /// A split page's at-rest PTE is user-visible, lost its `SPLIT` bit,
    /// or points somewhere other than the data frame.
    AtRestPte {
        /// Owning process.
        pid: Pid,
        /// Page base address.
        vaddr: u32,
        /// The offending raw PTE.
        entry: u32,
    },
    /// The running process's D-TLB maps a split page to its code frame.
    DtlbCodeLeak {
        /// Owning process.
        pid: Pid,
        /// Page base address.
        vaddr: u32,
    },
    /// A pristine filler code frame holds a byte that is not the filler.
    FillerTampered {
        /// Owning process.
        pid: Pid,
        /// Page base address.
        vaddr: u32,
        /// Offset of the first bad byte within the frame.
        offset: u32,
        /// The bad byte.
        byte: u8,
    },
    /// A split table references a code frame the frame table no longer
    /// tracks (dangling — a use-after-free in waiting).
    CodeFrameUntracked {
        /// Owning process.
        pid: Pid,
        /// Page base address.
        vaddr: u32,
    },
    /// A current decode-cache entry disagrees with the bytes actually in
    /// its frame: some write path mutated physical memory without bumping
    /// the frame's write-generation.
    DecodeCacheIncoherent {
        /// Physical frame holding the stale decode.
        pfn: u32,
        /// Byte offset of the instruction within the frame.
        offset: u32,
    },
    /// A current superblock op disagrees with a fresh decode of the bytes
    /// actually in its frame: some write path mutated physical memory
    /// without bumping the frame's write-generation, so the pipeline
    /// would execute stale pre-decoded ops.
    SuperblockIncoherent {
        /// Physical frame holding the stale block.
        pfn: u32,
        /// Byte offset of the mismatching op within the frame.
        offset: u32,
    },
    /// The kernel frame table and the machine allocator disagree on one
    /// frame's refcount — a share/release path updated one ledger only.
    RefcountSkew {
        /// Physical frame number.
        pfn: u32,
        /// Refcount according to the machine's allocator.
        machine_rc: u32,
        /// Refcount according to the kernel's frame table.
        kernel_rc: u32,
    },
    /// An I-TLB entry reachable by one process maps another live
    /// process's split *data* frame — injected bytes in a COW-shared page
    /// would be fetchable across the process boundary.
    ItlbCrossProcessLeak {
        /// Process whose fetches can consume the entry.
        pid: Pid,
        /// Process that owns the leaked data frame.
        other: Pid,
        /// Page base address of the I-TLB entry.
        vaddr: u32,
    },
    /// A present PTE carries both `SPLIT` and `NX`: the split engine and
    /// the execute-disable engine both claim the page.
    SplitNxConflict {
        /// Owning process.
        pid: Pid,
        /// Page base address.
        vaddr: u32,
    },
    /// A present PTE carries `NX` on a page inside an executable region —
    /// the program's own code would fault on fetch.
    NxMarkedExecutable {
        /// Owning process.
        pid: Pid,
        /// Page base address.
        vaddr: u32,
    },
    /// A present PTE carries the `SPLIT` bit but no split-table entry
    /// backs it: a fault on the page would hit the engine with no
    /// code/data pair to desynchronise.
    SplitBitOrphan {
        /// Owning process.
        pid: Pid,
        /// Page base address.
        vaddr: u32,
    },
    /// The kernel's cached live-process counter drifted from a full
    /// recount of the process table — some insert/exit/reap path forgot
    /// to maintain the batched accounting.
    LiveCountDrift {
        /// The O(1) cached counter.
        cached: usize,
        /// The recounted ground truth.
        actual: usize,
    },
    /// The trace-event stream violated the Algorithm-1/2 ordering rules
    /// (an unrestrict left open, an armed window that never fired, a
    /// cycle regression). Strictly stronger than the state snapshots
    /// above: those can miss a window that opened *and* closed improperly
    /// between two checks; the trace records the whole interleaving.
    TraceOrder(
        /// Human-readable description from [`sm_trace::check_order`].
        String,
    ),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::FrameAccounting { allocated, tracked } => write!(
                f,
                "frame accounting skew: allocator has {allocated} live, frame table tracks {tracked}"
            ),
            Violation::AtRestPte { pid, vaddr, entry } => write!(
                f,
                "{pid} split page {vaddr:#010x}: at-rest PTE {entry:#010x} is not restricted to the data frame"
            ),
            Violation::DtlbCodeLeak { pid, vaddr } => write!(
                f,
                "{pid} split page {vaddr:#010x}: D-TLB maps the code frame"
            ),
            Violation::FillerTampered {
                pid,
                vaddr,
                offset,
                byte,
            } => write!(
                f,
                "{pid} split page {vaddr:#010x}: filler byte at +{offset:#x} is {byte:#04x}"
            ),
            Violation::CodeFrameUntracked { pid, vaddr } => write!(
                f,
                "{pid} split page {vaddr:#010x}: code frame untracked by the frame table"
            ),
            Violation::DecodeCacheIncoherent { pfn, offset } => write!(
                f,
                "decode cache: frame {pfn} offset {offset:#05x}: cached decode disagrees with memory"
            ),
            Violation::SuperblockIncoherent { pfn, offset } => write!(
                f,
                "superblock cache: frame {pfn} offset {offset:#05x}: cached op disagrees with memory"
            ),
            Violation::RefcountSkew {
                pfn,
                machine_rc,
                kernel_rc,
            } => write!(
                f,
                "frame {pfn}: allocator refcount {machine_rc} != frame-table refcount {kernel_rc}"
            ),
            Violation::ItlbCrossProcessLeak { pid, other, vaddr } => write!(
                f,
                "{pid} I-TLB entry {vaddr:#010x} maps {other}'s split data frame"
            ),
            Violation::SplitNxConflict { pid, vaddr } => write!(
                f,
                "{pid} page {vaddr:#010x}: PTE carries both SPLIT and NX"
            ),
            Violation::NxMarkedExecutable { pid, vaddr } => write!(
                f,
                "{pid} page {vaddr:#010x}: NX set inside an executable region"
            ),
            Violation::SplitBitOrphan { pid, vaddr } => write!(
                f,
                "{pid} page {vaddr:#010x}: SPLIT bit set but no split-table entry"
            ),
            Violation::LiveCountDrift { cached, actual } => write!(
                f,
                "live-process counter drift: cached {cached}, recount {actual}"
            ),
            Violation::TraceOrder(msg) => write!(f, "trace order: {msg}"),
        }
    }
}

/// A pristine filler code frame under break mode (invariant #4).
static ZERO_FILLER: [u8; pte::PAGE_SIZE as usize] = [0x00; pte::PAGE_SIZE as usize];
/// A pristine filler code frame under the observe and forensics modes.
static OPCODE_FILLER: [u8; pte::PAGE_SIZE as usize] = [SPLIT_FILL_OPCODE; pte::PAGE_SIZE as usize];

/// Check every invariant against the kernel's current state. Call between
/// [`Kernel::run`] slices — the state is only meant to be consistent at
/// instruction boundaries. Returns all violations found (empty = healthy).
pub fn check(k: &Kernel) -> Vec<Violation> {
    let mut out = Vec::new();

    // 1. Frame accounting.
    let allocated = k.sys.machine.phys.allocator.allocated_count();
    let tracked = k.sys.frames.tracked();
    if allocated as usize != tracked {
        out.push(Violation::FrameAccounting { allocated, tracked });
    }

    // 11. Batched process accounting: the O(1) live counter the scheduler
    // and fleet drivers rely on must equal a full recount.
    let cached = k.sys.live_process_count();
    let actual = k.sys.recount_live();
    if cached != actual {
        out.push(Violation::LiveCountDrift { cached, actual });
    }

    // 7. Refcount lockstep, frame by frame. Together with #1 this covers
    // both directions: a frame live in the allocator but untracked by the
    // kernel skews the counts; a tracked frame whose counts merely differ
    // is caught here.
    for (pfn, kernel_rc) in k.sys.frames.iter() {
        let machine_rc = k.sys.machine.phys.allocator.refcount(pte::Frame(pfn));
        if machine_rc != kernel_rc {
            out.push(Violation::RefcountSkew {
                pfn,
                machine_rc,
                kernel_rc,
            });
        }
    }

    // 6. Decode-cache coherence (engine-independent): every cached op
    // equals the lowering of a fresh decode of the frame's current bytes.
    // Work is bounded: stale-generation tables are skipped by a single
    // version compare (never walking their entries), and at most `BUDGET`
    // entries are re-decoded per call, in ascending (pfn, offset) order —
    // so interleaved checking stays cheap even for code-heavy workloads.
    const BUDGET: u32 = 64;
    let m = &k.sys.machine;
    let mut budget = BUDGET;
    'frames: for (pfn, version, decodes) in m.decode_cache.iter_frames() {
        if version != m.phys.frame_version(pfn) {
            continue;
        }
        let bytes = m.phys.frame_bytes(pte::Frame(pfn));
        for (off, cached) in decodes {
            if budget == 0 {
                break 'frames;
            }
            budget -= 1;
            if Op::decode(&bytes[off as usize..]) != Ok(cached) {
                out.push(Violation::DecodeCacheIncoherent { pfn, offset: off });
            }
        }
    }

    // 10. Superblock coherence (engine-independent): same shape as #6 —
    // stale-generation tables are skipped by one version compare (they
    // are one lookup away from lazy invalidation), and at most `BUDGET`
    // ops are re-decoded per call. Each block's ops are validated in
    // entry order so the reported offset is the first stale byte the
    // pipeline would have executed.
    let mut budget = BUDGET;
    'sb_frames: for (pfn, version, blocks) in m.superblocks.iter_frames() {
        if blocks.is_empty() || version != m.phys.frame_version(pfn) {
            continue;
        }
        let bytes = m.phys.frame_bytes(pte::Frame(pfn));
        for (&entry, block) in blocks {
            let mut off = entry as usize;
            for op in block.ops.iter() {
                if budget == 0 {
                    break 'sb_frames;
                }
                budget -= 1;
                if off >= bytes.len() || Op::decode(&bytes[off..]) != Ok(*op) {
                    out.push(Violation::SuperblockIncoherent {
                        pfn,
                        offset: off as u32,
                    });
                    break;
                }
                off += op.encoded_len() as usize;
            }
        }
    }

    // 9. Page-rights consistency. Engine-independent (the NX baseline has
    // no split tables, so any SPLIT bit it leaves behind is an orphan):
    // walk every mapped page of every live process's regions.
    let split = k.engine.layer::<SplitMemEngine>();
    for (raw_pid, proc) in &k.sys.procs {
        if proc.state == ProcState::Zombie {
            continue;
        }
        let pid = Pid(*raw_pid);
        let table = split.and_then(|e| e.table(pid));
        for vma in &proc.aspace.vmas {
            let mut addr = pte::page_base(vma.start);
            while addr < vma.end {
                let entry = k.sys.pte_of(pid, addr);
                if pte::has(entry, pte::PRESENT) {
                    if pte::has(entry, pte::SPLIT) && pte::has(entry, pte::NX) {
                        out.push(Violation::SplitNxConflict { pid, vaddr: addr });
                    }
                    if pte::has(entry, pte::SPLIT)
                        && table.is_none_or(|t| t.get(pte::vpn(addr)).is_none())
                    {
                        out.push(Violation::SplitBitOrphan { pid, vaddr: addr });
                    }
                    if pte::has(entry, pte::NX) && vma.executable() {
                        out.push(Violation::NxMarkedExecutable { pid, vaddr: addr });
                    }
                }
                match addr.checked_add(pte::PAGE_SIZE) {
                    Some(next) => addr = next,
                    None => break,
                }
            }
        }
    }

    let Some(engine) = split else {
        return out;
    };
    let pristine = if engine.config.response == ResponseMode::Break {
        &ZERO_FILLER
    } else {
        &OPCODE_FILLER
    };

    // 8. No cross-process I-TLB leak. Attribute every I-TLB entry to the
    // process whose fetches can consume it — by ASID tag when tagging is
    // on, otherwise to the running process (untagged TLBs are flushed on
    // every address-space switch, so resident entries belong to it). An
    // entry mapping another live process's split data frame is a leak
    // unless the consumer's own split table maps that page to the same
    // (COW-shared) frame, or the page is mid-reload in the consumer's
    // Algorithm-1 single-step window.
    let mut data_owners: Vec<(u32, Pid)> = Vec::new();
    for (raw_pid, proc) in &k.sys.procs {
        if proc.state == ProcState::Zombie {
            continue;
        }
        let pid = Pid(*raw_pid);
        if let Some(t) = engine.table(pid) {
            for (_, sp) in t.iter() {
                data_owners.push((sp.data.0, pid));
            }
        }
    }
    for (_, entries) in k.sys.machine.itlb.iter_sets() {
        for e in entries {
            let consumer = if k.sys.config.asid_tlbs {
                Pid(e.asid as u32)
            } else {
                match k.sys.current {
                    Some(p) => p,
                    None => continue,
                }
            };
            let Some(proc) = k.sys.procs.get(&consumer.0) else {
                continue;
            };
            let Some(&(_, other)) = data_owners
                .iter()
                .find(|(pfn, owner)| *pfn == e.pfn && *owner != consumer)
            else {
                continue;
            };
            let base = e.vpn << pte::PAGE_SHIFT;
            let shared = engine
                .table(consumer)
                .and_then(|t| t.get(e.vpn))
                .is_some_and(|sp| sp.data.0 == e.pfn);
            if !shared && proc.pending_step_addr != Some(base) {
                out.push(Violation::ItlbCrossProcessLeak {
                    pid: consumer,
                    other,
                    vaddr: base,
                });
            }
        }
    }

    for (raw_pid, proc) in &k.sys.procs {
        if proc.state == ProcState::Zombie {
            continue;
        }
        let pid = Pid(*raw_pid);
        let Some(table) = engine.table(pid) else {
            continue;
        };
        // The one page allowed to be unrestricted: the page an Algorithm-1
        // single-step reload is currently traversing.
        let window = proc.pending_step_addr;
        // 3. No D-TLB code leak. Untagged TLBs hold only the running
        // process's address space; ASID-tagged TLBs keep every process's
        // entries resident, each attributed by its tag. The scan walks
        // the buffer's sets directly: a set-associative TLB can only hold
        // a page's translation in the set its low VPN bits select, so
        // visiting each set's resident entries covers exactly the state
        // the hardware would consult.
        if k.sys.config.asid_tlbs || k.sys.current == Some(pid) {
            for (_, entries) in k.sys.machine.dtlb.iter_sets() {
                for e in entries {
                    if k.sys.config.asid_tlbs && e.asid != *raw_pid as u16 {
                        continue;
                    }
                    let base = e.vpn << pte::PAGE_SHIFT;
                    if window == Some(base) {
                        continue;
                    }
                    if table
                        .get(e.vpn)
                        .and_then(|sp| sp.code)
                        .is_some_and(|code| code.0 == e.pfn)
                    {
                        out.push(Violation::DtlbCodeLeak { pid, vaddr: base });
                    }
                }
            }
        }
        for (vpn, sp) in table.iter() {
            let base = vpn << pte::PAGE_SHIFT;
            if window == Some(base) {
                continue;
            }
            // 2. At-rest restriction.
            let entry = k.sys.pte_of(pid, base);
            if pte::has(entry, pte::PRESENT)
                && (pte::has(entry, pte::USER)
                    || !pte::has(entry, pte::SPLIT)
                    || pte::frame(entry) != sp.data)
            {
                out.push(Violation::AtRestPte {
                    pid,
                    vaddr: base,
                    entry,
                });
            }
            let Some(code) = sp.code else {
                continue;
            };
            // 5. Code-frame liveness.
            if k.sys.frames.refcount(code) == 0 {
                out.push(Violation::CodeFrameUntracked { pid, vaddr: base });
            }
            // 4. Pristine filler: every byte of the frame, on every call,
            // as one comparison against a page of the fill byte; the first
            // bad byte is looked for only on a mismatch.
            if sp.filler {
                let buf = k.sys.machine.phys.frame_bytes(code);
                if buf != pristine {
                    if let Some(i) = buf.iter().zip(pristine).position(|(b, p)| b != p) {
                        out.push(Violation::FillerTampered {
                            pid,
                            vaddr: base,
                            offset: i as u32,
                            byte: buf[i],
                        });
                    }
                }
            }
        }
    }
    out
}

/// Check the tracer's event stream against the Algorithm-1/2 ordering
/// rules ([`sm_trace::check_order`]). Pass `complete = true` only when
/// the run has finished (every process exited), so leftover open windows
/// are flagged; between slices an armed single-step window is legal.
/// Returns empty when tracing is disabled or nothing was emitted. The
/// verdict comes from the fold the tracer keeps up as it records
/// ([`sm_trace::Tracer::check_order`]), so a call costs what the slice
/// emitted, not what the ring holds, wrapped or not.
pub fn check_trace(k: &Kernel, complete: bool) -> Vec<Violation> {
    let tracer = &k.sys.machine.tracer;
    let found = tracer.check_order(complete);
    debug_assert_eq!(
        found,
        sm_trace::check_order(&tracer.snapshot(), tracer.truncated(), complete),
        "the tracer's streaming order check disagrees with the reference fold"
    );
    found.into_iter().map(Violation::TraceOrder).collect()
}

/// Run the kernel in `stride`-cycle slices up to `max_cycles`, checking
/// every invariant between slices. Stops early (returning what was found)
/// as soon as a slice ends with violations, or when the kernel exits.
pub fn run_with_checks(k: &mut Kernel, max_cycles: u64, stride: u64) -> (RunExit, Vec<Violation>) {
    run_with_checks_hook(k, max_cycles, stride, |_, _| {})
}

/// [`run_with_checks`] with an observation hook called between slices.
///
/// The hook runs with `(kernel, slice_index)` only when the run is about to
/// *continue* — after a healthy slice that is neither the last nor a
/// violating one. The chaos harness checkpoints from this hook; the
/// placement guarantees every snapshot it takes strictly precedes the
/// failing slice, so a replay restored from the latest checkpoint always
/// re-executes the failure.
pub fn run_with_checks_hook(
    k: &mut Kernel,
    max_cycles: u64,
    stride: u64,
    mut hook: impl FnMut(&mut Kernel, u64),
) -> (RunExit, Vec<Violation>) {
    let stride = stride.max(1);
    let deadline = k.sys.machine.cycles.saturating_add(max_cycles);
    let mut slice: u64 = 0;
    loop {
        let remaining = deadline.saturating_sub(k.sys.machine.cycles);
        let exit = k.run(stride.min(remaining));
        let done = exit != RunExit::CyclesExhausted || remaining <= stride;
        let mut violations = check(k);
        violations.extend(check_trace(k, exit == RunExit::AllExited));
        if !violations.is_empty() || done {
            return (exit, violations);
        }
        hook(k, slice);
        slice += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SplitMemConfig, SplitMemEngine};
    use crate::split::SplitPolicy;
    use sm_kernel::kernel::Kernel;
    use sm_kernel::userlib::ProgramBuilder;
    use sm_machine::tlb::TlbEntry;

    fn split_kernel() -> Kernel {
        Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())))
    }

    fn demo_program(path: &str) -> sm_kernel::userlib::BuiltProgram {
        ProgramBuilder::new(path)
            .code("_start: mov eax, 7\n mov ebx, eax\n call exit")
            .data("v: .word 3")
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_run_has_no_violations() {
        let mut k = split_kernel();
        let prog = ProgramBuilder::new("/bin/ok")
            .code("_start: mov eax, 7\n mov ebx, eax\n call exit")
            .data("v: .word 3")
            .build()
            .unwrap();
        k.spawn(&prog.image).unwrap();
        let (exit, violations) = run_with_checks(&mut k, 10_000_000, 500);
        assert_eq!(exit, RunExit::AllExited);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn incoherent_decode_cache_entry_is_caught() {
        let mut k = split_kernel();
        let prog = ProgramBuilder::new("/bin/c")
            .code("_start: mov ebx, 0\n call exit")
            .build()
            .unwrap();
        k.spawn(&prog.image).unwrap();
        k.run(10_000_000);
        assert!(check(&k).is_empty());
        // Plant a cached decode that contradicts the frame's bytes at the
        // frame's *current* generation — the exact state a missing
        // version bump would produce.
        let bogus = Op::new(sm_machine::isa::Decoded::Invalid { opcode: 0xC3 }, 1);
        let version = k.sys.machine.phys.frame_version(3);
        k.sys.machine.decode_cache.insert(3, 0, version, bogus);
        assert!(check(&k)
            .iter()
            .any(|v| matches!(v, Violation::DecodeCacheIncoherent { pfn: 3, offset: 0 })));
    }

    #[test]
    fn incoherent_superblock_op_is_caught() {
        let mut k = split_kernel();
        let prog = ProgramBuilder::new("/bin/sb")
            .code("_start: mov ebx, 0\n call exit")
            .build()
            .unwrap();
        k.spawn(&prog.image).unwrap();
        k.run(10_000_000);
        assert!(check(&k).is_empty());
        // Plant a cached superblock whose op contradicts the frame's
        // bytes at the frame's *current* generation — the exact state a
        // missing version bump would produce.
        let bogus = Op::new(sm_machine::isa::Decoded::Invalid { opcode: 0xC3 }, 1);
        let version = k.sys.machine.phys.frame_version(3);
        k.sys.machine.superblocks.insert(3, 0, version, vec![bogus]);
        assert!(check(&k)
            .iter()
            .any(|v| matches!(v, Violation::SuperblockIncoherent { pfn: 3, offset: 0 })));
    }

    #[test]
    fn refcount_skew_is_caught() {
        let mut k = split_kernel();
        let prog = demo_program("/bin/rc");
        k.spawn(&prog.image).unwrap();
        assert!(check(&k).is_empty());
        let (pfn, _) = k.sys.frames.iter().next().expect("a tracked frame");
        // Bump the machine-side refcount behind the kernel's back.
        k.sys.machine.phys.allocator.retain(pte::Frame(pfn));
        assert!(check(&k)
            .iter()
            .any(|v| matches!(v, Violation::RefcountSkew { .. })));
    }

    #[test]
    fn split_nx_conflict_is_caught() {
        let mut k = split_kernel();
        let prog = demo_program("/bin/nxc");
        let pid = k.spawn(&prog.image).unwrap();
        let vpn = {
            let engine = k.engine.layer::<SplitMemEngine>().expect("split engine");
            engine
                .table(pid)
                .expect("table")
                .iter()
                .next()
                .expect("a split page")
                .0
        };
        let base = vpn << pte::PAGE_SHIFT;
        let entry = k.sys.pte_of(pid, base);
        k.sys.set_pte(pid, base, entry | pte::NX);
        assert!(check(&k)
            .iter()
            .any(|v| matches!(v, Violation::SplitNxConflict { .. })));
    }

    #[test]
    fn split_bit_orphan_is_caught() {
        // MixedOnly policy: the (non-mixed) stack page is present but not
        // split, so planting a SPLIT bit on it has no backing table entry.
        let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig {
            policy: SplitPolicy::MixedOnly,
            ..SplitMemConfig::default()
        })));
        let prog = demo_program("/bin/orph");
        let pid = k.spawn(&prog.image).unwrap();
        assert!(check(&k).is_empty());
        let top = k.sys.proc(pid).aspace.stack_high - sm_machine::pte::PAGE_SIZE;
        let entry = k.sys.pte_of(pid, top);
        assert!(pte::has(entry, pte::PRESENT) && !pte::has(entry, pte::SPLIT));
        k.sys.set_pte(pid, top, entry | pte::SPLIT);
        assert!(check(&k)
            .iter()
            .any(|v| matches!(v, Violation::SplitBitOrphan { .. })));
    }

    #[test]
    fn nx_on_executable_page_is_caught() {
        let mut k = split_kernel();
        let prog = demo_program("/bin/nxx");
        let pid = k.spawn(&prog.image).unwrap();
        let code_base = {
            let p = k.sys.proc(pid);
            let vma = p
                .aspace
                .vmas
                .iter()
                .find(|v| v.executable())
                .expect("code vma");
            pte::page_base(vma.start)
        };
        let entry = k.sys.pte_of(pid, code_base);
        k.sys.set_pte(pid, code_base, entry | pte::NX);
        assert!(check(&k)
            .iter()
            .any(|v| matches!(v, Violation::NxMarkedExecutable { .. })));
    }

    #[test]
    fn cross_process_itlb_leak_is_caught() {
        let mut k = split_kernel();
        let a = k.spawn(&demo_program("/bin/a").image).unwrap();
        let b = k.spawn(&demo_program("/bin/b").image).unwrap();
        k.sys.current = Some(a);
        assert!(check(&k).is_empty());
        let leaked = {
            let engine = k.engine.layer::<SplitMemEngine>().expect("split engine");
            engine
                .table(b)
                .expect("table")
                .iter()
                .next()
                .expect("a split page")
                .1
                .data
        };
        // Plant an I-TLB entry giving process A a fetch path into B's
        // data frame at a page A does not map itself.
        k.sys.machine.itlb.fill(TlbEntry {
            vpn: 0x300,
            pfn: leaked.0,
            asid: 0,
            user: true,
            writable: false,
            nx: false,
        });
        let violations = check(&k);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::ItlbCrossProcessLeak { pid, other, .. } if *pid == a && *other == b
            )),
            "violations: {violations:?}"
        );
    }

    /// Every protection's layers are found through any nesting of engine
    /// stacks, and the checker sees a split layer wherever it sits. A mixed
    /// code+data segment is split under every configuration with a split
    /// layer, so its page is checked as a split page (not reported as a
    /// `SPLIT` bit with no table behind it), and an at-rest PTE left
    /// user-visible is caught under each of them.
    #[test]
    fn stacked_engine_split_pages_are_checked() {
        use crate::nx::NxEngine;
        use crate::setup::Protection;
        use crate::shadow::ShadowStackEngine;
        use sm_kernel::kernel::KernelConfig;
        let prog = ProgramBuilder::new("/bin/jvm-like")
            .mixed_segment()
            .code(
                "_start:
                    mov eax, [counter]
                    add eax, 41
                    inc eax
                    mov [counter], eax
                    mov ebx, eax
                    call exit
                counter: .word 0",
            )
            .build()
            .unwrap();
        let mode = ResponseMode::Break;
        for protection in [
            Protection::Unprotected,
            Protection::SplitMem(mode),
            Protection::SplitMemCustom(SplitMemConfig::default()),
            Protection::Nx,
            Protection::NxResponse(ResponseMode::Observe),
            Protection::Combined(mode),
            Protection::CombinedFraction(0.25),
            Protection::ShadowStack(mode),
            Protection::ShadowCombined(mode),
        ] {
            let label = protection.label();
            // Which engines each configuration runs; a new variant must be
            // classified here.
            let (split, nx, shadow) = match protection {
                Protection::Unprotected => (false, false, false),
                Protection::SplitMem(_) | Protection::SplitMemCustom(_) => (true, false, false),
                Protection::Nx | Protection::NxResponse(_) => (false, true, false),
                Protection::Combined(_) | Protection::CombinedFraction(_) => (true, true, false),
                Protection::ShadowStack(_) => (false, false, true),
                Protection::ShadowCombined(_) => (true, true, true),
            };
            let mut k = protection.kernel(KernelConfig::default());
            assert_eq!(
                k.engine.layer::<SplitMemEngine>().is_some(),
                split,
                "{label}"
            );
            assert_eq!(k.engine.layer::<NxEngine>().is_some(), nx, "{label}");
            assert_eq!(
                k.engine.layer::<ShadowStackEngine>().is_some(),
                shadow,
                "{label}"
            );
            let pid = k.spawn(&prog.image).unwrap();
            let base = {
                let vma = k.sys.proc(pid).aspace.vmas.iter().find(|v| v.executable());
                pte::page_base(vma.expect("code vma").start)
            };
            let entry = k.sys.pte_of(pid, base);
            assert_eq!(
                pte::has(entry, pte::SPLIT),
                split,
                "{label}: the mixed page is split exactly when a split layer runs"
            );
            if split {
                k.sys.set_pte(pid, base, entry | pte::USER);
                let violations = check(&k);
                assert!(
                    violations
                        .iter()
                        .any(|v| matches!(v, Violation::AtRestPte { vaddr, .. } if *vaddr == base)),
                    "{label}: {violations:?}"
                );
                k.sys.set_pte(pid, base, entry);
            }

            let (exit, violations) = run_with_checks(&mut k, 10_000_000, 500);
            assert_eq!(exit, RunExit::AllExited, "{label}");
            assert!(violations.is_empty(), "{label}: {violations:?}");
            assert_eq!(k.sys.proc(pid).exit_code, Some(42), "{label}");
        }
    }

    #[test]
    fn tampered_filler_is_caught() {
        let mut k = split_kernel();
        let prog = ProgramBuilder::new("/bin/t")
            .code("_start: mov ebx, 0\n call exit")
            .data("v: .word 7")
            .build()
            .unwrap();
        let pid = k.spawn(&prog.image).unwrap();
        // Corrupt a filler code frame behind the engine's back.
        let engine = k.engine.layer::<SplitMemEngine>().expect("split engine");
        let (_, sp) = engine
            .table(pid)
            .expect("table")
            .iter()
            .find(|(_, sp)| sp.filler && sp.code.is_some())
            .expect("a filler page");
        let frame = sp.code.expect("code half");
        k.sys.machine.phys.write_u8(frame.base() + 5, 0x90);
        let violations = check(&k);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::FillerTampered {
                    offset: 5,
                    byte: 0x90,
                    ..
                }
            )),
            "violations: {violations:?}"
        );
    }
}
