//! The machine: CPU + physical memory + split TLBs + the hardware
//! pagetable walker, glued together with cycle accounting.

use crate::costs::CycleCosts;
use crate::cpu::{Access, Cpu, PageFaultInfo, Privilege};
use crate::decode_cache::DecodeCache;
use crate::exec;
use crate::phys::{OutOfFrames, PhysMemory};
use crate::pte::{self, Frame, PAGE_SIZE};
use crate::stats::MachineStats;
use crate::tlb::{Tlb, TlbEntry, TlbPreset};
use sm_trace::{mask, FlushScope, Tracer};

/// Construction-time machine parameters. The code caches have no switch:
/// no modelled counter depends on them (see [`Machine::step`]).
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Number of 4 KiB physical frames (default 16384 = 64 MiB).
    pub phys_frames: u32,
    /// Geometry of the instruction/data TLB pair. The default is a pair of
    /// 64-entry fully-associative buffers (the pre-set-associative model);
    /// [`MachineConfig::pentium3`] selects the paper's testbed hardware.
    pub tlb: TlbPreset,
    /// Whether the execute-disable bit is honoured by the MMU. `false`
    /// models the legacy x86 hardware the paper's stand-alone mode targets;
    /// `true` models the "recent hardware" of its combined mode (§6.2).
    pub nx_enabled: bool,
    /// Software-loaded TLBs (paper §4.7, the SPARC-style port): the
    /// hardware never walks the pagetable — every TLB miss raises a fault
    /// and the kernel fills the TLB explicitly via
    /// [`Machine::fill_itlb`]/[`Machine::fill_dtlb`]. Split memory on such
    /// an architecture needs "no complex data or instruction TLB loading
    /// techniques".
    pub software_tlb: bool,
    /// Machine-layer trace mask ([`sm_trace::mask`] bits). 0 (the default)
    /// disables tracing entirely; the kernel ORs its own layers in at
    /// construction. Tracing is transparent to the modeled machine:
    /// identical stats, cycles and TLB behaviour either way.
    pub trace: u32,
    /// Ring capacity of the tracer when any layer is enabled.
    pub trace_capacity: usize,
    /// Report control-flow transfers (`call`/`ret`/indirect jumps) to the
    /// embedding kernel as [`Trap::ControlFlow`] events after the
    /// instruction retires. Models the CET-style shadow-stack/indirect-
    /// branch-tracking hardware assist; off for every engine that does not
    /// ask for it, so the plain machine pays nothing. Never serialized:
    /// snapshots re-arm it from the restored engine, keeping the dump
    /// format and golden dumps unchanged.
    pub cfi_events: bool,
    /// Cycle cost model.
    pub costs: CycleCosts,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            phys_frames: 16384,
            tlb: TlbPreset::default(),
            nx_enabled: false,
            software_tlb: false,
            trace: 0,
            trace_capacity: Tracer::DEFAULT_CAPACITY,
            cfi_events: false,
            costs: CycleCosts::default(),
        }
    }
}

impl MachineConfig {
    /// The paper's testbed (§6): Pentium III split TLBs — 32-entry 4-way
    /// instruction, 64-entry 4-way data, per-set LRU.
    pub fn pentium3() -> MachineConfig {
        MachineConfig {
            tlb: TlbPreset::pentium3(),
            ..MachineConfig::default()
        }
    }
}

/// Kind of control-flow transfer reported by a [`Trap::ControlFlow`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfiKind {
    /// Direct `call rel32`; the return address was pushed.
    Call,
    /// Indirect `call r/m32`; the return address was pushed.
    IndirectCall,
    /// `ret`; the return address was popped.
    Ret,
    /// Indirect `jmp r/m32` (direct jumps are not reported — their targets
    /// are fixed at assembly time and carry no hijack surface).
    IndirectJmp,
}

/// A retired control-flow transfer, reported when
/// [`MachineConfig::cfi_events`] is set. `eip` already points at `target`;
/// the kernel's protection engine decides whether the transfer was
/// legitimate (shadow-stack match, CFI target check) after the fact, the
/// way CET raises `#CP` on the retiring `ret`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfiEvent {
    /// What kind of transfer retired.
    pub kind: CfiKind,
    /// Transfer destination (the new `eip`).
    pub target: u32,
    /// For calls: the return address that was pushed. For `ret`: the
    /// address that was popped (== `target`). For jumps: 0.
    pub link: u32,
}

/// Result of executing one instruction: either it retired normally or it
/// trapped. Traps are returned to the embedding kernel rather than vectored
/// through a simulated IDT — the simulated kernel is host code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Instruction retired with no event.
    None,
    /// `int n` executed; `eip` already points at the next instruction.
    Syscall {
        /// Interrupt vector (0x80 for system calls).
        vector: u8,
    },
    /// Page fault; registers are rolled back to instruction start and CR2
    /// holds the faulting address.
    PageFault(PageFaultInfo),
    /// Invalid opcode (`#UD`); registers are rolled back, `eip` points at
    /// the offending instruction.
    InvalidOpcode {
        /// Address of the undecodable instruction.
        eip: u32,
        /// First offending opcode byte.
        opcode: u8,
    },
    /// Single-step debug trap (`#DB`): the trap flag was set when the
    /// just-retired instruction began.
    DebugStep,
    /// Divide error (`#DE`); registers rolled back.
    DivideError,
    /// A control-flow transfer retired while [`MachineConfig::cfi_events`]
    /// was set; `eip` already points at the transfer target.
    ControlFlow(CfiEvent),
    /// `hlt` executed.
    Halt,
}

impl Trap {
    /// True for [`Trap::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Trap::None)
    }
}

/// Bytes from `vaddr` to the end of its page, capped at `left`.
fn page_run(vaddr: u32, left: usize) -> usize {
    ((PAGE_SIZE - pte::page_offset(vaddr)) as usize).min(left)
}

/// Which TLB an access kind goes through, in trace-event terms.
fn side_of(access: Access) -> sm_trace::TlbSide {
    match access {
        Access::Fetch => sm_trace::TlbSide::Instruction,
        _ => sm_trace::TlbSide::Data,
    }
}

/// The simulated machine.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Machine {
    /// CPU registers.
    pub cpu: Cpu,
    /// Physical memory and its frame allocator.
    pub phys: PhysMemory,
    /// Instruction TLB (filled only by instruction fetches).
    pub itlb: Tlb,
    /// Data TLB (filled by loads, stores and kernel touches).
    pub dtlb: Tlb,
    /// Configuration (cost model is read from here on every event).
    pub config: MachineConfig,
    /// Simulated cycle counter; every hardware and (via
    /// [`Machine::charge`]) kernel event advances it.
    pub cycles: u64,
    /// Event counters.
    pub stats: MachineStats,
    /// Decoded-instruction cache backing [`Machine::step`]. Host state
    /// only: never serialized, rebuilt cold after a snapshot restore, and
    /// invisible to the modeled machine (see [`Machine::step`]).
    pub decode_cache: DecodeCache,
    /// Superblock cache backing [`Machine::run_block`] (the pipeline
    /// fast path). Host state only, like the decode cache, and untouched
    /// by machines driven purely through [`Machine::step`].
    pub superblocks: crate::superblock::SuperblockCache,
    /// Flight recorder. Owned by the machine so every layer — hardware,
    /// kernel, engine — stamps events with the one simulated-cycle clock
    /// ([`Machine::cycles`]) and shares one ring.
    pub tracer: Tracer,
    pub(crate) pending_singlestep: bool,
    /// Control-flow event set by the just-executed instruction when
    /// [`MachineConfig::cfi_events`] is on; drained by
    /// [`Machine::step`]/[`Machine::run_block`] within the same retire, so
    /// it is never live across calls and never serialized.
    pub(crate) pending_cfi: Option<CfiEvent>,
}

impl Machine {
    /// Build a machine with zeroed memory and empty TLBs.
    pub fn new(config: MachineConfig) -> Machine {
        let capacity = if config.trace == 0 {
            0
        } else {
            config.trace_capacity
        };
        Machine::with_tracer(config, Tracer::new(config.trace, capacity))
    }

    /// [`Machine::new`] around a given tracer. The snapshot codec passes
    /// a disabled one, which allocates no ring, and installs the restored
    /// tracer once its metadata has been read.
    pub(crate) fn with_tracer(config: MachineConfig, tracer: Tracer) -> Machine {
        Machine {
            cpu: Cpu::default(),
            phys: PhysMemory::new(config.phys_frames),
            itlb: Tlb::with_geometry(config.tlb.itlb),
            dtlb: Tlb::with_geometry(config.tlb.dtlb),
            decode_cache: DecodeCache::new(),
            superblocks: crate::superblock::SuperblockCache::new(),
            tracer,
            config,
            cycles: 0,
            stats: MachineStats::default(),
            pending_singlestep: false,
            pending_cfi: None,
        }
    }

    /// Record a trace event at the current cycle if `layer` is enabled;
    /// the closure is not called otherwise. The single funnel every layer
    /// uses keeps trace stamps and kernel `EventLog` stamps on the same
    /// clock.
    #[inline(always)]
    pub fn trace(&mut self, layer: u32, f: impl FnOnce() -> sm_trace::TraceEvent) {
        let cycles = self.cycles;
        self.tracer.emit(layer, cycles, f);
    }

    /// Enable additional trace layers (the kernel ORs its configured mask
    /// in at construction), sizing the ring from
    /// [`MachineConfig::trace_capacity`].
    pub fn enable_trace(&mut self, layers: u32) {
        let cap = self.config.trace_capacity;
        self.tracer.enable(layers, cap);
    }

    /// Advance the cycle counter (used by the kernel to charge software
    /// handler costs from the same [`CycleCosts`] table).
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Allocate a physical frame.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when physical memory is exhausted.
    pub fn alloc_frame(&mut self) -> Result<Frame, OutOfFrames> {
        self.phys.allocator.alloc()
    }

    /// Allocate a zeroed physical frame.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when physical memory is exhausted.
    pub fn alloc_zeroed_frame(&mut self) -> Result<Frame, OutOfFrames> {
        let f = self.phys.allocator.alloc()?;
        self.phys.zero_frame(f);
        Ok(f)
    }

    /// Free a physical frame.
    pub fn free_frame(&mut self, f: Frame) {
        self.phys.allocator.free(f);
    }

    /// Load CR3 with a new page-directory frame. As on x86, this flushes
    /// both TLBs — the dominant overhead source for split memory under
    /// context-switch-heavy loads (paper §4.6).
    pub fn set_cr3(&mut self, dir: Frame) {
        self.cpu.regs.cr3 = dir.0;
        self.itlb.flush_all();
        self.dtlb.flush_all();
        self.stats.cr3_loads += 1;
        self.charge(self.config.costs.cr3_load);
        self.trace(mask::TLB, || sm_trace::TraceEvent::TlbFlush {
            scope: FlushScope::All,
            vpn: 0,
        });
    }

    /// Load CR3 with a new page-directory frame *without* flushing the
    /// TLBs, retagging both with `asid` instead (tagged-TLB context
    /// switch). Entries belonging to other address spaces stay resident
    /// but unreachable; the cost model still charges a CR3 load, but the
    /// switched-to process keeps its warm translations.
    pub fn set_cr3_tagged(&mut self, dir: Frame, asid: u16) {
        self.cpu.regs.cr3 = dir.0;
        self.itlb.set_asid(asid);
        self.dtlb.set_asid(asid);
        self.stats.cr3_loads += 1;
        self.charge(self.config.costs.cr3_load);
    }

    /// Current page-directory frame.
    pub fn cr3(&self) -> Frame {
        Frame(self.cpu.regs.cr3)
    }

    /// Invalidate any TLB entries for the page containing `vaddr`
    /// (`invlpg`).
    pub fn invlpg(&mut self, vaddr: u32) {
        let vpn = pte::vpn(vaddr);
        self.itlb.flush_page(vpn);
        self.dtlb.flush_page(vpn);
        self.stats.invlpgs += 1;
        self.charge(self.config.costs.invlpg);
        self.trace(mask::TLB, || sm_trace::TraceEvent::TlbFlush {
            scope: FlushScope::Page,
            vpn,
        });
    }

    /// Flush both TLBs without touching CR3 (used by tests and by the
    /// kernel when it needs a full shootdown).
    pub fn flush_tlbs(&mut self) {
        self.itlb.flush_all();
        self.dtlb.flush_all();
        self.trace(mask::TLB, || sm_trace::TraceEvent::TlbFlush {
            scope: FlushScope::All,
            vpn: 0,
        });
    }

    /// True if the just-completed `int` instruction had the trap flag set,
    /// meaning a `#DB` is architecturally due after the syscall is serviced.
    /// Reading the flag clears it.
    pub fn take_pending_singlestep(&mut self) -> bool {
        std::mem::take(&mut self.pending_singlestep)
    }

    /// Translate a virtual address, consulting the access-appropriate TLB
    /// first and walking the pagetable on a miss (filling that TLB).
    ///
    /// This is the heart of the simulation: rights are checked against the
    /// *TLB entry* on a hit and against the *pagetable* only on a walk, so a
    /// TLB entry filled under one pagetable state remains authoritative
    /// after the pagetable changes — exactly the desynchronisation window
    /// split memory exploits.
    ///
    /// # Errors
    ///
    /// Returns [`PageFaultInfo`] (without setting CR2; the instruction path
    /// does that) on a missing mapping or rights violation.
    #[inline]
    pub fn translate(
        &mut self,
        vaddr: u32,
        access: Access,
        privilege: Privilege,
    ) -> Result<u32, PageFaultInfo> {
        // Repeat-hit fast path (data side only): when the D-TLB proves the
        // last lookup hit or filled this very page under the active ASID,
        // the full hit path's MRU rotation and shadow touch are both
        // no-ops, so `hits += 1` replays it exactly. A rights mismatch
        // falls through to the full path, which owns the hit accounting
        // and the drop-and-rewalk protocol. The instruction side keeps the
        // full path: `run_block` already replays fetch hits itself, and
        // the per-step fetch is the slow path by definition. The fast path
        // lives in this thin inlined wrapper so a repeat hit never pays
        // the full walk routine's frame.
        if access != Access::Fetch {
            let vpn = pte::vpn(vaddr);
            if let Some(e) = self.dtlb.replay_peek(vpn) {
                if Self::check_entry_rights(&self.config, &e, vaddr, access, privilege).is_ok() {
                    self.dtlb.stats.hits += 1;
                    return Ok((e.pfn << pte::PAGE_SHIFT) | pte::page_offset(vaddr));
                }
            }
        }
        self.translate_full(vaddr, access, privilege)
    }

    fn translate_full(
        &mut self,
        vaddr: u32,
        access: Access,
        privilege: Privilege,
    ) -> Result<u32, PageFaultInfo> {
        let vpn = pte::vpn(vaddr);
        let tlb = match access {
            Access::Fetch => &mut self.itlb,
            _ => &mut self.dtlb,
        };
        if let Some(e) = tlb.lookup(vpn) {
            if Self::check_entry_rights(&self.config, &e, vaddr, access, privilege).is_ok() {
                return Ok((e.pfn << pte::PAGE_SHIFT) | pte::page_offset(vaddr));
            }
            // A rights violation on a cached entry: the hardware drops the
            // entry and re-walks the pagetable before deciding to fault —
            // TLB entries may be *stale-permissive* (the property split
            // memory exploits) but are never authoritative for denial.
            tlb.drop_entry(vpn);
            let set = tlb.geometry().set_of(vpn) as u32;
            self.trace(mask::TLB, || sm_trace::TraceEvent::TlbEvict {
                tlb: side_of(access),
                vpn,
                set,
                cause: sm_trace::EvictCause::Drop,
            });
        }
        if self.config.software_tlb {
            // Software-loaded TLBs: the hardware raises a miss fault and
            // the kernel is responsible for the fill (paper §4.7).
            return Err(PageFaultInfo {
                addr: vaddr,
                access,
                privilege,
                present: false,
            });
        }
        // TLB miss: hardware pagetable walk.
        self.stats.walks += 1;
        self.charge(self.config.costs.tlb_walk);
        let not_present = |present| PageFaultInfo {
            addr: vaddr,
            access,
            privilege,
            present,
        };
        let dir_base = Frame(self.cpu.regs.cr3).base();
        let pde_addr = dir_base + pte::dir_index(vaddr) * 4;
        let pde = self.phys.read_u32(pde_addr);
        if !pte::has(pde, pte::PRESENT) {
            return Err(not_present(false));
        }
        let pte_addr = pte::frame(pde).base() + pte::table_index(vaddr) * 4;
        let entry = self.phys.read_u32(pte_addr);
        if !pte::has(entry, pte::PRESENT) {
            return Err(not_present(false));
        }
        let e = TlbEntry {
            vpn,
            pfn: pte::frame(entry).0,
            asid: 0, // fill() restamps with the active ASID
            user: pte::has(pde, pte::USER) && pte::has(entry, pte::USER),
            writable: pte::has(pde, pte::WRITABLE) && pte::has(entry, pte::WRITABLE),
            nx: pte::has(entry, pte::NX),
        };
        Self::check_entry_rights(&self.config, &e, vaddr, access, privilege)?;
        // Walk succeeded: update accessed/dirty bits and fill the TLB.
        self.phys.write_u32(pde_addr, pde | pte::ACCESSED);
        let mut new_entry = entry | pte::ACCESSED;
        if access == Access::Write {
            new_entry |= pte::DIRTY;
        }
        self.phys.write_u32(pte_addr, new_entry);
        let paddr = (e.pfn << pte::PAGE_SHIFT) | pte::page_offset(vaddr);
        let tlb = match access {
            Access::Fetch => &mut self.itlb,
            _ => &mut self.dtlb,
        };
        let outcome = tlb.fill(e);
        if self.tracer.wants(mask::TLB) {
            let class = tlb.last_miss_class();
            let side = side_of(access);
            if let Some(victim) = outcome.victim {
                self.trace(mask::TLB, || sm_trace::TraceEvent::TlbEvict {
                    tlb: side,
                    vpn: victim.vpn,
                    set: outcome.set,
                    cause: sm_trace::EvictCause::Capacity,
                });
            }
            self.trace(mask::TLB, || sm_trace::TraceEvent::TlbFill {
                tlb: side,
                vpn,
                pfn: e.pfn,
                set: outcome.set,
                way: outcome.way,
                class,
            });
        }
        Ok(paddr)
    }

    pub(crate) fn check_entry_rights(
        config: &MachineConfig,
        e: &TlbEntry,
        vaddr: u32,
        access: Access,
        privilege: Privilege,
    ) -> Result<(), PageFaultInfo> {
        let violation = PageFaultInfo {
            addr: vaddr,
            access,
            privilege,
            present: true,
        };
        if privilege == Privilege::User {
            if !e.user {
                return Err(violation);
            }
            if access == Access::Write && !e.writable {
                return Err(violation);
            }
        }
        // Execute-disable applies regardless of privilege; the simulated
        // kernel never fetches, so in practice this guards user fetches.
        if access == Access::Fetch && e.nx && config.nx_enabled {
            return Err(violation);
        }
        Ok(())
    }

    /// Kernel-managed instruction-TLB fill (software-TLB mode, §4.7).
    pub fn fill_itlb(&mut self, entry: TlbEntry) {
        let outcome = self.itlb.fill(entry);
        let class = self.itlb.last_miss_class();
        self.trace_soft_fill(sm_trace::TlbSide::Instruction, entry, outcome, class);
    }

    /// Kernel-managed data-TLB fill (software-TLB mode, §4.7).
    pub fn fill_dtlb(&mut self, entry: TlbEntry) {
        let outcome = self.dtlb.fill(entry);
        let class = self.dtlb.last_miss_class();
        self.trace_soft_fill(sm_trace::TlbSide::Data, entry, outcome, class);
    }

    fn trace_soft_fill(
        &mut self,
        side: sm_trace::TlbSide,
        entry: TlbEntry,
        outcome: crate::tlb::FillOutcome,
        class: sm_trace::MissClass,
    ) {
        if let Some(victim) = outcome.victim {
            self.trace(mask::TLB, || sm_trace::TraceEvent::TlbEvict {
                tlb: side,
                vpn: victim.vpn,
                set: outcome.set,
                cause: sm_trace::EvictCause::Capacity,
            });
        }
        self.trace(mask::TLB, || sm_trace::TraceEvent::TlbFill {
            tlb: side,
            vpn: entry.vpn,
            pfn: entry.pfn,
            set: outcome.set,
            way: outcome.way,
            class,
        });
    }

    /// Read the PTE for `vaddr` under the current CR3 directly from
    /// physical memory, bypassing the TLBs (how the kernel inspects
    /// pagetables). Returns `None` if the directory entry is not present.
    pub fn read_pte(&self, vaddr: u32) -> Option<u32> {
        let pde = self
            .phys
            .read_u32(Frame(self.cpu.regs.cr3).base() + pte::dir_index(vaddr) * 4);
        if !pte::has(pde, pte::PRESENT) {
            return None;
        }
        Some(
            self.phys
                .read_u32(pte::frame(pde).base() + pte::table_index(vaddr) * 4),
        )
    }

    // ---- data accessors ---------------------------------------------------

    /// Read one byte with the given privilege (data access: fills D-TLB).
    ///
    /// # Errors
    ///
    /// Page fault per [`Machine::translate`].
    #[inline(always)]
    pub fn read_u8(&mut self, vaddr: u32, privilege: Privilege) -> Result<u8, PageFaultInfo> {
        let p = self.translate(vaddr, Access::Read, privilege)?;
        Ok(self.phys.read_u8(p))
    }

    /// Write one byte with the given privilege.
    ///
    /// # Errors
    ///
    /// Page fault per [`Machine::translate`].
    #[inline(always)]
    pub fn write_u8(
        &mut self,
        vaddr: u32,
        v: u8,
        privilege: Privilege,
    ) -> Result<(), PageFaultInfo> {
        let p = self.translate(vaddr, Access::Write, privilege)?;
        self.phys.write_u8(p, v);
        Ok(())
    }

    /// Read a little-endian u32; unaligned and page-crossing reads are
    /// legal (as on x86).
    ///
    /// # Errors
    ///
    /// Page fault per [`Machine::translate`].
    #[inline(always)]
    pub fn read_u32(&mut self, vaddr: u32, privilege: Privilege) -> Result<u32, PageFaultInfo> {
        if pte::page_offset(vaddr) <= PAGE_SIZE - 4 {
            let p = self.translate(vaddr, Access::Read, privilege)?;
            return Ok(self.phys.read_u32(p));
        }
        self.read_u32_crossing(vaddr, privilege)
    }

    /// [`Machine::read_u32`] of a dword that crosses a page boundary: a
    /// byte at a time, out of line so the common case inlines small.
    #[cold]
    #[inline(never)]
    fn read_u32_crossing(
        &mut self,
        vaddr: u32,
        privilege: Privilege,
    ) -> Result<u32, PageFaultInfo> {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            let p = self.translate(vaddr.wrapping_add(i as u32), Access::Read, privilege)?;
            *b = self.phys.read_u8(p);
        }
        Ok(u32::from_le_bytes(bytes))
    }

    /// Write a little-endian u32. Page-crossing writes pre-translate both
    /// pages before mutating memory, so a faulting store changes nothing
    /// (precise exceptions).
    ///
    /// # Errors
    ///
    /// Page fault per [`Machine::translate`].
    #[inline(always)]
    pub fn write_u32(
        &mut self,
        vaddr: u32,
        v: u32,
        privilege: Privilege,
    ) -> Result<(), PageFaultInfo> {
        if pte::page_offset(vaddr) <= PAGE_SIZE - 4 {
            let p = self.translate(vaddr, Access::Write, privilege)?;
            self.phys.write_u32(p, v);
            return Ok(());
        }
        self.write_u32_crossing(vaddr, v, privilege)
    }

    /// [`Machine::write_u32`] of a dword that crosses a page boundary:
    /// both pages are translated before any byte is stored.
    #[cold]
    #[inline(never)]
    fn write_u32_crossing(
        &mut self,
        vaddr: u32,
        v: u32,
        privilege: Privilege,
    ) -> Result<(), PageFaultInfo> {
        let mut paddrs = [0u32; 4];
        for (i, pa) in paddrs.iter_mut().enumerate() {
            *pa = self.translate(vaddr.wrapping_add(i as u32), Access::Write, privilege)?;
        }
        for (i, b) in v.to_le_bytes().iter().enumerate() {
            self.phys.write_u8(paddrs[i], *b);
        }
        Ok(())
    }

    /// Kernel-privilege byte read. This is the primitive behind the paper's
    /// D-TLB load: it performs a *data* access that fills the D-TLB with a
    /// rights snapshot of the current PTE (Algorithm 1 line 9,
    /// `read_byte(addr)`).
    ///
    /// # Errors
    ///
    /// Page fault if the page is unmapped.
    pub fn kernel_read_u8(&mut self, vaddr: u32) -> Result<u8, PageFaultInfo> {
        self.read_u8(vaddr, Privilege::Kernel)
    }

    /// Kernel-privilege translation of a `n`-byte run (`n >= 1`) that lies
    /// inside one page, with the same TLB effects as translating each of
    /// its bytes in turn. The first byte is translated for real: it walks,
    /// fills, faults and traces as any access does. Once it succeeds, the
    /// D-TLB's repeat-hit memo (`Tlb::last`) holds the page, and kernel
    /// privilege passes every rights check on a data access, so each later
    /// byte would take [`Machine::translate`]'s repeat-hit path: exactly
    /// `hits += 1`, no cycle, no trace event. Those `n - 1` hits are
    /// replayed as one add; nothing between them could disturb the TLB,
    /// since the copy itself only moves bytes in physical memory.
    fn translate_run(
        &mut self,
        vaddr: u32,
        n: usize,
        access: Access,
    ) -> Result<u32, PageFaultInfo> {
        let p = self.translate(vaddr, access, Privilege::Kernel)?;
        debug_assert!(self.dtlb.replay_peek(pte::vpn(vaddr)).is_some());
        self.dtlb.stats.hits += n as u64 - 1;
        Ok(p)
    }

    /// Copy bytes from user space at kernel privilege, charging per-byte
    /// copy cost. Moves one page run at a time, with one real D-TLB
    /// translation per page (see `translate_run`). The output grows with
    /// the bytes actually copied, so a huge `len` over unmapped memory
    /// allocates nothing large.
    ///
    /// # Errors
    ///
    /// Page fault on the first unmapped byte (partially-read data is
    /// discarded).
    pub fn copy_from_user(&mut self, vaddr: u32, len: u32) -> Result<Vec<u8>, PageFaultInfo> {
        let mut out = Vec::new();
        let mut done = 0;
        while done < len as usize {
            let addr = vaddr.wrapping_add(done as u32);
            let n = page_run(addr, len as usize - done);
            let p = self.translate_run(addr, n, Access::Read)?;
            out.extend_from_slice(self.phys.frame_slice(p, n));
            done += n;
        }
        self.charge(self.config.costs.copy_byte * len as u64);
        Ok(out)
    }

    /// Copy bytes into user space at kernel privilege, charging per-byte
    /// copy cost. Moves one page run at a time, with one real D-TLB
    /// translation per page (see `translate_run`), each stored with
    /// [`PhysMemory::write_bytewise`] so frame generations advance per
    /// byte.
    ///
    /// # Errors
    ///
    /// Page fault on the first unmapped byte (earlier bytes stay written,
    /// as with a faulting `copy_to_user`).
    pub fn copy_to_user(&mut self, vaddr: u32, data: &[u8]) -> Result<(), PageFaultInfo> {
        let mut done = 0;
        while done < data.len() {
            let addr = vaddr.wrapping_add(done as u32);
            let n = page_run(addr, data.len() - done);
            let p = self.translate_run(addr, n, Access::Write)?;
            self.phys.write_bytewise(p, &data[done..done + n]);
            done += n;
        }
        self.charge(self.config.costs.copy_byte * data.len() as u64);
        Ok(())
    }

    /// Read a NUL-terminated string from user space (kernel privilege),
    /// capped at `max` bytes. Scans one page run at a time; a run's
    /// translation covers the bytes up to and including the NUL, the
    /// last byte the string reads.
    ///
    /// # Errors
    ///
    /// Page fault if the string runs off mapped memory.
    pub fn read_cstr(&mut self, vaddr: u32, max: u32) -> Result<Vec<u8>, PageFaultInfo> {
        let mut out = Vec::new();
        let mut done = 0;
        while done < max as usize {
            let addr = vaddr.wrapping_add(done as u32);
            let n = page_run(addr, max as usize - done);
            let p = self.translate(addr, Access::Read, Privilege::Kernel)?;
            let run = self.phys.frame_slice(p, n);
            let nul = run.iter().position(|&b| b == 0);
            let read = nul.map_or(n, |i| i + 1);
            self.dtlb.stats.hits += read as u64 - 1;
            out.extend_from_slice(&run[..nul.unwrap_or(n)]);
            if nul.is_some() {
                break;
            }
            done += n;
        }
        self.charge(self.config.costs.copy_byte * out.len() as u64);
        Ok(out)
    }

    // ---- execution ---------------------------------------------------------

    /// Execute one instruction at `eip`.
    ///
    /// Faults are precise: on [`Trap::PageFault`], [`Trap::InvalidOpcode`]
    /// and [`Trap::DivideError`] the register file is rolled back to the
    /// state at instruction start (CR2 is updated for page faults). On
    /// [`Trap::Syscall`] and [`Trap::DebugStep`] the instruction has
    /// retired and `eip` points at the next instruction.
    ///
    /// Instruction fetch makes one I-TLB lookup per page the encoding
    /// touches: the page of its first byte, plus the next page for an
    /// instruction that crosses into it. The decode cache, the
    /// byte-by-byte decoder and [`Machine::run_block`] all follow this
    /// rule, so no modelled counter depends on host cache warmth. (Another
    /// lookup of the page just translated could only bump
    /// [`TlbStats::hits`](crate::tlb::TlbStats::hits): rotate-to-MRU and
    /// the 3C shadow touch are no-ops for the most recent key.) The
    /// per-retire [`CycleCosts::insn`] charge below and the
    /// [`CycleCosts::tlb_walk`] charge inside [`Machine::translate`] are
    /// the only fetch-path cycle charges.
    pub fn step(&mut self) -> Trap {
        let snapshot = self.cpu.regs;
        let tf = self.cpu.regs.flag(crate::cpu::flags::TF);
        self.charge(self.config.costs.insn);
        match exec::step(self) {
            Ok(exec::Flow::Normal) => {
                self.stats.instructions += 1;
                if let Some(ev) = self.pending_cfi.take() {
                    // The control-flow report takes precedence over the
                    // single-step trap; the #DB belongs after the kernel has
                    // ruled on the transfer, so it is deferred the same way
                    // a syscall defers it.
                    if tf {
                        self.pending_singlestep = true;
                    }
                    Trap::ControlFlow(ev)
                } else if tf {
                    self.stats.debug_traps += 1;
                    Trap::DebugStep
                } else {
                    Trap::None
                }
            }
            Ok(exec::Flow::Syscall { vector }) => {
                self.stats.instructions += 1;
                self.stats.syscalls += 1;
                if tf {
                    // The #DB belongs after the int completes; the kernel
                    // services the syscall first and then polls this flag.
                    self.pending_singlestep = true;
                }
                Trap::Syscall { vector }
            }
            Ok(exec::Flow::Halt) => {
                self.stats.instructions += 1;
                Trap::Halt
            }
            Err(e) => {
                self.cpu.regs = snapshot;
                self.raise(e, snapshot.eip)
            }
        }
    }

    /// Account a precise exception raised by the instruction at `eip`,
    /// once the register file has been rolled back, and turn it into its
    /// trap (a page fault also loads CR2).
    pub(crate) fn raise(&mut self, e: exec::Exc, eip: u32) -> Trap {
        match e {
            exec::Exc::PageFault(pf) => {
                self.cpu.regs.cr2 = pf.addr;
                self.stats.page_faults += 1;
                Trap::PageFault(pf)
            }
            exec::Exc::InvalidOpcode { opcode } => {
                self.stats.invalid_opcodes += 1;
                Trap::InvalidOpcode { eip, opcode }
            }
            exec::Exc::DivideError => {
                self.stats.divide_errors += 1;
                Trap::DivideError
            }
        }
    }
}
