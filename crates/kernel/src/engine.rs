//! Protection-engine hooks.
//!
//! The paper's split-memory system is a set of small patches to five kernel
//! subsystems (ELF loader, page-fault handler, debug-interrupt handler,
//! memory management, signal handling — §5.1–5.5). This trait exposes
//! exactly those patch points so protection schemes plug into the kernel the
//! way the paper's patch plugs into Linux. `sm-core` provides the split
//! memory engine, the execute-disable baseline and the shadow-stack engine;
//! the kernel ships the [`NullEngine`] (an unprotected system) and the
//! [`EngineStack`], which runs several engines as ordered layers of one.
//! `<dyn ProtectionEngine>::layer` finds one engine inside a stack.

use crate::image::ExecImage;
use crate::kernel::System;
use crate::process::Pid;
use sm_machine::cpu::PageFaultInfo;
use sm_machine::pte::Frame;
use sm_machine::snapshot::{Reader, Writer};
use sm_machine::CfiEvent;

/// Outcome of [`ProtectionEngine::on_protection_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Not the engine's fault to handle; generic handling continues
    /// (usually ending in SIGSEGV).
    Unhandled,
    /// The engine serviced the fault (e.g. performed a TLB reload); restart
    /// the faulting instruction.
    Handled,
}

/// Outcome of [`ProtectionEngine::on_invalid_opcode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdOutcome {
    /// A genuine illegal instruction; deliver SIGILL.
    Unhandled,
    /// The engine detected and *absorbed* the event (observe/forensics
    /// response modes); resume the process.
    Resume,
    /// The engine detected injected-code execution and the response policy
    /// says the process must not continue (break mode). The kernel
    /// transfers to the process's recovery handler if one is registered
    /// (the paper's proposed recovery mode) and otherwise delivers SIGILL.
    Terminate,
}

/// Outcome of [`ProtectionEngine::on_control_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfiOutcome {
    /// The transfer is legitimate (or the engine does not police this
    /// kind); execution continues with no cost charged.
    Allow,
    /// A violation was detected but the response policy absorbs it
    /// (observe/forensics modes); execution continues.
    Logged,
    /// A violation was detected and the response policy says the process
    /// must not continue (break mode). The kernel transfers to the
    /// process's recovery handler if one is registered and otherwise
    /// delivers SIGSEGV — the software analogue of CET's `#CP` fault.
    Terminate,
}

/// Kernel patch points for a memory-protection scheme.
///
/// Every hook receives the [`System`] (machine + processes + fs + logs) so
/// it can manipulate pagetables, TLBs and process state; engines keep their
/// own per-process bookkeeping keyed by [`Pid`].
///
/// `Send` is a supertrait so whole kernels can move between threads: the
/// fleet simulator drives independent kernel cells from a worker pool, and
/// engines are per-kernel plain data with no shared interior state.
pub trait ProtectionEngine: Send {
    /// Human-readable engine name (used in reports, and stored in
    /// snapshots to check that a restore targets the same engine).
    fn name(&self) -> &str;

    /// Downcasting support, so harnesses can read engine statistics back
    /// out of a running [`crate::kernel::Kernel`].
    fn as_any(&self) -> &dyn std::any::Any;

    /// A region `[start, end)` of `pid` was mapped eagerly (program load,
    /// library load, file-backed mmap). The ELF-loader patch point
    /// (paper §5.1): split or NX-mark the pages here.
    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        let _ = (sys, pid, start, end);
    }

    /// A single page was demand-mapped at `vaddr` (paper §5.4: "the demand
    /// paging system was modified to allocate two pages instead of one").
    fn on_page_mapped(&mut self, sys: &mut System, pid: Pid, vaddr: u32) {
        let _ = (sys, pid, vaddr);
    }

    /// A protection (present-entry) page fault the generic handler cannot
    /// explain: the page-fault-handler patch point (paper §5.2,
    /// Algorithm 1).
    fn on_protection_fault(
        &mut self,
        sys: &mut System,
        pid: Pid,
        pf: PageFaultInfo,
    ) -> FaultOutcome {
        let _ = (sys, pid, pf);
        FaultOutcome::Unhandled
    }

    /// Single-step trap with [`crate::process::Process::pending_step_addr`]
    /// set: the debug-interrupt-handler patch point (paper §5.3,
    /// Algorithm 2). Return `true` if consumed.
    fn on_debug_trap(&mut self, sys: &mut System, pid: Pid) -> bool {
        let _ = (sys, pid);
        false
    }

    /// Invalid-opcode trap at `eip` — where split memory *detects* injected
    /// code about to run (paper §4.5, Algorithm 3).
    fn on_invalid_opcode(&mut self, sys: &mut System, pid: Pid, eip: u32, opcode: u8) -> UdOutcome {
        let _ = (sys, pid, eip, opcode);
        UdOutcome::Unhandled
    }

    /// Whether the machine should report retired control-flow transfers
    /// ([`sm_machine::Trap::ControlFlow`]) to this engine. Only the
    /// shadow-stack/CFI engine pays for the event stream; everything else
    /// keeps the machine's zero-cost default.
    fn wants_cfi_events(&self) -> bool {
        false
    }

    /// A control-flow transfer (`call`/`ret`/indirect jump) retired while
    /// [`ProtectionEngine::wants_cfi_events`] was set: the shadow-stack /
    /// coarse-CFI check point (CET's `#CP` analogue, raised *after* the
    /// transfer the way the hardware checks the retiring `ret`).
    fn on_control_flow(&mut self, sys: &mut System, pid: Pid, ev: CfiEvent) -> CfiOutcome {
        let _ = (sys, pid, ev);
        CfiOutcome::Allow
    }

    /// A COW break copied the page at `vaddr` into `new_frame` (or kept it,
    /// if the refcount had dropped to one). The memory-management patch
    /// point (paper §5.4).
    fn on_cow_copied(&mut self, sys: &mut System, pid: Pid, vaddr: u32, new_frame: Frame) {
        let _ = (sys, pid, vaddr, new_frame);
    }

    /// `parent` forked `child` (address space already COW-copied).
    fn on_fork(&mut self, sys: &mut System, parent: Pid, child: Pid) {
        let _ = (sys, parent, child);
    }

    /// `[start, end)` of `pid` is about to be unmapped (`munmap`).
    fn on_unmap(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        let _ = (sys, pid, start, end);
    }

    /// `pid`'s address space is about to be torn down (exit or execve).
    /// "On program termination, any split pages must be freed specially to
    /// ensure that both physical pages get put back" (paper §5.4).
    fn on_teardown(&mut self, sys: &mut System, pid: Pid) {
        let _ = (sys, pid);
    }

    /// A dynamic or shared library is about to be mapped: verify it
    /// (paper §4.3's DigSig-style check). Returning `Err` aborts the load.
    ///
    /// # Errors
    ///
    /// An error string describing why verification failed.
    fn verify_library(
        &mut self,
        sys: &mut System,
        pid: Pid,
        image: &ExecImage,
    ) -> Result<(), String> {
        let _ = (sys, pid, image);
        Ok(())
    }

    /// The kernel has copied *legitimate* executable `bytes` to `vaddr`
    /// through the data path (the signal-return trampoline on the stack —
    /// the mixed-page case of paper §2). The split-memory engine mirrors
    /// them onto the code frames, the execute-disable engine clears NX on
    /// the pages touched, and the shadow-stack engine records the
    /// trampoline as a legitimate return target.
    fn on_code_written(&mut self, sys: &mut System, pid: Pid, vaddr: u32, bytes: &[u8]) {
        let _ = (sys, pid, vaddr, bytes);
    }

    /// Serialize the engine's internal bookkeeping (split tables, counters)
    /// for a system snapshot ([`crate::snapshot`]). Stateless engines keep
    /// the default empty encoding.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore bookkeeping previously produced by
    /// [`ProtectionEngine::snapshot_state`] on a freshly constructed engine
    /// of the same kind.
    ///
    /// # Errors
    ///
    /// A description of the malformed payload. The default accepts only the
    /// empty encoding its `snapshot_state` produces.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "engine '{}' carries no state but snapshot has {} bytes",
                self.name(),
                bytes.len()
            ))
        }
    }
}

impl dyn ProtectionEngine {
    /// This engine if it is a `T`, otherwise the first `T` among an
    /// [`EngineStack`]'s layers, searched depth-first. Callers read one
    /// layer's state this way without knowing how the engine is composed.
    pub fn layer<T: 'static>(&self) -> Option<&T> {
        let any = self.as_any();
        if let Some(t) = any.downcast_ref::<T>() {
            return Some(t);
        }
        any.downcast_ref::<EngineStack>()?
            .layers
            .iter()
            .find_map(|l| l.layer::<T>())
    }
}

/// The unprotected baseline: every hook is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullEngine;

impl ProtectionEngine for NullEngine {
    fn name(&self) -> &'static str {
        "unprotected"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Several engines run as ordered layers of one (paper §4.2.1: NX guards
/// clean pages while splitting guards mixed ones).
///
/// Mapping and lifecycle hooks reach every layer in order. A trap goes to
/// the layers in order until one claims it: the first
/// [`FaultOutcome::Handled`], the first consumed debug trap, the first
/// [`UdOutcome`] other than `Unhandled` and the first [`CfiOutcome`] other
/// than `Allow` win. Library verification stops at the first layer that
/// rejects. The stack wants CFI events if any layer does.
///
/// The stack's name is its layers' names joined with `+`, and its snapshot
/// state is one length-prefixed record per layer. A stack nested as a
/// layer therefore keeps the name and the bytes of the stack it replaced.
pub struct EngineStack {
    layers: Vec<Box<dyn ProtectionEngine>>,
    name: String,
}

impl EngineStack {
    /// Stack `layers`, first layer first.
    pub fn new(layers: Vec<Box<dyn ProtectionEngine>>) -> EngineStack {
        let name = layers
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join("+");
        EngineStack { layers, name }
    }
}

impl ProtectionEngine for EngineStack {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_region_mapped(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        for l in &mut self.layers {
            l.on_region_mapped(sys, pid, start, end);
        }
    }

    fn on_page_mapped(&mut self, sys: &mut System, pid: Pid, vaddr: u32) {
        for l in &mut self.layers {
            l.on_page_mapped(sys, pid, vaddr);
        }
    }

    fn on_protection_fault(
        &mut self,
        sys: &mut System,
        pid: Pid,
        pf: PageFaultInfo,
    ) -> FaultOutcome {
        self.layers
            .iter_mut()
            .map(|l| l.on_protection_fault(sys, pid, pf))
            .find(|&o| o == FaultOutcome::Handled)
            .unwrap_or(FaultOutcome::Unhandled)
    }

    fn on_debug_trap(&mut self, sys: &mut System, pid: Pid) -> bool {
        self.layers.iter_mut().any(|l| l.on_debug_trap(sys, pid))
    }

    fn on_invalid_opcode(&mut self, sys: &mut System, pid: Pid, eip: u32, opcode: u8) -> UdOutcome {
        self.layers
            .iter_mut()
            .map(|l| l.on_invalid_opcode(sys, pid, eip, opcode))
            .find(|&o| o != UdOutcome::Unhandled)
            .unwrap_or(UdOutcome::Unhandled)
    }

    fn wants_cfi_events(&self) -> bool {
        self.layers.iter().any(|l| l.wants_cfi_events())
    }

    fn on_control_flow(&mut self, sys: &mut System, pid: Pid, ev: CfiEvent) -> CfiOutcome {
        self.layers
            .iter_mut()
            .map(|l| l.on_control_flow(sys, pid, ev))
            .find(|&o| o != CfiOutcome::Allow)
            .unwrap_or(CfiOutcome::Allow)
    }

    fn on_cow_copied(&mut self, sys: &mut System, pid: Pid, vaddr: u32, new_frame: Frame) {
        for l in &mut self.layers {
            l.on_cow_copied(sys, pid, vaddr, new_frame);
        }
    }

    fn on_fork(&mut self, sys: &mut System, parent: Pid, child: Pid) {
        for l in &mut self.layers {
            l.on_fork(sys, parent, child);
        }
    }

    fn on_unmap(&mut self, sys: &mut System, pid: Pid, start: u32, end: u32) {
        for l in &mut self.layers {
            l.on_unmap(sys, pid, start, end);
        }
    }

    fn on_teardown(&mut self, sys: &mut System, pid: Pid) {
        for l in &mut self.layers {
            l.on_teardown(sys, pid);
        }
    }

    fn verify_library(
        &mut self,
        sys: &mut System,
        pid: Pid,
        image: &ExecImage,
    ) -> Result<(), String> {
        self.layers
            .iter_mut()
            .try_for_each(|l| l.verify_library(sys, pid, image))
    }

    fn on_code_written(&mut self, sys: &mut System, pid: Pid, vaddr: u32, bytes: &[u8]) {
        for l in &mut self.layers {
            l.on_code_written(sys, pid, vaddr, bytes);
        }
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        for l in &self.layers {
            w.bytes(&l.snapshot_state());
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes);
        let states = self
            .layers
            .iter()
            .map(|_| r.bytes())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        if !r.is_done() {
            return Err(format!(
                "trailing bytes in engine stack '{}' state",
                self.name
            ));
        }
        self.layers
            .iter_mut()
            .zip(states)
            .try_for_each(|(l, state)| l.restore_state(&state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layer with one byte of state that claims debug traps when
    /// `claims` is set and counts the traps it is asked about.
    struct Probe {
        name: &'static str,
        state: u8,
        claims: bool,
        asked: u32,
    }

    fn probe(name: &'static str, state: u8, claims: bool) -> Box<dyn ProtectionEngine> {
        Box::new(Probe {
            name,
            state,
            claims,
            asked: 0,
        })
    }

    impl ProtectionEngine for Probe {
        fn name(&self) -> &str {
            self.name
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn on_debug_trap(&mut self, _sys: &mut System, _pid: Pid) -> bool {
            self.asked += 1;
            self.claims
        }

        fn snapshot_state(&self) -> Vec<u8> {
            vec![self.state]
        }

        fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
            match bytes {
                [b] => {
                    self.state = *b;
                    Ok(())
                }
                _ => Err("probe state is one byte".into()),
            }
        }
    }

    fn nested(a: u8, b: u8) -> Box<dyn ProtectionEngine> {
        Box::new(EngineStack::new(vec![
            probe("a", a, false),
            Box::new(EngineStack::new(vec![
                probe("b", b, true),
                Box::new(NullEngine),
            ])),
        ]))
    }

    #[test]
    fn nested_stacks_join_names_and_round_trip_state() {
        let stack = nested(1, 2);
        assert_eq!(stack.name(), "a+b+unprotected");
        let bytes = stack.snapshot_state();
        let mut fresh = nested(0, 0);
        fresh.restore_state(&bytes).unwrap();
        assert_eq!(fresh.snapshot_state(), bytes);
        assert_eq!(
            fresh.layer::<EngineStack>().map(|s| s.name()),
            Some("a+b+unprotected")
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(fresh.restore_state(&trailing).is_err());
        assert!(fresh.restore_state(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn layer_searches_nested_stacks_depth_first() {
        let stack = nested(1, 2);
        assert_eq!(stack.layer::<Probe>().map(|p| p.name), Some("a"));
        assert!(stack.layer::<NullEngine>().is_some());
        let bare: Box<dyn ProtectionEngine> = Box::new(NullEngine);
        assert!(bare.layer::<NullEngine>().is_some());
        assert!(bare.layer::<Probe>().is_none());
    }

    #[test]
    fn the_first_layer_to_claim_a_trap_wins() {
        let mut sys = crate::Kernel::with_engine(Box::new(NullEngine)).sys;
        let mut stack = EngineStack::new(vec![
            probe("a", 0, false),
            probe("b", 0, true),
            probe("c", 0, true),
        ]);
        assert!(stack.on_debug_trap(&mut sys, Pid(1)));
        let asked: Vec<u32> = stack
            .layers
            .iter()
            .map(|l| l.layer::<Probe>().unwrap().asked)
            .collect();
        assert_eq!(asked, [1, 1, 0]);
    }
}
