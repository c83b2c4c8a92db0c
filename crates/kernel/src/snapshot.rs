//! Whole-system checkpoint/restore: a versioned, integrity-checked
//! container over every piece of kernel and machine state.
//!
//! # Format
//!
//! ```text
//! magic      8 bytes  "SMKSNAP\0"
//! version    u32      container format version (currently 1)
//! count      u32      number of sections (<= 64)
//! manifest   count x { tag[4], offset u64, len u64, sha256[32] }
//! msha       32 bytes sha256 over everything above (magic..manifest)
//! payloads   concatenated section bytes, in manifest order
//! ```
//!
//! Offsets are relative to the start of the payload area. Validation at
//! load time runs strictly in this order: magic, version, manifest
//! structure, manifest checksum, per-section bounds and checksums, then
//! section parsing — so every corruption the chaos harness injects
//! ([`SnapshotFault`]) maps to a typed [`SnapshotError`]:
//!
//! * truncation → [`SnapshotError::Truncated`] (or a checksum error when
//!   the cut lands inside a payload),
//! * a flipped bit → [`SnapshotError::SectionChecksum`] /
//!   [`SnapshotError::ManifestChecksum`],
//! * reordered manifest entries → [`SnapshotError::ManifestChecksum`],
//! * a bumped version field → [`SnapshotError::UnsupportedVersion`]
//!   (checked *before* the manifest hash, exactly like a real reader
//!   refusing a future format).
//!
//! A corrupted snapshot never panics and never loads silently wrong; the
//! consumer degrades to an earlier checkpoint or a cold boot.
//!
//! # What round-trips
//!
//! Everything observable: the machine (via [`sm_machine::snapshot`]), the
//! process table with registers, address spaces, descriptors and signal
//! state, frame refcounts, scheduler state (run queue, loaded CR3,
//! watchdog), the ram filesystem, pipes (holes preserved — pipe ids are
//! slot indices), the loopback network, the event log, the kernel RNG and
//! chaos decision streams, kernel counters, the full [`KernelConfig`] and
//! the protection engine's own bookkeeping
//! ([`ProtectionEngine::snapshot_state`]). Serialization is canonical:
//! `save(restore(save(k))) == save(k)` byte for byte.

use crate::addrspace::{AddressSpace, FrameTable};
use crate::engine::ProtectionEngine;
use crate::events::{Event, EventLog, ResponseMode};
use crate::fs::{Pipe, PipeId, PipeTable, RamFs};
use crate::kernel::{Kernel, KernelConfig, System};
use crate::net::{Connection, NetStack};
use crate::process::{FdObject, Pid, ProcState, Process, WaitReason};
use crate::signal::{SigAction, SignalState, NSIG};
use crate::stats::KernelStats;
use sm_machine::chaos::SnapshotFault;
use sm_machine::cpu::Regs;
use sm_machine::pte::Frame;
use sm_machine::sha256::sha256;
use sm_machine::snapshot::{
    self as msnap, read_plan, write_plan, Reader, SnapshotError, Writer, MAX_TRACE_CAPACITY,
};
use sm_rng::StdRng;
use std::collections::BTreeMap;

/// Leading magic of a kernel snapshot container.
pub const MAGIC: [u8; 8] = *b"SMKSNAP\0";

/// Container format version this build writes and accepts.
pub const VERSION: u32 = 1;

/// Upper bound on manifest entries (the writer emits 12).
pub const MAX_SECTIONS: usize = 64;

/// Size of one manifest entry: tag + offset + len + sha256.
const ENTRY_SIZE: usize = 4 + 8 + 8 + 32;

// Structural limits for hostile input; all far above real configurations.
const MAX_PROCS: usize = 1 << 16;
const MAX_VMAS: usize = 1 << 16;
const MAX_FDS: usize = 1 << 16;
const MAX_TABLE_FRAMES: usize = 1 << 20;
const MAX_EVENTS: usize = 1 << 24;
const MAX_FILES: usize = 1 << 20;
const MAX_PIPES: usize = 1 << 20;
const MAX_PORTS: usize = 1 << 16;
const MAX_BACKLOG: usize = 1 << 20;
const MAX_QUEUE: usize = 1 << 16;
const MAX_FRAMES: usize = 1 << 20;
const MAX_PIPE_CAPACITY: usize = 1 << 30;

/// The `SplitDegraded` reason strings, mapped back to `&'static str` at
/// load time (the event stores a static string; an unknown reason in a
/// snapshot is malformed, not silently interned).
const DEGRADE_REASONS: [&str; 5] = [
    "splitting executable page",
    "splitting data page",
    "materialising code frame",
    "cow code-half copy",
    "mirroring kernel code",
];

// ---- shared helpers -------------------------------------------------------

fn write_regs(w: &mut Writer, r: &Regs) {
    for g in r.gpr {
        w.u32(g);
    }
    w.u32(r.eip);
    w.u32(r.eflags);
    w.u32(r.cr2);
    w.u32(r.cr3);
}

fn read_regs(r: &mut Reader) -> Result<Regs, SnapshotError> {
    let mut regs = Regs::default();
    for g in regs.gpr.iter_mut() {
        *g = r.u32()?;
    }
    regs.eip = r.u32()?;
    regs.eflags = r.u32()?;
    regs.cr2 = r.u32()?;
    regs.cr3 = r.u32()?;
    Ok(regs)
}

fn done(r: &Reader) -> Result<(), SnapshotError> {
    if r.is_done() {
        Ok(())
    } else {
        Err(SnapshotError::Malformed("trailing bytes in section"))
    }
}

// ---- CONF -----------------------------------------------------------------

fn save_config(c: &KernelConfig) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(c.quantum_cycles);
    w.u32(c.stack_size);
    w.u32(c.stack_top);
    w.bool(c.aslr_stack);
    w.u64(c.seed);
    w.u32(c.heap_limit);
    w.u64(c.pipe_capacity as u64);
    write_plan(&mut w, &c.chaos);
    w.u64(c.livelock_threshold);
    w.bool(c.asid_tlbs);
    w.u32(c.trace);
    w.u64(c.trace_capacity as u64);
    w.opt_u32(c.trace_pid);
    w.into_bytes()
}

fn load_config(bytes: &[u8]) -> Result<KernelConfig, SnapshotError> {
    let mut r = Reader::new(bytes);
    let c = KernelConfig {
        quantum_cycles: r.u64()?,
        stack_size: r.u32()?,
        stack_top: r.u32()?,
        aslr_stack: r.bool()?,
        seed: r.u64()?,
        heap_limit: r.u32()?,
        pipe_capacity: r.count(MAX_PIPE_CAPACITY)?,
        chaos: read_plan(&mut r)?,
        livelock_threshold: r.u64()?,
        asid_tlbs: r.bool()?,
        trace: r.u32()?,
        trace_capacity: r.count(MAX_TRACE_CAPACITY)?,
        trace_pid: r.opt_u32()?,
    };
    done(&r)?;
    Ok(c)
}

// ---- PROC -----------------------------------------------------------------

fn write_wait_reason(w: &mut Writer, wr: &WaitReason) {
    match wr {
        WaitReason::PipeReadable(id) => {
            w.u8(0);
            w.u64(id.0 as u64);
        }
        WaitReason::PipeWritable(id) => {
            w.u8(1);
            w.u64(id.0 as u64);
        }
        WaitReason::Accept(port) => {
            w.u8(2);
            w.u16(*port);
        }
        WaitReason::Connect(port) => {
            w.u8(3);
            w.u16(*port);
        }
        WaitReason::Child => w.u8(4),
        WaitReason::Pause => w.u8(5),
    }
}

fn read_wait_reason(r: &mut Reader) -> Result<WaitReason, SnapshotError> {
    Ok(match r.u8()? {
        0 => WaitReason::PipeReadable(PipeId(r.count(MAX_PIPES)?)),
        1 => WaitReason::PipeWritable(PipeId(r.count(MAX_PIPES)?)),
        2 => WaitReason::Accept(r.u16()?),
        3 => WaitReason::Connect(r.u16()?),
        4 => WaitReason::Child,
        5 => WaitReason::Pause,
        _ => return Err(SnapshotError::Malformed("unknown wait reason")),
    })
}

fn write_fd(w: &mut Writer, fd: &FdObject) {
    match fd {
        FdObject::Console => w.u8(1),
        FdObject::File {
            path,
            offset,
            flags,
        } => {
            w.u8(2);
            w.str(path);
            w.u32(*offset);
            w.u32(*flags);
        }
        FdObject::PipeRead(id) => {
            w.u8(3);
            w.u64(id.0 as u64);
        }
        FdObject::PipeWrite(id) => {
            w.u8(4);
            w.u64(id.0 as u64);
        }
        FdObject::Socket { rx, tx } => {
            w.u8(5);
            w.u64(rx.0 as u64);
            w.u64(tx.0 as u64);
        }
    }
}

fn read_fd(r: &mut Reader) -> Result<Option<FdObject>, SnapshotError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(FdObject::Console),
        2 => Some(FdObject::File {
            path: r.str()?,
            offset: r.u32()?,
            flags: r.u32()?,
        }),
        3 => Some(FdObject::PipeRead(PipeId(r.count(MAX_PIPES)?))),
        4 => Some(FdObject::PipeWrite(PipeId(r.count(MAX_PIPES)?))),
        5 => Some(FdObject::Socket {
            rx: PipeId(r.count(MAX_PIPES)?),
            tx: PipeId(r.count(MAX_PIPES)?),
        }),
        _ => return Err(SnapshotError::Malformed("unknown fd kind")),
    })
}

fn write_signals(w: &mut Writer, s: &SignalState) {
    let non_default: Vec<(u8, SigAction)> = (0..NSIG as u8)
        .map(|sig| (sig, s.action(sig)))
        .filter(|(_, a)| *a != SigAction::Default)
        .collect();
    w.u64(non_default.len() as u64);
    for (sig, act) in non_default {
        w.u8(sig);
        match act {
            SigAction::Default => unreachable!("filtered above"),
            SigAction::Ignore => w.u8(1),
            SigAction::Handler(h) => {
                w.u8(2);
                w.u32(h);
            }
        }
    }
    w.bytes(&s.pending);
    match s.saved_context {
        None => w.u8(0),
        Some(regs) => {
            w.u8(1);
            write_regs(w, &regs);
        }
    }
}

fn read_signals(r: &mut Reader) -> Result<SignalState, SnapshotError> {
    let mut s = SignalState::new();
    let n = r.count(NSIG)?;
    for _ in 0..n {
        let sig = r.u8()?;
        let act = match r.u8()? {
            1 => SigAction::Ignore,
            2 => SigAction::Handler(r.u32()?),
            _ => return Err(SnapshotError::Malformed("unknown signal action")),
        };
        if !s.set_action(sig, act) {
            return Err(SnapshotError::Malformed("uncatchable or bad signal"));
        }
    }
    s.pending = r.bytes()?;
    s.saved_context = match r.u8()? {
        0 => None,
        1 => Some(read_regs(r)?),
        _ => return Err(SnapshotError::Malformed("bad saved-context tag")),
    };
    Ok(s)
}

fn write_aspace(w: &mut Writer, a: &AddressSpace) {
    w.u32(a.dir.0);
    w.u64(a.vmas.len() as u64);
    for v in &a.vmas {
        w.u32(v.start);
        w.u32(v.end);
        w.u8(v.flags);
        w.u8(match v.kind {
            crate::vma::VmaKind::Code => 0,
            crate::vma::VmaKind::Data => 1,
            crate::vma::VmaKind::Heap => 2,
            crate::vma::VmaKind::Stack => 3,
            crate::vma::VmaKind::Mmap => 4,
            crate::vma::VmaKind::Library => 5,
        });
        w.str(&v.label);
    }
    w.u32(a.brk_start);
    w.u32(a.brk);
    w.u32(a.stack_low);
    w.u32(a.stack_high);
    w.u32(a.mmap_next);
    w.u64(a.table_frames.len() as u64);
    for f in &a.table_frames {
        w.u32(f.0);
    }
}

fn read_aspace(r: &mut Reader) -> Result<AddressSpace, SnapshotError> {
    let dir = Frame(r.u32()?);
    let nvmas = r.count(MAX_VMAS)?;
    let mut vmas = Vec::with_capacity(nvmas.min(1024));
    for _ in 0..nvmas {
        let start = r.u32()?;
        let end = r.u32()?;
        if start >= end {
            return Err(SnapshotError::Malformed("empty VMA"));
        }
        let flags = r.u8()?;
        let kind = match r.u8()? {
            0 => crate::vma::VmaKind::Code,
            1 => crate::vma::VmaKind::Data,
            2 => crate::vma::VmaKind::Heap,
            3 => crate::vma::VmaKind::Stack,
            4 => crate::vma::VmaKind::Mmap,
            5 => crate::vma::VmaKind::Library,
            _ => return Err(SnapshotError::Malformed("unknown VMA kind")),
        };
        let label = r.str()?;
        vmas.push(crate::vma::Vma {
            start,
            end,
            flags,
            kind,
            label,
        });
    }
    let brk_start = r.u32()?;
    let brk = r.u32()?;
    let stack_low = r.u32()?;
    let stack_high = r.u32()?;
    let mmap_next = r.u32()?;
    let ntab = r.count(MAX_TABLE_FRAMES)?;
    let mut table_frames = Vec::with_capacity(ntab.min(1024));
    for _ in 0..ntab {
        table_frames.push(Frame(r.u32()?));
    }
    Ok(AddressSpace {
        dir,
        vmas,
        brk_start,
        brk,
        stack_low,
        stack_high,
        mmap_next,
        table_frames,
    })
}

fn save_procs(sys: &System) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(sys.procs.len() as u64);
    for p in sys.procs.values() {
        w.u32(p.pid.0);
        w.u32(p.ppid.0);
        w.str(&p.name);
        match p.state {
            ProcState::Ready => w.u8(0),
            ProcState::Blocked(ref wr) => {
                w.u8(1);
                write_wait_reason(&mut w, wr);
            }
            ProcState::Zombie => w.u8(2),
        }
        write_regs(&mut w, &p.ctx);
        write_aspace(&mut w, &p.aspace);
        w.u64(p.fds.len() as u64);
        for slot in &p.fds {
            match slot {
                None => w.u8(0),
                Some(fd) => write_fd(&mut w, fd),
            }
        }
        write_signals(&mut w, &p.signals);
        w.opt_u32(p.pending_step_addr);
        w.opt_u32(p.exit_code.map(|c| c as u32));
        w.bytes(&p.output);
        w.bytes(&p.input);
        w.bool(p.honeypot_log);
        w.opt_u32(p.recovery_handler);
        w.u64(p.user_cycles);
    }
    w.into_bytes()
}

fn load_procs(bytes: &[u8]) -> Result<BTreeMap<u32, Process>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.count(MAX_PROCS)?;
    let mut procs = BTreeMap::new();
    for _ in 0..n {
        let pid = Pid(r.u32()?);
        let ppid = Pid(r.u32()?);
        let name = r.str()?;
        let state = match r.u8()? {
            0 => ProcState::Ready,
            1 => ProcState::Blocked(read_wait_reason(&mut r)?),
            2 => ProcState::Zombie,
            _ => return Err(SnapshotError::Malformed("unknown process state")),
        };
        let ctx = read_regs(&mut r)?;
        let aspace = read_aspace(&mut r)?;
        let nfds = r.count(MAX_FDS)?;
        let mut fds = Vec::with_capacity(nfds.min(1024));
        for _ in 0..nfds {
            fds.push(read_fd(&mut r)?);
        }
        let signals = read_signals(&mut r)?;
        let pending_step_addr = r.opt_u32()?;
        let exit_code = r.opt_u32()?.map(|c| c as i32);
        let output = r.bytes()?;
        let input = r.bytes()?;
        let honeypot_log = r.bool()?;
        let recovery_handler = r.opt_u32()?;
        let user_cycles = r.u64()?;
        let p = Process {
            pid,
            ppid,
            name,
            state,
            ctx,
            aspace,
            fds,
            signals,
            pending_step_addr,
            exit_code,
            output,
            input,
            honeypot_log,
            recovery_handler,
            user_cycles,
        };
        if procs.insert(pid.0, p).is_some() {
            return Err(SnapshotError::Malformed("duplicate pid"));
        }
    }
    done(&r)?;
    Ok(procs)
}

// ---- FRAM -----------------------------------------------------------------

fn save_frames(ft: &FrameTable) -> Vec<u8> {
    let mut w = Writer::new();
    let mut pairs: Vec<(u32, u32)> = ft.rc.iter().map(|(&f, &c)| (f, c)).collect();
    pairs.sort_unstable();
    w.u64(pairs.len() as u64);
    for (f, c) in pairs {
        w.u32(f);
        w.u32(c);
    }
    w.into_bytes()
}

fn load_frames(bytes: &[u8]) -> Result<FrameTable, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.count(MAX_FRAMES)?;
    let mut ft = FrameTable::new();
    for _ in 0..n {
        let f = r.u32()?;
        let c = r.u32()?;
        if c == 0 {
            return Err(SnapshotError::Malformed("zero frame refcount"));
        }
        if ft.rc.insert(f, c).is_some() {
            return Err(SnapshotError::Malformed("duplicate frame refcount"));
        }
    }
    done(&r)?;
    Ok(ft)
}

// ---- SCHD -----------------------------------------------------------------

struct SchedState {
    run_queue: std::collections::VecDeque<Pid>,
    current: Option<Pid>,
    next_pid: u32,
    loaded_cr3_for: Option<Pid>,
    preempt: bool,
    watchdog: Option<(Pid, u32, u64)>,
    livelocked: Option<(Pid, u32)>,
}

fn save_sched(sys: &System) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(sys.run_queue.len() as u64);
    for pid in &sys.run_queue {
        w.u32(pid.0);
    }
    w.opt_u32(sys.current.map(|p| p.0));
    w.u32(sys.next_pid);
    w.opt_u32(sys.loaded_cr3_for.map(|p| p.0));
    w.bool(sys.preempt);
    match sys.watchdog {
        None => w.u8(0),
        Some((pid, eip, count)) => {
            w.u8(1);
            w.u32(pid.0);
            w.u32(eip);
            w.u64(count);
        }
    }
    match sys.livelocked {
        None => w.u8(0),
        Some((pid, eip)) => {
            w.u8(1);
            w.u32(pid.0);
            w.u32(eip);
        }
    }
    w.into_bytes()
}

fn load_sched(bytes: &[u8]) -> Result<SchedState, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.count(MAX_QUEUE)?;
    let mut run_queue = std::collections::VecDeque::with_capacity(n.min(1024));
    for _ in 0..n {
        run_queue.push_back(Pid(r.u32()?));
    }
    let current = r.opt_u32()?.map(Pid);
    let next_pid = r.u32()?;
    let loaded_cr3_for = r.opt_u32()?.map(Pid);
    let preempt = r.bool()?;
    let watchdog = match r.u8()? {
        0 => None,
        1 => Some((Pid(r.u32()?), r.u32()?, r.u64()?)),
        _ => return Err(SnapshotError::Malformed("bad watchdog tag")),
    };
    let livelocked = match r.u8()? {
        0 => None,
        1 => Some((Pid(r.u32()?), r.u32()?)),
        _ => return Err(SnapshotError::Malformed("bad livelock tag")),
    };
    done(&r)?;
    Ok(SchedState {
        run_queue,
        current,
        next_pid,
        loaded_cr3_for,
        preempt,
        watchdog,
        livelocked,
    })
}

// ---- FSYS / PIPE / NETW ---------------------------------------------------

fn save_fs(fs: &RamFs) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(fs.files.len() as u64);
    for (path, data) in &fs.files {
        w.str(path);
        w.bytes(data);
    }
    w.into_bytes()
}

fn load_fs(bytes: &[u8]) -> Result<RamFs, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.count(MAX_FILES)?;
    let mut fs = RamFs::new();
    for _ in 0..n {
        let path = r.str()?;
        let data = r.bytes()?;
        if fs.files.insert(path, data).is_some() {
            return Err(SnapshotError::Malformed("duplicate fs path"));
        }
    }
    done(&r)?;
    Ok(fs)
}

fn save_pipes(pt: &PipeTable) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(pt.pipes.len() as u64);
    for slot in &pt.pipes {
        match slot {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                let (a, b) = p.buf.as_slices();
                w.u64((a.len() + b.len()) as u64);
                w.raw(a);
                w.raw(b);
                w.u64(p.capacity as u64);
                w.u32(p.readers);
                w.u32(p.writers);
            }
        }
    }
    w.into_bytes()
}

fn load_pipes(bytes: &[u8]) -> Result<PipeTable, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.count(MAX_PIPES)?;
    let mut pt = PipeTable::new();
    for _ in 0..n {
        match r.u8()? {
            0 => pt.pipes.push(None),
            1 => {
                let nbuf = r.count(r.remaining())?;
                let buf: std::collections::VecDeque<u8> = r.take_raw(nbuf)?.to_vec().into();
                let capacity = r.count(MAX_PIPE_CAPACITY)?;
                if buf.len() > capacity {
                    return Err(SnapshotError::Malformed("pipe buffer over capacity"));
                }
                let mut p = Pipe::new(capacity);
                p.buf = buf;
                p.readers = r.u32()?;
                p.writers = r.u32()?;
                pt.pipes.push(Some(p));
            }
            _ => return Err(SnapshotError::Malformed("bad pipe slot tag")),
        }
    }
    done(&r)?;
    Ok(pt)
}

fn save_net(net: &NetStack) -> Vec<u8> {
    let mut w = Writer::new();
    let mut ports: Vec<u16> = net.listeners.keys().copied().collect();
    ports.sort_unstable();
    w.u64(ports.len() as u64);
    for port in ports {
        w.u16(port);
        let backlog = &net.listeners[&port];
        w.u64(backlog.len() as u64);
        for conn in backlog {
            w.u64(conn.c2s.0 as u64);
            w.u64(conn.s2c.0 as u64);
        }
    }
    w.into_bytes()
}

fn load_net(bytes: &[u8]) -> Result<NetStack, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.count(MAX_PORTS)?;
    let mut net = NetStack::new();
    for _ in 0..n {
        let port = r.u16()?;
        let nb = r.count(MAX_BACKLOG)?;
        let mut backlog = std::collections::VecDeque::with_capacity(nb.min(1024));
        for _ in 0..nb {
            backlog.push_back(Connection {
                c2s: PipeId(r.count(MAX_PIPES)?),
                s2c: PipeId(r.count(MAX_PIPES)?),
            });
        }
        if net.listeners.insert(port, backlog).is_some() {
            return Err(SnapshotError::Malformed("duplicate listener port"));
        }
    }
    done(&r)?;
    Ok(net)
}

// ---- EVNT -----------------------------------------------------------------

fn write_event(w: &mut Writer, e: &Event) {
    match e {
        Event::Exec { pid, path } => {
            w.u8(0);
            w.u32(pid.0);
            w.str(path);
        }
        Event::ProcessExit { pid, code } => {
            w.u8(1);
            w.u32(pid.0);
            w.u32(*code as u32);
        }
        Event::Signal { pid, sig } => {
            w.u8(2);
            w.u32(pid.0);
            w.u8(*sig);
        }
        Event::AttackDetected {
            pid,
            eip,
            mode,
            shellcode,
        } => {
            w.u8(3);
            w.u32(pid.0);
            w.u32(*eip);
            w.u8(match mode {
                ResponseMode::Break => 0,
                ResponseMode::Observe => 1,
                ResponseMode::Forensics => 2,
            });
            w.bytes(shellcode);
        }
        Event::SebekRead { pid, data } => {
            w.u8(4);
            w.u32(pid.0);
            w.bytes(data);
        }
        Event::Library {
            pid,
            name,
            verified,
        } => {
            w.u8(5);
            w.u32(pid.0);
            w.str(name);
            w.bool(*verified);
        }
        Event::RecoveryEntered { pid, handler } => {
            w.u8(6);
            w.u32(pid.0);
            w.u32(*handler);
        }
        Event::SplitDegraded { pid, vaddr, reason } => {
            w.u8(7);
            w.u32(pid.0);
            w.u32(*vaddr);
            w.str(reason);
        }
        Event::Note(s) => {
            w.u8(8);
            w.str(s);
        }
    }
}

fn read_event(r: &mut Reader) -> Result<Event, SnapshotError> {
    Ok(match r.u8()? {
        0 => Event::Exec {
            pid: Pid(r.u32()?),
            path: r.str()?,
        },
        1 => Event::ProcessExit {
            pid: Pid(r.u32()?),
            code: r.u32()? as i32,
        },
        2 => Event::Signal {
            pid: Pid(r.u32()?),
            sig: r.u8()?,
        },
        3 => Event::AttackDetected {
            pid: Pid(r.u32()?),
            eip: r.u32()?,
            mode: match r.u8()? {
                0 => ResponseMode::Break,
                1 => ResponseMode::Observe,
                2 => ResponseMode::Forensics,
                _ => return Err(SnapshotError::Malformed("unknown response mode")),
            },
            shellcode: r.bytes()?,
        },
        4 => Event::SebekRead {
            pid: Pid(r.u32()?),
            data: r.bytes()?,
        },
        5 => Event::Library {
            pid: Pid(r.u32()?),
            name: r.str()?,
            verified: r.bool()?,
        },
        6 => Event::RecoveryEntered {
            pid: Pid(r.u32()?),
            handler: r.u32()?,
        },
        7 => {
            let pid = Pid(r.u32()?);
            let vaddr = r.u32()?;
            let reason = r.str()?;
            let reason = DEGRADE_REASONS
                .iter()
                .find(|s| **s == reason)
                .copied()
                .ok_or(SnapshotError::Malformed("unknown degrade reason"))?;
            Event::SplitDegraded { pid, vaddr, reason }
        }
        8 => Event::Note(r.str()?),
        _ => return Err(SnapshotError::Malformed("unknown event kind")),
    })
}

fn save_events(log: &EventLog) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(log.entries().len() as u64);
    for (cycles, e) in log.entries() {
        w.u64(*cycles);
        write_event(&mut w, e);
    }
    w.into_bytes()
}

fn load_events(bytes: &[u8]) -> Result<EventLog, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.count(MAX_EVENTS)?;
    let mut log = EventLog::new();
    for _ in 0..n {
        let cycles = r.u64()?;
        let e = read_event(&mut r)?;
        log.push(cycles, e);
    }
    done(&r)?;
    Ok(log)
}

// ---- RAND / KSTA ----------------------------------------------------------

fn save_rand(sys: &System) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(sys.rng.state());
    match &sys.chaos {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            w.bytes(&msnap::save_chaos(c));
        }
    }
    w.into_bytes()
}

fn load_rand(
    bytes: &[u8],
) -> Result<(StdRng, Option<sm_machine::chaos::ChaosState>), SnapshotError> {
    let mut r = Reader::new(bytes);
    let rng = StdRng::seed_from_u64(r.u64()?);
    let chaos = match r.u8()? {
        0 => None,
        1 => Some(msnap::load_chaos(&r.bytes()?)?),
        _ => return Err(SnapshotError::Malformed("bad chaos tag")),
    };
    done(&r)?;
    Ok((rng, chaos))
}

fn save_kstats(s: &KernelStats) -> Vec<u8> {
    let mut w = Writer::new();
    s.write(&mut w);
    w.into_bytes()
}

fn load_kstats(bytes: &[u8]) -> Result<KernelStats, SnapshotError> {
    let mut r = Reader::new(bytes);
    let s = KernelStats::read(&mut r)?;
    done(&r)?;
    Ok(s)
}

// ---- ENGN -----------------------------------------------------------------

fn save_engine(engine: &dyn ProtectionEngine) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(engine.name());
    w.bytes(&engine.snapshot_state());
    w.into_bytes()
}

// ---- container ------------------------------------------------------------

/// Serialize the complete kernel — machine, processes, filesystem, network,
/// scheduler, randomness, engine — into one integrity-checked container.
pub fn save(k: &Kernel) -> Vec<u8> {
    let sections: [([u8; 4], Vec<u8>); 12] = [
        (*b"CONF", save_config(&k.sys.config)),
        (*b"MACH", msnap::save_machine(&k.sys.machine)),
        (*b"PROC", save_procs(&k.sys)),
        (*b"FRAM", save_frames(&k.sys.frames)),
        (*b"SCHD", save_sched(&k.sys)),
        (*b"FSYS", save_fs(&k.sys.fs)),
        (*b"PIPE", save_pipes(&k.sys.pipes)),
        (*b"NETW", save_net(&k.sys.net)),
        (*b"EVNT", save_events(&k.sys.events)),
        (*b"RAND", save_rand(&k.sys)),
        (*b"KSTA", save_kstats(&k.sys.stats)),
        (*b"ENGN", save_engine(k.engine.as_ref())),
    ];
    let mut header = Writer::new();
    header.raw(&MAGIC);
    header.u32(VERSION);
    header.u32(sections.len() as u32);
    let mut offset = 0u64;
    for (tag, payload) in &sections {
        header.raw(tag);
        header.u64(offset);
        header.u64(payload.len() as u64);
        header.raw(&sha256(payload));
        offset += payload.len() as u64;
    }
    let mut out = header.into_bytes();
    let msha = sha256(&out);
    out.extend_from_slice(&msha);
    for (_, payload) in sections {
        out.extend_from_slice(&payload);
    }
    out
}

/// Borrowed `(tag, payload)` views into a validated container.
type SectionSlices<'a> = Vec<([u8; 4], &'a [u8])>;

/// Validate the container structure and return `(tag, payload)` slices.
fn sections(bytes: &[u8]) -> Result<SectionSlices<'_>, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take_raw(8)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let count = r.u32()? as usize;
    if count > MAX_SECTIONS {
        return Err(SnapshotError::Malformed("too many sections"));
    }
    let mut entries: Vec<([u8; 4], u64, u64, [u8; 32])> = Vec::with_capacity(count);
    for _ in 0..count {
        let tag: [u8; 4] = r.take_raw(4)?.try_into().expect("fixed length");
        let offset = r.u64()?;
        let len = r.u64()?;
        let sha: [u8; 32] = r.take_raw(32)?.try_into().expect("fixed length");
        entries.push((tag, offset, len, sha));
    }
    let header_len = 8 + 4 + 4 + count * ENTRY_SIZE;
    let recorded_msha = r.take_raw(32)?;
    if sha256(&bytes[..header_len]) != recorded_msha {
        return Err(SnapshotError::ManifestChecksum);
    }
    let payload_area = &bytes[header_len + 32..];
    let mut out: Vec<([u8; 4], &[u8])> = Vec::with_capacity(count);
    for (tag, offset, len, sha) in entries {
        if out.iter().any(|(t, _)| *t == tag) {
            return Err(SnapshotError::DuplicateSection { tag });
        }
        let end = offset.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > payload_area.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        let payload = &payload_area[offset as usize..end as usize];
        if sha256(payload) != sha {
            return Err(SnapshotError::SectionChecksum { tag });
        }
        out.push((tag, payload));
    }
    Ok(out)
}

fn section<'a>(sections: &[([u8; 4], &'a [u8])], tag: [u8; 4]) -> Result<&'a [u8], SnapshotError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| *p)
        .ok_or(SnapshotError::MissingSection { tag })
}

/// Verify a snapshot's structure and checksums without restoring it (the
/// fast path for checkpoint self-checks after fault injection).
///
/// # Errors
///
/// The same structural errors [`restore`] reports, minus section parsing.
pub fn validate(bytes: &[u8]) -> Result<(), SnapshotError> {
    sections(bytes).map(|_| ())
}

/// Rebuild a kernel from [`save`] bytes, attaching `engine` (a freshly
/// constructed engine of the same kind the snapshot was taken under; its
/// bookkeeping is restored from the snapshot's engine section).
///
/// # Errors
///
/// Any structural, checksum or semantic violation in the byte stream
/// returns a [`SnapshotError`]. Corrupted snapshots never panic — callers
/// degrade to an earlier checkpoint or a cold boot.
pub fn restore(
    bytes: &[u8],
    mut engine: Box<dyn ProtectionEngine>,
) -> Result<Kernel, SnapshotError> {
    let secs = sections(bytes)?;
    // Engine identity first: mismatches are config errors, reported as such
    // even when the rest of the snapshot is fine.
    let mut er = Reader::new(section(&secs, *b"ENGN")?);
    let expected = er.str()?;
    if expected != engine.name() {
        return Err(SnapshotError::EngineMismatch {
            expected,
            found: engine.name().to_string(),
        });
    }
    let engine_state = er.bytes()?;
    done(&er)?;
    let config = load_config(section(&secs, *b"CONF")?)?;
    let machine = msnap::load_machine(section(&secs, *b"MACH")?)?;
    let procs = load_procs(section(&secs, *b"PROC")?)?;
    let frames = load_frames(section(&secs, *b"FRAM")?)?;
    let sched = load_sched(section(&secs, *b"SCHD")?)?;
    let fs = load_fs(section(&secs, *b"FSYS")?)?;
    let pipes = load_pipes(section(&secs, *b"PIPE")?)?;
    let net = load_net(section(&secs, *b"NETW")?)?;
    let events = load_events(section(&secs, *b"EVNT")?)?;
    let (rng, chaos) = load_rand(section(&secs, *b"RAND")?)?;
    let stats = load_kstats(section(&secs, *b"KSTA")?)?;
    engine
        .restore_state(&engine_state)
        .map_err(|_| SnapshotError::Malformed("engine state rejected"))?;
    // The cached live count is transient bookkeeping, not snapshot state:
    // recompute it from the restored process table (format unchanged).
    let live_count = procs
        .values()
        .filter(|p| p.state != ProcState::Zombie)
        .count();
    let mut sys = System {
        machine,
        frames,
        procs,
        pipes,
        fs,
        net,
        events,
        config,
        rng,
        stats,
        current: sched.current,
        chaos,
        run_queue: sched.run_queue,
        next_pid: sched.next_pid,
        live_count,
        loaded_cr3_for: sched.loaded_cr3_for,
        preempt: sched.preempt,
        watchdog: sched.watchdog,
        livelocked: sched.livelocked,
    };
    // The CFI event stream is transient engine-derived config, never part
    // of the machine dump: re-arm it exactly as Kernel::new does.
    sys.machine.config.cfi_events = engine.wants_cfi_events();
    Ok(Kernel { sys, engine })
}

/// Apply one chaos-scheduled corruption to serialized snapshot bytes. The
/// corruption site is drawn deterministically from `seed` (callers pass
/// something derived from the chaos stream so replays corrupt identically).
pub fn corrupt_snapshot(bytes: &mut Vec<u8>, fault: SnapshotFault, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    match fault {
        SnapshotFault::Truncate => {
            if bytes.is_empty() {
                return;
            }
            let cut = rng.next_u64() as usize % bytes.len();
            bytes.truncate(cut);
        }
        SnapshotFault::BitFlip => {
            if bytes.is_empty() {
                return;
            }
            let bit = rng.next_u64() as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        SnapshotFault::SectionReorder => {
            // Swap two whole manifest entries without touching the manifest
            // hash — each entry stays self-consistent, so only the manifest
            // checksum can catch it.
            let base = 8 + 4 + 4;
            let count = if bytes.len() >= base {
                u32::from_le_bytes(bytes[base - 4..base].try_into().expect("fixed")) as usize
            } else {
                0
            };
            if count < 2 || bytes.len() < base + count * ENTRY_SIZE {
                // Degenerate container: fall back to a bit flip.
                corrupt_snapshot(bytes, SnapshotFault::BitFlip, seed ^ 1);
                return;
            }
            let i = rng.next_u64() as usize % count;
            let mut j = rng.next_u64() as usize % count;
            if i == j {
                j = (j + 1) % count;
            }
            for b in 0..ENTRY_SIZE {
                bytes.swap(base + i * ENTRY_SIZE + b, base + j * ENTRY_SIZE + b);
            }
        }
        SnapshotFault::VersionSkew => {
            if bytes.len() >= 12 {
                let v = u32::from_le_bytes(bytes[8..12].try_into().expect("fixed"));
                bytes[8..12].copy_from_slice(&v.wrapping_add(1).to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use crate::kernel::RunExit;
    use crate::userlib::ProgramBuilder;

    fn busy_kernel() -> Kernel {
        let mut k = Kernel::with_engine(Box::new(NullEngine));
        k.sys.fs.install("/etc/motd", b"welcome\n".to_vec());
        k.sys.fs.install("/bin/true", vec![1, 2, 3]);
        let id = k.sys.pipes.create();
        k.sys.pipes.get_mut(id).write(b"buffered");
        k.sys.net.listen(8080);
        k.sys.net.connect(&mut k.sys.pipes, 8080);
        k.sys.log(Event::Note("checkpoint test".into()));
        k.sys.stats.syscalls = 7;
        k.sys.rng.next_u64();
        k
    }

    #[test]
    fn roundtrip_is_canonical() {
        let k = busy_kernel();
        let bytes = save(&k);
        let restored = restore(&bytes, Box::new(NullEngine)).unwrap();
        assert_eq!(save(&restored), bytes);
        assert_eq!(restored.sys.fs.file("/etc/motd").unwrap(), b"welcome\n");
        assert_eq!(restored.sys.net.backlog(8080), 1);
        assert_eq!(restored.sys.stats.syscalls, 7);
        assert_eq!(restored.sys.events.len(), 1);
        assert_eq!(
            restored.sys.rng.state(),
            k.sys.rng.state(),
            "RNG stream resumes exactly"
        );
    }

    #[test]
    fn interrupted_program_resumes_identically() {
        let prog = ProgramBuilder::new("/bin/hello")
            .code(
                "_start:
                    mov ecx, 200
                again:
                    push ecx
                    mov esi, msg
                    call print
                    pop ecx
                    dec ecx
                    cmp ecx, 0
                    jne again
                    mov ebx, 0
                    call exit",
            )
            .data("msg: .asciz \"hi\\n\"")
            .build()
            .unwrap();
        // Code caches restore cold (they are host state, not architectural
        // state) and must not show in any counter the checks below compare.
        let mut a = Kernel::with_engine(Box::new(NullEngine));
        let pid = a.spawn(&prog.image).unwrap();
        // Interrupt mid-program, checkpoint, and race the original against
        // the restored copy to completion.
        assert_eq!(a.run(2_000), RunExit::CyclesExhausted);
        let bytes = save(&a);
        let mut b = restore(&bytes, Box::new(NullEngine)).unwrap();
        let ea = a.run(50_000_000);
        let eb = b.run(50_000_000);
        assert_eq!(ea, RunExit::AllExited);
        assert_eq!(ea, eb);
        assert_eq!(a.sys.machine.cycles, b.sys.machine.cycles);
        assert_eq!(a.sys.machine.stats, b.sys.machine.stats);
        assert_eq!(a.sys.machine.itlb.stats, b.sys.machine.itlb.stats);
        assert_eq!(a.sys.machine.dtlb.stats, b.sys.machine.dtlb.stats);
        assert_eq!(a.sys.stats, b.sys.stats);
        assert_eq!(a.sys.proc(pid).output, b.sys.proc(pid).output);
        assert_eq!(b.sys.proc(pid).output_string(), "hi\n".repeat(200));
        assert_eq!(a.sys.proc(pid).exit_code, b.sys.proc(pid).exit_code);
        // The continued halves serialize identically too.
        assert_eq!(save(&a), save(&b));
    }

    #[test]
    fn every_fault_kind_is_detected() {
        let bytes = save(&busy_kernel());
        assert!(validate(&bytes).is_ok());
        for seed in 0..16 {
            for fault in [
                SnapshotFault::Truncate,
                SnapshotFault::BitFlip,
                SnapshotFault::SectionReorder,
                SnapshotFault::VersionSkew,
            ] {
                let mut corrupt = bytes.clone();
                corrupt_snapshot(&mut corrupt, fault, seed);
                if corrupt == bytes {
                    continue; // zero-length truncate draw etc.
                }
                let err = restore(&corrupt, Box::new(NullEngine))
                    .err()
                    .unwrap_or_else(|| panic!("{fault:?} seed {seed} loaded"));
                match fault {
                    SnapshotFault::VersionSkew => {
                        assert!(matches!(err, SnapshotError::UnsupportedVersion { .. }));
                    }
                    SnapshotFault::SectionReorder => {
                        assert_eq!(err, SnapshotError::ManifestChecksum);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn engine_mismatch_is_typed() {
        struct OtherEngine;
        impl ProtectionEngine for OtherEngine {
            fn name(&self) -> &'static str {
                "other"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let bytes = save(&busy_kernel());
        let err = match restore(&bytes, Box::new(OtherEngine)) {
            Ok(_) => panic!("mismatched engine loaded"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            SnapshotError::EngineMismatch {
                expected: "unprotected".into(),
                found: "other".into(),
            }
        );
    }

    #[test]
    fn missing_section_is_typed() {
        // Rebuild a container with one section dropped; the manifest is
        // re-hashed so only the missing tag trips.
        let bytes = save(&busy_kernel());
        let secs = sections(&bytes).unwrap();
        let kept: Vec<([u8; 4], Vec<u8>)> = secs
            .iter()
            .filter(|(t, _)| t != b"KSTA")
            .map(|(t, p)| (*t, p.to_vec()))
            .collect();
        let mut header = Writer::new();
        header.raw(&MAGIC);
        header.u32(VERSION);
        header.u32(kept.len() as u32);
        let mut offset = 0u64;
        for (tag, payload) in &kept {
            header.raw(tag);
            header.u64(offset);
            header.u64(payload.len() as u64);
            header.raw(&sha256(payload));
            offset += payload.len() as u64;
        }
        let mut out = header.into_bytes();
        let msha = sha256(&out);
        out.extend_from_slice(&msha);
        for (_, payload) in kept {
            out.extend_from_slice(&payload);
        }
        let err = match restore(&out, Box::new(NullEngine)) {
            Ok(_) => panic!("snapshot with missing section loaded"),
            Err(e) => e,
        };
        assert_eq!(err, SnapshotError::MissingSection { tag: *b"KSTA" });
    }
}
