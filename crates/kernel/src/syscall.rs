//! System call numbers, errno values and the dispatcher.
//!
//! The ABI follows Linux/x86 conventions: `int 0x80`, call number in `eax`,
//! arguments in `ebx`/`ecx`/`edx`, result (or negative errno) back in
//! `eax`. Numbers match Linux where an equivalent exists, so the paper's
//! shellcode (`exit(0)` = `mov eax, 1; int 0x80`) works verbatim; the
//! loopback-network and reproduction-specific calls live at 200+.

use crate::addrspace::AddressSpace;
use crate::events::Event;
use crate::fs;
use crate::image::ExecImage;
use crate::kernel::Kernel;
use crate::process::{FdObject, Pid, ProcState, Process, WaitReason};
use crate::signal::SigAction;
use crate::vma::{Vma, VmaKind};
use sm_machine::cpu::Reg;
use sm_machine::pte::{self, PAGE_SIZE};

/// `exit(status)`.
pub const SYS_EXIT: u32 = 1;
/// `fork()`.
pub const SYS_FORK: u32 = 2;
/// `read(fd, buf, len)`.
pub const SYS_READ: u32 = 3;
/// `write(fd, buf, len)`.
pub const SYS_WRITE: u32 = 4;
/// `open(path, flags)`.
pub const SYS_OPEN: u32 = 5;
/// `close(fd)`.
pub const SYS_CLOSE: u32 = 6;
/// `waitpid(pid, status_ptr)`.
pub const SYS_WAITPID: u32 = 7;
/// `execve(path)`.
pub const SYS_EXECVE: u32 = 11;
/// `time()` — coarse simulated clock.
pub const SYS_TIME: u32 = 13;
/// `lseek(fd, offset, whence)`.
pub const SYS_LSEEK: u32 = 19;
/// `getpid()`.
pub const SYS_GETPID: u32 = 20;
/// `pause()`.
pub const SYS_PAUSE: u32 = 29;
/// `kill(pid, sig)`.
pub const SYS_KILL: u32 = 37;
/// `dup(fd)`.
pub const SYS_DUP: u32 = 41;
/// `dup2(oldfd, newfd)`.
pub const SYS_DUP2: u32 = 63;
/// `pipe(fds[2])`.
pub const SYS_PIPE: u32 = 42;
/// `brk(addr)`.
pub const SYS_BRK: u32 = 45;
/// `signal(sig, handler)`; handler 0 = default, 1 = ignore.
pub const SYS_SIGNAL: u32 = 48;
/// `mmap(len, prot)` — kernel chooses the address.
pub const SYS_MMAP: u32 = 90;
/// `munmap(addr, len)`.
pub const SYS_MUNMAP: u32 = 91;
/// `sigreturn()` — only called by the kernel's stack trampoline.
pub const SYS_SIGRETURN: u32 = 119;
/// `sched_yield()`.
pub const SYS_YIELD: u32 = 158;
/// `netlisten(port)`.
pub const SYS_LISTEN: u32 = 200;
/// `netaccept(port)` → connected socket fd.
pub const SYS_ACCEPT: u32 = 201;
/// `netconnect(port)` → connected socket fd.
pub const SYS_CONNECT: u32 = 202;
/// `dlopen(path)` → library base address (runtime dynamic loading, §4.3).
pub const SYS_DLOPEN: u32 = 210;
/// `register_recovery(handler)` — the paper's recovery response mode hook.
pub const SYS_REGISTER_RECOVERY: u32 = 211;

/// No such file.
pub const ENOENT: i32 = -2;
/// No such process.
pub const ESRCH: i32 = -3;
/// I/O error (injected by the chaos harness's disk-fault plans).
pub const EIO: i32 = -5;
/// Bad file descriptor.
pub const EBADF: i32 = -9;
/// No waitable child.
pub const ECHILD: i32 = -10;
/// Out of memory.
pub const ENOMEM: i32 = -12;
/// Permission denied (library verification failures surface as this).
pub const EACCES: i32 = -13;
/// Bad address.
pub const EFAULT: i32 = -14;
/// Invalid argument.
pub const EINVAL: i32 = -22;
/// File too large: a write starts at or past [`fs::MAX_FILE_BYTES`].
pub const EFBIG: i32 = -27;
/// Broken pipe.
pub const EPIPE: i32 = -32;
/// Function not implemented.
pub const ENOSYS: i32 = -38;
/// Address in use.
pub const EADDRINUSE: i32 = -98;

enum Outcome {
    /// Write the value to `eax` and keep running.
    Ret(i32),
    /// Park the process and restart the `int 0x80` on wake.
    Block(WaitReason),
    /// Registers were replaced wholesale (exit / execve / sigreturn).
    NoReturn,
    /// Return 0 and end the time slice (sched_yield).
    Yield,
}

/// Dispatch the system call currently latched in the CPU registers of the
/// running process `pid`.
pub(crate) fn handle(k: &mut Kernel, pid: Pid) {
    let regs = k.sys.machine.cpu.regs;
    let nr = regs.get(Reg::Eax);
    let a1 = regs.get(Reg::Ebx);
    let a2 = regs.get(Reg::Ecx);
    let a3 = regs.get(Reg::Edx);
    let outcome = dispatch(k, pid, nr, a1, a2, a3);
    match outcome {
        Outcome::Ret(v) => k.sys.machine.cpu.regs.set(Reg::Eax, v as u32),
        Outcome::Block(reason) => {
            let p = k.sys.proc_mut(pid);
            p.state = ProcState::Blocked(reason);
            // Rewind over the 2-byte `int 0x80` so the call restarts on
            // wake-up with its argument registers intact.
            k.sys.machine.cpu.regs.eip = k.sys.machine.cpu.regs.eip.wrapping_sub(2);
        }
        Outcome::NoReturn => {}
        Outcome::Yield => {
            k.sys.machine.cpu.regs.set(Reg::Eax, 0);
            // End the slice; the scheduler re-queues the (still Ready)
            // process after saving its context.
            k.sys.preempt = true;
        }
    }
}

#[allow(clippy::too_many_lines)]
fn dispatch(k: &mut Kernel, pid: Pid, nr: u32, a1: u32, a2: u32, a3: u32) -> Outcome {
    match nr {
        SYS_EXIT => {
            k.do_exit(pid, a1 as i32);
            Outcome::NoReturn
        }
        SYS_FORK => sys_fork(k, pid),
        SYS_READ => sys_read(k, pid, a1, a2, a3),
        SYS_WRITE => sys_write(k, pid, a1, a2, a3),
        SYS_OPEN => sys_open(k, pid, a1, a2),
        SYS_CLOSE => match k.sys.proc_mut(pid).take_fd(a1) {
            Some(obj) => {
                k.close_fd_object(obj);
                Outcome::Ret(0)
            }
            None => Outcome::Ret(EBADF),
        },
        SYS_WAITPID => sys_waitpid(k, pid, a1 as i32, a2),
        SYS_EXECVE => sys_execve(k, pid, a1),
        SYS_TIME => Outcome::Ret((k.sys.machine.cycles >> 10) as i32),
        SYS_LSEEK => sys_lseek(k, pid, a1, a2 as i32, a3),
        SYS_GETPID => Outcome::Ret(pid.0 as i32),
        SYS_PAUSE => Outcome::Block(WaitReason::Pause),
        SYS_KILL => {
            let target = Pid(a1);
            if k.sys.procs.contains_key(&a1) {
                k.raise_signal(target, a2 as u8);
                Outcome::Ret(0)
            } else {
                Outcome::Ret(ESRCH)
            }
        }
        SYS_DUP => sys_dup(k, pid, a1),
        SYS_DUP2 => sys_dup2(k, pid, a1, a2),
        SYS_PIPE => sys_pipe(k, pid, a1),
        SYS_BRK => sys_brk(k, pid, a1),
        SYS_SIGNAL => {
            let act = match a2 {
                0 => SigAction::Default,
                1 => SigAction::Ignore,
                addr => SigAction::Handler(addr),
            };
            if k.sys.proc_mut(pid).signals.set_action(a1 as u8, act) {
                Outcome::Ret(0)
            } else {
                Outcome::Ret(EINVAL)
            }
        }
        SYS_MMAP => sys_mmap(k, pid, a1, a2),
        SYS_MUNMAP => sys_munmap(k, pid, a1, a2),
        SYS_SIGRETURN => match k.sys.proc_mut(pid).signals.saved_context.take() {
            Some(saved) => {
                k.sys.machine.cpu.regs = saved;
                Outcome::NoReturn
            }
            None => Outcome::Ret(EINVAL),
        },
        SYS_YIELD => Outcome::Yield,
        SYS_LISTEN => {
            if k.sys.net.listen(a1 as u16) {
                k.sys.wake_where(|r| *r == WaitReason::Connect(a1 as u16));
                Outcome::Ret(0)
            } else {
                Outcome::Ret(EADDRINUSE)
            }
        }
        SYS_ACCEPT => sys_accept(k, pid, a1 as u16),
        SYS_CONNECT => sys_connect(k, pid, a1 as u16),
        SYS_DLOPEN => sys_dlopen(k, pid, a1),
        SYS_REGISTER_RECOVERY => {
            k.sys.proc_mut(pid).recovery_handler = Some(a1);
            Outcome::Ret(0)
        }
        _ => Outcome::Ret(ENOSYS),
    }
}

fn sys_fork(k: &mut Kernel, pid: Pid) -> Outcome {
    let child_pid = k.sys.alloc_pid();
    let child_aspace = {
        let sys = &mut k.sys;
        let parent = sys.procs.get_mut(&pid.0).expect("pid");
        match parent.aspace.fork_copy(&mut sys.machine, &mut sys.frames) {
            Ok(a) => a,
            Err(_) => return Outcome::Ret(ENOMEM),
        }
    };
    let (name, fds, signals, honeypot) = {
        let p = k.sys.proc(pid);
        (
            p.name.clone(),
            p.fds.clone(),
            p.signals.clone(),
            p.honeypot_log,
        )
    };
    let mut child = Process::new(child_pid, pid, name, child_aspace);
    child.fds = fds;
    child.signals = signals;
    child.signals.pending.clear();
    child.signals.saved_context = None;
    child.honeypot_log = honeypot;
    // Child resumes after the int with eax = 0.
    child.ctx = k.sys.machine.cpu.regs;
    child.ctx.set(Reg::Eax, 0);
    // Duplicate pipe endpoints.
    for fd in child.fds.iter().flatten() {
        match fd {
            FdObject::PipeRead(id) => k.sys.pipes.add_reader(*id),
            FdObject::PipeWrite(id) => k.sys.pipes.add_writer(*id),
            FdObject::Socket { rx, tx } => {
                k.sys.pipes.add_reader(*rx);
                k.sys.pipes.add_writer(*tx);
            }
            _ => {}
        }
    }
    k.sys.procs.insert(child_pid.0, child);
    k.sys.live_count += 1;
    k.sys.stats.processes_spawned += 1;
    k.sys.enqueue(child_pid);
    k.engine.on_fork(&mut k.sys, pid, child_pid);
    k.sys
        .trace(sm_trace::mask::COW, || sm_trace::TraceEvent::CowShare {
            parent: pid.0,
            child: child_pid.0,
        });
    Outcome::Ret(child_pid.0 as i32)
}

fn sys_read(k: &mut Kernel, pid: Pid, fd: u32, buf: u32, len: u32) -> Outcome {
    let Some(obj) = k.sys.proc(pid).fd(fd).cloned() else {
        return Outcome::Ret(EBADF);
    };
    let data: Vec<u8> = match obj {
        FdObject::Console => {
            let p = k.sys.proc_mut(pid);
            let n = (len as usize).min(p.input.len());
            p.input.drain(..n).collect()
        }
        FdObject::File {
            path,
            offset,
            flags,
        } => {
            // Disk faults are drawn before the transfer: a failed read
            // moves no bytes and leaves the file offset where it was.
            let fault = k.sys.chaos_fs_fault();
            if fault.error {
                return Outcome::Ret(EIO);
            }
            let want = if fault.short {
                (len as usize).min(1)
            } else {
                len as usize
            };
            let Some(data) = k.sys.fs.read_at(&path, offset as usize, want) else {
                return Outcome::Ret(ENOENT);
            };
            k.sys.proc_mut(pid).fds[fd as usize] = Some(FdObject::File {
                path,
                offset: offset + data.len() as u32,
                flags,
            });
            data
        }
        FdObject::PipeRead(id) | FdObject::Socket { rx: id, .. } => {
            let pipe = k.sys.pipes.get_mut(id);
            if pipe.is_empty() {
                // The calling process itself holds one endpoint of each
                // kind when using sockets; EOF only when no *other* writer
                // can produce bytes.
                let self_writers = count_own_writers(k.sys.proc(pid), id);
                let pipe = k.sys.pipes.get(id);
                if pipe.writers <= self_writers {
                    return Outcome::Ret(0); // EOF
                }
                return Outcome::Block(WaitReason::PipeReadable(id));
            }
            // Sized by what is buffered, never by the guest's `len`.
            let mut tmp = vec![0u8; (len as usize).min(pipe.len())];
            pipe.read(&mut tmp);
            k.sys.wake_where(|r| *r == WaitReason::PipeWritable(id));
            tmp
        }
        FdObject::PipeWrite(_) => return Outcome::Ret(EBADF),
    };
    if !data.is_empty() && !k.user_write(pid, buf, &data) {
        return Outcome::Ret(EFAULT);
    }
    if k.sys.proc(pid).honeypot_log && !data.is_empty() {
        k.sys.log(Event::SebekRead {
            pid,
            data: data.clone(),
        });
    }
    Outcome::Ret(data.len() as i32)
}

/// Endpoints of pipe `id` held by this process itself (so a process
/// blocked reading its own socket doesn't see its own write end as a
/// "live writer").
fn count_own_writers(p: &Process, id: fs::PipeId) -> u32 {
    p.fds
        .iter()
        .flatten()
        .filter(|f| {
            matches!(f, FdObject::PipeWrite(w) if *w == id)
                || matches!(f, FdObject::Socket { tx, .. } if *tx == id)
        })
        .count() as u32
}

fn sys_write(k: &mut Kernel, pid: Pid, fd: u32, buf: u32, len: u32) -> Outcome {
    let Some(obj) = k.sys.proc(pid).fd(fd).cloned() else {
        return Outcome::Ret(EBADF);
    };
    let Some(data) = k.user_read(pid, buf, len) else {
        return Outcome::Ret(EFAULT);
    };
    match obj {
        FdObject::Console => {
            k.sys.proc_mut(pid).output.extend_from_slice(&data);
            Outcome::Ret(len as i32)
        }
        FdObject::File {
            path,
            offset,
            flags,
        } => {
            if flags & (fs::O_WRONLY | fs::O_RDWR) == 0 {
                return Outcome::Ret(EBADF);
            }
            let append = flags & fs::O_APPEND != 0;
            let start = if append {
                k.sys.fs.file(&path).map_or(0, Vec::len)
            } else {
                offset as usize
            };
            // POSIX: a write that would cross the size limit writes only
            // the bytes below it; one that starts at the limit fails.
            let room = fs::MAX_FILE_BYTES.saturating_sub(start);
            if room == 0 {
                return Outcome::Ret(EFBIG);
            }
            // Disk faults are drawn after validation but before the
            // transfer: a failed write moves no bytes, a short write
            // commits exactly one and reports it.
            let fault = k.sys.chaos_fs_fault();
            if fault.error {
                return Outcome::Ret(EIO);
            }
            let n = if fault.short {
                data.len().min(1)
            } else {
                data.len()
            }
            .min(room);
            let end = k
                .sys
                .fs
                .write_at(&path, offset as usize, &data[..n], append);
            k.sys.proc_mut(pid).fds[fd as usize] = Some(FdObject::File {
                path,
                offset: end as u32,
                flags,
            });
            Outcome::Ret(n as i32)
        }
        FdObject::PipeWrite(id) | FdObject::Socket { tx: id, .. } => {
            // POSIX semantics: EPIPE only when *no* read end exists
            // anywhere (the writer's own read end counts).
            let pipe = k.sys.pipes.get_mut(id);
            if pipe.readers == 0 {
                return Outcome::Ret(EPIPE);
            }
            if pipe.room() == 0 {
                return Outcome::Block(WaitReason::PipeWritable(id));
            }
            let n = pipe.write(&data);
            k.sys.wake_where(|r| *r == WaitReason::PipeReadable(id));
            Outcome::Ret(n as i32)
        }
        FdObject::PipeRead(_) => Outcome::Ret(EBADF),
    }
}

fn sys_open(k: &mut Kernel, pid: Pid, path_ptr: u32, flags: u32) -> Outcome {
    let Some(path) = k.user_cstr(pid, path_ptr) else {
        return Outcome::Ret(EFAULT);
    };
    if !k.sys.fs.exists(&path) {
        if flags & fs::O_CREAT == 0 {
            return Outcome::Ret(ENOENT);
        }
        k.sys.fs.install(path.clone(), Vec::new());
    } else if flags & fs::O_TRUNC != 0 {
        k.sys.fs.file_mut(&path).clear();
    }
    let fd = k.sys.proc_mut(pid).install_fd(FdObject::File {
        path,
        offset: 0,
        flags,
    });
    Outcome::Ret(fd as i32)
}

fn sys_waitpid(k: &mut Kernel, pid: Pid, target: i32, status_ptr: u32) -> Outcome {
    let zombie = k
        .sys
        .procs
        .values()
        .find(|p| {
            p.ppid == pid
                && p.pid != pid
                && p.state == ProcState::Zombie
                && (target == -1 || p.pid.0 == target as u32)
        })
        .map(|p| (p.pid, p.exit_code.unwrap_or(0)));
    if let Some((child, code)) = zombie {
        k.sys.procs.remove(&child.0);
        if status_ptr != 0 && !k.user_write(pid, status_ptr, &(code as u32).to_le_bytes()) {
            return Outcome::Ret(EFAULT);
        }
        return Outcome::Ret(child.0 as i32);
    }
    let has_children = k
        .sys
        .procs
        .values()
        .any(|p| p.ppid == pid && p.pid != pid && (target == -1 || p.pid.0 == target as u32));
    if has_children {
        Outcome::Block(WaitReason::Child)
    } else {
        Outcome::Ret(ECHILD)
    }
}

fn sys_execve(k: &mut Kernel, pid: Pid, path_ptr: u32) -> Outcome {
    let Some(path) = k.user_cstr(pid, path_ptr) else {
        return Outcome::Ret(EFAULT);
    };
    // The image read happens *before* teardown, so a disk fault here
    // leaves the calling process intact: EIO to the caller, old address
    // space untouched. A short read truncates the image, which then fails
    // to parse the same way a corrupt file would.
    let fault = k.sys.chaos_fs_fault();
    if fault.error {
        return Outcome::Ret(EIO);
    }
    let Some(mut bytes) = k.sys.fs.file(&path).cloned() else {
        return Outcome::Ret(ENOENT);
    };
    if fault.short {
        bytes.truncate(1);
    }
    let Ok(image) = ExecImage::from_bytes(&bytes) else {
        return Outcome::Ret(ENOENT);
    };
    // Tear down the old address space (engine first: split frames).
    k.engine.on_teardown(&mut k.sys, pid);
    let rebuilt = {
        let sys = &mut k.sys;
        let p = sys.procs.get_mut(&pid.0).expect("pid");
        p.aspace.free_all(&mut sys.machine, &mut sys.frames);
        AddressSpace::new(&mut sys.machine, &mut sys.frames)
    };
    let Ok(aspace) = rebuilt else {
        // The old image is gone and no new address space can be built:
        // nothing to return to — exit the process cleanly.
        k.do_exit(pid, 127);
        return Outcome::NoReturn;
    };
    {
        let p = k.sys.procs.get_mut(&pid.0).expect("pid");
        p.aspace = aspace;
        p.signals.reset_on_exec();
        p.pending_step_addr = None;
        p.recovery_handler = None;
        p.name = path.clone();
    }
    if crate::loader::load_into(k, pid, &image).is_err() {
        // Old image is gone; nothing to return to.
        k.do_exit(pid, 127);
        return Outcome::NoReturn;
    }
    k.sys.stats.processes_spawned += 1;
    k.sys.log(Event::Exec { pid, path });
    // The current process got a brand-new context: load it onto the CPU.
    let ctx = k.sys.proc(pid).ctx;
    let dir = k.sys.proc(pid).aspace.dir;
    // Registers first: set_cr3 writes the CR3 field inside the file.
    k.sys.machine.cpu.regs = ctx;
    k.sys.machine.set_cr3(dir);
    k.sys.loaded_cr3_for = Some(pid);
    Outcome::NoReturn
}

fn sys_lseek(k: &mut Kernel, pid: Pid, fd: u32, off: i32, whence: u32) -> Outcome {
    let Some(FdObject::File {
        path,
        offset,
        flags,
    }) = k.sys.proc(pid).fd(fd).cloned()
    else {
        return Outcome::Ret(EBADF);
    };
    let size = k.sys.fs.file(&path).map_or(0, Vec::len) as i64;
    let base = match whence {
        0 => 0i64,
        1 => offset as i64,
        2 => size,
        _ => return Outcome::Ret(EINVAL),
    };
    let new = base + off as i64;
    if !(0..=u32::MAX as i64).contains(&new) {
        return Outcome::Ret(EINVAL);
    }
    k.sys.proc_mut(pid).fds[fd as usize] = Some(FdObject::File {
        path,
        offset: new as u32,
        flags,
    });
    Outcome::Ret(new as i32)
}

fn sys_dup(k: &mut Kernel, pid: Pid, fd: u32) -> Outcome {
    let Some(obj) = k.sys.proc(pid).fd(fd).cloned() else {
        return Outcome::Ret(EBADF);
    };
    match &obj {
        FdObject::PipeRead(id) => k.sys.pipes.add_reader(*id),
        FdObject::PipeWrite(id) => k.sys.pipes.add_writer(*id),
        FdObject::Socket { rx, tx } => {
            k.sys.pipes.add_reader(*rx);
            k.sys.pipes.add_writer(*tx);
        }
        _ => {}
    }
    Outcome::Ret(k.sys.proc_mut(pid).install_fd(obj) as i32)
}

fn sys_dup2(k: &mut Kernel, pid: Pid, oldfd: u32, newfd: u32) -> Outcome {
    let Some(obj) = k.sys.proc(pid).fd(oldfd).cloned() else {
        return Outcome::Ret(EBADF);
    };
    if oldfd == newfd {
        return Outcome::Ret(newfd as i32);
    }
    if newfd > 64 {
        return Outcome::Ret(EBADF);
    }
    match &obj {
        FdObject::PipeRead(id) => k.sys.pipes.add_reader(*id),
        FdObject::PipeWrite(id) => k.sys.pipes.add_writer(*id),
        FdObject::Socket { rx, tx } => {
            k.sys.pipes.add_reader(*rx);
            k.sys.pipes.add_writer(*tx);
        }
        _ => {}
    }
    if let Some(old) = k.sys.proc_mut(pid).take_fd(newfd) {
        k.close_fd_object(old);
    }
    let p = k.sys.proc_mut(pid);
    while p.fds.len() <= newfd as usize {
        p.fds.push(None);
    }
    p.fds[newfd as usize] = Some(obj);
    Outcome::Ret(newfd as i32)
}

fn sys_pipe(k: &mut Kernel, pid: Pid, fds_ptr: u32) -> Outcome {
    let cap = k.sys.config.pipe_capacity;
    let id = k.sys.pipes.create_with_capacity(cap);
    let r = k.sys.proc_mut(pid).install_fd(FdObject::PipeRead(id));
    let w = k.sys.proc_mut(pid).install_fd(FdObject::PipeWrite(id));
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&r.to_le_bytes());
    bytes[4..].copy_from_slice(&w.to_le_bytes());
    if !k.user_write(pid, fds_ptr, &bytes) {
        return Outcome::Ret(EFAULT);
    }
    Outcome::Ret(0)
}

fn sys_brk(k: &mut Kernel, pid: Pid, addr: u32) -> Outcome {
    let (brk_start, brk) = {
        let a = &k.sys.proc(pid).aspace;
        (a.brk_start, a.brk)
    };
    if addr == 0 {
        return Outcome::Ret(brk as i32);
    }
    if addr < brk_start || addr > brk_start + k.sys.config.heap_limit {
        return Outcome::Ret(ENOMEM);
    }
    let new_end = pte::page_align_up(addr);
    let p = k.sys.proc_mut(pid);
    let existing = p.aspace.vmas.iter_mut().find(|v| v.kind == VmaKind::Heap);
    match existing {
        Some(v) => {
            v.end = v.end.max(new_end.max(v.start + PAGE_SIZE));
        }
        None => {
            if new_end > brk_start {
                p.aspace.add_vma(Vma::new(
                    brk_start,
                    new_end,
                    crate::image::SEG_R | crate::image::SEG_W,
                    VmaKind::Heap,
                    "heap",
                ));
            }
        }
    }
    p.aspace.brk = addr;
    Outcome::Ret(addr as i32)
}

fn sys_mmap(k: &mut Kernel, pid: Pid, len: u32, prot: u32) -> Outcome {
    if len == 0 {
        return Outcome::Ret(EINVAL);
    }
    let size = pte::page_align_up(len);
    let p = k.sys.proc_mut(pid);
    let base = p.aspace.mmap_next;
    p.aspace.mmap_next = base + size + PAGE_SIZE; // guard gap
    let flags = (prot & 7) as u8; // PROT_READ/WRITE/EXEC match SEG_R/W/X
    p.aspace
        .add_vma(Vma::new(base, base + size, flags, VmaKind::Mmap, "mmap"));
    Outcome::Ret(base as i32)
}

fn sys_munmap(k: &mut Kernel, pid: Pid, addr: u32, _len: u32) -> Outcome {
    let Some(vma) = k
        .sys
        .proc(pid)
        .aspace
        .vmas
        .iter()
        .find(|v| v.start == addr && v.kind == VmaKind::Mmap)
        .cloned()
    else {
        return Outcome::Ret(EINVAL);
    };
    k.engine.on_unmap(&mut k.sys, pid, vma.start, vma.end);
    let present = {
        let p = k.sys.proc(pid);
        p.aspace.present_ptes(&k.sys.machine, vma.start, vma.end)
    };
    for (vaddr, entry) in present {
        k.sys.release_frame(pte::frame(entry));
        k.sys.set_pte(pid, vaddr, 0);
        k.sys.machine.invlpg(vaddr);
    }
    k.sys.proc_mut(pid).aspace.remove_vma(vma.start);
    Outcome::Ret(0)
}

fn sys_accept(k: &mut Kernel, pid: Pid, port: u16) -> Outcome {
    if !k.sys.net.has_listener(port) {
        return Outcome::Ret(EINVAL);
    }
    match k.sys.net.accept(port) {
        Some(conn) => {
            let fd = k.sys.proc_mut(pid).install_fd(FdObject::Socket {
                rx: conn.c2s,
                tx: conn.s2c,
            });
            Outcome::Ret(fd as i32)
        }
        None => Outcome::Block(WaitReason::Accept(port)),
    }
}

fn sys_connect(k: &mut Kernel, pid: Pid, port: u16) -> Outcome {
    match k.sys.net.connect(&mut k.sys.pipes, port) {
        Some(conn) => {
            let fd = k.sys.proc_mut(pid).install_fd(FdObject::Socket {
                rx: conn.s2c,
                tx: conn.c2s,
            });
            k.sys.wake_where(|r| *r == WaitReason::Accept(port));
            Outcome::Ret(fd as i32)
        }
        None => Outcome::Block(WaitReason::Connect(port)),
    }
}

fn sys_dlopen(k: &mut Kernel, pid: Pid, path_ptr: u32) -> Outcome {
    let Some(path) = k.user_cstr(pid, path_ptr) else {
        return Outcome::Ret(EFAULT);
    };
    match crate::loader::load_library(k, pid, &path) {
        Ok(base) => Outcome::Ret(base as i32),
        Err(crate::kernel::SpawnError::VerificationFailed(_)) => Outcome::Ret(EACCES),
        Err(crate::kernel::SpawnError::Io(_)) => Outcome::Ret(EIO),
        Err(_) => Outcome::Ret(ENOENT),
    }
}
