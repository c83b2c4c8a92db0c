//! Guest-driven syscall tests: each test runs a real guest program and
//! asserts on its observable behaviour (exit status, console output,
//! filesystem state).

use sm_kernel::engine::NullEngine;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::MachineConfig;

fn kernel() -> Kernel {
    Kernel::with_engine(Box::new(NullEngine))
}

fn run_to_exit(k: &mut Kernel, prog: &BuiltProgram) -> (sm_kernel::Pid, Option<i32>) {
    let pid = k.spawn(&prog.image).expect("spawn");
    assert_eq!(k.run(100_000_000), RunExit::AllExited, "guest did not exit");
    let code = k.sys.proc(pid).exit_code;
    (pid, code)
}

#[test]
fn file_write_read_roundtrip() {
    let prog = ProgramBuilder::new("/bin/fio")
        .code(
            "_start:
                ; creat + write
                mov eax, SYS_OPEN
                mov ebx, path
                mov ecx, 0x241        ; O_WRONLY|O_CREAT|O_TRUNC
                int 0x80
                mov [fd], eax
                mov eax, SYS_WRITE
                mov ebx, [fd]
                mov ecx, content
                mov edx, 11
                int 0x80
                mov eax, SYS_CLOSE
                mov ebx, [fd]
                int 0x80
                ; reopen + read back
                mov eax, SYS_OPEN
                mov ebx, path
                mov ecx, 0
                int 0x80
                mov [fd], eax
                mov eax, SYS_READ
                mov ebx, [fd]
                mov ecx, buf
                mov edx, 32
                int 0x80
                cmp eax, 11
                jne bad
                mov esi, buf
                mov edi, content
                call strcmp
                cmp eax, 0
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data(
            "path: .asciz \"/tmp/t\"
             fd: .word 0
             content: .asciz \"hello files\"
             buf: .space 32",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
    assert!(k.sys.fs.file("/tmp/t").unwrap().starts_with(b"hello files"));
}

#[test]
fn lseek_repositions_the_cursor() {
    let prog = ProgramBuilder::new("/bin/seek")
        .code(
            "_start:
                mov eax, SYS_OPEN
                mov ebx, path
                mov ecx, 0x241
                int 0x80
                mov [fd], eax
                mov eax, SYS_WRITE
                mov ebx, [fd]
                mov ecx, content
                mov edx, 6
                int 0x80
                ; seek back to offset 2, SEEK_SET
                mov eax, SYS_LSEEK
                mov ebx, [fd]
                mov ecx, 2
                mov edx, 0
                int 0x80
                cmp eax, 2
                jne bad
                ; overwrite two bytes
                mov eax, SYS_WRITE
                mov ebx, [fd]
                mov ecx, patch
                mov edx, 2
                int 0x80
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data(
            "path: .asciz \"/tmp/s\"
             fd: .word 0
             content: .ascii \"abcdef\"
             patch: .ascii \"XY\"",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
    assert_eq!(k.sys.fs.file("/tmp/s").unwrap().as_slice(), b"abXYef");
}

/// A write that would cross `fs::MAX_FILE_BYTES` writes only the bytes
/// below it (POSIX), and the next one, starting at the limit, is EFBIG.
#[test]
fn writes_stop_at_the_file_size_limit() {
    let prog = ProgramBuilder::new("/bin/limit")
        .code(
            "_start:
                mov eax, SYS_OPEN
                mov ebx, path
                mov ecx, 0x241
                int 0x80
                mov [fd], eax
                ; two bytes below the 16 MiB limit, SEEK_SET
                mov eax, SYS_LSEEK
                mov ebx, [fd]
                mov ecx, 0xFFFFFE
                mov edx, 0
                int 0x80
                mov eax, SYS_WRITE
                mov ebx, [fd]
                mov ecx, content
                mov edx, 5
                int 0x80
                cmp eax, 2
                jne bad
                mov eax, SYS_WRITE
                mov ebx, [fd]
                mov ecx, content
                mov edx, 1
                int 0x80
                cmp eax, -27          ; EFBIG
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data(
            "path: .asciz \"/tmp/limit\"
             fd: .word 0
             content: .ascii \"abcde\"",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
    let file = k.sys.fs.file("/tmp/limit").unwrap();
    assert_eq!(file.len(), sm_kernel::fs::MAX_FILE_BYTES);
    assert_eq!(&file[file.len() - 2..], b"ab");
}

#[test]
fn bad_fds_return_ebadf() {
    let prog = ProgramBuilder::new("/bin/badfd")
        .code(
            "_start:
                ; read from an unopened fd
                mov eax, SYS_READ
                mov ebx, 9
                mov ecx, buf
                mov edx, 4
                int 0x80
                cmp eax, -9           ; EBADF
                jne bad
                ; close it twice
                mov eax, SYS_CLOSE
                mov ebx, 0
                int 0x80
                mov eax, SYS_CLOSE
                mov ebx, 0
                int 0x80
                cmp eax, -9
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data("buf: .space 4")
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn open_missing_file_is_enoent() {
    let prog = ProgramBuilder::new("/bin/noent")
        .code(
            "_start:
                mov eax, SYS_OPEN
                mov ebx, path
                mov ecx, 0
                int 0x80
                cmp eax, -2           ; ENOENT
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data("path: .asciz \"/no/such\"")
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn pipe_eof_after_writer_closes() {
    let prog = ProgramBuilder::new("/bin/peof")
        .code(
            "_start:
                mov eax, SYS_PIPE
                mov ebx, fds
                int 0x80
                mov eax, SYS_WRITE
                mov ebx, [fds+4]
                mov ecx, msg
                mov edx, 3
                int 0x80
                ; close the write end
                mov eax, SYS_CLOSE
                mov ebx, [fds+4]
                int 0x80
                ; drain the pipe
                mov eax, SYS_READ
                mov ebx, [fds]
                mov ecx, buf
                mov edx, 16
                int 0x80
                cmp eax, 3
                jne bad3
                ; now EOF, not a block
                mov eax, SYS_READ
                mov ebx, [fds]
                mov ecx, buf
                mov edx, 16
                int 0x80
                cmp eax, 0
                jne bad4
                mov ebx, 0
                call exit
            bad3:
                mov ebx, 3
                call exit
            bad4:
                mov ebx, 4
                call exit",
        )
        .data(
            "fds: .space 8
             msg: .ascii \"abc\"
             buf: .space 16",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn write_to_pipe_with_no_reader_is_epipe() {
    let prog = ProgramBuilder::new("/bin/epipe")
        .code(
            "_start:
                mov eax, SYS_PIPE
                mov ebx, fds
                int 0x80
                mov eax, SYS_CLOSE
                mov ebx, [fds]        ; close the read end
                int 0x80
                mov eax, SYS_WRITE
                mov ebx, [fds+4]
                mov ecx, msg
                mov edx, 3
                int 0x80
                cmp eax, -32          ; EPIPE
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data(
            "fds: .space 8
             msg: .ascii \"xyz\"",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn dup2_redirects_standard_output() {
    let prog = ProgramBuilder::new("/bin/redir")
        .code(
            "_start:
                ; open a file and dup2 it onto stdout
                mov eax, SYS_OPEN
                mov ebx, path
                mov ecx, 0x241
                int 0x80
                mov [fd], eax
                mov ebx, [fd]
                mov ecx, 1
                mov eax, SYS_DUP2
                int 0x80
                ; print goes to the file now
                mov esi, msg
                call print
                mov ebx, 0
                call exit",
        )
        .data(
            "path: .asciz \"/tmp/out\"
             fd: .word 0
             msg: .asciz \"redirected\"",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (pid, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
    assert_eq!(k.sys.fs.file("/tmp/out").unwrap().as_slice(), b"redirected");
    assert!(k.sys.proc(pid).output.is_empty(), "console stayed silent");
}

#[test]
fn mmap_gives_usable_zeroed_memory_and_munmap_revokes_it() {
    let prog = ProgramBuilder::new("/bin/map")
        .code(
            "_start:
                mov eax, SYS_MMAP
                mov ebx, 8192
                mov ecx, 3            ; PROT_READ|PROT_WRITE
                int 0x80
                mov [base], eax
                ; zero-filled?
                mov ebx, eax
                mov ecx, [ebx]
                cmp ecx, 0
                jne bad
                ; writable?
                mov dword [ebx], 0x5555
                mov ecx, [ebx]
                cmp ecx, 0x5555
                jne bad
                ; unmap, then the access must fault (SIGSEGV kills us with
                ; status 139, which the harness checks)
                mov eax, SYS_MUNMAP
                mov ebx, [base]
                mov ecx, 8192
                int 0x80
                cmp eax, 0
                jne bad
                mov ebx, [base]
                mov ecx, [ebx]        ; boom
                mov ebx, 2            ; (not reached)
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data("base: .word 0")
        .build()
        .unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog.image).unwrap();
    k.run(100_000_000);
    assert_eq!(
        k.sys.proc(pid).exit_code,
        Some(128 + 11),
        "expected SIGSEGV after munmap"
    );
}

#[test]
fn brk_grows_the_heap() {
    let prog = ProgramBuilder::new("/bin/heap")
        .code(
            "_start:
                mov eax, SYS_BRK
                mov ebx, 0
                int 0x80
                mov [base], eax
                add eax, 12288
                mov ebx, eax
                mov eax, SYS_BRK
                int 0x80
                ; touch all three new pages
                mov ebx, [base]
                mov dword [ebx], 1
                mov dword [ebx+4096], 2
                mov dword [ebx+8192], 3
                mov eax, [ebx]
                add eax, [ebx+4096]
                add eax, [ebx+8192]
                mov ebx, eax          ; 6
                call exit",
        )
        .data("base: .word 0")
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(6));
}

#[test]
fn execve_replaces_the_image() {
    let hello = ProgramBuilder::new("/bin/hello")
        .code(
            "_start:
                mov esi, msg
                call print
                mov ebx, 5
                call exit",
        )
        .data("msg: .asciz \"from exec\"")
        .build()
        .unwrap();
    let prog = ProgramBuilder::new("/bin/execer")
        .code(
            "_start:
                mov eax, SYS_EXECVE
                mov ebx, path
                int 0x80
                ; only reached on failure
                mov ebx, 1
                call exit",
        )
        .data("path: .asciz \"/bin/hello\"")
        .build()
        .unwrap();
    let mut k = kernel();
    k.sys.fs.install("/bin/hello", hello.image.to_bytes());
    let (pid, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(5));
    assert_eq!(k.sys.proc(pid).output_string(), "from exec");
    assert!(k.sys.events.execed("/bin/hello"));
}

#[test]
fn execve_missing_image_returns_enoent() {
    let prog = ProgramBuilder::new("/bin/execer2")
        .code(
            "_start:
                mov eax, SYS_EXECVE
                mov ebx, path
                int 0x80
                cmp eax, -2
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data("path: .asciz \"/bin/missing\"")
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn dlopen_loads_a_library_at_runtime() {
    // A library exporting a function at a known address.
    let lib = ProgramBuilder::new("/lib/libanswer.so")
        .without_stdlib()
        .code("answer: mov eax, 41\n inc eax\n ret")
        .build()
        .unwrap();
    let mut libimg = lib.image.clone();
    for seg in &mut libimg.segments {
        seg.vaddr += 0x3800_0000; // relocate to the library area
    }
    let fn_addr = lib.sym("answer") + 0x3800_0000;
    let prog = ProgramBuilder::new("/bin/dl")
        .code(&format!(
            "_start:
                mov eax, SYS_DLOPEN
                mov ebx, path
                int 0x80
                cmp eax, 0
                jle bad
                mov eax, {fn_addr}
                call eax
                mov ebx, eax          ; 42
                call exit
            bad:
                mov ebx, 1
                call exit"
        ))
        .data("path: .asciz \"/lib/libanswer.so\"")
        .build()
        .unwrap();
    let mut k = kernel();
    k.sys.fs.install("/lib/libanswer.so", libimg.to_bytes());
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(42));
    assert_eq!(k.sys.stats.libraries_loaded, 1);
}

#[test]
fn kill_delivers_fatal_signal_between_processes() {
    let prog = ProgramBuilder::new("/bin/killer")
        .code(
            "_start:
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je child
                ; parent: kill the child with SIGKILL and reap it
                mov ebx, eax
                mov ecx, 9
                mov eax, SYS_KILL
                int 0x80
                mov eax, SYS_WAITPID
                mov ebx, -1
                mov ecx, status
                int 0x80
                mov eax, [status]
                cmp eax, 137          ; 128 + SIGKILL
                jne bad
                mov ebx, 0
                call exit
            child:
                mov eax, SYS_PAUSE
                int 0x80
                jmp child
            bad:
                mov ebx, 1
                call exit",
        )
        .data("status: .word 0")
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn nested_signal_state_restores_cleanly() {
    // Handler runs, sigreturn restores, and a second signal round trips
    // too.
    let prog = ProgramBuilder::new("/bin/sig2")
        .code(
            "_start:
                mov eax, SYS_SIGNAL
                mov ebx, 10
                mov ecx, handler
                int 0x80
                mov ecx, 2            ; two rounds
            again:
                push ecx
                mov eax, SYS_GETPID
                int 0x80
                mov ebx, eax
                mov ecx, 10
                mov eax, SYS_KILL
                int 0x80
                pop ecx
                dec ecx
                jnz again
                mov eax, [count]
                mov ebx, eax          ; 2
                call exit
            handler:
                inc dword [count]
                ret",
        )
        .data("count: .word 0")
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(2));
}

#[test]
fn unknown_syscall_returns_enosys() {
    let prog = ProgramBuilder::new("/bin/nosys")
        .code(
            "_start:
                mov eax, 9999
                int 0x80
                cmp eax, -38          ; ENOSYS
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn getpid_and_time_are_sane() {
    let prog = ProgramBuilder::new("/bin/ids")
        .code(
            "_start:
                mov eax, SYS_GETPID
                int 0x80
                cmp eax, 1
                jne bad
                mov eax, SYS_TIME
                int 0x80
                mov esi, eax
                mov eax, SYS_TIME
                int 0x80
                cmp eax, esi          ; time is monotone
                jb bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}

#[test]
fn stack_guard_faults_on_runaway_recursion() {
    // Blowing past the stack VMA must be a clean SIGSEGV, not silent
    // corruption.
    let prog = ProgramBuilder::new("/bin/recurse")
        .code(
            "_start:
                call _start",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog.image).unwrap();
    k.run(400_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(128 + 11));
}

#[test]
fn halt_in_user_mode_is_fatal() {
    let prog = ProgramBuilder::new("/bin/hlt")
        .code("_start: hlt")
        .build()
        .unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog.image).unwrap();
    k.run(10_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(128 + 11));
}

#[test]
fn divide_error_raises_sigfpe() {
    let prog = ProgramBuilder::new("/bin/div0")
        .code(
            "_start:
                xor ebx, ebx
                mov eax, 1
                xor edx, edx
                div ebx",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let pid = k.spawn(&prog.image).unwrap();
    k.run(10_000_000);
    assert_eq!(k.sys.proc(pid).exit_code, Some(128 + 8));
}

#[test]
fn softtlb_machine_runs_the_same_guests() {
    // The §4.7 machine flavour is a drop-in substrate: an ordinary
    // program behaves identically (modulo cycle counts).
    let prog = ProgramBuilder::new("/bin/hello")
        .code(
            "_start:
                mov esi, msg
                call print
                mov ebx, 0
                call exit",
        )
        .data("msg: .asciz \"soft tlb\"")
        .build()
        .unwrap();
    let mut k = Kernel::new(
        MachineConfig {
            software_tlb: true,
            ..MachineConfig::default()
        },
        KernelConfig::default(),
        Box::new(NullEngine),
    );
    let (pid, code) = {
        let pid = k.spawn(&prog.image).unwrap();
        assert_eq!(k.run(100_000_000), RunExit::AllExited);
        (pid, k.sys.proc(pid).exit_code)
    };
    assert_eq!(code, Some(0));
    assert_eq!(k.sys.proc(pid).output_string(), "soft tlb");
    assert_eq!(
        k.sys.machine.stats.walks, 0,
        "no hardware walks in soft mode"
    );
    assert!(k.sys.stats.soft_tlb_fills > 0);
}

#[test]
fn fatal_signal_reaps_a_blocked_reader() {
    // A child blocks reading an empty pipe; the parent SIGKILLs it. The
    // wake-up path must deliver the fatal signal instead of restarting
    // the read forever.
    let prog = ProgramBuilder::new("/bin/blocked")
        .code(
            "_start:
                mov eax, SYS_PIPE
                mov ebx, fds
                int 0x80
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je child
                mov [kid], eax
                ; give the child time to block
                mov eax, SYS_YIELD
                int 0x80
                mov eax, SYS_YIELD
                int 0x80
                mov eax, SYS_KILL
                mov ebx, [kid]
                mov ecx, 9
                int 0x80
                mov eax, SYS_WAITPID
                mov ebx, -1
                mov ecx, status
                int 0x80
                mov eax, [status]
                cmp eax, 137
                jne bad
                mov ebx, 0
                call exit
            child:
                mov eax, SYS_READ
                mov ebx, [fds]
                mov ecx, buf
                mov edx, 4
                int 0x80
                ; unreachable: the parent holds the only other write end
                mov ebx, 5
                call exit
            bad:
                mov ebx, 1
                call exit",
        )
        .data(
            "fds: .space 8
             kid: .word 0
             status: .word 0
             buf: .space 4",
        )
        .build()
        .unwrap();
    let mut k = kernel();
    let (_, code) = run_to_exit(&mut k, &prog);
    assert_eq!(code, Some(0));
}
