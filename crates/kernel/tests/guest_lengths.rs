//! A length or offset a guest passes to a system call never sizes a host
//! allocation by itself: the kernel allocates for the bytes that actually
//! move. A counting global allocator records the largest single request
//! while a guest asks for (almost) 4 GiB in a `write` from its data
//! segment (EFAULT once the copy reaches unmapped memory), in a `read`
//! from a pipe holding five bytes (returns 5), and in a one-byte `write`
//! to a file after `lseek` to an offset near 4 GiB (EFBIG: past the
//! ramfs's per-file limit). Requests of 1 GiB or more are refused
//! outright, so a regression aborts the test instead of reserving host
//! memory.

use sm_kernel::engine::NullEngine;
use sm_kernel::kernel::{Kernel, RunExit};
use sm_kernel::userlib::ProgramBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, remembering the largest request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
const REFUSED: usize = 1 << 30;

impl Largest {
    fn admit(size: usize) -> bool {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        size < REFUSED
    }
}

// SAFETY: every method either passes its caller's layout, pointer and
// size to `System` unchanged, so `System`'s guarantees carry over, or
// returns null, which `GlobalAlloc` allows as an allocation failure.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Largest::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Largest::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !Largest::admit(new_size) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Assemble `code`/`data`, run it to exit on a fresh kernel and return
/// the exit code and the largest allocation made while it ran.
fn run(name: &str, code: &str, data: &str) -> (Option<i32>, usize) {
    let prog = ProgramBuilder::new(name)
        .code(code)
        .data(data)
        .build()
        .unwrap();
    let mut k = Kernel::with_engine(Box::new(NullEngine));
    let pid = k.spawn(&prog.image).expect("spawn");
    LARGEST.store(0, Ordering::Relaxed);
    let exit = k.run(100_000_000);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(exit, RunExit::AllExited, "{name} did not exit");
    (k.sys.proc(pid).exit_code, largest)
}

#[test]
fn huge_guest_lengths_allocate_only_what_moves() {
    const LIMIT: usize = 1 << 20;
    let (code, largest) = run(
        "/bin/bigwrite",
        "_start:
            mov eax, SYS_WRITE
            mov ebx, 1
            mov ecx, buf
            mov edx, 0xFFFFFFF0
            int 0x80
            cmp eax, -14          ; EFAULT
            jne bad
            mov ebx, 0
            call exit
        bad:
            mov ebx, 1
            call exit",
        "buf: .space 16",
    );
    assert_eq!(
        code,
        Some(0),
        "write of 0xFFFFFFF0 bytes must fail with EFAULT"
    );
    assert!(largest < LIMIT, "write: largest allocation {largest} bytes");

    let (code, largest) = run(
        "/bin/bigread",
        "_start:
            mov eax, SYS_PIPE
            mov ebx, fds
            int 0x80
            mov eax, SYS_WRITE
            mov ebx, [fds+4]
            mov ecx, msg
            mov edx, 5
            int 0x80
            mov eax, SYS_READ
            mov ebx, [fds]
            mov ecx, buf
            mov edx, 0xFFFFFFF0
            int 0x80
            cmp eax, 5
            jne bad
            mov esi, buf
            mov edi, msg
            call strcmp
            cmp eax, 0
            jne bad
            mov ebx, 0
            call exit
        bad:
            mov ebx, 1
            call exit",
        "fds: .space 8
         msg: .asciz \"hello\"
         buf: .space 16",
    );
    assert_eq!(code, Some(0), "read must return the 5 buffered bytes");
    assert!(largest < LIMIT, "read: largest allocation {largest} bytes");

    let (code, largest) = run(
        "/bin/bigseek",
        "_start:
            mov eax, SYS_OPEN
            mov ebx, path
            mov ecx, 0x241        ; O_WRONLY|O_CREAT|O_TRUNC
            int 0x80
            mov [fd], eax
            ; two seeks of 2^31 - 1 reach offset 0xFFFFFFFE
            mov eax, SYS_LSEEK
            mov ebx, [fd]
            mov ecx, 0x7FFFFFFF
            mov edx, 0            ; SEEK_SET
            int 0x80
            mov eax, SYS_LSEEK
            mov ebx, [fd]
            mov ecx, 0x7FFFFFFF
            mov edx, 1            ; SEEK_CUR
            int 0x80
            cmp eax, 0xFFFFFFFE
            jne bad
            mov eax, SYS_WRITE
            mov ebx, [fd]
            mov ecx, one
            mov edx, 1
            int 0x80
            cmp eax, -27          ; EFBIG
            jne bad
            mov ebx, 0
            call exit
        bad:
            mov ebx, 1
            call exit",
        "path: .asciz \"/tmp/big\"
         fd: .word 0
         one: .ascii \"x\"",
    );
    assert_eq!(
        code,
        Some(0),
        "a write at offset 0xFFFFFFFE must fail with EFBIG"
    );
    assert!(
        largest < LIMIT,
        "seek+write: largest allocation {largest} bytes"
    );
}
