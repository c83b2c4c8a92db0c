//! Golden end state of the kernel-bound `serve` programs: the httpd-32k
//! server/client pair, the Unixbench syscall, pipe, context-switch,
//! spawn, execl and filesystem tests, at small sizes, and a guest that
//! signals itself, each under every engine shape [`Protection`] builds.
//! For every run the test records the final cycle count, the D-TLB
//! counters and the SHA-256 of the whole-kernel snapshot, and compares
//! the lot with `tests/golden/serve_state.txt`.
//!
//! These programs spend most of their host time in the kernel's
//! user-memory copies and pipe buffers, so any change to how bytes move
//! between user and kernel memory that leaks into modelled state — a
//! cycle, a TLB counter, a frame generation, a byte — shows up here.
//! The self-signalling guest runs the signal trampoline, the kernel's
//! one write of code into user memory, through every engine's hook; the
//! snapshot hash covers each engine's own state.
//! After a deliberate change to modelled results, regenerate the file
//! with `BLESS_GOLDEN=1 cargo test --test serve_golden` and review the
//! diff.

use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{KernelConfig, RunExit};
use sm_kernel::snapshot;
use sm_kernel::userlib::BuiltProgram;
use sm_machine::sha256::sha256;
use sm_machine::TlbPreset;
use sm_workloads::httpd;
use sm_workloads::unixbench::{unixbench_program, UnixbenchTest};
use std::fmt::Write;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/serve_state.txt"
);

/// One program: its images and the files it needs installed.
struct Program {
    name: &'static str,
    images: Vec<BuiltProgram>,
    files: Vec<(&'static str, Vec<u8>)>,
}

/// Overwrite the initialised data at symbol `sym` with a byte pattern.
fn fill(prog: &mut BuiltProgram, sym: &str, len: usize) {
    let addr = prog.sym(sym);
    let seg = prog
        .image
        .segments
        .iter_mut()
        .find(|s| s.vaddr <= addr && addr + len as u32 <= s.vaddr + s.data.len() as u32)
        .expect("symbol in initialised data");
    let off = (addr - seg.vaddr) as usize;
    for (i, b) in seg.data[off..off + len].iter_mut().enumerate() {
        *b = (i * 7 + 3) as u8;
    }
}

fn programs() -> Vec<Program> {
    let page = 32 * 1024 - 64;
    let mut server = httpd::server_program(page, 2);
    fill(&mut server, "pagebuf", 1024);
    let mut out = vec![Program {
        name: "httpd-32k",
        images: vec![server, httpd::client_program(page, 2)],
        files: Vec::new(),
    }];
    let tru = sm_kernel::userlib::ProgramBuilder::new("/bin/true")
        .code("_start: mov ebx, 0\n call exit")
        .build()
        .expect("/bin/true assembles");
    for (name, test, iters, buf) in [
        ("syscall", UnixbenchTest::Syscall, 40, None),
        ("pipe", UnixbenchTest::PipeThroughput, 10, Some(512)),
        ("ctxsw", UnixbenchTest::PipeContextSwitch, 2, None),
        ("spawn", UnixbenchTest::Spawn, 2, None),
        ("execl", UnixbenchTest::Execl, 2, None),
        ("fs", UnixbenchTest::FsThroughput, 2, Some(1024)),
    ] {
        let mut p = unixbench_program(test, iters);
        if let Some(len) = buf {
            fill(&mut p, "buf", len);
        }
        let files = if test == UnixbenchTest::Execl {
            vec![("/bin/true", tru.image.to_bytes())]
        } else {
            Vec::new()
        };
        out.push(Program {
            name,
            images: vec![p],
            files,
        });
    }
    let sigself = sm_kernel::userlib::ProgramBuilder::new("/bin/sigself")
        .code(
            "_start:
                mov eax, SYS_SIGNAL
                mov ebx, 10          ; SIGUSR1
                mov ecx, handler
                int 0x80
                mov eax, SYS_GETPID
                int 0x80
                mov ecx, 10
                mov ebx, eax
                mov eax, SYS_KILL
                int 0x80             ; signal self
                mov eax, [flag]
                cmp eax, 77
                jne bad
                mov ebx, 0
                call exit
            bad:
                mov ebx, 1
                call exit
            handler:
                mov dword [flag], 77
                ret",
        )
        .data("flag: .word 0")
        .build()
        .expect("/bin/sigself assembles");
    out.push(Program {
        name: "sigself",
        images: vec![sigself],
        files: Vec::new(),
    });
    out
}

/// One line per program × protection.
fn state() -> String {
    let mut text = String::new();
    for prog in programs() {
        for protection in [
            Protection::Unprotected,
            Protection::SplitMem(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
            Protection::Nx,
            Protection::NxResponse(ResponseMode::Observe),
            Protection::Combined(ResponseMode::Break),
            Protection::Combined(ResponseMode::Observe),
            Protection::CombinedFraction(0.25),
            Protection::ShadowStack(ResponseMode::Break),
        ] {
            let mut k = protection.kernel_on(TlbPreset::default(), KernelConfig::default());
            for (path, bytes) in &prog.files {
                k.sys.fs.install(*path, bytes.clone());
            }
            for image in &prog.images {
                k.spawn(&image.image).expect("spawn");
            }
            let label = protection.label();
            assert_eq!(
                k.run(2_000_000_000),
                RunExit::AllExited,
                "{} under {label}",
                prog.name
            );
            for p in k.sys.procs.values() {
                assert_eq!(
                    p.exit_code,
                    Some(0),
                    "{}: {} under {label}",
                    prog.name,
                    p.name
                );
            }
            if prog.name == "sigself" {
                assert_eq!(
                    k.sys.stats.handler_signals, 1,
                    "sigself under {label}: the handler ran once"
                );
            }
            let d = k.sys.machine.dtlb.stats;
            let sha: String = sha256(&snapshot::save(&k))
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            writeln!(
                text,
                "{} {label} cycles={} dtlb.hits={} dtlb.misses={} dtlb.cold={} \
                 dtlb.capacity={} dtlb.conflict={} dtlb.fills={} dtlb.flushes={} \
                 dtlb.invalidations={} dtlb.evictions={} snapshot.sha256={sha}",
                prog.name,
                k.sys.machine.cycles,
                d.hits,
                d.misses,
                d.cold_misses,
                d.capacity_misses,
                d.conflict_misses,
                d.fills,
                d.flushes,
                d.page_invalidations,
                d.evictions,
            )
            .unwrap();
        }
    }
    text
}

#[test]
fn serve_programs_end_in_the_golden_state() {
    let now = state();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &now).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is checked in");
    for (i, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from {GOLDEN}", i + 1);
    }
    assert_eq!(
        now.lines().count(),
        golden.lines().count(),
        "line count differs from {GOLDEN}:\n{now}"
    );
}
