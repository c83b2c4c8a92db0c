//! Criterion micro-benchmarks: host-side cost of the simulator's hot
//! paths and of the split-memory machinery.
//!
//! These complement the cycle-accounted experiment binaries: the tables
//! and figures report *simulated* cycles (deterministic), while these
//! report how fast the simulator itself runs, plus relative costs of the
//! paper's mechanisms (split vs. unsplit page access, the Algorithm 1
//! reload paths, page splitting, the verifier's SHA-256) and of the
//! checkpoint paths (kernel snapshot save and restore).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sm_core::engine::{SplitMemConfig, SplitMemEngine};
use sm_core::setup::Protection;
use sm_core::sha256::sha256;
use sm_kernel::engine::NullEngine;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_kernel::snapshot;
use sm_kernel::userlib::ProgramBuilder;
use sm_machine::cpu::{Access, Privilege};
use sm_machine::pte::{self, PAGE_SIZE};
use sm_machine::{Machine, MachineConfig, TlbPreset};

/// A machine with one flat user mapping and a spin loop at 0x1000.
fn machine_with_loop() -> Machine {
    let mut m = Machine::new(MachineConfig {
        phys_frames: 256,
        ..MachineConfig::default()
    });
    let dir = m.alloc_zeroed_frame().unwrap();
    let tab = m.alloc_zeroed_frame().unwrap();
    m.phys.write_u32(
        dir.base(),
        pte::make(tab, pte::PRESENT | pte::WRITABLE | pte::USER),
    );
    for i in 1..16u32 {
        let f = m.alloc_zeroed_frame().unwrap();
        m.phys.write_u32(
            tab.base() + i * 4,
            pte::make(f, pte::PRESENT | pte::WRITABLE | pte::USER),
        );
    }
    // inc eax; jmp -3 (infinite loop, two instructions)
    let code = pte::Frame(m.phys.read_u32(tab.base() + 4) >> 12);
    m.phys.write(code.base(), &[0x40, 0xEB, 0xFD]);
    m.set_cr3(dir);
    m.cpu.regs.eip = PAGE_SIZE;
    m.cpu.regs.set(sm_machine::cpu::Reg::Esp, PAGE_SIZE * 8);
    m
}

/// Like [`machine_with_loop`], but the loop body is 15 `inc eax`s before
/// the back-jump: one superblock spans the whole body.
fn machine_with_long_loop() -> Machine {
    let mut m = machine_with_loop();
    let tab_frame = {
        let dir = pte::Frame(m.cpu.regs.cr3);
        pte::Frame(m.phys.read_u32(dir.base()) >> 12)
    };
    let code = pte::Frame(m.phys.read_u32(tab_frame.base() + 4) >> 12);
    let mut body = [0x40u8; 17]; // inc eax x15
    body[15] = 0xEB; // jmp rel8
    body[16] = 0xEF; // -17
    m.phys.write(code.base(), &body);
    m.cpu.regs.eip = PAGE_SIZE;
    m
}

fn bench_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu");
    g.throughput(Throughput::Elements(1));
    g.bench_function("step_hot_loop", |b| {
        let mut m = machine_with_loop();
        b.iter(|| m.step());
    });
    g.bench_function("translate_tlb_hit", |b| {
        let mut m = machine_with_loop();
        let _ = m.translate(0x2000, Access::Read, Privilege::User);
        b.iter(|| m.translate(0x2000, Access::Read, Privilege::User));
    });
    g.bench_function("translate_walk", |b| {
        let mut m = machine_with_loop();
        b.iter(|| {
            m.dtlb.flush_page(2);
            m.translate(0x2000, Access::Read, Privilege::User)
        });
    });
    g.finish();

    // The superblock pipeline ablation: the same hot loop retired through
    // `run_block` in 1024-instruction budget chunks vs. one `step()` per
    // retire. Per-element numbers are directly comparable to
    // `cpu/step_hot_loop` (both report time per retired instruction).
    let mut g = c.benchmark_group("cpu_block");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("run_block_hot_loop_1k", |b| {
        let mut m = machine_with_loop();
        let per_call = 1024 * m.config.costs.insn;
        b.iter(|| m.run_block(m.cycles + per_call));
    });
    g.bench_function("step_hot_loop_1k", |b| {
        let mut m = machine_with_loop();
        let per_call = 1024 * m.config.costs.insn;
        b.iter(|| {
            let limit = m.cycles + per_call;
            while m.cycles < limit {
                m.step();
            }
        });
    });
    // Same comparison on a 16-op straight-line body (15 incs + jmp): the
    // chain re-entry cost amortizes across the block, isolating the
    // per-op floor.
    g.bench_function("run_block_long_body_1k", |b| {
        let mut m = machine_with_long_loop();
        let per_call = 1024 * m.config.costs.insn;
        b.iter(|| m.run_block(m.cycles + per_call));
    });
    g.bench_function("step_long_body_1k", |b| {
        let mut m = machine_with_long_loop();
        let per_call = 1024 * m.config.costs.insn;
        b.iter(|| {
            let limit = m.cycles + per_call;
            while m.cycles < limit {
                m.step();
            }
        });
    });
    g.finish();
}

fn bench_asm(c: &mut Criterion) {
    let src = format!(
        "{}{}{}",
        sm_kernel::userlib::SYSCALL_DEFS,
        sm_kernel::userlib::LIBC_CODE,
        sm_kernel::userlib::LIBC_DATA
    );
    let mut g = c.benchmark_group("asm");
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("assemble_guest_libc", |b| {
        b.iter(|| sm_asm::assemble(&src, 0x0804_8000).unwrap());
    });
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    // One full fault-and-reload round trip: run a small program that
    // alternates code and data touches on split pages.
    let prog = ProgramBuilder::new("/bin/touch")
        .code(
            "_start:
                mov ecx, 50
            t_loop:
                mov eax, [buf]
                add eax, 1
                mov [buf], eax
                dec ecx
                jnz t_loop
                mov ebx, 0
                call exit",
        )
        .data("buf: .word 0")
        .build()
        .unwrap();
    let mut g = c.benchmark_group("protection");
    g.bench_function("run_program_unprotected", |b| {
        b.iter_batched(
            || {
                let mut k = Kernel::with_engine(Box::new(NullEngine));
                k.spawn(&prog.image).unwrap();
                k
            },
            |mut k| k.run(10_000_000),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("run_program_split_memory", |b| {
        b.iter_batched(
            || {
                let mut k =
                    Kernel::with_engine(Box::new(SplitMemEngine::new(SplitMemConfig::default())));
                k.spawn(&prog.image).unwrap();
                k
            },
            |mut k| k.run(10_000_000),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_attack(c: &mut Criterion) {
    let mut g = c.benchmark_group("attack");
    g.sample_size(20);
    g.bench_function("wilander_retaddr_stack_split", |b| {
        let case = sm_attacks::wilander::Case {
            technique: sm_attacks::wilander::Technique::ReturnAddress,
            location: sm_attacks::wilander::InjectLocation::Stack,
        };
        b.iter(|| sm_attacks::wilander::run_case(case, &Protection::SplitMem(ResponseMode::Break)));
    });
    g.finish();
}

fn bench_verify(c: &mut Criterion) {
    let data = vec![0xABu8; 64 * 1024];
    let mut g = c.benchmark_group("verify");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha256_64k", |b| {
        b.iter(|| sha256(&data));
    });
    g.finish();
}

/// A split-memory kernel whose guest is mid-run: what checkpoints save and
/// restore.
fn live_split_kernel() -> Kernel {
    let prog = ProgramBuilder::new("/bin/spin")
        .code("_start:\n mov ecx, 1000000\n again:\n dec ecx\n jnz again\n mov ebx, 0\n call exit")
        .build()
        .unwrap();
    let mut k = Protection::SplitMem(ResponseMode::Break)
        .kernel_on(TlbPreset::default(), KernelConfig::default());
    k.spawn(&prog.image).unwrap();
    k.run(50_000);
    k
}

fn bench_snapshot(c: &mut Criterion) {
    let k = live_split_kernel();
    let bytes = snapshot::save(&k);
    let mut g = c.benchmark_group("snapshot_save");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("split_live_guest", |b| b.iter(|| snapshot::save(&k)));
    g.finish();
    let engine = || Protection::SplitMem(ResponseMode::Break).engine();
    let mut g = c.benchmark_group("snapshot_restore");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("split_live_guest", |b| {
        b.iter(|| snapshot::restore(&bytes, engine()).unwrap())
    });
    g.finish();
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);
    g.bench_function("spawn_teardown_split", |b| {
        let prog = ProgramBuilder::new("/bin/true")
            .code("_start: mov ebx, 0\n call exit")
            .build()
            .unwrap();
        b.iter_batched(
            || {
                let mut k = Kernel::new(
                    MachineConfig::default(),
                    KernelConfig::default(),
                    Box::new(SplitMemEngine::new(SplitMemConfig::default())),
                );
                k.spawn(&prog.image).unwrap();
                k
            },
            |mut k| k.run(10_000_000),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cpu,
    bench_asm,
    bench_split,
    bench_attack,
    bench_verify,
    bench_snapshot,
    bench_kernel
);
criterion_main!(benches);
