//! Code-cache transparency and coherence tests.
//!
//! The decode cache and the superblock tier are host state: on arbitrary
//! byte programs, a warm machine matches a twin restored from snapshots
//! (cold caches), and `run_block` matches a `step()` loop, in traps,
//! registers, cycles, `MachineStats`, both TLBs' stats and memory.

use proptest::prelude::*;
use sm_machine::cpu::{flags, Reg};
use sm_machine::pte::{self, Frame, PAGE_SIZE};
use sm_machine::snapshot::{load_machine, save_machine};
use sm_machine::{Machine, MachineConfig, Trap};

/// Machine with `pages` user pages mapped at 0x1000.., `code` written
/// from virtual address `at`, and `esp` at the top of the mapping.
fn harness(code: &[u8], at: u32, pages: u32, config: MachineConfig) -> Machine {
    let mut m = Machine::new(MachineConfig {
        phys_frames: pages + 64,
        ..config
    });
    let dir = m.alloc_zeroed_frame().unwrap();
    let tab = m.alloc_zeroed_frame().unwrap();
    m.phys.write_u32(
        dir.base(),
        pte::make(tab, pte::PRESENT | pte::WRITABLE | pte::USER),
    );
    let mut frames = Vec::new();
    for i in 0..pages {
        let f = m.alloc_zeroed_frame().unwrap();
        m.phys.write_u32(
            tab.base() + (1 + i) * 4,
            pte::make(f, pte::PRESENT | pte::WRITABLE | pte::USER),
        );
        frames.push(f);
    }
    for (va, b) in (at..).zip(code) {
        let f: Frame = frames[(pte::vpn(va) - 1) as usize];
        m.phys.write_u8(f.base() + pte::page_offset(va), *b);
    }
    m.set_cr3(dir);
    m.cpu.regs.eip = at;
    m.cpu.regs.set(Reg::Esp, PAGE_SIZE * (1 + pages));
    m
}

/// Every modelled register, counter and TLB statistic agrees.
fn assert_same_state(a: &Machine, b: &Machine, at: &str) {
    assert_eq!(a.cpu.regs, b.cpu.regs, "registers diverged {at}");
    assert_eq!(a.stats, b.stats, "stats diverged {at}");
    assert_eq!(a.cycles, b.cycles, "cycles diverged {at}");
    assert_eq!(a.itlb.stats, b.itlb.stats, "I-TLB stats diverged {at}");
    assert_eq!(a.dtlb.stats, b.dtlb.stats, "D-TLB stats diverged {at}");
}

/// Compare all of physical memory.
fn assert_same_memory(a: &Machine, b: &Machine) {
    assert_eq!(a.phys.frame_count(), b.phys.frame_count());
    for f in 0..a.phys.frame_count() {
        let fr = Frame(f);
        assert_eq!(
            a.phys.frame_bytes(fr),
            b.phys.frame_bytes(fr),
            "physical frame {f} diverged"
        );
    }
}

/// Run the program from its entry three times over, stepping `warm`
/// alongside a twin that is round-tripped through a snapshot at the start
/// of each pass and every `every` steps, so the twin decodes cold what
/// `warm` has cached. Asserts identical traps and state at every retire;
/// a pass ends after `max` steps or the first terminal trap.
fn run_warm_vs_cold(warm: &mut Machine, every: u32, max: u32) {
    let entry = warm.cpu.regs.eip;
    let mut cold = load_machine(&save_machine(warm)).unwrap();
    for pass in 0..3 {
        warm.cpu.regs.eip = entry;
        cold.cpu.regs.eip = entry;
        for i in 0..max {
            if i % every == 0 {
                cold = load_machine(&save_machine(&cold)).unwrap();
            }
            let tw = warm.step();
            let tc = cold.step();
            assert_eq!(tw, tc, "trap diverged at pass {pass} step {i}");
            assert_same_state(warm, &cold, &format!("at pass {pass} step {i}"));
            if !matches!(tw, Trap::None | Trap::DebugStep) {
                break; // a kernel would service it; the state is compared
            }
        }
    }
    assert_same_memory(warm, &cold);
}

/// What [`Machine::run_block`] promises to equal: `step()` in a loop with
/// the budget checked before every call, counting `Trap::None` retires.
fn step_until(m: &mut Machine, cycle_limit: u64) -> (u64, Trap) {
    let mut retired = 0;
    while m.cycles < cycle_limit {
        match m.step() {
            Trap::None => retired += 1,
            t => return (retired, t),
        }
    }
    (retired, Trap::None)
}

/// One code byte from 16 random bits: an arbitrary byte a quarter of the
/// time, otherwise `inc`/`dec` of a register, `nop`, or a short
/// `jnz`/`jmp` opcode (the next byte is its displacement). Plain arbitrary
/// bytes rarely retire two instructions in a row; these runs get long
/// enough to reach the block tier's lane, self-loops and re-entry.
fn code_byte(raw: u16) -> u8 {
    let b = raw as u8;
    match raw >> 8 {
        0..=63 => b,
        64..=191 => 0x40 | (b & 0x0F),
        _ => [0x90, 0x75, 0xEB][b as usize % 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte programs behave identically with a warm and a cold
    /// decode cache: same traps, registers, `MachineStats`, cycles, TLB
    /// stats and final memory.
    #[test]
    fn cache_is_transparent_on_arbitrary_code(
        code in proptest::collection::vec(any::<u8>(), 1..64),
        tf in any::<bool>(),
        every in 1u32..8,
    ) {
        let mut m = harness(&code, PAGE_SIZE, 8, MachineConfig::default());
        m.cpu.regs.set_flag(flags::TF, tf);
        run_warm_vs_cold(&mut m, every, 256);
    }

    /// Same equivalence on the paper's testbed geometry (set-associative
    /// TLBs exercise eviction/recency interplay with the fetch path).
    #[test]
    fn cache_is_transparent_on_pentium3(
        code in proptest::collection::vec(any::<u8>(), 1..64),
        every in 1u32..8,
    ) {
        let mut m = harness(&code, PAGE_SIZE, 8, MachineConfig::pentium3());
        run_warm_vs_cold(&mut m, every, 256);
    }

    /// The superblock tier retires arbitrary byte programs exactly like
    /// `step()`: same traps, retire counts, registers, cycles,
    /// `MachineStats`, TLB stats and memory. With `tail > 0` the program
    /// starts `tail` bytes before a page boundary, so the instruction
    /// spanning it crosses into the next page.
    #[test]
    fn run_block_matches_step_on_arbitrary_code(
        raw in proptest::collection::vec(any::<u16>(), 1..64),
        tail in 0u32..12,
        budget in 1u64..24,
        p3 in any::<bool>(),
    ) {
        let code: Vec<u8> = raw.into_iter().map(code_byte).collect();
        let config = if p3 { MachineConfig::pentium3() } else { MachineConfig::default() };
        let at = if tail == 0 { PAGE_SIZE } else { 2 * PAGE_SIZE - tail };
        let mut blocks = harness(&code, at, 8, config);
        let mut steps = harness(&code, at, 8, config);
        // Three passes from the entry, each until a trap or 32 budgets:
        // later passes re-enter blocks the first one built.
        for pass in 0..3 {
            blocks.cpu.regs.eip = at;
            steps.cpu.regs.eip = at;
            for chunk in 0..32 {
                let limit = blocks.cycles + budget;
                let got = blocks.run_block(limit);
                let want = step_until(&mut steps, limit);
                prop_assert_eq!(got, want, "diverged in pass {} chunk {}", pass, chunk);
                assert_same_state(&blocks, &steps, &format!("in pass {pass} chunk {chunk}"));
                if !got.1.is_none() {
                    break;
                }
            }
        }
        assert_same_memory(&blocks, &steps);
    }
}

/// A self-modifying program on an *unsplit* code page must see fresh
/// decodes: the overwritten instruction executes as its new encoding, and
/// the cache records the frame invalidation.
#[test]
fn self_modifying_code_sees_fresh_decodes() {
    // 0x1000: jmp 0x1010           ; first pass caches the nop at 0x1010
    // 0x1002: mov byte [0x1010], 0xF4   ; overwrite it with hlt
    // 0x1009: jmp 0x1010           ; re-execute: must decode hlt now
    // 0x1010: nop                  ; -> hlt after the store
    // 0x1011: jmp 0x1002           ; loop back to the overwriting store
    let code = [
        0xEB, 0x0E, // jmp +14 -> 0x1010
        0xC6, 0x05, 0x10, 0x10, 0x00, 0x00, 0xF4, // mov byte [0x1010], 0xF4
        0xEB, 0x05, // jmp +5 -> 0x1010
        0x90, 0x90, 0x90, 0x90, 0x90, // pad
        0x90, // 0x1010: nop (becomes hlt)
        0xEB, 0xEF, // jmp -17 -> 0x1002
    ];
    let mut m = harness(&code, PAGE_SIZE, 2, MachineConfig::default());
    let mut halted = false;
    for _ in 0..8 {
        match m.step() {
            Trap::None => {}
            Trap::Halt => {
                halted = true;
                break;
            }
            t => panic!("unexpected trap {t:?}"),
        }
    }
    assert!(halted, "stale decode executed");
    assert!(
        m.decode_cache.stats.invalidations >= 1,
        "the code-frame overwrite must invalidate cached decodes"
    );
}

/// Hot loops actually hit: re-executing the same instructions decodes each
/// one exactly once, and every fetch is one I-TLB lookup.
#[test]
fn hot_loop_hits_after_first_decode() {
    // inc eax; jmp -3 — the micro-bench loop.
    let code = [0x40, 0xEB, 0xFD];
    let mut m = harness(&code, PAGE_SIZE, 2, MachineConfig::default());
    for _ in 0..100 {
        assert_eq!(m.step(), Trap::None);
    }
    let s = m.decode_cache.stats;
    assert_eq!(s.misses, 2, "one miss per distinct instruction");
    assert_eq!(s.hits, 98);
    assert_eq!(s.invalidations, 0);
    assert_eq!((m.itlb.stats.misses, m.itlb.stats.hits), (1, 99));
}

/// An instruction whose encoding crosses a page boundary is never cached —
/// every execution re-decodes byte-by-byte — and its fetch makes one
/// I-TLB lookup per page it touches.
#[test]
fn page_crossing_instructions_are_not_cached() {
    // Place `mov eax, imm32` (5 bytes) so it straddles 0x1FFF/0x2000, and
    // jump to it from page 1.
    let mut code = vec![0u8; (PAGE_SIZE - 1) as usize + 5];
    code[0] = 0xE9; // jmp rel32 -> 0x1FFF
    code[1..5].copy_from_slice(&(0x0FFAu32).to_le_bytes()); // 0x1005 + 0xFFA = 0x1FFF
    code[(PAGE_SIZE - 1) as usize] = 0xB8; // mov eax, imm32 at 0x1FFF
                                           // imm bytes land at 0x2000.. (zero-filled page 2) = mov eax, 0.
    let mut m = harness(&code, PAGE_SIZE, 4, MachineConfig::default());
    // jmp (page 1: cold miss); mov (page 1: hit, page 2: cold miss).
    assert_eq!(m.step(), Trap::None);
    assert_eq!(m.step(), Trap::None);
    assert_eq!((m.itlb.stats.misses, m.itlb.stats.hits), (2, 1));
    let s = m.decode_cache.stats;
    assert_eq!(
        s.hits, 0,
        "straddling decode must never be served from cache"
    );
    assert_eq!(s.misses, 2);
    // Again from the jmp: both pages are now I-TLB hits, and the
    // straddling decode misses the cache again.
    m.cpu.regs.eip = PAGE_SIZE;
    assert_eq!(m.step(), Trap::None);
    assert_eq!(m.step(), Trap::None);
    assert_eq!((m.itlb.stats.misses, m.itlb.stats.hits), (2, 4));
    let s = m.decode_cache.stats;
    assert_eq!((s.hits, s.misses), (1, 3));
}
