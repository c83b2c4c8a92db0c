//! Code-cache transparency and coherence tests.
//!
//! The decode cache and the superblock tier are host state: on arbitrary
//! byte programs, a warm machine matches a twin restored from snapshots
//! (cold caches), and `run_block` matches a `step()` loop, in traps,
//! registers, cycles, `MachineStats`, both TLBs' stats and memory. Both
//! tiers run the same executor, so the memory-operand programs at the end
//! also check each retire against an oracle computed in this file.

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

// ---- memory-operand programs ------------------------------------------------
//
// `code_byte` reaches memory forms only through arbitrary bytes, whose
// addresses mostly fault. The programs below are well-formed memory-operand
// instructions over every ModRM/SIB shape, with registers preloaded so most
// addresses land in mapped pages: successful loads and stores, faulting
// stores after successful reads (the precise-rollback case) and stack
// operands. Each retire is checked against an oracle computed here from
// the encoding's meaning, and `run_block` against `step()`.

/// Page holding the code; mapped read-only, so a store into it faults
/// after its read succeeded.
const CODE: u32 = PAGE_SIZE;
/// User pages mapped at 0x1000..; everything below and above faults.
const MEM_PAGES: u32 = 8;
const MEM_TOP: u32 = PAGE_SIZE * (1 + MEM_PAGES);

/// A memory operand as the test encodes it: `[base + index << shift + disp]`.
#[derive(Debug, Clone, Copy)]
struct Addr {
    base: Option<Reg>,
    index: Option<(Reg, u8)>,
    disp: i32,
    /// Displacement width in the encoding: 0, 1 or 4 bytes.
    width: u8,
}

impl Addr {
    fn ea(&self, r: &sm_machine::cpu::Regs) -> u32 {
        let base = self.base.map_or(0, |b| r.get(b) as u64);
        let index = self.index.map_or(0, |(i, s)| (r.get(i) as u64) << s);
        (base + index).wrapping_add(self.disp as i64 as u64) as u32
    }

    /// ModRM (with `reg_field`), optional SIB and displacement bytes.
    fn encode(&self, reg_field: u8) -> Vec<u8> {
        let md: u8 = match (self.base, self.width) {
            (None, _) | (_, 0) => 0,
            (_, 1) => 1,
            _ => 2,
        };
        let mut out = Vec::new();
        let needs_sib = self.index.is_some() || self.base == Some(Reg::Esp);
        match (self.base, needs_sib) {
            (None, false) => out.push((reg_field << 3) | 5),
            (Some(b), false) => out.push((md << 6) | (reg_field << 3) | b as u8),
            (base, true) => {
                out.push((md << 6) | (reg_field << 3) | 4);
                let (idx, shift) = self.index.map_or((4, 0), |(i, s)| (i as u8, s));
                out.push((shift << 6) | (idx << 3) | base.map_or(5, |b| b as u8));
            }
        }
        match (self.base, self.width) {
            (None, _) | (_, 4) => out.extend_from_slice(&self.disp.to_le_bytes()),
            (_, 1) => out.push(self.disp as u8),
            _ => {}
        }
        out
    }
}

/// One generated instruction; `reg` is the register operand.
#[derive(Debug, Clone, Copy)]
enum MemInsn {
    Load(Reg, Addr),
    Store(Addr, Reg),
    StoreImm(Addr, u32),
    AddTo(Addr, Reg),
    CmpTo(Addr, Reg),
    Lea(Reg, Addr),
    Movzx(Reg, Addr),
    Push(Addr),
    Inc(Addr),
    Leave,
}

impl MemInsn {
    fn encode(&self) -> Vec<u8> {
        let with = |prefix: &[u8], reg: u8, a: &Addr, suffix: &[u8]| {
            let mut v = prefix.to_vec();
            v.extend(a.encode(reg));
            v.extend_from_slice(suffix);
            v
        };
        match *self {
            MemInsn::Load(r, a) => with(&[0x8B], r as u8, &a, &[]),
            MemInsn::Store(a, r) => with(&[0x89], r as u8, &a, &[]),
            MemInsn::StoreImm(a, imm) => with(&[0xC7], 0, &a, &imm.to_le_bytes()),
            MemInsn::AddTo(a, r) => with(&[0x01], r as u8, &a, &[]),
            MemInsn::CmpTo(a, r) => with(&[0x39], r as u8, &a, &[]),
            MemInsn::Lea(r, a) => with(&[0x8D], r as u8, &a, &[]),
            MemInsn::Movzx(r, a) => with(&[0x0F, 0xB6], r as u8, &a, &[]),
            MemInsn::Push(a) => with(&[0xFF], 6, &a, &[]),
            MemInsn::Inc(a) => with(&[0xFF], 0, &a, &[]),
            MemInsn::Leave => vec![0xC9],
        }
    }
}

/// Registers that mostly hold mapped addresses (bases), mostly small
/// values (indices), and anything (register operands).
const BASES: [Reg; 3] = [Reg::Edx, Reg::Ebx, Reg::Ebp];
const INDICES: [Reg; 2] = [Reg::Esi, Reg::Edi];
const OPERANDS: [Reg; 2] = [Reg::Eax, Reg::Ecx];

/// Pick from `preferred` seven times in eight, else any register but `esp`.
fn pick(bits: u64, preferred: &[Reg]) -> Reg {
    if bits & 7 == 7 {
        [
            Reg::Eax,
            Reg::Ecx,
            Reg::Edx,
            Reg::Ebx,
            Reg::Ebp,
            Reg::Esi,
            Reg::Edi,
        ][(bits >> 3) as usize % 7]
    } else {
        preferred[(bits >> 3) as usize % preferred.len()]
    }
}

/// One operand of each ModRM/SIB shape, chosen by `bits`: base, base +
/// disp8, base + disp32, base + index × {1, 2, 4, 8} (no, 8- or 32-bit
/// displacement), index-only + disp32, `esp` base, and `[disp32]`.
fn addr(bits: u64) -> Addr {
    let base = pick(bits >> 8, &BASES);
    let index = pick(bits >> 16, &INDICES);
    let shift = (bits >> 24) as u8 & 3;
    let disp8 = (bits >> 32) as i8 as i32;
    let disp32 = ((bits >> 32) as i32) >> 20; // within ±2 KiB
    let abs = ((bits >> 32) % (MEM_TOP as u64 + 0x800)) as i32;
    let a = |base, index, disp, width| Addr {
        base,
        index,
        disp,
        width,
    };
    match bits % 9 {
        // `ebp` as a base needs a displacement byte (mod 00 means disp32).
        0 if base == Reg::Ebp => a(Some(base), None, 0, 1),
        0 => a(Some(base), None, 0, 0),
        1 => a(Some(base), None, disp8, 1),
        2 => a(Some(base), None, disp32, 4),
        3 if base == Reg::Ebp => a(Some(base), Some((index, shift)), 0, 1),
        3 => a(Some(base), Some((index, shift)), 0, 0),
        4 => a(Some(base), Some((index, shift)), disp8, 1),
        5 => a(Some(base), Some((index, shift)), disp32, 4),
        6 => a(None, Some((index, shift)), abs, 4),
        7 => a(Some(Reg::Esp), None, disp8 & !3, 1),
        _ => a(None, None, abs, 4),
    }
}

fn mem_insn(bits: u64) -> MemInsn {
    let a = addr(bits >> 8);
    let r = pick(bits >> 4, &OPERANDS);
    match bits % 10 {
        0 => MemInsn::Load(r, a),
        1 => MemInsn::Store(a, r),
        2 => MemInsn::StoreImm(a, (bits >> 40) as u32 ^ 0x5A5A_0000),
        3 => MemInsn::AddTo(a, r),
        4 => MemInsn::CmpTo(a, r),
        5 => MemInsn::Lea(r, a),
        6 => MemInsn::Movzx(r, a),
        7 => MemInsn::Push(a),
        8 => MemInsn::Inc(a),
        _ => MemInsn::Leave,
    }
}

/// Initial register file: bases mostly inside the mapping (code page
/// included), indices mostly small, `esp` mostly in the top page, and
/// one value in eight outside the mapping.
fn preload(m: &mut Machine, raw: &[u64]) {
    for (r, &v) in Reg::ALL.iter().zip(raw) {
        let addr = PAGE_SIZE + (v >> 8) as u32 % (MEM_TOP - PAGE_SIZE);
        let outside = if v & 0x100 == 0 {
            (v >> 9) as u32 & 0xFFF
        } else {
            MEM_TOP + (v >> 9) as u32 % PAGE_SIZE
        };
        let value = match r {
            Reg::Esp if v & 7 == 7 => CODE + 64 + 4 * ((v >> 3) as u32 % 16),
            Reg::Esp => MEM_TOP - 4 * ((v >> 3) as u32 % 64),
            _ if v & 7 == 7 => outside,
            r if INDICES.contains(r) => (v >> 3) as u32 % 64,
            r if BASES.contains(r) => addr,
            _ => (v >> 3) as u32,
        };
        m.cpu.regs.set(*r, value);
    }
}

/// Machine running `program` (plus a trailing `hlt`) from a read-only code
/// page, with every data page filled with a position-dependent pattern so
/// loads see distinct words. Returns it with each instruction's address
/// and length.
fn mem_harness(
    program: &[MemInsn],
    raw_regs: &[u64],
    p3: bool,
) -> (Machine, Vec<(u32, u32, MemInsn)>) {
    let mut code = Vec::new();
    let mut at = Vec::new();
    for insn in program {
        let bytes = insn.encode();
        at.push((CODE + code.len() as u32, bytes.len() as u32, *insn));
        code.extend(bytes);
    }
    code.push(0xF4);
    let config = if p3 {
        MachineConfig::pentium3()
    } else {
        MachineConfig::default()
    };
    let mut m = harness(&code, CODE, MEM_PAGES, config);
    for va in (2 * PAGE_SIZE..MEM_TOP).step_by(4) {
        let p = pte::frame(m.read_pte(va).unwrap()).base() + pte::page_offset(va);
        m.phys
            .write_u32(p, va.wrapping_mul(0x9E37_79B9).rotate_left(7));
    }
    let dir = m.cr3().base();
    let tab = pte::frame(m.phys.read_u32(dir)).base();
    let code_pte = m.phys.read_u32(tab + 4);
    m.phys.write_u32(tab + 4, code_pte & !pte::WRITABLE);
    preload(&mut m, raw_regs);
    (m, at)
}

/// Guest bytes at `va..va + n` read through the pagetable (no TLB), or
/// `None` if a byte is unmapped, or read-only when `write` is asked.
fn guest(m: &Machine, va: u32, n: u32, write: bool) -> Option<Vec<u8>> {
    (0..n)
        .map(|i| {
            let a = va.wrapping_add(i);
            let e = m.read_pte(a).filter(|e| pte::has(*e, pte::PRESENT))?;
            if write && !pte::has(e, pte::WRITABLE) {
                return None;
            }
            Some(m.phys.read_u8(pte::frame(e).base() + pte::page_offset(a)))
        })
        .collect()
}

/// Contents of every mapped user page, in virtual order.
fn user_pages(m: &Machine) -> Vec<Vec<u8>> {
    (1..=MEM_PAGES)
        .map(|p| {
            let e = m.read_pte(p * PAGE_SIZE).unwrap();
            m.phys.frame_bytes(pte::frame(e)).to_vec()
        })
        .collect()
}

fn word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().unwrap())
}

/// ZF/SF/PF as the ISA defines them, for the oracle.
fn zsp(r: u32) -> u32 {
    let mut f = 0;
    if r == 0 {
        f |= flags::ZF;
    }
    if r >> 31 == 1 {
        f |= flags::SF;
    }
    if (r & 0xFF).count_ones().is_multiple_of(2) {
        f |= flags::PF;
    }
    f
}

/// Step `m` once and check the retire against the oracle: the fault
/// decision, the registers (flags included) and every stored byte. A
/// faulting instruction must leave registers (bar `cr2`) and data
/// memory untouched.
fn step_against_oracle(m: &mut Machine, insn: MemInsn, len: u32) -> Trap {
    let pre = m.cpu.regs;
    let data = user_pages(m);
    let mut want = pre;
    want.eip = pre.eip.wrapping_add(len);
    let arith = flags::CF | flags::OF | flags::ZF | flags::SF | flags::PF;
    // `Some((addr, bytes))` per store; `None` for the whole outcome when
    // some access faults.
    let stores: Option<Vec<(u32, [u8; 4])>> = (|| {
        Some(match insn {
            MemInsn::Lea(r, a) => {
                want.set(r, a.ea(&pre));
                vec![]
            }
            MemInsn::Load(r, a) => {
                want.set(r, word(&guest(m, a.ea(&pre), 4, false)?));
                vec![]
            }
            MemInsn::Movzx(r, a) => {
                want.set(r, guest(m, a.ea(&pre), 1, false)?[0] as u32);
                vec![]
            }
            MemInsn::Store(a, r) => {
                guest(m, a.ea(&pre), 4, true)?;
                vec![(a.ea(&pre), pre.get(r).to_le_bytes())]
            }
            MemInsn::StoreImm(a, imm) => {
                guest(m, a.ea(&pre), 4, true)?;
                vec![(a.ea(&pre), imm.to_le_bytes())]
            }
            MemInsn::AddTo(a, r) => {
                let (x, y) = (word(&guest(m, a.ea(&pre), 4, false)?), pre.get(r));
                guest(m, a.ea(&pre), 4, true)?;
                let sum = x.wrapping_add(y);
                let mut f = zsp(sum);
                if (x as u64 + y as u64) >> 32 != 0 {
                    f |= flags::CF;
                }
                if x as i32 as i64 + y as i32 as i64 != sum as i32 as i64 {
                    f |= flags::OF;
                }
                want.eflags = (pre.eflags & !arith) | f;
                vec![(a.ea(&pre), sum.to_le_bytes())]
            }
            MemInsn::CmpTo(a, r) => {
                let (x, y) = (word(&guest(m, a.ea(&pre), 4, false)?), pre.get(r));
                let diff = x.wrapping_sub(y);
                let mut f = zsp(diff);
                if x < y {
                    f |= flags::CF;
                }
                if x as i32 as i64 - y as i32 as i64 != diff as i32 as i64 {
                    f |= flags::OF;
                }
                want.eflags = (pre.eflags & !arith) | f;
                vec![]
            }
            MemInsn::Push(a) => {
                let v = guest(m, a.ea(&pre), 4, false)?;
                let sp = pre.get(Reg::Esp).wrapping_sub(4);
                guest(m, sp, 4, true)?;
                want.set(Reg::Esp, sp);
                vec![(sp, v.try_into().unwrap())]
            }
            MemInsn::Inc(a) => {
                let x = word(&guest(m, a.ea(&pre), 4, false)?);
                guest(m, a.ea(&pre), 4, true)?;
                let v = x.wrapping_add(1);
                let mut f = zsp(v);
                if v == 0x8000_0000 {
                    f |= flags::OF;
                }
                want.eflags = (pre.eflags & !(arith & !flags::CF)) | f;
                vec![(a.ea(&pre), v.to_le_bytes())]
            }
            MemInsn::Leave => {
                let bp = pre.get(Reg::Ebp);
                want.set(Reg::Ebp, word(&guest(m, bp, 4, false)?));
                want.set(Reg::Esp, bp.wrapping_add(4));
                vec![]
            }
        })
    })();
    let trap = m.step();
    let after = user_pages(m);
    match stores {
        None => {
            assert!(
                matches!(trap, Trap::PageFault(_)),
                "{insn:?}: want #PF, got {trap:?}"
            );
            let Trap::PageFault(pf) = trap else {
                unreachable!()
            };
            assert_eq!(
                m.cpu.regs,
                sm_machine::cpu::Regs {
                    cr2: pf.addr,
                    ..pre
                },
                "{insn:?}: not rolled back"
            );
            assert!(
                after == data,
                "{insn:?}: a faulting instruction changed memory"
            );
        }
        Some(stores) => {
            assert_eq!(trap, Trap::None, "{insn:?} at {:#x}", pre.eip);
            assert_eq!(m.cpu.regs, want, "{insn:?}: registers");
            let mut expect = data;
            for (va, bytes) in stores {
                for (i, b) in bytes.iter().enumerate() {
                    let a = va.wrapping_add(i as u32);
                    expect[(pte::vpn(a) - 1) as usize][pte::page_offset(a) as usize] = *b;
                }
            }
            assert!(after == expect, "{insn:?}: stored bytes");
        }
    }
    trap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Memory-operand programs retire as the oracle says, through
    /// `step()`, and `run_block` retires them exactly like `step()`:
    /// same traps, retire counts, registers, cycles, `MachineStats`, TLB
    /// stats and memory, resuming past every fault.
    #[test]
    fn memory_operands_match_the_oracle_and_run_block_matches_step(
        raw in proptest::collection::vec(any::<u64>(), 1..24),
        regs in proptest::collection::vec(any::<u64>(), 8..9),
        budget in 1u64..64,
        p3 in any::<bool>(),
    ) {
        let program: Vec<MemInsn> = raw.iter().map(|&b| mem_insn(b)).collect();
        let (mut oracle, at) = mem_harness(&program, &regs, p3);
        let (mut blocks, _) = mem_harness(&program, &regs, p3);
        let (mut steps, _) = mem_harness(&program, &regs, p3);
        // The oracle walks the program once, one retire at a time.
        for &(a, len, insn) in &at {
            prop_assert_eq!(oracle.cpu.regs.eip, a);
            if let Trap::PageFault(_) = step_against_oracle(&mut oracle, insn, len) {
                oracle.cpu.regs.eip = a + len;
            }
        }
        prop_assert_eq!(oracle.step(), Trap::Halt);
        // Three passes from the entry: later passes re-enter built blocks.
        for pass in 0..3 {
            blocks.cpu.regs.eip = CODE;
            steps.cpu.regs.eip = CODE;
            for chunk in 0..256 {
                let limit = blocks.cycles + budget;
                let got = blocks.run_block(limit);
                let want = step_until(&mut steps, limit);
                prop_assert_eq!(got, want, "diverged in pass {} chunk {}", pass, chunk);
                assert_same_state(&blocks, &steps, &format!("in pass {pass} chunk {chunk}"));
                match got.1 {
                    Trap::None => {}
                    Trap::PageFault(_) => {
                        // Resume past it, as a kernel that skips it would.
                        let eip = blocks.cpu.regs.eip;
                        let &(_, len, _) = at.iter().find(|(a, ..)| *a == eip).expect("boundary");
                        blocks.cpu.regs.eip = eip + len;
                        steps.cpu.regs.eip = eip + len;
                    }
                    _ => break,
                }
            }
        }
        assert_same_memory(&blocks, &steps);
    }
}
