//! Instruction execution semantics.
//!
//! [`Machine::step`] fetches (through the instruction-TLB), decodes and
//! executes one instruction against a [`Machine`]. Every memory operand access goes
//! through the data-TLB. The executor mutates registers freely because
//! [`Machine::step`] snapshots and rolls back the register file on a fault;
//! memory is only mutated by stores that have already fully translated, so
//! all exceptions are precise.

use crate::cpu::{flags, Access, PageFaultInfo, Privilege, Reg};
use crate::isa::{
    self, AluOp, CodeSource, Cond, Decoded, Dir, Grp5Op, Insn, Mem, Rm, ShiftCount, ShiftOp, UnOp,
};
use crate::machine::{CfiEvent, CfiKind, Machine};
use crate::pte;

/// How an instruction retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Execution continues at the (already updated) `eip`.
    Normal,
    /// `int n` retired; the kernel should service vector `vector`.
    Syscall {
        /// Interrupt vector.
        vector: u8,
    },
    /// `hlt` retired.
    Halt,
}

/// Exception raised mid-instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exc {
    /// Page fault (fetch or data).
    PageFault(PageFaultInfo),
    /// Undecodable instruction.
    InvalidOpcode {
        /// First offending opcode byte.
        opcode: u8,
    },
    /// Division by zero or quotient overflow.
    DivideError,
}

impl From<PageFaultInfo> for Exc {
    fn from(pf: PageFaultInfo) -> Exc {
        Exc::PageFault(pf)
    }
}

/// Fetches instruction bytes through the I-TLB, advancing a cursor. Only
/// the first byte on each page is translated; later bytes on that page
/// reuse its frame.
struct FetchSource<'m> {
    m: &'m mut Machine,
    addr: u32,
    /// `(vpn, frame base)` of the page last translated.
    page: (u32, u32),
}

impl CodeSource for FetchSource<'_> {
    type Err = PageFaultInfo;

    fn next(&mut self) -> Result<u8, PageFaultInfo> {
        let vpn = pte::vpn(self.addr);
        if vpn != self.page.0 {
            let p = self
                .m
                .translate(self.addr, Access::Fetch, Privilege::User)?;
            self.page = (vpn, p - pte::page_offset(p));
        }
        let b = self
            .m
            .phys
            .read_u8(self.page.1 | pte::page_offset(self.addr));
        self.addr = self.addr.wrapping_add(1);
        Ok(b)
    }
}

/// Fetch and decode the instruction at `eip`, returning the outcome and the
/// address of the following instruction.
///
/// One I-TLB lookup per page the encoding touches, cached or not (see
/// [`Machine::step`]). Page-crossing encodings are never cached: the next
/// page's mapping can change independently of this frame's generation.
fn fetch_decode(m: &mut Machine, eip: u32) -> Result<(Decoded, u32), Exc> {
    let p = m.translate(eip, Access::Fetch, Privilege::User)?;
    let pfn = p >> pte::PAGE_SHIFT;
    let off = pte::page_offset(p);
    let version = m.phys.frame_version(pfn);
    if let Some(c) = m.decode_cache.lookup(pfn, off, version) {
        return Ok((c.decoded, eip.wrapping_add(c.len as u32)));
    }
    let mut src = FetchSource {
        m,
        addr: eip,
        page: (pte::vpn(eip), p - off),
    };
    let decoded = isa::decode(&mut src)?;
    let next_eip = src.addr;
    let len = next_eip.wrapping_sub(eip);
    if off + len <= pte::PAGE_SIZE {
        m.decode_cache.insert(
            pfn,
            off,
            version,
            crate::decode_cache::CachedDecode {
                decoded,
                len: len as u8,
            },
        );
    }
    Ok((decoded, next_eip))
}

/// Execute one instruction. See [`Machine::step`] for the public wrapper
/// that adds snapshotting, trap-flag handling and statistics.
pub(crate) fn step(m: &mut Machine) -> Result<Flow, Exc> {
    let start_eip = m.cpu.regs.eip;
    let (decoded, next_eip) = fetch_decode(m, start_eip)?;
    let insn = match decoded {
        Decoded::Insn { insn, .. } => insn,
        Decoded::Invalid { opcode } => return Err(Exc::InvalidOpcode { opcode }),
    };
    m.cpu.regs.eip = next_eip;
    exec_insn(m, insn, next_eip).inspect_err(|_| {
        // Machine::step restores the full snapshot; keep eip coherent anyway
        // for internal callers.
        m.cpu.regs.eip = start_eip;
    })
}

pub(crate) fn exec_insn(m: &mut Machine, insn: Insn, next_eip: u32) -> Result<Flow, Exc> {
    match insn {
        Insn::Nop => {}
        Insn::Hlt => return Ok(Flow::Halt),
        Insn::Int(v) => return Ok(Flow::Syscall { vector: v }),
        Insn::Ret => {
            let target = pop(m)?;
            m.cpu.regs.eip = target;
            if m.config.cfi_events {
                m.pending_cfi = Some(CfiEvent {
                    kind: CfiKind::Ret,
                    target,
                    link: target,
                });
            }
        }
        Insn::Leave => {
            m.cpu.regs.set(Reg::Esp, m.cpu.regs.get(Reg::Ebp));
            let bp = pop(m)?;
            m.cpu.regs.set(Reg::Ebp, bp);
        }
        Insn::Cdq => {
            let sign = ((m.cpu.regs.get(Reg::Eax) as i32) >> 31) as u32;
            m.cpu.regs.set(Reg::Edx, sign);
        }
        Insn::MovRegImm(r, imm) => m.cpu.regs.set(r, imm),
        Insn::PushReg(r) => {
            let v = m.cpu.regs.get(r);
            push(m, v)?;
        }
        Insn::PopReg(r) => {
            let v = pop(m)?;
            m.cpu.regs.set(r, v);
        }
        Insn::PushImm(v) => push(m, v as u32)?,
        Insn::IncReg(r) => {
            let v = m.cpu.regs.get(r).wrapping_add(1);
            m.cpu.regs.set(r, v);
            set_incdec_flags(m, v, true);
        }
        Insn::DecReg(r) => {
            let v = m.cpu.regs.get(r).wrapping_sub(1);
            m.cpu.regs.set(r, v);
            set_incdec_flags(m, v, false);
        }
        Insn::CallRel(rel) => {
            push(m, next_eip)?;
            m.cpu.regs.eip = next_eip.wrapping_add(rel as u32);
            if m.config.cfi_events {
                m.pending_cfi = Some(CfiEvent {
                    kind: CfiKind::Call,
                    target: m.cpu.regs.eip,
                    link: next_eip,
                });
            }
        }
        Insn::JmpRel(rel) => {
            m.cpu.regs.eip = next_eip.wrapping_add(rel as u32);
        }
        Insn::JccRel(cond, rel) => {
            if cond_holds(&m.cpu.regs.eflags, cond) {
                m.cpu.regs.eip = next_eip.wrapping_add(rel as u32);
            }
        }
        Insn::MovRmReg { byte, dir, rm, reg } => match dir {
            Dir::ToRm => {
                let v = m.cpu.regs.get(reg);
                write_rm(m, rm, v, byte)?;
            }
            Dir::FromRm => {
                let v = read_rm(m, rm, byte)?;
                if byte {
                    // x86 `mov r8, r/m8` merges into the low byte.
                    let old = m.cpu.regs.get(reg);
                    m.cpu.regs.set(reg, (old & !0xFF) | (v & 0xFF));
                } else {
                    m.cpu.regs.set(reg, v);
                }
            }
        },
        Insn::MovRmImm { byte, rm, imm } => write_rm(m, rm, imm, byte)?,
        Insn::Movzx8 { dst, src } => {
            let v = read_rm(m, src, true)?;
            m.cpu.regs.set(dst, v & 0xFF);
        }
        Insn::Lea(dst, mem) => {
            let addr = effective_address(m, &mem);
            m.cpu.regs.set(dst, addr);
        }
        Insn::Alu { op, dir, rm, reg } => {
            let (dst_val, src_val) = match dir {
                Dir::ToRm => (read_rm(m, rm, false)?, m.cpu.regs.get(reg)),
                Dir::FromRm => (m.cpu.regs.get(reg), read_rm(m, rm, false)?),
            };
            let result = alu(m, op, dst_val, src_val);
            if let Some(result) = result {
                match dir {
                    Dir::ToRm => write_rm(m, rm, result, false)?,
                    Dir::FromRm => m.cpu.regs.set(reg, result),
                }
            }
        }
        Insn::AluImm { op, rm, imm } => {
            let dst_val = read_rm(m, rm, false)?;
            if let Some(result) = alu(m, op, dst_val, imm as u32) {
                write_rm(m, rm, result, false)?;
            }
        }
        Insn::Shift { op, rm, count } => {
            let n = match count {
                ShiftCount::Imm(i) => i,
                ShiftCount::Cl => m.cpu.regs.get(Reg::Ecx) as u8,
            } & 31;
            let v = read_rm(m, rm, false)?;
            if n != 0 {
                let (result, cf) = match op {
                    ShiftOp::Shl => (v.wrapping_shl(n as u32), (v >> (32 - n)) & 1 == 1),
                    ShiftOp::Shr => (v.wrapping_shr(n as u32), (v >> (n - 1)) & 1 == 1),
                    ShiftOp::Sar => (
                        ((v as i32).wrapping_shr(n as u32)) as u32,
                        ((v as i32) >> (n - 1)) & 1 == 1,
                    ),
                };
                write_rm(m, rm, result, false)?;
                let mut fl = zsp(result);
                if cf {
                    fl |= flags::CF;
                }
                apply_flags(&mut m.cpu.regs, ALU_FLAGS, fl);
            }
        }
        Insn::Grp3 { op, rm } => match op {
            UnOp::Not => {
                let v = !read_rm(m, rm, false)?;
                write_rm(m, rm, v, false)?;
            }
            UnOp::Neg => {
                let v = read_rm(m, rm, false)?;
                let r = 0u32.wrapping_sub(v);
                write_rm(m, rm, r, false)?;
                let mut fl = zsp(r);
                if v != 0 {
                    fl |= flags::CF;
                }
                if v == 0x8000_0000 {
                    fl |= flags::OF;
                }
                apply_flags(&mut m.cpu.regs, ALU_FLAGS, fl);
            }
            UnOp::Mul => {
                let v = read_rm(m, rm, false)? as u64;
                let prod = m.cpu.regs.get(Reg::Eax) as u64 * v;
                m.cpu.regs.set(Reg::Eax, prod as u32);
                m.cpu.regs.set(Reg::Edx, (prod >> 32) as u32);
                let hi = (prod >> 32) != 0;
                m.cpu.regs.set_flag(flags::CF, hi);
                m.cpu.regs.set_flag(flags::OF, hi);
            }
            UnOp::Div => {
                let divisor = read_rm(m, rm, false)? as u64;
                if divisor == 0 {
                    return Err(Exc::DivideError);
                }
                let dividend =
                    ((m.cpu.regs.get(Reg::Edx) as u64) << 32) | m.cpu.regs.get(Reg::Eax) as u64;
                let q = dividend / divisor;
                if q > u32::MAX as u64 {
                    return Err(Exc::DivideError);
                }
                m.cpu.regs.set(Reg::Eax, q as u32);
                m.cpu.regs.set(Reg::Edx, (dividend % divisor) as u32);
            }
        },
        Insn::Grp5 { op, rm } => match op {
            Grp5Op::Inc => {
                let v = read_rm(m, rm, false)?.wrapping_add(1);
                write_rm(m, rm, v, false)?;
                set_incdec_flags(m, v, true);
            }
            Grp5Op::Dec => {
                let v = read_rm(m, rm, false)?.wrapping_sub(1);
                write_rm(m, rm, v, false)?;
                set_incdec_flags(m, v, false);
            }
            Grp5Op::Call => {
                let target = read_rm(m, rm, false)?;
                push(m, next_eip)?;
                m.cpu.regs.eip = target;
                if m.config.cfi_events {
                    m.pending_cfi = Some(CfiEvent {
                        kind: CfiKind::IndirectCall,
                        target,
                        link: next_eip,
                    });
                }
            }
            Grp5Op::Jmp => {
                let target = read_rm(m, rm, false)?;
                m.cpu.regs.eip = target;
                if m.config.cfi_events {
                    m.pending_cfi = Some(CfiEvent {
                        kind: CfiKind::IndirectJmp,
                        target,
                        link: 0,
                    });
                }
            }
            Grp5Op::Push => {
                let v = read_rm(m, rm, false)?;
                push(m, v)?;
            }
        },
    }
    Ok(Flow::Normal)
}

/// Flag bits an ALU operation writes, composed once and applied with a
/// single masked `eflags` update (per-bit `set_flag` calls form a
/// serial dependence chain on the same word — this is the interpreter's
/// hottest flag path).
const ALU_FLAGS: u32 = flags::CF | flags::OF | flags::ZF | flags::SF | flags::PF;

fn apply_flags(f: &mut crate::cpu::Regs, affected: u32, set: u32) {
    f.eflags = (f.eflags & !affected) | set;
}

/// Evaluate an ALU operation, set flags, and return the result to be
/// written back (`None` for compare/test which only set flags).
fn alu(m: &mut Machine, op: AluOp, a: u32, b: u32) -> Option<u32> {
    match op {
        AluOp::Add => {
            let r = a.wrapping_add(b);
            let mut fl = zsp(r);
            if r < a {
                fl |= flags::CF;
            }
            if ((a ^ !b) & (a ^ r)) >> 31 == 1 {
                fl |= flags::OF;
            }
            apply_flags(&mut m.cpu.regs, ALU_FLAGS, fl);
            Some(r)
        }
        AluOp::Sub | AluOp::Cmp => {
            let r = a.wrapping_sub(b);
            let mut fl = zsp(r);
            if a < b {
                fl |= flags::CF;
            }
            if ((a ^ b) & (a ^ r)) >> 31 == 1 {
                fl |= flags::OF;
            }
            apply_flags(&mut m.cpu.regs, ALU_FLAGS, fl);
            (op == AluOp::Sub).then_some(r)
        }
        AluOp::Or | AluOp::And | AluOp::Xor | AluOp::Test => {
            let r = match op {
                AluOp::Or => a | b,
                AluOp::Xor => a ^ b,
                _ => a & b, // And and Test
            };
            apply_flags(&mut m.cpu.regs, ALU_FLAGS, zsp(r));
            (op != AluOp::Test).then_some(r)
        }
    }
}

/// ZF/SF/PF bits for a result, as a mask to OR into the composed flags.
fn zsp(r: u32) -> u32 {
    let mut fl = 0;
    if r == 0 {
        fl |= flags::ZF;
    }
    if (r as i32) < 0 {
        fl |= flags::SF;
    }
    if parity_even(r) {
        fl |= flags::PF;
    }
    fl
}

fn set_incdec_flags(m: &mut Machine, r: u32, inc: bool) {
    let mut fl = zsp(r);
    // OF: inc overflows into 0x80000000; dec overflows out of it.
    if r == if inc { 0x8000_0000 } else { 0x7FFF_FFFF } {
        fl |= flags::OF;
    }
    // CF is preserved, as on x86.
    apply_flags(
        &mut m.cpu.regs,
        flags::OF | flags::ZF | flags::SF | flags::PF,
        fl,
    );
}

fn parity_even(r: u32) -> bool {
    (r as u8).count_ones().is_multiple_of(2)
}

pub(crate) fn cond_holds(eflags: &u32, cond: Cond) -> bool {
    let f = |mask: u32| eflags & mask != 0;
    match cond {
        Cond::O => f(flags::OF),
        Cond::No => !f(flags::OF),
        Cond::B => f(flags::CF),
        Cond::Ae => !f(flags::CF),
        Cond::E => f(flags::ZF),
        Cond::Ne => !f(flags::ZF),
        Cond::Be => f(flags::CF) || f(flags::ZF),
        Cond::A => !f(flags::CF) && !f(flags::ZF),
        Cond::S => f(flags::SF),
        Cond::Ns => !f(flags::SF),
        Cond::P => f(flags::PF),
        Cond::Np => !f(flags::PF),
        Cond::L => f(flags::SF) != f(flags::OF),
        Cond::Ge => f(flags::SF) == f(flags::OF),
        Cond::Le => f(flags::ZF) || (f(flags::SF) != f(flags::OF)),
        Cond::G => !f(flags::ZF) && (f(flags::SF) == f(flags::OF)),
    }
}

fn effective_address(m: &Machine, mem: &Mem) -> u32 {
    let mut addr = mem.disp as u32;
    if let Some(b) = mem.base {
        addr = addr.wrapping_add(m.cpu.regs.get(b));
    }
    if let Some((idx, scale)) = mem.index {
        addr = addr.wrapping_add(m.cpu.regs.get(idx).wrapping_mul(scale as u32));
    }
    addr
}

fn read_rm(m: &mut Machine, rm: Rm, byte: bool) -> Result<u32, PageFaultInfo> {
    match rm {
        Rm::Reg(r) => Ok(if byte {
            m.cpu.regs.get(r) & 0xFF
        } else {
            m.cpu.regs.get(r)
        }),
        Rm::Mem(mem) => {
            let addr = effective_address(m, &mem);
            if byte {
                Ok(m.read_u8(addr, Privilege::User)? as u32)
            } else {
                m.read_u32(addr, Privilege::User)
            }
        }
    }
}

fn write_rm(m: &mut Machine, rm: Rm, v: u32, byte: bool) -> Result<(), PageFaultInfo> {
    match rm {
        Rm::Reg(r) => {
            if byte {
                let old = m.cpu.regs.get(r);
                m.cpu.regs.set(r, (old & !0xFF) | (v & 0xFF));
            } else {
                m.cpu.regs.set(r, v);
            }
            Ok(())
        }
        Rm::Mem(mem) => {
            let addr = effective_address(m, &mem);
            if byte {
                m.write_u8(addr, v as u8, Privilege::User)
            } else {
                m.write_u32(addr, v, Privilege::User)
            }
        }
    }
}

fn push(m: &mut Machine, v: u32) -> Result<(), PageFaultInfo> {
    let sp = m.cpu.regs.get(Reg::Esp).wrapping_sub(4);
    m.write_u32(sp, v, Privilege::User)?;
    m.cpu.regs.set(Reg::Esp, sp);
    Ok(())
}

fn pop(m: &mut Machine) -> Result<u32, PageFaultInfo> {
    let sp = m.cpu.regs.get(Reg::Esp);
    let v = m.read_u32(sp, Privilege::User)?;
    m.cpu.regs.set(Reg::Esp, sp.wrapping_add(4));
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, Trap};
    use crate::pte::{self, PAGE_SIZE};

    /// Build a machine with a flat identity mapping of `pages` user pages
    /// starting at virtual 0x1000, and the given code at 0x1000.
    fn harness(code: &[u8], pages: u32) -> Machine {
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
        for i in 0..pages {
            let f = m.alloc_zeroed_frame().unwrap();
            m.phys.write_u32(
                tab.base() + (1 + i) * 4,
                pte::make(f, pte::PRESENT | pte::WRITABLE | pte::USER),
            );
            if i == 0 {
                m.phys.write(f.base(), code);
            }
        }
        m.set_cr3(dir);
        m.cpu.regs.eip = PAGE_SIZE;
        // Stack at the top of the mapped region.
        m.cpu.regs.set(Reg::Esp, PAGE_SIZE * (1 + pages));
        m
    }

    fn run_until_halt(m: &mut Machine, max: u32) {
        for _ in 0..max {
            match m.step() {
                Trap::None => {}
                Trap::Halt => return,
                t => panic!("unexpected trap {t:?} at eip {:#x}", m.cpu.regs.eip),
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn mov_imm_and_halt() {
        let mut m = harness(b"\xb8\x2a\x00\x00\x00\xf4", 4); // mov eax,42; hlt
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 42);
    }

    #[test]
    fn push_pop_roundtrip() {
        // mov eax, 0x1234; push eax; pop ebx; hlt
        let mut m = harness(b"\xb8\x34\x12\x00\x00\x50\x5b\xf4", 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Ebx), 0x1234);
    }

    #[test]
    fn call_ret_flow() {
        // 0x1000: call +3 (to 0x1008); hlt (0x1005..); target: mov eax,7; ret
        // call rel32 is 5 bytes, then hlt at 0x1005, pad, func at 0x1008.
        let code = [
            0xE8, 0x03, 0x00, 0x00, 0x00, // call 0x1008
            0xF4, // hlt
            0x90, 0x90, // padding
            0xB8, 0x07, 0x00, 0x00, 0x00, // mov eax, 7
            0xC3, // ret
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 7);
    }

    #[test]
    fn conditional_branch_loop() {
        // Count eax from 0 to 5: xor eax,eax; loop: inc eax; cmp eax,5 (0x83/7);
        // jne loop; hlt
        let code = [
            0x31, 0xC0, // xor eax, eax
            0x40, // inc eax
            0x83, 0xF8, 0x05, // cmp eax, 5
            0x75, 0xFA, // jne -6 (back to inc eax)
            0xF4, // hlt
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 40);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 5);
    }

    #[test]
    fn memory_store_load() {
        // mov ebx, 0x2000; mov dword [ebx], 0xdeadbeef; mov ecx, [ebx]; hlt
        let code = [
            0xBB, 0x00, 0x20, 0x00, 0x00, // mov ebx, 0x2000
            0xC7, 0x03, 0xEF, 0xBE, 0xAD, 0xDE, // mov [ebx], 0xdeadbeef
            0x8B, 0x0B, // mov ecx, [ebx]
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Ecx), 0xDEAD_BEEF);
    }

    #[test]
    fn byte_store_merges() {
        // mov ebx,0x2000; mov dword [ebx],-1; movb [ebx], 0; movzx eax, byte [ebx+1]; hlt
        let code = [
            0xBB, 0x00, 0x20, 0x00, 0x00, //
            0xC7, 0x03, 0xFF, 0xFF, 0xFF, 0xFF, //
            0xC6, 0x03, 0x00, // mov byte [ebx], 0
            0x0F, 0xB6, 0x43, 0x01, // movzx eax, byte [ebx+1]
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 0xFF);
    }

    #[test]
    fn mul_div_pair() {
        // mov eax, 100; mov ebx, 7; mul ebx; mov ebx, 25; div ebx; hlt
        // 700 / 25 = 28 rem 0
        let code = [
            0xB8, 0x64, 0x00, 0x00, 0x00, //
            0xBB, 0x07, 0x00, 0x00, 0x00, //
            0xF7, 0xE3, // mul ebx
            0xBB, 0x19, 0x00, 0x00, 0x00, //
            0xF7, 0xF3, // div ebx
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 28);
        assert_eq!(m.cpu.regs.get(Reg::Edx), 0);
    }

    #[test]
    fn divide_by_zero_is_precise() {
        // xor ebx, ebx; div ebx
        let mut m = harness(&[0x31, 0xDB, 0xF7, 0xF3], 4);
        assert!(m.step().is_none());
        let eip_before = m.cpu.regs.eip;
        assert_eq!(m.step(), Trap::DivideError);
        assert_eq!(m.cpu.regs.eip, eip_before, "regs rolled back");
    }

    #[test]
    fn invalid_opcode_is_precise() {
        let mut m = harness(&[0x00], 4);
        match m.step() {
            Trap::InvalidOpcode { eip, opcode } => {
                assert_eq!(eip, 0x1000);
                assert_eq!(opcode, 0x00);
            }
            t => panic!("expected #UD, got {t:?}"),
        }
        assert_eq!(m.cpu.regs.eip, 0x1000);
    }

    #[test]
    fn syscall_trap_reports_vector() {
        let mut m = harness(&[0xCD, 0x80], 4);
        assert_eq!(m.step(), Trap::Syscall { vector: 0x80 });
        assert_eq!(m.cpu.regs.eip, 0x1002, "eip past the int");
    }

    #[test]
    fn fault_on_unmapped_page_sets_cr2_and_rolls_back() {
        // mov eax, [0x00500000] — far outside the mapping.
        let code = [0x8B, 0x05, 0x00, 0x00, 0x50, 0x00, 0xF4];
        let mut m = harness(&code, 4);
        match m.step() {
            Trap::PageFault(pf) => {
                assert_eq!(pf.addr, 0x0050_0000);
                assert!(!pf.present);
                assert_eq!(pf.access, Access::Read);
            }
            t => panic!("expected #PF, got {t:?}"),
        }
        assert_eq!(m.cpu.regs.cr2, 0x0050_0000);
        assert_eq!(m.cpu.regs.eip, 0x1000);
    }

    #[test]
    fn trap_flag_raises_debug_after_one_instruction() {
        let mut m = harness(&[0x90, 0x90], 4);
        m.cpu.regs.set_flag(flags::TF, true);
        assert_eq!(m.step(), Trap::DebugStep);
        m.cpu.regs.set_flag(flags::TF, false);
        assert!(m.step().is_none());
    }

    #[test]
    fn trap_flag_with_int_defers_debug_until_after_syscall() {
        let mut m = harness(&[0xCD, 0x80], 4);
        m.cpu.regs.set_flag(flags::TF, true);
        assert_eq!(m.step(), Trap::Syscall { vector: 0x80 });
        assert!(m.take_pending_singlestep());
        assert!(!m.take_pending_singlestep(), "flag is consumed");
    }

    #[test]
    fn indirect_call_through_register() {
        // mov eax, 0x1008; call eax; hlt @0x1007; func@0x1008: mov ebx,9; ret
        let code = [
            0xB8, 0x08, 0x10, 0x00, 0x00, // mov eax, 0x1008
            0xFF, 0xD0, // call eax
            0xF4, // hlt
            0xBB, 0x09, 0x00, 0x00, 0x00, // mov ebx, 9
            0xC3,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Ebx), 9);
    }

    #[test]
    fn shifts_and_flags() {
        // mov eax,1; shl eax,4; hlt
        let code = [0xB8, 0x01, 0x00, 0x00, 0x00, 0xC1, 0xE0, 0x04, 0xF4];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 16);
        assert!(!m.cpu.regs.flag(flags::ZF));
    }

    #[test]
    fn leave_unwinds_frame() {
        // Emulate: push ebp; mov ebp,esp (0x89 0xE5); sub esp,16; leave; hlt
        let code = [0x55, 0x89, 0xE5, 0x83, 0xEC, 0x10, 0xC9, 0xF4];
        let mut m = harness(&code, 4);
        let sp0 = m.cpu.regs.get(Reg::Esp);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Esp), sp0);
    }

    #[test]
    fn push_immediate_forms() {
        // push 5 (imm8); push 0x12345 (imm32); pop into regs; hlt
        let code = [
            0x6A, 0x05, // push 5
            0x68, 0x45, 0x23, 0x01, 0x00, // push 0x12345
            0x58, // pop eax (0x12345)
            0x5B, // pop ebx (5)
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 0x12345);
        assert_eq!(m.cpu.regs.get(Reg::Ebx), 5);
    }

    #[test]
    fn push_negative_imm8_sign_extends() {
        let code = [0x6A, 0xFF, 0x58, 0xF4]; // push -1; pop eax
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 0xFFFF_FFFF);
    }

    #[test]
    fn grp5_memory_inc_dec_push() {
        // mov ebx,0x2000; mov [ebx],7; inc [ebx]; inc [ebx]; dec [ebx];
        // push [ebx]; pop eax; hlt  → eax = 8
        let code = [
            0xBB, 0x00, 0x20, 0x00, 0x00, //
            0xC7, 0x03, 0x07, 0x00, 0x00, 0x00, //
            0xFF, 0x03, // inc dword [ebx]
            0xFF, 0x03, //
            0xFF, 0x0B, // dec dword [ebx]
            0xFF, 0x33, // push dword [ebx]
            0x58, // pop eax
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 16);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 8);
    }

    #[test]
    fn movzx_from_byte_register() {
        // mov ebx, 0x1234FF; movzx eax, bl; hlt → eax = 0xFF
        let code = [
            0xBB, 0xFF, 0x34, 0x12, 0x00, //
            0x0F, 0xB6, 0xC3, // movzx eax, bl
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 0xFF);
    }

    #[test]
    fn sar_preserves_sign_shr_does_not() {
        // mov eax,-8; sar eax,1 → -4 ; mov ebx,-8; shr ebx,1 → 0x7FFFFFFC
        let code = [
            0xB8, 0xF8, 0xFF, 0xFF, 0xFF, //
            0xC1, 0xF8, 0x01, // sar eax, 1
            0xBB, 0xF8, 0xFF, 0xFF, 0xFF, //
            0xC1, 0xEB, 0x01, // shr ebx, 1
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax) as i32, -4);
        assert_eq!(m.cpu.regs.get(Reg::Ebx), 0x7FFF_FFFC);
    }

    #[test]
    fn logical_ops_clear_carry_and_overflow() {
        // mov eax,-1; add eax,1 (sets CF); or eax, 1 (must clear CF/OF)
        let code = [
            0xB8, 0xFF, 0xFF, 0xFF, 0xFF, //
            0x83, 0xC0, 0x01, // add eax, 1 → CF
            0x83, 0xC8, 0x01, // or eax, 1
            0xF4,
        ];
        let mut m = harness(&code, 4);
        assert!(m.step().is_none());
        assert!(m.step().is_none());
        assert!(m.cpu.regs.flag(flags::CF), "add set carry");
        assert!(m.step().is_none());
        assert!(!m.cpu.regs.flag(flags::CF), "or cleared carry");
        assert!(!m.cpu.regs.flag(flags::OF));
    }

    #[test]
    fn neg_and_not_semantics() {
        // mov eax, 5; neg eax → -5; not eax → 4
        let code = [
            0xB8, 0x05, 0x00, 0x00, 0x00, //
            0xF7, 0xD8, // neg eax
            0xF7, 0xD0, // not eax
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Eax), 4);
    }

    #[test]
    fn div_quotient_overflow_is_de() {
        // edx:eax = 2^32, divisor 1 → quotient overflow
        let code = [
            0xBA, 0x01, 0x00, 0x00, 0x00, // mov edx, 1
            0x31, 0xC0, // xor eax, eax
            0xBB, 0x01, 0x00, 0x00, 0x00, // mov ebx, 1
            0xF7, 0xF3, // div ebx
        ];
        let mut m = harness(&code, 4);
        assert!(m.step().is_none());
        assert!(m.step().is_none());
        assert!(m.step().is_none());
        assert_eq!(m.step(), Trap::DivideError);
    }

    #[test]
    fn unsigned_vs_signed_conditions() {
        // cmp -1, 1: unsigned -1 is huge → ja taken; signed → jl taken.
        let code = [
            0xB8, 0xFF, 0xFF, 0xFF, 0xFF, // mov eax, -1
            0x83, 0xF8, 0x01, // cmp eax, 1
            0x77, 0x02, // ja +2 (taken)
            0xF4, 0xF4, // (skipped)
            0x7C, 0x02, // jl +2 (taken: -1 < 1 signed)
            0xF4, 0xF4, // (skipped)
            0xBB, 0x2A, 0x00, 0x00, 0x00, // mov ebx, 42
            0xF4,
        ];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Ebx), 42);
    }

    #[test]
    fn cdq_sign_extends() {
        // mov eax, -1 (0xFFFFFFFF); cdq; hlt
        let code = [0xB8, 0xFF, 0xFF, 0xFF, 0xFF, 0x99, 0xF4];
        let mut m = harness(&code, 4);
        run_until_halt(&mut m, 10);
        assert_eq!(m.cpu.regs.get(Reg::Edx), 0xFFFF_FFFF);
    }
}
