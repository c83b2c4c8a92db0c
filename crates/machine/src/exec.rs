//! Instruction execution semantics.
//!
//! [`Machine::step`] fetches (through the instruction-TLB), decodes and
//! executes one instruction against a [`Machine`]. Every memory operand access goes
//! through the data-TLB. The executor mutates registers freely because
//! [`Machine::step`] snapshots and rolls back the register file on a fault;
//! memory is only mutated by stores that have already fully translated, so
//! all exceptions are precise.
//!
//! # One executor over lowered ops
//!
//! [`isa::decode`] produces an [`Insn`], the type the decoder, assembler
//! and disassembler share. Execution never matches on it: each decoded
//! instruction is lowered once, when the decode cache or a superblock
//! stores it (or when an uncacheable fetch decodes it), into an [`Op`],
//! a flat 16-byte record in the style of a fixed `(opcode, a, b, c, imm)`
//! instruction format. The record holds the execution kind, the register
//! operands, a memory operand as base/index/shift/displacement (an absent
//! register reads as register 0 under a zero mask, so forming an address
//! takes no branch), the immediate, the encoded length and the
//! superblock flags. `exec` runs one record; [`Machine::step`]
//! (through the decode cache) and [`Machine::run_block`] (through
//! superblocks) both call it, and it is inlined into each call site, so
//! every instruction is defined once, here.

use crate::cpu::{flags, Access, PageFaultInfo, Privilege, Reg};
use crate::isa::{self, AluOp, CodeSource, Cond, Decoded, Dir, Grp5Op, Insn, Rm, ShiftCount};
use crate::isa::{ShiftOp, SliceSource, UnOp};
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

/// Execution kind of an [`Op`]: one variant per distinct semantics, with
/// an instruction's direction and width folded in, so the executor
/// dispatches once. Where an instruction has an r/m operand, [`A_MEM`]
/// says whether it is memory or a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Undecodable bytes: `#UD`, the opcode byte in `imm`.
    Invalid,
    Nop,
    Hlt,
    /// `int imm`.
    Int,
    Ret,
    Leave,
    Cdq,
    /// `mov reg, imm`.
    MovRegImm,
    PushReg,
    PopReg,
    /// `push imm` (sign-extended at lowering).
    PushImm,
    IncReg,
    DecReg,
    /// `call`/`jmp`/`jcc` to `next_eip + imm`.
    CallRel,
    JmpRel,
    Jcc(Cond),
    /// `mov reg, r/m` (dword, or byte merged into the low byte).
    Load,
    LoadByte,
    /// `mov r/m, reg`.
    Store,
    StoreByte,
    /// `mov r/m, imm`.
    StoreImm,
    StoreImmByte,
    /// `movzx reg, r/m8`.
    Movzx8,
    /// `lea reg, [m]`.
    Lea,
    /// `op r/m, reg` and `op reg, r/m`.
    AluToRm(AluOp),
    AluFromRm(AluOp),
    /// `op r/m, imm`.
    AluImm(AluOp),
    /// Shift r/m by `imm` or by `cl`.
    Shift(ShiftOp),
    ShiftCl(ShiftOp),
    Not,
    Neg,
    Mul,
    Div,
    /// Group 5 on r/m: `inc`, `dec`, indirect `call`/`jmp`, `push`.
    IncRm,
    DecRm,
    CallRm,
    JmpRm,
    PushRm,
}

/// `amode` bits: the index scale as a shift count.
pub(crate) const A_SHIFT: u8 = 0b11;
/// `amode` bit: `rm` is the address's base register.
pub(crate) const A_BASE: u8 = 1 << 2;
/// `amode` bit: `index` is the address's index register.
pub(crate) const A_INDEX: u8 = 1 << 3;
/// `amode` bit: the r/m operand is memory (else the register `rm`).
pub(crate) const A_MEM: u8 = 1 << 4;

/// Superblock flag: the op may store to guest memory (stack pushes included).
/// Only after one of these can the executing frame's write-generation
/// have moved, so only then does the per-op coherence re-check have
/// anything to catch.
pub(crate) const F_WRITES_MEM: u8 = 1 << 0;
/// Superblock flag: the op can mutate registers or flags *before* a
/// fault-capable access (`leave` moves `esp` before its pop;
/// memory-destination ALU ops set flags between the read and the store),
/// so precise rollback needs the full pre-op register file. Ops without
/// it reach every `Err` return with all registers but `eip` untouched.
pub(crate) const F_FULL_SNAP: u8 = 1 << 1;
/// Superblock flag: relative branch (`jmp rel`, `jcc rel`). Infallible,
/// store-free, and `eip` is the only register it can write, so a taken
/// branch shows as `eip` differing from the fall-through.
pub(crate) const F_BRANCH: u8 = 1 << 2;
/// Superblock flag: the op provably returns `Ok(Flow::Normal)` and touches no
/// guest memory (register-only ops and relative branches): no fault
/// path, no store, no trace emission, and exactly `insn_cost` charged.
/// Runs of these execute with the per-op budget check precomputed and
/// the cycle charges batched (see [`Machine::run_block`]).
pub(crate) const F_NO_FAULT: u8 = 1 << 3;

/// One instruction lowered for execution: what both code caches store
/// and the executor runs. Build one with [`Op::new`] or [`Op::decode`];
/// two ops are equal exactly when they lower the same decode of the same
/// bytes, which is what the code-cache coherence checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub(crate) kind: Kind,
    /// Bytes consumed from the fetch stream (for `#UD`, how far the
    /// decoder got before rejecting).
    pub(crate) len: u8,
    /// `F_*` superblock flags, derived from `kind` and the operand form.
    pub(crate) flags: u8,
    /// Register operand (the destination of loads, `lea`, `movzx`).
    pub(crate) reg: Reg,
    /// Register r/m operand, or the memory operand's base register.
    pub(crate) rm: Reg,
    /// Memory operand's index register.
    pub(crate) index: Reg,
    /// `A_*` bits: index shift, which address registers are present, and
    /// whether the r/m operand is memory.
    pub(crate) amode: u8,
    /// Memory operand's displacement.
    pub(crate) disp: u32,
    /// Immediate, relative branch displacement, shift count, interrupt
    /// vector or `#UD` opcode byte.
    pub(crate) imm: u32,
}

impl Op {
    /// Lower a decoder outcome whose encoding is `len` bytes long.
    pub fn new(decoded: Decoded, len: u8) -> Op {
        let mut op = Op {
            kind: Kind::Invalid,
            len,
            flags: 0,
            reg: Reg::Eax,
            rm: Reg::Eax,
            index: Reg::Eax,
            amode: 0,
            disp: 0,
            imm: 0,
        };
        let insn = match decoded {
            Decoded::Insn { insn, .. } => insn,
            Decoded::Invalid { opcode } => {
                op.imm = opcode as u32;
                return op;
            }
        };
        // Each arm: (kind, register operand, r/m operand, immediate).
        let none = Reg::Eax;
        let (kind, reg, rm, imm) = match insn {
            Insn::Nop => (Kind::Nop, none, None, 0),
            Insn::Hlt => (Kind::Hlt, none, None, 0),
            Insn::Int(v) => (Kind::Int, none, None, v as u32),
            Insn::Ret => (Kind::Ret, none, None, 0),
            Insn::Leave => (Kind::Leave, none, None, 0),
            Insn::Cdq => (Kind::Cdq, none, None, 0),
            Insn::MovRegImm(r, imm) => (Kind::MovRegImm, r, None, imm),
            Insn::PushReg(r) => (Kind::PushReg, r, None, 0),
            Insn::PopReg(r) => (Kind::PopReg, r, None, 0),
            Insn::PushImm(v) => (Kind::PushImm, none, None, v as u32),
            Insn::IncReg(r) => (Kind::IncReg, r, None, 0),
            Insn::DecReg(r) => (Kind::DecReg, r, None, 0),
            Insn::CallRel(rel) => (Kind::CallRel, none, None, rel as u32),
            Insn::JmpRel(rel) => (Kind::JmpRel, none, None, rel as u32),
            Insn::JccRel(cond, rel) => (Kind::Jcc(cond), none, None, rel as u32),
            Insn::MovRmReg { byte, dir, rm, reg } => {
                let kind = match (dir, byte) {
                    (Dir::ToRm, false) => Kind::Store,
                    (Dir::ToRm, true) => Kind::StoreByte,
                    (Dir::FromRm, false) => Kind::Load,
                    (Dir::FromRm, true) => Kind::LoadByte,
                };
                (kind, reg, Some(rm), 0)
            }
            Insn::MovRmImm { byte, rm, imm } => {
                let kind = if byte {
                    Kind::StoreImmByte
                } else {
                    Kind::StoreImm
                };
                (kind, none, Some(rm), imm)
            }
            Insn::Movzx8 { dst, src } => (Kind::Movzx8, dst, Some(src), 0),
            Insn::Lea(dst, mem) => (Kind::Lea, dst, Some(Rm::Mem(mem)), 0),
            Insn::Alu { op, dir, rm, reg } => {
                let kind = match dir {
                    Dir::ToRm => Kind::AluToRm(op),
                    Dir::FromRm => Kind::AluFromRm(op),
                };
                (kind, reg, Some(rm), 0)
            }
            Insn::AluImm { op, rm, imm } => (Kind::AluImm(op), none, Some(rm), imm as u32),
            Insn::Shift { op, rm, count } => match count {
                ShiftCount::Imm(n) => (Kind::Shift(op), none, Some(rm), n as u32),
                ShiftCount::Cl => (Kind::ShiftCl(op), none, Some(rm), 0),
            },
            Insn::Grp3 { op, rm } => {
                let kind = match op {
                    UnOp::Not => Kind::Not,
                    UnOp::Neg => Kind::Neg,
                    UnOp::Mul => Kind::Mul,
                    UnOp::Div => Kind::Div,
                };
                (kind, none, Some(rm), 0)
            }
            Insn::Grp5 { op, rm } => {
                let kind = match op {
                    Grp5Op::Inc => Kind::IncRm,
                    Grp5Op::Dec => Kind::DecRm,
                    Grp5Op::Call => Kind::CallRm,
                    Grp5Op::Jmp => Kind::JmpRm,
                    Grp5Op::Push => Kind::PushRm,
                };
                (kind, none, Some(rm), 0)
            }
        };
        op.kind = kind;
        op.reg = reg;
        op.imm = imm;
        match rm {
            None => {}
            Some(Rm::Reg(r)) => op.rm = r,
            Some(Rm::Mem(m)) => {
                op.amode = A_MEM;
                if let Some(b) = m.base {
                    op.rm = b;
                    op.amode |= A_BASE;
                }
                if let Some((i, scale)) = m.index {
                    op.index = i;
                    op.amode |= A_INDEX | scale.trailing_zeros() as u8;
                }
                op.disp = m.disp as u32;
            }
        }
        op.flags = block_flags(op.kind, op.amode & A_MEM != 0);
        op
    }

    /// Decode and lower the instruction at the start of `bytes`.
    ///
    /// # Errors
    ///
    /// [`isa::UnexpectedEof`] if `bytes` ends mid-instruction.
    pub fn decode(bytes: &[u8]) -> Result<Op, isa::UnexpectedEof> {
        let mut src = SliceSource::new(bytes);
        let decoded = isa::decode(&mut src)?;
        Ok(Op::new(decoded, src.position() as u8))
    }

    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> u8 {
        self.len
    }

    /// True if this op ends a superblock: it always diverts control (or
    /// traps), so nothing after it runs from the same entry. Not a
    /// correctness gate (`run_block` notices any transfer at run time);
    /// stopping here keeps unreachable tails out of blocks.
    pub(crate) fn ends_block(&self) -> bool {
        matches!(
            self.kind,
            Kind::Invalid
                | Kind::Ret
                | Kind::Hlt
                | Kind::Int
                | Kind::CallRel
                | Kind::JmpRel
                | Kind::CallRm
                | Kind::JmpRm
        )
    }

    /// Effective address of the memory operand, without a branch: an
    /// absent base or index is register 0 under a zero mask.
    #[inline(always)]
    fn ea(&self, gpr: &[u32; 8]) -> u32 {
        let mask = |bit: u8| 0u32.wrapping_sub((self.amode & bit != 0) as u32);
        let base = gpr[self.rm as usize] & mask(A_BASE);
        let index = (gpr[self.index as usize] & mask(A_INDEX)) << (self.amode & A_SHIFT);
        self.disp.wrapping_add(base).wrapping_add(index)
    }
}

/// Superblock flags of a kind whose r/m operand (if any) is memory when
/// `mem`. Every arm is a proof obligation against `exec`'s fault
/// ordering. Only the register-form arm is guarded, so a new kind does
/// not compile until its memory form is classified explicitly; when in
/// doubt, `F_WRITES_MEM | F_FULL_SNAP` (run alone, re-check coherence,
/// roll back the whole register file) is always correct.
fn block_flags(kind: Kind, mem: bool) -> u8 {
    match kind {
        // Dynamic control transfers, syscall gates, halts and `#UD` (each
        // ends its block), and stack pops: the only fault precedes every
        // register write, and nothing is stored.
        Kind::Invalid
        | Kind::Ret
        | Kind::CallRel
        | Kind::Int
        | Kind::Hlt
        | Kind::CallRm
        | Kind::JmpRm
        | Kind::PopReg => 0,
        // Relative branches: infallible and store-free.
        Kind::JmpRel | Kind::Jcc(_) => F_BRANCH | F_NO_FAULT,
        // `leave` sets `esp` from `ebp` before its pop can fault.
        Kind::Leave => F_FULL_SNAP,
        // Stack pushes: the store fault precedes the `esp` update.
        Kind::PushReg | Kind::PushImm | Kind::PushRm => F_WRITES_MEM,
        // Register-only, whatever the operand form (`lea` never accesses
        // its memory operand).
        Kind::Nop | Kind::Cdq | Kind::MovRegImm | Kind::IncReg | Kind::DecReg | Kind::Lea => {
            F_NO_FAULT
        }
        // `div`'s `#DE` checks precede its register writes.
        Kind::Div => 0,
        // Every other kind on a register operand is infallible.
        _ if !mem => F_NO_FAULT,
        // Memory-destination ALU: flags are written between the read and
        // the store, so a store fault needs the full register file.
        // Compare/test set flags only after their (sole) read fault.
        Kind::AluToRm(AluOp::Cmp | AluOp::Test) | Kind::AluImm(AluOp::Cmp) => 0,
        Kind::AluToRm(_) | Kind::AluImm(_) => F_WRITES_MEM | F_FULL_SNAP,
        // Memory-destination stores whose flag writes all come after the
        // last fault-capable access: light rollback.
        Kind::Store
        | Kind::StoreByte
        | Kind::StoreImm
        | Kind::StoreImmByte
        | Kind::Shift(_)
        | Kind::ShiftCl(_)
        | Kind::Not
        | Kind::Neg
        | Kind::IncRm
        | Kind::DecRm => F_WRITES_MEM,
        // Loads: the only possible fault precedes every register or flag
        // write, and nothing is stored.
        Kind::Load | Kind::LoadByte | Kind::Movzx8 | Kind::AluFromRm(_) | Kind::Mul => 0,
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

/// Fetch and lower the instruction at `eip`, returning the op and the
/// address of the following instruction.
///
/// One I-TLB lookup per page the encoding touches, cached or not (see
/// [`Machine::step`]). Page-crossing encodings are never cached: the next
/// page's mapping can change independently of this frame's generation.
fn fetch_decode(m: &mut Machine, eip: u32) -> Result<(Op, u32), Exc> {
    let p = m.translate(eip, Access::Fetch, Privilege::User)?;
    let pfn = p >> pte::PAGE_SHIFT;
    let off = pte::page_offset(p);
    let version = m.phys.frame_version(pfn);
    if let Some(op) = m.decode_cache.lookup(pfn, off, version) {
        return Ok((op, eip.wrapping_add(op.len as u32)));
    }
    let mut src = FetchSource {
        m,
        addr: eip,
        page: (pte::vpn(eip), p - off),
    };
    let decoded = isa::decode(&mut src)?;
    let next_eip = src.addr;
    let len = next_eip.wrapping_sub(eip);
    let op = Op::new(decoded, len as u8);
    if off + len <= pte::PAGE_SIZE {
        m.decode_cache.insert(pfn, off, version, op);
    }
    Ok((op, next_eip))
}

/// Execute one instruction. See [`Machine::step`] for the public wrapper
/// that adds snapshotting, trap-flag handling and statistics (and rolls
/// the register file back on `Err`).
pub(crate) fn step(m: &mut Machine) -> Result<Flow, Exc> {
    let (op, next_eip) = fetch_decode(m, m.cpu.regs.eip)?;
    exec(m, &op, next_eip)
}

/// Execute one lowered op whose fall-through address is `next_eip`: the
/// one definition of every instruction. It sets `eip` to `next_eip` first
/// and lets a control transfer overwrite it, so on return `eip` is where
/// execution continues. On `Err` registers may be partly written (`eip`
/// always is); the caller rolls them back (see `F_FULL_SNAP`).
#[inline(always)]
pub(crate) fn exec(m: &mut Machine, op: &Op, next_eip: u32) -> Result<Flow, Exc> {
    m.cpu.regs.eip = next_eip;
    let target = next_eip.wrapping_add(op.imm);
    match op.kind {
        Kind::Invalid => {
            return Err(Exc::InvalidOpcode {
                opcode: op.imm as u8,
            })
        }
        Kind::Nop => {}
        Kind::Hlt => return Ok(Flow::Halt),
        Kind::Int => {
            return Ok(Flow::Syscall {
                vector: op.imm as u8,
            })
        }
        Kind::Ret => {
            let target = pop(m)?;
            m.cpu.regs.eip = target;
            cfi(m, CfiKind::Ret, target, target);
        }
        Kind::Leave => {
            m.cpu.regs.set(Reg::Esp, m.cpu.regs.get(Reg::Ebp));
            let bp = pop(m)?;
            m.cpu.regs.set(Reg::Ebp, bp);
        }
        Kind::Cdq => {
            let sign = ((m.cpu.regs.get(Reg::Eax) as i32) >> 31) as u32;
            m.cpu.regs.set(Reg::Edx, sign);
        }
        Kind::MovRegImm => m.cpu.regs.set(op.reg, op.imm),
        Kind::PushReg => push(m, m.cpu.regs.get(op.reg))?,
        Kind::PopReg => {
            let v = pop(m)?;
            m.cpu.regs.set(op.reg, v);
        }
        Kind::PushImm => push(m, op.imm)?,
        Kind::IncReg => {
            let v = m.cpu.regs.get(op.reg).wrapping_add(1);
            m.cpu.regs.set(op.reg, v);
            set_incdec_flags(m, v, true);
        }
        Kind::DecReg => {
            let v = m.cpu.regs.get(op.reg).wrapping_sub(1);
            m.cpu.regs.set(op.reg, v);
            set_incdec_flags(m, v, false);
        }
        Kind::CallRel => {
            push(m, next_eip)?;
            m.cpu.regs.eip = target;
            cfi(m, CfiKind::Call, target, next_eip);
        }
        Kind::JmpRel => m.cpu.regs.eip = target,
        Kind::Jcc(cond) => {
            if cond_holds(m.cpu.regs.eflags, cond) {
                m.cpu.regs.eip = target;
            }
        }
        Kind::Load => {
            let v = read_rm(m, op)?;
            m.cpu.regs.set(op.reg, v);
        }
        Kind::LoadByte => {
            // x86 `mov r8, r/m8` merges into the low byte.
            let v = read_rm8(m, op)?;
            let old = m.cpu.regs.get(op.reg);
            m.cpu.regs.set(op.reg, (old & !0xFF) | v);
        }
        Kind::Store => write_rm(m, op, m.cpu.regs.get(op.reg))?,
        Kind::StoreByte => write_rm8(m, op, m.cpu.regs.get(op.reg))?,
        Kind::StoreImm => write_rm(m, op, op.imm)?,
        Kind::StoreImmByte => write_rm8(m, op, op.imm)?,
        Kind::Movzx8 => {
            let v = read_rm8(m, op)?;
            m.cpu.regs.set(op.reg, v);
        }
        Kind::Lea => m.cpu.regs.set(op.reg, op.ea(&m.cpu.regs.gpr)),
        Kind::AluToRm(alu_op) => {
            let dst = read_rm(m, op)?;
            if let Some(r) = alu(m, alu_op, dst, m.cpu.regs.get(op.reg)) {
                write_rm(m, op, r)?;
            }
        }
        Kind::AluFromRm(alu_op) => {
            let src = read_rm(m, op)?;
            if let Some(r) = alu(m, alu_op, m.cpu.regs.get(op.reg), src) {
                m.cpu.regs.set(op.reg, r);
            }
        }
        Kind::AluImm(alu_op) => {
            let dst = read_rm(m, op)?;
            if let Some(r) = alu(m, alu_op, dst, op.imm) {
                write_rm(m, op, r)?;
            }
        }
        Kind::Shift(sh) => shift(m, op, sh, op.imm as u8)?,
        Kind::ShiftCl(sh) => shift(m, op, sh, m.cpu.regs.get(Reg::Ecx) as u8)?,
        Kind::Not => {
            let v = !read_rm(m, op)?;
            write_rm(m, op, v)?;
        }
        Kind::Neg => {
            let v = read_rm(m, op)?;
            let r = 0u32.wrapping_sub(v);
            write_rm(m, op, r)?;
            let mut fl = zsp(r);
            if v != 0 {
                fl |= flags::CF;
            }
            if v == 0x8000_0000 {
                fl |= flags::OF;
            }
            apply_flags(&mut m.cpu.regs, ALU_FLAGS, fl);
        }
        Kind::Mul => {
            let v = read_rm(m, op)? as u64;
            let prod = m.cpu.regs.get(Reg::Eax) as u64 * v;
            m.cpu.regs.set(Reg::Eax, prod as u32);
            m.cpu.regs.set(Reg::Edx, (prod >> 32) as u32);
            let hi = (prod >> 32) != 0;
            m.cpu.regs.set_flag(flags::CF, hi);
            m.cpu.regs.set_flag(flags::OF, hi);
        }
        Kind::Div => {
            let divisor = read_rm(m, op)? as u64;
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
        Kind::IncRm => {
            let v = read_rm(m, op)?.wrapping_add(1);
            write_rm(m, op, v)?;
            set_incdec_flags(m, v, true);
        }
        Kind::DecRm => {
            let v = read_rm(m, op)?.wrapping_sub(1);
            write_rm(m, op, v)?;
            set_incdec_flags(m, v, false);
        }
        Kind::CallRm => {
            let target = read_rm(m, op)?;
            push(m, next_eip)?;
            m.cpu.regs.eip = target;
            cfi(m, CfiKind::IndirectCall, target, next_eip);
        }
        Kind::JmpRm => {
            let target = read_rm(m, op)?;
            m.cpu.regs.eip = target;
            cfi(m, CfiKind::IndirectJmp, target, 0);
        }
        Kind::PushRm => {
            let v = read_rm(m, op)?;
            push(m, v)?;
        }
    }
    Ok(Flow::Normal)
}

/// Report a control transfer when [`crate::MachineConfig::cfi_events`] is on.
#[inline(always)]
fn cfi(m: &mut Machine, kind: CfiKind, target: u32, link: u32) {
    if m.config.cfi_events {
        m.pending_cfi = Some(CfiEvent { kind, target, link });
    }
}

/// Flag bits an ALU operation writes, composed once and applied with a
/// single masked `eflags` update (per-bit `set_flag` calls form a
/// serial dependence chain on the same word — this is the interpreter's
/// hottest flag path).
const ALU_FLAGS: u32 = flags::CF | flags::OF | flags::ZF | flags::SF | flags::PF;

#[inline(always)]
fn apply_flags(f: &mut crate::cpu::Regs, affected: u32, set: u32) {
    f.eflags = (f.eflags & !affected) | set;
}

/// Evaluate an ALU operation, set flags, and return the result to be
/// written back (`None` for compare/test which only set flags).
#[inline(always)]
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

/// Shift the r/m operand by `count` (masked to 0–31); a zero count reads
/// the operand and changes nothing.
#[inline(always)]
fn shift(m: &mut Machine, op: &Op, sh: ShiftOp, count: u8) -> Result<(), PageFaultInfo> {
    let n = count & 31;
    let v = read_rm(m, op)?;
    if n != 0 {
        let (result, cf) = match sh {
            ShiftOp::Shl => (v.wrapping_shl(n as u32), (v >> (32 - n)) & 1 == 1),
            ShiftOp::Shr => (v.wrapping_shr(n as u32), (v >> (n - 1)) & 1 == 1),
            ShiftOp::Sar => (
                ((v as i32).wrapping_shr(n as u32)) as u32,
                ((v as i32) >> (n - 1)) & 1 == 1,
            ),
        };
        write_rm(m, op, result)?;
        let mut fl = zsp(result);
        if cf {
            fl |= flags::CF;
        }
        apply_flags(&mut m.cpu.regs, ALU_FLAGS, fl);
    }
    Ok(())
}

/// ZF/SF/PF bits for a result, as a mask to OR into the composed flags.
#[inline(always)]
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

#[inline(always)]
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

#[inline(always)]
fn parity_even(r: u32) -> bool {
    (r as u8).count_ones().is_multiple_of(2)
}

#[inline(always)]
fn cond_holds(eflags: u32, cond: Cond) -> bool {
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

/// The r/m operand as a dword.
#[inline(always)]
fn read_rm(m: &mut Machine, op: &Op) -> Result<u32, PageFaultInfo> {
    if op.amode & A_MEM != 0 {
        let addr = op.ea(&m.cpu.regs.gpr);
        m.read_u32(addr, Privilege::User)
    } else {
        Ok(m.cpu.regs.get(op.rm))
    }
}

/// The r/m operand's low byte, zero-extended.
#[inline(always)]
fn read_rm8(m: &mut Machine, op: &Op) -> Result<u32, PageFaultInfo> {
    if op.amode & A_MEM != 0 {
        let addr = op.ea(&m.cpu.regs.gpr);
        Ok(m.read_u8(addr, Privilege::User)? as u32)
    } else {
        Ok(m.cpu.regs.get(op.rm) & 0xFF)
    }
}

#[inline(always)]
fn write_rm(m: &mut Machine, op: &Op, v: u32) -> Result<(), PageFaultInfo> {
    if op.amode & A_MEM != 0 {
        let addr = op.ea(&m.cpu.regs.gpr);
        m.write_u32(addr, v, Privilege::User)
    } else {
        m.cpu.regs.set(op.rm, v);
        Ok(())
    }
}

/// Store `v`'s low byte to the r/m operand (a register keeps its upper
/// 24 bits).
#[inline(always)]
fn write_rm8(m: &mut Machine, op: &Op, v: u32) -> Result<(), PageFaultInfo> {
    if op.amode & A_MEM != 0 {
        let addr = op.ea(&m.cpu.regs.gpr);
        m.write_u8(addr, v as u8, Privilege::User)
    } else {
        let old = m.cpu.regs.get(op.rm);
        m.cpu.regs.set(op.rm, (old & !0xFF) | (v & 0xFF));
        Ok(())
    }
}

#[inline(always)]
fn push(m: &mut Machine, v: u32) -> Result<(), PageFaultInfo> {
    let sp = m.cpu.regs.get(Reg::Esp).wrapping_sub(4);
    m.write_u32(sp, v, Privilege::User)?;
    m.cpu.regs.set(Reg::Esp, sp);
    Ok(())
}

#[inline(always)]
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
