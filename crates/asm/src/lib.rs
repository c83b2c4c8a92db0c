//! Two-pass assembler and disassembler for the `sm-machine` instruction set.
//!
//! Guest programs — the vulnerable servers, exploit payloads, the guest C
//! library and every benchmark workload in this repository — are written in
//! an Intel-flavoured assembly dialect and assembled to machine code with
//! this crate. The disassembler is used by the forensics response mode to
//! render captured shellcode.
//!
//! # Syntax
//!
//! One statement per line; comments start with `;` or `#`.
//!
//! ```text
//! ; compute 6*7 and exit with it
//!         .equ SYS_EXIT, 1
//! start:  mov eax, 6
//!         mov ebx, 7
//!         mul ebx
//!         mov ebx, eax        ; exit code
//!         mov eax, SYS_EXIT
//!         int 0x80
//! msg:    .asciz "hello"
//! buf:    .space 64, 0
//! ```
//!
//! * Registers: `eax ecx edx ebx esp ebp esi edi`; byte registers
//!   `al cl dl bl spl bpl sil dil` select byte-sized moves.
//! * Memory operands: `[expr]`, `[reg]`, `[reg+disp]`, `[reg+reg*scale]`,
//!   `[reg+reg*scale+disp]`; prefix with `byte`/`dword` to size an
//!   immediate store (`mov byte [eax], 0`).
//! * Immediates: decimal, `0x` hex, `'c'` characters, label names, and
//!   `+`/`-` chains of those.
//! * Directives: `.byte`, `.word` (32-bit), `.ascii`, `.asciz`, `.space n
//!   [, fill]`, `.align n`, `.equ name, expr`.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), sm_asm::AsmError> {
//! let out = sm_asm::assemble("mov eax, 1\nmov ebx, 0\nint 0x80\n", 0x1000)?;
//! assert_eq!(out.bytes[0], 0xB8); // mov eax, imm32
//! let text = sm_asm::disassemble(&out.bytes, 0x1000);
//! assert!(text[0].text.starts_with("mov eax"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod disasm;
mod encoder;
mod parser;

pub use disasm::{disassemble, format_insn, DisLine};
pub use encoder::{assemble, AsmOutput};
pub use parser::AsmError;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;
    use sm_machine::isa::{decode_slice, Decoded};

    proptest! {
        /// The decoder never panics on arbitrary bytes.
        #[test]
        fn decoder_total_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 1..16)) {
            let _ = decode_slice(&bytes);
        }

        /// disassemble → assemble → disassemble is the identity on the
        /// rendered text, for arbitrary byte strings that happen to decode.
        /// (Encodings may differ — `jmp rel8` re-encodes as `rel32` — but the
        /// position-aware text, including absolute branch targets, must not.)
        #[test]
        fn disasm_asm_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..16)) {
            if let Ok(Decoded::Insn { insn, len }) = decode_slice(&bytes) {
                let line = &crate::disassemble(&bytes[..len as usize], 0)[0];
                let out = crate::assemble(&line.text, 0)
                    .unwrap_or_else(|e| panic!("formatted `{}` failed to assemble: {e}", line.text));
                let line2 = &crate::disassemble(&out.bytes, 0)[0];
                prop_assert_eq!(
                    &line2.text, &line.text,
                    "{:?} (len {}) reassembled differently", insn, len
                );
            }
        }
    }
}
