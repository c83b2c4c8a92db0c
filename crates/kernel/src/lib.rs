//! Mini operating system for the `sm-machine` simulator.
//!
//! This crate is the Linux-2.6.13 stand-in the paper's kernel patch needs:
//! processes with two-level pagetables and VMAs, a round-robin scheduler
//! whose context switches reload CR3 (flushing both TLBs), Linux-flavoured
//! system calls, a ram filesystem, pipes, a loopback network, `fork` with
//! copy-on-write, demand paging, signals with on-stack trampolines, and an
//! executable loader with optional stack ASLR and verified shared/dynamic
//! libraries.
//!
//! Protection schemes plug in through [`engine::ProtectionEngine`], whose
//! hooks correspond one-to-one with the kernel patch points the paper
//! enumerates in §5 (ELF loader, page-fault handler, debug-interrupt
//! handler, memory management, signal handling). The kernel itself ships
//! the unprotected [`engine::NullEngine`] and [`engine::EngineStack`],
//! which runs several engines as ordered layers of one; the split-memory,
//! execute-disable and shadow-stack engines live in `sm-core`.
//!
//! # Example
//!
//! ```
//! use sm_kernel::engine::NullEngine;
//! use sm_kernel::kernel::{Kernel, RunExit};
//! use sm_kernel::userlib::ProgramBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = ProgramBuilder::new("/bin/true")
//!     .code("_start: mov ebx, 0\n call exit")
//!     .build()?;
//! let mut kernel = Kernel::with_engine(Box::new(NullEngine));
//! let pid = kernel.spawn(&prog.image)?;
//! assert_eq!(kernel.run(1_000_000), RunExit::AllExited);
//! assert_eq!(kernel.sys.proc(pid).exit_code, Some(0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod addrspace;
pub mod engine;
pub mod events;
pub mod fs;
pub mod image;
pub mod kernel;
pub mod net;
pub mod process;
pub mod signal;
pub mod snapshot;
pub mod stats;
pub mod syscall;
pub mod userlib;
pub mod vma;

mod loader;

pub use kernel::{Kernel, KernelConfig, RunExit, SpawnError, System};
pub use process::Pid;
