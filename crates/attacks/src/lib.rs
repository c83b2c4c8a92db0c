//! Code-injection attack corpus for the split-memory reproduction:
//! shellcode payloads, the Wilander-style benchmark matrix (Table 1), five
//! real-world exploit scenario emulations (Table 2), and the attack
//! harness that plays the external attacker.

#![forbid(unsafe_code)]

pub mod code_reuse;
pub mod harness;
pub mod real_world;
pub mod shell;
pub mod shellcode;
pub mod wilander;

pub use harness::{AttackOutcome, Protection};
