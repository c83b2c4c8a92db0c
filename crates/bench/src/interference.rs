//! The two-guest cross-process interference guest and its summary probe.
//!
//! One image forks into an attacker and a victim sharing every data frame
//! copy-on-write. The attacker injects a payload into a COW-shared buffer
//! and jumps to it; the victim keeps executing from the *shared* code
//! frames and re-reads the buffer, verifying its view stays pristine. The
//! deterministic round-robin scheduler interleaves the two guests, and the
//! chaos harness's forced preemptions move the interleaving points between
//! arbitrary instruction pairs of either guest.
//!
//! The chaos sweep runs it as [`Scenario::Interference`] and demands:
//!
//! * **unprotected** — the injection works (the attacker exits with the
//!   payload's marker status), proving the attack is real;
//! * **split memory** — every injection attempt is detected (the fetch
//!   lands on the filler code frame) and the attacker never reaches the
//!   payload, under *every* fault plan and seed;
//! * **always** — the victim's view of the buffer stays pristine (COW
//!   isolation), invariants hold between every slice, and verdicts are
//!   byte-identical across fault plans, thread counts and runs.
//!
//! [`Scenario::Interference`]: crate::chaos::Scenario::Interference

use crate::chaos::{RUN_MAX_CYCLES, RUN_STRIDE};
use crate::summary::{InterferenceCounters, ProcessProbe};
use sm_attacks::shellcode::{self, as_byte_directive};
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_kernel::events::Event;
use sm_kernel::kernel::KernelConfig;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};

/// Exit status the injected payload reports — seeing it as the attacker's
/// exit code proves the injected bytes executed.
pub const PAYLOAD_MARKER: u8 = 42;

/// Victim exit status when its view of the shared buffer stayed pristine.
pub const VICTIM_CLEAN: i32 = 0;
/// Victim exit status when it observed the attacker's bytes (COW
/// isolation failure).
pub const VICTIM_CORRUPTED: i32 = 7;

/// Build the forking attacker/victim guest. The parent injects
/// [`shellcode::exit_code`]`(PAYLOAD_MARKER)` into `buf` (COW-shared with
/// the child at that point) and jumps to it; the child spins re-checking
/// the first buffer word against its pristine `0x55555555` fill while
/// touching another shared data page every iteration.
pub fn interference_program() -> BuiltProgram {
    let payload = shellcode::exit_code(PAYLOAD_MARKER);
    let len = payload.len();
    ProgramBuilder::new("/bin/interfere")
        .code(&format!(
            "_start:
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je victim
                jl fork_failed
            attacker:
                ; inject into the COW-shared buffer, then run it
                mov edi, buf
                mov esi, payload
                mov ecx, {len}
                call memcpy
                call buf
                ; injected code never returns; reaching here means the
                ; jump was survived without executing the payload
                mov ebx, 3
                call exit
            fork_failed:
                mov ebx, 9
                call exit
            victim:
                mov ecx, 400
            v_loop:
                mov eax, [buf]
                cmp eax, 0x55555555
                jne corrupted
                mov [scratch], ecx
                dec ecx
                jnz v_loop
                mov ebx, {clean}
                call exit
            corrupted:
                mov ebx, {corrupt}
                call exit",
            clean = VICTIM_CLEAN,
            corrupt = VICTIM_CORRUPTED,
        ))
        .data(&format!(
            "buf: .byte 0x55, 0x55, 0x55, 0x55\n .space 60\npayload: {}\nscratch: .word 0",
            as_byte_directive(&payload)
        ))
        .build()
        .expect("interference program assembles")
}

/// Run the two-guest image fault-free and collect the kernel- and
/// per-process counters for the machine-readable benchmark summary.
pub fn probe(protection: &Protection, asid_tlbs: bool) -> InterferenceCounters {
    let image = interference_program().image;
    let kconfig = KernelConfig {
        aslr_stack: false,
        asid_tlbs,
        ..KernelConfig::default()
    };
    let mut k = protection.kernel(kconfig);
    let parent = k.spawn(&image).expect("interference image spawns");
    let _ = invariants::run_with_checks(&mut k, RUN_MAX_CYCLES, RUN_STRIDE);
    let mut processes: Vec<ProcessProbe> = k
        .sys
        .procs
        .iter()
        .map(|(raw, p)| ProcessProbe {
            pid: *raw,
            role: if *raw == parent.0 {
                "attacker"
            } else {
                "victim"
            }
            .into(),
            user_cycles: p.user_cycles,
            exit_code: p.exit_code,
        })
        .collect();
    processes.sort_by_key(|p| p.pid);
    let detections = k
        .sys
        .events
        .iter()
        .filter(|e| matches!(e, Event::AttackDetected { .. }))
        .count() as u64;
    InterferenceCounters {
        context_switches: k.sys.stats.context_switches,
        cow_breaks: k.sys.stats.cow_breaks,
        detections,
        processes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{run_scenario, ChaosRun, Scenario};
    use sm_kernel::events::ResponseMode;
    use sm_kernel::kernel::RunExit;
    use sm_machine::chaos::FaultPlan;
    use sm_machine::TlbPreset;

    fn run(protection: &Protection, asid: bool) -> ChaosRun {
        let scenario = Scenario::Interference { asid };
        let plan = FaultPlan::default();
        run_scenario(scenario, protection, TlbPreset::default(), plan, 0, None).run
    }

    fn victim_clean(r: &ChaosRun) -> bool {
        r.verdict.contains(&format!("victim=Some({VICTIM_CLEAN})"))
    }

    #[test]
    fn unprotected_injection_crosses_the_fork_and_runs() {
        let r = run(&Protection::Unprotected, false);
        assert!(r.attack_succeeded, "verdict: {}", r.verdict);
        assert!(
            victim_clean(&r),
            "COW must isolate the victim: {}",
            r.verdict
        );
        assert!(!r.victim_corrupted);
        assert_eq!(r.exit, RunExit::AllExited);
    }

    #[test]
    fn split_memory_detects_the_cross_process_injection() {
        for asid in [false, true] {
            let r = run(&Protection::SplitMem(ResponseMode::Break), asid);
            assert!(!r.attack_succeeded, "asid={asid}: verdict: {}", r.verdict);
            assert!(r.detections >= 1, "asid={asid}: verdict: {}", r.verdict);
            assert!(victim_clean(&r), "asid={asid}: verdict: {}", r.verdict);
            assert!(r.violations.is_empty(), "asid={asid}: {:?}", r.violations);
        }
    }
}
