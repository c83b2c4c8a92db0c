//! Two-guest cross-process interference sweep.
//!
//! One image forks into an attacker and a victim sharing every data frame
//! copy-on-write. The attacker injects a payload into a COW-shared buffer
//! and jumps to it; the victim keeps executing from the *shared* code
//! frames and re-reads the buffer, verifying its view stays pristine. The
//! deterministic round-robin scheduler interleaves the two guests, and the
//! chaos harness's forced preemptions move the interleaving points between
//! arbitrary instruction pairs of either guest.
//!
//! Demanded outcomes:
//!
//! * **unprotected** — the injection works (the attacker exits with the
//!   payload's marker status), proving the attack is real;
//! * **split memory** — every injection attempt is detected (the fetch
//!   lands on the filler code frame) and the attacker never reaches the
//!   payload, under *every* fault plan and seed;
//! * **always** — the victim's view of the buffer stays pristine (COW
//!   isolation), invariants hold between every slice, and verdicts are
//!   byte-identical across fault plans, thread counts and runs.

use crate::chaos::{perturbation_plans, NamedPlan};
use crate::summary::{InterferenceCounters, ProcessProbe};
use rayon::prelude::*;
use sm_attacks::shellcode::{self, as_byte_directive};
use sm_core::invariants::{self, Violation};
use sm_core::setup::Protection;
use sm_kernel::events::Event;
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::{KernelConfig, RunExit};
use sm_kernel::process::Pid;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::FaultPlan;

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

/// Outcome of one two-guest run.
#[derive(Debug, Clone)]
pub struct InterferenceRun {
    /// Compact verdict label (compared across plans for stability).
    pub verdict: String,
    /// Attacker (fork parent) exit status.
    pub attacker_exit: Option<i32>,
    /// Victim (fork child) exit status.
    pub victim_exit: Option<i32>,
    /// `AttackDetected` events attributed to the attacker.
    pub detections: usize,
    /// True if the injected payload ran (attacker exited with the marker).
    pub attack_succeeded: bool,
    /// True if the victim ever saw the attacker's bytes.
    pub victim_corrupted: bool,
    /// How the kernel run ended.
    pub exit: RunExit,
    /// Invariant violations observed between slices (must be empty).
    pub violations: Vec<Violation>,
}

/// Run the two-guest image under one plan, checking cross-process
/// invariants between slices. `asid_tlbs` selects ASID-tagged TLBs instead
/// of the default flush-on-switch model.
pub fn run_interference(
    protection: &Protection,
    plan: FaultPlan,
    asid_tlbs: bool,
) -> InterferenceRun {
    let image = interference_program().image;
    run_image(&image, protection, plan, asid_tlbs)
}

fn run_image(
    image: &ExecImage,
    protection: &Protection,
    plan: FaultPlan,
    asid_tlbs: bool,
) -> InterferenceRun {
    let kconfig = KernelConfig {
        aslr_stack: false,
        chaos: plan,
        asid_tlbs,
        ..KernelConfig::default()
    };
    let mut k = protection.kernel(kconfig);
    let parent = k.spawn(image).expect("interference image spawns");
    let (exit, violations) = invariants::run_with_checks(&mut k, 80_000_000, 100_000);
    let child = k
        .sys
        .procs
        .keys()
        .find(|&&p| p != parent.0)
        .copied()
        .map(Pid);
    let exit_of = |p: Option<Pid>| {
        p.and_then(|p| k.sys.procs.get(&p.0))
            .and_then(|p| p.exit_code)
    };
    let attacker_exit = exit_of(Some(parent));
    let victim_exit = exit_of(child);
    let detections = k
        .sys
        .events
        .iter()
        .filter(|e| matches!(e, Event::AttackDetected { pid, .. } if *pid == parent))
        .count();
    let attack_succeeded = attacker_exit == Some(PAYLOAD_MARKER as i32);
    let victim_corrupted = victim_exit == Some(VICTIM_CORRUPTED);
    InterferenceRun {
        verdict: format!(
            "attacker={attacker_exit:?} victim={victim_exit:?} detections={detections}"
        ),
        attacker_exit,
        victim_exit,
        detections,
        attack_succeeded,
        victim_corrupted,
        exit,
        violations,
    }
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
    let _ = invariants::run_with_checks(&mut k, 80_000_000, 100_000);
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

/// One line of an interference sweep report.
#[derive(Debug, Clone)]
pub struct InterferenceCombo {
    /// Plan label.
    pub plan: &'static str,
    /// Plan seed.
    pub seed: u64,
    /// The run itself.
    pub run: InterferenceRun,
    /// The fault-free verdict this combo was compared against.
    pub baseline: String,
    /// `verdict == baseline`.
    pub verdict_stable: bool,
}

/// Sweep `seeds × perturbation plans` for the two-guest image under
/// `protection`. Combos fan out across threads (each owns its seeded
/// fault stream and kernel); results are merged in deterministic input
/// order, byte-identical to [`sweep_interference_serial`].
pub fn sweep_interference(
    seeds: &[u64],
    protection: &Protection,
    asid_tlbs: bool,
) -> Vec<InterferenceCombo> {
    let image = interference_program().image;
    let baseline = run_image(&image, protection, FaultPlan::default(), asid_tlbs);
    let combos: Vec<(u64, NamedPlan)> = seeds
        .iter()
        .flat_map(|&seed| {
            perturbation_plans(seed)
                .into_iter()
                .map(move |np| (seed, np))
        })
        .collect();
    let runs: Vec<InterferenceRun> = combos
        .par_iter()
        .map(|&(_, np)| run_image(&image, protection, np.plan, asid_tlbs))
        .collect();
    combos
        .into_iter()
        .zip(runs)
        .map(|((seed, np), run)| InterferenceCombo {
            plan: np.name,
            seed,
            verdict_stable: run.verdict == baseline.verdict,
            baseline: baseline.verdict.clone(),
            run,
        })
        .collect()
}

/// Single-threaded [`sweep_interference`], kept as the reference the
/// parallel sweep is tested byte-identical against.
pub fn sweep_interference_serial(
    seeds: &[u64],
    protection: &Protection,
    asid_tlbs: bool,
) -> Vec<InterferenceCombo> {
    let image = interference_program().image;
    let baseline = run_image(&image, protection, FaultPlan::default(), asid_tlbs);
    let mut out = Vec::new();
    for &seed in seeds {
        for np in perturbation_plans(seed) {
            let run = run_image(&image, protection, np.plan, asid_tlbs);
            out.push(InterferenceCombo {
                plan: np.name,
                seed,
                verdict_stable: run.verdict == baseline.verdict,
                baseline: baseline.verdict.clone(),
                run,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_kernel::events::ResponseMode;

    #[test]
    fn unprotected_injection_crosses_the_fork_and_runs() {
        let r = run_interference(&Protection::Unprotected, FaultPlan::default(), false);
        assert!(r.attack_succeeded, "verdict: {}", r.verdict);
        assert_eq!(
            r.victim_exit,
            Some(VICTIM_CLEAN),
            "COW must isolate the victim"
        );
        assert!(!r.victim_corrupted);
        assert_eq!(r.exit, RunExit::AllExited);
    }

    #[test]
    fn split_memory_detects_the_cross_process_injection() {
        for asid in [false, true] {
            let r = run_interference(
                &Protection::SplitMem(ResponseMode::Break),
                FaultPlan::default(),
                asid,
            );
            assert!(!r.attack_succeeded, "asid={asid}: verdict: {}", r.verdict);
            assert!(r.detections >= 1, "asid={asid}: verdict: {}", r.verdict);
            assert_eq!(r.victim_exit, Some(VICTIM_CLEAN), "asid={asid}");
            assert!(r.violations.is_empty(), "asid={asid}: {:?}", r.violations);
        }
    }

    #[test]
    fn parallel_interference_sweep_matches_serial() {
        let seeds = [1u64];
        let split = Protection::SplitMem(ResponseMode::Break);
        let par = sweep_interference(&seeds, &split, false);
        let ser = sweep_interference_serial(&seeds, &split, false);
        assert_eq!(format!("{par:?}"), format!("{ser:?}"));
    }
}
