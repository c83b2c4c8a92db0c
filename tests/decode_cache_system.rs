//! System-level code-cache coherence: the per-frame write-generation
//! protocol must interact correctly with split-memory semantics. Kernels
//! run superblocks with per-step decodes in between, so every check
//! covers both caches.
//!
//! Under split memory, a "self-modifying" store is redirected to the
//! *data* frame while fetches read the *code* frame — so a data-frame
//! attack run must complete with **zero** invalidations and bailouts. On
//! an unprotected kernel the same store lands on the single backing
//! frame, and the very next fetch of the patched site must observe fresh
//! bytes.

use sm_attacks::harness::{classify_marker, kernel_with, AttackOutcome};
use sm_attacks::wilander::{self, Case, InjectLocation, Technique, MARKER};
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::userlib::ProgramBuilder;

fn kernel(protection: &Protection) -> Kernel {
    kernel_with(
        protection,
        KernelConfig {
            aslr_stack: false,
            ..KernelConfig::default()
        },
    )
}

/// A mixed-segment program that patches the immediate of its own
/// `mov ebx, 9` to 7: the exit code tells us which bytes were *fetched*,
/// the cache counters tell us whether the patch reached the frame that
/// decodes and blocks are cached against.
fn self_patcher() -> sm_kernel::image::ExecImage {
    ProgramBuilder::new("/bin/patch")
        .mixed_segment()
        .code(
            "_start:
                nop
                mov byte [patchsite+1], 7
            patchsite:
                mov ebx, 9
                call exit",
        )
        .build()
        .expect("self-patcher assembles")
        .image
}

#[test]
fn unprotected_self_patch_invalidates_and_executes_fresh_bytes() {
    let mut k = kernel(&Protection::Unprotected);
    let pid = k.spawn(&self_patcher()).unwrap();
    assert_eq!(k.run(80_000_000), RunExit::AllExited);
    // The store hit the one backing frame: the patched immediate must be
    // what executes...
    assert_eq!(k.sys.procs.get(&pid.0).and_then(|p| p.exit_code), Some(7));
    // ...which is only possible if the stale pre-decoded block was
    // abandoned or dropped.
    let sb = k.sys.machine.superblocks.stats;
    assert!(
        sb.invalidations + sb.bailouts >= 1,
        "patched frame must invalidate its blocks: {sb:?}"
    );
}

/// Neither cache ever saw its frame change under it, and between them
/// they answered at least one lookup.
fn assert_coherent_and_hitting(k: &Kernel) {
    let (dc, sb) = (
        k.sys.machine.decode_cache.stats,
        k.sys.machine.superblocks.stats,
    );
    assert_eq!(dc.invalidations, 0, "{dc:?}");
    assert_eq!(sb.invalidations + sb.bailouts, 0, "{sb:?}");
    assert!(
        dc.hits + sb.hits > 0,
        "hot fetch path should hit: {dc:?} {sb:?}"
    );
}

#[test]
fn split_memory_self_patch_keeps_code_frame_decodes_valid() {
    let mut k = kernel(&Protection::SplitMem(ResponseMode::Break));
    let pid = k.spawn(&self_patcher()).unwrap();
    assert_eq!(k.run(80_000_000), RunExit::AllExited);
    // Split memory silently diverts the store to the data frame (paper
    // §7): the original immediate keeps executing...
    assert_eq!(k.sys.procs.get(&pid.0).and_then(|p| p.exit_code), Some(9));
    // ...and no frame holding cached decodes or blocks is ever written,
    // so the run completes without a single invalidation while still
    // hitting.
    assert_coherent_and_hitting(&k);
}

#[test]
fn split_memory_code_injection_attack_never_invalidates_code_frames() {
    // A classic stack-smash that injects code via data writes: under split
    // memory every attacker store lands on data frames, so both code
    // caches must ride through the whole attack without one invalidation.
    let case = Case {
        technique: Technique::ReturnAddress,
        location: InjectLocation::Stack,
    };
    let image = wilander::build_case(case).expect("applicable").image;
    let mut k = kernel(&Protection::SplitMem(ResponseMode::Break));
    let pid = k.spawn(&image).unwrap();
    k.run(80_000_000);
    let outcome = classify_marker(&k, pid, MARKER);
    assert!(
        matches!(outcome, AttackOutcome::Foiled { .. }),
        "split memory must foil the attack: {outcome:?}"
    );
    assert_coherent_and_hitting(&k);
}
