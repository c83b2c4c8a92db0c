//! System tests for the segment scheduler (`sm_bench::shards`).
//!
//! * **Splice equality** — a sharded run (unchecked pre-pass, parallel
//!   checked segments, zip) produces byte-identical output to the serial
//!   checked run: verdict, exit, violations, trace JSONL, event log,
//!   machine/kernel stats and the cycle counter, across seeds, plans,
//!   segment counts, ring capacities and strides (proptest). CI pins the
//!   same property under a `RAYON_NUM_THREADS` matrix.
//! * **Zero-tail boundaries** — a checkpoint landing exactly on a slice
//!   boundary with no trace events in its interval resumes seq numbering
//!   with no gap and no duplicate (the PR 7 boundary bugfix).
//! * **Mid-window snapshots** — a snapshot taken while a paper-§7
//!   single-step window is armed, or between a COW share and its break,
//!   restores byte-identically and continues byte-identically.

use proptest::prelude::*;
use sm_bench::chaos::{self, Scenario};
use sm_bench::interference;
use sm_bench::shards::{self, ShardSpec};
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::snapshot as ksnap;
use sm_kernel::userlib::BuiltProgram;
use sm_machine::chaos::FaultPlan;
use sm_machine::trace::mask;
use sm_machine::TlbPreset;

fn split_break() -> Protection {
    Protection::SplitMem(ResponseMode::Break)
}

fn canonical_scenario() -> Scenario {
    Scenario::Wilander(
        sm_attacks::wilander::all_cases()
            .into_iter()
            .find(|c| c.applicable())
            .expect("an applicable wilander case"),
    )
}

/// Build the serial/sharded spec pair for one chaos combo with a test
/// stride (the default 100k-cycle stride leaves short guests with one
/// segment, which would vacuously pass).
fn chaos_spec(
    scenario: Scenario,
    protection: &Protection,
    plan: FaultPlan,
    trace_mask: u32,
    capacity: usize,
    stride: u64,
) -> ShardSpec<'_> {
    let mut spec = ShardSpec::chaos(
        scenario,
        protection,
        TlbPreset::default(),
        plan,
        trace_mask,
        capacity,
    );
    spec.stride = stride;
    spec
}

/// Deterministic core property: the kitchen-sink plan (flushes, evictions,
/// preemptions, in-window flushes) sharded four ways is byte-identical to
/// the serial run, and actually exercised multiple segments.
#[test]
fn sharded_run_is_byte_identical_to_serial() {
    let split = split_break();
    let plan = chaos::plan_by_name("kitchen-sink", 1).expect("plan exists");
    let spec = chaos_spec(canonical_scenario(), &split, plan, mask::ALL, 256, 2_000);
    let serial = shards::run_serial(&spec);
    let sharded = shards::run_sharded(&spec, 4);
    assert!(
        sharded.segments > 1,
        "stride too coarse: run fit in one segment"
    );
    assert!(sharded.zip_ok, "zip notes: {:?}", sharded.zip_notes);
    let notes = shards::compare_runs(&serial, &sharded);
    assert!(notes.is_empty(), "diverged: {notes:?}");
    assert!(!serial.trace_jsonl.is_empty(), "trace must carry events");
}

/// A checkpoint interval whose guest emits *zero* trace events (benign
/// loop under a PROC-only mask: spawn and exit land in the first and last
/// segments, nothing in between) must resume seq numbering at the
/// boundary with no gap and no duplicate — `splice` inside the zipper
/// proves it, and the empty per-segment tails pin that the zero-tail case
/// really occurred rather than the mask leaking events.
#[test]
fn zero_tail_boundary_resumes_seq_without_gap() {
    let split = split_break();
    let plan = chaos::plan_by_name("inert", 1).expect("plan exists");
    let spec = chaos_spec(Scenario::Benign, &split, plan, mask::PROC, 64, 1_000);
    let serial = shards::run_serial(&spec);
    let sharded = shards::run_sharded(&spec, 4);
    assert!(sharded.segments > 1, "need at least one interior boundary");
    assert!(
        sharded.per_segment_jsonl.iter().any(String::is_empty),
        "no zero-event segment occurred; tails: {:?}",
        sharded
            .per_segment_jsonl
            .iter()
            .map(|j| j.lines().count())
            .collect::<Vec<_>>()
    );
    assert!(sharded.zip_ok, "zip notes: {:?}", sharded.zip_notes);
    let notes = shards::compare_runs(&serial, &sharded);
    assert!(notes.is_empty(), "diverged: {notes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shards-on ≡ shards-off for arbitrary seeds, perturbation plans,
    /// segment counts, ring capacities, strides and protection engines
    /// (the shadow-stack/CFI engine's state must survive the per-segment
    /// snapshot round-trips byte-exactly). `RAYON_NUM_THREADS` varies in
    /// CI; the output must not.
    #[test]
    fn shards_on_equals_shards_off(
        seed in 1u64..64,
        plan_idx in 0usize..7,
        nshards in 1usize..6,
        cap_idx in 0usize..3,
        stride in 1_000u64..20_000,
        prot_idx in 0usize..3,
    ) {
        let protection = [
            split_break(),
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ][prot_idx].clone();
        let plans = chaos::perturbation_plans(seed);
        let plan = plans[plan_idx % plans.len()].plan;
        let capacity = [64usize, 512, 4096][cap_idx];
        let spec = chaos_spec(canonical_scenario(), &protection, plan, mask::ALL, capacity, stride);
        let serial = shards::run_serial(&spec);
        let sharded = shards::run_sharded(&spec, nshards);
        prop_assert!(sharded.zip_ok, "zip notes: {:?}", sharded.zip_notes);
        let notes = shards::compare_runs(&serial, &sharded);
        prop_assert!(notes.is_empty(), "diverged: {notes:?}");
    }
}

/// Boot a bare split-memory kernel for the mid-window snapshot tests:
/// deterministic stack, full trace. A restored kernel decodes cold, which
/// must not show in anything it goes on to produce.
fn boot_bare(plan: FaultPlan) -> Kernel {
    split_break().kernel_on(
        TlbPreset::default(),
        KernelConfig {
            aslr_stack: false,
            chaos: plan,
            trace: mask::ALL,
            ..KernelConfig::default()
        },
    )
}

/// Run `k` unchecked in `stride`-cycle slices until `armed` holds at a
/// slice boundary (or the guest exits / `max_slices` passes). Returns the
/// snapshot taken at that boundary.
fn snapshot_when(
    k: &mut Kernel,
    stride: u64,
    max_slices: u64,
    armed: impl Fn(&Kernel) -> bool,
) -> Option<Vec<u8>> {
    for _ in 0..max_slices {
        let exit = k.run(stride);
        if armed(k) {
            return Some(ksnap::save(k));
        }
        if exit != RunExit::CyclesExhausted {
            return None;
        }
    }
    None
}

/// The shared tail of both mid-window tests: `snap` was taken from `k` at
/// a slice boundary; a kernel restored from it must save back to the same
/// bytes, and both kernels driven through the identical checked slice
/// sequence must stay byte-identical (state, stats, cycles) and emit the
/// identical trace tail.
fn assert_restore_continues_identically(
    k: &mut Kernel,
    snap: &[u8],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let split = split_break();
    let mut k2 = ksnap::restore(snap, split.engine()).expect("snapshot restores");
    prop_assert_eq!(
        &ksnap::save(k),
        &snap,
        "live state re-saves to the snapshot"
    );
    prop_assert_eq!(
        &ksnap::save(&k2),
        &snap,
        "restored state re-saves to the snapshot"
    );
    let seq0 = k.sys.machine.tracer.emitted();
    prop_assert_eq!(k2.sys.machine.tracer.emitted(), seq0);
    let (e1, v1) = invariants::run_with_checks(k, 5_000_000, 5_000);
    let (e2, v2) = invariants::run_with_checks(&mut k2, 5_000_000, 5_000);
    prop_assert_eq!(e1, e2);
    prop_assert_eq!(v1, v2);
    prop_assert_eq!(
        ksnap::save(k),
        ksnap::save(&k2),
        "continuations diverged after restore"
    );
    prop_assert_eq!(
        chaos::tail_jsonl(&k.sys.machine.tracer.snapshot(), seq0),
        chaos::tail_jsonl(&k2.sys.machine.tracer.snapshot(), seq0),
        "trace tails diverged after restore"
    );
    Ok(())
}

fn spawn_one(k: &mut Kernel, prog: &BuiltProgram) {
    k.spawn(&prog.image).expect("spawns");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A snapshot taken while a single-step window is armed
    /// (`pending_step_addr` set on some process: the §7 I/D-desync window
    /// between a mixed-page write and its re-fetch) restores and
    /// continues byte-identically. Stride 1–3 cycles makes slice
    /// boundaries land on (nearly) every instruction, so the armed window
    /// is caught mid-flight rather than after it resolves.
    #[test]
    fn snapshot_inside_armed_step_window_is_exact(seed in 1u64..32, stride in 1u64..4) {
        let plan = chaos::plan_by_name("window-flush", seed).expect("plan exists");
        let mut k = boot_bare(plan);
        spawn_one(&mut k, &chaos::mixed_patch_program());
        let snap = snapshot_when(&mut k, stride, 400_000, |k| {
            k.sys.procs.values().any(|p| p.pending_step_addr.is_some())
        });
        let snap = snap.expect("self-patcher must arm a step window");
        assert_restore_continues_identically(&mut k, &snap)?;
    }

    /// A snapshot taken between a fork's COW share and its first break
    /// (two processes alive, zero `cow_breaks`) restores and continues
    /// byte-identically — shared-frame refcounts and pending COW state
    /// survive the round-trip.
    #[test]
    fn snapshot_between_cow_share_and_break_is_exact(seed in 1u64..32, stride in 1u64..4) {
        let plan = chaos::plan_by_name("preempt-53", seed).expect("plan exists");
        let mut k = boot_bare(plan);
        spawn_one(&mut k, &interference::interference_program());
        let snap = snapshot_when(&mut k, stride, 400_000, |k| {
            k.sys.stats.processes_spawned >= 2 && k.sys.stats.cow_breaks == 0
        });
        let snap = snap.expect("fork must precede the first COW break");
        assert_restore_continues_identically(&mut k, &snap)?;
    }
}
