//! System tests for the checkpoint/restore subsystem.
//!
//! * **Transparency** — a checkpointed chaos run retires the same
//!   verdict and emits the same trace stream as the uncheckpointed run:
//!   the snapshot-op fault clock is independent of the step/fs streams,
//!   so taking (or corrupting) checkpoints never perturbs the guest.
//! * **Splice correctness** — a run restored from its latest checkpoint
//!   and driven to the original deadline reproduces the original verdict
//!   and splices into the byte-identical trace JSONL, for arbitrary
//!   perturbation plans and checkpoint intervals (proptest).
//! * **Fault containment** — every corrupted snapshot or dump is detected
//!   at load and rejected with an error; nothing panics (fuzz).
//! * **Determinism** — snapshot and dump bytes are identical across rayon
//!   thread counts, and warm-started kernels are byte-identical to cold
//!   boots.
//! * **Trace knobs** — `KernelConfig::trace_capacity` bounds the ring and
//!   `KernelConfig::trace_pid` filters events without assigning sequence
//!   numbers to dropped ones.
//! * **Mid-window snapshots** — a snapshot taken while a paper-§7
//!   single-step window is armed, or between a COW share and its break,
//!   restores byte-identically and continues byte-identically.

use proptest::prelude::*;
use sm_attacks::wilander;
use sm_bench::chaos::{self, NamedPlan, Scenario};
use sm_bench::interference;
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::snapshot as ksnap;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::{FaultPlan, SnapshotFault};
use sm_machine::trace::mask;
use sm_machine::TlbPreset;

fn split_break() -> Protection {
    Protection::SplitMem(ResponseMode::Break)
}

fn canonical_scenario() -> Scenario {
    Scenario::Wilander(
        wilander::all_cases()
            .into_iter()
            .find(|c| c.applicable())
            .expect("an applicable wilander case"),
    )
}

/// A plan that perturbs the run *and* faults every other checkpoint.
fn snap_faulting_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        flush_every: Some(101),
        evict_every: Some(17),
        snap_fault_every: Some(2),
        seed,
        ..FaultPlan::default()
    }
}

fn dump_of(
    cp: &chaos::Checkpointed,
    scenario: Scenario,
    protection: &Protection,
    plan: FaultPlan,
    stride: u64,
) -> Vec<u8> {
    chaos::write_dump(&chaos::FailureDump {
        scenario: scenario.name(),
        plan_name: "test".into(),
        protection: protection.clone(),
        tlb: TlbPreset::default(),
        plan,
        marker: cp.marker,
        pid: cp.pid,
        trace_mask: mask::ALL,
        slice: cp.snapshot_slice,
        seq0: cp.snapshot_seq,
        deadline: cp.deadline,
        stride,
        expected_verdict: cp.run.verdict.clone(),
        tail_sha: cp.tail_sha,
        snapshot: cp.snapshot.clone().expect("checkpoint exists"),
    })
    .expect("dump encodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For arbitrary perturbation plans, checkpoint intervals and
    /// engines (split memory alone, the shadow stack alone, and the
    /// shadow-stack/CFI engine over combined split memory + NX), the
    /// checkpointed run matches the plain run exactly, and a replay from
    /// its latest checkpoint reproduces the verdict and splices into the
    /// byte-identical trace stream: every engine's state survives the
    /// dump round trip and continues exactly.
    #[test]
    fn replay_from_checkpoint_is_exact(
        seed in 1u64..32,
        plan_idx in 0usize..7,
        every in 1u64..4,
        prot_idx in 0usize..3,
    ) {
        let scenario = canonical_scenario();
        let protection = [
            split_break(),
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ][prot_idx]
            .clone();
        let tlb = TlbPreset::default();
        let plans = chaos::perturbation_plans(seed);
        let plan = FaultPlan {
            snap_fault_every: Some(3),
            ..plans[plan_idx % plans.len()].plan
        };
        let plain = chaos::run_scenario(scenario, &protection, tlb, plan, mask::ALL, None);
        let cp = chaos::run_scenario(
            scenario, &protection, tlb, plan, mask::ALL, Some(chaos::Cadence { every, stride: 500 }),
        );
        // Checkpointing (and snapshot-fault injection) is invisible to
        // the guest.
        prop_assert_eq!(&cp.run.verdict, &plain.run.verdict);
        prop_assert_eq!(&cp.jsonl, &plain.jsonl);
        prop_assert_eq!(cp.snap_faults_undetected, 0);
        prop_assert!(cp.run.violations.is_empty());
        // Replay from the latest good checkpoint (present unless snapshot
        // faults ate every single one).
        if cp.snapshot.is_some() {
            let dump = dump_of(&cp, scenario, &protection, plan, 500);
            let rep = chaos::replay_dump(&dump).expect("dump replays");
            prop_assert!(
                rep.verdict_matches, "verdict {} != {}", rep.run.verdict, rep.dump.expected_verdict
            );
            prop_assert!(rep.splice_matches, "trace tail diverged");
            prop_assert!(rep.run.violations.is_empty());
        }
    }
}

/// Deterministic version of the splice property across two different
/// checkpoint intervals, also pinning that multiple checkpoints were
/// actually taken and that every injected snapshot fault was detected.
#[test]
fn replay_reproduces_detection_verdict_across_intervals() {
    let scenario = canonical_scenario();
    let split = split_break();
    let plan = snap_faulting_plan(1);
    for every in [1u64, 2] {
        let (cp, dump) = chaos::checkpointed_dump(
            scenario,
            &split,
            TlbPreset::default(),
            NamedPlan {
                name: "seeded-detection",
                plan,
            },
            mask::ALL,
            chaos::Cadence { every, stride: 500 },
        )
        .expect("combo dumps");
        assert!(
            cp.checkpoints_taken >= 2,
            "interval {every}: want >=2 checkpoints, got {}",
            cp.checkpoints_taken
        );
        assert!(cp.snap_faults_injected > 0, "plan must fault snapshots");
        assert_eq!(cp.snap_faults_undetected, 0, "all faults must be caught");
        assert_eq!(cp.run.verdict, "foiled(detected=true)");
        let rep = chaos::replay_dump(&dump).expect("dump replays");
        assert!(
            rep.verdict_matches,
            "{} != {}",
            rep.run.verdict, rep.dump.expected_verdict
        );
        assert_eq!(rep.run.verdict, "foiled(detected=true)");
        assert!(rep.splice_matches, "interval {every}: trace tail diverged");
        assert!(rep.run.violations.is_empty());
        assert!(!rep.run.attack_succeeded);
    }
}

/// Every structured snapshot fault and every unstructured dump mutation
/// is rejected with a typed error — zero panics across the whole fuzz.
#[test]
fn corrupted_snapshots_and_dumps_never_panic() {
    let scenario = canonical_scenario();
    let split = split_break();
    let plan = snap_faulting_plan(7);
    let cp = chaos::run_scenario(
        scenario,
        &split,
        TlbPreset::default(),
        plan,
        mask::ALL,
        Some(chaos::Cadence {
            every: 1,
            stride: 500,
        }),
    );
    let snap = cp.snapshot.clone().expect("checkpoint exists");
    let dump = dump_of(&cp, scenario, &split, plan, 500);

    // Structured faults on the kernel snapshot: every kind, many seeds.
    for seed in 0..48u64 {
        for fault in [
            SnapshotFault::Truncate,
            SnapshotFault::BitFlip,
            SnapshotFault::SectionReorder,
            SnapshotFault::VersionSkew,
        ] {
            let mut b = snap.clone();
            ksnap::corrupt_snapshot(&mut b, fault, seed);
            assert!(
                ksnap::validate(&b).is_err(),
                "{fault:?} seed {seed} undetected"
            );
            assert!(
                ksnap::restore(&b, split.engine()).is_err(),
                "{fault:?} seed {seed} restored"
            );
        }
    }

    // Unstructured mutations on the dump: bit flips anywhere (including
    // inside the embedded snapshot and the trailing digest) and
    // truncations at arbitrary offsets.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..200 {
        let mut b = dump.clone();
        let i = next() as usize % b.len();
        b[i] ^= 1 << (next() % 8);
        assert!(chaos::replay_dump(&b).is_err(), "flip at {i} accepted");
    }
    for _ in 0..50 {
        let cut = next() as usize % dump.len();
        assert!(
            chaos::replay_dump(&dump[..cut]).is_err(),
            "cut at {cut} accepted"
        );
    }
    assert!(chaos::replay_dump(&[]).is_err());
}

/// Snapshot/dump bytes are a pure function of the run: identical whether
/// the surrounding sweep machinery ran parallel (whatever
/// `RAYON_NUM_THREADS` is pinned to) or on the single-threaded serial
/// reference, and a restored snapshot re-saves to its exact input
/// (canonical round-trip).
#[test]
fn snapshot_bytes_identical_across_thread_counts() {
    let scenario = canonical_scenario();
    let make = || {
        let (cp, dump) = chaos::checkpointed_dump(
            scenario,
            &split_break(),
            TlbPreset::default(),
            NamedPlan {
                name: "golden",
                plan: snap_faulting_plan(1),
            },
            mask::ALL,
            chaos::Cadence {
                every: 2,
                stride: 500,
            },
        )
        .expect("combo dumps");
        (cp.snapshot.expect("checkpoint exists"), dump)
    };
    let lines = |combos: &[chaos::ComboResult]| -> Vec<String> {
        combos.iter().map(|c| format!("{c:?}")).collect()
    };
    let tlb = TlbPreset::default();
    let plans = chaos::perturbation_plans;
    let parallel = chaos::sweep(&[1], &[scenario], &split_break(), tlb, plans);
    let a = make();
    let serial = chaos::sweep_serial(&[1], &[scenario], &split_break(), tlb, plans);
    let b = make();
    assert_eq!(lines(&parallel), lines(&serial));
    assert_eq!(a.0, b.0, "snapshot bytes differ across runs/thread counts");
    assert_eq!(a.1, b.1, "dump bytes differ across runs/thread counts");
    let k = ksnap::restore(&a.0, split_break().engine()).expect("snapshot restores");
    assert_eq!(ksnap::save(&k), a.0, "round-trip is not canonical");
}

/// Run-to-run snapshot determinism for the protection engines: the
/// split-memory page-table map is ordered (`BTreeMap`), so two
/// identically-driven kernels built in the same process serialize
/// byte-identically — a `HashMap` there would reorder the serialized
/// tables between instances (each map draws its own hash seed) and break
/// dump diffing, golden snapshots, and replay-from-checkpoint equality.
#[test]
fn engine_snapshot_bytes_deterministic_run_to_run() {
    for protection in [
        split_break(),
        Protection::Combined(ResponseMode::Break),
        Protection::ShadowCombined(ResponseMode::Break),
    ] {
        let bytes = || {
            let (k, _) = sm_attacks::code_reuse::run_libd_benign(&protection);
            ksnap::save(&k)
        };
        let a = bytes();
        let b = bytes();
        assert_eq!(
            a,
            b,
            "snapshot bytes differ run-to-run under {}",
            protection.label()
        );
        let k = ksnap::restore(&a, protection.engine()).expect("snapshot restores");
        assert_eq!(
            ksnap::save(&k),
            a,
            "round-trip not canonical under {}",
            protection.label()
        );
    }
}

fn loop_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/loop")
        .code(
            "_start:
                mov ecx, 5000
            again:
                dec ecx
                jnz again
                mov ebx, 0
                call exit",
        )
        .build()
        .expect("loop assembles")
}

/// Warm-started kernels (restored from the cached post-boot snapshot) are
/// byte-identical to cold boots, at construction and after running a
/// guest to completion.
#[test]
fn warm_start_is_byte_identical_to_cold() {
    let split = split_break();
    let tlb = TlbPreset::default();
    let kconfig = KernelConfig {
        aslr_stack: false,
        ..KernelConfig::default()
    };
    let cold = split.kernel_on(tlb, kconfig);
    // First call seeds the cache (itself a cold boot), second restores.
    let _ = split.kernel_warm_on(tlb, kconfig);
    let warm = split.kernel_warm_on(tlb, kconfig);
    assert_eq!(
        ksnap::save(&cold),
        ksnap::save(&warm),
        "warm boot differs from cold boot"
    );
    let prog = loop_program();
    let mut cold = cold;
    let mut warm = warm;
    cold.spawn(&prog.image).expect("spawns cold");
    warm.spawn(&prog.image).expect("spawns warm");
    assert_eq!(cold.run(50_000_000), RunExit::AllExited);
    assert_eq!(warm.run(50_000_000), RunExit::AllExited);
    assert_eq!(cold.sys.machine.cycles, warm.sys.machine.cycles);
    assert_eq!(
        format!("{:?}", cold.sys.machine.stats),
        format!("{:?}", warm.sys.machine.stats)
    );
    assert_eq!(ksnap::save(&cold), ksnap::save(&warm));
}

/// Warm-start cache keys must distinguish every `KernelConfig` knob —
/// including the trace knobs that postdate the cache. Seeding the cache
/// with one config and then requesting a pid-filtered, capacity-bounded
/// variant must yield a kernel byte-identical to a cold boot of that
/// variant (a key collision would hand back the unfiltered boot), at
/// construction and after running a guest under the filter.
#[test]
fn warm_cache_distinguishes_trace_knobs() {
    let split = split_break();
    let tlb = TlbPreset::default();
    let base = KernelConfig {
        aslr_stack: false,
        trace: mask::ALL,
        ..KernelConfig::default()
    };
    let filtered = KernelConfig {
        trace_pid: Some(1),
        trace_capacity: 8,
        ..base
    };
    // Seed the cache with the unfiltered sibling first — the regression
    // scenario is the *second* lookup aliasing the first's snapshot.
    let _ = split.kernel_warm_on(tlb, base);
    let _ = split.kernel_warm_on(tlb, filtered);
    let warm = split.kernel_warm_on(tlb, filtered);
    let cold = split.kernel_on(tlb, filtered);
    assert_eq!(
        ksnap::save(&cold),
        ksnap::save(&warm),
        "warm-start cache aliased distinct trace configs"
    );
    let prog = loop_program();
    let mut cold = cold;
    let mut warm = warm;
    let pid_c = cold.spawn(&prog.image).expect("spawns cold");
    let pid_w = warm.spawn(&prog.image).expect("spawns warm");
    assert_eq!(pid_c, pid_w);
    assert_eq!(cold.run(50_000_000), RunExit::AllExited);
    assert_eq!(warm.run(50_000_000), RunExit::AllExited);
    assert_eq!(
        cold.sys.machine.tracer.to_jsonl(),
        warm.sys.machine.tracer.to_jsonl(),
        "filtered trace streams diverged between warm and cold boots"
    );
    assert!(
        cold.sys.machine.tracer.snapshot().len() <= 8,
        "capacity knob lost through the warm cache"
    );
    assert_eq!(ksnap::save(&cold), ksnap::save(&warm));
}

/// `trace_capacity` bounds the ring; `trace_pid` filters events before a
/// sequence number is assigned.
#[test]
fn trace_knobs_bound_and_filter_the_ring() {
    let split = split_break();
    let tlb = TlbPreset::default();
    let prog = loop_program();

    // Capacity knob: tiny ring, long event stream.
    let mut k = split.kernel_on(
        tlb,
        KernelConfig {
            aslr_stack: false,
            trace: mask::ALL,
            trace_capacity: 8,
            ..KernelConfig::default()
        },
    );
    k.spawn(&prog.image).expect("spawns");
    assert_eq!(k.run(50_000_000), RunExit::AllExited);
    let ring = k.sys.machine.tracer.snapshot();
    assert!(ring.len() <= 8, "ring exceeded capacity: {}", ring.len());
    assert!(
        k.sys.machine.tracer.emitted() > 8,
        "guest must emit more events than the ring holds"
    );

    // Pid filter: a filter on the real pid keeps only events involving
    // it; a filter on a pid that never exists keeps (and numbers)
    // nothing.
    let spawn_traced = |pid_filter| {
        let mut k = split.kernel_on(
            tlb,
            KernelConfig {
                aslr_stack: false,
                trace: mask::ALL,
                trace_pid: pid_filter,
                ..KernelConfig::default()
            },
        );
        let pid = k.spawn(&prog.image).expect("spawns");
        assert_eq!(k.run(50_000_000), RunExit::AllExited);
        (k, pid)
    };
    let (unfiltered, pid) = spawn_traced(None);
    let (filtered, pid2) = spawn_traced(Some(pid.0));
    assert_eq!(pid, pid2, "spawn order is deterministic");
    let kept = filtered.sys.machine.tracer.snapshot();
    assert!(!kept.is_empty(), "the guest's own events must survive");
    assert!(kept.iter().all(|r| r.event.involves(pid.0)));
    assert!(filtered.sys.machine.tracer.emitted() <= unfiltered.sys.machine.tracer.emitted());
    // A pid that never exists keeps only the ambient machine-layer TLB
    // events (which carry no process id and pass any filter).
    let (none, _) = spawn_traced(Some(9999));
    assert!(
        none.sys
            .machine
            .tracer
            .snapshot()
            .iter()
            .all(|r| r.event.kind().starts_with("tlb_")),
        "per-process events leaked past the filter"
    );
}

/// The checked-in golden dump replays on the current build. Regenerate
/// with `cargo run --release --bin chaos -- --dump-demo
/// tests/golden/chaos_demo.smcdump` after intentional changes to the
/// instruction stream, trace schema or snapshot format.
#[test]
fn golden_dump_replays() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/chaos_demo.smcdump"
    );
    let bytes = std::fs::read(path).expect("golden dump is checked in");
    let rep = chaos::replay_dump(&bytes).expect("golden dump replays");
    assert!(
        rep.verdict_matches,
        "{} != {}",
        rep.run.verdict, rep.dump.expected_verdict
    );
    assert!(rep.splice_matches, "golden trace tail diverged");
    assert!(rep.run.violations.is_empty());
    assert_eq!(rep.run.verdict, "foiled(detected=true)");
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
