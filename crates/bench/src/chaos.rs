//! Deterministic fault-injection ("chaos") sweep.
//!
//! The split-memory protection must not *depend* on TLB residency, timing,
//! or allocation luck: spurious flushes, seeded evictions, forced
//! preemptions and frame exhaustion are exactly the events real hardware
//! produces at arbitrary points (context switches, shootdowns, capacity
//! pressure, memory pressure). This module sweeps seeds × fault plans ×
//! scenarios and demands:
//!
//! * **verdict stability** — under every *perturbation* plan (flushes,
//!   evictions, preemptions, window faults) the outcome is byte-identical
//!   to the fault-free run: attacks stay foiled, benign programs exit with
//!   the same status;
//! * **graceful OOM** — under frame-exhaustion plans the kernel never
//!   panics: processes die cleanly (SIGKILL semantics) or pages degrade to
//!   execute-disable-only protection, and attacks still never succeed
//!   (OOM plans run under combined mode, where NX backstops degraded
//!   pages);
//! * **invariants hold** — [`sm_core::invariants::check`] passes between
//!   every execution slice of every run.

use rayon::prelude::*;
use sm_attacks::harness::{classify_marker, kernel_with_on, AttackOutcome};
use sm_attacks::wilander::{self, Case, MARKER};
use sm_core::invariants::{self, Violation};
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::process::Pid;
use sm_kernel::snapshot as ksnap;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::FaultPlan;
use sm_machine::sha256::sha256;
use sm_machine::snapshot::{read_plan, write_plan, Reader, SnapshotError, Writer};
use sm_machine::trace::TraceRecord;
use sm_machine::TlbPreset;

/// Cycle budget every chaos run gets before it is declared hung.
pub const RUN_MAX_CYCLES: u64 = 80_000_000;
/// Cycles per execution slice: invariants are checked (and checkpoints
/// taken) on slice boundaries.
pub const RUN_STRIDE: u64 = 100_000;

/// A fault plan with a human-readable name for reports.
#[derive(Debug, Clone, Copy)]
pub struct NamedPlan {
    /// Label used in reports and mismatch messages.
    pub name: &'static str,
    /// The plan itself.
    pub plan: FaultPlan,
}

/// The perturbation plans (no OOM): every one of these must leave
/// protection verdicts byte-identical to the fault-free run.
pub fn perturbation_plans(seed: u64) -> Vec<NamedPlan> {
    let base = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    vec![
        NamedPlan {
            name: "inert",
            plan: base,
        },
        NamedPlan {
            name: "flush-97",
            plan: FaultPlan {
                flush_every: Some(97),
                ..base
            },
        },
        NamedPlan {
            name: "evict-13",
            plan: FaultPlan {
                evict_every: Some(13),
                ..base
            },
        },
        NamedPlan {
            name: "preempt-53",
            plan: FaultPlan {
                preempt_every: Some(53),
                ..base
            },
        },
        NamedPlan {
            name: "window-flush",
            plan: FaultPlan {
                flush_in_window: true,
                ..base
            },
        },
        NamedPlan {
            name: "window-signal",
            plan: FaultPlan {
                signal_in_window: true,
                ..base
            },
        },
        NamedPlan {
            name: "kitchen-sink",
            plan: FaultPlan {
                flush_every: Some(101),
                evict_every: Some(17),
                preempt_every: Some(29),
                flush_in_window: true,
                ..base
            },
        },
    ]
}

/// Frame-exhaustion plans: the k-th allocation (and optionally every n-th
/// after it) fails. Verdicts may legitimately change (processes die
/// cleanly, pages degrade) but attacks must never succeed and the kernel
/// must never panic.
pub fn oom_plans(seed: u64) -> Vec<NamedPlan> {
    let base = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    vec![
        NamedPlan {
            name: "oom-at-5",
            plan: FaultPlan {
                oom_at: Some(5),
                ..base
            },
        },
        NamedPlan {
            name: "oom-at-40",
            plan: FaultPlan {
                oom_at: Some(40),
                ..base
            },
        },
        NamedPlan {
            name: "oom-at-90",
            plan: FaultPlan {
                oom_at: Some(90),
                ..base
            },
        },
        NamedPlan {
            name: "oom-at-40-every-7",
            plan: FaultPlan {
                oom_at: Some(40),
                oom_every_after: Some(7),
                ..base
            },
        },
    ]
}

/// What to run under a fault plan.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// One cell of the Wilander-style injection matrix; the verdict is the
    /// [`AttackOutcome`].
    Wilander(Case),
    /// A benign compute loop (writes data on split pages every iteration);
    /// the verdict is its exit status.
    Benign,
    /// A benign *mixed-segment* self-patching program: every store to its
    /// own page crosses the Algorithm-1 single-step machinery; under split
    /// memory the patch must silently NOT take effect (paper §7), under
    /// any fault plan whatsoever.
    MixedPatch,
}

impl Scenario {
    /// Report label.
    pub fn name(&self) -> String {
        match self {
            Scenario::Wilander(c) => format!("wilander-{:?}-{:?}", c.technique, c.location),
            Scenario::Benign => "benign".into(),
            Scenario::MixedPatch => "mixed-patch".into(),
        }
    }
}

fn benign_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/benign")
        .code(
            "_start:
                mov ecx, 40
            top:
                mov [counter], ecx
                mov eax, [counter]
                cmp eax, 0
                je done
                dec ecx
                jmp top
            done:
                mov ebx, 0
                call exit",
        )
        .data("counter: .word 0")
        .build()
        .expect("benign program assembles")
}

/// The limitations.rs single-step-window shape: a mixed page whose
/// store targets its own page. Under split memory the store lands on
/// the data frame, the fetch keeps seeing `mov ebx, 9`. Public so the
/// snapshot tests can catch the run *inside* an armed window.
pub fn mixed_patch_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/mixedpatch")
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
        .expect("mixed-patch program assembles")
}

/// Outcome of one `(scenario, plan)` run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Compact verdict label (compared across plans for stability).
    pub verdict: String,
    /// True if the attacker got code execution (always false for benign
    /// scenarios).
    pub attack_succeeded: bool,
    /// How the kernel run ended.
    pub exit: RunExit,
    /// Invariant violations observed between slices (must be empty).
    pub violations: Vec<Violation>,
}

/// Run one scenario under one plan, checking invariants between slices.
pub fn run_scenario(scenario: Scenario, protection: &Protection, plan: FaultPlan) -> ChaosRun {
    let (image, marker) = scenario_image(scenario);
    run_image_on(&image, marker, protection, TlbPreset::default(), plan)
}

/// Build a scenario's guest image. Assembly is a pure function of the
/// scenario (and independent of plan/seed/protection), so sweeps build each
/// image once and share it across all of the scenario's combos.
fn scenario_image(scenario: Scenario) -> (ExecImage, Option<u8>) {
    match scenario {
        Scenario::Wilander(case) => (
            wilander::build_case(case).expect("applicable case").image,
            Some(MARKER),
        ),
        Scenario::Benign => (benign_program().image, None),
        Scenario::MixedPatch => (mixed_patch_program().image, None),
    }
}

/// Run one prebuilt image under one plan, checking invariants between
/// slices.
fn run_image_on(
    image: &ExecImage,
    marker: Option<u8>,
    protection: &Protection,
    tlb: TlbPreset,
    plan: FaultPlan,
) -> ChaosRun {
    run_image_traced_on(image, marker, protection, tlb, plan, 0).0
}

/// [`run_scenario`] with the trace subsystem enabled, on an explicit TLB
/// geometry (chaos evictions are set-aware, so determinism and verdict
/// stability must hold per `(plan, seed, geometry)`): re-runs one
/// `(scenario, plan)` combo with `trace_mask` layers recorded and returns
/// the run plus the ring buffer's contents as JSONL (the last
/// [`sm_trace::Tracer::DEFAULT_CAPACITY`] events). Used by the chaos bin's
/// `--trace` mode to dump the event tail of a failing combo, and by CI to
/// produce a schema-checkable sample.
pub fn run_scenario_traced_on(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
    plan: FaultPlan,
    trace_mask: u32,
) -> (ChaosRun, String) {
    let (image, marker) = scenario_image(scenario);
    run_image_traced_on(&image, marker, protection, tlb, plan, trace_mask)
}

fn run_image_traced_on(
    image: &ExecImage,
    marker: Option<u8>,
    protection: &Protection,
    tlb: TlbPreset,
    plan: FaultPlan,
    trace_mask: u32,
) -> (ChaosRun, String) {
    let kconfig = KernelConfig {
        aslr_stack: false,
        chaos: plan,
        trace: trace_mask,
        ..KernelConfig::default()
    };
    let mut k = kernel_with_on(protection, tlb, kconfig);
    let pid = match k.spawn(image) {
        Ok(pid) => pid,
        Err(sm_kernel::kernel::SpawnError::OutOfMemory) => {
            // A clean refusal at load time is a legitimate OOM-plan
            // outcome: nothing ran, nothing leaked.
            return (
                ChaosRun {
                    verdict: "spawn-oom".into(),
                    attack_succeeded: false,
                    exit: RunExit::AllExited,
                    violations: invariants::check(&k),
                },
                k.sys.machine.tracer.to_jsonl(),
            );
        }
        Err(e) => panic!("spawn failed: {e:?}"),
    };
    let (exit, violations) = invariants::run_with_checks(&mut k, RUN_MAX_CYCLES, RUN_STRIDE);
    let (verdict, attack_succeeded) = classify_run(&k, pid, marker);
    (
        ChaosRun {
            verdict,
            attack_succeeded,
            exit,
            violations,
        },
        k.sys.machine.tracer.to_jsonl(),
    )
}

/// Map a finished kernel to a compact verdict label and an
/// attacker-got-execution flag. Shared by the plain, traced and
/// checkpointed runners and by dump replay, so all four agree on what a
/// verdict string looks like.
fn classify_run(k: &Kernel, pid: Pid, marker: Option<u8>) -> (String, bool) {
    match marker {
        Some(m) => {
            let outcome = classify_marker(k, pid, m);
            let label = match &outcome {
                AttackOutcome::ShellSpawned => "shell".to_string(),
                AttackOutcome::PayloadExecuted => "payload".to_string(),
                AttackOutcome::Foiled { detected } => format!("foiled(detected={detected})"),
            };
            (label, outcome.succeeded())
        }
        None => (
            format!(
                "exit={:?}",
                k.sys.procs.get(&pid.0).and_then(|p| p.exit_code)
            ),
            false,
        ),
    }
}

/// Find a named fault plan by label across the perturbation and OOM
/// families (for re-running a reported combo, e.g. under `--trace`).
pub fn plan_by_name(name: &str, seed: u64) -> Option<FaultPlan> {
    perturbation_plans(seed)
        .into_iter()
        .chain(oom_plans(seed))
        .find(|np| np.name == name)
        .map(|np| np.plan)
}

/// One line of a sweep report.
#[derive(Debug, Clone)]
pub struct ComboResult {
    /// Scenario label.
    pub scenario: String,
    /// Plan label.
    pub plan: &'static str,
    /// Plan seed.
    pub seed: u64,
    /// The run itself.
    pub run: ChaosRun,
    /// The fault-free verdict this combo was compared against.
    pub baseline: String,
    /// `verdict == baseline` (only enforced for perturbation plans).
    pub verdict_stable: bool,
}

/// Sweep `seeds × perturbation_plans × scenarios` under `protection`,
/// comparing every verdict to the fault-free baseline, then run the OOM
/// plans under combined mode (NX backstops degraded pages) demanding
/// attacks never succeed. Returns every combo result; the caller asserts.
pub fn sweep(seeds: &[u64], scenarios: &[Scenario], protection: &Protection) -> Vec<ComboResult> {
    sweep_on(seeds, scenarios, protection, TlbPreset::default())
}

/// [`sweep`] on an explicit TLB geometry. Combos fan out across threads
/// (each combo owns its seeded fault stream and its own kernel, so runs
/// are independent); results are merged in deterministic scenario-major
/// order, byte-identical to [`sweep_serial`] on the default geometry.
pub fn sweep_on(
    seeds: &[u64],
    scenarios: &[Scenario],
    protection: &Protection,
    tlb: TlbPreset,
) -> Vec<ComboResult> {
    sweep_plans_on(seeds, scenarios, protection, tlb, perturbation_plans, true)
}

/// Single-threaded [`sweep`], kept as the reference the parallel sweep is
/// tested byte-identical against.
pub fn sweep_serial(
    seeds: &[u64],
    scenarios: &[Scenario],
    protection: &Protection,
) -> Vec<ComboResult> {
    let tlb = TlbPreset::default();
    let mut out = Vec::new();
    for &scenario in scenarios {
        let (image, marker) = scenario_image(scenario);
        let baseline = run_image_on(&image, marker, protection, tlb, FaultPlan::default());
        for &seed in seeds {
            for np in perturbation_plans(seed) {
                let run = run_image_on(&image, marker, protection, tlb, np.plan);
                let stable = run.verdict == baseline.verdict;
                out.push(ComboResult {
                    scenario: scenario.name(),
                    plan: np.name,
                    seed,
                    verdict_stable: stable,
                    baseline: baseline.verdict.clone(),
                    run,
                });
            }
        }
    }
    out
}

/// Shared sweep machinery: prebuild every scenario image, run the
/// fault-free baselines in parallel, then fan every `(scenario, seed,
/// plan)` combo out and zip results back in input (scenario-major) order.
fn sweep_plans_on(
    seeds: &[u64],
    scenarios: &[Scenario],
    protection: &Protection,
    tlb: TlbPreset,
    plans: fn(u64) -> Vec<NamedPlan>,
    enforce_stability: bool,
) -> Vec<ComboResult> {
    let prepped: Vec<(Scenario, ExecImage, Option<u8>)> = scenarios
        .iter()
        .map(|&s| {
            let (image, marker) = scenario_image(s);
            (s, image, marker)
        })
        .collect();
    let baselines: Vec<ChaosRun> = prepped
        .par_iter()
        .map(|(_, image, marker)| {
            run_image_on(image, *marker, protection, tlb, FaultPlan::default())
        })
        .collect();
    let combos: Vec<(usize, u64, NamedPlan)> = (0..prepped.len())
        .flat_map(|si| {
            seeds
                .iter()
                .flat_map(move |&seed| plans(seed).into_iter().map(move |np| (si, seed, np)))
        })
        .collect();
    let runs: Vec<ChaosRun> = combos
        .par_iter()
        .map(|&(si, _, np)| {
            let (_, image, marker) = &prepped[si];
            run_image_on(image, *marker, protection, tlb, np.plan)
        })
        .collect();
    combos
        .into_iter()
        .zip(runs)
        .map(|((si, seed, np), run)| {
            let baseline = &baselines[si];
            ComboResult {
                scenario: prepped[si].0.name(),
                plan: np.name,
                seed,
                verdict_stable: !enforce_stability || run.verdict == baseline.verdict,
                baseline: baseline.verdict.clone(),
                run,
            }
        })
        .collect()
}

/// Sweep the OOM plans. Verdicts may change; attack success and invariant
/// violations may not. Runs under the given protection (use combined mode
/// so the execute-disable bit backstops degraded pages).
pub fn sweep_oom(
    seeds: &[u64],
    scenarios: &[Scenario],
    protection: &Protection,
) -> Vec<ComboResult> {
    sweep_oom_on(seeds, scenarios, protection, TlbPreset::default())
}

/// [`sweep_oom`] on an explicit TLB geometry (parallel, deterministic
/// order; `verdict_stable` is not enforced for OOM plans).
pub fn sweep_oom_on(
    seeds: &[u64],
    scenarios: &[Scenario],
    protection: &Protection,
    tlb: TlbPreset,
) -> Vec<ComboResult> {
    sweep_plans_on(seeds, scenarios, protection, tlb, oom_plans, false)
}

// ---- checkpointed runs + failure dumps ------------------------------------
//
// A checkpointed run snapshots the whole kernel every `every` slices. When
// the run fails (or is worth preserving), the *latest good* snapshot plus
// everything needed to finish the run — the fault plan, combo metadata and
// the expected verdict — is serialized into a self-contained `.smcdump`
// file. `replay_dump` restores it and re-executes only the tail, and
// because the simulation is deterministic the replay reproduces the same
// verdict and splices into the byte-identical trace stream.
//
// Checkpointing itself runs under fault injection: if the plan arms
// `snap_fault_every`, every n-th snapshot is corrupted (truncation,
// bit-flip, section reorder, version skew) before validation. A corrupted
// snapshot must be *detected and discarded* — the runner keeps the previous
// good checkpoint and carries on, which is exactly the graceful degradation
// a production checkpoint subsystem owes its caller.

/// Result of one checkpointed chaos run.
#[derive(Debug, Clone)]
pub struct Checkpointed {
    /// The run verdict, exactly as the uncheckpointed runner reports it.
    pub run: ChaosRun,
    /// Final trace-ring contents as JSONL.
    pub jsonl: String,
    /// Attack marker of the scenario (needed to re-classify on replay).
    pub marker: Option<u8>,
    /// Guest pid the verdict was classified against.
    pub pid: u32,
    /// Absolute cycle deadline the run was given.
    pub deadline: u64,
    /// Good checkpoints kept.
    pub checkpoints_taken: u64,
    /// Snapshot faults the plan injected into checkpoint bytes.
    pub snap_faults_injected: u64,
    /// Injected faults that validation FAILED to catch (must stay zero).
    pub snap_faults_undetected: u64,
    /// Latest good snapshot, if any checkpoint survived.
    pub snapshot: Option<Vec<u8>>,
    /// Slice index the latest good snapshot was taken at.
    pub snapshot_slice: u64,
    /// Trace sequence number at that snapshot (`Tracer::emitted`).
    pub snapshot_seq: u64,
    /// JSONL of final-ring records with `seq >= snapshot_seq` — the part
    /// of the stream a replay from the snapshot re-emits.
    pub tail_jsonl: String,
    /// sha-256 of `tail_jsonl`; dumps embed it so replay can prove the
    /// splice byte-identical.
    pub tail_sha: [u8; 32],
}

/// How often a checkpointed run snapshots: every `every` healthy slices
/// of `stride` cycles each (both clamped to a minimum of 1). Short guests
/// need a short stride to see any checkpoint at all; sweeps over long
/// guests use [`RUN_STRIDE`].
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    /// Checkpoint every this many slices.
    pub every: u64,
    /// Cycles per slice.
    pub stride: u64,
}

/// Run one scenario under one plan, checkpointing on `cadence` and
/// injecting snapshot faults per the plan's `snap_fault_every`.
pub fn run_scenario_checkpointed_on(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
    plan: FaultPlan,
    trace_mask: u32,
    cadence: Cadence,
) -> Checkpointed {
    let (image, marker) = scenario_image(scenario);
    let every = cadence.every.max(1);
    let stride = cadence.stride.max(1);
    let kconfig = KernelConfig {
        aslr_stack: false,
        chaos: plan,
        trace: trace_mask,
        ..KernelConfig::default()
    };
    let mut k = kernel_with_on(protection, tlb, kconfig);
    let pid = match k.spawn(&image) {
        Ok(pid) => pid,
        Err(sm_kernel::kernel::SpawnError::OutOfMemory) => {
            return Checkpointed {
                run: ChaosRun {
                    verdict: "spawn-oom".into(),
                    attack_succeeded: false,
                    exit: RunExit::AllExited,
                    violations: invariants::check(&k),
                },
                jsonl: k.sys.machine.tracer.to_jsonl(),
                marker,
                pid: 0,
                deadline: k.sys.machine.cycles,
                checkpoints_taken: 0,
                snap_faults_injected: 0,
                snap_faults_undetected: 0,
                snapshot: None,
                snapshot_slice: 0,
                snapshot_seq: 0,
                tail_jsonl: String::new(),
                tail_sha: sha256(b""),
            };
        }
        Err(e) => panic!("spawn failed: {e:?}"),
    };
    let deadline = k.sys.machine.cycles.saturating_add(RUN_MAX_CYCLES);
    let mut latest: Option<(Vec<u8>, u64, u64)> = None;
    let mut taken = 0u64;
    let mut injected = 0u64;
    let mut undetected = 0u64;
    let (exit, violations) =
        invariants::run_with_checks_hook(&mut k, RUN_MAX_CYCLES, stride, |k, slice| {
            if slice % every != 0 {
                return;
            }
            let mut bytes = ksnap::save(k);
            // The snapshot-op clock is independent of the step/fs streams,
            // so taking (or faulting) checkpoints never perturbs the run
            // being checkpointed — the property the splice test pins.
            match k.sys.chaos.as_mut().and_then(|c| c.on_snapshot_op()) {
                Some(fault) => {
                    injected += 1;
                    let fseed = plan.seed ^ k.sys.chaos.as_ref().map_or(0, |c| c.stats.snap_ops);
                    ksnap::corrupt_snapshot(&mut bytes, fault, fseed);
                    if ksnap::validate(&bytes).is_ok() {
                        undetected += 1;
                    }
                    // Detected → discard; the previous good checkpoint
                    // stays live.
                }
                None => {
                    let seq = k.sys.machine.tracer.emitted();
                    latest = Some((bytes, slice, seq));
                    taken += 1;
                }
            }
        });
    let (verdict, attack_succeeded) = classify_run(&k, pid, marker);
    let (snapshot, snapshot_slice, snapshot_seq) = match latest {
        Some((bytes, slice, seq)) => (Some(bytes), slice, seq),
        None => (None, 0, 0),
    };
    let tail = tail_jsonl(&k.sys.machine.tracer.snapshot(), snapshot_seq);
    Checkpointed {
        run: ChaosRun {
            verdict,
            attack_succeeded,
            exit,
            violations,
        },
        jsonl: k.sys.machine.tracer.to_jsonl(),
        marker,
        pid: pid.0,
        deadline,
        checkpoints_taken: taken,
        snap_faults_injected: injected,
        snap_faults_undetected: undetected,
        snapshot,
        snapshot_slice,
        snapshot_seq,
        tail_sha: sha256(tail.as_bytes()),
        tail_jsonl: tail,
    }
}

/// Serialize the trace records with `seq >= seq0` as JSONL, oldest first.
/// Both sides of a replay compute this over their final ring; equality of
/// the two strings is the splice-correctness criterion.
pub fn tail_jsonl(records: &[TraceRecord], seq0: u64) -> String {
    let mut out = String::new();
    for r in records.iter().filter(|r| r.seq >= seq0) {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Everything a replay needs, gathered from a [`Checkpointed`] run plus
/// the combo metadata the sweep knew.
#[derive(Debug, Clone)]
pub struct FailureDump {
    /// Scenario label (provenance; the snapshot carries the actual guest).
    pub scenario: String,
    /// Plan label.
    pub plan_name: &'static str,
    /// Protection the combo ran under (rebuilt on replay to restore the
    /// engine).
    pub protection: Protection,
    /// TLB geometry of the combo (provenance; the snapshot carries the
    /// live TLBs).
    pub tlb: TlbPreset,
    /// The full fault plan, embedded so a dump is self-describing.
    pub plan: FaultPlan,
    /// Attack marker for verdict classification.
    pub marker: Option<u8>,
    /// Guest pid the verdict is classified against.
    pub pid: u32,
    /// Trace mask the run used.
    pub trace_mask: u32,
    /// Slice the snapshot was taken at.
    pub slice: u64,
    /// Trace sequence number at the snapshot.
    pub seq0: u64,
    /// Absolute cycle deadline of the original run.
    pub deadline: u64,
    /// Cycles per slice the original run used (replay re-checks
    /// invariants on the same boundaries).
    pub stride: u64,
    /// The verdict the original run produced (replay must reproduce it).
    pub expected_verdict: String,
    /// sha-256 of the original run's post-checkpoint trace tail.
    pub tail_sha: [u8; 32],
    /// The kernel snapshot itself.
    pub snapshot: Vec<u8>,
}

const DUMP_MAGIC: [u8; 8] = *b"SMCDUMP\0";
const DUMP_VERSION: u32 = 1;
/// Upper bound on TLB sets/ways read back from a dump header.
const MAX_DUMP_GEOMETRY: u64 = 1 << 16;

fn response_tag(m: &ResponseMode) -> u8 {
    match m {
        ResponseMode::Break => 0,
        ResponseMode::Observe => 1,
        ResponseMode::Forensics => 2,
    }
}

fn protection_tags(p: &Protection) -> Result<(u8, u8), String> {
    match p {
        Protection::Unprotected => Ok((0, 0)),
        Protection::SplitMem(m) => Ok((1, response_tag(m))),
        Protection::Nx => Ok((2, 0)),
        Protection::Combined(m) => Ok((3, response_tag(m))),
        Protection::ShadowStack(m) => Ok((4, response_tag(m))),
        Protection::ShadowCombined(m) => Ok((5, response_tag(m))),
        other => Err(format!("protection {other:?} has no dump encoding")),
    }
}

fn protection_from_tags(kind: u8, mode: u8) -> Result<Protection, String> {
    let m = match mode {
        0 => ResponseMode::Break,
        1 => ResponseMode::Observe,
        2 => ResponseMode::Forensics,
        _ => return Err(format!("unknown response-mode tag {mode}")),
    };
    match kind {
        0 => Ok(Protection::Unprotected),
        1 => Ok(Protection::SplitMem(m)),
        2 => Ok(Protection::Nx),
        3 => Ok(Protection::Combined(m)),
        4 => Ok(Protection::ShadowStack(m)),
        5 => Ok(Protection::ShadowCombined(m)),
        _ => Err(format!("unknown protection tag {kind}")),
    }
}

/// Serialize a failure dump: `SMCDUMP` header, combo metadata, the full
/// fault plan, the expected verdict, the trace-tail digest, the kernel
/// snapshot, and a whole-file sha-256 trailer.
///
/// # Errors
///
/// If the protection has no stable dump encoding (custom split configs).
pub fn write_dump(d: &FailureDump) -> Result<Vec<u8>, String> {
    let (kind, mode) = protection_tags(&d.protection)?;
    let mut w = Writer::new();
    w.raw(&DUMP_MAGIC);
    w.u32(DUMP_VERSION);
    w.str(&d.scenario);
    w.str(d.plan_name);
    w.u8(kind);
    w.u8(mode);
    w.u64(d.tlb.itlb.sets as u64);
    w.u64(d.tlb.itlb.ways as u64);
    w.u64(d.tlb.dtlb.sets as u64);
    w.u64(d.tlb.dtlb.ways as u64);
    write_plan(&mut w, &d.plan);
    w.opt_u32(d.marker.map(u32::from));
    w.u32(d.pid);
    w.u32(d.trace_mask);
    w.u64(d.slice);
    w.u64(d.seq0);
    w.u64(d.deadline);
    w.u64(d.stride);
    w.str(&d.expected_verdict);
    w.raw(&d.tail_sha);
    w.bytes(&d.snapshot);
    let mut out = w.into_bytes();
    let sha = sha256(&out);
    out.extend_from_slice(&sha);
    Ok(out)
}

/// Run a combo checkpointed and package its latest good snapshot as a
/// dump. The dump's expected verdict is the verdict the checkpointed run
/// itself produced.
///
/// # Errors
///
/// If the run finished before its first checkpoint (nothing to dump), a
/// snapshot fault was missed, or the protection cannot be encoded.
pub fn checkpointed_dump(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
    plan_name: &'static str,
    plan: FaultPlan,
    trace_mask: u32,
    cadence: Cadence,
) -> Result<(Checkpointed, Vec<u8>), String> {
    let cp = run_scenario_checkpointed_on(scenario, protection, tlb, plan, trace_mask, cadence);
    if cp.snap_faults_undetected > 0 {
        return Err(format!(
            "{} corrupted snapshot(s) passed validation",
            cp.snap_faults_undetected
        ));
    }
    let snapshot = cp
        .snapshot
        .clone()
        .ok_or("run finished before the first checkpoint; nothing to dump")?;
    let dump = write_dump(&FailureDump {
        scenario: scenario.name(),
        plan_name,
        protection: protection.clone(),
        tlb,
        plan,
        marker: cp.marker,
        pid: cp.pid,
        trace_mask,
        slice: cp.snapshot_slice,
        seq0: cp.snapshot_seq,
        deadline: cp.deadline,
        stride: cadence.stride.max(1),
        expected_verdict: cp.run.verdict.clone(),
        tail_sha: cp.tail_sha,
        snapshot,
    })?;
    Ok((cp, dump))
}

/// What a replay established.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Scenario label from the dump header.
    pub scenario: String,
    /// Plan label from the dump header.
    pub plan_name: String,
    /// The embedded fault plan.
    pub plan: FaultPlan,
    /// Slice the restored snapshot was taken at.
    pub slice: u64,
    /// Verdict the original run produced.
    pub expected_verdict: String,
    /// Verdict the replay produced.
    pub verdict: String,
    /// `verdict == expected_verdict`.
    pub verdict_matches: bool,
    /// The replayed trace tail hashed byte-identical to the original's.
    pub splice_matches: bool,
    /// Attacker got execution during the replayed tail.
    pub attack_succeeded: bool,
    /// How the replayed tail ended.
    pub exit: RunExit,
    /// Invariant violations during the replayed tail (must be empty).
    pub violations: Vec<Violation>,
    /// Trace events the replay re-emitted past the checkpoint.
    pub events_replayed: usize,
}

/// A decoded dump: every header field plus the embedded snapshot, ready
/// to restore. Shared by deadline replay and time-travel replay so both
/// reject malformed input identically.
struct ParsedDump {
    scenario: String,
    plan_name: String,
    protection: Protection,
    plan: FaultPlan,
    marker: Option<u8>,
    pid: u32,
    slice: u64,
    seq0: u64,
    deadline: u64,
    stride: u64,
    expected_verdict: String,
    tail_sha: [u8; 32],
    snapshot: Vec<u8>,
}

/// Decode and integrity-check a dump without restoring it.
///
/// # Errors
///
/// A human-readable message for every malformed, corrupted or
/// version-skewed dump — parsing never panics on bad input.
fn parse_dump(bytes: &[u8]) -> Result<ParsedDump, String> {
    let s = |e: SnapshotError| format!("malformed dump: {e}");
    if bytes.len() < DUMP_MAGIC.len() + 32 {
        return Err("dump too short".into());
    }
    let (body, sha_stored) = bytes.split_at(bytes.len() - 32);
    if sha256(body) != sha_stored {
        return Err("dump checksum mismatch (file corrupted?)".into());
    }
    let mut r = Reader::new(body);
    if r.take_raw(DUMP_MAGIC.len()).map_err(s)? != DUMP_MAGIC {
        return Err("not a chaos dump (bad magic)".into());
    }
    let version = r.u32().map_err(s)?;
    if version != DUMP_VERSION {
        return Err(format!("unsupported dump version {version}"));
    }
    let scenario = r.str().map_err(s)?;
    let plan_name = r.str().map_err(s)?;
    let kind = r.u8().map_err(s)?;
    let mode = r.u8().map_err(s)?;
    let protection = protection_from_tags(kind, mode)?;
    // Geometry is provenance (the snapshot carries the live TLBs), but a
    // nonsense header still means a corrupted or foreign file.
    for _ in 0..2 {
        let sets = r.u64().map_err(s)?;
        let ways = r.u64().map_err(s)?;
        if sets == 0 || !sets.is_power_of_two() || sets > MAX_DUMP_GEOMETRY {
            return Err(format!("implausible TLB set count {sets}"));
        }
        if ways == 0 || ways > MAX_DUMP_GEOMETRY {
            return Err(format!("implausible TLB way count {ways}"));
        }
    }
    let plan = read_plan(&mut r).map_err(s)?;
    let marker = r.opt_u32().map_err(s)?.map(|v| v as u8);
    let pid = r.u32().map_err(s)?;
    let _trace_mask = r.u32().map_err(s)?;
    let slice = r.u64().map_err(s)?;
    let seq0 = r.u64().map_err(s)?;
    let deadline = r.u64().map_err(s)?;
    let stride = r.u64().map_err(s)?.max(1);
    let expected_verdict = r.str().map_err(s)?;
    let tail_sha: [u8; 32] = r
        .take_raw(32)
        .map_err(s)?
        .try_into()
        .expect("32-byte slice");
    let snapshot = r.bytes().map_err(s)?;
    if !r.is_done() {
        return Err("trailing bytes after dump payload".into());
    }
    Ok(ParsedDump {
        scenario,
        plan_name,
        protection,
        plan,
        marker,
        pid,
        slice,
        seq0,
        deadline,
        stride,
        expected_verdict,
        tail_sha,
        snapshot,
    })
}

/// Restore a dump and re-run it from the checkpoint to its original
/// deadline, verifying the verdict reproduces and the trace tail splices
/// byte-identically.
///
/// # Errors
///
/// A human-readable message for every malformed, corrupted or
/// version-skewed dump — replay never panics on bad input.
pub fn replay_dump(bytes: &[u8]) -> Result<ReplayReport, String> {
    let d = parse_dump(bytes)?;
    let mut k = ksnap::restore(&d.snapshot, d.protection.engine())
        .map_err(|e| format!("embedded snapshot rejected: {e}"))?;
    let remaining = d.deadline.saturating_sub(k.sys.machine.cycles);
    let (exit, violations) = invariants::run_with_checks(&mut k, remaining, d.stride);
    let (verdict, attack_succeeded) = classify_run(&k, Pid(d.pid), d.marker);
    let tail = tail_jsonl(&k.sys.machine.tracer.snapshot(), d.seq0);
    Ok(ReplayReport {
        scenario: d.scenario,
        plan_name: d.plan_name,
        plan: d.plan,
        slice: d.slice,
        verdict_matches: verdict == d.expected_verdict,
        expected_verdict: d.expected_verdict,
        verdict,
        splice_matches: sha256(tail.as_bytes()) == d.tail_sha,
        attack_succeeded,
        exit,
        violations,
        events_replayed: tail.lines().count(),
    })
}

/// What a time-travel replay established.
#[derive(Debug, Clone)]
pub struct TimeTravelReport {
    /// Scenario label from the dump header.
    pub scenario: String,
    /// Plan label from the dump header.
    pub plan_name: String,
    /// Trace seq at the restored checkpoint.
    pub seq0: u64,
    /// The seq the caller asked to stop at.
    pub stop_seq: u64,
    /// Seq actually reached — the first instruction boundary at or past
    /// `stop_seq` (one instruction can emit several events, so this may
    /// overshoot by the tail of that instruction's burst).
    pub seq_reached: u64,
    /// The run emitted `stop_seq` events before ending; `false` means the
    /// guest finished (or a checked slice failed) first.
    pub reached: bool,
    /// Machine cycle counter at the stop point.
    pub cycles: u64,
    /// How the partial run ended ([`RunExit::CyclesExhausted`] for a
    /// seq-stop).
    pub exit: RunExit,
    /// Invariant violations at the stop point (armed single-step windows
    /// are legal mid-run and not reported).
    pub violations: Vec<Violation>,
    /// Trace events re-emitted past the checkpoint.
    pub events_replayed: usize,
    /// JSONL of the re-emitted records (`seq >= seq0`, ring-bounded) up
    /// to the stop point, for inspecting the neighborhood of `stop_seq`.
    pub tail_jsonl: String,
}

/// Restore a dump and run it **to an arbitrary mid-run trace seq** rather
/// than the original deadline: time travel to the moment just after the
/// `stop_seq`-th trace event.
///
/// Slice geometry (per-slice cycle budgets clipped against the original
/// deadline, invariant checks on the same boundaries) is identical to
/// [`replay_dump`], and [`Kernel::run_to_seq`] preserves the scheduler's
/// quantum clipping inside each slice — so every instruction executed up
/// to the stop is the one the full replay executes, and the machine state
/// returned is exactly the original run's state at that point.
///
/// # Errors
///
/// Malformed dumps (as [`replay_dump`]), and `stop_seq` earlier than the
/// checkpoint's own seq — events before the checkpoint were only retained
/// in the final ring, so rewinding before `seq0` needs an earlier dump.
pub fn replay_dump_to_seq(bytes: &[u8], stop_seq: u64) -> Result<TimeTravelReport, String> {
    let d = parse_dump(bytes)?;
    if stop_seq < d.seq0 {
        return Err(format!(
            "stop seq {stop_seq} precedes the checkpoint (seq {}); \
             time travel cannot rewind before the restored snapshot — \
             use a dump with an earlier checkpoint",
            d.seq0
        ));
    }
    let mut k = ksnap::restore(&d.snapshot, d.protection.engine())
        .map_err(|e| format!("embedded snapshot rejected: {e}"))?;
    let deadline = d.deadline;
    let stride = d.stride;
    let mut exit;
    let mut violations = Vec::new();
    let reached = loop {
        let remaining = deadline.saturating_sub(k.sys.machine.cycles);
        exit = k.run_to_seq(stride.min(remaining), stop_seq);
        if k.sys.machine.tracer.emitted() >= stop_seq {
            break true;
        }
        let done = exit != RunExit::CyclesExhausted || remaining <= stride;
        violations = invariants::check(&k);
        violations.extend(invariants::check_trace(&k, exit == RunExit::AllExited));
        if !violations.is_empty() || done {
            break false;
        }
    };
    let tail = tail_jsonl(&k.sys.machine.tracer.snapshot(), d.seq0);
    Ok(TimeTravelReport {
        scenario: d.scenario,
        plan_name: d.plan_name,
        seq0: d.seq0,
        stop_seq,
        seq_reached: k.sys.machine.tracer.emitted(),
        reached,
        cycles: k.sys.machine.cycles,
        exit,
        violations,
        events_replayed: tail.lines().count(),
        tail_jsonl: tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in golden dump's kernel snapshot restores under the
    /// dump's own protection and re-saves byte for byte. The round-trip
    /// tests compare a build with itself; this pins the snapshot writer
    /// (machine codec, kernel sections, container, digests) to an artifact
    /// an older build wrote, so a codec change that alters the wire format
    /// fails here.
    #[test]
    fn golden_dump_snapshot_resaves_byte_for_byte() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/chaos_demo.smcdump"
        );
        let bytes = std::fs::read(path).expect("golden dump is checked in");
        let d = parse_dump(&bytes).expect("golden dump parses");
        assert!(
            matches!(d.protection, Protection::SplitMem(ResponseMode::Break)),
            "golden dump protection: {:?}",
            d.protection
        );
        assert_eq!(d.snapshot.len(), 35_604);
        let k =
            ksnap::restore(&d.snapshot, d.protection.engine()).expect("golden snapshot restores");
        let resaved = ksnap::save(&k);
        assert!(
            resaved == d.snapshot,
            "re-saved snapshot differs from the golden ({} vs {} bytes)",
            resaved.len(),
            d.snapshot.len()
        );
    }
}
