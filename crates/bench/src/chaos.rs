//! Deterministic fault-injection ("chaos") sweep.
//!
//! The split-memory protection must not *depend* on TLB residency, timing,
//! or allocation luck: spurious flushes, seeded evictions, forced
//! preemptions and frame exhaustion are exactly the events real hardware
//! produces at arbitrary points (context switches, shootdowns, capacity
//! pressure, memory pressure). This module sweeps seeds × fault plans ×
//! scenarios (Wilander cells, a benign loop, a self-patcher and the
//! two-guest fork/COW interference image) and judges every combo against
//! an [`Expect`]:
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
//!
//! Every combo takes one path: [`run_scenario`] runs it (optionally
//! checkpointing), [`sweep`] fans combos out, [`ComboResult::problems`]
//! judges them, and a failing combo becomes one [`FailureDump`] record
//! that [`replay_dump`] restores.

use crate::interference::{interference_program, PAYLOAD_MARKER, VICTIM_CORRUPTED};
use rayon::prelude::*;
use sm_attacks::harness::{classify_marker, kernel_with_on, AttackOutcome};
use sm_attacks::wilander::{self, Case, MARKER};
use sm_core::invariants::{self, Violation};
use sm_core::setup::Protection;
use sm_kernel::events::{Event, ResponseMode};
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit, SpawnError};
use sm_kernel::process::Pid;
use sm_kernel::snapshot as ksnap;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::FaultPlan;
use sm_machine::sha256::sha256;
use sm_machine::snapshot::{read_plan, write_plan, Reader, SnapshotError, Writer};
use sm_machine::tlb::TlbGeometry;
use sm_machine::trace::TraceRecord;
use sm_machine::TlbPreset;
use std::collections::HashMap;
use std::sync::{LazyLock, Mutex};

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

/// Find a named fault plan by label across the perturbation and OOM
/// families.
pub fn plan_by_name(name: &str, seed: u64) -> Option<FaultPlan> {
    perturbation_plans(seed)
        .into_iter()
        .chain(oom_plans(seed))
        .find(|np| np.name == name)
        .map(|np| np.plan)
}

/// What to run under a fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// The two-guest fork/COW image
    /// ([`interference_program`]): the attacker injects into a
    /// COW-shared buffer, the victim re-reads it. The verdict is both
    /// guests' exit statuses and the attacker's detections; `asid` runs
    /// it on ASID-tagged TLBs instead of flush-on-switch.
    Interference {
        /// Select ASID-tagged TLBs.
        asid: bool,
    },
}

impl Scenario {
    /// Report label.
    pub fn name(&self) -> String {
        match self {
            Scenario::Wilander(c) => format!("wilander-{:?}-{:?}", c.technique, c.location),
            Scenario::Benign => "benign".into(),
            Scenario::MixedPatch => "mixed-patch".into(),
            Scenario::Interference { asid } => {
                format!("interference-{}", if *asid { "asid" } else { "flush" })
            }
        }
    }

    /// The guest image. Assembly is a pure function of the scenario
    /// (independent of plan, seed and protection) and costs more than a
    /// short chaos run, so the process assembles each scenario once and
    /// hands out clones.
    fn image(&self) -> ExecImage {
        static IMAGES: LazyLock<Mutex<HashMap<Scenario, ExecImage>>> =
            LazyLock::new(Mutex::default);
        let assemble = || match self {
            Scenario::Wilander(case) => wilander::build_case(*case).expect("applicable case").image,
            Scenario::Benign => benign_program().image,
            Scenario::MixedPatch => mixed_patch_program().image,
            Scenario::Interference { .. } => interference_program().image,
        };
        let mut images = IMAGES
            .lock()
            .expect("no assembly panicked holding the image cache");
        images.entry(*self).or_insert_with(assemble).clone()
    }

    /// Exit status that proves the attacker's payload ran, for scenarios
    /// with an attacker.
    fn marker(&self) -> Option<u8> {
        match self {
            Scenario::Wilander(_) => Some(MARKER),
            Scenario::Interference { .. } => Some(PAYLOAD_MARKER),
            Scenario::Benign | Scenario::MixedPatch => None,
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
    /// `AttackDetected` events attributed to the spawned guest.
    pub detections: usize,
    /// True if an interference victim saw the attacker's bytes (COW
    /// isolation failure); always false for one-guest scenarios.
    pub victim_corrupted: bool,
    /// How the kernel run ended.
    pub exit: RunExit,
    /// Invariant violations observed between slices (must be empty).
    pub violations: Vec<Violation>,
}

/// Read a finished run's verdict. `pid` is the spawned guest (`None`
/// when the load itself ran out of memory); for a two-guest run it is
/// the attacker and its fork child is the victim. Shared by the runner
/// and by dump replay, so both agree on what a verdict string looks
/// like.
fn classify(
    k: &Kernel,
    pid: Option<Pid>,
    marker: Option<u8>,
    two_guests: bool,
    exit: RunExit,
    violations: Vec<Violation>,
) -> ChaosRun {
    let mut run = ChaosRun {
        verdict: "spawn-oom".into(),
        attack_succeeded: false,
        detections: 0,
        victim_corrupted: false,
        exit,
        violations,
    };
    let Some(pid) = pid else {
        return run;
    };
    let exit_code = |p: u32| k.sys.procs.get(&p).and_then(|p| p.exit_code);
    run.detections = k
        .sys
        .events
        .iter()
        .filter(|e| matches!(e, Event::AttackDetected { pid: p, .. } if *p == pid))
        .count();
    let outcome = marker.map(|m| classify_marker(k, pid, m));
    run.attack_succeeded = outcome.as_ref().is_some_and(AttackOutcome::succeeded);
    if two_guests {
        let victim = k.sys.procs.keys().find(|&&p| p != pid.0);
        let victim_exit = victim.and_then(|&p| exit_code(p));
        run.victim_corrupted = victim_exit == Some(VICTIM_CORRUPTED);
        run.verdict = format!(
            "attacker={:?} victim={victim_exit:?} detections={}",
            exit_code(pid.0),
            run.detections
        );
        return run;
    }
    run.verdict = match outcome {
        Some(AttackOutcome::ShellSpawned) => "shell".into(),
        Some(AttackOutcome::PayloadExecuted) => "payload".into(),
        Some(AttackOutcome::Foiled { detected }) => format!("foiled(detected={detected})"),
        None => format!("exit={:?}", exit_code(pid.0)),
    };
    run
}

/// Result of one chaos run, with its checkpoints if it took any.
#[derive(Debug, Clone)]
pub struct Checkpointed {
    /// The run verdict.
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

/// Run one scenario under one plan on `tlb`, checking invariants between
/// slices and recording the `trace_mask` layers (the final ring comes
/// back as JSONL). Without a cadence the run slices at [`RUN_STRIDE`]
/// and takes no checkpoint; with one it snapshots on the cadence and
/// injects snapshot faults per the plan's `snap_fault_every`. Chaos
/// evictions are set-aware, so determinism and verdict stability must
/// hold per `(plan, seed, geometry)`.
pub fn run_scenario(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
    plan: FaultPlan,
    trace_mask: u32,
    cadence: Option<Cadence>,
) -> Checkpointed {
    let kconfig = KernelConfig {
        aslr_stack: false,
        chaos: plan,
        trace: trace_mask,
        asid_tlbs: matches!(scenario, Scenario::Interference { asid: true }),
        ..KernelConfig::default()
    };
    let mut k = kernel_with_on(protection, tlb, kconfig);
    let pid = match k.spawn(&scenario.image()) {
        Ok(pid) => Some(pid),
        // A clean refusal at load time is a legitimate OOM-plan outcome:
        // nothing ran, nothing leaked.
        Err(SpawnError::OutOfMemory) => None,
        Err(e) => panic!("spawn failed: {e:?}"),
    };
    // The deadline counts from the end of the load: replay restores a
    // checkpoint and runs to this same absolute cycle.
    let deadline = k.sys.machine.cycles.saturating_add(RUN_MAX_CYCLES);
    let stride = cadence.map_or(RUN_STRIDE, |c| c.stride.max(1));
    let every = cadence.map(|c| c.every.max(1));
    let mut latest: Option<(Vec<u8>, u64, u64)> = None;
    let mut taken = 0u64;
    let mut injected = 0u64;
    let mut undetected = 0u64;
    let checkpoint = |k: &mut Kernel, slice: u64| {
        if !every.is_some_and(|every| slice.is_multiple_of(every)) {
            return;
        }
        let mut bytes = ksnap::save(k);
        // The snapshot-op clock is independent of the step/fs streams, so
        // taking (or faulting) checkpoints never perturbs the run being
        // checkpointed — the property the splice test pins.
        match k.sys.chaos.as_mut().and_then(|c| c.on_snapshot_op()) {
            Some(fault) => {
                injected += 1;
                let fseed = plan.seed ^ k.sys.chaos.as_ref().map_or(0, |c| c.stats.snap_ops);
                ksnap::corrupt_snapshot(&mut bytes, fault, fseed);
                if ksnap::validate(&bytes).is_ok() {
                    undetected += 1;
                }
                // Detected → discard; the previous good checkpoint stays
                // live.
            }
            None => {
                let seq = k.sys.machine.tracer.emitted();
                latest = Some((bytes, slice, seq));
                taken += 1;
            }
        }
    };
    let (exit, violations) = match pid {
        Some(_) => invariants::run_with_checks_hook(&mut k, RUN_MAX_CYCLES, stride, checkpoint),
        None => (RunExit::AllExited, invariants::check(&k)),
    };
    let marker = scenario.marker();
    let two_guests = matches!(scenario, Scenario::Interference { .. });
    let run = classify(&k, pid, marker, two_guests, exit, violations);
    let (snapshot, snapshot_slice, snapshot_seq) = match latest {
        Some((bytes, slice, seq)) => (Some(bytes), slice, seq),
        None => (None, 0, 0),
    };
    let tail = tail_jsonl(&k.sys.machine.tracer.snapshot(), snapshot_seq);
    Checkpointed {
        run,
        jsonl: k.sys.machine.tracer.to_jsonl(),
        marker,
        pid: pid.map_or(0, |p| p.0),
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

/// What a sweep demands of every combo, on top of clean invariants.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// The verdict equals the fault-free baseline and the run does not
    /// livelock (perturbation plans).
    Stable,
    /// Every guest exits; the verdict may vary with the plan (the
    /// self-patcher, whose patch outcome is legitimately plan-dependent).
    Converges,
    /// The attack never succeeds; the verdict may vary (OOM plans).
    NoAttack,
    /// The interference image: the injection runs iff `works`, is
    /// detected when it must not run, never reaches the victim, and the
    /// verdict is stable without livelock.
    Injection {
        /// Whether the injected payload must execute.
        works: bool,
    },
}

/// One line of a sweep report.
#[derive(Debug, Clone)]
pub struct ComboResult {
    /// What ran.
    pub scenario: Scenario,
    /// The plan it ran under.
    pub plan: NamedPlan,
    /// Plan seed.
    pub seed: u64,
    /// The run itself.
    pub run: ChaosRun,
    /// The fault-free verdict this combo was compared against.
    pub baseline: String,
    /// `verdict == baseline`.
    pub verdict_stable: bool,
}

impl ComboResult {
    fn new(
        scenario: Scenario,
        plan: NamedPlan,
        seed: u64,
        run: ChaosRun,
        baseline: &ChaosRun,
    ) -> Self {
        ComboResult {
            scenario,
            plan,
            seed,
            verdict_stable: run.verdict == baseline.verdict,
            baseline: baseline.verdict.clone(),
            run,
        }
    }

    /// Everything this combo did that `expect` forbids, as report
    /// messages; empty when the combo passes. Every expectation demands
    /// clean invariants.
    pub fn problems(&self, expect: Expect) -> Vec<String> {
        let run = &self.run;
        let mut bad = Vec::new();
        let unstable = || format!("verdict {:?} != baseline {:?}", run.verdict, self.baseline);
        match expect {
            Expect::Stable if !self.verdict_stable => bad.push(unstable()),
            Expect::NoAttack if run.attack_succeeded => {
                bad.push(format!("attack succeeded under OOM: {}", run.verdict));
            }
            Expect::Injection { works } => {
                if run.attack_succeeded != works {
                    bad.push(format!(
                        "attack_succeeded={} (want {works}): {}",
                        run.attack_succeeded, run.verdict
                    ));
                }
                if !works && run.detections == 0 {
                    bad.push("injection not detected".into());
                }
                if run.victim_corrupted {
                    bad.push("victim saw attacker bytes through COW".into());
                }
                if !self.verdict_stable {
                    bad.push(unstable());
                }
            }
            _ => {}
        }
        if !run.violations.is_empty() {
            bad.push(format!("{} invariant violations", run.violations.len()));
        }
        match expect {
            Expect::Converges if run.exit != RunExit::AllExited => {
                bad.push(format!("did not converge: {:?}", run.exit));
            }
            Expect::Stable | Expect::Injection { .. }
                if matches!(run.exit, RunExit::Livelock { .. }) =>
            {
                bad.push("livelock".into());
            }
            _ => {}
        }
        bad
    }
}

/// Sweep `seeds × plans × scenarios` under `protection` on `tlb`,
/// comparing every verdict to its scenario's fault-free baseline. Combos
/// fan out across threads (each owns its seeded fault stream and its
/// own kernel, so runs are independent); results come back in
/// scenario-major input order, byte-identical to [`sweep_serial`].
pub fn sweep(
    seeds: &[u64],
    scenarios: &[Scenario],
    protection: &Protection,
    tlb: TlbPreset,
    plans: fn(u64) -> Vec<NamedPlan>,
) -> Vec<ComboResult> {
    let run = |s: Scenario, plan| run_scenario(s, protection, tlb, plan, 0, None).run;
    let baselines: Vec<ChaosRun> = scenarios
        .par_iter()
        .map(|&s| run(s, FaultPlan::default()))
        .collect();
    let combos: Vec<(usize, u64, NamedPlan)> = (0..scenarios.len())
        .flat_map(|si| {
            seeds
                .iter()
                .flat_map(move |&seed| plans(seed).into_iter().map(move |np| (si, seed, np)))
        })
        .collect();
    let runs: Vec<ChaosRun> = combos
        .par_iter()
        .map(|&(si, _, np)| run(scenarios[si], np.plan))
        .collect();
    combos
        .into_iter()
        .zip(runs)
        .map(|((si, seed, np), r)| ComboResult::new(scenarios[si], np, seed, r, &baselines[si]))
        .collect()
}

/// Single-threaded [`sweep`], kept as the reference the parallel sweep is
/// tested byte-identical against.
pub fn sweep_serial(
    seeds: &[u64],
    scenarios: &[Scenario],
    protection: &Protection,
    tlb: TlbPreset,
    plans: fn(u64) -> Vec<NamedPlan>,
) -> Vec<ComboResult> {
    let run = |s: Scenario, plan| run_scenario(s, protection, tlb, plan, 0, None).run;
    let mut out = Vec::new();
    for &scenario in scenarios {
        let baseline = run(scenario, FaultPlan::default());
        for &seed in seeds {
            for np in plans(seed) {
                let r = run(scenario, np.plan);
                out.push(ComboResult::new(scenario, np, seed, r, &baseline));
            }
        }
    }
    out
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

/// Everything a replay needs: a checkpointed run's latest good snapshot
/// plus the combo metadata the sweep knew. [`write_dump`] encodes it, and
/// replay decodes the same record back, field for field.
#[derive(Debug, Clone)]
pub struct FailureDump {
    /// Scenario label (provenance; the snapshot carries the actual guest).
    pub scenario: String,
    /// Plan label.
    pub plan_name: String,
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
    w.str(&d.plan_name);
    w.u8(kind);
    w.u8(mode);
    for g in [d.tlb.itlb, d.tlb.dtlb] {
        w.u64(g.sets as u64);
        w.u64(g.ways as u64);
    }
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

/// Decode and integrity-check a dump without restoring it.
///
/// # Errors
///
/// A human-readable message for every malformed, corrupted or
/// version-skewed dump — parsing never panics on bad input.
fn parse_dump(bytes: &[u8]) -> Result<FailureDump, String> {
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
    let mut geometry = || -> Result<TlbGeometry, String> {
        let sets = r.u64().map_err(s)?;
        let ways = r.u64().map_err(s)?;
        if sets == 0 || !sets.is_power_of_two() || sets > MAX_DUMP_GEOMETRY {
            return Err(format!("implausible TLB set count {sets}"));
        }
        if ways == 0 || ways > MAX_DUMP_GEOMETRY {
            return Err(format!("implausible TLB way count {ways}"));
        }
        Ok(TlbGeometry::new(sets as usize, ways as usize))
    };
    let tlb = TlbPreset {
        itlb: geometry()?,
        dtlb: geometry()?,
    };
    let plan = read_plan(&mut r).map_err(s)?;
    let marker = r.opt_u32().map_err(s)?.map(|v| v as u8);
    let pid = r.u32().map_err(s)?;
    let trace_mask = r.u32().map_err(s)?;
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
    Ok(FailureDump {
        scenario,
        plan_name,
        protection,
        tlb,
        plan,
        marker,
        pid,
        trace_mask,
        slice,
        seq0,
        deadline,
        stride,
        expected_verdict,
        tail_sha,
        snapshot,
    })
}

/// Run a combo checkpointed and package its latest good snapshot as a
/// dump. The dump's expected verdict is the verdict the checkpointed run
/// itself produced.
///
/// # Errors
///
/// If the scenario is the two-guest interference image (the dump header
/// classifies one guest), the run finished before its first checkpoint
/// (nothing to dump), a snapshot fault was missed, or the protection
/// cannot be encoded.
pub fn checkpointed_dump(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
    plan: NamedPlan,
    trace_mask: u32,
    cadence: Cadence,
) -> Result<(Checkpointed, Vec<u8>), String> {
    if matches!(scenario, Scenario::Interference { .. }) {
        return Err(format!("{} has no dump encoding", scenario.name()));
    }
    let cp = run_scenario(
        scenario,
        protection,
        tlb,
        plan.plan,
        trace_mask,
        Some(cadence),
    );
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
        plan_name: plan.name.into(),
        protection: protection.clone(),
        tlb,
        plan: plan.plan,
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

/// Restore a dump's snapshot and drive it on the original run's slice
/// boundaries toward its deadline, checking invariants between slices.
/// With `stop_seq` the run instead stops at the first instruction
/// boundary at or past that trace seq ([`Kernel::run_to_seq`] keeps the
/// scheduler's quantum clipping, so every instruction up to the stop is
/// one the full replay executes). Returns the kernel, how the run ended,
/// the violations and whether the stop was reached.
fn drive_dump(
    d: &FailureDump,
    stop_seq: Option<u64>,
) -> Result<(Kernel, RunExit, Vec<Violation>, bool), String> {
    let mut k = ksnap::restore(&d.snapshot, d.protection.engine())
        .map_err(|e| format!("embedded snapshot rejected: {e}"))?;
    loop {
        let remaining = d.deadline.saturating_sub(k.sys.machine.cycles);
        let budget = d.stride.min(remaining);
        let exit = match stop_seq {
            Some(seq) => k.run_to_seq(budget, seq),
            None => k.run(budget),
        };
        if stop_seq.is_some_and(|seq| k.sys.machine.tracer.emitted() >= seq) {
            return Ok((k, exit, Vec::new(), true));
        }
        let done = exit != RunExit::CyclesExhausted || remaining <= d.stride;
        let mut violations = invariants::check(&k);
        violations.extend(invariants::check_trace(&k, exit == RunExit::AllExited));
        if !violations.is_empty() || done {
            return Ok((k, exit, violations, false));
        }
    }
}

/// What a replay established.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The replayed dump.
    pub dump: FailureDump,
    /// The replayed tail's verdict, exit and invariant violations (which
    /// must be empty).
    pub run: ChaosRun,
    /// The replay reproduced `dump.expected_verdict`.
    pub verdict_matches: bool,
    /// The replayed trace tail hashed byte-identical to the original's.
    pub splice_matches: bool,
    /// Trace events the replay re-emitted past the checkpoint.
    pub events_replayed: usize,
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
    let dump = parse_dump(bytes)?;
    let (k, exit, violations, _) = drive_dump(&dump, None)?;
    let run = classify(
        &k,
        Some(Pid(dump.pid)),
        dump.marker,
        false,
        exit,
        violations,
    );
    let tail = tail_jsonl(&k.sys.machine.tracer.snapshot(), dump.seq0);
    Ok(ReplayReport {
        verdict_matches: run.verdict == dump.expected_verdict,
        splice_matches: sha256(tail.as_bytes()) == dump.tail_sha,
        events_replayed: tail.lines().count(),
        dump,
        run,
    })
}

/// What a time-travel replay established.
#[derive(Debug, Clone)]
pub struct TimeTravelReport {
    /// The replayed dump.
    pub dump: FailureDump,
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
/// `stop_seq`-th trace event. Slices, deadline and invariant checks are
/// [`replay_dump`]'s, so the machine state returned is exactly the
/// original run's state at that point.
///
/// # Errors
///
/// Malformed dumps (as [`replay_dump`]), and `stop_seq` earlier than the
/// checkpoint's own seq — events before the checkpoint were only retained
/// in the final ring, so rewinding before `seq0` needs an earlier dump.
pub fn replay_dump_to_seq(bytes: &[u8], stop_seq: u64) -> Result<TimeTravelReport, String> {
    let dump = parse_dump(bytes)?;
    if stop_seq < dump.seq0 {
        return Err(format!(
            "stop seq {stop_seq} precedes the checkpoint (seq {}); \
             time travel cannot rewind before the restored snapshot — \
             use a dump with an earlier checkpoint",
            dump.seq0
        ));
    }
    let (k, exit, violations, reached) = drive_dump(&dump, Some(stop_seq))?;
    let tail = tail_jsonl(&k.sys.machine.tracer.snapshot(), dump.seq0);
    Ok(TimeTravelReport {
        dump,
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
    use sm_machine::trace::mask;

    fn golden_dump_bytes() -> Vec<u8> {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/chaos_demo.smcdump"
        );
        std::fs::read(path).expect("golden dump is checked in")
    }

    /// The checked-in golden dump's kernel snapshot restores under the
    /// dump's own protection and re-saves byte for byte. The round-trip
    /// tests compare a build with itself; this pins the snapshot writer
    /// (machine codec, kernel sections, container, digests) to an artifact
    /// an older build wrote, so a codec change that alters the wire format
    /// fails here.
    #[test]
    fn golden_dump_snapshot_resaves_byte_for_byte() {
        let d = parse_dump(&golden_dump_bytes()).expect("golden dump parses");
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

    /// `parse_dump` reads back every field `write_dump` writes: the
    /// golden re-encodes to its own bytes, and a fresh dump parses back
    /// to the record it was written from.
    #[test]
    fn dump_record_round_trips() {
        let golden = golden_dump_bytes();
        let d = parse_dump(&golden).expect("golden dump parses");
        assert!(write_dump(&d).expect("golden re-encodes") == golden);

        let scenario = Scenario::Wilander(
            wilander::all_cases()
                .into_iter()
                .find(Case::applicable)
                .expect("an applicable wilander case"),
        );
        let split = Protection::SplitMem(ResponseMode::Break);
        let tlb = TlbPreset::pentium3();
        let plan = NamedPlan {
            name: "round-trip",
            plan: FaultPlan {
                evict_every: Some(17),
                seed: 5,
                ..FaultPlan::default()
            },
        };
        let cadence = Cadence {
            every: 2,
            stride: 500,
        };
        let (cp, dump) =
            checkpointed_dump(scenario, &split, tlb, plan, mask::ALL, cadence).expect("dumps");
        let want = FailureDump {
            scenario: scenario.name(),
            plan_name: plan.name.into(),
            protection: split,
            tlb,
            plan: plan.plan,
            marker: cp.marker,
            pid: cp.pid,
            trace_mask: mask::ALL,
            slice: cp.snapshot_slice,
            seq0: cp.snapshot_seq,
            deadline: cp.deadline,
            stride: cadence.stride,
            expected_verdict: cp.run.verdict.clone(),
            tail_sha: cp.tail_sha,
            snapshot: cp.snapshot.clone().expect("checkpoint exists"),
        };
        let got = parse_dump(&dump).expect("fresh dump parses");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// The interference image has no dump encoding: the dump header
    /// classifies one guest.
    #[test]
    fn interference_combo_is_refused_a_dump() {
        let err = checkpointed_dump(
            Scenario::Interference { asid: false },
            &Protection::SplitMem(ResponseMode::Break),
            TlbPreset::default(),
            perturbation_plans(1)[0],
            mask::ALL,
            Cadence {
                every: 1,
                stride: 500,
            },
        )
        .expect_err("interference cannot be dumped");
        assert!(err.contains("no dump encoding"), "{err}");
    }

    fn combo(verdict: &str, attack_succeeded: bool, exit: RunExit) -> ComboResult {
        let baseline = "foiled(detected=true)";
        ComboResult {
            scenario: Scenario::Benign,
            plan: perturbation_plans(1)[0],
            seed: 1,
            run: ChaosRun {
                verdict: verdict.into(),
                attack_succeeded,
                detections: 0,
                victim_corrupted: false,
                exit,
                violations: Vec::new(),
            },
            baseline: baseline.into(),
            verdict_stable: verdict == baseline,
        }
    }

    /// What each expectation flags and what it tolerates.
    #[test]
    fn each_expectation_flags_only_what_it_forbids() {
        let changed = combo("exit=Some(0)", false, RunExit::AllExited);
        assert_eq!(
            changed.problems(Expect::Stable),
            ["verdict \"exit=Some(0)\" != baseline \"foiled(detected=true)\""]
        );
        assert!(changed.problems(Expect::NoAttack).is_empty());
        assert!(changed.problems(Expect::Converges).is_empty());

        let livelock = combo(
            "foiled(detected=true)",
            false,
            RunExit::Livelock {
                pid: Pid(1),
                eip: 0,
            },
        );
        assert_eq!(livelock.problems(Expect::Stable), ["livelock"]);
        assert!(livelock.problems(Expect::NoAttack).is_empty());

        let payload = combo("payload", true, RunExit::AllExited);
        assert_eq!(
            payload.problems(Expect::NoAttack),
            ["attack succeeded under OOM: payload"]
        );
        assert!(payload
            .problems(Expect::Injection { works: false })
            .iter()
            .any(|p| p.starts_with("attack_succeeded=true (want false)")));
        let mut works = payload.clone();
        works.verdict_stable = true;
        assert!(works.problems(Expect::Injection { works: true }).is_empty());

        let mut dirty = combo("foiled(detected=true)", false, RunExit::AllExited);
        dirty.run.violations.push(Violation::FrameAccounting {
            allocated: 1,
            tracked: 0,
        });
        for expect in [Expect::Stable, Expect::Converges, Expect::NoAttack] {
            assert_eq!(dirty.problems(expect), ["1 invariant violations"]);
        }
    }
}
