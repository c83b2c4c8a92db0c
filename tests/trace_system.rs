//! Trace-subsystem integration tests.
//!
//! * **Golden trace** — the canonical Wilander cell under split/break
//!   produces *exactly* the Algorithm 1/2 event sequence the paper
//!   describes, byte-identical across repeated runs (teardown order,
//!   frame numbers and stamps are all deterministic), and the trace-order
//!   checker finds nothing to complain about.
//! * **Observational transparency** — enabling the tracer changes
//!   nothing about the simulation: cycles, machine counters, kernel
//!   counters, verdicts and event-log stamps are identical trace-on vs
//!   trace-off, for arbitrary fault plans (proptest).
//! * **Unified clock** — kernel `Event` stamps and `TraceEvent` stamps
//!   both ride `machine.cycles`: each stream is monotonic, and their
//!   merge is consistent.
//! * **Saturating stats deltas** — `since` on every counter set never
//!   underflows, even with a baseline from a later (or different)
//!   snapshot, and chaos-slice diffs across fork/exit stay sane.
//! * **Counter vocabulary** — every `counters!` set's field names are
//!   pinned in declaration order, which is also its snapshot wire order
//!   and its JSON key order, and its codec round-trips 8 bytes a field.

use proptest::prelude::*;
use sm_attacks::harness::{classify_marker, kernel_with_on};
use sm_attacks::wilander::{self, InjectLocation, Technique, MARKER};
use sm_bench::chaos::{self, Scenario};
use sm_core::invariants;
use sm_core::nx::NxStats;
use sm_core::setup::Protection;
use sm_core::{ShadowStats, SplitStats};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::stats::KernelStats;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::chaos::{ChaosStats, FaultPlan};
use sm_machine::snapshot::{Reader, SnapshotError, Writer};
use sm_machine::stats::MachineStats;
use sm_machine::tlb::TlbStats;
use sm_machine::trace::{check_order, mask};
use sm_machine::{DecodeCacheStats, SuperblockStats, TlbPreset};

fn split_break() -> Protection {
    Protection::SplitMem(ResponseMode::Break)
}

fn canonical_case() -> wilander::Case {
    wilander::Case {
        technique: Technique::ReturnAddress,
        location: InjectLocation::Stack,
    }
}

/// Run one Wilander cell to completion with the given trace mask and
/// fault plan, returning everything an equivalence check needs.
fn run_case(plan: FaultPlan, trace: u32) -> (Kernel, String) {
    let built = wilander::build_case(canonical_case()).expect("case applies");
    let mut k = kernel_with_on(
        &split_break(),
        TlbPreset::default(),
        KernelConfig {
            aslr_stack: false,
            chaos: plan,
            trace,
            ..KernelConfig::default()
        },
    );
    let pid = k.spawn(&built.image).expect("spawn");
    let exit = k.run(80_000_000);
    assert_eq!(exit, RunExit::AllExited, "case must converge: {exit:?}");
    let verdict = format!("{:?}", classify_marker(&k, pid, MARKER));
    (k, verdict)
}

/// The exact event sequence of Algorithm 1 (I-TLB load via single-step,
/// D-TLB load via pagetable walk), Algorithm 2 (debug trap re-restricts)
/// and Algorithm 3 (#UD on filler → detection → teardown) for the
/// ReturnAddress/Stack cell under break mode. Loader page-splits first,
/// then the scheduler switches in; the injected fetch on the stack page
/// ends in `step_disarm(detection)` + `detection` + ordered teardown.
const GOLDEN_KINDS: &[&str] = &[
    "tlb_flush",      // invlpg: code page split by the loader
    "page_split",     //
    "tlb_flush",      // invlpg: data page split
    "page_split",     //
    "tlb_flush",      // invlpg: stack page split
    "page_split",     //
    "sched_switch",   // first dispatch
    "tlb_flush",      // CR3 load
    "page_fault",     // entry-point fetch, verdict=instruction
    "pte_unrestrict", // Algorithm 1: reload=code
    "step_arm",       //
    "tlb_fill",       // i-TLB gets the code frame
    "page_fault",     // the armed instruction's own store, verdict=data
    "pte_unrestrict", // nested D-TLB walk reload
    "tlb_fill",       // d-TLB gets the data frame
    "pte_restrict",   //
    "step_fire",      // Algorithm 2: window closes
    "pte_restrict",   //
    "page_fault",     // overflow writes reach the data page
    "pte_unrestrict", //
    "tlb_fill",       //
    "pte_restrict",   //
    "page_fault",     // injected fetch on the stack page: verdict=instruction
    "pte_unrestrict", //
    "step_arm",       //
    "tlb_fill",       // i-TLB gets the *filler* code frame
    "step_disarm",    // Algorithm 3: #UD pre-empts the armed window
    "pte_restrict",   //
    "detection",      // break mode logs and terminates
    "page_unsplit",   // teardown releases split pages in vpn order
    "page_unsplit",   //
    "page_unsplit",   //
    "process_exit",   //
];

#[test]
fn golden_trace_matches_algorithm_sequence() {
    let (k, verdict) = run_case(FaultPlan::default(), mask::ALL);
    assert!(
        verdict.contains("Foiled"),
        "attack must be foiled: {verdict}"
    );
    let records = k.sys.machine.tracer.snapshot();
    let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
    assert_eq!(kinds, GOLDEN_KINDS, "event sequence diverged from golden");
    assert!(
        !k.sys.machine.tracer.truncated(),
        "canonical run must fit the ring"
    );
    let violations = check_order(&records, false, true);
    assert!(
        violations.is_empty(),
        "trace order violations: {violations:?}"
    );
}

/// Golden trace for a *code-reuse* detection: the ROP chain under the
/// shadow-stack engine produces a DETECT record (with the victim pid)
/// followed by process exits — and none of the split-memory machinery
/// (no page splits, no PTE restricts: nothing was injected, so the
/// paper's engines have nothing to trace). Byte-identical across runs.
#[test]
fn golden_rop_detection_trace() {
    use sm_attacks::code_reuse;
    let shadow = Protection::ShadowStack(ResponseMode::Break);
    let run = || code_reuse::run_rop_traced(&shadow, mask::DETECT | mask::PTE | mask::PROC);
    let (report, jsonl) = run();
    assert!(
        matches!(report.outcome, sm_attacks::AttackOutcome::Foiled { .. }),
        "shadow stack must foil the chain: {:?}",
        report.outcome
    );
    assert!(report.detections > 0, "detection must be logged");
    let kinds: Vec<&str> = jsonl
        .lines()
        .filter_map(|l| l.split("\"kind\":\"").nth(1))
        .filter_map(|s| s.split('"').next())
        .collect();
    assert!(
        kinds.contains(&"detection"),
        "trace must carry the DETECT record: {kinds:?}"
    );
    assert!(
        !kinds
            .iter()
            .any(|k| k.starts_with("page_") || k.starts_with("pte_")),
        "pure code reuse must not touch split-memory machinery: {kinds:?}"
    );
    let (_, jsonl2) = run();
    assert_eq!(jsonl, jsonl2, "detected-ROP trace must be byte-identical");
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let (k1, _) = run_case(FaultPlan::default(), mask::ALL);
    let (k2, _) = run_case(FaultPlan::default(), mask::ALL);
    assert_eq!(
        k1.sys.machine.tracer.to_jsonl(),
        k2.sys.machine.tracer.to_jsonl(),
        "repeated traced runs must serialize byte-identically"
    );
}

#[test]
fn traced_chaos_rerun_matches_untraced_verdict() {
    let plan = chaos::plan_by_name("kitchen-sink", 3).expect("plan exists");
    let scenario = Scenario::Wilander(canonical_case());
    let run = |trace_mask| {
        chaos::run_scenario(
            scenario,
            &split_break(),
            TlbPreset::default(),
            plan,
            trace_mask,
            None,
        )
    };
    let untraced = run(0);
    let traced = run(mask::ALL);
    let jsonl = traced.jsonl;
    assert_eq!(traced.run.verdict, untraced.run.verdict);
    assert!(
        jsonl.lines().count() > 0,
        "traced re-run must capture events"
    );
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL line malformed: {line}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tracing is purely observational: for arbitrary perturbation plans
    /// the traced run retires the same instructions, burns the same
    /// cycles, and logs the same kernel events as the untraced run.
    #[test]
    fn trace_on_is_trace_off(seed in 1u64..32, plan_idx in 0usize..7) {
        let plans = chaos::perturbation_plans(seed);
        let plan = plans[plan_idx % plans.len()].plan;
        let (k_off, v_off) = run_case(plan, 0);
        let (k_on, v_on) = run_case(plan, mask::ALL);
        prop_assert_eq!(v_off, v_on);
        prop_assert_eq!(k_off.sys.machine.cycles, k_on.sys.machine.cycles);
        prop_assert_eq!(
            format!("{:?}", k_off.sys.machine.stats),
            format!("{:?}", k_on.sys.machine.stats)
        );
        prop_assert_eq!(
            format!("{:?}", k_off.sys.stats),
            format!("{:?}", k_on.sys.stats)
        );
        prop_assert_eq!(
            format!("{:?}", k_off.sys.events.entries()),
            format!("{:?}", k_on.sys.events.entries())
        );
        prop_assert_eq!(k_off.sys.machine.tracer.emitted(), 0);
        prop_assert!(k_on.sys.machine.tracer.emitted() > 0);
    }
}

/// Fork-then-work guest used by the clock and stats-delta tests: the
/// child COW-breaks a shared page and exits; the parent reaps it and
/// spins a little before exiting.
fn forking_program() -> BuiltProgram {
    ProgramBuilder::new("/bin/forker")
        .code(
            "_start:
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je child
                mov eax, SYS_WAITPID
                mov ebx, -1
                mov ecx, 0
                int 0x80
                mov ecx, 50
            spin:
                mov [v], ecx
                dec ecx
                jnz spin
                mov ebx, 0
                call exit
            child:
                mov dword [v], 7
                mov ebx, 0
                call exit",
        )
        .data("v: .word 1")
        .build()
        .unwrap()
}

/// Run the forking guest under a chaos-heavy plan with full tracing,
/// checking invariants (including trace order) between slices.
fn run_forker_traced() -> Kernel {
    let mut k = split_break().kernel(KernelConfig {
        aslr_stack: false,
        chaos: FaultPlan {
            seed: 5,
            flush_every: Some(101),
            evict_every: Some(17),
            preempt_every: Some(29),
            ..FaultPlan::default()
        },
        trace: mask::ALL,
        ..KernelConfig::default()
    });
    k.spawn(&forking_program().image).expect("spawn");
    let (exit, violations) = invariants::run_with_checks(&mut k, 80_000_000, 50_000);
    assert_eq!(exit, RunExit::AllExited, "forker must converge");
    assert!(violations.is_empty(), "violations: {violations:?}");
    k
}

#[test]
fn event_log_and_trace_share_one_monotonic_clock() {
    let k = run_forker_traced();
    // Kernel event log: stamps never regress (every emit site funnels
    // through `System::log`, stamped with the live cycle counter).
    let entries = k.sys.events.entries();
    assert!(entries.len() >= 2, "expected both process exits logged");
    for w in entries.windows(2) {
        assert!(
            w[0].0 <= w[1].0,
            "event log regressed: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    // Trace stream: stamps never regress and seq numbers are gap-free.
    let records = k.sys.machine.tracer.snapshot();
    assert!(records.len() > 10, "expected a busy trace");
    for w in records.windows(2) {
        assert!(w[0].cycles <= w[1].cycles, "trace regressed: {w:?}");
        assert_eq!(w[0].seq + 1, w[1].seq, "trace seq gap: {w:?}");
    }
    // The two streams agree on the clock: both fork (CowShare) and exit
    // (ProcessExit) appear in *both* streams at consistent stamps.
    let trace_exit_stamps: Vec<u64> = records
        .iter()
        .filter(|r| r.event.kind() == "process_exit")
        .map(|r| r.cycles)
        .collect();
    let log_exit_stamps: Vec<u64> = entries
        .iter()
        .filter(|(_, e)| matches!(e, sm_kernel::events::Event::ProcessExit { .. }))
        .map(|(c, _)| *c)
        .collect();
    assert_eq!(
        trace_exit_stamps, log_exit_stamps,
        "exit events must carry identical stamps in both streams"
    );
}

/// Invoke `$check!(Set { field, … })` for every counter set, fields in
/// declaration order. The lists are the pin: declaration order is the
/// snapshot wire order of the seven serialized sets and the key order of
/// every `iter`-based export, so swapping two fields must fail a test
/// rather than silently shift a format.
macro_rules! for_each_counter_set {
    ($check:ident) => {
        $check!(MachineStats {
            instructions,
            walks,
            page_faults,
            invalid_opcodes,
            debug_traps,
            divide_errors,
            syscalls,
            cr3_loads,
            invlpgs
        });
        $check!(TlbStats {
            hits,
            misses,
            cold_misses,
            capacity_misses,
            conflict_misses,
            fills,
            flushes,
            page_invalidations,
            evictions,
            chaos_evictions
        });
        $check!(DecodeCacheStats {
            hits,
            misses,
            invalidations
        });
        $check!(SuperblockStats {
            hits,
            builds,
            invalidations,
            bailouts,
            slow_steps
        });
        $check!(ChaosStats {
            steps,
            flushes,
            evictions,
            preemptions,
            window_flushes,
            window_signals,
            fs_ops,
            fs_errors,
            fs_shorts,
            snap_ops,
            snap_faults
        });
        $check!(KernelStats {
            context_switches,
            demand_pages,
            cow_breaks,
            syscalls,
            handler_signals,
            fatal_signals,
            processes_spawned,
            libraries_loaded,
            soft_tlb_fills
        });
        $check!(SplitStats {
            pages_split,
            data_reloads,
            code_reloads,
            data_reload_fallbacks,
            detections,
            pages_locked,
            cow_splits,
            lazy_materializations,
            oom_degraded
        });
        $check!(NxStats {
            pages_marked,
            detections,
            trampoline_exemptions,
            honeypot_pages
        });
        $check!(ShadowStats {
            calls_tracked,
            rets_checked,
            indirects_checked,
            frames_unwound,
            ret_mismatches,
            cfi_violations,
            trampoline_pushes
        });
    };
}

/// A value of the set whose fields, in the listed order, hold
/// `(n << 32) | n` for n = 1, 2, …: all distinct, all non-zero, and
/// nonzero in both halves of the u64.
macro_rules! distinct {
    ($set:ident { $($field:ident),+ }) => {{
        let mut n = 0u64;
        $set {
            $($field: {
                n += 1;
                (n << 32) | n
            },)+
        }
    }};
}

/// A reversed diff yields zeros, not a panic (debug) or ~2^64 garbage
/// (release).
macro_rules! assert_since_saturates {
    ($set:ident { $($field:ident),+ }) => {{
        let late = distinct!($set { $($field),+ });
        assert_eq!($set::default().since(&late), $set::default(), stringify!($set));
    }};
}

/// `iter` names pinned verbatim, the wire bytes pinned to that order, a
/// round trip that consumes exactly 8 bytes a field, truncation typed, and
/// `since` field-wise.
macro_rules! assert_counter_set {
    ($set:ident { $($field:ident),+ }) => {{
        let set = stringify!($set);
        let value = distinct!($set { $($field),+ });
        let pinned: Vec<(&str, u64)> = [$(stringify!($field)),+]
            .into_iter()
            .zip(1u64..)
            .map(|(name, n)| (name, (n << 32) | n))
            .collect();
        assert_eq!(value.iter().collect::<Vec<_>>(), pinned, "{set}: iter order");

        let mut w = Writer::new();
        value.write(&mut w);
        let bytes = w.into_bytes();
        let wire: Vec<u8> = pinned.iter().flat_map(|(_, v)| v.to_le_bytes()).collect();
        assert_eq!(bytes, wire, "{set}: wire order");
        let mut padded = bytes.clone();
        padded.push(0xAA);
        let mut r = Reader::new(&padded);
        assert_eq!($set::read(&mut r), Ok(value), "{set}: round trip");
        assert_eq!(r.remaining(), 1, "{set}: read must consume 8 x {} bytes", pinned.len());
        let short = &bytes[..bytes.len() - 1];
        assert_eq!(
            $set::read(&mut Reader::new(short)),
            Err(SnapshotError::Truncated),
            "{set}: one byte short"
        );

        let doubled = $set { $($field: 2 * value.$field,)+ };
        assert_eq!(doubled.since(&value), value, "{set}: since subtracts field-wise");
    }};
}

#[test]
fn every_counter_set_pins_its_names_wire_order_and_codec() {
    for_each_counter_set!(assert_counter_set);
}

#[test]
fn stats_deltas_saturate_and_stay_sane_across_fork_exit() {
    // Direct saturation pin over every counter set.
    for_each_counter_set!(assert_since_saturates);

    // Chaos-slice check: diff stats across slices spanning fork, COW
    // break, child exit and parent exit; every delta must be bounded by
    // the totals (a wrap-around would dwarf them).
    let mut k = split_break().kernel(KernelConfig {
        aslr_stack: false,
        chaos: FaultPlan {
            seed: 7,
            preempt_every: Some(23),
            ..FaultPlan::default()
        },
        ..KernelConfig::default()
    });
    k.spawn(&forking_program().image).expect("spawn");
    let mut prev_m = k.sys.machine.stats;
    let mut prev_k = k.sys.stats;
    loop {
        let exit = k.run(20_000);
        let cur_m = k.sys.machine.stats;
        let cur_k = k.sys.stats;
        let dm = cur_m.since(&prev_m);
        let dk = cur_k.since(&prev_k);
        assert!(
            dm.instructions <= cur_m.instructions && dm.page_faults <= cur_m.page_faults,
            "machine delta exceeds totals: {dm:?} vs {cur_m:?}"
        );
        assert!(
            dk.syscalls <= cur_k.syscalls && dk.cow_breaks <= cur_k.cow_breaks,
            "kernel delta exceeds totals: {dk:?} vs {cur_k:?}"
        );
        prev_m = cur_m;
        prev_k = cur_k;
        if exit != RunExit::CyclesExhausted {
            assert_eq!(exit, RunExit::AllExited);
            break;
        }
    }
    assert!(k.sys.stats.cow_breaks >= 1, "child must COW-break");
    assert!(k.sys.stats.processes_spawned >= 1, "fork must spawn");
}
