//! Sharded segment-parallel execution of one long deterministic run.
//!
//! A verified run pays two costs per slice: raw execution, and the
//! between-slice invariant sweep ([`sm_core::invariants::check`] walks
//! every PTE, TLB set and decode-cache frame; `check_trace` reads the
//! ordering verdict the tracer folds as it records). The execution half
//! is inherently serial, but
//! PR 6 landed everything needed to parallelize the *verification* half:
//! versioned full-state snapshots and a resumable tracer with gap-free
//! seq numbers. This module is the segment scheduler that exploits it:
//!
//! 1. **Pre-pass** — run the guest *unchecked*
//!    ([`sm_core::invariants::run_slices_hook`] reproduces the checked
//!    loop's slice geometry exactly) twice: once to count slices, once to
//!    serialize snapshots at exactly the `< shards` boundaries that cut
//!    the run into near-equal segments. Unchecked execution is cheap
//!    next to both per-slice checking and snapshot serialization, so two
//!    passes with minimal saves beat one pass saving on a cadence.
//! 2. **Segments** — rayon re-executes each checkpoint interval from its
//!    restored snapshot *with* full per-slice checking, stopping after
//!    its interval's worth of slices via
//!    [`sm_core::invariants::run_with_checks_until`]. Per-slice cycle
//!    budgets are clipped against the run's **global** deadline, so every
//!    segment's slice boundaries land on exactly the serial run's.
//! 3. **Zip** — the per-segment outputs are spliced back into one stream
//!    and cross-checked four ways: each non-final segment's end state
//!    must hash equal to its successor's snapshot (byte boundary proof);
//!    the trace windows must tile the final ring gap- and
//!    duplicate-free ([`sm_trace::splice`]); the event-log deltas
//!    concatenated onto the restored prefix must equal the last segment's
//!    full log; and the stats deltas ([`MachineStats::since`] /
//!    [`KernelStats::since`]) absorbed onto the first segment's baseline
//!    must equal the last segment's absolute counters.
//!
//! Determinism argument: the decode cache is disabled for both modes
//! (warmth is the one state component snapshots do not carry), snapshots
//! are exact for everything else, and the checks are read-only — so a
//! segment restored at boundary *b* is byte-identical to the serial run
//! at boundary *b*, and re-executes byte-identically from there. The
//! property tests pin shards-on ≡ shards-off (verdict, exit, violations,
//! trace JSONL, event log, stats, cycles) across seeds, segment counts
//! and `RAYON_NUM_THREADS`.

use rayon::prelude::*;
use sm_attacks::harness::kernel_with_on;
use sm_core::invariants::{self, Violation};
use sm_core::setup::Protection;
use sm_kernel::events::Event;
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::process::Pid;
use sm_kernel::snapshot as ksnap;
use sm_kernel::stats::KernelStats;
use sm_machine::sha256::sha256;
use sm_machine::stats::MachineStats;
use sm_machine::trace::TraceRecord;
use sm_machine::TlbPreset;
use sm_workloads::httpd::{client_program, server_program};
use sm_workloads::runner::workload_kconfig;
use std::time::Instant;

use crate::chaos::{classify_run, scenario_image, Scenario, RUN_MAX_CYCLES, RUN_STRIDE};

/// Everything that defines one shardable run. Both [`run_serial`] and
/// [`run_sharded`] consume the same spec, so the equality property is a
/// comparison between two calls on one value.
pub struct ShardSpec<'a> {
    /// Guest images, spawned in order before the run starts. The verdict
    /// is classified against the first image's pid.
    pub images: Vec<ExecImage>,
    /// Attack marker for verdict classification (chaos scenarios).
    pub marker: Option<u8>,
    /// Protection configuration (also rebuilds the engine per segment).
    pub protection: &'a Protection,
    /// TLB geometry.
    pub tlb: TlbPreset,
    /// Kernel configuration — chaos plan, trace mask/capacity/filter, …
    pub kconfig: KernelConfig,
    /// Install `/bin/sh` before spawning (the attack-harness boot).
    pub install_shell: bool,
    /// Cycle budget for the whole run.
    pub max_cycles: u64,
    /// Cycles per checked slice.
    pub stride: u64,
}

impl<'a> ShardSpec<'a> {
    /// Spec for a chaos scenario, mirroring the chaos module's runner
    /// (attack-harness boot, fault plan, flight recorder).
    pub fn chaos(
        scenario: Scenario,
        protection: &'a Protection,
        tlb: TlbPreset,
        plan: sm_machine::chaos::FaultPlan,
        trace_mask: u32,
        trace_capacity: usize,
    ) -> ShardSpec<'a> {
        let (image, marker) = scenario_image(scenario);
        ShardSpec {
            images: vec![image],
            marker,
            protection,
            tlb,
            kconfig: KernelConfig {
                aslr_stack: false,
                chaos: plan,
                trace: trace_mask,
                trace_capacity,
                ..KernelConfig::default()
            },
            install_shell: true,
            max_cycles: RUN_MAX_CYCLES,
            stride: RUN_STRIDE,
        }
    }

    /// Spec for the fig6 Apache workload (server + client, 32 KB pages),
    /// the long-run shape the `fig6-sharded` bench row measures.
    pub fn fig6(
        protection: &'a Protection,
        tlb: TlbPreset,
        requests: u32,
        stride: u64,
    ) -> ShardSpec<'a> {
        let page_size = 32 * 1024;
        ShardSpec {
            images: vec![
                server_program(page_size, requests).image,
                client_program(page_size, requests).image,
            ],
            marker: None,
            protection,
            tlb,
            kconfig: KernelConfig {
                trace: sm_machine::trace::mask::ALL,
                trace_capacity: 4096,
                ..workload_kconfig()
            },
            install_shell: false,
            max_cycles: 20_000_000_000,
            stride,
        }
    }
}

/// The complete observable output of a run — everything the sharded mode
/// must reproduce byte-identically.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Verdict label ([`crate::chaos::ChaosRun`]-compatible).
    pub verdict: String,
    /// Attacker got execution.
    pub attack_succeeded: bool,
    /// How the run ended.
    pub exit: RunExit,
    /// Invariant violations at the final boundary.
    pub violations: Vec<Violation>,
    /// Final-ring trace records as JSONL.
    pub trace_jsonl: String,
    /// Total trace events emitted.
    pub emitted: u64,
    /// The full kernel event log.
    pub events: Vec<(u64, Event)>,
    /// End-of-run machine counters.
    pub machine_stats: MachineStats,
    /// End-of-run kernel counters.
    pub kernel_stats: KernelStats,
    /// Machine cycle counter at the end.
    pub cycles: u64,
    /// Segments executed (1 for a serial run).
    pub segments: usize,
    /// Every zip cross-check (boundary hashes, trace splice, event and
    /// stats reconstruction) passed. Always `true` for a serial run.
    pub zip_ok: bool,
    /// Human-readable descriptions of any failed zip cross-checks.
    pub zip_notes: Vec<String>,
    /// Per-segment final-ring JSONL, for divergence artifacts (empty for
    /// a serial run).
    pub per_segment_jsonl: Vec<String>,
}

/// Compare every output field two runs must agree on; one line per
/// mismatch, empty when byte-identical. The equality tests assert on this
/// so a failure names the diverging stream instead of dumping two runs.
pub fn compare_runs(serial: &ShardedRun, sharded: &ShardedRun) -> Vec<String> {
    let mut notes = Vec::new();
    let mut chk = |what: &str, same: bool| {
        if !same {
            notes.push(format!("{what} diverged"));
        }
    };
    chk(
        "verdict",
        serial.verdict == sharded.verdict && serial.attack_succeeded == sharded.attack_succeeded,
    );
    chk("exit", serial.exit == sharded.exit);
    chk("violations", serial.violations == sharded.violations);
    chk("trace jsonl", serial.trace_jsonl == sharded.trace_jsonl);
    chk("emitted count", serial.emitted == sharded.emitted);
    chk("event log", serial.events == sharded.events);
    chk(
        "machine stats",
        serial.machine_stats == sharded.machine_stats,
    );
    chk("kernel stats", serial.kernel_stats == sharded.kernel_stats);
    chk("cycle counter", serial.cycles == sharded.cycles);
    if !sharded.zip_ok {
        notes.push("zip cross-checks failed".into());
        notes.extend(sharded.zip_notes.iter().cloned());
    }
    notes
}

/// Boot a kernel for the spec. Segments restore with cold code caches,
/// which is invisible: cache warmth shows in no modelled counter.
fn boot(spec: &ShardSpec) -> Kernel {
    if spec.install_shell {
        kernel_with_on(spec.protection, spec.tlb, spec.kconfig)
    } else {
        spec.protection.kernel_on(spec.tlb, spec.kconfig)
    }
}

/// Spawn every image, returning the first pid (verdict target), or
/// `None` if the first spawn refused cleanly under an OOM plan.
fn spawn_all(k: &mut Kernel, images: &[ExecImage]) -> Option<Pid> {
    let mut first = None;
    for image in images {
        match k.spawn(image) {
            Ok(pid) => {
                if first.is_none() {
                    first = Some(pid);
                }
            }
            Err(sm_kernel::kernel::SpawnError::OutOfMemory) => return None,
            Err(e) => panic!("spawn failed: {e:?}"),
        }
    }
    first
}

fn spawn_oom_run(k: &Kernel) -> ShardedRun {
    ShardedRun {
        verdict: "spawn-oom".into(),
        attack_succeeded: false,
        exit: RunExit::AllExited,
        violations: invariants::check(k),
        trace_jsonl: k.sys.machine.tracer.to_jsonl(),
        emitted: k.sys.machine.tracer.emitted(),
        events: k.sys.events.entries().to_vec(),
        machine_stats: k.sys.machine.stats,
        kernel_stats: k.sys.stats,
        cycles: k.sys.machine.cycles,
        segments: 0,
        zip_ok: true,
        zip_notes: Vec::new(),
        per_segment_jsonl: Vec::new(),
    }
}

/// The shards-off reference: one kernel, one checked run, outputs
/// collected in the same shape the sharded mode produces.
pub fn run_serial(spec: &ShardSpec) -> ShardedRun {
    let mut k = boot(spec);
    let Some(pid) = spawn_all(&mut k, &spec.images) else {
        return spawn_oom_run(&k);
    };
    let (exit, violations) = invariants::run_with_checks(&mut k, spec.max_cycles, spec.stride);
    let (verdict, attack_succeeded) = classify_run(&k, pid, spec.marker);
    ShardedRun {
        verdict,
        attack_succeeded,
        exit,
        violations,
        trace_jsonl: k.sys.machine.tracer.to_jsonl(),
        emitted: k.sys.machine.tracer.emitted(),
        events: k.sys.events.entries().to_vec(),
        machine_stats: k.sys.machine.stats,
        kernel_stats: k.sys.stats,
        cycles: k.sys.machine.cycles,
        segments: 1,
        zip_ok: true,
        zip_notes: Vec::new(),
        per_segment_jsonl: Vec::new(),
    }
}

/// What one re-executed segment reports back to the zipper.
struct SegmentOut {
    start_seq: u64,
    end_seq: u64,
    records: Vec<TraceRecord>,
    events: Vec<(u64, Event)>,
    events_prefix_len: usize,
    m_start: MachineStats,
    k_start: KernelStats,
    m_delta: MachineStats,
    k_delta: KernelStats,
    m_abs: MachineStats,
    k_abs: KernelStats,
    cycles: u64,
    exit: RunExit,
    violations: Vec<Violation>,
    /// Ran its full slice interval and stopped at the boundary (so a
    /// successor segment continues it); `false` means the run *ended*
    /// here — guest exit, deadline, or a violating boundary.
    stopped_by_hook: bool,
    /// sha-256 of the end-state snapshot, for the boundary proof.
    end_sha: [u8; 32],
    verdict: String,
    attack_succeeded: bool,
    jsonl: String,
}

fn run_segment(
    bytes: &[u8],
    spec: &ShardSpec,
    deadline: u64,
    slices: Option<u64>,
    pid: Pid,
) -> SegmentOut {
    let mut k = ksnap::restore(bytes, spec.protection.engine())
        .expect("pre-pass snapshot restores in-process");
    let start_seq = k.sys.machine.tracer.emitted();
    let m_start = k.sys.machine.stats;
    let k_start = k.sys.stats;
    let events_prefix_len = k.sys.events.entries().len();
    let budget = deadline.saturating_sub(k.sys.machine.cycles);
    let mut done_slices = 0u64;
    let (exit, violations) = match slices {
        Some(n) => invariants::run_with_checks_until(&mut k, budget, spec.stride, |_, _| {
            done_slices += 1;
            done_slices < n
        }),
        None => invariants::run_with_checks(&mut k, budget, spec.stride),
    };
    let stopped_by_hook = slices.is_some_and(|n| done_slices == n)
        && violations.is_empty()
        && exit == RunExit::CyclesExhausted;
    let end_sha = if stopped_by_hook {
        sha256(&ksnap::save(&k))
    } else {
        [0; 32]
    };
    let (verdict, attack_succeeded) = classify_run(&k, pid, spec.marker);
    let m_abs = k.sys.machine.stats;
    let k_abs = k.sys.stats;
    SegmentOut {
        start_seq,
        end_seq: k.sys.machine.tracer.emitted(),
        records: k.sys.machine.tracer.snapshot(),
        events: k.sys.events.entries().to_vec(),
        events_prefix_len,
        m_start,
        k_start,
        m_delta: m_abs.since(&m_start),
        k_delta: k_abs.since(&k_start),
        m_abs,
        k_abs,
        cycles: k.sys.machine.cycles,
        exit,
        violations,
        stopped_by_hook,
        end_sha,
        verdict,
        attack_succeeded,
        jsonl: k.sys.machine.tracer.to_jsonl(),
    }
}

/// The segment scheduler: pre-pass, parallel segments, zip.
pub fn run_sharded(spec: &ShardSpec, shards: usize) -> ShardedRun {
    let shards = shards.max(1);
    let stride = spec.stride.max(1);

    // First pre-pass: one sequential *unchecked* run that only counts
    // slice boundaries. Snapshot serialization is far more expensive
    // than raw execution at fine strides, so learning the run length
    // first and re-running — paying execution twice but serializing only
    // the < `shards` boundaries actually used — beats saving
    // speculatively on a cadence. Determinism makes the second pass
    // byte-identical to the first.
    let mut probe = boot(spec);
    let Some(pid) = spawn_all(&mut probe, &spec.images) else {
        return spawn_oom_run(&probe);
    };
    let mut boundaries_total = 0u64;
    invariants::run_slices_hook(&mut probe, spec.max_cycles, stride, |_, _| {
        boundaries_total += 1;
    });
    drop(probe);

    // Second pre-pass: save exactly the boundaries that cut the run into
    // `shards` near-equal segments (fewer when the run is shorter than
    // the segment count).
    let targets: std::collections::BTreeSet<u64> = (1..shards as u64)
        .map(|i| i * boundaries_total / shards as u64)
        .filter(|&b| b > 0)
        .collect();
    let mut k = boot(spec);
    let Some(pid2) = spawn_all(&mut k, &spec.images) else {
        return spawn_oom_run(&k);
    };
    debug_assert_eq!(pid, pid2, "boot is deterministic");
    let deadline = k.sys.machine.cycles.saturating_add(spec.max_cycles);
    let trace_cap = k.sys.machine.tracer.capacity() as u64;

    // Checkpoint 0 is the post-spawn state (boundary 0: zero slices
    // done); its ring contents are the trace prefix segment 0's restored
    // (empty-ring) tracer cannot re-emit.
    let mut kept: Vec<Vec<u8>> = vec![ksnap::save(&k)];
    let mut boundaries: Vec<u64> = vec![0];
    let prefix_records = k.sys.machine.tracer.snapshot();
    invariants::run_slices_hook(&mut k, spec.max_cycles, stride, |k, slice| {
        let boundary = slice + 1;
        if targets.contains(&boundary) {
            kept.push(ksnap::save(k));
            boundaries.push(boundary);
        }
    });
    drop(k);

    // Segment i re-executes [boundaries[i], boundaries[i+1]) checked;
    // the last segment runs to wherever the run actually ends.
    let work: Vec<(usize, Option<u64>)> = (0..kept.len())
        .map(|i| (i, boundaries.get(i + 1).map(|b| b - boundaries[i])))
        .collect();
    let results: Vec<SegmentOut> = work
        .par_iter()
        .map(|&(i, slices)| run_segment(&kept[i], spec, deadline, slices, pid))
        .collect();

    // A segment that did not stop at its boundary ended the run (guest
    // exit, deadline, or a violating boundary the unchecked pre-pass ran
    // past); everything after it re-executed state the serial run never
    // reaches and is discarded.
    let mut used: Vec<&SegmentOut> = Vec::new();
    for r in &results {
        used.push(r);
        if !r.stopped_by_hook {
            break;
        }
    }
    let last = *used.last().expect("at least one segment");
    let mut zip_notes = Vec::new();

    // Boundary proof: each continuing segment's end state must be the
    // snapshot its successor restored, byte for byte.
    for (i, r) in used.iter().enumerate() {
        if r.stopped_by_hook {
            if let Some(next) = kept.get(i + 1) {
                if r.end_sha != sha256(next) {
                    zip_notes.push(format!(
                        "segment {i} end state does not hash to segment {} snapshot",
                        i + 1
                    ));
                }
            }
        }
    }

    // Seq tiling: every segment's tracer must resume exactly where its
    // predecessor stopped (restore_meta carried the right next_seq).
    for pair in used.windows(2) {
        if pair[1].start_seq != pair[0].end_seq {
            zip_notes.push(format!(
                "trace seq tear at a segment boundary: {} resumed after {}",
                pair[1].start_seq, pair[0].end_seq
            ));
        }
    }

    // Stats zip: baseline + Σ deltas must reconstruct the absolute end
    // counters the last segment reports.
    let mut m_zip = used[0].m_start;
    let mut k_zip = used[0].k_start;
    for r in &used {
        m_zip.absorb(&r.m_delta);
        k_zip.absorb(&r.k_delta);
    }
    if m_zip != last.m_abs {
        zip_notes.push("machine stats deltas do not sum to the end counters".into());
    }
    if k_zip != last.k_abs {
        zip_notes.push("kernel stats deltas do not sum to the end counters".into());
    }

    // Event-log zip: the restored prefix plus every segment's delta must
    // equal the last segment's full log.
    let mut ev_zip: Vec<(u64, Event)> = used[0].events[..used[0].events_prefix_len].to_vec();
    for r in &used {
        ev_zip.extend_from_slice(&r.events[r.events_prefix_len..]);
    }
    if ev_zip != last.events {
        zip_notes.push("event-log deltas do not splice to the final log".into());
    }

    // Trace zip: reconstruct the final ring — the last min(cap, total)
    // seqs — from the prefix ring plus the per-segment rings. Each
    // segment retains at least the suffix the window needs (its ring
    // holds its last min(cap, emitted) records, and the window start is
    // ≥ every non-final segment's own retention horizon), so the
    // concatenation tiles the window exactly; `splice` proves it gap-
    // and duplicate-free.
    let total = last.end_seq;
    let window_start = total.saturating_sub(trace_cap.min(total));
    let windowed = |records: &[TraceRecord]| -> Vec<TraceRecord> {
        records
            .iter()
            .filter(|r| r.seq >= window_start)
            .copied()
            .collect()
    };
    let mut streams: Vec<Vec<TraceRecord>> = vec![windowed(&prefix_records)];
    streams.extend(used.iter().map(|r| windowed(&r.records)));
    let trace_jsonl = match sm_machine::trace::splice(&streams) {
        Ok(recs) => {
            let complete = recs.len() as u64 == total - window_start
                && recs
                    .first()
                    .map_or(total == window_start, |r| r.seq == window_start);
            if !complete {
                zip_notes.push(format!(
                    "spliced trace window incomplete: {} records for seqs [{window_start}, {total})",
                    recs.len()
                ));
            }
            let mut out = String::new();
            for r in &recs {
                out.push_str(&r.to_json());
                out.push('\n');
            }
            out
        }
        Err(e) => {
            zip_notes.push(format!("trace splice failed: {e}"));
            String::new()
        }
    };

    ShardedRun {
        verdict: last.verdict.clone(),
        attack_succeeded: last.attack_succeeded,
        exit: last.exit,
        violations: last.violations.clone(),
        trace_jsonl,
        emitted: total,
        events: last.events.clone(),
        machine_stats: last.m_abs,
        kernel_stats: last.k_abs,
        cycles: last.cycles,
        segments: used.len(),
        zip_ok: zip_notes.is_empty(),
        zip_notes,
        per_segment_jsonl: used.iter().map(|r| r.jsonl.clone()).collect(),
    }
}

/// Convenience wrappers for the chaos CLI and the equality tests.
pub fn run_scenario_sharded_on(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
    plan: sm_machine::chaos::FaultPlan,
    trace_mask: u32,
    trace_capacity: usize,
    shards: usize,
) -> ShardedRun {
    run_sharded(
        &ShardSpec::chaos(scenario, protection, tlb, plan, trace_mask, trace_capacity),
        shards,
    )
}

/// The shards-off counterpart of [`run_scenario_sharded_on`].
pub fn run_scenario_serial_on(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
    plan: sm_machine::chaos::FaultPlan,
    trace_mask: u32,
    trace_capacity: usize,
) -> ShardedRun {
    run_serial(&ShardSpec::chaos(
        scenario,
        protection,
        tlb,
        plan,
        trace_mask,
        trace_capacity,
    ))
}

/// Timing comparison for the `fig6-sharded` bench row.
#[derive(Debug, Clone)]
pub struct ShardedProbe {
    /// Serial verified run, wall milliseconds.
    pub serial_ms: f64,
    /// Sharded verified run (pre-pass + parallel segments + zip), wall
    /// milliseconds.
    pub sharded_ms: f64,
    /// `serial_ms / sharded_ms`.
    pub speedup: f64,
    /// Segments the sharded run executed.
    pub segments: usize,
    /// Rayon worker threads available to the segment phase.
    pub threads: usize,
    /// The two runs produced byte-identical output and every zip
    /// cross-check passed.
    pub identical: bool,
}

/// Canonical request count for the `fig6-sharded` bench row: long enough
/// that the segment phase dominates the pre-pass, short enough for CI.
pub const FIG6_PROBE_REQUESTS: u32 = 40;

/// Canonical slice stride for the `fig6-sharded` bench row. Finer than
/// the chaos sweep default so the per-slice invariant sweep — the half
/// the segment phase parallelizes — dominates raw execution.
pub const FIG6_PROBE_STRIDE: u64 = 2_000;

/// Run the fig6 Apache workload serial-verified and sharded-verified,
/// timing both and checking byte-identity. `requests`/`stride` trade
/// total run length against per-slice verification weight; the bench row
/// uses a finer stride than the chaos default so verification (the
/// parallelizable half) dominates.
pub fn fig6_sharded_probe(
    protection: &Protection,
    tlb: TlbPreset,
    requests: u32,
    stride: u64,
    shards: usize,
) -> ShardedProbe {
    let spec = ShardSpec::fig6(protection, tlb, requests, stride);
    let t0 = Instant::now();
    let serial = run_serial(&spec);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let sharded = run_sharded(&spec, shards);
    let sharded_ms = t1.elapsed().as_secs_f64() * 1e3;
    ShardedProbe {
        serial_ms,
        sharded_ms,
        speedup: serial_ms / sharded_ms.max(1e-9),
        segments: sharded.segments,
        threads: rayon::current_num_threads(),
        identical: compare_runs(&serial, &sharded).is_empty(),
    }
}
