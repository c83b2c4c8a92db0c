//! Machine-readable benchmark summary (`BENCH_summary.json`).
//!
//! `all_experiments` times every section it runs, probes raw interpreter
//! throughput (steps/sec) with tracing off and on, and serialises
//! the lot as JSON so CI can archive per-commit performance without
//! parsing the human-readable report. The JSON is hand-rolled: the shape
//! is tiny, fixed, and all-ASCII, and the workspace deliberately carries
//! no serialisation dependency.

use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{KernelConfig, RunExit};
use sm_kernel::userlib::ProgramBuilder;
use sm_machine::DecodeCacheStats;
use sm_machine::SuperblockStats;
use sm_machine::TlbPreset;
use std::time::Instant;

/// Wall-clock of one report section.
#[derive(Debug, Clone)]
pub struct SectionTiming {
    /// Section label (matches the report heading).
    pub name: String,
    /// Elapsed wall-clock in milliseconds.
    pub wall_ms: f64,
}

/// One raw-throughput probe run.
#[derive(Debug, Clone)]
pub struct StepsProbe {
    /// Whether the trace subsystem was enabled (all layers).
    pub trace: bool,
    /// Trace events captured by the run (zero when tracing is off).
    pub trace_events: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Elapsed wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Retired instructions per wall-clock second.
    pub steps_per_sec: f64,
    /// Decode-cache counters observed by the run (the per-step path's
    /// cache; the superblock pipeline never consults it).
    pub dcache: DecodeCacheStats,
    /// Superblock-pipeline counters.
    pub sblocks: SuperblockStats,
}

/// Counters for one process of the cross-process interference run.
#[derive(Debug, Clone)]
pub struct ProcessProbe {
    /// Process id.
    pub pid: u32,
    /// `"attacker"` (fork parent) or `"victim"` (fork child).
    pub role: String,
    /// Cycles the process spent executing user instructions.
    pub user_cycles: u64,
    /// Exit status, if the process exited.
    pub exit_code: Option<i32>,
}

/// Kernel- and per-process counters from the fault-free cross-process
/// interference run under split memory.
#[derive(Debug, Clone, Default)]
pub struct InterferenceCounters {
    /// Context switches performed (CR3 actually reloaded).
    pub context_switches: u64,
    /// Copy-on-write breaks (the attacker's injection forces at least one).
    pub cow_breaks: u64,
    /// Attack detections logged.
    pub detections: u64,
    /// Per-process counters, in pid order.
    pub processes: Vec<ProcessProbe>,
}

/// Save/restore throughput of the kernel checkpoint subsystem, measured
/// on a mid-run kernel (live guest, warm TLBs, populated page tables).
#[derive(Debug, Clone)]
pub struct SnapshotProbe {
    /// Size of one serialized snapshot in bytes.
    pub snapshot_bytes: usize,
    /// Save (and restore) iterations timed.
    pub iterations: u32,
    /// Total wall-clock across all saves, milliseconds.
    pub save_ms: f64,
    /// Total wall-clock across all restores, milliseconds.
    pub restore_ms: f64,
    /// Serialization throughput, snapshot megabytes per second.
    pub save_mb_per_sec: f64,
    /// Deserialization + validation throughput, megabytes per second.
    pub restore_mb_per_sec: f64,
}

/// Headline numbers from the fleet-scale multi-tenant simulation
/// section: the `fleet_p99` / `fleet_req_per_mcycle` rows CI tracks,
/// plus the thread-count byte-identity verdict.
#[derive(Debug, Clone)]
pub struct FleetProbe {
    /// Tenants simulated.
    pub tenants: u32,
    /// Kernel cells they were spread over.
    pub cells: u32,
    /// Parallel shard groups.
    pub shards: u32,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests dropped at the horizon.
    pub dropped: u64,
    /// Fleet-wide p50 request latency, simulated cycles.
    pub p50: u64,
    /// Fleet-wide p95 request latency, simulated cycles.
    pub p95: u64,
    /// Fleet-wide p99 request latency, simulated cycles (the `fleet_p99`
    /// row).
    pub p99: u64,
    /// Completed requests per million simulated cycles (the
    /// `fleet_req_per_mcycle` row).
    pub req_per_mcycle: u64,
    /// Attacks detected / attempted over the attacker population.
    pub detected: u64,
    /// Attack attempts (completed attacker requests).
    pub attempts: u64,
    /// Degradation events (OOM kills, split degradations, spawn
    /// rejections).
    pub degradations: u64,
    /// Simulated fleet duration in cycles.
    pub duration_cycles: u64,
    /// Wall-clock of the parallel run, milliseconds.
    pub wall_ms: f64,
    /// Whether the parallel report was byte-identical to the serial
    /// reference (must be true).
    pub identical: bool,
}

/// One engine × attack matrix cell for the JSON summary (the ROP /
/// ret2libc negative-result rows CI tracks, plus the injection grid).
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Attack label (`ret2libc`, `rop-chain`, `wuftpd-glob`, ...).
    pub attack: String,
    /// Engine label (`split(break)`, `shadow(break)`, ...).
    pub engine: String,
    /// Whether the attacker got code execution.
    pub shell: bool,
    /// Detections the engine logged.
    pub detections: u64,
}

/// The whole summary.
#[derive(Debug, Clone, Default)]
pub struct BenchSummary {
    /// Per-section wall-clock, in report order.
    pub sections: Vec<SectionTiming>,
    /// End-to-end wall-clock in milliseconds.
    pub total_wall_ms: f64,
    /// Interpreter throughput probes (trace off / on).
    pub probes: Vec<StepsProbe>,
    /// Cross-process interference counters (absent if the section did not
    /// run).
    pub interference: Option<InterferenceCounters>,
    /// Snapshot save/restore throughput (absent if the probe did not run).
    pub snapshot: Option<SnapshotProbe>,
    /// Fleet-simulation headline rows (absent if the section did not
    /// run).
    pub fleet: Option<FleetProbe>,
    /// Engine × attack matrix cells (empty if the section did not run).
    pub attack_matrix: Vec<MatrixRow>,
}

impl BenchSummary {
    /// Time `f`, record it under `name`, and pass its value through.
    pub fn section<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = f();
        self.sections.push(SectionTiming {
            name: name.to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        v
    }

    /// Serialise as JSON.
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = self
            .sections
            .iter()
            .map(|s| {
                format!(
                    "    {{\"name\": \"{}\", \"wall_ms\": {:.3}}}",
                    s.name, s.wall_ms
                )
            })
            .collect();
        let probes: Vec<String> = self
            .probes
            .iter()
            .map(|p| {
                format!(
                    "    {{\"trace\": {}, \"trace_events\": {}, \
                     \"instructions\": {}, \"wall_ms\": {:.3}, \
                     \"steps_per_sec\": {:.0}{}{}}}",
                    p.trace,
                    p.trace_events,
                    p.instructions,
                    p.wall_ms,
                    p.steps_per_sec,
                    json_counters("dcache", p.dcache.iter()),
                    json_counters("superblock", p.sblocks.iter())
                )
            })
            .collect();
        let interference = match &self.interference {
            None => String::new(),
            Some(i) => {
                let procs: Vec<String> = i
                    .processes
                    .iter()
                    .map(|p| {
                        format!(
                            "      {{\"pid\": {}, \"role\": \"{}\", \"user_cycles\": {}, \"exit_code\": {}}}",
                            p.pid,
                            p.role,
                            p.user_cycles,
                            p.exit_code
                                .map_or_else(|| "null".into(), |c| c.to_string())
                        )
                    })
                    .collect();
                format!(
                    ",\n  \"interference\": {{\n    \"context_switches\": {}, \"cow_breaks\": {}, \"detections\": {},\n    \"processes\": [\n{}\n    ]\n  }}",
                    i.context_switches,
                    i.cow_breaks,
                    i.detections,
                    procs.join(",\n")
                )
            }
        };
        let snapshot = match &self.snapshot {
            None => String::new(),
            Some(p) => format!(
                ",\n  \"snapshot_probe\": {{\"snapshot_bytes\": {}, \"iterations\": {}, \
                 \"save_ms\": {:.3}, \"restore_ms\": {:.3}, \
                 \"save_mb_per_sec\": {:.1}, \"restore_mb_per_sec\": {:.1}}}",
                p.snapshot_bytes,
                p.iterations,
                p.save_ms,
                p.restore_ms,
                p.save_mb_per_sec,
                p.restore_mb_per_sec
            ),
        };
        let fleet = match &self.fleet {
            None => String::new(),
            Some(p) => format!(
                ",\n  \"fleet\": {{\"tenants\": {}, \"cells\": {}, \"shards\": {}, \
                 \"completed\": {}, \"dropped\": {}, \
                 \"fleet_p50\": {}, \"fleet_p95\": {}, \"fleet_p99\": {}, \
                 \"fleet_req_per_mcycle\": {}, \"detected\": {}, \"attempts\": {}, \
                 \"degradations\": {}, \"duration_cycles\": {}, \
                 \"wall_ms\": {:.3}, \"identical\": {}}}",
                p.tenants,
                p.cells,
                p.shards,
                p.completed,
                p.dropped,
                p.p50,
                p.p95,
                p.p99,
                p.req_per_mcycle,
                p.detected,
                p.attempts,
                p.degradations,
                p.duration_cycles,
                p.wall_ms,
                p.identical
            ),
        };
        let matrix = if self.attack_matrix.is_empty() {
            String::new()
        } else {
            let rows: Vec<String> = self
                .attack_matrix
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"attack\": \"{}\", \"engine\": \"{}\", \"shell\": {}, \"detections\": {}}}",
                        r.attack, r.engine, r.shell, r.detections
                    )
                })
                .collect();
            format!(",\n  \"attack_matrix\": [\n{}\n  ]", rows.join(",\n"))
        };
        format!(
            "{{\n  \"total_wall_ms\": {:.3},\n  \"sections\": [\n{}\n  ],\n  \"steps_probes\": [\n{}\n  ]{}{}{}{}\n}}\n",
            self.total_wall_ms,
            sections.join(",\n"),
            probes.join(",\n"),
            interference,
            snapshot,
            fleet,
            matrix
        )
    }
}

/// `, "<prefix>_<name>": <value>` for each counter, in declaration order.
fn json_counters(prefix: &str, counters: impl Iterator<Item = (&'static str, u64)>) -> String {
    counters
        .map(|(name, v)| format!(", \"{prefix}_{name}\": {v}"))
        .collect()
}

/// Measure raw interpreter throughput on a tight user-mode loop under
/// stand-alone split memory, with the trace subsystem on or off. The
/// trace-on/trace-off pair bounds the disabled-path cost of tracing: the
/// loop emits essentially no events, so any throughput gap is pure
/// mask-check overhead on the hot path.
pub fn steps_probe(trace: bool) -> StepsProbe {
    let prog = ProgramBuilder::new("/bin/probe")
        .code(
            "_start:
                mov ecx, 1000000
            again:
                dec ecx
                jnz again
                mov ebx, 0
                call exit",
        )
        .build()
        .expect("probe assembles");
    let mut k = Protection::SplitMem(ResponseMode::Break).kernel_on(
        TlbPreset::default(),
        KernelConfig {
            aslr_stack: false,
            trace: if trace { sm_trace::mask::ALL } else { 0 },
            ..KernelConfig::default()
        },
    );
    k.spawn(&prog.image).expect("probe spawns");
    let t0 = Instant::now();
    let exit = k.run(10_000_000_000);
    let dt = t0.elapsed();
    assert_eq!(exit, RunExit::AllExited, "probe must run to completion");
    let instructions = k.sys.machine.stats.instructions;
    StepsProbe {
        trace,
        trace_events: k.sys.machine.tracer.emitted(),
        instructions,
        wall_ms: dt.as_secs_f64() * 1e3,
        steps_per_sec: instructions as f64 / dt.as_secs_f64(),
        dcache: k.sys.machine.decode_cache.stats,
        sblocks: k.sys.machine.superblocks.stats,
    }
}

/// Measure checkpoint save/restore throughput on a mid-run kernel: spawn
/// the tight-loop probe guest, advance it far enough to warm TLBs and
/// populate page tables, then time `iterations` full serializations and
/// validated restores of the whole system state.
pub fn snapshot_probe(iterations: u32) -> SnapshotProbe {
    let iterations = iterations.max(1);
    let prog = ProgramBuilder::new("/bin/snapprobe")
        .code(
            "_start:
                mov ecx, 1000000
            again:
                dec ecx
                jnz again
                mov ebx, 0
                call exit",
        )
        .build()
        .expect("probe assembles");
    let split = Protection::SplitMem(ResponseMode::Break);
    let mut k = split.kernel_on(
        TlbPreset::default(),
        KernelConfig {
            aslr_stack: false,
            ..KernelConfig::default()
        },
    );
    k.spawn(&prog.image).expect("probe spawns");
    assert_eq!(
        k.run(50_000),
        RunExit::CyclesExhausted,
        "guest must be live"
    );
    let t0 = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..iterations {
        bytes = sm_kernel::snapshot::save(&k);
    }
    let save_dt = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..iterations {
        sm_kernel::snapshot::restore(&bytes, split.engine()).expect("own snapshot restores");
    }
    let restore_dt = t0.elapsed();
    let total_mb = bytes.len() as f64 * iterations as f64 / 1e6;
    SnapshotProbe {
        snapshot_bytes: bytes.len(),
        iterations,
        save_ms: save_dt.as_secs_f64() * 1e3,
        restore_ms: restore_dt.as_secs_f64() * 1e3,
        save_mb_per_sec: total_mb / save_dt.as_secs_f64().max(1e-9),
        restore_mb_per_sec: total_mb / restore_dt.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_instructions_and_cache_traffic() {
        let p = steps_probe(false);
        assert!(p.instructions > 2_000_000);
        assert_eq!(p.trace_events, 0);
        // One block re-entered per loop iteration; the decode cache only
        // serves the pipeline's slow steps.
        let (sb, dc) = (p.sblocks, p.dcache);
        assert!(sb.hits > 900_000 && sb.builds > 0, "{sb:?}");
        assert_eq!(sb.invalidations + sb.bailouts, 0, "{sb:?}");
        assert!(dc.hits + dc.misses <= sb.slow_steps, "{dc:?} vs {sb:?}");
    }

    #[test]
    fn traced_probe_captures_events_without_changing_the_run() {
        let traced = steps_probe(true);
        assert!(traced.trace, "flag must round-trip");
        assert!(
            traced.trace_events > 0,
            "spawn/exit must emit at least a few events"
        );
        let plain = steps_probe(false);
        assert_eq!(
            traced.instructions, plain.instructions,
            "tracing must not perturb the simulation"
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let mut s = BenchSummary::default();
        let v = s.section("demo", || 41 + 1);
        assert_eq!(v, 42);
        s.total_wall_ms = 1.5;
        let j = s.to_json();
        assert!(j.contains("\"total_wall_ms\": 1.500"), "{j}");
        assert!(j.contains("\"name\": \"demo\""), "{j}");
        assert!(j.ends_with("}\n"), "{j}");
        assert!(!j.contains("snapshot_probe"), "{j}");
    }

    #[test]
    fn attack_matrix_rows_serialize() {
        let s = BenchSummary {
            attack_matrix: vec![
                MatrixRow {
                    attack: "rop-chain".into(),
                    engine: "split(break)".into(),
                    shell: true,
                    detections: 0,
                },
                MatrixRow {
                    attack: "rop-chain".into(),
                    engine: "shadow(break)".into(),
                    shell: false,
                    detections: 1,
                },
            ],
            ..BenchSummary::default()
        };
        let j = s.to_json();
        assert!(
            j.contains(
                "{\"attack\": \"rop-chain\", \"engine\": \"split(break)\", \"shell\": true, \"detections\": 0}"
            ),
            "{j}"
        );
        assert!(j.contains("\"attack_matrix\": ["), "{j}");
        assert!(
            !BenchSummary::default().to_json().contains("attack_matrix"),
            "rows must be absent when the matrix did not run"
        );
    }

    #[test]
    fn fleet_row_serializes() {
        let s = BenchSummary {
            fleet: Some(FleetProbe {
                tenants: 500,
                cells: 100,
                shards: 4,
                completed: 3000,
                dropped: 0,
                p50: 90_111,
                p95: 1_015_807,
                p99: 1_277_951,
                req_per_mcycle: 1633,
                detected: 300,
                attempts: 300,
                degradations: 0,
                duration_cycles: 1_836_540,
                wall_ms: 1400.0,
                identical: true,
            }),
            ..BenchSummary::default()
        };
        let j = s.to_json();
        assert!(j.contains("\"fleet_p99\": 1277951"), "{j}");
        assert!(j.contains("\"fleet_req_per_mcycle\": 1633"), "{j}");
        assert!(j.contains("\"identical\": true"), "{j}");
        assert!(
            !BenchSummary::default().to_json().contains("\"fleet\""),
            "row must be absent when the section did not run"
        );
    }

    #[test]
    fn snapshot_probe_round_trips_and_reports() {
        let p = snapshot_probe(3);
        assert!(p.snapshot_bytes > 1000, "{p:?}");
        assert!(
            p.save_mb_per_sec > 0.0 && p.restore_mb_per_sec > 0.0,
            "{p:?}"
        );
        let s = BenchSummary {
            snapshot: Some(p),
            ..BenchSummary::default()
        };
        let j = s.to_json();
        assert!(j.contains("\"snapshot_probe\": {\"snapshot_bytes\""), "{j}");
    }
}
