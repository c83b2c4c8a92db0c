//! The four workloads and the op loop that drives them.
//!
//! An op is one guest run (boot → spawn → exit) in `compute`, `serve` and
//! `verified`, and one call of the serial fleet runner in `fleet` (whose
//! tenant requests are counted as its attempted operations). Every op is
//! checked; a failed check marks the op failed and the run goes on.

use crate::spans::span;
use sm_attacks::harness::classify_marker;
use sm_attacks::shell::install_shell;
use sm_attacks::wilander;
use sm_bench::fleet::{self, FleetConfig};
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_core::SplitMemEngine;
use sm_kernel::events::{Event, ResponseMode};
use sm_kernel::image::ExecImage;
use sm_kernel::kernel::{Kernel, KernelConfig, RunExit};
use sm_kernel::snapshot;
use sm_kernel::userlib::BuiltProgram;
use sm_machine::trace::mask;
use sm_machine::{MachineConfig, TlbPreset};
use sm_rng::StdRng;
use sm_workloads::nbench::{nbench_program, NbenchKernel};
use sm_workloads::unixbench::{unixbench_program, UnixbenchTest};
use sm_workloads::{gzip, httpd};
use std::collections::BTreeMap;

/// Exact per-pass quantities: every counter, every simulated cycle count.
/// Two passes over the same inputs must produce equal maps.
pub type Counters = BTreeMap<String, u64>;

/// Cycle budget for one straight (unsliced) guest run.
const MAX_CYCLES: u64 = 50_000_000_000;
/// Slice stride of the verified loop: the `fig6-sharded` stride.
const STRIDE: u64 = 2_000;
/// Ceiling on verified slices per op (a runaway guard, far above need).
const MAX_SLICES: u64 = 5_000_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interpreter-bound guest programs.
    Compute,
    /// Kernel- and engine-bound guest programs.
    Serve,
    /// Sliced runs with invariant checks, checkpoints and trace export.
    Verified,
    /// The multi-tenant fleet.
    Fleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Compute,
        Workload::Serve,
        Workload::Verified,
        Workload::Fleet,
    ];

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Workload name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::Serve => "serve",
            Workload::Verified => "verified",
            Workload::Fleet => "fleet",
        }
    }
}

/// Input sizes. `full` is what the benchmark measures; `smoke` only
/// exercises every code path quickly.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    sort_iters: u32,
    bitfield_iters: u32,
    arith_iters: u32,
    gzip_kb: u32,
    dhrystone_iters: u32,
    whetstone_iters: u32,
    serve_requests: u32,
    ub_base: u32,
    verified_requests: u32,
    checkpoint_every: u64,
    fleet_tenants: u32,
}

impl Sizes {
    /// Measured sizes.
    pub fn full() -> Sizes {
        Sizes {
            sort_iters: 6,
            bitfield_iters: 16,
            arith_iters: 60_000,
            gzip_kb: 16,
            dhrystone_iters: 2_500,
            whetstone_iters: 60_000,
            serve_requests: 12,
            ub_base: 1_000,
            verified_requests: 4,
            checkpoint_every: 64,
            fleet_tenants: 500,
        }
    }

    /// Smoke-test sizes.
    pub fn smoke() -> Sizes {
        Sizes {
            sort_iters: 1,
            bitfield_iters: 1,
            arith_iters: 200,
            gzip_kb: 1,
            dhrystone_iters: 20,
            whetstone_iters: 200,
            serve_requests: 1,
            ub_base: 40,
            verified_requests: 1,
            checkpoint_every: 8,
            fleet_tenants: 20,
        }
    }
}

/// A protection under test and the tag its counters carry.
pub struct Prot {
    /// Counter suffix: `unprot`, `split` or `stack`.
    pub tag: &'static str,
    /// The configuration.
    pub protection: Protection,
}

/// Counter suffixes of the three protections, in report order.
pub const PROT_TAGS: [&str; 3] = ["unprot", "split", "stack"];

fn prot(tag: &'static str) -> Prot {
    let protection = match tag {
        "unprot" => Protection::Unprotected,
        "split" => Protection::SplitMem(ResponseMode::Break),
        _ => Protection::ShadowCombined(ResponseMode::Break),
    };
    Prot { tag, protection }
}

/// What a program's run must show to count as correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Every process exits 0.
    Benign,
    /// An injection attempt: the payload marker must never run.
    Attack,
}

/// One guest program (one or more images spawned together) with its
/// inputs and kernel configuration.
struct Program {
    name: String,
    images: Vec<ExecImage>,
    files: Vec<(String, Vec<u8>)>,
    kconfig: KernelConfig,
    shell: bool,
    expect: Expect,
}

/// Everything a workload needs, assembled in set-up.
pub struct Plan {
    workload: Workload,
    sizes: Sizes,
    prots: Vec<Prot>,
    programs: Vec<Program>,
    fleet: Option<FleetConfig>,
}

/// The result of one pass over a workload's ops.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Exact counters and simulated results (the determinism fingerprint).
    pub counters: Counters,
}

impl PassOut {
    fn add(&mut self, key: impl Into<String>, v: u64) {
        *self.counters.entry(key.into()).or_default() += v;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Overwrite the bytes at symbol `sym` in a program's initialised data
/// (the seeded inputs the guest sees).
fn patch(prog: &mut BuiltProgram, sym: &str, bytes: &[u8]) {
    let addr = prog.sym(sym);
    let seg = prog
        .image
        .segments
        .iter_mut()
        .find(|s| s.vaddr <= addr && addr + bytes.len() as u32 <= s.vaddr + s.data.len() as u32)
        .unwrap_or_else(|| panic!("`{sym}` is not in initialised data"));
    let off = (addr - seg.vaddr) as usize;
    seg.data[off..off + bytes.len()].copy_from_slice(bytes);
}

fn random_bytes(rng: &mut StdRng, n: usize, lo: u8, hi: u8) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

fn build(f: impl FnOnce() -> BuiltProgram) -> BuiltProgram {
    span("asm.build", f)
}

impl Plan {
    /// Assemble every image and generate every input of workload `w` from
    /// `seed`. Pure: calling it twice gives identical plans.
    pub fn new(w: Workload, seed: u64, sizes: Sizes) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed);
        let kconfig = KernelConfig {
            seed,
            ..sm_workloads::runner::workload_kconfig()
        };
        let benign = |name: &str, images: Vec<ExecImage>| Program {
            name: name.to_string(),
            images,
            files: Vec::new(),
            kconfig,
            shell: false,
            expect: Expect::Benign,
        };
        let mut programs = Vec::new();
        let mut fleet_cfg = None;
        let prots: Vec<Prot> = match w {
            Workload::Compute | Workload::Serve => PROT_TAGS.iter().map(|t| prot(t)).collect(),
            Workload::Verified => vec![prot("split"), prot("stack")],
            Workload::Fleet => vec![prot("split")],
        };
        match w {
            Workload::Compute => {
                for (nk, iters) in [
                    (NbenchKernel::NumericSort, sizes.sort_iters),
                    (NbenchKernel::Bitfield, sizes.bitfield_iters),
                    (NbenchKernel::IntArithmetic, sizes.arith_iters),
                ] {
                    let mut p = build(|| nbench_program(nk, iters));
                    if nk == NbenchKernel::NumericSort {
                        let lcg_seed = rng.next_u32() | 1;
                        patch(&mut p, "seed", &lcg_seed.to_le_bytes());
                    }
                    programs.push(benign(nk.name(), vec![p.image]));
                }
                let input: Vec<u8> = (0..sizes.gzip_kb as usize * 1024)
                    .map(|i| {
                        if i % 7 == 0 {
                            b'x'
                        } else {
                            rng.gen_range(b'a'..=b'z')
                        }
                    })
                    .collect();
                let mut gz = benign("gzip", vec![build(gzip::gzip_program).image]);
                gz.files.push((gzip::INPUT_PATH.to_string(), input));
                gz.kconfig.pipe_capacity = 1024;
                programs.push(gz);
                let mut dhry =
                    build(|| unixbench_program(UnixbenchTest::Dhrystone, sizes.dhrystone_iters));
                patch(&mut dhry, "dsrc", &random_bytes(&mut rng, 30, b'A', b'Z'));
                programs.push(benign("dhrystone", vec![dhry.image]));
                let whet =
                    build(|| unixbench_program(UnixbenchTest::Whetstone, sizes.whetstone_iters));
                programs.push(benign("whetstone", vec![whet.image]));
            }
            Workload::Serve => {
                programs.push(benign(
                    "httpd-32k",
                    httpd_pair(&mut rng, sizes.serve_requests),
                ));
                let b = sizes.ub_base;
                for (t, iters, buf) in [
                    (UnixbenchTest::Syscall, b, None),
                    (UnixbenchTest::PipeThroughput, b / 4, Some(("buf", 512))),
                    (UnixbenchTest::PipeContextSwitch, (b / 40).max(2), None),
                    (UnixbenchTest::Spawn, (b / 40).max(2), None),
                    (UnixbenchTest::Execl, (b / 40).max(2), None),
                    (
                        UnixbenchTest::FsThroughput,
                        (b / 20).max(2),
                        Some(("buf", 1024)),
                    ),
                ] {
                    let mut p = build(|| unixbench_program(t, iters));
                    if let Some((sym, n)) = buf {
                        patch(&mut p, sym, &random_bytes(&mut rng, n, 0, 255));
                    }
                    let mut prog = benign(t.name(), vec![p.image]);
                    if t == UnixbenchTest::Execl {
                        let tru = build(|| {
                            sm_kernel::userlib::ProgramBuilder::new("/bin/true")
                                .code("_start: mov ebx, 0\n call exit")
                                .build()
                                .expect("/bin/true assembles")
                        });
                        prog.files
                            .push(("/bin/true".to_string(), tru.image.to_bytes()));
                    }
                    programs.push(prog);
                }
            }
            Workload::Verified => {
                let kconfig = KernelConfig {
                    trace: mask::ALL,
                    trace_capacity: 4096,
                    ..kconfig
                };
                let mut pair = benign("httpd-32k", httpd_pair(&mut rng, sizes.verified_requests));
                pair.kconfig = kconfig;
                programs.push(pair);
                for case in wilander::all_cases() {
                    let Some(p) = span("asm.build", || wilander::build_case(case)) else {
                        continue;
                    };
                    let p = p.image;
                    programs.push(Program {
                        name: p.name.trim_start_matches("/bin/").to_string(),
                        images: vec![p],
                        files: Vec::new(),
                        kconfig,
                        shell: true,
                        expect: Expect::Attack,
                    });
                }
            }
            Workload::Fleet => {
                let cfg = FleetConfig {
                    seed,
                    tenants: sizes.fleet_tenants,
                    ..FleetConfig::default()
                };
                // The fleet assembles its images and boots its cells inside
                // the run; set-up assembles and boots the same set.
                for kind in fleet::guests::TenantKind::ALL {
                    for v in 0..fleet::guests::VARIANTS {
                        span("asm.build", || fleet::guests::build_image(kind, v));
                    }
                }
                fleet_cfg = Some(cfg);
            }
        }
        Plan {
            workload: w,
            sizes,
            prots,
            programs,
            fleet: fleet_cfg,
        }
    }

    /// Cold-boot one kernel per distinct (protection, kernel config) the
    /// ops use, and serialize it: the work that fills the warm-boot cache.
    /// For `fleet`, boot the run's cells the way the fleet runner does.
    pub fn cold_boots(&self) {
        if let Some(cfg) = &self.fleet {
            let mconfig = MachineConfig {
                phys_frames: cfg.phys_frames,
                nx_enabled: cfg.protection.needs_nx(),
                tlb: cfg.tlb,
                ..MachineConfig::default()
            };
            for cell in 0..cfg.cells() {
                let kconfig = KernelConfig {
                    seed: cfg.seed.wrapping_add(cell as u64),
                    ..KernelConfig::default()
                };
                span("core.setup.boot", || {
                    Kernel::new(mconfig, kconfig, cfg.protection.engine())
                });
            }
            return;
        }
        for (p, kconfig) in self.boot_configs() {
            let k = span("core.setup.boot", || {
                p.protection.kernel_on(TlbPreset::default(), kconfig)
            });
            span("kernel.snapshot.save", || snapshot::save(&k));
        }
    }

    /// Fill the warm-boot cache every op boots from (not timed).
    pub fn warm(&self) {
        for (p, kconfig) in self.boot_configs() {
            p.protection.kernel_warm_on(TlbPreset::default(), kconfig);
        }
    }

    fn boot_configs(&self) -> Vec<(&Prot, KernelConfig)> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for p in &self.prots {
            for prog in &self.programs {
                if seen.insert(format!("{}|{:?}", p.tag, prog.kconfig)) {
                    out.push((p, prog.kconfig));
                }
            }
        }
        out
    }

    /// Ops in one pass.
    pub fn ops_per_pass(&self) -> u64 {
        match &self.fleet {
            Some(_) => 1,
            None => (self.prots.len() * self.programs.len()) as u64,
        }
    }

    /// Run every op once. `first_op` numbers the ops for span tagging.
    pub fn pass(&self, first_op: u64) -> PassOut {
        let mut out = PassOut::default();
        if let Some(cfg) = &self.fleet {
            crate::spans::set_op(first_op);
            span("bench.op", || run_fleet(cfg, &mut out));
            return out;
        }
        let mut op = first_op;
        for p in &self.prots {
            for prog in &self.programs {
                crate::spans::set_op(op);
                span("bench.op", || self.run_op(prog, p, &mut out));
                op += 1;
            }
        }
        out
    }

    fn run_op(&self, prog: &Program, p: &Prot, out: &mut PassOut) {
        out.attempted += 1;
        let what = format!("{}/{}", prog.name, p.tag);
        let mut k = span("core.setup.boot", || {
            let mut k = p
                .protection
                .kernel_warm_on(TlbPreset::default(), prog.kconfig);
            if prog.shell {
                install_shell(&mut k.sys.fs);
            }
            for (path, bytes) in &prog.files {
                k.sys.fs.install(path.clone(), bytes.clone());
            }
            k
        });
        let before = Probe::take(&k);
        let mut pids = Vec::new();
        for image in &prog.images {
            match span("kernel.spawn", || k.spawn(image)) {
                Ok(pid) => pids.push(pid),
                Err(e) => return out.fail(format!("{what}: spawn failed: {e}")),
            }
        }
        let (exit, problem) = if self.workload == Workload::Verified {
            self.run_verified(&mut k, p, out)
        } else {
            (span("kernel.run", || k.run(MAX_CYCLES)), None)
        };
        Probe::take(&k).record_since(&before, &k, p.tag, out);
        out.add(
            format!("sim.cycles.{}.{}", prog.name, p.tag),
            k.sys.machine.cycles - before.cycles,
        );
        let mut problems: Vec<String> = problem.into_iter().collect();
        match prog.expect {
            Expect::Benign => {
                if exit != RunExit::AllExited {
                    problems.push(format!("run ended {exit:?}"));
                }
                for proc in k.sys.procs.values() {
                    if proc.exit_code != Some(0) {
                        problems.push(format!("{} exited {:?}", proc.name, proc.exit_code));
                    }
                }
            }
            Expect::Attack => {
                let outcome = classify_marker(&k, pids[0], wilander::MARKER);
                out.add(format!("bench.attacks.{}", p.tag), 1);
                if k.sys.events.entries()[before.events..]
                    .iter()
                    .any(|(_, e)| matches!(e, Event::AttackDetected { .. }))
                {
                    out.add(format!("bench.detected.{}", p.tag), 1);
                }
                if outcome.succeeded() {
                    problems.push(format!("injection succeeded: {outcome:?}"));
                }
            }
        }
        if !problems.is_empty() {
            out.fail(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// The verified slice loop: run `STRIDE` cycles, check invariants and
    /// trace order, checkpoint every `checkpoint_every` slices; at exit,
    /// restore the last checkpoint, re-run it to completion and require
    /// the same final state and trace.
    fn run_verified(
        &self,
        k: &mut Kernel,
        p: &Prot,
        out: &mut PassOut,
    ) -> (RunExit, Option<String>) {
        let save = |k: &Kernel, out: &mut PassOut| {
            let bytes = span("kernel.snapshot.save", || snapshot::save(k));
            out.add("kernel.snapshot.saves", 1);
            out.add("kernel.snapshot.bytes", bytes.len() as u64);
            bytes
        };
        let mut checkpoint = save(k, out);
        let mut slice = 0u64;
        let mut violations = 0u64;
        let exit = loop {
            let exit = span("kernel.run", || k.run(STRIDE));
            slice += 1;
            let done = exit != RunExit::CyclesExhausted || slice >= MAX_SLICES;
            violations += span("core.invariants.check", || invariants::check(k)).len() as u64;
            violations += span("core.invariants.trace_check", || {
                invariants::check_trace(k, exit == RunExit::AllExited)
            })
            .len() as u64;
            out.add("core.invariants.checks", 2);
            if done {
                break exit;
            }
            if slice.is_multiple_of(self.sizes.checkpoint_every) {
                checkpoint = save(k, out);
            }
        };
        out.add("core.invariants.violations", violations);
        out.add("trace.emitted", k.sys.machine.tracer.emitted());
        out.add("trace.dropped", k.sys.machine.tracer.dropped());
        if violations > 0 {
            return (
                exit,
                Some(format!("{violations} invariant/trace violations")),
            );
        }
        let mut replay = match span("kernel.snapshot.restore", || {
            snapshot::restore(&checkpoint, p.protection.engine())
        }) {
            Ok(r) => r,
            Err(e) => return (exit, Some(format!("checkpoint restore failed: {e:?}"))),
        };
        let mut replay_slices = 0u64;
        while span("kernel.run", || replay.run(STRIDE)) == RunExit::CyclesExhausted {
            replay_slices += 1;
            if replay_slices >= MAX_SLICES {
                return (exit, Some("checkpoint replay did not finish".into()));
            }
        }
        // A restored kernel decodes cold, which moves only the I-TLB hit
        // counter; that counter is left out of the state comparison.
        k.sys.machine.itlb.stats.hits = 0;
        replay.sys.machine.itlb.stats.hits = 0;
        if save(k, out) != save(&replay, out) {
            return (exit, Some("checkpoint replay final state differs".into()));
        }
        let full = span("trace.export", || k.sys.machine.tracer.to_jsonl());
        let tail = span("trace.export", || replay.sys.machine.tracer.to_jsonl());
        if tail.is_empty() || !full.ends_with(&tail) {
            return (exit, Some("checkpoint replay trace differs".into()));
        }
        (exit, None)
    }
}

/// The httpd server/client pair serving a seeded page of just under 32 KiB.
fn httpd_pair(rng: &mut StdRng, requests: u32) -> Vec<ExecImage> {
    let page = 32 * 1024 - 64 * rng.gen_range(0..8u32);
    let mut server = build(|| httpd::server_program(page, requests));
    patch(&mut server, "pagebuf", &random_bytes(rng, 1024, b' ', b'~'));
    let client = build(|| httpd::client_program(page, requests));
    vec![server.image, client.image]
}

fn run_fleet(cfg: &FleetConfig, out: &mut PassOut) {
    let r = span("bench.fleet.run", || fleet::run_serial(cfg));
    let requests = cfg.tenants as u64 * cfg.requests_per_tenant as u64;
    out.attempted += requests;
    let (detected, attempts) = r.detection();
    let spawn_failures: u64 = r.tenants.iter().map(|t| t.spawn_failures as u64).sum();
    let injected: u64 = r.tenants.iter().map(|t| t.injected as u64).sum();
    let latency = r.merged_latency();
    out.add("bench.fleet.completed", r.completed());
    out.add("bench.fleet.dropped", r.dropped());
    out.add("bench.fleet.degradations", r.degradations());
    out.add("bench.fleet.duration_cycles", r.duration_cycles);
    out.add("bench.fleet.timeline_digest", r.timeline_digest);
    out.add("bench.fleet.p50_cycles", latency.percentile(50));
    out.add("bench.fleet.p99_cycles", latency.percentile(99));
    out.add("core.detections.split", detected);
    out.add("bench.detected.split", detected);
    out.add("bench.attacks.split", attempts);
    // The fleet's simulated work: the sum of its request latencies (cells
    // run concurrently, so their end times do not add up).
    out.add("sim.cycles.fleet.split", latency.sum());
    for (n, what) in [
        (r.dropped(), "requests dropped"),
        (spawn_failures, "spawns failed"),
        (injected, "injections succeeded"),
    ] {
        if n > 0 {
            out.failed += n;
            out.failures.push(format!("fleet: {n} {what}"));
        }
    }
    if r.completed() + r.dropped() + spawn_failures != requests {
        out.fail(format!(
            "fleet: {} completed + {} dropped + {spawn_failures} refused != {requests} requests",
            r.completed(),
            r.dropped()
        ));
    }
}

/// Counter values around one op, read only through engine-agnostic
/// surfaces (machine, TLB, decode-cache, superblock and kernel stats, the
/// event log) and, for split memory, the split engine's own stats.
struct Probe {
    cycles: u64,
    m: sm_machine::stats::MachineStats,
    itlb: sm_machine::tlb::TlbStats,
    dtlb: sm_machine::tlb::TlbStats,
    dc: sm_machine::decode_cache::DecodeCacheStats,
    sb: sm_machine::superblock::SuperblockStats,
    ks: sm_kernel::stats::KernelStats,
    events: usize,
    split: Option<sm_core::SplitStats>,
}

impl Probe {
    fn take(k: &Kernel) -> Probe {
        let m = &k.sys.machine;
        Probe {
            cycles: m.cycles,
            m: m.stats,
            itlb: m.itlb.stats,
            dtlb: m.dtlb.stats,
            dc: m.decode_cache.stats,
            sb: m.superblocks.stats,
            ks: k.sys.stats,
            events: k.sys.events.len(),
            split: k
                .engine
                .as_any()
                .downcast_ref::<SplitMemEngine>()
                .map(|e| e.stats),
        }
    }

    /// Add the deltas since `before` to `out`, per protection `tag`. Split
    /// engine counters exist only for split memory and carry no tag.
    fn record_since(&self, before: &Probe, k: &Kernel, tag: &str, out: &mut PassOut) {
        let m = self.m.since(&before.m);
        let ks = self.ks.since(&before.ks);
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let detections = k.sys.events.entries()[before.events..]
            .iter()
            .filter(|(_, e)| matches!(e, Event::AttackDetected { .. }))
            .count() as u64;
        for (name, v) in [
            ("machine.instructions", m.instructions),
            ("machine.walks", m.walks),
            ("machine.page_faults", m.page_faults),
            ("machine.debug_traps", m.debug_traps),
            ("machine.cr3_loads", m.cr3_loads),
            (
                "machine.itlb.misses",
                d(self.itlb.misses, before.itlb.misses),
            ),
            (
                "machine.dtlb.misses",
                d(self.dtlb.misses, before.dtlb.misses),
            ),
            ("machine.dcache.hits", d(self.dc.hits, before.dc.hits)),
            (
                "machine.dcache.lookups",
                d(
                    self.dc.hits + self.dc.misses,
                    before.dc.hits + before.dc.misses,
                ),
            ),
            (
                "machine.dcache.invalidations",
                d(self.dc.invalidations, before.dc.invalidations),
            ),
            ("machine.superblock.hits", d(self.sb.hits, before.sb.hits)),
            (
                "machine.superblock.builds",
                d(self.sb.builds, before.sb.builds),
            ),
            (
                "machine.superblock.bailouts",
                d(self.sb.bailouts, before.sb.bailouts),
            ),
            (
                "machine.superblock.slow_steps",
                d(self.sb.slow_steps, before.sb.slow_steps),
            ),
            ("kernel.syscalls", ks.syscalls),
            ("kernel.context_switches", ks.context_switches),
            ("kernel.cow_breaks", ks.cow_breaks),
            ("kernel.demand_pages", ks.demand_pages),
            ("kernel.processes_spawned", ks.processes_spawned),
            ("core.detections", detections),
        ] {
            out.add(format!("{name}.{tag}"), v);
        }
        if let (Some(now), Some(was)) = (self.split, before.split) {
            let costs = &k.sys.machine.config.costs;
            let code = d(now.code_reloads, was.code_reloads);
            let data = d(now.data_reloads, was.data_reloads);
            out.add("core.split.code_reloads", code);
            out.add("core.split.data_reloads", data);
            out.add(
                "core.split.reload_cycles",
                code * costs.code_reload_total() + data * costs.data_reload_total(),
            );
        }
    }
}
