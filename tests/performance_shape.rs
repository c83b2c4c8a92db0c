//! Performance-shape tests: the paper's qualitative claims must hold on
//! every run (absolute numbers are testbed-specific; shapes are not).

use rayon::prelude::*;
use sm_bench::fig6::{self, Fig6Params};
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;
use sm_workloads::nbench::{run_nbench, run_nbench_on, NbenchKernel};
use sm_workloads::tlbprobe::run_tlb_probe;
use sm_workloads::unixbench::{
    run_unixbench, run_unixbench_on, run_unixbench_seeded_on, UnixbenchTest,
};
use sm_workloads::{gzip, httpd, normalized, WorkloadResult};
use std::sync::Arc;

#[test]
fn fig6_ordering_holds() {
    // nbench (compute) ≥ apache-32k ≈ gzip ≥ unixbench index, and
    // everything lands in the paper's "reasonable" band.
    let bars = fig6::run(Fig6Params::quick());
    let get = |name: &str| {
        bars.iter()
            .find(|b| b.name.contains(name))
            .unwrap_or_else(|| panic!("missing bar {name}"))
            .normalized
    };
    let nbench = get("nbench");
    let apache = get("apache");
    let unixbench = get("unixbench");
    assert!(nbench > 0.9, "compute suite too slow: {nbench}");
    assert!(
        nbench >= apache && apache >= unixbench,
        "ordering violated: nbench {nbench:.3} apache {apache:.3} unixbench {unixbench:.3}"
    );
    for b in &bars {
        assert!(
            b.normalized > 0.4 && b.normalized <= 1.02,
            "{} out of band: {:.3}",
            b.name,
            b.normalized
        );
    }
}

#[test]
fn fig7_stress_tests_are_at_or_below_the_mid_fifties() {
    // Paper: "both are at or below 50 percent". Allow a little slack on
    // the quick configuration.
    for bar in sm_bench::fig7::run(30) {
        assert!(
            bar.normalized < 0.56,
            "{} not stressed enough: {:.3}",
            bar.name,
            bar.normalized
        );
    }
}

#[test]
fn fig8_curve_rises_monotonically_modulo_noise() {
    let points = sm_bench::fig8::run(15);
    assert_eq!(points.len(), sm_bench::fig8::PAGE_SIZES.len());
    // Endpoints: heavy hit at 1KB, mild at 64KB.
    assert!(points.first().unwrap().normalized < 0.6);
    assert!(points.last().unwrap().normalized > 0.85);
    // Monotone within a small tolerance.
    for w in points.windows(2) {
        assert!(
            w[1].normalized >= w[0].normalized - 0.05,
            "curve dipped: {}KB {:.3} -> {}KB {:.3}",
            w[0].page_size / 1024,
            w[0].normalized,
            w[1].page_size / 1024,
            w[1].normalized
        );
    }
}

#[test]
fn fig9_endpoints_match_the_papers_claim() {
    let points = sm_bench::fig9::run(30, 4);
    let at = |f: f64| {
        points
            .iter()
            .find(|p| (p.fraction - f).abs() < 1e-9)
            .unwrap()
            .normalized
    };
    // Splitting nothing costs nothing.
    assert!(at(0.0) > 0.97, "0%: {:.3}", at(0.0));
    // A small fraction recovers most of the performance...
    assert!(at(0.10) > 0.8, "10%: {:.3}", at(0.10));
    // ...while all-split matches the stand-alone worst case.
    assert!(at(1.0) < 0.6, "100%: {:.3}", at(1.0));
    // And the curve never goes the wrong way by much.
    for w in points.windows(2) {
        assert!(
            w[1].normalized <= w[0].normalized + 0.05,
            "fraction sweep rose: {:?}",
            points
        );
    }
}

/// The paper ran on set-associative Pentium III TLBs; the default preset
/// is one fully-associative set. For Figs 6–9 the choice changes nothing:
/// every sub-run of the quick figure tests above gives the same cycles,
/// work units, and machine, TLB (each 3C miss class and eviction) and
/// kernel counters on both geometries. §4.6's overhead is paid per TLB
/// flush, and these working sets are small and VPN-contiguous, so no set
/// overflows. Where a working set does collide, geometry matters: see
/// `fig7_diagnostics_show_conflict_misses_only_when_sets_exist`.
#[test]
fn figs_6_to_9_sub_runs_are_identical_on_the_pentium3_geometry() {
    type Run = Arc<dyn Fn(&Protection, TlbPreset) -> WorkloadResult + Send + Sync>;
    // Each of these runs under both of Figs 6–8's protections: Fig. 6 at
    // `Fig6Params::quick()`, Fig. 7 at 30 iterations, Fig. 8 at 15
    // requests.
    let q = Fig6Params::quick();
    let mut paired: Vec<Run> = vec![
        Arc::new(move |p, tlb| httpd::run_httpd_on(p, tlb, 32 * 1024, q.requests)),
        Arc::new(move |p, tlb| gzip::run_gzip_on(p, tlb, q.gzip_kb)),
    ];
    for nk in NbenchKernel::ALL {
        let n = fig6::nbench_iterations_for(nk, q.nbench_iters);
        paired.push(Arc::new(move |p, tlb| run_nbench_on(p, tlb, nk, n)));
    }
    for t in UnixbenchTest::ALL {
        let n = fig6::ub_iterations_for(t, q.ub_iters);
        paired.push(Arc::new(move |p, tlb| run_unixbench_on(p, tlb, t, n)));
    }
    paired.push(Arc::new(|p, tlb| {
        run_unixbench_on(p, tlb, UnixbenchTest::PipeContextSwitch, 30)
    }));
    paired.push(Arc::new(|p, tlb| httpd::run_httpd_on(p, tlb, 1024, 30)));
    for page in sm_bench::fig8::PAGE_SIZES {
        paired.push(Arc::new(move |p, tlb| {
            httpd::run_httpd_on(p, tlb, page, 15)
        }));
    }
    let mut runs: Vec<(Protection, Run)> = Vec::new();
    for p in [
        Protection::Unprotected,
        Protection::SplitMem(ResponseMode::Break),
    ] {
        runs.extend(paired.iter().map(|r| (p.clone(), r.clone())));
    }
    // Fig. 9 at 30 iterations and 4 seeds: its unprotected base run on
    // seed 1, then every fraction on `fig9::run`'s per-sample seeds.
    let ctxsw = |seed: u64| -> Run {
        Arc::new(move |p, tlb| {
            run_unixbench_seeded_on(p, tlb, UnixbenchTest::PipeContextSwitch, 30, seed)
        })
    };
    runs.push((Protection::Unprotected, ctxsw(1)));
    for f in sm_bench::fig9::FRACTIONS {
        for sample in 0..4u64 {
            runs.push((Protection::CombinedFraction(f), ctxsw(sample * 7919 + 13)));
        }
    }
    assert_eq!(runs.len(), 73);

    let results: Vec<(WorkloadResult, WorkloadResult)> = runs
        .par_iter()
        .map(|(p, run)| (run(p, TlbPreset::default()), run(p, TlbPreset::pentium3())))
        .collect();
    for (i, (flat, p3)) in results.iter().enumerate() {
        let what = format!("sub-run {i} ({} under {})", flat.name, flat.protection);
        assert_eq!(flat.cycles, p3.cycles, "{what}: cycles");
        assert_eq!(flat.units, p3.units, "{what}: units");
        assert_eq!(flat.machine, p3.machine, "{what}: machine counters");
        assert_eq!(flat.itlb, p3.itlb, "{what}: I-TLB counters");
        assert_eq!(flat.dtlb, p3.dtlb, "{what}: D-TLB counters");
        assert_eq!(flat.kernel, p3.kernel, "{what}: kernel counters");
    }
}

/// 3C accounting on Fig. 7's strided conflict probe: 8 pages at a
/// 16-page stride, the probe `tlbprobe::run_conflict_probe` builds for
/// the Pentium III geometry, run on both presets. All 8 pages share one
/// set of the 4-way Pentium III D-TLB, so it conflict-misses there; the
/// single-set default preset holds them all after their cold misses,
/// with no eviction, so the same working set runs faster.
#[test]
fn fig7_diagnostics_show_conflict_misses_only_when_sets_exist() {
    let split = Protection::SplitMem(ResponseMode::Break);
    let p3 = run_tlb_probe(&split, TlbPreset::pentium3(), 8, 16, 30);
    let flat = run_tlb_probe(&split, TlbPreset::default(), 8, 16, 30);
    assert!(
        p3.dtlb.conflict_misses > 0,
        "no D-TLB conflict misses on pentium3: {:?}",
        p3.dtlb
    );
    assert_eq!(
        flat.dtlb.misses, flat.dtlb.cold_misses,
        "non-cold misses on the fully-associative TLB: {:?}",
        flat.dtlb
    );
    assert_eq!(flat.dtlb.evictions, 0, "{:?}", flat.dtlb);
    assert!(
        p3.cycles > flat.cycles,
        "set conflicts cost nothing: {} vs {} cycles",
        p3.cycles,
        flat.cycles
    );
}

#[test]
fn context_switch_overhead_is_the_dominant_mechanism() {
    // §4.6: "The problem of context switches is, in fact, the greatest
    // cause of overhead." Compare a switch-free compute run against the
    // switch-heavy stress test at equal protection.
    let base_c = run_nbench(&Protection::Unprotected, NbenchKernel::NumericSort, 20);
    let prot_c = run_nbench(
        &Protection::SplitMem(ResponseMode::Break),
        NbenchKernel::NumericSort,
        20,
    );
    let compute = normalized(&prot_c, &base_c);
    let base_s = run_unixbench(
        &Protection::Unprotected,
        UnixbenchTest::PipeContextSwitch,
        25,
    );
    let prot_s = run_unixbench(
        &Protection::SplitMem(ResponseMode::Break),
        UnixbenchTest::PipeContextSwitch,
        25,
    );
    let stressed = normalized(&prot_s, &base_s);
    assert!(
        compute - stressed > 0.3,
        "switch-free {compute:.3} vs switch-heavy {stressed:.3}"
    );
}

#[test]
fn split_memory_roughly_doubles_resident_memory() {
    // §5.1: "the memory usage of an application is effectively doubled."
    let base = httpd::run_httpd(&Protection::Unprotected, 4096, 5);
    let split = httpd::run_httpd(&Protection::SplitMem(ResponseMode::Break), 4096, 5);
    let ratio = split.peak_frames as f64 / base.peak_frames as f64;
    assert!(
        (1.5..=2.5).contains(&ratio),
        "peak frames {} vs {} (ratio {ratio:.2})",
        split.peak_frames,
        base.peak_frames
    );
}

#[test]
fn ablation_planted_ret_is_slower_than_single_step() {
    // §4.2.4: the rejected loader "actually decreased the system's
    // efficiency".
    let ab = sm_bench::ablation::itlb_loader(25);
    assert!(
        ab.planted_ret < ab.single_step,
        "planted-ret {:.3} should be slower than single-step {:.3}",
        ab.planted_ret,
        ab.single_step
    );
}

#[test]
fn trap_cost_sensitivity_is_monotone() {
    let sens = sm_bench::ablation::trap_cost_sensitivity(25);
    for w in sens.windows(2) {
        assert!(
            w[1].normalized < w[0].normalized,
            "costlier traps must hurt more: {sens:?}"
        );
    }
}

#[test]
fn lazy_code_frames_cut_memory_without_perf_impact() {
    // §5.1: "We would anticipate this optimization to not have any
    // noticeable impact on performance."
    let rows = sm_bench::memory::run(4096, 10);
    let eager = &rows[1];
    let lazy = &rows[2];
    assert!(
        lazy.memory_ratio < eager.memory_ratio - 0.3,
        "lazy {:.2}x should be well below eager {:.2}x",
        lazy.memory_ratio,
        eager.memory_ratio
    );
    assert!(
        (lazy.normalized_perf - eager.normalized_perf).abs() < 0.03,
        "perf must be unaffected: lazy {:.3} vs eager {:.3}",
        lazy.normalized_perf,
        eager.normalized_perf
    );
}

#[test]
fn lazy_mode_still_foils_injection() {
    use sm_core::engine::{SplitMemConfig, SplitMemEngine};
    use sm_kernel::userlib::ProgramBuilder;
    use sm_kernel::Kernel;

    let prog = ProgramBuilder::new("/bin/victim")
        .code(
            "_start:
                sub esp, 64
                mov edi, esp
                mov esi, payload
                mov ecx, 12
                call memcpy
                mov eax, esp
                jmp eax",
        )
        .data("payload: .byte 0xbb, 0x2a, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80")
        .build()
        .unwrap();
    let cfg = SplitMemConfig {
        lazy_code_frames: true,
        ..SplitMemConfig::default()
    };
    let mut k = Kernel::with_engine(Box::new(SplitMemEngine::new(cfg)));
    let pid = k.spawn(&prog.image).unwrap();
    k.run(20_000_000);
    assert_ne!(k.sys.proc(pid).exit_code, Some(42));
    assert!(k.sys.events.first_detection().is_some());
    // The detection required materialising the stack page's code half.
    let engine = k.engine.as_any().downcast_ref::<SplitMemEngine>().unwrap();
    assert!(engine.stats.lazy_materializations > 0);
}
