//! System tests for the fleet-scale multi-tenant simulator
//! (`sm_bench::fleet`).
//!
//! * **Determinism** — the parallel runner's full report (fleet summary +
//!   every per-tenant line + the merged event-timeline digest) is
//!   byte-identical to the serial reference and to a re-run of itself,
//!   across seeds, profiles and mixes (proptest). CI pins the same
//!   property under a `RAYON_NUM_THREADS` matrix.
//! * **Detection** — every attacker tenant is detected and no payload
//!   executes under split memory, in both TLB models (flush-on-switch
//!   and ASID-tagged) and on both TLB geometries.
//! * **Exit-storm frame reclamation** — repeated spawn/run/reap churn of
//!   the fork-bomb worker in a frame-starved kernel returns the frame
//!   allocator and frame table to their post-boot baseline every round,
//!   with the refcount-lockstep and live-count invariants clean
//!   throughout.

use proptest::prelude::*;
use sm_bench::fleet::{self, arrivals::Profile, guests, FleetConfig, Mix};
use sm_core::invariants;
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{KernelConfig, RunExit};
use sm_machine::TlbPreset;

fn small_cfg(seed: u64, profile: Profile, mix: Mix) -> FleetConfig {
    FleetConfig {
        tenants: 30,
        tenants_per_cell: 5,
        seed,
        profile,
        requests_per_tenant: 3,
        mix,
        ..FleetConfig::default()
    }
}

/// Everything a fleet run reports, as one comparable string.
fn full_report(r: &fleet::FleetResult) -> String {
    format!(
        "{}{}digest={:016x}",
        r.render(),
        r.render_tenants(),
        r.timeline_digest
    )
}

#[test]
fn flagship_population_completes_with_full_detection() {
    // The acceptance-scale run: >= 500 tenants over 100 cells, every
    // tenant completing with a per-tenant report, 100% attacker
    // detection, zero executed payloads.
    let cfg = FleetConfig {
        tenants: 500,
        ..FleetConfig::default()
    };
    let r = fleet::run(&cfg);
    assert_eq!(r.tenants.len(), 500, "one report per tenant");
    assert_eq!(r.dropped(), 0, "no request dropped");
    assert_eq!(
        r.completed(),
        500 * cfg.requests_per_tenant as u64,
        "every request completed"
    );
    let (det, att) = r.detection();
    assert_eq!(att, 50 * cfg.requests_per_tenant as u64);
    assert_eq!(det, att, "every injection detected");
    assert_eq!(
        r.tenants.iter().map(|t| t.injected).sum::<u32>(),
        0,
        "no payload executed under split"
    );
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let cfg = small_cfg(7, Profile::Burst, Mix::Standard);
    let par = fleet::run(&cfg);
    let ser = fleet::run_serial(&cfg);
    assert_eq!(full_report(&par), full_report(&ser));
}

#[test]
fn attacker_detection_holds_in_both_tlb_models_and_geometries() {
    for asid in [false, true] {
        for tlb in [TlbPreset::default(), TlbPreset::pentium3()] {
            let cfg = FleetConfig {
                tenants: 20,
                requests_per_tenant: 3,
                asid_tlbs: asid,
                tlb,
                ..FleetConfig::default()
            };
            let r = fleet::run(&cfg);
            let (det, att) = r.detection();
            assert!(att > 0, "population must include attackers");
            assert_eq!(det, att, "asid={asid}: detection {det}/{att}");
            assert_eq!(
                r.tenants.iter().map(|t| t.injected).sum::<u32>(),
                0,
                "asid={asid}: payload executed"
            );
        }
    }
}

#[test]
fn unprotected_fleet_lets_every_payload_through() {
    // Control arm: the same attacker images actually inject when nothing
    // protects, so the detection numbers above are measuring something.
    let cfg = FleetConfig {
        tenants: 20,
        requests_per_tenant: 3,
        protection: Protection::Unprotected,
        ..FleetConfig::default()
    };
    let r = fleet::run(&cfg);
    let attackers: Vec<_> = r
        .tenants
        .iter()
        .filter(|t| t.kind == guests::TenantKind::Attacker)
        .collect();
    assert!(!attackers.is_empty());
    for t in attackers {
        assert_eq!(t.injected, t.completed, "tenant {}", t.tid);
        assert_eq!(t.detected, 0, "tenant {}", t.tid);
    }
}

#[test]
fn oom_ramp_degrades_without_invariant_violations() {
    let cfg = FleetConfig {
        tenants: 30,
        requests_per_tenant: 3,
        mix: Mix::OomRamp,
        phys_frames: 96,
        check_invariants: true,
        ..FleetConfig::default()
    };
    let r = fleet::run(&cfg);
    assert!(r.degradations() > 0, "96-frame cells must feel the memhogs");
    assert!(
        r.violations.is_empty(),
        "invariants must survive OOM pressure: {:?}",
        &r.violations[..r.violations.len().min(5)]
    );
    let (det, att) = r.detection();
    assert_eq!(det, att, "detection survives memory pressure");
}

#[test]
fn traced_fleet_keeps_stream_order() {
    let cfg = FleetConfig {
        tenants: 15,
        requests_per_tenant: 3,
        trace: true,
        ..FleetConfig::default()
    };
    let r = fleet::run(&cfg);
    assert!(
        r.trace_violations.is_empty(),
        "{:?}",
        &r.trace_violations[..r.trace_violations.len().min(5)]
    );
}

#[test]
fn shard_kill_probe_is_transparent() {
    let cfg = FleetConfig {
        tenants: 5,
        requests_per_tenant: 8,
        trace: true,
        check_invariants: true,
        ..FleetConfig::default()
    };
    let probe = fleet::shard_kill_probe(&cfg, 2);
    assert!(probe.ok(), "{probe:?}\n{}", probe.detail);
}

#[test]
fn exit_storm_reclaims_every_frame() {
    // Satellite of PR 9's frame-accounting audit: churn the fork-bomb
    // worker through a frame-starved split kernel and require the frame
    // allocator and the kernel's frame table to return to their post-boot
    // baseline after every spawn/run/reap round — any leak (pagetable
    // frame, COW copy, split code frame) shows up as drift, and the
    // refcount-lockstep (#7) and live-count (#11) invariants must stay
    // clean while the storm is in flight.
    let image = guests::build_image(guests::TenantKind::ForkBomb, 1);
    let mut k = Protection::SplitMem(ResponseMode::Break).kernel(KernelConfig {
        aslr_stack: false,
        ..KernelConfig::default()
    });
    let baseline_alloc = k.sys.machine.phys.allocator.allocated_count();
    let baseline_tracked = k.sys.frames.tracked();
    let baseline_live = k.sys.live_process_count();
    for round in 0..30 {
        let root = k.spawn(&image).expect("spawns");
        assert_eq!(k.run(60_000_000), RunExit::AllExited, "round {round}");
        let mid = invariants::check(&k);
        assert!(mid.is_empty(), "round {round}: {mid:?}");
        assert_eq!(k.reap(root), Some(0), "round {round}: root exit");
        assert_eq!(
            k.sys.machine.phys.allocator.allocated_count(),
            baseline_alloc,
            "round {round}: allocator drifted from post-boot baseline"
        );
        assert_eq!(
            k.sys.frames.tracked(),
            baseline_tracked,
            "round {round}: frame table drifted"
        );
        assert_eq!(k.sys.live_process_count(), baseline_live, "round {round}");
        assert_eq!(k.sys.live_process_count(), k.sys.recount_live());
    }
}

#[test]
fn reap_is_a_zombie_only_operation() {
    // reap() must refuse to remove live processes and return the exit
    // code exactly once for zombies.
    let image = guests::build_image(guests::TenantKind::Gzip, 0);
    let mut k = Protection::Unprotected.kernel(KernelConfig {
        aslr_stack: false,
        ..KernelConfig::default()
    });
    let pid = k.spawn(&image).expect("spawns");
    assert_eq!(k.reap(pid), None, "live process must not be reapable");
    assert_eq!(k.run(40_000_000), RunExit::AllExited);
    assert_eq!(k.reap(pid), Some(0));
    assert_eq!(k.reap(pid), None, "double reap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identity across runner modes and re-runs, over random seeds,
    /// profiles and mixes.
    #[test]
    fn fleet_reports_are_deterministic(
        seed in 0u64..10_000,
        profile_ix in 0usize..3,
        mix_ix in 0usize..3,
    ) {
        let profile = [Profile::Poisson, Profile::Burst, Profile::Ramp][profile_ix];
        let mix = [Mix::Standard, Mix::ForkStorm, Mix::OomRamp][mix_ix];
        let cfg = small_cfg(seed, profile, mix);
        let par = fleet::run(&cfg);
        let rerun = fleet::run(&cfg);
        let ser = fleet::run_serial(&cfg);
        prop_assert_eq!(full_report(&par), full_report(&rerun));
        prop_assert_eq!(full_report(&par), full_report(&ser));
    }

    /// 100% detection, zero injections, under split in both TLB models,
    /// over random seeds and profiles.
    #[test]
    fn split_detection_is_total_under_churn(
        seed in 0u64..10_000,
        profile_ix in 0usize..3,
        asid_ix in 0u32..2,
    ) {
        let asid = asid_ix == 1;
        let profile = [Profile::Poisson, Profile::Burst, Profile::Ramp][profile_ix];
        let cfg = FleetConfig {
            asid_tlbs: asid,
            ..small_cfg(seed, profile, Mix::Standard)
        };
        let r = fleet::run(&cfg);
        let (det, att) = r.detection();
        prop_assert!(att > 0);
        prop_assert_eq!(det, att);
        prop_assert_eq!(r.tenants.iter().map(|t| t.injected).sum::<u32>(), 0);
    }
}
