//! The parallel chaos sweep must be a *pure speedup*: fanning combos out
//! across threads may change wall-clock, never output. Every report line —
//! scenario, plan, seed, verdict, baseline, stability, exit, violations —
//! must be byte-identical to the single-threaded reference sweep, and
//! repeated parallel sweeps must be byte-identical to each other (no
//! scheduling-order leakage into results).

use sm_attacks::wilander::{Case, InjectLocation, Technique};
use sm_bench::chaos::{self, Scenario};
use sm_core::setup::Protection;
use sm_kernel::events::ResponseMode;
use sm_machine::TlbPreset;

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::Benign,
        Scenario::Wilander(Case {
            technique: Technique::ReturnAddress,
            location: InjectLocation::Stack,
        }),
        Scenario::Wilander(Case {
            technique: Technique::FuncPtrVariable,
            location: InjectLocation::Heap,
        }),
    ]
}

/// Render a combo result to the exact line the chaos binary reports, so
/// "byte-identical output" is checked against what users actually see.
fn lines(results: &[chaos::ComboResult]) -> Vec<String> {
    results.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let seeds = [1u64, 2];
    let split = Protection::SplitMem(ResponseMode::Break);
    let serial = lines(&chaos::sweep_serial(&seeds, &scenarios(), &split));
    let parallel = lines(&chaos::sweep(&seeds, &scenarios(), &split));
    assert_eq!(serial, parallel);
    // The sweep must also be exhaustive: every scenario × seed × plan combo
    // appears exactly once, in scenario-major order.
    let expected = scenarios().len() * seeds.len() * chaos::perturbation_plans(1).len();
    assert_eq!(parallel.len(), expected);
}

#[test]
fn parallel_sweep_is_deterministic_across_runs() {
    let seeds = [3u64];
    let split = Protection::SplitMem(ResponseMode::Break);
    let tlb = TlbPreset::pentium3();
    let first = lines(&chaos::sweep_on(&seeds, &scenarios(), &split, tlb));
    let second = lines(&chaos::sweep_on(&seeds, &scenarios(), &split, tlb));
    assert_eq!(first, second);
}

#[test]
fn interference_sweep_is_byte_identical_to_serial_and_across_runs() {
    // The two-guest fork/COW sweep gets the same pure-speedup guarantee:
    // whatever RAYON_NUM_THREADS is pinned to, results must match the
    // single-threaded reference byte for byte, run after run.
    use sm_bench::interference;
    let seeds = [2u64];
    let split = Protection::SplitMem(ResponseMode::Break);
    let render = |combos: &[interference::InterferenceCombo]| -> Vec<String> {
        combos.iter().map(|c| format!("{c:?}")).collect()
    };
    let serial = render(&interference::sweep_interference_serial(
        &seeds, &split, false,
    ));
    let parallel = render(&interference::sweep_interference(&seeds, &split, false));
    assert_eq!(serial, parallel);
    let again = render(&interference::sweep_interference(&seeds, &split, false));
    assert_eq!(parallel, again);
    assert_eq!(
        parallel.len(),
        seeds.len() * chaos::perturbation_plans(2).len()
    );
}

#[test]
fn parallel_oom_sweep_is_deterministic_across_runs() {
    let seeds = [1u64, 2];
    let combined = Protection::Combined(ResponseMode::Break);
    let tlb = TlbPreset::default();
    let first = lines(&chaos::sweep_oom_on(&seeds, &scenarios(), &combined, tlb));
    let second = lines(&chaos::sweep_oom_on(&seeds, &scenarios(), &combined, tlb));
    assert_eq!(first, second);
    for r in chaos::sweep_oom_on(&seeds, &scenarios(), &combined, tlb) {
        assert!(
            !r.run.attack_succeeded,
            "attack succeeded under OOM: {} {} seed={}",
            r.scenario, r.plan, r.seed
        );
    }
}
