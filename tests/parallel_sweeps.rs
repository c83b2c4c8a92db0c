//! The parallel chaos sweep must be a *pure speedup*: fanning combos out
//! across threads may change wall-clock, never output. Every report line —
//! scenario, plan, seed, verdict, baseline, stability, exit, violations —
//! must be byte-identical to the single-threaded reference sweep, and
//! repeated parallel sweeps must be byte-identical to each other (no
//! scheduling-order leakage into results).

use sm_attacks::wilander::{Case, InjectLocation, Technique};
use sm_bench::chaos::{self, oom_plans, perturbation_plans, Scenario};
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
    let tlb = TlbPreset::default();
    let serial = lines(&chaos::sweep_serial(
        &seeds,
        &scenarios(),
        &split,
        tlb,
        perturbation_plans,
    ));
    let parallel = lines(&chaos::sweep(
        &seeds,
        &scenarios(),
        &split,
        tlb,
        perturbation_plans,
    ));
    assert_eq!(serial, parallel);
    // The sweep must also be exhaustive: every scenario × seed × plan combo
    // appears exactly once, in scenario-major order.
    let expected = scenarios().len() * seeds.len() * perturbation_plans(1).len();
    assert_eq!(parallel.len(), expected);
}

#[test]
fn parallel_sweep_is_deterministic_across_runs() {
    let seeds = [3u64];
    let split = Protection::SplitMem(ResponseMode::Break);
    let tlb = TlbPreset::pentium3();
    let sweep = || chaos::sweep(&seeds, &scenarios(), &split, tlb, perturbation_plans);
    let first = lines(&sweep());
    let second = lines(&sweep());
    assert_eq!(first, second);
}

#[test]
fn interference_sweep_is_byte_identical_to_serial_and_across_runs() {
    // The two-guest fork/COW scenario gets the same pure-speedup
    // guarantee: whatever RAYON_NUM_THREADS is pinned to, results must
    // match the single-threaded reference byte for byte, run after run.
    let seeds = [2u64];
    let split = Protection::SplitMem(ResponseMode::Break);
    let tlb = TlbPreset::default();
    let interference = [
        Scenario::Interference { asid: false },
        Scenario::Interference { asid: true },
    ];
    let sweep = || chaos::sweep(&seeds, &interference, &split, tlb, perturbation_plans);
    let serial = lines(&chaos::sweep_serial(
        &seeds,
        &interference,
        &split,
        tlb,
        perturbation_plans,
    ));
    let parallel = lines(&sweep());
    assert_eq!(serial, parallel);
    assert_eq!(parallel, lines(&sweep()));
    assert_eq!(
        parallel.len(),
        interference.len() * seeds.len() * perturbation_plans(2).len()
    );
}

#[test]
fn parallel_oom_sweep_is_deterministic_across_runs() {
    let seeds = [1u64, 2];
    let combined = Protection::Combined(ResponseMode::Break);
    let tlb = TlbPreset::default();
    let sweep = || chaos::sweep(&seeds, &scenarios(), &combined, tlb, oom_plans);
    let first = lines(&sweep());
    let second = lines(&sweep());
    assert_eq!(first, second);
    for r in sweep() {
        assert!(
            !r.run.attack_succeeded,
            "attack succeeded under OOM: {} {} seed={}",
            r.scenario.name(),
            r.plan.name,
            r.seed
        );
    }
}
