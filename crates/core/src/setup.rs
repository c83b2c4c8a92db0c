//! Convenience constructors: protection configurations → engines/kernels.
//!
//! Both the attack corpus and the performance workloads need to run the
//! same guest under every protection configuration the paper evaluates;
//! this module is the single place that maps a [`Protection`] to a machine
//! config (execute-disable bit on or off) and an engine.

use crate::engine::{SplitMemConfig, SplitMemEngine};
use crate::nx::NxEngine;
use crate::shadow::ShadowStackEngine;
use crate::split::SplitPolicy;
use sm_kernel::engine::{EngineStack, NullEngine, ProtectionEngine};
use sm_kernel::events::ResponseMode;
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_machine::{MachineConfig, TlbPreset};

/// Protection configuration under test.
#[derive(Debug, Clone)]
pub enum Protection {
    /// No protection (the paper's "unpatched kernel").
    Unprotected,
    /// Stand-alone split memory with the given response mode (the paper's
    /// worst-case, legacy-hardware configuration).
    SplitMem(ResponseMode),
    /// Stand-alone split memory with a full custom config.
    SplitMemCustom(SplitMemConfig),
    /// Hardware execute-disable bit only (DEP/PAGEEXEC baseline).
    Nx,
    /// Execute-disable with an explicit response mode: observe/forensics
    /// select the DCR-style honeypot relocation instead of the SIGSEGV
    /// crash (the response a code-page-read fingerprint can unmask).
    NxResponse(ResponseMode),
    /// Split memory for mixed pages + NX for the rest (combined mode,
    /// paper §4.2.1): a split-memory layer, then an NX layer that skips
    /// the pages the split layer took.
    Combined(ResponseMode),
    /// Combined with a random split fraction (the Fig. 9 sweep).
    CombinedFraction(f64),
    /// Shadow-stack/coarse-CFI engine alone: catches code-*reuse*
    /// (ret2libc/ROP) but not injection.
    ShadowStack(ResponseMode),
    /// The full defense-in-depth stack: shadow-stack/CFI over combined
    /// split-memory + execute-disable, with one response policy across
    /// all three detectors.
    ShadowCombined(ResponseMode),
}

impl Protection {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Protection::Unprotected => "unprotected".into(),
            Protection::SplitMem(m) => format!("split({m})"),
            Protection::SplitMemCustom(_) => "split(custom)".into(),
            Protection::Nx => "nx".into(),
            Protection::NxResponse(m) => format!("nx({m})"),
            Protection::Combined(m) => format!("nx+split({m})"),
            Protection::CombinedFraction(f) => format!("nx+split({:.0}%)", f * 100.0),
            Protection::ShadowStack(m) => format!("shadow({m})"),
            Protection::ShadowCombined(m) => format!("shadow+nx+split({m})"),
        }
    }

    /// Whether this configuration needs execute-disable hardware.
    pub fn needs_nx(&self) -> bool {
        matches!(
            self,
            Protection::Nx
                | Protection::NxResponse(_)
                | Protection::Combined(_)
                | Protection::CombinedFraction(_)
                | Protection::ShadowCombined(_)
        )
    }

    /// Build the engine for this configuration. Single-engine
    /// configurations are bare engines; the combined ones are
    /// [`EngineStack`]s, found layer by layer with
    /// `<dyn ProtectionEngine>::layer`.
    pub fn engine(&self) -> Box<dyn ProtectionEngine> {
        match self {
            Protection::Unprotected => Box::new(NullEngine),
            Protection::SplitMem(mode) => Box::new(SplitMemEngine::stand_alone(*mode)),
            Protection::SplitMemCustom(cfg) => Box::new(SplitMemEngine::new(cfg.clone())),
            Protection::Nx => Box::new(NxEngine::new()),
            Protection::NxResponse(mode) => Box::new(NxEngine::with_response(*mode)),
            Protection::Combined(mode) => nx_over_split(SplitPolicy::MixedOnly, *mode),
            Protection::CombinedFraction(f) => {
                nx_over_split(SplitPolicy::Fraction(*f), ResponseMode::Break)
            }
            Protection::ShadowStack(mode) => Box::new(ShadowStackEngine::new(*mode)),
            Protection::ShadowCombined(mode) => Box::new(EngineStack::new(vec![
                Box::new(ShadowStackEngine::new(*mode)),
                nx_over_split(SplitPolicy::MixedOnly, *mode),
            ])),
        }
    }

    /// Machine configuration for this protection (NX bit enabled only
    /// where needed, mirroring legacy vs. recent hardware), on the default
    /// TLB geometry.
    pub fn machine_config(&self) -> MachineConfig {
        self.machine_config_on(TlbPreset::default())
    }

    /// Machine configuration for this protection on an explicit TLB
    /// geometry (e.g. [`TlbPreset::pentium3`] for the paper's testbed).
    pub fn machine_config_on(&self, tlb: TlbPreset) -> MachineConfig {
        MachineConfig {
            nx_enabled: self.needs_nx(),
            tlb,
            ..MachineConfig::default()
        }
    }

    /// Build a ready kernel for this configuration.
    pub fn kernel(&self, kconfig: KernelConfig) -> Kernel {
        self.kernel_on(TlbPreset::default(), kconfig)
    }

    /// Build a ready kernel for this configuration on an explicit TLB
    /// geometry.
    pub fn kernel_on(&self, tlb: TlbPreset, kconfig: KernelConfig) -> Kernel {
        Kernel::new(self.machine_config_on(tlb), kconfig, self.engine())
    }

    /// Like [`Protection::kernel_on`], but warm-started: the first call for
    /// a given `(protection, tlb, kconfig)` boots a kernel cold and caches
    /// its post-boot snapshot; later calls fork a fresh kernel from that
    /// snapshot instead of re-booting. Sweep drivers running dozens of
    /// combos over the same configuration share one boot this way — and
    /// because the snapshot round-trip is exact, warm and cold kernels are
    /// byte-identical (a property the snapshot test-suite pins).
    ///
    /// Falls back to a cold boot if the cached snapshot fails to restore
    /// (it cannot in-process, but degradation beats a panic).
    pub fn kernel_warm_on(&self, tlb: TlbPreset, kconfig: KernelConfig) -> Kernel {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<HashMap<String, Vec<u8>>>> = OnceLock::new();
        let key = warm_cache_key(self, &tlb, &kconfig);
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let hit = cache.lock().unwrap().get(&key).cloned();
        if let Some(bytes) = hit {
            if let Ok(k) = sm_kernel::snapshot::restore(&bytes, self.engine()) {
                return k;
            }
        }
        let k = self.kernel_on(tlb, kconfig);
        cache
            .lock()
            .unwrap()
            .insert(key, sm_kernel::snapshot::save(&k));
        k
    }
}

/// Combined mode: a split-memory layer splitting the pages `policy`
/// picks, with `response`, then an execute-disable layer for the rest. NX
/// keeps its DEP-style break response.
fn nx_over_split(policy: SplitPolicy, response: ResponseMode) -> Box<dyn ProtectionEngine> {
    let split = SplitMemEngine::new(SplitMemConfig {
        policy,
        response,
        ..SplitMemConfig::default()
    });
    Box::new(EngineStack::new(vec![
        Box::new(split),
        Box::new(NxEngine::new()),
    ]))
}

/// Warm-start cache key for [`Protection::kernel_warm_on`].
///
/// The key used to be the derived `Debug` formatting of the whole triple.
/// An audit (after the trace `trace_capacity`/`trace_pid` knobs landed)
/// found that formatting *did* still cover every field — derived `Debug`
/// tracks the struct — so no stale-snapshot bug was live; but nothing
/// *guaranteed* it: a future field whose `Debug` impl collapses distinct
/// values (or a hand-written impl that omits one) would silently alias
/// cache entries and hand sweeps a kernel booted under a different
/// configuration. Every field is therefore enumerated by hand through
/// exhaustive destructuring, so adding a `KernelConfig` knob fails to
/// compile here until the key includes it.
fn warm_cache_key(p: &Protection, tlb: &TlbPreset, kconfig: &KernelConfig) -> String {
    let KernelConfig {
        quantum_cycles,
        stack_size,
        stack_top,
        aslr_stack,
        seed,
        heap_limit,
        pipe_capacity,
        chaos,
        asid_tlbs,
        livelock_threshold,
        trace,
        trace_capacity,
        trace_pid,
    } = kconfig;
    format!(
        "{p:?}|{tlb:?}|{quantum_cycles}|{stack_size}|{stack_top}|{aslr_stack}|{seed}\
         |{heap_limit}|{pipe_capacity}|{chaos:?}|{asid_tlbs}|{livelock_threshold}\
         |{trace}|{trace_capacity}|{trace_pid:?}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let ps = [
            Protection::Unprotected,
            Protection::SplitMem(ResponseMode::Break),
            Protection::Nx,
            Protection::NxResponse(ResponseMode::Observe),
            Protection::Combined(ResponseMode::Break),
            Protection::CombinedFraction(0.25),
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ];
        let labels: std::collections::HashSet<String> = ps.iter().map(Protection::label).collect();
        assert_eq!(labels.len(), ps.len());
    }

    #[test]
    fn nx_configs_enable_the_bit() {
        assert!(Protection::Nx.machine_config().nx_enabled);
        assert!(
            Protection::Combined(ResponseMode::Break)
                .machine_config()
                .nx_enabled
        );
        assert!(
            !Protection::SplitMem(ResponseMode::Break)
                .machine_config()
                .nx_enabled
        );
    }

    #[test]
    fn tlb_preset_reaches_the_machine() {
        let k = Protection::SplitMem(ResponseMode::Break)
            .kernel_on(TlbPreset::pentium3(), KernelConfig::default());
        assert_eq!(k.sys.machine.itlb.geometry().sets, 8);
        assert_eq!(k.sys.machine.itlb.capacity(), 32);
        assert_eq!(k.sys.machine.dtlb.geometry().sets, 16);
        assert_eq!(k.sys.machine.dtlb.capacity(), 64);
        // The default path keeps the backward-compatible shape.
        let k = Protection::Unprotected.kernel(KernelConfig::default());
        assert_eq!(k.sys.machine.dtlb.geometry().sets, 1);
        assert_eq!(k.sys.machine.dtlb.capacity(), 64);
    }

    #[test]
    fn kernel_builds_for_every_config() {
        for p in [
            Protection::Unprotected,
            Protection::SplitMem(ResponseMode::Observe),
            Protection::Nx,
            Protection::NxResponse(ResponseMode::Observe),
            Protection::CombinedFraction(0.1),
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Observe),
        ] {
            let k = p.kernel(KernelConfig::default());
            assert_eq!(k.sys.machine.config.nx_enabled, p.needs_nx());
        }
    }

    #[test]
    fn cfi_events_armed_only_for_shadow_engines() {
        for (p, want) in [
            (Protection::Unprotected, false),
            (Protection::SplitMem(ResponseMode::Break), false),
            (Protection::Nx, false),
            (Protection::Combined(ResponseMode::Break), false),
            (Protection::ShadowStack(ResponseMode::Break), true),
            (Protection::ShadowCombined(ResponseMode::Break), true),
        ] {
            let k = p.kernel(KernelConfig::default());
            assert_eq!(k.sys.machine.config.cfi_events, want, "{}", p.label());
        }
    }
}
