//! Kernel-level counters, complementing the machine's hardware counters.

/// Counters maintained by the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Context switches performed (CR3 actually reloaded).
    pub context_switches: u64,
    /// Pages served by demand paging.
    pub demand_pages: u64,
    /// Copy-on-write breaks.
    pub cow_breaks: u64,
    /// System calls dispatched.
    pub syscalls: u64,
    /// Signals delivered to user handlers.
    pub handler_signals: u64,
    /// Processes killed by a fatal signal.
    pub fatal_signals: u64,
    /// Processes spawned (fork + spawn + execve images loaded).
    pub processes_spawned: u64,
    /// Dynamic/shared libraries loaded.
    pub libraries_loaded: u64,
    /// Kernel-performed TLB fills in software-TLB mode (§4.7).
    pub soft_tlb_fills: u64,
}

impl KernelStats {
    /// Field-wise `self - earlier` for measuring a region. Saturating:
    /// a baseline from a different (or reset) kernel yields zeros for
    /// regressed fields rather than a debug panic / release wrap-around.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            context_switches: self
                .context_switches
                .saturating_sub(earlier.context_switches),
            demand_pages: self.demand_pages.saturating_sub(earlier.demand_pages),
            cow_breaks: self.cow_breaks.saturating_sub(earlier.cow_breaks),
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
            handler_signals: self.handler_signals.saturating_sub(earlier.handler_signals),
            fatal_signals: self.fatal_signals.saturating_sub(earlier.fatal_signals),
            processes_spawned: self
                .processes_spawned
                .saturating_sub(earlier.processes_spawned),
            libraries_loaded: self
                .libraries_loaded
                .saturating_sub(earlier.libraries_loaded),
            soft_tlb_fills: self.soft_tlb_fills.saturating_sub(earlier.soft_tlb_fills),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = KernelStats {
            syscalls: 5,
            ..KernelStats::default()
        };
        let b = KernelStats {
            syscalls: 9,
            context_switches: 2,
            ..KernelStats::default()
        };
        let d = b.since(&a);
        assert_eq!(d.syscalls, 4);
        assert_eq!(d.context_switches, 2);
    }
}
