//! Kernel-level counters, complementing the machine's hardware counters.

sm_machine::counters! {
    /// Counters maintained by the kernel.
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
