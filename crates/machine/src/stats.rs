//! Machine-level event counters.
//!
//! TLB-specific counters live on each [`crate::tlb::Tlb`]; this struct counts
//! whole-machine events. The benchmark harness diffs snapshots of these
//! counters around a workload to attribute overhead (e.g. "how many
//! instruction-TLB reloads did this Apache run take?").

/// Counters maintained by [`crate::Machine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Instructions retired (faulting instructions are counted when they
    /// eventually complete, not per attempt).
    pub instructions: u64,
    /// Hardware pagetable walks (i.e. TLB misses that went to memory).
    pub walks: u64,
    /// Page faults raised.
    pub page_faults: u64,
    /// Invalid-opcode (`#UD`) exceptions raised.
    pub invalid_opcodes: u64,
    /// Debug (`#DB`) single-step traps delivered.
    pub debug_traps: u64,
    /// Divide-error (`#DE`) exceptions raised.
    pub divide_errors: u64,
    /// Software interrupts executed (`int n`).
    pub syscalls: u64,
    /// CR3 loads (each flushes both TLBs).
    pub cr3_loads: u64,
    /// `invlpg` executions.
    pub invlpgs: u64,
}

impl MachineStats {
    /// Field-wise difference `self - earlier`; use with a snapshot taken
    /// before a measured region. Saturating: a snapshot taken from a
    /// *different* (or reset) machine yields zeros for regressed fields
    /// rather than a debug panic / release wrap-around, so harness code
    /// diffing across process teardown never reports 2^64-ish counts.
    pub fn since(&self, earlier: &MachineStats) -> MachineStats {
        MachineStats {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            walks: self.walks.saturating_sub(earlier.walks),
            page_faults: self.page_faults.saturating_sub(earlier.page_faults),
            invalid_opcodes: self.invalid_opcodes.saturating_sub(earlier.invalid_opcodes),
            debug_traps: self.debug_traps.saturating_sub(earlier.debug_traps),
            divide_errors: self.divide_errors.saturating_sub(earlier.divide_errors),
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
            cr3_loads: self.cr3_loads.saturating_sub(earlier.cr3_loads),
            invlpgs: self.invlpgs.saturating_sub(earlier.invlpgs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let early = MachineStats {
            instructions: 10,
            walks: 1,
            ..MachineStats::default()
        };
        let late = MachineStats {
            instructions: 25,
            walks: 4,
            page_faults: 2,
            ..MachineStats::default()
        };
        let d = late.since(&early);
        assert_eq!(d.instructions, 15);
        assert_eq!(d.walks, 3);
        assert_eq!(d.page_faults, 2);
    }
}
