//! Event counters: the [`counters!`](crate::counters) declaration every
//! counter set in the workspace goes through, and the machine's own set.
//!
//! TLB-specific counters live on each [`crate::tlb::Tlb`]; [`MachineStats`]
//! counts whole-machine events. The benchmark harness diffs snapshots of
//! these counters around a workload to attribute overhead (e.g. "how many
//! instruction-TLB reloads did this Apache run take?").

/// Declares a counter set: a struct whose fields are all `pub u64`
/// counters, deriving `Debug, Clone, Copy, Default, PartialEq, Eq`.
///
/// The field list is written once, in the macro input, and four inherent
/// methods are derived from it:
///
/// * `since(&self, earlier)` — field-wise `self - earlier`, saturating, so
///   a baseline from a different (or reset) source yields zeros for
///   regressed fields instead of a debug panic or a release wrap-around;
/// * `iter(&self)` — `(field name, value)` pairs in declaration order;
/// * `write(&self, &mut Writer)` and `read(&mut Reader)` — the snapshot
///   codec: one little-endian u64 per field, in declaration order.
///
/// Declaration order is therefore the snapshot wire order and the key
/// order of every export built on `iter`: reordering fields changes the
/// format.
///
/// ```
/// sm_machine::counters! {
///     /// Lookups of some cache.
///     pub struct Lookups {
///         /// Answered from the cache.
///         pub hits: u64,
///         /// Fell through.
///         pub misses: u64,
///     }
/// }
/// let d = Lookups { hits: 5, misses: 2 }.since(&Lookups { hits: 3, misses: 4 });
/// assert_eq!(d.iter().collect::<Vec<_>>(), [("hits", 2), ("misses", 0)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident: u64
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: u64,
            )+
        }

        impl $name {
            /// Field-wise difference `self - earlier`; use with a snapshot
            /// taken before a measured region. Saturating: a baseline from
            /// a different (or reset) source yields zeros for regressed
            /// fields rather than a debug panic / release wrap-around.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }

            /// Every counter as `(field name, value)`, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),+].into_iter()
            }

            /// Append every counter to a snapshot payload, in declaration
            /// order.
            pub fn write(&self, w: &mut $crate::snapshot::Writer) {
                $(w.u64(self.$field);)+
            }

            /// Read the counters [`write`](Self::write) wrote.
            ///
            /// # Errors
            ///
            /// `SnapshotError::Truncated` if the payload ends early.
            pub fn read(
                r: &mut $crate::snapshot::Reader<'_>,
            ) -> Result<$name, $crate::snapshot::SnapshotError> {
                Ok($name {
                    $($field: r.u64()?,)+
                })
            }
        }
    };
}

counters! {
    /// Counters maintained by [`crate::Machine`].
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
