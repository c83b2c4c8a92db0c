//! Property test for the tracer's streaming ordering check.
//!
//! `Tracer::check_order` answers from a fold it keeps up as it records
//! and restarts on `clear` and `restore_meta`. Once the ring has dropped
//! records, it reports only the verdicts and leftover pages whose
//! dependency the ring still holds. Its answer must equal the reference:
//! `check_order` over a copy of the retained ring, with the ring's own
//! truncation flag. The streams are random, weighted toward the PTE,
//! single-step and exit events the fold tracks, on few enough pids and
//! pages that windows collide; ring capacities range from a handful of
//! records (every stream wraps) to more than any stream emits.

use proptest::prelude::*;
use sm_trace::{
    check_order, mask, AccessKind, ChaosKind, DisarmCause, EvictCause, FaultVerdict, FlushScope,
    MissClass, ReloadKind, ResponseKind, TlbSide, TraceEvent, Tracer,
};

/// One step of a scenario, decoded from a raw draw (the vendored proptest
/// subset has no `prop_oneof`; a weighted decode of `any::<u64>()` does
/// the same job).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Record one event.
    Event(TraceEvent),
    /// Record a well-formed Algorithm 2 window on one page.
    Window { pid: u32, vpn: u32 },
    /// Drop the retained records.
    Clear,
    /// Rebuild the tracer from its checkpoint metadata, resuming the
    /// sequence counter (`fresh` restarts it at zero instead).
    Restore { fresh: bool },
    /// Ask for the verdict.
    Query { complete: bool },
}

fn decode(draw: u64) -> Op {
    let pid = 1 + ((draw >> 16) % 3) as u32;
    let vpn = ((draw >> 20) % 3) as u32;
    let arg = (draw >> 24) as u32;
    match draw % 100 {
        0..=2 => Op::Clear,
        3..=5 => Op::Restore {
            fresh: arg.is_multiple_of(4),
        },
        6..=13 => Op::Query {
            complete: arg & 1 == 1,
        },
        14..=23 => Op::Window { pid, vpn },
        _ => Op::Event(event((draw >> 8) % 100, pid, vpn, arg)),
    }
}

fn event(kind: u64, pid: u32, vpn: u32, arg: u32) -> TraceEvent {
    use TraceEvent as E;
    match kind {
        0..=19 => E::PteUnrestrict {
            pid,
            vpn,
            reload: if arg & 1 == 0 {
                ReloadKind::Code
            } else {
                ReloadKind::Data
            },
        },
        20..=33 => E::PteRestrict { pid, vpn },
        34..=45 => E::StepArm { pid, vpn },
        46..=55 => E::StepFire {
            pid,
            eip: vpn << 12,
            vpn,
        },
        56..=61 => E::StepDisarm {
            pid,
            vpn,
            cause: if arg & 1 == 0 {
                DisarmCause::Detection
            } else {
                DisarmCause::Exit
            },
        },
        62..=69 => E::ProcessExit {
            pid,
            code: arg as i32,
        },
        70..=73 => E::PageUnsplit { pid, vpn },
        74..=75 => E::PageSplit { pid, vpn },
        76..=83 => E::TlbFill {
            tlb: if arg & 1 == 0 {
                TlbSide::Instruction
            } else {
                TlbSide::Data
            },
            vpn,
            pfn: arg % 64,
            set: vpn,
            way: 0,
            class: MissClass::Cold,
        },
        84..=85 => E::TlbEvict {
            tlb: TlbSide::Data,
            vpn,
            set: vpn,
            cause: EvictCause::Capacity,
        },
        86..=87 => E::TlbFlush {
            scope: FlushScope::All,
            vpn: 0,
        },
        88..=91 => E::SchedSwitch {
            from: pid,
            to: 1 + arg % 3,
        },
        92..=93 => E::Detection {
            pid,
            eip: vpn << 12,
            mode: ResponseKind::Break,
        },
        94..=95 => E::PageFault {
            pid,
            addr: vpn << 12,
            eip: vpn << 12,
            access: AccessKind::Fetch,
            present: true,
            verdict: FaultVerdict::Instruction,
        },
        96 => E::CowShare {
            parent: pid,
            child: 1 + arg % 3,
        },
        97 => E::CowBreak {
            pid,
            vpn,
            new_pfn: arg % 64,
        },
        _ => E::ChaosInject {
            pid,
            kind: ChaosKind::Preempt,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_order_check_matches_the_reference_fold(
        capacity in 1usize..160,
        filter in proptest::option::of(1u32..4),
        draws in proptest::collection::vec(any::<u64>(), 0..240),
    ) {
        let mut t = Tracer::new(mask::ALL, capacity);
        t.set_pid_filter(filter);
        let mut cycles = 0u64;
        let mut queries = 0u32;
        for (i, &draw) in draws.iter().enumerate() {
            // Stamps mostly advance; now and then one goes backwards.
            cycles = if (draw >> 40).is_multiple_of(40) {
                cycles.saturating_sub(3)
            } else {
                cycles + (draw >> 44) % 6
            };
            match decode(draw) {
                Op::Event(e) => t.record(cycles, e),
                Op::Window { pid, vpn } => {
                    let reload = ReloadKind::Code;
                    t.record(cycles, TraceEvent::PteUnrestrict { pid, vpn, reload });
                    t.record(cycles, TraceEvent::StepArm { pid, vpn });
                    t.record(cycles + 1, TraceEvent::StepFire { pid, eip: vpn << 12, vpn });
                    t.record(cycles + 1, TraceEvent::PteRestrict { pid, vpn });
                    cycles += 1;
                }
                Op::Clear => t.clear(),
                Op::Restore { fresh } => {
                    let next_seq = if fresh { 0 } else { t.emitted() };
                    t = Tracer::restore_meta(t.enabled(), t.capacity(), next_seq, t.pid_filter());
                }
                Op::Query { complete } => {
                    queries += 1;
                    prop_assert_eq!(
                        t.check_order(complete),
                        check_order(&t.snapshot(), t.truncated(), complete),
                        "query {} after op {} (capacity {}, emitted {}, dropped {})",
                        queries, i, capacity, t.emitted(), t.dropped()
                    );
                }
            }
        }
        for complete in [false, true] {
            prop_assert_eq!(
                t.check_order(complete),
                check_order(&t.snapshot(), t.truncated(), complete),
                "end of stream (capacity {}, emitted {}, dropped {})",
                capacity, t.emitted(), t.dropped()
            );
        }
    }
}
