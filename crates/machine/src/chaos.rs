//! Deterministic fault injection ("chaos") for the simulated machine.
//!
//! A [`FaultPlan`] describes *which* architectural misfortunes to inject —
//! spurious whole-TLB flushes, seeded single-entry evictions, forced
//! preemptions, frame-allocator exhaustion at the k-th allocation, and
//! perturbations aimed specifically at the Algorithm 1→2 single-step
//! window — and [`ChaosState`] turns the plan into a per-step decision
//! stream that is a pure function of `(plan, seed)`, so every run replays
//! byte-for-byte.
//!
//! The machine crate owns the plan and the decision stream; the kernel
//! applies the decisions (it is the layer that knows what a "step", a
//! "window" and a "preemption" are). None of the split-memory machinery
//! may *rely* on TLB residency for correctness — these faults are exactly
//! the events (context switches, capacity evictions, NMIs) that real
//! hardware produces at arbitrary points, so a protection verdict must be
//! identical under any plan.

use sm_rng::StdRng;

/// What to inject, and when. All counters are in *kernel steps* (one
/// executed-or-trapped instruction of the current process). `None` / `false`
/// disables a fault class; [`FaultPlan::default`] is fully inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Flush both TLBs every N steps (a spurious shootdown).
    pub flush_every: Option<u64>,
    /// Evict one seeded-random entry from each TLB every N steps
    /// (capacity pressure).
    pub evict_every: Option<u64>,
    /// Force a preemption (real context switch, CR3 reload, TLB flush)
    /// every N steps — including inside the single-step window.
    pub preempt_every: Option<u64>,
    /// Make the k-th frame allocation (1-based, counted from machine
    /// construction) fail with `OutOfFrames`.
    pub oom_at: Option<u64>,
    /// After the first injected OOM, keep failing every N-th allocation.
    pub oom_every_after: Option<u64>,
    /// Deliver a signal (the kernel uses SIGUSR1, only to processes with a
    /// registered handler) the first time the current process sits in the
    /// single-step window — the mixed-page trampoline case. One-shot by
    /// design: the signal handler consumes the arming (its first
    /// instruction takes the debug trap), so the armed instruction only
    /// retires on a signal-free pass — injecting on *every* window entry
    /// would be a genuine livelock, not a test of one.
    pub signal_in_window: bool,
    /// Flush both TLBs whenever the current process sits in the
    /// single-step window.
    pub flush_in_window: bool,
    /// Fail every N-th filesystem operation (reads *and* writes) with an
    /// I/O error — the disk analogue of `oom_at`. Counted on a separate
    /// per-fs-op clock ([`ChaosState::on_fs_op`]), so the fault lands on
    /// the N-th `read`/`write`/`execve`/`dlopen` touch of the RAM fs, not
    /// the N-th instruction.
    pub fs_error_every: Option<u64>,
    /// Truncate every N-th filesystem read/write to a single byte (a
    /// short-I/O fault: the syscall succeeds but transfers less than
    /// asked, which POSIX permits and sloppy callers mishandle).
    pub fs_short_every: Option<u64>,
    /// Corrupt every N-th snapshot save ([`ChaosState::on_snapshot_op`])
    /// with a seeded-random [`SnapshotFault`]. Counted on its own clock
    /// with its own RNG stream, so checkpointing a run — corrupted or not
    /// — never perturbs the step or fs fault schedules. Short *writes* of
    /// snapshot files ride the existing fs-op clock instead.
    pub snap_fault_every: Option<u64>,
    /// Seed for the fault stream's own randomness (eviction draws). Kept
    /// separate from the kernel seed so the same workload can be replayed
    /// under many fault streams.
    pub seed: u64,
}

impl FaultPlan {
    /// True if the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.flush_every.is_some()
            || self.evict_every.is_some()
            || self.preempt_every.is_some()
            || self.oom_at.is_some()
            || self.signal_in_window
            || self.flush_in_window
            || self.fs_error_every.is_some()
            || self.fs_short_every.is_some()
            || self.snap_fault_every.is_some()
    }
}

/// How to corrupt a serialized snapshot ([`ChaosState::on_snapshot_op`]).
/// Every kind must be *detected* at load time by the snapshot container's
/// structural/checksum validation — a corruption that loads silently is a
/// bug in the format, not in the consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFault {
    /// Cut the byte stream at a seeded-random offset (torn write / partial
    /// flush).
    Truncate,
    /// Flip one seeded-random bit (media corruption).
    BitFlip,
    /// Swap two manifest entries without recomputing the manifest checksum
    /// (reordered sections from an out-of-order writer).
    SectionReorder,
    /// Bump the format version field (a snapshot from a "future" writer).
    VersionSkew,
}

/// Salt XORed into [`FaultPlan::seed`] for the snapshot-fault RNG stream,
/// keeping it independent of the step stream's eviction draws.
const SNAP_SEED_SALT: u64 = 0x534e_4150_4641_554c; // "SNAPFAUL"

/// The faults due on one step, as decided by [`ChaosState::on_step`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepFaults {
    /// Flush both TLBs.
    pub flush: bool,
    /// Evict one entry from each TLB using [`StepFaults::evict_draws`].
    pub evict: bool,
    /// Seeded draws for the evictions: `[0]` for the I-TLB, `[1]` for the
    /// D-TLB. Two independent values from the fault stream's generator —
    /// deriving both from one u64 would correlate the victim choices of
    /// the two buffers.
    pub evict_draws: [u64; 2],
    /// Force a real context switch at the next scheduling point.
    pub preempt: bool,
    /// Deliver the window signal (plan had `signal_in_window` and the
    /// process is in the window).
    pub signal: bool,
}

crate::counters! {
    /// Counters for injected faults (replay diagnostics).
    pub struct ChaosStats {
        /// Steps observed.
        pub steps: u64,
        /// Spurious whole-TLB flushes (periodic + in-window).
        pub flushes: u64,
        /// Periodic eviction rounds.
        pub evictions: u64,
        /// Forced preemptions.
        pub preemptions: u64,
        /// Flushes fired specifically inside the single-step window.
        pub window_flushes: u64,
        /// Signals fired inside the single-step window.
        pub window_signals: u64,
        /// Filesystem operations observed.
        pub fs_ops: u64,
        /// Injected filesystem I/O errors.
        pub fs_errors: u64,
        /// Injected short filesystem transfers.
        pub fs_shorts: u64,
        /// Snapshot save operations observed.
        pub snap_ops: u64,
        /// Injected snapshot corruptions.
        pub snap_faults: u64,
    }
}

/// The fault decision for one filesystem operation
/// ([`ChaosState::on_fs_op`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsFault {
    /// Fail the operation with an I/O error (takes precedence over
    /// `short`).
    pub error: bool,
    /// Truncate the transfer to one byte.
    pub short: bool,
}

/// The live decision stream for one [`FaultPlan`].
#[derive(Debug)]
pub struct ChaosState {
    /// The plan being executed (immutable once constructed).
    pub plan: FaultPlan,
    pub(crate) rng: StdRng,
    /// Independent stream for snapshot-fault kind draws (see
    /// [`FaultPlan::snap_fault_every`]).
    pub(crate) snap_rng: StdRng,
    /// Injection counters.
    pub stats: ChaosStats,
    /// Whether the previous step was inside the window (edge detector for
    /// the per-window-entry faults).
    pub(crate) was_in_window: bool,
}

impl ChaosState {
    /// Start the decision stream for `plan`.
    pub fn new(plan: FaultPlan) -> ChaosState {
        ChaosState {
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
            snap_rng: StdRng::seed_from_u64(plan.seed ^ SNAP_SEED_SALT),
            stats: ChaosStats::default(),
            was_in_window: false,
        }
    }

    /// Advance one step and report which faults are due. `in_window` is
    /// true when the current process has an armed single-step reload
    /// pending (the Algorithm 1→2 window).
    pub fn on_step(&mut self, in_window: bool) -> StepFaults {
        self.stats.steps += 1;
        let steps = self.stats.steps;
        let due = move |every: Option<u64>| every.is_some_and(|n| steps.is_multiple_of(n.max(1)));
        let mut f = StepFaults {
            flush: due(self.plan.flush_every),
            evict: due(self.plan.evict_every),
            evict_draws: [0; 2],
            preempt: due(self.plan.preempt_every),
            signal: false,
        };
        // Window faults fire on window *entry*, not on every in-window
        // step: a spurious flush is a one-off event that happens to land
        // in the window. (Flushing every in-window step would wipe the
        // armed instruction's own data reload each round — a guaranteed
        // livelock by construction, like `flush_every = 1`, rather than a
        // perturbation the reload dance can be expected to absorb.)
        let entered_window = in_window && !self.was_in_window;
        self.was_in_window = in_window;
        if entered_window && self.plan.flush_in_window {
            f.flush = true;
            self.stats.window_flushes += 1;
        }
        if entered_window && self.plan.signal_in_window && self.stats.window_signals == 0 {
            f.signal = true;
            self.stats.window_signals += 1;
        }
        if f.flush {
            self.stats.flushes += 1;
        }
        if f.evict {
            // Draw even when the TLBs turn out to be empty: the stream must
            // not depend on machine state, only on the step count.
            f.evict_draws = [self.rng.next_u64(), self.rng.next_u64()];
            self.stats.evictions += 1;
        }
        if f.preempt {
            self.stats.preemptions += 1;
        }
        f
    }

    /// Advance the filesystem-operation clock and report whether this
    /// operation should fail or transfer short. A pure function of
    /// `(plan, fs-op count)` — independent of the instruction-step stream,
    /// so adding fs traffic never perturbs the TLB/preemption schedule and
    /// vice versa. When both faults are due on the same operation the hard
    /// error wins.
    pub fn on_fs_op(&mut self) -> FsFault {
        self.stats.fs_ops += 1;
        let ops = self.stats.fs_ops;
        let due = |every: Option<u64>| every.is_some_and(|n| ops.is_multiple_of(n.max(1)));
        let f = FsFault {
            error: due(self.plan.fs_error_every),
            short: !due(self.plan.fs_error_every) && due(self.plan.fs_short_every),
        };
        if f.error {
            self.stats.fs_errors += 1;
        }
        if f.short {
            self.stats.fs_shorts += 1;
        }
        f
    }

    /// Advance the snapshot-save clock and report the corruption (if any)
    /// to apply to the bytes just serialized. A pure function of
    /// `(plan, snapshot-op count)` on its own RNG stream — checkpointing a
    /// run never perturbs the step or fs fault schedules, so a checkpointed
    /// run stays byte-identical to an uncheckpointed one.
    pub fn on_snapshot_op(&mut self) -> Option<SnapshotFault> {
        self.stats.snap_ops += 1;
        let ops = self.stats.snap_ops;
        let due = self
            .plan
            .snap_fault_every
            .is_some_and(|n| ops.is_multiple_of(n.max(1)));
        if !due {
            return None;
        }
        self.stats.snap_faults += 1;
        Some(match self.snap_rng.next_u64() % 4 {
            0 => SnapshotFault::Truncate,
            1 => SnapshotFault::BitFlip,
            2 => SnapshotFault::SectionReorder,
            _ => SnapshotFault::VersionSkew,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut c = ChaosState::new(plan);
        for _ in 0..100 {
            assert_eq!(c.on_step(false), StepFaults::default());
        }
        assert_eq!(c.stats.flushes, 0);
        assert_eq!(c.stats.steps, 100);
    }

    #[test]
    fn periodic_faults_fire_on_schedule() {
        let mut c = ChaosState::new(FaultPlan {
            flush_every: Some(3),
            preempt_every: Some(5),
            ..FaultPlan::default()
        });
        let fired: Vec<(bool, bool)> = (0..15)
            .map(|_| {
                let f = c.on_step(false);
                (f.flush, f.preempt)
            })
            .collect();
        let flushes = fired.iter().filter(|(f, _)| *f).count();
        let preempts = fired.iter().filter(|(_, p)| *p).count();
        assert_eq!(flushes, 5); // steps 3,6,9,12,15
        assert_eq!(preempts, 3); // steps 5,10,15
    }

    #[test]
    fn window_faults_only_fire_in_window() {
        let mut c = ChaosState::new(FaultPlan {
            flush_in_window: true,
            signal_in_window: true,
            ..FaultPlan::default()
        });
        let out = c.on_step(false);
        assert!(!out.flush && !out.signal);
        let inw = c.on_step(true);
        assert!(inw.flush && inw.signal);
        assert_eq!(c.stats.window_flushes, 1);
        assert_eq!(c.stats.window_signals, 1);
        // Window faults are edge-triggered: staying in the window (the
        // armed instruction's own data access may fault for several
        // rounds) injects nothing further.
        let again = c.on_step(true);
        assert!(!again.flush && !again.signal);
        // Leaving and re-entering the window fires the flush again; the
        // signal stays one-shot for the whole run.
        let out = c.on_step(false);
        assert!(!out.flush && !out.signal);
        let reentry = c.on_step(true);
        assert!(reentry.flush && !reentry.signal);
        assert_eq!(c.stats.window_flushes, 2);
        assert_eq!(c.stats.window_signals, 1);
    }

    #[test]
    fn eviction_draws_are_independent_per_tlb() {
        let mut c = ChaosState::new(FaultPlan {
            evict_every: Some(1),
            seed: 7,
            ..FaultPlan::default()
        });
        for _ in 0..32 {
            let f = c.on_step(false);
            assert!(f.evict);
            let [i, d] = f.evict_draws;
            assert_ne!(i, d, "I- and D-TLB draws must not be correlated");
            // The old scheme derived the D-TLB draw as `i >> 32`; pin that
            // the two values are not that projection of one another.
            assert_ne!(d, i >> 32);
        }
    }

    #[test]
    fn fs_faults_fire_on_their_own_clock() {
        let mut c = ChaosState::new(FaultPlan {
            fs_error_every: Some(3),
            fs_short_every: Some(2),
            ..FaultPlan::default()
        });
        // Instruction steps never advance the fs clock.
        for _ in 0..50 {
            c.on_step(false);
        }
        assert_eq!(c.stats.fs_ops, 0);
        let decisions: Vec<FsFault> = (0..6).map(|_| c.on_fs_op()).collect();
        // op 1: clean; op 2: short; op 3: error; op 4: short;
        // op 5: clean; op 6: error wins over short.
        let e = |error, short| FsFault { error, short };
        assert_eq!(
            decisions,
            vec![
                e(false, false),
                e(false, true),
                e(true, false),
                e(false, true),
                e(false, false),
                e(true, false),
            ]
        );
        assert_eq!(c.stats.fs_errors, 2);
        assert_eq!(c.stats.fs_shorts, 2);
    }

    #[test]
    fn inert_plan_never_faults_fs_ops() {
        let mut c = ChaosState::new(FaultPlan::default());
        for _ in 0..100 {
            assert_eq!(c.on_fs_op(), FsFault::default());
        }
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan {
            fs_error_every: Some(5),
            ..FaultPlan::default()
        }
        .is_active());
    }

    #[test]
    fn snapshot_faults_fire_on_their_own_clock_and_stream() {
        let plan = FaultPlan {
            flush_every: Some(7),
            evict_every: Some(4),
            snap_fault_every: Some(2),
            seed: 99,
            ..FaultPlan::default()
        };
        assert!(plan.is_active());
        // Two runs, one of which also takes snapshot ops: the step streams
        // must be identical anyway.
        let mut a = ChaosState::new(plan);
        let mut b = ChaosState::new(plan);
        let mut faults = Vec::new();
        for i in 0..100 {
            let fa = a.on_step(i % 13 == 0);
            if i % 10 == 0 {
                faults.push(b.on_snapshot_op());
            }
            let fb = b.on_step(i % 13 == 0);
            assert_eq!(fa, fb, "snapshot ops must not perturb the step stream");
        }
        // Every second snapshot op injects a fault.
        assert_eq!(faults.iter().filter(|f| f.is_some()).count(), 5);
        assert_eq!(b.stats.snap_ops, 10);
        assert_eq!(b.stats.snap_faults, 5);
        assert_eq!(a.stats.snap_ops, 0);
        // Inert plans never inject.
        let mut c = ChaosState::new(FaultPlan::default());
        for _ in 0..20 {
            assert_eq!(c.on_snapshot_op(), None);
        }
    }

    #[test]
    fn decision_stream_is_deterministic() {
        let plan = FaultPlan {
            flush_every: Some(7),
            evict_every: Some(4),
            seed: 1234,
            ..FaultPlan::default()
        };
        let run = |mut c: ChaosState| -> Vec<StepFaults> {
            (0..200).map(|i| c.on_step(i % 13 == 0)).collect()
        };
        let a = run(ChaosState::new(plan));
        let b = run(ChaosState::new(plan));
        assert_eq!(a, b);
    }
}
