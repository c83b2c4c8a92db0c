//! Split-page bookkeeping and splitting policy.
//!
//! A *split* virtual page has two physical frames: the **code frame**
//! served to instruction fetches and the **data frame** served to loads and
//! stores. The pagetable entry is marked supervisor-only plus the software
//! `SPLIT` bit (paper §5.1); which frame a given access actually reaches is
//! decided by the fault handlers in [`crate::engine`].

use sm_kernel::kernel::System;
use sm_kernel::process::Pid;
use sm_machine::pte::{Frame, PAGE_SIZE};
use std::collections::BTreeMap;

/// The two physical halves of one split virtual page.
///
/// The code half is `None` until materialised when the engine runs with
/// demand-allocated code frames (the §5.1 optimisation: "only allocating
/// a code or data page when needed").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitPages {
    /// Frame instruction fetches are routed to (`None` = not yet
    /// materialised under the lazy policy).
    pub code: Option<Frame>,
    /// Frame data accesses are routed to.
    pub data: Frame,
    /// True while the code half still holds pristine filler bytes — i.e.
    /// nothing (kernel mirror, forensics planting) has written real
    /// instructions into it. Invariant checkers use this to assert the
    /// filler is untouched.
    pub filler: bool,
}

/// Per-process map of split pages, keyed by virtual page number.
///
/// Ordered (`BTreeMap`): iteration drives teardown — the order pages are
/// unsplit and their code frames released — and that order must be
/// deterministic or frame numbers (and the event/trace streams that
/// record them) diverge between otherwise identical runs.
#[derive(Debug, Default, Clone)]
pub struct SplitTable {
    pages: BTreeMap<u32, SplitPages>,
}

impl SplitTable {
    /// Empty table.
    pub fn new() -> SplitTable {
        SplitTable::default()
    }

    /// Look up a split page.
    pub fn get(&self, vpn: u32) -> Option<SplitPages> {
        self.pages.get(&vpn).copied()
    }

    /// Record a split page.
    pub fn insert(&mut self, vpn: u32, pages: SplitPages) {
        self.pages.insert(vpn, pages);
    }

    /// Remove a split page, returning its halves.
    pub fn remove(&mut self, vpn: u32) -> Option<SplitPages> {
        self.pages.remove(&vpn)
    }

    /// Update the data frame after a COW copy.
    pub fn set_data_frame(&mut self, vpn: u32, data: Frame) {
        if let Some(p) = self.pages.get_mut(&vpn) {
            p.data = data;
        }
    }

    /// Update the code frame after a COW copy or lazy materialisation.
    pub fn set_code_frame(&mut self, vpn: u32, code: Option<Frame>) {
        if let Some(p) = self.pages.get_mut(&vpn) {
            p.code = code;
        }
    }

    /// Record whether the code half still holds pristine filler bytes.
    pub fn set_filler(&mut self, vpn: u32, filler: bool) {
        if let Some(p) = self.pages.get_mut(&vpn) {
            p.filler = filler;
        }
    }

    /// Number of split pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no page is split.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterate over `(vpn, pages)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, SplitPages)> + '_ {
        self.pages.iter().map(|(k, v)| (*k, *v))
    }
}

/// Which pages to split (paper §4.2.1 "What to Split").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// Split every page: stand-alone mode on hardware without the
    /// execute-disable bit — the paper's worst-case configuration.
    All,
    /// Split only pages holding both code and data; everything else is
    /// left to the execute-disable bit (combined mode, §6.2).
    MixedOnly,
    /// Split a random fraction of pages (plus all mixed ones) — the Fig. 9
    /// sweep, where "the pages to be split [are chosen] at random for the
    /// sake of performance evaluation".
    Fraction(f64),
    /// Split nothing (baseline / measurement control).
    Nothing,
}

impl SplitPolicy {
    /// Decide whether to split a page given whether it is mixed and a
    /// random draw in `[0, 1)`.
    pub fn should_split(&self, mixed: bool, draw: f64) -> bool {
        match self {
            SplitPolicy::All => true,
            SplitPolicy::MixedOnly => mixed,
            SplitPolicy::Fraction(f) => mixed || draw < *f,
            SplitPolicy::Nothing => false,
        }
    }
}

/// True if the page at `page_base` holds both executable and writable
/// content — either a writable+executable VMA, or an executable VMA and a
/// writable VMA sharing the page (paper Fig. 1b).
pub fn page_is_mixed(sys: &System, pid: Pid, page_base: u32) -> bool {
    let aspace = &sys.proc(pid).aspace;
    let end = page_base + PAGE_SIZE;
    let mut any_x = false;
    let mut any_w = false;
    for v in &aspace.vmas {
        if v.overlaps(page_base, end) {
            any_x |= v.executable();
            any_w |= v.writable();
            if v.is_mixed() {
                return true;
            }
        }
    }
    any_x && any_w
}

/// True if the page at `page_base` intersects any executable VMA (the code
/// half of a split must then carry real instructions).
pub fn page_is_executable(sys: &System, pid: Pid, page_base: u32) -> bool {
    let aspace = &sys.proc(pid).aspace;
    let end = page_base + PAGE_SIZE;
    aspace
        .vmas
        .iter()
        .any(|v| v.overlaps(page_base, end) && v.executable())
}

sm_machine::counters! {
    /// Counters for the split-memory engine.
    pub struct SplitStats {
        /// Pages split.
        pub pages_split: u64,
        /// Data-TLB reloads (Algorithm 1 lines 7–11).
        pub data_reloads: u64,
        /// Instruction-TLB reloads via single-step (Algorithm 1 lines 2–5).
        pub code_reloads: u64,
        /// Data reloads that needed the single-step fallback (paper §5.2
        /// footnote 1).
        pub data_reload_fallbacks: u64,
        /// Injected-code executions detected.
        pub detections: u64,
        /// Pages locked to their data frame by observe mode.
        pub pages_locked: u64,
        /// Split pages duplicated by copy-on-write.
        pub cow_splits: u64,
        /// Code frames materialised on first fetch under the lazy policy
        /// (paper §5.1's envisioned demand-paging optimisation).
        pub lazy_materializations: u64,
        /// Pages whose split protection was degraded (unsplit, NX-only where
        /// possible) because a code-frame allocation hit out-of-memory.
        pub oom_degraded: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_crud() {
        let mut t = SplitTable::new();
        assert!(t.is_empty());
        t.insert(
            5,
            SplitPages {
                code: Some(Frame(10)),
                data: Frame(11),
                filler: false,
            },
        );
        assert_eq!(t.get(5).unwrap().code, Some(Frame(10)));
        t.set_data_frame(5, Frame(20));
        assert_eq!(t.get(5).unwrap().data, Frame(20));
        t.set_code_frame(5, Some(Frame(21)));
        assert_eq!(t.get(5).unwrap().code, Some(Frame(21)));
        assert_eq!(t.len(), 1);
        assert!(t.remove(5).is_some());
        assert!(t.remove(5).is_none());
    }

    #[test]
    fn policy_decisions() {
        assert!(SplitPolicy::All.should_split(false, 0.99));
        assert!(!SplitPolicy::Nothing.should_split(true, 0.0));
        assert!(SplitPolicy::MixedOnly.should_split(true, 0.99));
        assert!(!SplitPolicy::MixedOnly.should_split(false, 0.0));
        assert!(SplitPolicy::Fraction(0.5).should_split(false, 0.4));
        assert!(!SplitPolicy::Fraction(0.5).should_split(false, 0.6));
        // Mixed pages are always split, whatever the fraction.
        assert!(SplitPolicy::Fraction(0.0).should_split(true, 0.9));
    }
}
