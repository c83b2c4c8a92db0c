//! Translation lookaside buffers.
//!
//! The simulator implements the two properties of real x86 TLBs that the
//! split-memory technique depends on (paper §4.1–4.2):
//!
//! 1. **Split TLBs.** Instruction fetches and data accesses are served by
//!    physically separate buffers. Nothing keeps them coherent: if the
//!    operating system arranges for them to be filled from *different*
//!    pagetable entries, the same virtual page translates to two different
//!    physical frames depending on access type.
//! 2. **Rights are cached at fill time.** A [`TlbEntry`] snapshots the
//!    user/writable/execute-disable bits of the pagetable entry *as they were
//!    when the walker filled the entry*. A later change to the pagetable
//!    (e.g. re-setting the supervisor bit) does **not** affect accesses that
//!    hit the cached entry — this is what lets the fault handler unrestrict a
//!    PTE, touch the page to load the TLB, and restrict it again.
//!
//! The buffer is **set-associative** with true per-set LRU replacement,
//! matching the split-TLB hardware the paper's testbed actually has (a
//! Pentium III: 32-entry 4-way instruction TLB, 64-entry 4-way data TLB —
//! see [`TlbPreset::pentium3`]). The set index is the low bits of the
//! virtual page number, as on real hardware. A [`TlbGeometry`] of one set
//! degenerates to a fully-associative LRU buffer
//! ([`TlbGeometry::fully_associative`]), the backward-compatible default.
//!
//! Misses are classified into the classic three Cs against a *shadow*
//! fully-associative LRU model of the same total capacity, fed the same
//! access and invalidation stream: **cold** (page never filled before),
//! **conflict** (the shadow would have hit — only set pressure evicted it)
//! and **capacity** (the shadow missed too). With one set the model *is*
//! its own shadow, so conflict misses are structurally zero there.
//! Chaos-harness evictions ([`Tlb::evict_one`]) are counted in
//! [`TlbStats::chaos_evictions`], never in [`TlbStats::evictions`], so
//! fault injection cannot masquerade as genuine capacity pressure.

use std::collections::HashSet;

/// Shape of one TLB: `sets × ways` entries, set index = low VPN bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Number of sets (must be a power of two so the set index is a bit
    /// mask of the VPN, as on real hardware).
    pub sets: usize,
    /// Entries per set.
    pub ways: usize,
}

impl TlbGeometry {
    /// A `sets × ways` geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> TlbGeometry {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "TLB set count must be a nonzero power of two, got {sets}"
        );
        assert!(ways > 0, "TLB way count must be non-zero");
        TlbGeometry { sets, ways }
    }

    /// One set holding `n` ways: a fully-associative LRU buffer (the
    /// backward-compatible shape of the pre-set-associative model).
    pub fn fully_associative(n: usize) -> TlbGeometry {
        TlbGeometry::new(1, n)
    }

    /// Total entry count.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for a virtual page number (low VPN bits).
    #[inline]
    pub fn set_of(&self, vpn: u32) -> usize {
        vpn as usize & (self.sets - 1)
    }
}

/// Geometry for the machine's I-TLB/D-TLB pair, with presets for the
/// hardware configurations the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbPreset {
    /// Instruction-TLB geometry.
    pub itlb: TlbGeometry,
    /// Data-TLB geometry.
    pub dtlb: TlbGeometry,
}

impl TlbPreset {
    /// Both TLBs fully associative with `n` entries (the shape every
    /// experiment ran with before set-associativity existed).
    pub fn fully_associative(n: usize) -> TlbPreset {
        TlbPreset {
            itlb: TlbGeometry::fully_associative(n),
            dtlb: TlbGeometry::fully_associative(n),
        }
    }

    /// The paper's testbed (§6): a Pentium III with a 32-entry 4-way
    /// instruction TLB and a 64-entry 4-way data TLB.
    pub fn pentium3() -> TlbPreset {
        TlbPreset {
            itlb: TlbGeometry::new(8, 4),
            dtlb: TlbGeometry::new(16, 4),
        }
    }
}

impl Default for TlbPreset {
    fn default() -> TlbPreset {
        TlbPreset::fully_associative(64)
    }
}

/// One cached translation, including the rights snapshot taken at fill time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number this entry translates.
    pub vpn: u32,
    /// Physical frame number it maps to.
    pub pfn: u32,
    /// Address-space identifier stamped at fill time ([`Tlb::set_asid`]).
    /// Always 0 in the default flush-on-switch configuration; in tagged
    /// mode it records which address space the translation belongs to, and
    /// lookups from a different ASID miss instead of aliasing.
    pub asid: u16,
    /// Snapshot of the PTE user bit: user-mode accesses allowed.
    pub user: bool,
    /// Snapshot of the PTE writable bit.
    pub writable: bool,
    /// Snapshot of the simulated execute-disable bit.
    pub nx: bool,
}

crate::counters! {
    /// Running counters for one TLB.
    pub struct TlbStats {
        /// Lookups that found a valid entry.
        pub hits: u64,
        /// Lookups that missed (a hardware pagetable walk follows). Always
        /// `cold_misses + capacity_misses + conflict_misses`.
        pub misses: u64,
        /// Misses to a page never filled before.
        pub cold_misses: u64,
        /// Misses a fully-associative buffer of the same capacity would also
        /// have taken (includes re-walks forced by flushes/invalidations).
        pub capacity_misses: u64,
        /// Misses only set pressure explains: the shadow fully-associative
        /// model still held the page.
        pub conflict_misses: u64,
        /// Entries inserted by the walker.
        pub fills: u64,
        /// Whole-TLB flushes (CR3 loads).
        pub flushes: u64,
        /// Single-page invalidations (`invlpg`).
        pub page_invalidations: u64,
        /// Valid entries discarded by per-set LRU to make room for a fill —
        /// genuine pressure only, never chaos injection.
        pub evictions: u64,
        /// Entries discarded by the chaos harness ([`Tlb::evict_one`]), kept
        /// out of [`TlbStats::evictions`] so fault injection does not pollute
        /// capacity diagnostics.
        pub chaos_evictions: u64,
    }
}

/// What [`Tlb::fill`] did: where the entry landed and what (if anything)
/// per-set LRU pushed out to make room. Consumed by the machine's trace
/// emit sites; existing callers are free to ignore it.
#[derive(Debug, Clone, Copy)]
pub struct FillOutcome {
    /// Set index the entry was inserted into.
    pub set: u32,
    /// MRU position the entry landed in (always 0: fills are
    /// most-recently-used by definition).
    pub way: u32,
    /// The entry evicted from the set's LRU tail, if the set was full and
    /// the fill was not an in-place replacement.
    pub victim: Option<TlbEntry>,
}

/// A single TLB (the machine instantiates one for instructions and one for
/// data).
#[derive(Debug, Clone)]
pub struct Tlb {
    geometry: TlbGeometry,
    /// `sets[i]` is ordered most-recently-used first; `len() <= ways`.
    /// The snapshot codec serializes per-set MRU order verbatim: LRU
    /// replacement order is part of the deterministic miss stream.
    pub(crate) sets: Vec<Vec<TlbEntry>>,
    /// Shadow fully-associative LRU of the same total capacity
    /// (`(asid, vpn)` keys, MRU-first), fed the same access/invalidation
    /// stream; the reference for conflict-miss classification.
    pub(crate) shadow: Vec<u64>,
    /// Every `(asid, vpn)` ever filled (cold-miss classification).
    pub(crate) seen: HashSet<u64>,
    /// ASID stamped on fills and required on lookups. Stays 0 unless the
    /// machine runs with tagged TLBs.
    pub(crate) current_asid: u16,
    /// 3C class of the most recent miss (the classification happens inline
    /// in [`Tlb::lookup`]; the walker reads it back when tracing fills).
    pub(crate) last_miss: sm_trace::MissClass,
    /// The entry the most recent [`Tlb::lookup`] hit or [`Tlb::fill`]
    /// installed, if nothing has disturbed the buffer since. Such an entry
    /// is at way 0 of its set and at the front of the shadow recency list,
    /// so a repeat lookup of the same page under the same ASID is a
    /// guaranteed hit whose MRU rotation and shadow touch are both no-ops.
    /// Purely derived state: never serialized, cleared by every mutation,
    /// observable only as saved host work (see [`Tlb::replay_peek`]).
    pub(crate) last: Option<TlbEntry>,
    /// Counters; reset with [`TlbStats::default`] assignment if needed.
    pub stats: TlbStats,
}

/// Shadow/seen key: the ASID in the high bits, the VPN in the low 32.
#[inline]
fn key_of(asid: u16, vpn: u32) -> u64 {
    ((asid as u64) << 32) | vpn as u64
}

impl Tlb {
    /// Create a fully-associative TLB with space for `capacity` entries
    /// (backward-compatible constructor; see [`Tlb::with_geometry`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        Tlb::with_geometry(TlbGeometry::fully_associative(capacity))
    }

    /// Create a TLB with the given set/way geometry.
    pub fn with_geometry(geometry: TlbGeometry) -> Tlb {
        Tlb {
            geometry,
            sets: vec![Vec::with_capacity(geometry.ways); geometry.sets],
            shadow: Vec::with_capacity(geometry.capacity()),
            seen: HashSet::new(),
            current_asid: 0,
            last_miss: sm_trace::MissClass::Cold,
            last: None,
            stats: TlbStats::default(),
        }
    }

    /// The entry a repeat lookup of `vpn` would hit with no state change
    /// beyond `stats.hits += 1` (see the `last` field invariant), or
    /// `None` if the fast path cannot prove that. Callers that take the
    /// shortcut own the hit-counter increment.
    #[inline]
    pub(crate) fn replay_peek(&self, vpn: u32) -> Option<TlbEntry> {
        self.last
            .filter(|e| e.vpn == vpn && e.asid == self.current_asid)
    }

    /// Switch the active address-space identifier. Subsequent fills are
    /// stamped with `asid` and lookups only hit entries stamped with it —
    /// entries belonging to other address spaces stay resident but
    /// unreachable, which is the whole point of tagged TLBs (no flush on
    /// context switch).
    pub fn set_asid(&mut self, asid: u16) {
        self.current_asid = asid;
        self.last = None;
    }

    /// The active address-space identifier (0 unless tagged mode is used).
    pub fn asid(&self) -> u16 {
        self.current_asid
    }

    /// The set/way shape.
    pub fn geometry(&self) -> TlbGeometry {
        self.geometry
    }

    /// Number of entry slots.
    pub fn capacity(&self) -> usize {
        self.geometry.capacity()
    }

    /// Move `key` to the front of the shadow model (inserting if absent),
    /// evicting its own LRU tail at capacity.
    fn shadow_touch(&mut self, key: u64) {
        // With a single set the buffer *is* its own fully-associative
        // shadow: the set's MRU order and the shadow's recency order are
        // the same list, every miss key is absent from both, and conflict
        // misses are structurally zero. Maintaining the duplicate list
        // would recompute the scan-and-rotate `lookup`/`fill` just did on
        // every access, so it is skipped (the shadow stays empty and the
        // miss classifier's `contains` is vacuously false, exactly as the
        // populated shadow would answer).
        if self.geometry.sets == 1 {
            return;
        }
        // MRU-rotation in place: equivalent to remove+insert(0) but one
        // bounded memmove instead of two, and free when already MRU — this
        // runs on every TLB access, so it is part of the step() hot path.
        if self.shadow.first() == Some(&key) {
            return;
        }
        if let Some(i) = self.shadow.iter().position(|v| *v == key) {
            self.shadow[..=i].rotate_right(1);
        } else {
            self.shadow.insert(0, key);
            self.shadow.truncate(self.geometry.capacity());
        }
    }

    /// Drop `vpn` from the shadow for *every* ASID (`invlpg` semantics:
    /// software invalidation is conservative across address spaces).
    fn shadow_drop_vpn(&mut self, vpn: u32) {
        self.shadow.retain(|k| (*k & 0xFFFF_FFFF) != vpn as u64);
    }

    /// Look up a virtual page number in the active address space, updating
    /// hit/miss statistics and the per-set LRU order.
    pub fn lookup(&mut self, vpn: u32) -> Option<TlbEntry> {
        let asid = self.current_asid;
        let si = self.geometry.set_of(vpn);
        if let Some(i) = self.sets[si]
            .iter()
            .position(|e| e.vpn == vpn && e.asid == asid)
        {
            // Rotate the hit entry to MRU in place (identical order to the
            // old remove+insert, without shifting the set twice; a hit on
            // the already-MRU way — the hot-loop common case — moves
            // nothing).
            if i != 0 {
                self.sets[si][..=i].rotate_right(1);
            }
            let e = self.sets[si][0];
            self.shadow_touch(key_of(asid, vpn));
            self.stats.hits += 1;
            self.last = Some(e);
            return Some(e);
        }
        self.stats.misses += 1;
        let key = key_of(asid, vpn);
        if !self.seen.contains(&key) {
            self.stats.cold_misses += 1;
            self.last_miss = sm_trace::MissClass::Cold;
        } else if self.shadow.contains(&key) {
            self.stats.conflict_misses += 1;
            self.last_miss = sm_trace::MissClass::Conflict;
        } else {
            self.stats.capacity_misses += 1;
            self.last_miss = sm_trace::MissClass::Capacity;
        }
        None
    }

    /// 3C class of the most recent miss (valid right after a [`Tlb::lookup`]
    /// that returned `None`; used by the walker's trace emit site).
    pub fn last_miss_class(&self) -> sm_trace::MissClass {
        self.last_miss
    }

    /// Look up a virtual page number in the active address space without
    /// touching statistics or the LRU order (used by tests and by the
    /// kernel when it inspects — rather than simulates — TLB state). Only
    /// the page's own set is searched.
    pub fn peek(&self, vpn: u32) -> Option<TlbEntry> {
        self.sets[self.geometry.set_of(vpn)]
            .iter()
            .find(|e| e.vpn == vpn && e.asid == self.current_asid)
            .copied()
    }

    /// Insert an entry — stamped with the active ASID — replacing any
    /// existing same-ASID entry for the same page and otherwise evicting
    /// the least-recently-used way of the page's set. Returns where the
    /// entry landed and any LRU victim.
    pub fn fill(&mut self, entry: TlbEntry) -> FillOutcome {
        let entry = TlbEntry {
            asid: self.current_asid,
            ..entry
        };
        self.last = Some(entry);
        self.stats.fills += 1;
        self.seen.insert(key_of(entry.asid, entry.vpn));
        self.shadow_touch(key_of(entry.asid, entry.vpn));
        let si = self.geometry.set_of(entry.vpn);
        let set = &mut self.sets[si];
        let mut outcome = FillOutcome {
            set: si as u32,
            way: 0,
            victim: None,
        };
        if let Some(i) = set
            .iter()
            .position(|e| e.vpn == entry.vpn && e.asid == entry.asid)
        {
            if i != 0 {
                set[..=i].rotate_right(1);
            }
            set[0] = entry;
            return outcome;
        }
        if set.len() == self.geometry.ways {
            outcome.victim = set.pop();
            self.stats.evictions += 1;
        }
        set.insert(0, entry);
        outcome
    }

    /// Drop every entry (a CR3 load — e.g. a context switch — does this).
    /// The shadow model is flushed too: a fully-associative buffer takes
    /// the same CR3 hit, so post-flush re-walks are capacity misses, not
    /// conflicts.
    pub fn flush_all(&mut self) {
        self.stats.flushes += 1;
        self.sets.iter_mut().for_each(Vec::clear);
        self.shadow.clear();
        self.last = None;
    }

    /// Drop any entry for `vpn` (`invlpg`). Returns whether one was present.
    pub fn flush_page(&mut self, vpn: u32) -> bool {
        self.stats.page_invalidations += 1;
        self.drop_entry(vpn)
    }

    /// Drop any entry for `vpn` — in *every* address space — without
    /// counting it as a software invalidation (hardware-initiated eviction
    /// on a rights violation). Dropping across ASIDs keeps `invlpg`
    /// conservative: the kernel never has to know which tag a stale
    /// translation was cached under.
    pub fn drop_entry(&mut self, vpn: u32) -> bool {
        self.last = None;
        self.shadow_drop_vpn(vpn);
        let set = &mut self.sets[self.geometry.set_of(vpn)];
        let before = set.len();
        set.retain(|e| e.vpn != vpn);
        set.len() != before
    }

    /// Evict one valid entry chosen by `draw`: the low half of the draw
    /// picks among the non-empty sets, the high half picks the way.
    /// Counted in [`TlbStats::chaos_evictions`] — never in
    /// [`TlbStats::evictions`] — and mirrored into the shadow model so the
    /// victim's re-walk reads as the capacity pressure the injection
    /// simulates, not as a phantom conflict. Returns the evicted entry's
    /// vpn, or `None` if the TLB is empty. Used by the chaos harness.
    pub fn evict_one(&mut self, draw: u64) -> Option<u32> {
        let nonempty: Vec<usize> = (0..self.sets.len())
            .filter(|i| !self.sets[*i].is_empty())
            .collect();
        if nonempty.is_empty() {
            return None;
        }
        let si = nonempty[(draw % nonempty.len() as u64) as usize];
        let wi = ((draw >> 32) % self.sets[si].len() as u64) as usize;
        let victim = self.sets[si].remove(wi);
        self.last = None;
        self.shadow
            .retain(|k| *k != key_of(victim.asid, victim.vpn));
        self.stats.chaos_evictions += 1;
        Some(victim.vpn)
    }

    /// Number of currently valid entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True if no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Iterate over the valid entries (diagnostics / assertions in tests).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.sets.iter().flatten()
    }

    /// Iterate over the sets: `(set index, entries MRU-first)`. The
    /// invariant checker walks the buffer this way so a scan stays honest
    /// about which set a translation can actually live in.
    pub fn iter_sets(&self) -> impl Iterator<Item = (usize, &[TlbEntry])> {
        self.sets.iter().enumerate().map(|(i, s)| (i, s.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u32, pfn: u32) -> TlbEntry {
        TlbEntry {
            vpn,
            pfn,
            asid: 0,
            user: true,
            writable: true,
            nx: false,
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut t = Tlb::new(4);
        t.fill(entry(7, 42));
        assert_eq!(t.lookup(7).unwrap().pfn, 42);
        assert_eq!(t.stats.hits, 1);
        assert_eq!(t.stats.misses, 0);
    }

    #[test]
    fn miss_is_counted_and_classified_cold() {
        let mut t = Tlb::new(4);
        assert!(t.lookup(9).is_none());
        assert_eq!(t.stats.misses, 1);
        assert_eq!(t.stats.cold_misses, 1);
        assert_eq!(t.stats.capacity_misses + t.stats.conflict_misses, 0);
    }

    #[test]
    fn refill_same_page_replaces_in_place() {
        let mut t = Tlb::new(2);
        t.fill(entry(1, 10));
        t.fill(entry(1, 20));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(1).unwrap().pfn, 20);
    }

    #[test]
    fn rights_snapshot_is_what_was_filled() {
        // The core of the split-memory trick: the entry keeps the rights it
        // was filled with even if "the pagetable" would now disagree.
        let mut t = Tlb::new(4);
        t.fill(TlbEntry {
            vpn: 5,
            pfn: 50,
            asid: 0,
            user: true,
            writable: false,
            nx: false,
        });
        let e = t.lookup(5).unwrap();
        assert!(e.user);
        assert!(!e.writable);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = Tlb::new(2);
        t.fill(entry(1, 1));
        t.fill(entry(2, 2));
        t.fill(entry(3, 3)); // evicts vpn 1 (least recently used)
        assert!(t.peek(1).is_none());
        assert!(t.peek(2).is_some());
        assert!(t.peek(3).is_some());
        assert_eq!(t.stats.evictions, 1);
    }

    #[test]
    fn lookup_refreshes_lru_order() {
        let mut t = Tlb::new(2);
        t.fill(entry(1, 1));
        t.fill(entry(2, 2));
        t.lookup(1); // vpn 2 is now least recently used
        t.fill(entry(3, 3));
        assert!(t.peek(1).is_some());
        assert!(t.peek(2).is_none());
        assert!(t.peek(3).is_some());
    }

    /// Regression pin for the pre-rewrite "FIFO" clock hand: the hand only
    /// advanced on evictions, was never reset by `flush_all`, and fills
    /// into free slots recorded no insertion order, so post-flush eviction
    /// order diverged from the documented policy. Under true LRU the
    /// victim after a fill/flush/refill cycle is always the oldest
    /// untouched fill, regardless of pre-flush history.
    #[test]
    fn post_flush_eviction_order_is_documented_lru() {
        let mut t = Tlb::new(2);
        // Pre-flush history that left the old clock hand mid-rotation.
        t.fill(entry(1, 1));
        t.fill(entry(2, 2));
        t.fill(entry(3, 3)); // one eviction; old hand moved to slot 1
        t.flush_all();
        // Refill. The documented policy evicts the oldest fill (vpn 4);
        // the old clock hand would have evicted slot 1 (vpn 5) instead.
        t.fill(entry(4, 4));
        t.fill(entry(5, 5));
        t.fill(entry(6, 6));
        assert!(t.peek(4).is_none(), "victim must be the oldest fill");
        assert!(t.peek(5).is_some());
        assert!(t.peek(6).is_some());
    }

    #[test]
    fn set_index_is_low_vpn_bits() {
        let g = TlbGeometry::new(4, 2);
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(5), 1);
        assert_eq!(g.set_of(0xBFFFF), 3);
        assert_eq!(g.capacity(), 8);
        // Entries land in (and are found from) their own set only.
        let mut t = Tlb::with_geometry(g);
        t.fill(entry(0x10, 1)); // set 0
        t.fill(entry(0x11, 2)); // set 1
        let sets: Vec<(usize, usize)> = t.iter_sets().map(|(i, s)| (i, s.len())).collect();
        assert_eq!(sets, vec![(0, 1), (1, 1), (2, 0), (3, 0)]);
    }

    #[test]
    fn per_set_lru_is_independent_of_other_sets() {
        // 2 sets × 2 ways. Set 0 overflows; set 1 must be untouched.
        let mut t = Tlb::with_geometry(TlbGeometry::new(2, 2));
        t.fill(entry(2, 1)); // set 0
        t.fill(entry(4, 2)); // set 0
        t.fill(entry(1, 3)); // set 1
        t.fill(entry(6, 4)); // set 0: evicts vpn 2 (set-LRU)
        assert!(t.peek(2).is_none());
        assert!(t.peek(4).is_some());
        assert!(t.peek(6).is_some());
        assert!(t.peek(1).is_some(), "other set must not lose entries");
        assert_eq!(t.stats.evictions, 1);
    }

    #[test]
    fn conflict_miss_is_set_pressure_the_shadow_absorbs() {
        // 2 sets × 1 way, capacity 2. VPNs 0 and 2 both index set 0 while
        // the shadow (capacity 2, fully associative) holds both.
        let mut t = Tlb::with_geometry(TlbGeometry::new(2, 1));
        t.fill(entry(0, 1));
        t.fill(entry(2, 2)); // evicts vpn 0 from set 0; shadow keeps both
        assert!(t.lookup(0).is_none());
        assert_eq!(t.stats.conflict_misses, 1, "{:?}", t.stats);
        assert_eq!(t.stats.capacity_misses, 0);
    }

    #[test]
    fn capacity_miss_when_the_shadow_missed_too() {
        // Fully associative, capacity 2: a cyclic scan of 3 pages misses
        // in any same-capacity model — capacity, not conflict.
        let mut t = Tlb::new(2);
        t.fill(entry(1, 1));
        t.fill(entry(2, 2));
        t.fill(entry(3, 3)); // evicts vpn 1 everywhere
        assert!(t.lookup(1).is_none());
        assert_eq!(t.stats.capacity_misses, 1, "{:?}", t.stats);
        assert_eq!(t.stats.conflict_misses, 0);
    }

    #[test]
    fn single_set_geometry_never_reports_conflicts() {
        let mut t = Tlb::new(3);
        for i in 0..64u32 {
            t.lookup(i % 7);
            t.fill(entry(i % 7, i));
        }
        assert_eq!(t.stats.conflict_misses, 0, "{:?}", t.stats);
        assert_eq!(
            t.stats.misses,
            t.stats.cold_misses + t.stats.capacity_misses
        );
    }

    #[test]
    fn flush_all_clears_and_counts() {
        let mut t = Tlb::new(4);
        t.fill(entry(1, 1));
        t.fill(entry(2, 2));
        t.flush_all();
        assert!(t.is_empty());
        assert_eq!(t.stats.flushes, 1);
        // Post-flush re-walks are capacity misses (the shadow flushed
        // too), never conflicts.
        assert!(t.lookup(1).is_none());
        assert_eq!(t.stats.capacity_misses, 1);
        assert_eq!(t.stats.conflict_misses, 0);
    }

    #[test]
    fn chaos_eviction_is_seeded_bounded_and_counted_separately() {
        let mut t = Tlb::new(4);
        assert!(t.evict_one(99).is_none());
        t.fill(entry(1, 1));
        t.fill(entry(2, 2));
        let vpn = t.evict_one(1).unwrap();
        assert!(vpn == 1 || vpn == 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats.chaos_evictions, 1);
        assert_eq!(t.stats.evictions, 0, "chaos must not pollute evictions");
        t.evict_one(0).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.stats.chaos_evictions, 2);
    }

    #[test]
    fn chaos_eviction_picks_set_then_way() {
        // 2 sets × 2 ways, set 1 empty: every draw must pick from set 0.
        let mut t = Tlb::with_geometry(TlbGeometry::new(2, 2));
        t.fill(entry(0, 1));
        t.fill(entry(2, 2));
        for draw in [0u64, 1, 2, (1 << 32) | 1, u64::MAX] {
            let mut probe = t.clone();
            let vpn = probe.evict_one(draw).unwrap();
            assert!(vpn == 0 || vpn == 2, "victim {vpn} from an empty set");
        }
    }

    #[test]
    fn flush_page_only_drops_target() {
        let mut t = Tlb::new(4);
        t.fill(entry(1, 1));
        t.fill(entry(2, 2));
        assert!(t.flush_page(1));
        assert!(!t.flush_page(1)); // already gone
        assert!(t.peek(2).is_some());
    }

    #[test]
    fn miss_classes_always_partition_misses() {
        let mut t = Tlb::with_geometry(TlbGeometry::new(4, 2));
        for i in 0..200u32 {
            let vpn = (i * 7) % 23;
            if t.lookup(vpn).is_none() {
                t.fill(entry(vpn, vpn));
            }
            if i % 31 == 0 {
                t.flush_all();
            }
            if i % 17 == 0 {
                t.flush_page(vpn);
            }
        }
        assert_eq!(
            t.stats.misses,
            t.stats.cold_misses + t.stats.capacity_misses + t.stats.conflict_misses,
            "{:?}",
            t.stats
        );
    }

    #[test]
    fn asid_tags_isolate_address_spaces_without_flushing() {
        let mut t = Tlb::new(4);
        t.fill(entry(7, 42)); // asid 0
        t.set_asid(1);
        // The other address space's entry is resident but unreachable.
        assert!(t.lookup(7).is_none());
        assert!(t.peek(7).is_none());
        assert_eq!(t.len(), 1, "asid miss must not discard the entry");
        // Same page, different frame, different tag: both coexist.
        t.fill(entry(7, 99));
        assert_eq!(t.lookup(7).unwrap().pfn, 99);
        assert_eq!(t.len(), 2);
        t.set_asid(0);
        assert_eq!(t.lookup(7).unwrap().pfn, 42);
    }

    #[test]
    fn fill_stamps_the_active_asid() {
        let mut t = Tlb::new(4);
        t.set_asid(3);
        t.fill(entry(1, 10)); // helper says asid 0; fill must restamp
        assert_eq!(t.peek(1).unwrap().asid, 3);
    }

    #[test]
    fn invlpg_drops_every_asid_for_the_page() {
        let mut t = Tlb::new(4);
        t.fill(entry(5, 1));
        t.set_asid(2);
        t.fill(entry(5, 2));
        assert_eq!(t.len(), 2);
        assert!(t.flush_page(5));
        assert!(t.is_empty(), "invlpg must be conservative across ASIDs");
    }

    #[test]
    fn asid_zero_stream_is_identical_to_untagged_model() {
        // The default configuration never calls set_asid, so the miss
        // classification stream must be exactly what the untagged model
        // produced (byte-identical sweep outputs depend on this).
        let mut t = Tlb::with_geometry(TlbGeometry::new(2, 1));
        t.fill(entry(0, 1));
        t.fill(entry(2, 2));
        assert!(t.lookup(0).is_none());
        assert_eq!(t.stats.conflict_misses, 1, "{:?}", t.stats);
        assert_eq!(t.stats.capacity_misses, 0);
    }

    #[test]
    fn presets_have_the_documented_shapes() {
        let p3 = TlbPreset::pentium3();
        assert_eq!(p3.itlb.capacity(), 32);
        assert_eq!((p3.itlb.sets, p3.itlb.ways), (8, 4));
        assert_eq!(p3.dtlb.capacity(), 64);
        assert_eq!((p3.dtlb.sets, p3.dtlb.ways), (16, 4));
        let compat = TlbPreset::default();
        assert_eq!(compat.itlb.sets, 1);
        assert_eq!(compat.itlb.capacity(), 64);
        assert_eq!(compat, TlbPreset::fully_associative(64));
    }
}
