//! Superblock execution tier: pre-decoded straight-line runs.
//!
//! The decode cache removed per-retire *decode* work but the step loop
//! still pays per-retire *dispatch* work: a full [`Machine::step`] call,
//! a byte-1 I-TLB [`Machine::translate`], a trap-enum match and a
//! per-step trip back through the kernel's `run_slice` bookkeeping — for
//! every instruction of a hot loop whose outcome is already known to be
//! "same page, guaranteed I-TLB hit, retire normally". This module keeps
//! a **superblock cache**: maximal straight-line runs of lowered
//! [`Op`] records keyed by `(physical frame, entry offset)`, executed
//! back-to-back by [`Machine::run_block`] without re-entering the
//! dispatcher. Every op runs through the one executor that
//! [`Machine::step`] also uses (see [`crate::exec`]); this module owns
//! only the bookkeeping around it. The two caches are independent host
//! state: the decode cache serves [`Machine::step`], superblocks serve
//! [`Machine::run_block`], and neither touches the other.
//!
//! # Byte-identity
//!
//! The pipeline must be invisible to the modeled machine. Cycle ledger,
//! TLB stats (hits, misses, 3C classes, evictions), [`MachineStats`], the
//! trace ring and every kernel-visible trap must match the per-`step()`
//! path exactly. The key observations that make a fast path possible at
//! all:
//!
//! 1. **A fetch is one I-TLB lookup per page.** [`Machine::step`] makes
//!    one lookup for the page holding an instruction's first byte (plus
//!    one for a page-crosser's next page, and such instructions never
//!    enter a block), so every op here costs exactly one lookup.
//! 2. **Within a block every fetch touches one page.** The block entry
//!    performs the translation *for real* (MRU rotation, shadow recency,
//!    hit/miss accounting, A/D bits). Every later same-block fetch is
//!    then a *guaranteed hit on the same entry*: the set-LRU rotate and
//!    the shadow-model touch are both no-ops for an already-MRU key, so
//!    the only architectural effect is `TlbStats::hits` advancing —
//!    which the fast path replays as a counter increment. Nothing can
//!    evict the entry mid-block: data accesses go through the *data*
//!    TLB, chaos injection is fenced off (the kernel only enters the
//!    pipeline with no plan armed), and the ISA has no TLB-management
//!    instructions.
//! 3. **A translate hit emits no trace event** (only evicts, fills and
//!    flushes are traced), so replayed hits leave the ring untouched.
//!
//! Everything that *cannot* be replayed exactly falls back: a cold or
//! rights-dirty I-TLB entry, a software-TLB machine, a page-crossing
//! entry instruction or an armed trap flag each route through one plain
//! [`Machine::step`], whose accounting is definitionally identical.
//!
//! # Coherence and bailout
//!
//! Like the decode cache, superblocks snapshot the spanned frame's
//! write-generation ([`PhysMemory::frame_version`]) and invalidate
//! lazily when a lookup observes a newer generation. Because a block
//! *executes* for many retires after its lookup, the version is also
//! re-checked **before every subsequent op**: a store that lands in the
//! executing code frame (self-modifying code) bails out of the block
//! before charging the next instruction, and the chain loop re-decodes
//! from the freshly-written bytes — exactly when the per-step decoder
//! would first observe them. Termination points at build time are
//! dynamic control transfers (`ret`, `call`, `jmp`, `int`, `hlt`,
//! indirect `Grp5` call/jmp), undecodable bytes, and the page edge
//! (instructions whose encoding crosses into the next page are never
//! cached, mirroring the decode-cache rule). Conditional branches do
//! *not* terminate a block — the fall-through run continues it, and a
//! taken branch is detected at runtime by `eip` diverging from the
//! decoded fall-through address.
//!
//! Pipeline state is **derived-only**: never serialized by the snapshot
//! codec and rebuilt cold after a restore. Warmth affects no modelled
//! counter, because an op's fetch accounting does not depend on whether
//! its block was cached. Effectiveness counters live in
//! [`SuperblockStats`], outside [`MachineStats`], so equivalence tests
//! can compare the latter for equality.
//!
//! [`MachineStats`]: crate::stats::MachineStats
//! [`PhysMemory::frame_version`]: crate::phys::PhysMemory::frame_version

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::cpu::{flags, Access, Privilege, Regs};
use crate::exec::{self, Flow, Op, F_BRANCH, F_FULL_SNAP, F_NO_FAULT, F_WRITES_MEM};
use crate::machine::{Machine, Trap};
use crate::pte::{self, Frame};

crate::counters! {
    /// Pipeline-effectiveness counters. Deliberately **not** part of
    /// [`MachineStats`](crate::stats::MachineStats): the superblock tier is
    /// transparent to the modeled machine, and keeping these separate lets
    /// the pipeline ≡ per-step proptests compare `MachineStats` for equality.
    pub struct SuperblockStats {
        /// Block entries answered from the cache.
        pub hits: u64,
        /// Blocks decoded and cached (lookup misses).
        pub builds: u64,
        /// Frames whose cached blocks were dropped because the frame was
        /// written (version mismatch observed on lookup).
        pub invalidations: u64,
        /// Blocks abandoned mid-execution because the spanned frame's
        /// write-generation advanced under them (self-modifying code).
        pub bailouts: u64,
        /// Instructions routed through the plain [`Machine::step`] slow path
        /// (cold I-TLB, rights re-walk due, software TLB, page-crossing
        /// entry instruction, armed trap flag).
        pub slow_steps: u64,
    }
}

/// One cached superblock: the lowered ops plus the infallible run
/// lengths derived from their flags once at build time.
pub struct Block {
    /// Lowered ops in entry order — what the coherence-invariant checker
    /// re-validates against current frame bytes.
    pub ops: Box<[Op]>,
    /// `fast[i]` is the length of the maximal run of [`F_NO_FAULT`] ops
    /// starting at op `i` (0 when op `i` itself can fault): the batched
    /// sub-run of [`Machine::run_block`].
    fast: Box<[u16]>,
}

impl Block {
    fn new(ops: Vec<Op>) -> Block {
        let mut fast = vec![0u16; ops.len()].into_boxed_slice();
        let mut run = 0u16;
        for i in (0..ops.len()).rev() {
            run = if ops[i].flags & F_NO_FAULT != 0 {
                run + 1
            } else {
                0
            };
            fast[i] = run;
        }
        Block {
            ops: ops.into(),
            fast,
        }
    }
}

/// Superblocks cached for one physical frame.
struct FrameBlocks {
    /// [`PhysMemory::frame_version`](crate::phys::PhysMemory::frame_version)
    /// observed when these blocks were decoded. A mismatch on lookup
    /// means the frame has been written since: every block is stale.
    version: u64,
    /// Blocks keyed by entry offset. Overlapping blocks (a jump into the
    /// middle of an existing run) simply coexist.
    blocks: BTreeMap<u32, Arc<Block>>,
}

/// Superblock cache over all physical frames; one lives in every
/// [`Machine`] (consulted only by [`Machine::run_block`], so machines
/// driven purely through [`Machine::step`] never populate it).
#[derive(Default)]
pub struct SuperblockCache {
    /// Indexed by PFN; a frame gets a table lazily on its first block.
    /// Starts empty and grows to the highest frame that has a table, like
    /// the decode cache's; a frame past the end has no blocks.
    frames: Vec<Option<Box<FrameBlocks>>>,
    /// Effectiveness counters.
    pub stats: SuperblockStats,
}

impl SuperblockCache {
    /// Empty cache.
    pub fn new() -> SuperblockCache {
        SuperblockCache::default()
    }

    /// Cached block entered at (`pfn`, `off`), if the frame's blocks were
    /// decoded at write-generation `version`. Observing a different
    /// generation drops the frame's blocks (lazy invalidation).
    #[inline]
    pub fn lookup(&mut self, pfn: u32, off: u32, version: u64) -> Option<Arc<Block>> {
        let fb = self.frames.get_mut(pfn as usize)?.as_deref_mut()?;
        if fb.version != version {
            fb.blocks.clear();
            fb.version = version;
            self.stats.invalidations += 1;
            return None;
        }
        let block = fb.blocks.get(&off).cloned();
        if block.is_some() {
            self.stats.hits += 1;
        }
        block
    }

    /// Cache a freshly decoded block entered at (`pfn`, `off`) observed
    /// at write-generation `version`, returning the shared handle.
    pub fn insert(&mut self, pfn: u32, off: u32, version: u64, ops: Vec<Op>) -> Arc<Block> {
        self.stats.builds += 1;
        let i = pfn as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, || None);
        }
        let fb = self.frames[i].get_or_insert_with(|| {
            Box::new(FrameBlocks {
                version,
                blocks: BTreeMap::new(),
            })
        });
        if fb.version != version {
            fb.blocks.clear();
            fb.version = version;
        }
        let block = Arc::new(Block::new(ops));
        fb.blocks.insert(off, Arc::clone(&block));
        block
    }

    /// Iterate the per-frame tables as `(pfn, snapshot_version, blocks)` —
    /// the coherence-invariant checker in `sm-core` skips stale tables by
    /// version (they are one lookup away from lazy invalidation) and
    /// re-decodes live ones against current frame bytes.
    pub fn iter_frames(&self) -> impl Iterator<Item = (u32, u64, &BTreeMap<u32, Arc<Block>>)> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(pfn, fb)| fb.as_deref().map(|fb| (pfn as u32, fb.version, &fb.blocks)))
    }
}

impl std::fmt::Debug for SuperblockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperblockCache")
            .field(
                "frames_cached",
                &self.frames.iter().filter(|f| f.is_some()).count(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

/// Decode and lower a maximal straight-line run from `bytes[entry..]`,
/// stopping after dynamic control transfers and undecodable bytes
/// ([`Op::ends_block`]; a taken conditional branch is caught at run time)
/// and at the page edge. An instruction whose encoding runs off the slice
/// is *not* included (the continuation page's mapping can change
/// independently of this frame's write-generation, so page-crossers are
/// uncacheable — same rule as the decode cache); an empty result means
/// the entry instruction itself crosses, and the caller must use the slow
/// path.
pub(crate) fn build_block(bytes: &[u8], entry: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut off = entry as usize;
    while off < bytes.len() {
        let Ok(op) = Op::decode(&bytes[off..]) else {
            break;
        };
        debug_assert!(op.len > 0, "decoder must consume at least one byte");
        ops.push(op);
        if op.ends_block() {
            break;
        }
        off += op.len as usize;
    }
    ops
}

impl Machine {
    /// Execute instructions through the superblock pipeline until the
    /// cycle counter reaches `cycle_limit` or a trap is due, returning
    /// `(instructions retired, trap)`. `Trap::None` means the budget ran
    /// out; with `retired == 0` the machine did not move at all (the
    /// budget was already exhausted on entry).
    ///
    /// Byte-identical to calling [`Machine::step`] in a loop with the
    /// same budget check before every call — cycles, stats, TLB
    /// counters, trace events and the returned trap all match (see the
    /// [module docs](self) for why). Only the host-side cache counters
    /// differ: this path reads and writes superblocks, never the decode
    /// cache. The caller owns everything a per-step loop would do
    /// *between* retires; this must only be entered when nothing can
    /// happen between them (no chaos plan armed, no stop-sequence watch,
    /// no pending signal — the kernel's `run_slice` enforces exactly
    /// that).
    pub fn run_block(&mut self, cycle_limit: u64) -> (u64, Trap) {
        if self.cpu.regs.flag(flags::TF) {
            // Armed single-step window: the slow path owns trap-flag
            // bookkeeping (#DB accounting, pending syscall single-step).
            self.superblocks.stats.slow_steps += 1;
            return (0, self.step());
        }
        let mut retired: u64 = 0;
        let insn_cost = self.config.costs.insn;
        // `hot_page`: an intra-call memo of the page whose I-TLB entry the
        // last fast-path block entry translated for real. It is *derived*
        // state over a fact invariant within the call (I-TLB entry
        // residency), so it neither outlives the call nor goes stale
        // inside it. That translate left the entry at way
        // 0 of its set and at the front of the shadow recency list, with
        // rights already vetted; and nothing inside the fast path touches
        // the I-TLB afterwards (data accesses go through the D-TLB, and a
        // different page's fetch replaces the memo by re-translating). So
        // a chain re-entry on the same page is a guaranteed hit whose
        // rotate and shadow-touch are both no-ops: `hits += 1` replays it
        // exactly. Any slow [`Machine::step`] clears the memo — its fetch
        // may touch other pages (e.g. a page-crossing instruction).
        let mut hot_page: Option<(u32, u32)> = None;
        loop {
            if self.cycles >= cycle_limit {
                return (retired, Trap::None);
            }
            let eip = self.cpu.regs.eip;
            let vpn = pte::vpn(eip);
            let (pfn, mut entry_hot) = match hot_page {
                Some((hv, hp)) if hv == vpn => (hp, true),
                _ => {
                    let entry = self.itlb.peek(vpn);
                    let usable = entry.is_some_and(|e| {
                        !self.config.software_tlb
                            && Machine::check_entry_rights(
                                &self.config,
                                &e,
                                eip,
                                Access::Fetch,
                                Privilege::User,
                            )
                            .is_ok()
                    });
                    let Some(entry) = entry.filter(|_| usable) else {
                        // Cold I-TLB, rights re-walk due, or software-TLB
                        // fill protocol: one plain step reproduces the
                        // walk/fault/drop-and-trace accounting
                        // definitionally.
                        hot_page = None;
                        self.superblocks.stats.slow_steps += 1;
                        match self.step() {
                            Trap::None => {
                                retired += 1;
                                continue;
                            }
                            t => return (retired, t),
                        }
                    };
                    (entry.pfn, false)
                }
            };
            let off = pte::page_offset(eip);
            let version = self.phys.frame_version(pfn);
            let block = match self.superblocks.lookup(pfn, off, version) {
                Some(b) => b,
                None => {
                    let ops = build_block(self.phys.frame_bytes(Frame(pfn)), off);
                    self.superblocks.insert(pfn, off, version, ops)
                }
            };
            if block.ops.is_empty() {
                // The entry instruction crosses the page edge: uncacheable.
                hot_page = None;
                self.superblocks.stats.slow_steps += 1;
                match self.step() {
                    Trap::None => {
                        retired += 1;
                        continue;
                    }
                    t => return (retired, t),
                }
            }
            let ops: &[Op] = &block.ops;
            // Start of the op about to run. Every op sets `regs.eip`
            // (to its fall-through, or its target when it transfers), so
            // `regs.eip == eip_i` whenever control is between ops.
            let mut eip_i = eip;
            // Set once an executed op may have stored. The version was
            // read at chain entry, store-free ops cannot move it, and the
            // re-check below is exact when it runs — so gating it on
            // `dirty` skips only vacuously-true compares.
            let mut dirty = false;
            let mut i = 0usize;
            while i < ops.len() {
                if i > 0 {
                    if self.cycles >= cycle_limit {
                        return (retired, Trap::None);
                    }
                    if dirty && self.phys.frame_version(pfn) != version {
                        // A store landed in the executing code frame:
                        // every remaining pre-decoded op is suspect. Bail
                        // before charging; the chain re-entry re-decodes
                        // from the freshly written bytes — the same point
                        // the per-step decoder would first observe them.
                        self.superblocks.stats.bailouts += 1;
                        break;
                    }
                }
                let op = &ops[i];
                if op.flags & F_NO_FAULT != 0 && (i > 0 || entry_hot) {
                    // Infallible sub-run past the block entry's real fetch
                    // translate: none of these ops can fault, store or
                    // charge anything but `insn_cost`, and each fetch is a
                    // replay hit. So the per-op budget check is
                    // precomputed (the count that executes before the
                    // check first fails is ceil(remaining / cost)), the
                    // coherence re-check stays exactly as valid as it was
                    // at op `i` (stores are the only thing that move the
                    // version, and there are none), and the cycle
                    // charges, I-TLB hits and retires land as batched
                    // adds.
                    let want = block.fast[i] as usize;
                    // Budget precomputation avoids the division when the
                    // whole run fits (`want` ≤ block len, so the product
                    // cannot overflow).
                    let n =
                        if insn_cost == 0 || want as u64 * insn_cost <= cycle_limit - self.cycles {
                            want
                        } else {
                            let budget = (cycle_limit - self.cycles).div_ceil(insn_cost);
                            want.min(budget.min(u32::MAX as u64) as usize)
                        };
                    let (start, stop) = (i, i + n);
                    let mut taken = false;
                    while i < stop {
                        let op = &ops[i];
                        let fall = eip_i.wrapping_add(op.len as u32);
                        let flow = exec::exec(self, op, fall);
                        debug_assert!(matches!(flow, Ok(Flow::Normal)));
                        i += 1;
                        // Only a relative branch can leave `eip` anywhere
                        // but its fall-through (and a branch to the
                        // fall-through is not taken).
                        if op.flags & F_BRANCH != 0 && self.cpu.regs.eip != fall {
                            taken = true;
                            break;
                        }
                        eip_i = fall;
                    }
                    let ran = (i - start) as u64;
                    self.cycles += ran * insn_cost;
                    self.itlb.stats.hits += ran;
                    self.stats.instructions += ran;
                    retired += ran;
                    if taken {
                        if self.cpu.regs.eip == eip
                            && self.cycles < cycle_limit
                            && self.phys.frame_version(pfn) == version
                        {
                            // Self-loop: the taken branch targets this
                            // block's own entry. The chain re-entry is
                            // replayed inline — budget check, version
                            // re-check and the superblock hit `lookup`
                            // would count for the unchanged key — without
                            // re-resolving page or block. The entry is hot
                            // by construction: this page's fetch translate
                            // already ran this call.
                            self.superblocks.stats.hits += 1;
                            entry_hot = true;
                            eip_i = eip;
                            dirty = false;
                            i = 0;
                            continue;
                        }
                        // Taken branch: chain from the target.
                        break;
                    }
                    continue;
                }
                // Everything else runs one op at a time with the step
                // loop's bookkeeping. Precise-exception rollback state:
                // most ops reach every possible `Err` with all registers
                // but `eip` untouched (the fault precedes any write), so
                // restoring `eip` alone is exact; only `F_FULL_SNAP` ops
                // pay the full register-file copy.
                let snapshot = (op.flags & F_FULL_SNAP != 0).then_some(self.cpu.regs);
                self.charge(insn_cost);
                if i == 0 && !entry_hot {
                    // First fast-path touch of this page in this call:
                    // byte-1 translation for real — MRU rotation, shadow
                    // recency, hit accounting and any A/D-bit work
                    // exactly as step() would do them. Later same-page
                    // entries replay it as `hits += 1` (see `hot_page`).
                    if let Err(pf) = self.translate(eip_i, Access::Fetch, Privilege::User) {
                        // Unreachable after the peek/rights gate above,
                        // but kept faithful to the slow path regardless
                        // (no register has moved yet).
                        return (retired, self.raise(pf.into(), eip_i));
                    }
                    hot_page = Some((vpn, pfn));
                } else {
                    // Guaranteed hit (same page as the op before it, or a
                    // hot block entry): rotate-to-MRU and shadow-touch are
                    // no-ops for a repeated key, so the hit counter is the
                    // lookup's only effect.
                    self.itlb.stats.hits += 1;
                }
                let next_eip = eip_i.wrapping_add(op.len as u32);
                match exec::exec(self, op, next_eip) {
                    Ok(Flow::Normal) => {
                        self.stats.instructions += 1;
                        retired += 1;
                        dirty |= op.flags & F_WRITES_MEM != 0;
                        if let Some(ev) = self.pending_cfi.take() {
                            // Same drain point as Machine::step: the
                            // transfer already retired, so the per-step and
                            // pipelined trap streams stay identical (calls
                            // and rets always terminate a block).
                            return (retired, Trap::ControlFlow(ev));
                        }
                        if self.cpu.regs.eip != next_eip {
                            // Taken branch / call / ret: chain from the
                            // transfer target.
                            break;
                        }
                        eip_i = next_eip;
                        i += 1;
                    }
                    Ok(Flow::Syscall { vector }) => {
                        self.stats.instructions += 1;
                        self.stats.syscalls += 1;
                        return (retired, Trap::Syscall { vector });
                    }
                    Ok(Flow::Halt) => {
                        self.stats.instructions += 1;
                        return (retired, Trap::Halt);
                    }
                    Err(e) => {
                        self.roll_back(snapshot, eip_i);
                        return (retired, self.raise(e, eip_i));
                    }
                }
            }
            // Fell off the block end (last op ended flush with the page
            // edge), bailed on a version bump, or took a branch: chain.
        }
    }

    /// Precise rollback of an op that started at `eip` and raised: the
    /// full pre-op register file for `F_FULL_SNAP` ops, otherwise just
    /// `eip` (nothing else was written before the fault).
    fn roll_back(&mut self, snapshot: Option<Regs>, eip: u32) {
        match snapshot {
            Some(regs) => self.cpu.regs = regs,
            None => self.cpu.regs.eip = eip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::exec::Kind;
    use crate::isa::{Decoded, Insn};

    fn nop(len: u8) -> Op {
        Op::new(
            Decoded::Insn {
                insn: Insn::Nop,
                len,
            },
            len,
        )
    }

    #[test]
    fn lookup_insert_hit_and_version_invalidation() {
        let mut c = SuperblockCache::new();
        assert!(c.lookup(2, 16, 0).is_none());
        c.insert(2, 16, 0, vec![nop(1), nop(1)]);
        assert_eq!(c.lookup(2, 16, 0).unwrap().ops.len(), 2);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.builds, 1);
        // Newer generation: every block in the frame is stale.
        assert!(c.lookup(2, 16, 1).is_none());
        assert_eq!(c.stats.invalidations, 1);
        assert!(c.lookup(2, 16, 1).is_none(), "already cleared");
        assert_eq!(c.stats.invalidations, 1, "no double count");
    }

    #[test]
    fn tables_grow_to_the_highest_frame_with_blocks() {
        let mut c = SuperblockCache::new();
        assert!(c.frames.is_empty(), "nothing allocated up front");
        // Past the end is a plain miss, and looking does not grow.
        assert!(c.lookup(16_383, 0, 0).is_none());
        assert_eq!(c.stats, SuperblockStats::default());
        assert!(c.frames.is_empty());
        c.insert(7, 0, 3, vec![nop(1)]);
        assert_eq!(c.frames.len(), 8);
        c.insert(1, 0, 3, vec![nop(1)]);
        assert_eq!(c.frames.len(), 8, "a lower frame fits the prefix");
        assert!(c.lookup(12, 0, 3).is_none());
        assert!(c.lookup(7, 0, 3).is_some());
        let pfns: Vec<u32> = c.iter_frames().map(|(pfn, _, _)| pfn).collect();
        assert_eq!(pfns, vec![1, 7]);
        assert!(format!("{c:?}").contains("frames_cached: 2"));
    }

    #[test]
    fn build_stops_at_control_transfer() {
        // nop; nop; ret; nop — the trailing nop must not be included.
        let bytes = [0x90, 0x90, 0xC3, 0x90];
        let ops = build_block(&bytes, 0);
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[2].kind, Kind::Ret);
    }

    #[test]
    fn build_continues_through_conditional_branches() {
        // dec eax; jnz -3; hlt — the fall-through run spans the branch.
        let bytes = [0x48, 0x75, 0xFD, 0xF4];
        let ops = build_block(&bytes, 0);
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[2].kind, Kind::Hlt);
    }

    #[test]
    fn build_excludes_page_crossing_tail() {
        // `mov eax, imm32` needs 5 bytes; only 3 remain: not included.
        let bytes = [0x90, 0xB8, 0x01, 0x02];
        let ops = build_block(&bytes, 0);
        assert_eq!(ops.len(), 1, "only the nop fits");
        // Entered *at* the crosser, the block is empty (slow path).
        assert!(build_block(&bytes, 1).is_empty());
    }

    #[test]
    fn build_stops_after_invalid_opcode() {
        // nop; 0x0F (undecodable); nop — invalid terminates, included.
        let bytes = [0x90, 0x0F, 0x90];
        let ops = build_block(&bytes, 0);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].kind, Kind::Invalid);
    }
}
