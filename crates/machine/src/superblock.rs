//! Superblock execution tier: pre-decoded straight-line runs.
//!
//! The decode cache removed per-retire *decode* work but the step loop
//! still pays per-retire *dispatch* work: a full [`Machine::step`] call,
//! a byte-1 I-TLB [`Machine::translate`], a trap-enum match and a
//! per-step trip back through the kernel's `run_slice` bookkeeping — for
//! every instruction of a hot loop whose outcome is already known to be
//! "same page, guaranteed I-TLB hit, retire normally". This module keeps
//! a **superblock cache**: maximal straight-line decode runs keyed by
//! `(physical frame, entry offset)`, executed back-to-back by
//! [`Machine::run_block`] without re-entering the dispatcher. The two
//! caches are independent host state: the decode cache serves
//! [`Machine::step`], superblocks serve [`Machine::run_block`], and
//! neither touches the other.
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

use crate::cpu::{flags, Access, Privilege};
use crate::decode_cache::CachedDecode;
use crate::exec;
use crate::isa::{self, Decoded, Grp5Op, Insn, Rm, SliceSource, UnOp};
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

/// Op is eligible for the batched lane: it cannot transfer control to a
/// dynamic target, cannot syscall and cannot halt, so its only possible
/// outcomes are "retire and fall through", "taken relative branch"
/// ([`F_BRANCH`]) or a precise trap. Everything else (`ret`, `call`,
/// `int`, `hlt`, indirect `Grp5`) terminates its block at build time and
/// runs through the general path.
const F_LANE: u8 = 1 << 0;
/// Op may store to guest memory (stack pushes included): only after one
/// of these can the executing frame's write-generation have moved, so
/// only then does the per-op coherence re-check have anything to catch.
const F_WRITES_MEM: u8 = 1 << 1;
/// Op can mutate registers or flags *before* a fault-capable access
/// (`leave` moves `esp` before its pop; memory-destination ALU ops set
/// flags between the read and the store): precise rollback needs the
/// full pre-op register file, not just `eip`. Ops without this flag
/// reach every `Err` return with all registers untouched, so restoring
/// `eip` alone reconstructs the pre-op state exactly.
const F_FULL_SNAP: u8 = 1 << 2;
/// Relative branch (`jmp rel`, `jcc rel`): infallible, store-free, and
/// the only register it can write is `eip`. The lane pre-sets `eip` to
/// the fall-through and detects a taken branch by `eip` diverging.
const F_BRANCH: u8 = 1 << 3;
/// Op provably returns `Ok(Flow::Normal)` and touches no guest memory
/// (register-only ops and relative branches): no fault path, no store,
/// no trace emission, and exactly `insn_cost` charged. Runs of these
/// execute with the per-op budget check precomputed and the cycle
/// charges batched (see the sub-run in [`Machine::run_block`]).
const F_NO_FAULT: u8 = 1 << 4;

/// Per-op execution flags, derived once at insert time. Every arm is a
/// proof obligation against [`exec::exec_insn`]'s fault ordering; new
/// instructions must be classified here explicitly (no catch-all), and
/// when in doubt `0` (general path, full per-op bookkeeping) is always
/// correct.
fn classify(decoded: &Decoded) -> u8 {
    let Decoded::Insn { insn, .. } = decoded else {
        // `#UD` traps before executing: general path only.
        return 0;
    };
    let mem = |rm: &Rm| matches!(rm, Rm::Mem(_));
    match insn {
        // Dynamic control transfers, syscall gates and halts: excluded
        // from the lane (each also ends its block at build time).
        Insn::Ret
        | Insn::CallRel(_)
        | Insn::Int(_)
        | Insn::Hlt
        | Insn::Grp5 {
            op: Grp5Op::Call | Grp5Op::Jmp,
            ..
        } => 0,
        // Relative branches: infallible and store-free.
        Insn::JmpRel(_) | Insn::JccRel(..) => F_LANE | F_BRANCH | F_NO_FAULT,
        // `leave` sets `esp` from `ebp` before its pop can fault.
        Insn::Leave => F_LANE | F_FULL_SNAP,
        // Stack pushes: the store fault precedes the `esp` update.
        Insn::PushReg(_)
        | Insn::PushImm(_)
        | Insn::Grp5 {
            op: Grp5Op::Push, ..
        } => F_LANE | F_WRITES_MEM,
        // Compare/test: sets flags only after the (sole) possible read
        // fault and never stores, memory operand or not.
        Insn::Alu {
            op: isa::AluOp::Cmp | isa::AluOp::Test,
            ..
        } => F_LANE,
        Insn::AluImm {
            op: isa::AluOp::Cmp,
            rm,
            ..
        } if mem(rm) => F_LANE,
        // Memory-destination ALU: flags are written between the read and
        // the store, so a store fault needs the full register file.
        Insn::Alu {
            dir: isa::Dir::ToRm,
            rm,
            ..
        } if mem(rm) => F_LANE | F_WRITES_MEM | F_FULL_SNAP,
        Insn::AluImm { rm, .. } if mem(rm) => F_LANE | F_WRITES_MEM | F_FULL_SNAP,
        // Memory-destination stores whose flag/register writes all come
        // after the last fault-capable access: light rollback.
        Insn::MovRmReg {
            dir: isa::Dir::ToRm,
            rm,
            ..
        } if mem(rm) => F_LANE | F_WRITES_MEM,
        Insn::MovRmImm { rm, .. } if mem(rm) => F_LANE | F_WRITES_MEM,
        Insn::Shift { rm, .. } if mem(rm) => F_LANE | F_WRITES_MEM,
        Insn::Grp3 {
            op: UnOp::Not | UnOp::Neg,
            rm,
        } if mem(rm) => F_LANE | F_WRITES_MEM,
        Insn::Grp5 {
            op: Grp5Op::Inc | Grp5Op::Dec,
            rm,
        } if mem(rm) => F_LANE | F_WRITES_MEM,
        // Register-only ops: infallible, memory-free, `eip` untouched.
        Insn::Nop
        | Insn::Cdq
        | Insn::MovRegImm(..)
        | Insn::IncReg(_)
        | Insn::DecReg(_)
        | Insn::Lea(..) => F_LANE | F_NO_FAULT,
        Insn::Movzx8 {
            src: Rm::Reg(_), ..
        } => F_LANE | F_NO_FAULT,
        Insn::MovRmReg { rm: Rm::Reg(_), .. }
        | Insn::MovRmImm { rm: Rm::Reg(_), .. }
        | Insn::Alu { rm: Rm::Reg(_), .. }
        | Insn::AluImm { rm: Rm::Reg(_), .. }
        | Insn::Shift { rm: Rm::Reg(_), .. } => F_LANE | F_NO_FAULT,
        Insn::Grp3 {
            op: UnOp::Not | UnOp::Neg | UnOp::Mul,
            rm: Rm::Reg(_),
        } => F_LANE | F_NO_FAULT,
        Insn::Grp5 {
            op: Grp5Op::Inc | Grp5Op::Dec,
            rm: Rm::Reg(_),
        } => F_LANE | F_NO_FAULT,
        // Everything left: loads, stack pops and `div` (whose `#DE`
        // checks precede its register writes). The only possible fault
        // precedes every register/flag write, and nothing is stored.
        Insn::PopReg(_)
        | Insn::Movzx8 { .. }
        | Insn::MovRmReg { .. }
        | Insn::MovRmImm { .. }
        | Insn::Alu { .. }
        | Insn::AluImm { .. }
        | Insn::Shift { .. }
        | Insn::Grp3 { .. }
        | Insn::Grp5 { .. } => F_LANE,
    }
}

/// One cached superblock: the pre-resolved op vector plus per-op
/// execution metadata derived once at build time.
pub struct Block {
    /// Pre-decoded ops in entry order — what the coherence-invariant
    /// checker re-validates against current frame bytes.
    pub ops: Box<[CachedDecode]>,
    /// Per-op `F_*` flags.
    flags: Box<[u8]>,
    /// `runs[i]` is the length of the maximal lane-eligible
    /// ([`F_LANE`]) run starting at op `i` (0 when op `i` itself is not
    /// lane-eligible).
    runs: Box<[u16]>,
    /// Like `runs`, but for [`F_NO_FAULT`] ops (the lane's batched
    /// sub-run).
    fast: Box<[u16]>,
}

impl Block {
    fn new(ops: Vec<CachedDecode>) -> Block {
        let flags: Box<[u8]> = ops.iter().map(|op| classify(&op.decoded)).collect();
        let run_lengths = |bit: u8| {
            let mut runs = vec![0u16; ops.len()].into_boxed_slice();
            let mut run = 0u16;
            for i in (0..ops.len()).rev() {
                run = if flags[i] & bit != 0 { run + 1 } else { 0 };
                runs[i] = run;
            }
            runs
        };
        let runs = run_lengths(F_LANE);
        let fast = run_lengths(F_NO_FAULT);
        Block {
            ops: ops.into(),
            flags,
            runs,
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
    pub fn insert(
        &mut self,
        pfn: u32,
        off: u32,
        version: u64,
        ops: Vec<CachedDecode>,
    ) -> Arc<Block> {
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

/// True if `insn` always diverts control (or traps): the block ends with
/// it. This is an optimization, not a correctness gate — the runtime
/// `eip != next_eip` check catches any control transfer regardless — but
/// stopping here keeps blocks from caching unreachable tails.
fn ends_block(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Ret
            | Insn::Hlt
            | Insn::Int(_)
            | Insn::CallRel(_)
            | Insn::JmpRel(_)
            | Insn::Grp5 {
                op: Grp5Op::Call | Grp5Op::Jmp,
                ..
            }
    )
}

/// Decode a maximal straight-line run from `bytes[entry..]`, stopping at
/// dynamic control transfers, undecodable bytes and the page edge. An
/// instruction whose encoding runs off the slice is *not* included (the
/// continuation page's mapping can change independently of this frame's
/// write-generation, so page-crossers are uncacheable — same rule as the
/// decode cache); an empty result means the entry instruction itself
/// crosses, and the caller must use the slow path.
pub(crate) fn build_block(bytes: &[u8], entry: u32) -> Vec<CachedDecode> {
    let mut ops = Vec::new();
    let mut off = entry as usize;
    while off < bytes.len() {
        let mut src = SliceSource::new(&bytes[off..]);
        let decoded = match isa::decode(&mut src) {
            Ok(d) => d,
            Err(isa::UnexpectedEof) => break,
        };
        let len = src.position() as u8;
        debug_assert!(len > 0, "decoder must consume at least one byte");
        ops.push(CachedDecode { decoded, len });
        match decoded {
            // Undecodable bytes trap; nothing after them ever executes
            // from this entry.
            Decoded::Invalid { .. } => break,
            Decoded::Insn { insn, .. } => {
                if ends_block(&insn) {
                    break;
                }
            }
        }
        off += len as usize;
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
            let ops: &[CachedDecode] = &block.ops;
            let mut eip_i = eip;
            // Set once an executed op may have stored. The version was
            // read at chain entry, store-free ops cannot move it, and the
            // re-check below is exact when it runs — so gating it on
            // `dirty` skips only vacuously-true compares.
            let mut dirty = false;
            let mut i = 0usize;
            'ops: while i < ops.len() {
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
                // Batched lane: a run of lane-eligible ops (everything but
                // dynamic control transfers, `int`, `hlt` and `#UD` bytes
                // — see [`classify`]) past the block entry's real fetch
                // translate. Each lane op's fetch side is exactly {charge
                // `insn_cost`, one I-TLB replay hit}, so those counters
                // are flushed as batched adds at every lane exit; the
                // execute side runs for real (data-TLB walks charge and
                // trace through the canonical counters in-place). The
                // step loop's per-op budget check and the dirty-gated
                // coherence re-check run per op, same as the general
                // path. `regs.eip` is left stale between ops —
                // nothing a lane op executes reads it, and no
                // machine-layer trace event records it — except for
                // branches, which get the fall-through pre-set so a taken
                // transfer is detected by divergence; every other lane
                // exit re-syncs it before control leaves the lane.
                if i > 0 || entry_hot {
                    let i0 = i;
                    let end = i0 + block.runs[i0] as usize;
                    // Counter flush at lane exits: ops `i0..f` fetched
                    // (charged + replay hits), ops `i0..d` also retired.
                    macro_rules! flush {
                        ($f:expr, $d:expr) => {{
                            let (f, d) = (($f - i0) as u64, ($d - i0) as u64);
                            self.itlb.stats.hits += f;
                            self.stats.instructions += d;
                            retired += d;
                        }};
                    }
                    let mut j = i0;
                    while j < end {
                        if j > i0 {
                            if self.cycles >= cycle_limit {
                                flush!(j, j);
                                self.cpu.regs.eip = eip_i;
                                return (retired, Trap::None);
                            }
                            if dirty && self.phys.frame_version(pfn) != version {
                                flush!(j, j);
                                self.cpu.regs.eip = eip_i;
                                self.superblocks.stats.bailouts += 1;
                                break 'ops;
                            }
                        }
                        if block.flags[j] & F_NO_FAULT != 0 {
                            // Infallible sub-run: none of these ops can
                            // fault, store or charge anything but
                            // `insn_cost`, so the per-op budget check is
                            // precomputed (the count that executes before
                            // the check first fails is ceil(remaining /
                            // cost)), the coherence re-check stays exactly
                            // as valid as it was at op `j` (stores are the
                            // only thing that move the version, and there
                            // are none), and the cycle charges land as one
                            // batched add.
                            let lim = end.min(j + block.fast[j] as usize);
                            let want = lim - j;
                            // Budget precomputation avoids the division when
                            // the whole run fits (`want` ≤ block len, so the
                            // product cannot overflow).
                            let n = if insn_cost == 0
                                || want as u64 * insn_cost <= cycle_limit - self.cycles
                            {
                                want
                            } else {
                                let budget = (cycle_limit - self.cycles).div_ceil(insn_cost);
                                want.min(budget.min(u32::MAX as u64) as usize)
                            };
                            let (start, stop) = (j, j + n);
                            let mut taken = false;
                            while j < stop {
                                let op = &ops[j];
                                let Decoded::Insn { insn, .. } = op.decoded else {
                                    unreachable!("no-fault op cannot be Invalid");
                                };
                                eip_i = eip_i.wrapping_add(op.len as u32);
                                if block.flags[j] & F_BRANCH != 0 {
                                    // Branches evaluate inline: `JmpRel` and
                                    // `JccRel` read only `eflags` and write
                                    // only `eip` (the same two arms
                                    // `exec_insn` would run), and a
                                    // not-taken branch leaves `eip` exactly
                                    // where the lane's stale-`eip` invariant
                                    // already has it — dead until the next
                                    // sync point — so only a taken transfer
                                    // touches the register file at all.
                                    j += 1;
                                    let target = match insn {
                                        Insn::JmpRel(rel) => Some(eip_i.wrapping_add(rel as u32)),
                                        Insn::JccRel(cond, rel) => {
                                            exec::cond_holds(&self.cpu.regs.eflags, cond)
                                                .then(|| eip_i.wrapping_add(rel as u32))
                                        }
                                        _ => unreachable!("F_BRANCH is exactly JmpRel/JccRel"),
                                    };
                                    if let Some(t) = target {
                                        if t != eip_i {
                                            self.cpu.regs.eip = t;
                                            taken = true;
                                            break;
                                        }
                                    }
                                } else {
                                    let flow = exec::exec_insn(self, insn, eip_i);
                                    debug_assert!(matches!(flow, Ok(exec::Flow::Normal)));
                                    let _ = flow;
                                    j += 1;
                                }
                            }
                            self.cycles += (j - start) as u64 * insn_cost;
                            if taken {
                                flush!(j, j);
                                if self.cpu.regs.eip == eip
                                    && self.cycles < cycle_limit
                                    && self.phys.frame_version(pfn) == version
                                {
                                    // Self-loop re-entry (see the
                                    // fallible path below for why this is
                                    // exact).
                                    self.superblocks.stats.hits += 1;
                                    entry_hot = true;
                                    eip_i = eip;
                                    dirty = false;
                                    i = 0;
                                    continue 'ops;
                                }
                                break 'ops;
                            }
                            continue;
                        }
                        let op = &ops[j];
                        let fl = block.flags[j];
                        let Decoded::Insn { insn, .. } = op.decoded else {
                            unreachable!("lane-flagged op cannot be Invalid");
                        };
                        let snapshot = (fl & F_FULL_SNAP != 0).then_some(self.cpu.regs);
                        self.cycles += insn_cost;
                        let fall = eip_i.wrapping_add(op.len as u32);
                        if fl & F_BRANCH != 0 {
                            self.cpu.regs.eip = fall;
                        }
                        match exec::exec_insn(self, insn, fall) {
                            Ok(exec::Flow::Normal) => {
                                j += 1;
                                dirty |= fl & F_WRITES_MEM != 0;
                                if fl & F_BRANCH != 0 && self.cpu.regs.eip != fall {
                                    flush!(j, j);
                                    if self.cpu.regs.eip == eip
                                        && self.cycles < cycle_limit
                                        && self.phys.frame_version(pfn) == version
                                    {
                                        // Self-loop: the taken branch
                                        // targets this block's own entry.
                                        // The chain re-entry is replayed
                                        // inline — budget check, version
                                        // re-check (above) and the
                                        // superblock hit `lookup` would
                                        // count for the unchanged key —
                                        // without re-resolving page or
                                        // block. The entry is hot by
                                        // construction: this page's
                                        // fetch translate already ran
                                        // this call.
                                        self.superblocks.stats.hits += 1;
                                        entry_hot = true;
                                        eip_i = eip;
                                        dirty = false;
                                        i = 0;
                                        continue 'ops;
                                    }
                                    // Taken branch: chain from the target.
                                    break 'ops;
                                }
                                eip_i = fall;
                            }
                            Ok(exec::Flow::Syscall { .. } | exec::Flow::Halt) => {
                                unreachable!("int/hlt are never lane-eligible")
                            }
                            Err(e) => {
                                // Fetch-side accounting for the faulting
                                // op already happened (charge + replay
                                // hits), but it did not retire. The
                                // snapshot's `eip` is the lane's stale
                                // value, so the op-start `eip` is forced
                                // in both rollback shapes.
                                if let Some(regs) = snapshot {
                                    self.cpu.regs = regs;
                                }
                                self.cpu.regs.eip = eip_i;
                                flush!(j + 1, j);
                                match e {
                                    exec::Exc::PageFault(pf) => {
                                        self.cpu.regs.cr2 = pf.addr;
                                        self.stats.page_faults += 1;
                                        return (retired, Trap::PageFault(pf));
                                    }
                                    exec::Exc::InvalidOpcode { opcode } => {
                                        self.stats.invalid_opcodes += 1;
                                        return (
                                            retired,
                                            Trap::InvalidOpcode { eip: eip_i, opcode },
                                        );
                                    }
                                    exec::Exc::DivideError => {
                                        self.stats.divide_errors += 1;
                                        return (retired, Trap::DivideError);
                                    }
                                }
                            }
                        }
                    }
                    if j > i0 {
                        flush!(j, j);
                        i = j;
                        self.cpu.regs.eip = eip_i;
                        continue 'ops;
                    }
                }
                let op = &ops[i];
                let op_flags = block.flags[i];
                // Precise-exception rollback state. Most ops reach every
                // possible `Err` with all registers untouched (the fault
                // precedes any write), so restoring `eip` alone is exact;
                // only `F_FULL_SNAP` ops pay the full register-file copy.
                let snapshot = (op_flags & F_FULL_SNAP != 0).then_some(self.cpu.regs);
                let restore = |s: &mut Machine, snapshot: Option<crate::cpu::Regs>| match snapshot {
                    Some(regs) => s.cpu.regs = regs,
                    None => s.cpu.regs.eip = eip_i,
                };
                self.charge(insn_cost);
                if i == 0 && !entry_hot {
                    // First fast-path touch of this page in this call:
                    // byte-1 translation for real — MRU rotation, shadow
                    // recency, hit accounting and any A/D-bit work
                    // exactly as step() would do them. Later same-page
                    // entries replay it as `hits += 1` (see `hot_page`).
                    if let Err(pf) = self.translate(eip_i, Access::Fetch, Privilege::User) {
                        // Unreachable after the peek/rights gate above,
                        // but kept faithful to the slow path regardless.
                        restore(self, snapshot);
                        self.cpu.regs.cr2 = pf.addr;
                        self.stats.page_faults += 1;
                        return (retired, Trap::PageFault(pf));
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
                let insn = match op.decoded {
                    Decoded::Insn { insn, .. } => insn,
                    Decoded::Invalid { opcode } => {
                        restore(self, snapshot);
                        self.stats.invalid_opcodes += 1;
                        return (retired, Trap::InvalidOpcode { eip: eip_i, opcode });
                    }
                };
                self.cpu.regs.eip = next_eip;
                match exec::exec_insn(self, insn, next_eip) {
                    Ok(exec::Flow::Normal) => {
                        self.stats.instructions += 1;
                        retired += 1;
                        dirty |= op_flags & F_WRITES_MEM != 0;
                        if let Some(ev) = self.pending_cfi.take() {
                            // Same drain point as Machine::step: the
                            // transfer already retired, so the per-step and
                            // pipelined trap streams stay identical (calls
                            // and rets always terminate a block and execute
                            // through this general path).
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
                    Ok(exec::Flow::Syscall { vector }) => {
                        self.stats.instructions += 1;
                        self.stats.syscalls += 1;
                        return (retired, Trap::Syscall { vector });
                    }
                    Ok(exec::Flow::Halt) => {
                        self.stats.instructions += 1;
                        return (retired, Trap::Halt);
                    }
                    Err(exec::Exc::PageFault(pf)) => {
                        restore(self, snapshot);
                        self.cpu.regs.cr2 = pf.addr;
                        self.stats.page_faults += 1;
                        return (retired, Trap::PageFault(pf));
                    }
                    Err(exec::Exc::InvalidOpcode { opcode }) => {
                        restore(self, snapshot);
                        self.stats.invalid_opcodes += 1;
                        return (retired, Trap::InvalidOpcode { eip: eip_i, opcode });
                    }
                    Err(exec::Exc::DivideError) => {
                        restore(self, snapshot);
                        self.stats.divide_errors += 1;
                        return (retired, Trap::DivideError);
                    }
                }
            }
            // Fell off the block end (last op ended flush with the page
            // edge), bailed on a version bump, or took a branch: chain.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop(len: u8) -> CachedDecode {
        CachedDecode {
            decoded: Decoded::Insn {
                insn: Insn::Nop,
                len,
            },
            len,
        }
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
        assert!(matches!(
            ops[2].decoded,
            Decoded::Insn {
                insn: Insn::Ret,
                ..
            }
        ));
    }

    #[test]
    fn build_continues_through_conditional_branches() {
        // dec eax; jnz -3; hlt — the fall-through run spans the branch.
        let bytes = [0x48, 0x75, 0xFD, 0xF4];
        let ops = build_block(&bytes, 0);
        assert_eq!(ops.len(), 3);
        assert!(matches!(
            ops[2].decoded,
            Decoded::Insn {
                insn: Insn::Hlt,
                ..
            }
        ));
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
        assert!(matches!(ops[1].decoded, Decoded::Invalid { .. }));
    }
}
