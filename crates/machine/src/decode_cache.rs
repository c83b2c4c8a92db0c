//! Per-code-frame decoded-instruction cache.
//!
//! [`Machine::step`](crate::Machine::step) normally re-decodes every
//! instruction byte-by-byte through the I-TLB on every retire. This cache
//! keys lowered [`Op`] records by **(physical frame, page offset)**, so a
//! hot loop decodes and lowers each instruction once and then hands the
//! cached record straight to the executor (see [`crate::exec`]).
//!
//! # Coherence
//!
//! Correctness rests on one rule: *any write to a physical frame must
//! invalidate that frame's cached decodes*. Rather than coupling every
//! write path to the cache, [`PhysMemory`](crate::phys::PhysMemory) keeps a
//! per-frame write-generation counter and the cache snapshots it when it
//! first caches decodes from a frame. A lookup that observes a newer
//! generation drops the frame's decodes lazily (counted as an
//! *invalidation*). This mirrors the paper's split-memory semantics:
//! under split memory, instruction fetches target the **code frame** while
//! injected writes land in the **data frame**, so an attack write never
//! perturbs the decode cache — a code-frame invalidation during a
//! data-frame attack would itself be evidence the split leaked (see
//! `sm-core`'s invariant checker).
//!
//! # Transparency
//!
//! The cache is host state: a fetch makes the same I-TLB lookups whether
//! its decode is cached or not (see [`Machine::step`](crate::Machine::step)),
//! and instructions whose encoding crosses a page boundary are never
//! cached. `tests/decode_cache_props.rs` runs arbitrary programs warm and
//! cold and requires identical modelled state, so effectiveness counters
//! live in [`DecodeCacheStats`], *outside*
//! [`MachineStats`](crate::stats::MachineStats).

use crate::exec::Op;
use crate::pte::PAGE_SIZE;

crate::counters! {
    /// Cache-effectiveness counters. Deliberately **not** part of
    /// [`MachineStats`](crate::stats::MachineStats): the cache is transparent
    /// to the modeled machine, and keeping these separate lets the
    /// equivalence proptest compare `MachineStats` for equality.
    pub struct DecodeCacheStats {
        /// Lookups answered from the cache.
        pub hits: u64,
        /// Lookups that fell through to the byte-by-byte decoder.
        pub misses: u64,
        /// Frames whose cached decodes were dropped because the frame was
        /// written (version mismatch observed on lookup).
        pub invalidations: u64,
    }
}

/// Decodes cached for one physical frame.
struct FrameDecodes {
    /// [`PhysMemory::frame_version`](crate::phys::PhysMemory::frame_version)
    /// observed when these entries were cached. A mismatch on lookup means
    /// the frame has been written since: every entry is stale.
    version: u64,
    /// One slot per byte offset an instruction can start at: 0 when nothing
    /// is cached there, else 1 + the decode's index in `entries`. Two bytes
    /// a slot keep the table at 8 KiB, so creating or invalidating one is
    /// cheap and a frame holding a handful of decodes stays small.
    slots: [u16; PAGE_SIZE as usize],
    /// The cached ops, densely, in insertion order.
    entries: Vec<Op>,
}

impl FrameDecodes {
    fn new(version: u64) -> FrameDecodes {
        FrameDecodes {
            version,
            slots: [0; PAGE_SIZE as usize],
            entries: Vec::new(),
        }
    }

    fn clear(&mut self, version: u64) {
        self.slots.fill(0);
        self.entries.clear();
        self.version = version;
    }

    #[inline]
    fn get(&self, off: u32) -> Option<Op> {
        match self.slots[off as usize] {
            0 => None,
            s => Some(self.entries[s as usize - 1]),
        }
    }

    fn insert(&mut self, off: u32, c: Op) {
        match self.slots[off as usize] {
            0 => {
                self.entries.push(c);
                self.slots[off as usize] = self.entries.len() as u16;
            }
            s => self.entries[s as usize - 1] = c,
        }
    }

    /// Every cached op as `(offset, op)`, in ascending offset order. The
    /// scan of `slots` stops once every entry has been yielded.
    fn iter(&self) -> impl Iterator<Item = (u32, Op)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != 0)
            .take(self.entries.len())
            .map(|(off, s)| (off as u32, self.entries[*s as usize - 1]))
    }
}

/// Decoded-instruction cache over all physical frames; one lives in every
/// [`Machine`](crate::Machine), serving [`Machine::step`](crate::Machine::step).
#[derive(Default)]
pub struct DecodeCache {
    /// Indexed by PFN; a frame gets a table lazily on its first cached
    /// decode (8 KiB of slots plus its decodes, per frame that ever
    /// executes code). Starts empty and grows to the highest frame that
    /// has a table, so building, dropping and walking the cache costs the
    /// frames that ran code, not the machine's frame count. A frame past
    /// the end has no table: a lookup there is a miss.
    frames: Vec<Option<Box<FrameDecodes>>>,
    /// Effectiveness counters.
    pub stats: DecodeCacheStats,
}

impl DecodeCache {
    /// Empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Cached op at (`pfn`, `off`), if the frame's decodes were cached at
    /// write-generation `version`. Observing a different generation drops
    /// the frame's decodes (the lazy invalidation path) and counts an
    /// invalidation; both that and a plain absence count a miss.
    #[inline]
    pub fn lookup(&mut self, pfn: u32, off: u32, version: u64) -> Option<Op> {
        let slot = match self
            .frames
            .get_mut(pfn as usize)
            .and_then(|fd| fd.as_deref_mut())
        {
            Some(fd) => {
                if fd.version != version {
                    fd.clear(version);
                    self.stats.invalidations += 1;
                    None
                } else {
                    fd.get(off)
                }
            }
            None => None,
        };
        match slot {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        slot
    }

    /// Cache an op at (`pfn`, `off`) observed at write-generation
    /// `version`. The caller guarantees the encoding lies entirely within
    /// the frame (page-crossing instructions are never cached).
    pub fn insert(&mut self, pfn: u32, off: u32, version: u64, c: Op) {
        debug_assert!(off + c.len.max(1) as u32 <= PAGE_SIZE);
        let i = pfn as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, || None);
        }
        let fd = self.frames[i].get_or_insert_with(|| Box::new(FrameDecodes::new(version)));
        if fd.version != version {
            // The frame was written between this entry's lookup-miss and
            // now (e.g. the byte-1 walk set A/D bits in a pagetable that
            // shares the frame). Restart the table at the new generation.
            fd.clear(version);
        }
        fd.insert(off, c);
    }

    /// Iterate the per-frame tables as `(pfn, snapshot_version, ops)`,
    /// where `ops` yields `(offset, op)` in ascending offset order. The
    /// coherence-invariant checker in `sm-core` skips stale tables by
    /// version without touching their entries, and compares live ones
    /// against [`Op::decode`] of the current frame bytes.
    pub fn iter_frames(
        &self,
    ) -> impl Iterator<Item = (u32, u64, impl Iterator<Item = (u32, Op)> + '_)> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(pfn, fd)| fd.as_deref().map(|fd| (pfn as u32, fd.version, fd.iter())))
    }
}

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field(
                "frames_cached",
                &self.frames.iter().filter(|f| f.is_some()).count(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn miss_insert_hit() {
        let mut c = DecodeCache::new();
        assert_eq!(c.lookup(2, 100, 0), None);
        c.insert(2, 100, 0, nop(1));
        assert_eq!(c.lookup(2, 100, 0), Some(nop(1)));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.invalidations, 0);
    }

    #[test]
    fn version_mismatch_invalidates_whole_frame() {
        let mut c = DecodeCache::new();
        c.insert(1, 0, 7, nop(1));
        c.insert(1, 1, 7, nop(2));
        c.insert(1, 400, 7, nop(2));
        // Same generation: all hit.
        assert!(c.lookup(1, 0, 7).is_some());
        // Newer generation: everything cached for frame 1 is stale, and
        // the table is cleared in place at the new generation.
        assert_eq!(c.lookup(1, 1, 8), None);
        assert_eq!(c.stats.invalidations, 1);
        let fd = c.frames[1].as_deref().unwrap();
        assert_eq!(fd.version, 8);
        assert!(fd.entries.is_empty());
        assert!(fd.slots.iter().all(|s| *s == 0));
        assert_eq!(c.lookup(1, 0, 8), None);
        assert_eq!(c.lookup(1, 400, 8), None);
        assert_eq!(c.stats.invalidations, 1, "already reset; no double count");
    }

    #[test]
    fn frames_are_independent() {
        let mut c = DecodeCache::new();
        c.insert(1, 5, 0, nop(1));
        c.insert(3, 5, 9, nop(3));
        assert!(c.lookup(1, 5, 0).is_some());
        assert!(c.lookup(3, 5, 9).is_some());
        // Invalidate frame 3 only.
        assert!(c.lookup(3, 5, 10).is_none());
        assert!(c.lookup(1, 5, 0).is_some());
        let cached: Vec<_> = c
            .iter_frames()
            .flat_map(|(pfn, version, ops)| ops.map(move |(off, op)| (pfn, version, off, op)))
            .collect();
        assert_eq!(cached, vec![(1, 0, 5, nop(1))]);
    }

    #[test]
    fn iter_frames_visits_offsets_in_ascending_order() {
        let mut c = DecodeCache::new();
        for off in [900, 7, 4000, 0, 31] {
            c.insert(2, off, 3, nop(1));
        }
        c.insert(1, 50, 0, nop(2));
        let seen: Vec<(u32, Vec<u32>)> = c
            .iter_frames()
            .map(|(pfn, _, decodes)| (pfn, decodes.map(|(off, _)| off).collect()))
            .collect();
        assert_eq!(seen, vec![(1, vec![50]), (2, vec![0, 7, 31, 900, 4000])]);
    }

    #[test]
    fn reinsert_at_an_occupied_offset_replaces_in_place() {
        let mut c = DecodeCache::new();
        c.insert(1, 10, 0, nop(1));
        c.insert(1, 20, 0, nop(1));
        c.insert(1, 10, 0, nop(3));
        let fd = c.frames[1].as_deref().unwrap();
        assert_eq!(fd.entries.len(), 2, "used unchanged");
        assert_eq!(c.lookup(1, 10, 0), Some(nop(3)));
        assert_eq!(c.lookup(1, 20, 0), Some(nop(1)));
    }

    #[test]
    fn table_footprint_is_the_slot_index_plus_its_decodes() {
        use std::mem::{size_of, size_of_val};
        let mut c = DecodeCache::new();
        for off in [1, 2, 3, 5, 8, 13, 21, PAGE_SIZE - 1] {
            c.insert(1, off, 0, nop(1));
        }
        let fd = c.frames[1].as_deref().unwrap();
        // The boxed table is the 8 KiB index plus a version and the Vec
        // header; the Vec holds one dense 16-byte op per cached decode,
        // however far apart the decodes sit in the frame.
        assert_eq!(size_of_val(&fd.slots), 8 * 1024);
        assert_eq!(
            size_of::<FrameDecodes>(),
            8 * 1024 + size_of::<u64>() + size_of::<Vec<Op>>()
        );
        assert_eq!(size_of::<Op>(), 16);
        assert_eq!(fd.entries.len(), 8);
    }

    #[test]
    fn tables_grow_to_the_highest_frame_with_decodes() {
        let mut c = DecodeCache::new();
        assert!(c.frames.is_empty(), "nothing allocated up front");
        // Past the end is a plain miss, and looking does not grow.
        assert_eq!(c.lookup(16_383, 0, 0), None);
        assert_eq!((c.stats.misses, c.stats.invalidations), (1, 0));
        assert!(c.frames.is_empty());
        c.insert(5, 8, 1, nop(1));
        assert_eq!(c.frames.len(), 6);
        c.insert(2, 8, 1, nop(1));
        assert_eq!(c.frames.len(), 6, "a lower frame fits the prefix");
        assert_eq!(c.lookup(9, 8, 1), None);
        assert_eq!(c.lookup(5, 8, 1), Some(nop(1)));
        let pfns: Vec<u32> = c.iter_frames().map(|(pfn, _, _)| pfn).collect();
        assert_eq!(pfns, vec![2, 5]);
        assert!(format!("{c:?}").contains("frames_cached: 2"));
    }

    #[test]
    fn insert_at_newer_version_restarts_table() {
        let mut c = DecodeCache::new();
        c.insert(1, 0, 0, nop(1));
        c.insert(1, 9, 2, nop(2));
        assert_eq!(c.lookup(1, 0, 2), None, "older entry dropped");
        assert_eq!(c.lookup(1, 9, 2), Some(nop(2)));
    }
}
