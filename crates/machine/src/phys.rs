//! Simulated physical memory and the frame allocator.
//!
//! Physical memory is a flat byte array divided into 4 KiB frames. Pagetables
//! live *inside* this memory (the hardware walker reads them from here), just
//! like on a real machine, so every pagetable manipulation performed by the
//! simulated kernel is observable by the simulated hardware.
//!
//! Host memory follows the frames the machine has touched, not its modelled
//! capacity: only frames up to the highest one written are backed by host
//! bytes, and every frame past the backing reads as zero.

use crate::pte::{Frame, PAGE_SIZE};
use std::fmt;

const PAGE: usize = PAGE_SIZE as usize;

/// Contents of every frame past the backing.
pub(crate) static ZERO_PAGE: [u8; PAGE] = [0; PAGE];

/// Simulated physical memory plus the allocator that hands out its frames.
///
/// All accessors take *physical* byte addresses. Accesses beyond the end of
/// memory panic: the simulated kernel/hardware is trusted to stay in bounds
/// (virtual-address safety is enforced separately by the MMU).
pub struct PhysMemory {
    /// Contents of frames `0..bytes.len() / PAGE_SIZE`, a whole number of
    /// frames. Frames past the end have never held a nonzero byte and read
    /// as zero; the first write past the end grows the backing (at least
    /// doubling it, capped at [`PhysMemory::frame_count`]).
    bytes: Vec<u8>,
    /// Per-frame write generation, bumped by every mutating accessor. The
    /// decoded-instruction cache snapshots a frame's version when it caches
    /// decodes from that frame and treats any later mismatch as "this frame
    /// was written, drop the decodes" — so *every* write path (user stores,
    /// kernel loads, COW copies, pagetable A/D updates, frame fills) must go
    /// through the methods below. Generation 0 means never written, hence
    /// all zero. The snapshot codec restores generations and contents
    /// verbatim (bypassing `bump`) so they survive a round trip. One entry
    /// per modelled frame: its length is the frame count.
    pub(crate) versions: Vec<u64>,
    /// Allocator over this memory's frames.
    pub allocator: FrameAllocator,
}

impl PhysMemory {
    /// Create `frames` frames of zeroed physical memory. No host memory
    /// backs them until they are written.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is 0 or the total size would overflow a `u32`
    /// physical address space.
    pub fn new(frames: u32) -> PhysMemory {
        assert!(frames > 0, "physical memory must have at least one frame");
        assert!(
            (frames as u64) * (PAGE_SIZE as u64) <= u32::MAX as u64 + 1,
            "physical memory exceeds the 32-bit physical address space"
        );
        PhysMemory {
            bytes: Vec::new(),
            versions: vec![0; frames as usize],
            allocator: FrameAllocator::new(frames),
        }
    }

    /// Write generation of frame `pfn`: monotonically increases with every
    /// write that touches the frame.
    #[inline]
    pub fn frame_version(&self, pfn: u32) -> u64 {
        self.versions[pfn as usize]
    }

    /// Bump the version of every frame a `len`-byte write at `paddr` touches.
    #[inline]
    fn bump(&mut self, paddr: u32, len: usize) {
        let first = (paddr / PAGE_SIZE) as usize;
        let last = (paddr as usize + len.max(1) - 1) / PAGE;
        for f in first..=last {
            self.versions[f] += 1;
        }
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> u32 {
        self.versions.len() as u32
    }

    /// Panic unless `len` bytes at byte address `i` lie inside memory.
    #[cold]
    fn check_range(&self, i: usize, len: usize) {
        assert!(
            i + len <= self.versions.len() * PAGE,
            "physical access of {len} bytes at {i:#x} is past the end of memory"
        );
    }

    /// Read `buf.len()` bytes at byte address `i` that reach past the
    /// backing: the backed prefix is copied, the rest reads as zero.
    #[cold]
    fn read_unbacked(&self, i: usize, buf: &mut [u8]) {
        self.check_range(i, buf.len());
        let backed = self.bytes.get(i..).unwrap_or_default();
        let n = backed.len().min(buf.len());
        buf[..n].copy_from_slice(&backed[..n]);
        buf[n..].fill(0);
    }

    /// The host bytes for `len` bytes at byte address `i`, growing the
    /// backing first if they reach past its end.
    #[inline]
    fn backed_mut(&mut self, i: usize, len: usize) -> &mut [u8] {
        if i + len > self.bytes.len() {
            self.grow(i + len);
        }
        &mut self.bytes[i..i + len]
    }

    /// Back every frame up to byte address `end`: at least double the
    /// backing, capped at the frame count. New frames are zero.
    #[cold]
    fn grow(&mut self, end: usize) {
        self.check_range(end, 0);
        let limit = self.versions.len() * PAGE;
        let len = end
            .next_multiple_of(PAGE)
            .max(2 * self.bytes.len())
            .min(limit);
        self.bytes.reserve_exact(len - self.bytes.len());
        self.bytes.resize(len, 0);
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, paddr: u32) -> u8 {
        match self.bytes.get(paddr as usize) {
            Some(&b) => b,
            None => {
                let mut b = [0];
                self.read_unbacked(paddr as usize, &mut b);
                b[0]
            }
        }
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, paddr: u32, v: u8) {
        self.bump(paddr, 1);
        self.backed_mut(paddr as usize, 1)[0] = v;
    }

    /// Read a little-endian 32-bit word (no alignment requirement).
    #[inline]
    pub fn read_u32(&self, paddr: u32) -> u32 {
        let mut b = [0; 4];
        self.read(paddr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian 32-bit word (no alignment requirement).
    #[inline]
    pub fn write_u32(&mut self, paddr: u32, v: u32) {
        self.write(paddr, &v.to_le_bytes());
    }

    /// Copy `data` into memory starting at `paddr`.
    #[inline]
    pub fn write(&mut self, paddr: u32, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.bump(paddr, data.len());
        self.backed_mut(paddr as usize, data.len())
            .copy_from_slice(data);
    }

    /// Copy `buf.len()` bytes out of memory starting at `paddr`.
    #[inline]
    pub fn read(&self, paddr: u32, buf: &mut [u8]) {
        let i = paddr as usize;
        match self.bytes.get(i..i + buf.len()) {
            Some(src) => buf.copy_from_slice(src),
            None => self.read_unbacked(i, buf),
        }
    }

    /// Byte range of frame `f`.
    #[inline]
    fn frame_range(f: Frame) -> std::ops::Range<usize> {
        let i = f.0 as usize * PAGE;
        i..i + PAGE
    }

    /// Borrow the contents of one frame.
    pub fn frame_bytes(&self, f: Frame) -> &[u8] {
        let r = Self::frame_range(f);
        self.bytes.get(r.clone()).unwrap_or_else(|| {
            self.check_range(r.start, PAGE);
            &ZERO_PAGE
        })
    }

    /// Zero an entire frame. A frame past the backing is already zero, so
    /// only its write generation moves.
    pub fn zero_frame(&mut self, f: Frame) {
        self.versions[f.0 as usize] += 1;
        if let Some(b) = self.bytes.get_mut(Self::frame_range(f)) {
            b.fill(0);
        }
    }

    /// Fill an entire frame with one byte value.
    pub fn fill_frame(&mut self, f: Frame, v: u8) {
        self.versions[f.0 as usize] += 1;
        let i = Self::frame_range(f).start;
        self.backed_mut(i, PAGE).fill(v);
    }

    /// Copy the contents of frame `src` into frame `dst`.
    pub fn copy_frame(&mut self, src: Frame, dst: Frame) {
        let s = Self::frame_range(src);
        if s.end > self.bytes.len() {
            // Never backed, so all zero.
            self.check_range(s.start, PAGE);
            self.zero_frame(dst);
            return;
        }
        self.versions[dst.0 as usize] += 1;
        let d = Self::frame_range(dst).start;
        self.backed_mut(d, PAGE);
        self.bytes.copy_within(s, d);
    }

    /// Overwrite frame `f` with `data` (one frame of bytes) without moving
    /// its write generation: the snapshot codec restores contents and
    /// generations verbatim.
    pub(crate) fn restore_frame(&mut self, f: Frame, data: &[u8]) {
        let i = Self::frame_range(f).start;
        self.backed_mut(i, PAGE).copy_from_slice(data);
    }
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMemory")
            .field("frames", &self.frame_count())
            .field("free", &self.allocator.free_count())
            .finish()
    }
}

/// Error returned when the machine has no free physical frames left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfFrames;

impl fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("out of physical memory frames")
    }
}

impl std::error::Error for OutOfFrames {}

/// Free-list allocator over physical frames.
///
/// Frame 0 is never handed out: a zero PFN in a pagetable entry is reserved
/// so that a completely empty entry is unambiguously "nothing".
///
/// # Invariants
///
/// Every frame in `1..next_fresh` has been handed out and is now either
/// live (nonzero refcount) or on the free list, never both; no other frame
/// is either. [`alloc`](FrameAllocator::alloc),
/// [`free`](FrameAllocator::free), [`retain`](FrameAllocator::retain) and
/// [`release`](FrameAllocator::release) keep the following true, and the
/// snapshot codec refuses to load a state that breaks any of them:
///
/// * each free-list frame is below `next_fresh`, listed once, and has
///   refcount 0;
/// * only frames in `1..next_fresh` have a nonzero refcount;
/// * `allocated` is the number of nonzero refcounts;
/// * `free.len() + allocated == next_fresh - 1`;
/// * `peak >= allocated`.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// Frames returned by [`FrameAllocator::free`], reallocated LIFO. The
    /// snapshot codec serializes this list verbatim (order included): LIFO
    /// recycling order is part of the deterministic allocation stream.
    pub(crate) free: Vec<Frame>,
    /// Lowest never-allocated frame: `next_fresh..total` are all free, so
    /// construction is O(1) instead of materialising the whole free list.
    pub(crate) next_fresh: u32,
    /// Per-frame reference count. `alloc` hands a frame out at count 1;
    /// [`FrameAllocator::retain`] bumps it (COW sharing, shared code
    /// frames); [`FrameAllocator::release`] drops it and only returns the
    /// frame to the free pool when the count reaches 0. The legacy
    /// [`FrameAllocator::free`] path is equivalent to releasing a count-1
    /// frame. A count of 0 means "not allocated".
    pub(crate) refcounts: Vec<u32>,
    pub(crate) total: u32,
    pub(crate) allocated: u32,
    /// High-water mark of simultaneously allocated frames.
    pub(crate) peak: u32,
    /// Total `alloc` calls, successful or not (the fault-injection clock).
    pub(crate) alloc_calls: u64,
    /// Absolute call number at which the next injected failure fires.
    pub(crate) inject_next: Option<u64>,
    /// After the first injected failure, keep failing every N-th call.
    pub(crate) inject_every: Option<u64>,
    /// Failures injected so far.
    pub injected_failures: u64,
}

impl FrameAllocator {
    /// Allocator over frames `1..total` (frame 0 is reserved).
    pub fn new(total: u32) -> FrameAllocator {
        // Fresh frames are handed out in ascending order (recycled frames
        // first, LIFO), which keeps traces readable.
        FrameAllocator {
            free: Vec::new(),
            next_fresh: 1,
            refcounts: vec![0; total as usize],
            total,
            allocated: 0,
            peak: 0,
            alloc_calls: 0,
            inject_next: None,
            inject_every: None,
            injected_failures: 0,
        }
    }

    /// Arrange for the `at`-th allocation from now (1-based) to fail with
    /// [`OutOfFrames`], and — if `every` is set — every `every`-th call
    /// after that. The chaos harness uses this to exercise OOM paths
    /// (two-frame splits, COW, fork, pagetable growth) deterministically.
    pub fn inject_oom(&mut self, at: u64, every: Option<u64>) {
        self.inject_next = Some(self.alloc_calls + at.max(1));
        self.inject_every = every;
    }

    /// Allocate one frame.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when every frame is in use, or when a fault
    /// scheduled via [`FrameAllocator::inject_oom`] is due.
    pub fn alloc(&mut self) -> Result<Frame, OutOfFrames> {
        self.alloc_calls += 1;
        if self.inject_next.is_some_and(|n| self.alloc_calls >= n) {
            self.injected_failures += 1;
            self.inject_next = self.inject_every.map(|e| self.alloc_calls + e.max(1));
            return Err(OutOfFrames);
        }
        let f = match self.free.pop() {
            Some(f) => f,
            None if self.next_fresh < self.total => {
                let f = Frame(self.next_fresh);
                self.next_fresh += 1;
                f
            }
            None => return Err(OutOfFrames),
        };
        self.allocated += 1;
        self.peak = self.peak.max(self.allocated);
        debug_assert_eq!(
            self.refcounts[f.0 as usize], 0,
            "allocator handed out live frame {f}"
        );
        self.refcounts[f.0 as usize] = 1;
        Ok(f)
    }

    /// Total `alloc` calls so far (successful or failed).
    pub fn alloc_calls(&self) -> u64 {
        self.alloc_calls
    }

    /// Return a frame to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if `f` is frame 0 or out of range; double frees are detected in
    /// debug builds only (the check is O(free list)).
    pub fn free(&mut self, f: Frame) {
        assert!(f.0 != 0 && f.0 < self.total, "freeing invalid {f}");
        debug_assert!(f.0 < self.next_fresh, "freeing never-allocated {f}");
        debug_assert!(!self.free.contains(&f), "double free of {f}");
        debug_assert!(
            self.refcounts[f.0 as usize] <= 1,
            "freeing shared frame {f} (refcount {})",
            self.refcounts[f.0 as usize]
        );
        self.refcounts[f.0 as usize] = 0;
        self.allocated -= 1;
        self.free.push(f);
    }

    /// Bump the reference count of an allocated frame (the frame is now
    /// shared: COW after fork, or a pristine code frame mapped into several
    /// address spaces).
    ///
    /// # Panics
    ///
    /// Panics if `f` is frame 0 or out of range; retaining a frame that is
    /// not currently allocated is caught in debug builds.
    pub fn retain(&mut self, f: Frame) {
        assert!(f.0 != 0 && f.0 < self.total, "retaining invalid {f}");
        debug_assert!(
            self.refcounts[f.0 as usize] > 0,
            "retaining unallocated {f}"
        );
        self.refcounts[f.0 as usize] += 1;
    }

    /// Drop one reference to `f`. Returns `true` — and recycles the frame
    /// onto the free list — when this was the last reference.
    ///
    /// # Panics
    ///
    /// Panics if `f` is frame 0 or out of range. Releasing a frame whose
    /// count is already 0 (a double free / refcount underflow) is caught in
    /// debug builds; release builds tolerate it and return `false` so a
    /// long-running sweep degrades instead of corrupting the free list.
    pub fn release(&mut self, f: Frame) -> bool {
        assert!(f.0 != 0 && f.0 < self.total, "releasing invalid {f}");
        let rc = &mut self.refcounts[f.0 as usize];
        debug_assert!(*rc > 0, "refcount underflow on {f}");
        if *rc == 0 {
            return false;
        }
        *rc -= 1;
        if *rc > 0 {
            return false;
        }
        debug_assert!(f.0 < self.next_fresh, "freeing never-allocated {f}");
        debug_assert!(!self.free.contains(&f), "double free of {f}");
        self.allocated -= 1;
        self.free.push(f);
        true
    }

    /// Current reference count of `f` (0 when free or out of range).
    pub fn refcount(&self, f: Frame) -> u32 {
        self.refcounts.get(f.0 as usize).copied().unwrap_or(0)
    }

    /// Number of frames currently free.
    pub fn free_count(&self) -> u32 {
        self.free.len() as u32 + (self.total - self.next_fresh)
    }

    /// Number of frames currently allocated.
    pub fn allocated_count(&self) -> u32 {
        self.allocated
    }

    /// High-water mark of simultaneously allocated frames (memory-overhead
    /// measurements in the evaluation use this).
    pub fn peak_allocated(&self) -> u32 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = PhysMemory::new(4);
        m.write_u32(100, 0xdead_beef);
        assert_eq!(m.read_u32(100), 0xdead_beef);
        assert_eq!(m.read_u8(100), 0xef); // little-endian
        m.write_u8(103, 0x01);
        assert_eq!(m.read_u32(100), 0x01ad_beef);
    }

    #[test]
    fn unaligned_word_access() {
        let mut m = PhysMemory::new(1);
        m.write_u32(1, 0x11223344);
        assert_eq!(m.read_u32(1), 0x11223344);
    }

    #[test]
    fn bulk_copy() {
        let mut m = PhysMemory::new(4);
        m.write(4096, b"hello");
        let mut buf = [0u8; 5];
        m.read(4096, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn frame_versions_track_every_write_path() {
        let mut m = PhysMemory::new(4);
        assert_eq!(m.frame_version(1), 0);
        m.write_u8(Frame(1).base(), 7);
        assert_eq!(m.frame_version(1), 1);
        m.write_u32(Frame(1).base() + 8, 0xdead_beef);
        assert_eq!(m.frame_version(1), 2);
        // A word write straddling a frame boundary bumps both frames.
        m.write_u32(Frame(2).base() - 2, 0x1122_3344);
        assert_eq!(m.frame_version(1), 3);
        assert_eq!(m.frame_version(2), 1);
        // Bulk writes bump every frame they touch; reads bump none.
        m.write(Frame(1).base() + PAGE_SIZE - 4, &[0u8; 8]);
        assert_eq!(m.frame_version(1), 4);
        assert_eq!(m.frame_version(2), 2);
        let mut buf = [0u8; 16];
        m.read(Frame(1).base(), &mut buf);
        assert_eq!(m.read_u8(Frame(1).base()), 7);
        assert_eq!(m.frame_version(1), 4);
        // Frame-granularity ops.
        m.zero_frame(Frame(3));
        m.fill_frame(Frame(3), 0xAA);
        m.copy_frame(Frame(3), Frame(2));
        assert_eq!(m.frame_version(3), 2);
        assert_eq!(m.frame_version(2), 3);
    }

    #[test]
    fn frame_ops() {
        let mut m = PhysMemory::new(4);
        m.fill_frame(Frame(1), 0xAA);
        m.copy_frame(Frame(1), Frame(2));
        assert_eq!(m.read_u8(Frame(2).base() + 123), 0xAA);
        m.zero_frame(Frame(2));
        assert_eq!(m.read_u8(Frame(2).base() + 123), 0);
        assert_eq!(m.read_u8(Frame(1).base() + 123), 0xAA);
    }

    /// Frames currently backed by host bytes.
    fn backed(m: &PhysMemory) -> u32 {
        (m.bytes.len() / PAGE) as u32
    }

    #[test]
    fn never_written_frames_read_as_zero() {
        let mut m = PhysMemory::new(8);
        m.write_u8(Frame(1).base(), 0xAA);
        assert_eq!(backed(&m), 2);
        let f = Frame(6); // past the backing
        assert_eq!(m.read_u8(f.base() + 17), 0);
        assert_eq!(m.read_u32(f.base() + 100), 0);
        let mut buf = [0xFFu8; 32];
        m.read(f.base() + 8, &mut buf);
        assert_eq!(buf, [0; 32]);
        assert_eq!(m.frame_bytes(f), &[0; PAGE][..]);
        // A read that starts in the backing and ends past it.
        let mut buf = [0xFFu8; 8];
        m.read(Frame(2).base() - 4, &mut buf);
        assert_eq!(buf, [0; 8]);
        m.write_u8(Frame(2).base() - 1, 0x11);
        m.read(Frame(2).base() - 4, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0x11, 0, 0, 0, 0]);
        assert_eq!(backed(&m), 2, "reads never grow the backing");
        assert_eq!(m.frame_version(6), 0);
    }

    #[test]
    fn word_write_straddling_the_end_of_the_backing() {
        let mut m = PhysMemory::new(8);
        m.write_u8(Frame(1).base(), 1);
        assert_eq!(backed(&m), 2);
        let end = Frame(2).base();
        assert_eq!(m.read_u32(end - 2), 0, "straddling read of zeros");
        m.write_u32(end - 2, 0x1122_3344);
        assert_eq!(backed(&m), 4, "grown by doubling");
        assert_eq!(m.read_u32(end - 2), 0x1122_3344);
        assert_eq!(m.read_u8(end - 2), 0x44);
        assert_eq!(m.read_u8(end + 1), 0x11);
        assert_eq!((m.frame_version(1), m.frame_version(2)), (2, 1));
    }

    #[test]
    fn a_write_backs_only_up_to_its_doubling_step() {
        let mut m = PhysMemory::new(512);
        assert_eq!(backed(&m), 0, "nothing backed at construction");
        m.write_u8(Frame(5).base() + 9, 1);
        assert_eq!(backed(&m), 6, "frames 0..=5");
        m.write_u32(Frame(6).base(), 1);
        assert_eq!(backed(&m), 12, "one past the end: double");
        m.fill_frame(Frame(40), 0xCC);
        assert_eq!(backed(&m), 41, "far past the end: just enough");
        m.write(Frame(300).base(), &[1; 3 * PAGE]);
        assert_eq!(backed(&m), 303);
        m.copy_frame(Frame(40), Frame(500));
        assert_eq!(backed(&m), 512, "capped at the frame count");
        assert_eq!(m.read_u8(Frame(500).base() + 7), 0xCC);
        // Writes inside the backing never move it.
        m.write_u8(Frame(3).base(), 2);
        assert_eq!(backed(&m), 512);
    }

    #[test]
    fn zero_and_copy_past_the_backing_only_bump_generations() {
        let mut m = PhysMemory::new(16);
        m.write_u8(Frame(1).base(), 0xAA);
        m.zero_frame(Frame(9));
        assert_eq!(m.frame_version(9), 1);
        assert_eq!(backed(&m), 2, "zeroing an unbacked frame does not grow");
        // Copying an unbacked (all-zero) frame zeroes the destination.
        m.copy_frame(Frame(12), Frame(1));
        assert_eq!(m.frame_version(1), 2);
        assert_eq!(m.frame_bytes(Frame(1)), &[0; PAGE][..]);
        m.copy_frame(Frame(12), Frame(10));
        assert_eq!(m.frame_version(10), 1);
        assert_eq!(backed(&m), 2);
    }

    #[test]
    fn out_of_range_accesses_still_panic() {
        fn panics(f: impl FnOnce(&mut PhysMemory)) -> bool {
            let mut m = PhysMemory::new(4);
            m.write_u8(PAGE_SIZE, 1);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut m))).is_err()
        }
        let end = 4 * PAGE_SIZE;
        assert!(panics(|m| {
            m.read_u8(end);
        }));
        assert!(panics(|m| {
            m.read_u32(end - 2);
        }));
        assert!(panics(|m| m.read(end - 4, &mut [0; 8])));
        assert!(panics(|m| {
            m.frame_bytes(Frame(4));
        }));
        assert!(panics(|m| m.write_u8(end, 1)));
        assert!(panics(|m| m.write_u32(end - 1, 1)));
        assert!(panics(|m| m.write(end - 4, &[0; 8])));
        assert!(panics(|m| m.zero_frame(Frame(4))));
        assert!(panics(|m| m.fill_frame(Frame(4), 1)));
        assert!(panics(|m| m.copy_frame(Frame(4), Frame(1))));
        assert!(panics(|m| m.copy_frame(Frame(1), Frame(4))));
        // The last in-range bytes are fine, backed or not.
        assert!(!panics(|m| {
            m.read_u32(end - 4);
        }));
        assert!(!panics(|m| m.write_u32(end - 4, 1)));
    }

    #[test]
    fn allocator_never_hands_out_frame_zero_and_tracks_peak() {
        let mut a = FrameAllocator::new(4); // frames 1,2,3 available
        let mut got = Vec::new();
        while let Ok(f) = a.alloc() {
            assert_ne!(f.0, 0);
            got.push(f);
        }
        assert_eq!(got.len(), 3);
        assert_eq!(a.peak_allocated(), 3);
        for f in got {
            a.free(f);
        }
        assert_eq!(a.free_count(), 3);
        assert_eq!(a.allocated_count(), 0);
        assert_eq!(a.peak_allocated(), 3);
    }

    #[test]
    fn allocator_reuses_freed_frames() {
        let mut a = FrameAllocator::new(3);
        let f1 = a.alloc().unwrap();
        a.free(f1);
        let again = a.alloc().unwrap();
        assert_eq!(again, f1);
    }

    #[test]
    fn injected_oom_fires_at_the_kth_call_then_periodically() {
        let mut a = FrameAllocator::new(64);
        a.inject_oom(3, Some(2));
        assert!(a.alloc().is_ok()); // call 1
        assert!(a.alloc().is_ok()); // call 2
        assert!(a.alloc().is_err()); // call 3: injected
        assert!(a.alloc().is_ok()); // call 4
        assert!(a.alloc().is_err()); // call 5: periodic
        assert_eq!(a.injected_failures, 2);
        assert_eq!(a.alloc_calls(), 5);
        // Injected failures never leak frames.
        assert_eq!(a.allocated_count(), 3);
    }

    #[test]
    #[should_panic(expected = "freeing invalid")]
    fn free_frame_zero_panics() {
        let mut a = FrameAllocator::new(3);
        a.free(Frame(0));
    }

    #[test]
    fn refcounts_share_and_release() {
        let mut a = FrameAllocator::new(8);
        let f = a.alloc().unwrap();
        assert_eq!(a.refcount(f), 1);
        a.retain(f);
        a.retain(f);
        assert_eq!(a.refcount(f), 3);
        // Dropping references keeps the frame allocated until the last one.
        assert!(!a.release(f));
        assert!(!a.release(f));
        assert_eq!(a.allocated_count(), 1);
        assert!(a.release(f));
        assert_eq!(a.refcount(f), 0);
        assert_eq!(a.allocated_count(), 0);
        // Recycled LIFO: the released frame comes back first, at count 1.
        let again = a.alloc().unwrap();
        assert_eq!(again, f);
        assert_eq!(a.refcount(again), 1);
    }

    #[test]
    fn refcount_of_free_or_out_of_range_frame_is_zero() {
        let a = FrameAllocator::new(4);
        assert_eq!(a.refcount(Frame(1)), 0);
        assert_eq!(a.refcount(Frame(999)), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn release_underflow_is_caught_in_debug() {
        // Regression for the recycled-LIFO double-free hazard: releasing a
        // frame past zero must trip the debug assertion instead of pushing
        // the frame onto the free list twice.
        let mut a = FrameAllocator::new(4);
        let f = a.alloc().unwrap();
        assert!(a.release(f));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.release(f)));
        assert!(r.is_err(), "refcount underflow must panic in debug builds");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freeing shared frame")]
    fn legacy_free_of_shared_frame_panics_in_debug() {
        let mut a = FrameAllocator::new(4);
        let f = a.alloc().unwrap();
        a.retain(f);
        a.free(f);
    }
}
