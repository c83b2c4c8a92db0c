//! Serialization of machine state: the wire primitives shared by every
//! snapshot section, plus the codec for the machine itself (CPU, physical
//! memory, frame allocator, both TLBs, tracer metadata) and for the chaos
//! decision stream.
//!
//! The container format — sections, manifest, checksums — lives in
//! `sm-kernel`'s `snapshot` module; this module provides the building
//! blocks. Design rules:
//!
//! * **Verbatim where determinism demands it.** The free-list order, the
//!   per-set TLB MRU order, the shadow model's recency order and the RNG
//!   states are all part of the deterministic event stream; they round-trip
//!   exactly, so a restored run replays byte-for-byte.
//! * **Sparse where memory is big.** Physical frames are stored only when
//!   their contents or write-generation are nonzero; a freshly booted 64 MiB
//!   machine snapshots in kilobytes. The loader accepts the sparse lists
//!   only in the canonical form the saver writes (strictly ascending
//!   indices, no zero entries, contents only for written frames).
//! * **Hostile-input safe.** [`Reader`] bounds-checks every take and never
//!   allocates ahead of the data actually present, so corrupted or
//!   truncated snapshots surface as [`SnapshotError`] values — never as
//!   panics or absurd allocations. The corrupted-snapshot fuzz tests hold
//!   the whole load path to that contract.
//! * **Observations are not state.** The decoded-instruction cache and the
//!   trace ring contents are reconstructible/diagnostic artifacts; only the
//!   tracer's counters and configuration are serialized, and the decode
//!   cache restores cold (it is transparent to the modeled machine).

use crate::chaos::{ChaosState, ChaosStats, FaultPlan};
use crate::costs::CycleCosts;
use crate::machine::{Machine, MachineConfig};
use crate::phys::{PhysMemory, ZERO_PAGE};
use crate::pte::{Frame, PAGE_SIZE};
use crate::stats::MachineStats;
use crate::tlb::{Tlb, TlbEntry, TlbGeometry, TlbPreset, TlbStats};
use sm_rng::StdRng;
use sm_trace::Tracer;
use std::fmt;

/// Largest tracer ring capacity a snapshot may claim. Far above any real
/// configuration; exists so a corrupted capacity field cannot demand an
/// absurd allocation as the restored ring fills.
pub const MAX_TRACE_CAPACITY: usize = 1 << 22;

/// Largest TLB set/way count a snapshot may claim (per dimension).
pub const MAX_TLB_DIM: usize = 1 << 16;

/// Why a snapshot failed to load. Every corruption mode the chaos harness
/// injects (and the fuzz tests generate) must land in one of these — a
/// snapshot that loads wrongly instead of erroring is a format bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The leading magic bytes are wrong: not a snapshot at all.
    BadMagic,
    /// The format version is newer (or garbage) relative to this reader.
    UnsupportedVersion {
        /// Version field found in the header.
        found: u32,
    },
    /// The byte stream ended before a field it promised.
    Truncated,
    /// A section's payload does not hash to its manifest digest.
    SectionChecksum {
        /// Four-byte section tag, as ASCII.
        tag: [u8; 4],
    },
    /// The manifest itself does not hash to its recorded digest (covers
    /// reordered, duplicated or retagged sections).
    ManifestChecksum,
    /// The same section tag appears twice in the manifest.
    DuplicateSection {
        /// The repeated tag.
        tag: [u8; 4],
    },
    /// A section the loader requires is absent.
    MissingSection {
        /// The absent tag.
        tag: [u8; 4],
    },
    /// A field decoded but its value is structurally impossible (bad bool
    /// byte, out-of-range frame number, non-power-of-two set count, …).
    Malformed(&'static str),
    /// The snapshot was taken under a different protection engine than the
    /// one offered for restore.
    EngineMismatch {
        /// Engine name recorded in the snapshot.
        expected: String,
        /// Engine name offered at restore time.
        found: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ascii(tag: &[u8; 4]) -> String {
            tag.iter().map(|b| *b as char).collect()
        }
        match self {
            SnapshotError::BadMagic => f.write_str("bad snapshot magic"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Truncated => f.write_str("snapshot truncated"),
            SnapshotError::SectionChecksum { tag } => {
                write!(f, "section '{}' checksum mismatch", ascii(tag))
            }
            SnapshotError::ManifestChecksum => f.write_str("manifest checksum mismatch"),
            SnapshotError::DuplicateSection { tag } => {
                write!(f, "duplicate section '{}'", ascii(tag))
            }
            SnapshotError::MissingSection { tag } => {
                write!(f, "missing section '{}'", ascii(tag))
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::EngineMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot taken under engine '{expected}', restoring with '{found}'"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian byte-stream builder for snapshot payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append an `Option<u64>` as a presence byte plus (when present) the
    /// value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    /// Append an `Option<u32>` as a presence byte plus (when present) the
    /// value.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }

    /// Append a u64 length prefix followed by the bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append raw bytes with no length prefix (fixed-size payloads whose
    /// length the reader already knows).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked reader over a snapshot byte stream. Every accessor
/// returns [`SnapshotError::Truncated`] instead of reading past the end,
/// and length-prefixed reads verify the claimed length against the bytes
/// actually remaining *before* allocating.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Take `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Take a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take_raw(2)?.try_into().unwrap()))
    }

    /// Take a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_raw(4)?.try_into().unwrap()))
    }

    /// Take a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_raw(8)?.try_into().unwrap()))
    }

    /// Take a bool byte; anything but 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool byte not 0 or 1")),
        }
    }

    /// Take an `Option<u64>` (presence byte + value).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Malformed("option tag not 0 or 1")),
        }
    }

    /// Take an `Option<u32>` (presence byte + value).
    pub fn opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(SnapshotError::Malformed("option tag not 0 or 1")),
        }
    }

    /// Take a u64-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapshotError::Truncated);
        }
        Ok(self.take_raw(n as usize)?.to_vec())
    }

    /// Take a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapshotError::Malformed("invalid utf-8"))
    }

    /// Take a usize stored as u64, rejecting values above `max` (guards
    /// element counts before any allocation or loop trusts them).
    pub fn count(&mut self, max: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if n > max as u64 {
            return Err(SnapshotError::Malformed("count out of range"));
        }
        Ok(n as usize)
    }
}

// ---- machine codec --------------------------------------------------------

fn write_costs(w: &mut Writer, c: &CycleCosts) {
    for v in [
        c.insn,
        c.tlb_walk,
        c.exception,
        c.syscall,
        c.cr3_load,
        c.invlpg,
        c.pf_handler,
        c.split_data_reload,
        c.split_code_reload,
        c.debug_handler,
        c.demand_page,
        c.cow_copy,
        c.context_switch,
        c.copy_byte,
        c.soft_tlb_fill,
        c.icache_flush,
    ] {
        w.u64(v);
    }
}

fn read_costs(r: &mut Reader) -> Result<CycleCosts, SnapshotError> {
    Ok(CycleCosts {
        insn: r.u64()?,
        tlb_walk: r.u64()?,
        exception: r.u64()?,
        syscall: r.u64()?,
        cr3_load: r.u64()?,
        invlpg: r.u64()?,
        pf_handler: r.u64()?,
        split_data_reload: r.u64()?,
        split_code_reload: r.u64()?,
        debug_handler: r.u64()?,
        demand_page: r.u64()?,
        cow_copy: r.u64()?,
        context_switch: r.u64()?,
        copy_byte: r.u64()?,
        soft_tlb_fill: r.u64()?,
        icache_flush: r.u64()?,
    })
}

fn read_geometry(r: &mut Reader) -> Result<TlbGeometry, SnapshotError> {
    let sets = r.count(MAX_TLB_DIM)?;
    let ways = r.count(MAX_TLB_DIM)?;
    if sets == 0 || !sets.is_power_of_two() {
        return Err(SnapshotError::Malformed("TLB set count not a power of two"));
    }
    if ways == 0 {
        return Err(SnapshotError::Malformed("TLB way count is zero"));
    }
    Ok(TlbGeometry::new(sets, ways))
}

fn write_config(w: &mut Writer, c: &MachineConfig) {
    w.u32(c.phys_frames);
    w.u64(c.tlb.itlb.sets as u64);
    w.u64(c.tlb.itlb.ways as u64);
    w.u64(c.tlb.dtlb.sets as u64);
    w.u64(c.tlb.dtlb.ways as u64);
    w.bool(c.nx_enabled);
    w.bool(c.software_tlb);
    // Decode-cache byte: the cache is host state with no switch, but the
    // byte stays on the wire (always 1, ignored on load) so existing dumps
    // keep their layout.
    w.bool(true);
    w.u32(c.trace);
    w.u64(c.trace_capacity as u64);
    write_costs(w, &c.costs);
}

fn read_config(r: &mut Reader) -> Result<MachineConfig, SnapshotError> {
    let phys_frames = r.u32()?;
    if phys_frames == 0 {
        return Err(SnapshotError::Malformed("zero physical frames"));
    }
    if phys_frames as u64 * PAGE_SIZE as u64 > u32::MAX as u64 + 1 {
        return Err(SnapshotError::Malformed("physical memory too large"));
    }
    let itlb = read_geometry(r)?;
    let dtlb = read_geometry(r)?;
    let nx_enabled = r.bool()?;
    let software_tlb = r.bool()?;
    let _decode_cache = r.bool()?;
    Ok(MachineConfig {
        phys_frames,
        tlb: TlbPreset { itlb, dtlb },
        nx_enabled,
        software_tlb,
        trace: r.u32()?,
        trace_capacity: r.count(MAX_TRACE_CAPACITY)?,
        // Never serialized: the kernel re-arms it from the restored
        // engine's `wants_cfi_events`, keeping the dump format stable.
        cfi_events: false,
        costs: read_costs(r)?,
    })
}

fn write_tlb_stats(w: &mut Writer, s: &TlbStats) {
    for v in [
        s.hits,
        s.misses,
        s.cold_misses,
        s.capacity_misses,
        s.conflict_misses,
        s.fills,
        s.flushes,
        s.page_invalidations,
        s.evictions,
        s.chaos_evictions,
    ] {
        w.u64(v);
    }
}

fn read_tlb_stats(r: &mut Reader) -> Result<TlbStats, SnapshotError> {
    Ok(TlbStats {
        hits: r.u64()?,
        misses: r.u64()?,
        cold_misses: r.u64()?,
        capacity_misses: r.u64()?,
        conflict_misses: r.u64()?,
        fills: r.u64()?,
        flushes: r.u64()?,
        page_invalidations: r.u64()?,
        evictions: r.u64()?,
        chaos_evictions: r.u64()?,
    })
}

fn write_tlb(w: &mut Writer, t: &Tlb) {
    w.u16(t.current_asid);
    w.u8(match t.last_miss {
        sm_trace::MissClass::Cold => 0,
        sm_trace::MissClass::Conflict => 1,
        sm_trace::MissClass::Capacity => 2,
    });
    write_tlb_stats(w, &t.stats);
    // Per-set contents, MRU-first, exactly as resident: replacement order
    // is part of the deterministic miss stream.
    w.u64(t.sets.len() as u64);
    for set in &t.sets {
        w.u64(set.len() as u64);
        for e in set {
            w.u32(e.vpn);
            w.u32(e.pfn);
            w.u16(e.asid);
            w.bool(e.user);
            w.bool(e.writable);
            w.bool(e.nx);
        }
    }
    // Shadow recency order verbatim; `seen` sorted for canonical bytes.
    w.u64(t.shadow.len() as u64);
    for k in &t.shadow {
        w.u64(*k);
    }
    let mut seen: Vec<u64> = t.seen.iter().copied().collect();
    seen.sort_unstable();
    w.u64(seen.len() as u64);
    for k in seen {
        w.u64(k);
    }
}

fn read_tlb(r: &mut Reader, t: &mut Tlb) -> Result<(), SnapshotError> {
    let geometry = t.geometry();
    // The repeat-hit memo is derived state (never serialized): a restored
    // TLB starts without one and re-earns it on its first hit or fill.
    t.last = None;
    t.current_asid = r.u16()?;
    t.last_miss = match r.u8()? {
        0 => sm_trace::MissClass::Cold,
        1 => sm_trace::MissClass::Conflict,
        2 => sm_trace::MissClass::Capacity,
        _ => return Err(SnapshotError::Malformed("unknown miss class")),
    };
    t.stats = read_tlb_stats(r)?;
    let nsets = r.count(MAX_TLB_DIM)?;
    if nsets != geometry.sets {
        return Err(SnapshotError::Malformed(
            "TLB set count disagrees with geometry",
        ));
    }
    for si in 0..nsets {
        let n = r.count(geometry.ways)?;
        let set = &mut t.sets[si];
        set.clear();
        for _ in 0..n {
            let e = TlbEntry {
                vpn: r.u32()?,
                pfn: r.u32()?,
                asid: r.u16()?,
                user: r.bool()?,
                writable: r.bool()?,
                nx: r.bool()?,
            };
            if geometry.set_of(e.vpn) != si {
                return Err(SnapshotError::Malformed("TLB entry in wrong set"));
            }
            set.push(e);
        }
    }
    let nshadow = r.count(geometry.capacity())?;
    t.shadow.clear();
    for _ in 0..nshadow {
        t.shadow.push(r.u64()?);
    }
    let nseen = r.count(r.remaining() / 8)?;
    t.seen.clear();
    for _ in 0..nseen {
        t.seen.insert(r.u64()?);
    }
    Ok(())
}

/// Physical memory, sparse — frames with a nonzero write generation, then
/// frames with nonzero contents (raw 4 KiB payloads) — and the frame
/// allocator, verbatim (free-list order included).
fn write_phys(w: &mut Writer, p: &PhysMemory) {
    let frames = p.frame_count();
    let nonzero_vers: Vec<u32> = (0..frames)
        .filter(|f| p.versions[*f as usize] != 0)
        .collect();
    w.u64(nonzero_vers.len() as u64);
    for f in nonzero_vers {
        w.u32(f);
        w.u64(p.versions[f as usize]);
    }
    let nonzero_frames: Vec<u32> = (0..frames)
        .filter(|f| {
            // Write generation 0 means the frame was never written, so it
            // is still all-zero — skipping it turns this scan from all of
            // physical memory into just the touched frames, which is what
            // makes `save` cheap enough to call per segment boundary.
            // Touched frames still get the content check (a frame can be
            // written back to zero), as a single memcmp.
            p.versions[*f as usize] != 0 && p.frame_bytes(Frame(*f)) != ZERO_PAGE
        })
        .collect();
    w.u64(nonzero_frames.len() as u64);
    for f in nonzero_frames {
        w.u32(f);
        w.raw(p.frame_bytes(Frame(f)));
    }
    let a = &p.allocator;
    w.u64(a.free.len() as u64);
    for f in &a.free {
        w.u32(f.0);
    }
    w.u32(a.next_fresh);
    let nonzero_rc: Vec<u32> = (0..a.total)
        .filter(|f| a.refcounts[*f as usize] != 0)
        .collect();
    w.u64(nonzero_rc.len() as u64);
    for f in nonzero_rc {
        w.u32(f);
        w.u32(a.refcounts[f as usize]);
    }
    w.u32(a.total);
    w.u32(a.allocated);
    w.u32(a.peak);
    w.u64(a.alloc_calls);
    w.opt_u64(a.inject_next);
    w.opt_u64(a.inject_every);
    w.u64(a.injected_failures);
}

/// Serialize the complete architectural state of a machine. The decoded-
/// instruction cache and the trace ring contents are intentionally not
/// state (see module docs); everything else round-trips exactly.
pub fn save_machine(m: &Machine) -> Vec<u8> {
    let mut w = Writer::new();
    write_config(&mut w, &m.config);
    w.u64(m.cycles);
    for g in m.cpu.regs.gpr {
        w.u32(g);
    }
    w.u32(m.cpu.regs.eip);
    w.u32(m.cpu.regs.eflags);
    w.u32(m.cpu.regs.cr2);
    w.u32(m.cpu.regs.cr3);
    w.bool(m.pending_singlestep);
    for v in [
        m.stats.instructions,
        m.stats.walks,
        m.stats.page_faults,
        m.stats.invalid_opcodes,
        m.stats.debug_traps,
        m.stats.divide_errors,
        m.stats.syscalls,
        m.stats.cr3_loads,
        m.stats.invlpgs,
    ] {
        w.u64(v);
    }
    write_phys(&mut w, &m.phys);
    write_tlb(&mut w, &m.itlb);
    write_tlb(&mut w, &m.dtlb);
    // Tracer metadata (mask/capacity/seq/filter — not the ring contents).
    w.u32(m.tracer.enabled());
    w.u64(m.tracer.capacity() as u64);
    w.u64(m.tracer.emitted());
    w.opt_u32(m.tracer.pid_filter());
    w.into_bytes()
}

/// Rebuild a machine from [`save_machine`] bytes.
///
/// # Errors
///
/// Any structural or bounds violation in the byte stream returns a
/// [`SnapshotError`]; corrupted input never panics.
pub fn load_machine(bytes: &[u8]) -> Result<Machine, SnapshotError> {
    let mut r = Reader::new(bytes);
    let m = load_machine_from(&mut r)?;
    if !r.is_done() {
        return Err(SnapshotError::Malformed(
            "trailing bytes after machine state",
        ));
    }
    Ok(m)
}

/// Accept frame index `f` of a sparse list only if it is above the
/// previous one (`prev`, updated).
fn ascending(prev: &mut Option<u32>, f: u32) -> Result<(), SnapshotError> {
    if prev.is_some_and(|p| f <= p) {
        return Err(SnapshotError::Malformed(
            "sparse frame list not strictly ascending",
        ));
    }
    *prev = Some(f);
    Ok(())
}

/// Read what [`write_phys`] wrote into `p`, a fresh memory of the same
/// frame count.
fn read_phys(r: &mut Reader, p: &mut PhysMemory) -> Result<(), SnapshotError> {
    // The three sparse frame lists (generations, contents, refcounts) are
    // accepted only in the canonical form `save_machine` writes: strictly
    // ascending indices and no zero entries. Anything else would restore
    // state that the next save silently drops or rewrites.
    let frames = p.frame_count();
    let nvers = r.count(frames as usize)?;
    let mut prev = None;
    for _ in 0..nvers {
        let f = r.u32()?;
        let v = r.u64()?;
        if f >= frames {
            return Err(SnapshotError::Malformed("frame version index out of range"));
        }
        ascending(&mut prev, f)?;
        if v == 0 {
            return Err(SnapshotError::Malformed("zero frame version entry"));
        }
        // Restored verbatim, bypassing `bump`: generations must survive the
        // round trip unchanged or decode-cache invalidation would diverge.
        p.versions[f as usize] = v;
    }
    let nframes = r.count(frames as usize)?;
    let mut prev = None;
    for _ in 0..nframes {
        let f = r.u32()?;
        if f >= frames {
            return Err(SnapshotError::Malformed("frame content index out of range"));
        }
        ascending(&mut prev, f)?;
        // Generation 0 means never written, hence all zero: save skips such
        // frames without looking at their bytes.
        if p.versions[f as usize] == 0 {
            return Err(SnapshotError::Malformed(
                "frame contents without a write generation",
            ));
        }
        let data = r.take_raw(PAGE_SIZE as usize)?;
        p.restore_frame(Frame(f), data);
    }
    let a = &mut p.allocator;
    let nfree = r.count(a.total as usize)?;
    a.free.clear();
    for _ in 0..nfree {
        let f = r.u32()?;
        if f == 0 || f >= a.total {
            return Err(SnapshotError::Malformed("free-list frame out of range"));
        }
        a.free.push(Frame(f));
    }
    a.next_fresh = r.u32()?;
    if a.next_fresh == 0 || a.next_fresh > a.total {
        return Err(SnapshotError::Malformed("next_fresh out of range"));
    }
    let nrc = r.count(a.total as usize)?;
    a.refcounts.iter_mut().for_each(|rc| *rc = 0);
    let mut prev = None;
    for _ in 0..nrc {
        let f = r.u32()?;
        let rc = r.u32()?;
        if f as usize >= a.refcounts.len() {
            return Err(SnapshotError::Malformed("refcount frame out of range"));
        }
        ascending(&mut prev, f)?;
        if rc == 0 {
            return Err(SnapshotError::Malformed("zero refcount entry"));
        }
        a.refcounts[f as usize] = rc;
    }
    let total = r.u32()?;
    if total != a.total {
        return Err(SnapshotError::Malformed(
            "allocator total disagrees with config",
        ));
    }
    a.allocated = r.u32()?;
    a.peak = r.u32()?;
    a.alloc_calls = r.u64()?;
    a.inject_next = r.opt_u64()?;
    a.inject_every = r.opt_u64()?;
    a.injected_failures = r.u64()?;
    Ok(())
}

fn load_machine_from(r: &mut Reader) -> Result<Machine, SnapshotError> {
    let config = read_config(r)?;
    let mut m = Machine::new(config);
    m.cycles = r.u64()?;
    for g in m.cpu.regs.gpr.iter_mut() {
        *g = r.u32()?;
    }
    m.cpu.regs.eip = r.u32()?;
    m.cpu.regs.eflags = r.u32()?;
    m.cpu.regs.cr2 = r.u32()?;
    m.cpu.regs.cr3 = r.u32()?;
    m.pending_singlestep = r.bool()?;
    m.stats = MachineStats {
        instructions: r.u64()?,
        walks: r.u64()?,
        page_faults: r.u64()?,
        invalid_opcodes: r.u64()?,
        debug_traps: r.u64()?,
        divide_errors: r.u64()?,
        syscalls: r.u64()?,
        cr3_loads: r.u64()?,
        invlpgs: r.u64()?,
    };
    read_phys(r, &mut m.phys)?;
    read_tlb(r, &mut m.itlb)?;
    read_tlb(r, &mut m.dtlb)?;
    let mask = r.u32()?;
    let capacity = r.count(MAX_TRACE_CAPACITY)?;
    let next_seq = r.u64()?;
    let pid_filter = r.opt_u32()?;
    m.tracer = Tracer::restore_meta(mask, capacity, next_seq, pid_filter);
    Ok(m)
}

// ---- chaos codec ----------------------------------------------------------

/// Serialize a [`FaultPlan`] in field-declaration order. Shared by the
/// chaos codec below, the kernel snapshot's CONF section, and the chaos
/// bench's failure-dump header, so a plan written anywhere reads back
/// everywhere.
pub fn write_plan(w: &mut Writer, p: &FaultPlan) {
    w.opt_u64(p.flush_every);
    w.opt_u64(p.evict_every);
    w.opt_u64(p.preempt_every);
    w.opt_u64(p.oom_at);
    w.opt_u64(p.oom_every_after);
    w.bool(p.signal_in_window);
    w.bool(p.flush_in_window);
    w.opt_u64(p.fs_error_every);
    w.opt_u64(p.fs_short_every);
    w.opt_u64(p.snap_fault_every);
    w.u64(p.seed);
}

/// Deserialize a [`FaultPlan`] written by [`write_plan`].
///
/// # Errors
///
/// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`] on any
/// structural violation.
pub fn read_plan(r: &mut Reader) -> Result<FaultPlan, SnapshotError> {
    Ok(FaultPlan {
        flush_every: r.opt_u64()?,
        evict_every: r.opt_u64()?,
        preempt_every: r.opt_u64()?,
        oom_at: r.opt_u64()?,
        oom_every_after: r.opt_u64()?,
        signal_in_window: r.bool()?,
        flush_in_window: r.bool()?,
        fs_error_every: r.opt_u64()?,
        fs_short_every: r.opt_u64()?,
        snap_fault_every: r.opt_u64()?,
        seed: r.u64()?,
    })
}

/// Serialize a chaos decision stream: the plan, both RNG states (SplitMix64
/// state *is* the seed of the remaining stream), the injection counters and
/// the window edge-detector.
pub fn save_chaos(c: &ChaosState) -> Vec<u8> {
    let mut w = Writer::new();
    write_plan(&mut w, &c.plan);
    w.u64(c.rng.state());
    w.u64(c.snap_rng.state());
    for v in [
        c.stats.steps,
        c.stats.flushes,
        c.stats.evictions,
        c.stats.preemptions,
        c.stats.window_flushes,
        c.stats.window_signals,
        c.stats.fs_ops,
        c.stats.fs_errors,
        c.stats.fs_shorts,
        c.stats.snap_ops,
        c.stats.snap_faults,
    ] {
        w.u64(v);
    }
    w.bool(c.was_in_window);
    w.into_bytes()
}

/// Rebuild a chaos decision stream from [`save_chaos`] bytes. The restored
/// stream continues exactly where the saved one left off.
///
/// # Errors
///
/// [`SnapshotError`] on any structural violation.
pub fn load_chaos(bytes: &[u8]) -> Result<ChaosState, SnapshotError> {
    let mut r = Reader::new(bytes);
    let plan = read_plan(&mut r)?;
    let mut c = ChaosState::new(plan);
    c.rng = StdRng::seed_from_u64(r.u64()?);
    c.snap_rng = StdRng::seed_from_u64(r.u64()?);
    c.stats = ChaosStats {
        steps: r.u64()?,
        flushes: r.u64()?,
        evictions: r.u64()?,
        preemptions: r.u64()?,
        window_flushes: r.u64()?,
        window_signals: r.u64()?,
        fs_ops: r.u64()?,
        fs_errors: r.u64()?,
        fs_shorts: r.u64()?,
        snap_ops: r.u64()?,
        snap_faults: r.u64()?,
    };
    c.was_in_window = r.bool()?;
    if !r.is_done() {
        return Err(SnapshotError::Malformed("trailing bytes after chaos state"));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Privilege;
    use crate::pte;

    fn busy_machine() -> Machine {
        let mut m = Machine::new(MachineConfig {
            trace: sm_trace::mask::TLB,
            ..MachineConfig::pentium3()
        });
        let dir = m.alloc_frame().unwrap();
        let tab = m.alloc_frame().unwrap();
        let code = m.alloc_frame().unwrap();
        let data = m.alloc_frame().unwrap();
        m.phys.write_u32(
            dir.base(),
            pte::make(tab, pte::PRESENT | pte::WRITABLE | pte::USER),
        );
        m.phys.write_u32(
            tab.base() + 4,
            pte::make(code, pte::PRESENT | pte::WRITABLE | pte::USER),
        );
        m.phys.write_u32(
            tab.base() + 8,
            pte::make(data, pte::PRESENT | pte::WRITABLE | pte::USER),
        );
        // A multi-byte first instruction: decoding it cold reads more bytes
        // than replaying a cached decode.
        m.phys.write(code.base(), &[0xB8, 1, 0, 0, 0, 0xF4]); // mov eax, 1; hlt
        m.set_cr3(dir);
        m.cpu.regs.eip = PAGE_SIZE;
        assert!(m.step().is_none());
        m.write_u8(2 * PAGE_SIZE + 5, 0xAB, Privilege::User)
            .unwrap();
        // Leave some allocator history: a freed frame on the free list.
        let scratch = m.alloc_frame().unwrap();
        m.free_frame(scratch);
        m
    }

    /// Every frame's contents and write generation, frame by frame (how
    /// much of each memory is host-backed is not machine state).
    fn assert_phys_equal(a: &Machine, b: &Machine) {
        assert_eq!(a.phys.frame_count(), b.phys.frame_count());
        for f in 0..a.phys.frame_count() {
            assert_eq!(
                a.phys.frame_bytes(Frame(f)),
                b.phys.frame_bytes(Frame(f)),
                "frame {f} contents"
            );
            assert_eq!(
                a.phys.frame_version(f),
                b.phys.frame_version(f),
                "frame {f} version"
            );
        }
    }

    fn assert_machines_equal(a: &Machine, b: &Machine) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.cpu.regs, b.cpu.regs);
        assert_eq!(a.stats, b.stats);
        assert_phys_equal(a, b);
        assert_eq!(a.phys.allocator.free, b.phys.allocator.free);
        assert_eq!(a.phys.allocator.next_fresh, b.phys.allocator.next_fresh);
        assert_eq!(a.phys.allocator.refcounts, b.phys.allocator.refcounts);
        assert_eq!(a.itlb.stats, b.itlb.stats);
        assert_eq!(a.dtlb.stats, b.dtlb.stats);
        assert_eq!(a.itlb.sets, b.itlb.sets);
        assert_eq!(a.dtlb.sets, b.dtlb.sets);
        assert_eq!(a.itlb.shadow, b.itlb.shadow);
        assert_eq!(a.dtlb.shadow, b.dtlb.shadow);
        assert_eq!(a.itlb.seen, b.itlb.seen);
        assert_eq!(a.dtlb.seen, b.dtlb.seen);
        assert_eq!(a.tracer.enabled(), b.tracer.enabled());
        assert_eq!(a.tracer.capacity(), b.tracer.capacity());
        assert_eq!(a.tracer.emitted(), b.tracer.emitted());
    }

    #[test]
    fn machine_roundtrip_is_exact_and_canonical() {
        let m = busy_machine();
        let bytes = save_machine(&m);
        let restored = load_machine(&bytes).unwrap();
        assert_machines_equal(&m, &restored);
        // Canonical form: serializing the restored machine reproduces the
        // exact bytes (sorted maps, verbatim orders).
        assert_eq!(save_machine(&restored), bytes);
    }

    #[test]
    fn restored_machine_continues_identically() {
        // The restored machine decodes cold, yet must be bit-identical in
        // every observable, including TLB hit counters.
        let mut m = Machine::new(MachineConfig::pentium3());
        let dir = m.alloc_frame().unwrap();
        let tab = m.alloc_frame().unwrap();
        let code = m.alloc_frame().unwrap();
        m.phys.write_u32(
            dir.base(),
            pte::make(tab, pte::PRESENT | pte::WRITABLE | pte::USER),
        );
        m.phys.write_u32(
            tab.base() + 4,
            pte::make(code, pte::PRESENT | pte::WRITABLE | pte::USER),
        );
        m.phys.write(code.base(), &[0x90, 0xF4]); // nop; hlt
        m.set_cr3(dir);
        m.cpu.regs.eip = PAGE_SIZE;
        assert!(m.step().is_none());
        let bytes = save_machine(&m);
        let mut r = load_machine(&bytes).unwrap();
        // Drive both for a few steps; streams must match exactly.
        for _ in 0..4 {
            m.cpu.regs.eip = PAGE_SIZE;
            r.cpu.regs.eip = PAGE_SIZE;
            assert_eq!(m.step(), r.step());
            assert_eq!(m.cycles, r.cycles);
        }
        assert_machines_equal(&m, &r);
    }

    #[test]
    fn decode_cache_warmth_only_affects_tlb_hit_counters() {
        // The decode cache is deliberately not snapshot state: it restores
        // cold. A fetch makes one I-TLB lookup per page whether its decode
        // is cached or not, so warmth shows in no modelled counter at all,
        // I-TLB hits included.
        let mut m = busy_machine();
        let bytes = save_machine(&m);
        let mut r = load_machine(&bytes).unwrap();
        for _ in 0..4 {
            m.cpu.regs.eip = PAGE_SIZE;
            r.cpu.regs.eip = PAGE_SIZE;
            assert_eq!(m.step(), r.step());
            assert_eq!(m.cycles, r.cycles);
        }
        assert_ne!(
            m.decode_cache.stats, r.decode_cache.stats,
            "the restored machine must have decoded cold"
        );
        assert_eq!(m.stats, r.stats);
        assert_eq!(m.itlb.stats, r.itlb.stats);
        assert_eq!(m.dtlb.stats, r.dtlb.stats);
        assert_eq!(m.itlb.sets, r.itlb.sets);
        assert_phys_equal(&m, &r);
        assert_eq!(save_machine(&m), save_machine(&r));
    }

    /// A physical-memory section of a 64-frame machine in the layout
    /// `write_phys` uses, built from raw lists so it can break the
    /// canonical form. Every content frame holds `0x5A` bytes.
    fn phys_section(vers: &[(u32, u64)], contents: &[u32], rcs: &[(u32, u32)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(vers.len() as u64);
        for &(f, v) in vers {
            w.u32(f);
            w.u64(v);
        }
        w.u64(contents.len() as u64);
        for &f in contents {
            w.u32(f);
            w.raw(&[0x5A; PAGE_SIZE as usize]);
        }
        w.u64(0); // free list
        w.u32(4); // next_fresh
        w.u64(rcs.len() as u64);
        for &(f, rc) in rcs {
            w.u32(f);
            w.u32(rc);
        }
        w.u32(64); // total
        w.u32(3); // allocated
        w.u32(3); // peak
        w.u64(3); // alloc_calls
        w.opt_u64(None); // inject_next
        w.opt_u64(None); // inject_every
        w.u64(0); // injected_failures
        w.into_bytes()
    }

    /// `save_machine` bytes of a 64-frame machine with its physical-memory
    /// section replaced by `phys`.
    fn with_phys_section(phys: &[u8]) -> Vec<u8> {
        let m = Machine::new(MachineConfig {
            phys_frames: 64,
            ..MachineConfig::pentium3()
        });
        let full = save_machine(&m);
        let mut w = Writer::new();
        write_phys(&mut w, &m.phys);
        let own = w.into_bytes();
        let at = full.windows(own.len()).position(|s| s == own).unwrap();
        [&full[..at], phys, &full[at + own.len()..]].concat()
    }

    #[test]
    fn non_canonical_frame_lists_are_rejected() {
        let canonical = phys_section(&[(1, 2), (3, 1)], &[1, 3], &[(1, 1), (2, 1), (3, 2)]);
        let bytes = with_phys_section(&canonical);
        let m = load_machine(&bytes).unwrap();
        assert_eq!(m.phys.read_u32(Frame(3).base()), 0x5A5A_5A5A);
        assert_eq!(save_machine(&m), bytes, "canonical input re-saves verbatim");
        let unordered = "sparse frame list not strictly ascending";
        let cases = [
            // A content frame with generation 0: it would load, and the next
            // save would drop its bytes because generation 0 means "zero".
            (
                phys_section(&[(1, 2)], &[1, 3], &[]),
                "frame contents without a write generation",
            ),
            (
                phys_section(&[(1, 0)], &[], &[]),
                "zero frame version entry",
            ),
            (phys_section(&[], &[], &[(2, 0)]), "zero refcount entry"),
            (phys_section(&[(3, 1), (1, 2)], &[], &[]), unordered),
            (phys_section(&[(1, 2), (1, 2)], &[], &[]), unordered),
            (phys_section(&[(1, 2), (3, 1)], &[3, 1], &[]), unordered),
            (phys_section(&[(1, 2)], &[1, 1], &[]), unordered),
            (phys_section(&[], &[], &[(3, 1), (2, 1)]), unordered),
            (phys_section(&[], &[], &[(2, 1), (2, 1)]), unordered),
        ];
        for (i, (phys, why)) in cases.iter().enumerate() {
            assert_eq!(
                load_machine(&with_phys_section(phys)).err(),
                Some(SnapshotError::Malformed(why)),
                "case {i}"
            );
        }
    }

    #[test]
    fn sparse_encoding_keeps_fresh_machines_small() {
        let m = Machine::new(MachineConfig::default()); // 64 MiB of frames
        let bytes = save_machine(&m);
        assert!(
            bytes.len() < 4096,
            "fresh 64 MiB machine serialized to {} bytes",
            bytes.len()
        );
        let restored = load_machine(&bytes).unwrap();
        assert_machines_equal(&m, &restored);
    }

    #[test]
    fn truncation_and_flips_error_not_panic() {
        let bytes = save_machine(&busy_machine());
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            match load_machine(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} loaded successfully"),
            }
        }
        // Bit flips either fail structurally or load as a machine; both are
        // acceptable at this layer (the kernel container adds checksums) —
        // the requirement here is no panic.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let bit = rng.next_u64() as usize % (corrupt.len() * 8);
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let _ = load_machine(&corrupt);
        }
    }

    #[test]
    fn chaos_roundtrip_resumes_the_stream() {
        let plan = FaultPlan {
            evict_every: Some(3),
            flush_every: Some(5),
            snap_fault_every: Some(2),
            seed: 42,
            ..FaultPlan::default()
        };
        let mut a = ChaosState::new(plan);
        for i in 0..37 {
            a.on_step(i % 5 == 0);
            if i % 11 == 0 {
                a.on_snapshot_op();
            }
        }
        let bytes = save_chaos(&a);
        let mut b = load_chaos(&bytes).unwrap();
        assert_eq!(a.stats, b.stats);
        for i in 0..37 {
            assert_eq!(a.on_step(i % 4 == 0), b.on_step(i % 4 == 0));
            assert_eq!(a.on_snapshot_op(), b.on_snapshot_op());
        }
        assert_eq!(save_chaos(&a), save_chaos(&b));
    }

    #[test]
    fn reader_rejects_bad_bools_options_and_counts() {
        let mut w = Writer::new();
        w.u8(2);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).bool(),
            Err(SnapshotError::Malformed("bool byte not 0 or 1"))
        );
        assert_eq!(
            Reader::new(&bytes).opt_u64(),
            Err(SnapshotError::Malformed("option tag not 0 or 1"))
        );
        let mut w = Writer::new();
        w.u64(u64::MAX); // a count that would demand an absurd allocation
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).count(1000),
            Err(SnapshotError::Malformed("count out of range"))
        );
        assert_eq!(Reader::new(&bytes).bytes(), Err(SnapshotError::Truncated));
        assert_eq!(Reader::new(&[]).u32(), Err(SnapshotError::Truncated));
    }
}
