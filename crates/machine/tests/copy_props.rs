//! Property test for the kernel's user-memory copies.
//!
//! `Machine::copy_to_user`, `copy_from_user` and `read_cstr` move one page
//! run at a time: one real translation for the run's first byte, the
//! other bytes' D-TLB hits replayed as one add, one slice copy. Whatever
//! the mappings and TLB state, the result must equal the obvious per-byte
//! loops below — the reference — in everything the machine models: the
//! returned bytes or fault, memory contents, frame write generations,
//! both TLBs' counters, `MachineStats`, cycles, the trace ring and the
//! machine snapshot bytes.
//!
//! The scenarios map a window of pages that straddles the top of the
//! address space (`0xFFFF_C000..` wraps to `0x0000_0000..0x0000_3FFF`),
//! each page absent, supervisor-only, read-only, execute-disabled or
//! plain, sometimes two pages on one frame. The D-TLB starts cold or is
//! warmed (including from a second ASID and from a pile of noise pages
//! that fill its sets), then some PTEs change without a flush, so stale
//! entries decide some copies. Both TLB geometries and the software-TLB
//! mode are drawn, and each scenario runs a short sequence of copies of
//! 0–3 pages that may run into an unmapped page or wrap at `0xFFFF_F000`.

use proptest::prelude::*;
use sm_machine::cpu::{PageFaultInfo, Privilege};
use sm_machine::pte::{self, Frame, PAGE_SIZE};
use sm_machine::snapshot::save_machine;
use sm_machine::tlb::TlbEntry;
use sm_machine::trace::mask;
use sm_machine::{Machine, MachineConfig};
use sm_rng::StdRng;

// ---- the per-byte reference loops --------------------------------------

fn ref_copy_from_user(m: &mut Machine, vaddr: u32, len: u32) -> Result<Vec<u8>, PageFaultInfo> {
    let mut out = Vec::new();
    for i in 0..len {
        out.push(m.read_u8(vaddr.wrapping_add(i), Privilege::Kernel)?);
    }
    m.charge(m.config.costs.copy_byte * len as u64);
    Ok(out)
}

fn ref_copy_to_user(m: &mut Machine, vaddr: u32, data: &[u8]) -> Result<(), PageFaultInfo> {
    for (i, b) in data.iter().enumerate() {
        m.write_u8(vaddr.wrapping_add(i as u32), *b, Privilege::Kernel)?;
    }
    m.charge(m.config.costs.copy_byte * data.len() as u64);
    Ok(())
}

fn ref_read_cstr(m: &mut Machine, vaddr: u32, max: u32) -> Result<Vec<u8>, PageFaultInfo> {
    let mut out = Vec::new();
    for i in 0..max {
        let b = m.read_u8(vaddr.wrapping_add(i), Privilege::Kernel)?;
        if b == 0 {
            break;
        }
        out.push(b);
    }
    m.charge(m.config.costs.copy_byte * out.len() as u64);
    Ok(out)
}

// ---- scenarios -----------------------------------------------------------

/// The mapped window, in address order across the wrap: the top four
/// pages of the address space, then the bottom four.
const WINDOW: [u32; 8] = [0xFFFFC, 0xFFFFD, 0xFFFFE, 0xFFFFF, 0, 1, 2, 3];
/// Noise pages (one shared frame) used to fill the D-TLB's sets.
const NOISE: std::ops::Range<u32> = 0x100..0x160;

/// One copy under test.
#[derive(Debug, Clone)]
enum Op {
    ToUser { vaddr: u32, data: Vec<u8> },
    FromUser { vaddr: u32, len: u32 },
    Cstr { vaddr: u32, max: u32 },
}

#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Unit(Result<(), PageFaultInfo>),
    Bytes(Result<Vec<u8>, PageFaultInfo>),
}

/// A random PTE flag set for a present page: plain, supervisor-only,
/// read-only or execute-disabled (any mix).
fn flags(rng: &mut StdRng) -> u32 {
    let mut f = pte::PRESENT;
    if rng.gen_bool(0.75) {
        f |= pte::USER;
    }
    if rng.gen_bool(0.75) {
        f |= pte::WRITABLE;
    }
    if rng.gen_bool(0.25) {
        f |= pte::NX;
    }
    f
}

/// Address of page-table slot `vpn` (tables for directory slots 0 and
/// 1023 only).
fn pte_slot(low: Frame, high: Frame, vpn: u32) -> u32 {
    let table = if vpn >> 10 == 0 { low } else { high };
    table.base() + (vpn & 0x3FF) * 4
}

/// Build the machine a scenario seed describes. Deterministic in `seed`,
/// so the reference and the page-run copy start from identical machines.
fn build(seed: u64) -> Machine {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = MachineConfig {
        phys_frames: 64,
        software_tlb: rng.gen_bool(0.2),
        trace: mask::ALL,
        trace_capacity: rng.gen_range(8..96usize),
        ..if rng.gen_bool(0.5) {
            MachineConfig::pentium3()
        } else {
            MachineConfig::default()
        }
    };
    let mut m = Machine::new(config);
    let dir = m.alloc_zeroed_frame().unwrap();
    let low = m.alloc_zeroed_frame().unwrap();
    let high = m.alloc_zeroed_frame().unwrap();
    let table_flags = pte::PRESENT | pte::WRITABLE | pte::USER;
    m.phys.write_u32(dir.base(), pte::make(low, table_flags));
    m.phys
        .write_u32(dir.base() + 1023 * 4, pte::make(high, table_flags));
    // Window pages: random contents with NULs sprinkled in, so `read_cstr`
    // stops at random points (or runs to its cap).
    let mut frames = Vec::new();
    for &vpn in &WINDOW {
        let f = if !frames.is_empty() && rng.gen_bool(0.15) {
            frames[rng.gen_range(0..frames.len())]
        } else {
            let f = m.alloc_frame().unwrap();
            let mut bytes = vec![0u8; PAGE_SIZE as usize];
            for b in bytes.iter_mut() {
                *b = rng.gen_range(1..=255u8);
            }
            for _ in 0..rng.gen_range(0..3u32) {
                bytes[rng.gen_range(0..PAGE_SIZE as usize)] = 0;
            }
            m.phys.write(f.base(), &bytes);
            f
        };
        frames.push(f);
        if rng.gen_bool(0.8) {
            let e = pte::make(f, flags(&mut rng));
            m.phys.write_u32(pte_slot(low, high, vpn), e);
        }
    }
    let noise = m.alloc_zeroed_frame().unwrap();
    for vpn in NOISE {
        m.phys
            .write_u32(pte_slot(low, high, vpn), pte::make(noise, table_flags));
    }
    m.set_cr3(dir);
    // Warm-up: accesses at both privileges (user ones may fault), an ASID
    // switch now and then, noise pages to fill sets and force evictions.
    // The software-TLB machine never walks, so it is warmed by explicit
    // fills from the pagetable.
    let warm = rng.gen_range(0..40u32);
    for _ in 0..warm {
        let vpn = if rng.gen_bool(0.5) {
            WINDOW[rng.gen_range(0..WINDOW.len())]
        } else {
            rng.gen_range(NOISE)
        };
        let vaddr = (vpn << 12) | rng.gen_range(0..PAGE_SIZE);
        match rng.gen_range(0..10u32) {
            0 => m.set_cr3_tagged(dir, rng.gen_range(0..3u16)),
            _ if m.config.software_tlb => {
                if let Some(e) = m.read_pte(vaddr).filter(|e| pte::has(*e, pte::PRESENT)) {
                    m.fill_dtlb(TlbEntry {
                        vpn,
                        pfn: pte::frame(e).0,
                        asid: 0,
                        user: pte::has(e, pte::USER),
                        writable: pte::has(e, pte::WRITABLE),
                        nx: pte::has(e, pte::NX),
                    });
                }
            }
            1..=3 => {
                let _ = m.write_u8(vaddr, 0x5A, Privilege::User);
            }
            4..=6 => {
                let _ = m.read_u8(vaddr, Privilege::User);
            }
            _ => {
                let _ = m.read_u8(vaddr, Privilege::Kernel);
            }
        }
    }
    // Change some window PTEs behind the TLB's back: a cached entry now
    // outlives (or outranks) its pagetable entry.
    for &vpn in &WINDOW {
        if rng.gen_bool(0.15) {
            let f = frames[rng.gen_range(0..frames.len())];
            let e = if rng.gen_bool(0.5) {
                0
            } else {
                pte::make(f, flags(&mut rng))
            };
            m.phys.write_u32(pte_slot(low, high, vpn), e);
        }
    }
    m
}

/// A short sequence of copies starting in the window, 0–3 pages long (so
/// some wrap past `0xFFFF_F000` and some run off the window's end).
fn ops(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0_FFEE);
    let count = rng.gen_range(1..4u32);
    (0..count)
        .map(|_| {
            let vpn = WINDOW[rng.gen_range(0..WINDOW.len())];
            let vaddr = (vpn << 12) | rng.gen_range(0..PAGE_SIZE);
            let len = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..16u32),
                1 => rng.gen_range(0..4u32) * PAGE_SIZE,
                _ => rng.gen_range(0..=3 * PAGE_SIZE),
            };
            match rng.gen_range(0..3u32) {
                0 => {
                    let mut data = vec![0u8; len as usize];
                    rng.fill_bytes(&mut data);
                    Op::ToUser { vaddr, data }
                }
                1 => Op::FromUser { vaddr, len },
                _ => Op::Cstr { vaddr, max: len },
            }
        })
        .collect()
}

fn run(m: &mut Machine, op: &Op, reference: bool) -> Outcome {
    match (op, reference) {
        (Op::ToUser { vaddr, data }, false) => Outcome::Unit(m.copy_to_user(*vaddr, data)),
        (Op::ToUser { vaddr, data }, true) => Outcome::Unit(ref_copy_to_user(m, *vaddr, data)),
        (Op::FromUser { vaddr, len }, false) => Outcome::Bytes(m.copy_from_user(*vaddr, *len)),
        (Op::FromUser { vaddr, len }, true) => Outcome::Bytes(ref_copy_from_user(m, *vaddr, *len)),
        (Op::Cstr { vaddr, max }, false) => Outcome::Bytes(m.read_cstr(*vaddr, *max)),
        (Op::Cstr { vaddr, max }, true) => Outcome::Bytes(ref_read_cstr(m, *vaddr, *max)),
    }
}

fn generations(m: &Machine) -> Vec<u64> {
    (0..m.phys.frame_count())
        .map(|f| m.phys.frame_version(f))
        .collect()
}

fn contents(m: &Machine) -> Vec<u8> {
    (0..m.phys.frame_count())
        .flat_map(|f| m.phys.frame_bytes(Frame(f)).to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn page_run_copies_match_the_per_byte_loops(seed in any::<u64>()) {
        let ops = ops(seed);
        let mut fast = build(seed);
        let mut slow = build(seed);
        for (i, op) in ops.iter().enumerate() {
            let got = run(&mut fast, op, false);
            let want = run(&mut slow, op, true);
            prop_assert_eq!(&got, &want, "op {} {:?}", i, op);
        }
        prop_assert_eq!(contents(&fast), contents(&slow), "memory contents");
        prop_assert_eq!(generations(&fast), generations(&slow), "frame generations");
        prop_assert_eq!(fast.dtlb.stats, slow.dtlb.stats, "D-TLB stats");
        prop_assert_eq!(fast.itlb.stats, slow.itlb.stats, "I-TLB stats");
        prop_assert_eq!(fast.stats, slow.stats, "machine stats");
        prop_assert_eq!(fast.cycles, slow.cycles, "cycles");
        prop_assert_eq!(fast.tracer.emitted(), slow.tracer.emitted(), "trace emitted");
        prop_assert_eq!(fast.tracer.snapshot(), slow.tracer.snapshot(), "trace ring");
        prop_assert!(save_machine(&fast) == save_machine(&slow), "snapshot bytes");
    }
}

/// The scenarios reach what the property is about: every kind of copy
/// both succeeds and faults, some copies cross pages, some wrap past the
/// top of the address space, and the replay carries real hits.
#[test]
fn scenarios_cover_faults_wraps_and_multi_page_runs() {
    let (mut ok, mut faults, mut wraps, mut multi) = ([0; 3], [0; 3], 0, 0);
    for seed in 0..384u64 {
        let mut m = build(seed);
        for op in ops(seed) {
            let (kind, vaddr, len) = match &op {
                Op::ToUser { vaddr, data } => (0, *vaddr, data.len() as u32),
                Op::FromUser { vaddr, len } => (1, *vaddr, *len),
                Op::Cstr { vaddr, max } => (2, *vaddr, *max),
            };
            let failed = match run(&mut m, &op, false) {
                Outcome::Unit(r) => r.is_err(),
                Outcome::Bytes(r) => r.is_err(),
            };
            if failed {
                faults[kind] += 1;
            } else {
                ok[kind] += 1;
            }
            if len > 0 && vaddr.checked_add(len - 1).is_none() {
                wraps += 1;
            }
            if len > 0 && pte::vpn(vaddr) != pte::vpn(vaddr.wrapping_add(len - 1)) {
                multi += 1;
            }
        }
    }
    for kind in 0..3 {
        assert!(ok[kind] > 10, "kind {kind}: only {} successes", ok[kind]);
        assert!(
            faults[kind] > 10,
            "kind {kind}: only {} faults",
            faults[kind]
        );
    }
    assert!(wraps > 20, "only {wraps} wrapping copies");
    assert!(multi > 100, "only {multi} multi-page copies");
}
