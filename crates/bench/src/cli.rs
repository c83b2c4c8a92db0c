//! Argument checking and artifact writing shared by the bench binaries.
//!
//! Exit statuses: 2 for a usage error, 1 for an I/O refusal.

use std::fs::OpenOptions;

/// This process's arguments, program name first. An argument that is
/// neither one of `switches` nor one of `valued` (flags that take the
/// next argument as their value, unless it starts with `--`) is a usage
/// error: prints `<bin>: unrecognised argument <arg>` and `usage` to
/// stderr and exits with status 2.
pub fn checked_args(bin: &str, usage: &str, switches: &[&str], valued: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    let mut rest = args.iter().skip(1).map(String::as_str).peekable();
    while let Some(a) = rest.next() {
        if valued.contains(&a) {
            rest.next_if(|v| !v.starts_with("--"));
        } else if !switches.contains(&a) {
            eprintln!("{bin}: unrecognised argument {a}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
    args
}

/// Write an artifact file. The destination comes from the command line,
/// the environment or the working directory, so refusal is a
/// user-environment error, not a bug: prints `<bin>: cannot write <path>:
/// <error>` to stderr and exits with status 1.
pub fn write_artifact(bin: &str, path: &str, bytes: &[u8]) {
    if let Err(e) = std::fs::write(path, bytes) {
        cannot_write(bin, path, &e);
    }
}

/// Fail the way [`write_artifact`] would, before any work is done, unless
/// `path` can be opened for writing. Creates the file if it is absent but
/// does not truncate it, so an existing artifact survives until it is
/// really rewritten.
pub fn check_writable(bin: &str, path: &str) {
    let opened = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path);
    if let Err(e) = opened {
        cannot_write(bin, path, &e);
    }
}

fn cannot_write(bin: &str, path: &str, e: &std::io::Error) -> ! {
    eprintln!("{bin}: cannot write {path}: {e}");
    std::process::exit(1);
}
