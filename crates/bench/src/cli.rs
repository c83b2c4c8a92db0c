//! Argument checking and artifact writing shared by the bench binaries.
//!
//! Exit statuses: 2 for a usage error, 1 for an I/O refusal.

use std::fs::OpenOptions;

/// This process's arguments, program name first. An argument that is
/// neither one of `switches` nor one of `valued` (flags that take the
/// next argument as their value, unless it starts with `--`) is a usage
/// error: prints `<bin>: unrecognised argument <arg>` and `usage` to
/// stderr and exits with status 2. So is a flag given twice (`<bin>:
/// <flag> given twice`), which would otherwise have one of its values
/// silently ignored.
pub fn checked_args(bin: &str, usage: &str, switches: &[&str], valued: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    let mut seen = Vec::new();
    let mut rest = args.iter().skip(1).map(String::as_str).peekable();
    while let Some(a) = rest.next() {
        if valued.contains(&a) {
            rest.next_if(|v| !v.starts_with("--"));
        } else if !switches.contains(&a) {
            usage_error(bin, usage, &format!("unrecognised argument {a}"));
        }
        if seen.contains(&a) {
            usage_error(bin, usage, &format!("{a} given twice"));
        }
        seen.push(a);
    }
    args
}

/// The value of the flag at `args[i]`, rejecting a missing value or
/// another flag in value position with `<flag> needs a value`.
pub fn flag_value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// A malformed command line: prints `<bin>: <msg>` and `usage` to stderr
/// and exits with status 2.
pub fn usage_error(bin: &str, usage: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    eprintln!("{usage}");
    std::process::exit(2);
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
