//! Argument checking shared by the bench binaries.

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
