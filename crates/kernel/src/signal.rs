//! Signals: numbers, dispositions and per-process signal state.
//!
//! Signal delivery is the kernel's "mixed page" case: the sigreturn
//! trampoline is written onto the user *stack* and then executed from it
//! (paper §2 cites exactly this Linux behaviour as a page that holds both
//! code and data). Under the split-memory engine the trampoline must be
//! installed on both the code and data frames of the split stack page —
//! see the engine's `on_code_written` hook.

use sm_machine::cpu::Regs;

/// Illegal instruction.
pub const SIGILL: u8 = 4;
/// Trace/breakpoint trap.
pub const SIGTRAP: u8 = 5;
/// Floating-point/divide error.
pub const SIGFPE: u8 = 8;
/// Kill (uncatchable).
pub const SIGKILL: u8 = 9;
/// User-defined signal 1.
pub const SIGUSR1: u8 = 10;
/// Segmentation violation.
pub const SIGSEGV: u8 = 11;
/// Broken pipe.
pub const SIGPIPE: u8 = 13;
/// Child status change (ignored by default).
pub const SIGCHLD: u8 = 17;
/// Number of signal slots.
pub const NSIG: usize = 32;

/// Disposition of one signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigAction {
    /// Default action (terminate for the fatal set, ignore otherwise).
    #[default]
    Default,
    /// Ignore the signal.
    Ignore,
    /// Run a user handler at this address.
    Handler(u32),
}

/// True if the default action for `sig` terminates the process.
pub fn default_is_fatal(sig: u8) -> bool {
    !matches!(sig, SIGCHLD)
}

/// Per-process signal state.
#[derive(Debug, Clone)]
pub struct SignalState {
    actions: [SigAction; NSIG],
    /// Pending signal queue (delivery order).
    pub pending: Vec<u8>,
    /// Context saved while a user handler runs (one level, like a
    /// minimalist sigcontext).
    pub saved_context: Option<Regs>,
}

impl Default for SignalState {
    fn default() -> SignalState {
        SignalState::new()
    }
}

impl SignalState {
    /// Fresh state: all defaults, nothing pending.
    pub fn new() -> SignalState {
        SignalState {
            actions: [SigAction::Default; NSIG],
            pending: Vec::new(),
            saved_context: None,
        }
    }

    /// Current disposition of `sig`.
    pub fn action(&self, sig: u8) -> SigAction {
        self.actions.get(sig as usize).copied().unwrap_or_default()
    }

    /// Set the disposition of `sig`. SIGKILL cannot be caught or ignored.
    /// Returns `false` (and changes nothing) for invalid or uncatchable
    /// signals.
    pub fn set_action(&mut self, sig: u8, act: SigAction) -> bool {
        if sig as usize >= NSIG || sig == SIGKILL {
            return false;
        }
        self.actions[sig as usize] = act;
        true
    }

    /// Queue a signal.
    pub fn raise(&mut self, sig: u8) {
        if (sig as usize) < NSIG {
            self.pending.push(sig);
        }
    }

    /// Dequeue the next pending signal.
    pub fn take_pending(&mut self) -> Option<u8> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.pending.remove(0))
        }
    }

    /// Reset handlers to default (on `execve`).
    pub fn reset_on_exec(&mut self) {
        for a in &mut self.actions {
            if matches!(a, SigAction::Handler(_)) {
                *a = SigAction::Default;
            }
        }
        self.saved_context = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigkill_is_uncatchable() {
        let mut s = SignalState::new();
        assert!(!s.set_action(SIGKILL, SigAction::Ignore));
        assert_eq!(s.action(SIGKILL), SigAction::Default);
    }

    #[test]
    fn pending_fifo() {
        let mut s = SignalState::new();
        s.raise(SIGUSR1);
        s.raise(SIGSEGV);
        assert_eq!(s.take_pending(), Some(SIGUSR1));
        assert_eq!(s.take_pending(), Some(SIGSEGV));
        assert_eq!(s.take_pending(), None);
    }

    #[test]
    fn exec_resets_handlers_but_not_ignores() {
        let mut s = SignalState::new();
        s.set_action(SIGUSR1, SigAction::Handler(0x1234));
        s.set_action(SIGPIPE, SigAction::Ignore);
        s.reset_on_exec();
        assert_eq!(s.action(SIGUSR1), SigAction::Default);
        assert_eq!(s.action(SIGPIPE), SigAction::Ignore);
    }

    #[test]
    fn default_fatality() {
        assert!(default_is_fatal(SIGSEGV));
        assert!(default_is_fatal(SIGILL));
        assert!(!default_is_fatal(SIGCHLD));
    }

    #[test]
    fn out_of_range_signal_is_rejected() {
        let mut s = SignalState::new();
        assert!(!s.set_action(40, SigAction::Ignore));
        s.raise(40); // silently dropped
        assert_eq!(s.take_pending(), None);
    }
}
