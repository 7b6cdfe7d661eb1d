//! The workspace's one call into the C library: the calling thread's
//! timer slack (`prctl(2)`; a no-op off Linux), how late past its
//! deadline the kernel may end a timed sleep to coalesce wake-ups.

#[cfg(target_os = "linux")]
use std::ffi::{c_int, c_ulong};

#[cfg(target_os = "linux")]
const PR_SET_TIMERSLACK: c_int = 29;
#[cfg(all(target_os = "linux", test))]
const PR_GET_TIMERSLACK: c_int = 30;

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// Sets the calling thread's timer slack to `ns` nanoseconds. Clamped
/// to at least 1: a slack of 0 would restore the thread's default.
pub(crate) fn set_timer_slack(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument, passes no
    // memory, and changes only the calling thread's timer slack.
    #[cfg(target_os = "linux")]
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns.max(1) as c_ulong);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = ns;
}

/// The calling thread's timer slack in nanoseconds (0 off Linux).
#[cfg(test)]
pub(crate) fn timer_slack() -> u64 {
    // SAFETY: PR_GET_TIMERSLACK takes no argument, passes no memory,
    // and returns the calling thread's timer slack.
    #[cfg(target_os = "linux")]
    return unsafe { prctl(PR_GET_TIMERSLACK) }.max(0) as u64;
    #[cfg(not(target_os = "linux"))]
    0
}
