//! The workspace's one call into the C library: a one-shot timer that
//! any thread may re-arm while another waits on it.
//!
//! On Linux it is a `timerfd` (`timerfd_create(2)`): its expiry is an
//! exact high-resolution timer, so the waiting thread's timer slack does
//! not delay it, and a re-arm from another thread moves the wake of a
//! thread already blocked in [`Timer::wait`]. Elsewhere a `Mutex` +
//! `Condvar` timer has the same interface; it is correct, but its timed
//! waits end when the platform's sleep does.

use std::time::Instant;

/// A one-shot timer with one waiter.
pub(crate) trait Timer: Send + Sync {
    /// Arms the timer to expire at `due` (at once if `due` has passed),
    /// replacing any earlier setting and any expiry not yet waited for.
    fn arm(&self, due: Instant);

    /// Blocks until the timer expires. May return early; callers
    /// re-check their inputs after every return.
    fn wait(&self);
}

/// The timer of this platform.
pub(crate) fn os_timer() -> Box<dyn Timer> {
    #[cfg(target_os = "linux")]
    return Box::new(linux::FdTimer::new());
    #[cfg(not(target_os = "linux"))]
    Box::new(CondvarTimer::default())
}

#[cfg(target_os = "linux")]
mod linux {
    use super::Timer;
    use std::ffi::{c_int, c_long, c_void};
    use std::time::Instant;

    const CLOCK_MONOTONIC: c_int = 1;
    const TFD_CLOEXEC: c_int = 0o2_000_000;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    #[repr(C)]
    struct Itimerspec {
        it_interval: Timespec,
        it_value: Timespec,
    }

    extern "C" {
        fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
        fn timerfd_settime(
            fd: c_int,
            flags: c_int,
            new: *const Itimerspec,
            old: *mut Itimerspec,
        ) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// A `timerfd` on `CLOCK_MONOTONIC`, the clock `Instant` reads.
    pub(crate) struct FdTimer {
        fd: c_int,
    }

    impl FdTimer {
        /// # Panics
        ///
        /// Panics if the process is out of file descriptors.
        pub(crate) fn new() -> Self {
            // SAFETY: takes two integers and passes no memory; the
            // returned descriptor is owned by this value alone.
            let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC) };
            assert!(
                fd >= 0,
                "timerfd_create: {}",
                std::io::Error::last_os_error()
            );
            FdTimer { fd }
        }
    }

    impl Timer for FdTimer {
        fn arm(&self, due: Instant) {
            // A zero `it_value` would disarm the timer: a due instant
            // that has passed expires in 1 ns instead.
            let wait = due.saturating_duration_since(Instant::now());
            let (secs, nanos) = match wait.as_nanos() {
                0 => (0, 1),
                _ => (wait.as_secs(), wait.subsec_nanos()),
            };
            let spec = Itimerspec {
                it_interval: Timespec {
                    tv_sec: 0,
                    tv_nsec: 0,
                },
                it_value: Timespec {
                    tv_sec: secs.min(c_long::MAX as u64) as c_long,
                    tv_nsec: nanos as c_long,
                },
            };
            // SAFETY: `fd` is a live timerfd owned by `self`; `spec` is a
            // valid `itimerspec` for the duration of the call, and a null
            // `old` asks for no previous setting.
            let rc = unsafe { timerfd_settime(self.fd, 0, &spec, std::ptr::null_mut()) };
            debug_assert_eq!(rc, 0, "timerfd_settime failed");
        }

        fn wait(&self) {
            let mut expirations = 0u64;
            // SAFETY: `fd` is a live timerfd owned by `self`, and the
            // buffer is a `u64`, the 8 bytes a timerfd read fills. An
            // interrupted read returns early, which `wait` allows.
            unsafe {
                read(
                    self.fd,
                    (&mut expirations as *mut u64).cast::<c_void>(),
                    std::mem::size_of::<u64>(),
                );
            }
        }
    }

    impl Drop for FdTimer {
        fn drop(&mut self) {
            // SAFETY: `fd` is owned by `self` and closed exactly once.
            unsafe {
                close(self.fd);
            }
        }
    }
}

/// The timer off Linux (and, for its tests, on Linux): a due instant
/// under a mutex, waited for on a condition variable.
#[cfg(any(not(target_os = "linux"), test))]
#[derive(Default)]
pub(crate) struct CondvarTimer {
    due: std::sync::Mutex<Option<Instant>>,
    rearmed: std::sync::Condvar,
}

#[cfg(any(not(target_os = "linux"), test))]
impl Timer for CondvarTimer {
    fn arm(&self, due: Instant) {
        *self.due.lock().unwrap_or_else(|e| e.into_inner()) = Some(due);
        self.rearmed.notify_all();
    }

    fn wait(&self) {
        let mut due = self.due.lock().unwrap_or_else(|e| e.into_inner());
        while let Some(at) = *due {
            let now = Instant::now();
            if at <= now {
                *due = None;
                return;
            }
            due = self
                .rearmed
                .wait_timeout(due, at - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;

    /// Builds a timer.
    pub(crate) type MakeTimer = fn() -> Box<dyn Timer>;

    /// Every timer implementation this platform can build.
    pub(crate) fn timers() -> Vec<(&'static str, MakeTimer)> {
        let mut all: Vec<(&'static str, MakeTimer)> =
            vec![("condvar", || Box::new(CondvarTimer::default()))];
        #[cfg(target_os = "linux")]
        all.push(("timerfd", || Box::new(linux::FdTimer::new())));
        all
    }

    #[test]
    fn a_timer_expires_at_its_due_instant_and_at_once_when_past() {
        for (name, make) in timers() {
            let timer = make();
            let t = Instant::now();
            timer.arm(t + Duration::from_millis(5));
            while t.elapsed() < Duration::from_millis(5) {
                timer.wait();
            }
            assert!(t.elapsed() < Duration::from_secs(1), "{name}");
            let t = Instant::now();
            timer.arm(t);
            timer.wait();
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "{name}: a past due blocked"
            );
        }
    }

    #[test]
    fn a_rearm_from_another_thread_moves_a_blocked_wait() {
        for (name, make) in timers() {
            let timer: std::sync::Arc<dyn Timer> = make().into();
            let t = Instant::now();
            timer.arm(t + Duration::from_secs(30));
            let waiter = std::thread::spawn({
                let timer = std::sync::Arc::clone(&timer);
                move || timer.wait()
            });
            std::thread::sleep(Duration::from_millis(20));
            timer.arm(Instant::now());
            waiter.join().unwrap();
            assert!(t.elapsed() < Duration::from_secs(5), "{name}");
        }
    }
}
