//! Waiting for sockets without spinning, so the serve client leaves the
//! CPU to the server's threads between its sends and replies.
//!
//! Linux `ppoll(2)` with the thread's timer slack lowered to 1 µs, so a
//! wait for the next scheduled send does not overshoot by the default
//! 50 µs. Elsewhere the wait is a short sleep.
//!
//! On a virtual machine a CPU with nothing to run halts, and waking it
//! again (for a timer or a reply) can take milliseconds when the host is
//! busy: on a 2-vCPU guest a 0.3 ms sleep overshot by 1.4–2.7 ms at p99.
//! [`KeepAwake`] runs one idle-class spinner per CPU, which any other
//! thread preempts at once, so no CPU halts; the same sleep then
//! overshot by 0.08–0.13 ms at p99. This is the guest-side equivalent of
//! turning off deep idle states for a latency benchmark.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: c_int,
    }

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;
    pub const PR_SET_TIMERSLACK: c_int = 29;
    pub const SCHED_IDLE: c_int = 5;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
        pub fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    }
}

/// Lowers the calling thread's timer slack to 1 µs (best effort).
pub fn tight_timers() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches no
    // memory of ours.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Moves the calling thread to the idle scheduling class; false if that
/// is not possible here.
fn idle_class() -> bool {
    #[cfg(target_os = "linux")]
    {
        let param = sys::SchedParam { sched_priority: 0 };
        // SAFETY: pid 0 is the calling thread and `param` is valid for
        // the duration of the call.
        unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// One idle-class spinning thread per CPU while it lives (see the module
/// note); dropping it stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = (0..cpus)
            .filter_map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("perfbench-awake-{i}"))
                    .spawn(move || {
                        // Never spin at normal priority: that would take
                        // CPU time from the server.
                        if idle_class() {
                            while !stop.load(Ordering::Relaxed) {
                                std::hint::spin_loop();
                            }
                        }
                    })
                    .ok()
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Blocks until a connection is readable, a connection `c` with
/// `want_write[c]` is writable, or `timeout` passes.
#[cfg(target_os = "linux")]
pub fn wait(conns: &[TcpStream], want_write: &[bool], timeout: Duration) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .zip(want_write)
        .map(|(c, &w)| sys::PollFd {
            fd: c.as_raw_fd(),
            events: sys::POLLIN | if w { sys::POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `fds` holds `fds.len()` initialised entries that outlive the
    // call, `ts` is a valid timespec, and a null sigmask is allowed.
    let r = unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
    if r < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn wait(_conns: &[TcpStream], _want_write: &[bool], timeout: Duration) -> std::io::Result<()> {
    std::thread::sleep(timeout.min(Duration::from_micros(20)));
    Ok(())
}
