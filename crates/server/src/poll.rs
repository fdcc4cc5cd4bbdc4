//! `poll(2)`, the one readiness primitive of the TCP transport.
//!
//! Declared with a few lines of `extern "C"`: std already links the C
//! library, so the transport needs no crate. Unix-only.

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// Readable (or, on a listener, a connection waiting to be accepted).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable: the socket accepts more bytes.
pub(crate) const POLLOUT: c_short = 0x004;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NFds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NFds = std::os::raw::c_uint;

/// `struct pollfd`: one descriptor, the events asked for, and the
/// events (or error/hangup conditions) the kernel reported.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd { fd: fd.as_raw_fd(), events, revents: 0 }
    }

    /// Whether the last [`wait`] reported anything for this descriptor
    /// — an asked-for event, an error, or a hangup.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` passes; `None` waits
/// forever. The timeout is rounded *up* to whole milliseconds, so a
/// caller waiting for a deadline never wakes before it. A signal
/// interrupting the wait returns as a wake with nothing ready.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms =
        timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int);
    // SAFETY: `fds` is an exclusively borrowed, initialised array of
    // `struct pollfd` (`#[repr(C)]` above) whose length is passed
    // alongside it; the kernel writes only the `revents` fields.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_readable_and_writable_and_times_out() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&b, POLLIN)];
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert!(!fds[0].ready(), "nothing written yet");
        assert!(t0.elapsed() >= Duration::from_millis(20), "timeout is never cut short");

        a.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(&b, POLLIN), PollFd::new(&a, POLLOUT)];
        wait(&mut fds, None).unwrap();
        assert!(fds[0].ready() && fds[1].ready());
    }
}
