//! Hermetic, dependency-free readiness polling for the Sorrento event
//! loop. The build environment has no crates.io access, so instead of
//! `mio` this shim binds the raw `epoll_create1`/`epoll_ctl`/
//! `epoll_pwait2` syscalls on Linux (through the libc symbols the Rust
//! standard library already links — no `libc` crate) and emulates the
//! same stateful-interest API over POSIX `poll(2)` on other Unixes.
//!
//! The API is the small slice an event loop actually needs:
//!
//! * [`Poller`] — a stateful interest list: register a file descriptor
//!   with a caller-chosen [`Token`] and an [`Interest`] (readable and/or
//!   writable), then [`Poller::wait`] for events. Level-triggered: a
//!   readiness condition keeps firing until it is drained or the
//!   interest is removed, so a loop can never lose an edge.
//! * [`Waker`] — an `eventfd` (Linux) or self-pipe (other Unix) that
//!   another thread writes to pull a blocked `wait` out of its sleep.
//!
//! Everything is level-triggered and single-consumer by design; the
//! Sorrento mesh is polled by exactly one thread per node — the node's
//! own loop — which is the entire point of the exercise (see
//! `sorrento-net/src/tcp.rs`).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Caller-chosen identifier attached to a registered descriptor and
/// handed back with every event it produces.
pub type Token = u64;

/// Which readiness conditions a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Fire when the descriptor is readable (or has a pending error /
    /// hangup, which always fires regardless).
    pub readable: bool,
    /// Fire when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    /// Writable only.
    pub const WRITABLE: Interest = Interest { readable: false, writable: true };
    /// Readable and writable.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: Token,
    /// Readable now (includes EOF: a read will not block).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup condition; the owner should read until the
    /// error surfaces and drop the descriptor.
    pub error: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw epoll(7) bindings. Declared `extern "C"` against the libc
    //! that `std` links; no new dependency.

    use super::{Event, Interest, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Kernel `struct epoll_event`. Packed on x86-64 (the kernel ABI),
    /// natural alignment elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `epoll_pwait2`'s number in the generic syscall table every
    /// architecture shares from 5.11 on.
    const SYS_EPOLL_PWAIT2: i64 = 441;
    const ENOSYS: i32 = 38;

    /// Kernel `struct __kernel_timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn syscall(num: i64, ...) -> i64;
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// epoll-backed interest list.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
        /// The kernel refused `epoll_pwait2` once: use `epoll_wait`.
        pub(crate) no_pwait2: bool,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let buf = vec![EpollEvent { events: 0, data: 0 }; 256];
            Ok(Poller { epfd, buf, no_pwait2: false })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask_of(interest), data: token };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn add(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            // A null event pointer is fine on kernels >= 2.6.9.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) })
                .map(|_| ())
        }

        /// One `epoll_pwait2`: the timeout to the nanosecond, so a loop
        /// that waits for its next deadline wakes at it, not at the next
        /// whole millisecond. Kernels older than 5.11 lack the call; there
        /// `epoll_wait` takes the timeout rounded up to milliseconds.
        fn wait_once(&mut self, timeout: Option<Duration>) -> i32 {
            let (epfd, buf, len) = (self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32);
            if !self.no_pwait2 {
                let ts = timeout.map(|d| Timespec {
                    tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
                    tv_nsec: i64::from(d.subsec_nanos()),
                });
                let ts_ptr = ts.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
                // SAFETY: `buf` holds `len` writable events and outlives
                // the call; `ts_ptr` is null (wait forever) or points at
                // `ts`, alive until the call returns; a null sigmask
                // leaves the signal mask alone, so its size is unread.
                let r = unsafe {
                    syscall(SYS_EPOLL_PWAIT2, epfd, buf, len, ts_ptr, std::ptr::null::<u8>(), 8usize)
                };
                if r >= 0 || io::Error::last_os_error().raw_os_error() != Some(ENOSYS) {
                    return r as i32;
                }
                self.no_pwait2 = true;
            }
            let timeout_ms: i32 = match timeout {
                None => -1,
                // Round up so a 100µs timeout does not busy-spin at 0ms.
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32
                    + if d.subsec_nanos() % 1_000_000 != 0 { 1 } else { 0 },
            };
            unsafe { epoll_wait(epfd, buf, len, timeout_ms) }
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let n = loop {
                let r = self.wait_once(timeout);
                if r >= 0 {
                    break r as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            if n == self.buf.len() {
                // Saturated the event buffer: grow so a C10K burst is
                // drained in few wait calls.
                self.buf.resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }

    /// eventfd-backed waker.
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            Ok(Waker { fd })
        }

        pub fn fd(&self) -> RawFd {
            self.fd
        }

        pub fn wake(&self) {
            let one: u64 = 1;
            // A full eventfd counter still leaves the fd readable, so a
            // failed write loses nothing.
            unsafe {
                write(self.fd, &one as *const u64 as *const u8, 8);
            }
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe {
                read(self.fd, buf.as_mut_ptr(), 8);
            }
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe {
                close(self.fd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Portable fallback: the same stateful-interest API emulated over
    //! POSIX `poll(2)`, with a self-pipe waker. O(n) per wait, which is
    //! fine for the non-Linux dev loop; production targets are Linux.

    use super::{Event, Interest, Token};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    /// poll(2)-backed interest list.
    pub struct Poller {
        registered: HashMap<RawFd, (Token, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { registered: HashMap::new() })
        }

        pub fn add(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32
                    + if d.subsec_nanos() % 1_000_000 != 0 { 1 } else { 0 },
            };
            loop {
                let r = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if r >= 0 {
                    break;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            for pfd in &fds {
                if pfd.revents == 0 {
                    continue;
                }
                let (token, _) = self.registered[&pfd.fd];
                events.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    /// Self-pipe waker.
    pub struct Waker {
        rd: RawFd,
        wr: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            // F_SETFL = 4, O_NONBLOCK = 4 on the BSDs/macOS.
            unsafe {
                fcntl(fds[0], 4, 4);
                fcntl(fds[1], 4, 4);
            }
            Ok(Waker { rd: fds[0], wr: fds[1] })
        }

        pub fn fd(&self) -> RawFd {
            self.rd
        }

        pub fn wake(&self) {
            let one = [1u8];
            unsafe {
                write(self.wr, one.as_ptr(), 1);
            }
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while unsafe { read(self.rd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe {
                close(self.rd);
                close(self.wr);
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!("the epoll shim supports Unix targets only (epoll on Linux, poll(2) elsewhere)");

/// A stateful readiness-interest list: `epoll(7)` on Linux, emulated
/// over `poll(2)` on other Unix targets. Level-triggered.
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Create an empty interest list.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { inner: sys::Poller::new()? })
    }

    /// Register `fd` with `token` and `interest`. The token comes back
    /// verbatim in every [`Event`] the descriptor produces.
    pub fn add(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.inner.add(fd, token, interest)
    }

    /// Replace the interest (and token) of an already-registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Drop a registration. The caller must do this before closing the
    /// descriptor on the poll(2) fallback; on Linux the kernel also
    /// cleans up on close.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.remove(fd)
    }

    /// Block until at least one registered descriptor is ready or the
    /// timeout elapses (`None` = forever), filling `events`. An empty
    /// `events` after return means the timeout fired. On Linux 5.11+ the
    /// timeout is kept to the nanosecond (`epoll_pwait2`); elsewhere it
    /// is rounded *up* to milliseconds, so a short one never busy-spins.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

/// Wakes a [`Poller::wait`] from another thread: register [`Waker::fd`]
/// for reads, call [`Waker::wake`] anywhere, and have the loop
/// [`Waker::drain`] it when its token fires.
pub struct Waker {
    inner: sys::Waker,
}

impl Waker {
    /// Create a waker (an `eventfd` on Linux, a nonblocking self-pipe
    /// elsewhere).
    pub fn new() -> io::Result<Waker> {
        Ok(Waker { inner: sys::Waker::new()? })
    }

    /// The readable descriptor to register with the poller.
    pub fn fd(&self) -> RawFd {
        self.inner.fd()
    }

    /// Make the poller's next (or current) `wait` return. Cheap, signal
    /// safe, and never blocks; coalesces with earlier pending wakes.
    pub fn wake(&self) {
        self.inner.wake()
    }

    /// Consume pending wake signals so the next `wait` can sleep.
    pub fn drain(&self) {
        self.inner.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 7, Interest::READABLE).unwrap();
        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "wait did not wake promptly");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        waker.drain();
        // Drained: the next wait times out instead of spinning.
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
        t.join().unwrap();
    }

    /// A timeout is kept to better than a millisecond: a loop waiting
    /// for a deadline 300 µs away does not sleep to the next whole
    /// millisecond (every wait would take ≥ 1 ms if it did). Kernels
    /// without `epoll_pwait2` round up, so the check needs one.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_sub_millisecond_timeout_is_kept() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let wait = Duration::from_micros(300);
        let fastest = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                poller.wait(&mut events, Some(wait)).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap();
        if poller.inner.no_pwait2 {
            return;
        }
        assert!(fastest >= wait, "woke early: {fastest:?}");
        assert!(fastest < Duration::from_millis(1), "a 300 µs wait took {fastest:?}");
    }

    #[test]
    fn socket_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();

        // Nothing to read yet.
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());

        client.write_all(b"hi").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 2);

        // Level-triggered writability: an idle socket reports writable
        // for as long as we subscribe to it.
        poller.modify(server.as_raw_fd(), 2, Interest::BOTH).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));

        // Peer hangup surfaces as readable (EOF).
        drop(client);
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        poller.remove(server.as_raw_fd()).unwrap();
    }
}
