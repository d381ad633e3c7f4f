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
//! * [`connect`] — a TCP connect that does not wait for the handshake:
//!   register the socket it returns for writability, and its first
//!   writable event says whether the connect succeeded
//!   (`TcpStream::take_error`).
//!
//! Everything is level-triggered and single-consumer by design; the
//! Sorrento mesh, its connects included, is polled by exactly one
//! thread per node — the node's own loop — which is the entire point of
//! the exercise (see `sorrento-net/src/tcp.rs`).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::net::{SocketAddr, TcpStream};
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
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{FromRawFd, RawFd};
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
    // Socket numbers of the generic Linux ABI (x86, Arm, RISC-V);
    // MIPS, SPARC and Alpha number some of them differently.
    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const EINPROGRESS: i32 = 115;

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
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        #[link_name = "connect"]
        fn connect_fd(fd: i32, addr: *const u8, len: u32) -> i32;
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

    /// Kernel `struct sockaddr_in`: port and address in network order.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// Kernel `struct sockaddr_in6`.
    #[repr(C)]
    struct SockaddrIn6 {
        family: u16,
        port: [u8; 2],
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: `socket` takes no pointer; a negative return is an
        // error and leaves nothing to close.
        let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
        // SAFETY: `fd` is a fresh socket nothing else owns; the stream
        // closes it, on the error path too.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        let port = addr.port().to_be_bytes();
        let r = match addr {
            SocketAddr::V4(a) => {
                let sa = SockaddrIn {
                    family: AF_INET as u16,
                    port,
                    addr: a.ip().octets(),
                    zero: [0; 8],
                };
                let len = std::mem::size_of::<SockaddrIn>() as u32;
                // SAFETY: `sa` is alive for the call, `len` is its size,
                // and `fd` is the stream's open socket.
                unsafe { connect_fd(fd, &sa as *const SockaddrIn as *const u8, len) }
            }
            SocketAddr::V6(a) => {
                let sa = SockaddrIn6 {
                    family: AF_INET6 as u16,
                    port,
                    flowinfo: a.flowinfo(),
                    addr: a.ip().octets(),
                    scope_id: a.scope_id(),
                };
                let len = std::mem::size_of::<SockaddrIn6>() as u32;
                // SAFETY: as above, for the IPv6 address.
                unsafe { connect_fd(fd, &sa as *const SockaddrIn6 as *const u8, len) }
            }
        };
        if r == 0 {
            return Ok(stream);
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            Some(EINPROGRESS) => Ok(stream),
            _ => Err(err),
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Portable fallback: the same stateful-interest API emulated over
    //! POSIX `poll(2)`. O(n) per wait, and a connect that blocks (see
    //! [`super::connect`]), which is fine for the non-Linux dev loop;
    //! production targets are Linux.

    use super::{Event, Interest, Token};
    use std::collections::HashMap;
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// How long [`connect`] may block the caller.
    const CONNECT_STALL: Duration = Duration::from_millis(500);

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

    pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_STALL)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
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

/// Open a nonblocking TCP connection to `addr` (IPv4 or IPv6) without
/// waiting for the handshake. Register the stream for writability: its
/// first writable (or error) event ends the connect, and
/// `TcpStream::take_error` then says whether it succeeded. Until then
/// the socket reads and writes nothing. An error here means the connect
/// failed before any packet left (no route, no descriptor).
///
/// On Linux this is `socket(SOCK_NONBLOCK | SOCK_CLOEXEC)` + `connect`,
/// which returns at once. The `poll(2)` fallback has no such call in
/// `std` and blocks in `TcpStream::connect_timeout` for up to 500 ms
/// instead: there a peer that never answers stalls the caller's loop
/// for that long.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    sys::connect(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

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

    /// Wait up to 5 s for `stream`'s connect to end; `take_error` says
    /// how it ended.
    fn finish_connect(stream: &TcpStream) -> Option<io::Error> {
        let mut poller = Poller::new().unwrap();
        poller.add(stream.as_raw_fd(), 3, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && (e.writable || e.error)), "{events:?}");
        stream.take_error().unwrap()
    }

    /// A connect returns before the handshake, its first writable event
    /// reports success, and the stream then carries bytes both ways; on
    /// IPv6 too, where the host has a loopback for it.
    #[test]
    fn connect_finishes_in_the_poller() {
        for local in ["127.0.0.1:0", "[::1]:0"] {
            let Ok(listener) = TcpListener::bind(local) else { continue };
            let mut client = connect(listener.local_addr().unwrap()).unwrap();
            assert!(finish_connect(&client).is_none(), "{local}");
            let (mut server, _) = listener.accept().unwrap();
            client.write_all(b"hi").unwrap();
            let mut buf = [0u8; 2];
            server.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hi");
            server.write_all(b"ok").unwrap();
            client.set_nonblocking(false).unwrap();
            client.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ok");
        }
    }

    /// A connect to a port nobody listens on fails at its first event,
    /// not at the call.
    #[test]
    fn a_refused_connect_surfaces_as_an_event() {
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let err = match connect(addr) {
            Ok(stream) => finish_connect(&stream).expect("a connect to a closed port succeeded"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }
}
