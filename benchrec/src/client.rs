//! A `ticc-wire-v1` client over one loopback connection: blocking
//! round trips for set-up and the closed loop, and an open-loop generator
//! that sends on a fixed schedule while it reads replies.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ticc_server::wire::{FrameDecoder, MAX_FRAME_BYTES};

pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
    out: Vec<u8>,
}

/// What an open-loop run measured, one entry per request in send
/// order.
#[derive(Default)]
pub struct OpenLoop {
    /// From each request's due time to its reply.
    pub latency: Vec<Duration>,
    /// From each request's due time to its send.
    pub send_lag: Vec<Duration>,
}

impl Client {
    /// Connects and completes the handshake.
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut c = Self {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0; 64 << 10],
            out: Vec::new(),
        };
        let resp = c.call(&crate::orders::hello_request());
        assert!(
            resp.starts_with("{\"ok\":true"),
            "handshake refused: {resp}"
        );
        c
    }

    fn queue(&mut self, payload: &str) {
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(payload.as_bytes());
    }

    /// One blocking round trip.
    pub fn call(&mut self, req: &str) -> String {
        self.queue(req);
        self.stream
            .write_all(&self.out)
            .expect("write a request frame");
        self.out.clear();
        loop {
            if let Some(frame) = self.next_frame() {
                return frame;
            }
            let n = self.stream.read(&mut self.buf).expect("read a reply");
            assert!(n > 0, "the server closed the connection");
            self.decoder.extend(&self.buf[..n]);
        }
    }

    fn next_frame(&mut self) -> Option<String> {
        let frame = self
            .decoder
            .next_frame(MAX_FRAME_BYTES)
            .expect("reply frames are well formed")?;
        Some(String::from_utf8(frame).expect("replies are UTF-8"))
    }

    /// Sends `count` requests, request `k` at `due(k)` whatever the
    /// replies are doing, and reads replies as they arrive. `make(k,
    /// buf)` writes request `k` into `buf` and returns a tag that
    /// `reply(tag, response, due, sent, received)` gets back with its
    /// reply. Latency is timed from the due time, so a stall counts
    /// against every request it delays.
    pub fn open_loop<T>(
        &mut self,
        count: usize,
        due: impl Fn(usize) -> Instant,
        mut make: impl FnMut(usize, &mut String) -> T,
        mut reply: impl FnMut(T, &str, Instant, Instant, Instant),
    ) -> OpenLoop {
        self.stream
            .set_nonblocking(true)
            .expect("switch the socket to nonblocking");
        let mut m = OpenLoop {
            latency: Vec::with_capacity(count),
            send_lag: Vec::with_capacity(count),
        };
        let mut inflight: VecDeque<(T, Instant, Instant)> = VecDeque::new();
        let mut req = String::new();
        let mut written = 0;
        let mut k = 0;
        while k < count || !inflight.is_empty() {
            // Send everything that is due.
            let mut now = Instant::now();
            while k < count && due(k) <= now {
                req.clear();
                let tag = make(k, &mut req);
                self.queue(&req);
                now = Instant::now();
                m.send_lag.push(now - due(k));
                inflight.push_back((tag, due(k), now));
                k += 1;
            }
            while written < self.out.len() {
                match self.stream.write(&self.out[written..]) {
                    Ok(n) => written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("write a request frame: {e}"),
                }
            }
            if written == self.out.len() {
                self.out.clear();
                written = 0;
            }
            // Take every reply that has arrived.
            loop {
                match self.stream.read(&mut self.buf) {
                    Ok(0) => panic!("the server closed the connection"),
                    Ok(n) => self.decoder.extend(&self.buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("read a reply: {e}"),
                }
            }
            let received = Instant::now();
            while let Some(frame) = self.next_frame() {
                let (tag, due_at, sent) = inflight.pop_front().expect("a reply answers a request");
                m.latency.push(received - due_at);
                reply(tag, &frame, due_at, sent, received);
            }
            // Sleep until the next send is due or a reply arrives.
            let wait = if k < count {
                due(k).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(100)
            };
            if !wait.is_zero() {
                wait_readable(&self.stream, wait, written < self.out.len());
            }
        }
        self.stream
            .set_nonblocking(false)
            .expect("switch the socket back to blocking");
        m
    }
}

impl Client {
    /// A closed loop with one request in flight per caller: the first
    /// request of each of `callers` callers goes out at once, and each
    /// reply releases its caller's next request, until `total` replies
    /// have come back. `make(caller, buf)` writes the caller's next
    /// request and returns a tag; `reply(tag, response, sent,
    /// received)` gets it back. Replies arrive in send order.
    pub fn pipelined<T>(
        &mut self,
        callers: usize,
        total: usize,
        mut make: impl FnMut(usize, &mut String) -> T,
        mut reply: impl FnMut(T, &str, Instant, Instant),
    ) {
        let mut inflight: VecDeque<(usize, T, Instant)> = VecDeque::new();
        let mut req = String::new();
        let mut sent = 0;
        let mut send = |c: &mut Client, caller: usize, inflight: &mut VecDeque<_>| {
            req.clear();
            let tag = make(caller, &mut req);
            c.queue(&req);
            inflight.push_back((caller, tag, Instant::now()));
        };
        for caller in 0..callers.min(total) {
            send(self, caller, &mut inflight);
            sent += 1;
        }
        let mut done = 0;
        while done < total {
            self.stream
                .write_all(&self.out)
                .expect("write request frames");
            self.out.clear();
            loop {
                let n = self.stream.read(&mut self.buf).expect("read replies");
                assert!(n > 0, "the server closed the connection");
                self.decoder.extend(&self.buf[..n]);
                if self.decoder.buffered() >= 4 {
                    break;
                }
            }
            let received = Instant::now();
            while let Some(frame) = self.next_frame() {
                let (caller, tag, at) = inflight.pop_front().expect("a reply answers a request");
                reply(tag, &frame, at, received);
                done += 1;
                if sent < total {
                    send(self, caller, &mut inflight);
                    sent += 1;
                }
            }
        }
    }
}

/// Blocks until `stream` is readable (or writable, with `or_writable`)
/// or `timeout` passes, with nanosecond resolution: `ppoll(2)`.
#[cfg(target_os = "linux")]
fn wait_readable(stream: &TcpStream, timeout: Duration, or_writable: bool) {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if or_writable {
            POLLIN | POLLOUT
        } else {
            POLLIN
        },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` is one valid pollfd and `ts` a valid timespec, both
    // live for the call; a null sigmask leaves the mask unchanged. The
    // result only tells us to go and look, so errors (EINTR) are
    // ignored: the caller's loop polls again.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_readable(_stream: &TcpStream, timeout: Duration, _or_writable: bool) {
    std::thread::sleep(timeout.min(Duration::from_micros(50)));
}
