//! Spans recorded by the benchmark around its calls into the program,
//! and process-level counters.
//!
//! Spans live in memory and are written once, when the workload ends.
//! Only the traced invocation (`--trace 1`) records them; the
//! end-to-end run does not call into this module on its hot paths.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span: a named interval, the span that caused it, and
/// the request it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// 1-based index of the parent span; 0 for a root.
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open span (its 1-based index, 0 when not recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

/// An in-memory span log. Beyond `cap` spans it stops storing (and
/// counts what it dropped), so a long traced run keeps bounded memory.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    pub fn new(cap: usize) -> Self {
        Self::since(Instant::now(), cap)
    }

    /// A log whose times count from `origin`, so logs of several
    /// threads can be merged.
    pub fn since(origin: Instant, cap: usize) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Appends the spans of `other`, which must share this log's
    /// origin.
    pub fn absorb(&mut self, other: Spans) {
        assert_eq!(
            self.origin, other.origin,
            "merged span logs share an origin"
        );
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            if s.parent > 0 {
                s.parent += base;
            }
            self.spans.push(s);
        }
        self.dropped += other.dropped;
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let at = self.origin.elapsed();
        self.record(name, at, at, parent, request)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 > 0 {
            self.spans[id.0 as usize - 1].end = self.origin.elapsed();
        }
    }

    /// Records a span whose bounds the caller measured.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return SpanId::ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: parent.0,
            request,
        });
        SpanId(self.spans.len() as u32)
    }

    /// Offset of `t` from this log's origin.
    pub fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    /// Durations of every stored span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Writes the log as tab-separated rows:
    /// `id parent request name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "# dropped\t{}", self.dropped)?;
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        w.flush()
    }
}

/// Median of a sample set, in microseconds (0 for an empty set).
pub fn median_us(samples: Vec<Duration>) -> f64 {
    ticc_bench::latency::summarize(samples).p50.as_secs_f64() * 1e6
}

/// Process resource usage (all threads) from `getrusage(2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
    pub max_rss_kib: u64,
}

#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }
    /// `struct rusage` as Linux lays it out: two timevals, then
    /// fourteen longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut ru = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the
    // kernel's layout; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        // rest[0] is ru_maxrss (KiB); rest[12..14] are the voluntary
        // and involuntary context switches.
        ctx_switches: (ru.rest[12] + ru.rest[13]) as u64,
        max_rss_kib: ru.rest[0] as u64,
    }
}

#[cfg(not(target_os = "linux"))]
pub fn usage() -> Usage {
    Usage::default()
}
