//! The result object every workload prints, and the operation tally
//! behind its `attempted`/`failed` counts.

use std::time::{Duration, Instant};

use ticc_core::EngineStats;

use crate::inproc::Recovery;
use crate::trace::{self, Spans};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and how they failed. A wrong verdict (the
/// program's events disagree with the detectors, or a recovered tenant
/// differs from its never-stopped twin) is a failed operation that
/// also makes the run incorrect.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub backpressure: u64,
    pub quota: u64,
    pub wrong: u64,
    /// First few failure descriptions, printed to stderr.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.backpressure + self.quota + self.wrong
    }

    /// Counts a wrong verdict with its description.
    pub fn wrong(&mut self, note: String) {
        self.wrong += 1;
        self.note(note);
    }

    /// Counts an error response by its wire code.
    pub fn refused(&mut self, code: &str, note: String) {
        match code {
            "backpressure" => self.backpressure += 1,
            "quota" => self.quota += 1,
            _ => self.errors += 1,
        }
        self.note(note);
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.backpressure += other.backpressure;
        self.quota += other.quota;
        self.wrong += other.wrong;
        for n in other.notes {
            self.note(n);
        }
    }
}

/// A workload's result.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(tally: Tally) -> Self {
        Self {
            tally,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds the `proc.*` metrics every traced run reports.
    pub fn proc_metrics(&mut self) {
        let u = trace::usage();
        self.metric("proc.cpu_user_s", u.user_s, "s");
        self.metric("proc.cpu_sys_s", u.sys_s, "s");
        self.metric("proc.ctx_switches", u.ctx_switches as f64, "count");
    }

    /// No operation got a wrong verdict.
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (NaN-free), 0 for an empty slice.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Times `reps` set-ups and keeps the last fixture. The first set-up
/// is timed from process start, the others from their own start;
/// `setup_s` is their median, so one slow set-up does not move it.
pub fn repeated_setup<F>(
    reps: usize,
    process_start: Instant,
    mut setup: impl FnMut(usize) -> F,
) -> (F, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for r in 0..reps {
        let t0 = if r == 0 {
            process_start
        } else {
            Instant::now()
        };
        // Drop the previous fixture before timing the next set-up.
        drop(last.take());
        let fx = setup(r);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(fx);
    }
    (last.expect("at least one set-up"), median(times))
}

/// Runs warm-up chunks until the per-append cost stops falling: at
/// least `min_chunks`, then until two chunks in a row fail to beat the
/// best cost so far by 3 %, at most `max_chunks`. `chunk` runs one
/// chunk and returns its cost per append.
pub fn warm_up(min_chunks: usize, max_chunks: usize, mut chunk: impl FnMut() -> f64) {
    let mut best = f64::INFINITY;
    let mut flat = 0;
    for n in 1..=max_chunks {
        let cost = chunk();
        if cost < best * 0.97 {
            best = cost;
            flat = 0;
        } else {
            flat += 1;
        }
        if n >= min_chunks && flat >= 2 {
            return;
        }
    }
}

/// Peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    trace::usage().max_rss_kib as f64 / 1024.0
}

/// Writes the span log of a traced run next to the other outputs.
pub fn write_spans(spans: &Spans, workload: &str) {
    let path = std::path::Path::new(crate::OUT_DIR).join(format!("{workload}.spans.tsv"));
    if let Err(e) = spans.write(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// `d` in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The engine-layer counters: counts and ratios over the timed part
/// (`after` minus `before`), the ground and progression timers as
/// totals since the sessions opened, so a layer with nothing to do in
/// the timed part still shows what it cost. `fast_appends` counts once
/// per constraint, so its share is taken over `appends × constraints`.
pub fn engine_layer_metrics(
    rep: &mut Report,
    before: &EngineStats,
    after: &EngineStats,
    constraints: usize,
) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let appends = d(after.appends, before.appends).max(1.0);
    let hits = d(after.cache.transition_hits, before.cache.transition_hits);
    let misses = d(
        after.cache.transition_misses,
        before.cache.transition_misses,
    );
    rep.metric(
        "core.engine.fast_share",
        d(after.fast_appends, before.fast_appends) / (appends * constraints as f64),
        "ratio",
    );
    rep.metric(
        "core.engine.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    rep.metric(
        "ptl.automaton.steps_per_append",
        d(after.automaton_steps, before.automaton_steps) / appends,
        "count",
    );
    rep.metric("ptl.automaton.insts", after.automaton_insts as f64, "count");
    rep.metric(
        "ptl.automaton.states",
        after.automaton_states as f64,
        "count",
    );
    rep.metric(
        "ptl.progression.time_s",
        after.progress_time.as_secs_f64(),
        "s",
    );
    rep.metric(
        "ptl.progression.steps",
        d(after.progress_steps, before.progress_steps),
        "count",
    );
    rep.metric(
        "ptl.sat.checks",
        d(after.sat_checks, before.sat_checks),
        "count",
    );
    rep.metric("core.ground.time_s", after.ground_time.as_secs_f64(), "s");
    rep.metric(
        "core.ground.delta_grounds",
        d(after.delta_grounds, before.delta_grounds),
        "count",
    );
    rep.metric(
        "core.ground.new_conjuncts",
        d(after.new_conjuncts, before.new_conjuncts),
        "count",
    );
    rep.metric(
        "core.ground.replayed_conjuncts",
        d(after.replayed_conjuncts, before.replayed_conjuncts),
        "count",
    );
    rep.metric("core.ground.inst_pruned", after.inst_pruned as f64, "count");
}

/// The per-request layer metrics of a traced run: medians of the
/// `server.wire.decode`, `server.json.parse` and `server.dispatch`
/// spans, plus the refusals and group-WAL frames the caller counted.
pub fn request_layer_metrics(rep: &mut Report, spans: &Spans, refusals: f64, frames: f64) {
    let med = |name: &str| crate::trace::median_us(spans.durations(name));
    rep.metric("server.wire.decode_us", med("server.wire.decode"), "us");
    rep.metric("server.json.parse_us", med("server.json.parse"), "us");
    rep.metric("server.dispatch_us", med("server.dispatch"), "us");
    rep.metric("server.refusals", refusals, "count");
    rep.metric("store.group.frames", frames, "count");
}

/// The recovery layer metrics of a traced run: medians over the
/// recoveries of reading the log and of reopening the tenants that
/// checkpointed, and the bytes of their snapshots.
pub fn recovery_layer_metrics(rep: &mut Report, recoveries: &[Recovery], snapshot_bytes: f64) {
    let med = |f: fn(&Recovery) -> f64| median(recoveries.iter().map(f).collect());
    rep.metric("store.recovery.open_s", med(|r| r.open), "s");
    rep.metric("core.snapshot.reopen_s", med(|r| r.snapshot), "s");
    rep.metric("core.snapshot.bytes", snapshot_bytes, "B");
}
