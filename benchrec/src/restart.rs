//! `server_restart`: an in-process server with a group WAL, driven
//! through `Server::dispatch` with no sockets, logs a multi-tenant
//! order history. Half the tenants checkpoint midway; the others never
//! do. The server is dropped without a final checkpoint and reopened;
//! `recover_s` runs from opening the WAL until every tenant's `open`
//! has answered with its full state count. Store recovery, snapshot
//! restore and session replay do the work. Every tenant then appends
//! a further stretch of its churn, timed: the append rate and latency
//! of a server that has just restarted, caches cold.
//!
//! Correctness is recovered ≡ never-stopped: after each recovery,
//! every tenant's state count, statuses, continuation and the events
//! of one further append equal those of a twin server that logged the
//! same history and was never stopped, and the further append's
//! events agree with the detectors.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ticc_bench::families;
use ticc_bench::latency::summarize;
use ticc_core::EngineStats;
use ticc_server::json::{self, Json};
use ticc_server::{Limits, Server};
use ticc_tdb::rng::Rng;
use ticc_tdb::{Schema, Transaction};

use crate::detect::{agree, wire_events, Checker, Constraint};
use crate::inproc::{self, ask, Recovery, Reopen};
use crate::orders::{
    append_request, clean_t, distinct_ids, hello_request, open_request, options, order_constraints,
    Churn,
};
use crate::report::{self, Report, Tally};
use crate::trace::Spans;
use crate::Args;

const TENANTS: usize = 8;
const WINDOW: usize = 32;
/// Churn steps each tenant logs after its three set-up transactions.
const HISTORY: usize = 600;
/// Churn steps each tenant appends after every recovery (and the twin
/// once): `appends_per_s` and `append_p50_us`.
const CONTINUE: usize = WARM_STEPS + 8 * CHUNK;
/// The first continuation steps of each tenant, two laps of its
/// window, refill the caches a restart empties (FIFO misses its
/// transition cache for two laps); they are checked but not timed.
/// Their cost varied by a third from one run to the next.
const WARM_STEPS: usize = 2 * WINDOW;
/// Continuation steps per timed chunk; `appends_per_s` is the median
/// chunk rate.
const CHUNK: usize = 180;

struct Tenant {
    name: String,
    churn: Churn,
    constraints: [Constraint; 3],
    checkpointed: bool,
    /// The further append made after recovery (on the twin too).
    further: Transaction,
    /// The constraint `further` violates, if it is a probe.
    probe: Option<Constraint>,
}

/// What the never-stopped twin answered.
struct Expected {
    status: String,
    further: String,
}

struct Fixture {
    dir: PathBuf,
    log: PathBuf,
    expected: Vec<Expected>,
    snapshot_bytes: u64,
    log_bytes_per_append: f64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn run(args: &Args, process_start: Instant) -> Report {
    let schema = families::order_schema();
    let mut rng = Rng::seed_from_u64(args.seed);
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|k| {
            let churn = Churn::new(&schema, distinct_ids(&mut rng, WINDOW));
            let constraints = order_constraints(&churn.ids);
            // One tenant in four appends cleanly after recovery; the
            // others probe one constraint each.
            let probe = [None, Some(0), Some(1), Some(2)][k % 4].map(|c| constraints[c]);
            let further = match probe {
                None => churn.tx(HISTORY + CONTINUE).clone(),
                Some(kind) => churn.probe(&schema, HISTORY + CONTINUE, kind),
            };
            Tenant {
                name: format!("r{k}"),
                churn,
                constraints,
                checkpointed: k % 2 == 0,
                further,
                probe,
            }
        })
        .collect();
    let reopen: Vec<Reopen> = tenants
        .iter()
        .map(|t| Reopen {
            name: t.name.clone(),
            open_request: open_request(&t.name, &t.constraints),
            states: 3 + HISTORY,
            checkpointed: t.checkpointed,
        })
        .collect();
    let names: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
    let mut tally = Tally::default();
    let (fx, setup_s) = report::repeated_setup(3, process_start, |r| {
        setup(&schema, &tenants, r, &mut tally)
    });

    let mut spans = Spans::new(1 << 20);
    let mut recoveries = Vec::new();
    let mut rates = Vec::new();
    let mut latency = Vec::new();
    let mut engine = EngineStats::default();
    let (mut frames, mut refusals) = (0.0, 0.0);
    let work = fx.dir.join("work.gwal");
    let budget = Duration::from_secs_f64(args.seconds);
    let mut first_timed: Option<Instant> = None;
    while first_timed.is_none_or(|t| t.elapsed() < budget) {
        std::fs::copy(&fx.log, &work).expect("copy the logged WAL");
        first_timed.get_or_insert(Instant::now());
        let (server, ok, rec) =
            inproc::recover(&work, &reopen, &mut tally, args.trace.then_some(&mut spans));
        recoveries.push(rec);
        let mut hello = false;
        ask(&server, &hello_request(), &mut hello);

        // Recovered ≡ never-stopped: statuses first, then the
        // continuation (timed), then the further append.
        for (t, exp) in tenants.iter().zip(&fx.expected) {
            tally.attempted += 1;
            let status = ask(
                &server,
                &format!("{{\"op\":\"status\",\"session\":\"{}\"}}", t.name),
                &mut hello,
            );
            if status != exp.status {
                tally.wrong(format!(
                    "{}: status {status} vs twin {}",
                    t.name, exp.status
                ));
            }
        }
        let frames0 = server.group_stats().map_or(0, |g| g.frames);
        let requests: Vec<Vec<String>> = tenants
            .iter()
            .map(|t| {
                (HISTORY..HISTORY + CONTINUE)
                    .map(|i| append_request(&schema, &t.name, t.churn.tx(i)))
                    .collect()
            })
            .collect();
        let mut t0 = Instant::now();
        for step in 0..CONTINUE {
            if step >= WARM_STEPS && (step - WARM_STEPS).is_multiple_of(CHUNK) {
                if step > WARM_STEPS {
                    rates.push((TENANTS * CHUNK) as f64 / t0.elapsed().as_secs_f64());
                }
                t0 = Instant::now();
            }
            for (k, reqs) in requests.iter().enumerate() {
                let a = Instant::now();
                let resp = inproc::ask_framed(
                    &server,
                    &reqs[step],
                    &mut hello,
                    args.trace.then_some(&mut spans),
                    (step * TENANTS + k) as u64,
                );
                if step >= WARM_STEPS {
                    latency.push(a.elapsed());
                }
                tally.attempted += 1;
                if clean_t(&resp) != Some(3 + HISTORY + step) {
                    tally.wrong(format!("{} continuation {step}: {resp}", tenants[k].name));
                }
            }
        }
        rates.push((TENANTS * CHUNK) as f64 / t0.elapsed().as_secs_f64());
        frames = (server.group_stats().map_or(0, |g| g.frames) - frames0) as f64;
        for (t, exp) in tenants.iter().zip(&fx.expected) {
            tally.attempted += 1;
            let further = ask(
                &server,
                &append_request(&schema, &t.name, &t.further),
                &mut hello,
            );
            if further != exp.further {
                tally.wrong(format!(
                    "{}: further append {further} vs twin {}",
                    t.name, exp.further
                ));
            }
            check_further(&schema, t, &further, &mut tally);
        }
        if ok {
            engine = inproc::engine_stats(&server, &names, &mut hello);
            refusals = inproc::refusals(&ask(
                &server,
                "{\"op\":\"stats\",\"session\":\"r0\"}",
                &mut hello,
            ));
        }
        drop(server);
    }
    let peak_rss = report::peak_rss_mib();

    let mut rep = Report::new(tally);
    if args.trace {
        let med = |f: fn(&Recovery) -> f64| report::median(recoveries.iter().map(f).collect());
        eprintln!(
            "server_restart: reopen of the tenants that never checkpointed {:.3} s \
             (median), of those that did {:.3} s",
            med(|r| r.replay),
            med(|r| r.snapshot)
        );
        report::request_layer_metrics(&mut rep, &spans, refusals, frames);
        // The counters of the recovered tenants since they reopened:
        // recovery's ground and progression work, then the
        // continuation and the further append.
        report::engine_layer_metrics(&mut rep, &EngineStats::default(), &engine, 3);
        report::recovery_layer_metrics(&mut rep, &recoveries, fx.snapshot_bytes as f64);
        rep.proc_metrics();
        report::write_spans(&spans, "server_restart");
    } else {
        let lat = summarize(latency);
        rep.metric("setup_s", setup_s, "s");
        rep.metric("append_p50_us", report::us(lat.p50), "us");
        rep.metric("appends_per_s", report::median(rates), "1/s");
        rep.metric(
            "recover_s",
            report::median(recoveries.iter().map(|r| r.total).collect()),
            "s",
        );
        rep.metric("log_bytes_per_append", fx.log_bytes_per_append, "B");
        rep.metric("peak_rss_mb", peak_rss, "MiB");
    }
    rep
}

/// Logs the history on the server under test and on its twin, drops
/// the server under test, and records what the twin answers after.
fn setup(schema: &Schema, tenants: &[Tenant], rep: usize, tally: &mut Tally) -> Fixture {
    let dir = Path::new(crate::OUT_DIR).join(format!("restart-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let log = dir.join("logged.gwal");
    let server =
        Server::with_wal(options(), Limits::default(), &log).expect("create the WAL under test");
    let twin = Server::with_wal(options(), Limits::default(), dir.join("twin.gwal"))
        .expect("create the twin's WAL");
    let (mut h1, mut h2) = (false, false);
    let both = |req: &str, h1: &mut bool, h2: &mut bool, tally: &mut Tally| -> String {
        tally.attempted += 2;
        let a = ask(&server, req, h1);
        let b = ask(&twin, req, h2);
        if a != b {
            tally.wrong(format!("twins disagree before the restart: {a} vs {b}"));
        }
        a
    };
    both(&hello_request(), &mut h1, &mut h2, tally);
    for t in tenants {
        let resp = both(
            &open_request(&t.name, &t.constraints),
            &mut h1,
            &mut h2,
            tally,
        );
        if !resp.starts_with("{\"ok\":true") {
            tally.refused("engine", format!("open {}: {resp}", t.name));
        }
    }
    let mut snapshot_bytes = 0;
    for step in 0..3 + HISTORY {
        if step == 3 + HISTORY / 2 {
            // Snapshots carry the engine's timers, so their sizes may
            // differ between the twins by a byte; only success is
            // compared.
            for t in tenants.iter().filter(|t| t.checkpointed) {
                let req = format!("{{\"op\":\"checkpoint\",\"session\":\"{}\"}}", t.name);
                tally.attempted += 2;
                let resp = json::parse(&ask(&server, &req, &mut h1)).expect("replies are JSON");
                let twin_ok = ask(&twin, &req, &mut h2).starts_with("{\"ok\":true");
                match resp.get("bytes").and_then(Json::as_u64) {
                    Some(bytes) if twin_ok => snapshot_bytes += bytes,
                    _ => tally.refused(
                        "engine",
                        format!("checkpoint {}: {}", t.name, resp.render()),
                    ),
                }
            }
        }
        for t in tenants {
            let setup_txs;
            let tx = if step < 3 {
                setup_txs = t.churn.setup(schema);
                &setup_txs[step]
            } else {
                t.churn.tx(step - 3)
            };
            let resp = both(
                &append_request(schema, &t.name, tx),
                &mut h1,
                &mut h2,
                tally,
            );
            if clean_t(&resp) != Some(step) {
                tally.wrong(format!("{} step {step}: {resp}", t.name));
            }
        }
    }
    // Dropped with no shutdown op: no final checkpoint.
    drop(server);
    let expected = tenants
        .iter()
        .map(|t| {
            let status = ask(
                &twin,
                &format!("{{\"op\":\"status\",\"session\":\"{}\"}}", t.name),
                &mut h2,
            );
            for i in HISTORY..HISTORY + CONTINUE {
                let resp = ask(
                    &twin,
                    &append_request(schema, &t.name, t.churn.tx(i)),
                    &mut h2,
                );
                tally.attempted += 1;
                if clean_t(&resp) != Some(3 + i) {
                    tally.wrong(format!("twin {} continuation {i}: {resp}", t.name));
                }
            }
            let further = ask(&twin, &append_request(schema, &t.name, &t.further), &mut h2);
            check_further(schema, t, &further, tally);
            Expected { status, further }
        })
        .collect();
    let appends = (TENANTS * (3 + HISTORY)) as f64;
    let log_bytes = std::fs::metadata(&log)
        .expect("the logged WAL exists")
        .len();
    Fixture {
        dir,
        log,
        expected,
        snapshot_bytes,
        log_bytes_per_append: log_bytes as f64 / appends,
    }
}

/// The further append's events must be the detectors' over the
/// tenant's whole log, and a probe must fire.
fn check_further(schema: &Schema, t: &Tenant, resp: &str, tally: &mut Tally) {
    let mut ck = Checker::new(schema, &t.constraints);
    for tx in t.churn.setup(schema) {
        ck.apply(&tx);
    }
    for i in 0..HISTORY + CONTINUE {
        if !ck.apply(t.churn.tx(i)).is_empty() {
            tally.wrong(format!("{}: detectors flag churn step {i}", t.name));
        }
    }
    let at = ck.len() + 1;
    let expected = ck.apply(&t.further);
    let got = json::parse(resp).ok().and_then(|j| wire_events(&j));
    match got {
        Some(got) if agree(&got, &expected) => {}
        _ => tally.wrong(format!(
            "{}: further append {resp}, detectors {expected:?}",
            t.name
        )),
    }
    if let Some(kind) = t.probe {
        if expected != [(kind.name(), at)] {
            tally.wrong(format!("{}: probe {} did not fire", t.name, kind.name()));
        }
    }
}
