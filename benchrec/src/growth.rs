//! `domain_growth`: one tenant of an in-process server with a group
//! WAL, driven through `Server::dispatch` under the response, FIFO and
//! cap constraints, fed a fixed script in which every order id is
//! fresh. Each new id triggers a delta re-ground and a replay of the
//! new instantiations through the stored trace — the paper's
//! `t·|R_D|^k` term — so cost grows along the script by design. The
//! script is run in whole rounds, each on a fresh log; a round ends
//! with a checkpoint and a clean restart, and the violation probes go
//! to the recovered tenant.

use std::path::Path;
use std::time::{Duration, Instant};

use ticc_bench::families;
use ticc_bench::latency::summarize;
use ticc_core::EngineStats;
use ticc_server::json::{self, Json};
use ticc_server::{Limits, Server};
use ticc_tdb::rng::Rng;
use ticc_tdb::{Schema, Transaction, Value};

use crate::detect::{check_log, wire_events, Constraint, Outcomes};
use crate::inproc::{self, ask, Reopen};
use crate::orders::{
    append_request, clean_t, distinct_ids, growth_script, hello_request, open_request, options,
    order_constraints,
};
use crate::report::{self, Report, Tally};
use crate::trace::Spans;
use crate::Args;

/// Orders the set-up brings in before the timed script starts.
const BASE_ORDERS: usize = 30;
/// Fresh orders in the timed script (four appends each).
const NEW_ORDERS: usize = 30;
const TENANT: &str = "growth";
/// Restarts after each round.
const RESTARTS: usize = 10;

/// Counts one append reply for state `t`, keeping its events if any.
fn outcome(resp: &str, t: usize, tally: &mut Tally, outcomes: &mut Outcomes) {
    tally.attempted += 1;
    if clean_t(resp) == Some(t) {
        return;
    }
    let doc = json::parse(resp).ok();
    let doc = doc.as_ref();
    if doc.and_then(|d| d.get("ok")).and_then(Json::as_bool) != Some(true) {
        let code = doc
            .and_then(|d| d.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("error");
        tally.refused(code, format!("append {t}: {resp}"));
        return;
    }
    let at = doc.and_then(|d| d.get("t")).and_then(Json::as_u64);
    match (at, doc.and_then(wire_events)) {
        (Some(at), Some(events)) if at as usize == t => outcomes.push((t, events)),
        _ => tally.wrong(format!("reply {resp} for state {t}")),
    }
}

pub fn run(args: &Args, process_start: Instant) -> Report {
    let schema = families::order_schema();
    let mut rng = Rng::seed_from_u64(args.seed);
    // Base orders, new orders, and two probe ids, all distinct.
    let ids = distinct_ids(&mut rng, BASE_ORDERS + NEW_ORDERS + 2);
    let constraints = order_constraints(&ids);
    let base = growth_script(&schema, &ids[..BASE_ORDERS]);
    let script = growth_script(&schema, &ids[BASE_ORDERS..BASE_ORDERS + NEW_ORDERS]);
    let Constraint::Cap(cap) = constraints[2] else {
        unreachable!("order_constraints ends with the cap")
    };
    let probes = probe_txs(&schema, ids[ids.len() - 2], ids[ids.len() - 1], cap);
    let render = |txs: &[Transaction]| -> Vec<String> {
        txs.iter()
            .map(|tx| append_request(&schema, TENANT, tx))
            .collect()
    };
    let (base_reqs, script_reqs) = (render(&base), render(&script));
    let open = open_request(TENANT, &constraints);
    let reopen = [Reopen {
        name: TENANT.to_owned(),
        open_request: open.clone(),
        states: base.len() + script.len(),
        checkpointed: true,
    }];
    let names = [TENANT.to_owned()];
    let dir = Path::new(crate::OUT_DIR).join(format!("growth-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let log = dir.join("round.gwal");
    let work = dir.join("work.gwal");

    let mut tally = Tally::default();
    let mut setup_times = Vec::new();
    let mut throughputs = Vec::new();
    let mut fresh = Vec::new();
    let mut log_bytes = Vec::new();
    let mut recoveries = Vec::new();
    let mut spans = Spans::new(1 << 20);
    let mut layer = (EngineStats::default(), EngineStats::default());
    let (mut frames, mut refusals, mut snapshot_bytes) = (0.0, 0.0, 0.0);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut first_timed: Option<Instant> = None;
    while first_timed.is_none_or(|t| t.elapsed() < budget) {
        let t_setup = if first_timed.is_none() {
            process_start
        } else {
            Instant::now()
        };
        let _ = std::fs::remove_file(&log);
        let server =
            Server::with_wal(options(), Limits::default(), &log).expect("create the round's WAL");
        let mut hello = false;
        let mut outcomes = Vec::new();
        tally.attempted += 2;
        if !ask(&server, &hello_request(), &mut hello).starts_with("{\"ok\":true")
            || !ask(&server, &open, &mut hello).starts_with("{\"ok\":true")
        {
            tally.refused("engine", "handshake or open refused".to_owned());
        }
        for (i, req) in base_reqs.iter().enumerate() {
            outcome(&ask(&server, req, &mut hello), i, &mut tally, &mut outcomes);
        }
        setup_times.push(t_setup.elapsed().as_secs_f64());

        if args.trace {
            layer.0 = inproc::engine_stats(&server, &names, &mut hello);
        }
        let group0 = server.group_stats().unwrap_or_default();
        let t0 = Instant::now();
        first_timed.get_or_insert(t0);
        for (i, req) in script_reqs.iter().enumerate() {
            let a = Instant::now();
            let resp = inproc::ask_framed(
                &server,
                req,
                &mut hello,
                args.trace.then_some(&mut spans),
                i as u64,
            );
            if i % 4 == 0 {
                fresh.push(a.elapsed());
            }
            outcome(&resp, base.len() + i, &mut tally, &mut outcomes);
        }
        throughputs.push(script.len() as f64 / t0.elapsed().as_secs_f64());
        let group1 = server.group_stats().unwrap_or_default();
        log_bytes.push((group1.bytes_written - group0.bytes_written) as f64 / script.len() as f64);
        frames = (group1.frames - group0.frames) as f64;
        if args.trace {
            layer.1 = inproc::engine_stats(&server, &names, &mut hello);
            refusals = inproc::refusals(&ask(
                &server,
                &format!("{{\"op\":\"stats\",\"session\":\"{TENANT}\"}}"),
                &mut hello,
            ));
        }

        // A clean shutdown: checkpoint, flush, restart.
        tally.attempted += 2;
        let ck = ask(
            &server,
            &format!("{{\"op\":\"checkpoint\",\"session\":\"{TENANT}\"}}"),
            &mut hello,
        );
        match json::parse(&ck)
            .ok()
            .and_then(|j| j.get("bytes").and_then(Json::as_u64))
        {
            Some(b) => snapshot_bytes = b as f64,
            None => tally.refused("engine", format!("checkpoint: {ck}")),
        }
        let down = ask(
            &server,
            "{\"op\":\"shutdown\",\"checkpoint\":false}",
            &mut hello,
        );
        if !down.starts_with("{\"ok\":true") {
            tally.refused("engine", format!("shutdown: {down}"));
        }
        drop(server);
        // One restart takes milliseconds, so each round restarts
        // several times, each from a fresh copy of the log.
        let mut recovered = None;
        for _ in 0..RESTARTS {
            drop(recovered.take());
            std::fs::copy(&log, &work).expect("copy the round's WAL");
            let (server, _, rec) =
                inproc::recover(&work, &reopen, &mut tally, args.trace.then_some(&mut spans));
            recoveries.push(rec);
            recovered = Some(server);
        }
        let server = recovered.expect("at least one restart");

        let mut hello = false;
        ask(&server, &hello_request(), &mut hello);
        let mut planned = Vec::new();
        for (t, (tx, target)) in (base.len() + script.len()..).zip(&probes) {
            if let Some(kind) = target {
                planned.push((kind.name(), t + 1));
            }
            let resp = ask(&server, &append_request(&schema, TENANT, tx), &mut hello);
            outcome(&resp, t, &mut tally, &mut outcomes);
        }
        let log = base
            .iter()
            .chain(&script)
            .chain(probes.iter().map(|(tx, _)| tx));
        check_log(&schema, &constraints, log, &outcomes, &planned, &mut tally);
    }
    let peak_rss = report::peak_rss_mib();
    let _ = std::fs::remove_dir_all(&dir);

    let mut rep = Report::new(tally);
    if args.trace {
        report::request_layer_metrics(&mut rep, &spans, refusals, frames);
        report::engine_layer_metrics(&mut rep, &layer.0, &layer.1, constraints.len());
        report::recovery_layer_metrics(&mut rep, &recoveries, snapshot_bytes);
        rep.proc_metrics();
        report::write_spans(&spans, "domain_growth");
    } else {
        rep.metric("setup_s", report::median(setup_times), "s");
        rep.metric("append_p50_us", report::us(summarize(fresh).p50), "us");
        rep.metric("appends_per_s", report::median(throughputs), "1/s");
        rep.metric(
            "recover_s",
            report::median(recoveries.iter().map(|r| r.total).collect()),
            "s",
        );
        rep.metric("log_bytes_per_append", report::median(log_bytes), "B");
        rep.metric("peak_rss_mb", peak_rss, "MiB");
    }
    rep
}

/// Probes after the script (whose last state is empty), each with the
/// constraint it must violate: `b` overtakes `a` (FIFO), both filled
/// cleanly, then the cap is submitted and never filled (cap, then
/// response).
fn probe_txs(
    schema: &Schema,
    a: Value,
    b: Value,
    cap: Value,
) -> Vec<(Transaction, Option<Constraint>)> {
    let sub = schema.pred("Sub").expect("order schema");
    let fill = schema.pred("Fill").expect("order schema");
    vec![
        (
            Transaction::new()
                .insert(sub, vec![a])
                .insert(sub, vec![b])
                .insert(fill, vec![b]),
            Some(Constraint::Fifo),
        ),
        (
            Transaction::new()
                .delete(sub, vec![a])
                .delete(sub, vec![b])
                .insert(fill, vec![a]),
            None,
        ),
        (
            Transaction::new()
                .delete(fill, vec![a])
                .delete(fill, vec![b])
                .insert(sub, vec![cap]),
            Some(Constraint::Cap(cap)),
        ),
        (
            Transaction::new().delete(sub, vec![cap]),
            Some(Constraint::Response),
        ),
    ]
}
