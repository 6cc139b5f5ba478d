//! Driving an in-process `Server` through `dispatch`, as a connection
//! would: plain and traced requests, the engine counters of its
//! tenants from the wire `stats` op, and timed recovery of a group
//! WAL. `domain_growth` and `server_restart` run on these, and
//! `served_orders` uses the recovery for its clean restart.

use std::path::Path;
use std::time::{Duration, Instant};

use ticc_core::EngineStats;
use ticc_server::json::{self, Json};
use ticc_server::wire::{FrameDecoder, MAX_FRAME_BYTES};
use ticc_server::{Limits, Server};

use crate::orders::{hello_request, options};
use crate::report::Tally;
use crate::trace::{SpanId, Spans};

/// One request through `dispatch`.
pub fn ask(server: &Server, req: &str, hello: &mut bool) -> String {
    let parsed = json::parse(req).expect("benchmark requests are valid JSON");
    server.dispatch_sized(&parsed, req.len(), hello).0
}

/// One request framed, decoded, parsed and dispatched, with a span
/// around each step when `spans` is given.
pub fn ask_framed(
    server: &Server,
    req: &str,
    hello: &mut bool,
    spans: Option<&mut Spans>,
    request: u64,
) -> String {
    let Some(spans) = spans else {
        return ask(server, req, hello);
    };
    let mut frame = (req.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(req.as_bytes());
    let root = spans.begin("request", SpanId::ROOT, request);
    let s = spans.begin("server.wire.decode", root, request);
    let mut decoder = FrameDecoder::new();
    decoder.extend(&frame);
    let payload = decoder
        .next_frame(MAX_FRAME_BYTES)
        .expect("well-formed frame")
        .expect("a whole frame");
    spans.end(s);
    let s = spans.begin("server.json.parse", root, request);
    let text = std::str::from_utf8(&payload).expect("UTF-8 request");
    let parsed = json::parse(text).expect("valid JSON");
    spans.end(s);
    let s = spans.begin("server.dispatch", root, request);
    let resp = server.dispatch_sized(&parsed, payload.len(), hello).0;
    spans.end(s);
    spans.end(root);
    resp
}

/// The engine counters of `tenants`, summed, from the wire `stats` op.
pub fn engine_stats(server: &Server, tenants: &[String], hello: &mut bool) -> EngineStats {
    let mut sum = EngineStats::default();
    for name in tenants {
        let resp = ask(
            server,
            &format!("{{\"op\":\"stats\",\"session\":\"{name}\"}}"),
            hello,
        );
        let doc = json::parse(&resp).expect("stats replies are JSON");
        let stats = doc.get("stats");
        let field = |path: &[&str]| {
            let mut j = stats;
            for k in path {
                j = j.and_then(|j| j.get(k));
            }
            j.and_then(Json::as_u64).unwrap_or(0)
        };
        let ns = |k: &str| Duration::from_nanos(field(&[k]));
        let mut s = EngineStats {
            appends: field(&["appends"]),
            fast_appends: field(&["fast_appends"]),
            delta_grounds: field(&["delta_grounds"]),
            new_conjuncts: field(&["new_conjuncts"]),
            replayed_conjuncts: field(&["replayed_conjuncts"]),
            progress_steps: field(&["progress_steps"]),
            sat_checks: field(&["sat_checks"]),
            automaton_steps: field(&["automata", "automaton_steps"]),
            automaton_insts: field(&["automata", "automaton_insts"]),
            automaton_states: field(&["automata", "automaton_states"]),
            inst_pruned: field(&["inst_pruned"]),
            ground_time: ns("ground_time_ns"),
            progress_time: ns("progress_time_ns"),
            ..EngineStats::default()
        };
        s.cache.transition_hits = field(&["cache", "transition_hits"]);
        s.cache.transition_misses = field(&["cache", "transition_misses"]);
        sum.absorb(&s);
    }
    sum
}

/// `backpressure` plus `quota` refusals, from a `stats` reply.
pub fn refusals(stats_reply: &str) -> f64 {
    let doc = json::parse(stats_reply).expect("stats replies are JSON");
    let server = doc.get("stats").and_then(|s| s.get("server"));
    let field = |k: &str| {
        server
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    field("backpressure") + field("quota_refusals")
}

/// A tenant to reopen after a restart.
pub struct Reopen {
    pub name: String,
    pub open_request: String,
    /// States the reopened tenant must report.
    pub states: usize,
    /// Whether it checkpointed before the restart.
    pub checkpointed: bool,
}

/// What one recovery took, in seconds.
#[derive(Default, Clone, Copy)]
pub struct Recovery {
    /// From opening the WAL until every tenant's `open` answered.
    pub total: f64,
    /// `Server::with_wal`: reading the log.
    pub open: f64,
    /// `open` of the tenants that checkpointed, and of those that
    /// never did.
    pub snapshot: f64,
    pub replay: f64,
}

/// Reopens the group WAL at `log` and every tenant, timed; a tenant
/// that answers with another state count is a wrong verdict. Returns
/// the recovered server, ready for more requests.
pub fn recover(
    log: &Path,
    tenants: &[Reopen],
    tally: &mut Tally,
    spans: Option<&mut Spans>,
) -> (Server, bool, Recovery) {
    let mut spans = spans;
    let cycle = spans.as_mut().map(|s| s.begin("recover", SpanId::ROOT, 0));
    let t0 = Instant::now();
    let server =
        Server::with_wal(options(), Limits::default(), log).expect("the logged WAL reopens");
    let open = t0.elapsed().as_secs_f64();
    if let (Some(s), Some(c)) = (spans.as_mut(), cycle) {
        let (a, b) = (s.at(t0), s.at(Instant::now()));
        s.record("store.recovery.open", a, b, c, 0);
    }
    let mut hello = false;
    let mut replies = Vec::with_capacity(tenants.len());
    let (mut snapshot, mut replay) = (0.0, 0.0);
    replies.push(ask(&server, &hello_request(), &mut hello));
    for t in tenants {
        let a = Instant::now();
        replies.push(ask(&server, &t.open_request, &mut hello));
        let took = a.elapsed();
        *(if t.checkpointed {
            &mut snapshot
        } else {
            &mut replay
        }) += took.as_secs_f64();
        if let (Some(s), Some(c)) = (spans.as_mut(), cycle) {
            let name = if t.checkpointed {
                "core.snapshot.reopen"
            } else {
                "core.session.replay_reopen"
            };
            let (a, b) = (s.at(a), s.at(a + took));
            s.record(name, a, b, c, 0);
        }
    }
    let total = t0.elapsed().as_secs_f64();
    if let (Some(s), Some(c)) = (spans, cycle) {
        s.end(c);
    }
    tally.attempted += 1 + tenants.len() as u64;
    let mut ok = replies[0].starts_with("{\"ok\":true");
    if !ok {
        tally.refused("engine", "handshake refused after recovery".to_owned());
    }
    for (t, resp) in tenants.iter().zip(&replies[1..]) {
        let want = format!("\"states\":{}", t.states);
        if !resp.starts_with("{\"ok\":true") || !resp.contains(&want) {
            tally.wrong(format!("{}: reopened as {resp}", t.name));
            ok = false;
        }
    }
    let rec = Recovery {
        total,
        open,
        snapshot,
        replay,
    };
    (server, ok, rec)
}
