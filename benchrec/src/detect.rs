//! First-principles violation detectors, one per constraint the
//! workloads register. Each decides directly from the generated event
//! log (the sequence of `Sub`/`Fill` states), never through the
//! checker under test, and reports the history length at which the
//! violation became unavoidable — the `at` the program reports.
//!
//! All constraints here are safety properties whose violations are
//! witnessed by a finite prefix, so "unavoidable" is "witnessed": the
//! first state that completes a witness.

use std::collections::HashMap;

use ticc_tdb::{PredId, Schema, Transaction, Update, Value};

use crate::report::Tally;

/// The constraints the workloads register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// Every submission is filled at the next instant.
    Response,
    /// Orders are filled in submission order.
    Fifo,
    /// The tenant's cap, the one id the formula names, is never
    /// submitted.
    Cap(Value),
}

impl Constraint {
    /// The name the constraint is registered under.
    pub fn name(self) -> &'static str {
        match self {
            Constraint::Response => "response",
            Constraint::Fifo => "fifo",
            Constraint::Cap(_) => "cap",
        }
    }

    /// The FOTL source registered with the program.
    pub fn source(self) -> String {
        match self {
            Constraint::Response => ticc_bench::families::RESPONSE.to_owned(),
            Constraint::Fifo => ticc_bench::families::FIFO.to_owned(),
            Constraint::Cap(cap) => format!("G !Sub({cap})"),
        }
    }
}

/// One state of the order log. States hold a handful of facts, so
/// plain vectors beat ordered sets here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Facts {
    sub: Vec<Value>,
    fill: Vec<Value>,
}

/// Incremental decision of one constraint over a growing log.
#[derive(Debug, Clone)]
struct Detector {
    kind: Constraint,
    fired: bool,
    /// FIFO: for each order unfilled since a submission, the earliest
    /// such submission instant.
    open: HashMap<Value, usize>,
    /// FIFO: the latest instant each order was submitted.
    last_sub: HashMap<Value, usize>,
}

impl Detector {
    fn new(kind: Constraint) -> Self {
        Self {
            kind,
            fired: false,
            open: HashMap::new(),
            last_sub: HashMap::new(),
        }
    }

    /// Whether state `t`, following `prev`, completes a witness.
    fn witnessed(&mut self, t: usize, prev: &Facts, s: &Facts) -> bool {
        match self.kind {
            Constraint::Response => prev.sub.iter().any(|x| !s.fill.contains(x)),
            Constraint::Cap(cap) => s.sub.contains(&cap),
            Constraint::Fifo => {
                // Violated at u iff x ≠ y, Sub(x)@t0, ¬Fill(x) on
                // [t0, u], Sub(y)@s with t0 ≤ s ≤ u, and Fill(y)@u.
                for x in &s.fill {
                    self.open.remove(x);
                }
                for &x in &s.sub {
                    if !s.fill.contains(&x) {
                        self.open.entry(x).or_insert(t);
                    }
                    self.last_sub.insert(x, t);
                }
                s.fill.iter().any(|y| {
                    self.last_sub
                        .get(y)
                        .is_some_and(|&sy| self.open.iter().any(|(x, &t0)| x != y && sy >= t0))
                })
            }
        }
    }
}

/// The detectors of one tenant plus its current state: feed it the
/// transactions the program receives, in order, and it says which
/// violation events the program must report.
#[derive(Debug, Clone)]
pub struct Checker {
    sub: PredId,
    fill: PredId,
    prev: Facts,
    facts: Facts,
    len: usize,
    detectors: Vec<Detector>,
}

impl Checker {
    /// A checker for `constraints` over the order schema.
    pub fn new(schema: &Schema, constraints: &[Constraint]) -> Self {
        Self {
            sub: schema.pred("Sub").expect("order schema has Sub"),
            fill: schema.pred("Fill").expect("order schema has Fill"),
            prev: Facts::default(),
            facts: Facts::default(),
            len: 0,
            detectors: constraints.iter().map(|&c| Detector::new(c)).collect(),
        }
    }

    /// States fed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Applies `tx` as the next state and returns the events
    /// `(constraint, at)` it must raise, sorted by name. A constraint
    /// raises at most one event: once violated it stays violated.
    pub fn apply(&mut self, tx: &Transaction) -> Vec<(&'static str, usize)> {
        for u in tx.updates() {
            let (p, tuple, insert) = match u {
                Update::Insert(p, t) => (*p, t, true),
                Update::Delete(p, t) => (*p, t, false),
            };
            let set = if p == self.sub {
                &mut self.facts.sub
            } else if p == self.fill {
                &mut self.facts.fill
            } else {
                panic!("order transactions touch Sub and Fill only")
            };
            let v = tuple[0];
            if insert {
                if !set.contains(&v) {
                    set.push(v);
                }
            } else {
                set.retain(|&w| w != v);
            }
        }
        self.push_state()
    }

    fn push_state(&mut self) -> Vec<(&'static str, usize)> {
        let t = self.len;
        self.len += 1;
        let mut events = Vec::new();
        for d in &mut self.detectors {
            // FIFO keeps its bookkeeping current even after firing.
            if d.witnessed(t, &self.prev, &self.facts) && !d.fired {
                d.fired = true;
                events.push((d.kind.name(), t + 1));
            }
        }
        self.prev.clone_from(&self.facts);
        events.sort_unstable();
        events
    }
}

/// Parses the `events` of an append response into `(constraint, at)`
/// pairs, sorted by name.
pub fn wire_events(resp: &ticc_server::json::Json) -> Option<Vec<(String, usize)>> {
    let mut out = Vec::new();
    for e in resp.get("events")?.as_arr()? {
        let name = e.get("constraint")?.as_str()?.to_owned();
        let at = e.get("at")?.as_u64()? as usize;
        out.push((name, at));
    }
    out.sort_unstable();
    Some(out)
}

/// `(state index, events)` of every append that raised events, in
/// append order.
pub type Outcomes = Vec<(usize, Vec<(String, usize)>)>;

/// Runs the detectors over a tenant's whole `log` and compares every
/// append's events with the program's `outcomes` (appends missing
/// from `outcomes` raised none). `planned` lists the probe events that
/// must occur, so a detector that never fires cannot pass.
pub fn check_log<'a>(
    schema: &Schema,
    constraints: &[Constraint],
    log: impl Iterator<Item = &'a Transaction>,
    outcomes: &Outcomes,
    planned: &[(&'static str, usize)],
    tally: &mut Tally,
) {
    let mut ck = Checker::new(schema, constraints);
    let mut program = outcomes.iter().peekable();
    let mut fired = Vec::new();
    for tx in log {
        let t = ck.len();
        let expected = ck.apply(tx);
        let got: &[(String, usize)] = match program.peek() {
            Some((pt, _)) if *pt == t => &program.next().expect("peeked").1,
            _ => &[],
        };
        if !agree(got, &expected) {
            tally.wrong(format!(
                "state {t}: program {got:?}, detectors {expected:?}"
            ));
        }
        fired.extend(expected);
    }
    if let Some((t, events)) = program.next() {
        tally.wrong(format!("events {events:?} at state {t}, past the log"));
    }
    for p in planned {
        if !fired.contains(p) {
            tally.wrong(format!("probe {p:?} did not fire"));
        }
    }
}

/// Whether the program's events equal the detectors'.
pub fn agree<S: AsRef<str>>(program: &[(S, usize)], expected: &[(&'static str, usize)]) -> bool {
    program.len() == expected.len()
        && program
            .iter()
            .zip(expected)
            .all(|((n, a), (m, b))| n.as_ref() == *m && a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_bench::families::order_schema;

    /// Builds a history from per-state `(subs, fills)` and returns
    /// every event the checker raises.
    fn run(c: Constraint, states: &[(&[Value], &[Value])]) -> Vec<(&'static str, usize)> {
        let schema = order_schema();
        let (sub, fill) = (schema.pred("Sub").unwrap(), schema.pred("Fill").unwrap());
        let mut ck = Checker::new(&schema, &[c]);
        let mut prev: (&[Value], &[Value]) = (&[], &[]);
        let mut events = Vec::new();
        for &(subs, fills) in states {
            let mut tx = Transaction::new();
            for v in prev.0 {
                tx = tx.delete(sub, vec![*v]);
            }
            for v in prev.1 {
                tx = tx.delete(fill, vec![*v]);
            }
            for v in subs {
                tx = tx.insert(sub, vec![*v]);
            }
            for v in fills {
                tx = tx.insert(fill, vec![*v]);
            }
            events.extend(ck.apply(&tx));
            prev = (subs, fills);
        }
        events
    }

    /// The FIFO formula decided literally from its quantifier
    /// structure (the shape of the repository's oracle test): a
    /// reference for the incremental detector on small logs.
    fn fifo_literal(states: &[(&[Value], &[Value])]) -> Option<usize> {
        use std::collections::BTreeSet;
        let holds = |set: usize, t: usize, v: Value| {
            let (s, f) = states[t];
            if set == 0 { s } else { f }.contains(&v)
        };
        let n = states.len();
        let orders: BTreeSet<Value> = states
            .iter()
            .flat_map(|(s, f)| s.iter().chain(f.iter()).copied())
            .collect();
        let mut first: Option<usize> = None;
        for &x in &orders {
            for &y in &orders {
                if x == y {
                    continue;
                }
                for t in 0..n {
                    if !holds(0, t, x) {
                        continue;
                    }
                    for s in t..n {
                        if (t..=s).any(|u| holds(1, u, x)) {
                            break;
                        }
                        if !holds(0, s, y) {
                            continue;
                        }
                        for u in s..n {
                            if (s..=u).any(|w| holds(1, w, x)) {
                                break;
                            }
                            if holds(1, u, y) {
                                first = Some(first.map_or(u + 1, |f| f.min(u + 1)));
                            }
                        }
                    }
                }
            }
        }
        first
    }

    #[test]
    fn response_flags_a_missed_fill_and_passes_a_clean_log() {
        let clean: &[(&[Value], &[Value])] = &[(&[1], &[]), (&[2], &[1]), (&[], &[2])];
        assert!(run(Constraint::Response, clean).is_empty());
        let missed: &[(&[Value], &[Value])] = &[(&[1], &[]), (&[2], &[1]), (&[], &[])];
        assert_eq!(run(Constraint::Response, missed), vec![("response", 3)]);
    }

    #[test]
    fn fifo_flags_an_overtaking_fill_and_passes_a_clean_log() {
        let clean: &[(&[Value], &[Value])] = &[(&[1], &[]), (&[2], &[1]), (&[], &[2])];
        assert!(run(Constraint::Fifo, clean).is_empty());
        // 2 is submitted after 1 and filled while 1 is still open.
        let overtaken: &[(&[Value], &[Value])] = &[(&[1], &[]), (&[2], &[]), (&[], &[2])];
        assert_eq!(run(Constraint::Fifo, overtaken), vec![("fifo", 3)]);
        // Submitted and filled in the same instant as another's submit.
        let same_instant: &[(&[Value], &[Value])] = &[(&[], &[]), (&[1, 2], &[2])];
        assert_eq!(run(Constraint::Fifo, same_instant), vec![("fifo", 2)]);
        // Submitted *before* the open order: not an overtake.
        let earlier: &[(&[Value], &[Value])] = &[(&[2], &[]), (&[1], &[]), (&[], &[2])];
        assert!(run(Constraint::Fifo, earlier).is_empty());
    }

    #[test]
    fn cap_flags_a_submitted_cap() {
        let log: &[(&[Value], &[Value])] = &[(&[1], &[]), (&[], &[1]), (&[7], &[])];
        assert_eq!(run(Constraint::Cap(7), log), vec![("cap", 3)]);
        assert!(run(Constraint::Cap(8), log).is_empty());
    }

    #[test]
    fn fifo_detector_matches_the_literal_decision_on_random_logs() {
        let mut rng = ticc_tdb::rng::Rng::seed_from_u64(7);
        let mut fired = 0;
        for _ in 0..400 {
            let n = rng.gen_range_usize(1..7);
            let logs: Vec<(Vec<Value>, Vec<Value>)> = (0..n)
                .map(|_| {
                    let pick = |rng: &mut ticc_tdb::rng::Rng| -> Vec<Value> {
                        (0..3).filter(|_| rng.gen_range(0..3) == 0).collect()
                    };
                    (pick(&mut rng), pick(&mut rng))
                })
                .collect();
            let states: Vec<(&[Value], &[Value])> = logs
                .iter()
                .map(|(s, f)| (s.as_slice(), f.as_slice()))
                .collect();
            let got = run(Constraint::Fifo, &states).first().map(|e| e.1);
            assert_eq!(got, fifo_literal(&states), "log {logs:?}");
            fired += usize::from(got.is_some());
        }
        assert!(fired > 20, "the random logs must exercise violations");
    }

    #[test]
    fn a_detector_that_never_fires_cannot_agree_with_a_probe() {
        // The agreement check is two-sided: a program event the
        // detectors did not predict is a disagreement, so a silent
        // detector fails every probe.
        let program = [("response".to_owned(), 3)];
        assert!(!agree(&program, &[]));
        assert!(agree(&program, &[("response", 3)]));
        assert!(!agree::<String>(&[], &[("response", 3)]));
        assert!(!agree(&program, &[("response", 4)]));
    }
}
