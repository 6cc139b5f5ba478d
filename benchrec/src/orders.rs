//! Order-log inputs: seeded id windows, the E16 churn mapped onto
//! them, the domain-growth script, violation probes, and the wire
//! rendering of transactions.

use std::sync::Arc;

use ticc_bench::families;
use ticc_core::{CheckOptions, Durability, GroupWal, Session};
use ticc_tdb::rng::Rng;
use ticc_tdb::{Schema, Transaction, Update, Value};

use crate::detect::Constraint;

/// `n` distinct ids drawn from `1..1_000_000`, in random order.
pub fn distinct_ids(rng: &mut Rng, n: usize) -> Vec<Value> {
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.gen_range(1..1_000_000);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// The per-tenant constraints of the order workloads: response, FIFO,
/// and the cap one past the largest id of the window.
pub fn order_constraints(ids: &[Value]) -> [Constraint; 3] {
    let cap = ids.iter().max().copied().unwrap_or(0) + 1;
    [Constraint::Response, Constraint::Fifo, Constraint::Cap(cap)]
}

/// Default check options with the flush policy named: `Durability::Wal`
/// (see the README).
pub fn options() -> CheckOptions {
    CheckOptions::builder().durability(Durability::Wal).build()
}

/// Opens a session over the order schema with `constraints`, logging
/// to `wal` when one is given.
pub fn open_session(
    name: &str,
    wal: Option<&Arc<GroupWal>>,
    constraints: &[Constraint],
) -> Session {
    let mut b = Session::builder()
        .name(name)
        .options(options())
        .pred("Sub", 1)
        .pred("Fill", 1);
    if let Some(w) = wal {
        b = b.group(Arc::clone(w));
    }
    let (mut session, _) = b.open().expect("a session over the order schema opens");
    let frozen = session.schema().expect("declared preds freeze the schema");
    for c in constraints {
        let phi = ticc_fotl::parser::parse(&frozen, &c.source()).expect("constraint parses");
        session
            .add_constraint(c.name(), phi)
            .expect("constraint registers");
    }
    session
}

/// Maps every tuple value `v` of `tx` to `ids[v]`.
fn remap(tx: &Transaction, ids: &[Value]) -> Transaction {
    tx.updates()
        .iter()
        .fold(Transaction::new(), |out, u| match u {
            Update::Insert(p, t) => out.insert(*p, vec![ids[t[0] as usize]]),
            Update::Delete(p, t) => out.delete(*p, vec![ids[t[0] as usize]]),
        })
}

/// The E16 churn over a window of order ids: the families'
/// [`families::response_steady_tx`] over `0..n`, every value mapped
/// through the window. Step `i` submits `ids[i mod n]`, fills the
/// previous submission and retracts the pair two steps old, so it is
/// clean under response, FIFO and cap. Steps from 2 on repeat with
/// period `n`, so they are built once.
pub struct Churn {
    pub ids: Vec<Value>,
    head: Vec<Transaction>,
    periodic: Vec<Transaction>,
}

impl Churn {
    pub fn new(schema: &Schema, ids: Vec<Value>) -> Self {
        let n = ids.len();
        assert!(n >= 6, "probes need a window of at least 6 orders");
        let head = (0..2)
            .map(|i| remap(&families::response_steady_tx(schema, n, i), &ids))
            .collect();
        let periodic = (n..2 * n)
            .map(|i| remap(&families::response_steady_tx(schema, n, i), &ids))
            .collect();
        Self {
            ids,
            head,
            periodic,
        }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// The three set-up transactions taking every order of the window
    /// through one clean cycle ([`families::response_setup_txs`]).
    pub fn setup(&self, schema: &Schema) -> Vec<Transaction> {
        families::response_setup_txs(schema, self.len())
            .iter()
            .map(|tx| remap(tx, &self.ids))
            .collect()
    }

    /// Churn step `i`.
    pub fn tx(&self, i: usize) -> &Transaction {
        if i < 2 {
            &self.head[i]
        } else {
            &self.periodic[i % self.len()]
        }
    }

    /// A violation probe in place of churn step `i` (`i ≥ 2`): the
    /// appended state violates exactly `kind`, every other constraint
    /// of [`order_constraints`] staying clean at that instant.
    pub fn probe(&self, schema: &Schema, i: usize, kind: Constraint) -> Transaction {
        assert!(i >= 2, "probes follow at least two churn steps");
        let sub = schema.pred("Sub").expect("order schema");
        let fill = schema.pred("Fill").expect("order schema");
        let n = self.len();
        let id = |j: usize| self.ids[j % n];
        match kind {
            // Retract the previous submission without filling it.
            Constraint::Response => Transaction::new()
                .delete(sub, vec![id(i - 1)])
                .delete(fill, vec![id(i - 2)]),
            // A second order is submitted and filled while the current
            // submission is still open.
            Constraint::Fifo => {
                let b = id(i + n / 2);
                self.tx(i)
                    .clone()
                    .insert(sub, vec![b])
                    .insert(fill, vec![b])
            }
            Constraint::Cap(cap) => self.tx(i).clone().insert(sub, vec![cap]),
        }
    }
}

/// The domain-growth script: for each order, submit → fill → retract
/// → idle, so every fourth append brings in a new id.
pub fn growth_script(schema: &Schema, ids: &[Value]) -> Vec<Transaction> {
    let sub = schema.pred("Sub").expect("order schema");
    let fill = schema.pred("Fill").expect("order schema");
    let mut out = Vec::with_capacity(4 * ids.len());
    for &v in ids {
        out.push(Transaction::new().insert(sub, vec![v]));
        out.push(
            Transaction::new()
                .delete(sub, vec![v])
                .insert(fill, vec![v]),
        );
        out.push(Transaction::new().delete(fill, vec![v]));
        out.push(Transaction::new());
    }
    out
}

/// Renders `tx` as a wire `append` request for `session`. The wire
/// applies inserts before deletes, so a transaction may not insert and
/// delete the same fact.
pub fn append_request(schema: &Schema, session: &str, tx: &Transaction) -> String {
    let mut ins = Vec::new();
    let mut del = Vec::new();
    for u in tx.updates() {
        match u {
            Update::Insert(p, t) => ins.push((*p, t[0])),
            Update::Delete(p, t) => del.push((*p, t[0])),
        }
    }
    assert!(
        ins.iter().all(|f| !del.contains(f)),
        "a wire transaction may not insert and delete one fact"
    );
    let facts = |fs: &[(ticc_tdb::PredId, Value)]| -> String {
        fs.iter()
            .map(|(p, v)| format!("\"{}({v})\"", schema.pred_name(*p)))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"op\":\"append\",\"session\":\"{session}\",\"insert\":[{}],\"delete\":[{}]}}",
        facts(&ins),
        facts(&del)
    )
}

/// The `open` request declaring the order schema and `constraints`.
pub fn open_request(session: &str, constraints: &[Constraint]) -> String {
    let cs: Vec<String> = constraints
        .iter()
        .map(|c| format!("[\"{}\",\"{}\"]", c.name(), c.source()))
        .collect();
    format!(
        "{{\"op\":\"open\",\"session\":\"{session}\",\"preds\":[[\"Sub\",1],[\"Fill\",1]],\
         \"constraints\":[{}]}}",
        cs.join(",")
    )
}

/// The handshake request.
pub fn hello_request() -> String {
    format!(
        "{{\"op\":\"hello\",\"schema\":\"{}\"}}",
        ticc_server::wire::WIRE_SCHEMA
    )
}

/// The state index a plainly clean `append` reply names: `Some(t)`
/// only for `{"ok":true,"t":t,"events":[],"fired":[]}`.
pub fn clean_t(resp: &str) -> Option<usize> {
    resp.strip_prefix("{\"ok\":true,\"t\":")?
        .strip_suffix(",\"events\":[],\"fired\":[]}")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Checker;

    #[test]
    fn churn_is_clean_and_each_probe_violates_only_its_target() {
        let schema = families::order_schema();
        let ids: Vec<Value> = (0..8).map(|v| 100 + 3 * v).collect();
        let churn = Churn::new(&schema, ids.clone());
        let cs = order_constraints(&ids);
        for kind in cs {
            let mut ck = Checker::new(&schema, &cs);
            for tx in churn.setup(&schema) {
                assert!(ck.apply(&tx).is_empty());
            }
            for i in 0..3 * churn.len() {
                assert!(ck.apply(churn.tx(i)).is_empty(), "step {i}");
            }
            let at = ck.len() + 1;
            let ev = ck.apply(&churn.probe(&schema, 3 * churn.len(), kind));
            assert_eq!(ev, vec![(kind.name(), at)]);
        }
    }

    #[test]
    fn growth_script_is_clean() {
        let schema = families::order_schema();
        let ids = [5, 9, 2, 40];
        let mut ck = Checker::new(&schema, &order_constraints(&ids));
        for tx in growth_script(&schema, &ids) {
            assert!(ck.apply(&tx).is_empty());
        }
        assert_eq!(ck.len(), 16);
    }

    #[test]
    fn requests_render_the_wire_shape() {
        let schema = families::order_schema();
        let churn = Churn::new(&schema, (10..16).collect());
        assert_eq!(
            append_request(&schema, "t0", churn.tx(3)),
            "{\"op\":\"append\",\"session\":\"t0\",\"insert\":[\"Sub(13)\",\"Fill(12)\"],\
             \"delete\":[\"Sub(12)\",\"Fill(11)\"]}"
        );
    }
}
