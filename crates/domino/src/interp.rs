//! Deterministic integer interpreter for domino-lite programs.
//!
//! Execution is the *serial* semantics packet transactions guarantee
//! (§2.1/§4.1): one packet at a time, state updates visible to the next
//! packet. All arithmetic is checked `i64`; overflow and division by zero
//! are runtime errors, never silent wraps — a hardware rank computation
//! has fixed-width behaviour, and we would rather fail loudly in tests
//! than mis-sort quietly.

use crate::ast::{BinOp, Expr, ExprKind, LValueKind, Program, Stmt, StmtKind};
use core::fmt;
use pifo_core::prelude::*;
use std::collections::HashMap;

/// Runtime failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Division or modulo by zero.
    DivByZero,
    /// Checked arithmetic overflowed.
    Overflow(String),
    /// Read of an undeclared variable.
    UndefVar(String),
    /// Read of a packet field never set.
    UndefField(String),
    /// Assignment to something that is not assignable (e.g. a param).
    BadAssign(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DivByZero => write!(f, "division by zero"),
            RuntimeError::Overflow(e) => write!(f, "arithmetic overflow in {e}"),
            RuntimeError::UndefVar(v) => write!(f, "undefined variable '{v}'"),
            RuntimeError::UndefField(v) => write!(f, "undefined packet field 'p.{v}'"),
            RuntimeError::BadAssign(v) => write!(f, "cannot assign to '{v}'"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The packet as the transaction sees it: named integer fields plus the
/// execution builtins (`now`, `flow`, `weight`).
#[derive(Debug, Clone)]
pub struct PacketView {
    fields: HashMap<String, i64>,
    /// The flow id at this node (`flow` builtin).
    pub flow: i64,
    /// Wall-clock time (`now` builtin), nanoseconds.
    pub now: i64,
    /// The flow's configured weight (`weight` builtin).
    pub weight: i64,
}

impl PacketView {
    /// Build from a `pifo-core` packet. Standard fields are populated;
    /// `prev_wait_time` defaults to 0 (the simulator overrides it when
    /// modelling LSTF's in-band tags).
    pub fn from_packet(p: &Packet, now: Nanos, flow: FlowId, weight: u64) -> Self {
        let mut fields = HashMap::new();
        fields.insert("length".into(), p.length as i64);
        fields.insert("arrival".into(), p.arrival.as_nanos() as i64);
        fields.insert("class".into(), p.class as i64);
        fields.insert("slack".into(), p.slack);
        fields.insert("deadline".into(), p.deadline.as_nanos() as i64);
        fields.insert("flow_size".into(), p.flow_size as i64);
        fields.insert("remaining".into(), p.remaining as i64);
        fields.insert("attained".into(), p.attained as i64);
        fields.insert("seq".into(), p.seq_in_flow as i64);
        // Length in nanobits (1e-9 bit): the natural unit for token
        // buckets at integer precision (see pifo-algos::tbf).
        if let Some(nb) = (p.length as i64).checked_mul(8_000_000_000) {
            fields.insert("length_nb".into(), nb);
        }
        fields.insert("prev_wait_time".into(), 0);
        PacketView {
            fields,
            flow: flow.0 as i64,
            now: now.as_nanos() as i64,
            weight: weight as i64,
        }
    }

    /// An empty view for tests.
    pub fn synthetic(flow: i64, now: i64) -> Self {
        PacketView {
            fields: HashMap::new(),
            flow,
            now,
            weight: 1,
        }
    }

    /// Set (or override) a field.
    pub fn set(&mut self, name: &str, v: i64) {
        self.fields.insert(name.to_string(), v);
    }

    /// Read a field.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.fields.get(name).copied()
    }
}

/// Interpreter state for one transaction instance.
#[derive(Debug, Clone)]
pub struct Interp {
    program: Program,
    vars: Vars,
}

/// The mutable half of an [`Interp`], kept apart from the program so a
/// run borrows the program's statements instead of cloning them.
#[derive(Debug, Clone)]
struct Vars {
    state: HashMap<String, i64>,
    maps: HashMap<String, HashMap<i64, i64>>,
    params: HashMap<String, i64>,
}

impl Interp {
    /// Instantiate with declared initial values.
    pub fn new(program: Program) -> Self {
        let state = program
            .states
            .iter()
            .map(|s| (s.name.clone(), s.init))
            .collect();
        let maps = program
            .maps
            .iter()
            .map(|m| (m.name.clone(), HashMap::new()))
            .collect();
        let params = program
            .params
            .iter()
            .map(|p| (p.name.clone(), p.init))
            .collect();
        Interp {
            program,
            vars: Vars {
                state,
                maps,
                params,
            },
        }
    }

    /// Override a parameter (e.g. instantiate a TBF at a specific rate).
    ///
    /// # Panics
    ///
    /// Panics if the program declares no such parameter.
    pub fn set_param(&mut self, name: &str, v: i64) {
        assert!(
            self.vars.params.contains_key(name),
            "program declares no param '{name}'"
        );
        self.vars.params.insert(name.to_string(), v);
    }

    /// Override a state variable's current value (used to seed state that
    /// depends on params, e.g. a token bucket starting full).
    ///
    /// # Panics
    ///
    /// Panics if the program declares no such state variable.
    pub fn set_state(&mut self, name: &str, v: i64) {
        assert!(
            self.vars.state.contains_key(name),
            "program declares no state '{name}'"
        );
        self.vars.state.insert(name.to_string(), v);
    }

    /// Current value of a state scalar.
    pub fn state_value(&self, name: &str) -> Option<i64> {
        self.vars.state.get(name).copied()
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execute the per-packet body, mutating `pkt` and the state.
    pub fn run(&mut self, pkt: &mut PacketView) -> Result<(), RuntimeError> {
        self.vars.exec_block(&self.program.body, pkt, None)
    }

    /// Execute the `@dequeue` hook (if any) with the departing element's
    /// rank available as `rank`.
    pub fn run_dequeue(&mut self, rank: i64) -> Result<(), RuntimeError> {
        if self.program.dequeue_body.is_empty() {
            return Ok(());
        }
        let mut dummy = PacketView::synthetic(0, 0);
        self.vars
            .exec_block(&self.program.dequeue_body, &mut dummy, Some(rank))
    }
}

impl Vars {
    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        pkt: &mut PacketView,
        rank: Option<i64>,
    ) -> Result<(), RuntimeError> {
        for s in stmts {
            match &s.kind {
                StmtKind::Assign(lv, e) => {
                    let v = self.eval(e, pkt, rank)?;
                    match &lv.kind {
                        LValueKind::Var(name) => {
                            if !self.state.contains_key(name.as_str()) {
                                return Err(RuntimeError::BadAssign(name.clone()));
                            }
                            self.state.insert(name.clone(), v);
                        }
                        LValueKind::Field(name) => {
                            pkt.set(name, v);
                        }
                        LValueKind::MapPut(name) => {
                            let m = self
                                .maps
                                .get_mut(name.as_str())
                                .ok_or_else(|| RuntimeError::BadAssign(name.clone()))?;
                            m.insert(pkt.flow, v);
                        }
                    }
                }
                StmtKind::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    if self.eval(cond, pkt, rank)? != 0 {
                        self.exec_block(then, pkt, rank)?;
                    } else {
                        self.exec_block(otherwise, pkt, rank)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn eval(&self, e: &Expr, pkt: &PacketView, rank: Option<i64>) -> Result<i64, RuntimeError> {
        match &e.kind {
            ExprKind::Num(v) => Ok(*v),
            ExprKind::Var(name) => {
                if let Some(v) = self.state.get(name.as_str()) {
                    return Ok(*v);
                }
                if let Some(v) = self.params.get(name.as_str()) {
                    return Ok(*v);
                }
                match name.as_str() {
                    "now" => Ok(pkt.now),
                    "flow" => Ok(pkt.flow),
                    "weight" => Ok(pkt.weight),
                    "rank" => rank.ok_or_else(|| RuntimeError::UndefVar(name.clone())),
                    _ => Err(RuntimeError::UndefVar(name.clone())),
                }
            }
            ExprKind::Field(name) => pkt
                .get(name)
                .ok_or_else(|| RuntimeError::UndefField(name.clone())),
            ExprKind::MapGet(name) => {
                let m = self
                    .maps
                    .get(name.as_str())
                    .ok_or_else(|| RuntimeError::UndefVar(name.clone()))?;
                Ok(m.get(&pkt.flow).copied().unwrap_or(0))
            }
            ExprKind::MapContains(name) => {
                let m = self
                    .maps
                    .get(name.as_str())
                    .ok_or_else(|| RuntimeError::UndefVar(name.clone()))?;
                Ok(m.contains_key(&pkt.flow) as i64)
            }
            ExprKind::Min(a, b) => Ok(self.eval(a, pkt, rank)?.min(self.eval(b, pkt, rank)?)),
            ExprKind::Max(a, b) => Ok(self.eval(a, pkt, rank)?.max(self.eval(b, pkt, rank)?)),
            ExprKind::Not(a) => Ok((self.eval(a, pkt, rank)? == 0) as i64),
            ExprKind::Bin(op, a, b) => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    let l = self.eval(a, pkt, rank)?;
                    if l == 0 {
                        return Ok(0);
                    }
                    return Ok((self.eval(b, pkt, rank)? != 0) as i64);
                }
                if *op == BinOp::Or {
                    let l = self.eval(a, pkt, rank)?;
                    if l != 0 {
                        return Ok(1);
                    }
                    return Ok((self.eval(b, pkt, rank)? != 0) as i64);
                }
                let l = self.eval(a, pkt, rank)?;
                let r = self.eval(b, pkt, rank)?;
                let overflow = || RuntimeError::Overflow(format!("{l} {op} {r}"));
                match op {
                    BinOp::Add => l.checked_add(r).ok_or_else(overflow),
                    BinOp::Sub => l.checked_sub(r).ok_or_else(overflow),
                    BinOp::Mul => l.checked_mul(r).ok_or_else(overflow),
                    BinOp::Div => {
                        if r == 0 {
                            Err(RuntimeError::DivByZero)
                        } else {
                            l.checked_div(r).ok_or_else(overflow)
                        }
                    }
                    BinOp::Mod => {
                        if r == 0 {
                            Err(RuntimeError::DivByZero)
                        } else {
                            l.checked_rem(r).ok_or_else(overflow)
                        }
                    }
                    BinOp::Lt => Ok((l < r) as i64),
                    BinOp::Le => Ok((l <= r) as i64),
                    BinOp::Gt => Ok((l > r) as i64),
                    BinOp::Ge => Ok((l >= r) as i64),
                    BinOp::Eq => Ok((l == r) as i64),
                    BinOp::Ne => Ok((l != r) as i64),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_unchecked};

    fn run_once(src: &str, pkt: &mut PacketView) -> Interp {
        let mut i = Interp::new(parse(src).unwrap());
        i.run(pkt).unwrap();
        i
    }

    #[test]
    fn assign_and_arithmetic() {
        let mut pkt = PacketView::synthetic(1, 100);
        pkt.set("length", 1000);
        run_once("p.rank = p.length * 2 + now;", &mut pkt);
        assert_eq!(pkt.get("rank"), Some(2100));
    }

    #[test]
    fn state_persists_across_packets() {
        let mut i =
            Interp::new(parse("state count = 0;\ncount = count + 1;\np.rank = count;").unwrap());
        let mut pkt = PacketView::synthetic(0, 0);
        i.run(&mut pkt).unwrap();
        assert_eq!(pkt.get("rank"), Some(1));
        i.run(&mut pkt).unwrap();
        assert_eq!(pkt.get("rank"), Some(2));
        assert_eq!(i.state_value("count"), Some(2));
    }

    #[test]
    fn map_keyed_by_flow() {
        let src = "statemap seen;\nseen[flow] = seen[flow] + 1;\np.rank = seen[flow];";
        let mut i = Interp::new(parse(src).unwrap());
        let mut p1 = PacketView::synthetic(1, 0);
        let mut p2 = PacketView::synthetic(2, 0);
        i.run(&mut p1).unwrap();
        i.run(&mut p1).unwrap();
        i.run(&mut p2).unwrap();
        assert_eq!(p1.get("rank"), Some(2));
        assert_eq!(p2.get("rank"), Some(1));
    }

    #[test]
    fn membership_distinguishes_unset_from_zero() {
        let src = "statemap m;\nif (flow in m) { p.rank = 1; } else { p.rank = 0; }\nm[flow] = 0;";
        let mut i = Interp::new(parse(src).unwrap());
        let mut pkt = PacketView::synthetic(7, 0);
        i.run(&mut pkt).unwrap();
        assert_eq!(pkt.get("rank"), Some(0), "first visit: not in map");
        i.run(&mut pkt).unwrap();
        assert_eq!(pkt.get("rank"), Some(1), "second visit: present (value 0)");
    }

    #[test]
    fn if_else_branches() {
        let src = "if (p.length > 100) { p.rank = 1; } else { p.rank = 2; }";
        let mut pkt = PacketView::synthetic(0, 0);
        pkt.set("length", 50);
        run_once(src, &mut pkt);
        assert_eq!(pkt.get("rank"), Some(2));
        pkt.set("length", 500);
        run_once(src, &mut pkt);
        assert_eq!(pkt.get("rank"), Some(1));
    }

    #[test]
    fn min_max_and_builtins() {
        let mut pkt = PacketView::synthetic(3, 42);
        pkt.weight = 4;
        run_once("p.rank = min(now, 50) + max(flow, weight);", &mut pkt);
        assert_eq!(pkt.get("rank"), Some(42 + 4));
    }

    #[test]
    fn dequeue_hook_sees_rank() {
        let src = "state vt = 0;\np.rank = vt;\n@dequeue { vt = max(vt, rank); }";
        let mut i = Interp::new(parse(src).unwrap());
        i.run_dequeue(55).unwrap();
        assert_eq!(i.state_value("vt"), Some(55));
        i.run_dequeue(12).unwrap();
        assert_eq!(i.state_value("vt"), Some(55), "max keeps the larger");
    }

    #[test]
    fn div_by_zero_is_error() {
        let mut i = Interp::new(parse("p.rank = 1 / 0;").unwrap());
        let mut pkt = PacketView::synthetic(0, 0);
        assert_eq!(i.run(&mut pkt), Err(RuntimeError::DivByZero));
    }

    #[test]
    fn overflow_is_error() {
        let mut i = Interp::new(parse("p.rank = 9_223_372_036_854_775_807 + 1;").unwrap());
        let mut pkt = PacketView::synthetic(0, 0);
        assert!(matches!(i.run(&mut pkt), Err(RuntimeError::Overflow(_))));
    }

    #[test]
    fn undefined_reads_are_errors() {
        // parse_unchecked: the stage checker rejects these statically;
        // this pins the interpreter's own dynamic backstop.
        let mut i = Interp::new(parse_unchecked("p.rank = nope;").unwrap());
        assert_eq!(
            i.run(&mut PacketView::synthetic(0, 0)),
            Err(RuntimeError::UndefVar("nope".into()))
        );
        let mut i = Interp::new(parse_unchecked("p.rank = p.nope;").unwrap());
        assert_eq!(
            i.run(&mut PacketView::synthetic(0, 0)),
            Err(RuntimeError::UndefField("nope".into()))
        );
    }

    #[test]
    fn cannot_assign_params_or_undeclared() {
        let mut i = Interp::new(parse_unchecked("param r = 5;\nr = 6;").unwrap());
        assert_eq!(
            i.run(&mut PacketView::synthetic(0, 0)),
            Err(RuntimeError::BadAssign("r".into()))
        );
    }

    #[test]
    fn set_param_overrides() {
        let mut i = Interp::new(parse("param r = 5;\np.rank = r;").unwrap());
        i.set_param("r", 99);
        let mut pkt = PacketView::synthetic(0, 0);
        i.run(&mut pkt).unwrap();
        assert_eq!(pkt.get("rank"), Some(99));
    }

    #[test]
    fn short_circuit_avoids_division() {
        // `0 && (1/0)` must not evaluate the division.
        let mut pkt = PacketView::synthetic(0, 0);
        run_once(
            "if (0 && (1 / 0) > 0) { p.rank = 1; } else { p.rank = 2; }",
            &mut pkt,
        );
        assert_eq!(pkt.get("rank"), Some(2));
    }

    #[test]
    fn packet_view_from_packet_populates_fields() {
        let p = Packet::new(1, FlowId(3), 1500, Nanos(77))
            .with_slack(-5)
            .with_flow_size(9000);
        let v = PacketView::from_packet(&p, Nanos(100), FlowId(3), 7);
        assert_eq!(v.get("length"), Some(1500));
        assert_eq!(v.get("arrival"), Some(77));
        assert_eq!(v.get("slack"), Some(-5));
        assert_eq!(v.get("flow_size"), Some(9000));
        assert_eq!(v.get("length_nb"), Some(1500 * 8_000_000_000));
        assert_eq!(v.now, 100);
        assert_eq!(v.flow, 3);
        assert_eq!(v.weight, 7);
    }
}
