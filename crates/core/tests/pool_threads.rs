//! The pool under real threads, and against its sequential model.
//!
//! Three parts:
//!
//! * **Threaded stress** — N threads hammer one `SharedPacketPool` with
//!   insert/retain/release churn, including cross-thread releases
//!   (thread A frees slots thread B inserted, the "migration" pattern a
//!   parallel fabric drain produces). Afterwards the pool must be
//!   exactly coherent: `live == Σ port occupancy == Σ flow occupancy`,
//!   the free list whole, and zero `accounting_errors`. The §6.1
//!   counters are only correct if every one of the millions of racing
//!   updates was exact — `saturating_sub`-style clamping would pass a
//!   `>= 0` check but fail the Σ reconciliation here. One churn runs
//!   under per-flow caps, the only policy family that keeps the flow
//!   table, so the table stays exercised by racing threads; under the
//!   others `flow_occupancy` answers `None`. Together they are the
//!   oracle for the handles' per-call lock: a shared pool's handles are
//!   `Send + Sync`, each call locking the pool once.
//! * **A lent pool** — while a drain holds the pool, a direct call on
//!   its thread panics naming the port; another thread's call waits.
//! * **Model equivalence (proptest)** — `AdmissionPolicy` decisions
//!   (including `DynamicThreshold`) are *identical* between the shared
//!   pool and a plain sequential counter model (the arithmetic the old
//!   `RefCell` pool implemented) on any same-thread operation sequence,
//!   driven through per-port handles.

use pifo_core::pool::{AdmissionPolicy, SharedPacketPool, Threshold};
use pifo_core::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn pkt(id: u64, flow: u32) -> Packet {
    Packet::new(id, FlowId(flow), 1_000, Nanos(id))
}

/// N threads × insert/release/migrate churn, then exact reconciliation.
#[test]
fn threaded_churn_keeps_accounting_exact() {
    const THREADS: u64 = 4;
    const OPS: u64 = 20_000;

    let pool = SharedPacketPool::new(256, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 })
        .unwrap()
        .into_shared();
    let handles: Vec<_> = (0..THREADS).map(|_| pool.register_port()).collect();
    // The migration lane: slots inserted by one thread, freed by another.
    let migrate: Arc<Mutex<Vec<PktHandle>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|s| {
        for (tid, port) in handles.iter().enumerate() {
            let migrate = Arc::clone(&migrate);
            s.spawn(move || {
                let mut held: Vec<PktHandle> = Vec::new();
                for i in 0..OPS {
                    let id = tid as u64 * OPS + i;
                    match i % 7 {
                        // Mostly inserts; rejects are fine (tight pool).
                        0..=3 => {
                            if let Ok(h) = port.try_insert(pkt(id, (id % 31) as u32)) {
                                if id % 5 == 0 {
                                    migrate.lock().unwrap().push(h);
                                } else {
                                    held.push(h);
                                }
                            }
                        }
                        4 => {
                            // Retain + double release: net one reference.
                            if let Some(&h) = held.last() {
                                port.retain(h);
                                port.release(h);
                            }
                        }
                        5 => {
                            if let Some(h) = held.pop() {
                                port.release(h);
                            }
                        }
                        _ => {
                            // Migration: free someone else's slot.
                            let stolen = migrate.lock().unwrap().pop();
                            if let Some(h) = stolen {
                                port.release(h);
                            }
                        }
                    }
                }
                // Drain what this thread still holds.
                for h in held {
                    port.release(h);
                }
            });
        }
    });
    for h in migrate.lock().unwrap().drain(..) {
        handles[0].release(h);
    }

    let pool = pool.pool();
    assert_eq!(pool.live(), 0, "every insert was matched by a release");
    let total: usize = (0..pool.num_ports()).map(|i| pool.port_occupancy(i)).sum();
    assert_eq!(total, pool.live(), "live == Σ port occupancy");
    assert_eq!(pool.accounting_errors(), 0, "no silent underflows");
    pool.assert_coherent();
    // No flow-side threshold, so no flow table and no flow answer.
    assert_eq!(pool.flow_occupancy(FlowId(0)), None);
    // Conservation of attempts: admitted + rejected == offered inserts.
    let offered = THREADS * (0..OPS).filter(|i| i % 7 <= 3).count() as u64;
    let stats = pool.stats();
    let admitted: u64 = stats.ports.iter().map(|s| s.admitted).sum();
    let rejected: u64 = stats.ports.iter().map(|s| s.rejected).sum();
    assert_eq!(admitted + rejected, offered, "every attempt tallied once");
}

/// Concurrent inserts never exceed the global capacity, even at the
/// moment of maximum contention (each verdict and its slot claim are one
/// locked call).
#[test]
fn capacity_is_never_exceeded_under_contention() {
    let pool = SharedPacketPool::new(64, AdmissionPolicy::Unlimited)
        .unwrap()
        .into_shared();
    let ports: Vec<_> = (0..4).map(|_| pool.register_port()).collect();
    std::thread::scope(|s| {
        for (tid, port) in ports.iter().enumerate() {
            s.spawn(move || {
                let mut held = Vec::new();
                for i in 0..10_000u64 {
                    let live = port.pool_live();
                    assert!(live <= 64, "live {live} exceeded capacity");
                    if let Ok(h) = port.try_insert(pkt(tid as u64 * 10_000 + i, tid as u32)) {
                        held.push(h);
                    }
                    if held.len() > 12 {
                        port.release(held.remove(0));
                    }
                }
                // Leave one packet per thread resident for the check.
                for h in held.drain(1..) {
                    port.release(h);
                }
            });
        }
    });
    let pool = pool.pool();
    pool.assert_coherent();
    // Thread `t` inserted through port `t` only: exactly its one resident
    // packet is counted there.
    for t in 0..4 {
        assert_eq!(pool.port_occupancy(t), 1, "port {t}");
    }
    assert_eq!(pool.live(), 4);
}

/// The same churn under per-flow caps — the policy family that keeps the
/// flow table — so racing threads hit the table on every insert and
/// release, with flows shared across threads.
#[test]
fn threaded_churn_with_flow_caps() {
    const THREADS: u64 = 4;
    const OPS: u64 = 20_000;
    const FLOWS: u64 = 8;
    // Below one thread's share of its own backlog (40 over 8 flows), so
    // the caps bind under any interleaving.
    const FLOW_CAP: usize = 4;

    let pool = SharedPacketPool::new(
        256,
        AdmissionPolicy::PortFlow {
            port: Threshold::Unlimited,
            flow: Threshold::Static(FLOW_CAP),
        },
    )
    .unwrap()
    .into_shared();
    let handles: Vec<_> = (0..THREADS).map(|_| pool.register_port()).collect();
    // Even flows 32 apart, odd flows 2 apart: strided ids in one table.
    let flow_of = |id: u64| ((id % FLOWS) * if id % 2 == 0 { 16 } else { 1 }) as u32;

    std::thread::scope(|s| {
        for (tid, port) in handles.iter().enumerate() {
            s.spawn(move || {
                let mut held: Vec<PktHandle> = Vec::new();
                for i in 0..OPS {
                    let id = tid as u64 * OPS + i;
                    if i % 3 < 2 {
                        // Rejects are expected: the caps bind.
                        if let Ok(h) = port.try_insert(pkt(id, flow_of(id))) {
                            held.push(h);
                        }
                    } else if let Some(h) = held.pop() {
                        port.release(h);
                    }
                    if held.len() > 40 {
                        port.release(held.remove(0));
                    }
                }
                for h in held {
                    port.release(h);
                }
            });
        }
    });

    let pool = pool.pool();
    assert_eq!(pool.live(), 0, "every insert was matched by a release");
    assert_eq!(pool.accounting_errors(), 0, "no silent underflows");
    pool.assert_coherent();
    for id in 0..FLOWS {
        let f = flow_of(id);
        assert_eq!(pool.flow_occupancy(FlowId(f)), Some(0), "flow {f} drained");
    }
    let rejected: u64 = pool.stats().ports.iter().map(|s| s.rejected).sum();
    assert!(
        rejected > 0,
        "the flow caps never bound: nothing was tested"
    );
}

/// While a drain holds a shared pool, a direct call on the same thread —
/// through a handle or on a tree built in the pool — panics naming its
/// port instead of waiting on itself, and a call from another thread
/// waits for the loan to end. Once the loan drops, direct calls work
/// again: the panics poisoned nothing.
#[test]
fn a_lent_pool_fails_loudly_and_never_hangs() {
    let shared = SharedPacketPool::new(8, AdmissionPolicy::Unlimited)
        .unwrap()
        .into_shared();
    let _port0 = shared.register_port();
    let handle = shared.register_port();
    let mut b = TreeBuilder::new();
    let fifo = FnTransaction::new("fifo", |ctx: &EnqCtx| Rank(ctx.now.as_nanos()));
    let root = b.add_root("fifo", Box::new(fifo));
    let mut tree = b
        .build_in_pool(Box::new(move |_| root), handle.clone())
        .unwrap();

    let mut lent = shared.lend();
    tree.enqueue_lent(Some(&mut lent), pkt(0, 1), Nanos(0))
        .unwrap();
    for call in 0..5 {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match call {
            0 => drop(tree.enqueue(pkt(1, 1), Nanos(1))),
            1 => drop(tree.dequeue(Nanos(1))),
            2 => drop(tree.pool_handle().pool()),
            3 => drop(handle.try_insert(pkt(2, 1))),
            _ => drop(handle.pool()),
        }))
        .expect_err("a direct call on a lent pool must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("port 1's shared pool is held"), "{msg}");
    }
    assert_eq!(lent.live(), 1, "the failed calls changed nothing");
    std::thread::scope(|s| {
        let (done, finished) = std::sync::mpsc::channel();
        let other = handle.clone();
        s.spawn(move || done.send(other.try_insert(pkt(3, 1)).is_ok()));
        assert!(finished.try_recv().is_err(), "no call completes while lent");
        drop(lent);
        assert!(
            finished.recv().unwrap(),
            "the other thread's call went through"
        );
    });

    assert_eq!(tree.dequeue(Nanos(2)).expect("queued").id.0, 0);
    tree.enqueue(pkt(4, 1), Nanos(4)).unwrap();
    let pool = handle.pool();
    assert_eq!(pool.live(), 2);
    pool.assert_coherent();
}

/// The sequential reference model of the pool's admission arithmetic —
/// the plain counter arithmetic the pool must reproduce.
struct SeqModel {
    cap: usize,
    policy: AdmissionPolicy,
    live: usize,
    ports: Vec<usize>,
    flows: HashMap<u32, usize>,
}

impl SeqModel {
    fn would_admit(&self, port: usize, flow: u32) -> bool {
        if self.live >= self.cap {
            return false;
        }
        let flow_used = self.flows.get(&flow).copied().unwrap_or(0);
        self.policy
            .admits_port_flow(self.ports[port], flow_used, self.cap - self.live)
    }

    fn try_insert(&mut self, port: usize, flow: u32) -> bool {
        let ok = self.would_admit(port, flow);
        if ok {
            self.live += 1;
            self.ports[port] += 1;
            *self.flows.entry(flow).or_insert(0) += 1;
        }
        ok
    }

    fn release(&mut self, port: usize, flow: u32) {
        self.live -= 1;
        self.ports[port] -= 1;
        let c = self.flows.get_mut(&flow).expect("flow was counted");
        *c -= 1;
        if *c == 0 {
            self.flows.remove(&flow);
        }
    }
}

#[derive(Debug, Clone)]
enum PoolOp {
    Insert(usize, u32),
    ReleaseOldest(usize),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        3 => (0usize..4, 0u32..3).prop_map(|(port, flow)| PoolOp::Insert(port, flow)),
        2 => (0usize..4).prop_map(PoolOp::ReleaseOldest),
    ]
}

fn threshold_strategy() -> impl Strategy<Value = Threshold> {
    prop_oneof![
        Just(Threshold::Unlimited),
        (1usize..16).prop_map(Threshold::Static),
        (1usize..4, 1usize..4).prop_map(|(num, den)| Threshold::Dynamic { num, den }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Unlimited),
        (1usize..16).prop_map(|per_port| AdmissionPolicy::Static { per_port }),
        (1usize..4, 1usize..4)
            .prop_map(|(num, den)| AdmissionPolicy::DynamicThreshold { num, den }),
        (threshold_strategy(), threshold_strategy())
            .prop_map(|(port, flow)| AdmissionPolicy::PortFlow { port, flow }),
    ]
}

proptest! {
    /// Every admission verdict of the pool equals the sequential
    /// model's, op for op, and the counters agree after every step.
    #[test]
    fn atomic_pool_decisions_match_sequential_model(
        cap in 1usize..48,
        policy in policy_strategy(),
        ops in proptest::collection::vec(pool_op(), 1..250),
    ) {
        let pool = SharedPacketPool::new(cap, policy).unwrap()
        .into_shared();
        let ports: Vec<_> = (0..4).map(|_| pool.register_port()).collect();
        let mut model = SeqModel {
            cap, policy, live: 0, ports: vec![0; 4], flows: HashMap::new(),
        };
        let mut held: Vec<Vec<(u32, PktHandle)>> = vec![Vec::new(); 4];

        for (i, op) in ops.into_iter().enumerate() {
            match op {
                PoolOp::Insert(port, flow) => {
                    let model_says = model.try_insert(port, flow);
                    // The full (port × flow) probe is the try_insert
                    // verdict, op for op.
                    prop_assert_eq!(
                        ports[port].pool().would_admit_flow(port, FlowId(flow)),
                        model_says,
                        "would_admit_flow diverges at op {}", i
                    );
                    // The port-only probe can only be *more* permissive
                    // (it skips the flow threshold), never less.
                    if model_says {
                        prop_assert!(
                            ports[port].pool().would_admit(port),
                            "would_admit stricter than the full verdict (op {})", i
                        );
                    }
                    match ports[port].try_insert(pkt(i as u64, flow)) {
                        Ok(h) => {
                            prop_assert!(model_says, "pool admitted, model rejected (op {})", i);
                            held[port].push((flow, h));
                        }
                        Err(_) => {
                            prop_assert!(!model_says, "pool rejected, model admitted (op {})", i);
                        }
                    }
                }
                PoolOp::ReleaseOldest(port) => {
                    if let Some((flow, h)) =
                        (!held[port].is_empty()).then(|| held[port].remove(0))
                    {
                        ports[port].release(h).expect("sole holder");
                        model.release(port, flow);
                    }
                }
            }
            prop_assert_eq!(pool.pool().live(), model.live);
            for p in 0..4 {
                prop_assert_eq!(pool.pool().port_occupancy(p), model.ports[p]);
            }
            // Flow counts exist exactly under a flow-side threshold.
            for f in 0..3u32 {
                prop_assert_eq!(
                    pool.pool().flow_occupancy(FlowId(f)),
                    policy
                        .uses_flow_state()
                        .then(|| model.flows.get(&f).copied().unwrap_or(0)),
                    "flow {} occupancy diverges at op {}", f, i
                );
            }
        }
        pool.pool().assert_coherent();
        // A flow never inserted reads 0 from the table.
        prop_assert_eq!(
            pool.pool().flow_occupancy(FlowId(u32::MAX)),
            policy.uses_flow_state().then_some(0)
        );
    }
}
