//! The shared pool's one-user rule, and the pool against its sequential
//! model.
//!
//! * **A lent pool** — while a drain holds the pool, a direct call,
//!   from its own thread or another, panics naming the port instead of
//!   waiting: a shared pool has one user at a time and is never waited
//!   on.
//! * **Model equivalence (proptest)** — `AdmissionPolicy` decisions
//!   (including `DynamicThreshold`) are *identical* between the shared
//!   pool and a plain sequential counter model on any operation
//!   sequence, driven through per-port handles.

use pifo_core::pool::{AdmissionPolicy, SharedPacketPool, Threshold};
use pifo_core::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn pkt(id: u64, flow: u32) -> Packet {
    Packet::new(id, FlowId(flow), 1_000, Nanos(id))
}

/// While a drain holds a shared pool, a direct call — through a handle
/// or on a tree built in the pool, on the drain's thread or any other —
/// panics naming its port instead of waiting. Once the loan drops,
/// direct calls work again: the panics poisoned nothing.
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
    let in_use = |err: Box<dyn std::any::Any + Send>| {
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("port 1's shared pool is in use"), "{msg}");
    };

    let mut lent = shared.lend();
    tree.enqueue_lent(Some(&mut lent), pkt(0, 1), Nanos(0))
        .unwrap();
    for call in 0..5 {
        in_use(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match call {
                0 => drop(tree.enqueue(pkt(1, 1), Nanos(1))),
                1 => drop(tree.dequeue(Nanos(1))),
                2 => drop(tree.pool_handle().pool()),
                3 => drop(handle.try_insert(pkt(2, 1))),
                _ => drop(handle.pool()),
            }))
            .expect_err("a direct call on a lent pool must panic"),
        );
    }
    let (other, (answer, call)) = (handle.clone(), std::sync::mpsc::channel());
    std::thread::spawn(move || {
        let insert = || other.try_insert(pkt(3, 1)).is_ok();
        answer.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            insert,
        )))
    });
    let call = call.recv_timeout(std::time::Duration::from_secs(10));
    in_use(
        call.expect("another thread's call must not wait for the loan")
            .expect_err("another thread's call panics too"),
    );
    assert_eq!(lent.live(), 1, "the failed calls changed nothing");
    drop(lent);

    assert_eq!(tree.dequeue(Nanos(2)).expect("queued").id.0, 0);
    tree.enqueue(pkt(4, 1), Nanos(4)).unwrap();
    handle.try_insert(pkt(5, 1)).expect("the loan is over");
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
        (1usize..16).prop_map(|per_port| AdmissionPolicy::PortFlow {
            port: Threshold::Static(per_port),
            flow: Threshold::Unlimited,
        }),
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
