//! Least Slack-Time First (§3.1, Fig 6).
//!
//! ```text
//! p.slack = p.slack - p.prev_wait_time
//! p.rank  = p.slack
//! ```
//!
//! A packet's slack — time remaining until its deadline — is initialised at
//! the end host and decremented by the queueing wait at each switch. The
//! decrement happens in the data path (the switch tags packets with
//! timestamps before and after the queue); in this workspace [`charge_wait`]
//! is its one definition, which `pifo-sim`'s `run_port` applies to every
//! departure of a port configured with `PortConfig::with_lstf_charging`
//! (so a multi-hop `run_pipeline` charges each hop). The scheduling
//! transaction itself just ranks by the already-updated slack.

use pifo_core::prelude::*;

/// The LSTF scheduling transaction: rank = current slack.
///
/// Negative slack (a packet already past its deadline) maps to rank 0 —
/// maximally urgent — preserving the LSTF order among late packets is not
/// meaningful once the deadline is blown.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lstf;

impl SchedulingTransaction for Lstf {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        Rank(ctx.packet.slack.max(0) as u64)
    }

    fn name(&self) -> &str {
        "LSTF"
    }
}

/// Decrement a packet's slack by the wait it experienced at the switch it
/// is leaving: `wait = departure - arrival` (Fig 6's `prev_wait_time`).
/// Call when the packet is dequeued for transmission.
pub fn charge_wait(packet: &mut Packet, departure: Nanos) {
    let wait = departure.saturating_sub(packet.arrival).as_nanos();
    packet.slack -= wait as i64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_slack() {
        let mut t = Lstf;
        let p = Packet::new(0, FlowId(0), 64, Nanos(0)).with_slack(5_000);
        let r = t.rank(&EnqCtx {
            packet: &p,
            now: Nanos(0),
            flow: p.flow,
        });
        assert_eq!(r, Rank(5_000));
    }

    #[test]
    fn negative_slack_is_most_urgent() {
        let mut t = Lstf;
        let late = Packet::new(0, FlowId(0), 64, Nanos(0)).with_slack(-100);
        let ok = Packet::new(1, FlowId(0), 64, Nanos(0)).with_slack(1);
        let r_late = t.rank(&EnqCtx {
            packet: &late,
            now: Nanos(0),
            flow: late.flow,
        });
        let r_ok = t.rank(&EnqCtx {
            packet: &ok,
            now: Nanos(0),
            flow: ok.flow,
        });
        assert!(r_late < r_ok);
        assert_eq!(r_late, Rank(0));
    }

    #[test]
    fn charge_wait_decrements_by_queueing_time() {
        let mut p = Packet::new(0, FlowId(0), 64, Nanos(100)).with_slack(10_000);
        charge_wait(&mut p, Nanos(2_600));
        assert_eq!(p.slack, 10_000 - 2_500);
    }

    #[test]
    fn charge_wait_can_drive_slack_negative() {
        let mut p = Packet::new(0, FlowId(0), 64, Nanos(0)).with_slack(100);
        charge_wait(&mut p, Nanos(500));
        assert_eq!(p.slack, -400);
    }

    /// Through a PIFO: the packet closest to its deadline leaves first,
    /// regardless of arrival order.
    #[test]
    fn least_slack_leaves_first() {
        let mut q: SortedArrayPifo<u64> = SortedArrayPifo::new();
        let mut t = Lstf;
        for (id, slack) in [(0u64, 9_000i64), (1, 2_000), (2, 5_000)] {
            let p = Packet::new(id, FlowId(0), 64, Nanos(0)).with_slack(slack);
            let r = t.rank(&EnqCtx {
                packet: &p,
                now: Nanos(0),
                flow: p.flow,
            });
            q.push(r, id);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }
}
