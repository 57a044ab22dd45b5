//! Generalized time-dependent Dijkstra (the paper's comparison point,
//! refs \[1\],\[7\]): single-source earliest-arrival from one fixed start time.
//!
//! The profile algorithm of [`crate::algorithm`] answers *all* start times
//! at once; this module answers one `(source, t₀)` query, serves as an
//! independent correctness oracle (`earliest_arrival(s, t₀)[d]` must equal
//! `profile(s, d).delivery(t₀)`), and extracts concrete path witnesses via
//! parent pointers — the "foremost journey" of Bui-Xuan–Ferreira–Jarry.

use omnet_temporal::{Contact, ContactId, ContactSeq, NodeId, Time, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of a single-source earliest-arrival run.
#[derive(Debug, Clone)]
pub struct ArrivalTree {
    source: NodeId,
    start: Time,
    arrival: Vec<Time>,
    /// Contact used to first reach each node, if any.
    parent: Vec<Option<ContactId>>,
    /// Hop count of the arrival path.
    hops: Vec<u32>,
}

impl ArrivalTree {
    /// Earliest arrival time at `d` (`Time::INF` when unreachable).
    pub fn arrival(&self, d: NodeId) -> Time {
        self.arrival[d.index()]
    }

    /// Hop count of the earliest-arrival path found (not necessarily the
    /// minimum hop count among all earliest-arrival paths).
    pub fn hops(&self, d: NodeId) -> Option<u32> {
        if self.arrival[d.index()] == Time::INF {
            None
        } else {
            Some(self.hops[d.index()])
        }
    }

    /// The source of the run.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The query start time.
    pub fn start(&self) -> Time {
        self.start
    }

    /// Reconstructs a time-respecting path witness to `d`; `None` when
    /// unreachable, `Some(empty sequence)` when `d` is the source.
    pub fn path_to(&self, trace: &Trace, d: NodeId) -> Option<ContactSeq> {
        if self.arrival[d.index()] == Time::INF {
            return None;
        }
        let mut chain: Vec<Contact> = Vec::new();
        let mut node = d;
        while node != self.source {
            let cid = self.parent[node.index()]?;
            let c = *trace.contact(cid);
            node = c.peer_of(node);
            chain.push(c);
        }
        chain.reverse();
        ContactSeq::build(self.source, &chain)
    }
}

/// Computes earliest arrivals from `(source, start)` over the whole trace.
///
/// Classic label-setting relaxation: pop the node with the smallest settled
/// arrival, relax every incident contact that has not yet ended
/// (`end >= arrival`), reaching the peer at `max(arrival, contact.start)`.
/// The FIFO property of interval contacts makes label-setting exact.
pub fn earliest_arrival(trace: &Trace, source: NodeId, start: Time) -> ArrivalTree {
    let n = trace.num_nodes() as usize;
    assert!(source.index() < n, "source outside the node universe");
    let adj = trace.adjacency();
    let mut arrival = vec![Time::INF; n];
    let mut parent: Vec<Option<ContactId>> = vec![None; n];
    let mut hops = vec![0u32; n];
    let mut settled = vec![false; n];
    arrival[source.index()] = start;

    let mut heap: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
    heap.push(Reverse((start, source.0)));
    while let Some(Reverse((at, u))) = heap.pop() {
        let ui = u as usize;
        if settled[ui] || at > arrival[ui] {
            continue;
        }
        settled[ui] = true;
        for &cid in adj.incident(NodeId(u)) {
            let c = trace.contact(cid);
            if c.end() < at {
                continue;
            }
            let v = c.peer_of(NodeId(u));
            let vi = v.index();
            let reach = at.max(c.start());
            if reach < arrival[vi] {
                arrival[vi] = reach;
                parent[vi] = Some(cid);
                hops[vi] = hops[ui] + 1;
                heap.push(Reverse((reach, v.0)));
            }
        }
    }

    ArrivalTree {
        source,
        start,
        arrival,
        parent,
        hops,
    }
}

/// Hop-bounded earliest arrivals: `result[k][d]` is the earliest arrival at
/// `d` using at most `k` contacts, for `k = 0..=max_hops` (level-Bellman
/// relaxation; used to cross-validate the hop classes of the profile
/// algorithm).
pub fn earliest_arrival_bounded(
    trace: &Trace,
    source: NodeId,
    start: Time,
    max_hops: usize,
) -> Vec<Vec<Time>> {
    let n = trace.num_nodes() as usize;
    assert!(source.index() < n, "source outside the node universe");
    let mut levels: Vec<Vec<Time>> = Vec::with_capacity(max_hops + 1);
    let mut cur = vec![Time::INF; n];
    cur[source.index()] = start;
    levels.push(cur.clone());
    for _ in 1..=max_hops {
        // `cur` always equals the last pushed level at this point.
        let prev = cur.clone();
        for c in trace.contacts() {
            for (u, v) in [(c.a, c.b), (c.b, c.a)] {
                let at = prev[u.index()];
                if at == Time::INF || c.end() < at {
                    continue;
                }
                let reach = at.max(c.start());
                if reach < cur[v.index()] {
                    cur[v.index()] = reach;
                }
            }
        }
        levels.push(cur.clone());
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_temporal::TraceBuilder;

    fn relay_trace() -> Trace {
        TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 5.0)
            .contact_secs(1, 2, 100.0, 110.0)
            .contact_secs(0, 2, 200.0, 210.0)
            .build()
    }

    #[test]
    fn earliest_arrival_relays() {
        let t = relay_trace();
        let tree = earliest_arrival(&t, NodeId(0), Time::ZERO);
        assert_eq!(tree.arrival(NodeId(0)), Time::ZERO);
        assert_eq!(tree.arrival(NodeId(1)), Time::ZERO);
        // via relay at 100, beating the direct contact at 200
        assert_eq!(tree.arrival(NodeId(2)), Time::secs(100.0));
        assert_eq!(tree.hops(NodeId(2)), Some(2));
    }

    #[test]
    fn start_after_contacts_misses_them() {
        let t = relay_trace();
        let tree = earliest_arrival(&t, NodeId(0), Time::secs(10.0));
        // missed 0-1; direct contact at 200 remains
        assert_eq!(tree.arrival(NodeId(2)), Time::secs(200.0));
        assert_eq!(tree.hops(NodeId(2)), Some(1));
        assert_eq!(tree.arrival(NodeId(1)), Time::INF);
        assert_eq!(tree.hops(NodeId(1)), None);
    }

    #[test]
    fn start_inside_contact_uses_it() {
        let t = relay_trace();
        let tree = earliest_arrival(&t, NodeId(0), Time::secs(3.0));
        assert_eq!(tree.arrival(NodeId(1)), Time::secs(3.0));
    }

    #[test]
    fn path_witness_is_valid_and_chronological() {
        let t = relay_trace();
        let tree = earliest_arrival(&t, NodeId(0), Time::ZERO);
        let path = tree.path_to(&t, NodeId(2)).expect("reachable");
        assert_eq!(path.origin(), NodeId(0));
        assert_eq!(path.destination(), NodeId(2));
        assert_eq!(path.hops(), 2);
        assert!(path.is_valid());
        let times = path.schedule(Time::ZERO).expect("schedulable");
        assert_eq!(*times.last().unwrap(), Time::secs(100.0));
    }

    #[test]
    fn path_to_source_is_empty() {
        let t = relay_trace();
        let tree = earliest_arrival(&t, NodeId(0), Time::ZERO);
        let path = tree.path_to(&t, NodeId(0)).expect("self");
        assert_eq!(path.hops(), 0);
    }

    #[test]
    fn unreachable_gives_none() {
        let t = TraceBuilder::new()
            .num_nodes(3)
            .contact_secs(0, 1, 0.0, 1.0)
            .build();
        let tree = earliest_arrival(&t, NodeId(0), Time::ZERO);
        assert!(tree.path_to(&t, NodeId(2)).is_none());
        assert_eq!(tree.arrival(NodeId(2)), Time::INF);
    }

    #[test]
    fn bounded_levels_monotone() {
        let t = relay_trace();
        let levels = earliest_arrival_bounded(&t, NodeId(0), Time::ZERO, 4);
        assert_eq!(levels.len(), 5);
        // level 0: only the source
        assert_eq!(levels[0][0], Time::ZERO);
        assert_eq!(levels[0][2], Time::INF);
        // level 1: direct contact at 200
        assert_eq!(levels[1][2], Time::secs(200.0));
        // level 2: relay at 100
        assert_eq!(levels[2][2], Time::secs(100.0));
        // levels never regress
        for k in 1..levels.len() {
            for (cur, prev) in levels[k].iter().zip(&levels[k - 1]).take(3) {
                assert!(cur <= prev);
            }
        }
    }
}
