//! The flooding-at-every-boundary baseline (paper §4.4, ref \[18\]).
//!
//! Zhang et al. estimate the minimum-delay function of a DTN by creating a
//! packet at every beginning and end of a contact, simulating flooding for
//! each, and merging the results by linear extrapolation. This module
//! implements that method faithfully — including its approximation between
//! boundaries — to serve as the performance and correctness comparison
//! point for the profile algorithm (which computes the *exact* function in
//! one pass).

use crate::epidemic::flood;
use omnet_temporal::{NodeId, Time, Trace};

/// The minimum-delay function from one source, sampled by flooding at every
/// contact boundary.
#[derive(Debug, Clone)]
pub struct ZhangProfile {
    source: NodeId,
    /// Ascending distinct boundary times (contact starts and ends plus the
    /// window start).
    boundaries: Vec<Time>,
    /// `arrivals[b][d]`: flooding arrival at `d` for a packet created at
    /// `boundaries[b]`.
    arrivals: Vec<Vec<Time>>,
}

impl ZhangProfile {
    /// Runs one flood per boundary. Cost: `O(B · flood)` where `B` is the
    /// number of distinct boundaries — quadratic in the number of contacts,
    /// which is exactly the scalability gap the paper's algorithm closes.
    pub fn compute(trace: &Trace, source: NodeId) -> ZhangProfile {
        let mut boundaries: Vec<Time> = Vec::with_capacity(trace.num_contacts() * 2 + 1);
        boundaries.push(trace.span().start);
        for c in trace.contacts() {
            boundaries.push(c.start());
            boundaries.push(c.end());
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.retain(|t| trace.span().contains(*t));
        let arrivals = boundaries
            .iter()
            .map(|&b| flood(trace, source, b, None).infection)
            .collect();
        ZhangProfile {
            source,
            boundaries,
            arrivals,
        }
    }

    /// The source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of floods run.
    pub fn num_floods(&self) -> usize {
        self.boundaries.len()
    }

    /// Estimated delivery time at `d` for a message created at `t`.
    ///
    /// Exact at boundaries and wherever the next boundary's flood arrives
    /// strictly after it; in the remaining case (the destination is already
    /// reachable "now") the extrapolation reports delivery at `t` itself,
    /// an under-estimate by at most one inter-boundary gap — the inherent
    /// approximation of the method.
    pub fn delivery(&self, d: NodeId, t: Time) -> Time {
        // first boundary >= t
        let i = self.boundaries.partition_point(|b| *b < t);
        if i == self.boundaries.len() {
            return Time::INF;
        }
        let b = self.boundaries[i];
        let a = self.arrivals[i][d.index()];
        if a == Time::INF {
            Time::INF
        } else if a > b {
            a.max(t)
        } else {
            // contemporaneous at the boundary: extrapolate linearly back
            t.max(a.min(t)) // = t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_core::{AllPairsProfiles, HopBound, ProfileOptions};
    use omnet_temporal::TraceBuilder;

    fn toy() -> Trace {
        TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 30.0, 40.0)
            .contact_secs(2, 3, 35.0, 60.0)
            .build()
    }

    #[test]
    fn exact_at_boundaries() {
        let t = toy();
        let z = ZhangProfile::compute(&t, NodeId(0));
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        for &b in &[0.0, 5.0, 10.0, 15.0, 30.0, 35.0, 40.0, 60.0] {
            for d in 0..4u32 {
                let exact = p
                    .profile(NodeId(0), NodeId(d), HopBound::Unlimited)
                    .delivery(Time::secs(b));
                assert_eq!(z.delivery(NodeId(d), Time::secs(b)), exact, "d={d} t={b}");
            }
        }
    }

    #[test]
    fn between_boundaries_error_is_bounded() {
        let t = toy();
        let z = ZhangProfile::compute(&t, NodeId(0));
        let p = AllPairsProfiles::compute(&t, ProfileOptions::default());
        for i in 0..120 {
            let q = Time::secs(i as f64 * 0.5);
            for d in 0..4u32 {
                let exact = p
                    .profile(NodeId(0), NodeId(d), HopBound::Unlimited)
                    .delivery(q);
                let est = z.delivery(NodeId(d), q);
                if exact == Time::INF {
                    assert_eq!(est, Time::INF);
                } else {
                    // under-estimates only, by less than one boundary gap
                    // (the largest gap in this trace is 15 -> 30)
                    assert!(est <= exact);
                    assert!(exact.since(est).as_secs() <= 15.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn flood_count_is_boundary_count() {
        let t = toy();
        let z = ZhangProfile::compute(&t, NodeId(0));
        // 8 distinct boundaries (0 appears as both window start and contact
        // start)
        assert_eq!(z.num_floods(), 8);
    }

    #[test]
    fn after_last_boundary_nothing_delivers() {
        let t = toy();
        let z = ZhangProfile::compute(&t, NodeId(0));
        assert_eq!(z.delivery(NodeId(3), Time::secs(61.0)), Time::INF);
    }
}
