//! Epidemic flooding, the flood-at-every-boundary baseline, and simple
//! forwarding algorithms for opportunistic mobile networks.
//!
//! Flooding defines the optimal success rate that the CoNEXT'07 diameter
//! definition (§4.1) measures everything against; this crate provides it as
//! an *independent* event-driven engine (cross-validating `omnet-core`'s
//! profile algorithm), implements the Zhang-style minimum-delay estimator
//! the paper cites as related work \[18\], and ships the direct / two-hop /
//! hop-TTL forwarding schemes whose tuning the small-diameter result
//! informs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dtn;
pub mod epidemic;
pub mod forwarding;
pub mod local;
pub mod sim;
pub mod zhang;

pub use dtn::{prophet, prophet_batch, spray_and_wait, DtnOutcome, ProphetParams};
pub use epidemic::{flood, FloodOutcome};
pub use forwarding::{direct_delivery, epidemic_ttl, evaluate_scheme, two_hop_relay, SchemeStats};
pub use local::{evaluate_fresh, fresh_delivery, FreshStats, LocalOutcome};
pub use sim::{simulate, uniform_workload, Message, Routing, SimConfig, SimReport};
pub use zhang::ZhangProfile;
