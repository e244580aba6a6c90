//! **enclosure-fleet** — fleet-scale serving on top of the single
//! machine the rest of the workspace models.
//!
//! The paper (§6) evaluates one machine at a time; the ROADMAP's north
//! star is serving millions of users. This crate takes the first
//! fleet-scale step with robustness as the design center: N
//! independent [`Shard`]s — each a full machine with its own
//! LitterBox, kernel, clock, and telemetry [`Recorder`], optionally on
//! heterogeneous backends — behind a simulated load balancer
//! ([`Fleet`]) that replays a heavy-tailed session workload over the
//! batched syscall gateway.
//!
//! The balancer is the robustness layer:
//!
//! * **health probes + outlier ejection** — consecutive probe failures
//!   or latency outliers (relative to the shard's *own* baseline, so
//!   mixed MPK/VTX/PROC fleets don't eject their slowest backend)
//!   take a shard out of the routable set;
//! * **retry budget** — a global token bucket caps failover retries so
//!   a crashing shard cannot amplify into a retry storm
//!   ([`RetryBudget`]);
//! * **supervisor respawn** — crashed shards come back on a seeded,
//!   jittered exponential backoff (the balancer's own, based at one
//!   dispatch round) and re-enter through probation (the idiom of an
//!   LB_PROC rebuild adopting its predecessor's children).
//!
//! Chaos is first-class: the balancer owns its own
//! [`InjectionPlan`](enclosure_hw::InjectionPlan) arming the fleet
//! sites (`shard_crash`, `lb_partition`, `probe_flap`) so fleet faults
//! never perturb any shard's machine-level stream — which is what
//! makes the containment proof possible: kill any one shard and every
//! bystander's telemetry is byte-identical to the fault-free run,
//! while zero accepted requests are lost.
//!
//! Everything is simulated time from a seed: `Fleet::run` is a pure
//! function of its [`FleetConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod budget;
pub mod monitor;
pub mod sched;
pub mod session;
pub mod shard;

pub use balancer::{
    check_invariants, FastHttpFleet, Fleet, FleetConfig, FleetReport, ShardRow, WikiFleet,
    IDLE_ROUND_NS, PROBE_ROUND_NS,
};
pub use budget::RetryBudget;
pub use monitor::{Brownout, DegradedWindow, MonitorConfig, MonitorReport};
pub use sched::{BatchSpan, CatchupSlot, VirtualClock};
pub use session::{Session, SessionStream, MAX_SESSION_LEN};
pub use shard::{Shard, ShardChaos, ShardState, Workload};

pub use enclosure_telemetry::Recorder;
