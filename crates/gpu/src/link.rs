//! Interconnect links and the transfer engine.
//!
//! KV-cache movement — prefill→decode handoff, decode→prefill rescheduling
//! migration, and GPU↔host swapping — all ride on point-to-point links whose
//! character the paper's §2.2 quantifies: near-zero over NVLink, ~65 ms for
//! a 1.5 GB OPT-13B context over PCIe Gen4 ×16.
//!
//! [`TransferEngine`] serializes transfers per directed route (a link
//! direction is a FIFO resource) and reports completion times, which the
//! cluster event loop turns into events.

use serde::{Deserialize, Serialize};
use windserve_sim::{SimDuration, SimTime};

/// The physical flavor of a link, following the paper's Fig. 9 testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// NVLink bridge between a GPU pair: 400 GB/s bidirectional.
    NvLink,
    /// PCIe Gen4 ×16 peer-to-peer within one NUMA node: 64 GB/s
    /// bidirectional.
    PciePeer,
    /// Cross-NUMA path through the root complex: slower than same-NUMA PCIe.
    CrossNuma,
    /// GPU ↔ host DRAM over PCIe (used for KV swap in/out).
    PcieHost,
    /// Cross-node RDMA path (GPUDirect over 200 Gb/s-class fabric) — the
    /// paper's §7 multi-node deployment limitation.
    InterNode,
}

impl LinkKind {
    /// Per-direction achievable bandwidth, bytes/s. Marketing numbers are
    /// bidirectional; we halve them and apply a protocol-efficiency factor
    /// calibrated so a 1.5 GB transfer over PCIe peer takes ≈65 ms
    /// (paper §2.2).
    pub fn bandwidth(self) -> f64 {
        let eff = 0.72;
        match self {
            LinkKind::NvLink => 200e9 * eff,
            LinkKind::PciePeer => 32e9 * eff,
            LinkKind::CrossNuma => 24e9 * eff,
            LinkKind::PcieHost => 32e9 * eff,
            LinkKind::InterNode => 25e9 * eff,
        }
    }

    /// Fixed per-transfer setup latency.
    pub fn base_latency(self) -> SimDuration {
        match self {
            LinkKind::NvLink => SimDuration::from_micros(20),
            LinkKind::PciePeer | LinkKind::PcieHost => SimDuration::from_micros(50),
            LinkKind::CrossNuma => SimDuration::from_micros(80),
            LinkKind::InterNode => SimDuration::from_micros(150),
        }
    }
}

/// A directed route between two instance placements (or instance↔host),
/// possibly striped over several physical links when both endpoints are
/// sharded the same way (tensor-parallel shard `i` talks to shard `i`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteSpec {
    /// Slowest constituent link kind (determines latency).
    pub kind: LinkKind,
    /// Aggregate bytes/s across all stripes.
    pub bandwidth: f64,
}

impl RouteSpec {
    /// A route striped over `stripes` parallel links of the same kind.
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero.
    pub fn striped(kind: LinkKind, stripes: usize) -> Self {
        assert!(stripes > 0, "route needs at least one stripe");
        RouteSpec {
            kind,
            bandwidth: kind.bandwidth() * stripes as f64,
        }
    }

    /// Unloaded duration of moving `bytes` over this route.
    pub fn duration(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.kind.base_latency() + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// Identifier of a registered route within a [`TransferEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteId(pub usize);

#[derive(Debug, Clone)]
struct RouteState {
    spec: RouteSpec,
    busy_until: SimTime,
}

/// Schedules transfers over a set of directed routes, serializing transfers
/// that share a route (FIFO).
///
/// # Examples
///
/// ```
/// use windserve_gpu::{LinkKind, RouteSpec, TransferEngine};
/// use windserve_sim::SimTime;
///
/// let mut eng = TransferEngine::new();
/// let route = eng.add_route(RouteSpec::striped(LinkKind::PciePeer, 2));
/// let done = eng.submit(route, 1 << 30, SimTime::ZERO);
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TransferEngine {
    routes: Vec<RouteState>,
}

impl TransferEngine {
    /// Creates an engine with no routes.
    pub fn new() -> Self {
        TransferEngine::default()
    }

    /// Registers a route and returns its id.
    pub fn add_route(&mut self, spec: RouteSpec) -> RouteId {
        self.routes.push(RouteState {
            spec,
            busy_until: SimTime::ZERO,
        });
        RouteId(self.routes.len() - 1)
    }

    /// Submits a transfer of `bytes` at time `now`; returns its completion
    /// time. Transfers on the same route queue behind each other.
    ///
    /// # Panics
    ///
    /// Panics if `route` was not returned by [`TransferEngine::add_route`].
    pub fn submit(&mut self, route: RouteId, bytes: u64, now: SimTime) -> SimTime {
        let state = &mut self.routes[route.0];
        let start = state.busy_until.max(now);
        let done = start + state.spec.duration(bytes);
        state.busy_until = done;
        done
    }

    /// When the route frees up, given everything submitted so far.
    pub fn busy_until(&self, route: RouteId) -> SimTime {
        self.routes[route.0].busy_until
    }

    /// The route's static description.
    pub fn spec(&self, route: RouteId) -> RouteSpec {
        self.routes[route.0].spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_matches_papers_65ms_example() {
        // §2.2: ~1.5 GB of OPT-13B KV over PCIe Gen4 x16 takes ~65 ms
        // (single stripe, P2P enabled).
        let route = RouteSpec::striped(LinkKind::PciePeer, 1);
        let secs = route
            .duration((1.5 * (1u64 << 30) as f64) as u64)
            .as_secs_f64();
        assert!((0.055..0.080).contains(&secs), "got {secs}s");
    }

    #[test]
    fn nvlink_is_near_zero_by_comparison() {
        let nv = RouteSpec::striped(LinkKind::NvLink, 1);
        let pcie = RouteSpec::striped(LinkKind::PciePeer, 1);
        let bytes = 1u64 << 30;
        assert!(nv.duration(bytes).as_secs_f64() * 5.0 < pcie.duration(bytes).as_secs_f64());
    }

    #[test]
    fn striping_scales_bandwidth() {
        let one = RouteSpec::striped(LinkKind::PciePeer, 1);
        let two = RouteSpec::striped(LinkKind::PciePeer, 2);
        assert!((two.bandwidth / one.bandwidth - 2.0).abs() < 1e-12);
    }

    #[test]
    fn transfers_serialize_fifo_per_route() {
        let mut eng = TransferEngine::new();
        let r = eng.add_route(RouteSpec::striped(LinkKind::PciePeer, 1));
        let t1 = eng.submit(r, 1 << 30, SimTime::ZERO);
        let t2 = eng.submit(r, 1 << 30, SimTime::ZERO);
        let gap = t2 - t1;
        let solo = eng.spec(r).duration(1 << 30);
        assert_eq!(gap, solo);
    }

    #[test]
    fn independent_routes_do_not_interfere() {
        let mut eng = TransferEngine::new();
        let a = eng.add_route(RouteSpec::striped(LinkKind::PciePeer, 1));
        let b = eng.add_route(RouteSpec::striped(LinkKind::PciePeer, 1));
        let ta = eng.submit(a, 1 << 30, SimTime::ZERO);
        let tb = eng.submit(b, 1 << 30, SimTime::ZERO);
        assert_eq!(ta, tb);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let route = RouteSpec::striped(LinkKind::NvLink, 1);
        assert_eq!(route.duration(0), SimDuration::ZERO);
    }

    #[test]
    fn submit_after_idle_starts_at_now() {
        let mut eng = TransferEngine::new();
        let r = eng.add_route(RouteSpec::striped(LinkKind::NvLink, 1));
        let late = SimTime::from_secs_f64(5.0);
        let done = eng.submit(r, 0, late);
        assert!(done >= late);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Transfers on one route never overlap and never reorder: each
        /// completion is at least the unloaded duration after the later of
        /// (submission, previous completion).
        #[test]
        fn fifo_no_overlap(sizes in proptest::collection::vec(0u64..(1 << 28), 1..40),
                           gaps in proptest::collection::vec(0u64..100_000, 1..40)) {
            let mut eng = TransferEngine::new();
            let r = eng.add_route(RouteSpec::striped(LinkKind::PciePeer, 1));
            let mut now = SimTime::ZERO;
            let mut last_done = SimTime::ZERO;
            for (size, gap) in sizes.iter().zip(&gaps) {
                now += SimDuration::from_micros(*gap);
                let done = eng.submit(r, *size, now);
                let earliest_start = last_done.max(now);
                prop_assert_eq!(done, earliest_start + eng.spec(r).duration(*size));
                prop_assert!(done >= last_done);
                last_done = done;
            }
            prop_assert_eq!(eng.busy_until(r), last_done);
        }

        /// Route duration is monotone in bytes and superadditive-free:
        /// moving two payloads separately costs at least one combined
        /// payload (extra base latency).
        #[test]
        fn duration_monotone(a in 1u64..(1 << 30), b in 1u64..(1 << 30)) {
            let route = RouteSpec::striped(LinkKind::NvLink, 2);
            prop_assert!(route.duration(a + b) >= route.duration(a));
            let separate = route.duration(a) + route.duration(b);
            prop_assert!(separate >= route.duration(a + b));
        }
    }
}
