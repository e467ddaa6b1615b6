//! The testbed topology of the paper's Fig. 9.
//!
//! Eight GPUs in one node, two NUMA domains of four. Within a NUMA domain,
//! GPUs are NVLink-bridged in pairs ((0,1), (2,3), (4,5), (6,7)) and
//! otherwise reachable through a PCIe switch; crossing NUMA domains goes
//! through the root complex. [`Topology::route_between`] derives the
//! effective inter-instance route for sharded (tensor-parallel) transfers,
//! where shard `i` of one instance talks to shard `i` of the other.

use crate::error::{Error, Result};
use crate::link::{LinkKind, RouteSpec};
use serde::{Deserialize, Serialize};

/// Index of a physical GPU in the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GpuId(pub usize);

/// A node-level interconnect topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    n_gpus: usize,
    /// GPUs `2k` and `2k+1` share an NVLink bridge when `nvlink_pairs`.
    nvlink_pairs: bool,
    /// GPUs per NUMA domain.
    numa_width: usize,
    /// GPUs per node; ids in different nodes communicate over the
    /// inter-node fabric.
    node_width: usize,
}

impl Topology {
    /// The paper's 8× A800 testbed (Fig. 9): NVLink-bridged pairs, two NUMA
    /// domains of four GPUs.
    pub fn a800_testbed() -> Self {
        Topology {
            n_gpus: 8,
            nvlink_pairs: true,
            numa_width: 4,
            node_width: 8,
        }
    }

    /// `nodes` copies of the A800 testbed joined by a 200 Gb/s-class RDMA
    /// fabric — the paper's §7 multi-node deployment scenario.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn a800_multi_node(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        Topology {
            n_gpus: 8 * nodes,
            nvlink_pairs: true,
            numa_width: 4,
            node_width: 8,
        }
    }

    /// A PCIe-only node (e.g. a heterogeneous RTX-4090 prefill pool,
    /// paper §7 future work).
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus` is zero or `numa_width` is zero.
    pub fn pcie_only(n_gpus: usize, numa_width: usize) -> Self {
        assert!(n_gpus > 0 && numa_width > 0, "degenerate topology");
        Topology {
            n_gpus,
            nvlink_pairs: false,
            numa_width,
            node_width: n_gpus,
        }
    }

    /// Checks that the topology has GPUs and positive NUMA and node
    /// widths, the divisors of every link and node lookup. A topology read
    /// from a config file is checked before anything places on it.
    ///
    /// # Errors
    ///
    /// [`Error::Topology`] naming the first zero field.
    pub fn validate(&self) -> Result<()> {
        for (field, value) in [
            ("n_gpus", self.n_gpus),
            ("numa_width", self.numa_width),
            ("node_width", self.node_width),
        ] {
            if value == 0 {
                return Err(Error::Topology {
                    reason: format!("{field} must be positive"),
                });
            }
        }
        Ok(())
    }

    /// Number of GPUs in the node.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// The link connecting two distinct GPUs.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or if `a == b`.
    pub fn link_kind(&self, a: GpuId, b: GpuId) -> LinkKind {
        assert!(
            a.0 < self.n_gpus && b.0 < self.n_gpus,
            "gpu id out of range"
        );
        assert_ne!(a, b, "no self-link");
        if a.0 / self.node_width != b.0 / self.node_width {
            return LinkKind::InterNode;
        }
        if self.nvlink_pairs && a.0 / 2 == b.0 / 2 {
            return LinkKind::NvLink;
        }
        if a.0 / self.numa_width == b.0 / self.numa_width {
            LinkKind::PciePeer
        } else {
            LinkKind::CrossNuma
        }
    }

    /// The node index a GPU lives on.
    pub fn node_of(&self, gpu: GpuId) -> usize {
        gpu.0 / self.node_width
    }

    /// Number of nodes in the deployment.
    pub fn n_nodes(&self) -> usize {
        self.n_gpus.div_ceil(self.node_width)
    }

    /// Effective route for a sharded transfer from instance `src` to
    /// instance `dst`. Shard `i` of `src` streams to shard `i % dst.len()`
    /// of `dst` concurrently; the aggregate bandwidth is the sum of stripe
    /// bandwidths and the latency is that of the slowest constituent link.
    ///
    /// # Panics
    ///
    /// Panics if either placement is empty or the placements overlap.
    pub fn route_between(&self, src: &[GpuId], dst: &[GpuId]) -> RouteSpec {
        assert!(!src.is_empty() && !dst.is_empty(), "empty placement");
        assert!(
            src.iter().all(|g| !dst.contains(g)),
            "instances must not share GPUs"
        );
        let stripes = src.len().max(dst.len());
        let mut bandwidth = 0.0;
        let mut worst = LinkKind::NvLink;
        for i in 0..stripes {
            let a = src[i % src.len()];
            let b = dst[i % dst.len()];
            let kind = self.link_kind(a, b);
            // Each physical stripe contributes its per-direction bandwidth,
            // but a GPU that serves several stripes divides its NIC among
            // them; dividing by the replication factor keeps bandwidth
            // conservative.
            let replication = (stripes / src.len().min(dst.len())).max(1);
            bandwidth += kind.bandwidth() / replication as f64;
            if kind.base_latency() > worst.base_latency() {
                worst = kind;
            }
        }
        RouteSpec {
            kind: worst,
            bandwidth,
        }
    }

    /// Route from an instance to host DRAM (for KV swap): every GPU swaps
    /// over its own PCIe host link concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the placement is empty.
    pub fn host_route(&self, gpus: &[GpuId]) -> RouteSpec {
        assert!(!gpus.is_empty(), "empty placement");
        RouteSpec::striped(LinkKind::PcieHost, gpus.len())
    }

    /// A topology describing the first `n` GPUs of this one — the view a
    /// fleet deployment gets of its lease. Link structure (NVLink pairing,
    /// NUMA and node widths) is inherited, so placements computed inside
    /// the subset have the same interconnect costs as the corresponding
    /// prefix of the parent pool.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds this topology's size.
    pub fn subset(&self, n: usize) -> Topology {
        assert!(n > 0, "degenerate topology");
        assert!(n <= self.n_gpus, "subset exceeds pool");
        Topology {
            n_gpus: n,
            nvlink_pairs: self.nvlink_pairs,
            numa_width: self.numa_width,
            node_width: self.node_width,
        }
    }

    /// A placement of `n` GPUs for the prefill instance followed by `m` for
    /// the decode instance, chosen so that corresponding shards sit on
    /// NVLink-bridged pairs when possible (this is how DistServe and the
    /// paper place instances to cheapen the KV handoff).
    ///
    /// Returns `(prefill_gpus, decode_gpus)`.
    ///
    /// # Panics
    ///
    /// Panics if `n + m` exceeds the node size.
    pub fn paired_placement(&self, n: usize, m: usize) -> (Vec<GpuId>, Vec<GpuId>) {
        assert!(n + m <= self.n_gpus, "placement exceeds node");
        if self.nvlink_pairs && n == m {
            // Shard i of prefill on GPU 2i, shard i of decode on GPU 2i+1:
            // every KV stripe crosses an NVLink bridge.
            let prefill = (0..n).map(|i| GpuId(2 * i)).collect();
            let decode = (0..m).map(|i| GpuId(2 * i + 1)).collect();
            return (prefill, decode);
        }
        let prefill = (0..n).map(GpuId).collect();
        let decode = (n..n + m).map(GpuId).collect();
        (prefill, decode)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::a800_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_pairs_are_nvlinked() {
        let t = Topology::a800_testbed();
        assert_eq!(t.link_kind(GpuId(0), GpuId(1)), LinkKind::NvLink);
        assert_eq!(t.link_kind(GpuId(6), GpuId(7)), LinkKind::NvLink);
    }

    #[test]
    fn same_numa_non_pair_is_pcie() {
        let t = Topology::a800_testbed();
        assert_eq!(t.link_kind(GpuId(0), GpuId(2)), LinkKind::PciePeer);
        assert_eq!(t.link_kind(GpuId(1), GpuId(3)), LinkKind::PciePeer);
    }

    #[test]
    fn cross_numa_goes_through_root_complex() {
        let t = Topology::a800_testbed();
        assert_eq!(t.link_kind(GpuId(0), GpuId(4)), LinkKind::CrossNuma);
        assert_eq!(t.link_kind(GpuId(3), GpuId(7)), LinkKind::CrossNuma);
    }

    #[test]
    fn paired_placement_uses_nvlink_for_equal_tp() {
        let t = Topology::a800_testbed();
        let (p, d) = t.paired_placement(2, 2);
        let route = t.route_between(&p, &d);
        assert_eq!(route.kind, LinkKind::NvLink);
        assert!(route.bandwidth > LinkKind::NvLink.bandwidth() * 1.5);
    }

    #[test]
    fn unequal_placement_falls_back_to_pcie() {
        let t = Topology::a800_testbed();
        let (p, d) = t.paired_placement(2, 1);
        let route = t.route_between(&p, &d);
        assert!(matches!(route.kind, LinkKind::PciePeer | LinkKind::NvLink));
        assert!(route.bandwidth > 0.0);
    }

    #[test]
    fn pcie_only_node_has_no_nvlink() {
        let t = Topology::pcie_only(4, 4);
        assert_eq!(t.link_kind(GpuId(0), GpuId(1)), LinkKind::PciePeer);
    }

    #[test]
    #[should_panic(expected = "must not share")]
    fn overlapping_instances_rejected() {
        let t = Topology::a800_testbed();
        let _ = t.route_between(&[GpuId(0)], &[GpuId(0)]);
    }

    #[test]
    fn host_route_stripes_over_all_gpus() {
        let t = Topology::a800_testbed();
        let one = t.host_route(&[GpuId(0)]);
        let two = t.host_route(&[GpuId(0), GpuId(1)]);
        assert!((two.bandwidth / one.bandwidth - 2.0).abs() < 1e-12);
    }

    #[test]
    fn route_bandwidth_conserves_when_fanning_out() {
        let t = Topology::a800_testbed();
        // One prefill GPU feeding two decode GPUs cannot exceed ~its own
        // egress on each stripe class.
        let route = t.route_between(&[GpuId(0)], &[GpuId(2), GpuId(3)]);
        assert!(route.bandwidth <= 2.0 * LinkKind::PciePeer.bandwidth() + 1.0);
    }
}

#[cfg(test)]
mod multi_node_tests {
    use super::*;

    #[test]
    fn cross_node_links_use_the_fabric() {
        let t = Topology::a800_multi_node(2);
        assert_eq!(t.n_gpus(), 16);
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.link_kind(GpuId(0), GpuId(8)), LinkKind::InterNode);
        assert_eq!(t.link_kind(GpuId(7), GpuId(15)), LinkKind::InterNode);
        // Intra-node structure is preserved on every node.
        assert_eq!(t.link_kind(GpuId(8), GpuId(9)), LinkKind::NvLink);
        assert_eq!(t.link_kind(GpuId(8), GpuId(10)), LinkKind::PciePeer);
        assert_eq!(t.link_kind(GpuId(8), GpuId(12)), LinkKind::CrossNuma);
    }

    #[test]
    fn inter_node_is_high_latency_and_below_pcie_peer() {
        // A 200 Gb/s fabric is bandwidth-comparable to cross-NUMA PCIe but
        // pays much higher setup latency (RDMA rendezvous) and sits well
        // below same-switch PCIe peer throughput.
        assert!(LinkKind::InterNode.bandwidth() < LinkKind::PciePeer.bandwidth() * 1.1);
        assert!(LinkKind::InterNode.base_latency() > LinkKind::CrossNuma.base_latency());
    }

    #[test]
    fn node_of_partitions_ids() {
        let t = Topology::a800_multi_node(3);
        assert_eq!(t.node_of(GpuId(0)), 0);
        assert_eq!(t.node_of(GpuId(8)), 1);
        assert_eq!(t.node_of(GpuId(23)), 2);
    }

    #[test]
    fn cross_node_route_aggregates_fabric_stripes() {
        let t = Topology::a800_multi_node(2);
        let p: Vec<GpuId> = vec![GpuId(0), GpuId(1)];
        let d: Vec<GpuId> = vec![GpuId(8), GpuId(9)];
        let route = t.route_between(&p, &d);
        assert_eq!(route.kind, LinkKind::InterNode);
        assert!(route.bandwidth > LinkKind::InterNode.bandwidth() * 1.5);
    }
}
