//! Control-plane registry: nodes, endpoints, and the versioned placement
//! plan behind `GET /v1/cluster/status`.
//!
//! These are the static half of the control plane (derived from the
//! [`ServeConfig`] at startup); the live half — KV pressure, queue
//! depths, goodput — comes from the driver's
//! [`SessionSnapshot`](windserve::SessionSnapshot) and is merged into the
//! same response by the server.

use serde::{Deserialize, Serialize};
use windserve::ServeConfig;
use windserve_gpu::GpuId;

/// One GPU of a node, with its memory accounting in MiB.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuStatus {
    /// GPU index within the cluster.
    pub index: usize,
    /// Total device memory, MiB.
    pub memory_total_mb: u64,
}

/// One node of the serving cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStatus {
    /// Node identifier (`node-0`, ...).
    pub node_id: String,
    /// The GPUs on this node.
    pub gpus: Vec<GpuStatus>,
}

/// One serving endpoint (an engine instance) in the registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointInfo {
    /// Endpoint identifier — the instance name (`prefill-0`, ...).
    pub endpoint_id: String,
    /// Replica index within its phase.
    pub replica_id: usize,
    /// Phase served: `prefill`, `decode`, or `colocated`.
    pub phase: String,
    /// The node hosting the replica's first GPU.
    pub node_id: String,
    /// Wire API the endpoint speaks.
    pub api_flavor: String,
    /// The placement-plan version that created this endpoint.
    pub plan_version: u64,
}

/// One replica's placement within the plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementAssignment {
    /// Endpoint this assignment realizes.
    pub endpoint_id: String,
    /// The node hosting the replica's first GPU.
    pub node_id: String,
    /// Cluster GPU indices assigned to the replica.
    pub gpu_indices: Vec<usize>,
}

/// A versioned placement of every replica onto the GPU pool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// The served model.
    pub model_uid: String,
    /// Monotone plan version; bumped whenever placement changes.
    pub version: u64,
    /// Per-replica assignments.
    pub assignments: Vec<PlacementAssignment>,
}

/// The static control-plane view of one deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registry {
    /// Cluster nodes and their GPUs.
    pub nodes: Vec<NodeStatus>,
    /// Registered serving endpoints.
    pub endpoints: Vec<EndpointInfo>,
    /// The current placement plan.
    pub placement: PlacementPlan,
}

impl Registry {
    /// Derives the registry from a [`ServeConfig`]: one endpoint and one
    /// assignment per replica of [`ServeConfig::layout`], the placement
    /// the [`Cluster`](windserve::Cluster) runs, in its instance order.
    ///
    /// # Errors
    ///
    /// The layout's [`Error::Config`](windserve::Error::Config) when the
    /// placement does not fit the topology.
    pub fn from_config(cfg: &ServeConfig) -> windserve::Result<Self> {
        let topo = &cfg.topology;
        let mut nodes: Vec<NodeStatus> = (0..topo.n_nodes())
            .map(|n| NodeStatus {
                node_id: format!("node-{n}"),
                gpus: Vec::new(),
            })
            .collect();
        for g in 0..topo.n_gpus() {
            let node = topo.node_of(GpuId(g));
            // Prefill replicas may run a different GPU type; memory below
            // reflects the default pool, which is what capacity planning
            // reads.
            nodes[node].gpus.push(GpuStatus {
                index: g,
                memory_total_mb: cfg.gpu.memory_bytes / (1 << 20),
            });
        }
        let version = 1;
        let (endpoints, assignments) = cfg
            .layout()?
            .into_iter()
            .map(|r| {
                let node = r.gpus.first().map_or(0, |&g| topo.node_of(g));
                let endpoint = EndpointInfo {
                    endpoint_id: r.name(),
                    replica_id: r.index,
                    phase: r.phase().to_string(),
                    node_id: format!("node-{node}"),
                    api_flavor: "openai-completions".to_string(),
                    plan_version: version,
                };
                let assignment = PlacementAssignment {
                    endpoint_id: r.name(),
                    node_id: format!("node-{node}"),
                    gpu_indices: r.gpus.iter().map(|g| g.0).collect(),
                };
                (endpoint, assignment)
            })
            .unzip();
        Ok(Registry {
            nodes,
            endpoints,
            placement: PlacementPlan {
                model_uid: cfg.model.name.clone(),
                version,
                assignments,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windserve::{Cluster, SystemKind};
    use windserve_gpu::Topology;

    #[test]
    fn registry_mirrors_the_paper_default_layout() {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let reg = Registry::from_config(&cfg).unwrap();
        assert!(!reg.nodes.is_empty());
        let total_gpus: usize = reg.nodes.iter().map(|n| n.gpus.len()).sum();
        assert_eq!(total_gpus, cfg.topology.n_gpus());
        assert_eq!(
            reg.endpoints.len(),
            cfg.prefill_replicas + cfg.decode_replicas
        );
        assert_eq!(reg.endpoints[0].endpoint_id, "prefill-0");
        assert_eq!(reg.placement.version, 1);
        assert_eq!(reg.placement.assignments.len(), reg.endpoints.len());
        // Every assignment consumes the replica's full parallel degree.
        assert_eq!(
            reg.placement.assignments[0].gpu_indices.len(),
            cfg.prefill_parallelism.n_gpus()
        );
    }

    #[test]
    fn colocated_systems_register_colocated_endpoints() {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated);
        let reg = Registry::from_config(&cfg).unwrap();
        assert!(reg.endpoints.iter().all(|e| e.phase == "colocated"));
        assert!(reg.endpoints[0].endpoint_id.starts_with("colocated-"));
    }

    /// The status endpoint names exactly the instances the cluster runs,
    /// in its order, on the GPUs the cluster places them on.
    #[test]
    fn registry_states_the_placement_the_cluster_runs() {
        let windserve = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let split = ServeConfig {
            topology: Topology::a800_multi_node(2),
            split_phases_across_nodes: true,
            ..windserve.clone()
        };
        let cases: [(ServeConfig, &[&[usize]]); 4] = [
            (
                ServeConfig::opt_13b_sharegpt(SystemKind::VllmColocated),
                &[&[0, 1], &[2, 3]],
            ),
            (windserve.clone(), &[&[0, 2], &[1, 3]]),
            (
                ServeConfig {
                    prefill_replicas: 2,
                    decode_replicas: 2,
                    ..windserve
                },
                &[&[0, 1], &[2, 3], &[4, 5], &[6, 7]],
            ),
            (split.clone(), &[&[0, 1], &[8, 9]]),
        ];
        for (cfg, gpus) in cases {
            let reg = Registry::from_config(&cfg).unwrap();
            let running: Vec<String> = Cluster::new(cfg.clone())
                .unwrap()
                .into_session()
                .snapshot()
                .instances
                .into_iter()
                .map(|inst| inst.name)
                .collect();
            let ids: Vec<&str> = reg
                .endpoints
                .iter()
                .map(|e| e.endpoint_id.as_str())
                .collect();
            assert_eq!(ids, running, "{:?}", cfg.system);
            let placed: Vec<&[usize]> = reg
                .placement
                .assignments
                .iter()
                .map(|a| a.gpu_indices.as_slice())
                .collect();
            assert_eq!(placed, gpus, "{ids:?}");
        }
        // Split across nodes, decode runs on node 1.
        let reg = Registry::from_config(&split).unwrap();
        assert_eq!(reg.endpoints[1].endpoint_id, "decode-0");
        assert_eq!(reg.endpoints[1].node_id, "node-1");
        assert_eq!(reg.placement.assignments[1].node_id, "node-1");
    }

    #[test]
    fn registry_serializes_to_json() {
        let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let reg = Registry::from_config(&cfg).unwrap();
        let v = serde_json::to_value(&reg);
        assert!(v["nodes"].as_array().is_some());
        assert_eq!(v["placement"]["version"].as_u64(), Some(1));
    }
}
