//! The fleet layer: several model deployments over one shared GPU pool.
//!
//! A [`Fleet`] runs N independent deployments — each its own
//! [`ServeConfig`] serving its own tenants — against a single
//! [`Topology`]'s worth of GPUs:
//!
//! 1. **Placement planning.** A lease is a GPU count. Every deployment
//!    leases its base placement's GPUs from the shared pool, in planning
//!    order, so the plan is a pure function of the config. Remaining
//!    capacity is handed out as *expansion units* — one extra prefill
//!    replica plus one extra decode replica — round-robin, up to each
//!    deployment's [`DeploymentConfig::expansion_units`] appetite.
//! 2. **Fair-share arbitration.** The arbiter estimates each deployment's
//!    demand pressure (workload tokens per second per leased GPU) from its
//!    tenants' traces and moves expansion units from underloaded
//!    deployments to overloaded ones. Granted units only raise the replica
//!    *maxima*; the existing autoscaler activates and drains them on
//!    demand, so a granted unit that turns out to be unneeded costs only
//!    idle GPU-seconds until it drains.
//! 3. **Routing.** Each tenant's workload is generated from a seed forked
//!    off the fleet seed, tagged with a fleet-wide [`TenantId`], and
//!    merged arrival-ordered into its deployment's request stream.
//! 4. **Execution.** Deployments run as independent clusters on
//!    [`Topology::subset`] views of the pool, optionally in parallel —
//!    results are written into index-addressed slots, so the
//!    [`FleetReport`] is byte-identical whatever the thread count.
//! 5. **Accounting.** All leases return to the pool at wind-down; the run
//!    fails with [`crate::Error::Fleet`] unless the pool ends whole with
//!    grants equal to returns. [`FleetReport`] breaks latency, goodput and
//!    SLO attainment down per tenant and GPU-seconds per deployment, and
//!    the trace log records every lease movement as a
//!    [`TraceEvent::FleetLease`](windserve_trace::TraceEvent).
//!
//! # Examples
//!
//! ```
//! use windserve::fleet::FleetConfig;
//!
//! let (report, _) = FleetConfig::example().build()?.run(1)?;
//! assert_eq!(report.deployments.len(), 2);
//! assert!(report.pool.balanced);
//! for tenant in &report.tenants {
//!     assert!((0.0..=1.0).contains(&tenant.slo_attainment));
//! }
//! # Ok::<(), windserve::Error>(())
//! ```

use crate::cluster::Cluster;
use crate::config::{ServeConfig, SystemKind};
use crate::configfile;
use crate::error::{Error, Result};
use crate::report::RunReport;
use serde::value::{Map, Value};
use serde::{Deserialize, Serialize};
use windserve_gpu::Topology;
use windserve_metrics::LatencySummary;
use windserve_sim::SimTime;
use windserve_trace::{LeaseAction, TimedEvent, TraceEvent, TraceLog};
use windserve_workload::{ArrivalProcess, Dataset, Scenario, TenantId, Trace};

/// One workload source multiplexed onto a deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (unique across the fleet).
    pub name: String,
    /// Dataset spec resolved via [`Dataset::by_name`]: `sharegpt`,
    /// `longbench` or `fixed:<prompt>:<output>`.
    pub dataset: String,
    /// Aggregate arrival rate, requests per second (Poisson).
    pub rate: f64,
    /// Number of requests this tenant issues.
    pub requests: usize,
    /// Priority tier for overload control (`0` sheds first).
    pub tier: u8,
}

impl TenantSpec {
    /// A tenant with the given name, dataset spec and Poisson rate,
    /// issuing `requests` requests at tier 0.
    pub fn new(
        name: impl Into<String>,
        dataset: impl Into<String>,
        rate: f64,
        requests: usize,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            dataset: dataset.into(),
            rate,
            requests,
            tier: 0,
        }
    }

    /// The same tenant at a different priority tier.
    #[must_use]
    pub fn with_tier(mut self, tier: u8) -> Self {
        self.tier = tier;
        self
    }
}

/// One model deployment inside the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Display name (unique across the fleet).
    pub name: String,
    /// The deployment's serving configuration. Its `topology` field is
    /// ignored — the fleet substitutes a [`Topology::subset`] view sized
    /// to the deployment's lease — and its replica counts are the *base*
    /// placement the planner always grants.
    pub serve: ServeConfig,
    /// How many expansion units (one extra prefill replica + one extra
    /// decode replica each) this deployment is willing to hold. Granted
    /// units raise the replica maxima; autoscaling activates them only
    /// under load. Must be 0 for colocated systems.
    pub expansion_units: usize,
    /// The tenants routed to this deployment.
    pub tenants: Vec<TenantSpec>,
}

/// Fair-share arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArbiterConfig {
    /// Demand pressure (workload tokens per second per leased GPU) above
    /// which a deployment counts as overloaded.
    pub pressure_threshold: f64,
    /// A deployment is underloaded — and its expansion units reclaimable —
    /// when its pressure sits below `pressure_threshold × reclaim_fraction`.
    pub reclaim_fraction: f64,
    /// Upper bound on unit moves per arbitration pass.
    pub max_rebalances: usize,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig {
            pressure_threshold: 2_000.0,
            reclaim_fraction: 0.5,
            max_rebalances: 8,
        }
    }
}

impl ArbiterConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Fleet`] describing the first invalid field.
    pub fn validate(&self) -> Result<()> {
        if !(self.pressure_threshold.is_finite() && self.pressure_threshold > 0.0) {
            return Err(Error::Fleet {
                reason: format!(
                    "pressure_threshold must be positive, got {}",
                    self.pressure_threshold
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.reclaim_fraction) {
            return Err(Error::Fleet {
                reason: format!(
                    "reclaim_fraction must be in [0, 1], got {}",
                    self.reclaim_fraction
                ),
            });
        }
        Ok(())
    }
}

/// Configuration of a whole fleet.
///
/// # Examples
///
/// ```
/// use windserve::fleet::{ArbiterConfig, DeploymentConfig, FleetConfig, TenantSpec};
/// use windserve::{ServeConfig, SystemKind};
/// use windserve_gpu::Topology;
///
/// let fleet = FleetConfig {
///     topology: Topology::a800_testbed(),
///     deployments: vec![DeploymentConfig {
///         name: "chat".into(),
///         serve: ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
///         expansion_units: 0,
///         tenants: vec![TenantSpec::new("t0", "sharegpt", 4.0, 50)],
///     }],
///     arbiter: Some(ArbiterConfig::default()),
///     seed: 7,
/// }
/// .build()?;
/// # Ok::<(), windserve::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The shared GPU pool every deployment leases from.
    pub topology: Topology,
    /// The deployments, in planning (and lease-priority) order.
    pub deployments: Vec<DeploymentConfig>,
    /// Fair-share arbitration; `None` keeps the round-robin expansion
    /// grants wherever they land.
    pub arbiter: Option<ArbiterConfig>,
    /// Master seed; every tenant's workload derives from it.
    pub seed: u64,
}

/// Where a tenant's requests are routed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRoute {
    /// Fleet-wide tenant id (assigned in declaration order).
    pub tenant: TenantId,
    /// Tenant display name.
    pub name: String,
    /// Index of the deployment serving this tenant.
    pub deployment: u32,
}

impl FleetConfig {
    /// The example the CLI's `fleet --emit-config` prints: a chatbot
    /// deployment (two ShareGPT tenants at different tiers) and a
    /// summarization deployment (one LongBench tenant) sharing a
    /// two-node A800 pool, with fair-share arbitration on.
    pub fn example() -> FleetConfig {
        FleetConfig {
            topology: Topology::a800_multi_node(2),
            deployments: vec![
                DeploymentConfig {
                    name: "chatbot".into(),
                    serve: ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
                    expansion_units: 1,
                    tenants: vec![
                        TenantSpec::new("chat-free", "sharegpt", 6.0, 120),
                        TenantSpec::new("chat-pro", "sharegpt", 6.0, 120).with_tier(2),
                    ],
                },
                DeploymentConfig {
                    name: "summarize".into(),
                    serve: ServeConfig::llama2_13b_longbench(SystemKind::WindServe),
                    expansion_units: 1,
                    tenants: vec![TenantSpec::new("batch-sum", "longbench", 1.0, 40)],
                },
            ],
            arbiter: Some(ArbiterConfig::default()),
            seed: 0xF1EE7,
        }
    }

    /// The fleet-wide router: every tenant with its id and deployment, in
    /// declaration order (which is id order).
    pub fn tenant_routing(&self) -> Vec<TenantRoute> {
        let mut routes = Vec::new();
        for (d_ix, d) in self.deployments.iter().enumerate() {
            for t in &d.tenants {
                routes.push(TenantRoute {
                    tenant: TenantId(routes.len() as u16),
                    name: t.name.clone(),
                    deployment: d_ix as u32,
                });
            }
        }
        routes
    }

    /// GPUs the planner must grant unconditionally (every deployment's
    /// base placement).
    pub fn base_gpus(&self) -> usize {
        self.deployments.iter().map(|d| d.serve.total_gpus()).sum()
    }

    /// Validates the fleet: a well-formed pool topology, named, non-empty
    /// deployments with unique deployment and tenant names, feasible base placements against the
    /// shared pool, sane tenant specs, and a valid arbiter policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Gpu`] for a malformed pool topology, otherwise
    /// [`Error::Fleet`] (or a wrapped per-deployment config error)
    /// describing the first problem.
    pub fn validate(&self) -> Result<()> {
        let fleet = |reason: String| Error::Fleet { reason };
        self.topology.validate()?;
        if self.deployments.is_empty() {
            return Err(fleet("a fleet needs at least one deployment".into()));
        }
        let mut names: Vec<&str> = Vec::new();
        let mut tenant_names: Vec<&str> = Vec::new();
        for d in &self.deployments {
            if d.name.is_empty() {
                return Err(fleet("deployment names must be non-empty".into()));
            }
            if names.contains(&d.name.as_str()) {
                return Err(fleet(format!("duplicate deployment name {:?}", d.name)));
            }
            names.push(&d.name);
            if d.tenants.is_empty() {
                return Err(fleet(format!("deployment {:?} has no tenants", d.name)));
            }
            if d.serve.system.colocated() && d.expansion_units > 0 {
                return Err(fleet(format!(
                    "deployment {:?}: expansion units need phase-disaggregated autoscaling",
                    d.name
                )));
            }
            for t in &d.tenants {
                if t.name.is_empty() {
                    return Err(fleet(format!(
                        "deployment {:?}: tenant names must be non-empty",
                        d.name
                    )));
                }
                if tenant_names.contains(&t.name.as_str()) {
                    return Err(fleet(format!("duplicate tenant name {:?}", t.name)));
                }
                tenant_names.push(&t.name);
                if !(t.rate.is_finite() && t.rate > 0.0) {
                    return Err(fleet(format!(
                        "tenant {:?}: rate must be positive, got {}",
                        t.name, t.rate
                    )));
                }
                if t.requests == 0 {
                    return Err(fleet(format!("tenant {:?} issues no requests", t.name)));
                }
                // Resolve the dataset now so a typo fails at validation,
                // not mid-plan.
                Dataset::by_name(&t.dataset, d.serve.model.max_context)
                    .map_err(|e| fleet(format!("tenant {:?}: {e}", t.name)))?;
            }
            // The deployment must be feasible on its own base lease.
            let mut probe = d.serve.clone();
            probe.topology = self
                .topology
                .subset(d.serve.total_gpus().min(self.topology.n_gpus()).max(1));
            probe
                .validate()
                .map_err(|e| fleet(format!("deployment {:?}: {e}", d.name)))?;
        }
        if self.tenant_routing().len() > u16::MAX as usize {
            return Err(fleet("too many tenants".into()));
        }
        if self.base_gpus() > self.topology.n_gpus() {
            return Err(fleet(format!(
                "base placements need {} GPUs, pool has {}",
                self.base_gpus(),
                self.topology.n_gpus()
            )));
        }
        if let Some(arbiter) = &self.arbiter {
            arbiter.validate()?;
        }
        Ok(())
    }

    /// Validates and wraps this config into a runnable [`Fleet`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Fleet`] if [`FleetConfig::validate`] fails.
    pub fn build(self) -> Result<Fleet> {
        self.validate()?;
        Ok(Fleet { cfg: self })
    }

    /// Renders this fleet config as TOML (see
    /// [`crate::configfile`]).
    pub fn to_toml(&self) -> String {
        configfile::to_toml(self).expect("a FleetConfig always serializes to a table")
    }

    /// Reads a fleet config from TOML. Each deployment's `serve` table may
    /// be partial — omitted fields inherit the paper's default operating
    /// point, exactly like [`ServeConfig::from_toml`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for syntax or
    /// structural problems and [`Error::Fleet`] if the result fails
    /// validation.
    pub fn from_toml(text: &str) -> Result<FleetConfig> {
        let (cfg, _) = configfile::load::<FleetConfig>(text, "fleet config file", with_defaults)?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A fleet file's tree with the defaults filled in: the testbed pool,
/// seed 0, and every deployment's (possibly partial) `serve` table
/// deep-merged over the paper's default operating point.
fn with_defaults(file: &Value) -> Value {
    let mut tree = file.clone();
    if let Value::Object(root) = &mut tree {
        if root.get("topology").is_none() {
            root.insert("topology", Topology::a800_testbed().serialize_value());
        }
        if root.get("seed").is_none() {
            root.insert("seed", Value::from(0u64));
        }
        if let Some(Value::Array(deployments)) = root.get_mut("deployments") {
            for d in deployments.iter_mut() {
                if let Value::Object(dm) = d {
                    let serve = dm
                        .get("serve")
                        .cloned()
                        .unwrap_or(Value::Object(Map::new()));
                    dm.insert("serve", configfile::with_serve_defaults(&serve));
                }
            }
        }
    }
    tree
}

/// A validated, runnable fleet.
#[derive(Debug, Clone)]
pub struct Fleet {
    cfg: FleetConfig,
}

/// One deployment's slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Deployment name.
    pub name: String,
    /// GPUs in the base placement (always granted).
    pub base_gpus: usize,
    /// Expansion units held after arbitration.
    pub granted_units: usize,
    /// GPUs per expansion unit for this deployment.
    pub unit_gpus: usize,
    /// Total GPUs leased (base + granted units).
    pub leased_gpus: usize,
    /// Estimated demand pressure (workload tokens/sec per base GPU) the
    /// arbiter ranked this deployment by.
    pub pressure: f64,
    /// GPU-seconds held by active replicas over the run — the fleet's
    /// cost-accounting denominator.
    pub gpu_seconds: f64,
    /// The deployment's full run report.
    pub report: RunReport,
}

/// One tenant's slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Fleet-wide tenant id.
    pub tenant: TenantId,
    /// Tenant display name.
    pub name: String,
    /// Name of the deployment that served this tenant.
    pub deployment: String,
    /// Latency summary over the tenant's completed requests, against its
    /// deployment's SLOs.
    pub summary: LatencySummary,
    /// Fraction of the tenant's completed requests meeting both SLOs.
    pub slo_attainment: f64,
    /// The tenant's goodput: both-SLO requests per second over its
    /// deployment's run.
    pub goodput: f64,
}

/// Shared-pool lease accounting for one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolReport {
    /// Pool capacity in GPUs.
    pub capacity: usize,
    /// Lifetime GPU-grants over the run (units, not calls).
    pub granted_gpus: u64,
    /// Lifetime GPU-returns over the run.
    pub returned_gpus: u64,
    /// Whether every grant was matched by a return and the pool ended
    /// whole. A fleet run fails rather than report `false`.
    pub balanced: bool,
}

/// The result of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-deployment results, in planning order.
    pub deployments: Vec<DeploymentReport>,
    /// Per-tenant results, in tenant-id order.
    pub tenants: Vec<TenantReport>,
    /// Shared-pool lease accounting.
    pub pool: PoolReport,
}

impl FleetReport {
    /// The tenant report with the given name.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Fleet-wide goodput: both-SLO requests per second summed over
    /// tenants.
    pub fn total_goodput(&self) -> f64 {
        self.tenants.iter().map(|t| t.goodput).sum()
    }

    /// GPU-seconds held across all deployments.
    pub fn total_gpu_seconds(&self) -> f64 {
        self.deployments.iter().map(|d| d.gpu_seconds).sum()
    }
}

/// Everything the planner decided for one deployment before execution.
struct Plan {
    /// GPUs currently leased (base + granted units).
    leased: usize,
    unit_gpus: usize,
    granted_units: usize,
    pressure: f64,
    trace: Trace,
    /// Maps a merged-trace request id to its fleet-wide tenant index.
    tenant_of: Vec<TenantId>,
}

/// The shared pool's lease ledger: its free count, its lifetime grant and
/// return totals, and the trace of every lease movement.
struct Ledger {
    free: usize,
    pool: PoolReport,
    events: Vec<TimedEvent>,
}

impl Ledger {
    fn new(capacity: usize) -> Self {
        Ledger {
            free: capacity,
            pool: PoolReport {
                capacity,
                granted_gpus: 0,
                returned_gpus: 0,
                balanced: false,
            },
            events: Vec::new(),
        }
    }

    /// Moves `gpus` between the pool and deployment `ix`'s lease of
    /// `leased` GPUs — out of the pool for [`LeaseAction::Granted`], back
    /// into it otherwise — and records the movement.
    fn apply(
        &mut self,
        at: SimTime,
        ix: usize,
        leased: &mut usize,
        action: LeaseAction,
        gpus: usize,
    ) -> Result<()> {
        if action == LeaseAction::Granted {
            if gpus > self.free {
                return Err(Error::Fleet {
                    reason: format!(
                        "deployment {ix} requested {gpus} GPUs but only {} are free",
                        self.free
                    ),
                });
            }
            self.free -= gpus;
            self.pool.granted_gpus += gpus as u64;
            *leased += gpus;
        } else {
            self.free += gpus;
            self.pool.returned_gpus += gpus as u64;
            *leased -= gpus;
        }
        self.events.push(TimedEvent {
            at,
            event: TraceEvent::FleetLease {
                deployment: ix as u32,
                action,
                gpus: gpus as u32,
                lease_after: *leased as u32,
                pool_free: self.free as u32,
            },
        });
        Ok(())
    }
}

/// SplitMix64 — forks per-tenant workload seeds off the fleet seed so
/// adding a tenant never perturbs its neighbours' workloads.
fn fork_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fleet {
    /// The validated configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Runs the fleet with up to `jobs` deployments executing
    /// concurrently, returning the report together with a fleet-level
    /// trace log of every lease movement ([`TraceEvent::FleetLease`]).
    /// Both are byte-identical for any `jobs >= 1`.
    ///
    /// # Errors
    ///
    /// Returns the first deployment's error (prefixed with its name), or
    /// [`crate::Error::Fleet`] if planning or lease
    /// accounting fails.
    pub fn run(&self, jobs: usize) -> Result<(FleetReport, TraceLog)> {
        let mut ledger = Ledger::new(self.cfg.topology.n_gpus());
        let mut plans = self.plan(&mut ledger)?;

        // Build the final per-deployment configs on their lease subsets.
        let mut runs: Vec<(ServeConfig, Trace)> = Vec::new();
        for (d, plan) in self.cfg.deployments.iter().zip(&plans) {
            let mut serve = d.serve.clone();
            serve.topology = self.cfg.topology.subset(plan.leased);
            if plan.granted_units > 0 {
                let base_prefill = serve.prefill_replicas;
                let base_decode = serve.decode_replicas;
                serve.prefill_replicas += plan.granted_units;
                serve.decode_replicas += plan.granted_units;
                // Granted units are maxima the autoscaler may activate;
                // the base placement stays always-on.
                let mut auto = serve.autoscale.unwrap_or_default();
                auto.min_prefill = base_prefill;
                auto.min_decode = base_decode;
                serve.autoscale = Some(auto);
            }
            serve.validate().map_err(|e| Error::Fleet {
                reason: format!("deployment {:?}: {e}", d.name),
            })?;
            runs.push((serve, plan.trace.clone()));
        }

        let slos: Vec<_> = runs.iter().map(|(serve, _)| serve.slo).collect();
        let reports = crate::parallel_map(jobs, runs, |(serve, trace)| {
            Cluster::new(serve)?.run(&trace).map(|(report, _)| report)
        });

        let mut deployments = Vec::new();
        let mut tenants = Vec::new();
        let routes = self.cfg.tenant_routing();
        for (ix, result) in reports.into_iter().enumerate() {
            let d = &self.cfg.deployments[ix];
            let plan = &mut plans[ix];
            let report = result.map_err(|e| Error::Fleet {
                reason: format!("deployment {:?}: {e}", d.name),
            })?;

            // Per-tenant breakdown: join the run's records back to tenants
            // through the merged trace's id -> tenant mapping.
            let tenant_of = &plan.tenant_of;
            let grouped = LatencySummary::grouped_by(slos[ix], &report.records, |r| {
                tenant_of
                    .get(r.id.0 as usize)
                    .copied()
                    .unwrap_or(TenantId(0))
            });
            for route in routes.iter().filter(|r| r.deployment == ix as u32) {
                let summary = grouped
                    .get(&route.tenant)
                    .cloned()
                    .unwrap_or_else(|| LatencySummary::of(slos[ix], &[]));
                let goodput = if report.duration_secs > 0.0 {
                    summary.slo_attaining as f64 / report.duration_secs
                } else {
                    0.0
                };
                tenants.push(TenantReport {
                    tenant: route.tenant,
                    name: route.name.clone(),
                    deployment: d.name.clone(),
                    slo_attainment: summary.slo.both,
                    goodput,
                    summary,
                });
            }

            // Wind-down: the whole lease returns to the pool.
            let leased_gpus = plan.leased;
            let end = SimTime::from_secs_f64(report.duration_secs);
            ledger.apply(
                end,
                ix,
                &mut plan.leased,
                LeaseAction::Returned,
                leased_gpus,
            )?;

            deployments.push(DeploymentReport {
                name: d.name.clone(),
                base_gpus: d.serve.total_gpus(),
                granted_units: plan.granted_units,
                unit_gpus: plan.unit_gpus,
                leased_gpus,
                pressure: plan.pressure,
                gpu_seconds: report.gpu_seconds_active,
                report,
            });
        }

        let mut pool = ledger.pool;
        pool.balanced = ledger.free == pool.capacity && pool.granted_gpus == pool.returned_gpus;
        if !pool.balanced {
            return Err(Error::Fleet {
                reason: format!(
                    "lease accounting does not balance: granted {} returned {}",
                    pool.granted_gpus, pool.returned_gpus
                ),
            });
        }
        Ok((
            FleetReport {
                deployments,
                tenants,
                pool,
            },
            TraceLog::new(ledger.events),
        ))
    }

    /// Placement planning + arbitration: base leases, tenant workloads,
    /// round-robin expansion grants, then fair-share rebalancing.
    fn plan(&self, ledger: &mut Ledger) -> Result<Vec<Plan>> {
        let fleet = |reason: String| Error::Fleet { reason };
        let mut plans: Vec<Plan> = Vec::new();
        let mut tenant_ix = 0u64;
        for (d_ix, d) in self.cfg.deployments.iter().enumerate() {
            // Router: generate, tag and merge every tenant's workload.
            let mut sources: Vec<(TenantId, Trace)> = Vec::new();
            for t in &d.tenants {
                let dataset = Dataset::by_name(&t.dataset, d.serve.model.max_context)
                    .map_err(|e| fleet(format!("tenant {:?}: {e}", t.name)))?;
                let seed = fork_seed(self.cfg.seed, tenant_ix);
                let trace =
                    Scenario::single_shot(dataset, ArrivalProcess::poisson(t.rate), t.requests)
                        .generate(seed)
                        .map_err(|e| fleet(format!("tenant {:?}: {e}", t.name)))?;
                let tiered = if t.tier > 0 {
                    Trace::from_requests(
                        trace
                            .requests()
                            .iter()
                            .map(|r| r.with_tier(t.tier))
                            .collect(),
                    )
                } else {
                    trace
                };
                sources.push((TenantId(tenant_ix as u16), tiered));
                tenant_ix += 1;
            }
            let trace = Trace::merge_tagged(&sources);
            // Request ids are reassigned densely by arrival order, so a
            // plain vector indexes the id -> tenant mapping.
            let tenant_of: Vec<TenantId> = trace.requests().iter().map(|r| r.tenant).collect();

            // Demand estimate: total workload tokens per second per base
            // GPU — the arbiter's pressure signal.
            let base = d.serve.total_gpus();
            let tokens: u64 = trace
                .requests()
                .iter()
                .map(|r| u64::from(r.prompt_tokens) + u64::from(r.output_tokens))
                .sum();
            let span = trace.span().max(1e-9);
            let pressure = tokens as f64 / span / base.max(1) as f64;

            let mut leased = 0;
            ledger.apply(SimTime::ZERO, d_ix, &mut leased, LeaseAction::Granted, base)?;
            plans.push(Plan {
                leased,
                unit_gpus: d.serve.prefill_parallelism.n_gpus()
                    + d.serve.decode_parallelism.n_gpus(),
                granted_units: 0,
                pressure,
                trace,
                tenant_of,
            });
        }

        // Round-robin expansion grants, planning order, until appetites or
        // the pool run out.
        loop {
            let mut granted_any = false;
            for (d_ix, d) in self.cfg.deployments.iter().enumerate() {
                let plan = &mut plans[d_ix];
                if plan.granted_units >= d.expansion_units || plan.unit_gpus > ledger.free {
                    continue;
                }
                ledger.apply(
                    SimTime::ZERO,
                    d_ix,
                    &mut plan.leased,
                    LeaseAction::Granted,
                    plan.unit_gpus,
                )?;
                plan.granted_units += 1;
                granted_any = true;
            }
            if !granted_any {
                break;
            }
        }

        // Fair-share rebalancing: move units from underloaded deployments
        // to overloaded ones that could not be served from the free pool.
        if let Some(arbiter) = &self.cfg.arbiter {
            let cold_cutoff = arbiter.pressure_threshold * arbiter.reclaim_fraction;
            for _ in 0..arbiter.max_rebalances {
                // Hottest deployment still short of its appetite.
                let hot = (0..plans.len())
                    .filter(|&i| {
                        plans[i].pressure > arbiter.pressure_threshold
                            && plans[i].granted_units < self.cfg.deployments[i].expansion_units
                    })
                    .max_by(|&a, &b| {
                        plans[a]
                            .pressure
                            .partial_cmp(&plans[b].pressure)
                            .expect("pressures are finite")
                            .then(b.cmp(&a)) // deterministic tie-break: lowest index
                    });
                let Some(hot) = hot else { break };
                // Coldest deployment holding a reclaimable unit.
                let cold = (0..plans.len())
                    .filter(|&i| {
                        i != hot && plans[i].pressure < cold_cutoff && plans[i].granted_units > 0
                    })
                    .min_by(|&a, &b| {
                        plans[a]
                            .pressure
                            .partial_cmp(&plans[b].pressure)
                            .expect("pressures are finite")
                            .then(a.cmp(&b))
                    });
                let Some(cold) = cold else { break };

                // Reclaim one unit from the cold deployment.
                let cold_unit = plans[cold].unit_gpus;
                ledger.apply(
                    SimTime::ZERO,
                    cold,
                    &mut plans[cold].leased,
                    LeaseAction::Reclaimed,
                    cold_unit,
                )?;
                plans[cold].granted_units -= 1;

                let hot_unit = plans[hot].unit_gpus;
                if hot_unit > ledger.free {
                    // The freed unit is too small for the hot deployment's
                    // unit shape; leave it in the pool.
                    continue;
                }
                ledger.apply(
                    SimTime::ZERO,
                    hot,
                    &mut plans[hot].leased,
                    LeaseAction::Granted,
                    hot_unit,
                )?;
                plans[hot].granted_units += 1;
            }
        }
        Ok(plans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fleet() -> FleetConfig {
        let mut chat = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        chat.topology = Topology::a800_testbed();
        FleetConfig {
            topology: Topology::a800_testbed(),
            seed: 11,
            arbiter: None,
            deployments: vec![
                DeploymentConfig {
                    name: "a".into(),
                    serve: chat.clone(),
                    expansion_units: 0,
                    tenants: vec![TenantSpec::new("t-a", "fixed:64:8", 8.0, 30)],
                },
                DeploymentConfig {
                    name: "b".into(),
                    serve: chat,
                    expansion_units: 0,
                    tenants: vec![TenantSpec::new("t-b", "fixed:64:8", 4.0, 20)],
                },
            ],
        }
    }

    #[test]
    fn two_deployments_share_the_pool_and_balance() {
        let (report, _) = tiny_fleet().build().unwrap().run(1).unwrap();
        assert_eq!(report.deployments.len(), 2);
        assert_eq!(report.tenants.len(), 2);
        assert!(report.pool.balanced);
        assert_eq!(report.pool.granted_gpus, 8);
        assert_eq!(report.pool.returned_gpus, 8);
        // Every tenant completed its workload.
        assert_eq!(report.tenants[0].summary.completed, 30);
        assert_eq!(report.tenants[1].summary.completed, 20);
    }

    #[test]
    fn report_is_identical_across_job_counts() {
        let fleet = tiny_fleet().build().unwrap();
        let seq = fleet.run(1).unwrap();
        let par = fleet.run(4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn routing_assigns_dense_tenant_ids() {
        let cfg = tiny_fleet();
        let routes = cfg.tenant_routing();
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].tenant, TenantId(0));
        assert_eq!(routes[0].deployment, 0);
        assert_eq!(routes[1].tenant, TenantId(1));
        assert_eq!(routes[1].deployment, 1);
    }

    #[test]
    fn oversubscribed_fleet_is_rejected() {
        // Two 4-GPU base placements + a third do not fit 8 GPUs.
        let third = DeploymentConfig {
            name: "c".into(),
            serve: ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
            expansion_units: 0,
            tenants: vec![TenantSpec::new("t-c", "sharegpt", 1.0, 5)],
        };
        let mut cfg = tiny_fleet();
        cfg.deployments.push(third);
        let err = cfg.build().unwrap_err();
        assert!(matches!(err, Error::Fleet { .. }));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let dup = DeploymentConfig {
            name: "a".into(),
            serve: ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
            expansion_units: 0,
            tenants: vec![TenantSpec::new("t-z", "sharegpt", 1.0, 5)],
        };
        let err = FleetConfig {
            topology: Topology::a800_multi_node(2),
            deployments: vec![
                DeploymentConfig {
                    name: "a".into(),
                    serve: ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
                    expansion_units: 0,
                    tenants: vec![TenantSpec::new("t-a", "sharegpt", 1.0, 5)],
                },
                dup,
            ],
            arbiter: None,
            seed: 0,
        }
        .build()
        .unwrap_err();
        assert!(err.to_string().contains("duplicate deployment name"));
    }

    #[test]
    fn arbiter_moves_units_from_cold_to_hot() {
        // 16-GPU pool; two 4-GPU deployments, each with appetite for two
        // 4-GPU units. After the base leases, round-robin grants each
        // deployment one unit, which fills the pool. The cold deployment's
        // (`b`'s) unit is then reclaimed and granted to the hot one (`a`),
        // which ends on 12 GPUs (its base and both units) while `b` is back
        // on its base 4.
        let mut cfg = FleetConfig {
            topology: Topology::a800_multi_node(2),
            arbiter: Some(ArbiterConfig {
                // The hot deployment (fixed:64:8 at 8 req/s over 4 GPUs =
                // 144 tokens/s/GPU) sits above 100; the cold one (~72)
                // sits below 100 * 0.9 = 90.
                pressure_threshold: 100.0,
                reclaim_fraction: 0.9,
                max_rebalances: 4,
            }),
            ..tiny_fleet()
        };
        for d in &mut cfg.deployments {
            d.expansion_units = 2;
        }
        let fleet = cfg.build().unwrap();
        let (report, log) = fleet.run(1).unwrap();
        let actions: Vec<LeaseAction> = log
            .lease_events()
            .iter()
            .map(|(_, _, action, _)| *action)
            .collect();
        assert!(actions.contains(&LeaseAction::Reclaimed), "{actions:?}");
        // Lease conservation: grants == reclaims + returns, in GPUs.
        let moved = |want: LeaseAction| -> u64 {
            log.lease_events()
                .iter()
                .filter(|(_, _, action, _)| *action == want)
                .map(|(_, _, _, gpus)| u64::from(*gpus))
                .sum()
        };
        assert_eq!(
            moved(LeaseAction::Granted),
            moved(LeaseAction::Reclaimed) + moved(LeaseAction::Returned),
        );
        assert!(report.pool.balanced);
        // The hot deployment ends with at least as many units as the cold.
        assert!(report.deployments[0].granted_units >= report.deployments[1].granted_units);
    }

    #[test]
    fn ledger_refuses_a_grant_past_the_free_count() {
        let mut ledger = Ledger::new(8);
        let mut leased = 0;
        ledger
            .apply(SimTime::ZERO, 0, &mut leased, LeaseAction::Granted, 6)
            .unwrap();
        let err = ledger
            .apply(SimTime::ZERO, 0, &mut leased, LeaseAction::Granted, 3)
            .unwrap_err();
        assert!(matches!(err, Error::Fleet { .. }), "{err}");
        // The refused grant leaves no trace.
        assert_eq!((ledger.free, leased), (2, 6));
        assert_eq!(ledger.pool.granted_gpus, 6);
        assert_eq!(ledger.events.len(), 1);
    }

    #[test]
    fn ledger_balances_over_a_full_cycle() {
        let mut ledger = Ledger::new(16);
        let mut leases = [0; 4];
        for (ix, gpus) in [4, 2, 6, 1].into_iter().enumerate() {
            let (at, action) = (SimTime::ZERO, LeaseAction::Granted);
            ledger.apply(at, ix, &mut leases[ix], action, gpus).unwrap();
        }
        assert_eq!((ledger.free, ledger.pool.granted_gpus), (3, 13));
        ledger
            .apply(SimTime::ZERO, 2, &mut leases[2], LeaseAction::Reclaimed, 2)
            .unwrap();
        for (ix, lease) in leases.iter_mut().enumerate() {
            let gpus = *lease;
            ledger
                .apply(SimTime::ZERO, ix, lease, LeaseAction::Returned, gpus)
                .unwrap();
        }
        assert_eq!(leases, [0; 4]);
        assert_eq!(ledger.free, 16);
        assert_eq!(ledger.pool.returned_gpus, 13);
        // Each event carries the lease and pool after its movement.
        let last = ledger.events.last().unwrap();
        assert!(matches!(
            last.event,
            TraceEvent::FleetLease {
                deployment: 3,
                gpus: 1,
                lease_after: 0,
                pool_free: 16,
                ..
            }
        ));
    }

    #[test]
    fn example_fleet_config_round_trips_through_toml() {
        let cfg = FleetConfig::example();
        let text = cfg.to_toml();
        let back = FleetConfig::from_toml(&text).unwrap();
        assert_eq!(back, cfg);
    }

    const PARTIAL_FLEET: &str = r#"
seed = 3
[[deployments]]
name = "solo"
expansion_units = 0
[deployments.serve]
prefill_replicas = 1
decode_replicas = 1
[[deployments.tenants]]
name = "t0"
dataset = "fixed:32:4"
rate = 2.0
requests = 10
tier = 0
"#;

    /// Loads `text` as a fleet file, returning the ignored keys.
    fn load_fleet(text: &str) -> (FleetConfig, Vec<String>) {
        configfile::load(text, "fleet config file", with_defaults).unwrap()
    }

    #[test]
    fn removed_serve_keys_in_a_fleet_file_load_and_are_reported_by_path() {
        let with = PARTIAL_FLEET.replace(
            "decode_replicas = 1\n",
            "decode_replicas = 1\nchunk_tokens = 256\n",
        );
        let (cfg, ignored) = load_fleet(&with);
        assert_eq!(ignored, ["deployments[0].serve.chunk_tokens"]);
        assert_eq!(cfg, FleetConfig::from_toml(PARTIAL_FLEET).unwrap());
        assert!(load_fleet(PARTIAL_FLEET).1.is_empty());
        // The emitted example reports nothing.
        assert!(load_fleet(&FleetConfig::example().to_toml()).1.is_empty());
    }

    #[test]
    fn partial_fleet_toml_inherits_serve_defaults() {
        let text = PARTIAL_FLEET;
        let cfg = FleetConfig::from_toml(text).unwrap();
        assert_eq!(cfg.deployments.len(), 1);
        let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        assert_eq!(cfg.deployments[0].serve.model, base.model);
        let (report, _) = cfg.build().unwrap().run(2).unwrap();
        assert_eq!(report.tenants[0].summary.completed, 10);
    }
}
