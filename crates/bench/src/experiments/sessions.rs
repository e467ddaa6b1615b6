//! Multi-turn session study: prefix-cache-aware scheduling.
//!
//! The paper's evaluation is single-shot; chat traffic is not. This
//! experiment replays one seeded [`SessionsScenario`] trace — multi-turn
//! conversations whose follow-up prompts embed the prior turn's full
//! context — through three systems: WindServe with prefix-affinity
//! routing (follow-ups go to the instance holding their session's KV),
//! WindServe with the cache on but affinity off (hits only by luck), and
//! a plain DistServe baseline with no cache at all. Affinity should
//! convert the shared prefixes into skipped prefill work and therefore
//! goodput; the run asserts it at least ties the affinity-off arm.

use crate::harness::{parallel_map, print_table, ExpContext};
use serde_json::{json, Value};
use windserve::{Cluster, PrefixCacheConfig, ServeConfig, SystemKind};
use windserve_gpu::Topology;
use windserve_workload::{Scenario, SessionsScenario};

const HEADERS: [&str; 8] = [
    "scenario",
    "goodput",
    "TTFT p99",
    "TPOT p99",
    "SLO both",
    "hit rate",
    "cached tok",
    "evict",
];

/// One arm of the study: a system kind plus an optional prefix cache.
#[derive(Clone, Copy)]
struct Arm {
    label: &'static str,
    kind: SystemKind,
    cache: Option<PrefixCacheConfig>,
}

/// Runs the multi-turn sessions comparison.
pub fn run(ctx: &ExpContext) -> Value {
    let seed = 0x5E55;
    let scenario = SessionsScenario::builder()
        .sessions(ctx.scale(600))
        .session_rate(40.0)
        .turns(2, 6)
        .mean_think_secs(20.0)
        .followup_tokens(16, 192)
        .build()
        .expect("experiment scenario must be valid");
    let trace = Scenario::sessions(scenario)
        .generate(seed)
        .expect("experiment scenario must generate");
    let n = trace.requests().len();
    let arms = [
        Arm {
            label: "WindServe + affinity",
            kind: SystemKind::WindServe,
            cache: Some(PrefixCacheConfig::default()),
        },
        Arm {
            label: "WindServe cache-only",
            kind: SystemKind::WindServe,
            cache: Some(PrefixCacheConfig {
                affinity: false,
                ..Default::default()
            }),
        },
        Arm {
            label: "DistServe (no cache)",
            kind: SystemKind::DistServe,
            cache: None,
        },
    ];
    let reports = parallel_map(ctx.jobs, arms.to_vec(), |arm| {
        // Several prefill replicas (two A800 nodes), so load-based routing
        // alone rarely lands a follow-up on the instance retaining its
        // session's KV.
        let cfg = ServeConfig {
            topology: Topology::a800_multi_node(2),
            prefill_replicas: 4,
            decode_replicas: 4,
            prefix_cache: arm.cache,
            ..ServeConfig::opt_13b_sharegpt(arm.kind)
        };
        Cluster::new(cfg)
            .expect("experiment config must be valid")
            .run(&trace)
            .expect("sessions run must drain")
            .0
    });
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (arm, report) in arms.iter().zip(&reports) {
        assert_eq!(
            report.summary.completed + report.dropped.len(),
            n,
            "{}: requests unaccounted for",
            arm.label
        );
        rows.push(vec![
            arm.label.to_string(),
            format!("{:.3}", report.goodput()),
            format!("{:.3}", report.summary.ttft.p99),
            format!("{:.4}", report.summary.tpot.p99),
            format!("{:.3}", report.summary.slo.both),
            format!("{:.1}%", report.prefix_hit_rate() * 100.0),
            format!("{}", report.prefix_cached_tokens),
            format!("{}", report.prefix_evictions),
        ]);
        data.push(json!({
            "label": arm.label,
            "system": format!("{:?}", arm.kind),
            "affinity": arm.cache.map(|c| c.affinity).unwrap_or(false),
            "cached": arm.cache.is_some(),
            "goodput": report.goodput(),
            "ttft_p99": report.summary.ttft.p99,
            "tpot_p99": report.summary.tpot.p99,
            "slo_both": report.summary.slo.both,
            "completed": report.summary.completed,
            "prefix_hits": report.prefix_hits,
            "prefix_misses": report.prefix_misses,
            "prefix_hit_rate": report.prefix_hit_rate(),
            "prefix_cached_tokens": report.prefix_cached_tokens,
            "prefix_evictions": report.prefix_evictions,
        }));
    }
    let affinity = &reports[0];
    let no_affinity = &reports[1];
    assert!(
        affinity.prefix_hits > 0,
        "affinity arm must actually hit the prefix cache"
    );
    assert!(
        affinity.prefix_hit_rate() > no_affinity.prefix_hit_rate(),
        "affinity must raise the prefix hit rate: {} <= {}",
        affinity.prefix_hit_rate(),
        no_affinity.prefix_hit_rate()
    );
    // Goodput gets a small noise margin: short --quick traces can tie
    // within scheduling jitter even when the hit rate clearly separates.
    assert!(
        affinity.goodput() >= no_affinity.goodput() * 0.995,
        "prefix affinity must not lose goodput: {} < {}",
        affinity.goodput(),
        no_affinity.goodput()
    );
    print_table(
        "Sessions: multi-turn chat with prefix-cache-aware scheduling \
         (OPT-13B, ShareGPT first turns; follow-ups re-send the prior context)",
        &HEADERS,
        &rows,
    );
    println!(
        "(affinity routes follow-ups to the instance retaining their session KV, \
         so prefill is charged only for the fresh suffix)"
    );
    Value::Array(data)
}
