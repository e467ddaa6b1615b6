//! Fig. 8 microbenchmark: single-forward-pass prefill and decode cost
//! under regular (fused) batching vs stream-based disaggregation, for a
//! hybrid batch of 16 decode requests (context 2048) plus a varying number
//! of prefill tokens — across all four evaluated models.
//!
//! Also reproduces the §3.4 worked example: LLaMA2-70B with a 2048-token
//! prefill, where chunked prefill (chunk 512) costs ~2× the SBD prefill
//! while SBD keeps each decode iteration near its standalone cost.

use crate::harness::{print_table, ExpContext};
use serde_json::{json, Value};
use windserve::{ModelSpec, Parallelism};
use windserve_gpu::{slowdowns, GpuSpec};
use windserve_model::{BatchPlan, CostModel, PrefillChunk};

/// Per-point measurement.
#[derive(Debug, Clone)]
pub(crate) struct SbdPoint {
    /// Model name.
    pub model: String,
    /// Prefill tokens in the hybrid batch.
    pub prefill_tokens: u32,
    /// Decode iteration alone (no prefill), seconds.
    pub decode_alone: f64,
    /// Prefill alone, seconds.
    pub prefill_alone: f64,
    /// Fused (regular batching) step time — both phases serialized.
    pub regular_step: f64,
    /// Decode iteration under SBD, seconds.
    pub sbd_decode: f64,
    /// Prefill completion under SBD, seconds.
    pub sbd_prefill: f64,
}

fn model_cases() -> Vec<(ModelSpec, Parallelism)> {
    vec![
        (ModelSpec::opt_13b(), Parallelism::tp(2)),
        (ModelSpec::opt_66b(), Parallelism::new(2, 2)),
        (ModelSpec::llama2_13b(), Parallelism::tp(2)),
        (ModelSpec::llama2_70b(), Parallelism::new(2, 2)),
    ]
}

/// Measures every (model, prefill size) point analytically.
pub(crate) fn measure() -> Vec<SbdPoint> {
    let mut points = Vec::new();
    for (model, par) in model_cases() {
        let ctx = model.max_context.min(2048);
        let cost =
            CostModel::new(model.clone(), GpuSpec::a800_80gb(), par).expect("paper placements fit");
        let decode = BatchPlan::decode_only(vec![ctx; 16]);
        let kd = cost.kernel_cost(&decode);
        for prefill_tokens in [256u32, 512, 1024, 2048] {
            let prefill = BatchPlan::single_prefill(prefill_tokens);
            let kp = cost.kernel_cost(&prefill);
            let slows = slowdowns(&[kd, kp]);
            let mut fused = decode.clone();
            fused.add_prefill(PrefillChunk::whole(prefill_tokens));
            points.push(SbdPoint {
                model: model.name.clone(),
                prefill_tokens,
                decode_alone: kd.alone_secs(),
                prefill_alone: kp.alone_secs(),
                regular_step: cost.hybrid_step_time(&fused).as_secs_f64(),
                sbd_decode: kd.alone_secs() * slows[0],
                sbd_prefill: kp.alone_secs() * slows[1],
            });
        }
    }
    points
}

/// The §3.4 LLaMA2-70B example: chunked-prefill total vs SBD prefill.
pub(crate) fn llama70b_case_study() -> Value {
    let cost = CostModel::new(
        ModelSpec::llama2_70b(),
        GpuSpec::a800_80gb(),
        Parallelism::new(2, 2),
    )
    .expect("paper placement fits");
    let decode = BatchPlan::decode_only(vec![2048; 16]);
    let kd = cost.kernel_cost(&decode);
    let kp = cost.kernel_cost(&BatchPlan::single_prefill(2048));
    let slows = slowdowns(&[kd, kp]);
    // Chunked prefill: 4 steps of 512 tokens fused with the decode batch.
    let mut chunked_total = 0.0;
    let mut chunked_step = 0.0;
    for i in 0..4 {
        let mut plan = BatchPlan::decode_only(vec![2048; 16]);
        plan.add_prefill(PrefillChunk {
            new_tokens: 512,
            past_tokens: i * 512,
        });
        let t = cost.hybrid_step_time(&plan).as_secs_f64();
        chunked_total += t;
        chunked_step = t;
    }
    json!({
        "decode_alone": kd.alone_secs(),
        "sbd_decode_iteration": kd.alone_secs() * slows[0],
        "sbd_prefill": kp.alone_secs() * slows[1],
        "chunked512_prefill_total": chunked_total,
        "chunked512_step": chunked_step,
    })
}

/// Runs and prints the Fig. 8 microbenchmark.
pub fn run(_ctx: &ExpContext) -> Value {
    let points = measure();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.model.clone(),
                format!("{}", p.prefill_tokens),
                format!("{:.4}", p.decode_alone),
                format!("{:.4}", p.sbd_decode),
                format!("{:.4}", p.regular_step),
                format!("{:.4}", p.prefill_alone),
                format!("{:.4}", p.sbd_prefill),
            ]
        })
        .collect();
    print_table(
        "Fig 8: single forward pass, Regular vs SBD (16 decodes @ ctx 2048)",
        &[
            "model",
            "prefill N",
            "decode alone",
            "decode SBD",
            "regular step",
            "prefill alone",
            "prefill SBD",
        ],
        &rows,
    );
    let case = llama70b_case_study();
    println!("\n§3.4 LLaMA2-70B case study: {case}");
    json!({
        "points": points.iter().map(|p| json!({
            "model": p.model,
            "prefill_tokens": p.prefill_tokens,
            "decode_alone": p.decode_alone,
            "sbd_decode": p.sbd_decode,
            "regular_step": p.regular_step,
            "prefill_alone": p.prefill_alone,
            "sbd_prefill": p.sbd_prefill,
        })).collect::<Vec<_>>(),
        "llama70b_case_study": case,
    })
}
