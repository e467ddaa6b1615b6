//! The batch-level roofline cost model.
//!
//! [`CostModel`] prices a [`BatchPlan`] on a concrete (model, GPU,
//! parallelism) triple, producing the two roofline legs ([`KernelCost`])
//! that the stream-contention model consumes. It is the simulator's ground
//! truth for step durations, and it reproduces the paper's qualitative
//! regime split: prefill is compute-bound (time governed by
//! `8NH² + 4N²H + 16NH²` FLOPs, Eq. 1) while decode is I/O-bound (time
//! governed by `24H² + 4ΣL·H` bytes, Eq. 2).

use crate::batch::BatchPlan;
use crate::flops;
use crate::parallel::Parallelism;
use crate::spec::ModelSpec;
use windserve_gpu::{GpuSpec, KernelCost};
use windserve_sim::SimDuration;

/// Table 1's terms, summed over every layer and the LM head, per unit of
/// each of a [`BatchPlan`]'s five sums. Both roofline totals of a
/// non-empty plan are exactly linear in those sums, so every step is
/// priced with a few integer multiply-adds.
#[derive(Debug, Clone, PartialEq)]
struct Coefficients {
    /// FLOPs per new token: its projections and FFN in every layer, plus
    /// the LM head.
    flops_per_token: u64,
    /// Attention-score FLOPs per (query token, context token) pair: `4H`
    /// per layer. Prices Σ new·context and ΣL.
    flops_per_score: u64,
    /// Bytes every non-empty pass streams: each layer's weights once, plus
    /// the LM head.
    io_fixed: u64,
    /// KV bytes per context token read or written, over every layer.
    /// Prices Σ prefill context and, per decode job, ΣL + B.
    io_per_kv: u64,
    /// Activation bytes per new token, over every layer.
    io_per_token: u64,
}

impl Coefficients {
    fn of(model: &ModelSpec) -> Self {
        let layers = u64::from(model.n_layers);
        let head = 2 * u64::from(model.vocab) * u64::from(model.hidden);
        let projections = flops::attn_flops(model, 1, 0) + flops::ffn_flops(model, 1);
        Coefficients {
            flops_per_token: projections * layers + head,
            flops_per_score: (flops::attn_flops(model, 1, 1) - flops::attn_flops(model, 1, 0))
                * layers,
            io_fixed: flops::layer_weight_io(model) * layers + head,
            io_per_kv: flops::layer_kv_io(model, 1, 0) * layers,
            io_per_token: flops::layer_activation_io(model, 1) * layers,
        }
    }

    /// `(FLOPs, HBM bytes)` of one forward pass over a non-empty `plan`.
    fn totals(&self, plan: &BatchPlan) -> (u64, u64) {
        let tokens = plan.prefill_new + plan.decode_batch;
        let flops = self.flops_per_token * tokens
            + self.flops_per_score * (plan.prefill_cross + plan.decode_sum_l);
        let io = self.io_fixed
            + self.io_per_kv * (plan.prefill_ctx + plan.decode_sum_l + plan.decode_batch)
            + self.io_per_token * tokens;
        (flops, io)
    }
}

/// Prices batches for one serving instance.
///
/// # Examples
///
/// ```
/// use windserve_model::{BatchPlan, CostModel, ModelSpec, Parallelism};
/// use windserve_gpu::GpuSpec;
///
/// let cost = CostModel::new(ModelSpec::opt_13b(), GpuSpec::a800_80gb(),
///                           Parallelism::tp(2)).unwrap();
/// let prefill = cost.step_time(&BatchPlan::single_prefill(768));
/// let decode = cost.step_time(&BatchPlan::decode_only(vec![768; 16]));
/// assert!(prefill > decode); // prefill dominates a single decode step
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    model: ModelSpec,
    gpu: GpuSpec,
    parallelism: Parallelism,
    /// Fixed per-step overhead (kernel launches, scheduler, sampling).
    pub step_overhead: SimDuration,
    /// Per-GPU bytes reserved for activations and scratch buffers; the
    /// paper's §4 notes WindServe pre-allocates these at engine init.
    pub activation_reserve_bytes: u64,
    /// Computed from `model` at construction.
    coefficients: Coefficients,
}

impl CostModel {
    /// Builds a cost model, checking that the weights actually fit on the
    /// placement.
    ///
    /// # Errors
    ///
    /// Returns an error if any component fails validation or
    /// [`Error::DoesNotFit`](crate::Error::DoesNotFit) if the model's
    /// weights plus reserve exceed the placement's aggregate memory.
    pub fn new(model: ModelSpec, gpu: GpuSpec, parallelism: Parallelism) -> crate::Result<Self> {
        model.validate()?;
        gpu.validate()?;
        let cm = CostModel {
            coefficients: Coefficients::of(&model),
            model,
            gpu,
            parallelism,
            step_overhead: SimDuration::from_micros(500),
            activation_reserve_bytes: 4 * windserve_gpu::GIB,
        };
        if cm.kv_capacity_bytes() == 0 {
            return Err(crate::Error::DoesNotFit {
                model: cm.model.name.clone(),
                gpu: cm.gpu.name.clone(),
                n_gpus: parallelism.n_gpus(),
            });
        }
        Ok(cm)
    }

    /// The model being served.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The instance placement.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Weight bytes resident on each GPU.
    fn weight_bytes_per_gpu(&self) -> u64 {
        self.model.weight_bytes() / self.parallelism.n_gpus() as u64
    }

    /// Total bytes available for KV cache across the whole instance.
    pub fn kv_capacity_bytes(&self) -> u64 {
        let per_gpu = self
            .gpu
            .memory_bytes
            .saturating_sub(self.weight_bytes_per_gpu())
            .saturating_sub(self.activation_reserve_bytes);
        per_gpu * self.parallelism.n_gpus() as u64
    }

    /// Number of tokens whose KV fits in the instance.
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.kv_capacity_bytes() / self.model.kv_bytes_per_token()
    }

    /// The two roofline legs of executing `plan`, after dividing work across
    /// the tensor-parallel group. Pipeline parallelism does not shorten a
    /// single pass (stages are sequential); it adds concurrent lanes, which
    /// the engine models separately.
    pub fn kernel_cost(&self, plan: &BatchPlan) -> KernelCost {
        if plan.is_empty() {
            return KernelCost::ZERO;
        }
        let (flops, io_bytes) = self.coefficients.totals(plan);
        self.kernel_of_totals(flops, io_bytes)
    }

    /// The two roofline legs of a pure-decode step of `batch` jobs whose
    /// contexts sum to `sum_l`: [`Self::kernel_cost`] of any such plan.
    ///
    /// # Panics
    ///
    /// Panics if `sum_l` is below `batch` (every decode context is at
    /// least one token).
    pub fn decode_kernel_cost(&self, batch: u64, sum_l: u64) -> KernelCost {
        let mut plan = BatchPlan::new();
        plan.add_decodes(batch, sum_l);
        self.kernel_cost(&plan)
    }

    /// The two roofline legs for `flops` and `io_bytes` of total work.
    fn kernel_of_totals(&self, flops: u64, io_bytes: u64) -> KernelCost {
        let tp = f64::from(self.parallelism.tp);
        let compute =
            flops as f64 / (self.gpu.effective_flops() * tp * self.parallelism.tp_efficiency());
        let io = io_bytes as f64 / (self.gpu.effective_bandwidth() * tp);
        let overhead = self.step_overhead.as_secs_f64();
        KernelCost::new(compute + overhead, io + overhead)
    }

    /// Wall-clock duration of `plan` when it has the instance to itself.
    pub fn step_time(&self, plan: &BatchPlan) -> SimDuration {
        SimDuration::from_secs_f64(self.kernel_cost(plan).alone_secs())
    }

    /// Wall-clock duration of a *hybrid* step executed in a single stream
    /// (vLLM-style regular batching, or SARATHI chunked prefill). The
    /// prefill-part and decode-part run as distinct kernels back-to-back, so
    /// their standalone times add — this serialization is exactly the
    /// prefill–decode interference that stream-based disaggregation removes
    /// (Fig. 7/8).
    pub fn hybrid_step_time(&self, plan: &BatchPlan) -> SimDuration {
        let (prefill, decode) = plan.split_phases();
        match (prefill.is_empty(), decode.is_empty()) {
            (true, true) => SimDuration::ZERO,
            (false, true) => self.step_time(&prefill),
            (true, false) => self.step_time(&decode),
            (false, false) => {
                // One shared launch overhead, not two.
                self.step_time(&prefill) + self.step_time(&decode) - self.step_overhead
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PrefillChunk;
    use proptest::prelude::*;

    /// Reference walk: total FLOPs of one forward pass over `chunks` and
    /// decode contexts `contexts`, summed job by job.
    fn total_flops(cm: &CostModel, chunks: &[PrefillChunk], contexts: &[u32]) -> u64 {
        let model = &cm.model;
        let layers = u64::from(model.n_layers);
        let mut per_layer = 0u64;
        for chunk in chunks {
            per_layer += flops::attn_flops(
                model,
                u64::from(chunk.new_tokens),
                u64::from(chunk.total_context()),
            );
            per_layer += flops::ffn_flops(model, u64::from(chunk.new_tokens));
        }
        for &ctx in contexts {
            per_layer += flops::attn_flops(model, 1, u64::from(ctx));
            per_layer += flops::ffn_flops(model, 1);
        }
        // LM head over every new token.
        let new_tokens: u64 =
            chunks.iter().map(|c| u64::from(c.new_tokens)).sum::<u64>() + contexts.len() as u64;
        let head = 2 * new_tokens * u64::from(model.vocab) * u64::from(model.hidden);
        per_layer * layers + head
    }

    /// Reference walk: total HBM bytes one forward pass streams.
    fn total_io_bytes(cm: &CostModel, chunks: &[PrefillChunk], contexts: &[u32]) -> u64 {
        if chunks.is_empty() && contexts.is_empty() {
            return 0;
        }
        let model = &cm.model;
        let layers = u64::from(model.n_layers);
        // Weights are read once per pass regardless of batch size — this is
        // exactly why batching amortizes decode I/O (§2.1).
        let weights = flops::layer_weight_io(model) * layers;
        let mut kv_and_act = 0u64;
        for chunk in chunks {
            // FlashAttention keeps the chunk's own KV in SRAM; it reads back
            // past chunks' KV and writes the new KV.
            kv_and_act += flops::layer_kv_io(
                model,
                u64::from(chunk.new_tokens),
                u64::from(chunk.past_tokens),
            ) * layers;
            kv_and_act += flops::layer_activation_io(model, u64::from(chunk.new_tokens)) * layers;
        }
        for &ctx in contexts {
            kv_and_act += flops::layer_kv_io(model, 1, u64::from(ctx)) * layers;
            kv_and_act += flops::layer_activation_io(model, 1) * layers;
        }
        let head = 2 * u64::from(model.vocab) * u64::from(model.hidden);
        weights + kv_and_act + head
    }

    /// A plan and the jobs it was built from, for the reference walk.
    fn plan_of(chunks: &[PrefillChunk], contexts: &[u32]) -> BatchPlan {
        let mut plan = BatchPlan::decode_only(contexts.iter().copied());
        for &chunk in chunks {
            plan.add_prefill(chunk);
        }
        plan
    }

    /// [`CostModel::kernel_cost`] priced from the walk's totals.
    fn walk_kernel(cm: &CostModel, chunks: &[PrefillChunk], contexts: &[u32]) -> KernelCost {
        if chunks.is_empty() && contexts.is_empty() {
            return KernelCost::ZERO;
        }
        cm.kernel_of_totals(
            total_flops(cm, chunks, contexts),
            total_io_bytes(cm, chunks, contexts),
        )
    }

    /// [`CostModel::step_time`] priced from the walk's totals.
    fn walk_step_time(cm: &CostModel, chunks: &[PrefillChunk], contexts: &[u32]) -> SimDuration {
        SimDuration::from_secs_f64(walk_kernel(cm, chunks, contexts).alone_secs())
    }

    /// [`CostModel::hybrid_step_time`] priced from the walk's totals.
    fn walk_hybrid_step_time(
        cm: &CostModel,
        chunks: &[PrefillChunk],
        contexts: &[u32],
    ) -> SimDuration {
        let prefill = walk_step_time(cm, chunks, &[]);
        let decode = walk_step_time(cm, &[], contexts);
        match (chunks.is_empty(), contexts.is_empty()) {
            (true, true) => SimDuration::ZERO,
            (false, true) => prefill,
            (true, false) => decode,
            (false, false) => prefill + decode - cm.step_overhead,
        }
    }

    /// Asserts that `cm` prices the plan of `chunks` and `contexts` bit for
    /// bit as the walk does.
    fn assert_prices_like_the_walk(cm: &CostModel, chunks: &[PrefillChunk], contexts: &[u32]) {
        let plan = plan_of(chunks, contexts);
        let what = || format!("{}: {chunks:?} + {} decodes", cm.model.name, contexts.len());
        assert_eq!(
            cm.kernel_cost(&plan),
            walk_kernel(cm, chunks, contexts),
            "{}",
            what()
        );
        assert_eq!(
            cm.step_time(&plan),
            walk_step_time(cm, chunks, contexts),
            "{}",
            what()
        );
        assert_eq!(
            cm.hybrid_step_time(&plan),
            walk_hybrid_step_time(cm, chunks, contexts),
            "{}",
            what()
        );
    }

    /// Every model preset on three placements that hold it.
    fn preset_models() -> Vec<CostModel> {
        let presets = [
            ModelSpec::opt_125m(),
            ModelSpec::opt_13b(),
            ModelSpec::opt_30b(),
            ModelSpec::opt_66b(),
            ModelSpec::llama2_13b(),
            ModelSpec::llama2_70b(),
        ];
        let placements = [
            Parallelism::tp(2),
            Parallelism::new(4, 2),
            Parallelism::tp(8),
        ];
        presets
            .iter()
            .flat_map(|model| {
                placements.map(|par| {
                    CostModel::new(model.clone(), GpuSpec::a800_80gb(), par).expect("fits")
                })
            })
            .collect()
    }

    proptest! {
        /// The closed form prices every plan exactly as the job-by-job walk
        /// of Table 1 does: `kernel_cost`, `step_time` and
        /// `hybrid_step_time` agree bit for bit, for every preset and
        /// placement. Each case also prices its empty, prefill-only and
        /// one-decode plans.
        #[test]
        fn closed_form_prices_like_the_walk(
            chunks in proptest::collection::vec((1u32..4097, 0u32..4097), 0..4),
            contexts in proptest::collection::vec(1u32..8193, 0..301),
        ) {
            let chunks: Vec<PrefillChunk> = chunks
                .into_iter()
                .map(|(new_tokens, past_tokens)| PrefillChunk { new_tokens, past_tokens })
                .collect();
            let prefill_only = [PrefillChunk::whole(contexts.len() as u32 + 1)];
            let one_decode = [contexts.first().copied().unwrap_or(1)];
            for cm in preset_models() {
                assert_prices_like_the_walk(&cm, &chunks, &contexts);
                assert_prices_like_the_walk(&cm, &[], &[]);
                assert_prices_like_the_walk(&cm, &prefill_only, &[]);
                assert_prices_like_the_walk(&cm, &[], &one_decode);
            }
        }
    }

    fn opt13b_tp2() -> CostModel {
        CostModel::new(
            ModelSpec::opt_13b(),
            GpuSpec::a800_80gb(),
            Parallelism::tp(2),
        )
        .unwrap()
    }

    #[test]
    fn prefill_is_compute_bound_decode_is_io_bound() {
        let cm = opt13b_tp2();
        let prefill = cm.kernel_cost(&BatchPlan::single_prefill(768));
        assert!(prefill.compute_secs >= prefill.io_secs);
        let decode = cm.kernel_cost(&BatchPlan::decode_only(vec![768; 16]));
        assert!(decode.compute_secs < decode.io_secs);
    }

    #[test]
    fn prefill_time_is_superlinear_decode_linear_in_context() {
        let cm = opt13b_tp2();
        // Eq. 1: quadratic term visible at large N.
        let t1 = cm.step_time(&BatchPlan::single_prefill(1024)).as_secs_f64();
        let t2 = cm.step_time(&BatchPlan::single_prefill(2048)).as_secs_f64();
        assert!(
            t2 > 1.9 * t1,
            "prefill should scale at least linearly: {t1} -> {t2}"
        );
        // Eq. 2: decode time linear in ΣL at fixed B.
        let d1 = cm
            .step_time(&BatchPlan::decode_only(vec![500; 16]))
            .as_secs_f64();
        let d2 = cm
            .step_time(&BatchPlan::decode_only(vec![1500; 16]))
            .as_secs_f64();
        let d3 = cm
            .step_time(&BatchPlan::decode_only(vec![2500; 16]))
            .as_secs_f64();
        let slope1 = d2 - d1;
        let slope2 = d3 - d2;
        assert!(
            (slope1 / slope2 - 1.0).abs() < 0.05,
            "decode nonlinear: {slope1} vs {slope2}"
        );
    }

    #[test]
    fn decode_step_is_milliseconds_scale() {
        // Sanity against the roofline: OPT-13B TP-2, batch 16 x 768 ctx is
        // dominated by the ~25 GB weight read over 2x effective HBM.
        let cm = opt13b_tp2();
        let t = cm
            .step_time(&BatchPlan::decode_only(vec![768; 16]))
            .as_secs_f64();
        assert!((0.005..0.050).contains(&t), "decode step {t}s");
    }

    #[test]
    fn prefill_768_is_tens_of_milliseconds() {
        let cm = opt13b_tp2();
        let t = cm.step_time(&BatchPlan::single_prefill(768)).as_secs_f64();
        assert!((0.02..0.2).contains(&t), "prefill {t}s");
    }

    #[test]
    fn batching_amortizes_weight_reads() {
        let cm = opt13b_tp2();
        let single = cm
            .step_time(&BatchPlan::decode_only(vec![768]))
            .as_secs_f64();
        let batch16 = cm
            .step_time(&BatchPlan::decode_only(vec![768; 16]))
            .as_secs_f64();
        // 16x the work at far less than 16x the time.
        assert!(batch16 < 3.0 * single);
    }

    #[test]
    fn kv_capacity_is_plausible_for_opt13b() {
        let cm = opt13b_tp2();
        let tokens = cm.kv_capacity_tokens();
        // 2 x 80 GiB minus ~26 GiB weights minus reserve, at ~0.78 MiB/token.
        assert!((120_000..220_000).contains(&tokens), "got {tokens}");
    }

    #[test]
    fn oversized_model_is_rejected() {
        let err = CostModel::new(
            ModelSpec::llama2_70b(),
            GpuSpec::rtx_4090(),
            Parallelism::tp(1),
        );
        assert!(err.is_err());
    }

    #[test]
    fn llama70b_fits_on_tp2_pp2() {
        let cm = CostModel::new(
            ModelSpec::llama2_70b(),
            GpuSpec::a800_80gb(),
            Parallelism::new(2, 2),
        )
        .unwrap();
        assert!(cm.kv_capacity_tokens() > 50_000);
    }

    fn chunked_prefill_total(cm: &CostModel, n: u32, chunk: u32) -> f64 {
        let mut total = 0.0;
        let mut past = 0;
        while past < n {
            let step = chunk.min(n - past);
            let mut plan = BatchPlan::new();
            plan.add_prefill(PrefillChunk {
                new_tokens: step,
                past_tokens: past,
            });
            // Each chunk rides along with a decode batch, as in SARATHI.
            for _ in 0..16 {
                plan.add_decode(2048);
            }
            total += cm.hybrid_step_time(&plan).as_secs_f64();
            past += step;
        }
        total
    }

    #[test]
    fn chunked_prefill_is_slower_and_worsens_with_smaller_chunks() {
        // §3.4 example: LLaMA2-70B, 2048-token prefill, chunk 512 makes the
        // prefill substantially slower than one-shot, and shrinking the
        // chunk makes it worse ("reducing the chunk size ... further
        // increases the prefill cost").
        let cm = CostModel::new(
            ModelSpec::llama2_70b(),
            GpuSpec::a800_80gb(),
            Parallelism::new(2, 2),
        )
        .unwrap();
        let mono = cm.step_time(&BatchPlan::single_prefill(2048)).as_secs_f64();
        let c512 = chunked_prefill_total(&cm, 2048, 512);
        let c128 = chunked_prefill_total(&cm, 2048, 128);
        assert!(c512 > 1.15 * mono, "chunked {c512} vs mono {mono}");
        assert!(
            c128 > c512,
            "smaller chunks must cost more: {c128} vs {c512}"
        );
    }

    #[test]
    fn hybrid_step_serializes_phases() {
        let cm = opt13b_tp2();
        let mut plan = BatchPlan::new();
        plan.add_prefill(PrefillChunk::whole(512));
        for _ in 0..16 {
            plan.add_decode(1024);
        }
        let (p, d) = plan.split_phases();
        let hybrid = cm.hybrid_step_time(&plan).as_secs_f64();
        let parts = cm.step_time(&p).as_secs_f64() + cm.step_time(&d).as_secs_f64();
        assert!((hybrid - parts).abs() < 0.001);
        // ... and is never cheaper than the perfectly-fused lower bound.
        assert!(hybrid >= cm.step_time(&plan).as_secs_f64() - 1e-9);
    }

    #[test]
    fn empty_plan_costs_nothing() {
        let cm = opt13b_tp2();
        assert_eq!(cm.kernel_cost(&BatchPlan::new()), KernelCost::ZERO);
        assert_eq!(cm.step_time(&BatchPlan::new()), SimDuration::ZERO);
    }

    #[test]
    fn fixed_plans_price_like_the_walk() {
        let cm = opt13b_tp2();
        // Decode batches of the same size but very different ΣL, and a
        // continued chunk beside decodes (the cross and context terms).
        let ramp: Vec<u32> = (1..=16).map(|i| i * 37).collect();
        let continued = [PrefillChunk {
            new_tokens: 256,
            past_tokens: 512,
        }];
        let plans: [(&[PrefillChunk], &[u32]); 6] = [
            (&[], &[100; 16]),
            (&[], &[3000; 16]),
            (&[], &ramp),
            (&[PrefillChunk::whole(768)], &[]),
            (&continued, &[64, 900, 2048]),
            (&continued, &[]),
        ];
        for (chunks, contexts) in plans {
            assert_prices_like_the_walk(&cm, chunks, contexts);
        }
    }

    #[test]
    fn decode_kernel_cost_prices_like_the_real_plan() {
        let cm = opt13b_tp2();
        let batches: [&[u32]; 7] = [
            &[1],
            &[100; 16],
            &[101; 16],
            &[3000; 16],
            &[17, 4096, 33, 2048, 1],
            &[18, 4097, 34, 2049, 2],
            &[64, 900, 2048],
        ];
        for contexts in batches {
            let plan = BatchPlan::decode_only(contexts.iter().copied());
            assert_eq!(
                cm.decode_kernel_cost(plan.decode_batch, plan.decode_sum_l),
                cm.kernel_cost(&plan)
            );
        }
        assert_eq!(cm.decode_kernel_cost(0, 0), KernelCost::ZERO);
    }

    #[test]
    fn decode_kernel_cost_ignores_pricing_history() {
        let cm = opt13b_tp2();
        let plan = BatchPlan::decode_only([10u32, 20, 30, 40]);
        let before = cm.decode_kernel_cost(4, 100);
        assert_eq!(before, cm.kernel_cost(&plan));
        // Price many unrelated steps in between: nothing is remembered.
        for n in 1..=600 {
            cm.kernel_cost(&BatchPlan::single_prefill(n));
        }
        assert_eq!(cm.decode_kernel_cost(4, 100), before);
        assert_eq!(cm.decode_kernel_cost(4, 100), cm.kernel_cost(&plan));
        // A fresh model prices the same batch the same way.
        let plan = BatchPlan::decode_only([5u32, 6, 7]);
        assert_eq!(
            opt13b_tp2().decode_kernel_cost(3, 18),
            cm.kernel_cost(&plan)
        );
        assert_eq!(cm.decode_kernel_cost(3, 18), cm.kernel_cost(&plan));
    }

    #[test]
    fn continued_prefill_costs_more_than_fresh() {
        let cm = opt13b_tp2();
        // Same Σnew (512) but different past context → different price.
        let fresh = BatchPlan::single_prefill(512);
        let mut continued = BatchPlan::new();
        continued.add_prefill(PrefillChunk {
            new_tokens: 512,
            past_tokens: 1536,
        });
        let a = cm.step_time(&fresh);
        let b = cm.step_time(&continued);
        assert!(b > a, "continuation reads more KV: {a:?} vs {b:?}");
    }

    #[test]
    fn clone_prices_identically() {
        let cm = opt13b_tp2();
        let plan = BatchPlan::decode_only(vec![768; 16]);
        let t = cm.step_time(&plan);
        let cloned = cm.clone();
        assert_eq!(cloned.step_time(&plan), t);
        assert_eq!(cloned, cm);
    }

    #[test]
    fn tp_speeds_up_prefill() {
        let tp1 = CostModel::new(
            ModelSpec::opt_13b(),
            GpuSpec::a800_80gb(),
            Parallelism::tp(1),
        )
        .unwrap();
        let tp2 = opt13b_tp2();
        let plan = BatchPlan::single_prefill(2048);
        let t1 = tp1.step_time(&plan).as_secs_f64();
        let t2 = tp2.step_time(&plan).as_secs_f64();
        assert!(
            t2 < 0.65 * t1,
            "TP-2 should nearly halve prefill: {t1} -> {t2}"
        );
    }
}
