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
use std::cell::RefCell;
use windserve_gpu::{GpuSpec, KernelCost};
use windserve_sim::hash::FxHashMap;
use windserve_sim::SimDuration;

/// Compact signature of everything in a [`BatchPlan`] that the roofline
/// totals depend on *besides* the decode context-length sum ΣL.
///
/// Both totals are exactly affine in ΣL once these four numbers are fixed
/// (Table 1 / Eq. 2: the only ΣL terms are `4·ΣL·H` FLOPs and
/// `kv_dim·ΣL·dtype` KV bytes per layer), so the cache stores the affine
/// *base* (the totals evaluated at ΣL = 0) and reconstructs exact totals
/// as `base + slope·ΣL` in integer arithmetic. No quantization is
/// involved: a cache hit returns bit-identical totals to the uncached
/// loops, so cached and uncached runs report identical latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanSig {
    /// Σ over prefill chunks of `new_tokens`.
    prefill_new: u64,
    /// Σ over prefill chunks of `new_tokens · total_context` (the N²-ish
    /// attention-score term; distinguishes chunkings with equal Σnew).
    prefill_cross: u64,
    /// Σ over prefill chunks of `total_context` (KV read+write volume).
    prefill_ctx: u64,
    /// Decode batch size B.
    decode_batch: u64,
}

impl PlanSig {
    fn of(plan: &BatchPlan) -> Self {
        let mut prefill_new = 0u64;
        let mut prefill_cross = 0u64;
        let mut prefill_ctx = 0u64;
        for chunk in plan.prefill_chunks() {
            let new = u64::from(chunk.new_tokens);
            let ctx = u64::from(chunk.total_context());
            prefill_new += new;
            prefill_cross += new * ctx;
            prefill_ctx += ctx;
        }
        PlanSig {
            prefill_new,
            prefill_cross,
            prefill_ctx,
            decode_batch: plan.decode_batch(),
        }
    }
}

/// Hit/miss counters of a [`CostModel`]'s step-time cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that priced the plan from first principles.
    pub misses: u64,
}

impl StepCacheStats {
    /// Hits as a fraction of all lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bound on distinct plan signatures retained; decode-heavy workloads use
/// a handful, so this is a backstop against pathological prefill mixes.
/// Overflow clears the map — only a perf event, never a semantic one.
const STEP_CACHE_CAP: usize = 4096;

#[derive(Debug, Default)]
struct StepCache {
    /// `PlanSig` → (FLOPs, IO bytes) evaluated at ΣL = 0.
    base: FxHashMap<PlanSig, (u64, u64)>,
    stats: StepCacheStats,
    disabled: bool,
    /// Times `base` was cleared, so a [`DecodePricer`] holding an entry
    /// can tell that it is gone.
    clears: u64,
}

/// Prices consecutive pure-decode steps of one batch size through the
/// step cache, by context sum ΣL alone: what [`CostModel::kernel_cost`]
/// returns for any decode-only plan of that batch and ΣL, with the same
/// hit and miss counts, without building the plan.
///
/// Every call counts as one cache lookup. The first finds the batch's
/// entry (or prices a stand-in plan with the same batch and ΣL, which
/// stores it: a decode-only plan's totals depend on its batch size and
/// ΣL alone, so every such plan prices bit-identically); later calls
/// reuse the entry
/// and count a hit, exactly as looking it up again would, until the cache
/// is cleared.
#[derive(Debug)]
pub struct DecodePricer<'a> {
    cost: &'a CostModel,
    sig: PlanSig,
    /// ΣL slopes of the two totals.
    slopes: (u64, u64),
    /// The batch's cached base, once a lookup found it.
    base: Option<(u64, u64)>,
    /// The cache's clear count when `base` was read.
    clears: u64,
}

impl DecodePricer<'_> {
    /// The two roofline legs of the batch at context sum `sum_l`.
    ///
    /// # Panics
    ///
    /// Panics if `sum_l` is below the batch size (every decode context is
    /// at least one token).
    pub fn kernel_cost(&mut self, sum_l: u64) -> KernelCost {
        let batch = self.sig.decode_batch;
        if batch == 0 {
            return KernelCost::ZERO;
        }
        assert!(sum_l >= batch, "decode contexts are at least one token");
        {
            let mut cache = self.cost.cache.borrow_mut();
            if !cache.disabled {
                if self.base.is_none() || self.clears != cache.clears {
                    self.base = cache.base.get(&self.sig).copied();
                    self.clears = cache.clears;
                }
                if let Some((flops_base, io_base)) = self.base {
                    cache.stats.hits += 1;
                    drop(cache);
                    let (flops_slope, io_slope) = self.slopes;
                    return self.cost.kernel_of_totals(
                        flops_base + flops_slope * sum_l,
                        io_base + io_slope * sum_l,
                    );
                }
            }
        }
        // A miss (or the cache is off): price a stand-in plan, spreading
        // ΣL as evenly as possible so every context fits a `u32`.
        let (q, r) = (sum_l / batch, sum_l % batch);
        let mut plan = BatchPlan::new();
        for i in 0..batch {
            let ctx = q + u64::from(i < r);
            plan.add_decode(u32::try_from(ctx).expect("context fits u32"));
        }
        self.cost.kernel_cost(&plan)
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
#[derive(Debug)]
pub struct CostModel {
    model: ModelSpec,
    gpu: GpuSpec,
    parallelism: Parallelism,
    /// Fixed per-step overhead (kernel launches, scheduler, sampling).
    pub step_overhead: SimDuration,
    /// Per-GPU bytes reserved for activations and scratch buffers; the
    /// paper's §4 notes WindServe pre-allocates these at engine init.
    pub activation_reserve_bytes: u64,
    /// Memoized affine bases keyed by [`PlanSig`]; interior-mutable so
    /// pricing stays `&self`. Excluded from `Clone`/`PartialEq` — it is
    /// derived state, never semantics.
    cache: RefCell<StepCache>,
}

impl Clone for CostModel {
    fn clone(&self) -> Self {
        CostModel {
            model: self.model.clone(),
            gpu: self.gpu.clone(),
            parallelism: self.parallelism,
            step_overhead: self.step_overhead,
            activation_reserve_bytes: self.activation_reserve_bytes,
            // Fresh cache: clones price identically, but each instance
            // accounts its own hits/misses.
            cache: RefCell::new(StepCache {
                disabled: self.cache.borrow().disabled,
                ..StepCache::default()
            }),
        }
    }
}

impl PartialEq for CostModel {
    fn eq(&self, other: &Self) -> bool {
        self.model == other.model
            && self.gpu == other.gpu
            && self.parallelism == other.parallelism
            && self.step_overhead == other.step_overhead
            && self.activation_reserve_bytes == other.activation_reserve_bytes
    }
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
            model,
            gpu,
            parallelism,
            step_overhead: SimDuration::from_micros(500),
            activation_reserve_bytes: 4 * windserve_gpu::GIB,
            cache: RefCell::new(StepCache::default()),
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

    /// The GPU type backing the instance.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The instance placement.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Weight bytes resident on each GPU.
    pub fn weight_bytes_per_gpu(&self) -> u64 {
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

    /// Total FLOPs of one forward pass over `plan`.
    pub fn total_flops(&self, plan: &BatchPlan) -> u64 {
        let layers = u64::from(self.model.n_layers);
        let mut per_layer = 0u64;
        for chunk in plan.prefill_chunks() {
            per_layer += flops::attn_flops(
                &self.model,
                u64::from(chunk.new_tokens),
                u64::from(chunk.total_context()),
            );
            per_layer += flops::ffn_flops(&self.model, u64::from(chunk.new_tokens));
        }
        for &ctx in plan.decode_contexts() {
            per_layer += flops::attn_flops(&self.model, 1, u64::from(ctx));
            per_layer += flops::ffn_flops(&self.model, 1);
        }
        // LM head over every new token.
        let head =
            2 * plan.new_tokens() * u64::from(self.model.vocab) * u64::from(self.model.hidden);
        per_layer * layers + head
    }

    /// Total HBM bytes one forward pass over `plan` streams.
    pub fn total_io_bytes(&self, plan: &BatchPlan) -> u64 {
        if plan.is_empty() {
            return 0;
        }
        let layers = u64::from(self.model.n_layers);
        // Weights are read once per pass regardless of batch size — this is
        // exactly why batching amortizes decode I/O (§2.1).
        let weights = flops::layer_weight_io(&self.model) * layers;
        let mut kv_and_act = 0u64;
        for chunk in plan.prefill_chunks() {
            // FlashAttention keeps the chunk's own KV in SRAM; it reads back
            // past chunks' KV and writes the new KV.
            kv_and_act += flops::layer_kv_io(
                &self.model,
                u64::from(chunk.new_tokens),
                u64::from(chunk.past_tokens),
            ) * layers;
            kv_and_act +=
                flops::layer_activation_io(&self.model, u64::from(chunk.new_tokens)) * layers;
        }
        for &ctx in plan.decode_contexts() {
            kv_and_act += flops::layer_kv_io(&self.model, 1, u64::from(ctx)) * layers;
            kv_and_act += flops::layer_activation_io(&self.model, 1) * layers;
        }
        let head = 2 * u64::from(self.model.vocab) * u64::from(self.model.hidden);
        weights + kv_and_act + head
    }

    /// Per-layer ΣL slopes of the two totals: each decode context token
    /// adds `4H` attention-score FLOPs and one KV-cache read of
    /// `kv_dim · dtype` bytes per layer (Table 1's only ΣL terms).
    fn sum_l_slopes(&self) -> (u64, u64) {
        let layers = u64::from(self.model.n_layers);
        let flops_slope = 4 * u64::from(self.model.hidden) * layers;
        let io_slope = self.model.kv_dim() * u64::from(self.model.dtype_bytes) * layers;
        (flops_slope, io_slope)
    }

    /// `(total_flops, total_io_bytes)` of `plan`, memoized on [`PlanSig`].
    ///
    /// The cache stores the totals with the ΣL terms subtracted out; hits
    /// add them back with the same integer arithmetic, so the result is
    /// bit-identical to [`Self::total_flops`] / [`Self::total_io_bytes`]
    /// whether or not the lookup hit.
    fn plan_totals(&self, plan: &BatchPlan) -> (u64, u64) {
        let mut cache = self.cache.borrow_mut();
        if cache.disabled {
            return (self.total_flops(plan), self.total_io_bytes(plan));
        }
        let sig = PlanSig::of(plan);
        let sum_l = plan.decode_context_sum();
        let (flops_slope, io_slope) = self.sum_l_slopes();
        if let Some(&(flops_base, io_base)) = cache.base.get(&sig) {
            cache.stats.hits += 1;
            return (flops_base + flops_slope * sum_l, io_base + io_slope * sum_l);
        }
        cache.stats.misses += 1;
        let flops = self.total_flops(plan);
        let io = self.total_io_bytes(plan);
        if cache.base.len() >= STEP_CACHE_CAP {
            cache.base.clear();
            cache.clears += 1;
        }
        cache
            .base
            .insert(sig, (flops - flops_slope * sum_l, io - io_slope * sum_l));
        (flops, io)
    }

    /// Hit/miss counters of the step-time cache since construction (or the
    /// last clone, which starts fresh).
    pub fn step_cache_stats(&self) -> StepCacheStats {
        self.cache.borrow().stats
    }

    /// Enables or disables the step-time cache. Disabling exists so perf
    /// tooling can demonstrate that cached and uncached runs price every
    /// step identically; it never changes results.
    pub fn set_step_cache_enabled(&self, enabled: bool) {
        let mut cache = self.cache.borrow_mut();
        cache.disabled = !enabled;
        if !enabled {
            // Forget both the entries and any lookups already accounted
            // (e.g. during construction-time budget calibration), so an
            // uncached run reports zero cache activity.
            cache.base.clear();
            cache.clears += 1;
            cache.stats = StepCacheStats::default();
        }
    }

    /// The two roofline legs of executing `plan`, after dividing work across
    /// the tensor-parallel group. Pipeline parallelism does not shorten a
    /// single pass (stages are sequential); it adds concurrent lanes, which
    /// the engine models separately.
    pub fn kernel_cost(&self, plan: &BatchPlan) -> KernelCost {
        if plan.is_empty() {
            return KernelCost::ZERO;
        }
        let (flops, io_bytes) = self.plan_totals(plan);
        self.kernel_of_totals(flops, io_bytes)
    }

    /// A pricer for consecutive pure-decode steps of `batch` sequences,
    /// priced by their context sum alone; see [`DecodePricer`].
    pub fn decode_pricer(&self, batch: u64) -> DecodePricer<'_> {
        DecodePricer {
            cost: self,
            sig: PlanSig {
                prefill_new: 0,
                prefill_cross: 0,
                prefill_ctx: 0,
                decode_batch: batch,
            },
            slopes: self.sum_l_slopes(),
            base: None,
            clears: 0,
        }
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

    /// True if a plan's time is dominated by its compute leg (prefill
    /// regime) rather than its I/O leg (decode regime).
    pub fn is_compute_bound(&self, plan: &BatchPlan) -> bool {
        let k = self.kernel_cost(plan);
        k.compute_secs >= k.io_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PrefillChunk;

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
        assert!(cm.is_compute_bound(&BatchPlan::single_prefill(768)));
        assert!(!cm.is_compute_bound(&BatchPlan::decode_only(vec![768; 16])));
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
    fn step_cache_hits_are_bit_identical_to_cold_pricing() {
        let cached = opt13b_tp2();
        let reference = opt13b_tp2();
        reference.set_step_cache_enabled(false);
        // Decode batches of the same size but very different ΣL share one
        // signature; prefill mixes exercise the cross/ctx terms.
        let mut plans: Vec<BatchPlan> = vec![
            BatchPlan::decode_only(vec![100; 16]),
            BatchPlan::decode_only(vec![3000; 16]),
            BatchPlan::decode_only((1..=16).map(|i| i * 37).collect::<Vec<_>>()),
            BatchPlan::single_prefill(768),
            BatchPlan::single_prefill(768),
        ];
        let mut mixed = BatchPlan::new();
        mixed.add_prefill(PrefillChunk {
            new_tokens: 256,
            past_tokens: 512,
        });
        for ctx in [64, 900, 2048] {
            mixed.add_decode(ctx);
        }
        plans.push(mixed.clone());
        plans.push(mixed);
        for plan in &plans {
            assert_eq!(cached.kernel_cost(plan), reference.kernel_cost(plan));
            assert_eq!(cached.step_time(plan), reference.step_time(plan));
        }
        let stats = cached.step_cache_stats();
        assert!(stats.hits >= 3, "expected repeats to hit: {stats:?}");
        assert_eq!(reference.step_cache_stats(), StepCacheStats::default());
    }

    #[test]
    fn decode_pricer_prices_like_the_real_plan() {
        let by_plan = opt13b_tp2();
        let by_sum = opt13b_tp2();
        let runs: [&[&[u32]]; 4] = [
            &[&[1]],
            &[&[100; 16], &[101; 16], &[3000; 16]],
            &[&[17, 4096, 33, 2048, 1], &[18, 4097, 34, 2049, 2]],
            &[&[64, 900, 2048]],
        ];
        let mut hits = 0;
        for run in runs {
            let mut pricer = by_sum.decode_pricer(run[0].len() as u64);
            for ctxs in run {
                let plan = BatchPlan::decode_only(ctxs.iter().copied());
                let priced = pricer.kernel_cost(plan.decode_context_sum());
                assert_eq!(priced, by_plan.kernel_cost(&plan));
                assert_eq!(
                    by_sum.step_cache_stats(),
                    by_plan.step_cache_stats(),
                    "same lookups, same hits and misses"
                );
            }
            hits = by_sum.step_cache_stats().hits;
        }
        assert_eq!(hits, 3, "every repeat batch size hits");
        assert_eq!(by_sum.decode_pricer(0).kernel_cost(0), KernelCost::ZERO);
    }

    #[test]
    fn decode_pricer_notices_a_cleared_cache() {
        let by_plan = opt13b_tp2();
        let by_sum = opt13b_tp2();
        let mut pricer = by_sum.decode_pricer(4);
        let plan = BatchPlan::decode_only([10u32, 20, 30, 40]);
        for cm in [&by_plan, &by_sum] {
            cm.kernel_cost(&plan);
        }
        assert_eq!(pricer.kernel_cost(100), by_plan.kernel_cost(&plan));
        // Overflow the cache: the next insert clears every entry.
        for n in 1..=STEP_CACHE_CAP as u32 {
            for cm in [&by_plan, &by_sum] {
                cm.kernel_cost(&BatchPlan::single_prefill(n));
            }
        }
        assert_eq!(pricer.kernel_cost(100), by_plan.kernel_cost(&plan));
        assert_eq!(by_sum.step_cache_stats(), by_plan.step_cache_stats());
        // With the cache off every step is priced from scratch.
        by_sum.set_step_cache_enabled(false);
        by_plan.set_step_cache_enabled(false);
        let mut pricer = by_sum.decode_pricer(3);
        let plan = BatchPlan::decode_only([5u32, 6, 7]);
        assert_eq!(pricer.kernel_cost(18), by_plan.kernel_cost(&plan));
        assert_eq!(by_sum.step_cache_stats(), StepCacheStats::default());
    }

    #[test]
    fn step_cache_distinguishes_chunkings_with_equal_new_tokens() {
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
        // And neither poisoned the other: repeat lookups still agree.
        assert_eq!(cm.step_time(&fresh), a);
        assert_eq!(cm.step_time(&continued), b);
    }

    #[test]
    fn clone_prices_identically_with_fresh_stats() {
        let cm = opt13b_tp2();
        let plan = BatchPlan::decode_only(vec![768; 16]);
        let t = cm.step_time(&plan);
        let cloned = cm.clone();
        assert_eq!(cloned.step_cache_stats(), StepCacheStats::default());
        assert_eq!(cloned.step_time(&plan), t);
        assert_eq!(cloned, cm);
    }

    #[test]
    fn decode_heavy_workload_hit_rate_is_high() {
        let cm = opt13b_tp2();
        // A decode instance stepping a stable batch whose contexts grow by
        // one each step — the dominant steady-state shape.
        let mut contexts = vec![700u32; 32];
        for _ in 0..500 {
            for c in &mut contexts {
                *c += 1;
            }
            cm.step_time(&BatchPlan::decode_only(contexts.clone()));
        }
        let stats = cm.step_cache_stats();
        assert!(stats.hit_rate() > 0.95, "hit rate {:?}", stats.hit_rate());
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
