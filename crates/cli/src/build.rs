//! Turning CLI flags into simulator objects: model/dataset/system lookup
//! by name and `ServeConfig` assembly.

use crate::args::{ArgError, Args};
use windserve::{ModelSpec, Parallelism, ServeConfig, SloSpec, SystemKind, VictimPolicy};
use windserve_engine::PreemptionMode;
use windserve_gpu::{GpuSpec, Topology};
use windserve_sim::SimDuration;
use windserve_workload::{ArrivalProcess, Dataset, Scenario, Trace};

/// Resolves a model by its CLI name.
///
/// # Errors
///
/// Lists the known names on a miss.
pub fn model_by_name(name: &str) -> Result<ModelSpec, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "opt-13b" => Ok(ModelSpec::opt_13b()),
        "opt-30b" => Ok(ModelSpec::opt_30b()),
        "opt-66b" => Ok(ModelSpec::opt_66b()),
        "llama2-13b" => Ok(ModelSpec::llama2_13b()),
        "llama2-70b" => Ok(ModelSpec::llama2_70b()),
        other => Err(ArgError(format!(
            "unknown model {other:?}; try opt-13b, opt-30b, opt-66b, llama2-13b, llama2-70b"
        ))),
    }
}

/// Resolves a GPU by its CLI name.
///
/// # Errors
///
/// Lists the known names on a miss.
pub fn gpu_by_name(name: &str) -> Result<GpuSpec, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "a800" | "a800-80gb" => Ok(GpuSpec::a800_80gb()),
        "a100" | "a100-40gb" => Ok(GpuSpec::a100_40gb()),
        "h100" | "h100-80gb" => Ok(GpuSpec::h100_80gb()),
        "rtx4090" | "4090" => Ok(GpuSpec::rtx_4090()),
        other => Err(ArgError(format!(
            "unknown gpu {other:?}; try a800, a100, h100, rtx4090"
        ))),
    }
}

/// Resolves a system variant by its CLI name.
///
/// # Errors
///
/// Lists the known names on a miss.
pub fn system_by_name(name: &str) -> Result<SystemKind, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "windserve" => Ok(SystemKind::WindServe),
        "windserve-no-split" | "no-split" => Ok(SystemKind::WindServeNoSplit),
        "windserve-no-resche" | "no-resche" => Ok(SystemKind::WindServeNoResche),
        "distserve" => Ok(SystemKind::DistServe),
        "vllm" => Ok(SystemKind::VllmColocated),
        other => Err(ArgError(format!(
            "unknown system {other:?}; try windserve, distserve, vllm, no-split, no-resche"
        ))),
    }
}

/// A `TP` or `TPxPP` parallelism spec, e.g. `2` or `2x2`.
///
/// # Errors
///
/// Rejects malformed or zero degrees.
pub fn parallelism_by_name(spec: &str) -> Result<Parallelism, ArgError> {
    let parts: Vec<&str> = spec.split(['x', 'X']).collect();
    let parse = |s: &str| -> Result<u32, ArgError> {
        s.parse()
            .ok()
            .filter(|&v| v > 0)
            .ok_or_else(|| ArgError(format!("bad parallel degree {s:?}")))
    };
    match parts.as_slice() {
        [tp] => Ok(Parallelism::tp(parse(tp)?)),
        [tp, pp] => Ok(Parallelism::new(parse(tp)?, parse(pp)?)),
        _ => Err(ArgError(format!(
            "parallelism is TP or TPxPP, got {spec:?}"
        ))),
    }
}

/// Everything a serving run needs, assembled from flags.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The assembled configuration.
    pub config: ServeConfig,
    /// The workload dataset.
    pub dataset: Dataset,
    /// Per-GPU request rate.
    pub rate_per_gpu: f64,
    /// Trace size.
    pub requests: usize,
    /// Trace seed.
    pub seed: u64,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

impl RunSpec {
    /// Builds a run spec from parsed arguments. Defaults mirror the
    /// paper's OPT-13B / ShareGPT operating point.
    ///
    /// # Errors
    ///
    /// Reports the first invalid flag.
    pub fn from_args(args: &Args) -> Result<RunSpec, ArgError> {
        // The baseline is the `--config <file.toml>` file or, without one,
        // the paper's defaults for the model; each flag then overrides it.
        let file = args.get("config").map(load_config_file).transpose()?;
        let model = args.get("model").map(model_by_name).transpose()?;
        let from_file = file.is_some();
        let mut config = file
            .unwrap_or_else(|| paper_defaults(model.clone().unwrap_or_else(ModelSpec::opt_13b)));
        if let Some(model) = model {
            config.model = model;
        }
        if let Some(name) = args.get("system") {
            config.system = system_by_name(name)?;
        }
        let prefill_par = args
            .get("prefill-par")
            .map(parallelism_by_name)
            .transpose()?;
        config.prefill_parallelism = prefill_par.unwrap_or(config.prefill_parallelism);
        // Without a file, the decode placement follows `--prefill-par`.
        let decode_par = match args.get("decode-par") {
            Some(spec) => Some(parallelism_by_name(spec)?),
            None if from_file => None,
            None => prefill_par,
        };
        config.decode_parallelism = decode_par.unwrap_or(config.decode_parallelism);
        if let Some(name) = args.get("gpu") {
            config.gpu = gpu_by_name(name)?;
        }
        config.prefill_replicas = args.get_or("prefill-replicas", config.prefill_replicas)?;
        config.decode_replicas = args.get_or("decode-replicas", config.decode_replicas)?;
        if let Some(pg) = args.get("prefill-gpu") {
            config.prefill_gpu = Some(gpu_by_name(pg)?);
        }
        if let Some(nodes) = args.get_opt::<usize>("nodes")? {
            config.topology = Topology::a800_multi_node(nodes.max(1));
        }
        if args.switch("split-nodes") {
            config.split_phases_across_nodes = true;
        }
        let secs = |name| Ok::<_, ArgError>(args.secs(name, true)?.map(SimDuration::from_secs_f64));
        config.dispatch_threshold = secs("thrd")?.or(config.dispatch_threshold);
        config.slo.ttft = secs("slo-ttft")?.unwrap_or(config.slo.ttft);
        config.slo.tpot = secs("slo-tpot")?.unwrap_or(config.slo.tpot);
        if let Some(policy) = args.get("victims") {
            config.victim_policy = match policy {
                "longest" => VictimPolicy::LongestContext,
                "shortest" => VictimPolicy::ShortestContext,
                other => return Err(ArgError(format!("unknown victim policy {other:?}"))),
            };
        }
        if let Some(mode) = args.get("preemption") {
            config.preemption = match mode {
                "swap" => PreemptionMode::Swap,
                "recompute" => PreemptionMode::Recompute,
                other => return Err(ArgError(format!("unknown preemption mode {other:?}"))),
            };
        }
        if args.switch("sample") {
            config.sample_interval = Some(SimDuration::from_millis(100));
        }
        if args.switch("autoscale") {
            config.autoscale = Some(windserve::AutoscaleConfig {
                min_prefill: args.get_or("min-prefill", 1usize)?,
                min_decode: args.get_or("min-decode", 1usize)?,
                ..windserve::AutoscaleConfig::default()
            });
        }
        // Overload control: the --overload switch enables the defaults;
        // any specific overload knob implies it.
        let overload_requested = args.switch("overload")
            || args.get("max-queue").is_some()
            || args.get("max-queued-tokens").is_some()
            || args.get("shed-factor").is_some()
            || args.get("preempt-watermark").is_some()
            || args.get("deadline").is_some()
            || args.get("audit-every").is_some();
        if overload_requested {
            // `--overload` arms the default policy bundle; naming specific
            // flags arms only those layers (e.g. `--audit-every` alone runs
            // the auditor without shedding or caps).
            let mut overload = if args.switch("overload") {
                windserve::OverloadConfig::default()
            } else {
                windserve::OverloadConfig {
                    max_queued_requests: None,
                    shedding: false,
                    ..Default::default()
                }
            };
            if args.get("shed-factor").is_some() {
                overload.shedding = true;
            }
            if let Some(cap) = args.get_opt::<usize>("max-queue")? {
                overload.max_queued_requests = Some(cap);
            }
            if let Some(budget) = args.get_opt::<u64>("max-queued-tokens")? {
                overload.max_queued_tokens = Some(budget);
            }
            if let Some(factor) = args.get_opt::<f64>("shed-factor")? {
                overload.shed_ttft_factor = factor;
            }
            if let Some(w) = args.get_opt::<f64>("preempt-watermark")? {
                overload.preempt_kv_watermark = Some(w);
            }
            overload.deadline = secs("deadline")?.or(overload.deadline);
            if let Some(n) = args.get_opt::<u64>("audit-every")? {
                overload.audit_interval_events = Some(n);
            }
            config.overload = Some(overload);
        }
        config
            .validate()
            .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;

        let dataset = Dataset::by_name(
            args.get("dataset").unwrap_or("sharegpt"),
            config.model.max_context,
        )
        .map_err(|e| ArgError(e.to_string()))?;
        let rate_per_gpu: f64 = args.get_or("rate", 3.0)?;
        if !(rate_per_gpu.is_finite() && rate_per_gpu > 0.0) {
            return Err(ArgError(format!(
                "--rate must be positive, got {rate_per_gpu}"
            )));
        }
        let requests = args.get_or("requests", 1000usize)?;
        let seed = args.get_or("seed", 0xACEu64)?;
        let arrivals = RunSpec::arrivals_at(args, config.total_rate(rate_per_gpu))?;
        Ok(RunSpec {
            config,
            dataset,
            rate_per_gpu,
            requests,
            seed,
            arrivals,
        })
    }

    /// The `--arrivals` process (Poisson by default) at `total` req/s
    /// across the cluster.
    ///
    /// # Errors
    ///
    /// Reports an unknown process, or a total rate that is not positive
    /// and finite (a per-GPU `--rate` so large that it overflows).
    pub fn arrivals_at(args: &Args, total: f64) -> Result<ArrivalProcess, ArgError> {
        let process = match args.get("arrivals").unwrap_or("poisson") {
            "poisson" => ArrivalProcess::try_poisson(total),
            "uniform" => ArrivalProcess::try_uniform(total),
            "bursty" => {
                let bursty = ArrivalProcess::Bursty {
                    base_rate: total * 0.5,
                    burst_rate: total * 1.5,
                    mean_phase_secs: 10.0,
                };
                bursty.validate().map(|()| bursty)
            }
            other => return Err(ArgError(format!("unknown arrival process {other:?}"))),
        };
        process.map_err(|e| ArgError(e.to_string()))
    }

    /// The workload this spec describes: the config file's
    /// `[workload.scenario]` when one was given, otherwise the classic
    /// flag-driven single-shot workload (`--dataset` × `--arrivals` ×
    /// `--requests`).
    pub fn scenario(&self) -> Scenario {
        match &self.config.workload {
            Some(w) => w.scenario.clone(),
            None => {
                Scenario::single_shot(self.dataset.clone(), self.arrivals.clone(), self.requests)
            }
        }
    }

    /// Generates the seeded trace for [`RunSpec::scenario`].
    ///
    /// # Errors
    ///
    /// Reports an invalid scenario (e.g. a config file naming an unknown
    /// dataset).
    pub fn generate_trace(&self) -> Result<Trace, ArgError> {
        self.scenario()
            .generate(self.seed)
            .map_err(|e| ArgError(format!("workload: {e}")))
    }
}

/// The paper's operating point for `model`: Table 4 SLOs matched to it
/// (ShareGPT for OPT, LongBench for LLaMA2, else OPT-13B's), its Table 3
/// placement (`[TP-2 PP-2]` above 30B parameters, else `[TP-2]`), WindServe.
fn paper_defaults(model: ModelSpec) -> ServeConfig {
    let slo = match model.name.as_str() {
        "OPT-66B" => SloSpec::opt_66b_sharegpt(),
        "LLaMA2-13B" => SloSpec::llama2_13b_longbench(),
        "LLaMA2-70B" => SloSpec::llama2_70b_longbench(),
        _ => SloSpec::opt_13b_sharegpt(),
    };
    let par = if model.param_count() > 30_000_000_000 {
        Parallelism::new(2, 2)
    } else {
        Parallelism::tp(2)
    };
    ServeConfig::new(model, slo, par, par, SystemKind::WindServe)
}

/// Reads a [`ServeConfig`] from a TOML file. Omitted fields inherit the
/// paper's default operating point (see `windserve::configfile`).
///
/// # Errors
///
/// Reports I/O, parse, and validation failures with the path.
pub fn load_config_file(path: &str) -> Result<ServeConfig, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    ServeConfig::from_toml(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

/// Resolves a Table 3/4 preset by its CLI name, returning the config and
/// the name of the matching dataset.
///
/// # Errors
///
/// Lists the known names on a miss.
pub fn preset_by_name(name: &str) -> Result<(ServeConfig, &'static str), ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "opt13b-sharegpt" | "opt-13b-sharegpt" => Ok((
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
            "sharegpt",
        )),
        "opt66b-sharegpt" | "opt-66b-sharegpt" => Ok((
            ServeConfig::opt_66b_sharegpt(SystemKind::WindServe),
            "sharegpt",
        )),
        "llama2-13b-longbench" | "llama13b-longbench" => Ok((
            ServeConfig::llama2_13b_longbench(SystemKind::WindServe),
            "longbench",
        )),
        "llama2-70b-longbench" | "llama70b-longbench" => Ok((
            ServeConfig::llama2_70b_longbench(SystemKind::WindServe),
            "longbench",
        )),
        other => Err(ArgError(format!(
            "unknown preset {other:?}; try opt13b-sharegpt, opt66b-sharegpt, \
             llama2-13b-longbench, llama2-70b-longbench"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(line: &str) -> Result<RunSpec, ArgError> {
        let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
        RunSpec::from_args(&args)
    }

    #[test]
    fn defaults_are_the_paper_operating_point() {
        let s = spec("run").unwrap();
        assert_eq!(s.config.model.name, "OPT-13B");
        assert_eq!(s.config.system, SystemKind::WindServe);
        assert_eq!(s.config.total_gpus(), 4);
        assert_eq!(s.rate_per_gpu, 3.0);
    }

    #[test]
    fn large_models_default_to_pp2() {
        let s = spec("run --model opt-66b").unwrap();
        assert_eq!(s.config.prefill_parallelism, Parallelism::new(2, 2));
        assert_eq!(s.config.slo, SloSpec::opt_66b_sharegpt());
    }

    #[test]
    fn full_flag_surface_parses() {
        let s = spec(
            "run --model llama2-13b --dataset longbench --system distserve \
             --prefill-par 2 --decode-par 1 --rate 1.5 --requests 50 --seed 7 \
             --victims shortest --preemption recompute --sample --slo-ttft 5.0",
        )
        .unwrap();
        assert_eq!(s.config.model.name, "LLaMA2-13B");
        assert_eq!(s.config.decode_parallelism, Parallelism::tp(1));
        assert_eq!(s.config.victim_policy, VictimPolicy::ShortestContext);
        assert_eq!(s.config.preemption, PreemptionMode::Recompute);
        assert!(s.config.sample_interval.is_some());
        assert_eq!(s.config.slo.ttft.as_secs_f64(), 5.0);
    }

    #[test]
    fn fixed_dataset_spec_parses_and_validates() {
        assert!(spec("run --dataset fixed:100:10").is_ok());
        assert!(spec("run --dataset fixed:0:10").is_err());
        assert!(spec("run --dataset fixed:4000:10").is_err());
        assert!(spec("run --dataset fixed:banana").is_err());
    }

    #[test]
    fn bad_names_report_alternatives() {
        let err = spec("run --model gpt5").unwrap_err();
        assert!(err.0.contains("opt-13b"));
        let err = spec("run --system orca").unwrap_err();
        assert!(err.0.contains("distserve"));
    }

    #[test]
    fn parallelism_spec_accepts_tp_and_tpxpp() {
        assert_eq!(parallelism_by_name("4").unwrap(), Parallelism::tp(4));
        assert_eq!(parallelism_by_name("2x2").unwrap(), Parallelism::new(2, 2));
        assert!(parallelism_by_name("0").is_err());
        assert!(parallelism_by_name("2x2x2").is_err());
    }

    #[test]
    fn negative_rate_rejected() {
        assert!(spec("run --rate -1").is_err());
    }

    #[test]
    fn config_file_is_the_baseline_and_flags_override() {
        let dir = std::env::temp_dir().join("windserve-cli-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.toml");
        std::fs::write(&path, "system = \"DistServe\"\ndecode_replicas = 2\n").unwrap();
        let path = path.to_str().unwrap();

        // File values apply where no flag is given...
        let s = spec(&format!("run --config {path}")).unwrap();
        assert_eq!(s.config.system, SystemKind::DistServe);
        assert_eq!(s.config.decode_replicas, 2);

        // ...and explicit flags beat the file.
        let s = spec(&format!(
            "run --config {path} --decode-replicas 1 --system vllm"
        ))
        .unwrap();
        assert_eq!(s.config.system, SystemKind::VllmColocated);
        assert_eq!(s.config.decode_replicas, 1);

        let err = spec("run --config /nonexistent/serve.toml").unwrap_err();
        assert!(err.0.contains("/nonexistent/serve.toml"));
    }

    #[test]
    fn each_flag_line_assembles_the_pinned_config() {
        let dir = std::env::temp_dir().join("windserve-cli-pin-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.toml");
        std::fs::write(
            &path,
            "system = \"DistServe\"\n[decode_parallelism]\ntp = 1\npp = 1\n",
        )
        .unwrap();
        let f = path.to_str().unwrap();

        let base = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        let file = ServeConfig {
            system: SystemKind::DistServe,
            decode_parallelism: Parallelism::tp(1),
            ..base.clone()
        };
        let cases = [
            ("run".to_string(), base.clone()),
            (
                "run --model opt-66b".to_string(),
                ServeConfig::opt_66b_sharegpt(SystemKind::WindServe),
            ),
            // Without a file, --decode-par falls back to --prefill-par.
            (
                "run --prefill-par 4".to_string(),
                ServeConfig {
                    prefill_parallelism: Parallelism::tp(4),
                    decode_parallelism: Parallelism::tp(4),
                    ..base.clone()
                },
            ),
            // With a file, --prefill-par alone keeps the file's decode placement.
            (
                format!("run --config {f} --prefill-par 4"),
                ServeConfig {
                    prefill_parallelism: Parallelism::tp(4),
                    ..file.clone()
                },
            ),
            // Flags beat the file; the file's SLO and placement stay.
            (
                format!("run --config {f} --model llama2-13b --gpu h100 --decode-replicas 2"),
                ServeConfig {
                    model: ModelSpec::llama2_13b(),
                    gpu: GpuSpec::h100_80gb(),
                    decode_replicas: 2,
                    ..file.clone()
                },
            ),
            (
                "run --slo-ttft 5 --slo-tpot 0.2 --thrd 1".to_string(),
                ServeConfig {
                    slo: SloSpec {
                        ttft: SimDuration::from_secs(5),
                        tpot: SimDuration::from_millis(200),
                    },
                    dispatch_threshold: Some(SimDuration::from_secs(1)),
                    ..base.clone()
                },
            ),
            (
                "run --overload --deadline 600".to_string(),
                ServeConfig {
                    overload: Some(windserve::OverloadConfig {
                        deadline: Some(SimDuration::from_secs(600)),
                        ..Default::default()
                    }),
                    ..base.clone()
                },
            ),
        ];
        for (line, want) in cases {
            assert_eq!(spec(&line).unwrap().config, want, "{line}");
        }
    }
}
