//! The variant-deriving builder the benchmark's sessions deployment uses.
//!
//! Everywhere else a [`ServeConfig`] is a plain value: start from a preset
//! or [`ServeConfig::new`], write fields, and validate once.

use windserve_gpu::Topology;

use crate::config::{PrefixCacheConfig, ServeConfig};

/// Derives a variant of a [`ServeConfig`] and validates it.
///
/// It exists only for the benchmark's `sessions_prefix` deployment, which
/// reaches it through [`ServeConfig::to_builder`]; other callers write the
/// fields directly.
///
/// # Examples
///
/// ```
/// use windserve::{ServeConfig, SystemKind};
/// use windserve_gpu::Topology;
///
/// let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
///     .to_builder()
///     .topology(Topology::a800_multi_node(2))
///     .decode_replicas(2)
///     .build()?;
/// assert_eq!(cfg.decode_replicas, 2);
/// # Ok::<(), windserve::Error>(())
/// ```
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the ServeConfig"]
pub struct ServeConfigBuilder {
    pub(crate) cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Node interconnect topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Number of prefill replicas.
    pub fn prefill_replicas(mut self, n: usize) -> Self {
        self.cfg.prefill_replicas = n;
        self
    }

    /// Number of decode replicas.
    pub fn decode_replicas(mut self, n: usize) -> Self {
        self.cfg.decode_replicas = n;
        self
    }

    /// Enables session prefix caching over the KV retained on prefill
    /// instances (and, via [`PrefixCacheConfig::affinity`], prefix-aware
    /// routing of follow-up turns).
    ///
    /// # Examples
    ///
    /// ```
    /// use windserve::{PrefixCacheConfig, ServeConfig, SystemKind};
    ///
    /// let cfg = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe)
    ///     .to_builder()
    ///     .with_prefix_cache(PrefixCacheConfig::default())
    ///     .build()?;
    /// assert!(cfg.prefix_cache.is_some());
    /// # Ok::<(), windserve::Error>(())
    /// ```
    pub fn with_prefix_cache(mut self, prefix: PrefixCacheConfig) -> Self {
        self.cfg.prefix_cache = Some(prefix);
        self
    }

    /// Validates and returns the assembled configuration.
    ///
    /// # Errors
    ///
    /// The first error of [`ServeConfig::validate`].
    pub fn build(self) -> crate::Result<ServeConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use windserve_metrics::SloSpec;
    use windserve_model::{ModelSpec, Parallelism};

    use crate::config::{ServeConfig, SystemKind};

    #[test]
    fn builder_defaults_match_preset() {
        let built = ServeConfig::new(
            ModelSpec::opt_13b(),
            SloSpec::opt_13b_sharegpt(),
            Parallelism::new(2, 1),
            Parallelism::new(2, 1),
            SystemKind::WindServe,
        )
        .to_builder()
        .build()
        .unwrap();
        let preset = ServeConfig::opt_13b_sharegpt(SystemKind::WindServe);
        assert_eq!(built, preset);
    }

    #[test]
    fn to_builder_round_trips() {
        for base in [
            ServeConfig::opt_13b_sharegpt(SystemKind::WindServe),
            ServeConfig::opt_66b_sharegpt(SystemKind::WindServeNoSplit),
        ] {
            assert_eq!(base.to_builder().build().unwrap(), base);
        }
    }
}
