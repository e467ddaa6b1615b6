//! A small, dependency-free argument parser.
//!
//! The CLI takes `--flag value` pairs plus boolean `--flag` switches; this
//! module turns `std::env::args` into a typed lookup table with helpful
//! errors, without pulling a full argument-parsing crate into the
//! dependency closure.

use std::collections::BTreeMap;
use std::fmt;

/// Parse error with the offending flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: a subcommand, positional arguments, and flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The first non-flag token (e.g. `run`).
    pub command: Option<String>,
    /// Remaining non-flag tokens.
    pub positional: Vec<String>,
    flags: BTreeMap<String, Option<String>>,
}

/// Boolean switches that take no value.
pub(crate) const SWITCHES: &[&str] = &[
    "json",
    "quiet",
    "help",
    "sample",
    "split-nodes",
    "autoscale",
    "overload",
    "emit-config",
];

/// Every flag that takes a value. `Args::parse` rejects flags outside
/// this registry (and [`SWITCHES`]), so a typo'd flag fails loudly
/// instead of silently swallowing the next token; the help-drift test in
/// `commands.rs` keeps both registries in sync with the help text.
pub(crate) const VALUE_FLAGS: &[&str] = &[
    "model",
    "dataset",
    "system",
    "gpu",
    "prefill-gpu",
    "prefill-par",
    "decode-par",
    "prefill-replicas",
    "decode-replicas",
    "nodes",
    "rate",
    "requests",
    "seed",
    "arrivals",
    "thrd",
    "slo-ttft",
    "slo-tpot",
    "victims",
    "preemption",
    "min-prefill",
    "min-decode",
    "save-trace",
    "trace-file",
    "config",
    "preset",
    "out",
    "audit",
    "systems",
    "rates",
    "fault-seed",
    "max-queue",
    "max-queued-tokens",
    "shed-factor",
    "preempt-watermark",
    "deadline",
    "audit-every",
    "overload-factor",
    "tiers",
    "jobs",
    "port",
    "time-scale",
    "workers",
    "duration",
    "prompt-tokens",
    "output-tokens",
    "net-chaos",
    "net-fault-seed",
    "request-timeout",
    "retries",
    "retry-budget",
];

impl Args {
    /// Parses a token stream (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns an error for a value-flag at the end of the line with no
    /// value.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.flags.insert(name.to_string(), None);
                    continue;
                }
                if !VALUE_FLAGS.contains(&name) {
                    return Err(ArgError(format!(
                        "unknown flag --{name}; see `windserve help`"
                    )));
                }
                match iter.next() {
                    Some(value) => {
                        args.flags.insert(name.to_string(), Some(value));
                    }
                    None => return Err(ArgError(format!("--{name} needs a value"))),
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// See `Args::parse`.
    pub fn from_env() -> Result<Self, ArgError> {
        Args::parse(std::env::args().skip(1))
    }

    /// True if the boolean switch was given.
    pub(crate) fn switch(&self, name: &str) -> bool {
        debug_assert!(SWITCHES.contains(&name), "unknown switch {name}");
        self.flags.contains_key(name)
    }

    /// The raw value of a flag, if present.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// A typed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse as `T`.
    pub(crate) fn get_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// A typed optional flag.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse as `T`.
    pub(crate) fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// An optional duration flag, in seconds: a number with an optional
    /// unit, `ms`, `s` or `m` (`500ms`, `5s`, `2m`), where a bare number
    /// counts seconds. The number must be finite and non-negative, and
    /// positive unless `zero_ok`.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse or is out of range.
    pub(crate) fn secs(&self, name: &str, zero_ok: bool) -> Result<Option<f64>, ArgError> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        let (number, scale) = if let Some(n) = raw.strip_suffix("ms") {
            (n, 1e-3)
        } else if let Some(n) = raw.strip_suffix('s') {
            (n, 1.0)
        } else if let Some(n) = raw.strip_suffix('m') {
            (n, 60.0)
        } else {
            (raw, 1.0)
        };
        let least = if zero_ok { "non-negative" } else { "positive" };
        number
            .parse::<f64>()
            .ok()
            .filter(|&v| v.is_finite() && (v > 0.0 || zero_ok && v >= 0.0))
            .map(|v| Some(v * scale))
            .ok_or_else(|| {
                ArgError(format!(
                    "--{name} must be a finite, {least} duration such as 500ms, 5s, 2m \
                     or 1.5 (seconds), got {raw:?}"
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn commands_flags_and_positionals_separate() {
        let a = parse("run --model opt-13b --rate 4 extra --json");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.positional, vec!["extra"]);
        assert_eq!(a.get("model"), Some("opt-13b"));
        assert_eq!(a.get_or("rate", 1.0).unwrap(), 4.0);
        assert!(a.switch("json"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn typed_defaults_apply() {
        let a = parse("run");
        assert_eq!(a.get_or("requests", 500usize).unwrap(), 500);
        assert_eq!(a.get_opt::<u32>("seed").unwrap(), None);
    }

    #[test]
    fn bad_values_error_with_the_flag_name() {
        let a = parse("run --rate banana");
        let err = a.get_or("rate", 1.0).unwrap_err();
        assert!(err.0.contains("--rate"));
    }

    #[test]
    fn dangling_flag_errors() {
        let err = Args::parse(["--model".to_string()]).unwrap_err();
        assert!(err.0.contains("--model"));
    }

    #[test]
    fn unknown_flags_fail_loudly() {
        let err = Args::parse(["--modle".to_string(), "opt-13b".to_string()]).unwrap_err();
        assert!(err.0.contains("--modle"), "{err}");
        // Retired flags are unknown too, with the same typed error.
        let err = Args::parse(["run", "--shards", "4"].map(String::from)).unwrap_err();
        assert!(err.0.starts_with("unknown flag --shards"), "{err}");
        for check in ["cache", "drain"] {
            let flag = format!("--check-{check}");
            let err = Args::parse(["perf".to_string(), flag.clone()]).unwrap_err();
            assert!(err.0.starts_with(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn registries_do_not_overlap() {
        for s in SWITCHES {
            assert!(!VALUE_FLAGS.contains(s), "--{s} in both registries");
        }
    }
}
