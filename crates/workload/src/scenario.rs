//! The unified workload API.
//!
//! A [`Scenario`] is the single entry point for describing *what arrives at
//! the cluster*: a classic single-shot trace (dataset × arrival process ×
//! request count), a multi-turn [`SessionsScenario`], or an explicit
//! pre-built request list. All three generate a [`Trace`] through the same
//! seeded, replayable [`Scenario::generate`] call, and all three have one
//! serialized form, so config files, the CLI, the gateway and the bench
//! harness share a single spelling of "the workload".

use crate::arrival::ArrivalProcess;
use crate::dataset::Dataset;
use crate::request::Request;
use crate::session::SessionsScenario;
use crate::trace::{generate_single_shot, Trace};
use serde::{Deserialize, Serialize};

/// A dataset reference: either a registry name resolved through
/// [`Dataset::by_name`] (the config-file-friendly form) or an inline
/// [`Dataset`] carried by value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DatasetSpec {
    /// A named dataset (`sharegpt`, `longbench`, `fixed:<p>:<o>`) with the
    /// serving model's context window.
    Named {
        /// Registry name, as accepted by [`Dataset::by_name`].
        name: String,
        /// Hard cap on prompt + output tokens.
        max_context: u32,
    },
    /// A fully specified dataset carried inline.
    Inline(Dataset),
}

impl DatasetSpec {
    /// A named dataset reference.
    pub fn named(name: impl Into<String>, max_context: u32) -> Self {
        DatasetSpec::Named {
            name: name.into(),
            max_context,
        }
    }

    /// Resolves the spec to a concrete, validated [`Dataset`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDataset`](crate::Error::UnknownDataset) for
    /// an unresolvable name, or the dataset's own
    /// [`validate`](Dataset::validate) failure.
    pub(crate) fn resolve(&self) -> crate::Result<Dataset> {
        let dataset = match self {
            DatasetSpec::Named { name, max_context } => Dataset::by_name(name, *max_context)?,
            DatasetSpec::Inline(dataset) => dataset.clone(),
        };
        dataset.validate()?;
        Ok(dataset)
    }
}

impl From<Dataset> for DatasetSpec {
    fn from(dataset: Dataset) -> Self {
        DatasetSpec::Inline(dataset)
    }
}

/// A complete, seedable description of a workload.
///
/// # Examples
///
/// ```
/// use windserve_workload::{ArrivalProcess, Dataset, Scenario};
///
/// let scenario = Scenario::single_shot(
///     Dataset::sharegpt(2048),
///     ArrivalProcess::poisson(4.0),
///     100,
/// );
/// let trace = scenario.generate(42).unwrap();
/// assert_eq!(trace.requests().len(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Scenario {
    /// Independent requests: `requests` draws from `dataset`, issued by
    /// `arrivals`. Generates byte-identically to the pre-`Scenario`
    /// generation path, so existing seeds reproduce existing traces.
    SingleShot {
        /// Length distributions.
        dataset: DatasetSpec,
        /// Inter-arrival process.
        arrivals: ArrivalProcess,
        /// Number of requests.
        requests: usize,
    },
    /// Multi-turn conversations with shared-prefix follow-ups.
    Sessions(SessionsScenario),
    /// An explicit request list (e.g. a recorded trace), replayed verbatim.
    TraceDriven {
        /// The requests, time-ordered with ascending ids.
        requests: Vec<Request>,
    },
}

impl Scenario {
    /// A single-shot scenario (the classic dataset × arrivals × count).
    pub fn single_shot(
        dataset: impl Into<DatasetSpec>,
        arrivals: ArrivalProcess,
        requests: usize,
    ) -> Self {
        Scenario::SingleShot {
            dataset: dataset.into(),
            arrivals,
            requests,
        }
    }

    /// A multi-turn sessions scenario.
    pub fn sessions(sessions: SessionsScenario) -> Self {
        Scenario::Sessions(sessions)
    }

    /// Checks the scenario end to end without generating anything.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`](crate::Error::InvalidScenario)
    /// (or an underlying dataset/arrival error) naming the first problem.
    pub fn validate(&self) -> crate::Result<()> {
        match self {
            Scenario::SingleShot {
                dataset,
                arrivals,
                requests,
            } => {
                if *requests == 0 {
                    return Err(crate::Error::InvalidScenario {
                        reason: "single-shot scenario needs at least one request".into(),
                    });
                }
                dataset.resolve()?;
                arrivals.validate()
            }
            Scenario::Sessions(sessions) => sessions.validate(),
            Scenario::TraceDriven { requests } => {
                for w in requests.windows(2) {
                    if w[1].arrival < w[0].arrival {
                        return Err(crate::Error::InvalidScenario {
                            reason: format!(
                                "trace-driven requests must be time-ordered; {} at {:?} precedes {} at {:?}",
                                w[1].id, w[1].arrival, w[0].id, w[0].arrival
                            ),
                        });
                    }
                    if w[1].id <= w[0].id {
                        return Err(crate::Error::InvalidScenario {
                            reason: format!(
                                "trace-driven request ids must ascend; saw {} after {}",
                                w[1].id, w[0].id
                            ),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// Generates the trace. A pure function of `(self, seed)`: the same
    /// scenario and seed produce a byte-identical trace on any machine, at
    /// any worker count.
    ///
    /// # Errors
    ///
    /// Returns the first [`Scenario::validate`] failure.
    pub fn generate(&self, seed: u64) -> crate::Result<Trace> {
        self.validate()?;
        match self {
            Scenario::SingleShot {
                dataset,
                arrivals,
                requests,
            } => Ok(generate_single_shot(
                &dataset.resolve()?,
                arrivals,
                *requests,
                seed,
            )),
            Scenario::Sessions(sessions) => sessions.generate(seed),
            Scenario::TraceDriven { requests } => Ok(Trace::from_requests(requests.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use windserve_sim::SimTime;

    #[test]
    fn named_and_inline_datasets_resolve_identically() {
        let named = DatasetSpec::named("sharegpt", 2048).resolve().unwrap();
        let inline = DatasetSpec::from(Dataset::sharegpt(2048))
            .resolve()
            .unwrap();
        assert_eq!(named, inline);
        assert!(DatasetSpec::named("imagenet", 2048).resolve().is_err());
    }

    #[test]
    fn constructors_build_each_variant() {
        let single = Scenario::single_shot(
            Dataset::longbench(4096),
            ArrivalProcess::Uniform { rate: 2.0 },
            50,
        );
        single.validate().unwrap();
        assert_eq!(single.generate(1).unwrap().requests().len(), 50);

        let sessions = Scenario::sessions(SessionsScenario::builder().sessions(5).build().unwrap());
        sessions.validate().unwrap();
        assert!(sessions.generate(1).unwrap().requests().len() >= 5);

        let reqs = vec![
            Request::new(RequestId(0), SimTime::ZERO, 10, 2),
            Request::new(RequestId(1), SimTime::from_micros(5), 10, 2),
        ];
        let driven = Scenario::TraceDriven {
            requests: reqs.clone(),
        };
        driven.validate().unwrap();
        assert_eq!(driven.generate(99).unwrap().requests(), &reqs[..]);
    }

    #[test]
    fn invalid_scenarios_are_typed_errors_not_panics() {
        let err = Scenario::single_shot(
            DatasetSpec::named("sharegpt", 2048),
            ArrivalProcess::poisson(4.0),
            0,
        )
        .validate()
        .unwrap_err();
        assert!(matches!(err, crate::Error::InvalidScenario { .. }), "{err}");

        let bad_rate = Scenario::SingleShot {
            dataset: DatasetSpec::named("sharegpt", 2048),
            arrivals: ArrivalProcess::Poisson { rate: -1.0 },
            requests: 10,
        };
        assert!(matches!(
            bad_rate.validate().unwrap_err(),
            crate::Error::InvalidArrival { .. }
        ));

        // Out-of-order trace-driven requests error instead of panicking
        // inside Trace::from_requests.
        let out_of_order = Scenario::TraceDriven {
            requests: vec![
                Request::new(RequestId(0), SimTime::from_micros(5), 10, 2),
                Request::new(RequestId(1), SimTime::ZERO, 10, 2),
            ],
        };
        let err = out_of_order.generate(0).unwrap_err();
        assert!(matches!(err, crate::Error::InvalidScenario { .. }), "{err}");
        let dup_ids = Scenario::TraceDriven {
            requests: vec![
                Request::new(RequestId(3), SimTime::ZERO, 10, 2),
                Request::new(RequestId(3), SimTime::from_micros(5), 10, 2),
            ],
        };
        assert!(dup_ids.validate().is_err());
    }

    #[test]
    fn scenarios_serialize_and_deserialize() {
        let scenarios = [
            Scenario::single_shot(
                DatasetSpec::named("sharegpt", 2048),
                ArrivalProcess::poisson(4.0),
                100,
            ),
            Scenario::sessions(SessionsScenario::builder().sessions(3).build().unwrap()),
            Scenario::TraceDriven {
                requests: vec![Request::new(RequestId(0), SimTime::ZERO, 10, 2)],
            },
        ];
        for scenario in scenarios {
            let text = serde_json::to_string(&scenario).unwrap();
            let back: Scenario = serde_json::from_str(&text).unwrap();
            assert_eq!(scenario, back);
        }
    }
}
