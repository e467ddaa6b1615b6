//! Request arrival processes.
//!
//! The paper's evaluation "employed a Poisson distribution to simulate the
//! specified request rate" (§5.1). A deterministic (uniform-gap) process
//! and a bursty two-state process are provided for sensitivity studies.

use serde::{Deserialize, Serialize};
use windserve_sim::{SimDuration, SimRng};

/// An inter-arrival-time generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` requests/second (exponential gaps).
    Poisson {
        /// Mean arrival rate, req/s.
        rate: f64,
    },
    /// Deterministic arrivals every `1/rate` seconds.
    Uniform {
        /// Arrival rate, req/s.
        rate: f64,
    },
    /// Markov-modulated Poisson: alternates between a calm and a burst
    /// phase, each exponentially distributed in length.
    Bursty {
        /// Rate during the calm phase, req/s.
        base_rate: f64,
        /// Rate during the burst phase, req/s.
        burst_rate: f64,
        /// Mean phase duration, seconds.
        mean_phase_secs: f64,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate` req/s.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite. Use
    /// [`ArrivalProcess::try_poisson`] to handle untrusted rates.
    pub fn poisson(rate: f64) -> Self {
        Self::try_poisson(rate).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Poisson arrivals at `rate` req/s, rejecting invalid rates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArrival`](crate::Error::InvalidArrival) if
    /// `rate` is not strictly positive and finite.
    pub fn try_poisson(rate: f64) -> crate::Result<Self> {
        check_rate("rate", rate)?;
        Ok(ArrivalProcess::Poisson { rate })
    }

    /// Deterministic arrivals at `rate` req/s, rejecting invalid rates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArrival`](crate::Error::InvalidArrival) if
    /// `rate` is not strictly positive and finite.
    pub fn try_uniform(rate: f64) -> crate::Result<Self> {
        check_rate("rate", rate)?;
        Ok(ArrivalProcess::Uniform { rate })
    }

    /// Checks every parameter of the process. Variants built through the
    /// `try_` constructors are always valid; this covers processes
    /// assembled field-by-field (e.g. deserialized from a config file).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArrival`](crate::Error::InvalidArrival)
    /// naming the first non-positive or non-finite parameter.
    pub fn validate(&self) -> crate::Result<()> {
        match *self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Uniform { rate } => {
                check_rate("rate", rate)
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_phase_secs,
            } => {
                check_rate("base_rate", base_rate)?;
                check_rate("burst_rate", burst_rate)?;
                check_rate("mean_phase_secs", mean_phase_secs)
            }
        }
    }

    /// Long-run mean rate of the process, req/s.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Uniform { rate } => rate,
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                ..
            } => (base_rate + burst_rate) / 2.0,
        }
    }

    /// Generates the full arrival schedule for `n` requests (gaps from the
    /// process, starting at time zero + first gap).
    pub fn gaps(&self, n: usize, rng: &mut SimRng) -> Vec<SimDuration> {
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate } => {
                for _ in 0..n {
                    out.push(SimDuration::from_secs_f64(rng.next_exp(rate)));
                }
            }
            ArrivalProcess::Uniform { rate } => {
                let gap = SimDuration::from_secs_f64(1.0 / rate);
                out.resize(n, gap);
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_phase_secs,
            } => {
                let mut in_burst = false;
                let mut phase_left = rng.next_exp(1.0 / mean_phase_secs);
                for _ in 0..n {
                    let mut gap = 0.0;
                    loop {
                        let rate = if in_burst { burst_rate } else { base_rate };
                        let draw = rng.next_exp(rate);
                        if draw < phase_left {
                            phase_left -= draw;
                            gap += draw;
                            break;
                        }
                        // The draw straddles the phase boundary: only the
                        // part inside the phase elapsed at this rate. The
                        // exponential is memoryless, so consuming the
                        // remainder of the phase and redrawing at the next
                        // phase's rate is exact, not an approximation.
                        gap += phase_left;
                        in_burst = !in_burst;
                        phase_left = rng.next_exp(1.0 / mean_phase_secs);
                    }
                    out.push(SimDuration::from_secs_f64(gap));
                }
            }
        }
        out
    }
}

fn check_rate(field: &str, value: f64) -> crate::Result<()> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(crate::Error::InvalidArrival {
            reason: format!("{field} must be positive and finite, got {value}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_gaps_average_to_rate() {
        let mut rng = SimRng::seed_from_u64(3);
        let gaps = ArrivalProcess::poisson(8.0).gaps(50_000, &mut rng);
        let mean: f64 = gaps.iter().map(|g| g.as_secs_f64()).sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.125).abs() < 0.003, "mean gap {mean}");
    }

    #[test]
    fn uniform_gaps_are_constant() {
        let mut rng = SimRng::seed_from_u64(3);
        let gaps = ArrivalProcess::Uniform { rate: 4.0 }.gaps(10, &mut rng);
        assert!(gaps.iter().all(|&g| g == SimDuration::from_millis(250)));
    }

    #[test]
    fn bursty_has_higher_variance_than_poisson() {
        let mut rng = SimRng::seed_from_u64(9);
        let bursty = ArrivalProcess::Bursty {
            base_rate: 2.0,
            burst_rate: 20.0,
            mean_phase_secs: 5.0,
        };
        let var = |gaps: &[SimDuration]| {
            let xs: Vec<f64> = gaps.iter().map(|g| g.as_secs_f64()).collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64 / (m * m)
        };
        let vb = var(&bursty.gaps(20_000, &mut rng));
        let vp = var(&ArrivalProcess::poisson(bursty.mean_rate()).gaps(20_000, &mut rng));
        // A two-state MMPP with a 10x rate ratio is overdispersed well past
        // Poisson's squared CV of 1 — not just "a bit above" it.
        assert!(vb > 1.5 * vp, "squared CV bursty {vb} vs poisson {vp}");
        assert!((vp - 1.0).abs() < 0.1, "poisson squared CV {vp}");
    }

    #[test]
    fn bursty_realizes_configured_mean_rate() {
        // With correct phase accounting the realized long-run rate matches
        // mean_rate(); the pre-fix code overshot phase boundaries at the
        // old phase's rate, biasing the realized rate toward base_rate.
        let mut rng = SimRng::seed_from_u64(17);
        let bursty = ArrivalProcess::Bursty {
            base_rate: 2.0,
            burst_rate: 20.0,
            mean_phase_secs: 5.0,
        };
        let gaps = bursty.gaps(100_000, &mut rng);
        let total: f64 = gaps.iter().map(|g| g.as_secs_f64()).sum();
        let realized = gaps.len() as f64 / total;
        let expected = bursty.mean_rate();
        assert!(
            (realized - expected).abs() / expected < 0.05,
            "realized {realized} req/s vs configured {expected}"
        );
    }

    #[test]
    fn bursty_with_equal_rates_degenerates_to_poisson() {
        // base == burst: phase flips change nothing; the process is plain
        // Poisson (memorylessness makes the split-at-boundary draws exact).
        let mut rng = SimRng::seed_from_u64(23);
        let bursty = ArrivalProcess::Bursty {
            base_rate: 6.0,
            burst_rate: 6.0,
            mean_phase_secs: 2.0,
        };
        let gaps = bursty.gaps(50_000, &mut rng);
        let xs: Vec<f64> = gaps.iter().map(|g| g.as_secs_f64()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        let cv2 = var / (mean * mean);
        assert!((mean - 1.0 / 6.0).abs() < 0.005, "mean gap {mean}");
        assert!((cv2 - 1.0).abs() < 0.1, "squared CV {cv2}");
    }

    #[test]
    fn mean_rate_reports_configuration() {
        assert_eq!(ArrivalProcess::poisson(5.0).mean_rate(), 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid arrival process")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::poisson(0.0);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert!(ArrivalProcess::try_poisson(4.0).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ArrivalProcess::try_poisson(bad).unwrap_err();
            assert!(matches!(err, crate::Error::InvalidArrival { .. }), "{err}");
            assert!(ArrivalProcess::try_uniform(bad).is_err());
        }
    }

    #[test]
    fn validate_covers_fieldwise_construction() {
        assert!(ArrivalProcess::poisson(2.0).validate().is_ok());
        let bad = ArrivalProcess::Bursty {
            base_rate: 2.0,
            burst_rate: 20.0,
            mean_phase_secs: 0.0,
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("mean_phase_secs"), "{err}");
        let bad = ArrivalProcess::Poisson { rate: f64::NAN };
        assert!(bad.validate().is_err());
    }
}
