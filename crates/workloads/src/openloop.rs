//! Open-loop arrivals for service-mode experiments.
//!
//! The closed-loop builders calibrate arrivals so offered load tracks the
//! cluster's capacity. A long-lived scheduling *service* instead faces an
//! open-loop stream whose rate is set by the outside world — including
//! sustained overload. The driver wraps the existing gridmix/swim
//! generators: a `rate_multiplier` of 2.0 doubles the calibrated Poisson
//! arrival rate (2× saturation). All output is deterministic under the
//! seed of the wrapped [`GridmixConfig`].

use tetrisched_sim::JobSpec;

use crate::compositions::Workload;
use crate::gridmix::{GridmixConfig, WorkloadBuilder};

/// Open-loop driver configuration.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// The wrapped closed-loop generator configuration (seed, job count,
    /// cluster size, estimate error, ...).
    pub base: GridmixConfig,
    /// Arrival-rate multiplier over the calibrated rate: 1.0 reproduces
    /// the closed-loop calibration, 2.0 offers twice the cluster's
    /// capacity (2× saturation).
    pub rate_multiplier: f64,
}

impl OpenLoopConfig {
    /// Poisson arrivals at `rate_multiplier` times the calibrated rate.
    pub fn saturating(base: GridmixConfig, rate_multiplier: f64) -> Self {
        OpenLoopConfig {
            base,
            rate_multiplier,
        }
    }
}

/// Generates open-loop job streams by wrapping the gridmix builder.
#[derive(Debug, Clone)]
pub struct OpenLoopDriver {
    config: OpenLoopConfig,
}

impl OpenLoopDriver {
    /// Creates a driver.
    pub fn new(config: OpenLoopConfig) -> Self {
        OpenLoopDriver { config }
    }

    /// Generates the arrival stream for a workload.
    ///
    /// The calibrated gridmix arrival rate is linear in
    /// `target_utilization` (`lambda = target × capacity / E[work]`), so
    /// multiplying the target multiplies the Poisson rate exactly; job
    /// bodies (sizes, runtimes, deadline slacks) keep their closed-loop
    /// distributions.
    pub fn generate(&self, workload: Workload) -> Vec<JobSpec> {
        let scaled = GridmixConfig {
            target_utilization: self.config.base.target_utilization * self.config.rate_multiplier,
            ..self.config.base.clone()
        };
        WorkloadBuilder::new(scaled).generate(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(seed: u64) -> GridmixConfig {
        GridmixConfig {
            seed,
            num_jobs: 300,
            cluster_size: 80,
            ..GridmixConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = OpenLoopConfig::saturating(base(11), 2.0);
        let a = OpenLoopDriver::new(cfg.clone()).generate(Workload::GsMix);
        let b = OpenLoopDriver::new(cfg).generate(Workload::GsMix);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.k, y.k);
            assert_eq!(x.base_runtime, y.base_runtime);
            assert_eq!(x.deadline, y.deadline);
        }
    }

    #[test]
    fn rate_multiplier_compresses_the_arrival_span() {
        let one =
            OpenLoopDriver::new(OpenLoopConfig::saturating(base(5), 1.0)).generate(Workload::GsMix);
        let two =
            OpenLoopDriver::new(OpenLoopConfig::saturating(base(5), 2.0)).generate(Workload::GsMix);
        let span = |jobs: &[JobSpec]| jobs.iter().map(|j| j.submit).max().unwrap() as f64;
        let ratio = span(&one) / span(&two);
        // Doubling the rate should roughly halve the span of the same
        // number of arrivals.
        assert!((1.5..=2.7).contains(&ratio), "span ratio {ratio}");
    }

    #[test]
    fn multiplier_one_reproduces_the_closed_loop_stream() {
        let closed = WorkloadBuilder::new(base(7)).generate(Workload::GsHet);
        let open =
            OpenLoopDriver::new(OpenLoopConfig::saturating(base(7), 1.0)).generate(Workload::GsHet);
        assert_eq!(closed.len(), open.len());
        for (c, o) in closed.iter().zip(&open) {
            assert_eq!(c.submit, o.submit);
            assert_eq!(c.deadline, o.deadline);
        }
    }
}
