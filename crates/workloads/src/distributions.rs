//! Probability distributions implemented in-repo.
//!
//! Only `rand` is in the approved dependency set (not `rand_distr`), so the
//! few distributions the generator needs are implemented here: log-normal
//! runtimes (Box–Muller) and weighted empirical tables.

use rand::{Rng, RngExt};

/// A samplable distribution over `f64`.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut impl Rng) -> f64;

    /// Empirical mean over `n` draws with a dedicated RNG (used for load
    /// calibration).
    fn empirical_mean(&self, rng: &mut impl Rng, n: usize) -> f64 {
        (0..n.max(1)).map(|_| self.sample(rng)).sum::<f64>() / n.max(1) as f64
    }
}

/// Log-normal distribution parameterized by the underlying normal's mean
/// and standard deviation, with optional clamping.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    /// Mean of `ln(X)`; `exp(mu)` is the median.
    pub mu: f64,
    /// Standard deviation of `ln(X)`.
    pub sigma: f64,
    /// Lower clamp applied after sampling.
    pub min: f64,
    /// Upper clamp applied after sampling.
    pub max: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given median and shape, clamped.
    pub fn with_median(median: f64, sigma: f64, min: f64, max: f64) -> Self {
        LogNormal {
            mu: median.ln(),
            sigma,
            min,
            max,
        }
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut impl Rng) -> f64 {
        // Box–Muller transform.
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp().clamp(self.min, self.max)
    }
}

/// A weighted discrete distribution over values.
#[derive(Debug, Clone)]
pub struct Empirical {
    /// `(weight, value)` pairs; weights need not be normalized.
    pub points: Vec<(f64, f64)>,
}

impl Empirical {
    /// Creates an empirical table.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "empirical table must not be empty");
        assert!(
            points.iter().all(|&(w, _)| w >= 0.0),
            "weights must be nonnegative"
        );
        Empirical { points }
    }

    /// Exact mean of the table.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.points.iter().map(|&(w, _)| w).sum();
        self.points.iter().map(|&(w, v)| w * v).sum::<f64>() / total
    }
}

impl Sample for Empirical {
    fn sample(&self, rng: &mut impl Rng) -> f64 {
        let total: f64 = self.points.iter().map(|&(w, _)| w).sum();
        let mut x: f64 = rng.random::<f64>() * total;
        for &(w, v) in &self.points {
            if x < w {
                return v;
            }
            x -= w;
        }
        self.points.last().expect("non-empty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn lognormal_median_and_clamp() {
        let d = LogNormal::with_median(100.0, 0.5, 10.0, 1000.0);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 100.0).abs() < 5.0, "median {median}");
        assert!(samples.iter().all(|&x| (10.0..=1000.0).contains(&x)));
    }

    #[test]
    fn empirical_respects_weights() {
        let d = Empirical::new(vec![(0.8, 1.0), (0.2, 10.0)]);
        let mut r = rng();
        let n = 20_000;
        let ones = (0..n).filter(|_| d.sample(&mut r) == 1.0).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "fraction {frac}");
        assert!((d.mean() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let d = LogNormal::with_median(50.0, 0.7, 1.0, 1e6);
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_empirical_rejected() {
        Empirical::new(vec![]);
    }
}
