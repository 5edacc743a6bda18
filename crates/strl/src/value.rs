//! Value functions encoding deadline sensitivity (paper Fig. 5, Sec. 6.2.2).
//!
//! A value function `v(t)` maps a job's *completion time* to scalar value.
//! The paper's experiments use three internal value functions:
//!
//! - **accepted SLO** jobs: a constant worth `1000x` the best-effort base
//!   value up to the deadline, zero after,
//! - **SLO without reservation**: the same shape at `25x`,
//! - **best-effort**: a linearly decaying function starting at the base
//!   value, encoding "prefer to finish sooner".

use crate::Time;

/// Base value of a best-effort job (the paper's `v`).
pub const BE_BASE_VALUE: f64 = 1.0;
/// Multiplier for accepted SLO jobs (paper: `1000v`).
pub const SLO_ACCEPTED_FACTOR: f64 = 1000.0;
/// Multiplier for SLO jobs whose reservation was rejected (paper: `25v`).
pub const SLO_NO_RESERVATION_FACTOR: f64 = 25.0;

/// Job class as seen by the value machinery (paper Sec. 6.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// SLO job whose Rayon reservation was accepted.
    SloAccepted,
    /// SLO job that requested a reservation and was rejected.
    SloNoReservation,
    /// Job that never requested a reservation.
    BestEffort,
}

impl JobClass {
    /// Whether the job carries a deadline SLO.
    pub fn is_slo(self) -> bool {
        !matches!(self, JobClass::BestEffort)
    }
}

/// A value function mapping completion time to value.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueFn {
    /// Constant `value` for completions at or before `deadline`, zero after.
    StepDeadline {
        /// Value while the deadline is met.
        value: f64,
        /// Completion deadline (absolute time).
        deadline: Time,
    },
    /// `start_value * max(0, 1 - (t - submit) / horizon)`: linear decay from
    /// submission, hitting zero at `submit + horizon`.
    LinearDecay {
        /// Value of an instantaneous completion.
        start_value: f64,
        /// Job submission time the decay is anchored at.
        submit: Time,
        /// Time span over which the value decays to zero.
        horizon: u64,
    },
}

impl ValueFn {
    /// The paper's internal value function for a job of the given class.
    ///
    /// `submit` anchors best-effort decay; `deadline` applies to SLO
    /// classes; `horizon` is the span over which best-effort value decays.
    pub fn internal(class: JobClass, submit: Time, deadline: Time, horizon: u64) -> ValueFn {
        match class {
            JobClass::SloAccepted => ValueFn::StepDeadline {
                value: BE_BASE_VALUE * SLO_ACCEPTED_FACTOR,
                deadline,
            },
            JobClass::SloNoReservation => ValueFn::StepDeadline {
                value: BE_BASE_VALUE * SLO_NO_RESERVATION_FACTOR,
                deadline,
            },
            JobClass::BestEffort => ValueFn::LinearDecay {
                start_value: BE_BASE_VALUE,
                submit,
                horizon: horizon.max(1),
            },
        }
    }

    /// Value of completing at time `t`.
    pub fn at(&self, t: Time) -> f64 {
        match self {
            ValueFn::StepDeadline { value, deadline } => {
                if t <= *deadline {
                    *value
                } else {
                    0.0
                }
            }
            ValueFn::LinearDecay {
                start_value,
                submit,
                horizon,
            } => {
                let elapsed = t.saturating_sub(*submit) as f64;
                (start_value * (1.0 - elapsed / *horizon as f64)).max(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_deadline_shape() {
        let v = ValueFn::StepDeadline {
            value: 1000.0,
            deadline: 50,
        };
        assert_eq!(v.at(0), 1000.0);
        assert_eq!(v.at(50), 1000.0);
        assert_eq!(v.at(51), 0.0);
    }

    #[test]
    fn linear_decay_shape() {
        let v = ValueFn::LinearDecay {
            start_value: 1.0,
            submit: 100,
            horizon: 200,
        };
        assert_eq!(v.at(100), 1.0);
        assert!((v.at(200) - 0.5).abs() < 1e-12);
        assert_eq!(v.at(300), 0.0);
        assert_eq!(v.at(400), 0.0);
        // Completion "before submission" (clamped) is full value.
        assert_eq!(v.at(0), 1.0);
    }

    #[test]
    fn internal_matches_fig5_ratios() {
        let slo = ValueFn::internal(JobClass::SloAccepted, 0, 100, 1000);
        let nores = ValueFn::internal(JobClass::SloNoReservation, 0, 100, 1000);
        let be = ValueFn::internal(JobClass::BestEffort, 0, 100, 1000);
        assert_eq!(slo.at(0) / be.at(0), 1000.0);
        assert_eq!(nores.at(0) / be.at(0), 25.0);
        // SLO value collapses past the deadline; BE value only decays.
        assert_eq!(slo.at(101), 0.0);
        assert!(be.at(101) > 0.0);
    }

    #[test]
    fn job_class_slo_predicate() {
        assert!(JobClass::SloAccepted.is_slo());
        assert!(JobClass::SloNoReservation.is_slo());
        assert!(!JobClass::BestEffort.is_slo());
    }
}
