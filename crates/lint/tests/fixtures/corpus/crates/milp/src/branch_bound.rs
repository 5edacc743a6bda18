//! Fixture: L001 — the search stops on work, not on a clock, so the solver
//! is off the measurement allowlist.

use std::time::Instant;

pub fn started() -> Instant {
    Instant::now()
}
