//! Fixture: L001 — clock access inside the telemetry crate.

use std::time::Instant;

pub fn now() -> Instant {
    Instant::now()
}
