//! Fixture: the service crate — clocks draw L001; threads and locks, L010.

use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

pub fn now() -> Instant {
    Instant::now()
}
