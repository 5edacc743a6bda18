//! Fixture: every banned needle, in trivia and literals only — the token
//! port must produce exactly ONE finding in this file (the real hash map
//! at the bottom) and nothing for the needles.
//!
//! Doc-comment needles: Instant::now(), SystemTime, .unwrap(), HashMap,
//! HashSet, std::time, ladder_rung, Mutex, std::thread, static mut,
//! AtomicU64, panic!(), xs.iter().sum::<f64>().

/* nested /* SystemTime std::sync::Mutex x.unwrap() */ HashMap */

pub fn needles() -> (&'static str, &'static str) {
    let plain = "Instant::now() and SystemTime and HashMap<u32, u32>";
    let raw = r##"ladder_rung = 3; static mut X; thread::spawn; a == 1.0"##;
    (plain, raw)
}

/// A real violation after the needles proves the port misses nothing.
pub fn real(m: &std::collections::HashMap<u32, u32>) -> usize {
    m.len()
}
